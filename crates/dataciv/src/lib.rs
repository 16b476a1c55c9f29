//! **Data Civilizer** polystore tasks (§2.4): TPC-H Q5 across three stores —
//! LINEITEM and ORDERS on HDFS, CUSTOMER/SUPPLIER/REGION in Postgres, and
//! NATION on the local file system — plus the Fig. 10(a) join subquery
//! (SUPPLIER ⋈ CUSTOMER on `nationkey`, aggregated on the same key).
//!
//! Rheem runs the relational slices where the data lives (scans and
//! sargable filters stay in Postgres), moves only the projected rows out,
//! and joins across stores on a general-purpose platform — the paper's
//! polystore case.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::sync::Arc;

use platform_postgres::PgDatabase;
use rheem_core::error::Result;
use rheem_core::plan::{OperatorId, PlanBuilder, RheemPlan};
use rheem_core::udf::{CmpOp, KeyUdf, MapUdf, PredicateUdf, ReduceUdf, Sarg};
use rheem_core::value::Value;
use rheem_datagen::tpch::{self, TpchData};

/// Where each table lives (the paper's placement).
pub struct Placement {
    /// `hdfs://` file with `|`-separated LINEITEM rows.
    pub lineitem: PathBuf,
    /// `hdfs://` file with `|`-separated ORDERS rows.
    pub orders: PathBuf,
    /// Local file with `|`-separated NATION rows.
    pub nation: PathBuf,
    /// The relational store holding CUSTOMER, SUPPLIER and REGION.
    pub db: Arc<PgDatabase>,
}

/// Materialize a generated TPC-H dataset into the paper's placement:
/// LINEITEM + ORDERS → HDFS, NATION → local FS, the rest → Postgres.
pub fn place(data: &TpchData, scratch: &str) -> Result<Placement> {
    let db = Arc::new(PgDatabase::new());
    db.load_table(
        "customer",
        vec!["custkey".to_string(), "name".to_string(), "nationkey".to_string()],
        data.customer.clone(),
    );
    db.load_table(
        "supplier",
        vec!["suppkey".to_string(), "name".to_string(), "nationkey".to_string()],
        data.supplier.clone(),
    );
    db.load_table("region", vec!["regionkey".to_string(), "name".to_string()], data.region.clone());
    let lineitem = PathBuf::from(format!("hdfs://{scratch}/lineitem.tbl"));
    let orders = PathBuf::from(format!("hdfs://{scratch}/orders.tbl"));
    let nation = std::env::temp_dir().join(scratch).join("nation.tbl");
    rheem_storage::write_lines(&lineitem, data.lineitem.iter().map(tpch::row_to_line))?;
    rheem_storage::write_lines(&orders, data.orders.iter().map(tpch::row_to_line))?;
    rheem_storage::write_lines(&nation, data.nation.iter().map(tpch::row_to_line))?;
    Ok(Placement { lineitem, orders, nation, db })
}

fn parse_tbl() -> MapUdf {
    MapUdf::new("parse_tbl", |line| tpch::line_to_row(line.as_str().unwrap_or("")))
}

/// Build the TPC-H **Q5** plan over the polystore placement: revenue per
/// nation for customers and suppliers of the same nation within `region`,
/// orders from `year`, sorted by revenue descending.
///
/// Output quanta: `(nation_name, revenue)`.
pub fn build_q5_plan(p: &Placement, region: &str, year: i64) -> Result<(RheemPlan, OperatorId)> {
    let mut b = PlanBuilder::new();

    // REGION (Postgres): filter to the asked region, keep its key.
    let region_lit = Value::from(region);
    let regionkeys = b
        .read_table("region")
        .filter_sarg(
            PredicateUdf::new("region_name", {
                let lit = region_lit.clone();
                move |r| r.field(1) == &lit
            }),
            Sarg { field: 1, op: CmpOp::Eq, literal: region_lit },
        )
        .with_selectivity(0.2)
        .project(vec![0usize]);

    // NATION (local file): `(nationkey, name, regionkey)`.
    let nation = b.read_text_file(p.nation.clone()).map(parse_tbl());
    // nations of the region: (nationkey, name)
    let region_nations = nation.join(&regionkeys, KeyUdf::field(2), KeyUdf::field(0)).map(
        MapUdf::new("nat_flat", |pair| {
            let n = pair.field(0);
            Value::pair(n.field(0).clone(), n.field(1).clone())
        }),
    );

    // CUSTOMER (Postgres): (custkey, nationkey) for region nations.
    let customers = b
        .read_table("customer")
        .project(vec![0usize, 2])
        .join(&region_nations, KeyUdf::field(1), KeyUdf::field(0))
        .map(MapUdf::new("cust_flat", |pair| {
            let c = pair.field(0);
            Value::pair(c.field(0).clone(), c.field(1).clone())
        }));

    // SUPPLIER (Postgres): (suppkey, nationkey) for region nations.
    let suppliers = b
        .read_table("supplier")
        .project(vec![0usize, 2])
        .join(&region_nations, KeyUdf::field(1), KeyUdf::field(0))
        .map(MapUdf::new("supp_flat", |pair| {
            let s = pair.field(0);
            Value::pair(s.field(0).clone(), s.field(1).clone())
        }));

    // ORDERS (HDFS): (orderkey, custkey, year) filtered to the year, joined
    // with customers → (orderkey, cust_nation).
    let year_orders = b
        .read_text_file(p.orders.clone())
        .map(parse_tbl())
        .filter(PredicateUdf::new("order_year", move |o| o.field(2).as_int() == Some(year)))
        .with_selectivity(1.0 / 7.0)
        .join(&customers, KeyUdf::field(1), KeyUdf::field(0))
        .map(MapUdf::new("ord_flat", |pair| {
            let o = pair.field(0);
            let c = pair.field(1);
            Value::pair(o.field(0).clone(), c.field(1).clone())
        }));

    // LINEITEM (HDFS): join orders on orderkey, suppliers on suppkey; keep
    // rows where customer and supplier share the nation; aggregate revenue.
    let revenue_rows = b
        .read_text_file(p.lineitem.clone())
        .map(parse_tbl())
        .join(&year_orders, KeyUdf::field(0), KeyUdf::field(0))
        .map(MapUdf::new("li_ord", |pair| {
            let l = pair.field(0);
            let o = pair.field(1);
            // (suppkey, cust_nation, revenue)
            Value::tuple(vec![
                l.field(1).clone(),
                o.field(1).clone(),
                Value::from(
                    l.field(2).as_f64().unwrap_or(0.0) * (1.0 - l.field(3).as_f64().unwrap_or(0.0)),
                ),
            ])
        }))
        .join(&suppliers, KeyUdf::field(0), KeyUdf::field(0))
        .filter(PredicateUdf::new("same_nation", |pair| {
            pair.field(0).field(1) == pair.field(1).field(1)
        }))
        .with_selectivity(0.2)
        .map(MapUdf::new("nat_rev", |pair| {
            let lo = pair.field(0);
            Value::pair(lo.field(1).clone(), lo.field(2).clone())
        }));

    // GROUP BY nation, ORDER BY revenue DESC; resolve names via nations.
    let result = revenue_rows
        .reduce_by_key(
            KeyUdf::field(0),
            ReduceUdf::new("sum_rev", |a, b| {
                Value::pair(
                    a.field(0).clone(),
                    Value::from(
                        a.field(1).as_f64().unwrap_or(0.0) + b.field(1).as_f64().unwrap_or(0.0),
                    ),
                )
            }),
        )
        .join(&region_nations, KeyUdf::field(0), KeyUdf::field(0))
        .map(MapUdf::new("name_rev", |pair| {
            Value::pair(pair.field(1).field(1).clone(), pair.field(0).field(1).clone())
        }))
        .sort_by(KeyUdf::new("neg_rev", |v| Value::from(-v.field(1).as_f64().unwrap_or(0.0))));
    let sink = result.collect();
    b.build().map(|plan| (plan, sink))
}

/// Build the Fig. 10(a) **Join** task: SUPPLIER ⋈ CUSTOMER on `nationkey`
/// (both live in Postgres), counting pairs per nation. The paper's point:
/// Rheem projects inside Postgres but moves the join to a parallel engine,
/// beating the obvious all-in-the-DB execution.
pub fn build_join_task(_db: &Arc<PgDatabase>) -> Result<(RheemPlan, OperatorId)> {
    let mut b = PlanBuilder::new();
    let suppliers = b.read_table("supplier").project(vec![0usize, 2]);
    let customers = b.read_table("customer").project(vec![0usize, 2]);
    let sink = suppliers
        .join(&customers, KeyUdf::field(1), KeyUdf::field(1))
        .map(MapUdf::new("nk_one", |pair| {
            Value::pair(pair.field(0).field(1).clone(), Value::from(1))
        }))
        .reduce_by_key(
            KeyUdf::field(0),
            ReduceUdf::new("cnt", |a, b| {
                Value::pair(
                    a.field(0).clone(),
                    Value::from(
                        a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0),
                    ),
                )
            }),
        )
        .collect();
    b.build().map(|plan| (plan, sink))
}

/// Build a **batch of independent analytic tasks** over the lake placement
/// as one multi-sink plan — the data-lake scenario (§2.1): several tenants'
/// tasks run against the same stores at once. The tasks share no operators,
/// so their stage DAGs are disjoint and the executor's critical-path virtual
/// clock overlaps them across stores instead of paying their costs
/// back-to-back.
///
/// * join: SUPPLIER ⋈ CUSTOMER on `nationkey` out of Postgres (Fig. 10a),
/// * revenue: discounted revenue per supplier from LINEITEM on HDFS,
/// * years: order count per year from ORDERS on HDFS.
///
/// Returns the plan plus the three sink ids in that order.
pub fn build_task_batch(p: &Placement) -> Result<(RheemPlan, Vec<OperatorId>)> {
    let mut b = PlanBuilder::new();

    let suppliers = b.read_table("supplier").project(vec![0usize, 2]);
    let customers = b.read_table("customer").project(vec![0usize, 2]);
    let join_sink = suppliers
        .join(&customers, KeyUdf::field(1), KeyUdf::field(1))
        .map(MapUdf::new("nk_one", |pair| {
            Value::pair(pair.field(0).field(1).clone(), Value::from(1))
        }))
        .reduce_by_key(
            KeyUdf::field(0),
            ReduceUdf::new("cnt", |a, b| {
                Value::pair(
                    a.field(0).clone(),
                    Value::from(
                        a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0),
                    ),
                )
            }),
        )
        .collect();

    let revenue_sink = b
        .read_text_file(p.lineitem.clone())
        .map(parse_tbl())
        .map(MapUdf::new("supp_rev", |l| {
            Value::pair(
                l.field(1).clone(),
                Value::from(
                    l.field(2).as_f64().unwrap_or(0.0) * (1.0 - l.field(3).as_f64().unwrap_or(0.0)),
                ),
            )
        }))
        .reduce_by_key(
            KeyUdf::field(0),
            ReduceUdf::new("sum_rev", |a, b| {
                Value::pair(
                    a.field(0).clone(),
                    Value::from(
                        a.field(1).as_f64().unwrap_or(0.0) + b.field(1).as_f64().unwrap_or(0.0),
                    ),
                )
            }),
        )
        .collect();

    let years_sink = b
        .read_text_file(p.orders.clone())
        .map(parse_tbl())
        .map(MapUdf::new("year_one", |o| Value::pair(o.field(2).clone(), Value::from(1))))
        .reduce_by_key(
            KeyUdf::field(0),
            ReduceUdf::new("cnt", |a, b| {
                Value::pair(
                    a.field(0).clone(),
                    Value::from(
                        a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0),
                    ),
                )
            }),
        )
        .collect();

    b.build().map(|plan| (plan, vec![join_sink, revenue_sink, years_sink]))
}

/// Reference result for the join task (oracle).
pub fn join_task_reference(data: &TpchData) -> Vec<(i64, i64)> {
    use std::collections::HashMap;
    let mut s: HashMap<i64, i64> = HashMap::new();
    for row in &data.supplier {
        *s.entry(row.field(2).as_int().unwrap()).or_default() += 1;
    }
    let mut c: HashMap<i64, i64> = HashMap::new();
    for row in &data.customer {
        *c.entry(row.field(2).as_int().unwrap()).or_default() += 1;
    }
    let mut out: Vec<(i64, i64)> =
        s.iter().filter_map(|(k, sv)| c.get(k).map(|cv| (*k, sv * cv))).collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform_flink::FlinkPlatform;
    use platform_javastreams::JavaStreamsPlatform;
    use platform_postgres::PostgresPlatform;
    use platform_spark::SparkPlatform;
    use rheem_core::api::RheemContext;

    fn polystore_ctx(db: &Arc<PgDatabase>) -> RheemContext {
        let mut ctx = RheemContext::new()
            .with_platform(&JavaStreamsPlatform::new())
            .with_platform(&SparkPlatform::new())
            .with_platform(&FlinkPlatform::new());
        ctx.register_platform(&PostgresPlatform::new(Arc::clone(db)));
        ctx
    }

    #[test]
    fn q5_matches_reference() {
        let data = tpch::generate(0.05, 17);
        let p = place(&data, "dataciv_test_q5").unwrap();
        let ctx = polystore_ctx(&p.db);
        let (plan, sink) = build_q5_plan(&p, "ASIA", 1995).unwrap();
        let result = ctx.execute(&plan).unwrap();
        let got: Vec<(String, f64)> = result
            .sink(sink)
            .unwrap()
            .iter()
            .map(|v| (v.field(0).as_str().unwrap().to_string(), v.field(1).as_f64().unwrap()))
            .collect();
        let expected = tpch::q5_reference(&data, "ASIA", 1995);
        assert_eq!(got.len(), expected.len());
        for ((gn, gr), (en, er)) in got.iter().zip(&expected) {
            assert_eq!(gn, en);
            assert!((gr - er).abs() < 1e-6, "{gn}: {gr} vs {er}");
        }
        // the polystore task must reach into the relational store; the
        // HDFS/local-FS sides are read by whichever engine the optimizer
        // picked (possibly the driver itself at this tiny scale)
        assert!(result.metrics.platforms.contains(&rheem_core::platform::ids::POSTGRES));
    }

    #[test]
    fn task_batch_join_sink_matches_reference() {
        let data = tpch::generate(0.1, 29);
        let p = place(&data, "dataciv_test_batch").unwrap();
        let ctx = polystore_ctx(&p.db);
        let (plan, sinks) = build_task_batch(&p).unwrap();
        let result = ctx.execute(&plan).unwrap();
        // Sink 0 is the Fig. 10(a) join — check it against the oracle.
        let mut got: Vec<(i64, i64)> = result
            .sink(sinks[0])
            .unwrap()
            .iter()
            .map(|v| (v.field(0).as_int().unwrap(), v.field(1).as_int().unwrap()))
            .collect();
        got.sort();
        assert_eq!(got, join_task_reference(&data));
        // The other tasks' sinks materialized: one revenue row per supplier
        // appearing in LINEITEM and one count per distinct order year.
        let rev_suppliers: std::collections::HashSet<i64> =
            data.lineitem.iter().map(|l| l.field(1).as_int().unwrap()).collect();
        assert_eq!(result.sink(sinks[1]).unwrap().len(), rev_suppliers.len());
        let years: std::collections::HashSet<i64> =
            data.orders.iter().map(|o| o.field(2).as_int().unwrap()).collect();
        assert_eq!(result.sink(sinks[2]).unwrap().len(), years.len());
    }

    #[test]
    fn join_task_matches_reference() {
        let data = tpch::generate(0.2, 23);
        let p = place(&data, "dataciv_test_join").unwrap();
        let ctx = polystore_ctx(&p.db);
        let (plan, sink) = build_join_task(&p.db).unwrap();
        let result = ctx.execute(&plan).unwrap();
        let mut got: Vec<(i64, i64)> = result
            .sink(sink)
            .unwrap()
            .iter()
            .map(|v| (v.field(0).as_int().unwrap(), v.field(1).as_int().unwrap()))
            .collect();
        got.sort();
        assert_eq!(got, join_task_reference(&data));
    }

    #[test]
    fn placement_spreads_tables() {
        let data = tpch::generate(0.05, 29);
        let p = place(&data, "dataciv_test_place").unwrap();
        assert!(p.lineitem.to_string_lossy().starts_with("hdfs://"));
        assert!(!p.nation.to_string_lossy().starts_with("hdfs://"));
        assert_eq!(p.db.row_count("customer"), Some(data.customer.len()));
        assert!(rheem_storage::stat(&p.lineitem).unwrap().0 > 0);
    }
}
