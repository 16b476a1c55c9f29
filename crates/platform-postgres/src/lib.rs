//! PostgreSQL platform simulacrum: a mini relational store + engine.
//!
//! Tables hold tuple quanta; B-tree indexes back sargable predicates; the
//! engine runs scans (with predicate/projection pushdown), index scans,
//! hash joins, aggregation and sorting with a `parallel_query`-style degree
//! of 4 (§6.1). Loading data *into* the store is deliberately expensive
//! (WAL + index maintenance), reproducing the paper's observation that
//! "loading data into Postgres is already ≈3× slower than it takes Rheem to
//! complete the entire task" (Fig. 2(d)); exporting rows via a cursor is
//! the conversion that lets other platforms take over (Fig. 10(a)).
//!
//! Post-scan operators run the shared single-partition interpreter
//! ([`rheem_core::kernels::apply`]) over the relation's rows; what stays here
//! is the store, the scans, the relational cost model and clock (4-way
//! parallel query over scaled host time), and the relation landing, which
//! rejects any other layout with the typed, never-retried
//! [`rheem_core::partitioned::wrong_layout`].

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use std::sync::RwLock;

use rheem_core::batch;
use rheem_core::channel::{kinds, ChannelData, ChannelDescriptor, ChannelKind};
use rheem_core::cost::{linear_cpu, CostModel, Load};
use rheem_core::error::{Result, RheemError};
use rheem_core::exec::{dataset_bytes, ExecCtx, ExecutionOperator, OpMetrics};
use rheem_core::fused::{FusedPipeline, FusedStep};
use rheem_core::kernels;
use rheem_core::mapping::{Candidate, FnMapping};
use rheem_core::partitioned;
use rheem_core::plan::{LogicalOp, OpKind, OperatorNode, RheemPlan};
use rheem_core::platform::{ids, Platform, PlatformId};
use rheem_core::registry::Registry;
use rheem_core::udf::{BroadcastCtx, CmpOp, PredicateUdf, Sarg};
use rheem_core::value::{Dataset, Value};

/// The relation channel: rows materialized inside the store (reusable).
pub const RELATION: ChannelKind = ChannelKind("postgres.relation");

/// A relation payload flowing through [`RELATION`] channels.
#[derive(Debug)]
pub struct Relation {
    /// The rows (tuple quanta).
    pub rows: Dataset,
}

/// One stored table.
pub struct Table {
    /// Column names, in field order.
    pub columns: Vec<String>,
    /// Rows as tuple quanta.
    pub rows: Dataset,
    /// B-tree indexes by field position.
    pub indexes: HashMap<usize, BTreeMap<Value, Vec<usize>>>,
}

impl Table {
    fn build_index(rows: &[Value], field: usize) -> BTreeMap<Value, Vec<usize>> {
        let mut idx: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (i, row) in rows.iter().enumerate() {
            idx.entry(row.field(field).clone()).or_default().push(i);
        }
        idx
    }

    /// Row positions matching a sarg via the index on its field (requires
    /// the index to exist).
    pub fn index_lookup(&self, sarg: &Sarg) -> Option<Vec<usize>> {
        let idx = self.indexes.get(&sarg.field)?;
        let mut out = Vec::new();
        let lit = &sarg.literal;
        match sarg.op {
            CmpOp::Eq => {
                if let Some(rows) = idx.get(lit) {
                    out.extend_from_slice(rows);
                }
            }
            CmpOp::Lt => {
                for (_, rows) in idx.range(..lit.clone()) {
                    out.extend_from_slice(rows);
                }
            }
            CmpOp::Le => {
                for (_, rows) in idx.range(..=lit.clone()) {
                    out.extend_from_slice(rows);
                }
            }
            CmpOp::Gt => {
                for (k, rows) in idx.range(lit.clone()..) {
                    if k != lit {
                        out.extend_from_slice(rows);
                    }
                }
            }
            CmpOp::Ge => {
                for (_, rows) in idx.range(lit.clone()..) {
                    out.extend_from_slice(rows);
                }
            }
            CmpOp::Ne => return None, // not sargable via b-tree
        }
        Some(out)
    }
}

/// The database: a set of named tables behind a lock.
#[derive(Default)]
pub struct PgDatabase {
    tables: RwLock<HashMap<String, Table>>,
}

impl PgDatabase {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create (or replace) a table from rows.
    pub fn load_table(
        &self,
        name: impl Into<String>,
        columns: impl Into<Vec<String>>,
        rows: Vec<Value>,
    ) {
        self.tables.write().unwrap().insert(
            name.into(),
            Table { columns: columns.into(), rows: Arc::new(rows), indexes: HashMap::new() },
        );
    }

    /// Create a B-tree index on a field of a table.
    pub fn create_index(&self, table: &str, field: usize) -> Result<()> {
        let mut tables = self.tables.write().unwrap();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| RheemError::Execution(format!("no such table: {table}")))?;
        let idx = Table::build_index(&t.rows, field);
        t.indexes.insert(field, idx);
        Ok(())
    }

    /// Row count of a table.
    pub fn row_count(&self, table: &str) -> Option<usize> {
        self.tables.read().unwrap().get(table).map(|t| t.rows.len())
    }

    /// Whether an index exists on `table.field`.
    pub fn has_index(&self, table: &str, field: usize) -> bool {
        self.tables
            .read()
            .unwrap()
            .get(table)
            .map(|t| t.indexes.contains_key(&field))
            .unwrap_or(false)
    }

    /// Snapshot the rows of a table.
    pub fn rows(&self, table: &str) -> Result<Dataset> {
        self.tables
            .read()
            .unwrap()
            .get(table)
            .map(|t| Arc::clone(&t.rows))
            .ok_or_else(|| RheemError::Execution(format!("no such table: {table}")))
    }

    /// Column names of a table.
    pub fn columns(&self, table: &str) -> Option<Vec<String>> {
        self.tables.read().unwrap().get(table).map(|t| t.columns.clone())
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().unwrap().keys().cloned().collect()
    }
}

/// The Postgres platform, bound to one database instance.
pub struct PostgresPlatform {
    db: Arc<PgDatabase>,
}

impl PostgresPlatform {
    /// Bind the platform to a database.
    pub fn new(db: Arc<PgDatabase>) -> Self {
        Self { db }
    }
}

/// Relational work Postgres executes natively: sequential scans, index
/// scans, filter/projection pushdown, hash join, aggregation, sort,
/// nested-loop inequality join, and row-wise `Map`/`FlatMap` (SQL
/// expressions / LATERAL). Sampling, PageRank and loops are *not* mapped —
/// the optimizer must move the data out, which is exactly the paper's
/// "mandatory cross-platform" case (§2.3).
pub struct PgOperator {
    db: Arc<PgDatabase>,
    op: PgOp,
    name: String,
}

enum PgOp {
    SeqScan { table: String, filter: Option<Sarg>, project: Option<Vec<usize>> },
    IndexScan { table: String, sarg: Sarg, project: Option<Vec<usize>> },
    Logical(LogicalOp),
}

impl PgOperator {
    fn new(db: Arc<PgDatabase>, op: PgOp) -> Self {
        let name = match &op {
            PgOp::SeqScan { filter: Some(_), .. } => "PgFilteredSeqScan".to_string(),
            PgOp::SeqScan { .. } => "PgSeqScan".to_string(),
            PgOp::IndexScan { .. } => "PgIndexScan".to_string(),
            PgOp::Logical(l) => format!("Pg{:?}", l.kind()),
        };
        Self { db, op, name }
    }
}

fn default_alpha(kind: OpKind) -> f64 {
    match kind {
        OpKind::Map => 140.0,
        OpKind::FlatMap => 220.0,
        OpKind::Filter | OpKind::SargFilter => 90.0,
        OpKind::Project => 60.0,
        OpKind::SortBy => 800.0,
        OpKind::Distinct => 300.0,
        OpKind::Count => 20.0,
        OpKind::GroupBy => 400.0,
        OpKind::Reduce => 150.0,
        OpKind::ReduceBy => 350.0,
        OpKind::Union => 40.0,
        OpKind::Join => 420.0,
        OpKind::Cartesian => 100.0,
        OpKind::InequalityJoin => 120.0,
        _ => 100.0,
    }
}

impl ExecutionOperator for PgOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn platform(&self) -> PlatformId {
        ids::POSTGRES
    }

    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![RELATION]
    }

    fn output_kind(&self) -> ChannelKind {
        RELATION
    }

    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        match &self.op {
            PgOp::SeqScan { .. } => {
                let rows = in_cards.first().copied().unwrap_or(0.0);
                Load {
                    cpu_cycles: linear_cpu(model, "postgres", "seqscan", rows, 0.0, 120.0, 3_000.0),
                    disk_bytes: rows * avg_bytes,
                    tasks: 4, // parallel query
                    ..Load::default()
                }
            }
            PgOp::IndexScan { .. } => {
                // B-tree descent + matched-row fetches. For composite source
                // candidates, in_cards carries per-covered-op estimates:
                // the last entry is the matched-row (post-filter) estimate.
                let matched = in_cards.last().copied().unwrap_or(0.0);
                Load {
                    cpu_cycles: linear_cpu(
                        model,
                        "postgres",
                        "indexscan",
                        matched,
                        0.0,
                        250.0,
                        8_000.0,
                    ),
                    disk_bytes: matched * avg_bytes,
                    tasks: 1,
                    ..Load::default()
                }
            }
            PgOp::Logical(op) => {
                let kind = op.kind();
                let c: f64 = in_cards.iter().sum();
                let size = if matches!(kind, OpKind::Cartesian | OpKind::InequalityJoin) {
                    in_cards.iter().product::<f64>().max(c)
                } else if kind == OpKind::SortBy {
                    c * c.max(2.0).log2()
                } else {
                    c
                };
                Load {
                    cpu_cycles: linear_cpu(
                        model,
                        "postgres",
                        kind.token(),
                        size,
                        0.0,
                        default_alpha(kind),
                        2_000.0,
                    ),
                    tasks: 4,
                    ..Load::default()
                }
            }
        }
    }

    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.fault_gate(ids::POSTGRES, self.name())?;
        let profile = ctx.profile(ids::POSTGRES).clone();
        let start = Instant::now();
        let (rows, in_card, extra_virtual): (Vec<Value>, u64, f64) = match &self.op {
            PgOp::SeqScan { table, filter, project } => {
                let data = self.db.rows(table)?;
                let disk_ms = profile.disk_ms(dataset_bytes(&data)) / profile.cores.max(1) as f64;
                // Pushed-down filter + projection run as one fused pass over
                // the heap pages — no intermediate row vector.
                let mut steps = Vec::new();
                if let Some(sarg) = filter {
                    let s = sarg.clone();
                    let mut pred = PredicateUdf::new("sarg", move |v| s.eval(v));
                    pred.spec = Some(rheem_core::udf::PredSpec::Sarg(sarg.clone()));
                    steps.push(FusedStep::Filter(pred));
                }
                if let Some(fields) = project {
                    steps.push(FusedStep::Project(fields.clone()));
                }
                let rows = if steps.is_empty() {
                    data.to_vec()
                } else {
                    let pipeline = FusedPipeline::new(steps);
                    // Scans are sargable by construction: evaluate the
                    // predicate over typed column slices when enabled.
                    let vectorized = if ctx.batch() {
                        batch::VectorKernel::compile(&pipeline)
                            .and_then(|k| k.run_values(&data).map(|b| (b, pipeline.len() as u32)))
                    } else {
                        None
                    };
                    match vectorized {
                        Some((b, steps)) => {
                            ctx.report_vectorized(data.len() as u64, 1, steps);
                            b.to_values()
                        }
                        None => {
                            if ctx.batch() {
                                ctx.report_row_fallback(pipeline.len() as u32);
                            }
                            pipeline.run(&data, bc)
                        }
                    }
                };
                (rows, data.len() as u64, disk_ms)
            }
            PgOp::IndexScan { table, sarg, project } => {
                let tables = self.db.tables.read().unwrap();
                let t = tables
                    .get(table)
                    .ok_or_else(|| RheemError::Execution(format!("no such table: {table}")))?;
                let positions = t.index_lookup(sarg).ok_or_else(|| {
                    RheemError::Execution(format!("no usable index on {table}.{}", sarg.field))
                })?;
                let mut rows: Vec<Value> = positions.iter().map(|&i| t.rows[i].clone()).collect();
                if let Some(fields) = project {
                    rows = kernels::project(&rows, fields);
                }
                // B-tree descent cost is tiny; random page fetches dominate.
                let fetch_ms = positions.len() as f64 * 0.0002;
                (rows, positions.len() as u64, fetch_ms)
            }
            PgOp::Logical(op) => {
                let rows = (0..inputs.len())
                    .map(|slot| relation_rows(&self.name, inputs, slot))
                    .collect::<Result<Vec<_>>>()?;
                let in_card = rows.iter().map(|d| d.len() as u64).sum();
                let borrowed: Vec<&[Value]> = rows.iter().map(|d| d.as_slice()).collect();
                let out = kernels::apply(op, &borrowed, bc, ctx.seed, ctx.iteration)?;
                (out, in_card, 0.0)
            }
        };
        let real_ms = start.elapsed().as_secs_f64() * 1000.0;
        // parallel_query: relational operators use up to 4 workers.
        let virtual_ms = real_ms * profile.cpu_scale / profile.cores.max(1) as f64 + extra_virtual;
        let out_card = rows.len() as u64;
        let access = match &self.op {
            PgOp::SeqScan { table, filter, .. } => {
                format!(
                    "seq-scan {table}{}",
                    if filter.is_some() { " (sarg pushdown)" } else { "" }
                )
            }
            PgOp::IndexScan { table, sarg, .. } => format!("index-scan {table}.{}", sarg.field),
            PgOp::Logical(op) => format!("{:?}", op.kind()),
        };
        ctx.trace_event("pg.exec", || {
            vec![("access".to_string(), access.into()), ("rows".to_string(), out_card.into())]
        });
        ctx.record(OpMetrics {
            name: self.name.clone(),
            platform: ids::POSTGRES,
            in_card,
            out_card,
            virtual_ms,
            real_ms,
        });
        Ok(ChannelData::Opaque {
            kind: RELATION,
            payload: Arc::new(Relation { rows: Arc::new(rows) }),
        })
    }
}

/// The rows of the relation on input `slot` of `op`. Any other layout is a
/// plan defect: the typed, never-retried [`partitioned::wrong_layout`].
pub fn relation_rows(op: &str, inputs: &[ChannelData], slot: usize) -> Result<Dataset> {
    let found = partitioned::input(inputs, slot);
    let rel = found
        .as_opaque::<Relation>()
        .map_err(|_| partitioned::wrong_layout(op, slot, found, "a relation"))?;
    Ok(Arc::clone(&rel.rows))
}

/// `relation -> driver collection`: cursor-based export (`COPY TO`/cursor).
pub struct PgExport;

impl ExecutionOperator for PgExport {
    fn name(&self) -> &str {
        "PgExport"
    }
    fn platform(&self) -> PlatformId {
        ids::POSTGRES
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![RELATION]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "postgres", "export", c, 0.0, 350.0, 5_000.0),
            net_bytes: c * avg_bytes,
            tasks: 1,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.transfer_gate(ids::POSTGRES, self.name())?;
        let rows = relation_rows(self.name(), inputs, 0)?;
        let profile = ctx.profile(ids::POSTGRES);
        let virtual_ms = profile.net_ms(dataset_bytes(&rows))
            + rows.len() as f64 * 350.0 / profile.cycles_per_ms
            + 1.0;
        ctx.record(OpMetrics {
            name: "PgExport".into(),
            platform: ids::POSTGRES,
            in_card: rows.len() as u64,
            out_card: rows.len() as u64,
            virtual_ms,
            real_ms: 0.0,
        });
        Ok(ChannelData::Collection(rows))
    }
}

/// `driver collection -> relation`: bulk load (`COPY FROM`), paying WAL and
/// index-maintenance costs — deliberately the most expensive channel
/// conversion in the system (Fig. 2(d)'s "load into the DB" baseline).
pub struct PgLoad;

impl ExecutionOperator for PgLoad {
    fn name(&self) -> &str {
        "PgLoad"
    }
    fn platform(&self) -> PlatformId {
        ids::POSTGRES
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        RELATION
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "postgres", "load", c, 0.0, 1_200.0, 10_000.0),
            disk_bytes: c * avg_bytes * 5.0, // heap + WAL + index + fsync amplification
            net_bytes: c * avg_bytes,
            tasks: 1,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.transfer_gate(ids::POSTGRES, self.name())?;
        let rows = inputs[0].flatten()?;
        let profile = ctx.profile(ids::POSTGRES);
        let bytes = dataset_bytes(&rows);
        let virtual_ms = profile.net_ms(bytes)
            + profile.disk_ms(bytes * 5.0)
            + rows.len() as f64 * 1_200.0 / profile.cycles_per_ms
            + 2.0;
        ctx.record(OpMetrics {
            name: "PgLoad".into(),
            platform: ids::POSTGRES,
            in_card: rows.len() as u64,
            out_card: rows.len() as u64,
            virtual_ms,
            real_ms: 0.0,
        });
        Ok(ChannelData::Opaque { kind: RELATION, payload: Arc::new(Relation { rows }) })
    }
}

/// Relational operator kinds Postgres executes natively on relations.
pub fn supported(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::Map
            | OpKind::FlatMap
            | OpKind::Filter
            | OpKind::SargFilter
            | OpKind::Project
            | OpKind::SortBy
            | OpKind::Distinct
            | OpKind::Count
            | OpKind::GroupBy
            | OpKind::Reduce
            | OpKind::ReduceBy
            | OpKind::Union
            | OpKind::Join
            | OpKind::Cartesian
            | OpKind::InequalityJoin
            | OpKind::TableSource
    )
}

impl Platform for PostgresPlatform {
    fn id(&self) -> PlatformId {
        ids::POSTGRES
    }

    fn register(&self, registry: &mut Registry) {
        registry.add_channel(ChannelDescriptor { kind: RELATION, reusable: true });
        registry.add_conversion(RELATION, kinds::COLLECTION, Arc::new(PgExport));
        registry.add_conversion(kinds::COLLECTION, RELATION, Arc::new(PgLoad));

        // The store reports its table cardinalities to the optimizer.
        let db = Arc::clone(&self.db);
        registry.add_source_estimator(Arc::new(move |op: &LogicalOp| match op {
            LogicalOp::TableSource { table } => db.row_count(table).map(|n| n as f64),
            _ => None,
        }));

        // 1-to-1 mappings for relational operators + table scans.
        let db = Arc::clone(&self.db);
        registry.add_mapping(Arc::new(FnMapping(move |_plan: &RheemPlan, node: &OperatorNode| {
            match &node.op {
                LogicalOp::TableSource { table } => {
                    if db.row_count(table).is_none() {
                        return vec![];
                    }
                    vec![Candidate::single(
                        node.id,
                        Arc::new(PgOperator::new(
                            Arc::clone(&db),
                            PgOp::SeqScan { table: table.clone(), filter: None, project: None },
                        )) as _,
                    )]
                }
                op if supported(op.kind()) && !op.kind().is_source() => {
                    vec![Candidate::single(
                        node.id,
                        Arc::new(PgOperator::new(Arc::clone(&db), PgOp::Logical(op.clone()))) as _,
                    )]
                }
                _ => vec![],
            }
        })));

        // n-to-1 pushdown mappings (Fig. 4's subplan mappings): a sargable
        // filter directly above a table scan becomes an index scan (when an
        // index exists) or a filtered sequential scan; an additional
        // projection on top is folded in too.
        let db = Arc::clone(&self.db);
        registry.add_mapping(Arc::new(FnMapping(move |plan: &RheemPlan, node: &OperatorNode| {
            // Match: node = SargFilter or Project(SargFilter)
            let consumers = plan.consumers();
            let (project, filter_node) = match &node.op {
                LogicalOp::Project { fields } => {
                    if node.inputs.len() != 1 {
                        return vec![];
                    }
                    let inp = plan.node(node.inputs[0]);
                    if consumers[inp.id.index()].len() != 1
                        || !matches!(inp.op, LogicalOp::SargFilter { .. })
                    {
                        return vec![];
                    }
                    (Some(fields.clone()), inp)
                }
                LogicalOp::SargFilter { .. } => (None, node),
                _ => return vec![],
            };
            let LogicalOp::SargFilter { sarg, .. } = &filter_node.op else {
                return vec![];
            };
            if filter_node.inputs.len() != 1 {
                return vec![];
            }
            let scan = plan.node(filter_node.inputs[0]);
            let LogicalOp::TableSource { table } = &scan.op else {
                return vec![];
            };
            if consumers[scan.id.index()].len() != 1 || db.row_count(table).is_none() {
                return vec![];
            }
            let mut covers = vec![scan.id, filter_node.id];
            if project.is_some() {
                covers.push(node.id);
            }
            let mut out = vec![Candidate {
                covers: covers.clone(),
                exec: Arc::new(PgOperator::new(
                    Arc::clone(&db),
                    PgOp::SeqScan {
                        table: table.clone(),
                        filter: Some(sarg.clone()),
                        project: project.clone(),
                    },
                )) as _,
            }];
            if db.has_index(table, sarg.field) && sarg.op != CmpOp::Ne {
                out.push(Candidate {
                    covers,
                    exec: Arc::new(PgOperator::new(
                        Arc::clone(&db),
                        PgOp::IndexScan { table: table.clone(), sarg: sarg.clone(), project },
                    )) as _,
                });
            }
            out
        })));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::api::RheemContext;
    use rheem_core::plan::PlanBuilder;
    use rheem_core::udf::{KeyUdf, PredicateUdf, ReduceUdf};

    fn db_with_people() -> Arc<PgDatabase> {
        let db = Arc::new(PgDatabase::new());
        let rows: Vec<Value> = (0..1000i64)
            .map(|i| {
                Value::tuple(vec![
                    Value::from(i),
                    Value::from(format!("name{i}")),
                    Value::from(i % 100), // age
                ])
            })
            .collect();
        db.load_table("people", vec!["id".into(), "name".into(), "age".into()], rows);
        db
    }

    fn ctx(db: &Arc<PgDatabase>) -> RheemContext {
        RheemContext::new().with_platform(&PostgresPlatform::new(Arc::clone(db)))
    }

    #[test]
    fn table_scan_reads_all_rows() {
        let db = db_with_people();
        let mut b = PlanBuilder::new();
        let sink = b.read_table("people").collect();
        let plan = b.build().unwrap();
        let result = ctx(&db).execute(&plan).unwrap();
        assert_eq!(result.sink(sink).unwrap().len(), 1000);
    }

    #[test]
    fn index_scan_chosen_when_index_exists() {
        let db = db_with_people();
        db.create_index("people", 2).unwrap();
        let mut b = PlanBuilder::new();
        let sink = b
            .read_table("people")
            .filter_sarg(
                PredicateUdf::new("age=3", |v| v.field(2).as_int() == Some(3)),
                Sarg { field: 2, op: CmpOp::Eq, literal: Value::from(3) },
            )
            .with_selectivity(0.01)
            .collect();
        let plan = b.build().unwrap();
        let c = ctx(&db);
        let (opt, _) = c.compile(&plan).unwrap();
        // SargFilter (op 1) should be covered by a scan+filter composite.
        let cand = opt.candidate_of(rheem_core::plan::OperatorId(1));
        assert_eq!(cand.exec.name(), "PgIndexScan", "{:?}", cand);
        let result = c.execute(&plan).unwrap();
        assert_eq!(result.sink(sink).unwrap().len(), 10);
    }

    #[test]
    fn filtered_seq_scan_without_index() {
        let db = db_with_people();
        let mut b = PlanBuilder::new();
        let sink = b
            .read_table("people")
            .filter_sarg(
                PredicateUdf::new("age<10", |v| v.field(2).as_int().unwrap() < 10),
                Sarg { field: 2, op: CmpOp::Lt, literal: Value::from(10) },
            )
            .collect();
        let plan = b.build().unwrap();
        let c = ctx(&db);
        let (opt, _) = c.compile(&plan).unwrap();
        let cand = opt.candidate_of(rheem_core::plan::OperatorId(1));
        assert_eq!(cand.exec.name(), "PgFilteredSeqScan");
        let result = c.execute(&plan).unwrap();
        assert_eq!(result.sink(sink).unwrap().len(), 100);
    }

    #[test]
    fn index_lookup_ranges() {
        let db = db_with_people();
        db.create_index("people", 0).unwrap();
        let tables = db.tables.read().unwrap();
        let t = tables.get("people").unwrap();
        let lt =
            t.index_lookup(&Sarg { field: 0, op: CmpOp::Lt, literal: Value::from(5) }).unwrap();
        assert_eq!(lt.len(), 5);
        let ge =
            t.index_lookup(&Sarg { field: 0, op: CmpOp::Ge, literal: Value::from(995) }).unwrap();
        assert_eq!(ge.len(), 5);
        let gt =
            t.index_lookup(&Sarg { field: 0, op: CmpOp::Gt, literal: Value::from(995) }).unwrap();
        assert_eq!(gt.len(), 4);
        assert!(t
            .index_lookup(&Sarg { field: 1, op: CmpOp::Eq, literal: Value::from("x") })
            .is_none());
    }

    #[test]
    fn group_by_and_sort_inside_db() {
        let db = db_with_people();
        let mut b = PlanBuilder::new();
        let sink = b
            .read_table("people")
            .project(vec![2]) // age
            .reduce_by_key(KeyUdf::field(0), ReduceUdf::new("cnt", |a, _b| a.clone()))
            .sort_by(KeyUdf::field(0))
            .collect();
        let plan = b.build().unwrap();
        let c = ctx(&db);
        let result = c.execute(&plan).unwrap();
        let data = result.sink(sink).unwrap();
        assert_eq!(data.len(), 100);
        assert!(data.windows(2).all(|w| w[0] <= w[1]));
        // all ops ran on postgres
        assert_eq!(result.metrics.platforms, vec![ids::POSTGRES]);
    }

    #[test]
    fn source_estimator_reports_table_size() {
        let db = db_with_people();
        let c = ctx(&db);
        let mut b = PlanBuilder::new();
        b.read_table("people").collect();
        let plan = b.build().unwrap();
        let opt = c.optimize(&plan).unwrap();
        let card = opt.estimates.out_card(rheem_core::plan::OperatorId(0));
        assert_eq!(card.lo, 1000.0);
        assert_eq!(card.hi, 1000.0);
    }

    #[test]
    fn missing_table_fails_cleanly() {
        let db = Arc::new(PgDatabase::new());
        let mut b = PlanBuilder::new();
        b.read_table("ghost").collect();
        let plan = b.build().unwrap();
        let err = match ctx(&db).execute(&plan) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected failure"),
        };
        assert!(err.contains("no execution operator"), "{err}");
    }
}
