//! Flink platform simulacrum: a partitioned batch engine with **operator
//! chaining** — fused narrow pipelines execute in a single pass per
//! partition with no intermediate materialization — lower job-submission
//! overhead than Spark, and cheap (native) iterations (§6's `Flink`).
//!
//! What Flink *is* here is the [`FLINK`] table — its constants over the one
//! partitioned engine of [`rheem_core::partitioned`] — plus what only Flink
//! has: the `flink.vertex` trace event and its pipelined `flink.dataset`
//! channel. Its chaining rule (a job vertex may end in a ReduceBy, GroupBy
//! or Distinct) is the table's `fuse_into` row over the engine's shared
//! mappings ([`Engine::add_mappings`]), which it registers like every other
//! engine. The per-iteration advantage the paper observes (e.g. CrocoPR's
//! preparation phase, Fig. 9(f)) emerges from the profile's lower stage/task
//! overheads: the executor re-dispatches loop-body stages every iteration,
//! so cheaper stages compound across iterations.

#![warn(missing_docs)]

use std::sync::Arc;

use rheem_core::channel::{kinds, ChannelDescriptor, ChannelKind};
use rheem_core::exec::ExecCtx;
use rheem_core::partitioned::{ChainCosts, Collect, Engine, FromCollection, ReadTextFile};
use rheem_core::plan::OpKind;
use rheem_core::platform::{ids, Platform, PlatformId};
use rheem_core::registry::Registry;

/// Flink's pipelined DataSet channel (consumed once).
pub const DATASET: ChannelKind = ChannelKind("flink.dataset");

/// Flink as a partitioned engine: cheaper submission and bridges than
/// Spark, delta iterations that ship only changed state, a fixed source
/// parallelism.
pub static FLINK: Engine = Engine {
    label: "Flink",
    platform: ids::FLINK,
    accepts: &[DATASET],
    output: DATASET,
    single_partition: false,
    fuse_into: &[OpKind::ReduceBy, OpKind::GroupBy, OpKind::Distinct],
    costs: ChainCosts {
        token: "flink",
        stage_delta: 12_000.0,
        fused_alpha: 170.0,
        alpha: default_alpha,
        pagerank_size: 11.0,
    },
    pagerank_iter_share: 0.25,
    broadcast_ms: 0.5,
    count_tasks: 1.0,
    bridge_delta: 8_000.0,
    bridge_ms: 0.4,
    from_collection: "FromCollection",
    read_alpha: 230.0,
    read_delta: 12_000.0,
    read_tasks: Some(8),
    on_exchange: None,
    on_stage: Some(vertex_event),
    on_fused: None,
};

/// The Flink platform.
#[derive(Default)]
pub struct FlinkPlatform;

impl FlinkPlatform {
    /// Create the platform.
    pub fn new() -> Self {
        Self
    }
}

/// Report a job vertex to the job trace (its parallelism and input).
fn vertex_event(ctx: &mut ExecCtx<'_>, workers: usize, partitions: usize, in_card: u64) {
    ctx.trace_event("flink.vertex", || {
        vec![
            ("workers".to_string(), workers.into()),
            ("partitions".to_string(), partitions.into()),
            ("in_card".to_string(), in_card.into()),
        ]
    });
}

/// Per-quantum cycle costs on Flink: cheaper narrow operators than Spark
/// (chaining, managed memory), comparable wide operators, costlier global
/// sort (range partition + merge).
fn default_alpha(kind: OpKind) -> f64 {
    match kind {
        OpKind::Map => 170.0,
        OpKind::FlatMap => 260.0,
        OpKind::Filter | OpKind::SargFilter => 140.0,
        OpKind::Project => 100.0,
        OpKind::Sample => 80.0,
        OpKind::SortBy => 1_100.0,
        OpKind::Distinct => 460.0,
        OpKind::Count => 35.0,
        OpKind::GroupBy => 600.0,
        OpKind::Reduce => 240.0,
        OpKind::ReduceBy => 500.0,
        OpKind::Union => 50.0,
        OpKind::Join => 640.0,
        OpKind::Cartesian => 130.0,
        OpKind::InequalityJoin => 160.0,
        OpKind::PageRank => 850.0,
        OpKind::TextFileSource => 230.0,
        _ => 120.0,
    }
}

impl Platform for FlinkPlatform {
    fn id(&self) -> PlatformId {
        ids::FLINK
    }

    fn register(&self, registry: &mut Registry) {
        registry.add_channel(ChannelDescriptor { kind: DATASET, reusable: false });
        registry.add_conversion(DATASET, kinds::COLLECTION, Arc::new(Collect::new(&FLINK)));
        registry.add_conversion(kinds::COLLECTION, DATASET, Arc::new(FromCollection::new(&FLINK)));
        registry.add_conversion(kinds::HDFS_FILE, DATASET, Arc::new(ReadTextFile::new(&FLINK)));
        registry.add_conversion(kinds::LOCAL_FILE, DATASET, Arc::new(ReadTextFile::new(&FLINK)));

        FLINK.add_mappings(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::api::RheemContext;
    use rheem_core::plan::PlanBuilder;
    use rheem_core::udf::{KeyUdf, MapUdf, PredicateUdf, ReduceUdf};
    use rheem_core::value::Value;

    #[test]
    fn chained_pipeline_executes_in_one_pass() {
        // map -> filter -> map -> reduce_by fuses into one FlinkChain.
        let mut b = PlanBuilder::new();
        let sink = b
            .collection((0..200i64).map(Value::from).collect::<Vec<_>>())
            .map(MapUdf::new("inc", |v| Value::from(v.as_int().unwrap() + 1)))
            .filter(PredicateUdf::new("even", |v| v.as_int().unwrap() % 2 == 0))
            .map(MapUdf::new("mod", |v| {
                Value::pair(Value::from(v.as_int().unwrap() % 3), Value::from(1))
            }))
            .reduce_by_key(
                KeyUdf::field(0),
                ReduceUdf::new("cnt", |a, b| {
                    Value::pair(
                        a.field(0).clone(),
                        Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
                    )
                }),
            )
            .collect();
        let plan = b.build().unwrap();
        let c = RheemContext::new().with_platform(&FlinkPlatform::new());
        let (opt, _) = c.compile(&plan).unwrap();
        // the reduce_by anchors a chain covering the three narrow ops + itself
        let reduce_choice = opt.choice[4];
        assert!(opt.candidates[reduce_choice].covers.len() >= 2);
        let result = c.execute(&plan).unwrap();
        let total: i64 =
            result.sink(sink).unwrap().iter().map(|v| v.field(1).as_int().unwrap()).sum();
        assert_eq!(total, 100); // 100 even numbers in 1..=200
    }

    #[test]
    fn flink_cheaper_than_spark_on_stage_overheads() {
        let p = rheem_core::platform::Profiles::paper_testbed();
        assert!(p.get(ids::FLINK).stage_overhead_ms < p.get(ids::SPARK).stage_overhead_ms);
    }
}
