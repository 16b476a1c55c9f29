//! JavaStreams platform simulacrum: a single-threaded, in-process engine
//! with zero startup overhead (§6's `JavaStreams`).
//!
//! What JavaStreams *is* here is the [`JAVA_STREAMS`] table — the
//! single-partition row over the one dataflow engine of
//! [`rheem_core::partitioned`]: one partition, no exchange, operators timed
//! as scaled host time — plus its `java.fused` trace event. Its native
//! channel *is* the driver's in-memory collection, so it needs no conversion
//! operators — it is the universal "small data" engine the optimizer mixes
//! with distributed platforms (e.g. running SGD's weight updates while Spark
//! handles the data points, Fig. 3).

#![warn(missing_docs)]

use rheem_core::channel::kinds;
use rheem_core::exec::ExecCtx;
use rheem_core::partitioned::{ChainCosts, Engine};
use rheem_core::plan::OpKind;
use rheem_core::platform::{ids, Platform, PlatformId};
use rheem_core::registry::Registry;

/// JavaStreams as the single-partition engine: a small setup δ, no task
/// framework per record, no bridges, broadcasts or exchanges to charge.
pub static JAVA_STREAMS: Engine = Engine {
    label: "Java",
    platform: ids::JAVA_STREAMS,
    accepts: &[kinds::COLLECTION],
    output: kinds::COLLECTION,
    single_partition: true,
    fuse_into: &[OpKind::ReduceBy],
    costs: ChainCosts {
        token: "java.streams",
        stage_delta: 2_000.0,
        fused_alpha: 150.0,
        alpha: default_alpha,
        pagerank_size: 10.0,
    },
    pagerank_iter_share: 0.0,
    broadcast_ms: 0.0,
    count_tasks: 0.0,
    bridge_delta: 0.0,
    bridge_ms: 0.0,
    from_collection: "",
    read_alpha: 0.0,
    read_delta: 0.0,
    read_tasks: None,
    on_exchange: None,
    on_stage: None,
    on_fused: Some(fused_event),
};

/// The JavaStreams platform.
#[derive(Default)]
pub struct JavaStreamsPlatform;

impl JavaStreamsPlatform {
    /// Create the platform.
    pub fn new() -> Self {
        Self
    }
}

/// Report a fused narrow run to the job trace (its length, and whether it
/// streams into a terminal ReduceBy).
fn fused_event(ctx: &mut ExecCtx<'_>, steps: usize, terminal_agg: bool) {
    ctx.trace_event("java.fused", || {
        vec![
            ("steps".to_string(), steps.into()),
            ("terminal_agg".to_string(), i64::from(terminal_agg).into()),
        ]
    });
}

/// Default CPU cost (abstract cycles per input quantum) per operator kind on
/// a single-threaded in-process engine.
fn default_alpha(kind: OpKind) -> f64 {
    match kind {
        OpKind::Map => 150.0,
        OpKind::FlatMap => 250.0,
        OpKind::Filter | OpKind::SargFilter => 120.0,
        OpKind::Project => 90.0,
        OpKind::Sample => 60.0,
        OpKind::SortBy => 900.0,
        OpKind::Distinct => 350.0,
        OpKind::Count => 15.0,
        OpKind::GroupBy => 450.0,
        OpKind::Reduce => 200.0,
        OpKind::ReduceBy => 400.0,
        OpKind::Union => 40.0,
        OpKind::Join => 500.0,
        OpKind::Cartesian => 90.0,
        OpKind::InequalityJoin => 110.0,
        OpKind::PageRank => 700.0,
        _ => 100.0,
    }
}

impl Platform for JavaStreamsPlatform {
    fn id(&self) -> PlatformId {
        ids::JAVA_STREAMS
    }

    fn register(&self, registry: &mut Registry) {
        JAVA_STREAMS.add_mappings(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::api::RheemContext;
    use rheem_core::channel::ChannelData;
    use rheem_core::exec::ExecutionOperator;
    use rheem_core::partitioned::{Chain, Shape};
    use rheem_core::plan::{LogicalOp, PlanBuilder};
    use rheem_core::udf::{BroadcastCtx, FlatMapUdf, KeyUdf, MapUdf, PredicateUdf, ReduceUdf};
    use rheem_core::value::Value;
    use std::sync::Arc;

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(&JavaStreamsPlatform::new())
    }

    #[test]
    fn wordcount_end_to_end() {
        let mut b = PlanBuilder::new();
        let sink = b
            .collection(vec![Value::from("a b a c"), Value::from("b a")])
            .flat_map(FlatMapUdf::new("split", |v| {
                v.as_str().unwrap().split_whitespace().map(Value::from).collect()
            }))
            .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
            .reduce_by_key(
                KeyUdf::field(0),
                ReduceUdf::new("sum", |a, b| {
                    Value::pair(
                        a.field(0).clone(),
                        Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
                    )
                }),
            )
            .collect();
        let plan = b.build().unwrap();
        let result = ctx().execute(&plan).unwrap();
        let data = result.sink(sink).unwrap();
        assert_eq!(data.len(), 3);
        let a = data.iter().find(|v| v.field(0).as_str() == Some("a")).unwrap();
        assert_eq!(a.field(1).as_int(), Some(3));
        assert_eq!(result.metrics.platforms, vec![ids::JAVA_STREAMS]);
    }

    #[test]
    fn chain_fusion_produces_single_candidate() {
        let mut b = PlanBuilder::new();
        b.collection((0..100i64).map(Value::from).collect::<Vec<_>>())
            .map(MapUdf::new("inc", |v| Value::from(v.as_int().unwrap() + 1)))
            .filter(PredicateUdf::new("even", |v| v.as_int().unwrap() % 2 == 0))
            .map(MapUdf::new("x2", |v| Value::from(v.as_int().unwrap() * 2)))
            .collect();
        let plan = b.build().unwrap();
        let c = ctx();
        let (opt, _eplan) = c.compile(&plan).unwrap();
        // All three unary ops share one candidate (fused chain).
        let ci = opt.choice[1];
        assert_eq!(opt.choice[2], ci);
        assert_eq!(opt.choice[3], ci);
        assert_eq!(opt.candidates[ci].covers.len(), 3);
        // and it still computes the right answer
        let result = c.execute(&plan).unwrap();
        let data = result.sinks().values().next().unwrap();
        assert_eq!(data.len(), 50);
    }

    #[test]
    fn loop_with_broadcast_runs() {
        // mini-SGD shape: weights looped, data broadcast into the body.
        let mut b = PlanBuilder::new();
        let data = b.collection((0..10i64).map(Value::from).collect::<Vec<_>>());
        let weights = b.collection(vec![Value::from(0)]);
        let final_w = weights.repeat(3, |w| {
            w.map(MapUdf::with_ctx("step", |v, ctx| {
                let d = ctx.get_or_empty("data");
                Value::from(v.as_int().unwrap() + d.len() as i64)
            }))
            .broadcast("data", &data)
        });
        let sink = final_w.collect();
        let plan = b.build().unwrap();
        let result = ctx().execute(&plan).unwrap();
        let w = result.sink(sink).unwrap();
        assert_eq!(w[0].as_int(), Some(30)); // 3 iterations × 10
    }

    #[test]
    fn sample_inside_loop_accumulates() {
        use rheem_core::plan::{SampleMethod, SampleSize};
        let mut b = PlanBuilder::new();
        let data = b.collection((1..=1000i64).map(Value::from).collect::<Vec<_>>());
        let acc = b.collection(vec![Value::from(0)]);
        let out = acc.repeat(2, |w| {
            let s =
                data.sample(SampleMethod::Random, SampleSize::Count(5)).reduce(ReduceUdf::sum());
            w.map(MapUdf::with_ctx("addsum", |v, ctx| {
                let s = ctx.get_or_empty("batch");
                Value::from(v.as_int().unwrap() + s.first().and_then(Value::as_int).unwrap_or(0))
            }))
            .broadcast("batch", &s)
        });
        out.collect();
        let plan = b.build().unwrap();
        let result = ctx().execute(&plan).unwrap();
        let v = result.sinks().values().next().unwrap()[0].as_int().unwrap();
        assert!(v > 0);
    }

    #[test]
    fn unsupported_op_reports_cleanly() {
        let op = Chain::new(&JAVA_STREAMS, Shape::One(LogicalOp::CollectionSink));
        let profiles = rheem_core::platform::Profiles::bare();
        let mut ecx = ExecCtx::new(&profiles, 0);
        let r = op.execute(
            &mut ecx,
            &[ChannelData::Collection(Arc::new(vec![]))],
            &BroadcastCtx::new(),
        );
        assert!(r.is_err());
    }
}
