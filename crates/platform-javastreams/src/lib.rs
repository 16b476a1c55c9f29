//! JavaStreams platform simulacrum: a single-threaded, in-process engine
//! with zero startup overhead (§6's `JavaStreams`).
//!
//! Its native channel *is* the driver's in-memory collection, so it needs
//! no conversion operators — it is the universal "small data" engine the
//! optimizer mixes with distributed platforms (e.g. running SGD's weight
//! updates while Spark handles the data points, Fig. 3).

#![warn(missing_docs)]

use std::sync::Arc;

use rheem_core::batch;
use rheem_core::channel::{kinds, ChannelData, ChannelKind};
use rheem_core::cost::{CostModel, Load};
use rheem_core::error::{Result, RheemError};
use rheem_core::exec::{ExecCtx, ExecutionOperator};
use rheem_core::fused::{self, Segment};
use rheem_core::kernels;
use rheem_core::mapping::{upstream_chain, Candidate, FnMapping};
use rheem_core::partitioned::{chain_cost, supported, ChainCosts};
use rheem_core::plan::{LogicalOp, OpKind, OperatorNode, RheemPlan};
use rheem_core::platform::{ids, Platform, PlatformId};
use rheem_core::registry::Registry;
use rheem_core::udf::BroadcastCtx;
use rheem_core::value::Value;

/// The JavaStreams platform.
#[derive(Default)]
pub struct JavaStreamsPlatform;

impl JavaStreamsPlatform {
    /// Create the platform.
    pub fn new() -> Self {
        Self
    }
}

/// One JavaStreams execution operator: interprets a logical operator (or a
/// fused chain of them) over in-memory collections, single-threaded.
pub struct JavaOperator {
    /// The fused chain, in dataflow order.
    ops: Vec<LogicalOp>,
    name: String,
}

impl JavaOperator {
    /// Wrap a chain of logical operators.
    pub fn new(ops: Vec<LogicalOp>) -> Self {
        let name = fused::chain_name("Java", &ops);
        Self { ops, name }
    }

    fn apply_one(
        op: &LogicalOp,
        inputs: &[&[Value]],
        bc: &BroadcastCtx,
        seed: u64,
        iteration: u64,
    ) -> Result<Vec<Value>> {
        let a = inputs.first().copied().unwrap_or(&[]);
        Ok(match op {
            LogicalOp::Map(udf) => kernels::map(a, udf, bc),
            LogicalOp::FlatMap(udf) => kernels::flat_map(a, udf, bc),
            LogicalOp::Filter(pred) => kernels::filter(a, pred, bc),
            LogicalOp::SargFilter { pred, .. } => kernels::filter(a, pred, bc),
            LogicalOp::Project { fields } => kernels::project(a, fields),
            LogicalOp::Sample { method, size, seed: s } => kernels::sample(
                a,
                *method,
                *size,
                s.unwrap_or(seed) ^ iteration.wrapping_mul(0x9E37_79B9),
            ),
            LogicalOp::SortBy(key) => kernels::sort_by(a, key),
            LogicalOp::Distinct => kernels::distinct(a),
            LogicalOp::Count => vec![Value::from(a.len())],
            LogicalOp::GroupBy(key) => kernels::group_by(a, key),
            LogicalOp::Reduce(agg) => kernels::reduce(a, agg),
            LogicalOp::ReduceBy { key, agg } => kernels::reduce_by(a, key, agg),
            LogicalOp::Union => {
                let b = inputs.get(1).copied().unwrap_or(&[]);
                let mut out = a.to_vec();
                out.extend_from_slice(b);
                out
            }
            LogicalOp::Join { left_key, right_key } => {
                let b = inputs.get(1).copied().unwrap_or(&[]);
                kernels::hash_join(a, b, left_key, right_key)
            }
            LogicalOp::Cartesian => {
                let b = inputs.get(1).copied().unwrap_or(&[]);
                kernels::cartesian(a, b)
            }
            LogicalOp::InequalityJoin { conds } => {
                let b = inputs.get(1).copied().unwrap_or(&[]);
                kernels::ineq_join_nested(a, b, conds)
            }
            LogicalOp::PageRank { iterations, damping } => {
                kernels::page_rank(a, *iterations, *damping)
            }
            other => {
                return Err(RheemError::Unsupported(format!(
                    "JavaStreams cannot execute {:?}",
                    other.kind()
                )))
            }
        })
    }
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

/// The chain-costing constants of a single-threaded in-process engine: a
/// small setup δ, no task framework per record.
const COSTS: ChainCosts = ChainCosts {
    token: "java.streams",
    stage_delta: 2_000.0,
    fused_alpha: 150.0,
    alpha: default_alpha,
    pagerank_size: 10.0,
};

impl ExecutionOperator for JavaOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn platform(&self) -> PlatformId {
        ids::JAVA_STREAMS
    }

    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }

    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }

    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        // One partition: the chain's wide operators exchange nothing.
        let (cycles, _net) = chain_cost(&COSTS, &self.ops, in_cards, avg_bytes, model);
        Load::cpu(cycles)
    }

    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.fault_gate(ids::JAVA_STREAMS, &self.name)?;
        let seed = ctx.seed;
        let iteration = ctx.iteration;
        let input_data: Vec<rheem_core::value::Dataset> =
            inputs.iter().map(|c| c.flatten()).collect::<Result<_>>()?;
        let in_card: u64 = input_data.iter().map(|d| d.len() as u64).sum();
        let ops = &self.ops;
        if ctx.tracing() {
            let segs = fused::segment_chain(ops);
            for (i, seg) in segs.iter().enumerate() {
                if let Segment::Fused { pipeline, .. } = seg {
                    if pipeline.len() > 1 {
                        let terminal = matches!(
                            segs.get(i + 1),
                            Some(Segment::Single { op: LogicalOp::ReduceBy { .. }, .. })
                        );
                        let steps = pipeline.len();
                        ctx.trace_event("java.fused", || {
                            vec![
                                ("steps".to_string(), steps.into()),
                                ("terminal_agg".to_string(), i64::from(terminal).into()),
                            ]
                        });
                    }
                }
            }
        }
        let batched = ctx.batch();
        let mut vec_rows = 0u64;
        let mut vec_batches = 0u64;
        let mut vec_steps = 0u32;
        let mut row_steps = 0u32;
        let result = ctx.timed_seq(self, in_card, || {
            // Fused runs of narrow operators execute in one traversal with
            // no intermediate collection; only wide/sampling operators
            // materialize between segments.
            let segs = fused::segment_chain(ops);
            let mut current: Option<Vec<Value>> = None;
            let mut final_batch: Option<batch::Batch> = None;
            let mut si = 0;
            while si < segs.len() {
                current = Some(match &segs[si] {
                    Segment::Fused { pipeline, .. } => {
                        let input: &[Value] = if si == 0 {
                            input_data.first().map(|d| d.as_slice()).unwrap_or(&[])
                        } else {
                            current.as_deref().unwrap_or(&[])
                        };
                        let vk =
                            if batched { batch::VectorKernel::compile(pipeline) } else { None };
                        // Fused terminal aggregation: a chain feeding a
                        // ReduceBy streams its survivors straight into the
                        // hash accumulator — the dataset between chain and
                        // aggregation is never materialized.
                        if let Some(Segment::Single {
                            op: LogicalOp::ReduceBy { key, agg }, ..
                        }) = segs.get(si + 1)
                        {
                            si += 2;
                            match vk
                                .as_ref()
                                .and_then(|k| batch::run_reduce(k, input, key, agg, false))
                            {
                                Some(out) => {
                                    vec_rows += input.len() as u64;
                                    vec_batches += 1;
                                    vec_steps += pipeline.len() as u32 + 1;
                                    out
                                }
                                None => {
                                    if batched {
                                        row_steps += pipeline.len() as u32 + 1;
                                    }
                                    let mut state = kernels::ReduceByState::new(key, agg);
                                    pipeline.run_each(input, bc, |v| state.feed_owned(v));
                                    state.finish()
                                }
                            }
                        } else {
                            si += 1;
                            match vk.as_ref().and_then(|k| k.run_values(input)) {
                                Some(b) => {
                                    vec_rows += input.len() as u64;
                                    vec_batches += 1;
                                    vec_steps += pipeline.len() as u32;
                                    if si == segs.len() {
                                        // Terminal vectorized segment: hand
                                        // the columns downstream as-is; any
                                        // row-only consumer materializes them
                                        // lazily via flatten/sample.
                                        final_batch = Some(b);
                                        Vec::new()
                                    } else {
                                        b.to_values()
                                    }
                                }
                                None => {
                                    if batched {
                                        row_steps += pipeline.len() as u32;
                                    }
                                    pipeline.run(input, bc)
                                }
                            }
                        }
                    }
                    Segment::Single { op, .. } => {
                        let borrowed: Vec<&[Value]> = if si == 0 {
                            input_data.iter().map(|d| d.as_slice()).collect()
                        } else {
                            vec![current.as_deref().unwrap_or(&[])]
                        };
                        si += 1;
                        JavaOperator::apply_one(op, &borrowed, bc, seed, iteration)?
                    }
                });
            }
            if let Some(b) = final_batch {
                let n = b.selected_len() as u64;
                return Ok((ChannelData::Batches(Arc::new(vec![b])), n));
            }
            let out = current.unwrap_or_default();
            let n = out.len() as u64;
            Ok((ChannelData::Collection(Arc::new(out)), n))
        });
        if vec_steps > 0 {
            ctx.report_vectorized(vec_rows, vec_batches, vec_steps);
        }
        if row_steps > 0 {
            ctx.report_row_fallback(row_steps);
        }
        result
    }
}

impl Platform for JavaStreamsPlatform {
    fn id(&self) -> PlatformId {
        ids::JAVA_STREAMS
    }

    fn register(&self, registry: &mut Registry) {
        // 1-to-1 mappings for every supported operator.
        registry.add_mapping(Arc::new(FnMapping(|_plan: &RheemPlan, node: &OperatorNode| {
            // Everything the partitioned engines run, minus their parallel
            // text source.
            let kind = node.op.kind();
            if !supported(kind) || kind.is_source() {
                return vec![];
            }
            vec![Candidate::single(
                node.id,
                Arc::new(JavaOperator::new(vec![node.op.clone()])) as _,
            )]
        })));
        // n-to-1 fusion of unary pipelines (map/filter/flatmap), the
        // JavaStreams counterpart of Fig. 4's subplan mappings: one pass,
        // no intermediate collections.
        registry.add_mapping(Arc::new(FnMapping(|plan: &RheemPlan, node: &OperatorNode| {
            let fusable = |n: &OperatorNode| fused::fusable(&n.op);
            if !fusable(node) {
                return vec![];
            }
            let chain = upstream_chain(plan, node, fusable);
            if chain.len() < 2 {
                return vec![];
            }
            let ops: Vec<LogicalOp> = chain.iter().map(|&id| plan.node(id).op.clone()).collect();
            vec![Candidate { covers: chain, exec: Arc::new(JavaOperator::new(ops)) as _ }]
        })));
        // n-to-1 fusion *into* a terminal ReduceBy: the narrow chain plus
        // the aggregation execute as one operator whose pipeline survivors
        // stream straight into the hash accumulator (fused terminal
        // aggregation) — no pair dataset between chain and aggregation.
        registry.add_mapping(Arc::new(FnMapping(|plan: &RheemPlan, node: &OperatorNode| {
            if node.op.kind() != OpKind::ReduceBy {
                return vec![];
            }
            let chain = upstream_chain(plan, node, |n| fused::fusable(&n.op) || n.id == node.id);
            if chain.len() < 2 {
                return vec![];
            }
            let ops: Vec<LogicalOp> = chain.iter().map(|&id| plan.node(id).op.clone()).collect();
            vec![Candidate { covers: chain, exec: Arc::new(JavaOperator::new(ops)) as _ }]
        })));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::api::RheemContext;
    use rheem_core::plan::PlanBuilder;
    use rheem_core::udf::{FlatMapUdf, KeyUdf, MapUdf, PredicateUdf, ReduceUdf};

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
        let op = JavaOperator::new(vec![LogicalOp::CollectionSink]);
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
