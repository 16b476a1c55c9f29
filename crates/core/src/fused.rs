//! Fused operator pipelines: single-pass execution of tuple-at-a-time
//! operator chains (Flare-style operator fusion).
//!
//! The seed executed every narrow operator as its own full traversal with a
//! materialized `Vec<Value>` in between, so a chain `Map∘Filter∘FlatMap`
//! paid three traversals and two intermediate datasets. A [`FusedPipeline`]
//! compiles such a chain into one closure-driven pass: each input quantum is
//! pushed through every step before the next quantum is touched, and only
//! quanta that survive to the end of the chain are ever materialized.
//!
//! Every engine reuses this layer — JavaStreams runs a pipeline over the
//! whole collection, Spark and Flink run it per partition inside their
//! parallel `mapPartitions`-style drivers, and Postgres uses it for
//! scan→filter→project pushdown — so fused and unfused paths compute
//! identical results by construction (the steps call the very same UDFs as
//! [`crate::kernels`]).
//!
//! Chains break at loop heads, shuffles (wide operators), materialization
//! points (sinks, caches, fan-out to multiple consumers) and platform
//! boundaries; [`fusable`] names the operators that may join a chain and
//! platform mapping rules enforce the rest (see `upstream_chain` in
//! [`crate::mapping`]). A dataflow engine runs a pipeline as one of the
//! three chain shapes its mappings build ([`crate::partitioned::Shape`]):
//! a narrow run alone, or a narrow run into one wide terminal.

use crate::plan::{LogicalOp, OpKind};
use crate::udf::{BroadcastCtx, FlatMapUdf, MapUdf, PredicateUdf};
use crate::value::Value;

/// One compiled step of a fused pipeline.
#[derive(Clone)]
pub enum FusedStep {
    /// One-to-one transformation.
    Map(MapUdf),
    /// One-to-many transformation.
    FlatMap(FlatMapUdf),
    /// Keep quanta satisfying the predicate (also covers `SargFilter`).
    Filter(PredicateUdf),
    /// Relational projection.
    Project(Vec<usize>),
}

impl FusedStep {
    /// Compile a logical operator into a pipeline step, if it is narrow and
    /// tuple-at-a-time.
    pub fn from_op(op: &LogicalOp) -> Option<FusedStep> {
        match op {
            LogicalOp::Map(u) => Some(FusedStep::Map(u.clone())),
            LogicalOp::FlatMap(u) => Some(FusedStep::FlatMap(u.clone())),
            LogicalOp::Filter(p) => Some(FusedStep::Filter(p.clone())),
            LogicalOp::SargFilter { pred, sarg } => {
                // Carry the sargable description into the fused step so the
                // vectorized path can evaluate it over column slices.
                let mut p = pred.clone();
                p.spec = Some(crate::udf::PredSpec::Sarg(sarg.clone()));
                Some(FusedStep::Filter(p))
            }
            LogicalOp::Project { fields } => Some(FusedStep::Project(fields.clone())),
            _ => None,
        }
    }

    /// Expected output/input cardinality ratio (mirrors the optimizer's
    /// default selectivities).
    pub fn card_factor(&self) -> f64 {
        match self {
            FusedStep::Filter(_) => 0.5,
            FusedStep::FlatMap(_) => 4.0,
            _ => 1.0,
        }
    }

    /// UDF cost hint of this step (abstract cycles per quantum).
    pub fn cost_hint(&self) -> f64 {
        match self {
            FusedStep::Map(u) => u.cost_hint,
            FusedStep::FlatMap(u) => u.cost_hint,
            FusedStep::Filter(p) => p.cost_hint,
            FusedStep::Project(_) => 0.5,
        }
    }

    fn label(&self) -> &str {
        match self {
            FusedStep::Map(u) => &u.name,
            FusedStep::FlatMap(u) => &u.name,
            FusedStep::Filter(p) => &p.name,
            FusedStep::Project(_) => "project",
        }
    }
}

/// Whether an operator may join a fused chain.
pub fn fusable(op: &LogicalOp) -> bool {
    matches!(
        op.kind(),
        OpKind::Map | OpKind::FlatMap | OpKind::Filter | OpKind::SargFilter | OpKind::Project
    )
}

/// Interior *cut points* of an operator chain: every proper prefix length
/// `l` (`1 ≤ l < ops.len()`) such that `ops[..l]` is entirely fusable. At a
/// cut point the chain's intermediate value is exactly the output of the
/// prefix pipeline, so it can be reproduced from the chain's input with one
/// [`FusedPipeline`] pass — the hook the result cache uses to publish
/// interior fingerprints of fused chains (structural subplan sharing).
pub fn cut_points(ops: &[LogicalOp]) -> Vec<usize> {
    let mut out = Vec::new();
    for l in 1..ops.len() {
        if !fusable(&ops[l - 1]) {
            break;
        }
        out.push(l);
    }
    out
}

fn project_one(v: &Value, fields: &[usize]) -> Value {
    Value::Tuple(fields.iter().map(|&i| v.field(i).clone()).collect::<Vec<_>>().into())
}

/// A chain of narrow operators compiled into one single-traversal pass.
#[derive(Clone)]
pub struct FusedPipeline {
    steps: Vec<FusedStep>,
    name: String,
}

impl FusedPipeline {
    /// Compile a pipeline from steps.
    pub fn new(steps: Vec<FusedStep>) -> Self {
        let name = steps.iter().map(|s| s.label()).collect::<Vec<_>>().join("∘");
        Self { steps, name }
    }

    /// Compile a consecutive run of logical operators; `None` if any of them
    /// is not fusable.
    pub fn from_ops(ops: &[LogicalOp]) -> Option<Self> {
        let steps = ops.iter().map(FusedStep::from_op).collect::<Option<Vec<_>>>()?;
        Some(Self::new(steps))
    }

    /// Number of fused steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the pipeline has no steps (acts as identity).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Display name, e.g. `"split∘pair"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled steps, in execution order.
    pub fn steps(&self) -> &[FusedStep] {
        &self.steps
    }

    /// Whether every step carries a recognized spec, i.e. the chain compiles
    /// to a [`crate::batch::VectorKernel`]. Static property of the plan —
    /// used by platform cost models for the vectorization discount, so it
    /// must not depend on the runtime [`crate::executor::ExecConfig::batch`]
    /// switch.
    pub fn vectorizable(&self) -> bool {
        crate::batch::VectorKernel::compile(self).is_some()
    }

    /// Combined UDF cost hint (one per-tuple overhead term for the whole
    /// chain — the cost-model face of fusion).
    pub fn cost_hint(&self) -> f64 {
        self.steps.iter().map(FusedStep::cost_hint).sum()
    }

    /// Expected output/input cardinality ratio of the whole chain.
    pub fn selectivity(&self) -> f64 {
        self.steps.iter().map(FusedStep::card_factor).product()
    }

    /// Push one quantum through every step; survivors land in `out`.
    #[inline]
    pub fn feed(&self, v: &Value, bc: &BroadcastCtx, out: &mut Vec<Value>) {
        self.feed_ref(0, v, bc, &mut |x| out.push(x));
    }

    /// Run the pipeline over a partition in one traversal, appending
    /// survivors to `out` (lets engines drain many partitions into one
    /// pre-sized buffer without intermediate allocations).
    ///
    /// Each quantum is pushed through the whole chain before the next is
    /// touched: a surviving value is written exactly once (into `out`),
    /// whereas the operator-at-a-time path moves every value through one
    /// materialized intermediate per step. (A block-vectorized variant —
    /// per-step loops over cache-sized batches — was measured slower here:
    /// it reintroduces two extra moves per value through the batch buffers,
    /// which outweighs the dispatch it saves.)
    pub fn run_into(&self, input: &[Value], bc: &BroadcastCtx, out: &mut Vec<Value>) {
        self.run_each(input, bc, |x| out.push(x));
    }

    /// Run the pipeline over a partition, handing each survivor to `sink`
    /// instead of materializing an output dataset.
    ///
    /// This is the engine hook for *fused terminal aggregation*: when a
    /// narrow chain feeds a hash aggregation (e.g. `ReduceBy`), the engine
    /// streams survivors straight into the accumulator
    /// ([`crate::kernels::ReduceByState`]), so the dataset between the chain
    /// and the aggregation is never materialized at all — something the
    /// operator-at-a-time path structurally cannot avoid.
    pub fn run_each<F: FnMut(Value)>(&self, input: &[Value], bc: &BroadcastCtx, mut sink: F) {
        for v in input {
            self.feed_ref(0, v, bc, &mut sink);
        }
    }

    /// Run the pipeline over a partition in one traversal.
    pub fn run(&self, input: &[Value], bc: &BroadcastCtx) -> Vec<Value> {
        let mut out = Vec::with_capacity(input.len());
        self.run_into(input, bc, &mut out);
        out
    }

    // Borrowed-value lane: used until the first transforming step produces an
    // owned quantum; a filter-only prefix therefore clones nothing until a
    // quantum survives the whole chain (matching `kernels::filter`).
    #[inline]
    fn feed_ref<F: FnMut(Value)>(&self, i: usize, v: &Value, bc: &BroadcastCtx, sink: &mut F) {
        match self.steps.get(i) {
            None => sink(v.clone()),
            Some(FusedStep::Map(u)) => self.feed_owned(i + 1, u.call(v, bc), bc, sink),
            Some(FusedStep::FlatMap(u)) => {
                for x in u.call(v, bc) {
                    self.feed_owned(i + 1, x, bc, sink);
                }
            }
            Some(FusedStep::Filter(p)) => {
                if p.call(v, bc) {
                    self.feed_ref(i + 1, v, bc, sink);
                }
            }
            Some(FusedStep::Project(fields)) => {
                self.feed_owned(i + 1, project_one(v, fields), bc, sink)
            }
        }
    }

    // Owned-value lane: no clone is ever paid again downstream.
    #[inline]
    fn feed_owned<F: FnMut(Value)>(&self, i: usize, v: Value, bc: &BroadcastCtx, sink: &mut F) {
        match self.steps.get(i) {
            None => sink(v),
            Some(FusedStep::Map(u)) => self.feed_owned(i + 1, u.call(&v, bc), bc, sink),
            Some(FusedStep::FlatMap(u)) => {
                for x in u.call(&v, bc) {
                    self.feed_owned(i + 1, x, bc, sink);
                }
            }
            Some(FusedStep::Filter(p)) => {
                if p.call(&v, bc) {
                    self.feed_owned(i + 1, v, bc, sink);
                }
            }
            Some(FusedStep::Project(fields)) => {
                self.feed_owned(i + 1, project_one(&v, fields), bc, sink)
            }
        }
    }
}

impl std::fmt::Debug for FusedPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FusedPipeline[{}]({})", self.len(), self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::udf::{CmpOp, Sarg};

    fn ints(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&i| Value::from(i)).collect()
    }

    fn chain() -> Vec<LogicalOp> {
        vec![
            LogicalOp::FlatMap(FlatMapUdf::new("dup", |v| vec![v.clone(), v.clone()])),
            LogicalOp::Map(MapUdf::new("x10", |v| Value::from(v.as_int().unwrap() * 10))),
            LogicalOp::Filter(PredicateUdf::new("gt20", |v| v.as_int().unwrap() > 20)),
        ]
    }

    #[test]
    fn fused_matches_unfused_kernels() {
        let bc = BroadcastCtx::new();
        let data = ints(&[1, 2, 3, 4]);
        let ops = chain();
        let fused = FusedPipeline::from_ops(&ops).unwrap().run(&data, &bc);
        // unfused: one kernel call and one materialization per operator
        let s1 =
            kernels::flat_map(&data, &FlatMapUdf::new("dup", |v| vec![v.clone(), v.clone()]), &bc);
        let s2 =
            kernels::map(&s1, &MapUdf::new("x10", |v| Value::from(v.as_int().unwrap() * 10)), &bc);
        let s3 =
            kernels::filter(&s2, &PredicateUdf::new("gt20", |v| v.as_int().unwrap() > 20), &bc);
        assert_eq!(fused, s3);
    }

    #[test]
    fn projection_and_sarg_fuse() {
        let bc = BroadcastCtx::new();
        let rows: Vec<Value> =
            (0..10).map(|i| Value::tuple(vec![Value::from(i), Value::from(i * i)])).collect();
        let ops = vec![
            LogicalOp::SargFilter {
                pred: PredicateUdf::new("f0<5", |v| v.field(0).as_int().unwrap() < 5),
                sarg: Sarg { field: 0, op: CmpOp::Lt, literal: Value::from(5) },
            },
            LogicalOp::Project { fields: vec![1] },
        ];
        let out = FusedPipeline::from_ops(&ops).unwrap().run(&rows, &bc);
        assert_eq!(out.len(), 5);
        assert_eq!(out[4], Value::tuple(vec![Value::from(16)]));
    }

    #[test]
    fn wide_ops_refuse_to_fuse() {
        assert!(FusedPipeline::from_ops(&[LogicalOp::Distinct]).is_none());
        assert!(!fusable(&LogicalOp::Count));
        assert!(fusable(&chain()[0]));
    }

    #[test]
    fn selectivity_and_cost_compose() {
        let p = FusedPipeline::from_ops(&chain()).unwrap();
        assert!((p.selectivity() - 2.0).abs() < 1e-12); // 4.0 * 1.0 * 0.5
        assert!(p.cost_hint() >= 3.0); // three steps, hint >= 1 each
        assert_eq!(p.len(), 3);
        assert_eq!(p.name(), "dup∘x10∘gt20");
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let p = FusedPipeline::new(vec![]);
        let bc = BroadcastCtx::new();
        assert!(p.is_empty());
        assert_eq!(p.run(&ints(&[1, 2]), &bc), ints(&[1, 2]));
    }
}
