//! Fluent plan construction API (the Rust counterpart of Rheem's Java/Scala
//! APIs from §5).
//!
//! ```
//! use rheem_core::plan::PlanBuilder;
//! use rheem_core::udf::{FlatMapUdf, KeyUdf, MapUdf, ReduceUdf};
//! use rheem_core::value::Value;
//!
//! let mut b = PlanBuilder::new();
//! b.collection(vec![Value::from("to be or not to be")])
//!     .flat_map(FlatMapUdf::new("split", |v| {
//!         v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
//!     }))
//!     .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
//!     .reduce_by_key(KeyUdf::field(0), ReduceUdf::new("sum", |a, b| {
//!         Value::pair(
//!             a.field(0).clone(),
//!             Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
//!         )
//!     }))
//!     .collect();
//! let plan = b.build().unwrap();
//! assert_eq!(plan.len(), 5);
//! ```

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

use super::operators::{IneqCond, LogicalOp, SampleMethod, SampleSize};
use super::{OperatorId, RheemPlan};
use crate::error::Result;
use crate::platform::PlatformId;
use crate::udf::{FlatMapUdf, KeyUdf, MapUdf, PredicateUdf, ReduceUdf, Sarg};
use crate::value::{Dataset, Value};

#[derive(Default)]
struct Inner {
    plan: RheemPlan,
    loop_stack: Vec<OperatorId>,
}

/// Builder accumulating a [`RheemPlan`]; hands out [`DataQuanta`] handles.
#[derive(Default)]
pub struct PlanBuilder {
    inner: Rc<RefCell<Inner>>,
}

/// A handle to the output of an operator under construction — the fluent
/// equivalent of a plan edge. Cloning the handle lets several consumers read
/// the same output.
#[derive(Clone)]
pub struct DataQuanta {
    inner: Rc<RefCell<Inner>>,
    op: OperatorId,
}

impl PlanBuilder {
    /// New, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn wrap(&self, op: OperatorId) -> DataQuanta {
        DataQuanta { inner: Rc::clone(&self.inner), op }
    }

    fn add(&self, op: LogicalOp, inputs: &[OperatorId]) -> OperatorId {
        let mut inner = self.inner.borrow_mut();
        let id = inner.plan.add(op, inputs);
        if let Some(&l) = inner.loop_stack.last() {
            inner.plan.set_loop(id, l);
        }
        id
    }

    /// Source: read a text file (one quantum per line).
    pub fn read_text_file(&mut self, path: impl Into<PathBuf>) -> DataQuanta {
        let id = self.add(LogicalOp::TextFileSource { path: path.into() }, &[]);
        self.wrap(id)
    }

    /// Source: an in-memory collection.
    pub fn collection(&mut self, data: impl Into<Vec<Value>>) -> DataQuanta {
        let id = self.add(LogicalOp::CollectionSource { data: Arc::new(data.into()) }, &[]);
        self.wrap(id)
    }

    /// Source: a shared in-memory dataset (no copy).
    pub fn dataset(&mut self, data: Dataset) -> DataQuanta {
        let id = self.add(LogicalOp::CollectionSource { data }, &[]);
        self.wrap(id)
    }

    /// Source: scan a table of the registered relational store.
    pub fn read_table(&mut self, table: impl Into<String>) -> DataQuanta {
        let id = self.add(LogicalOp::TableSource { table: table.into() }, &[]);
        self.wrap(id)
    }

    /// Finish and validate the plan.
    pub fn build(self) -> Result<RheemPlan> {
        // Handles may still be alive; move the plan out via replace.
        let plan = std::mem::take(&mut self.inner.borrow_mut().plan);
        plan.validate()?;
        Ok(plan)
    }
}

impl DataQuanta {
    fn chain(&self, op: LogicalOp, inputs: &[OperatorId]) -> DataQuanta {
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.plan.add(op, inputs);
            if let Some(&l) = inner.loop_stack.last() {
                inner.plan.set_loop(id, l);
            }
            id
        };
        DataQuanta { inner: Rc::clone(&self.inner), op: id }
    }

    /// The underlying operator id (for attaching hints afterwards).
    pub fn id(&self) -> OperatorId {
        self.op
    }

    /// One-to-one transformation.
    pub fn map(&self, udf: MapUdf) -> DataQuanta {
        self.chain(LogicalOp::Map(udf), &[self.op])
    }

    /// One-to-many transformation.
    pub fn flat_map(&self, udf: FlatMapUdf) -> DataQuanta {
        self.chain(LogicalOp::FlatMap(udf), &[self.op])
    }

    /// Relational projection of tuple fields.
    pub fn project(&self, fields: impl Into<Vec<usize>>) -> DataQuanta {
        self.chain(LogicalOp::Project { fields: fields.into() }, &[self.op])
    }

    /// Keep quanta satisfying `pred`.
    pub fn filter(&self, pred: PredicateUdf) -> DataQuanta {
        self.chain(LogicalOp::Filter(pred), &[self.op])
    }

    /// Filter with sargable pushdown description.
    pub fn filter_sarg(&self, pred: PredicateUdf, sarg: Sarg) -> DataQuanta {
        self.chain(LogicalOp::SargFilter { pred, sarg }, &[self.op])
    }

    /// Random sample of `size` quanta.
    pub fn sample(&self, method: SampleMethod, size: SampleSize) -> DataQuanta {
        self.chain(LogicalOp::Sample { method, size, seed: None }, &[self.op])
    }

    /// Sort ascending by key.
    pub fn sort_by(&self, key: KeyUdf) -> DataQuanta {
        self.chain(LogicalOp::SortBy(key), &[self.op])
    }

    /// Remove duplicates.
    pub fn distinct(&self) -> DataQuanta {
        self.chain(LogicalOp::Distinct, &[self.op])
    }

    /// Count quanta.
    pub fn count(&self) -> DataQuanta {
        self.chain(LogicalOp::Count, &[self.op])
    }

    /// Group quanta by key into `(key, group)` pairs.
    pub fn group_by(&self, key: KeyUdf) -> DataQuanta {
        self.chain(LogicalOp::GroupBy(key), &[self.op])
    }

    /// Fold the whole input into one quantum.
    pub fn reduce(&self, agg: ReduceUdf) -> DataQuanta {
        self.chain(LogicalOp::Reduce(agg), &[self.op])
    }

    /// Per-key fold. The combiner receives whole quanta of the same key.
    pub fn reduce_by_key(&self, key: KeyUdf, agg: ReduceUdf) -> DataQuanta {
        self.chain(LogicalOp::ReduceBy { key, agg }, &[self.op])
    }

    /// Bag union with another stream.
    pub fn union(&self, other: &DataQuanta) -> DataQuanta {
        self.chain(LogicalOp::Union, &[self.op, other.op])
    }

    /// Equi-join with another stream; emits `(left, right)` pairs.
    pub fn join(&self, other: &DataQuanta, left_key: KeyUdf, right_key: KeyUdf) -> DataQuanta {
        self.chain(LogicalOp::Join { left_key, right_key }, &[self.op, other.op])
    }

    /// Cartesian product with another stream.
    pub fn cartesian(&self, other: &DataQuanta) -> DataQuanta {
        self.chain(LogicalOp::Cartesian, &[self.op, other.op])
    }

    /// Inequality join with another stream.
    pub fn inequality_join(&self, other: &DataQuanta, conds: Vec<IneqCond>) -> DataQuanta {
        self.chain(LogicalOp::InequalityJoin { conds }, &[self.op, other.op])
    }

    /// PageRank over `(src, dst)` edge pairs.
    pub fn page_rank(&self, iterations: u32, damping: f64) -> DataQuanta {
        self.chain(LogicalOp::PageRank { iterations, damping }, &[self.op])
    }

    /// Fixed-count loop: `body` maps the per-iteration stream to the
    /// feedback stream. Returns the final (post-loop) stream.
    ///
    /// This builds the RepeatLoop head of Fig. 3: `self` is the initial
    /// input, the closure receives the iteration output and must return the
    /// feedback producer.
    pub fn repeat(
        &self,
        iterations: u32,
        body: impl FnOnce(&DataQuanta) -> DataQuanta,
    ) -> DataQuanta {
        self.do_loop(LogicalOp::RepeatLoop { iterations }, body)
    }

    /// Conditional loop: iterate until `cond` holds on the feedback value.
    pub fn do_while(
        &self,
        cond: PredicateUdf,
        max_iterations: u32,
        body: impl FnOnce(&DataQuanta) -> DataQuanta,
    ) -> DataQuanta {
        self.do_loop(LogicalOp::DoWhile { cond, max_iterations }, body)
    }

    fn do_loop(&self, head: LogicalOp, body: impl FnOnce(&DataQuanta) -> DataQuanta) -> DataQuanta {
        // Temporarily wire the feedback slot to the initial input; patch
        // after the body is built.
        let loop_id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.plan.add(head, &[self.op, self.op]);
            // A nested head belongs to the enclosing loop's body, so every
            // outer iteration clears and re-runs it.
            if let Some(&outer) = inner.loop_stack.last() {
                inner.plan.set_loop(id, outer);
            }
            inner.loop_stack.push(id);
            id
        };
        let loop_handle = DataQuanta { inner: Rc::clone(&self.inner), op: loop_id };
        let feedback = body(&loop_handle);
        {
            let mut inner = self.inner.borrow_mut();
            inner.plan.node_mut(loop_id).inputs[1] = feedback.op;
            inner.loop_stack.pop();
        }
        loop_handle
    }

    /// Attach a named broadcast edge from `producer` into this operator.
    pub fn broadcast(&self, name: impl Into<Arc<str>>, producer: &DataQuanta) -> DataQuanta {
        self.inner.borrow_mut().plan.add_broadcast(self.op, name, producer.op);
        self.clone()
    }

    /// Terminal: materialize into the job result. Returns the sink id used
    /// to look the result up in [`crate::api::JobResult`].
    pub fn collect(&self) -> OperatorId {
        self.chain(LogicalOp::CollectionSink, &[self.op]).op
    }

    /// Terminal: write one line per quantum.
    pub fn write_text_file(&self, path: impl Into<PathBuf>) -> OperatorId {
        self.chain(LogicalOp::TextFileSink { path: path.into() }, &[self.op]).op
    }

    /// Attach a selectivity hint to the most recent operator.
    pub fn with_selectivity(self, selectivity: f64) -> DataQuanta {
        self.inner.borrow_mut().plan.set_selectivity(self.op, selectivity);
        self
    }

    /// Pin the most recent operator to a platform.
    pub fn with_target_platform(self, platform: PlatformId) -> DataQuanta {
        self.inner.borrow_mut().plan.set_target_platform(self.op, platform);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::OpKind;

    #[test]
    fn fluent_wordcount_builds() {
        let mut b = PlanBuilder::new();
        b.collection(vec![Value::from("a b a")])
            .flat_map(FlatMapUdf::new("split", |v| {
                v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
            }))
            .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
            .reduce_by_key(
                KeyUdf::field(0),
                ReduceUdf::new("sumc", |a, b| {
                    Value::pair(
                        a.field(0).clone(),
                        Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
                    )
                }),
            )
            .collect();
        let plan = b.build().unwrap();
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.sinks().len(), 1);
    }

    #[test]
    fn repeat_builds_loop_structure() {
        let mut b = PlanBuilder::new();
        let init = b.collection(vec![Value::from(0)]);
        let out =
            init.repeat(3, |w| w.map(MapUdf::new("inc", |v| Value::from(v.as_int().unwrap() + 1))));
        out.collect();
        let plan = b.build().unwrap();
        // collection, loop, body-map, sink
        assert_eq!(plan.len(), 4);
        let loop_node =
            plan.operators().iter().find(|n| n.op.kind() == OpKind::RepeatLoop).unwrap();
        // feedback is the body map
        let fb = loop_node.inputs[1];
        assert_eq!(plan.node(fb).loop_of, Some(loop_node.id));
    }

    #[test]
    fn broadcast_edges_register() {
        let mut b = PlanBuilder::new();
        let weights = b.collection(vec![Value::from(0.5)]);
        let data = b.collection(vec![Value::from(1.0)]);
        let mapped = data
            .map(MapUdf::with_ctx("usew", |v, ctx| {
                let w = ctx.get_or_empty("w");
                Value::from(v.as_f64().unwrap() * w.len() as f64)
            }))
            .broadcast("w", &weights);
        mapped.collect();
        let plan = b.build().unwrap();
        let map_node = plan.operators().iter().find(|n| n.op.kind() == OpKind::Map).unwrap();
        assert_eq!(map_node.broadcasts.len(), 1);
        assert_eq!(&*map_node.broadcasts[0].0, "w");
    }

    #[test]
    fn hints_attach_to_latest_operator() {
        let mut b = PlanBuilder::new();
        let s = b
            .collection(vec![Value::from(1)])
            .filter(PredicateUdf::new("pos", |v| v.as_int().unwrap() > 0))
            .with_selectivity(0.25);
        s.collect();
        let plan = b.build().unwrap();
        let f = plan.operators().iter().find(|n| n.op.kind() == OpKind::Filter).unwrap();
        assert_eq!(f.selectivity, Some(0.25));
    }

    #[test]
    fn shared_outputs_fan_out() {
        let mut b = PlanBuilder::new();
        let src = b.collection(vec![Value::from(1)]);
        let a = src.map(MapUdf::new("a", |v| v.clone()));
        let bq = src.map(MapUdf::new("b", |v| v.clone()));
        a.union(&bq).collect();
        let plan = b.build().unwrap();
        let cons = plan.consumers();
        assert_eq!(cons[0].len(), 2);
    }
}
