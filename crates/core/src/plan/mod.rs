//! Rheem plans: platform-agnostic data-flow graphs (§3).
//!
//! A [`RheemPlan`] is a DAG whose vertices are [`LogicalOp`]s and whose
//! edges carry data quanta. Only loop operators accept feedback edges.
//! Plans are built either directly via [`RheemPlan::add`] or fluently via
//! [`builder::PlanBuilder`].

pub mod builder;
pub mod operators;
mod validate;

pub use builder::{DataQuanta, PlanBuilder};
pub use operators::{IneqCond, LogicalOp, OpKind, SampleMethod, SampleSize};

use std::fmt;
use std::sync::Arc;

use crate::error::{Result, RheemError};
use crate::platform::PlatformId;

/// Identifier of an operator inside one plan (arena index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatorId(pub u32);

impl OperatorId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for OperatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A vertex of a Rheem plan.
#[derive(Debug)]
pub struct OperatorNode {
    /// This node's id.
    pub id: OperatorId,
    /// The platform-agnostic operator.
    pub op: LogicalOp,
    /// Regular data inputs, in slot order.
    pub inputs: Vec<OperatorId>,
    /// Named broadcast inputs (dotted edges in Fig. 3).
    pub broadcasts: Vec<(Arc<str>, OperatorId)>,
    /// Optional selectivity hint (output/input cardinality ratio); when
    /// absent the optimizer falls back to per-kind defaults.
    pub selectivity: Option<f64>,
    /// `withTargetPlatform`: pin this operator to one platform (§5).
    pub target_platform: Option<PlatformId>,
    /// The innermost loop this operator belongs to, if any (id of the loop
    /// operator). Loop bodies are re-executed per iteration.
    pub loop_of: Option<OperatorId>,
}

impl OperatorNode {
    /// Display name: operator kind plus UDF name where available.
    pub fn label(&self) -> String {
        self.op.label()
    }
}

/// A platform-agnostic data-flow graph.
#[derive(Debug, Default)]
pub struct RheemPlan {
    ops: Vec<OperatorNode>,
}

impl RheemPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an operator with the given inputs; returns its id.
    pub fn add(&mut self, op: LogicalOp, inputs: &[OperatorId]) -> OperatorId {
        let id = OperatorId(self.ops.len() as u32);
        self.ops.push(OperatorNode {
            id,
            op,
            inputs: inputs.to_vec(),
            broadcasts: Vec::new(),
            selectivity: None,
            target_platform: None,
            loop_of: None,
        });
        id
    }

    /// Attach a named broadcast edge `producer -> consumer`.
    pub fn add_broadcast(
        &mut self,
        consumer: OperatorId,
        name: impl Into<Arc<str>>,
        producer: OperatorId,
    ) {
        self.ops[consumer.index()].broadcasts.push((name.into(), producer));
    }

    /// Set the selectivity hint of an operator.
    pub fn set_selectivity(&mut self, id: OperatorId, selectivity: f64) {
        self.ops[id.index()].selectivity = Some(selectivity);
    }

    /// Pin an operator to a platform (`withTargetPlatform`).
    pub fn set_target_platform(&mut self, id: OperatorId, platform: PlatformId) {
        self.ops[id.index()].target_platform = Some(platform);
    }

    /// Mark an operator as belonging to the body of loop `loop_op`.
    pub fn set_loop(&mut self, id: OperatorId, loop_op: OperatorId) {
        self.ops[id.index()].loop_of = Some(loop_op);
    }

    /// All operators in insertion order (which is a valid construction
    /// order, but not necessarily topological once feedback edges exist).
    pub fn operators(&self) -> &[OperatorNode] {
        &self.ops
    }

    /// Node lookup.
    pub fn node(&self, id: OperatorId) -> &OperatorNode {
        &self.ops[id.index()]
    }

    /// Mutable node lookup.
    pub fn node_mut(&mut self, id: OperatorId) -> &mut OperatorNode {
        &mut self.ops[id.index()]
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Ids of all sink operators.
    pub fn sinks(&self) -> Vec<OperatorId> {
        self.ops.iter().filter(|n| n.op.kind().is_sink()).map(|n| n.id).collect()
    }

    /// Ids of all source operators.
    pub fn sources(&self) -> Vec<OperatorId> {
        self.ops.iter().filter(|n| n.op.kind().is_source()).map(|n| n.id).collect()
    }

    /// Consumers of each operator's output, including broadcast consumers.
    /// Feedback edges into loop heads are included (slot 1 of a loop).
    pub fn consumers(&self) -> Vec<Vec<OperatorId>> {
        let mut out = vec![Vec::new(); self.ops.len()];
        for n in &self.ops {
            for &i in &n.inputs {
                out[i.index()].push(n.id);
            }
            for (_, i) in &n.broadcasts {
                out[i.index()].push(n.id);
            }
        }
        out
    }

    /// Topological order ignoring loop feedback edges (a loop's feedback
    /// input — slot 1 — is skipped), so bodies order after their loop head.
    pub fn topological_order(&self) -> Result<Vec<OperatorId>> {
        let n = self.ops.len();
        let mut indeg = vec![0usize; n];
        let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
        for node in &self.ops {
            for (slot, &inp) in node.inputs.iter().enumerate() {
                if node.op.kind().is_loop_head() && slot == 1 {
                    continue; // feedback edge
                }
                indeg[node.id.index()] += 1;
                fwd[inp.index()].push(node.id.index());
            }
            for (_, inp) in &node.broadcasts {
                indeg[node.id.index()] += 1;
                fwd[inp.index()].push(node.id.index());
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        stack.sort_unstable_by(|a, b| b.cmp(a)); // deterministic order
        let mut order = Vec::with_capacity(n);
        while let Some(i) = stack.pop() {
            order.push(OperatorId(i as u32));
            for &j in &fwd[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    stack.push(j);
                }
            }
            stack.sort_unstable_by(|a, b| b.cmp(a));
        }
        if order.len() != n {
            return Err(RheemError::Plan(
                "plan contains a cycle outside loop feedback edges".into(),
            ));
        }
        Ok(order)
    }

    /// Validate the structural invariants of §3 (≥1 source, ≥1 sink, slot
    /// arities, loop structure, acyclicity modulo feedback edges).
    pub fn validate(&self) -> Result<()> {
        validate::validate(self)
    }

    /// The loops whose bodies enclose an operator, innermost first. Ends on
    /// validated plans ([`RheemPlan::validate`] rejects a loop nested in
    /// itself).
    pub fn enclosing_loops(&self, id: OperatorId) -> impl Iterator<Item = OperatorId> + '_ {
        std::iter::successors(self.node(id).loop_of, |&l| self.node(l).loop_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::{FlatMapUdf, KeyUdf, MapUdf, ReduceUdf};

    fn wordcount_plan() -> RheemPlan {
        let mut p = RheemPlan::new();
        let src = p.add(
            LogicalOp::CollectionSource { data: Arc::new(vec![crate::value::Value::from("a b")]) },
            &[],
        );
        let split = p.add(
            LogicalOp::FlatMap(FlatMapUdf::new("split", |v| {
                v.as_str().unwrap_or("").split_whitespace().map(crate::value::Value::from).collect()
            })),
            &[src],
        );
        let pair = p.add(
            LogicalOp::Map(MapUdf::new("pair", |v| {
                crate::value::Value::pair(v.clone(), crate::value::Value::from(1))
            })),
            &[split],
        );
        let red =
            p.add(LogicalOp::ReduceBy { key: KeyUdf::field(0), agg: ReduceUdf::sum() }, &[pair]);
        p.add(LogicalOp::CollectionSink, &[red]);
        p
    }

    #[test]
    fn build_and_validate_wordcount() {
        let p = wordcount_plan();
        assert_eq!(p.len(), 5);
        assert_eq!(p.sources().len(), 1);
        assert_eq!(p.sinks().len(), 1);
        p.validate().unwrap();
    }

    #[test]
    fn topological_order_respects_edges() {
        let p = wordcount_plan();
        let order = p.topological_order().unwrap();
        let pos: Vec<usize> =
            (0..p.len()).map(|i| order.iter().position(|o| o.index() == i).unwrap()).collect();
        for n in p.operators() {
            for &i in &n.inputs {
                assert!(pos[i.index()] < pos[n.id.index()]);
            }
        }
    }

    #[test]
    fn consumers_are_inverse_of_inputs() {
        let p = wordcount_plan();
        let cons = p.consumers();
        assert_eq!(cons[0], vec![OperatorId(1)]);
        assert_eq!(cons[4], Vec::<OperatorId>::new());
    }

    #[test]
    fn missing_sink_is_rejected() {
        let mut p = RheemPlan::new();
        let src = p.add(LogicalOp::CollectionSource { data: Arc::new(vec![]) }, &[]);
        let _ = p.add(LogicalOp::Map(MapUdf::new("id", |v| v.clone())), &[src]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn missing_source_is_rejected() {
        let mut p = RheemPlan::new();
        // A sink with a dangling self-loop shaped wrongly: just a sink with
        // no producer at all is impossible to express, so build sink-only.
        p.add(LogicalOp::Count, &[]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn selectivity_and_platform_hints_attach() {
        let mut p = wordcount_plan();
        p.set_selectivity(OperatorId(1), 7.0);
        p.set_target_platform(OperatorId(2), PlatformId("java.streams"));
        assert_eq!(p.node(OperatorId(1)).selectivity, Some(7.0));
        assert_eq!(p.node(OperatorId(2)).target_platform, Some(PlatformId("java.streams")));
    }
}
