//! Structural validation of Rheem plans (§3's invariants).

use super::{OperatorId, RheemPlan};
use crate::error::{Result, RheemError};

pub(super) fn validate(plan: &RheemPlan) -> Result<()> {
    if plan.is_empty() {
        return Err(RheemError::Plan("plan is empty".into()));
    }
    if plan.sources().is_empty() {
        return Err(RheemError::Plan("plan has no source operator".into()));
    }
    if plan.sinks().is_empty() {
        return Err(RheemError::Plan("plan has no sink operator".into()));
    }

    let n = plan.len();
    for node in plan.operators() {
        let kind = node.op.kind();
        let arity = kind.arity();
        if node.inputs.len() != arity {
            return Err(RheemError::Plan(format!(
                "{} expects {} inputs, got {}",
                node.label(),
                arity,
                node.inputs.len()
            )));
        }
        for &inp in &node.inputs {
            if inp.index() >= n {
                return Err(RheemError::Plan(format!(
                    "{} references missing operator {:?}",
                    node.label(),
                    inp
                )));
            }
            if inp == node.id {
                return Err(RheemError::Plan(format!("{} is its own input", node.label())));
            }
            if plan.node(inp).op.kind().is_sink() {
                return Err(RheemError::Plan(format!(
                    "{} consumes from sink {}",
                    node.label(),
                    plan.node(inp).label()
                )));
            }
        }
        for (name, inp) in &node.broadcasts {
            if inp.index() >= n {
                return Err(RheemError::Plan(format!(
                    "broadcast '{name}' of {} references missing operator",
                    node.label()
                )));
            }
        }
        // Loop-body membership must reference a loop head.
        if let Some(l) = node.loop_of {
            if l.index() >= n || !plan.node(l).op.kind().is_loop_head() {
                return Err(RheemError::Plan(format!(
                    "{} declares membership of non-loop {:?}",
                    node.label(),
                    l
                )));
            }
        }
    }

    // No loop nests in itself, and loop feedback edges come from inside the
    // loop body. Every nesting cycle runs through a loop head, so bounding
    // each head's walk by the plan size catches all of them.
    for node in plan.operators() {
        if node.op.kind().is_loop_head() {
            if plan.enclosing_loops(node.id).take(n).any(|l| l == node.id) {
                return Err(RheemError::Plan(format!("loop {} is nested in itself", node.label())));
            }
            let feedback = node.inputs[1];
            if plan.node(feedback).loop_of != Some(node.id) {
                return Err(RheemError::Plan(format!(
                    "loop {} feedback producer {} is not in its body",
                    node.label(),
                    plan.node(feedback).label()
                )));
            }
        }
    }

    // Acyclicity modulo feedback edges.
    plan.topological_order()?;

    // Every non-sink operator's output should be consumed somewhere.
    let consumers = plan.consumers();
    for node in plan.operators() {
        if !node.op.kind().is_sink() && consumers[node.id.index()].is_empty() {
            return Err(RheemError::Plan(format!(
                "dangling operator {} (output never consumed; every branch \
                 must end in a sink)",
                node.label()
            )));
        }
    }

    // Sinks must be reachable from some source (no isolated islands).
    let sources = plan.sources();
    let mut reach = vec![false; n];
    let mut stack: Vec<OperatorId> = sources;
    while let Some(id) = stack.pop() {
        if reach[id.index()] {
            continue;
        }
        reach[id.index()] = true;
        for &c in &consumers[id.index()] {
            stack.push(c);
        }
    }
    for sink in plan.sinks() {
        if !reach[sink.index()] {
            return Err(RheemError::Plan(format!(
                "sink {} unreachable from any source",
                plan.node(sink).label()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::udf::MapUdf;
    use crate::value::Value;
    use std::sync::Arc;

    #[test]
    fn arity_mismatch_detected() {
        let mut p = RheemPlan::new();
        let s = p.add(LogicalOp::CollectionSource { data: Arc::new(vec![]) }, &[]);
        // Union needs two inputs.
        let u = p.add(LogicalOp::Union, &[s]);
        p.add(LogicalOp::CollectionSink, &[u]);
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains("expects 2 inputs"), "{err}");
    }

    #[test]
    fn dangling_operator_detected() {
        let mut p = RheemPlan::new();
        let s = p.add(LogicalOp::CollectionSource { data: Arc::new(vec![]) }, &[]);
        let m = p.add(LogicalOp::Map(MapUdf::new("id", |v| v.clone())), &[s]);
        p.add(LogicalOp::CollectionSink, &[m]);
        // dangling second branch
        p.add(LogicalOp::Map(MapUdf::new("dead", |v| v.clone())), &[s]);
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains("dangling"), "{err}");
    }

    #[test]
    fn consuming_from_sink_rejected() {
        let mut p = RheemPlan::new();
        let s = p.add(LogicalOp::CollectionSource { data: Arc::new(vec![]) }, &[]);
        let k = p.add(LogicalOp::CollectionSink, &[s]);
        p.add(LogicalOp::Map(MapUdf::new("after", |v| v.clone())), &[k]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn loop_feedback_must_be_in_body() {
        let mut p = RheemPlan::new();
        let init = p.add(LogicalOp::CollectionSource { data: Arc::new(vec![Value::from(0)]) }, &[]);
        // Feedback comes from a node NOT tagged as body: invalid.
        let bogus = p.add(LogicalOp::Map(MapUdf::new("x", |v| v.clone())), &[init]);
        let l = p.add(LogicalOp::RepeatLoop { iterations: 2 }, &[init, bogus]);
        p.add(LogicalOp::CollectionSink, &[l]);
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains("feedback"), "{err}");
    }

    #[test]
    fn valid_loop_passes() {
        let mut p = RheemPlan::new();
        let init = p.add(LogicalOp::CollectionSource { data: Arc::new(vec![Value::from(0)]) }, &[]);
        let l = p.add(LogicalOp::RepeatLoop { iterations: 2 }, &[init, OperatorId(2)]);
        let body = p.add(
            LogicalOp::Map(MapUdf::new("inc", |v| Value::from(v.as_int().unwrap_or(0) + 1))),
            &[l],
        );
        p.set_loop(body, l);
        p.add(LogicalOp::CollectionSink, &[l]);
        // fix the forward-declared feedback edge
        p.node_mut(l).inputs[1] = body;
        p.validate().unwrap();
        // A loop nested in itself is rejected, not walked forever.
        p.set_loop(l, l);
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains("nested in itself"), "{err}");
    }
}
