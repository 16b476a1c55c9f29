//! The progressive optimizer (§4.4, Algorithm 1).
//!
//! Executes a plan until an optimization checkpoint fires (the executor
//! pauses when measured cardinalities greatly mismatch the estimates), then
//! rewrites the remainder of the plan — already-materialized results become
//! collection sources — re-optimizes it with the *measured* cardinalities,
//! and resumes. Switching between execution and re-optimization any number
//! of times costs only the (cheap) re-enumeration.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cache::{plan_fingerprints_with, publish_map, Fingerprint, ResultCache};
use crate::cardinality::Estimator;
use crate::cost::CostModel;
use crate::error::{Result, RheemError};
use crate::execplan::build_exec_plan;
use crate::executor::{
    Checkpoint, ExecConfig, Execution, Executor, ExplorationBuffer, Outcome, TraceHandle,
};
use crate::fault::FaultRecord;
use crate::optimizer::Optimizer;
use crate::plan::{LogicalOp, OperatorId, RheemPlan};
use crate::platform::{PlatformId, Profiles};
use crate::registry::Registry;
use crate::trace::{JobTrace, SpanKind, Trace};
use crate::value::Dataset;

/// Result of a progressive run: Algorithm 1's output.
pub struct ProgressiveOutcome {
    /// Sink outputs keyed by the *original* plan's sink operator ids.
    pub sink_data: HashMap<OperatorId, Dataset>,
    /// Total virtual cluster time, ms (re-optimization time is charged via
    /// a small fixed driver cost per replan).
    pub virtual_ms: f64,
    /// Total real time, ms.
    pub real_ms: f64,
    /// Number of re-optimizations performed.
    pub replans: u32,
    /// Faults handled over all phases, in commit order.
    pub faults: Vec<FaultRecord>,
    /// Number of cross-platform failovers performed (retry budget exhausted
    /// on a platform; remainder re-planned over the survivors).
    pub failovers: u32,
    /// Platforms used across all phases.
    pub platforms: Vec<PlatformId>,
    /// Estimated cost of the first chosen execution plan (virtual ms).
    pub est_ms: f64,
    /// Exploration taps across all phases.
    pub exploration: ExplorationBuffer,
    /// Span tree + per-operator profiles of the whole job (when
    /// [`ExecConfig::tracing`] is on).
    pub trace: Option<JobTrace>,
}

/// A rewritten phase plan: the plan itself, `new sink id -> old sink id`,
/// and the fingerprint overrides for its surviving operators.
type RewrittenPlan = (RheemPlan, HashMap<OperatorId, OperatorId>, HashMap<OperatorId, Fingerprint>);

/// Rewrite a plan at a checkpoint: executed operators with still-needed
/// outputs become collection sources holding the materialized data;
/// fully-consumed executed operators are dropped; everything else is copied.
/// Returns the new plan, `new sink id -> old sink id`, and the fingerprint
/// overrides pinning every surviving operator to the subplan fingerprint it
/// carried in `plan` (`fps`, indexed by old operator id). Without the
/// overrides the rewrite would change every fingerprint downstream of a
/// materialized boundary — a CollectionSource hashes its *content*, not the
/// subplan it replaced — and mid-job replans could neither hit nor publish
/// entries consistent with the original plan's identities.
fn rewrite_plan(
    plan: &RheemPlan,
    cp: &Checkpoint,
    fps: &[Option<Fingerprint>],
) -> Result<RewrittenPlan> {
    let mut out = RheemPlan::new();
    let mut remap: HashMap<OperatorId, OperatorId> = HashMap::new();
    let mut sink_map = HashMap::new();
    let mut overrides: HashMap<OperatorId, Fingerprint> = HashMap::new();
    // A loop head's feedback producer (input slot 1) orders *after* the head
    // in the feedback-free topological order, so it cannot be resolved while
    // copying the head — collect and patch once its body has been copied.
    let mut feedback_patches: Vec<(OperatorId, OperatorId)> = Vec::new();
    for &id in &plan.topological_order()? {
        let node = plan.node(id);
        if cp.executed.contains(&id) {
            if let Some(data) = cp.materialized.get(&id) {
                let new_id = out.add(LogicalOp::CollectionSource { data: Arc::clone(data) }, &[]);
                remap.insert(id, new_id);
                if let Some(fp) = fps.get(id.index()).copied().flatten() {
                    overrides.insert(new_id, fp);
                }
            }
            continue;
        }
        let is_loop_head = node.op.kind().is_loop_head();
        let inputs: Vec<OperatorId> = node
            .inputs
            .iter()
            .enumerate()
            .map(|(slot, i)| {
                if is_loop_head && slot == 1 {
                    return Ok(*i); // stale id, patched below
                }
                remap.get(i).copied().ok_or_else(|| {
                    RheemError::Optimizer(format!(
                        "checkpoint boundary missing materialization for input of {}",
                        node.label()
                    ))
                })
            })
            .collect::<Result<_>>()?;
        let new_id = out.add(node.op.clone(), &inputs);
        if is_loop_head {
            feedback_patches.push((new_id, node.inputs[1]));
        }
        for (name, b) in &node.broadcasts {
            let nb = remap.get(b).copied().ok_or_else(|| {
                RheemError::Optimizer("checkpoint missing broadcast materialization".into())
            })?;
            out.add_broadcast(new_id, Arc::clone(name), nb);
        }
        if let Some(s) = node.selectivity {
            out.set_selectivity(new_id, s);
        }
        if let Some(p) = node.target_platform {
            out.set_target_platform(new_id, p);
        }
        if let Some(l) = node.loop_of {
            let nl = remap.get(&l).copied().ok_or_else(|| {
                RheemError::Optimizer("loop body survives checkpoint but head does not".into())
            })?;
            out.set_loop(new_id, nl);
        }
        remap.insert(id, new_id);
        if let Some(fp) = fps.get(id.index()).copied().flatten() {
            overrides.insert(new_id, fp);
        }
        if node.op.kind().is_sink() {
            sink_map.insert(new_id, id);
        }
    }
    for (new_id, fb) in feedback_patches {
        let nfb = remap.get(&fb).copied().ok_or_else(|| {
            RheemError::Optimizer("checkpoint missing loop feedback producer".into())
        })?;
        out.node_mut(new_id).inputs[1] = nfb;
    }
    Ok((out, sink_map, overrides))
}

/// Run Algorithm 1: optimize, execute until checkpoint, re-optimize with
/// updated estimates, resume — until finished.
#[allow(clippy::too_many_arguments)]
pub fn run_progressive(
    plan: &RheemPlan,
    registry: &Registry,
    profiles: &Profiles,
    model: &CostModel,
    base_estimator: impl Fn() -> Estimator,
    config: &ExecConfig,
    forced_platform: Option<PlatformId>,
    cache: Option<Arc<ResultCache>>,
) -> Result<ProgressiveOutcome> {
    const MAX_REPLANS: u32 = 5;
    /// Virtual driver-side cost per re-optimization (the paper reports a
    /// negligible cost; we charge a token amount).
    const REPLAN_MS: f64 = 10.0;

    let mut current = None::<RheemPlan>;
    // new sink id -> original sink id (identity for the first phase)
    let mut sink_map: HashMap<OperatorId, OperatorId> =
        plan.sinks().iter().map(|&s| (s, s)).collect();

    let mut sink_data = HashMap::new();
    let mut virtual_ms = 0.0;
    let mut real_ms = 0.0;
    let mut replans = 0;
    let mut job_faults = Vec::new();
    let mut failovers = 0;
    let mut platforms: Vec<PlatformId> = Vec::new();
    let mut est_ms = None;
    let mut exploration = ExplorationBuffer::default();
    // Resolved once per job: attempt counters live inside the plan and must
    // survive replans/failovers (fail-N-then-succeed semantics).
    let faults = config.resolve_fault_plan();
    // Platforms that exhausted a retry budget; excluded from re-enumeration.
    let mut blacklist: Vec<PlatformId> = Vec::new();
    // Fingerprint identities pinned across plan rewrites: maps operators of
    // the *current* phase plan to the subplan fingerprints they carried in
    // the original plan, so mid-job replans keep consulting and feeding the
    // cache under stable identities.
    let mut fp_overrides: HashMap<OperatorId, Fingerprint> = HashMap::new();
    // Job trace: one shared collector; every phase parents its spans under
    // a fresh phase span at the cumulative virtual-time offset.
    let trace = if config.tracing { Some(Trace::new()) } else { None };
    let job_span = trace.as_ref().map(|t| {
        let sid = t.begin(None, SpanKind::Job, "job", None, 0.0);
        if let Some(tenant) = &config.tenant {
            t.attr(sid, "tenant", tenant.clone().into());
        }
        t.instant(Some(sid), SpanKind::Submit, "submit", None, 0.0);
        sid
    });

    loop {
        let phase_span = trace.as_ref().map(|t| {
            let p = t.begin_phase();
            t.begin(job_span, SpanKind::Phase, &format!("phase {p}"), None, virtual_ms)
        });
        let phase_plan = current.as_ref().unwrap_or(plan);
        let mut optimizer = Optimizer::new(registry, profiles, model);
        optimizer.forced_platform = forced_platform;
        optimizer.blacklist = blacklist.clone();
        optimizer.cache = cache.clone();
        optimizer.cache_ns = config.cache_ns;
        optimizer.cache_shared_read = config.cache_shared_read;
        // Mid-job replan boundaries consult the cache under the *original*
        // identities: results published before the rewrite (by this job or
        // a concurrent one) are visible to the re-planned remainder.
        optimizer.fp_overrides = fp_overrides.clone();
        let estimator = base_estimator();
        let opt = optimizer.optimize(phase_plan, &estimator)?;
        if let (Some(t), Some(ps)) = (&trace, phase_span) {
            let os = t.begin(Some(ps), SpanKind::Optimize, "optimize", None, virtual_ms);
            t.attr(os, "operators", phase_plan.operators().len().into());
            t.attr(os, "est_ms", opt.est_ms.into());
            let es = t.instant(Some(os), SpanKind::Enumeration, "enumerate", None, virtual_ms);
            t.attr(es, "candidates", opt.stats.candidates.into());
            t.attr(es, "partials_created", opt.stats.partials_created.into());
            t.attr(es, "partials_pruned", opt.stats.partials_pruned.into());
            t.attr(es, "movement_settlements", opt.stats.movement_settlements.into());
            t.attr(es, "movement_solves", opt.stats.movement_solves.into());
            let cs = t.instant(Some(os), SpanKind::Costing, "cost", None, virtual_ms);
            t.attr(cs, "est_lo_ms", opt.est_interval.lo.into());
            t.attr(cs, "est_hi_ms", opt.est_interval.hi.into());
            t.attr(cs, "confidence", opt.est_interval.conf.into());
            t.attr(cs, "platforms", format!("{:?}", opt.platforms).into());
            t.end(os, virtual_ms);
        }
        if est_ms.is_none() {
            est_ms = Some(opt.est_ms);
        }
        for p in &opt.platforms {
            if !platforms.contains(p) {
                platforms.push(*p);
            }
        }
        let eplan = build_exec_plan(phase_plan, &opt, registry, profiles, model)?;
        // Phase fingerprints under the pinned identities (identity map on
        // the first phase). Also drives the rewrite below, so the next
        // phase inherits stable identities.
        let fps = plan_fingerprints_with(phase_plan, &fp_overrides);
        // Publication schedule: per exec node, the tail fingerprint to
        // publish its committed value under (when the subplan is
        // fingerprintable and its output channel kind is reusable — a
        // non-reusable channel is consumed exactly once and has no
        // after-job identity) plus the interior fused-chain cut points for
        // structural subplan sharing.
        let publish = cache.as_ref().map(|c| {
            (Arc::clone(c), publish_map(phase_plan, &fps, &eplan, registry, &opt.replayed))
        });
        let handle = match (&trace, phase_span) {
            (Some(t), Some(ps)) => Some(TraceHandle { trace: t, parent: ps, base_ms: virtual_ms }),
            _ => None,
        };
        let executor = Executor::new(phase_plan, &opt, &eplan, profiles, config)
            .with_faults(faults.clone())
            .with_trace(handle)
            .with_cache(publish);
        match executor.run()? {
            Outcome::Finished(Execution {
                sink_data: sinks,
                virtual_ms: v,
                real_ms: r,
                faults: f,
                exploration: expl,
            }) => {
                virtual_ms += v;
                real_ms += r;
                job_faults.extend(f);
                exploration.taps.extend(expl.taps);
                for (new_id, data) in sinks {
                    let orig = sink_map.get(&new_id).copied().unwrap_or(new_id);
                    sink_data.insert(orig, data);
                }
                if let (Some(t), Some(ps)) = (&trace, phase_span) {
                    t.end(ps, virtual_ms);
                }
                if let (Some(t), Some(js)) = (&trace, job_span) {
                    t.attr(js, "replans", replans.into());
                    t.attr(js, "failovers", failovers.into());
                    t.end(js, virtual_ms);
                }
                return Ok(ProgressiveOutcome {
                    sink_data,
                    virtual_ms,
                    real_ms,
                    replans,
                    faults: job_faults,
                    failovers,
                    platforms,
                    est_ms: est_ms.unwrap_or(0.0),
                    exploration,
                    trace: trace.map(Trace::finish),
                });
            }
            outcome => {
                let (mut cp, rewrite_cause) = match outcome {
                    Outcome::Paused(cp) => {
                        replans += 1;
                        (cp, "cardinality-mismatch")
                    }
                    Outcome::Failover { checkpoint, cause } => {
                        if forced_platform == Some(cause.platform) {
                            // Pinned to the failing platform: nothing to
                            // fail over to.
                            return Err(RheemError::Exhausted(cause));
                        }
                        failovers += 1;
                        blacklist.push(cause.platform);
                        (checkpoint, "failover")
                    }
                    Outcome::Finished(_) => unreachable!("handled above"),
                };
                if let (Some(t), Some(ps)) = (&trace, phase_span) {
                    t.end(ps, virtual_ms + cp.virtual_ms);
                    let sid = t.instant(
                        job_span,
                        SpanKind::PlanRewrite,
                        "plan-rewrite",
                        None,
                        virtual_ms + cp.virtual_ms,
                    );
                    t.attr(sid, "cause", rewrite_cause.into());
                    t.attr(sid, "executed_ops", cp.executed.len().into());
                    t.attr(sid, "materialized", cp.materialized.len().into());
                }
                virtual_ms += cp.virtual_ms + REPLAN_MS;
                real_ms += cp.real_ms;
                job_faults.append(&mut cp.faults);
                exploration.taps.extend(cp.exploration.taps.clone());
                for (new_id, data) in &cp.sink_data {
                    let orig = sink_map.get(new_id).copied().unwrap_or(*new_id);
                    sink_data.insert(orig, Arc::clone(data));
                }
                if replans > MAX_REPLANS {
                    return Err(RheemError::Optimizer(
                        "progressive optimizer exceeded replan budget".into(),
                    ));
                }
                let (next, next_sinks, next_overrides) = rewrite_plan(phase_plan, &cp, &fps)?;
                // Compose sink maps: next-phase sink -> current-phase sink
                // -> original sink.
                let composed: HashMap<OperatorId, OperatorId> = next_sinks
                    .into_iter()
                    .map(|(n, mid)| (n, sink_map.get(&mid).copied().unwrap_or(mid)))
                    .collect();
                sink_map = composed;
                fp_overrides = next_overrides;
                current = Some(next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::plan_fingerprints;
    use crate::executor::Checkpoint;
    use crate::plan::PlanBuilder;
    use crate::udf::{KeyUdf, MapUdf, ReduceUdf};
    use crate::value::Value;
    use std::collections::HashSet;

    #[test]
    fn rewrite_pins_downstream_fingerprints() {
        let mut b = PlanBuilder::new();
        let data: Vec<Value> = (0..100i64).map(Value::from).collect();
        b.collection(data)
            .map(MapUdf::new("tokenize", |v| v.clone()))
            .reduce_by_key(KeyUdf::identity(), ReduceUdf::sum())
            .collect();
        let plan = b.build().unwrap();
        let fps = plan_fingerprints(&plan);
        let (src, map, agg) = (OperatorId(0), OperatorId(1), OperatorId(2));
        assert!(fps[agg.index()].is_some());
        // Pause after the map committed: the source is fully consumed, the
        // map's output is materialized for the remainder.
        let cp = Checkpoint {
            executed: HashSet::from([src, map]),
            materialized: HashMap::from([(map, Arc::new(vec![Value::from(1i64)]) as Dataset)]),
            measured: HashMap::new(),
            sink_data: HashMap::new(),
            virtual_ms: 0.0,
            real_ms: 0.0,
            faults: Vec::new(),
            exploration: ExplorationBuffer::default(),
        };
        let (next, _sinks, overrides) = rewrite_plan(&plan, &cp, &fps).unwrap();
        // The materialized boundary is pinned to the map's original
        // subplan fingerprint...
        assert_eq!(overrides.get(&OperatorId(0)), fps[map.index()].as_ref());
        // ...and recomputation through the pinned source alone reproduces
        // the original downstream identity (drop the downstream pins to
        // prove it is derived, not copied).
        let mut source_only = overrides.clone();
        source_only.retain(|id, _| *id == OperatorId(0));
        let next_fps = plan_fingerprints_with(&next, &source_only);
        assert_eq!(next_fps[1], fps[agg.index()], "downstream identity survives the rewrite");
        // Without the overrides, the rewrite would change the identity: a
        // CollectionSource hashes its content, not the subplan it replaced.
        let plain = plan_fingerprints(&next);
        assert_ne!(plain[1], fps[agg.index()]);
    }
}
