//! The executor (§4.2): dispatches stages to platform drivers, owns loop
//! control (Fig. 7), composes virtual cluster time across stages (stages
//! with no mutual dependencies overlap — inter-platform parallelism), and
//! supports the exploratory mode with sniffers and the progressive
//! optimizer's optimization checkpoints (§4.4).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use std::sync::Mutex;

use crate::builtin::CONTROL;
use crate::channel::ChannelData;
use crate::error::{Result, RheemError};
use crate::exec::{ExecCtx, OpMetrics, TraceEvent};
use crate::execplan::{ExecPlan, CHECKPOINT_CONF, CHECKPOINT_WIDTH};
use crate::fault::{BudgetExhausted, FaultKind, FaultPlan, FaultRecord, InjectedFault};
use crate::monitor::{check_cardinality, Health};
use crate::optimizer::OptimizedPlan;
use crate::plan::{LogicalOp, OperatorId, RheemPlan};
use crate::platform::Profiles;
use crate::trace::{OpProfile, SpanKind, Trace};
use crate::udf::BroadcastCtx;
use crate::value::{Dataset, Value};

/// Max quanta a sniffer captures per operator execution in exploratory
/// mode ([`ExecConfig::exploration`]).
pub const SNIFF_LIMIT: usize = 64;

/// Base of the exponential retry backoff, in *virtual* cluster
/// milliseconds (failure `f` waits `BACKOFF_BASE_MS · 2^(f-1)`), so chaos
/// runs stay deterministic and fast in wall-clock terms.
pub const BACKOFF_BASE_MS: f64 = 10.0;

/// Executor configuration. Optimization checkpoints go after stages whose
/// estimates are less confident than [`crate::execplan::CHECKPOINT_CONF`]
/// or wider than [`crate::execplan::CHECKPOINT_WIDTH`].
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// RNG seed for sampling operators.
    pub seed: u64,
    /// Exploratory mode: inject sniffers after every logical operator and
    /// multiplex a sample of the flowing data to an auxiliary buffer (§4.2).
    pub exploration: bool,
    /// Enable progressive re-optimization (§4.4).
    pub progressive: bool,
    /// Mismatch tolerance: pause when a measured cardinality leaves
    /// `[lo/tau, hi*tau]`.
    pub mismatch_tau: f64,
    /// Cross-platform fault tolerance (§7.1): max transient failures
    /// tolerated per (stage, loop iteration) before the platform is given up
    /// on — each one retried with exponential backoff ([`BACKOFF_BASE_MS`]);
    /// one more exhausts the budget and triggers failover.
    pub retry_budget: u32,
    /// Fail over to a surviving platform (re-plan from the last consistent
    /// cut over non-blacklisted platforms) when a stage exhausts its retry
    /// budget; with `false` the exhaustion surfaces as an error.
    pub failover: bool,
    /// Seeded chaos mode: inject deterministic faults at this density-0.05
    /// seed (see [`crate::fault::FaultPlan::seeded`]). Ignored when
    /// `fault_plan` is set.
    pub chaos_seed: Option<u64>,
    /// Explicit fault plan (targeted rules); takes precedence over
    /// `chaos_seed`. Every job runs a copy with fresh attempt counters.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Record a job trace (span tree + per-operator profiles) with every
    /// execution; see [`crate::trace`].
    pub tracing: bool,
    /// Columnar batch execution ([`crate::batch`]): fused chains whose steps
    /// carry spec descriptors run as vectorized kernels over typed column
    /// slices; everything else falls back to the row interpreter. Both modes
    /// produce byte-identical results, traces and virtual-time structure.
    /// Defaults to on; [`crate::api::RheemContext::with_batch`] selects the
    /// row interpreter.
    pub batch: bool,
    /// Tenant this job runs on behalf of (multi-tenant
    /// [`crate::service::JobService`]); stamps the job trace span so
    /// `explain_analyze` output attributes to the right tenant.
    pub tenant: Option<String>,
    /// Cache namespace results publish into (and read from first).
    pub cache_ns: crate::cache::Namespace,
    /// Whether cache reads fall back to the shared namespace on a miss in
    /// `cache_ns` (public datasets); publishes never touch the shared
    /// namespace when `cache_ns` is tenant-scoped.
    pub cache_shared_read: bool,
}

impl ExecConfig {
    /// Density used by [`ExecConfig::chaos_seed`]'s seeded fault plans.
    pub const CHAOS_DENSITY: f64 = 0.05;

    /// The fault plan this configuration asks for, if any: a fresh copy of
    /// `fault_plan` (same seed and rules, no attempts yet), else a seeded
    /// plan from `chaos_seed`. Resolve **once per job** — attempt counters
    /// live inside the plan, belong to that job alone, and must survive its
    /// replans/failovers for fail-N-then-succeed semantics to hold.
    pub fn resolve_fault_plan(&self) -> Option<Arc<FaultPlan>> {
        match &self.fault_plan {
            Some(plan) => Some(Arc::new(plan.fresh())),
            None => self.chaos_seed.map(|s| Arc::new(FaultPlan::seeded(s, Self::CHAOS_DENSITY))),
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            exploration: false,
            progressive: true,
            mismatch_tau: 2.0,
            retry_budget: 2,
            failover: true,
            chaos_seed: None,
            fault_plan: None,
            tracing: true,
            batch: true,
            tenant: None,
            cache_ns: crate::cache::Namespace::SHARED,
            cache_shared_read: true,
        }
    }
}

/// Where an executor writes its trace: the shared collector, the span to
/// parent stage spans under, and the job-timeline offset of this phase
/// (virtual ms already consumed by earlier phases).
#[derive(Clone)]
pub struct TraceHandle {
    /// Shared trace collector.
    pub trace: Arc<Trace>,
    /// Parent span for this phase's stage/loop spans.
    pub parent: u32,
    /// Virtual-time offset of this executor run on the job timeline, ms.
    pub base_ms: f64,
}

/// Data captured by sniffers in exploratory mode.
#[derive(Clone, Debug, Default)]
pub struct ExplorationBuffer {
    /// `(operator label, sampled quanta)` per sniffed execution.
    pub taps: Vec<(String, Vec<Value>)>,
}

/// Outcome of one executor run.
pub enum Outcome {
    /// The plan ran to completion.
    Finished(Execution),
    /// The progressive optimizer should re-plan from this checkpoint.
    Paused(Checkpoint),
    /// A stage exhausted its retry budget: blacklist `cause.platform` and
    /// re-plan the remainder over the surviving platforms from this
    /// consistent cut (§7.1's "possibly on a different platform").
    Failover {
        /// State up to the last consistent cut (in-flight loops excluded —
        /// their partial iterations re-run from scratch after failover).
        checkpoint: Checkpoint,
        /// What exhausted the budget, including the platform to blacklist.
        cause: BudgetExhausted,
    },
}

/// A completed execution.
pub struct Execution {
    /// Sink outputs by logical sink operator.
    pub sink_data: HashMap<OperatorId, Dataset>,
    /// Virtual cluster time of the whole job, ms.
    pub virtual_ms: f64,
    /// Real local wall time, ms.
    pub real_ms: f64,
    /// Faults handled, retried or exhausted, in commit order.
    pub faults: Vec<FaultRecord>,
    /// Exploration taps (empty unless exploratory mode).
    pub exploration: ExplorationBuffer,
}

/// State captured at an optimization checkpoint (§4.4).
pub struct Checkpoint {
    /// Logical operators fully executed.
    pub executed: HashSet<OperatorId>,
    /// Materialized outputs that unexecuted operators still need.
    pub materialized: HashMap<OperatorId, Dataset>,
    /// Measured output cardinalities of executed operators.
    pub measured: HashMap<OperatorId, f64>,
    /// Outputs of sinks that already completed before the pause.
    pub sink_data: HashMap<OperatorId, Dataset>,
    /// Virtual time consumed so far, ms.
    pub virtual_ms: f64,
    /// Real time consumed so far, ms.
    pub real_ms: f64,
    /// Faults handled so far, in commit order.
    pub faults: Vec<FaultRecord>,
    /// Exploration taps so far.
    pub exploration: ExplorationBuffer,
}

/// The executor for one (plan, optimized plan, exec plan) triple.
pub struct Executor<'a> {
    plan: &'a RheemPlan,
    opt: &'a OptimizedPlan,
    eplan: &'a ExecPlan,
    profiles: &'a Profiles,
    config: &'a ExecConfig,
    faults: Option<Arc<FaultPlan>>,
    trace: Option<TraceHandle>,
    /// Cross-job result cache plus the per-node publication schedule
    /// (computed by the progressive driver from the phase plan): tail
    /// fingerprints and interior fused-chain cut points.
    cache: Option<(Arc<crate::cache::ResultCache>, Vec<crate::cache::NodePublish>)>,
}

struct RunState {
    values: Vec<Option<ChannelData>>,
    vfinish: Vec<f64>,
    /// stage id of the currently open stage run, with its running clock and
    /// whether overhead is still pending.
    open_stage: Option<usize>,
    run_clock: f64,
    /// Virtual time at which the current stage run was submitted (overhead
    /// included); multi-core platforms order nodes by data dependencies
    /// from this base instead of serializing the whole run.
    run_base: f64,
    /// Latest virtual finish over the current run's nodes (the run span's
    /// end and the time its lane frees up).
    run_end: f64,
    run_virtual_ms: f64,
    started_platforms: HashSet<&'static str>,
    /// Per-platform lane occupancy (virtual finish time of the last run on
    /// each lane). Engines accept only [`crate::platform::PlatformProfile::
    /// slots`] stage submissions at once; a new run waits for the
    /// earliest-free lane. The driver (CONTROL) is unconstrained.
    lanes: HashMap<&'static str, Vec<f64>>,
    /// Lane held by the currently open stage run, released on close.
    run_lane: Option<(&'static str, usize)>,
    /// Virtual-time floor: no node may start before this (loop iterations
    /// serialize: iteration i+1 starts after iteration i completed).
    floor: f64,
    measured: HashMap<OperatorId, f64>,
    exploration: ExplorationBuffer,
    iteration: u64,
    job_virtual_ms: f64,
    /// Faults handled by the whole run (all stage runs), in commit order.
    faults: Vec<FaultRecord>,
    wall_start: Instant,
    /// Failed attempts per (stage, iteration) — the retry-budget meter.
    stage_attempts: HashMap<(usize, u64), u32>,
    /// Open trace span of the current stage run, with its run ordinal.
    run_span: Option<(u32, u32)>,
    /// Parent span for new stage spans (phase span, or the innermost
    /// iteration span inside loops). `None` when tracing is off.
    span_parent: Option<u32>,
    /// Loops currently in flight (innermost last); their nodes hold partial
    /// state and must not count as executed in a failover cut.
    active_loops: Vec<OperatorId>,
}

/// One failed attempt observed inside [`Executor::exec_node`]'s retry loop,
/// buffered so [`Executor::commit_node`] replays its fault record and retry
/// span after opening the stage-run span the retry span nests under.
struct RetryRec {
    /// The injected fault behind the failure (`None` for organic errors).
    fault: Option<InjectedFault>,
    /// Cumulative failed attempts on the (stage, iteration) budget meter.
    failures: u32,
    /// Whether the retry budget absorbed this failure (`false` exhausts it).
    within_budget: bool,
}

/// Result of executing one node: everything `commit_node` needs to account
/// virtual time, spans and fault records.
struct NodeExec {
    out: ChannelData,
    ops: Vec<OpMetrics>,
    vdur: f64,
    events: Vec<TraceEvent>,
    node_retries: u32,
    vec_stats: crate::exec::VecStats,
}

/// Execution outcome of one node, including the retry history that must be
/// replayed even when the node ultimately failed.
struct NodeOutcome {
    retries: Vec<RetryRec>,
    /// Budget-meter value after this node (`stage_attempts` parity).
    failures_after: u32,
    result: Result<NodeExec>,
}

impl<'a> Executor<'a> {
    /// New executor.
    pub fn new(
        plan: &'a RheemPlan,
        opt: &'a OptimizedPlan,
        eplan: &'a ExecPlan,
        profiles: &'a Profiles,
        config: &'a ExecConfig,
    ) -> Self {
        let faults = config.resolve_fault_plan();
        Self { plan, opt, eplan, profiles, config, faults, trace: None, cache: None }
    }

    /// Use this (job-wide, shared) fault plan instead of resolving one from
    /// the config — the progressive optimizer passes the same plan to every
    /// phase so attempt counters survive replans and failovers.
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Record spans and operator profiles into this trace (the progressive
    /// driver hands every phase the same collector with a fresh parent span
    /// and the cumulative virtual-time offset).
    pub fn with_trace(mut self, trace: Option<TraceHandle>) -> Self {
        self.trace = trace;
        self
    }

    /// Publish committed node values into a cross-job result cache. The
    /// vector maps each exec-plan node to its publication schedule: the
    /// tail fingerprint its value is published under plus any interior
    /// fused-chain cut points (see [`crate::cache::publish_map`]).
    pub fn with_cache(
        mut self,
        cache: Option<(Arc<crate::cache::ResultCache>, Vec<crate::cache::NodePublish>)>,
    ) -> Self {
        self.cache = cache;
        self
    }

    /// Run the plan (until completion or an optimization checkpoint).
    pub fn run(&self) -> Result<Outcome> {
        let n = self.eplan.nodes.len();
        let mut st = RunState {
            values: (0..n).map(|_| None).collect(),
            vfinish: vec![0.0; n],
            open_stage: None,
            run_clock: 0.0,
            run_base: 0.0,
            run_end: 0.0,
            run_virtual_ms: 0.0,
            started_platforms: HashSet::new(),
            lanes: HashMap::new(),
            run_lane: None,
            floor: 0.0,
            measured: HashMap::new(),
            exploration: ExplorationBuffer::default(),
            iteration: 0,
            job_virtual_ms: 0.0,
            faults: Vec::new(),
            wall_start: Instant::now(),
            stage_attempts: HashMap::new(),
            run_span: None,
            span_parent: self.trace.as_ref().map(|h| h.parent),
            active_loops: Vec::new(),
        };
        let pause = match self.run_region(&mut st, None) {
            Ok(pause) => pause,
            Err(RheemError::Exhausted(cause)) if self.config.failover => {
                self.close_stage_run(&mut st);
                return self.build_failover(st, cause);
            }
            Err(e) => return Err(e),
        };
        self.close_stage_run(&mut st);
        let real_ms = st.wall_start.elapsed().as_secs_f64() * 1000.0;
        let virtual_ms = st.job_virtual_ms;
        if let Some(()) = pause {
            let executed = self.executed_logical(&st);
            return Ok(Outcome::Paused(self.build_checkpoint(st, executed, virtual_ms, real_ms)));
        }
        // Collect sinks.
        let mut sink_data = HashMap::new();
        for &(op, nid) in &self.eplan.sinks {
            let data = st.values[nid]
                .as_ref()
                .ok_or_else(|| RheemError::Execution("sink never executed".into()))?
                .flatten()?;
            sink_data.insert(op, data);
        }
        Ok(Outcome::Finished(Execution {
            sink_data,
            virtual_ms,
            real_ms,
            faults: st.faults,
            exploration: st.exploration,
        }))
    }

    /// Execute all nodes of `region` (a loop body, or the top level for
    /// `None`) in stage order. Returns `Some(())` when a checkpoint fired.
    fn run_region(&self, st: &mut RunState, region: Option<OperatorId>) -> Result<Option<()>> {
        let node_ids: Vec<usize> = self
            .eplan
            .topo_nodes()
            .filter(|&nid| self.eplan.nodes[nid].loop_of == region)
            .collect();
        for (i, &nid) in node_ids.iter().enumerate() {
            self.ensure_node(st, nid)?;
            // Progressive checkpoints: only at top level, at stage
            // boundaries, with work remaining.
            let stage_ends = node_ids
                .get(i + 1)
                .map(|&next| self.eplan.nodes[next].stage != self.eplan.nodes[nid].stage)
                .unwrap_or(true);
            if self.config.progressive
                && region.is_none()
                && stage_ends
                && i + 1 < node_ids.len()
                && self.checkpoint_triggers(st, nid)
            {
                self.close_stage_run(st);
                return Ok(Some(()));
            }
        }
        Ok(None)
    }

    /// Compute a node's value if absent, recursively computing its
    /// providers first (providers may live in outer regions whose stage
    /// order placed them after a loop head — demand drives them early).
    fn ensure_node(&self, st: &mut RunState, nid: usize) -> Result<()> {
        if st.values[nid].is_some() {
            return Ok(());
        }
        if self.eplan.nodes[nid].is_loop_head(self.plan) {
            self.close_stage_run(st);
            return self.run_loop(st, nid);
        }
        let deps: Vec<usize> = self.eplan.nodes[nid]
            .inputs
            .iter()
            .copied()
            .chain(self.eplan.nodes[nid].broadcasts.iter().map(|(_, p)| *p))
            .collect();
        for d in deps {
            self.ensure_node(st, d)?;
        }
        self.run_node(st, nid)
    }

    fn run_loop(&self, st: &mut RunState, head: usize) -> Result<()> {
        let node = &self.eplan.nodes[head];
        let tail = node.tail().expect("loop head covers its logical op");
        let (max_iters, cond) = match &self.plan.node(tail).op {
            LogicalOp::RepeatLoop { iterations } => (*iterations, None),
            LogicalOp::DoWhile { cond, max_iterations } => (*max_iterations, Some(cond.clone())),
            other => {
                return Err(RheemError::Execution(format!(
                    "node {} is not a loop head ({:?})",
                    head,
                    other.kind()
                )))
            }
        };
        let init_provider = node.inputs[0];
        let feedback_provider = node.inputs[1];
        self.ensure_node(st, init_provider)?;
        let mut state = st.values[init_provider]
            .clone()
            .ok_or_else(|| RheemError::Execution("loop initial input missing".into()))?;
        let mut state_vfinish = st.vfinish[init_provider];
        let outer_iteration = st.iteration;

        // The loop-head stage itself (condition evaluation) is driver work.
        // The loop is "in flight" until it completes: a failover cut taken
        // mid-loop must discard its partial iteration state (on error we
        // deliberately do NOT pop, so `run` sees the loop as active).
        st.active_loops.push(tail);
        let outer_floor = st.floor;
        let outer_parent = st.span_parent;
        let loop_span = self.trace.as_ref().map(|h| {
            let sid = h.trace.begin(
                outer_parent,
                SpanKind::Loop,
                &self.plan.node(tail).label(),
                None,
                h.base_ms + st.floor.max(state_vfinish),
            );
            h.trace.attr(sid, "op", tail.0.into());
            h.trace.attr(sid, "max_iterations", max_iters.into());
            sid
        });
        for i in 0..max_iters {
            st.iteration = i as u64;
            st.values[head] = Some(state.clone());
            st.vfinish[head] = state_vfinish;
            st.floor = st.floor.max(state_vfinish);
            let iter_span = self.trace.as_ref().map(|h| {
                h.trace.begin(
                    loop_span,
                    SpanKind::Iteration,
                    &format!("iteration {i}"),
                    None,
                    h.base_ms + st.floor,
                )
            });
            if iter_span.is_some() {
                st.span_parent = iter_span;
            }
            // Clear all nodes nested (transitively) inside this loop.
            for (vid, v) in st.values.iter_mut().enumerate() {
                if self.nested_in_loop(vid, tail) {
                    *v = None;
                }
            }
            if self.run_region(st, Some(tail))?.is_some() {
                unreachable!("checkpoints never fire inside loop bodies");
            }
            self.close_stage_run(st);
            state = st.values[feedback_provider]
                .clone()
                .ok_or_else(|| RheemError::Execution("loop feedback missing".into()))?;
            state_vfinish = st.vfinish[feedback_provider];
            if let (Some(h), Some(sid)) = (&self.trace, iter_span) {
                h.trace.end(sid, h.base_ms + state_vfinish);
            }
            if let Some(cond) = &cond {
                // The condition reads the first quantum of any in-memory
                // layout; a file, opaque or empty channel has none to read.
                let probe = state.sample(1).ok_or_else(|| {
                    RheemError::Execution(format!("cannot read from channel {state:?}"))
                })?;
                let done =
                    probe.first().map(|v| cond.call(v, &BroadcastCtx::new())).unwrap_or(true);
                if done {
                    break;
                }
            }
        }
        st.active_loops.pop();
        st.iteration = outer_iteration;
        st.floor = outer_floor;
        st.span_parent = outer_parent;
        if let (Some(h), Some(sid)) = (&self.trace, loop_span) {
            h.trace.end(sid, h.base_ms + state_vfinish);
        }
        st.values[head] = Some(state);
        st.vfinish[head] = state_vfinish;
        if let Some(tail_op) = self.eplan.nodes[head].tail() {
            if let Some(card) = st.values[head].as_ref().unwrap().cardinality() {
                st.measured.insert(tail_op, card as f64);
            }
        }
        Ok(())
    }

    fn nested_in_loop(&self, nid: usize, loop_op: OperatorId) -> bool {
        let mut ctx = self.eplan.nodes[nid].loop_of;
        let mut guard = 0;
        while let Some(l) = ctx {
            if l == loop_op {
                return true;
            }
            ctx = self.plan.node(l).loop_of;
            guard += 1;
            if guard > 64 {
                break;
            }
        }
        false
    }

    fn run_node(&self, st: &mut RunState, nid: usize) -> Result<()> {
        let node = &self.eplan.nodes[nid];
        let (inputs, bc) = self.gather(st, nid)?;
        let mut failures = st.stage_attempts.get(&(node.stage, st.iteration)).copied().unwrap_or(0);
        let outcome = self.exec_node(nid, &inputs, &bc, st.iteration, &mut failures);
        self.commit_node(st, nid, outcome)
    }

    /// Gather a node's inputs and bind its broadcasts from the run state's
    /// committed values.
    fn gather(&self, st: &RunState, nid: usize) -> Result<(Vec<ChannelData>, BroadcastCtx)> {
        let node = &self.eplan.nodes[nid];
        let mut inputs = Vec::with_capacity(node.inputs.len());
        for &i in &node.inputs {
            inputs.push(st.values[i].clone().ok_or_else(|| {
                RheemError::Execution(format!(
                    "input node {i} of {} not yet executed",
                    node.exec.name()
                ))
            })?);
        }
        let mut bc = BroadcastCtx::new();
        for (name, i) in &node.broadcasts {
            let data = st.values[*i]
                .as_ref()
                .ok_or_else(|| RheemError::Execution("broadcast input missing".into()))?
                .flatten()?;
            bc.bind(Arc::clone(name), data);
        }
        Ok((inputs, bc))
    }

    /// Execute one node: the retry loop with its fault gates, and the
    /// operator itself. Touches no `RunState`: every side effect is
    /// buffered into the returned [`NodeOutcome`] and replayed by
    /// [`Executor::commit_node`]. `stage_failures` is the (stage,
    /// iteration) budget meter, read from and written back to the run
    /// state by the caller.
    fn exec_node(
        &self,
        nid: usize,
        inputs: &[ChannelData],
        bc: &BroadcastCtx,
        iteration: u64,
        stage_failures: &mut u32,
    ) -> NodeOutcome {
        let node = &self.eplan.nodes[nid];
        let platform = node.exec.platform();
        let mut retries = Vec::new();
        // Execute, with cross-platform fault tolerance (§7.1): transient
        // failures — organic or injected by the fault plan — are retried
        // with exponential virtual-time backoff against the stage's retry
        // budget; exhausting it escalates to failover.
        let wall = Instant::now();
        let mut ctx;
        let mut backoff_ms = 0.0;
        let mut node_retries = 0u32;
        let out = loop {
            ctx = ExecCtx::new(self.profiles, self.config.seed.wrapping_add(nid as u64));
            ctx.iteration = iteration;
            ctx.stage = node.stage;
            ctx.set_tracing(self.trace.is_some());
            ctx.set_faults(self.faults.clone());
            ctx.set_batch(self.config.batch);
            // Stage crashes strike the submission itself, before any
            // operator code runs; operator/transfer faults strike inside
            // `execute` via the context's gates.
            let crashed = self.faults.as_ref().and_then(|fp| {
                fp.check(FaultKind::StageCrash, platform, node.exec.name(), node.stage, iteration)
            });
            let result = match crashed {
                Some(f) => Err(RheemError::Fault(f)),
                None => node.exec.execute(&mut ctx, inputs, bc),
            };
            match result {
                Ok(out) => break out,
                Err(e) if e.is_transient() => {
                    *stage_failures += 1;
                    let failures = *stage_failures;
                    let within_budget = failures <= self.config.retry_budget;
                    retries.push(RetryRec { fault: e.fault().cloned(), failures, within_budget });
                    if !within_budget {
                        let err = if platform == CONTROL {
                            // The driver is the failover mechanism itself —
                            // it cannot be blacklisted; surface the failure.
                            e
                        } else {
                            RheemError::Exhausted(BudgetExhausted {
                                platform,
                                stage: node.stage,
                                attempts: failures,
                                cause: e.to_string(),
                            })
                        };
                        return NodeOutcome { retries, failures_after: failures, result: Err(err) };
                    }
                    node_retries += 1;
                    backoff_ms += BACKOFF_BASE_MS * (1u64 << (failures - 1).min(20)) as f64;
                }
                Err(e) => {
                    return NodeOutcome { retries, failures_after: *stage_failures, result: Err(e) }
                }
            }
        };
        let real_ms = wall.elapsed().as_secs_f64() * 1000.0;
        let (mut ops, mut vdur) = ctx.take_metrics();
        let events = ctx.take_events();
        let vec_stats = ctx.take_vec_stats();
        if ops.is_empty() {
            // Operators that do not self-report get wall-clock attribution.
            let scaled = real_ms * self.profiles.get(platform).cpu_scale;
            vdur = vdur.max(scaled);
            ops.push(OpMetrics {
                name: node.exec.name().to_string(),
                platform,
                in_card: crate::exec::total_cardinality(inputs),
                out_card: out.cardinality().unwrap_or(0) as u64,
                virtual_ms: vdur,
                real_ms,
            });
        }
        if backoff_ms > 0.0 {
            // Retries and their backoff consume cluster time; charge them in
            // virtual ms so chaos runs report realistic (yet deterministic)
            // job times.
            vdur += backoff_ms;
            ops.push(OpMetrics {
                name: "RetryBackoff".to_string(),
                platform,
                in_card: 0,
                out_card: 0,
                virtual_ms: backoff_ms,
                real_ms: 0.0,
            });
        }
        NodeOutcome {
            retries,
            failures_after: *stage_failures,
            result: Ok(NodeExec { out, ops, vdur, events, node_retries, vec_stats }),
        }
    }

    /// Commit one executed node: stage-run bookkeeping, lane assignment,
    /// critical-path virtual-time composition, trace spans, fault records
    /// and value publication, in the walk's dependency order. A new stage
    /// run's span opens here, before the node's buffered retries are
    /// replayed, so retry spans nest under the run they struck.
    fn commit_node(&self, st: &mut RunState, nid: usize, outcome: NodeOutcome) -> Result<()> {
        let node = &self.eplan.nodes[nid];
        let platform = node.exec.platform();

        // Stage-run bookkeeping.
        let mut pending_overhead = 0.0;
        let new_run = st.open_stage != Some(node.stage);
        if new_run {
            self.close_stage_run(st);
            st.open_stage = Some(node.stage);
            st.run_clock = 0.0;
            st.run_base = 0.0;
            st.run_end = 0.0;
            if platform != CONTROL {
                pending_overhead += self.profiles.get(platform).stage_overhead_ms;
                if st.started_platforms.insert(platform.0) {
                    pending_overhead += self.profiles.get(platform).startup_ms;
                }
            }
        }

        // The node may start once its producers finished (dependency order).
        let mut vstart: f64 = st.floor.max(st.run_base);
        for &i in &node.inputs {
            vstart = vstart.max(st.vfinish[i]);
        }
        for (_, i) in &node.broadcasts {
            vstart = vstart.max(st.vfinish[*i]);
        }
        // Single-core platforms (and the driver) serialize their stage run;
        // multi-core engines overlap independent nodes of a stage.
        if self.profiles.get(platform).cores <= 1 {
            vstart = vstart.max(st.run_clock);
        }
        if new_run {
            // Submission overhead counts from the run's floor: platforms
            // spin up and schedule concurrently with upstream work. The run
            // then waits for a free lane — an engine admits only `slots()`
            // concurrent stage submissions (critical-path semantics: lanes
            // model the cluster's parallel stage capacity).
            st.run_base = st.floor + pending_overhead;
            let mut lane = None;
            if platform != CONTROL {
                let slots = self.profiles.get(platform).slots();
                let lanes = st.lanes.entry(platform.0).or_insert_with(|| vec![0.0; slots]);
                let mut li = 0;
                for (i, &free) in lanes.iter().enumerate() {
                    if free < lanes[li] {
                        li = i;
                    }
                }
                st.run_base = st.run_base.max(lanes[li]);
                st.run_lane = Some((platform.0, li));
                lane = Some(li);
            }
            vstart = vstart.max(st.run_base);
            if let Some(h) = &self.trace {
                let run_id = h.trace.next_run_id();
                let sid = h.trace.begin(
                    st.span_parent,
                    SpanKind::Stage,
                    &format!("stage {}", node.stage),
                    Some(self.eplan.stages[node.stage].platform),
                    h.base_ms + st.floor,
                );
                h.trace.attr(sid, "stage", node.stage.into());
                h.trace.attr(sid, "iteration", st.iteration.into());
                h.trace.attr(sid, "phase", h.trace.phase().into());
                h.trace.attr(sid, "run", run_id.into());
                if let Some(li) = lane {
                    h.trace.attr(sid, "lane", li.into());
                }
                if pending_overhead > 0.0 {
                    h.trace.attr(sid, "overhead_ms", pending_overhead.into());
                }
                st.run_span = Some((sid, run_id));
            }
        }

        // Replay the retry history: fault records and retry spans, in the
        // order the attempts happened.
        let NodeOutcome { retries, failures_after, result } = outcome;
        for rec in &retries {
            st.faults.push(FaultRecord {
                stage: node.stage,
                iteration: st.iteration,
                platform,
                op: node.exec.name().to_string(),
                kind: rec.fault.as_ref().map(|i| i.kind),
                attempt: rec.failures,
                recovered: rec.within_budget,
            });
            if let Some(h) = &self.trace {
                let parent = st.run_span.map(|(s, _)| s).or(st.span_parent);
                let sid = h.trace.instant(
                    parent,
                    SpanKind::Retry,
                    node.exec.name(),
                    Some(platform),
                    h.base_ms + vstart,
                );
                h.trace.attr(sid, "attempt", rec.failures.into());
                let kind = rec
                    .fault
                    .as_ref()
                    .map(|i| format!("{:?}", i.kind))
                    .unwrap_or_else(|| "organic".to_string());
                h.trace.attr(sid, "kind", kind.into());
                h.trace.attr(sid, "recovered", i64::from(rec.within_budget).into());
            }
        }
        if failures_after > 0 {
            st.stage_attempts.insert((node.stage, st.iteration), failures_after);
        }
        let NodeExec { out, mut ops, mut vdur, events, node_retries, vec_stats } = result?;

        // Exploration sniffer (Fig. 7): multiplex a sample of the output.
        if self.config.exploration && !node.logical.is_empty() {
            if let Some(total) = out.cardinality() {
                let sniff_wall = Instant::now();
                let sample = out.sample(SNIFF_LIMIT).unwrap_or_default();
                let sniff_ms = sniff_wall.elapsed().as_secs_f64() * 1000.0;
                // Copying at scale costs time proportional to data volume:
                // charge the multiplex pass over the full output.
                let multiplex_ms =
                    sniff_ms + total as f64 * 120.0 / self.profiles.get(platform).cycles_per_ms;
                vdur += multiplex_ms;
                ops.push(OpMetrics {
                    name: "Sniffer".to_string(),
                    platform,
                    in_card: total as u64,
                    out_card: sample.len() as u64,
                    virtual_ms: multiplex_ms,
                    real_ms: sniff_ms,
                });
                st.exploration.taps.push((node.exec.name().to_string(), sample));
            }
        }

        // Trace: lay the node's operator metrics out sequentially from its
        // dependency-ordered start, and record a profile per metric so the
        // learner and EXPLAIN ANALYZE see uniform per-operator rows.
        if let Some(h) = &self.trace {
            let parent = st.run_span.map(|(s, _)| s).or(st.span_parent);
            let run_id = st.run_span.map(|(_, r)| r).unwrap_or(0);
            let phase = h.trace.phase();
            let mut t = vstart;
            let mut main_span = None;
            for m in &ops {
                let kind = match m.name.as_str() {
                    "RetryBackoff" => SpanKind::Backoff,
                    "Sniffer" => SpanKind::Sniffer,
                    _ if node.logical.is_empty() => SpanKind::Conversion,
                    _ => SpanKind::Operator,
                };
                let is_main = matches!(kind, SpanKind::Operator | SpanKind::Conversion);
                let first_main = is_main && main_span.is_none();
                let sid = h.trace.begin(parent, kind, &m.name, Some(m.platform), h.base_ms + t);
                h.trace.attr(sid, "node", nid.into());
                h.trace.attr(sid, "tuples_in", m.in_card.into());
                h.trace.attr(sid, "tuples_out", m.out_card.into());
                if first_main && node.logical.len() > 1 {
                    h.trace.attr(sid, "fused", node.logical.len().into());
                }
                if first_main && node_retries > 0 {
                    h.trace.attr(sid, "retries", node_retries.into());
                }
                h.trace.end(sid, h.base_ms + t + m.virtual_ms);
                t += m.virtual_ms;
                if first_main {
                    main_span = Some(sid);
                }
                h.trace.add_profile(OpProfile {
                    name: m.name.clone(),
                    platform: m.platform.0.to_string(),
                    node: nid,
                    stage: node.stage,
                    iteration: st.iteration,
                    phase,
                    run: run_id,
                    logical: if first_main {
                        node.logical.iter().map(|l| l.0).collect()
                    } else {
                        Vec::new()
                    },
                    tuples_in: m.in_card,
                    tuples_out: m.out_card,
                    virtual_ms: m.virtual_ms,
                    retries: if first_main { node_retries } else { 0 },
                    vec_stats: if first_main {
                        vec_stats
                    } else {
                        crate::exec::VecStats::default()
                    },
                    superseded: false,
                });
            }
            if let Some(ms) = main_span {
                for ev in &events {
                    let sid = h.trace.instant(
                        Some(ms),
                        SpanKind::Event,
                        &ev.name,
                        Some(platform),
                        h.base_ms + vstart,
                    );
                    for (k, v) in &ev.attrs {
                        h.trace.attr(sid, k, v.clone());
                    }
                }
            }
        }

        st.vfinish[nid] = vstart + vdur;
        st.run_clock = st.vfinish[nid];
        st.run_end = st.run_end.max(st.vfinish[nid]);
        st.job_virtual_ms = st.job_virtual_ms.max(st.vfinish[nid]);
        st.run_virtual_ms += vdur + pending_overhead;
        if let Some(tail) = node.tail() {
            if let Some(card) = out.cardinality() {
                st.measured.insert(tail, card as f64);
            }
        }
        // Commit is the single value-publication point: publish reusable
        // committed results cross-job.
        // (Errors returned above never reach here, so only correct values
        // are ever published.)
        if let Some((cache, pubs)) = &self.cache {
            let publish = &pubs[nid];
            if let Some(fp) = publish.tail {
                // Publish the channel as-is: columnar batches stay columnar
                // (zero-copy via the shared Arc), so a warm replay feeds
                // vectorized consumers without a row detour.
                cache.insert_channel_in(self.config.cache_ns, fp, &out);
            }
            if let Some(input) = node.inputs.first().and_then(|&i| st.values[i].as_ref()) {
                let ns = self.config.cache_ns;
                cache.publish_cuts_in(ns, self.plan, &node.logical, &publish.cuts, input);
            }
        }
        st.values[nid] = Some(out);
        Ok(())
    }

    fn close_stage_run(&self, st: &mut RunState) {
        if st.open_stage.take().is_some() {
            let run_end = st.run_end.max(st.run_base);
            if let Some((p, lane)) = st.run_lane.take() {
                if let Some(lanes) = st.lanes.get_mut(p) {
                    lanes[lane] = run_end;
                }
            }
            if let Some(h) = &self.trace {
                if let Some((sid, _)) = st.run_span.take() {
                    // The closed span is the run's record (`JobTrace::runs`).
                    h.trace.end(sid, h.base_ms + run_end);
                    h.trace.attr(sid, "virtual_ms", st.run_virtual_ms.into());
                }
            }
            st.run_virtual_ms = 0.0;
        }
    }

    /// Should we pause at this node's stage boundary for re-optimization?
    fn checkpoint_triggers(&self, st: &RunState, nid: usize) -> bool {
        let Some(tail) = self.eplan.nodes[nid].tail() else {
            return false;
        };
        let est = self.opt.estimates.out_card(tail);
        let uncertain = est.conf < CHECKPOINT_CONF || est.rel_width() > CHECKPOINT_WIDTH;
        if !uncertain {
            return false;
        }
        let Some(&measured) = st.measured.get(&tail) else {
            return false;
        };
        if check_cardinality(est, measured, self.config.mismatch_tau) == Health::Ok {
            return false;
        }
        // Re-planning requires all boundary data to be re-injectable as
        // collections; skip the checkpoint when any needed value is opaque.
        self.checkpoint_materializable(st, &self.executed_logical(st))
    }

    /// Turn a retry-budget exhaustion into a failover checkpoint, or surface
    /// it as an error when the consistent cut cannot be re-injected.
    fn build_failover(&self, mut st: RunState, cause: BudgetExhausted) -> Result<Outcome> {
        let executed = self.failover_executed(&st);
        if !self.checkpoint_materializable(&st, &executed) {
            return Err(RheemError::Exhausted(cause));
        }
        if let Some(h) = &self.trace {
            // In-flight loops restart from iteration 0 after failover: their
            // already-recorded iteration runs would double-count in the
            // learner.
            let stale_stages: HashSet<usize> = self
                .eplan
                .nodes
                .iter()
                .filter(|n| self.in_active_loop(&st, n.id))
                .map(|n| n.stage)
                .collect();
            h.trace.supersede_current_phase(&stale_stages);
            let sid = h.trace.instant(
                Some(h.parent),
                SpanKind::Failover,
                &format!("failover from {}", cause.platform),
                Some(cause.platform),
                h.base_ms + st.job_virtual_ms,
            );
            h.trace.attr(sid, "stage", cause.stage.into());
            h.trace.attr(sid, "attempts", cause.attempts.into());
            h.trace.attr(sid, "cause", cause.cause.clone().into());
        }
        // Partial-iteration measurements of in-flight loop bodies must not
        // leak into the re-optimizer's estimates.
        let stale_ops: Vec<OperatorId> = st
            .measured
            .keys()
            .copied()
            .filter(|op| {
                self.eplan
                    .node_of_logical
                    .get(op)
                    .map(|&nid| self.in_active_loop(&st, nid))
                    .unwrap_or(false)
            })
            .collect();
        for op in stale_ops {
            st.measured.remove(&op);
        }
        let real_ms = st.wall_start.elapsed().as_secs_f64() * 1000.0;
        let virtual_ms = st.job_virtual_ms;
        let checkpoint = self.build_checkpoint(st, executed, virtual_ms, real_ms);
        Ok(Outcome::Failover { checkpoint, cause })
    }

    /// Logical operators safe to treat as executed when failing over: all
    /// computed nodes *except* heads/bodies of loops still in flight, whose
    /// values are partial iteration state, not final results.
    fn failover_executed(&self, st: &RunState) -> HashSet<OperatorId> {
        let mut executed = HashSet::new();
        for node in &self.eplan.nodes {
            if st.values[node.id].is_none() || self.in_active_loop(st, node.id) {
                continue;
            }
            for &op in &node.logical {
                executed.insert(op);
            }
        }
        executed
    }

    /// Whether a node belongs to (or is the head of) a loop still in flight.
    fn in_active_loop(&self, st: &RunState, nid: usize) -> bool {
        st.active_loops
            .iter()
            .any(|&l| self.eplan.nodes[nid].logical.contains(&l) || self.nested_in_loop(nid, l))
    }

    fn checkpoint_materializable(&self, st: &RunState, executed: &HashSet<OperatorId>) -> bool {
        for (op, &nid) in &self.eplan.node_of_logical {
            if !executed.contains(op) {
                continue;
            }
            let needed = self.plan.consumers()[op.index()].iter().any(|c| !executed.contains(c));
            if needed {
                match &st.values[nid] {
                    Some(ChannelData::Collection(_))
                    | Some(ChannelData::Partitions(_))
                    | Some(ChannelData::Batches(_))
                    | Some(ChannelData::BatchParts(_)) => {}
                    _ => return false,
                }
            }
        }
        true
    }

    fn executed_logical(&self, st: &RunState) -> HashSet<OperatorId> {
        let mut executed = HashSet::new();
        for node in &self.eplan.nodes {
            if st.values[node.id].is_some() {
                for &op in &node.logical {
                    executed.insert(op);
                }
            }
        }
        executed
    }

    fn build_checkpoint(
        &self,
        st: RunState,
        executed: HashSet<OperatorId>,
        virtual_ms: f64,
        real_ms: f64,
    ) -> Checkpoint {
        let mut materialized = HashMap::new();
        for (op, &nid) in &self.eplan.node_of_logical {
            if !executed.contains(op) {
                continue;
            }
            let needed = self.plan.consumers()[op.index()].iter().any(|c| !executed.contains(c));
            if needed {
                if let Some(v) = &st.values[nid] {
                    if let Ok(data) = v.flatten() {
                        materialized.insert(*op, data);
                    }
                }
            }
        }
        let mut sink_data = HashMap::new();
        for &(op, nid) in &self.eplan.sinks {
            if executed.contains(&op) {
                if let Some(v) = &st.values[nid] {
                    if let Ok(data) = v.flatten() {
                        sink_data.insert(op, data);
                    }
                }
            }
        }
        Checkpoint {
            executed,
            materialized,
            measured: st.measured,
            sink_data,
            virtual_ms,
            real_ms,
            faults: st.faults,
            exploration: st.exploration,
        }
    }
}

/// Stash shared between executor runs for the progressive optimizer.
pub type SharedBuffer = Arc<Mutex<ExplorationBuffer>>;
