//! Chaos sweep (§7.1): an exhaustive matrix of injection points over the
//! WordCount and SGD (Listing 1) plans and a plan with nested loops. Every `(stage, fault kind, fail
//! count)` cell must either recover within the retry budget (byte-identical
//! answer, zero failovers) or escalate cleanly — fail over to a surviving
//! platform or die with a *typed* error. Alongside each cell we check that
//! the fault log, the job trace and the job metrics match the injected plan
//! exactly:
//! chaos without bookkeeping honesty would hide exactly the bugs it is
//! supposed to find.

use std::collections::HashSet;
use std::sync::Arc;

use rheem::prelude::*;
use rheem_core::builtin::CONTROL;
use rheem_core::fault::{FaultKind, FaultPlan, FaultRule, PERSISTENT};
use rheem_core::plan::{OperatorId, RheemPlan};
use rheem_core::udf::FlatMapUdf;

/// Fixed chaos-seed matrix (mirrored in CI and `tests/differential.rs`).
const CHAOS_SEEDS: [u64; 3] = [0xC0FFEE, 42, 7];
/// Retry budget used by every cell — small enough that `failing(3)` spills
/// over into the failover path.
const BUDGET: u32 = 2;
const KINDS: [FaultKind; 3] = [FaultKind::Transient, FaultKind::StageCrash, FaultKind::Transfer];

fn chaos_seeds() -> Vec<u64> {
    let mut seeds = CHAOS_SEEDS.to_vec();
    if let Some(extra) = std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()) {
        if !seeds.contains(&extra) {
            seeds.push(extra);
        }
    }
    seeds
}

// ---- the two workloads --------------------------------------------------

fn corpus() -> Vec<Value> {
    rheem_datagen::generate_text(60, 10, 5_000, 7).into_iter().map(Value::from).collect()
}

fn wordcount_chain(q: rheem_core::plan::DataQuanta) -> rheem_core::plan::DataQuanta {
    q.flat_map(FlatMapUdf::new("split", |v| {
        v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
    }))
    .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
    .reduce_by_key(
        KeyUdf::field(0),
        ReduceUdf::new("sum", |a, b| {
            Value::pair(
                a.field(0).clone(),
                Value::from(a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0)),
            )
        }),
    )
}

/// WordCount with free platform choice.
fn wordcount_plan() -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = wordcount_chain(b.collection(corpus())).collect();
    (b.build().unwrap(), sink)
}

/// WordCount spanning two pinned platforms, so the plan must cross channel
/// boundaries — this is what puts `Transfer` fault sites on the map.
fn hybrid_wordcount_plan() -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = wordcount_chain(
        b.collection(corpus())
            .map(MapUdf::new("lower", |v| Value::from(v.as_str().unwrap_or("").to_lowercase())))
            .with_target_platform(ids::SPARK),
    )
    .with_target_platform(ids::FLINK)
    .collect();
    (b.build().unwrap(), sink)
}

/// Listing 1's SGD shape over integers (batch gradient, no sampling), so the
/// learned weight is exactly reproducible: the loop head, the broadcast of
/// the weights into the gradient map, and the broadcast of the gradient sum
/// into the update map are all there — only the arithmetic is made exact.
fn sgd_plan() -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let points: Vec<Value> = (0..24i64)
        .map(|i| {
            let x = i % 5 - 2;
            Value::pair(Value::from(x), Value::from(3 * x + 1))
        })
        .collect();
    let points = b.collection(points);
    let winit = b.collection(vec![Value::from(0i64)]);
    let sink = winit
        .repeat(3, |w| {
            let grad = points
                .map(MapUdf::with_ctx("gradient", |p, ctx| {
                    let wv =
                        ctx.get_or_empty("weights").first().and_then(Value::as_int).unwrap_or(0);
                    let x = p.field(0).as_int().unwrap_or(0);
                    let y = p.field(1).as_int().unwrap_or(0);
                    Value::from(x * (x * wv - y))
                }))
                .broadcast("weights", w)
                .reduce(ReduceUdf::new("gsum", |a, b| {
                    Value::from(a.as_int().unwrap_or(0) + b.as_int().unwrap_or(0))
                }));
            w.map(MapUdf::with_ctx("update", |w, ctx| {
                let g =
                    ctx.get_or_empty("gradient_sum").first().and_then(Value::as_int).unwrap_or(0);
                Value::from(w.as_int().unwrap_or(0) - g / 64)
            }))
            .broadcast("gradient_sum", &grad)
        })
        .collect();
    (b.build().unwrap(), sink)
}

/// A loop nested in a loop (`tests/cross_platform.rs`'s nested-loop shape):
/// the inner body runs 3 × 2 times, each run under its own iteration path.
fn nested_loops_plan() -> (RheemPlan, OperatorId) {
    let int = |v: &Value| v.as_int().unwrap_or(0);
    let mut b = PlanBuilder::new();
    let sink = b
        .collection((0..5i64).map(Value::from).collect::<Vec<_>>())
        .repeat(3, |w| {
            w.map(MapUdf::new("nest_inc", move |v| Value::from(int(v) + 1)))
                .repeat(2, |x| x.map(MapUdf::new("nest_dbl", move |v| Value::from(int(v) * 2))))
                .map(MapUdf::new("nest_id", |v| v.clone()))
        })
        .collect();
    (b.build().unwrap(), sink)
}

type PlanFn = fn() -> (RheemPlan, OperatorId);
const PLANS: [(&str, PlanFn); 4] = [
    ("wordcount", wordcount_plan),
    ("hybrid-wordcount", hybrid_wordcount_plan),
    ("sgd", sgd_plan),
    ("nested-loops", nested_loops_plan),
];

// ---- harness ------------------------------------------------------------

/// Fault-free reference run: canonical (sorted) output plus the stage ids
/// the optimizer actually scheduled — those are the sweep's injection axis.
fn baseline(make: PlanFn) -> (Vec<Value>, Vec<usize>) {
    let ctx = rheem::default_context();
    let (out, result) = run_sorted(&ctx, make).unwrap();
    let mut stages: Vec<usize> = trace(&result).runs.iter().map(|r| r.stage).collect();
    stages.sort_unstable();
    stages.dedup();
    (out, stages)
}

/// Run a plan; its canonical (sorted) output and the whole result.
fn run_sorted(ctx: &RheemContext, make: PlanFn) -> Result<(Vec<Value>, JobResult)> {
    let (plan, sink) = make();
    let result = ctx.execute(&plan)?;
    let mut out = result.sink(sink)?.to_vec();
    out.sort();
    Ok((out, result))
}

fn trace(result: &JobResult) -> &JobTrace {
    result.trace.as_ref().expect("tracing is on by default")
}

/// The first stage run on a real engine (the driver pseudo-platform is
/// never injected) that satisfies `pick`: its stage and platform.
fn first_engine_run(
    result: &JobResult,
    pick: impl Fn(&rheem_core::trace::RunProfile) -> bool,
) -> (usize, PlatformId) {
    let r = trace(result)
        .runs
        .iter()
        .find(|r| r.platform != CONTROL.0 && pick(r))
        .expect("job must run a matching stage on a real platform");
    let platform = result.metrics.platforms.iter().find(|p| p.0 == r.platform).unwrap();
    (r.stage, *platform)
}

/// Effective (non-superseded) stage runs must account every loop iteration
/// exactly once per phase — the invariant behind the learner's sample
/// extraction, and the regression guard for replayed-iteration accounting
/// after a mid-loop failover.
fn assert_no_duplicate_iteration_accounting(result: &JobResult, what: &str) {
    let mut seen = HashSet::new();
    for r in trace(result).runs.iter().filter(|r| !r.superseded) {
        assert!(
            seen.insert((r.phase, r.stage, r.iteration)),
            "{what}: stage {} iteration {} recorded twice in phase {}",
            r.stage,
            r.iteration,
            r.phase
        );
    }
}

#[derive(Default)]
struct Tally {
    transient: usize,
    crash: usize,
    transfer: usize,
}

impl Tally {
    fn bump(&mut self, kind: FaultKind, n: usize) {
        match kind {
            FaultKind::Transient => self.transient += n,
            FaultKind::StageCrash => self.crash += n,
            FaultKind::Transfer => self.transfer += n,
        }
    }
}

// ---- the matrix ---------------------------------------------------------

/// Sweep every `(stage, kind, fail count)` cell of every workload. Cells
/// inside the budget must recover in place with the exact baseline answer;
/// cells beyond it must fail over or surface a typed error. In every
/// surviving cell the bookkeeping is reconciled against the injected plan:
/// all of the job's fault records carry the injected kind and stage, and
/// the context's `rheem_retries_total`, the per-run `RunProfile::retries`
/// sums of the trace, the job's `JobMetrics::retries` and its recovered
/// fault records all agree.
#[test]
fn fault_matrix_recovers_in_budget_or_escalates_cleanly() {
    let mut tally = Tally::default();
    for (name, make) in PLANS {
        let (expected, stages) = baseline(make);
        for &stage in &stages {
            for kind in KINDS {
                for fail_n in [1u32, BUDGET + 1] {
                    let cell = format!("{name}: stage {stage}, {kind} x{fail_n}");
                    let mut ctx = rheem::default_context();
                    ctx.config_mut().retry_budget = BUDGET;
                    ctx.config_mut().fault_plan = Some(Arc::new(
                        FaultPlan::none()
                            .with_rule(FaultRule::new(kind).on_stage(stage).failing(fail_n)),
                    ));
                    match run_sorted(&ctx, make) {
                        Ok((out, result)) => {
                            let JobMetrics { retries, failovers, ref faults, .. } = result.metrics;
                            assert_eq!(out, expected, "{cell}: wrong answer");
                            for r in faults {
                                assert_eq!(r.kind, Some(kind), "{cell}: alien fault {r:?}");
                                assert_eq!(r.stage, stage, "{cell}: strayed to {r:?}");
                            }
                            let recovered = faults.iter().filter(|r| r.recovered).count() as u32;
                            assert_eq!(
                                ctx.metrics().counter("rheem_retries_total"),
                                u64::from(recovered),
                                "{cell}: retry counter out of sync with fault records"
                            );
                            let per_run: u32 = trace(&result).runs.iter().map(|r| r.retries).sum();
                            assert_eq!(per_run, recovered, "{cell}: RunProfile retries drifted");
                            assert_eq!(retries, recovered, "{cell}: JobMetrics retries drifted");
                            assert_eq!(
                                u64::from(failovers),
                                ctx.metrics().counter("rheem_failovers_total"),
                                "{cell}: JobMetrics failovers drifted"
                            );
                            if fail_n <= BUDGET {
                                assert!(
                                    faults.iter().all(|r| r.recovered),
                                    "{cell}: in-budget fault not recovered"
                                );
                                assert_eq!(failovers, 0, "{cell}: needless failover");
                            } else if faults.iter().any(|r| !r.recovered) {
                                assert!(
                                    failovers >= 1,
                                    "{cell}: exhausted budget but no failover recorded"
                                );
                            }
                            tally.bump(kind, faults.len());
                        }
                        // Beyond the budget a cell may legitimately run out of
                        // platforms (pinned operators, repeated exhaustion) —
                        // but only with a *typed* error, and never in budget.
                        Err(
                            e @ (RheemError::Fault(_)
                            | RheemError::Exhausted(_)
                            | RheemError::Optimizer(_)),
                        ) => {
                            assert!(fail_n > BUDGET, "{cell}: in-budget cell died: {e}");
                        }
                        Err(other) => panic!("{cell}: untyped error {other}"),
                    }
                }
            }
        }
    }
    // The matrix must actually hit all three kinds of site (deterministic,
    // so this cannot flake): transient + crash everywhere, transfer via the
    // hybrid plan's cross-platform channels.
    assert!(tally.transient > 0, "matrix never injected a transient fault");
    assert!(tally.crash > 0, "matrix never injected a stage crash");
    assert!(tally.transfer > 0, "matrix never injected a transfer fault");
}

/// Kill the platform that actually ran each workload's first stage,
/// persistently: the job must complete on a surviving platform with the
/// baseline answer, and both the job metrics and the metrics registry must
/// report the failover.
#[test]
fn exhausted_stage_fails_over_and_completes() {
    for (name, make) in [("wordcount", wordcount_plan as PlanFn), ("sgd", sgd_plan as PlanFn)] {
        let (expected, _) = baseline(make);
        // Kill the first real engine the job touched.
        let (_, victim) =
            first_engine_run(&run_sorted(&rheem::default_context(), make).unwrap().1, |_| true);
        let mut ctx = rheem::default_context();
        ctx.config_mut().retry_budget = BUDGET;
        ctx.config_mut().fault_plan = Some(Arc::new(FaultPlan::none().with_rule(
            FaultRule::new(FaultKind::Transient).on_platform(victim).failing(PERSISTENT),
        )));
        let (out, result) = run_sorted(&ctx, make).unwrap();
        let JobMetrics { retries, failovers, ref faults, .. } = result.metrics;
        assert_eq!(out, expected, "{name}: failover from {victim:?} changed the answer");
        assert!(failovers >= 1, "{name}: JobMetrics must report the failover");
        assert!(
            ctx.metrics().counter("rheem_failovers_total") >= 1,
            "{name}: the metrics registry must count the failover"
        );
        assert!(retries >= BUDGET, "{name}: the budget must be consumed before failing over");
        assert!(faults.iter().any(|r| !r.recovered), "{name}: the exhaustion must be recorded");
        // Work finished on the victim *before* the exhaustion survives via
        // the checkpoint, but the re-planned final phase must avoid it.
        let runs = &trace(&result).runs;
        let last_phase = runs.iter().map(|r| r.phase).max().unwrap();
        assert!(
            runs.iter().filter(|r| r.phase == last_phase).all(|r| r.platform != victim.0),
            "{name}: re-planned phase still scheduled the blacklisted platform"
        );
    }
}

/// Persistent failure *inside a loop body* — SGD's, and the inner body of
/// the nested-loop plan, whose failover cut must exclude both loops in
/// flight: the failover checkpoint must restart the loop cleanly — same
/// final answer, and no loop iteration double-counted in the effective
/// stage runs (the learner feeds on those).
#[test]
fn mid_loop_failover_replays_without_duplicate_iteration_accounting() {
    for (name, make) in [("sgd", sgd_plan as PlanFn), ("nested-loops", nested_loops_plan)] {
        let (expected, _) = baseline(make);
        // Find a stage of the innermost loop body — the engine stage that
        // runs most often — and the platform it ran on.
        let clean = run_sorted(&rheem::default_context(), make).unwrap().1;
        let runs_of = |stage| trace(&clean).runs.iter().filter(|r| r.stage == stage).count();
        let engine_runs = trace(&clean).runs.iter().filter(|r| r.platform != CONTROL.0);
        let most = engine_runs.map(|r| runs_of(r.stage)).max().unwrap();
        assert!(most > 1, "{name}: no engine stage iterates");
        let (loop_stage, victim) = first_engine_run(&clean, |r| runs_of(r.stage) == most);
        let mut ctx = rheem::default_context();
        ctx.config_mut().retry_budget = BUDGET;
        ctx.config_mut().fault_plan = Some(Arc::new(
            FaultPlan::none().with_rule(
                FaultRule::new(FaultKind::Transient)
                    .on_platform(victim)
                    .on_stage(loop_stage)
                    .failing(PERSISTENT),
            ),
        ));
        let (out, result) = run_sorted(&ctx, make).unwrap();
        assert_eq!(out, expected, "{name}: mid-loop failover changed the answer");
        assert!(result.metrics.failovers >= 1, "{name}: expected a mid-loop failover");
        assert_no_duplicate_iteration_accounting(&result, &format!("{name} mid-loop failover"));
        // Phase 1 ran the baseline plan until the loop stage exhausted its
        // budget; the failover restarts the loop from iteration 0 in a later
        // phase, so every phase-1 run of that stage was re-executed and must
        // be superseded — phases differ, so the check above cannot see them.
        let stale: Vec<bool> = trace(&result)
            .runs
            .iter()
            .filter(|r| r.phase == 1 && r.stage == loop_stage)
            .map(|r| r.superseded)
            .collect();
        assert!(!stale.is_empty(), "{name}: the loop stage must have run before the failover");
        assert!(stale.iter().all(|&s| s), "{name}: re-executed loop runs left live: {stale:?}");
    }
}

/// Seeded chaos over both workloads for the fixed CI seed matrix: survive
/// with the exact baseline answer or die typed; surviving runs keep the
/// trace's iteration accounting duplicate-free.
#[test]
fn seeded_chaos_on_wordcount_and_sgd_is_survivable_or_typed() {
    let mut survived = 0usize;
    let mut injected = 0usize;
    for seed in chaos_seeds() {
        for (name, make) in PLANS {
            let (expected, _) = baseline(make);
            let mut ctx = rheem::default_context();
            ctx.config_mut().chaos_seed = Some(seed);
            match run_sorted(&ctx, make) {
                Ok((out, result)) => {
                    assert_eq!(out, expected, "seed {seed:#x} on {name}: wrong answer");
                    assert_no_duplicate_iteration_accounting(&result, name);
                    injected += result.metrics.faults.len();
                    survived += 1;
                }
                // The fault that ended the job counts as injected.
                Err(RheemError::Fault(_) | RheemError::Exhausted(_)) => injected += 1,
                Err(RheemError::Optimizer(_)) => {}
                Err(other) => panic!("seed {seed:#x} on {name}: untyped error {other}"),
            }
        }
    }
    assert!(injected > 0, "seed matrix injected nothing");
    assert!(survived > 0, "seed matrix never survived a run");
}
