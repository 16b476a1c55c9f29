//! The traced run: which layer the wall time of a job goes to, taken from
//! outside the program, with the harness's span recorder on.
//!
//! Legs, as shares of the run's seconds (forced-platform runs are counted, not
//! timed): 35 % alternating the default configuration with
//! `config.tracing = false` (recorder off: the untraced baseline and the
//! telemetry cost), 35 % traced jobs each followed by a replay of
//! `optimize`, `compile` and `optimize`, 10 % a serial service leg (service workload
//! only), then every distinct job kind forced onto each platform family.

use std::collections::HashMap;

use rheem_core::cache::CacheStats;

use crate::run::{Env, Forced, Leg, PLATFORM_FAMILIES};
use crate::schema::{Metric, Report, PER_LAYER};
use crate::spans::{durations_ms, Recorder, Span};
use crate::stats::p50;
use crate::workloads::Shape;
use crate::Res;

pub struct Traced {
    pub report: Report,
    pub spans: Vec<Span>,
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let v: Vec<f64> = values.collect();
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// Mean over the job kinds of each kind's first value: "per job, over one
/// round of the workload's job kinds". Exact when the counts repeat.
fn per_round<T>(items: &[T], kind: impl Fn(&T) -> usize, value: impl Fn(&T) -> f64) -> Option<f64> {
    let mut first: HashMap<usize, f64> = HashMap::new();
    for item in items {
        first.entry(kind(item)).or_insert_with(|| value(item));
    }
    mean(first.into_values())
}

/// `free virtual ms ÷ best forced virtual ms`, averaged over the job kinds
/// some single platform can run alone; 1 when none can (nothing to regret).
/// Below 1, the cross-platform plan beats every single platform.
fn choice_regret(forced: &[Forced]) -> f64 {
    let virtual_of = |f: &Forced| f.facts.as_ref().map(|x| x.virtual_ms);
    let kinds: Vec<usize> = forced.iter().filter(|f| f.family.is_none()).map(|f| f.kind).collect();
    let regrets = kinds.into_iter().filter_map(|kind| {
        let of_kind = || forced.iter().filter(move |f| f.kind == kind);
        let free = of_kind().find(|f| f.family.is_none()).and_then(virtual_of)?;
        let best = of_kind()
            .filter(|f| f.family.is_some())
            .filter_map(virtual_of)
            .min_by(f64::total_cmp)?;
        Some(free / best)
    });
    mean(regrets).unwrap_or(1.0)
}

pub fn run(workload: &'static str, env: &Env, seconds: f64) -> Res<Traced> {
    let no_tracing = env.driver_with(env.shape, true)?;
    let (on, off) = env.alternate(&env.driver, &no_tracing, 2, seconds * 0.0875)?;
    drop(no_tracing);

    let recorder = Recorder::new(true);
    let traced = env.measure(&env.driver, seconds * 0.35, &recorder, true)?;
    let spans = recorder.into_spans();

    let serial = match env.shape {
        Shape::Service { .. } => {
            let one = env.driver_with(Shape::Service { tenants: 1, runners: 1 }, false)?;
            Some(env.measure(&one, seconds * 0.1, &Recorder::new(false), false)?)
        }
        _ => None,
    };
    let forced = env.forced_runs();

    let legs: Vec<&Leg> = [&on, &off, &traced].into_iter().chain(&serial).collect();
    let attempted = legs.iter().map(|l| l.samples.len()).sum();
    let failed = legs.iter().map(|l| l.failed()).sum();

    // The job class every layer metric describes: session hits, else all.
    let (on_walls, off_walls) = (on.walls(false), off.walls(false));
    let untraced_p50 = p50(&on_walls);
    let traced_walls = traced.walls(false);
    let traced_p50 = p50(&traced_walls);
    let mut metrics = Vec::new();
    let mut add = |name: &str, value: Option<f64>, n: usize| {
        metrics.push(Metric::listed(&PER_LAYER, name, value, n));
    };
    let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?);

    // plan, optimizer, execplan: spans of the traced leg and its replays.
    let builds = durations_ms(&spans, "plan.build");
    add("plan.build_ms", p50(&builds), builds.len());
    let optimizes = durations_ms(&spans, "optimizer.optimize");
    let compiles = durations_ms(&spans, "context.compile");
    let optimize_ms = p50(&optimizes);
    add("optimizer.optimize_ms", optimize_ms, optimizes.len());
    add("optimizer.share_of_job", ratio(optimize_ms, untraced_p50), optimizes.len());
    let warm_replays: Vec<_> = traced.replays.iter().filter(|r| !r.cold).collect();
    let replayed = |value: fn(&crate::run::Replay) -> usize| {
        per_round(&warm_replays, |r| r.kind, |r| value(r) as f64)
    };
    let (created, pruned) = (replayed(|r| r.partials_created), replayed(|r| r.partials_pruned));
    add("optimizer.candidates", replayed(|r| r.candidates), warm_replays.len());
    add("optimizer.partials_created", created, warm_replays.len());
    add("optimizer.partials_pruned", pruned, warm_replays.len());
    add("optimizer.prune_ratio", ratio(pruned, created), warm_replays.len());
    add("optimizer.choice_regret", Some(choice_regret(&forced)), forced.len());
    // `compile` optimizes again before it builds the execution plan.
    let reoptimizes = durations_ms(&spans, "optimizer.reoptimize");
    let execplans: Vec<f64> = compiles.iter().zip(&reoptimizes).map(|(c, o)| c - o).collect();
    let execplan_ms = p50(&execplans);
    add("execplan.build_ms", execplan_ms, execplans.len());
    add("execplan.stages", replayed(|r| r.stages), warm_replays.len());
    add("execplan.nodes", replayed(|r| r.nodes), warm_replays.len());
    add("execplan.platforms", replayed(|r| r.platforms), warm_replays.len());

    // executor: the job's own report of the traced jobs.
    let jobs: Vec<_> = traced.ok(false).collect();
    let exec_ms = p50(&jobs.iter().map(|(_, f)| f.real_ms).collect::<Vec<_>>());
    let counted =
        |value: fn(&crate::run::Facts) -> f64| per_round(&jobs, |(s, _)| s.kind, |(_, f)| value(f));
    let stage_runs = counted(|f| f.stage_runs as f64);
    add("executor.exec_ms", exec_ms, jobs.len());
    add("executor.stage_runs", stage_runs, jobs.len());
    add("executor.operators_run", counted(|f| f.operators_run as f64), jobs.len());
    add("executor.tuples_out", counted(|f| f.tuples_out as f64), jobs.len());
    add("executor.replans", counted(|f| f.replans as f64), jobs.len());
    add("executor.retries", counted(|f| f.retries as f64), jobs.len());
    add("executor.us_per_stage_run", ratio(exec_ms.map(|ms| ms * 1e3), stage_runs), jobs.len());

    // telemetry: the same jobs with and without the program's own tracing.
    let telemetry_ms = untraced_p50.zip(p50(&off_walls)).map(|(on, off)| on - off);
    let pairs = on_walls.len().min(off_walls.len());
    add("telemetry.ms", telemetry_ms, pairs);
    add("telemetry.share_of_job", ratio(telemetry_ms, untraced_p50), pairs);

    // service: what a job's latency holds beyond the executor's own clock.
    let outside =
        |leg: &Leg| p50(&leg.ok(false).map(|(s, f)| s.wall_ms - f.real_ms).collect::<Vec<_>>());
    let outside_ms = outside(&on);
    add("service.outside_exec_ms", outside_ms, on_walls.len());

    // cache: counter deltas of the untraced cycles (replays also look up).
    let cycles = &on.cycles;
    let total = |value: fn(&CacheStats) -> u64| cycles.iter().map(value).sum::<u64>() as f64;
    let lookups = total(|c| c.hits) + total(|c| c.misses);
    let per_cycle =
        |value: fn(&CacheStats) -> u64| Some(cycles.first().map_or(0.0, |c| value(c) as f64));
    add(
        "cache.hit_ratio",
        Some(if lookups > 0.0 { total(|c| c.hits) / lookups } else { 0.0 }),
        cycles.len(),
    );
    add("cache.inserts", per_cycle(|c| c.inserts), cycles.len());
    add("cache.spills", per_cycle(|c| c.spills), cycles.len());
    add("cache.promotions", per_cycle(|c| c.promotions), cycles.len());
    add("cache.evictions", per_cycle(|c| c.evictions), cycles.len());
    add("cache.resident_bytes", per_cycle(|c| c.bytes), cycles.len());
    add("cache.spilled_bytes", per_cycle(|c| c.spilled_bytes), cycles.len());

    let attributed = optimize_ms.zip(execplan_ms).zip(exec_ms).map(|((o, e), x)| o + e + x);
    add(
        "residual_ms",
        traced_p50.zip(attributed).map(|(job, layers)| job - layers),
        traced_walls.len(),
    );
    add("trace_overhead_ratio", ratio(traced_p50, untraced_p50), traced_walls.len());
    add("process.peak_rss_mb", crate::peak_rss_mb(), 1);

    // Metrics that exist on some workloads only: printed, not listed.
    for (family, _) in PLATFORM_FAMILIES {
        let runs: Vec<f64> = forced
            .iter()
            .filter(|f| f.family == Some(family))
            .filter_map(|f| f.facts.as_ref().map(|x| x.real_ms))
            .collect();
        metrics.push(Metric::new(
            format!("platform-{family}.exec_ms"),
            mean(runs.iter().copied()),
            "ms",
            runs.len(),
        ));
    }
    if let Some(serial) = &serial {
        let queue_wait = outside_ms.zip(outside(serial)).map(|(mix, alone)| mix - alone);
        metrics.push(Metric::new(
            "service.queue_wait_ms",
            queue_wait,
            "ms",
            serial.walls(false).len(),
        ));
    }
    if !cycles.is_empty() {
        let warm_real: Vec<f64> = on.ok(false).map(|(_, f)| f.real_ms).collect();
        metrics.push(Metric::new("cache.replay_ms", p50(&warm_real), "ms", warm_real.len()));
        let virtual_p50 = |cold| p50(&on.ok(cold).map(|(_, f)| f.virtual_ms).collect::<Vec<_>>());
        let cold_walls = on.walls(true);
        let wall = ratio(untraced_p50, p50(&cold_walls));
        metrics.push(Metric::new("cache.warm_over_cold_wall", wall, "ratio", cold_walls.len()));
        let virt = ratio(virtual_p50(false), virtual_p50(true));
        metrics.push(Metric::new("cache.warm_over_cold_virtual", virt, "ratio", cold_walls.len()));
    }

    Ok(Traced { report: Report { workload, metrics, attempted, failed }, spans })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Facts;

    fn forced(kind: usize, family: Option<&'static str>, virtual_ms: Option<f64>) -> Forced {
        let facts = virtual_ms.map(|virtual_ms| Facts {
            virtual_ms,
            real_ms: 1.0,
            replans: 0,
            retries: 0,
            stage_runs: 1,
            operators_run: 1,
            tuples_out: 1,
        });
        Forced { kind, family, facts }
    }

    #[test]
    fn regret_compares_free_choice_with_the_best_single_platform() {
        let runs = vec![
            forced(0, None, Some(200.0)),
            forced(0, Some("spark"), Some(400.0)),
            forced(0, Some("flink"), Some(100.0)),
            forced(0, Some("postgres"), None),
            forced(1, None, Some(50.0)),
            forced(1, Some("postgres"), None), // no platform runs kind 1 alone
        ];
        assert_eq!(choice_regret(&runs), 2.0);
        assert_eq!(choice_regret(&runs[4..]), 1.0);
    }

    #[test]
    fn per_round_takes_each_kinds_first_value() {
        let items = [(0usize, 4.0), (1, 8.0), (0, 100.0), (2, 3.0)];
        assert_eq!(per_round(&items, |i| i.0, |i| i.1), Some(5.0));
        assert_eq!(per_round(&items[..0], |i| i.0, |i| i.1), None);
    }
}
