//! Set-up, the closed measurement loops, and the legs of the traced run.
//!
//! Everything here reaches the program through its user-facing API only:
//! `RheemContext::{execute, optimize, compile}`, `forced_platform`,
//! `config_mut().tracing`, `JobService::submit` / `JobHandle::wait`,
//! `ResultCache::{new, with_disk, clear, stats}`, `JobMetrics`, `JobTrace`,
//! `OptimizedPlan::stats` and the applications' plan builders.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use platform_postgres::{PgDatabase, PostgresPlatform};
use rheem_core::api::{JobResult, RheemContext};
use rheem_core::cache::{CacheStats, ResultCache};
use rheem_core::plan::{OperatorId, RheemPlan};
use rheem_core::platform::{ids, PlatformId};
use rheem_core::service::{JobService, ServiceConfig, TenantSpec};
use rheem_core::value::Value;

use crate::spans::Recorder;
use crate::stats::{approx_same, Digest};
use crate::workloads::{Inputs, Oracle, Shape, Workload};
use crate::Res;

/// Untimed jobs per job kind before measuring: the first is checked
/// against the oracle, the second lets lazy set-up and caches settle.
const WARMUP_ROUNDS: usize = 2;

/// The platform families of the per-layer table and the id forced for each.
pub const PLATFORM_FAMILIES: [(&str, PlatformId); 5] = [
    ("javastreams", ids::JAVA_STREAMS),
    ("spark", ids::SPARK),
    ("flink", ids::FLINK),
    ("postgres", ids::POSTGRES),
    ("graph", ids::GIRAPH),
];

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// How jobs reach the program: directly, or through the job service.
pub enum Driver {
    Direct(Box<RheemContext>),
    Service { svc: JobService, tenants: Vec<String> },
}

impl Driver {
    pub fn ctx(&self) -> &RheemContext {
        match self {
            Driver::Direct(ctx) => ctx,
            Driver::Service { svc, .. } => svc.context(),
        }
    }

    fn clients(&self) -> usize {
        match self {
            Driver::Direct(_) => 1,
            Driver::Service { tenants, .. } => tenants.len(),
        }
    }

    /// Name of the span around the call that runs a job.
    fn call_name(&self) -> &'static str {
        match self {
            Driver::Direct(_) => "context.execute",
            Driver::Service { .. } => "service.submit_wait",
        }
    }

    fn execute(&self, client: usize, plan: RheemPlan) -> rheem_core::error::Result<JobResult> {
        match self {
            Driver::Direct(ctx) => ctx.execute(&plan),
            Driver::Service { svc, tenants } => svc.submit(&tenants[client], plan)?.wait(),
        }
    }
}

/// Program configuration a driver deviates from the defaults by.
#[derive(Clone, Default)]
pub struct Opts {
    /// `config.tracing = false` (the telemetry leg); default leaves it on.
    pub no_tracing: bool,
    pub forced: Option<PlatformId>,
    pub cache: Option<Arc<ResultCache>>,
}

/// A context with every platform of the paper's Fig. 5 registered and the
/// program's configuration at its defaults, except for `opts`. The result
/// cache is whatever `opts.cache` says: the environment cannot turn it on.
fn context(db: &Arc<PgDatabase>, opts: &Opts) -> RheemContext {
    let mut ctx = RheemContext::new()
        .with_platform(&platform_javastreams::JavaStreamsPlatform::new())
        .with_platform(&platform_spark::SparkPlatform::new())
        .with_platform(&platform_flink::FlinkPlatform::new())
        .with_platform(&PostgresPlatform::new(Arc::clone(db)))
        .with_platform(&platform_graph::GiraphPlatform::new())
        .with_platform(&platform_graph::JGraphPlatform::new())
        .with_platform(&platform_graph::GraphChiPlatform::new());
    ctx.set_cache(opts.cache.clone());
    ctx.forced_platform = opts.forced;
    if opts.no_tracing {
        ctx.config_mut().tracing = false;
    }
    ctx
}

fn driver(shape: Shape, db: &Arc<PgDatabase>, opts: &Opts) -> Res<Driver> {
    let ctx = context(db, opts);
    Ok(match shape {
        Shape::Service { tenants, runners } => {
            let tenants: Vec<String> = (0..tenants).map(|t| format!("t{t}")).collect();
            let specs = tenants.iter().map(|t| TenantSpec::new(t)).collect();
            let config = ServiceConfig { runners, ..ServiceConfig::default() };
            Driver::Service { svc: JobService::new(ctx, config, specs)?, tenants }
        }
        Shape::Single | Shape::Session { .. } => Driver::Direct(Box::new(ctx)),
    })
}

/// What a finished, correct job reported about itself.
#[derive(Clone, Debug)]
pub struct Facts {
    pub virtual_ms: f64,
    pub real_ms: f64,
    pub replans: u32,
    pub retries: u32,
    pub stage_runs: u64,
    pub operators_run: u64,
    pub tuples_out: u64,
}

impl Facts {
    fn of(result: &JobResult) -> Self {
        let m = &result.metrics;
        let (mut stage_runs, mut operators_run, mut tuples_out) = (0, 0, 0);
        if let Some(trace) = &result.trace {
            stage_runs = trace.runs.iter().filter(|r| !r.superseded).count() as u64;
            for p in trace.profiles_effective().filter(|p| !p.is_pseudo()) {
                operators_run += 1;
                tuples_out += p.tuples_out;
            }
        }
        Facts {
            virtual_ms: m.virtual_ms,
            real_ms: m.real_ms,
            replans: m.replans,
            retries: m.retries,
            stage_runs,
            operators_run,
            tuples_out,
        }
    }
}

/// One timed job. `facts` is `None` when the job returned an error, was
/// refused at admission or produced a wrong sink: it then counts as failed
/// and contributes no latency sample.
#[derive(Clone, Debug)]
pub struct Sample {
    pub job: u64,
    pub kind: usize,
    /// A session job that ran against a just-cleared cache.
    pub cold: bool,
    pub wall_ms: f64,
    pub facts: Option<Facts>,
}

/// What replaying `optimize` and `compile` on a job's plan showed.
#[derive(Clone, Debug)]
pub struct Replay {
    pub kind: usize,
    pub cold: bool,
    pub candidates: usize,
    pub partials_created: usize,
    pub partials_pruned: usize,
    pub stages: usize,
    pub nodes: usize,
    pub platforms: usize,
}

/// The outcome of one measured stretch.
#[derive(Default)]
pub struct Leg {
    pub samples: Vec<Sample>,
    /// Seconds from the first job's start until the last client stopped:
    /// the jobs and, between them, the clients checking and freeing results
    /// (and the replays, when asked for).
    pub elapsed_s: f64,
    /// Cache counter deltas (gauges as of the end) of each session cycle.
    pub cycles: Vec<CacheStats>,
    pub replays: Vec<Replay>,
}

impl Leg {
    fn absorb(&mut self, other: Leg) {
        self.samples.extend(other.samples);
        self.elapsed_s += other.elapsed_s;
        self.cycles.extend(other.cycles);
        self.replays.extend(other.replays);
    }

    /// Wall ms of the correct jobs of one class (`cold` only ever matches
    /// session jobs).
    pub fn walls(&self, cold: bool) -> Vec<f64> {
        self.ok(cold).map(|(s, _)| s.wall_ms).collect()
    }

    pub fn ok(&self, cold: bool) -> impl Iterator<Item = (&Sample, &Facts)> {
        self.samples
            .iter()
            .filter(move |s| s.cold == cold)
            .filter_map(|s| s.facts.as_ref().map(|f| (s, f)))
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.facts.is_none()).count()
    }
}

fn delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        inserts: after.inserts - before.inserts,
        evictions: after.evictions - before.evictions,
        spills: after.spills - before.spills,
        promotions: after.promotions - before.promotions,
        ..*after
    }
}

/// One forced-platform (or free-choice, cache-off) run of a job kind.
pub struct Forced {
    pub kind: usize,
    /// `None` is the optimizer's free choice.
    pub family: Option<&'static str>,
    /// `None` when the platform cannot run the job alone.
    pub facts: Option<Facts>,
}

/// A workload after set-up: inputs generated and placed, the default
/// driver built and warmed, every job kind checked against its oracle.
pub struct Env {
    pub shape: Shape,
    pub inputs: Inputs,
    pub cache: Option<Arc<ResultCache>>,
    pub driver: Driver,
    /// Digest every timed job of a kind must reproduce.
    expect: Vec<Digest>,
    /// Platforms the optimizer chose per job kind in the warm-up.
    pub chosen: Vec<String>,
    next_job: AtomicU64,
}

impl Env {
    /// Set a workload up from nothing: wipe and re-point the HDFS sandbox
    /// (so generation is always paid), generate and place the inputs, build
    /// the driver, run the warm-up jobs and check them against the oracles.
    pub fn set_up(w: &Workload, seed: u64, scale: usize, hdfs_root: &Path) -> Res<Env> {
        if hdfs_root.exists() {
            std::fs::remove_dir_all(hdfs_root)?;
        }
        std::fs::create_dir_all(hdfs_root)?;
        rheem_storage::set_hdfs_root(hdfs_root);

        let shape = w.shape_at(scale);
        let inputs = w.generate(seed, scale)?;
        let cache = match shape {
            Shape::Session { mem_bytes, disk_bytes: 0, .. } => Some(ResultCache::new(mem_bytes)),
            Shape::Session { mem_bytes, disk_bytes, .. } => {
                Some(ResultCache::with_disk(mem_bytes, disk_bytes))
            }
            Shape::Single | Shape::Service { .. } => None,
        }
        .map(Arc::new);
        let driver = driver(shape, &inputs.db, &Opts { cache: cache.clone(), ..Opts::default() })?;
        let mut env = Env {
            shape,
            inputs,
            cache,
            driver,
            expect: Vec::new(),
            chosen: Vec::new(),
            next_job: AtomicU64::new(0),
        };
        for kind in 0..env.inputs.kinds.len() {
            let (result, sink) = env.execute(&env.driver, 0, kind)?;
            let rows = result.sink(sink)?;
            env.check(kind, rows)?;
            env.expect.push(Digest::of(rows));
            env.chosen.push(platform_names(&result.metrics.platforms));
        }
        for _ in 1..WARMUP_ROUNDS {
            for kind in 0..env.inputs.kinds.len() {
                let sample = env.run_job(&env.driver, 0, kind, false, &Recorder::new(false));
                if sample.facts.is_none() {
                    return Err(
                        format!("warm-up job {} failed", env.inputs.kinds[kind].name).into()
                    );
                }
            }
        }
        if let Some(cache) = &env.cache {
            cache.clear();
        }
        Ok(env)
    }

    /// Check a warm-up sink against the job kind's oracle.
    fn check(&self, kind: usize, rows: &[Value]) -> Res<()> {
        let k = &self.inputs.kinds[kind];
        let ok = match &k.oracle {
            Oracle::Exact(digest) => Digest::of(rows) == *digest,
            Oracle::Approx(expected) => approx_same(rows, expected),
            Oracle::Property(holds) => {
                let opts = Opts { forced: Some(ids::JAVA_STREAMS), ..Opts::default() };
                let reference = Driver::Direct(Box::new(context(&self.inputs.db, &opts)));
                let (result, sink) = self.execute(&reference, 0, kind)?;
                holds(rows) && approx_same(rows, result.sink(sink)?)
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("set-up: sink of {} disagrees with its oracle", k.name).into())
        }
    }

    /// Build and run one job, untimed.
    fn execute(&self, driver: &Driver, client: usize, kind: usize) -> Res<(JobResult, OperatorId)> {
        let (plan, sink) = (self.inputs.kinds[kind].build)()?;
        Ok((driver.execute(client, plan)?, sink))
    }

    /// One timed job: build the plan, run it, stop the clock, then compare
    /// the sink's digest with the checked warm-up run.
    fn run_job(
        &self,
        driver: &Driver,
        client: usize,
        kind: usize,
        cold: bool,
        rec: &Recorder,
    ) -> Sample {
        let job = self.next_job.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let span = rec.begin("job", job, None);
        let build = rec.begin("plan.build", job, span);
        let built = (self.inputs.kinds[kind].build)();
        rec.end(build);
        let outcome = built.and_then(|(plan, sink)| {
            let call = rec.begin(driver.call_name(), job, span);
            let result = driver.execute(client, plan);
            rec.end(call);
            Ok((result?, sink))
        });
        rec.end(span);
        let wall_ms = ms_since(t0);

        let facts = outcome.ok().and_then(|(result, sink)| {
            let rows = result.sink(sink).ok()?;
            (Digest::of(rows) == self.expect[kind]).then(|| Facts::of(&result))
        });
        Sample { job, kind, cold, wall_ms, facts }
    }

    /// Replay `optimize`, `compile` and `optimize` again on the plan of a
    /// job that just ran, one span each. The first call is as cold as the
    /// one inside the job was; `compile` optimizes again before it builds
    /// the execution plan, so `execplan.build_ms` is `compile` minus the
    /// second, equally warm, `optimize`.
    fn replay(&self, ctx: &RheemContext, sample: &Sample, rec: &Recorder) -> Res<Replay> {
        let (plan, _) = (self.inputs.kinds[sample.kind].build)()?;
        let span = rec.begin("replay", sample.job, None);
        let s = rec.begin("optimizer.optimize", sample.job, span);
        let optimized = ctx.optimize(&plan);
        rec.end(s);
        let s = rec.begin("context.compile", sample.job, span);
        let compiled = ctx.compile(&plan);
        rec.end(s);
        let s = rec.begin("optimizer.reoptimize", sample.job, span);
        let again = ctx.optimize(&plan);
        rec.end(s);
        rec.end(span);
        again?;
        let (stats, (_, eplan)) = (optimized?.stats, compiled?);
        Ok(Replay {
            kind: sample.kind,
            cold: sample.cold,
            candidates: stats.candidates,
            partials_created: stats.partials_created,
            partials_pruned: stats.partials_pruned,
            stages: eplan.stages.len(),
            nodes: eplan.nodes.len(),
            platforms: eplan.platforms().len(),
        })
    }

    /// The workload's closed loop against `driver` for about `seconds`: at
    /// least one job per client or one session cycle, and whatever is in
    /// flight at the deadline completes. With `replay`, each job's plan is
    /// re-optimized and re-compiled after it.
    pub fn measure(&self, driver: &Driver, seconds: f64, rec: &Recorder, replay: bool) -> Res<Leg> {
        let kinds = self.inputs.kinds.len();
        let start = Instant::now();
        let running = || start.elapsed().as_secs_f64() < seconds;
        let mut leg = Leg::default();
        let after = |leg: &mut Leg, sample: Sample| -> Res<()> {
            if replay {
                leg.replays.push(self.replay(driver.ctx(), &sample, rec)?);
            }
            leg.samples.push(sample);
            Ok(())
        };
        match self.shape {
            Shape::Single => {
                for i in 0.. {
                    if i > 0 && !running() {
                        break;
                    }
                    after(&mut leg, self.run_job(driver, 0, i % kinds, false, rec))?;
                }
            }
            Shape::Session { warm_passes, .. } => {
                let cache = self.cache.as_ref().expect("a session has a cache");
                let mut last_cycle_s = 0.0;
                // Whole cycles only, so per-cycle counts are exact; stop
                // when the next one would overrun.
                while leg.cycles.is_empty()
                    || start.elapsed().as_secs_f64() + last_cycle_s <= seconds
                {
                    let t0 = Instant::now();
                    let before = cache.stats();
                    cache.clear();
                    for pass in 0..=warm_passes {
                        for kind in 0..kinds {
                            after(&mut leg, self.run_job(driver, 0, kind, pass == 0, rec))?;
                        }
                    }
                    leg.cycles.push(delta(&before, &cache.stats()));
                    last_cycle_s = t0.elapsed().as_secs_f64();
                }
            }
            Shape::Service { .. } => {
                // One closed-loop client per tenant; clients only block in
                // `JobHandle::wait`, the runners do the work.
                let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
                    let clients: Vec<_> = (0..driver.clients())
                        .map(|c| {
                            s.spawn(move || {
                                let mut out = Vec::new();
                                for j in 0.. {
                                    if j > 0 && !running() {
                                        break;
                                    }
                                    out.push(self.run_job(driver, c, (c + j) % kinds, false, rec));
                                }
                                out
                            })
                        })
                        .collect();
                    clients.into_iter().map(|c| c.join().expect("a client panicked")).collect()
                });
                leg.samples = per_client.into_iter().flatten().collect();
            }
        }
        leg.elapsed_s = start.elapsed().as_secs_f64();
        // Replaying inside concurrent clients would load the runners they
        // are timing: the service replays afterwards, on an idle service.
        if replay && matches!(self.shape, Shape::Service { .. }) {
            for kind in 0..kinds {
                for sample in leg.samples.iter().filter(|s| s.kind == kind).take(10) {
                    leg.replays.push(self.replay(driver.ctx(), sample, rec)?);
                }
            }
        }
        Ok(leg)
    }

    /// Alternate `slices` stretches between two drivers, so drift affects
    /// both alike; returns their merged legs.
    pub fn alternate(
        &self,
        a: &Driver,
        b: &Driver,
        slices: usize,
        seconds: f64,
    ) -> Res<(Leg, Leg)> {
        let off = Recorder::new(false);
        let (mut leg_a, mut leg_b) = (Leg::default(), Leg::default());
        for _ in 0..slices {
            leg_a.absorb(self.measure(a, seconds, &off, false)?);
            leg_b.absorb(self.measure(b, seconds, &off, false)?);
        }
        Ok((leg_a, leg_b))
    }

    /// A second driver over the same inputs (and the same cache handle).
    pub fn driver_with(&self, shape: Shape, no_tracing: bool) -> Res<Driver> {
        let opts = Opts { no_tracing, cache: self.cache.clone(), ..Opts::default() };
        driver(shape, &self.inputs.db, &opts)
    }

    /// Job kinds with distinct plans: a session's kinds are one plan over
    /// different corpora, so one stands for all.
    pub fn distinct_kinds(&self) -> std::ops::Range<usize> {
        match self.shape {
            Shape::Session { .. } => 0..1,
            _ => 0..self.inputs.kinds.len(),
        }
    }

    /// Each distinct job kind under the optimizer's free choice and forced
    /// onto each platform family, cache off, called directly. A platform
    /// that cannot run a job alone yields `facts: None`.
    pub fn forced_runs(&self) -> Vec<Forced> {
        let mut out = Vec::new();
        let families = std::iter::once(None).chain(PLATFORM_FAMILIES.iter().map(Some));
        for family in families {
            let opts = Opts { forced: family.map(|f| f.1), ..Opts::default() };
            let forced = Driver::Direct(Box::new(context(&self.inputs.db, &opts)));
            for kind in self.distinct_kinds() {
                // Twice: the first run on a fresh context pays lazy set-up
                // that is a visible share of a short job.
                let run = || self.execute(&forced, 0, kind).ok().map(|(r, _)| Facts::of(&r));
                let facts = run().and_then(|_| run());
                out.push(Forced { kind, family: family.map(|f| f.0), facts });
            }
        }
        out
    }
}

fn platform_names(platforms: &[PlatformId]) -> String {
    let names: Vec<&str> = platforms.iter().map(|p| p.0).collect();
    if names.is_empty() {
        "none".to_string()
    } else {
        names.join("+")
    }
}
