//! Multi-tenant job service: concurrent submissions on one context.
//!
//! The paper pitches cross-platform processing as a *shared service* many
//! applications submit jobs to (the RHEEM system papers describe exactly
//! that deployment shape). [`JobService`] wraps one [`RheemContext`] behind
//! a submission queue and a pool of runner threads:
//!
//! - **Admission control**: a global in-flight cap plus per-tenant caps;
//!   saturation surfaces as the typed [`RheemError::Rejected`] so clients
//!   can distinguish back-pressure from execution failures.
//! - **Fair-share scheduling**: a free runner picks the next queued job by
//!   weighted virtual-time fair queueing ([`FairShare`]): the backlogged
//!   tenant with the smallest served-virtual-time-over-weight goes first,
//!   with a seeded deterministic tie-break, and is charged the job's
//!   virtual time. A tenant that was idle re-enters at the backlogged
//!   minimum, so past idleness is not a claim on the future and no
//!   backlogged tenant starves. This pick is the one place weights act: a
//!   started job's stages go to the shared worker pool in FIFO order.
//! - **Cache isolation**: every tenant publishes into its own
//!   [`Namespace`] on the shared [`crate::cache::ResultCache`], bounded by
//!   an optional byte quota; reads fall back to the shared namespace for
//!   public datasets when the tenant opts in.
//! - **Attribution**: each job's [`crate::api::JobMetrics`] count only its
//!   own run, its trace's job span carries a `tenant` attribute, and the
//!   context's Prometheus snapshot has tenant-labelled counters and gauges.
//! - **Observability**: every finished or rejected job leaves one
//!   [`JobRecord`] (phase millis, outcome, retries, straggler verdicts) in
//!   a ring of the last [`obs::RING_LEN`] ([`JobService::records`]); the
//!   per-tenant SLO phase histograms ([`crate::obs::slo`]) are observed
//!   from it. A [`Watchdog`] checks every completed job's trace for
//!   straggler stages and sweeps for starvation and cache thrash on a
//!   virtual-time cadence, and [`JobService::serve`] (or the
//!   `RHEEM_OBS_ADDR` env var) exposes it all over a dependency-free TCP
//!   scrape endpoint ([`crate::obs::http`]).
//!
//! Per-job results stay byte-identical to an isolated run of the same plan
//! because the executor's commit-in-order design makes results and traces
//! independent of *when* stages physically execute — the runner pick only
//! reorders wall-clock work, never virtual-time accounting. A job that
//! panics fails with a typed [`RheemError::Execution`]; its runner lives on.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::api::{JobResult, JobScope, RheemContext};
use crate::cache::Namespace;
use crate::error::{Result, RheemError};
use crate::kernels::SplitMix64;
use crate::obs::{
    self, Diagnosis, ObsServer, ObsSource, TenantState, Watchdog, WatchdogConfig, WatchdogSnapshot,
};
use crate::plan::RheemPlan;
use crate::trace::{json_f64, json_string};

// ---------------------------------------------------------------------------
// Fair-share policy
// ---------------------------------------------------------------------------

/// Weighted virtual-time fair queueing over a fixed set of tenants.
///
/// Every grant charges `cost / weight` to the tenant's virtual time; the
/// next grant goes to the backlogged tenant with the smallest virtual time.
/// Ties break by a seeded per-tenant rank (then index), so the schedule is
/// a pure function of `(seed, arrival sequence, costs)` — differential
/// tests can assert it. While a set of tenants stays backlogged, any two of
/// them are served within one grant granularity of their weight ratio (the
/// classic start-time fair queueing bound).
#[derive(Clone, Debug)]
pub struct FairShare {
    weights: Vec<f64>,
    vtime: Vec<f64>,
    tie: Vec<u64>,
    seed: u64,
}

impl FairShare {
    /// Empty policy with a tie-break seed.
    pub fn new(seed: u64) -> Self {
        Self { weights: Vec::new(), vtime: Vec::new(), tie: Vec::new(), seed }
    }

    /// Register a tenant; returns its index. `weight` is clamped positive.
    pub fn add_tenant(&mut self, name: &str, weight: f64) -> usize {
        let idx = self.weights.len();
        self.weights.push(weight.max(1e-9));
        self.vtime.push(0.0);
        let mut h = 0xcbf29ce484222325u64; // FNV-1a over the name
        for b in name.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
        }
        self.tie.push(SplitMix64(self.seed ^ h).next_u64());
        idx
    }

    /// The backlogged tenant to serve next: minimum normalized virtual
    /// time, seeded tie-break, then index. `None` when `ready` is empty.
    pub fn pick(&self, ready: &[usize]) -> Option<usize> {
        ready.iter().copied().min_by(|&a, &b| {
            self.vtime[a]
                .total_cmp(&self.vtime[b])
                .then(self.tie[a].cmp(&self.tie[b]))
                .then(a.cmp(&b))
        })
    }

    /// Charge a served grant: `cost` virtual ms normalized by weight.
    pub fn charge(&mut self, tenant: usize, cost: f64) {
        self.vtime[tenant] += cost.max(0.0) / self.weights[tenant];
    }

    /// A tenant transitioned idle → backlogged: raise its virtual time to
    /// the minimum over the *other* backlogged tenants, so idle periods do
    /// not accrue credit it could later spend to monopolize the service.
    pub fn activate(&mut self, tenant: usize, backlogged: &[usize]) {
        let floor = backlogged
            .iter()
            .copied()
            .filter(|&t| t != tenant)
            .map(|t| self.vtime[t])
            .fold(f64::INFINITY, f64::min);
        if floor.is_finite() {
            self.vtime[tenant] = self.vtime[tenant].max(floor);
        }
    }

    /// Current normalized virtual time of a tenant.
    pub fn vtime(&self, tenant: usize) -> f64 {
        self.vtime[tenant]
    }

    /// Configured weight of a tenant.
    pub fn weight(&self, tenant: usize) -> f64 {
        self.weights[tenant]
    }
}

// ---------------------------------------------------------------------------
// The job service
// ---------------------------------------------------------------------------

/// One tenant of a [`JobService`].
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Unique tenant name (labels metrics; derives the cache namespace).
    pub name: String,
    /// Fair-share weight (relative service rate while backlogged).
    pub weight: f64,
    /// Max jobs this tenant may have admitted (queued + running) at once.
    pub max_in_flight: usize,
    /// Byte quota for the tenant's cache namespace (`None` = unquoted).
    /// The quota spans both storage tiers: spilling an entry to disk does
    /// not free quota, only eviction does.
    pub cache_quota_bytes: Option<u64>,
    /// Whether cache lookups fall back to the shared namespace (public
    /// datasets). Publishes always go to the tenant's own namespace.
    pub share_cache: bool,
}

impl TenantSpec {
    /// A tenant with weight 1, in-flight cap 8, no quota, no shared reads.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            weight: 1.0,
            max_in_flight: 8,
            cache_quota_bytes: None,
            share_cache: false,
        }
    }

    /// Set the fair-share weight (builder style).
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Set the per-tenant in-flight cap (builder style).
    pub fn with_max_in_flight(mut self, cap: usize) -> Self {
        self.max_in_flight = cap;
        self
    }

    /// Set a cache byte quota (builder style).
    pub fn with_cache_quota(mut self, bytes: u64) -> Self {
        self.cache_quota_bytes = Some(bytes);
        self
    }

    /// Allow shared-namespace cache reads (builder style).
    pub fn with_shared_cache_reads(mut self, on: bool) -> Self {
        self.share_cache = on;
        self
    }

    /// The cache namespace this tenant publishes into.
    pub fn namespace(&self) -> Namespace {
        Namespace::tenant(&self.name)
    }
}

/// Service-level configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Global admission cap: jobs admitted (queued + running) at once.
    pub max_in_flight: usize,
    /// Runner threads executing jobs.
    pub runners: usize,
    /// Seed for the fair-share tie-breaks of the runners' job pick.
    pub seed: u64,
    /// Watchdog thresholds (starvation / straggler / cache-thrash sweeps).
    pub watchdog: WatchdogConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { max_in_flight: 64, runners: 4, seed: 0xC0FFEE, watchdog: WatchdogConfig::default() }
    }
}

/// Handle onto one submitted job.
pub struct JobHandle {
    /// Service-assigned job id (monotonic per service).
    pub id: u64,
    /// Owning tenant's name.
    pub tenant: String,
    rx: mpsc::Receiver<Result<JobResult>>,
}

impl JobHandle {
    /// Block until the job completes; returns its result.
    pub fn wait(self) -> Result<JobResult> {
        self.rx.recv().map_err(|_| {
            RheemError::Execution("job service shut down before the job completed".into())
        })?
    }
}

/// How a job the service saw ended.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// The job returned its result.
    Completed,
    /// The job failed or panicked; the message names the cause.
    Failed(String),
    /// Admission control refused the submission; the reason says why.
    Rejected(String),
}

/// The service's one record of a job: written once, when the job finishes
/// or its submission is refused, into the ring [`JobService::records`]
/// returns and `/flight` and `/jobs` serve. The SLO phase histograms are
/// observed from it. Admission, queue and commit are wall ms of service
/// overhead; execution is the job's virtual ms.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The tenant the job was submitted for.
    pub tenant: String,
    /// Service job id; `None` for a rejected submission.
    pub job: Option<u64>,
    /// Wall ms spent in admission control at submit time.
    pub admission_ms: f64,
    /// Wall ms spent queued before a runner picked the job.
    pub queue_ms: f64,
    /// Virtual ms of modeled execution (0 unless completed).
    pub exec_ms: f64,
    /// Wall ms spent committing the result (bookkeeping + hand-off).
    pub commit_ms: f64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Retries the job absorbed ([`crate::api::JobMetrics::retries`]).
    pub retries: u32,
    /// The watchdog's straggler verdicts on the job's stage runs.
    pub stragglers: Vec<Diagnosis>,
}

impl JobRecord {
    /// Append this record as a JSON object to `out`.
    fn write_json(&self, out: &mut String) {
        let (outcome, detail) = match &self.outcome {
            JobOutcome::Completed => ("completed", ""),
            JobOutcome::Failed(msg) => ("failed", msg.as_str()),
            JobOutcome::Rejected(reason) => ("rejected", reason.as_str()),
        };
        out.push_str("{\"tenant\":");
        json_string(out, &self.tenant);
        match self.job {
            Some(id) => out.push_str(&format!(",\"job\":{id}")),
            None => out.push_str(",\"job\":null"),
        }
        out.push_str(&format!(",\"outcome\":\"{outcome}\",\"detail\":"));
        json_string(out, detail);
        out.push_str(&format!(
            ",\"admission_ms\":{},\"queue_ms\":{},\"exec_ms\":{},\"commit_ms\":{},\"retries\":{},\"stragglers\":",
            json_f64(self.admission_ms),
            json_f64(self.queue_ms),
            json_f64(self.exec_ms),
            json_f64(self.commit_ms),
            self.retries,
        ));
        obs::json_tail(out, self.stragglers.iter(), usize::MAX, Diagnosis::write_json);
        out.push('}');
    }
}

struct Queued {
    id: u64,
    plan: RheemPlan,
    tx: mpsc::Sender<Result<JobResult>>,
    /// When admission completed (queue-wait starts here).
    admitted_at: Instant,
    /// Wall ms spent in admission control at submit time.
    admission_ms: f64,
}

struct SvcState {
    queues: Vec<VecDeque<Queued>>,
    fair: FairShare,
    in_flight: Vec<usize>,
    total_in_flight: usize,
    next_id: u64,
    shutdown: bool,
    /// Jobs completed so far (successfully or not).
    completed: u64,
    /// The last [`obs::RING_LEN`] job records, oldest first.
    records: VecDeque<JobRecord>,
}

struct SvcInner {
    ctx: RheemContext,
    tenants: Vec<TenantSpec>,
    state: Mutex<SvcState>,
    work: Condvar,
    watchdog: Watchdog,
}

/// The message a panic was raised with, when it carries a string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

impl SvcInner {
    fn scope_for(&self, tenant: usize) -> JobScope {
        let spec = &self.tenants[tenant];
        JobScope {
            tenant: Some(spec.name.clone()),
            cache_ns: spec.namespace(),
            cache_shared_read: spec.share_cache,
        }
    }

    /// Scheduler state for a watchdog sweep. Caller holds the state lock.
    fn watchdog_snapshot(&self, st: &SvcState) -> WatchdogSnapshot {
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let queued = st.queues[i].len();
                TenantState {
                    name: spec.name.clone(),
                    vtime: st.fair.vtime(i),
                    queued,
                    running: st.in_flight[i].saturating_sub(queued),
                }
            })
            .collect();
        let cache = self.ctx.cache().map(|c| c.stats());
        WatchdogSnapshot { tenants, cache }
    }

    fn runner_loop(self: &Arc<Self>) {
        loop {
            let (tenant, job) = {
                let mut st = self.state.lock().unwrap();
                loop {
                    let ready: Vec<usize> =
                        (0..st.queues.len()).filter(|&t| !st.queues[t].is_empty()).collect();
                    if let Some(t) = st.fair.pick(&ready) {
                        let job = st.queues[t].pop_front().expect("picked tenant has work");
                        break (t, job);
                    }
                    if st.shutdown {
                        return;
                    }
                    st = self.work.wait(st).unwrap();
                }
            };
            let tname = &self.tenants[tenant].name;
            let queue_ms = job.admitted_at.elapsed().as_secs_f64() * 1e3;
            let scope = self.scope_for(tenant);
            // A panicking UDF must fail its job, not unwind the runner: a
            // dead runner would leak the job's admission slot and strand
            // every job queued behind it.
            let result =
                catch_unwind(AssertUnwindSafe(|| self.ctx.execute_scoped(&job.plan, &scope)))
                    .unwrap_or_else(|p| {
                        Err(RheemError::Execution(format!(
                            "job {} panicked: {}",
                            job.id,
                            panic_message(&*p)
                        )))
                    });
            let commit_t0 = Instant::now();
            let metrics = self.ctx.metrics();
            // Stragglers come from the finished job's own trace: a failed or
            // untraced job gets no straggler verdict.
            let (outcome, exec_ms, retries, stragglers) = match &result {
                Ok(r) => {
                    let stragglers = r.trace.as_ref().map_or_else(Vec::new, |t| {
                        self.watchdog.check_job(Some(tname), job.id, &t.runs, metrics)
                    });
                    (JobOutcome::Completed, r.metrics.virtual_ms, r.metrics.retries, stragglers)
                }
                Err(e) => (JobOutcome::Failed(e.to_string()), 0.0, 0, Vec::new()),
            };
            // Charge the served job at its virtual cost so the next pick
            // reflects actual consumption (failed jobs charge a token
            // amount — admission work isn't free either).
            let cost = if result.is_ok() { exec_ms } else { 1.0 };
            let mut record = JobRecord {
                tenant: tname.clone(),
                job: Some(job.id),
                admission_ms: job.admission_ms,
                queue_ms,
                exec_ms,
                commit_ms: 0.0,
                outcome,
                retries,
                stragglers,
            };
            let (in_flight_now, vtime_now, sweep) = {
                let mut st = self.state.lock().unwrap();
                st.fair.charge(tenant, cost);
                st.in_flight[tenant] -= 1;
                st.total_in_flight -= 1;
                st.completed += 1;
                let due = self.watchdog.on_served(cost);
                let snap = due.then(|| self.watchdog_snapshot(&st));
                record.commit_ms = commit_t0.elapsed().as_secs_f64() * 1e3;
                obs::push_bounded(&mut st.records, record.clone());
                (st.in_flight[tenant], st.fair.vtime(tenant), snap)
            };
            // Wake runners (more queued work may be pickable) and any
            // submitter waiting on capacity semantics in tests.
            self.work.notify_all();
            // The registry has a lock of its own: feed it outside the state
            // lock, which submissions and the job pick wait on.
            obs::slo::observe_job(metrics, &record);
            metrics.set_gauge(&obs::slo::in_flight_key(tname), in_flight_now as f64);
            metrics.set_gauge(&obs::slo::vtime_key(tname), vtime_now);
            // Sweep outside the state lock: it must never hold up
            // submissions.
            if let Some(snap) = &sweep {
                self.watchdog.sweep(snap, metrics);
            }
            let _ = job.tx.send(result);
        }
    }
}

impl ObsSource for SvcInner {
    fn metrics_text(&self) -> String {
        self.ctx.metrics().snapshot_prometheus()
    }

    fn healthz_json(&self) -> String {
        let st = self.state.lock().unwrap();
        format!(
            "{{\"status\":\"ok\",\"tenants\":{},\"in_flight\":{},\"shutdown\":{}}}",
            self.tenants.len(),
            st.total_in_flight,
            st.shutdown,
        )
    }

    fn jobs_json(&self) -> String {
        let st = self.state.lock().unwrap();
        let queued: usize = st.queues.iter().map(|q| q.len()).sum();
        let mut out = format!(
            "{{\"in_flight\":{},\"queued\":{},\"completed\":{},\"recent_completions\":[",
            st.total_in_flight, queued, st.completed,
        );
        let completions = st.records.iter().filter_map(|r| r.job.map(|id| (id, &r.tenant)));
        for (i, (id, tenant)) in completions.enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"job\":{id},\"tenant\":"));
            json_string(&mut out, tenant);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    fn tenants_json(&self) -> String {
        let metrics = self.ctx.metrics();
        let st = self.state.lock().unwrap();
        let mut out = String::from("{\"tenants\":[");
        for (i, spec) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            crate::trace::json_string(&mut out, &spec.name);
            out.push_str(&format!(
                ",\"weight\":{},\"vtime\":{},\"queued\":{},\"in_flight\":{},\"slo\":{{",
                crate::trace::json_f64(spec.weight),
                crate::trace::json_f64(st.fair.vtime(i)),
                st.queues[i].len(),
                st.in_flight[i],
            ));
            for (j, phase) in obs::slo::PHASES.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(phase);
                out.push_str("\":");
                match obs::slo::phase_quantiles(metrics, &spec.name, phase) {
                    Some((p50, p99)) => out.push_str(&format!(
                        "{{\"p50_ms\":{},\"p99_ms\":{}}}",
                        crate::trace::json_f64(p50),
                        crate::trace::json_f64(p99),
                    )),
                    None => out.push_str("null"),
                }
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    fn flight_json(&self, n: usize) -> String {
        let mut out = String::from("{\"jobs\":");
        let st = self.state.lock().unwrap();
        obs::json_tail(&mut out, st.records.iter(), n, JobRecord::write_json);
        drop(st);
        out.push_str(",\"watchdog\":");
        obs::json_tail(&mut out, self.watchdog.recent().iter(), n, Diagnosis::write_json);
        out.push('}');
        out
    }
}

/// A long-running, multi-tenant job service over one [`RheemContext`].
/// See the module docs for the admission, fair-share and quota model.
pub struct JobService {
    inner: Arc<SvcInner>,
    runners: Vec<JoinHandle<()>>,
    cap: usize,
    obs: Mutex<Option<ObsServer>>,
}

impl JobService {
    /// Build a service over `ctx` for a fixed tenant set. Registers cache
    /// quotas on the context's result cache (when one is enabled) and
    /// spawns the runner threads.
    pub fn new(ctx: RheemContext, config: ServiceConfig, tenants: Vec<TenantSpec>) -> Result<Self> {
        if tenants.is_empty() {
            return Err(RheemError::Config("job service needs at least one tenant".into()));
        }
        for (i, t) in tenants.iter().enumerate() {
            if tenants[..i].iter().any(|o| o.name == t.name) {
                return Err(RheemError::Config(format!("duplicate tenant name: {}", t.name)));
            }
        }
        let runners = config.runners.max(1);
        let mut fair = FairShare::new(config.seed);
        for t in &tenants {
            fair.add_tenant(&t.name, t.weight);
        }
        if let Some(cache) = ctx.cache() {
            for t in &tenants {
                if let Some(q) = t.cache_quota_bytes {
                    cache.set_quota(t.namespace(), q);
                }
            }
        }
        let n = tenants.len();
        let inner = Arc::new(SvcInner {
            ctx,
            tenants,
            state: Mutex::new(SvcState {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                fair,
                in_flight: vec![0; n],
                total_in_flight: 0,
                next_id: 0,
                shutdown: false,
                completed: 0,
                records: VecDeque::with_capacity(obs::RING_LEN),
            }),
            work: Condvar::new(),
            watchdog: Watchdog::new(config.watchdog),
        });
        let mut handles = Vec::with_capacity(runners);
        for i in 0..runners {
            let inner = Arc::clone(&inner);
            let h = std::thread::Builder::new()
                .name(format!("rheem-svc-{i}"))
                .spawn(move || inner.runner_loop())
                .map_err(|e| RheemError::Execution(format!("spawn service runner: {e}")))?;
            handles.push(h);
        }
        let svc = Self {
            inner,
            runners: handles,
            cap: config.max_in_flight.max(1),
            obs: Mutex::new(None),
        };
        if let Ok(addr) = std::env::var("RHEEM_OBS_ADDR") {
            svc.serve(&addr)?;
        }
        Ok(svc)
    }

    /// Start the TCP scrape endpoint on `addr` (e.g. `127.0.0.1:0` for an
    /// ephemeral port); returns the bound address. Errors when already
    /// serving or when the bind fails. Also reachable via the
    /// `RHEEM_OBS_ADDR` env var at construction time.
    pub fn serve(&self, addr: &str) -> Result<SocketAddr> {
        let mut obs = self.obs.lock().unwrap();
        if obs.is_some() {
            return Err(RheemError::Obs("scrape endpoint is already serving".into()));
        }
        let server = ObsServer::bind(addr, Arc::clone(&self.inner) as Arc<dyn ObsSource>)?;
        let bound = server.addr();
        *obs = Some(server);
        Ok(bound)
    }

    /// The scrape endpoint's bound address, when serving.
    pub fn obs_addr(&self) -> Option<SocketAddr> {
        self.obs.lock().unwrap().as_ref().map(|s| s.addr())
    }

    /// Submit a job for `tenant`. Admission control applies *here*:
    /// saturation (global or per-tenant) returns [`RheemError::Rejected`]
    /// immediately instead of queueing unboundedly.
    pub fn submit(&self, tenant: &str, plan: RheemPlan) -> Result<JobHandle> {
        let t0 = Instant::now();
        let reject = |reason: String| {
            let record = JobRecord {
                tenant: tenant.to_string(),
                job: None,
                admission_ms: t0.elapsed().as_secs_f64() * 1e3,
                queue_ms: 0.0,
                exec_ms: 0.0,
                commit_ms: 0.0,
                outcome: JobOutcome::Rejected(reason.clone()),
                retries: 0,
                stragglers: Vec::new(),
            };
            obs::push_bounded(&mut self.inner.state.lock().unwrap().records, record);
            Err(RheemError::Rejected { tenant: tenant.to_string(), reason })
        };
        let Some(t) = self.inner.tenants.iter().position(|s| s.name == tenant) else {
            return reject("unknown tenant".into());
        };
        let (tx, rx) = mpsc::channel();
        let admitted: std::result::Result<u64, String> = {
            let mut st = self.inner.state.lock().unwrap();
            let cap = self.max_in_flight();
            let tcap = self.inner.tenants[t].max_in_flight;
            if st.shutdown {
                Err("service is shutting down".into())
            } else if st.total_in_flight >= cap {
                Err(format!("service saturated ({cap} jobs in flight)"))
            } else if st.in_flight[t] >= tcap {
                Err(format!("tenant saturated ({tcap} jobs in flight)"))
            } else {
                let id = st.next_id;
                st.next_id += 1;
                st.in_flight[t] += 1;
                st.total_in_flight += 1;
                if st.queues[t].is_empty() {
                    let backlogged: Vec<usize> =
                        (0..st.queues.len()).filter(|&o| !st.queues[o].is_empty()).collect();
                    st.fair.activate(t, &backlogged);
                }
                let admission_ms = t0.elapsed().as_secs_f64() * 1e3;
                st.queues[t].push_back(Queued {
                    id,
                    plan,
                    tx,
                    admitted_at: Instant::now(),
                    admission_ms,
                });
                Ok(id)
            }
        };
        let id = match admitted {
            Ok(id) => id,
            Err(reason) => return reject(reason),
        };
        self.inner.work.notify_all();
        Ok(JobHandle { id, tenant: tenant.to_string(), rx })
    }

    /// The global in-flight cap.
    fn max_in_flight(&self) -> usize {
        self.cap
    }

    /// The wrapped context (metrics, cache inspection).
    pub fn context(&self) -> &RheemContext {
        &self.inner.ctx
    }

    /// The records of the last [`obs::RING_LEN`] jobs that finished or were
    /// refused, in that order (also served at `/flight`; `/jobs` lists the
    /// finished ones and counts every job finished so far). The service
    /// keeps no longer log.
    pub fn records(&self) -> Vec<JobRecord> {
        self.inner.state.lock().unwrap().records.iter().cloned().collect()
    }

    /// Jobs admitted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.inner.state.lock().unwrap().total_in_flight
    }

    /// Stop accepting work, drain queued jobs, and join the runners.
    /// Called automatically on drop.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        // Stop the scrape endpoint first so no scrape races the teardown.
        *self.obs.lock().unwrap() = None;
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_share_respects_weights_and_ties_deterministically() {
        let mut f = FairShare::new(0xC0FFEE);
        let a = f.add_tenant("a", 2.0);
        let b = f.add_tenant("b", 1.0);
        // Serve 300 equal-cost grants with both tenants always backlogged:
        // tenant a (weight 2) should get ~2x the grants of tenant b.
        let mut grants = [0usize; 2];
        for _ in 0..300 {
            let t = f.pick(&[a, b]).unwrap();
            grants[t] += 1;
            f.charge(t, 1.0);
        }
        assert_eq!(grants[a], 200);
        assert_eq!(grants[b], 100);
        // Determinism: replay with the same seed gives the same schedule.
        let mut f2 = FairShare::new(0xC0FFEE);
        f2.add_tenant("a", 2.0);
        f2.add_tenant("b", 1.0);
        let mut replay = [0usize; 2];
        for _ in 0..300 {
            let t = f2.pick(&[0, 1]).unwrap();
            replay[t] += 1;
            f2.charge(t, 1.0);
        }
        assert_eq!(grants, replay);
    }

    #[test]
    fn activation_floors_idle_credit() {
        let mut f = FairShare::new(7);
        let a = f.add_tenant("a", 1.0);
        let b = f.add_tenant("b", 1.0);
        // Tenant a consumes 100 virtual ms while b is idle.
        for _ in 0..100 {
            f.charge(a, 1.0);
        }
        // b wakes up: without flooring it would monopolize the next 100
        // grants. Activation raises b to a's level.
        f.activate(b, &[a]);
        assert!((f.vtime(b) - f.vtime(a)).abs() < 1e-9);
        let mut grants = [0usize; 2];
        for _ in 0..100 {
            let t = f.pick(&[a, b]).unwrap();
            grants[t] += 1;
            f.charge(t, 1.0);
        }
        assert_eq!(grants[a], 50);
        assert_eq!(grants[b], 50);
    }
}
