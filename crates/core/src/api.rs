//! The user-facing entry point: [`RheemContext`].
//!
//! Mirrors the paper's Fig. 5 flow: applications submit a Rheem plan (1);
//! the cross-platform optimizer compiles it into an execution plan (2); the
//! executor dispatches stages to the platform drivers (3); the job trace
//! collects statistics and the job's metrics carry the faults it handled
//! (4); and the progressive optimizer re-optimizes on cardinality
//! mismatches (5).
//!
//! A context keeps cumulative counts in its [`MetricsRegistry`] and no
//! per-job log: a job's faults and trace are on its [`JobResult`], and the
//! ring of job records belongs to [`crate::service::JobService`].

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::builtin::register_builtins;
use crate::cache::ResultCache;
use crate::cardinality::Estimator;
use crate::cost::{CostModel, Interval};
use crate::error::{Result, RheemError};
use crate::exec::VecStats;
use crate::execplan::{build_exec_plan, ExecPlan};
use crate::executor::{ExecConfig, ExplorationBuffer};
use crate::fault::FaultRecord;
use crate::learner::{samples_from_trace, StageSample};
use crate::metrics::MetricsRegistry;
use crate::monitor::{check_cardinality, Health};
use crate::optimizer::{OptimizedPlan, Optimizer};
use crate::plan::{OperatorId, RheemPlan};
use crate::platform::{Platform, PlatformId, Profiles};
use crate::progressive::run_progressive;
use crate::registry::Registry;
use crate::trace::JobTrace;
use crate::value::Dataset;

/// Job-level metrics reported with every result.
#[derive(Clone, Debug)]
pub struct JobMetrics {
    /// Virtual cluster time of the job (the figure the benchmarks report).
    pub virtual_ms: f64,
    /// Real local wall time.
    pub real_ms: f64,
    /// Progressive re-optimizations performed.
    pub replans: u32,
    /// Fault-tolerance retries absorbed (faults survived in place): the
    /// recovered records of [`Self::faults`].
    pub retries: u32,
    /// Every fault the job handled, retried or exhausted, in commit order,
    /// traced or not.
    pub faults: Vec<FaultRecord>,
    /// Cross-platform failovers performed (retry budget exhausted on a
    /// platform; the remainder re-planned over the survivors, §7.1).
    pub failovers: u32,
    /// Platforms that executed at least one stage.
    pub platforms: Vec<PlatformId>,
    /// The optimizer's cost estimate for the chosen plan.
    pub est_ms: f64,
}

/// The output of one job.
pub struct JobResult {
    sinks: HashMap<OperatorId, Dataset>,
    /// Metrics of the run.
    pub metrics: JobMetrics,
    /// Exploration taps (exploratory mode only).
    pub exploration: ExplorationBuffer,
    /// Span tree + per-operator profiles (when [`ExecConfig::tracing`] is
    /// on, the default).
    pub trace: Option<JobTrace>,
}

impl JobResult {
    /// Output of the sink created by [`crate::plan::DataQuanta::collect`].
    pub fn sink(&self, id: OperatorId) -> Result<&Dataset> {
        self.sinks
            .get(&id)
            .ok_or_else(|| RheemError::Execution(format!("no output recorded for sink {id:?}")))
    }

    /// All sink outputs.
    pub fn sinks(&self) -> &HashMap<OperatorId, Dataset> {
        &self.sinks
    }
}

/// Per-job tenancy scope for [`RheemContext::execute_scoped`]: who the job
/// runs for and which cache namespace it reads/publishes. The default scope
/// reproduces [`RheemContext::execute`]'s single-tenant behaviour.
#[derive(Clone, Debug)]
pub struct JobScope {
    /// Tenant name (labels metrics, stamps the job trace span).
    pub tenant: Option<String>,
    /// Cache namespace lookups/publishes are scoped to.
    pub cache_ns: crate::cache::Namespace,
    /// Fall back to the shared namespace on a tenant-namespace miss.
    pub cache_shared_read: bool,
}

impl Default for JobScope {
    fn default() -> Self {
        Self { tenant: None, cache_ns: crate::cache::Namespace::SHARED, cache_shared_read: true }
    }
}

/// The Rheem context: registered platforms, cost model, profiles, executor
/// configuration, metrics registry and result cache.
pub struct RheemContext {
    registry: Registry,
    profiles: Profiles,
    model: CostModel,
    config: ExecConfig,
    metrics: MetricsRegistry,
    cache: Option<Arc<ResultCache>>,
    /// Force every mappable operator onto one platform (platform-
    /// independence experiments; `None` = free choice).
    pub forced_platform: Option<PlatformId>,
}

impl Default for RheemContext {
    fn default() -> Self {
        Self::new()
    }
}

impl RheemContext {
    /// A context with no platforms registered (only driver built-ins).
    pub fn new() -> Self {
        let mut registry = Registry::new();
        register_builtins(&mut registry);
        Self {
            registry,
            profiles: Profiles::paper_testbed(),
            model: CostModel::new(),
            config: ExecConfig::default(),
            metrics: MetricsRegistry::new(),
            cache: None,
            forced_platform: None,
        }
    }

    /// Register a platform (builder style).
    pub fn with_platform(mut self, platform: &dyn Platform) -> Self {
        self.register_platform(platform);
        self
    }

    /// Enable or disable operator fusion (builder style). With fusion off,
    /// the optimizer only considers 1-to-1 candidates: every operator runs
    /// standalone — the ablation baseline for the fused pipelines.
    pub fn with_fusion(mut self, on: bool) -> Self {
        self.registry.set_fusion(on);
        self
    }

    /// Enable or disable columnar batch execution (builder style; see
    /// [`crate::batch`]) — how tests A/B the vectorized and row
    /// interpreters. Plan choice is unaffected: the cost model's
    /// vectorization discount depends only on static chain vectorizability.
    pub fn with_batch(mut self, on: bool) -> Self {
        self.config.batch = on;
        self
    }

    /// Enable the cross-job result cache with a byte budget (builder
    /// style); a new context has none.
    pub fn with_cache(mut self, budget_bytes: u64) -> Self {
        self.set_cache(Some(Arc::new(ResultCache::new(budget_bytes))));
        self
    }

    /// Share an existing cache handle with this context (builder style) —
    /// how several contexts of one interactive session reuse each other's
    /// intermediate results.
    pub fn with_shared_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.set_cache(Some(cache));
        self
    }

    /// The cross-job result cache, when enabled.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref()
    }

    /// Replace or disable the cross-job result cache.
    pub fn set_cache(&mut self, cache: Option<Arc<ResultCache>>) {
        self.cache = cache;
    }

    /// Register a platform.
    pub fn register_platform(&mut self, platform: &dyn Platform) {
        self.registry.add_platform(platform.id());
        platform.register(&mut self.registry);
    }

    /// The extension registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable registry access (plug custom operators/mappings, §5).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Platform profiles.
    pub fn profiles(&self) -> &Profiles {
        &self.profiles
    }

    /// Mutable profiles (calibration).
    pub fn profiles_mut(&mut self) -> &mut Profiles {
        &mut self.profiles
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Mutable cost model (apply learned parameters).
    pub fn cost_model_mut(&mut self) -> &mut CostModel {
        &mut self.model
    }

    /// Executor configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Mutable executor configuration.
    pub fn config_mut(&mut self) -> &mut ExecConfig {
        &mut self.config
    }

    /// The metrics registry (counters + virtual-time histograms accumulated
    /// across jobs; snapshot as Prometheus text).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn estimator(&self) -> Estimator {
        let mut e = Estimator::new();
        for s in self.registry.source_estimators() {
            e.add_source_estimator(Arc::clone(s));
        }
        e
    }

    /// Optimize a plan without executing it (inspection / `explain`).
    pub fn optimize(&self, plan: &RheemPlan) -> Result<OptimizedPlan> {
        let mut optimizer = Optimizer::new(&self.registry, &self.profiles, &self.model);
        optimizer.forced_platform = self.forced_platform;
        optimizer.cache = self.cache.clone();
        optimizer.optimize(plan, &self.estimator())
    }

    /// Build the executable plan for inspection.
    pub fn compile(&self, plan: &RheemPlan) -> Result<(OptimizedPlan, ExecPlan)> {
        let opt = self.optimize(plan)?;
        let eplan = build_exec_plan(plan, &opt, &self.registry, &self.profiles, &self.model)?;
        Ok((opt, eplan))
    }

    /// Human-readable description of the chosen execution plan.
    pub fn explain(&self, plan: &RheemPlan) -> Result<String> {
        let (opt, eplan) = self.compile(plan)?;
        Ok(format!(
            "estimated cost: {:.1} ms (virtual)\nplatforms: {:?}\n{}",
            opt.est_ms,
            opt.platforms,
            eplan.describe()
        ))
    }

    /// Execute a plan end-to-end (Algorithm 1).
    pub fn execute(&self, plan: &RheemPlan) -> Result<JobResult> {
        self.execute_with(plan, &self.config)
    }

    /// Execute a plan under a multi-tenant scope (see
    /// [`crate::service::JobService`]): tenant-scoped cache namespace and
    /// per-tenant metric labels. Every [`JobMetrics`] count and fault record
    /// comes from the job's own run, so concurrent submissions cannot charge
    /// each other.
    pub fn execute_scoped(&self, plan: &RheemPlan, scope: &JobScope) -> Result<JobResult> {
        let mut config = self.config.clone();
        config.tenant = scope.tenant.clone();
        config.cache_ns = scope.cache_ns;
        config.cache_shared_read = scope.cache_shared_read;
        self.execute_with(plan, &config)
    }

    /// Execute a plan with an explicit executor configuration — the one
    /// completion path behind [`Self::execute`], [`Self::execute_scoped`]
    /// and [`Self::explain_analyze`]. Cache counters publish the cache's own
    /// cumulative stats monotonically, so overlapping calls cannot count
    /// each other's hits.
    fn execute_with(&self, plan: &RheemPlan, config: &ExecConfig) -> Result<JobResult> {
        let result = self.run(plan, config)?;
        self.record_job_metrics(&result);
        if let Some(c) = &self.cache {
            let s = c.stats();
            self.metrics.set_counter_max("rheem_cache_hits_total", s.hits);
            self.metrics.set_counter_max("rheem_cache_misses_total", s.misses);
            self.metrics.set_counter_max("rheem_cache_inserts_total", s.inserts);
            self.metrics.set_counter_max("rheem_cache_evictions_total", s.evictions);
            self.metrics.set_counter_max("rheem_cache_spills_total", s.spills);
            self.metrics.set_counter_max("rheem_cache_promotions_total", s.promotions);
            self.metrics.set_gauge("rheem_cache_spilled_bytes", s.spilled_bytes as f64);
        }
        if let Some(tenant) = &config.tenant {
            let m = &result.metrics;
            self.metrics.inc(&format!("rheem_jobs_total{{tenant=\"{tenant}\"}}"), 1);
            self.metrics
                .inc(&format!("rheem_replans_total{{tenant=\"{tenant}\"}}"), m.replans as u64);
            self.metrics
                .inc(&format!("rheem_retries_total{{tenant=\"{tenant}\"}}"), m.retries as u64);
            self.metrics
                .inc(&format!("rheem_failovers_total{{tenant=\"{tenant}\"}}"), m.failovers as u64);
            if let Some(c) = &self.cache {
                let st = c.stats_of(config.cache_ns);
                self.metrics.set_counter_max(
                    &format!("rheem_cache_hits_total{{tenant=\"{tenant}\"}}"),
                    st.hits,
                );
                self.metrics.set_counter_max(
                    &format!("rheem_cache_misses_total{{tenant=\"{tenant}\"}}"),
                    st.misses,
                );
                self.metrics.set_counter_max(
                    &format!("rheem_cache_inserts_total{{tenant=\"{tenant}\"}}"),
                    st.inserts,
                );
                self.metrics.set_counter_max(
                    &format!("rheem_cache_evictions_total{{tenant=\"{tenant}\"}}"),
                    st.evictions,
                );
                self.metrics.set_counter_max(
                    &format!("rheem_cache_spills_total{{tenant=\"{tenant}\"}}"),
                    st.spills,
                );
                self.metrics.set_counter_max(
                    &format!("rheem_cache_promotions_total{{tenant=\"{tenant}\"}}"),
                    st.promotions,
                );
                self.metrics.set_gauge(
                    &format!("rheem_cache_bytes{{tenant=\"{tenant}\"}}"),
                    st.bytes as f64,
                );
                self.metrics.set_gauge(
                    &format!("rheem_cache_spilled_bytes{{tenant=\"{tenant}\"}}"),
                    st.spilled_bytes as f64,
                );
                self.metrics.set_gauge(
                    &format!("rheem_cache_entries{{tenant=\"{tenant}\"}}"),
                    st.entries as f64,
                );
                if let Some(q) = c.quota_of(config.cache_ns) {
                    self.metrics.set_gauge(
                        &format!("rheem_cache_quota_bytes{{tenant=\"{tenant}\"}}"),
                        q as f64,
                    );
                }
            }
        }
        Ok(result)
    }

    /// Run Algorithm 1 under `config`.
    fn run(&self, plan: &RheemPlan, config: &ExecConfig) -> Result<JobResult> {
        let outcome = run_progressive(
            plan,
            &self.registry,
            &self.profiles,
            &self.model,
            || self.estimator(),
            config,
            self.forced_platform,
            self.cache.clone(),
        )?;
        Ok(JobResult {
            sinks: outcome.sink_data,
            metrics: JobMetrics {
                virtual_ms: outcome.virtual_ms,
                real_ms: outcome.real_ms,
                replans: outcome.replans,
                retries: outcome.faults.iter().filter(|f| f.recovered).count() as u32,
                faults: outcome.faults,
                failovers: outcome.failovers,
                platforms: outcome.platforms,
                est_ms: outcome.est_ms,
            },
            exploration: outcome.exploration,
            trace: outcome.trace,
        })
    }

    /// Feed the registry from a finished job: job-level counters plus
    /// per-stage and per-operator virtual-time histograms from the trace.
    fn record_job_metrics(&self, result: &JobResult) {
        let m = &result.metrics;
        self.metrics.inc("rheem_jobs_total", 1);
        self.metrics.inc("rheem_replans_total", m.replans as u64);
        self.metrics.inc("rheem_retries_total", m.retries as u64);
        self.metrics.inc("rheem_failovers_total", m.failovers as u64);
        self.metrics.observe("rheem_job_virtual_ms", m.virtual_ms);
        if let Some(trace) = &result.trace {
            for r in trace.runs.iter().filter(|r| !r.superseded) {
                self.metrics.inc("rheem_stage_runs_total", 1);
                self.metrics.observe("rheem_stage_virtual_ms", r.virtual_ms);
            }
            for p in trace.profiles_effective().filter(|p| !p.is_pseudo()) {
                self.metrics.inc("rheem_operator_runs_total", 1);
                self.metrics.inc("rheem_tuples_out_total", p.tuples_out);
                self.metrics.observe("rheem_operator_virtual_ms", p.virtual_ms);
            }
        }
    }

    /// EXPLAIN ANALYZE: execute the plan with tracing forced on and join the
    /// optimizer's per-operator cardinality intervals against the measured
    /// profiles. Estimate misses beyond the configured cardinality-health
    /// tau are flagged, and the same rows feed the cost learner via
    /// [`ExplainAnalysis::samples`].
    pub fn explain_analyze(&self, plan: &RheemPlan) -> Result<ExplainAnalysis> {
        let opt = self.optimize(plan)?;
        let mut config = self.config.clone();
        config.tracing = true;
        let result = self.execute_with(plan, &config)?;
        let trace = result.trace.clone().expect("tracing forced on");
        let tau = self.config.mismatch_tau;
        let n_ops = plan.operators().len() as u32;

        // One row per (phase, exec node, chain position), aggregated over
        // repeated runs (loop iterations). Conversion nodes (no logical
        // operator) get a single row keyed on position 0.
        let mut order: Vec<(u32, usize, usize)> = Vec::new();
        let mut agg: HashMap<(u32, usize, usize), AnalyzeRow> = HashMap::new();
        for p in trace.profiles_effective().filter(|p| !p.is_pseudo()) {
            let members: Vec<Option<u32>> = if p.logical.is_empty() {
                vec![None]
            } else {
                p.logical.iter().copied().map(Some).collect()
            };
            for (pos, &lid) in members.iter().enumerate() {
                let key = (p.phase, p.node, pos);
                let row = agg.entry(key).or_insert_with(|| {
                    order.push(key);
                    // Logical ids of rewritten (phase > 1) plans do not name
                    // operators of the submitted plan; annotate those rows
                    // by id only.
                    let in_original = lid.is_some() && p.phase == 1 && lid.unwrap() < n_ops;
                    let op = lid.map(OperatorId);
                    AnalyzeRow {
                        op,
                        label: match (op, in_original) {
                            (Some(o), true) => plan.node(o).label(),
                            (Some(o), false) => format!("op{}", o.0),
                            (None, _) => p.name.clone(),
                        },
                        exec_name: p.name.clone(),
                        platform: p.platform.clone(),
                        est: in_original.then(|| opt.estimates.out_card(op.unwrap())),
                        measured_tuples: 0,
                        tuples_in: 0,
                        virtual_ms: 0.0,
                        runs: 0,
                        retries: 0,
                        fused: p.logical.len(),
                        chain_tail: pos + 1 == members.len(),
                        miss: false,
                        vec: VecStats::default(),
                    }
                });
                row.runs += 1;
                row.retries += p.retries;
                row.virtual_ms += p.virtual_ms;
                row.measured_tuples = p.tuples_out;
                row.tuples_in = p.tuples_in;
                row.vec += p.vec_stats;
            }
        }
        let mut rows: Vec<AnalyzeRow> =
            order.into_iter().map(|k| agg.remove(&k).unwrap()).collect();
        for row in &mut rows {
            if let (true, Some(est)) = (row.chain_tail, row.est) {
                row.miss =
                    check_cardinality(est, row.measured_tuples as f64, tau) == Health::Mismatch;
            }
        }
        let samples = samples_from_trace(&trace);
        Ok(ExplainAnalysis { rows, metrics: result.metrics.clone(), trace, samples, tau })
    }
}

/// One EXPLAIN ANALYZE row: a logical operator (or channel-conversion
/// operator) with its estimated cardinality interval and measured profile.
#[derive(Clone, Debug)]
pub struct AnalyzeRow {
    /// Logical operator id (`None` for channel-conversion rows).
    pub op: Option<OperatorId>,
    /// Logical operator label (or execution-operator name for conversions).
    pub label: String,
    /// Execution operator that ran it (fused chains cover several rows).
    pub exec_name: String,
    /// Platform id string.
    pub platform: String,
    /// The optimizer's output-cardinality interval (`None` for conversions
    /// and for operators introduced by a progressive plan rewrite).
    pub est: Option<Interval>,
    /// Measured output tuples of the covering execution operator (for fused
    /// chain members this is the chain's output; see `fused`).
    pub measured_tuples: u64,
    /// Measured input tuples of the covering execution operator.
    pub tuples_in: u64,
    /// Virtual ms of the covering execution operator, summed over runs.
    pub virtual_ms: f64,
    /// Number of runs aggregated into this row (loop iterations).
    pub runs: u32,
    /// Retries absorbed across those runs.
    pub retries: u32,
    /// Length of the fused chain this operator ran in (0 for conversions,
    /// 1 for standalone).
    pub fused: usize,
    /// Whether this row is the tail of its execution operator's chain (the
    /// only position whose measured output is the operator's own).
    pub chain_tail: bool,
    /// Estimate miss: the measured cardinality left `[lo/tau, hi*tau]`.
    pub miss: bool,
    /// The covering operator's vectorization counters ([`crate::batch`]),
    /// summed over runs; the first fallback reason wins. All zero in row
    /// mode.
    pub vec: VecStats,
}

/// The result of [`RheemContext::explain_analyze`].
pub struct ExplainAnalysis {
    /// Per-operator rows in execution order.
    pub rows: Vec<AnalyzeRow>,
    /// Job metrics of the analyzed execution.
    pub metrics: JobMetrics,
    /// Full job trace of the analyzed execution.
    pub trace: JobTrace,
    /// Learner-ready stage samples extracted from the trace (the same rows
    /// [`crate::learner::CostLearner`] trains on).
    pub samples: Vec<StageSample>,
    /// Cardinality-health tolerance used for the miss flags.
    pub tau: f64,
}

impl ExplainAnalysis {
    /// Rows flagged as estimate misses.
    pub fn misses(&self) -> impl Iterator<Item = &AnalyzeRow> {
        self.rows.iter().filter(|r| r.miss)
    }
}

impl fmt::Display for ExplainAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXPLAIN ANALYZE (virtual time; tau={})", self.tau)?;
        writeln!(
            f,
            "job: {:.3} ms virtual | est {:.3} ms | replans {} | retries {} | failovers {}",
            self.metrics.virtual_ms,
            self.metrics.est_ms,
            self.metrics.replans,
            self.metrics.retries,
            self.metrics.failovers
        )?;
        let platforms: Vec<&str> = self.metrics.platforms.iter().map(|p| p.0).collect();
        writeln!(f, "platforms: {}", platforms.join(", "))?;
        writeln!(
            f,
            "{:<34} {:<13} {:>22} {:>10} {:>10} {:>12} {:>5}  flags",
            "operator",
            "platform",
            "est.card [lo..hi]@conf",
            "measured",
            "in",
            "virtual ms",
            "runs"
        )?;
        for r in &self.rows {
            let est = match r.est {
                Some(e) => format!("[{:.0}..{:.0}]@{:.2}", e.lo, e.hi, e.conf),
                None => "-".to_string(),
            };
            let mut flags = Vec::new();
            if r.miss {
                flags.push("MISS".to_string());
            }
            if r.fused > 1 {
                flags.push(format!("fused({}/{})", r.fused, r.exec_name));
            }
            if r.op.is_none() {
                flags.push("conversion".to_string());
            }
            if r.retries > 0 {
                flags.push(format!("retries={}", r.retries));
            }
            let v = &r.vec;
            if v.vec_steps > 0 || v.row_steps > 0 {
                // Which chain segments actually vectorized: steps through
                // column kernels vs. row-interpreter fallbacks, plus batch
                // geometry (rows per batch).
                let rpb = v.rows.checked_div(v.batches).unwrap_or(0);
                flags.push(format!("vec({}v/{}r,{}x{})", v.vec_steps, v.row_steps, v.batches, rpb));
            }
            if v.exch_batches > 0 || v.exch_row_rows > 0 {
                // Exchange-level batch stats: batches/rows that crossed the
                // shuffle in columnar form vs. rows that fell back.
                flags.push(format!(
                    "xch({}b/{}c/{}r)",
                    v.exch_batches, v.exch_rows, v.exch_row_rows
                ));
            }
            if let Some(why) = v.fallback {
                flags.push(format!("fallback={}", why.as_str()));
            }
            writeln!(
                f,
                "{:<34} {:<13} {:>22} {:>10} {:>10} {:>12.3} {:>5}  {}",
                truncate(&r.label, 34),
                r.platform,
                est,
                r.measured_tuples,
                r.tuples_in,
                r.virtual_ms,
                r.runs,
                flags.join(" ")
            )?;
        }
        let misses = self.misses().count();
        writeln!(f, "estimate misses: {misses} | learner samples: {}", self.samples.len())
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}
