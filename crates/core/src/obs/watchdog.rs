//! Starvation / straggler / cache-thrash watchdog.
//!
//! The watchdog reads service registry state on a *virtual-time* cadence
//! (served virtual ms between sweeps, so sweeps are deterministic for a
//! deterministic workload) and each finished job's stage runs, and emits
//! typed [`Diagnosis`] values and `rheem_watchdog_*` counters. A straggler
//! belongs to its job and is kept on the service's record of it; the
//! sweep diagnoses belong to no job and are kept in the watchdog's own
//! ring of the last [`super::RING_LEN`], served at `/flight`.
//!
//! Rules (thresholds in [`WatchdogConfig`]):
//! - **Tenant starvation** (per sweep) — a backlogged tenant whose
//!   normalized fair-share vtime lags the minimum vtime among *other*
//!   active tenants by more than `starvation_lag_ms`: it has queued work
//!   but the scheduler keeps (correctly or not) serving cheaper tenants.
//! - **Straggler stage** (per completed job, [`Watchdog::check_job`]) — a
//!   non-superseded stage run of the job's [`crate::trace::JobTrace::runs`]
//!   whose virtual duration exceeds `straggler_factor ×` the median of its
//!   sibling runs (and `straggler_min_ms`, to ignore trivially small jobs).
//!   Needs at least two siblings for a meaningful median; a stage that
//!   repeats across loop iterations is flagged at most once per job.
//! - **Cache thrash** (per sweep) — evictions/inserts ratio over the sweep
//!   window above `thrash_ratio` with at least `thrash_min_inserts`
//!   inserts: the cache budget is too small for the working set and
//!   entries churn.

use std::collections::{HashSet, VecDeque};
use std::sync::Mutex;

use crate::cache::CacheStats;
use crate::metrics::MetricsRegistry;
use crate::trace::{json_f64, json_string, RunProfile};

/// Watchdog thresholds. Defaults are deliberately conservative; tests and
/// operators tighten them per workload.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Served virtual ms between sweeps (0 sweeps on every completion).
    pub cadence_ms: f64,
    /// Normalized vtime lag beyond which a backlogged tenant is starved.
    pub starvation_lag_ms: f64,
    /// Stage duration multiple of the sibling median that flags a straggler.
    pub straggler_factor: f64,
    /// Ignore stages shorter than this many virtual ms.
    pub straggler_min_ms: f64,
    /// Evictions-per-insert ratio (over a sweep window) that flags thrash.
    pub thrash_ratio: f64,
    /// Minimum inserts in the window before thrash is considered.
    pub thrash_min_inserts: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            cadence_ms: 50.0,
            starvation_lag_ms: 1_000.0,
            straggler_factor: 4.0,
            straggler_min_ms: 5.0,
            thrash_ratio: 0.5,
            thrash_min_inserts: 16,
        }
    }
}

/// One tenant's scheduler state at sweep time.
#[derive(Clone, Debug)]
pub struct TenantState {
    /// Tenant name.
    pub name: String,
    /// Normalized fair-share virtual time.
    pub vtime: f64,
    /// Jobs waiting in the tenant's queue.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
}

/// Registry state handed to a sweep.
#[derive(Clone, Debug, Default)]
pub struct WatchdogSnapshot {
    /// Per-tenant scheduler state.
    pub tenants: Vec<TenantState>,
    /// Cross-job cache stats, when a cache is attached.
    pub cache: Option<CacheStats>,
}

/// A typed watchdog diagnosis.
#[derive(Clone, Debug, PartialEq)]
pub enum Diagnosis {
    /// A backlogged tenant lags the other active tenants' vtime.
    Starvation {
        /// The starved tenant.
        tenant: String,
        /// How far its vtime lags the minimum active vtime (virtual ms).
        lag_ms: f64,
    },
    /// A stage ran far longer than its siblings within one job.
    Straggler {
        /// Owning tenant, when known.
        tenant: Option<String>,
        /// Service job id.
        job: u64,
        /// The straggler stage.
        stage: u64,
        /// The stage's virtual ms.
        ms: f64,
        /// Median virtual ms of its sibling stages.
        median_ms: f64,
    },
    /// Cache evictions churn against inserts.
    CacheThrash {
        /// Evictions over the window divided by inserts over the window.
        ratio: f64,
        /// Evictions in the window.
        evictions: u64,
        /// Inserts in the window.
        inserts: u64,
    },
}

#[derive(Debug, Default)]
struct WdState {
    /// Cache inserts at the previous sweep (delta base).
    last_inserts: u64,
    /// Cache evictions plus spills at the previous sweep.
    last_evictions: u64,
    /// Served virtual ms accumulated since the last sweep.
    served_ms: f64,
    /// Starvation and thrash diagnoses of recent sweeps, oldest first.
    recent: VecDeque<Diagnosis>,
}

/// The watchdog itself. One per [`crate::service::JobService`].
#[derive(Debug)]
pub struct Watchdog {
    config: WatchdogConfig,
    state: Mutex<WdState>,
}

impl Watchdog {
    /// Watchdog with the given thresholds.
    pub fn new(config: WatchdogConfig) -> Self {
        Self { config, state: Mutex::new(WdState::default()) }
    }

    /// The active thresholds.
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// Account `virtual_ms` of served work; returns `true` when the sweep
    /// cadence has been reached (and resets the accumulator).
    pub fn on_served(&self, virtual_ms: f64) -> bool {
        let mut st = self.state.lock().unwrap();
        st.served_ms += virtual_ms.max(0.0);
        if st.served_ms >= self.config.cadence_ms {
            st.served_ms = 0.0;
            true
        } else {
            false
        }
    }

    /// Straggler rule over one completed job's stage runs (its trace's
    /// [`crate::trace::JobTrace::runs`]); counts every diagnosis in
    /// `rheem_watchdog_straggler_total` and returns them for the job's
    /// record.
    pub fn check_job(
        &self,
        tenant: Option<&str>,
        job: u64,
        runs: &[RunProfile],
        metrics: &MetricsRegistry,
    ) -> Vec<Diagnosis> {
        let out = stragglers_in(runs, tenant, job, &self.config);
        count(&out, metrics);
        out
    }

    /// Run one sweep: check `snapshot` for starvation and cache thrash,
    /// count every diagnosis in `rheem_watchdog_*` and keep it in the ring.
    pub fn sweep(&self, snapshot: &WatchdogSnapshot, metrics: &MetricsRegistry) -> Vec<Diagnosis> {
        let mut out = Vec::new();
        let mut st = self.state.lock().unwrap();

        // Tenant starvation: compare each backlogged tenant against the
        // minimum vtime among the *other* tenants that still have work.
        for t in &snapshot.tenants {
            if t.queued == 0 {
                continue;
            }
            let min_other = snapshot
                .tenants
                .iter()
                .filter(|o| o.name != t.name && o.queued + o.running > 0)
                .map(|o| o.vtime)
                .fold(f64::INFINITY, f64::min);
            if min_other.is_finite() {
                let lag = t.vtime - min_other;
                if lag > self.config.starvation_lag_ms {
                    out.push(Diagnosis::Starvation { tenant: t.name.clone(), lag_ms: lag });
                }
            }
        }

        // Cache thrash over the window since the previous sweep. Spills
        // count as churn alongside evictions: a cache that demotes nearly
        // everything it admits is undersized even if nothing is dropped.
        if let Some(cs) = &snapshot.cache {
            let d_ins = cs.inserts.saturating_sub(st.last_inserts);
            let d_ev = (cs.evictions + cs.spills).saturating_sub(st.last_evictions);
            st.last_inserts = cs.inserts;
            st.last_evictions = cs.evictions + cs.spills;
            if d_ins >= self.config.thrash_min_inserts {
                let ratio = d_ev as f64 / d_ins as f64;
                if ratio > self.config.thrash_ratio {
                    out.push(Diagnosis::CacheThrash { ratio, evictions: d_ev, inserts: d_ins });
                }
            }
        }
        for d in &out {
            super::push_bounded(&mut st.recent, d.clone());
        }
        drop(st);

        metrics.inc("rheem_watchdog_sweeps_total", 1);
        count(&out, metrics);
        out
    }

    /// Starvation and thrash diagnoses of the recent sweeps, oldest first.
    pub(crate) fn recent(&self) -> Vec<Diagnosis> {
        self.state.lock().unwrap().recent.iter().cloned().collect()
    }
}

impl Diagnosis {
    /// Append this diagnosis as a JSON object to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            Diagnosis::Starvation { tenant, lag_ms } => {
                out.push_str("{\"kind\":\"starvation\",\"tenant\":");
                json_string(out, tenant);
                out.push_str(&format!(",\"lag_ms\":{}}}", json_f64(*lag_ms)));
            }
            Diagnosis::Straggler { tenant, job, stage, ms, median_ms } => {
                out.push_str("{\"kind\":\"straggler\",\"tenant\":");
                match tenant {
                    Some(t) => json_string(out, t),
                    None => out.push_str("null"),
                }
                out.push_str(&format!(
                    ",\"job\":{job},\"stage\":{stage},\"ms\":{},\"median_ms\":{}}}",
                    json_f64(*ms),
                    json_f64(*median_ms)
                ));
            }
            Diagnosis::CacheThrash { ratio, evictions, inserts } => out.push_str(&format!(
                "{{\"kind\":\"cache_thrash\",\"ratio\":{},\"evictions\":{evictions},\"inserts\":{inserts}}}",
                json_f64(*ratio)
            )),
        }
    }
}

/// Count diagnoses in the `rheem_watchdog_*` counters.
fn count(diagnoses: &[Diagnosis], metrics: &MetricsRegistry) {
    for d in diagnoses {
        match d {
            Diagnosis::Starvation { tenant, .. } => {
                metrics.inc(&format!("rheem_watchdog_starvation_total{{tenant=\"{tenant}\"}}"), 1);
            }
            Diagnosis::Straggler { tenant, .. } => {
                let t = tenant.as_deref().unwrap_or("unknown");
                metrics.inc(&format!("rheem_watchdog_straggler_total{{tenant=\"{t}\"}}"), 1);
            }
            Diagnosis::CacheThrash { .. } => metrics.inc("rheem_watchdog_cache_thrash_total", 1),
        }
    }
}

/// Evaluate one completed job's non-superseded stage runs for stragglers.
/// Each run's sibling median comes from one sorted copy of all run times,
/// so the rule is O(n log n) in the job's runs.
fn stragglers_in(
    runs: &[RunProfile],
    tenant: Option<&str>,
    job: u64,
    cfg: &WatchdogConfig,
) -> Vec<Diagnosis> {
    let runs: Vec<&RunProfile> = runs.iter().filter(|r| !r.superseded).collect();
    let mut out = Vec::new();
    if runs.len() < 3 {
        return out; // need >= 2 siblings for a meaningful median
    }
    let mut sorted: Vec<f64> = runs.iter().map(|r| r.virtual_ms).collect();
    sorted.sort_by(f64::total_cmp);
    // A stage repeated across loop iterations is flagged once per job.
    let mut flagged = HashSet::new();
    for r in runs {
        if r.virtual_ms < cfg.straggler_min_ms || flagged.contains(&r.stage) {
            continue;
        }
        let median = median_without(&sorted, r.virtual_ms);
        if r.virtual_ms > cfg.straggler_factor * median {
            flagged.insert(r.stage);
            out.push(Diagnosis::Straggler {
                tenant: tenant.map(str::to_string),
                job,
                stage: r.stage as u64,
                ms: r.virtual_ms,
                median_ms: median,
            });
        }
    }
    out
}

/// Median of `sorted` (at least two values) with one occurrence of `x`,
/// which it holds, left out.
fn median_without(sorted: &[f64], x: f64) -> f64 {
    let p = sorted.partition_point(|v| v.total_cmp(&x).is_lt());
    let at = |k: usize| sorted[if k < p { k } else { k + 1 }];
    let n = sorted.len() - 1;
    if n % 2 == 1 {
        at(n / 2)
    } else {
        (at(n / 2 - 1) + at(n / 2)) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starvation_flags_lagging_backlogged_tenant_only() {
        let wd = Watchdog::new(WatchdogConfig { starvation_lag_ms: 100.0, ..Default::default() });
        let snap = WatchdogSnapshot {
            tenants: vec![
                TenantState { name: "starved".into(), vtime: 5_000.0, queued: 1, running: 0 },
                TenantState { name: "heavy".into(), vtime: 10.0, queued: 3, running: 1 },
            ],
            cache: None,
        };
        let m = MetricsRegistry::new();
        let out = wd.sweep(&snap, &m);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], Diagnosis::Starvation { tenant, .. } if tenant == "starved"));
        assert_eq!(m.counter("rheem_watchdog_starvation_total{tenant=\"starved\"}"), 1);
        assert_eq!(m.counter("rheem_watchdog_starvation_total{tenant=\"heavy\"}"), 0);
        // The diagnosis is also kept in the sweep ring.
        assert_eq!(wd.recent(), out);
    }

    #[test]
    fn starvation_needs_another_active_tenant() {
        let wd = Watchdog::new(WatchdogConfig { starvation_lag_ms: 100.0, ..Default::default() });
        let snap = WatchdogSnapshot {
            tenants: vec![
                TenantState { name: "only".into(), vtime: 9_000.0, queued: 2, running: 0 },
                TenantState { name: "idle".into(), vtime: 0.0, queued: 0, running: 0 },
            ],
            cache: None,
        };
        assert!(wd.sweep(&snap, &MetricsRegistry::new()).is_empty());
    }

    fn run(stage: usize, iteration: u64, virtual_ms: f64) -> RunProfile {
        RunProfile {
            phase: 0,
            run: 0,
            stage,
            platform: "java.streams".into(),
            iteration,
            virtual_ms,
            retries: 0,
            superseded: false,
        }
    }

    fn straggler_watchdog(min_ms: f64) -> Watchdog {
        Watchdog::new(WatchdogConfig {
            straggler_factor: 4.0,
            straggler_min_ms: min_ms,
            ..Default::default()
        })
    }

    #[test]
    fn straggler_flagged_against_its_sibling_median() {
        let wd = straggler_watchdog(1.0);
        let m = MetricsRegistry::new();
        let runs = [run(0, 0, 2.0), run(1, 0, 40.0), run(2, 0, 3.0)];
        let out = wd.check_job(Some("a"), 7, &runs, &m);
        assert_eq!(
            out,
            vec![Diagnosis::Straggler {
                tenant: Some("a".into()),
                job: 7,
                stage: 1,
                ms: 40.0,
                median_ms: 2.5,
            }]
        );
        assert_eq!(m.counter("rheem_watchdog_straggler_total{tenant=\"a\"}"), 1);
        // The verdict goes to the job's record, not to the sweep ring.
        assert!(wd.recent().is_empty());
        // The straggler rule is not a sweep.
        assert_eq!(m.counter("rheem_watchdog_sweeps_total"), 0);
    }

    #[test]
    fn fewer_than_three_runs_are_never_stragglers() {
        let wd = straggler_watchdog(0.0);
        let m = MetricsRegistry::new();
        let runs = [run(0, 0, 100.0), run(1, 0, 1.0)];
        assert!(wd.check_job(None, 1, &runs, &m).is_empty());
        assert_eq!(m.counter("rheem_watchdog_straggler_total{tenant=\"unknown\"}"), 0);
    }

    #[test]
    fn runs_below_the_floor_are_never_stragglers() {
        let wd = straggler_watchdog(50.0);
        let runs = [run(0, 0, 0.1), run(1, 0, 40.0), run(2, 0, 0.1)];
        let out = wd.check_job(None, 1, &runs, &MetricsRegistry::new());
        assert!(out.is_empty(), "400x its siblings but under straggler_min_ms: {out:?}");
    }

    #[test]
    fn superseded_runs_are_excluded() {
        let wd = straggler_watchdog(1.0);
        let m = MetricsRegistry::new();
        // A superseded straggler is not flagged…
        let mut slow = run(1, 0, 40.0);
        slow.superseded = true;
        let runs = [run(0, 0, 2.0), slow.clone(), run(2, 0, 3.0), run(1, 0, 2.0)];
        assert!(wd.check_job(None, 1, &runs, &m).is_empty());
        // …and does not count as a sibling: two live runs are too few.
        let runs = [run(0, 0, 2.0), slow, run(1, 0, 40.0)];
        assert!(wd.check_job(None, 2, &runs, &m).is_empty());
    }

    #[test]
    fn a_stage_repeated_across_iterations_is_flagged_once() {
        let wd = straggler_watchdog(1.0);
        let m = MetricsRegistry::new();
        let mut runs: Vec<RunProfile> = (0..10).map(|i| run(0, i, 2.0)).collect();
        runs.extend((0..3).map(|i| run(1, i, 40.0)));
        let out = wd.check_job(Some("a"), 3, &runs, &m);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(matches!(&out[0], Diagnosis::Straggler { job: 3, stage: 1, .. }));
        assert_eq!(m.counter("rheem_watchdog_straggler_total{tenant=\"a\"}"), 1);
        // The set is the job's own: the next job's repeat is flagged again.
        assert_eq!(wd.check_job(Some("a"), 4, &runs, &m).len(), 1);
    }

    #[test]
    fn median_without_matches_a_naive_leave_one_out_median() {
        let vals = [5.0, 1.0, 3.0, 3.0, 9.0, 0.5, 7.0];
        for n in 3..=vals.len() {
            let v = &vals[..n];
            let mut sorted = v.to_vec();
            sorted.sort_by(f64::total_cmp);
            for i in 0..n {
                let mut sib: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| v[j]).collect();
                sib.sort_by(f64::total_cmp);
                let k = sib.len();
                let naive =
                    if k % 2 == 1 { sib[k / 2] } else { (sib[k / 2 - 1] + sib[k / 2]) / 2.0 };
                assert_eq!(median_without(&sorted, v[i]), naive, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn cache_thrash_uses_window_deltas() {
        let wd = Watchdog::new(WatchdogConfig {
            thrash_ratio: 0.5,
            thrash_min_inserts: 4,
            ..Default::default()
        });
        let m = MetricsRegistry::new();
        let cs = CacheStats { inserts: 10, evictions: 9, ..Default::default() };
        let snap = WatchdogSnapshot { tenants: vec![], cache: Some(cs) };
        let out = wd.sweep(&snap, &m);
        assert!(matches!(out[0], Diagnosis::CacheThrash { inserts: 10, evictions: 9, .. }));
        assert_eq!(m.counter("rheem_watchdog_cache_thrash_total"), 1);
        // Same cumulative counters again: zero delta, no flag.
        let snap2 = WatchdogSnapshot { tenants: vec![], cache: Some(cs) };
        assert!(wd.sweep(&snap2, &m).is_empty());
        assert_eq!(wd.recent(), out, "the ring keeps the first sweep's verdict only");
    }

    #[test]
    fn cadence_accumulates_served_virtual_ms() {
        let wd = Watchdog::new(WatchdogConfig { cadence_ms: 10.0, ..Default::default() });
        assert!(!wd.on_served(4.0));
        assert!(!wd.on_served(4.0));
        assert!(wd.on_served(4.0));
        assert!(!wd.on_served(4.0)); // accumulator reset
                                     // Zero cadence sweeps on every completion.
        let every = Watchdog::new(WatchdogConfig { cadence_ms: 0.0, ..Default::default() });
        assert!(every.on_served(0.0));
    }
}
