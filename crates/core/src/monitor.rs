//! The monitor (§4.3): the execution health check ([`check_cardinality`])
//! and the context's fault log. The other half of §4.3 — per-stage runtimes
//! and true cardinalities, attributed to operators (aware of
//! platform-internal laziness, which our engines surface by reporting
//! per-operator metrics themselves) — is each job's
//! [`crate::trace::JobTrace`], the execution log the cost learner reads;
//! the progressive optimizer takes measured cardinalities straight from
//! the executor's checkpoint.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::fault::FaultKind;
use crate::platform::PlatformId;

/// Record of one injected or organic fault handled by the executor.
#[derive(Clone, Debug)]
pub struct FaultRecord {
    /// Stage the failure struck.
    pub stage: usize,
    /// Loop iteration at the time (0 outside loops).
    pub iteration: u64,
    /// Platform that failed.
    pub platform: PlatformId,
    /// Execution-operator name at the failure site.
    pub op: String,
    /// Injected fault kind (`None` for organic platform errors).
    pub kind: Option<FaultKind>,
    /// How many failures the stage's budget had absorbed, this one included.
    pub attempt: u32,
    /// Whether the executor retried (true) or gave up on the platform and
    /// escalated to failover (false).
    pub recovered: bool,
}

/// Health verdict for an observed cardinality.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Measured cardinality is within tolerance of the estimate.
    Ok,
    /// Large mismatch: the progressive optimizer should re-optimize (§4.4).
    Mismatch,
}

/// Check a measured cardinality against an interval estimate with tolerance
/// factor `tau` (≥ 1).
pub fn check_cardinality(est: crate::cost::Interval, measured: f64, tau: f64) -> Health {
    let lo = est.lo / tau;
    let hi = est.hi * tau;
    if measured + 1.0 < lo || measured > hi + 1.0 {
        Health::Mismatch
    } else {
        Health::Ok
    }
}

/// Fault records a [`Monitor`] keeps: the most recent ones, oldest dropped
/// first. The largest per-context log any workspace test reads holds 6
/// records, so every test still sees its whole log.
pub const RECENT_FAULTS: usize = 64;

/// The context's fault log: the last [`RECENT_FAULTS`] failures the
/// executor handled, in commit order, plus an exact count of the retries
/// it absorbed. Stage runs and their true cardinalities live in each job's
/// [`crate::trace::JobTrace`]; job-level retry, replan and failover counts
/// in [`crate::api::JobMetrics`].
#[derive(Default)]
pub struct Monitor {
    log: Mutex<FaultLog>,
}

#[derive(Default)]
struct FaultLog {
    recent: VecDeque<FaultRecord>,
    retries: u32,
}

impl Monitor {
    /// Fresh monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a handled fault (retry or budget exhaustion).
    pub fn record_fault(&self, record: FaultRecord) {
        let mut log = self.log.lock().expect("fault log poisoned");
        log.retries += u32::from(record.recovered);
        if log.recent.len() == RECENT_FAULTS {
            log.recent.pop_front();
        }
        log.recent.push_back(record);
    }

    /// Snapshot of the last [`RECENT_FAULTS`] handled faults, oldest first.
    pub fn fault_records(&self) -> Vec<FaultRecord> {
        self.log.lock().expect("fault log poisoned").recent.iter().cloned().collect()
    }

    /// Number of operator retries so far: the faults the retry budget
    /// absorbed, counted over the context's whole life.
    pub fn retries(&self) -> u32 {
        self.log.lock().expect("fault log poisoned").retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Interval;

    #[test]
    fn cardinality_health_check() {
        let est = Interval::new(90.0, 110.0, 0.9);
        assert_eq!(check_cardinality(est, 100.0, 2.0), Health::Ok);
        assert_eq!(check_cardinality(est, 50.0, 2.0), Health::Ok); // 45 <= 50
        assert_eq!(check_cardinality(est, 10.0, 2.0), Health::Mismatch);
        assert_eq!(check_cardinality(est, 100_000.0, 2.0), Health::Mismatch);
    }

    fn record(stage: usize, recovered: bool) -> FaultRecord {
        FaultRecord {
            stage,
            iteration: 0,
            platform: PlatformId("x"),
            op: "XMap".into(),
            kind: Some(FaultKind::Transient),
            attempt: 1,
            recovered,
        }
    }

    #[test]
    fn retries_count_recovered_faults() {
        let m = Monitor::new();
        m.record_fault(record(2, true));
        m.record_fault(FaultRecord { attempt: 2, ..record(2, false) });
        assert_eq!(m.fault_records().len(), 2);
        assert_eq!(m.retries(), 1);
    }

    #[test]
    fn fault_log_keeps_the_most_recent_records() {
        let m = Monitor::new();
        for stage in 0..RECENT_FAULTS + 10 {
            m.record_fault(record(stage, true));
        }
        let recs = m.fault_records();
        assert_eq!(recs.len(), RECENT_FAULTS);
        let stages: Vec<usize> = recs.iter().map(|r| r.stage).collect();
        assert_eq!(stages, (10..RECENT_FAULTS + 10).collect::<Vec<_>>(), "oldest 10 not dropped");
        assert_eq!(m.retries(), (RECENT_FAULTS + 10) as u32, "retries lost with the ring");
    }
}
