//! The monitor (§4.3): the execution health check ([`check_cardinality`]).
//! The rest of §4.3 is each job's own result: per-stage runtimes and true
//! cardinalities, attributed to operators (aware of platform-internal
//! laziness, which our engines surface by reporting per-operator metrics
//! themselves), are its [`crate::trace::JobTrace`], the execution log the
//! cost learner reads; its handled faults are
//! [`crate::api::JobMetrics::faults`]. The progressive optimizer takes
//! measured cardinalities straight from the executor's checkpoint.

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
}
