//! Per-tenant SLO metrics: labeled latency histograms decomposing each
//! service job's [`JobRecord`] into queue-wait / admission / execution /
//! commit phases, plus in-flight and fair-share-vtime gauges.
//!
//! Keys follow the registry's embedded-label convention
//! (`rheem_tenant_job_phase_ms{phase="exec",tenant="a"}`); the fixed
//! Prometheus exposition in [`crate::metrics`] renders them as one
//! histogram family with the labels merged before `le`, so p50/p99 are
//! derivable per tenant and phase from the buckets — or directly via
//! [`crate::metrics::Histogram::quantile`].

use crate::metrics::MetricsRegistry;
use crate::service::JobRecord;

/// Histogram family for per-tenant job phase latencies.
pub const PHASE_FAMILY: &str = "rheem_tenant_job_phase_ms";
/// Gauge family for per-tenant in-flight job counts.
pub const IN_FLIGHT_FAMILY: &str = "rheem_tenant_in_flight";
/// Gauge family for per-tenant fair-share virtual time.
pub const VTIME_FAMILY: &str = "rheem_tenant_fair_vtime";
/// The phase label values, in pipeline order.
pub const PHASES: [&str; 4] = ["queue", "admission", "exec", "commit"];

/// Registry key for one tenant + phase histogram.
pub fn phase_key(tenant: &str, phase: &str) -> String {
    format!("{PHASE_FAMILY}{{phase=\"{phase}\",tenant=\"{tenant}\"}}")
}

/// Registry key for a tenant's in-flight gauge.
pub fn in_flight_key(tenant: &str) -> String {
    format!("{IN_FLIGHT_FAMILY}{{tenant=\"{tenant}\"}}")
}

/// Registry key for a tenant's fair-share vtime gauge.
pub fn vtime_key(tenant: &str) -> String {
    format!("{VTIME_FAMILY}{{tenant=\"{tenant}\"}}")
}

/// Observe one completed job's phases for its tenant. Execution is in
/// virtual ms, so execution-latency SLOs stay host-independent and
/// deterministic; the other phases are wall ms of real service overhead.
pub fn observe_job(metrics: &MetricsRegistry, record: &JobRecord) {
    let tenant = &record.tenant;
    metrics.observe(&phase_key(tenant, "queue"), record.queue_ms);
    metrics.observe(&phase_key(tenant, "admission"), record.admission_ms);
    metrics.observe(&phase_key(tenant, "exec"), record.exec_ms);
    metrics.observe(&phase_key(tenant, "commit"), record.commit_ms);
}

/// p50/p99 estimates for one tenant + phase, when observed.
pub fn phase_quantiles(metrics: &MetricsRegistry, tenant: &str, phase: &str) -> Option<(f64, f64)> {
    let h = metrics.histogram(&phase_key(tenant, phase))?;
    Some((h.quantile(0.5)?, h.quantile(0.99)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_job_feeds_all_four_phases() {
        let m = MetricsRegistry::new();
        let record = JobRecord {
            tenant: "a".into(),
            job: Some(0),
            admission_ms: 0.1,
            queue_ms: 1.0,
            exec_ms: 40.0,
            commit_ms: 0.2,
            outcome: crate::service::JobOutcome::Completed,
            retries: 0,
            stragglers: Vec::new(),
        };
        observe_job(&m, &record);
        for phase in PHASES {
            let h = m.histogram(&phase_key("a", phase)).unwrap();
            assert_eq!(h.count, 1, "phase {phase}");
        }
        let (p50, p99) = phase_quantiles(&m, "a", "exec").unwrap();
        assert!(p50 > 0.0 && p99 >= p50);
        assert!(phase_quantiles(&m, "b", "exec").is_none());
    }
}
