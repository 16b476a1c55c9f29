//! Live observability plane: per-tenant SLO metrics, TCP scrape endpoint,
//! and a starvation/straggler watchdog, over the service's job records.
//!
//! Each fact has one record. A service job is one
//! [`crate::service::JobRecord`] in the service's ring of the last
//! [`RING_LEN`]; a stage run or a row fallback is in the job's
//! [`crate::trace::JobTrace`]; a handled fault is in the job's
//! [`crate::api::JobMetrics::faults`] (and, traced, a `Retry` span);
//! cache activity is in [`crate::cache::CacheStats`]. The plane reads
//! those:
//!
//! - [`slo`] — per-tenant labeled histograms decomposing every service job
//!   record into queue-wait / admission / execution / commit phases, plus
//!   in-flight and fair-share-vtime gauges.
//! - [`http`] — a `std::net` HTTP/1.0 scrape endpoint serving `/metrics`,
//!   `/healthz`, `/jobs`, `/tenants` and `/flight?n=K`, opt-in via
//!   [`crate::service::JobService::serve`] or `RHEEM_OBS_ADDR`.
//! - [`watchdog`] — reads registry state on a virtual-time cadence
//!   (tenant starvation, cache thrash, kept in a ring of its own) and each
//!   completed job's stage runs (straggler stages, kept on the job's
//!   record), and counts every diagnosis in `rheem_watchdog_*` metrics.

pub mod http;
pub mod slo;
pub mod watchdog;

pub use http::{handle_request, ObsServer, ObsSource};
pub use watchdog::{Diagnosis, TenantState, Watchdog, WatchdogConfig, WatchdogSnapshot};

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use crate::error::{Result, RheemError};

/// Entries each ring of the plane keeps, oldest dropped first: the
/// service's job records and the watchdog's sweep diagnoses.
pub const RING_LEN: usize = 64;

/// Append `item` to `ring`, dropping the oldest entry at [`RING_LEN`].
pub(crate) fn push_bounded<T>(ring: &mut VecDeque<T>, item: T) {
    if ring.len() == RING_LEN {
        ring.pop_front();
    }
    ring.push_back(item);
}

/// Append the last `n` of `items` to `out` as a JSON array, each written
/// by `write`.
pub(crate) fn json_tail<'a, T: 'a>(
    out: &mut String,
    items: impl ExactSizeIterator<Item = &'a T>,
    n: usize,
    write: impl Fn(&T, &mut String),
) {
    let skip = items.len().saturating_sub(n);
    out.push('[');
    for (i, item) in items.skip(skip).enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(item, out);
    }
    out.push(']');
}

/// Minimal blocking HTTP/1.0 GET against `addr` (e.g. `127.0.0.1:9090`);
/// returns the response body. Used by tests and benches to scrape the
/// endpoint without external tooling.
pub fn scrape(addr: &str, path: &str) -> Result<String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| RheemError::Obs(format!("connect {addr}: {e}")))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| RheemError::Obs(format!("write: {e}")))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| RheemError::Obs(format!("read: {e}")))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| RheemError::Obs("malformed response: no header break".into()))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(RheemError::Obs(format!("non-200 response: {status}")));
    }
    Ok(body.to_string())
}

/// Validate Prometheus text-exposition invariants over `text`:
///
/// 1. every line is a `# TYPE <family> <kind>` line or a sample;
/// 2. exactly one TYPE line per family;
/// 3. every sample belongs to the family whose TYPE line most recently
///    preceded it (samples are contiguous per family);
/// 4. per kind, families appear in sorted order (stable output);
/// 5. for histogram series, `le` buckets are cumulative (non-decreasing),
///    end in `+Inf`, and the `_count` sample equals the `+Inf` bucket.
///
/// Returns the offending line in the error string.
pub fn validate_exposition(text: &str) -> std::result::Result<(), String> {
    let mut seen_families = std::collections::BTreeSet::new();
    let mut last_per_kind: std::collections::BTreeMap<&str, String> =
        std::collections::BTreeMap::new();
    let mut current: Option<(String, String)> = None; // (family, kind)
                                                      // Per histogram series (label set minus `le`): last cumulative bucket,
                                                      // +Inf seen, count sample.
    let mut series: std::collections::BTreeMap<String, (u64, bool, Option<u64>)> =
        std::collections::BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(fam), Some(kind), None) = (it.next(), it.next(), it.next()) else {
                return Err(format!("malformed TYPE line: {line}"));
            };
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown kind in: {line}"));
            }
            if !seen_families.insert(fam.to_string()) {
                return Err(format!("duplicate TYPE for family: {fam}"));
            }
            if let Some(prev) = last_per_kind.get(kind) {
                if prev.as_str() >= fam {
                    return Err(format!("families not sorted for kind {kind}: {prev} >= {fam}"));
                }
            }
            last_per_kind.insert(kind, fam.to_string());
            current = Some((fam.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments (HELP) are allowed
        }
        let Some((name_part, value_part)) = line.rsplit_once(' ') else {
            return Err(format!("malformed sample: {line}"));
        };
        let Some((fam, kind)) = &current else {
            return Err(format!("sample before any TYPE line: {line}"));
        };
        let name = name_part.split('{').next().unwrap_or(name_part);
        let base = if *kind == "histogram" {
            name.strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .ok_or_else(|| format!("histogram sample lacks suffix: {line}"))?
        } else {
            name
        };
        if base != fam.as_str() {
            return Err(format!("sample {name} not under its family's TYPE ({fam}): {line}"));
        }
        if value_part.parse::<f64>().is_err() {
            return Err(format!("non-numeric sample value: {line}"));
        }
        if *kind == "histogram" {
            let labels = name_part
                .split_once('{')
                .map(|(_, ls)| ls.trim_end_matches('}'))
                .unwrap_or_default();
            if name.ends_with("_bucket") {
                let mut le = None;
                let series_labels: Vec<&str> = labels
                    .split(',')
                    .filter(|kv| {
                        if let Some(v) = kv.strip_prefix("le=") {
                            le = Some(v.trim_matches('"').to_string());
                            false
                        } else {
                            !kv.is_empty()
                        }
                    })
                    .collect();
                let le = le.ok_or_else(|| format!("bucket without le label: {line}"))?;
                let key = format!("{fam}{{{}}}", series_labels.join(","));
                let cum: u64 =
                    value_part.parse().map_err(|_| format!("non-integer bucket count: {line}"))?;
                let entry = series.entry(key).or_insert((0, false, None));
                if entry.1 {
                    return Err(format!("bucket after +Inf in series: {line}"));
                }
                if cum < entry.0 {
                    return Err(format!("non-cumulative buckets: {line}"));
                }
                entry.0 = cum;
                if le == "+Inf" {
                    entry.1 = true;
                }
            } else if name.ends_with("_count") {
                let key = format!("{fam}{{{labels}}}");
                let count: u64 =
                    value_part.parse().map_err(|_| format!("non-integer count: {line}"))?;
                series.entry(key).or_insert((0, false, None)).2 = Some(count);
            }
        }
    }
    for (key, (cum, saw_inf, count)) in &series {
        if !saw_inf {
            return Err(format!("histogram series missing +Inf bucket: {key}"));
        }
        if let Some(c) = count {
            if c != cum {
                return Err(format!("series {key}: _count {c} != +Inf bucket {cum}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_wellformed_and_rejects_broken() {
        let good = "# TYPE a_total counter\na_total 1\na_total{tenant=\"x\"} 2\n\
                    # TYPE g gauge\ng 1.5\n\
                    # TYPE h_ms histogram\nh_ms_bucket{le=\"1\"} 1\nh_ms_bucket{le=\"+Inf\"} 2\n\
                    h_ms_sum 3\nh_ms_count 2\n";
        validate_exposition(good).unwrap();
        // Duplicate TYPE for one family.
        let dup = "# TYPE a counter\na 1\n# TYPE a counter\na 2\n";
        assert!(validate_exposition(dup).unwrap_err().contains("duplicate"));
        // Non-cumulative buckets.
        let noncum = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n\
                      h_sum 1\nh_count 3\n";
        assert!(validate_exposition(noncum).unwrap_err().contains("non-cumulative"));
        // Missing +Inf.
        let noinf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_exposition(noinf).unwrap_err().contains("+Inf"));
        // Count disagreeing with the +Inf bucket.
        let badcount = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n";
        assert!(validate_exposition(badcount).unwrap_err().contains("_count"));
        // Unsorted families within a kind.
        let unsorted = "# TYPE b counter\nb 1\n# TYPE a counter\na 1\n";
        assert!(validate_exposition(unsorted).unwrap_err().contains("sorted"));
        // Sample under the wrong family.
        let stray = "# TYPE a counter\nother 1\n";
        assert!(validate_exposition(stray).unwrap_err().contains("not under"));
        // The pre-fix labeled-histogram shape must be rejected.
        let prefix_bug =
            "# TYPE h{tenant=\"a\"} histogram\nh{tenant=\"a\"}_bucket{le=\"+Inf\"} 1\n\
                          h{tenant=\"a\"}_sum 1\nh{tenant=\"a\"}_count 1\n";
        assert!(validate_exposition(prefix_bug).is_err());
    }

    #[test]
    fn registry_snapshot_passes_validation_with_labeled_families() {
        let m = crate::metrics::MetricsRegistry::new();
        m.inc("rheem_jobs_total", 3);
        m.inc("rheem_jobs_total{tenant=\"a\"}", 2);
        m.inc("rheem_jobs_total{tenant=\"b\"}", 1);
        m.set_gauge("rheem_tenant_in_flight{tenant=\"a\"}", 1.0);
        m.observe("rheem_tenant_job_phase_ms{phase=\"exec\",tenant=\"a\"}", 12.0);
        m.observe("rheem_tenant_job_phase_ms{phase=\"queue\",tenant=\"b\"}", 0.3);
        m.observe("rheem_job_virtual_ms", 9.0);
        validate_exposition(&m.snapshot_prometheus()).unwrap();
    }
}
