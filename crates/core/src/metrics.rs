//! Job metrics registry: monotonic counters and virtual-time histograms
//! with a Prometheus text-exposition snapshot.
//!
//! [`crate::api::RheemContext`] owns one registry and feeds it after every
//! job from the job's [`crate::api::JobMetrics`] and trace, so long-running
//! drivers can scrape cumulative operational metrics without keeping every
//! [`crate::trace::JobTrace`] around.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Default bucket upper bounds for virtual-millisecond histograms.
pub const DEFAULT_MS_BOUNDS: [f64; 12] =
    [0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 5_000.0];

/// A cumulative histogram over fixed bucket bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Bucket upper bounds (an implicit `+Inf` bucket follows the last).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (len = `bounds.len() + 1`).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Self { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], count: 0, sum: 0.0 }
    }

    fn observe(&mut self, value: f64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation within the bounding bucket, the standard
    /// Prometheus-style estimator: the target rank `q * count` is located in
    /// the first bucket whose cumulative count reaches it, and the value is
    /// interpolated between the bucket's lower and upper bound assuming
    /// uniform spread. The first bucket's lower edge is 0; observations in
    /// the `+Inf` overflow bucket clamp to the last finite bound (there is
    /// no upper edge to interpolate toward). Returns `None` when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if c > 0 && cum as f64 >= target {
                if i == self.bounds.len() {
                    // +Inf overflow bucket: clamp to the last finite bound.
                    return self.bounds.last().copied();
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let frac = ((target - prev as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
        }
        // count > 0 guarantees some bucket is non-empty; unreachable.
        None
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, f64>,
}

/// The Prometheus metric-family name of a key: the part before any `{...}`
/// label set, so `rheem_cache_bytes{tenant="a"}` and `...{tenant="b"}`
/// share one `# TYPE` line.
fn family(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Split a registry key into its family name and the label set between the
/// braces (without them): `a_ms{tenant="x"}` → `("a_ms", Some("tenant=\"x\""))`.
fn split_key(key: &str) -> (&str, Option<&str>) {
    match key.find('{') {
        Some(i) => (&key[..i], Some(key[i + 1..].trim_end_matches('}'))),
        None => (key, None),
    }
}

/// Thread-safe metrics registry (counters + histograms).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment counter `name` by `delta`.
    pub fn inc(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Observe `value` in histogram `name` (created with
    /// [`DEFAULT_MS_BOUNDS`] on first use).
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(&DEFAULT_MS_BOUNDS))
            .observe(value);
    }

    /// Raise counter `name` to `value` if it is below it (no-op otherwise).
    /// Lets concurrent publishers export an externally-maintained cumulative
    /// counter (e.g. per-tenant cache stats) without read-modify-write
    /// races: the counter stays monotonic no matter the interleaving.
    pub fn set_counter_max(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        let c = inner.counters.entry(name.to_string()).or_insert(0);
        *c = (*c).max(value);
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.insert(name.to_string(), value);
    }

    /// Current value of a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.lock().unwrap().gauges.get(name).copied()
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().unwrap().counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.lock().unwrap().histograms.get(name).cloned()
    }

    /// Prometheus text-exposition snapshot (counters as `counter`, gauges
    /// as `gauge`, histograms as cumulative-bucket `histogram` families).
    ///
    /// Samples are grouped by *family* (the key before any `{...}` label
    /// set) with exactly one `# TYPE` line per family preceding all of its
    /// series. Grouping must be explicit: `{` (0x7B) sorts after lowercase
    /// ASCII, so same-family labeled keys are not adjacent in plain
    /// key-sorted order. Labeled histogram keys render the label set after
    /// the `_bucket`/`_sum`/`_count` suffix, merged with `le`
    /// (`name_bucket{tenant="a",le="1"}`); unlabeled keys keep the compact
    /// `name_sum`/`name_count` form. Output is deterministic: families and
    /// series are emitted in sorted order.
    pub fn snapshot_prometheus(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        let mut counter_fams: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
        for (k, v) in &inner.counters {
            counter_fams.entry(family(k)).or_default().push((k.as_str(), *v));
        }
        for (fam, series) in &counter_fams {
            let _ = writeln!(out, "# TYPE {fam} counter");
            for (k, v) in series {
                let _ = writeln!(out, "{k} {v}");
            }
        }
        let mut gauge_fams: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
        for (k, v) in &inner.gauges {
            gauge_fams.entry(family(k)).or_default().push((k.as_str(), *v));
        }
        for (fam, series) in &gauge_fams {
            let _ = writeln!(out, "# TYPE {fam} gauge");
            for (k, v) in series {
                let _ = writeln!(out, "{k} {v}");
            }
        }
        let mut histo_fams: BTreeMap<&str, Vec<(Option<&str>, &Histogram)>> = BTreeMap::new();
        for (k, h) in &inner.histograms {
            let (fam, labels) = split_key(k);
            histo_fams.entry(fam).or_default().push((labels, h));
        }
        for (fam, series) in &histo_fams {
            let _ = writeln!(out, "# TYPE {fam} histogram");
            for (labels, h) in series {
                let mut cum = 0u64;
                for (&b, &c) in h.bounds.iter().zip(&h.counts) {
                    cum += c;
                    match labels {
                        Some(ls) => {
                            let _ = writeln!(out, "{fam}_bucket{{{ls},le=\"{b}\"}} {cum}");
                        }
                        None => {
                            let _ = writeln!(out, "{fam}_bucket{{le=\"{b}\"}} {cum}");
                        }
                    }
                }
                cum += h.counts[h.bounds.len()];
                match labels {
                    Some(ls) => {
                        let _ = writeln!(out, "{fam}_bucket{{{ls},le=\"+Inf\"}} {cum}");
                        let _ = writeln!(out, "{fam}_sum{{{ls}}} {}", h.sum);
                        let _ = writeln!(out, "{fam}_count{{{ls}}} {}", h.count);
                    }
                    None => {
                        let _ = writeln!(out, "{fam}_bucket{{le=\"+Inf\"}} {cum}");
                        let _ = writeln!(out, "{fam}_sum {}", h.sum);
                        let _ = writeln!(out, "{fam}_count {}", h.count);
                    }
                }
            }
        }
        out
    }

    /// Clear every counter and histogram.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.clear();
        inner.histograms.clear();
        inner.gauges.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = MetricsRegistry::new();
        m.inc("rheem_jobs_total", 1);
        m.inc("rheem_jobs_total", 2);
        assert_eq!(m.counter("rheem_jobs_total"), 3);
        assert_eq!(m.counter("missing"), 0);
        m.reset();
        assert_eq!(m.counter("rheem_jobs_total"), 0);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let m = MetricsRegistry::new();
        m.observe("rheem_job_virtual_ms", 0.4);
        m.observe("rheem_job_virtual_ms", 7.0);
        m.observe("rheem_job_virtual_ms", 1_000_000.0);
        let h = m.histogram("rheem_job_virtual_ms").unwrap();
        assert_eq!(h.count, 3);
        assert!((h.sum - 1_000_007.4).abs() < 1e-9);
        assert_eq!(h.counts[0], 1); // <= 0.5
        assert_eq!(h.counts[h.bounds.len()], 1); // +Inf overflow bucket
    }

    #[test]
    fn snapshots_render_both_families() {
        let m = MetricsRegistry::new();
        m.inc("rheem_retries_total", 2);
        m.observe("rheem_stage_virtual_ms", 3.0);
        let prom = m.snapshot_prometheus();
        assert!(prom.contains("# TYPE rheem_retries_total counter"));
        assert!(prom.contains("rheem_stage_virtual_ms_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("rheem_stage_virtual_ms_count 1"));
    }

    #[test]
    fn labeled_histograms_share_one_type_line_and_merge_le() {
        let m = MetricsRegistry::new();
        m.observe("rheem_phase_ms{phase=\"exec\",tenant=\"a\"}", 3.0);
        m.observe("rheem_phase_ms{phase=\"exec\",tenant=\"b\"}", 700.0);
        m.observe("rheem_phase_ms", 1.0);
        let prom = m.snapshot_prometheus();
        assert_eq!(prom.matches("# TYPE rheem_phase_ms histogram").count(), 1);
        // Label set merged after the suffix, with `le` appended last.
        assert!(prom.contains("rheem_phase_ms_bucket{phase=\"exec\",tenant=\"a\",le=\"5\"} 1"));
        assert!(prom.contains("rheem_phase_ms_bucket{phase=\"exec\",tenant=\"b\",le=\"+Inf\"} 1"));
        assert!(prom.contains("rheem_phase_ms_sum{phase=\"exec\",tenant=\"a\"} 3"));
        assert!(prom.contains("rheem_phase_ms_count{phase=\"exec\",tenant=\"b\"} 1"));
        // Unlabeled series keeps the compact form.
        assert!(prom.contains("rheem_phase_ms_sum 1\n"));
        assert!(prom.contains("rheem_phase_ms_count 1\n"));
        // Never the broken pre-fix shape `name{labels}_bucket{...}`.
        assert!(!prom.contains("}_bucket"));
        // Deterministic output.
        assert_eq!(prom, m.snapshot_prometheus());
    }

    #[test]
    fn quantile_interpolates_within_bounding_bucket() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        // Four observations in (1, 2]: ranks spread uniformly across bucket.
        for _ in 0..4 {
            h.observe(1.5);
        }
        // p50 target rank = 2 of 4, halfway through the (1, 2] bucket.
        assert!((h.quantile(0.5).unwrap() - 1.5).abs() < 1e-9);
        // p100 reaches the bucket's upper bound exactly.
        assert!((h.quantile(1.0).unwrap() - 2.0).abs() < 1e-9);
        // p0 sits at the bucket's lower edge.
        assert!((h.quantile(0.0).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_bucket_edges_and_overflow() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        assert_eq!(h.quantile(0.5), None); // empty
        h.observe(0.5); // first bucket: lower edge is 0
        assert!(h.quantile(0.0).unwrap().abs() < 1e-9);
        assert!((h.quantile(1.0).unwrap() - 1.0).abs() < 1e-9);
        // Overflow observations clamp to the last finite bound.
        let mut o = Histogram::new(&[1.0, 2.0]);
        o.observe(100.0);
        o.observe(200.0);
        assert!((o.quantile(0.5).unwrap() - 2.0).abs() < 1e-9);
        assert!((o.quantile(0.99).unwrap() - 2.0).abs() < 1e-9);
        // Out-of-range q clamps.
        assert!((o.quantile(7.0).unwrap() - 2.0).abs() < 1e-9);
    }
}
