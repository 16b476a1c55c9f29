//! The one result schema: metric tables (mirrored by `BENCHMARK.json`),
//! the `workload metric value unit n=<samples>` lines and their JSON twin.

use std::fmt::Write as _;

/// A metric `BENCHMARK.json` lists.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees, on every workload. Measured with the
/// harness's span recording off.
///
/// How much each may worsen before a change counts as a regression is set
/// per workload (`Workload::bounds`, in this order; `--selfcheck` checks
/// against them and `perf/README.md` lists them beside the measured
/// spreads). `BENCHMARK.json` has room for one bound per metric, which has
/// to hold on every workload: it carries the widest of each column.
pub const END_TO_END: [MetricDef; 5] = [
    metric("job_wall_ms_p50", "ms", "lower"),
    metric("cold_wall_ms_p50", "ms", "lower"),
    metric("jobs_per_s", "1/s", "higher"),
    metric("job_virtual_ms_p50", "ms", "lower"),
    metric("setup_s", "s", "lower"),
];

/// Single layers, taken in the traced run on every workload. Layer =
/// module name. Counts are per job, averaged over one round of the
/// workload's job kinds; cache counts are per session cycle.
pub const PER_LAYER: [MetricDef; 32] = [
    metric("plan.build_ms", "ms", "lower"),
    metric("optimizer.optimize_ms", "ms", "lower"),
    metric("optimizer.share_of_job", "ratio", "lower"),
    metric("optimizer.candidates", "count", "lower"),
    metric("optimizer.partials_created", "count", "lower"),
    metric("optimizer.partials_pruned", "count", "higher"),
    metric("optimizer.prune_ratio", "ratio", "higher"),
    metric("optimizer.choice_regret", "ratio", "lower"),
    metric("execplan.build_ms", "ms", "lower"),
    metric("execplan.stages", "count", "lower"),
    metric("execplan.nodes", "count", "lower"),
    metric("execplan.platforms", "count", "lower"),
    metric("executor.exec_ms", "ms", "lower"),
    metric("executor.stage_runs", "count", "lower"),
    metric("executor.operators_run", "count", "lower"),
    metric("executor.tuples_out", "count", "lower"),
    metric("executor.replans", "count", "lower"),
    metric("executor.retries", "count", "lower"),
    metric("executor.us_per_stage_run", "us", "lower"),
    metric("telemetry.ms", "ms", "lower"),
    metric("telemetry.share_of_job", "ratio", "lower"),
    metric("service.outside_exec_ms", "ms", "lower"),
    metric("cache.hit_ratio", "ratio", "higher"),
    metric("cache.inserts", "count", "lower"),
    metric("cache.spills", "count", "lower"),
    metric("cache.promotions", "count", "lower"),
    metric("cache.evictions", "count", "lower"),
    metric("cache.resident_bytes", "bytes", "lower"),
    metric("cache.spilled_bytes", "bytes", "lower"),
    metric("residual_ms", "ms", "lower"),
    metric("trace_overhead_ratio", "ratio", "lower"),
    metric("process.peak_rss_mb", "MB", "lower"),
];

/// One measured value. `value: None` prints as `n/a` (the metric does not
/// apply to this workload); `n` is the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub n: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: Option<f64>, unit: &'static str, n: usize) -> Self {
        Metric { name: name.into(), value, unit, n }
    }

    /// A metric of one of the tables, with the table's unit.
    pub fn listed(table: &[MetricDef], name: &str, value: Option<f64>, n: usize) -> Self {
        let def = table.iter().find(|d| d.name == name).expect("metric is in its table");
        Metric::new(name, value, def.unit, n)
    }
}

/// Everything one run of one workload reports.
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Report {
    /// `workload metric value unit n=<samples>`, one line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let value = m.value.map_or("n/a".to_string(), number);
            let _ = writeln!(out, "{} {} {} {} n={}", self.workload, m.name, value, m.unit, m.n);
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(out, "{} failed_ratio {ratio} ratio n={}", self.workload, self.attempted);
        out
    }

    /// The same as a JSON object (`--json`).
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"attempted\": {}, \"failed\": {}, \"metrics\": [",
            self.workload, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = m.value.map_or("null".to_string(), number);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"metric\": \"{}\", \"value\": {value}, \"unit\": \"{}\", \"n\": {}}}",
                m.name, m.unit, m.n
            );
        }
        out.push_str("]}");
        out
    }

    /// The contract's last line: exactly the metrics of `table`.
    pub fn last_line(&self, table: &[MetricDef]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, def) in table.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|m| m.name == def.name)
                .and_then(|m| m.value)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("{}: no value for {}", self.workload, def.name))?;
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// The one bound `BENCHMARK.json` can give a metric: the widest any
    /// workload needs.
    fn widest_bound(metric: usize) -> f64 {
        WORKLOADS.iter().map(|w| w.bounds[metric]).fold(0.0, f64::max)
    }

    /// `BENCHMARK.json` is this text: the tables above and `WORKLOADS` are
    /// its only source.
    fn benchmark_json() -> String {
        let mut out = String::from("{\n");
        out.push_str(
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
             \"perf/Cargo.toml\", \"--\"],\n",
        );
        out.push_str("  \"paths\": [\"perf\"],\n");
        let _ = writeln!(out, "  \"run_seconds\": {},", crate::RUN_SECONDS);
        out.push_str("  \"workloads\": [\n");
        for (i, w) in WORKLOADS.iter().enumerate() {
            let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
            let _ = writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
        }
        out.push_str("  ],\n  \"end_to_end\": [\n");
        for (i, d) in END_TO_END.iter().enumerate() {
            let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
                d.name,
                d.unit,
                d.better,
                widest_bound(i)
            );
        }
        out.push_str("  ],\n  \"per_layer\": [\n");
        for (i, d) in PER_LAYER.iter().enumerate() {
            let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
                d.name, d.unit, d.better
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// `PERF_REGENERATE=1 cargo test --manifest-path perf/Cargo.toml` rewrites
    /// the file after a change to the tables.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if std::env::var_os("PERF_REGENERATE").is_some() {
            std::fs::write(path, benchmark_json()).expect("BENCHMARK.json is writable");
        }
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "BENCHMARK.json differs from perf/src/schema.rs");
    }

    #[test]
    fn names_units_and_reasons_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name) && unit_ok(d.unit), "{}", d.name);
            assert!(d.better == "lower" || d.better == "higher");
            assert!(seen.insert(d.name), "{} is listed twice", d.name);
        }
        for w in &WORKLOADS {
            assert!(w.bounds.iter().all(|&b| b > 0.0 && b <= 0.25), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn last_line_holds_exactly_the_listed_metrics() {
        let mut report = Report {
            workload: "w",
            metrics: END_TO_END.iter().map(|d| Metric::new(d.name, Some(1.5), d.unit, 3)).collect(),
            attempted: 3,
            failed: 0,
        };
        report.metrics.push(Metric::new("extra", None, "ms", 0));
        let line = report.last_line(&END_TO_END).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(
            line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}")
                && !line.contains("extra")
        );
        assert!(report.lines().contains("w extra n/a ms n=0"));
        report.metrics.remove(0);
        assert!(report.last_line(&END_TO_END).is_err());
    }
}
