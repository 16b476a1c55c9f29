//! Benchmark harness: shared task builders, contexts and reporting for the
//! `fig*` binaries that regenerate every table and figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
//! the recorded numbers).
//!
//! Reported runtimes are **virtual cluster milliseconds** (see
//! `rheem_core::platform` for the virtual-time substitution rationale);
//! the shapes — who wins, by what factor, where crossovers fall — are the
//! reproduction targets, not absolute numbers.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;

use rheem_core::api::RheemContext;
use rheem_core::error::Result;
use rheem_core::plan::{OperatorId, PlanBuilder, RheemPlan};
use rheem_core::platform::{ids, PlatformId};
use rheem_core::udf::{FlatMapUdf, KeyUdf, MapUdf, ReduceUdf};

/// A context with JavaStreams + Spark + Flink (the general-purpose trio).
pub fn default_context() -> RheemContext {
    RheemContext::new()
        .with_platform(&platform_javastreams::JavaStreamsPlatform::new())
        .with_platform(&platform_spark::SparkPlatform::new())
        .with_platform(&platform_flink::FlinkPlatform::new())
}

/// The default context plus the graph platforms.
pub fn graph_context() -> RheemContext {
    let mut ctx = default_context();
    ctx.register_platform(&platform_graph::GiraphPlatform::new());
    ctx.register_platform(&platform_graph::JGraphPlatform::new());
    ctx.register_platform(&platform_graph::GraphChiPlatform::new());
    ctx
}

/// Result collector: prints aligned rows and accumulates a TSV file under
/// `results/`.
pub struct Report {
    name: String,
    tsv: String,
}

impl Report {
    /// Start a report for one figure.
    pub fn new(name: &str) -> Self {
        println!("== {name} ==");
        Self { name: name.to_string(), tsv: String::from("series\tx\tvirtual_ms\tnote\n") }
    }

    /// Record one measurement.
    pub fn row(&mut self, series: &str, x: impl std::fmt::Display, virtual_ms: f64, note: &str) {
        println!("{series:<28} x={x:<10} {:>12.1} ms  {note}", virtual_ms);
        let _ = writeln!(self.tsv, "{series}\t{x}\t{virtual_ms:.3}\t{note}");
    }

    /// Record a failure (the paper's red ✗ / "killed" marks).
    pub fn failed(&mut self, series: &str, x: impl std::fmt::Display, why: &str) {
        println!("{series:<28} x={x:<10} {:>12}  ✗ {why}", "-");
        let _ = writeln!(self.tsv, "{series}\t{x}\tNaN\t✗ {why}");
    }

    /// Flush the TSV under `results/<name>.tsv`.
    pub fn save(&self) {
        let dir = PathBuf::from("results");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.tsv", self.name));
        if std::fs::write(&path, &self.tsv).is_ok() {
            println!("-- saved {}", path.display());
        }
    }
}

/// Minimal wall-clock micro-benchmark support (replaces the external
/// criterion dependency): warm up once, run a fixed iteration count, report
/// mean and min wall-clock ms.
pub mod harness {
    use std::time::Instant;

    /// One measured series.
    #[derive(Clone, Debug)]
    pub struct Measurement {
        /// Series label.
        pub name: String,
        /// Mean wall-clock per iteration.
        pub mean_ms: f64,
        /// Fastest iteration.
        pub min_ms: f64,
        /// Iterations measured (after one warm-up run).
        pub iters: u32,
    }

    /// Time `f` over `iters` runs after one warm-up; prints an aligned row
    /// and returns the measurement.
    pub fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> Measurement {
        let _ = f(); // warm-up
        let mut total = 0.0;
        let mut min = f64::INFINITY;
        for _ in 0..iters.max(1) {
            let t = Instant::now();
            std::hint::black_box(f());
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            total += ms;
            min = min.min(ms);
        }
        let m = Measurement {
            name: name.to_string(),
            mean_ms: total / iters.max(1) as f64,
            min_ms: min,
            iters: iters.max(1),
        };
        println!(
            "{:<40} {:>10.2} ms/iter  (min {:>8.2} ms, {} iters)",
            m.name, m.mean_ms, m.min_ms, m.iters
        );
        m
    }
}

/// Scale knob shared by the harness binaries: `RHEEM_BENCH_SCALE` (default
/// 1.0) multiplies dataset sizes, letting CI run tiny sweeps and a real
/// machine run the full ones.
pub fn scale() -> f64 {
    std::env::var("RHEEM_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

// ---------------------------------------------------------------------------
// Task builders
// ---------------------------------------------------------------------------

/// Build the WordCount plan over a text file (Table 1's text-mining task).
///
/// Built from the spec'd UDF constructors, so the whole tokenize → pair →
/// sum-by-key chain compiles to vector kernels when batch execution is on
/// (the default; identical row-mode semantics, see `rheem_core::batch`).
pub fn wordcount_plan(path: impl Into<PathBuf>) -> Result<(RheemPlan, OperatorId)> {
    let mut b = PlanBuilder::new();
    let sink = b
        .read_text_file(path.into())
        .flat_map(FlatMapUdf::split_whitespace("split"))
        .map(MapUdf::pair_with_int("pair", 1))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .collect();
    b.build().map(|p| (p, sink))
}

/// Write a WordCount corpus of `kb` kilobytes to HDFS; returns its URI.
pub fn corpus_file(tag: &str, kb: usize, seed: u64) -> PathBuf {
    let path = PathBuf::from(format!("hdfs://bench/{tag}_{kb}kb.txt"));
    if rheem_storage::stat(&path).is_err() {
        rheem_datagen::text::write_corpus(&path, kb, seed).expect("corpus written");
    }
    path
}

/// Write a CrocoPR community pair of roughly `edges` edges; returns the two
/// edge-file URIs.
pub fn community_files(tag: &str, edges: usize, seed: u64) -> (PathBuf, PathBuf) {
    let fa = PathBuf::from(format!("hdfs://bench/{tag}_{edges}_a.edges"));
    let fb = PathBuf::from(format!("hdfs://bench/{tag}_{edges}_b.edges"));
    if rheem_storage::stat(&fa).is_err() {
        let vertices = (edges / 4).max(16);
        let ea = rheem_datagen::generate_graph(vertices, 4, seed);
        let eb: Vec<(i64, i64)> = ea
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, e)| *e)
            .chain((0..edges as i64 / 10).map(|i| (i, i + 1)))
            .collect();
        rheem_datagen::graph::write_graph(&fa, &ea).expect("graph a");
        rheem_datagen::graph::write_graph(&fb, &eb).expect("graph b");
    }
    (fa, fb)
}

/// Run a plan on a context, returning the job's virtual ms.
pub fn run_virtual(ctx: &RheemContext, plan: &RheemPlan) -> Result<f64> {
    Ok(ctx.execute(plan)?.metrics.virtual_ms)
}

/// Run a plan forced onto one platform; `Err` maps to the paper's ✗ marks
/// (platform can't run it / out of memory).
pub fn run_forced(
    base: impl Fn() -> RheemContext,
    platform: PlatformId,
    plan: &RheemPlan,
) -> Result<f64> {
    let mut ctx = base();
    ctx.forced_platform = Some(platform);
    run_virtual(&ctx, plan)
}

/// Pretty platform label used in reports.
pub fn label(p: PlatformId) -> &'static str {
    match p {
        x if x == ids::JAVA_STREAMS => "JavaStreams",
        x if x == ids::SPARK => "Spark",
        x if x == ids::FLINK => "Flink",
        x if x == ids::POSTGRES => "Postgres",
        x if x == ids::GIRAPH => "Giraph",
        x if x == ids::JGRAPH => "JGraph",
        x if x == ids::GRAPHCHI => "GraphChi",
        _ => "?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wordcount_task_runs_on_default_context() {
        let path = corpus_file("libtest", 64, 3);
        let (plan, sink) = wordcount_plan(&path).unwrap();
        let ctx = default_context();
        let result = ctx.execute(&plan).unwrap();
        assert!(!result.sink(sink).unwrap().is_empty());
        assert!(result.metrics.virtual_ms > 0.0);
    }

    #[test]
    fn community_files_are_cached() {
        let (fa, _) = community_files("libtest", 2000, 5);
        let (fa2, _) = community_files("libtest", 2000, 5);
        assert_eq!(fa, fa2);
        assert!(rheem_storage::stat(&fa).unwrap().0 > 0);
    }

    #[test]
    fn report_collects_rows() {
        let mut r = Report::new("selftest");
        r.row("a", 1, 10.0, "");
        r.failed("b", 2, "killed");
        assert!(r.tsv.contains("a\t1"));
        assert!(r.tsv.contains("✗"));
    }
}
