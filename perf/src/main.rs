//! `perf` — the repo's benchmark: seven named workloads, two clocks (host
//! wall ms and the program's virtual cluster ms), one result schema, and a
//! traced run that attributes wall time to layers. See `perf/README.md`
//! for the glossary and `BENCHMARK.json` for the contract.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     [--workload <name>|all] [--seed N] [--trace 0|1] [--json PATH] [--selfcheck]
//! ```
//!
//! The builder contract's runner also passes `--seconds <run_seconds>`; any
//! other value is refused, so two commits are never compared at different
//! run lengths.

mod layers;
mod run;
mod schema;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use run::{Env, Leg};
use schema::{Metric, MetricDef, Report, END_TO_END, PER_LAYER};
use spans::Recorder;
use stats::{highest_supported, p50, percentile};
use workloads::{Shape, Workload, WORKLOADS};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`): a constant
/// of the benchmark, not an option.
pub const RUN_SECONDS: u64 = 10;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Every environment toggle of the program; removed before first use so a
/// run measures the program's defaults whatever the caller's shell holds.
const PINNED_ENV: [&str; 8] = [
    "RHEEM_BATCH",
    "RHEEM_SCHED",
    "RHEEM_CACHE",
    "RHEEM_CACHE_MB",
    "RHEEM_CACHE_DISK_MB",
    "RHEEM_POOL",
    "RHEEM_OBS_ADDR",
    "RHEEM_BENCH_SCALE",
];

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    json: Option<PathBuf>,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: "all".to_string(), seed: 1, trace: false, json: None, selfcheck: false };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name or `all`")?,
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            // Only the builder contract's runner passes this, and only ever
            // `run_seconds`.
            "--seconds" => {
                if value("a number")?.parse() != Ok(RUN_SECONDS as f64) {
                    return Err(format!("--seconds is fixed at {RUN_SECONDS} (run_seconds)"));
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--json" => args.json = Some(value("a path")?.into()),
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && workloads::find(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {}; one of: all {}", args.workload, names.join(" ")));
    }
    Ok(args)
}

/// Peak resident set of this process (VmHWM), if the kernel reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// HEAD of the checkout the benchmark runs in, when it is a git checkout.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let sha = match head.trim().strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(Path::new(".git").join(reference)).unwrap_or_default()
        }
        None => head,
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".to_string()
    } else {
        sha.to_string()
    }
}

/// `perf/`: everything a run leaves behind stays under it, in `tmp/` and
/// `out/`, which `perf/.gitignore` names.
const PERF_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// A fresh scratch directory under `perf/tmp/` for everything a run writes
/// (HDFS sandbox, the program's temp files and spill tier); removed when
/// the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Res<RunDir> {
        let nanos = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH)?.as_nanos();
        let dir =
            Path::new(PERF_DIR).join("tmp").join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(dir.join("tmp"))?;
        // The program places its local files and spill tier under the
        // system temp dir: keep those under `perf/` too.
        std::env::set_var("TMPDIR", dir.join("tmp"));
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only when no other run is using it
        }
    }
}

fn header(w: &Workload, args: &Args, env: &Env) {
    let mut kinds: Vec<String> =
        env.inputs.kinds.iter().zip(&env.chosen).map(|(k, p)| format!("{}={p}", k.name)).collect();
    if env.chosen.len() > 1 && env.chosen.iter().all(|p| *p == env.chosen[0]) {
        kinds = vec![format!("every job={}", env.chosen[0])];
    }
    println!(
        "# workload={} seed={} seconds={} trace={} git={} nproc={} pool={} platforms: {}",
        w.name,
        args.seed,
        RUN_SECONDS,
        args.trace as u8,
        git_sha(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rheem_core::pool::size(),
        kinds.join(" "),
    );
    println!("# why: {}", w.why);
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The end-to-end metrics of one measured leg.
fn end_to_end(w: &Workload, setups: &[f64], leg: &Leg) -> Report {
    let session = matches!(w.shape, Shape::Session { .. });
    let jobs = sorted(leg.walls(false));
    // With the result cache off every job recomputes: all jobs are cold.
    let cold = if session { sorted(leg.walls(true)) } else { jobs.clone() };
    let virtuals: Vec<f64> = leg.ok(false).map(|(_, f)| f.virtual_ms).collect();
    let completed = leg.samples.len() - leg.failed();
    let listed = |name, value, n| Metric::listed(&END_TO_END, name, value, n);
    let mut metrics = vec![
        listed("job_wall_ms_p50", percentile(&jobs, 50.0), jobs.len()),
        listed("cold_wall_ms_p50", percentile(&cold, 50.0), cold.len()),
        listed("jobs_per_s", Some(completed as f64 / leg.elapsed_s), completed),
        listed("job_virtual_ms_p50", p50(&virtuals), virtuals.len()),
        listed("setup_s", p50(setups), setups.len()),
    ];
    // Diagnostics: printed, not gated.
    if let Some(p) = highest_supported(jobs.len()) {
        metrics.push(Metric::new(
            format!("job_wall_ms_p{p}"),
            percentile(&jobs, p),
            "ms",
            jobs.len(),
        ));
    }
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
    Report { workload: w.name, metrics, attempted: leg.samples.len(), failed: leg.failed() }
}

/// One workload in this process: set up, measure, print. `false` when a
/// job failed or gave a wrong sink (or none ran): the numbers are printed,
/// but the run does not count.
fn run_workload(w: &'static Workload, args: &Args) -> Res<bool> {
    let dir = RunDir::create()?;
    let hdfs = dir.0.join("hdfs");
    let (report, table): (Report, &[MetricDef]) = if args.trace {
        let env = Env::set_up(w, args.seed, 1, &hdfs)?;
        header(w, args, &env);
        let traced = layers::run(w.name, &env, RUN_SECONDS as f64)?;
        let out = Path::new(PERF_DIR).join("out");
        std::fs::create_dir_all(&out)?;
        let path = out.join(format!("{}.spans.json", w.name));
        std::fs::write(&path, spans::to_json(&traced.spans))?;
        println!("# {} spans written to {}", traced.spans.len(), path.display());
        (traced.report, &PER_LAYER)
    } else {
        // Set up several times: `setup_s` is the median, the last one runs.
        let mut setups = Vec::new();
        let mut env = None;
        for _ in 0..SETUPS {
            drop(env.take());
            let t0 = Instant::now();
            env = Some(Env::set_up(w, args.seed, 1, &hdfs)?);
            setups.push(t0.elapsed().as_secs_f64());
        }
        let env = env.expect("set up at least once");
        header(w, args, &env);
        let leg = env.measure(&env.driver, RUN_SECONDS as f64, &Recorder::new(false), false)?;
        (end_to_end(w, &setups, &leg), &END_TO_END)
    };
    print!("{}", report.lines());
    if let Some(path) = &args.json {
        std::fs::write(path, report.json())?;
    }
    println!("{}", report.last_line(table)?);
    Ok(report.failed == 0 && report.attempted > 0)
}

/// `((workload, metric), value)` in printing order.
type Values = Vec<((String, String), f64)>;

/// The `workload metric value ...` lines of a child's output.
fn parse_lines(stdout: &str) -> Values {
    stdout
        .lines()
        .filter(|l| !l.starts_with(['#', '{']))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let key = (f.next()?.to_string(), f.next()?.to_string());
            Some((key, f.next()?.parse().ok()?))
        })
        .collect()
}

/// Every workload, one process each (so `peak_rss_mb` is per workload).
/// Returns the children's metric lines and their JSON reports.
fn run_all(args: &Args, trace: bool) -> Res<(Values, Vec<String>)> {
    let dir = RunDir::create()?;
    let (mut values, mut reports) = (Vec::new(), Vec::new());
    for w in &WORKLOADS {
        let json = dir.0.join(format!("{}.json", w.name));
        let out = Command::new(std::env::current_exe()?)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--json")
            .arg(&json)
            .stderr(std::process::Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            let why = "a job failed or gave a wrong sink, or the run broke";
            return Err(format!("{} exited with {}: {why}", w.name, out.status).into());
        }
        values.extend(parse_lines(&stdout));
        reports.push(std::fs::read_to_string(&json)?);
    }
    Ok((values, reports))
}

/// Counts that must repeat exactly between two runs of the same build.
const EXACT_COUNTS: [&str; 4] =
    ["executor.stage_runs", "cache.spills", "cache.promotions", "optimizer.partials_created"];

/// A/A noise check: the whole set twice on the same build. Fails when an
/// end-to-end metric moved by more than its bound on that workload between
/// the two, or an exact count changed. A child in which a job failed or
/// gave a wrong sink exits non-zero, which ends the check with an error.
fn selfcheck(args: &Args) -> Res<bool> {
    type Lookup = std::collections::HashMap<(String, String), f64>;
    let mut ok = true;
    let first = run_all(args, false)?.0;
    let second: Lookup = run_all(args, false)?.0.into_iter().collect();
    println!("# selfcheck: how much worse the second set is than the first, against the bound");
    for (key, a) in &first {
        let bound = workloads::find(&key.0).and_then(|w| w.bound(&key.1));
        let (Some(def), Some(bound), Some(b)) =
            (END_TO_END.iter().find(|d| d.name == key.1), bound, second.get(key))
        else {
            continue;
        };
        let worse = if def.better == "lower" { b / a - 1.0 } else { a / b - 1.0 };
        let verdict = if worse.abs() <= bound { "ok" } else { "EXCEEDS" };
        ok &= worse.abs() <= bound;
        println!("{} {} {a} -> {b} {worse:+.4} bound {bound} {verdict}", key.0, key.1);
    }
    let first = run_all(args, true)?.0;
    let second: Lookup = run_all(args, true)?.0.into_iter().collect();
    for (key, a) in first.iter().filter(|(key, _)| EXACT_COUNTS.contains(&key.1.as_str())) {
        let b = second.get(key).copied().unwrap_or(f64::NAN);
        ok &= *a == b;
        let verdict = if *a == b { "ok" } else { "DIFFERS" };
        println!("{} {} {a} -> {b} exact {verdict}", key.0, key.1);
    }
    Ok(ok)
}

fn real_main() -> Res<ExitCode> {
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    let args = parse_args()?;
    if args.selfcheck {
        let ok = selfcheck(&args)?;
        println!("# selfcheck {}", if ok { "passed" } else { "FAILED" });
        return Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }
    match workloads::find(&args.workload) {
        Some(w) => {
            if !run_workload(w, &args)? {
                return Ok(ExitCode::FAILURE);
            }
        }
        None => {
            let (_, reports) = run_all(&args, args.trace)?;
            let all =
                format!("{{\"seed\": {}, \"workloads\": [{}]}}", args.seed, reports.join(", "));
            if let Some(path) = &args.json {
                std::fs::write(path, &all)?;
            }
            println!("{all}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}
