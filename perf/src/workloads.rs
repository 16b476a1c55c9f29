//! The seven workloads: what each generates from the seed, the jobs it
//! runs, and the independent answer each job is checked against.
//!
//! Inputs depend only on `(seed, scale)`; the program under test sees the
//! generated files, tables and collections and nothing else.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use platform_postgres::PgDatabase;
use rheem_core::plan::{OperatorId, PlanBuilder, RheemPlan};
use rheem_core::udf::{FlatMapUdf, KeyUdf, MapUdf, ReduceUdf};
use rheem_core::value::{Dataset, Value};
use rheem_datagen::Rng;

use crate::schema::END_TO_END;
use crate::stats::Digest;
use crate::Res;

/// How a workload offers its jobs to the program. All three are closed
/// loops: a client sends its next job only after the previous one returned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// One client calling `RheemContext::execute`, result cache off.
    Single,
    /// `JobService` with one closed-loop client per tenant, cache off.
    Service { tenants: usize, runners: usize },
    /// One client over a shared `ResultCache`; a cycle is `clear()`, one
    /// cold pass over every job kind, then `warm_passes` passes that hit.
    /// `disk_bytes == 0` means no spill tier.
    Session { warm_passes: usize, mem_bytes: u64, disk_bytes: u64 },
}

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers this workload stresses and which it bypasses.
    pub why: &'static str,
    pub shape: Shape,
    /// The share of the parent's median by which each end-to-end metric may
    /// worsen on this workload, in the order of `schema::END_TO_END`: about
    /// three times the widest quartile spread it showed here over ten seeds
    /// (`perf/README.md`, *Bounds and noise*), at least 10 % on the host
    /// clock and 5 % on the virtual one. `BENCHMARK.json` has room for one
    /// bound per metric, so it carries the widest of each column.
    pub bounds: [f64; 5],
    generate: fn(u64, usize) -> Res<Inputs>,
}

impl Workload {
    /// Generate the inputs for `seed`. `scale` divides every input size
    /// (1 in the benchmark; the unit tests use small inputs).
    pub fn generate(&self, seed: u64, scale: usize) -> Res<Inputs> {
        (self.generate)(seed, scale.max(1))
    }

    /// The bound of the end-to-end metric `metric` on this workload.
    pub fn bound(&self, metric: &str) -> Option<f64> {
        END_TO_END.iter().position(|d| d.name == metric).map(|i| self.bounds[i])
    }

    /// The shape with its cache budgets divided like the inputs.
    pub fn shape_at(&self, scale: usize) -> Shape {
        match self.shape {
            Shape::Session { warm_passes, mem_bytes, disk_bytes } => Shape::Session {
                warm_passes,
                mem_bytes: mem_bytes / scale.max(1) as u64,
                disk_bytes: disk_bytes / scale.max(1) as u64,
            },
            other => other,
        }
    }
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "wordcount_16m",
        why: "16 MB HDFS read + fused tokenize + two-phase ReduceBy exchange are >99 % of the work, optimizer <0.2 %: the kernel/exchange workload",
        shape: Shape::Single,
        bounds: [0.25, 0.25, 0.25, 0.05, 0.25],
        generate: wordcount_16m,
    },
    Workload {
        name: "join_400k",
        why: "every row of a 400k-row fact crosses the shuffle and the output is materialised pairs with no combiner: the exchange used the way aggregation does not",
        shape: Shape::Single,
        bounds: [0.25, 0.25, 0.25, 0.05, 0.25],
        generate: join_400k,
    },
    Workload {
        name: "q5_polystore",
        why: "TPC-H Q5 over Postgres + HDFS + local file spends ~85 % of wall in optimize and little in kernels: the optimizer/execplan/movement workload",
        shape: Shape::Single,
        bounds: [0.15, 0.15, 0.15, 0.2, 0.25],
        generate: q5_polystore,
    },
    Workload {
        name: "sgd_loop_1k",
        why: "1000 iterations over almost no data per stage run, so per-stage dispatch, commit and telemetry dominate: the executor-loop workload, bypassing kernels and optimizer",
        shape: Shape::Single,
        bounds: [0.2, 0.2, 0.25, 0.05, 0.25],
        generate: sgd_loop_1k,
    },
    Workload {
        name: "service_mix_4t",
        why: "4 tenants on 2 runners submit 4-10 ms jobs, so admission, fair queueing, StageGate hand-off and per-job monitor merge are most of the latency: the service workload",
        shape: Shape::Service { tenants: 4, runners: 2 },
        bounds: [0.15, 0.15, 0.15, 0.05, 0.25],
        generate: service_mix_4t,
    },
    Workload {
        name: "cache_fit",
        why: "8 WordCount jobs whose ~68 MB of published entries fit a 256 MiB cache: publish cost on the cold pass and the memory-tier hit path on the warm passes",
        shape: Shape::Session { warm_passes: 20, mem_bytes: 256 << 20, disk_bytes: 0 },
        bounds: [0.15, 0.15, 0.25, 0.05, 0.25],
        generate: cache_session,
    },
    Workload {
        name: "cache_spill",
        why: "same 8 jobs with a 20 MiB memory tier, a third of the working set, so every warm hit is a disk promotion plus a spill: where the two clocks disagree in sign",
        shape: Shape::Session { warm_passes: 2, mem_bytes: 20 << 20, disk_bytes: 512 << 20 },
        bounds: [0.2, 0.25, 0.25, 0.05, 0.25],
        generate: cache_session,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What set-up generated: the job kinds and the relational store they read
/// (empty for workloads without tables).
pub struct Inputs {
    pub kinds: Vec<JobKind>,
    pub db: Arc<PgDatabase>,
}

pub type PlanFn = Box<dyn Fn() -> Res<(RheemPlan, OperatorId)> + Send + Sync>;

/// One repeatable job: how to build its plan and what its sink must hold.
pub struct JobKind {
    pub name: &'static str,
    pub build: PlanFn,
    pub oracle: Oracle,
}

/// The independent answer a job's sink is checked against in set-up. Timed
/// jobs are then compared by digest with the checked warm-up run.
pub enum Oracle {
    /// Computed without the program; sinks must digest equal.
    Exact(Digest),
    /// Computed without the program, but float sums depend on summation
    /// order: rows must match within a relative tolerance.
    Approx(Vec<Value>),
    /// No cheap independent answer: a property the sink must have, plus
    /// agreement with a run forced onto java.streams.
    Property(fn(&[Value]) -> bool),
}

fn pair_str_int(k: &str, n: i64) -> Value {
    Value::pair(Value::from(k), Value::from(n))
}

/// Write a seeded corpus of `kb` KB to HDFS; return its URI and the word
/// counts a HashMap gives for it.
fn corpus(name: &str, kb: usize, seed: u64) -> Res<(PathBuf, Digest)> {
    let path = PathBuf::from(format!("hdfs://perf/{name}.txt"));
    rheem_datagen::text::write_corpus(&path, kb.max(8), seed)?;
    let lines = rheem_storage::read_lines(&path)?;
    let mut counts: HashMap<&str, i64> = HashMap::new();
    for word in lines.iter().flat_map(|l| l.split_whitespace()) {
        *counts.entry(word).or_default() += 1;
    }
    let rows: Vec<Value> = counts.into_iter().map(|(w, n)| pair_str_int(w, n)).collect();
    Ok((path, Digest::of(&rows)))
}

fn wordcount_plan(path: &Path) -> Res<(RheemPlan, OperatorId)> {
    let mut b = PlanBuilder::new();
    let sink = b
        .read_text_file(path)
        .flat_map(FlatMapUdf::split_whitespace("split"))
        .map(MapUdf::pair_with_int("pair", 1))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .collect();
    Ok((b.build()?, sink))
}

fn wordcount_kind(name: &'static str, file: &str, kb: usize, seed: u64) -> Res<JobKind> {
    let (path, digest) = corpus(file, kb, seed)?;
    Ok(JobKind {
        name,
        build: Box::new(move || wordcount_plan(&path)),
        oracle: Oracle::Exact(digest),
    })
}

fn no_tables() -> Arc<PgDatabase> {
    Arc::new(PgDatabase::new())
}

fn wordcount_16m(seed: u64, scale: usize) -> Res<Inputs> {
    let kind = wordcount_kind("wordcount", "wordcount_16m", 16 * 1024 / scale, seed)?;
    Ok(Inputs { kinds: vec![kind], db: no_tables() })
}

fn join_400k(seed: u64, scale: usize) -> Res<Inputs> {
    let (facts, dims) = (400_000 / scale, (3_125 / scale).max(1));
    let mut rng = Rng::new(seed);
    let key = |i: u64| Value::from(format!("k{i:06}"));
    let dim: Vec<Value> = (0..dims as u64)
        .map(|i| Value::pair(key(i), Value::from(rng.below(1000) as i64)))
        .collect();
    let fact: Vec<Value> = (0..facts as i64)
        .map(|i| Value::pair(key(rng.below(dims as u64)), Value::from(i)))
        .collect();
    let by_key: HashMap<&Value, &Value> = dim.iter().map(|d| (d.field(0), d)).collect();
    let expected: Vec<Value> =
        fact.iter().map(|f| Value::pair(f.clone(), by_key[f.field(0)].clone())).collect();
    let oracle = Oracle::Exact(Digest::of(&expected));
    drop(expected);
    let (fact, dim): (Dataset, Dataset) = (Arc::new(fact), Arc::new(dim));
    let build = move || {
        let mut b = PlanBuilder::new();
        let f = b.dataset(Arc::clone(&fact));
        let d = b.dataset(Arc::clone(&dim));
        let sink = f.join(&d, KeyUdf::field(0), KeyUdf::field(0)).collect();
        Ok((b.build()?, sink))
    };
    Ok(Inputs {
        kinds: vec![JobKind { name: "join", build: Box::new(build), oracle }],
        db: no_tables(),
    })
}

fn q5_polystore(seed: u64, scale: usize) -> Res<Inputs> {
    let data = rheem_datagen::tpch::generate(1.0 / scale as f64, seed);
    let placement = dataciv::place(&data, "perf_q5")?;
    let db = Arc::clone(&placement.db);
    let expected = rheem_datagen::tpch::q5_reference(&data, "ASIA", 1995)
        .into_iter()
        .map(|(nation, revenue)| Value::pair(Value::from(nation), Value::from(revenue)))
        .collect();
    let build = move || Ok(dataciv::build_q5_plan(&placement, "ASIA", 1995)?);
    Ok(Inputs {
        kinds: vec![JobKind {
            name: "q5",
            build: Box::new(build),
            oracle: Oracle::Approx(expected),
        }],
        db,
    })
}

/// SGD has no cheap oracle with the program's sampling: require one finite
/// weight vector of the right width that is not the all-zero start.
fn sgd_weights_look_trained(rows: &[Value]) -> bool {
    let weights: Vec<f64> = rows
        .first()
        .and_then(Value::fields)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    rows.len() == 1
        && weights.len() == SGD_DIMS
        && weights.iter().all(|w| w.is_finite())
        && weights.iter().any(|&w| w != 0.0)
}

const SGD_DIMS: usize = 4;

fn sgd_kind(name: &'static str, points: usize, iterations: u32, seed: u64) -> JobKind {
    let points: Dataset =
        Arc::new(rheem_datagen::generate_points(points.max(64), SGD_DIMS, 0.05, seed).points);
    let cfg = ml4all::SgdConfig { dims: SGD_DIMS, batch: 64, iterations, ..Default::default() };
    let build = move || {
        Ok(ml4all::build_sgd_plan(ml4all::PointSource::InMemory(Arc::clone(&points)), &cfg)?)
    };
    JobKind { name, build: Box::new(build), oracle: Oracle::Property(sgd_weights_look_trained) }
}

fn sgd_loop_1k(seed: u64, scale: usize) -> Res<Inputs> {
    let iterations = (1000 / scale as u32).max(2);
    Ok(Inputs { kinds: vec![sgd_kind("sgd", 20_000 / scale, iterations, seed)], db: no_tables() })
}

fn service_mix_4t(seed: u64, scale: usize) -> Res<Inputs> {
    let data = rheem_datagen::tpch::generate(1.0 / scale as f64, seed);
    let placement = dataciv::place(&data, "perf_mix")?;
    let db = Arc::clone(&placement.db);
    let join_rows: Vec<Value> = dataciv::join_task_reference(&data)
        .into_iter()
        .map(|(nation, pairs)| Value::pair(Value::from(nation), Value::from(pairs)))
        .collect();
    let join_db = Arc::clone(&db);
    let join = JobKind {
        name: "fig10a_join",
        build: Box::new(move || Ok(dataciv::build_join_task(&join_db)?)),
        oracle: Oracle::Exact(Digest::of(&join_rows)),
    };
    let wordcount = wordcount_kind("wordcount_256k", "mix_256k", 256 / scale, seed)?;
    let sgd = sgd_kind("sgd_15", 10_000 / scale, 15, seed);
    Ok(Inputs { kinds: vec![join, wordcount, sgd], db })
}

const SESSION_CORPORA: [&str; 8] = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];

fn cache_session(seed: u64, scale: usize) -> Res<Inputs> {
    let kinds = SESSION_CORPORA
        .iter()
        .zip(0u64..)
        .map(|(name, i)| {
            let seed = seed.wrapping_mul(SESSION_CORPORA.len() as u64).wrapping_add(i);
            wordcount_kind(name, &format!("session_{name}"), 512 / scale, seed)
        })
        .collect::<Res<Vec<JobKind>>>()?;
    Ok(Inputs { kinds, db: no_tables() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Env;
    use crate::spans::Recorder;

    /// One traced leg of a small instance: the counts that must repeat.
    fn counts(
        name: &str,
        seed: u64,
        scale: usize,
        hdfs: &Path,
    ) -> (Vec<u64>, Vec<usize>, Vec<(u64, u64)>) {
        let env = Env::set_up(find(name).unwrap(), seed, scale, hdfs).unwrap();
        let leg = env.measure(&env.driver, 0.0, &Recorder::new(false), true).unwrap();
        assert_eq!(leg.failed(), 0, "{name}: a job failed or gave a wrong sink");
        (
            leg.samples.iter().map(|s| s.facts.as_ref().unwrap().stage_runs).collect(),
            leg.replays.iter().map(|r| r.partials_created).collect(),
            leg.cycles.iter().map(|c| (c.spills, c.promotions)).collect(),
        )
    }

    // One test, because the HDFS sandbox root is process-wide state.
    #[test]
    fn seed_changes_inputs_and_a_fixed_seed_repeats_exact_counts() {
        // Like a run: everything the program writes lands under `perf/tmp/`.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("test-{}", std::process::id()));
        let hdfs = dir.join("hdfs");
        std::fs::create_dir_all(&hdfs).unwrap();
        std::env::set_var("TMPDIR", &dir);
        rheem_storage::set_hdfs_root(&hdfs);

        let digest = |seed| match &find("wordcount_16m").unwrap().generate(seed, 64).unwrap().kinds
            [0]
        .oracle
        {
            Oracle::Exact(d) => *d,
            _ => panic!("wordcount has an exact oracle"),
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));

        let sgd = counts("sgd_loop_1k", 5, 20, &hdfs);
        assert_eq!(sgd, counts("sgd_loop_1k", 5, 20, &hdfs));
        assert_eq!(sgd.0, vec![52], "50 iterations plus the source and sink stages");
        assert!(sgd.1[0] > 0);

        let spill = counts("cache_spill", 5, 8, &hdfs);
        assert_eq!(spill, counts("cache_spill", 5, 8, &hdfs));
        assert_eq!(spill.0.len(), 8 * 3, "one cold and two warm passes over eight jobs");
        let (spills, promotions) = spill.2[0];
        assert!(
            spills > 0 && promotions > 0,
            "the small instance must still overflow its memory tier"
        );

        let fit = counts("cache_fit", 5, 8, &hdfs);
        assert_eq!(fit.2, vec![(0, 0)], "cache_fit must never spill");
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir(dir.parent().unwrap()); // `perf/tmp/`, when empty
    }
}
