//! The cost-model learner (§4.5).
//!
//! Profiling operators in isolation is inaccurate when engines pipeline
//! across operators, so Rheem learns its cost-model parameters from
//! *execution logs*: stages with their operators' true cardinalities and
//! the measured stage time. Each execution operator key gets a linear
//! resource function `cycles = δ + α·c_in` (plus the UDF `β` the operators
//! apply themselves); a genetic algorithm fits the parameter vector under
//! the paper's relative loss with additive smoothing, weighting stages by
//! the relative frequency of their operators to counter workload skew.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::kernels::SplitMix64;

use crate::cost::{param_key, CostModel, Load};
use crate::error::{Result, RheemError};
use crate::plan::RheemPlan;
use crate::platform::{PlatformId, Profiles};

/// One operator observation inside a stage sample.
#[derive(Clone, Debug, PartialEq)]
pub struct OpObs {
    /// Platform id string.
    pub platform: String,
    /// Execution operator name (e.g. `SparkMap`).
    pub op: String,
    /// True input cardinality.
    pub in_card: f64,
    /// True output cardinality.
    pub out_card: f64,
}

impl OpObs {
    /// Cost-model key prefix for this operator.
    pub fn key(&self, param: &str) -> String {
        param_key(&self.platform, &self.op.to_lowercase(), param)
    }
}

/// One execution-log record: a stage run with its measured time.
#[derive(Clone, Debug, PartialEq)]
pub struct StageSample {
    /// Operators of the stage in execution order.
    pub ops: Vec<OpObs>,
    /// Measured stage time (virtual ms).
    pub measured_ms: f64,
}

/// Extract training samples from a job trace: one sample per effective
/// stage run, joining the run's measured virtual time with its operators'
/// true cardinalities. Superseded runs (re-executed by a failover) are
/// excluded — they would double-count loop iterations — and backoff
/// padding is not an operator observation.
pub fn samples_from_trace(trace: &crate::trace::JobTrace) -> Vec<StageSample> {
    trace
        .runs
        .iter()
        .filter(|r| !r.superseded && r.virtual_ms > 0.0)
        .filter_map(|r| {
            let ops: Vec<OpObs> = trace
                .profiles
                .iter()
                .filter(|p| p.phase == r.phase && p.run == r.run && p.name != "RetryBackoff")
                .map(|p| OpObs {
                    platform: p.platform.clone(),
                    op: p.name.clone(),
                    in_card: p.tuples_in as f64,
                    out_card: p.tuples_out as f64,
                })
                .collect();
            (!ops.is_empty()).then_some(StageSample { ops, measured_ms: r.virtual_ms })
        })
        .collect()
}

/// Serialize samples to the tab-separated execution-log format.
pub fn write_samples(path: &Path, samples: &[StageSample]) -> Result<()> {
    let mut out = String::new();
    for s in samples {
        let _ = write!(out, "{:.4}", s.measured_ms);
        for o in &s.ops {
            let _ = write!(out, "\t{}:{}:{}:{}", o.platform, o.op, o.in_card, o.out_card);
        }
        out.push('\n');
    }
    std::fs::write(path, out).map_err(RheemError::Io)
}

/// Parse samples from the tab-separated execution-log format.
pub fn read_samples(path: &Path) -> Result<Vec<StageSample>> {
    let text = std::fs::read_to_string(path).map_err(RheemError::Io)?;
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let t = parts.next().and_then(|t| t.parse::<f64>().ok()).ok_or_else(|| {
            RheemError::Config(format!("log line {}: bad stage time", lineno + 1))
        })?;
        let mut ops = Vec::new();
        for p in parts {
            let f: Vec<&str> = p.split(':').collect();
            if f.len() != 4 {
                return Err(RheemError::Config(format!(
                    "log line {}: bad op record '{p}'",
                    lineno + 1
                )));
            }
            ops.push(OpObs {
                platform: f[0].to_string(),
                op: f[1].to_string(),
                in_card: f[2].parse().unwrap_or(0.0),
                out_card: f[3].parse().unwrap_or(0.0),
            });
        }
        samples.push(StageSample { ops, measured_ms: t });
    }
    Ok(samples)
}

/// The paper's relative loss with additive smoothing:
/// `((|t − t'| + s) / (t + s))²`.
pub fn relative_loss(t: f64, t_pred: f64, s: f64) -> f64 {
    let l = ((t - t_pred).abs() + s) / (t + s);
    l * l
}

/// Genetic-algorithm cost learner.
pub struct CostLearner {
    /// Population size.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Additive smoothing `s` of the loss.
    pub smoothing: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CostLearner {
    fn default() -> Self {
        Self { population: 48, generations: 120, mutation_rate: 0.15, smoothing: 5.0, seed: 7 }
    }
}

/// Parameter layout: for each distinct operator key, two genes
/// `(alpha, delta)` in abstract cycles.
struct Layout {
    keys: Vec<String>,
    index: HashMap<String, usize>,
}

impl Layout {
    fn from_samples(samples: &[StageSample]) -> Self {
        let mut keys = Vec::new();
        let mut index = HashMap::new();
        for s in samples {
            for o in &s.ops {
                let k = o.key("");
                if !index.contains_key(&k) {
                    index.insert(k.clone(), keys.len());
                    keys.push(k);
                }
            }
        }
        Self { keys, index }
    }
}

impl CostLearner {
    /// Predicted stage time under a genome (the `Σ f_i(x, C_i)` of §4.5).
    fn predict(genome: &[f64], layout: &Layout, sample: &StageSample, profiles: &Profiles) -> f64 {
        let mut total = 0.0;
        for o in &sample.ops {
            let gi = layout.index[&o.key("")];
            let alpha = genome[2 * gi];
            let delta = genome[2 * gi + 1];
            let profile = profiles.get(PlatformId(leak_str(&o.platform)));
            let load = Load {
                cpu_cycles: delta + alpha * o.in_card,
                tasks: profile.partitions,
                ..Load::default()
            };
            total += load.to_ms(profile);
        }
        total
    }

    /// Weighted loss across all samples: stages are weighted by the summed
    /// relative frequencies of their operators (skew correction, §4.5).
    fn population_loss(
        &self,
        genome: &[f64],
        layout: &Layout,
        samples: &[StageSample],
        weights: &[f64],
        profiles: &Profiles,
    ) -> f64 {
        let mut total = 0.0;
        let mut wsum = 0.0;
        for (s, &w) in samples.iter().zip(weights) {
            let pred = Self::predict(genome, layout, s, profiles);
            total += w * relative_loss(s.measured_ms, pred, self.smoothing);
            wsum += w;
        }
        total / wsum.max(1e-9)
    }

    /// Fit cost-model parameters from execution logs.
    pub fn fit(&self, samples: &[StageSample], profiles: &Profiles) -> CostModel {
        let mut model = CostModel::new();
        if samples.is_empty() {
            return model;
        }
        let layout = Layout::from_samples(samples);
        let genes = layout.keys.len() * 2;
        let mut rng = SplitMix64(self.seed);

        // Stage weights: sum of relative operator frequencies.
        let mut op_count: HashMap<String, f64> = HashMap::new();
        let mut total_ops = 0.0;
        for s in samples {
            for o in &s.ops {
                *op_count.entry(o.key("")).or_default() += 1.0;
                total_ops += 1.0;
            }
        }
        let weights: Vec<f64> = samples
            .iter()
            .map(|s| {
                s.ops.iter().map(|o| 1.0 - (op_count[&o.key("")] / total_ops)).sum::<f64>().max(0.1)
            })
            .collect();

        // Initial population: log-uniform positive parameters.
        let mut pop: Vec<Vec<f64>> = (0..self.population)
            .map(|_| (0..genes).map(|_| 10f64.powf(rng.range_f64(0.0, 6.0))).collect())
            .collect();
        let mut losses: Vec<f64> = pop
            .iter()
            .map(|g| self.population_loss(g, &layout, samples, &weights, profiles))
            .collect();

        for _gen in 0..self.generations {
            let mut next = Vec::with_capacity(self.population);
            // Elitism: keep the two best.
            let mut order: Vec<usize> = (0..pop.len()).collect();
            order.sort_by(|&a, &b| losses[a].partial_cmp(&losses[b]).unwrap());
            next.push(pop[order[0]].clone());
            next.push(pop[order[1]].clone());
            while next.len() < self.population {
                // Tournament selection.
                let pick = |rng: &mut SplitMix64| {
                    let a = rng.range_usize(pop.len());
                    let b = rng.range_usize(pop.len());
                    if losses[a] < losses[b] {
                        a
                    } else {
                        b
                    }
                };
                let pa = pick(&mut rng);
                let pb = pick(&mut rng);
                let mut child: Vec<f64> = (0..genes)
                    .map(|i| if rng.chance(0.5) { pop[pa][i] } else { pop[pb][i] })
                    .collect();
                for g in child.iter_mut() {
                    if rng.chance(self.mutation_rate) {
                        // Log-space jitter keeps parameters positive and
                        // explores magnitudes.
                        let factor = 10f64.powf(rng.range_f64(-0.5, 0.5));
                        *g *= factor;
                    }
                }
                next.push(child);
            }
            pop = next;
            losses = pop
                .iter()
                .map(|g| self.population_loss(g, &layout, samples, &weights, profiles))
                .collect();
        }

        let best = losses
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        for (i, key) in layout.keys.iter().enumerate() {
            model.set(format!("{key}alpha"), pop[best][2 * i]);
            model.set(format!("{key}delta"), pop[best][2 * i + 1]);
        }
        model
    }

    /// Final loss of a model expressed back over the samples (evaluation
    /// helper for tests and EXPERIMENTS.md).
    pub fn evaluate(&self, model: &CostModel, samples: &[StageSample], profiles: &Profiles) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let layout = Layout::from_samples(samples);
        let genome: Vec<f64> = layout
            .keys
            .iter()
            .flat_map(|k| {
                [model.get(&format!("{k}alpha"), 100.0), model.get(&format!("{k}delta"), 1000.0)]
            })
            .collect();
        let weights = vec![1.0; samples.len()];
        self.population_loss(&genome, &layout, samples, &weights, profiles)
    }
}

/// The log generator (§4.5): creates Rheem plans over the three plan
/// topologies that cover most analytic tasks — **pipeline** (batch),
/// **iterative** (ML) and **merge** (SPJA) — across varying input sizes and
/// UDF complexities, executes them on the given context, and returns the
/// stage samples of their traces for [`CostLearner::fit`].
pub struct LogGenerator {
    /// Input cardinalities to sweep.
    pub sizes: Vec<usize>,
    /// UDF cost-hint factors to sweep (cycles per quantum).
    pub udf_costs: Vec<f64>,
    /// Iterations used by the iterative topology.
    pub iterations: u32,
}

impl Default for LogGenerator {
    fn default() -> Self {
        Self { sizes: vec![1_000, 10_000, 50_000], udf_costs: vec![1.0, 8.0], iterations: 5 }
    }
}

impl LogGenerator {
    /// Build and execute the plan sweep, returning the training samples.
    /// Fails with [`RheemError::Config`] when the context's jobs run
    /// untraced: the traces are the execution log.
    pub fn generate(&self, ctx: &crate::api::RheemContext) -> Result<Vec<StageSample>> {
        use crate::plan::PlanBuilder;
        use crate::udf::{KeyUdf, MapUdf, PredicateUdf, ReduceUdf};
        use crate::value::Value;

        let mut samples = Vec::new();
        let mut run = |plan: RheemPlan| -> Result<()> {
            let trace = ctx.execute(&plan)?.trace.ok_or_else(|| {
                RheemError::Config(
                    "LogGenerator needs job traces: enable ExecConfig::tracing".into(),
                )
            })?;
            samples.extend(samples_from_trace(&trace));
            Ok(())
        };
        for &n in &self.sizes {
            for &udf_cost in &self.udf_costs {
                let spin = udf_cost as usize;
                let data: Vec<Value> = (0..n as i64)
                    .map(|i| Value::pair(Value::from(i % 64), Value::from(i)))
                    .collect();

                // pipeline topology: source -> map -> filter -> reduceby -> sink
                let mut b = PlanBuilder::new();
                b.collection(data.clone())
                    .map(
                        MapUdf::new("gen_map", move |v| {
                            let mut acc = v.field(1).as_int().unwrap_or(0);
                            for _ in 0..spin {
                                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                            }
                            Value::pair(v.field(0).clone(), Value::from(acc))
                        })
                        .cost(udf_cost),
                    )
                    .filter(PredicateUdf::new("gen_filter", |v| {
                        v.field(1).as_int().unwrap_or(0) % 2 == 0
                    }))
                    .reduce_by_key(
                        KeyUdf::field(0),
                        ReduceUdf::new("gen_agg", |a, b| {
                            Value::pair(
                                a.field(0).clone(),
                                Value::from(
                                    a.field(1).as_int().unwrap_or(0)
                                        ^ b.field(1).as_int().unwrap_or(0),
                                ),
                            )
                        }),
                    )
                    .collect();
                run(b.build()?)?;

                // merge topology: two sources joined then aggregated (SPJA).
                // FK-style unique join keys keep the output linear in n.
                let merge_data: Vec<Value> = (0..n as i64)
                    .map(|i| Value::pair(Value::from(i), Value::from(i % 64)))
                    .collect();
                let mut b = PlanBuilder::new();
                let l = b.collection(merge_data.clone());
                let r = b.collection(merge_data);
                l.join(&r, KeyUdf::field(0), KeyUdf::field(0))
                    .map(MapUdf::new("gen_pairkey", |p| {
                        Value::pair(p.field(0).field(1).clone(), Value::from(1))
                    }))
                    .reduce_by_key(
                        KeyUdf::field(0),
                        ReduceUdf::new("gen_count", |a, b| {
                            Value::pair(
                                a.field(0).clone(),
                                Value::from(
                                    a.field(1).as_int().unwrap_or(0)
                                        + b.field(1).as_int().unwrap_or(0),
                                ),
                            )
                        }),
                    )
                    .collect();
                run(b.build()?)?;

                // iterative topology: a loop over map+reduce
                let mut b = PlanBuilder::new();
                let points = b.collection(data.clone());
                let state = b.collection(vec![Value::from(0)]);
                state
                    .repeat(self.iterations, |w| {
                        let agg = points
                            .map(MapUdf::new("gen_iter_map", |v| v.field(1).clone()))
                            .reduce(ReduceUdf::sum());
                        w.map(MapUdf::with_ctx("gen_iter_update", |v, ctx| {
                            let a = ctx.get_or_empty("agg");
                            Value::from(
                                v.as_int().unwrap_or(0)
                                    + a.first().and_then(Value::as_int).unwrap_or(0) % 7,
                            )
                        }))
                        .broadcast("agg", &agg)
                    })
                    .collect();
                run(b.build()?)?;
            }
        }
        Ok(samples)
    }
}

/// Intern a platform string to the `&'static str` that `PlatformId` wants.
/// Platform id strings form a tiny closed set, so leaking is bounded.
fn leak_str(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static INTERN: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let set = INTERN.get_or_init(|| Mutex::new(HashSet::new()));
    let mut guard = set.lock().unwrap();
    if let Some(&existing) = guard.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    guard.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_samples(alpha: f64, delta: f64) -> Vec<StageSample> {
        // Ground truth: t = (delta + alpha * cin) / cycles_per_ms (1 core).
        (1..=20)
            .map(|i| {
                let cin = i as f64 * 1000.0;
                StageSample {
                    ops: vec![OpObs {
                        platform: "testp".into(),
                        op: "TMap".into(),
                        in_card: cin,
                        out_card: cin,
                    }],
                    measured_ms: (delta + alpha * cin) / 1_000_000.0,
                }
            })
            .collect()
    }

    #[test]
    fn learner_recovers_linear_costs() {
        let samples = synthetic_samples(2_000.0, 1_000_000.0);
        let learner = CostLearner { generations: 250, population: 64, ..Default::default() };
        let profiles = Profiles::bare();
        let model = learner.fit(&samples, &profiles);
        let loss = learner.evaluate(&model, &samples, &profiles);
        // The GA should get within a modest relative error of the ground
        // truth; a mis-specified model sits at loss ≈ 1.
        assert!(loss < 0.12, "loss {loss}");
        let alpha = model.get("testp.tmap.alpha", 0.0);
        assert!(alpha > 0.0);
    }

    #[test]
    fn learner_calibrates_cached_source_replay() {
        // Replay samples recorded by CachedSource executions carry the
        // driver platform and the cached cardinality as in_card, so the
        // learner fits rheem.driver.cachedsource.{alpha,delta} like any
        // other operator key and the optimizer's reuse pricing calibrates.
        let samples: Vec<StageSample> = (1..=20)
            .map(|i| {
                let card = i as f64 * 1000.0;
                StageSample {
                    ops: vec![OpObs {
                        platform: "rheem.driver".into(),
                        op: "CachedSource".into(),
                        in_card: card,
                        out_card: card,
                    }],
                    // Ground truth: replay ≈ 1500 cycles/row + fixed open cost.
                    measured_ms: (2_000_000.0 + 1500.0 * card) / 1_000_000.0,
                }
            })
            .collect();
        assert_eq!(samples[0].ops[0].key("alpha"), "rheem.driver.cachedsource.alpha");
        let learner = CostLearner { generations: 250, population: 64, ..Default::default() };
        let profiles = Profiles::bare();
        let model = learner.fit(&samples, &profiles);
        let loss = learner.evaluate(&model, &samples, &profiles);
        assert!(loss < 0.12, "loss {loss}");
        assert!(model.get("rheem.driver.cachedsource.alpha", 0.0) > 0.0);
        assert!(model.get("rheem.driver.cachedsource.delta", 0.0) > 0.0);
    }

    #[test]
    fn relative_loss_properties() {
        assert!(relative_loss(100.0, 100.0, 1.0) < 0.001);
        assert!(relative_loss(100.0, 200.0, 1.0) > relative_loss(100.0, 110.0, 1.0));
        // smoothing tempers small-t losses relative to the unsmoothed case
        assert!(relative_loss(0.001, 1.0, 5.0) < relative_loss(0.001, 1.0, 0.0001));
    }

    #[test]
    fn sample_log_roundtrip() {
        let samples = synthetic_samples(10.0, 5.0);
        let dir = std::env::temp_dir().join("rheem_learner_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.tsv");
        write_samples(&path, &samples).unwrap();
        let back = read_samples(&path).unwrap();
        assert_eq!(back.len(), samples.len());
        assert_eq!(back[0].ops, samples[0].ops);
        assert!((back[0].measured_ms - samples[0].measured_ms).abs() < 1e-3);
    }

    #[test]
    fn bad_log_rejected() {
        let dir = std::env::temp_dir().join("rheem_learner_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.tsv");
        std::fs::write(&path, "not_a_number\tx:y:1:2\n").unwrap();
        assert!(read_samples(&path).is_err());
        std::fs::write(&path, "1.0\tmissing_fields\n").unwrap();
        assert!(read_samples(&path).is_err());
    }

    #[test]
    fn empty_samples_yield_empty_model() {
        let learner = CostLearner::default();
        let model = learner.fit(&[], &Profiles::bare());
        assert!(model.params().is_empty());
    }
}
