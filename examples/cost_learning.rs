//! Cost-model learning workflow (§4.5): generate execution logs over the
//! three plan topologies, fit the genetic-algorithm learner, persist the
//! tuned configuration, and reload it into a fresh context.
//!
//! ```sh
//! cargo run --release --example cost_learning
//! ```

use rheem::prelude::*;
use rheem_core::learner::{samples_from_trace, write_samples, CostLearner, LogGenerator};

fn main() -> Result<()> {
    let ctx = rheem::default_context();

    // 1. Generate execution logs: pipeline, merge and iterative topologies
    //    across input sizes and UDF complexities.
    println!("generating execution logs (3 topologies × sizes × UDF costs)…");
    let generator = LogGenerator {
        sizes: vec![1_000, 20_000, 80_000],
        udf_costs: vec![1.0, 8.0],
        iterations: 5,
    };
    let samples = generator.generate(&ctx)?;
    println!("  {} stage samples collected", samples.len());

    let dir = std::env::temp_dir().join("rheem_cost_learning");
    std::fs::create_dir_all(&dir).map_err(rheem_core::error::RheemError::Io)?;
    let log = dir.join("execution_log.tsv");
    write_samples(&log, &samples)?;
    println!("  logs written to {}", log.display());

    // 2. Fit the cost model with the GA under the paper's relative loss.
    println!("fitting the cost model (genetic algorithm)…");
    let learner = CostLearner::default();
    let model = learner.fit(&samples, ctx.profiles());
    let fitted = learner.evaluate(&model, &samples, ctx.profiles());
    let default = learner.evaluate(&rheem_core::cost::CostModel::new(), &samples, ctx.profiles());
    println!("  relative loss: defaults {default:.4} → learned {fitted:.4}");

    // 3. Persist profiles + learned parameters as a deployment config.
    let conf = dir.join("rheem.conf");
    rheem_core::config::save(&conf, ctx.profiles(), &model)?;
    println!("  configuration saved to {}", conf.display());

    // 4. A fresh context picks the tuned model up.
    let (profiles, model) =
        rheem_core::config::load(&conf, &rheem_core::platform::Profiles::paper_testbed())?;
    let mut tuned = rheem::default_context();
    *tuned.profiles_mut() = profiles;
    tuned.cost_model_mut().merge(&model);
    println!(
        "  reloaded {} learned parameters into a fresh context",
        tuned.cost_model().params().len()
    );

    // The tuned context optimizes as usual, and each run's trace extends
    // the execution log.
    let mut b = rheem_core::plan::PlanBuilder::new();
    b.collection((0..10_000i64).map(Value::from).collect::<Vec<_>>())
        .map(MapUdf::new("x2", |v| Value::from(v.as_int().unwrap() * 2)))
        .count()
        .collect();
    let plan = b.build()?;
    let opt = tuned.optimize(&plan)?;
    println!(
        "tuned optimizer estimate for a 10k map+count: {:.2} ms on {:?}",
        opt.est_ms, opt.platforms
    );
    let run = tuned.execute(&plan)?;
    let more = run.trace.as_ref().map(samples_from_trace).unwrap_or_default();
    println!("  its run logged {} more stage samples", more.len());
    Ok(())
}
