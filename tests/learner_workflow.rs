//! End-to-end cost-model learning workflow (§4.5): generate execution logs
//! over the three plan topologies, fit the GA learner, persist/reload the
//! logs, and verify the learned model actually changes optimizer behaviour
//! inputs (parameters are picked up by the cost estimates).

use rheem_core::learner::{read_samples, write_samples, CostLearner, LogGenerator};

#[test]
fn log_generator_covers_three_topologies() {
    let ctx = rheem::default_context();
    let generator = LogGenerator { sizes: vec![500, 5_000], udf_costs: vec![1.0], iterations: 3 };
    let samples = generator.generate(&ctx).unwrap();
    // pipeline + merge + iterative plans, several stages each, 2 sizes
    assert!(samples.len() >= 10, "{}", samples.len());
    let ops: std::collections::HashSet<String> =
        samples.iter().flat_map(|s| s.ops.iter().map(|o| o.op.clone())).collect();
    // evidence of all three topologies in the logs
    assert!(ops.iter().any(|o| o.contains("ReduceBy")), "{ops:?}");
    assert!(ops.iter().any(|o| o.contains("Join")), "{ops:?}");
    assert!(ops.iter().any(|o| o.contains("Reduce") && !o.contains("ReduceBy")), "{ops:?}");
}

#[test]
fn learned_model_beats_defaults_and_roundtrips() {
    let ctx = rheem::default_context();
    let generator =
        LogGenerator { sizes: vec![1_000, 20_000], udf_costs: vec![1.0, 8.0], iterations: 3 };
    let samples = generator.generate(&ctx).unwrap();

    // Persist + reload the execution log (the offline workflow).
    let dir = std::env::temp_dir().join("rheem_learner_workflow");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("exec_log.tsv");
    write_samples(&log, &samples).unwrap();
    let reloaded = read_samples(&log).unwrap();
    assert_eq!(reloaded.len(), samples.len());

    let learner = CostLearner { generations: 80, ..Default::default() };
    let model = learner.fit(&reloaded, ctx.profiles());
    let fitted = learner.evaluate(&model, &reloaded, ctx.profiles());
    let default = learner.evaluate(&rheem_core::cost::CostModel::new(), &reloaded, ctx.profiles());
    assert!(fitted <= default, "fitted {fitted} vs default {default}");

    // The learned parameters flow into the optimizer's estimates.
    let mut tuned = rheem::default_context();
    tuned.cost_model_mut().merge(&model);
    assert!(!tuned.cost_model().params().is_empty());
}

/// The log generator reads its samples from its own jobs' traces and leaves
/// the retry count the context collected from earlier jobs alone.
#[test]
fn log_generator_keeps_the_callers_fault_log() {
    use rheem::prelude::*;
    use rheem_core::fault::{FaultKind, FaultPlan, FaultRule};
    use std::sync::Arc;

    let mut ctx = rheem::default_context();
    ctx.config_mut().fault_plan =
        Some(Arc::new(FaultPlan::none().with_rule(FaultRule::new(FaultKind::Transient))));
    let mut b = PlanBuilder::new();
    b.collection((0..100i64).map(Value::from).collect::<Vec<_>>())
        .map(MapUdf::new("inc", |v| Value::from(v.as_int().unwrap_or(0) + 1)))
        .collect();
    assert!(ctx.execute(&b.build().unwrap()).unwrap().metrics.retries >= 1);
    ctx.config_mut().fault_plan = None;
    let retries = ctx.metrics().counter("rheem_retries_total");
    assert!(retries >= 1);

    let generator = LogGenerator { sizes: vec![200], udf_costs: vec![1.0], iterations: 2 };
    assert!(!generator.generate(&ctx).unwrap().is_empty());
    assert_eq!(
        ctx.metrics().counter("rheem_retries_total"),
        retries,
        "the sweep changed the retry count"
    );
}

/// Without job traces there is no execution log: the generator says so
/// with a typed error instead of returning an empty sample set.
#[test]
fn log_generator_rejects_untraced_contexts() {
    let mut ctx = rheem::default_context();
    ctx.config_mut().tracing = false;
    let generator = LogGenerator { sizes: vec![200], udf_costs: vec![1.0], iterations: 2 };
    match generator.generate(&ctx) {
        Err(rheem_core::error::RheemError::Config(msg)) => {
            assert!(msg.contains("tracing"), "{msg}")
        }
        other => panic!("expected a typed config error, got {:?}", other.map(|s| s.len())),
    }
}
