//! Integration tests for the progressive optimizer (Algorithm 1, §4.4) and
//! the trace/cost-learner loop (§4.3/§4.5).

use rheem::prelude::*;
use rheem_core::plan::PlanBuilder;
use rheem_core::udf::Sarg;

/// A filter whose user-supplied selectivity hint is wrong by 4 orders of
/// magnitude — the Fig. 10(b) scenario.
fn misestimated_plan(n: i64) -> (rheem_core::plan::RheemPlan, rheem_core::plan::OperatorId) {
    let mut b = PlanBuilder::new();
    let left = b.collection(
        (0..n).map(|i| Value::tuple(vec![Value::from(i), Value::from(i % 25)])).collect::<Vec<_>>(),
    );
    let right = b.collection(
        (0..n * 2)
            .map(|i| Value::tuple(vec![Value::from(i), Value::from(i % 25)]))
            .collect::<Vec<_>>(),
    );
    let filtered = left
        .filter_sarg(
            PredicateUdf::new("ge2", |v| v.field(0).as_int().unwrap_or(0) >= 2),
            Sarg { field: 0, op: CmpOp::Ge, literal: Value::from(2) },
        )
        .with_selectivity(0.0001); // truth ≈ 1.0
    let sink = filtered.join(&right, KeyUdf::field(1), KeyUdf::field(1)).count().collect();
    (b.build().unwrap(), sink)
}

#[test]
fn progressive_reoptimizes_on_bad_estimates() {
    let n = 5_000i64;
    let (plan, sink) = misestimated_plan(n);
    let mut ctx = rheem::default_context();
    ctx.config_mut().progressive = true;
    let with_po = ctx.execute(&plan).unwrap();
    assert!(with_po.metrics.replans >= 1, "the wrong hint must trigger a re-optimization");
    // correctness is preserved across the re-plan: compute the expected
    // join cardinality directly.
    let mut left_keys = [0i64; 25];
    for i in 2..n {
        left_keys[(i % 25) as usize] += 1;
    }
    let mut right_keys = [0i64; 25];
    for i in 0..n * 2 {
        right_keys[(i % 25) as usize] += 1;
    }
    let expected: i64 = (0..25).map(|k| left_keys[k] * right_keys[k]).sum();
    let count = with_po.sink(sink).unwrap()[0].as_int().unwrap();
    assert_eq!(count, expected);
}

#[test]
fn progressive_results_match_non_progressive() {
    let (plan, sink) = misestimated_plan(2_000);
    let mut on = rheem::default_context();
    on.config_mut().progressive = true;
    let mut off = rheem::default_context();
    off.config_mut().progressive = false;
    let a = on.execute(&plan).unwrap();
    let b = off.execute(&plan).unwrap();
    assert_eq!(a.sink(sink).unwrap()[0].as_int(), b.sink(sink).unwrap()[0].as_int());
}

#[test]
fn accurate_hints_cause_no_replan() {
    let mut b = PlanBuilder::new();
    let sink = b
        .collection((0..5_000i64).map(Value::from).collect::<Vec<_>>())
        .filter(PredicateUdf::new("half", |v| v.as_int().unwrap() % 2 == 0))
        .with_selectivity(0.5)
        .count()
        .collect();
    let plan = b.build().unwrap();
    let ctx = rheem::default_context();
    let r = ctx.execute(&plan).unwrap();
    assert_eq!(r.metrics.replans, 0);
    assert_eq!(r.sink(sink).unwrap()[0].as_int(), Some(2_500));
}

#[test]
fn exploration_mode_taps_operators_with_bounded_overhead() {
    let mut b = PlanBuilder::new();
    b.collection((0..20_000i64).map(Value::from).collect::<Vec<_>>())
        .map(MapUdf::new("x2", |v| Value::from(v.as_int().unwrap() * 2)))
        .filter(PredicateUdf::new("pos", |v| v.as_int().unwrap() > 10))
        .count()
        .collect();
    let plan = b.build().unwrap();

    let mut plain = rheem::default_context();
    plain.config_mut().exploration = false;
    let base = plain.execute(&plan).unwrap();
    assert!(base.exploration.taps.is_empty());

    let mut exploring = rheem::default_context();
    exploring.config_mut().exploration = true;
    let tapped = exploring.execute(&plan).unwrap();
    assert!(!tapped.exploration.taps.is_empty());
    // sniffer captures bounded samples
    for (_, sample) in &tapped.exploration.taps {
        assert!(sample.len() <= rheem_core::executor::SNIFF_LIMIT);
    }
    // overhead exists but stays within ~2x for this shape
    assert!(tapped.metrics.virtual_ms >= base.metrics.virtual_ms * 0.99);
    // at this tiny scale the fixed sniffer costs dominate (and virtual
    // times are wall-derived, so the ratio shifts with machine speed); the
    // fig10c harness measures the paper-scale ~36% overhead
    assert!(
        tapped.metrics.virtual_ms <= base.metrics.virtual_ms * 15.0,
        "{} vs {}",
        tapped.metrics.virtual_ms,
        base.metrics.virtual_ms
    );
}

#[test]
fn monitor_feeds_the_cost_learner() {
    use rheem_core::learner::{samples_from_trace, CostLearner};
    let ctx = rheem::default_context();
    let mut b = PlanBuilder::new();
    b.collection((0..10_000i64).map(Value::from).collect::<Vec<_>>())
        .map(MapUdf::new("m", |v| v.clone()))
        .count()
        .collect();
    let plan = b.build().unwrap();
    let mut samples = Vec::new();
    for _ in 0..3 {
        samples.extend(samples_from_trace(&ctx.execute(&plan).unwrap().trace.unwrap()));
    }
    assert!(samples.len() >= 3);
    let learner = CostLearner { generations: 40, ..Default::default() };
    let model = learner.fit(&samples, ctx.profiles());
    let fitted_loss = learner.evaluate(&model, &samples, ctx.profiles());
    let default_loss =
        learner.evaluate(&rheem_core::cost::CostModel::new(), &samples, ctx.profiles());
    assert!(fitted_loss <= default_loss, "{fitted_loss} vs {default_loss}");
}
