//! Differential test suite: seeded random plans must compute *identical*
//! results on every platform simulacrum — with and without fusion, with and
//! without an active fault plan. Heterogeneous backends only stay
//! trustworthy under exactly this kind of harness (cf. Calcite's experience
//! with differential testing): an injected fault may be survived (retry or
//! failover) or surfaced as a typed error, but it must never produce a
//! wrong answer.
//!
//! Plans are generated from the repo's own deterministic `SplitMix64`, so
//! every failure reproduces from its case number. The chaos seeds below are
//! the fixed CI matrix; set `CHAOS_SEED=<n>` to add one more.

use std::sync::Arc;

use rheem::prelude::*;
use rheem_core::exec::Fallback;
use rheem_core::fault::{FaultKind, FaultPlan, FaultRule, PERSISTENT};
use rheem_core::kernels::SplitMix64;
use rheem_core::udf::{CmpOp, FlatMapUdf, Sarg};

const PLATFORMS: [PlatformId; 3] = [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK];
/// Fixed chaos-seed matrix (mirrored in CI).
const CHAOS_SEEDS: [u64; 3] = [0xC0FFEE, 42, 7];

fn chaos_seeds() -> Vec<u64> {
    let mut seeds = CHAOS_SEEDS.to_vec();
    if let Some(extra) = std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()) {
        if !seeds.contains(&extra) {
            seeds.push(extra);
        }
    }
    seeds
}

// ---- seeded plan generator ---------------------------------------------

/// One randomly generated plan: one or two op chains over (key, value)
/// pairs, optionally joined, with an optional terminal aggregation.
#[derive(Clone, Debug)]
struct Spec {
    chain_a: Vec<u8>,
    chain_b: Option<Vec<u8>>, // joined on field(0) when present
    terminal: u8,             // 0 = none, 1 = reduce_by_key, 2 = distinct, 3 = count
    data_a: Vec<Value>,
    data_b: Vec<Value>,
}

fn pairs(rng: &mut SplitMix64, max_len: usize) -> Vec<Value> {
    let len = rng.range_usize(max_len);
    pairs_of_len(rng, len)
}

fn pairs_of_len(rng: &mut SplitMix64, len: usize) -> Vec<Value> {
    (0..len)
        .map(|_| {
            Value::pair(
                Value::from(rng.range_usize(8) as i64),
                Value::from(rng.range_usize(200) as i64 - 100),
            )
        })
        .collect()
}

fn gen_spec(case: u64) -> Spec {
    let mut rng = SplitMix64(0xD1FF ^ case.wrapping_mul(0x9E37_79B9));
    let chain = |rng: &mut SplitMix64| -> Vec<u8> {
        let len = 2 + rng.range_usize(3);
        (0..len).map(|_| rng.range_usize(7) as u8).collect()
    };
    let chain_a = chain(&mut rng);
    let chain_b = rng.chance(0.4).then(|| chain(&mut rng));
    Spec {
        chain_a,
        chain_b,
        terminal: rng.range_usize(4) as u8,
        data_a: pairs(&mut rng, 60),
        data_b: pairs(&mut rng, 40),
    }
}

fn apply_op(q: rheem_core::plan::DataQuanta, code: u8) -> rheem_core::plan::DataQuanta {
    let k = |v: &Value| v.field(0).as_int().unwrap_or(0);
    let x = |v: &Value| v.field(1).as_int().unwrap_or(0);
    match code {
        0 => q.map(MapUdf::new("inc", move |v| {
            Value::pair(v.field(0).clone(), Value::from(x(v) + 1))
        })),
        1 => q.map(MapUdf::new("scale", move |v| {
            Value::pair(v.field(0).clone(), Value::from(x(v) * 3))
        })),
        2 => q.map(MapUdf::new("rekey", move |v| {
            Value::pair(Value::from((k(v) + x(v)).rem_euclid(7)), v.field(1).clone())
        })),
        3 => q.filter(PredicateUdf::new("pos", move |v| x(v) > 0)),
        4 => q.filter(PredicateUdf::new("even", move |v| x(v) % 2 == 0)),
        5 => q.flat_map(FlatMapUdf::new("dup", |v| vec![v.clone(), v.clone()])),
        _ => q.flat_map(FlatMapUdf::new("split", move |v| {
            vec![v.clone(), Value::pair(Value::from(k(v) + 1), Value::from(x(v) - 1))]
        })),
    }
}

fn sum_udf() -> ReduceUdf {
    ReduceUdf::new("sum", |a, b| {
        Value::pair(
            a.field(0).clone(),
            Value::from(a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0)),
        )
    })
}

fn build_plan(spec: &Spec) -> (rheem_core::plan::RheemPlan, rheem_core::plan::OperatorId) {
    let mut b = PlanBuilder::new();
    let mut q = b.collection(spec.data_a.clone());
    for &code in &spec.chain_a {
        q = apply_op(q, code);
    }
    if let Some(chain_b) = &spec.chain_b {
        let mut r = b.collection(spec.data_b.clone());
        for &code in chain_b {
            r = apply_op(r, code);
        }
        // Join on key, then flatten (l, r) pairs back into (key, sum) shape
        // so terminals compose.
        q = q.join(&r, KeyUdf::field(0), KeyUdf::field(0)).map(MapUdf::new("flatten", |v| {
            let (l, r) = (v.field(0), v.field(1));
            Value::pair(
                l.field(0).clone(),
                Value::from(l.field(1).as_int().unwrap_or(0) + r.field(1).as_int().unwrap_or(0)),
            )
        }));
    }
    q = match spec.terminal {
        1 => q.reduce_by_key(KeyUdf::field(0), sum_udf()),
        2 => q.distinct(),
        3 => q.count(),
        _ => q,
    };
    let sink = q.collect();
    (b.build().unwrap(), sink)
}

/// Execute the spec and return the sink output in canonical (sorted) order.
fn run_spec(spec: &Spec, ctx: &RheemContext) -> Result<Vec<Value>> {
    let (plan, sink) = build_plan(spec);
    let result = ctx.execute(&plan)?;
    let mut out = result.sink(sink)?.to_vec();
    out.sort();
    Ok(out)
}

// ---- cross-platform agreement ------------------------------------------

/// Every random plan computes identical results on all three general-purpose
/// platforms, fused and unfused (6 executions per case).
#[test]
fn random_plans_agree_across_platforms_and_fusion() {
    for case in 0u64..10 {
        let spec = gen_spec(case);
        let reference = run_spec(&spec, &rheem::default_context()).unwrap();
        for forced in PLATFORMS {
            for fusion in [true, false] {
                let mut ctx = rheem::default_context().with_fusion(fusion);
                ctx.forced_platform = Some(forced);
                let out = run_spec(&spec, &ctx).unwrap();
                assert_eq!(
                    out, reference,
                    "case {case} diverged on {forced:?} (fusion={fusion}): {spec:?}"
                );
            }
        }
    }
}

// ---- chaos: seeded random faults ---------------------------------------

/// Under a seeded fault plan every run either survives (identical answer via
/// retry/failover) or dies with a *typed* error — never a wrong answer.
#[test]
fn seeded_chaos_never_produces_wrong_answers() {
    let mut injected_total = 0usize;
    let mut survived = 0usize;
    for chaos_seed in chaos_seeds() {
        for case in 0u64..6 {
            let spec = gen_spec(case);
            let baseline = run_spec(&spec, &rheem::default_context()).unwrap();
            let mut ctx = rheem::default_context();
            ctx.config_mut().chaos_seed = Some(chaos_seed);
            let (plan, sink) = build_plan(&spec);
            match ctx.execute(&plan) {
                Ok(result) => {
                    let mut out = result.sink(sink).unwrap().to_vec();
                    out.sort();
                    assert_eq!(
                        out, baseline,
                        "chaos seed {chaos_seed:#x} case {case} changed the answer: {spec:?}"
                    );
                    injected_total += result.metrics.faults.len();
                    survived += 1;
                }
                // Typed failure: acceptable. The fault that ended the job
                // counts as injected.
                Err(RheemError::Fault(_) | RheemError::Exhausted(_)) => injected_total += 1,
                Err(RheemError::Optimizer(_)) => {}
                Err(other) => {
                    panic!("chaos seed {chaos_seed:#x} case {case}: untyped error {other}")
                }
            }
        }
    }
    // The fixed seeds must actually exercise the machinery (deterministic,
    // so this can never flake).
    assert!(injected_total > 0, "chaos matrix injected nothing");
    assert!(survived > 0, "chaos matrix never survived a run");
}

// ---- batch modes ---------------------------------------------------------

/// Run the spec with columnar batch execution forced on or off; returns the
/// canonical (sorted) sink output and the deterministic span-tree structure.
fn run_spec_batch(
    spec: &Spec,
    batch: bool,
    forced: Option<PlatformId>,
    chaos_seed: Option<u64>,
) -> Result<(Vec<Value>, String)> {
    let mut ctx = rheem::default_context().with_batch(batch);
    ctx.forced_platform = forced;
    ctx.config_mut().chaos_seed = chaos_seed;
    let (plan, sink) = build_plan(spec);
    let result = ctx.execute(&plan)?;
    let mut out = result.sink(sink)?.to_vec();
    out.sort();
    let structure = result.trace.as_ref().map(|t| t.render_structure()).unwrap_or_default();
    Ok((out, structure))
}

/// A plan built entirely from spec'd builtins, so every fused segment
/// compiles to a vector kernel: WordCount over tokenized lines.
fn vectorizable_wordcount() -> (rheem_core::plan::RheemPlan, rheem_core::plan::OperatorId) {
    let lines: Vec<Value> =
        rheem_datagen::generate_text(300, 8, 500, 11).into_iter().map(Value::from).collect();
    let mut b = PlanBuilder::new();
    let sink = b
        .collection(lines)
        .flat_map(FlatMapUdf::split_whitespace("split"))
        .map(MapUdf::pair_with_int("pair", 1))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .collect();
    (b.build().unwrap(), sink)
}

/// A sargable scan + arithmetic + projection chain over int pairs.
fn vectorizable_scan() -> (rheem_core::plan::RheemPlan, rheem_core::plan::OperatorId) {
    let mut rng = SplitMix64(0xBA7C4);
    let data: Vec<Value> = (0..400)
        .map(|_| {
            Value::pair(
                Value::from(rng.range_usize(64) as i64),
                Value::from(rng.range_usize(200) as i64 - 100),
            )
        })
        .collect();
    let sarg = Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(0i64) };
    let sp = PredicateUdf::from_sarg("pos", sarg);
    let mut b = PlanBuilder::new();
    let sink = b
        .collection(data)
        .filter_sarg(sp.pred, sp.sarg)
        .map(MapUdf::field_add_int("bump", 1, 5))
        .project([1usize, 0])
        .collect();
    (b.build().unwrap(), sink)
}

/// Batched and row execution must be observationally identical on every
/// engine: byte-identical sink outputs and byte-identical span trees, for
/// random (opaque, fallback-exercising) plans.
#[test]
fn batch_modes_agree_on_random_plans_and_traces() {
    for case in 0u64..8 {
        let spec = gen_spec(case);
        for forced in PLATFORMS {
            let (row_out, row_trace) = run_spec_batch(&spec, false, Some(forced), None).unwrap();
            let (bat_out, bat_trace) = run_spec_batch(&spec, true, Some(forced), None).unwrap();
            assert_eq!(
                bat_out, row_out,
                "case {case}: batch mode changed the answer on {forced:?}: {spec:?}"
            );
            assert_eq!(
                bat_trace, row_trace,
                "case {case}: batch mode changed the span tree on {forced:?}: {spec:?}"
            );
        }
    }
}

/// Fully vectorizable plans (WordCount, sargable scan) agree across modes on
/// every engine — this is the path that actually runs the column kernels.
#[test]
fn batch_modes_agree_on_vectorizable_plans() {
    for (label, build) in [
        ("wordcount", vectorizable_wordcount as fn() -> _),
        ("scan", vectorizable_scan as fn() -> _),
    ] {
        for forced in PLATFORMS {
            let run = |batch: bool| -> (Vec<Value>, String) {
                let mut ctx = rheem::default_context().with_batch(batch);
                ctx.forced_platform = Some(forced);
                let (plan, sink) = build();
                let result = ctx.execute(&plan).unwrap();
                let mut out = result.sink(sink).unwrap().to_vec();
                out.sort();
                let structure =
                    result.trace.as_ref().map(|t| t.render_structure()).unwrap_or_default();
                (out, structure)
            };
            let (row_out, row_trace) = run(false);
            let (bat_out, bat_trace) = run(true);
            assert!(!row_out.is_empty(), "{label} on {forced:?} produced nothing");
            assert_eq!(bat_out, row_out, "{label}: batch mode changed the answer on {forced:?}");
            assert_eq!(bat_trace, row_trace, "{label}: batch mode changed the trace on {forced:?}");
        }
    }
}

/// The vectorized path must actually engage on vectorizable plans (guards
/// against silently falling back to the row interpreter everywhere) and must
/// stay fully dormant in row mode.
#[test]
fn vectorizable_plans_report_vectorized_steps() {
    for (label, build) in [
        ("wordcount", vectorizable_wordcount as fn() -> _),
        ("scan", vectorizable_scan as fn() -> _),
    ] {
        let (plan, _) = build();
        let analysis = rheem::default_context().with_batch(true).explain_analyze(&plan).unwrap();
        assert!(
            analysis.rows.iter().any(|r| r.vec.vec_steps > 0),
            "{label}: no operator reported vectorized steps"
        );
        let analysis = rheem::default_context().with_batch(false).explain_analyze(&plan).unwrap();
        assert!(
            analysis.rows.iter().all(|r| r.vec.vec_steps == 0 && r.vec.row_steps == 0),
            "{label}: row mode reported batch statistics"
        );
    }
}

// ---- shuffle/join/sort axis ---------------------------------------------

/// One randomly generated *shuffle-heavy* plan: vectorizable (spec'd builtin)
/// or opaque (closure) narrow chains feeding a wide exchange — Join, SortBy,
/// ReduceBy, or a composition. Vectorizable cases drive the columnar
/// exchange; opaque cases drive its row fallback. Both must be invisible.
#[derive(Clone, Debug)]
struct ShuffleSpec {
    pre_a: Vec<u8>,
    pre_b: Vec<u8>,
    wide: u8, // 0 join, 1 sort, 2 reduce_by, 3 join+reduce_by, 4 reduce_by+sort
    opaque: bool,
    data_a: Vec<Value>,
    data_b: Vec<Value>,
}

fn gen_shuffle_spec(case: u64) -> ShuffleSpec {
    let mut rng = SplitMix64(0x5AFE ^ case.wrapping_mul(0x9E37_79B9));
    let chain = |rng: &mut SplitMix64| -> Vec<u8> {
        let len = 1 + rng.range_usize(3);
        (0..len).map(|_| rng.range_usize(4) as u8).collect()
    };
    ShuffleSpec {
        pre_a: chain(&mut rng),
        pre_b: chain(&mut rng),
        wide: rng.range_usize(5) as u8,
        opaque: rng.chance(0.3),
        data_a: pairs(&mut rng, 80),
        data_b: pairs(&mut rng, 50),
    }
}

/// Specs that reach the columnar ReduceBy exchange: int-only spec'd chains
/// (codes 0 and 1 — a float map would knock the int-sum combine back to
/// rows), no opaque op, one per ReduceBy shape. The last one carries more
/// than 8 192 rows, so the exchange merges buckets across partitions.
fn int_reduce_specs() -> Vec<ShuffleSpec> {
    let mut rng = SplitMix64(0x1E7_5EED);
    [(2u8, 80usize), (3, 80), (4, 20_000)]
        .into_iter()
        .map(|(wide, rows)| {
            let mut chain = || (0..2).map(|_| rng.range_usize(2) as u8).collect::<Vec<u8>>();
            let (pre_a, pre_b) = (chain(), chain());
            ShuffleSpec {
                pre_a,
                pre_b,
                wide,
                opaque: false,
                data_a: pairs_of_len(&mut rng, rows),
                data_b: pairs_of_len(&mut rng, 50),
            }
        })
        .collect()
}

/// Narrow ops drawn entirely from spec'd builtins, so the whole pre-exchange
/// segment compiles to a vector kernel and partitions arrive columnar at the
/// wide operator.
fn apply_vec_op(q: rheem_core::plan::DataQuanta, code: u8) -> rheem_core::plan::DataQuanta {
    match code {
        0 => q.map(MapUdf::field_add_int("vbump", 1, 3)),
        1 => q.filter(PredicateUdf::from_sargs(
            "vpos",
            vec![Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(-50i64) }],
        )),
        2 => q.map(MapUdf::field_add_float("vfadd", 1, 0.5)),
        _ => q.map(MapUdf::field_mul_float("vfmul", 1, 2.0)),
    }
}

fn build_shuffle_plan(
    spec: &ShuffleSpec,
) -> (rheem_core::plan::RheemPlan, rheem_core::plan::OperatorId) {
    let apply = |mut q: rheem_core::plan::DataQuanta, chain: &[u8]| {
        for &code in chain {
            q = if spec.opaque { apply_op(q, code) } else { apply_vec_op(q, code) };
        }
        q
    };
    let mut b = PlanBuilder::new();
    let mut q = apply(b.collection(spec.data_a.clone()), &spec.pre_a);
    let join = |q: rheem_core::plan::DataQuanta, b: &mut PlanBuilder| {
        let r = apply(b.collection(spec.data_b.clone()), &spec.pre_b);
        // Flatten the (l, r) join pairs back into (key, combined) shape so
        // downstream wide ops compose.
        q.join(&r, KeyUdf::field(0), KeyUdf::field(0)).map(MapUdf::new("flat", |v| {
            let (l, r) = (v.field(0), v.field(1));
            Value::pair(
                l.field(0).clone(),
                Value::from(l.field(1).as_int().unwrap_or(0) + r.field(1).as_int().unwrap_or(0)),
            )
        }))
    };
    q = match spec.wide {
        0 => join(q, &mut b),
        1 => q.sort_by(KeyUdf::field(0)),
        2 => q.reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("vsum")),
        3 => join(q, &mut b).reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("vsum")),
        _ => q
            .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("vsum"))
            .sort_by(KeyUdf::field(0)),
    };
    let sink = q.collect();
    (b.build().unwrap(), sink)
}

/// Run a shuffle spec under an explicit batch mode; returns the *unsorted*
/// sink output (order is part of the contract for SortBy) and the span-tree
/// structure.
fn run_shuffle_spec(
    spec: &ShuffleSpec,
    batch: bool,
    forced: Option<PlatformId>,
    chaos_seed: Option<u64>,
) -> Result<(Vec<Value>, String)> {
    let mut ctx = rheem::default_context().with_batch(batch);
    ctx.forced_platform = forced;
    ctx.config_mut().chaos_seed = chaos_seed;
    let (plan, sink) = build_shuffle_plan(spec);
    let result = ctx.execute(&plan)?;
    let out = result.sink(sink)?.to_vec();
    let structure = result.trace.as_ref().map(|t| t.render_structure()).unwrap_or_default();
    Ok((out, structure))
}

/// Shuffle-heavy random plans (Join / SortBy / ReduceBy over typed key
/// columns) must be byte-identical — including output *order* — between the
/// columnar exchange and the row exchange, on every engine. The int-only
/// ReduceBy specs make the columnar exchange actually run.
#[test]
fn shuffle_plans_agree_across_batch_and_scheduler_modes() {
    for (case, spec) in (0u64..10).map(gen_shuffle_spec).chain(int_reduce_specs()).enumerate() {
        for forced in PLATFORMS {
            let (row_out, row_trace) = run_shuffle_spec(&spec, false, Some(forced), None).unwrap();
            let (out, trace) = run_shuffle_spec(&spec, true, Some(forced), None).unwrap();
            assert_eq!(
                out, row_out,
                "case {case} on {forced:?}: batch changed the answer: {spec:?}"
            );
            assert_eq!(
                trace, row_trace,
                "case {case} on {forced:?}: batch changed the span tree: {spec:?}"
            );
        }
    }
}

/// The shuffle axis must also survive the chaos matrix: batched and row
/// exchanges either recover to identical answers and traces or die with the
/// same typed error — across all chaos seeds, the int-only ReduceBy specs
/// included.
#[test]
fn shuffle_plans_agree_under_chaos() {
    for chaos_seed in chaos_seeds() {
        for (case, spec) in (0u64..6).map(gen_shuffle_spec).chain(int_reduce_specs()).enumerate() {
            let row = run_shuffle_spec(&spec, false, None, Some(chaos_seed));
            let bat = run_shuffle_spec(&spec, true, None, Some(chaos_seed));
            match (row, bat) {
                (Ok((ro, rt)), Ok((bo, bt))) => {
                    assert_eq!(
                        bo, ro,
                        "chaos seed {chaos_seed:#x} case {case}: shuffle modes disagree on the \
                         answer: {spec:?}"
                    );
                    assert_eq!(
                        bt, rt,
                        "chaos seed {chaos_seed:#x} case {case}: shuffle modes disagree on the \
                         trace: {spec:?}"
                    );
                }
                (Err(re), Err(be)) => assert_eq!(
                    re.to_string(),
                    be.to_string(),
                    "chaos seed {chaos_seed:#x} case {case}: shuffle modes fail differently"
                ),
                (row, bat) => panic!(
                    "chaos seed {chaos_seed:#x} case {case}: one shuffle mode survived, the \
                     other failed (row ok={}, batch ok={})",
                    row.is_ok(),
                    bat.is_ok()
                ),
            }
        }
    }
}

/// Vectorizable ReduceBy plans must actually ship batches across the
/// exchange (guards against the columnar path silently falling back to
/// rows). Join and SortBy have no columnar landing: a chain feeding only one
/// must not columnize rows for it to rebuild, and columns that still arrive
/// must be reported as materialized, as must opaque plans' rows.
#[test]
fn shuffle_plans_report_columnar_exchange() {
    // Deterministic fully-vectorizable specs, one per wide-op shape: an
    // all-int chain (float maps would knock the int-sum combine back to
    // rows) feeding each exchange. Shapes 2 and 4 end their columnar
    // segment in a ReduceBy and must ship batches; shapes 0, 1 and 3 hand
    // rows to a Join or a SortBy; shape 4's SortBy materializes the merged
    // columns of the exchange before it.
    for wide in 0u8..5 {
        let mut spec = gen_shuffle_spec(wide as u64);
        spec.pre_a = vec![0, 1];
        spec.pre_b = vec![1, 0];
        spec.wide = wide;
        spec.opaque = false;
        let (plan, _) = build_shuffle_plan(&spec);
        // Force a distributed engine: only spark/flink run a real exchange.
        let mut ctx = rheem::default_context().with_batch(true);
        ctx.forced_platform = Some(ids::SPARK);
        let analysis = ctx.explain_analyze(&plan).unwrap();
        if matches!(wide, 2 | 4) {
            assert!(
                analysis.rows.iter().any(|r| r.vec.exch_batches > 0),
                "wide op {wide}: columnar exchange never shipped a batch"
            );
        }
        let landings: Vec<_> = analysis
            .rows
            .iter()
            .filter(|r| matches!(r.exec_name.as_str(), "SparkSortBy" | "SparkJoin"))
            .collect();
        let materialized: u64 = landings.iter().map(|r| r.vec.exch_row_rows).sum();
        if wide == 4 {
            assert!(
                materialized > 0
                    && landings.iter().all(|r| r.vec.fallback == Some(Fallback::OpaqueSegment)),
                "wide op {wide}: materialized columns were not reported"
            );
        } else {
            assert_eq!(
                materialized, 0,
                "wide op {wide}: a chain columnized rows for a SortBy or Join"
            );
        }
        // Row mode must stay fully dormant.
        let mut ctx = rheem::default_context().with_batch(false);
        ctx.forced_platform = Some(ids::SPARK);
        let analysis = ctx.explain_analyze(&plan).unwrap();
        assert!(
            analysis.rows.iter().all(|r| r.vec.exch_batches == 0 && r.vec.exch_row_rows == 0),
            "wide op {wide}: row mode reported exchange batch statistics"
        );
    }
    // Opaque random specs must instead surface the row-exchange fallback
    // (and its reason) in the analyze output.
    let mut fallback_cases = 0usize;
    for case in 0u64..10 {
        let mut spec = gen_shuffle_spec(case);
        spec.opaque = true;
        let (plan, _) = build_shuffle_plan(&spec);
        let mut ctx = rheem::default_context().with_batch(true);
        ctx.forced_platform = Some(ids::SPARK);
        let analysis = ctx.explain_analyze(&plan).unwrap();
        fallback_cases += usize::from(
            analysis.rows.iter().any(|r| r.vec.exch_row_rows > 0 && r.vec.fallback.is_some()),
        );
    }
    assert!(fallback_cases > 0, "no opaque case reported a row-exchange fallback");
}

/// Mode agreement must survive the chaos matrix: with an active fault plan,
/// batched and row execution either survive with identical answers and span
/// trees or die with the same typed error.
#[test]
fn batch_modes_agree_under_chaos() {
    for chaos_seed in chaos_seeds() {
        for case in 0u64..6 {
            let spec = gen_spec(case);
            let row = run_spec_batch(&spec, false, None, Some(chaos_seed));
            let bat = run_spec_batch(&spec, true, None, Some(chaos_seed));
            match (row, bat) {
                (Ok((ro, rt)), Ok((bo, bt))) => {
                    assert_eq!(
                        bo, ro,
                        "chaos seed {chaos_seed:#x} case {case}: batch modes disagree on the answer"
                    );
                    assert_eq!(
                        bt, rt,
                        "chaos seed {chaos_seed:#x} case {case}: batch modes disagree on the trace"
                    );
                }
                (Err(re), Err(be)) => assert_eq!(
                    re.to_string(),
                    be.to_string(),
                    "chaos seed {chaos_seed:#x} case {case}: batch modes fail differently"
                ),
                (row, bat) => panic!(
                    "chaos seed {chaos_seed:#x} case {case}: one batch mode survived, the other \
                     failed (row ok={}, batch ok={})",
                    row.is_ok(),
                    bat.is_ok()
                ),
            }
        }
    }
}

// ---- targeted faults ---------------------------------------------------

/// Recoverable transient faults on every platform's operators leave results
/// byte-identical to the fault-free baseline.
#[test]
fn recoverable_transient_faults_keep_answers_identical() {
    for case in 0u64..4 {
        let spec = gen_spec(case);
        for forced in PLATFORMS {
            let baseline = {
                let mut ctx = rheem::default_context();
                ctx.forced_platform = Some(forced);
                run_spec(&spec, &ctx).unwrap()
            };
            let mut ctx = rheem::default_context();
            ctx.forced_platform = Some(forced);
            // Every operator site fails once; a generous budget keeps all
            // recovery in place (no failover possible under forcing).
            ctx.config_mut().retry_budget = 16;
            ctx.config_mut().fault_plan = Some(Arc::new(
                FaultPlan::none()
                    .with_rule(FaultRule::new(FaultKind::Transient).on_platform(forced).failing(1)),
            ));
            let out = run_spec(&spec, &ctx).unwrap();
            assert_eq!(out, baseline, "case {case} on {forced:?} changed under faults");
            assert!(
                ctx.metrics().counter("rheem_retries_total") >= 1,
                "case {case} on {forced:?}: no fault was injected"
            );
        }
    }
}

/// Recoverable channel-transfer faults (collect/parallelize conversions)
/// likewise never change answers.
#[test]
fn recoverable_transfer_faults_keep_answers_identical() {
    for case in 0u64..4 {
        let spec = gen_spec(case);
        for forced in [ids::SPARK, ids::FLINK] {
            let baseline = {
                let mut ctx = rheem::default_context();
                ctx.forced_platform = Some(forced);
                run_spec(&spec, &ctx).unwrap()
            };
            let mut ctx = rheem::default_context();
            ctx.forced_platform = Some(forced);
            ctx.config_mut().retry_budget = 16;
            ctx.config_mut().fault_plan = Some(Arc::new(
                FaultPlan::none()
                    .with_rule(FaultRule::new(FaultKind::Transfer).on_platform(forced).failing(1)),
            ));
            let out = run_spec(&spec, &ctx).unwrap();
            assert_eq!(out, baseline, "case {case} on {forced:?} changed under transfer faults");
        }
    }
}

/// A persistent fault on a *forced* platform cannot fail over: it must
/// surface as a typed budget-exhaustion error, never as a wrong answer.
#[test]
fn persistent_fault_on_forced_platform_surfaces_typed() {
    let spec = gen_spec(1);
    for forced in PLATFORMS {
        let mut ctx = rheem::default_context();
        ctx.forced_platform = Some(forced);
        ctx.config_mut().fault_plan = Some(Arc::new(FaultPlan::none().with_rule(
            FaultRule::new(FaultKind::Transient).on_platform(forced).failing(PERSISTENT),
        )));
        match run_spec(&spec, &ctx) {
            Ok(_) => panic!("persistent fault on {forced:?} must not succeed"),
            Err(RheemError::Exhausted(x)) => assert_eq!(x.platform, forced),
            Err(other) => panic!("expected typed exhaustion on {forced:?}, got {other}"),
        }
    }
}

/// A persistent fault on the preferred platform *with free platform choice*
/// completes via failover and still matches the baseline byte-for-byte.
#[test]
fn persistent_fault_fails_over_and_matches_baseline() {
    for case in 0u64..4 {
        let spec = gen_spec(case);
        let baseline = run_spec(&spec, &rheem::default_context()).unwrap();
        // Whichever platform the optimizer prefers first, kill it for good.
        let preferred = {
            let ctx = rheem::default_context();
            let (plan, _) = build_plan(&spec);
            *ctx.optimize(&plan)
                .unwrap()
                .platforms
                .iter()
                .find(|p| PLATFORMS.contains(p))
                .expect("plan uses a general-purpose platform")
        };
        let mut ctx = rheem::default_context();
        ctx.config_mut().fault_plan = Some(Arc::new(FaultPlan::none().with_rule(
            FaultRule::new(FaultKind::Transient).on_platform(preferred).failing(PERSISTENT),
        )));
        let out = run_spec(&spec, &ctx).unwrap();
        assert_eq!(out, baseline, "case {case}: failover from {preferred:?} changed the answer");
        assert!(
            ctx.metrics().counter("rheem_failovers_total") >= 1,
            "case {case}: expected a failover"
        );
    }
}

// ---- service mode ---------------------------------------------------------

/// Run a seeded batch of specs through a [`JobService`], round-robined over
/// three tenants; returns per-job (sorted output, span-tree structure).
/// `concurrent_service` picks the submission style: the sequential reference
/// runs one runner and waits for each job before submitting the next, the
/// concurrent run submits everything up front against four runners. The
/// cross-job cache stays off so answers cannot depend on inter-job reuse.
fn run_specs_service(
    specs: &[Spec],
    concurrent_service: bool,
    batch: bool,
) -> Vec<(Vec<Value>, String)> {
    let mut ctx = rheem::default_context().with_batch(batch);
    ctx.set_cache(None);
    let tenants: Vec<TenantSpec> = (0..3)
        .map(|t| TenantSpec::new(&format!("t{t}")).with_max_in_flight(specs.len().max(1)))
        .collect();
    let config = ServiceConfig {
        runners: if concurrent_service { 4 } else { 1 },
        ..ServiceConfig::default()
    };
    let service = JobService::new(ctx, config, tenants).unwrap();

    let collect = |handle: JobHandle, sink: rheem_core::plan::OperatorId| {
        let result = handle.wait().unwrap();
        let mut out = result.sink(sink).unwrap().to_vec();
        out.sort();
        let structure = result.trace.as_ref().map(|t| t.render_structure()).unwrap_or_default();
        (out, structure)
    };

    if concurrent_service {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (plan, sink) = build_plan(spec);
                (service.submit(&format!("t{}", i % 3), plan).unwrap(), sink)
            })
            .collect();
        handles.into_iter().map(|(h, sink)| collect(h, sink)).collect()
    } else {
        specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (plan, sink) = build_plan(spec);
                let h = service.submit(&format!("t{}", i % 3), plan).unwrap();
                collect(h, sink)
            })
            .collect()
    }
}

/// The job service must be invisible per job: a seeded batch of random
/// plans submitted concurrently (4 runners, fair-share job pick) returns
/// exactly the outputs and span-tree structures of strictly sequential
/// submission, with batch execution on and off.
#[test]
fn service_concurrent_submission_matches_sequential() {
    let specs: Vec<Spec> = (0..6).map(|case| gen_spec(0x5E51 ^ (case * 31))).collect();
    for batch in [false, true] {
        let seq = run_specs_service(&specs, false, batch);
        let conc = run_specs_service(&specs, true, batch);
        for (i, (s, c)) in seq.iter().zip(&conc).enumerate() {
            assert!(!s.0.is_empty(), "case {i}: sequential reference produced nothing");
            assert_eq!(
                c.0, s.0,
                "case {i} (batch={batch}): concurrent submission changed the answer"
            );
            assert_eq!(
                c.1, s.1,
                "case {i} (batch={batch}): concurrent submission changed the span tree"
            );
        }
    }
}
