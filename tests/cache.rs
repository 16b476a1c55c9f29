//! Cross-job result-cache suite (PR 5).
//!
//! Covers the cache's observable contract end to end: a warm rerun replays
//! published intermediates through `CachedSource` (visible in the trace and
//! cheaper in virtual time), source-file rewrites invalidate by mtime/len,
//! UDF identity participates in the fingerprint, eviction respects the byte
//! budget, and — the load-bearing invariant — results are *byte-identical*
//! with the cache on and off, cold and warm, across the fixed chaos-seed
//! matrix. Also regression-tests deterministic plan selection on exact cost
//! ties (100 in-process optimizations must agree) and NaN cost robustness.

use std::sync::Arc;
use std::time::Duration;

use rheem::prelude::*;
use rheem_core::cache::ResultCache;
use rheem_core::channel::{kinds, ChannelData, ChannelKind};
use rheem_core::cost::{CostModel, Load};
use rheem_core::exec::{ExecCtx, ExecutionOperator};
use rheem_core::kernels::SplitMix64;
use rheem_core::mapping::{Candidate, FnMapping};
use rheem_core::trace::SpanKind;
use rheem_core::udf::FlatMapUdf;

/// Fixed chaos-seed matrix (mirrors `tests/differential.rs` and CI).
const CHAOS_SEEDS: [u64; 3] = [0xC0FFEE, 42, 7];

/// A context sharing `cache`.
fn ctx_with(cache: &Arc<ResultCache>) -> RheemContext {
    rheem::default_context().with_shared_cache(Arc::clone(cache))
}

fn wordcount(path: &std::path::Path) -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = b
        .read_text_file(path)
        .flat_map(FlatMapUdf::new("split", |v| {
            v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
        }))
        .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .collect();
    (b.build().unwrap(), sink)
}

fn run(ctx: &RheemContext, plan: &RheemPlan, sink: OperatorId) -> Result<(Vec<Value>, JobMetrics)> {
    let result = ctx.execute(plan)?;
    let mut out = result.sink(sink)?.to_vec();
    out.sort();
    Ok((out, result.metrics))
}

// ---- hit / replay -------------------------------------------------------

/// Overlapping `execute` calls on one context publish the cache's own
/// cumulative stats, so once they finish every `rheem_cache_*_total`
/// counter equals [`ResultCache::stats`] however the calls interleaved.
#[test]
fn concurrent_execute_cache_counters_equal_the_cache_stats() {
    let path = std::path::PathBuf::from("hdfs://tests/cache/concurrent_corpus.txt");
    rheem_datagen::text::write_corpus(&path, 200, 5).unwrap();
    let (plan, _) = wordcount(&path);
    let cache = Arc::new(ResultCache::new(64 << 20));
    let ctx = ctx_with(&cache);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..20 {
                    ctx.execute(&plan).unwrap();
                }
            });
        }
    });
    let st = cache.stats();
    assert!(st.hits > 0, "warm runs hit: {st:?}");
    for (name, v) in [
        ("hits", st.hits),
        ("misses", st.misses),
        ("inserts", st.inserts),
        ("evictions", st.evictions),
        ("spills", st.spills),
        ("promotions", st.promotions),
    ] {
        let key = format!("rheem_cache_{name}_total");
        assert_eq!(ctx.metrics().counter(&key), v, "{key} vs {st:?}");
    }
}

/// Rerunning an identical job against a shared cache replays published
/// intermediates: the trace shows a `CachedSource`, virtual time does not
/// regress, and the answer is byte-identical to the cold run.
#[test]
fn warm_rerun_replays_from_cache() {
    let path = std::path::PathBuf::from("hdfs://tests/cache/warm_corpus.txt");
    rheem_datagen::text::write_corpus(&path, 400, 11).unwrap();
    let (plan, sink) = wordcount(&path);

    let cache = Arc::new(ResultCache::new(64 << 20));
    let ctx = ctx_with(&cache);

    let (cold, cold_m) = run(&ctx, &plan, sink).unwrap();
    let mut counts = std::collections::HashMap::<String, i64>::new();
    for line in rheem::storage::read_lines(&path).unwrap() {
        for word in line.split_whitespace() {
            *counts.entry(word.to_string()).or_default() += 1;
        }
    }
    let mut want: Vec<Value> =
        counts.into_iter().map(|(w, n)| Value::pair(Value::from(w), Value::from(n))).collect();
    want.sort();
    assert_eq!(cold, want, "the cold answer is not the corpus's word count");
    let after_cold = cache.stats();
    assert_eq!(after_cold.hits, 0, "first run cannot hit");
    assert!(after_cold.inserts >= 1, "commit must publish reusable channels");

    let warm_result = ctx.execute(&plan).unwrap();
    let mut warm = warm_result.sink(sink).unwrap().to_vec();
    warm.sort();
    assert_eq!(warm, cold, "cache replay changed the answer");

    let after_warm = cache.stats();
    assert!(after_warm.hits >= 1, "identical rerun must hit: {after_warm:?}");
    let trace = warm_result.trace.as_ref().expect("tracing is on by default");
    assert!(
        trace.profiles.iter().any(|p| p.name == "CachedSource"),
        "warm plan must execute a CachedSource, got {:?}",
        trace.profiles.iter().map(|p| p.name.clone()).collect::<Vec<_>>()
    );
    assert!(
        warm_result.metrics.virtual_ms <= cold_m.virtual_ms,
        "replay may not cost more than recomputation ({} > {})",
        warm_result.metrics.virtual_ms,
        cold_m.virtual_ms
    );
}

/// A warm rerun is one phase that only replays: the replayed operator's
/// estimate is the entry's recorded cardinality, so no checkpoint sees it as
/// uncertain and nothing is re-planned, and the entry it replayed is not
/// published again.
#[test]
fn warm_rerun_replays_in_one_phase_and_publishes_nothing() {
    let path = std::path::PathBuf::from("hdfs://tests/cache/one_phase_corpus.txt");
    rheem_datagen::text::write_corpus(&path, 200, 13).unwrap();
    let (plan, sink) = wordcount(&path);
    let cache = Arc::new(ResultCache::new(64 << 20));
    let ctx = ctx_with(&cache);
    let (cold, _) = run(&ctx, &plan, sink).unwrap();
    let inserts = cache.stats().inserts;

    let warm = ctx.execute(&plan).unwrap();
    let trace = warm.trace.as_ref().expect("tracing is on by default");
    assert!(trace.profiles.iter().any(|p| p.name == "CachedSource"), "the warm run must replay");
    assert_eq!(warm.metrics.replans, 0, "a replay is a measurement, not a surprise");
    assert!(
        trace.spans.iter().all(|s| s.kind != SpanKind::PlanRewrite),
        "a warm run must not rewrite its plan"
    );
    assert_eq!(cache.stats().inserts, inserts, "the warm run published a new entry");
    let mut out = warm.sink(sink).unwrap().to_vec();
    out.sort();
    assert_eq!(out, cold, "cache replay changed the answer");
}

/// Word counts from a text file, summed per word.
fn counts(b: &mut PlanBuilder, path: &std::path::Path) -> DataQuanta {
    b.read_text_file(path)
        .flat_map(FlatMapUdf::new("split", |v| {
            v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
        }))
        .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("count"))
}

/// A replay that feeds a join is planned at its true size in the first
/// phase. The join and the map after it land on the platforms that a
/// re-plan from the measured cardinality chose before replays pinned their
/// estimates (java.streams for both, at this size), and the answer is the
/// cold run's.
#[test]
fn replay_feeding_a_join_plans_downstream_at_the_true_size() {
    let path = std::path::PathBuf::from("hdfs://tests/cache/join_corpus.txt");
    rheem_datagen::text::write_corpus(&path, 256, 31).unwrap();
    let mut b = PlanBuilder::new();
    counts(&mut b, &path).collect();
    let wordcount = b.build().unwrap();
    let mut b = PlanBuilder::new();
    let ranks: Vec<Value> = (0..2000i64)
        .map(|r| {
            Value::pair(Value::from(rheem_datagen::text::word_for(r as usize)), Value::from(r))
        })
        .collect();
    let ranks = b.collection(ranks);
    let sink = counts(&mut b, &path)
        .join(&ranks, KeyUdf::field(0), KeyUdf::field(0))
        .map(MapUdf::new("rank_count", |v| {
            Value::pair(v.field(1).field(1).clone(), v.field(0).field(1).clone())
        }))
        .collect();
    let plan = b.build().unwrap();
    let (cold, _) = run(&rheem::default_context(), &plan, sink).unwrap();

    let cache = Arc::new(ResultCache::new(64 << 20));
    let ctx = ctx_with(&cache);
    ctx.execute(&wordcount).unwrap();
    let warm = ctx.execute(&plan).unwrap();
    let trace = warm.trace.as_ref().expect("tracing is on by default");
    assert!(trace.profiles.iter().any(|p| p.name == "CachedSource"), "the counts must replay");
    assert_eq!(warm.metrics.replans, 0);
    let downstream: Vec<(&str, &str)> = trace
        .profiles
        .iter()
        .filter(|p| p.platform != "rheem.driver")
        .map(|p| (p.name.as_str(), p.platform.as_str()))
        .collect();
    assert_eq!(downstream, [("JavaJoin", "java.streams"), ("JavaMap", "java.streams")]);
    let mut out = warm.sink(sink).unwrap().to_vec();
    out.sort();
    assert_eq!(out.len(), 1908);
    assert_eq!(out, cold, "the replay changed the join's answer");
}

// ---- invalidation -------------------------------------------------------

/// Rewriting the source file (same byte length, newer mtime) changes the
/// fingerprint: the rerun misses the cache and sees the new content.
#[test]
fn source_rewrite_invalidates_by_mtime() {
    let path = std::path::PathBuf::from("hdfs://tests/cache/mtime_corpus.txt");
    rheem_storage::write_lines(&path, ["alpha alpha beta"]).unwrap();
    let (plan, sink) = wordcount(&path);

    let cache = Arc::new(ResultCache::new(64 << 20));
    let ctx = ctx_with(&cache);
    let (old, _) = run(&ctx, &plan, sink).unwrap();

    // Same length, different content; sleep so the mtime visibly advances.
    std::thread::sleep(Duration::from_millis(25));
    rheem_storage::write_lines(&path, ["alpha betaa beta"]).unwrap();

    let before = cache.stats();
    let (new, _) = run(&ctx, &plan, sink).unwrap();
    assert_eq!(cache.stats().hits, before.hits, "stale fingerprint must not hit");
    assert_ne!(new, old, "rerun must reflect the rewritten file");
    let (fresh, _) = run(&rheem::default_context(), &wordcount(&path).0, sink).unwrap();
    assert_eq!(new, fresh, "post-rewrite answer must match an uncached run");
}

/// The UDF's identity (name) is part of the fingerprint: a structurally
/// identical plan with a different UDF must not reuse the cached result.
#[test]
fn udf_identity_is_part_of_the_fingerprint() {
    let data: Vec<Value> = (0..64).map(|i| Value::from(i as i64)).collect();
    let plan_with = |name: &'static str, delta: i64| {
        let mut b = PlanBuilder::new();
        let sink = b
            .collection(data.clone())
            .map(MapUdf::new(name, move |v| Value::from(v.as_int().unwrap_or(0) + delta)))
            .collect();
        (b.build().unwrap(), sink)
    };

    let cache = Arc::new(ResultCache::new(64 << 20));
    let ctx = ctx_with(&cache);
    let (a_plan, a_sink) = plan_with("inc", 1);
    run(&ctx, &a_plan, a_sink).unwrap();

    let (b_plan, b_sink) = plan_with("inc2", 2);
    let (out, _) = run(&ctx, &b_plan, b_sink).unwrap();
    assert_eq!(cache.stats().hits, 0, "different UDF must miss");
    assert_eq!(out, (2..66).map(|i| Value::from(i as i64)).collect::<Vec<_>>());
}

// ---- eviction -----------------------------------------------------------

/// Under a small byte budget, publishing results from several distinct jobs
/// evicts LRU entries; the cache never exceeds its budget.
#[test]
fn eviction_respects_the_byte_budget() {
    let make_data = |job: i64| -> Vec<Value> {
        (0..300).map(|i| Value::from(format!("job{job}-row{i}-{}", "x".repeat(24)))).collect()
    };
    // Budget sized to the actual datasets: roomy enough for two published
    // results, too tight for a third — forcing LRU eviction, not rejection.
    let budget = (2.2 * rheem_core::exec::dataset_bytes(&make_data(0))) as u64;
    let cache = Arc::new(ResultCache::new(budget));
    let ctx = ctx_with(&cache);
    for job in 0..6i64 {
        let mut b = PlanBuilder::new();
        let sink = b
            .collection(make_data(job))
            .map(MapUdf::new(format!("tag{job}"), |v| v.clone()))
            .collect();
        let plan = b.build().unwrap();
        run(&ctx, &plan, sink).unwrap();
    }
    let stats = cache.stats();
    assert!(stats.inserts >= 2, "jobs must publish: {stats:?}");
    assert!(stats.evictions >= 1, "budget pressure must evict: {stats:?}");
    assert!(
        stats.bytes <= cache.budget_bytes(),
        "cache exceeded its budget: {} > {}",
        stats.bytes,
        cache.budget_bytes()
    );
}

// ---- differential: cache on/off, cold/warm, under chaos ------------------

/// Seeded random plan generator (same shape as `tests/differential.rs`).
fn gen_case(case: u64) -> (RheemPlan, OperatorId) {
    let (b, q) = gen_body(case);
    let sink = q.collect();
    (b.build().unwrap(), sink)
}

/// [`gen_case`]'s plan up to its sink.
fn gen_body(case: u64) -> (PlanBuilder, DataQuanta) {
    let mut rng = SplitMix64(0xCAC4E ^ case.wrapping_mul(0x9E37_79B9));
    let len = 20 + rng.range_usize(40);
    let data: Vec<Value> = (0..len)
        .map(|_| {
            Value::pair(
                Value::from(rng.range_usize(8) as i64),
                Value::from(rng.range_usize(200) as i64 - 100),
            )
        })
        .collect();
    let mut b = PlanBuilder::new();
    let mut q = b.collection(data);
    let n_ops = 2 + rng.range_usize(3);
    for _ in 0..n_ops {
        q = match rng.range_usize(4) {
            0 => q.map(MapUdf::new("inc", |v| {
                Value::pair(v.field(0).clone(), Value::from(v.field(1).as_int().unwrap_or(0) + 1))
            })),
            1 => q.filter(PredicateUdf::new("pos", |v| v.field(1).as_int().unwrap_or(0) > 0)),
            2 => q.flat_map(FlatMapUdf::new("dup", |v| vec![v.clone(), v.clone()])),
            _ => q.map(MapUdf::new("rekey", |v| {
                let k = v.field(0).as_int().unwrap_or(0);
                let x = v.field(1).as_int().unwrap_or(0);
                Value::pair(Value::from((k + x).rem_euclid(7)), v.field(1).clone())
            })),
        };
    }
    q = match rng.range_usize(3) {
        0 => q.reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum")),
        1 => q.distinct(),
        _ => q,
    };
    (b, q)
}

/// The cache must be invisible in every answer: for random plans, cache-off,
/// cache-on-cold and cache-on-warm runs are byte-identical.
#[test]
fn results_identical_with_cache_on_and_off() {
    for case in 0u64..8 {
        let (plan, sink) = gen_case(case);
        let (reference, _) = run(&rheem::default_context(), &plan, sink).unwrap();
        let cache = Arc::new(ResultCache::new(64 << 20));
        let ctx = ctx_with(&cache);
        let (cold, _) = run(&ctx, &plan, sink).unwrap();
        assert_eq!(cold, reference, "case {case}: cold cached run diverged");
        let (warm, _) = run(&ctx, &plan, sink).unwrap();
        assert_eq!(warm, reference, "case {case}: warm cached run diverged");
    }
    // The matrix must actually exercise reuse somewhere (deterministic).
    let (plan, sink) = gen_case(0);
    let cache = Arc::new(ResultCache::new(64 << 20));
    let ctx = ctx_with(&cache);
    run(&ctx, &plan, sink).unwrap();
    run(&ctx, &plan, sink).unwrap();
    assert!(cache.stats().hits >= 1, "differential matrix never hit the cache");
}

/// Under seeded chaos, a cached run (cold or warm) either survives with the
/// exact fault-free answer or dies with a typed error — never a wrong
/// answer, exactly like the cache-off harness.
#[test]
fn chaos_with_cache_never_produces_wrong_answers() {
    let mut survived = 0usize;
    for &chaos_seed in &CHAOS_SEEDS {
        for case in 0u64..5 {
            let (plan, sink) = gen_case(case);
            let (baseline, _) = run(&rheem::default_context(), &plan, sink).unwrap();
            let cache = Arc::new(ResultCache::new(64 << 20));
            let mut ctx = ctx_with(&cache);
            ctx.config_mut().chaos_seed = Some(chaos_seed);
            for leg in ["cold", "warm"] {
                match run(&ctx, &plan, sink) {
                    Ok((out, _)) => {
                        assert_eq!(
                            out, baseline,
                            "chaos {chaos_seed:#x} case {case} ({leg}): cached run changed the answer"
                        );
                        survived += 1;
                    }
                    Err(
                        RheemError::Fault(_) | RheemError::Exhausted(_) | RheemError::Optimizer(_),
                    ) => {}
                    Err(other) => {
                        panic!("chaos {chaos_seed:#x} case {case} ({leg}): untyped error {other}")
                    }
                }
            }
        }
    }
    assert!(survived > 0, "chaos matrix never survived a cached run");
}

// ---- replay dominance ----------------------------------------------------

/// The pruned optimizer and the exhaustive oracle over `cache`, on `plan`:
/// they must agree on the chosen alternatives, the replays and `est_ms` to
/// the bit. One optimization first lets a spilled entry the plan replays be
/// promoted, so both sides then price the same tiers (checked: the compared
/// pair promotes nothing). Returns the pruned side's enumeration stats.
fn assert_pruned_matches_exhaustive(
    ctx: &RheemContext,
    cache: &Arc<ResultCache>,
    plan: &RheemPlan,
    what: &str,
) -> rheem_core::optimizer::EnumerationStats {
    let mut opt =
        rheem_core::optimizer::Optimizer::new(ctx.registry(), ctx.profiles(), ctx.cost_model());
    opt.cache = Some(Arc::clone(cache));
    let estimator = rheem_core::cardinality::Estimator::new();
    opt.optimize(plan, &estimator).unwrap();
    let promotions = cache.stats().promotions;
    let oracle = opt.optimize_exhaustive(plan, &estimator).unwrap();
    let pruned = opt.optimize(plan, &estimator).unwrap();
    assert_eq!(cache.stats().promotions, promotions, "{what}: the tiers moved between the pair");
    assert_eq!(pruned.choice, oracle.choice, "{what}: chosen alternatives differ");
    assert_eq!(pruned.replayed, oracle.replayed, "{what}: replays differ");
    assert_eq!(pruned.est_ms.to_bits(), oracle.est_ms.to_bits(), "{what}: est_ms differs");
    assert_eq!(oracle.stats.dominated, 0, "{what}: the oracle dropped candidates");
    pruned.stats
}

/// Dropping the recompute alternatives that a replay provably beats loses
/// no plan: on the suite's warm random plans, under a memory-only and a
/// spilling cache, `optimize` equals `optimize_exhaustive`.
#[test]
fn replay_dominance_keeps_the_exhaustive_plan() {
    let mut dominated = 0;
    for case in 0u64..8 {
        let (plan, sink) = gen_case(case);
        let memory = Arc::new(ResultCache::new(64 << 20));
        let ctx = ctx_with(&memory);
        run(&ctx, &plan, sink).unwrap();
        let st = memory.stats();
        let published = st.bytes + st.spilled_bytes;
        let stats = assert_pruned_matches_exhaustive(&ctx, &memory, &plan, &format!("case {case}"));
        dominated += stats.dominated;

        let spill = Arc::new(ResultCache::with_disk(published / 2, 64 << 20));
        let ctx = ctx_with(&spill);
        run(&ctx, &plan, sink).unwrap();
        let what = format!("case {case}, spilling");
        assert_pruned_matches_exhaustive(&ctx, &spill, &plan, &what);

        // A new job that extends the warm one: its replay feeds operators
        // with alternatives of their own.
        let (b, q) = gen_body(case);
        q.map(MapUdf::new("extend", |v| v.clone()))
            .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("extend_sum"))
            .collect();
        let extended = b.build().unwrap();
        for (cache, shape) in [(&memory, "memory"), (&spill, "spilling")] {
            let ctx = ctx_with(cache);
            let what = format!("case {case}, extended, {shape}");
            assert_pruned_matches_exhaustive(&ctx, cache, &extended, &what);
        }
    }
    assert!(dominated > 0, "no warm random plan dropped a recompute alternative");
}

/// When the cost model makes a replay dearer than recomputation, nothing is
/// dropped and the plan recomputes.
#[test]
fn a_replay_dearer_than_recomputation_drops_nothing() {
    let (plan, sink) = gen_case(0);
    let cache = Arc::new(ResultCache::new(64 << 20));
    let mut ctx = ctx_with(&cache);
    run(&ctx, &plan, sink).unwrap();
    let cheap = ctx.optimize(&plan).unwrap();
    assert!(!cheap.replayed.is_empty() && cheap.stats.dominated > 0, "case 0 must replay warm");

    ctx.cost_model_mut().set("rheem.driver.cachedsource.alpha", 1e12);
    let stats = assert_pruned_matches_exhaustive(&ctx, &cache, &plan, "dear replay");
    assert_eq!(stats.dominated, 0, "a replay that loses dominated something");
    assert!(ctx.optimize(&plan).unwrap().replayed.is_empty(), "the dear replay was chosen");
}

/// The movement bound counts: a cheap replay whose only way into its
/// Spark-pinned consumer is a dear `parallelize` loses to recomputing on
/// Spark, so nothing is dropped.
#[test]
fn a_replay_with_dear_movement_drops_nothing() {
    let path = std::path::PathBuf::from("hdfs://tests/cache/dear_movement_corpus.txt");
    rheem_datagen::text::write_corpus(&path, 200, 23).unwrap();
    let (warm_plan, warm_sink) = wordcount(&path);
    let cache = Arc::new(ResultCache::new(64 << 20));
    let mut ctx = ctx_with(&cache);
    run(&ctx, &warm_plan, warm_sink).unwrap();

    let mut b = PlanBuilder::new();
    b.read_text_file(&path)
        .flat_map(FlatMapUdf::new("split", |v| {
            v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
        }))
        .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .map(MapUdf::new("on_spark", |v| v.clone()))
        .with_target_platform(ids::SPARK)
        .collect();
    let plan = b.build().unwrap();
    assert!(!ctx.optimize(&plan).unwrap().replayed.is_empty(), "the extension must replay warm");

    ctx.cost_model_mut().set("spark.parallelize.alpha", 1e9);
    let stats = assert_pruned_matches_exhaustive(&ctx, &cache, &plan, "dear movement");
    assert_eq!(stats.dominated, 0, "a replay that loses on movement dominated something");
    assert!(ctx.optimize(&plan).unwrap().replayed.is_empty(), "the dear movement was chosen");
}

/// A warm in-memory WordCount does not re-enumerate the subplan it replays,
/// and replays in one phase.
#[test]
fn warm_wordcount_enumerates_only_around_its_replay() {
    let path = std::path::PathBuf::from("hdfs://tests/cache/dominance_corpus.txt");
    rheem_datagen::text::write_corpus(&path, 200, 17).unwrap();
    let (plan, sink) = wordcount(&path);
    let cache = Arc::new(ResultCache::new(64 << 20));
    let ctx = ctx_with(&cache);
    let cold_partials = ctx.optimize(&plan).unwrap().stats.partials_created;
    let (cold, _) = run(&ctx, &plan, sink).unwrap();

    let warm = ctx.optimize(&plan).unwrap();
    assert!(warm.stats.partials_created <= 4, "warm enumeration: {:?}", warm.stats);
    assert!(warm.stats.partials_created < cold_partials, "{cold_partials} cold partials");
    let (out, metrics) = run(&ctx, &plan, sink).unwrap();
    assert_eq!(metrics.replans, 0, "a replay is a measurement, not a surprise");
    assert_eq!(out, cold, "cache replay changed the answer");
}

// ---- structural subplan sharing (PR 10) ---------------------------------

/// Interior cut points of fused chains are published as additional
/// fingerprints: a *different* job sharing only a structural prefix with an
/// earlier one replays that prefix from the cache instead of recomputing.
#[test]
fn structurally_shared_prefix_hits_across_different_jobs() {
    let data: Vec<Value> = (0..120)
        .map(|i| Value::pair(Value::from(i as i64 % 9), Value::from(i as i64 - 60)))
        .collect();
    let bump = || {
        MapUdf::new("share_bump", |v| {
            Value::pair(v.field(0).clone(), Value::from(v.field(1).as_int().unwrap_or(0) + 1))
        })
    };

    // Job A: source -> bump -> square -> collect (bump ∘ square fuse).
    let mut b = PlanBuilder::new();
    let a_sink = b
        .collection(data.clone())
        .map(bump())
        .map(MapUdf::new("share_square", |v| {
            let x = v.field(1).as_int().unwrap_or(0);
            Value::pair(v.field(0).clone(), Value::from(x * x))
        }))
        .collect();
    let a_plan = b.build().unwrap();

    // Job B: source -> bump -> filter -> collect. Only the `bump` prefix is
    // shared with job A — reuse requires the interior cut-point fingerprint.
    let job_b = || {
        let mut b = PlanBuilder::new();
        let sink = b
            .collection(data.clone())
            .map(bump())
            .filter(PredicateUdf::new("share_pos", |v| v.field(1).as_int().unwrap_or(0) > 0))
            .collect();
        (b.build().unwrap(), sink)
    };

    let (b_plan, b_sink) = job_b();
    let (reference, _) = run(&rheem::default_context(), &b_plan, b_sink).unwrap();

    let cache = Arc::new(ResultCache::new(64 << 20));
    let ctx = ctx_with(&cache);
    run(&ctx, &a_plan, a_sink).unwrap();
    assert!(cache.stats().inserts >= 2, "job A must publish interior cut points too");

    let before = cache.stats();
    let (out, _) = run(&ctx, &b_plan, b_sink).unwrap();
    assert!(
        cache.stats().hits > before.hits,
        "job B must hit job A's shared prefix: {:?}",
        cache.stats()
    );
    assert_eq!(out, reference, "prefix replay changed job B's answer");
}

// ---- disk spill (PR 10) -------------------------------------------------

/// With a disk tier configured, memory pressure spills cold entries instead
/// of evicting them: resident bytes stay within the memory budget, spilled
/// entries remain reachable, and a hit promotes back to memory.
#[test]
fn spilled_entries_replay_and_promote_within_memory_budget() {
    let make_data = |job: i64| -> Vec<Value> {
        (0..300).map(|i| Value::from(format!("spill{job}-row{i}-{}", "y".repeat(24)))).collect()
    };
    let one = rheem_core::cache::rows_unique_bytes(&Arc::new(make_data(0)));
    // Memory holds ~2 published results; disk holds the rest of the sweep.
    let cache = Arc::new(ResultCache::with_disk(2 * one + one / 2, 16 * one));
    let ctx = ctx_with(&cache);

    let job = |j: i64| {
        let mut b = PlanBuilder::new();
        let sink = b
            .collection(make_data(j))
            .map(MapUdf::new(format!("spill_tag{j}"), |v| v.clone()))
            .collect();
        (b.build().unwrap(), sink)
    };

    let (first_plan, first_sink) = job(0);
    let (cold, _) = run(&ctx, &first_plan, first_sink).unwrap();
    for j in 1..6i64 {
        let (plan, sink) = job(j);
        run(&ctx, &plan, sink).unwrap();
    }
    let st = cache.stats();
    assert!(st.spills >= 1, "memory pressure must spill, not drop: {st:?}");
    assert_eq!(st.evictions, 0, "disk budget was roomy; nothing may be evicted: {st:?}");
    assert!(st.bytes <= cache.budget_bytes(), "resident bytes exceed the memory budget: {st:?}");
    assert!(
        st.spilled_bytes <= cache.disk_budget_bytes(),
        "spill tier exceeds the disk budget: {st:?}"
    );
    assert!(st.spilled_entries >= 1, "spilled entries must stay registered: {st:?}");

    // Job 0 is the coldest entry — replaying it must hit the disk tier,
    // reproduce the cold answer exactly, and promote back to memory.
    let (warm, _) = run(&ctx, &first_plan, first_sink).unwrap();
    assert_eq!(warm, cold, "disk-tier replay changed the answer");
    let st = cache.stats();
    assert!(st.hits >= 1, "spilled entry must stay reachable: {st:?}");
    assert!(st.promotions >= 1, "disk hit must promote to memory: {st:?}");
}

/// A warm job over a two-tier cache probes every spilled entry its plan
/// could replay (source, split, pair and ReduceBy of a WordCount) but reads
/// back only the one it does replay: one promotion. The replay point is the
/// one a cache that fits the session chooses, and once promoted the entry
/// prices exactly as it does there.
#[test]
fn warm_job_promotes_only_the_entry_it_replays() {
    let jobs: Vec<(RheemPlan, OperatorId)> = (0..3u64)
        .map(|i| {
            let path = std::path::PathBuf::from(format!("hdfs://tests/cache/promote_{i}.txt"));
            rheem_datagen::text::write_corpus(&path, 64, 20 + i).unwrap();
            wordcount(&path)
        })
        .collect();
    let (plan, sink) = &jobs[0];
    let reduce = plan.node(*sink).inputs[0];
    let (reference, _) = run(&rheem::default_context(), plan, *sink).unwrap();

    // Memory holds what one job publishes, so the session spills job 0's.
    let fit = Arc::new(ResultCache::new(64 << 20));
    let fit_ctx = ctx_with(&fit);
    run(&fit_ctx, plan, *sink).unwrap();
    let spill = Arc::new(ResultCache::with_disk(fit.stats().bytes, 64 << 20));
    let spill_ctx = ctx_with(&spill);
    for (p, s) in &jobs {
        run(&fit_ctx, p, *s).unwrap();
        run(&spill_ctx, p, *s).unwrap();
    }
    assert_eq!(fit.stats().spills, 0);

    let before = spill.stats();
    assert!(before.spilled_entries >= 4, "job 0's entries must be on disk: {before:?}");
    let warm = spill_ctx.optimize(plan).unwrap();
    let after = spill.stats();
    assert!(after.hits - before.hits >= 2, "the warm job must probe several entries: {after:?}");
    assert_eq!(after.promotions - before.promotions, 1, "only the replayed entry is read back");
    assert!(
        after.bytes <= spill.budget_bytes() && after.spilled_bytes <= spill.disk_budget_bytes()
    );

    let replay = |o: &rheem_core::optimizer::OptimizedPlan| {
        let c = o.candidate_of(reduce);
        (c.exec.name().to_string(), c.covers.clone())
    };
    let fit_warm = fit_ctx.optimize(plan).unwrap();
    assert_eq!(replay(&warm).0, "CachedSource");
    assert_eq!(replay(&warm), replay(&fit_warm), "the spill tier moved the replay point");
    assert!(warm.est_ms > fit_warm.est_ms, "a disk replay is priced above a memory one");
    let promoted = spill_ctx.optimize(plan).unwrap();
    assert_eq!(promoted.est_ms.to_bits(), fit_warm.est_ms.to_bits());
    assert_eq!(spill.stats().promotions, after.promotions, "a resident entry is not read again");

    let (out, _) = run(&spill_ctx, plan, *sink).unwrap();
    assert_eq!(out, reference, "disk-tier replay changed the answer");
}

// ---- unique-bytes accounting (PR 10) ------------------------------------

/// `dataset_bytes` prices every row as if it owned its payload; cache
/// accounting must charge shared `Arc` allocations (interned dictionary
/// strings) once. Regression test for the budget overstatement.
#[test]
fn interned_strings_are_accounted_once() {
    let shared = Value::from("shared-dictionary-entry-".repeat(4));
    let rows: Dataset = Arc::new((0..200).map(|_| shared.clone()).collect());
    let unique = rheem_core::cache::rows_unique_bytes(&rows);
    let naive = rheem_core::exec::dataset_bytes(&rows) as u64;
    assert!(unique < naive / 4, "shared allocation charged per row: unique={unique} naive={naive}");

    // Distinct strings of the same shape must still be charged in full.
    let distinct: Dataset = Arc::new(
        (0..200).map(|i| Value::from(format!("distinct-dictionary-entry-{i:072}"))).collect(),
    );
    let distinct_unique = rheem_core::cache::rows_unique_bytes(&distinct);
    assert!(
        distinct_unique > unique * 4,
        "distinct allocations under-charged: {distinct_unique} vs shared {unique}"
    );

    // And the cache books exactly the deduplicated size.
    let cache = ResultCache::new(64 << 20);
    cache.insert(rheem_core::cache::Fingerprint(0xACC0), Arc::clone(&rows));
    assert_eq!(cache.stats().bytes, unique, "cache must account unique bytes");
}

// ---- cache × batch differential matrix (PR 10) ---------------------------

/// The cache must stay invisible across the execution-mode matrix: for the
/// fixed seeds, cache-{off,cold,warm} × batch-{on,off} runs are all
/// byte-identical, both in a memory-only cache and in a two-tier cache whose
/// memory budget is half the case's published bytes — there the cold leg
/// must spill and the warm leg must promote from disk.
#[test]
fn results_identical_across_cache_and_batch_matrix() {
    for &seed in &CHAOS_SEEDS {
        let (plan, sink) = gen_case(seed);
        let mut reference: Option<Vec<Value>> = None;
        for batch in [false, true] {
            let mut off = rheem::default_context();
            off.config_mut().batch = batch;
            let (base, _) = run(&off, &plan, sink).unwrap();
            let r = reference.get_or_insert_with(|| base.clone());
            assert_eq!(&base, r, "seed {seed:#x} batch={batch}: cache-off diverged");
            let cold_and_warm = |cache: &Arc<ResultCache>, shape: &str| {
                let mut ctx = ctx_with(cache);
                ctx.config_mut().batch = batch;
                let (cold, _) = run(&ctx, &plan, sink).unwrap();
                let st = cache.stats();
                let published = st.bytes + st.spilled_bytes;
                let (warm, _) = run(&ctx, &plan, sink).unwrap();
                let what = format!("seed {seed:#x} batch={batch} {shape}");
                assert!(cache.stats().hits >= 1, "{what}: warm leg never hit");
                assert_eq!(&cold, r, "{what}: cold cached run diverged");
                assert_eq!(&warm, r, "{what}: warm cached run diverged");
                published
            };
            let published = cold_and_warm(&Arc::new(ResultCache::new(64 << 20)), "memory");
            let spill = Arc::new(ResultCache::with_disk(published / 2, 64 << 20));
            cold_and_warm(&spill, "spill");
            let st = spill.stats();
            assert!(st.spills > 0, "seed {seed:#x} batch={batch}: nothing spilled: {st:?}");
            assert!(st.promotions > 0, "seed {seed:#x} batch={batch}: nothing promoted: {st:?}");
        }
    }
}

/// Columnar payloads survive publish/replay: a warm run whose downstream
/// chain is vectorizable executes a `CachedSource` *and* still reports
/// vectorized steps — the replay feeds batches, not flattened rows.
#[test]
fn cached_replay_feeds_vectorized_downstream_chain() {
    let data: Vec<Value> = (0..400)
        .map(|i| Value::pair(Value::from(i as i64 % 32), Value::from(i as i64 - 200)))
        .collect();
    let sarg = Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(0i64) };

    // Job A: source -> sargable filter -> collect (publishes the filter's
    // columnar output).
    let mut b = PlanBuilder::new();
    let sp = PredicateUdf::from_sarg("vec_pos", sarg.clone());
    let a_sink = b.collection(data.clone()).filter_sarg(sp.pred, sp.sarg).collect();
    let a_plan = b.build().unwrap();

    // Job B extends the shared prefix with a vectorizable arithmetic chain.
    let job_b = || {
        let mut b = PlanBuilder::new();
        let sp = PredicateUdf::from_sarg("vec_pos", sarg.clone());
        let sink = b
            .collection(data.clone())
            .filter_sarg(sp.pred, sp.sarg)
            .map(MapUdf::field_add_int("vec_bump", 1, 5))
            .project([1usize, 0])
            .collect();
        (b.build().unwrap(), sink)
    };

    let (b_plan, b_sink) = job_b();
    let (reference, _) = run(&rheem::default_context(), &b_plan, b_sink).unwrap();

    let cache = Arc::new(ResultCache::new(64 << 20));
    let ctx = ctx_with(&cache).with_batch(true);
    run(&ctx, &a_plan, a_sink).unwrap();

    let analysis = ctx.explain_analyze(&b_plan).unwrap();
    assert!(
        analysis.rows.iter().any(|r| r.exec_name == "CachedSource"),
        "warm job B must replay the shared prefix, got {:?}",
        analysis.rows.iter().map(|r| r.exec_name.clone()).collect::<Vec<_>>()
    );
    assert!(
        analysis.rows.iter().any(|r| r.vec.vec_steps > 0),
        "downstream of the replay must stay vectorized: {:?}",
        analysis.rows.iter().map(|r| (r.exec_name.clone(), r.vec.vec_steps)).collect::<Vec<_>>()
    );
    let (warm, _) = run(&ctx, &b_plan, b_sink).unwrap();
    assert_eq!(warm, reference, "columnar replay changed job B's answer");
}

// ---- deterministic tie-breaking -----------------------------------------

/// A zero-cost execution operator used to manufacture *exact* cost ties.
struct TieMap {
    udf: MapUdf,
    tag: &'static str,
}

impl ExecutionOperator for TieMap {
    fn name(&self) -> &str {
        self.tag
    }
    fn platform(&self) -> PlatformId {
        ids::JAVA_STREAMS
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, _in: &[f64], _avg: f64, _m: &CostModel) -> Load {
        Load::default()
    }
    fn execute(
        &self,
        _ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        bc: &rheem_core::udf::BroadcastCtx,
    ) -> Result<ChannelData> {
        let data = inputs[0].flatten()?;
        let out: Vec<Value> = data.iter().map(|v| self.udf.call(v, bc)).collect();
        Ok(ChannelData::Collection(Arc::new(out)))
    }
}

fn register_tie_mapping(ctx: &mut RheemContext, tag: &'static str) {
    ctx.registry_mut().add_mapping(Arc::new(FnMapping(move |_plan: &RheemPlan, node: &_| {
        let rheem_core::plan::OperatorNode { id, op, .. } = node;
        match op {
            LogicalOp::Map(udf) => {
                vec![Candidate::single(*id, Arc::new(TieMap { udf: udf.clone(), tag }))]
            }
            _ => Vec::new(),
        }
    })));
}

/// Exact cost ties must break deterministically: with two identical
/// zero-cost alternatives registered for every `Map`, 100 consecutive
/// optimizations (each building fresh hash maps, hence fresh iteration
/// orders) must choose the same candidate and the same platform set.
/// Regression test for the `total_cmp` + choice-vector tie-break.
#[test]
fn cost_ties_break_deterministically_over_100_runs() {
    let mut ctx = rheem::default_context();
    register_tie_mapping(&mut ctx, "TieMapA");
    register_tie_mapping(&mut ctx, "TieMapB");

    let mut b = PlanBuilder::new();
    let q = b
        .collection((0..128).map(|i| Value::from(i as i64)).collect::<Vec<_>>())
        .map(MapUdf::new("m1", |v| Value::from(v.as_int().unwrap_or(0) + 1)))
        .filter(PredicateUdf::new("pos", |v| v.as_int().unwrap_or(0) > 3))
        .map(MapUdf::new("m2", |v| Value::from(v.as_int().unwrap_or(0) * 2)));
    let sink = q.collect();
    let plan = b.build().unwrap();

    let fingerprint = |opt: &rheem_core::optimizer::OptimizedPlan| {
        let mut names: Vec<String> = Vec::new();
        for node in plan.operators() {
            let c = opt.candidate_of(node.id);
            names.push(format!("{}@{}", c.exec.name(), c.exec.platform()));
        }
        (names, opt.platforms.clone())
    };

    let first = fingerprint(&ctx.optimize(&plan).unwrap());
    assert!(
        first.0.iter().any(|n| n.starts_with("TieMap")),
        "tie candidates must be competitive, got {:?}",
        first.0
    );
    for run in 1..100 {
        let choice = fingerprint(&ctx.optimize(&plan).unwrap());
        assert_eq!(choice, first, "run {run}: plan selection flapped on a cost tie");
    }

    // The tied winner must also execute correctly.
    let result = ctx.execute(&plan).unwrap();
    let mut out = result.sink(sink).unwrap().to_vec();
    out.sort();
    let expect: Vec<Value> =
        (4..129).map(|i| Value::from(2 * i as i64)).collect::<Vec<_>>().into_iter().collect();
    let mut expect = expect;
    expect.sort();
    assert_eq!(out, expect);
}

/// A NaN cost hint (pathological calibration) must not panic the
/// enumerator, and selection must stay deterministic: `total_cmp` gives NaN
/// a fixed place in the order instead of poisoning comparisons.
#[test]
fn nan_costs_do_not_panic_and_stay_deterministic() {
    let ctx = rheem::default_context();
    let mut b = PlanBuilder::new();
    let sink = b
        .collection((0..32).map(|i| Value::from(i as i64)).collect::<Vec<_>>())
        .map(MapUdf::new("poisoned", |v| Value::from(v.as_int().unwrap_or(0) + 1)).cost(f64::NAN))
        .map(MapUdf::new("sane", |v| Value::from(v.as_int().unwrap_or(0) * 3)))
        .collect();
    let plan = b.build().unwrap();

    let first = ctx.optimize(&plan).unwrap();
    let first_names: Vec<String> =
        plan.operators().iter().map(|n| first.candidate_of(n.id).exec.name().to_string()).collect();
    for _ in 0..20 {
        let opt = ctx.optimize(&plan).unwrap();
        let names: Vec<String> = plan
            .operators()
            .iter()
            .map(|n| opt.candidate_of(n.id).exec.name().to_string())
            .collect();
        assert_eq!(names, first_names, "NaN cost made selection nondeterministic");
    }
    let result = ctx.execute(&plan).unwrap();
    let mut out = result.sink(sink).unwrap().to_vec();
    out.sort();
    assert_eq!(out.len(), 32);
    assert!(out.contains(&Value::from(3i64)), "execution under NaN costs must stay correct");
}
