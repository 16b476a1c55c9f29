//! Property-based tests over core invariants: every platform computes the
//! same results as the single-threaded kernels, fused chains are
//! indistinguishable from the unfused operator-at-a-time path, the
//! optimizer's pruning is lossless, IEJoin equals the nested loop, and the
//! movement planner's trees are valid and minimal-ish.
//!
//! Cases are generated with the repo's own deterministic `SplitMix64` so the
//! suite needs no external property-testing dependency and every failure is
//! reproducible from its case number.

use std::sync::Arc;

use rheem_core::kernels::{self, SplitMix64};
use rheem_core::plan::{IneqCond, PlanBuilder};
use rheem_core::udf::{CmpOp, KeyUdf, MapUdf, PredicateUdf, ReduceUdf};
use rheem_core::value::Value;

fn int_rows(rng: &mut SplitMix64) -> Vec<(i64, i64)> {
    let len = rng.range_usize(120);
    (0..len).map(|_| (rng.range_usize(40) as i64, rng.range_usize(200) as i64 - 100)).collect()
}

fn rows_to_values(rows: &[(i64, i64)]) -> Vec<Value> {
    rows.iter().map(|&(k, v)| Value::pair(Value::from(k), Value::from(v))).collect()
}

fn sum_udf() -> ReduceUdf {
    ReduceUdf::new("sum", |a, b| {
        Value::pair(
            a.field(0).clone(),
            Value::from(a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0)),
        )
    })
}

/// Every registered platform produces the same multiset of results for
/// a map→filter→reduce_by pipeline.
#[test]
fn platforms_agree_on_pipelines() {
    use rheem_core::platform::ids;
    for case in 0u64..12 {
        let mut rng = SplitMix64(0xA11CE ^ case);
        let data = rows_to_values(&int_rows(&mut rng));
        let mut outputs: Vec<Vec<Value>> = Vec::new();
        for forced in [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK] {
            let mut ctx = rheem::default_context();
            ctx.forced_platform = Some(forced);
            let mut b = PlanBuilder::new();
            let sink = b
                .collection(data.clone())
                .map(MapUdf::new("inc", |v| {
                    Value::pair(v.field(0).clone(), Value::from(v.field(1).as_int().unwrap() + 1))
                }))
                .filter(PredicateUdf::new("pos", |v| v.field(1).as_int().unwrap() > 0))
                .reduce_by_key(KeyUdf::field(0), sum_udf())
                .collect();
            let plan = b.build().unwrap();
            let result = ctx.execute(&plan).unwrap();
            let mut out = result.sink(sink).unwrap().to_vec();
            out.sort();
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1], "case {case}: streams vs spark");
        assert_eq!(outputs[1], outputs[2], "case {case}: spark vs flink");
    }
}

/// A fused narrow chain produces *identical* output (same values, same
/// order) to the unfused operator-at-a-time path on every platform.
#[test]
fn fused_chain_matches_unfused_on_all_platforms() {
    use rheem_core::platform::ids;
    for case in 0u64..8 {
        let mut rng = SplitMix64(0xF05E ^ case);
        let data = rows_to_values(&int_rows(&mut rng));
        for forced in [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK] {
            let run = |fusion: bool| -> Vec<Value> {
                let mut ctx = rheem::default_context().with_fusion(fusion);
                ctx.forced_platform = Some(forced);
                let mut b = PlanBuilder::new();
                let sink = b
                    .collection(data.clone())
                    .map(MapUdf::new("inc", |v| {
                        Value::pair(
                            v.field(0).clone(),
                            Value::from(v.field(1).as_int().unwrap() + 1),
                        )
                    }))
                    .filter(PredicateUdf::new("pos", |v| v.field(1).as_int().unwrap() > 0))
                    .flat_map(rheem_core::udf::FlatMapUdf::new("dup", |v| {
                        vec![v.clone(), v.clone()]
                    }))
                    .project(vec![1])
                    .collect();
                let plan = b.build().unwrap();
                ctx.execute(&plan).unwrap().sink(sink).unwrap().to_vec()
            };
            let fused = run(true);
            let unfused = run(false);
            assert_eq!(fused, unfused, "case {case} on {forced:?}");
        }
    }
}

/// Fused terminal aggregation — a narrow chain streaming straight into a
/// ReduceBy's hash accumulator — produces identical output to the unfused
/// operator-at-a-time path on every platform (the combined cover never
/// materializes the pair dataset, but the result must not change).
#[test]
fn fused_terminal_aggregation_matches_unfused() {
    use rheem_core::platform::ids;
    for case in 0u64..8 {
        let mut rng = SplitMix64(0xA66 ^ case);
        let data = rows_to_values(&int_rows(&mut rng));
        for forced in [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK] {
            let run = |fusion: bool| -> Vec<Value> {
                let mut ctx = rheem::default_context().with_fusion(fusion);
                ctx.forced_platform = Some(forced);
                let mut b = PlanBuilder::new();
                let sink = b
                    .collection(data.clone())
                    .flat_map(rheem_core::udf::FlatMapUdf::new("dup", |v| {
                        vec![v.clone(), v.clone()]
                    }))
                    .filter(PredicateUdf::new("pos", |v| v.field(1).as_int().unwrap() > -50))
                    .map(MapUdf::new("tag", |v| Value::pair(v.field(0).clone(), Value::from(1))))
                    .reduce_by_key(KeyUdf::field(0), sum_udf())
                    .collect();
                let plan = b.build().unwrap();
                ctx.execute(&plan).unwrap().sink(sink).unwrap().to_vec()
            };
            let fused = run(true);
            let unfused = run(false);
            assert_eq!(fused, unfused, "case {case} on {forced:?}");
        }
    }
}

/// Columnar batch execution is observationally identical to row execution:
/// the same spec'd pipeline produces byte-identical output (same values,
/// same order) with batch execution on and off, on every platform.
#[test]
fn batch_mode_matches_row_mode_on_all_platforms() {
    use rheem_core::udf::{FlatMapUdf, Sarg};
    for case in 0u64..8 {
        let mut rng = SplitMix64(0xBA7C ^ case);
        let data = rows_to_values(&int_rows(&mut rng));
        let lit = rng.range_usize(100) as i64 - 50;
        for forced in [
            rheem_core::platform::ids::JAVA_STREAMS,
            rheem_core::platform::ids::SPARK,
            rheem_core::platform::ids::FLINK,
        ] {
            let run = |batch: bool| -> Vec<Value> {
                let mut ctx = rheem::default_context().with_batch(batch);
                ctx.forced_platform = Some(forced);
                let sarg = Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(lit) };
                let sp = PredicateUdf::from_sarg("gt", sarg);
                let mut b = PlanBuilder::new();
                let sink = b
                    .collection(data.clone())
                    .filter_sarg(sp.pred, sp.sarg)
                    .map(MapUdf::field_add_int("bump", 1, 3))
                    .project(vec![1, 0])
                    .collect();
                let plan = b.build().unwrap();
                ctx.execute(&plan).unwrap().sink(sink).unwrap().to_vec()
            };
            assert_eq!(run(true), run(false), "case {case} on {forced:?}");
        }
        // Tokenizing flat-map into a dictionary-keyed word count.
        let lines: Vec<Value> =
            rheem_datagen::generate_text(40, 6, 60, case).into_iter().map(Value::from).collect();
        let run = |batch: bool| -> Vec<Value> {
            let ctx = rheem::default_context().with_batch(batch);
            let mut b = PlanBuilder::new();
            let sink = b
                .collection(lines.clone())
                .flat_map(FlatMapUdf::split_whitespace("split"))
                .map(MapUdf::pair_with_int("pair", 1))
                .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
                .collect();
            let plan = b.build().unwrap();
            ctx.execute(&plan).unwrap().sink(sink).unwrap().to_vec()
        };
        assert_eq!(run(true), run(false), "case {case}: wordcount diverged across batch modes");
    }
}

/// The vector kernel agrees with the row interpreter on arbitrarily typed
/// data — and refuses (returns `None`, falling back) rather than computing
/// wrong answers when runtime types don't columnize.
#[test]
fn vector_kernel_matches_row_pipeline_on_random_typed_data() {
    use rheem_core::batch::VectorKernel;
    use rheem_core::fused::{FusedPipeline, FusedStep};
    use rheem_core::udf::Sarg;
    let bc = rheem_core::udf::BroadcastCtx::new();
    let mut vectorized = 0usize;
    let mut refused = 0usize;
    for case in 0u64..32 {
        let mut rng = SplitMix64(0x7B1D ^ case);
        let len = rng.range_usize(80);
        // Mix types per case: uniform int pairs columnize; per-row type
        // mixtures and scalars must make the kernel refuse.
        let flavor = rng.range_usize(4);
        let data: Vec<Value> = (0..len)
            .map(|_| match flavor {
                0 => Value::pair(
                    Value::from(rng.range_usize(10) as i64),
                    Value::from(rng.range_usize(100) as i64 - 50),
                ),
                1 => Value::pair(
                    Value::from(rng.range_usize(10) as i64),
                    Value::from(rng.range_f64(-5.0, 5.0)),
                ),
                2 => {
                    // per-row type mixture in field 1
                    if rng.chance(0.5) {
                        Value::pair(Value::from(1i64), Value::from(2i64))
                    } else {
                        Value::pair(Value::from(1i64), Value::from("str"))
                    }
                }
                _ => Value::from(rng.range_usize(50) as i64), // scalar rows
            })
            .collect();
        let sarg = Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(0i64) };
        let sp = PredicateUdf::from_sarg("gt", sarg);
        let pipeline = FusedPipeline::new(vec![
            FusedStep::Filter(sp.pred),
            FusedStep::Map(MapUdf::field_add_int("bump", 1, 7)),
            FusedStep::Project(vec![1, 0]),
        ]);
        let vk = VectorKernel::compile(&pipeline).expect("spec'd steps must compile");
        let row_out = pipeline.run(&data, &bc);
        match vk.run_values(&data) {
            Some(b) => {
                vectorized += 1;
                assert_eq!(b.to_values(), row_out, "case {case} flavor {flavor}");
            }
            None => refused = refused.saturating_add(1),
        }
    }
    assert!(vectorized > 0, "no case exercised the vector path");
    assert!(refused > 0, "no case exercised the refusal/fallback path");
}

/// `partition_batch` routes every row to exactly the bucket the row
/// shuffle would pick (`bucket_of_key` on the key field) and preserves
/// intra-bucket input order — for int and dictionary (string) keys.
#[test]
fn partition_batch_matches_row_shuffle_routing() {
    use rheem_core::batch::{self, Batch};
    use rheem_core::udf::KeySpec;
    for case in 0u64..24 {
        let mut rng = SplitMix64(0x9A27 ^ case);
        // Non-empty: an empty slice columnizes as an (untyped) scalar batch
        // and legitimately refuses to partition.
        let data: Vec<Value> = if case % 2 == 0 {
            (0..1 + rng.range_usize(119))
                .map(|_| {
                    Value::pair(
                        Value::from(rng.range_usize(40) as i64),
                        Value::from(rng.range_usize(200) as i64 - 100),
                    )
                })
                .collect()
        } else {
            (0..1 + rng.range_usize(119))
                .map(|_| {
                    Value::pair(
                        Value::from(format!("k{}", rng.range_usize(12))),
                        Value::from(rng.range_usize(200) as i64 - 100),
                    )
                })
                .collect()
        };
        let n = 1 + rng.range_usize(6);
        let b = Batch::from_values(&data);
        let buckets = batch::partition_batch(&b, &KeySpec::Field(0), n)
            .expect("typed pairs must partition columnar");
        assert_eq!(buckets.len(), n, "case {case}: bucket count");
        let mut want: Vec<Vec<Value>> = vec![Vec::new(); n];
        for v in &data {
            want[kernels::bucket_of_key(v.field(0), n)].push(v.clone());
        }
        for (j, bucket) in buckets.iter().enumerate() {
            assert_eq!(bucket.to_values(), want[j], "case {case} bucket {j}");
        }
    }
}

/// The columnar two-phase reduce — `combine_batch` → `partition_batch` →
/// `merge_batches` — agrees byte-for-byte (values *and* first-occurrence
/// order, per reduce partition) with the row path `combine_by` → `shuffle`
/// → `merge_by`.
#[test]
fn columnar_reduce_exchange_matches_row_exchange() {
    use rheem_core::batch::{self, Batch};
    use rheem_core::udf::KeySpec;
    for case in 0u64..24 {
        let mut rng = SplitMix64(0xC0B1 ^ case);
        let data = rows_to_values(&int_rows(&mut rng));
        let parts_n = 1 + rng.range_usize(5);
        let chunks: Vec<Vec<Value>> =
            data.chunks(data.len().div_ceil(parts_n).max(1)).map(|c| c.to_vec()).collect();
        let n = chunks.len().max(1);
        let agg = ReduceUdf::pair_int_sum("sum");
        // Row reference: keyed partials, hash exchange, carried-key merge.
        let combined: Vec<Arc<Vec<Value>>> = chunks
            .iter()
            .map(|c| Arc::new(kernels::combine_by(c, &KeyUdf::field(0), &agg)))
            .collect();
        let (ex, _) = rheem_core::partitioned::exchange(&combined, &KeyUdf::field(0), n);
        let row_out: Vec<Vec<Value>> = ex.iter().map(|p| kernels::merge_by(p, &agg)).collect();
        // Columnar path: slot-array combine, batch partition, slot merge.
        let spec = agg.spec.clone().expect("pair_int_sum is spec'd");
        let mut contribs: Vec<Vec<Batch>> = vec![Vec::new(); n];
        for c in &chunks {
            let cb = batch::combine_batch(&Batch::from_values(c), &spec)
                .expect("int pairs must combine columnar");
            let parts = batch::partition_batch(&cb, &KeySpec::Field(0), n)
                .expect("combined batch must partition");
            for (j, part) in parts.into_iter().enumerate() {
                contribs[j].push(part);
            }
        }
        for (j, bucket) in contribs.iter().enumerate() {
            let merged = batch::merge_batches(bucket).expect("uniform int contributions merge");
            assert_eq!(merged.to_values(), row_out[j], "case {case} reduce partition {j} (of {n})");
        }
    }
}

/// Batched sort — per-partition `sort_batch` plus the k-way `merge_sorted`
/// re-chunk — produces exactly the row path's partitions: per-partition
/// sort, global merge-sort, contiguous `div_ceil` re-chunk.
#[test]
fn sort_batch_merge_matches_row_sort() {
    use rheem_core::batch::{self, Batch};
    use rheem_core::udf::KeySpec;
    for case in 0u64..24 {
        let mut rng = SplitMix64(0x50B7 ^ case);
        let data = rows_to_values(&int_rows(&mut rng));
        let parts_n = 1 + rng.range_usize(5);
        let chunks: Vec<Vec<Value>> =
            data.chunks(data.len().div_ceil(parts_n).max(1)).map(|c| c.to_vec()).collect();
        let n = chunks.len().max(1);
        let key = KeyUdf::field(0);
        // Row reference: local sorts, one global stable sort, re-chunk.
        let mut all: Vec<Value> = chunks.iter().flat_map(|c| kernels::sort_by(c, &key)).collect();
        all = kernels::sort_by(&all, &key);
        let chunk = all.len().div_ceil(n).max(1);
        let mut want: Vec<Vec<Value>> = all.chunks(chunk).map(|c| c.to_vec()).collect();
        if want.is_empty() {
            want.push(Vec::new());
        }
        // Columnar path.
        let sorted: Vec<Batch> = chunks
            .iter()
            .map(|c| {
                batch::sort_batch(&Batch::from_values(c), &KeySpec::Field(0))
                    .expect("int pairs must sort columnar")
            })
            .collect();
        let merged = batch::merge_sorted(&sorted, &KeySpec::Field(0), n)
            .expect("sorted int batches must merge");
        assert_eq!(merged.len(), want.len(), "case {case}: partition count");
        for (j, b) in merged.iter().enumerate() {
            assert_eq!(b.to_values(), want[j], "case {case} sort partition {j}");
        }
    }
}

/// `join_buckets` (batched build/probe over co-partitioned buckets) emits
/// exactly what the row `shuffle` + `hash_join` pipeline does — same pairs,
/// same left-major/right-input order — for int and string keys.
#[test]
fn join_buckets_matches_row_hash_join() {
    use rheem_core::batch::{self, Batch};
    use rheem_core::udf::KeySpec;
    for case in 0u64..24 {
        let mut rng = SplitMix64(0x701A ^ case);
        let gen = |rng: &mut SplitMix64, strings: bool| -> Vec<Value> {
            (0..rng.range_usize(80))
                .map(|_| {
                    let k = rng.range_usize(8);
                    Value::pair(
                        if strings { Value::from(format!("k{k}")) } else { Value::from(k as i64) },
                        Value::from(rng.range_usize(100) as i64),
                    )
                })
                .collect()
        };
        let strings = case % 2 == 1;
        let left = gen(&mut rng, strings);
        let right = gen(&mut rng, strings);
        let n = 1 + rng.range_usize(5);
        let lchunks: Vec<Arc<Vec<Value>>> =
            left.chunks(left.len().div_ceil(n).max(1)).map(|c| Arc::new(c.to_vec())).collect();
        let rchunks: Vec<Arc<Vec<Value>>> =
            right.chunks(right.len().div_ceil(n).max(1)).map(|c| Arc::new(c.to_vec())).collect();
        let key = KeyUdf::field(0);
        // Row reference: hash exchange both sides, per-partition hash join.
        let (le, _) = rheem_core::partitioned::exchange(&lchunks, &key, n);
        let (re, _) = rheem_core::partitioned::exchange(&rchunks, &key, n);
        let row_out: Vec<Vec<Value>> =
            le.iter().zip(&re).map(|(l, r)| kernels::hash_join(l, r, &key, &key)).collect();
        // Columnar path: partition each input batch, join per bucket.
        let ks = KeySpec::Field(0);
        let mut lb: Vec<Vec<Batch>> = vec![Vec::new(); n];
        let mut rb: Vec<Vec<Batch>> = vec![Vec::new(); n];
        for (chunks, buckets) in [(&lchunks, &mut lb), (&rchunks, &mut rb)] {
            for c in chunks.iter() {
                let parts = batch::partition_batch(&Batch::from_values(c), &ks, n)
                    .expect("typed pairs must partition");
                for (j, p) in parts.into_iter().enumerate() {
                    buckets[j].push(p);
                }
            }
        }
        for j in 0..n {
            let out = batch::join_buckets(&lb[j], &rb[j], &ks, &ks)
                .expect("typed key columns must join columnar");
            assert_eq!(out, row_out[j], "case {case} join bucket {j} (strings={strings})");
        }
    }
}

/// Float arithmetic, conjunctive sargs, and string-predicate kernels agree
/// with the row closures they mirror, element for element — and refuse
/// (fall back) rather than diverge on untyped data.
#[test]
fn float_and_string_kernels_match_row_closures() {
    use rheem_core::batch::VectorKernel;
    use rheem_core::fused::{FusedPipeline, FusedStep};
    use rheem_core::udf::{Sarg, StrOp};
    let bc = rheem_core::udf::BroadcastCtx::new();
    let mut vectorized = 0usize;
    for case in 0u64..24 {
        let mut rng = SplitMix64(0xF10A ^ case);
        // (word, float) pairs: string predicate on field 0, float math on 1.
        let words = ["alpha", "beta", "axiom", "gamma", "apex", "delta"];
        let data: Vec<Value> = (0..rng.range_usize(100))
            .map(|_| {
                Value::pair(
                    Value::from(words[rng.range_usize(words.len())]),
                    Value::from(rng.range_f64(-10.0, 10.0)),
                )
            })
            .collect();
        let pipeline = FusedPipeline::new(vec![
            FusedStep::Filter(PredicateUdf::str_match("pre", 0, StrOp::StartsWith, "a")),
            FusedStep::Map(MapUdf::field_add_float("fadd", 1, 0.25)),
            FusedStep::Map(MapUdf::field_mul_float("fmul", 1, 1.5)),
            FusedStep::Filter(PredicateUdf::from_sargs(
                "band",
                vec![Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(-9.0f64) }],
            )),
        ]);
        let vk = VectorKernel::compile(&pipeline).expect("spec'd steps must compile");
        let row_out = pipeline.run(&data, &bc);
        if let Some(b) = vk.run_values(&data) {
            vectorized += 1;
            assert_eq!(b.to_values(), row_out, "case {case}: float/string kernels diverged");
        }
        // Conjunctive sargs over int pairs (both conditions must apply).
        let ints = rows_to_values(&int_rows(&mut rng));
        let conj = FusedPipeline::new(vec![FusedStep::Filter(PredicateUdf::from_sargs(
            "band2",
            vec![
                Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(-20i64) },
                Sarg { field: 1, op: CmpOp::Le, literal: Value::from(40i64) },
            ],
        ))]);
        let vk2 = VectorKernel::compile(&conj).expect("conjunctive sargs must compile");
        let row_out2 = conj.run(&ints, &bc);
        if let Some(b) = vk2.run_values(&ints) {
            vectorized += 1;
            assert_eq!(b.to_values(), row_out2, "case {case}: conjunctive sarg diverged");
        }
    }
    assert!(vectorized > 0, "no case exercised the float/string vector kernels");
}

/// The distributed reduce_by kernel path (partition + shuffle + merge)
/// agrees with the sequential kernel for any associative combiner.
#[test]
fn shuffle_reduce_matches_sequential() {
    for case in 0u64..24 {
        let mut rng = SplitMix64(0x5AFF1E ^ case);
        let data = rows_to_values(&int_rows(&mut rng));
        let parts = 1 + rng.range_usize(5);
        let mut seq = kernels::reduce_by(&data, &KeyUdf::field(0), &sum_udf());
        // partitioned: local combine, hash exchange, final combine
        let chunks: Vec<Arc<Vec<Value>>> =
            data.chunks(data.len().div_ceil(parts).max(1)).map(|c| Arc::new(c.to_vec())).collect();
        let combined: Vec<Arc<Vec<Value>>> = chunks
            .iter()
            .map(|c| Arc::new(kernels::reduce_by(c, &KeyUdf::field(0), &sum_udf())))
            .collect();
        let (exchanged, _) = rheem_core::partitioned::exchange(&combined, &KeyUdf::field(0), parts);
        let mut dist: Vec<Value> = exchanged
            .iter()
            .flat_map(|p| kernels::reduce_by(p, &KeyUdf::field(0), &sum_udf()))
            .collect();
        seq.sort();
        dist.sort();
        assert_eq!(seq, dist, "case {case} with {parts} partitions");
    }
}

/// IEJoin equals the nested loop for arbitrary data and operators.
#[test]
fn iejoin_equals_nested_loop() {
    let cmp_ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    for case in 0u64..24 {
        let mut rng = SplitMix64(0x1E101 ^ case);
        let l = rows_to_values(&int_rows(&mut rng));
        let r = rows_to_values(&int_rows(&mut rng));
        let op1 = cmp_ops[rng.range_usize(cmp_ops.len())];
        let op2 = cmp_ops[rng.range_usize(cmp_ops.len())];
        let c1 = IneqCond { left_field: 0, op: op1, right_field: 0 };
        let c2 = IneqCond { left_field: 1, op: op2, right_field: 1 };
        let mut fast = bigdansing::iejoin::iejoin(&l, &r, &c1, &c2);
        let mut slow = kernels::ineq_join_nested(&l, &r, &[c1, c2]);
        fast.sort();
        slow.sort();
        assert_eq!(fast, slow, "case {case} ops {op1:?}/{op2:?}");
    }
}

/// Lossless pruning: the pruned enumeration finds a plan with exactly
/// the exhaustive enumeration's optimal cost.
#[test]
fn pruning_is_lossless() {
    for case in 0u64..12 {
        let mut rng = SplitMix64(0x10551E55 ^ case);
        let len = 1 + rng.range_usize(39);
        let data: Vec<Value> =
            (0..len).map(|_| Value::from(rng.range_usize(100) as i64 - 50)).collect();
        let mut b = PlanBuilder::new();
        let s = b.collection(data);
        let m = s.map(MapUdf::new("m", |v| v.clone()));
        let f = m.filter(PredicateUdf::new("f", |_| true));
        f.distinct().collect();
        m.count().collect(); // second branch forces a shared producer
        let plan = b.build().unwrap();
        let ctx = rheem::default_context();
        let pruned = ctx.optimize(&plan).unwrap();
        let optimizer =
            rheem_core::optimizer::Optimizer::new(ctx.registry(), ctx.profiles(), ctx.cost_model());
        let full = optimizer
            .optimize_exhaustive(&plan, &rheem_core::cardinality::Estimator::new())
            .unwrap();
        assert!(
            (pruned.est_ms - full.est_ms).abs() < 1e-6,
            "case {case}: pruned {} vs exhaustive {}",
            pruned.est_ms,
            full.est_ms
        );
        assert!(pruned.stats.partials_created <= full.stats.partials_created);
    }
}

/// Values survive ordering laws: sort is idempotent and total.
#[test]
fn value_order_is_total() {
    for case in 0u64..24 {
        let mut rng = SplitMix64(0x07DE7 ^ case);
        let mut v = rows_to_values(&int_rows(&mut rng));
        v.sort();
        let once = v.clone();
        v.sort();
        assert_eq!(once, v, "case {case}: sort not idempotent");
        for w in v.windows(2) {
            assert!(w[0] <= w[1], "case {case}: order not total");
        }
    }
}

/// Movement trees deliver every consumer exactly once.
#[test]
fn movement_tree_serves_all_consumers() {
    use rheem_core::channel::kinds;
    for case in 0u64..12 {
        let mut rng = SplitMix64(0x30BE ^ case);
        let card = rng.range_f64(1.0, 1e6);
        let ctx = rheem::default_context();
        let graph = ctx.registry().conversion_graph();
        let consumers = vec![
            vec![kinds::COLLECTION],
            vec![platform_spark::RDD, platform_spark::RDD_CACHED],
            vec![platform_flink::DATASET],
        ];
        let plan = graph
            .best_tree(
                platform_spark::RDD,
                &consumers,
                card,
                64.0,
                ctx.profiles(),
                ctx.cost_model(),
            )
            .unwrap()
            .unwrap();
        let mut served: Vec<usize> = Vec::new();
        collect_deliveries(&plan.tree, &mut served);
        served.sort_unstable();
        assert_eq!(served, vec![0, 1, 2], "case {case} card {card}");
        assert!(plan.cost_ms >= 0.0);
    }
}

fn collect_deliveries(node: &rheem_core::movement::ConvNode, out: &mut Vec<usize>) {
    out.extend(node.deliver.iter().copied());
    for (_, child) in &node.children {
        collect_deliveries(child, out);
    }
}

/// Fair-share invariant at the granularity the service schedules — one job
/// per grant, at the runner pick: with every tenant continuously
/// backlogged, the weighted virtual times of all tenants stay within one
/// grant's normalized cost of each other, for any seeded weight vector and
/// cost sequence.
#[test]
fn fair_share_virtual_times_stay_within_one_grant() {
    use rheem_core::service::FairShare;

    for case in 0u64..24 {
        let mut rng = SplitMix64(0xFA17 ^ case.wrapping_mul(0x9E37_79B9));
        let tenants = 2 + rng.range_usize(3); // 2..=4
        let weights: Vec<f64> = (0..tenants).map(|_| [1.0, 2.0, 4.0][rng.range_usize(3)]).collect();
        let mut fair = FairShare::new(rng.next_u64());
        for (i, w) in weights.iter().enumerate() {
            fair.add_tenant(&format!("t{i}"), *w);
        }
        let all: Vec<usize> = (0..tenants).collect();
        // The spread of an always-backlogged min-pick schedule is bounded by
        // the largest single normalized increment ever applied.
        let mut max_step = 0.0f64;
        for _ in 0..200 {
            let t = fair.pick(&all).expect("backlogged set is non-empty");
            let cost = 1.0 + rng.next_f64() * 9.0;
            max_step = max_step.max(cost / weights[t]);
            fair.charge(t, cost);
            for a in 0..tenants {
                for b in 0..tenants {
                    let spread = fair.vtime(a) - fair.vtime(b);
                    assert!(
                        spread.abs() <= max_step + 1e-9,
                        "case {case}: tenants {a}/{b} drifted {spread:.3} share-ms \
                         apart (max grant {max_step:.3}) — fairness broken"
                    );
                }
            }
        }
    }
}
