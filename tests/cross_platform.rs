//! Cross-crate integration tests for the headline behaviours of §2/§6:
//! platform independence (the optimizer picks the right engine per input
//! size), opportunistic mixing, mandatory movement out of the store, and
//! agreement of results across platforms.

use rheem::prelude::*;
use rheem_core::plan::{PlanBuilder, RheemPlan};
use rheem_core::value::Value;

fn wordcount_plan(lines: Vec<Value>) -> (RheemPlan, rheem_core::plan::OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = b
        .collection(lines)
        .flat_map(FlatMapUdf::new("split", |v| {
            v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
        }))
        .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
        .reduce_by_key(
            KeyUdf::field(0),
            ReduceUdf::new("sum", |a, b| {
                Value::pair(
                    a.field(0).clone(),
                    Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
                )
            }),
        )
        .collect();
    (b.build().unwrap(), sink)
}

fn corpus(lines: usize) -> Vec<Value> {
    rheem_datagen::generate_text(lines, 10, 5_000, 7).into_iter().map(Value::from).collect()
}

/// FNV-1a over the rendered rows, in order.
fn fnv(rows: &[Value]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in rows.iter().flat_map(|v| format!("{v}\n").into_bytes()) {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The `join_400k` plan shape at 40 000 × 313: a string-keyed fact joined
/// with a dimension, both from driver collections, collected.
fn fact_dimension_join() -> (RheemPlan, rheem_core::plan::OperatorId) {
    let mut rng = rheem_core::kernels::SplitMix64(400);
    let key = |i: usize| Value::from(format!("k{i:06}"));
    let dim: Vec<Value> =
        (0..313).map(|i| Value::pair(key(i), Value::from(rng.range_usize(1000)))).collect();
    let fact: Vec<Value> =
        (0..40_000).map(|i| Value::pair(key(rng.range_usize(313)), Value::from(i))).collect();
    let mut b = PlanBuilder::new();
    let d = b.collection(dim);
    let sink = b.collection(fact).join(&d, KeyUdf::field(0), KeyUdf::field(0)).collect();
    (b.build().unwrap(), sink)
}

/// Listing 1's SGD shape over integers (exact arithmetic, 3 iterations), as
/// `tests/explain.rs` traces it.
fn integer_sgd_plan() -> (RheemPlan, rheem_core::plan::OperatorId) {
    let mut b = PlanBuilder::new();
    let points: Vec<Value> = (0..24i64)
        .map(|i| {
            let x = i % 5 - 2;
            Value::pair(Value::from(x), Value::from(3 * x + 1))
        })
        .collect();
    let points = b.collection(points);
    let winit = b.collection(vec![Value::from(0i64)]);
    let sink = winit
        .repeat(3, |w| {
            let grad = points
                .map(MapUdf::with_ctx("gradient", |p, ctx| {
                    let wv =
                        ctx.get_or_empty("weights").first().and_then(Value::as_int).unwrap_or(0);
                    let x = p.field(0).as_int().unwrap_or(0);
                    let y = p.field(1).as_int().unwrap_or(0);
                    Value::from(x * (x * wv - y))
                }))
                .broadcast("weights", w)
                .reduce(ReduceUdf::new("gsum", |a, b| {
                    Value::from(a.as_int().unwrap_or(0) + b.as_int().unwrap_or(0))
                }));
            w.map(MapUdf::with_ctx("update", |w, ctx| {
                let g =
                    ctx.get_or_empty("gradient_sum").first().and_then(Value::as_int).unwrap_or(0);
                Value::from(w.as_int().unwrap_or(0) - g / 64)
            }))
            .broadcast("gradient_sum", &grad)
        })
        .collect();
    (b.build().unwrap(), sink)
}

#[test]
fn small_input_prefers_javastreams() {
    let ctx = rheem::default_context();
    let (plan, _) = wordcount_plan(corpus(50));
    let opt = ctx.optimize(&plan).unwrap();
    assert_eq!(
        opt.platforms,
        vec![ids::JAVA_STREAMS],
        "small inputs must avoid distributed-engine overhead"
    );
}

#[test]
fn large_input_prefers_a_distributed_engine() {
    // Datasets live on HDFS as in §6.1; a distributed engine reads splits
    // in parallel while the JavaStreams driver reads one stream.
    let path = std::path::PathBuf::from("hdfs://tests/xplat/corpus_large.txt");
    rheem_datagen::text::write_corpus(&path, 60_000, 7).unwrap(); // ≈60 MB
    let ctx = rheem::default_context();
    let mut b = PlanBuilder::new();
    b.read_text_file(&path)
        .flat_map(FlatMapUdf::new("split", |v| {
            v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
        }))
        .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::sum())
        .collect();
    let plan = b.build().unwrap();
    let opt = ctx.optimize(&plan).unwrap();
    assert!(
        opt.platforms.contains(&ids::SPARK) || opt.platforms.contains(&ids::FLINK),
        "large inputs should go distributed, got {:?}",
        opt.platforms
    );
}

#[test]
fn all_platforms_agree_on_wordcount_result() {
    let mut results = Vec::new();
    for forced in [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK] {
        let mut ctx = rheem::default_context();
        ctx.forced_platform = Some(forced);
        let (plan, sink) = wordcount_plan(corpus(300));
        let result = ctx.execute(&plan).unwrap();
        let mut data: Vec<(String, i64)> = result
            .sink(sink)
            .unwrap()
            .iter()
            .map(|v| (v.field(0).as_str().unwrap().to_string(), v.field(1).as_int().unwrap()))
            .collect();
        data.sort();
        results.push((forced, data));
    }
    for w in results.windows(2) {
        assert_eq!(w[0].1, w[1].1, "{} and {} disagree", w[0].0, w[1].0);
    }
}

/// Flink fuses a narrow run into a GroupBy as well as into a ReduceBy: over
/// 20 000 rows (more than one partition), `map → filter → group_by` runs as
/// one chain, and its groups are java.streams' groups.
#[test]
fn flink_fuses_a_narrow_run_into_group_by() {
    let rows: Vec<Value> =
        (0..20_000i64).map(|i| Value::pair(Value::from(i % 13), Value::from(i))).collect();
    let mut b = PlanBuilder::new();
    let grouped = b
        .collection(rows)
        .map(MapUdf::new("inc", |v| {
            Value::pair(v.field(0).clone(), Value::from(v.field(1).as_int().unwrap() + 1))
        }))
        .filter(PredicateUdf::new("odd", |v| v.field(1).as_int().unwrap() % 2 == 1))
        .group_by(KeyUdf::field(0));
    let sink = grouped.collect();
    let plan = b.build().unwrap();
    let run = |forced| {
        let mut ctx = rheem::default_context();
        ctx.forced_platform = Some(forced);
        let mut groups = ctx.execute(&plan).unwrap().sink(sink).unwrap().to_vec();
        groups.sort();
        (ctx, groups)
    };
    let (flink, on_flink) = run(ids::FLINK);
    let opt = flink.optimize(&plan).unwrap();
    let chosen = &opt.candidates[opt.choice[grouped.id().index()]];
    assert_eq!(chosen.exec.name(), "FlinkChain2\u{2218}GroupBy");
    let (_, on_java) = run(ids::JAVA_STREAMS);
    assert_eq!(on_flink.len(), 13);
    assert_eq!(on_flink, on_java);
}

/// The one mapping rule of the dataflow engines: a run reaches only through
/// operators without broadcasts, so a narrow operator carrying one fuses
/// into no ReduceBy, GroupBy or Distinct — each engine offers the terminal
/// alone.
#[test]
fn a_narrow_op_with_a_broadcast_fuses_into_no_terminal() {
    type Terminal = fn(&rheem_core::plan::DataQuanta) -> rheem_core::plan::DataQuanta;
    let terminals: [Terminal; 3] = [
        |q| q.reduce_by_key(KeyUdf::field(0), ReduceUdf::sum()),
        |q| q.group_by(KeyUdf::field(0)),
        |q| q.distinct(),
    ];
    let engines = [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK];
    for terminal in terminals {
        let mut b = PlanBuilder::new();
        let weights = b.collection(vec![Value::from(1i64)]);
        let mapped = b
            .collection(
                (0..100i64)
                    .map(|i| Value::pair(Value::from(i % 5), Value::from(i)))
                    .collect::<Vec<_>>(),
            )
            .map(MapUdf::new("id", |v| v.clone()))
            .broadcast("w", &weights);
        let wide = terminal(&mapped);
        wide.collect();
        let plan = b.build().unwrap();
        let ctx = rheem::default_context();
        let candidates = ctx.registry().candidates_for(&plan, plan.node(wide.id()));
        for engine in engines {
            let covers: Vec<(String, usize)> = candidates
                .iter()
                .filter(|c| c.exec.platform() == engine)
                .map(|c| (c.exec.name().to_string(), c.covers.len()))
                .collect();
            assert_eq!(covers.len(), 1, "{engine}: {covers:?}");
            assert_eq!(covers[0].1, 1, "{engine}: {covers:?}");
        }
    }
}

/// Landing acceptance over the real engines: whatever layout arrives on
/// slot 0 or on slot 1 of a binary operator, java.streams, spark and flink
/// give the single-partition interpreter's answer (as a multiset —
/// partitioning reorders) or the typed, non-transient error. The `BatchParts` row on slot 1 of the inequality
/// join is the tax cleaning task's self-join reading a projected, columnar
/// stage output.
#[test]
fn distributed_engines_land_every_channel_layout() {
    use rheem_core::batch::Batch;
    use rheem_core::channel::ChannelData;
    use rheem_core::exec::{ExecCtx, ExecutionOperator};
    use rheem_core::partitioned::{Chain, Shape};
    use rheem_core::plan::IneqCond;
    use std::sync::Arc;

    let profiles = rheem_core::platform::Profiles::paper_testbed();
    let run = |exec: &dyn ExecutionOperator, inputs: &[ChannelData], batched: bool| {
        let mut ctx = ExecCtx::new(&profiles, 0);
        ctx.set_batch(batched);
        let out = exec.execute(&mut ctx, inputs, &BroadcastCtx::new())?;
        let mut rows = out.flatten()?.as_ref().clone();
        rows.sort();
        Ok::<_, RheemError>(rows)
    };
    let pairs = |range: std::ops::Range<i64>| -> Vec<Value> {
        range.map(|i| Value::pair(Value::from(i % 5), Value::from(i))).collect()
    };
    let (here, there) = (pairs(0..40), pairs(100..125));
    let plain = |rows: &[Value]| ChannelData::Collection(Arc::new(rows.to_vec()));
    let chunks: Vec<Dataset> = there.chunks(7).map(|c| Arc::new(c.to_vec())).collect();
    let batches: Vec<Batch> = chunks.iter().map(|c| Batch::from_values(c)).collect();
    let layouts = [
        ("Collection", plain(&there), true),
        ("Partitions", ChannelData::Partitions(Arc::new(chunks)), true),
        ("Batches", ChannelData::Batches(Arc::new(batches.clone())), true),
        ("BatchParts", ChannelData::BatchParts(Arc::new(batches)), true),
        ("empty Collection", plain(&[]), false),
        ("no Partitions", ChannelData::Partitions(Arc::default()), false),
        ("one empty Partition", ChannelData::Partitions(Arc::new(vec![Arc::default()])), false),
        ("empty Batches", ChannelData::Batches(Arc::default()), false),
        ("empty BatchParts", ChannelData::BatchParts(Arc::default()), false),
    ];
    let rowless = [
        ("File", ChannelData::File(Arc::new("hdfs://tests/xplat/nowhere.txt".into()))),
        ("Opaque", ChannelData::Opaque { kind: platform_spark::RDD, payload: Arc::new(7u8) }),
        ("None", ChannelData::None),
    ];
    let key = KeyUdf::field(0);
    let ops = [
        LogicalOp::Union,
        LogicalOp::Join { left_key: key.clone(), right_key: key },
        LogicalOp::Cartesian,
        LogicalOp::InequalityJoin {
            conds: vec![IneqCond { left_field: 1, op: CmpOp::Lt, right_field: 1 }],
        },
    ];
    let engines =
        [&platform_javastreams::JAVA_STREAMS, &platform_spark::SPARK, &platform_flink::FLINK];
    for engine in engines {
        for op in &ops {
            let chain = Chain::new(engine, Shape::One(op.clone()));
            for (batched, (layout, data, full)) in
                [true, false].into_iter().flat_map(|b| layouts.iter().map(move |l| (b, l)))
            {
                let rows: &[Value] = if *full { &there } else { &[] };
                for slot in 0..2 {
                    let at = format!("{} slot {slot} {layout} batched={batched}", chain.name());
                    let mut inputs = [plain(&here), plain(&here)];
                    inputs[slot] = data.clone();
                    let mut sides: [&[Value]; 2] = [&here, &here];
                    sides[slot] = rows;
                    let bc = BroadcastCtx::new();
                    let mut want = rheem_core::kernels::apply(op, &sides, &bc, 0, 0).unwrap();
                    want.sort();
                    assert_eq!(run(&chain, &inputs, batched).unwrap(), want, "{at}");
                }
            }
            for (layout, data) in &rowless {
                for slot in 0..2 {
                    let mut inputs = [plain(&here), plain(&here)];
                    inputs[slot] = data.clone();
                    let err = run(&chain, &inputs, true).unwrap_err();
                    assert!(!err.is_transient(), "{err}");
                    let RheemError::Unsupported(msg) = &err else { panic!("{err}") };
                    for part in [chain.name(), &format!("slot {slot}"), layout] {
                        assert!(msg.contains(part), "{msg:?} names no {part:?}");
                    }
                }
            }
        }
    }
}

/// The `join_400k` plan shape (string-keyed fact ⋈ dimension from driver
/// collections, collected) at a scale that still spans several partitions:
/// the sink arrives in the order the engine's exchange-then-join produced —
/// bucket by bucket, left-major inside each (both engines cut this input
/// into the same five partitions). The hash was taken on the commit before
/// the join routed rows instead of moving them.
#[test]
fn partitioned_row_join_keeps_the_engine_order() {
    let (plan, sink) = fact_dimension_join();
    for forced in [ids::SPARK, ids::FLINK] {
        let mut ctx = rheem::default_context();
        ctx.forced_platform = Some(forced);
        let result = ctx.execute(&plan).unwrap();
        let rows = result.sink(sink).unwrap();
        assert_eq!(rows.len(), 40_000);
        let hash = fnv(rows);
        assert_eq!(hash, 0x7e26_d52c_9b3d_5a08, "{forced:?}: sink order hash {hash:#018x}");
    }
}

/// java.streams' answers, in sink order, with columnar kernels on and off:
/// WordCount (a fused chain into a terminal ReduceBy), the integer SGD loop
/// (broadcasts, a global Reduce) and the 40 000 × 313 join. The hashes were
/// taken on the commit before java.streams became an `Engine` row.
#[test]
fn forced_javastreams_answers_are_pinned() {
    let cases = [
        ("wordcount", wordcount_plan(corpus(300)), 0x1555_39de_dce9_f124),
        ("sgd", integer_sgd_plan(), 0x0802_fe07_b4c3_14ad),
        ("join", fact_dimension_join(), 0xda61_eba7_c126_10c2),
    ];
    for (name, (plan, sink), want) in cases {
        for batch in [true, false] {
            let mut ctx = rheem::default_context().with_batch(batch);
            ctx.forced_platform = Some(ids::JAVA_STREAMS);
            let result = ctx.execute(&plan).unwrap();
            assert_eq!(result.metrics.platforms, vec![ids::JAVA_STREAMS], "{name}");
            let hash = fnv(result.sink(sink).unwrap());
            assert_eq!(hash, want, "{name} batch={batch}: sink order hash {hash:#018x}");
        }
    }
}

#[test]
fn forced_platform_is_respected() {
    for forced in [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK] {
        let mut ctx = rheem::default_context();
        ctx.forced_platform = Some(forced);
        let (plan, _) = wordcount_plan(corpus(500));
        let result = ctx.execute(&plan).unwrap();
        assert_eq!(result.metrics.platforms, vec![forced]);
    }
}

#[test]
fn sgd_shape_mixes_platforms_on_large_data() {
    // Fig. 3's plan shape: big point set, tiny weights, loop over
    // sample→compute→reduce→update with the weights broadcast into the body.
    let points = rheem_datagen::generate_points(60_000, 4, 0.1, 3).points;
    let mut b = PlanBuilder::new();
    let data = b.collection(points);
    let weights = b.collection(vec![Value::tuple(vec![
        Value::from(0.0),
        Value::from(0.0),
        Value::from(0.0),
        Value::from(0.0),
    ])]);
    let final_w = weights.repeat(3, |w| {
        let grad = data
            .sample(rheem_core::plan::SampleMethod::Random, rheem_core::plan::SampleSize::Count(16))
            .map(MapUdf::with_ctx("gradient", |p, ctx| {
                let w = ctx.get_or_empty("weights");
                let wf = w.first().cloned().unwrap_or(Value::Null);
                let f = p.fields().unwrap();
                let label = f[0].as_f64().unwrap();
                let margin: f64 = f[1..]
                    .iter()
                    .enumerate()
                    .map(|(i, x)| x.as_f64().unwrap() * wf.field(i).as_f64().unwrap_or(0.0))
                    .sum();
                let scale = if label * margin < 1.0 { -label } else { 0.0 };
                Value::Tuple(
                    f[1..]
                        .iter()
                        .map(|x| Value::from(scale * x.as_f64().unwrap()))
                        .collect::<Vec<_>>()
                        .into(),
                )
            }))
            .broadcast("weights", w)
            .reduce(ReduceUdf::new("sumgrad", |a, b| {
                Value::Tuple(
                    (0..4)
                        .map(|i| {
                            Value::from(
                                a.field(i).as_f64().unwrap_or(0.0)
                                    + b.field(i).as_f64().unwrap_or(0.0),
                            )
                        })
                        .collect::<Vec<_>>()
                        .into(),
                )
            }));
        w.map(MapUdf::with_ctx("update", |wv, ctx| {
            let g = ctx.get_or_empty("grad");
            let gv = g.first().cloned().unwrap_or(Value::Null);
            Value::Tuple(
                (0..4)
                    .map(|i| {
                        Value::from(
                            wv.field(i).as_f64().unwrap_or(0.0)
                                - 0.01 * gv.field(i).as_f64().unwrap_or(0.0),
                        )
                    })
                    .collect::<Vec<_>>()
                    .into(),
            )
        }))
        .broadcast("grad", &grad)
    });
    let sink = final_w.collect();
    let plan = b.build().unwrap();

    let ctx = rheem::default_context();
    let result = ctx.execute(&plan).unwrap();
    let w = result.sink(sink).unwrap();
    assert_eq!(w.len(), 1);
    // the weights moved
    assert!(w[0].fields().unwrap().iter().any(|f| f.as_f64().unwrap() != 0.0));
}

#[test]
fn mandatory_movement_out_of_postgres() {
    // Data lives in Postgres; the task (PageRank) is not executable there:
    // the optimizer must move it to a graph-capable platform (§2.3).
    let db = std::sync::Arc::new(platform_postgres::PgDatabase::new());
    let edges = rheem_datagen::generate_graph(500, 4, 3);
    db.load_table(
        "links",
        vec!["src".to_string(), "dst".to_string()],
        rheem_datagen::graph::edges_to_values(&edges),
    );
    let ctx = rheem::full_context(std::sync::Arc::clone(&db));

    let mut b = PlanBuilder::new();
    let sink = b.read_table("links").page_rank(5, 0.85).collect();
    let plan = b.build().unwrap();
    let result = ctx.execute(&plan).unwrap();
    assert!(!result.sink(sink).unwrap().is_empty());
    assert!(
        result.metrics.platforms.contains(&ids::POSTGRES),
        "scan should stay in the store: {:?}",
        result.metrics.platforms
    );
    assert!(
        result.metrics.platforms.iter().any(|p| *p != ids::POSTGRES),
        "pagerank must leave the store: {:?}",
        result.metrics.platforms
    );
}

#[test]
fn explain_describes_stages() {
    let ctx = rheem::default_context();
    let (plan, _) = wordcount_plan(corpus(100));
    let out = ctx.explain(&plan).unwrap();
    assert!(out.contains("stage 0"), "{out}");
    assert!(out.contains("estimated cost"), "{out}");
}

/// A loop nested in another re-runs its whole inner loop in every outer
/// iteration: `repeat(3, w ↦ repeat(2, x ↦ 2x) ∘ (+1))` over 0..5 is
/// `((((x + 1)·4 + 1)·4 + 1)·4)`, under free choice and on each engine,
/// fused and unfused.
#[test]
fn nested_loops_rerun_the_inner_loop_every_outer_iteration() {
    let expected: Vec<Value> = [84i64, 148, 212, 276, 340].into_iter().map(Value::from).collect();
    for fusion in [true, false] {
        for forced in [None, Some(ids::JAVA_STREAMS), Some(ids::SPARK), Some(ids::FLINK)] {
            let mut b = PlanBuilder::new();
            let int = |v: &Value| v.as_int().unwrap_or(0);
            let sink = b
                .collection((0..5i64).map(Value::from).collect::<Vec<_>>())
                .repeat(3, |w| {
                    w.map(MapUdf::new("nest_inc", move |v| Value::from(int(v) + 1)))
                        .repeat(2, |x| {
                            x.map(MapUdf::new("nest_dbl", move |v| Value::from(int(v) * 2)))
                        })
                        .map(MapUdf::new("nest_id", |v| v.clone()))
                })
                .collect();
            let plan = b.build().unwrap();
            let mut ctx = rheem::default_context().with_fusion(fusion);
            ctx.forced_platform = forced;
            let mut out = ctx.execute(&plan).unwrap().sink(sink).unwrap().to_vec();
            out.sort();
            assert_eq!(out, expected, "fusion={fusion} forced={forced:?}");
        }
    }
}

/// A DoWhile's condition reads the first quantum of the loop's feedback,
/// whatever layout the body hands back: a collection or column batches on
/// java.streams (row or vectorized body), row or columnar partitions on
/// spark. Each iteration adds 3 to every row's second field, and the loop
/// stops once the first row's reaches 10: after 4 iterations on every
/// layout. A probe that read any other row would stop after one.
#[test]
fn do_while_stops_at_the_same_iteration_on_every_feedback_layout() {
    let rows = |bump: i64| -> Vec<Value> {
        (0..20i64).map(|i| Value::pair(Value::from(i), Value::from(i + bump))).collect()
    };
    let expected = rows(12);
    for forced in [ids::JAVA_STREAMS, ids::SPARK] {
        for batch in [false, true] {
            let mut b = PlanBuilder::new();
            let reached = PredicateUdf::new("reached", |v| v.field(1).as_int() >= Some(10));
            let sink = b
                .collection(rows(0))
                .do_while(reached, 50, |x| x.map(MapUdf::field_add_int("step", 1, 3)))
                .collect();
            let plan = b.build().unwrap();
            let mut ctx = rheem::default_context().with_batch(batch);
            ctx.forced_platform = Some(forced);
            let mut out = ctx.execute(&plan).unwrap().sink(sink).unwrap().to_vec();
            out.sort();
            assert_eq!(out, expected, "forced={forced:?} batch={batch}");
            // The batched body really hands back columns.
            let analysis = ctx.explain_analyze(&plan).unwrap();
            let vectorized = analysis.rows.iter().any(|r| r.vec.batches > 0);
            assert_eq!(vectorized, batch, "forced={forced:?} batch={batch}");
        }
    }
}
