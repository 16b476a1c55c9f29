//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **Lossless pruning** (§4.1): enumeration with signature pruning vs the
//!   exhaustive Join-only algebra — same chosen plan, exponentially fewer
//!   partials.
//! * **Minimal conversion trees** (§4.1): MCT fan-out sharing vs routing
//!   every consumer independently.
//! * **Operator fusion**: the real toggle — the same WordCount executed
//!   with chain candidates enabled (fused single-pass pipelines) vs
//!   disabled (operator-at-a-time), measured in wall-clock ms.
//! * **Cost-model learning** (§4.5): prediction loss of the learned model
//!   vs the untuned defaults on real execution logs.
//!
//! Run with `cargo bench --bench ablations`.

use rheem_bench::harness::bench;
use rheem_bench::{community_files, default_context, graph_context};
use rheem_core::cardinality::Estimator;
use rheem_core::learner::{samples_from_trace, CostLearner};
use rheem_core::optimizer::Optimizer;
use rheem_core::platform::ids;

fn croco_plan() -> rheem_core::plan::RheemPlan {
    let (fa, fb) = community_files("bench_abl", 5_000, 8);
    xdb::build_crocopr_plan(xdb::CrocoSource::Files(fa, fb), 3).unwrap().0
}

/// A mid-size pipeline the exhaustive baseline can still enumerate (the
/// CrocoPR plan below is only tractable *with* pruning — which is the
/// point of §4.1's algebra).
fn pipeline_plan(ops: usize) -> rheem_core::plan::RheemPlan {
    use rheem_core::plan::PlanBuilder;
    use rheem_core::udf::MapUdf;
    use rheem_core::value::Value;
    let mut b = PlanBuilder::new();
    let mut dq = b.collection((0..1000i64).map(Value::from).collect::<Vec<_>>());
    for i in 0..ops {
        dq = dq.map(MapUdf::new(format!("m{i}"), |v| v.clone()));
    }
    dq.count().collect();
    b.build().unwrap()
}

fn bench_pruning() {
    println!("-- enumeration --");
    let small = pipeline_plan(6);
    let croco = croco_plan();
    let ctx = graph_context();
    bench("enumeration/pruned_crocopr_16ops", 10, || {
        let opt = ctx.optimize(&croco).unwrap();
        (opt.est_ms, opt.stats.partials_created)
    });
    bench("enumeration/pruned_pipeline_8ops", 10, || ctx.optimize(&small).unwrap().est_ms);
    bench("enumeration/exhaustive_pipeline_8ops", 10, || {
        let optimizer = Optimizer::new(ctx.registry(), ctx.profiles(), ctx.cost_model());
        optimizer.optimize_exhaustive(&small, &Estimator::new()).unwrap().est_ms
    });

    // Sanity: identical chosen cost, far fewer partials — on the plan the
    // exhaustive baseline can still finish.
    let pruned = ctx.optimize(&small).unwrap();
    let optimizer = Optimizer::new(ctx.registry(), ctx.profiles(), ctx.cost_model());
    let full = optimizer.optimize_exhaustive(&small, &Estimator::new()).unwrap();
    assert!((pruned.est_ms - full.est_ms).abs() < 1e-6, "pruning must be lossless");
    println!(
        "ablation/pruning: partials {} (pruned) vs {} (exhaustive) on the 8-op pipeline; \
         the 16-op CrocoPR plan is enumerable only with pruning ({} partials)",
        pruned.stats.partials_created,
        full.stats.partials_created,
        ctx.optimize(&croco).unwrap().stats.partials_created
    );
}

fn bench_movement() {
    println!("-- movement --");
    use rheem_core::channel::kinds;
    use rheem_core::cost::CostModel;
    let ctx = default_context();
    let graph = ctx.registry().conversion_graph();
    let profiles = ctx.profiles().clone();
    let model = CostModel::new();
    // A cached RDD (reusable) feeding two driver-side consumers and a Flink
    // consumer: the tree shares the expensive collect step; independent
    // routing pays it once per consumer. (From a *non-reusable* root the
    // comparison would be unfair the other way: per-consumer paths would
    // implicitly assume free lineage recomputation.)
    let root = platform_spark::RDD_CACHED;
    let consumers =
        vec![vec![kinds::COLLECTION], vec![kinds::COLLECTION], vec![platform_flink::DATASET]];
    bench("movement/mct_shared_tree", 20, || {
        graph.best_tree(root, &consumers, 1e6, 64.0, &profiles, &model).unwrap().unwrap().cost_ms
    });
    bench("movement/per_consumer_paths", 20, || {
        consumers
            .iter()
            .map(|kinds| graph.best_path_cost(root, kinds, 1e6, 64.0, &profiles, &model).unwrap())
            .sum::<f64>()
    });

    let shared =
        graph.best_tree(root, &consumers, 1e6, 64.0, &profiles, &model).unwrap().unwrap().cost_ms;
    let separate: f64 = consumers
        .iter()
        .map(|k| graph.best_path_cost(root, k, 1e6, 64.0, &profiles, &model).unwrap())
        .sum();
    println!("ablation/movement: shared tree {shared:.2} ms vs independent paths {separate:.2} ms");
    assert!(shared <= separate + 1e-9);
}

fn bench_costlearn() {
    println!("-- cost_learner --");
    // Gather real execution logs from a few WordCount runs, then compare
    // the learned model's stage-time predictions against the defaults.
    let ctx = default_context();
    let path = rheem_bench::corpus_file("bench_abl_cl", 128, 4);
    let (plan, _) = rheem_bench::wordcount_plan(&path).unwrap();
    let mut samples = Vec::new();
    for _ in 0..3 {
        let trace = ctx.execute(&plan).unwrap().trace.expect("tracing is on by default");
        samples.extend(samples_from_trace(&trace));
    }
    assert!(!samples.is_empty());
    let learner = CostLearner { generations: 60, ..Default::default() };

    bench("cost_learner/ga_fit", 5, || learner.fit(&samples, ctx.profiles()));

    let fitted = learner.fit(&samples, ctx.profiles());
    let loss_learned = learner.evaluate(&fitted, &samples, ctx.profiles());
    let loss_default =
        learner.evaluate(&rheem_core::cost::CostModel::new(), &samples, ctx.profiles());
    println!("ablation/costlearn: loss learned {loss_learned:.4} vs defaults {loss_default:.4}");
    assert!(loss_learned <= loss_default);
}

fn bench_fusion() {
    println!("-- fusion --");
    // The real fusion toggle: the identical WordCount job, JavaStreams
    // forced (deterministic, no thread noise), with chain candidates on vs
    // off. Fused runs traverse each partition once per narrow chain; the
    // unfused baseline materializes an intermediate dataset per operator.
    let path = rheem_bench::corpus_file("bench_abl_fu", 512, 6);
    let (plan, _) = rheem_bench::wordcount_plan(&path).unwrap();

    let mut fused_ctx = default_context().with_fusion(true);
    fused_ctx.forced_platform = Some(ids::JAVA_STREAMS);
    let mut unfused_ctx = default_context().with_fusion(false);
    unfused_ctx.forced_platform = Some(ids::JAVA_STREAMS);

    // Interleave the two series (fused, unfused, fused, …): measuring one
    // series to completion before the other lets allocator/frequency drift
    // masquerade as a fusion effect.
    let iters = 15u32;
    fused_ctx.execute(&plan).unwrap();
    unfused_ctx.execute(&plan).unwrap();
    let (mut on, mut off) = (0.0f64, 0.0f64);
    for _ in 0..iters {
        let t = std::time::Instant::now();
        std::hint::black_box(fused_ctx.execute(&plan).unwrap());
        on += t.elapsed().as_secs_f64() * 1000.0;
        let t = std::time::Instant::now();
        std::hint::black_box(unfused_ctx.execute(&plan).unwrap());
        off += t.elapsed().as_secs_f64() * 1000.0;
    }
    let (on, off) = (on / iters as f64, off / iters as f64);
    println!(
        "{:<40} {:>10.2} ms/iter  ({} iters, interleaved)",
        "fusion/wordcount_fused", on, iters
    );
    println!(
        "{:<40} {:>10.2} ms/iter  ({} iters, interleaved)",
        "fusion/wordcount_unfused", off, iters
    );
    println!(
        "ablation/fusion: fused {:.2} ms vs unfused {:.2} ms wall-clock ({:.2}x)",
        on,
        off,
        off / on.max(1e-9)
    );
    assert!(on < off, "fused must beat unfused wall-clock");

    // The optimizer must actually pick a chain when fusion is on.
    let opt = fused_ctx.optimize(&plan).unwrap();
    let max_cover = opt.choice.iter().map(|&c| opt.candidates[c].covers.len()).max().unwrap();
    assert!(max_cover >= 2, "fusion should be chosen");
    let opt_off = unfused_ctx.optimize(&plan).unwrap();
    assert!(
        opt_off.choice.iter().all(|&c| opt_off.candidates[c].covers.len() == 1),
        "toggle must suppress chains"
    );
}

// Fusion runs first: its baseline pays for the intermediate materializations
// fusion avoids, and a fresh-process allocator is what makes that cost real
// (after the other benches have grown the heap, the unfused intermediates
// recycle warm pages and the contrast flattens).
fn main() {
    bench_fusion();
    bench_pruning();
    bench_movement();
    bench_costlearn();
}
