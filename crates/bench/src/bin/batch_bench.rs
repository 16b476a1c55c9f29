//! Columnar batch-execution benchmark: vectorized fused pipelines over
//! typed column slices (`rheem_core::batch`) vs. the row-at-a-time
//! interpreter, on the two workloads the PR optimizes for —
//!
//! * **wordcount** — tokenize → pair → sum-by-key, where the batched path
//!   tokenizes each distinct line once and sums through dictionary ids
//!   instead of hashing every row, and
//! * **scan** — sargable filter → integer arithmetic → projection, where the
//!   batched path runs tight typed loops and carries survivors in a
//!   selection vector.
//!
//! Two *exchange* workloads cover the columnar shuffle —
//!
//! * **shuffle_wordcount** — map-side combine + hash exchange + reduce-side
//!   merge, where the columnar path combines through slot arrays, routes
//!   batches by dictionary id (`partition_batch`, selection vectors only),
//!   and merges without hashing a single string, and
//! * **join** — two-sided hash exchange + build/probe, where the columnar
//!   path co-partitions both key columns and joins per bucket
//!   (`join_buckets`) with typed keys instead of `Value` hashing.
//!
//! Kernel speedups are measured wall-clock over in-memory collections (no
//! I/O, forced single platform) and must clear **1.5x** on every workload
//! but **join** (reported only: its row side is the routed join the engine
//! runs, which no longer pays what the columnar twin was built to save) —
//! `scripts/check.sh` runs this as a gate. End-to-end runs (JavaStreams for
//! the narrow tasks, Spark for the exchange tasks) are also recorded, and
//! every batched result is asserted byte-identical to its row-mode twin.
//! Writes `BENCH_PR6.json` (narrow kernels) and `BENCH_PR9.json` (exchange
//! kernels).
//!
//! Run with `cargo run --release --bin batch_bench`.

use std::fmt::Write as _;

use std::sync::Arc;

use rheem_bench::*;
use rheem_core::batch::{self, Batch, VectorKernel};
use rheem_core::fused::{FusedPipeline, FusedStep};
use rheem_core::kernels::{self, ReduceByState, SplitMix64};
use rheem_core::plan::{OperatorId, PlanBuilder, RheemPlan};
use rheem_core::platform::ids;
use rheem_core::udf::{
    BroadcastCtx, CmpOp, FlatMapUdf, KeySpec, KeyUdf, MapUdf, PredicateUdf, ReduceUdf, Sarg,
};
use rheem_core::value::Value;

const ITERS: u32 = 5;
const GATE: f64 = 1.5;

struct Row {
    task: &'static str,
    row_ms: f64,
    batch_ms: f64,
    e2e_row_virtual_ms: f64,
    e2e_batch_virtual_ms: f64,
    rows: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.row_ms / self.batch_ms.max(1e-9)
    }
}

fn wordcount_lines(s: f64) -> Vec<Value> {
    let lines = ((20_000.0 * s) as usize).max(2_000);
    rheem_datagen::generate_text(lines, 10, 5_000, 17).into_iter().map(Value::from).collect()
}

fn scan_pairs(s: f64) -> Vec<Value> {
    let n = ((400_000.0 * s) as usize).max(40_000);
    let mut rng = SplitMix64(0xBA7C6);
    (0..n)
        .map(|_| {
            Value::pair(
                Value::from(rng.range_usize(1_000) as i64),
                Value::from(rng.range_usize(2_000) as i64 - 1_000),
            )
        })
        .collect()
}

/// String-keyed fact × dimension inputs for the join exchange: a large fact
/// side whose keys repeat across a moderate domain, and a filtered dimension
/// covering a quarter of that domain (one row per surviving key). String
/// keys are the showcase — the row join hashes full key strings per row in
/// both the shuffle and the probe, while the columnar join routes each
/// distinct dictionary entry once and probes by interner id.
fn join_pairs(s: f64) -> (Vec<Value>, Vec<Value>) {
    let nl = ((200_000.0 * s) as usize).max(20_000);
    let keys = (nl / 32).max(64);
    let mut rng = SplitMix64(0x101A9);
    let left: Vec<Value> = (0..nl)
        .map(|_| {
            Value::pair(
                Value::from(format!("user-{:06}", rng.range_usize(keys))),
                Value::from(rng.range_usize(10_000) as i64),
            )
        })
        .collect();
    let right: Vec<Value> = (0..keys / 4)
        .map(|k| {
            Value::pair(
                Value::from(format!("user-{:06}", k * 4)),
                Value::from(rng.range_usize(10_000) as i64),
            )
        })
        .collect();
    (left, right)
}

fn join_collection_plan(left: Vec<Value>, right: Vec<Value>) -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let r = b.collection(right);
    let sink = b.collection(left).join(&r, KeyUdf::field(0), KeyUdf::field(0)).collect();
    (b.build().expect("join plan"), sink)
}

fn wordcount_collection_plan(lines: Vec<Value>) -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = b
        .collection(lines)
        .flat_map(FlatMapUdf::split_whitespace("split"))
        .map(MapUdf::pair_with_int("pair", 1))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .collect();
    (b.build().expect("wordcount plan"), sink)
}

/// Filter + arithmetic chain of the sargable-scan task: quarter-selective
/// sarg, then three integer adjustments before the projection.
fn scan_steps() -> Vec<FusedStep> {
    let sarg = Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(500i64) };
    let sp = PredicateUdf::from_sarg("hot", sarg);
    vec![
        FusedStep::Filter(sp.pred),
        FusedStep::Map(MapUdf::field_add_int("bump", 1, 5)),
        FusedStep::Map(MapUdf::field_add_int("rebase", 0, -3)),
        FusedStep::Map(MapUdf::field_add_int("scale", 1, 11)),
        FusedStep::Project(vec![1, 0]),
    ]
}

fn scan_collection_plan(data: Vec<Value>) -> (RheemPlan, OperatorId) {
    let sarg = Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(500i64) };
    let sp = PredicateUdf::from_sarg("hot", sarg);
    let mut b = PlanBuilder::new();
    let sink = b
        .collection(data)
        .filter_sarg(sp.pred, sp.sarg)
        .map(MapUdf::field_add_int("bump", 1, 5))
        .map(MapUdf::field_add_int("rebase", 0, -3))
        .map(MapUdf::field_add_int("scale", 1, 11))
        .project([1usize, 0])
        .collect();
    (b.build().expect("scan plan"), sink)
}

/// Forced-JavaStreams end-to-end run; returns (sorted sink, virtual ms).
fn run_e2e(build: impl Fn() -> (RheemPlan, OperatorId), batched: bool) -> (Vec<Value>, f64) {
    run_e2e_on(build, batched, ids::JAVA_STREAMS)
}

/// Forced-platform end-to-end run; returns (sorted sink, virtual ms).
fn run_e2e_on(
    build: impl Fn() -> (RheemPlan, OperatorId),
    batched: bool,
    platform: rheem_core::platform::PlatformId,
) -> (Vec<Value>, f64) {
    let mut ctx = default_context().with_batch(batched);
    ctx.forced_platform = Some(platform);
    let (plan, sink) = build();
    let r = ctx.execute(&plan).expect("bench job");
    let mut out = r.sink(sink).expect("sink").to_vec();
    out.sort();
    (out, r.metrics.virtual_ms)
}

/// Chunk a dataset into `n` row partitions (engine `div_ceil` convention).
fn row_parts(data: &[Value], n: usize) -> Vec<Arc<Vec<Value>>> {
    data.chunks(data.len().div_ceil(n).max(1)).map(|c| Arc::new(c.to_vec())).collect()
}

/// The same partitions, pre-columnized — as a vectorized producer stage
/// would hand them to the exchange.
fn batch_parts(data: &[Value], n: usize) -> Vec<Batch> {
    data.chunks(data.len().div_ceil(n).max(1)).map(Batch::from_values).collect()
}

fn main() {
    let s = scale();
    let bc = BroadcastCtx::new();
    let mut rows = Vec::new();

    // ---- wordcount: tokenize → pair → dictionary-keyed sum ----
    {
        let lines = wordcount_lines(s);
        let pipeline = FusedPipeline::new(vec![
            FusedStep::FlatMap(FlatMapUdf::split_whitespace("split")),
            FusedStep::Map(MapUdf::pair_with_int("pair", 1)),
        ]);
        let key = KeyUdf::field(0);
        let agg = ReduceUdf::pair_int_sum("sum");
        let vk = VectorKernel::compile(&pipeline).expect("wordcount chain must vectorize");
        assert!(batch::agg_vectorizable(&key, &agg), "wordcount agg must vectorize");

        let mut row_out = Vec::new();
        let row_m = harness::bench("wordcount/row", ITERS, || {
            let mut st = ReduceByState::new(&key, &agg);
            pipeline.run_each(&lines, &bc, |v| st.feed_owned(v));
            row_out = st.finish();
        });
        let mut batch_out = Vec::new();
        let batch_m = harness::bench("wordcount/batched", ITERS, || {
            batch_out =
                batch::run_reduce(&vk, &lines, &key, &agg, false).expect("wordcount vectorizes");
        });
        assert_eq!(batch_out, row_out, "wordcount: batched kernel diverged from row kernel");

        let (e2e_row, e2e_row_ms) = run_e2e(|| wordcount_collection_plan(lines.clone()), false);
        let (e2e_bat, e2e_bat_ms) = run_e2e(|| wordcount_collection_plan(lines.clone()), true);
        assert_eq!(e2e_bat, e2e_row, "wordcount: batched end-to-end run diverged");

        rows.push(Row {
            task: "wordcount",
            row_ms: row_m.min_ms,
            batch_ms: batch_m.min_ms,
            e2e_row_virtual_ms: e2e_row_ms,
            e2e_batch_virtual_ms: e2e_bat_ms,
            rows: lines.len(),
        });
    }

    // ---- sargable scan: typed filter → int arithmetic → projection ----
    {
        let data = scan_pairs(s);
        let pipeline = FusedPipeline::new(scan_steps());
        let vk = VectorKernel::compile(&pipeline).expect("scan chain must vectorize");

        let mut row_out = Vec::new();
        let row_m = harness::bench("scan/row", ITERS, || {
            row_out = pipeline.run(&data, &bc);
        });
        let mut batch_out = Vec::new();
        let batch_m = harness::bench("scan/batched", ITERS, || {
            batch_out = vk.run_values(&data).expect("scan vectorizes").to_values();
        });
        assert_eq!(batch_out, row_out, "scan: batched kernel diverged from row kernel");

        let (e2e_row, e2e_row_ms) = run_e2e(|| scan_collection_plan(data.clone()), false);
        let (e2e_bat, e2e_bat_ms) = run_e2e(|| scan_collection_plan(data.clone()), true);
        assert_eq!(e2e_bat, e2e_row, "scan: batched end-to-end run diverged");

        rows.push(Row {
            task: "scan",
            row_ms: row_m.min_ms,
            batch_ms: batch_m.min_ms,
            e2e_row_virtual_ms: e2e_row_ms,
            e2e_batch_virtual_ms: e2e_bat_ms,
            rows: data.len(),
        });
    }

    // ---- shuffle-heavy wordcount: combine + hash exchange + merge ----
    {
        let lines = wordcount_lines(s);
        let tokenizer = FusedPipeline::new(vec![
            FusedStep::FlatMap(FlatMapUdf::split_whitespace("split")),
            FusedStep::Map(MapUdf::pair_with_int("pair", 1)),
        ]);
        let pairs = tokenizer.run(&lines, &bc);
        let n = 8usize;
        let rparts = row_parts(&pairs, n);
        let bparts = batch_parts(&pairs, n);
        let key = KeyUdf::field(0);
        let agg = ReduceUdf::pair_int_sum("sum");
        let spec = agg.spec.clone().expect("pair_int_sum is spec'd");

        let mut row_out: Vec<Vec<Value>> = Vec::new();
        let row_m = harness::bench("shuffle_wordcount/row", ITERS, || {
            let combined: Vec<Arc<Vec<Value>>> =
                rparts.iter().map(|p| Arc::new(kernels::combine_by(p, &key, &agg))).collect();
            let (ex, _) = rheem_core::partitioned::exchange(&combined, &key, n);
            row_out = ex.iter().map(|p| kernels::merge_by(p, &agg)).collect();
        });
        let mut batch_out: Vec<Vec<Value>> = Vec::new();
        let batch_m = harness::bench("shuffle_wordcount/batched", ITERS, || {
            let mut buckets: Vec<Vec<Batch>> = vec![Vec::new(); n];
            for b in &bparts {
                let cb = batch::combine_batch(b, &spec).expect("wordcount pairs combine");
                let parts = batch::partition_batch(&cb, &KeySpec::Field(0), n)
                    .expect("combined batch partitions");
                for (j, p) in parts.into_iter().enumerate() {
                    buckets[j].push(p);
                }
            }
            batch_out = buckets
                .iter()
                .map(|bs| batch::merge_batches(bs).expect("contributions merge").to_values())
                .collect();
        });
        assert_eq!(
            batch_out, row_out,
            "shuffle_wordcount: columnar exchange diverged from row exchange"
        );

        let (e2e_row, e2e_row_ms) =
            run_e2e_on(|| wordcount_collection_plan(lines.clone()), false, ids::SPARK);
        let (e2e_bat, e2e_bat_ms) =
            run_e2e_on(|| wordcount_collection_plan(lines.clone()), true, ids::SPARK);
        assert_eq!(e2e_bat, e2e_row, "shuffle_wordcount: batched end-to-end run diverged");

        rows.push(Row {
            task: "shuffle_wordcount",
            row_ms: row_m.min_ms,
            batch_ms: batch_m.min_ms,
            e2e_row_virtual_ms: e2e_row_ms,
            e2e_batch_virtual_ms: e2e_bat_ms,
            rows: pairs.len(),
        });
    }

    // ---- join: two-sided hash exchange + build/probe ----
    {
        let (left, right) = join_pairs(s);
        let n = 8usize;
        let lr = row_parts(&left, n);
        let rr = row_parts(&right, n);
        let lb = batch_parts(&left, n);
        let rb = batch_parts(&right, n);
        let key = KeyUdf::field(0);
        let ks = KeySpec::Field(0);

        // The row baseline is what the engine runs on row inputs: the routed
        // join, on one worker (the columnar twin below is serial too).
        let mut routed = Vec::new();
        let row_m = harness::bench("join/row", ITERS, || {
            (routed, _, _) = rheem_core::partitioned::routed_join(&lr, &rr, &key, &key, n, 1)
                .expect("row join runs");
        });
        let row_out: Vec<Vec<Value>> = routed.iter().map(|p| p.as_ref().clone()).collect();
        let mut batch_out: Vec<Vec<Value>> = Vec::new();
        let batch_m = harness::bench("join/batched", ITERS, || {
            let mut lbuckets: Vec<Vec<Batch>> = vec![Vec::new(); n];
            let mut rbuckets: Vec<Vec<Batch>> = vec![Vec::new(); n];
            for (parts, buckets) in [(&lb, &mut lbuckets), (&rb, &mut rbuckets)] {
                for b in parts.iter() {
                    let bs =
                        batch::partition_batch(b, &ks, n).expect("typed join input partitions");
                    for (j, p) in bs.into_iter().enumerate() {
                        buckets[j].push(p);
                    }
                }
            }
            batch_out = (0..n)
                .map(|j| {
                    batch::join_buckets(&lbuckets[j], &rbuckets[j], &ks, &ks)
                        .expect("typed key columns join")
                })
                .collect();
        });
        assert_eq!(batch_out, row_out, "join: columnar exchange diverged from row exchange");

        let (e2e_row, e2e_row_ms) =
            run_e2e_on(|| join_collection_plan(left.clone(), right.clone()), false, ids::SPARK);
        let (e2e_bat, e2e_bat_ms) =
            run_e2e_on(|| join_collection_plan(left.clone(), right.clone()), true, ids::SPARK);
        assert_eq!(e2e_bat, e2e_row, "join: batched end-to-end run diverged");

        rows.push(Row {
            task: "join",
            row_ms: row_m.min_ms,
            batch_ms: batch_m.min_ms,
            e2e_row_virtual_ms: e2e_row_ms,
            e2e_batch_virtual_ms: e2e_bat_ms,
            rows: left.len() + right.len(),
        });
    }

    // ---- gate ----
    for r in &rows {
        println!(
            "{}: kernel {:.2} ms row vs {:.2} ms batched — {:.2}x ({} rows); \
             e2e virtual {:.1} -> {:.1} ms",
            r.task,
            r.row_ms,
            r.batch_ms,
            r.speedup(),
            r.rows,
            r.e2e_row_virtual_ms,
            r.e2e_batch_virtual_ms,
        );
        // The join row gates nothing: its two sides are twins on one clock,
        // and the row side no longer moves or re-hashes rows (ROADMAP 3(c)).
        assert!(
            r.task == "join" || r.speedup() >= GATE,
            "{}: batched kernel speedup {:.2}x below the {GATE}x gate \
             (row {:.2} ms, batched {:.2} ms over {} rows)",
            r.task,
            r.speedup(),
            r.row_ms,
            r.batch_ms,
            r.rows
        );
    }

    let mut report = Report::new("batch_bench");
    for r in &rows {
        report.row("row_kernel", r.task, r.row_ms, &format!("{} rows", r.rows));
        report.row("batched_kernel", r.task, r.batch_ms, &format!("{:.2}x", r.speedup()));
        report.row("e2e_row", r.task, r.e2e_row_virtual_ms, "");
        report.row("e2e_batched", r.task, r.e2e_batch_virtual_ms, "");
    }
    report.save();

    // Narrow kernel tasks keep the PR6 report; the exchange tasks get PR9.
    let write_report = |file: &str, bench: &str, tasks: &[&Row]| {
        let mut json = format!("{{\n  \"bench\": \"{bench}\",\n");
        let _ = writeln!(json, "  \"iters\": {ITERS},");
        let _ = writeln!(json, "  \"gate\": {GATE},");
        json.push_str("  \"tasks\": {\n");
        for (i, r) in tasks.iter().enumerate() {
            let comma = if i + 1 < tasks.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "    \"{}\": {{ \"rows\": {}, \"row_kernel_ms\": {:.3}, \
                 \"batched_kernel_ms\": {:.3}, \"kernel_speedup\": {:.3}, \
                 \"e2e_row_virtual_ms\": {:.3}, \"e2e_batched_virtual_ms\": {:.3} }}{}",
                r.task,
                r.rows,
                r.row_ms,
                r.batch_ms,
                r.speedup(),
                r.e2e_row_virtual_ms,
                r.e2e_batch_virtual_ms,
                comma
            );
        }
        json.push_str("  }\n}\n");
        std::fs::write(file, &json).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("-- wrote {file} ({} tasks)", tasks.len());
    };
    let narrow: Vec<&Row> =
        rows.iter().filter(|r| matches!(r.task, "wordcount" | "scan")).collect();
    let exchange: Vec<&Row> =
        rows.iter().filter(|r| matches!(r.task, "shuffle_wordcount" | "join")).collect();
    write_report("BENCH_PR6.json", "batch_bench", &narrow);
    write_report("BENCH_PR9.json", "batch_bench_exchange", &exchange);
}
