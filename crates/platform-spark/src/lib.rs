//! Spark platform simulacrum: a partitioned, multi-threaded batch engine
//! with job-submission overheads, shuffle exchanges, caching and broadcast
//! variables (§6's `Spark`).
//!
//! Operators execute **for real** over partitioned datasets (worker threads
//! pull partitions off a shared queue); the measured per-partition times are
//! composed into *virtual cluster time* via the platform profile's task-wave
//! model, and shuffles/broadcasts add network-transfer terms. Channels:
//! `spark.rdd` (consumed once — Spark recomputes lineage otherwise) and
//! `spark.rdd.cached` (reusable, the `Cache` operator of Fig. 3(b)).

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rheem_core::batch;
use rheem_core::channel::{kinds, ChannelData, ChannelDescriptor, ChannelKind};
use rheem_core::cost::{linear_cpu, CostModel, Load};
use rheem_core::error::{Result, RheemError};
use rheem_core::exec::Fallback;
use rheem_core::exec::{dataset_bytes, ExecCtx, ExecutionOperator, OpMetrics};
use rheem_core::fused::{self, Segment};
use rheem_core::kernels;
use rheem_core::mapping::{upstream_chain, Candidate, FnMapping};
use rheem_core::partitioned::{
    bucket_bytes, bucketize, flatten_parts, par_each, par_each_idx, read_text_parts,
    reduce_exchange, shipped,
};
use rheem_core::plan::{LogicalOp, OpKind, OperatorNode, RheemPlan};
use rheem_core::platform::{ids, Platform, PlatformId};
use rheem_core::registry::Registry;
use rheem_core::udf::{BroadcastCtx, KeyUdf};
use rheem_core::value::{Dataset, Value};

/// The RDD channel: Spark's native dataset, consumed exactly once.
pub const RDD: ChannelKind = ChannelKind("spark.rdd");
/// A cached RDD: reusable across consumers (`RDD.cache()`).
pub const RDD_CACHED: ChannelKind = ChannelKind("spark.rdd.cached");

/// The Spark platform.
#[derive(Default)]
pub struct SparkPlatform;

impl SparkPlatform {
    /// Create the platform.
    pub fn new() -> Self {
        Self
    }
}

// The partitioned core's names, under the ones Spark's users know them by
// (`shuffle` is its hash exchange).
pub use rheem_core::partitioned::{exchange as shuffle, partition_count, pool_size};

/// Report a shuffle to the job trace (bytes moved, destination partitions).
fn shuffle_event(ctx: &mut ExecCtx<'_>, op: &str, bytes: f64, partitions: usize) {
    let op = op.to_string();
    ctx.trace_event("spark.shuffle", || {
        vec![
            ("op".to_string(), op.into()),
            ("bytes".to_string(), bytes.into()),
            ("partitions".to_string(), partitions.into()),
        ]
    });
}

/// A Spark execution operator: one logical operator or a fused narrow chain
/// (Spark's stage pipelining).
pub struct SparkOperator {
    ops: Vec<LogicalOp>,
    name: String,
}

impl SparkOperator {
    /// Wrap a chain of logical operators (narrow chains fuse; wide
    /// operators stand alone).
    pub fn new(ops: Vec<LogicalOp>) -> Self {
        let name = match ops.as_slice() {
            [single] => format!("Spark{:?}", single.kind()),
            // A chain ending in a wide operator names its tail so monitor
            // logs still show what the stage aggregates into.
            [head @ .., last] if !fused::fusable(last) => {
                format!("SparkChain{}\u{2218}{:?}", head.len(), last.kind())
            }
            _ => format!("SparkChain{}", ops.len()),
        };
        Self { ops, name }
    }

    fn input_partitions(&self, input: &ChannelData, max_parts: u32) -> Result<Vec<Dataset>> {
        match input {
            ChannelData::Partitions(p) => Ok(p.as_ref().clone()),
            ChannelData::Collection(_) | ChannelData::Batches(_) => {
                let d = input.flatten()?;
                let n = partition_count(d.len(), max_parts);
                let chunk = d.len().div_ceil(n).max(1);
                let parts: Vec<Dataset> = if n <= 1 {
                    // Single partition: share the incoming Arc outright.
                    vec![Arc::clone(&d)]
                } else {
                    d.chunks(chunk).map(|c| Arc::new(c.to_vec())).collect()
                };
                Ok(if parts.is_empty() { vec![Arc::new(Vec::new())] } else { parts })
            }
            // Columnar partitions land 1:1 as row partitions (the right
            // side of Cartesian / InequalityJoin has no columnar kernel).
            ChannelData::BatchParts(bs) => {
                let parts: Vec<Dataset> = bs.iter().map(|b| Arc::new(b.to_values())).collect();
                Ok(if parts.is_empty() { vec![Arc::new(Vec::new())] } else { parts })
            }
            other => Err(RheemError::Execution(format!(
                "spark operator expects an RDD, found {other:?}"
            ))),
        }
    }

    /// Stage input as engine parts: columnar partitions arrive 1:1 through
    /// the exchange (`BatchParts`, no row round-trip); everything else takes
    /// the row route of [`Self::input_partitions`].
    fn input_parts(&self, input: &ChannelData, max_parts: u32) -> Result<Vec<batch::Part>> {
        if let ChannelData::BatchParts(bs) = input {
            return Ok(if bs.is_empty() {
                vec![batch::Part::Rows(Arc::new(Vec::new()))]
            } else {
                bs.iter().map(|b| batch::Part::Cols(b.clone())).collect()
            });
        }
        Ok(batch::into_row_parts(self.input_partitions(input, max_parts)?))
    }
}

/// Default per-quantum cycle costs on Spark (slightly higher than
/// JavaStreams: serialization + task framework overhead per record).
fn default_alpha(kind: OpKind) -> f64 {
    match kind {
        OpKind::Map => 220.0,
        OpKind::FlatMap => 340.0,
        OpKind::Filter | OpKind::SargFilter => 180.0,
        OpKind::Project => 130.0,
        OpKind::Sample => 90.0,
        OpKind::SortBy => 1_200.0,
        OpKind::Distinct => 500.0,
        OpKind::Count => 40.0,
        OpKind::GroupBy => 650.0,
        OpKind::Reduce => 280.0,
        OpKind::ReduceBy => 550.0,
        OpKind::Union => 60.0,
        OpKind::Join => 700.0,
        OpKind::Cartesian => 120.0,
        OpKind::InequalityJoin => 150.0,
        OpKind::PageRank => 1_000.0,
        OpKind::TextFileSource => 260.0,
        _ => 140.0,
    }
}

/// Whether an operator is *wide* (needs a shuffle) on Spark.
fn is_wide(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::SortBy
            | OpKind::Distinct
            | OpKind::GroupBy
            | OpKind::ReduceBy
            | OpKind::Join
            | OpKind::Cartesian
            | OpKind::InequalityJoin
            | OpKind::PageRank
            | OpKind::Reduce
            | OpKind::Count
    )
}

impl ExecutionOperator for SparkOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn platform(&self) -> PlatformId {
        ids::SPARK
    }

    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![RDD, RDD_CACHED]
    }

    fn output_kind(&self) -> ChannelKind {
        RDD
    }

    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c_in: f64 = in_cards.iter().sum();
        let mut cycles = 0.0;
        let mut net_bytes = 0.0;
        let mut card = c_in;
        let mut after_fused = false;
        let mut after_vectorized = false;
        for (si, seg) in fused::segment_chain(&self.ops).into_iter().enumerate() {
            let delta = if si == 0 { 20_000.0 } else { 0.0 };
            match seg {
                // A fused chain pays its job-submission δ once and one
                // per-tuple term whose UDF weight is the summed step cost.
                Segment::Fused { pipeline, .. } if pipeline.len() > 1 => {
                    // Static vectorization discount: recognized chains run on
                    // typed column slices. Keys off the plan only, never the
                    // RHEEM_BATCH runtime switch, so plan choice is
                    // mode-independent.
                    let alpha = if pipeline.vectorizable() { 220.0 * 0.55 } else { 220.0 };
                    cycles += linear_cpu(
                        model,
                        "spark",
                        "fused",
                        card,
                        pipeline.cost_hint() * 50.0,
                        alpha,
                        delta,
                    );
                    card *= pipeline.selectivity();
                    after_fused = true;
                    after_vectorized = pipeline.vectorizable();
                    continue;
                }
                _ => {}
            }
            let op = match seg {
                Segment::Fused { start, .. } => &self.ops[start],
                Segment::Single { op, .. } => op,
            };
            let kind = op.kind();
            let size = if matches!(kind, OpKind::Cartesian | OpKind::InequalityJoin) {
                in_cards.iter().product::<f64>().max(card)
            } else if kind == OpKind::SortBy {
                card * card.max(2.0).log2()
            } else if kind == OpKind::PageRank {
                card * 12.0
            } else {
                card
            };
            // A ReduceBy fed by the preceding fused segment runs its
            // map-side combine inside the pipeline pass (fused terminal
            // aggregation): no materialized narrow output, no input re-scan.
            let alpha = if after_fused && kind == OpKind::ReduceBy {
                // Dictionary-keyed vectorized combine skips per-row hashing.
                let vec_agg = after_vectorized
                    && matches!(
                        op,
                        LogicalOp::ReduceBy { key, agg } if batch::agg_vectorizable(key, agg)
                    );
                default_alpha(kind) * if vec_agg { 0.6 } else { 0.75 }
            } else {
                default_alpha(kind)
            };
            after_fused = false;
            after_vectorized = false;
            cycles += linear_cpu(
                model,
                "spark",
                kind.token(),
                size,
                op.udf_cost_hint() * 50.0,
                alpha,
                delta,
            );
            if is_wide(kind) {
                net_bytes += card * avg_bytes * 0.9;
            }
            card *= match kind {
                OpKind::Filter | OpKind::SargFilter => 0.5,
                OpKind::FlatMap => 4.0,
                OpKind::ReduceBy | OpKind::GroupBy | OpKind::Distinct => 0.5,
                OpKind::Count | OpKind::Reduce => 0.0,
                _ => 1.0,
            };
        }
        Load {
            cpu_cycles: cycles,
            net_bytes,
            tasks: partition_count(c_in as usize, 80) as u32,
            ..Load::default()
        }
    }

    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.fault_gate(ids::SPARK, self.name())?;
        let profile = ctx.profile(ids::SPARK).clone();
        let workers = pool_size(&profile);
        let seed = ctx.seed;
        let iteration = ctx.iteration;
        let batched = ctx.batch();

        // Broadcast variables ship once per executor node (~10 nodes).
        if !bc.is_empty() {
            let bytes: f64 = bc.total_quanta() as f64 * 24.0;
            ctx.add_virtual_ms(profile.net_ms(bytes * 10.0) + 1.0);
        }

        let mut parts: Vec<batch::Part> = if self.ops[0].kind().is_source() {
            Vec::new()
        } else {
            self.input_parts(&inputs[0], profile.partitions)?
        };
        let in_card: u64 = parts.iter().map(|p| p.len() as u64).sum::<u64>()
            + inputs.get(1).and_then(|c| c.cardinality()).unwrap_or(0) as u64;
        let mut virtual_ms = 0.0;
        let mut real_ms = 0.0;

        let segs = fused::segment_chain(&self.ops);
        let mut si = 0;
        while si < segs.len() {
            let seg = &segs[si];
            si += 1;
            // ---- narrow transformations: the whole fused run traverses
            // each partition exactly once (stage pipelining made literal) ----
            if let Segment::Fused { pipeline, .. } = seg {
                // Fused terminal aggregation: a chain feeding a ReduceBy runs
                // inside the map-side combine — pipeline survivors stream
                // straight into each partition's hash accumulator, so the
                // narrow output is never materialized before the combine.
                if let Some(Segment::Single { op: LogicalOp::ReduceBy { key, agg }, .. }) =
                    segs.get(si)
                {
                    si += 1;
                    let start = Instant::now();
                    // Map-side combine over typed columns when both the chain
                    // and the aggregation are recognized; partitions whose
                    // runtime types refuse to columnize fall back per-partition.
                    let vk = if batched {
                        batch::VectorKernel::compile(pipeline)
                            .filter(|_| batch::agg_vectorizable(key, agg))
                    } else {
                        None
                    };
                    let spec = agg.spec.clone();
                    let vrows = AtomicUsize::new(0);
                    let vparts = AtomicUsize::new(0);
                    let rparts = AtomicUsize::new(0);
                    let (combined, t1) = par_each_idx(parts.len(), workers, |i| {
                        let part = &parts[i];
                        if let (Some(k), Some(spec)) = (vk.as_ref(), spec.as_ref()) {
                            let run = match part {
                                batch::Part::Cols(b) => k.run_batch(b.clone()),
                                batch::Part::Rows(d) => k.run_values(d),
                            };
                            if let Some(cb) = run.and_then(|b| batch::combine_batch(&b, spec)) {
                                vrows.fetch_add(part.len(), Ordering::Relaxed);
                                vparts.fetch_add(1, Ordering::Relaxed);
                                return Ok(batch::Part::Cols(cb));
                            }
                            rparts.fetch_add(1, Ordering::Relaxed);
                        }
                        let rows = part.rows();
                        let mut state = kernels::ReduceByState::new(key, agg);
                        pipeline.run_each(&rows, bc, |v| state.feed_owned(v));
                        Ok(batch::Part::Rows(Arc::new(state.finish_keyed())))
                    })?;
                    let steps = pipeline.len() as u32 + 1;
                    let vb = vparts.into_inner();
                    if vb > 0 {
                        ctx.report_vectorized(
                            vrows.into_inner() as u64,
                            vb as u64,
                            steps * vb as u32,
                        );
                    }
                    let rb = if vk.is_some() {
                        rparts.into_inner()
                    } else if batched {
                        parts.len()
                    } else {
                        0
                    };
                    if rb > 0 {
                        ctx.report_row_fallback(steps * rb as u32);
                    }
                    let (out, vms) = reduce_exchange(
                        ctx,
                        &profile,
                        workers,
                        &combined,
                        agg,
                        batched,
                        |ctx, bytes, n| shuffle_event(ctx, "FusedReduceBy", bytes, n),
                    )?;
                    parts = out;
                    virtual_ms += profile.parallel_ms(&t1) + vms;
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                    continue;
                }
                let vk = if batched { batch::VectorKernel::compile(pipeline) } else { None };
                let vrows = AtomicUsize::new(0);
                let vparts = AtomicUsize::new(0);
                let rparts = AtomicUsize::new(0);
                let (out, times) = par_each_idx(parts.len(), workers, |i| {
                    let part = &parts[i];
                    if let Some(k) = vk.as_ref() {
                        // Columnar inputs run the kernel over the shipped
                        // batch directly; row inputs columnize first.
                        let run = match part {
                            batch::Part::Cols(b) => k.run_batch(b.clone()),
                            batch::Part::Rows(d) => k.run_values(d),
                        };
                        if let Some(b) = run {
                            vrows.fetch_add(part.len(), Ordering::Relaxed);
                            vparts.fetch_add(1, Ordering::Relaxed);
                            return Ok(batch::Part::Cols(b));
                        }
                        rparts.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(batch::Part::Rows(Arc::new(pipeline.run(&part.rows(), bc))))
                })?;
                let steps = pipeline.len() as u32;
                let vb = vparts.into_inner();
                if vb > 0 {
                    ctx.report_vectorized(vrows.into_inner() as u64, vb as u64, steps * vb as u32);
                }
                let rb = if vk.is_some() {
                    rparts.into_inner()
                } else if batched {
                    parts.len()
                } else {
                    0
                };
                if rb > 0 {
                    ctx.report_row_fallback(steps * rb as u32);
                }
                parts = out;
                virtual_ms += profile.parallel_ms(&times);
                real_ms += times.iter().sum::<f64>();
                continue;
            }
            let op = match seg {
                Segment::Single { op, .. } => op,
                Segment::Fused { .. } => unreachable!(),
            };
            match op {
                LogicalOp::Sample { method, size, seed: s } => {
                    let total: usize = parts.iter().map(|p| p.len()).sum();
                    let want = size.resolve(total);
                    let base_seed = s.unwrap_or(seed) ^ iteration.wrapping_mul(0x9E37_79B9);
                    let rows = batch::rows_of(&parts);
                    let (out, times) = par_each(&rows, workers, |i, data| {
                        let share =
                            if total == 0 { 0 } else { (want * data.len()).div_ceil(total.max(1)) };
                        Ok(kernels::sample(
                            data,
                            *method,
                            rheem_core::plan::SampleSize::Count(share),
                            base_seed.wrapping_add(i as u64),
                        ))
                    })?;
                    parts = batch::into_row_parts(out);
                    virtual_ms += profile.parallel_ms(&times);
                    real_ms += times.iter().sum::<f64>();
                }
                LogicalOp::Union => {
                    let other = self.input_parts(&inputs[1], profile.partitions)?;
                    parts.extend(other);
                }
                // ---- wide operators: shuffle then per-partition work ----
                LogicalOp::ReduceBy { key, agg } => {
                    let start = Instant::now();
                    // map-side combine into (key, acc) partials; reduce-side
                    // merge on the carried key (see fused path above).
                    // Columnar inputs combine through the slot-array kernel
                    // and keep their (key, sum) batch for the exchange.
                    let vec_ok = batched && batch::agg_vectorizable(key, agg);
                    let spec = agg.spec.clone();
                    let (combined, t1) = par_each_idx(parts.len(), workers, |i| {
                        let part = &parts[i];
                        if vec_ok {
                            if let (Some(b), Some(spec)) = (part.as_batch(), spec.as_ref()) {
                                if let Some(cb) = batch::combine_batch(b, spec) {
                                    return Ok(batch::Part::Cols(cb));
                                }
                            }
                        }
                        Ok(batch::Part::Rows(Arc::new(kernels::combine_by(&part.rows(), key, agg))))
                    })?;
                    let (out, vms) = reduce_exchange(
                        ctx,
                        &profile,
                        workers,
                        &combined,
                        agg,
                        batched,
                        |ctx, bytes, n| shuffle_event(ctx, "ReduceBy", bytes, n),
                    )?;
                    parts = out;
                    virtual_ms += profile.parallel_ms(&t1) + vms;
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                }
                LogicalOp::GroupBy(key) => {
                    let start = Instant::now();
                    let n = parts.len();
                    let rows = batch::rows_of(&parts);
                    if batched && parts.iter().any(|p| p.as_batch().is_some()) {
                        let total: u64 = rows.iter().map(|d| d.len() as u64).sum();
                        ctx.report_exchange_fallback(total, Fallback::OpaqueSegment);
                    }
                    let (exchanged, bytes) = shuffle(&rows, key, n);
                    shuffle_event(ctx, "GroupBy", bytes, n);
                    let (out, t) =
                        par_each(&exchanged, workers, |_i, d| Ok(kernels::group_by(d, key)))?;
                    parts = batch::into_row_parts(out);
                    virtual_ms += profile.net_ms(bytes) + profile.parallel_ms(&t);
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                }
                LogicalOp::Distinct => {
                    let start = Instant::now();
                    let n = parts.len();
                    let rows = batch::rows_of(&parts);
                    if batched && parts.iter().any(|p| p.as_batch().is_some()) {
                        let total: u64 = rows.iter().map(|d| d.len() as u64).sum();
                        ctx.report_exchange_fallback(total, Fallback::OpaqueSegment);
                    }
                    let (exchanged, bytes) = shuffle(&rows, &KeyUdf::identity(), n);
                    shuffle_event(ctx, "Distinct", bytes, n);
                    let (out, t) = par_each(&exchanged, workers, |_i, d| Ok(kernels::distinct(d)))?;
                    parts = batch::into_row_parts(out);
                    virtual_ms += profile.net_ms(bytes) + profile.parallel_ms(&t);
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                }
                LogicalOp::SortBy(key) => {
                    // sort partitions, then merge and re-split contiguously
                    // (range partitioning analogue).
                    let start = Instant::now();
                    let n = parts.len();
                    // Columnar path: per-partition batch sort (selection
                    // vector permutation, columns stay put), then a k-way
                    // merge that re-chunks exactly like the row path.
                    let mut columnar: Option<(Vec<batch::Part>, f64, f64)> = None;
                    if batched {
                        if let (Some(ks), Some(bs)) =
                            (key.spec.as_ref(), batch::all_batches(&parts))
                        {
                            let (sorted, t) = par_each_idx(bs.len(), workers, |i| {
                                Ok(batch::sort_batch(bs[i], ks))
                            })?;
                            if let Some(sorted) = sorted.into_iter().collect::<Option<Vec<_>>>() {
                                if let Some(merged) = batch::merge_sorted(&sorted, ks, n) {
                                    let bytes =
                                        sorted.iter().map(batch::batch_bytes).sum::<f64>() * 0.9;
                                    let rows: u64 =
                                        merged.iter().map(|b| b.selected_len() as u64).sum();
                                    ctx.report_exchange(merged.len() as u64, rows);
                                    columnar = Some((
                                        merged.into_iter().map(batch::Part::Cols).collect(),
                                        profile.parallel_ms(&t),
                                        bytes,
                                    ));
                                }
                            }
                        }
                    }
                    if let Some((out, tpar, bytes)) = columnar {
                        parts = out;
                        virtual_ms += tpar + profile.net_ms(bytes);
                    } else {
                        let rows = batch::rows_of(&parts);
                        if batched {
                            let total: u64 = rows.iter().map(|d| d.len() as u64).sum();
                            let why = if key.spec.is_none() {
                                Fallback::OpaqueKey
                            } else if parts.iter().any(|p| p.as_batch().is_none()) {
                                Fallback::RowInput
                            } else {
                                Fallback::TypeMismatch
                            };
                            ctx.report_exchange_fallback(total, why);
                        }
                        let (sorted, t) =
                            par_each(&rows, workers, |_i, d| Ok(kernels::sort_by(d, key)))?;
                        let mut all = flatten_parts(&sorted);
                        all = kernels::sort_by(&all, key);
                        let bytes = dataset_bytes(&all) * 0.9;
                        let chunk = all.len().div_ceil(n.max(1)).max(1);
                        let mut rparts: Vec<Dataset> =
                            all.chunks(chunk).map(|c| Arc::new(c.to_vec())).collect();
                        if rparts.is_empty() {
                            rparts.push(Arc::new(Vec::new()));
                        }
                        parts = batch::into_row_parts(rparts);
                        virtual_ms += profile.parallel_ms(&t) + profile.net_ms(bytes);
                    }
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                }
                LogicalOp::Count => {
                    let start = Instant::now();
                    let total: usize = parts.iter().map(|p| p.len()).sum();
                    parts = vec![batch::Part::Rows(Arc::new(vec![Value::from(total)]))];
                    virtual_ms += profile.task_overhead_ms * 2.0;
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                }
                LogicalOp::Reduce(agg) => {
                    let start = Instant::now();
                    let rows = batch::rows_of(&parts);
                    let (partials, t) =
                        par_each(&rows, workers, |_i, d| Ok(kernels::reduce(d, agg)))?;
                    let all = flatten_parts(&partials);
                    parts = vec![batch::Part::Rows(Arc::new(kernels::reduce(&all, agg)))];
                    virtual_ms += profile.parallel_ms(&t) + profile.task_overhead_ms;
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                }
                LogicalOp::Join { left_key, right_key } => {
                    let start = Instant::now();
                    let right = self.input_parts(&inputs[1], profile.partitions)?;
                    let n = parts.len().max(right.len());
                    // Columnar path: hash-partition both sides on their key
                    // columns (selection vectors only), then build/probe per
                    // destination bucket. Routing and output order match the
                    // row shuffle + hash join exactly.
                    let mut columnar = None;
                    if batched {
                        if let (Some(lks), Some(rks)) =
                            (left_key.spec.as_ref(), right_key.spec.as_ref())
                        {
                            if let (Some(lbs), Some(rbs)) =
                                (batch::all_batches(&parts), batch::all_batches(&right))
                            {
                                if let (Some(lb), Some(rb)) = (
                                    bucketize(&lbs, lks, n, workers)?,
                                    bucketize(&rbs, rks, n, workers)?,
                                ) {
                                    columnar = Some((lb, rb, lks.clone(), rks.clone()));
                                }
                            }
                        }
                    }
                    if let Some((lb, rb, lks, rks)) = columnar {
                        let bytes = bucket_bytes(&lb) + bucket_bytes(&rb);
                        shuffle_event(ctx, "Join", bytes, n);
                        let (sl, rl) = shipped(&lb);
                        let (sr, rr) = shipped(&rb);
                        ctx.report_exchange(sl + sr, rl + rr);
                        let (out, t) = par_each_idx(lb.len(), workers, |j| {
                            match batch::join_buckets(&lb[j], &rb[j], &lks, &rks) {
                                Some(rows) => Ok(batch::Part::Rows(Arc::new(rows))),
                                None => {
                                    // Bucket refused to columnize: flatten its
                                    // contributions (same record order as the
                                    // row shuffle) and hash-join row-wise.
                                    let mut l = Vec::new();
                                    for b in &lb[j] {
                                        l.extend(b.to_values());
                                    }
                                    let mut r = Vec::new();
                                    for b in &rb[j] {
                                        r.extend(b.to_values());
                                    }
                                    Ok(batch::Part::Rows(Arc::new(kernels::hash_join(
                                        &l, &r, left_key, right_key,
                                    ))))
                                }
                            }
                        })?;
                        parts = out;
                        virtual_ms += profile.net_ms(bytes) + profile.parallel_ms(&t);
                    } else {
                        let lrows = batch::rows_of(&parts);
                        let rrows = batch::rows_of(&right);
                        if batched {
                            let total: u64 =
                                lrows.iter().chain(rrows.iter()).map(|d| d.len() as u64).sum();
                            let why = if left_key.spec.is_none() || right_key.spec.is_none() {
                                Fallback::OpaqueKey
                            } else {
                                Fallback::RowInput
                            };
                            ctx.report_exchange_fallback(total, why);
                        }
                        let (le, b1) = shuffle(&lrows, left_key, n);
                        let (re, b2) = shuffle(&rrows, right_key, n);
                        shuffle_event(ctx, "Join", b1 + b2, n);
                        let (out, t) = par_each(&le, workers, |i, d| {
                            Ok(kernels::hash_join(d, &re[i], left_key, right_key))
                        })?;
                        parts = batch::into_row_parts(out);
                        virtual_ms += profile.net_ms(b1 + b2) + profile.parallel_ms(&t);
                    }
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                }
                LogicalOp::Cartesian | LogicalOp::InequalityJoin { .. } => {
                    let start = Instant::now();
                    let right = self.input_partitions(&inputs[1], profile.partitions)?;
                    let right_all = Arc::new(flatten_parts(&right));
                    let bytes = dataset_bytes(&right_all) * parts.len() as f64 * 0.9;
                    let rows = batch::rows_of(&parts);
                    let (out, t) = par_each(&rows, workers, |_i, d| {
                        Ok(match op {
                            LogicalOp::Cartesian => kernels::cartesian(d, &right_all),
                            LogicalOp::InequalityJoin { conds } => {
                                kernels::ineq_join_nested(d, &right_all, conds)
                            }
                            _ => unreachable!(),
                        })
                    })?;
                    parts = batch::into_row_parts(out);
                    virtual_ms += profile.net_ms(bytes) + profile.parallel_ms(&t);
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                    let out_bytes: f64 = parts.iter().map(|p| dataset_bytes(&p.rows())).sum();
                    ctx.check_mem(ids::SPARK, out_bytes)?;
                }
                LogicalOp::PageRank { iterations, damping } => {
                    let start = Instant::now();
                    // Distributed PageRank: the shared kernel computes the
                    // result; per-iteration contribution shuffles and task
                    // dispatch are charged to the virtual clock.
                    let edges = flatten_parts(&batch::rows_of(&parts));
                    let t0 = Instant::now();
                    let ranks = pagerank_kernel(&edges, *iterations, *damping);
                    let compute_ms = t0.elapsed().as_secs_f64() * 1000.0;
                    let per_iter_bytes = dataset_bytes(&edges) * 0.5;
                    let n = parts.len();
                    virtual_ms += compute_ms * profile.cpu_scale / profile.cores.max(1) as f64
                        + *iterations as f64
                            * (profile.net_ms(per_iter_bytes)
                                + profile.task_overhead_ms * n as f64
                                    / profile.cores.max(1) as f64);
                    let chunk = ranks.len().div_ceil(n.max(1)).max(1);
                    parts = ranks
                        .chunks(chunk)
                        .map(|c| batch::Part::Rows(Arc::new(c.to_vec())))
                        .collect();
                    if parts.is_empty() {
                        parts.push(batch::Part::Rows(Arc::new(Vec::new())));
                    }
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                }
                LogicalOp::TextFileSource { path } => {
                    let start = Instant::now();
                    let (lines, read_ms) = read_text_parts(path, profile.partitions, workers)?;
                    parts = batch::into_row_parts(lines);
                    virtual_ms += read_ms
                        + profile.task_overhead_ms * parts.len() as f64
                            / profile.cores.max(1) as f64;
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                }
                other => {
                    return Err(RheemError::Unsupported(format!(
                        "Spark cannot execute {:?}",
                        other.kind()
                    )))
                }
            }
        }

        let out_card: u64 = parts.iter().map(|p| p.len() as u64).sum();
        ctx.record(OpMetrics {
            name: self.name.clone(),
            platform: ids::SPARK,
            in_card,
            out_card,
            virtual_ms,
            real_ms,
        });
        // Ship columns across the stage boundary when every partition stayed
        // columnar: the consumer maps them 1:1 back onto engine parts, so
        // partition counts (and hence trace structure) match the row mode.
        if batched && !parts.is_empty() {
            if let Some(bs) = batch::all_batches(&parts) {
                let owned: Vec<batch::Batch> = bs.into_iter().cloned().collect();
                return Ok(ChannelData::BatchParts(Arc::new(owned)));
            }
        }
        Ok(ChannelData::Partitions(Arc::new(batch::rows_of(&parts))))
    }
}

/// The standard damped power-iteration PageRank kernel (identical results
/// on every platform simulacrum).
pub fn pagerank_kernel(edges: &[Value], iterations: u32, damping: f64) -> Vec<Value> {
    use std::collections::{HashMap, HashSet};
    let mut out_deg: HashMap<i64, f64> = HashMap::new();
    let mut incoming: HashMap<i64, Vec<i64>> = HashMap::new();
    let mut vertices: Vec<i64> = Vec::new();
    let mut seen = HashSet::new();
    for e in edges {
        let (s, d) = (e.field(0).as_int().unwrap_or(0), e.field(1).as_int().unwrap_or(0));
        *out_deg.entry(s).or_default() += 1.0;
        incoming.entry(d).or_default().push(s);
        for v in [s, d] {
            if seen.insert(v) {
                vertices.push(v);
            }
        }
    }
    let n = vertices.len().max(1) as f64;
    let mut rank: HashMap<i64, f64> = vertices.iter().map(|&v| (v, 1.0 / n)).collect();
    for _ in 0..iterations {
        let mut next = HashMap::with_capacity(rank.len());
        for &v in &vertices {
            let sum: f64 = incoming
                .get(&v)
                .map(|srcs| srcs.iter().map(|s| rank[s] / out_deg[s]).sum())
                .unwrap_or(0.0);
            next.insert(v, (1.0 - damping) / n + damping * sum);
        }
        rank = next;
    }
    vertices.iter().map(|&v| Value::pair(Value::from(v), Value::from(rank[&v]))).collect()
}

// ---------------------------------------------------------------------------
// Conversion operators
// ---------------------------------------------------------------------------

/// `RDD -> cached RDD` (Fig. 3(b)'s Cache operator): makes the channel
/// reusable for multiple consumers / loop iterations.
pub struct SparkCache;

impl ExecutionOperator for SparkCache {
    fn name(&self) -> &str {
        "SparkCache"
    }
    fn platform(&self) -> PlatformId {
        ids::SPARK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![RDD]
    }
    fn output_kind(&self) -> ChannelKind {
        RDD_CACHED
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "spark", "cache", c, 0.0, 30.0, 5_000.0),
            mem_bytes: c * avg_bytes,
            tasks: partition_count(c as usize, 80) as u32,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.transfer_gate(ids::SPARK, self.name())?;
        // Columnar stage outputs cache as-is (zero-copy Arc bump): consumers
        // get the same 1:1 batch partitions the uncached channel carries.
        let (out, bytes) = match &inputs[0] {
            ChannelData::BatchParts(bs) => {
                let bytes: f64 = bs.iter().map(batch::batch_bytes).sum();
                (ChannelData::BatchParts(Arc::clone(bs)), bytes)
            }
            _ => {
                let parts = inputs[0].as_partitions()?.clone();
                let bytes: f64 = parts.iter().map(|p| dataset_bytes(p)).sum();
                (ChannelData::Partitions(parts), bytes)
            }
        };
        ctx.check_mem(ids::SPARK, bytes)?;
        let card = inputs[0].cardinality().unwrap_or(0) as u64;
        ctx.record(OpMetrics {
            name: "SparkCache".into(),
            platform: ids::SPARK,
            in_card: card,
            out_card: card,
            virtual_ms: 0.2 + bytes / 1e9,
            real_ms: 0.0,
        });
        Ok(out)
    }
}

/// A cached RDD serves anywhere a plain RDD is accepted (zero-cost view).
pub struct SparkUncache;

impl ExecutionOperator for SparkUncache {
    fn name(&self) -> &str {
        "SparkUncache"
    }
    fn platform(&self) -> PlatformId {
        ids::SPARK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![RDD_CACHED]
    }
    fn output_kind(&self) -> ChannelKind {
        RDD
    }
    fn load(&self, _in: &[f64], _b: f64, _m: &CostModel) -> Load {
        Load::default()
    }
    fn execute(
        &self,
        _ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        Ok(inputs[0].clone())
    }
}

/// `RDD -> driver collection` (`RDD.collect()`, which the paper found faster
/// than `toLocalIterator`).
pub struct SparkCollect;

impl ExecutionOperator for SparkCollect {
    fn name(&self) -> &str {
        "SparkCollect"
    }
    fn platform(&self) -> PlatformId {
        ids::SPARK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![RDD, RDD_CACHED]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "spark", "collect", c, 0.0, 60.0, 10_000.0),
            net_bytes: c * avg_bytes * 0.9,
            tasks: 1,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.transfer_gate(ids::SPARK, self.name())?;
        let data = inputs[0].flatten()?;
        let profile = ctx.profile(ids::SPARK);
        let net = profile.net_ms(dataset_bytes(&data) * 0.9);
        ctx.record(OpMetrics {
            name: "SparkCollect".into(),
            platform: ids::SPARK,
            in_card: data.len() as u64,
            out_card: data.len() as u64,
            virtual_ms: net + 0.5,
            real_ms: 0.0,
        });
        Ok(ChannelData::Collection(data))
    }
}

/// `driver collection -> RDD` (`sc.parallelize`).
pub struct SparkParallelize;

impl ExecutionOperator for SparkParallelize {
    fn name(&self) -> &str {
        "SparkParallelize"
    }
    fn platform(&self) -> PlatformId {
        ids::SPARK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        RDD
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "spark", "parallelize", c, 0.0, 50.0, 10_000.0),
            net_bytes: c * avg_bytes * 0.9,
            tasks: 1,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.transfer_gate(ids::SPARK, self.name())?;
        let profile = ctx.profile(ids::SPARK);
        // Already-partitioned handoffs pass through by Arc — no flatten +
        // re-chunk round trip through a fresh Vec.
        let (parts, card, bytes) = match &inputs[0] {
            ChannelData::Partitions(p) => {
                let card: usize = p.iter().map(|d| d.len()).sum();
                let bytes: f64 = p.iter().map(|d| dataset_bytes(d)).sum();
                (Arc::clone(p), card, bytes)
            }
            other => {
                let data = other.flatten()?;
                let n = partition_count(data.len(), profile.partitions);
                let chunk = data.len().div_ceil(n).max(1);
                let parts: Vec<Dataset> = if n <= 1 {
                    // Single partition: share the driver's Arc outright.
                    vec![Arc::clone(&data)]
                } else {
                    data.chunks(chunk).map(|c| Arc::new(c.to_vec())).collect()
                };
                let parts = if parts.is_empty() { vec![Arc::new(Vec::new())] } else { parts };
                let (card, bytes) = (data.len(), dataset_bytes(&data));
                (Arc::new(parts), card, bytes)
            }
        };
        let net = profile.net_ms(bytes * 0.9);
        ctx.record(OpMetrics {
            name: "SparkParallelize".into(),
            platform: ids::SPARK,
            in_card: card as u64,
            out_card: card as u64,
            virtual_ms: net + 0.5,
            real_ms: 0.0,
        });
        Ok(ChannelData::Partitions(parts))
    }
}

/// `RDD -> HDFS file` (`saveAsTextFile`): used when downstream platforms
/// read from the file system, and by the Musketeer baseline which
/// materializes between every stage.
pub struct SparkSaveTextFile {
    dir: std::path::PathBuf,
    counter: AtomicUsize,
}

impl SparkSaveTextFile {
    /// Writer into a scratch directory; each execution gets a fresh file.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        Self { dir: dir.into(), counter: AtomicUsize::new(0) }
    }
}

impl ExecutionOperator for SparkSaveTextFile {
    fn name(&self) -> &str {
        "SparkSaveTextFile"
    }
    fn platform(&self) -> PlatformId {
        ids::SPARK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![RDD, RDD_CACHED]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::HDFS_FILE
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "spark", "savetext", c, 0.0, 220.0, 15_000.0),
            disk_bytes: c * avg_bytes,
            tasks: partition_count(c as usize, 80) as u32,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.transfer_gate(ids::SPARK, self.name())?;
        let data = inputs[0].flatten()?;
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        let path =
            std::path::PathBuf::from(format!("hdfs://{}/part-{id:05}.txt", self.dir.display()));
        let bytes = rheem_storage::write_lines(&path, data.iter().map(|v| v.to_string()))
            .map_err(RheemError::Io)?;
        let write_ms = rheem_storage::default_costs(rheem_storage::StoreKind::Hdfs).write_ms(bytes);
        ctx.record(OpMetrics {
            name: "SparkSaveTextFile".into(),
            platform: ids::SPARK,
            in_card: data.len() as u64,
            out_card: data.len() as u64,
            virtual_ms: write_ms,
            real_ms: 0.0,
        });
        Ok(ChannelData::File(Arc::new(path)))
    }
}

/// `file -> RDD` (`sc.textFile` over an existing file channel).
pub struct SparkReadTextFile;

impl ExecutionOperator for SparkReadTextFile {
    fn name(&self) -> &str {
        "SparkReadTextFile"
    }
    fn platform(&self) -> PlatformId {
        ids::SPARK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::HDFS_FILE, kinds::LOCAL_FILE]
    }
    fn output_kind(&self) -> ChannelKind {
        RDD
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "spark", "readtext", c, 0.0, 260.0, 15_000.0),
            disk_bytes: c * avg_bytes,
            tasks: partition_count(c as usize, 80) as u32,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.transfer_gate(ids::SPARK, self.name())?;
        let path = inputs[0].as_file()?.clone();
        let profile = ctx.profile(ids::SPARK);
        let (parts, read_ms) = read_text_parts(&path, profile.partitions, pool_size(profile))?;
        let out_card: u64 = parts.iter().map(|p| p.len() as u64).sum();
        ctx.record(OpMetrics {
            name: "SparkReadTextFile".into(),
            platform: ids::SPARK,
            in_card: 0,
            out_card,
            virtual_ms: read_ms,
            real_ms: 0.0,
        });
        Ok(ChannelData::Partitions(Arc::new(parts)))
    }
}

/// Operator kinds Spark implements (everything JavaStreams has, plus the
/// parallel text source; loops stay with the driver).
pub fn supported(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::Map
            | OpKind::FlatMap
            | OpKind::Filter
            | OpKind::Project
            | OpKind::SargFilter
            | OpKind::Sample
            | OpKind::SortBy
            | OpKind::Distinct
            | OpKind::Count
            | OpKind::GroupBy
            | OpKind::Reduce
            | OpKind::ReduceBy
            | OpKind::Union
            | OpKind::Join
            | OpKind::Cartesian
            | OpKind::InequalityJoin
            | OpKind::PageRank
            | OpKind::TextFileSource
    )
}

impl Platform for SparkPlatform {
    fn id(&self) -> PlatformId {
        ids::SPARK
    }

    fn register(&self, registry: &mut Registry) {
        registry.add_channel(ChannelDescriptor { kind: RDD, reusable: false });
        registry.add_channel(ChannelDescriptor { kind: RDD_CACHED, reusable: true });
        registry.add_conversion(RDD, RDD_CACHED, Arc::new(SparkCache));
        registry.add_conversion(RDD_CACHED, RDD, Arc::new(SparkUncache));
        registry.add_conversion(RDD, kinds::COLLECTION, Arc::new(SparkCollect));
        registry.add_conversion(RDD_CACHED, kinds::COLLECTION, Arc::new(SparkCollect));
        registry.add_conversion(kinds::COLLECTION, RDD, Arc::new(SparkParallelize));
        registry.add_conversion(
            RDD,
            kinds::HDFS_FILE,
            Arc::new(SparkSaveTextFile::new("spark_scratch")),
        );
        registry.add_conversion(kinds::HDFS_FILE, RDD, Arc::new(SparkReadTextFile));
        registry.add_conversion(kinds::LOCAL_FILE, RDD, Arc::new(SparkReadTextFile));

        // 1-to-1 mappings.
        registry.add_mapping(Arc::new(FnMapping(|_plan: &RheemPlan, node: &OperatorNode| {
            if !supported(node.op.kind()) {
                return vec![];
            }
            vec![Candidate::single(
                node.id,
                Arc::new(SparkOperator::new(vec![node.op.clone()])) as _,
            )]
        })));
        // Narrow-chain fusion (stage pipelining).
        registry.add_mapping(Arc::new(FnMapping(|plan: &RheemPlan, node: &OperatorNode| {
            let fusable = |n: &OperatorNode| fused::fusable(&n.op);
            if !fusable(node) {
                return vec![];
            }
            let chain = upstream_chain(plan, node, fusable);
            if chain.len() < 2 {
                return vec![];
            }
            let ops: Vec<LogicalOp> = chain.iter().map(|&id| plan.node(id).op.clone()).collect();
            vec![Candidate { covers: chain, exec: Arc::new(SparkOperator::new(ops)) as _ }]
        })));
        // Narrow-chain fusion *into* a terminal ReduceBy: the chain runs
        // inside the map-side combine, streaming survivors straight into the
        // per-partition hash accumulator (fused terminal aggregation) — the
        // narrow output is never materialized before the combine.
        registry.add_mapping(Arc::new(FnMapping(|plan: &RheemPlan, node: &OperatorNode| {
            if node.op.kind() != OpKind::ReduceBy {
                return vec![];
            }
            let chain = upstream_chain(plan, node, |n| fused::fusable(&n.op) || n.id == node.id);
            if chain.len() < 2 {
                return vec![];
            }
            let ops: Vec<LogicalOp> = chain.iter().map(|&id| plan.node(id).op.clone()).collect();
            vec![Candidate { covers: chain, exec: Arc::new(SparkOperator::new(ops)) as _ }]
        })));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::api::RheemContext;
    use rheem_core::plan::PlanBuilder;
    use rheem_core::udf::{FlatMapUdf, MapUdf, ReduceUdf};

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(&SparkPlatform::new())
    }

    fn sum_udf() -> ReduceUdf {
        ReduceUdf::new("sum", |a, b| {
            Value::pair(
                a.field(0).clone(),
                Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
            )
        })
    }

    #[test]
    fn wordcount_on_spark_only() {
        let mut b = PlanBuilder::new();
        let sink = b
            .collection(vec![Value::from("x y x"), Value::from("y x z")])
            .flat_map(FlatMapUdf::new("split", |v| {
                v.as_str().unwrap().split_whitespace().map(Value::from).collect()
            }))
            .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
            .reduce_by_key(KeyUdf::field(0), sum_udf())
            .collect();
        let plan = b.build().unwrap();
        let result = ctx().execute(&plan).unwrap();
        let data = result.sink(sink).unwrap();
        assert_eq!(data.len(), 3);
        let x = data.iter().find(|v| v.field(0).as_str() == Some("x")).unwrap();
        assert_eq!(x.field(1).as_int(), Some(3));
        // Spark overhead shows up in virtual time (startup + stages).
        assert!(result.metrics.virtual_ms > 1000.0, "{}", result.metrics.virtual_ms);
    }

    #[test]
    fn shuffle_preserves_all_records() {
        let parts: Vec<Dataset> = (0..4)
            .map(|p| {
                Arc::new(
                    (0..100i64)
                        .map(|i| Value::pair(Value::from(i % 7), Value::from(p * 100 + i)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let (exchanged, bytes) = shuffle(&parts, &KeyUdf::field(0), 4);
        assert_eq!(exchanged.iter().map(|p| p.len()).sum::<usize>(), 400);
        assert!(bytes > 0.0);
        // same key never splits across partitions
        for key in 0..7i64 {
            let holders = exchanged
                .iter()
                .filter(|p| p.iter().any(|v| v.field(0).as_int() == Some(key)))
                .count();
            assert_eq!(holders, 1, "key {key}");
        }
    }

    #[test]
    fn join_matches_expected_cardinality() {
        let mut b = PlanBuilder::new();
        let left = b.collection(
            (0..50i64).map(|i| Value::pair(Value::from(i % 5), Value::from(i))).collect::<Vec<_>>(),
        );
        let right = b.collection(
            (0..20i64)
                .map(|i| Value::pair(Value::from(i % 5), Value::from(100 + i)))
                .collect::<Vec<_>>(),
        );
        let sink = left.join(&right, KeyUdf::field(0), KeyUdf::field(0)).collect();
        let plan = b.build().unwrap();
        let result = ctx().execute(&plan).unwrap();
        // 50 left rows × 4 matches each
        assert_eq!(result.sink(sink).unwrap().len(), 200);
    }

    #[test]
    fn sort_produces_global_order() {
        let mut b = PlanBuilder::new();
        let sink = b
            .collection((0..500i64).rev().map(Value::from).collect::<Vec<_>>())
            .sort_by(KeyUdf::identity())
            .collect();
        let plan = b.build().unwrap();
        let result = ctx().execute(&plan).unwrap();
        let data = result.sink(sink).unwrap();
        assert_eq!(data.len(), 500);
        assert!(data.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn partition_count_scales() {
        assert_eq!(partition_count(100, 80), 1);
        assert!(partition_count(1_000_000, 80) > 1);
        assert!(partition_count(100_000_000, 80) <= 80);
    }

    #[test]
    fn cache_rejects_over_memory() {
        let mut profiles = rheem_core::platform::Profiles::bare();
        profiles.get_mut(ids::SPARK).mem_mb = 0.0001;
        let mut ecx = ExecCtx::new(&profiles, 0);
        let parts = ChannelData::Partitions(Arc::new(vec![Arc::new(
            (0..10_000i64).map(Value::from).collect::<Vec<_>>(),
        )]));
        let r = SparkCache.execute(&mut ecx, &[parts], &BroadcastCtx::new());
        assert!(r.is_err());
    }

    #[test]
    fn collect_and_parallelize_roundtrip() {
        let profiles = rheem_core::platform::Profiles::paper_testbed();
        let mut ecx = ExecCtx::new(&profiles, 0);
        let coll =
            ChannelData::Collection(Arc::new((0..1000i64).map(Value::from).collect::<Vec<_>>()));
        let rdd = SparkParallelize.execute(&mut ecx, &[coll], &BroadcastCtx::new()).unwrap();
        assert_eq!(rdd.cardinality(), Some(1000));
        let back = SparkCollect.execute(&mut ecx, &[rdd], &BroadcastCtx::new()).unwrap();
        assert_eq!(back.flatten().unwrap().len(), 1000);
    }

    #[test]
    fn pagerank_runs_distributed() {
        let mut b = PlanBuilder::new();
        let edges: Vec<Value> = (0..100i64)
            .map(|i| Value::pair(Value::from(i % 10), Value::from((i + 1) % 10)))
            .collect();
        let sink = b.collection(edges).page_rank(5, 0.85).collect();
        let plan = b.build().unwrap();
        let result = ctx().execute(&plan).unwrap();
        let ranks = result.sink(sink).unwrap();
        assert_eq!(ranks.len(), 10);
        let total: f64 = ranks.iter().map(|r| r.field(1).as_f64().unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }
}
