//! Flink platform simulacrum: a partitioned batch engine with **operator
//! chaining** — fused narrow pipelines execute in a single pass per
//! partition with no intermediate materialization — lower job-submission
//! overhead than Spark, and cheap (native) iterations (§6's `Flink`).
//!
//! The per-iteration advantage the paper observes (e.g. CrocoPR's
//! preparation phase, Fig. 9(f)) emerges from the profile's lower
//! stage/task overheads: the executor re-dispatches loop-body stages every
//! iteration, so cheaper stages compound across iterations.

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
    bucket_bytes, bucketize, exchange, flatten_parts, par_each, par_each_idx, partition_count,
    pool_size, read_text_parts, reduce_exchange, shipped,
};
use rheem_core::plan::{LogicalOp, OpKind, OperatorNode, RheemPlan, SampleSize};
use rheem_core::platform::{ids, Platform, PlatformId};
use rheem_core::registry::Registry;
use rheem_core::udf::{BroadcastCtx, KeyUdf};
use rheem_core::value::{Dataset, Value};

/// Flink's pipelined DataSet channel (consumed once).
pub const DATASET: ChannelKind = ChannelKind("flink.dataset");

/// The Flink platform.
#[derive(Default)]
pub struct FlinkPlatform;

impl FlinkPlatform {
    /// Create the platform.
    pub fn new() -> Self {
        Self
    }
}

/// Per-quantum cycle costs on Flink: cheaper narrow operators than Spark
/// (chaining, managed memory), comparable wide operators, costlier global
/// sort (range partition + merge).
fn default_alpha(kind: OpKind) -> f64 {
    match kind {
        OpKind::Map => 170.0,
        OpKind::FlatMap => 260.0,
        OpKind::Filter | OpKind::SargFilter => 140.0,
        OpKind::Project => 100.0,
        OpKind::Sample => 80.0,
        OpKind::SortBy => 1_100.0,
        OpKind::Distinct => 460.0,
        OpKind::Count => 35.0,
        OpKind::GroupBy => 600.0,
        OpKind::Reduce => 240.0,
        OpKind::ReduceBy => 500.0,
        OpKind::Union => 50.0,
        OpKind::Join => 640.0,
        OpKind::Cartesian => 130.0,
        OpKind::InequalityJoin => 160.0,
        OpKind::PageRank => 850.0,
        OpKind::TextFileSource => 230.0,
        _ => 120.0,
    }
}

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

/// A Flink execution operator: a pipelined chain of narrow operators ending
/// in at most one wide operator, executed per partition in a single pass.
pub struct FlinkOperator {
    ops: Vec<LogicalOp>,
    name: String,
}

impl FlinkOperator {
    /// Wrap a chain of logical operators.
    pub fn new(ops: Vec<LogicalOp>) -> Self {
        let name = match ops.as_slice() {
            [single] => format!("Flink{:?}", single.kind()),
            // A chain ending in a wide operator names its tail so monitor
            // logs still show what the stage aggregates into.
            [head @ .., last] if !fused::fusable(last) => {
                format!("FlinkChain{}\u{2218}{:?}", head.len(), last.kind())
            }
            _ => format!("FlinkChain{}", ops.len()),
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
                "flink operator expects a DataSet, found {other:?}"
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

impl ExecutionOperator for FlinkOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn platform(&self) -> PlatformId {
        ids::FLINK
    }

    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![DATASET]
    }

    fn output_kind(&self) -> ChannelKind {
        DATASET
    }

    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c_in: f64 = in_cards.iter().sum();
        let mut cycles = 0.0;
        let mut net_bytes = 0.0;
        let mut card = c_in;
        let mut after_fused = false;
        let mut after_vectorized = false;
        for (si, seg) in fused::segment_chain(&self.ops).into_iter().enumerate() {
            let delta = if si == 0 { 12_000.0 } else { 0.0 };
            match seg {
                // A chained run pays its submission δ once plus one
                // per-tuple term with the summed step cost.
                Segment::Fused { pipeline, .. } if pipeline.len() > 1 => {
                    // Static vectorization discount: recognized chains run on
                    // typed column slices. Keys off the plan only, never the
                    // RHEEM_BATCH runtime switch, so plan choice is
                    // mode-independent.
                    let alpha = if pipeline.vectorizable() { 170.0 * 0.55 } else { 170.0 };
                    cycles += linear_cpu(
                        model,
                        "flink",
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
                card * 11.0
            } else {
                card
            };
            // A ReduceBy chained behind a fused run combines inside the
            // pipeline pass (fused terminal aggregation): no materialized
            // chained output, no input re-scan.
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
                "flink",
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
        ctx.fault_gate(ids::FLINK, self.name())?;
        let profile = ctx.profile(ids::FLINK).clone();
        let workers = pool_size(&profile);
        let seed = ctx.seed;
        let iteration = ctx.iteration;
        let batched = ctx.batch();

        if !bc.is_empty() {
            let bytes: f64 = bc.total_quanta() as f64 * 24.0;
            ctx.add_virtual_ms(profile.net_ms(bytes * 10.0) + 0.5);
        }

        let mut parts: Vec<batch::Part> = if self.ops[0].kind().is_source() {
            Vec::new()
        } else {
            self.input_parts(&inputs[0], profile.partitions)?
        };
        let in_card: u64 = parts.iter().map(|p| p.len() as u64).sum::<u64>()
            + inputs.get(1).and_then(|c| c.cardinality()).unwrap_or(0) as u64;
        let n_parts = parts.len();
        ctx.trace_event("flink.vertex", || {
            vec![
                ("workers".to_string(), workers.into()),
                ("partitions".to_string(), n_parts.into()),
                ("in_card".to_string(), in_card.into()),
            ]
        });
        let mut virtual_ms = 0.0;
        let mut real_ms = 0.0;

        // Execute operator-chained (fused) runs in one pipelined pass per
        // partition; wide/special operators stand alone between them.
        let segs = fused::segment_chain(&self.ops);
        let mut si = 0;
        while si < segs.len() {
            let seg = &segs[si];
            si += 1;
            if let Segment::Fused { pipeline, .. } = seg {
                // Fused terminal aggregation: a chain ending the job-vertex
                // pipeline in a ReduceBy streams survivors straight into the
                // per-partition combine accumulator — the chained output is
                // never materialized before the combine.
                if let Some(Segment::Single { op: LogicalOp::ReduceBy { key, agg }, .. }) =
                    segs.get(si)
                {
                    si += 1;
                    let start = Instant::now();
                    // Per-partition combine over typed columns when both the
                    // chain and aggregation are recognized; partitions whose
                    // runtime types refuse to columnize fall back individually.
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
                        |_, _, _| {},
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
                    let (out, times) = par_each(&rows, workers, |pi, data| {
                        let share =
                            if total == 0 { 0 } else { (want * data.len()).div_ceil(total.max(1)) };
                        Ok(kernels::sample(
                            data,
                            *method,
                            SampleSize::Count(share),
                            base_seed.wrapping_add(pi as u64),
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
                LogicalOp::ReduceBy { key, agg } => {
                    let start = Instant::now();
                    // Map-side combine into (key, acc) partials; columnar
                    // inputs combine through the slot-array kernel and keep
                    // their (key, sum) batch for the exchange.
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
                        |_, _, _| {},
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
                    let (ex, bytes) = exchange(&rows, key, n);
                    let (out, t) = par_each(&ex, workers, |_i, d| Ok(kernels::group_by(d, key)))?;
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
                    let (ex, bytes) = exchange(&rows, &KeyUdf::identity(), n);
                    let (out, t) = par_each(&ex, workers, |_i, d| Ok(kernels::distinct(d)))?;
                    parts = batch::into_row_parts(out);
                    virtual_ms += profile.net_ms(bytes) + profile.parallel_ms(&t);
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                }
                LogicalOp::SortBy(key) => {
                    let start = Instant::now();
                    let n = parts.len();
                    // Columnar path: per-partition batch sort (selection
                    // vector permutation), then a k-way merge that re-chunks
                    // exactly like the row path.
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
                    let total: usize = parts.iter().map(|p| p.len()).sum();
                    parts = vec![batch::Part::Rows(Arc::new(vec![Value::from(total)]))];
                    virtual_ms += profile.task_overhead_ms;
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
                    // row exchange + hash join exactly.
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
                        let (sl, rl) = shipped(&lb);
                        let (sr, rr) = shipped(&rb);
                        ctx.report_exchange(sl + sr, rl + rr);
                        let (out, t) = par_each_idx(lb.len(), workers, |j| {
                            match batch::join_buckets(&lb[j], &rb[j], &lks, &rks) {
                                Some(rows) => Ok(batch::Part::Rows(Arc::new(rows))),
                                None => {
                                    // Bucket refused to columnize: flatten its
                                    // contributions (same record order as the
                                    // row exchange) and hash-join row-wise.
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
                        let (le, b1) = exchange(&lrows, left_key, n);
                        let (re, b2) = exchange(&rrows, right_key, n);
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
                    ctx.check_mem(ids::FLINK, out_bytes)?;
                }
                LogicalOp::PageRank { iterations, damping } => {
                    let start = Instant::now();
                    let edges = flatten_parts(&batch::rows_of(&parts));
                    let t0 = Instant::now();
                    let ranks = platform_spark_free_pagerank(&edges, *iterations, *damping);
                    let compute_ms = t0.elapsed().as_secs_f64() * 1000.0;
                    // Flink's delta iterations ship only changed state:
                    // cheaper per-iteration exchange than Spark's full
                    // contribution shuffle.
                    let per_iter_bytes = dataset_bytes(&edges) * 0.25;
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
                        "Flink cannot execute {:?}",
                        other.kind()
                    )))
                }
            }
        }

        let out_card: u64 = parts.iter().map(|p| p.len() as u64).sum();
        ctx.record(OpMetrics {
            name: self.name.clone(),
            platform: ids::FLINK,
            in_card,
            out_card,
            virtual_ms,
            real_ms,
        });
        // Ship columns across the vertex boundary when every partition stayed
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

fn platform_spark_free_pagerank(edges: &[Value], iterations: u32, damping: f64) -> Vec<Value> {
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

/// `DataSet -> driver collection` (`DataSet.collect()`).
pub struct FlinkCollect;

impl ExecutionOperator for FlinkCollect {
    fn name(&self) -> &str {
        "FlinkCollect"
    }
    fn platform(&self) -> PlatformId {
        ids::FLINK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![DATASET]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "flink", "collect", c, 0.0, 60.0, 8_000.0),
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
        ctx.transfer_gate(ids::FLINK, self.name())?;
        let data = inputs[0].flatten()?;
        let profile = ctx.profile(ids::FLINK);
        let net = profile.net_ms(dataset_bytes(&data) * 0.9);
        ctx.record(OpMetrics {
            name: "FlinkCollect".into(),
            platform: ids::FLINK,
            in_card: data.len() as u64,
            out_card: data.len() as u64,
            virtual_ms: net + 0.4,
            real_ms: 0.0,
        });
        Ok(ChannelData::Collection(data))
    }
}

/// `driver collection -> DataSet` (`env.fromCollection`).
pub struct FlinkFromCollection;

impl ExecutionOperator for FlinkFromCollection {
    fn name(&self) -> &str {
        "FlinkFromCollection"
    }
    fn platform(&self) -> PlatformId {
        ids::FLINK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        DATASET
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "flink", "fromcollection", c, 0.0, 50.0, 8_000.0),
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
        ctx.transfer_gate(ids::FLINK, self.name())?;
        let profile = ctx.profile(ids::FLINK);
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
            name: "FlinkFromCollection".into(),
            platform: ids::FLINK,
            in_card: card as u64,
            out_card: card as u64,
            virtual_ms: net + 0.4,
            real_ms: 0.0,
        });
        Ok(ChannelData::Partitions(parts))
    }
}

/// `file -> DataSet` (`env.readTextFile`).
pub struct FlinkReadTextFile;

impl ExecutionOperator for FlinkReadTextFile {
    fn name(&self) -> &str {
        "FlinkReadTextFile"
    }
    fn platform(&self) -> PlatformId {
        ids::FLINK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::HDFS_FILE, kinds::LOCAL_FILE]
    }
    fn output_kind(&self) -> ChannelKind {
        DATASET
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "flink", "readtext", c, 0.0, 230.0, 12_000.0),
            disk_bytes: c * avg_bytes,
            tasks: 8,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.transfer_gate(ids::FLINK, self.name())?;
        let path = inputs[0].as_file()?.clone();
        let profile = ctx.profile(ids::FLINK);
        let (parts, read_ms) = read_text_parts(&path, profile.partitions, pool_size(profile))?;
        let out_card: u64 = parts.iter().map(|p| p.len() as u64).sum();
        ctx.record(OpMetrics {
            name: "FlinkReadTextFile".into(),
            platform: ids::FLINK,
            in_card: 0,
            out_card,
            virtual_ms: read_ms,
            real_ms: 0.0,
        });
        Ok(ChannelData::Partitions(Arc::new(parts)))
    }
}

/// Operator kinds Flink implements.
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

impl Platform for FlinkPlatform {
    fn id(&self) -> PlatformId {
        ids::FLINK
    }

    fn register(&self, registry: &mut Registry) {
        registry.add_channel(ChannelDescriptor { kind: DATASET, reusable: false });
        registry.add_conversion(DATASET, kinds::COLLECTION, Arc::new(FlinkCollect));
        registry.add_conversion(kinds::COLLECTION, DATASET, Arc::new(FlinkFromCollection));
        registry.add_conversion(kinds::HDFS_FILE, DATASET, Arc::new(FlinkReadTextFile));
        registry.add_conversion(kinds::LOCAL_FILE, DATASET, Arc::new(FlinkReadTextFile));

        registry.add_mapping(Arc::new(FnMapping(|_plan: &RheemPlan, node: &OperatorNode| {
            if !supported(node.op.kind()) {
                return vec![];
            }
            vec![Candidate::single(
                node.id,
                Arc::new(FlinkOperator::new(vec![node.op.clone()])) as _,
            )]
        })));
        // Operator chaining: Flink fuses longer narrow chains and can end
        // them with one wide operator (the chain executes as one job
        // vertex pipeline).
        registry.add_mapping(Arc::new(FnMapping(|plan: &RheemPlan, node: &OperatorNode| {
            let narrow = |n: &OperatorNode| fused::fusable(&n.op);
            let wide_anchor =
                matches!(node.op.kind(), OpKind::ReduceBy | OpKind::GroupBy | OpKind::Distinct);
            let chain = if narrow(node) {
                upstream_chain(plan, node, narrow)
            } else if wide_anchor && node.inputs.len() == 1 && node.broadcasts.is_empty() {
                // A wide operator can terminate a chained pipeline: fuse
                // the narrow run feeding it (if it feeds only this op).
                let inp = plan.node(node.inputs[0]);
                let consumers = plan.consumers();
                if consumers[inp.id.index()].len() == 1
                    && narrow(inp)
                    && inp.loop_of == node.loop_of
                {
                    let mut c = upstream_chain(plan, inp, narrow);
                    c.push(node.id);
                    c
                } else {
                    return vec![];
                }
            } else {
                return vec![];
            };
            if chain.len() < 2 {
                return vec![];
            }
            let ops: Vec<LogicalOp> = chain.iter().map(|&id| plan.node(id).op.clone()).collect();
            vec![Candidate { covers: chain, exec: Arc::new(FlinkOperator::new(ops)) as _ }]
        })));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::api::RheemContext;
    use rheem_core::plan::PlanBuilder;
    use rheem_core::udf::{FlatMapUdf, MapUdf, PredicateUdf, ReduceUdf};

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(&FlinkPlatform::new())
    }

    #[test]
    fn wordcount_on_flink_only() {
        let mut b = PlanBuilder::new();
        let sink = b
            .collection(vec![Value::from("m n m"), Value::from("n m o")])
            .flat_map(FlatMapUdf::new("split", |v| {
                v.as_str().unwrap().split_whitespace().map(Value::from).collect()
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
        let plan = b.build().unwrap();
        let result = ctx().execute(&plan).unwrap();
        let data = result.sink(sink).unwrap();
        assert_eq!(data.len(), 3);
        let m = data.iter().find(|v| v.field(0).as_str() == Some("m")).unwrap();
        assert_eq!(m.field(1).as_int(), Some(3));
    }

    #[test]
    fn chained_pipeline_executes_in_one_pass() {
        // map -> filter -> map -> reduce_by fuses into one FlinkChain.
        let mut b = PlanBuilder::new();
        let sink = b
            .collection((0..200i64).map(Value::from).collect::<Vec<_>>())
            .map(MapUdf::new("inc", |v| Value::from(v.as_int().unwrap() + 1)))
            .filter(PredicateUdf::new("even", |v| v.as_int().unwrap() % 2 == 0))
            .map(MapUdf::new("mod", |v| {
                Value::pair(Value::from(v.as_int().unwrap() % 3), Value::from(1))
            }))
            .reduce_by_key(
                KeyUdf::field(0),
                ReduceUdf::new("cnt", |a, b| {
                    Value::pair(
                        a.field(0).clone(),
                        Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
                    )
                }),
            )
            .collect();
        let plan = b.build().unwrap();
        let c = ctx();
        let (opt, _) = c.compile(&plan).unwrap();
        // the reduce_by anchors a chain covering the three narrow ops + itself
        let reduce_choice = opt.choice[4];
        assert!(opt.candidates[reduce_choice].covers.len() >= 2);
        let result = c.execute(&plan).unwrap();
        let total: i64 =
            result.sink(sink).unwrap().iter().map(|v| v.field(1).as_int().unwrap()).sum();
        assert_eq!(total, 100); // 100 even numbers in 1..=200
    }

    #[test]
    fn flink_cheaper_than_spark_on_stage_overheads() {
        let p = rheem_core::platform::Profiles::paper_testbed();
        assert!(p.get(ids::FLINK).stage_overhead_ms < p.get(ids::SPARK).stage_overhead_ms);
    }

    #[test]
    fn join_works_on_flink() {
        let mut b = PlanBuilder::new();
        let l = b.collection(
            (0..30i64).map(|i| Value::pair(Value::from(i % 3), Value::from(i))).collect::<Vec<_>>(),
        );
        let r = b.collection(
            (0..6i64).map(|i| Value::pair(Value::from(i % 3), Value::from(i))).collect::<Vec<_>>(),
        );
        let sink = l.join(&r, KeyUdf::field(0), KeyUdf::field(0)).collect();
        let plan = b.build().unwrap();
        let result = ctx().execute(&plan).unwrap();
        assert_eq!(result.sink(sink).unwrap().len(), 60);
    }
}
