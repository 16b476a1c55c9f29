//! The chain operator of a partitioned engine: one logical operator, or a
//! narrow chain (optionally ending in one wide operator) executed per
//! partition in a single pass. Operators execute **for real** over
//! partitioned datasets (pool workers pull partitions off a shared queue);
//! the measured per-partition times are composed into *virtual cluster time*
//! via the platform profile's task-wave model, and exchanges and broadcasts
//! add network-transfer terms. A single-partition engine runs the same
//! segment loop over one partition, with no exchange and no network term
//! (see [`Engine::single_partition`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use super::{
    chain_cost, exchange, flatten_parts, input_partitions, input_parts, input_rows, par_each,
    par_each_idx, partition_count, pool_size, read_text_parts, reduce_exchange, routed_join,
    split_contiguous, Engine,
};
use crate::batch::{self, Batch, Part, VectorKernel};
use crate::channel::{ChannelData, ChannelKind};
use crate::cost::{CostModel, Load};
use crate::error::{Result, RheemError};
use crate::exec::{dataset_bytes, ExecCtx, ExecutionOperator, Fallback, OpMetrics};
use crate::fused::{self, Segment};
use crate::kernels;
use crate::plan::{LogicalOp, SampleSize};
use crate::platform::PlatformId;
use crate::udf::{BroadcastCtx, KeyUdf};
use crate::value::Value;

/// A dataflow engine's execution operator over a chain of logical
/// operators (narrow runs fuse; wide operators run between them).
pub struct Chain {
    engine: &'static Engine,
    ops: Vec<LogicalOp>,
    name: String,
}

impl Chain {
    /// Wrap a non-empty chain of logical operators, in dataflow order.
    pub fn new(engine: &'static Engine, ops: Vec<LogicalOp>) -> Self {
        let name = fused::chain_name(engine.label, &ops);
        Self { engine, ops, name }
    }
}

/// How one fused run fared across its partitions: those (and their rows)
/// the vector kernel took, and those whose runtime types refused to
/// columnize.
#[derive(Default)]
struct VecTally {
    rows: AtomicUsize,
    cols: AtomicUsize,
    fell: AtomicUsize,
}

impl VecTally {
    fn vectorized(&self, rows: usize) {
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.cols.fetch_add(1, Ordering::Relaxed);
    }

    fn fell_back(&self) {
        self.fell.fetch_add(1, Ordering::Relaxed);
    }

    /// Report a run of `steps` operators over `parts` partitions; without a
    /// compiled kernel every partition of a batched run fell back.
    fn report(self, ctx: &mut ExecCtx<'_>, steps: u32, compiled: bool, parts: usize) {
        let cols = self.cols.into_inner();
        if cols > 0 {
            ctx.report_vectorized(self.rows.into_inner() as u64, cols as u64, steps * cols as u32);
        }
        let fell = if compiled {
            self.fell.into_inner()
        } else if ctx.batch() {
            parts
        } else {
            0
        };
        if fell > 0 {
            ctx.report_row_fallback(steps * fell as u32);
        }
    }
}

/// Run a vector kernel over one partition: columnar inputs run over the
/// shipped batch directly, row inputs columnize first.
fn run_kernel(kernel: &VectorKernel, part: &Part) -> Option<Batch> {
    match part {
        Part::Cols(b) => kernel.run_batch(b.clone()),
        Part::Rows(d) => kernel.run_values(d),
    }
}

/// A wide operator with no columnar landing (SortBy, Join, GroupBy,
/// Distinct) materializes the columnar partitions it is handed: in batch mode
/// it reports those rows as an [`Fallback::OpaqueSegment`] exchange fallback.
/// Partitions that arrive as rows report nothing.
fn report_materialized(ctx: &mut ExecCtx<'_>, parts: &[Part]) {
    if !ctx.batch() || parts.iter().all(|p| p.as_batch().is_none()) {
        return;
    }
    let rows = parts.iter().filter_map(Part::as_batch).map(|b| b.selected_len() as u64).sum();
    ctx.report_exchange_fallback(rows, Fallback::OpaqueSegment);
}

impl ExecutionOperator for Chain {
    fn name(&self) -> &str {
        &self.name
    }

    fn platform(&self) -> PlatformId {
        self.engine.platform
    }

    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        self.engine.accepts.to_vec()
    }

    fn output_kind(&self) -> ChannelKind {
        self.engine.output
    }

    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let (cpu_cycles, net_bytes) =
            chain_cost(&self.engine.costs, &self.ops, in_cards, avg_bytes, model);
        if self.engine.single_partition {
            return Load::cpu(cpu_cycles);
        }
        let c_in: f64 = in_cards.iter().sum();
        Load {
            cpu_cycles,
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
        let engine = self.engine;
        ctx.fault_gate(engine.platform, &self.name)?;
        let profile = ctx.profile(engine.platform).clone();
        let workers = pool_size(&profile);
        let cores = profile.cores.max(1) as f64;
        let seed = ctx.seed;
        let iteration = ctx.iteration;
        let batched = ctx.batch();
        let land = |slot| {
            if engine.single_partition {
                return Ok(vec![Part::Rows(input_rows(&self.name, inputs, slot)?)]);
            }
            input_parts(&self.name, inputs, slot, profile.partitions)
        };

        // Broadcast variables ship once per executor node (~10 nodes).
        if !engine.single_partition && !bc.is_empty() {
            let bytes: f64 = bc.total_quanta() as f64 * 24.0;
            ctx.add_virtual_ms(profile.net_ms(bytes * 10.0) + engine.broadcast_ms);
        }

        let mut parts: Vec<Part> =
            if self.ops[0].kind().is_source() { Vec::new() } else { land(0)? };
        let in_card: u64 = parts.iter().map(|p| p.len() as u64).sum::<u64>()
            + inputs.get(1).and_then(|c| c.cardinality()).unwrap_or(0) as u64;
        if let Some(hook) = engine.on_stage {
            hook(ctx, workers, parts.len(), in_card);
        }
        let mut virtual_ms = 0.0;
        let mut real_ms = 0.0;

        let segs = fused::segment_chain(&self.ops);
        let mut si = 0;
        while si < segs.len() {
            let seg = &segs[si];
            si += 1;
            let start = Instant::now();
            let op = match seg {
                // ---- narrow transformations: the whole fused run traverses
                // each partition exactly once (pipelining made literal) ----
                Segment::Fused { pipeline, .. } => {
                    if let (Some(hook), true) = (engine.on_fused, pipeline.len() > 1) {
                        let terminal = matches!(
                            segs.get(si),
                            Some(Segment::Single { op: LogicalOp::ReduceBy { .. }, .. })
                        );
                        hook(ctx, pipeline.len(), terminal);
                    }
                    let vk = if batched { VectorKernel::compile(pipeline) } else { None };
                    let tally = VecTally::default();
                    // Fused terminal aggregation: a chain feeding a ReduceBy
                    // runs inside the map-side combine — pipeline survivors
                    // stream straight into each partition's hash accumulator,
                    // so the narrow output is never materialized. The combine
                    // runs over typed columns when both the chain and the
                    // aggregation are recognized; partitions whose runtime
                    // types refuse to columnize fall back individually.
                    if let Some(Segment::Single { op: LogicalOp::ReduceBy { key, agg }, .. }) =
                        segs.get(si)
                    {
                        si += 1;
                        let vk = vk.filter(|_| batch::agg_vectorizable(key, agg));
                        let (combined, t1) = par_each_idx(parts.len(), workers, |i| {
                            let part = &parts[i];
                            // One partition aggregates in one pass: its
                            // output is the result, not partials to exchange.
                            let once = engine.single_partition;
                            if let (Some(k), Some(spec)) = (vk.as_ref(), agg.spec.as_ref()) {
                                if once {
                                    let rows = part.rows();
                                    if let Some(out) = batch::run_reduce(k, &rows, key, agg, false)
                                    {
                                        tally.vectorized(part.len());
                                        return Ok(Part::Rows(Arc::new(out)));
                                    }
                                } else if let Some(cb) =
                                    run_kernel(k, part).and_then(|b| batch::combine_batch(&b, spec))
                                {
                                    tally.vectorized(part.len());
                                    return Ok(Part::Cols(cb));
                                }
                                tally.fell_back();
                            }
                            let mut state = kernels::ReduceByState::new(key, agg);
                            pipeline.run_each(&part.rows(), bc, |v| state.feed_owned(v));
                            let out = if once { state.finish() } else { state.finish_keyed() };
                            Ok(Part::Rows(Arc::new(out)))
                        })?;
                        tally.report(ctx, pipeline.len() as u32 + 1, vk.is_some(), parts.len());
                        if engine.single_partition {
                            parts = combined;
                            virtual_ms += profile.parallel_ms(&t1);
                            real_ms += t1.iter().sum::<f64>();
                            continue;
                        }
                        let (out, vms) = reduce_exchange(
                            engine,
                            "FusedReduceBy",
                            ctx,
                            &profile,
                            &combined,
                            agg,
                            batched,
                        )?;
                        parts = out;
                        virtual_ms += profile.parallel_ms(&t1) + vms;
                        real_ms += start.elapsed().as_secs_f64() * 1000.0;
                        continue;
                    }
                    let (out, times) = par_each_idx(parts.len(), workers, |i| {
                        let part = &parts[i];
                        if let Some(k) = vk.as_ref() {
                            if let Some(b) = run_kernel(k, part) {
                                tally.vectorized(part.len());
                                return Ok(Part::Cols(b));
                            }
                            tally.fell_back();
                        }
                        Ok(Part::Rows(Arc::new(pipeline.run(&part.rows(), bc))))
                    })?;
                    tally.report(ctx, pipeline.len() as u32, vk.is_some(), parts.len());
                    parts = out;
                    virtual_ms += profile.parallel_ms(&times);
                    real_ms += times.iter().sum::<f64>();
                    continue;
                }
                Segment::Single { op, .. } => *op,
            };
            if engine.single_partition {
                // The chain's first segment reads every slot; a later one
                // reads what the chain computed so far.
                let mut rows = batch::rows_of(&parts);
                if si == 1 {
                    for slot in 1..inputs.len() {
                        rows.push(input_rows(&self.name, inputs, slot)?);
                    }
                }
                let borrowed: Vec<&[Value]> = rows.iter().map(|d| d.as_slice()).collect();
                let out = kernels::apply(op, &borrowed, bc, seed, iteration)?;
                let ms = start.elapsed().as_secs_f64() * 1000.0;
                parts = vec![Part::Rows(Arc::new(out))];
                virtual_ms += profile.parallel_ms(&[ms]);
                real_ms += ms;
                continue;
            }
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
                            SampleSize::Count(share),
                            base_seed.wrapping_add(i as u64),
                        ))
                    })?;
                    parts = batch::into_row_parts(out);
                    virtual_ms += profile.parallel_ms(&times);
                    real_ms += times.iter().sum::<f64>();
                    continue;
                }
                LogicalOp::Union => {
                    parts.extend(land(1)?);
                    continue;
                }
                LogicalOp::Count => {
                    let total: usize = parts.iter().map(|p| p.len()).sum();
                    parts = vec![Part::Rows(Arc::new(vec![Value::from(total)]))];
                    virtual_ms += profile.task_overhead_ms * engine.count_tasks;
                    continue;
                }
                // ---- wide operators: exchange, then per-partition work ----
                LogicalOp::ReduceBy { key, agg } => {
                    // Map-side combine into (key, acc) partials; reduce-side
                    // merge on the carried key. Columnar inputs combine
                    // through the slot-array kernel and keep their
                    // (key, sum) batch for the exchange.
                    let vec_ok = batched && batch::agg_vectorizable(key, agg);
                    let (combined, t1) = par_each_idx(parts.len(), workers, |i| {
                        let part = &parts[i];
                        if let (true, Some(b), Some(spec)) =
                            (vec_ok, part.as_batch(), agg.spec.as_ref())
                        {
                            if let Some(cb) = batch::combine_batch(b, spec) {
                                return Ok(Part::Cols(cb));
                            }
                        }
                        Ok(Part::Rows(Arc::new(kernels::combine_by(&part.rows(), key, agg))))
                    })?;
                    let (out, vms) = reduce_exchange(
                        engine, "ReduceBy", ctx, &profile, &combined, agg, batched,
                    )?;
                    parts = out;
                    virtual_ms += profile.parallel_ms(&t1) + vms;
                }
                LogicalOp::GroupBy(_) | LogicalOp::Distinct => {
                    let identity = KeyUdf::identity();
                    let (key, label) = match op {
                        LogicalOp::GroupBy(key) => (key, "GroupBy"),
                        _ => (&identity, "Distinct"),
                    };
                    let n = parts.len();
                    report_materialized(ctx, &parts);
                    let rows = batch::rows_of(&parts);
                    let (exchanged, bytes) = exchange(&rows, key, n);
                    engine.exchanged(ctx, label, bytes, n);
                    let (out, t) = par_each(&exchanged, workers, |_i, d| {
                        Ok(match op {
                            LogicalOp::GroupBy(key) => kernels::group_by(d, key),
                            _ => kernels::distinct(d),
                        })
                    })?;
                    parts = batch::into_row_parts(out);
                    virtual_ms += profile.net_ms(bytes) + profile.parallel_ms(&t);
                }
                LogicalOp::SortBy(key) => {
                    // Sort partitions, then merge and re-split contiguously
                    // (range partitioning analogue).
                    let n = parts.len();
                    report_materialized(ctx, &parts);
                    let rows = batch::rows_of(&parts);
                    let (sorted, t) =
                        par_each(&rows, workers, |_i, d| Ok(kernels::sort_by(d, key)))?;
                    let all = kernels::sort_by(&flatten_parts(&sorted), key);
                    let bytes = dataset_bytes(&all) * 0.9;
                    parts = batch::into_row_parts(split_contiguous(&all, n));
                    virtual_ms += profile.parallel_ms(&t) + profile.net_ms(bytes);
                }
                LogicalOp::Reduce(agg) => {
                    let rows = batch::rows_of(&parts);
                    let (partials, t) =
                        par_each(&rows, workers, |_i, d| Ok(kernels::reduce(d, agg)))?;
                    let all = flatten_parts(&partials);
                    parts = vec![Part::Rows(Arc::new(kernels::reduce(&all, agg)))];
                    virtual_ms += profile.parallel_ms(&t) + profile.task_overhead_ms;
                }
                LogicalOp::Join { left_key, right_key } => {
                    let right = land(1)?;
                    let n = parts.len().max(right.len());
                    report_materialized(ctx, &parts);
                    report_materialized(ctx, &right);
                    let (lrows, rrows) = (batch::rows_of(&parts), batch::rows_of(&right));
                    let (out, bytes, t) =
                        routed_join(&lrows, &rrows, left_key, right_key, n, workers)?;
                    engine.exchanged(ctx, "Join", bytes, n);
                    parts = batch::into_row_parts(out);
                    virtual_ms += profile.net_ms(bytes) + profile.parallel_ms(&t);
                }
                LogicalOp::Cartesian | LogicalOp::InequalityJoin { .. } => {
                    let right = input_partitions(&self.name, inputs, 1, profile.partitions)?;
                    let right_all = flatten_parts(&right);
                    let bytes = dataset_bytes(&right_all) * parts.len() as f64 * 0.9;
                    let rows = batch::rows_of(&parts);
                    let (out, t) = par_each(&rows, workers, |_i, d| {
                        Ok(match op {
                            LogicalOp::InequalityJoin { conds } => {
                                kernels::ineq_join_nested(d, &right_all, conds)
                            }
                            _ => kernels::cartesian(d, &right_all),
                        })
                    })?;
                    virtual_ms += profile.net_ms(bytes) + profile.parallel_ms(&t);
                    let out_bytes: f64 = out.iter().map(|p| dataset_bytes(p)).sum();
                    ctx.check_mem(engine.platform, out_bytes)?;
                    parts = batch::into_row_parts(out);
                }
                LogicalOp::PageRank { iterations, damping } => {
                    // Distributed PageRank: the shared kernel computes the
                    // result; per-iteration contribution exchanges and task
                    // dispatch are charged to the virtual clock.
                    let edges = flatten_parts(&batch::rows_of(&parts));
                    let t0 = Instant::now();
                    let ranks = kernels::page_rank(&edges, *iterations, *damping);
                    let compute_ms = t0.elapsed().as_secs_f64() * 1000.0;
                    let per_iter_bytes = dataset_bytes(&edges) * engine.pagerank_iter_share;
                    let n = parts.len();
                    virtual_ms += compute_ms * profile.cpu_scale / cores
                        + *iterations as f64
                            * (profile.net_ms(per_iter_bytes)
                                + profile.task_overhead_ms * n as f64 / cores);
                    parts = batch::into_row_parts(split_contiguous(&ranks, n));
                }
                LogicalOp::TextFileSource { path } => {
                    let (lines, read_ms) = read_text_parts(path, profile.partitions, workers)?;
                    parts = batch::into_row_parts(lines);
                    virtual_ms += read_ms + profile.task_overhead_ms * parts.len() as f64 / cores;
                }
                other => {
                    return Err(RheemError::Unsupported(format!(
                        "{} cannot execute {:?}",
                        engine.label,
                        other.kind()
                    )))
                }
            }
            real_ms += start.elapsed().as_secs_f64() * 1000.0;
        }

        let out_card: u64 = parts.iter().map(|p| p.len() as u64).sum();
        ctx.record(OpMetrics {
            name: self.name.clone(),
            platform: engine.platform,
            in_card,
            out_card,
            virtual_ms,
            real_ms,
        });
        if engine.single_partition {
            // The one partition hands over as the driver's collection, or as
            // the columns of a vectorized last segment.
            return Ok(match parts.pop() {
                Some(Part::Cols(b)) => ChannelData::Batches(Arc::new(vec![b])),
                part => ChannelData::Collection(part.map(|p| p.rows()).unwrap_or_default()),
            });
        }
        // Ship columns across the stage boundary when every partition stayed
        // columnar: the consumer maps them 1:1 back onto engine parts, so
        // partition counts (and hence trace structure) match the row mode.
        if batched && !parts.is_empty() {
            if let Some(bs) = batch::all_batches(&parts) {
                let owned: Vec<Batch> = bs.into_iter().cloned().collect();
                return Ok(ChannelData::BatchParts(Arc::new(owned)));
            }
        }
        Ok(ChannelData::Partitions(Arc::new(batch::rows_of(&parts))))
    }
}
