//! The chain operator of a dataflow engine: one of the three [`Shape`]s the
//! engine's mappings build — one logical operator, a fused narrow run, or a
//! fused narrow run into one wide terminal — executed per partition in a
//! single pass. Operators execute **for real** over partitioned datasets
//! (pool workers pull partitions off a shared queue); the measured
//! per-partition times are composed into *virtual cluster time* via the
//! platform profile's task-wave model, and exchanges and broadcasts add
//! network-transfer terms. A single-partition engine runs the same shapes
//! over one partition, with no exchange and no network term (see
//! [`Engine::single_partition`]).

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
use crate::fused::FusedPipeline;
use crate::kernels;
use crate::plan::{LogicalOp, SampleSize};
use crate::platform::{PlatformId, PlatformProfile};
use crate::udf::{BroadcastCtx, KeyUdf, ReduceUdf};
use crate::value::Value;

/// What a [`Chain`] runs: one of the three shapes an engine's mappings
/// build ([`Engine::add_mappings`]).
pub enum Shape {
    /// One operator, of any kind the engine supports.
    One(LogicalOp),
    /// Two or more fusable operators: one pass over each partition.
    Run(Narrow),
    /// One or more fusable operators whose survivors stream into one wide
    /// terminal, of the kinds the engine fuses into ([`Engine::fuse_into`]).
    Into(Narrow, LogicalOp),
}

/// A run of fusable operators, as planned (costing reads the operators) and
/// compiled into one pass (execution runs the pipeline).
pub struct Narrow {
    pub(super) ops: Vec<LogicalOp>,
    pub(super) pipeline: FusedPipeline,
}

impl Narrow {
    /// Compile `ops`, in dataflow order; `None` unless there is at least one
    /// and every one of them fuses.
    pub fn new(ops: Vec<LogicalOp>) -> Option<Self> {
        let pipeline = FusedPipeline::from_ops(&ops).filter(|p| !p.is_empty())?;
        Some(Self { ops, pipeline })
    }
}

/// A dataflow engine's execution operator over one [`Shape`].
pub struct Chain {
    engine: &'static Engine,
    shape: Shape,
    name: String,
}

impl Chain {
    /// The chain of `shape` on `engine`, named after it: `SparkMap` for one
    /// operator, `SparkChain3` for a run, and `SparkChain3∘ReduceBy` for a
    /// run into a terminal, so traces still show what the stage aggregates
    /// into.
    pub fn new(engine: &'static Engine, shape: Shape) -> Self {
        let label = engine.label;
        let name = match &shape {
            Shape::One(op) => format!("{label}{:?}", op.kind()),
            Shape::Run(run) => format!("{label}Chain{}", run.ops.len()),
            Shape::Into(run, terminal) => {
                format!("{label}Chain{}\u{2218}{:?}", run.ops.len(), terminal.kind())
            }
        };
        Self { engine, shape, name }
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

    /// Report a run of `steps` operators; `missed` partitions wanted
    /// columns but had no compiled kernel, so they fell back too.
    fn report(self, ctx: &mut ExecCtx<'_>, steps: u32, missed: usize) {
        let cols = self.cols.into_inner();
        if cols > 0 {
            ctx.report_vectorized(self.rows.into_inner() as u64, cols as u64, steps * cols as u32);
        }
        let fell = self.fell.into_inner() + missed;
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

/// One execution of a chain: what its steps read, and the two clocks they
/// charge (virtual cluster ms and real host ms).
struct Stage<'a> {
    chain: &'a Chain,
    inputs: &'a [ChannelData],
    bc: &'a BroadcastCtx,
    profile: PlatformProfile,
    workers: usize,
    virtual_ms: f64,
    real_ms: f64,
}

impl Stage<'_> {
    /// Input `slot` as engine parts (one row partition on a single-partition
    /// engine).
    fn land(&self, slot: usize) -> Result<Vec<Part>> {
        let name = &self.chain.name;
        if self.chain.engine.single_partition {
            return Ok(vec![Part::Rows(input_rows(name, self.inputs, slot)?)]);
        }
        input_parts(name, self.inputs, slot, self.profile.partitions)
    }

    /// A narrow run: the whole fused pipeline traverses each partition
    /// exactly once (pipelining made literal), over typed columns when
    /// `columnar` and the pipeline compiles to a vector kernel.
    ///
    /// Run `into` a ReduceBy, it is fused terminal aggregation: the run
    /// executes inside the map-side combine — pipeline survivors stream
    /// straight into each partition's hash accumulator, so the narrow output
    /// is never materialized. The combine runs over typed columns when the
    /// aggregation is recognized too; partitions whose runtime types refuse
    /// to columnize fall back individually.
    fn narrow(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pipeline: &FusedPipeline,
        parts: &[Part],
        columnar: bool,
        into: Option<(&KeyUdf, &ReduceUdf)>,
    ) -> Result<Vec<Part>> {
        let start = Instant::now();
        let engine = self.chain.engine;
        if let (Some(hook), true) = (engine.on_fused, pipeline.len() > 1) {
            hook(ctx, pipeline.len(), into.is_some());
        }
        let vk = if columnar { VectorKernel::compile(pipeline) } else { None };
        let vk = vk.filter(|_| into.is_none_or(|(key, agg)| batch::agg_vectorizable(key, agg)));
        let missed = if columnar && vk.is_none() { parts.len() } else { 0 };
        let tally = VecTally::default();
        // One partition aggregates in one pass: its output is the result,
        // not partials to exchange.
        let once = engine.single_partition;
        let (out, times) = par_each_idx(parts.len(), self.workers, |i| {
            let part = &parts[i];
            let Some((key, agg)) = into else {
                if let Some(k) = vk.as_ref() {
                    if let Some(b) = run_kernel(k, part) {
                        tally.vectorized(part.len());
                        return Ok(Part::Cols(b));
                    }
                    tally.fell_back();
                }
                return Ok(Part::Rows(Arc::new(pipeline.run(&part.rows(), self.bc))));
            };
            if let (Some(k), Some(spec)) = (vk.as_ref(), agg.spec.as_ref()) {
                if once {
                    if let Some(out) = batch::run_reduce(k, &part.rows(), key, agg, false) {
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
            pipeline.run_each(&part.rows(), self.bc, |v| state.feed_owned(v));
            let out = if once { state.finish() } else { state.finish_keyed() };
            Ok(Part::Rows(Arc::new(out)))
        })?;
        tally.report(ctx, pipeline.len() as u32 + u32::from(into.is_some()), missed);
        let Some((_, agg)) = into.filter(|_| !once) else {
            self.virtual_ms += self.profile.parallel_ms(&times);
            self.real_ms += times.iter().sum::<f64>();
            return Ok(out);
        };
        let batched = ctx.batch();
        let (out, vms) =
            reduce_exchange(engine, "FusedReduceBy", ctx, &self.profile, &out, agg, batched)?;
        self.virtual_ms += self.profile.parallel_ms(&times) + vms;
        self.real_ms += start.elapsed().as_secs_f64() * 1000.0;
        Ok(out)
    }

    /// One operator over `parts` (what slot 0 landed as, or what the run
    /// before it computed): a fusable one runs as a one-step narrow run, a
    /// single-partition engine runs [`kernels::apply`], and every other kind
    /// has its own arm.
    fn one(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        op: &LogicalOp,
        mut parts: Vec<Part>,
    ) -> Result<Vec<Part>> {
        let start = Instant::now();
        if let Some(pipeline) = FusedPipeline::from_ops(std::slice::from_ref(op)) {
            let columnar = ctx.batch() && ctx.columns_out;
            return self.narrow(ctx, &pipeline, &parts, columnar, None);
        }
        let (engine, profile, workers) = (self.chain.engine, &self.profile, self.workers);
        let (seed, iteration, batched, bc) = (ctx.seed, ctx.iteration, ctx.batch(), self.bc);
        if engine.single_partition {
            let mut rows = batch::rows_of(&parts);
            for slot in 1..self.inputs.len() {
                rows.push(input_rows(&self.chain.name, self.inputs, slot)?);
            }
            let borrowed: Vec<&[Value]> = rows.iter().map(|d| d.as_slice()).collect();
            let out = kernels::apply(op, &borrowed, bc, seed, iteration)?;
            let ms = start.elapsed().as_secs_f64() * 1000.0;
            self.virtual_ms += profile.parallel_ms(&[ms]);
            self.real_ms += ms;
            return Ok(vec![Part::Rows(Arc::new(out))]);
        }
        let cores = profile.cores.max(1) as f64;
        let (parts, virtual_ms) = match op {
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
                self.virtual_ms += profile.parallel_ms(&times);
                self.real_ms += times.iter().sum::<f64>();
                return Ok(batch::into_row_parts(out));
            }
            LogicalOp::Union => {
                parts.extend(self.land(1)?);
                return Ok(parts);
            }
            LogicalOp::Count => {
                let total: usize = parts.iter().map(|p| p.len()).sum();
                self.virtual_ms += profile.task_overhead_ms * engine.count_tasks;
                return Ok(vec![Part::Rows(Arc::new(vec![Value::from(total)]))]);
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
                let (out, vms) =
                    reduce_exchange(engine, "ReduceBy", ctx, profile, &combined, agg, batched)?;
                (out, profile.parallel_ms(&t1) + vms)
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
                (batch::into_row_parts(out), profile.net_ms(bytes) + profile.parallel_ms(&t))
            }
            LogicalOp::SortBy(key) => {
                // Sort partitions, then merge and re-split contiguously
                // (range partitioning analogue).
                let n = parts.len();
                report_materialized(ctx, &parts);
                let rows = batch::rows_of(&parts);
                let (sorted, t) = par_each(&rows, workers, |_i, d| Ok(kernels::sort_by(d, key)))?;
                let all = kernels::sort_by(&flatten_parts(&sorted), key);
                let bytes = dataset_bytes(&all) * 0.9;
                let out = batch::into_row_parts(split_contiguous(&all, n));
                (out, profile.parallel_ms(&t) + profile.net_ms(bytes))
            }
            LogicalOp::Reduce(agg) => {
                let rows = batch::rows_of(&parts);
                let (partials, t) = par_each(&rows, workers, |_i, d| Ok(kernels::reduce(d, agg)))?;
                let all = flatten_parts(&partials);
                let out = vec![Part::Rows(Arc::new(kernels::reduce(&all, agg)))];
                (out, profile.parallel_ms(&t) + profile.task_overhead_ms)
            }
            LogicalOp::Join { left_key, right_key } => {
                let right = self.land(1)?;
                let n = parts.len().max(right.len());
                report_materialized(ctx, &parts);
                report_materialized(ctx, &right);
                let (lrows, rrows) = (batch::rows_of(&parts), batch::rows_of(&right));
                let (out, bytes, t) = routed_join(&lrows, &rrows, left_key, right_key, n, workers)?;
                engine.exchanged(ctx, "Join", bytes, n);
                (batch::into_row_parts(out), profile.net_ms(bytes) + profile.parallel_ms(&t))
            }
            LogicalOp::Cartesian | LogicalOp::InequalityJoin { .. } => {
                let right = input_partitions(&self.chain.name, self.inputs, 1, profile.partitions)?;
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
                let virtual_ms = profile.net_ms(bytes) + profile.parallel_ms(&t);
                let out_bytes: f64 = out.iter().map(|p| dataset_bytes(p)).sum();
                ctx.check_mem(engine.platform, out_bytes)?;
                (batch::into_row_parts(out), virtual_ms)
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
                let virtual_ms = compute_ms * profile.cpu_scale / cores
                    + *iterations as f64
                        * (profile.net_ms(per_iter_bytes)
                            + profile.task_overhead_ms * n as f64 / cores);
                (batch::into_row_parts(split_contiguous(&ranks, n)), virtual_ms)
            }
            LogicalOp::TextFileSource { path } => {
                let (lines, read_ms) = read_text_parts(path, profile.partitions, workers)?;
                let parts = batch::into_row_parts(lines);
                let virtual_ms = read_ms + profile.task_overhead_ms * parts.len() as f64 / cores;
                (parts, virtual_ms)
            }
            other => {
                return Err(RheemError::Unsupported(format!(
                    "{} cannot execute {:?}",
                    engine.label,
                    other.kind()
                )))
            }
        };
        self.virtual_ms += virtual_ms;
        self.real_ms += start.elapsed().as_secs_f64() * 1000.0;
        Ok(parts)
    }
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
            chain_cost(&self.engine.costs, &self.shape, in_cards, avg_bytes, model);
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

        // Broadcast variables ship once per executor node (~10 nodes).
        if !engine.single_partition && !bc.is_empty() {
            let bytes: f64 = bc.total_quanta() as f64 * 24.0;
            ctx.add_virtual_ms(profile.net_ms(bytes * 10.0) + engine.broadcast_ms);
        }

        let mut st =
            Stage { chain: self, inputs, bc, profile, workers, virtual_ms: 0.0, real_ms: 0.0 };
        let source = matches!(&self.shape, Shape::One(op) if op.kind().is_source());
        let parts: Vec<Part> = if source { Vec::new() } else { st.land(0)? };
        let in_card: u64 = parts.iter().map(|p| p.len() as u64).sum::<u64>()
            + inputs.get(1).and_then(|c| c.cardinality()).unwrap_or(0) as u64;
        if let Some(hook) = engine.on_stage {
            hook(ctx, workers, parts.len(), in_card);
        }

        // Columnize only what stays columnar: a run's output when a consumer
        // reads columns, or a terminal ReduceBy's combine. GroupBy and
        // Distinct rebuild rows, so a run into them never columnizes.
        let batched = ctx.batch();
        let mut parts = match &self.shape {
            Shape::One(op) => st.one(ctx, op, parts)?,
            Shape::Run(run) => {
                st.narrow(ctx, &run.pipeline, &parts, batched && ctx.columns_out, None)?
            }
            Shape::Into(run, LogicalOp::ReduceBy { key, agg }) => {
                st.narrow(ctx, &run.pipeline, &parts, batched, Some((key, agg)))?
            }
            Shape::Into(run, terminal) => {
                let rows = st.narrow(ctx, &run.pipeline, &parts, false, None)?;
                st.one(ctx, terminal, rows)?
            }
        };

        let out_card: u64 = parts.iter().map(|p| p.len() as u64).sum();
        ctx.record(OpMetrics {
            name: self.name.clone(),
            platform: engine.platform,
            in_card,
            out_card,
            virtual_ms: st.virtual_ms,
            real_ms: st.real_ms,
        });
        if engine.single_partition {
            // The one partition hands over as the driver's collection, or as
            // the columns of a vectorized run.
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
