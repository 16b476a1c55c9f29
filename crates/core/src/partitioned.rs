//! The partitioned engine, written once. The dataflow engines (java.streams,
//! spark, flink) differ in *cost structure* — parallelism, per-stage
//! overheads, chaining, iteration and broadcast charges — not in dataflow
//! semantics, so each is an [`Engine`] table of constants (plus optional
//! trace hooks) over the one chain operator ([`Chain`]), its mappings
//! ([`Engine::add_mappings`]) and the three driver/file bridges
//! ([`Collect`], [`FromCollection`], [`ReadTextFile`]). This module also
//! owns what they run on: the indexed task runner on the shared pool, the
//! row and columnar hash exchanges, the reduce-side exchange of two-phase
//! aggregation, the partitioned text source, the chain-costing walk
//! ([`chain_cost`]) and the one `ChannelData → Vec<Part>` landing.

mod bridge;
mod chain;

pub use bridge::{Collect, FromCollection, ReadTextFile};
pub use chain::{Chain, Narrow, Shape};

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::batch::{self, Batch, Part};
use crate::channel::{ChannelData, ChannelKind};
use crate::cost::{linear_cpu, CostModel};
use crate::error::{Result, RheemError};
use crate::exec::{dataset_bytes, ExecCtx, Fallback};
use crate::fused;
use crate::kernels::{self, NO_ENTRY};
use crate::mapping::{upstream_chain, Candidate, FnMapping};
use crate::plan::{LogicalOp, OpKind, OperatorId, OperatorNode, RheemPlan};
use crate::platform::{PlatformId, PlatformProfile};
use crate::registry::Registry;
use crate::udf::{KeySpec, KeyUdf, ReduceUdf};
use crate::value::{Dataset, Value};

/// What distinguishes one dataflow engine from another: the rows of
/// DESIGN.md's substitution table, as constants. Everything else — operator
/// semantics, exchanges, landings, hand-offs — is shared code.
pub struct Engine {
    /// Operator-name prefix (`SparkChain3∘ReduceBy`, `FlinkCollect`).
    pub label: &'static str,
    /// The platform the operators report, gate faults on and take their
    /// profile from.
    pub platform: PlatformId,
    /// Channel kinds a stage accepts on every input slot, in preference order.
    pub accepts: &'static [ChannelKind],
    /// Channel kind a stage produces.
    pub output: ChannelKind,
    /// One partition, no exchange (java.streams): every slot lands as one
    /// row partition, standalone operators run [`kernels::apply`], a fused
    /// terminal ReduceBy aggregates in one pass, broadcasts and `load` carry
    /// no network term, the output is the driver's collection, and there is
    /// no parallel text source. The constants below that only a
    /// partitioned engine reads are 0 on such a row.
    pub single_partition: bool,
    /// The wide kinds a narrow run may fuse into as its terminal
    /// ([`Shape::Into`]).
    pub fuse_into: &'static [OpKind],
    /// Cost-model constants of a stage (job submission δ, per-kind α).
    pub costs: ChainCosts,
    /// PageRank: share of the edge bytes exchanged per iteration (full
    /// contribution shuffle vs. delta iterations shipping changed state).
    pub pagerank_iter_share: f64,
    /// Fixed ms of shipping a stage's broadcast variables, on top of the
    /// network time.
    pub broadcast_ms: f64,
    /// `Count`: how many `task_overhead_ms` the driver round trip costs.
    pub count_tasks: f64,
    /// [`Collect`] / [`FromCollection`]: submission δ (cycles) and fixed ms.
    pub bridge_delta: f64,
    /// See [`Engine::bridge_delta`].
    pub bridge_ms: f64,
    /// [`FromCollection`]'s name after the engine's API (`sc.parallelize`,
    /// `env.fromCollection`); lower-cased, its cost-model token.
    pub from_collection: &'static str,
    /// [`ReadTextFile`]: α and δ (cycles).
    pub read_alpha: f64,
    /// See [`Engine::read_alpha`].
    pub read_delta: f64,
    /// [`ReadTextFile`]: fixed task count (`None`: one task per input split,
    /// [`partition_count`] of the cardinality).
    pub read_tasks: Option<u32>,
    /// Trace hook: a hash exchange moved `bytes` to `partitions`
    /// destinations on behalf of `op` (spark's `spark.shuffle`).
    pub on_exchange: Option<fn(ctx: &mut ExecCtx<'_>, op: &str, bytes: f64, partitions: usize)>,
    /// Trace hook: a stage landed its input (flink's `flink.vertex`).
    pub on_stage:
        Option<fn(ctx: &mut ExecCtx<'_>, workers: usize, partitions: usize, in_card: u64)>,
    /// Trace hook: a fused run of `steps > 1` narrow operators is about to
    /// run, feeding a terminal ReduceBy or not (java's `java.fused`).
    pub on_fused: Option<fn(ctx: &mut ExecCtx<'_>, steps: usize, terminal_agg: bool)>,
}

impl Engine {
    /// Register the engine's mappings, which build its three [`Shape`]s and
    /// no other chain: 1-to-1 for every [`supported`] operator (sources only
    /// on a partitioned engine), a narrow run of two or more fusable
    /// operators (stage pipelining: one pass, no intermediate collections),
    /// and a narrow run *into* one wide terminal of [`Engine::fuse_into`],
    /// whose survivors stream straight into the terminal's exchange. A run
    /// reaches only through operators with one input, one consumer and no
    /// broadcasts ([`upstream_chain`]).
    pub fn add_mappings(&'static self, registry: &mut Registry) {
        let candidate = move |covers: Vec<OperatorId>, shape: Shape| {
            vec![Candidate { covers, exec: Arc::new(Chain::new(self, shape)) }]
        };
        registry.add_mapping(Arc::new(FnMapping(move |_: &RheemPlan, node: &OperatorNode| {
            let kind = node.op.kind();
            if !supported(kind) || (self.single_partition && kind.is_source()) {
                return vec![];
            }
            candidate(vec![node.id], Shape::One(node.op.clone()))
        })));
        registry.add_mapping(Arc::new(FnMapping(move |plan: &RheemPlan, node: &OperatorNode| {
            let into = self.fuse_into.contains(&node.op.kind());
            if !into && !fused::fusable(&node.op) {
                return vec![];
            }
            let chain = upstream_chain(plan, node, |n| fused::fusable(&n.op) || n.id == node.id);
            if chain.len() < 2 {
                return vec![];
            }
            let mut ops: Vec<LogicalOp> =
                chain.iter().map(|&id| plan.node(id).op.clone()).collect();
            let terminal = if into { ops.pop() } else { None };
            let Some(run) = Narrow::new(ops) else { return vec![] };
            let shape = match terminal {
                Some(t) => Shape::Into(run, t),
                None => Shape::Run(run),
            };
            candidate(chain, shape)
        })));
    }

    fn exchanged(&self, ctx: &mut ExecCtx<'_>, op: &str, bytes: f64, partitions: usize) {
        if let Some(hook) = self.on_exchange {
            hook(ctx, op, bytes, partitions);
        }
    }
}

/// The constants of the chain-costing walk ([`chain_cost`]).
pub struct ChainCosts {
    /// Cost-model platform token (`spark.map.alpha`).
    pub token: &'static str,
    /// Submission δ (cycles) the chain's first step pays.
    pub stage_delta: f64,
    /// α of a fused narrow run (× 0.55 when it vectorizes).
    pub fused_alpha: f64,
    /// Default α per operator kind.
    pub alpha: fn(OpKind) -> f64,
    /// PageRank work per input edge, in quanta.
    pub pagerank_size: f64,
}

/// Whether an operator is *wide*: it needs an exchange on a partitioned
/// engine.
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

/// Whether an operator rebuilds rows from the columns it is handed at once:
/// the wide operators with no columnar landing, and `Sample`.
pub(crate) fn rebuilds_rows(kind: OpKind) -> bool {
    kind == OpKind::Sample || is_wide(kind) && !matches!(kind, OpKind::ReduceBy | OpKind::Count)
}

/// Operator kinds a dataflow engine implements (the parallel text source
/// only when partitioned; loops stay with the driver).
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

/// Cost one chain by its shape: the submission δ goes to its first step, a
/// fused run of two or more operators pays one per-tuple term (its UDF
/// weight is the summed step cost), and each standalone operator pays its
/// kind's α, while a rough cardinality propagates. A ReduceBy terminal of
/// such a run combines inside the pipeline pass (fused terminal
/// aggregation): no materialized narrow output, no input re-scan — and a
/// dictionary-keyed vectorized combine skips per-row hashing — so its α is
/// discounted. A one-operator run is costed as that operator alone, and its
/// terminal as a second one with no discount. Returns the CPU cycles and
/// the bytes the chain's wide operators exchange. Keys off the plan only —
/// never the runtime batch switch — so plan choice is mode-independent.
pub fn chain_cost(
    costs: &ChainCosts,
    shape: &Shape,
    in_cards: &[f64],
    avg_bytes: f64,
    model: &CostModel,
) -> (f64, f64) {
    // One standalone operator over `card` quanta, its α scaled by
    // `discount`: its cycles, exchanged bytes and output cardinality.
    let standalone = |op: &LogicalOp, card: f64, delta: f64, discount: f64| {
        let kind = op.kind();
        let size = match kind {
            OpKind::Cartesian | OpKind::InequalityJoin => {
                in_cards.iter().product::<f64>().max(card)
            }
            OpKind::SortBy => card * card.max(2.0).log2(),
            OpKind::PageRank => card * costs.pagerank_size,
            _ => card,
        };
        let alpha = (costs.alpha)(kind) * discount;
        let udf = op.udf_cost_hint() * 50.0;
        let cycles = linear_cpu(model, costs.token, kind.token(), size, udf, alpha, delta);
        let net_bytes = if is_wide(kind) { card * avg_bytes * 0.9 } else { 0.0 };
        let out = card
            * match kind {
                OpKind::Filter | OpKind::SargFilter => 0.5,
                OpKind::FlatMap => 4.0,
                OpKind::ReduceBy | OpKind::GroupBy | OpKind::Distinct => 0.5,
                OpKind::Count | OpKind::Reduce => 0.0,
                _ => 1.0,
            };
        (cycles, net_bytes, out)
    };
    let card: f64 = in_cards.iter().sum();
    let (run, terminal) = match shape {
        Shape::One(op) => {
            let (cycles, net_bytes, _) = standalone(op, card, costs.stage_delta, 1.0);
            return (cycles, net_bytes);
        }
        Shape::Run(run) => (run, None),
        Shape::Into(run, terminal) => (run, Some(terminal)),
    };
    let (cycles, card, discount) = match &run.ops[..] {
        [op] => {
            let (cycles, _, card) = standalone(op, card, costs.stage_delta, 1.0);
            (cycles, card, 1.0)
        }
        _ => {
            // Recognized runs execute on typed column slices.
            let pipeline = &run.pipeline;
            let vectorized = pipeline.vectorizable();
            let alpha = costs.fused_alpha * if vectorized { 0.55 } else { 1.0 };
            let udf = pipeline.cost_hint() * 50.0;
            let cycles =
                linear_cpu(model, costs.token, "fused", card, udf, alpha, costs.stage_delta);
            let discount = match terminal {
                Some(LogicalOp::ReduceBy { key, agg }) => {
                    let vec_agg = vectorized && batch::agg_vectorizable(key, agg);
                    if vec_agg {
                        0.6
                    } else {
                        0.75
                    }
                }
                _ => 1.0,
            };
            (cycles, card * pipeline.selectivity(), discount)
        }
    };
    let Some(terminal) = terminal else { return (cycles, 0.0) };
    let (terminal_cycles, net_bytes, _) = standalone(terminal, card, 0.0, discount);
    (cycles + terminal_cycles, net_bytes)
}

/// Deal `data` into `n` contiguous chunks (at least one partition, possibly
/// empty).
fn split_contiguous(data: &[Value], n: usize) -> Vec<Dataset> {
    let chunk = data.len().div_ceil(n.max(1)).max(1);
    let mut parts: Vec<Dataset> = data.chunks(chunk).map(|c| Arc::new(c.to_vec())).collect();
    if parts.is_empty() {
        parts.push(Arc::new(Vec::new()));
    }
    parts
}

/// Partition a driver-side dataset the way a stage input of its size is
/// split ([`partition_count`]); a single partition shares the incoming `Arc`.
fn partition_dataset(data: &Dataset, max_partitions: u32) -> Vec<Dataset> {
    match partition_count(data.len(), max_partitions) {
        1 => vec![Arc::clone(data)],
        n => split_contiguous(data, n),
    }
}

/// Input `slot` of an operator (a missing slot reads as no channel).
pub fn input(inputs: &[ChannelData], slot: usize) -> &ChannelData {
    inputs.get(slot).unwrap_or(&ChannelData::None)
}

/// The error for an input whose layout cannot give `op` the `want`ed data: a
/// plan defect, not a transient failure, so it is typed, names the operator,
/// the slot and what arrived, and is never retried.
pub fn wrong_layout(op: &str, slot: usize, found: &ChannelData, want: &str) -> RheemError {
    RheemError::Unsupported(format!(
        "{op}: input slot {slot} cannot land a {found:?} channel as {want}"
    ))
}

/// Input `slot` as one row dataset (collection and partitioned layouts
/// flatten, in order); a layout that cannot hold rows is a [`wrong_layout`].
pub fn input_rows(op: &str, inputs: &[ChannelData], slot: usize) -> Result<Dataset> {
    let found = input(inputs, slot);
    found.flatten().map_err(|_| wrong_layout(op, slot, found, "rows"))
}

/// The one landing of a stage input as row partitions: partitioned layouts
/// land 1:1 (columnar partitions materialize — the right side of Cartesian /
/// InequalityJoin has no columnar kernel), collection layouts are split by
/// size. A layout that cannot hold rows (file, opaque, none) is a
/// [`wrong_layout`].
fn input_partitions(
    op: &str,
    inputs: &[ChannelData],
    slot: usize,
    max_partitions: u32,
) -> Result<Vec<Dataset>> {
    match input(inputs, slot) {
        ChannelData::Partitions(p) => Ok(p.as_ref().clone()),
        ChannelData::BatchParts(bs) if !bs.is_empty() => {
            Ok(bs.iter().map(|b| Arc::new(b.to_values())).collect())
        }
        input @ (ChannelData::Collection(_)
        | ChannelData::Batches(_)
        | ChannelData::BatchParts(_)) => Ok(partition_dataset(&input.flatten()?, max_partitions)),
        other => Err(wrong_layout(op, slot, other, "partitions")),
    }
}

/// Stage input as engine parts: columnar partitions arrive 1:1 through the
/// exchange (`BatchParts`, no row round-trip); everything else takes the row
/// route of [`input_partitions`].
fn input_parts(
    op: &str,
    inputs: &[ChannelData],
    slot: usize,
    max_partitions: u32,
) -> Result<Vec<Part>> {
    match inputs.get(slot) {
        Some(ChannelData::BatchParts(bs)) if !bs.is_empty() => {
            Ok(bs.iter().map(|b| Part::Cols(b.clone())).collect())
        }
        _ => Ok(batch::into_row_parts(input_partitions(op, inputs, slot, max_partitions)?)),
    }
}

/// Decide how many partitions a dataset of `n` quanta gets (HDFS-block-like
/// splitting, capped by the configured parallelism).
pub fn partition_count(n: usize, max_partitions: u32) -> usize {
    ((n / 8_192) + 1).min(max_partitions.max(1) as usize)
}

/// How many worker threads a stage gets: the profile's core count, capped by
/// the shared worker pool's size (so measured per-partition times stay
/// honest).
pub fn pool_size(profile: &PlatformProfile) -> usize {
    (profile.cores as usize).clamp(1, crate::pool::size())
}

/// What one worker hands back: its `(index, output, ms)` triples, or the
/// error that stopped it.
type WorkerRun<U> = Result<Vec<(usize, U, f64)>>;

/// The task-wave runner: run `f(i)` for every index on the process-wide
/// shared pool ([`crate::pool`]) — no per-call thread spawns — where workers
/// pull indices off a shared queue. Returns the outputs in index order, no
/// matter which worker produced what, and the measured per-index times (ms).
/// With one worker or at most one index, `f` runs on the calling thread.
/// Generic over the slot type so columnar stages can map [`Part`]
/// partitions without a row round-trip.
pub fn par_each_idx<U, F>(n: usize, workers: usize, f: F) -> Result<(Vec<U>, Vec<f64>)>
where
    U: Send,
    F: Fn(usize) -> Result<U> + Send + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        // Nothing to parallelise: run on the calling thread, no pool round
        // trip.
        let mut out = Vec::with_capacity(n);
        let mut times = Vec::with_capacity(n);
        for i in 0..n {
            let start = Instant::now();
            out.push(f(i)?);
            times.push(start.elapsed().as_secs_f64() * 1000.0);
        }
        return Ok((out, times));
    }
    let next = &AtomicUsize::new(0);
    let f = &f;
    let runs: Mutex<Vec<WorkerRun<U>>> = Mutex::new(Vec::with_capacity(workers));
    crate::pool::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut failed = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let start = Instant::now();
                    match f(i) {
                        Ok(out) => {
                            let ms = start.elapsed().as_secs_f64() * 1000.0;
                            mine.push((i, out, ms));
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                let run = match failed {
                    Some(e) => Err(e),
                    None => Ok(mine),
                };
                runs.lock().expect("a worker panicked while reporting").push(run);
            });
        }
    });
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let mut times = vec![0.0; n];
    for run in runs.into_inner().expect("a worker panicked while reporting") {
        for (i, d, ms) in run? {
            out[i] = Some(d);
            times[i] = ms;
        }
    }
    // Every slot is written exactly once: the queue hands out each index to
    // one worker, and an error short-circuits above.
    Ok((out.into_iter().map(|o| o.expect("slot filled")).collect(), times))
}

/// [`par_each_idx`] over row partitions: `f(i, rows of partition i)`.
pub fn par_each<F>(parts: &[Dataset], workers: usize, f: F) -> Result<(Vec<Dataset>, Vec<f64>)>
where
    F: Fn(usize, &[Value]) -> Result<Vec<Value>> + Send + Sync,
{
    par_each_idx(parts.len(), workers, |i| f(i, &parts[i]).map(Arc::new))
}

/// Hash-exchange: redistribute partitions by key into `n` output partitions
/// (the shuffle). Every record is routed straight into a shared, pre-sized
/// destination bucket — no per-partition partials re-appended. Returns the
/// exchanged partitions and the bytes moved across the (virtual) network.
pub fn exchange(parts: &[Dataset], key: &KeyUdf, n: usize) -> (Vec<Dataset>, f64) {
    let n = n.max(1);
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut buckets: Vec<Vec<Value>> = (0..n).map(|_| Vec::with_capacity(total / n + 1)).collect();
    for p in parts {
        kernels::hash_partition_into(p, key, &mut buckets);
    }
    let bytes: f64 = buckets.iter().map(|b| dataset_bytes(b)).sum();
    // Roughly (1 - 1/nodes) of shuffled bytes cross machine boundaries.
    (buckets.into_iter().map(Arc::new).collect(), bytes * 0.9)
}

/// One row's place in a routed join: its [`kernels::JoinKeys`] entry and the bucket
/// [`exchange`] would send it to.
type Route = (u32, u32);

/// What [`exchange`] would ship of one side: per bucket the [`dataset_bytes`]
/// of its rows (sampled at the positions they would hold there), ≈90 % of it
/// crossing machines — read off the rows where they sit.
fn routed_bytes(parts: &[Dataset], routes: &[Vec<Route>], n: usize) -> f64 {
    let mut len = vec![0usize; n];
    for &(_, b) in routes.iter().flatten() {
        len[b as usize] += 1;
    }
    let (mut until, mut sampled, mut total) = (vec![0usize; n], vec![0usize; n], vec![0usize; n]);
    for (part, routes) in parts.iter().zip(routes) {
        for (v, &(_, b)) in part.iter().zip(routes) {
            let j = b as usize;
            if until[j] == 0 {
                until[j] = (len[j] / 64).max(1);
                total[j] += v.approx_bytes();
                sampled[j] += 1;
            }
            until[j] -= 1;
        }
    }
    let avg = |j: usize| if len[j] == 0 { 16.0 } else { total[j] as f64 / sampled[j] as f64 };
    (0..n).map(|j| avg(j) * len[j] as f64).sum::<f64>() * 0.9
}

/// The row join of a partitioned engine: partition for partition and row for
/// row what [`exchange`]-ing both sides into `n` buckets and hash-joining
/// bucket by bucket emits, without copying or re-hashing a row. One
/// [`kernels::JoinKeys`] table over the smaller side holds each distinct
/// key's bucket; the larger side's partitions look their rows up on the pool
/// (a row without a match is hashed only to be counted); the left rows with
/// an entry hand one handle each to their bucket, and every bucket writes
/// its partition in source order. Returns the partitions, the bytes the
/// exchange would have shipped and the `n` buckets' task times (the table's
/// and the routing's share spread evenly over them).
pub fn routed_join(
    left: &[Dataset],
    right: &[Dataset],
    left_key: &KeyUdf,
    right_key: &KeyUdf,
    n: usize,
    workers: usize,
) -> Result<(Vec<Dataset>, f64, Vec<f64>)> {
    let n = n.max(1);
    let started = Instant::now();
    let rows = |parts: &[Dataset]| parts.iter().map(|p| p.len()).sum::<usize>();
    let build_right = rows(right) <= rows(left);
    let (small, small_key, large, large_key) = if build_right {
        (right, right_key, left, left_key)
    } else {
        (left, left_key, right, right_key)
    };
    let (keys, entries) = kernels::join_keys(small.iter().flat_map(|p| p.iter()), small_key);
    let mut bucket = vec![0u32; keys.len()];
    for (k, &e) in &keys {
        bucket[e as usize] = kernels::bucket_of_key(k, n) as u32;
    }
    let mut entries = entries.into_iter();
    let small_routes: Vec<Vec<Route>> = small
        .iter()
        .map(|p| entries.by_ref().take(p.len()).map(|e| (e, bucket[e as usize])).collect())
        .collect();
    let (large_routes, _) = par_each_idx(large.len(), workers, |i| {
        let route = |v| {
            let k = large_key.extract(v);
            match keys.get(&*k) {
                Some(&e) => (e, bucket[e as usize]),
                None => (NO_ENTRY, kernels::bucket_of_key(&k, n) as u32),
            }
        };
        Ok(large[i].iter().map(route).collect::<Vec<Route>>())
    })?;
    let (lroutes, rroutes) =
        if build_right { (large_routes, small_routes) } else { (small_routes, large_routes) };
    let rflat: Vec<&Value> = right.iter().flat_map(|p| p.iter()).collect();
    let rentries: Vec<u32> = rroutes.iter().flatten().map(|r| r.0).collect();
    let matches = kernels::join_matches(&rentries, keys.len());
    // Deal each left row that has an entry to its bucket, as a handle beside
    // the entry; bucket j then owns column j and moves the handles into its
    // pairs, which are allocated in the order the partition lists them.
    let (dealt, _) = par_each_idx(left.len(), workers, |i| {
        let mut to: Vec<Vec<(Value, u32)>> =
            (0..n).map(|_| Vec::with_capacity(left[i].len() / n + 1)).collect();
        for (l, &(e, b)) in left[i].iter().zip(&lroutes[i]) {
            if e != NO_ENTRY {
                to[b as usize].push((l.clone(), e));
            }
        }
        Ok(to)
    })?;
    let mut columns: Vec<Vec<Vec<(Value, u32)>>> = (0..n).map(|_| Vec::new()).collect();
    for to in dealt {
        for (j, rows) in to.into_iter().enumerate() {
            columns[j].push(rows);
        }
    }
    let columns: Vec<Mutex<_>> = columns.into_iter().map(Mutex::new).collect();
    let table_ms = started.elapsed().as_secs_f64() * 1000.0;
    let (out, mut times) = par_each_idx(n, workers, |j| {
        let column = std::mem::take(&mut *columns[j].lock().expect("one task per bucket"));
        let pairs = column.iter().flatten().map(|(_, e)| matches[*e as usize].len()).sum();
        let mut out = Vec::with_capacity(pairs);
        for (l, e) in column.into_iter().flatten() {
            if let Some((&last, rest)) = matches[e as usize].split_last() {
                out.extend(rest.iter().map(|&r| Value::pair(l.clone(), rflat[r as usize].clone())));
                out.push(Value::pair(l, rflat[last as usize].clone()));
            }
        }
        Ok(Arc::new(out))
    })?;
    let bytes = routed_bytes(left, &lroutes, n) + routed_bytes(right, &rroutes, n);
    times.iter_mut().for_each(|t| *t += table_ms / n as f64);
    Ok((out, bytes, times))
}

/// Concatenate row partitions in order.
pub fn flatten_parts(parts: &[Dataset]) -> Vec<Value> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        out.extend(p.iter().cloned());
    }
    out
}

/// Hash-partition every batch into `n` per-destination contribution lists —
/// the columnar exchange. Source batches partition on the pool; bucket `j`
/// then collects each input batch's selection onto destination `j`, in
/// input order, which is exactly the record order the row shuffle would
/// produce (same `bucket_of` routing, same stable append). `None` when any
/// key column is untyped (callers take the row shuffle instead).
fn bucketize(
    bs: &[&Batch],
    key: &KeySpec,
    n: usize,
    workers: usize,
) -> Result<Option<Vec<Vec<Batch>>>> {
    let (cut, _) = par_each_idx(bs.len(), workers, |i| Ok(batch::partition_batch(bs[i], key, n)))?;
    let mut buckets: Vec<Vec<Batch>> =
        (0..n.max(1)).map(|_| Vec::with_capacity(bs.len())).collect();
    for pb in cut {
        let Some(pb) = pb else { return Ok(None) };
        for (j, x) in pb.into_iter().enumerate() {
            buckets[j].push(x);
        }
    }
    Ok(Some(buckets))
}

/// Wire size of an exchange's bucketed contributions (≈90 % cross machines,
/// like [`exchange`]).
fn bucket_bytes(buckets: &[Vec<Batch>]) -> f64 {
    buckets.iter().flatten().map(batch::batch_bytes).sum::<f64>() * 0.9
}

/// Count/row totals of the batches a columnar exchange actually ships
/// (empty selections stay local).
fn shipped(buckets: &[Vec<Batch>]) -> (u64, u64) {
    let mut batches = 0u64;
    let mut rows = 0u64;
    for b in buckets.iter().flatten() {
        let l = b.selected_len() as u64;
        if l > 0 {
            batches += 1;
        }
        rows += l;
    }
    (batches, rows)
}

/// The reduce-side exchange shared by `ReduceBy` and the fused terminal
/// aggregation: ship map-side partials to their destination partition and
/// merge per key. When every partial stayed columnar, the `(key, sum)`
/// batches hash-partition on their key column and merge through slot
/// arrays — no row materialization anywhere on the path; otherwise (or in
/// row mode) the partials travel as carried-key pairs through the row
/// exchange. Both paths route identically, so results and partition counts
/// are byte-identical. The engine's exchange hook sees the bytes moved and
/// the destination count, under `op`, once they are known. Returns the
/// merged partitions and the virtual ms of the exchange + reduce side.
fn reduce_exchange(
    engine: &Engine,
    op: &str,
    ctx: &mut ExecCtx<'_>,
    profile: &PlatformProfile,
    combined: &[Part],
    agg: &ReduceUdf,
    batched: bool,
) -> Result<(Vec<Part>, f64)> {
    let workers = pool_size(profile);
    let n = combined.len();
    let columnar = match batch::all_batches(combined) {
        Some(bs) if batched => bucketize(&bs, &KeySpec::Field(0), n, workers)?,
        _ => None,
    };
    if let Some(buckets) = columnar {
        let bytes = bucket_bytes(&buckets);
        engine.exchanged(ctx, op, bytes, n);
        let (sb, srows) = shipped(&buckets);
        ctx.report_exchange(sb, srows);
        let fell = AtomicUsize::new(0);
        let fell_rows = AtomicUsize::new(0);
        let (out, t2) = par_each_idx(buckets.len(), workers, |j| {
            let contribs = &buckets[j];
            if let Some(m) = batch::merge_batches(contribs) {
                return Ok(Part::Cols(m));
            }
            // Per-bucket row fallback: routing matched the row exchange, so
            // merging this bucket's keyed rows reproduces the row result
            // exactly.
            fell.fetch_add(1, Ordering::Relaxed);
            let mut rows = Vec::new();
            for b in contribs {
                rows.extend(batch::keyed_values(b));
            }
            fell_rows.fetch_add(rows.len(), Ordering::Relaxed);
            Ok(Part::Rows(Arc::new(kernels::merge_by(&rows, agg))))
        })?;
        if fell.into_inner() > 0 {
            ctx.report_exchange_fallback(fell_rows.into_inner() as u64, Fallback::TypeMismatch);
        }
        return Ok((out, profile.net_ms(bytes) + profile.parallel_ms(&t2)));
    }
    // Row exchange: partials travel as (key, acc) pairs; the merge groups by
    // the carried key, never re-extracting from accumulators.
    let keyed: Vec<Dataset> = combined
        .iter()
        .map(|p| match p {
            Part::Rows(d) => Arc::clone(d),
            Part::Cols(b) => Arc::new(batch::keyed_values(b)),
        })
        .collect();
    let (exchanged, bytes) = exchange(&keyed, &KeyUdf::field(0), n);
    engine.exchanged(ctx, op, bytes, n);
    if batched {
        let rows: u64 = exchanged.iter().map(|d| d.len() as u64).sum();
        ctx.report_exchange_fallback(rows, Fallback::RowInput);
    }
    let (out, t2) = par_each(&exchanged, workers, |_i, d| Ok(kernels::merge_by(d, agg)))?;
    Ok((batch::into_row_parts(out), profile.net_ms(bytes) + profile.parallel_ms(&t2)))
}

/// The rows of lines `range` of a text file: one `Arc<str>` per line, cut
/// straight from the file's content.
pub fn text_rows(text: &rheem_storage::TextFile, range: std::ops::Range<usize>) -> Vec<Value> {
    text.lines(range).map(Value::from).collect()
}

/// The partitioned text source: read the file once
/// ([`rheem_storage::read_text`]), deal its lines into the count-balanced
/// contiguous partitions of [`rheem_storage::partition_ranges`] (as many as
/// [`partition_count`] gives a file of this size, at 40 bytes a line) and
/// build each partition's rows on the pool. Returns the partitions and the
/// store's virtual ms for reading the file.
pub fn read_text_parts(
    path: &Path,
    max_partitions: u32,
    workers: usize,
) -> Result<(Vec<Dataset>, f64)> {
    let text = rheem_storage::read_text(path).map_err(RheemError::Io)?;
    let bytes = text.bytes();
    let n = partition_count((bytes / 40).max(1) as usize, max_partitions);
    let ranges = rheem_storage::partition_ranges(text.line_count(), n);
    let (parts, _) =
        par_each_idx(ranges.len(), workers, |i| Ok(Arc::new(text_rows(&text, ranges[i].clone()))))?;
    Ok((parts, rheem_storage::default_costs(text.store()).read_ms(bytes)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecutionOperator;
    use crate::platform::Profiles;
    use crate::udf::BroadcastCtx;

    fn flat_alpha(_: OpKind) -> f64 {
        100.0
    }

    fn exchange_hook(ctx: &mut ExecCtx<'_>, op: &str, bytes: f64, partitions: usize) {
        let op = op.to_string();
        ctx.trace_event("a.exchange", || {
            vec![
                ("op".to_string(), op.into()),
                ("bytes".to_string(), bytes.into()),
                ("partitions".to_string(), partitions.into()),
            ]
        });
    }

    fn stage_hook(ctx: &mut ExecCtx<'_>, _workers: usize, partitions: usize, _in_card: u64) {
        ctx.trace_event("b.stage", || vec![("partitions".to_string(), partitions.into())]);
    }

    fn fused_hook(ctx: &mut ExecCtx<'_>, steps: usize, terminal_agg: bool) {
        ctx.trace_event("c.fused", || {
            vec![
                ("steps".to_string(), steps.into()),
                ("terminal_agg".to_string(), i64::from(terminal_agg).into()),
            ]
        });
    }

    const KIND_A: ChannelKind = ChannelKind("standin.a");
    const KIND_B: ChannelKind = ChannelKind("standin.b");
    const KIND_C: ChannelKind = ChannelKind("standin.c");

    /// Three stand-in engines that differ in every constant and in which
    /// hook they carry, as spark, flink and java.streams do; `C` is the
    /// single-partition one.
    static A: Engine = Engine {
        label: "A",
        platform: PlatformId("standin.a"),
        accepts: &[KIND_A],
        output: KIND_A,
        single_partition: false,
        fuse_into: &[OpKind::ReduceBy],
        costs: ChainCosts {
            token: "standin.a",
            stage_delta: 20_000.0,
            fused_alpha: 200.0,
            alpha: flat_alpha,
            pagerank_size: 12.0,
        },
        pagerank_iter_share: 0.5,
        broadcast_ms: 1.0,
        count_tasks: 2.0,
        bridge_delta: 10_000.0,
        bridge_ms: 0.5,
        from_collection: "Parallelize",
        read_alpha: 260.0,
        read_delta: 15_000.0,
        read_tasks: None,
        on_exchange: Some(exchange_hook),
        on_stage: None,
        on_fused: None,
    };
    static B: Engine = Engine {
        label: "B",
        platform: PlatformId("standin.b"),
        accepts: &[KIND_B],
        output: KIND_B,
        single_partition: false,
        fuse_into: &[OpKind::ReduceBy, OpKind::GroupBy, OpKind::Distinct],
        costs: ChainCosts {
            token: "standin.b",
            stage_delta: 12_000.0,
            fused_alpha: 170.0,
            alpha: flat_alpha,
            pagerank_size: 11.0,
        },
        pagerank_iter_share: 0.25,
        broadcast_ms: 0.5,
        count_tasks: 1.0,
        bridge_delta: 8_000.0,
        bridge_ms: 0.4,
        from_collection: "FromCollection",
        read_alpha: 230.0,
        read_delta: 12_000.0,
        read_tasks: Some(8),
        on_exchange: None,
        on_stage: Some(stage_hook),
        on_fused: None,
    };
    static C: Engine = Engine {
        label: "C",
        platform: PlatformId("standin.c"),
        accepts: &[KIND_C],
        output: KIND_C,
        single_partition: true,
        fuse_into: &[OpKind::ReduceBy],
        costs: ChainCosts {
            token: "standin.c",
            stage_delta: 2_000.0,
            fused_alpha: 150.0,
            alpha: flat_alpha,
            pagerank_size: 10.0,
        },
        pagerank_iter_share: 0.0,
        broadcast_ms: 0.0,
        count_tasks: 0.0,
        bridge_delta: 0.0,
        bridge_ms: 0.0,
        from_collection: "",
        read_alpha: 0.0,
        read_delta: 0.0,
        read_tasks: None,
        on_exchange: None,
        on_stage: None,
        on_fused: Some(fused_hook),
    };

    fn pairs(range: std::ops::Range<i64>, keys: i64) -> Vec<Value> {
        range.map(|i| Value::pair(Value::from(i % keys), Value::from(i))).collect()
    }

    /// Run `op` alone on `engine`, columnar kernels on or off.
    fn run_in(
        engine: &'static Engine,
        op: LogicalOp,
        inputs: &[ChannelData],
        batched: bool,
    ) -> Result<Vec<Value>> {
        let profiles = Profiles::paper_testbed();
        let mut ctx = ExecCtx::new(&profiles, 0);
        ctx.set_batch(batched);
        let out =
            Chain::new(engine, Shape::One(op)).execute(&mut ctx, inputs, &BroadcastCtx::new())?;
        Ok(out.flatten()?.as_ref().clone())
    }

    fn run(engine: &'static Engine, op: LogicalOp, inputs: &[ChannelData]) -> Result<Vec<Value>> {
        run_in(engine, op, inputs, true)
    }

    /// Every layout a channel can carry `rows` in, plus every empty layout.
    fn layouts(rows: &[Value]) -> Vec<(&'static str, ChannelData, Vec<Value>)> {
        let chunks: Vec<Dataset> = rows.chunks(7).map(|c| Arc::new(c.to_vec())).collect();
        let batches: Vec<Batch> = chunks.iter().map(|c| Batch::from_values(c)).collect();
        let full = |name, data| (name, data, rows.to_vec());
        let empty = |name, data| (name, data, Vec::new());
        vec![
            full("Collection", ChannelData::Collection(Arc::new(rows.to_vec()))),
            full("Partitions", ChannelData::Partitions(Arc::new(chunks))),
            full("Batches", ChannelData::Batches(Arc::new(batches.clone()))),
            full("BatchParts", ChannelData::BatchParts(Arc::new(batches))),
            empty("empty Collection", ChannelData::Collection(Arc::new(Vec::new()))),
            empty("no Partitions", ChannelData::Partitions(Arc::new(Vec::new()))),
            empty("one empty Partition", ChannelData::Partitions(Arc::new(vec![Arc::default()]))),
            empty("empty Batches", ChannelData::Batches(Arc::new(Vec::new()))),
            empty("empty BatchParts", ChannelData::BatchParts(Arc::new(Vec::new()))),
        ]
    }

    /// Layouts that cannot hold rows.
    fn rowless() -> Vec<(&'static str, ChannelData)> {
        vec![
            ("File", ChannelData::File(Arc::new("hdfs://nowhere/part-0.txt".into()))),
            ("Opaque", ChannelData::Opaque { kind: KIND_A, payload: Arc::new(7u8) }),
            ("None", ChannelData::None),
        ]
    }

    /// The landing is total: on slot 0, and on slot 1 of every binary
    /// operator, each layout gives the single-partition kernels' answer (as
    /// a multiset — partitioning reorders) or the typed, non-transient error.
    #[test]
    fn landing_acceptance_matrix() {
        type Reference = fn(&[Value], &[Value]) -> Vec<Value>;
        let key = KeyUdf::field(0);
        let join = LogicalOp::Join { left_key: key.clone(), right_key: key.clone() };
        let ops: [(LogicalOp, Reference); 3] = [
            (LogicalOp::Union, |l, r| [l, r].concat()),
            (join, |l, r| kernels::hash_join(l, r, &KeyUdf::field(0), &KeyUdf::field(0))),
            (LogicalOp::Cartesian, kernels::cartesian),
        ];
        let sorted = |mut v: Vec<Value>| {
            v.sort();
            v
        };
        let here = pairs(0..40, 5);
        let there = pairs(100..125, 5);
        let plain = |rows: &[Value]| ChannelData::Collection(Arc::new(rows.to_vec()));
        for engine in [&A, &B, &C] {
            for (op, reference) in &ops {
                let name = Chain::new(engine, Shape::One(op.clone())).name().to_string();
                for (batched, (layout, data, rows)) in [true, false]
                    .into_iter()
                    .flat_map(|b| layouts(&there).into_iter().map(move |l| (b, l)))
                {
                    let at = format!("{name} {layout} batched={batched}");
                    let inputs = [data.clone(), plain(&here)];
                    let got = run_in(engine, op.clone(), &inputs, batched).unwrap();
                    assert_eq!(sorted(got), sorted(reference(&rows, &here)), "slot 0 of {at}");
                    let inputs = [plain(&here), data];
                    let got = run_in(engine, op.clone(), &inputs, batched).unwrap();
                    assert_eq!(sorted(got), sorted(reference(&here, &rows)), "slot 1 of {at}");
                }
                for (layout, data) in rowless() {
                    for slot in 0..2 {
                        let mut inputs = [plain(&here), plain(&here)];
                        inputs[slot] = data.clone();
                        let err = run(engine, op.clone(), &inputs).unwrap_err();
                        assert!(!err.is_transient(), "{name} slot {slot} {layout}: {err}");
                        let RheemError::Unsupported(msg) = &err else {
                            panic!("{name} slot {slot} {layout}: {err}")
                        };
                        for part in [name.as_str(), &format!("slot {slot}"), layout] {
                            assert!(msg.contains(part), "{msg:?} names no {part:?}");
                        }
                    }
                }
            }
        }
    }

    /// What no engine constant may change: join cardinality, a global sort
    /// order across partitions, the driver round trip, PageRank mass.
    #[test]
    fn engines_agree_on_operator_semantics() {
        let profiles = Profiles::paper_testbed();
        let key = KeyUdf::field(0);
        let parts = |rows: &[Value], chunk| {
            let chunks: Vec<Dataset> = rows.chunks(chunk).map(|c| Arc::new(c.to_vec())).collect();
            ChannelData::Partitions(Arc::new(chunks))
        };
        for engine in [&A, &B, &C] {
            let join = LogicalOp::Join { left_key: key.clone(), right_key: key.clone() };
            let inputs = [parts(&pairs(0..50, 5), 9), parts(&pairs(100..120, 5), 6)];
            // 50 left rows × 4 matches each
            assert_eq!(run(engine, join, &inputs).unwrap().len(), 200);

            let reversed: Vec<Value> = (0..500i64).rev().map(Value::from).collect();
            let sort = LogicalOp::SortBy(KeyUdf::identity());
            let sorted = run(engine, sort, &[parts(&reversed, 77)]).unwrap();
            assert_eq!(sorted.len(), 500);
            assert!(sorted.windows(2).all(|w| w[0] <= w[1]));

            let mut ctx = ExecCtx::new(&profiles, 0);
            let bc = BroadcastCtx::new();
            let rows: Vec<Value> = (0..1000i64).map(Value::from).collect();
            let coll = ChannelData::Collection(Arc::new(rows.clone()));
            let native = FromCollection::new(engine).execute(&mut ctx, &[coll], &bc).unwrap();
            assert_eq!(native.cardinality(), Some(1000));
            let back = Collect::new(engine).execute(&mut ctx, &[native], &bc).unwrap();
            assert_eq!(back.flatten().unwrap().as_ref(), &rows);

            let edges: Vec<Value> = (0..100i64)
                .map(|i| Value::pair(Value::from(i % 10), Value::from((i + 1) % 10)))
                .collect();
            let page_rank = LogicalOp::PageRank { iterations: 5, damping: 0.85 };
            let ranks = run(engine, page_rank, &[parts(&edges, 30)]).unwrap();
            assert_eq!(ranks.len(), 10);
            let total: f64 = ranks.iter().map(|r| r.field(1).as_f64().unwrap()).sum();
            assert!((total - 1.0).abs() < 1e-6);
        }
    }

    /// The shape the mappings build over `ops`.
    fn shape_of(ops: &[LogicalOp]) -> Shape {
        match ops {
            [op] => Shape::One(op.clone()),
            [run @ .., last] if !fused::fusable(last) => {
                Shape::Into(Narrow::new(run.to_vec()).unwrap(), last.clone())
            }
            _ => Shape::Run(Narrow::new(ops.to_vec()).unwrap()),
        }
    }

    /// Each engine reports through its own hook and only there.
    #[test]
    fn hooks_fire_per_exchange_and_per_stage() {
        let profiles = Profiles::paper_testbed();
        let events = |engine: &'static Engine, ops: &[LogicalOp]| {
            let mut ctx = ExecCtx::new(&profiles, 0);
            ctx.set_tracing(true);
            let input = ChannelData::Collection(Arc::new(pairs(0..30, 3)));
            let chain = Chain::new(engine, shape_of(ops));
            chain.execute(&mut ctx, &[input], &BroadcastCtx::new()).unwrap();
            ctx.take_events()
        };
        let names = |engine, ops: &[LogicalOp]| -> Vec<String> {
            events(engine, ops).into_iter().map(|e| e.name).collect()
        };
        let fused = |ops: &[LogicalOp]| -> Vec<String> {
            events(&C, ops).iter().map(|e| format!("{} {:?}", e.name, e.attrs)).collect()
        };
        let distinct = [LogicalOp::Distinct];
        assert_eq!(names(&A, &distinct), ["a.exchange"]);
        assert_eq!(names(&B, &distinct), ["b.stage"]);
        assert!(names(&C, &distinct).is_empty());
        // A global sort is a range re-split, not a hash exchange.
        assert!(names(&A, &[LogicalOp::SortBy(KeyUdf::identity())]).is_empty());
        // A fused run: A exchanges its partials, B lands one stage, and C
        // reports the run itself (two steps, streaming into the aggregation).
        let id = || LogicalOp::Map(crate::udf::MapUdf::new("id", |v| v.clone()));
        let agg = crate::udf::ReduceUdf::new("first", |a, _| a.clone());
        let into_agg = [id(), id(), LogicalOp::ReduceBy { key: KeyUdf::field(0), agg }];
        assert_eq!(names(&A, &into_agg), ["a.exchange"]);
        assert_eq!(names(&B, &into_agg), ["b.stage"]);
        assert_eq!(fused(&into_agg), ["c.fused [(\"steps\", Int(2)), (\"terminal_agg\", Int(1))]"]);
        assert_eq!(
            fused(&into_agg[..2]),
            ["c.fused [(\"steps\", Int(2)), (\"terminal_agg\", Int(0))]"]
        );
    }

    /// The single-partition engine hands its one partition over as the
    /// driver's collection (the columns of a vectorized last run, batched)
    /// and prices no exchanged bytes.
    #[test]
    fn single_partition_engine_hands_over_a_collection() {
        let profiles = Profiles::paper_testbed();
        let rows: Vec<Value> = (0..50i64).map(Value::from).collect();
        let input = ChannelData::Partitions(Arc::new(split_contiguous(&rows, 3)));
        let narrow = [
            LogicalOp::Map(crate::udf::MapUdf::pair_with_int("pair", 1)),
            LogicalOp::Map(crate::udf::MapUdf::field_add_int("inc", 1, 1)),
        ];
        for (ops, batched, want) in [
            (&[LogicalOp::Distinct][..], true, "Collection"),
            (&narrow[..], false, "Collection"),
            (&narrow[..], true, "Batches"),
        ] {
            let mut ctx = ExecCtx::new(&profiles, 0);
            ctx.set_batch(batched);
            let chain = Chain::new(&C, shape_of(ops));
            let out = chain
                .execute(&mut ctx, std::slice::from_ref(&input), &BroadcastCtx::new())
                .unwrap();
            assert!(format!("{out:?}").starts_with(want), "{ops:?} batched={batched}: {out:?}");
            let load = chain.load(&[50.0], 8.0, &CostModel::default());
            assert_eq!((load.net_bytes, load.tasks), (0.0, 1));
        }
    }

    #[test]
    fn exchange_preserves_all_records() {
        let parts: Vec<Dataset> =
            (0..4).map(|p| Arc::new(pairs(p * 100..(p + 1) * 100, 7))).collect();
        let (exchanged, bytes) = exchange(&parts, &KeyUdf::field(0), 4);
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

    /// One side of a join: `(key, payload)` rows over `keys` distinct string
    /// keys starting at `first`, a `skew` share of them on one key, payloads
    /// of varying size (so the sampled byte figure depends on which rows sit
    /// at the sampled positions of each bucket).
    fn side(
        rng: &mut kernels::SplitMix64,
        n: usize,
        first: usize,
        keys: usize,
        skew: f64,
    ) -> Vec<Value> {
        (0..n)
            .map(|i| {
                let k = if rng.chance(skew) { first } else { first + rng.range_usize(keys) };
                let pad = "x".repeat(rng.range_usize(40));
                Value::pair(Value::from(format!("k{k:04}")), Value::from(format!("{i}{pad}")))
            })
            .collect()
    }

    /// What the row join arm ran before it routed: exchange both sides, then
    /// the reference hash join bucket by bucket.
    fn exchanged_join(
        left: &[Dataset],
        right: &[Dataset],
        lk: &KeyUdf,
        rk: &KeyUdf,
        n: usize,
    ) -> (Vec<Vec<Value>>, f64) {
        let (le, b1) = exchange(left, lk, n);
        let (re, b2) = exchange(right, rk, n);
        let out = le.iter().zip(&re).map(|(l, r)| kernels::hash_join_reference(l, r, lk, rk));
        (out.collect(), b1 + b2)
    }

    /// The routed join is the exchanged join: same partitions in the same
    /// order, the same shipped bytes to the bit, `n` task times — from one
    /// table per join.
    #[test]
    fn routed_join_is_exchange_then_bucket_join() {
        let mut rng = kernels::SplitMix64(0x20_301b);
        // (left rows, right rows, right's first key, skew): dimension-shaped,
        // skewed, nothing matches, right larger than left, an empty side.
        let shapes = [
            (900, 60, 0, 0.0),
            (900, 60, 0, 0.8),
            (500, 80, 500, 0.0),
            (70, 1200, 0, 0.3),
            (0, 40, 0, 0.0),
            (300, 0, 0, 0.0),
        ];
        let opaque = KeyUdf::new("first", |v| v.field(0).clone());
        for (nl, nr, first, skew) in shapes {
            let left = side(&mut rng, nl, 0, 64, skew);
            let right = side(&mut rng, nr, first, 64, skew);
            for n in [1usize, 2, 7, 49, 80] {
                for (lparts, rparts) in [(n, 1), (n.div_ceil(2), n)] {
                    let (l, r) =
                        (split_contiguous(&left, lparts), split_contiguous(&right, rparts));
                    for (lk, rk) in
                        [(KeyUdf::field(0), KeyUdf::field(0)), (opaque.clone(), KeyUdf::field(0))]
                    {
                        let at = format!("{nl}x{nr} skew {skew} n={n} {lparts}/{rparts} on {lk:?}");
                        let built = kernels::TABLES_BUILT.lock().unwrap().len();
                        let (got, bytes, times) = routed_join(&l, &r, &lk, &rk, n, 2).unwrap();
                        let tables = kernels::TABLES_BUILT.lock().unwrap()[built..]
                            .iter()
                            .filter(|&&k| {
                                [&lk, &rk].iter().any(|own| *own as *const KeyUdf as usize == k)
                            })
                            .count();
                        assert_eq!(tables, 1, "{at}: one table per join");
                        let (want, want_bytes) = exchanged_join(&l, &r, &lk, &rk, n);
                        let got: Vec<Vec<Value>> = got.iter().map(|p| p.as_ref().clone()).collect();
                        assert_eq!(got, want, "{at}");
                        assert_eq!(
                            bytes.to_bits(),
                            want_bytes.to_bits(),
                            "{at}: {bytes} vs {want_bytes}"
                        );
                        assert_eq!(times.len(), n, "{at}");
                    }
                }
            }
        }
    }

    /// What the join arm tells the clock and the exchange hook is what the
    /// exchange told them, whatever layout each slot arrives in. Neither the
    /// join nor the sort arm has a columnar landing: in batch mode each
    /// reports the columnar rows it materialized, and row input reports
    /// nothing.
    #[test]
    fn join_arm_reports_what_the_exchange_reported() {
        let profiles = Profiles::paper_testbed();
        let mut rng = kernels::SplitMix64(0x20_301c);
        let (left, right) = (side(&mut rng, 700, 0, 32, 0.2), side(&mut rng, 90, 0, 32, 0.2));
        let key = KeyUdf::field(0);
        let (l, r) = (split_contiguous(&left, 7), split_contiguous(&right, 3));
        let columnar = |parts: &[Dataset]| {
            let bs: Vec<Batch> = parts.iter().map(|p| Batch::from_values(p)).collect();
            ChannelData::BatchParts(Arc::new(bs))
        };
        let run = |batched: bool, op: LogicalOp, inputs: &[ChannelData]| {
            let mut ctx = ExecCtx::new(&profiles, 0);
            ctx.set_batch(batched);
            ctx.set_tracing(true);
            let out =
                Chain::new(&A, Shape::One(op)).execute(&mut ctx, inputs, &BroadcastCtx::new());
            let ChannelData::Partitions(got) = out.unwrap() else {
                panic!("row partitions expected")
            };
            let got: Vec<Vec<Value>> = got.iter().map(|p| p.as_ref().clone()).collect();
            (got, ctx.take_events(), ctx.take_vec_stats())
        };
        let reported = |stats: &crate::exec::VecStats, rows: u64| {
            assert_eq!(stats.exch_row_rows, rows);
            assert_eq!(stats.fallback, Some(Fallback::OpaqueSegment).filter(|_| rows > 0));
            assert_eq!((stats.exch_batches, stats.exch_rows), (0, 0));
        };

        let join = LogicalOp::Join { left_key: key.clone(), right_key: key.clone() };
        let (want, want_bytes) = exchanged_join(&l, &r, &key, &key, 7);
        let right_layouts = [(ChannelData::Partitions(Arc::new(r.clone())), 0), (columnar(&r), 90)];
        for (batched, (right, materialized)) in [true, false]
            .into_iter()
            .flat_map(|b| right_layouts.iter().cloned().map(move |l| (b, l)))
        {
            let inputs = [ChannelData::Partitions(Arc::new(l.clone())), right];
            let (got, events, stats) = run(batched, join.clone(), &inputs);
            assert_eq!(got, want);
            assert_eq!(events.len(), 1);
            let attrs: Vec<String> =
                events[0].attrs.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
            let bytes = crate::trace::AttrValue::from(want_bytes);
            assert_eq!(
                attrs,
                [
                    "op=Str(\"Join\")".to_string(),
                    format!("bytes={bytes:?}"),
                    "partitions=Int(7)".to_string()
                ]
            );
            reported(&stats, if batched { materialized } else { 0 });
        }

        // The sort arm: local sorts, one global sort, a contiguous re-split.
        let sorted: Vec<Value> = l.iter().flat_map(|p| kernels::sort_by(p, &key)).collect();
        let want: Vec<Vec<Value>> = split_contiguous(&kernels::sort_by(&sorted, &key), 7)
            .iter()
            .map(|p| p.as_ref().clone())
            .collect();
        let layouts = [(ChannelData::Partitions(Arc::new(l.clone())), 0), (columnar(&l), 700)];
        for (batched, (input, materialized)) in
            [true, false].into_iter().flat_map(|b| layouts.iter().cloned().map(move |l| (b, l)))
        {
            let (got, events, stats) = run(batched, LogicalOp::SortBy(key.clone()), &[input]);
            assert_eq!(got, want);
            assert!(events.is_empty(), "a sort fires no exchange hook");
            reported(&stats, if batched { materialized } else { 0 });
        }
    }

    #[test]
    fn partition_count_scales() {
        assert_eq!(partition_count(100, 80), 1);
        assert!(partition_count(1_000_000, 80) > 1);
        assert!(partition_count(100_000_000, 80) <= 80);
    }

    /// Index order and the first error hold on the pool and on the inline
    /// path, which a single index or a single worker takes on the calling
    /// thread.
    #[test]
    fn runner_keeps_index_order_and_surfaces_errors() {
        let caller = std::thread::current().id();
        for (n, workers) in [(37, 4), (1, 4), (5, 1)] {
            let (out, times) = par_each_idx(n, workers, |i| {
                let inline = std::thread::current().id() == caller;
                Ok((i * i, inline))
            })
            .unwrap();
            let squares: Vec<usize> = out.iter().map(|&(sq, _)| sq).collect();
            assert_eq!(squares, (0..n).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(times.len(), n);
            if n == 1 || workers == 1 {
                assert!(out.iter().all(|&(_, inline)| inline), "n={n} workers={workers}");
            }
        }
        let (none, _) = par_each_idx(0, 4, Ok).unwrap();
        assert!(none.is_empty());
        for (n, workers, fails) in [(8, 2, 5), (1, 4, 0), (5, 1, 3)] {
            let ran = AtomicUsize::new(0);
            let err = par_each_idx(n, workers, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == fails {
                    Err(RheemError::Execution("boom".into()))
                } else {
                    Ok(i)
                }
            });
            assert!(matches!(err, Err(RheemError::Execution(m)) if m == "boom"));
            if workers == 1 {
                // Inline, the first error stops the walk.
                assert_eq!(ran.into_inner(), fails + 1);
            }
        }
    }

    #[test]
    fn text_parts_are_the_lines_partition_lines_deals() {
        let dir = std::env::temp_dir().join(format!("rheem_text_parts_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lines.txt");
        // ~1.2 MB: enough bytes for several partitions.
        let lines: Vec<String> = (0..30_000).map(|i| format!("line {i} of the corpus")).collect();
        rheem_storage::write_lines(&path, &lines).unwrap();
        let bytes = std::fs::metadata(&path).unwrap().len();
        let n = partition_count((bytes / 40) as usize, 80);
        assert!(n > 1);
        let want = rheem_storage::partition_lines(lines, n);
        let (parts, read_ms) = read_text_parts(&path, 80, 2).unwrap();
        assert!(read_ms > 0.0);
        assert_eq!(parts.len(), n);
        for (got, want) in parts.iter().zip(&want) {
            let want: Vec<Value> = want.iter().map(|l| Value::from(l.as_str())).collect();
            assert_eq!(got.as_ref(), &want);
        }
        // Fewer lines than partitions would want: trailing partitions are
        // empty, none is missing.
        let tiny = dir.join("tiny.txt");
        std::fs::write(&tiny, "only\n").unwrap();
        let (parts, _) = read_text_parts(&tiny, 80, 2).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].as_ref(), &vec![Value::from("only")]);
        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "").unwrap();
        let (parts, _) = read_text_parts(&empty, 80, 2).unwrap();
        assert_eq!(parts.len(), 1);
        assert!(parts[0].is_empty());
        // Invalid UTF-8 and a missing file are typed I/O errors.
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, b"ok\n\xff\n").unwrap();
        assert!(matches!(read_text_parts(&bad, 80, 2), Err(RheemError::Io(_))));
        assert!(matches!(read_text_parts(&dir.join("nope"), 80, 2), Err(RheemError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
