//! Cross-job result cache (RHEEMix-style reuse of intermediate results).
//!
//! The paper's data-lake and polystore workloads resubmit overlapping plans
//! over the same sources; RHEEMix makes *reusable channels* (collections,
//! cached RDDs, relations) first-class in costing. This module closes the
//! loop across jobs: the executor publishes reusable committed channels
//! keyed by a canonical **subplan fingerprint**, and the optimizer's
//! inflation phase injects zero-upstream [`CachedSource`] candidates for
//! fingerprint hits — so enumeration *chooses* reuse only when the cache
//! read (costed via [`rheem_storage::StoreCosts`]) beats recomputation.
//!
//! Fingerprints are structural: operator kind + parameters + UDF identity
//! (name + cost hint — names key cost-model parameters and are the UDF
//! identity contract throughout), combined bottom-up with the fingerprints
//! of all inputs and broadcasts. File sources fold in the backing file's
//! length and mtime from [`rheem_storage::stat_meta`], so rewriting a source
//! changes the fingerprint and stale entries can never be served — they age
//! out of the LRU instead. Operators whose output is not a pure function of
//! the fingerprint (samplers, loop heads and bodies, mutable table scans)
//! have no fingerprint, and neither does anything downstream of them.
//!
//! The optimizer probes the cache once per fingerprinted operator, before
//! estimation, and pins each hit operator's estimate to the entry's
//! recorded cardinality: a replay is a measurement, so no optimization
//! checkpoint re-plans around it and a warm job runs in one phase.
//!
//! Publication goes beyond node tails: [`publish_map`] also exposes the
//! *interior cut points* of fused chains ([`crate::fused::cut_points`]), so
//! a later job that shares only a structural prefix of a chain — the same
//! source → tokenize but a different downstream aggregate — still hits.
//! Each cut is computed once, from the cut before it, and none when all
//! are resident ([`ResultCache::publish_cuts_in`]). Publishing a resident
//! fingerprint is a map probe that refreshes its age and sizes nothing,
//! and a node that replays an entry does not publish it again.
//!
//! Storage is two-tiered. The memory budget bounds *resident* bytes; under
//! pressure cold entries are demoted to a disk [`spill`] tier (bounded by
//! its own byte budget) instead of dropped. A lookup is a *probe*: on a
//! spilled entry it returns the entry's size and cardinality but no payload
//! and does no I/O, and [`CachedSource`] prices the replay at the slower
//! [`rheem_storage::spill_costs`] rate so enumeration still weighs the
//! spilled read against recomputation honestly. Only the spilled entries
//! the chosen plan replays are then read back ([`ResultCache::fetch_in`],
//! outside the cache lock) and promoted to memory. Entry sizes are *unique*
//! bytes: interned strings and shared column allocations are sized once,
//! not once per reference.
//!
//! A context has no cache until one is attached
//! ([`crate::api::RheemContext::with_cache`] /
//! [`crate::api::RheemContext::set_cache`], with a disk tier via
//! [`ResultCache::with_disk`]); entries are evicted least-recently-used
//! under the byte budgets.
//!
//! Cache activity is counted once, in [`CacheStats`] (global and per
//! namespace): the context publishes the `rheem_cache_*` metric families
//! from it, and the service watchdog's thrash rule reads it. A replay also
//! shows in its job's trace as a `cache.hit` event; nothing else records
//! hits, inserts, evictions, spills or promotions.

pub mod spill;

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use crate::batch::{Batch, Column};
use crate::builtin::CONTROL;
use crate::channel::{kinds, ChannelData, ChannelKind};
use crate::cost::Load;
use crate::error::{Result, RheemError};
use crate::exec::{ExecCtx, ExecutionOperator, OpMetrics};
use crate::execplan::ExecPlan;
use crate::plan::{LogicalOp, OperatorId, OperatorNode, RheemPlan};
use crate::platform::PlatformId;
use crate::registry::Registry;
use crate::udf::BroadcastCtx;
use crate::value::Dataset;
use rheem_storage::{default_costs, spill_costs, StoreKind};

/// Canonical fingerprint of an operator subplan: a hash over the operator
/// chain, UDF identities, parameters and source-file identity of the whole
/// transitive input closure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fp:{:016x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Version salt: bump when the fingerprint recipe changes so entries from
/// an older recipe cannot alias.
const FP_VERSION: &str = "rheem.cache.v1";

/// Hash cap for in-memory collection sources: content-hashing beyond this
/// many quanta costs more than it saves, so larger collections simply have
/// no fingerprint.
const COLLECTION_HASH_CAP: usize = 1 << 20;

/// Per-operator fingerprints for a plan, indexed by operator id. `None`
/// marks operators whose result is not safely reusable across jobs.
pub fn plan_fingerprints(plan: &RheemPlan) -> Vec<Option<Fingerprint>> {
    plan_fingerprints_with(plan, &HashMap::new())
}

/// [`plan_fingerprints`] with per-operator overrides. Progressive
/// re-planning rewrites materialized subplans into [`LogicalOp::
/// CollectionSource`]s, which would structurally change every downstream
/// fingerprint; pinning the rewritten operators to the fingerprints they
/// carried in the original plan keeps the downstream identities stable, so
/// mid-job replans still hit entries published before the rewrite.
pub fn plan_fingerprints_with(
    plan: &RheemPlan,
    overrides: &HashMap<OperatorId, Fingerprint>,
) -> Vec<Option<Fingerprint>> {
    let n = plan.len();
    let mut fps: Vec<Option<Fingerprint>> = vec![None; n];
    let Ok(topo) = plan.topological_order() else {
        return fps;
    };
    for id in topo {
        if let Some(fp) = overrides.get(&id) {
            fps[id.index()] = Some(*fp);
            continue;
        }
        let node = plan.node(id);
        fps[id.index()] = node_fingerprint(node, &fps);
    }
    fps
}

fn node_fingerprint(node: &OperatorNode, fps: &[Option<Fingerprint>]) -> Option<Fingerprint> {
    // Loop bodies and heads replay with iteration-dependent state; their
    // per-commit values are not THE result of the subplan.
    if node.loop_of.is_some() || node.op.kind().is_loop_head() || node.op.kind().is_sink() {
        return None;
    }
    let mut h = DefaultHasher::new();
    FP_VERSION.hash(&mut h);
    node.op.kind().token().hash(&mut h);
    op_params(&node.op, &mut h)?;
    // Inputs in slot order, then broadcasts by name: any non-reusable
    // upstream poisons the whole subtree.
    for inp in &node.inputs {
        fps[inp.index()]?.0.hash(&mut h);
    }
    for (name, b) in &node.broadcasts {
        name.hash(&mut h);
        fps[b.index()]?.0.hash(&mut h);
    }
    Some(Fingerprint(h.finish()))
}

/// Hash the identity-relevant parameters of one operator; `None` when the
/// operator's output is not a pure function of its structure and inputs.
/// Optimizer hints (`selectivity`, `target_platform`) are deliberately
/// excluded — they steer plan choice, not results.
fn op_params(op: &LogicalOp, h: &mut DefaultHasher) -> Option<()> {
    match op {
        LogicalOp::TextFileSource { path } => {
            path.hash(h);
            // File identity: a rewrite bumps len or mtime and thereby the
            // fingerprint — mtime-based invalidation without a sweeper.
            let meta = rheem_storage::stat_meta(path).ok()?;
            meta.len.hash(h);
            meta.mtime_ns.hash(h);
            (meta.store == StoreKind::Hdfs).hash(h);
        }
        LogicalOp::CollectionSource { data } => {
            if data.len() > COLLECTION_HASH_CAP {
                return None;
            }
            data.len().hash(h);
            for v in data.iter() {
                v.hash(h);
            }
        }
        // The table store is mutable between jobs and exposes no version.
        LogicalOp::TableSource { .. } => return None,
        LogicalOp::Map(u) => hash_udf(h, &u.name, u.cost_hint),
        LogicalOp::FlatMap(u) => hash_udf(h, &u.name, u.cost_hint),
        LogicalOp::Filter(u) => hash_udf(h, &u.name, u.cost_hint),
        LogicalOp::Project { fields } => fields.hash(h),
        LogicalOp::SargFilter { pred, sarg } => {
            hash_udf(h, &pred.name, pred.cost_hint);
            sarg.field.hash(h);
            (sarg.op as u8).hash(h);
            sarg.literal.hash(h);
        }
        // Sample draws depend on the job seed and iteration.
        LogicalOp::Sample { .. } => return None,
        LogicalOp::SortBy(u) => hash_udf(h, &u.name, u.cost_hint),
        LogicalOp::Distinct | LogicalOp::Count | LogicalOp::Union | LogicalOp::Cartesian => {}
        LogicalOp::GroupBy(u) => hash_udf(h, &u.name, u.cost_hint),
        LogicalOp::Reduce(u) => hash_udf(h, &u.name, u.cost_hint),
        LogicalOp::ReduceBy { key, agg } => {
            hash_udf(h, &key.name, key.cost_hint);
            hash_udf(h, &agg.name, agg.cost_hint);
        }
        LogicalOp::Join { left_key, right_key } => {
            hash_udf(h, &left_key.name, left_key.cost_hint);
            hash_udf(h, &right_key.name, right_key.cost_hint);
        }
        LogicalOp::InequalityJoin { conds } => {
            for c in conds {
                c.left_field.hash(h);
                (c.op as u8).hash(h);
                c.right_field.hash(h);
            }
        }
        LogicalOp::PageRank { iterations, damping } => {
            iterations.hash(h);
            damping.to_bits().hash(h);
        }
        // Handled by the guard above; unreachable here.
        LogicalOp::RepeatLoop { .. }
        | LogicalOp::DoWhile { .. }
        | LogicalOp::CollectionSink
        | LogicalOp::TextFileSink { .. } => return None,
    }
    Some(())
}

fn hash_udf(h: &mut DefaultHasher, name: &str, cost_hint: f64) {
    name.hash(h);
    cost_hint.to_bits().hash(h);
}

/// What one exec node publishes after committing: the fingerprint of its
/// tail (the full covered subplan) plus the fingerprints of every interior
/// fused-chain cut point — prefixes `ops[..len]` of the node's logical
/// chain that are themselves valid fused pipelines. A later job sharing
/// only the prefix (same source → tokenize, different aggregate) then hits
/// on the cut entry even though no single node of the first job produced
/// exactly that result.
#[derive(Clone, Debug, Default)]
pub struct NodePublish {
    /// Fingerprint of the node's full covered subplan, when its output
    /// channel is reusable and the subplan is fingerprintable.
    pub tail: Option<Fingerprint>,
    /// Interior cut points as `(prefix_len, fingerprint)` pairs, shortest
    /// first. [`ResultCache::publish_cuts_in`] computes each from the one
    /// before it and publishes the ones not yet resident.
    pub cuts: Vec<(usize, Fingerprint)>,
}

/// Publication schedule for a whole exec plan, indexed like `eplan.nodes`.
/// A node whose tail operator the plan replays from the cache (`replayed`,
/// see [`crate::optimizer::OptimizedPlan::replayed`]) publishes no tail: its
/// value is that entry. Cut points are only emitted for nodes whose logical
/// chain is *linear* (each member feeds exactly the next, no broadcasts) —
/// the shape fused chains have by construction — and land on fusable
/// prefixes, so they can be recomputed from the node's single input.
pub fn publish_map(
    plan: &RheemPlan,
    fps: &[Option<Fingerprint>],
    eplan: &ExecPlan,
    registry: &Registry,
    replayed: &[OperatorId],
) -> Vec<NodePublish> {
    eplan
        .nodes
        .iter()
        .map(|nd| {
            let reusable = registry.channel(nd.exec.output_kind()).reusable;
            let tail = nd
                .tail()
                .filter(|t| reusable && !replayed.contains(t))
                .and_then(|t| fps[t.index()]);
            let mut cuts = Vec::new();
            if nd.logical.len() > 1 && nd.inputs.len() == 1 && nd.broadcasts.is_empty() {
                let linear = plan.node(nd.logical[0]).broadcasts.is_empty()
                    && nd.logical.windows(2).all(|w| {
                        let m = plan.node(w[1]);
                        m.inputs.len() == 1 && m.inputs[0] == w[0] && m.broadcasts.is_empty()
                    });
                if linear {
                    let ops: Vec<LogicalOp> =
                        nd.logical.iter().map(|&id| plan.node(id).op.clone()).collect();
                    for len in crate::fused::cut_points(&ops) {
                        if let Some(fp) = fps[nd.logical[len - 1].index()] {
                            cuts.push((len, fp));
                        }
                    }
                }
            }
            NodePublish { tail, cuts }
        })
        .collect()
}

/// A cache namespace. Entries live in exactly one namespace; lookups and
/// inserts are namespace-scoped so one tenant's working set can neither
/// read nor evict another tenant's entries beyond the global budget rules.
/// [`Namespace::SHARED`] is the default namespace used by the single-tenant
/// API — public datasets published there are visible to every tenant that
/// opts into shared reads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Namespace(pub u64);

impl Namespace {
    /// The default, shared namespace (single-tenant API, public datasets).
    pub const SHARED: Namespace = Namespace(0);

    /// Deterministic namespace for a tenant name (never collides with
    /// [`Namespace::SHARED`]).
    pub fn tenant(name: &str) -> Namespace {
        let mut h = DefaultHasher::new();
        "rheem.cache.ns".hash(&mut h);
        name.hash(&mut h);
        let v = h.finish();
        Namespace(if v == 0 { 1 } else { v })
    }

    /// Whether this is the shared namespace.
    pub fn is_shared(&self) -> bool {
        self.0 == 0
    }
}

/// A cached result in whichever layout the producer committed: row datasets
/// stay row datasets, columnar batches stay columnar — a warm replay hands
/// the consumer the same channel shape the original run produced, so
/// vectorized pipelines downstream of a hit stay vectorized.
#[derive(Clone)]
pub enum CachedPayload {
    /// Row values (collection channel).
    Rows(Dataset),
    /// Columnar batches, kept zero-copy via the shared `Arc`.
    Batches(Arc<Vec<Batch>>),
}

impl CachedPayload {
    /// Capture a committed channel's data for publication. `None` for
    /// channel layouts that are not cacheable (files, opaque payloads).
    pub fn from_channel(data: &ChannelData) -> Option<CachedPayload> {
        match data {
            ChannelData::Collection(d) => Some(CachedPayload::Rows(Arc::clone(d))),
            ChannelData::Batches(b) | ChannelData::BatchParts(b) => {
                Some(CachedPayload::Batches(Arc::clone(b)))
            }
            ChannelData::Partitions(_) => data.flatten().ok().map(CachedPayload::Rows),
            _ => None,
        }
    }

    /// Number of quanta in the payload.
    pub fn len(&self) -> usize {
        match self {
            CachedPayload::Rows(d) => d.len(),
            CachedPayload::Batches(b) => b.iter().map(|x| x.selected_len()).sum(),
        }
    }

    /// Whether the payload holds no quanta.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload as row values (columnar payloads materialize).
    pub fn rows(&self) -> Dataset {
        match self {
            CachedPayload::Rows(d) => Arc::clone(d),
            CachedPayload::Batches(b) => {
                let total: usize = b.iter().map(|x| x.selected_len()).sum();
                let mut out = Vec::with_capacity(total);
                for batch in b.iter() {
                    out.append(&mut batch.to_values());
                }
                Arc::new(out)
            }
        }
    }

    /// The payload as channel data, preserving its layout.
    pub fn to_channel(&self) -> ChannelData {
        match self {
            CachedPayload::Rows(d) => ChannelData::Collection(Arc::clone(d)),
            CachedPayload::Batches(b) => ChannelData::Batches(Arc::clone(b)),
        }
    }

    /// Accounted byte size: unique allocation bytes, so interned strings
    /// and shared column `Arc`s are charged once, not once per reference.
    pub fn accounted_bytes(&self) -> u64 {
        match self {
            CachedPayload::Rows(d) => rows_unique_bytes(d),
            CachedPayload::Batches(b) => batches_unique_bytes(b),
        }
    }
}

/// Unique-allocation byte size of a row dataset: shared `Arc` allocations
/// (interned strings, shared tuples) are sized once and charged a pointer
/// per further reference.
pub fn rows_unique_bytes(rows: &Dataset) -> u64 {
    let mut seen = HashSet::new();
    rows.iter().map(|v| v.unique_bytes(&mut seen)).sum::<usize>() as u64
}

fn column_unique_bytes(col: &Column, seen: &mut HashSet<usize>) -> usize {
    match col {
        Column::Int64(v) => 8 * v.len(),
        Column::Float64(v) => 8 * v.len(),
        Column::Bool(v) => v.len(),
        Column::Str { dict, ids, .. } => {
            let mut b = 4 * ids.len();
            for s in dict {
                b += if seen.insert(Arc::as_ptr(s) as *const u8 as usize) {
                    24 + s.len()
                } else {
                    8
                };
            }
            b
        }
        Column::Row(v) => v.iter().map(|x| x.unique_bytes(seen)).sum(),
    }
}

/// Unique-allocation byte size of a batch vector: bucket batches cut from
/// one chunk share the chunk's column `Arc`s, which are sized once.
pub fn batches_unique_bytes(batches: &[Batch]) -> u64 {
    let mut seen = HashSet::new();
    let mut total = 0usize;
    for b in batches {
        for col in b.columns() {
            total += if seen.insert(Arc::as_ptr(col) as usize) {
                column_unique_bytes(col, &mut seen)
            } else {
                8
            };
        }
        if let Some(sel) = b.selection() {
            total += 4 * sel.len();
        }
    }
    total as u64
}

/// The values of a linear fusable chain `ops` at the prefix lengths `lens`
/// (ascending), from its `input`: each prefix is the steps since the one
/// before it, run over that one's output. The walk stops at steps that do
/// not fuse, which [`crate::fused::cut_points`] never yields.
fn cut_values(ops: &[LogicalOp], lens: &[usize], input: Dataset) -> Vec<Dataset> {
    let bc = BroadcastCtx::new();
    let mut out: Vec<Dataset> = Vec::with_capacity(lens.len());
    let mut done = 0;
    for &len in lens {
        let Some(steps) = crate::fused::FusedPipeline::from_ops(&ops[done..len]) else { break };
        let from = out.last().unwrap_or(&input);
        let vals = Arc::new(steps.run(from, &bc));
        out.push(vals);
        done = len;
    }
    out
}

/// Test builds log every payload sized for publication (`PAYLOADS_SIZED`,
/// below the tests' cut); other builds do nothing here.
#[cfg(not(test))]
fn payload_sized(_: Fingerprint) {}

/// Which storage tier a lookup was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Resident in memory: replay is priced at the local store rate.
    Memory,
    /// On the disk spill tier: replay is priced at the slower
    /// [`rheem_storage::spill_costs`] rate and the payload is read back by
    /// [`ResultCache::fetch_in`].
    Disk,
}

/// A successful cache lookup.
#[derive(Clone)]
pub struct CacheHit {
    /// The cached result (shared, never copied) for memory hits; `None` for
    /// a probe of a spilled entry, whose payload stays on disk until
    /// [`ResultCache::fetch_in`].
    pub payload: Option<CachedPayload>,
    /// Its accounted byte size.
    pub bytes: u64,
    /// Its number of quanta.
    pub card: u64,
    /// The tier the entry was served from.
    pub tier: Tier,
}

/// Counters of a [`ResultCache`], cumulative since creation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry (either tier).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries dropped entirely (quota, budget or disk-budget pressure).
    pub evictions: u64,
    /// Entries demoted from memory to the disk spill tier.
    pub spills: u64,
    /// Spilled entries promoted back to memory on a hit.
    pub promotions: u64,
    /// Entries currently resident (both tiers).
    pub entries: u64,
    /// Bytes currently resident in memory.
    pub bytes: u64,
    /// Entries currently on the disk spill tier.
    pub spilled_entries: u64,
    /// Bytes currently on the disk spill tier.
    pub spilled_bytes: u64,
}

enum Stored {
    Mem(CachedPayload),
    Disk(spill::SpillSlot),
}

struct Entry {
    stored: Stored,
    bytes: u64,
    card: u64,
    last_used: u64,
}

/// Per-namespace resident accounting and cumulative counters. `bytes`
/// spans both tiers — a namespace quota bounds the tenant's total cache
/// footprint, spilled or not.
#[derive(Default, Clone, Copy)]
struct NsState {
    bytes: u64,
    entries: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
    spilled_bytes: u64,
    spills: u64,
    promotions: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<(u64, u64), Entry>,
    ns: HashMap<u64, NsState>,
    quotas: HashMap<u64, u64>,
    clock: u64,
    bytes: u64,
    disk_bytes: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
    spills: u64,
    promotions: u64,
    spill: Option<spill::SpillStore>,
}

impl Inner {
    /// Evict `key` from whichever tier holds it.
    fn evict(&mut self, key: (u64, u64)) {
        let evicted = self.map.remove(&key).expect("victim exists");
        match &evicted.stored {
            Stored::Mem(_) => self.bytes -= evicted.bytes,
            Stored::Disk(slot) => {
                self.disk_bytes -= evicted.bytes;
                if let Some(sp) = &self.spill {
                    sp.remove(*slot);
                }
            }
        }
        self.evictions += 1;
        let st = self.ns.entry(key.0).or_default();
        st.bytes -= evicted.bytes;
        st.entries -= 1;
        st.evictions += 1;
        if matches!(evicted.stored, Stored::Disk(_)) {
            st.spilled_bytes -= evicted.bytes;
        }
    }

    /// LRU victim among entries matching `pred` on the namespace id,
    /// optionally restricted to one storage tier.
    fn victim_where(&self, tier: Option<Tier>, pred: impl Fn(u64) -> bool) -> Option<(u64, u64)> {
        self.map
            .iter()
            .filter(|((ns, _), e)| {
                pred(*ns)
                    && match tier {
                        None => true,
                        Some(Tier::Memory) => matches!(e.stored, Stored::Mem(_)),
                        Some(Tier::Disk) => matches!(e.stored, Stored::Disk(_)),
                    }
            })
            .min_by_key(|(_, e)| e.last_used)
            .map(|(&k, _)| k)
    }

    /// Demote `key` from memory to the spill tier. `false` when spilling is
    /// disabled, the entry is not in memory, or the write failed (the
    /// caller falls back to eviction).
    fn spill_victim(&mut self, key: (u64, u64)) -> bool {
        let Some(sp) = self.spill.as_mut() else { return false };
        let Some(entry) = self.map.get_mut(&key) else { return false };
        let Stored::Mem(payload) = &entry.stored else { return false };
        match sp.write(payload) {
            Ok(slot) => {
                let bytes = entry.bytes;
                entry.stored = Stored::Disk(slot);
                self.bytes -= bytes;
                self.disk_bytes += bytes;
                self.spills += 1;
                let st = self.ns.entry(key.0).or_default();
                st.spilled_bytes += bytes;
                st.spills += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Count a lookup's hit or miss, globally and against its namespace.
    fn count(&mut self, ns: u64, hit: bool) {
        let st = self.ns.entry(ns).or_default();
        if hit {
            self.hits += 1;
            st.hits += 1;
        } else {
            self.misses += 1;
            st.misses += 1;
        }
    }

    /// Bring both tiers back under budget: memory pressure demotes LRU
    /// entries to disk (falling back to eviction when the spill tier is
    /// off, failing, or smaller than the entry), then disk pressure evicts
    /// LRU spilled entries outright — so a full spill tier ages out its
    /// oldest entry, not the one being demoted. Quoted namespaces are
    /// victimized last in both loops so cross-tenant pressure lands on
    /// unquoted entries first.
    fn enforce(&mut self, mem_budget: u64, disk_budget: u64) {
        while self.bytes > mem_budget {
            let quotas = &self.quotas;
            let victim = self
                .victim_where(Some(Tier::Memory), |n| !quotas.contains_key(&n))
                .or_else(|| self.victim_where(Some(Tier::Memory), |_| true))
                .expect("over budget implies a resident entry");
            let vbytes = self.map.get(&victim).map(|e| e.bytes).unwrap_or(0);
            let spilled =
                self.spill.is_some() && vbytes <= disk_budget && self.spill_victim(victim);
            if !spilled {
                self.evict(victim);
            }
        }
        while self.disk_bytes > disk_budget {
            let quotas = &self.quotas;
            let victim = self
                .victim_where(Some(Tier::Disk), |n| !quotas.contains_key(&n))
                .or_else(|| self.victim_where(Some(Tier::Disk), |_| true))
                .expect("over disk budget implies a spilled entry");
            self.evict(victim);
        }
    }
}

/// Shared, size-budgeted cross-job cache of reusable intermediate results,
/// keyed by subplan [`Fingerprint`]. Thread-safe; share one handle across
/// contexts via [`crate::api::RheemContext::with_shared_cache`].
pub struct ResultCache {
    budget: u64,
    disk_budget: u64,
    inner: Mutex<Inner>,
}

impl ResultCache {
    /// A memory-only cache with an explicit byte budget.
    pub fn new(budget_bytes: u64) -> Self {
        Self::with_disk(budget_bytes, 0)
    }

    /// A two-tier cache: `budget_bytes` bounds resident memory and
    /// `disk_budget_bytes` bounds the spill tier (0 disables spilling).
    pub fn with_disk(budget_bytes: u64, disk_budget_bytes: u64) -> Self {
        let mut inner = Inner::default();
        if disk_budget_bytes > 0 {
            inner.spill = Some(spill::SpillStore::new());
        }
        Self {
            budget: budget_bytes.max(1),
            disk_budget: disk_budget_bytes,
            inner: Mutex::new(inner),
        }
    }

    /// The configured memory byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// The configured spill-tier byte budget (0 when spilling is off).
    pub fn disk_budget_bytes(&self) -> u64 {
        self.disk_budget
    }

    /// Reserve `quota_bytes` for a namespace. A quoted namespace is bounded
    /// above by its quota (within-namespace LRU eviction keeps it there) and
    /// protected below it: global-budget pressure evicts from *unquoted*
    /// namespaces first, so as long as the quotas sum to at most the budget,
    /// no tenant can force another tenant's entries out. The quota spans
    /// both tiers: spilling an entry does not shrink its owner's footprint.
    pub fn set_quota(&self, ns: Namespace, quota_bytes: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.quotas.insert(ns.0, quota_bytes.min(self.budget + self.disk_budget));
    }

    /// The quota configured for a namespace, if any.
    pub fn quota_of(&self, ns: Namespace) -> Option<u64> {
        self.inner.lock().unwrap().quotas.get(&ns.0).copied()
    }

    /// Whether a fingerprint is resident in `ns` (either tier). Unlike
    /// [`Self::lookup_in`] this counts nothing and refreshes nothing —
    /// [`Self::publish_cuts_in`] uses it to skip computing resident cuts.
    pub fn contains_in(&self, ns: Namespace, fp: Fingerprint) -> bool {
        self.inner.lock().unwrap().map.contains_key(&(ns.0, fp.0))
    }

    /// Look up a fingerprint in the shared namespace; counts a hit or miss
    /// and refreshes LRU age.
    pub fn lookup(&self, fp: Fingerprint) -> Option<CacheHit> {
        self.lookup_in(Namespace::SHARED, fp)
    }

    /// Namespace-scoped probe: only entries published into `ns` are
    /// visible. The hit/miss is counted both globally and against `ns`.
    /// It holds the cache lock only to read the entry and does no I/O: a
    /// memory hit carries its shared payload, a hit on a spilled entry only
    /// its size, cardinality and [`Tier::Disk`] — enough for the caller to
    /// price the replay at the disk rate. [`Self::fetch_in`] reads the
    /// payload of a spilled entry the caller decides to replay.
    pub fn lookup_in(&self, ns: Namespace, fp: Fingerprint) -> Option<CacheHit> {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.clock += 1;
        let hit = inner.map.get_mut(&(ns.0, fp.0)).map(|e| {
            e.last_used = inner.clock;
            let (payload, tier) = match &e.stored {
                Stored::Mem(p) => (Some(p.clone()), Tier::Memory),
                Stored::Disk(_) => (None, Tier::Disk),
            };
            CacheHit { payload, bytes: e.bytes, card: e.card, tier }
        });
        inner.count(ns.0, hit.is_some());
        hit
    }

    /// The payload of an entry a probe ([`Self::lookup_in`]) found. A
    /// resident entry is returned as is. A spilled one is read back with
    /// the cache lock released, then promoted to memory (re-running budget
    /// enforcement, so some other cold entry may spill) — unless a
    /// concurrent fetch promoted it meanwhile, whose payload is returned
    /// instead. `None` when the entry is gone, or when its spill file is
    /// missing or corrupt: then the entry is evicted and a miss counted, so
    /// the next probe misses too.
    pub fn fetch_in(&self, ns: Namespace, fp: Fingerprint) -> Option<CachedPayload> {
        let key = (ns.0, fp.0);
        loop {
            let (slot, path) = {
                let inner = self.inner.lock().expect("cache lock poisoned");
                match inner.map.get(&key)?.stored {
                    Stored::Mem(ref p) => return Some(p.clone()),
                    Stored::Disk(slot) => (slot, inner.spill.as_ref()?.path_of(slot)),
                }
            };
            let read = spill::read(&path);
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            return match (inner.map.get(&key).map(|e| &e.stored), read) {
                (Some(Stored::Mem(p)), _) => Some(p.clone()),
                // Promoted and spilled again since: its old file is gone.
                (Some(&Stored::Disk(now)), Err(_)) if now != slot => continue,
                (Some(&Stored::Disk(now)), Ok(payload)) => {
                    // Promote: the freshest entry in LRU order.
                    if let Some(sp) = &inner.spill {
                        sp.remove(now);
                    }
                    inner.clock += 1;
                    let clock = inner.clock;
                    let e = inner.map.get_mut(&key).expect("promoted entry exists");
                    (e.stored, e.last_used) = (Stored::Mem(payload.clone()), clock);
                    let bytes = e.bytes;
                    inner.disk_bytes -= bytes;
                    inner.bytes += bytes;
                    inner.promotions += 1;
                    let st = inner.ns.entry(ns.0).or_default();
                    st.spilled_bytes -= bytes;
                    st.promotions += 1;
                    inner.enforce(self.budget, self.disk_budget);
                    Some(payload)
                }
                (None, _) => None,
                (Some(_), _) => {
                    inner.evict(key);
                    inner.count(ns.0, false);
                    None
                }
            };
        }
    }

    /// Publish a result into the shared namespace. See [`Self::insert_in`].
    pub fn insert(&self, fp: Fingerprint, data: Dataset) {
        self.insert_in(Namespace::SHARED, fp, data)
    }

    /// Publish a row dataset into a namespace. See
    /// [`Self::insert_payload_in`].
    pub fn insert_in(&self, ns: Namespace, fp: Fingerprint, data: Dataset) {
        self.insert_payload_in(ns, fp, CachedPayload::Rows(data))
    }

    /// Publish a committed channel into a namespace, preserving its layout
    /// (columnar stays columnar). Non-cacheable layouts are ignored. A
    /// resident fingerprint is refreshed before the channel is captured, so
    /// a partitioned channel is not flattened to be thrown away.
    pub fn insert_channel_in(&self, ns: Namespace, fp: Fingerprint, data: &ChannelData) {
        self.publish_in(ns, fp, || CachedPayload::from_channel(data))
    }

    /// Publish a result into a namespace. Re-publishing a resident
    /// fingerprint is a map probe: it only refreshes the entry's age,
    /// subject to the quota test on its recorded bytes, and sizes nothing.
    /// A new result over the whole memory budget — or over the namespace
    /// quota, when one is set — is rejected. Eviction order is
    /// deterministic (the LRU clock is unique per operation): first
    /// within-namespace LRU eviction until the quota holds, then
    /// memory-budget enforcement, which demotes LRU entries from unquoted
    /// namespaces to the spill tier (or evicts, when spilling is off or the
    /// disk budget is exhausted).
    pub fn insert_payload_in(&self, ns: Namespace, fp: Fingerprint, payload: CachedPayload) {
        self.publish_in(ns, fp, || Some(payload))
    }

    fn publish_in(
        &self,
        ns: Namespace,
        fp: Fingerprint,
        payload: impl FnOnce() -> Option<CachedPayload>,
    ) {
        if self.refresh_in(ns, fp) {
            return;
        }
        let Some(payload) = payload() else { return };
        // Sized outside the lock: unique-bytes accounting walks the payload.
        payload_sized(fp);
        let bytes = payload.accounted_bytes().max(1);
        if bytes > self.budget {
            return;
        }
        let card = payload.len() as u64;
        let mut inner = self.inner.lock().unwrap();
        let quota = inner.quotas.get(&ns.0).copied();
        if quota.is_some_and(|q| bytes > q) {
            return;
        }
        inner.clock += 1;
        let clock = inner.clock;
        // Published by a concurrent job while this one was sizing.
        if let Some(e) = inner.map.get_mut(&(ns.0, fp.0)) {
            e.last_used = clock;
            return;
        }
        inner.map.insert(
            (ns.0, fp.0),
            Entry { stored: Stored::Mem(payload), bytes, card, last_used: clock },
        );
        inner.bytes += bytes;
        inner.inserts += 1;
        {
            let st = inner.ns.entry(ns.0).or_default();
            st.bytes += bytes;
            st.entries += 1;
            st.inserts += 1;
        }
        if let Some(q) = quota {
            while inner.ns.get(&ns.0).map(|s| s.bytes).unwrap_or(0) > q {
                let victim = inner
                    .victim_where(None, |n| n == ns.0)
                    .expect("over quota implies non-empty namespace");
                inner.evict(victim);
            }
        }
        inner.enforce(self.budget, self.disk_budget);
    }

    /// The re-publication of a resident fingerprint: refresh its age unless
    /// its recorded bytes exceed the namespace quota. `false` when the
    /// fingerprint is not resident.
    fn refresh_in(&self, ns: Namespace, fp: Fingerprint) -> bool {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let quota = inner.quotas.get(&ns.0).copied();
        let Some(e) = inner.map.get_mut(&(ns.0, fp.0)) else { return false };
        if quota.is_none_or(|q| e.bytes <= q) {
            inner.clock += 1;
            e.last_used = inner.clock;
        }
        true
    }

    /// Publish the interior fused-chain cut points of a committed node
    /// whose logical `chain` read `input` (see [`NodePublish::cuts`]):
    /// structurally shared *prefixes* `ops[..len]` of the chain that no
    /// single node produced. Nothing is computed when every cut is
    /// resident. Otherwise cut *k* is `ops[len_{k-1}..len_k]` run over cut
    /// *k−1*'s output (over `input` for the first) — narrow fusable steps
    /// compose, so each cut equals its prefix run over the input — up to
    /// the last missing cut, and only the missing cuts are published.
    pub fn publish_cuts_in(
        &self,
        ns: Namespace,
        plan: &RheemPlan,
        chain: &[OperatorId],
        cuts: &[(usize, Fingerprint)],
        input: &ChannelData,
    ) {
        let missing: Vec<bool> = cuts.iter().map(|&(_, fp)| !self.contains_in(ns, fp)).collect();
        let Some(last) = missing.iter().rposition(|&m| m) else { return };
        let Ok(rows) = input.flatten() else { return };
        let lens: Vec<usize> = cuts[..=last].iter().map(|&(len, _)| len).collect();
        let ops: Vec<LogicalOp> =
            chain[..lens[last]].iter().map(|&id| plan.node(id).op.clone()).collect();
        for ((vals, &(_, fp)), &missing) in
            cut_values(&ops, &lens, rows).into_iter().zip(cuts).zip(&missing)
        {
            if missing {
                self.insert_in(ns, fp, vals);
            }
        }
    }

    /// Snapshot the global counters (all namespaces combined).
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        let spilled_entries =
            inner.map.values().filter(|e| matches!(e.stored, Stored::Disk(_))).count() as u64;
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            inserts: inner.inserts,
            evictions: inner.evictions,
            spills: inner.spills,
            promotions: inner.promotions,
            entries: inner.map.len() as u64,
            bytes: inner.bytes,
            spilled_entries,
            spilled_bytes: inner.disk_bytes,
        }
    }

    /// Snapshot one namespace's counters and resident footprint.
    pub fn stats_of(&self, ns: Namespace) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        let st = inner.ns.get(&ns.0).copied().unwrap_or_default();
        let spilled_entries = inner
            .map
            .iter()
            .filter(|((n, _), e)| *n == ns.0 && matches!(e.stored, Stored::Disk(_)))
            .count() as u64;
        CacheStats {
            hits: st.hits,
            misses: st.misses,
            inserts: st.inserts,
            evictions: st.evictions,
            spills: st.spills,
            promotions: st.promotions,
            entries: st.entries,
            bytes: st.bytes,
            spilled_entries,
            spilled_bytes: st.spilled_bytes,
        }
    }

    /// Drop all entries in every namespace, both tiers (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.bytes = 0;
        inner.disk_bytes = 0;
        inner.map.clear();
        if let Some(sp) = inner.spill.as_mut() {
            sp.clear();
        }
        for st in inner.ns.values_mut() {
            st.bytes = 0;
            st.entries = 0;
            st.spilled_bytes = 0;
        }
    }
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "ResultCache({} entries, {}/{} bytes, {} spilled, {} hits, {} misses)",
            s.entries, s.bytes, self.budget, s.spilled_bytes, s.hits, s.misses
        )
    }
}

/// Zero-input execution operator replaying a cached subplan result. The
/// optimizer injects one per fingerprint hit, covering the hit operator's
/// whole input closure; enumeration picks it only when the replay cost
/// (store read via [`rheem_storage::StoreCosts`] at the hit tier's rate,
/// plus conversion out of the collection channel) undercuts recomputation.
/// The CPU charge goes through [`crate::cost::linear_cpu`] under the
/// `rheem.driver.cachedsource` key, so measured replays calibrate it like
/// any other operator.
pub struct CachedSource {
    /// `None` while it prices a probe of a spilled entry; the optimizer
    /// fetches the payload of every one its chosen plan replays.
    payload: Option<CachedPayload>,
    bytes: u64,
    card: u64,
    read_ms: f64,
    /// Ratio of the local read rate to the hit tier's read rate: 1.0 for
    /// memory hits, >1 for disk hits — scales the costed disk traffic.
    disk_factor: f64,
    tier: Tier,
    fp: Fingerprint,
}

impl CachedSource {
    /// Wrap a cache hit for operator-level replay, priced at the tier the
    /// hit was served from.
    pub fn new(hit: CacheHit, fp: Fingerprint) -> Self {
        let local = default_costs(StoreKind::Local);
        let costs = match hit.tier {
            Tier::Memory => local,
            Tier::Disk => spill_costs(),
        };
        let read_ms = costs.read_ms(hit.bytes);
        let disk_factor = local.read_mb_per_sec / costs.read_mb_per_sec;
        Self {
            payload: hit.payload,
            bytes: hit.bytes,
            card: hit.card,
            read_ms,
            disk_factor,
            tier: hit.tier,
            fp,
        }
    }

    /// The fixed virtual replay charge (tier-priced store read).
    pub fn read_ms(&self) -> f64 {
        self.read_ms
    }

    /// The tier the wrapped hit was served from.
    pub fn tier(&self) -> Tier {
        self.tier
    }
}

impl ExecutionOperator for CachedSource {
    fn name(&self) -> &str {
        "CachedSource"
    }
    fn platform(&self) -> PlatformId {
        CONTROL
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, _in_cards: &[f64], _avg_bytes: f64, model: &crate::cost::CostModel) -> Load {
        // Mirror the runtime charge: a store read of the cached bytes (at
        // the tier's rate) plus a learnable per-quantum touch. Defaults
        // reproduce the historical 10 cycles/quantum until calibration.
        Load {
            cpu_cycles: crate::cost::linear_cpu(
                model,
                CONTROL.0,
                "cachedsource",
                self.card as f64,
                0.0,
                10.0,
                0.0,
            ),
            disk_bytes: self.bytes as f64 * self.disk_factor,
            net_bytes: 0.0,
            mem_bytes: self.bytes as f64,
            tasks: 1,
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        _inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        let payload = self.payload.as_ref().ok_or_else(|| {
            RheemError::Optimizer(format!("cache entry {} was probed but never fetched", self.fp))
        })?;
        ctx.trace_event("cache.hit", || {
            vec![
                ("fingerprint".to_string(), self.fp.to_string().into()),
                ("tuples".to_string(), (self.card as usize).into()),
                ("bytes".to_string(), (self.bytes as usize).into()),
                (
                    "tier".to_string(),
                    match self.tier {
                        Tier::Memory => "memory",
                        Tier::Disk => "disk",
                    }
                    .to_string()
                    .into(),
                ),
            ]
        });
        // Fixed virtual charge (not wall time): replays must cost the same
        // on every run for results and traces to stay identical.
        // in_card carries the replayed cardinality so the learner can fit
        // the per-quantum replay cost from measured samples.
        ctx.record(OpMetrics {
            name: "CachedSource".to_string(),
            platform: CONTROL,
            in_card: self.card,
            out_card: self.card,
            virtual_ms: self.read_ms,
            real_ms: 0.0,
        });
        Ok(payload.to_channel())
    }
}

/// The fingerprints whose payloads were sized for publication in this
/// process, in order. A test finds its own by the fingerprints it owns,
/// whatever other tests publish meanwhile.
#[cfg(test)]
static PAYLOADS_SIZED: Mutex<Vec<Fingerprint>> = Mutex::new(Vec::new());

#[cfg(test)]
fn payload_sized(fp: Fingerprint) {
    PAYLOADS_SIZED.lock().unwrap().push(fp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::dataset_bytes;
    use crate::plan::PlanBuilder;
    use crate::udf::{KeyUdf, MapUdf, ReduceUdf};
    use crate::value::Value;

    fn dataset(n: usize) -> Dataset {
        Arc::new((0..n as i64).map(Value::from).collect())
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn lookup_miss_then_hit() {
        let cache = ResultCache::new(1 << 20);
        assert!(cache.lookup(fp(1)).is_none());
        cache.insert(fp(1), dataset(10));
        let hit = cache.lookup(fp(1)).expect("hit");
        assert_eq!(hit.payload.map(|p| p.len()), Some(10));
        assert_eq!(hit.card, 10);
        assert_eq!(hit.tier, Tier::Memory);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn lru_eviction_under_budget() {
        // Each 100-int dataset accounts a few hundred bytes; a small budget
        // holds roughly two of them. Int datasets share no allocations, so
        // unique accounting matches the sampled estimate exactly.
        let one = (dataset_bytes(&dataset(100)).ceil() as u64).max(1);
        assert_eq!(one, rows_unique_bytes(&dataset(100)));
        let cache = ResultCache::new(2 * one + one / 2);
        cache.insert(fp(1), dataset(100));
        cache.insert(fp(2), dataset(100));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(fp(1)).is_some());
        cache.insert(fp(3), dataset(100));
        assert!(cache.lookup(fp(2)).is_none(), "LRU entry evicted");
        assert!(cache.lookup(fp(1)).is_some());
        assert!(cache.lookup(fp(3)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.spills, 0, "no spill tier configured");
        assert!(s.bytes <= cache.budget_bytes());
    }

    #[test]
    fn oversized_result_rejected() {
        let cache = ResultCache::new(8);
        cache.insert(fp(1), dataset(1000));
        assert!(cache.lookup(fp(1)).is_none());
        assert_eq!(cache.stats().inserts, 0);
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(fp(1), dataset(5));
        cache.insert(fp(1), dataset(5));
        let s = cache.stats();
        assert_eq!((s.inserts, s.entries), (1, 1));
    }

    /// Re-publishing a resident fingerprint is a map probe: it refreshes
    /// the entry's age (the LRU victim is the other entry) and sizes
    /// nothing, whichever way it is published.
    #[test]
    fn republishing_a_resident_fingerprint_sizes_nothing() {
        let (a, b, c) = (fp(0x5123_0001), fp(0x5123_0002), fp(0x5123_0003));
        let sized = |key| PAYLOADS_SIZED.lock().unwrap().iter().filter(|&&f| f == key).count();
        let one = rows_unique_bytes(&dataset(100));
        let cache = ResultCache::new(2 * one + one / 2);
        cache.insert(a, dataset(100));
        cache.insert(b, dataset(100));
        assert_eq!((sized(a), sized(b)), (1, 1));
        cache.insert(a, dataset(100));
        cache.insert_channel_in(Namespace::SHARED, a, &ChannelData::Collection(dataset(100)));
        assert_eq!(sized(a), 1, "a resident fingerprint was sized again");
        assert_eq!(cache.stats().inserts, 2);
        cache.insert(c, dataset(100));
        assert!(cache.contains_in(Namespace::SHARED, a), "the refreshed entry was evicted");
        assert!(!cache.contains_in(Namespace::SHARED, b), "the LRU entry survived");
    }

    /// Each cut of a chain computed from the one before it equals its whole
    /// prefix run over the chain's input.
    #[test]
    fn incremental_cuts_equal_their_prefixes() {
        use crate::udf::{FlatMapUdf, PredicateUdf};
        let ops = vec![
            LogicalOp::FlatMap(FlatMapUdf::new("cut_split", |v| {
                v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
            })),
            LogicalOp::Filter(PredicateUdf::new("cut_long", |v| {
                v.as_str().is_some_and(|w| w.len() > 2)
            })),
            LogicalOp::Map(MapUdf::new("cut_pair", |w| Value::pair(w.clone(), Value::from(1)))),
            LogicalOp::ReduceBy { key: KeyUdf::field(0), agg: ReduceUdf::pair_int_sum("cut_n") },
        ];
        let lens = crate::fused::cut_points(&ops);
        assert_eq!(lens, [1, 2, 3]);
        let input: Dataset = Arc::new(
            (0..40).map(|i| Value::from(format!("w{} ab w{} xyz{i}", i % 7, i % 3))).collect(),
        );
        let cuts = cut_values(&ops, &lens, Arc::clone(&input));
        assert_eq!(cuts.len(), lens.len());
        let bc = BroadcastCtx::new();
        for (vals, &len) in cuts.iter().zip(&lens) {
            let whole = crate::fused::FusedPipeline::from_ops(&ops[..len]).unwrap();
            assert_eq!(**vals, whole.run(&input, &bc), "cut at {len}");
        }
    }

    #[test]
    fn shared_strings_accounted_once() {
        let s: Arc<str> = Arc::from("a-long-shared-token");
        let rows: Dataset = Arc::new(
            (0..100i64).map(|i| Value::pair(Value::Str(Arc::clone(&s)), Value::from(i))).collect(),
        );
        let bytes = rows_unique_bytes(&rows);
        // First row pays the string allocation (24 + len); the other 99
        // references pay one pointer each.
        let expect = (24 + (24 + 19) + 16) + 99 * (24 + 8 + 16);
        assert_eq!(bytes, expect as u64);
        // The sampled per-row estimate charges the allocation every row.
        let naive = dataset_bytes(&rows).ceil() as u64;
        assert!(naive > bytes, "naive {naive} <= unique {bytes}");
    }

    #[test]
    fn contains_does_not_count_stats() {
        let cache = ResultCache::new(1 << 20);
        assert!(!cache.contains_in(Namespace::SHARED, fp(1)));
        cache.insert(fp(1), dataset(3));
        assert!(cache.contains_in(Namespace::SHARED, fp(1)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn spill_keeps_entries_reachable_and_promotes() {
        let one = rows_unique_bytes(&dataset(100)).max(1);
        let cache = ResultCache::with_disk(2 * one + one / 2, 10 * one);
        for i in 0..5 {
            cache.insert(fp(i), dataset(100));
        }
        let s = cache.stats();
        assert!(s.bytes <= cache.budget_bytes(), "resident bytes bounded");
        assert_eq!(s.evictions, 0, "pressure spills instead of dropping");
        assert_eq!(s.spills, 3);
        assert_eq!(s.spilled_entries, 3);
        assert_eq!(s.entries, 5, "every insert still reachable");
        // A spilled entry still hits. The probe reports the disk tier, the
        // entry's size and cardinality, and leaves both tiers and the spill
        // file as they were.
        let path = spill_path(&cache, fp(0));
        let file = std::fs::read(&path).unwrap();
        let hit = cache.lookup(fp(0)).expect("spilled entry reachable");
        assert_eq!((hit.tier, hit.card, hit.bytes), (Tier::Disk, 100, one));
        assert!(hit.payload.is_none(), "a probe reads no payload");
        let after_probe = cache.stats();
        assert_eq!(after_probe.hits, 1);
        assert_eq!(
            (after_probe.spills, after_probe.promotions, after_probe.spilled_entries),
            (s.spills, s.promotions, s.spilled_entries)
        );
        assert_eq!(after_probe.spilled_bytes, s.spilled_bytes);
        assert_eq!(std::fs::read(&path).unwrap(), file, "the probe touched the spill file");
        // Fetching promotes it exactly once, within the memory budget.
        let payload = cache.fetch_in(Namespace::SHARED, fp(0)).expect("fetched");
        assert_eq!(payload.rows(), dataset(100));
        let s2 = cache.stats();
        assert_eq!(s2.promotions, 1);
        assert!(s2.bytes <= cache.budget_bytes(), "promotion re-enforces the budget");
        assert!(!path.exists(), "a promoted entry's spill file is removed");
        // The promoted entry is now a memory hit, and fetching it again
        // promotes nothing.
        assert!(cache.fetch_in(Namespace::SHARED, fp(0)).is_some());
        assert_eq!(cache.stats().promotions, 1);
        let again = cache.lookup(fp(0)).unwrap();
        assert_eq!((again.tier, again.payload.is_some()), (Tier::Memory, true));
    }

    /// The spill file of a spilled shared-namespace entry.
    fn spill_path(cache: &ResultCache, key: Fingerprint) -> std::path::PathBuf {
        let inner = cache.inner.lock().unwrap();
        let Stored::Disk(slot) = inner.map[&(0, key.0)].stored else { panic!("not spilled") };
        inner.spill.as_ref().unwrap().path_of(slot)
    }

    /// A two-tier cache in which `fp(0)` holds `rows` on the disk tier.
    fn spilled(rows: Dataset) -> ResultCache {
        let one = rows_unique_bytes(&rows);
        let cache = ResultCache::with_disk(one + one / 2, 10 * one);
        cache.insert(fp(0), Arc::clone(&rows));
        cache.insert(fp(1), rows);
        assert_eq!(cache.lookup(fp(0)).map(|h| h.tier), Some(Tier::Disk));
        cache
    }

    /// A failed fetch evicts the entry and counts a miss; the cache stays
    /// usable (no poisoned lock) for the next insert and lookup.
    fn assert_fetch_fails_cleanly(cache: &ResultCache, what: &str) {
        let before = cache.stats();
        assert!(cache.fetch_in(Namespace::SHARED, fp(0)).is_none(), "{what}: fetched");
        let after = cache.stats();
        assert_eq!(after.evictions, before.evictions + 1, "{what}: entry not evicted");
        assert_eq!(after.misses, before.misses + 1, "{what}: miss not counted");
        assert_eq!(after.spilled_entries, before.spilled_entries - 1, "{what}");
        assert!(cache.lookup(fp(0)).is_none(), "{what}: the next probe must miss");
        cache.insert(fp(2), dataset(3));
        assert_eq!(cache.lookup(fp(2)).map(|h| h.tier), Some(Tier::Memory), "{what}");
    }

    #[test]
    fn fetch_of_a_removed_spill_file_evicts_the_entry() {
        let cache = spilled(dataset(100));
        std::fs::remove_file(spill_path(&cache, fp(0))).unwrap();
        assert_fetch_fails_cleanly(&cache, "removed file");
    }

    #[test]
    fn corrupt_length_prefixes_degrade_to_a_miss() {
        for (at, len) in spill::tests::LENGTH_PREFIXES {
            let cache = spilled(spill::tests::word_rows());
            let path = spill_path(&cache, fp(0));
            let mut bad = std::fs::read(&path).unwrap();
            bad[at..at + len].fill(0xFF);
            std::fs::write(&path, &bad).unwrap();
            assert!(spill::read(&path).is_err());
            assert_fetch_fails_cleanly(&cache, &format!("prefix at {at}"));
        }
    }

    /// A probe prices a spilled entry exactly as a read of it would: the
    /// replay charge and the load are the same bits with or without the
    /// payload in hand.
    #[test]
    fn a_probe_prices_like_a_read() {
        let cache = spilled(dataset(1000));
        let probe = cache.lookup(fp(0)).unwrap();
        let read = CacheHit {
            payload: Some(spill::read(&spill_path(&cache, fp(0))).unwrap()),
            ..probe.clone()
        };
        let (probed, fetched) = (CachedSource::new(probe, fp(0)), CachedSource::new(read, fp(0)));
        assert_eq!(probed.read_ms().to_bits(), fetched.read_ms().to_bits());
        let model = crate::cost::CostModel::new();
        let (lp, lf) = (probed.load(&[], 0.0, &model), fetched.load(&[], 0.0, &model));
        assert_eq!(
            [lp.cpu_cycles, lp.disk_bytes, lp.mem_bytes].map(f64::to_bits),
            [lf.cpu_cycles, lf.disk_bytes, lf.mem_bytes].map(f64::to_bits)
        );
        // Executing an unfetched probe is a typed error, not a panic.
        let profiles = crate::platform::Profiles::bare();
        let mut ctx = ExecCtx::new(&profiles, 0);
        assert!(probed.execute(&mut ctx, &[], &BroadcastCtx::new()).is_err());
    }

    /// An expensive java.streams row map: enough of a platform to run
    /// source -> map -> map -> collect inside this crate.
    struct RowMap(MapUdf);

    impl ExecutionOperator for RowMap {
        fn name(&self) -> &str {
            "RowMap"
        }
        fn platform(&self) -> PlatformId {
            crate::platform::ids::JAVA_STREAMS
        }
        fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
            vec![kinds::COLLECTION]
        }
        fn output_kind(&self) -> ChannelKind {
            kinds::COLLECTION
        }
        fn load(&self, in_cards: &[f64], _bytes: f64, _model: &crate::cost::CostModel) -> Load {
            Load::cpu(1e6 * in_cards.iter().sum::<f64>())
        }
        fn execute(
            &self,
            _ctx: &mut ExecCtx<'_>,
            inputs: &[ChannelData],
            bc: &BroadcastCtx,
        ) -> Result<ChannelData> {
            let rows = inputs[0].flatten()?;
            Ok(ChannelData::Collection(Arc::new(rows.iter().map(|v| self.0.call(v, bc)).collect())))
        }
    }

    /// Losing the spill files of the entries a warm plan would replay,
    /// between their probe and their fetch, re-plans the job to
    /// recomputation instead of failing it.
    #[test]
    fn an_unreadable_chosen_entry_re_plans_to_recomputation() {
        use crate::mapping::{Candidate, FnMapping};
        let mut ctx = crate::api::RheemContext::new();
        ctx.registry_mut().add_mapping(Arc::new(FnMapping(
            |_: &RheemPlan, node: &OperatorNode| match &node.op {
                LogicalOp::Map(u) => vec![Candidate::single(node.id, Arc::new(RowMap(u.clone())))],
                _ => vec![],
            },
        )));
        let mut b = PlanBuilder::new();
        let sink = b
            .collection((0..500i64).map(Value::from).collect::<Vec<_>>())
            .map(MapUdf::new("inc", |v| Value::from(v.as_int().unwrap_or(0) + 1)))
            .map(MapUdf::new("dbl", |v| Value::from(v.as_int().unwrap_or(0) * 2)))
            .collect();
        let plan = b.build().unwrap();
        let one = rows_unique_bytes(&dataset(500));
        let cache = Arc::new(ResultCache::with_disk(one + one / 2, 100 * one));
        let ctx = ctx.with_shared_cache(Arc::clone(&cache));
        let cold = ctx.execute(&plan).unwrap().sink(sink).unwrap().to_vec();
        assert_eq!(cache.stats().inserts, 3, "the source and both maps publish");

        // Push every entry to disk, then lose their spill files: the
        // probes still hit, every fetch fails.
        cache.insert(fp(u64::MAX), dataset(500));
        let lost: Vec<Fingerprint> = {
            let inner = cache.inner.lock().unwrap();
            inner
                .map
                .iter()
                .filter(|(_, e)| matches!(e.stored, Stored::Disk(_)))
                .map(|(k, _)| fp(k.1))
                .collect()
        };
        assert_eq!(lost.len(), 3);
        for key in lost {
            std::fs::remove_file(spill_path(&cache, key)).unwrap();
        }
        let before = cache.stats();
        let opt = ctx.optimize(&plan).unwrap();
        let after = cache.stats();
        assert!(after.hits > before.hits, "the warm job must probe the spilled entries");
        assert!(after.evictions > before.evictions, "the chosen replay was never fetched");
        assert!(
            plan.operators().iter().all(|n| opt.candidate_of(n.id).exec.name() != "CachedSource"),
            "nothing readable is left to replay"
        );
        let warm = ctx.execute(&plan).unwrap().sink(sink).unwrap().to_vec();
        assert_eq!(warm, cold, "re-planned job changed the answer");
    }

    #[test]
    fn disk_budget_bounds_spill_tier() {
        let one = rows_unique_bytes(&dataset(100)).max(1);
        let cache = ResultCache::with_disk(one + one / 2, 2 * one + one / 2);
        for i in 0..5 {
            cache.insert(fp(i), dataset(100));
        }
        let s = cache.stats();
        assert!(s.bytes <= cache.budget_bytes());
        assert!(s.spilled_bytes <= cache.disk_budget_bytes());
        assert_eq!(s.entries, 3, "one resident + two spilled");
        assert!(s.evictions >= 1, "disk overflow evicts the oldest spilled entries");
        assert!(cache.lookup(fp(0)).is_none(), "oldest entry aged out of both tiers");
    }

    #[test]
    fn batch_payload_survives_publish_and_replay() {
        use crate::platform::Profiles;
        let cache = ResultCache::new(1 << 20);
        let vals: Vec<Value> = (0..64i64).map(Value::from).collect();
        let ch = ChannelData::Batches(Arc::new(vec![Batch::from_values(&vals)]));
        cache.insert_channel_in(Namespace::SHARED, fp(9), &ch);
        let hit = cache.lookup(fp(9)).unwrap();
        assert!(matches!(hit.payload, Some(CachedPayload::Batches(_))), "columnar stays columnar");
        let src = CachedSource::new(hit, fp(9));
        let profiles = Profiles::bare();
        let mut ctx = ExecCtx::new(&profiles, 0);
        let out = src.execute(&mut ctx, &[], &BroadcastCtx::new()).unwrap();
        assert!(matches!(out, ChannelData::Batches(_)), "replay emits batches");
        assert_eq!(out.cardinality(), Some(64));
    }

    #[test]
    fn disk_tier_replay_costs_more() {
        let rows = dataset(1000);
        let bytes = rows_unique_bytes(&rows);
        let mem = CachedSource::new(
            CacheHit {
                payload: Some(CachedPayload::Rows(Arc::clone(&rows))),
                bytes,
                card: 1000,
                tier: Tier::Memory,
            },
            fp(1),
        );
        let disk = CachedSource::new(
            CacheHit { payload: None, bytes, card: 1000, tier: Tier::Disk },
            fp(1),
        );
        assert!(disk.read_ms() > mem.read_ms(), "spilled replay priced at the slower store");
        let model = crate::cost::CostModel::new();
        let lm = mem.load(&[], 0.0, &model);
        let ld = disk.load(&[], 0.0, &model);
        assert!(ld.disk_bytes > lm.disk_bytes, "disk factor scales costed traffic");
        assert_eq!(lm.cpu_cycles, ld.cpu_cycles);
    }

    fn wordcount_like(udf_name: &str) -> crate::plan::RheemPlan {
        let mut b = PlanBuilder::new();
        let data: Vec<Value> = (0..100i64).map(Value::from).collect();
        b.collection(data)
            .map(MapUdf::new(udf_name.to_string(), |v| v.clone()))
            .reduce_by_key(KeyUdf::identity(), ReduceUdf::sum())
            .collect();
        b.build().unwrap()
    }

    #[test]
    fn fingerprints_are_structural() {
        let p1 = wordcount_like("tokenize");
        let p2 = wordcount_like("tokenize");
        let f1 = plan_fingerprints(&p1);
        let f2 = plan_fingerprints(&p2);
        assert_eq!(f1, f2, "identical plans fingerprint identically");
        // Sources, maps and reduces are fingerprintable; the sink is not.
        assert!(f1[0].is_some() && f1[1].is_some() && f1[2].is_some());
        assert!(f1[3].is_none(), "sinks have no fingerprint");
        // A different UDF identity changes every downstream fingerprint.
        let p3 = wordcount_like("tokenize_v2");
        let f3 = plan_fingerprints(&p3);
        assert_eq!(f1[0], f3[0], "shared source keeps its fingerprint");
        assert_ne!(f1[1], f3[1]);
        assert_ne!(f1[2], f3[2]);
    }

    #[test]
    fn fingerprint_overrides_pin_downstream_identity() {
        let p1 = wordcount_like("tokenize");
        let f1 = plan_fingerprints(&p1);
        // A plan whose source differs would fingerprint differently, but
        // pinning the source to the original fingerprint restores every
        // downstream identity — the progressive-replan invariant.
        let mut b = PlanBuilder::new();
        let data: Vec<Value> = (0..50i64).map(Value::from).collect();
        b.collection(data)
            .map(MapUdf::new("tokenize".to_string(), |v| v.clone()))
            .reduce_by_key(KeyUdf::identity(), ReduceUdf::sum())
            .collect();
        let p2 = b.build().unwrap();
        let plain = plan_fingerprints(&p2);
        assert_ne!(f1[1], plain[1], "different source changes downstream");
        let mut overrides = HashMap::new();
        overrides.insert(crate::plan::OperatorId(0), f1[0].unwrap());
        let pinned = plan_fingerprints_with(&p2, &overrides);
        assert_eq!(pinned[0], f1[0]);
        assert_eq!(pinned[1], f1[1], "override restores downstream identity");
        assert_eq!(pinned[2], f1[2]);
    }

    #[test]
    fn loops_and_samples_have_no_fingerprint() {
        use crate::plan::{SampleMethod, SampleSize};
        let mut b = PlanBuilder::new();
        let data: Vec<Value> = (0..10i64).map(Value::from).collect();
        b.collection(data)
            .sample(SampleMethod::First, SampleSize::Count(3))
            .map(MapUdf::new("m", |v| v.clone()))
            .collect();
        let plan = b.build().unwrap();
        let fps = plan_fingerprints(&plan);
        assert!(fps[0].is_some());
        assert!(fps[1].is_none(), "sample output is seed-dependent");
        assert!(fps[2].is_none(), "downstream of a sample is poisoned");
    }

    #[test]
    fn cached_source_replays_with_fixed_virtual_cost() {
        use crate::platform::Profiles;
        let cache = ResultCache::new(1 << 20);
        cache.insert(fp(7), dataset(50));
        let hit = cache.lookup(fp(7)).unwrap();
        let src = CachedSource::new(hit, fp(7));
        let profiles = Profiles::bare();
        let mut ctx = ExecCtx::new(&profiles, 0);
        let out = src.execute(&mut ctx, &[], &BroadcastCtx::new()).unwrap();
        assert_eq!(out.cardinality(), Some(50));
        assert_eq!(ctx.op_metrics().len(), 1);
        assert!(ctx.virtual_ms() > 0.0, "replay charges the store read");
        // Deterministic: a second replay charges exactly the same time.
        let mut ctx2 = ExecCtx::new(&profiles, 99);
        src.execute(&mut ctx2, &[], &BroadcastCtx::new()).unwrap();
        assert_eq!(ctx.virtual_ms(), ctx2.virtual_ms());
    }
}
