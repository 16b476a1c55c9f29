//! Plan enumeration with the Join/Prune algebra and lossless pruning (§4.1).
//!
//! Partial plans grow along a topological order of the Rheem plan. After
//! each step, partials are grouped by their *boundary signature* — the
//! execution alternatives of all operators that can still influence future
//! costs (open producers awaiting data-movement settlement, pre-covered
//! downstream operators, and the set of started platforms) — and only the
//! cheapest partial per group survives. Because everything that affects the
//! cost of any completion is part of the signature, the pruning is lossless:
//! the optimal execution plan is never discarded.
//!
//! Data movement is costed exactly: once the last consumer of a producer has
//! chosen its alternative, the minimal conversion tree for that producer is
//! solved over the channel conversion graph (honouring channel reusability)
//! and charged, scaled by loop-iteration factors. That cost depends only on
//! the alternatives chosen for the producer and its consumers, so each
//! distinct combination is solved once per enumeration ([`Settlements`]) and
//! every further partial that carries it looks the answer up.
//!
//! Before the search, a cache replay that provably beats every way of
//! recomputing its closure removes those alternatives ([`drop_dominated`]),
//! so a warm plan does not re-enumerate the subplan it replays.

use std::collections::HashMap;

use super::{CacheProbe, OptimizedPlan, Optimizer};
use crate::builtin::CONTROL;
use crate::cache::{CacheHit, CachedSource, Fingerprint, Tier};
use crate::cardinality::Estimates;
use crate::cost::Interval;
use crate::error::{Result, RheemError};
use crate::mapping::Candidate;
use crate::movement::ConversionGraph;
use crate::plan::{OperatorId, RheemPlan};
use crate::platform::PlatformId;

const UNSET: u32 = u32::MAX;

/// Statistics from one enumeration run (pruning ablation, §4.1's "kn plans"
/// discussion).
#[derive(Clone, Copy, Debug, Default)]
pub struct EnumerationStats {
    /// Partial plans materialized over the whole run.
    pub partials_created: usize,
    /// Partials discarded by signature pruning.
    pub partials_pruned: usize,
    /// Candidates considered (size of the inflated plan).
    pub candidates: usize,
    /// Data-movement settlements: one per (partial, producer) pair at the
    /// producer's pay step.
    pub movement_settlements: usize,
    /// Distinct movement problems actually solved to serve them (and to
    /// bound replay movement for replay dominance).
    pub movement_solves: usize,
    /// Candidates dropped before the search because a cache replay
    /// provably beats every way of recomputing what they cover.
    pub dominated: usize,
}

/// A consumer edge of some producer operator.
#[derive(Clone, Copy, Debug)]
struct ConsumerEdge {
    op: OperatorId,
    /// `Some(slot)` for a regular input, `None` for a broadcast edge.
    slot: Option<usize>,
}

/// What enumeration needs to know of a candidate, read once from its
/// `dyn ExecutionOperator` and the platform profiles instead of per partial.
struct CandFacts {
    platform: PlatformId,
    /// The operator whose output the candidate produces.
    output_op: OperatorId,
    /// The platform's bit in [`Partial::mask`] (0 for the driver).
    bit: u32,
    startup_ms: f64,
    stage_overhead_ms: f64,
    cycles_per_ms: f64,
    /// Conversion-graph vertex of the output kind (`None`: a kind the graph
    /// does not know, from which nothing is reachable).
    out_kind: Option<usize>,
    /// Accepted kinds per input slot of the head operator, as vertices.
    in_kinds: Vec<Vec<usize>>,
    /// Accepted kinds of broadcast inputs, as vertices.
    bcast_kinds: Vec<usize>,
}

/// The inflated plan: every alternative for every operator, annotated with
/// time estimates (Fig. 6).
struct Inflated {
    estimates: Estimates,
    topo: Vec<OperatorId>,
    pos: Vec<usize>,
    cands: Vec<Candidate>,
    /// per candidate: see [`CandFacts`].
    facts: Vec<CandFacts>,
    /// candidate indices grouped by head (covers[0]).
    by_head: Vec<Vec<usize>>,
    /// scalar virtual-ms estimate per candidate (iteration-scaled).
    time_ms: Vec<f64>,
    /// interval estimate per candidate.
    time_iv: Vec<Interval>,
    /// per producer: consumer edges.
    consumers: Vec<Vec<ConsumerEdge>>,
    /// per producer: scalar output cardinality its movement is costed at.
    card: Vec<f64>,
    /// per producer: topo step of its last consumer, where its movement is
    /// settled (its own step when nothing consumes it).
    settle_at: Vec<usize>,
    /// per topo step: producers whose movement becomes payable.
    pay_at: Vec<Vec<OperatorId>>,
    /// `core.handoff.alpha`: cycles per quantum of an external edge.
    handoff_alpha: f64,
    /// `CachedSource` candidates as `(candidate, index of its cache probe)`.
    /// One on a spilled entry is priced from the probe alone; its payload
    /// is fetched only if the chosen plan replays it.
    replays: Vec<(usize, usize)>,
}

#[derive(Clone)]
struct Partial {
    choice: Vec<u32>,
    cost: f64,
    mask: u32,
}

/// `hits` are the optimizer's cache probes that found an entry.
fn build_inflated(
    opt: &Optimizer<'_>,
    plan: &RheemPlan,
    estimates: Estimates,
    graph: &ConversionGraph,
    hits: &[CacheProbe],
) -> Result<Inflated> {
    let n = plan.len();
    let topo = plan.topological_order()?;
    let mut pos = vec![0usize; n];
    for (k, &id) in topo.iter().enumerate() {
        pos[id.index()] = k;
    }

    // --- inflation: gather candidates -----------------------------------
    let mut cands: Vec<Candidate> = Vec::new();
    let mut by_head = vec![Vec::new(); n];
    for node in plan.operators() {
        let mut alts = opt.registry.candidates_for(plan, node);
        if let Some(forced) = opt.forced_platform {
            // Keep the driver's control/sink/source ops available.
            alts.retain(|c| {
                let p = c.exec.platform();
                p == forced || p == CONTROL
            });
        }
        if !opt.blacklist.is_empty() {
            // Failover: blacklisted platforms are out for the rest of the
            // job; the driver survives (it is the failover mechanism).
            alts.retain(|c| {
                let p = c.exec.platform();
                p == CONTROL || !opt.blacklist.contains(&p)
            });
        }
        if alts.is_empty() {
            return Err(Optimizer::err_no_candidates(plan, node.id));
        }
        for c in alts {
            let head = c.covers[0];
            by_head[head.index()].push(cands.len());
            cands.push(c);
        }
    }

    // --- cache-aware inflation -------------------------------------------
    // For every cache hit, add a zero-input CachedSource candidate covering
    // the hit operator's whole input closure. It rides through costing and
    // enumeration like any other source-headed chain candidate, so reuse is
    // *chosen*, never forced: the replay cost (cache read + conversion out
    // of the collection channel) competes against recomputation. Replay
    // dominance (`drop_dominated`) only skips recompute alternatives that
    // are provably costlier. A spilled entry is priced from its probe
    // alone; only the ones the chosen plan replays are read
    // (`fetch_chosen`).
    let mut replays = Vec::new();
    for (k, probe) in hits.iter().enumerate() {
        // Transitive input closure of the hit operator (fingerprintable ops
        // only, so no loop edges and no cycles).
        let mut covered = vec![false; n];
        let mut stack = vec![probe.op];
        while let Some(o) = stack.pop() {
            if covered[o.index()] {
                continue;
            }
            covered[o.index()] = true;
            let nd = plan.node(o);
            stack.extend(nd.inputs.iter().copied());
            stack.extend(nd.broadcasts.iter().map(|(_, b)| *b));
        }
        // The closure must be closed: an interior operator feeding a
        // consumer outside it would leave that consumer unwired when the
        // whole closure collapses into one execution operator.
        let closed = plan.operators().iter().filter(|m| !covered[m.id.index()]).all(|m| {
            m.inputs
                .iter()
                .chain(m.broadcasts.iter().map(|(_, b)| b))
                .all(|inp| !covered[inp.index()] || *inp == probe.op)
        });
        if !closed {
            continue;
        }
        // Dataflow order; input-closedness makes covers[0] a source.
        let covers: Vec<OperatorId> = topo.iter().copied().filter(|o| covered[o.index()]).collect();
        debug_assert!(plan.node(covers[0]).inputs.is_empty());
        debug_assert_eq!(*covers.last().unwrap(), probe.op);
        replays.push((cands.len(), k));
        let exec = std::sync::Arc::new(CachedSource::new(probe.hit.clone(), probe.fp));
        by_head[covers[0].index()].push(cands.len());
        cands.push(Candidate { covers, exec });
    }

    // --- platform bitmask order ------------------------------------------
    let mut platforms: Vec<PlatformId> = Vec::new();
    for c in &cands {
        let p = c.exec.platform();
        if p != CONTROL && !platforms.contains(&p) {
            platforms.push(p);
        }
    }
    if platforms.len() > u32::BITS as usize {
        return Err(RheemError::Optimizer(format!(
            "plan alternatives span {} platforms; enumeration supports up to {}",
            platforms.len(),
            u32::BITS
        )));
    }
    let facts: Vec<CandFacts> = cands
        .iter()
        .map(|c| {
            let platform = c.exec.platform();
            let profile = opt.profiles.get(platform);
            let head_inputs = plan.node(c.covers[0]).inputs.len();
            CandFacts {
                platform,
                output_op: c.output_op(),
                bit: platforms.iter().position(|&q| q == platform).map_or(0, |i| 1 << i),
                startup_ms: profile.startup_ms,
                stage_overhead_ms: profile.stage_overhead_ms,
                cycles_per_ms: profile.cycles_per_ms,
                out_kind: graph.kind_index(c.exec.output_kind()),
                in_kinds: (0..head_inputs)
                    .map(|slot| graph.kind_indices(&c.exec.accepted_inputs(slot)))
                    .collect(),
                bcast_kinds: graph.kind_indices(&c.exec.broadcast_input_kinds()),
            }
        })
        .collect();

    // --- cost annotation --------------------------------------------------
    let mut time_ms = Vec::with_capacity(cands.len());
    let mut time_iv = Vec::with_capacity(cands.len());
    for c in &cands {
        let head = plan.node(c.covers[0]);
        let tail = c.output_op();
        let iter = estimates.iter_factor[tail.index()];
        let (lo_cards, hi_cards, conf, avg_bytes) = if head.inputs.is_empty() {
            // Source candidates: pass the estimated output cardinality of
            // every covered operator, in chain order — a composite
            // scan+filter then sees both the table size (covers[0]) and the
            // matched-row estimate (tail). See `ExecutionOperator::load`.
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            let mut conf = 1.0f64;
            for &o in &c.covers {
                let e = estimates.out_card(o);
                lo.push(e.lo);
                hi.push(e.hi);
                conf = conf.min(e.conf);
            }
            (lo, hi, conf, estimates.avg_bytes[tail.index()])
        } else {
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            let mut conf = 1.0f64;
            let mut bytes = 0.0;
            for &inp in &head.inputs {
                let c = estimates.out_card(inp);
                lo.push(c.lo);
                hi.push(c.hi);
                conf = conf.min(c.conf);
                bytes += estimates.avg_bytes[inp.index()];
            }
            let bytes = bytes / head.inputs.len() as f64;
            (lo, hi, conf, bytes)
        };
        let profile = opt.profiles.get(c.exec.platform());
        // A NaN load (pathological calibration, e.g. a NaN UDF cost hint)
        // must lose to every finite alternative instead of poisoning the
        // interval algebra or panicking the enumerator.
        let sane = |t: f64| if t.is_nan() { f64::INFINITY } else { t };
        let t_lo = sane(c.exec.load(&lo_cards, avg_bytes, opt.model).to_ms(profile));
        let t_hi = sane(c.exec.load(&hi_cards, avg_bytes, opt.model).to_ms(profile));
        let (mut t_lo, mut t_hi) = if t_lo <= t_hi { (t_lo, t_hi) } else { (t_hi, t_lo) };
        // Loop bodies re-dispatch their stages every iteration: charge the
        // platform's stage-submission overhead per iteration (this is what
        // makes low-overhead engines win loop bodies — the paper's SGD
        // insight, Fig. 3(b)). Chains approximate stages.
        if iter > 1.0 && c.exec.platform() != CONTROL {
            t_lo += profile.stage_overhead_ms;
            t_hi += profile.stage_overhead_ms;
        }
        let iv = Interval::new(t_lo * iter, t_hi * iter, conf);
        time_iv.push(iv);
        time_ms.push(iv.geo_mean().max(0.0));
    }

    // --- consumer edges & movement pay steps ------------------------------
    let mut consumers: Vec<Vec<ConsumerEdge>> = vec![Vec::new(); n];
    for node in plan.operators() {
        for (slot, &inp) in node.inputs.iter().enumerate() {
            consumers[inp.index()].push(ConsumerEdge { op: node.id, slot: Some(slot) });
        }
        for (_, inp) in &node.broadcasts {
            consumers[inp.index()].push(ConsumerEdge { op: node.id, slot: None });
        }
    }
    let settle_at: Vec<usize> = (0..n)
        .map(|i| consumers[i].iter().map(|e| pos[e.op.index()]).fold(pos[i], usize::max))
        .collect();
    let mut pay_at: Vec<Vec<OperatorId>> = vec![Vec::new(); n];
    for node in plan.operators() {
        let i = node.id.index();
        if !consumers[i].is_empty() {
            pay_at[settle_at[i]].push(node.id);
        }
    }
    let card = estimates.card.iter().map(|c| c.geo_mean().max(0.0)).collect();

    Ok(Inflated {
        estimates,
        topo,
        pos,
        cands,
        facts,
        by_head,
        time_ms,
        time_iv,
        consumers,
        card,
        settle_at,
        pay_at,
        // Every external edge materializes an intermediate channel — a small
        // per-quantum handoff cost that makes operator fusion (chains)
        // strictly cheaper than equivalent sequences of single operators.
        handoff_alpha: opt.model.get("core.handoff.alpha", 25.0),
        replays,
    })
}

impl Inflated {
    /// Boundary signature of a partial after topo step `k` (inclusive).
    fn signature(&self, partial: &Partial, k: usize) -> Vec<(u32, u32)> {
        let mut sig: Vec<(u32, u32)> = Vec::new();
        for (i, &c) in partial.choice.iter().enumerate() {
            if c == UNSET {
                continue;
            }
            let processed = self.pos[i] <= k;
            // movement not yet settled?
            let open_producer = processed
                && self.settle_at[i] > k
                && self.facts[c as usize].output_op == OperatorId(i as u32);
            let pre_covered = !processed;
            if open_producer || pre_covered {
                sig.push((i as u32, c));
            }
        }
        sig.push((u32::MAX, partial.mask));
        sig
    }
}

/// The data-movement costs of one enumeration. What a producer's movement
/// costs in a partial is a function of the alternatives chosen for it and
/// for its consumers alone, so each distinct combination is solved once and
/// every other partial carrying it is a lookup. Infeasible combinations
/// (`None`: no conversion tree) are remembered like any other.
struct Settlements<'a> {
    opt: &'a Optimizer<'a>,
    graph: &'a ConversionGraph,
    /// per producer: `[choice[p], choice[consumer edges]..]` -> cost.
    memo: Vec<HashMap<Box<[u32]>, Option<f64>>>,
    /// per producer: conversion edge weights at its cardinality and bytes,
    /// from its first solve on.
    weights: Vec<Option<Vec<f64>>>,
    /// scratch: the key of the settlement in progress.
    key: Vec<u32>,
    /// settlements served / of those, solved rather than looked up.
    settled: usize,
    solved: usize,
}

impl<'a> Settlements<'a> {
    fn new(opt: &'a Optimizer<'a>, inf: &Inflated, graph: &'a ConversionGraph) -> Self {
        let n = inf.consumers.len();
        Self {
            opt,
            graph,
            memo: vec![HashMap::new(); n],
            weights: vec![None; n],
            key: Vec::new(),
            settled: 0,
            solved: 0,
        }
    }

    /// Settle the data-movement cost of producer `p` in a partial where all
    /// of `p`'s consumers have chosen alternatives. Returns `None` when no
    /// conversion tree exists (the partial is infeasible).
    fn settle(&mut self, inf: &Inflated, partial: &Partial, p: OperatorId) -> Result<Option<f64>> {
        self.settled += 1;
        let cp = partial.choice[p.index()];
        debug_assert_ne!(cp, UNSET);
        if inf.facts[cp as usize].output_op != p {
            // Chain-internal producer: its consumers are inside the same
            // execution operator; no movement.
            return Ok(Some(0.0));
        }
        self.key.clear();
        self.key.push(cp);
        self.key.extend(inf.consumers[p.index()].iter().map(|e| partial.choice[e.op.index()]));
        self.lookup_or_solve(inf, p)
    }

    /// The cost of the movement problem `self.key` names for producer `p`,
    /// solved on its first request and looked up on every later one.
    fn lookup_or_solve(&mut self, inf: &Inflated, p: OperatorId) -> Result<Option<f64>> {
        if let Some(&ms) = self.memo[p.index()].get(self.key.as_slice()) {
            return Ok(ms);
        }
        let ms = self.solve(inf, p)?;
        self.solved += 1;
        self.memo[p.index()].insert(self.key.as_slice().into(), ms);
        Ok(ms)
    }

    /// Cost the movement problem `self.key` names for producer `p`.
    fn solve(&mut self, inf: &Inflated, p: OperatorId) -> Result<Option<f64>> {
        let cp = self.key[0];
        let producer = &inf.facts[cp as usize];
        let mut consumer_kinds: Vec<&[usize]> = Vec::new();
        let mut stage_overhead = 0.0;
        let mut iter_mult = inf.estimates.iter_factor[p.index()];
        for (edge, &cc) in inf.consumers[p.index()].iter().zip(&self.key[1..]) {
            debug_assert_ne!(cc, UNSET, "consumer not yet assigned at pay step");
            if cc == cp {
                continue; // internal to the same candidate
            }
            let consumer = &inf.facts[cc as usize];
            consumer_kinds.push(match edge.slot {
                Some(slot) => {
                    debug_assert_eq!(
                        inf.cands[cc as usize].covers[0], edge.op,
                        "regular edges must enter a chain at its head"
                    );
                    &consumer.in_kinds[slot]
                }
                None => &consumer.bcast_kinds,
            });
            if consumer.platform != producer.platform
                && consumer.platform != CONTROL
                && producer.platform != CONTROL
            {
                // Crossing platforms fragments both sides' stages: the
                // consumer's platform submits a new stage, and the
                // producer's platform must be re-entered later (it pays
                // again when the flow returns — which it always does inside
                // loops, and usually does around joins).
                stage_overhead += consumer.stage_overhead_ms + producer.stage_overhead_ms;
            }
            iter_mult = iter_mult.max(inf.estimates.iter_factor[edge.op.index()]);
        }
        if consumer_kinds.is_empty() {
            return Ok(Some(0.0));
        }
        let Some(root) = producer.out_kind else { return Ok(None) };
        let card = inf.card[p.index()];
        let weights = self.weights[p.index()].get_or_insert_with(|| {
            let avg_bytes = inf.estimates.avg_bytes[p.index()];
            self.graph.edge_weights(card, avg_bytes, self.opt.profiles, self.opt.model)
        });
        let Some(tree_ms) = self.graph.best_cost(root, &consumer_kinds, weights)? else {
            return Ok(None);
        };
        let handoff_ms =
            consumer_kinds.len() as f64 * card * inf.handoff_alpha / producer.cycles_per_ms;
        Ok(Some((tree_ms + stage_overhead + handoff_ms) * iter_mult))
    }
}

/// Inflate and enumerate under `estimates`, then fetch the spilled entries
/// the winning plan replays. `Err(fp)`: the chosen entry `fp` could not be
/// read back (the cache evicted it), and the plan must be made without it.
pub(super) fn enumerate(
    opt: &Optimizer<'_>,
    plan: &RheemPlan,
    estimates: Estimates,
    hits: &[CacheProbe],
    prune: bool,
) -> Result<std::result::Result<OptimizedPlan, Fingerprint>> {
    let graph = opt.registry.conversion_graph();
    let mut inf = build_inflated(opt, plan, estimates, graph, hits)?;
    let mut settlements = Settlements::new(opt, &inf, graph);
    let dominated = if prune { drop_dominated(&mut inf, &mut settlements)? } else { 0 };
    let (best, mut stats) =
        search(plan, &inf, prune, |partial, p| settlements.settle(&inf, partial, p))?;
    stats.dominated = dominated;
    stats.movement_settlements = settlements.settled;
    stats.movement_solves = settlements.solved;
    if let Some(fp) = fetch_chosen(opt, &mut inf, hits, &best) {
        return Ok(Err(fp));
    }
    Ok(Ok(assemble(inf, best, stats)))
}

/// Most combinations of consumer alternatives a replay's movement bound is
/// taken over; a hit operator with more keeps its recompute alternatives.
const DOMINANCE_COMBOS: usize = 64;

/// Replay dominance: drop every way of recomputing a hit operator's closure
/// that its replay provably beats, before the search. For a replay `r` of
/// hit `h` with closure `C`, `lb` is the cheapest non-replay candidate
/// covering `h` and `ub` the costliest movement of `r`'s output into any
/// combination of `h`'s consumers' alternatives. Every plan that recomputes
/// `C` contains a candidate covering `h`, costs at least `lb` there and pays
/// only non-negative movement and startup inside `C` (nothing enters `C`
/// from outside); the same plan with `C` swapped for `r` pays `time_ms[r]`
/// on the driver (no startup bit) plus at most `ub`. So when
/// `time_ms[r] + ub < lb`, every candidate inside `C` but `r` only ever
/// sits in strictly costlier plans, and dropping it changes neither the
/// argmin nor its tie-break. Outermost closures go first (closed closures
/// nest or are disjoint); one whose replay is already dropped is skipped.
/// Candidate indices stay stable. Returns how many candidates were dropped.
fn drop_dominated(inf: &mut Inflated, settlements: &mut Settlements<'_>) -> Result<usize> {
    let mut order: Vec<usize> = inf.replays.iter().map(|&(r, _)| r).collect();
    order.sort_by_key(|&r| std::cmp::Reverse(inf.cands[r].covers.len()));
    let mut dropped = 0;
    for r in order {
        let head = inf.cands[r].covers[0];
        if !inf.by_head[head.index()].contains(&r) {
            continue;
        }
        let mut in_c = vec![false; inf.consumers.len()];
        for o in &inf.cands[r].covers {
            in_c[o.index()] = true;
        }
        let Some(lb) = recompute_bound(inf, r, &in_c) else { continue };
        let Some(ub) = replay_movement_bound(inf, settlements, r)? else { continue };
        // Written so that a NaN cost never counts as a win.
        let replay_wins = inf.time_ms[r] + ub < lb;
        if !replay_wins {
            continue;
        }
        for &o in &inf.cands[r].covers {
            let before = inf.by_head[o.index()].len();
            let cands = &inf.cands;
            inf.by_head[o.index()]
                .retain(|&c| c == r || cands[c].covers.iter().any(|x| !in_c[x.index()]));
            dropped += before - inf.by_head[o.index()].len();
        }
    }
    Ok(dropped)
}

/// `lb` of [`drop_dominated`]: the cheapest non-replay candidate covering
/// replay `r`'s hit operator (infinite when none does). `None` when a
/// non-replay candidate reaches across the closure `in_c`: a plan using it
/// could not swap the closure for `r`.
fn recompute_bound(inf: &Inflated, r: usize, in_c: &[bool]) -> Option<f64> {
    let h = inf.cands[r].output_op();
    let mut lb = f64::INFINITY;
    for (c, cand) in inf.cands.iter().enumerate() {
        if inf.replays.iter().any(|&(x, _)| x == c) {
            continue;
        }
        let inside = cand.covers.iter().filter(|o| in_c[o.index()]).count();
        if inside == 0 {
            continue;
        }
        if inside < cand.covers.len() {
            return None;
        }
        if cand.covers.contains(&h) {
            lb = lb.min(inf.time_ms[c]);
        }
    }
    Some(lb)
}

/// `ub` of [`drop_dominated`]: the costliest movement of replay `r`'s output
/// over every consistent combination of alternatives for its hit operator's
/// consumers. `None` above [`DOMINANCE_COMBOS`] combinations, when the replay
/// runs off the driver, or when some combination has no conversion tree.
fn replay_movement_bound(
    inf: &Inflated,
    settlements: &mut Settlements<'_>,
    r: usize,
) -> Result<Option<f64>> {
    let h = inf.cands[r].output_op();
    if inf.facts[r].bit != 0 {
        return Ok(None);
    }
    let mut ops: Vec<OperatorId> = inf.consumers[h.index()].iter().map(|e| e.op).collect();
    ops.sort();
    ops.dedup();
    // Per consumer: the alternatives that can cover it while `h` is covered
    // by `r` — every candidate covering it but not `h`.
    let options: Vec<Vec<usize>> = ops
        .iter()
        .map(|&e| {
            (0..inf.cands.len())
                .filter(|&c| inf.cands[c].covers.contains(&e) && !inf.cands[c].covers.contains(&h))
                .collect()
        })
        .collect();
    // Per consumer edge of `h`: its consumer's index in `ops`.
    let edge_op: Vec<usize> = inf.consumers[h.index()]
        .iter()
        .map(|edge| ops.binary_search(&edge.op).expect("consumer listed"))
        .collect();
    let combos = options.iter().try_fold(1usize, |n, o| n.checked_mul(o.len()));
    match combos {
        Some(n) if (1..=DOMINANCE_COMBOS).contains(&n) => {}
        _ => return Ok(None),
    }
    let mut ub = 0.0f64;
    let mut pick = vec![0usize; ops.len()];
    loop {
        let chosen: Vec<usize> = pick.iter().zip(&options).map(|(&i, o)| o[i]).collect();
        // A chain covering two consumers fixes both.
        let consistent = chosen.iter().all(|&c| {
            ops.iter().zip(&chosen).all(|(e, &d)| d == c || !inf.cands[c].covers.contains(e))
        });
        if consistent {
            settlements.key.clear();
            settlements.key.push(r as u32);
            settlements.key.extend(edge_op.iter().map(|&i| chosen[i] as u32));
            match settlements.lookup_or_solve(inf, h)? {
                Some(ms) => ub = ub.max(ms),
                None => return Ok(None),
            }
        }
        // Next combination, odometer style.
        let mut k = 0;
        loop {
            if k == pick.len() {
                return Ok(Some(ub));
            }
            pick[k] += 1;
            if pick[k] < options[k].len() {
                break;
            }
            pick[k] = 0;
            k += 1;
        }
    }
}

/// Read back the spilled entries the winning plan replays — only those —
/// and hand their `CachedSource`s the payload, priced as probed. Returns
/// the fingerprint of an entry that could not be read (the cache evicted it).
fn fetch_chosen(
    opt: &Optimizer<'_>,
    inf: &mut Inflated,
    hits: &[CacheProbe],
    best: &Partial,
) -> Option<Fingerprint> {
    let cache = opt.cache.as_ref()?;
    for &(cand, k) in &inf.replays {
        let probe = &hits[k];
        if probe.hit.tier != Tier::Disk || !best.choice.contains(&(cand as u32)) {
            continue;
        }
        let Some(payload) = cache.fetch_in(probe.ns, probe.fp) else { return Some(probe.fp) };
        let hit = CacheHit { payload: Some(payload), ..probe.hit.clone() };
        inf.cands[cand].exec = std::sync::Arc::new(CachedSource::new(hit, probe.fp));
    }
    None
}

/// Grow partials along the topological order, charging each producer's
/// movement through `settle` at its pay step, and return the cheapest
/// complete one.
fn search(
    plan: &RheemPlan,
    inf: &Inflated,
    prune: bool,
    mut settle: impl FnMut(&Partial, OperatorId) -> Result<Option<f64>>,
) -> Result<(Partial, EnumerationStats)> {
    let n = plan.len();
    let mut stats = EnumerationStats { candidates: inf.cands.len(), ..Default::default() };

    let mut frontier: Vec<Partial> = vec![Partial { choice: vec![UNSET; n], cost: 0.0, mask: 0 }];

    for (k, &op) in inf.topo.iter().enumerate() {
        let mut next: Vec<Partial> = Vec::new();
        for partial in frontier.drain(..) {
            if partial.choice[op.index()] != UNSET {
                // Already covered by an earlier chain choice.
                next.push(partial);
                continue;
            }
            for &ci in &inf.by_head[op.index()] {
                let cand = &inf.cands[ci];
                // All covered ops must be free in this partial.
                if cand.covers.iter().any(|o| partial.choice[o.index()] != UNSET) {
                    continue;
                }
                let mut p2 = partial.clone();
                for o in &cand.covers {
                    p2.choice[o.index()] = ci as u32;
                }
                p2.cost += inf.time_ms[ci];
                let facts = &inf.facts[ci];
                if facts.bit != 0 && p2.mask & facts.bit == 0 {
                    p2.mask |= facts.bit;
                    p2.cost += facts.startup_ms;
                }
                stats.partials_created += 1;
                next.push(p2);
            }
        }
        if next.is_empty() {
            return Err(RheemError::Optimizer(format!(
                "no feasible execution alternative for {} (conflicting chain choices?)",
                plan.node(op).label()
            )));
        }

        // Settle data movement that became payable at this step.
        let mut settled: Vec<Partial> = Vec::with_capacity(next.len());
        'partials: for mut partial in next {
            for &p in &inf.pay_at[k] {
                match settle(&partial, p)? {
                    Some(ms) => partial.cost += ms,
                    None => continue 'partials, // unreachable channels: infeasible
                }
            }
            settled.push(partial);
        }
        if settled.is_empty() {
            return Err(RheemError::Optimizer(format!(
                "no conversion path exists for the outputs settled at {}",
                plan.node(op).label()
            )));
        }

        // Lossless pruning by boundary signature.
        if prune {
            let mut best: HashMap<Vec<(u32, u32)>, Partial> = HashMap::new();
            for partial in settled {
                let sig = inf.signature(&partial, k);
                match best.get_mut(&sig) {
                    // Keep the winner under a *total* order (total_cmp sorts
                    // NaN costs last instead of panicking) with the choice
                    // vector as tie-break, so equal-cost partials survive
                    // pruning identically regardless of arrival order.
                    Some(cur) => {
                        stats.partials_pruned += 1;
                        if partial
                            .cost
                            .total_cmp(&cur.cost)
                            .then_with(|| partial.choice.cmp(&cur.choice))
                            .is_lt()
                        {
                            *cur = partial;
                        }
                    }
                    None => {
                        best.insert(sig, partial);
                    }
                }
            }
            frontier = best.into_values().collect();
        } else {
            frontier = settled;
        }
    }

    // The frontier is rebuilt from a HashMap, so its order is unstable;
    // break cost ties on the choice vector (which identifies a partial
    // uniquely) to make the selected plan independent of iteration order,
    // and use total_cmp so a NaN-costed alternative loses instead of
    // panicking the comparator.
    let best = frontier
        .into_iter()
        .min_by(|a, b| a.cost.total_cmp(&b.cost).then_with(|| a.choice.cmp(&b.choice)))
        .ok_or_else(|| RheemError::Optimizer("enumeration produced no plan".into()))?;
    Ok((best, stats))
}

/// The optimized plan of the winning partial.
fn assemble(inf: Inflated, best: Partial, stats: EnumerationStats) -> OptimizedPlan {
    let choice: Vec<usize> = best.choice.iter().map(|&c| c as usize).collect();
    let mut platforms: Vec<PlatformId> = Vec::new();
    let mut est_interval = Interval::point(0.0);
    let mut counted: Vec<bool> = vec![false; inf.cands.len()];
    for &c in &choice {
        if !counted[c] {
            counted[c] = true;
            est_interval = est_interval.add(&inf.time_iv[c]);
            let p = inf.facts[c].platform;
            if p != CONTROL && !platforms.contains(&p) {
                platforms.push(p);
            }
        }
    }

    let replayed = inf
        .replays
        .iter()
        .filter(|&&(cand, _)| counted[cand])
        .map(|&(cand, _)| inf.cands[cand].output_op())
        .collect();
    OptimizedPlan {
        candidates: inf.cands,
        choice,
        estimates: inf.estimates,
        est_ms: best.cost,
        est_interval,
        platforms,
        stats,
        replayed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RheemContext;
    use crate::cardinality::Estimator;
    use crate::channel::{kinds, ChannelData, ChannelDescriptor, ChannelKind};
    use crate::cost::{CostModel, Load};
    use crate::exec::{ExecCtx, ExecutionOperator};
    use crate::kernels::SplitMix64;
    use crate::mapping::{upstream_chain, FnMapping};
    use crate::plan::{DataQuanta, OpKind, OperatorNode, PlanBuilder, SampleMethod, SampleSize};
    use crate::platform::ids;
    use crate::udf::{BroadcastCtx, FlatMapUdf, KeyUdf, MapUdf, PredicateUdf, ReduceUdf};
    use crate::value::Value;
    use std::sync::Arc;

    // ---- the reference: settle every partial ---------------------------

    /// Data-movement settlement as it stood before [`Settlements`]: every
    /// partial re-derives its problem from the execution operators and
    /// solves it with fresh edge weights and the subset DP.
    fn settle_every_partial(
        opt: &Optimizer<'_>,
        inf: &Inflated,
        graph: &ConversionGraph,
        partial: &Partial,
        p: OperatorId,
    ) -> Option<f64> {
        let cp = partial.choice[p.index()];
        let cand = &inf.cands[cp as usize];
        if cand.output_op() != p {
            return Some(0.0);
        }
        let out_kind = cand.exec.output_kind();
        let producer_platform = cand.exec.platform();
        let mut consumer_kinds: Vec<Vec<ChannelKind>> = Vec::new();
        let mut stage_overhead = 0.0;
        let mut iter_mult = inf.estimates.iter_factor[p.index()];
        for edge in &inf.consumers[p.index()] {
            let cc = partial.choice[edge.op.index()];
            if cc == cp {
                continue;
            }
            let ccand = &inf.cands[cc as usize];
            let kinds = match edge.slot {
                Some(slot) => ccand.exec.accepted_inputs(slot),
                None => ccand.exec.broadcast_input_kinds(),
            };
            let consumer_platform = ccand.exec.platform();
            if consumer_platform != producer_platform
                && consumer_platform != CONTROL
                && producer_platform != CONTROL
            {
                stage_overhead += opt.profiles.get(consumer_platform).stage_overhead_ms
                    + opt.profiles.get(producer_platform).stage_overhead_ms;
            }
            iter_mult = iter_mult.max(inf.estimates.iter_factor[edge.op.index()]);
            consumer_kinds.push(kinds);
        }
        if consumer_kinds.is_empty() {
            return Some(0.0);
        }
        let card = inf.estimates.out_card(p).geo_mean().max(0.0);
        let avg_bytes = inf.estimates.avg_bytes[p.index()];
        let tree = graph.best_tree_general(
            out_kind,
            &consumer_kinds,
            card,
            avg_bytes,
            opt.profiles,
            opt.model,
        )?;
        let handoff_alpha = opt.model.get("core.handoff.alpha", 25.0);
        let producer_profile = opt.profiles.get(producer_platform);
        let handoff_ms =
            consumer_kinds.len() as f64 * card * handoff_alpha / producer_profile.cycles_per_ms;
        Some((tree.cost_ms + stage_overhead + handoff_ms) * iter_mult)
    }

    fn enumerate_reference(
        opt: &Optimizer<'_>,
        plan: &RheemPlan,
        estimates: Estimates,
        prune: bool,
    ) -> Result<OptimizedPlan> {
        let graph = opt.registry.conversion_graph();
        let inf = build_inflated(opt, plan, estimates, graph, &[])?;
        let mut calls = 0;
        let (best, mut stats) = search(plan, &inf, prune, |partial, p| {
            calls += 1;
            Ok(settle_every_partial(opt, &inf, graph, partial, p))
        })?;
        stats.movement_settlements = calls;
        stats.movement_solves = calls;
        Ok(assemble(inf, best, stats))
    }

    // ---- three engines and an island ------------------------------------

    const RDD: ChannelKind = ChannelKind("t.rdd");
    const RDD_CACHED: ChannelKind = ChannelKind("t.rdd.cached");
    const DATASET: ChannelKind = ChannelKind("t.dataset");
    /// Produced and accepted by the island platform only: no conversion
    /// leaves it, so every boundary out of the island is infeasible.
    const ISLAND_KIND: ChannelKind = ChannelKind("t.island");
    const ISLAND: PlatformId = PlatformId("island");

    struct TestOp {
        name: &'static str,
        platform: PlatformId,
        accepts: Vec<ChannelKind>,
        out: ChannelKind,
        /// cycles per input quantum.
        alpha: f64,
    }

    impl ExecutionOperator for TestOp {
        fn name(&self) -> &str {
            self.name
        }
        fn platform(&self) -> PlatformId {
            self.platform
        }
        fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
            self.accepts.clone()
        }
        fn output_kind(&self) -> ChannelKind {
            self.out
        }
        fn load(&self, in_cards: &[f64], _bytes: f64, _model: &CostModel) -> Load {
            Load::cpu(50_000.0 + self.alpha * in_cards.iter().sum::<f64>())
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

    fn engine_op(platform: PlatformId, name: &'static str) -> Arc<dyn ExecutionOperator> {
        let (accepts, out, alpha) = match platform {
            ids::JAVA_STREAMS => (vec![kinds::COLLECTION], kinds::COLLECTION, 400_000.0),
            ids::SPARK => (vec![RDD, RDD_CACHED], RDD, 30_000.0),
            ids::FLINK => (vec![DATASET], DATASET, 45_000.0),
            _ => (vec![kinds::COLLECTION, ISLAND_KIND], ISLAND_KIND, 1.0),
        };
        Arc::new(TestOp { name, platform, accepts, out, alpha })
    }

    /// JavaStreams-, Spark- and Flink-like engines for every data operator
    /// (fused Map/Filter/FlatMap chains on the first and last), the island
    /// for Map, and the conversions between their channels.
    fn test_ctx() -> RheemContext {
        let mut ctx = RheemContext::new();
        let r = ctx.registry_mut();
        for (kind, reusable) in
            [(RDD, false), (RDD_CACHED, true), (DATASET, true), (ISLAND_KIND, true)]
        {
            r.add_channel(ChannelDescriptor { kind, reusable });
        }
        for (from, to, platform, name) in [
            (RDD, RDD_CACHED, ids::SPARK, "Cache"),
            (RDD_CACHED, kinds::COLLECTION, ids::SPARK, "Collect"),
            (RDD, kinds::COLLECTION, ids::SPARK, "CollectDirect"),
            (kinds::COLLECTION, RDD, ids::SPARK, "Parallelize"),
            (DATASET, kinds::COLLECTION, ids::FLINK, "FlinkCollect"),
            (kinds::COLLECTION, DATASET, ids::FLINK, "FromCollection"),
        ] {
            r.add_conversion(from, to, engine_op(platform, name));
        }
        r.add_mapping(Arc::new(FnMapping(|plan: &RheemPlan, node: &OperatorNode| {
            let kind = node.op.kind();
            if kind.is_source() || kind.is_sink() || kind.is_loop_head() {
                return vec![];
            }
            let mut out: Vec<Candidate> = [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK]
                .into_iter()
                .map(|p| Candidate::single(node.id, engine_op(p, "Op")))
                .collect();
            if kind == OpKind::Map {
                out.push(Candidate::single(node.id, engine_op(ISLAND, "IslandMap")));
            }
            let fusable = |n: &OperatorNode| {
                matches!(n.op.kind(), OpKind::Map | OpKind::Filter | OpKind::FlatMap)
            };
            let covers = upstream_chain(plan, node, fusable);
            if covers.len() > 1 {
                for p in [ids::JAVA_STREAMS, ids::FLINK] {
                    out.push(Candidate { covers: covers.clone(), exec: engine_op(p, "Chain") });
                }
            }
            out
        })));
        ctx
    }

    // ---- plans -----------------------------------------------------------

    fn ints(n: usize) -> Vec<Value> {
        (0..n as i64).map(|i| Value::pair(Value::from(i % 8), Value::from(i))).collect()
    }

    fn same() -> MapUdf {
        MapUdf::new("m", |v| v.clone())
    }

    fn apply_op(q: DataQuanta, code: u8) -> DataQuanta {
        match code {
            0..=2 => q.map(same()),
            3 | 4 => q.filter(PredicateUdf::new("f", |_| true)),
            _ => q.flat_map(FlatMapUdf::new("dup", |v| vec![v.clone(), v.clone()])),
        }
    }

    /// The plan shapes of `tests/differential.rs::gen_spec`: one or two
    /// operator chains, optionally joined, with an optional terminal.
    fn random_plan(case: u64) -> RheemPlan {
        let mut rng = SplitMix64(0xD1FF ^ case.wrapping_mul(0x9E37_79B9));
        let chain = |rng: &mut SplitMix64| -> Vec<u8> {
            let len = 2 + rng.range_usize(3);
            (0..len).map(|_| rng.range_usize(7) as u8).collect()
        };
        let chain_a = chain(&mut rng);
        let chain_b = rng.chance(0.4).then(|| chain(&mut rng));
        let terminal = rng.range_usize(4);
        let mut b = PlanBuilder::new();
        let mut q = b.collection(ints(1 + rng.range_usize(60)));
        for code in chain_a {
            q = apply_op(q, code);
        }
        if let Some(chain_b) = chain_b {
            let mut r = b.collection(ints(1 + rng.range_usize(40)));
            for code in chain_b {
                r = apply_op(r, code);
            }
            q = q.join(&r, KeyUdf::field(0), KeyUdf::field(0)).map(same());
        }
        q = match terminal {
            1 => q.reduce_by_key(KeyUdf::field(0), ReduceUdf::sum()),
            2 => q.distinct(),
            3 => q.count(),
            _ => q,
        };
        q.collect();
        b.build().unwrap()
    }

    fn wordcount_plan() -> RheemPlan {
        let mut b = PlanBuilder::new();
        b.collection(ints(5_000))
            .flat_map(FlatMapUdf::new("tokenize", |v| vec![v.clone(), v.clone()]))
            .map(same())
            .reduce_by_key(KeyUdf::field(0), ReduceUdf::sum())
            .collect();
        b.build().unwrap()
    }

    /// Fig. 3: sample, gradient under broadcast weights, sum, update under
    /// the broadcast gradient — inside a loop.
    fn sgd_plan() -> RheemPlan {
        let mut b = PlanBuilder::new();
        let points = b.collection(ints(20_000));
        let initial = b.collection(ints(1));
        initial
            .repeat(25, |w| {
                let gradients = points
                    .sample(SampleMethod::Random, SampleSize::Count(64))
                    .map(same())
                    .broadcast("weights", w)
                    .map(same())
                    .reduce(ReduceUdf::sum());
                w.map(same()).broadcast("gradient", &gradients)
            })
            .collect();
        b.build().unwrap()
    }

    /// CrocoPR: two link sets cleaned, united and deduplicated; the links
    /// feed both PageRank and the join that labels its ranks.
    fn crocopr_plan() -> RheemPlan {
        let mut b = PlanBuilder::new();
        let clean = |q: DataQuanta| q.map(same()).filter(PredicateUdf::new("valid", |_| true));
        let links =
            clean(b.collection(ints(8_000))).union(&clean(b.collection(ints(6_000)))).distinct();
        links
            .page_rank(5, 0.85)
            .join(&links, KeyUdf::field(0), KeyUdf::field(0))
            .map(same())
            .collect();
        b.build().unwrap()
    }

    /// TPC-H Q5's join tree: a dimension joined into two others, those into
    /// the two facts, then aggregation and ordering.
    fn q5_plan() -> RheemPlan {
        let mut b = PlanBuilder::new();
        let key = || KeyUdf::field(0);
        let region = b.collection(ints(5)).filter(PredicateUdf::new("name", |_| true));
        let nations = b.collection(ints(25)).map(same()).join(&region, key(), key()).map(same());
        let customers = b.collection(ints(1_500)).join(&nations, key(), key()).map(same());
        let suppliers = b.collection(ints(100)).join(&nations, key(), key()).map(same());
        let orders = b
            .collection(ints(15_000))
            .map(same())
            .filter(PredicateUdf::new("year", |_| true))
            .with_selectivity(1.0 / 7.0)
            .join(&customers, key(), key())
            .map(same());
        b.collection(ints(60_000))
            .map(same())
            .join(&orders, key(), key())
            .map(same())
            .join(&suppliers, key(), key())
            .filter(PredicateUdf::new("same_nation", |_| true))
            .map(same())
            .reduce_by_key(key(), ReduceUdf::sum())
            .sort_by(key())
            .collect();
        b.build().unwrap()
    }

    // ---- equivalence -----------------------------------------------------

    fn assert_settles_like_reference(
        ctx: &RheemContext,
        plan: &RheemPlan,
        prune: bool,
        what: &str,
    ) {
        let opt = Optimizer::new(ctx.registry(), ctx.profiles(), ctx.cost_model());
        let estimates = Estimator::new().estimate(plan).unwrap();
        let new = enumerate(&opt, plan, estimates.clone(), &[], prune).unwrap().unwrap();
        let old = enumerate_reference(&opt, plan, estimates, prune).unwrap();
        assert_eq!(new.choice, old.choice, "{what}: chosen alternatives differ");
        assert_eq!(new.est_ms.to_bits(), old.est_ms.to_bits(), "{what}: est_ms differs");
        let (n, o) = (new.stats, old.stats);
        assert_eq!(
            (n.candidates, n.partials_created, n.partials_pruned, n.movement_settlements),
            (o.candidates, o.partials_created, o.partials_pruned, o.movement_settlements),
            "{what}: enumeration counts differ"
        );
        assert!(n.movement_solves <= o.movement_solves, "{what}: {n:?} vs {o:?}");
    }

    #[test]
    fn settling_once_per_boundary_equals_settling_every_partial() {
        let ctx = test_ctx();
        for case in 0u64..16 {
            let plan = random_plan(case);
            assert_settles_like_reference(&ctx, &plan, true, &format!("random case {case}"));
        }
        for (what, plan) in [
            ("wordcount", wordcount_plan()),
            ("sgd", sgd_plan()),
            ("crocopr", crocopr_plan()),
            ("q5", q5_plan()),
        ] {
            assert_settles_like_reference(&ctx, &plan, true, what);
        }
        // Unpruned, every combination is a partial of its own.
        assert_settles_like_reference(&ctx, &random_plan(0), false, "random case 0, exhaustive");
        assert_settles_like_reference(&ctx, &wordcount_plan(), false, "wordcount, exhaustive");
    }

    #[test]
    fn settlements_outnumber_solves_on_a_join_tree() {
        let ctx = test_ctx();
        let stats = ctx.optimize(&q5_plan()).unwrap().stats;
        assert!(
            stats.movement_solves * 4 < stats.movement_settlements,
            "expected most settlements to be lookups: {stats:?}"
        );
    }

    /// An infeasible boundary is solved once: its `None` is remembered and
    /// the next partial carrying it is a lookup.
    #[test]
    fn infeasible_boundary_is_served_from_the_memo() {
        let ctx = test_ctx();
        let mut b = PlanBuilder::new();
        let a = b.collection(ints(10)).map(same());
        let (b1, b2) = (a.map(same()), a.count());
        let (a_id, b1_id, b2_id) = (a.id(), b1.id(), b2.id());
        b1.collect();
        b2.collect();
        let plan = b.build().unwrap();

        let opt = Optimizer::new(ctx.registry(), ctx.profiles(), ctx.cost_model());
        let graph = ctx.registry().conversion_graph();
        let estimates = Estimator::new().estimate(&plan).unwrap();
        let inf = build_inflated(&opt, &plan, estimates, graph, &[]).unwrap();
        let pick = |op: OperatorId, platform: PlatformId| -> u32 {
            let ci = inf.by_head[op.index()]
                .iter()
                .find(|&&ci| inf.cands[ci].covers.len() == 1 && inf.facts[ci].platform == platform);
            *ci.unwrap() as u32
        };
        // `a` on the island feeds a JavaStreams map (which reads no island
        // channel); only the other consumer's platform differs.
        let partial = |b2_platform: PlatformId| {
            let mut choice = vec![UNSET; plan.len()];
            choice[a_id.index()] = pick(a_id, ISLAND);
            choice[b1_id.index()] = pick(b1_id, ids::JAVA_STREAMS);
            choice[b2_id.index()] = pick(b2_id, b2_platform);
            Partial { choice, cost: 0.0, mask: 0 }
        };
        let mut settlements = Settlements::new(&opt, &inf, graph);
        assert_eq!(settlements.settle(&inf, &partial(ids::SPARK), a_id).unwrap(), None);
        assert_eq!((settlements.settled, settlements.solved), (1, 1));
        assert_eq!(settlements.settle(&inf, &partial(ids::SPARK), a_id).unwrap(), None);
        assert_eq!((settlements.settled, settlements.solved), (2, 1));
        // A different consumer choice is a different problem.
        assert_eq!(settlements.settle(&inf, &partial(ids::FLINK), a_id).unwrap(), None);
        assert_eq!((settlements.settled, settlements.solved), (3, 2));
    }

    // ---- limits are errors, not panics ----------------------------------

    #[test]
    fn a_producer_with_too_many_consumers_is_a_typed_error() {
        let mut b = PlanBuilder::new();
        let fanout = b.collection(ints(10)).map(same());
        for _ in 0..=crate::movement::MAX_CONSUMERS {
            fanout.count().collect();
        }
        let plan = b.build().unwrap();
        match test_ctx().optimize(&plan) {
            Err(RheemError::Optimizer(msg)) => assert!(msg.contains("17 consumers"), "{msg}"),
            other => panic!("expected an optimizer error, got {:?}", other.map(|o| o.est_ms)),
        }
    }

    #[test]
    fn more_platforms_than_mask_bits_is_a_typed_error() {
        let mut ctx = RheemContext::new();
        let platforms: Vec<PlatformId> = (0..=u32::BITS)
            .map(|i| PlatformId(Box::leak(format!("engine{i}").into_boxed_str())))
            .collect();
        ctx.registry_mut().add_mapping(Arc::new(FnMapping(
            move |_plan: &RheemPlan, node: &OperatorNode| {
                if node.op.kind() != OpKind::Map {
                    return vec![];
                }
                platforms
                    .iter()
                    .map(|&platform| {
                        let exec = TestOp {
                            name: "Map",
                            platform,
                            accepts: vec![kinds::COLLECTION],
                            out: kinds::COLLECTION,
                            alpha: 1.0,
                        };
                        Candidate::single(node.id, Arc::new(exec) as _)
                    })
                    .collect()
            },
        )));
        let mut b = PlanBuilder::new();
        b.collection(ints(10)).map(same()).collect();
        match ctx.optimize(&b.build().unwrap()) {
            Err(RheemError::Optimizer(msg)) => assert!(msg.contains("33 platforms"), "{msg}"),
            other => panic!("expected an optimizer error, got {:?}", other.map(|o| o.est_ms)),
        }
    }
}
