//! Data-movement planning over the channel conversion graph (§3, §4.1).
//!
//! Channels are vertices; conversion operators are directed edges. For a
//! producer with one consumer we need a cheapest conversion *path*; with
//! several consumers (possibly on different platforms) we need a *minimal
//! conversion tree* (MCT) — an NP-hard Steiner-tree variant the paper \[43\]
//! solves via kernelization. Here the graph is small (a dozen kinds), so we
//! solve the MCT exactly with a Dreyfus–Wagner-style subset DP, honouring
//! channel *reusability*: fan-out may only happen at reusable channels
//! (e.g. a cached RDD or a collection, but not a consumed-once RDD).

use std::collections::HashMap;
use std::sync::Arc;

use crate::channel::ChannelKind;
use crate::cost::CostModel;
use crate::error::{Result, RheemError};
use crate::platform::Profiles;
use crate::registry::{Conversion, Registry};

/// A node of an executable conversion tree. The producer's output enters at
/// the root; each child edge applies one conversion operator; consumers are
/// served at the nodes listed in `deliver`.
#[derive(Clone)]
pub struct ConvNode {
    /// Channel kind of the data at this node.
    pub kind: ChannelKind,
    /// Indices of consumers served directly at this node.
    pub deliver: Vec<usize>,
    /// Conversions applied to this node's data, with their subtrees.
    pub children: Vec<(Arc<Conversion>, ConvNode)>,
}

impl ConvNode {
    /// Total number of conversion edges in the tree.
    pub fn edge_count(&self) -> usize {
        self.children.iter().map(|(_, c)| 1 + c.edge_count()).sum()
    }

    /// All conversion operator names, in preorder (for tests/diagnostics).
    pub fn op_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_names(&mut out);
        out
    }

    fn collect_names(&self, out: &mut Vec<String>) {
        for (conv, child) in &self.children {
            out.push(conv.op.name().to_string());
            child.collect_names(out);
        }
    }
}

impl std::fmt::Debug for ConvNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{:?}", self.kind, self.deliver)?;
        if !self.children.is_empty() {
            write!(f, " -> [")?;
            for (i, (conv, c)) in self.children.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}: {c:?}", conv.op.name())?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// A solved movement problem: the tree plus its estimated virtual cost.
#[derive(Clone, Debug)]
pub struct MovementPlan {
    /// Executable conversion tree rooted at the producer's output kind.
    pub tree: ConvNode,
    /// Estimated virtual time of all conversions, ms.
    pub cost_ms: f64,
}

/// Most consumers one producer's conversion tree can serve: the subset DP
/// tabulates `2^consumers` rows.
pub const MAX_CONSUMERS: usize = 16;

#[derive(Clone, Copy)]
enum Back {
    Leaf(usize),
    Edge { to: usize, conv: usize },
    Merge { s1: usize },
    None,
}

/// One solved movement problem.
struct Solved {
    /// Per vertex: cheapest cost of serving every consumer from it.
    cost: Vec<f64>,
    /// Per consumer subset (bitmask), per vertex: how its cost is achieved.
    back: Vec<Vec<Back>>,
}

/// The channel conversion graph with solver.
pub struct ConversionGraph {
    kinds: Vec<ChannelKind>,
    kind_idx: HashMap<ChannelKind, usize>,
    reusable: Vec<bool>,
    /// edges[v] = outgoing (to, conversion index into `conversions`)
    edges: Vec<Vec<(usize, usize)>>,
    conversions: Vec<Arc<Conversion>>,
}

impl ConversionGraph {
    /// Build from the registry's channels and conversion operators. Jobs
    /// share the registry's own instance
    /// ([`Registry::conversion_graph`]) instead of rebuilding it.
    pub fn from_registry(registry: &Registry) -> Self {
        let mut kinds: Vec<ChannelKind> = registry.channel_kinds();
        // Conversions may mention kinds the registry didn't describe.
        for c in registry.conversions() {
            if !kinds.contains(&c.from) {
                kinds.push(c.from);
            }
            if !kinds.contains(&c.to) {
                kinds.push(c.to);
            }
        }
        let kind_idx: HashMap<ChannelKind, usize> =
            kinds.iter().enumerate().map(|(i, k)| (*k, i)).collect();
        let reusable = kinds.iter().map(|k| registry.channel(*k).reusable).collect();
        let mut edges = vec![Vec::new(); kinds.len()];
        let mut conversions = Vec::new();
        for c in registry.conversions() {
            let from = kind_idx[&c.from];
            let to = kind_idx[&c.to];
            edges[from].push((to, conversions.len()));
            conversions.push(Arc::new(c.clone()));
        }
        Self { kinds, kind_idx, reusable, edges, conversions }
    }

    /// Number of channel kinds (vertices).
    pub fn kind_count(&self) -> usize {
        self.kinds.len()
    }

    /// Vertex of a channel kind; `None` for a kind no channel or conversion
    /// mentions (nothing is reachable from or at it).
    pub fn kind_index(&self, kind: ChannelKind) -> Option<usize> {
        self.kind_idx.get(&kind).copied()
    }

    /// The vertices among `kinds`, in order (unknown kinds match nothing).
    pub fn kind_indices(&self, kinds: &[ChannelKind]) -> Vec<usize> {
        kinds.iter().filter_map(|k| self.kind_index(*k)).collect()
    }

    /// Estimated virtual ms of every conversion for `card` quanta of
    /// `avg_bytes` each, indexed like the graph's conversions. They depend
    /// on nothing else, so one producer's problems all share one vector.
    pub fn edge_weights(
        &self,
        card: f64,
        avg_bytes: f64,
        profiles: &Profiles,
        model: &CostModel,
    ) -> Vec<f64> {
        self.conversions
            .iter()
            .map(|conv| {
                let load = conv.op.load(&[card], avg_bytes, model);
                load.to_ms(profiles.get(conv.op.platform())) + 0.01 // epsilon: prefer fewer hops
            })
            .collect()
    }

    /// Solve the minimal-conversion-tree problem: the producer emits
    /// `from`; consumer `i` accepts any kind in `consumers[i]`. Returns
    /// `Ok(None)` when some consumer is unreachable and an error for more
    /// than [`MAX_CONSUMERS`] consumers.
    pub fn best_tree(
        &self,
        from: ChannelKind,
        consumers: &[Vec<ChannelKind>],
        card: f64,
        avg_bytes: f64,
        profiles: &Profiles,
        model: &CostModel,
    ) -> Result<Option<MovementPlan>> {
        check_consumers(consumers.len())?;
        Ok(self.tree_by(Self::solve, from, consumers, card, avg_bytes, profiles, model))
    }

    /// [`ConversionGraph::best_tree`] as it stood before edge weights were
    /// shared and one consumer got its own path: the subset DP for any
    /// number of consumers. The reference the tests compare against.
    #[cfg(test)]
    pub(crate) fn best_tree_general(
        &self,
        from: ChannelKind,
        consumers: &[Vec<ChannelKind>],
        card: f64,
        avg_bytes: f64,
        profiles: &Profiles,
        model: &CostModel,
    ) -> Option<MovementPlan> {
        assert!(consumers.len() <= MAX_CONSUMERS);
        self.tree_by(Self::solve_subsets, from, consumers, card, avg_bytes, profiles, model)
    }

    #[allow(clippy::too_many_arguments)]
    fn tree_by(
        &self,
        solver: fn(&Self, &[&[usize]], &[f64]) -> Solved,
        from: ChannelKind,
        consumers: &[Vec<ChannelKind>],
        card: f64,
        avg_bytes: f64,
        profiles: &Profiles,
        model: &CostModel,
    ) -> Option<MovementPlan> {
        let root = self.kind_index(from)?;
        let sets: Vec<Vec<usize>> = consumers.iter().map(|c| self.kind_indices(c)).collect();
        let sets: Vec<&[usize]> = sets.iter().map(Vec::as_slice).collect();
        let solved = solver(self, &sets, &self.edge_weights(card, avg_bytes, profiles, model));
        let cost_ms = solved.cost[root];
        let full = solved.back.len() - 1;
        cost_ms
            .is_finite()
            .then(|| MovementPlan { tree: self.rebuild(&solved.back, full, root), cost_ms })
    }

    /// Cost of [`ConversionGraph::best_tree`] alone, for a producer at
    /// vertex `root`, consumers given as vertex sets and the weights of
    /// [`ConversionGraph::edge_weights`] — what plan enumeration settles.
    pub(crate) fn best_cost(
        &self,
        root: usize,
        consumers: &[&[usize]],
        w: &[f64],
    ) -> Result<Option<f64>> {
        check_consumers(consumers.len())?;
        let cost_ms = self.solve(consumers, w).cost[root];
        Ok(cost_ms.is_finite().then_some(cost_ms))
    }

    /// One consumer needs a cheapest path, not a tree: a single relaxed row
    /// instead of the subset tables (whose only non-empty subset it is).
    fn solve(&self, consumers: &[&[usize]], w: &[f64]) -> Solved {
        match consumers {
            [targets] => {
                let k = self.kinds.len();
                let (mut dp, mut back) = (vec![f64::INFINITY; k], vec![Back::None; k]);
                for &vi in *targets {
                    dp[vi] = 0.0;
                    back[vi] = Back::Leaf(0);
                }
                self.relax(&mut dp, &mut back, w);
                Solved { cost: dp, back: vec![Vec::new(), back] }
            }
            _ => self.solve_subsets(consumers, w),
        }
    }

    /// Dreyfus–Wagner over consumer subsets.
    fn solve_subsets(&self, consumers: &[&[usize]], w: &[f64]) -> Solved {
        let k = self.kinds.len();
        let full = (1usize << consumers.len()) - 1;
        let mut dp = vec![vec![f64::INFINITY; k]; full + 1];
        let mut back = vec![vec![Back::None; k]; full + 1];
        if full == 0 {
            // No consumers: the producer's output is the whole (free) tree.
            dp[0].fill(0.0);
        }
        for s in 1..=full {
            // Singleton bases.
            if s.count_ones() == 1 {
                let i = s.trailing_zeros() as usize;
                for &vi in consumers[i] {
                    dp[s][vi] = 0.0;
                    back[s][vi] = Back::Leaf(i);
                }
            }
            // Merges: split S at a reusable vertex.
            let mut s1 = (s - 1) & s;
            while s1 > 0 {
                let s2 = s & !s1;
                if s1 < s2 {
                    // avoid double-counting symmetric splits
                    s1 = (s1 - 1) & s;
                    continue;
                }
                for vi in 0..k {
                    if !self.reusable[vi] {
                        continue;
                    }
                    let cost = dp[s1][vi] + dp[s2][vi];
                    if cost < dp[s][vi] {
                        dp[s][vi] = cost;
                        back[s][vi] = Back::Merge { s1 };
                    }
                }
                s1 = (s1 - 1) & s;
            }
            self.relax(&mut dp[s], &mut back[s], w);
        }
        Solved { cost: dp.swap_remove(full), back }
    }

    /// Edge relaxations of one subset's row (Bellman–Ford over the small
    /// graph).
    fn relax(&self, dp: &mut [f64], back: &mut [Back], w: &[f64]) {
        let k = self.kinds.len();
        for _ in 0..k {
            let mut changed = false;
            for vi in 0..k {
                for &(to, conv) in &self.edges[vi] {
                    let cost = dp[to] + w[conv];
                    if cost + 1e-12 < dp[vi] {
                        dp[vi] = cost;
                        back[vi] = Back::Edge { to, conv };
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn rebuild(&self, back: &[Vec<Back>], s: usize, v: usize) -> ConvNode {
        match back[s][v] {
            Back::Leaf(i) => ConvNode { kind: self.kinds[v], deliver: vec![i], children: vec![] },
            Back::Edge { to, conv } => {
                let child = self.rebuild(back, s, to);
                ConvNode {
                    kind: self.kinds[v],
                    deliver: vec![],
                    children: vec![(Arc::clone(&self.conversions[conv]), child)],
                }
            }
            Back::Merge { s1 } => {
                let a = self.rebuild(back, s1, v);
                let b = self.rebuild(back, s & !s1, v);
                ConvNode {
                    kind: self.kinds[v],
                    deliver: a.deliver.into_iter().chain(b.deliver).collect(),
                    children: a.children.into_iter().chain(b.children).collect(),
                }
            }
            Back::None => ConvNode { kind: self.kinds[v], deliver: vec![], children: vec![] },
        }
    }

    /// Cheapest conversion cost from `from` to any kind in `targets` for a
    /// single consumer (the common case during plan enumeration).
    pub fn best_path_cost(
        &self,
        from: ChannelKind,
        targets: &[ChannelKind],
        card: f64,
        avg_bytes: f64,
        profiles: &Profiles,
        model: &CostModel,
    ) -> Option<f64> {
        let root = self.kind_index(from)?;
        let w = self.edge_weights(card, avg_bytes, profiles, model);
        let cost_ms = self.solve(&[&self.kind_indices(targets)], &w).cost[root];
        cost_ms.is_finite().then_some(cost_ms)
    }
}

fn check_consumers(c: usize) -> Result<()> {
    if c > MAX_CONSUMERS {
        return Err(RheemError::Optimizer(format!(
            "one operator's output feeds {c} consumers; the movement planner supports up to \
             {MAX_CONSUMERS}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{kinds, ChannelData, ChannelDescriptor};
    use crate::cost::Load;
    use crate::exec::{ExecCtx, ExecutionOperator};
    use crate::platform::PlatformId;
    use crate::udf::BroadcastCtx;

    const RDD: ChannelKind = ChannelKind("t.rdd");
    const RDD_CACHED: ChannelKind = ChannelKind("t.rdd.cached");

    struct Conv(&'static str, f64);
    impl ExecutionOperator for Conv {
        fn name(&self) -> &str {
            self.0
        }
        fn platform(&self) -> PlatformId {
            PlatformId("test")
        }
        fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
            vec![]
        }
        fn output_kind(&self) -> ChannelKind {
            kinds::NONE
        }
        fn load(&self, in_cards: &[f64], _b: f64, _model: &CostModel) -> Load {
            Load::cpu(self.1 * in_cards.iter().sum::<f64>().max(1.0) * 1000.0)
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

    fn test_registry() -> Registry {
        let mut r = Registry::new();
        r.add_channel(ChannelDescriptor { kind: RDD, reusable: false });
        r.add_channel(ChannelDescriptor { kind: RDD_CACHED, reusable: true });
        r.add_conversion(RDD, RDD_CACHED, Arc::new(Conv("Cache", 1.0)));
        r.add_conversion(RDD_CACHED, kinds::COLLECTION, Arc::new(Conv("Collect", 2.0)));
        r.add_conversion(RDD, kinds::COLLECTION, Arc::new(Conv("CollectDirect", 2.5)));
        r.add_conversion(kinds::COLLECTION, RDD, Arc::new(Conv("Parallelize", 2.0)));
        r
    }

    /// Solve through the public entry and check it against the subset DP
    /// with weights of its own (`best_tree_general`): same cost, same tree.
    fn solve(
        g: &ConversionGraph,
        from: ChannelKind,
        consumers: &[Vec<ChannelKind>],
        card: f64,
    ) -> Option<MovementPlan> {
        let (profiles, model) = (Profiles::bare(), CostModel::new());
        let plan = g.best_tree(from, consumers, card, 64.0, &profiles, &model).unwrap();
        let general = g.best_tree_general(from, consumers, card, 64.0, &profiles, &model);
        assert_eq!(
            plan.as_ref().map(|p| (p.cost_ms.to_bits(), format!("{:?}", p.tree))),
            general.as_ref().map(|p| (p.cost_ms.to_bits(), format!("{:?}", p.tree))),
            "{from} -> {consumers:?} at {card}"
        );
        plan
    }

    #[test]
    fn direct_delivery_costs_nothing() {
        let g = ConversionGraph::from_registry(&test_registry());
        let plan = solve(&g, RDD, &[vec![RDD]], 100.0).unwrap();
        assert_eq!(plan.cost_ms, 0.0);
        assert_eq!(plan.tree.edge_count(), 0);
        assert_eq!(plan.tree.deliver, vec![0]);
    }

    #[test]
    fn single_consumer_takes_cheapest_path() {
        let g = ConversionGraph::from_registry(&test_registry());
        let plan = solve(&g, RDD, &[vec![kinds::COLLECTION]], 100.0).unwrap();
        // direct RDD->Collection (2.5) beats Cache(1)+Collect(2)=3
        assert_eq!(plan.tree.op_names(), vec!["CollectDirect"]);
    }

    #[test]
    fn fanout_on_nonreusable_channel_routes_through_cache() {
        let g = ConversionGraph::from_registry(&test_registry());
        // two consumers both need RDD; RDD is not reusable, so the tree must
        // cache first and re-derive RDDs... but there is no cached->rdd edge,
        // so instead it goes rdd -> collection (reusable) -> parallelize x2?
        // cheapest valid: direct-collect (2.5) then two Parallelize (2+2)
        // vs cache(1)+collect(2) then 2x parallelize: 1+2+4=7 > 6.5
        let plan = solve(&g, RDD, &[vec![RDD], vec![RDD]], 1.0).unwrap();
        let names = plan.tree.op_names();
        assert_eq!(names.iter().filter(|n| *n == "Parallelize").count(), 2, "{names:?}");
        assert!(names.contains(&"CollectDirect".to_string()), "{names:?}");
    }

    #[test]
    fn shared_prefix_is_not_duplicated() {
        let g = ConversionGraph::from_registry(&test_registry());
        // one consumer wants a collection, another wants an RDD: share the
        // collect, then parallelize for the second.
        let plan = solve(&g, RDD, &[vec![kinds::COLLECTION], vec![RDD]], 1.0).unwrap();
        let names = plan.tree.op_names();
        assert_eq!(names.iter().filter(|n| *n == "CollectDirect").count(), 1);
        assert_eq!(names.iter().filter(|n| *n == "Parallelize").count(), 1);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let g = ConversionGraph::from_registry(&test_registry());
        assert!(solve(&g, RDD, &[vec![ChannelKind("mars.rover")]], 1.0).is_none());
        // ...also for a kind the graph knows but no conversion reaches.
        assert!(solve(&g, kinds::LOCAL_FILE, &[vec![RDD]], 1.0).is_none());
    }

    #[test]
    fn costs_scale_with_cardinality() {
        let g = ConversionGraph::from_registry(&test_registry());
        let small = solve(&g, RDD, &[vec![kinds::COLLECTION]], 10.0).unwrap().cost_ms;
        let large = solve(&g, RDD, &[vec![kinds::COLLECTION]], 10_000.0).unwrap().cost_ms;
        assert!(large > small);
        let (profiles, model) = (Profiles::bare(), CostModel::new());
        let path = g.best_path_cost(RDD, &[kinds::COLLECTION], 10.0, 64.0, &profiles, &model);
        assert_eq!(path.map(f64::to_bits), Some(small.to_bits()));
    }

    /// One weight vector serves every problem at its cardinality and bytes:
    /// costs equal those of solves that each computed their own.
    #[test]
    fn shared_edge_weights_cost_the_same() {
        let g = ConversionGraph::from_registry(&test_registry());
        let (profiles, model) = (Profiles::bare(), CostModel::new());
        let w = g.edge_weights(1.0, 64.0, &profiles, &model);
        let root = g.kind_index(RDD).unwrap();
        for consumers in [
            vec![vec![RDD]],
            vec![vec![kinds::COLLECTION]],
            vec![vec![RDD], vec![RDD]],
            vec![vec![kinds::COLLECTION], vec![RDD]],
            vec![vec![ChannelKind("mars.rover")]],
        ] {
            let sets: Vec<Vec<usize>> = consumers.iter().map(|c| g.kind_indices(c)).collect();
            let sets: Vec<&[usize]> = sets.iter().map(Vec::as_slice).collect();
            let shared = g.best_cost(root, &sets, &w).unwrap();
            let own = solve(&g, RDD, &consumers, 1.0).map(|p| p.cost_ms);
            assert_eq!(shared.map(f64::to_bits), own.map(f64::to_bits), "{consumers:?}");
        }
    }

    #[test]
    fn too_many_consumers_is_a_typed_error() {
        let g = ConversionGraph::from_registry(&test_registry());
        let consumers = vec![vec![kinds::COLLECTION]; MAX_CONSUMERS + 1];
        let (profiles, model) = (Profiles::bare(), CostModel::new());
        let err = g.best_tree(RDD, &consumers, 1.0, 64.0, &profiles, &model).unwrap_err();
        assert!(matches!(err, RheemError::Optimizer(_)), "{err}");
        assert!(g.best_tree(RDD, &consumers[1..], 1.0, 64.0, &profiles, &model).is_ok());
    }
}
