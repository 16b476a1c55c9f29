//! The extension registry: platforms plug in mappings, channel kinds and
//! conversion operators here (§3 "Extensibility").
//!
//! Adding a platform requires only (i) its execution operators and their
//! mappings and (ii) its channels with at least one conversion from/to an
//! existing channel — the channel conversion graph then connects it to every
//! other platform transitively, reducing integration effort from `O(nm)` to
//! `O(n)`.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::channel::{ChannelDescriptor, ChannelKind};
use crate::exec::ExecutionOperator;
use crate::mapping::{Candidate, OperatorMapping};
use crate::movement::ConversionGraph;
use crate::plan::{OperatorNode, RheemPlan};
use crate::platform::PlatformId;

/// A conversion-operator edge of the channel conversion graph.
#[derive(Clone)]
pub struct Conversion {
    /// Source channel kind.
    pub from: ChannelKind,
    /// Target channel kind.
    pub to: ChannelKind,
    /// The conversion operator (a regular execution operator with one input
    /// of kind `from` producing `to`).
    pub op: Arc<dyn ExecutionOperator>,
}

impl std::fmt::Debug for Conversion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {} via {}", self.from, self.to, self.op.name())
    }
}

/// Registry of everything platforms contribute.
pub struct Registry {
    mappings: Vec<Arc<dyn OperatorMapping>>,
    channels: HashMap<ChannelKind, ChannelDescriptor>,
    conversions: Vec<Conversion>,
    platforms: Vec<PlatformId>,
    source_estimators: Vec<crate::cardinality::SourceEstimator>,
    fusion: bool,
    /// The conversion graph over `channels` and `conversions`, built on
    /// first use and dropped by every change to either.
    graph: OnceLock<ConversionGraph>,
}

impl Default for Registry {
    fn default() -> Self {
        Self {
            mappings: Vec::new(),
            channels: HashMap::new(),
            conversions: Vec::new(),
            platforms: Vec::new(),
            source_estimators: Vec::new(),
            fusion: true,
            graph: OnceLock::new(),
        }
    }
}

impl Registry {
    /// Empty registry with the core's built-in channel kinds.
    pub fn new() -> Self {
        let mut r = Self::default();
        r.add_channel(ChannelDescriptor {
            kind: crate::channel::kinds::COLLECTION,
            reusable: true,
        });
        r.add_channel(ChannelDescriptor {
            kind: crate::channel::kinds::LOCAL_FILE,
            reusable: true,
        });
        r.add_channel(ChannelDescriptor { kind: crate::channel::kinds::HDFS_FILE, reusable: true });
        r
    }

    /// Enable or disable operator fusion: with fusion off, multi-operator
    /// chain candidates are discarded and every operator executes through
    /// its 1-to-1 mapping (the ablation baseline).
    pub fn set_fusion(&mut self, on: bool) {
        self.fusion = on;
    }

    /// Whether chain (fused) candidates are considered.
    pub fn fusion(&self) -> bool {
        self.fusion
    }

    /// Record that a platform registered itself.
    pub fn add_platform(&mut self, id: PlatformId) {
        if !self.platforms.contains(&id) {
            self.platforms.push(id);
        }
    }

    /// Registered platforms, in registration order.
    pub fn platforms(&self) -> &[PlatformId] {
        &self.platforms
    }

    /// Register an operator mapping.
    pub fn add_mapping(&mut self, mapping: Arc<dyn OperatorMapping>) {
        self.mappings.push(mapping);
    }

    /// Register a channel kind.
    pub fn add_channel(&mut self, desc: ChannelDescriptor) {
        self.channels.insert(desc.kind, desc);
        self.graph.take();
    }

    /// Register a conversion operator edge.
    pub fn add_conversion(
        &mut self,
        from: ChannelKind,
        to: ChannelKind,
        op: Arc<dyn ExecutionOperator>,
    ) {
        self.conversions.push(Conversion { from, to, op });
        self.graph.take();
    }

    /// Register a source-cardinality estimator (e.g. the relational store
    /// reports its table sizes to the optimizer).
    pub fn add_source_estimator(&mut self, e: crate::cardinality::SourceEstimator) {
        self.source_estimators.push(e);
    }

    /// All registered source estimators.
    pub fn source_estimators(&self) -> &[crate::cardinality::SourceEstimator] {
        &self.source_estimators
    }

    /// Channel descriptor lookup (unknown kinds default to non-reusable, the
    /// conservative choice).
    pub fn channel(&self, kind: ChannelKind) -> ChannelDescriptor {
        self.channels.get(&kind).cloned().unwrap_or(ChannelDescriptor { kind, reusable: false })
    }

    /// All registered channel kinds.
    pub fn channel_kinds(&self) -> Vec<ChannelKind> {
        let mut v: Vec<ChannelKind> = self.channels.keys().copied().collect();
        v.sort();
        v
    }

    /// All conversion edges.
    pub fn conversions(&self) -> &[Conversion] {
        &self.conversions
    }

    /// The channel conversion graph of the registered channels and
    /// conversions: built once per registry state and shared by every
    /// optimization and execution-plan build over it.
    pub fn conversion_graph(&self) -> &ConversionGraph {
        self.graph.get_or_init(|| ConversionGraph::from_registry(self))
    }

    /// All execution alternatives for `node` across every registered
    /// mapping, honouring a `withTargetPlatform` pin.
    pub fn candidates_for(&self, plan: &RheemPlan, node: &OperatorNode) -> Vec<Candidate> {
        let mut out = Vec::new();
        for m in &self.mappings {
            out.extend(m.candidates(plan, node));
        }
        if !self.fusion {
            out.retain(|c| c.covers.len() == 1);
        }
        if let Some(pin) = node.target_platform {
            out.retain(|c| c.exec.platform() == pin);
        }
        // Chain candidates must not absorb operators that are themselves
        // pinned to a different platform.
        out.retain(|c| {
            c.covers.iter().all(|&op| {
                plan.node(op).target_platform.map(|pin| pin == c.exec.platform()).unwrap_or(true)
            })
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{kinds, ChannelData};
    use crate::cost::Load;
    use crate::error::Result;
    use crate::exec::ExecCtx;
    use crate::mapping::FnMapping;
    use crate::plan::{LogicalOp, OpKind};
    use crate::udf::{BroadcastCtx, MapUdf};

    struct Noop(PlatformId);
    impl ExecutionOperator for Noop {
        fn name(&self) -> &str {
            "Noop"
        }
        fn platform(&self) -> PlatformId {
            self.0
        }
        fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
            vec![kinds::COLLECTION]
        }
        fn output_kind(&self) -> ChannelKind {
            kinds::COLLECTION
        }
        fn load(&self, _in: &[f64], _b: f64, _model: &crate::cost::CostModel) -> Load {
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

    fn tiny_plan() -> RheemPlan {
        let mut p = RheemPlan::new();
        let s = p.add(LogicalOp::CollectionSource { data: Arc::new(vec![]) }, &[]);
        let m = p.add(LogicalOp::Map(MapUdf::new("m", |v| v.clone())), &[s]);
        p.add(LogicalOp::CollectionSink, &[m]);
        p
    }

    fn map_mapping(platform: PlatformId) -> Arc<dyn OperatorMapping> {
        Arc::new(FnMapping(move |_p: &RheemPlan, n: &OperatorNode| {
            if n.op.kind() == OpKind::Map {
                vec![Candidate::single(n.id, Arc::new(Noop(platform)) as _)]
            } else {
                vec![]
            }
        }))
    }

    #[test]
    fn builtin_channels_present() {
        let r = Registry::new();
        assert!(r.channel(kinds::COLLECTION).reusable);
        assert!(r.channel(kinds::HDFS_FILE).reusable);
        // unknown kinds default to non-reusable
        assert!(!r.channel(ChannelKind("mystery")).reusable);
    }

    #[test]
    fn candidates_gather_across_mappings() {
        let mut r = Registry::new();
        r.add_mapping(map_mapping(PlatformId("a")));
        r.add_mapping(map_mapping(PlatformId("b")));
        let plan = tiny_plan();
        let node = plan.node(crate::plan::OperatorId(1));
        assert_eq!(r.candidates_for(&plan, node).len(), 2);
    }

    #[test]
    fn target_platform_pin_filters() {
        let mut r = Registry::new();
        r.add_mapping(map_mapping(PlatformId("a")));
        r.add_mapping(map_mapping(PlatformId("b")));
        let mut plan = tiny_plan();
        let id = crate::plan::OperatorId(1);
        plan.set_target_platform(id, PlatformId("b"));
        let c = r.candidates_for(&plan, plan.node(id));
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].exec.platform(), PlatformId("b"));
    }

    #[test]
    fn fusion_toggle_drops_chain_candidates() {
        let mut r = Registry::new();
        r.add_mapping(map_mapping(PlatformId("a")));
        // a chain candidate covering the source + the map
        r.add_mapping(Arc::new(FnMapping(|_p: &RheemPlan, n: &OperatorNode| {
            if n.op.kind() == OpKind::Map {
                vec![Candidate {
                    covers: vec![crate::plan::OperatorId(0), n.id],
                    exec: Arc::new(Noop(PlatformId("a"))) as _,
                }]
            } else {
                vec![]
            }
        })));
        let plan = tiny_plan();
        let node = plan.node(crate::plan::OperatorId(1));
        assert_eq!(r.candidates_for(&plan, node).len(), 2);
        r.set_fusion(false);
        let c = r.candidates_for(&plan, node);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].covers.len(), 1);
    }

    #[test]
    fn conversion_graph_follows_the_registry() {
        let mut r = Registry::new();
        let kinds = r.conversion_graph().kind_count();
        assert!(std::ptr::eq(r.conversion_graph(), r.conversion_graph()), "built once");
        r.add_channel(ChannelDescriptor { kind: ChannelKind("late"), reusable: false });
        assert_eq!(r.conversion_graph().kind_count(), kinds + 1);
        r.add_conversion(kinds::COLLECTION, ChannelKind("later"), Arc::new(Noop(PlatformId("a"))));
        assert_eq!(r.conversion_graph().kind_count(), kinds + 2);
    }

    #[test]
    fn platform_registration_dedupes() {
        let mut r = Registry::new();
        r.add_platform(PlatformId("x"));
        r.add_platform(PlatformId("x"));
        assert_eq!(r.platforms().len(), 1);
    }
}
