//! The cross-platform optimizer (§4.1).
//!
//! Four phases, mirroring the paper: **plan inflation** (apply all operator
//! mappings, keeping every alternative), **cardinality & cost annotation**
//! (interval estimates), **data movement planning** (minimal conversion
//! trees over the channel conversion graph), and **plan enumeration** (the
//! Join/Prune algebra with lossless boundary-signature pruning, including
//! data-movement and platform start-up costs).

mod enumerate;

pub use enumerate::EnumerationStats;

use crate::cache::{CacheHit, Fingerprint, Namespace};
use crate::cardinality::{Estimates, Estimator};
use crate::cost::{CostModel, Interval};
use crate::error::{Result, RheemError};
use crate::mapping::Candidate;
use crate::plan::{OperatorId, RheemPlan};
use crate::platform::{PlatformId, Profiles};
use crate::registry::Registry;

/// The optimizer. Borrowers of registry/profiles/model so jobs can share a
/// context cheaply.
pub struct Optimizer<'a> {
    /// Mappings, channels, conversions.
    pub registry: &'a Registry,
    /// Virtual-cluster profiles.
    pub profiles: &'a Profiles,
    /// Tunable cost-model parameters.
    pub model: &'a CostModel,
    /// When set, restrict every mappable operator to this platform (used by
    /// the platform-independence experiments of §6.2 and by RheemLatin's
    /// `with platform` clause at plan granularity).
    pub forced_platform: Option<PlatformId>,
    /// Platforms excluded from enumeration (failover: a platform that
    /// exhausted its retry budget is blacklisted for the rest of the job;
    /// the driver's control operators are never excluded).
    pub blacklist: Vec<PlatformId>,
    /// Cross-job result cache. When set, it is probed once per fingerprinted
    /// operator: each hit pins that operator's estimate to the entry's
    /// cardinality, and inflation injects a zero-upstream
    /// [`crate::cache::CachedSource`] candidate for it, letting enumeration
    /// choose reuse when it beats recomputation.
    pub cache: Option<std::sync::Arc<crate::cache::ResultCache>>,
    /// Cache namespace lookups are scoped to (multi-tenant isolation).
    pub cache_ns: crate::cache::Namespace,
    /// Fall back to the shared namespace on a miss in `cache_ns`.
    pub cache_shared_read: bool,
    /// Fingerprint overrides for cache lookups: pins rewritten operators
    /// (progressive re-planning boundaries) to the subplan fingerprints
    /// they carried in the original plan.
    pub fp_overrides: std::collections::HashMap<OperatorId, crate::cache::Fingerprint>,
}

/// The result of optimization: one execution alternative chosen per plan
/// operator (chains share a choice), plus the annotations needed by the
/// executor and the progressive optimizer.
pub struct OptimizedPlan {
    /// Candidate arena.
    pub candidates: Vec<Candidate>,
    /// Per operator: index into `candidates` of the covering choice.
    pub choice: Vec<usize>,
    /// Cardinality annotations used.
    pub estimates: Estimates,
    /// Scalar enumeration cost of the chosen plan (virtual ms).
    pub est_ms: f64,
    /// Interval estimate of total runtime.
    pub est_interval: Interval,
    /// Platforms the plan uses (excluding the driver).
    pub platforms: Vec<PlatformId>,
    /// Enumeration statistics (for the pruning ablation).
    pub stats: EnumerationStats,
    /// Operators whose output the chosen plan replays from the cache: their
    /// results are already published under their fingerprints.
    pub replayed: Vec<OperatorId>,
}

/// A cache hit on one operator's subplan fingerprint, found by the
/// optimizer's one probe of it.
struct CacheProbe {
    op: OperatorId,
    ns: Namespace,
    fp: Fingerprint,
    hit: CacheHit,
}

impl OptimizedPlan {
    /// The candidate covering operator `id`.
    pub fn candidate_of(&self, id: OperatorId) -> &Candidate {
        &self.candidates[self.choice[id.index()]]
    }

    /// Platform chosen for operator `id`.
    pub fn platform_of(&self, id: OperatorId) -> PlatformId {
        self.candidate_of(id).exec.platform()
    }
}

impl<'a> Optimizer<'a> {
    /// New optimizer over a context's registry/profiles/model.
    pub fn new(registry: &'a Registry, profiles: &'a Profiles, model: &'a CostModel) -> Self {
        Self {
            registry,
            profiles,
            model,
            forced_platform: None,
            blacklist: Vec::new(),
            cache: None,
            cache_ns: crate::cache::Namespace::SHARED,
            cache_shared_read: true,
            fp_overrides: std::collections::HashMap::new(),
        }
    }

    /// Optimize a plan end-to-end: validate, probe the cache, estimate,
    /// inflate, enumerate.
    pub fn optimize(&self, plan: &RheemPlan, estimator: &Estimator) -> Result<OptimizedPlan> {
        self.optimize_with(plan, estimator, true)
    }

    /// Enumerate without pruning (exhaustive baseline for the ablation
    /// bench); identical output plan, exponentially more partials.
    pub fn optimize_exhaustive(
        &self,
        plan: &RheemPlan,
        estimator: &Estimator,
    ) -> Result<OptimizedPlan> {
        self.optimize_with(plan, estimator, false)
    }

    /// The cache is probed once, before estimation, and each hit pins its
    /// operator's estimate to the entry's recorded cardinality: a replayed
    /// result is a measurement, so the plan around it is costed at the true
    /// size and no checkpoint sees it as uncertain. A round whose chosen
    /// spilled entry cannot be read drops that hit, pin included, and plans
    /// again without it; there are at most as many rounds as hits.
    fn optimize_with(
        &self,
        plan: &RheemPlan,
        estimator: &Estimator,
        prune: bool,
    ) -> Result<OptimizedPlan> {
        plan.validate()?;
        let mut hits = self.probe_cache(plan);
        loop {
            let estimates = if hits.is_empty() {
                estimator.estimate(plan)?
            } else {
                let mut pinned = estimator.clone();
                for h in &hits {
                    pinned.overrides.entry(h.op).or_insert(h.hit.card as f64);
                }
                pinned.estimate(plan)?
            };
            match enumerate::enumerate(self, plan, estimates, &hits, prune)? {
                Ok(optimized) => return Ok(optimized),
                Err(unreadable) => hits.retain(|h| h.fp != unreadable),
            }
        }
    }

    /// One namespace-scoped lookup per fingerprinted operator: the tenant's
    /// own entries first, the shared namespace (public datasets) only when
    /// the scope opts in. None under a forced platform (a driver-side
    /// replay would bypass the pin), and none for an in-memory collection
    /// source, which replays for free already. Overridden fingerprints pin
    /// progressive-replan boundaries to their original identities, so a
    /// re-planned remainder still hits entries published before the
    /// rewrite.
    fn probe_cache(&self, plan: &RheemPlan) -> Vec<CacheProbe> {
        let Some(cache) = self.cache.as_ref().filter(|_| self.forced_platform.is_none()) else {
            return Vec::new();
        };
        let fps = crate::cache::plan_fingerprints_with(plan, &self.fp_overrides);
        let mut hits = Vec::new();
        for node in plan.operators() {
            let Some(fp) = fps[node.id.index()] else { continue };
            if matches!(node.op, crate::plan::LogicalOp::CollectionSource { .. }) {
                continue;
            }
            let hit =
                cache.lookup_in(self.cache_ns, fp).map(|h| (self.cache_ns, h)).or_else(|| {
                    (self.cache_shared_read && !self.cache_ns.is_shared())
                        .then(|| cache.lookup(fp).map(|h| (Namespace::SHARED, h)))
                        .flatten()
                });
            if let Some((ns, hit)) = hit {
                hits.push(CacheProbe { op: node.id, ns, fp, hit });
            }
        }
        hits
    }

    pub(crate) fn err_no_candidates(plan: &RheemPlan, id: OperatorId) -> RheemError {
        RheemError::Optimizer(format!(
            "no execution operator available for {} on any registered platform",
            plan.node(id).label()
        ))
    }
}
