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
    /// Cross-job result cache. When set, inflation injects zero-upstream
    /// [`crate::cache::CachedSource`] candidates for subplan-fingerprint
    /// hits, letting enumeration choose reuse when it beats recomputation.
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

    /// Optimize a plan end-to-end: validate, estimate, inflate, enumerate.
    pub fn optimize(&self, plan: &RheemPlan, estimator: &Estimator) -> Result<OptimizedPlan> {
        plan.validate()?;
        let estimates = estimator.estimate(plan)?;
        self.optimize_with_estimates(plan, estimates)
    }

    /// Optimize with externally supplied estimates (the progressive
    /// optimizer re-enters here with measured cardinalities, §4.4).
    pub fn optimize_with_estimates(
        &self,
        plan: &RheemPlan,
        estimates: Estimates,
    ) -> Result<OptimizedPlan> {
        enumerate::enumerate(self, plan, estimates)
    }

    /// Enumerate without pruning (exhaustive baseline for the ablation
    /// bench); identical output plan, exponentially more partials.
    pub fn optimize_exhaustive(
        &self,
        plan: &RheemPlan,
        estimator: &Estimator,
    ) -> Result<OptimizedPlan> {
        plan.validate()?;
        let estimates = estimator.estimate(plan)?;
        enumerate::enumerate_with(self, plan, estimates, false)
    }

    pub(crate) fn err_no_candidates(plan: &RheemPlan, id: OperatorId) -> RheemError {
        RheemError::Optimizer(format!(
            "no execution operator available for {} on any registered platform",
            plan.node(id).label()
        ))
    }
}
