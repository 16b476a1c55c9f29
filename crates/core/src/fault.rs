//! Deterministic fault injection (§7.1).
//!
//! The paper plans a "basic fault-tolerance mechanism at the cross-platform
//! level": re-run a failed stage from its checkpoint, possibly on a
//! different platform. This module supplies the *chaos* half of that story:
//! a seeded [`FaultPlan`] that deterministically injects failures at three
//! kinds of site — a per-operator transient error, a per-stage crash, and a
//! channel-transfer failure — each configurable as fail-N-times-then-succeed
//! or persistent. The executor threads the plan through every platform's
//! [`crate::exec::ExecCtx`]; platform operators call
//! [`crate::exec::ExecCtx::fault_gate`] (conversion operators call
//! [`crate::exec::ExecCtx::transfer_gate`]) so faults strike *inside* the
//! engines, exactly where real executor losses would.
//!
//! Determinism: whether a site is faulty, and how often it fails, is a pure
//! function of `(seed, kind, platform, operator, stage)`. Attempt counters
//! are keyed per `(site, iteration path)`, so "fail twice then succeed"
//! means exactly that on every retry schedule, independent of wall clock or
//! thread timing — chaos runs are reproducible byte-for-byte.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use crate::builtin::CONTROL;
use crate::platform::PlatformId;

/// The kind of failure a fault site produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A transient error inside one execution operator (lost task/executor).
    Transient,
    /// A crash of the whole stage submission (lost driver connection); the
    /// executor injects these itself, before dispatching a stage's node.
    StageCrash,
    /// A failure while converting/moving data between channels (lost
    /// shuffle block, broken pipe between platforms).
    Transfer,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Transient => write!(f, "transient"),
            FaultKind::StageCrash => write!(f, "stage-crash"),
            FaultKind::Transfer => write!(f, "transfer"),
        }
    }
}

/// Fail every attempt, forever (never succeed at this site).
pub const PERSISTENT: u32 = u32::MAX;

/// A targeted injection rule. All populated selectors must match; `None`
/// selectors match anything.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Failure kind this rule injects.
    pub kind: FaultKind,
    /// Restrict to one platform.
    pub platform: Option<PlatformId>,
    /// Restrict to execution operators whose name contains this substring.
    pub op_contains: Option<String>,
    /// Restrict to one stage id (of the currently executing plan).
    pub stage: Option<usize>,
    /// Fail this many attempts at each matched site, then succeed
    /// ([`PERSISTENT`] = never succeed).
    pub fail_times: u32,
}

impl FaultRule {
    /// A rule injecting `kind` everywhere, failing once then succeeding.
    pub fn new(kind: FaultKind) -> Self {
        Self { kind, platform: None, op_contains: None, stage: None, fail_times: 1 }
    }

    /// Restrict to a platform.
    pub fn on_platform(mut self, p: PlatformId) -> Self {
        self.platform = Some(p);
        self
    }

    /// Restrict to operators whose name contains `s`.
    pub fn on_op(mut self, s: impl Into<String>) -> Self {
        self.op_contains = Some(s.into());
        self
    }

    /// Restrict to one stage.
    pub fn on_stage(mut self, s: usize) -> Self {
        self.stage = Some(s);
        self
    }

    /// Fail `n` times then succeed (`PERSISTENT` = fail forever).
    pub fn failing(mut self, n: u32) -> Self {
        self.fail_times = n;
        self
    }

    fn matches(&self, kind: FaultKind, platform: PlatformId, op: &str, stage: usize) -> bool {
        self.kind == kind
            && self.platform.map(|p| p == platform).unwrap_or(true)
            && self.op_contains.as_deref().map(|s| op.contains(s)).unwrap_or(true)
            && self.stage.map(|s| s == stage).unwrap_or(true)
    }
}

/// One injected failure, carried inside [`crate::error::RheemError::Fault`]
/// so tests can assert on exactly what struck where.
#[derive(Clone, Debug)]
pub struct InjectedFault {
    /// Failure kind.
    pub kind: FaultKind,
    /// Platform whose operator failed.
    pub platform: PlatformId,
    /// Execution-operator name at the site.
    pub op: String,
    /// Stage id at injection time.
    pub stage: usize,
    /// Loop iteration path at injection time (0 outside loops).
    pub iteration: u64,
    /// 1-based attempt number at this site that failed.
    pub attempt: u32,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} fault at {}@{} (stage {}, iteration {}, attempt {})",
            self.kind, self.op, self.platform, self.stage, self.iteration, self.attempt
        )
    }
}

/// A stage that burned through its retry budget on one platform — the
/// executor's signal to fail over (carried in
/// [`crate::error::RheemError::Exhausted`]).
#[derive(Clone, Debug)]
pub struct BudgetExhausted {
    /// Platform that kept failing.
    pub platform: PlatformId,
    /// Stage that exhausted its budget.
    pub stage: usize,
    /// Failed attempts consumed.
    pub attempts: u32,
    /// Message of the last failure.
    pub cause: String,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retry budget exhausted on {} (stage {}, {} failed attempts): {}",
            self.platform, self.stage, self.attempts, self.cause
        )
    }
}

/// One injected or organic fault the executor handled, kept on the job's
/// result ([`crate::api::JobMetrics::faults`]) in commit order.
#[derive(Clone, Debug)]
pub struct FaultRecord {
    /// Stage the failure struck.
    pub stage: usize,
    /// Loop iteration path at the time (0 outside loops).
    pub iteration: u64,
    /// Platform that failed.
    pub platform: PlatformId,
    /// Execution-operator name at the failure site.
    pub op: String,
    /// Injected fault kind (`None` for organic platform errors).
    pub kind: Option<FaultKind>,
    /// How many failures the stage's budget had absorbed, this one included.
    pub attempt: u32,
    /// Whether the executor retried (true) or gave up on the platform and
    /// escalated to failover (false).
    pub recovered: bool,
}

/// A deterministic, seeded fault-injection plan shared by one job across
/// all of its (re-)planned phases — attempt counters survive failover so
/// fail-N-then-succeed semantics hold across replans. Each job runs its own
/// [`FaultPlan::fresh`] copy of a configured plan.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Per-mille probability that any given site is faulty in seeded mode.
    density_millis: u32,
    rules: Vec<FaultRule>,
    /// Failed attempts per `(site, iteration path)` key.
    attempts: Mutex<HashMap<u64, u32>>,
}

impl FaultPlan {
    /// A plan injecting nothing (rules can be added with
    /// [`FaultPlan::with_rule`]).
    pub fn none() -> Self {
        Self::default()
    }

    /// Seeded chaos mode: every site is independently faulty with
    /// probability `density` (clamped to `[0, 1]`), failing 1–3 times then
    /// succeeding; which sites, and how often, is a pure function of the
    /// seed.
    pub fn seeded(seed: u64, density: f64) -> Self {
        Self {
            seed,
            density_millis: (density.clamp(0.0, 1.0) * 1000.0).round() as u32,
            rules: Vec::new(),
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Add a targeted rule (builder style). Rules are consulted before the
    /// seeded density; the first match wins.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// The same seed, density and rules with fresh attempt counters: the
    /// copy one job runs under.
    pub fn fresh(&self) -> Self {
        Self {
            seed: self.seed,
            density_millis: self.density_millis,
            rules: self.rules.clone(),
            attempts: Mutex::default(),
        }
    }

    /// The seed (0 for rule-only plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decide whether the attempt happening right now at the described site
    /// must fail. Increments the site's attempt counter when it does. The
    /// driver pseudo-platform is never injected.
    pub fn check(
        &self,
        kind: FaultKind,
        platform: PlatformId,
        op: &str,
        stage: usize,
        iteration: u64,
    ) -> Option<InjectedFault> {
        if platform == CONTROL {
            return None;
        }
        let site = self.site_hash(kind, platform, op, stage);
        let fail_times = self
            .rules
            .iter()
            .find(|r| r.matches(kind, platform, op, stage))
            .map(|r| r.fail_times)
            .or_else(|| self.seeded_fail_times(site))?;
        let key = mix(site, iteration.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let mut attempts = self.attempts.lock().unwrap();
        let a = attempts.entry(key).or_insert(0);
        if *a >= fail_times {
            return None; // site already failed its quota: succeed now
        }
        *a += 1;
        Some(InjectedFault { kind, platform, op: op.to_string(), stage, iteration, attempt: *a })
    }

    /// Site identity: stage crashes are keyed per stage (any node of the
    /// stage trips the same counter); operator/transfer faults per operator.
    fn site_hash(&self, kind: FaultKind, platform: PlatformId, op: &str, stage: usize) -> u64 {
        let mut h = mix(self.seed, kind as u64 + 1);
        h = hash_str(h, platform.0);
        if kind != FaultKind::StageCrash {
            h = hash_str(h, op);
        }
        mix(h, stage as u64)
    }

    fn seeded_fail_times(&self, site: u64) -> Option<u32> {
        if self.density_millis == 0 {
            return None;
        }
        let roll = mix(site, 0xA076_1D64_78BD_642F);
        if (roll % 1000) as u32 >= self.density_millis {
            return None;
        }
        Some(1 + ((roll >> 20) % 3) as u32) // fail 1–3 times then succeed
    }
}

/// splitmix64 finalizer: deterministic across runs and platforms (unlike
/// `std`'s `DefaultHasher`, whose algorithm is unspecified).
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_str(mut h: u64, s: &str) -> u64 {
    for b in s.as_bytes() {
        h = mix(h, *b as u64 + 0x100);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::ids;

    #[test]
    fn rules_fail_n_times_then_succeed() {
        let plan = FaultPlan::none()
            .with_rule(FaultRule::new(FaultKind::Transient).on_op("Map").failing(2));
        for attempt in 1..=2u32 {
            let f = plan.check(FaultKind::Transient, ids::SPARK, "SparkMap", 0, 0).unwrap();
            assert_eq!(f.attempt, attempt);
        }
        assert!(plan.check(FaultKind::Transient, ids::SPARK, "SparkMap", 0, 0).is_none());
        // other iterations have their own counters
        assert!(plan.check(FaultKind::Transient, ids::SPARK, "SparkMap", 0, 1).is_some());
        // non-matching op untouched
        assert!(plan.check(FaultKind::Transient, ids::SPARK, "SparkJoin", 0, 0).is_none());
    }

    #[test]
    fn stage_crash_counter_is_shared_across_the_stage() {
        let plan = FaultPlan::none()
            .with_rule(FaultRule::new(FaultKind::StageCrash).on_stage(3).failing(1));
        assert!(plan.check(FaultKind::StageCrash, ids::FLINK, "FlinkMap", 3, 0).is_some());
        // a different node of the same stage shares the counter: no re-fail
        assert!(plan.check(FaultKind::StageCrash, ids::FLINK, "FlinkJoin", 3, 0).is_none());
        assert!(plan.check(FaultKind::StageCrash, ids::FLINK, "FlinkMap", 4, 0).is_none());
    }

    #[test]
    fn seeded_mode_is_deterministic() {
        let a = FaultPlan::seeded(42, 0.5);
        let b = FaultPlan::seeded(42, 0.5);
        for op in ["JavaMap", "SparkChain3", "FlinkCollect", "PgSeqScan"] {
            for stage in 0..8usize {
                let fa = a.check(FaultKind::Transient, ids::SPARK, op, stage, 0).is_some();
                let fb = b.check(FaultKind::Transient, ids::SPARK, op, stage, 0).is_some();
                assert_eq!(fa, fb, "seeded decision must be reproducible");
            }
        }
    }

    #[test]
    fn seeded_density_bounds_injection() {
        let never = FaultPlan::seeded(7, 0.0);
        let always = FaultPlan::seeded(7, 1.0);
        let mut hits = 0;
        for stage in 0..32usize {
            assert!(never.check(FaultKind::Transient, ids::FLINK, "FlinkMap", stage, 0).is_none());
            if always.check(FaultKind::Transient, ids::FLINK, "FlinkMap", stage, 0).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, 32, "density 1.0 makes every site faulty");
    }

    #[test]
    fn driver_is_never_injected() {
        let plan = FaultPlan::seeded(1, 1.0).with_rule(FaultRule::new(FaultKind::Transient));
        assert!(plan.check(FaultKind::Transient, CONTROL, "LoopRelay", 0, 0).is_none());
    }

    #[test]
    fn persistent_rules_never_recover() {
        let plan =
            FaultPlan::none().with_rule(FaultRule::new(FaultKind::Transfer).failing(PERSISTENT));
        for _ in 0..10 {
            assert!(plan.check(FaultKind::Transfer, ids::SPARK, "SparkCollect", 1, 0).is_some());
        }
    }
}
