//! Execution operators and the execution context.
//!
//! An execution operator implements one or more Rheem operators with
//! platform-specific code (§3). Platform crates implement
//! [`ExecutionOperator`] for each of their operators and conversion
//! operators; the core executor drives them and collects metrics.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::channel::{ChannelData, ChannelKind};
use crate::cost::Load;
use crate::error::{Result, RheemError};
use crate::fault::{FaultKind, FaultPlan};
use crate::platform::{PlatformId, PlatformProfile, Profiles};
use crate::trace::AttrValue;
use crate::udf::BroadcastCtx;
use crate::value::Value;

/// A platform-reported trace event: a named instant attached to the
/// currently executing operator's span (shuffle volumes, BSP supersteps,
/// pushed-down SQL, …). Collected only when tracing is enabled.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name, conventionally `platform.detail` (e.g. `spark.shuffle`).
    pub name: String,
    /// Typed attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

/// Platform-specific implementation of one (or a chain of) Rheem operators.
pub trait ExecutionOperator: Send + Sync {
    /// Display name, e.g. `"SparkMap"`. Also keys cost-model parameters via
    /// [`crate::cost::param_key`].
    fn name(&self) -> &str;

    /// Owning platform.
    fn platform(&self) -> PlatformId;

    /// Channel kinds accepted on input slot `slot`, in preference order.
    fn accepted_inputs(&self, slot: usize) -> Vec<ChannelKind>;

    /// Channel kind of the output.
    fn output_kind(&self) -> ChannelKind;

    /// Channel kinds accepted for broadcast inputs (dotted edges); defaults
    /// to the universal in-memory collection.
    fn broadcast_input_kinds(&self) -> Vec<ChannelKind> {
        vec![crate::channel::kinds::COLLECTION]
    }

    /// Estimated resource usage for the given input cardinalities and
    /// average quantum size in bytes (the `r^m_o` functions of §4.5).
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &crate::cost::CostModel) -> Load;

    /// Run the operator. Inputs arrive as channels of an accepted kind;
    /// broadcast variables are pre-bound in `bc`.
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        bc: &BroadcastCtx,
    ) -> Result<ChannelData>;
}

impl fmt::Debug for dyn ExecutionOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.name(), self.platform())
    }
}

/// Metrics of one execution-operator run, recorded in the job trace as an
/// [`crate::trace::OpProfile`] for the cost learner (§4.3, §4.5).
#[derive(Clone, Debug)]
pub struct OpMetrics {
    /// Operator name (`ExecutionOperator::name`).
    pub name: String,
    /// Owning platform.
    pub platform: PlatformId,
    /// Total input cardinality.
    pub in_card: u64,
    /// Output cardinality.
    pub out_card: u64,
    /// Virtual cluster time attributed to this operator, ms.
    pub virtual_ms: f64,
    /// Real local time, ms.
    pub real_ms: f64,
}

/// Mutable context handed to execution operators.
pub struct ExecCtx<'a> {
    /// Platform profiles (virtual-cluster parameters).
    pub profiles: &'a Profiles,
    /// Base RNG seed of the job; engines derive per-op seeds from it.
    pub seed: u64,
    /// Current loop iteration (0 outside loops) — lets samplers vary their
    /// draw across iterations like ML4all's shuffled-partition sampler.
    pub iteration: u64,
    /// Stage id of the node being executed (keys fault-injection sites).
    pub stage: usize,
    faults: Option<Arc<FaultPlan>>,
    ops: Vec<OpMetrics>,
    virtual_ms: f64,
    tracing: bool,
    events: Vec<TraceEvent>,
    batch: bool,
    vec_stats: VecStats,
}

/// Vectorization counters accumulated while executing one node: how much of
/// the work ran through [`crate::batch`] kernels vs. the row interpreter.
/// Surfaced on [`crate::trace::OpProfile`]s (never in trace *structure*, so
/// batched and row runs stay byte-identical there).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VecStats {
    /// Rows fed into vectorized kernels.
    pub rows: u64,
    /// Column batches processed.
    pub batches: u64,
    /// Fused steps executed vectorized.
    pub vec_steps: u32,
    /// Fused steps that fell back to the row interpreter.
    pub row_steps: u32,
    /// Column batches shipped through a columnar exchange (no row
    /// materialization at the partition boundary).
    pub exch_batches: u64,
    /// Rows exchanged in columnar form.
    pub exch_rows: u64,
    /// Rows exchanged through the row-materialized path while batch mode
    /// was on (the exchange fallback).
    pub exch_row_rows: u64,
    /// Why this node left the vectorized path, when it did (first reason
    /// wins; `None` when fully vectorized or in row mode).
    pub fallback: Option<Fallback>,
}

/// Why a batched segment or exchange fell back to the row path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fallback {
    /// A fused step had no spec descriptor (opaque closure), runtime
    /// column types didn't match the spec, or a wide operator with no
    /// columnar landing (SortBy, Join, GroupBy, Distinct) materialized the
    /// columns it was handed.
    OpaqueSegment,
    /// The exchange input arrived as rows (an upstream segment already
    /// fell back), so there was nothing columnar to ship.
    RowInput,
    /// Key or value column types were untyped or mixed across partitions.
    TypeMismatch,
}

impl Fallback {
    /// Stable short name (used in trace JSON and `explain_analyze`).
    pub fn as_str(self) -> &'static str {
        match self {
            Fallback::OpaqueSegment => "opaque-segment",
            Fallback::RowInput => "row-input",
            Fallback::TypeMismatch => "type-mismatch",
        }
    }

    /// Parse a short name back (trace JSON round-trip).
    pub fn parse(s: &str) -> Option<Fallback> {
        match s {
            "opaque-segment" => Some(Fallback::OpaqueSegment),
            "row-input" => Some(Fallback::RowInput),
            "type-mismatch" => Some(Fallback::TypeMismatch),
            _ => None,
        }
    }
}

impl VecStats {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        *self == VecStats::default()
    }
}

/// Sums the counters; the first fallback reason wins.
impl std::ops::AddAssign for VecStats {
    fn add_assign(&mut self, other: VecStats) {
        self.rows += other.rows;
        self.batches += other.batches;
        self.vec_steps += other.vec_steps;
        self.row_steps += other.row_steps;
        self.exch_batches += other.exch_batches;
        self.exch_rows += other.exch_rows;
        self.exch_row_rows += other.exch_row_rows;
        self.fallback = self.fallback.or(other.fallback);
    }
}

impl<'a> ExecCtx<'a> {
    /// New context.
    pub fn new(profiles: &'a Profiles, seed: u64) -> Self {
        Self {
            profiles,
            seed,
            iteration: 0,
            stage: 0,
            faults: None,
            ops: Vec::new(),
            virtual_ms: 0.0,
            tracing: false,
            events: Vec::new(),
            batch: true,
            vec_stats: VecStats::default(),
        }
    }

    /// Enable or disable columnar batch execution for this context (the
    /// executor forwards [`crate::executor::ExecConfig::batch`]). Defaults
    /// to on.
    pub fn set_batch(&mut self, on: bool) {
        self.batch = on;
    }

    /// Whether operators should try the vectorized path for fused segments.
    pub fn batch(&self) -> bool {
        self.batch
    }

    /// Report a fused segment executed through vectorized kernels.
    pub fn report_vectorized(&mut self, rows: u64, batches: u64, steps: u32) {
        self.vec_stats.rows += rows;
        self.vec_stats.batches += batches;
        self.vec_stats.vec_steps += steps;
    }

    /// Report a fused segment that fell back to the row interpreter (only
    /// meaningful in batch mode — row mode reports nothing).
    pub fn report_row_fallback(&mut self, steps: u32) {
        self.vec_stats.row_steps += steps;
        self.vec_stats.fallback.get_or_insert(Fallback::OpaqueSegment);
    }

    /// Report an exchange that shipped columns across the partition
    /// boundary: `batches` non-empty bucket batches carrying `rows` rows.
    pub fn report_exchange(&mut self, batches: u64, rows: u64) {
        self.vec_stats.exch_batches += batches;
        self.vec_stats.exch_rows += rows;
    }

    /// Report an exchange that fell back to row materialization while batch
    /// mode was on, and why (only meaningful in batch mode).
    pub fn report_exchange_fallback(&mut self, rows: u64, why: Fallback) {
        self.vec_stats.exch_row_rows += rows;
        self.vec_stats.fallback.get_or_insert(why);
    }

    /// Drain the vectorization counters (executor moves them onto the
    /// node's profile).
    pub fn take_vec_stats(&mut self) -> VecStats {
        std::mem::take(&mut self.vec_stats)
    }

    /// Enable or disable trace-event collection (the executor turns it on
    /// when a job trace is being recorded).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Whether trace events are being collected.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Report a platform-level trace event. The attribute closure only runs
    /// when tracing is enabled, so disabled runs pay a single branch.
    pub fn trace_event(&mut self, name: &str, attrs: impl FnOnce() -> Vec<(String, AttrValue)>) {
        if self.tracing {
            self.events.push(TraceEvent { name: name.to_string(), attrs: attrs() });
        }
    }

    /// Drain collected trace events (the executor attaches them to the
    /// operator span).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Arm the context with the job's fault plan (chaos testing).
    pub fn set_faults(&mut self, faults: Option<Arc<FaultPlan>>) {
        self.faults = faults;
    }

    /// Called by platform operators at the top of `execute`: inject a
    /// transient failure if the active fault plan targets this site.
    pub fn fault_gate(&mut self, platform: PlatformId, op: &str) -> Result<()> {
        self.gate(FaultKind::Transient, platform, op)
    }

    /// Called by channel-conversion operators (collect/parallelize/export/
    /// load): inject a transfer failure if the fault plan targets this site.
    pub fn transfer_gate(&mut self, platform: PlatformId, op: &str) -> Result<()> {
        self.gate(FaultKind::Transfer, platform, op)
    }

    fn gate(&mut self, kind: FaultKind, platform: PlatformId, op: &str) -> Result<()> {
        if let Some(plan) = &self.faults {
            if let Some(f) = plan.check(kind, platform, op, self.stage, self.iteration) {
                return Err(RheemError::Fault(f));
            }
        }
        Ok(())
    }

    /// Profile of a platform.
    pub fn profile(&self, id: PlatformId) -> &PlatformProfile {
        self.profiles.get(id)
    }

    /// Add virtual cluster time not attributable to one operator
    /// (stage submission, barriers).
    pub fn add_virtual_ms(&mut self, ms: f64) {
        self.virtual_ms += ms;
    }

    /// Record one operator execution.
    pub fn record(&mut self, m: OpMetrics) {
        self.virtual_ms += m.virtual_ms;
        self.ops.push(m);
    }

    /// Virtual time accumulated so far in this context.
    pub fn virtual_ms(&self) -> f64 {
        self.virtual_ms
    }

    /// Recorded operator metrics.
    pub fn op_metrics(&self) -> &[OpMetrics] {
        &self.ops
    }

    /// Drain recorded metrics (the executor records them in the job trace).
    pub fn take_metrics(&mut self) -> (Vec<OpMetrics>, f64) {
        let v = self.virtual_ms;
        self.virtual_ms = 0.0;
        (std::mem::take(&mut self.ops), v)
    }

    /// Fail if a dataset of `bytes` exceeds the platform's memory cap
    /// (emulates out-of-memory conditions, e.g. SystemML in Fig. 2b).
    pub fn check_mem(&self, platform: PlatformId, bytes: f64) -> Result<()> {
        let cap = self.profile(platform).mem_mb * 1024.0 * 1024.0;
        if bytes > cap {
            return Err(RheemError::Execution(format!(
                "{platform}: out of memory ({:.0} MB needed, {:.0} MB cap)",
                bytes / 1024.0 / 1024.0,
                cap / 1024.0 / 1024.0
            )));
        }
        Ok(())
    }

    /// Helper: run `f`, measure real time, and record metrics where the
    /// virtual time equals real time scaled by the platform's `cpu_scale`
    /// (appropriate for single-threaded engines).
    pub fn timed_seq<T>(
        &mut self,
        op: &dyn ExecutionOperator,
        in_card: u64,
        f: impl FnOnce() -> Result<(T, u64)>,
    ) -> Result<T> {
        let start = Instant::now();
        let (out, out_card) = f()?;
        let real_ms = start.elapsed().as_secs_f64() * 1000.0;
        let scale = self.profile(op.platform()).cpu_scale;
        self.record(OpMetrics {
            name: op.name().to_string(),
            platform: op.platform(),
            in_card,
            out_card,
            virtual_ms: real_ms * scale,
            real_ms,
        });
        Ok(out)
    }
}

/// Total input cardinality across channels (0 when unknown).
pub fn total_cardinality(inputs: &[ChannelData]) -> u64 {
    inputs.iter().map(|c| c.cardinality().unwrap_or(0) as u64).sum()
}

/// Estimate the serialized byte volume of a dataset (for movement costs).
pub fn dataset_bytes(data: &[Value]) -> f64 {
    crate::value::avg_quantum_bytes(data) * data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::kinds;
    use std::sync::Arc as StdArc;

    struct Dummy;
    impl ExecutionOperator for Dummy {
        fn name(&self) -> &str {
            "Dummy"
        }
        fn platform(&self) -> PlatformId {
            PlatformId("test")
        }
        fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
            vec![kinds::COLLECTION]
        }
        fn output_kind(&self) -> ChannelKind {
            kinds::COLLECTION
        }
        fn load(&self, in_cards: &[f64], _avg_bytes: f64, _model: &crate::cost::CostModel) -> Load {
            Load::cpu(in_cards.iter().sum())
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

    #[test]
    fn ctx_accumulates_metrics() {
        let profiles = Profiles::bare();
        let mut ctx = ExecCtx::new(&profiles, 42);
        ctx.add_virtual_ms(5.0);
        ctx.record(OpMetrics {
            name: "x".into(),
            platform: PlatformId("test"),
            in_card: 10,
            out_card: 5,
            virtual_ms: 7.0,
            real_ms: 1.0,
        });
        assert!((ctx.virtual_ms() - 12.0).abs() < 1e-12);
        let (ops, v) = ctx.take_metrics();
        assert_eq!(ops.len(), 1);
        assert!((v - 12.0).abs() < 1e-12);
        assert_eq!(ctx.virtual_ms(), 0.0);
    }

    #[test]
    fn timed_seq_records_and_returns() {
        let profiles = Profiles::bare();
        let mut ctx = ExecCtx::new(&profiles, 0);
        let op = Dummy;
        let out = ctx.timed_seq(&op, 3, || Ok((vec![1, 2, 3], 3))).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(ctx.op_metrics().len(), 1);
        assert_eq!(ctx.op_metrics()[0].in_card, 3);
    }

    #[test]
    fn mem_check_enforces_cap() {
        let mut profiles = Profiles::bare();
        profiles.get_mut(PlatformId("tiny")).mem_mb = 1.0;
        let ctx = ExecCtx::new(&profiles, 0);
        assert!(ctx.check_mem(PlatformId("tiny"), 512.0 * 1024.0).is_ok());
        assert!(ctx.check_mem(PlatformId("tiny"), 2.0 * 1024.0 * 1024.0).is_err());
    }

    #[test]
    fn total_cardinality_sums_known() {
        let a = ChannelData::Collection(StdArc::new(vec![Value::from(1)]));
        let b = ChannelData::None;
        assert_eq!(total_cardinality(&[a, b]), 1);
    }
}
