//! End-to-end tracing: a hierarchical span tree over the job lifecycle.
//!
//! The executor and the progressive optimizer record *virtual-time* spans —
//! submit → enumeration → costing → stage dispatch → per-operator execution
//! → channel conversion → retry/failover — into a [`Trace`], which the
//! driver finishes into a [`JobTrace`] attached to every job result. Each
//! fact is recorded once, on a span: a stage run as its closed `Stage` span,
//! an operator run as its `Operator`/`Conversion`/`Backoff`/`Sniffer` span.
//! [`JobTrace::runs`] ([`RunProfile`]) and [`JobTrace::profiles`]
//! ([`OpProfile`]: tuples in/out, virtual ms, retries, fused-chain
//! membership — what `EXPLAIN ANALYZE` and the cost learner read) are views
//! of those spans, derived on finish and on parse.
//!
//! Determinism: span *structure* (parentage, order, kinds, names, platforms,
//! cardinalities, fault events) is a pure function of the plan, the seed and
//! the fault plan, so [`JobTrace::render_structure`] is byte-identical
//! across runs. Span *durations* are virtual cluster milliseconds; platforms
//! that derive virtual time from measured wall time (`cpu_scale` scaling,
//! per-partition maxima) make durations run-dependent, which is why the
//! structural rendering excludes every float-valued field.
//!
//! Exports: a plain-text tree renderer, a Chrome trace-event JSON exporter
//! (load it in `chrome://tracing` or Perfetto), and a self-describing JSON
//! schema with a matching parser so traces round-trip losslessly without
//! third-party serialization crates.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::error::{Result, RheemError};
use crate::platform::PlatformId;

/// What lifecycle step a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole job (root span).
    Job,
    /// Plan submission (instant).
    Submit,
    /// One progressive execution phase (initial run, or a re-plan/failover
    /// resumption).
    Phase,
    /// One optimizer pass over the phase's plan.
    Optimize,
    /// Plan-space enumeration inside an optimizer pass (instant).
    Enumeration,
    /// Cost estimation / plan choice inside an optimizer pass (instant).
    Costing,
    /// Checkpoint rewrite before a progressive re-optimization (instant).
    PlanRewrite,
    /// One stage run (dispatch + execution on one platform).
    Stage,
    /// One loop operator (covers all its iterations).
    Loop,
    /// One loop iteration.
    Iteration,
    /// One execution-operator run (or fused chain run).
    Operator,
    /// One channel-conversion operator run (collect/parallelize/export…).
    Conversion,
    /// Virtual backoff time charged for retries of a stage run.
    Backoff,
    /// Exploration sniffer multiplex pass.
    Sniffer,
    /// A retried transient failure (instant).
    Retry,
    /// A retry-budget exhaustion escalated to cross-platform failover
    /// (instant).
    Failover,
    /// A platform-reported event attached to an operator span (instant).
    Event,
}

impl SpanKind {
    /// Stable lowercase identifier (used by the JSON schema).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Submit => "submit",
            SpanKind::Phase => "phase",
            SpanKind::Optimize => "optimize",
            SpanKind::Enumeration => "enumeration",
            SpanKind::Costing => "costing",
            SpanKind::PlanRewrite => "plan-rewrite",
            SpanKind::Stage => "stage",
            SpanKind::Loop => "loop",
            SpanKind::Iteration => "iteration",
            SpanKind::Operator => "operator",
            SpanKind::Conversion => "conversion",
            SpanKind::Backoff => "backoff",
            SpanKind::Sniffer => "sniffer",
            SpanKind::Retry => "retry",
            SpanKind::Failover => "failover",
            SpanKind::Event => "event",
        }
    }

    /// Parse the identifier produced by [`SpanKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "job" => SpanKind::Job,
            "submit" => SpanKind::Submit,
            "phase" => SpanKind::Phase,
            "optimize" => SpanKind::Optimize,
            "enumeration" => SpanKind::Enumeration,
            "costing" => SpanKind::Costing,
            "plan-rewrite" => SpanKind::PlanRewrite,
            "stage" => SpanKind::Stage,
            "loop" => SpanKind::Loop,
            "iteration" => SpanKind::Iteration,
            "operator" => SpanKind::Operator,
            "conversion" => SpanKind::Conversion,
            "backoff" => SpanKind::Backoff,
            "sniffer" => SpanKind::Sniffer,
            "retry" => SpanKind::Retry,
            "failover" => SpanKind::Failover,
            "event" => SpanKind::Event,
            _ => return None,
        })
    }
}

/// A typed span/event attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Integer attribute (cardinalities, counts, ids) — deterministic.
    Int(i64),
    /// Float attribute (virtual times, estimates) — excluded from the
    /// deterministic structural rendering.
    Float(f64),
    /// String attribute.
    Str(String),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v:.3}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// End time of a span that was never closed (the executor aborted mid-span,
/// e.g. on failover).
pub const OPEN_END: f64 = -1.0;

/// One node of the span tree. Times are virtual cluster milliseconds on the
/// shared job timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span id (index into [`JobTrace::spans`]).
    pub id: u32,
    /// Parent span id (`None` for the job root).
    pub parent: Option<u32>,
    /// Lifecycle step this span covers.
    pub kind: SpanKind,
    /// Display name (operator name, `stage N`, `phase N`, …).
    pub name: String,
    /// Platform the span ran on, when platform-bound.
    pub platform: Option<String>,
    /// Virtual start time, ms.
    pub start_ms: f64,
    /// Virtual end time, ms ([`OPEN_END`] when never closed; equal to
    /// `start_ms` for instants).
    pub end_ms: f64,
    /// Typed attributes in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
    /// A later failover re-executed this span's work (its metrics would
    /// double-count).
    pub superseded: bool,
    /// Operator-run facts kept out of the structural rendering (set on the
    /// first main operator span of each executed node).
    pub facts: Option<OpFacts>,
}

/// The facts of an operator run that [`JobTrace::render_structure`] never
/// prints: the chain's logical ids restate the plan, and the vectorization
/// counters differ between batch and row mode.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpFacts {
    /// Logical operators the execution operator covers, in chain order (raw
    /// [`crate::plan::OperatorId`] values; empty for a channel conversion).
    pub logical: Vec<u32>,
    /// Vectorization counters of the node's run.
    pub vec_stats: crate::exec::VecStats,
}

impl Span {
    /// Virtual duration, ms (0 for instants and unclosed spans).
    pub fn duration_ms(&self) -> f64 {
        if self.end_ms >= self.start_ms {
            self.end_ms - self.start_ms
        } else {
            0.0
        }
    }

    /// Attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Measured profile of one execution-operator run, collected uniformly from
/// every platform simulacrum via the [`crate::exec::ExecCtx`] metrics hooks:
/// a view of the run's span and of its parent `Stage` span.
#[derive(Clone, Debug, PartialEq)]
pub struct OpProfile {
    /// Execution operator name (`SparkMap`, `JavaChain3`, `RetryBackoff`…).
    pub name: String,
    /// Platform id string.
    pub platform: String,
    /// Execution-plan node id.
    pub node: usize,
    /// Stage id.
    pub stage: usize,
    /// Loop iteration path the run belonged to (0 outside loops).
    pub iteration: u64,
    /// Progressive execution phase the run belonged to.
    pub phase: u32,
    /// Stage-run ordinal within the job (groups operators of one run).
    pub run: u32,
    /// Logical operators this execution operator covers, in chain order
    /// (raw [`crate::plan::OperatorId`] values; >1 ⇒ fused chain; empty ⇒
    /// channel conversion).
    pub logical: Vec<u32>,
    /// Measured input tuples.
    pub tuples_in: u64,
    /// Measured output tuples.
    pub tuples_out: u64,
    /// Virtual cluster time attributed to this run, ms.
    pub virtual_ms: f64,
    /// Transient-failure retries absorbed executing this node in this run.
    pub retries: u32,
    /// Vectorization counters ([`crate::batch`]): rows/batches through
    /// column kernels and vectorized-vs-fallback step counts. All zero in
    /// row mode — and excluded from [`JobTrace::render_structure`], so
    /// batched and row traces stay structurally identical.
    pub vec_stats: crate::exec::VecStats,
    /// A later failover re-executed this run's work.
    pub superseded: bool,
}

impl OpProfile {
    /// Whether this is a bookkeeping pseudo-operator (backoff padding,
    /// exploration sniffer) rather than a data operator.
    pub fn is_pseudo(&self) -> bool {
        self.name == "RetryBackoff" || self.name == "Sniffer"
    }
}

/// One stage run, read off its closed [`SpanKind::Stage`] span (the
/// execution log's one record of it); the run's per-operator metrics are
/// the [`JobTrace::profiles`] with the same `(phase, run)`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunProfile {
    /// Progressive execution phase.
    pub phase: u32,
    /// Stage-run ordinal within the job.
    pub run: u32,
    /// Stage id.
    pub stage: usize,
    /// Platform the run was dispatched to.
    pub platform: String,
    /// Loop iteration path (0 outside loops).
    pub iteration: u64,
    /// Virtual time of the whole run including submission overheads, ms.
    pub virtual_ms: f64,
    /// Retries absorbed by the run: its `Retry` children with
    /// `recovered=1`.
    pub retries: u32,
    /// A later failover re-executed this run's work.
    pub superseded: bool,
}

/// One job's finished trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobTrace {
    /// All spans, id-ordered (ids are indices).
    pub spans: Vec<Span>,
    /// Per-operator profiles in execution order, derived from the operator
    /// spans by [`Trace::finish`] and [`JobTrace::from_json`].
    pub profiles: Vec<OpProfile>,
    /// Per-stage-run summaries in run order, derived from the closed stage
    /// spans the same way (so the JSON schema repeats neither view).
    pub runs: Vec<RunProfile>,
}

impl JobTrace {
    /// The trace of `spans`, with both views derived from them.
    fn of_spans(spans: Vec<Span>) -> JobTrace {
        JobTrace { profiles: profiles_of(&spans), runs: runs_of(&spans), spans }
    }

    /// Child span ids of `id`, in creation (≈ execution) order.
    pub fn children(&self, id: u32) -> Vec<u32> {
        self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.id).collect()
    }

    /// Root span ids (normally a single `job` span).
    pub fn roots(&self) -> Vec<u32> {
        self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.id).collect()
    }

    /// Profiles that still count (superseded runs excluded).
    pub fn profiles_effective(&self) -> impl Iterator<Item = &OpProfile> {
        self.profiles.iter().filter(|p| !p.superseded)
    }

    /// Total virtual time across effective stage runs (diagnostic; the
    /// executor's dependency-aware composition is authoritative).
    pub fn total_run_virtual_ms(&self) -> f64 {
        self.runs.iter().filter(|r| !r.superseded).map(|r| r.virtual_ms).sum()
    }

    /// Human-readable indented span tree with virtual times.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.render_into(&mut out, root, 0, true);
        }
        out
    }

    /// Deterministic structural rendering: parentage, order, kinds, names,
    /// platforms and integer/string attributes — every float (durations,
    /// estimates) excluded. Byte-identical across executions of the same
    /// (plan, seed, fault plan).
    pub fn render_structure(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.render_into(&mut out, root, 0, false);
        }
        out
    }

    fn render_into(&self, out: &mut String, id: u32, depth: usize, with_times: bool) {
        let s = &self.spans[id as usize];
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(out, "[{}] {}", s.kind.as_str(), s.name);
        if let Some(p) = &s.platform {
            let _ = write!(out, " @{p}");
        }
        if with_times {
            if s.end_ms < s.start_ms {
                let _ = write!(out, " {:.3}ms.. (open)", s.start_ms);
            } else if s.end_ms > s.start_ms {
                let _ =
                    write!(out, " {:.3}..{:.3}ms (+{:.3})", s.start_ms, s.end_ms, s.duration_ms());
            } else {
                let _ = write!(out, " @{:.3}ms", s.start_ms);
            }
        }
        for (k, v) in &s.attrs {
            match v {
                AttrValue::Float(f) => {
                    if with_times {
                        let _ = write!(out, " {k}={f:.3}");
                    }
                }
                other => {
                    let _ = write!(out, " {k}={other}");
                }
            }
        }
        if s.superseded {
            out.push_str(" [superseded]");
        }
        out.push('\n');
        for c in self.children(id) {
            self.render_into(out, c, depth + 1, with_times);
        }
    }

    /// Export as Chrome trace-event JSON (the `chrome://tracing` / Perfetto
    /// format). Virtual milliseconds map to microsecond timestamps; each
    /// platform gets its own thread lane.
    pub fn to_chrome_json(&self) -> String {
        let mut lanes: BTreeMap<&str, u32> = BTreeMap::new();
        lanes.insert("driver", 0);
        for s in &self.spans {
            if let Some(p) = &s.platform {
                let next = lanes.len() as u32;
                lanes.entry(p.as_str()).or_insert(next);
            }
        }
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (name, tid) in &lanes {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":"
            );
            json_string(&mut out, name);
            out.push_str("}}");
        }
        for s in &self.spans {
            out.push(',');
            let tid = s.platform.as_deref().and_then(|p| lanes.get(p)).copied().unwrap_or(0);
            let ts = (s.start_ms * 1000.0).round() as i64;
            out.push_str("{\"name\":");
            json_string(&mut out, &s.name);
            let _ =
                write!(out, ",\"cat\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}", s.kind.as_str());
            if s.end_ms > s.start_ms {
                let dur = ((s.end_ms - s.start_ms) * 1000.0).round() as i64;
                let _ = write!(out, ",\"ph\":\"X\",\"dur\":{dur}");
            } else {
                out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
            }
            out.push_str(",\"args\":{");
            let _ = write!(out, "\"span\":{}", s.id);
            for (k, v) in &s.attrs {
                out.push(',');
                json_string(&mut out, k);
                out.push(':');
                write_attr_json(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Serialize to the trace's own JSON schema (losslessly parseable back
    /// via [`JobTrace::from_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},\"parent\":", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"kind\":\"{}\",\"name\":", s.kind.as_str());
            json_string(&mut out, &s.name);
            out.push_str(",\"platform\":");
            match &s.platform {
                Some(p) => json_string(&mut out, p),
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"start_ms\":{},\"end_ms\":{}",
                json_f64(s.start_ms),
                json_f64(s.end_ms)
            );
            out.push_str(",\"attrs\":[");
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                json_string(&mut out, k);
                out.push(',');
                match v {
                    AttrValue::Int(x) => {
                        let _ = write!(out, "{{\"i\":{x}}}");
                    }
                    AttrValue::Float(x) => {
                        let _ = write!(out, "{{\"f\":{}}}", json_f64(*x));
                    }
                    AttrValue::Str(x) => {
                        out.push_str("{\"s\":");
                        json_string(&mut out, x);
                        out.push('}');
                    }
                }
                out.push(']');
            }
            out.push(']');
            if let Some(f) = &s.facts {
                out.push_str(",\"facts\":{\"logical\":[");
                for (j, l) in f.logical.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{l}");
                }
                let v = &f.vec_stats;
                let _ = write!(
                    out,
                    "],\"vec_rows\":{},\"vec_batches\":{},\"vec_steps\":{},\"row_steps\":{},\
                     \"exch_batches\":{},\"exch_rows\":{},\"exch_row_rows\":{},\"fallback\":",
                    v.rows,
                    v.batches,
                    v.vec_steps,
                    v.row_steps,
                    v.exch_batches,
                    v.exch_rows,
                    v.exch_row_rows,
                );
                match v.fallback {
                    Some(why) => json_string(&mut out, why.as_str()),
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            let _ = write!(out, ",\"superseded\":{}}}", s.superseded);
        }
        out.push_str("]}");
        out
    }

    /// Parse a trace serialized by [`JobTrace::to_json`].
    pub fn from_json(text: &str) -> Result<JobTrace> {
        let root = json::parse(text)?;
        let obj = root.as_obj("trace")?;
        let mut spans = Vec::new();
        for s in json::get(obj, "spans")?.as_arr("spans")? {
            let s = s.as_obj("span")?;
            let kind_s = json::get(s, "kind")?.as_str("kind")?;
            let kind = SpanKind::parse(kind_s)
                .ok_or_else(|| RheemError::Config(format!("unknown span kind '{kind_s}'")))?;
            let mut attrs = Vec::new();
            for pair in json::get(s, "attrs")?.as_arr("attrs")? {
                let pair = pair.as_arr("attr pair")?;
                if pair.len() != 2 {
                    return Err(RheemError::Config("attr pair must have 2 elements".into()));
                }
                let key = pair[0].as_str("attr key")?.to_string();
                let vo = pair[1].as_obj("attr value")?;
                let val = if let Ok(v) = json::get(vo, "i") {
                    AttrValue::Int(v.as_f64("attr int")? as i64)
                } else if let Ok(v) = json::get(vo, "f") {
                    AttrValue::Float(v.as_f64("attr float")?)
                } else {
                    AttrValue::Str(json::get(vo, "s")?.as_str("attr str")?.to_string())
                };
                attrs.push((key, val));
            }
            let facts = json::get(s, "facts").ok().map(|f| parse_facts(f.as_obj("facts")?));
            spans.push(Span {
                id: json::get(s, "id")?.as_f64("id")? as u32,
                parent: match json::get(s, "parent")? {
                    json::Json::Null => None,
                    v => Some(v.as_f64("parent")? as u32),
                },
                kind,
                name: json::get(s, "name")?.as_str("name")?.to_string(),
                platform: match json::get(s, "platform")? {
                    json::Json::Null => None,
                    v => Some(v.as_str("platform")?.to_string()),
                },
                start_ms: json::get(s, "start_ms")?.as_f64("start_ms")?,
                end_ms: json::get(s, "end_ms")?.as_f64("end_ms")?,
                attrs,
                superseded: json::get(s, "superseded")?.as_bool("superseded")?,
                facts: facts.transpose()?,
            });
        }
        Ok(JobTrace::of_spans(spans))
    }
}

/// Parse the `facts` object [`JobTrace::to_json`] writes on a span.
fn parse_facts(f: &[(String, json::Json)]) -> Result<OpFacts> {
    let num = |key: &str| json::get(f, key)?.as_f64(key);
    let mut logical = Vec::new();
    for l in json::get(f, "logical")?.as_arr("logical")? {
        logical.push(l.as_f64("logical id")? as u32);
    }
    let fallback = match json::get(f, "fallback")? {
        json::Json::Null => None,
        v => crate::exec::Fallback::parse(v.as_str("fallback")?),
    };
    let vec_stats = crate::exec::VecStats {
        rows: num("vec_rows")? as u64,
        batches: num("vec_batches")? as u64,
        vec_steps: num("vec_steps")? as u32,
        row_steps: num("row_steps")? as u32,
        exch_batches: num("exch_batches")? as u64,
        exch_rows: num("exch_rows")? as u64,
        exch_row_rows: num("exch_row_rows")? as u64,
        fallback,
    };
    Ok(OpFacts { logical, vec_stats })
}

/// Shortest representation of `f` that parses back to the identical f64
/// (Rust's float `Display` is round-trip by construction); JSON requires a
/// finite decimal, so non-finite values are clamped to sentinel strings.
/// Shared with [`crate::obs`] and [`crate::service`], whose `/flight`
/// dumps must parse via [`json::parse`].
pub(crate) fn json_f64(f: f64) -> String {
    if f.is_finite() {
        format!("{f}")
    } else {
        "-1".to_string()
    }
}

pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_attr_json(out: &mut String, v: &AttrValue) {
    match v {
        AttrValue::Int(x) => {
            let _ = write!(out, "{x}");
        }
        AttrValue::Float(x) => {
            let _ = write!(out, "{}", json_f64(*x));
        }
        AttrValue::Str(x) => json_string(out, x),
    }
}

/// Minimal JSON parser, sufficient for the trace schema and the Chrome
/// export (the workspace is dependency-free by design, so no serde).
pub mod json {
    use crate::error::{Result, RheemError};

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (parsed as f64; exact for integers up to 2^53).
        Num(f64),
        /// String
        Str(String),
        /// Array
        Arr(Vec<Json>),
        /// Object (insertion-ordered key/value pairs).
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// This value as an object's members.
        pub fn as_obj(&self, what: &str) -> Result<&[(String, Json)]> {
            match self {
                Json::Obj(m) => Ok(m),
                _ => Err(RheemError::Config(format!("{what}: expected object"))),
            }
        }
        /// This value as an array's elements.
        pub fn as_arr(&self, what: &str) -> Result<&[Json]> {
            match self {
                Json::Arr(v) => Ok(v),
                _ => Err(RheemError::Config(format!("{what}: expected array"))),
            }
        }
        /// This value as a string.
        pub fn as_str(&self, what: &str) -> Result<&str> {
            match self {
                Json::Str(s) => Ok(s),
                _ => Err(RheemError::Config(format!("{what}: expected string"))),
            }
        }
        /// This value as a number.
        pub fn as_f64(&self, what: &str) -> Result<f64> {
            match self {
                Json::Num(n) => Ok(*n),
                _ => Err(RheemError::Config(format!("{what}: expected number"))),
            }
        }
        /// This value as a bool.
        pub fn as_bool(&self, what: &str) -> Result<bool> {
            match self {
                Json::Bool(b) => Ok(*b),
                _ => Err(RheemError::Config(format!("{what}: expected bool"))),
            }
        }
    }

    /// Member of an object by key.
    pub fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| RheemError::Config(format!("missing key '{key}'")))
    }

    /// Parse a complete JSON document.
    pub fn parse(text: &str) -> Result<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(RheemError::Config(format!("trailing JSON input at byte {pos}")));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<()> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(RheemError::Config(format!("expected '{}' at byte {}", c as char, *pos)))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_obj(b, pos),
            Some(b'[') => parse_arr(b, pos),
            Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Json::Null),
            Some(_) => parse_num(b, pos),
            None => Err(RheemError::Config("unexpected end of JSON input".into())),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, val: Json) -> Result<Json> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(val)
        } else {
            Err(RheemError::Config(format!("bad literal at byte {}", *pos)))
        }
    }

    fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| RheemError::Config(format!("bad number at byte {start}")))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err(RheemError::Config("unterminated JSON string".into())),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| {
                                    RheemError::Config("bad \\u escape in JSON string".into())
                                })?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(RheemError::Config("bad escape in JSON string".into())),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = &b[*pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json> {
        expect(b, pos, b'[')?;
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(RheemError::Config(format!("bad array at byte {}", *pos))),
            }
        }
    }

    fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json> {
        expect(b, pos, b'{')?;
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let val = parse_value(b, pos)?;
            out.push((key, val));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(RheemError::Config(format!("bad object at byte {}", *pos))),
            }
        }
    }
}

#[derive(Default)]
struct TraceInner {
    spans: Vec<Span>,
    phase: u32,
    next_run: u32,
}

/// Thread-safe trace collector shared between the progressive driver and
/// the executors it builds. [`Trace::finish`] it into a [`JobTrace`] when
/// the job ends.
#[derive(Default)]
pub struct Trace {
    inner: Mutex<TraceInner>,
}

impl Trace {
    /// Fresh, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span; returns its id.
    pub fn begin(
        &self,
        parent: Option<u32>,
        kind: SpanKind,
        name: &str,
        platform: Option<PlatformId>,
        start_ms: f64,
    ) -> u32 {
        let mut inner = self.inner.lock().unwrap();
        let id = inner.spans.len() as u32;
        inner.spans.push(Span {
            id,
            parent,
            kind,
            name: name.to_string(),
            platform: platform.map(|p| p.0.to_string()),
            start_ms,
            end_ms: OPEN_END,
            attrs: Vec::new(),
            superseded: false,
            facts: None,
        });
        id
    }

    /// Close a span.
    pub fn end(&self, id: u32, end_ms: f64) {
        let mut inner = self.inner.lock().unwrap();
        inner.spans[id as usize].end_ms = end_ms;
    }

    /// Record a zero-width (instant) span; returns its id.
    pub fn instant(
        &self,
        parent: Option<u32>,
        kind: SpanKind,
        name: &str,
        platform: Option<PlatformId>,
        at_ms: f64,
    ) -> u32 {
        let id = self.begin(parent, kind, name, platform, at_ms);
        self.end(id, at_ms);
        id
    }

    /// Attach an attribute to a span.
    pub fn attr(&self, id: u32, key: &str, value: AttrValue) {
        let mut inner = self.inner.lock().unwrap();
        inner.spans[id as usize].attrs.push((key.to_string(), value));
    }

    /// Attach the operator-run facts kept out of the structure to a span.
    pub fn facts(&self, id: u32, facts: OpFacts) {
        self.inner.lock().expect("trace collector poisoned").spans[id as usize].facts = Some(facts);
    }

    /// Enter the next progressive execution phase; later stage spans carry
    /// it, and [`Trace::supersede_current_phase`] marks only it.
    pub fn begin_phase(&self) -> u32 {
        let mut inner = self.inner.lock().unwrap();
        inner.phase += 1;
        inner.phase
    }

    /// Current execution phase.
    pub fn phase(&self) -> u32 {
        self.inner.lock().unwrap().phase
    }

    /// Allocate the next stage-run ordinal.
    pub fn next_run_id(&self) -> u32 {
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_run;
        inner.next_run += 1;
        id
    }

    /// Mark the current phase's stage spans of the given stages, and the
    /// operator spans under every such stage span, superseded: a failover is
    /// about to re-execute their work (an in-flight loop restarts from
    /// iteration 0), so keeping them live would double-count iterations in
    /// the learner.
    pub fn supersede_current_phase(&self, stages: &HashSet<usize>) {
        let mut inner = self.inner.lock().unwrap();
        let phase = inner.phase as i64;
        // Parents precede their children, so one pass sees every matching
        // stage span before the operator spans under it.
        let mut matched = HashSet::new();
        for s in inner.spans.iter_mut() {
            if s.kind == SpanKind::Stage
                && int_attr(s, "phase") == phase
                && stages.contains(&(int_attr(s, "stage") as usize))
            {
                matched.insert(s.id);
                s.superseded = true;
            } else if is_operator_run(s) && s.parent.is_some_and(|p| matched.contains(&p)) {
                s.superseded = true;
            }
        }
    }

    /// The job's trace: every recorded span, moved, with the stage-run and
    /// operator-run views derived from them. Only a job that ran to its end
    /// finishes its trace, and the executor closes the open stage run
    /// before it returns, so every stage span carries its `virtual_ms`.
    pub fn finish(self) -> JobTrace {
        let spans = self.inner.into_inner().expect("trace collector poisoned").spans;
        debug_assert!(
            spans.iter().all(|s| s.kind != SpanKind::Stage || s.attr("virtual_ms").is_some()),
            "a finished trace holds an open stage span"
        );
        JobTrace::of_spans(spans)
    }
}

/// Whether `s` records one operator run (a data operator, a conversion, or
/// bookkeeping padding).
fn is_operator_run(s: &Span) -> bool {
    matches!(
        s.kind,
        SpanKind::Operator | SpanKind::Conversion | SpanKind::Backoff | SpanKind::Sniffer
    )
}

/// Integer attribute `key` of a span (0 when absent).
fn int_attr(s: &Span, key: &str) -> i64 {
    match s.attr(key) {
        Some(AttrValue::Int(v)) => *v,
        _ => 0,
    }
}

/// The stage runs a span tree records: one per `Stage` span, in run order,
/// each with its recovered `Retry` children as retries. A stage span with no
/// `virtual_ms` (only a parsed trace can hold one) records no run.
fn runs_of(spans: &[Span]) -> Vec<RunProfile> {
    let mut runs: Vec<RunProfile> = Vec::new();
    let mut run_of: Vec<Option<usize>> = vec![None; spans.len()];
    for s in spans {
        match s.kind {
            SpanKind::Stage => {
                let Some(&AttrValue::Float(virtual_ms)) = s.attr("virtual_ms") else {
                    continue;
                };
                if let Some(slot) = run_of.get_mut(s.id as usize) {
                    *slot = Some(runs.len());
                }
                runs.push(RunProfile {
                    phase: int_attr(s, "phase") as u32,
                    run: int_attr(s, "run") as u32,
                    stage: int_attr(s, "stage") as usize,
                    platform: s.platform.clone().unwrap_or_default(),
                    iteration: int_attr(s, "iteration") as u64,
                    virtual_ms,
                    retries: 0,
                    superseded: s.superseded,
                });
            }
            SpanKind::Retry if int_attr(s, "recovered") == 1 => {
                // Parsed traces may carry any ids: look up, never index.
                if let Some(i) = s.parent.and_then(|p| run_of.get(p as usize).copied().flatten()) {
                    runs[i].retries += 1;
                }
            }
            _ => {}
        }
    }
    runs
}

/// The operator runs a span tree records: one per operator-run span under a
/// `Stage` span, in execution order, each placed by its stage span's
/// `stage`, `iteration`, `phase` and `run`.
fn profiles_of(spans: &[Span]) -> Vec<OpProfile> {
    let operator_runs = spans.iter().filter(|s| is_operator_run(s));
    let profile = |s: &Span| {
        // Parsed traces may carry any ids: look up, never index.
        let run =
            s.parent.and_then(|p| spans.get(p as usize)).filter(|r| r.kind == SpanKind::Stage)?;
        let facts = s.facts.clone().unwrap_or_default();
        Some(OpProfile {
            name: s.name.clone(),
            platform: s.platform.clone().unwrap_or_default(),
            node: int_attr(s, "node") as usize,
            stage: int_attr(run, "stage") as usize,
            iteration: int_attr(run, "iteration") as u64,
            phase: int_attr(run, "phase") as u32,
            run: int_attr(run, "run") as u32,
            logical: facts.logical,
            tuples_in: int_attr(s, "tuples_in") as u64,
            tuples_out: int_attr(s, "tuples_out") as u64,
            virtual_ms: match s.attr("virtual_ms") {
                Some(&AttrValue::Float(ms)) => ms,
                _ => 0.0,
            },
            retries: int_attr(s, "retries") as u32,
            vec_stats: facts.vec_stats,
            superseded: s.superseded,
        })
    };
    operator_runs.filter_map(profile).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Open a stage run's span the way the executor does; returns the span
    /// id and the run ordinal.
    fn open_run(
        t: &Trace,
        parent: Option<u32>,
        stage: usize,
        iteration: u64,
        at: f64,
    ) -> (u32, u32) {
        let (phase, run) = (t.phase(), t.next_run_id());
        let span = t.begin(
            parent,
            SpanKind::Stage,
            &format!("stage {stage}"),
            Some(PlatformId("spark")),
            at,
        );
        t.attr(span, "stage", stage.into());
        t.attr(span, "iteration", iteration.into());
        t.attr(span, "phase", phase.into());
        t.attr(span, "run", run.into());
        (span, run)
    }

    /// Close a stage run's span the way the executor does.
    fn close_run(t: &Trace, span: u32, end: f64, virtual_ms: f64) {
        t.end(span, end);
        t.attr(span, "virtual_ms", virtual_ms.into());
    }

    /// A retry instant under a stage span.
    fn retry(t: &Trace, span: u32, attempt: u32, recovered: bool) {
        let r = t.instant(Some(span), SpanKind::Retry, "SparkMap", Some(PlatformId("spark")), 1.0);
        t.attr(r, "attempt", attempt.into());
        t.attr(r, "kind", "OperatorCrash".into());
        t.attr(r, "recovered", i64::from(recovered).into());
    }

    fn sample_trace() -> JobTrace {
        let t = Trace::new();
        t.begin_phase();
        let job = t.begin(None, SpanKind::Job, "job", None, 0.0);
        t.instant(Some(job), SpanKind::Submit, "submit", None, 0.0);
        let (stage, _) = open_run(&t, Some(job), 0, 0, 1.0);
        retry(&t, stage, 1, true);
        let op =
            t.begin(Some(stage), SpanKind::Operator, "SparkMap", Some(PlatformId("spark")), 1.5);
        t.attr(op, "node", 0u64.into());
        t.attr(op, "tuples_in", 100u64.into());
        t.attr(op, "tuples_out", 50u64.into());
        t.attr(op, "fused", 2u64.into());
        t.attr(op, "retries", 1u64.into());
        t.attr(op, "virtual_ms", 2.5f64.into());
        t.end(op, 4.0);
        t.facts(
            op,
            OpFacts {
                logical: vec![1, 2],
                vec_stats: crate::exec::VecStats {
                    rows: 100,
                    batches: 1,
                    vec_steps: 2,
                    row_steps: 0,
                    exch_batches: 4,
                    exch_rows: 100,
                    exch_row_rows: 0,
                    fallback: Some(crate::exec::Fallback::OpaqueSegment),
                },
            },
        );
        t.instant(Some(op), SpanKind::Event, "spark.shuffle", Some(PlatformId("spark")), 1.5);
        close_run(&t, stage, 4.0, 3.0);
        t.end(job, 4.0);
        t.finish()
    }

    #[test]
    fn tree_renderings_cover_spans() {
        let jt = sample_trace();
        let tree = jt.render_tree();
        assert!(tree.contains("[job] job"));
        assert!(tree.contains("[operator] SparkMap @spark"));
        assert!(tree.contains("virtual_ms=2.500"));
        let structure = jt.render_structure();
        assert!(structure.contains("tuples_in=100"));
        assert!(!structure.contains("virtual_ms"), "floats excluded:\n{structure}");
        assert!(!structure.contains("ms ("), "times excluded:\n{structure}");
        for facts in ["opaque-segment", "vec_rows"] {
            assert!(!tree.contains(facts) && !structure.contains(facts), "facts printed");
        }
    }

    #[test]
    fn closed_stage_span_is_the_run_record() {
        let jt = sample_trace();
        let expected = RunProfile {
            phase: 1,
            run: 0,
            stage: 0,
            platform: "spark".into(),
            iteration: 0,
            virtual_ms: 3.0,
            retries: 1,
            superseded: false,
        };
        assert_eq!(jt.runs, vec![expected]);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let jt = sample_trace();
        let text = jt.to_json();
        // Runs and profiles are derived from the spans, so the schema
        // repeats neither.
        assert!(!text.contains("\"runs\"") && !text.contains("\"profiles\""), "{text}");
        let back = JobTrace::from_json(&text).unwrap();
        assert_eq!(jt, back);
        assert_eq!((back.runs.len(), back.profiles.len()), (1, 1));
        // And re-serialization is byte-stable.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn chrome_export_is_valid_json_with_lanes() {
        let jt = sample_trace();
        let chrome = jt.to_chrome_json();
        let parsed = json::parse(&chrome).unwrap();
        let events = json::get(parsed.as_obj("root").unwrap(), "traceEvents").unwrap();
        let events = events.as_arr("traceEvents").unwrap();
        // 2 thread_name metadata lanes (driver + spark) + one per span.
        assert_eq!(events.len(), 2 + jt.spans.len());
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
    }

    #[test]
    fn operator_span_is_the_profile_record() {
        let jt = sample_trace();
        let expected = OpProfile {
            name: "SparkMap".into(),
            platform: "spark".into(),
            node: 0,
            stage: 0,
            iteration: 0,
            phase: 1,
            run: 0,
            logical: vec![1, 2],
            tuples_in: 100,
            tuples_out: 50,
            virtual_ms: 2.5,
            retries: 1,
            vec_stats: jt.spans.iter().find_map(|s| s.facts.as_ref()).unwrap().vec_stats,
            superseded: false,
        };
        assert_eq!(jt.profiles, vec![expected]);
        assert!(!jt.profiles[0].is_pseudo());
    }

    /// One operator span under `parent`, the way the executor records it.
    fn operator(t: &Trace, parent: u32, virtual_ms: f64) -> u32 {
        let op = t.begin(Some(parent), SpanKind::Operator, "XMap", Some(PlatformId("spark")), 0.0);
        t.attr(op, "virtual_ms", virtual_ms.into());
        t.end(op, virtual_ms);
        op
    }

    /// Record one closed stage run of `stage` in the current phase: its
    /// stage span and one operator span under it.
    fn record_run(t: &Trace, stage: usize, virtual_ms: f64) {
        let (span, _) = open_run(t, None, stage, 0, 0.0);
        operator(t, span, virtual_ms);
        close_run(t, span, virtual_ms, virtual_ms);
    }

    #[test]
    fn supersede_hits_only_current_phase_and_listed_stages() {
        let t = Trace::new();
        t.begin_phase();
        record_run(&t, 0, 1.0);
        t.begin_phase();
        record_run(&t, 0, 2.0);
        record_run(&t, 1, 3.0);
        t.supersede_current_phase(&HashSet::from([0]));
        let jt = t.finish();
        // Earlier phase untouched, current phase + listed stage marked,
        // unlisted stage untouched — on the stage span and its operator
        // span, and so on the run and the profile.
        let expected = vec![false, true, false];
        let marked = |kind| {
            jt.spans.iter().filter(|s| s.kind == kind).map(|s| s.superseded).collect::<Vec<_>>()
        };
        assert_eq!(marked(SpanKind::Stage), expected, "stage spans");
        assert_eq!(marked(SpanKind::Operator), expected, "operator spans");
        assert_eq!(jt.runs.iter().map(|r| r.superseded).collect::<Vec<_>>(), expected, "runs");
        let profiles: Vec<bool> = jt.profiles.iter().map(|p| p.superseded).collect();
        assert_eq!(profiles, expected, "profiles");
        assert_eq!(jt.profiles_effective().count(), 2);
        // Effective runs only: 1.0 + 3.0.
        assert!((jt.total_run_virtual_ms() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn retries_of_a_run_count_only_recovered_retry_children() {
        let t = Trace::new();
        t.begin_phase();
        let (first, _) = open_run(&t, None, 0, 0, 0.0);
        retry(&t, first, 1, true);
        retry(&t, first, 2, true);
        // The budget-exhausting attempt is a retry span too, unrecovered.
        retry(&t, first, 3, false);
        close_run(&t, first, 1.0, 1.0);
        let (second, _) = open_run(&t, None, 1, 0, 1.0);
        retry(&t, second, 1, false);
        // A recovered retry nested deeper (not a child) does not count.
        let op = t.begin(Some(second), SpanKind::Operator, "SparkMap", None, 1.0);
        retry(&t, op, 1, true);
        close_run(&t, second, 2.0, 1.0);
        let jt = t.finish();
        assert_eq!(jt.runs.iter().map(|r| r.retries).collect::<Vec<_>>(), vec![2, 0]);
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(JobTrace::from_json("{").is_err());
        assert!(JobTrace::from_json("[]").is_err());
        assert!(json::parse("{\"a\":1}xx").is_err());
        assert!(json::parse("{\"a\": [1, 2, {\"b\": \"c\\n\"}]}").is_ok());
    }
}
