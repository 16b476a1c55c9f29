//! User-defined functions attached to Rheem operators.
//!
//! UDFs are opaque to the optimizer except for the metadata they carry: a
//! name (for cost-model parameter lookup), a CPU cost hint (the `β` term of
//! §4.5's resource functions), and — for predicates — an optional *sargable*
//! description that lets relational platforms push the predicate into an
//! index scan.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::value::{Dataset, Value};

/// Broadcast variables visible to a UDF invocation (the dotted edges of
/// Fig. 3: e.g. SGD's weights broadcast into the gradient computation).
#[derive(Clone, Default)]
pub struct BroadcastCtx {
    vars: HashMap<Arc<str>, Dataset>,
}

impl BroadcastCtx {
    /// Empty context (no broadcasts attached).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a broadcast variable.
    pub fn bind(&mut self, name: impl Into<Arc<str>>, data: Dataset) {
        self.vars.insert(name.into(), data);
    }

    /// Look up a broadcast variable by name.
    pub fn get(&self, name: &str) -> Option<&Dataset> {
        self.vars.get(name)
    }

    /// The broadcast variable `name`, or an empty dataset if unbound.
    pub fn get_or_empty(&self, name: &str) -> Dataset {
        self.vars.get(name).cloned().unwrap_or_else(|| Arc::new(Vec::new()))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Total quanta across all bound variables (used for movement costs).
    pub fn total_quanta(&self) -> usize {
        self.vars.values().map(|d| d.len()).sum()
    }
}

impl fmt::Debug for BroadcastCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BroadcastCtx({} vars)", self.vars.len())
    }
}

macro_rules! udf_type {
    ($(#[$doc:meta])* $name:ident, $fnty:ty, $specty:ty) => {
        $(#[$doc])*
        #[derive(Clone)]
        pub struct $name {
            /// Human-readable name; also keys cost-model parameters.
            pub name: Arc<str>,
            f: Arc<$fnty>,
            /// CPU cost hint in abstract cycles per quantum (the `β` of §4.5).
            pub cost_hint: f64,
            /// Structured description of what the closure computes, when the
            /// UDF was built from a recognized builtin. `None` for opaque
            /// closures. Spec'd UDFs are eligible for vectorized execution
            /// ([`crate::batch`]); the closure and spec are derived from the
            /// same description, so they agree by construction.
            pub spec: Option<$specty>,
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.name)
            }
        }
    };
}

/// Structured form of a recognized map transformation (see [`MapUdf::spec`]).
#[derive(Clone, Debug, PartialEq)]
pub enum MapSpec {
    /// `v ↦ (v, lit)` — pair each quantum with an integer literal
    /// (the WordCount "pair with 1" shape).
    PairIntLit(i64),
    /// `(…, fᵢ, …) ↦ (…, fᵢ + delta, …)` — add a constant to integer tuple
    /// field `field`, leaving other fields (and non-int values) untouched.
    FieldIntAdd {
        /// Tuple field index to increment.
        field: usize,
        /// Constant added to the field.
        delta: i64,
    },
    /// `(…, fᵢ, …) ↦ (…, fᵢ + delta, …)` — add a constant to float tuple
    /// field `field`, leaving other fields (and non-float values) untouched.
    FieldFloatAdd {
        /// Tuple field index to shift.
        field: usize,
        /// Constant added to the field.
        delta: f64,
    },
    /// `(…, fᵢ, …) ↦ (…, fᵢ · factor, …)` — scale float tuple field `field`,
    /// leaving other fields (and non-float values) untouched.
    FieldFloatMul {
        /// Tuple field index to scale.
        field: usize,
        /// Constant the field is multiplied by.
        factor: f64,
    },
}

/// Structured form of a recognized flat-map (see [`FlatMapUdf::spec`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlatMapSpec {
    /// Tokenize a string quantum on ASCII whitespace; non-strings yield
    /// nothing. Tokens are interned ([`crate::intern`]).
    SplitWhitespace,
}

/// Structured form of a recognized key extractor (see [`KeyUdf::spec`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeySpec {
    /// Project tuple field `i` (non-tuples key on `Null`).
    Field(usize),
    /// The quantum is its own key.
    Identity,
}

/// Structured form of a recognized combiner (see [`ReduceUdf::spec`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReduceSpec {
    /// `(k, a) ⊕ (k, b) = (k, a + b)` over integer second fields — the
    /// WordCount count-merge shape. Non-int fields combine to `(k, 0)`-style
    /// sums exactly like the derived closure (`as_int().unwrap_or(0)`).
    PairIntSum,
    /// `(k, a) ⊕ (k, b) = (k, a + b)` over float second fields
    /// (`as_f64().unwrap_or(0.0)`), key taken from the left.
    PairFloatSum,
}

udf_type!(
    /// One-to-one transformation UDF (the `Map` operator payload).
    MapUdf,
    dyn Fn(&Value, &BroadcastCtx) -> Value + Send + Sync,
    MapSpec
);

impl MapUdf {
    /// Wrap a plain closure that ignores broadcasts.
    pub fn new(
        name: impl Into<Arc<str>>,
        f: impl Fn(&Value) -> Value + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.into(), f: Arc::new(move |v, _| f(v)), cost_hint: 1.0, spec: None }
    }

    /// Wrap a closure that reads broadcast variables.
    pub fn with_ctx(
        name: impl Into<Arc<str>>,
        f: impl Fn(&Value, &BroadcastCtx) -> Value + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.into(), f: Arc::new(f), cost_hint: 1.0, spec: None }
    }

    /// Spec'd map `v ↦ (v, lit)` — the WordCount "pair with 1" shape.
    pub fn pair_with_int(name: impl Into<Arc<str>>, lit: i64) -> Self {
        let mut m = Self::new(name, move |v| Value::pair(v.clone(), Value::from(lit)));
        m.spec = Some(MapSpec::PairIntLit(lit));
        m
    }

    /// Spec'd map adding `delta` to integer tuple field `field`; other
    /// fields, non-int fields and non-tuple quanta pass through unchanged.
    pub fn field_add_int(name: impl Into<Arc<str>>, field: usize, delta: i64) -> Self {
        let mut m = Self::new(name, move |v| match v.fields() {
            Some(fs) => Value::tuple(
                fs.iter()
                    .enumerate()
                    .map(|(i, x)| match (i == field, x) {
                        (true, Value::Int(n)) => Value::Int(n.wrapping_add(delta)),
                        _ => x.clone(),
                    })
                    .collect::<Vec<_>>(),
            ),
            None => v.clone(),
        });
        m.spec = Some(MapSpec::FieldIntAdd { field, delta });
        m
    }

    /// Spec'd map adding `delta` to float tuple field `field`; other fields,
    /// non-float fields and non-tuple quanta pass through unchanged.
    pub fn field_add_float(name: impl Into<Arc<str>>, field: usize, delta: f64) -> Self {
        let mut m = Self::new(name, move |v| match v.fields() {
            Some(fs) => Value::tuple(
                fs.iter()
                    .enumerate()
                    .map(|(i, x)| match (i == field, x) {
                        (true, Value::Float(n)) => Value::Float(n + delta),
                        _ => x.clone(),
                    })
                    .collect::<Vec<_>>(),
            ),
            None => v.clone(),
        });
        m.spec = Some(MapSpec::FieldFloatAdd { field, delta });
        m
    }

    /// Spec'd map scaling float tuple field `field` by `factor`; other
    /// fields, non-float fields and non-tuple quanta pass through unchanged.
    pub fn field_mul_float(name: impl Into<Arc<str>>, field: usize, factor: f64) -> Self {
        let mut m = Self::new(name, move |v| match v.fields() {
            Some(fs) => Value::tuple(
                fs.iter()
                    .enumerate()
                    .map(|(i, x)| match (i == field, x) {
                        (true, Value::Float(n)) => Value::Float(n * factor),
                        _ => x.clone(),
                    })
                    .collect::<Vec<_>>(),
            ),
            None => v.clone(),
        });
        m.spec = Some(MapSpec::FieldFloatMul { field, factor });
        m
    }

    /// Attach a CPU cost hint (abstract cycles per quantum).
    pub fn cost(mut self, cost_hint: f64) -> Self {
        self.cost_hint = cost_hint;
        self
    }

    /// Apply the UDF.
    #[inline]
    pub fn call(&self, v: &Value, ctx: &BroadcastCtx) -> Value {
        (self.f)(v, ctx)
    }
}

udf_type!(
    /// One-to-many transformation UDF (the `FlatMap` operator payload).
    FlatMapUdf,
    dyn Fn(&Value, &BroadcastCtx) -> Vec<Value> + Send + Sync,
    FlatMapSpec
);

impl FlatMapUdf {
    /// Wrap a plain closure that ignores broadcasts.
    pub fn new(
        name: impl Into<Arc<str>>,
        f: impl Fn(&Value) -> Vec<Value> + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.into(), f: Arc::new(move |v, _| f(v)), cost_hint: 1.0, spec: None }
    }

    /// Wrap a closure that reads broadcast variables.
    pub fn with_ctx(
        name: impl Into<Arc<str>>,
        f: impl Fn(&Value, &BroadcastCtx) -> Vec<Value> + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.into(), f: Arc::new(f), cost_hint: 1.0, spec: None }
    }

    /// Spec'd tokenizer: split string quanta on whitespace into interned
    /// string tokens; non-string quanta yield no tokens.
    pub fn split_whitespace(name: impl Into<Arc<str>>) -> Self {
        let mut fm = Self::new(name, |v| {
            v.as_str()
                .map(|s| {
                    s.split_whitespace().map(|w| Value::Str(crate::intern::intern(w))).collect()
                })
                .unwrap_or_default()
        });
        fm.spec = Some(FlatMapSpec::SplitWhitespace);
        fm
    }

    /// Attach a CPU cost hint (abstract cycles per quantum).
    pub fn cost(mut self, cost_hint: f64) -> Self {
        self.cost_hint = cost_hint;
        self
    }

    /// Apply the UDF.
    #[inline]
    pub fn call(&self, v: &Value, ctx: &BroadcastCtx) -> Vec<Value> {
        (self.f)(v, ctx)
    }
}

/// Comparison operators a sargable predicate may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<>`
    Ne,
}

impl CmpOp {
    /// Evaluate the comparison on two values under the canonical order.
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, a.cmp(b)),
            (CmpOp::Lt, Less)
                | (CmpOp::Le, Less | Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater | Equal)
                | (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less | Greater)
        )
    }

    /// The comparison with operand sides swapped (`a op b` ⇔ `b op' a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

/// A *search argument*: structured description of a predicate over one tuple
/// field, enabling index scans / pushdown on relational platforms.
#[derive(Clone, Debug)]
pub struct Sarg {
    /// Tuple field index the predicate constrains.
    pub field: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal the field is compared against.
    pub literal: Value,
}

impl Sarg {
    /// Evaluate the sarg against a tuple quantum.
    pub fn eval(&self, v: &Value) -> bool {
        self.op.eval(v.field(self.field), &self.literal)
    }
}

/// String matching operators a structured string predicate may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrOp {
    /// Substring containment.
    Contains,
    /// Prefix match.
    StartsWith,
    /// Suffix match.
    EndsWith,
}

impl StrOp {
    /// Evaluate the match on a haystack string.
    pub fn eval(self, hay: &str, needle: &str) -> bool {
        match self {
            StrOp::Contains => hay.contains(needle),
            StrOp::StartsWith => hay.starts_with(needle),
            StrOp::EndsWith => hay.ends_with(needle),
        }
    }
}

/// Structured description of a string predicate over one tuple field.
/// Non-string fields (and non-tuples, whose `field(i)` is `Null`) never
/// match, exactly like the derived closure.
#[derive(Clone, Debug)]
pub struct StrPred {
    /// Tuple field index the predicate constrains.
    pub field: usize,
    /// Match operator.
    pub op: StrOp,
    /// Needle the field is matched against.
    pub needle: Arc<str>,
}

impl StrPred {
    /// Evaluate the predicate against a quantum.
    pub fn eval(&self, v: &Value) -> bool {
        v.field(self.field).as_str().map(|s| self.op.eval(s, &self.needle)).unwrap_or(false)
    }
}

/// Structured form of a recognized predicate (see [`PredicateUdf::spec`]).
/// Sargable single comparisons stay pushdown-eligible on relational
/// platforms; conjunctions and string predicates are vectorization-only.
#[derive(Clone, Debug)]
pub enum PredSpec {
    /// A single sargable comparison.
    Sarg(Sarg),
    /// Conjunction of sargable comparisons (all must hold).
    All(Vec<Sarg>),
    /// A string match over one tuple field.
    Str(StrPred),
}

impl PredSpec {
    /// Evaluate the structured predicate against a quantum.
    pub fn eval(&self, v: &Value) -> bool {
        match self {
            PredSpec::Sarg(s) => s.eval(v),
            PredSpec::All(ss) => ss.iter().all(|s| s.eval(v)),
            PredSpec::Str(sp) => sp.eval(v),
        }
    }
}

udf_type!(
    /// Boolean predicate UDF (the `Filter` operator payload).
    PredicateUdf,
    dyn Fn(&Value, &BroadcastCtx) -> bool + Send + Sync,
    PredSpec
);

impl PredicateUdf {
    /// Wrap a plain closure that ignores broadcasts.
    pub fn new(
        name: impl Into<Arc<str>>,
        f: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.into(), f: Arc::new(move |v, _| f(v)), cost_hint: 1.0, spec: None }
    }

    /// Wrap a closure that reads broadcast variables.
    pub fn with_ctx(
        name: impl Into<Arc<str>>,
        f: impl Fn(&Value, &BroadcastCtx) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.into(), f: Arc::new(f), cost_hint: 1.0, spec: None }
    }

    /// Build a predicate directly from a sargable description.
    pub fn from_sarg(name: impl Into<Arc<str>>, sarg: Sarg) -> SargPredicate {
        let s = sarg.clone();
        SargPredicate {
            pred: Self {
                name: name.into(),
                f: Arc::new(move |v, _| s.eval(v)),
                cost_hint: 1.0,
                spec: Some(PredSpec::Sarg(sarg.clone())),
            },
            sarg,
        }
    }

    /// Build a conjunctive predicate from several sargable comparisons (all
    /// must hold). Not pushdown-eligible as a unit, but vectorizable.
    pub fn from_sargs(name: impl Into<Arc<str>>, sargs: Vec<Sarg>) -> Self {
        let ss = sargs.clone();
        Self {
            name: name.into(),
            f: Arc::new(move |v, _| ss.iter().all(|s| s.eval(v))),
            cost_hint: 1.0,
            spec: Some(PredSpec::All(sargs)),
        }
    }

    /// Build a string-match predicate over tuple field `field`. Non-string
    /// fields never match.
    pub fn str_match(
        name: impl Into<Arc<str>>,
        field: usize,
        op: StrOp,
        needle: impl Into<Arc<str>>,
    ) -> Self {
        let sp = StrPred { field, op, needle: needle.into() };
        let s = sp.clone();
        Self {
            name: name.into(),
            f: Arc::new(move |v, _| s.eval(v)),
            cost_hint: 1.0,
            spec: Some(PredSpec::Str(sp)),
        }
    }

    /// Attach a CPU cost hint (abstract cycles per quantum).
    pub fn cost(mut self, cost_hint: f64) -> Self {
        self.cost_hint = cost_hint;
        self
    }

    /// Apply the predicate.
    #[inline]
    pub fn call(&self, v: &Value, ctx: &BroadcastCtx) -> bool {
        (self.f)(v, ctx)
    }
}

/// A predicate together with its sargable description.
#[derive(Clone, Debug)]
pub struct SargPredicate {
    /// The executable predicate.
    pub pred: PredicateUdf,
    /// The structured form platforms may push down.
    pub sarg: Sarg,
}

udf_type!(
    /// Key extraction UDF (payload of `ReduceBy`, `GroupBy`, `SortBy`, `Join`).
    KeyUdf,
    dyn Fn(&Value) -> Value + Send + Sync,
    KeySpec
);

impl KeyUdf {
    /// Wrap a key extractor closure.
    pub fn new(
        name: impl Into<Arc<str>>,
        f: impl Fn(&Value) -> Value + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.into(), f: Arc::new(f), cost_hint: 1.0, spec: None }
    }

    /// Key extractor that projects tuple field `i`.
    pub fn field(i: usize) -> Self {
        let mut k = Self::new(format!("field{i}"), move |v| v.field(i).clone());
        k.spec = Some(KeySpec::Field(i));
        k
    }

    /// Identity key extractor (the quantum is its own key).
    pub fn identity() -> Self {
        let mut k = Self::new("identity", |v| v.clone());
        k.spec = Some(KeySpec::Identity);
        k
    }

    /// Attach a CPU cost hint (abstract cycles per quantum).
    pub fn cost(mut self, cost_hint: f64) -> Self {
        self.cost_hint = cost_hint;
        self
    }

    /// Apply the key extractor.
    #[inline]
    pub fn call(&self, v: &Value) -> Value {
        (self.f)(v)
    }

    /// [`call`](Self::call) without the clone where the key is a recognized
    /// projection: the key is borrowed from the quantum, and owned only when
    /// an opaque closure computes it.
    #[inline]
    pub fn extract<'a>(&self, v: &'a Value) -> Cow<'a, Value> {
        match self.spec {
            Some(KeySpec::Field(i)) => Cow::Borrowed(v.field(i)),
            Some(KeySpec::Identity) => Cow::Borrowed(v),
            None => Cow::Owned(self.call(v)),
        }
    }
}

udf_type!(
    /// Binary, associative aggregation UDF (payload of `Reduce`/`ReduceBy`).
    ReduceUdf,
    dyn Fn(&Value, &Value) -> Value + Send + Sync,
    ReduceSpec
);

impl ReduceUdf {
    /// Wrap an associative combiner closure.
    pub fn new(
        name: impl Into<Arc<str>>,
        f: impl Fn(&Value, &Value) -> Value + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.into(), f: Arc::new(f), cost_hint: 1.0, spec: None }
    }

    /// Spec'd pair-sum combiner: `(k, a) ⊕ (k, b) = (k, a + b)` with integer
    /// second fields (`as_int().unwrap_or(0)`), key taken from the left.
    pub fn pair_int_sum(name: impl Into<Arc<str>>) -> Self {
        let mut r = Self::new(name, |a, b| {
            Value::pair(
                a.field(0).clone(),
                Value::from(
                    a.field(1).as_int().unwrap_or(0).wrapping_add(b.field(1).as_int().unwrap_or(0)),
                ),
            )
        });
        r.spec = Some(ReduceSpec::PairIntSum);
        r
    }

    /// Spec'd pair-sum combiner over float second fields
    /// (`as_f64().unwrap_or(0.0)`), key taken from the left.
    pub fn pair_float_sum(name: impl Into<Arc<str>>) -> Self {
        let mut r = Self::new(name, |a, b| {
            Value::pair(
                a.field(0).clone(),
                Value::Float(
                    a.field(1).as_f64().unwrap_or(0.0) + b.field(1).as_f64().unwrap_or(0.0),
                ),
            )
        });
        r.spec = Some(ReduceSpec::PairFloatSum);
        r
    }

    /// Integer/float addition combiner.
    pub fn sum() -> Self {
        Self::new("sum", |a, b| match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
            _ => Value::Float(a.as_f64().unwrap_or(0.0) + b.as_f64().unwrap_or(0.0)),
        })
    }

    /// Attach a CPU cost hint (abstract cycles per quantum).
    pub fn cost(mut self, cost_hint: f64) -> Self {
        self.cost_hint = cost_hint;
        self
    }

    /// Apply the combiner.
    #[inline]
    pub fn call(&self, a: &Value, b: &Value) -> Value {
        (self.f)(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_ctx_binds_and_reads() {
        let mut ctx = BroadcastCtx::new();
        assert!(ctx.is_empty());
        ctx.bind("w", Arc::new(vec![Value::from(1.0)]));
        assert_eq!(ctx.len(), 1);
        assert_eq!(ctx.get("w").unwrap().len(), 1);
        assert!(ctx.get("missing").is_none());
        assert!(ctx.get_or_empty("missing").is_empty());
        assert_eq!(ctx.total_quanta(), 1);
    }

    #[test]
    fn map_udf_with_ctx_sees_broadcasts() {
        let udf = MapUdf::with_ctx("addw", |v, ctx| {
            let w = ctx.get_or_empty("w");
            let bias = w.first().and_then(Value::as_f64).unwrap_or(0.0);
            Value::from(v.as_f64().unwrap_or(0.0) + bias)
        });
        let mut ctx = BroadcastCtx::new();
        ctx.bind("w", Arc::new(vec![Value::from(10.0)]));
        assert_eq!(udf.call(&Value::from(5.0), &ctx).as_f64(), Some(15.0));
    }

    #[test]
    fn cmp_op_semantics_and_flip() {
        let a = Value::from(1);
        let b = Value::from(2);
        assert!(CmpOp::Lt.eval(&a, &b));
        assert!(!CmpOp::Gt.eval(&a, &b));
        assert!(CmpOp::Ne.eval(&a, &b));
        assert!(CmpOp::Eq.eval(&a, &a));
        assert!(CmpOp::Le.eval(&a, &a));
        assert!(CmpOp::Ge.eval(&b, &a));
        // a op b == b op.flip() a for all pairs
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
            assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a), "{op:?}");
        }
    }

    #[test]
    fn sarg_predicate_matches_closure() {
        let sp = PredicateUdf::from_sarg(
            "salary>100",
            Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(100) },
        );
        let row_hi = Value::tuple(vec![Value::from("a"), Value::from(150)]);
        let row_lo = Value::tuple(vec![Value::from("b"), Value::from(50)]);
        let ctx = BroadcastCtx::new();
        assert!(sp.pred.call(&row_hi, &ctx));
        assert!(!sp.pred.call(&row_lo, &ctx));
        assert!(sp.sarg.eval(&row_hi));
    }

    #[test]
    fn key_udf_field_and_identity() {
        let row = Value::tuple(vec![Value::from("k"), Value::from(9)]);
        assert_eq!(KeyUdf::field(0).call(&row).as_str(), Some("k"));
        assert_eq!(KeyUdf::identity().call(&row), row);
    }

    #[test]
    fn reduce_sum_handles_ints_and_floats() {
        let s = ReduceUdf::sum();
        assert_eq!(s.call(&Value::from(2), &Value::from(3)).as_int(), Some(5));
        assert_eq!(s.call(&Value::from(2.5), &Value::from(3)).as_f64(), Some(5.5));
    }

    #[test]
    fn specd_constructors_agree_with_specs() {
        let pair = MapUdf::pair_with_int("pair", 1);
        assert_eq!(pair.spec, Some(MapSpec::PairIntLit(1)));
        assert_eq!(
            pair.call(&Value::from("w"), &BroadcastCtx::new()),
            Value::pair(Value::from("w"), Value::from(1))
        );

        let add = MapUdf::field_add_int("bump", 1, 7);
        assert_eq!(add.spec, Some(MapSpec::FieldIntAdd { field: 1, delta: 7 }));
        let row = Value::tuple(vec![Value::from("k"), Value::from(3), Value::from("z")]);
        assert_eq!(
            add.call(&row, &BroadcastCtx::new()),
            Value::tuple(vec![Value::from("k"), Value::from(10), Value::from("z")])
        );
        // Non-tuple and non-int fields pass through untouched.
        assert_eq!(add.call(&Value::from(5), &BroadcastCtx::new()), Value::from(5));

        let split = FlatMapUdf::split_whitespace("split");
        assert_eq!(split.spec, Some(FlatMapSpec::SplitWhitespace));
        assert_eq!(
            split.call(&Value::from("a b  a"), &BroadcastCtx::new()),
            vec![Value::from("a"), Value::from("b"), Value::from("a")]
        );
        assert!(split.call(&Value::from(9), &BroadcastCtx::new()).is_empty());

        let sum = ReduceUdf::pair_int_sum("sum");
        assert_eq!(sum.spec, Some(ReduceSpec::PairIntSum));
        let a = Value::pair(Value::from("w"), Value::from(2));
        let b = Value::pair(Value::from("w"), Value::from(3));
        assert_eq!(sum.call(&a, &b), Value::pair(Value::from("w"), Value::from(5)));

        assert_eq!(KeyUdf::field(0).spec, Some(KeySpec::Field(0)));
        assert_eq!(KeyUdf::identity().spec, Some(KeySpec::Identity));
        assert!(KeyUdf::new("custom", |v| v.clone()).spec.is_none());
        assert!(PredicateUdf::from_sarg(
            "f0<5",
            Sarg { field: 0, op: CmpOp::Lt, literal: Value::from(5) }
        )
        .pred
        .spec
        .is_some());
    }

    #[test]
    fn widened_specs_agree_with_closures() {
        let ctx = BroadcastCtx::new();
        let row = Value::tuple(vec![Value::from("alpha"), Value::from(2.5), Value::from(3)]);

        let fadd = MapUdf::field_add_float("fadd", 1, 0.5);
        assert_eq!(fadd.spec, Some(MapSpec::FieldFloatAdd { field: 1, delta: 0.5 }));
        assert_eq!(fadd.call(&row, &ctx).field(1).as_f64(), Some(3.0));
        // Non-float target field passes through untouched.
        assert_eq!(
            MapUdf::field_add_float("x", 2, 1.0).call(&row, &ctx).field(2).as_int(),
            Some(3)
        );

        let fmul = MapUdf::field_mul_float("fmul", 1, 2.0);
        assert_eq!(fmul.call(&row, &ctx).field(1).as_f64(), Some(5.0));

        let conj = PredicateUdf::from_sargs(
            "band",
            vec![
                Sarg { field: 2, op: CmpOp::Ge, literal: Value::from(2) },
                Sarg { field: 2, op: CmpOp::Lt, literal: Value::from(5) },
            ],
        );
        assert!(conj.call(&row, &ctx));
        assert!(matches!(conj.spec, Some(PredSpec::All(ref v)) if v.len() == 2));

        let has = PredicateUdf::str_match("has", 0, StrOp::Contains, "lph");
        assert!(has.call(&row, &ctx));
        assert!(!PredicateUdf::str_match("pre", 0, StrOp::StartsWith, "lph").call(&row, &ctx));
        assert!(PredicateUdf::str_match("suf", 0, StrOp::EndsWith, "pha").call(&row, &ctx));
        // Non-string field never matches.
        assert!(!PredicateUdf::str_match("n", 2, StrOp::Contains, "3").call(&row, &ctx));

        let fsum = ReduceUdf::pair_float_sum("fsum");
        assert_eq!(fsum.spec, Some(ReduceSpec::PairFloatSum));
        let a = Value::pair(Value::from("w"), Value::from(1.5));
        let b = Value::pair(Value::from("w"), Value::from(2.25));
        assert_eq!(fsum.call(&a, &b), Value::pair(Value::from("w"), Value::from(3.75)));
    }

    #[test]
    fn cost_hints_attach() {
        let m = MapUdf::new("m", |v| v.clone()).cost(4.0);
        assert_eq!(m.cost_hint, 4.0);
        let p = PredicateUdf::new("p", |_| true).cost(2.0);
        assert_eq!(p.cost_hint, 2.0);
    }
}
