//! Columnar batch execution: typed column slices and vectorized kernels for
//! fused pipelines (Flare-style tight loops instead of tuple-at-a-time
//! interpretation).
//!
//! The row interpreter ([`crate::fused`]) pulls one [`Value`] enum at a time
//! through boxed UDFs, paying dispatch, `Arc` refcount traffic and hash-map
//! churn per tuple. This module offers the batched alternative: a [`Batch`]
//! of aligned typed [`Column`]s with a *selection vector*, and a
//! [`VectorKernel`] compiled from a fused chain whose steps all carry spec
//! descriptors ([`crate::udf::MapSpec`] et al.). Predicates write selection
//! vectors instead of materializing survivors; tokenizing flat-maps build
//! dictionary-encoded string columns (backed by [`crate::intern`]); the
//! fused terminal `ReduceBy` aggregates through a dictionary-keyed fast path
//! ([`reduce_batch`]) that replaces one hash + one allocation per quantum
//! with one slot increment.
//!
//! **Fallback rule:** compilation ([`VectorKernel::compile`]) fails if any
//! step lacks a spec (opaque closure), and execution
//! ([`VectorKernel::run_values`]) fails if the runtime column types don't
//! match the spec (e.g. a sarg over a mixed column). In both cases engines
//! fall back to the row interpreter for the whole segment, so batching is
//! always semantics-preserving: both paths are derived from the same spec
//! and produce identical values in identical order.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::fused::{FusedPipeline, FusedStep};
use crate::intern::intern_id;
use crate::kernels::{bucket_of_key, bucket_of_str};
use crate::udf::{
    CmpOp, FlatMapSpec, KeySpec, KeyUdf, MapSpec, PredSpec, ReduceSpec, ReduceUdf, Sarg,
};
use crate::value::{Dataset, Value};

/// A typed column of quanta (one attribute across a batch of rows).
#[derive(Clone, Debug)]
pub enum Column {
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dictionary-encoded strings: `ids[i]` indexes `dict`. Dictionary
    /// entries are in first-occurrence order and share interned allocations
    /// where they come from the tokenizer.
    Str {
        /// Distinct strings, first-occurrence order.
        dict: Vec<Arc<str>>,
        /// Per-row dictionary index.
        ids: Vec<u32>,
        /// Global interner ids for `dict`. The tokenizer, the combiner and
        /// the merge fill them as they build the column (they hold the ids
        /// already); columns built from plain rows resolve them once per
        /// column allocation on first use. Bucket batches from
        /// [`partition_batch`] share the source chunk's column `Arc`s, so
        /// either way no consumer goes back to the interner per bucket.
        gids: OnceLock<Vec<u32>>,
    },
    /// Row fallback: arbitrary (mixed-type, nested, or null) values.
    Row(Vec<Value>),
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Str { ids, .. } => ids.len(),
            Column::Row(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize row `i` as a [`Value`].
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int64(v) => Value::Int(v[i]),
            Column::Float64(v) => Value::Float(v[i]),
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Str { dict, ids, .. } => Value::Str(Arc::clone(&dict[ids[i] as usize])),
            Column::Row(v) => v[i].clone(),
        }
    }
}

/// Build a dictionary column; `gids` are the dictionary's global interner
/// ids when the builder already holds them (else they resolve on first use).
fn str_col(dict: Vec<Arc<str>>, ids: Vec<u32>, gids: Option<Vec<u32>>) -> Column {
    debug_assert!(gids.as_ref().is_none_or(|g| g.len() == dict.len()));
    Column::Str { dict, ids, gids: gids.map(OnceLock::from).unwrap_or_default() }
}

/// The cached global interner ids for a dictionary column, resolving the
/// whole dictionary on first use. All selections sharing the column `Arc`
/// (e.g. every bucket cut from one chunk) reuse the same resolution.
fn dict_gids<'a>(dict: &[Arc<str>], gids: &'a OnceLock<Vec<u32>>) -> &'a [u32] {
    gids.get_or_init(|| dict.iter().map(|s| intern_id(s).1).collect())
}

/// Columnarize one attribute: typed vector when every value shares a scalar
/// type, [`Column::Row`] otherwise (nulls, tuples, mixed types).
fn columnize<'a>(vals: impl Iterator<Item = &'a Value> + Clone, len: usize) -> Column {
    let mut it = vals.clone();
    match it.next() {
        Some(Value::Int(_)) => {
            let mut out = Vec::with_capacity(len);
            for v in vals.clone() {
                match v {
                    Value::Int(n) => out.push(*n),
                    _ => return Column::Row(vals.cloned().collect()),
                }
            }
            Column::Int64(out)
        }
        Some(Value::Float(_)) => {
            let mut out = Vec::with_capacity(len);
            for v in vals.clone() {
                match v {
                    Value::Float(x) => out.push(*x),
                    _ => return Column::Row(vals.cloned().collect()),
                }
            }
            Column::Float64(out)
        }
        Some(Value::Bool(_)) => {
            let mut out = Vec::with_capacity(len);
            for v in vals.clone() {
                match v {
                    Value::Bool(b) => out.push(*b),
                    _ => return Column::Row(vals.cloned().collect()),
                }
            }
            Column::Bool(out)
        }
        Some(Value::Str(_)) => {
            let mut dict: Vec<Arc<str>> = Vec::new();
            let mut map: HashMap<Arc<str>, u32> = HashMap::new();
            let mut ids = Vec::with_capacity(len);
            for v in vals.clone() {
                match v {
                    Value::Str(s) => {
                        let id = match map.get(s.as_ref()) {
                            Some(&id) => id,
                            None => {
                                let id = dict.len() as u32;
                                dict.push(Arc::clone(s));
                                map.insert(Arc::clone(s), id);
                                id
                            }
                        };
                        ids.push(id);
                    }
                    _ => return Column::Row(vals.cloned().collect()),
                }
            }
            str_col(dict, ids, None)
        }
        _ => Column::Row(vals.cloned().collect()),
    }
}

/// Whether a batch holds scalar quanta (one column) or tuple quanta (one
/// column per field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Each row is the single column's value.
    Scalar,
    /// Each row is a tuple of the columns' values, in column order.
    Tuple,
}

/// A batch of aligned columns with an optional selection vector.
///
/// Columns are shared via `Arc`, so transformations that touch one column
/// (e.g. [`MapSpec::FieldIntAdd`]) reuse the others without copying, and
/// cloning a batch (channel fan-out, retries) is O(columns).
#[derive(Clone, Debug)]
pub struct Batch {
    cols: Vec<Arc<Column>>,
    shape: Shape,
    len: usize,
    /// Surviving row indices in ascending order; `None` means all rows.
    sel: Option<Vec<u32>>,
}

impl Batch {
    /// Columnarize a slice of row values. Tuples of uniform arity become one
    /// column per field; anything else becomes a single (possibly
    /// row-fallback) column.
    pub fn from_values(input: &[Value]) -> Batch {
        let arity = match input.first() {
            Some(Value::Tuple(t)) if !t.is_empty() => {
                let n = t.len();
                if input.iter().all(|v| matches!(v, Value::Tuple(t) if t.len() == n)) {
                    Some(n)
                } else {
                    None
                }
            }
            _ => None,
        };
        match arity {
            Some(n) => {
                let cols = (0..n)
                    .map(|i| {
                        Arc::new(columnize(input.iter().map(move |v| v.field(i)), input.len()))
                    })
                    .collect();
                Batch { cols, shape: Shape::Tuple, len: input.len(), sel: None }
            }
            None => Batch {
                cols: vec![Arc::new(columnize(input.iter(), input.len()))],
                shape: Shape::Scalar,
                len: input.len(),
                sel: None,
            },
        }
    }

    /// Total rows (before selection).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows survive the selection.
    pub fn is_empty(&self) -> bool {
        self.selected_len() == 0
    }

    /// Rows surviving the selection vector.
    pub fn selected_len(&self) -> usize {
        self.sel.as_ref().map(Vec::len).unwrap_or(self.len)
    }

    /// The batch's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The underlying columns (shared allocations — bucket batches and
    /// cached batches alias the producing chunk's columns). Exposed so byte
    /// accounting can size shared column allocations once.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.cols
    }

    /// Surviving row indices when a selection vector is present (`None`
    /// means every physical row survives).
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Materialize row `i` (a physical row index, ignoring selection).
    fn row(&self, i: usize) -> Value {
        match self.shape {
            Shape::Scalar => self.cols[0].get(i),
            // Pairs are the dominant tuple width (key/value operators);
            // build them without the intermediate Vec.
            Shape::Tuple => match self.cols.as_slice() {
                [a, b] => Value::pair(a.get(i), b.get(i)),
                cols => Value::tuple(cols.iter().map(|c| c.get(i)).collect::<Vec<_>>()),
            },
        }
    }

    /// [`Value::approx_bytes`] of row `i`, read off the columns without
    /// materializing the row.
    fn row_bytes(&self, i: usize) -> usize {
        let cell = |c: &Column| match c {
            Column::Int64(_) | Column::Float64(_) => 16,
            Column::Bool(_) => 8,
            Column::Str { dict, ids, .. } => 24 + dict[ids[i] as usize].len(),
            Column::Row(v) => v[i].approx_bytes(),
        };
        match self.shape {
            Shape::Scalar => cell(&self.cols[0]),
            Shape::Tuple => 24 + self.cols.iter().map(|c| cell(c)).sum::<usize>(),
        }
    }

    /// Materialize the surviving rows back into row values, in order.
    pub fn to_values(&self) -> Vec<Value> {
        match &self.sel {
            Some(sel) => sel.iter().map(|&i| self.row(i as usize)).collect(),
            None => (0..self.len).map(|i| self.row(i)).collect(),
        }
    }

    /// The surviving rows, in order, each materialized only when reached.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Value> + '_ {
        self.selected().map(|i| self.row(i))
    }

    /// Iterate surviving physical row indices in order: O(selected rows),
    /// so a bucket batch cut from a large chunk costs only its survivors.
    fn selected(&self) -> impl Iterator<Item = usize> + '_ {
        let (sel, all) = match &self.sel {
            Some(s) => (s.as_slice(), 0..0),
            None => (&[][..], 0..self.len),
        };
        sel.iter().map(|&i| i as usize).chain(all)
    }

    /// Physical index of the `pos`-th surviving row.
    fn selected_at(&self, pos: usize) -> usize {
        self.sel.as_ref().map_or(pos, |s| s[pos] as usize)
    }
}

/// One vectorized step over column slices.
#[derive(Clone, Debug)]
enum VStep {
    /// Structured predicate (sarg, conjunction, or string match) →
    /// selection vector.
    Filter(PredSpec),
    /// Recognized arithmetic / pairing map.
    Map(MapSpec),
    /// Whitespace tokenizer → dictionary-encoded string column.
    Tokenize,
    /// Column projection.
    Project(Vec<usize>),
}

/// A fused chain compiled to vectorized steps. Produced by [`compile`]
/// (`None` when any step is an opaque closure); executed by [`run_values`]
/// (`None` when runtime column types don't fit — callers fall back to the
/// row interpreter).
///
/// [`compile`]: VectorKernel::compile
/// [`run_values`]: VectorKernel::run_values
#[derive(Clone, Debug)]
pub struct VectorKernel {
    steps: Vec<VStep>,
}

impl VectorKernel {
    /// Compile a fused pipeline into vector steps; `None` if any step lacks
    /// a spec descriptor.
    pub fn compile(p: &FusedPipeline) -> Option<VectorKernel> {
        let steps = p
            .steps()
            .iter()
            .map(|s| match s {
                FusedStep::Filter(p) => p.spec.clone().map(VStep::Filter),
                FusedStep::Map(m) => m.spec.clone().map(VStep::Map),
                FusedStep::FlatMap(f) => {
                    (f.spec == Some(FlatMapSpec::SplitWhitespace)).then_some(VStep::Tokenize)
                }
                FusedStep::Project(fields) => Some(VStep::Project(fields.clone())),
            })
            .collect::<Option<Vec<_>>>()?;
        Some(VectorKernel { steps })
    }

    /// Number of vectorized steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the kernel has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Columnarize `input` and run every step over column slices. `None` on
    /// any runtime type mismatch (caller falls back to the row path).
    pub fn run_values(&self, input: &[Value]) -> Option<Batch> {
        // A leading tokenizer reads the lines where they are: no line
        // dictionary is built just to be taken apart again.
        let (first, rest) = match self.steps.split_first() {
            Some((VStep::Tokenize, rest)) => (tokenize_rows(input)?, rest),
            _ => (Batch::from_values(input), self.steps.as_slice()),
        };
        rest.iter().try_fold(first, |b, s| apply(s, b))
    }

    /// Run every step over an already-columnar batch (e.g. one that arrived
    /// through a columnar exchange) — no row round-trip. `None` on any
    /// runtime type mismatch (caller falls back to the row path).
    pub fn run_batch(&self, b: Batch) -> Option<Batch> {
        let mut b = b;
        for s in &self.steps {
            b = apply(s, b)?;
        }
        Some(b)
    }
}

/// Whitespace tokenizer state: words become ids over an interner-backed
/// dictionary in first-occurrence order. A word's content is hashed once
/// per occurrence (the local map) and resolved through the interner once
/// per distinct word, which also yields the global id the exchange merges
/// by — after this, the word is an id.
struct Tokenizer<'a> {
    map: HashMap<&'a str, u32>,
    dict: Vec<Arc<str>>,
    gids: Vec<u32>,
    ids: Vec<u32>,
}

impl<'a> Tokenizer<'a> {
    fn new() -> Self {
        Self { map: HashMap::new(), dict: Vec::new(), gids: Vec::new(), ids: Vec::new() }
    }

    #[inline]
    fn word(&mut self, w: &'a str) {
        let id = match self.map.entry(w) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let (shared, gid) = intern_id(w);
                self.dict.push(shared);
                self.gids.push(gid);
                *e.insert(self.dict.len() as u32 - 1)
            }
        };
        self.ids.push(id);
    }

    /// Split `line` exactly as `str::split_whitespace` does. ASCII lines
    /// scan bytes against `char::is_whitespace`'s ASCII members (U+0009 to
    /// U+000D and the space; `u8::is_ascii_whitespace` lacks U+000B).
    fn line(&mut self, line: &'a str) {
        if !line.is_ascii() {
            line.split_whitespace().for_each(|w| self.word(w));
            return;
        }
        let mut start = None;
        for (i, &c) in line.as_bytes().iter().enumerate() {
            let ws = matches!(c, b'\t'..=b'\r' | b' ');
            match (start, ws) {
                (None, false) => start = Some(i),
                (Some(s), true) => {
                    self.word(&line[s..i]);
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            self.word(&line[s..]);
        }
    }

    fn finish(self) -> Batch {
        let len = self.ids.len();
        Batch {
            cols: vec![Arc::new(str_col(self.dict, self.ids, Some(self.gids)))],
            shape: Shape::Scalar,
            len,
            sel: None,
        }
    }
}

/// Tokenize string rows straight into a dictionary column. `None` when the
/// rows would not columnize as strings (a non-`Str` row, or no rows at all)
/// — the cases [`Batch::from_values`] hands the tokenizer an untyped column.
fn tokenize_rows(input: &[Value]) -> Option<Batch> {
    if input.is_empty() {
        return None;
    }
    let mut t = Tokenizer::new();
    for v in input {
        let Value::Str(line) = v else { return None };
        t.line(line);
    }
    Some(t.finish())
}

/// Build the new selection vector for `keep` over the currently selected
/// physical rows.
fn filter_sel(b: &Batch, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut out = Vec::with_capacity(b.selected_len());
    match &b.sel {
        Some(sel) => {
            for &i in sel {
                if keep(i as usize) {
                    out.push(i);
                }
            }
        }
        None => {
            for i in 0..b.len {
                if keep(i) {
                    out.push(i as u32);
                }
            }
        }
    }
    out
}

#[inline]
fn ord_ok(op: CmpOp, o: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    matches!(
        (op, o),
        (CmpOp::Lt, Less)
            | (CmpOp::Le, Less | Equal)
            | (CmpOp::Gt, Greater)
            | (CmpOp::Ge, Greater | Equal)
            | (CmpOp::Eq, Equal)
            | (CmpOp::Ne, Less | Greater)
    )
}

/// Apply one sargable comparison as a selection pass; `None` on a runtime
/// shape/type mismatch.
fn apply_sarg(sarg: &Sarg, b: Batch) -> Option<Batch> {
    if b.shape != Shape::Tuple || sarg.field >= b.cols.len() {
        return None;
    }
    let op = sarg.op;
    // Tight loop per (column type, literal type) pair, matching the
    // canonical `Value` order exactly (ints and floats cross-compare
    // numerically via `total_cmp`).
    let sel = match (b.cols[sarg.field].as_ref(), &sarg.literal) {
        (Column::Int64(xs), Value::Int(l)) => {
            let l = *l;
            filter_sel(&b, |i| ord_ok(op, xs[i].cmp(&l)))
        }
        (Column::Int64(xs), Value::Float(l)) => {
            let l = *l;
            filter_sel(&b, |i| ord_ok(op, (xs[i] as f64).total_cmp(&l)))
        }
        (Column::Float64(xs), Value::Float(l)) => {
            let l = *l;
            filter_sel(&b, |i| ord_ok(op, xs[i].total_cmp(&l)))
        }
        (Column::Float64(xs), Value::Int(l)) => {
            let l = *l as f64;
            filter_sel(&b, |i| ord_ok(op, xs[i].total_cmp(&l)))
        }
        (Column::Bool(xs), Value::Bool(l)) => {
            let l = *l;
            filter_sel(&b, |i| ord_ok(op, xs[i].cmp(&l)))
        }
        (Column::Str { dict, ids, .. }, Value::Str(l)) => {
            // Evaluate once per distinct string, then index.
            let keep: Vec<bool> =
                dict.iter().map(|s| ord_ok(op, s.as_ref().cmp(l.as_ref()))).collect();
            filter_sel(&b, |i| keep[ids[i] as usize])
        }
        _ => return None,
    };
    Some(Batch { sel: Some(sel), ..b })
}

/// Apply a structured predicate; conjunctions chain selection passes and
/// string predicates evaluate once per distinct dictionary entry.
fn apply_pred(spec: &PredSpec, b: Batch) -> Option<Batch> {
    match spec {
        PredSpec::Sarg(s) => apply_sarg(s, b),
        PredSpec::All(ss) => {
            let mut b = b;
            for s in ss {
                b = apply_sarg(s, b)?;
            }
            Some(b)
        }
        PredSpec::Str(sp) => {
            if b.shape != Shape::Tuple || sp.field >= b.cols.len() {
                return None;
            }
            let Column::Str { dict, ids, .. } = b.cols[sp.field].as_ref() else { return None };
            let keep: Vec<bool> = dict.iter().map(|s| sp.op.eval(s, &sp.needle)).collect();
            let sel = filter_sel(&b, |i| keep[ids[i] as usize]);
            Some(Batch { sel: Some(sel), ..b })
        }
    }
}

/// Apply one vector step; `None` on a runtime shape/type mismatch.
fn apply(step: &VStep, b: Batch) -> Option<Batch> {
    match step {
        VStep::Filter(spec) => apply_pred(spec, b),
        VStep::Map(MapSpec::PairIntLit(lit)) => {
            if b.shape != Shape::Scalar {
                return None;
            }
            let lit_col = Arc::new(Column::Int64(vec![*lit; b.len]));
            Some(Batch {
                cols: vec![Arc::clone(&b.cols[0]), lit_col],
                shape: Shape::Tuple,
                len: b.len,
                sel: b.sel,
            })
        }
        VStep::Map(MapSpec::FieldIntAdd { field, delta }) => {
            if b.shape != Shape::Tuple || *field >= b.cols.len() {
                return None;
            }
            let Column::Int64(xs) = b.cols[*field].as_ref() else { return None };
            let bumped =
                Arc::new(Column::Int64(xs.iter().map(|x| x.wrapping_add(*delta)).collect()));
            let cols = b
                .cols
                .iter()
                .enumerate()
                .map(|(i, c)| if i == *field { Arc::clone(&bumped) } else { Arc::clone(c) })
                .collect();
            Some(Batch { cols, shape: Shape::Tuple, len: b.len, sel: b.sel })
        }
        VStep::Map(MapSpec::FieldFloatAdd { field, delta }) => {
            if b.shape != Shape::Tuple || *field >= b.cols.len() {
                return None;
            }
            let Column::Float64(xs) = b.cols[*field].as_ref() else { return None };
            let shifted = Arc::new(Column::Float64(xs.iter().map(|x| x + delta).collect()));
            let cols = b
                .cols
                .iter()
                .enumerate()
                .map(|(i, c)| if i == *field { Arc::clone(&shifted) } else { Arc::clone(c) })
                .collect();
            Some(Batch { cols, shape: Shape::Tuple, len: b.len, sel: b.sel })
        }
        VStep::Map(MapSpec::FieldFloatMul { field, factor }) => {
            if b.shape != Shape::Tuple || *field >= b.cols.len() {
                return None;
            }
            let Column::Float64(xs) = b.cols[*field].as_ref() else { return None };
            let scaled = Arc::new(Column::Float64(xs.iter().map(|x| x * factor).collect()));
            let cols = b
                .cols
                .iter()
                .enumerate()
                .map(|(i, c)| if i == *field { Arc::clone(&scaled) } else { Arc::clone(c) })
                .collect();
            Some(Batch { cols, shape: Shape::Tuple, len: b.len, sel: b.sel })
        }
        VStep::Tokenize => {
            if b.shape != Shape::Scalar {
                return None;
            }
            let Column::Str { dict, ids, .. } = b.cols[0].as_ref() else { return None };
            let mut t = Tokenizer::new();
            for i in b.selected() {
                t.line(&dict[ids[i] as usize]);
            }
            Some(t.finish())
        }
        VStep::Project(fields) => {
            if b.shape != Shape::Tuple || fields.iter().any(|&i| i >= b.cols.len()) {
                return None;
            }
            let cols: Vec<_> = fields.iter().map(|&i| Arc::clone(&b.cols[i])).collect();
            Some(Batch { cols, shape: Shape::Tuple, len: b.len, sel: b.sel })
        }
    }
}

/// Whether a `ReduceBy`'s key/agg pair is recognized for batched
/// aggregation. Static property (spec presence), safe for cost models.
pub fn agg_vectorizable(key: &KeyUdf, agg: &ReduceUdf) -> bool {
    key.spec == Some(KeySpec::Field(0))
        && matches!(agg.spec, Some(ReduceSpec::PairIntSum | ReduceSpec::PairFloatSum))
}

/// Assign a dense slot per distinct key of a two-column tuple batch, in
/// first-occurrence order of the surviving rows. Returns the key column
/// (one entry per slot), one slot index per surviving row, and the slot
/// count. Dictionary-encoded keys get a slot-array (no hashing at all);
/// integer keys pay one `i64` hash per row. `None` for other key columns.
fn key_slots(b: &Batch) -> Option<(Column, Vec<usize>, usize)> {
    match b.cols[0].as_ref() {
        Column::Str { dict, ids, gids } => {
            let mut slot_of = vec![usize::MAX; dict.len()];
            let mut order: Vec<u32> = Vec::new();
            let mut slots = Vec::with_capacity(b.selected_len());
            for i in b.selected() {
                let id = ids[i] as usize;
                if slot_of[id] == usize::MAX {
                    slot_of[id] = order.len();
                    order.push(id as u32);
                }
                slots.push(slot_of[id]);
            }
            let out_dict: Vec<Arc<str>> =
                order.iter().map(|&id| Arc::clone(&dict[id as usize])).collect();
            let n = out_dict.len();
            let ids_out: Vec<u32> = (0..n as u32).collect();
            // Known global ids travel with the dictionary entries they name.
            let out_gids = gids.get().map(|g| order.iter().map(|&id| g[id as usize]).collect());
            Some((str_col(out_dict, ids_out, out_gids), slots, n))
        }
        Column::Int64(keys) => {
            let mut slot: HashMap<i64, usize> = HashMap::new();
            let mut order: Vec<i64> = Vec::new();
            let mut slots = Vec::with_capacity(b.selected_len());
            for i in b.selected() {
                let k = keys[i];
                let s = *slot.entry(k).or_insert_with(|| {
                    order.push(k);
                    order.len() - 1
                });
                slots.push(s);
            }
            let n = order.len();
            Some((Column::Int64(order), slots, n))
        }
        _ => None,
    }
}

/// Sum the value column by slot under the recognized combiner. Integer sums
/// start at zero (`0 + x = x` exactly); float sums seed from the first value
/// so single-occurrence keys reproduce the row accumulator bit-for-bit
/// (the row path never runs the combiner for a lone key).
fn sum_by_slots(b: &Batch, slots: &[usize], n: usize, spec: &ReduceSpec) -> Option<Column> {
    match (spec, b.cols[1].as_ref()) {
        (ReduceSpec::PairIntSum, Column::Int64(vals)) => {
            let mut sums = vec![0i64; n];
            for (pos, i) in b.selected().enumerate() {
                sums[slots[pos]] = sums[slots[pos]].wrapping_add(vals[i]);
            }
            Some(Column::Int64(sums))
        }
        (ReduceSpec::PairFloatSum, Column::Float64(vals)) => {
            let mut sums = vec![0f64; n];
            let mut seen = vec![false; n];
            for (pos, i) in b.selected().enumerate() {
                let s = slots[pos];
                if seen[s] {
                    sums[s] += vals[i];
                } else {
                    seen[s] = true;
                    sums[s] = vals[i];
                }
            }
            Some(Column::Float64(sums))
        }
        _ => None,
    }
}

/// Batched map-side combine over a `(key, value)` tuple batch: slot-array
/// aggregation that stays columnar, producing a two-column `(key, sum)`
/// batch with keys in first-occurrence order of the surviving rows. `None`
/// when the batch is not a two-column tuple with a recognized key/value
/// column pair for `spec` (callers fall back to the row accumulator).
pub fn combine_batch(b: &Batch, spec: &ReduceSpec) -> Option<Batch> {
    if b.shape != Shape::Tuple || b.cols.len() != 2 {
        return None;
    }
    let (keys, slots, n) = key_slots(b)?;
    let sums = sum_by_slots(b, &slots, n, spec)?;
    Some(Batch {
        cols: vec![Arc::new(keys), Arc::new(sums)],
        shape: Shape::Tuple,
        len: n,
        sel: None,
    })
}

/// Materialize a combined `(key, sum)` batch as the keyed pairs the row
/// path's [`finish_keyed`] emits for shuffle routing: `(key, (key, sum))`.
///
/// [`finish_keyed`]: crate::kernels::ReduceByState::finish_keyed
pub fn keyed_values(cb: &Batch) -> Vec<Value> {
    cb.to_values().into_iter().map(|r| Value::pair(r.field(0).clone(), r)).collect()
}

/// Batched hash aggregation over a `(key, value)` tuple batch: the fused
/// terminal `ReduceBy` fast path.
///
/// Emits exactly what the row path's [`crate::kernels::ReduceByState`]
/// would: one `(key, sum)` pair per distinct key in first-occurrence order
/// of the surviving rows — or, with `keyed`, `(key, (key, sum))` pairs as
/// [`finish_keyed`] produces for shuffle routing. `None` when the batch is
/// not a two-column tuple with a recognized key/value column pair (callers
/// fall back to the row accumulator).
///
/// [`finish_keyed`]: crate::kernels::ReduceByState::finish_keyed
pub fn reduce_batch(b: &Batch, spec: &ReduceSpec, keyed: bool) -> Option<Vec<Value>> {
    let cb = combine_batch(b, spec)?;
    Some(if keyed { keyed_values(&cb) } else { cb.to_values() })
}

/// Reduce-side slot-array merge of combined `(key, sum)` batches arriving
/// from producer partitions, in contribution order. Dictionary keys are
/// unified through the global interner ids ([`crate::intern::intern_id`]),
/// so no string content is hashed on the consumer side. Emits one merged
/// `(key, sum)` batch with keys in first-occurrence order across the
/// contributions — exactly what the row path's [`crate::kernels::merge_by`]
/// produces for the same bucket. `None` when key or sum column types are
/// mixed across contributions (callers fall back to the row merge).
pub fn merge_batches(contribs: &[Batch]) -> Option<Batch> {
    for cb in contribs {
        if cb.shape != Shape::Tuple || cb.cols.len() != 2 {
            return None;
        }
    }
    let live: Vec<&Batch> = contribs.iter().filter(|cb| !cb.is_empty()).collect();
    // Key and sum column types must be uniform across live contributions.
    let str_keys = matches!(live.first().map(|cb| cb.cols[0].as_ref()), Some(Column::Str { .. }));
    let int_sums = matches!(live.first().map(|cb| cb.cols[1].as_ref()), Some(Column::Int64(_)));
    for cb in &live {
        match cb.cols[0].as_ref() {
            Column::Str { .. } if str_keys => {}
            Column::Int64(_) if !str_keys => {}
            _ => return None,
        }
        match cb.cols[1].as_ref() {
            Column::Int64(_) if int_sums => {}
            Column::Float64(_) if !int_sums => {}
            _ => return None,
        }
    }
    let mut slot_s: IdMap<usize> = IdMap::default();
    let mut keys_s: Vec<Arc<str>> = Vec::new();
    let mut gids_s: Vec<u32> = Vec::new();
    let mut slot_i: HashMap<i64, usize> = HashMap::new();
    let mut keys_i: Vec<i64> = Vec::new();
    let mut sums_i: Vec<i64> = Vec::new();
    let mut sums_f: Vec<f64> = Vec::new();
    let mut seen_f: Vec<bool> = Vec::new();
    for cb in live {
        // Resolve each surviving row to a merged slot in contribution order.
        let mut row_slots: Vec<usize> = Vec::with_capacity(cb.selected_len());
        match cb.cols[0].as_ref() {
            Column::Str { dict, ids, gids } => {
                // Global ids come with the column (filled by the producer,
                // or resolved once per source chunk and shared by every
                // bucket cut from it); rows then merge with no string
                // hashing at all.
                let gids = dict_gids(dict, gids);
                for i in cb.selected() {
                    let id = ids[i] as usize;
                    let s = *slot_s.entry(gids[id]).or_insert_with(|| {
                        keys_s.push(Arc::clone(&dict[id]));
                        gids_s.push(gids[id]);
                        keys_s.len() - 1
                    });
                    row_slots.push(s);
                }
            }
            Column::Int64(col) => {
                for i in cb.selected() {
                    let s = *slot_i.entry(col[i]).or_insert_with(|| {
                        keys_i.push(col[i]);
                        keys_i.len() - 1
                    });
                    row_slots.push(s);
                }
            }
            _ => return None,
        }
        let n = keys_s.len().max(keys_i.len());
        match cb.cols[1].as_ref() {
            Column::Int64(vals) => {
                sums_i.resize(n, 0);
                for (pos, i) in cb.selected().enumerate() {
                    sums_i[row_slots[pos]] = sums_i[row_slots[pos]].wrapping_add(vals[i]);
                }
            }
            Column::Float64(vals) => {
                sums_f.resize(n, 0.0);
                seen_f.resize(n, false);
                for (pos, i) in cb.selected().enumerate() {
                    let sl = row_slots[pos];
                    if seen_f[sl] {
                        sums_f[sl] += vals[i];
                    } else {
                        seen_f[sl] = true;
                        sums_f[sl] = vals[i];
                    }
                }
            }
            _ => return None,
        }
    }
    let key_col = if str_keys {
        let n = keys_s.len();
        str_col(keys_s, (0..n as u32).collect(), Some(gids_s))
    } else {
        Column::Int64(keys_i)
    };
    let sum_col = if int_sums { Column::Int64(sums_i) } else { Column::Float64(sums_f) };
    let n = key_col.len();
    Some(Batch {
        cols: vec![Arc::new(key_col), Arc::new(sum_col)],
        shape: Shape::Tuple,
        len: n,
        sel: None,
    })
}

/// One-shot helper for engines: vectorize the chain, then aggregate the
/// terminal `ReduceBy` in one batched pass. `None` (→ row fallback) when the
/// key/agg pair is unrecognized, the chain doesn't vectorize at runtime, or
/// the reduced batch has the wrong shape.
pub fn run_reduce(
    vk: &VectorKernel,
    input: &[Value],
    key: &KeyUdf,
    agg: &ReduceUdf,
    keyed: bool,
) -> Option<Vec<Value>> {
    if !agg_vectorizable(key, agg) {
        return None;
    }
    let spec = agg.spec.as_ref()?;
    let b = vk.run_values(input)?;
    reduce_batch(&b, spec, keyed)
}

/// One engine partition: either materialized rows or a columnar batch that
/// survived the previous segment. `Part::Cols` materializes to exactly the
/// rows the row-mode engine would hold for the same partition, so every
/// operator may call [`Part::rows`] and proceed row-wise without changing
/// results — columnar-aware operators instead keep the batch.
#[derive(Clone, Debug)]
pub enum Part {
    /// Row partition (the row-mode representation).
    Rows(Dataset),
    /// Columnar partition (batch-mode stages keep columns across segments).
    Cols(Batch),
}

impl Part {
    /// Rows in the partition (surviving the selection, for batches).
    pub fn len(&self) -> usize {
        match self {
            Part::Rows(d) => d.len(),
            Part::Cols(b) => b.selected_len(),
        }
    }

    /// Whether the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the partition as rows (`Arc` clone for row partitions).
    pub fn rows(&self) -> Dataset {
        match self {
            Part::Rows(d) => Arc::clone(d),
            Part::Cols(b) => Arc::new(b.to_values()),
        }
    }

    /// The columnar batch, when this partition stayed columnar.
    pub fn as_batch(&self) -> Option<&Batch> {
        match self {
            Part::Rows(_) => None,
            Part::Cols(b) => Some(b),
        }
    }
}

/// Materialize every partition as rows (row-mode view of a stage).
pub fn rows_of(parts: &[Part]) -> Vec<Dataset> {
    parts.iter().map(Part::rows).collect()
}

/// Wrap row partitions back into engine parts.
pub fn into_row_parts(ds: Vec<Dataset>) -> Vec<Part> {
    ds.into_iter().map(Part::Rows).collect()
}

/// All partitions as batches, when every partition stayed columnar.
pub fn all_batches(parts: &[Part]) -> Option<Vec<&Batch>> {
    parts.iter().map(Part::as_batch).collect()
}

/// Approximate wire size of the surviving rows (the columnar analogue of
/// `dataset_bytes`: sampled average row size × row count).
pub fn batch_bytes(b: &Batch) -> f64 {
    let n = b.selected_len();
    if n == 0 {
        return 0.0;
    }
    let stride = (n / 64).max(1);
    let mut sum = 0.0;
    let mut cnt = 0usize;
    for pos in (0..n).step_by(stride) {
        sum += b.row_bytes(b.selected_at(pos)) as f64;
        cnt += 1;
    }
    (sum / cnt as f64) * n as f64
}

/// The key column a [`KeySpec`] projects out of a batch, when it is typed
/// enough to drive a columnar exchange: `Field(i)` over tuple batches,
/// `Identity` over scalar batches. Anything else (identity over tuples,
/// field keys on scalars — which key on `Null` row-side) falls back.
fn key_col<'a>(b: &'a Batch, key: &KeySpec) -> Option<&'a Column> {
    match (key, b.shape) {
        (KeySpec::Field(i), Shape::Tuple) if *i < b.cols.len() => Some(b.cols[*i].as_ref()),
        (KeySpec::Identity, Shape::Scalar) => Some(b.cols[0].as_ref()),
        _ => None,
    }
}

/// Hash-partition a batch into `n` per-bucket selection batches on the key
/// column `key` projects — no row round-trip; every bucket shares the same
/// column `Arc`s with its own selection vector. Routing reproduces the row
/// shuffle exactly ([`crate::kernels::bucket_of`]): each key value hashes
/// identically to what `KeyUdf::call` would have produced. Dictionary keys
/// hash once per distinct entry. `None` when the key column is untyped
/// (callers fall back to the row shuffle).
pub fn partition_batch(b: &Batch, key: &KeySpec, n: usize) -> Option<Vec<Batch>> {
    let n = n.max(1);
    let col = key_col(b, key)?;
    let mut sels: Vec<Vec<u32>> = vec![Vec::new(); n];
    match col {
        Column::Int64(xs) => {
            for i in b.selected() {
                sels[bucket_of_key(&Value::Int(xs[i]), n)].push(i as u32);
            }
        }
        Column::Float64(xs) => {
            for i in b.selected() {
                sels[bucket_of_key(&Value::Float(xs[i]), n)].push(i as u32);
            }
        }
        Column::Bool(xs) => {
            let buckets =
                [bucket_of_key(&Value::Bool(false), n), bucket_of_key(&Value::Bool(true), n)];
            for i in b.selected() {
                sels[buckets[xs[i] as usize]].push(i as u32);
            }
        }
        Column::Str { dict, ids, .. } => {
            // Hash once per distinct dictionary entry, then route by id.
            let buckets: Vec<usize> = dict.iter().map(|s| bucket_of_str(s, n)).collect();
            for i in b.selected() {
                sels[buckets[ids[i] as usize]].push(i as u32);
            }
        }
        Column::Row(_) => return None,
    }
    Some(
        sels.into_iter()
            .map(|sel| Batch { cols: b.cols.clone(), shape: b.shape, len: b.len, sel: Some(sel) })
            .collect(),
    )
}

/// Multiply-rotate hasher for tables keyed by global interner id. An id is
/// four bytes, so SipHash's per-key setup cost would dominate; a Fx-style
/// mix is plenty for keys that are process-internal, never
/// attacker-controlled.
#[derive(Default)]
struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
}

/// A map keyed by global interner id.
type IdMap<V> = HashMap<u32, V, std::hash::BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ReduceByState;
    use crate::plan::LogicalOp;
    use crate::udf::{BroadcastCtx, FlatMapUdf, MapUdf, PredicateUdf};

    fn rows(n: i64) -> Vec<Value> {
        (0..n).map(|i| Value::tuple(vec![Value::Int(i), Value::Int(i * i)])).collect()
    }

    fn sarg_lt(field: usize, lit: i64) -> LogicalOp {
        let sp = PredicateUdf::from_sarg(
            format!("f{field}<{lit}"),
            Sarg { field, op: CmpOp::Lt, literal: Value::from(lit) },
        );
        LogicalOp::SargFilter { pred: sp.pred, sarg: sp.sarg }
    }

    #[test]
    fn roundtrip_preserves_values() {
        let data = vec![Value::from(1), Value::from(2), Value::from(3)];
        assert_eq!(Batch::from_values(&data).to_values(), data);
        let strs = vec![Value::from("a"), Value::from("b"), Value::from("a")];
        assert_eq!(Batch::from_values(&strs).to_values(), strs);
        let tups = rows(5);
        assert_eq!(Batch::from_values(&tups).to_values(), tups);
        let mixed = vec![Value::from(1), Value::from("x"), Value::Null];
        assert_eq!(Batch::from_values(&mixed).to_values(), mixed);
        let empty: Vec<Value> = vec![];
        assert!(Batch::from_values(&empty).to_values().is_empty());
    }

    #[test]
    fn vector_filter_project_matches_row_path() {
        let ops = vec![sarg_lt(0, 6), LogicalOp::Project { fields: vec![1, 0] }];
        let p = FusedPipeline::from_ops(&ops).unwrap();
        assert!(p.vectorizable());
        let data = rows(10);
        let vk = VectorKernel::compile(&p).unwrap();
        let batched = vk.run_values(&data).unwrap().to_values();
        let row = p.run(&data, &BroadcastCtx::new());
        assert_eq!(batched, row);
    }

    #[test]
    fn vector_field_add_matches_row_path() {
        let ops = vec![sarg_lt(1, 50), LogicalOp::Map(MapUdf::field_add_int("bump", 1, 7))];
        let p = FusedPipeline::from_ops(&ops).unwrap();
        let data = rows(12);
        let vk = VectorKernel::compile(&p).unwrap();
        let batched = vk.run_values(&data).unwrap().to_values();
        assert_eq!(batched, p.run(&data, &BroadcastCtx::new()));
    }

    #[test]
    fn tokenize_pair_matches_row_path() {
        let ops = vec![
            LogicalOp::FlatMap(FlatMapUdf::split_whitespace("split")),
            LogicalOp::Map(MapUdf::pair_with_int("pair", 1)),
        ];
        let p = FusedPipeline::from_ops(&ops).unwrap();
        let lines: Vec<Value> = ["the quick fox", "the lazy dog", "the quick dog", ""]
            .iter()
            .map(|&s| Value::from(s))
            .collect();
        let vk = VectorKernel::compile(&p).unwrap();
        let batched = vk.run_values(&lines).unwrap().to_values();
        assert_eq!(batched, p.run(&lines, &BroadcastCtx::new()));
    }

    #[test]
    fn batched_wordcount_matches_reduce_by_state() {
        let ops = vec![
            LogicalOp::FlatMap(FlatMapUdf::split_whitespace("split")),
            LogicalOp::Map(MapUdf::pair_with_int("pair", 1)),
        ];
        let p = FusedPipeline::from_ops(&ops).unwrap();
        let lines: Vec<Value> =
            ["a b a c", "b a", "c c c a"].iter().map(|&s| Value::from(s)).collect();
        let key = KeyUdf::field(0);
        let agg = ReduceUdf::pair_int_sum("sum");
        let vk = VectorKernel::compile(&p).unwrap();

        let mut state = ReduceByState::new(&key, &agg);
        p.run_each(&lines, &BroadcastCtx::new(), |v| state.feed_owned(v));

        let batched = run_reduce(&vk, &lines, &key, &agg, false).unwrap();
        assert_eq!(batched, state.finish());
    }

    #[test]
    fn batched_keyed_reduce_matches_finish_keyed() {
        let ops = vec![
            LogicalOp::FlatMap(FlatMapUdf::split_whitespace("split")),
            LogicalOp::Map(MapUdf::pair_with_int("pair", 1)),
        ];
        let p = FusedPipeline::from_ops(&ops).unwrap();
        let lines: Vec<Value> = ["x y x", "z y"].iter().map(|&s| Value::from(s)).collect();
        let key = KeyUdf::field(0);
        let agg = ReduceUdf::pair_int_sum("sum");
        let vk = VectorKernel::compile(&p).unwrap();

        let mut state = ReduceByState::new(&key, &agg);
        p.run_each(&lines, &BroadcastCtx::new(), |v| state.feed_owned(v));

        let batched = run_reduce(&vk, &lines, &key, &agg, true).unwrap();
        assert_eq!(batched, state.finish_keyed());
    }

    #[test]
    fn int_keyed_reduce_matches_row_path() {
        // (i % 4, i) pairs: int-keyed batched aggregation.
        let data: Vec<Value> =
            (0..20).map(|i| Value::pair(Value::Int(i % 4), Value::Int(i))).collect();
        let p = FusedPipeline::new(vec![]);
        let vk = VectorKernel::compile(&p).unwrap();
        let key = KeyUdf::field(0);
        let agg = ReduceUdf::pair_int_sum("sum");
        let mut state = ReduceByState::new(&key, &agg);
        for v in &data {
            state.feed(v);
        }
        let batched = run_reduce(&vk, &data, &key, &agg, false).unwrap();
        assert_eq!(batched, state.finish());
    }

    #[test]
    fn opaque_closures_refuse_to_compile() {
        let ops = vec![LogicalOp::Map(MapUdf::new("opaque", |v| v.clone()))];
        let p = FusedPipeline::from_ops(&ops).unwrap();
        assert!(VectorKernel::compile(&p).is_none());
        assert!(!p.vectorizable());
    }

    #[test]
    fn runtime_type_mismatch_falls_back() {
        // Sarg over a string column with an int literal: compile succeeds,
        // execution refuses (row path would compare via canonical rank).
        let ops = vec![sarg_lt(0, 5)];
        let p = FusedPipeline::from_ops(&ops).unwrap();
        let vk = VectorKernel::compile(&p).unwrap();
        let data = vec![Value::tuple(vec![Value::from("a"), Value::from(1)])];
        assert!(vk.run_values(&data).is_none());
        // Scalar input into a tuple-field sarg: also a fallback.
        assert!(vk.run_values(&[Value::from(3)]).is_none());
    }

    #[test]
    fn unrecognized_agg_falls_back() {
        let p = FusedPipeline::new(vec![]);
        let vk = VectorKernel::compile(&p).unwrap();
        let key = KeyUdf::new("custom", |v| v.clone());
        let agg = ReduceUdf::pair_int_sum("sum");
        assert!(!agg_vectorizable(&key, &agg));
        assert!(run_reduce(&vk, &[], &key, &agg, false).is_none());
    }

    fn wordcount_chain() -> FusedPipeline {
        FusedPipeline::from_ops(&[
            LogicalOp::FlatMap(FlatMapUdf::split_whitespace("split")),
            LogicalOp::Map(MapUdf::pair_with_int("pair", 1)),
        ])
        .unwrap()
    }

    /// The column's global ids when they are already filled (never resolves).
    fn filled_gids(b: &Batch, col: usize) -> Option<&[u32]> {
        match b.cols[col].as_ref() {
            Column::Str { gids, .. } => gids.get().map(Vec::as_slice),
            _ => None,
        }
    }

    #[test]
    fn row_fed_tokenizer_matches_split_whitespace() {
        // Every whitespace class `char::is_whitespace` knows that a corpus
        // can hold: ASCII incl. U+000B (which `split_ascii_whitespace`
        // would keep inside a word), U+0085, U+00A0, U+2003 — plus
        // non-whitespace controls and multi-byte letters as word content.
        let pieces = [
            "taro",
            "ximi",
            "x",
            "\u{e9}t\u{e9}",
            "\u{1f600}",
            "\u{1c}",
            " ",
            "  ",
            "\t",
            "\n",
            "\u{b}",
            "\u{c}",
            "\r",
            "\u{85}",
            "\u{a0}",
            "\u{2003}",
        ];
        let p = FusedPipeline::from_ops(&[LogicalOp::FlatMap(FlatMapUdf::split_whitespace("s"))])
            .unwrap();
        let vk = VectorKernel::compile(&p).unwrap();
        let mut rng = crate::kernels::SplitMix64(0xB47C4);
        for round in 0..200 {
            let mut lines: Vec<Value> = (0..rng.range_usize(12) + 1)
                .map(|_| {
                    let line: String = (0..rng.range_usize(10))
                        .map(|_| pieces[rng.range_usize(pieces.len())])
                        .collect();
                    Value::from(line)
                })
                .collect();
            // Duplicate and empty lines.
            lines.push(lines[0].clone());
            lines.push(Value::from(""));
            let want: Vec<Value> = lines
                .iter()
                .flat_map(|l| l.as_str().unwrap().split_whitespace().map(Value::from))
                .collect();
            let got = vk.run_values(&lines).unwrap();
            assert_eq!(got.to_values(), want, "round {round}: {lines:?}");
            assert_eq!(got.to_values(), p.run(&lines, &BroadcastCtx::new()));
            // The column is born with its global ids, and they are the
            // interner's.
            let Column::Str { dict, .. } = got.cols[0].as_ref() else { panic!("str column") };
            let want_gids: Vec<u32> = dict.iter().map(|w| crate::intern::global_id(w)).collect();
            assert_eq!(filled_gids(&got, 0), Some(want_gids.as_slice()));
            // Same answer when the lines arrive as a dictionary column.
            let via_batch = vk.run_batch(Batch::from_values(&lines)).unwrap();
            assert_eq!(via_batch.to_values(), want);
        }
        // Rows that would not columnize as strings fall back to the row path.
        assert!(vk.run_values(&[Value::from("a b"), Value::from(1)]).is_none());
        assert!(vk.run_values(&[Value::Null]).is_none());
        assert!(vk.run_values(&[]).is_none());
    }

    #[test]
    fn global_ids_travel_from_tokenizer_to_merge() {
        let vk = VectorKernel::compile(&wordcount_chain()).unwrap();
        let agg = ReduceUdf::pair_int_sum("sum");
        let partitions = [vec!["a b a c", "d e"], vec!["c c b", "f a"], vec!["", "g a e e"]];
        let n = 4;
        let mut buckets: Vec<Vec<Batch>> = vec![Vec::new(); n];
        for lines in &partitions {
            let lines: Vec<Value> = lines.iter().map(|&l| Value::from(l)).collect();
            let tokens = vk.run_values(&lines).unwrap();
            assert!(filled_gids(&tokens, 0).is_some(), "tokenize fills gids");
            let combined = combine_batch(&tokens, &ReduceSpec::PairIntSum).unwrap();
            assert!(filled_gids(&combined, 0).is_some(), "combine projects gids");
            let cut = partition_batch(&combined, &KeySpec::Field(0), n).unwrap();
            for (j, b) in cut.into_iter().enumerate() {
                assert!(filled_gids(&b, 0).is_some(), "buckets share the filled column");
                buckets[j].push(b);
            }
        }
        for contribs in &buckets {
            let merged = merge_batches(contribs).unwrap();
            assert!(merged.is_empty() || filled_gids(&merged, 0).is_some());
            let keyed: Vec<Value> = contribs.iter().flat_map(keyed_values).collect();
            assert_eq!(merged.to_values(), crate::kernels::merge_by(&keyed, &agg));
        }
        // Columns built from plain rows still resolve lazily, to the same ids.
        let rows = vec![Value::pair(Value::from("a"), Value::from(1))];
        let plain = Batch::from_values(&rows);
        assert!(filled_gids(&plain, 0).is_none());
        let merged = merge_batches(&[plain]).unwrap();
        assert_eq!(filled_gids(&merged, 0), Some(&[crate::intern::global_id("a")][..]));
    }

    #[test]
    fn selection_walks_survivors_and_bytes_need_no_rows() {
        let data: Vec<Value> = (0..1000)
            .map(|i| Value::pair(Value::from(format!("k{}", i % 37)), Value::Int(i)))
            .collect();
        let b = Batch::from_values(&data);
        assert_eq!(b.selected().collect::<Vec<_>>(), (0..1000).collect::<Vec<_>>());
        for part in partition_batch(&b, &KeySpec::Field(0), 7).unwrap() {
            let sel: Vec<usize> = part.selection().unwrap().iter().map(|&i| i as usize).collect();
            assert_eq!(part.selected().collect::<Vec<_>>(), sel);
            // The sampled estimate is the one materialized rows would give.
            let rows = part.to_values();
            let stride = (rows.len() / 64).max(1);
            let sampled: Vec<f64> =
                rows.iter().step_by(stride).map(|r| r.approx_bytes() as f64).collect();
            let want = sampled.iter().sum::<f64>() / sampled.len() as f64 * rows.len() as f64;
            assert_eq!(batch_bytes(&part).to_bits(), want.to_bits());
        }
        let scalars = Batch::from_values(&[Value::from("ab"), Value::Null, Value::from(1)]);
        assert_eq!(batch_bytes(&scalars), (26 + 8 + 16) as f64);
    }

    #[test]
    fn selection_vector_survives_chained_filters() {
        let ops = vec![sarg_lt(0, 8), sarg_lt(1, 40)];
        let p = FusedPipeline::from_ops(&ops).unwrap();
        let data = rows(10);
        let vk = VectorKernel::compile(&p).unwrap();
        let b = vk.run_values(&data).unwrap();
        assert_eq!(b.to_values(), p.run(&data, &BroadcastCtx::new()));
        assert!(b.selected_len() < b.len());
        // A sample reads the leading survivors, not the leading rows.
        let ch = crate::channel::ChannelData::Batches(Arc::new(vec![b.clone()]));
        assert_eq!(ch.sample(2).unwrap(), b.to_values()[..2]);
    }
}
