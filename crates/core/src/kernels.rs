//! Shared dataflow kernels: the pure data-transformation cores that platform
//! simulacra compose. JavaStreams applies them to whole collections;
//! Spark/Flink apply them per partition and add shuffles; Postgres wraps the
//! relational subset. Keeping them here means every engine computes
//! *identical results* and differs only in execution strategy and cost.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::error::{Result, RheemError};
use crate::plan::{IneqCond, LogicalOp, SampleMethod, SampleSize};
use crate::udf::{BroadcastCtx, FlatMapUdf, KeyUdf, MapUdf, PredicateUdf, ReduceUdf};
use crate::value::Value;

/// Apply a map UDF.
pub fn map(data: &[Value], udf: &MapUdf, bc: &BroadcastCtx) -> Vec<Value> {
    data.iter().map(|v| udf.call(v, bc)).collect()
}

/// Apply a flat-map UDF.
pub fn flat_map(data: &[Value], udf: &FlatMapUdf, bc: &BroadcastCtx) -> Vec<Value> {
    let mut out = Vec::with_capacity(data.len());
    for v in data {
        out.extend(udf.call(v, bc));
    }
    out
}

/// Relational projection: keep the listed tuple fields, in order.
pub fn project(data: &[Value], fields: &[usize]) -> Vec<Value> {
    data.iter()
        .map(|v| {
            Value::Tuple(fields.iter().map(|&i| v.field(i).clone()).collect::<Vec<_>>().into())
        })
        .collect()
}

/// Apply a filter predicate.
pub fn filter(data: &[Value], pred: &PredicateUdf, bc: &BroadcastCtx) -> Vec<Value> {
    data.iter().filter(|v| pred.call(v, bc)).cloned().collect()
}

/// Sort ascending by extracted key (stable).
pub fn sort_by(data: &[Value], key: &KeyUdf) -> Vec<Value> {
    let mut keyed: Vec<(Value, Value)> = data.iter().map(|v| (key.call(v), v.clone())).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, v)| v).collect()
}

/// Remove duplicates, preserving first occurrence order.
pub fn distinct(data: &[Value]) -> Vec<Value> {
    // Dedup over borrowed values: only quanta that survive are cloned, once.
    let mut seen: std::collections::HashSet<&Value> =
        std::collections::HashSet::with_capacity(data.len());
    let mut out = Vec::new();
    for v in data {
        if seen.insert(v) {
            out.push(v.clone());
        }
    }
    out
}

/// Group by key into `(key, Tuple(members…))` pairs. Group order follows
/// first key occurrence; member order follows input order.
pub fn group_by(data: &[Value], key: &KeyUdf) -> Vec<Value> {
    let mut order: Vec<Value> = Vec::new();
    let mut groups: HashMap<Value, Vec<Value>> = HashMap::new();
    for v in data {
        let k = key.call(v);
        // get_mut-then-insert avoids cloning the key on every group hit.
        match groups.get_mut(&k) {
            Some(members) => members.push(v.clone()),
            None => {
                order.push(k.clone());
                groups.insert(k, vec![v.clone()]);
            }
        }
    }
    order
        .into_iter()
        .map(|k| {
            let members = groups.remove(&k).unwrap_or_default();
            Value::pair(k, Value::tuple(members))
        })
        .collect()
}

/// Per-key fold with an associative combiner; emits one quantum per key in
/// first-occurrence order.
pub fn reduce_by(data: &[Value], key: &KeyUdf, agg: &ReduceUdf) -> Vec<Value> {
    let mut state = ReduceByState::new(key, agg);
    for v in data {
        state.feed(v);
    }
    state.finish()
}

/// Streaming accumulator behind [`reduce_by`]: feed quanta one at a time,
/// then [`finish`](ReduceByState::finish) to emit one quantum per key in
/// first-occurrence order (identical to [`reduce_by`] by construction).
///
/// Engines use it for *fused terminal aggregation*: survivors of a
/// [`crate::fused::FusedPipeline`] stream straight into the hash table via
/// [`feed_owned`](ReduceByState::feed_owned), so the pair dataset between
/// the narrow chain and the aggregation is never materialized.
pub struct ReduceByState<'a> {
    key: &'a KeyUdf,
    agg: &'a ReduceUdf,
    order: Vec<Value>,
    acc: HashMap<Value, Value>,
}

impl<'a> ReduceByState<'a> {
    /// Start an empty accumulation under `key`/`agg`.
    pub fn new(key: &'a KeyUdf, agg: &'a ReduceUdf) -> Self {
        Self { key, agg, order: Vec::new(), acc: HashMap::new() }
    }

    /// Fold one borrowed quantum into its key's accumulator.
    #[inline]
    pub fn feed(&mut self, v: &Value) {
        let k = self.key.call(v);
        match self.acc.get_mut(&k) {
            Some(cur) => *cur = self.agg.call(cur, v),
            None => {
                self.order.push(k.clone());
                self.acc.insert(k, v.clone());
            }
        }
    }

    /// Fold one owned quantum — a first-seen key keeps the value without
    /// cloning it (the fused-pipeline sink always owns its survivors).
    #[inline]
    pub fn feed_owned(&mut self, v: Value) {
        let k = self.key.call(&v);
        match self.acc.get_mut(&k) {
            Some(cur) => *cur = self.agg.call(cur, &v),
            None => {
                self.order.push(k.clone());
                self.acc.insert(k, v);
            }
        }
    }

    /// Emit one quantum per key, in first-occurrence order.
    pub fn finish(mut self) -> Vec<Value> {
        self.order.into_iter().map(|k| self.acc.remove(&k).expect("accumulated")).collect()
    }

    /// Emit one `(key, accumulator)` pair per key, in first-occurrence
    /// order. Distributed two-phase aggregation must carry the group key
    /// alongside each map-side partial: the merged accumulator is an
    /// arbitrary UDF value, so re-extracting keys from it (instead of from
    /// the original rows) silently merges unrelated groups whenever the
    /// aggregator does not preserve the key in its output.
    pub fn finish_keyed(mut self) -> Vec<Value> {
        self.order
            .into_iter()
            .map(|k| {
                let acc = self.acc.remove(&k).expect("accumulated");
                Value::pair(k, acc)
            })
            .collect()
    }
}

/// Map-side combine for distributed `ReduceBy`: per-partition partials as
/// `(key, accumulator)` pairs, first-occurrence key order.
pub fn combine_by(data: &[Value], key: &KeyUdf, agg: &ReduceUdf) -> Vec<Value> {
    let mut state = ReduceByState::new(key, agg);
    for v in data {
        state.feed(v);
    }
    state.finish_keyed()
}

/// Reduce-side merge for distributed `ReduceBy`: fold `(key, accumulator)`
/// partials from [`combine_by`]/[`ReduceByState::finish_keyed`] by their
/// *carried* key and emit the bare accumulators, first-occurrence order —
/// identical to a single-pass [`reduce_by`] over the original rows.
pub fn merge_by(pairs: &[Value], agg: &ReduceUdf) -> Vec<Value> {
    let mut order: Vec<Value> = Vec::new();
    let mut acc: HashMap<Value, Value> = HashMap::new();
    for p in pairs {
        let k = p.field(0);
        match acc.get_mut(k) {
            Some(cur) => *cur = agg.call(cur, p.field(1)),
            None => {
                order.push(k.clone());
                acc.insert(k.clone(), p.field(1).clone());
            }
        }
    }
    order.into_iter().map(|k| acc.remove(&k).expect("merged")).collect()
}

/// Fold the whole input into at most one quantum.
pub fn reduce(data: &[Value], agg: &ReduceUdf) -> Vec<Value> {
    let mut iter = data.iter();
    let Some(first) = iter.next() else {
        return Vec::new();
    };
    let mut acc = first.clone();
    for v in iter {
        acc = agg.call(&acc, v);
    }
    vec![acc]
}

/// Test builds log every table built (`TABLES_BUILT`, below the tests'
/// cut); other builds do nothing here.
#[cfg(not(test))]
fn table_built(_: &KeyUdf) {}

/// The entry of a row whose key is not in a [`JoinKeys`] table.
pub const NO_ENTRY: u32 = u32::MAX;

/// The one table of a hash join: distinct keys, numbered densely in
/// first-occurrence order. Keys stay borrowed from the rows that carry them;
/// the std SipHash guards user-supplied keys.
pub type JoinKeys<'a> = HashMap<Cow<'a, Value>, u32>;

/// Number the distinct keys of `rows` (callers pass a join's smaller side);
/// also returns each row's entry.
pub fn join_keys<'a>(
    rows: impl Iterator<Item = &'a Value>,
    key: &KeyUdf,
) -> (JoinKeys<'a>, Vec<u32>) {
    table_built(key);
    let mut keys = JoinKeys::with_capacity(rows.size_hint().0);
    let entries = rows
        .map(|v| {
            let next = u32::try_from(keys.len()).expect("fewer than 2^32 join keys");
            *keys.entry(key.extract(v)).or_insert(next)
        })
        .collect();
    (keys, entries)
}

/// The entry of each of `rows` in `keys`, or [`NO_ENTRY`].
pub fn join_entries(keys: &JoinKeys<'_>, rows: &[Value], key: &KeyUdf) -> Vec<u32> {
    rows.iter().map(|v| keys.get(&*key.extract(v)).copied().unwrap_or(NO_ENTRY)).collect()
}

/// Group row index `j` under `entries[j]`: per entry of a table of `keys`,
/// its rows in input order (a [`NO_ENTRY`] row is in no group).
pub fn join_matches(entries: &[u32], keys: usize) -> Vec<Vec<u32>> {
    let mut matches = vec![Vec::new(); keys];
    for (j, &e) in entries.iter().enumerate() {
        if let Some(rows) = matches.get_mut(e as usize) {
            rows.push(u32::try_from(j).expect("fewer than 2^32 rows to a join side"));
        }
    }
    matches
}

/// Hash equi-join; emits `(left, right)` pairs, left-major order, the right
/// matches of a left row in right input order. Each row's key is extracted
/// and hashed once: the smaller side's distinct keys make the table, both
/// sides map to its entries, and the output is sized before it is written.
pub fn hash_join(
    left: &[Value],
    right: &[Value],
    left_key: &KeyUdf,
    right_key: &KeyUdf,
) -> Vec<Value> {
    let (keys, le, re);
    if right.len() <= left.len() {
        (keys, re) = join_keys(right.iter(), right_key);
        le = join_entries(&keys, left, left_key);
    } else {
        (keys, le) = join_keys(left.iter(), left_key);
        re = join_entries(&keys, right, right_key);
    }
    let matches = join_matches(&re, keys.len());
    let of = |e: u32| matches.get(e as usize).map_or(&[][..], Vec::as_slice);
    let mut out = Vec::with_capacity(le.iter().map(|&e| of(e).len()).sum());
    for (l, &e) in left.iter().zip(&le) {
        out.extend(of(e).iter().map(|&j| Value::pair(l.clone(), right[j as usize].clone())));
    }
    out
}

/// Cartesian product; emits `(left, right)` pairs, left-major order.
pub fn cartesian(left: &[Value], right: &[Value]) -> Vec<Value> {
    let mut out = Vec::with_capacity(left.len() * right.len());
    for l in left {
        for r in right {
            out.push(Value::pair(l.clone(), r.clone()));
        }
    }
    out
}

/// Nested-loop inequality join (the naive strategy; BigDansing plugs the
/// sort-based IEJoin \[42\] as a faster custom operator).
pub fn ineq_join_nested(left: &[Value], right: &[Value], conds: &[IneqCond]) -> Vec<Value> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if conds.iter().all(|c| c.eval(l, r)) {
                out.push(Value::pair(l.clone(), r.clone()));
            }
        }
    }
    out
}

/// Draw a sample. `seed` must vary per loop iteration for iterative
/// algorithms (SGD) to see fresh batches.
pub fn sample(data: &[Value], method: SampleMethod, size: SampleSize, seed: u64) -> Vec<Value> {
    let n = size.resolve(data.len());
    if n >= data.len() {
        return data.to_vec();
    }
    match method {
        SampleMethod::First => data[..n].to_vec(),
        SampleMethod::Random => {
            // Partial Fisher–Yates over an index vector.
            let mut rng = SplitMix64(seed);
            let mut idx: Vec<usize> = (0..data.len()).collect();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let j = i + (rng.next_u64() as usize) % (idx.len() - i);
                idx.swap(i, j);
                out.push(data[idx[i]].clone());
            }
            out
        }
        SampleMethod::Bernoulli => {
            let p = n as f64 / data.len() as f64;
            let mut rng = SplitMix64(seed);
            let out: Vec<Value> = data
                .iter()
                .filter(|_| (rng.next_u64() as f64 / u64::MAX as f64) < p)
                .cloned()
                .collect();
            out
        }
    }
}

/// Tiny deterministic RNG for samplers (fast, dependency-free).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform `usize` in `[0, n)` (`n` must be non-zero).
    pub fn range_usize(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Stable bucket index of one quantum under a key extractor (the shuffle's
/// routing function); a recognized key is hashed where it sits, not cloned.
#[inline]
pub fn bucket_of(v: &Value, key: &KeyUdf, n: usize) -> usize {
    bucket_of_key(&key.extract(v), n)
}

/// Bucket for an already-extracted key value. Columnar exchanges route
/// selection vectors through this so batched and row shuffles agree on the
/// destination partition for every row.
pub fn bucket_of_key(k: &Value, n: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    k.hash(&mut h);
    (h.finish() as usize) % n.max(1)
}

/// [`bucket_of_key`] of `Value::Str(s)` without building the `Value`: the
/// hasher sees the same discriminant byte and string bytes, so dictionary
/// entries route bit-identically to the rows that carry them.
pub fn bucket_of_str(s: &str, n: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write_u8(crate::value::STR_RANK);
    s.hash(&mut h);
    (h.finish() as usize) % n.max(1)
}

/// Hash-partition a dataset by key, appending directly into the caller's
/// per-bucket buffers (the zero-copy shuffle kernel: engines route many
/// input partitions into one shared set of pre-sized buckets without
/// building Vec-of-Vec partials that get re-appended).
pub fn hash_partition_into(data: &[Value], key: &KeyUdf, parts: &mut [Vec<Value>]) {
    let n = parts.len().max(1);
    for v in data {
        parts[bucket_of(v, key, n)].push(v.clone());
    }
}

/// Hash-partition a dataset by key into `n` buckets (the shuffle kernel).
pub fn hash_partition(data: &[Value], key: &KeyUdf, n: usize) -> Vec<Vec<Value>> {
    let n = n.max(1);
    let mut parts: Vec<Vec<Value>> =
        (0..n).map(|_| Vec::with_capacity(data.len() / n + 1)).collect();
    hash_partition_into(data, key, &mut parts);
    parts
}

/// Damped power-iteration PageRank over `(src, dst)` edges: every engine's
/// result (the distributed simulacra charge their exchanges on top, the
/// graph platforms are tested against it). Vertices come out in
/// first-occurrence order.
pub fn page_rank_edges(
    edges: impl IntoIterator<Item = (i64, i64)>,
    iterations: u32,
    damping: f64,
) -> Vec<(i64, f64)> {
    use std::collections::HashSet;
    let mut out_deg: HashMap<i64, f64> = HashMap::new();
    let mut incoming: HashMap<i64, Vec<i64>> = HashMap::new();
    let mut vertices: Vec<i64> = Vec::new();
    let mut seen = HashSet::new();
    for (s, d) in edges {
        *out_deg.entry(s).or_default() += 1.0;
        incoming.entry(d).or_default().push(s);
        for v in [s, d] {
            if seen.insert(v) {
                vertices.push(v);
            }
        }
    }
    let n = vertices.len().max(1) as f64;
    let mut rank: HashMap<i64, f64> = vertices.iter().map(|&v| (v, 1.0 / n)).collect();
    for _ in 0..iterations {
        let mut next = HashMap::with_capacity(rank.len());
        for &v in &vertices {
            let sum: f64 = incoming
                .get(&v)
                .map(|srcs| srcs.iter().map(|s| rank[s] / out_deg[s]).sum())
                .unwrap_or(0.0);
            next.insert(v, (1.0 - damping) / n + damping * sum);
        }
        rank = next;
    }
    vertices.iter().map(|&v| (v, rank[&v])).collect()
}

/// [`page_rank_edges`] over `(src, dst)` integer pair quanta, as
/// `(vertex, rank)` pairs.
pub fn page_rank(edges: &[Value], iterations: u32, damping: f64) -> Vec<Value> {
    let edges =
        edges.iter().map(|e| (e.field(0).as_int().unwrap_or(0), e.field(1).as_int().unwrap_or(0)));
    page_rank_edges(edges, iterations, damping)
        .into_iter()
        .map(|(v, r)| Value::pair(Value::from(v), Value::from(r)))
        .collect()
}

/// The single-partition interpreter: one logical operator over whole inputs
/// (slot 1 feeds the binary operators; a missing slot reads as empty). A
/// sample draws from its own seed, else the job's `seed`, varied per loop
/// `iteration`. What java.streams runs for every standalone operator and
/// postgres for every post-scan one.
pub fn apply(
    op: &LogicalOp,
    inputs: &[&[Value]],
    bc: &BroadcastCtx,
    seed: u64,
    iteration: u64,
) -> Result<Vec<Value>> {
    let a = inputs.first().copied().unwrap_or(&[]);
    let b = inputs.get(1).copied().unwrap_or(&[]);
    Ok(match op {
        LogicalOp::Map(udf) => map(a, udf, bc),
        LogicalOp::FlatMap(udf) => flat_map(a, udf, bc),
        LogicalOp::Filter(pred) | LogicalOp::SargFilter { pred, .. } => filter(a, pred, bc),
        LogicalOp::Project { fields } => project(a, fields),
        LogicalOp::Sample { method, size, seed: s } => {
            sample(a, *method, *size, s.unwrap_or(seed) ^ iteration.wrapping_mul(0x9E37_79B9))
        }
        LogicalOp::SortBy(key) => sort_by(a, key),
        LogicalOp::Distinct => distinct(a),
        LogicalOp::Count => vec![Value::from(a.len())],
        LogicalOp::GroupBy(key) => group_by(a, key),
        LogicalOp::Reduce(agg) => reduce(a, agg),
        LogicalOp::ReduceBy { key, agg } => reduce_by(a, key, agg),
        LogicalOp::Union => [a, b].concat(),
        LogicalOp::Join { left_key, right_key } => hash_join(a, b, left_key, right_key),
        LogicalOp::Cartesian => cartesian(a, b),
        LogicalOp::InequalityJoin { conds } => ineq_join_nested(a, b, conds),
        LogicalOp::PageRank { iterations, damping } => page_rank(a, *iterations, *damping),
        other => {
            return Err(RheemError::Unsupported(format!(
                "no single-partition kernel runs {:?}",
                other.kind()
            )))
        }
    })
}

/// Test hook: the key extractor (by address) of every [`JoinKeys`] table
/// built in this process, in build order. A test finds its own joins by the
/// extractors it owns, whatever other tests build meanwhile.
#[cfg(test)]
pub(crate) static TABLES_BUILT: std::sync::Mutex<Vec<usize>> = std::sync::Mutex::new(Vec::new());

#[cfg(test)]
fn table_built(key: &KeyUdf) {
    TABLES_BUILT.lock().unwrap().push(key as *const KeyUdf as usize);
}

/// The hash join as it was before the one-table kernel: an owned-key table
/// of row references per call, a pointer index and a sort when the left side
/// is the smaller. The reference [`hash_join`] and the partitioned engines'
/// routed join are tested against.
#[cfg(test)]
pub(crate) fn hash_join_reference(
    left: &[Value],
    right: &[Value],
    left_key: &KeyUdf,
    right_key: &KeyUdf,
) -> Vec<Value> {
    // Build on the smaller side.
    if right.len() <= left.len() {
        let mut table: HashMap<Value, Vec<&Value>> = HashMap::with_capacity(right.len());
        for r in right {
            table.entry(right_key.call(r)).or_default().push(r);
        }
        let mut out = Vec::new();
        for l in left {
            if let Some(matches) = table.get(&left_key.call(l)) {
                for r in matches {
                    out.push(Value::pair(l.clone(), (*r).clone()));
                }
            }
        }
        out
    } else {
        let mut table: HashMap<Value, Vec<&Value>> = HashMap::with_capacity(left.len());
        for l in left {
            table.entry(left_key.call(l)).or_default().push(l);
        }
        let mut out: Vec<(usize, Value)> = Vec::new();
        let index: HashMap<*const Value, usize> =
            left.iter().enumerate().map(|(i, v)| (v as *const Value, i)).collect();
        for r in right {
            if let Some(matches) = table.get(&right_key.call(r)) {
                for l in matches {
                    out.push((index[&(*l as *const Value)], Value::pair((*l).clone(), r.clone())));
                }
            }
        }
        out.sort_by_key(|(i, _)| *i);
        out.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::CmpOp;

    fn ints(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&i| Value::from(i)).collect()
    }

    #[test]
    fn map_filter_flatmap() {
        let bc = BroadcastCtx::new();
        let data = ints(&[1, 2, 3]);
        let doubled = map(&data, &MapUdf::new("x2", |v| Value::from(v.as_int().unwrap() * 2)), &bc);
        assert_eq!(doubled, ints(&[2, 4, 6]));
        let odd = filter(&data, &PredicateUdf::new("odd", |v| v.as_int().unwrap() % 2 == 1), &bc);
        assert_eq!(odd, ints(&[1, 3]));
        let dup = flat_map(&data, &FlatMapUdf::new("dup", |v| vec![v.clone(), v.clone()]), &bc);
        assert_eq!(dup.len(), 6);
    }

    #[test]
    fn sort_distinct_count_shapes() {
        let data = ints(&[3, 1, 2, 1, 3]);
        assert_eq!(sort_by(&data, &KeyUdf::identity()), ints(&[1, 1, 2, 3, 3]));
        assert_eq!(distinct(&data), ints(&[3, 1, 2]));
    }

    #[test]
    fn group_and_reduce_by() {
        let data = vec![
            Value::pair(Value::from("a"), Value::from(1)),
            Value::pair(Value::from("b"), Value::from(10)),
            Value::pair(Value::from("a"), Value::from(2)),
        ];
        let grouped = group_by(&data, &KeyUdf::field(0));
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].field(0).as_str(), Some("a"));
        assert_eq!(grouped[0].field(1).fields().unwrap().len(), 2);

        let summed = reduce_by(
            &data,
            &KeyUdf::field(0),
            &ReduceUdf::new("sum", |a, b| {
                Value::pair(
                    a.field(0).clone(),
                    Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
                )
            }),
        );
        assert_eq!(summed.len(), 2);
        assert_eq!(summed[0].field(1).as_int(), Some(3));
    }

    /// Two-phase reduce must equal single-pass reduce even when the
    /// aggregator's output does not preserve the group key (regression:
    /// the merge phase used to re-extract keys from partial accumulators,
    /// collapsing unrelated groups).
    #[test]
    fn two_phase_reduce_carries_group_keys() {
        let data: Vec<Value> =
            (0..12).map(|i| Value::pair(Value::from(i % 3), Value::from(i))).collect();
        let key = KeyUdf::field(0);
        // Key-destroying aggregator: merged value is a bare sum, not a pair.
        let n = |v: &Value| v.as_int().unwrap_or_else(|| v.field(1).as_int().unwrap_or(0));
        let agg = ReduceUdf::new("lossy-sum", move |a, b| Value::from(n(a) + n(b)));
        let single = reduce_by(&data, &key, &agg);
        assert_eq!(single.len(), 3, "three groups in the reference");

        // Simulate two partitions: combine each, concat partials, merge.
        let (left, right) = data.split_at(7);
        let mut partials = combine_by(left, &key, &agg);
        partials.extend(combine_by(right, &key, &agg));
        let merged = merge_by(&partials, &agg);
        assert_eq!(merged, single, "carried keys must keep groups apart");
    }

    #[test]
    fn reduce_handles_empty_and_single() {
        assert!(reduce(&[], &ReduceUdf::sum()).is_empty());
        assert_eq!(reduce(&ints(&[7]), &ReduceUdf::sum()), ints(&[7]));
        assert_eq!(reduce(&ints(&[1, 2, 3]), &ReduceUdf::sum()), ints(&[6]));
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let left: Vec<Value> =
            (0..20).map(|i| Value::pair(Value::from(i % 5), Value::from(i))).collect();
        let right: Vec<Value> =
            (0..10).map(|i| Value::pair(Value::from(i % 5), Value::from(100 + i))).collect();
        let k = KeyUdf::field(0);
        let mut j1 = hash_join(&left, &right, &k, &k);
        let mut j2: Vec<Value> = Vec::new();
        for l in &left {
            for r in &right {
                if l.field(0) == r.field(0) {
                    j2.push(Value::pair(l.clone(), r.clone()));
                }
            }
        }
        assert_eq!(j1.len(), j2.len());
        j1.sort();
        j2.sort();
        assert_eq!(j1, j2);
    }

    /// Rows for the join property test: tuples keyed (with heavy duplication)
    /// by ints, floats, strings, bools, `Null` and nested tuples, tuples too
    /// short to have the key field, and rows that are not tuples at all.
    fn join_rows(rng: &mut SplitMix64, n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| {
                let k = rng.range_usize(6) as i64;
                let key = match rng.range_usize(8) {
                    0 => Value::from(k),
                    1 => Value::from(k as f64),
                    2 => Value::from(format!("k{k}")),
                    3 => Value::from(k % 2 == 0),
                    4 => Value::Null,
                    5 => Value::pair(Value::from(k), Value::from("x")),
                    6 => return Value::tuple(vec![]),
                    _ => return Value::from(k),
                };
                Value::pair(key, Value::from(i))
            })
            .collect()
    }

    #[test]
    fn hash_join_matches_the_reference_join() {
        let mut rng = SplitMix64(0x10_1e5);
        // An opaque closure key: no spec, so its keys are owned.
        let parity = KeyUdf::new("parity", |v| Value::from(v.field(1).as_int().unwrap_or(-1) % 2));
        let keys = [
            (KeyUdf::field(0), KeyUdf::field(0)),
            (KeyUdf::identity(), KeyUdf::identity()),
            (KeyUdf::field(0), KeyUdf::identity()),
            (parity.clone(), KeyUdf::field(0)),
            (parity.clone(), parity),
        ];
        // Either side empty, left smaller than right, right smaller than left.
        for (nl, nr) in [(0, 0), (0, 9), (9, 0), (1, 1), (7, 40), (40, 7), (60, 60), (300, 25)] {
            for _ in 0..6 {
                let (left, right) = (join_rows(&mut rng, nl), join_rows(&mut rng, nr));
                for (lk, rk) in &keys {
                    let got = hash_join(&left, &right, lk, rk);
                    let want = hash_join_reference(&left, &right, lk, rk);
                    assert_eq!(got, want, "{nl}x{nr} on {lk:?}/{rk:?}");
                }
            }
        }
        // Key types that never match (`1`, `"1"`, `true`) pair nothing.
        let left = vec![Value::pair(Value::from(1), Value::Null)];
        let right = vec![
            Value::pair(Value::from("1"), Value::Null),
            Value::pair(Value::from(true), Value::Null),
        ];
        let k = KeyUdf::field(0);
        assert!(hash_join(&left, &right, &k, &k).is_empty());
        assert!(hash_join(&right, &left, &k, &k).is_empty());
    }

    #[test]
    fn join_builds_on_smaller_side_consistently() {
        let big: Vec<Value> =
            (0..50).map(|i| Value::pair(Value::from(i % 3), Value::from(i))).collect();
        let small: Vec<Value> =
            (0..5).map(|i| Value::pair(Value::from(i % 3), Value::from(i))).collect();
        let k = KeyUdf::field(0);
        let mut a = hash_join(&big, &small, &k, &k);
        let mut b = hash_join(&small, &big, &KeyUdf::field(0), &KeyUdf::field(0));
        // same pairs modulo (l, r) orientation
        a.sort();
        let mut b_flipped: Vec<Value> =
            b.drain(..).map(|p| Value::pair(p.field(1).clone(), p.field(0).clone())).collect();
        b_flipped.sort();
        assert_eq!(a, b_flipped);
    }

    #[test]
    fn cartesian_and_ineq_join() {
        let l = ints(&[1, 5]);
        let r = ints(&[2, 4]);
        assert_eq!(cartesian(&l, &r).len(), 4);
        let lt = ineq_join_nested(
            &l.iter().map(|v| Value::tuple(vec![v.clone()])).collect::<Vec<_>>(),
            &r.iter().map(|v| Value::tuple(vec![v.clone()])).collect::<Vec<_>>(),
            &[IneqCond { left_field: 0, op: CmpOp::Lt, right_field: 0 }],
        );
        // 1<2, 1<4 only
        assert_eq!(lt.len(), 2);
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let data = ints(&(0..100).collect::<Vec<_>>());
        let a = sample(&data, SampleMethod::Random, SampleSize::Count(10), 42);
        let b = sample(&data, SampleMethod::Random, SampleSize::Count(10), 42);
        let c = sample(&data, SampleMethod::Random, SampleSize::Count(10), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 10);
        assert_eq!(sample(&data, SampleMethod::First, SampleSize::Count(3), 0), ints(&[0, 1, 2]));
        // Full-size sample returns everything.
        assert_eq!(sample(&data, SampleMethod::Random, SampleSize::Count(1000), 1).len(), 100);
    }

    #[test]
    fn bernoulli_sample_is_approximate() {
        let data = ints(&(0..10_000).collect::<Vec<_>>());
        let s = sample(&data, SampleMethod::Bernoulli, SampleSize::Fraction(0.1), 7);
        assert!(s.len() > 700 && s.len() < 1300, "{}", s.len());
    }

    #[test]
    fn bucket_of_str_routes_like_the_value_holding_it() {
        let mut rng = SplitMix64(0x5EED);
        let alphabet: Vec<char> =
            "ab z\t\u{b}\u{85}\u{a0}\u{2003}\u{e9}\u{1f600}".chars().collect();
        let mut strings = vec![String::new(), " ".into(), "taro".into()];
        for _ in 0..500 {
            let len = rng.range_usize(12);
            strings.push((0..len).map(|_| alphabet[rng.range_usize(alphabet.len())]).collect());
        }
        for s in &strings {
            for n in [0usize, 1, 2, 7, 55, 80, 4096] {
                assert_eq!(
                    bucket_of_str(s, n),
                    bucket_of_key(&Value::from(s.as_str()), n),
                    "{s:?}"
                );
            }
        }
    }

    #[test]
    fn hash_partition_covers_all() {
        let data: Vec<Value> =
            (0..100).map(|i| Value::pair(Value::from(i % 10), Value::from(i))).collect();
        let parts = hash_partition(&data, &KeyUdf::field(0), 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 100);
        // same key lands in the same partition
        for p in &parts {
            for v in p {
                let k = v.field(0).as_int().unwrap();
                let home = parts
                    .iter()
                    .position(|q| q.iter().any(|w| w.field(0).as_int() == Some(k)))
                    .unwrap();
                let here = parts.iter().position(|q| std::ptr::eq(q, p)).unwrap();
                assert_eq!(home, here, "key {k} split across partitions");
            }
        }
    }

    #[test]
    fn pagerank_sums_to_one() {
        let edges: Vec<Value> = [(0, 1), (1, 2), (2, 0), (0, 2)]
            .iter()
            .map(|&(s, d)| Value::pair(Value::from(s as i64), Value::from(d as i64)))
            .collect();
        let ranks = page_rank(&edges, 20, 0.85);
        let total: f64 = ranks.iter().map(|r| r.field(1).as_f64().unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-6, "{total}");
        // vertex 2 has two in-links, should outrank vertex 1
        let rank_of = |v: i64| {
            ranks
                .iter()
                .find(|r| r.field(0).as_int() == Some(v))
                .unwrap()
                .field(1)
                .as_f64()
                .unwrap()
        };
        assert!(rank_of(2) > rank_of(1));
    }
}
