//! The Rheem data model: *data quanta*.
//!
//! A [`Value`] is the smallest processing unit flowing through a Rheem plan
//! (§3 of the paper). It can express database tuples, graph edges, text
//! lines, or whole documents, at any granularity the application chooses.
//! Composite values use `Arc` payloads so cloning a quantum is cheap.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single data quantum.
#[derive(Clone, Debug)]
pub enum Value {
    /// Absent value (SQL NULL).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. Equality/hashing use the bit pattern (total order).
    Float(f64),
    /// Interned string; cheap to clone.
    Str(Arc<str>),
    /// Fixed-arity composite (tuple / record / pair); cheap to clone.
    Tuple(Arc<[Value]>),
}

impl Value {
    /// Build a string quantum.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Build a tuple quantum from parts.
    pub fn tuple(parts: impl Into<Vec<Value>>) -> Value {
        Value::Tuple(parts.into().into())
    }

    /// Build a pair quantum (2-tuple), the shape used by key/value operators.
    pub fn pair(a: Value, b: Value) -> Value {
        // Arc straight from the array: one allocation, no intermediate Vec.
        Value::Tuple(Arc::from([a, b]))
    }

    /// Integer payload, if this quantum is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64` (ints convert losslessly enough
    /// for cost arithmetic; non-numerics yield `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String payload, if this quantum is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean payload, if this quantum is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Tuple fields, if this quantum is a `Tuple`.
    pub fn fields(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// `i`-th tuple field; `Null` when out of range or not a tuple.
    pub fn field(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Tuple(t) => t.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Approximate in-memory footprint in bytes, used by the cost model to
    /// derive disk/network transfer volumes from cardinalities.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Value::Null => 8,
            Value::Bool(_) => 8,
            Value::Int(_) => 16,
            Value::Float(_) => 16,
            Value::Str(s) => 24 + s.len(),
            Value::Tuple(t) => 24 + t.iter().map(Value::approx_bytes).sum::<usize>(),
        }
    }

    /// Footprint in bytes counting each shared allocation **once**: repeated
    /// occurrences of the same interned `Arc<str>` / `Arc<[Value]>` payload
    /// cost only their pointer. `seen` carries the allocation identities
    /// already accounted, so callers can dedup across a whole dataset (or
    /// across datasets sharing one interner). This is the accounting the
    /// result cache uses — [`Value::approx_bytes`] sizes every occurrence at
    /// full payload, which overstates dictionary-interned datasets.
    pub fn unique_bytes(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        match self {
            Value::Str(s) => {
                if seen.insert(Arc::as_ptr(s) as *const u8 as usize) {
                    24 + s.len()
                } else {
                    8
                }
            }
            Value::Tuple(t) => {
                if seen.insert(Arc::as_ptr(t) as *const u8 as usize) {
                    24 + t.iter().map(|v| v.unique_bytes(seen)).sum::<usize>()
                } else {
                    8
                }
            }
            other => other.approx_bytes(),
        }
    }

    /// Variant discriminant used for canonical cross-type ordering.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => STR_RANK,
            Value::Tuple(_) => 5,
        }
    }
}

/// [`Value::Str`]'s discriminant in hashing and cross-type ordering;
/// [`crate::kernels::bucket_of_str`] feeds it to the hasher so a bare `&str`
/// routes exactly like the `Value::Str` holding it.
pub(crate) const STR_RANK: u8 = 4;

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Tuple(a), Value::Tuple(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.rank());
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Tuple(t) => {
                for v in t.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Canonical total order: variants rank first, then payloads. Mixed
    /// `Int`/`Float` compare numerically so sorted numeric datasets behave.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Tuple(a), Value::Tuple(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.cmp(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Tuple(t) => {
                write!(f, "(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s))
    }
}

/// A dataset handle: an immutable, shareable batch of data quanta. This is
/// the payload of in-memory channels; `Arc` keeps cross-stage handoffs and
/// channel conversions zero-copy whenever the layout already matches.
pub type Dataset = Arc<Vec<Value>>;

/// Estimate the average quantum footprint of a dataset by sampling up to 64
/// elements (used to derive transfer byte volumes).
pub fn avg_quantum_bytes(data: &[Value]) -> f64 {
    if data.is_empty() {
        return 16.0;
    }
    let step = (data.len() / 64).max(1);
    let mut total = 0usize;
    let mut n = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        total += data[i].approx_bytes();
        n += 1;
        i += step;
    }
    total as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::from(3).as_int(), Some(3));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from(7).as_f64(), Some(7.0));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn pair_and_field_access() {
        let p = Value::pair(Value::from("k"), Value::from(1));
        assert_eq!(p.field(0).as_str(), Some("k"));
        assert_eq!(p.field(1).as_int(), Some(1));
        assert_eq!(*p.field(2), Value::Null);
        assert_eq!(*Value::from(1).field(0), Value::Null);
    }

    #[test]
    fn float_values_usable_as_hash_keys() {
        let mut m: HashMap<Value, i32> = HashMap::new();
        m.insert(Value::from(1.5), 1);
        m.insert(Value::from(f64::NAN), 2);
        assert_eq!(m.get(&Value::from(1.5)), Some(&1));
        assert_eq!(m.get(&Value::from(f64::NAN)), Some(&2));
    }

    #[test]
    fn ordering_is_total_and_numeric_across_int_float() {
        let mut v =
            [Value::from(2.0), Value::from(1), Value::from("a"), Value::Null, Value::from(3)];
        v.sort();
        assert_eq!(v[0], Value::Null);
        assert_eq!(v[1].as_int(), Some(1));
        assert_eq!(v[2].as_f64(), Some(2.0));
        assert_eq!(v[3].as_int(), Some(3));
        assert_eq!(v[4].as_str(), Some("a"));
    }

    #[test]
    fn tuple_ordering_is_lexicographic() {
        let a = Value::tuple(vec![Value::from(1), Value::from(2)]);
        let b = Value::tuple(vec![Value::from(1), Value::from(3)]);
        let c = Value::tuple(vec![Value::from(1)]);
        assert!(a < b);
        assert!(c < a);
    }

    #[test]
    fn display_is_human_readable() {
        let t = Value::tuple(vec![Value::from("x"), Value::from(1), Value::Null]);
        assert_eq!(t.to_string(), "(x, 1, null)");
    }

    #[test]
    fn approx_bytes_scales_with_content() {
        let small = Value::from(1).approx_bytes();
        let big = Value::str("a longer string payload here").approx_bytes();
        assert!(big > small);
        let avg = avg_quantum_bytes(&[Value::from(1), Value::from(2)]);
        assert!(avg > 0.0);
        assert!(avg_quantum_bytes(&[]) > 0.0);
    }
}
