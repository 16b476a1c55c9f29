//! Order statistics and the order-independent sink digest.

use std::hash::{Hash, Hasher};

use rheem_core::value::Value;

/// Nearest rank (1-based) of percentile `p` among `n` samples, in integer
/// arithmetic on tenths of a percent so that p90 of 100 is rank 90 exactly.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100, to a
/// tenth). Empty input has no percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    sorted.get(rank(sorted.len(), p) - 1).copied()
}

/// Median of unsorted samples (nearest rank).
pub fn p50(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A percentile is reportable only when at least ten samples lie beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    n >= rank(n, p) + 10
}

/// The highest of p90 / p95 / p99 / p99.9 that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0].into_iter().find(|&p| supported(n, p))
}

/// Multiply-rotate row hasher. Checking a 400 000-row sink is think time
/// between two jobs of the closed loop, so it must cost far less than the
/// job; SipHash does not. Rows come from the program, not from an
/// adversary, so collision resistance is not needed.
#[derive(Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // Spread the well-mixed high bits over the low ones.
        (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// Order-independent digest of a sink: row count plus the wrapping sum and
/// xor of per-row hashes, so any permutation of the same multiset of rows
/// digests equal and a dropped, duplicated or altered row does not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    rows: u64,
    sum: u64,
    xor: u64,
}

impl Digest {
    pub fn of(rows: &[Value]) -> Self {
        let mut d = Digest { rows: rows.len() as u64, sum: 0, xor: 0 };
        for row in rows {
            let mut h = Mix::default();
            row.hash(&mut h);
            let x = h.finish();
            d.sum = d.sum.wrapping_add(x);
            d.xor ^= x.rotate_left((x & 63) as u32);
        }
        d
    }
}

/// Whether two sinks hold the same rows in any order, floats compared with
/// a relative tolerance (summation order differs between platforms).
pub fn approx_same(a: &[Value], b: &[Value]) -> bool {
    fn close(x: &Value, y: &Value) -> bool {
        match (x, y) {
            (Value::Float(p), Value::Float(q)) => {
                (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
            }
            (Value::Tuple(p), Value::Tuple(q)) => {
                p.len() == q.len() && p.iter().zip(q.iter()).all(|(u, v)| close(u, v))
            }
            _ => x == y,
        }
    }
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort();
    b.sort();
    a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| close(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(p50(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!supported(199, 95.0));
        assert!(supported(200, 95.0));
        assert!(supported(3000, 95.0) && supported(3000, 99.0) && !supported(3000, 99.9));
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(3000), Some(99.0));
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let rows: Vec<Value> =
            (0..100).map(|i| Value::pair(Value::from(format!("w{i}")), Value::from(i))).collect();
        let mut shuffled = rows.clone();
        shuffled.reverse();
        shuffled.swap(3, 57);
        assert_eq!(Digest::of(&rows), Digest::of(&shuffled));

        let mut altered = rows.clone();
        altered[10] = Value::pair(Value::from("w10"), Value::from(11));
        assert_ne!(Digest::of(&rows), Digest::of(&altered));
        let mut dup = rows.clone();
        dup[1] = dup[0].clone();
        assert_ne!(Digest::of(&rows), Digest::of(&dup));
        assert_ne!(Digest::of(&rows), Digest::of(&rows[1..]));
    }

    #[test]
    fn approx_same_tolerates_float_reordering_only() {
        let a = vec![Value::pair(Value::from("x"), Value::from(0.1 + 0.2))];
        let b = vec![Value::pair(Value::from("x"), Value::from(0.3))];
        let c = vec![Value::pair(Value::from("x"), Value::from(0.31))];
        assert!(approx_same(&a, &b));
        assert!(!approx_same(&a, &c));
    }
}
