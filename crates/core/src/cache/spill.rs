//! Disk spill tier of the cross-job result cache.
//!
//! The memory budget of [`super::ResultCache`] bounds *resident* bytes;
//! entries evicted under memory pressure are demoted here — serialized to a
//! per-cache spill directory on the local filesystem — instead of dropped,
//! so the reuse horizon is bounded by the (much larger) disk budget. A
//! lookup that lands on a spilled entry is a probe: it touches no file and
//! reports [`super::Tier::Disk`] so [`super::CachedSource`] prices the
//! replay at the slower [`rheem_storage::spill_costs`] rate. Only an entry
//! the chosen plan replays is [`read`] back — outside the cache lock — and
//! promoted to memory ([`super::ResultCache::fetch_in`]).
//!
//! The codec is a small self-contained binary format (no serde — the crate
//! has no serialization dependency): a tag byte per value variant with
//! length-prefixed payloads. Columnar payloads additionally record their
//! per-batch row boundaries so a read reconstructs the batches via
//! [`Batch::from_values`] and the replay stays columnar through the disk
//! tier. Duplicate strings are re-interned on read, so a promoted dataset
//! regains the shared allocations its accounted byte size was computed
//! from. Every length prefix is bounded by the bytes left in the file, so
//! a corrupt file is an [`io::ErrorKind::InvalidData`] error, never a huge
//! allocation.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::batch::Batch;
use crate::value::Value;

use super::CachedPayload;

/// Distinguishes spill directories of caches created in one process.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

const MAGIC: &[u8; 4] = b"RSP1";

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_TUPLE: u8 = 6;

const KIND_ROWS: u8 = 0;
const KIND_BATCHES: u8 = 1;

/// Handle of one spilled payload; the file path derives from the id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillSlot(u64);

/// File-backed store for demoted cache entries. One per [`super::ResultCache`];
/// owns a unique temp directory that is removed on drop.
pub struct SpillStore {
    dir: PathBuf,
    seq: u64,
    created: bool,
}

impl SpillStore {
    /// A store with a fresh process-unique spill directory (created lazily
    /// on first write).
    pub fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "rheem-spill-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Self { dir, seq: 0, created: false }
    }

    /// The file a slot's payload is spilled to.
    pub fn path_of(&self, slot: SpillSlot) -> PathBuf {
        self.dir.join(format!("{:016x}.spill", slot.0))
    }

    /// Serialize a payload to a new spill file.
    pub fn write(&mut self, payload: &CachedPayload) -> io::Result<SpillSlot> {
        if !self.created {
            fs::create_dir_all(&self.dir)?;
            self.created = true;
        }
        let slot = SpillSlot(self.seq);
        self.seq += 1;
        let mut w = BufWriter::new(fs::File::create(self.path_of(slot))?);
        w.write_all(MAGIC)?;
        match payload {
            CachedPayload::Rows(rows) => {
                w.write_all(&[KIND_ROWS])?;
                write_u64(&mut w, rows.len() as u64)?;
                for v in rows.iter() {
                    write_value(&mut w, v)?;
                }
            }
            CachedPayload::Batches(batches) => {
                w.write_all(&[KIND_BATCHES])?;
                write_u64(&mut w, batches.len() as u64)?;
                for b in batches.iter() {
                    write_u64(&mut w, b.selected_len() as u64)?;
                }
                for b in batches.iter() {
                    for v in b.to_values() {
                        write_value(&mut w, &v)?;
                    }
                }
            }
        }
        w.flush()?;
        Ok(slot)
    }

    /// Delete a spill file (entry evicted or promoted back to memory).
    pub fn remove(&self, slot: SpillSlot) {
        let _ = fs::remove_file(self.path_of(slot));
    }

    /// Delete every spill file (cache cleared).
    pub fn clear(&mut self) {
        if self.created {
            let _ = fs::remove_dir_all(&self.dir);
            self.created = false;
        }
    }
}

impl Default for SpillStore {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Read a spilled payload back from its file ([`SpillStore::path_of`]).
/// Strings are re-interned (duplicates share one allocation) and columnar
/// payloads are rebuilt batch by batch, preserving their layout through the
/// disk round trip.
pub fn read(path: &Path) -> io::Result<CachedPayload> {
    let file = fs::read(path)?;
    let mut r = file.as_slice();
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("bad spill magic".into()));
    }
    let kind = read_u8(&mut r)?;
    let mut interner: HashMap<&str, Arc<str>> = HashMap::new();
    match kind {
        KIND_ROWS => {
            let n = read_u64(&mut r)?;
            let mut rows = Vec::with_capacity(fits(r, n, 1)?);
            for _ in 0..n {
                rows.push(read_value(&mut r, &mut interner)?);
            }
            Ok(CachedPayload::Rows(Arc::new(rows)))
        }
        KIND_BATCHES => {
            let nb = read_u64(&mut r)?;
            let nb = fits(r, nb, 8)?;
            let mut lens = Vec::with_capacity(nb);
            for _ in 0..nb {
                lens.push(read_u64(&mut r)?);
            }
            let mut batches = Vec::with_capacity(nb);
            let mut buf = Vec::new();
            for len in lens {
                buf.clear();
                buf.reserve(fits(r, len, 1)?);
                for _ in 0..len {
                    buf.push(read_value(&mut r, &mut interner)?);
                }
                batches.push(Batch::from_values(&buf));
            }
            Ok(CachedPayload::Batches(Arc::new(batches)))
        }
        other => Err(invalid(format!("bad spill kind {other}"))),
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `n` items of at least `unit` bytes each, when they fit in what is left
/// of the file; a corrupt length prefix is `InvalidData`, not an allocation.
fn fits(left: &[u8], n: u64, unit: u64) -> io::Result<usize> {
    let fit = n.checked_mul(unit).is_some_and(|need| need <= left.len() as u64);
    fit.then_some(n as usize).ok_or_else(|| invalid(format!("spill length {n} overruns the file")))
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_value(w: &mut impl Write, v: &Value) -> io::Result<()> {
    match v {
        Value::Null => w.write_all(&[TAG_NULL]),
        Value::Bool(false) => w.write_all(&[TAG_BOOL_FALSE]),
        Value::Bool(true) => w.write_all(&[TAG_BOOL_TRUE]),
        Value::Int(i) => {
            w.write_all(&[TAG_INT])?;
            w.write_all(&i.to_le_bytes())
        }
        Value::Float(f) => {
            w.write_all(&[TAG_FLOAT])?;
            w.write_all(&f.to_bits().to_le_bytes())
        }
        Value::Str(s) => {
            w.write_all(&[TAG_STR])?;
            write_u32(w, s.len() as u32)?;
            w.write_all(s.as_bytes())
        }
        Value::Tuple(t) => {
            w.write_all(&[TAG_TUPLE])?;
            write_u32(w, t.len() as u32)?;
            for x in t.iter() {
                write_value(w, x)?;
            }
            Ok(())
        }
    }
}

fn read_value<'a>(
    r: &mut &'a [u8],
    interner: &mut HashMap<&'a str, Arc<str>>,
) -> io::Result<Value> {
    match read_u8(r)? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL_FALSE => Ok(Value::Bool(false)),
        TAG_BOOL_TRUE => Ok(Value::Bool(true)),
        TAG_INT => {
            let mut b = [0u8; 8];
            r.read_exact(&mut b)?;
            Ok(Value::Int(i64::from_le_bytes(b)))
        }
        TAG_FLOAT => {
            let mut b = [0u8; 8];
            r.read_exact(&mut b)?;
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(b))))
        }
        TAG_STR => {
            let len = read_u32(r)?;
            let left: &'a [u8] = r;
            let (bytes, rest) = left.split_at(fits(left, len.into(), 1)?);
            *r = rest;
            let s = std::str::from_utf8(bytes).map_err(|e| invalid(e.to_string()))?;
            Ok(Value::Str(Arc::clone(interner.entry(s).or_insert_with(|| Arc::from(s)))))
        }
        TAG_TUPLE => {
            let n = read_u32(r)?;
            let mut parts = Vec::with_capacity(fits(r, n.into(), 1)?);
            for _ in 0..n {
                parts.push(read_value(r, interner)?);
            }
            Ok(Value::Tuple(parts.into()))
        }
        other => Err(invalid(format!("bad value tag {other}"))),
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    pub(crate) fn word_rows() -> Arc<Vec<Value>> {
        let hello: Arc<str> = Arc::from("hello");
        Arc::new(
            (0..10)
                .map(|i| Value::pair(Value::Str(Arc::clone(&hello)), Value::from(i)))
                .chain([Value::Null, Value::Bool(true), Value::from(1.5), Value::from(f64::NAN)])
                .collect(),
        )
    }

    #[test]
    fn rows_roundtrip_and_reintern() {
        let mut store = SpillStore::new();
        let rows = word_rows();
        let slot = store.write(&CachedPayload::Rows(Arc::clone(&rows))).unwrap();
        let back = read(&store.path_of(slot)).unwrap();
        let CachedPayload::Rows(out) = back else { panic!("rows expected") };
        assert_eq!(*out, *rows);
        // Duplicate strings share one allocation after the round trip.
        let (Value::Tuple(a), Value::Tuple(b)) = (&out[0], &out[1]) else { panic!() };
        let (Value::Str(x), Value::Str(y)) = (&a[0], &b[0]) else { panic!() };
        assert!(Arc::ptr_eq(x, y), "strings re-interned on read");
    }

    #[test]
    fn batches_roundtrip_preserving_boundaries() {
        let mut store = SpillStore::new();
        let b1 = Batch::from_values(&[Value::from(1), Value::from(2)]);
        let b2 = Batch::from_values(&[Value::from(3)]);
        let payload = CachedPayload::Batches(Arc::new(vec![b1, b2]));
        let slot = store.write(&payload).unwrap();
        let CachedPayload::Batches(out) = read(&store.path_of(slot)).unwrap() else {
            panic!("batches expected")
        };
        assert_eq!(out.len(), 2, "per-batch boundaries preserved");
        assert_eq!(out[0].to_values(), vec![Value::from(1), Value::from(2)]);
        assert_eq!(out[1].to_values(), vec![Value::from(3)]);
    }

    #[test]
    fn remove_then_read_fails_and_drop_cleans_dir() {
        let mut store = SpillStore::new();
        let slot = store.write(&CachedPayload::Rows(word_rows())).unwrap();
        let dir = store.dir.clone();
        assert!(dir.exists());
        store.remove(slot);
        assert!(read(&store.path_of(slot)).is_err());
        drop(store);
        assert!(!dir.exists(), "spill dir removed on drop");
    }

    /// Byte offsets of the row count, the first tuple's arity and its first
    /// string's length in a [`word_rows`] spill file.
    pub(crate) const LENGTH_PREFIXES: [(usize, usize); 3] = [(5, 8), (14, 4), (19, 4)];

    #[test]
    fn corrupt_length_prefixes_are_errors_not_allocations() {
        let mut store = SpillStore::new();
        let slot = store.write(&CachedPayload::Rows(word_rows())).unwrap();
        let path = store.path_of(slot);
        let good = fs::read(&path).unwrap();
        assert_eq!((good[13], good[18]), (TAG_TUPLE, TAG_STR), "prefix offsets moved");
        for (at, len) in LENGTH_PREFIXES {
            let mut bad = good.clone();
            bad[at..at + len].fill(0xFF);
            fs::write(&path, &bad).unwrap();
            let err = read(&path).err().expect("a corrupt length must not decode");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "prefix at {at}");
        }
        // A batch count that overruns the file is rejected the same way.
        let batches = CachedPayload::Batches(Arc::new(vec![Batch::from_values(&word_rows())]));
        let slot = store.write(&batches).unwrap();
        let path = store.path_of(slot);
        let mut bad = fs::read(&path).unwrap();
        bad[5..13].fill(0xFF);
        fs::write(&path, &bad).unwrap();
        assert_eq!(read(&path).err().map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
    }
}
