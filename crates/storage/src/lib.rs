//! Storage substrate for rheem-rs: the local filesystem plus an **HDFS
//! simulacrum**.
//!
//! The paper stores its datasets on HDFS and moves data between stores and
//! engines; the movement cost is a first-class concern of the optimizer.
//! Here, `hdfs://…` URIs resolve into a sandbox directory on the local
//! disk, and every open/read/write carries a *cost descriptor* (per-open
//! latency, bandwidth) that engines convert into virtual cluster time. Data
//! and results are always real — only the clock is modeled.

#![warn(missing_docs)]

use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use std::sync::RwLock;

/// Which store a path belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// The plain local filesystem.
    Local,
    /// The HDFS simulacrum (distributed file system of the testbed).
    Hdfs,
}

/// Per-store access-cost model (virtual milliseconds).
#[derive(Clone, Copy, Debug)]
pub struct StoreCosts {
    /// Fixed cost per file open (namenode round trip for HDFS).
    pub open_ms: f64,
    /// Sequential read bandwidth, MB/s (aggregate).
    pub read_mb_per_sec: f64,
    /// Sequential write bandwidth, MB/s (aggregate; HDFS replication makes
    /// writes slower than reads).
    pub write_mb_per_sec: f64,
}

impl StoreCosts {
    /// Virtual ms to read `bytes` including the open cost.
    pub fn read_ms(&self, bytes: u64) -> f64 {
        self.open_ms + bytes as f64 / (self.read_mb_per_sec * 1024.0 * 1024.0) * 1000.0
    }

    /// Virtual ms to write `bytes` including the open cost.
    pub fn write_ms(&self, bytes: u64) -> f64 {
        self.open_ms + bytes as f64 / (self.write_mb_per_sec * 1024.0 * 1024.0) * 1000.0
    }
}

/// Defaults mirroring the paper's testbed (SATA disks, 1 GbE, 10 nodes):
/// HDFS reads stream from many disks in parallel but pay a namenode round
/// trip; the local FS is a single SATA disk.
pub fn default_costs(kind: StoreKind) -> StoreCosts {
    match kind {
        StoreKind::Local => {
            StoreCosts { open_ms: 0.05, read_mb_per_sec: 120.0, write_mb_per_sec: 100.0 }
        }
        StoreKind::Hdfs => {
            StoreCosts { open_ms: 2.0, read_mb_per_sec: 800.0, write_mb_per_sec: 300.0 }
        }
    }
}

/// Access costs of the cache **spill tier**: cold results demoted from the
/// in-memory result cache onto local disk (see `rheem_core::cache::spill`).
/// Spill files are written/read whole through one spindle and pay a small
/// open cost plus serialization overhead, so the tier is priced below the
/// streaming local-FS rate — slow enough that the optimizer prefers memory
/// hits and recomputation of trivial subplans, cheap enough that replaying a
/// spilled heavyweight result still beats recomputing it.
pub fn spill_costs() -> StoreCosts {
    StoreCosts { open_ms: 0.2, read_mb_per_sec: 80.0, write_mb_per_sec: 60.0 }
}

static HDFS_ROOT: OnceLock<RwLock<PathBuf>> = OnceLock::new();

fn hdfs_root_lock() -> &'static RwLock<PathBuf> {
    HDFS_ROOT.get_or_init(|| RwLock::new(std::env::temp_dir().join("rheem_hdfs")))
}

/// Set the sandbox directory backing `hdfs://` URIs.
pub fn set_hdfs_root(path: impl Into<PathBuf>) {
    *hdfs_root_lock().write().unwrap() = path.into();
}

/// The sandbox directory backing `hdfs://` URIs.
pub fn hdfs_root() -> PathBuf {
    hdfs_root_lock().read().unwrap().clone()
}

/// A resolved file: where it really lives and which store it models.
#[derive(Clone, Debug)]
pub struct Resolved {
    /// Real path on the local machine.
    pub real: PathBuf,
    /// Which store the URI addressed.
    pub store: StoreKind,
}

/// Resolve a path or URI. `hdfs://x/y` maps into the HDFS sandbox;
/// everything else is local.
pub fn resolve(path: &Path) -> Resolved {
    let s = path.to_string_lossy();
    if let Some(rest) = s.strip_prefix("hdfs://") {
        // The URI authority (`namenode:8020` in `hdfs://namenode:8020/x/y`)
        // names the cluster, not a directory: strip it before joining so
        // every authority spelling resolves to the same sandbox file. Only
        // `host:port` (or the empty authority of `hdfs:///x/y`) is treated
        // as an authority — a bare first component stays a path segment,
        // preserving the sandbox-wide `hdfs://dir/file` shorthand.
        let (authority, file_path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        let joined = if authority.is_empty() || authority.contains(':') {
            hdfs_root().join(file_path)
        } else {
            hdfs_root().join(rest)
        };
        Resolved { real: joined, store: StoreKind::Hdfs }
    } else if let Some(rest) = s.strip_prefix("file://") {
        Resolved { real: PathBuf::from(rest), store: StoreKind::Local }
    } else {
        Resolved { real: path.to_path_buf(), store: StoreKind::Local }
    }
}

/// Size and store of a file (for cardinality estimation and cost models).
pub fn stat(path: &Path) -> io::Result<(u64, StoreKind)> {
    let r = resolve(path);
    Ok((fs::metadata(&r.real)?.len(), r.store))
}

/// Identity metadata of a file: length, modification time and store. The
/// (path, len, mtime) triple is the invalidation key for results derived
/// from the file (see `rheem_core::cache`): any rewrite bumps the mtime, so
/// stale cached derivations can never be served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// File length in bytes.
    pub len: u64,
    /// Modification time in nanoseconds since the Unix epoch (0 when the
    /// filesystem reports none).
    pub mtime_ns: u128,
    /// Which store the path addressed.
    pub store: StoreKind,
}

/// Length + mtime + store of a file (cache invalidation).
pub fn stat_meta(path: &Path) -> io::Result<FileMeta> {
    let r = resolve(path);
    let md = fs::metadata(&r.real)?;
    let mtime_ns = md
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    Ok(FileMeta { len: md.len(), mtime_ns, store: r.store })
}

/// Read a whole text file as lines.
pub fn read_lines(path: &Path) -> io::Result<Vec<String>> {
    let r = resolve(path);
    let f = fs::File::open(&r.real)?;
    BufReader::new(f).lines().collect()
}

/// Read the first `max_bytes` of a file (cardinality sampling probes).
/// Reads in a loop: a single `read` may legally return fewer bytes than
/// available (pipes, network filesystems, signal interruption), which would
/// destabilize sampling probes built on the head.
pub fn read_head(path: &Path, max_bytes: usize) -> io::Result<Vec<u8>> {
    let r = resolve(path);
    let f = fs::File::open(&r.real)?;
    let mut buf = Vec::with_capacity(max_bytes.min(1 << 20));
    f.take(max_bytes as u64).read_to_end(&mut buf)?;
    Ok(buf)
}

/// Write lines to a text file, creating parent directories.
pub fn write_lines<S: AsRef<str>>(
    path: &Path,
    lines: impl IntoIterator<Item = S>,
) -> io::Result<u64> {
    let r = resolve(path);
    if let Some(parent) = r.real.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut w = BufWriter::new(fs::File::create(&r.real)?);
    let mut bytes = 0u64;
    for line in lines {
        let line = line.as_ref();
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        bytes += line.len() as u64 + 1;
    }
    w.flush()?;
    Ok(bytes)
}

/// A text file read once: its content, validated as UTF-8 in one pass, and
/// the byte offset of every line. Lines are exactly what
/// [`BufRead::lines`] yields for the same bytes (`\n` or `\r\n`
/// terminated, a last line without terminator counts, a lone trailing
/// `\r` stays), but they are borrowed slices: callers build their own row
/// representation straight from them, one allocation per line.
pub struct TextFile {
    text: String,
    /// Where each line starts, then `text.len()`: line `i` is
    /// `text[starts[i]..starts[i + 1]]` minus its terminator. `usize`
    /// offsets, so files past 4 GiB index correctly.
    starts: Vec<usize>,
    store: StoreKind,
}

impl TextFile {
    fn new(text: String, store: StoreKind) -> Self {
        let mut starts = Vec::with_capacity(text.len() / 32 + 2);
        starts.push(0);
        starts.extend(text.match_indices('\n').map(|(at, _)| at + 1));
        if starts.last() != Some(&text.len()) {
            starts.push(text.len());
        }
        Self { text, starts, store }
    }

    /// Bytes read (the file's length).
    pub fn bytes(&self) -> u64 {
        self.text.len() as u64
    }

    /// Which store the path addressed.
    pub fn store(&self) -> StoreKind {
        self.store
    }

    /// Number of lines.
    pub fn line_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The lines `range` covers, in order, terminators stripped.
    pub fn lines(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &str> {
        self.starts[range.start..=range.end].windows(2).map(|w| {
            let line = &self.text[w[0]..w[1]];
            match line.strip_suffix('\n') {
                Some(l) => l.strip_suffix('\r').unwrap_or(l),
                None => line,
            }
        })
    }
}

/// Read exactly the `expected` bytes a file reported when it was opened. A
/// file that shrank since then is an error, not a short buffer: every
/// offset derived from the reported length would point past the content.
fn read_expected(r: impl Read, expected: u64) -> io::Result<Vec<u8>> {
    let len = usize::try_from(expected)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file exceeds address space"))?;
    let mut buf = Vec::with_capacity(len);
    r.take(expected).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("file shrank while being read: {} of {len} bytes", buf.len()),
        ));
    }
    Ok(buf)
}

/// Read a whole text file once — one open, one length query on the open
/// handle, one read, one UTF-8 validation, one newline scan.
pub fn read_text(path: &Path) -> io::Result<TextFile> {
    let r = resolve(path);
    let f = fs::File::open(&r.real)?;
    let len = f.metadata()?.len();
    let text = String::from_utf8(read_expected(f, len)?).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    Ok(TextFile::new(text, r.store))
}

/// The `n` contiguous index ranges [`partition_lines`] deals `total` lines
/// into (the first `total % n` ranges hold one more).
pub fn partition_ranges(total: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    let n = n.max(1);
    let (base, extra) = (total / n, total % n);
    let mut start = 0;
    (0..n)
        .map(|i| {
            let end = start + base + usize::from(i < extra);
            let r = start..end;
            start = end;
            r
        })
        .collect()
}

/// Deal a line vector into `n` contiguous chunks of near-equal size.
pub fn partition_lines(lines: Vec<String>, n: usize) -> Vec<Vec<String>> {
    let n = n.max(1);
    let total = lines.len();
    let base = total / n;
    let extra = total % n;
    let mut out = Vec::with_capacity(n);
    let mut iter = lines.into_iter();
    for i in 0..n {
        let take = base + usize::from(i < extra);
        out.push(iter.by_ref().take(take).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sandbox() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rheem_storage_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn local_roundtrip_and_stat() {
        let dir = sandbox();
        let p = dir.join("t.txt");
        let bytes = write_lines(&p, ["a", "bb", "ccc"]).unwrap();
        assert_eq!(bytes, 2 + 3 + 4);
        let lines = read_lines(&p).unwrap();
        assert_eq!(lines, vec!["a", "bb", "ccc"]);
        let (sz, kind) = stat(&p).unwrap();
        assert_eq!(sz, bytes);
        assert_eq!(kind, StoreKind::Local);
    }

    #[test]
    fn hdfs_uri_resolves_into_sandbox() {
        let dir = sandbox();
        set_hdfs_root(&dir);
        let uri = PathBuf::from("hdfs://deep/nested/data.txt");
        write_lines(&uri, ["x"]).unwrap();
        let r = resolve(&uri);
        assert_eq!(r.store, StoreKind::Hdfs);
        assert!(r.real.starts_with(&dir));
        assert_eq!(read_lines(&uri).unwrap(), vec!["x"]);
        let (_, kind) = stat(&uri).unwrap();
        assert_eq!(kind, StoreKind::Hdfs);
    }

    #[test]
    fn hdfs_authority_is_not_a_directory() {
        let dir = sandbox();
        set_hdfs_root(&dir);
        // All authority spellings of the same HDFS path hit the same file
        // (`hdfs:///a/b.txt` is the empty-authority spelling).
        let plain = resolve(Path::new("hdfs:///a/b.txt"));
        let with_auth = resolve(Path::new("hdfs://namenode:8020/a/b.txt"));
        assert_eq!(with_auth.real, plain.real);
        assert!(!with_auth.real.to_string_lossy().contains("namenode:8020"));
        assert_eq!(with_auth.store, StoreKind::Hdfs);
        // Round-trip through one spelling, read through the other.
        write_lines(Path::new("hdfs://namenode:8020/a/b.txt"), ["auth"]).unwrap();
        assert_eq!(read_lines(Path::new("hdfs:///a/b.txt")).unwrap(), vec!["auth"]);
        // Degenerate: no path after the authority resolves to the root.
        assert_eq!(resolve(Path::new("hdfs://host:9000")).real, dir);
        // A bare first component without a port stays a path segment
        // (sandbox shorthand used across the repo, e.g. `hdfs://bench/x`).
        assert_eq!(resolve(Path::new("hdfs://bench/x.txt")).real, dir.join("bench/x.txt"));
    }

    #[test]
    fn stat_meta_tracks_mtime() {
        let dir = sandbox();
        let p = dir.join("meta.txt");
        write_lines(&p, ["v1"]).unwrap();
        let m1 = stat_meta(&p).unwrap();
        assert_eq!(m1.len, 3);
        assert_eq!(m1.store, StoreKind::Local);
        assert!(m1.mtime_ns > 0);
        // Rewrite with same length after a pause: len equal, mtime bumped.
        std::thread::sleep(std::time::Duration::from_millis(20));
        write_lines(&p, ["v2"]).unwrap();
        let m2 = stat_meta(&p).unwrap();
        assert_eq!(m2.len, m1.len);
        assert!(m2.mtime_ns > m1.mtime_ns);
    }

    #[test]
    fn read_head_fills_up_to_limit() {
        let dir = sandbox();
        let p = dir.join("head_full.txt");
        write_lines(&p, vec!["abcdefghij"; 10]).unwrap(); // 110 bytes
        assert_eq!(read_head(&p, 64).unwrap().len(), 64);
        // Asking beyond EOF returns the whole file, not a short buffer.
        assert_eq!(read_head(&p, 4096).unwrap().len(), 110);
    }

    #[test]
    fn file_uri_strips_scheme() {
        let r = resolve(Path::new("file:///tmp/x"));
        assert_eq!(r.store, StoreKind::Local);
        assert_eq!(r.real, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn head_probe_truncates() {
        let dir = sandbox();
        let p = dir.join("head.txt");
        write_lines(&p, vec!["0123456789"; 100]).unwrap();
        let head = read_head(&p, 64).unwrap();
        assert_eq!(head.len(), 64);
    }

    #[test]
    fn partitioning_balances_lines() {
        let lines: Vec<String> = (0..10).map(|i| i.to_string()).collect();
        let parts = partition_lines(lines, 3);
        assert_eq!(parts.len(), 3);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // order preserved
        assert_eq!(parts[0][0], "0");
        // degenerate cases
        assert_eq!(partition_lines(vec![], 4).len(), 4);
        assert_eq!(partition_lines(vec!["a".into()], 0).len(), 1);
    }

    #[test]
    fn partition_ranges_match_partition_lines() {
        for total in [0usize, 1, 2, 7, 10, 64] {
            for n in [0usize, 1, 3, 4, 9] {
                let lines: Vec<String> = (0..total).map(|i| i.to_string()).collect();
                let want: Vec<Vec<String>> = partition_lines(lines.clone(), n);
                let got: Vec<Vec<String>> =
                    partition_ranges(total, n).into_iter().map(|r| lines[r].to_vec()).collect();
                assert_eq!(got, want, "total={total} n={n}");
            }
        }
    }

    #[test]
    fn read_text_matches_bufread_lines() {
        let dir = sandbox();
        let cases: [&[u8]; 10] = [
            b"",
            b"\n",
            b"a",
            b"a\n",
            b"a\nb",
            b"a\r\nb\r\n",
            b"a\r",
            b"\n\n x \n\n",
            b"\r\n\r\r\n",
            "h\u{e9}llo w\u{f6}rld\n\u{2003}\n".as_bytes(),
        ];
        for (i, bytes) in cases.iter().enumerate() {
            let p = dir.join(format!("parity_{i}.txt"));
            fs::write(&p, bytes).unwrap();
            let want: Vec<String> = bytes.lines().collect::<io::Result<_>>().unwrap();
            let text = read_text(&p).unwrap();
            assert_eq!(text.bytes(), bytes.len() as u64);
            assert_eq!(text.store(), StoreKind::Local);
            assert_eq!(text.line_count(), want.len(), "case {i}");
            let got: Vec<&str> = text.lines(0..text.line_count()).collect();
            assert_eq!(got, want, "case {i}");
            // Any sub-range yields the same lines `partition_lines` deals,
            // including more partitions than lines.
            for n in [1, 2, 5] {
                let parts = partition_lines(want.clone(), n);
                for (r, part) in partition_ranges(want.len(), n).into_iter().zip(&parts) {
                    assert_eq!(&text.lines(r).collect::<Vec<_>>(), part, "case {i} n={n}");
                }
            }
        }
    }

    #[test]
    fn read_text_rejects_invalid_utf8_and_short_reads() {
        let dir = sandbox();
        let p = dir.join("bad_utf8.txt");
        fs::write(&p, b"ok\n\xff\xfe\n").unwrap();
        let err = read_text(&p).err().expect("invalid UTF-8 must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(read_lines(&p).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // A file that reported 10 bytes but delivers 3 shrank under the
        // reader: a typed error, never a slice past the content.
        let err = read_expected(&b"abc"[..], 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(read_expected(&b"abcdef"[..], 4).unwrap(), b"abcd");
        assert!(read_text(&dir.join("missing.txt")).is_err());
    }

    #[test]
    fn store_costs_scale() {
        let hdfs = default_costs(StoreKind::Hdfs);
        let local = default_costs(StoreKind::Local);
        assert!(hdfs.open_ms > local.open_ms);
        assert!(hdfs.read_ms(100 << 20) < local.read_ms(100 << 20)); // parallel disks win at volume
        assert!(hdfs.write_ms(1 << 20) > hdfs.read_ms(1 << 20) - hdfs.open_ms); // replication
    }
}
