//! What the partitioned engine simulacra (spark, flink) share: the indexed
//! task runner on the shared pool, the row and columnar hash exchanges, the
//! reduce-side exchange of two-phase aggregation and the partitioned text
//! source. The engines differ in overheads, chaining and iteration support
//! (their profiles and `execute` bodies), not in how rows find their
//! partition — so that is written once, here.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::batch::{self, Batch, Part};
use crate::error::{Result, RheemError};
use crate::exec::{dataset_bytes, ExecCtx, Fallback};
use crate::kernels;
use crate::platform::PlatformProfile;
use crate::udf::{KeySpec, KeyUdf, ReduceUdf};
use crate::value::{Dataset, Value};

/// Decide how many partitions a dataset of `n` quanta gets (HDFS-block-like
/// splitting, capped by the configured parallelism).
pub fn partition_count(n: usize, max_partitions: u32) -> usize {
    ((n / 8_192) + 1).min(max_partitions.max(1) as usize)
}

/// How many worker threads a stage gets: the profile's core count, capped by
/// the shared worker pool's size (so measured per-partition times stay
/// honest).
pub fn pool_size(profile: &PlatformProfile) -> usize {
    (profile.cores as usize).clamp(1, crate::pool::size())
}

/// What one worker hands back: its `(index, output, ms)` triples, or the
/// error that stopped it.
type WorkerRun<U> = Result<Vec<(usize, U, f64)>>;

/// The task-wave runner: run `f(i)` for every index on the process-wide
/// shared pool ([`crate::pool`]) — no per-call thread spawns — where workers
/// pull indices off a shared queue. Returns the outputs in index order, no
/// matter which worker produced what, and the measured per-index times (ms).
/// Generic over the slot type so columnar stages can map [`Part`]
/// partitions without a row round-trip.
pub fn par_each_idx<U, F>(n: usize, workers: usize, f: F) -> Result<(Vec<U>, Vec<f64>)>
where
    U: Send,
    F: Fn(usize) -> Result<U> + Send + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    let next = &AtomicUsize::new(0);
    let f = &f;
    let runs: Mutex<Vec<WorkerRun<U>>> = Mutex::new(Vec::with_capacity(workers));
    crate::pool::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut failed = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let start = Instant::now();
                    match f(i) {
                        Ok(out) => {
                            let ms = start.elapsed().as_secs_f64() * 1000.0;
                            mine.push((i, out, ms));
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                let run = match failed {
                    Some(e) => Err(e),
                    None => Ok(mine),
                };
                runs.lock().expect("a worker panicked while reporting").push(run);
            });
        }
    });
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let mut times = vec![0.0; n];
    for run in runs.into_inner().expect("a worker panicked while reporting") {
        for (i, d, ms) in run? {
            out[i] = Some(d);
            times[i] = ms;
        }
    }
    // Every slot is written exactly once: the queue hands out each index to
    // one worker, and an error short-circuits above.
    Ok((out.into_iter().map(|o| o.expect("slot filled")).collect(), times))
}

/// [`par_each_idx`] over row partitions: `f(i, rows of partition i)`.
pub fn par_each<F>(parts: &[Dataset], workers: usize, f: F) -> Result<(Vec<Dataset>, Vec<f64>)>
where
    F: Fn(usize, &[Value]) -> Result<Vec<Value>> + Send + Sync,
{
    par_each_idx(parts.len(), workers, |i| f(i, &parts[i]).map(Arc::new))
}

/// Hash-exchange: redistribute partitions by key into `n` output partitions
/// (the shuffle). Every record is routed straight into a shared, pre-sized
/// destination bucket — no per-partition partials re-appended. Returns the
/// exchanged partitions and the bytes moved across the (virtual) network.
pub fn exchange(parts: &[Dataset], key: &KeyUdf, n: usize) -> (Vec<Dataset>, f64) {
    let n = n.max(1);
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut buckets: Vec<Vec<Value>> = (0..n).map(|_| Vec::with_capacity(total / n + 1)).collect();
    for p in parts {
        kernels::hash_partition_into(p, key, &mut buckets);
    }
    let bytes: f64 = buckets.iter().map(|b| dataset_bytes(b)).sum();
    // Roughly (1 - 1/nodes) of shuffled bytes cross machine boundaries.
    (buckets.into_iter().map(Arc::new).collect(), bytes * 0.9)
}

/// Concatenate row partitions in order.
pub fn flatten_parts(parts: &[Dataset]) -> Vec<Value> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        out.extend(p.iter().cloned());
    }
    out
}

/// Hash-partition every batch into `n` per-destination contribution lists —
/// the columnar exchange. Source batches partition on the pool; bucket `j`
/// then collects each input batch's selection onto destination `j`, in
/// input order, which is exactly the record order the row shuffle would
/// produce (same `bucket_of` routing, same stable append). `None` when any
/// key column is untyped (callers take the row shuffle instead).
pub fn bucketize(
    bs: &[&Batch],
    key: &KeySpec,
    n: usize,
    workers: usize,
) -> Result<Option<Vec<Vec<Batch>>>> {
    let (cut, _) = par_each_idx(bs.len(), workers, |i| Ok(batch::partition_batch(bs[i], key, n)))?;
    let mut buckets: Vec<Vec<Batch>> =
        (0..n.max(1)).map(|_| Vec::with_capacity(bs.len())).collect();
    for pb in cut {
        let Some(pb) = pb else { return Ok(None) };
        for (j, x) in pb.into_iter().enumerate() {
            buckets[j].push(x);
        }
    }
    Ok(Some(buckets))
}

/// Wire size of an exchange's bucketed contributions (≈90 % cross machines,
/// like [`exchange`]).
pub fn bucket_bytes(buckets: &[Vec<Batch>]) -> f64 {
    buckets.iter().flatten().map(batch::batch_bytes).sum::<f64>() * 0.9
}

/// Count/row totals of the batches a columnar exchange actually ships
/// (empty selections stay local).
pub fn shipped(buckets: &[Vec<Batch>]) -> (u64, u64) {
    let mut batches = 0u64;
    let mut rows = 0u64;
    for b in buckets.iter().flatten() {
        let l = b.selected_len() as u64;
        if l > 0 {
            batches += 1;
        }
        rows += l;
    }
    (batches, rows)
}

/// The reduce-side exchange shared by `ReduceBy` and the fused terminal
/// aggregation: ship map-side partials to their destination partition and
/// merge per key. When every partial stayed columnar, the `(key, sum)`
/// batches hash-partition on their key column and merge through slot
/// arrays — no row materialization anywhere on the path; otherwise (or in
/// row mode) the partials travel as carried-key pairs through the row
/// exchange. Both paths route identically, so results and partition counts
/// are byte-identical. `on_exchange` sees the bytes moved and the
/// destination count once they are known (an engine's trace hook). Returns
/// the merged partitions and the virtual ms of the exchange + reduce side.
pub fn reduce_exchange(
    ctx: &mut ExecCtx<'_>,
    profile: &PlatformProfile,
    workers: usize,
    combined: &[Part],
    agg: &ReduceUdf,
    batched: bool,
    on_exchange: impl FnOnce(&mut ExecCtx<'_>, f64, usize),
) -> Result<(Vec<Part>, f64)> {
    let n = combined.len();
    let columnar = match batch::all_batches(combined) {
        Some(bs) if batched => bucketize(&bs, &KeySpec::Field(0), n, workers)?,
        _ => None,
    };
    if let Some(buckets) = columnar {
        let bytes = bucket_bytes(&buckets);
        on_exchange(ctx, bytes, n);
        let (sb, srows) = shipped(&buckets);
        ctx.report_exchange(sb, srows);
        let fell = AtomicUsize::new(0);
        let fell_rows = AtomicUsize::new(0);
        let (out, t2) = par_each_idx(buckets.len(), workers, |j| {
            let contribs = &buckets[j];
            if let Some(m) = batch::merge_batches(contribs) {
                return Ok(Part::Cols(m));
            }
            // Per-bucket row fallback: routing matched the row exchange, so
            // merging this bucket's keyed rows reproduces the row result
            // exactly.
            fell.fetch_add(1, Ordering::Relaxed);
            let mut rows = Vec::new();
            for b in contribs {
                rows.extend(batch::keyed_values(b));
            }
            fell_rows.fetch_add(rows.len(), Ordering::Relaxed);
            Ok(Part::Rows(Arc::new(kernels::merge_by(&rows, agg))))
        })?;
        if fell.into_inner() > 0 {
            ctx.report_exchange_fallback(fell_rows.into_inner() as u64, Fallback::TypeMismatch);
        }
        return Ok((out, profile.net_ms(bytes) + profile.parallel_ms(&t2)));
    }
    // Row exchange: partials travel as (key, acc) pairs; the merge groups by
    // the carried key, never re-extracting from accumulators.
    let keyed: Vec<Dataset> = combined
        .iter()
        .map(|p| match p {
            Part::Rows(d) => Arc::clone(d),
            Part::Cols(b) => Arc::new(batch::keyed_values(b)),
        })
        .collect();
    let (exchanged, bytes) = exchange(&keyed, &KeyUdf::field(0), n);
    on_exchange(ctx, bytes, n);
    if batched {
        let rows: u64 = exchanged.iter().map(|d| d.len() as u64).sum();
        ctx.report_exchange_fallback(rows, Fallback::RowInput);
    }
    let (out, t2) = par_each(&exchanged, workers, |_i, d| Ok(kernels::merge_by(d, agg)))?;
    Ok((batch::into_row_parts(out), profile.net_ms(bytes) + profile.parallel_ms(&t2)))
}

/// The rows of lines `range` of a text file: one `Arc<str>` per line, cut
/// straight from the file's content.
pub fn text_rows(text: &rheem_storage::TextFile, range: std::ops::Range<usize>) -> Vec<Value> {
    text.lines(range).map(Value::from).collect()
}

/// The partitioned text source: read the file once
/// ([`rheem_storage::read_text`]), deal its lines into the count-balanced
/// contiguous partitions of [`rheem_storage::partition_ranges`] (as many as
/// [`partition_count`] gives a file of this size, at 40 bytes a line) and
/// build each partition's rows on the pool. Returns the partitions and the
/// store's virtual ms for reading the file.
pub fn read_text_parts(
    path: &Path,
    max_partitions: u32,
    workers: usize,
) -> Result<(Vec<Dataset>, f64)> {
    let text = rheem_storage::read_text(path).map_err(RheemError::Io)?;
    let bytes = text.bytes();
    let n = partition_count((bytes / 40).max(1) as usize, max_partitions);
    let ranges = rheem_storage::partition_ranges(text.line_count(), n);
    let (parts, _) =
        par_each_idx(ranges.len(), workers, |i| Ok(Arc::new(text_rows(&text, ranges[i].clone()))))?;
    Ok((parts, rheem_storage::default_costs(text.store()).read_ms(bytes)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_keeps_index_order_and_surfaces_errors() {
        let (out, times) = par_each_idx(37, 4, |i| Ok(i * i)).unwrap();
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(times.len(), 37);
        let (none, _) = par_each_idx(0, 4, Ok).unwrap();
        assert!(none.is_empty());
        let err = par_each_idx(8, 2, |i| {
            if i == 5 {
                Err(RheemError::Execution("boom".into()))
            } else {
                Ok(i)
            }
        });
        assert!(matches!(err, Err(RheemError::Execution(m)) if m == "boom"));
    }

    #[test]
    fn text_parts_are_the_lines_partition_lines_deals() {
        let dir = std::env::temp_dir().join(format!("rheem_text_parts_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lines.txt");
        // ~1.2 MB: enough bytes for several partitions.
        let lines: Vec<String> = (0..30_000).map(|i| format!("line {i} of the corpus")).collect();
        rheem_storage::write_lines(&path, &lines).unwrap();
        let bytes = std::fs::metadata(&path).unwrap().len();
        let n = partition_count((bytes / 40) as usize, 80);
        assert!(n > 1);
        let want = rheem_storage::partition_lines(lines, n);
        let (parts, read_ms) = read_text_parts(&path, 80, 2).unwrap();
        assert!(read_ms > 0.0);
        assert_eq!(parts.len(), n);
        for (got, want) in parts.iter().zip(&want) {
            let want: Vec<Value> = want.iter().map(|l| Value::from(l.as_str())).collect();
            assert_eq!(got.as_ref(), &want);
        }
        // Fewer lines than partitions would want: trailing partitions are
        // empty, none is missing.
        let tiny = dir.join("tiny.txt");
        std::fs::write(&tiny, "only\n").unwrap();
        let (parts, _) = read_text_parts(&tiny, 80, 2).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].as_ref(), &vec![Value::from("only")]);
        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "").unwrap();
        let (parts, _) = read_text_parts(&empty, 80, 2).unwrap();
        assert_eq!(parts.len(), 1);
        assert!(parts[0].is_empty());
        // Invalid UTF-8 and a missing file are typed I/O errors.
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, b"ok\n\xff\n").unwrap();
        assert!(matches!(read_text_parts(&bad, 80, 2), Err(RheemError::Io(_))));
        assert!(matches!(read_text_parts(&dir.join("nope"), 80, 2), Err(RheemError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
