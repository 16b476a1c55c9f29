//! Shared worker pool for real (wall-clock) parallelism.
//!
//! One lazily-initialized, process-wide pool sized by
//! `std::thread::available_parallelism` serves partition-level
//! parallelism: [`crate::partitioned::par_each_idx`], through which the
//! distributed platform simulacra (spark/flink) run their per-partition
//! workers, instead of paying a fresh `std::thread::scope` spawn per
//! operator call. Stages themselves run one at a time on the job's thread.
//!
//! The API is a scoped spawn ([`scope`]): closures may borrow from the
//! caller's stack, and the scope does not return until every spawned job
//! has finished. Deadlock freedom with a fixed-size pool and *nested*
//! scopes (a job running on a worker opening its own partition-level
//! scope) comes from help-while-waiting: a scope owner whose jobs are
//! still pending pops and runs *its own* queued jobs instead of blocking,
//! so the thread currently waiting always doubles as a worker. Help is
//! deliberately scope-local — stealing a foreign job (another job's
//! partition) would pin this scope behind unrelated work.
//!
//! Dispatch is plain FIFO, so concurrent jobs' partitions are served in
//! arrival order.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue entries carry their owning scope's identity (the `ScopeState`
/// address) so a waiting owner can pick out its own jobs. No ABA hazard: a
/// scope's state outlives `wait_all`, which drains every job it tagged.
type TaggedJob = (usize, Job);

struct Shared {
    queue: Mutex<VecDeque<TaggedJob>>,
    /// Signalled on job push *and* on scope-job completion, so both idle
    /// workers and helping scope owners re-check their conditions.
    work: Condvar,
}

struct ScopeState {
    pending: Mutex<usize>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Number of worker threads in the shared pool. `RHEEM_POOL=<n>` overrides
/// the detected parallelism (CI uses it to exercise 2-core and 8-core
/// schedules on any host); read once — the pool is process-wide.
pub fn size() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        std::env::var("RHEEM_POOL")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4))
    })
}

fn shared() -> &'static Arc<Shared> {
    static POOL: OnceLock<Arc<Shared>> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared = Arc::new(Shared { queue: Mutex::new(VecDeque::new()), work: Condvar::new() });
        for i in 0..size() {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rheem-pool-{i}"))
                .spawn(move || worker_loop(&s))
                .expect("spawn shared pool worker");
        }
        shared
    })
}

fn worker_loop(s: &Shared) {
    loop {
        let job = {
            let mut q = s.queue.lock().unwrap();
            loop {
                if let Some((_, j)) = q.pop_front() {
                    break j;
                }
                q = s.work.wait(q).unwrap();
            }
        };
        job();
    }
}

/// A scope handle: jobs spawned through it may borrow anything that
/// outlives `'env`; [`scope`] joins them all before returning.
pub struct Scope<'env> {
    shared: &'static Arc<Shared>,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Queue `f` on the shared pool. Panics inside `f` are captured and
    /// resumed on the scope owner once all of the scope's jobs finished.
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        let pool = self.shared;
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                state.panic.lock().unwrap().get_or_insert(p);
            }
            *state.pending.lock().unwrap() -= 1;
            // Close the lost-wakeup race: a waiting scope owner checks
            // `pending` while holding the queue lock, so touching the queue
            // lock before notifying guarantees it either sees the new count
            // or is already parked on the condvar.
            drop(pool.queue.lock().unwrap());
            pool.work.notify_all();
        });
        // SAFETY: the job only borrows data outliving 'env, and `scope`
        // does not return before `wait_all` has observed the job's
        // completion (even when the scope body or a sibling job panics),
        // so every borrow is still live whenever the job runs.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        let tag = Arc::as_ptr(&self.state) as usize;
        self.shared.queue.lock().unwrap().push_back((tag, job));
        self.shared.work.notify_one();
    }

    fn wait_all(&self) {
        let tag = Arc::as_ptr(&self.state) as usize;
        loop {
            if *self.state.pending.lock().unwrap() == 0 {
                return;
            }
            // Help with *this scope's* queued jobs only (see module docs).
            let job = {
                let mut q = self.shared.queue.lock().unwrap();
                q.iter().position(|(t, _)| *t == tag).and_then(|i| q.remove(i))
            };
            if let Some((_, job)) = job {
                job();
                continue;
            }
            let mut q = self.shared.queue.lock().unwrap();
            loop {
                if *self.state.pending.lock().unwrap() == 0 {
                    return;
                }
                if q.iter().any(|(t, _)| *t == tag) {
                    break;
                }
                q = self.shared.work.wait(q).unwrap();
            }
        }
    }
}

/// Run `f` with a [`Scope`] whose spawned jobs execute on the shared pool;
/// returns only after every spawned job completed. The waiting thread helps
/// drain the queue, so nested scopes on a fixed-size pool cannot deadlock.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let sc = Scope {
        shared: shared(),
        state: Arc::new(ScopeState { pending: Mutex::new(0), panic: Mutex::new(None) }),
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&sc)));
    sc.wait_all();
    if let Some(p) = sc.state.panic.lock().unwrap().take() {
        resume_unwind(p);
    }
    match result {
        Ok(r) => r,
        Err(p) => resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_jobs_borrow_and_join() {
        let data: Vec<usize> = (0..256).collect();
        let sum = AtomicUsize::new(0);
        scope(|s| {
            for chunk in data.chunks(16) {
                let sum = &sum;
                s.spawn(move || {
                    sum.fetch_add(chunk.iter().sum::<usize>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 256 * 255 / 2);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // More outer jobs than pool workers, each opening an inner scope:
        // only help-while-waiting lets this complete on a fixed pool.
        let hits = AtomicUsize::new(0);
        scope(|outer| {
            for _ in 0..size() * 4 {
                let hits = &hits;
                outer.spawn(move || {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), size() * 16);
    }

    #[test]
    fn panics_propagate_after_join() {
        let finished = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                let finished = &finished;
                s.spawn(|| panic!("boom"));
                s.spawn(move || {
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(r.is_err(), "panic must surface on the scope owner");
        assert_eq!(finished.load(Ordering::Relaxed), 1, "siblings still joined");
    }
}
