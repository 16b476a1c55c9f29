//! Concurrency stress suite for the multi-tenant `JobService` (PR 7).
//!
//! The load-bearing claims, each locked down here under real OS-thread
//! concurrency:
//!
//! 1. **Per-job byte-identity**: a job submitted to a busy service returns
//!    exactly what the same plan returns alone on a fresh context — the
//!    commit-in-order executor makes concurrency invisible per job.
//! 2. **Admission control**: saturation (global or per-tenant) surfaces as
//!    the typed [`RheemError::Rejected`], deterministically.
//! 3. **Cache quotas**: a tenant's resident cache bytes never exceed its
//!    quota (polled through the `rheem_cache_*{tenant=...}` gauges), and a
//!    quota-thrashing tenant cannot evict a quoted neighbour's entries. A
//!    shared two-tier cache serves concurrent warm reruns from its disk tier
//!    with every answer intact and both tiers within budget.
//! 4. **No starvation**: a 1-stage job submitted behind a long
//!    critical-path job of another tenant completes while the long job is
//!    still running.
//! 5. **Chaos determinism**: under the fixed chaos-seed matrix, every job's
//!    outcome (answer or typed error, and its retry count) is
//!    byte-reproducible under concurrent load.
//! 6. **Fault/metrics isolation** (regression): concurrent jobs can no
//!    longer cross-contaminate per-job retry counts — each job's counts and
//!    fault records come from its own run, and the shared retry counter
//!    sums them exactly once.
//! 7. **Weights at the job pick**: the order a runner picks queued jobs in
//!    is exactly a replay of [`FairShare`] over the tenants' weights and
//!    the jobs' virtual costs.
//! 8. **Panic isolation**: a panicking UDF fails its own job with a typed
//!    error; the runner and the jobs queued behind it carry on.
//! 9. **Bounded job records**: the service keeps the records of the last
//!    64 jobs and a count of all of them.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use rheem::prelude::*;
use rheem_core::cache::ResultCache;
use rheem_core::kernels::SplitMix64;
use rheem_core::obs::scrape;
use rheem_core::trace::json;

/// Fixed chaos-seed matrix (mirrors `tests/differential.rs` and CI).
const CHAOS_SEEDS: [u64; 3] = [0xC0FFEE, 42, 7];

// ---- seeded job generator ------------------------------------------------

/// Deterministic per-(tenant, job) plan: map/filter chain over int pairs,
/// with an optional keyed reduction. Returns the plan and its sink.
fn gen_job(tenant: usize, job: usize) -> (RheemPlan, OperatorId) {
    let mut rng = SplitMix64(0x5E41 ^ ((tenant as u64) << 32) ^ (job as u64).wrapping_mul(0x9E37));
    let data: Vec<Value> = (0..40 + rng.range_usize(80))
        .map(|_| {
            Value::pair(
                Value::from(rng.range_usize(8) as i64),
                Value::from(rng.range_usize(200) as i64 - 100),
            )
        })
        .collect();
    let mut b = PlanBuilder::new();
    let mut q = b.collection(data);
    for _ in 0..1 + rng.range_usize(3) {
        q = match rng.range_usize(3) {
            0 => q.map(MapUdf::new("inc", |v| {
                Value::pair(v.field(0).clone(), Value::from(v.field(1).as_int().unwrap_or(0) + 1))
            })),
            1 => q.filter(PredicateUdf::new("even", |v| v.field(1).as_int().unwrap_or(0) % 2 == 0)),
            _ => q.map(MapUdf::new("rekey", |v| {
                Value::pair(
                    Value::from(
                        (v.field(0).as_int().unwrap_or(0) + v.field(1).as_int().unwrap_or(0))
                            .rem_euclid(5),
                    ),
                    v.field(1).clone(),
                )
            })),
        };
    }
    if rng.chance(0.5) {
        q = q.reduce_by_key(
            KeyUdf::field(0),
            ReduceUdf::new("sum", |a, b| {
                Value::pair(
                    a.field(0).clone(),
                    Value::from(
                        a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0),
                    ),
                )
            }),
        );
    }
    let sink = q.collect();
    (b.build().unwrap(), sink)
}

fn tenant_name(t: usize) -> String {
    format!("tenant{t}")
}

// ---- 1. per-job byte-identity under concurrent load ----------------------

/// N tenants × M jobs, submitted from one OS thread per tenant: every job's
/// sink output is byte-identical (same values, same order) to the same plan
/// executed alone on a fresh single-tenant context.
#[test]
fn concurrent_jobs_match_isolated_runs_byte_for_byte() {
    const TENANTS: usize = 4;
    const JOBS: usize = 5;

    // Isolated baselines: fresh context per job, nothing shared.
    let mut baselines: Vec<Vec<Vec<Value>>> = Vec::new();
    for t in 0..TENANTS {
        let mut per_tenant = Vec::new();
        for j in 0..JOBS {
            let (plan, sink) = gen_job(t, j);
            let result = rheem::default_context().execute(&plan).unwrap();
            per_tenant.push(result.sink(sink).unwrap().to_vec());
        }
        baselines.push(per_tenant);
    }

    let tenants: Vec<TenantSpec> =
        (0..TENANTS).map(|t| TenantSpec::new(&tenant_name(t)).with_max_in_flight(JOBS)).collect();
    let service =
        JobService::new(rheem::default_context(), ServiceConfig::default(), tenants).unwrap();

    let outputs: Vec<Vec<Vec<Value>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| {
                let service = &service;
                s.spawn(move || {
                    let name = tenant_name(t);
                    let submitted: Vec<(JobHandle, OperatorId)> = (0..JOBS)
                        .map(|j| {
                            let (plan, sink) = gen_job(t, j);
                            (service.submit(&name, plan).unwrap(), sink)
                        })
                        .collect();
                    submitted
                        .into_iter()
                        .map(|(h, sink)| h.wait().unwrap().sink(sink).unwrap().to_vec())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for t in 0..TENANTS {
        for j in 0..JOBS {
            assert_eq!(
                outputs[t][j], baselines[t][j],
                "tenant {t} job {j}: concurrent submission changed the answer"
            );
        }
    }
    assert_eq!(service.in_flight(), 0, "all jobs must have drained");
    assert_eq!(service.records().len(), TENANTS * JOBS);
}

// ---- 2. admission control -------------------------------------------------

/// What a blocking UDF parks on: `(entered, open)` under one lock.
#[derive(Default)]
struct Latch {
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Latch {
    /// Mark the UDF entered, then block until [`Latch::open`].
    fn park(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 = true;
        self.cv.notify_all();
        while !s.1 {
            s = self.cv.wait(s).unwrap();
        }
    }

    /// Block until a UDF has parked.
    fn wait_entered(&self) {
        let mut s = self.state.lock().unwrap();
        while !s.0 {
            s = self.cv.wait(s).unwrap();
        }
    }

    /// Release every parked UDF, now and later.
    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// A plan whose single map UDF blocks until the test releases it — pins a
/// job "running" deterministically so in-flight counts are controllable.
fn blocking_plan(latch: &Arc<Latch>) -> (RheemPlan, OperatorId) {
    let latch = Arc::clone(latch);
    let mut b = PlanBuilder::new();
    let sink = b
        .collection(vec![Value::from(1i64)])
        .map(MapUdf::new("block", move |v| {
            latch.park();
            v.clone()
        }))
        .collect();
    (b.build().unwrap(), sink)
}

fn trivial_plan() -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = b.collection(vec![Value::from(7i64)]).collect();
    (b.build().unwrap(), sink)
}

/// Saturation is typed and deterministic: per-tenant caps and the global
/// in-flight cap reject at submission time with [`RheemError::Rejected`];
/// unknown tenants are rejected outright; draining the blocker completes
/// every admitted job.
#[test]
fn admission_control_rejects_typed_at_caps() {
    let latch = Arc::new(Latch::default());
    let tenants = vec![
        TenantSpec::new("a").with_max_in_flight(2),
        TenantSpec::new("b").with_max_in_flight(8),
    ];
    let config = ServiceConfig { max_in_flight: 3, runners: 1, ..ServiceConfig::default() };
    let service = JobService::new(rheem::default_context(), config, tenants).unwrap();

    // Unknown tenant: rejected before any capacity is consumed.
    let (plan, _) = trivial_plan();
    match service.submit("nobody", plan) {
        Err(RheemError::Rejected { tenant, .. }) => assert_eq!(tenant, "nobody"),
        other => panic!("unknown tenant must be rejected, got ok={}", other.is_ok()),
    }

    // Fill tenant a to its cap: one blocker + one queued job. The blocker
    // UDF parks the single runner, so nothing drains underneath us.
    let (bplan, bsink) = blocking_plan(&latch);
    let h_block = service.submit("a", bplan).unwrap();
    let (p2, s2) = trivial_plan();
    let h2 = service.submit("a", p2).unwrap();
    let (p3, _) = trivial_plan();
    match service.submit("a", p3) {
        Err(RheemError::Rejected { tenant, reason }) => {
            assert_eq!(tenant, "a");
            assert!(reason.contains("tenant saturated"), "unexpected reason: {reason}");
        }
        other => panic!("tenant cap must reject, got ok={}", other.is_ok()),
    }

    // One more job fills the global cap (3 in flight), then tenant b — well
    // under its own cap — is rejected on service saturation.
    let (p4, s4) = trivial_plan();
    let h4 = service.submit("b", p4).unwrap();
    let (p5, _) = trivial_plan();
    match service.submit("b", p5) {
        Err(RheemError::Rejected { tenant, reason }) => {
            assert_eq!(tenant, "b");
            assert!(reason.contains("service saturated"), "unexpected reason: {reason}");
        }
        other => panic!("global cap must reject, got ok={}", other.is_ok()),
    }

    // Release the blocker: every admitted job completes.
    latch.open();
    assert_eq!(h_block.wait().unwrap().sink(bsink).unwrap().len(), 1);
    assert_eq!(h2.wait().unwrap().sink(s2).unwrap().len(), 1);
    assert_eq!(h4.wait().unwrap().sink(s4).unwrap().len(), 1);
    // Capacity freed: the same tenant is admitted again.
    let (p6, s6) = trivial_plan();
    let h6 = service.submit("a", p6).unwrap();
    assert_eq!(h6.wait().unwrap().sink(s6).unwrap().len(), 1);
}

// ---- 3. cache quotas -------------------------------------------------------

/// A cache-churning wordcount over a per-(tenant, job) corpus: distinct
/// fingerprints per job, so every job publishes fresh entries.
fn corpus_job(tenant: &str, job: usize) -> (RheemPlan, OperatorId) {
    let path = std::path::PathBuf::from(format!("hdfs://tests/service/{tenant}_{job}.txt"));
    rheem_datagen::text::write_corpus(&path, 160, 7 + job as u64).unwrap();
    corpus_plan(&path)
}

/// The wordcount plan alone — for warm reruns over an *unchanged* corpus
/// (re-writing the file would advance its version and miss on staleness).
fn corpus_plan(path: &std::path::Path) -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = b
        .read_text_file(path)
        .flat_map(FlatMapUdf::new("split", |v| {
            v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
        }))
        .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .collect();
    (b.build().unwrap(), sink)
}

/// Tenant quotas hold at every observation point: the `rheem_cache_bytes`
/// gauge for a quoted tenant never exceeds its quota while job after job
/// churns the namespace, and the churn cannot evict a quoted neighbour's
/// entries (its namespace sees zero evictions).
#[test]
fn cache_quotas_hold_and_do_not_cross_namespaces() {
    let cache = Arc::new(ResultCache::new(64 << 20));

    // Calibrate the quota in units of what one corpus job actually
    // publishes, so the test is robust to channel/Value representation
    // changes: 2.5 jobs' worth admits every individual entry but cannot
    // hold six jobs resident.
    let calib_ns = rheem_core::cache::Namespace::tenant("calib");
    {
        let mut ctx = rheem::default_context();
        ctx.set_cache(Some(Arc::clone(&cache)));
        let (plan, sink) = corpus_job("calib", 0);
        let scope =
            JobScope { tenant: Some("calib".into()), cache_ns: calib_ns, ..JobScope::default() };
        let r = ctx.execute_scoped(&plan, &scope).unwrap();
        assert!(!r.sink(sink).unwrap().is_empty());
    }
    let per_job = cache.stats_of(calib_ns).bytes;
    assert!(per_job > 0, "calibration job must publish cacheable channels");
    let quota = per_job * 5 / 2;

    let mut ctx = rheem::default_context();
    ctx.set_cache(Some(Arc::clone(&cache)));
    let churn_ns = rheem_core::cache::Namespace::tenant("churn");
    let neighbour_ns = rheem_core::cache::Namespace::tenant("neighbour");
    let tenants = vec![
        TenantSpec::new("churn").with_cache_quota(quota),
        TenantSpec::new("neighbour").with_cache_quota(quota * 4),
    ];
    let service = JobService::new(ctx, ServiceConfig::default(), tenants).unwrap();
    assert_eq!(cache.quota_of(churn_ns), Some(quota), "service must register quotas");

    // The neighbour publishes once, then stays idle.
    let (nplan, nsink) = corpus_job("neighbour", 0);
    let nh = service.submit("neighbour", nplan).unwrap();
    let nout = nh.wait().unwrap().sink(nsink).unwrap().to_vec();
    let neighbour_resident = cache.stats_of(neighbour_ns).bytes;
    assert!(neighbour_resident > 0, "neighbour job must publish into its namespace");

    // The churner runs 6 distinct jobs; after each, poll the exported
    // metrics — the quota gauge must hold at every observation point.
    for job in 0..6 {
        let (plan, sink) = corpus_job("churn", job);
        let h = service.submit("churn", plan).unwrap();
        assert!(!h.wait().unwrap().sink(sink).unwrap().is_empty());
        let metrics = service.context().metrics();
        let resident = metrics.gauge("rheem_cache_bytes{tenant=\"churn\"}").unwrap();
        let quota_gauge = metrics.gauge("rheem_cache_quota_bytes{tenant=\"churn\"}").unwrap();
        assert_eq!(quota_gauge as u64, quota);
        assert!(
            resident as u64 <= quota,
            "job {job}: churn tenant resident {resident} exceeds quota {quota}"
        );
    }

    // The churner was actually constrained (its namespace evicted), while
    // the quoted neighbour lost nothing to the churn.
    let churn = cache.stats_of(churn_ns);
    assert!(churn.inserts >= 6, "churn jobs must publish: {churn:?}");
    assert!(churn.evictions > 0, "quota must force within-namespace eviction: {churn:?}");
    let neighbour = cache.stats_of(neighbour_ns);
    assert_eq!(neighbour.evictions, 0, "churn evicted a quoted neighbour: {neighbour:?}");
    assert_eq!(neighbour.bytes, neighbour_resident, "neighbour residency changed");

    // And the neighbour still replays from its untouched namespace. Build
    // the plan over the *unchanged* corpus: re-writing the file would
    // advance its version and the stale fingerprint would (correctly) miss.
    let (nplan, nsink) = corpus_plan(std::path::Path::new("hdfs://tests/service/neighbour_0.txt"));
    let hits_before = cache.stats_of(neighbour_ns).hits;
    let nh = service.submit("neighbour", nplan).unwrap();
    assert_eq!(nh.wait().unwrap().sink(nsink).unwrap().to_vec(), nout);
    assert!(cache.stats_of(neighbour_ns).hits > hits_before, "warm rerun must hit");
}

/// Four tenants share one two-tier cache whose memory holds about a third
/// of what they publish. Each submits a cold job and, once all four have
/// published, three warm reruns of it at once: probes, spill-file reads
/// outside the cache lock, promotions and the spills they force all race. Every answer is the
/// isolated run's, both tiers end within budget, and the cache lock is
/// never poisoned.
#[test]
fn disk_tier_serves_concurrent_warm_reruns() {
    const TENANTS: usize = 4;
    const WARM: usize = 3;
    let paths: Vec<std::path::PathBuf> = (0..TENANTS)
        .map(|t| {
            let path = std::path::PathBuf::from(format!("hdfs://tests/service/disk{t}.txt"));
            rheem_datagen::text::write_corpus(&path, 96, 40 + t as u64).unwrap();
            path
        })
        .collect();
    // Isolated answers, and what each job publishes into a cache it fits.
    let (baselines, published): (Vec<Vec<Value>>, Vec<u64>) = paths
        .iter()
        .map(|path| {
            let (plan, sink) = corpus_plan(path);
            let cache = Arc::new(ResultCache::new(64 << 20));
            let ctx = rheem::default_context().with_shared_cache(Arc::clone(&cache));
            let out = ctx.execute(&plan).unwrap().sink(sink).unwrap().to_vec();
            (out, cache.stats().bytes)
        })
        .unzip();
    let published: u64 = published.iter().sum();

    let cache = Arc::new(ResultCache::with_disk(published / 3, 64 << 20));
    let mut ctx = rheem::default_context();
    ctx.set_cache(Some(Arc::clone(&cache)));
    let tenants: Vec<TenantSpec> =
        (0..TENANTS).map(|t| TenantSpec::new(&tenant_name(t)).with_max_in_flight(WARM)).collect();
    let service = JobService::new(ctx, ServiceConfig::default(), tenants).unwrap();
    // Warm reruns start once every cold job has published, so the entries
    // of the tenants that finished first are on disk by then.
    let cold_done = std::sync::Barrier::new(TENANTS);
    let outputs: Vec<Vec<Vec<Value>>> = std::thread::scope(|s| {
        let handles: Vec<_> = paths
            .iter()
            .enumerate()
            .map(|(t, path)| {
                let (service, cold_done) = (&service, &cold_done);
                s.spawn(move || {
                    let name = tenant_name(t);
                    let (plan, sink) = corpus_plan(path);
                    let cold = service.submit(&name, plan).unwrap();
                    let mut out = vec![cold.wait().unwrap().sink(sink).unwrap().to_vec()];
                    cold_done.wait();
                    let warm: Vec<(JobHandle, OperatorId)> = (0..WARM)
                        .map(|_| {
                            let (plan, sink) = corpus_plan(path);
                            (service.submit(&name, plan).unwrap(), sink)
                        })
                        .collect();
                    for (h, sink) in warm {
                        out.push(h.wait().unwrap().sink(sink).unwrap().to_vec());
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (t, runs) in outputs.iter().enumerate() {
        for (i, out) in runs.iter().enumerate() {
            assert_eq!(out, &baselines[t], "tenant {t} run {i}: the shared disk tier changed it");
        }
    }
    // `stats` takes the cache lock: a poisoned lock panics here.
    let st = cache.stats();
    assert!(st.spills > 0, "the memory tier never overflowed: {st:?}");
    assert!(st.promotions > 0, "no warm rerun read the disk tier: {st:?}");
    assert!(st.bytes <= cache.budget_bytes(), "memory tier over budget: {st:?}");
    assert!(st.spilled_bytes <= cache.disk_budget_bytes(), "disk tier over budget: {st:?}");
    let probe = rheem_core::cache::Fingerprint(0xD15C);
    cache.insert(probe, Arc::new(vec![Value::from(1i64)]));
    assert!(cache.lookup(probe).is_some(), "the cache must stay usable");
}

// ---- 4. no starvation ------------------------------------------------------

/// A short 1-stage job submitted behind another tenant's long critical-path
/// job completes while the long job is still running: the second runner
/// picks the newly backlogged tenant's job at once, and its stages share the
/// worker pool with the long job's instead of waiting for them to drain.
#[test]
fn short_job_is_not_starved_behind_long_critical_path() {
    // Long job: a deep chain of keyed reductions over a large collection —
    // many dependent stages, so it holds the service for a while.
    let long_plan = || {
        let mut rng = SplitMix64(0x10A11CE);
        let data: Vec<Value> = (0..60_000)
            .map(|_| {
                Value::pair(
                    Value::from(rng.range_usize(512) as i64),
                    Value::from(rng.range_usize(100) as i64),
                )
            })
            .collect();
        let mut b = PlanBuilder::new();
        let mut q = b.collection(data);
        for round in 0..6 {
            q = q
                .map(MapUdf::new("fold", move |v| {
                    Value::pair(
                        Value::from(v.field(0).as_int().unwrap_or(0) / 2),
                        v.field(1).clone(),
                    )
                }))
                .reduce_by_key(
                    KeyUdf::field(0),
                    ReduceUdf::new("sum", |a, b| {
                        Value::pair(
                            a.field(0).clone(),
                            Value::from(
                                a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0),
                            ),
                        )
                    }),
                );
            let _ = round;
        }
        let sink = q.collect();
        (b.build().unwrap(), sink)
    };

    let tenants = vec![TenantSpec::new("long"), TenantSpec::new("short")];
    let config = ServiceConfig { runners: 2, ..ServiceConfig::default() };
    // The deep reduce chain compounds cardinality mis-estimates; keep the
    // job long rather than replanned by disabling progressive reopt here.
    let mut ctx = rheem::default_context();
    ctx.config_mut().progressive = false;
    let service = JobService::new(ctx, config, tenants).unwrap();

    let (lp, _) = long_plan();
    let lh = service.submit("long", lp).unwrap();
    let (sp, ssink) = trivial_plan();
    let sh = service.submit("short", sp).unwrap();

    // The short job completes correctly...
    assert_eq!(sh.wait().unwrap().sink(ssink).unwrap().len(), 1);
    // ...and strictly before the long job in the service's job records.
    lh.wait().unwrap();
    let completions: Vec<String> = service.records().into_iter().map(|r| r.tenant).collect();
    let short_pos = completions.iter().position(|t| t == "short").unwrap();
    let long_pos = completions.iter().position(|t| t == "long").unwrap();
    assert!(short_pos < long_pos, "short job starved: completions ran {completions:?}");
}

// ---- 5. chaos determinism under concurrent load ---------------------------

/// Under the fixed chaos-seed matrix, each job's outcome — the answer (or
/// the typed error) and its retry count — is byte-reproducible when the
/// same jobs run concurrently on a busy service: fault plans resolve once
/// per job, so concurrency cannot re-deal the fault schedule.
#[test]
fn chaos_outcomes_reproduce_under_concurrent_load() {
    /// Per tenant, per job: the sink and the retry count, or the error.
    type Outcomes = Vec<Vec<Result<(Vec<Value>, u32)>>>;
    const TENANTS: usize = 3;
    const JOBS: usize = 3;
    for &chaos_seed in &CHAOS_SEEDS {
        // Isolated baselines: outcome + per-job retry count.
        let mut baseline: Outcomes = Vec::new();
        for t in 0..TENANTS {
            let mut per_tenant = Vec::new();
            for j in 0..JOBS {
                let (plan, sink) = gen_job(t, j);
                let mut ctx = rheem::default_context();
                ctx.config_mut().chaos_seed = Some(chaos_seed);
                per_tenant.push(
                    ctx.execute(&plan).map(|r| (r.sink(sink).unwrap().to_vec(), r.metrics.retries)),
                );
            }
            baseline.push(per_tenant);
        }

        let mut ctx = rheem::default_context();
        ctx.config_mut().chaos_seed = Some(chaos_seed);
        let tenants: Vec<TenantSpec> =
            (0..TENANTS).map(|t| TenantSpec::new(&tenant_name(t))).collect();
        let service = JobService::new(ctx, ServiceConfig::default(), tenants).unwrap();

        let outcomes: Outcomes = std::thread::scope(|s| {
            let handles: Vec<_> = (0..TENANTS)
                .map(|t| {
                    let service = &service;
                    s.spawn(move || {
                        let name = tenant_name(t);
                        let submitted: Vec<(JobHandle, OperatorId)> = (0..JOBS)
                            .map(|j| {
                                let (plan, sink) = gen_job(t, j);
                                (service.submit(&name, plan).unwrap(), sink)
                            })
                            .collect();
                        submitted
                            .into_iter()
                            .map(|(h, sink)| {
                                h.wait()
                                    .map(|r| (r.sink(sink).unwrap().to_vec(), r.metrics.retries))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for t in 0..TENANTS {
            for j in 0..JOBS {
                match (&baseline[t][j], &outcomes[t][j]) {
                    (Ok((bout, bretries)), Ok((out, retries))) => {
                        assert_eq!(
                            out, bout,
                            "seed {chaos_seed:#x} tenant {t} job {j}: answer changed under load"
                        );
                        assert_eq!(
                            retries, bretries,
                            "seed {chaos_seed:#x} tenant {t} job {j}: retry count changed \
                             (fault isolation regression)"
                        );
                    }
                    (Err(be), Err(e)) => assert_eq!(
                        e.to_string(),
                        be.to_string(),
                        "seed {chaos_seed:#x} tenant {t} job {j}: error changed under load"
                    ),
                    (b, o) => panic!(
                        "seed {chaos_seed:#x} tenant {t} job {j}: outcome flipped under load \
                         (isolated ok={}, service ok={})",
                        b.is_ok(),
                        o.is_ok()
                    ),
                }
            }
        }
    }
}

// ---- 6. fault/metrics isolation regression -------------------------------

/// Racing scoped jobs each count only their own retries: per-job counts
/// match isolated runs exactly (asserted per job in the chaos test above).
/// Here we assert the shared side — the context's retry counter and
/// metrics registry account for *everything*, exactly once.
#[test]
fn scoped_jobs_merge_into_shared_monitor_exactly_once() {
    const THREADS: usize = 4;
    const JOBS: usize = 3;
    let mut ctx = rheem::default_context();
    ctx.config_mut().chaos_seed = Some(0xC0FFEE);
    let ctx = Arc::new(ctx);

    let per_job: Vec<(u32, u32)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ctx = Arc::clone(&ctx);
                s.spawn(move || {
                    let mut acc = Vec::new();
                    for j in 0..JOBS {
                        let (plan, _) = gen_job(t, j);
                        let scope =
                            JobScope { tenant: Some(tenant_name(t)), ..JobScope::default() };
                        match ctx.execute_scoped(&plan, &scope) {
                            Ok(r) => acc.push((r.metrics.retries, r.metrics.failovers)),
                            Err(_) => acc.push((0, 0)),
                        }
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    // The shared metrics hold exactly the sum of the per-job counts.
    let total_retries: u32 = per_job.iter().map(|(r, _)| r).sum();
    let total_failovers: u32 = per_job.iter().map(|(_, f)| f).sum();
    let metrics = ctx.metrics();
    assert_eq!(
        metrics.counter("rheem_retries_total"),
        u64::from(total_retries),
        "shared retry counter lost/duplicated retries"
    );
    assert_eq!(metrics.counter("rheem_failovers_total"), u64::from(total_failovers));
    // Per-tenant job counters each saw exactly JOBS completions.
    for t in 0..THREADS {
        let key = format!("rheem_jobs_total{{tenant=\"{}\"}}", tenant_name(t));
        assert_eq!(metrics.counter(&key), JOBS as u64, "mislabelled tenant counter {key}");
    }
    // The Prometheus snapshot stays well-formed with labelled families: one
    // TYPE line per family, label sets intact.
    let prom = metrics.snapshot_prometheus();
    assert_eq!(
        prom.matches("# TYPE rheem_jobs_total counter").count(),
        1,
        "labelled counters must share one TYPE line:\n{prom}"
    );
    assert!(prom.contains("rheem_jobs_total{tenant=\"tenant0\"}"));
}

// ---- 7. tenant weights at the job pick -----------------------------------

/// With one runner parked on tenant `c`'s job, tenants `a` (weight 3) and
/// `b` (weight 1) queue four trivial jobs each. Once released, the runner
/// serves them in exactly the order a fresh [`FairShare`] with the same
/// seed, tenants, activations and per-job virtual costs picks: the runner
/// pick is where weights act, and it is deterministic given the costs.
#[test]
fn tenant_weights_order_the_job_pick() {
    const JOBS: usize = 4;
    let specs =
        vec![TenantSpec::new("a").with_weight(3.0), TenantSpec::new("b"), TenantSpec::new("c")];
    let config = ServiceConfig { runners: 1, ..ServiceConfig::default() };
    let seed = config.seed;
    let service = JobService::new(rheem::default_context(), config, specs.clone()).unwrap();

    let latch = Arc::new(Latch::default());
    let parked = service.submit("c", blocking_plan(&latch).0).unwrap();
    latch.wait_entered();
    let mut handles = Vec::new();
    for _ in 0..JOBS {
        for tenant in ["a", "b"] {
            handles.push(service.submit(tenant, trivial_plan().0).unwrap());
        }
    }
    latch.open();
    let parked_id = parked.id;
    let parked_cost = parked.wait().unwrap().metrics.virtual_ms;
    // `(job id, virtual ms)` per tenant, in submission order.
    let mut queues: Vec<VecDeque<(u64, f64)>> = vec![VecDeque::new(); 2];
    for h in handles {
        let t = usize::from(h.tenant == "b");
        let id = h.id;
        queues[t].push_back((id, h.wait().unwrap().metrics.virtual_ms));
    }

    // Replay. Activations at admission, as the service saw them: `c`
    // with nothing backlogged, `a` after `c`'s job had left the queue,
    // `b` behind a backlogged `a`. Then `c` is charged first.
    let mut fair = FairShare::new(seed);
    for s in &specs {
        fair.add_tenant(&s.name, s.weight);
    }
    fair.activate(2, &[]);
    fair.activate(0, &[]);
    fair.activate(1, &[0]);
    fair.charge(2, parked_cost);
    let mut want = vec![(parked_id, "c".to_string())];
    loop {
        let ready: Vec<usize> = (0..2).filter(|&t| !queues[t].is_empty()).collect();
        let Some(t) = fair.pick(&ready) else { break };
        let (id, cost) = queues[t].pop_front().unwrap();
        fair.charge(t, cost);
        want.push((id, specs[t].name.clone()));
    }
    let order: Vec<(u64, String)> =
        service.records().into_iter().map(|r| (r.job.unwrap(), r.tenant)).collect();
    assert_eq!(order, want);
}

// ---- 8. panic isolation ---------------------------------------------------

/// A job whose UDF panics fails with [`RheemError::Execution`] naming the
/// job and the panic; the single runner survives to run the job queued
/// behind it, and both admission slots are returned. The waits are timed
/// so a dead runner fails the test instead of hanging it.
#[test]
fn panicking_job_fails_typed_and_keeps_its_runner() {
    let config = ServiceConfig { runners: 1, ..ServiceConfig::default() };
    let service =
        JobService::new(rheem::default_context(), config, vec![TenantSpec::new("t")]).unwrap();
    let mut b = PlanBuilder::new();
    b.collection(vec![Value::from(1i64)])
        .map(MapUdf::new("boom", |_: &Value| -> Value { panic!("udf exploded") }))
        .collect();
    let boom = service.submit("t", b.build().unwrap()).unwrap();
    let boom_id = boom.id;
    let (plan, sink) = trivial_plan();
    let next = service.submit("t", plan).unwrap();

    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send((boom.wait(), next.wait()));
    });
    let (failed, ok) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the panicking job stranded the job queued behind it");
    waiter.join().unwrap();
    match failed {
        Err(RheemError::Execution(msg)) => assert!(
            msg.contains(&format!("job {boom_id}")) && msg.contains("udf exploded"),
            "unexpected message: {msg}"
        ),
        other => panic!("a panicking job must fail typed, got ok={}", other.is_ok()),
    }
    assert_eq!(ok.unwrap().sink(sink).unwrap().len(), 1);
    assert_eq!(service.in_flight(), 0, "the panicking job's admission slot leaked");
}

// ---- 9. bounded job records ----------------------------------------------

/// 70 jobs leave the last 64 in `records()` and in `/jobs`, in completion
/// order, while `/jobs` counts all 70.
#[test]
fn completion_log_keeps_the_last_64() {
    const JOBS: u64 = 70;
    let service = JobService::new(
        rheem::default_context(),
        ServiceConfig::default(),
        vec![TenantSpec::new("t")],
    )
    .unwrap();
    let addr = service.serve("127.0.0.1:0").unwrap().to_string();
    for _ in 0..JOBS {
        service.submit("t", trivial_plan().0).unwrap().wait().unwrap();
    }
    let want: Vec<u64> = (JOBS - 64..JOBS).collect();
    let kept: Vec<u64> = service.records().iter().map(|r| r.job.unwrap()).collect();
    assert_eq!(kept, want);

    let body = scrape(&addr, "/jobs").unwrap();
    let doc = json::parse(&body).unwrap();
    let obj = doc.as_obj("jobs").unwrap();
    assert_eq!(json::get(obj, "completed").unwrap().as_f64("completed").unwrap(), JOBS as f64);
    let recent: Vec<u64> = json::get(obj, "recent_completions")
        .unwrap()
        .as_arr("recent_completions")
        .unwrap()
        .iter()
        .map(|e| json::get(e.as_obj("job").unwrap(), "job").unwrap().as_f64("job").unwrap() as u64)
        .collect();
    assert_eq!(recent, want);
}
