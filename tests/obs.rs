//! Observability-plane integration suite (PR 8).
//!
//! Locks down the live observability claims end to end:
//!
//! 1. **Flight-recorder budgets** hold under multi-threaded writes: the
//!    ring never exceeds its entry or byte budget, drop accounting is
//!    exact (`drained + resident + dropped == recorded`), and the JSON
//!    dump parses with the repo's own `trace::json` parser.
//! 2. **Prometheus exposition invariants** hold on a real multi-tenant
//!    service run: one `# TYPE` per family, labels merged before `le`,
//!    cumulative buckets ending in `+Inf`, deterministic double-snapshot.
//! 3. **Watchdog end-to-end**: a synthetically starved tenant and an
//!    injected straggler stage driven through the live service are flagged
//!    — and only they are — via `rheem_watchdog_*` metrics, while
//!    `/metrics`, `/healthz` and `/flight` are scraped concurrently over
//!    real TCP.
//! 4. **One record per fact**: stage runs live in the job trace and cache
//!    activity in `CacheStats`, so the service's ring holds only job
//!    lifecycle and watchdog events, whatever a job's iteration count or
//!    cache traffic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rheem::prelude::*;
use rheem_core::cache::ResultCache;
use rheem_core::obs::{scrape, validate_exposition};
use rheem_core::trace::json;

// ---- one test at a time ---------------------------------------------------

/// The watchdog test reads stage latencies, so this suite is written for
/// one test at a time (`--test-threads=1` in check.sh and CI). Hold that
/// under a plain `cargo test` too: on a small host the heavy neighbours
/// otherwise starve the very tenant the watchdog test expects to be well
/// served (about one run in five on 2 cores).
fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---- plan generators -----------------------------------------------------

fn sum_reduce() -> ReduceUdf {
    ReduceUdf::new("sum", |a, b| {
        Value::pair(
            a.field(0).clone(),
            Value::from(a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0)),
        )
    })
}

/// A `rows`-sized map + keyed-reduce job. Stage virtual time is wall time
/// scaled by the platform profile, so row count is the latency lever:
/// tests pick sizes with orders-of-magnitude separation from the watchdog
/// thresholds. `salt` varies the data so jobs are distinct cache entries.
fn sized_plan(rows: i64, salt: u64) -> RheemPlan {
    let data: Vec<Value> = (0..rows)
        .map(|i| Value::pair(Value::from((i + salt as i64) % 7), Value::from(i)))
        .collect();
    let mut b = PlanBuilder::new();
    b.collection(data)
        .map(MapUdf::new("m1", |v| v.clone()))
        .reduce_by_key(KeyUdf::field(0), sum_reduce())
        .collect();
    b.build().unwrap()
}

/// A tiny, balanced job: every stage stays ~2 orders of magnitude under
/// the e2e test's `straggler_min_ms`.
fn regular_plan(salt: u64) -> RheemPlan {
    sized_plan(200, salt)
}

/// A job whose first compute stage processes 500x the rows of a regular
/// job: one stage far above `straggler_min_ms` against sub-millisecond
/// siblings, i.e. a deterministic straggler under `factor: 4`.
fn straggler_plan() -> RheemPlan {
    let data: Vec<Value> =
        (0..100_000).map(|i| Value::pair(Value::from(i % 7), Value::from(i))).collect();
    let mut b = PlanBuilder::new();
    b.collection(data)
        .map(MapUdf::new("hot", |v| v.clone()))
        .reduce_by_key(KeyUdf::field(0), sum_reduce())
        .map(MapUdf::new("cool", |v| v.clone()))
        .reduce_by_key(KeyUdf::field(0), sum_reduce())
        .collect();
    b.build().unwrap()
}

/// Largest stage virtual ms of one isolated run of `plan`. Stage virtual ms
/// are partly scaled host time, so they move with the host and the build
/// profile; the e2e test sizes its straggler threshold from these.
fn max_stage_ms(plan: &RheemPlan) -> f64 {
    let result = rheem::default_context().execute(plan).unwrap();
    let trace = result.trace.expect("tracing is on by default");
    trace.runs.iter().map(|r| r.virtual_ms).fold(0.0, f64::max)
}

// ---- 1. flight-recorder properties ---------------------------------------

#[test]
fn recorder_budgets_hold_under_concurrent_writes() {
    let _serial = one_at_a_time();
    const THREADS: usize = 8;
    const PER_THREAD: usize = 2_000;
    const MAX_ENTRIES: usize = 256;
    const MAX_BYTES: usize = 16 * 1024;

    let rec = Arc::new(FlightRecorder::with_capacity(MAX_ENTRIES, MAX_BYTES));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let rec = Arc::clone(&rec);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    rec.record(
                        EventKind::Watchdog,
                        Some("tenant"),
                        Some(t as u64),
                        Some(i as u64),
                        i as f64,
                        "concurrent writer",
                    );
                    // Budgets must hold at every instant, not just at rest.
                    assert!(rec.len() <= MAX_ENTRIES, "entry budget exceeded");
                    assert!(rec.bytes() <= MAX_BYTES, "byte budget exceeded");
                }
            });
        }
    });

    let recorded = rec.recorded();
    assert_eq!(recorded, (THREADS * PER_THREAD) as u64);
    let drained = rec.drain();
    assert_eq!(
        drained.len() as u64 + rec.dropped(),
        recorded,
        "every event is resident, drained, or counted dropped"
    );
    // Sequence numbers are unique and dense in [0, recorded).
    let mut seqs: Vec<u64> = drained.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), drained.len(), "sequence numbers are unique");
    assert!(seqs.iter().all(|&s| s < recorded));
}

#[test]
fn recorder_drop_accounting_is_exact_single_thread() {
    let _serial = one_at_a_time();
    let rec = FlightRecorder::with_capacity(4, 1 << 20);
    for i in 0..10 {
        rec.record(EventKind::JobQueued, None, Some(i), None, 0.0, "");
    }
    assert_eq!(rec.recorded(), 10);
    assert_eq!(rec.dropped(), 6);
    let drained = rec.drain();
    let seqs: Vec<u64> = drained.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![6, 7, 8, 9], "oldest evicted first, newest resident");
    // Draining delivers events; it never counts them as dropped.
    assert_eq!(rec.dropped(), 6);
    assert!(rec.is_empty());
}

#[test]
fn recorder_dump_parses_and_is_deterministic() {
    let _serial = one_at_a_time();
    let rec = FlightRecorder::with_capacity(64, 1 << 20);
    rec.record(EventKind::JobAdmitted, Some("a"), Some(1), None, 0.25, "");
    rec.record(EventKind::Watchdog, Some("a"), Some(1), Some(3), 7.5, "java.streams");
    rec.record(EventKind::JobCompleted, Some("a\"quote"), Some(1), None, 7.5, "done \"ok\"");

    let dump = rec.dump_json(None);
    assert_eq!(dump, rec.dump_json(None), "dump is deterministic");
    let doc = json::parse(&dump).expect("dump parses with the repo's own parser");
    let obj = doc.as_obj("dump").unwrap();
    assert_eq!(json::get(obj, "recorded").unwrap().as_f64("recorded").unwrap(), 3.0);
    assert_eq!(json::get(obj, "dropped").unwrap().as_f64("dropped").unwrap(), 0.0);
    let events = json::get(obj, "events").unwrap().as_arr("events").unwrap();
    assert_eq!(events.len(), 3);
    let ev = events[1].as_obj("event").unwrap();
    assert_eq!(json::get(ev, "kind").unwrap().as_str("kind").unwrap(), "watchdog");
    assert_eq!(json::get(ev, "stage").unwrap().as_f64("stage").unwrap(), 3.0);
    assert_eq!(json::get(ev, "detail").unwrap().as_str("detail").unwrap(), "java.streams");
    // Quotes in tenant/detail strings survive the round trip.
    let last = events[2].as_obj("event").unwrap();
    assert_eq!(json::get(last, "tenant").unwrap().as_str("tenant").unwrap(), "a\"quote");
    // The `n` limit keeps the most recent events.
    let tail = json::parse(&rec.dump_json(Some(1))).unwrap();
    let tail_events =
        json::get(tail.as_obj("dump").unwrap(), "events").unwrap().as_arr("events").unwrap();
    assert_eq!(tail_events.len(), 1);
    let t0 = tail_events[0].as_obj("event").unwrap();
    assert_eq!(json::get(t0, "seq").unwrap().as_f64("seq").unwrap(), 2.0);
}

// ---- 2. golden exposition over a real multi-tenant run -------------------

#[test]
fn prometheus_exposition_invariants_hold_after_multi_tenant_run() {
    let _serial = one_at_a_time();
    let mut ctx = rheem::default_context();
    ctx.set_cache(Some(Arc::new(ResultCache::new(64 << 20))));
    let tenants = vec![
        TenantSpec::new("alpha").with_max_in_flight(16).with_cache_quota(8 << 20),
        TenantSpec::new("beta").with_max_in_flight(16),
    ];
    let service = JobService::new(ctx, ServiceConfig::default(), tenants).unwrap();
    let mut handles = Vec::new();
    for j in 0..6 {
        handles.push(service.submit("alpha", regular_plan(j)).unwrap());
        handles.push(service.submit("beta", regular_plan(j + 100)).unwrap());
    }
    for h in handles {
        h.wait().unwrap();
    }

    let prom = service.context().metrics().snapshot_prometheus();
    validate_exposition(&prom).expect("exposition invariants hold");
    // Deterministic: a second snapshot of the same registry is identical.
    assert_eq!(prom, service.context().metrics().snapshot_prometheus());
    // The labeled SLO histogram family appears exactly once as a TYPE and
    // merges its labels before `le` (the PR 8 exposition fix).
    let type_lines: Vec<&str> =
        prom.lines().filter(|l| l.starts_with("# TYPE rheem_tenant_job_phase_ms ")).collect();
    assert_eq!(type_lines, vec!["# TYPE rheem_tenant_job_phase_ms histogram"]);
    assert!(
        prom.contains("rheem_tenant_job_phase_ms_bucket{phase=\"exec\",tenant=\"alpha\",le=\""),
        "labels merge before le:\n{prom}"
    );
    assert!(!prom.contains("}_bucket"), "no suffix-after-labels keys:\n{prom}");
    // Both tenants observed all four phases.
    for tenant in ["alpha", "beta"] {
        for phase in rheem_core::obs::slo::PHASES {
            let key = format!("rheem_tenant_job_phase_ms{{phase=\"{phase}\",tenant=\"{tenant}\"}}");
            let h = service.context().metrics().histogram(&key).unwrap();
            assert_eq!(h.count, 6, "{key}");
        }
    }
}

// ---- 3. watchdog end-to-end under live TCP scrapes -----------------------

#[test]
fn watchdog_flags_starved_tenant_and_straggler_over_live_scrapes() {
    let _serial = one_at_a_time();
    // The threshold sits at the geometric mean of the starved tenant's solo
    // 4 000-row job and the injected 100 000-row straggler, measured on this
    // host and build. No constant fits both builds: the two read ≈60 and
    // ≈1 500 virtual ms in a debug build, ≈6 and ≈130 in a release build.
    let solo_ms = max_stage_ms(&sized_plan(4_000, 0));
    let straggler_ms = max_stage_ms(&straggler_plan());
    assert!(straggler_ms > 4.0 * solo_ms, "straggler {straggler_ms} vs solo {solo_ms}");
    let ctx = rheem::default_context();
    let config = ServiceConfig {
        runners: 1, // serialize so the heavy backlog actually queues
        watchdog: WatchdogConfig {
            cadence_ms: 0.0, // sweep on every completion
            starvation_lag_ms: 200.0,
            straggler_factor: 4.0,
            straggler_min_ms: (solo_ms * straggler_ms).sqrt(),
            ..Default::default()
        },
        ..Default::default()
    };
    let tenants = vec![
        TenantSpec::new("heavy").with_max_in_flight(32),
        TenantSpec::new("starved").with_weight(0.001).with_max_in_flight(4),
    ];
    let service = JobService::new(ctx, config, tenants).unwrap();
    let addr = service.serve("127.0.0.1:0").unwrap().to_string();
    assert!(service.obs_addr().is_some());
    assert!(service.serve("127.0.0.1:0").is_err(), "double serve is a typed error");

    // Scrape all routes concurrently with the run, over real TCP.
    // Throttled: an unthrottled loop exhausts ephemeral ports/fds and
    // starves the service itself. Transient errors are tolerated (counted),
    // sustained success is asserted after the run.
    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = ["/metrics", "/healthz", "/flight?n=64"]
        .into_iter()
        .map(|path| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ok = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(body) = scrape(&addr, path) {
                        // `/metrics` is legitimately empty before the first
                        // sample; the JSON routes always have a body.
                        if path == "/healthz" {
                            assert!(body.contains("\"status\":\"ok\""));
                        }
                        ok += 1;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                ok
            })
        })
        .collect();

    // Phase 1: one solo mid-sized job charges the featherweight tenant a
    // huge normalized vtime (cost / 0.001) that activation re-flooring
    // keeps in place across its later idle -> backlogged transition.
    service.submit("starved", sized_plan(4_000, 0)).unwrap().wait().unwrap();

    // Phase 2: a heavy backlog (first job carries the straggler stage)
    // with one starved job queued behind it. Fair share keeps serving
    // heavy — every completion sweep sees starved backlogged and lagging.
    let mut handles = vec![service.submit("heavy", straggler_plan()).unwrap()];
    for j in 1..8 {
        handles.push(service.submit("heavy", regular_plan(j)).unwrap());
    }
    let starved_tail = service.submit("starved", regular_plan(99)).unwrap();
    for h in handles {
        h.wait().unwrap();
    }
    starved_tail.wait().unwrap();

    stop.store(true, Ordering::Relaxed);
    for s in scrapers {
        assert!(s.join().unwrap() > 0, "every route was scraped during the run");
    }

    // Write the artifacts CI uploads on failure *before* asserting.
    let flight = scrape(&addr, "/flight?n=4096").unwrap();
    let prom = scrape(&addr, "/metrics").unwrap();
    std::fs::create_dir_all("target/obs").unwrap();
    std::fs::write("target/obs/flight_dump.json", &flight).unwrap();
    std::fs::write("target/obs/metrics_snapshot.txt", &prom).unwrap();

    let m = service.context().metrics();
    assert!(
        m.counter("rheem_watchdog_starvation_total{tenant=\"starved\"}") >= 1,
        "the starved tenant is flagged:\n{prom}"
    );
    assert_eq!(
        m.counter("rheem_watchdog_starvation_total{tenant=\"heavy\"}"),
        0,
        "the well-served tenant is not"
    );
    assert_eq!(
        m.counter("rheem_watchdog_straggler_total{tenant=\"heavy\"}"),
        1,
        "exactly the injected straggler stage is flagged (solo {solo_ms} ms, straggler \
         {straggler_ms} ms):\n{prom}"
    );
    assert_eq!(m.counter("rheem_watchdog_straggler_total{tenant=\"starved\"}"), 0);
    assert!(m.counter("rheem_watchdog_sweeps_total") >= 1);

    // The scraped exposition satisfies the Prometheus invariants and the
    // flight dump parses and contains the lifecycle events.
    validate_exposition(&prom).expect("scraped exposition is well-formed");
    assert!(prom.contains("rheem_watchdog_straggler_total{tenant=\"heavy\"} 1"));
    let doc = json::parse(&flight).unwrap();
    let obj = doc.as_obj("flight").unwrap();
    let events = json::get(obj, "events").unwrap().as_arr("events").unwrap();
    assert!(!events.is_empty());
    let kinds: Vec<&str> = events
        .iter()
        .map(|e| json::get(e.as_obj("event").unwrap(), "kind").unwrap().as_str("kind").unwrap())
        .collect();
    for expected in ["job.admitted", "job.queued", "job.started", "job.completed", "watchdog"] {
        assert!(kinds.contains(&expected), "flight dump has {expected}: {kinds:?}");
    }

    // /jobs and /tenants serve coherent JSON.
    let jobs = scrape(&addr, "/jobs").unwrap();
    let jobs_doc = json::parse(&jobs).unwrap();
    let jobs_obj = jobs_doc.as_obj("jobs").unwrap();
    assert_eq!(json::get(jobs_obj, "in_flight").unwrap().as_f64("in_flight").unwrap(), 0.0);
    assert_eq!(json::get(jobs_obj, "completed").unwrap().as_f64("completed").unwrap(), 10.0);
    let tenants_body = scrape(&addr, "/tenants").unwrap();
    let tenants_doc = json::parse(&tenants_body).unwrap();
    let arr = json::get(tenants_doc.as_obj("tenants").unwrap(), "tenants")
        .unwrap()
        .as_arr("tenants")
        .unwrap();
    assert_eq!(arr.len(), 2);
    let starved = arr
        .iter()
        .map(|t| t.as_obj("tenant").unwrap())
        .find(|t| {
            json::get(t, "name").map(|n| n.as_str("name").unwrap() == "starved").unwrap_or(false)
        })
        .expect("starved tenant is listed");
    // SLO quantiles for the starved tenant's exec phase are served.
    let slo = json::get(starved, "slo").unwrap().as_obj("slo").unwrap();
    let exec = json::get(slo, "exec").unwrap().as_obj("exec").unwrap();
    assert!(json::get(exec, "p50_ms").unwrap().as_f64("p50").unwrap() > 0.0);

    // Unknown routes 404 at the transport level (scrape surfaces an error).
    assert!(scrape(&addr, "/nope").is_err());
}

// ---- 4. the flight ring holds only what no other record holds ----------

/// In-memory WordCount over `lines` distinct lines: collection sources
/// are content-fingerprinted, so a rerun replays from the cache.
fn wordcount_plan(lines: i64, salt: i64) -> RheemPlan {
    let text: Vec<Value> =
        (0..lines).map(|i| Value::from(format!("w{} w{} w{salt}", i % 13, (i * 7) % 31))).collect();
    let mut b = PlanBuilder::new();
    b.collection(text)
        .flat_map(FlatMapUdf::split_whitespace("split"))
        .map(MapUdf::pair_with_int("pair", 1))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .collect();
    b.build().unwrap()
}

/// Stage runs live in the job trace and cache activity in `CacheStats`,
/// so a service running a 1 000-iteration SGD loop and a cold and a warm
/// pass of cached WordCount jobs writes only its four lifecycle events per
/// job (and any watchdog diagnosis) to its ring.
#[test]
fn service_ring_holds_only_job_and_watchdog_events() {
    let _serial = one_at_a_time();
    let ctx = rheem::default_context().with_cache(256 << 20);
    let svc = JobService::new(
        ctx,
        ServiceConfig { runners: 1, ..ServiceConfig::default() },
        vec![TenantSpec::new("t")],
    )
    .unwrap();
    let points: Dataset = Arc::new(rheem_datagen::generate_points(256, 4, 0.05, 7).points);
    let cfg = ml4all::SgdConfig { dims: 4, batch: 64, iterations: 1_000, ..Default::default() };
    let (sgd, _) = ml4all::build_sgd_plan(ml4all::PointSource::InMemory(points), &cfg).unwrap();
    let trace = svc.submit("t", sgd).unwrap().wait().unwrap().trace.expect("traced");
    assert!(trace.runs.len() > 1_000, "every iteration is a traced run");
    let mut jobs = 1;
    for _pass in 0..2 {
        for salt in 0..4 {
            svc.submit("t", wordcount_plan(400, salt)).unwrap().wait().unwrap();
            jobs += 1;
        }
    }
    let stats = svc.context().cache().expect("cache on").stats();
    assert!(stats.inserts > 0 && stats.hits > 0, "the warm pass replays: {stats:?}");

    let rec = svc.recorder();
    assert_eq!(rec.dropped(), 0);
    let events = rec.recent(usize::MAX);
    let mut per_job = std::collections::BTreeMap::<u64, usize>::new();
    for e in &events {
        let kind = e.kind.as_str();
        assert!(kind.starts_with("job.") || kind == "watchdog", "unexpected {kind} event");
        if kind.starts_with("job.") {
            *per_job.entry(e.job.expect("lifecycle events carry their job")).or_default() += 1;
        }
    }
    assert_eq!(per_job.len(), jobs, "{per_job:?}");
    assert!(per_job.values().all(|&n| n == 4), "{per_job:?}");
}
