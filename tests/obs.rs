//! Observability-plane integration suite (PR 8).
//!
//! Locks down the live observability claims end to end:
//!
//! 1. **Job records**: the service keeps one `JobRecord` per finished or
//!    refused job. A rejection, a panic and a seeded fault plan's retries
//!    each show on the job's record, and `/flight` serves the record ring
//!    and the watchdog's sweep ring as deterministic JSON that parses with
//!    the repo's own `trace::json` parser.
//! 2. **Prometheus exposition invariants** hold on a real multi-tenant
//!    service run: one `# TYPE` per family, labels merged before `le`,
//!    cumulative buckets ending in `+Inf`, deterministic double-snapshot.
//! 3. **Watchdog end-to-end**: a synthetically starved tenant and an
//!    injected straggler stage driven through the live service are flagged
//!    — and only they are — via `rheem_watchdog_*` metrics, the straggler
//!    verdict sits on the straggler job's record, and `/metrics`,
//!    `/healthz` and `/flight` are scraped concurrently over real TCP.
//! 4. **One record per fact**: stage runs live in the job trace and cache
//!    activity in `CacheStats`, so the service keeps exactly one record per
//!    job, whatever the job's iteration count or cache traffic.

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

// ---- 1. job records ------------------------------------------------------

/// A one-row job whose map panics with `msg`.
fn panicking_plan(msg: &'static str) -> RheemPlan {
    let mut b = PlanBuilder::new();
    b.collection(vec![Value::from(1i64)])
        .map(MapUdf::new("boom", move |_: &Value| -> Value { panic!("{msg}") }))
        .collect();
    b.build().unwrap()
}

/// A rejected submission, a panicking job and jobs under a seeded fault
/// plan each leave one record that says what happened to them.
#[test]
fn job_records_name_rejections_panics_and_retries() {
    let _serial = one_at_a_time();
    let mut ctx = rheem::default_context();
    // A fresh seeded fault plan per job: under seed 7 each WordCount job
    // below retries twice and fails over once.
    ctx.config_mut().chaos_seed = Some(7);
    let config = ServiceConfig { runners: 1, ..ServiceConfig::default() };
    let svc = JobService::new(ctx, config, vec![TenantSpec::new("t")]).unwrap();

    assert!(matches!(svc.submit("nobody", regular_plan(0)), Err(RheemError::Rejected { .. })));
    let boom = svc.submit("t", panicking_plan("udf exploded")).unwrap();
    let boom_id = boom.id;
    assert!(boom.wait().is_err());
    let mut retries = Vec::new();
    for salt in 1..7 {
        let h = svc.submit("t", wordcount_plan(400, salt)).unwrap();
        let id = h.id;
        retries.push((id, h.wait().unwrap().metrics.retries));
    }
    assert!(retries.iter().all(|&(_, n)| n > 0), "the fault plan missed a job: {retries:?}");

    let records = svc.records();
    assert_eq!(records.len(), 8, "{records:?}");
    let rejected = &records[0];
    assert_eq!((rejected.tenant.as_str(), rejected.job), ("nobody", None));
    assert_eq!(rejected.outcome, JobOutcome::Rejected("unknown tenant".into()));
    let failed = &records[1];
    assert_eq!(failed.job, Some(boom_id));
    match &failed.outcome {
        JobOutcome::Failed(msg) => assert!(
            msg.contains(&format!("job {boom_id} panicked")) && msg.contains("udf exploded"),
            "{msg}"
        ),
        other => panic!("a panicking job must leave a failed record, got {other:?}"),
    }
    let recorded: Vec<(u64, u32)> =
        records[2..].iter().map(|r| (r.job.unwrap(), r.retries)).collect();
    assert_eq!(recorded, retries, "a record's retries are its job's");
    assert!(records[2..].iter().all(|r| r.outcome == JobOutcome::Completed));
}

/// `/flight` is deterministic, keeps quotes in tenant names and error
/// messages intact, parses with the repo's own JSON reader, and its `n`
/// keeps the most recent records.
#[test]
fn flight_dump_parses_and_is_deterministic() {
    let _serial = one_at_a_time();
    let config = ServiceConfig { runners: 1, ..ServiceConfig::default() };
    let tenants = vec![TenantSpec::new("a"), TenantSpec::new("a\"quote")];
    let svc = JobService::new(rheem::default_context(), config, tenants).unwrap();
    let addr = svc.serve("127.0.0.1:0").unwrap().to_string();
    let ok = svc.submit("a", regular_plan(0)).unwrap();
    let ok_id = ok.id;
    ok.wait().unwrap();
    assert!(svc.submit("a\"quote", panicking_plan("done \"ok\"")).unwrap().wait().is_err());
    assert!(svc.submit("x\"y", regular_plan(1)).is_err());

    let dump = scrape(&addr, "/flight").unwrap();
    assert_eq!(dump, scrape(&addr, "/flight").unwrap(), "dump is deterministic");
    let doc = json::parse(&dump).expect("dump parses with the repo's own parser");
    let obj = doc.as_obj("dump").unwrap();
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["jobs", "watchdog"]);
    let jobs = json::get(obj, "jobs").unwrap().as_arr("jobs").unwrap();
    assert_eq!(jobs.len(), 3);
    let str_of = |o: &json::Json, k: &str| -> String {
        json::get(o.as_obj("record").unwrap(), k).unwrap().as_str(k).unwrap().to_string()
    };
    let first = jobs[0].as_obj("record").unwrap();
    assert_eq!(json::get(first, "job").unwrap().as_f64("job").unwrap(), ok_id as f64);
    assert_eq!(str_of(&jobs[0], "outcome"), "completed");
    assert!(json::get(first, "exec_ms").unwrap().as_f64("exec_ms").unwrap() > 0.0);
    // Quotes in tenant and detail strings survive the round trip.
    assert_eq!(str_of(&jobs[1], "tenant"), "a\"quote");
    assert_eq!(str_of(&jobs[1], "outcome"), "failed");
    assert!(str_of(&jobs[1], "detail").ends_with("panicked: done \"ok\""));
    assert_eq!(str_of(&jobs[2], "tenant"), "x\"y");
    assert_eq!(str_of(&jobs[2], "outcome"), "rejected");
    let last = jobs[2].as_obj("record").unwrap();
    assert_eq!(json::get(last, "job").unwrap(), &json::Json::Null);
    // The `n` limit keeps the most recent records.
    let tail = json::parse(&scrape(&addr, "/flight?n=1").unwrap()).unwrap();
    let tail_jobs =
        json::get(tail.as_obj("dump").unwrap(), "jobs").unwrap().as_arr("jobs").unwrap();
    assert_eq!(tail_jobs, &jobs[2..]);
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
    let straggler_id = handles[0].id;
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

    // The straggler verdict sits on the straggler job's record, and on no
    // other.
    let records = service.records();
    assert_eq!(records.len(), 10);
    for r in &records {
        let want = usize::from(r.job == Some(straggler_id));
        assert_eq!(r.stragglers.len(), want, "{r:?}");
    }

    // The scraped exposition satisfies the Prometheus invariants and the
    // flight dump parses and holds every job's record and the sweeps'
    // diagnoses.
    validate_exposition(&prom).expect("scraped exposition is well-formed");
    assert!(prom.contains("rheem_watchdog_straggler_total{tenant=\"heavy\"} 1"));
    let doc = json::parse(&flight).unwrap();
    let obj = doc.as_obj("flight").unwrap();
    let jobs = json::get(obj, "jobs").unwrap().as_arr("jobs").unwrap();
    assert_eq!(jobs.len(), 10);
    let kinds = |arr: &[json::Json]| -> Vec<String> {
        arr.iter()
            .map(|d| {
                let d = d.as_obj("diagnosis").unwrap();
                json::get(d, "kind").unwrap().as_str("kind").unwrap().to_string()
            })
            .collect()
    };
    let on_records: Vec<String> = jobs
        .iter()
        .flat_map(|j| {
            let j = j.as_obj("record").unwrap();
            kinds(json::get(j, "stragglers").unwrap().as_arr("stragglers").unwrap())
        })
        .collect();
    assert_eq!(on_records, ["straggler"]);
    let sweeps = json::get(obj, "watchdog").unwrap().as_arr("watchdog").unwrap();
    assert!(!sweeps.is_empty());
    assert!(kinds(sweeps).iter().all(|k| k == "starvation"), "{sweeps:?}");
    for d in sweeps {
        let tenant = json::get(d.as_obj("diagnosis").unwrap(), "tenant").unwrap();
        assert_eq!(tenant.as_str("tenant").unwrap(), "starved");
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
/// pass of cached WordCount jobs keeps exactly one record per job, and its
/// `/flight` view holds only the job records and the watchdog's sweep
/// diagnoses.
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

    // Nothing dropped, one record per job, in completion order.
    let records = svc.records();
    let ids: Vec<u64> =
        records.iter().map(|r| r.job.expect("finished jobs carry their id")).collect();
    assert_eq!(ids, (0..jobs as u64).collect::<Vec<_>>(), "{records:?}");
    assert!(records.iter().all(|r| r.outcome == JobOutcome::Completed), "{records:?}");

    let addr = svc.serve("127.0.0.1:0").unwrap().to_string();
    let doc = json::parse(&scrape(&addr, "/flight").unwrap()).unwrap();
    let obj = doc.as_obj("flight").unwrap();
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["jobs", "watchdog"], "unexpected record kinds");
    assert_eq!(json::get(obj, "jobs").unwrap().as_arr("jobs").unwrap().len(), jobs);
}
