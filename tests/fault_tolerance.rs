//! Fault injection, concurrency and inter-platform parallelism tests —
//! the §7.1 "basic fault-tolerance mechanism at the cross-platform level"
//! and the executor's parallel-stage virtual-time composition.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

use platform_postgres::{PgDatabase, PostgresPlatform};
use rheem::prelude::*;
use rheem_core::builtin::CONTROL;
use rheem_core::channel::{kinds, ChannelData, ChannelKind};
use rheem_core::cost::{CostModel, Load};
use rheem_core::exec::{ExecCtx, ExecutionOperator};
use rheem_core::fault::{FaultKind, FaultPlan, FaultRule};
use rheem_core::mapping::{Candidate, FnMapping};
use rheem_core::plan::{DataQuanta, LogicalOp, OpKind, PlanBuilder};
use rheem_core::udf::BroadcastCtx;

/// A map operator whose first `fail_times` executions die with a transient
/// error — the injection point for the fault-tolerance test.
struct FlakyMap {
    fails_left: AtomicU32,
}

impl ExecutionOperator for FlakyMap {
    fn name(&self) -> &str {
        "FlakyMap"
    }
    fn platform(&self) -> PlatformId {
        ids::JAVA_STREAMS
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, _in: &[f64], _b: f64, _m: &CostModel) -> Load {
        // dirt cheap so the optimizer picks it over the real JavaMap
        Load::default()
    }
    fn execute(
        &self,
        _ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> rheem_core::error::Result<ChannelData> {
        if self
            .fails_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
        {
            return Err(rheem_core::error::RheemError::Execution(
                "injected transient failure (simulated executor loss)".into(),
            ));
        }
        let data = inputs[0].flatten()?;
        let out: Vec<Value> =
            data.iter().map(|v| Value::from(v.as_int().unwrap_or(0) * 2)).collect();
        Ok(ChannelData::Collection(Arc::new(out)))
    }
}

fn flaky_ctx(fail_times: u32) -> RheemContext {
    let mut ctx = rheem::default_context();
    let flaky = Arc::new(FlakyMap { fails_left: AtomicU32::new(fail_times) });
    ctx.registry_mut().add_mapping(Arc::new(FnMapping(
        move |_p: &rheem_core::plan::RheemPlan, n: &rheem_core::plan::OperatorNode| {
            if n.op.kind() == OpKind::Map {
                if let LogicalOp::Map(u) = &n.op {
                    if &*u.name == "double" {
                        return vec![Candidate::single(
                            n.id,
                            Arc::clone(&flaky) as Arc<dyn ExecutionOperator>,
                        )];
                    }
                }
            }
            vec![]
        },
    )));
    ctx
}

fn double_plan() -> (rheem_core::plan::RheemPlan, rheem_core::plan::OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = b
        .collection((0..100i64).map(Value::from).collect::<Vec<_>>())
        .map(MapUdf::new("double", |v| Value::from(v.as_int().unwrap() * 2)))
        .collect();
    (b.build().unwrap(), sink)
}

#[test]
fn transient_failure_is_retried_and_recovers() {
    let mut ctx = flaky_ctx(1);
    ctx.config_mut().retry_budget = 2;
    // Pin to the flaky operator by making the plan choose it (it is free).
    let (plan, sink) = double_plan();
    let result = ctx.execute(&plan).unwrap();
    assert_eq!(result.sink(sink).unwrap()[0].as_int(), Some(0));
    assert_eq!(result.sink(sink).unwrap()[99].as_int(), Some(198));
    assert!(ctx.metrics().counter("rheem_retries_total") >= 1);
    assert!(result.metrics.retries >= 1);
    assert_eq!(result.metrics.failovers, 0, "survived in place, no failover");
}

#[test]
fn budget_exhaustion_fails_over_to_surviving_platform() {
    // FlakyMap (java.streams) never recovers: the stage exhausts its retry
    // budget, java.streams is blacklisted, and the remainder re-plans onto a
    // surviving platform — the §7.1 "possibly on a different platform".
    let mut ctx = flaky_ctx(u32::MAX);
    ctx.config_mut().retry_budget = 2;
    let (plan, sink) = double_plan();
    let result = ctx.execute(&plan).unwrap();
    assert_eq!(result.sink(sink).unwrap()[0].as_int(), Some(0));
    assert_eq!(result.sink(sink).unwrap()[99].as_int(), Some(198));
    assert!(result.metrics.failovers >= 1, "must report the failover");
    assert!(result.metrics.retries >= 2, "budget was consumed before failover");
    assert!(
        result.metrics.platforms.iter().any(|p| *p == ids::SPARK || *p == ids::FLINK),
        "remainder must run on a surviving platform, got {:?}",
        result.metrics.platforms
    );
    let faults = &result.metrics.faults;
    assert!(faults.iter().any(|f| !f.recovered), "exhaustion must be recorded");
}

#[test]
fn persistent_failure_surfaces_with_failover_disabled() {
    let mut ctx = flaky_ctx(u32::MAX);
    ctx.config_mut().retry_budget = 2;
    ctx.config_mut().failover = false;
    let (plan, _) = double_plan();
    let err = match ctx.execute(&plan) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("expected failure"),
    };
    assert!(err.contains("retry budget exhausted"), "{err}");
    assert!(err.contains("injected transient failure"), "{err}");
}

#[test]
fn concurrent_jobs_share_one_context() {
    let ctx = Arc::new(rheem::default_context());
    let mut handles = Vec::new();
    for t in 0..4i64 {
        let ctx = Arc::clone(&ctx);
        handles.push(std::thread::spawn(move || {
            let mut b = PlanBuilder::new();
            let sink = b
                .collection((0..2_000).map(|i| Value::from(i + t)).collect::<Vec<_>>())
                .filter(PredicateUdf::new("even", |v| v.as_int().unwrap() % 2 == 0))
                .count()
                .collect();
            let plan = b.build().unwrap();
            let result = ctx.execute(&plan).unwrap();
            result.sink(sink).unwrap()[0].as_int().unwrap()
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 1_000);
    }
}

/// Two `execute` calls racing on one context each report only their own
/// retries: a job that is in flight while another job retries reports none.
#[test]
fn concurrent_execute_reports_only_its_own_retries() {
    let (plan_a, _) = double_plan();
    let isolated = flaky_ctx(1).execute(&plan_a).unwrap().metrics.retries;
    assert!(isolated >= 1, "the flaky map must retry");

    let ctx = Arc::new(flaky_ctx(1));
    // 0: B not entered yet, 1: B blocked inside its UDF, 2: B released.
    let latch = Arc::new((Mutex::new(0u8), Condvar::new()));
    let b = {
        let (ctx, latch) = (Arc::clone(&ctx), Arc::clone(&latch));
        std::thread::spawn(move || {
            let mut b = PlanBuilder::new();
            b.collection((0..10i64).map(Value::from).collect::<Vec<_>>())
                .map(MapUdf::new("gate", move |v| {
                    let (state, cv) = &*latch;
                    let mut s = state.lock().unwrap();
                    if *s == 0 {
                        *s = 1;
                        cv.notify_all();
                    }
                    while *s != 2 {
                        s = cv.wait(s).unwrap();
                    }
                    v.clone()
                }))
                .with_target_platform(ids::JAVA_STREAMS)
                .collect();
            ctx.execute(&b.build().unwrap()).unwrap().metrics.retries
        })
    };
    let (state, cv) = &*latch;
    drop(cv.wait_while(state.lock().unwrap(), |s| *s == 0).unwrap());
    let a = ctx.execute(&plan_a).unwrap().metrics.retries;
    *state.lock().unwrap() = 2;
    cv.notify_all();
    assert_eq!(b.join().unwrap(), 0, "B was charged A's retries");
    assert_eq!(a, isolated);
}

/// An explicit fault plan's attempt counters belong to each job: six
/// same-shaped jobs on one context under the same seeded plan meet the same
/// faults, not the first job all of them.
#[test]
fn explicit_fault_plan_counts_attempts_per_job() {
    let mut ctx = rheem::default_context();
    ctx.config_mut().fault_plan = Some(Arc::new(FaultPlan::seeded(0xC0FFEE, 1.0)));
    // Every site fails 1-3 times; a stage's budget covers all of its sites.
    ctx.config_mut().retry_budget = 100;
    let mut b = PlanBuilder::new();
    let rows: Vec<Value> =
        (0..200i64).map(|i| Value::pair(Value::from(i % 7), Value::from(i))).collect();
    b.collection(rows)
        .map(MapUdf::new("same", |v| v.clone()))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .collect();
    let plan = b.build().unwrap();
    let faults = |job: usize| -> Vec<String> {
        let result = ctx.execute(&plan).unwrap_or_else(|e| panic!("job {job}: {e}"));
        result
            .metrics
            .faults
            .iter()
            .map(|f| {
                format!(
                    "{}@{} stage {} iteration {} {:?} attempt {} recovered {}",
                    f.op, f.platform, f.stage, f.iteration, f.kind, f.attempt, f.recovered
                )
            })
            .collect()
    };
    let first = faults(0);
    assert!(!first.is_empty(), "density 1.0 must strike the first job");
    for job in 1..6 {
        assert_eq!(faults(job), first, "job {job} met different faults");
    }
}

/// A rule that fails every `(site, iteration)` once meets the map of
/// `repeat(3, repeat(2, map) ∘ filter)` six times: each of the map's 3 × 2
/// runs has its own iteration path, as each of `repeat(6, map)`'s runs has
/// its own iteration. Every fault is retried in place, so the answer is the
/// fault-free one.
#[test]
fn nested_loop_runs_each_meet_their_own_fault() {
    let int = |v: &Value| v.as_int().unwrap_or(0);
    let inc = move || MapUdf::new("inc", move |v| Value::from(int(v) + 1));
    let flat = |q: DataQuanta| q.repeat(6, |w| w.map(inc()));
    let nested = |q: DataQuanta| {
        q.repeat(3, |w| w.repeat(2, |x| x.map(inc())).filter(PredicateUdf::new("keep", |_| true)))
    };
    let shapes: [(&str, &dyn Fn(DataQuanta) -> DataQuanta); 2] =
        [("flat", &flat), ("nested", &nested)];
    for (name, shape) in shapes {
        let mut b = PlanBuilder::new();
        let sink = shape(b.collection((0..5i64).map(Value::from).collect::<Vec<_>>())).collect();
        let plan = b.build().unwrap();
        let run = |faults: Option<FaultPlan>| {
            let mut ctx = rheem::default_context().with_fusion(false);
            ctx.forced_platform = Some(ids::JAVA_STREAMS);
            ctx.config_mut().fault_plan = faults.map(Arc::new);
            ctx.execute(&plan).unwrap()
        };
        let clean = run(None);
        let rule = FaultRule::new(FaultKind::Transient).on_op("Map");
        let faulty = run(Some(FaultPlan::none().with_rule(rule)));
        assert_eq!(faulty.sink(sink).unwrap(), clean.sink(sink).unwrap(), "{name}");
        let faults = &faulty.metrics.faults;
        assert_eq!(faults.len(), 6, "{name}: {faults:?}");
        assert!(faults.iter().all(|f| f.recovered), "{name}: {faults:?}");
    }
}

#[test]
fn independent_branches_overlap_in_virtual_time() {
    // Two branches pinned to different platforms: the job's virtual time
    // must be well below the sum of sequential execution (inter-platform
    // parallelism, challenge (iv) of §1).
    let mut b = PlanBuilder::new();
    let data: Vec<Value> =
        (0..400_000i64).map(|i| Value::pair(Value::from(i % 1000), Value::from(i))).collect();
    let left = b
        .collection(data.clone())
        .map(MapUdf::new("l", |v| v.clone()))
        .with_target_platform(ids::SPARK)
        .distinct()
        .with_target_platform(ids::SPARK)
        .count();
    let right = b
        .collection(data)
        .map(MapUdf::new("r", |v| v.clone()))
        .with_target_platform(ids::FLINK)
        .distinct()
        .with_target_platform(ids::FLINK)
        .count();
    left.union(&right).collect();
    let plan = b.build().unwrap();
    let ctx = rheem::default_context();
    let result = ctx.execute(&plan).unwrap();
    let total = result.trace.as_ref().expect("tracing is on by default").total_run_virtual_ms();
    assert!(
        result.metrics.virtual_ms < total * 0.85,
        "no overlap: job {} vs serial {}",
        result.metrics.virtual_ms,
        total
    );

    // The polystore Q5 and the multi-sink batch of lake tasks at a tiny
    // TPC-H scale: their independent branches overlap, so the makespan is
    // strictly below the serial sum of stage times, and it is a property of
    // the plan — two back-to-back runs compose it to the same bits. Scaled
    // host time is zeroed (`cpu_scale = 0`) so the virtual clock is purely
    // modelled and the runs compare bit for bit; progressive
    // re-optimization is off because a replan splits the job into phases
    // that run one after the other, which is not what is tested here.
    let data = rheem_datagen::tpch::generate(0.01, 7);
    let placement = rheem::dataciv::place(&data, "fault_tolerance_overlap").unwrap();
    let (q5, _) = rheem::dataciv::build_q5_plan(&placement, "ASIA", 1995).unwrap();
    let (lake_tasks, _) = rheem::dataciv::build_task_batch(&placement).unwrap();
    for (name, plan) in [("q5", &q5), ("task_batch", &lake_tasks)] {
        let makespans: Vec<u64> = (0..2)
            .map(|run| {
                let mut ctx = rheem::default_context();
                ctx.register_platform(&PostgresPlatform::new(Arc::clone(&placement.db)));
                for p in [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK, ids::POSTGRES, CONTROL] {
                    ctx.profiles_mut().get_mut(p).cpu_scale = 0.0;
                }
                ctx.config_mut().progressive = false;
                let result = ctx.execute(plan).unwrap();
                let trace = result.trace.expect("tracing is on by default");
                let serial: f64 =
                    trace.runs.iter().filter(|r| !r.superseded).map(|r| r.virtual_ms).sum();
                let makespan = result.metrics.virtual_ms;
                assert!(
                    makespan < serial,
                    "{name} (run {run}): makespan {makespan} not below serial {serial}"
                );
                makespan.to_bits()
            })
            .collect();
        assert_eq!(makespans[0], makespans[1], "{name}: two runs disagree on virtual_ms");
    }
}

/// Jobs running *on* pool workers finish: every worker, plus the scope
/// owner, holds one job's coordinator at once, so a coordinator that waited
/// on pool work it did not run itself would wait forever.
#[test]
fn coordinators_on_every_pool_worker_do_not_deadlock() {
    let (plan, sink) = double_plan();
    let isolated = rheem::default_context().execute(&plan).unwrap().sink(sink).unwrap().to_vec();
    let jobs = rheem_core::pool::size() + 1;
    let ctx = rheem::default_context();
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let barrier = Barrier::new(jobs);
        let answers = Mutex::new(Vec::new());
        rheem_core::pool::scope(|s| {
            for _ in 0..jobs {
                let (ctx, plan, barrier, answers) = (&ctx, &plan, &barrier, &answers);
                s.spawn(move || {
                    barrier.wait();
                    let out = ctx.execute(plan).unwrap().sink(sink).unwrap().to_vec();
                    answers.lock().unwrap().push(out);
                });
            }
        });
        let _ = tx.send(answers.into_inner().unwrap());
    });
    let answers =
        rx.recv_timeout(Duration::from_secs(60)).expect("coordinators on pool workers deadlocked");
    runner.join().unwrap();
    assert_eq!(answers.len(), jobs);
    for out in answers {
        assert_eq!(out, isolated);
    }
}

/// A map that declares one channel kind but hands over a payload of another
/// layout — a deterministic defect, not a lost executor.
struct Mislabelled {
    platform: PlatformId,
    accepts: Vec<ChannelKind>,
    output: ChannelKind,
    payload: ChannelData,
}

impl ExecutionOperator for Mislabelled {
    fn name(&self) -> &str {
        "Mislabelled"
    }
    fn platform(&self) -> PlatformId {
        self.platform
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        self.accepts.clone()
    }
    fn output_kind(&self) -> ChannelKind {
        self.output
    }
    fn load(&self, _in: &[f64], _b: f64, _m: &CostModel) -> Load {
        Load::default()
    }
    fn execute(
        &self,
        _ctx: &mut ExecCtx<'_>,
        _inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> rheem_core::error::Result<ChannelData> {
        Ok(self.payload.clone())
    }
}

/// Run `collection → map("mislabel") → rest`, with the map executed by
/// `bad` (postgres registered over an empty store when `bad` runs there):
/// the job must fail at once with the typed error naming `operator`, its
/// slot 0 and the layout — no retry spent, no backoff charged, no platform
/// blacklisted for a failure that would repeat anywhere.
fn assert_layout_defect_is_not_retried(
    bad: Mislabelled,
    operator: &str,
    rest: impl Fn(DataQuanta),
) {
    let layout = format!("{:?}", bad.payload);
    let at = format!("{layout} handed to {operator}");
    let platform = bad.platform;
    let mut ctx = rheem::default_context();
    if platform == ids::POSTGRES {
        ctx.register_platform(&PostgresPlatform::new(Arc::new(PgDatabase::new())));
    }
    ctx.config_mut().retry_budget = 2;
    let bad = Arc::new(bad);
    ctx.registry_mut().add_mapping(Arc::new(FnMapping(
        move |_p: &rheem_core::plan::RheemPlan, n: &rheem_core::plan::OperatorNode| match &n.op {
            LogicalOp::Map(u) if &*u.name == "mislabel" => {
                vec![Candidate::single(n.id, Arc::clone(&bad) as Arc<dyn ExecutionOperator>)]
            }
            _ => vec![],
        },
    )));
    let mut b = PlanBuilder::new();
    let rows = b.collection((0..100i64).map(Value::from).collect::<Vec<_>>());
    rest(rows.map(MapUdf::new("mislabel", |v| v.clone())).with_target_platform(platform));
    let plan = b.build().unwrap();
    let err = match ctx.execute(&plan) {
        Err(e) => e,
        Ok(_) => panic!("{at}: must not run\n{}", ctx.explain(&plan).unwrap()),
    };
    let RheemError::Unsupported(msg) = &err else { panic!("{at}: {err}") };
    assert!(!err.is_transient(), "{at}: {err}");
    for part in [operator, "slot 0", &layout] {
        assert!(msg.contains(part), "{at}: {msg:?} names no {part:?}");
    }
}

/// A stage or bridge input of the wrong layout is a plan defect: the chain
/// operator's landing on every dataflow engine, the three bridges of each
/// partitioned engine, spark's cache and postgres' relation landing all
/// reject it with the typed, never-retried error.
#[test]
fn wrong_channel_layout_is_not_retried() {
    let rowless = [
        ChannelData::File(Arc::new("hdfs://tests/fault/nowhere.txt".into())),
        ChannelData::Opaque { kind: kinds::NONE, payload: Arc::new(0u8) },
        ChannelData::None,
    ];
    let fileless = [
        ChannelData::Collection(Arc::new(vec![Value::from(1)])),
        ChannelData::Opaque { kind: kinds::NONE, payload: Arc::new(0u8) },
        ChannelData::None,
    ];
    for engine in [&platform_spark::SPARK, &platform_flink::FLINK] {
        let on_engine = |payload: &ChannelData| Mislabelled {
            platform: engine.platform,
            accepts: engine.accepts.to_vec(),
            output: engine.output,
            payload: payload.clone(),
        };
        // Off every registered platform, so the real map is no candidate.
        let on_driver = |output: ChannelKind, payload: &ChannelData| Mislabelled {
            platform: PlatformId("tests.mislabelling"),
            accepts: vec![kinds::COLLECTION],
            output,
            payload: payload.clone(),
        };
        let label = engine.label;
        let distinct = |q: DataQuanta| {
            q.distinct().with_target_platform(engine.platform).collect();
        };
        for payload in &rowless {
            assert_layout_defect_is_not_retried(
                on_engine(payload),
                &format!("{label}Distinct"),
                distinct,
            );
            assert_layout_defect_is_not_retried(
                on_engine(payload),
                &format!("{label}Collect"),
                |q| {
                    q.collect();
                },
            );
            assert_layout_defect_is_not_retried(
                on_driver(kinds::COLLECTION, payload),
                &format!("{label}{}", engine.from_collection),
                distinct,
            );
        }
        for payload in &fileless {
            assert_layout_defect_is_not_retried(
                on_driver(kinds::HDFS_FILE, payload),
                &format!("{label}ReadTextFile"),
                distinct,
            );
        }
    }
    // java.streams lands the driver's collection as its one partition.
    for payload in &rowless {
        let bad = Mislabelled {
            platform: ids::JAVA_STREAMS,
            accepts: vec![kinds::COLLECTION],
            output: kinds::COLLECTION,
            payload: payload.clone(),
        };
        assert_layout_defect_is_not_retried(bad, "JavaDistinct", |q| {
            q.distinct().with_target_platform(ids::JAVA_STREAMS).collect();
        });
    }
    // Postgres lands relations: in its operators and in the export cursor.
    let relationless = [
        ChannelData::File(Arc::new("hdfs://tests/fault/nowhere.txt".into())),
        ChannelData::None,
        ChannelData::Opaque { kind: platform_postgres::RELATION, payload: Arc::new(0u8) },
    ];
    for payload in &relationless {
        let on_postgres = || Mislabelled {
            platform: ids::POSTGRES,
            accepts: vec![platform_postgres::RELATION],
            output: platform_postgres::RELATION,
            payload: payload.clone(),
        };
        assert_layout_defect_is_not_retried(on_postgres(), "PgDistinct", |q| {
            q.distinct().with_target_platform(ids::POSTGRES).collect();
        });
        assert_layout_defect_is_not_retried(on_postgres(), "PgExport", |q| {
            q.collect();
        });
    }
    // Two consumers make spark cache the mislabelled RDD.
    for payload in &rowless {
        let bad = Mislabelled {
            platform: ids::SPARK,
            accepts: vec![platform_spark::RDD],
            output: platform_spark::RDD,
            payload: payload.clone(),
        };
        assert_layout_defect_is_not_retried(bad, "SparkCache", |q| {
            let twice = q.distinct().with_target_platform(ids::SPARK);
            twice.union(&q.count().with_target_platform(ids::SPARK)).collect();
        });
    }
}
