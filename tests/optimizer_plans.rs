//! The optimizer's answers on the paper's four applications, pinned.
//!
//! `rheem-core`'s own tests compare the enumeration against a reference that
//! settles every partial's data movement from scratch, but only on plan
//! *shapes* over stand-in engines (core cannot see the platform crates).
//! These are the real plans on the real platforms: chosen alternatives,
//! `est_ms` to the bit and the enumeration counts, as measured before
//! movement settlement was memoised. A change that moves them is a change
//! to plan quality, not to how fast the same plan is found — regenerate the
//! table from the assertion message only for a change that means to.

use std::path::PathBuf;
use std::sync::Arc;

use rheem::prelude::*;
use rheem_core::optimizer::OptimizedPlan;

/// `(candidates, partials_created, partials_pruned, est_ms bits, choice)`.
type Pin = (usize, usize, usize, u64, &'static [usize]);

fn assert_pinned(what: &str, opt: &OptimizedPlan, pin: Pin) {
    let s = opt.stats;
    assert_eq!(
        (
            s.candidates,
            s.partials_created,
            s.partials_pruned,
            opt.est_ms.to_bits(),
            &opt.choice[..]
        ),
        pin,
        "{what}: the optimizer's answer moved (est_ms {} = {:#x})",
        opt.est_ms,
        opt.est_ms.to_bits()
    );
    assert!(s.movement_solves <= s.movement_settlements, "{what}: {s:?}");
}

#[test]
fn wordcount_plan_is_pinned() {
    let path = PathBuf::from("hdfs://tests/optimizer_plans/corpus_256kb.txt");
    rheem_datagen::text::write_corpus(&path, 256, 5).unwrap();
    let mut b = PlanBuilder::new();
    b.read_text_file(path)
        .flat_map(FlatMapUdf::split_whitespace("split"))
        .map(MapUdf::pair_with_int("pair", 1))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .collect();
    let opt = rheem::default_context().optimize(&b.build().unwrap()).unwrap();
    assert_pinned("wordcount", &opt, (19, 127, 72, 0x4059ba0862e5491a, &[0, 13, 13, 13, 18]));
}

#[test]
fn sgd_plan_is_pinned() {
    let points = Arc::new(rheem_datagen::generate_points(10_000, 4, 0.05, 9).points);
    let cfg = rheem::ml4all::SgdConfig { iterations: 15, batch: 64, ..Default::default() };
    let (plan, _) =
        rheem::ml4all::build_sgd_plan(rheem::ml4all::PointSource::InMemory(points), &cfg).unwrap();
    let opt = rheem::default_context().optimize(&plan).unwrap();
    assert_pinned("sgd", &opt, (19, 121, 68, 0x406c95096bb98c80, &[0, 1, 2, 3, 6, 9, 12, 15, 18]));
}

#[test]
fn crocopr_plan_is_pinned() {
    let fa = PathBuf::from("hdfs://tests/optimizer_plans/community_a.edges");
    let fb = PathBuf::from("hdfs://tests/optimizer_plans/community_b.edges");
    let ea = rheem_datagen::generate_graph(2_500, 4, 5);
    let eb: Vec<(i64, i64)> =
        ea.iter().enumerate().filter(|(i, _)| i % 3 != 0).map(|(_, e)| *e).collect();
    rheem_datagen::graph::write_graph(&fa, &ea).unwrap();
    rheem_datagen::graph::write_graph(&fb, &eb).unwrap();
    let (plan, _) =
        rheem::xdb::build_crocopr_plan(rheem::xdb::CrocoSource::Files(fa, fb), 5).unwrap();
    let db = Arc::new(rheem::platform_postgres::PgDatabase::new());
    let opt = rheem::full_context(db).optimize(&plan).unwrap();
    assert_pinned(
        "crocopr",
        &opt,
        (
            60,
            4069,
            2953,
            0x407e52818588479b,
            &[0, 15, 7, 27, 15, 21, 27, 33, 38, 42, 50, 55, 56, 59],
        ),
    );
}

const Q5_CHOICE: [usize; 32] = [
    13, 13, 13, 14, 20, 24, 28, 29, 33, 37, 41, 42, 46, 50, 54, 55, 63, 63, 69, 73, 77, 80, 84, 91,
    95, 99, 106, 113, 117, 121, 125, 126,
];

#[test]
fn q5_plan_is_pinned() {
    let data = rheem_datagen::tpch::generate(1.0, 3);
    let placement = rheem::dataciv::place(&data, "optimizer_plans_q5").unwrap();
    let (plan, _) = rheem::dataciv::build_q5_plan(&placement, "ASIA", 1995).unwrap();
    let opt = rheem::full_context(Arc::clone(&placement.db)).optimize(&plan).unwrap();
    assert_pinned("q5", &opt, (127, 20375, 15514, 0x408b7d5e4fdbb267, &Q5_CHOICE));
}
