//! Cardinality estimation (§4.1).
//!
//! The optimizer annotates every operator of the inflated plan with an
//! interval output-cardinality estimate. Source cardinalities come from the
//! data itself (collections), file sampling (text sources), or
//! platform-provided estimators (relational tables); inner operators apply
//! per-kind estimator functions driven by selectivity hints. Confidence
//! decays per estimation hop, which later steers optimization-checkpoint
//! placement (§4.4).

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::cost::Interval;
use crate::error::Result;
use crate::plan::{LogicalOp, OpKind, OperatorId, RheemPlan, SampleSize};
use crate::value::avg_quantum_bytes;

/// Pluggable source-cardinality provider (e.g. the Postgres simulacrum
/// reports its table sizes).
pub type SourceEstimator = Arc<dyn Fn(&LogicalOp) -> Option<f64> + Send + Sync>;

/// Default selectivities per operator kind, overridable per node via
/// [`RheemPlan::set_selectivity`] (the paper's UDF-supplied selectivities).
pub fn default_selectivity(kind: OpKind) -> f64 {
    match kind {
        OpKind::Filter | OpKind::SargFilter => 0.5,
        // inequality joins hunt for rare violating pairs
        OpKind::InequalityJoin => 0.01,
        OpKind::FlatMap => 4.0,
        OpKind::Distinct => 0.5,
        OpKind::ReduceBy | OpKind::GroupBy => 0.1,
        _ => 1.0,
    }
}

/// Per-operator annotations produced by estimation.
#[derive(Clone, Debug)]
pub struct Estimates {
    /// Output cardinality per operator (indexed by operator id).
    pub card: Vec<Interval>,
    /// Cost multiplier from enclosing loops (≥ 1).
    pub iter_factor: Vec<f64>,
    /// Average quantum size in bytes flowing out of each operator.
    pub avg_bytes: Vec<f64>,
}

impl Estimates {
    /// Output cardinality of one operator.
    pub fn out_card(&self, id: OperatorId) -> Interval {
        self.card[id.index()]
    }

    /// Input cardinalities of a node (its producers' outputs).
    pub fn in_cards(&self, plan: &RheemPlan, id: OperatorId) -> Vec<Interval> {
        plan.node(id).inputs.iter().map(|&i| self.card[i.index()]).collect()
    }
}

/// Estimate by sampling a text file: average line length from a 64 KB probe
/// scaled to the file size (the paper computes source cardinalities via
/// sampling). Understands `hdfs://` URIs via the storage substrate.
///
/// The probe runs once per file version: estimates are remembered under
/// `(path, len, mtime_ns)`, the file identity the result cache's
/// fingerprints already trust, so a rewrite is re-probed and a job over an
/// unchanged file costs one `stat`. The memo keeps the last 64 versions
/// (`TEXT_ESTIMATE_MEMO`).
pub fn estimate_text_file_lines(path: &Path) -> Option<(f64, f64)> {
    let meta = rheem_storage::stat_meta(path).ok()?;
    let key = (path.to_path_buf(), meta.len, meta.mtime_ns);
    if let Some(&(_, est)) =
        TEXT_ESTIMATES.lock().expect("text estimate memo poisoned").iter().find(|(k, _)| *k == key)
    {
        return Some(est);
    }
    let size = meta.len as f64;
    let est = if size == 0.0 {
        (0.0, 1.0)
    } else {
        let probe = rheem_storage::read_head(path, 64 * 1024).ok()?;
        let lines = probe.iter().filter(|&&b| b == b'\n').count().max(1);
        let avg_line = probe.len() as f64 / lines as f64;
        (size / avg_line.max(1.0), avg_line)
    };
    let mut memo = TEXT_ESTIMATES.lock().expect("text estimate memo poisoned");
    if !memo.iter().any(|(k, _)| *k == key) {
        if memo.len() == TEXT_ESTIMATE_MEMO {
            memo.pop_front();
        }
        memo.push_back((key, est));
    }
    Some(est)
}

/// File versions whose text estimates are remembered.
const TEXT_ESTIMATE_MEMO: usize = 64;

/// `((path, len, mtime_ns), (lines, avg line bytes))`, oldest first.
type TextEstimates = VecDeque<((std::path::PathBuf, u64, u128), (f64, f64))>;

static TEXT_ESTIMATES: Mutex<TextEstimates> = Mutex::new(VecDeque::new());

/// The cardinality estimator. Holds source estimators and per-job overrides
/// (the progressive optimizer injects measured cardinalities here, §4.4).
#[derive(Clone, Default)]
pub struct Estimator {
    source_estimators: Vec<SourceEstimator>,
    /// Known true cardinalities (measured by the executor) that pin estimates.
    pub overrides: HashMap<OperatorId, f64>,
    /// Expected iterations assumed for `DoWhile` loops.
    pub dowhile_expected_iters: f64,
}

impl Estimator {
    /// Fresh estimator.
    pub fn new() -> Self {
        Self { dowhile_expected_iters: 10.0, ..Self::default() }
    }

    /// Register a source estimator.
    pub fn add_source_estimator(&mut self, e: SourceEstimator) {
        self.source_estimators.push(e);
    }

    fn source_card(&self, op: &LogicalOp) -> Option<f64> {
        self.source_estimators.iter().find_map(|e| e(op))
    }

    /// Annotate a plan bottom-up (Fig. 6's purple boxes).
    pub fn estimate(&self, plan: &RheemPlan) -> Result<Estimates> {
        let n = plan.len();
        let mut card = vec![Interval::point(0.0); n];
        let mut avg_bytes = vec![64.0f64; n];
        let mut iter_factor = vec![1.0f64; n];

        // Loop iteration factors first: each op inside a loop runs
        // `iterations` times (nested loops multiply).
        for node in plan.operators() {
            let mut f = 1.0;
            let mut cur = node.loop_of;
            let mut guard = 0;
            while let Some(l) = cur {
                f *= match &plan.node(l).op {
                    LogicalOp::RepeatLoop { iterations } => *iterations as f64,
                    LogicalOp::DoWhile { max_iterations, .. } => {
                        self.dowhile_expected_iters.min(*max_iterations as f64)
                    }
                    _ => 1.0,
                };
                cur = plan.node(l).loop_of;
                guard += 1;
                if guard > 64 {
                    break;
                }
            }
            iter_factor[node.id.index()] = f;
        }

        for id in plan.topological_order()? {
            let node = plan.node(id);
            let i = id.index();
            let sel = node.selectivity.unwrap_or_else(|| default_selectivity(node.op.kind()));
            let ins: Vec<Interval> = node.inputs.iter().map(|&p| card[p.index()]).collect();
            let in_bytes: Vec<f64> = node.inputs.iter().map(|&p| avg_bytes[p.index()]).collect();
            let (est, bytes) = self.estimate_one(&node.op, sel, &ins, &in_bytes);
            card[i] = if let Some(&known) = self.overrides.get(&id) {
                Interval::point(known)
            } else {
                est
            };
            avg_bytes[i] = bytes;
        }
        Ok(Estimates { card, iter_factor, avg_bytes })
    }

    fn estimate_one(
        &self,
        op: &LogicalOp,
        sel: f64,
        ins: &[Interval],
        in_bytes: &[f64],
    ) -> (Interval, f64) {
        let one_in = ins.first().copied().unwrap_or(Interval::point(0.0));
        let b0 = in_bytes.first().copied().unwrap_or(64.0);
        match op {
            LogicalOp::CollectionSource { data } => {
                (Interval::point(data.len() as f64), avg_quantum_bytes(data))
            }
            LogicalOp::TextFileSource { path } => match estimate_text_file_lines(path) {
                Some((lines, avg_line)) => {
                    (Interval::point(lines).widen(0.1, 0.9), avg_line.max(8.0))
                }
                None => (Interval::new(0.0, 1e9, 0.1), 64.0),
            },
            LogicalOp::TableSource { .. } => match self.source_card(op) {
                Some(rows) => (Interval::point(rows), 64.0),
                None => (Interval::new(0.0, 1e9, 0.1), 64.0),
            },
            LogicalOp::Map(_) => (one_in.widen(0.0, 1.0), b0),
            LogicalOp::Project { fields } => {
                (one_in, (b0 * fields.len().max(1) as f64 / 4.0).clamp(8.0, b0))
            }
            LogicalOp::FlatMap(_) => (one_in.scale(sel).widen(0.3, 0.7), (b0 / 2.0).max(8.0)),
            LogicalOp::Filter(_) | LogicalOp::SargFilter { .. } => {
                (one_in.scale(sel).widen(0.5, 0.7), b0)
            }
            LogicalOp::Sample { size, .. } => {
                let out = match size {
                    SampleSize::Count(c) => Interval::new(
                        (*c as f64).min(one_in.lo),
                        (*c as f64).min(one_in.hi.max(*c as f64)),
                        one_in.conf,
                    ),
                    SampleSize::Fraction(f) => one_in.scale(*f),
                };
                (out, b0)
            }
            LogicalOp::SortBy(_) | LogicalOp::Distinct if sel != 1.0 => {
                (one_in.scale(sel).widen(0.3, 0.8), b0)
            }
            LogicalOp::SortBy(_) => (one_in, b0),
            LogicalOp::Distinct => (one_in.scale(0.5).widen(0.5, 0.7), b0),
            LogicalOp::Count | LogicalOp::Reduce(_) => (Interval::point(1.0), b0),
            LogicalOp::GroupBy(_) | LogicalOp::ReduceBy { .. } => {
                (one_in.scale(sel).widen(0.5, 0.7), b0 * 1.2)
            }
            LogicalOp::Union => {
                let r = ins.get(1).copied().unwrap_or(Interval::point(0.0));
                (one_in.add(&r), (b0 + in_bytes.get(1).copied().unwrap_or(b0)) / 2.0)
            }
            LogicalOp::Join { .. } => {
                let l = one_in;
                let r = ins.get(1).copied().unwrap_or(Interval::point(0.0));
                // FK-join default: |out| ≈ sel · max(|L|, |R|); sel=1 default.
                let out = Interval::new(
                    (l.lo.min(r.lo)) * sel,
                    (l.hi.max(r.hi)) * sel,
                    l.conf * r.conf * 0.8,
                );
                (out, b0 + in_bytes.get(1).copied().unwrap_or(b0))
            }
            LogicalOp::Cartesian | LogicalOp::InequalityJoin { .. } => {
                let l = one_in;
                let r = ins.get(1).copied().unwrap_or(Interval::point(0.0));
                let s = if matches!(op, LogicalOp::Cartesian) { 1.0 } else { sel.min(1.0) * 0.1 };
                (l.mul(&r).scale(s).widen(0.5, 0.5), b0 + in_bytes.get(1).copied().unwrap_or(b0))
            }
            LogicalOp::PageRank { .. } => {
                // Edges in, vertices out; vertices ≈ edges / avg-degree (≈8).
                (one_in.scale(0.125).widen(0.5, 0.6), 24.0)
            }
            LogicalOp::RepeatLoop { .. } | LogicalOp::DoWhile { .. } => {
                // The loop relays its initial input's shape.
                (one_in, b0)
            }
            LogicalOp::CollectionSink | LogicalOp::TextFileSink { .. } => (one_in, b0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::udf::{FlatMapUdf, KeyUdf, MapUdf, PredicateUdf, ReduceUdf};
    use crate::value::Value;
    use std::io::Write;

    fn est(plan: &RheemPlan) -> Estimates {
        Estimator::new().estimate(plan).unwrap()
    }

    #[test]
    fn collection_source_is_exact() {
        let mut b = PlanBuilder::new();
        let s = b.collection(vec![Value::from(1), Value::from(2)]);
        s.collect();
        let plan = b.build().unwrap();
        let e = est(&plan);
        let c = e.out_card(OperatorId(0));
        assert_eq!((c.lo, c.hi, c.conf), (2.0, 2.0, 1.0));
    }

    #[test]
    fn filter_applies_selectivity_and_widens() {
        let mut b = PlanBuilder::new();
        let s = b
            .collection((0..100).map(Value::from).collect::<Vec<_>>())
            .filter(PredicateUdf::new("p", |_| true))
            .with_selectivity(0.2);
        s.collect();
        let plan = b.build().unwrap();
        let e = est(&plan);
        let c = e.out_card(OperatorId(1));
        assert!(c.lo < 20.0 && c.hi > 20.0, "{c:?}");
        assert!(c.conf < 1.0);
    }

    #[test]
    fn reduce_and_count_collapse_to_one() {
        let mut b = PlanBuilder::new();
        let s = b.collection((0..50).map(Value::from).collect::<Vec<_>>());
        s.count().collect();
        let plan = b.build().unwrap();
        let e = est(&plan);
        assert_eq!(e.out_card(OperatorId(1)).hi, 1.0);
    }

    #[test]
    fn cartesian_multiplies() {
        let mut b = PlanBuilder::new();
        let l = b.collection((0..10).map(Value::from).collect::<Vec<_>>());
        let r = b.collection((0..20).map(Value::from).collect::<Vec<_>>());
        l.cartesian(&r).collect();
        let plan = b.build().unwrap();
        let e = est(&plan);
        let c = e.out_card(OperatorId(2));
        assert!(c.hi >= 200.0 && c.lo <= 200.0, "{c:?}");
    }

    #[test]
    fn loop_bodies_get_iteration_factor() {
        let mut b = PlanBuilder::new();
        let init = b.collection(vec![Value::from(0)]);
        init.repeat(7, |w| w.map(MapUdf::new("inc", |v| v.clone()))).collect();
        let plan = b.build().unwrap();
        let e = est(&plan);
        let body = plan.operators().iter().find(|n| n.loop_of.is_some()).unwrap();
        assert_eq!(e.iter_factor[body.id.index()], 7.0);
        assert_eq!(e.iter_factor[0], 1.0);
    }

    #[test]
    fn nested_loop_bodies_multiply_iteration_factors() {
        let mut b = PlanBuilder::new();
        let init = b.collection(vec![Value::from(0)]);
        let id = || MapUdf::new("same", |v| v.clone());
        let (mut outer_body, mut inner_body) = (None, None);
        init.repeat(3, |w| {
            let o = w.map(id());
            outer_body = Some(o.id());
            o.repeat(2, |x| {
                let i = x.map(id());
                inner_body = Some(i.id());
                i
            })
        })
        .collect();
        let plan = b.build().unwrap();
        let e = est(&plan);
        assert_eq!(e.iter_factor[outer_body.unwrap().index()], 3.0);
        assert_eq!(e.iter_factor[inner_body.unwrap().index()], 6.0, "inner × outer");
    }

    #[test]
    fn overrides_pin_estimates() {
        let mut b = PlanBuilder::new();
        let s = b
            .collection((0..100).map(Value::from).collect::<Vec<_>>())
            .filter(PredicateUdf::new("p", |_| true));
        s.collect();
        let plan = b.build().unwrap();
        let mut estr = Estimator::new();
        estr.overrides.insert(OperatorId(1), 3.0);
        let e = estr.estimate(&plan).unwrap();
        assert_eq!(e.out_card(OperatorId(1)), Interval::point(3.0));
    }

    #[test]
    fn text_file_sampling_estimates_lines() {
        let dir = std::env::temp_dir().join("rheem_card_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.txt");
        let mut f = std::fs::File::create(&path).unwrap();
        for i in 0..1000 {
            writeln!(f, "line number {i}").unwrap();
        }
        drop(f);
        let (lines, avg) = estimate_text_file_lines(&path).unwrap();
        assert!((lines - 1000.0).abs() < 100.0, "{lines}");
        assert!(avg > 5.0);
    }

    /// A rewrite that changes the file's length is a new version: it is
    /// probed again, not served from the memo.
    #[test]
    fn rewriting_a_text_file_changes_its_estimate() {
        let dir = std::env::temp_dir().join("rheem_card_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rewritten.txt");
        std::fs::write(&path, "a short line\n".repeat(100)).unwrap();
        let before = estimate_text_file_lines(&path).unwrap();
        assert_eq!(estimate_text_file_lines(&path).unwrap(), before, "same version, same estimate");
        std::fs::write(&path, "a somewhat longer line than before\n".repeat(300)).unwrap();
        let after = estimate_text_file_lines(&path).unwrap();
        assert_ne!(after, before, "the rewrite was served from the memo");
        assert!((after.0 - 300.0).abs() < 1.0, "{after:?}");
    }

    #[test]
    fn the_text_estimate_memo_stays_within_its_capacity() {
        let dir = std::env::temp_dir().join("rheem_card_test").join("memo_capacity");
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..TEXT_ESTIMATE_MEMO + 10 {
            let path = dir.join(format!("f{i}.txt"));
            std::fs::write(&path, format!("line {i}\n")).unwrap();
            estimate_text_file_lines(&path).unwrap();
            let len = TEXT_ESTIMATES.lock().unwrap().len();
            assert!(len <= TEXT_ESTIMATE_MEMO, "memo grew to {len} after {} files", i + 1);
        }
    }

    #[test]
    fn wordcount_pipeline_estimates_flow() {
        let mut b = PlanBuilder::new();
        b.collection(vec![Value::from("a b c d")])
            .flat_map(FlatMapUdf::new("split", |v| {
                v.as_str().unwrap().split_whitespace().map(Value::from).collect()
            }))
            .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
            .reduce_by_key(KeyUdf::field(0), ReduceUdf::sum())
            .collect();
        let plan = b.build().unwrap();
        let e = est(&plan);
        // flatmap grows, reduceby shrinks
        assert!(e.out_card(OperatorId(1)).mid() > e.out_card(OperatorId(0)).mid());
        assert!(e.out_card(OperatorId(3)).mid() < e.out_card(OperatorId(2)).mid());
    }
}
