//! The IEJoin algorithm \[42\]: fast sort-based inequality joins.
//!
//! For a join on two inequality conditions `L.a op1 R.b ∧ L.c op2 R.d`,
//! IEJoin replaces the O(n·m) nested loop with sorting plus an ordered
//! sweep: rights are visited in `op1`-order while lefts satisfying the
//! first condition stream into an ordered index on the second attribute;
//! each right then reports its matches with an ordered range scan. Total
//! cost `O((n+m)·log(n+m) + |output|)` — the complexity class of the
//! published permutation-array algorithm, realized with a B-tree index.

use std::collections::BTreeMap;
use std::sync::Arc;

use rheem_core::channel::{kinds, ChannelData, ChannelKind};
use rheem_core::cost::{linear_cpu, CostModel, Load};
use rheem_core::error::Result;
use rheem_core::exec::{dataset_bytes, OpMetrics};
use rheem_core::exec::{ExecCtx, ExecutionOperator};
use rheem_core::plan::IneqCond;
use rheem_core::platform::{ids, PlatformId};
use rheem_core::udf::{BroadcastCtx, CmpOp};
use rheem_core::value::Value;

/// Join two relations on the conjunction of two inequality conditions,
/// emitting `(left, right)` pairs. Produces exactly the pairs a nested loop
/// would, in unspecified order.
pub fn iejoin(left: &[Value], right: &[Value], c1: &IneqCond, c2: &IneqCond) -> Vec<Value> {
    if left.is_empty() || right.is_empty() {
        return Vec::new();
    }

    // Keyed views.
    let mut lefts: Vec<(Value, Value, usize)> = left
        .iter()
        .enumerate()
        .map(|(i, t)| (t.field(c1.left_field).clone(), t.field(c2.left_field).clone(), i))
        .collect();
    let mut rights: Vec<(Value, Value, usize)> = right
        .iter()
        .enumerate()
        .map(|(i, t)| (t.field(c1.right_field).clone(), t.field(c2.right_field).clone(), i))
        .collect();

    // Sweep direction for condition 1: ascending for < / ≤ (the set of
    // qualifying lefts grows with the right key), descending for > / ≥.
    let ascending = matches!(c1.op, CmpOp::Lt | CmpOp::Le);
    if ascending {
        lefts.sort_by(|a, b| a.0.cmp(&b.0));
        rights.sort_by(|a, b| a.0.cmp(&b.0));
    } else {
        lefts.sort_by(|a, b| b.0.cmp(&a.0));
        rights.sort_by(|a, b| b.0.cmp(&a.0));
    }

    let qualifies = |lk: &Value, rk: &Value| c1.op.eval(lk, rk);

    let mut index: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
    let mut li = 0usize;
    let mut out = Vec::new();
    for (rk1, rk2, ri) in &rights {
        // Stream in every left whose first key satisfies c1 against rk1.
        while li < lefts.len() && qualifies(&lefts[li].0, rk1) {
            index.entry(lefts[li].1.clone()).or_default().push(lefts[li].2);
            li += 1;
        }
        // Ordered range scan for condition 2: l.k2 op2 rk2.
        let emit = |out: &mut Vec<Value>, ids: &[usize]| {
            for &l in ids {
                out.push(Value::pair(left[l].clone(), right[*ri].clone()));
            }
        };
        match c2.op {
            CmpOp::Lt => {
                for (_, ids) in index.range(..rk2.clone()) {
                    emit(&mut out, ids);
                }
            }
            CmpOp::Le => {
                for (_, ids) in index.range(..=rk2.clone()) {
                    emit(&mut out, ids);
                }
            }
            CmpOp::Gt => {
                for (k, ids) in index.range(rk2.clone()..) {
                    if k != rk2 {
                        emit(&mut out, ids);
                    }
                }
            }
            CmpOp::Ge => {
                for (_, ids) in index.range(rk2.clone()..) {
                    emit(&mut out, ids);
                }
            }
            CmpOp::Eq | CmpOp::Ne => {
                // Equality conditions belong in a blocking key, not IEJoin;
                // fall back to scanning the index.
                for (k, ids) in index.iter() {
                    if c2.op.eval(k, rk2) {
                        emit(&mut out, ids);
                    }
                }
            }
        }
    }
    out
}

/// The IEJoin execution operator BigDansing plugs into Rheem (§7.2: "we had
/// to design a new algorithm for inequality join and provide its
/// implementation as a new join operator").
pub struct IEJoinOperator {
    c1: IneqCond,
    c2: IneqCond,
}

impl IEJoinOperator {
    /// Build for a 2-condition inequality join.
    pub fn new(c1: IneqCond, c2: IneqCond) -> Self {
        Self { c1, c2 }
    }
}

impl ExecutionOperator for IEJoinOperator {
    fn name(&self) -> &str {
        "IEJoin"
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

    fn load(&self, in_cards: &[f64], _avg_bytes: f64, model: &CostModel) -> Load {
        let n: f64 = in_cards.iter().sum();
        let sort_work = n * n.max(2.0).log2();
        let sort_cycles =
            linear_cpu(model, "java.streams", "iejoin", sort_work, 0.0, 320.0, 4_000.0);
        // Output enumeration: violations are rare, so only a small fraction
        // of the cross product materializes (tunable via the cost model).
        let out_sel = model.get("java.streams.iejoin.outsel", 0.001);
        let out_cycles = in_cards.iter().product::<f64>() * out_sel * 50.0;
        Load::cpu(sort_cycles + out_cycles)
    }

    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.fault_gate(ids::JAVA_STREAMS, self.name())?;
        let left = inputs[0].flatten()?;
        let right = inputs[1].flatten()?;
        let (c1, c2) = (self.c1.clone(), self.c2.clone());
        let in_card = (left.len() + right.len()) as u64;
        ctx.timed_seq(self, in_card, || {
            let out = iejoin(&left, &right, &c1, &c2);
            let n = out.len() as u64;
            Ok((ChannelData::Collection(Arc::new(out)), n))
        })
    }
}

/// Distributed IEJoin on Spark: global sort (range exchange) + the same
/// ordered sweep, with the sort/sweep work spread over the virtual cluster
/// and the exchanged bytes charged to the network (the \[42\] paper's
/// distributed variant).
pub struct SparkIEJoinOperator {
    c1: IneqCond,
    c2: IneqCond,
}

impl SparkIEJoinOperator {
    /// Build for a 2-condition inequality join.
    pub fn new(c1: IneqCond, c2: IneqCond) -> Self {
        Self { c1, c2 }
    }
}

impl ExecutionOperator for SparkIEJoinOperator {
    fn name(&self) -> &str {
        "SparkIEJoin"
    }

    fn platform(&self) -> PlatformId {
        ids::SPARK
    }

    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![platform_spark::RDD, platform_spark::RDD_CACHED]
    }

    fn output_kind(&self) -> ChannelKind {
        platform_spark::RDD
    }

    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let n: f64 = in_cards.iter().sum();
        let sort_work = n * n.max(2.0).log2();
        let sort_cycles = linear_cpu(model, "spark", "iejoin", sort_work, 0.0, 380.0, 30_000.0);
        let out_sel = model.get("spark.iejoin.outsel", 0.001);
        let out_cycles = in_cards.iter().product::<f64>() * out_sel * 60.0;
        Load {
            cpu_cycles: sort_cycles + out_cycles,
            net_bytes: n * avg_bytes * 0.9, // range exchange
            tasks: 40,
            ..Load::default()
        }
    }

    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.fault_gate(ids::SPARK, self.name())?;
        let left = inputs[0].flatten()?;
        let right = inputs[1].flatten()?;
        let profile = ctx.profile(ids::SPARK).clone();
        let in_card = (left.len() + right.len()) as u64;
        let shuffle_bytes = (dataset_bytes(&left) + dataset_bytes(&right)) * 0.9;
        let start = std::time::Instant::now();
        let out = iejoin(&left, &right, &self.c1, &self.c2);
        let real_ms = start.elapsed().as_secs_f64() * 1000.0;
        // Sort + sweep parallelize over the range partitions; the output
        // enumeration is embarrassingly parallel too.
        let virtual_ms = real_ms * profile.cpu_scale / profile.cores.max(1) as f64
            + profile.net_ms(shuffle_bytes)
            + profile.task_overhead_ms * profile.partitions as f64 / profile.cores.max(1) as f64;
        let out_card = out.len() as u64;
        let n = rheem_core::partitioned::partition_count(out.len(), profile.partitions);
        let chunk = out.len().div_ceil(n).max(1);
        let parts: Vec<rheem_core::value::Dataset> =
            out.chunks(chunk).map(|c| std::sync::Arc::new(c.to_vec())).collect();
        let parts = if parts.is_empty() { vec![std::sync::Arc::new(Vec::new())] } else { parts };
        ctx.record(OpMetrics {
            name: "SparkIEJoin".into(),
            platform: ids::SPARK,
            in_card,
            out_card,
            virtual_ms,
            real_ms,
        });
        Ok(ChannelData::Partitions(std::sync::Arc::new(parts)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::kernels::ineq_join_nested;

    fn tuples(n: i64, seed: i64) -> Vec<Value> {
        (0..n)
            .map(|i| {
                let a = (i * 7 + seed * 13) % 50;
                let b = (i * 11 + seed * 3) % 50;
                Value::tuple(vec![Value::from(i), Value::from(a), Value::from(b)])
            })
            .collect()
    }

    fn sorted(mut v: Vec<Value>) -> Vec<Value> {
        v.sort();
        v
    }

    #[test]
    fn matches_nested_loop_for_all_op_combinations() {
        let l = tuples(60, 1);
        let r = tuples(50, 2);
        for op1 in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for op2 in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let c1 = IneqCond { left_field: 1, op: op1, right_field: 1 };
                let c2 = IneqCond { left_field: 2, op: op2, right_field: 2 };
                let fast = iejoin(&l, &r, &c1, &c2);
                let slow = ineq_join_nested(&l, &r, &[c1.clone(), c2.clone()]);
                assert_eq!(sorted(fast), sorted(slow), "mismatch for {op1:?}/{op2:?}");
            }
        }
    }

    #[test]
    fn self_join_tax_constraint() {
        let rows = rheem_datagen::generate_tax(300, 0.1, 3);
        let c1 = IneqCond { left_field: 2, op: CmpOp::Gt, right_field: 2 };
        let c2 = IneqCond { left_field: 3, op: CmpOp::Lt, right_field: 3 };
        let fast = iejoin(&rows, &rows, &c1, &c2);
        assert_eq!(fast.len(), rheem_datagen::tax::count_violations_bruteforce(&rows));
    }

    #[test]
    fn empty_inputs() {
        let l = tuples(5, 1);
        let c = IneqCond { left_field: 1, op: CmpOp::Lt, right_field: 1 };
        assert!(iejoin(&[], &l, &c, &c).is_empty());
        assert!(iejoin(&l, &[], &c, &c).is_empty());
    }

    #[test]
    fn iejoin_is_much_cheaper_in_the_cost_model() {
        let op = IEJoinOperator::new(
            IneqCond { left_field: 1, op: CmpOp::Gt, right_field: 1 },
            IneqCond { left_field: 2, op: CmpOp::Lt, right_field: 2 },
        );
        let model = CostModel::new();
        let fast = op.load(&[100_000.0, 100_000.0], 64.0, &model).cpu_cycles;
        // nested loop equivalent: n*m*alpha
        let slow = 100_000.0f64 * 100_000.0 * 110.0;
        assert!(fast < slow / 100.0, "fast {fast}, slow {slow}");
    }
}
