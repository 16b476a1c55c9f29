//! Graph platform simulacra: **Giraph** (vertex-centric BSP engine),
//! **JGraph** (a plain single-threaded graph library) and **GraphChi**
//! (out-of-core, shard-based) — the graph roster of Fig. 5, exercised by
//! CrocoPR (Fig. 9(c)/(f)).
//!
//! All three produce *identical* PageRank results; they differ in execution
//! strategy and cost profile: Giraph pays JVM start-up and per-superstep
//! barriers but scales over the virtual cluster; JGraph has no overhead but
//! one core and a small heap (it dies on large graphs); GraphChi streams
//! shards through real temporary files and is disk-bound.

#![warn(missing_docs)]

pub mod bsp;

use std::sync::Arc;
use std::time::Instant;

use rheem_core::channel::{kinds, ChannelData, ChannelKind};
use rheem_core::cost::{linear_cpu, CostModel, Load};
use rheem_core::error::{Result, RheemError};
use rheem_core::exec::{dataset_bytes, ExecCtx, ExecutionOperator, OpMetrics};
use rheem_core::mapping::{Candidate, FnMapping};
use rheem_core::plan::{LogicalOp, OperatorNode, RheemPlan};
use rheem_core::platform::{ids, Platform, PlatformId};
use rheem_core::registry::Registry;
use rheem_core::udf::BroadcastCtx;
use rheem_core::value::Value;

/// Parse `(src, dst)` edge pairs from quanta.
pub fn parse_edges(data: &[Value]) -> Vec<(i64, i64)> {
    data.iter()
        .map(|e| (e.field(0).as_int().unwrap_or(0), e.field(1).as_int().unwrap_or(0)))
        .collect()
}

/// Reference single-threaded PageRank (the JGraph implementation; also the
/// ground truth the engines are tested against): the shared power iteration.
pub fn pagerank_reference(edges: &[(i64, i64)], iterations: u32, damping: f64) -> Vec<(i64, f64)> {
    rheem_core::kernels::page_rank_edges(edges.iter().copied(), iterations, damping)
}

fn ranks_to_values(ranks: Vec<(i64, f64)>) -> Vec<Value> {
    ranks.into_iter().map(|(v, r)| Value::pair(Value::from(v), Value::from(r))).collect()
}

// ---------------------------------------------------------------------------
// Giraph
// ---------------------------------------------------------------------------

/// The Giraph platform (vertex-centric BSP over the virtual cluster).
#[derive(Default)]
pub struct GiraphPlatform;

impl GiraphPlatform {
    /// Create the platform.
    pub fn new() -> Self {
        Self
    }
}

/// Giraph's PageRank execution operator, running on the BSP engine.
pub struct GiraphPageRank {
    iterations: u32,
    damping: f64,
}

impl ExecutionOperator for GiraphPageRank {
    fn name(&self) -> &str {
        "GiraphPageRank"
    }
    fn platform(&self) -> PlatformId {
        ids::GIRAPH
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, in_cards: &[f64], _avg_bytes: f64, model: &CostModel) -> Load {
        let edges = in_cards.first().copied().unwrap_or(0.0);
        let per_iter = linear_cpu(model, "giraph", "pagerank", edges, 0.0, 260.0, 50_000.0);
        Load {
            cpu_cycles: per_iter * self.iterations as f64,
            net_bytes: edges * 16.0 * self.iterations as f64 * 0.9,
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
        ctx.fault_gate(ids::GIRAPH, self.name())?;
        let data = inputs[0].flatten()?;
        let edges = parse_edges(&data);
        let profile = ctx.profile(ids::GIRAPH).clone();
        let start = Instant::now();
        let outcome = bsp::pagerank_bsp(
            &edges,
            self.iterations,
            self.damping,
            profile.partitions.max(1) as usize,
        );
        let real_ms = start.elapsed().as_secs_f64() * 1000.0;
        // Virtual time: per superstep, the slowest partition + barrier +
        // message exchange over the wire.
        let mut virtual_ms = 0.0;
        for step in &outcome.supersteps {
            virtual_ms += profile.parallel_ms(&step.partition_ms)
                + profile.barrier_ms
                + profile.net_ms(step.message_bytes * 0.9);
        }
        let supersteps = outcome.supersteps.len();
        let message_bytes: f64 = outcome.supersteps.iter().map(|s| s.message_bytes).sum();
        ctx.trace_event("giraph.bsp", || {
            vec![
                ("supersteps".to_string(), supersteps.into()),
                ("message_bytes".to_string(), message_bytes.into()),
            ]
        });
        let out = ranks_to_values(outcome.ranks);
        ctx.record(OpMetrics {
            name: "GiraphPageRank".into(),
            platform: ids::GIRAPH,
            in_card: data.len() as u64,
            out_card: out.len() as u64,
            virtual_ms,
            real_ms,
        });
        Ok(ChannelData::Collection(Arc::new(out)))
    }
}

impl Platform for GiraphPlatform {
    fn id(&self) -> PlatformId {
        ids::GIRAPH
    }
    fn register(&self, registry: &mut Registry) {
        registry.add_mapping(Arc::new(FnMapping(
            |_plan: &RheemPlan, node: &OperatorNode| match node.op {
                LogicalOp::PageRank { iterations, damping } => vec![Candidate::single(
                    node.id,
                    Arc::new(GiraphPageRank { iterations, damping }) as _,
                )],
                _ => vec![],
            },
        )));
    }
}

// ---------------------------------------------------------------------------
// JGraph
// ---------------------------------------------------------------------------

/// The JGraph platform: a plain in-process graph library.
#[derive(Default)]
pub struct JGraphPlatform;

impl JGraphPlatform {
    /// Create the platform.
    pub fn new() -> Self {
        Self
    }
}

/// JGraph's single-threaded PageRank.
pub struct JGraphPageRank {
    iterations: u32,
    damping: f64,
}

impl ExecutionOperator for JGraphPageRank {
    fn name(&self) -> &str {
        "JGraphPageRank"
    }
    fn platform(&self) -> PlatformId {
        ids::JGRAPH
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let edges = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "jgraph", "pagerank", edges, 0.0, 140.0, 1_000.0)
                * self.iterations as f64,
            mem_bytes: edges * avg_bytes * 3.0, // adjacency + rank vectors
            tasks: 1,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.fault_gate(ids::JGRAPH, self.name())?;
        let data = inputs[0].flatten()?;
        // A library with a small heap: building the in-memory graph triples
        // the footprint; beyond the cap the JVM dies (Fig. 9(c)'s ✗).
        ctx.check_mem(ids::JGRAPH, dataset_bytes(&data) * 3.0)?;
        let edges = parse_edges(&data);
        let iterations = self.iterations;
        let damping = self.damping;
        let op_name: &dyn ExecutionOperator = self;
        ctx.timed_seq(op_name, data.len() as u64, || {
            let out = ranks_to_values(pagerank_reference(&edges, iterations, damping));
            let n = out.len() as u64;
            Ok((ChannelData::Collection(Arc::new(out)), n))
        })
    }
}

impl Platform for JGraphPlatform {
    fn id(&self) -> PlatformId {
        ids::JGRAPH
    }
    fn register(&self, registry: &mut Registry) {
        registry.add_mapping(Arc::new(FnMapping(
            |_plan: &RheemPlan, node: &OperatorNode| match node.op {
                LogicalOp::PageRank { iterations, damping } => vec![Candidate::single(
                    node.id,
                    Arc::new(JGraphPageRank { iterations, damping }) as _,
                )],
                _ => vec![],
            },
        )));
    }
}

// ---------------------------------------------------------------------------
// GraphChi
// ---------------------------------------------------------------------------

/// The GraphChi platform: out-of-core, shard-based processing on one node.
#[derive(Default)]
pub struct GraphChiPlatform;

impl GraphChiPlatform {
    /// Create the platform.
    pub fn new() -> Self {
        Self
    }
}

/// GraphChi's PageRank: edges are sharded to real temporary files and
/// streamed back per iteration (parallel sliding windows, simplified).
pub struct GraphChiPageRank {
    iterations: u32,
    damping: f64,
}

impl ExecutionOperator for GraphChiPageRank {
    fn name(&self) -> &str {
        "GraphChiPageRank"
    }
    fn platform(&self) -> PlatformId {
        ids::GRAPHCHI
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let edges = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "graphchi", "pagerank", edges, 0.0, 180.0, 5_000.0)
                * self.iterations as f64,
            // shards re-read every iteration: disk-bound
            disk_bytes: edges * avg_bytes * (1.0 + self.iterations as f64),
            tasks: 4,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.fault_gate(ids::GRAPHCHI, self.name())?;
        let data = inputs[0].flatten()?;
        let edges = parse_edges(&data);
        let profile = ctx.profile(ids::GRAPHCHI).clone();
        let start = Instant::now();

        // Write real shards (sorted by destination) to temp files.
        let shards = 4usize;
        let dir = std::env::temp_dir().join(format!("rheem_graphchi_{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(RheemError::Io)?;
        let mut shard_bytes = 0u64;
        let mut sorted = edges.clone();
        sorted.sort_unstable_by_key(|&(_, d)| d);
        for (i, chunk) in sorted.chunks(sorted.len().div_ceil(shards).max(1)).enumerate() {
            let path = dir.join(format!("shard{i}.txt"));
            shard_bytes +=
                rheem_storage::write_lines(&path, chunk.iter().map(|(s, d)| format!("{s}\t{d}")))
                    .map_err(RheemError::Io)?;
        }

        // Compute (streaming the shards would re-read them each iteration;
        // we compute in memory but charge the re-reads to the clock).
        let ranks = pagerank_reference(&edges, self.iterations, self.damping);
        let real_ms = start.elapsed().as_secs_f64() * 1000.0;
        let io_ms = profile.disk_ms(shard_bytes as f64) * (1.0 + self.iterations as f64);
        let virtual_ms = real_ms * profile.cpu_scale / profile.cores.max(1) as f64 + io_ms;

        let out = ranks_to_values(ranks);
        ctx.record(OpMetrics {
            name: "GraphChiPageRank".into(),
            platform: ids::GRAPHCHI,
            in_card: data.len() as u64,
            out_card: out.len() as u64,
            virtual_ms,
            real_ms,
        });
        let _ = std::fs::remove_dir_all(&dir);
        Ok(ChannelData::Collection(Arc::new(out)))
    }
}

impl Platform for GraphChiPlatform {
    fn id(&self) -> PlatformId {
        ids::GRAPHCHI
    }
    fn register(&self, registry: &mut Registry) {
        registry.add_mapping(Arc::new(FnMapping(
            |_plan: &RheemPlan, node: &OperatorNode| match node.op {
                LogicalOp::PageRank { iterations, damping } => vec![Candidate::single(
                    node.id,
                    Arc::new(GraphChiPageRank { iterations, damping }) as _,
                )],
                _ => vec![],
            },
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::api::RheemContext;
    use rheem_core::plan::PlanBuilder;

    fn ring_edges(n: i64) -> Vec<Value> {
        (0..n).map(|i| Value::pair(Value::from(i), Value::from((i + 1) % n))).collect()
    }

    #[test]
    fn all_three_engines_agree_with_reference() {
        let data = ring_edges(50);
        let edges = parse_edges(&data);
        let reference = pagerank_reference(&edges, 10, 0.85);
        let profiles = rheem_core::platform::Profiles::paper_testbed();
        let bc = BroadcastCtx::new();
        for op in [
            Box::new(GiraphPageRank { iterations: 10, damping: 0.85 })
                as Box<dyn ExecutionOperator>,
            Box::new(JGraphPageRank { iterations: 10, damping: 0.85 }),
            Box::new(GraphChiPageRank { iterations: 10, damping: 0.85 }),
        ] {
            let mut ctx = ExecCtx::new(&profiles, 0);
            let out = op
                .execute(&mut ctx, &[ChannelData::Collection(Arc::new(data.clone()))], &bc)
                .unwrap();
            let ranks = out.flatten().unwrap();
            assert_eq!(ranks.len(), reference.len(), "{}", op.name());
            for r in ranks.iter() {
                let v = r.field(0).as_int().unwrap();
                let rank = r.field(1).as_f64().unwrap();
                let (_, expect) = reference.iter().find(|(u, _)| *u == v).unwrap();
                assert!((rank - expect).abs() < 1e-9, "{} vertex {v}", op.name());
            }
        }
    }

    #[test]
    fn jgraph_dies_on_big_graphs() {
        let mut profiles = rheem_core::platform::Profiles::paper_testbed();
        profiles.get_mut(ids::JGRAPH).mem_mb = 0.001;
        let mut ctx = ExecCtx::new(&profiles, 0);
        let op = JGraphPageRank { iterations: 1, damping: 0.85 };
        let r = op.execute(
            &mut ctx,
            &[ChannelData::Collection(Arc::new(ring_edges(10_000)))],
            &BroadcastCtx::new(),
        );
        assert!(r.unwrap_err().to_string().contains("out of memory"));
    }

    #[test]
    fn optimizer_picks_a_graph_engine_for_pagerank() {
        let ctx = RheemContext::new()
            .with_platform(&GiraphPlatform::new())
            .with_platform(&JGraphPlatform::new());
        let mut b = PlanBuilder::new();
        let sink = b.collection(ring_edges(100)).page_rank(5, 0.85).collect();
        let plan = b.build().unwrap();
        let result = ctx.execute(&plan).unwrap();
        assert_eq!(result.sink(sink).unwrap().len(), 100);
        // tiny graph: JGraph (no startup) must beat Giraph
        assert_eq!(result.metrics.platforms, vec![ids::JGRAPH]);
    }

    #[test]
    fn giraph_virtual_time_includes_barriers() {
        let profiles = rheem_core::platform::Profiles::paper_testbed();
        let mut ctx = ExecCtx::new(&profiles, 0);
        let op = GiraphPageRank { iterations: 7, damping: 0.85 };
        op.execute(
            &mut ctx,
            &[ChannelData::Collection(Arc::new(ring_edges(100)))],
            &BroadcastCtx::new(),
        )
        .unwrap();
        let barrier = profiles.get(ids::GIRAPH).barrier_ms;
        // 7 iterations + final emit superstep, each with at least a barrier
        assert!(ctx.virtual_ms() >= 7.0 * barrier, "{}", ctx.virtual_ms());
    }
}
