//! Spark platform simulacrum: a partitioned, multi-threaded batch engine
//! with job-submission overheads, shuffle exchanges, caching and broadcast
//! variables (§6's `Spark`).
//!
//! What Spark *is* here is the [`SPARK`] table — its constants over the one
//! partitioned engine of [`rheem_core::partitioned`], which executes the
//! operators for real over partitioned datasets and composes measured
//! per-partition times into virtual cluster time. This crate adds what only
//! Spark has: the `spark.shuffle` trace event, its channels — `spark.rdd`
//! (consumed once — Spark recomputes lineage otherwise) and
//! `spark.rdd.cached` (reusable, the `Cache` operator of Fig. 3(b)) — the
//! cache/uncache/save-as-text-file conversions. Its chaining rules (narrow
//! runs pipeline into a stage; a ReduceBy may end one, its `fuse_into` row)
//! are the engine's shared mappings ([`Engine::add_mappings`]).

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rheem_core::batch;
use rheem_core::channel::{kinds, ChannelData, ChannelDescriptor, ChannelKind};
use rheem_core::cost::{linear_cpu, CostModel, Load};
use rheem_core::error::{Result, RheemError};
use rheem_core::exec::{dataset_bytes, ExecCtx, ExecutionOperator, OpMetrics};
use rheem_core::partitioned::{
    self, partition_count, ChainCosts, Collect, Engine, FromCollection, ReadTextFile,
};
use rheem_core::plan::OpKind;
use rheem_core::platform::{ids, Platform, PlatformId};
use rheem_core::registry::Registry;
use rheem_core::udf::BroadcastCtx;

/// The RDD channel: Spark's native dataset, consumed exactly once.
pub const RDD: ChannelKind = ChannelKind("spark.rdd");
/// A cached RDD: reusable across consumers (`RDD.cache()`).
pub const RDD_CACHED: ChannelKind = ChannelKind("spark.rdd.cached");

/// Spark as a partitioned engine: job submission per stage, full shuffles,
/// one task per input split.
pub static SPARK: Engine = Engine {
    label: "Spark",
    platform: ids::SPARK,
    accepts: &[RDD, RDD_CACHED],
    output: RDD,
    single_partition: false,
    fuse_into: &[OpKind::ReduceBy],
    costs: ChainCosts {
        token: "spark",
        stage_delta: 20_000.0,
        fused_alpha: 220.0,
        alpha: default_alpha,
        pagerank_size: 12.0,
    },
    pagerank_iter_share: 0.5,
    broadcast_ms: 1.0,
    count_tasks: 2.0,
    bridge_delta: 10_000.0,
    bridge_ms: 0.5,
    from_collection: "Parallelize",
    read_alpha: 260.0,
    read_delta: 15_000.0,
    read_tasks: None,
    on_exchange: Some(shuffle_event),
    on_stage: None,
    on_fused: None,
};

/// The Spark platform.
#[derive(Default)]
pub struct SparkPlatform;

impl SparkPlatform {
    /// Create the platform.
    pub fn new() -> Self {
        Self
    }
}

/// Report a shuffle to the job trace (bytes moved, destination partitions).
fn shuffle_event(ctx: &mut ExecCtx<'_>, op: &str, bytes: f64, partitions: usize) {
    let op = op.to_string();
    ctx.trace_event("spark.shuffle", || {
        vec![
            ("op".to_string(), op.into()),
            ("bytes".to_string(), bytes.into()),
            ("partitions".to_string(), partitions.into()),
        ]
    });
}

/// Default per-quantum cycle costs on Spark (slightly higher than
/// JavaStreams: serialization + task framework overhead per record).
fn default_alpha(kind: OpKind) -> f64 {
    match kind {
        OpKind::Map => 220.0,
        OpKind::FlatMap => 340.0,
        OpKind::Filter | OpKind::SargFilter => 180.0,
        OpKind::Project => 130.0,
        OpKind::Sample => 90.0,
        OpKind::SortBy => 1_200.0,
        OpKind::Distinct => 500.0,
        OpKind::Count => 40.0,
        OpKind::GroupBy => 650.0,
        OpKind::Reduce => 280.0,
        OpKind::ReduceBy => 550.0,
        OpKind::Union => 60.0,
        OpKind::Join => 700.0,
        OpKind::Cartesian => 120.0,
        OpKind::InequalityJoin => 150.0,
        OpKind::PageRank => 1_000.0,
        OpKind::TextFileSource => 260.0,
        _ => 140.0,
    }
}

// ---------------------------------------------------------------------------
// Conversion operators
// ---------------------------------------------------------------------------

/// `RDD -> cached RDD` (Fig. 3(b)'s Cache operator): makes the channel
/// reusable for multiple consumers / loop iterations.
pub struct SparkCache;

impl ExecutionOperator for SparkCache {
    fn name(&self) -> &str {
        "SparkCache"
    }
    fn platform(&self) -> PlatformId {
        ids::SPARK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![RDD]
    }
    fn output_kind(&self) -> ChannelKind {
        RDD_CACHED
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "spark", "cache", c, 0.0, 30.0, 5_000.0),
            mem_bytes: c * avg_bytes,
            tasks: partition_count(c as usize, 80) as u32,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.transfer_gate(ids::SPARK, self.name())?;
        // Columnar stage outputs cache as-is (zero-copy Arc bump): consumers
        // get the same 1:1 batch partitions the uncached channel carries.
        let rdd = partitioned::input(inputs, 0);
        let (out, bytes) = match rdd {
            ChannelData::BatchParts(bs) => {
                let bytes: f64 = bs.iter().map(batch::batch_bytes).sum();
                (ChannelData::BatchParts(Arc::clone(bs)), bytes)
            }
            ChannelData::Partitions(parts) => {
                let bytes: f64 = parts.iter().map(|p| dataset_bytes(p)).sum();
                (ChannelData::Partitions(Arc::clone(parts)), bytes)
            }
            other => return Err(partitioned::wrong_layout(self.name(), 0, other, "partitions")),
        };
        ctx.check_mem(ids::SPARK, bytes)?;
        let card = rdd.cardinality().unwrap_or(0) as u64;
        ctx.record(OpMetrics {
            name: "SparkCache".into(),
            platform: ids::SPARK,
            in_card: card,
            out_card: card,
            virtual_ms: 0.2 + bytes / 1e9,
            real_ms: 0.0,
        });
        Ok(out)
    }
}

/// A cached RDD serves anywhere a plain RDD is accepted (zero-cost view).
pub struct SparkUncache;

impl ExecutionOperator for SparkUncache {
    fn name(&self) -> &str {
        "SparkUncache"
    }
    fn platform(&self) -> PlatformId {
        ids::SPARK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![RDD_CACHED]
    }
    fn output_kind(&self) -> ChannelKind {
        RDD
    }
    fn load(&self, _in: &[f64], _b: f64, _m: &CostModel) -> Load {
        Load::default()
    }
    fn execute(
        &self,
        _ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        Ok(inputs[0].clone())
    }
}

/// `RDD -> HDFS file` (`saveAsTextFile`): used when downstream platforms
/// read from the file system, and by the Musketeer baseline which
/// materializes between every stage.
pub struct SparkSaveTextFile {
    dir: std::path::PathBuf,
}

/// Files saved by this process so far. Every registry builds its own writer
/// into the same `hdfs://` directory, which other processes share too: the
/// file name carries the pid and this process-wide count, so no two
/// executions anywhere write the same file.
static SAVED: AtomicUsize = AtomicUsize::new(0);

impl SparkSaveTextFile {
    /// Writer into a scratch directory; each execution gets a fresh file.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        Self { dir: dir.into() }
    }
}

impl ExecutionOperator for SparkSaveTextFile {
    fn name(&self) -> &str {
        "SparkSaveTextFile"
    }
    fn platform(&self) -> PlatformId {
        ids::SPARK
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![RDD, RDD_CACHED]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::HDFS_FILE
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, "spark", "savetext", c, 0.0, 220.0, 15_000.0),
            disk_bytes: c * avg_bytes,
            tasks: partition_count(c as usize, 80) as u32,
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        ctx.transfer_gate(ids::SPARK, self.name())?;
        let data = inputs[0].flatten()?;
        let id = SAVED.fetch_add(1, Ordering::Relaxed);
        let path = std::path::PathBuf::from(format!(
            "hdfs://{}/part-{}-{id:05}.txt",
            self.dir.display(),
            std::process::id()
        ));
        let bytes = rheem_storage::write_lines(&path, data.iter().map(|v| v.to_string()))
            .map_err(RheemError::Io)?;
        let write_ms = rheem_storage::default_costs(rheem_storage::StoreKind::Hdfs).write_ms(bytes);
        ctx.record(OpMetrics {
            name: "SparkSaveTextFile".into(),
            platform: ids::SPARK,
            in_card: data.len() as u64,
            out_card: data.len() as u64,
            virtual_ms: write_ms,
            real_ms: 0.0,
        });
        Ok(ChannelData::File(Arc::new(path)))
    }
}

impl Platform for SparkPlatform {
    fn id(&self) -> PlatformId {
        ids::SPARK
    }

    fn register(&self, registry: &mut Registry) {
        registry.add_channel(ChannelDescriptor { kind: RDD, reusable: false });
        registry.add_channel(ChannelDescriptor { kind: RDD_CACHED, reusable: true });
        registry.add_conversion(RDD, RDD_CACHED, Arc::new(SparkCache));
        registry.add_conversion(RDD_CACHED, RDD, Arc::new(SparkUncache));
        registry.add_conversion(RDD, kinds::COLLECTION, Arc::new(Collect::new(&SPARK)));
        registry.add_conversion(RDD_CACHED, kinds::COLLECTION, Arc::new(Collect::new(&SPARK)));
        registry.add_conversion(kinds::COLLECTION, RDD, Arc::new(FromCollection::new(&SPARK)));
        registry.add_conversion(
            RDD,
            kinds::HDFS_FILE,
            Arc::new(SparkSaveTextFile::new("spark_scratch")),
        );
        registry.add_conversion(kinds::HDFS_FILE, RDD, Arc::new(ReadTextFile::new(&SPARK)));
        registry.add_conversion(kinds::LOCAL_FILE, RDD, Arc::new(ReadTextFile::new(&SPARK)));

        SPARK.add_mappings(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::api::RheemContext;
    use rheem_core::plan::PlanBuilder;
    use rheem_core::udf::{FlatMapUdf, KeyUdf, MapUdf, ReduceUdf};
    use rheem_core::value::Value;

    #[test]
    fn wordcount_on_spark_only() {
        let mut b = PlanBuilder::new();
        let sink = b
            .collection(vec![Value::from("x y x"), Value::from("y x z")])
            .flat_map(FlatMapUdf::new("split", |v| {
                v.as_str().unwrap().split_whitespace().map(Value::from).collect()
            }))
            .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
            .reduce_by_key(
                KeyUdf::field(0),
                ReduceUdf::new("sum", |a, b| {
                    Value::pair(
                        a.field(0).clone(),
                        Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
                    )
                }),
            )
            .collect();
        let plan = b.build().unwrap();
        let ctx = RheemContext::new().with_platform(&SparkPlatform::new());
        let result = ctx.execute(&plan).unwrap();
        let data = result.sink(sink).unwrap();
        assert_eq!(data.len(), 3);
        let x = data.iter().find(|v| v.field(0).as_str() == Some("x")).unwrap();
        assert_eq!(x.field(1).as_int(), Some(3));
        // Spark overhead shows up in virtual time (startup + stages).
        assert!(result.metrics.virtual_ms > 1000.0, "{}", result.metrics.virtual_ms);
    }

    #[test]
    fn cache_rejects_over_memory() {
        let mut profiles = rheem_core::platform::Profiles::bare();
        profiles.get_mut(ids::SPARK).mem_mb = 0.0001;
        let mut ecx = ExecCtx::new(&profiles, 0);
        let parts = ChannelData::Partitions(Arc::new(vec![Arc::new(
            (0..10_000i64).map(Value::from).collect::<Vec<_>>(),
        )]));
        let r = SparkCache.execute(&mut ecx, &[parts], &BroadcastCtx::new());
        assert!(r.is_err());
    }

    /// Every registry has its own writer into the one shared scratch
    /// directory: two writers executed back to back must not share a file.
    #[test]
    fn save_text_file_paths_never_collide() {
        let profiles = rheem_core::platform::Profiles::paper_testbed();
        let mut ecx = ExecCtx::new(&profiles, 0);
        let save = |ecx: &mut ExecCtx<'_>, rows: std::ops::Range<i64>| {
            let rdd = ChannelData::Partitions(Arc::new(vec![Arc::new(
                rows.map(Value::from).collect::<Vec<_>>(),
            )]));
            let writer = SparkSaveTextFile::new("spark_scratch_test");
            let out = writer.execute(ecx, &[rdd], &BroadcastCtx::new()).unwrap();
            out.as_file().unwrap().clone()
        };
        let first = save(&mut ecx, 0..3);
        let second = save(&mut ecx, 10..12);
        assert_ne!(first, second);
        assert_eq!(rheem_storage::read_lines(&first).unwrap(), ["0", "1", "2"]);
        assert_eq!(rheem_storage::read_lines(&second).unwrap(), ["10", "11"]);
    }
}
