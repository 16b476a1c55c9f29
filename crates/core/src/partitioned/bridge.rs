//! The conversion operators every partitioned engine has: its native
//! channel to and from the driver's collection, and a text file into it.

use std::sync::Arc;
use std::time::Instant;

use super::{
    input, input_rows, partition_count, partition_dataset, pool_size, read_text_parts,
    wrong_layout, Engine,
};
use crate::channel::{kinds, ChannelData, ChannelKind};
use crate::cost::{linear_cpu, CostModel, Load};
use crate::error::Result;
use crate::exec::{dataset_bytes, ExecCtx, ExecutionOperator, OpMetrics};
use crate::platform::PlatformId;
use crate::udf::BroadcastCtx;

/// Record one run of the bridge `name`: `ms` on the virtual clock, and the
/// host time since `started` (a bridge copies or reads every row it moves).
fn record(
    ctx: &mut ExecCtx<'_>,
    engine: &Engine,
    name: &str,
    in_card: u64,
    out_card: u64,
    ms: f64,
    started: Instant,
) {
    ctx.record(OpMetrics {
        name: name.to_string(),
        platform: engine.platform,
        in_card,
        out_card,
        virtual_ms: ms,
        real_ms: started.elapsed().as_secs_f64() * 1000.0,
    });
}

/// `engine channel -> driver collection` (`RDD.collect()`, which the paper
/// found faster than `toLocalIterator`; `DataSet.collect()`).
pub struct Collect {
    engine: &'static Engine,
    name: String,
}

impl Collect {
    /// The engine's collect bridge.
    pub fn new(engine: &'static Engine) -> Self {
        Self { engine, name: format!("{}Collect", engine.label) }
    }
}

impl ExecutionOperator for Collect {
    fn name(&self) -> &str {
        &self.name
    }
    fn platform(&self) -> PlatformId {
        self.engine.platform
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        self.engine.accepts.to_vec()
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let e = self.engine;
        let c = in_cards.first().copied().unwrap_or(0.0);
        Load {
            cpu_cycles: linear_cpu(model, e.costs.token, "collect", c, 0.0, 60.0, e.bridge_delta),
            net_bytes: c * avg_bytes * 0.9,
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
        let e = self.engine;
        ctx.transfer_gate(e.platform, &self.name)?;
        let started = Instant::now();
        let data = input_rows(&self.name, inputs, 0)?;
        let net = ctx.profile(e.platform).net_ms(dataset_bytes(&data) * 0.9);
        let card = data.len() as u64;
        record(ctx, e, &self.name, card, card, net + e.bridge_ms, started);
        Ok(ChannelData::Collection(data))
    }
}

/// `driver collection -> engine channel` (`sc.parallelize`,
/// `env.fromCollection`).
pub struct FromCollection {
    engine: &'static Engine,
    name: String,
    /// Cost-model token: the API name, lower-cased (`spark.parallelize.alpha`).
    token: String,
}

impl FromCollection {
    /// The engine's from-collection bridge.
    pub fn new(engine: &'static Engine) -> Self {
        let api = engine.from_collection;
        Self { engine, name: format!("{}{api}", engine.label), token: api.to_lowercase() }
    }
}

impl ExecutionOperator for FromCollection {
    fn name(&self) -> &str {
        &self.name
    }
    fn platform(&self) -> PlatformId {
        self.engine.platform
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        self.engine.output
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let e = self.engine;
        let c = in_cards.first().copied().unwrap_or(0.0);
        let token = &self.token;
        Load {
            cpu_cycles: linear_cpu(model, e.costs.token, token, c, 0.0, 50.0, e.bridge_delta),
            net_bytes: c * avg_bytes * 0.9,
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
        let e = self.engine;
        ctx.transfer_gate(e.platform, &self.name)?;
        let started = Instant::now();
        let profile = ctx.profile(e.platform);
        // Already-partitioned handoffs pass through by Arc — no flatten +
        // re-chunk round trip through a fresh Vec.
        let (parts, card, bytes) = match input(inputs, 0) {
            ChannelData::Partitions(p) => {
                let card: usize = p.iter().map(|d| d.len()).sum();
                let bytes: f64 = p.iter().map(|d| dataset_bytes(d)).sum();
                (Arc::clone(p), card, bytes)
            }
            _ => {
                let data = input_rows(&self.name, inputs, 0)?;
                let parts = partition_dataset(&data, profile.partitions);
                (Arc::new(parts), data.len(), dataset_bytes(&data))
            }
        };
        let net = profile.net_ms(bytes * 0.9);
        record(ctx, e, &self.name, card as u64, card as u64, net + e.bridge_ms, started);
        Ok(ChannelData::Partitions(parts))
    }
}

/// `file -> engine channel` (`sc.textFile`, `env.readTextFile` over an
/// existing file channel).
pub struct ReadTextFile {
    engine: &'static Engine,
    name: String,
}

impl ReadTextFile {
    /// The engine's text-file bridge.
    pub fn new(engine: &'static Engine) -> Self {
        Self { engine, name: format!("{}ReadTextFile", engine.label) }
    }
}

impl ExecutionOperator for ReadTextFile {
    fn name(&self) -> &str {
        &self.name
    }
    fn platform(&self) -> PlatformId {
        self.engine.platform
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::HDFS_FILE, kinds::LOCAL_FILE]
    }
    fn output_kind(&self) -> ChannelKind {
        self.engine.output
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let e = self.engine;
        let c = in_cards.first().copied().unwrap_or(0.0);
        let (alpha, delta) = (e.read_alpha, e.read_delta);
        Load {
            cpu_cycles: linear_cpu(model, e.costs.token, "readtext", c, 0.0, alpha, delta),
            disk_bytes: c * avg_bytes,
            tasks: e.read_tasks.unwrap_or_else(|| partition_count(c as usize, 80) as u32),
            ..Load::default()
        }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        let e = self.engine;
        ctx.transfer_gate(e.platform, &self.name)?;
        let started = Instant::now();
        let profile = ctx.profile(e.platform);
        let file = input(inputs, 0);
        let path = file.as_file().map_err(|_| wrong_layout(&self.name, 0, file, "a file"))?;
        let (parts, read_ms) = read_text_parts(path, profile.partitions, pool_size(profile))?;
        let out_card: u64 = parts.iter().map(|p| p.len() as u64).sum();
        record(ctx, e, &self.name, 0, out_card, read_ms, started);
        Ok(ChannelData::Partitions(Arc::new(parts)))
    }
}
