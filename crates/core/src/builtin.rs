//! Built-in execution operators owned by the Rheem core itself.
//!
//! The executor (the "driver") natively handles control flow and result
//! collection: loop heads, collection sources/sinks, and plain text-file
//! I/O all run inside the driver, mirroring Fig. 7 where Stage 3 holds only
//! the RepeatLoop "because the executor must have the execution control".
//! These operators live on the pseudo-platform [`CONTROL`], which has no
//! startup cost and does not count as a "used platform".

use std::path::PathBuf;
use std::sync::Arc;

use crate::channel::{kinds, ChannelData, ChannelKind};
use crate::cost::Load;
use crate::error::{Result, RheemError};
use crate::exec::{ExecCtx, ExecutionOperator};
use crate::mapping::{Candidate, FnMapping};
use crate::plan::{LogicalOp, OperatorNode, RheemPlan};
use crate::platform::PlatformId;
use crate::registry::Registry;
use crate::udf::BroadcastCtx;

/// The driver pseudo-platform.
pub const CONTROL: PlatformId = PlatformId("rheem.driver");

/// Loop head relay: the executor orchestrates iterations; the operator
/// itself just forwards the current loop state.
pub struct LoopRelay {
    label: &'static str,
}

impl ExecutionOperator for LoopRelay {
    fn name(&self) -> &str {
        self.label
    }
    fn platform(&self) -> PlatformId {
        CONTROL
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, _in_cards: &[f64], _avg_bytes: f64, _model: &crate::cost::CostModel) -> Load {
        Load::default()
    }
    fn execute(
        &self,
        _ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        // The executor feeds the current loop state as input 0.
        Ok(inputs[0].clone())
    }
}

/// Driver-side in-memory collection source.
pub struct DriverCollectionSource {
    data: crate::value::Dataset,
}

impl ExecutionOperator for DriverCollectionSource {
    fn name(&self) -> &str {
        "DriverCollectionSource"
    }
    fn platform(&self) -> PlatformId {
        CONTROL
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, _in_cards: &[f64], _avg_bytes: f64, _model: &crate::cost::CostModel) -> Load {
        Load::default()
    }
    fn execute(
        &self,
        _ctx: &mut ExecCtx<'_>,
        _inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        Ok(ChannelData::Collection(Arc::clone(&self.data)))
    }
}

/// Driver-side result sink: flattens the input into the job result.
pub struct DriverCollectionSink;

impl ExecutionOperator for DriverCollectionSink {
    fn name(&self) -> &str {
        "DriverCollectionSink"
    }
    fn platform(&self) -> PlatformId {
        CONTROL
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::NONE
    }
    fn load(&self, _in_cards: &[f64], _avg_bytes: f64, _model: &crate::cost::CostModel) -> Load {
        Load::default()
    }
    fn execute(
        &self,
        _ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        // Keep the data: the executor extracts sink outputs into JobResult.
        Ok(inputs[0].clone())
    }
}

/// Driver-side single-threaded text file reader (platforms register faster,
/// parallel readers of their own).
pub struct DriverTextFileSource {
    path: PathBuf,
}

impl ExecutionOperator for DriverTextFileSource {
    fn name(&self) -> &str {
        "DriverTextFileSource"
    }
    fn platform(&self) -> PlatformId {
        CONTROL
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::COLLECTION
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, _model: &crate::cost::CostModel) -> Load {
        // in_cards[0] carries the estimated line count for sources.
        let card = in_cards.first().copied().unwrap_or(0.0);
        Load { cpu_cycles: card * 200.0, disk_bytes: card * avg_bytes, tasks: 1, ..Load::default() }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        _inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        let path = self.path.clone();
        let (bytes, store) = rheem_storage::stat(&path).map_err(RheemError::Io)?;
        ctx.add_virtual_ms(rheem_storage::default_costs(store).read_ms(bytes));
        ctx.timed_seq(self, 0, || {
            let text = rheem_storage::read_text(&path).map_err(RheemError::Io)?;
            let out = crate::partitioned::text_rows(&text, 0..text.line_count());
            let n = out.len() as u64;
            Ok((ChannelData::Collection(Arc::new(out)), n))
        })
    }
}

/// Driver-side text file writer.
pub struct DriverTextFileSink {
    path: PathBuf,
}

impl ExecutionOperator for DriverTextFileSink {
    fn name(&self) -> &str {
        "DriverTextFileSink"
    }
    fn platform(&self) -> PlatformId {
        CONTROL
    }
    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        vec![kinds::COLLECTION]
    }
    fn output_kind(&self) -> ChannelKind {
        kinds::NONE
    }
    fn load(&self, in_cards: &[f64], avg_bytes: f64, _model: &crate::cost::CostModel) -> Load {
        let card = in_cards.first().copied().unwrap_or(0.0);
        Load { cpu_cycles: card * 200.0, disk_bytes: card * avg_bytes, tasks: 1, ..Load::default() }
    }
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        let data = inputs[0].flatten()?;
        let path = self.path.clone();
        let store = rheem_storage::resolve(&path).store;
        let out = ctx.timed_seq(self, data.len() as u64, || {
            let bytes = rheem_storage::write_lines(&path, data.iter().map(|v| v.to_string()))
                .map_err(RheemError::Io)?;
            Ok((ChannelData::None, bytes))
        })?;
        let bytes = rheem_storage::stat(&path).map(|(b, _)| b).unwrap_or(0);
        ctx.add_virtual_ms(rheem_storage::default_costs(store).write_ms(bytes));
        Ok(out)
    }
}

/// Register the driver's built-in mappings (control flow, collection
/// sources/sinks, fallback file I/O) with a registry. Called by
/// [`crate::api::RheemContext`] on construction.
pub fn register_builtins(registry: &mut Registry) {
    registry.add_mapping(Arc::new(FnMapping(
        |_plan: &RheemPlan, node: &OperatorNode| match &node.op {
            LogicalOp::RepeatLoop { .. } => {
                vec![Candidate::single(node.id, Arc::new(LoopRelay { label: "RepeatLoop" }) as _)]
            }
            LogicalOp::DoWhile { .. } => {
                vec![Candidate::single(node.id, Arc::new(LoopRelay { label: "DoWhile" }) as _)]
            }
            LogicalOp::CollectionSource { data } => vec![Candidate::single(
                node.id,
                Arc::new(DriverCollectionSource { data: Arc::clone(data) }) as _,
            )],
            LogicalOp::CollectionSink => {
                vec![Candidate::single(node.id, Arc::new(DriverCollectionSink) as _)]
            }
            LogicalOp::TextFileSource { path } => vec![Candidate::single(
                node.id,
                Arc::new(DriverTextFileSource { path: path.clone() }) as _,
            )],
            LogicalOp::TextFileSink { path } => vec![Candidate::single(
                node.id,
                Arc::new(DriverTextFileSink { path: path.clone() }) as _,
            )],
            _ => vec![],
        },
    )));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Profiles;
    use crate::value::Value;

    #[test]
    fn builtin_mappings_cover_control_and_io() {
        let mut reg = Registry::new();
        register_builtins(&mut reg);
        let mut plan = RheemPlan::new();
        let s = plan.add(LogicalOp::CollectionSource { data: Arc::new(vec![Value::from(1)]) }, &[]);
        let sink = plan.add(LogicalOp::CollectionSink, &[s]);
        assert_eq!(reg.candidates_for(&plan, plan.node(s)).len(), 1);
        assert_eq!(reg.candidates_for(&plan, plan.node(sink)).len(), 1);
    }

    #[test]
    fn driver_source_and_sink_roundtrip() {
        let profiles = Profiles::bare();
        let mut ctx = ExecCtx::new(&profiles, 0);
        let src = DriverCollectionSource { data: Arc::new(vec![Value::from(5)]) };
        let out = src.execute(&mut ctx, &[], &BroadcastCtx::new()).unwrap();
        assert_eq!(out.cardinality(), Some(1));
        let sink = DriverCollectionSink;
        let kept = sink.execute(&mut ctx, &[out], &BroadcastCtx::new()).unwrap();
        assert_eq!(kept.cardinality(), Some(1));
    }

    #[test]
    fn text_file_roundtrip() {
        let dir = std::env::temp_dir().join("rheem_builtin_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("io.txt");
        let profiles = Profiles::bare();
        let mut ctx = ExecCtx::new(&profiles, 0);
        let sink = DriverTextFileSink { path: path.clone() };
        let data =
            ChannelData::Collection(Arc::new(vec![Value::from("hello"), Value::from("world")]));
        sink.execute(&mut ctx, &[data], &BroadcastCtx::new()).unwrap();
        let src = DriverTextFileSource { path };
        let out = src.execute(&mut ctx, &[], &BroadcastCtx::new()).unwrap();
        let d = out.flatten().unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].as_str(), Some("hello"));
    }
}
