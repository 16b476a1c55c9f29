//! Communication channels (§3, "Data movement").
//!
//! Data flows between execution operators via *channels* — platform-internal
//! data structures (a Java collection, a Spark RDD, a Flink DataSet, a
//! Postgres relation) or files. Channels of different platforms are bridged
//! by *conversion operators*, which are regular execution operators; the
//! space of all bridges forms the channel conversion graph (see
//! [`crate::movement`]).

use std::any::Any;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use crate::error::{Result, RheemError};
use crate::value::{Dataset, Value};

/// Identity of a channel type, e.g. `"spark.rdd"` or `"java.collection"`.
/// Platforms register their kinds with the [`crate::registry::Registry`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelKind(pub &'static str);

impl fmt::Debug for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Built-in channel kinds owned by the core (platform crates add their own).
pub mod kinds {
    use super::ChannelKind;

    /// A plain in-memory collection (JavaStreams' native channel; also the
    /// universal interchange every platform can produce/consume).
    pub const COLLECTION: ChannelKind = ChannelKind("java.collection");
    /// A text file on the simulated local filesystem.
    pub const LOCAL_FILE: ChannelKind = ChannelKind("fs.file");
    /// A text file on the HDFS simulacrum.
    pub const HDFS_FILE: ChannelKind = ChannelKind("hdfs.file");
    /// An empty pseudo-channel produced by sinks.
    pub const NONE: ChannelKind = ChannelKind("none");
}

/// Static description of a channel kind.
#[derive(Clone, Debug)]
pub struct ChannelDescriptor {
    /// The kind being described.
    pub kind: ChannelKind,
    /// Reusable channels (collections, cached RDDs, files, relations) can
    /// feed multiple consumers; non-reusable ones (plain RDDs, pipelined
    /// datasets) are consumed exactly once. The movement planner must route
    /// fan-out through a reusable vertex (§4.1).
    pub reusable: bool,
}

/// The runtime payload of a channel instance.
#[derive(Clone)]
pub enum ChannelData {
    /// In-memory dataset.
    Collection(Dataset),
    /// Partitioned in-memory dataset (distributed simulacra).
    Partitions(Arc<Vec<Dataset>>),
    /// A file produced/readable by file channels.
    File(Arc<PathBuf>),
    /// Columnar batches ([`crate::batch::Batch`]), one per producing run
    /// (e.g. per partition). Zero-copy to clone (columns are `Arc`-shared)
    /// and lazily materializable: [`ChannelData::flatten`] and
    /// [`ChannelData::sample`] rebuild row values on demand, so consumers
    /// that only understand collections keep working unchanged.
    Batches(Arc<Vec<crate::batch::Batch>>),
    /// Columnar batches with *partition* semantics: exactly one batch per
    /// engine partition, produced when a whole distributed stage stayed
    /// columnar. Unlike [`ChannelData::Batches`] (collection semantics,
    /// rechunked on consumption), these map 1:1 onto the consumer's
    /// partitions — the columnar exchange handoff between spark/flink
    /// stages. Row-mode consumers materialize via [`ChannelData::flatten`].
    BatchParts(Arc<Vec<crate::batch::Batch>>),
    /// Platform-specific payload (e.g. a Postgres relation handle, a Giraph
    /// graph). `kind` tells the owner platform how to interpret it.
    Opaque {
        /// The channel kind this payload belongs to.
        kind: ChannelKind,
        /// The payload itself.
        payload: Arc<dyn Any + Send + Sync>,
    },
    /// No payload (output of sinks).
    None,
}

impl ChannelData {
    /// Number of data quanta, when cheaply known.
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            ChannelData::Collection(d) => Some(d.len()),
            ChannelData::Partitions(p) => Some(p.iter().map(|d| d.len()).sum()),
            ChannelData::Batches(b) | ChannelData::BatchParts(b) => {
                Some(b.iter().map(|x| x.selected_len()).sum())
            }
            _ => None,
        }
    }

    /// Borrow as a single in-memory dataset; errors for other layouts.
    pub fn as_collection(&self) -> Result<&Dataset> {
        match self {
            ChannelData::Collection(d) => Ok(d),
            other => {
                Err(RheemError::Execution(format!("expected collection channel, found {other:?}")))
            }
        }
    }

    /// Borrow as a file path; errors for other layouts.
    pub fn as_file(&self) -> Result<&PathBuf> {
        match self {
            ChannelData::File(p) => Ok(p),
            other => Err(RheemError::Execution(format!("expected file channel, found {other:?}"))),
        }
    }

    /// Downcast an opaque payload.
    pub fn as_opaque<T: Any + Send + Sync>(&self) -> Result<Arc<T>> {
        match self {
            ChannelData::Opaque { payload, .. } => payload
                .clone()
                .downcast::<T>()
                .map_err(|_| RheemError::Execution("opaque payload type mismatch".into())),
            other => {
                Err(RheemError::Execution(format!("expected opaque channel, found {other:?}")))
            }
        }
    }

    /// Up to `limit` leading quanta of an in-memory channel, in partition
    /// order (what a flatten-then-take would return, minus the copy of the
    /// full dataset). `None` for file, opaque and payload-less layouts.
    pub fn sample(&self, limit: usize) -> Option<Vec<Value>> {
        match self {
            ChannelData::Collection(d) => Some(d.iter().take(limit).cloned().collect()),
            ChannelData::Partitions(p) => {
                Some(p.iter().flat_map(|d| d.iter()).take(limit).cloned().collect())
            }
            // Only the rows taken are materialized.
            ChannelData::Batches(b) | ChannelData::BatchParts(b) => {
                Some(b.iter().flat_map(|batch| batch.rows()).take(limit).collect())
            }
            _ => None,
        }
    }

    /// Flatten to a single in-memory dataset, merging partitions (used by
    /// conversion operators and the result collector).
    pub fn flatten(&self) -> Result<Dataset> {
        match self {
            ChannelData::Collection(d) => Ok(Arc::clone(d)),
            ChannelData::Partitions(p) => {
                if p.len() == 1 {
                    return Ok(Arc::clone(&p[0]));
                }
                let total: usize = p.iter().map(|d| d.len()).sum();
                let mut out: Vec<Value> = Vec::with_capacity(total);
                for part in p.iter() {
                    out.extend(part.iter().cloned());
                }
                Ok(Arc::new(out))
            }
            ChannelData::Batches(b) | ChannelData::BatchParts(b) => {
                let total: usize = b.iter().map(|x| x.selected_len()).sum();
                let mut out: Vec<Value> = Vec::with_capacity(total);
                for batch in b.iter() {
                    out.append(&mut batch.to_values());
                }
                Ok(Arc::new(out))
            }
            other => Err(RheemError::Execution(format!("cannot flatten channel {other:?}"))),
        }
    }
}

impl fmt::Debug for ChannelData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelData::Collection(d) => write!(f, "Collection({} quanta)", d.len()),
            ChannelData::Partitions(p) => write!(
                f,
                "Partitions({} x {} quanta)",
                p.len(),
                p.iter().map(|d| d.len()).sum::<usize>()
            ),
            ChannelData::Batches(b) => write!(
                f,
                "Batches({} x {} quanta)",
                b.len(),
                b.iter().map(|x| x.selected_len()).sum::<usize>()
            ),
            ChannelData::BatchParts(b) => write!(
                f,
                "BatchParts({} x {} quanta)",
                b.len(),
                b.iter().map(|x| x.selected_len()).sum::<usize>()
            ),
            ChannelData::File(p) => write!(f, "File({})", p.display()),
            ChannelData::Opaque { kind, .. } => write!(f, "Opaque({kind})"),
            ChannelData::None => write!(f, "None"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_of_layouts() {
        let c = ChannelData::Collection(Arc::new(vec![Value::from(1), Value::from(2)]));
        assert_eq!(c.cardinality(), Some(2));
        let p = ChannelData::Partitions(Arc::new(vec![
            Arc::new(vec![Value::from(1)]),
            Arc::new(vec![Value::from(2), Value::from(3)]),
        ]));
        assert_eq!(p.cardinality(), Some(3));
        assert_eq!(ChannelData::None.cardinality(), None);
    }

    #[test]
    fn flatten_merges_partitions() {
        let p = ChannelData::Partitions(Arc::new(vec![
            Arc::new(vec![Value::from(1)]),
            Arc::new(vec![Value::from(2)]),
        ]));
        let d = p.flatten().unwrap();
        assert_eq!(d.len(), 2);
        // single partition short-circuits without copy
        let single = ChannelData::Partitions(Arc::new(vec![Arc::new(vec![Value::from(9)])]));
        assert_eq!(single.flatten().unwrap().len(), 1);
    }

    #[test]
    fn sample_avoids_flattening() {
        let p = ChannelData::Partitions(Arc::new(vec![
            Arc::new(vec![]),
            Arc::new(vec![Value::from(1), Value::from(2)]),
            Arc::new(vec![Value::from(3)]),
        ]));
        assert_eq!(p.sample(1).unwrap(), vec![Value::from(1)]);
        assert_eq!(p.sample(2).unwrap(), vec![Value::from(1), Value::from(2)]);
        assert_eq!(p.sample(9).unwrap().len(), 3);
        assert!(ChannelData::None.sample(1).is_none());
    }

    #[test]
    fn batches_flatten_sample_and_count() {
        let a = crate::batch::Batch::from_values(&[Value::from(1), Value::from(2)]);
        let b = crate::batch::Batch::from_values(&[Value::from(3)]);
        let ch = ChannelData::Batches(Arc::new(vec![a, b]));
        assert_eq!(ch.cardinality(), Some(3));
        assert_eq!(
            ch.flatten().unwrap().as_ref(),
            &vec![Value::from(1), Value::from(2), Value::from(3)]
        );
        assert_eq!(ch.sample(2).unwrap(), vec![Value::from(1), Value::from(2)]);
        assert_eq!(format!("{ch:?}"), "Batches(2 x 3 quanta)");
    }

    #[test]
    fn accessors_reject_wrong_layout() {
        let c = ChannelData::Collection(Arc::new(vec![]));
        assert!(c.as_file().is_err());
        assert!(c.as_collection().is_ok());
        assert!(ChannelData::None.flatten().is_err());
    }

    #[test]
    fn opaque_downcast() {
        #[derive(Debug, PartialEq)]
        struct Payload(u32);
        let ch =
            ChannelData::Opaque { kind: ChannelKind("test.opaque"), payload: Arc::new(Payload(7)) };
        assert_eq!(ch.as_opaque::<Payload>().unwrap().0, 7);
        assert!(ch.as_opaque::<String>().is_err());
    }
}
