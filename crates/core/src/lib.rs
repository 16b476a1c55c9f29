//! # rheem-core
//!
//! Rust reproduction of **RHEEM** (PVLDB 11(11), 2018): a general-purpose
//! cross-platform data processing system. Applications express platform-
//! agnostic [`plan::RheemPlan`]s over data quanta ([`value::Value`]); the
//! cost-based [`optimizer::Optimizer`] maps every operator to execution
//! operators of registered [`platform::Platform`]s — considering data
//! movement over the channel conversion graph ([`movement`]) and platform
//! start-up costs — and the [`executor::Executor`] orchestrates the chosen
//! plan across platforms, health-checked ([`monitor`]) and progressively
//! re-optimized ([`progressive`]) on cardinality mismatches. The cost model
//! is learned ([`learner`]) from the execution logs every job's
//! [`trace::JobTrace`] carries.
//!
//! ```
//! use rheem_core::prelude::*;
//!
//! // Real applications register platforms (platform-javastreams,
//! // platform-spark, ...) with the context; the driver alone can at least
//! // relay collections end-to-end.
//! let mut b = PlanBuilder::new();
//! let sink = b
//!     .collection(vec![Value::from(1), Value::from(2), Value::from(3)])
//!     .collect();
//! let plan = b.build().unwrap();
//! let ctx = RheemContext::new();
//! let result = ctx.execute(&plan).unwrap();
//! assert_eq!(result.sink(sink).unwrap().len(), 3);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod batch;
pub mod builtin;
pub mod cache;
pub mod cardinality;
pub mod channel;
pub mod config;
pub mod cost;
pub mod dot;
pub mod error;
pub mod exec;
pub mod execplan;
pub mod executor;
pub mod fault;
pub mod fused;
pub mod intern;
pub mod kernels;
pub mod learner;
pub mod mapping;
pub mod metrics;
pub mod monitor;
pub mod movement;
pub mod obs;
pub mod optimizer;
pub mod partitioned;
pub mod plan;
pub mod platform;
pub mod pool;
pub mod progressive;
pub mod registry;
pub mod service;
pub mod trace;
pub mod udf;
pub mod value;

/// Convenient re-exports for application code.
pub mod prelude {
    pub use crate::api::{
        AnalyzeRow, ExplainAnalysis, JobMetrics, JobResult, JobScope, RheemContext,
    };
    pub use crate::cache::Namespace;
    pub use crate::error::{Result, RheemError};
    pub use crate::metrics::MetricsRegistry;
    pub use crate::obs::{Diagnosis, ObsServer, ObsSource, Watchdog, WatchdogConfig};
    pub use crate::plan::{
        DataQuanta, IneqCond, LogicalOp, OperatorId, PlanBuilder, RheemPlan, SampleMethod,
        SampleSize,
    };
    pub use crate::platform::{ids, Platform, PlatformId};
    pub use crate::service::{
        FairShare, JobHandle, JobOutcome, JobRecord, JobService, ServiceConfig, TenantSpec,
    };
    pub use crate::trace::{JobTrace, OpProfile, Span, SpanKind};
    pub use crate::udf::{
        BroadcastCtx, CmpOp, FlatMapUdf, KeyUdf, MapUdf, PredicateUdf, ReduceUdf, Sarg,
    };
    pub use crate::value::{Dataset, Value};
}
