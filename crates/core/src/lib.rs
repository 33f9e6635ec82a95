//! # relc — concurrent data representation synthesis
//!
//! A Rust reproduction of *Concurrent Data Representation Synthesis*
//! (Hawkins, Aiken, Fisher, Rinard, Sagiv — PLDI 2012). Given a relational
//! specification (columns + functional dependencies), a *decomposition* (a
//! DAG of cooperating containers, §4.1), and a *lock placement* (§4.3–4.5),
//! this crate synthesizes a [`ConcurrentRelation`]: a linearizable,
//! deadlock-free concurrent relation object whose operations are compiled
//! query plans over the decomposition (§5).
//!
//! ```
//! use relc::{ConcurrentRelation, decomp, placement::LockPlacement};
//! use relc_containers::ContainerKind;
//! use relc_spec::Value;
//!
//! // Fig. 3(b)-style "split" graph decomposition, fine-grained locks.
//! let d = decomp::library::split(ContainerKind::ConcurrentHashMap,
//!                                ContainerKind::HashMap);
//! let p = LockPlacement::fine(&d)?;
//! let graph = ConcurrentRelation::new(d.clone(), p)?;
//!
//! let schema = d.schema();
//! let key = schema.tuple(&[("src", Value::from(1)), ("dst", Value::from(2))])?;
//! let payload = schema.tuple(&[("weight", Value::from(42))])?;
//! assert!(graph.insert(&key, &payload)?);
//!
//! let succ = graph.query(&schema.tuple(&[("src", Value::from(1))])?,
//!                        schema.column_set(&["dst", "weight"])?)?;
//! assert_eq!(succ.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub(crate) mod commit;
pub mod decomp;
pub mod error;
pub mod exec;
pub mod instance;
pub mod lincheck;
pub(crate) mod mvcc;
pub mod placement;
pub mod planner;
pub mod query;
pub mod relation;
pub mod shard;
pub mod txn;
pub mod viz;
pub mod wal;

pub use analysis::{Analyzer, AnalyzerOptions, Diagnostic, DiagnosticKind};
pub use decomp::{Decomposition, DecompositionBuilder, EdgeId, NodeId};
pub use error::CoreError;
pub use placement::{LockPlacement, LockToken, PlacementBuilder};
pub use planner::{Plan, Planner};
pub use relation::{
    ConcurrentRelation, Instance, Layout, OpCountersSnapshot, Relation, SnapshotReader,
    StatsSnapshot,
};
pub use relc_containers::{ReclamationStats, VersionStats};
pub use shard::{ShardedRelation, Shards};
pub use txn::{Transaction, TxnError};
pub use wal::{RecoveryReport, WalOptions};
