//! # relc-autotune — the autotuner of §6.1, online
//!
//! "A programmer may not know the best possible representation for a
//! concurrent relation. To help find an optimal decomposition ... we have
//! implemented an autotuner which, given a concurrent benchmark,
//! automatically discovers the best combination of decomposition structure,
//! container data structures, and choice of lock placement."
//!
//! This crate provides the candidate space and, beyond the paper's offline
//! enumerate-and-measure loop, an *online* cost model: calibrate once in
//! the process that uses it, then rank candidates for live traffic
//! without re-measuring — feeding
//! [`relc::ConcurrentRelation::migrate_to`] for live re-decomposition.
//!
//! * [`graph`] — the §6.2 four-operation concurrent graph interface
//!   ([`graph::GraphOps`]) and its synthesized implementation;
//! * [`candidates`] — the search space (3 structures × container menu ×
//!   placement families × stripe factors), validity- and
//!   consistency-filtered per §6.1;
//! * [`calibrate`] — the transaction-layer calibration mixes
//!   ([`calibrate::TxnMix`]) and measurement runner, plus the legacy §6.2
//!   Herlihy-style graph workload ([`calibrate::run_workload`]) folded in;
//! * [`cost`] — the in-memory [`cost::CostModel`]: feature vectors and
//!   [`cost::CostModel::advise`] over observed workload signals.
//!
//! # Example
//!
//! ```
//! use relc_autotune::calibrate::{CalibrationConfig, TxnMix};
//! use relc_autotune::candidates::{Candidate, PlacementKind, Structure};
//! use relc_autotune::cost::{CostModel, ObservedSignals};
//! use relc_containers::ContainerKind;
//!
//! let candidates = vec![Candidate {
//!     structure: Structure::Stick,
//!     top: ContainerKind::ConcurrentHashMap,
//!     second: ContainerKind::TreeMap,
//!     top2: None,
//!     second2: None,
//!     placement: PlacementKind::Striped(8),
//! }];
//! let cfg = CalibrationConfig { threads: 2, ops_per_thread: 200, ..Default::default() };
//! let model = CostModel::calibrate(&candidates, &[TxnMix::ReadHeavy], &cfg);
//!
//! // Later, against observed traffic (normally a `StatsSnapshot` delta):
//! let observed = ObservedSignals {
//!     reads: 950, writes: 50, txns: 0,
//!     restart_rate: 0.0, contention: 0.1, snapshot_read_rate: 0.9,
//! };
//! if let Some(advice) = model.advise(&observed) {
//!     println!("install {}", advice.best().candidate.name());
//! }
//! ```

#![warn(missing_docs)]

pub mod calibrate;
pub mod candidates;
pub mod cost;
pub mod graph;

pub use calibrate::{
    calibrate_run, run_workload, CalibrationConfig, KeyDistribution, MixProfile, OpMix, TxnMix,
    WorkloadConfig, WorkloadResult, FIGURE5_MIXES,
};
pub use candidates::{enumerate, Candidate, PlacementKind, Structure};
pub use cost::{
    CostModel, FeatureVector, ModelEntry, ObservedSignals, RankedCandidate, RankedCandidates,
};
pub use graph::{GraphOps, RelationGraph};
