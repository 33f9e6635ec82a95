//! # relc-locks — the lock-placement substrate
//!
//! Physical locks and the deadlock-free ordered two-phase locking engine
//! used by `relc` (a Rust reproduction of *Concurrent Data Representation
//! Synthesis*, PLDI 2012; the lock theory follows the companion ESOP 2012
//! paper *Reasoning about Lock Placements*).
//!
//! * [`LockMode`] — shared/exclusive modes (§4.2);
//! * [`PhysicalLock`] — raw reader-writer locks attached to decomposition
//!   node instances (§4.3), with contention accounting;
//! * [`TwoPhaseEngine`] — per-thread transaction lock manager enforcing
//!   two-phase discipline and the global lock order of §5.1, with
//!   try-and-restart handling for out-of-order needs (speculation §4.5,
//!   upgrades, granted in place for a sole reader) — deadlock freedom by
//!   construction;
//! * [`Backoff`] — randomized restart backoff;
//! * [`LockStats`] — counters consumed by the ablation benchmarks.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use relc_locks::{Backoff, LockMode, LockStats, PhysicalLock, TwoPhaseEngine};
//!
//! let stats = Arc::new(LockStats::new());
//! let locks: Vec<Arc<PhysicalLock>> =
//!     (0..3).map(|_| Arc::new(PhysicalLock::new())).collect();
//!
//! let mut txn: TwoPhaseEngine<usize> = TwoPhaseEngine::new(stats);
//! let mut backoff = Backoff::new();
//! loop {
//!     let ok = (|| {
//!         txn.acquire(0, &locks[0], LockMode::Shared)?;
//!         txn.acquire(2, &locks[2], LockMode::Exclusive)?;
//!         Ok::<_, relc_locks::MustRestart>(())
//!     })();
//!     match ok {
//!         Ok(()) => { /* read/write the protected data here */ break; }
//!         Err(_) => { txn.rollback(); backoff.wait(); }
//!     }
//! }
//! txn.finish();
//! ```

#![warn(missing_docs)]

mod backoff;
mod clock;
mod engine;
mod group_commit;
pub mod lockdep;
mod mode;
mod physical;
mod stats;

pub use backoff::Backoff;
pub use clock::{
    commit_clock, snapshot_registry, CommitClock, CommitStamp, SnapshotGuard, SnapshotRegistry,
    TENTATIVE_TS,
};
pub use engine::{MustRestart, RestartReason, TwoPhaseEngine};
pub use group_commit::{GroupCommit, GroupCommitStats};
pub use lockdep::LockdepClass;
pub use mode::LockMode;
pub use physical::PhysicalLock;
pub use stats::{LockStats, LockStatsSnapshot};
