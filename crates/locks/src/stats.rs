//! Lock-engine statistics, used by the ablation benchmarks and tests.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters describing lock traffic for one synthesized relation.
///
/// All counters use relaxed atomics: they are diagnostics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct LockStats {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    restarts: AtomicU64,
    upgrades: AtomicU64,
    speculation_failures: AtomicU64,
    commits: AtomicU64,
    user_rollbacks: AtomicU64,
    snapshot_reads: AtomicU64,
}

/// Per-transaction counter deltas, accumulated locally (no shared-cache
/// traffic on the lock hot path) and flushed into [`LockStats`] at commit
/// or rollback.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LocalStats {
    pub acquisitions: u64,
    pub contended: u64,
    pub restarts: u64,
    pub upgrades: u64,
    pub speculation_failures: u64,
    pub commits: u64,
    pub user_rollbacks: u64,
}

impl LocalStats {
    pub(crate) fn is_empty(&self) -> bool {
        self.acquisitions == 0
            && self.contended == 0
            && self.restarts == 0
            && self.upgrades == 0
            && self.speculation_failures == 0
            && self.commits == 0
            && self.user_rollbacks == 0
    }
}

impl LockStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        LockStats::default()
    }

    /// Merges a transaction's local deltas (one shared add per touched
    /// counter, instead of one per lock acquisition).
    pub(crate) fn flush(&self, local: &mut LocalStats) {
        if local.is_empty() {
            return;
        }
        if local.acquisitions > 0 {
            self.acquisitions
                .fetch_add(local.acquisitions, Ordering::Relaxed);
        }
        if local.contended > 0 {
            self.contended.fetch_add(local.contended, Ordering::Relaxed);
        }
        if local.restarts > 0 {
            self.restarts.fetch_add(local.restarts, Ordering::Relaxed);
        }
        if local.upgrades > 0 {
            self.upgrades.fetch_add(local.upgrades, Ordering::Relaxed);
        }
        if local.speculation_failures > 0 {
            self.speculation_failures
                .fetch_add(local.speculation_failures, Ordering::Relaxed);
        }
        if local.commits > 0 {
            self.commits.fetch_add(local.commits, Ordering::Relaxed);
        }
        if local.user_rollbacks > 0 {
            self.user_rollbacks
                .fetch_add(local.user_rollbacks, Ordering::Relaxed);
        }
        *local = LocalStats::default();
    }

    /// Records `n` completed MVCC snapshot read operations. Snapshot
    /// reads never enter the lock engine (that is the point), so they
    /// bypass the `LocalStats` flush path and record directly.
    pub fn record_snapshot_reads(&self, n: u64) {
        if n > 0 {
            self.snapshot_reads.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Takes a point-in-time snapshot of all counters.
    pub fn snapshot(&self) -> LockStatsSnapshot {
        LockStatsSnapshot {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            upgrades: self.upgrades.load(Ordering::Relaxed),
            speculation_failures: self.speculation_failures.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            user_rollbacks: self.user_rollbacks.load(Ordering::Relaxed),
            snapshot_reads: self.snapshot_reads.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`LockStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStatsSnapshot {
    /// Total physical lock acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that could not be satisfied immediately.
    pub contended: u64,
    /// Transaction restarts (out-of-order try-lock failures or upgrades).
    pub restarts: u64,
    /// Restarts caused specifically by shared→exclusive upgrades. An
    /// upgrade granted in place (the transaction was the lock's sole
    /// reader) restarts nothing and is not counted.
    pub upgrades: u64,
    /// Failed speculative lock guesses (§4.5).
    pub speculation_failures: u64,
    /// Transactions committed (engine `finish` calls).
    pub commits: u64,
    /// Transactions rolled back by an explicit application abort (engine
    /// `rollback_user` calls — `tx.abort(..)` in the transaction layer).
    /// Conflict-driven retries are *not* counted here (they appear in
    /// `restarts`), and neither are validation errors that never applied
    /// an effect, so a retry storm is distinguishable from application
    /// aborts.
    pub user_rollbacks: u64,
    /// Lock-free MVCC snapshot read operations (queries/membership tests
    /// served from version chains without touching the lock engine).
    pub snapshot_reads: u64,
}

/// Field-wise sum: the counters of several engines' sinks (the instances
/// of one relation) read as one.
impl std::iter::Sum for LockStatsSnapshot {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| LockStatsSnapshot {
            acquisitions: a.acquisitions + b.acquisitions,
            contended: a.contended + b.contended,
            restarts: a.restarts + b.restarts,
            upgrades: a.upgrades + b.upgrades,
            speculation_failures: a.speculation_failures + b.speculation_failures,
            commits: a.commits + b.commits,
            user_rollbacks: a.user_rollbacks + b.user_rollbacks,
            snapshot_reads: a.snapshot_reads + b.snapshot_reads,
        })
    }
}

impl fmt::Display for LockStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acquisitions={} contended={} restarts={} upgrades={} \
             spec-failures={} commits={} user-rollbacks={} snapshot-reads={}",
            self.acquisitions,
            self.contended,
            self.restarts,
            self.upgrades,
            self.speculation_failures,
            self.commits,
            self.user_rollbacks,
            self.snapshot_reads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = LockStats::new();
        let mut local = LocalStats {
            acquisitions: 2,
            contended: 1,
            restarts: 1,
            upgrades: 1,
            speculation_failures: 1,
            commits: 1,
            user_rollbacks: 2,
        };
        s.flush(&mut local);
        assert!(local.is_empty(), "flush drains the local deltas");
        s.flush(&mut local); // no-op
        s.record_snapshot_reads(3);
        s.record_snapshot_reads(0); // no-op
        let snap = s.snapshot();
        assert_eq!(snap.acquisitions, 2);
        assert_eq!(snap.contended, 1);
        assert_eq!(snap.restarts, 1);
        assert_eq!(snap.upgrades, 1);
        assert_eq!(snap.speculation_failures, 1);
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.user_rollbacks, 2);
        assert_eq!(snap.snapshot_reads, 3);
        assert!(snap.to_string().contains("acquisitions=2"));
        assert!(snap.to_string().contains("commits=1"));
        assert!(snap.to_string().contains("snapshot-reads=3"));
    }
}
