//! The ordered two-phase locking engine (§4.2, §5.1).
//!
//! Transactions acquire physical locks through a [`TwoPhaseEngine`], which
//! enforces:
//!
//! * **Two-phase discipline**: all acquisitions (growing phase) precede all
//!   releases (shrinking phase). Violations are programming errors in the
//!   query planner and panic.
//! * **Global lock order**: every lock has a totally ordered key `O`
//!   (node topological index, instance key tuple, stripe index — built by
//!   the synthesis runtime). In-order acquisitions may block; out-of-order
//!   acquisitions (which arise from speculative guesses and upgrades) only
//!   *try*; on failure the transaction must release everything and restart.
//!   Since no thread ever blocks while violating the order, the wait-for
//!   graph cannot contain a cycle: **deadlock freedom by construction**.
//! * **Upgrades and hints**: a shared→exclusive upgrade is granted in
//!   place when the transaction is the lock's sole reader and no writer
//!   waits — a *try*, so it never blocks. Otherwise waiting would risk a
//!   deadlock (two upgraders wait for each other); the engine records the
//!   needed mode and fails the transaction, so the retry acquires
//!   exclusive access up front.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::lockdep::LockdepClass;
use crate::mode::LockMode;
use crate::physical::PhysicalLock;
use crate::stats::{LocalStats, LockStats};

/// Why a transaction must restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartReason {
    /// An out-of-order lock was contended; blocking would risk deadlock.
    OutOfOrderContention,
    /// A held shared lock needed upgrading to exclusive.
    UpgradeRequired,
    /// A speculative lock guess (§4.5) failed validation.
    SpeculationFailed,
}

/// Error demanding that the caller roll back and re-run the transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MustRestart {
    /// The reason for the restart.
    pub reason: RestartReason,
}

impl fmt::Display for MustRestart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            RestartReason::OutOfOrderContention => {
                f.write_str("transaction must restart: out-of-order lock was contended")
            }
            RestartReason::UpgradeRequired => {
                f.write_str("transaction must restart: shared lock requires exclusive upgrade")
            }
            RestartReason::SpeculationFailed => {
                f.write_str("transaction must restart: speculative lock guess failed")
            }
        }
    }
}

impl std::error::Error for MustRestart {}

#[derive(Debug)]
struct Held {
    lock: Arc<PhysicalLock>,
    mode: LockMode,
    /// Earlier physical locks held under the same key: when a transaction
    /// removes a node instance and re-creates it (remove + insert of the
    /// same key), the *key* is unchanged but the physical lock is a fresh
    /// object. The engine keeps the dead
    /// object's lock (transactions blocked on it must stay blocked until
    /// we release) and additionally acquires the live object's lock —
    /// treating the new object as covered by the old acquisition would
    /// publish an instance whose lock was never taken.
    shadowed: Vec<(Arc<PhysicalLock>, LockMode)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Growing,
    Shrinking,
}

/// A deadlock-free, ordered, two-phase lock manager for one transaction at a
/// time (create one per worker thread and reuse it across transactions).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use relc_locks::{TwoPhaseEngine, PhysicalLock, LockMode, LockStats};
///
/// let stats = Arc::new(LockStats::new());
/// let a = Arc::new(PhysicalLock::new());
/// let b = Arc::new(PhysicalLock::new());
///
/// let mut txn: TwoPhaseEngine<u32> = TwoPhaseEngine::new(stats);
/// txn.acquire(1, &a, LockMode::Shared)?;
/// txn.acquire(2, &b, LockMode::Exclusive)?;
/// assert_eq!(txn.held_count(), 2);
/// txn.finish(); // shrinking phase: release everything
/// # Ok::<(), relc_locks::MustRestart>(())
/// ```
#[derive(Debug)]
pub struct TwoPhaseEngine<O: Ord + Clone + fmt::Debug + LockdepClass> {
    /// Held locks, sorted by key. A sorted vector beats a tree here: the
    /// §5.1 protocol makes *in-order* acquisition the hot path, which is
    /// an O(1) append (batched sweeps append hundreds of presorted
    /// tokens); lookups are binary searches over contiguous memory; and
    /// out-of-order inserts — already the slow try-only path — pay one
    /// memmove.
    held: Vec<(O, Held)>,
    hints: BTreeMap<O, LockMode>,
    phase: Phase,
    stats: Arc<LockStats>,
    /// Per-transaction deltas; flushed to `stats` at finish/rollback so the
    /// lock hot path never touches shared cache lines.
    local: LocalStats,
    /// When set, even in-order acquisitions only *try* (see
    /// [`TwoPhaseEngine::set_try_only`]): a coordinating layer has declared
    /// that this engine's keys are no longer the globally greatest
    /// coordinates the whole (multi-engine) transaction holds, so blocking
    /// here could close a wait cycle through another engine. Reset at
    /// finish/rollback.
    try_only: bool,
}

impl<O: Ord + Clone + fmt::Debug + LockdepClass> TwoPhaseEngine<O> {
    /// Creates an idle engine reporting to `stats`.
    pub fn new(stats: Arc<LockStats>) -> Self {
        TwoPhaseEngine {
            held: Vec::new(),
            hints: BTreeMap::new(),
            phase: Phase::Growing,
            stats,
            local: LocalStats::default(),
            try_only: false,
        }
    }

    /// Demotes every future acquisition of this transaction — in-order or
    /// not — to a *try*: on contention the transaction restarts instead of
    /// blocking.
    ///
    /// The §5.1 deadlock-freedom argument lets a transaction block only
    /// while requesting a coordinate greater than everything it already
    /// holds. A layer that composes several engines into one transaction
    /// (one per shard of a sharded relation) extends the order
    /// lexicographically to (engine index, key); once the transaction has
    /// acquired anything under a *higher* engine index, no acquisition in
    /// this engine is in global order anymore, whatever its key — the
    /// composing layer flags that here. Cleared automatically by
    /// [`TwoPhaseEngine::finish`] and [`TwoPhaseEngine::rollback`].
    /// (Rolling an attempt back acquires nothing, so the flag never
    /// stands in its way.)
    pub fn set_try_only(&mut self) {
        self.try_only = true;
    }

    /// Index of `key` in the sorted held vector: `Ok(i)` if held,
    /// `Err(i)` with its insertion point otherwise. The common in-order
    /// case (`key` greater than everything held) resolves with one
    /// comparison against the last element.
    fn held_index(&self, key: &O) -> Result<usize, usize> {
        match self.held.last() {
            None => Err(0),
            Some((max, _)) if key > max => Err(self.held.len()),
            Some((max, _)) if key == max => Ok(self.held.len() - 1),
            _ => self.held[..self.held.len() - 1].binary_search_by(|(k, _)| k.cmp(key)),
        }
    }

    /// Acquires `lock` (identified by the globally ordered `key`) in `mode`.
    ///
    /// In-order requests (`key` greater than every held key) block;
    /// out-of-order requests only try, and on contention the transaction
    /// must restart. An exclusive request for a lock held shared upgrades
    /// it in place when no other reader or waiting writer shares it.
    ///
    /// # Errors
    ///
    /// [`MustRestart`] if the lock could not be acquired without risking
    /// deadlock — including an upgrade while another reader shares the
    /// lock; the caller must [`TwoPhaseEngine::rollback`], back off, and
    /// re-run the transaction. Mode hints recorded by failed upgrades are
    /// applied automatically on the retry.
    ///
    /// # Panics
    ///
    /// Panics if called in the shrinking phase (a query-planner bug: plans
    /// are two-phase by construction).
    pub fn acquire(
        &mut self,
        key: O,
        lock: &Arc<PhysicalLock>,
        mode: LockMode,
    ) -> Result<(), MustRestart> {
        assert!(
            self.phase == Phase::Growing,
            "two-phase violation: acquire after release (planner bug)"
        );
        let mode = match self.hints.get(&key) {
            Some(hint) => mode.join(*hint),
            None => mode,
        };
        let pos = match self.held_index(&key) {
            Ok(i) => {
                let held = &mut self.held[i].1;
                if Arc::ptr_eq(&held.lock, lock) {
                    if held.mode.covers(mode) {
                        return Ok(());
                    }
                    // Upgrade required. A sole reader upgrades in place:
                    // the try never blocks, so it adds no wait-for edge
                    // wherever the key sits in the held order, and the
                    // shared hold is kept until the exclusive one is
                    // taken. Otherwise remember the mode and restart.
                    // SAFETY: `held` records our one shared hold of `lock`.
                    if held.shadowed.is_empty() && unsafe { lock.try_upgrade() } {
                        held.mode = LockMode::Exclusive;
                        return Ok(());
                    }
                    self.hints.insert(key, LockMode::Exclusive);
                    self.local.upgrades += 1;
                    self.local.restarts += 1;
                    return Err(MustRestart {
                        reason: RestartReason::UpgradeRequired,
                    });
                }
                // Same key, different physical lock: the instance was
                // replaced within this transaction (see `Held::shadowed`).
                // Acquire the new object's lock — try-only, since the key
                // sits at an arbitrary point of the held order. Replacement
                // objects are unpublished at this point (their subtree
                // links are written after their locks are taken), so the
                // try succeeds except under protocol bugs.
                let mode = mode.join(held.mode);
                if !lock.try_acquire(mode) {
                    self.local.contended += 1;
                    self.local.restarts += 1;
                    return Err(MustRestart {
                        reason: RestartReason::OutOfOrderContention,
                    });
                }
                self.local.acquisitions += 1;
                let old_lock = std::mem::replace(&mut held.lock, Arc::clone(lock));
                let old_mode = std::mem::replace(&mut held.mode, mode);
                held.shadowed.push((old_lock, old_mode));
                return Ok(());
            }
            Err(pos) => pos,
        };
        // Feed the lockdep witness before we can possibly block: a real
        // deadlock would otherwise never get its edge recorded.
        #[cfg(feature = "lockdep")]
        crate::lockdep::record_acquisition(
            self.held.iter().map(|(k, _)| k.lockdep_class()),
            key.lockdep_class(),
        );
        let in_order = pos == self.held.len() && !self.try_only;
        if in_order {
            lock.acquire(mode);
        } else if !lock.try_acquire(mode) {
            self.local.contended += 1;
            self.local.restarts += 1;
            return Err(MustRestart {
                reason: RestartReason::OutOfOrderContention,
            });
        }
        self.local.acquisitions += 1;
        self.held.insert(
            pos,
            (
                key,
                Held {
                    lock: Arc::clone(lock),
                    mode,
                    shadowed: Vec::new(),
                },
            ),
        );
        Ok(())
    }

    /// The mode in which `key` is currently held, if any.
    pub fn holds(&self, key: &O) -> Option<LockMode> {
        self.held_index(key).ok().map(|i| self.held[i].1.mode)
    }

    /// Number of currently held locks.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Records a mode hint for a future retry of this transaction (used by
    /// the speculative protocol when it discovers it will need stronger
    /// access).
    pub fn hint(&mut self, key: O, mode: LockMode) {
        let entry = self.hints.entry(key).or_insert(mode);
        *entry = entry.join(mode);
    }

    /// Fails the transaction with [`RestartReason::SpeculationFailed`],
    /// recording the statistic. Convenience for the speculation protocol.
    pub fn fail_speculation(&mut self) -> MustRestart {
        self.local.speculation_failures += 1;
        self.local.restarts += 1;
        MustRestart {
            reason: RestartReason::SpeculationFailed,
        }
    }

    /// Releases one lock, entering the shrinking phase: no further
    /// acquisitions are allowed until [`TwoPhaseEngine::finish`] or
    /// [`TwoPhaseEngine::rollback`].
    ///
    /// # Panics
    ///
    /// Panics if `key` is not held.
    pub fn unlock(&mut self, key: &O) {
        let (_, held) = match self.held_index(key) {
            Ok(i) => self.held.remove(i),
            Err(_) => panic!("unlock of lock {key:?} that is not held"),
        };
        self.phase = Phase::Shrinking;
        // SAFETY: `held` records the exact modes we acquired.
        unsafe {
            held.lock.release(held.mode);
            for (lock, mode) in held.shadowed {
                lock.release(mode);
            }
        }
    }

    /// Commits the transaction: releases all remaining locks, clears mode
    /// hints, counts a commit, and resets to the growing phase for the next
    /// transaction.
    pub fn finish(&mut self) {
        self.local.commits += 1;
        self.release_all();
        self.hints.clear();
        self.phase = Phase::Growing;
        self.try_only = false;
        self.stats.flush(&mut self.local);
    }

    /// Rolls back after a [`MustRestart`]: releases all locks but *keeps*
    /// mode hints so the retry acquires adequate modes up front, and
    /// resets to growing. The conflict itself was already counted (in
    /// `restarts`) when the restart was issued; this adds nothing, so
    /// retry storms and application aborts stay distinguishable in the
    /// statistics.
    pub fn rollback(&mut self) {
        self.release_all();
        self.phase = Phase::Growing;
        self.try_only = false;
        self.stats.flush(&mut self.local);
    }

    /// Rolls back an explicitly aborted transaction (an application-level
    /// abort, not a conflict): like [`TwoPhaseEngine::rollback`], but
    /// counted in the `user_rollbacks` statistic.
    pub fn rollback_user(&mut self) {
        self.local.user_rollbacks += 1;
        self.rollback();
    }

    /// Whether the transaction has entered the shrinking phase (released a
    /// lock without committing). Multi-operation transaction layers use
    /// this to assert that every operation runs with two-phase discipline
    /// intact.
    pub fn in_shrinking_phase(&self) -> bool {
        self.phase == Phase::Shrinking
    }

    fn release_all(&mut self) {
        for (_, held) in self.held.drain(..) {
            // SAFETY: `held` records the exact modes we acquired.
            unsafe {
                held.lock.release(held.mode);
                for (lock, mode) in held.shadowed {
                    lock.release(mode);
                }
            }
        }
    }

    /// The statistics sink shared by this engine.
    pub fn stats(&self) -> &Arc<LockStats> {
        &self.stats
    }
}

impl<O: Ord + Clone + fmt::Debug + LockdepClass> Drop for TwoPhaseEngine<O> {
    fn drop(&mut self) {
        self.release_all();
        self.stats.flush(&mut self.local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    fn engine() -> TwoPhaseEngine<u32> {
        TwoPhaseEngine::new(Arc::new(LockStats::new()))
    }

    fn lock() -> Arc<PhysicalLock> {
        Arc::new(PhysicalLock::new())
    }

    #[test]
    fn in_order_acquire_and_finish() {
        let (a, b) = (lock(), lock());
        let mut e = engine();
        e.acquire(1, &a, LockMode::Shared).unwrap();
        e.acquire(2, &b, LockMode::Exclusive).unwrap();
        assert_eq!(e.holds(&1), Some(LockMode::Shared));
        assert_eq!(e.holds(&2), Some(LockMode::Exclusive));
        e.finish();
        assert_eq!(e.held_count(), 0);
        // Locks are actually free again.
        assert!(a.try_acquire(LockMode::Exclusive));
        unsafe { a.release(LockMode::Exclusive) };
    }

    #[test]
    fn reacquire_covered_is_noop() {
        let a = lock();
        let mut e = engine();
        e.acquire(1, &a, LockMode::Exclusive).unwrap();
        e.acquire(1, &a, LockMode::Shared).unwrap();
        e.acquire(1, &a, LockMode::Exclusive).unwrap();
        assert_eq!(e.held_count(), 1);
        e.finish(); // stats flush at commit
        assert_eq!(e.stats().snapshot().acquisitions, 1);
    }

    #[test]
    fn sole_reader_upgrades_in_place() {
        let a = lock();
        let mut e = engine();
        e.acquire(1, &a, LockMode::Shared).unwrap();
        e.acquire(1, &a, LockMode::Exclusive).unwrap();
        assert_eq!(e.holds(&1), Some(LockMode::Exclusive));
        assert!(!a.try_acquire(LockMode::Shared), "really exclusive");
        e.finish();
        let snap = e.stats().snapshot();
        assert_eq!((snap.upgrades, snap.restarts, snap.acquisitions), (0, 0, 1));
        // Released as exclusive: the lock is free again.
        assert!(a.try_acquire(LockMode::Exclusive));
        unsafe { a.release(LockMode::Exclusive) };
    }

    #[test]
    fn upgrade_restarts_with_hint() {
        let a = lock();
        let mut e = engine();
        e.acquire(1, &a, LockMode::Shared).unwrap();
        assert!(a.try_acquire(LockMode::Shared)); // another reader shares `a`
        let err = e.acquire(1, &a, LockMode::Exclusive).unwrap_err();
        assert_eq!(err.reason, RestartReason::UpgradeRequired);
        e.rollback();
        unsafe { a.release(LockMode::Shared) };
        // Retry: the hint upgrades the first acquisition to exclusive.
        e.acquire(1, &a, LockMode::Shared).unwrap();
        assert_eq!(e.holds(&1), Some(LockMode::Exclusive));
        e.acquire(1, &a, LockMode::Exclusive).unwrap();
        e.finish();
        assert_eq!(e.stats().snapshot().upgrades, 1);
    }

    #[test]
    fn finish_clears_hints_rollback_keeps_them() {
        let a = lock();
        let mut e = engine();
        e.hint(1, LockMode::Exclusive);
        e.rollback();
        e.acquire(1, &a, LockMode::Shared).unwrap();
        assert_eq!(
            e.holds(&1),
            Some(LockMode::Exclusive),
            "hint survives rollback"
        );
        e.finish();
        e.acquire(1, &a, LockMode::Shared).unwrap();
        assert_eq!(e.holds(&1), Some(LockMode::Shared), "finish clears hints");
        e.finish();
    }

    #[test]
    fn replaced_lock_object_under_same_key_is_really_acquired() {
        // A transaction that unlinks an instance and re-creates it holds
        // the same *key* but must also hold the fresh object's lock —
        // otherwise the new instance is published unlocked.
        let (old, new) = (lock(), lock());
        let mut e = engine();
        e.acquire(1, &old, LockMode::Exclusive).unwrap();
        e.acquire(1, &new, LockMode::Exclusive).unwrap();
        assert_eq!(e.held_count(), 1, "one key");
        // Both objects are exclusively held.
        assert!(!old.try_acquire(LockMode::Shared));
        assert!(!new.try_acquire(LockMode::Shared));
        // Covered re-acquisition of the live object is a no-op.
        e.acquire(1, &new, LockMode::Shared).unwrap();
        e.finish();
        // Both released at commit.
        assert!(old.try_acquire(LockMode::Exclusive));
        assert!(new.try_acquire(LockMode::Exclusive));
        unsafe {
            old.release(LockMode::Exclusive);
            new.release(LockMode::Exclusive);
        }

        // A contended replacement object forces a restart (never blocks).
        let (a, b) = (lock(), lock());
        assert!(b.try_acquire(LockMode::Shared)); // someone else reads b
        let mut e = engine();
        e.acquire(7, &a, LockMode::Exclusive).unwrap();
        let err = e.acquire(7, &b, LockMode::Exclusive).unwrap_err();
        assert_eq!(err.reason, RestartReason::OutOfOrderContention);
        e.rollback();
        unsafe { b.release(LockMode::Shared) };
    }

    #[test]
    fn out_of_order_contention_restarts() {
        let (a, b) = (lock(), lock());
        // Another party holds `a` exclusively.
        assert!(a.try_acquire(LockMode::Exclusive));
        let mut e = engine();
        e.acquire(2, &b, LockMode::Shared).unwrap();
        // Key 1 < max held key 2: out of order, must not block.
        let start = std::time::Instant::now();
        let err = e.acquire(1, &a, LockMode::Shared).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "must not block"
        );
        assert_eq!(err.reason, RestartReason::OutOfOrderContention);
        e.rollback();
        unsafe { a.release(LockMode::Exclusive) };
        // Retry in order now succeeds.
        e.acquire(1, &a, LockMode::Shared).unwrap();
        e.acquire(2, &b, LockMode::Shared).unwrap();
        e.finish();
    }

    #[test]
    fn try_only_never_blocks_and_resets_on_release() {
        let (a, b) = (lock(), lock());
        // Another party holds `b` exclusively.
        assert!(b.try_acquire(LockMode::Exclusive));
        let mut e = engine();
        e.acquire(1, &a, LockMode::Shared).unwrap();
        e.set_try_only();
        // Key 2 > max held key 1 — in order, but try-only must not block.
        let start = std::time::Instant::now();
        let err = e.acquire(2, &b, LockMode::Shared).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "must not block"
        );
        assert_eq!(err.reason, RestartReason::OutOfOrderContention);
        e.rollback();
        unsafe { b.release(LockMode::Exclusive) };
        // Rollback cleared the flag: uncontended in-order blocking
        // acquisition works again, and try-only succeeds when free.
        e.acquire(1, &a, LockMode::Shared).unwrap();
        e.set_try_only();
        e.acquire(2, &b, LockMode::Exclusive).unwrap();
        e.finish();
        e.acquire(2, &b, LockMode::Exclusive).unwrap();
        e.finish();
    }

    #[test]
    fn out_of_order_uncontended_succeeds() {
        let (a, b) = (lock(), lock());
        let mut e = engine();
        e.acquire(2, &b, LockMode::Shared).unwrap();
        e.acquire(1, &a, LockMode::Exclusive).unwrap();
        assert_eq!(e.held_count(), 2);
        e.finish();
    }

    #[test]
    #[should_panic(expected = "two-phase violation")]
    fn acquire_after_unlock_panics() {
        let (a, b) = (lock(), lock());
        let mut e = engine();
        e.acquire(1, &a, LockMode::Shared).unwrap();
        e.unlock(&1);
        let _ = e.acquire(2, &b, LockMode::Shared);
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn unlock_unheld_panics() {
        let mut e = engine();
        e.acquire(1, &lock(), LockMode::Shared).unwrap();
        e.unlock(&99);
    }

    #[test]
    fn drop_releases_held_locks() {
        let a = lock();
        {
            let mut e = engine();
            e.acquire(1, &a, LockMode::Exclusive).unwrap();
        }
        assert!(a.try_acquire(LockMode::Exclusive));
        unsafe { a.release(LockMode::Exclusive) };
    }

    #[test]
    fn restart_and_user_rollbacks_are_distinguished() {
        let a = lock();
        let mut e = engine();
        // Conflict-driven restart: counted in `restarts`, not in
        // `user_rollbacks`.
        e.acquire(1, &a, LockMode::Shared).unwrap();
        assert!(a.try_acquire(LockMode::Shared)); // another reader shares `a`
        let _ = e.acquire(1, &a, LockMode::Exclusive).unwrap_err();
        e.rollback();
        unsafe { a.release(LockMode::Shared) };
        // Application abort: counted in `user_rollbacks` only.
        e.acquire(1, &a, LockMode::Shared).unwrap();
        e.rollback_user();
        let snap = e.stats().snapshot();
        assert_eq!(snap.restarts, 1);
        assert_eq!(snap.user_rollbacks, 1);
        assert!(snap.to_string().contains("user-rollbacks=1"), "{snap}");
    }

    #[test]
    fn speculation_failure_is_counted() {
        let mut e = engine();
        let err = e.fail_speculation();
        assert_eq!(err.reason, RestartReason::SpeculationFailed);
        e.rollback(); // stats flush at abort
        assert_eq!(e.stats().snapshot().speculation_failures, 1);
        assert_eq!(e.stats().snapshot().restarts, 1);
    }

    /// End-to-end deadlock-freedom stress: many threads run transactions
    /// over a shared pool of locks. Each transaction wants a random subset
    /// in a random *request* order; the engine's order/try/restart protocol
    /// must guarantee global progress. A watchdog fails the test on a hang.
    #[test]
    fn stress_no_deadlock_under_adversarial_orders() {
        const LOCKS: usize = 12;
        const THREADS: usize = 8;
        const TXNS: usize = 300;

        let locks: Arc<Vec<Arc<PhysicalLock>>> = Arc::new((0..LOCKS).map(|_| lock()).collect());
        let barrier = Arc::new(Barrier::new(THREADS));
        let stats = Arc::new(LockStats::new());

        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let locks = locks.clone();
                let barrier = barrier.clone();
                let stats = stats.clone();
                std::thread::spawn(move || {
                    let mut e: TwoPhaseEngine<usize> = TwoPhaseEngine::new(stats);
                    let mut rng = (tid as u64 + 1) * 0x9e37_79b9;
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    barrier.wait();
                    for _ in 0..TXNS {
                        // Pick 3 distinct lock indices in arbitrary order.
                        let mut want = [0usize; 3];
                        for w in &mut want {
                            *w = (next() % LOCKS as u64) as usize;
                        }
                        let mut backoff = crate::backoff::Backoff::new();
                        'txn: loop {
                            for &w in &want {
                                let mode = if next() % 2 == 0 {
                                    LockMode::Shared
                                } else {
                                    LockMode::Exclusive
                                };
                                if e.acquire(w, &locks[w], mode).is_err() {
                                    e.rollback();
                                    backoff.wait();
                                    continue 'txn;
                                }
                            }
                            // "Commit".
                            e.finish();
                            break;
                        }
                    }
                })
            })
            .collect();

        // Watchdog: the whole stress must complete well within 60s.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for h in handles {
                h.join().unwrap();
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("deadlock: stress test did not complete");
    }
}
