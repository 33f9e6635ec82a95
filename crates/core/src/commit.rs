//! The commit protocol: how one transaction attempt ends, written once.
//!
//! §4.2's serializability argument covers a two-phase transaction over
//! any number of locks; it does not care whether those locks live in one
//! decomposition instance or in several. Neither does this module. An
//! attempt is a set of [`Participant`]s — the parts of the instances a
//! [`Transaction`] touched, in ascending instance order — and it ends
//! through [`conclude`]: [`commit`] when the closure succeeded, [`abort`]
//! otherwise. An attempt that reaches neither because its closure panicked
//! is rolled back as its parts drop, before the engines they borrow can
//! release a lock — the same journal rollback [`abort`] runs.
//! [`with_write_fence`] is the maintenance counterpart: the all-stripe
//! fence that `migrate_to` and `checkpoint` freeze a relation's instances
//! behind.

use std::sync::{Arc, MutexGuard};

use relc_locks::{Backoff, TwoPhaseEngine};

use crate::error::CoreError;
use crate::exec::Executor;
use crate::mvcc::{self, MvccScope};
use crate::placement::LockPlacement;
use crate::relation::{ActiveTxnGuard, ConcurrentRelation, Repr};
use crate::txn::{Part, Transaction, TxnError};
use crate::wal::{self, Wal};

/// One decomposition instance an attempt touched: its [`Part`] — which
/// already holds the instance, the representation pinned for the attempt,
/// the lock engine, the len delta, the MVCC scope and the redo stream —
/// plus the log state [`commit`] carries between its passes. That state
/// lives here, not in per-commit vectors, so a one-participant commit
/// allocates nothing but its redo record.
pub(crate) struct Participant<'a> {
    tx: Part<'a>,
    log: Option<PendingRecord<'a>>,
}

/// A writing participant's redo record on its way into its instance's log.
struct PendingRecord<'a> {
    wal: &'a Wal,
    bytes: Vec<u8>,
    /// The log-order lock: taken before the commit timestamp is
    /// allocated, dropped right after the append.
    order: Option<MutexGuard<'a, ()>>,
    /// The appended record's sequence number — what durability waits on.
    seq: Option<u64>,
}

impl<'a> Participant<'a> {
    pub(crate) fn new(tx: Part<'a>) -> Self {
        Participant { tx, log: None }
    }

    /// The participant's part, for the operations routed to it.
    pub(crate) fn part_mut(&mut self) -> &mut Part<'a> {
        &mut self.tx
    }

    /// The placement this participant's scope was journaled under. An
    /// attempt spanning instances that raced a live migration can hold
    /// representations from both sides of the cutover, and journal
    /// entries only resolve against the placement they were written
    /// under — so each participant retires under its own.
    pub(crate) fn placement(&self) -> &LockPlacement {
        self.tx.repr().physical.placement()
    }

    /// The attempt's MVCC state in this instance.
    pub(crate) fn scope(&self) -> &MvccScope {
        self.tx.mvcc()
    }

    /// Whether this participant's effects may be published: no operation
    /// demanded a restart, and the representation pinned for the attempt
    /// is still the instance's current one. (The transaction loop's `Arc`
    /// keeps the pinned representation alive, so the pointer comparison
    /// cannot be fooled by address reuse.)
    fn may_commit(&self) -> bool {
        !self.tx.needs_restart() && self.tx.relation().is_current(self.tx.repr())
    }
}

/// Ends the attempt whose closure returned `result`. `Some` is the
/// transaction's final answer; `None` means the attempt was rolled back
/// and the closure must re-run after back-off.
pub(crate) fn conclude<R>(
    result: Result<R, TxnError>,
    tx: &mut Transaction<'_>,
) -> Option<Result<R, CoreError>> {
    let (instances, parts) = tx.attempt();
    match result {
        Ok(r) if parts.iter().flatten().all(Participant::may_commit) => {
            Some(commit(instances, parts).map(|()| r))
        }
        // `Ok` with a swallowed `MustRestart` must not commit — the failed
        // operation may be half-applied (an update whose unlink landed but
        // whose re-insert restarted) — and neither may an attempt whose
        // representation a live migration swapped out mid-flight: its
        // effects landed in the retired tree. Enforced, not just
        // documented: both are handled exactly like a propagated restart,
        // rolled back under the attempt's own still-held locks and re-run.
        Ok(_) | Err(TxnError::Restart(_)) => {
            abort(parts, false);
            None
        }
        Err(TxnError::Core(e)) => {
            // Only explicit application aborts count as user rollbacks;
            // validation errors (bad patterns, no valid plan) never
            // applied an effect and would dilute the counter.
            abort(parts, matches!(e, CoreError::TransactionAborted(_)));
            Some(Err(e))
        }
    }
}

/// Publishes a successful attempt and releases its locks. `parts` holds
/// one slot per instance of the relation, `Some` where the attempt
/// touched it. Every step happens while **all** locks of **all**
/// participants are still held, in this order:
///
/// 1. **Len deltas.** A counter moved after release would let an
///    observer acquire the freed locks, read the new contents, and still
///    see the stale count.
/// 2. **Redo records**, for participants that wrote and have a log —
///    encoded outside the order lock.
/// 3. **Log-order locks** of every writing participant, in ascending
///    instance order (the one global order, so committers cannot deadlock
///    on them). Each spans the timestamp allocation and that log's
///    append, so every log's record sequence is in timestamp order and
///    every flushed prefix is a committed prefix.
/// 4. **Clock publication**: one shared commit timestamp stamps every
///    participant's versions, so snapshot readers see the attempt
///    atomically and may treat "stamp ≤ snapshot" as "fully committed".
/// 5. **Appends**, still inside the order locks. When more than one
///    participant wrote, each record is flagged cross-shard and recovery
///    applies it only if the timestamp's marker is durable.
/// 6. **Version retirement** ([`mvcc::finish_attempt`] runs 4–6).
/// 7. **Durability wait and release.** The rule: a relation with more
///    than one log holds its locks until the attempt's records are
///    durable; a relation with one log releases first. Per-log durability
///    is prefix-closed, and conflicting transactions append in timestamp
///    order under the 2PL locks — so with *one* log a durable dependent
///    implies a durable antecedent, and the fsync wait can sit after the
///    release, off the lock path. Prefix closure says nothing across
///    logs: released early, these effects could be read by a later
///    transaction that becomes durable in a *different* instance's log
///    and survives a crash that loses this record — recovery would replay
///    the dependent without its antecedent. So with several logs every
///    writing attempt waits *before* releasing, even one that wrote a
///    single instance: any observer of its effects commits strictly after
///    they can no longer vanish. The cross-shard marker goes to instance
///    0's log last, strictly after every data record is durable: a
///    durable marker implies durable data records on every instance
///    (atomic commit), an absent one aborts them all (atomic abort).
///
/// Both the rule and the marker log are facts about the relation — how
/// many logs it has — read here, not settings passed in.
///
/// # Errors
///
/// [`CoreError::Durability`] from the wait. That is *not* an abort: the
/// attempt is already published in memory, only its durability is
/// unknown.
fn commit(
    instances: &[ConcurrentRelation],
    parts: &mut [Option<Participant<'_>>],
) -> Result<(), CoreError> {
    let marker_log = instances[0].wal();
    let hold_locks_until_durable = instances.iter().filter_map(|s| s.wal()).nth(1).is_some();
    for p in parts.iter_mut().flatten() {
        let shard = p.tx.relation();
        shard.apply_len_delta(p.tx.len_delta());
        let redo = p.tx.redo();
        if let Some(wal) = shard.wal().filter(|_| !redo.is_empty()) {
            p.log = Some(PendingRecord {
                wal,
                bytes: wal::encode_ops(redo),
                order: None,
                seq: None,
            });
        }
    }
    let cross = parts.iter().flatten().filter(|p| p.log.is_some()).count() > 1;
    for log in parts.iter_mut().flatten().filter_map(|p| p.log.as_mut()) {
        log.order = Some(log.wal.lock_order());
    }
    let mut commit_ts = 0;
    // Instances of one relation share one snapshot registry.
    mvcc::finish_attempt(instances[0].snapshots(), parts, |parts, ts| {
        for log in parts.iter_mut().flatten().filter_map(|p| p.log.as_mut()) {
            log.seq = Some(log.wal.append_commit(ts, cross, &log.bytes));
            log.wal.raise_applied_through(ts);
            log.order = None;
        }
        commit_ts = ts;
    });
    let wait = |parts: &[Option<Participant<'_>>]| -> Result<(), CoreError> {
        for log in parts.iter().flatten().filter_map(|p| p.log.as_ref()) {
            if let Some(seq) = log.seq {
                log.wal.wait_durable(seq)?;
            }
        }
        if cross {
            let markers = marker_log.expect("a relation with several logs has a marker log");
            markers.wait_durable(markers.append_marker(commit_ts))?;
        }
        Ok(())
    };
    let mut durability = Ok(());
    if hold_locks_until_durable {
        durability = wait(parts);
    }
    for p in parts.iter_mut().flatten() {
        p.tx.engine().finish();
    }
    if !hold_locks_until_durable {
        durability = wait(parts);
    }
    durability
}

/// Rolls a failed attempt back and releases its locks: every participant's
/// write journal is taken back ([`MvccScope::roll_back`]) before a single
/// lock is released, so no observer can see one instance's effects without
/// another's. Nothing is published — no commit timestamp, no log record,
/// no version: the attempt's stamp stays tentative and its versions are
/// gone from every chain, which is exactly the pre-attempt state.
fn abort(parts: &mut [Option<Participant<'_>>], user_abort: bool) {
    for p in parts.iter_mut().flatten() {
        p.tx.roll_back();
    }
    for p in parts.iter_mut().flatten() {
        if user_abort {
            p.tx.engine().rollback_user();
        } else {
            p.tx.engine().rollback();
        }
    }
}

/// Runs `frozen` with every writer of `shards` drained: takes each
/// shard's all-stripe write fence ([`Executor::acquire_migration_fence`])
/// in ascending shard order, hands `frozen` the representations pinned
/// under it, and releases.
///
/// Every locked operation holds at least one root-hosted lock for its
/// whole two-phase scope, so with the complete sweep held no writer is in
/// flight and none can start: the contents are frozen at one MVCC cut,
/// and every committed stamp is ≤ the clock's `now()`. Ascending order
/// matches the cross-shard `(shard, token)` acquisition order, so the
/// fence cannot deadlock against a cross-shard transaction — one blocked
/// against a fenced shard either waits in its maximum shard or fails a
/// try-only acquisition and restarts. A contended fence rolls back
/// **all** shards' fences and retries after back-off.
///
/// The fence is maintenance, not a transaction: it releases without
/// counting a commit, whatever `frozen` returns.
///
/// # Panics
///
/// Panics if called from inside a transaction on any of `shards`.
pub(crate) fn with_write_fence<T>(
    shards: &[ConcurrentRelation],
    frozen: impl FnOnce(&[Arc<Repr>]) -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    let _guard = ActiveTxnGuard::enter(shards);
    let mut engines: Vec<_> = shards
        .iter()
        .map(|s| TwoPhaseEngine::new(Arc::clone(s.stats_arc())))
        .collect();
    let mut backoff = Backoff::new();
    let reprs = loop {
        let reprs: Vec<Arc<Repr>> = shards.iter().map(|s| s.current_repr()).collect();
        let fenced = shards
            .iter()
            .zip(&reprs)
            .zip(&mut engines)
            .all(|((shard, repr), engine)| {
                let mut exec = Executor::new(&repr.physical, engine);
                exec.always_sort_locks = shard.always_sort_locks();
                exec.acquire_migration_fence(&repr.root).is_ok()
            });
        if fenced {
            break reprs;
        }
        engines.iter_mut().for_each(TwoPhaseEngine::rollback);
        backoff.wait();
    };
    let out = frozen(&reprs);
    engines.iter_mut().for_each(TwoPhaseEngine::rollback);
    out
}

/// Checkpoints `shards` at **one** MVCC cut, behind the write fence:
/// every shard's frozen rows reach its checkpoint sidecar before any log
/// shrinks — a crash in between leaves all logs intact and recovery keyed
/// on each sidecar's floor — then the logs truncate, shard 0's **last**,
/// because it holds the cross-shard commit markers: truncated first, a
/// crash before shard `i > 0` truncates would strand cross-shard records
/// whose markers are gone, silently aborting committed transactions.
/// Committers still parked on a group fsync are released by the
/// truncation: the cut covers their published-before-unlock effects, so
/// the checkpoint itself is their durability. `wals` are the shards' logs,
/// in shard order. Returns the rows written.
///
/// Once the fence is released the checkpoint also hands the heap's free
/// pages back to the operating system ([`trim_heap`]).
///
/// # Errors
///
/// [`CoreError::Durability`] on any I/O error; the in-memory state is
/// unaffected either way.
pub(crate) fn checkpoint(shards: &[ConcurrentRelation], wals: &[&Wal]) -> Result<usize, CoreError> {
    let out = with_write_fence(shards, |reprs| {
        let cut_ts = relc_locks::commit_clock().now();
        let mut total = 0;
        for ((shard, repr), wal) in shards.iter().zip(reprs).zip(wals) {
            let rows = shard.frozen_rows(repr)?;
            wal.write_snapshot(cut_ts, &rows)?;
            total += rows.len();
        }
        for wal in wals.iter().rev() {
            wal.truncate_log()?;
        }
        Ok(total)
    });
    trim_heap();
    out
}

/// Returns the allocator's free heap pages to the operating system.
///
/// Rows replaced by client threads are freed into the arenas of the
/// threads that allocated them (glibc keeps one per thread), and pages a
/// churning workload frees there are otherwise kept for reuse by a thread
/// that may never allocate again, so resident memory grows with the
/// number of operations a run completes. A checkpoint is the periodic,
/// already-slow point at which to give them back.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only walks
        // the allocator's own arenas, under their locks; any thread may
        // call it at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}
