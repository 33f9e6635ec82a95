//! The commit protocol: how one transaction attempt ends, written once.
//!
//! §4.2's serializability argument covers a two-phase transaction over
//! any number of locks; it does not care whether those locks live in one
//! decomposition instance or in several. Neither does this module. An
//! attempt is a set of [`Participant`]s — the one [`ConcurrentRelation`]
//! of a single-instance transaction, or the shards a
//! [`ShardedTransaction`](crate::ShardedTransaction) touched, in ascending
//! shard order — and it ends through [`conclude`]: [`commit`] when the
//! closure succeeded, [`abort`] otherwise. An attempt that reaches neither
//! because its closure panicked is rolled back as its [`Transaction`]s
//! drop, before the engines they borrow can release a lock — the same
//! journal rollback [`abort`] runs. [`with_write_fence`] is the
//! maintenance counterpart: the all-stripe fence that `migrate_to` and
//! `checkpoint` freeze a relation (or every shard of one) behind.

use std::sync::{Arc, MutexGuard};

use relc_locks::{Backoff, TwoPhaseEngine};

use crate::error::CoreError;
use crate::exec::Executor;
use crate::mvcc::{self, MvccScope};
use crate::placement::{LockPlacement, LockToken};
use crate::relation::{ActiveTxnGuard, ConcurrentRelation, Repr};
use crate::txn::{Transaction, TxnError};
use crate::wal::{self, Wal};

/// One decomposition instance an attempt touched: its [`Transaction`] —
/// which already holds the shard, the representation pinned for the
/// attempt, the lock engine, the len delta, the MVCC scope and the redo
/// stream — plus the log state [`commit`] carries between its passes.
/// That state lives here, not in per-commit vectors, so a one-participant
/// commit allocates nothing but its redo record.
pub(crate) struct Participant<'a> {
    tx: Transaction<'a>,
    log: Option<PendingRecord<'a>>,
}

/// A writing participant's redo record on its way into its shard's log.
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
    pub(crate) fn new(tx: Transaction<'a>) -> Self {
        Participant { tx, log: None }
    }

    /// The placement this participant's scope was journaled under. A
    /// cross-shard attempt that raced a live migration can hold
    /// representations from both sides of the cutover, and journal
    /// entries only resolve against the placement they were written
    /// under — so each participant retires under its own.
    pub(crate) fn placement(&self) -> &LockPlacement {
        &self.tx.repr().placement
    }

    /// The attempt's MVCC state in this instance.
    pub(crate) fn scope(&self) -> &MvccScope {
        self.tx.mvcc()
    }

    /// Whether this participant's effects may be published: no operation
    /// demanded a restart, and the representation pinned for the attempt
    /// is still the shard's current one. (The caller's `Arc` keeps the
    /// pinned representation alive, so the pointer comparison cannot be
    /// fooled by address reuse.)
    fn may_commit(&self) -> bool {
        !self.tx.needs_restart()
            && std::ptr::eq(&*self.tx.relation().current_repr(), self.tx.repr())
    }
}

/// Ends the attempt whose closure returned `result`. `Some` is the
/// transaction's final answer; `None` means the attempt was rolled back
/// and the closure must re-run after back-off. See [`commit`] for
/// `marker_log` and `hold_locks_until_durable`.
pub(crate) fn conclude<R>(
    result: Result<R, TxnError>,
    parts: &mut [Participant<'_>],
    marker_log: Option<&Wal>,
    hold_locks_until_durable: bool,
) -> Option<Result<R, CoreError>> {
    match result {
        Ok(r) if parts.iter().all(Participant::may_commit) => {
            Some(commit(parts, marker_log, hold_locks_until_durable).map(|()| r))
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

/// Publishes a successful attempt and releases its locks. Every step
/// happens while **all** locks of **all** participants are still held,
/// in this order:
///
/// 1. **Len deltas.** A counter moved after release would let an
///    observer acquire the freed locks, read the new contents, and still
///    see the stale count.
/// 2. **Redo records**, for participants that wrote and have a log —
///    encoded outside the order lock.
/// 3. **Log-order locks** of every writing participant, in ascending
///    shard order (the one global order, so committers cannot deadlock
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
/// 7. **Durability wait and release.** Per-log durability is
///    prefix-closed, and conflicting transactions append in timestamp
///    order under the 2PL locks — so with *one* log a durable dependent
///    implies a durable antecedent, and the fsync wait can sit after the
///    release, off the lock path (`hold_locks_until_durable = false`).
///    A sharded relation has one log per shard, and prefix closure says
///    nothing across logs: released early, these effects could be read
///    by a later transaction that becomes durable in a *different*
///    shard's log and survives a crash that loses this record — recovery
///    would replay the dependent without its antecedent. So a sharded
///    relation's `transaction` waits *before* releasing (`true`), even
///    when the attempt wrote one shard: any observer of these effects
///    commits strictly after they can no longer vanish. Routed
///    single-shot writes (`ShardedRelation::{insert, update,
///    remove_returning, insert_all, remove_all}` on the routed fast path)
///    do not: they run through the shard's own `run_transaction`, which
///    passes `false`, so they release before their `fsync` and can lose
///    an antecedent in the way just described. That gap is open (ROADMAP,
///    the `durable_sharded` item, (b)). The cross-shard marker goes to
///    `marker_log` (shard 0's) last, strictly after every data record is
///    durable: a durable marker implies durable data records on every
///    shard (atomic commit), an absent one aborts them all (atomic
///    abort).
///
/// Both arguments are facts about what the caller *is* — a relation with
/// one log or with one per shard — not settings.
///
/// # Errors
///
/// [`CoreError::Durability`] from the wait. That is *not* an abort: the
/// attempt is already published in memory and its locks are released,
/// only its durability is unknown.
pub(crate) fn commit(
    parts: &mut [Participant<'_>],
    marker_log: Option<&Wal>,
    hold_locks_until_durable: bool,
) -> Result<(), CoreError> {
    // Shards of one relation share one snapshot registry.
    let Some(first) = parts.first() else {
        return Ok(());
    };
    let registry = first.tx.relation().snapshots();
    for p in parts.iter_mut() {
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
    let cross = parts.iter().filter(|p| p.log.is_some()).count() > 1;
    for log in parts.iter_mut().filter_map(|p| p.log.as_mut()) {
        log.order = Some(log.wal.lock_order());
    }
    let mut commit_ts = 0;
    mvcc::finish_attempt(registry, parts, |parts, ts| {
        for log in parts.iter_mut().filter_map(|p| p.log.as_mut()) {
            log.seq = Some(log.wal.append_commit(ts, cross, &log.bytes));
            log.wal.raise_applied_through(ts);
            log.order = None;
        }
        commit_ts = ts;
    });
    let wait = |parts: &[Participant<'_>]| -> Result<(), CoreError> {
        for log in parts.iter().filter_map(|p| p.log.as_ref()) {
            if let Some(seq) = log.seq {
                log.wal.wait_durable(seq)?;
            }
        }
        if cross {
            let markers = marker_log.expect("a relation with several logs names its marker log");
            markers.wait_durable(markers.append_marker(commit_ts))?;
        }
        Ok(())
    };
    let mut durability = Ok(());
    if hold_locks_until_durable {
        durability = wait(parts);
    }
    for p in parts.iter_mut() {
        p.tx.engine().finish();
    }
    if !hold_locks_until_durable {
        durability = wait(parts);
    }
    durability
}

/// Rolls a failed attempt back and releases its locks: every participant's
/// write journal is taken back ([`MvccScope::roll_back`]) before a single
/// lock is released, so no observer can see one shard's effects without
/// another's. Nothing is published — no commit timestamp, no log record,
/// no version: the attempt's stamp stays tentative and its versions are
/// gone from every chain, which is exactly the pre-attempt state.
pub(crate) fn abort(parts: &mut [Participant<'_>], user_abort: bool) {
    for p in parts.iter_mut() {
        p.tx.roll_back();
    }
    for p in parts.iter_mut() {
        if user_abort {
            p.tx.engine().rollback_user();
        } else {
            p.tx.engine().rollback();
        }
    }
}

/// Re-entrancy guards for every shard: a single-shot operation on the
/// relation (or directly on a shard) from inside a closure or a fence
/// would open a second engine against locks this thread already holds.
pub(crate) fn enter_all(shards: &[ConcurrentRelation]) -> Vec<ActiveTxnGuard> {
    shards
        .iter()
        .map(|s| ActiveTxnGuard::enter(s.relation_id()))
        .collect()
}

/// One idle lock engine per shard, each reporting to its shard's stats.
pub(crate) fn engines_for(shards: &[ConcurrentRelation]) -> Vec<TwoPhaseEngine<LockToken>> {
    shards
        .iter()
        .map(|s| TwoPhaseEngine::new(Arc::clone(s.stats_arc())))
        .collect()
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
    let _guards = enter_all(shards);
    let mut engines = engines_for(shards);
    let mut backoff = Backoff::new();
    let reprs = loop {
        let reprs: Vec<Arc<Repr>> = shards.iter().map(|s| s.current_repr()).collect();
        let fenced = shards
            .iter()
            .zip(&reprs)
            .zip(&mut engines)
            .all(|((shard, repr), engine)| {
                let mut exec = Executor::new(&repr.decomp, &repr.placement, engine);
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
/// the checkpoint itself is their durability. Returns the rows written.
///
/// # Errors
///
/// [`CoreError::Durability`] if a shard has no write-ahead log, or on any
/// I/O error; the in-memory state is unaffected either way.
pub(crate) fn checkpoint(shards: &[ConcurrentRelation]) -> Result<usize, CoreError> {
    let wals: Vec<&Wal> = shards
        .iter()
        .map(|s| s.wal())
        .collect::<Option<_>>()
        .ok_or_else(|| CoreError::Durability("relation has no write-ahead log".into()))?;
    with_write_fence(shards, |reprs| {
        let cut_ts = relc_locks::commit_clock().now();
        let mut total = 0;
        for ((shard, repr), wal) in shards.iter().zip(reprs).zip(&wals) {
            let rows = shard.frozen_rows(repr)?;
            wal.write_snapshot(cut_ts, &rows)?;
            total += rows.len();
        }
        for wal in wals.iter().rev() {
            wal.truncate_log()?;
        }
        Ok(total)
    })
}
