//! Multi-operation transactions over a synthesized relation (§4.2).
//!
//! The paper's serializability argument is per-*transaction*, not
//! per-operation: any sequence of well-locked operations that acquires
//! all of its locks before releasing any of them (two-phase) is
//! serializable, and with the §5.1 ordered/try-restart protocol it is
//! also deadlock-free. The seed implementation only exposed that power
//! one operation at a time; this module makes the transaction the unit
//! of locking.
//!
//! A [`Transaction`] borrows its relation and holds **one**
//! [`TwoPhaseEngine`] across every operation invoked through it. Locks
//! accumulate until the closure passed to
//! [`ConcurrentRelation::transaction`] returns; only then does the engine
//! release — through the one commit protocol in `commit.rs`, which a
//! sharded transaction runs over several of these at once. When any
//! operation inside the closure demands a restart (out-of-order lock
//! contention, a shared→exclusive upgrade, a failed speculation), the
//! *whole closure* re-runs from scratch against a clean lock state — that
//! is what makes read-modify-write sequences atomic: the values read
//! before the restart are discarded along with the locks.
//!
//! # Write compensation
//!
//! Operations apply their container writes eagerly (later operations in
//! the same transaction must see them), so a restart in operation *k*
//! must first undo the writes of operations *1..k*. The transaction keeps
//! an undo log of structural inverses (insert ⟷ unlink) and replays it in
//! reverse before releasing any lock. Because the log is replayed while
//! every lock of the original operations is still held, and each
//! operation pre-acquires the few extra tokens its inverse could need
//! (see [`Executor::run_insert`]'s [`InsertUndo`]), compensation itself
//! can never restart — enforced, not assumed: a restarting compensation
//! panics rather than release locks around a half-applied transaction.
//!
//! # Example
//!
//! ```
//! use relc::{ConcurrentRelation, decomp, placement::LockPlacement};
//! use relc_containers::ContainerKind;
//! use relc_spec::Value;
//!
//! let d = decomp::library::kv(ContainerKind::ConcurrentHashMap);
//! let p = LockPlacement::striped_root(&d, 16)?;
//! let accounts = ConcurrentRelation::new(d.clone(), p)?;
//! let schema = d.schema();
//! let key = |k: i64| schema.tuple(&[("key", Value::from(k))]).unwrap();
//! let val = |v: i64| schema.tuple(&[("value", Value::from(v))]).unwrap();
//! accounts.insert(&key(1), &val(100))?;
//! accounts.insert(&key(2), &val(0))?;
//!
//! // Atomically move 30 from account 1 to account 2: impossible with
//! // single-shot operations, trivial in a transaction.
//! let vcol = schema.column("value")?;
//! accounts.transaction(|tx| {
//!     let from = tx.update(&key(1), &val(70))?.expect("account 1 exists");
//!     assert_eq!(from.get(vcol), Some(&Value::from(100)));
//!     tx.update(&key(2), &val(30))?;
//!     Ok(())
//! })?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`ConcurrentRelation::transaction`]: crate::ConcurrentRelation::transaction
//! [`TwoPhaseEngine`]: relc_locks::TwoPhaseEngine
//! [`Executor::run_insert`]: crate::exec::Executor::run_insert

use std::fmt;
use std::sync::Arc;

use relc_locks::{MustRestart, TwoPhaseEngine};
use relc_spec::{ColumnSet, SpecError, Tuple};

use crate::error::CoreError;
use crate::exec::{Executor, InsertUndo};
use crate::placement::LockToken;
use crate::planner::{InsertPlan, RemovePlan, UpdatePlan};
use crate::relation::{ConcurrentRelation, Repr};

/// Why a transactional operation did not return a value.
///
/// Closures passed to [`ConcurrentRelation::transaction`] should
/// propagate this with `?`: [`TxnError::Restart`] is consumed by the
/// transaction loop (the closure re-runs), while [`TxnError::Core`]
/// aborts the transaction — its effects are rolled back — and surfaces to
/// the caller.
///
/// [`ConcurrentRelation::transaction`]: crate::ConcurrentRelation::transaction
#[derive(Debug)]
pub enum TxnError {
    /// The lock engine demands a whole-transaction restart. Internal
    /// control flow: never escapes [`ConcurrentRelation::transaction`].
    ///
    /// [`ConcurrentRelation::transaction`]: crate::ConcurrentRelation::transaction
    Restart(MustRestart),
    /// The transaction aborts with an error; all of its effects are
    /// undone before the error is returned.
    Core(CoreError),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Restart(r) => write!(f, "{r}"),
            TxnError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<MustRestart> for TxnError {
    fn from(r: MustRestart) -> Self {
        TxnError::Restart(r)
    }
}

impl From<CoreError> for TxnError {
    fn from(e: CoreError) -> Self {
        TxnError::Core(e)
    }
}

impl From<SpecError> for TxnError {
    fn from(e: SpecError) -> Self {
        TxnError::Core(CoreError::Spec(e))
    }
}

/// One applied operation, recorded as its API arguments for the
/// write-ahead log's redo stream. Captured only when the relation has a
/// WAL attached (see [`Transaction::new`]); replay re-runs the same calls
/// through a fresh transaction, so the redo record needs nothing beyond
/// what the caller originally passed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RedoOp {
    /// `insert r s t` that actually inserted.
    Insert(Tuple, Tuple),
    /// `remove r s` that actually removed.
    Remove(Tuple),
    /// `update r s t` that found (and replaced) a tuple.
    Update(Tuple, Tuple),
}

/// A structural inverse recorded for one applied operation.
enum UndoOp {
    /// Inverse of an insert: unlink the tuple.
    Unlink { plan: Arc<RemovePlan>, tuple: Tuple },
    /// Inverse of a removal: re-insert the tuple.
    Reinsert { plan: Arc<InsertPlan>, tuple: Tuple },
    /// Inverse of an in-place update: swap the touched entries back from
    /// `new` to `old` (holds the old values, not a structural
    /// unlink/re-insert pair). Replayed under the locks of the forward
    /// pass, it acquires nothing and can never restart.
    WriteBack {
        plan: Arc<UpdatePlan>,
        old: Tuple,
        new: Tuple,
    },
}

/// An open multi-operation transaction on a [`ConcurrentRelation`].
///
/// Created by [`ConcurrentRelation::transaction`]; every operation runs
/// under the transaction's single two-phase lock scope and sees the
/// effects of the transaction's earlier operations. See the
/// [module docs](self) for semantics.
///
/// [`ConcurrentRelation::transaction`]: crate::ConcurrentRelation::transaction
pub struct Transaction<'t> {
    rel: &'t ConcurrentRelation,
    /// The representation this attempt is pinned to (captured by the
    /// transaction loop before the attempt starts; the loop validates at
    /// commit that it is still the relation's current one).
    repr: &'t Repr,
    exec: Executor<'t>,
    undo: Vec<UndoOp>,
    /// Applied operations in order, for the WAL's redo record. Empty
    /// (never pushed, no allocation) unless the relation has a WAL.
    redo: Vec<RedoOp>,
    /// Whether to capture [`RedoOp`]s — true exactly when the relation
    /// has a WAL attached. Unlike undo, redo is captured even in
    /// single-shot mode: the record is what recovery replays.
    log_redo: bool,
    len_delta: isize,
    single_shot: bool,
    saw_restart: bool,
}

impl<'t> Transaction<'t> {
    /// Opens one attempt on `rel`, pinned to `repr`, acquiring through
    /// `engine`.
    pub(crate) fn new(
        rel: &'t ConcurrentRelation,
        repr: &'t Repr,
        engine: &'t mut TwoPhaseEngine<LockToken>,
        single_shot: bool,
    ) -> Self {
        let mut exec = Executor::new(&repr.decomp, &repr.placement, engine);
        exec.always_sort_locks = rel.always_sort_locks();
        Transaction {
            rel,
            repr,
            exec,
            undo: Vec::new(),
            redo: Vec::new(),
            log_redo: rel.has_wal(),
            len_delta: 0,
            single_shot,
            saw_restart: false,
        }
    }

    /// Records any [`MustRestart`] an operation produced before handing it
    /// to the closure. A closure that swallows the error and returns `Ok`
    /// would otherwise commit a half-applied transaction (e.g. an update
    /// whose unlink succeeded but whose re-insert restarted); the commit
    /// path checks [`Transaction::needs_restart`] and rolls back and
    /// retries instead, so the discipline is enforced, not just
    /// documented.
    fn track<T>(&mut self, r: Result<T, MustRestart>) -> Result<T, TxnError> {
        if r.is_err() {
            self.saw_restart = true;
        }
        r.map_err(TxnError::from)
    }

    /// Whether any operation of this transaction demanded a restart. Once
    /// set, the transaction must not commit, whatever the closure returns.
    pub(crate) fn needs_restart(&self) -> bool {
        self.saw_restart
    }

    /// Demotes every future lock acquisition of this transaction to a
    /// *try* (restart on contention, never block). The sharding layer
    /// calls this when the enclosing cross-shard transaction already holds
    /// locks under a higher shard index, so blocking here would sit
    /// outside the global (shard, token) order — see
    /// [`crate::shard::ShardedTransaction`].
    pub(crate) fn force_try_locks(&mut self) {
        self.exec.set_try_only();
    }

    /// The relation this transaction operates on.
    ///
    /// Only for reading metadata (schema, columns): operations on the
    /// relation inside the closure must go through the transaction —
    /// single-shot calls there self-deadlock (and panic, see
    /// [`ConcurrentRelation::transaction`]).
    ///
    /// [`ConcurrentRelation::transaction`]: crate::ConcurrentRelation::transaction
    pub fn relation(&self) -> &'t ConcurrentRelation {
        self.rel
    }

    /// §4.2 precondition for every operation: all acquisitions precede
    /// all releases across the *whole* transaction, and releases happen
    /// only at commit/rollback — so the engine must still be in its
    /// growing phase whenever an operation starts.
    fn assert_two_phase(&self) {
        debug_assert!(
            !self.exec.engine_in_shrinking_phase(),
            "two-phase discipline broken: engine entered the shrinking \
             phase mid-transaction"
        );
    }

    /// Net tuple-count change of the operations applied so far.
    pub(crate) fn len_delta(&self) -> isize {
        self.len_delta
    }

    /// The attempt's applied-operation stream for the WAL's redo record
    /// (empty when the relation has no WAL, or nothing applied).
    pub(crate) fn redo(&self) -> &[RedoOp] {
        &self.redo
    }

    /// The attempt's MVCC state (commit stamp + write journal), which
    /// [`crate::commit`] stamps and retires before the engine releases
    /// any lock.
    pub(crate) fn mvcc(&self) -> &crate::mvcc::MvccScope {
        self.exec.mvcc()
    }

    /// The representation this attempt is pinned to.
    pub(crate) fn repr(&self) -> &'t Repr {
        self.repr
    }

    /// The attempt's lock engine, for the release that ends it.
    pub(crate) fn engine(&mut self) -> &mut TwoPhaseEngine<LockToken> {
        self.exec.engine()
    }

    /// Pre-seeds the attempt's commit stamp. The sharding layer injects
    /// one shared stamp into every shard-local transaction of a
    /// cross-shard attempt, so all shards' versions become visible at one
    /// timestamp (a single consistent cut).
    pub(crate) fn set_mvcc_stamp(&mut self, stamp: std::sync::Arc<relc_locks::CommitStamp>) {
        self.exec.set_mvcc_stamp(stamp);
    }

    /// `insert r s t` (§2) under this transaction's lock scope: inserts
    /// `s ∪ t` provided no existing tuple extends `s`; returns whether the
    /// insert happened.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::insert`], wrapped in
    /// [`TxnError::Core`]; or [`TxnError::Restart`] (propagate it).
    pub fn insert(&mut self, s: &Tuple, t: &Tuple) -> Result<bool, TxnError> {
        let record_undo = !self.single_shot;
        self.insert_impl(s, t, record_undo)
    }

    /// [`Transaction::insert`] with the undo decision made by the caller:
    /// batch operations record undo entries even in single-shot mode (a
    /// mid-batch failure must roll the whole batch back), while the
    /// single-shot one-op sugar never needs them.
    fn insert_impl(&mut self, s: &Tuple, t: &Tuple, record_undo: bool) -> Result<bool, TxnError> {
        self.assert_two_phase();
        let x = self.validate_insert(s, t)?;
        let plan = self.repr.insert_plan(s.dom())?;
        // A full tuple is always a key, so the inverse plan always exists.
        let inverse = if record_undo {
            Some(self.repr.remove_plan(x.dom())?)
        } else {
            None
        };
        let undo = InsertUndo::from_inverse(inverse.as_deref());
        let res = self.exec.run_insert(&plan, &x, s, self.repr.root(), undo);
        let inserted = self.track(res)?;
        if inserted {
            self.len_delta += 1;
            if let Some(plan) = inverse {
                self.undo.push(UndoOp::Unlink { plan, tuple: x });
            }
            if self.log_redo {
                self.redo.push(RedoOp::Insert(s.clone(), t.clone()));
            }
        }
        Ok(inserted)
    }

    /// §2 argument validation shared by [`Transaction::insert`] and
    /// [`Transaction::insert_all`]: disjoint domains, full valuation.
    /// Returns `x = s ∪ t`.
    fn validate_insert(&self, s: &Tuple, t: &Tuple) -> Result<Tuple, TxnError> {
        if !s.dom().is_disjoint(t.dom()) {
            return Err(SpecError::OverlappingInsertDomains {
                shared: self
                    .rel
                    .schema()
                    .catalog()
                    .render_set(s.dom().intersection(t.dom())),
            }
            .into());
        }
        let x = s.union(t).expect("disjoint domains cannot conflict");
        self.rel
            .schema()
            .check_valuation(&x)
            .map_err(CoreError::from)?;
        Ok(x)
    }

    /// Batched `insert r s t` over many rows under this transaction's lock
    /// scope: semantically the sequential fold of [`Transaction::insert`]
    /// over `rows` — one put-if-absent result per row, duplicate patterns
    /// within the batch losing to the first occurrence — executed as **one
    /// amortized pass**: one plan fetch for the whole batch, every row's
    /// root lock targets deduplicated and acquired in one globally sorted
    /// sweep, and root-edge publications fused into one bulk container
    /// write per edge.
    ///
    /// The batch is atomic within the transaction: its rows share one undo
    /// segment, so a mid-batch failure (or a later abort of the enclosing
    /// transaction) rolls back *every* applied row, never a prefix. All
    /// rows are validated before the first effect; rows whose shapes
    /// (`dom s`, `dom t`) differ from the first row's fall back to the
    /// per-row path, keeping the fold semantics exact.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::insert`] — validation errors abort the whole
    /// batch with no effect; or [`TxnError::Restart`] (propagate it).
    pub fn insert_all(&mut self, rows: &[(Tuple, Tuple)]) -> Result<Vec<bool>, TxnError> {
        self.assert_two_phase();
        let Some(((s0, t0), _)) = rows.split_first() else {
            return Ok(Vec::new());
        };
        // Shape scan strictly before the first effect. A uniform batch
        // (every row binding the first row's column sets — the common
        // case) validates once: the §2 conditions depend only on the
        // domains, so one disjointness + valuation check covers all rows.
        let (dom_s, dom_t) = (s0.dom(), t0.dom());
        if rows
            .iter()
            .any(|(s, t)| s.dom() != dom_s || t.dom() != dom_t)
        {
            // Mixed shapes need per-row plans; run the fold directly (each
            // row validates itself, and undo is recorded per row, so
            // batch atomicity still holds).
            let mut out = Vec::with_capacity(rows.len());
            for (s, t) in rows {
                out.push(self.insert_impl(s, t, true)?);
            }
            return Ok(out);
        }
        self.validate_insert(s0, t0)?;
        let xs: Vec<Tuple> = rows.iter().map(|(s, t)| s.union_disjoint(t)).collect();
        let plan = self.repr.insert_batch_plan(dom_s)?;
        let mut results = Vec::with_capacity(rows.len());
        let mut applied = Vec::new();
        let res = self.exec.run_insert_all(
            &plan,
            &xs,
            rows,
            self.repr.root(),
            self.single_shot,
            &mut results,
            &mut applied,
        );
        // The applied prefix is recorded in the undo segment *before* a
        // mid-batch restart propagates: rollback must compensate it.
        let mut xs = xs;
        for i in applied {
            self.len_delta += 1;
            self.undo.push(UndoOp::Unlink {
                plan: Arc::clone(&plan.inverse),
                tuple: std::mem::replace(&mut xs[i], Tuple::empty()),
            });
            if self.log_redo {
                let (s, t) = &rows[i];
                self.redo.push(RedoOp::Insert(s.clone(), t.clone()));
            }
        }
        self.track(res)?;
        Ok(results)
    }

    /// Batched `remove r s` over many keys under this transaction's lock
    /// scope: semantically the sequential fold of [`Transaction::remove`]
    /// over `keys` (duplicate keys remove once), executed as one amortized
    /// pass with a single plan fetch and one globally sorted bulk lock
    /// sweep. Returns one outcome per key — whether *that* key's tuple
    /// existed and was removed (a later duplicate of a removed key reads
    /// `false`) — so batch callers can tell which keys were present;
    /// `results.iter().filter(|b| **b).count()` is the removed total.
    ///
    /// The batch shares one undo segment: a mid-batch failure or a later
    /// abort re-inserts every removed tuple. Keys whose shape differs from
    /// the first key's fall back to the per-key path.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::remove`]; or [`TxnError::Restart`]
    /// (propagate it).
    pub fn remove_all(&mut self, keys: &[Tuple]) -> Result<Vec<bool>, TxnError> {
        self.assert_two_phase();
        let Some(k0) = keys.first() else {
            return Ok(Vec::new());
        };
        if keys.iter().any(|k| k.dom() != k0.dom()) {
            let mut out = Vec::with_capacity(keys.len());
            for k in keys {
                out.push(self.remove_impl(k, true)?.is_some());
            }
            return Ok(out);
        }
        let plan = self.repr.remove_batch_plan(k0.dom())?;
        let mut removed = Vec::new();
        let res = self
            .exec
            .run_remove_all(&plan, keys, self.repr.root(), &mut removed);
        let mut results = vec![false; keys.len()];
        for (i, t) in removed {
            results[i] = true;
            self.len_delta -= 1;
            self.undo.push(UndoOp::Reinsert {
                plan: Arc::clone(&plan.reinsert),
                tuple: t,
            });
            if self.log_redo {
                self.redo.push(RedoOp::Remove(keys[i].clone()));
            }
        }
        self.track(res)?;
        Ok(results)
    }

    /// `remove r s` (§2) under this transaction's lock scope; returns how
    /// many tuples were removed (0 or 1, since `s` must be a key).
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::remove`], wrapped in
    /// [`TxnError::Core`]; or [`TxnError::Restart`] (propagate it).
    pub fn remove(&mut self, s: &Tuple) -> Result<usize, TxnError> {
        Ok(usize::from(self.remove_returning(s)?.is_some()))
    }

    /// Like [`Transaction::remove`], but returns the removed tuple.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::remove`].
    pub fn remove_returning(&mut self, s: &Tuple) -> Result<Option<Tuple>, TxnError> {
        let record_undo = !self.single_shot;
        self.remove_impl(s, record_undo)
    }

    /// [`Transaction::remove_returning`] with the undo decision made by
    /// the caller (see [`Transaction::insert_impl`]).
    fn remove_impl(&mut self, s: &Tuple, record_undo: bool) -> Result<Option<Tuple>, TxnError> {
        self.assert_two_phase();
        let plan = self.repr.remove_plan(s.dom())?;
        // The compensating re-insert's plan is fetched *before* the unlink
        // is applied: no fallible step may sit between a mutation and the
        // push of its undo entry. Removed tuples are full valuations, so
        // the plan's bound set is the whole column set.
        let reinsert = if record_undo {
            Some(self.repr.insert_plan(self.rel.schema().columns())?)
        } else {
            None
        };
        let res = self.exec.run_remove(&plan, s, self.repr.root());
        let removed = self.track(res)?;
        if let Some(u) = &removed {
            self.len_delta -= 1;
            if let Some(plan) = reinsert {
                self.undo.push(UndoOp::Reinsert {
                    plan,
                    tuple: u.clone(),
                });
            }
            if self.log_redo {
                self.redo.push(RedoOp::Remove(s.clone()));
            }
        }
        Ok(removed)
    }

    /// `update r s t` (§2) under this transaction's lock scope: replaces
    /// the unique tuple `u ⊇ s` with `u ⊕ t`, returning the replaced
    /// tuple, or `None` if no tuple extends `s`.
    ///
    /// `s` must be a key (as for `remove`) and `dom t` must be disjoint
    /// from `dom s` — an update never changes which key the tuple answers
    /// to.
    ///
    /// Two strategies, chosen by the planner (see
    /// [`crate::planner::UpdatePlan`]): when the updated columns appear in
    /// no non-sink node key, only the touched edges' entries are rewritten
    /// **in place** under write locks on exactly those edges; otherwise a
    /// locked unlink + re-insert runs under the one two-phase scope. Either
    /// way the update is a single serializable step.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::update`], wrapped in
    /// [`TxnError::Core`]; or [`TxnError::Restart`] (propagate it).
    pub fn update(&mut self, s: &Tuple, t: &Tuple) -> Result<Option<Tuple>, TxnError> {
        self.assert_two_phase();
        let plan = self.repr.update_plan(s.dom(), t.dom())?;
        match &*plan {
            UpdatePlan::InPlace(ip) => {
                // Every lock is taken before the first write, so a restart
                // here leaves nothing to compensate; only later operations
                // of a multi-op transaction can force the write-back.
                let res = self.exec.run_update_in_place(ip, s, t, self.repr.root());
                let Some(old) = self.track(res)? else {
                    return Ok(None);
                };
                if !self.single_shot {
                    self.undo.push(UndoOp::WriteBack {
                        plan: Arc::clone(&plan),
                        old: old.clone(),
                        new: old.override_with(t),
                    });
                }
                if self.log_redo {
                    self.redo.push(RedoOp::Update(s.clone(), t.clone()));
                }
                Ok(Some(old))
            }
            UpdatePlan::General(gp) => {
                let res = self.exec.run_remove(&gp.remove, s, self.repr.root());
                let Some(old) = self.track(res)? else {
                    return Ok(None);
                };
                // From here the unlink is applied, and the re-insert below
                // can still restart (its root batch names the *new*
                // values' tokens) — so the compensation entry is recorded
                // even for single-shot updates. Its locks are a subset of
                // the unlink's held set, and it shares the plan's `Arc`d
                // full-column insert plan (one plan fetch, not two).
                self.undo.push(UndoOp::Reinsert {
                    plan: Arc::clone(&gp.insert),
                    tuple: old.clone(),
                });
                let new = old.override_with(t);
                let inverse_new = if self.single_shot {
                    None
                } else {
                    Some(self.repr.remove_plan(new.dom())?)
                };
                let undo = InsertUndo::from_inverse(inverse_new.as_deref());
                let res = self
                    .exec
                    .run_insert(&gp.insert, &new, &new, self.repr.root(), undo);
                let reinserted = self.track(res)?;
                debug_assert!(
                    reinserted,
                    "no tuple can extend the unlinked key under our exclusive locks"
                );
                if let Some(plan) = inverse_new {
                    self.undo.push(UndoOp::Unlink { plan, tuple: new });
                }
                if self.log_redo {
                    self.redo.push(RedoOp::Update(s.clone(), t.clone()));
                }
                Ok(Some(old))
            }
        }
    }

    /// `query r s C` (§2) under this transaction's lock scope: the
    /// projection onto `cols` of all tuples extending `s`, deduplicated
    /// and sorted. Observes this transaction's own earlier writes.
    ///
    /// Inside a transaction a query's shared locks *persist to commit*
    /// (two-phase discipline) — the observed values stay stable for the
    /// rest of the transaction. A later write to the same edges upgrades
    /// shared→exclusive, which restarts the closure once and re-runs it
    /// with exclusive locks acquired up front (the engine's mode hints).
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::query`], wrapped in
    /// [`TxnError::Core`]; or [`TxnError::Restart`] (propagate it).
    pub fn query(&mut self, s: &Tuple, cols: ColumnSet) -> Result<Vec<Tuple>, TxnError> {
        self.assert_two_phase();
        let plan = self.repr.query_plan(s.dom(), cols)?;
        let res = self.exec.run_query(&plan, s, self.repr.root());
        self.track(res)
    }

    /// Range query under this transaction's lock scope: the projection
    /// onto `cols` of all tuples extending `s` whose `range` column falls
    /// inside the interval, ordered by (range-column value, projection),
    /// deduplicated, truncated to `range.limit()` if set. Observes this
    /// transaction's own earlier writes; the same two-phase lock
    /// persistence as [`Transaction::query`] applies.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::query`].
    pub fn query_range(
        &mut self,
        s: &Tuple,
        range: &relc_spec::RangePattern,
        cols: ColumnSet,
    ) -> Result<Vec<Tuple>, TxnError> {
        self.assert_two_phase();
        let plan = self.repr.range_plan(s.dom(), range, cols)?;
        let res = self.exec.run_query_range(&plan, s, range, self.repr.root());
        self.track(res)
    }

    /// Whether any tuple extends `s` — a short-circuiting existence check
    /// that stops at the first witness instead of materializing,
    /// deduplicating, and sorting every match the way
    /// `query(s, ∅)` would.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::query`].
    pub fn contains(&mut self, s: &Tuple) -> Result<bool, TxnError> {
        self.assert_two_phase();
        let plan = self.repr.query_plan(s.dom(), ColumnSet::EMPTY)?;
        let res = self.exec.run_exists(&plan, s, self.repr.root());
        self.track(res)
    }

    /// All tuples, sorted, as observed under this transaction's locks.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::query`].
    pub fn snapshot(&mut self) -> Result<Vec<Tuple>, TxnError> {
        self.query(&Tuple::empty(), self.rel.schema().columns())
    }

    /// Aborts the transaction: return this from the closure (e.g.
    /// `return Err(tx.abort("insufficient funds"))`) to roll back every
    /// effect and surface [`CoreError::TransactionAborted`] to the
    /// [`ConcurrentRelation::transaction`] caller.
    ///
    /// [`ConcurrentRelation::transaction`]: crate::ConcurrentRelation::transaction
    pub fn abort(&self, reason: impl Into<String>) -> TxnError {
        TxnError::Core(CoreError::TransactionAborted(reason.into()))
    }

    /// Rolls back every applied effect by replaying the undo log in
    /// reverse, while all of the transaction's locks are still held.
    ///
    /// # Panics
    ///
    /// Panics if a compensating operation demands a restart — that would
    /// mean an operation failed to pre-acquire its inverse's lock set
    /// (a bug in the transaction layer, never a recoverable condition:
    /// releasing locks here would publish a half-applied transaction).
    pub(crate) fn rollback_effects(&mut self) {
        while let Some(op) = self.undo.pop() {
            match op {
                UndoOp::Unlink { plan, tuple } => {
                    let removed = self
                        .exec
                        .run_remove(&plan, &tuple, self.repr.root())
                        .unwrap_or_else(|_| {
                            panic!(
                                "transaction compensation (unlink) restarted; \
                                 inverse locks were not pre-acquired"
                            )
                        });
                    debug_assert!(removed.is_some(), "inserted tuple vanished under our locks");
                }
                UndoOp::Reinsert { plan, tuple } => {
                    // `Compensation` (not `None`): the re-insert must lock
                    // freshly materialized speculative targets before
                    // publishing them, or a speculative reader could
                    // dirty-read the rolled-back value and make a later
                    // compensation step restart.
                    let inserted = self
                        .exec
                        .run_insert(
                            &plan,
                            &tuple,
                            &tuple,
                            self.repr.root(),
                            InsertUndo::Compensation,
                        )
                        .unwrap_or_else(|_| {
                            panic!(
                                "transaction compensation (re-insert) restarted; \
                                 inverse locks were not pre-acquired"
                            )
                        });
                    debug_assert!(inserted, "removed tuple reappeared under our locks");
                }
                UndoOp::WriteBack { plan, old, new } => {
                    let UpdatePlan::InPlace(ip) = &*plan else {
                        unreachable!("WriteBack is recorded only for in-place update plans")
                    };
                    // Acquires no locks (the forward pass's are still
                    // held), so this compensation step cannot restart by
                    // construction.
                    self.exec
                        .run_update_write_back(ip, &old, &new, self.repr.root());
                }
            }
        }
        self.len_delta = 0;
        self.redo.clear();
    }
}

impl fmt::Debug for Transaction<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("relation", &self.rel)
            .field("pending_undo_ops", &self.undo.len())
            .field("len_delta", &self.len_delta)
            .field("single_shot", &self.single_shot)
            .finish()
    }
}
