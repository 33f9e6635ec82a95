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
//! contention, a shared→exclusive upgrade while another reader shares the
//! lock, a failed speculation), the *whole closure* re-runs from scratch
//! against a clean lock state — that is what makes read-modify-write
//! sequences atomic: the values read before the restart are discarded
//! along with the locks.
//!
//! # Rollback
//!
//! Operations apply their container writes eagerly (later operations in
//! the same transaction must see them), so a restart in operation *k*
//! must first take back the writes of operations *1..k*. There is one
//! record of those writes — the MVCC write journal every mirrored
//! container write already appends to — and it is the undo log: an attempt
//! that does not commit is rolled back from it, newest entry first, under
//! the locks the attempt still holds ([`crate::mvcc`], *Rollback*). The
//! operations keep no inverse of themselves and acquire nothing on
//! rollback's behalf; every journaled entry was written under a lock that
//! is still held, so rollback cannot restart, by construction. The same
//! rollback runs when the closure panics: the transaction rolls back as it
//! drops, before its lock engine can release anything.
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

use std::fmt;

use relc_locks::{MustRestart, TwoPhaseEngine};
use relc_spec::{ColumnSet, SpecError, Tuple};

use crate::error::CoreError;
use crate::exec::Executor;
use crate::placement::LockToken;
use crate::planner::UpdatePlan;
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
    /// Applied operations in order, for the WAL's redo record. Empty
    /// (never pushed, no allocation) unless the relation has a WAL.
    redo: Vec<RedoOp>,
    /// Whether to capture [`RedoOp`]s — true exactly when the relation
    /// has a WAL attached.
    log_redo: bool,
    len_delta: isize,
    /// The closure is one operation of the relation's single-shot sugar:
    /// its last write is the attempt's last write.
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
    /// whose unlink succeeded but whose re-insert restarted, or a batch
    /// stopped mid-way); the commit path checks
    /// [`Transaction::needs_restart`] and rolls back and retries instead,
    /// so the discipline is enforced, not just documented.
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

    /// Takes back every write of the attempt from its write journal, while
    /// all of its locks are still held (see the [module docs](self)).
    /// Reached from [`crate::commit::abort`] and, when the closure
    /// panicked, from `Drop`; a no-op once the attempt has committed or
    /// rolled back.
    pub(crate) fn roll_back(&mut self) {
        self.exec.roll_back();
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
        self.insert_row(s, t, !self.single_shot)
    }

    /// [`Transaction::insert`] with the isolation rule of
    /// [`Executor::run_insert`] decided by the caller: a row of a batch is
    /// never the attempt's last write, single-shot or not.
    fn insert_row(
        &mut self,
        s: &Tuple,
        t: &Tuple,
        hold_published_targets: bool,
    ) -> Result<bool, TxnError> {
        self.assert_two_phase();
        let x = self.validate_insert(s, t)?;
        let plan = self.repr.insert_plan(s.dom())?;
        let root = self.repr.root();
        let res = self
            .exec
            .run_insert(&plan, &x, s, root, hold_published_targets);
        let inserted = self.track(res)?;
        if inserted {
            self.applied_insert(s, t);
        }
        Ok(inserted)
    }

    /// Bookkeeping for one inserted row: the tuple count and the redo
    /// stream.
    fn applied_insert(&mut self, s: &Tuple, t: &Tuple) {
        self.len_delta += 1;
        if self.log_redo {
            self.redo.push(RedoOp::Insert(s.clone(), t.clone()));
        }
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
    /// The batch is atomic within the transaction: a mid-batch restart
    /// fails the attempt, and the attempt's rollback takes back *every*
    /// applied row, never a prefix. All rows are validated before the first
    /// effect; rows whose shapes (`dom s`, `dom t`) differ from the first
    /// row's fall back to the per-row path, keeping the fold semantics
    /// exact.
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
            // row validates itself).
            return rows
                .iter()
                .map(|(s, t)| self.insert_row(s, t, true))
                .collect();
        }
        self.validate_insert(s0, t0)?;
        let xs: Vec<Tuple> = rows.iter().map(|(s, t)| s.union_disjoint(t)).collect();
        let plan = self.repr.insert_plan(dom_s)?;
        let res = self.exec.run_insert_all(&plan, &xs, rows, self.repr.root());
        let results = self.track(res)?;
        for ((s, t), _) in rows.iter().zip(&results).filter(|(_, &inserted)| inserted) {
            self.applied_insert(s, t);
        }
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
    /// Atomic like [`Transaction::insert_all`]: a mid-batch restart fails
    /// the attempt, whose rollback re-links every removed tuple. Keys whose
    /// shape differs from the first key's fall back to the per-key path.
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
            return keys
                .iter()
                .map(|k| Ok(self.remove_returning(k)?.is_some()))
                .collect();
        }
        let plan = self.repr.remove_plan(k0.dom())?;
        let res = self.exec.run_remove_all(&plan, keys, self.repr.root());
        let results = self.track(res)?;
        for (key, _) in keys.iter().zip(&results).filter(|(_, &removed)| removed) {
            self.applied_remove(key);
        }
        Ok(results)
    }

    /// Bookkeeping for one removed row: the tuple count and the redo
    /// stream.
    fn applied_remove(&mut self, s: &Tuple) {
        self.len_delta -= 1;
        if self.log_redo {
            self.redo.push(RedoOp::Remove(s.clone()));
        }
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
        self.assert_two_phase();
        let plan = self.repr.remove_plan(s.dom())?;
        let res = self.exec.run_remove(&plan, s, self.repr.root());
        let removed = self.track(res)?;
        if removed.is_some() {
            self.applied_remove(s);
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
        let root = self.repr.root();
        let old = match &*plan {
            // Every lock is taken before the first write, so a restart
            // here leaves nothing behind.
            UpdatePlan::InPlace(ip) => {
                let res = self.exec.run_update_in_place(ip, s, t, root);
                self.track(res)?
            }
            UpdatePlan::General(gp) => {
                let res = self.exec.run_remove(&gp.remove, s, root);
                let Some(old) = self.track(res)? else {
                    return Ok(None);
                };
                // From here the unlink is applied, and the re-insert can
                // still restart (its root sweep names the *new* values'
                // tokens): `track` then fails the attempt, and its
                // rollback re-links what the unlink took out.
                let new = old.override_with(t);
                let res = self
                    .exec
                    .run_insert(&gp.insert, &new, &new, root, !self.single_shot);
                let reinserted = self.track(res)?;
                debug_assert!(
                    reinserted,
                    "no tuple can extend the unlinked key under our exclusive locks"
                );
                Some(old)
            }
        };
        if old.is_some() && self.log_redo {
            self.redo.push(RedoOp::Update(s.clone(), t.clone()));
        }
        Ok(old)
    }

    /// `query r s C` (§2) under this transaction's lock scope: the
    /// projection onto `cols` of all tuples extending `s`, deduplicated
    /// and sorted. Observes this transaction's own earlier writes.
    ///
    /// Inside a transaction a query's shared locks *persist to commit*
    /// (two-phase discipline) — the observed values stay stable for the
    /// rest of the transaction. A later write to the same edges upgrades
    /// shared→exclusive: in place when this transaction is the lock's only
    /// reader; otherwise the closure restarts once and re-runs with
    /// exclusive locks acquired up front (the engine's mode hints).
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
}

/// An attempt that ends without [`crate::commit::conclude`] — its closure
/// panicked — must not leave its writes behind: the lock engine this
/// transaction borrows releases every lock when *it* drops, which is
/// strictly after this. Rolling back here keeps locked readers from seeing
/// half a transaction and the version chains from keeping tentative heads
/// forever. After a commit or an abort there is nothing left to take back
/// and this does nothing.
impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        self.roll_back();
    }
}

impl fmt::Debug for Transaction<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("relation", &self.rel)
            .field("mvcc", self.exec.mvcc())
            .field("len_delta", &self.len_delta)
            .field("single_shot", &self.single_shot)
            .finish()
    }
}
