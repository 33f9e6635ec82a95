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
//! A [`Transaction`] borrows its relation and routes every operation to
//! the instance that owns it, opening one *part* per touched instance on
//! first touch. A part holds **one** lock engine across every operation
//! routed to its instance. Locks accumulate until the closure passed to
//! [`Relation::transaction`] returns; only then do the engines release —
//! through the one commit protocol in `commit.rs`. When any operation
//! inside the closure demands a restart (out-of-order lock contention, a
//! shared→exclusive upgrade while another reader shares the lock, a failed
//! speculation), the *whole closure* re-runs from scratch against a clean
//! lock state — that is what makes read-modify-write sequences atomic: the
//! values read before the restart are discarded along with the locks.
//!
//! # Rollback
//!
//! Operations apply their container writes eagerly (later operations in
//! the same transaction must see them), so a restart in operation *k*
//! must first take back the writes of operations *1..k*. There is one
//! record of those writes — the MVCC write journal every edge write
//! already appends to — and it is the undo log: an attempt
//! that does not commit is rolled back from it, newest entry first, under
//! the locks the attempt still holds (`mvcc.rs`, *Rollback*). The
//! operations keep no inverse of themselves and acquire nothing on
//! rollback's behalf; every journaled entry was written under a lock that
//! is still held, so rollback cannot restart, by construction. The same
//! rollback runs when the closure panics: each part rolls back as it
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
//! [`Relation::transaction`]: crate::relation::Relation::transaction

use std::fmt;
use std::sync::Arc;

use relc_locks::{MustRestart, TwoPhaseEngine};
use relc_spec::{ColumnSet, RangePattern, RelationSchema, SpecError, Tuple};

use crate::commit::Participant;
use crate::error::CoreError;
use crate::exec::Executor;
use crate::placement::LockToken;
use crate::planner::{validate_update, UpdatePlan};
use crate::relation::{ConcurrentRelation, PerInstance, Repr};
use crate::shard::Router;

/// Why a transactional operation did not return a value.
///
/// Closures passed to [`Relation::transaction`] should propagate this
/// with `?`: [`TxnError::Restart`] is consumed by the transaction loop
/// (the closure re-runs), while [`TxnError::Core`] aborts the transaction
/// — its effects are rolled back — and surfaces to the caller.
///
/// [`Relation::transaction`]: crate::relation::Relation::transaction
#[derive(Debug)]
pub enum TxnError {
    /// The lock engine demands a whole-transaction restart. Internal
    /// control flow: never escapes [`Relation::transaction`].
    ///
    /// [`Relation::transaction`]: crate::relation::Relation::transaction
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
/// write-ahead log's redo stream. Captured only when the instance has a
/// WAL attached; replay re-runs the same calls through a fresh
/// transaction, so the redo record needs nothing beyond what the caller
/// originally passed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RedoOp {
    /// `insert r s t` that actually inserted.
    Insert(Tuple, Tuple),
    /// `remove r s` that actually removed.
    Remove(Tuple),
    /// `update r s t` that found (and replaced) a tuple.
    Update(Tuple, Tuple),
}

/// An instance's lock engine across the attempts of one operation: empty
/// until the instance is first touched, then kept, with the mode hints a
/// restart leaves for the retry.
pub(crate) type EngineSlot = Option<TwoPhaseEngine<LockToken>>;

/// An open multi-operation transaction on a [`Relation`].
///
/// Created by [`Relation::transaction`]; every operation routes to the
/// instance owning it, runs under the transaction's single two-phase lock
/// scope, and sees the effects of the transaction's earlier operations.
/// See the [module docs](self) for semantics.
///
/// [`Relation`]: crate::relation::Relation
/// [`Relation::transaction`]: crate::relation::Relation::transaction
pub struct Transaction<'t> {
    router: Router<'t>,
    /// The representations pinned for this attempt, one per instance
    /// (captured by the transaction loop; the commit path refuses to
    /// commit a part whose instance was swapped by a live migration since).
    reprs: &'t [Arc<Repr>],
    /// Each instance's engine slot, lent to its part when it opens.
    engines: PerInstance<Option<&'t mut EngineSlot>>,
    /// The touched instances' parts, as commit participants.
    parts: PerInstance<Option<Participant<'t>>>,
    /// Highest instance index touched so far: acquisitions there may
    /// block, anything lower is demoted to try-only (the global
    /// `(instance, token)` order — see `shard.rs`).
    max_open: Option<usize>,
    /// The closure is one operation of the relation's single-shot sugar:
    /// its last write is the attempt's last write.
    single_shot: bool,
}

impl<'t> Transaction<'t> {
    pub(crate) fn new(
        router: Router<'t>,
        reprs: &'t [Arc<Repr>],
        engines: &'t mut [EngineSlot],
        single_shot: bool,
    ) -> Self {
        Transaction {
            router,
            reprs,
            engines: engines.iter_mut().map(Some).collect(),
            parts: router.instances.iter().map(|_| None).collect(),
            max_open: None,
            single_shot,
        }
    }

    /// The attempt as the commit path sees it: the relation's instances
    /// and, per instance, the part the attempt opened there, if any.
    pub(crate) fn attempt(&mut self) -> (&'t [ConcurrentRelation], &mut [Option<Participant<'t>>]) {
        (self.router.instances, &mut self.parts)
    }

    /// The relation's schema — the metadata a closure may need (columns
    /// by name); operations on the relation go through the transaction.
    pub fn schema(&self) -> &'t Arc<RelationSchema> {
        self.router.instances[0].schema()
    }

    /// The open part for instance `i`, created on first touch. Maintains
    /// the cross-instance acquisition order: returning to an instance
    /// below the current maximum demotes that part's engine to try-only
    /// for the rest of the attempt.
    fn part(&mut self, i: usize) -> &mut Part<'t> {
        if self.parts[i].is_none() {
            let shard = &self.router.instances[i];
            let engine = self.engines[i]
                .take()
                .expect("an instance opens once per attempt")
                .get_or_insert_with(|| TwoPhaseEngine::new(Arc::clone(shard.stats_arc())));
            let mut part = Part::new(shard, &self.reprs[i], engine, self.single_shot);
            // Every instance the attempt touches publishes under one
            // commit stamp, so snapshot readers see it at one timestamp.
            if let Some(first) = self.parts.iter_mut().flatten().next() {
                part.exec.set_mvcc_stamp(first.part_mut().exec.mvcc_stamp());
            }
            self.parts[i] = Some(Participant::new(part));
        }
        let part = self.parts[i].as_mut().expect("just opened").part_mut();
        if self.max_open.is_some_and(|m| i < m) {
            part.exec.set_try_only();
        } else {
            self.max_open = Some(i);
        }
        part
    }

    /// `insert r s t` (§2) under this transaction's lock scope, routed to
    /// the owner of `s ∪ t`: inserts `s ∪ t` provided no existing tuple
    /// extends `s`; returns whether the insert happened.
    ///
    /// # Errors
    ///
    /// As for [`Relation::insert`], wrapped in [`TxnError::Core`]; or
    /// [`TxnError::Restart`] (propagate it).
    ///
    /// [`Relation::insert`]: crate::relation::Relation::insert
    pub fn insert(&mut self, s: &Tuple, t: &Tuple) -> Result<bool, TxnError> {
        let i = self.router.route_row(s, t);
        self.part(i).insert(s, t)
    }

    /// Batched `insert r s t` over many rows under this transaction's lock
    /// scope: semantically the sequential fold of [`Transaction::insert`]
    /// over `rows` — one put-if-absent result per row, duplicate patterns
    /// within the batch losing to the first occurrence — executed as **one
    /// amortized pass per touched instance** (rows keep their relative
    /// order; equal keys route identically): one plan fetch, every row's
    /// root lock targets deduplicated and acquired in one globally sorted
    /// sweep, then the single-row insert per row under that sweep.
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
        let router = self.router;
        self.per_instance(rows, |(s, t)| router.route_row(s, t), Part::insert_all)
    }

    /// Batched `remove r s` over many keys under this transaction's lock
    /// scope: semantically the sequential fold of [`Transaction::remove`]
    /// over `keys` (duplicate keys remove once), executed as one amortized
    /// pass per touched instance with a single plan fetch and one globally
    /// sorted bulk lock sweep. Returns one outcome per key — whether *that*
    /// key's tuple existed and was removed (a later duplicate of a removed
    /// key reads `false`) — so batch callers can tell which keys were
    /// present; `results.iter().filter(|b| **b).count()` is the removed
    /// total.
    ///
    /// Atomic like [`Transaction::insert_all`]. Keys whose shape differs
    /// from the first key's fall back to the per-key path, and so does a
    /// batch holding any alternate (fan-out) key: grouped, all routed keys
    /// would run before any fan-out key, and a routed and an alternate
    /// pattern can match the *same* tuple, where the fold's outcome depends
    /// on evaluation order.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::remove`]; or [`TxnError::Restart`]
    /// (propagate it).
    pub fn remove_all(&mut self, keys: &[Tuple]) -> Result<Vec<bool>, TxnError> {
        let router = self.router;
        if keys.iter().any(|k| router.route(k).is_none()) {
            return keys
                .iter()
                .map(|k| Ok(self.remove_returning(k)?.is_some()))
                .collect();
        }
        self.per_instance(keys, |k| router.shard_of(k), Part::remove_all)
    }

    /// Runs a batch as one sub-batch per touched instance, in ascending
    /// instance order, and scatters the per-row results back. A batch that
    /// routes to one instance — always, with one instance — runs whole,
    /// without copying a row.
    fn per_instance<T: Clone>(
        &mut self,
        rows: &[T],
        route: impl Fn(&T) -> usize,
        run: impl Fn(&mut Part<'t>, &[T]) -> Result<Vec<bool>, TxnError>,
    ) -> Result<Vec<bool>, TxnError> {
        let Some(first) = rows.first().map(&route) else {
            return Ok(Vec::new());
        };
        if rows.iter().all(|r| route(r) == first) {
            return run(self.part(first), rows);
        }
        let mut groups = vec![Vec::new(); self.router.instances.len()];
        for (idx, row) in rows.iter().enumerate() {
            groups[route(row)].push(idx);
        }
        let mut results = vec![false; rows.len()];
        for (i, group) in groups.iter().enumerate().filter(|(_, g)| !g.is_empty()) {
            let sub: Vec<T> = group.iter().map(|&idx| rows[idx].clone()).collect();
            for (&idx, r) in group.iter().zip(run(self.part(i), &sub)?) {
                results[idx] = r;
            }
        }
        Ok(results)
    }

    /// `remove r s` (§2) under this transaction's lock scope; returns how
    /// many tuples were removed (0 or 1, since `s` must be a key).
    ///
    /// # Errors
    ///
    /// As for [`Relation::remove`], wrapped in [`TxnError::Core`]; or
    /// [`TxnError::Restart`] (propagate it).
    ///
    /// [`Relation::remove`]: crate::relation::Relation::remove
    pub fn remove(&mut self, s: &Tuple) -> Result<usize, TxnError> {
        Ok(usize::from(self.remove_returning(s)?.is_some()))
    }

    /// Like [`Transaction::remove`], but returns the removed tuple.
    /// Alternate keys (a key set without the routing columns) search the
    /// instances in ascending order under this transaction's locks.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::remove`].
    pub fn remove_returning(&mut self, s: &Tuple) -> Result<Option<Tuple>, TxnError> {
        match self.router.route(s) {
            Some(i) => self.part(i).remove_returning(s),
            // Not a key: instance 0 rejects it with the canonical error.
            None if !self.schema().is_key(s.dom()) => self.part(0).remove_returning(s),
            None => {
                for i in 0..self.router.instances.len() {
                    if let Some(t) = self.part(i).remove_returning(s)? {
                        return Ok(Some(t));
                    }
                }
                Ok(None)
            }
        }
    }

    /// `update r s t` (§2) under this transaction's lock scope: replaces
    /// the unique tuple `u ⊇ s` with `u ⊕ t`, returning the replaced
    /// tuple, or `None` if no tuple extends `s`.
    ///
    /// `s` must be a key (as for `remove`) and `dom t` must be disjoint
    /// from `dom s` — an update never changes which key the tuple answers
    /// to, so a routed update never moves a tuple between instances.
    ///
    /// Two strategies, chosen by the planner (see
    /// [`crate::planner::UpdatePlan`]): when the updated columns appear in
    /// no non-sink node key, only the touched edges' entries are rewritten
    /// **in place** under write locks on exactly those edges; otherwise a
    /// locked unlink + re-insert runs under the one two-phase scope. Either
    /// way the update is a single serializable step. An alternate-key
    /// update on several instances locates the tuple instance by instance
    /// and — when `t` rewrites a routing column — relocates it to its new
    /// owner (an unlink on one instance and an insert on another, atomic
    /// under this transaction).
    ///
    /// # Errors
    ///
    /// As for [`Relation::update`], wrapped in [`TxnError::Core`]; or
    /// [`TxnError::Restart`] (propagate it).
    ///
    /// [`Relation::update`]: crate::relation::Relation::update
    pub fn update(&mut self, s: &Tuple, t: &Tuple) -> Result<Option<Tuple>, TxnError> {
        if let Some(i) = self.router.route(s) {
            return self.part(i).update(s, t);
        }
        // Validate up front, as `plan_update` would: past this point the
        // operation decomposes into remove + insert.
        validate_update(self.schema(), s.dom(), t.dom())?;
        let Some(old) = self.remove_returning(s)? else {
            return Ok(None);
        };
        let new = old.override_with(t);
        let inserted = self
            .part(self.router.shard_of(&new))
            .insert(&new, &Tuple::empty())?;
        debug_assert!(
            inserted,
            "no tuple can extend the unlinked key under our exclusive locks"
        );
        Ok(Some(old))
    }

    /// `query r s C` (§2) under this transaction's lock scope: the
    /// projection onto `cols` of all tuples extending `s`, deduplicated
    /// and sorted. Observes this transaction's own earlier writes.
    ///
    /// Inside a transaction a query's shared locks *persist to commit*
    /// (two-phase discipline) — the observed values stay stable for the
    /// rest of the transaction, on every instance a fan-out pattern
    /// visits. A later write to the same edges upgrades shared→exclusive:
    /// in place when this transaction is the lock's only reader; otherwise
    /// the closure restarts once and re-runs with exclusive locks acquired
    /// up front (the engine's mode hints).
    ///
    /// # Errors
    ///
    /// As for [`Relation::query`], wrapped in [`TxnError::Core`]; or
    /// [`TxnError::Restart`] (propagate it).
    ///
    /// [`Relation::query`]: crate::relation::Relation::query
    pub fn query(&mut self, s: &Tuple, cols: ColumnSet) -> Result<Vec<Tuple>, TxnError> {
        let router = self.router;
        router.fan_query(s, |i| self.part(i).query(s, cols))
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
        range: &RangePattern,
        cols: ColumnSet,
    ) -> Result<Vec<Tuple>, TxnError> {
        let router = self.router;
        router.fan_query_range(s, range, cols, |i, range, cols| {
            self.part(i).query_range(s, range, cols)
        })
    }

    /// Whether any tuple extends `s` — a short-circuiting existence check
    /// that stops at the first witness instead of materializing,
    /// deduplicating, and sorting every match the way `query(s, ∅)` would.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::query`].
    pub fn contains(&mut self, s: &Tuple) -> Result<bool, TxnError> {
        let router = self.router;
        router.fan_contains(s, |i| self.part(i).contains(s))
    }

    /// All tuples, sorted, as observed under this transaction's locks.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::query`].
    pub fn snapshot(&mut self) -> Result<Vec<Tuple>, TxnError> {
        self.query(&Tuple::empty(), self.schema().columns())
    }

    /// Aborts the transaction: return this from the closure (e.g.
    /// `return Err(tx.abort("insufficient funds"))`) to roll back every
    /// effect on every instance and surface
    /// [`CoreError::TransactionAborted`] to the [`Relation::transaction`]
    /// caller.
    ///
    /// [`Relation::transaction`]: crate::relation::Relation::transaction
    pub fn abort(&self, reason: impl Into<String>) -> TxnError {
        TxnError::Core(CoreError::TransactionAborted(reason.into()))
    }
}

impl fmt::Debug for Transaction<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let touched: Vec<usize> = (0..self.parts.len())
            .filter(|&i| self.parts[i].is_some())
            .collect();
        f.debug_struct("Transaction")
            .field("instances", &self.parts.len())
            .field("touched", &touched)
            .field("single_shot", &self.single_shot)
            .finish()
    }
}

/// One instance's part of an attempt: the operations routed to it run
/// through one executor and one lock engine, against the representation
/// pinned for the attempt.
pub(crate) struct Part<'t> {
    rel: &'t ConcurrentRelation,
    repr: &'t Repr,
    exec: Executor<'t>,
    /// Applied operations in order, for the WAL's redo record. Empty
    /// (never pushed, no allocation) unless the instance has a WAL.
    redo: Vec<RedoOp>,
    /// Whether to capture [`RedoOp`]s — true exactly when the instance
    /// has a WAL attached.
    log_redo: bool,
    len_delta: isize,
    single_shot: bool,
    saw_restart: bool,
}

impl<'t> Part<'t> {
    fn new(
        rel: &'t ConcurrentRelation,
        repr: &'t Repr,
        engine: &'t mut TwoPhaseEngine<LockToken>,
        single_shot: bool,
    ) -> Self {
        let mut exec = Executor::new(&repr.physical, engine);
        exec.always_sort_locks = rel.always_sort_locks();
        Part {
            rel,
            repr,
            exec,
            redo: Vec::new(),
            log_redo: rel.wal().is_some(),
            len_delta: 0,
            single_shot,
            saw_restart: false,
        }
    }

    /// Records any [`MustRestart`] an operation produced before handing it
    /// to the closure. A closure that swallows the error and returns `Ok`
    /// would otherwise commit a half-applied transaction (e.g. an update
    /// whose unlink succeeded but whose re-insert restarted, or a batch
    /// stopped mid-way); the commit path checks [`Part::needs_restart`] and
    /// rolls back and retries instead, so the discipline is enforced, not
    /// just documented.
    fn track<T>(&mut self, r: Result<T, MustRestart>) -> Result<T, TxnError> {
        if r.is_err() {
            self.saw_restart = true;
        }
        r.map_err(TxnError::from)
    }

    /// Whether any operation of this part demanded a restart. Once set,
    /// the attempt must not commit, whatever the closure returns.
    pub(crate) fn needs_restart(&self) -> bool {
        self.saw_restart
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

    /// The instance this part operates on.
    pub(crate) fn relation(&self) -> &'t ConcurrentRelation {
        self.rel
    }

    /// Net tuple-count change of the operations applied so far.
    pub(crate) fn len_delta(&self) -> isize {
        self.len_delta
    }

    /// The part's applied-operation stream for the WAL's redo record
    /// (empty when the instance has no WAL, or nothing applied).
    pub(crate) fn redo(&self) -> &[RedoOp] {
        &self.redo
    }

    /// The part's MVCC state (commit stamp + write journal), which the
    /// commit path stamps and retires before the engine releases any lock.
    pub(crate) fn mvcc(&self) -> &crate::mvcc::MvccScope {
        self.exec.mvcc()
    }

    /// Takes back every write of the part from its write journal, while
    /// all of its locks are still held (see the [module docs](self)).
    /// Reached from the commit path's abort and, when the closure
    /// panicked, from `Drop`; a no-op once the attempt has committed or
    /// rolled back.
    pub(crate) fn roll_back(&mut self) {
        self.exec.roll_back();
    }

    /// The representation this part is pinned to.
    pub(crate) fn repr(&self) -> &'t Repr {
        self.repr
    }

    /// The part's lock engine, for the release that ends it.
    pub(crate) fn engine(&mut self) -> &mut TwoPhaseEngine<LockToken> {
        self.exec.engine()
    }

    /// `insert r s t` (§2); see [`Transaction::insert`].
    fn insert(&mut self, s: &Tuple, t: &Tuple) -> Result<bool, TxnError> {
        self.insert_row(s, t, !self.single_shot)
    }

    /// [`Part::insert`] with the isolation rule of [`Executor::run_insert`]
    /// decided by the caller: a row of a batch is never the attempt's last
    /// write, single-shot or not.
    fn insert_row(
        &mut self,
        s: &Tuple,
        t: &Tuple,
        hold_published_targets: bool,
    ) -> Result<bool, TxnError> {
        self.assert_two_phase();
        let x = self.validate_insert(s, t)?;
        let plan = self.repr.insert_plan(s.dom())?;
        let mut inserted = false;
        let res = self.exec.run_insert(
            &plan,
            &[(&x, s)],
            self.repr.root(),
            hold_published_targets,
            std::slice::from_mut(&mut inserted),
        );
        self.track(res)?;
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

    /// §2 argument validation shared by [`Part::insert`] and
    /// [`Part::insert_all`]: disjoint domains, full valuation. Returns
    /// `x = s ∪ t`.
    fn validate_insert(&self, s: &Tuple, t: &Tuple) -> Result<Tuple, TxnError> {
        let schema = self.rel.schema();
        if !s.dom().is_disjoint(t.dom()) {
            let shared = s.dom().intersection(t.dom());
            return Err(SpecError::OverlappingInsertDomains {
                shared: schema.catalog().render_set(shared),
            }
            .into());
        }
        let x = s.union(t).expect("disjoint domains cannot conflict");
        schema.check_valuation(&x).map_err(CoreError::from)?;
        Ok(x)
    }

    /// Batched insert; see [`Transaction::insert_all`].
    fn insert_all(&mut self, rows: &[(Tuple, Tuple)]) -> Result<Vec<bool>, TxnError> {
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
        let xs_and_patterns: Vec<(&Tuple, &Tuple)> =
            xs.iter().zip(rows.iter().map(|(s, _)| s)).collect();
        let plan = self.repr.insert_plan(dom_s)?;
        let mut results = vec![false; rows.len()];
        // A later row can restart and roll an earlier one back, so every
        // row holds the targets it publishes.
        let res = self.exec.run_insert(
            &plan,
            &xs_and_patterns,
            self.repr.root(),
            true,
            &mut results,
        );
        self.track(res)?;
        for ((s, t), _) in rows.iter().zip(&results).filter(|(_, &inserted)| inserted) {
            self.applied_insert(s, t);
        }
        Ok(results)
    }

    /// Batched remove; see [`Transaction::remove_all`].
    fn remove_all(&mut self, keys: &[Tuple]) -> Result<Vec<bool>, TxnError> {
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
        let mut removed = vec![None; keys.len()];
        let res = self
            .exec
            .run_remove(&plan, keys, self.repr.root(), &mut removed);
        self.track(res)?;
        for (key, _) in keys.iter().zip(&removed).filter(|(_, r)| r.is_some()) {
            self.applied_remove(key);
        }
        Ok(removed.iter().map(Option::is_some).collect())
    }

    /// Bookkeeping for one removed row: the tuple count and the redo
    /// stream.
    fn applied_remove(&mut self, s: &Tuple) {
        self.len_delta -= 1;
        if self.log_redo {
            self.redo.push(RedoOp::Remove(s.clone()));
        }
    }

    /// `remove r s` (§2) returning the removed tuple; see
    /// [`Transaction::remove_returning`].
    fn remove_returning(&mut self, s: &Tuple) -> Result<Option<Tuple>, TxnError> {
        self.assert_two_phase();
        let plan = self.repr.remove_plan(s.dom())?;
        let mut removed = None;
        let res = self.exec.run_remove(
            &plan,
            std::slice::from_ref(s),
            self.repr.root(),
            std::slice::from_mut(&mut removed),
        );
        self.track(res)?;
        if removed.is_some() {
            self.applied_remove(s);
        }
        Ok(removed)
    }

    /// `update r s t` (§2) within this instance; see
    /// [`Transaction::update`].
    fn update(&mut self, s: &Tuple, t: &Tuple) -> Result<Option<Tuple>, TxnError> {
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
                let mut removed = None;
                let res = self.exec.run_remove(
                    &gp.remove,
                    std::slice::from_ref(s),
                    root,
                    std::slice::from_mut(&mut removed),
                );
                self.track(res)?;
                let Some(old) = removed else {
                    return Ok(None);
                };
                // From here the unlink is applied, and the re-insert can
                // still restart (its root sweep names the *new* values'
                // tokens): `track` then fails the attempt, and its
                // rollback re-links what the unlink took out.
                let new = old.override_with(t);
                let mut reinserted = false;
                let res = self.exec.run_insert(
                    &gp.insert,
                    &[(&new, &new)],
                    root,
                    !self.single_shot,
                    std::slice::from_mut(&mut reinserted),
                );
                self.track(res)?;
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

    /// `query r s C` (§2); see [`Transaction::query`].
    fn query(&mut self, s: &Tuple, cols: ColumnSet) -> Result<Vec<Tuple>, TxnError> {
        self.assert_two_phase();
        let plan = self.repr.query_plan(s.dom(), cols)?;
        let res = self.exec.run_query(&plan, s, self.repr.root());
        self.track(res)
    }

    /// Range query; see [`Transaction::query_range`].
    fn query_range(
        &mut self,
        s: &Tuple,
        range: &RangePattern,
        cols: ColumnSet,
    ) -> Result<Vec<Tuple>, TxnError> {
        self.assert_two_phase();
        let plan = self.repr.range_plan(s.dom(), range, cols)?;
        let res = self.exec.run_query_range(&plan, s, range, self.repr.root());
        self.track(res)
    }

    /// Existence check; see [`Transaction::contains`].
    fn contains(&mut self, s: &Tuple) -> Result<bool, TxnError> {
        self.assert_two_phase();
        let plan = self.repr.query_plan(s.dom(), ColumnSet::EMPTY)?;
        let res = self.exec.run_exists(&plan, s, self.repr.root());
        self.track(res)
    }
}

/// A part that ends without the commit path — its closure panicked — must
/// not leave its writes behind: the lock engine it borrows releases every
/// lock when *it* drops, which is strictly after this. Rolling back here
/// keeps locked readers from seeing half a transaction and the version
/// chains from keeping tentative heads forever. After a commit or an abort
/// there is nothing left to take back and this does nothing.
impl Drop for Part<'_> {
    fn drop(&mut self) {
        self.roll_back();
    }
}
