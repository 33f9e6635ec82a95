//! The synthesized concurrent relation: the public API of the system (§2).
//!
//! A [`Relation`] is the object the compiler produces for one
//! (decomposition, lock placement) pair. Its [`Layout`] says how its tuples
//! are laid out: in one decomposition instance ([`ConcurrentRelation`]) or
//! hash-partitioned over several ([`ShardedRelation`](crate::ShardedRelation),
//! see [`crate::shard`]). Each instance owns the root of its instance tree
//! and caches one compiled plan per operation *shape* (the bound/output
//! column sets). Every operation is written once, for either layout: it
//! routes to the instances it touches and runs as one two-phase,
//! well-locked, deadlock-free transaction with automatic restart and
//! backoff, so operations are linearizable by construction (§4.2). How an
//! attempt *ends* — the publish-before-unlock commit sequence, the
//! roll-back, and the write fence `migrate_to` and `checkpoint` freeze the
//! relation behind — is written once too, in `commit.rs`.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use relc_locks::{Backoff, LockStats, LockStatsSnapshot, SnapshotRegistry};
#[cfg(doc)]
use relc_spec::SpecError;
use relc_spec::{ColumnSet, RangePattern, RelationSchema, Tuple};

use crate::commit;
use crate::decomp::Decomposition;
use crate::error::CoreError;
use crate::instance::{self, NodeInstance, NodeRef};
use crate::mvcc;
use crate::placement::LockPlacement;
use crate::planner::{InsertPlan, Plan, Planner, RemovePlan, UpdatePlan};
use crate::query::{eval_all, eval_any};
use crate::shard::Router;
use crate::txn::{Transaction, TxnError};
use crate::wal::{RecoveryReport, Wal, WalOptions, WalRecord};

/// A concurrent relation synthesized from a decomposition and a lock
/// placement, laid out over one decomposition instance or several (see
/// [`Layout`]). Every operation below is the same code for either layout;
/// [`ConcurrentRelation`] has an example.
pub struct Relation<L: Layout> {
    layout: L,
    /// Top-level operation counters (see [`OpCountersSnapshot`]).
    ops: OpCounters,
    /// Seqlock-style generation for the migration cutover: odd exactly
    /// while [`Self::migrate_to`] swaps the instances' representations.
    /// Snapshot readers spin past odd values and re-validate after
    /// registering, so none captures a half-migrated mix of trees.
    migration_epoch: AtomicU64,
    /// Completed [`Self::migrate_to`] cutovers.
    migrations: AtomicU64,
}

/// A relation held in one decomposition instance.
///
/// # Examples
///
/// ```
/// use relc::{ConcurrentRelation, decomp, placement::LockPlacement};
/// use relc_containers::ContainerKind;
/// use relc_spec::Value;
///
/// let d = decomp::library::stick(ContainerKind::HashMap, ContainerKind::TreeMap);
/// let p = LockPlacement::coarse(&d)?;
/// let graph = ConcurrentRelation::new(d.clone(), p)?;
///
/// let s = d.schema().tuple(&[("src", Value::from(1)), ("dst", Value::from(2))])?;
/// let t = d.schema().tuple(&[("weight", Value::from(42))])?;
/// assert!(graph.insert(&s, &t)?);
/// assert!(!graph.insert(&s, &t)?); // put-if-absent
/// assert_eq!(graph.remove(&s)?, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type ConcurrentRelation = Relation<Instance>;

pub(crate) mod sealed {
    /// Closes [`Layout`](super::Layout) to the crate's two layouts.
    pub trait Sealed {}
}

/// How a [`Relation`]'s tuples are laid out over decomposition instances:
/// all in one ([`Instance`]) or hash-partitioned over several
/// ([`Shards`](crate::shard::Shards)). Sealed: those are the only two.
pub trait Layout: sealed::Sealed + Sized {
    /// The relation's instances and the router between them.
    #[doc(hidden)]
    fn router(rel: &Relation<Self>) -> Router<'_>;
}

/// The [`Layout`] of a relation held in one decomposition instance: its
/// representation, lock statistics, tuple count, snapshot registry and
/// write-ahead log. A sharded relation's shards are relations of this
/// layout.
pub struct Instance {
    /// The schema is fixed for the relation's lifetime — migrations swap
    /// the representation, never the logical relation — so it is cached
    /// here and handed out by reference while `repr` changes underneath.
    schema: Arc<RelationSchema>,
    /// The current physical representation. Swapped by
    /// [`Relation::migrate_to`] under the migration write fence; every
    /// transaction attempt and snapshot reader pins one `Arc<Repr>` for
    /// its whole scope, so in-flight work keeps the representation it
    /// started on alive until it finishes.
    repr: RwLock<Arc<Repr>>,
    stats: Arc<LockStats>,
    len: AtomicUsize,
    always_sort_locks: AtomicBool,
    /// Unique id for the re-entrancy guard (stable across migrations).
    id: u64,
    /// Snapshot-reader registry: a long-lived reader of this relation
    /// pins only this relation's version retirement, not every relation
    /// in the process. The shards of one relation share one registry, so
    /// a reader spanning them is one floor.
    snapshots: Arc<SnapshotRegistry>,
    /// The write-ahead log, attached after recovery by `open_durable`.
    /// Unset (the default) costs one branch on the commit path and
    /// nothing else — WAL off is zero-overhead.
    wal: OnceLock<Wal>,
}

impl sealed::Sealed for Instance {}

impl Layout for Instance {
    fn router(rel: &Relation<Self>) -> Router<'_> {
        Router::new(std::slice::from_ref(rel), ColumnSet::EMPTY)
    }
}

/// One value per instance of a relation, held inline when there is one
/// instance, so per-instance state costs a one-instance relation no
/// allocation.
pub(crate) enum PerInstance<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> FromIterator<T> for PerInstance<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let first = iter.next().expect("a relation has at least one instance");
        match iter.next() {
            None => PerInstance::One(first),
            Some(second) => PerInstance::Many([first, second].into_iter().chain(iter).collect()),
        }
    }
}

impl<T> std::ops::Deref for PerInstance<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            PerInstance::One(t) => std::slice::from_ref(t),
            PerInstance::Many(v) => v,
        }
    }
}

impl<T> std::ops::DerefMut for PerInstance<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            PerInstance::One(t) => std::slice::from_mut(t),
            PerInstance::Many(v) => v,
        }
    }
}

/// One physical representation of an instance: a `(decomposition, lock
/// placement)` pair plus the instance tree that realizes it and the plans
/// compiled against it. An [`Instance`] holds its *current*
/// representation behind an `RwLock<Arc<Repr>>`; live migration builds a
/// fresh `Repr` and swaps the pointer, while transactions and snapshot
/// readers that pinned the old one keep using it (and its plans) until
/// they drop — at which point the old instance tree retires through the
/// epoch collector like any other unlinked subtree, and its plans go with
/// it. Plans of one decomposition therefore never reach another.
pub(crate) struct Repr {
    pub(crate) decomp: Arc<Decomposition>,
    pub(crate) placement: Arc<LockPlacement>,
    /// The logical planner: what [`Relation::planner`] hands out.
    pub(crate) planner: Planner,
    /// The lowered planner ([`Planner::lowered`]): its placement locks the
    /// instance tree and its plans are the ones every operation runs.
    pub(crate) physical: Planner,
    pub(crate) root: NodeRef,
    query_plans: PlanCache<(u64, u64), Plan>,
    range_plans: PlanCache<(u64, usize, u64), Plan>,
    insert_plans: PlanCache<u64, InsertPlan>,
    remove_plans: PlanCache<u64, RemovePlan>,
    update_plans: PlanCache<(u64, u64), UpdatePlan>,
}

/// Top-level operation counters of one relation, surfaced through
/// [`StatsSnapshot::ops`]. Counts public API calls (one `insert_all` of
/// `n` rows is `n` batch rows and one batch), not internal retries —
/// restart pressure is visible in [`LockStatsSnapshot::restarts`] instead.
/// Every operation bumps one of these from whichever thread runs it, so
/// they sit on cache lines of their own, off the lines that operations
/// only read.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct OpCounters {
    pub(crate) inserts: AtomicU64,
    pub(crate) removes: AtomicU64,
    pub(crate) updates: AtomicU64,
    pub(crate) queries: AtomicU64,
    pub(crate) range_queries: AtomicU64,
    pub(crate) contains_checks: AtomicU64,
    pub(crate) batch_rows: AtomicU64,
    pub(crate) transactions: AtomicU64,
    pub(crate) read_transactions: AtomicU64,
}

impl OpCounters {
    pub(crate) fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> OpCountersSnapshot {
        OpCountersSnapshot {
            inserts: self.inserts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            range_queries: self.range_queries.load(Ordering::Relaxed),
            contains_checks: self.contains_checks.load(Ordering::Relaxed),
            batch_rows: self.batch_rows.load(Ordering::Relaxed),
            transactions: self.transactions.load(Ordering::Relaxed),
            read_transactions: self.read_transactions.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a relation's top-level operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCountersSnapshot {
    /// Single-shot `insert` calls.
    pub inserts: u64,
    /// Single-shot `remove` / `remove_returning` calls.
    pub removes: u64,
    /// Single-shot `update` calls.
    pub updates: u64,
    /// `query` / `snapshot` calls (lock-free snapshot reads).
    pub queries: u64,
    /// `query_range` calls.
    pub range_queries: u64,
    /// `contains` calls.
    pub contains_checks: u64,
    /// Rows submitted through `insert_all` / `remove_all` batches.
    pub batch_rows: u64,
    /// Explicit multi-operation `transaction` calls.
    pub transactions: u64,
    /// `read_transaction` calls.
    pub read_transactions: u64,
}

impl OpCountersSnapshot {
    /// Total top-level operations (each batch row counts once).
    pub fn total(&self) -> u64 {
        self.inserts
            + self.removes
            + self.updates
            + self.queries
            + self.range_queries
            + self.contains_checks
            + self.batch_rows
            + self.transactions
            + self.read_transactions
    }
}

/// The unified observability surface the autotuner consumes: lock,
/// version, and reclamation counters plus per-op counts and migration
/// progress, captured in one call ([`Relation::stats_snapshot`]). The
/// `locks`, `versions`, and `reclamation` fields agree with the
/// `lock_stats()` / `version_stats()` / `reclamation_stats()` accessors —
/// they read the same counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Two-phase engine counters (acquisitions, restarts, commits, …),
    /// summed over the relation's instances.
    pub locks: LockStatsSnapshot,
    /// Process-global MVCC version-chain counters.
    pub versions: relc_containers::VersionStats,
    /// Process-global epoch-reclamation counters.
    pub reclamation: relc_containers::ReclamationStats,
    /// Top-level operation counters of this relation.
    pub ops: OpCountersSnapshot,
    /// Current tuple count (same caveat as [`Relation::len`]).
    pub len: usize,
    /// Completed live migrations on this relation.
    pub migrations: u64,
}

/// Monotonic instance ids for the re-entrancy guard ([`ActiveTxnGuard`]).
static NEXT_RELATION_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Instances with an open transaction on this thread (see
    /// [`ActiveTxnGuard`]). At most a handful deep in practice.
    static ACTIVE_TXNS: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII marker for "this thread is inside a transaction on these
/// instances"; entering one twice is a certain self-deadlock, so it
/// panics with a diagnosis instead of hanging. Guards are scoped, so they
/// drop in the reverse order they entered: each pops what it pushed.
pub(crate) struct ActiveTxnGuard {
    depth: usize,
}

impl ActiveTxnGuard {
    pub(crate) fn enter(instances: &[ConcurrentRelation]) -> Self {
        ACTIVE_TXNS.with(|t| {
            let mut t = t.borrow_mut();
            let depth = t.len();
            for id in instances.iter().map(|s| s.layout.id) {
                assert!(
                    !t.contains(&id),
                    "re-entrant operation on a relation already inside a \
                     transaction on this thread: use the `Transaction` handle \
                     for every operation inside a transaction closure \
                     (calling single-shot methods there would self-deadlock)"
                );
                t.push(id);
            }
            ActiveTxnGuard { depth }
        })
    }
}

impl Drop for ActiveTxnGuard {
    fn drop(&mut self) {
        ACTIVE_TXNS.with(|t| t.borrow_mut().truncate(self.depth));
    }
}

/// One kind of plan compiled against a representation, keyed by
/// operation shape. A fetch is one shared read; a miss builds the plan
/// and publishes it. Two threads that miss together both build, and both
/// return whichever plan was published first — either is a correct plan.
struct PlanCache<K, P>(RwLock<HashMap<K, Arc<P>>>);

impl<K, P> Default for PlanCache<K, P> {
    fn default() -> Self {
        PlanCache(RwLock::new(HashMap::new()))
    }
}

impl<K: std::hash::Hash + Eq, P> PlanCache<K, P> {
    fn get_or_build(
        &self,
        key: K,
        build: impl FnOnce() -> Result<P, CoreError>,
    ) -> Result<Arc<P>, CoreError> {
        if let Some(plan) = self.0.read().expect("plan cache").get(&key) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(build()?);
        let mut cache = self.0.write().expect("plan cache");
        Ok(Arc::clone(cache.entry(key).or_insert(plan)))
    }
}

/// One snapshot read of a representation: which plan to fetch and which
/// traversal order evaluates it.
#[derive(Clone, Copy)]
pub(crate) enum SnapshotRead<'a> {
    /// `query r s C`.
    Query(ColumnSet),
    /// `query_range r s ρ C`.
    Range(&'a RangePattern, ColumnSet),
    /// `contains r s`: `query r s ∅` stopped at the first witness, and
    /// answered as that query would be — the empty tuple, or nothing.
    Witness,
}

impl Repr {
    /// Builds a fresh (empty) representation.
    ///
    /// # Errors
    ///
    /// [`CoreError::IllFormedPlacement`] if the placement belongs to a
    /// different decomposition.
    pub(crate) fn new(
        decomp: Arc<Decomposition>,
        placement: Arc<LockPlacement>,
    ) -> Result<Arc<Self>, CoreError> {
        if !Arc::ptr_eq(placement.decomposition(), &decomp) {
            return Err(CoreError::IllFormedPlacement(
                "placement belongs to a different decomposition".into(),
            ));
        }
        let planner = Planner::new(Arc::clone(&decomp), Arc::clone(&placement));
        let physical = Planner::lowered(Arc::clone(&decomp), Arc::clone(&placement));
        let root = NodeInstance::new(&decomp, physical.placement(), decomp.root(), Tuple::empty());
        Ok(Arc::new(Repr {
            decomp,
            placement,
            planner,
            physical,
            root,
            query_plans: PlanCache::default(),
            range_plans: PlanCache::default(),
            insert_plans: PlanCache::default(),
            remove_plans: PlanCache::default(),
            update_plans: PlanCache::default(),
        }))
    }

    /// The root node instance of this representation's tree.
    pub(crate) fn root(&self) -> &NodeRef {
        &self.root
    }

    /// Evaluates one read under the snapshot edge view at an
    /// externally-captured `(snap, guard)` pair — readers capture a
    /// representation and a registration together, so the traversal
    /// always runs against the tree its snapshot was registered for.
    /// `stats` is the owning instance's counter sink.
    pub(crate) fn snapshot_read(
        &self,
        stats: &LockStats,
        s: &Tuple,
        read: SnapshotRead<'_>,
        snap: u64,
        guard: &relc_containers::epoch::Guard,
    ) -> Result<Vec<Tuple>, CoreError> {
        let (plan, range) = match read {
            SnapshotRead::Query(cols) => (self.query_plan(s.dom(), cols)?, None),
            SnapshotRead::Range(range, cols) => {
                (self.range_plan(s.dom(), range, cols)?, Some(range))
            }
            SnapshotRead::Witness => (self.query_plan(s.dom(), ColumnSet::EMPTY)?, None),
        };
        stats.record_snapshot_reads(1);
        let mut view = mvcc::Snapshot {
            decomp: &self.decomp,
            snap,
            guard,
        };
        let Ok(out) = match read {
            SnapshotRead::Witness => eval_any(&self.decomp, &mut view, &plan, s, &self.root)
                .map(|found| Vec::from_iter(found.then(Tuple::empty))),
            _ => eval_all(&self.decomp, &mut view, &plan, s, range, &self.root),
        };
        Ok(out)
    }

    pub(crate) fn query_plan(
        &self,
        bound: ColumnSet,
        output: ColumnSet,
    ) -> Result<Arc<Plan>, CoreError> {
        self.query_plans
            .get_or_build((bound.bits(), output.bits()), || {
                self.physical.plan_query(bound, output)
            })
    }

    pub(crate) fn range_plan(
        &self,
        bound: ColumnSet,
        range: &RangePattern,
        output: ColumnSet,
    ) -> Result<Arc<Plan>, CoreError> {
        let key = (bound.bits(), range.col().index(), output.bits());
        self.range_plans
            .get_or_build(key, || self.physical.plan_range(bound, range.col(), output))
    }

    pub(crate) fn insert_plan(&self, bound: ColumnSet) -> Result<Arc<InsertPlan>, CoreError> {
        self.insert_plans
            .get_or_build(bound.bits(), || self.physical.plan_insert(bound))
    }

    pub(crate) fn remove_plan(&self, bound: ColumnSet) -> Result<Arc<RemovePlan>, CoreError> {
        self.remove_plans
            .get_or_build(bound.bits(), || self.physical.plan_remove(bound))
    }

    pub(crate) fn update_plan(
        &self,
        bound: ColumnSet,
        updated: ColumnSet,
    ) -> Result<Arc<UpdatePlan>, CoreError> {
        self.update_plans
            .get_or_build((bound.bits(), updated.bits()), || {
                self.physical.plan_update(bound, updated)
            })
    }
}

impl<L: Layout> Relation<L> {
    pub(crate) fn with_layout(layout: L) -> Self {
        Relation {
            layout,
            ops: OpCounters::default(),
            migration_epoch: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
        }
    }

    /// The layout's own state (the per-layout constructors and accessors).
    pub(crate) fn layout(&self) -> &L {
        &self.layout
    }

    pub(crate) fn router(&self) -> Router<'_> {
        L::router(self)
    }

    fn instances(&self) -> &[ConcurrentRelation] {
        self.router().instances
    }

    /// The relation's schema (fixed for the relation's lifetime — live
    /// migration swaps the representation, never the logical relation).
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.instances()[0].layout.schema
    }

    /// The decomposition currently representing the relation. Owned:
    /// [`Self::migrate_to`] may install a different representation at any
    /// moment, so callers get a pinned `Arc`, not a reference into the
    /// relation.
    pub fn decomposition(&self) -> Arc<Decomposition> {
        Arc::clone(&self.instances()[0].current_repr().decomp)
    }

    /// The lock placement currently in force (owned, like
    /// [`Self::decomposition`]).
    pub fn placement(&self) -> Arc<LockPlacement> {
        Arc::clone(&self.instances()[0].current_repr().placement)
    }

    /// The current representation's planner (exposed for plan inspection
    /// and rendering; owned, like [`Self::decomposition`]).
    pub fn planner(&self) -> Planner {
        self.instances()[0].current_repr().planner.clone()
    }

    /// Number of completed [`Self::migrate_to`] cutovers.
    pub fn migration_count(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// Captures the unified observability surface: lock + version +
    /// reclamation counters, per-op counts, the tuple count, and the
    /// migration count, in one struct (the autotuner's input).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            locks: self.lock_stats(),
            versions: relc_containers::version_stats(),
            reclamation: relc_containers::reclamation_stats(),
            ops: self.ops.snapshot(),
            len: self.len(),
            migrations: self.migration_count(),
        }
    }

    /// Lock statistics accumulated so far, summed over the instances. A
    /// transaction contributes one commit (or rollback) per instance it
    /// touched.
    pub fn lock_stats(&self) -> LockStatsSnapshot {
        self.instances()
            .iter()
            .map(|s| s.layout.stats.snapshot())
            .sum()
    }

    /// Epoch reclamation counters (retired / reclaimed deferred
    /// destructions from lock-free containers and version indexes).
    ///
    /// The epoch domain is process-global, so this aggregates every
    /// epoch-managed container in the process, not just this relation's
    /// edges; take deltas around a workload. Churn suites assert the
    /// in-flight count stays bounded and returns to zero after
    /// [`Self::flush_reclamation`] at quiescence.
    pub fn reclamation_stats(&self) -> relc_containers::ReclamationStats {
        relc_containers::reclamation_stats()
    }

    /// Test-only: drives the epoch collector to quiescence (no thread
    /// pinned ⇒ everything retired is freed) and returns the counters.
    pub fn flush_reclamation(&self) -> relc_containers::ReclamationStats {
        relc_containers::reclamation_flush()
    }

    /// Process-global version-chain counters (`created` / `retired`);
    /// the MVCC analogue of [`Self::reclamation_stats`].
    pub fn version_stats(&self) -> relc_containers::VersionStats {
        relc_containers::version_stats()
    }

    /// Ablation knob (§5.2): ignore the planner's sort-elision analysis and
    /// always sort lock sets at runtime.
    pub fn set_always_sort_locks(&self, v: bool) {
        for s in self.instances() {
            s.layout.always_sort_locks.store(v, Ordering::Relaxed);
        }
    }

    /// Number of tuples (maintained outside the locking protocol; exact
    /// under quiescence, approximate during concurrent mutation).
    ///
    /// Each instance's count is published *before* a committing
    /// transaction releases its locks, so any transaction ordered after a
    /// commit — anything that contends on one of its locks — observes the
    /// updated count: at quiescence `len() == snapshot().len()` always
    /// holds, and the stress suites assert it.
    pub fn len(&self) -> usize {
        self.instances()
            .iter()
            .map(|s| s.layout.len.load(Ordering::Acquire))
            .sum()
    }

    /// Whether the relation is empty (same caveat as [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` as one two-phase transaction over this relation: every
    /// operation invoked on the [`Transaction`] shares a single lock
    /// scope, released only when the closure returns (§4.2's
    /// serializability argument applies to the whole sequence, across
    /// every instance it touches). When the lock engine demands a
    /// restart — out-of-order contention, a shared→exclusive upgrade while
    /// another reader shares the lock, a failed speculation — the
    /// closure's effects are rolled back and the **whole closure re-runs**
    /// after randomized backoff, which is what makes read-modify-write
    /// sequences atomic.
    ///
    /// The closure must propagate [`TxnError`] with `?`; returning
    /// `Err(tx.abort(..))` rolls back and surfaces
    /// [`CoreError::TransactionAborted`]. This is enforced: a closure
    /// that swallows a restart and returns `Ok` anyway is rolled back
    /// and re-run, never committed.
    ///
    /// Closures may run several times and must therefore be free of side
    /// effects other than operations on the transaction (or idempotent
    /// ones).
    ///
    /// # Re-entrancy
    ///
    /// All operations on this relation inside the closure must go through
    /// `tx`. Calling a single-shot method (or opening a nested
    /// transaction) on the *same relation* from inside the closure would
    /// open a second lock engine on the same thread and self-deadlock on
    /// the locks the transaction already holds; the runtime detects this
    /// and panics instead of hanging.
    ///
    /// # Examples
    ///
    /// ```
    /// use relc::{ConcurrentRelation, decomp, placement::LockPlacement};
    /// use relc_containers::ContainerKind;
    /// use relc_spec::Value;
    ///
    /// let d = decomp::library::stick(ContainerKind::HashMap, ContainerKind::TreeMap);
    /// let p = LockPlacement::coarse(&d)?;
    /// let graph = ConcurrentRelation::new(d.clone(), p)?;
    /// let edge = d.schema().tuple(&[("src", Value::from(1)), ("dst", Value::from(2))])?;
    /// let w = |w: i64| d.schema().tuple(&[("weight", Value::from(w))]).unwrap();
    ///
    /// // Atomic read-modify-write: halve the weight if the edge exists.
    /// graph.insert(&edge, &w(42))?;
    /// let halved = graph.transaction(|tx| {
    ///     match tx.remove_returning(&edge)? {
    ///         Some(old) => {
    ///             let wcol = tx.schema().column("weight").unwrap();
    ///             let half = match old.get(wcol) {
    ///                 Some(v) => v.as_int().unwrap() / 2,
    ///                 None => 0,
    ///             };
    ///             tx.insert(&edge, &w(half))?;
    ///             Ok(true)
    ///         }
    ///         None => Ok(false),
    ///     }
    /// })?;
    /// assert!(halved);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Whatever [`TxnError::Core`] error the closure propagates (planner
    /// and spec errors from the operations, or an explicit abort).
    /// [`TxnError::Restart`] never escapes — it is consumed by the retry
    /// loop.
    ///
    /// On a durable relation, [`CoreError::Durability`] can also surface
    /// *after* the closure succeeded, from the group-commit fsync wait.
    /// That case is **not** an abort: the transaction already committed
    /// in memory (its effects are published) but durability is unknown.
    /// Retrying the closure would apply its effects twice — treat the
    /// error as fatal for this relation (see the
    /// [`CoreError::Durability`] docs).
    pub fn transaction<R>(
        &self,
        f: impl FnMut(&mut Transaction<'_>) -> Result<R, TxnError>,
    ) -> Result<R, CoreError> {
        OpCounters::bump(&self.ops.transactions, 1);
        self.run_transaction(false, f)
    }

    /// The transaction loop shared by [`Self::transaction`] and the
    /// single-shot sugar: run, commit on success, roll back effects and
    /// either retry (restart) or surface the error (abort).
    fn run_transaction<R>(
        &self,
        single_shot: bool,
        mut f: impl FnMut(&mut Transaction<'_>) -> Result<R, TxnError>,
    ) -> Result<R, CoreError> {
        let router = self.router();
        // Re-entrancy guard: a second engine on the same thread for the
        // same instance would block on locks the first engine holds — a
        // guaranteed self-deadlock (or restart livelock). Fail loudly.
        let _guard = ActiveTxnGuard::enter(router.instances);
        // Created on an instance's first touch and kept across attempts:
        // an engine carries the mode hints a restart leaves for the retry.
        let mut engines: PerInstance<_> = router.instances.iter().map(|_| None).collect();
        let mut backoff = Backoff::new();
        loop {
            // Pin every instance's representation for this attempt. A
            // migration may install a new one while this attempt runs —
            // but only after draining every writer through the all-stripe
            // fence, and any attempt that acquired at least one lock holds
            // a root-hosted one, so a completed swap implies this attempt
            // held nothing in that instance when the fence was taken. The
            // commit-time check in `commit::conclude` catches exactly that
            // stale window: the attempt rolls back its (now-unreachable)
            // effects and retries on the new tree.
            let reprs: PerInstance<_> = router.instances.iter().map(|s| s.current_repr()).collect();
            let mut tx = Transaction::new(router, &reprs, &mut engines, single_shot);
            let result = f(&mut tx);
            if let Some(done) = commit::conclude(result, &mut tx) {
                return done;
            }
            backoff.wait();
        }
    }

    /// `insert r s t` (§2): inserts `s ∪ t` provided no existing tuple
    /// extends `s`; returns whether the insert happened. Generalizes
    /// put-if-absent. Sugar for a one-operation [`Self::transaction`],
    /// routed to the instance that owns `s ∪ t`.
    ///
    /// # Errors
    ///
    /// * [`SpecError::OverlappingInsertDomains`] if `s` and `t` share
    ///   columns;
    /// * [`SpecError::NotAValuation`] if `s ∪ t` is not a full tuple;
    /// * [`CoreError::NoValidPlan`] if the placement cannot support the
    ///   existence check for this shape of `s`.
    pub fn insert(&self, s: &Tuple, t: &Tuple) -> Result<bool, CoreError> {
        OpCounters::bump(&self.ops.inserts, 1);
        self.run_transaction(true, |tx| tx.insert(s, t))
    }

    /// Batched `insert r s t` (§2) over many rows as **one transaction**:
    /// semantically the sequential fold of [`Self::insert`] over `rows`
    /// (one put-if-absent result per row, duplicates losing to the first
    /// occurrence), but atomic — observers see all of the batch's effects
    /// or none, across every instance it touches — and amortized: the plan
    /// is fetched once per instance, and every row's root lock targets are
    /// deduplicated and acquired in one globally sorted sweep; each row
    /// then runs the single-row insert under that sweep.
    ///
    /// A validation error in *any* row aborts the whole batch with no
    /// effect.
    ///
    /// # Examples
    ///
    /// ```
    /// use relc::{ConcurrentRelation, decomp, placement::LockPlacement};
    /// use relc_containers::ContainerKind;
    /// use relc_spec::Value;
    ///
    /// let d = decomp::library::stick(ContainerKind::HashMap, ContainerKind::TreeMap);
    /// let graph = ConcurrentRelation::new(d.clone(), LockPlacement::coarse(&d)?)?;
    /// let row = |s: i64, t: i64, w: i64| {
    ///     (
    ///         d.schema().tuple(&[("src", Value::from(s)), ("dst", Value::from(t))]).unwrap(),
    ///         d.schema().tuple(&[("weight", Value::from(w))]).unwrap(),
    ///     )
    /// };
    /// let inserted = graph.insert_all(&[row(1, 2, 10), row(1, 3, 11), row(1, 2, 99)])?;
    /// assert_eq!(inserted, vec![true, true, false]); // duplicate key loses
    /// assert_eq!(graph.len(), 2);
    /// let removed = graph.remove_all(&[row(1, 2, 0).0, row(1, 3, 0).0, row(9, 9, 0).0])?;
    /// assert_eq!(removed, vec![true, true, false]); // per-key outcomes
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As for [`Self::insert`], for any row; the batch has no effect.
    pub fn insert_all(&self, rows: &[(Tuple, Tuple)]) -> Result<Vec<bool>, CoreError> {
        OpCounters::bump(&self.ops.batch_rows, rows.len() as u64);
        self.run_transaction(true, |tx| tx.insert_all(rows))
    }

    /// Batched `remove r s` (§2) over many keys as one atomic, amortized
    /// transaction: the sequential fold of [`Self::remove`] over `keys`
    /// (duplicate keys remove once), with one plan fetch per instance and
    /// one globally sorted bulk lock sweep. Returns one outcome per key —
    /// whether that key's tuple existed and was removed (a later duplicate
    /// of a removed key reads `false`), mirroring [`Self::insert_all`]'s
    /// per-row results; `results.iter().filter(|b| **b).count()` is the
    /// removed total.
    ///
    /// # Errors
    ///
    /// As for [`Self::remove`], for any key; the batch has no effect.
    pub fn remove_all(&self, keys: &[Tuple]) -> Result<Vec<bool>, CoreError> {
        OpCounters::bump(&self.ops.batch_rows, keys.len() as u64);
        self.run_transaction(true, |tx| tx.remove_all(keys))
    }

    /// `remove r s` (§2): removes the tuple matching the key pattern `s`,
    /// returning how many tuples were removed (0 or 1, since `s` must be a
    /// key). Sugar for a one-operation [`Self::transaction`].
    ///
    /// # Errors
    ///
    /// * [`SpecError::RemoveNotByKey`] if `dom s` is not a key;
    /// * [`CoreError::NoValidPlan`] if the placement cannot locate tuples
    ///   for this shape of `s`.
    pub fn remove(&self, s: &Tuple) -> Result<usize, CoreError> {
        Ok(usize::from(self.remove_returning(s)?.is_some()))
    }

    /// Like [`Self::remove`], but returns the removed tuple.
    ///
    /// # Errors
    ///
    /// As for [`Self::remove`].
    pub fn remove_returning(&self, s: &Tuple) -> Result<Option<Tuple>, CoreError> {
        OpCounters::bump(&self.ops.removes, 1);
        self.run_transaction(true, |tx| tx.remove_returning(s))
    }

    /// `update r s t` (§2): replaces the unique tuple `u ⊇ s` with
    /// `u ⊕ t` (right-biased override), returning the replaced tuple, or
    /// `None` if no tuple extends `s`. `s` must be a key, and `dom t` must
    /// be disjoint from `dom s`. Sugar for a one-operation
    /// [`Self::transaction`].
    ///
    /// # Errors
    ///
    /// * [`SpecError::RemoveNotByKey`] if `dom s` is not a key;
    /// * [`SpecError::EmptyUpdate`] if `t` assigns nothing;
    /// * [`SpecError::UpdateOverlapsPattern`] if `t` assigns a column of
    ///   `dom s`;
    /// * [`CoreError::NoValidPlan`] if the placement cannot locate tuples
    ///   for this shape of `s`.
    ///
    /// # Examples
    ///
    /// ```
    /// use relc::{ConcurrentRelation, decomp, placement::LockPlacement};
    /// use relc_containers::ContainerKind;
    /// use relc_spec::Value;
    ///
    /// let d = decomp::library::stick(ContainerKind::HashMap, ContainerKind::TreeMap);
    /// let graph = ConcurrentRelation::new(d.clone(), LockPlacement::coarse(&d)?)?;
    /// let edge = d.schema().tuple(&[("src", Value::from(1)), ("dst", Value::from(2))])?;
    /// let w = |w: i64| d.schema().tuple(&[("weight", Value::from(w))]).unwrap();
    /// graph.insert(&edge, &w(42))?;
    /// let old = graph.update(&edge, &w(7))?.expect("edge exists");
    /// let wcol = d.schema().column("weight")?;
    /// assert_eq!(old.get(wcol), Some(&Value::from(42)));
    /// assert_eq!(graph.update(&edge, &w(8))?.unwrap().get(wcol), Some(&Value::from(7)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn update(&self, s: &Tuple, t: &Tuple) -> Result<Option<Tuple>, CoreError> {
        OpCounters::bump(&self.ops.updates, 1);
        self.run_transaction(true, |tx| tx.update(s, t))
    }

    /// `query r s C` (§2): the projection onto `cols` of all tuples
    /// extending `s`, deduplicated and sorted.
    ///
    /// Runs on the lock-free snapshot path: the result is a serializable
    /// read at the current commit timestamp — one consistent cut across
    /// every instance it reads — it acquires no locks, and it can neither
    /// block nor restart writers. Reads that must observe a transaction's
    /// own uncommitted writes use [`Transaction::query`] instead.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoValidPlan`] if no chain can bind this shape under the
    /// placement (e.g. it would have to scan a speculative edge).
    pub fn query(&self, s: &Tuple, cols: ColumnSet) -> Result<Vec<Tuple>, CoreError> {
        OpCounters::bump(&self.ops.queries, 1);
        self.open_reader(|snap| snap.query(s, cols))
    }

    /// Range query: the projection onto `cols` of all tuples extending
    /// `s` whose `range` column falls inside the interval, ordered by
    /// (range-column value, projection), deduplicated, truncated to
    /// `range.limit()` if set.
    ///
    /// Like [`Self::query`] this routes onto the lock-free snapshot
    /// path: one consistent cut, no locks, writers neither blocked nor
    /// restarted. When the planner can put an ordered container on the
    /// range column the traversal visits only the in-interval prefix
    /// (and stops at `limit` distinct results); otherwise it degrades to
    /// a filtered scan with identical results.
    ///
    /// # Errors
    ///
    /// As for [`Self::query`]. A range column already bound by `s` is
    /// not an error: the interval simply filters the bound value.
    pub fn query_range(
        &self,
        s: &Tuple,
        range: &RangePattern,
        cols: ColumnSet,
    ) -> Result<Vec<Tuple>, CoreError> {
        OpCounters::bump(&self.ops.range_queries, 1);
        self.open_reader(|snap| snap.query_range(s, range, cols))
    }

    /// Whether any tuple extends `s` — a short-circuiting existence check
    /// that stops at the first witness tuple instead of materializing,
    /// deduplicating, and sorting the full projection the way
    /// `query(s, ∅)` would.
    ///
    /// Runs on the lock-free snapshot path, like [`Self::query`].
    ///
    /// # Errors
    ///
    /// As for [`Self::query`].
    pub fn contains(&self, s: &Tuple) -> Result<bool, CoreError> {
        OpCounters::bump(&self.ops.contains_checks, 1);
        self.open_reader(|snap| snap.contains(s))
    }

    /// All tuples, sorted (a `query` with an empty pattern and all columns).
    ///
    /// # Errors
    ///
    /// As for [`Self::query`].
    pub fn snapshot(&self) -> Result<Vec<Tuple>, CoreError> {
        self.query(&Tuple::empty(), self.schema().columns())
    }

    /// Runs a lock-free read-only transaction: every read through the
    /// [`SnapshotReader`] observes one consistent snapshot of the
    /// relation — the state as of the commit timestamp captured at entry,
    /// on every instance — no matter how many writers commit while the
    /// closure runs. Readers acquire no locks, never restart, and never
    /// block or restart writers; they traverse the decomposition's
    /// version indexes under an epoch guard (see `mvcc.rs`).
    ///
    /// Snapshot reads are *serializable at their snapshot timestamp*:
    /// the closure's reads interleave with concurrent writers exactly as
    /// if the whole closure ran atomically at the moment of entry. The
    /// commit clock is process-global and a transaction spanning
    /// instances stamps all of them with one timestamp before releasing a
    /// lock, so no read sees one instance's half of it without the other's.
    ///
    /// # Examples
    ///
    /// ```
    /// use relc::{ConcurrentRelation, decomp, placement::LockPlacement};
    /// use relc_containers::ContainerKind;
    /// use relc_spec::Value;
    ///
    /// let d = decomp::library::stick(ContainerKind::HashMap, ContainerKind::TreeMap);
    /// let graph = ConcurrentRelation::new(d.clone(), LockPlacement::coarse(&d)?)?;
    /// let s = d.schema().tuple(&[("src", Value::from(1)), ("dst", Value::from(2))])?;
    /// let t = d.schema().tuple(&[("weight", Value::from(42))])?;
    /// graph.insert(&s, &t)?;
    /// let (all, n) = graph.read_transaction(|snap| {
    ///     let all = snap.snapshot()?;
    ///     // A second read in the same transaction sees the same state,
    ///     // even if a writer committed in between.
    ///     Ok::<_, relc::CoreError>((all.clone(), all.len()))
    /// })?;
    /// assert_eq!(n, 1);
    /// assert_eq!(all.len(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if called on a thread that is already inside a transaction
    /// on this relation (the same re-entrancy diagnosis as the locked
    /// single-shot operations, kept for API uniformity).
    pub fn read_transaction<R>(&self, f: impl FnOnce(&SnapshotReader<'_>) -> R) -> R {
        OpCounters::bump(&self.ops.read_transactions, 1);
        self.open_reader(f)
    }

    /// The body of [`Self::read_transaction`], shared with the
    /// single-read sugar (`query`/`query_range`/`contains`) so those
    /// count under their own op counters rather than as read
    /// transactions.
    fn open_reader<R>(&self, f: impl FnOnce(&SnapshotReader<'_>) -> R) -> R {
        let router = self.router();
        let _guard = ActiveTxnGuard::enter(router.instances);
        f(&SnapshotReader::open(router, &self.migration_epoch))
    }

    /// Structural verification of every quiescent instance: branch
    /// agreement, sharing, no exhausted instances, the MVCC version-chain
    /// invariants (no empty chain, strictly decreasing stamps, no tentative
    /// stamps, compaction to the retirement floor — see
    /// `mvcc::verify_versions`), and the routing invariant: each tuple
    /// lives in exactly the instance the router names. Returns the
    /// represented relation.
    ///
    /// # Errors
    ///
    /// A description of the violated invariant.
    pub fn verify(&self) -> Result<BTreeSet<Tuple>, String> {
        let router = self.router();
        let several = router.instances.len() > 1;
        let mut all = BTreeSet::new();
        for (i, shard) in router.instances.iter().enumerate() {
            let repr = shard.current_repr();
            let rows = mvcc::verify_versions(&repr.decomp, &repr.root, shard.snapshots())
                .and_then(|()| instance::verify_instance(&repr.decomp, &repr.root))
                .map_err(|e| {
                    if several {
                        format!("shard {i}: {e}")
                    } else {
                        e
                    }
                })?;
            for t in rows {
                let want = router.shard_of(&t);
                if want != i {
                    return Err(format!(
                        "misrouted tuple: shard {i} holds a tuple the router places in shard {want}"
                    ));
                }
                all.insert(t);
            }
        }
        Ok(all)
    }

    /// Total number of versions held across every version chain reachable
    /// from the roots, per entry of the logical decomposition — a fused
    /// entry's versions count once for its own edge and once for each tail
    /// edge it stands for (see [`crate::lower`]) — (test support for
    /// retirement regressions: after churn at quiescence this should return
    /// to one version per live entry — even while a snapshot reader on a
    /// *different* relation stays open, since registries are per relation).
    pub fn version_footprint(&self) -> usize {
        let footprint = |s: &ConcurrentRelation| {
            let repr = s.current_repr();
            mvcc::version_footprint(&repr.decomp, repr.physical.fusion(), &repr.root)
        };
        self.instances().iter().map(footprint).sum()
    }

    /// The snapshot-reader registry owned by this relation and shared by
    /// its instances (advanced: registering directly pins this relation's
    /// version retirement without opening a [`Self::read_transaction`];
    /// most callers never need this).
    pub fn snapshots(&self) -> &Arc<SnapshotRegistry> {
        &self.instances()[0].layout.snapshots
    }

    /// Live migration: rebuilds the relation under a new `(decomposition,
    /// placement)` pair and atomically cuts traffic over, as **one
    /// cutover** across every instance, without ever blocking readers and
    /// with writers paused only for the cutover itself.
    ///
    /// The protocol:
    ///
    /// 1. **Fence every instance, in ascending order.** Acquire every
    ///    stripe of every root-hosted edge exclusively (the write fence,
    ///    `with_write_fence` in `commit.rs`, which carries the argument and
    ///    the deadlock freedom against transactions spanning instances):
    ///    every locked operation holds a root-hosted lock for its whole
    ///    two-phase scope, so the sweep drains all in-flight writers and
    ///    blocks new ones.
    /// 2. **One cut.** Under the fences no writer can commit, so the whole
    ///    relation is frozen. Each instance's contents are read at an MVCC
    ///    cut (lock-free snapshot read) and loaded into a freshly built
    ///    tree for the new pair through batched `insert_all` (one root
    ///    sweep per batch, then the single-row insert per row); the new
    ///    trees are private until the swap, so the loads contend with
    ///    nobody.
    /// 3. **Swap window.** The migration epoch goes odd, every instance's
    ///    representation is swapped, the epoch goes even. Snapshot readers
    ///    spin past the odd window and re-validate their captured
    ///    representations after registering, so every reader holds either
    ///    all-old or all-new trees — and either set is the same frozen cut.
    /// 4. **Release** the fences.
    ///
    /// Snapshot readers registered before the swap pinned the old
    /// representations and keep reading them — frozen at their snapshot —
    /// until they drop; the old trees then retire through the epoch
    /// collector. Writers that raced the fence (captured an old
    /// representation but acquired their locks only after the swap) fail
    /// the commit-time representation check in the transaction loop, roll
    /// back under their own locks, and retry against the new tree.
    ///
    /// # Errors
    ///
    /// * [`CoreError::IllFormedPlacement`] if `placement` belongs to a
    ///   different decomposition, or if `decomp`'s schema differs from
    ///   this relation's (migration changes the representation, never the
    ///   logical relation);
    /// * any planner error from bulk-loading the new representation (e.g.
    ///   the new pair cannot plan full-tuple inserts); the relation is
    ///   left on the old representation, unchanged.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a transaction on this relation (the
    /// same re-entrancy diagnosis as every other entry point).
    pub fn migrate_to(
        &self,
        decomp: Arc<Decomposition>,
        placement: Arc<LockPlacement>,
    ) -> Result<(), CoreError> {
        if decomp.schema() != self.schema() {
            return Err(CoreError::IllFormedPlacement(
                "migration target has a different schema".into(),
            ));
        }
        let instances = self.instances();
        // One fresh (empty, still private) representation per instance;
        // built before fencing so placement validation fails fast.
        let new_reprs: Vec<Arc<Repr>> = instances
            .iter()
            .map(|_| Repr::new(Arc::clone(&decomp), Arc::clone(&placement)))
            .collect::<Result<_, _>>()?;
        commit::with_write_fence(instances, |reprs| {
            for ((shard, repr), new_repr) in instances.iter().zip(reprs).zip(&new_reprs) {
                let rows = shard.load_frozen_contents(repr, new_repr)?;
                debug_assert_eq!(rows, shard.len(), "quiescent cut must be exact");
            }
            // Publish the new representations *before* the fences release,
            // mirroring the commit path's publish-before-unlock ordering.
            self.migration_epoch.fetch_add(1, Ordering::AcqRel);
            for (shard, new_repr) in instances.iter().zip(new_reprs) {
                *shard.layout.repr.write().expect("repr lock") = new_repr;
            }
            self.migration_epoch.fetch_add(1, Ordering::AcqRel);
            self.migrations.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
    }

    /// Makes the relation durable, for both constructors' `open_durable`:
    /// opens one write-ahead log per instance in `dir` (created if absent)
    /// as `<stem>.wal` / `<stem>.ckpt`, recovers ([`Self::recover`]), and
    /// only then attaches the logs, so the recovery itself is never
    /// re-logged. The commit clock
    /// resumes strictly above the highest replayed stamp.
    pub(crate) fn open_logs(
        self,
        dir: &std::path::Path,
        opts: WalOptions,
        stem: impl Fn(usize) -> String,
    ) -> Result<(Self, RecoveryReport), CoreError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| CoreError::Durability(format!("create {}: {e}", dir.display())))?;
        let instances = self.instances();
        let wals: Vec<Wal> = (0..instances.len())
            .map(|i| {
                let stem = stem(i);
                Wal::open(
                    dir.join(format!("{stem}.wal")),
                    dir.join(format!("{stem}.ckpt")),
                    opts,
                )
            })
            .collect::<Result<_, _>>()?;
        let report = self.recover(&wals.iter().collect::<Vec<_>>(), true)?;
        for (shard, wal) in instances.iter().zip(wals) {
            assert!(shard.layout.wal.set(wal).is_ok(), "a log is attached once");
        }
        Ok((self, report))
    }

    /// The recovery routine, instance by instance: the checkpoint (when
    /// `from_checkpoint`; a live relation already holds it), then every log
    /// record above the replay floor. With more than one log, a record
    /// flagged cross-shard applies only if instance 0's log holds a
    /// durable commit **marker** for its timestamp, so a crash between two
    /// logs' fsyncs aborts the whole transaction on every instance (atomic
    /// cross-shard recovery).
    fn recover(&self, wals: &[&Wal], from_checkpoint: bool) -> Result<RecoveryReport, CoreError> {
        let markers = match wals {
            [first, _, ..] => Some(
                first
                    .read_records()?
                    .0
                    .iter()
                    .filter_map(|r| match r {
                        WalRecord::Marker { ts } => Some(*ts),
                        WalRecord::Commit { .. } => None,
                    })
                    .collect::<BTreeSet<u64>>(),
            ),
            _ => None,
        };
        let mut report = RecoveryReport::default();
        for (shard, wal) in self.instances().iter().zip(wals) {
            if from_checkpoint {
                report.merge(&shard.load_checkpoint(wal)?);
            }
            report.merge(&shard.replay_tail(wal, markers.as_ref())?);
        }
        Ok(report)
    }

    /// Re-runs log replay on a live durable relation — the crash-during-
    /// recovery path, exposed for differential testing: every record at
    /// or below the replay floor (everything already in memory) is
    /// skipped, so calling this right after `open_durable` — or twice in a
    /// row — changes nothing.
    ///
    /// # Errors
    ///
    /// [`CoreError::Durability`] if the relation has no WAL, or any
    /// replay error.
    pub fn replay_log(&self) -> Result<RecoveryReport, CoreError> {
        self.recover(&self.logs()?, false)
    }

    /// Every instance's write-ahead log.
    fn logs(&self) -> Result<Vec<&Wal>, CoreError> {
        self.instances()
            .iter()
            .map(ConcurrentRelation::wal)
            .collect::<Option<_>>()
            .ok_or_else(|| CoreError::Durability("relation has no write-ahead log".into()))
    }

    /// Checkpoints the relation at **one** MVCC cut: freezes every
    /// instance behind the write fence (every writer drained — the same
    /// machinery as [`Self::migrate_to`]), snapshots each instance's
    /// contents to its checkpoint sidecar (tmp + fsync + rename) at one cut
    /// timestamp, and truncates the logs — instance 0's, which holds the
    /// cross-shard commit markers, **last** — which releases committers
    /// still waiting on a group fsync: the cut covers their effects.
    /// Returns the number of rows checkpointed.
    ///
    /// # Errors
    ///
    /// [`CoreError::Durability`] if the relation has no WAL or on any
    /// I/O error; the relation's in-memory state is unaffected either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a transaction on this relation (the
    /// same re-entrancy diagnosis as every other entry point).
    pub fn checkpoint(&self) -> Result<usize, CoreError> {
        commit::checkpoint(self.instances(), &self.logs()?)
    }

    /// Group-commit batching counters of the relation's logs (`None`
    /// without them): appends, flushes and fsyncs summed over the logs,
    /// and the largest commits-per-fsync batch of any.
    pub fn wal_stats(&self) -> Option<relc_locks::GroupCommitStats> {
        let stats = self.logs().ok()?.into_iter().map(Wal::stats);
        stats.reduce(|mut agg, s| {
            agg.appends += s.appends;
            agg.flushes += s.flushes;
            agg.fsyncs += s.fsyncs;
            agg.max_batch = agg.max_batch.max(s.max_batch);
            agg
        })
    }
}

impl ConcurrentRelation {
    /// Synthesizes a relation from a decomposition and a placement.
    ///
    /// # Errors
    ///
    /// [`CoreError::IllFormedPlacement`] if the placement belongs to a
    /// different decomposition.
    pub fn new(
        decomp: Arc<Decomposition>,
        placement: Arc<LockPlacement>,
    ) -> Result<Self, CoreError> {
        Self::new_with_registry(decomp, placement, SnapshotRegistry::new())
    }

    /// Opens a **durable** relation backed by a write-ahead log in `dir`
    /// (created if absent), `relation.wal` with its checkpoint sidecar
    /// `relation.ckpt`: recovers whatever a previous process left there —
    /// checkpoint plus log tail, tolerating a torn tail — then attaches the
    /// log so every subsequent committed transaction appends one redo
    /// record, group-commit batched. The commit clock resumes strictly
    /// above the highest replayed stamp.
    ///
    /// # Errors
    ///
    /// Any I/O error, a corrupt checkpoint, or the usual construction
    /// errors of [`Self::new`].
    pub fn open_durable(
        decomp: Arc<Decomposition>,
        placement: Arc<LockPlacement>,
        dir: impl AsRef<std::path::Path>,
        opts: WalOptions,
    ) -> Result<(Self, RecoveryReport), CoreError> {
        Self::new(decomp, placement)?.open_logs(dir.as_ref(), opts, |_| "relation".into())
    }

    /// As [`Self::new`], but registering snapshot readers with the given
    /// registry — a sharded relation passes one registry to every shard so
    /// a reader spanning them establishes a single retirement floor.
    pub(crate) fn new_with_registry(
        decomp: Arc<Decomposition>,
        placement: Arc<LockPlacement>,
        snapshots: Arc<SnapshotRegistry>,
    ) -> Result<Self, CoreError> {
        Ok(Self::with_repr(Repr::new(decomp, placement)?, snapshots))
    }

    fn with_repr(repr: Arc<Repr>, snapshots: Arc<SnapshotRegistry>) -> Self {
        Relation::with_layout(Instance {
            schema: Arc::clone(repr.decomp.schema()),
            repr: RwLock::new(repr),
            stats: Arc::new(LockStats::new()),
            len: AtomicUsize::new(0),
            always_sort_locks: AtomicBool::new(false),
            id: NEXT_RELATION_ID.fetch_add(1, Ordering::Relaxed),
            snapshots,
            wal: OnceLock::new(),
        })
    }

    /// Pins the current representation. Cheap (one `RwLock` read + `Arc`
    /// clone); writers are only ever [`Relation::migrate_to`]'s pointer
    /// swap.
    pub(crate) fn current_repr(&self) -> Arc<Repr> {
        Arc::clone(&self.layout.repr.read().expect("repr lock"))
    }

    /// Whether `repr` is still the current representation: a pointer
    /// comparison under the read lock, with no reference-count traffic.
    pub(crate) fn is_current(&self, repr: &Repr) -> bool {
        std::ptr::eq(&**self.layout.repr.read().expect("repr lock"), repr)
    }

    /// Applies a committed transaction's net tuple-count change. Called
    /// while the transaction's locks are still held (release-ordered, so
    /// the count is visible to anything ordered after the commit).
    pub(crate) fn apply_len_delta(&self, delta: isize) {
        let len = &self.layout.len;
        match delta.cmp(&0) {
            std::cmp::Ordering::Greater => {
                len.fetch_add(delta as usize, Ordering::Release);
            }
            std::cmp::Ordering::Less => {
                len.fetch_sub(delta.unsigned_abs(), Ordering::Release);
            }
            std::cmp::Ordering::Equal => {}
        }
    }

    /// The statistics sink shared with this instance's engines.
    pub(crate) fn stats_arc(&self) -> &Arc<LockStats> {
        &self.layout.stats
    }

    /// Current value of the §5.2 sort-elision ablation knob.
    pub(crate) fn always_sort_locks(&self) -> bool {
        self.layout.always_sort_locks.load(Ordering::Relaxed)
    }

    /// The write-ahead log, once attached.
    pub(crate) fn wal(&self) -> Option<&Wal> {
        self.layout.wal.get()
    }

    /// The bulk-load step of [`Relation::migrate_to`], run under the
    /// fence: reads the frozen contents at one MVCC cut and loads them into
    /// `new_repr`'s (still private) tree. Returns the row count.
    fn load_frozen_contents(&self, repr: &Repr, new_repr: &Arc<Repr>) -> Result<usize, CoreError> {
        let rows = self.frozen_rows(repr)?;
        // Load through a scratch relation wrapping the new representation
        // so the batched insert path (plans, root sweeps, row inserts, MVCC
        // mirrors) is reused verbatim. Its locks are private
        // until the swap, so this contends with nobody; its bulk commits
        // stamp the new tree's version chains *before* the swap makes
        // them reachable, so any reader registered after the swap has a
        // snapshot at or above every bulk stamp.
        let scratch = Self::with_repr(Arc::clone(new_repr), Arc::clone(&self.layout.snapshots));
        scratch.bulk_load(&rows)?;
        Ok(rows.len())
    }

    /// Inserts full tuples in [`Relation::insert_all`] batches of 4096
    /// rows (the migration and checkpoint-recovery loads).
    fn bulk_load(&self, rows: &[Tuple]) -> Result<(), CoreError> {
        const CHUNK: usize = 4096;
        for chunk in rows.chunks(CHUNK) {
            let batch: Vec<(Tuple, Tuple)> =
                chunk.iter().map(|t| (t.clone(), Tuple::empty())).collect();
            self.insert_all(&batch)?;
        }
        Ok(())
    }

    /// Reads the instance's frozen contents at the current clock time.
    /// Only sound with the write fence held (every writer drained): shared
    /// by [`Self::load_frozen_contents`] and the checkpoint path.
    pub(crate) fn frozen_rows(&self, repr: &Repr) -> Result<Vec<Tuple>, CoreError> {
        let snap = relc_locks::commit_clock().now();
        let guard = relc_containers::epoch::pin();
        let all = self.schema().columns();
        // Prefer the MVCC snapshot traversal at the cut; placements that
        // cannot plan a full scan (e.g. all-speculative roots) fall back
        // to the direct structural walk, which under the fence reads the
        // same frozen state.
        let read = SnapshotRead::Query(all);
        match repr.snapshot_read(&self.layout.stats, &Tuple::empty(), read, snap, &guard) {
            Ok(rows) => Ok(rows),
            Err(CoreError::NoValidPlan(_)) => {
                Ok(instance::abstract_relation(&repr.decomp, &repr.root)
                    .into_iter()
                    .collect())
            }
            Err(e) => Err(e),
        }
    }

    /// Loads the checkpoint, if any, and raises the replay floor to its
    /// cut. The log is deliberately *not* attached yet, so the bulk load
    /// appends nothing.
    fn load_checkpoint(&self, wal: &Wal) -> Result<RecoveryReport, CoreError> {
        let mut report = RecoveryReport::default();
        if let Some((cut_ts, rows)) = wal.read_checkpoint()? {
            self.bulk_load(&rows)?;
            report.checkpoint_rows = rows.len();
            report.max_ts = cut_ts;
            wal.raise_applied_through(cut_ts);
        }
        Ok(report)
    }

    /// Replays every log record above the WAL's replay floor through the
    /// normal transaction path (one transaction per record, preserving
    /// the original atomicity), raises the floor to the highest replayed
    /// stamp, and re-seeds the commit clock strictly above it. Keying on
    /// the floor makes a second pass over the same tail a no-op —
    /// recovery idempotence (a crash *during* recovery simply re-runs
    /// it).
    fn replay_tail(
        &self,
        wal: &Wal,
        markers: Option<&BTreeSet<u64>>,
    ) -> Result<RecoveryReport, CoreError> {
        use crate::txn::RedoOp;
        let (mut records, torn_tail) = wal.read_records()?;
        records.sort_by_key(WalRecord::ts);
        let floor = wal.applied_through();
        let mut report = RecoveryReport {
            torn_tail,
            max_ts: floor,
            ..Default::default()
        };
        for rec in records {
            let WalRecord::Commit {
                ts,
                cross_shard,
                ops,
            } = rec
            else {
                continue;
            };
            if ts <= floor {
                continue;
            }
            // A cross-shard record without its durable marker is the
            // prefix of an atomic transaction whose commit point (the
            // marker fsync) never happened: skip it on every shard —
            // atomic abort.
            if cross_shard && markers.is_some_and(|m| !m.contains(&ts)) {
                continue;
            }
            self.transaction(|tx| {
                for op in &ops {
                    match op {
                        RedoOp::Insert(s, t) => {
                            tx.insert(s, t)?;
                        }
                        RedoOp::Remove(key) => {
                            tx.remove(key)?;
                        }
                        RedoOp::Update(s, t) => {
                            tx.update(s, t)?;
                        }
                    }
                }
                Ok(())
            })?;
            report.replayed += 1;
            report.max_ts = report.max_ts.max(ts);
        }
        wal.raise_applied_through(report.max_ts);
        relc_locks::commit_clock().advance_to(report.max_ts);
        Ok(report)
    }
}

/// A lock-free read-only view of a [`Relation`] at one commit timestamp,
/// handed to [`Relation::read_transaction`]'s closure. One snapshot
/// registration and one epoch guard span every instance: all reads —
/// routed to one instance or fanned out over all — resolve against the
/// version chains at the captured snapshot; committed writers later than
/// the snapshot are invisible, tentative (uncommitted) versions always
/// are.
///
/// While the reader is alive it is registered with the **relation's
/// own** [`relc_locks::SnapshotRegistry`], which stops this relation's
/// committers from truncating version history it still needs — but
/// leaves every other relation's retirement unpinned — and it holds an
/// epoch guard, which keeps already-truncated nodes it may be walking
/// alive until it drops.
pub struct SnapshotReader<'r> {
    router: Router<'r>,
    /// The representations pinned for this reader's lifetime, one per
    /// instance — validated against the migration epoch at open, so they
    /// are all pre-cutover or all post-cutover, never a mix. The held
    /// `Arc`s keep retired trees alive until the reader drops.
    reprs: PerInstance<Arc<Repr>>,
    snap: u64,
    guard: relc_containers::epoch::Guard,
    _reg: relc_locks::SnapshotGuard,
}

impl<'r> SnapshotReader<'r> {
    fn open(router: Router<'r>, migration_epoch: &AtomicU64) -> Self {
        // Capture every instance's representation and one registration,
        // then re-validate both the migration epoch and each captured
        // pointer: a live migration swaps the instances one by one, and a
        // capture that straddled the swap window could pair pre-cutover
        // trees with post-cutover ones — or register a snapshot that
        // postdates commits only the new trees contain. The epoch is odd
        // for exactly the swap window, so spinning past odd values and
        // re-checking afterwards guarantees an all-old or all-new set. The
        // held `Arc`s rule out ABA: an old representation cannot be freed
        // (and its address reused) while the reader still points at it.
        // Registering before the re-check (and before pinning) stops
        // committers from truncating history at or below `snap`; the
        // epoch guard keeps already-truncated nodes alive.
        let instances = router.instances;
        let (reprs, reg) = loop {
            let epoch = migration_epoch.load(Ordering::Acquire);
            if epoch & 1 == 1 {
                std::thread::yield_now();
                continue;
            }
            let reprs: PerInstance<_> = instances.iter().map(|s| s.current_repr()).collect();
            let reg = instances[0]
                .snapshots()
                .register(relc_locks::commit_clock());
            if migration_epoch.load(Ordering::Acquire) == epoch
                && reprs.iter().zip(instances).all(|(r, s)| s.is_current(r))
            {
                break (reprs, reg);
            }
        };
        SnapshotReader {
            router,
            reprs,
            snap: reg.snap(),
            guard: relc_containers::epoch::pin(),
            _reg: reg,
        }
    }

    /// The commit timestamp this reader observes, on every instance.
    pub fn snapshot_ts(&self) -> u64 {
        self.snap
    }

    /// One instance's contribution at this snapshot, traversing the
    /// pinned representation (a live migration never redirects an open
    /// reader).
    fn read(&self, i: usize, s: &Tuple, read: SnapshotRead<'_>) -> Result<Vec<Tuple>, CoreError> {
        let stats = &self.router.instances[i].layout.stats;
        self.reprs[i].snapshot_read(stats, s, read, self.snap, &self.guard)
    }

    /// `query r s C` (§2) at this snapshot: the projection onto `cols` of
    /// all tuples extending `s`, deduplicated and sorted — lock-free.
    ///
    /// # Errors
    ///
    /// As for [`Relation::query`] (the same compiled plans drive the
    /// snapshot traversal, so the same shapes are plannable).
    pub fn query(&self, s: &Tuple, cols: ColumnSet) -> Result<Vec<Tuple>, CoreError> {
        (self.router).fan_query(s, |i| self.read(i, s, SnapshotRead::Query(cols)))
    }

    /// Range query at this snapshot; see [`Relation::query_range`].
    ///
    /// # Errors
    ///
    /// As for [`SnapshotReader::query`].
    pub fn query_range(
        &self,
        s: &Tuple,
        range: &RangePattern,
        cols: ColumnSet,
    ) -> Result<Vec<Tuple>, CoreError> {
        (self.router).fan_query_range(s, range, cols, |i, range, cols| {
            self.read(i, s, SnapshotRead::Range(range, cols))
        })
    }

    /// Whether any tuple extends `s` at this snapshot — short-circuiting,
    /// lock-free.
    ///
    /// # Errors
    ///
    /// As for [`SnapshotReader::query`].
    pub fn contains(&self, s: &Tuple) -> Result<bool, CoreError> {
        (self.router).fan_contains(s, |i| {
            Ok(!self.read(i, s, SnapshotRead::Witness)?.is_empty())
        })
    }

    /// All tuples at this snapshot, sorted.
    ///
    /// # Errors
    ///
    /// As for [`SnapshotReader::query`].
    pub fn snapshot(&self) -> Result<Vec<Tuple>, CoreError> {
        let all = self.router.instances[0].schema().columns();
        self.query(&Tuple::empty(), all)
    }
}

impl fmt::Debug for SnapshotReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("snapshot_ts", &self.snap)
            .field("instances", &self.reprs.len())
            .finish()
    }
}

impl<L: Layout> fmt::Debug for Relation<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let repr = self.instances()[0].current_repr();
        f.debug_struct("Relation")
            .field("decomposition", &repr.decomp.describe())
            .field("placement", &repr.placement.name())
            .field("instances", &self.instances().len())
            .field("len", &self.len())
            .field("migrations", &self.migration_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::library::{dcache, diamond, kv, split, stick};
    use relc_containers::ContainerKind;
    use relc_spec::{OracleRelation, SpecError, Value};
    use std::collections::BTreeSet;

    fn graph_variants() -> Vec<(Arc<Decomposition>, Arc<LockPlacement>)> {
        let mut out = Vec::new();
        let sticks = [
            stick(ContainerKind::HashMap, ContainerKind::TreeMap),
            stick(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
            stick(ContainerKind::ConcurrentSkipListMap, ContainerKind::HashMap),
        ];
        let splits = [
            split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
            split(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap),
            split(ContainerKind::HashMap, ContainerKind::TreeMap),
        ];
        let diamonds = [
            diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
            diamond(ContainerKind::ConcurrentSkipListMap, ContainerKind::TreeMap),
        ];
        for d in sticks.iter().chain(&splits).chain(&diamonds) {
            out.push((d.clone(), LockPlacement::coarse(d).unwrap()));
            out.push((d.clone(), LockPlacement::fine(d).unwrap()));
            if let Ok(p) = LockPlacement::striped_root(d, 16) {
                out.push((d.clone(), p));
            }
            if let Ok(p) = LockPlacement::speculative(d, 8) {
                out.push((d.clone(), p));
            }
        }
        out
    }

    fn edge(d: &Decomposition, s: i64, dst: i64) -> Tuple {
        d.schema()
            .tuple(&[("src", Value::from(s)), ("dst", Value::from(dst))])
            .unwrap()
    }

    fn weight(d: &Decomposition, w: i64) -> Tuple {
        d.schema().tuple(&[("weight", Value::from(w))]).unwrap()
    }

    #[test]
    fn single_threaded_oracle_equivalence_across_variants() {
        // Pseudo-random op mix replayed against every representation and
        // the oracle; every intermediate observable must agree.
        for (d, p) in graph_variants() {
            let name = format!("{} / {}", d.describe(), p.name());
            let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
            let oracle = OracleRelation::empty(d.schema().clone());
            let mut x = 0x12345678u64;
            let mut step = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let dw = d.schema().column_set(&["dst", "weight"]).unwrap();
            let sw = d.schema().column_set(&["src", "weight"]).unwrap();
            for _ in 0..300 {
                let s = (step() % 6) as i64;
                let t = (step() % 6) as i64;
                let w = (step() % 4) as i64;
                match step() % 4 {
                    0 => {
                        let got = rel.insert(&edge(&d, s, t), &weight(&d, w)).unwrap();
                        let want = oracle.insert(&edge(&d, s, t), &weight(&d, w)).unwrap();
                        assert_eq!(got, want, "insert on {name}");
                    }
                    1 => {
                        let got = rel.remove(&edge(&d, s, t)).unwrap();
                        let want = oracle.remove(&edge(&d, s, t));
                        assert_eq!(got, want, "remove on {name}");
                    }
                    2 => {
                        let pat = d.schema().tuple(&[("src", Value::from(s))]).unwrap();
                        match rel.query(&pat, dw) {
                            Ok(got) => assert_eq!(got, oracle.query(&pat, dw), "succ on {name}"),
                            Err(CoreError::NoValidPlan(_)) => {}
                            Err(e) => panic!("unexpected error on {name}: {e}"),
                        }
                    }
                    _ => {
                        let pat = d.schema().tuple(&[("dst", Value::from(t))]).unwrap();
                        match rel.query(&pat, sw) {
                            Ok(got) => assert_eq!(got, oracle.query(&pat, sw), "pred on {name}"),
                            Err(CoreError::NoValidPlan(_)) => {}
                            Err(e) => panic!("unexpected error on {name}: {e}"),
                        }
                    }
                }
                assert_eq!(rel.len(), oracle.len(), "len on {name}");
            }
            // Structural invariants + final contents.
            let verified = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
            let want: std::collections::BTreeSet<Tuple> = oracle.snapshot().into_iter().collect();
            assert_eq!(verified, want, "final contents on {name}");
        }
    }

    #[test]
    fn put_if_absent_semantics() {
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        assert!(rel.insert(&edge(&d, 1, 2), &weight(&d, 42)).unwrap());
        // §2: a second insert with the same src/dst leaves the relation
        // unchanged, even with a different weight.
        assert!(!rel.insert(&edge(&d, 1, 2), &weight(&d, 101)).unwrap());
        let all = rel.snapshot().unwrap();
        assert_eq!(all.len(), 1);
        let wcol = d.schema().column("weight").unwrap();
        assert_eq!(all[0].get(wcol), Some(&Value::from(42)));
    }

    #[test]
    fn remove_cleans_up_empty_substructures() {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        rel.insert(&edge(&d, 1, 2), &weight(&d, 10)).unwrap();
        rel.insert(&edge(&d, 1, 3), &weight(&d, 11)).unwrap();
        assert_eq!(rel.remove(&edge(&d, 1, 2)).unwrap(), 1);
        rel.verify().unwrap(); // no exhausted instances may remain
        assert_eq!(rel.remove(&edge(&d, 1, 3)).unwrap(), 1);
        rel.verify().unwrap();
        assert!(rel.is_empty());
        assert_eq!(rel.remove(&edge(&d, 1, 3)).unwrap(), 0);
    }

    #[test]
    fn query_by_full_key_and_projections() {
        let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        rel.insert(&edge(&d, 1, 2), &weight(&d, 10)).unwrap();
        rel.insert(&edge(&d, 2, 2), &weight(&d, 20)).unwrap();
        let wcols = d.schema().column_set(&["weight"]).unwrap();
        let got = rel.query(&edge(&d, 1, 2), wcols).unwrap();
        assert_eq!(got, vec![weight(&d, 10)]);
        // Predecessors of 2: two edges.
        let pat = d.schema().tuple(&[("dst", Value::from(2))]).unwrap();
        let sc = d.schema().column_set(&["src"]).unwrap();
        assert_eq!(rel.query(&pat, sc).unwrap().len(), 2);
    }

    #[test]
    fn dcache_relation_basics() {
        let d = dcache();
        let p = LockPlacement::fine(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        let key = |par: i64, name: &str| {
            d.schema()
                .tuple(&[("parent", Value::from(par)), ("name", Value::from(name))])
                .unwrap()
        };
        let child = |c: i64| d.schema().tuple(&[("child", Value::from(c))]).unwrap();
        // Fig. 2(b)'s three entries.
        rel.insert(&key(1, "a"), &child(2)).unwrap();
        rel.insert(&key(2, "b"), &child(3)).unwrap();
        rel.insert(&key(2, "c"), &child(4)).unwrap();
        // List directory 2.
        let pat = d.schema().tuple(&[("parent", Value::from(2))]).unwrap();
        let nc = d.schema().column_set(&["name", "child"]).unwrap();
        assert_eq!(rel.query(&pat, nc).unwrap().len(), 2);
        // Point lookup through the hash index.
        let cc = d.schema().column_set(&["child"]).unwrap();
        assert_eq!(rel.query(&key(2, "c"), cc).unwrap(), vec![child(4)]);
        rel.verify().unwrap();
        // Unlink and re-check.
        assert_eq!(rel.remove(&key(2, "b")).unwrap(), 1);
        rel.verify().unwrap();
        assert_eq!(rel.query(&pat, nc).unwrap().len(), 1);
    }

    #[test]
    fn kv_put_if_absent_is_paper_example() {
        let d = kv(ContainerKind::ConcurrentHashMap);
        let p = LockPlacement::striped_root(&d, 16).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        let k = |k: i64| d.schema().tuple(&[("key", Value::from(k))]).unwrap();
        let v = |v: &str| d.schema().tuple(&[("value", Value::from(v))]).unwrap();
        assert!(rel.insert(&k(1), &v("one")).unwrap());
        assert!(!rel.insert(&k(1), &v("uno")).unwrap());
        assert_eq!(rel.remove(&k(1)).unwrap(), 1);
        assert!(rel.insert(&k(1), &v("uno")).unwrap());
    }

    #[test]
    fn overlapping_insert_domains_rejected() {
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        let s = d
            .schema()
            .tuple(&[("src", Value::from(1)), ("dst", Value::from(2))])
            .unwrap();
        let t = d
            .schema()
            .tuple(&[("dst", Value::from(2)), ("weight", Value::from(3))])
            .unwrap();
        assert!(matches!(
            rel.insert(&s, &t),
            Err(CoreError::Spec(SpecError::OverlappingInsertDomains { .. }))
        ));
        // Partial tuples are rejected too.
        let s1 = d.schema().tuple(&[("src", Value::from(1))]).unwrap();
        let t1 = d.schema().tuple(&[("weight", Value::from(3))]).unwrap();
        assert!(matches!(
            rel.insert(&s1, &t1),
            Err(CoreError::Spec(SpecError::NotAValuation { .. }))
        ));
    }

    #[test]
    fn remove_requires_key_pattern() {
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        let pat = d.schema().tuple(&[("dst", Value::from(2))]).unwrap();
        assert!(matches!(
            rel.remove(&pat),
            Err(CoreError::Spec(SpecError::RemoveNotByKey { .. }))
        ));
    }

    #[test]
    fn contains_is_projectionless_query() {
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        rel.insert(&edge(&d, 1, 2), &weight(&d, 7)).unwrap();
        assert!(rel.contains(&edge(&d, 1, 2)).unwrap());
        assert!(!rel.contains(&edge(&d, 1, 3)).unwrap());
        // Partial patterns work too.
        let src1 = d.schema().tuple(&[("src", Value::from(1))]).unwrap();
        assert!(rel.contains(&src1).unwrap());
        // Empty pattern: is the relation nonempty?
        assert!(rel.contains(&Tuple::empty()).unwrap());
        rel.remove(&edge(&d, 1, 2)).unwrap();
        assert!(!rel.contains(&Tuple::empty()).unwrap());
    }

    #[test]
    fn update_matches_oracle_across_variants() {
        // Differential test of §2 update against the oracle, over every
        // representation: pseudo-random insert/update/remove/query mix.
        for (d, p) in graph_variants() {
            let name = format!("{} / {}", d.describe(), p.name());
            let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
            let oracle = OracleRelation::empty(d.schema().clone());
            let mut x = 0xdead_beefu64;
            let mut step = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for _ in 0..200 {
                let s = (step() % 5) as i64;
                let t = (step() % 5) as i64;
                let w = (step() % 4) as i64;
                match step() % 3 {
                    0 => {
                        let got = rel.insert(&edge(&d, s, t), &weight(&d, w)).unwrap();
                        let want = oracle.insert(&edge(&d, s, t), &weight(&d, w)).unwrap();
                        assert_eq!(got, want, "insert on {name}");
                    }
                    1 => {
                        let got = rel.update(&edge(&d, s, t), &weight(&d, w)).unwrap();
                        let want = oracle.update(&edge(&d, s, t), &weight(&d, w)).unwrap();
                        assert_eq!(got, want, "update on {name}");
                    }
                    _ => {
                        let got = rel.remove(&edge(&d, s, t)).unwrap();
                        let want = oracle.remove(&edge(&d, s, t));
                        assert_eq!(got, want, "remove on {name}");
                    }
                }
                assert_eq!(rel.len(), oracle.len(), "len on {name}");
            }
            let verified = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
            let want: std::collections::BTreeSet<Tuple> = oracle.snapshot().into_iter().collect();
            assert_eq!(verified, want, "final contents on {name}");
        }
    }

    #[test]
    fn update_validates_arguments() {
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        rel.insert(&edge(&d, 1, 2), &weight(&d, 5)).unwrap();
        // Non-key pattern.
        let pat = d.schema().tuple(&[("src", Value::from(1))]).unwrap();
        assert!(matches!(
            rel.update(&pat, &weight(&d, 9)),
            Err(CoreError::Spec(SpecError::RemoveNotByKey { .. }))
        ));
        // Assignment overlapping the pattern.
        let dst2 = d.schema().tuple(&[("dst", Value::from(3))]).unwrap();
        assert!(matches!(
            rel.update(&edge(&d, 1, 2), &dst2),
            Err(CoreError::Spec(SpecError::UpdateOverlapsPattern { .. }))
        ));
        // Empty assignment.
        assert!(matches!(
            rel.update(&edge(&d, 1, 2), &Tuple::empty()),
            Err(CoreError::Spec(SpecError::EmptyUpdate))
        ));
        // Missing tuple: None, relation unchanged.
        assert_eq!(rel.update(&edge(&d, 9, 9), &weight(&d, 1)).unwrap(), None);
        assert_eq!(rel.len(), 1);
        rel.verify().unwrap();
    }

    #[test]
    fn multi_op_transaction_commits_atomically() {
        for (d, p) in graph_variants() {
            let name = format!("{} / {}", d.describe(), p.name());
            let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
            rel.insert(&edge(&d, 1, 2), &weight(&d, 100)).unwrap();
            rel.insert(&edge(&d, 3, 4), &weight(&d, 0)).unwrap();
            // Transfer 30 from (1,2) to (3,4): two updates + a readback in
            // one two-phase scope.
            let wcol = d.schema().column("weight").unwrap();
            let moved = rel
                .transaction(|tx| {
                    let from = tx
                        .update(&edge(&d, 1, 2), &weight(&d, 70))?
                        .expect("source edge exists");
                    let old = from.get(wcol).and_then(|v| v.as_int()).unwrap();
                    let to = tx
                        .update(&edge(&d, 3, 4), &weight(&d, 30))?
                        .expect("target edge exists");
                    assert_eq!(to.get(wcol), Some(&Value::from(0)), "{name}");
                    // Read-your-writes: the new values are visible inside
                    // the transaction.
                    let wc = tx.schema().column_set(&["weight"]).unwrap();
                    assert_eq!(
                        tx.query(&edge(&d, 1, 2), wc)?,
                        vec![weight(&d, 70)],
                        "{name}"
                    );
                    Ok(old)
                })
                .unwrap();
            assert_eq!(moved, 100, "{name}");
            assert_eq!(rel.len(), 2, "{name}");
            let wc = d.schema().column_set(&["weight"]).unwrap();
            assert_eq!(
                rel.query(&edge(&d, 1, 2), wc).unwrap(),
                vec![weight(&d, 70)]
            );
            assert_eq!(
                rel.query(&edge(&d, 3, 4), wc).unwrap(),
                vec![weight(&d, 30)]
            );
            rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
            // Commits are counted by the engine hooks.
            assert!(rel.lock_stats().commits >= 3, "{name}");
        }
    }

    /// Every link of the relation's instance graph, by address: (parent,
    /// edge, entry key, child). A shared node shows up once per parent,
    /// each time at the same child address.
    fn instance_links(rel: &ConcurrentRelation) -> BTreeSet<(usize, usize, Tuple, usize)> {
        let repr = rel.current_repr();
        let mut links = BTreeSet::new();
        let mut stack = vec![Arc::clone(repr.root())];
        while let Some(inst) = stack.pop() {
            for &e in &repr.decomp.node(inst.node()).outgoing {
                let all = std::ops::Bound::Unbounded;
                inst.scan(&repr.decomp, e, all, all, &mut |k, child| {
                    // A fused entry's row is a value: its key is the link.
                    let to = child.node().map_or(0, |c| Arc::as_ptr(c) as usize);
                    let from = Arc::as_ptr(&inst) as usize;
                    if links.insert((from, e.index(), k.clone(), to)) {
                        stack.extend(child.node().cloned());
                    }
                    std::ops::ControlFlow::Continue(())
                });
            }
        }
        links
    }

    /// Every entry of every version index reachable from the root, by
    /// instance address and edge (a one-chain index's entry has no key).
    /// An entry left behind with only a tombstone shows up only here.
    fn index_entries(rel: &ConcurrentRelation) -> BTreeSet<(usize, usize, Option<Tuple>)> {
        let repr = rel.current_repr();
        let guard = relc_containers::epoch::pin();
        let mut entries = BTreeSet::new();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![Arc::clone(repr.root())];
        while let Some(inst) = stack.pop() {
            if !seen.insert(Arc::as_ptr(&inst)) {
                continue;
            }
            let from = Arc::as_ptr(&inst) as usize;
            for &e in &repr.decomp.node(inst.node()).outgoing {
                inst.versions(&repr.decomp, e).chains(&guard, |k, _| {
                    entries.insert((from, e.index(), k.cloned()));
                });
                let all = std::ops::Bound::Unbounded;
                inst.scan(&repr.decomp, e, all, all, &mut |_, child| {
                    stack.extend(child.node().cloned());
                    std::ops::ControlFlow::Continue(())
                });
            }
        }
        entries
    }

    /// Holding `present = (s, t)`, aborts a transaction that inserts
    /// `fresh`, updates `present` to `t2` and removes it: the rollback must
    /// be exact down to the objects — the same instances re-linked on every
    /// path (so a shared node is restored shared, not rebuilt per parent),
    /// the same version count, and no index entry the attempt created.
    fn check_abort_restores_instances(
        name: &str,
        rel: &ConcurrentRelation,
        present: (&Tuple, &Tuple),
        fresh: (&Tuple, &Tuple),
        t2: &Tuple,
    ) {
        rel.insert(present.0, present.1).unwrap();
        let before = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let links = instance_links(rel);
        let footprint = rel.version_footprint();
        let entries = index_entries(rel);
        let err = rel
            .transaction(|tx| -> Result<(), crate::TxnError> {
                // Apply all three mutation kinds, then abort.
                assert!(tx.insert(fresh.0, fresh.1)?);
                assert!(tx.update(present.0, t2)?.is_some());
                assert_eq!(tx.remove(present.0)?, 1);
                Err(tx.abort("insufficient funds"))
            })
            .unwrap_err();
        assert!(
            matches!(err, CoreError::TransactionAborted(ref m) if m.contains("funds")),
            "{name}: {err}"
        );
        assert_eq!(instance_links(rel), links, "{name}: same instances");
        assert_eq!(rel.version_footprint(), footprint, "{name}: same versions");
        assert_eq!(index_entries(rel), entries, "{name}: same index entries");
        let after = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(after, before, "{name}: rollback must be exact");
        assert_eq!(rel.len(), 1, "{name}");
        // The abort is an application rollback, not a conflict retry.
        let stats = rel.lock_stats();
        assert!(stats.user_rollbacks >= 1, "{name}: {stats}");
    }

    /// An index entry with no version at all — what a rollback that forgot
    /// to unlink an entry it emptied leaves — fails `verify`, on every
    /// multi-entry shape: sorted (`TreeMap`, `ConcurrentSkipListMap`),
    /// hashed (`HashMap`, `ConcurrentHashMap`), at the root and below it.
    /// `verify` sweeps every index, and a sweep unlinks such an entry as
    /// dead, so the check has to come first.
    #[test]
    fn verify_fails_on_an_index_entry_with_an_empty_chain() {
        for d in [
            stick(ContainerKind::TreeMap, ContainerKind::HashMap),
            stick(ContainerKind::ConcurrentSkipListMap, ContainerKind::TreeMap),
            stick(ContainerKind::HashMap, ContainerKind::ConcurrentSkipListMap),
            stick(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
        ] {
            for below in [false, true] {
                let name = format!("{} / below the root: {below}", d.describe());
                let rel =
                    ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap()).unwrap();
                rel.insert(&edge(&d, 1, 2), &weight(&d, 3)).unwrap();
                rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
                let repr = rel.current_repr();
                let root_edge = repr.decomp.node(repr.decomp.root()).outgoing[0];
                let (host, e, key) = if below {
                    let child = repr
                        .root()
                        .lookup(
                            &repr.decomp,
                            root_edge,
                            &edge(&d, 1, 0).project(repr.decomp.edge(root_edge).cols),
                        )
                        .and_then(|c| c.node().cloned())
                        .expect("the row's source instance");
                    let e = repr.decomp.node(child.node()).outgoing[0];
                    (child, e, edge(&d, 1, 9).project(repr.decomp.edge(e).cols))
                } else {
                    let key = edge(&d, 9, 0).project(repr.decomp.edge(root_edge).cols);
                    (Arc::clone(repr.root()), root_edge, key)
                };
                host.versions(&repr.decomp, e).plant_empty_entry(&key);
                let err = rel.verify().expect_err(&name);
                assert!(err.contains("is empty"), "{name}: {err}");
            }
        }
    }

    /// Rollback is dropping the attempt's versions on every kind: the
    /// graph variants cover the hashed kinds, `ConcurrentSkipListMap` and
    /// `TreeMap`; a `SplayTreeMap` root and `CopyOnWriteArrayList` edges,
    /// under every placement they admit, cover the rest.
    #[test]
    fn aborted_transaction_rolls_back_every_effect() {
        let sorted_kinds = [
            stick(
                ContainerKind::SplayTreeMap,
                ContainerKind::CopyOnWriteArrayList,
            ),
            split(ContainerKind::CopyOnWriteArrayList, ContainerKind::TreeMap),
        ];
        let placements = sorted_kinds.iter().flat_map(|d| {
            [
                LockPlacement::coarse(d),
                LockPlacement::fine(d),
                LockPlacement::striped_root(d, 16),
                LockPlacement::speculative(d, 8),
            ]
            .into_iter()
            .filter_map(|p| Some((d.clone(), p.ok()?)))
        });
        for (d, p) in graph_variants().into_iter().chain(placements) {
            let name = format!("{} / {}", d.describe(), p.name());
            let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
            check_abort_restores_instances(
                &name,
                &rel,
                (&edge(&d, 1, 2), &weight(&d, 100)),
                (&edge(&d, 5, 6), &weight(&d, 1)),
                &weight(&d, 55),
            );
        }
        let d = dcache();
        let tuple = |cols: &[(&str, i64)]| {
            let fields: Vec<_> = cols.iter().map(|&(c, v)| (c, Value::from(v))).collect();
            d.schema().tuple(&fields).unwrap()
        };
        for p in [
            LockPlacement::coarse(&d).unwrap(),
            LockPlacement::fine(&d).unwrap(),
        ] {
            let name = format!("dcache / {}", p.name());
            let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
            check_abort_restores_instances(
                &name,
                &rel,
                (
                    &tuple(&[("parent", 1), ("name", 2)]),
                    &tuple(&[("child", 3)]),
                ),
                (
                    &tuple(&[("parent", 1), ("name", 5)]),
                    &tuple(&[("child", 6)]),
                ),
                &tuple(&[("child", 7)]),
            );
        }
    }

    #[test]
    fn transaction_read_then_write_upgrades_in_place() {
        // A query inside a transaction takes shared locks; the following
        // insert upgrades them. With no other reader the upgrade is
        // granted in place: the closure runs once and nothing restarts.
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        let dw = d.schema().column_set(&["dst", "weight"]).unwrap();
        let restarts = rel.lock_stats().restarts;
        let runs = std::cell::Cell::new(0u32);
        let inserted = rel
            .transaction(|tx| {
                runs.set(runs.get() + 1);
                let succ = tx.query(&d.schema().tuple(&[("src", Value::from(1))]).unwrap(), dw)?;
                assert!(succ.is_empty());
                tx.insert(&edge(&d, 1, 2), &weight(&d, 1))
            })
            .unwrap();
        assert!(inserted);
        assert_eq!(runs.get(), 1);
        assert_eq!(rel.lock_stats().restarts - restarts, 0);
        assert_eq!(rel.len(), 1);
        rel.verify().unwrap();
    }

    #[test]
    fn two_readers_upgrading_one_key_restart_exactly_one() {
        // Two transfers query the same accounts and meet at a barrier
        // while both hold them shared, then update them. The first upgrade
        // cannot be granted in place beside the other reader: that
        // transaction restarts. Once it has rolled back, the second is the
        // sole reader and upgrades in place; the first re-runs after it.
        use std::cell::Cell;
        use std::sync::atomic::{AtomicBool, AtomicU32};
        use std::sync::mpsc::RecvTimeoutError;
        use std::sync::Barrier;
        use std::time::Duration;

        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        let (a, b) = (edge(&d, 1, 1), edge(&d, 1, 2));
        rel.insert(&a, &weight(&d, 100)).unwrap();
        rel.insert(&b, &weight(&d, 0)).unwrap();
        let restarts = rel.lock_stats().restarts;
        let wcol = d.schema().column_set(&["weight"]).unwrap();
        let w = d.schema().column("weight").unwrap();
        let balance = move |rows: Vec<Tuple>| rows[0].get(w).and_then(Value::as_int).unwrap();

        let (done, finished) = std::sync::mpsc::channel();
        let watched = std::thread::spawn(move || {
            let first_runs = AtomicU32::new(0);
            let second_committed = AtomicBool::new(false);
            let barrier = Barrier::new(2);
            let spin_until = |cond: &dyn Fn() -> bool| {
                while !cond() {
                    std::thread::yield_now();
                }
            };
            // Reads both balances, meets the other transfer at the barrier
            // on its first run, then moves 10 from `a` to `b`.
            let transfer = |tx: &mut Transaction<'_>, run: u32, before_update: &dyn Fn()| {
                let x = balance(tx.query(&a, wcol)?);
                let y = balance(tx.query(&b, wcol)?);
                if run == 1 {
                    barrier.wait();
                }
                before_update();
                tx.update(&a, &weight(&d, x - 10))?;
                tx.update(&b, &weight(&d, y + 10))?;
                Ok(())
            };
            let second_runs = std::thread::scope(|s| {
                s.spawn(|| {
                    rel.transaction(|tx| {
                        let run = first_runs.fetch_add(1, Ordering::AcqRel) + 1;
                        if run > 1 {
                            // An exclusive request now would turn the
                            // second's upgrade away (writer preference).
                            spin_until(&|| second_committed.load(Ordering::Acquire));
                        }
                        transfer(tx, run, &|| ())
                    })
                    .unwrap()
                });
                let runs = Cell::new(0u32);
                rel.transaction(|tx| {
                    runs.set(runs.get() + 1);
                    transfer(tx, runs.get(), &|| {
                        spin_until(&|| first_runs.load(Ordering::Acquire) > 1)
                    })
                })
                .unwrap();
                second_committed.store(true, Ordering::Release);
                runs.get()
            });
            let _ = done.send((first_runs.into_inner(), second_runs, rel, a, b));
        });
        let outcome = finished.recv_timeout(Duration::from_secs(60));
        assert!(
            !matches!(outcome, Err(RecvTimeoutError::Timeout)),
            "the two transfers hung"
        );
        watched.join().unwrap();
        let (first_runs, second_runs, rel, a, b) = outcome.unwrap();
        assert_eq!((first_runs, second_runs), (2, 1));
        assert_eq!(rel.lock_stats().restarts - restarts, 1);
        let x = balance(rel.query(&a, wcol).unwrap());
        let y = balance(rel.query(&b, wcol).unwrap());
        assert_eq!((x, y), (80, 20), "both transfers applied once");
        rel.verify().unwrap();
    }

    #[test]
    fn plans_stay_with_the_representation_that_compiled_them() {
        // A reader pinning the representation a migration swaps out keeps
        // that representation's plans; the new one compiles its own.
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let rel = ConcurrentRelation::new(d.clone(), LockPlacement::coarse(&d).unwrap()).unwrap();
        rel.insert(&edge(&d, 1, 2), &weight(&d, 1)).unwrap();
        let all = d.schema().columns();
        let shapes: Vec<ColumnSet> = [&["src"][..], &["dst"], &["src", "dst"]]
            .iter()
            .map(|cols| d.schema().column_set(cols).unwrap())
            .collect();
        let old = rel.current_repr();
        let old_planner = old.physical.clone();
        let cached: Vec<_> = shapes
            .iter()
            .map(|&b| old.query_plan(b, all).unwrap())
            .collect();

        let d2 = split(ContainerKind::HashMap, ContainerKind::TreeMap);
        rel.migrate_to(d2.clone(), LockPlacement::coarse(&d2).unwrap())
            .unwrap();
        let new = rel.current_repr();
        assert!(!Arc::ptr_eq(&old, &new));
        let mut differ = false;
        for (&b, before) in shapes.iter().zip(&cached) {
            let was = old.query_plan(b, all).unwrap();
            assert!(Arc::ptr_eq(&was, before), "old plan still cached");
            assert_eq!(was.steps, old_planner.plan_query(b, all).unwrap().steps);
            let now = new.query_plan(b, all).unwrap();
            let physical = &rel.current_repr().physical;
            assert_eq!(now.steps, physical.plan_query(b, all).unwrap().steps);
            differ |= was.steps != now.steps;
        }
        assert!(differ, "stick and split plan some shape differently");
    }

    #[test]
    #[should_panic(expected = "re-entrant")]
    fn nested_single_shot_inside_transaction_panics_not_deadlocks() {
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        rel.insert(&edge(&d, 1, 2), &weight(&d, 1)).unwrap();
        let _ = rel.transaction(|tx| {
            tx.contains(&edge(&d, 1, 2))?;
            // Bypassing the transaction handle would self-deadlock on the
            // locks `tx` holds; the guard panics instead.
            let _ = rel.remove(&edge(&d, 1, 2));
            Ok(())
        });
    }

    #[test]
    fn lock_stats_accumulate() {
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        rel.insert(&edge(&d, 1, 2), &weight(&d, 1)).unwrap();
        let stats = rel.lock_stats();
        assert!(stats.acquisitions >= 1, "{stats}");
    }
}
