//! Sharded relations: one logical relation hash-partitioned across
//! independent decomposition instances.
//!
//! The §5 lock placements make a single decomposition instance scale to
//! fine-grained locking, but every write still funnels through one root
//! node, whose lock (or stripe array) bounds multi-core write throughput.
//! A [`ShardedRelation`] removes that bound by partitioning the tuple
//! space across `N` complete [`ConcurrentRelation`] instances — each with
//! its own root, plan caches, and lock engine traffic — by a **seeded
//! hash of the canonical key columns** ([`RelationSchema::canonical_key`]):
//! a tuple lives in shard `h(π_key(t)) mod N`, so disjoint-key writes land
//! on disjoint roots and proceed with no shared state at all.
//!
//! # Routing
//!
//! An operation whose pattern binds every canonical-key column is
//! **routed**: it touches exactly one shard and costs the same as on a
//! single instance. Patterns that bind fewer columns (partial-pattern
//! queries, alternate-key removes) **fan out** across shards; single-shot
//! fan-out reads capture one snapshot timestamp from the process-global
//! commit clock and read every shard at it (see
//! [`ShardedRelation::read_transaction`]), so the combination is a single
//! consistent cut — serializable, with no locks taken. Reads inside a
//! [`ShardedRelation::transaction`] additionally lock every visited shard
//! (they observe the transaction's own uncommitted writes).
//!
//! The router hash is deliberately **decorrelated** from the hashes below
//! it ([`Tuple::stable_hash_of_seeded`] with the router's own seed): the
//! lock-stripe hash and the in-container bucket hashes see the same key
//! bits, and if the router's partition were a function of the same stream,
//! every relation shard's keys would collapse into a fraction of each
//! container's buckets/stripes one level down.
//!
//! # Cross-shard transactions
//!
//! [`ShardedRelation::transaction`] generalizes the single-instance
//! transaction layer: a [`ShardedTransaction`] lazily opens one
//! [`Transaction`] per touched shard, routes each operation, and holds
//! **every** shard's locks until the closure returns (the two-phase
//! discipline spans shards). The attempt then ends through the same
//! commit protocol as a single-instance one (`commit.rs`), applied to
//! every touched shard: one stamp publishes all of them, and an abort
//! rolls back *every* shard's write journal before a single lock is
//! released — no observer can see shard A's effects without shard B's.
//!
//! Deadlock freedom extends the §5.1 argument lexicographically: the
//! global coordinate of a lock is `(shard index, lock token)`. A
//! transaction may block only while acquiring in its current **maximum**
//! shard; as soon as an operation returns to a lower-indexed shard, that
//! shard's engine is demoted to try-only acquisition
//! ([`relc_locks::TwoPhaseEngine::set_try_only`]) — on contention the
//! whole cross-shard transaction rolls back and retries with backoff
//! instead of blocking, so no wait-for cycle can form through two shards.
//!
//! # Example
//!
//! ```
//! use relc::{ShardedRelation, decomp, placement::LockPlacement};
//! use relc_containers::ContainerKind;
//! use relc_spec::Value;
//!
//! let d = decomp::library::split(ContainerKind::ConcurrentHashMap,
//!                                ContainerKind::HashMap);
//! let p = LockPlacement::fine(&d)?;
//! let graph = ShardedRelation::new(d.clone(), p, 8)?;
//!
//! let edge = |s: i64, t: i64| d.schema()
//!     .tuple(&[("src", Value::from(s)), ("dst", Value::from(t))]).unwrap();
//! let w = |w: i64| d.schema().tuple(&[("weight", Value::from(w))]).unwrap();
//!
//! assert!(graph.insert(&edge(1, 2), &w(100))?);
//! assert!(graph.insert(&edge(3, 4), &w(0))?);
//!
//! // Cross-shard transfer: both edges' shards stay locked until commit.
//! graph.transaction(|tx| {
//!     tx.update(&edge(1, 2), &w(70))?;
//!     tx.update(&edge(3, 4), &w(30))?;
//!     Ok(())
//! })?;
//! assert_eq!(graph.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use relc_locks::{Backoff, CommitStamp, LockStatsSnapshot, TwoPhaseEngine};
use relc_spec::{ColumnSet, RangePattern, RelationSchema, Tuple};

use crate::commit::{self, Participant};
use crate::decomp::Decomposition;
use crate::error::CoreError;
use crate::exec::assemble_range_output;
use crate::placement::{LockPlacement, LockToken};
use crate::planner::validate_update;
use crate::relation::{ConcurrentRelation, OpCounters, Repr, SnapshotRead, StatsSnapshot};
use crate::txn::{Transaction, TxnError};
use crate::wal::{RecoveryReport, Wal, WalOptions, WalRecord};

/// The router's seed. Any value works — what matters is that the routing
/// hash stream is not the stripe/bucket stream (see the module docs on
/// decorrelation) — but it is fixed so shard assignment is reproducible
/// across runs and a durable relation's log directory reopens with every
/// tuple in the shard that logged it.
const ROUTER_SEED: u64 = 0x5bd1_e995_9d03_58c3;

/// One logical relation partitioned across independent decomposition
/// instances by a seeded hash of its canonical key columns. See the
/// [module docs](self).
pub struct ShardedRelation {
    shards: Vec<ConcurrentRelation>,
    route_by: ColumnSet,
    /// Seqlock-style generation for the sharded cutover: odd exactly
    /// while [`Self::migrate_to`] is swapping shard representations, even
    /// otherwise. Fan-out snapshot readers spin past odd values and
    /// re-validate after registering, so no reader ever captures a
    /// half-migrated mix of old and new shard trees.
    migration_epoch: AtomicU64,
    /// Top-level operation counters of the sharded flavor (the per-shard
    /// relations keep their own; these count calls on *this* surface).
    ops: OpCounters,
    /// Completed whole-relation [`Self::migrate_to`] cutovers.
    migrations: AtomicU64,
}

impl ShardedRelation {
    /// Synthesizes a relation partitioned over `shards` independent
    /// instances of the given (decomposition, placement) pair, routed by
    /// the schema's canonical key under the router's fixed seed.
    /// `shards` is clamped to at least 1.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::new`].
    pub fn new(
        decomp: Arc<Decomposition>,
        placement: Arc<LockPlacement>,
        shards: usize,
    ) -> Result<Self, CoreError> {
        let route_by = decomp.schema().canonical_key();
        // One snapshot registry shared by every shard: a cross-shard
        // reader registers once and establishes a single retirement
        // floor for the whole sharded relation (and only for it).
        let registry = relc_locks::SnapshotRegistry::new();
        let shards = (0..shards.max(1))
            .map(|_| {
                ConcurrentRelation::new_with_registry(
                    Arc::clone(&decomp),
                    Arc::clone(&placement),
                    Arc::clone(&registry),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedRelation {
            shards,
            route_by,
            migration_epoch: AtomicU64::new(0),
            ops: OpCounters::default(),
            migrations: AtomicU64::new(0),
        })
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        self.shards[0].schema()
    }

    /// The decomposition every shard is currently represented by. Owned:
    /// [`Self::migrate_to`] may install a different representation at any
    /// moment (see [`ConcurrentRelation::decomposition`]).
    pub fn decomposition(&self) -> Arc<Decomposition> {
        self.shards[0].decomposition()
    }

    /// The lock placement every shard currently runs under (owned, like
    /// [`Self::decomposition`]).
    pub fn placement(&self) -> Arc<LockPlacement> {
        self.shards[0].placement()
    }

    /// The columns the router partitions on (the schema's canonical key).
    pub fn route_by(&self) -> ColumnSet {
        self.route_by
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The underlying per-shard relations (diagnostics and tests; tuples
    /// are owned by exactly the shard the router names).
    pub fn shards(&self) -> &[ConcurrentRelation] {
        &self.shards
    }

    /// The shard owning any tuple whose canonical-key projection equals
    /// `t`'s. `t` must bind every routing column (full tuples always do).
    pub fn shard_of(&self, t: &Tuple) -> usize {
        debug_assert!(self.route_by.is_subset(t.dom()));
        (t.stable_hash_of_seeded(self.route_by, ROUTER_SEED) % self.shards.len() as u64) as usize
    }

    /// Routes a pattern: `Some(shard)` when it binds every routing
    /// column, `None` when the operation must fan out.
    fn route(&self, pattern: &Tuple) -> Option<usize> {
        if self.route_by.is_subset(pattern.dom()) {
            Some(self.shard_of(pattern))
        } else {
            None
        }
    }

    /// Route-or-fan-out for `query`: the owning shard's answer when `s`
    /// routes, else the sorted union of every shard's. `shard` reads one
    /// shard, under a transaction's locks or at a reader's snapshot.
    fn fan_query<E>(
        &self,
        s: &Tuple,
        mut shard: impl FnMut(usize) -> Result<Vec<Tuple>, E>,
    ) -> Result<Vec<Tuple>, E> {
        match self.route(s) {
            Some(i) => shard(i),
            None => {
                let mut acc: BTreeSet<Tuple> = BTreeSet::new();
                for i in 0..self.shards.len() {
                    acc.extend(shard(i)?);
                }
                Ok(acc.into_iter().collect())
            }
        }
    }

    /// Route-or-fan-out for `query_range`: fan-out patterns read every
    /// shard **uncapped** with the range column added to the projection,
    /// then merge, order, deduplicate, and cap globally — a per-shard cap
    /// could drop a projection whose in-shard predecessors dedup away
    /// against other shards' results.
    fn fan_query_range<E>(
        &self,
        s: &Tuple,
        range: &RangePattern,
        cols: ColumnSet,
        mut shard: impl FnMut(usize, &RangePattern, ColumnSet) -> Result<Vec<Tuple>, E>,
    ) -> Result<Vec<Tuple>, E> {
        match self.route(s) {
            Some(i) => shard(i, range, cols),
            None => {
                let ext = cols.with(range.col());
                let uncapped = range.without_limit();
                let mut acc: Vec<Tuple> = Vec::new();
                for i in 0..self.shards.len() {
                    acc.extend(shard(i, &uncapped, ext)?);
                }
                Ok(assemble_range_output(acc, range, cols))
            }
        }
    }

    /// Route-or-fan-out for `contains`: fan-out patterns probe shards in
    /// ascending order and stop at the first with a witness.
    fn fan_contains<E>(
        &self,
        s: &Tuple,
        mut shard: impl FnMut(usize) -> Result<bool, E>,
    ) -> Result<bool, E> {
        match self.route(s) {
            Some(i) => shard(i),
            None => {
                for i in 0..self.shards.len() {
                    if shard(i)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Number of tuples, summed over shards (same advisory-under-motion,
    /// exact-at-quiescence contract as [`ConcurrentRelation::len`]).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the relation is empty (same caveat as [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lock statistics aggregated over every shard. A cross-shard
    /// transaction contributes one commit (or rollback) per shard it
    /// touched.
    pub fn lock_stats(&self) -> LockStatsSnapshot {
        let mut agg = LockStatsSnapshot::default();
        for s in self.shards.iter().map(|s| s.lock_stats()) {
            agg.acquisitions += s.acquisitions;
            agg.contended += s.contended;
            agg.restarts += s.restarts;
            agg.upgrades += s.upgrades;
            agg.speculation_failures += s.speculation_failures;
            agg.commits += s.commits;
            agg.user_rollbacks += s.user_rollbacks;
            agg.snapshot_reads += s.snapshot_reads;
        }
        agg
    }

    /// Captures the unified observability surface for the sharded flavor:
    /// lock counters aggregated over every shard, the process-global
    /// version and reclamation counters, this surface's own top-level
    /// operation counts, the summed tuple count, and the number of
    /// completed whole-relation migrations. The `locks`, `versions`, and
    /// `reclamation` fields agree with [`Self::lock_stats`],
    /// [`Self::version_stats`], and [`Self::reclamation_stats`] — they
    /// read the same counters.
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

    /// Number of completed [`Self::migrate_to`] cutovers (whole-relation
    /// cutovers, not per-shard swaps).
    pub fn migration_count(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// Ablation knob (§5.2), forwarded to every shard.
    pub fn set_always_sort_locks(&self, v: bool) {
        for s in &self.shards {
            s.set_always_sort_locks(v);
        }
    }

    /// Epoch reclamation counters. The epoch domain is process-global
    /// (one collector spanning every shard and every other relation in
    /// the process), so there is nothing per-shard to aggregate; see
    /// [`ConcurrentRelation::reclamation_stats`].
    pub fn reclamation_stats(&self) -> relc_containers::ReclamationStats {
        relc_containers::reclamation_stats()
    }

    /// Test-only: drives the epoch collector to quiescence; see
    /// [`ConcurrentRelation::flush_reclamation`].
    pub fn flush_reclamation(&self) -> relc_containers::ReclamationStats {
        relc_containers::reclamation_flush()
    }

    /// `insert r s t` (§2): routed to the owning shard of the full tuple
    /// `s ∪ t`; put-if-absent semantics as on a single instance.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::insert`].
    pub fn insert(&self, s: &Tuple, t: &Tuple) -> Result<bool, CoreError> {
        OpCounters::bump(&self.ops.inserts, 1);
        match s.union(t) {
            // Not routable ⇒ not a full valuation (or overlapping
            // domains): any shard rejects it with the canonical §2 error
            // before applying an effect.
            Ok(x) => self.shards[self.route(&x).unwrap_or(0)].insert(s, t),
            Err(_) => self.shards[0].insert(s, t),
        }
    }

    /// The single shard every row of a batch routes to, if one exists.
    /// `None` when the batch spans shards or a row cannot be routed
    /// (invalid rows go through the cross-shard path, whose per-shard
    /// validation surfaces the canonical error).
    fn single_target_of_rows(&self, rows: &[(Tuple, Tuple)]) -> Option<usize> {
        let mut target = None;
        for (s, t) in rows {
            let i = match s.union(t) {
                Ok(x) => self.route(&x)?,
                Err(_) => return None,
            };
            if *target.get_or_insert(i) != i {
                return None;
            }
        }
        target
    }

    /// Batched `insert r s t` as **one cross-shard transaction**: the
    /// rows split per shard (equal keys route identically, so the §2
    /// fold semantics — duplicates lose to the first occurrence — are
    /// preserved), each shard runs its sub-batch through the PR 3 bulk
    /// sweep, and all shards commit together: observers see all of the
    /// batch or none of it.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::insert_all`]; any row's validation
    /// error rolls back every shard's sub-batch.
    pub fn insert_all(&self, rows: &[(Tuple, Tuple)]) -> Result<Vec<bool>, CoreError> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        OpCounters::bump(&self.ops.batch_rows, rows.len() as u64);
        // The whole batch landing in one shard — always true for a 1-shard
        // relation, common for locality-batched loads — skips the
        // cross-shard machinery (N engines + guards per attempt, one row
        // clone per sub-batch) for the shard's own single-shot bulk path.
        if let Some(i) = self.single_target_of_rows(rows) {
            return self.shards[i].insert_all(rows);
        }
        self.run_transaction(|tx| tx.insert_all(rows))
    }

    /// Batched `remove r s` as one cross-shard transaction (see
    /// [`Self::insert_all`]); returns per-key outcomes like
    /// [`ConcurrentRelation::remove_all`].
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::remove_all`]; the batch has no effect
    /// on error.
    pub fn remove_all(&self, keys: &[Tuple]) -> Result<Vec<bool>, CoreError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        OpCounters::bump(&self.ops.batch_rows, keys.len() as u64);
        // Single-destination fast path, as in [`Self::insert_all`].
        let mut target = None;
        if keys
            .iter()
            .all(|k| self.route(k).is_some_and(|i| *target.get_or_insert(i) == i))
        {
            if let Some(i) = target {
                return self.shards[i].remove_all(keys);
            }
        }
        self.run_transaction(|tx| tx.remove_all(keys))
    }

    /// `remove r s` (§2); returns how many tuples were removed (0 or 1).
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::remove`].
    pub fn remove(&self, s: &Tuple) -> Result<usize, CoreError> {
        Ok(usize::from(self.remove_returning(s)?.is_some()))
    }

    /// Like [`Self::remove`], but returns the removed tuple. Keys binding
    /// the routing columns touch one shard; alternate keys (a key set
    /// that does not contain the canonical key) search shard by shard
    /// inside one cross-shard transaction.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::remove_returning`].
    pub fn remove_returning(&self, s: &Tuple) -> Result<Option<Tuple>, CoreError> {
        OpCounters::bump(&self.ops.removes, 1);
        match self.route(s) {
            Some(i) => self.shards[i].remove_returning(s),
            None if !self.schema().is_key(s.dom()) => self.shards[0].remove_returning(s),
            None => self.run_transaction(|tx| tx.remove_returning(s)),
        }
    }

    /// `update r s t` (§2): routed when `s` binds the routing columns
    /// (an in-shard update can never change a tuple's shard, since `t`
    /// must be disjoint from `dom s ⊇` the routing columns); alternate-key
    /// updates run as a cross-shard transaction that relocates the tuple
    /// if `t` rewrites a routing column.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::update`].
    pub fn update(&self, s: &Tuple, t: &Tuple) -> Result<Option<Tuple>, CoreError> {
        OpCounters::bump(&self.ops.updates, 1);
        match self.route(s) {
            Some(i) => self.shards[i].update(s, t),
            None => self.run_transaction(|tx| tx.update(s, t)),
        }
    }

    /// `query r s C` (§2), lock-free at one snapshot timestamp: routed
    /// patterns read one shard; fan-out patterns read **every shard at
    /// the same snapshot** — since the MVCC layer landed, the commit
    /// clock is process-global, so a single registered timestamp is one
    /// consistent cut across all shards and the combined result is
    /// serializable (the former weakly-consistent shard-by-shard fan-out
    /// is gone).
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::query`].
    pub fn query(&self, s: &Tuple, cols: ColumnSet) -> Result<Vec<Tuple>, CoreError> {
        OpCounters::bump(&self.ops.queries, 1);
        match self.route(s) {
            Some(i) => self.shards[i].query(s, cols),
            None => self.run_read(|snap| snap.query(s, cols)),
        }
    }

    /// Range query, lock-free at one snapshot timestamp: routed patterns
    /// read one shard, fan-out patterns read every shard at the same
    /// snapshot and merge (see [`ShardedSnapshotReader::query_range`]).
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::query_range`].
    pub fn query_range(
        &self,
        s: &Tuple,
        range: &RangePattern,
        cols: ColumnSet,
    ) -> Result<Vec<Tuple>, CoreError> {
        OpCounters::bump(&self.ops.range_queries, 1);
        match self.route(s) {
            Some(i) => self.shards[i].query_range(s, range, cols),
            None => self.run_read(|snap| snap.query_range(s, range, cols)),
        }
    }

    /// Whether any tuple extends `s`; fan-out patterns short-circuit at
    /// the first shard with a witness, all shards probed at one snapshot
    /// timestamp (consistent across shards, like [`Self::query`]).
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::contains`].
    pub fn contains(&self, s: &Tuple) -> Result<bool, CoreError> {
        OpCounters::bump(&self.ops.contains_checks, 1);
        match self.route(s) {
            Some(i) => self.shards[i].contains(s),
            None => self.run_read(|snap| snap.contains(s)),
        }
    }

    /// All tuples, sorted and deduplicated across shards — one consistent
    /// snapshot even under concurrent mutation (see [`Self::query`]).
    ///
    /// # Errors
    ///
    /// As for [`Self::query`].
    pub fn snapshot(&self) -> Result<Vec<Tuple>, CoreError> {
        OpCounters::bump(&self.ops.queries, 1);
        self.run_read(|snap| snap.snapshot())
    }

    /// Runs a lock-free read-only transaction spanning every shard: the
    /// closure's [`ShardedSnapshotReader`] captures **one** commit
    /// timestamp and resolves every read on every shard against it. The
    /// commit clock is process-global and cross-shard writers stamp all
    /// their shards' versions with a single shared stamp before any lock
    /// is released, so that one timestamp is a consistent cut: no read
    /// can see shard A's half of a cross-shard transaction without
    /// shard B's.
    ///
    /// Same contract as [`ConcurrentRelation::read_transaction`]: no
    /// locks, no restarts, writers never blocked.
    ///
    /// # Panics
    ///
    /// Panics if called on a thread already inside a transaction on this
    /// relation (same re-entrancy diagnosis as the locked operations).
    pub fn read_transaction<R>(&self, f: impl FnOnce(&ShardedSnapshotReader<'_>) -> R) -> R {
        OpCounters::bump(&self.ops.read_transactions, 1);
        self.run_read(f)
    }

    /// The snapshot-reader scope shared by [`Self::read_transaction`] and
    /// the fan-out single-shot reads (which keep their own operation
    /// counters instead of counting as read transactions).
    fn run_read<R>(&self, f: impl FnOnce(&ShardedSnapshotReader<'_>) -> R) -> R {
        let _guards = commit::enter_all(&self.shards);
        let reader = ShardedSnapshotReader::open(self);
        f(&reader)
    }

    /// Process-global version-chain counters; like
    /// [`Self::reclamation_stats`], there is nothing per-shard to
    /// aggregate.
    pub fn version_stats(&self) -> relc_containers::VersionStats {
        relc_containers::version_stats()
    }

    /// Structural verification of every quiescent shard instance, plus
    /// the sharding invariant: each tuple lives in exactly the shard the
    /// router names. Returns the union of the shards' contents.
    ///
    /// # Errors
    ///
    /// A description of the violated invariant.
    pub fn verify(&self) -> Result<BTreeSet<Tuple>, String> {
        let mut all = BTreeSet::new();
        for (i, shard) in self.shards.iter().enumerate() {
            for t in shard.verify().map_err(|e| format!("shard {i}: {e}"))? {
                let want = self.shard_of(&t);
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

    /// Live migration of the whole sharded relation to a new
    /// `(decomposition, placement)` pair — the sharded generalization of
    /// [`ConcurrentRelation::migrate_to`], run as **one cross-shard
    /// cutover** so fan-out readers never observe a half-migrated mix of
    /// representations.
    ///
    /// The protocol is the single-instance one over every shard:
    ///
    /// 1. **Fence every shard, in ascending shard order** — the same
    ///    write fence (`with_write_fence` in `commit.rs`, which carries
    ///    the deadlock argument against cross-shard transactions), taken
    ///    over all shards instead of one.
    /// 2. **One cut.** With every fence held, no writer on any shard is in
    ///    flight and none can commit: the whole relation is frozen. Each
    ///    shard's contents are read at an MVCC cut and bulk-loaded into
    ///    that shard's fresh tree (the new trees are private until the
    ///    swap, so the loads contend with nobody).
    /// 3. **Swap window.** The migration epoch goes odd, every shard's
    ///    representation is swapped, the epoch goes even. Fan-out snapshot
    ///    readers spin past the odd window and re-validate their captured
    ///    representations after registering, so every reader holds either
    ///    all-old or all-new trees — and either set is the same frozen cut
    ///    while any fence is held, so even a reader that raced the window
    ///    reads one consistent snapshot.
    /// 4. **Release.** Every fence releases; writers resume on the new
    ///    trees. Writers that captured an old representation fail the
    ///    commit-time representation check and retry.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::migrate_to`]; on error the relation is
    /// left on the old representation, unchanged.
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
        // One fresh (empty, still private) representation per shard;
        // built before fencing so placement validation fails fast.
        let new_reprs: Vec<Arc<Repr>> = self
            .shards
            .iter()
            .map(|_| Repr::new(Arc::clone(&decomp), Arc::clone(&placement)))
            .collect::<Result<_, _>>()?;
        commit::with_write_fence(&self.shards, |reprs| {
            // Every fence held: the whole relation is frozen at one cut.
            for ((shard, repr), new_repr) in self.shards.iter().zip(reprs).zip(&new_reprs) {
                let rows = shard.load_frozen_contents(repr, new_repr)?;
                debug_assert_eq!(rows, shard.len(), "quiescent cut must be exact");
            }
            // Swap window: odd epoch keeps fan-out readers from capturing
            // a mixed representation set while the per-shard swaps land.
            self.migration_epoch.fetch_add(1, Ordering::AcqRel);
            for (shard, new_repr) in self.shards.iter().zip(new_reprs) {
                shard.install_repr(new_repr);
            }
            self.migration_epoch.fetch_add(1, Ordering::AcqRel);
            self.migrations.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
    }

    /// Runs `f` as one two-phase transaction spanning every shard it
    /// touches: per-shard [`Transaction`]s open lazily as operations
    /// route, all locks across all touched shards are held until the
    /// closure returns, and commit/rollback is atomic across shards
    /// (every shard's journal rolls back before any lock is released).
    /// See the [module docs](self) for the cross-shard ordering protocol.
    ///
    /// The closure contract is exactly
    /// [`ConcurrentRelation::transaction`]'s: propagate [`TxnError`] with
    /// `?`, return `Err(tx.abort(..))` to roll back, expect re-runs on
    /// contention, and route every operation on this relation through the
    /// transaction handle (single-shot calls inside the closure panic
    /// rather than self-deadlock).
    ///
    /// # Errors
    ///
    /// Whatever [`TxnError::Core`] error the closure propagates;
    /// restarts are consumed by the retry loop.
    pub fn transaction<R>(
        &self,
        f: impl FnMut(&mut ShardedTransaction<'_>) -> Result<R, TxnError>,
    ) -> Result<R, CoreError> {
        OpCounters::bump(&self.ops.transactions, 1);
        self.run_transaction(f)
    }

    /// The cross-shard transaction loop shared by [`Self::transaction`]
    /// and the fan-out single-shot sugar (which keeps its own operation
    /// counters, exactly like the single-instance layer).
    fn run_transaction<R>(
        &self,
        mut f: impl FnMut(&mut ShardedTransaction<'_>) -> Result<R, TxnError>,
    ) -> Result<R, CoreError> {
        let _guards = commit::enter_all(&self.shards);
        let mut engines = commit::engines_for(&self.shards);
        let mut backoff = Backoff::new();
        loop {
            // Pin every shard's representation for this attempt (same
            // stale-window discipline as the single-instance loop).
            let reprs: Vec<Arc<Repr>> = self.shards.iter().map(|s| s.current_repr()).collect();
            let mut stx =
                ShardedTransaction::new(self, &reprs, engines.iter_mut().map(Some).collect());
            let result = f(&mut stx);
            let mut parts = stx.into_participants();
            // One log per shard, markers in shard 0's; every writing
            // attempt holds its locks until its records are durable.
            if let Some(done) = commit::conclude(result, &mut parts, self.shards[0].wal(), true) {
                return done;
            }
            backoff.wait();
        }
    }

    /// Opens a **durable** sharded relation backed by one write-ahead log
    /// per shard in `dir` (created if absent): `shard-<i>.wal` /
    /// `shard-<i>.ckpt`. Recovery replays each shard's checkpoint and log
    /// tail; a record flagged cross-shard applies only if shard 0's log
    /// holds a durable commit **marker** for its timestamp, so a crash
    /// between two shards' fsyncs aborts the whole transaction on every
    /// shard (atomic cross-shard recovery). The commit clock resumes
    /// strictly above the highest replayed stamp of any shard.
    ///
    /// # Errors
    ///
    /// Any I/O error, a corrupt checkpoint, or the usual construction
    /// errors of [`Self::new`].
    pub fn open_durable(
        decomp: Arc<Decomposition>,
        placement: Arc<LockPlacement>,
        shards: usize,
        dir: impl AsRef<std::path::Path>,
        opts: WalOptions,
    ) -> Result<(Self, RecoveryReport), CoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| CoreError::Durability(format!("create {}: {e}", dir.display())))?;
        let mut rel = Self::new(decomp, placement, shards)?;
        let wals: Vec<Wal> = (0..rel.shards.len())
            .map(|i| {
                Wal::open(
                    dir.join(format!("shard-{i}.wal")),
                    dir.join(format!("shard-{i}.ckpt")),
                    opts,
                )
            })
            .collect::<Result<_, _>>()?;
        // The marker set lives in shard 0's log: a cross-shard record on
        // any shard commits iff its timestamp's marker reached disk.
        let markers: BTreeSet<u64> = wals[0]
            .read_records()?
            .0
            .iter()
            .filter_map(|r| match r {
                WalRecord::Marker { ts } => Some(*ts),
                WalRecord::Commit { .. } => None,
            })
            .collect();
        let mut report = RecoveryReport::default();
        for (shard, shard_wal) in rel.shards.iter().zip(&wals) {
            let shard_report = shard.recover_from(shard_wal, Some(&markers))?;
            report.merge(&shard_report);
        }
        for (shard, shard_wal) in rel.shards.iter_mut().zip(wals) {
            shard.attach_wal(Arc::new(shard_wal));
        }
        Ok((rel, report))
    }

    /// Checkpoints every shard at **one** MVCC cut: acquires all shards'
    /// write fences in ascending order (the same frozen state
    /// [`Self::migrate_to`] snapshots), writes each shard's frozen rows to
    /// its checkpoint sidecar at a single cut timestamp, then truncates
    /// the logs — shard 0's, which holds the cross-shard commit markers,
    /// **last**, so a crash mid-truncation never strands a cross-shard
    /// record without its marker. Returns the total rows snapshotted.
    ///
    /// # Errors
    ///
    /// [`CoreError::Durability`] if the relation was not opened with
    /// [`Self::open_durable`], or any checkpoint I/O error.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a transaction on this relation.
    pub fn checkpoint(&self) -> Result<usize, CoreError> {
        commit::checkpoint(&self.shards)
    }

    /// Aggregated group-commit statistics across all shards' logs
    /// (appends/flushes/fsyncs summed, `max_batch` the maximum), or
    /// `None` if the relation has no WAL.
    pub fn wal_stats(&self) -> Option<relc_locks::GroupCommitStats> {
        if !self.shards[0].has_wal() {
            return None;
        }
        let mut agg = relc_locks::GroupCommitStats::default();
        for shard in &self.shards {
            let s = shard.wal_stats()?;
            agg.appends += s.appends;
            agg.flushes += s.flushes;
            agg.fsyncs += s.fsyncs;
            agg.max_batch = agg.max_batch.max(s.max_batch);
        }
        Some(agg)
    }
}

impl fmt::Debug for ShardedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedRelation")
            .field("decomposition", &self.decomposition().describe())
            .field("shards", &self.shards.len())
            .field(
                "route_by",
                &self.schema().catalog().render_set(self.route_by),
            )
            .field("len", &self.len())
            .finish()
    }
}

/// An open cross-shard transaction on a [`ShardedRelation`]. Created by
/// [`ShardedRelation::transaction`]; operations route exactly as the
/// relation's single-shot operations do, but all locks of every touched
/// shard accumulate until the closure returns.
pub struct ShardedTransaction<'t> {
    rel: &'t ShardedRelation,
    /// The per-shard representations pinned for this attempt (captured
    /// once in the retry loop; the commit path refuses to commit if any
    /// shard's representation was swapped by a live migration since).
    reprs: &'t [Arc<Repr>],
    /// One engine slot per shard; taken (moved into the shard's
    /// [`Transaction`]) when the shard is first touched.
    engines: Vec<Option<&'t mut TwoPhaseEngine<LockToken>>>,
    open: Vec<Option<Transaction<'t>>>,
    /// Highest shard index touched so far: acquisitions there may block,
    /// anything lower is demoted to try-only (global (shard, token)
    /// order — see the module docs).
    max_open: Option<usize>,
    /// One commit stamp shared by every shard's MVCC write journal:
    /// snapshot readers see the cross-shard attempt commit (or roll
    /// back) as a single timestamp, never one shard's effects without
    /// another's.
    stamp: Arc<CommitStamp>,
}

impl<'t> ShardedTransaction<'t> {
    fn new(
        rel: &'t ShardedRelation,
        reprs: &'t [Arc<Repr>],
        engines: Vec<Option<&'t mut TwoPhaseEngine<LockToken>>>,
    ) -> Self {
        let n = engines.len();
        ShardedTransaction {
            rel,
            reprs,
            engines,
            open: (0..n).map(|_| None).collect(),
            max_open: None,
            stamp: CommitStamp::new(),
        }
    }

    /// The relation this transaction operates on (metadata access only,
    /// as for [`Transaction::relation`]).
    pub fn relation(&self) -> &'t ShardedRelation {
        self.rel
    }

    /// The open per-shard transaction for shard `i`, created on first
    /// touch. Maintains the cross-shard acquisition order: returning to a
    /// shard below the current maximum demotes that shard's engine to
    /// try-only for the rest of the attempt.
    fn shard_tx(&mut self, i: usize) -> &mut Transaction<'t> {
        if self.open[i].is_none() {
            let engine = self.engines[i]
                .take()
                .expect("engine slot taken exactly once per attempt");
            let shard = &self.rel.shards[i];
            let repr = &self.reprs[i];
            let mut tx = Transaction::new(shard, repr, engine, false);
            // All shards write versions under the attempt's shared stamp
            // (injected before any mirrored write can happen).
            tx.set_mvcc_stamp(Arc::clone(&self.stamp));
            self.open[i] = Some(tx);
        }
        let tx = self.open[i].as_mut().expect("just ensured open");
        match self.max_open {
            Some(m) if i < m => tx.force_try_locks(),
            Some(m) if m < i => self.max_open = Some(i),
            None => self.max_open = Some(i),
            _ => {}
        }
        tx
    }

    /// Consumes the attempt into its commit participants: the touched
    /// shards' transactions, in ascending shard order.
    fn into_participants(self) -> Vec<Participant<'t>> {
        let touched = self.open.into_iter().flatten();
        touched.map(Participant::new).collect()
    }

    /// `insert r s t` (§2) under this transaction's lock scope, routed to
    /// the owning shard.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::insert`].
    pub fn insert(&mut self, s: &Tuple, t: &Tuple) -> Result<bool, TxnError> {
        let i = match s.union(t) {
            Ok(x) => self.rel.route(&x).unwrap_or(0),
            Err(_) => 0, // canonical validation error from shard 0
        };
        self.shard_tx(i).insert(s, t)
    }

    /// Batched insert under this transaction's lock scope: rows split per
    /// shard (preserving relative order, which preserves the §2 fold
    /// semantics — equal keys route identically), one bulk sub-batch per
    /// touched shard in ascending shard order.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::insert_all`].
    pub fn insert_all(&mut self, rows: &[(Tuple, Tuple)]) -> Result<Vec<bool>, TxnError> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.rel.shards.len()];
        for (idx, (s, t)) in rows.iter().enumerate() {
            let i = match s.union(t) {
                Ok(x) => self.rel.route(&x).unwrap_or(0),
                Err(_) => 0,
            };
            groups[i].push(idx);
        }
        let mut results = vec![false; rows.len()];
        for (i, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let sub: Vec<(Tuple, Tuple)> = group.iter().map(|&idx| rows[idx].clone()).collect();
            let sub_results = self.shard_tx(i).insert_all(&sub)?;
            for (&idx, r) in group.iter().zip(sub_results) {
                results[idx] = r;
            }
        }
        Ok(results)
    }

    /// Batched remove under this transaction's lock scope; per-key
    /// outcomes as for [`Transaction::remove_all`]. Routable keys run as
    /// per-shard sub-batches; a batch containing any alternate (fan-out)
    /// key runs strictly key by key instead — the grouped form would
    /// evaluate all routed keys before any fan-out key, and a routed and
    /// an alternate pattern in one batch can match the *same* tuple, where
    /// the §2 fold's outcome depends on evaluation order.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::remove_all`].
    pub fn remove_all(&mut self, keys: &[Tuple]) -> Result<Vec<bool>, TxnError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        if keys.iter().any(|k| self.rel.route(k).is_none()) {
            let mut results = Vec::with_capacity(keys.len());
            for k in keys {
                results.push(self.remove_returning(k)?.is_some());
            }
            return Ok(results);
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.rel.shards.len()];
        for (idx, k) in keys.iter().enumerate() {
            groups[self.rel.shard_of(k)].push(idx);
        }
        let mut results = vec![false; keys.len()];
        for (i, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let sub: Vec<Tuple> = group.iter().map(|&idx| keys[idx].clone()).collect();
            let sub_results = self.shard_tx(i).remove_all(&sub)?;
            for (&idx, r) in group.iter().zip(sub_results) {
                results[idx] = r;
            }
        }
        Ok(results)
    }

    /// `remove r s` (§2) under this transaction's lock scope.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::remove`].
    pub fn remove(&mut self, s: &Tuple) -> Result<usize, TxnError> {
        Ok(usize::from(self.remove_returning(s)?.is_some()))
    }

    /// Like [`ShardedTransaction::remove`], but returns the removed
    /// tuple. Alternate keys search shards in ascending order under this
    /// transaction's locks.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::remove_returning`].
    pub fn remove_returning(&mut self, s: &Tuple) -> Result<Option<Tuple>, TxnError> {
        match self.rel.route(s) {
            Some(i) => self.shard_tx(i).remove_returning(s),
            None if !self.rel.schema().is_key(s.dom()) => {
                // Canonical RemoveNotByKey error from shard 0.
                self.shard_tx(0).remove_returning(s)
            }
            None => {
                for i in 0..self.rel.shards.len() {
                    if let Some(t) = self.shard_tx(i).remove_returning(s)? {
                        return Ok(Some(t));
                    }
                }
                Ok(None)
            }
        }
    }

    /// `update r s t` (§2) under this transaction's lock scope. Routed
    /// patterns update in place within their shard; alternate-key updates
    /// locate the tuple shard by shard and — when `t` rewrites a routing
    /// column — relocate it to its new owning shard (an unlink on one
    /// shard and an insert on another, atomic under this transaction).
    ///
    /// # Errors
    ///
    /// As for [`Transaction::update`].
    pub fn update(&mut self, s: &Tuple, t: &Tuple) -> Result<Option<Tuple>, TxnError> {
        if let Some(i) = self.rel.route(s) {
            return self.shard_tx(i).update(s, t);
        }
        // Validate up front, as `plan_update` would: past this point the
        // operation decomposes into remove + insert.
        validate_update(self.rel.schema(), s.dom(), t.dom())?;
        let Some(old) = self.remove_returning(s)? else {
            return Ok(None);
        };
        let new = old.override_with(t);
        let inserted = self
            .shard_tx(self.rel.shard_of(&new))
            .insert(&new, &Tuple::empty())?;
        debug_assert!(
            inserted,
            "no tuple can extend the unlinked key under our exclusive locks"
        );
        Ok(Some(old))
    }

    /// `query r s C` (§2) under this transaction's lock scope. Fan-out
    /// patterns visit every shard and, unlike the single-shot
    /// [`ShardedRelation::query`], are **serializable**: each visited
    /// shard's locks persist to commit.
    ///
    /// # Errors
    ///
    /// As for [`Transaction::query`].
    pub fn query(&mut self, s: &Tuple, cols: ColumnSet) -> Result<Vec<Tuple>, TxnError> {
        let rel = self.rel;
        rel.fan_query(s, |i| self.shard_tx(i).query(s, cols))
    }

    /// Range query under this transaction's lock scope: routed patterns
    /// visit one shard; fan-out patterns visit every shard uncapped and
    /// merge globally, serializable because every visited shard's locks
    /// persist to commit.
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
        let rel = self.rel;
        rel.fan_query_range(s, range, cols, |i, range, cols| {
            self.shard_tx(i).query_range(s, range, cols)
        })
    }

    /// Whether any tuple extends `s`, under this transaction's locks
    /// (fan-out patterns short-circuit but keep the visited shards'
    /// locks).
    ///
    /// # Errors
    ///
    /// As for [`Transaction::contains`].
    pub fn contains(&mut self, s: &Tuple) -> Result<bool, TxnError> {
        let rel = self.rel;
        rel.fan_contains(s, |i| self.shard_tx(i).contains(s))
    }

    /// All tuples, sorted, as observed under this transaction's locks
    /// (serializable across shards).
    ///
    /// # Errors
    ///
    /// As for [`ShardedTransaction::query`].
    pub fn snapshot(&mut self) -> Result<Vec<Tuple>, TxnError> {
        self.query(&Tuple::empty(), self.rel.schema().columns())
    }

    /// Aborts the transaction: return this from the closure to roll back
    /// every touched shard and surface
    /// [`CoreError::TransactionAborted`].
    pub fn abort(&self, reason: impl Into<String>) -> TxnError {
        TxnError::Core(CoreError::TransactionAborted(reason.into()))
    }
}

/// A lock-free read-only view of a [`ShardedRelation`] at one commit
/// timestamp, handed to [`ShardedRelation::read_transaction`]'s closure.
/// One snapshot registration and one epoch guard span every shard: all
/// reads — routed or fanned out — resolve at the same timestamp, which
/// the shared-stamp commit protocol makes a consistent cut across
/// shards.
pub struct ShardedSnapshotReader<'r> {
    rel: &'r ShardedRelation,
    /// The per-shard representations pinned for this reader's lifetime —
    /// validated against the migration epoch at open, so they are either
    /// all pre-cutover or all post-cutover, never a mix. The held `Arc`s
    /// keep retired trees alive until the reader drops.
    reprs: Vec<Arc<Repr>>,
    snap: u64,
    guard: relc_containers::epoch::Guard,
    _reg: relc_locks::SnapshotGuard,
}

impl<'r> ShardedSnapshotReader<'r> {
    fn open(rel: &'r ShardedRelation) -> Self {
        // Capture every shard's representation and one registration, then
        // re-validate both the migration epoch and each captured pointer:
        // a live migration swaps the shards one by one, and a capture that
        // straddled the swap window could pair pre-cutover trees on some
        // shards with post-cutover trees on others. The epoch is odd for
        // exactly the swap window, so spinning past odd values and
        // re-checking afterwards guarantees an all-old or all-new set.
        // Registering before the re-check (and before pinning) keeps the
        // single-instance ordering: the registration stops committers from
        // truncating history at or below `snap`, the epoch guard keeps
        // already-truncated nodes alive.
        let (reprs, reg) = loop {
            let e1 = rel.migration_epoch.load(Ordering::Acquire);
            if e1 & 1 == 1 {
                std::thread::yield_now();
                continue;
            }
            let reprs: Vec<Arc<Repr>> = rel.shards.iter().map(|s| s.current_repr()).collect();
            let reg = rel.shards[0]
                .snapshots()
                .register(relc_locks::commit_clock());
            if rel.migration_epoch.load(Ordering::Acquire) == e1
                && reprs
                    .iter()
                    .zip(&rel.shards)
                    .all(|(r, s)| Arc::ptr_eq(r, &s.current_repr()))
            {
                break (reprs, reg);
            }
            drop(reg);
        };
        let guard = relc_containers::epoch::pin();
        ShardedSnapshotReader {
            rel,
            reprs,
            snap: reg.snap(),
            guard,
            _reg: reg,
        }
    }

    /// The commit timestamp every shard is read at.
    pub fn snapshot_ts(&self) -> u64 {
        self.snap
    }

    /// `query r s C` (§2) at this snapshot: routed patterns read the
    /// owning shard, fan-out patterns union every shard's contribution —
    /// all at the same timestamp, so the union is itself a snapshot.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::query`].
    pub fn query(&self, s: &Tuple, cols: ColumnSet) -> Result<Vec<Tuple>, CoreError> {
        self.rel
            .fan_query(s, |i| self.shard_read(i, s, SnapshotRead::Query(cols)))
    }

    /// One shard's contribution at this snapshot, traversing the pinned
    /// representation (a live migration never redirects an open reader).
    fn shard_read(
        &self,
        i: usize,
        s: &Tuple,
        read: SnapshotRead<'_>,
    ) -> Result<Vec<Tuple>, CoreError> {
        self.reprs[i].snapshot_read(
            self.rel.shards[i].stats_arc(),
            s,
            read,
            self.snap,
            &self.guard,
        )
    }

    /// Range query at this snapshot: routed patterns read the owning
    /// shard natively; fan-out patterns merge every shard's uncapped
    /// contribution and cap globally. All shards are read at the one
    /// registered timestamp, so the merged result is itself a snapshot.
    ///
    /// # Errors
    ///
    /// As for [`ConcurrentRelation::query_range`].
    pub fn query_range(
        &self,
        s: &Tuple,
        range: &RangePattern,
        cols: ColumnSet,
    ) -> Result<Vec<Tuple>, CoreError> {
        self.rel.fan_query_range(s, range, cols, |i, range, cols| {
            self.shard_read(i, s, SnapshotRead::Range(range, cols))
        })
    }

    /// Whether any tuple extends `s` at this snapshot; fan-out patterns
    /// short-circuit at the first shard with a witness.
    ///
    /// # Errors
    ///
    /// As for [`ShardedSnapshotReader::query`].
    pub fn contains(&self, s: &Tuple) -> Result<bool, CoreError> {
        self.rel.fan_contains(s, |i| {
            Ok(!self.shard_read(i, s, SnapshotRead::Witness)?.is_empty())
        })
    }

    /// All tuples at this snapshot, sorted and deduplicated across
    /// shards.
    ///
    /// # Errors
    ///
    /// As for [`ShardedSnapshotReader::query`].
    pub fn snapshot(&self) -> Result<Vec<Tuple>, CoreError> {
        self.query(&Tuple::empty(), self.rel.schema().columns())
    }
}

impl fmt::Debug for ShardedSnapshotReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSnapshotReader")
            .field("snapshot_ts", &self.snap)
            .field("shards", &self.rel.shards.len())
            .finish()
    }
}

impl fmt::Debug for ShardedTransaction<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedTransaction")
            .field("shards", &self.rel.shards.len())
            .field(
                "touched",
                &self
                    .open
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| t.as_ref().map(|_| i))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}
