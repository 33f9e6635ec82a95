//! A relation over 1 or N instances: one logical relation hash-partitioned
//! across independent decomposition instances.
//!
//! The §5 lock placements make a single decomposition instance scale to
//! fine-grained locking, but every write still funnels through one root
//! node, whose lock (or stripe array) bounds multi-core write throughput.
//! A [`Relation`] is laid out over one instance ([`ConcurrentRelation`])
//! or over `N` ([`ShardedRelation`]): each shard is a complete
//! [`ConcurrentRelation`] — its own root, plan caches and lock engine
//! traffic — and a tuple lives in shard `h(π_key(t)) mod N`, a **seeded
//! hash of the canonical key columns** ([`RelationSchema::canonical_key`]),
//! so disjoint-key writes land on disjoint roots and proceed with no
//! shared state at all. Both layouts run the same operations, the same
//! transaction, the same snapshot reader and the same commit; one instance
//! is simply the case where every pattern routes to instance 0 without
//! hashing.
//!
//! # Routing
//!
//! An operation whose pattern binds every canonical-key column is
//! **routed**: it touches exactly one shard and costs the same as on a
//! single instance. Patterns that bind fewer columns (partial-pattern
//! queries, alternate-key removes) **fan out** across shards. Snapshot
//! reads capture one timestamp from the process-global commit clock and
//! read every shard at it (see [`Relation::read_transaction`]), so the
//! combination is a single consistent cut — serializable, with no locks
//! taken. Reads inside a [`Relation::transaction`] lock every visited
//! shard instead (they observe the transaction's own uncommitted writes).
//!
//! The router hash is deliberately **decorrelated** from the hashes below
//! it ([`Tuple::stable_hash_of_seeded`] with the router's own seed): the
//! lock-stripe hash and the in-container bucket hashes see the same key
//! bits, and if the router's partition were a function of the same stream,
//! every relation shard's keys would collapse into a fraction of each
//! container's buckets/stripes one level down.
//!
//! # Transactions spanning shards
//!
//! A [`Transaction`] opens one part per touched shard lazily, routes each
//! operation, and holds **every** shard's locks until the closure returns
//! (the two-phase discipline spans shards). The attempt then ends through
//! the commit protocol (`commit.rs`), applied to every touched shard: one
//! stamp publishes all of them, and an abort rolls back *every* shard's
//! write journal before a single lock is released — no observer can see
//! shard A's effects without shard B's.
//!
//! Deadlock freedom extends the §5.1 argument lexicographically: the
//! global coordinate of a lock is `(shard index, lock token)`. A
//! transaction may block only while acquiring in its current **maximum**
//! shard; as soon as an operation returns to a lower-indexed shard, that
//! shard's engine is demoted to try-only acquisition
//! ([`relc_locks::TwoPhaseEngine::set_try_only`]) — on contention the
//! whole transaction rolls back and retries with backoff instead of
//! blocking, so no wait-for cycle can form through two shards.
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
//!
//! [`RelationSchema::canonical_key`]: relc_spec::RelationSchema::canonical_key
//! [`Transaction`]: crate::Transaction

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

use relc_spec::{ColumnSet, RangePattern, Tuple};

use crate::decomp::Decomposition;
use crate::error::CoreError;
use crate::placement::LockPlacement;
use crate::query::select_range_rows;
use crate::relation::{ConcurrentRelation, Layout, Relation};
use crate::wal::{RecoveryReport, WalOptions};

/// The router's seed. Any value works — what matters is that the routing
/// hash stream is not the stripe/bucket stream (see the module docs on
/// decorrelation) — but it is fixed so shard assignment is reproducible
/// across runs and a durable relation's log directory reopens with every
/// tuple in the shard that logged it.
const ROUTER_SEED: u64 = 0x5bd1_e995_9d03_58c3;

/// The [`Layout`] of a relation hash-partitioned over several instances by
/// a seeded hash of its canonical key columns. See the [module docs](self).
pub struct Shards {
    shards: Vec<ConcurrentRelation>,
    route_by: ColumnSet,
}

/// A relation partitioned over several instances.
pub type ShardedRelation = Relation<Shards>;

impl crate::relation::sealed::Sealed for Shards {}

impl Layout for Shards {
    fn router(rel: &Relation<Self>) -> Router<'_> {
        let layout = rel.layout();
        Router::new(&layout.shards, layout.route_by)
    }
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
        // One snapshot registry shared by every shard: a reader spanning
        // them registers once and establishes a single retirement floor
        // for the whole relation (and only for it).
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
        Ok(Relation::with_layout(Shards { shards, route_by }))
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
        Self::new(decomp, placement, shards)?
            .open_logs(dir.as_ref(), opts, |i| format!("shard-{i}"))
    }

    /// The columns the router partitions on (the schema's canonical key).
    pub fn route_by(&self) -> ColumnSet {
        self.layout().route_by
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.layout().shards.len()
    }

    /// The underlying per-shard relations (diagnostics and tests; tuples
    /// are owned by exactly the shard the router names).
    pub fn shards(&self) -> &[ConcurrentRelation] {
        &self.layout().shards
    }

    /// The shard owning any tuple whose canonical-key projection equals
    /// `t`'s. `t` must bind every routing column (full tuples always do).
    pub fn shard_of(&self, t: &Tuple) -> usize {
        self.router().shard_of(t)
    }
}

mod route {
    use super::*;

    /// A relation's instances and the columns that route a tuple to one of
    /// them. With one instance every pattern routes to it, without hashing
    /// and without looking at the columns.
    #[derive(Clone, Copy)]
    pub struct Router<'a> {
        pub(crate) instances: &'a [ConcurrentRelation],
        route_by: ColumnSet,
    }

    impl<'a> Router<'a> {
        pub(crate) fn new(instances: &'a [ConcurrentRelation], route_by: ColumnSet) -> Self {
            Router {
                instances,
                route_by,
            }
        }

        /// The instance owning any tuple whose routing-column projection
        /// equals `t`'s. `t` must bind every routing column.
        pub(crate) fn shard_of(&self, t: &Tuple) -> usize {
            match self.instances.len() {
                1 => 0,
                n => {
                    debug_assert!(self.route_by.is_subset(t.dom()));
                    (t.stable_hash_of_seeded(self.route_by, ROUTER_SEED) % n as u64) as usize
                }
            }
        }

        /// Routes a pattern: `Some(instance)` when it binds every routing
        /// column (or there is one instance), `None` when the operation
        /// must fan out.
        pub(crate) fn route(&self, pattern: &Tuple) -> Option<usize> {
            (self.instances.len() == 1 || self.route_by.is_subset(pattern.dom()))
                .then(|| self.shard_of(pattern))
        }

        /// The instance an `insert r s t` goes to: the owner of `s ∪ t`.
        /// A pair that is not a routable full tuple goes to instance 0,
        /// whose validation rejects it with the canonical §2 error before
        /// applying an effect.
        pub(crate) fn route_row(&self, s: &Tuple, t: &Tuple) -> usize {
            if self.instances.len() == 1 {
                return 0;
            }
            s.union(t).ok().and_then(|x| self.route(&x)).unwrap_or(0)
        }

        /// Route-or-fan-out for `query`: the owning instance's answer when
        /// `s` routes, else the sorted union of every instance's. `read`
        /// reads one instance, under a transaction's locks or at a
        /// reader's snapshot.
        pub(crate) fn fan_query<E>(
            &self,
            s: &Tuple,
            mut read: impl FnMut(usize) -> Result<Vec<Tuple>, E>,
        ) -> Result<Vec<Tuple>, E> {
            if let Some(i) = self.route(s) {
                return read(i);
            }
            let mut acc: BTreeSet<Tuple> = BTreeSet::new();
            for i in 0..self.instances.len() {
                acc.extend(read(i)?);
            }
            Ok(acc.into_iter().collect())
        }

        /// Route-or-fan-out for `query_range`: fan-out patterns read every
        /// instance **uncapped** with the range column added to the
        /// projection, then merge, order, deduplicate, and cap globally — a
        /// per-instance cap could drop a projection whose in-instance
        /// predecessors dedup away against other instances' results. The
        /// merge is the evaluator's range rule
        /// ([`select_range_rows`](crate::query::select_range_rows)) over
        /// the merged tuples, compared field by field; only the tuples it
        /// keeps are projected onto `cols`.
        pub(crate) fn fan_query_range<E>(
            &self,
            s: &Tuple,
            range: &RangePattern,
            cols: ColumnSet,
            mut read: impl FnMut(usize, &RangePattern, ColumnSet) -> Result<Vec<Tuple>, E>,
        ) -> Result<Vec<Tuple>, E> {
            if let Some(i) = self.route(s) {
                return read(i, range, cols);
            }
            let ext = cols.with(range.col());
            let uncapped = range.without_limit();
            let mut acc: Vec<Tuple> = Vec::new();
            for i in 0..self.instances.len() {
                acc.extend(read(i, &uncapped, ext)?);
            }
            let value = |i: usize, c| acc[i].get(c);
            let inside = (0..acc.len())
                .filter(|&i| value(i, range.col()).is_some_and(|v| range.contains(v)))
                .collect();
            let cmp_on = |i, j, on: ColumnSet| {
                on.iter()
                    .map(|c| value(i, c).cmp(&value(j, c)))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            };
            let kept = select_range_rows(
                inside,
                range.limit(),
                cols.contains(range.col()),
                |i, j| value(i, range.col()).cmp(&value(j, range.col())),
                |i, j| cmp_on(i, j, cols),
            );
            Ok(kept.into_iter().map(|i| acc[i].project(cols)).collect())
        }

        /// Route-or-fan-out for `contains`: fan-out patterns probe
        /// instances in ascending order and stop at the first with a
        /// witness.
        pub(crate) fn fan_contains<E>(
            &self,
            s: &Tuple,
            mut probe: impl FnMut(usize) -> Result<bool, E>,
        ) -> Result<bool, E> {
            if let Some(i) = self.route(s) {
                return probe(i);
            }
            for i in 0..self.instances.len() {
                if probe(i)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }
}

pub(crate) use route::Router;
