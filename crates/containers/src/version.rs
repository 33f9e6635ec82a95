//! Multiversion cells and the version index: the per-entry version chains
//! behind MVCC snapshot reads, and the per-edge structure that finds them.
//!
//! A [`VersionCell`] holds a lock-free, epoch-managed chain of
//! `(commit stamp, value)` nodes, newest first. Mutation (`push`,
//! `truncate`) is only ever performed by a writer that holds the entry's
//! synthesized two-phase locks — writers to the same entry are already
//! serialized by the lock placement, so the chain needs no CAS loops —
//! while readers traverse it with nothing but an epoch guard, resolving
//! the newest version committed at or before their snapshot timestamp.
//!
//! Invariants (maintained by the caller's locking discipline plus the
//! commit clock's commit-before-lock-release ordering):
//!
//! * below the head, stamps are committed and strictly decreasing;
//! * only the head may be tentative ([`TENTATIVE_TS`]), and a tentative
//!   head is invisible to every reader (no snapshot can reach
//!   `u64::MAX`);
//! * a push carrying the *same* stamp as the head replaces the head in
//!   place, so an attempt holds at most one version of an entry — which is
//!   what lets an aborted attempt take its write back by dropping the head
//!   ([`VersionIndex::revert`]).
//!
//! A [`VersionIndex`] is one decomposition edge instance's map from entry
//! key to chain, in the [`EdgeShape`] of the edge's container kind: one
//! chain stored inline for an edge that holds at most one entry, a
//! split-ordered hash list with the chain embedded in its entry for a
//! hash-keyed edge, a skip list with the chain embedded in its node for
//! every other. The index is the edge's only structure: a reader holding
//! the edge's locks reads its [newest](VersionIndex::newest) versions.
//!
//! Retired nodes go through the epoch collector, so they are counted by
//! [`ReclamationStats`](crate::ReclamationStats); this module additionally
//! keeps process-global [`VersionStats`] counters (`created` / `retired`)
//! so tests can prove superseded versions are actually reclaimed.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Bound, ControlFlow, RangeBounds};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;

use crossbeam::epoch::{self, Atomic, Guard, Owned, Pointer, Shared};
use relc_locks::{CommitStamp, TENTATIVE_TS};

use crate::api::{ContainerKind, EdgeShape, Key, Val};
use crate::extsync::ExtSyncCell;
use crate::skiplist::SkipList;
use crate::split_list::SplitList;

/// Process-global count of version nodes ever created.
static VERSIONS_CREATED: AtomicU64 = AtomicU64::new(0);
/// Process-global count of version nodes retired (handed to the epoch
/// collector or freed on cell drop).
static VERSIONS_RETIRED: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the process-global version-node counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VersionStats {
    /// Version nodes ever created.
    pub created: u64,
    /// Version nodes retired. Trails `created` by the number of nodes
    /// still live in version chains.
    pub retired: u64,
}

impl VersionStats {
    /// Version nodes currently live (created minus retired).
    pub fn live(&self) -> u64 {
        self.created.saturating_sub(self.retired)
    }
}

impl fmt::Display for VersionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "versions-created={} versions-retired={} live={}",
            self.created,
            self.retired,
            self.live()
        )
    }
}

/// Reads the process-global version-node counters.
pub fn version_stats() -> VersionStats {
    VersionStats {
        created: VERSIONS_CREATED.load(Relaxed),
        retired: VERSIONS_RETIRED.load(Relaxed),
    }
}

/// One link in a version chain. `value: None` is a tombstone (the entry
/// was absent as of `stamp`).
struct VersionNode<V> {
    stamp: Arc<CommitStamp>,
    value: Option<V>,
    prev: Atomic<VersionNode<V>>,
}

/// An entry's multiversion history. See the module docs of `version.rs`.
pub struct VersionCell<V> {
    head: Atomic<VersionNode<V>>,
}

impl<V> fmt::Debug for VersionCell<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("VersionCell {{ .. }}")
    }
}

fn retire_to_collector<V>(node: Shared<'_, VersionNode<V>>, guard: &Guard) {
    VERSIONS_RETIRED.fetch_add(1, Relaxed);
    // Safety: the caller has unlinked `node` from the chain while holding
    // the entry's write locks, so no new reader can reach it; in-flight
    // readers are protected by their epoch guards until quiescence.
    unsafe { guard.defer_destroy(node) };
}

impl<V: Clone> VersionCell<V> {
    /// Creates a cell whose chain starts with `(stamp, value)`.
    pub fn new(stamp: Arc<CommitStamp>, value: Option<V>) -> Self {
        VERSIONS_CREATED.fetch_add(1, Relaxed);
        VersionCell {
            head: Atomic::new(VersionNode {
                stamp,
                value,
                prev: Atomic::null(),
            }),
        }
    }

    /// A cell with no history yet: absent at every snapshot.
    fn empty() -> Self {
        VersionCell {
            head: Atomic::null(),
        }
    }

    /// Pushes a new version. Caller must hold the entry's write locks
    /// (same-entry pushes are serialized by 2PL). A push with the same
    /// stamp `Arc` as the current head replaces the head in place.
    pub fn push(&self, stamp: Arc<CommitStamp>, value: Option<V>, guard: &Guard) {
        let head = self.head.load(SeqCst, guard);
        // SAFETY: `head` was loaded under `guard` and chain nodes are
        // retired through the epoch collector, so it is live here.
        let prev = match unsafe { head.as_ref() } {
            Some(h) if Arc::ptr_eq(&h.stamp, &stamp) => {
                // Same transaction attempt rewrote this entry: collapse
                // to one node.
                h.prev.load(SeqCst, guard)
            }
            _ => head,
        };
        VERSIONS_CREATED.fetch_add(1, Relaxed);
        let node = Owned::new(VersionNode {
            stamp,
            value,
            prev: Atomic::null(),
        })
        .into_shared(guard);
        // SAFETY: `node` was allocated two lines up and is not yet
        // published; it is trivially live and non-null.
        unsafe { node.deref() }.prev.store(prev, SeqCst);
        self.head.store(node, SeqCst);
        if prev != head {
            // Replaced in place: the old head is unreachable from the
            // chain now (in-flight readers may still hold it).
            retire_to_collector(head, guard);
        }
    }

    /// Resolves the newest version committed at or before `snap`:
    /// `Some(v)` if that version is live, `None` if it is a tombstone or
    /// the chain has no version that old (the entry did not exist yet at
    /// `snap`). Lock-free; requires only an epoch guard.
    pub fn resolve(&self, snap: u64, guard: &Guard) -> Option<V> {
        self.resolve_ref(snap, guard).cloned()
    }

    /// [`resolve`](Self::resolve) without the clone: a borrow of the
    /// version's value, good while both the guard stays pinned (retired
    /// versions outlive it) and the cell is borrowed (a dropped cell frees
    /// its chain eagerly).
    fn resolve_ref<'g>(&'g self, snap: u64, guard: &'g Guard) -> Option<&'g V> {
        if snap == TENTATIVE_TS {
            // Every stamp is at or below it: the head, without loading
            // its stamp.
            return self.newest(guard);
        }
        let mut cur = self.head.load(SeqCst, guard);
        // SAFETY: every link was loaded under `guard`; retired nodes
        // outlive all guards pinned before their unlink.
        while let Some(node) = unsafe { cur.as_ref() } {
            // Tentative stamps load as u64::MAX, so they are skipped like
            // any future-committed version.
            if node.stamp.load() <= snap {
                return node.value.as_ref();
            }
            cur = node.prev.load(SeqCst, guard);
        }
        None
    }

    /// Drops every version strictly older than the newest committed
    /// version at or before `min_active` (the keeper). Caller must hold
    /// the entry's write locks. Safe because every in-flight reader's
    /// snapshot is `≥ min_active`, so the keeper (or something newer) is
    /// the version any of them resolves.
    pub fn truncate(&self, min_active: u64, guard: &Guard) {
        let mut cur = self.head.load(SeqCst, guard);
        // Find the keeper.
        let keeper = loop {
            // SAFETY: loaded under `guard`; the caller's write locks keep
            // any concurrent truncation out, so links stay reachable.
            match unsafe { cur.as_ref() } {
                Some(node) if node.stamp.load() > min_active => {
                    cur = node.prev.load(SeqCst, guard);
                }
                other => break other,
            }
        };
        let Some(keeper) = keeper else { return };
        // Cut everything below it. In-flight readers that already walked
        // past the keeper keep following the (intact) prev pointers of
        // the cut nodes until their guards quiesce.
        Self::cut(&keeper.prev, guard);
    }

    /// Detaches the chain hanging off `link` and retires every node of
    /// it. Caller must hold the entry's write locks.
    fn cut(link: &Atomic<VersionNode<V>>, guard: &Guard) {
        let mut cut = link.swap(Shared::null(), SeqCst, guard);
        // SAFETY: the cut nodes were just unlinked by this thread (which
        // holds the entry's write locks) and are not yet handed to the
        // collector, so each is still live while we walk it.
        while let Some(node) = unsafe { cut.as_ref() } {
            let next = node.prev.load(SeqCst, guard);
            retire_to_collector(cut, guard);
            cut = next;
        }
    }

    /// Snapshot of the chain's stamps, newest first: `(stamp, is_live)`
    /// pairs where `is_live` is `false` for tombstones. A tentative head
    /// reports as `u64::MAX`. Lock-free; requires only an epoch guard.
    /// Intended for invariant checking — the chain below the head must be
    /// strictly decreasing and fully committed.
    pub fn chain_stamps(&self, guard: &Guard) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        let mut cur = self.head.load(SeqCst, guard);
        // SAFETY: every link was loaded under `guard`; see `resolve`.
        while let Some(node) = unsafe { cur.as_ref() } {
            out.push((node.stamp.load(), node.value.is_some()));
            cur = node.prev.load(SeqCst, guard);
        }
        out
    }

    /// Whether this cell will never be visible to any present or future
    /// reader: its entire history is one committed tombstone at or before
    /// `min_active`. Call after [`truncate`](Self::truncate) with the
    /// same bound; caller must hold the entry's write locks. A dead
    /// cell's index entry may be unlinked.
    pub fn is_dead(&self, min_active: u64, guard: &Guard) -> bool {
        let head = self.head.load(SeqCst, guard);
        // SAFETY: loaded under `guard`; see `push` for chain liveness.
        match unsafe { head.as_ref() } {
            Some(node) => {
                node.value.is_none()
                    && node.stamp.load() <= min_active
                    && node.prev.load(SeqCst, guard).is_null()
            }
            None => true,
        }
    }

    /// The newest version, committed or not.
    fn head_node<'g>(&'g self, guard: &'g Guard) -> Option<&'g VersionNode<V>> {
        // SAFETY: loaded under `guard`; see `push` for chain liveness.
        unsafe { self.head.load(SeqCst, guard).as_ref() }
    }

    /// The value of the newest version, committed or not — what the
    /// entry holds as far as the writer that holds its locks can tell. A
    /// node's value is never written after the node is published.
    fn newest<'g>(&'g self, guard: &'g Guard) -> Option<&'g V> {
        self.head_node(guard).and_then(|node| node.value.as_ref())
    }

    /// Drops the head if it is the version the attempt holding `stamp`
    /// pushed (at most one is: see [`push`](Self::push)), leaving the chain
    /// as that attempt found it. Caller must hold the entry's write locks.
    fn pop(&self, stamp: &Arc<CommitStamp>, guard: &Guard) {
        let head = self.head.load(SeqCst, guard);
        // SAFETY: loaded under `guard`; see `push` for chain liveness.
        if let Some(h) = unsafe { head.as_ref() }.filter(|h| Arc::ptr_eq(&h.stamp, stamp)) {
            self.head.store(h.prev.load(SeqCst, guard), SeqCst);
            retire_to_collector(head, guard);
        }
    }

    /// Whether the chain holds no version at all.
    fn is_empty(&self, guard: &Guard) -> bool {
        self.head.load(SeqCst, guard).is_null()
    }

    /// Retirement of a chain that nothing else owns: truncates to
    /// `min_active` and, if what is left [is dead](Self::is_dead), drops
    /// that too, leaving the cell empty. Same contract as
    /// [`truncate`](Self::truncate).
    fn truncate_to_empty(&self, min_active: u64, guard: &Guard) {
        self.truncate(min_active, guard);
        if self.is_dead(min_active, guard) {
            Self::cut(&self.head, guard);
        }
    }
}

impl<V> Drop for VersionCell<V> {
    fn drop(&mut self) {
        // Safety: drop means no thread can reach this cell anymore, so
        // the chain can be freed eagerly.
        let guard = unsafe { epoch::unprotected() };
        let mut cur = self.head.load(SeqCst, guard);
        while let Some(node) = unsafe { cur.as_ref() } {
            let next = node.prev.load(SeqCst, guard);
            VERSIONS_RETIRED.fetch_add(1, Relaxed);
            // SAFETY: `drop` gives exclusive ownership of the whole
            // chain; each node is reachable exactly once.
            drop(unsafe { cur.into_owned() });
            cur = next;
        }
    }
}

/// The version index of one decomposition edge instance: entry key → that
/// entry's version chain. **The index follows the edge**: its shape is
/// fixed at construction from the [`ContainerKind`] of the edge
/// ([`VersionIndex::for_kind`]) and never changes.
///
/// * An edge that holds at most one entry at a time
///   ([`ContainerKind::Singleton`]) has the *one-chain* shape: the index
///   **is** one [`VersionCell`], stored inline, whose versions carry the
///   `(entry key, value)` pair the edge held. The edge's history is a
///   single sequence of states, so one chain records all of it; replacing
///   the entry — tombstone the old key, write the new one, under one stamp —
///   collapses to one version (the same-stamp rule of
///   [`VersionCell::push`]) instead of an unlink and a relink.
/// * A hash-keyed edge ([`ContainerKind::HashMap`],
///   [`ContainerKind::ConcurrentHashMap`]) has the *hash* shape: a
///   split-ordered list (Shalev & Shavit) whose entry **embeds** the entry's
///   `VersionCell`. A point read is one bucket's walk, not a descent of key
///   comparisons; a walk goes in the list's hash order, so a bounded walk
///   filters every entry to the bounds.
/// * Every other edge has the *sorted* shape: a lazy skip list (the
///   algorithm of [`ConcurrentSkipListMap`](crate::ConcurrentSkipListMap),
///   shared) whose node embeds the entry's `VersionCell`, walked in key
///   order.
///
/// On both multi-entry shapes the cell is embedded — no box, no reference
/// count — and an entry whose whole history is one dead tombstone is
/// unlinked: the collector frees it together with what is left of its
/// chain, as one deferred destruction.
///
/// Reads take the caller's epoch guard and return borrows good for as
/// long as that guard *and* the index are held: one pin covers a whole
/// traversal, and resolving a version touches no reference count.
///
/// Writes follow the [`VersionCell`] contract: the caller holds the
/// entry's write locks, so same-entry mutation is serialized; writers of
/// *different* entries of a multi-entry index may run concurrently.
///
/// Every shape is also the edge's state as its writers leave it, tentative
/// writes included: the [`newest`](Self::newest) view reads each entry's
/// head version.
pub struct VersionIndex<K, V> {
    shape: Shape<K, V>,
}

enum Shape<K, V> {
    One(VersionCell<(K, V)>),
    Sorted(Entries<K, V, SkipList<K, VersionCell<V>>>),
    Hashed(Entries<K, V, SplitList<K, VersionCell<V>>>),
}

/// What a multi-entry shape needs of the list it keeps its entries in —
/// the skip list of the sorted shape, the split-ordered list of the hash
/// shape. Every read runs under the caller's epoch guard and hands back
/// borrows tied to it. Writers of one key are serialized by the caller;
/// writers of different keys may run at once.
pub(crate) trait EntryList<K, P> {
    /// Whether the list's order is key order.
    const SORTED: bool;

    /// An empty list.
    fn new() -> Self;

    /// The address of the list's first node, for a prefetch.
    fn first(&self, guard: &Guard) -> *const u8;

    /// The payload of the live entry `key`, if there is one.
    fn get<'g>(&'g self, key: &K, guard: &'g Guard) -> Option<&'g P>;

    /// Visits the live entries between `lo` and `hi`, bounds and visits
    /// both in the list's order, until `f` breaks. A bound names a position
    /// whether or not its key is in the list. Weakly consistent: entries
    /// linked or unlinked behind the walk are not revisited, and an entry
    /// present throughout is visited.
    fn walk<'g>(
        &'g self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        guard: &'g Guard,
        f: impl FnMut(&'g K, &'g P) -> ControlFlow<()>,
    ) where
        K: 'g,
        P: 'g;

    /// If `key` is present, runs `update` on its payload under the entry's
    /// lock (which excludes a racing `remove` of it) and returns its result;
    /// otherwise links a new entry carrying `make`'s payload and returns
    /// `None`. `seed` goes to whichever of the two runs.
    fn upsert<T, R>(
        &self,
        key: &K,
        guard: &Guard,
        seed: T,
        update: impl FnOnce(&P, T) -> R,
        make: impl FnOnce(T) -> P,
    ) -> Option<R>;

    /// Unlinks `key`'s entry, if one is linked, and hands it to the
    /// collector; `take` reads the payload once the entry is unreachable to
    /// new readers.
    fn remove<R>(&self, key: &K, guard: &Guard, take: impl FnOnce(&P) -> R) -> Option<R>;
}

/// A multi-entry shape: the list, and what the index keeps beside it.
struct Entries<K, V, L> {
    list: L,
    /// Entries whose head version is live: the newest view's length, kept
    /// by [`VersionIndex::write`] and [`VersionIndex::revert`].
    live: AtomicUsize,
    /// Where the next [`VersionIndex::sweep`] step resumes: the last entry
    /// the previous step visited, `None` at the start. Written only by a
    /// sweep, whose caller holds the whole index's locks.
    cursor: ExtSyncCell<Option<K>>,
    _values: PhantomData<V>,
}

/// Counts an entry whose head went from live `was` to live `now`.
fn recount(live: &AtomicUsize, was: bool, now: bool) {
    if now && !was {
        live.fetch_add(1, SeqCst);
    } else if was && !now {
        live.fetch_sub(1, SeqCst);
    }
}

impl<K: Key, V: Val, L: EntryList<K, VersionCell<V>>> Entries<K, V, L> {
    fn new() -> Self {
        Entries {
            list: L::new(),
            live: AtomicUsize::new(0),
            cursor: ExtSyncCell::new(None),
            _values: PhantomData,
        }
    }

    fn write(&self, key: &K, stamp: Arc<CommitStamp>, value: Option<V>, guard: &Guard) -> bool {
        let now = value.is_some();
        let was = self
            .list
            .upsert(
                key,
                guard,
                (stamp, value),
                |cell, (stamp, value)| {
                    let was = cell.newest(guard).is_some();
                    cell.push(stamp, value, guard);
                    was
                },
                |(stamp, value)| VersionCell::new(stamp, value),
            )
            .unwrap_or(false);
        recount(&self.live, was, now);
        was
    }

    fn revert<'g>(&'g self, key: &K, stamp: &Arc<CommitStamp>, guard: &'g Guard) -> Option<&'g V> {
        let cell = self.list.get(key, guard)?;
        let was = cell.newest(guard).is_some();
        cell.pop(stamp, guard);
        let found = cell.newest(guard);
        recount(&self.live, was, found.is_some());
        if cell.is_empty(guard) {
            self.list.remove(key, guard, |_| ());
        }
        found
    }

    fn walk<'g>(
        &'g self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        snap: u64,
        guard: &'g Guard,
        mut f: impl FnMut(&'g K, &'g V) -> ControlFlow<()>,
    ) {
        let mut visit = |k: &'g K, cell: &'g VersionCell<V>| match cell.resolve_ref(snap, guard) {
            Some(v) => f(k, v),
            None => ControlFlow::Continue(()),
        };
        if L::SORTED {
            self.list.walk(lo, hi, guard, visit);
        } else {
            self.list
                .walk(Bound::Unbounded, Bound::Unbounded, guard, |k, cell| {
                    if (lo, hi).contains(k) {
                        visit(k, cell)
                    } else {
                        ControlFlow::Continue(())
                    }
                });
        }
    }

    fn prefetch(&self, beyond: bool, guard: &Guard) {
        if beyond {
            self.list
                .walk(Bound::Unbounded, Bound::Unbounded, guard, |_, cell| {
                    crate::prefetch(cell.head.load(SeqCst, guard).into_ptr());
                    ControlFlow::Break(())
                });
        } else {
            crate::prefetch(self.list.first(guard));
        }
    }

    fn retire(&self, key: &K, floor: u64, guard: &Guard) {
        let Some(cell) = self.list.get(key, guard) else {
            return;
        };
        cell.truncate(floor, guard);
        if cell.is_dead(floor, guard) {
            self.list.remove(key, guard, |_| ());
        }
    }

    fn sweep<'g>(&'g self, floor: u64, budget: usize, guard: &'g Guard) -> usize {
        self.cursor.write(|cursor| {
            let mut visited = 0;
            let mut cut_short = false;
            let mut last: Option<&K> = None;
            let mut dead: Vec<&K> = Vec::new();
            let mut visit = |key: &'g K, cell: &'g VersionCell<V>| {
                if visited == budget {
                    cut_short = true;
                    return ControlFlow::Break(());
                }
                visited += 1;
                cell.truncate(floor, guard);
                if cell.is_dead(floor, guard) {
                    dead.push(key);
                }
                last = Some(key);
                ControlFlow::Continue(())
            };
            match cursor.as_ref() {
                None => self
                    .list
                    .walk(Bound::Unbounded, Bound::Unbounded, guard, &mut visit),
                Some(from) => {
                    self.list
                        .walk(Bound::Excluded(from), Bound::Unbounded, guard, &mut visit);
                    // Past the wrap; a spent budget breaks at once.
                    self.list
                        .walk(Bound::Unbounded, Bound::Included(from), guard, &mut visit);
                }
            }
            // A step that went all the way round leaves no cursor: the
            // next one starts at the first entry.
            *cursor = last.filter(|_| cut_short).cloned();
            for key in dead {
                self.list.remove(key, guard, |_| ());
            }
            visited
        })
    }

    fn chains(&self, guard: &Guard, f: &mut impl FnMut(Option<&K>, Vec<(u64, bool)>)) {
        self.list
            .walk(Bound::Unbounded, Bound::Unbounded, guard, |key, cell| {
                f(Some(key), cell.chain_stamps(guard));
                ControlFlow::Continue(())
            });
    }
}

impl<K: Key, V: Val> VersionIndex<K, V> {
    /// The index for an edge of container kind `kind`, in the kind's
    /// [shape](ContainerKind::shape). Each shape is safe for unlocked
    /// readers and for writers of different keys at once, so it serves
    /// every placement the kind's Figure 1 row admits; a kind whose row
    /// asks for more locks (`HashMap`, `TreeMap`, `SplayTreeMap`) asks
    /// less of its index than it gives.
    pub fn for_kind(kind: ContainerKind) -> Self {
        VersionIndex {
            shape: match kind.shape() {
                EdgeShape::OneEntry => Shape::One(VersionCell::empty()),
                EdgeShape::Hashed => Shape::Hashed(Entries::new()),
                EdgeShape::Sorted => Shape::Sorted(Entries::new()),
            },
        }
    }

    /// Records that as of `stamp` the entry `key` holds `value` (`None`:
    /// is absent), and returns whether the entry was present just before,
    /// in the [newest](Self::newest) view. Caller must hold the entry's
    /// write locks.
    ///
    /// On the one-chain shape a live write *is* the edge's new state
    /// (whatever key it held before), and a tombstone applies only if
    /// `key` is the entry the edge holds now.
    pub fn write(&self, key: &K, stamp: Arc<CommitStamp>, value: Option<V>, guard: &Guard) -> bool {
        match &self.shape {
            Shape::One(cell) => {
                let held = cell.newest(guard).is_some_and(|(held, _)| held == key);
                match value {
                    Some(v) => cell.push(stamp, Some((key.clone(), v)), guard),
                    None if held => cell.push(stamp, None, guard),
                    None => {}
                }
                held
            }
            Shape::Sorted(entries) => entries.write(key, stamp, value, guard),
            Shape::Hashed(entries) => entries.write(key, stamp, value, guard),
        }
    }

    /// Takes back what the attempt holding `stamp` wrote to entry `key` —
    /// its one tentative version, if it is still there — and returns what
    /// the entry holds without it: the value the attempt found, `None` if
    /// it found the entry absent. An entry the attempt created goes with
    /// its version (a multi-entry index unlinks it; a one-chain index falls
    /// back to the `(key, value)` it held before). Caller must hold the
    /// entry's write locks and must not have committed `stamp`.
    pub fn revert<'g>(
        &'g self,
        key: &K,
        stamp: &Arc<CommitStamp>,
        guard: &'g Guard,
    ) -> Option<&'g V> {
        match &self.shape {
            Shape::One(cell) => {
                cell.pop(stamp, guard);
                cell.newest(guard)
                    .filter(|(held, _)| held == key)
                    .map(|(_, v)| v)
            }
            Shape::Sorted(entries) => entries.revert(key, stamp, guard),
            Shape::Hashed(entries) => entries.revert(key, stamp, guard),
        }
    }

    /// The newest view: every entry as its head version has it, tentative
    /// or committed — the edge's state as a reader holding the edge's locks
    /// sees it.
    pub fn newest(&self) -> Newest<'_, K, V> {
        Newest(self)
    }

    /// The value `key` held at snapshot `snap`, if it was present then.
    pub fn get<'g>(&'g self, key: &K, snap: u64, guard: &'g Guard) -> Option<&'g V> {
        match &self.shape {
            Shape::One(cell) => cell
                .resolve_ref(snap, guard)
                .filter(|(held, _)| held == key)
                .map(|(_, v)| v),
            Shape::Sorted(entries) => entries.list.get(key, guard)?.resolve_ref(snap, guard),
            Shape::Hashed(entries) => entries.list.get(key, guard)?.resolve_ref(snap, guard),
        }
    }

    /// Visits the entries present at snapshot `snap` whose keys lie in
    /// `[lo, hi]`, until `f` breaks: in key order on the sorted shape, in
    /// the hash shape's own order there.
    pub fn walk<'g>(
        &'g self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        snap: u64,
        guard: &'g Guard,
        mut f: impl FnMut(&'g K, &'g V) -> ControlFlow<()>,
    ) {
        match &self.shape {
            Shape::One(cell) => {
                if let Some((k, v)) = cell.resolve_ref(snap, guard) {
                    if (lo, hi).contains(k) {
                        let _ = f(k, v);
                    }
                }
            }
            Shape::Sorted(entries) => entries.walk(lo, hi, snap, guard, f),
            Shape::Hashed(entries) => entries.walk(lo, hi, snap, guard, f),
        }
    }

    /// Starts loading where a read of this index goes first, without
    /// waiting for it: the entry point — the head version on the one-chain
    /// shape, the first node of a multi-entry shape's list — or, with
    /// `beyond`, the hop after it: that version's commit stamp, or the
    /// first entry's head version. A hint with no effect on what any read
    /// returns; a `beyond` call reads the entry point, so it pays off after
    /// a plain one.
    pub fn prefetch(&self, beyond: bool, guard: &Guard) {
        match &self.shape {
            Shape::One(cell) if beyond => {
                if let Some(node) = cell.head_node(guard) {
                    crate::prefetch(Arc::as_ptr(&node.stamp));
                }
            }
            Shape::One(cell) => crate::prefetch(cell.head.load(SeqCst, guard).into_ptr()),
            Shape::Sorted(entries) => entries.prefetch(beyond, guard),
            Shape::Hashed(entries) => entries.prefetch(beyond, guard),
        }
    }

    /// Retires what no reader at or after `floor` can see of entry `key`:
    /// truncates its chain to the newest version at or below `floor` and
    /// drops the entry altogether once its whole history is one tombstone
    /// there. Caller must hold the entry's write locks (and found the
    /// entry by writing it: it is warm).
    pub fn retire(&self, key: &K, floor: u64, guard: &Guard) {
        match &self.shape {
            Shape::One(cell) => cell.truncate_to_empty(floor, guard),
            Shape::Sorted(entries) => entries.retire(key, floor, guard),
            Shape::Hashed(entries) => entries.retire(key, floor, guard),
        }
    }

    /// One step of the resumable sweep: [`retire`](Self::retire) for up to
    /// `budget` entries, returning how many it visited. A step resumes
    /// just after the cursor — the last entry the previous step visited —
    /// in the index's own order (key order on the sorted shape, the
    /// split-ordered list's on the hash shape, which no resize changes) and
    /// wraps from the end of the index to its start, visiting no entry
    /// twice; a cursor whose own entry was unlinked in between resumes at
    /// its successor. A step cut short by its budget leaves the cursor on
    /// its last entry, so consecutive steps walk the index round and visit
    /// every entry present throughout within ⌈N / budget⌉ steps of an
    /// N-entry index. `usize::MAX` sweeps the whole index (the one-chain
    /// shape is one entry). Caller must hold write locks covering the whole
    /// index.
    pub fn sweep(&self, floor: u64, budget: usize, guard: &Guard) -> usize {
        match &self.shape {
            Shape::One(cell) => {
                if budget == 0 || cell.is_empty(guard) {
                    return 0;
                }
                cell.truncate_to_empty(floor, guard);
                1
            }
            Shape::Sorted(entries) => entries.sweep(floor, budget, guard),
            Shape::Hashed(entries) => entries.sweep(floor, budget, guard),
        }
    }

    /// Invariant-checking view: every entry's
    /// [`chain_stamps`](VersionCell::chain_stamps), in the index's own
    /// order, with the entry key it belongs to — `None` on the one-chain
    /// shape, whose chain spans keys and is reported only when it is not
    /// empty. An entry of a multi-entry shape is reported whatever its
    /// chain holds, so an entry left with an empty chain shows.
    pub fn chains(&self, guard: &Guard, mut f: impl FnMut(Option<&K>, Vec<(u64, bool)>)) {
        match &self.shape {
            Shape::One(cell) => {
                let stamps = cell.chain_stamps(guard);
                if !stamps.is_empty() {
                    f(None, stamps);
                }
            }
            Shape::Sorted(entries) => entries.chains(guard, &mut f),
            Shape::Hashed(entries) => entries.chains(guard, &mut f),
        }
    }

    /// Test support: links entry `key` with no version at all — what a
    /// rollback that forgot to unlink an entry it emptied would leave — so
    /// that invariant checks can be shown to catch it. Does nothing on the
    /// one-chain shape, whose empty chain is an empty edge.
    #[doc(hidden)]
    pub fn plant_empty_entry(&self, key: &K) {
        let guard = epoch::pin();
        let plant = |_| VersionCell::empty();
        match &self.shape {
            Shape::One(_) => {}
            Shape::Sorted(entries) => {
                entries.list.upsert(key, &guard, (), |_, _| (), plant);
            }
            Shape::Hashed(entries) => {
                entries.list.upsert(key, &guard, (), |_, _| (), plant);
            }
        }
    }
}

/// A [`VersionIndex`] read at its head versions
/// ([`VersionIndex::newest`]): each entry's newest version, tentative
/// included, and an entry whose head is a tombstone absent — a tombstone
/// kept for an older snapshot reader too. No snapshot reaches
/// [`TENTATIVE_TS`], the stamp a tentative head loads as, so the view is
/// the index read at that timestamp, which resolves every chain at its
/// head without loading a stamp.
pub struct Newest<'a, K, V>(&'a VersionIndex<K, V>);

impl<'a, K: Key, V: Val> Newest<'a, K, V> {
    /// The value entry `key` holds, if it is present.
    pub fn get<'g>(&self, key: &K, guard: &'g Guard) -> Option<&'g V>
    where
        'a: 'g,
    {
        self.0.get(key, TENTATIVE_TS, guard)
    }

    /// Visits the present entries whose keys lie in `[lo, hi]`, in the
    /// order of [`VersionIndex::walk`], until `f` breaks.
    pub fn walk<'g>(
        &self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        guard: &'g Guard,
        f: impl FnMut(&'g K, &'g V) -> ControlFlow<()>,
    ) where
        'a: 'g,
    {
        self.0.walk(lo, hi, TENTATIVE_TS, guard, f);
    }

    /// Whether no entry is present: the one chain's head is not live, or
    /// a multi-entry shape counts no live head.
    pub fn is_empty(&self) -> bool {
        match &self.0.shape {
            Shape::One(cell) => cell.newest(&epoch::pin()).is_none(),
            Shape::Sorted(Entries { live, .. }) | Shape::Hashed(Entries { live, .. }) => {
                live.load(SeqCst) == 0
            }
        }
    }
}

impl<K, V> fmt::Debug for VersionIndex<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.shape {
            Shape::One(_) => "VersionIndex::One { .. }",
            Shape::Sorted(_) => "VersionIndex::Sorted { .. }",
            Shape::Hashed(_) => "VersionIndex::Hashed { .. }",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(ts_hint: &mut u64) -> Arc<CommitStamp> {
        let s = CommitStamp::new();
        *ts_hint = relc_locks::commit_clock().commit(&s);
        s
    }

    #[test]
    fn resolve_picks_newest_at_or_below_snapshot() {
        let guard = epoch::pin();
        let mut t1 = 0;
        let s1 = committed(&mut t1);
        let cell = VersionCell::new(s1, Some(10));
        let mut t2 = 0;
        let s2 = committed(&mut t2);
        cell.push(s2, Some(20), &guard);

        assert_eq!(cell.resolve(t1.saturating_sub(1), &guard), None);
        assert_eq!(cell.resolve(t1, &guard), Some(10));
        assert_eq!(cell.resolve(t2 - 1, &guard), Some(10));
        assert_eq!(cell.resolve(t2, &guard), Some(20));
        assert_eq!(cell.resolve(u64::MAX - 1, &guard), Some(20));
    }

    #[test]
    fn tentative_heads_are_invisible_and_same_stamp_replaces() {
        let guard = epoch::pin();
        let mut t1 = 0;
        let s1 = committed(&mut t1);
        let cell = VersionCell::new(s1, Some(1));

        let tentative = CommitStamp::new();
        cell.push(Arc::clone(&tentative), Some(2), &guard);
        // Not yet committed: readers still see the old version.
        assert_eq!(cell.resolve(t1, &guard), Some(1));

        // Rewrite by the same attempt: replaced in place, chain stays
        // two nodes deep.
        let before = version_stats();
        cell.push(Arc::clone(&tentative), Some(3), &guard);
        let after = version_stats();
        assert_eq!(after.created - before.created, 1);
        assert_eq!(after.retired - before.retired, 1);

        let t2 = relc_locks::commit_clock().commit(&tentative);
        assert_eq!(cell.resolve(t2, &guard), Some(3));
        assert_eq!(cell.resolve(t2 - 1, &guard), Some(1));
    }

    #[test]
    fn tombstones_resolve_as_absent() {
        let guard = epoch::pin();
        let mut t1 = 0;
        let s1 = committed(&mut t1);
        let cell: VersionCell<i64> = VersionCell::new(s1, Some(7));
        let mut t2 = 0;
        let s2 = committed(&mut t2);
        cell.push(s2, None, &guard);
        assert_eq!(cell.resolve(t1, &guard), Some(7));
        assert_eq!(cell.resolve(t2, &guard), None);
        assert!(!cell.is_dead(t1, &guard), "older live version still needed");
        cell.truncate(t2, &guard);
        assert!(cell.is_dead(t2, &guard));
    }

    #[test]
    fn truncate_keeps_the_newest_version_at_or_below_the_floor() {
        let guard = epoch::pin();
        let mut ts = [0u64; 4];
        let stamps: Vec<_> = ts.iter_mut().map(committed).collect::<Vec<_>>();
        let cell = VersionCell::new(Arc::clone(&stamps[0]), Some(0));
        for (i, s) in stamps.iter().enumerate().skip(1) {
            cell.push(Arc::clone(s), Some(i as i64), &guard);
        }
        let before = version_stats();
        // Floor between ts[1] and ts[2]: keeper is version 1; versions 0
        // is retired, 2 and 3 stay.
        cell.truncate(ts[1], &guard);
        let after = version_stats();
        assert_eq!(after.retired - before.retired, 1);
        assert_eq!(cell.resolve(ts[1], &guard), Some(1));
        assert_eq!(cell.resolve(ts[3], &guard), Some(3));
        // Floor below everything: nothing to cut.
        cell.truncate(0, &guard);
        assert_eq!(version_stats().retired, after.retired);
    }

    #[test]
    fn drop_frees_the_whole_chain() {
        let mut t = 0;
        let before = version_stats();
        {
            let guard = epoch::pin();
            let cell = VersionCell::new(committed(&mut t), Some(1));
            for i in 0..5 {
                cell.push(committed(&mut t), Some(i), &guard);
            }
        }
        let after = version_stats();
        assert_eq!(after.created - before.created, 6);
        assert_eq!(after.retired - before.retired, 6);
    }
}
