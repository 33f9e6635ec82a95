//! A concurrent skip list — the Rust analog of the JDK
//! `ConcurrentSkipListMap` row of Figure 1: linearizable `lookup` and
//! `write`, *sorted*, weakly-consistent `scan`.
//!
//! The implementation is the lazy skip list of Herlihy et al. (the paper's
//! reference [14] is the same lineage): per-node locks, logical deletion via
//! a `marked` bit, `fully_linked` publication, and unlocked wait-free
//! traversals. Safe memory reclamation uses `crossbeam` epochs: nodes and
//! replaced values are destroyed only after all pinned readers have moved
//! on, and the collector's retired/reclaimed/in-flight counters are
//! surfaced via [`ConcurrentSkipListMap::reclamation_stats`] so churn
//! tests can assert deferral stays bounded.
//!
//! # One algorithm, two faces
//!
//! The algorithm — the tower search, lock-and-validate, link, unlink and
//! the bottom-level walk — is written once, in [`SkipList`], generic over
//! the payload `P` a node carries, behind the [`EntryList`] interface it
//! shares with the split-ordered list of the hash shape.
//! [`ConcurrentSkipListMap`] is the face whose payload is a replaceable
//! value pointer (a [`Slot`]); the sorted shape of
//! [`VersionIndex`](crate::VersionIndex) is the face whose payload is a
//! [`VersionCell`](crate::VersionCell) embedded in the node. Every read of
//! the core runs under the *caller's* epoch guard and returns borrows tied
//! to it, so a face decides how often to pin.
//!
//! # Locking order (deadlock freedom)
//!
//! Both `upsert` and `remove` acquire node locks in **non-increasing key
//! order**: predecessors bottom-up (whose keys are non-increasing with
//! level), and `remove` locks the victim (the largest key involved) first.
//! A thread holding a lock on key `k` therefore never waits for a lock on a
//! key greater than `k`, so the wait-for graph is acyclic.

use std::cmp::Ordering;
use std::ops::{Bound, ControlFlow};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};

use crossbeam::epoch::{self, Atomic, Guard, Owned, Pointer, ReclamationStats, Shared};
use parking_lot::{Mutex, MutexGuard};
use relc_locks::Backoff;

use crate::api::{Container, ContainerKind, Key, Val};
use crate::taxonomy::ContainerProps;
use crate::version::EntryList;

const MAX_HEIGHT: usize = 20;

/// Tower levels a node holds inline. With p = 1/2 heights, 1 node in 2^10
/// is taller and boxes the rest, so a node is one allocation and a descent
/// chases no second pointer per node.
///
/// The number is measured, because a node's allocation size is something
/// clients feel through the system allocator. The effects below were
/// measured over 24-byte `Tuple` keys (a `Vec` of 32-byte fields). With
/// every level above 0 boxed (72-byte nodes, plus a small box for half of
/// them) all that a removed row hands the collector is fastbin-sized:
/// glibc parks such chunks and coalesces them in bursts, and the bursts
/// landed on whichever operation next freed a larger block
/// (`graph_read_mostly` `write_p99_us` +65%). With 8 inline levels a node
/// was 128 bytes — the size class of the evaluator's 4-field tuple buffers
/// — and nodes freed by the other client migrated between the per-thread
/// arenas through that class until both clients convoyed on arena locks
/// (`ops_per_s` −40% some 15 s into a run). Ten levels, 144 bytes, was
/// past the first effect and clear of the second. Over today's 32-byte `Tuple` keys (one field held
/// inline, 16-byte `Value`s) a node is 152 bytes: the same 160-byte glibc
/// chunk, and no longer the class of a 4-field tuple buffer, which is now
/// 96 bytes.
const INLINE_HEIGHT: usize = 10;

/// The linkage of one tower: what the algorithm locks, marks and follows.
/// The head sentinel (conceptually −∞) is only this; every other tower is
/// part of a [`Node`].
#[repr(C)] // keeps the flags and level 0 next to the node's key: see `Node`
struct Links<K, P> {
    lock: Mutex<()>,
    marked: AtomicBool,
    fully_linked: AtomicBool,
    height: u8,
    /// Levels `0..INLINE_HEIGHT`.
    low: [Atomic<Node<K, P>>; INLINE_HEIGHT],
    /// Levels `INLINE_HEIGHT..height`; empty (no allocation) otherwise.
    high: Box<[Atomic<Node<K, P>>]>,
}

impl<K, P> Links<K, P> {
    fn new(height: usize, fully_linked: bool) -> Self {
        Links {
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(fully_linked),
            height: height as u8,
            low: std::array::from_fn(|_| Atomic::null()),
            high: (INLINE_HEIGHT..height).map(|_| Atomic::null()).collect(),
        }
    }

    fn height(&self) -> usize {
        self.height as usize
    }

    fn next(&self, level: usize) -> &Atomic<Node<K, P>> {
        match level.checked_sub(INLINE_HEIGHT) {
            None => &self.low[level],
            Some(l) => &self.high[l],
        }
    }
}

/// One entry of a [`SkipList`]: a key, what the face stores under it, and
/// the tower that links it — in that order in memory, so a bottom-level
/// walk (key, payload, flags, level 0) stays in the node's first 56 bytes.
#[repr(C)]
struct Node<K, P> {
    key: K,
    payload: P,
    links: Links<K, P>,
}

impl<K, P> Node<K, P> {
    /// Whether readers may report this node: published at every level and
    /// not logically deleted.
    fn is_live(&self) -> bool {
        self.links.fully_linked.load(SeqCst) && !self.links.marked.load(SeqCst)
    }
}

/// Result of a tower search: the per-level predecessors and successors of
/// a key, and the highest level at which the key itself was found.
struct Position<'g, K, P> {
    preds: [&'g Links<K, P>; MAX_HEIGHT],
    succs: [Shared<'g, Node<K, P>>; MAX_HEIGHT],
    found: Option<usize>,
}

/// The node locks an `upsert` or `remove` holds while it relinks.
type Held<'g> = [Option<MutexGuard<'g, ()>>; MAX_HEIGHT];

/// Geometric (p = 1/2) random height from a thread-local xorshift generator,
/// seeded deterministically per thread.
fn random_height() -> usize {
    use std::cell::Cell;
    static SEED: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);
    thread_local! {
        static STATE: Cell<u64> =
            Cell::new(SEED.fetch_add(0x9e37_79b9_7f4a_7c15, SeqCst) | 1);
    }
    STATE.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        ((x.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    })
}

/// The lazy skip list itself, generic over the payload `P` of a node. See
/// the [module docs](self).
///
/// A node's payload is dropped with the node: when the collector destroys
/// an unlinked node (after every guard pinned before the unlink has
/// dropped), or eagerly when the list drops.
pub(crate) struct SkipList<K, P> {
    head: Links<K, P>,
}

impl<K: Ord, P> SkipList<K, P> {
    /// The tower search, top level down: at each level, walks right while
    /// keys are `< key`, then reports the level, the last tower before
    /// `key`, the first node not before it (null if none) and whether that
    /// node holds exactly `key`. Stops as soon as `at_level` breaks.
    fn descend<'g, B>(
        &'g self,
        key: &K,
        guard: &'g Guard,
        mut at_level: impl FnMut(usize, &'g Links<K, P>, Shared<'g, Node<K, P>>, bool) -> ControlFlow<B>,
    ) -> Option<B> {
        let mut pred = &self.head;
        for level in (0..MAX_HEIGHT).rev() {
            let mut curr = pred.next(level).load(SeqCst, guard);
            let mut exact = false;
            // SAFETY: nodes reachable under `guard` are not yet destroyed,
            // and `&'g self` keeps the list from dropping them eagerly.
            while let Some(node) = unsafe { curr.as_ref() } {
                match node.key.cmp(key) {
                    Ordering::Less => {
                        pred = &node.links;
                        curr = pred.next(level).load(SeqCst, guard);
                    }
                    ord => {
                        exact = ord == Ordering::Equal;
                        break;
                    }
                }
            }
            if let ControlFlow::Break(b) = at_level(level, pred, curr, exact) {
                return Some(b);
            }
        }
        None
    }

    /// Read-only descent: the first node whose key is `≥ key` (null if
    /// none) and whether it holds exactly `key`. Records no predecessors,
    /// and stops at the first level that meets `key` itself: towers link
    /// bottom-up, so a node seen at any level is on the bottom level too.
    fn seek<'g>(&'g self, key: &K, guard: &'g Guard) -> (Shared<'g, Node<K, P>>, bool) {
        self.descend(key, guard, |level, _, curr, exact| {
            if exact || level == 0 {
                ControlFlow::Break((curr, exact))
            } else {
                ControlFlow::Continue(())
            }
        })
        .expect("the descent reaches level 0")
    }

    /// Finds predecessors and successors of `key` at every level.
    fn find<'g>(&'g self, key: &K, guard: &'g Guard) -> Position<'g, K, P> {
        let mut pos = Position {
            preds: [&self.head; MAX_HEIGHT],
            succs: [Shared::null(); MAX_HEIGHT],
            found: None,
        };
        self.descend(key, guard, |level, pred, curr, exact| {
            pos.preds[level] = pred;
            pos.succs[level] = curr;
            if exact && pos.found.is_none() {
                pos.found = Some(level);
            }
            ControlFlow::<()>::Continue(())
        });
        pos
    }

    /// Locks `preds[0..height]` bottom-up, skipping consecutive duplicates
    /// (equal predecessors are always at consecutive levels), and validates
    /// that each `pred.next(level)` still equals `succs[level]` and that no
    /// involved node is marked. Returns the guards on success.
    fn lock_and_validate<'g>(
        preds: &[&'g Links<K, P>; MAX_HEIGHT],
        succs: &[Shared<'g, Node<K, P>>; MAX_HEIGHT],
        height: usize,
        expect_succ_unmarked: bool,
        guard: &'g Guard,
    ) -> Option<Held<'g>> {
        let mut held: Held<'g> = std::array::from_fn(|_| None);
        let mut prev: *const Links<K, P> = std::ptr::null();
        for level in 0..height {
            let pred = preds[level];
            if !std::ptr::eq(prev, pred) {
                held[level] = Some(pred.lock.lock());
                prev = pred;
            }
            if pred.marked.load(SeqCst) {
                return None;
            }
            if expect_succ_unmarked {
                // SAFETY: `succs[level]` was loaded under `guard`; nodes
                // are only freed after all guards quiesce.
                if let Some(s) = unsafe { succs[level].as_ref() } {
                    if s.links.marked.load(SeqCst) {
                        return None;
                    }
                }
            }
            if pred.next(level).load(SeqCst, guard) != succs[level] {
                return None;
            }
        }
        Some(held)
    }
}

impl<K: Ord + Clone, P> EntryList<K, P> for SkipList<K, P> {
    const SORTED: bool = true;

    fn new() -> Self {
        SkipList {
            head: Links::new(MAX_HEIGHT, true),
        }
    }

    /// The first node of the bottom level, live or not; null if the list
    /// is empty. Where an unbounded walk starts.
    fn first(&self, guard: &Guard) -> *const u8 {
        self.head.low[0]
            .load(SeqCst, guard)
            .into_ptr()
            .cast_const()
            .cast()
    }

    /// The payload of the live node holding `key`, if any.
    fn get<'g>(&'g self, key: &K, guard: &'g Guard) -> Option<&'g P> {
        let (curr, exact) = self.seek(key, guard);
        if !exact {
            return None;
        }
        // SAFETY: found under `guard`; an exact hit is never null.
        let node = unsafe { curr.deref() };
        node.is_live().then_some(&node.payload)
    }

    /// Visits the live nodes whose keys lie in `[lo, hi]`, in key order,
    /// until `f` breaks. Weakly consistent: walks the bottom level live;
    /// entries linked or unlinked behind the cursor are not revisited. A
    /// bounded walk positions itself by the tower search (O(log n)), not by
    /// walking from the head.
    fn walk<'g>(
        &'g self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        guard: &'g Guard,
        mut f: impl FnMut(&'g K, &'g P) -> ControlFlow<()>,
    ) where
        K: 'g,
        P: 'g,
    {
        let mut curr = match lo {
            Bound::Unbounded => self.head.low[0].load(SeqCst, guard),
            Bound::Included(b) => self.seek(b, guard).0,
            Bound::Excluded(b) => match self.seek(b, guard) {
                // SAFETY: found under `guard`; an exact hit is never null.
                // An excluded bound skips the key itself.
                (hit, true) => unsafe { hit.deref() }.links.low[0].load(SeqCst, guard),
                (after, false) => after,
            },
        };
        // SAFETY: reachable under `guard`, as in `seek`.
        while let Some(node) = unsafe { curr.as_ref() } {
            let below = match hi {
                Bound::Included(b) => node.key <= *b,
                Bound::Excluded(b) => node.key < *b,
                Bound::Unbounded => true,
            };
            if !below || (node.is_live() && f(&node.key, &node.payload).is_break()) {
                return;
            }
            curr = node.links.low[0].load(SeqCst, guard);
        }
    }

    /// If `key` is present, runs `update` on its payload under the node's
    /// lock (which excludes a racing `remove` of that node) and returns its
    /// result; otherwise links a new node carrying `make`'s payload and
    /// returns `None`. `seed` goes to whichever of the two runs.
    fn upsert<T, R>(
        &self,
        key: &K,
        guard: &Guard,
        seed: T,
        update: impl FnOnce(&P, T) -> R,
        make: impl FnOnce(T) -> P,
    ) -> Option<R> {
        // Retry paths escalate spin → yield → jittered sleep instead of
        // spinning unboundedly: on an oversubscribed box the thread we are
        // waiting on (a mid-removal unlinker or a mid-publication
        // inserter) may not even be scheduled.
        let mut backoff = Backoff::new();
        loop {
            let pos = self.find(key, guard);
            if let Some(l) = pos.found {
                // SAFETY: found under `guard`.
                let node = unsafe { pos.succs[l].deref() };
                if node.links.marked.load(SeqCst) {
                    // Mid-removal: retry until it is unlinked.
                    backoff.wait();
                    continue;
                }
                // Wait for the inserter to publish.
                while !node.links.fully_linked.load(SeqCst) {
                    backoff.wait();
                }
                let _node_guard = node.links.lock.lock();
                if node.links.marked.load(SeqCst) {
                    // The remover held this lock from marking through
                    // unlinking, so the node is already unlinked: retry
                    // immediately (and without waiting while we hold the
                    // victim's lock), the next find() cannot see it.
                    continue;
                }
                return Some(update(&node.payload, seed));
            }

            let height = random_height();
            let Some(held) = Self::lock_and_validate(&pos.preds, &pos.succs, height, true, guard)
            else {
                backoff.wait();
                continue;
            };

            let node = Owned::new(Node {
                key: key.clone(),
                payload: make(seed),
                links: Links::new(height, false),
            })
            .into_shared(guard);
            // SAFETY: just allocated, uniquely reachable through us.
            let links = &unsafe { node.deref() }.links;
            for (level, succ) in pos.succs.iter().enumerate().take(height) {
                links.next(level).store(*succ, SeqCst);
            }
            for (level, pred) in pos.preds.iter().enumerate().take(height) {
                pred.next(level).store(node, SeqCst);
            }
            links.fully_linked.store(true, SeqCst);
            drop(held);
            return None;
        }
    }

    /// Unlinks `key`'s node, if one is linked, and hands it to the
    /// collector; `take` reads the payload once the node is unreachable to
    /// new readers (still under the victim's lock, so no `upsert` update
    /// races it).
    fn remove<R>(&self, key: &K, guard: &Guard, take: impl FnOnce(&P) -> R) -> Option<R> {
        let mut victim: Shared<'_, Node<K, P>> = Shared::null();
        let mut victim_guard: Option<MutexGuard<'_, ()>> = None;
        let mut top = 0usize;
        let mut backoff = Backoff::new();
        loop {
            let pos = self.find(key, guard);
            if victim_guard.is_none() {
                let l = pos.found?;
                let cand = pos.succs[l];
                // SAFETY: found under `guard`.
                let links = &unsafe { cand.deref() }.links;
                let ready = links.fully_linked.load(SeqCst)
                    && links.height() - 1 == l
                    && !links.marked.load(SeqCst);
                if !ready {
                    return None;
                }
                top = links.height();
                let g = links.lock.lock();
                if links.marked.load(SeqCst) {
                    return None;
                }
                links.marked.store(true, SeqCst);
                victim = cand;
                victim_guard = Some(g);
            }
            // SAFETY: victim is marked and we hold its lock; it cannot be
            // destroyed until we unlink it ourselves.
            let victim_ref = unsafe { victim.deref() };
            let Some(held) =
                Self::lock_and_validate(&pos.preds, &[victim; MAX_HEIGHT], top, false, guard)
            else {
                backoff.wait();
                continue;
            };
            // Unlink top-down. Victim's tower is frozen: its lock is held
            // and it is marked, so no insert can link after it.
            for level in (0..top).rev() {
                let after = victim_ref.links.next(level).load(SeqCst, guard);
                pos.preds[level].next(level).store(after, SeqCst);
            }
            let taken = take(&victim_ref.payload);
            drop(held);
            drop(victim_guard);
            // SAFETY: the node is unlinked at every level, so no thread
            // that pins from now on can reach it, and the victim's lock
            // plus mark made this thread the only one to unlink it.
            unsafe { guard.defer_destroy(victim) };
            return Some(taken);
        }
    }
}

impl<K, P> Drop for SkipList<K, P> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees no concurrent accessors; walk the
        // bottom level and free every node (and with it its payload)
        // eagerly.
        unsafe {
            let guard = epoch::unprotected();
            let mut curr = self.head.low[0].load(SeqCst, guard);
            while !curr.is_null() {
                let next = curr.deref().links.low[0].load(SeqCst, guard);
                drop(curr.into_owned());
                curr = next;
            }
        }
    }
}

/// The payload of [`ConcurrentSkipListMap`]: the entry's current value,
/// replaced atomically on update and owned by the slot (the value still in
/// it is freed with the node).
struct Slot<V> {
    value: Atomic<V>,
}

impl<V> Slot<V> {
    fn get<'g>(&'g self, guard: &'g Guard) -> &'g V {
        // SAFETY: a slot always holds a value; the epoch guard keeps a
        // replaced value alive for the duration of this read.
        unsafe { self.value.load(SeqCst, guard).deref() }
    }
}

impl<V> Drop for Slot<V> {
    fn drop(&mut self) {
        // SAFETY: a slot drops with its node — at list teardown or from
        // the collector, when no reader can still reach either — and the
        // value in it was never handed to the collector itself.
        unsafe {
            let guard = epoch::unprotected();
            drop(self.value.load(SeqCst, guard).into_owned());
        }
    }
}

/// A concurrency-safe sorted map (Figure 1's `ConcurrentSkipListMap` row).
///
/// # Examples
///
/// ```
/// use relc_containers::{ConcurrentSkipListMap, Container};
/// use std::ops::ControlFlow;
///
/// let m = ConcurrentSkipListMap::new();
/// m.write(&3, Some("c"));
/// m.write(&1, Some("a"));
/// let mut keys = Vec::new();
/// m.scan(&mut |k: &i32, _: &&str| { keys.push(*k); ControlFlow::Continue(()) });
/// assert_eq!(keys, vec![1, 3]); // sorted
/// ```
pub struct ConcurrentSkipListMap<K, V> {
    list: SkipList<K, Slot<V>>,
    len: AtomicUsize,
}

impl<K: Key, V: Val> ConcurrentSkipListMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        ConcurrentSkipListMap {
            list: SkipList::new(),
            len: AtomicUsize::new(0),
        }
    }

    fn insert(&self, key: &K, value: V) -> Option<V> {
        let guard = epoch::pin();
        let old = self.list.upsert(
            key,
            &guard,
            value,
            |slot, value| {
                let old = slot.value.swap(Owned::new(value), SeqCst, &guard);
                // SAFETY: `old` was the published value; the node lock
                // `upsert` holds excludes any other swap, so this thread
                // alone reads it here and retires it.
                let old_val = unsafe { old.deref() }.clone();
                unsafe { guard.defer_destroy(old) };
                old_val
            },
            |value| Slot {
                value: Atomic::new(value),
            },
        );
        if old.is_none() {
            self.len.fetch_add(1, SeqCst);
        }
        old
    }

    fn remove(&self, key: &K) -> Option<V> {
        let guard = epoch::pin();
        let old = self
            .list
            .remove(key, &guard, |slot| slot.get(&guard).clone())?;
        self.len.fetch_sub(1, SeqCst);
        Some(old)
    }

    /// Snapshot of the epoch collector's reclamation counters.
    ///
    /// The epoch domain is process-global (one collector, as in the real
    /// `crossbeam`), so the counters aggregate every epoch-managed
    /// structure — retired nodes and replaced values from *all* skip
    /// lists, not just this one. Use deltas around a workload.
    pub fn reclamation_stats(&self) -> ReclamationStats {
        epoch::reclamation_stats()
    }

    /// Test-only: drives the epoch collector to quiescence (seals the
    /// calling thread's garbage, advances epochs, frees ripe bags) and
    /// returns the final counters. With no concurrently pinned thread the
    /// returned [`ReclamationStats::in_flight`] is 0.
    pub fn flush_reclamation(&self) -> ReclamationStats {
        epoch::flush()
    }
}

impl<K: Key, V: Val> Default for ConcurrentSkipListMap<K, V> {
    fn default() -> Self {
        ConcurrentSkipListMap::new()
    }
}

impl<K: Key, V: Val> Container<K, V> for ConcurrentSkipListMap<K, V> {
    fn lookup(&self, key: &K) -> Option<V> {
        let guard = epoch::pin();
        self.list
            .get(key, &guard)
            .map(|slot| slot.get(&guard).clone())
    }

    fn scan(&self, f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>) {
        self.scan_range(Bound::Unbounded, Bound::Unbounded, f);
    }

    fn scan_range(
        &self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>,
    ) {
        let guard = epoch::pin();
        self.list
            .walk(lo, hi, &guard, |key, slot| f(key, slot.get(&guard)));
    }

    fn write(&self, key: &K, value: Option<V>) -> Option<V> {
        match value {
            Some(v) => self.insert(key, v),
            None => self.remove(key),
        }
    }

    fn update_entry(&self, old_key: &K, new_key: &K, value: V) -> Option<V> {
        if old_key == new_key {
            // Same position: one swap of the node's value pointer via
            // `insert`'s replace path, no unlink/relink at all.
            let old = self.lookup(old_key)?;
            self.insert(new_key, value);
            return Some(old);
        }
        // A key move is remove-then-insert: two linearization points, with
        // a window where unlocked readers see neither key (permitted by
        // the `Container::update_entry` atomicity contract — the runtime
        // holds the edge's placement locks exclusively around this call).
        let old = self.remove(old_key)?;
        self.insert(new_key, value);
        Some(old)
    }

    fn len(&self) -> usize {
        self.len.load(SeqCst)
    }

    fn props(&self) -> ContainerProps {
        ContainerKind::ConcurrentSkipListMap.props()
    }
}

impl<K: Key, V: Val> std::fmt::Debug for ConcurrentSkipListMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentSkipListMap")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn sequential_semantics() {
        let m: ConcurrentSkipListMap<i64, i64> = ConcurrentSkipListMap::new();
        assert_eq!(m.lookup(&1), None);
        assert_eq!(m.write(&1, Some(10)), None);
        assert_eq!(m.write(&1, Some(20)), Some(10));
        assert_eq!(m.lookup(&1), Some(20));
        assert_eq!(m.write(&1, None), Some(20));
        assert_eq!(m.write(&1, None), None);
        assert!(m.is_empty());
    }

    #[test]
    fn sorted_scan_after_random_inserts() {
        let m: ConcurrentSkipListMap<i64, i64> = ConcurrentSkipListMap::new();
        let keys: Vec<i64> = (0..500).map(|i| (i * 7919) % 1009).collect();
        for &k in &keys {
            m.write(&k, Some(k));
        }
        let mut seen = Vec::new();
        m.scan(&mut |k, _| {
            seen.push(*k);
            ControlFlow::Continue(())
        });
        let mut expected = keys;
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(seen, expected);
        assert_eq!(m.len(), seen.len());
    }

    #[test]
    fn dense_insert_remove_cycles() {
        let m: ConcurrentSkipListMap<i64, i64> = ConcurrentSkipListMap::new();
        for round in 0..3 {
            for i in 0..300 {
                m.write(&i, Some(i + round));
            }
            assert_eq!(m.len(), 300);
            for i in 0..300 {
                assert_eq!(m.lookup(&i), Some(i + round));
            }
            for i in 0..300 {
                assert_eq!(m.write(&i, None), Some(i + round));
            }
            assert!(m.is_empty());
        }
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let m: Arc<ConcurrentSkipListMap<i64, i64>> = Arc::new(ConcurrentSkipListMap::new());
        let threads = 8;
        let per = 300i64;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads as i64)
            .map(|t| {
                let m = m.clone();
                let b = barrier.clone();
                std::thread::spawn(move || {
                    b.wait();
                    for i in 0..per {
                        m.write(&(t * 10_000 + i), Some(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), threads * per as usize);
        // All entries present, and globally sorted.
        let mut prev = i64::MIN;
        let mut count = 0;
        m.scan(&mut |k, _| {
            assert!(*k > prev);
            prev = *k;
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, threads * per as usize);
    }

    #[test]
    fn concurrent_insert_remove_same_keys() {
        let m: Arc<ConcurrentSkipListMap<i64, i64>> = Arc::new(ConcurrentSkipListMap::new());
        let threads = 8;
        let rounds = 2_000i64;
        let keyspace = 64i64;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads as i64)
            .map(|t| {
                let m = m.clone();
                let b = barrier.clone();
                std::thread::spawn(move || {
                    b.wait();
                    let mut x = (t + 1) as u64;
                    for _ in 0..rounds {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = (x % keyspace as u64) as i64;
                        if x & 1 == 0 {
                            m.write(&k, Some(t));
                        } else {
                            m.write(&k, None);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Structural sanity: len agrees with a scan; scan is sorted.
        let mut count = 0usize;
        let mut prev = i64::MIN;
        m.scan(&mut |k, _| {
            assert!(*k > prev, "sorted and duplicate-free");
            prev = *k;
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, m.len());
        assert!(count <= keyspace as usize);
    }

    #[test]
    fn concurrent_readers_never_crash_or_see_phantoms() {
        let m: Arc<ConcurrentSkipListMap<i64, i64>> = Arc::new(ConcurrentSkipListMap::new());
        // Invariant maintained by the writer: key k maps to 2*k.
        for k in 0..128 {
            m.write(&k, Some(2 * k));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let m = m.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0i64;
                while !stop.load(SeqCst) {
                    let k = i % 128;
                    m.write(&k, None);
                    m.write(&k, Some(2 * k));
                    i += 1;
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(SeqCst) && reads < 200_000 {
                        let k = (reads % 128) as i64;
                        if let Some(v) = m.lookup(&k) {
                            assert_eq!(v, 2 * k, "value must always be consistent");
                        }
                        reads += 1;
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, SeqCst);
        writer.join().unwrap();
    }

    #[test]
    fn scan_during_mutation_is_safe() {
        let m: Arc<ConcurrentSkipListMap<i64, i64>> = Arc::new(ConcurrentSkipListMap::new());
        for k in 0..256 {
            m.write(&k, Some(k));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let m = m.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0i64;
                while !stop.load(SeqCst) {
                    m.write(&(256 + (i % 64)), Some(i));
                    m.write(&(256 + ((i + 32) % 64)), None);
                    i += 1;
                }
            })
        };
        for _ in 0..200 {
            let mut prev = i64::MIN;
            m.scan(&mut |k, _| {
                assert!(*k > prev, "scan stays sorted under mutation");
                prev = *k;
                ControlFlow::Continue(())
            });
        }
        stop.store(true, SeqCst);
        writer.join().unwrap();
    }

    #[test]
    fn random_height_distribution() {
        let mut counts = [0usize; MAX_HEIGHT + 1];
        for _ in 0..10_000 {
            let h = random_height();
            assert!((1..=MAX_HEIGHT).contains(&h));
            counts[h] += 1;
        }
        // Roughly half the nodes are height 1; definitely more than a third.
        assert!(counts[1] > 3_000, "height-1 count {} too low", counts[1]);
        assert!(counts[1] > counts[2]);
    }

    use std::sync::atomic::AtomicBool;

    #[test]
    fn drop_frees_everything_without_leaks_or_crashes() {
        for _ in 0..10 {
            let m: ConcurrentSkipListMap<i64, String> = ConcurrentSkipListMap::new();
            for i in 0..200 {
                m.write(&i, Some(format!("value-{i}")));
            }
            for i in 0..100 {
                m.write(&i, None);
            }
            drop(m); // Miri/asan would flag leaks; here we assert no crash.
        }
    }
}
