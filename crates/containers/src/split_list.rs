//! A split-ordered list (Shalev & Shavit, JACM 2006): the hash table behind
//! the hash shape of [`VersionIndex`](crate::VersionIndex).
//!
//! Every entry sits in one sorted linked list, ordered by its *split
//! order* — its key's hash, bit-reversed — and then by key. A bucket is a
//! sentinel node linked into the same list at its bucket number
//! bit-reversed, where a search for a key of that bucket starts. Doubling
//! the buckets splits each bucket's run of the list in two by linking one
//! more sentinel into it: no entry ever moves, so a reader walking the list
//! while the buckets grow misses nothing, and the list's order — (split
//! order, key) — is the same at every bucket count, which is what lets a
//! walk resume from a key after any number of doublings.
//!
//! The list itself is the lazy list of Heller, Herlihy, Luchangco, Moir,
//! Scherer and Shavit (OPODIS 2005) — the one-level case of the skip list in
//! `skiplist.rs`: per-node locks, a `marked` bit for logical deletion, and
//! traversals that take no lock. A writer locks the predecessor of the
//! place it writes (a removal also its victim, after it: locks are taken in
//! list order) and validates that both are still linked and adjacent, so
//! writers of different keys run concurrently; readers hold nothing but the
//! caller's epoch guard. An unlinked entry goes through the epoch collector.
//!
//! Sentinels never move and are never unlinked, so they live in
//! *segments*: segment `k` holds the 2^k sentinels of buckets `2^k ..
//! 2^(k+1)`, side by side, and a bucket's sentinel is found by arithmetic —
//! no table of pointers to chase, and neighbouring buckets' sentinels
//! share cache lines. The writer that doubles the buckets allocates the
//! next segment and links each of its sentinels after its parent bucket's
//! before it publishes the new count, so a search always starts at its own
//! bucket. Bucket 0's sentinel is the list's head, and the first segments'
//! pointers are held in the list itself: an index of up to two entries has
//! one bucket and costs one allocation per entry and nothing else.

use std::cmp::Ordering;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::{Bound, ControlFlow};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering::SeqCst};

use crossbeam::epoch::{Guard, Shared};
use parking_lot::{Mutex, MutexGuard};
use relc_locks::Backoff;

use crate::hashing::hash_key;
use crate::version::EntryList;

/// Entries per bucket past which the buckets double: a lookup walks past
/// one or two entries of its bucket, comparing split orders, and compares
/// one key.
const LOAD: usize = 2;

/// Segments whose pointers the list holds inline — buckets 1 to 7, enough
/// for 16 entries; the others' pointers live in a separate array.
const NEAR: usize = 3;

/// Segments there can be: one per bit of a bucket number.
const SEGMENTS: usize = usize::BITS as usize;

/// The linkage every node starts with, bucket sentinel or entry.
#[repr(C)]
struct Link {
    /// The node's place in split order: its bucket number bit-reversed for
    /// a sentinel (even), its key's hash with the top bit set, bit-reversed,
    /// for an entry (odd).
    order: u64,
    next: AtomicPtr<Link>,
    lock: Mutex<()>,
    marked: AtomicBool,
}

impl Link {
    fn new(order: u64) -> Self {
        Link {
            order,
            next: AtomicPtr::new(ptr::null_mut()),
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
        }
    }
}

/// An entry of the list: its linkage first (`repr(C)`: a pointer to the
/// entry is a pointer to its link), then its key and what the face stores
/// under it. With a 32-byte key and an 8-byte payload it is 72 bytes, an
/// 80-byte glibc chunk.
#[repr(C)]
struct Entry<K, P> {
    link: Link,
    key: K,
    payload: P,
}

/// Segment `k`, the sentinels of buckets `2^k .. 2^(k+1)`, allocated as
/// one boxed slice.
fn new_segment(k: usize) -> *mut Link {
    let first = 1u64 << k;
    let links: Box<[Link]> = (first..2 * first)
        .map(|b| Link::new(b.reverse_bits()))
        .collect();
    Box::into_raw(links).cast()
}

/// Frees segment `k`.
///
/// # Safety
///
/// `segment` came from [`new_segment`]`(k)`, and nothing reads it anymore.
unsafe fn free_segment(segment: *mut Link, k: usize) {
    // SAFETY: per the contract, a boxed slice of 2^k links.
    drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(segment, 1 << k)) });
}

/// Where a node sits in the list: its split order, then — for an entry —
/// its key.
struct Pos<'k, K> {
    order: u64,
    key: Option<&'k K>,
}

impl<K> Clone for Pos<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for Pos<'_, K> {}

/// The entry's hash and its position: the hash's low bits pick its bucket,
/// and the hash with the top bit set, bit-reversed, is its split order.
fn entry_pos<K: Hash>(key: &K) -> (u64, Pos<'_, K>) {
    let hash = hash_key(key);
    let order = (hash | 1 << 63).reverse_bits();
    (
        hash,
        Pos {
            order,
            key: Some(key),
        },
    )
}

/// Bucket `b` with its highest set bit cleared: the bucket it was split
/// off, whose sentinel precedes it in split order. `b` must not be 0.
fn parent(b: usize) -> usize {
    b & !(1 << b.ilog2())
}

/// The split-ordered list, generic over the payload `P` an entry carries.
/// See the [module docs](self).
///
/// An entry's payload is dropped with the entry: when the collector
/// destroys an unlinked entry (after every guard pinned before the unlink
/// has dropped), or eagerly when the list drops.
pub(crate) struct SplitList<K, P> {
    /// Bucket 0's sentinel, at split order 0: where every walk starts.
    head: Link,
    /// How many buckets there are: a power of two, only ever doubled, and
    /// stored only once every sentinel below it is linked.
    buckets: AtomicUsize,
    /// Segments `0 .. NEAR`; null until the buckets reach them.
    near: [AtomicPtr<Link>; NEAR],
    /// Pointers to segments `NEAR ..` (indexed by segment, the first
    /// [`NEAR`] unused); null until the buckets reach segment `NEAR`.
    far: AtomicPtr<[AtomicPtr<Link>; SEGMENTS]>,
    /// Entries linked.
    len: AtomicUsize,
    /// Held by the one writer that grows the buckets.
    growing: Mutex<()>,
    _entries: PhantomData<Box<Entry<K, P>>>,
}

impl<K: Ord + Hash, P> SplitList<K, P> {
    /// The entry node `p` is, if it is one.
    ///
    /// # Safety
    ///
    /// `p` is null or a node of this list loaded under a guard that
    /// outlives `'g`.
    unsafe fn entry<'g>(p: *const Link) -> Option<&'g Entry<K, P>> {
        // SAFETY: per the contract `p` is null or live for `'g`; a node
        // with an odd split order was allocated as an `Entry<K, P>`, whose
        // first field is its link, so `p` points at the whole entry.
        unsafe {
            p.as_ref()
                .filter(|link| link.order & 1 == 1)
                .map(|_| &*p.cast::<Entry<K, P>>())
        }
    }

    /// How node `p` (non-null, live) compares with position `pos`.
    ///
    /// # Safety
    ///
    /// As for [`entry`](Self::entry), and `p` is not null.
    unsafe fn cmp(p: *const Link, pos: Pos<'_, K>) -> Ordering {
        // SAFETY: per the contract.
        let order = unsafe { (*p).order };
        order.cmp(&pos.order).then_with(|| {
            // Equal split orders have equal parity: two entries, or one
            // sentinel.
            // SAFETY: per the contract.
            match (unsafe { Self::entry(p) }, pos.key) {
                (Some(entry), Some(key)) => entry.key.cmp(key),
                _ => Ordering::Equal,
            }
        })
    }

    /// The last node before `pos` and the first node at or after it (null
    /// if none), walking from `from`, which precedes `pos`.
    fn search<'g>(
        &'g self,
        from: &'g Link,
        pos: Pos<'_, K>,
        _guard: &'g Guard,
    ) -> (&'g Link, *const Link) {
        let mut pred = from;
        loop {
            let curr = pred.next.load(SeqCst).cast_const();
            // SAFETY: nodes reachable under the guard are not yet
            // destroyed, and `&'g self` keeps the list from freeing them
            // eagerly.
            if curr.is_null() || unsafe { Self::cmp(curr, pos) } != Ordering::Less {
                return (pred, curr);
            }
            // SAFETY: as above; `curr` is not null.
            pred = unsafe { &*curr };
        }
    }

    /// Where segment `k`'s pointer lives; `far` is allocated once the
    /// buckets reach segment [`NEAR`].
    fn segment_slot(&self, k: usize) -> &AtomicPtr<Link> {
        if k < NEAR {
            return &self.near[k];
        }
        // SAFETY: the array is allocated before the first count that
        // reaches it is stored, and freed only with the list.
        let far = unsafe { &*self.far.load(SeqCst) };
        &far[k]
    }

    /// Bucket `b`'s sentinel (`b` below the count loaded, or linked by the
    /// caller's grow).
    fn sentinel(&self, b: usize) -> &Link {
        if b == 0 {
            return &self.head;
        }
        let k = b.ilog2() as usize;
        let segment = self.segment_slot(k).load(SeqCst);
        // SAFETY: segment `k` holds 2^k sentinels, of which `b` is number
        // `b − 2^k`; segments live as long as the list.
        unsafe { &*segment.add(b - (1 << k)) }
    }

    /// Where a search for the entry hashed `hash` starts: its bucket's
    /// sentinel. Every bucket below the count loaded has one.
    fn start(&self, hash: u64) -> &Link {
        let mask = self.buckets.load(SeqCst) - 1;
        self.sentinel(hash as usize & mask)
    }

    /// Links `sentinel` into the list after `from`, which precedes it.
    fn link_sentinel<'g>(&'g self, from: &'g Link, sentinel: &'g Link, guard: &'g Guard) {
        let pos = Pos {
            order: sentinel.order,
            key: None,
        };
        let mut backoff = Backoff::new();
        loop {
            let (pred, curr) = self.search(from, pos, guard);
            let Some(held) = Self::lock_validated(pred, curr) else {
                backoff.wait();
                continue;
            };
            sentinel.next.store(curr.cast_mut(), SeqCst);
            pred.next.store(ptr::from_ref(sentinel).cast_mut(), SeqCst);
            drop(held);
            return;
        }
    }

    /// Locks `pred` and checks that it is still linked and still points at
    /// `curr`; `None` (and no lock) if not.
    fn lock_validated(pred: &Link, curr: *const Link) -> Option<MutexGuard<'_, ()>> {
        let held = pred.lock.lock();
        (!pred.marked.load(SeqCst) && ptr::eq(pred.next.load(SeqCst), curr)).then_some(held)
    }

    /// Doubles the buckets once the list holds more than [`LOAD`] entries
    /// per bucket. One writer grows them at a time: it allocates the new
    /// segments, links every new bucket's sentinel — after its parent's, in
    /// bucket order, so the parent is always there — and only then
    /// publishes the new count, so a search never starts short of its own
    /// bucket. A writer that finds the buckets growing goes on with the
    /// count it loaded.
    fn grow(&self, len: usize, guard: &Guard) {
        let count = self.buckets.load(SeqCst);
        if len <= LOAD * count {
            return;
        }
        let Some(_growing) = self.growing.try_lock() else {
            return;
        };
        if self.buckets.load(SeqCst) != count {
            return;
        }
        let size = len.div_ceil(LOAD).next_power_of_two().max(2 * count);
        for k in count.ilog2() as usize..size.ilog2() as usize {
            if k == NEAR {
                let far: Box<[AtomicPtr<Link>; SEGMENTS]> =
                    Box::new(std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())));
                self.far.store(Box::into_raw(far), SeqCst);
            }
            self.segment_slot(k).store(new_segment(k), SeqCst);
            for b in 1 << k..2 << k {
                self.link_sentinel(self.sentinel(parent(b)), self.sentinel(b), guard);
            }
        }
        self.buckets.store(size, SeqCst);
    }
}

impl<K: Ord + Hash + Clone, P> EntryList<K, P> for SplitList<K, P> {
    const SORTED: bool = false;

    fn new() -> Self {
        SplitList {
            head: Link::new(0),
            buckets: AtomicUsize::new(1),
            near: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            far: AtomicPtr::new(ptr::null_mut()),
            len: AtomicUsize::new(0),
            growing: Mutex::new(()),
            _entries: PhantomData,
        }
    }

    fn first(&self, _guard: &Guard) -> *const u8 {
        self.head.next.load(SeqCst).cast_const().cast()
    }

    fn get<'g>(&'g self, key: &K, guard: &'g Guard) -> Option<&'g P> {
        let (hash, pos) = entry_pos(key);
        let (_, curr) = self.search(self.start(hash), pos, guard);
        // SAFETY: found under the guard.
        let entry = unsafe { Self::entry(curr) }?;
        (entry.key == *key && !entry.link.marked.load(SeqCst)).then_some(&entry.payload)
    }

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
            Bound::Unbounded => self.head.next.load(SeqCst).cast_const(),
            Bound::Included(key) | Bound::Excluded(key) => {
                let (hash, pos) = entry_pos(key);
                let (_, at) = self.search(self.start(hash), pos, guard);
                // SAFETY: found under the guard. An excluded bound skips
                // the key itself.
                match unsafe { Self::entry(at) } {
                    Some(e) if matches!(lo, Bound::Excluded(_)) && e.key == *key => {
                        e.link.next.load(SeqCst).cast_const()
                    }
                    _ => at,
                }
            }
        };
        // The end's position, and whether a node there is still inside.
        let end = match hi {
            Bound::Included(key) => Some((entry_pos(key).1, true)),
            Bound::Excluded(key) => Some((entry_pos(key).1, false)),
            Bound::Unbounded => None,
        };
        while !curr.is_null() {
            if let Some((pos, inclusive)) = end {
                // SAFETY: reachable under the guard, as in `search`.
                match unsafe { Self::cmp(curr, pos) } {
                    Ordering::Less => {}
                    Ordering::Equal if inclusive => {}
                    _ => return,
                }
            }
            // SAFETY: as above.
            let link = unsafe { &*curr };
            // SAFETY: as above.
            if let Some(entry) = unsafe { Self::entry(curr) } {
                if !link.marked.load(SeqCst) && f(&entry.key, &entry.payload).is_break() {
                    return;
                }
            }
            curr = link.next.load(SeqCst).cast_const();
        }
    }

    fn upsert<T, R>(
        &self,
        key: &K,
        guard: &Guard,
        seed: T,
        update: impl FnOnce(&P, T) -> R,
        make: impl FnOnce(T) -> P,
    ) -> Option<R> {
        let (hash, pos) = entry_pos(key);
        let from = self.start(hash);
        let mut backoff = Backoff::new();
        loop {
            let (pred, curr) = self.search(from, pos, guard);
            // SAFETY: found under the guard.
            if let Some(entry) = unsafe { Self::entry(curr) }.filter(|e| e.key == *key) {
                let _held = entry.link.lock.lock();
                if entry.link.marked.load(SeqCst) {
                    // Its remover held this lock from marking through
                    // unlinking: the next search cannot see it.
                    continue;
                }
                return Some(update(&entry.payload, seed));
            }
            let Some(held) = Self::lock_validated(pred, curr) else {
                backoff.wait();
                continue;
            };
            let node = Box::into_raw(Box::new(Entry {
                link: Link::new(pos.order),
                key: key.clone(),
                payload: make(seed),
            }));
            // SAFETY: just allocated and not yet published.
            unsafe { &*node }.link.next.store(curr.cast_mut(), SeqCst);
            pred.next.store(node.cast(), SeqCst);
            drop(held);
            let len = self.len.fetch_add(1, SeqCst) + 1;
            self.grow(len, guard);
            return None;
        }
    }

    fn remove<R>(&self, key: &K, guard: &Guard, take: impl FnOnce(&P) -> R) -> Option<R> {
        let (hash, pos) = entry_pos(key);
        let from = self.start(hash);
        let mut backoff = Backoff::new();
        loop {
            let (pred, curr) = self.search(from, pos, guard);
            // SAFETY: found under the guard.
            let victim = unsafe { Self::entry(curr) }.filter(|e| e.key == *key)?;
            let Some(held) = Self::lock_validated(pred, curr) else {
                backoff.wait();
                continue;
            };
            // Locks in list order: the predecessor, then the victim. A
            // linked successor of an unmarked predecessor whose lock we
            // hold cannot be marked by anyone else.
            let victim_held = victim.link.lock.lock();
            debug_assert!(!victim.link.marked.load(SeqCst));
            victim.link.marked.store(true, SeqCst);
            pred.next.store(victim.link.next.load(SeqCst), SeqCst);
            let taken = take(&victim.payload);
            drop(victim_held);
            drop(held);
            self.len.fetch_sub(1, SeqCst);
            // SAFETY: the entry is unlinked, so no thread that pins from
            // now on can reach it; the predecessor's lock and the mark
            // made this thread the only one to unlink it; it was allocated
            // as a `Box<Entry<K, P>>`.
            unsafe { guard.defer_destroy(Shared::from(ptr::from_ref(victim))) };
            return Some(taken);
        }
    }
}

impl<K, P> Drop for SplitList<K, P> {
    fn drop(&mut self) {
        let mut curr = *self.head.next.get_mut();
        while !curr.is_null() {
            // SAFETY: `&mut self` leaves no reader or writer, and every
            // linked node with an odd split order is an entry this list
            // allocated as an `Entry<K, P>`; sentinels go with their
            // segments below.
            unsafe {
                let next = (*curr).next.load(SeqCst);
                if (*curr).order & 1 == 1 {
                    drop(Box::from_raw(curr.cast::<Entry<K, P>>()));
                }
                curr = next;
            }
        }
        let far = *self.far.get_mut();
        let segments = (*self.buckets.get_mut()).ilog2() as usize;
        for k in 0..segments {
            let segment = if k < NEAR {
                *self.near[k].get_mut()
            } else {
                // SAFETY: allocated by the grow that reached segment NEAR.
                unsafe { (*far)[k].load(SeqCst) }
            };
            // SAFETY: the grow that reached segment `k` made it.
            unsafe { free_segment(segment, k) };
        }
        if !far.is_null() {
            // SAFETY: allocated as a boxed array, by one grow.
            drop(unsafe { Box::from_raw(far) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::epoch;

    fn keys(list: &SplitList<i64, i64>, lo: Bound<&i64>, hi: Bound<&i64>) -> Vec<i64> {
        let guard = epoch::pin();
        let mut out = Vec::new();
        list.walk(lo, hi, &guard, |k, _| {
            out.push(*k);
            ControlFlow::Continue(())
        });
        out
    }

    /// A one-field `Tuple` key is 32 bytes and a version chain's head 8:
    /// an entry is 72 bytes, an 80-byte glibc chunk.
    #[test]
    fn an_entry_is_seventy_two_bytes() {
        assert_eq!(std::mem::size_of::<Link>(), 32);
        assert_eq!(std::mem::size_of::<Entry<[u64; 4], usize>>(), 72);
    }

    #[test]
    fn order_is_the_same_at_every_bucket_count() {
        let list: SplitList<i64, i64> = SplitList::new();
        let guard = epoch::pin();
        let mut orders = Vec::new();
        for k in 0..1000 {
            assert!(list.upsert(&k, &guard, k, |_, _| (), |v| v).is_none());
            if k % 97 == 0 {
                orders.push(keys(&list, Bound::Unbounded, Bound::Unbounded));
            }
        }
        let all = keys(&list, Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 1000);
        for earlier in orders {
            let kept: Vec<i64> = all
                .iter()
                .copied()
                .filter(|k| earlier.contains(k))
                .collect();
            assert_eq!(kept, earlier, "a grow moved an entry");
        }
        assert_eq!(list.buckets.load(SeqCst), 512);
        for k in 0..1000 {
            assert_eq!(list.get(&k, &guard), Some(&k));
        }
    }

    #[test]
    fn bounds_are_positions_in_list_order() {
        let list: SplitList<i64, i64> = SplitList::new();
        let guard = epoch::pin();
        for k in 0..40 {
            list.upsert(&k, &guard, k, |_, _| (), |v| v);
        }
        let all = keys(&list, Bound::Unbounded, Bound::Unbounded);
        let at = all[17];
        assert_eq!(
            keys(&list, Bound::Excluded(&at), Bound::Unbounded),
            all[18..]
        );
        assert_eq!(
            keys(&list, Bound::Included(&at), Bound::Unbounded),
            all[17..]
        );
        assert_eq!(
            keys(&list, Bound::Unbounded, Bound::Included(&at)),
            all[..18]
        );
        assert_eq!(
            keys(&list, Bound::Unbounded, Bound::Excluded(&at)),
            all[..17]
        );
        // A removed key still names its position.
        assert_eq!(list.remove(&at, &guard, |v| *v), Some(at));
        assert_eq!(list.get(&at, &guard), None);
        assert_eq!(
            keys(&list, Bound::Excluded(&at), Bound::Unbounded),
            all[18..]
        );
        assert_eq!(
            keys(&list, Bound::Unbounded, Bound::Included(&at)),
            all[..17]
        );
    }
}
