//! The global commit clock and snapshot registry backing MVCC reads.
//!
//! Writers keep the paper's two-phase locking pipeline untouched; what
//! this module adds is a *publication order* at commit: every version a
//! transaction wrote shares one [`CommitStamp`], and
//! [`CommitClock::commit`] (called with the transaction's locks still
//! held, strictly before the engine releases them) allocates the commit
//! timestamp, stores it into the stamp — making every version of the
//! transaction visible atomically — and then advances the *visible*
//! watermark gap-free. Snapshot readers capture `visible` as their
//! snapshot timestamp: every version stamped `≤ visible` is fully
//! published, and no later committer can ever receive a smaller
//! timestamp, so a snapshot is a consistent cut without any locking.
//!
//! Like the epoch collector the clock is process-global: one timestamp
//! domain serves every relation (and every shard), which is what makes a
//! cross-shard fan-out read at a single snapshot trivially consistent.
//!
//! # Why two counters
//!
//! `alloc` hands out timestamps; `visible` publishes them *in order*. A
//! committer stores its stamp first and only then waits for
//! `visible == ts - 1` before bumping `visible` to `ts`. A reader that
//! captures `snap = visible` therefore knows that every transaction with
//! timestamp `≤ snap` has already stamped all of its versions — there are
//! no "holes" below the watermark, so "newest version `≤ snap`" is
//! well-defined and torn-free.
//!
//! # Why registration validates
//!
//! [`SnapshotRegistry::register`] publishes the reader's snapshot into a
//! per-registration slot and then re-reads `visible`; if the watermark moved,
//! it retries with the newer value. This closes the classic race against
//! [`SnapshotRegistry::min_active`]: a committer that scanned the slots
//! *before* the reader's store published its snapshot must — in the
//! `SeqCst` total order — have advanced `visible` before the reader's
//! re-read, so the reader observes the change and re-registers at a
//! timestamp the committer's retirement decision already covers.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

/// The timestamp value of a not-yet-committed [`CommitStamp`]: larger
/// than every possible snapshot, so tentative versions are invisible to
/// all readers.
pub const TENTATIVE_TS: u64 = u64::MAX;

/// One transaction attempt's shared commit timestamp.
///
/// Every version written by the attempt holds an `Arc` of the same
/// stamp; committing is a single atomic store, which is what makes all
/// of a transaction's versions become visible at once (no torn
/// multi-entry visibility). An attempt that rolls back never commits its
/// stamp: it takes its versions out of their chains instead, and the
/// stamp dies tentative with them.
#[derive(Debug)]
pub struct CommitStamp(AtomicU64);

impl CommitStamp {
    /// A fresh, tentative stamp.
    pub fn new() -> Arc<Self> {
        Arc::new(CommitStamp(AtomicU64::new(TENTATIVE_TS)))
    }

    /// The current value: [`TENTATIVE_TS`] until committed.
    pub fn load(&self) -> u64 {
        self.0.load(SeqCst)
    }

    /// Whether the stamp has been committed.
    pub fn is_committed(&self) -> bool {
        self.load() != TENTATIVE_TS
    }
}

/// The process-global commit timestamp authority. See the
/// [module docs](self).
#[derive(Debug)]
pub struct CommitClock {
    /// Last timestamp handed out.
    alloc: AtomicU64,
    /// Largest timestamp whose transaction (and all before it) has fully
    /// stamped its versions.
    visible: AtomicU64,
    /// Committers currently parked waiting for their predecessor to
    /// publish. Checked by every publisher so the uncontended commit path
    /// stays a pair of atomic ops — the wake mutex is only touched when a
    /// waiter actually parked.
    parked: AtomicUsize,
    /// Guards the park/wake handshake (never held across the publication
    /// itself).
    park_mutex: Mutex<()>,
    /// Signalled after every `visible` advance while `parked > 0`.
    park_cv: std::sync::Condvar,
}

/// Publication-wait spin policy: busy-spin this many iterations first
/// (the predecessor's window is a handful of straight-line instructions),
/// then yield the CPU this many times (the predecessor is probably
/// runnable on another core), then park on the condvar (the predecessor
/// is descheduled — spinning would burn exactly the CPU it needs).
const PUBLISH_SPINS: u32 = 64;
const PUBLISH_YIELDS: u32 = 128;

impl CommitClock {
    fn new() -> Self {
        CommitClock {
            alloc: AtomicU64::new(0),
            visible: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            park_mutex: Mutex::new(()),
            park_cv: std::sync::Condvar::new(),
        }
    }

    /// The current snapshot watermark: every version stamped `≤ now()` is
    /// fully published.
    pub fn now(&self) -> u64 {
        self.visible.load(SeqCst)
    }

    /// Commits `stamp`: allocates the next timestamp, stores it into the
    /// stamp (atomically publishing every version that shares it), and
    /// advances the visible watermark gap-free. Must be called while the
    /// committing transaction still holds its locks — that ordering is
    /// what lets a snapshot reader treat "stamp ≤ snap" as "fully
    /// committed before my snapshot".
    ///
    /// Returns the allocated timestamp.
    ///
    /// # Oversubscription hazard
    ///
    /// Publication is strictly in allocation order, so a committer
    /// descheduled between its `alloc` fetch-add and its `visible` store
    /// convoys every later committer (and rollback, which stamps too)
    /// until the scheduler runs it again. The window is a handful of
    /// straight-line instructions — no locks, no I/O — so in practice it
    /// closes in nanoseconds, and because each committer only ever waits
    /// on *smaller* timestamps the wait-for order is acyclic (no
    /// deadlock). On a heavily oversubscribed box (threads ≫ cores) the
    /// stall is scheduler-bound, not instruction-bound, so the wait is
    /// **bounded**: [`PUBLISH_SPINS`] busy iterations, then
    /// [`PUBLISH_YIELDS`] yields, then the waiter *parks* on a condvar
    /// and is woken by whichever publisher advances `visible` — parked
    /// waiters consume no CPU, which is exactly what lets the descheduled
    /// predecessor run. The uncontended path never touches the mutex:
    /// publishers only take it when `parked > 0`.
    pub fn commit(&self, stamp: &CommitStamp) -> u64 {
        let ts = self.alloc.fetch_add(1, SeqCst) + 1;
        stamp.0.store(ts, SeqCst);
        let mut spins = 0u32;
        while self.visible.load(SeqCst) != ts - 1 {
            spins += 1;
            if spins <= PUBLISH_SPINS {
                std::hint::spin_loop();
            } else if spins <= PUBLISH_SPINS + PUBLISH_YIELDS {
                std::thread::yield_now();
            } else {
                self.park_until_predecessor(ts);
                break;
            }
        }
        self.visible.store(ts, SeqCst);
        if self.parked.load(SeqCst) > 0 {
            // Take-and-drop the mutex before notifying: a waiter that has
            // incremented `parked` but not yet blocked is still inside the
            // critical section re-checking `visible`, so it either sees
            // our store or is already blocked when the notification fires
            // — never a lost wakeup.
            drop(self.park_mutex.lock().unwrap_or_else(|e| e.into_inner()));
            self.park_cv.notify_all();
        }
        ts
    }

    /// Advances the clock to at least `ts` without publishing any
    /// versions — crash recovery's re-seed: after replaying a log whose
    /// highest record carries stamp `ts`, the clock must resume
    /// *strictly above* it so post-recovery commits never reuse a
    /// replayed timestamp. A no-op if the clock already passed `ts`.
    ///
    /// Only takes effect from a quiescent state (`alloc == visible`,
    /// i.e. no committer between its allocation and its publication):
    /// jumping `alloc` while a committer is in flight would strand that
    /// committer waiting for a predecessor watermark that no longer
    /// exists. Recovery runs before the relation is shared, so the loop
    /// terminates as soon as concurrent committers (of *other*
    /// relations on the same process-global clock) drain.
    pub fn advance_to(&self, ts: u64) {
        loop {
            let visible = self.visible.load(SeqCst);
            if visible >= ts {
                return;
            }
            let alloc = self.alloc.load(SeqCst);
            if alloc != visible {
                // In-flight committers: let them publish, then retry.
                std::thread::yield_now();
                continue;
            }
            if self
                .alloc
                .compare_exchange(visible, ts, SeqCst, SeqCst)
                .is_err()
            {
                continue;
            }
            self.visible.store(ts, SeqCst);
            if self.parked.load(SeqCst) > 0 {
                drop(self.park_mutex.lock().unwrap_or_else(|e| e.into_inner()));
                self.park_cv.notify_all();
            }
            return;
        }
    }

    /// Blocks until `visible == ts - 1`. The timeout is belt-and-braces:
    /// a publisher that raced past the `parked` increment re-checks at
    /// most 1 ms later, keeping the wait bounded by the scheduler rather
    /// than by luck.
    #[cold]
    fn park_until_predecessor(&self, ts: u64) {
        let mut guard = self.park_mutex.lock().unwrap_or_else(|e| e.into_inner());
        self.parked.fetch_add(1, SeqCst);
        while self.visible.load(SeqCst) != ts - 1 {
            guard = self
                .park_cv
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        self.parked.fetch_sub(1, SeqCst);
    }
}

/// The process-global clock instance.
pub fn commit_clock() -> &'static CommitClock {
    static CLOCK: OnceLock<CommitClock> = OnceLock::new();
    CLOCK.get_or_init(CommitClock::new)
}

/// An active-snapshot slot: [`TENTATIVE_TS`] when idle, the reader's
/// snapshot timestamp while a read transaction is running.
type Slot = Arc<AtomicU64>;

/// Registry of in-flight snapshot readers, consulted by committers to
/// decide how far version chains may be truncated
/// ([`SnapshotRegistry::min_active`]).
///
/// Registries are **per relation**: each `ConcurrentRelation` owns one
/// (shards of one sharded relation share one), so a long-lived reader
/// pins version retirement only for the relation it is actually reading
/// — an idle reader on relation A must not make relation B's dead
/// version cells immortal. The [`snapshot_registry`] process-global
/// instance remains for callers without a relation at hand.
///
/// Every registration claims its **own** slot — nested registrations on
/// one thread (a `relB.query()` inside `relA.read_transaction(..)`
/// routes through `read_transaction` again) therefore occupy distinct
/// slots and can never clobber each other, regardless of drop order.
/// Released slot indexes return to the owning registry's free list, so
/// the slot table stays as small as the registry's peak reader
/// concurrency.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    slots: RwLock<Vec<Slot>>,
    free: Mutex<Vec<usize>>,
}

/// The process-global snapshot registry (for registrations not tied to
/// any particular relation).
pub fn snapshot_registry() -> &'static Arc<SnapshotRegistry> {
    static REGISTRY: OnceLock<Arc<SnapshotRegistry>> = OnceLock::new();
    REGISTRY.get_or_init(SnapshotRegistry::new)
}

/// RAII registration of one snapshot read; dropping it marks the slot
/// idle again and returns it to the owning registry's free list.
#[derive(Debug)]
pub struct SnapshotGuard {
    owner: Arc<SnapshotRegistry>,
    slot: Slot,
    index: usize,
    snap: u64,
}

impl SnapshotGuard {
    /// The registered snapshot timestamp.
    pub fn snap(&self) -> u64 {
        self.snap
    }
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        self.slot.store(TENTATIVE_TS, SeqCst);
        self.owner.free.lock().expect("free list").push(self.index);
    }
}

impl SnapshotRegistry {
    /// Creates a fresh registry (one per relation; see the type docs).
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<SnapshotRegistry> {
        Arc::new(SnapshotRegistry::default())
    }

    /// Claims an idle slot: the free list first, then a fresh slot.
    /// Distinct live registrations always hold distinct slots.
    fn claim_slot(&self) -> (Slot, usize) {
        if let Some(index) = self.free.lock().expect("free list").pop() {
            let slot = Arc::clone(&self.slots.read().expect("slots")[index]);
            return (slot, index);
        }
        let mut slots = self.slots.write().expect("slots");
        let index = slots.len();
        let slot = Arc::new(AtomicU64::new(TENTATIVE_TS));
        slots.push(Arc::clone(&slot));
        (slot, index)
    }

    /// Registers the calling thread as reading at the clock's current
    /// watermark, using publish-then-validate (see the [module docs](self))
    /// so a concurrent committer's [`SnapshotRegistry::min_active`] can
    /// never miss the registration.
    pub fn register(self: &Arc<Self>, clock: &CommitClock) -> SnapshotGuard {
        let (slot, index) = self.claim_slot();
        loop {
            let snap = clock.now();
            slot.store(snap, SeqCst);
            if clock.now() == snap {
                return SnapshotGuard {
                    owner: Arc::clone(self),
                    slot,
                    index,
                    snap,
                };
            }
            // The watermark moved between publish and validate: retry so
            // the registered value is never below what a concurrent
            // truncation decision assumed.
        }
    }

    /// The oldest snapshot any in-flight reader of **this registry**
    /// holds, or the clock's current watermark when no reader is active.
    /// Versions strictly older than the newest version `≤ min_active` of
    /// their chain can never be observed again and are safe to retire;
    /// entries whose newest version is a tombstone stamped `≤ min_active`
    /// are invisible to every present and future reader and are safe to
    /// unlink.
    pub fn min_active(&self, clock: &CommitClock) -> u64 {
        // Read the watermark FIRST: a reader that registers after this
        // load observes (SeqCst) a visible ≥ our value, so its snapshot
        // is ≥ the bound we return even though we never saw its slot.
        let now = clock.now();
        let slots = self.slots.read().expect("slots");
        slots
            .iter()
            .map(|s| s.load(SeqCst))
            .min()
            .map_or(now, |m| m.min(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn stamps_publish_in_order() {
        let clock = commit_clock();
        let before = clock.now();
        let s1 = CommitStamp::new();
        assert!(!s1.is_committed());
        let t1 = clock.commit(&s1);
        assert!(t1 > before);
        assert_eq!(s1.load(), t1);
        assert!(clock.now() >= t1);
    }

    #[test]
    fn concurrent_commits_never_leave_gaps() {
        let clock = commit_clock();
        let threads = 8;
        let per = 200;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait();
                    let mut last = 0;
                    for _ in 0..per {
                        let s = CommitStamp::new();
                        let ts = clock.commit(&s);
                        assert!(ts > last);
                        last = ts;
                        // The watermark includes us by the time commit
                        // returns — and never runs ahead of alloc.
                        let now = clock.now();
                        assert!(now >= ts);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn registry_bounds_truncation() {
        let clock = commit_clock();
        let reg = snapshot_registry();
        let s = CommitStamp::new();
        clock.commit(&s);
        let g = reg.register(clock);
        assert!(g.snap() >= s.load());
        // While the reader is live, min_active cannot pass its snapshot.
        let s2 = CommitStamp::new();
        clock.commit(&s2);
        assert!(reg.min_active(clock) <= g.snap());
        let snap = g.snap();
        drop(g);
        // Released: the floor may advance again (other tests' readers on
        // other threads may still hold older snapshots, so only check
        // against our own).
        assert!(reg.min_active(clock) >= snap.min(reg.min_active(clock)));
    }

    #[test]
    fn nested_registrations_hold_distinct_slots() {
        let clock = commit_clock();
        let reg = snapshot_registry();
        let outer = reg.register(clock);
        // Advance the clock so an inner registration lands on a strictly
        // newer snapshot.
        let s = CommitStamp::new();
        clock.commit(&s);
        let inner = reg.register(clock);
        assert!(inner.snap() >= outer.snap());
        // Both snapshots must bound min_active while both are live: the
        // inner registration may not overwrite the outer's slot.
        assert!(reg.min_active(clock) <= outer.snap());
        // Dropping the inner guard must not deregister the outer reader.
        drop(inner);
        let s2 = CommitStamp::new();
        clock.commit(&s2);
        assert!(reg.min_active(clock) <= outer.snap());
        drop(outer);
    }

    #[test]
    fn out_of_order_guard_drop_keeps_live_reader_registered() {
        let clock = commit_clock();
        let reg = snapshot_registry();
        let outer = reg.register(clock);
        let s = CommitStamp::new();
        clock.commit(&s);
        let inner = reg.register(clock);
        let inner_snap = inner.snap();
        // Drop the guards in registration (non-LIFO) order: the inner
        // reader must stay protected after the outer slot is released.
        drop(outer);
        let s2 = CommitStamp::new();
        clock.commit(&s2);
        assert!(reg.min_active(clock) <= inner_snap);
        drop(inner);
    }

    #[test]
    fn oversubscribed_commits_publish_with_bounded_latency() {
        // 4x hardware oversubscription: with the old unbounded spin, a
        // descheduled next-watermark holder convoys every later committer
        // on a busy loop and this test crawls (or times out under a
        // starved scheduler). The spin -> yield -> park ladder keeps
        // publication latency bounded by scheduler wakeups instead.
        let clock = commit_clock();
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        let threads = 4 * cores;
        let per = 50;
        let barrier = Arc::new(Barrier::new(threads));
        let start = std::time::Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait();
                    for _ in 0..per {
                        let s = CommitStamp::new();
                        let ts = clock.commit(&s);
                        assert!(clock.now() >= ts);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Generous liveness bound: the whole oversubscribed run must
        // finish well inside CI timeouts.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(60),
            "publication convoyed: {} threads x {} commits took {:?}",
            threads,
            per,
            start.elapsed()
        );
        // No committer may be left unpublished.
        assert!(clock.parked.load(SeqCst) == 0);
    }

    #[test]
    fn slots_are_recycled_across_threads() {
        let clock = commit_clock();
        let reg = snapshot_registry();
        for _ in 0..64 {
            std::thread::spawn(move || {
                let g = reg.register(clock);
                let _ = g.snap();
            })
            .join()
            .unwrap();
        }
        // 64 sequential short-lived threads must not grow the slot table
        // by 64: exited threads return their slot to the free list.
        assert!(reg.slots.read().unwrap().len() < 64);
    }
}
