//! Physical reader-writer locks attached to decomposition node instances
//! (§4.3).
//!
//! A [`PhysicalLock`] guards no data of its own — it *implements a set of
//! logical locks* chosen by the lock placement, and the data it protects
//! (container entries) lives elsewhere in the decomposition instance.
//!
//! The lock is a single atomic word (`0` = free, `u32::MAX` = exclusively
//! held, otherwise the reader count), so the uncontended
//! acquire/release pair — the overwhelmingly common case on the
//! transaction hot path, where every instance's lock is taken for every
//! operation that touches it — is two compare-exchanges, with no queue,
//! mutex, or condition variable behind it. Contended blocking acquisitions
//! spin briefly, then yield, then sleep with escalating backoff; fairness
//! niceties are deliberately traded for throughput (the two-phase
//! engine's ordered protocol already prevents starvation cycles, and the
//! randomized transaction backoff spreads retry storms).

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::mode::LockMode;

/// Word value marking an exclusive holder (all bits set — distinct from
/// any reader-count/pending combination, since counts stay below 2³¹).
const EXCLUSIVE: u32 = u32::MAX;
/// A writer is blocked waiting for the readers to drain: new shared
/// acquisitions fail while this is set, so a steady stream of readers
/// cannot starve a blocking writer.
const WRITER_PENDING: u32 = 1 << 31;
/// Pure spins before the first yield.
const SPINS: u32 = 64;
/// Yields before escalating to timed sleeps.
const YIELDS: u32 = 64;

/// A physical reader-writer lock with contention accounting.
pub struct PhysicalLock {
    /// `0` = free, [`EXCLUSIVE`] = one writer, else the reader count in
    /// the low bits plus an optional [`WRITER_PENDING`] flag.
    state: AtomicU32,
    contended: AtomicU64,
}

impl PhysicalLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        PhysicalLock {
            state: AtomicU32::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Acquires the lock in `mode`, blocking if necessary.
    ///
    /// A blocking exclusive acquisition raises `WRITER_PENDING`, which
    /// turns away newly arriving readers while the current ones drain —
    /// writer preference, so read-heavy traffic cannot starve writers.
    /// (Blocked *readers* then wait for that writer; the wait-for edges
    /// this adds stay within one lock and point from the waiter to
    /// holders that only ever block on higher-ordered locks, so the §5.1
    /// deadlock-freedom argument is unaffected.)
    pub fn acquire(&self, mode: LockMode) {
        if self.try_acquire(mode) {
            return;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        let mut attempts = 0u32;
        loop {
            if mode == LockMode::Exclusive {
                // Flag our wait so the reader population only shrinks.
                // The flag may be cleared by another writer winning and
                // releasing (its `swap(0)`); just re-raise it.
                let cur = self.state.load(Ordering::Relaxed);
                if cur != EXCLUSIVE && cur & WRITER_PENDING == 0 {
                    let _ = self.state.compare_exchange_weak(
                        cur,
                        cur | WRITER_PENDING,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                }
                // Claim once the readers are gone (only the flag remains).
                if self
                    .state
                    .compare_exchange(
                        WRITER_PENDING,
                        EXCLUSIVE,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return;
                }
            } else if self.try_acquire(mode) {
                return;
            }
            attempts += 1;
            if attempts <= SPINS {
                std::hint::spin_loop();
            } else if attempts <= SPINS + YIELDS {
                std::thread::yield_now();
            } else {
                // Escalating sleep, capped at 1ms: long waits stop burning
                // the CPU the holder needs to finish.
                let exp = (attempts - SPINS - YIELDS).min(10);
                std::thread::sleep(std::time::Duration::from_micros(1 << exp));
            }
        }
    }

    /// Attempts to acquire the lock in `mode` without blocking. Fails for
    /// either mode while a blocking writer is flagged (`WRITER_PENDING`)
    /// — try-only callers restart rather than queue-jump.
    pub fn try_acquire(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => {
                let mut cur = self.state.load(Ordering::Relaxed);
                loop {
                    if cur == EXCLUSIVE || cur & WRITER_PENDING != 0 {
                        return false;
                    }
                    match self.state.compare_exchange_weak(
                        cur,
                        cur + 1,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return true,
                        Err(now) => cur = now,
                    }
                }
            }
            LockMode::Exclusive => self
                .state
                .compare_exchange(0, EXCLUSIVE, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
        }
    }

    /// Turns the caller's shared hold into an exclusive one without
    /// releasing it, if that needs no waiting: succeeds only when the
    /// caller is the sole reader and no writer is flagged
    /// (`WRITER_PENDING`), so writer preference is kept. On failure the
    /// caller still holds the lock shared.
    ///
    /// # Safety
    ///
    /// The caller must currently hold this lock shared (once); on success
    /// it holds it exclusively and must release it as such.
    pub unsafe fn try_upgrade(&self) -> bool {
        self.state
            .compare_exchange(1, EXCLUSIVE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases the lock previously acquired in `mode`.
    ///
    /// # Safety
    ///
    /// The caller must currently hold this lock in exactly `mode` (the
    /// two-phase engine tracks held modes and upholds this).
    pub unsafe fn release(&self, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                // Leaves any WRITER_PENDING flag intact for the waiter.
                let prev = self.state.fetch_sub(1, Ordering::Release);
                debug_assert!(
                    prev != EXCLUSIVE && prev & !WRITER_PENDING > 0,
                    "release without holders"
                );
            }
            LockMode::Exclusive => {
                // Also clears WRITER_PENDING: waiting writers re-raise it.
                let prev = self.state.swap(0, Ordering::Release);
                debug_assert_eq!(prev, EXCLUSIVE, "exclusive release without writer");
            }
        }
    }

    /// How many acquisitions found the lock already contended.
    pub fn contention_count(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

impl Default for PhysicalLock {
    fn default() -> Self {
        PhysicalLock::new()
    }
}

impl fmt::Debug for PhysicalLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalLock")
            .field("contended", &self.contention_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exclusive_excludes_everyone() {
        let l = PhysicalLock::new();
        assert!(l.try_acquire(LockMode::Exclusive));
        assert!(!l.try_acquire(LockMode::Exclusive));
        assert!(!l.try_acquire(LockMode::Shared));
        unsafe { l.release(LockMode::Exclusive) };
        assert!(l.try_acquire(LockMode::Shared));
        unsafe { l.release(LockMode::Shared) };
    }

    #[test]
    fn shared_admits_readers_excludes_writers() {
        let l = PhysicalLock::new();
        assert!(l.try_acquire(LockMode::Shared));
        assert!(l.try_acquire(LockMode::Shared));
        assert!(!l.try_acquire(LockMode::Exclusive));
        unsafe { l.release(LockMode::Shared) };
        assert!(!l.try_acquire(LockMode::Exclusive));
        unsafe { l.release(LockMode::Shared) };
        assert!(l.try_acquire(LockMode::Exclusive));
        unsafe { l.release(LockMode::Exclusive) };
    }

    #[test]
    fn sole_reader_upgrades_in_place() {
        let l = PhysicalLock::new();
        assert!(l.try_acquire(LockMode::Shared));
        assert!(unsafe { l.try_upgrade() });
        assert!(!l.try_acquire(LockMode::Shared), "now exclusive");
        unsafe { l.release(LockMode::Exclusive) };
        assert!(l.try_acquire(LockMode::Exclusive), "released as exclusive");
        unsafe { l.release(LockMode::Exclusive) };
    }

    #[test]
    fn upgrade_fails_beside_another_reader() {
        let l = PhysicalLock::new();
        assert!(l.try_acquire(LockMode::Shared));
        assert!(l.try_acquire(LockMode::Shared));
        assert!(!unsafe { l.try_upgrade() });
        // Still two readers: the failed upgrade released nothing.
        unsafe { l.release(LockMode::Shared) };
        assert!(!l.try_acquire(LockMode::Exclusive));
        unsafe { l.release(LockMode::Shared) };
        assert!(l.try_acquire(LockMode::Exclusive));
        unsafe { l.release(LockMode::Exclusive) };
    }

    #[test]
    fn upgrade_yields_to_a_pending_writer() {
        let l = Arc::new(PhysicalLock::new());
        assert!(l.try_acquire(LockMode::Shared));
        let l2 = l.clone();
        let writer = std::thread::spawn(move || {
            l2.acquire(LockMode::Exclusive); // raises WRITER_PENDING, waits
            unsafe { l2.release(LockMode::Exclusive) };
        });
        while l.state.load(Ordering::Relaxed) & WRITER_PENDING == 0 {
            std::thread::yield_now();
        }
        assert!(!unsafe { l.try_upgrade() }, "writer preference");
        unsafe { l.release(LockMode::Shared) };
        writer.join().unwrap();
    }

    #[test]
    fn blocking_acquire_hands_over() {
        let l = Arc::new(PhysicalLock::new());
        l.acquire(LockMode::Exclusive);
        let l2 = l.clone();
        let t = std::thread::spawn(move || {
            l2.acquire(LockMode::Exclusive); // blocks until main releases
            unsafe { l2.release(LockMode::Exclusive) };
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        unsafe { l.release(LockMode::Exclusive) };
        t.join().unwrap();
        assert!(l.contention_count() >= 1);
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", PhysicalLock::new()).is_empty());
    }
}
