//! Externally-synchronized interior mutability, with a debug-mode dynamic
//! race detector.
//!
//! The paper's non-concurrent containers (`HashMap`, `TreeMap`, splay trees)
//! have *no internal synchronization at all*; their safety under concurrency
//! is discharged entirely by the synthesized lock placement, which serializes
//! access (§4.3: "while we must use locks to protect some containers from all
//! concurrent accesses, in other cases we can rely on the container to
//! mediate concurrent access"). Every edge here is laid out in a structure
//! that is safe without those locks; what still leans on a lock is a
//! version index's sweep cursor, which only a writer holding the edge
//! instance's one exclusive lock moves.
//!
//! In Rust this is exactly an ownership question: the container is shared
//! (`&self`) but mutated, so we need interior mutability whose `Sync`
//! obligation is met by an *external* protocol rather than an internal lock.
//! [`ExtSyncCell`] encapsulates that pattern:
//!
//! * accesses go through [`ExtSyncCell::read`] / [`ExtSyncCell::write`];
//! * the **safety contract** is that the caller serializes conflicting
//!   accesses (concurrent `read`s are allowed iff declared; `write` is
//!   exclusive) — upheld by construction by `relc`'s placement validator;
//! * in debug builds a [`RaceDetector`] counts concurrent readers/writers and
//!   panics the moment the contract is violated, so any unsound placement
//!   fails loudly in tests instead of corrupting memory silently.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicI32, Ordering};

/// A dynamic checker for the external-synchronization contract.
///
/// State: `0` = idle, `n > 0` = `n` concurrent readers, `-1` = one writer.
/// In release builds the detector compiles to a no-op so benchmarks measure
/// the container, not the checker.
#[derive(Default)]
pub struct RaceDetector {
    #[cfg(debug_assertions)]
    state: AtomicI32,
}

// Keep the import used in release builds.
#[cfg(not(debug_assertions))]
const _: fn() = || {
    let _ = AtomicI32::new(0);
    let _ = Ordering::Relaxed;
};

impl RaceDetector {
    /// Creates an idle detector.
    pub fn new() -> Self {
        RaceDetector::default()
    }

    /// Marks the start of a read; panics on a concurrent writer.
    #[inline]
    pub fn begin_read(&self) {
        #[cfg(debug_assertions)]
        {
            let prev = self.state.fetch_add(1, Ordering::SeqCst);
            assert!(
                prev >= 0,
                "data race detected: read of a concurrency-unsafe container \
                 while a write is in progress (lock placement bug)"
            );
        }
    }

    /// Marks the end of a read.
    #[inline]
    pub fn end_read(&self) {
        #[cfg(debug_assertions)]
        {
            self.state.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Marks the start of a write; panics on any concurrent access.
    #[inline]
    pub fn begin_write(&self) {
        #[cfg(debug_assertions)]
        {
            let prev = self
                .state
                .compare_exchange(0, -1, Ordering::SeqCst, Ordering::SeqCst);
            assert!(
                prev.is_ok(),
                "data race detected: write to a concurrency-unsafe container \
                 while {} other access(es) are in progress (lock placement bug)",
                prev.unwrap_err()
            );
        }
    }

    /// Marks the end of a write.
    #[inline]
    pub fn end_write(&self) {
        #[cfg(debug_assertions)]
        {
            self.state.store(0, Ordering::SeqCst);
        }
    }
}

impl fmt::Debug for RaceDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        #[cfg(debug_assertions)]
        {
            write!(f, "RaceDetector({})", self.state.load(Ordering::SeqCst))
        }
        #[cfg(not(debug_assertions))]
        {
            write!(f, "RaceDetector(release)")
        }
    }
}

/// Interior mutability whose `Sync` obligation is discharged by an external
/// synchronization protocol (the synthesized lock placement).
///
/// # Safety contract
///
/// Callers must guarantee that a `write` access never overlaps any other
/// access to the same cell, and that `read` accesses only overlap other
/// `read`s. In this workspace the guarantee is established by the lock
/// placement (a version index's sweep cursor moves only under the edge
/// instance's one exclusive lock) and double-checked at runtime in debug
/// builds by the embedded [`RaceDetector`].
pub struct ExtSyncCell<T> {
    cell: UnsafeCell<T>,
    detector: RaceDetector,
}

// SAFETY: `ExtSyncCell` hands out `&T` / `&mut T` only under the external
// synchronization contract documented above; given that contract, sharing
// the cell across threads is sound. `T: Send` is required because writers
// on other threads obtain `&mut T`; `T: Sync` is NOT required of callers'
// `T` uses beyond reads, but we conservatively require it so `&T` reads from
// multiple threads are sound for any `T`.
unsafe impl<T: Send + Sync> Sync for ExtSyncCell<T> {}
unsafe impl<T: Send> Send for ExtSyncCell<T> {}

impl<T> ExtSyncCell<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        ExtSyncCell {
            cell: UnsafeCell::new(value),
            detector: RaceDetector::new(),
        }
    }

    /// Runs `f` with shared access to the value.
    ///
    /// Under the safety contract, only other `read`s may run concurrently.
    #[inline]
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.detector.begin_read();
        // SAFETY: external protocol guarantees no concurrent `&mut` exists.
        let r = f(unsafe { &*self.cell.get() });
        self.detector.end_read();
        r
    }

    /// Runs `f` with exclusive access to the value.
    ///
    /// Under the safety contract, no other access may run concurrently.
    #[inline]
    pub fn write<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.detector.begin_write();
        // SAFETY: external protocol guarantees exclusivity.
        let r = f(unsafe { &mut *self.cell.get() });
        self.detector.end_write();
        r
    }

    /// Consumes the cell, returning the value.
    pub fn into_inner(self) -> T {
        self.cell.into_inner()
    }

    /// Exclusive access through `&mut self` (statically race-free).
    pub fn get_mut(&mut self) -> &mut T {
        self.cell.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for ExtSyncCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.read(|v| f.debug_tuple("ExtSyncCell").field(v).finish())
    }
}

impl<T: Default> Default for ExtSyncCell<T> {
    fn default() -> Self {
        ExtSyncCell::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(debug_assertions)]
    use std::sync::Arc;

    #[test]
    fn read_write_roundtrip() {
        let cell = ExtSyncCell::new(1);
        assert_eq!(cell.read(|v| *v), 1);
        cell.write(|v| *v = 5);
        assert_eq!(cell.read(|v| *v), 5);
        assert_eq!(cell.into_inner(), 5);
    }

    #[test]
    fn get_mut_and_default() {
        let mut cell: ExtSyncCell<Vec<i32>> = ExtSyncCell::default();
        cell.get_mut().push(3);
        assert_eq!(cell.read(|v| v.len()), 1);
    }

    #[test]
    fn nested_reads_are_allowed() {
        let cell = ExtSyncCell::new(7);
        cell.read(|a| {
            cell.read(|b| {
                assert_eq!(*a, *b);
            });
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    fn detector_catches_write_during_read() {
        let cell = Arc::new(ExtSyncCell::new(0u64));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.read(|_| {
                cell.write(|v| *v += 1);
            });
        }));
        assert!(result.is_err(), "write-under-read must be detected");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn detector_catches_concurrent_writers() {
        // Deterministic: the main thread holds a write while another thread
        // attempts one — the second writer must panic.
        let detector = Arc::new(RaceDetector::new());
        detector.begin_write();
        let d2 = detector.clone();
        let second_writer_panicked = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d2.begin_write())).is_err()
        })
        .join()
        .unwrap();
        assert!(
            second_writer_panicked,
            "overlapping writers must be detected"
        );
        detector.end_write();
        // After release, writing is allowed again.
        detector.begin_write();
        detector.end_write();
    }

    #[test]
    fn detector_debug_nonempty() {
        assert!(!format!("{:?}", RaceDetector::new()).is_empty());
    }
}
