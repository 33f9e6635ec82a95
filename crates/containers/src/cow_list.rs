//! A copy-on-write sorted array — the Rust analog of the JDK
//! `CopyOnWriteArrayList` row of Figure 1: every operation is linearizable,
//! and scans iterate over an immutable **snapshot** (§3.1: "iteration behaves
//! as if it operated over a linearizable snapshot of the container").
//!
//! Readers grab an `Arc` to the current snapshot (the linearization point)
//! and never block writers; writers serialize among themselves, clone the
//! array, apply the change, and publish the new snapshot.

use std::ops::{Bound, ControlFlow};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::api::{Container, ContainerKind, Key, Val};
use crate::taxonomy::ContainerProps;

/// A concurrency-safe copy-on-write sorted array map (Figure 1's
/// `CopyOnWriteArrayList` row).
///
/// Entries are kept sorted by key, so scans are sorted *and* snapshot.
/// Writes are O(n); the container shines for read-mostly edges.
///
/// # Examples
///
/// ```
/// use relc_containers::{CowArrayList, Container};
/// use std::ops::ControlFlow;
///
/// let m = CowArrayList::new();
/// m.write(&2, Some("b"));
/// m.write(&1, Some("a"));
/// let mut keys = Vec::new();
/// m.scan(&mut |k: &i32, _v: &&str| { keys.push(*k); ControlFlow::Continue(()) });
/// assert_eq!(keys, vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct CowArrayList<K, V> {
    current: RwLock<Arc<Vec<(K, V)>>>,
}

impl<K: Key, V: Val> CowArrayList<K, V> {
    /// Creates an empty list.
    pub fn new() -> Self {
        CowArrayList {
            current: RwLock::new(Arc::new(Vec::new())),
        }
    }

    /// Takes an O(1) snapshot of the current contents.
    pub fn snapshot(&self) -> Arc<Vec<(K, V)>> {
        Arc::clone(&self.current.read())
    }
}

impl<K: Key, V: Val> Default for CowArrayList<K, V> {
    fn default() -> Self {
        CowArrayList::new()
    }
}

impl<K: Key, V: Val> Container<K, V> for CowArrayList<K, V> {
    fn lookup(&self, key: &K) -> Option<V> {
        let snap = self.snapshot();
        snap.binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| snap[i].1.clone())
    }

    fn scan(&self, f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>) {
        // Linearizable snapshot iteration: the snapshot Arc is the state at
        // the linearization point; concurrent writes are never observed.
        let snap = self.snapshot();
        for (k, v) in snap.iter() {
            if f(k, v).is_break() {
                return;
            }
        }
    }

    fn scan_range(
        &self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>,
    ) {
        // Bounded snapshot iteration: binary-search the start position in
        // the sorted snapshot, walk forward, stop at the first key past
        // the upper bound.
        let snap = self.snapshot();
        let start = match lo {
            Bound::Included(b) => snap.partition_point(|(k, _)| k < b),
            Bound::Excluded(b) => snap.partition_point(|(k, _)| k <= b),
            Bound::Unbounded => 0,
        };
        for (k, v) in &snap[start..] {
            let below = match hi {
                Bound::Included(b) => k <= b,
                Bound::Excluded(b) => k < b,
                Bound::Unbounded => true,
            };
            if !below || f(k, v).is_break() {
                return;
            }
        }
    }

    fn write(&self, key: &K, value: Option<V>) -> Option<V> {
        let mut guard = self.current.write();
        let pos = guard.binary_search_by(|(k, _)| k.cmp(key));
        match (pos, value) {
            (Ok(i), Some(v)) => {
                let mut next: Vec<(K, V)> = (**guard).clone();
                let old = std::mem::replace(&mut next[i].1, v);
                *guard = Arc::new(next);
                Some(old)
            }
            (Ok(i), None) => {
                let mut next: Vec<(K, V)> = (**guard).clone();
                let (_, old) = next.remove(i);
                *guard = Arc::new(next);
                Some(old)
            }
            (Err(i), Some(v)) => {
                let mut next: Vec<(K, V)> = (**guard).clone();
                next.insert(i, (key.clone(), v));
                *guard = Arc::new(next);
                None
            }
            (Err(_), None) => None,
        }
    }

    fn update_entry(&self, old_key: &K, new_key: &K, value: V) -> Option<V> {
        // One array copy carrying both the removal and the insertion — the
        // default path would clone the whole array twice.
        let mut guard = self.current.write();
        let Ok(i) = guard.binary_search_by(|(k, _)| k.cmp(old_key)) else {
            return None;
        };
        let mut next: Vec<(K, V)> = (**guard).clone();
        let (_, old) = next.remove(i);
        let pos = match next.binary_search_by(|(k, _)| k.cmp(new_key)) {
            Ok(j) => {
                next.remove(j); // caller-guaranteed not to happen for a live entry
                j
            }
            Err(j) => j,
        };
        next.insert(pos, (new_key.clone(), value));
        *guard = Arc::new(next);
        Some(old)
    }

    fn len(&self) -> usize {
        self.current.read().len()
    }

    fn props(&self) -> ContainerProps {
        ContainerKind::CopyOnWriteArrayList.props()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    #[test]
    fn sequential_semantics_sorted() {
        let m: CowArrayList<i64, i64> = CowArrayList::new();
        for k in [5, 1, 3, 2, 4] {
            assert_eq!(m.write(&k, Some(k * 10)), None);
        }
        assert_eq!(m.write(&3, Some(99)), Some(30));
        assert_eq!(m.lookup(&3), Some(99));
        assert_eq!(m.write(&3, None), Some(99));
        assert_eq!(m.write(&3, None), None);
        let mut keys = Vec::new();
        m.scan(&mut |k, _| {
            keys.push(*k);
            ControlFlow::Continue(())
        });
        assert_eq!(keys, vec![1, 2, 4, 5]);
    }

    #[test]
    fn snapshot_isolation_during_scan() {
        let m: Arc<CowArrayList<i64, i64>> = Arc::new(CowArrayList::new());
        for i in 0..100 {
            m.write(&i, Some(i));
        }
        // Start a scan, and in the middle of it, delete everything from
        // another thread; the scan must still see all 100 entries.
        let m2 = m.clone();
        let mut seen = 0usize;
        let barrier = Arc::new(Barrier::new(2));
        let b2 = barrier.clone();
        let deleter = std::thread::spawn(move || {
            b2.wait();
            for i in 0..100 {
                m2.write(&i, None);
            }
        });
        let mut released = false;
        m.scan(&mut |_, _| {
            if !released {
                barrier.wait(); // let the deleter run mid-scan
                released = true;
            }
            seen += 1;
            ControlFlow::Continue(())
        });
        deleter.join().unwrap();
        assert_eq!(seen, 100, "snapshot scan must observe the full snapshot");
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn concurrent_writers_serialize() {
        let m: Arc<CowArrayList<i64, i64>> = Arc::new(CowArrayList::new());
        let threads = 4;
        let per = 200;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads as i64)
            .map(|t| {
                let m = m.clone();
                let b = barrier.clone();
                std::thread::spawn(move || {
                    b.wait();
                    for i in 0..per {
                        m.write(&(t * 1000 + i), Some(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), threads * per as usize);
    }

    #[test]
    fn readers_make_progress_during_writes() {
        let m: Arc<CowArrayList<i64, i64>> = Arc::new(CowArrayList::new());
        m.write(&1, Some(1));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let m = m.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 2i64;
                while !stop.load(Ordering::Relaxed) {
                    m.write(&(i % 50), Some(i));
                    i += 1;
                }
            })
        };
        for _ in 0..20_000 {
            assert!(m.lookup(&1).is_some());
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn props_row() {
        let m: CowArrayList<i64, i64> = CowArrayList::new();
        assert!(m.props().is_concurrency_safe());
        assert!(m.props().snapshot_scan);
        assert!(m.props().sorted_scan);
    }
}
