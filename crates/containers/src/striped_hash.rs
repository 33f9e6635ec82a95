//! A sharded ("striped") hash map — the Rust analog of the JDK
//! `ConcurrentHashMap` row of Figure 1: linearizable `lookup` and `write`,
//! weakly-consistent `scan`.
//!
//! The table is split into a fixed number of shards, each an independent
//! chained hash table behind a reader-writer lock. Point operations touch
//! exactly one shard (linearization point: while holding that shard's lock);
//! scans lock shards one at a time, so a scan may observe a state that never
//! existed at any single instant — precisely the paper's "weakly consistent"
//! iteration (§3.1).

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;

use crate::api::{Container, Key, Val};
use crate::hashing::hash_key;

const DEFAULT_SHARDS: usize = 16;
const INITIAL_BUCKETS_PER_SHARD: usize = 4;
const MAX_LOAD_NUM: usize = 3;
const MAX_LOAD_DEN: usize = 4;

#[derive(Debug)]
struct Shard<K, V> {
    buckets: Vec<Vec<(K, V)>>,
    len: usize,
}

impl<K: Key, V: Val> Shard<K, V> {
    fn new() -> Self {
        Shard {
            buckets: (0..INITIAL_BUCKETS_PER_SHARD).map(|_| Vec::new()).collect(),
            len: 0,
        }
    }

    fn bucket_of(&self, hash: u64) -> usize {
        // Shard selection uses the low bits; use the high bits for buckets
        // so the two indices stay independent.
        ((hash >> 32) % self.buckets.len() as u64) as usize
    }

    fn write(&mut self, hash: u64, key: &K, value: Option<V>) -> Option<V> {
        let b = self.bucket_of(hash);
        let bucket = &mut self.buckets[b];
        let pos = bucket.iter().position(|(k, _)| k == key);
        match (pos, value) {
            (Some(i), Some(v)) => Some(std::mem::replace(&mut bucket[i].1, v)),
            (Some(i), None) => {
                let (_, old) = bucket.swap_remove(i);
                self.len -= 1;
                Some(old)
            }
            (None, Some(v)) => {
                bucket.push((key.clone(), v));
                self.len += 1;
                if self.len * MAX_LOAD_DEN > self.buckets.len() * MAX_LOAD_NUM {
                    self.grow();
                }
                None
            }
            (None, None) => None,
        }
    }

    fn grow(&mut self) {
        let new_size = self.buckets.len() * 2;
        let mut new_buckets: Vec<Vec<(K, V)>> = (0..new_size).map(|_| Vec::new()).collect();
        for bucket in self.buckets.drain(..) {
            for (k, v) in bucket {
                let idx = ((hash_key(&k) >> 32) % new_size as u64) as usize;
                new_buckets[idx].push((k, v));
            }
        }
        self.buckets = new_buckets;
    }
}

/// A concurrency-safe sharded hash map (Figure 1's `ConcurrentHashMap` row).
///
/// # Examples
///
/// ```
/// use relc_containers::{StripedHashMap, Container};
/// use std::sync::Arc;
///
/// let m = Arc::new(StripedHashMap::new());
/// let m2 = m.clone();
/// let t = std::thread::spawn(move || m2.write(&1, Some("a")));
/// t.join().unwrap();
/// assert_eq!(m.lookup(&1), Some("a"));
/// ```
#[derive(Debug)]
pub struct StripedHashMap<K, V> {
    shards: Box<[RwLock<Shard<K, V>>]>,
    len: AtomicUsize,
}

impl<K: Key, V: Val> StripedHashMap<K, V> {
    /// Creates an empty map with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty map with `shards` shards (rounded up to a power of
    /// two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        StripedHashMap {
            shards: (0..n).map(|_| RwLock::new(Shard::new())).collect(),
            len: AtomicUsize::new(0),
        }
    }

    fn shard_of(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }
}

impl<K: Key, V: Val> Default for StripedHashMap<K, V> {
    fn default() -> Self {
        StripedHashMap::new()
    }
}

impl<K: Key, V: Val> Container<K, V> for StripedHashMap<K, V> {
    fn lookup(&self, key: &K) -> Option<V> {
        let hash = hash_key(key);
        let shard = self.shards[self.shard_of(hash)].read();
        let b = shard.bucket_of(hash);
        shard.buckets[b]
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    fn scan(&self, f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>) {
        // Weakly consistent: shards are visited one at a time; writes to
        // already-visited shards are not observed, writes to not-yet-visited
        // shards are.
        for shard in self.shards.iter() {
            let guard = shard.read();
            for bucket in &guard.buckets {
                for (k, v) in bucket {
                    if f(k, v).is_break() {
                        return;
                    }
                }
            }
        }
    }

    fn write(&self, key: &K, value: Option<V>) -> Option<V> {
        let hash = hash_key(key);
        let inserting = value.is_some();
        let mut shard = self.shards[self.shard_of(hash)].write();
        let old = shard.write(hash, key, value);
        match (old.is_some(), inserting) {
            (false, true) => {
                self.len.fetch_add(1, Ordering::Relaxed);
            }
            (true, false) => {
                self.len.fetch_sub(1, Ordering::Relaxed);
            }
            _ => {}
        }
        old
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn sequential_semantics() {
        let m: StripedHashMap<i64, i64> = StripedHashMap::new();
        assert_eq!(m.write(&1, Some(10)), None);
        assert_eq!(m.write(&1, Some(20)), Some(10));
        assert_eq!(m.lookup(&1), Some(20));
        assert_eq!(m.write(&1, None), Some(20));
        assert_eq!(m.len(), 0);
        for i in 0..2000 {
            m.write(&i, Some(i));
        }
        assert_eq!(m.len(), 2000);
        for i in 0..2000 {
            assert_eq!(m.lookup(&i), Some(i));
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let m: StripedHashMap<i64, i64> = StripedHashMap::with_shards(5);
        assert_eq!(m.shards.len(), 8);
        let m: StripedHashMap<i64, i64> = StripedHashMap::with_shards(0);
        assert_eq!(m.shards.len(), 1);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let m: Arc<StripedHashMap<i64, i64>> = Arc::new(StripedHashMap::new());
        let threads = 8;
        let per = 500;
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
        for t in 0..threads as i64 {
            for i in 0..per {
                assert_eq!(m.lookup(&(t * 10_000 + i)), Some(i));
            }
        }
    }

    #[test]
    fn concurrent_same_key_last_writer_wins_consistently() {
        let m: Arc<StripedHashMap<i64, i64>> = Arc::new(StripedHashMap::new());
        let threads = 4;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads as i64)
            .map(|t| {
                let m = m.clone();
                let b = barrier.clone();
                std::thread::spawn(move || {
                    b.wait();
                    for _ in 0..5_000 {
                        m.write(&7, Some(t));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let v = m.lookup(&7).unwrap();
        assert!((0..threads as i64).contains(&v));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn concurrent_readers_during_writes_never_see_torn_state() {
        let m: Arc<StripedHashMap<i64, i64>> = Arc::new(StripedHashMap::new());
        for i in 0..100 {
            m.write(&i, Some(i * 2));
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let m = m.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut round = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let k = round % 100;
                    m.write(&k, Some(k * 2)); // rewrite same consistent value
                    round += 1;
                }
            })
        };
        for _ in 0..50_000 {
            let k = 42;
            if let Some(v) = m.lookup(&k) {
                assert_eq!(v, k * 2);
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn weakly_consistent_scan_completes_during_writes() {
        let m: Arc<StripedHashMap<i64, i64>> = Arc::new(StripedHashMap::new());
        for i in 0..1000 {
            m.write(&i, Some(i));
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let m = m.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 1000i64;
                while !stop.load(Ordering::Relaxed) {
                    m.write(&i, Some(i));
                    m.write(&(i - 500), None);
                    i += 1;
                }
            })
        };
        for _ in 0..100 {
            let mut count = 0usize;
            m.scan(&mut |_, _| {
                count += 1;
                ControlFlow::Continue(())
            });
            assert!(count > 0);
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn props_row() {
        let props = crate::ContainerKind::ConcurrentHashMap.props();
        assert!(props.is_concurrency_safe());
        assert!(props.lookup_is_linearizable());
        assert!(!props.sorted_scan);
    }
}
