//! A chained hash map with **no internal synchronization** — the Rust analog
//! of the JDK `HashMap` row of Figure 1.
//!
//! Concurrent lookups/scans are safe (they do not mutate the table), but any
//! write racing any other operation is a data race; the synthesized lock
//! placement must serialize them. See [`crate::extsync::ExtSyncCell`].

use std::ops::ControlFlow;

use crate::api::{Container, ContainerKind, Key, Val};
use crate::extsync::ExtSyncCell;
use crate::hashing::hash_key;
use crate::taxonomy::ContainerProps;

const INITIAL_BUCKETS: usize = 8;
const MAX_LOAD_NUM: usize = 3; // resize when len > buckets * 3/4
const MAX_LOAD_DEN: usize = 4;

#[derive(Debug)]
struct RawTable<K, V> {
    buckets: Vec<Vec<(K, V)>>,
    len: usize,
}

impl<K: Key, V: Val> RawTable<K, V> {
    fn new() -> Self {
        RawTable {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            len: 0,
        }
    }

    fn bucket_of(&self, key: &K) -> usize {
        (hash_key(key) % self.buckets.len() as u64) as usize
    }

    fn lookup(&self, key: &K) -> Option<&V> {
        self.buckets[self.bucket_of(key)]
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn write(&mut self, key: &K, value: Option<V>) -> Option<V> {
        let b = self.bucket_of(key);
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
                self.maybe_grow();
                None
            }
            (None, None) => None,
        }
    }

    fn maybe_grow(&mut self) {
        if self.len * MAX_LOAD_DEN > self.buckets.len() * MAX_LOAD_NUM {
            let new_size = self.buckets.len() * 2;
            let mut new_buckets: Vec<Vec<(K, V)>> = (0..new_size).map(|_| Vec::new()).collect();
            for bucket in self.buckets.drain(..) {
                for (k, v) in bucket {
                    let idx = (hash_key(&k) % new_size as u64) as usize;
                    new_buckets[idx].push((k, v));
                }
            }
            self.buckets = new_buckets;
        }
    }
}

/// A non-concurrent chained hash map (Figure 1's `HashMap` row).
///
/// # Examples
///
/// ```
/// use relc_containers::{ChainedHashMap, Container};
///
/// let m = ChainedHashMap::new();
/// assert_eq!(m.write(&1, Some("a")), None);
/// assert_eq!(m.lookup(&1), Some("a"));
/// assert_eq!(m.write(&1, None), Some("a"));
/// assert!(m.is_empty());
/// ```
#[derive(Debug)]
pub struct ChainedHashMap<K, V> {
    inner: ExtSyncCell<RawTable<K, V>>,
}

impl<K: Key, V: Val> ChainedHashMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        ChainedHashMap {
            inner: ExtSyncCell::new(RawTable::new()),
        }
    }
}

impl<K: Key, V: Val> Default for ChainedHashMap<K, V> {
    fn default() -> Self {
        ChainedHashMap::new()
    }
}

impl<K: Key, V: Val> Container<K, V> for ChainedHashMap<K, V> {
    fn lookup(&self, key: &K) -> Option<V> {
        self.inner.read(|t| t.lookup(key).cloned())
    }

    fn scan(&self, f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>) {
        self.inner.read(|t| {
            for bucket in &t.buckets {
                for (k, v) in bucket {
                    if f(k, v).is_break() {
                        return;
                    }
                }
            }
        });
    }

    fn write(&self, key: &K, value: Option<V>) -> Option<V> {
        self.inner.write(|t| t.write(key, value))
    }

    fn update_entry(&self, old_key: &K, new_key: &K, value: V) -> Option<V> {
        // One externally synchronized critical section for both writes (the
        // debug race detector sees a single writer span).
        self.inner.write(|t| {
            let old = t.write(old_key, None)?;
            t.write(new_key, Some(value));
            Some(old)
        })
    }

    fn len(&self) -> usize {
        self.inner.read(|t| t.len)
    }

    fn props(&self) -> ContainerProps {
        ContainerKind::HashMap.props()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_update_remove() {
        let m: ChainedHashMap<i64, i64> = ChainedHashMap::new();
        assert_eq!(m.write(&1, Some(10)), None);
        assert_eq!(m.write(&1, Some(20)), Some(10));
        assert_eq!(m.lookup(&1), Some(20));
        assert_eq!(m.len(), 1);
        assert_eq!(m.write(&1, None), Some(20));
        assert_eq!(m.write(&1, None), None);
        assert_eq!(m.lookup(&1), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let m: ChainedHashMap<i64, i64> = ChainedHashMap::new();
        for i in 0..1000 {
            assert_eq!(m.write(&i, Some(i * 2)), None);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000 {
            assert_eq!(m.lookup(&i), Some(i * 2), "key {i}");
        }
        assert_eq!(m.lookup(&1000), None);
    }

    #[test]
    fn scan_visits_everything_and_breaks() {
        let m: ChainedHashMap<i64, i64> = ChainedHashMap::new();
        for i in 0..50 {
            m.write(&i, Some(i));
        }
        let mut seen = Vec::new();
        m.scan(&mut |k, _| {
            seen.push(*k);
            ControlFlow::Continue(())
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());

        let mut count = 0;
        m.scan(&mut |_, _| {
            count += 1;
            if count == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(count, 5);
    }

    #[test]
    fn remove_then_reinsert() {
        let m: ChainedHashMap<i64, String> = ChainedHashMap::new();
        for i in 0..100 {
            m.write(&i, Some(format!("v{i}")));
        }
        for i in (0..100).step_by(2) {
            assert!(m.write(&i, None).is_some());
        }
        assert_eq!(m.len(), 50);
        for i in (0..100).step_by(2) {
            assert_eq!(m.lookup(&i), None);
            m.write(&i, Some("again".to_owned()));
        }
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn props_row() {
        let m: ChainedHashMap<i64, i64> = ChainedHashMap::new();
        assert_eq!(m.props().name, "HashMap");
        assert!(!m.props().is_concurrency_safe());
    }
}
