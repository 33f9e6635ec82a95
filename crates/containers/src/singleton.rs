//! A 0-or-1-entry container for singleton edges.
//!
//! Decomposition edges whose source key functionally determines the edge
//! columns hold at most one entry (the dotted "singleton tuple" edges of
//! Figs. 2 and 3). A full map would be wasteful; [`SingletonCell`] is a
//! single slot behind a reader-writer lock, fully linearizable.

use std::ops::ControlFlow;

use parking_lot::RwLock;

use crate::api::{Container, ContainerKind, Key, Val};
use crate::taxonomy::ContainerProps;

/// A concurrency-safe container holding at most one entry.
///
/// # Examples
///
/// ```
/// use relc_containers::{SingletonCell, Container};
///
/// let c = SingletonCell::new();
/// assert_eq!(c.write(&"k", Some(1)), None);
/// assert_eq!(c.lookup(&"k"), Some(1));
/// assert_eq!(c.lookup(&"other"), None);
/// ```
#[derive(Debug)]
pub struct SingletonCell<K, V> {
    slot: RwLock<Option<(K, V)>>,
}

impl<K: Key, V: Val> SingletonCell<K, V> {
    /// Creates an empty cell.
    pub fn new() -> Self {
        SingletonCell {
            slot: RwLock::new(None),
        }
    }
}

impl<K: Key, V: Val> Default for SingletonCell<K, V> {
    fn default() -> Self {
        SingletonCell::new()
    }
}

impl<K: Key, V: Val> Container<K, V> for SingletonCell<K, V> {
    fn lookup(&self, key: &K) -> Option<V> {
        self.slot
            .read()
            .as_ref()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    fn scan(&self, f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>) {
        if let Some((k, v)) = self.slot.read().as_ref() {
            let _ = f(k, v);
        }
    }

    fn write(&self, key: &K, value: Option<V>) -> Option<V> {
        let mut guard = self.slot.write();
        match value {
            Some(v) => match guard.take() {
                Some((k, old)) if &k == key => {
                    *guard = Some((k, v));
                    Some(old)
                }
                other => {
                    // A singleton edge only ever holds one key at a time; the
                    // synthesis runtime removes the old entry first. If an
                    // entry with a different key is present, replace it —
                    // write(k, v) semantics are "set the value for k" and the
                    // cell has capacity one.
                    *guard = Some((key.clone(), v));
                    other.map(|(_, old)| old)
                }
            },
            None => match guard.take() {
                Some((k, old)) if &k == key => Some(old),
                other => {
                    *guard = other;
                    None
                }
            },
        }
    }

    fn update_entry(&self, old_key: &K, new_key: &K, value: V) -> Option<V> {
        // One slot swap under one writer-lock acquisition, instead of the
        // default's remove + insert (two acquisitions).
        let mut guard = self.slot.write();
        match guard.take() {
            Some((k, old)) if &k == old_key => {
                *guard = Some((new_key.clone(), value));
                Some(old)
            }
            other => {
                *guard = other;
                None
            }
        }
    }

    fn len(&self) -> usize {
        usize::from(self.slot.read().is_some())
    }

    fn props(&self) -> ContainerProps {
        ContainerKind::Singleton.props()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_at_most_one_entry() {
        let c: SingletonCell<i64, i64> = SingletonCell::new();
        assert!(c.is_empty());
        assert_eq!(c.write(&1, Some(10)), None);
        assert_eq!(c.len(), 1);
        // Writing a different key displaces the old entry.
        assert_eq!(c.write(&2, Some(20)), Some(10));
        assert_eq!(c.lookup(&1), None);
        assert_eq!(c.lookup(&2), Some(20));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_only_matching_key() {
        let c: SingletonCell<i64, i64> = SingletonCell::new();
        c.write(&1, Some(10));
        assert_eq!(c.write(&2, None), None, "removing absent key is a no-op");
        assert_eq!(c.len(), 1);
        assert_eq!(c.write(&1, None), Some(10));
        assert!(c.is_empty());
    }

    #[test]
    fn scan_singleton() {
        let c: SingletonCell<i64, i64> = SingletonCell::new();
        let mut seen = Vec::new();
        c.scan(&mut |k, v| {
            seen.push((*k, *v));
            ControlFlow::Continue(())
        });
        assert!(seen.is_empty());
        c.write(&7, Some(70));
        c.scan(&mut |k, v| {
            seen.push((*k, *v));
            ControlFlow::Continue(())
        });
        assert_eq!(seen, vec![(7, 70)]);
    }

    #[test]
    fn update_in_place() {
        let c: SingletonCell<i64, String> = SingletonCell::new();
        c.write(&1, Some("a".into()));
        assert_eq!(c.write(&1, Some("b".into())), Some("a".into()));
        assert_eq!(c.lookup(&1), Some("b".into()));
    }

    #[test]
    fn props_row() {
        let c: SingletonCell<i64, i64> = SingletonCell::new();
        assert!(c.props().is_concurrency_safe());
        assert!(c.props().snapshot_scan);
    }
}
