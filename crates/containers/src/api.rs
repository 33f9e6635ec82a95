//! The container interface (§3) and the container catalog.
//!
//! "A container is a data structure that implements an associative key-value
//! map interface consisting of read operations `lookup(k)` and `scan(f)`, and
//! a write operation `write(k, v)`."

use std::fmt;
use std::hash::Hash;
use std::ops::{Bound, ControlFlow};

use crate::cow_list::CowArrayList;
use crate::hash_map::ChainedHashMap;
use crate::singleton::SingletonCell;
use crate::skiplist::ConcurrentSkipListMap;
use crate::splay::SplayTreeMap;
use crate::striped_hash::StripedHashMap;
use crate::taxonomy::{ContainerProps, PairSafety};
use crate::tree_map::AvlTreeMap;

pub use crossbeam::epoch::ReclamationStats;

/// Snapshot of the process-wide epoch reclamation counters (retired /
/// reclaimed deferred destructions; see [`ReclamationStats::in_flight`]).
///
/// The epoch domain is global, so this aggregates over every epoch-managed
/// container in the process (today: every [`ConcurrentSkipListMap`]'s
/// retired nodes and replaced values). Runtime layers re-export this so
/// `verify`-style assertions can check that in-flight garbage is bounded
/// and returns to zero at quiescence.
pub fn reclamation_stats() -> ReclamationStats {
    crossbeam::epoch::reclamation_stats()
}

/// Test-only: drives the epoch collector to quiescence and returns the
/// final counters — with no thread pinned, everything retired has been
/// freed and [`ReclamationStats::in_flight`] is 0. See
/// [`ConcurrentSkipListMap::flush_reclamation`].
pub fn reclamation_flush() -> ReclamationStats {
    crossbeam::epoch::flush()
}

/// Requirements on container keys.
///
/// Keys must be totally ordered (sorted containers, lock ordering), hashable
/// (hashed containers, lock striping), cheaply cloneable, and thread-safe.
/// Implemented automatically for every qualifying type.
pub trait Key: Ord + Hash + Clone + Send + Sync + fmt::Debug + 'static {}
impl<T: Ord + Hash + Clone + Send + Sync + fmt::Debug + 'static> Key for T {}

/// Requirements on container values. Implemented automatically.
///
/// Values are cloned out of containers on `lookup`; in the synthesis runtime
/// `V` is an `Arc` so clones are cheap.
pub trait Val: Clone + Send + Sync + fmt::Debug + 'static {}
impl<T: Clone + Send + Sync + fmt::Debug + 'static> Val for T {}

/// The paper's container interface: `lookup`, `scan`, `write` (§3).
///
/// All methods take `&self`; containers that are not concurrency-safe use
/// interior mutability and rely on *external* synchronization supplied by the
/// synthesized lock placement. See [`crate::extsync::ExtSyncCell`] for the
/// safety contract and the debug-mode race detector that enforces it.
pub trait Container<K: Key, V: Val>: Send + Sync + fmt::Debug {
    /// Returns the value associated with `key`, if any.
    fn lookup(&self, key: &K) -> Option<V>;

    /// Iterates over the map, invoking `f` once per entry; `f` may stop the
    /// iteration early by returning [`ControlFlow::Break`].
    ///
    /// Whether iteration is sorted, snapshot, or weakly consistent is
    /// declared by [`Container::props`].
    fn scan(&self, f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>);

    /// Iterates over the entries whose keys lie in `[lo, hi]` (each end
    /// independently inclusive, exclusive, or unbounded), invoking `f`
    /// once per entry; `f` may stop early with [`ControlFlow::Break`].
    ///
    /// Containers with `sorted_scan` keep keys ordered and override this
    /// with a *bounded* traversal that visits only the interval — in key
    /// order, so callers may break at the first key past a limit. The
    /// default is a filtered full scan: every entry is visited, order and
    /// consistency are whatever [`Container::scan`] provides, and
    /// breaking early does **not** imply the remaining keys are out of
    /// range.
    fn scan_range(
        &self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>,
    ) {
        self.scan(&mut |k, v| {
            let above = match lo {
                Bound::Included(b) => k >= b,
                Bound::Excluded(b) => k > b,
                Bound::Unbounded => true,
            };
            let below = match hi {
                Bound::Included(b) => k <= b,
                Bound::Excluded(b) => k < b,
                Bound::Unbounded => true,
            };
            if above && below {
                f(k, v)
            } else {
                ControlFlow::Continue(())
            }
        });
    }

    /// Sets the value associated with `key` to `value`; `None` removes any
    /// existing entry (§3). Returns the previous value, if any.
    fn write(&self, key: &K, value: Option<V>) -> Option<V>;

    /// Moves the entry at `old_key` to `new_key` with a fresh `value`,
    /// returning the displaced old value — the container-level primitive of
    /// the in-place `update` fast path. When no entry exists at `old_key`
    /// the container is left unchanged and `None` is returned (`value` is
    /// dropped).
    ///
    /// Semantically equivalent to `write(old_key, None)` followed (on a
    /// hit) by `write(new_key, Some(value))`, but implementations fuse the
    /// two writes: a single slot swap (singleton), one array copy instead
    /// of two (copy-on-write), one traversal of the synchronization
    /// structure where the keys colocate (striped hash). Callers must
    /// guarantee `new_key` is not already occupied by a *different* entry
    /// (the synthesis runtime's key-uniqueness argument); violating that
    /// clobbers the occupant, exactly as `write` would.
    ///
    /// **Atomicity:** callers must not assume the move is one atomic step
    /// with respect to *unlocked* concurrent readers. Some implementations
    /// fuse it (singleton, copy-on-write, striped hash hold every involved
    /// lock across both writes), but the skip list moves a key as a remove
    /// followed by an insert — two linearization points, with a window
    /// where the entry is absent under both keys. The synthesis runtime
    /// only invokes `update_entry` on edges whose placement locks are held
    /// exclusively, which serializes it against every observer; a future
    /// lock-eliding caller would need a fused implementation first.
    fn update_entry(&self, old_key: &K, new_key: &K, value: V) -> Option<V> {
        let old = self.write(old_key, None)?;
        self.write(new_key, Some(value));
        Some(old)
    }

    /// Number of entries.
    fn len(&self) -> usize;

    /// Whether the container has no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The static property sheet (Figure 1 row) of this implementation.
    fn props(&self) -> ContainerProps;
}

/// The catalog of container implementations available to the synthesizer.
///
/// The first five are the Rust analogs of the JDK containers in Figure 1;
/// [`ContainerKind::SplayTreeMap`] realizes §3.1's aside that even reads can
/// be concurrency-unsafe, and [`ContainerKind::Singleton`] implements the
/// paper's "singleton tuple" edges (dotted edges in Figs. 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContainerKind {
    /// Chained hash map; not concurrency-safe (JDK `HashMap` analog).
    HashMap,
    /// AVL tree map with sorted scans; not concurrency-safe (JDK `TreeMap`
    /// analog).
    TreeMap,
    /// Sharded hash map with per-shard reader-writer locks; concurrency-safe,
    /// weakly-consistent scans (JDK `ConcurrentHashMap` analog).
    ConcurrentHashMap,
    /// Lazy concurrent skip list with epoch reclamation; concurrency-safe,
    /// sorted weakly-consistent scans (JDK `ConcurrentSkipListMap` analog).
    ConcurrentSkipListMap,
    /// Copy-on-write sorted array; concurrency-safe with linearizable
    /// snapshot scans (JDK `CopyOnWriteArrayList` analog).
    CopyOnWriteArrayList,
    /// Splay tree map; *reads rebalance the tree*, so even concurrent
    /// lookups are unsafe (§3.1's counterexample).
    SplayTreeMap,
    /// A 0-or-1-entry cell used for functional-dependency-determined
    /// singleton edges; internally locked, fully linearizable.
    Singleton,
}

impl ContainerKind {
    /// All kinds, in catalog order.
    pub const ALL: [ContainerKind; 7] = [
        ContainerKind::HashMap,
        ContainerKind::TreeMap,
        ContainerKind::ConcurrentHashMap,
        ContainerKind::ConcurrentSkipListMap,
        ContainerKind::CopyOnWriteArrayList,
        ContainerKind::SplayTreeMap,
        ContainerKind::Singleton,
    ];

    /// The five rows of Figure 1, in the paper's order.
    pub const FIGURE1: [ContainerKind; 5] = [
        ContainerKind::HashMap,
        ContainerKind::TreeMap,
        ContainerKind::ConcurrentHashMap,
        ContainerKind::ConcurrentSkipListMap,
        ContainerKind::CopyOnWriteArrayList,
    ];

    /// The kinds the autotuner chooses among for map edges (§6.2: "selection
    /// of containers from the options ConcurrentHashMap,
    /// ConcurrentSkipListMap, HashMap, and TreeMap").
    pub const AUTOTUNE_MENU: [ContainerKind; 4] = [
        ContainerKind::ConcurrentHashMap,
        ContainerKind::ConcurrentSkipListMap,
        ContainerKind::HashMap,
        ContainerKind::TreeMap,
    ];

    /// The static property sheet (Figure 1 row) for this kind.
    pub fn props(self) -> ContainerProps {
        use PairSafety::{Linearizable, Unsafe, Weak};
        match self {
            ContainerKind::HashMap => ContainerProps {
                name: "HashMap",
                lookup_lookup: Linearizable,
                lookup_write: Unsafe,
                scan_write: Unsafe,
                write_write: Unsafe,
                lookup_scan: Linearizable,
                scan_scan: Linearizable,
                sorted_scan: false,
                snapshot_scan: false,
            },
            ContainerKind::TreeMap => ContainerProps {
                name: "TreeMap",
                lookup_lookup: Linearizable,
                lookup_write: Unsafe,
                scan_write: Unsafe,
                write_write: Unsafe,
                lookup_scan: Linearizable,
                scan_scan: Linearizable,
                sorted_scan: true,
                snapshot_scan: false,
            },
            ContainerKind::ConcurrentHashMap => ContainerProps {
                name: "ConcurrentHashMap",
                lookup_lookup: Linearizable,
                lookup_write: Linearizable,
                scan_write: Weak,
                write_write: Linearizable,
                lookup_scan: Linearizable,
                scan_scan: Linearizable,
                sorted_scan: false,
                snapshot_scan: false,
            },
            ContainerKind::ConcurrentSkipListMap => ContainerProps {
                name: "ConcurrentSkipListMap",
                lookup_lookup: Linearizable,
                lookup_write: Linearizable,
                scan_write: Weak,
                write_write: Linearizable,
                lookup_scan: Linearizable,
                scan_scan: Linearizable,
                sorted_scan: true,
                snapshot_scan: false,
            },
            ContainerKind::CopyOnWriteArrayList => ContainerProps {
                name: "CopyOnWriteArrayList",
                lookup_lookup: Linearizable,
                lookup_write: Linearizable,
                scan_write: Linearizable,
                write_write: Linearizable,
                lookup_scan: Linearizable,
                scan_scan: Linearizable,
                sorted_scan: true,
                snapshot_scan: true,
            },
            ContainerKind::SplayTreeMap => ContainerProps {
                name: "SplayTreeMap",
                lookup_lookup: Unsafe,
                lookup_write: Unsafe,
                scan_write: Unsafe,
                write_write: Unsafe,
                lookup_scan: Unsafe,
                scan_scan: Unsafe,
                sorted_scan: true,
                snapshot_scan: false,
            },
            ContainerKind::Singleton => ContainerProps {
                name: "Singleton",
                lookup_lookup: Linearizable,
                lookup_write: Linearizable,
                scan_write: Linearizable,
                write_write: Linearizable,
                lookup_scan: Linearizable,
                scan_scan: Linearizable,
                sorted_scan: true,
                snapshot_scan: true,
            },
        }
    }

    /// Instantiates an empty container of this kind.
    pub fn instantiate<K: Key, V: Val>(self) -> Box<dyn Container<K, V>> {
        match self {
            ContainerKind::HashMap => Box::new(ChainedHashMap::new()),
            ContainerKind::TreeMap => Box::new(AvlTreeMap::new()),
            ContainerKind::ConcurrentHashMap => Box::new(StripedHashMap::new()),
            ContainerKind::ConcurrentSkipListMap => Box::new(ConcurrentSkipListMap::new()),
            ContainerKind::CopyOnWriteArrayList => Box::new(CowArrayList::new()),
            ContainerKind::SplayTreeMap => Box::new(SplayTreeMap::new()),
            ContainerKind::Singleton => Box::new(SingletonCell::new()),
        }
    }
}

impl fmt::Display for ContainerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.props().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiate_all_kinds() {
        for kind in ContainerKind::ALL {
            let c: Box<dyn Container<i64, i64>> = kind.instantiate();
            assert!(c.is_empty());
            assert_eq!(c.len(), 0);
            assert_eq!(c.props().name, kind.props().name);
            assert!(!format!("{c:?}").is_empty());
            assert_eq!(kind.to_string(), kind.props().name);
        }
    }

    #[test]
    fn props_match_paper_classification() {
        assert!(!ContainerKind::HashMap.props().is_concurrency_safe());
        assert!(!ContainerKind::TreeMap.props().is_concurrency_safe());
        assert!(ContainerKind::ConcurrentHashMap
            .props()
            .is_concurrency_safe());
        assert!(ContainerKind::ConcurrentSkipListMap
            .props()
            .is_concurrency_safe());
        assert!(ContainerKind::CopyOnWriteArrayList
            .props()
            .is_concurrency_safe());
        assert!(!ContainerKind::SplayTreeMap.props().is_concurrency_safe());
        assert!(ContainerKind::Singleton.props().is_concurrency_safe());
    }

    #[test]
    fn scan_range_agrees_across_all_kinds() {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        for kind in ContainerKind::ALL {
            let c: Box<dyn Container<i64, i64>> = kind.instantiate();
            let n = if kind == ContainerKind::Singleton {
                1
            } else {
                20
            };
            for k in 0..n {
                c.write(&k, Some(k * 10));
            }
            let collect = |lo: Bound<&i64>, hi: Bound<&i64>| {
                let mut got: Vec<(i64, i64)> = Vec::new();
                c.scan_range(lo, hi, &mut |k, v| {
                    got.push((*k, *v));
                    ControlFlow::Continue(())
                });
                got.sort_unstable();
                got
            };
            let expect = |f: &dyn Fn(i64) -> bool| {
                (0..n)
                    .filter(|&k| f(k))
                    .map(|k| (k, k * 10))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                collect(Included(&3), Excluded(&9)),
                expect(&|k| (3..9).contains(&k)),
                "{kind}"
            );
            assert_eq!(
                collect(Excluded(&3), Included(&9)),
                expect(&|k| k > 3 && k <= 9),
                "{kind}"
            );
            assert_eq!(
                collect(Unbounded, Excluded(&5)),
                expect(&|k| k < 5),
                "{kind}"
            );
            assert_eq!(
                collect(Included(&7), Unbounded),
                expect(&|k| k >= 7),
                "{kind}"
            );
            assert_eq!(collect(Unbounded, Unbounded), expect(&|_| true), "{kind}");
            assert_eq!(collect(Included(&9), Excluded(&9)), vec![], "{kind}");
            // Sorted containers visit the interval in key order and
            // support early exit at a limit.
            if kind.props().sorted_scan {
                let mut got = Vec::new();
                c.scan_range(Included(&2), Unbounded, &mut |k, _| {
                    got.push(*k);
                    if got.len() == 3 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                let want: Vec<i64> = (2..n.min(5)).collect();
                assert_eq!(got, want, "{kind}");
            }
        }
    }

    #[test]
    fn sorted_scan_flags() {
        assert!(!ContainerKind::HashMap.props().sorted_scan);
        assert!(ContainerKind::TreeMap.props().sorted_scan);
        assert!(!ContainerKind::ConcurrentHashMap.props().sorted_scan);
        assert!(ContainerKind::ConcurrentSkipListMap.props().sorted_scan);
    }
}
