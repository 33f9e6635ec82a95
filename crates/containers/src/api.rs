//! The container interface (§3), the container kinds and their shapes.
//!
//! "A container is a data structure that implements an associative key-value
//! map interface consisting of read operations `lookup(k)` and `scan(f)`, and
//! a write operation `write(k, v)`."

use std::fmt;
use std::hash::Hash;
use std::ops::{Bound, ControlFlow};

use crate::skiplist::ConcurrentSkipListMap;
use crate::striped_hash::StripedHashMap;
use crate::taxonomy::{ContainerProps, PairSafety};

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
/// All methods take `&self`. Both implementations —
/// [`StripedHashMap`] and [`ConcurrentSkipListMap`], what
/// [`ContainerKind::instantiate`] builds — are concurrency-safe.
pub trait Container<K: Key, V: Val>: Send + Sync + fmt::Debug {
    /// Returns the value associated with `key`, if any.
    fn lookup(&self, key: &K) -> Option<V>;

    /// Iterates over the map, invoking `f` once per entry; `f` may stop the
    /// iteration early by returning [`ControlFlow::Break`].
    ///
    /// Iteration is weakly consistent, and in key order where the
    /// implementation keeps keys sorted.
    fn scan(&self, f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>);

    /// Iterates over the entries whose keys lie in `[lo, hi]` (each end
    /// independently inclusive, exclusive, or unbounded), invoking `f`
    /// once per entry; `f` may stop early with [`ControlFlow::Break`].
    ///
    /// Containers that keep keys sorted override this
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

    /// Number of entries.
    fn len(&self) -> usize;

    /// Whether the container has no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The container kinds the synthesizer chooses among for an edge.
///
/// The first five are the JDK containers of Figure 1;
/// [`ContainerKind::SplayTreeMap`] realizes §3.1's aside that even reads can
/// be concurrency-unsafe, and [`ContainerKind::Singleton`] is the paper's
/// "singleton tuple" edge (dotted edges in Figs. 2 and 3). A kind's
/// Figure 1 row ([`ContainerKind::props`]) decides which locks an edge of
/// that kind needs; its [`shape`](ContainerKind::shape) decides how the
/// edge is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContainerKind {
    /// JDK `HashMap`: not concurrency-safe; hashed.
    HashMap,
    /// JDK `TreeMap`: not concurrency-safe, sorted scans; sorted.
    TreeMap,
    /// JDK `ConcurrentHashMap`: concurrency-safe, weakly-consistent scans;
    /// hashed.
    ConcurrentHashMap,
    /// JDK `ConcurrentSkipListMap`: concurrency-safe, sorted
    /// weakly-consistent scans; sorted.
    ConcurrentSkipListMap,
    /// JDK `CopyOnWriteArrayList`: concurrency-safe, linearizable snapshot
    /// scans; sorted.
    CopyOnWriteArrayList,
    /// A splay tree map: *reads rebalance the tree*, so even concurrent
    /// lookups are unsafe (§3.1's counterexample); sorted.
    SplayTreeMap,
    /// A 0-or-1-entry edge determined by a functional dependency: fully
    /// linearizable; one entry.
    Singleton,
}

/// How an edge of a [`ContainerKind`] is laid out
/// ([`ContainerKind::shape`]): what its
/// [`VersionIndex`](crate::VersionIndex) is, and what
/// [`ContainerKind::instantiate`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeShape {
    /// At most one entry: one inline version chain.
    OneEntry,
    /// Entries in key order: a lock-free skip list.
    Sorted,
    /// Entries in hash order: a split-ordered hash list.
    Hashed,
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

    /// The shape of an edge of this kind — the one place the rule is
    /// written: a hash kind is hashed, a `Singleton` holds one entry, and
    /// every other kind is sorted.
    pub fn shape(self) -> EdgeShape {
        match self {
            ContainerKind::HashMap | ContainerKind::ConcurrentHashMap => EdgeShape::Hashed,
            ContainerKind::Singleton => EdgeShape::OneEntry,
            _ => EdgeShape::Sorted,
        }
    }

    /// Instantiates an empty standalone container for this kind's shape: a
    /// [`StripedHashMap`] for a hashed kind, a [`ConcurrentSkipListMap`]
    /// for every other (a one-entry kind's map simply never holds more
    /// than one entry).
    pub fn instantiate<K: Key, V: Val>(self) -> Box<dyn Container<K, V>> {
        match self.shape() {
            EdgeShape::Hashed => Box::new(StripedHashMap::new()),
            EdgeShape::Sorted | EdgeShape::OneEntry => Box::new(ConcurrentSkipListMap::new()),
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
            let structure = match kind.shape() {
                EdgeShape::Hashed => "StripedHashMap",
                EdgeShape::Sorted | EdgeShape::OneEntry => "ConcurrentSkipListMap",
            };
            assert!(format!("{c:?}").starts_with(structure), "{kind}: {c:?}");
            assert_eq!(kind.to_string(), kind.props().name);
        }
        assert_eq!(ContainerKind::ConcurrentHashMap.shape(), EdgeShape::Hashed);
        assert_eq!(
            ContainerKind::ConcurrentSkipListMap.shape(),
            EdgeShape::Sorted
        );
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
            let n = 20;
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
                let want: Vec<i64> = (2..5).collect();
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
