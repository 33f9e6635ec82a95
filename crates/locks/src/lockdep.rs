//! Runtime lock-ordering witness (`lockdep` feature).
//!
//! The static analyzer (`relc::analysis`) proves the *planned* acquisition
//! order sound; this module watches what the engine *actually does*. Every
//! acquisition is reported against the set of locks the transaction
//! already holds, keyed by a coarse **lockdep class** — for synthesized
//! relations, the `(node position, stripe)` pair of the lock token, so all
//! instances of one decomposition level share a class. The classes form a
//! process-global acquisition-order graph: an edge `a → b` means "some
//! transaction acquired a class-`b` lock while holding a class-`a` lock".
//! A cycle in that graph is a *potential* deadlock — two transactions
//! interleaving the two orders could block each other — even if no stress
//! run ever manifests it. Cycles are detected incrementally at edge
//! insertion and recorded (not panicked), so a test harness can assert on
//! `cycle_reports()` after driving the workload.
//!
//! The graph deliberately ignores whether an acquisition blocked or only
//! *tried*: a try-only inversion cannot deadlock by itself (nobody blocks),
//! but it witnesses an ordering the engine believes is out of line, and a
//! second transaction running the opposite order is exactly the §5.1
//! near-miss this instrument exists to catch.
//!
//! Everything here is debug tooling: the feature is off by default and the
//! engine hot path compiles to nothing without it.

/// The coarse equivalence class a lock key maps to in the acquisition-order
/// graph.
///
/// This trait is *always* available (the engine's key type must implement
/// it so the `lockdep`-gated hook can be compiled in without changing
/// bounds); the graph itself only exists under the feature.
pub trait LockdepClass {
    /// A stable class id: keys that should share ordering constraints must
    /// collapse to the same value (e.g. every instance of one
    /// decomposition level × stripe).
    fn lockdep_class(&self) -> u64;
}

macro_rules! impl_lockdep_for_uint {
    ($($t:ty),*) => {
        $(impl LockdepClass for $t {
            fn lockdep_class(&self) -> u64 {
                *self as u64
            }
        })*
    };
}

impl_lockdep_for_uint!(u8, u16, u32, u64, usize);

#[cfg(feature = "lockdep")]
mod graph {
    use std::collections::{HashMap, HashSet};
    use std::sync::OnceLock;

    use parking_lot::Mutex;

    #[derive(Default)]
    struct Graph {
        /// Adjacency: class → classes acquired while it was held.
        after: HashMap<u64, Vec<u64>>,
        /// Edge dedup, so each ordered class pair is analyzed once.
        edges: HashSet<(u64, u64)>,
        /// Human-readable cycle descriptions, in detection order.
        reports: Vec<String>,
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(Graph::default()))
    }

    impl Graph {
        /// Is `to` reachable from `from` along recorded edges?
        fn reachable(&self, from: u64, to: u64) -> bool {
            let mut stack = vec![from];
            let mut seen = HashSet::new();
            while let Some(v) = stack.pop() {
                if v == to {
                    return true;
                }
                if !seen.insert(v) {
                    continue;
                }
                if let Some(next) = self.after.get(&v) {
                    stack.extend(next.iter().copied());
                }
            }
            false
        }
    }

    /// Records one acquisition of class `new` while the classes in `held`
    /// are held, inserting the `held → new` order edges and checking each
    /// fresh edge for a cycle.
    pub fn record_acquisition(held: impl Iterator<Item = u64>, new: u64) {
        let mut g = graph().lock();
        for h in held {
            if h == new || !g.edges.insert((h, new)) {
                continue;
            }
            // Inserting h → new closes a cycle iff h was already
            // reachable from new.
            if g.reachable(new, h) {
                g.reports.push(format!(
                    "lock-order cycle: class {h:#x} held while acquiring class \
                     {new:#x}, but class {h:#x} is also acquired after class \
                     {new:#x} on another path"
                ));
            }
            g.after.entry(h).or_default().push(new);
        }
    }

    /// Every cycle detected since the last [`reset_graph`], in detection
    /// order. Empty means the observed acquisition orders are consistent
    /// with *some* global total order.
    pub fn cycle_reports() -> Vec<String> {
        graph().lock().reports.clone()
    }

    /// Clears the process-global graph (test isolation).
    pub fn reset_graph() {
        let mut g = graph().lock();
        g.after.clear();
        g.edges.clear();
        g.reports.clear();
    }
}

#[cfg(feature = "lockdep")]
pub use graph::{cycle_reports, record_acquisition, reset_graph};
