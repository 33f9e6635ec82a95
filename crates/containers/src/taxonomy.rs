//! The taxonomy of concurrent containers (§3, Figure 1).
//!
//! Each container declares, per *pair* of operations, whether two threads may
//! execute those operations in parallel with no external synchronization
//! (*concurrency safety*), and what the container guarantees about event
//! orders when they do (*consistency*). The synthesis compiler consumes only
//! this property sheet; container internals are black boxes.

use std::fmt;

/// The three operations of the container interface (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `lookup(k)`: point read.
    Lookup,
    /// `scan(f)`: iteration over all entries.
    Scan,
    /// `write(k, v)`: insert, update, or remove (when `v` is `None`).
    Write,
}

impl OpKind {
    /// All operations, in taxonomy order.
    pub const ALL: [OpKind; 3] = [OpKind::Lookup, OpKind::Scan, OpKind::Write];

    /// One-letter abbreviation used in Figure 1 (L, S, W).
    pub fn letter(self) -> char {
        match self {
            OpKind::Lookup => 'L',
            OpKind::Scan => 'S',
            OpKind::Write => 'W',
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// An unordered pair of operations, e.g. L/W.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpPair(OpKind, OpKind);

impl OpPair {
    /// Creates a pair; the order of arguments is irrelevant.
    pub fn new(a: OpKind, b: OpKind) -> Self {
        // Canonicalize using the L < S < W taxonomy order.
        let rank = |o: OpKind| match o {
            OpKind::Lookup => 0,
            OpKind::Scan => 1,
            OpKind::Write => 2,
        };
        if rank(a) <= rank(b) {
            OpPair(a, b)
        } else {
            OpPair(b, a)
        }
    }

    /// The six distinct pairs, in Figure 1's column order
    /// (L/L, L/W, S/W, W/W, L/S, S/S).
    pub const ALL: [OpPair; 6] = [
        OpPair(OpKind::Lookup, OpKind::Lookup),
        OpPair(OpKind::Lookup, OpKind::Write),
        OpPair(OpKind::Scan, OpKind::Write),
        OpPair(OpKind::Write, OpKind::Write),
        OpPair(OpKind::Lookup, OpKind::Scan),
        OpPair(OpKind::Scan, OpKind::Scan),
    ];

    /// The two components (canonical order).
    pub fn ops(self) -> (OpKind, OpKind) {
        (self.0, self.1)
    }
}

impl fmt::Display for OpPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.0, self.1)
    }
}

/// The safety/consistency verdict for a pair of concurrent operations
/// (the cells of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PairSafety {
    /// Concurrent execution is unsafe ("no"): external synchronization must
    /// serialize these operations.
    Unsafe,
    /// Safe but only weakly consistent ("weak"): typical of concurrent
    /// iteration that may or may not observe parallel updates.
    Weak,
    /// Safe and linearizable ("yes").
    Linearizable,
}

impl PairSafety {
    /// Figure 1's cell text.
    pub fn cell(self) -> &'static str {
        match self {
            PairSafety::Unsafe => "no",
            PairSafety::Weak => "weak",
            PairSafety::Linearizable => "yes",
        }
    }

    /// Whether parallel execution is safe at all (weak or linearizable).
    pub fn is_safe(self) -> bool {
        !matches!(self, PairSafety::Unsafe)
    }
}

impl fmt::Display for PairSafety {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.cell())
    }
}

/// The static property sheet of a container implementation: its Figure 1 row
/// plus the structural facts the planner needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerProps {
    /// Display name (Figure 1 row label).
    pub name: &'static str,
    /// Safety of concurrent L/L.
    pub lookup_lookup: PairSafety,
    /// Safety of concurrent L/W.
    pub lookup_write: PairSafety,
    /// Safety of concurrent S/W.
    pub scan_write: PairSafety,
    /// Safety of concurrent W/W.
    pub write_write: PairSafety,
    /// Safety of concurrent L/S.
    pub lookup_scan: PairSafety,
    /// Safety of concurrent S/S.
    pub scan_scan: PairSafety,
    /// Whether `scan` yields entries in ascending key order. The planner's
    /// static analysis uses this to elide lock sorting (§5.2).
    pub sorted_scan: bool,
    /// Whether `scan` iterates over a linearizable snapshot (§3.1:
    /// "snapshot iteration", e.g. `CopyOnWriteArrayList`), as opposed to
    /// weakly-consistent live iteration.
    pub snapshot_scan: bool,
}

impl ContainerProps {
    /// The verdict for an arbitrary operation pair.
    pub fn safety(&self, pair: OpPair) -> PairSafety {
        use OpKind::{Lookup, Scan, Write};
        match pair.ops() {
            (Lookup, Lookup) => self.lookup_lookup,
            (Lookup, Write) => self.lookup_write,
            (Scan, Write) => self.scan_write,
            (Write, Write) => self.write_write,
            (Lookup, Scan) => self.lookup_scan,
            (Scan, Scan) => self.scan_scan,
            _ => unreachable!("OpPair canonicalizes order"),
        }
    }

    /// A container is *concurrency-safe* if all pairs of operations are
    /// concurrency-safe (§3.1).
    pub fn is_concurrency_safe(&self) -> bool {
        OpPair::ALL.iter().all(|p| self.safety(*p).is_safe())
    }

    /// Whether concurrent *reads* are safe (both L/L, L/S and S/S). False
    /// for e.g. splay trees, whose reads rebalance the tree (§3.1).
    pub fn reads_are_safe(&self) -> bool {
        self.lookup_lookup.is_safe() && self.lookup_scan.is_safe() && self.scan_scan.is_safe()
    }

    /// Whether `lookup` is linearizable with *no* external synchronization,
    /// even against concurrent writes. Required for speculative lock
    /// placements (§4.5): "we require that concurrent containers are
    /// linearizable".
    pub fn lookup_is_linearizable(&self) -> bool {
        self.lookup_write == PairSafety::Linearizable
            && self.lookup_lookup == PairSafety::Linearizable
    }
}

/// Renders Figure 1 for a set of container property sheets.
///
/// The output is a fixed-width text table whose rows are the given
/// containers and whose columns are the Figure 1 operation pairs.
pub fn render_figure1(rows: &[ContainerProps]) -> String {
    let mut out = String::new();
    let name_w = rows
        .iter()
        .map(|p| p.name.len())
        .chain(["Data Structure".len()])
        .max()
        .unwrap_or(14)
        + 2;
    out.push_str(&format!("{:<name_w$}", "Data Structure"));
    for pair in OpPair::ALL {
        out.push_str(&format!("{:>6}", pair.to_string()));
    }
    out.push('\n');
    out.push_str(&"-".repeat(name_w + 6 * OpPair::ALL.len()));
    out.push('\n');
    for p in rows {
        out.push_str(&format!("{:<name_w$}", p.name));
        for pair in OpPair::ALL {
            out.push_str(&format!("{:>6}", p.safety(pair).cell()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ContainerKind;

    #[test]
    fn op_pair_canonicalizes() {
        assert_eq!(
            OpPair::new(OpKind::Write, OpKind::Lookup),
            OpPair::new(OpKind::Lookup, OpKind::Write)
        );
        assert_eq!(
            OpPair::new(OpKind::Write, OpKind::Lookup).to_string(),
            "L/W"
        );
    }

    #[test]
    fn figure1_hash_map_row() {
        // Figure 1: HashMap — L/L yes, L/W no, S/W no, W/W no, L/S & S/S yes.
        let p = ContainerKind::HashMap.props();
        assert_eq!(
            p.safety(OpPair::new(OpKind::Lookup, OpKind::Lookup)),
            PairSafety::Linearizable
        );
        assert_eq!(
            p.safety(OpPair::new(OpKind::Lookup, OpKind::Write)),
            PairSafety::Unsafe
        );
        assert_eq!(
            p.safety(OpPair::new(OpKind::Scan, OpKind::Write)),
            PairSafety::Unsafe
        );
        assert_eq!(
            p.safety(OpPair::new(OpKind::Write, OpKind::Write)),
            PairSafety::Unsafe
        );
        assert_eq!(
            p.safety(OpPair::new(OpKind::Lookup, OpKind::Scan)),
            PairSafety::Linearizable
        );
        assert!(!p.is_concurrency_safe());
        assert!(p.reads_are_safe());
        assert!(!p.lookup_is_linearizable());
    }

    #[test]
    fn figure1_concurrent_hash_map_row() {
        // Figure 1: ConcurrentHashMap — L/L yes, L/W yes, S/W weak, W/W yes.
        let p = ContainerKind::ConcurrentHashMap.props();
        assert_eq!(
            p.safety(OpPair::new(OpKind::Lookup, OpKind::Write)),
            PairSafety::Linearizable
        );
        assert_eq!(
            p.safety(OpPair::new(OpKind::Scan, OpKind::Write)),
            PairSafety::Weak
        );
        assert_eq!(
            p.safety(OpPair::new(OpKind::Write, OpKind::Write)),
            PairSafety::Linearizable
        );
        assert!(p.is_concurrency_safe());
        assert!(p.lookup_is_linearizable());
        assert!(!p.snapshot_scan);
    }

    #[test]
    fn figure1_cow_row_is_fully_linearizable() {
        // Figure 1: CopyOnWriteArrayList — all yes (snapshot iteration).
        let p = ContainerKind::CopyOnWriteArrayList.props();
        for pair in OpPair::ALL {
            assert_eq!(p.safety(pair), PairSafety::Linearizable, "{pair}");
        }
        assert!(p.snapshot_scan);
    }

    #[test]
    fn splay_tree_reads_are_unsafe() {
        // §3.1: "it would not be safe for threads to perform concurrent reads
        // of a splay tree because splay tree read operations rebalance the
        // tree."
        let p = ContainerKind::SplayTreeMap.props();
        assert!(!p.reads_are_safe());
        assert_eq!(
            p.safety(OpPair::new(OpKind::Lookup, OpKind::Lookup)),
            PairSafety::Unsafe
        );
    }

    #[test]
    fn render_figure1_contains_all_rows_and_verdicts() {
        let rows: Vec<ContainerProps> = ContainerKind::FIGURE1.iter().map(|k| k.props()).collect();
        let table = render_figure1(&rows);
        for k in ContainerKind::FIGURE1 {
            assert!(table.contains(k.props().name), "{table}");
        }
        assert!(table.contains("weak"));
        assert!(table.contains("no"));
        assert!(table.contains("yes"));
        assert!(table.contains("L/W"));
    }
}
