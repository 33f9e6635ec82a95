//! Allocation guard: what a preloaded row, a single-shot read, a locked
//! read and the two kinds of range read cost the allocator, counted — so
//! it gates — on the
//! `graph_read_mostly` shape of the benchmark
//! (`split(ConcurrentHashMap, HashMap)` + `striped_root(1024)`, 4,096
//! nodes, 32,768 edges).
//!
//! The counts are deterministic: one thread, a fixed insertion order, and
//! every allocation in the path has a size fixed by the shape (the only
//! randomness, skip-list tower heights, moves a count by well under one
//! allocation per row). Before the version index followed its edge — one
//! generic skip list per edge instance, whatever the edge's container —
//! this test measured **119.2 allocations per preloaded row, 61.1 of them
//! still live after the preload, and 86.0 allocations per 8-row read** (90
//! on the benchmark's own stream). The edge-shaped index brought the rows
//! to 70.9 and 39.8; giving no locks to the nodes where no plan can take
//! one (`LockPlacement::lock_count`) brought them to 66.1 and 35.8.
//!
//! Reads are evaluated over row frames: slots per column and per node,
//! reused from step to step, with no tuple or binding vector cloned per
//! query state. That took an 8-row snapshot read from 84.0 allocations to
//! 15.0 and the same read inside a `transaction`, under its locks, from
//! 110.0 to 33.0.
//!
//! A one-field tuple holds its field inline, on a 16-byte `Value`: the
//! one-column edge keys and payloads of this shape, the query pattern and
//! the evaluator's lookup key no longer allocate. That took a preloaded row
//! to 40.4 allocations, 27.1 of them live, the snapshot read to 13.0 and
//! the locked read to 30.0. The ceilings — 48, 30, 14 and 32 — fail on the
//! layout before it (66.1, 35.8, 15.0, 33.0).
//!
//! A range read — `query_range(∅, src ∈ [lo, lo + 4) limit 32)` onto every
//! column, 32 rows — used to project each surviving row into tuples and
//! order, deduplicate and cap those: 117.0 allocations single-shot and
//! 166.0 inside a `transaction`. Assembled on the frame, ordering and
//! deduplicating row indices and building one tuple per row kept, it takes
//! 45.0 and 94.0; the ceilings, 52 and 100, fail on the assembly before.
//!
//! This binary holds exactly one test: the counter is process-global and
//! the harness runs a binary's tests on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use relc::decomp::library::split;
use relc::placement::LockPlacement;
use relc::ConcurrentRelation;
use relc_containers::ContainerKind;
use relc_spec::{RangePattern, Tuple, Value};

/// Counts every allocation (a `realloc` is one more) and every release.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(1, Relaxed);
        FREED.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocated, live)` so far.
fn counters() -> (u64, u64) {
    let allocated = ALLOCATED.load(Relaxed);
    (allocated, allocated - FREED.load(Relaxed))
}

const NODES: u32 = 4_096;
const EDGES: u32 = 32_768;

#[test]
fn preloaded_row_and_single_shot_read_stay_within_their_allocation_budget() {
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let p = LockPlacement::striped_root(&d, 1024).unwrap();
    let rel = ConcurrentRelation::new(d, p).unwrap();
    let schema = rel.schema().clone();
    let col = |n: &str| schema.column(n).unwrap();
    let (src, dst, weight) = (col("src"), col("dst"), col("weight"));
    let edge = |s: u32, d: u32| Tuple::from_pairs([(src, Value::from(s)), (dst, Value::from(d))]);
    let payload = |w: u32| Tuple::from_pairs([(weight, Value::from(w))]);

    // Every node's self-loop, then 7 more out-edges per node: each node
    // ends with 8 successors and 8 predecessors, as in the benchmark.
    let rows: Vec<(u32, u32)> = (0..NODES)
        .map(|n| (n, n))
        .chain((0..NODES).flat_map(|n| (1..8).map(move |k| (n, (n + k * 523) % NODES))))
        .collect();
    assert_eq!(rows.len() as u32, EDGES);

    let (allocated0, live0) = counters();
    for &(s, t) in &rows {
        assert!(rel.insert(&edge(s, t), &payload(s ^ t)).unwrap());
    }
    let (allocated1, live1) = counters();
    let per_row = (allocated1 - allocated0) as f64 / EDGES as f64;
    let live_per_row = (live1 - live0) as f64 / EDGES as f64;

    let out = schema.column_set(&["dst", "weight"]).unwrap();
    let reads = 512u32;
    let (before_reads, _) = counters();
    for n in 0..reads {
        let rows = rel
            .query(&Tuple::from_pairs([(src, Value::from(n * 7))]), out)
            .unwrap();
        assert_eq!(rows.len(), 8);
    }
    let per_read = (counters().0 - before_reads) as f64 / reads as f64;

    let (before_locked, _) = counters();
    for n in 0..reads {
        let pattern = Tuple::from_pairs([(src, Value::from(n * 7))]);
        let rows = rel.transaction(|tx| tx.query(&pattern, out)).unwrap();
        assert_eq!(rows.len(), 8);
    }
    let per_locked_read = (counters().0 - before_locked) as f64 / reads as f64;

    // Four sources' out-edges: 32 rows, every column, in range order.
    let all = schema.columns();
    let window = |n: u32| {
        let lo = (n * 7) % (NODES - 4);
        RangePattern::half_open(src, Value::from(lo), Value::from(lo + 4)).with_limit(32)
    };
    let (before_range, _) = counters();
    for n in 0..reads {
        let rows = rel.query_range(&Tuple::empty(), &window(n), all).unwrap();
        assert_eq!(rows.len(), 32);
    }
    let per_range = (counters().0 - before_range) as f64 / reads as f64;

    let (before_locked_range, _) = counters();
    for n in 0..reads {
        let range = window(n);
        let rows = rel
            .transaction(|tx| tx.query_range(&Tuple::empty(), &range, all))
            .unwrap();
        assert_eq!(rows.len(), 32);
    }
    let per_locked_range = (counters().0 - before_locked_range) as f64 / reads as f64;

    println!(
        "allocations per preloaded row {per_row:.1}, live {live_per_row:.1}; \
         per 8-row read {per_read:.1}, locked {per_locked_read:.1}; \
         per 32-row range read {per_range:.1}, locked {per_locked_range:.1}"
    );
    assert!(
        per_row <= 48.0,
        "{per_row:.1} allocations per preloaded row"
    );
    assert!(
        live_per_row <= 30.0,
        "{live_per_row:.1} live per preloaded row"
    );
    assert!(per_read <= 14.0, "{per_read:.1} allocations per 8-row read");
    assert!(
        per_locked_read <= 32.0,
        "{per_locked_read:.1} allocations per locked 8-row read"
    );
    assert!(
        per_range <= 52.0,
        "{per_range:.1} allocations per 32-row range read"
    );
    assert!(
        per_locked_range <= 100.0,
        "{per_locked_range:.1} allocations per locked 32-row range read"
    );
    rel.verify().unwrap();
}
