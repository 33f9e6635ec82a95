//! Differential validation of the read surface: `query`, `contains`, and
//! above all `query_range` — on the snapshot path, the locked
//! transactional path, and the sharded route-or-fan-out — must all agree
//! with the sequential oracle's §2-style semantics (ranges ordered by
//! (range-column value, projection), deduplicated, capped at the limit)
//! across every standard decomposition and lock placement, for
//! hand-picked and randomized intervals alike; and concurrent range reads
//! must observe one consistent snapshot cut.

use std::ops::Bound;
use std::sync::{Arc, Barrier};

use relc::decomp::library::{diamond, split, stick};
use relc::lincheck::{check_linearizable, HistoryRecorder, OpRecord};
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, CoreError, Decomposition, ShardedRelation, TxnError};
use relc_containers::ContainerKind;
use relc_spec::{ColumnSet, OracleRelation, RangePattern, Tuple, Value};

fn graph_decomps() -> Vec<(&'static str, Arc<Decomposition>)> {
    vec![
        (
            "stick(tm,tm)",
            stick(ContainerKind::TreeMap, ContainerKind::TreeMap),
        ),
        (
            "stick(chm,tm)",
            stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap),
        ),
        (
            "stick(cslm,chm)",
            stick(
                ContainerKind::ConcurrentSkipListMap,
                ContainerKind::ConcurrentHashMap,
            ),
        ),
        (
            "split(chm,tm)",
            split(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap),
        ),
        (
            "diamond(chm,tm)",
            diamond(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap),
        ),
        ("pair(chm)", pair(ContainerKind::ConcurrentHashMap)),
    ]
}

/// `ρ -src,dst→ u -weight→ w`: one root edge keyed by two columns, so a
/// pattern that binds one of them is checked by the root scan's filter
/// on its bound slots rather than used by a lookup.
fn pair(root_edge: ContainerKind) -> Arc<Decomposition> {
    let mut b = Decomposition::builder(relc_spec::library::graph_schema());
    let root = b.root();
    let u = b.node("u");
    let w = b.node("w");
    b.edge(root, u, &["src", "dst"], root_edge).unwrap();
    b.edge(u, w, &["weight"], ContainerKind::Singleton).unwrap();
    b.build().unwrap()
}

fn standard_placements(d: &Arc<Decomposition>) -> Vec<Arc<LockPlacement>> {
    [
        LockPlacement::coarse(d).ok(),
        LockPlacement::fine(d).ok(),
        LockPlacement::striped_root(d, 2).ok(),
        LockPlacement::striped_root(d, 8).ok(),
        LockPlacement::speculative(d, 4).ok(),
    ]
    .into_iter()
    .flatten()
    .collect()
}

fn tup(d: &Arc<Decomposition>, cols: &[(&str, i64)]) -> Tuple {
    let pairs: Vec<(&str, Value)> = cols.iter().map(|&(c, v)| (c, Value::from(v))).collect();
    d.schema().tuple(&pairs).unwrap()
}

/// 30 tuples with deliberately colliding values in every column, so
/// ranges overlap duplicates and projections dedup across them.
fn seed_data(d: &Arc<Decomposition>) -> Vec<(Tuple, Tuple)> {
    (0..30i64)
        .map(|k| {
            (
                tup(d, &[("src", k % 5), ("dst", k % 7)]),
                tup(d, &[("weight", (k * 3) % 11)]),
            )
        })
        .collect()
}

/// A battery of interval shapes over one column: both-ends bounds of
/// every openness, rays, unbounded, empty, and limits (top-0 included).
fn range_battery(d: &Arc<Decomposition>, col: &str) -> Vec<RangePattern> {
    let c = d.schema().column(col).unwrap();
    vec![
        RangePattern::all(c),
        RangePattern::all(c).with_limit(3),
        RangePattern::all(c).with_limit(1),
        RangePattern::all(c).with_limit(0),
        RangePattern::closed(c, Value::from(2), Value::from(6)),
        RangePattern::half_open(c, Value::from(2), Value::from(6)),
        RangePattern::half_open(c, Value::from(3), Value::from(3)),
        RangePattern::at_least(c, Value::from(4)),
        RangePattern::at_least(c, Value::from(4)).with_limit(4),
        RangePattern::below(c, Value::from(5)),
        RangePattern::new(
            c,
            Bound::Excluded(Value::from(2)),
            Bound::Included(Value::from(8)),
        ),
        RangePattern::closed(c, Value::from(2), Value::from(6)).with_limit(2),
    ]
}

/// One read of the §2 surface, as a row of the parity table.
#[derive(Debug)]
enum Read {
    Query(ColumnSet),
    Range(RangePattern, ColumnSet),
    Contains,
}

#[derive(Debug, PartialEq)]
enum Answer {
    Rows(Vec<Tuple>),
    Found(bool),
}

/// Runs one table row through any of the six read surfaces — they share
/// method names, not a trait.
macro_rules! answer {
    ($surface:expr, $s:expr, $read:expr) => {
        match $read {
            Read::Query(cols) => $surface.query($s, *cols).map(Answer::Rows),
            Read::Range(r, cols) => $surface.query_range($s, r, *cols).map(Answer::Rows),
            Read::Contains => $surface.contains($s).map(Answer::Found),
        }
    };
}

/// A transactional read's error as the single-shot surfaces report it
/// (the table is single-threaded: nothing can demand a restart).
fn core<T>(r: Result<T, TxnError>) -> Result<T, CoreError> {
    r.map_err(|e| match e {
        TxnError::Core(e) => e,
        TxnError::Restart(_) => panic!("uncontended read demanded a restart"),
    })
}

/// The table: every pattern × every read. Patterns cover fan-out (empty,
/// partial), routed (full key) and filtered-scan (a bound column that
/// some chain checks in a scan) shapes, present and absent; reads cover
/// `query`, `contains`, and `query_range` over the whole battery on all
/// three columns — which, crossed with the patterns, includes the range
/// column already bound by the pattern — under projections that dedup
/// within and across shards.
fn read_table(d: &Arc<Decomposition>) -> Vec<(Tuple, Read)> {
    let patterns = [
        Tuple::empty(),
        tup(d, &[("src", 1)]),
        tup(d, &[("src", 9)]),
        // Bind the full routing key: served by one shard.
        tup(d, &[("src", 2), ("dst", 3)]),
        tup(d, &[("src", 2), ("dst", 4)]),
        // Bound columns that a later scan checks rather than a lookup
        // uses: each entry is compared on its bound slots only.
        tup(d, &[("dst", 3)]),
        tup(d, &[("weight", 6)]),
        tup(d, &[("src", 2), ("weight", 6)]),
        tup(d, &[("dst", 99)]),
    ];
    let projections = [
        d.schema().columns(),
        d.schema().column_set(&["dst"]).unwrap(),
        // {src}: many (src, dst) pairs share a src, so the same
        // projection surfaces from several shards — a fan-out merge must
        // dedup at the smallest range value, not per shard.
        d.schema().column_set(&["src"]).unwrap(),
        d.schema().column_set(&["src", "weight"]).unwrap(),
        ColumnSet::new(),
    ];
    let mut rows = Vec::new();
    for s in &patterns {
        rows.push((s.clone(), Read::Contains));
        for &cols in &projections {
            rows.push((s.clone(), Read::Query(cols)));
            for col in ["src", "dst", "weight"] {
                for range in range_battery(d, col) {
                    rows.push((s.clone(), Read::Range(range, cols)));
                }
            }
        }
    }
    rows
}

/// Checks one surface against the oracle's answers row by row; returns how
/// many rows it could plan. Speculative edges cannot be scanned, so shapes
/// with no valid chain are skipped, mirroring `analyze_all` — but every
/// surface of one (decomposition, placement) must skip the same rows.
fn sweep(
    label: &str,
    table: &[(Tuple, Read)],
    want: &[Answer],
    mut read: impl FnMut(&Tuple, &Read) -> Result<Answer, CoreError>,
) -> usize {
    let mut planned = 0;
    for ((s, row), want) in table.iter().zip(want) {
        match read(s, row) {
            Ok(got) => {
                assert_eq!(&got, want, "{label}: {row:?} on pattern {s:?}");
                planned += 1;
            }
            Err(CoreError::NoValidPlan(_)) => {}
            Err(e) => panic!("{label}: {row:?} on pattern {s:?}: {e}"),
        }
    }
    planned
}

/// The six read surfaces — `ConcurrentRelation`, `Transaction`,
/// `SnapshotReader`, and their sharded counterparts at N=1 and N=4 — must
/// answer every row of the table exactly like the oracle, on every
/// decomposition × placement: one evaluator serves them all, through the
/// locked edge view inside transactions and the snapshot view elsewhere.
#[test]
fn read_surfaces_match_oracle() {
    for (dname, d) in graph_decomps() {
        let oracle = OracleRelation::empty(d.schema().clone());
        for (s, t) in seed_data(&d) {
            let _ = oracle.insert(&s, &t);
        }
        let table = read_table(&d);
        let want: Vec<Answer> = table
            .iter()
            .map(|(s, row)| match row {
                Read::Query(cols) => Answer::Rows(oracle.query(s, *cols)),
                Read::Range(r, cols) => Answer::Rows(oracle.query_range(s, r, *cols)),
                Read::Contains => Answer::Found(!oracle.query(s, ColumnSet::new()).is_empty()),
            })
            .collect();
        for p in standard_placements(&d) {
            let at = |surface: &str| format!("{dname} under `{}`, {surface}", p.name());
            let rel = ConcurrentRelation::new(d.clone(), Arc::clone(&p)).unwrap();
            for (s, t) in seed_data(&d) {
                rel.insert(&s, &t).unwrap();
            }
            let planned = sweep(&at("ConcurrentRelation"), &table, &want, |s, r| {
                answer!(rel, s, r)
            });
            assert!(
                planned > 0,
                "{}: nothing plannable",
                at("ConcurrentRelation")
            );
            let mut surfaces = vec![
                rel.transaction(|tx| {
                    Ok(sweep(&at("Transaction"), &table, &want, |s, r| {
                        core(answer!(tx, s, r))
                    }))
                })
                .unwrap(),
                rel.read_transaction(|snap| {
                    sweep(&at("SnapshotReader"), &table, &want, |s, r| {
                        answer!(snap, s, r)
                    })
                }),
            ];
            for n in [1, 4] {
                let srel = ShardedRelation::new(d.clone(), Arc::clone(&p), n).unwrap();
                for (s, t) in seed_data(&d) {
                    srel.insert(&s, &t).unwrap();
                }
                surfaces.push(sweep(
                    &at(&format!("ShardedRelation/{n}")),
                    &table,
                    &want,
                    |s, r| answer!(srel, s, r),
                ));
                surfaces.push(
                    srel.transaction(|tx| {
                        let label = at(&format!("ShardedTransaction/{n}"));
                        Ok(sweep(&label, &table, &want, |s, r| core(answer!(tx, s, r))))
                    })
                    .unwrap(),
                );
                surfaces.push(srel.read_transaction(|snap| {
                    let label = at(&format!("ShardedSnapshotReader/{n}"));
                    sweep(&label, &table, &want, |s, r| answer!(snap, s, r))
                }));
            }
            assert!(
                surfaces.iter().all(|&n| n == planned),
                "{dname} under `{}`: surfaces disagree on which rows are plannable: \
                 {planned} vs {surfaces:?}",
                p.name()
            );
        }
    }
}

/// Steps longer than one prefetch group: a snapshot read takes the rows of
/// a step in groups of `PREFETCH_GROUP` and prefetches each group before
/// reading it, so a slip at a group boundary would drop, repeat or
/// misread rows. Every step of these relations has at most `n` rows and
/// the widest has exactly `n`: `n` sources, all with destination 0 — on
/// `stick` a map-shaped `u → v` step, on `split` the one-chain `Singleton`
/// steps and the `v → y` fan-out of destination 0. `snapshot()`, a
/// full-width `query_range` and a fan-out `query` must match the oracle
/// at `n` one short of a group, a group, one past it, two groups and one,
/// and about 300.
#[test]
fn steps_longer_than_a_prefetch_group_match_oracle() {
    let g = relc::query::PREFETCH_GROUP;
    let decomps = [
        (
            "stick(cslm,hm)",
            stick(ContainerKind::ConcurrentSkipListMap, ContainerKind::HashMap),
        ),
        (
            "split(chm,tm)",
            split(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap),
        ),
    ];
    for (dname, d) in decomps {
        for n in [g - 1, g, g + 1, 2 * g + 1, 301] {
            let rel = ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap()).unwrap();
            let oracle = OracleRelation::empty(d.schema().clone());
            for k in 0..n as i64 {
                let s = tup(&d, &[("src", k), ("dst", 0)]);
                let t = tup(&d, &[("weight", (k * 3) % 7)]);
                assert!(rel.insert(&s, &t).unwrap());
                assert!(oracle.insert(&s, &t).unwrap());
            }
            let at = format!("{dname} with {n} rows");
            let all = d.schema().columns();
            assert_eq!(rel.snapshot().unwrap(), oracle.snapshot(), "{at}");
            assert_eq!(rel.snapshot().unwrap().len(), n, "{at}");
            let range = RangePattern::all(d.schema().column("src").unwrap());
            assert_eq!(
                rel.query_range(&Tuple::empty(), &range, all).unwrap(),
                oracle.query_range(&Tuple::empty(), &range, all),
                "{at}"
            );
            let fan_out = tup(&d, &[("dst", 0)]);
            assert_eq!(
                rel.query(&fan_out, all).unwrap(),
                oracle.query(&fan_out, all),
                "{at}"
            );
            rel.verify().unwrap();
        }
    }
}

/// Limited and bounded range reads over `src`, the column of `d`'s root
/// edge, against the oracle under `p`: limits 0, 1, 5 and 40, bounded
/// intervals with and without a limit, on the snapshot path and inside a
/// `transaction` alike, with the root holding 64 keys.
fn check_limited_ranges(d: &Arc<Decomposition>, p: Arc<LockPlacement>) {
    let at = format!("{} / {}", d.describe(), p.name());
    let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
    let oracle = OracleRelation::empty(d.schema().clone());
    for k in 0..96i64 {
        let s = tup(d, &[("src", (k * 37) % 64), ("dst", k % 3)]);
        let t = tup(d, &[("weight", (k * 5) % 13)]);
        assert_eq!(rel.insert(&s, &t).unwrap(), oracle.insert(&s, &t).unwrap());
    }
    let src = d.schema().column("src").unwrap();
    let ranges = [
        RangePattern::all(src).with_limit(1),
        RangePattern::all(src).with_limit(5),
        RangePattern::all(src).with_limit(40),
        RangePattern::all(src).with_limit(0),
        RangePattern::closed(src, Value::from(10), Value::from(50)).with_limit(7),
        RangePattern::at_least(src, Value::from(60)).with_limit(3),
        RangePattern::below(src, Value::from(20)),
    ];
    let projections = [
        d.schema().columns(),
        d.schema().column_set(&["src"]).unwrap(),
        d.schema().column_set(&["weight"]).unwrap(),
    ];
    for range in &ranges {
        for &cols in &projections {
            let want = oracle.query_range(&Tuple::empty(), range, cols);
            let got = rel.query_range(&Tuple::empty(), range, cols).unwrap();
            assert_eq!(got, want, "{at}: snapshot {range:?} onto {cols:?}");
            let locked = rel
                .transaction(|tx| tx.query_range(&Tuple::empty(), range, cols))
                .unwrap();
            assert_eq!(locked, want, "{at}: transaction {range:?} onto {cols:?}");
        }
    }
    rel.verify().unwrap();
}

/// A range column held by a hash-keyed edge: the edge's index walks in
/// its hash order, not in key order, so a limited range read must not stop
/// after the first `k` entries it meets. On the snapshot path and inside a
/// `transaction` alike, every interval and limit — top-k included —
/// answers as the oracle does, with the root's table grown past one
/// bucket.
#[test]
fn limited_ranges_over_a_hash_keyed_edge_match_oracle() {
    for kind in [ContainerKind::HashMap, ContainerKind::ConcurrentHashMap] {
        let d = stick(kind, ContainerKind::HashMap);
        for p in [LockPlacement::coarse(&d), LockPlacement::fine(&d)] {
            check_limited_ranges(&d, p.unwrap());
        }
    }
}

/// A range column held by a `TreeMap`, `SplayTreeMap` or
/// `CopyOnWriteArrayList` edge, each laid out as the sorted index: a
/// limited range read stops early in key order, under every placement the
/// kind admits: `coarse` and `fine` for all three (the splay edge's reads
/// exclusive), `striped_root` for the concurrency-safe
/// `CopyOnWriteArrayList`.
#[test]
fn limited_ranges_over_sorted_kinds_match_oracle() {
    for kind in [
        ContainerKind::TreeMap,
        ContainerKind::SplayTreeMap,
        ContainerKind::CopyOnWriteArrayList,
    ] {
        let d = stick(kind, kind);
        let placements = [
            LockPlacement::coarse(&d).unwrap(),
            LockPlacement::fine(&d).unwrap(),
        ];
        let striped = LockPlacement::striped_root(&d, 16).ok();
        // Striping a root edge needs a concurrency-safe kind.
        assert_eq!(
            striped.is_some(),
            kind.props().is_concurrency_safe(),
            "{kind}: striped_root admitted"
        );
        for p in placements.into_iter().chain(striped) {
            check_limited_ranges(&d, p);
        }
    }
}

/// Randomized differential: random churn, then random intervals with
/// random openness and limits, compared against the oracle on every
/// round.
#[test]
fn randomized_ranges_match_oracle() {
    for (dname, d) in graph_decomps().into_iter().take(3) {
        let p = LockPlacement::fine(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), Arc::clone(&p)).unwrap();
        let oracle = OracleRelation::empty(d.schema().clone());
        let full = d.schema().columns();
        let cols_list = [
            full,
            d.schema().column_set(&["dst"]).unwrap(),
            d.schema().column_set(&["src", "weight"]).unwrap(),
        ];
        let col_names = ["src", "dst", "weight"];
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..200u64 {
            let src = (next() % 8) as i64;
            let dst = (next() % 8) as i64;
            let w = (next() % 16) as i64;
            let s = tup(&d, &[("src", src), ("dst", dst)]);
            if next() % 4 == 0 {
                let a = rel.remove(&s).unwrap();
                let b = oracle.remove(&s);
                assert_eq!(a, b, "{dname}: remove divergence");
            } else {
                let t = tup(&d, &[("weight", w)]);
                let a = rel.insert(&s, &t).unwrap();
                let b = oracle.insert(&s, &t).unwrap();
                assert_eq!(a, b, "{dname}: insert divergence");
            }
            if round % 5 != 0 {
                continue;
            }
            let c = d.schema().column(col_names[(next() % 3) as usize]).unwrap();
            let lo = (next() % 16) as i64;
            let hi = lo + (next() % 10) as i64 - 2;
            let lo_b = match next() % 3 {
                0 => Bound::Included(Value::from(lo)),
                1 => Bound::Excluded(Value::from(lo)),
                _ => Bound::Unbounded,
            };
            let hi_b = match next() % 3 {
                0 => Bound::Included(Value::from(hi)),
                1 => Bound::Excluded(Value::from(hi)),
                _ => Bound::Unbounded,
            };
            let mut range = RangePattern::new(c, lo_b, hi_b);
            if next() % 2 == 0 {
                range = range.with_limit((next() % 5) as usize + 1);
            }
            let cols = cols_list[(next() % 3) as usize];
            let pattern = if next() % 3 == 0 {
                tup(&d, &[("src", (next() % 8) as i64)])
            } else {
                Tuple::empty()
            };
            let want = oracle.query_range(&pattern, &range, cols);
            let got = rel.query_range(&pattern, &range, cols).unwrap();
            assert_eq!(got, want, "{dname}: range {range}, pattern {pattern:?}");
        }
    }
}

/// Sharded range routing: a pattern binding the routing columns is served
/// by its owning shard alone — one snapshot read there and none elsewhere
/// — while a fan-out pattern reads every shard at one snapshot; both
/// match the oracle (value parity across all shapes is
/// `read_surfaces_match_oracle`'s job).
#[test]
fn sharded_ranges_match_oracle() {
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let p = LockPlacement::fine(&d).unwrap();
    let rel = ShardedRelation::new(d.clone(), Arc::clone(&p), 4).unwrap();
    let oracle = OracleRelation::empty(d.schema().clone());
    for (s, t) in seed_data(&d) {
        rel.insert(&s, &t).unwrap();
        let _ = oracle.insert(&s, &t);
    }
    let full = d.schema().columns();
    let wcol = d.schema().column("weight").unwrap();
    let range = RangePattern::closed(wcol, Value::from(2), Value::from(9)).with_limit(5);
    let shard_snapshot_reads = |rel: &ShardedRelation| -> Vec<u64> {
        rel.shards()
            .iter()
            .map(|s| s.lock_stats().snapshot_reads)
            .collect()
    };

    let routed = tup(&d, &[("src", 2), ("dst", 3)]);
    let (reads, per_shard) = (rel.lock_stats().snapshot_reads, shard_snapshot_reads(&rel));
    let got = rel.query_range(&routed, &range, full).unwrap();
    assert_eq!(got, oracle.query_range(&routed, &range, full));
    assert_eq!(got.len(), 1, "the routed key is present and in range");
    assert_eq!(
        rel.lock_stats().snapshot_reads - reads,
        1,
        "a routed range read must consult exactly one shard"
    );
    let mut expect = per_shard;
    expect[rel.shard_of(&routed)] += 1;
    assert_eq!(
        shard_snapshot_reads(&rel),
        expect,
        "a routed range read is one snapshot read on its owning shard and none elsewhere"
    );

    let reads = rel.lock_stats().snapshot_reads;
    let got = rel.query_range(&Tuple::empty(), &range, full).unwrap();
    assert_eq!(got, oracle.query_range(&Tuple::empty(), &range, full));
    assert_eq!(
        rel.lock_stats().snapshot_reads - reads,
        4,
        "a fan-out range read consults every shard"
    );
    expect.iter_mut().for_each(|n| *n += 1);
    assert_eq!(
        shard_snapshot_reads(&rel),
        expect,
        "a fan-out range read is one snapshot read on every shard"
    );
}

/// A `ConcurrentSkipListMap` root is its version index alone, so a locked
/// read walks entries its container never held: tombstones kept for a
/// registered snapshot reader. With a reader holding the seed state, root
/// keys are removed (src 1, whose `u` loses its last entry) and removed and
/// re-inserted with new weights (src 3); locked `query`, `contains` and
/// `query_range` inside a `transaction` must still match the oracle over
/// the whole read table, and `verify()` must find every emptied `u`
/// unlinked. Once the reader drops, `verify()`
/// leaves no dead entry: the version footprint is exactly that of a
/// relation loaded with the final rows.
#[test]
fn locked_reads_skip_tombstones_kept_for_a_snapshot_reader() {
    let d = stick(ContainerKind::ConcurrentSkipListMap, ContainerKind::HashMap);
    let table = read_table(&d);
    let col = |name: &str| d.schema().column(name).unwrap();
    let (src, weight) = (col("src"), col("weight"));
    let of_src = |k: i64| move |(s, _): &&(Tuple, Tuple)| s.get(src) == Some(&Value::from(k));
    let seed = seed_data(&d);
    for p in [
        LockPlacement::fine(&d).unwrap(),
        LockPlacement::striped_root(&d, 8).unwrap(),
    ] {
        let label = format!("stick(cslm,hm) under `{}`", p.name());
        let rel = ConcurrentRelation::new(d.clone(), Arc::clone(&p)).unwrap();
        let oracle = OracleRelation::empty(d.schema().clone());
        for (s, t) in &seed {
            rel.insert(s, t).unwrap();
            oracle.insert(s, t).unwrap();
        }
        let reader = rel.snapshots().register(relc_locks::commit_clock());
        for (s, _) in seed.iter().filter(|r| of_src(1)(r) || of_src(3)(r)) {
            assert_eq!(rel.remove(s).unwrap(), 1, "{label}");
            oracle.remove(s);
        }
        for (s, t) in seed.iter().filter(of_src(3)) {
            let w = t.get(weight).and_then(Value::as_int).unwrap();
            let t = tup(&d, &[("weight", 100 + w)]);
            assert!(rel.insert(s, &t).unwrap(), "{label}");
            oracle.insert(s, &t).unwrap();
        }
        let want: Vec<Answer> = table
            .iter()
            .map(|(s, row)| match row {
                Read::Query(cols) => Answer::Rows(oracle.query(s, *cols)),
                Read::Range(r, cols) => Answer::Rows(oracle.query_range(s, r, *cols)),
                Read::Contains => Answer::Found(!oracle.query(s, ColumnSet::new()).is_empty()),
            })
            .collect();
        let planned = rel
            .transaction(|tx| {
                let read = |s: &Tuple, r: &Read| core(answer!(tx, s, r));
                Ok(sweep(&label, &table, &want, read))
            })
            .unwrap();
        assert!(planned > 0, "{label}: nothing plannable");
        rel.verify()
            .unwrap_or_else(|e| panic!("{label}, reader held: {e}"));
        let pinned = rel.version_footprint();
        drop(reader);
        let rows = rel.verify().unwrap_or_else(|e| panic!("{label}: {e}"));
        let fresh = ConcurrentRelation::new(d.clone(), p).unwrap();
        for row in &rows {
            let key = row.project(d.schema().column_set(&["src", "dst"]).unwrap());
            fresh
                .insert(&key, &row.project(ColumnSet::single(weight)))
                .unwrap();
        }
        assert_eq!(fresh.verify().unwrap(), rows, "{label}");
        assert_eq!(
            rel.version_footprint(),
            fresh.version_footprint(),
            "{label}: a dead entry outlived its reader"
        );
        assert!(
            pinned > fresh.version_footprint(),
            "{label}: nothing was pinned"
        );
    }
}

/// Concurrent range reads observe one consistent cut: every writer
/// transaction inserts a *pair* of tuples atomically, so any range read
/// over the whole window must count an even number of results — on the
/// single relation and across shards.
#[test]
fn range_reads_are_one_snapshot_cut() {
    let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let p = LockPlacement::fine(&d).unwrap();
    let full = d.schema().columns();
    let wcol = d.schema().column("weight").unwrap();
    let range = RangePattern::all(wcol);

    let rel = Arc::new(ConcurrentRelation::new(d.clone(), Arc::clone(&p)).unwrap());
    let barrier = Arc::new(Barrier::new(3));
    let writer = {
        let rel = Arc::clone(&rel);
        let d = d.clone();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for k in 0..60i64 {
                rel.transaction(|tx| {
                    tx.insert(
                        &tup(&d, &[("src", 2 * k), ("dst", 2 * k)]),
                        &tup(&d, &[("weight", k % 7)]),
                    )?;
                    tx.insert(
                        &tup(&d, &[("src", 2 * k + 1), ("dst", 2 * k + 1)]),
                        &tup(&d, &[("weight", k % 7)]),
                    )?;
                    Ok(())
                })
                .unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let rel = Arc::clone(&rel);
            let range = range.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..150 {
                    let got = rel.query_range(&Tuple::empty(), &range, full).unwrap();
                    assert_eq!(got.len() % 2, 0, "torn range read: {} results", got.len());
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    // Sharded: the pair straddles shards, so a torn fan-out would be
    // visible unless all shards are read at one registered timestamp.
    let srel = Arc::new(ShardedRelation::new(d.clone(), p, 4).unwrap());
    let barrier = Arc::new(Barrier::new(3));
    let writer = {
        let srel = Arc::clone(&srel);
        let d = d.clone();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for k in 0..60i64 {
                srel.transaction(|tx| {
                    tx.insert(
                        &tup(&d, &[("src", 2 * k), ("dst", 2 * k)]),
                        &tup(&d, &[("weight", k % 7)]),
                    )?;
                    tx.insert(
                        &tup(&d, &[("src", 2 * k + 1), ("dst", 2 * k + 1)]),
                        &tup(&d, &[("weight", k % 7)]),
                    )?;
                    Ok(())
                })
                .unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let srel = Arc::clone(&srel);
            let range = range.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..150 {
                    let got = srel.query_range(&Tuple::empty(), &range, full).unwrap();
                    assert_eq!(
                        got.len() % 2,
                        0,
                        "torn cross-shard range read: {} results",
                        got.len()
                    );
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

/// Small mixed histories of writers and range readers must be
/// linearizable under the §2 range semantics (Wing–Gong with the
/// `Range` record). Two inputs, twenty rounds each: snapshot reads over
/// `weight` (a filtered scan) and locked reads inside `transaction` over
/// `src` on a skip-list root (a native bounded `RangeScan`).
#[test]
fn concurrent_range_histories_linearize() {
    let inputs: Vec<(Arc<Decomposition>, &str, bool)> = vec![
        (
            stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap),
            "weight",
            false,
        ),
        (
            stick(ContainerKind::ConcurrentSkipListMap, ContainerKind::HashMap),
            "src",
            true,
        ),
    ];
    for round in 0..20 * inputs.len() as u64 {
        let (d, col, locked) = &inputs[round as usize % inputs.len()];
        let locked = *locked;
        let p = LockPlacement::fine(d).unwrap();
        let rcol = d.schema().column(col).unwrap();
        let rel = Arc::new(ConcurrentRelation::new(d.clone(), p).unwrap());
        let rec = HistoryRecorder::new();
        let threads = 3usize;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads as u64)
            .map(|tid| {
                let rel = Arc::clone(&rel);
                let d = d.clone();
                let rec = Arc::clone(&rec);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut x = (round + 1) * (tid + 2) * 0x9e37_79b9;
                    let mut next = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    barrier.wait();
                    for _ in 0..4 {
                        let sv = (next() % 2) as i64;
                        let dv = (next() % 2) as i64;
                        let wv = (next() % 3) as i64;
                        if tid == 0 {
                            let range = RangePattern::closed(rcol, Value::from(0), Value::from(1))
                                .with_limit(2);
                            let cols = d.schema().column_set(&["src", "dst"]).unwrap();
                            rec.record(|| {
                                let result = if locked {
                                    rel.transaction(|tx| {
                                        tx.query_range(&Tuple::empty(), &range, cols)
                                    })
                                } else {
                                    rel.query_range(&Tuple::empty(), &range, cols)
                                }
                                .unwrap();
                                (
                                    (),
                                    OpRecord::Range {
                                        s: Tuple::empty(),
                                        range: range.clone(),
                                        cols,
                                        result,
                                    },
                                )
                            });
                        } else if next() % 3 == 0 {
                            let s = tup(&d, &[("src", sv), ("dst", dv)]);
                            rec.record(|| {
                                let result = rel.remove(&s).unwrap();
                                (
                                    (),
                                    OpRecord::Remove {
                                        s: s.clone(),
                                        result,
                                    },
                                )
                            });
                        } else {
                            let s = tup(&d, &[("src", sv), ("dst", dv)]);
                            let t = tup(&d, &[("weight", wv)]);
                            rec.record(|| {
                                let result = rel.insert(&s, &t).unwrap();
                                (
                                    (),
                                    OpRecord::Insert {
                                        s: s.clone(),
                                        t: t.clone(),
                                        result,
                                    },
                                )
                            });
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let history = rec.into_history();
        assert!(
            check_linearizable(d.schema(), &history),
            "round {round} ({col}, locked={locked}): non-linearizable range history: \
             {history:#?}"
        );
    }
}

/// Per-relation retirement (regression): an idle snapshot reader held on
/// relation A must not pin relation B's version chains — B's churn
/// reclaims back to its baseline footprint while the A-reader stays
/// open. A reader on B itself still pins, and its release lets the next
/// commits sweep the backlog.
#[test]
fn held_reader_on_other_relation_does_not_pin_retirement() {
    let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let p = LockPlacement::coarse(&d).unwrap();
    let a = ConcurrentRelation::new(d.clone(), Arc::clone(&p)).unwrap();
    let b = ConcurrentRelation::new(d.clone(), Arc::clone(&p)).unwrap();
    a.insert(
        &tup(&d, &[("src", 1), ("dst", 1)]),
        &tup(&d, &[("weight", 0)]),
    )
    .unwrap();
    b.insert(
        &tup(&d, &[("src", 1), ("dst", 1)]),
        &tup(&d, &[("weight", 0)]),
    )
    .unwrap();
    let baseline = b.version_footprint();
    a.read_transaction(|snap| {
        let pinned_a = snap.snapshot().unwrap();
        // Churn B hard while the A-reader stays registered. With one
        // process-global registry this pinned every superseded version
        // of B (footprint ≈ baseline + 300); with per-relation
        // registries each commit retires B back down.
        for i in 1..=300i64 {
            b.update(
                &tup(&d, &[("src", 1), ("dst", 1)]),
                &tup(&d, &[("weight", i)]),
            )
            .unwrap();
        }
        let churned = b.version_footprint();
        assert!(
            churned <= baseline + 8,
            "idle reader on A pinned B's retirement: footprint {churned} \
             vs baseline {baseline}"
        );
        // Converse: a reader registered on B itself does pin B.
        let g = b.snapshots().register(relc_locks::commit_clock());
        for i in 301..=360i64 {
            b.update(
                &tup(&d, &[("src", 1), ("dst", 1)]),
                &tup(&d, &[("weight", i)]),
            )
            .unwrap();
        }
        let pinned = b.version_footprint();
        assert!(
            pinned >= baseline + 50,
            "reader on B must pin B's versions: footprint {pinned} \
             vs baseline {baseline}"
        );
        drop(g);
        // Released: the next commits sweep the backlog back down.
        for i in 361..=364i64 {
            b.update(
                &tup(&d, &[("src", 1), ("dst", 1)]),
                &tup(&d, &[("weight", i)]),
            )
            .unwrap();
        }
        let reclaimed = b.version_footprint();
        assert!(
            reclaimed <= baseline + 8,
            "B's backlog not reclaimed after reader release: footprint \
             {reclaimed} vs baseline {baseline}"
        );
        // The A-reader still observes its pinned state.
        assert_eq!(snap.snapshot().unwrap(), pinned_a);
    });
}
