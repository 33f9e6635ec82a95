//! MVCC snapshot-read validation: lock-free read-only transactions must
//! (a) linearize with concurrent writers (Wing–Gong over mixed
//! histories), (b) observe only committed prefix states — never torn,
//! partial, or future-timestamp state, (c) agree with the sequential
//! oracle op-for-op when single-threaded, (d) see cross-shard
//! transactions atomically through one shared snapshot timestamp, and
//! (e) retire superseded versions through the epoch collector instead of
//! leaking them.
//!
//! The version/reclamation counters are process-global, so every test in
//! this binary serializes on a mutex.

use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use proptest::prelude::*;
use relc::decomp::library::{diamond, split, stick};
use relc::lincheck::{check_linearizable, HistoryRecorder, OpRecord};
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, ShardedRelation};
use relc_containers::{version_stats, ContainerKind};
use relc_spec::{OracleRelation, Tuple, Value};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn edge(rel: &ConcurrentRelation, s: i64, d: i64) -> Tuple {
    rel.schema()
        .tuple(&[("src", Value::from(s)), ("dst", Value::from(d))])
        .unwrap()
}

fn weight(rel: &ConcurrentRelation, w: i64) -> Tuple {
    rel.schema().tuple(&[("weight", Value::from(w))]).unwrap()
}

/// Snapshot read-only transactions mixed with writers must produce
/// linearizable histories: the whole read transaction is one
/// linearization point (its snapshot timestamp), recorded as an atomic
/// `Txn` of queries.
#[test]
fn snapshot_read_transactions_linearize_with_writers() {
    let _serial = serialize();
    let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let placements = vec![
        LockPlacement::fine(&d).unwrap(),
        LockPlacement::speculative(&d, 4).unwrap(),
    ];
    for p in placements {
        for round in 0..25u64 {
            let rel = Arc::new(ConcurrentRelation::new(d.clone(), p.clone()).unwrap());
            let rec = HistoryRecorder::new();
            let threads = 3usize;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads as u64)
                .map(|tid| {
                    let rel = rel.clone();
                    let rec = rec.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        let mut x = (round + 1) * (tid + 1) * 0x9e37_79b9;
                        let mut next = move || {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x
                        };
                        barrier.wait();
                        for _ in 0..4 {
                            let s = (next() % 2) as i64;
                            let dd = (next() % 2) as i64;
                            let w = (next() % 2) as i64;
                            if tid == 0 {
                                // Dedicated reader: a two-query snapshot
                                // transaction. Both queries resolve at one
                                // commit timestamp captured inside the
                                // recorded interval, so the pair is a
                                // sound atomic linearization candidate.
                                let cols = rel.schema().column_set(&["dst", "weight"]).unwrap();
                                rec.record(|| {
                                    let p1 =
                                        rel.schema().tuple(&[("src", Value::from(s))]).unwrap();
                                    let p2 =
                                        rel.schema().tuple(&[("src", Value::from(1 - s))]).unwrap();
                                    let (r1, r2) = rel.read_transaction(|snap| {
                                        (
                                            snap.query(&p1, cols).unwrap(),
                                            snap.query(&p2, cols).unwrap(),
                                        )
                                    });
                                    (
                                        (),
                                        OpRecord::Txn {
                                            ops: vec![
                                                OpRecord::Query {
                                                    s: p1,
                                                    cols,
                                                    result: r1,
                                                },
                                                OpRecord::Query {
                                                    s: p2,
                                                    cols,
                                                    result: r2,
                                                },
                                            ],
                                        },
                                    )
                                });
                            } else {
                                match next() % 2 {
                                    0 => rec.record(|| {
                                        let r = rel
                                            .insert(&edge(&rel, s, dd), &weight(&rel, w))
                                            .unwrap();
                                        (
                                            (),
                                            OpRecord::Insert {
                                                s: edge(&rel, s, dd),
                                                t: weight(&rel, w),
                                                result: r,
                                            },
                                        )
                                    }),
                                    _ => rec.record(|| {
                                        let r = rel.remove(&edge(&rel, s, dd)).unwrap();
                                        (
                                            (),
                                            OpRecord::Remove {
                                                s: edge(&rel, s, dd),
                                                result: r,
                                            },
                                        )
                                    }),
                                }
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
                check_linearizable(rel.schema(), &history),
                "non-linearizable snapshot/writer history on {} (round {round}): {history:#?}",
                rel.placement().name()
            );
        }
    }
}

/// Under single-writer churn, every snapshot a reader observes must be
/// *exactly* one of the committed prefix states the writer has produced —
/// no torn entries, no uncommitted (future-timestamp) versions — and two
/// reads inside one read transaction must agree (repeatable read).
#[test]
fn snapshots_observe_only_committed_prefix_states() {
    let _serial = serialize();
    for d in [
        stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap),
        split(
            ContainerKind::ConcurrentSkipListMap,
            ContainerKind::ConcurrentSkipListMap,
        ),
    ] {
        let rel =
            Arc::new(ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap()).unwrap());
        let oracle = OracleRelation::empty(d.schema().clone());
        // Every committed state, in commit order. The writer pushes each
        // state *after* the relation op commits, so by join time the log
        // contains every state any reader can have observed.
        let states = Arc::new(Mutex::new(vec![Vec::<Tuple>::new()]));
        let ops = 800u64;
        let barrier = Arc::new(Barrier::new(3));

        let writer = {
            let rel = Arc::clone(&rel);
            let states = Arc::clone(&states);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut x = 0x2545_f491_4f6c_dd1du64;
                for _ in 0..ops {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = (x % 12) as i64;
                    match (x >> 32) % 3 {
                        0 => {
                            rel.insert(&edge(&rel, k, k), &weight(&rel, k)).unwrap();
                            let _ = oracle.insert(&edge(&rel, k, k), &weight(&rel, k));
                        }
                        1 => {
                            rel.remove(&edge(&rel, k, k)).unwrap();
                            oracle.remove(&edge(&rel, k, k));
                        }
                        _ => {
                            rel.update(&edge(&rel, k, k), &weight(&rel, -k)).unwrap();
                            let _ = oracle.update(&edge(&rel, k, k), &weight(&rel, -k));
                        }
                    }
                    let mut snap = oracle.snapshot();
                    snap.sort();
                    states.lock().unwrap().push(snap);
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let rel = Arc::clone(&rel);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut observed = Vec::new();
                    for _ in 0..120 {
                        let (ts, s1, s2, probe) = rel.read_transaction(|snap| {
                            let s1 = snap.snapshot().unwrap();
                            let s2 = snap.snapshot().unwrap();
                            let probe = snap.contains(&edge(&rel, 3, 3)).unwrap();
                            (snap.snapshot_ts(), s1, s2, probe)
                        });
                        assert_eq!(s1, s2, "repeatable read violated within one snapshot");
                        let has3 = s1.iter().any(|t| {
                            let src = rel.schema().column("src").unwrap();
                            t.get(src).and_then(|v| v.as_int()) == Some(3)
                        });
                        assert_eq!(probe, has3, "contains disagrees with snapshot at ts {ts}");
                        observed.push(s1);
                    }
                    observed
                })
            })
            .collect();

        let observations: Vec<Vec<Vec<Tuple>>> =
            readers.into_iter().map(|r| r.join().unwrap()).collect();
        writer.join().unwrap();

        let states = states.lock().unwrap();
        for observed in observations {
            for snap in observed {
                assert!(
                    states.contains(&snap),
                    "snapshot is not any committed prefix state (torn or future read): {snap:?}"
                );
            }
        }
        rel.verify().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Sequential differential: after every mutation, a snapshot read
    /// transaction's query/contains/snapshot must equal the sequential
    /// oracle exactly — the MVCC read path is a drop-in replacement for
    /// the locked read path on every plannable shape.
    #[test]
    fn snapshot_reads_match_sequential_oracle(
        ops in proptest::collection::vec((0u8..4, 0i64..8, 0i64..8, -4i64..4), 1..60),
        coarse in any::<bool>(),
    ) {
        let _serial = serialize();
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
        let p = if coarse {
            LockPlacement::coarse(&d).unwrap()
        } else {
            LockPlacement::fine(&d).unwrap()
        };
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        let oracle = OracleRelation::empty(d.schema().clone());
        let wcols = rel.schema().column_set(&["weight"]).unwrap();
        let dcols = rel.schema().column_set(&["dst", "weight"]).unwrap();
        for (which, s, dd, w) in ops {
            match which {
                0 => {
                    let got = rel.insert(&edge(&rel, s, dd), &weight(&rel, w)).unwrap();
                    let want = oracle.insert(&edge(&rel, s, dd), &weight(&rel, w)).unwrap();
                    prop_assert_eq!(got, want);
                }
                1 => {
                    let got = rel.remove(&edge(&rel, s, dd)).unwrap();
                    let want = oracle.remove(&edge(&rel, s, dd));
                    prop_assert_eq!(got, want);
                }
                2 => {
                    let got = rel.update(&edge(&rel, s, dd), &weight(&rel, w)).unwrap();
                    let want = oracle.update(&edge(&rel, s, dd), &weight(&rel, w)).unwrap();
                    prop_assert_eq!(got, want);
                }
                _ => {}
            }
            // Snapshot reads after every op: full-key query, partial
            // pattern query, contains, and the full snapshot.
            let pat = rel.schema().tuple(&[("src", Value::from(s))]).unwrap();
            let (q1, q2, c1, all) = rel.read_transaction(|snap| {
                (
                    snap.query(&edge(&rel, s, dd), wcols).unwrap(),
                    snap.query(&pat, dcols).unwrap(),
                    snap.contains(&edge(&rel, s, dd)).unwrap(),
                    snap.snapshot().unwrap(),
                )
            });
            let mut w1 = oracle.query(&edge(&rel, s, dd), wcols);
            w1.sort();
            let mut w2 = oracle.query(&pat, dcols);
            w2.sort();
            prop_assert_eq!(q1, w1);
            prop_assert_eq!(q2, w2);
            prop_assert_eq!(c1, !oracle.query(&edge(&rel, s, dd), wcols).is_empty());
            let mut wall = oracle.snapshot();
            wall.sort();
            prop_assert_eq!(all, wall);
        }
    }
}

/// Cross-shard transfers observed through one sharded snapshot must
/// always conserve the total: the shared commit stamp makes the
/// cross-shard commit atomic at one timestamp, and the single shared
/// snapshot registration reads every shard at one cut. A reader seeing
/// shard A's debit without shard B's credit breaks the sum.
#[test]
fn cross_shard_snapshot_is_one_consistent_cut() {
    let _serial = serialize();
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let graph =
        Arc::new(ShardedRelation::new(d.clone(), LockPlacement::fine(&d).unwrap(), 4).unwrap());
    let schema = graph.schema().clone();
    let key = |s: i64| {
        schema
            .tuple(&[("src", Value::from(s)), ("dst", Value::from(s))])
            .unwrap()
    };
    let w = |v: i64| schema.tuple(&[("weight", Value::from(v))]).unwrap();
    // Two accounts owned by different shards.
    let a = 0i64;
    let b = (1..64)
        .find(|&x| graph.shard_of(&key(x)) != graph.shard_of(&key(a)))
        .expect("some key routes elsewhere");
    let initial = 1_000i64;
    graph.insert(&key(a), &w(initial)).unwrap();
    graph.insert(&key(b), &w(initial)).unwrap();

    let barrier = Arc::new(Barrier::new(4));
    let wcol = schema.column("weight").unwrap();
    let wcols = schema.column_set(&["weight"]).unwrap();
    let writers: Vec<_> = (0..2u64)
        .map(|tid| {
            let graph = Arc::clone(&graph);
            let barrier = Arc::clone(&barrier);
            let (ka, kb) = (key(a), key(b));
            let schema = schema.clone();
            std::thread::spawn(move || {
                let w = |v: i64| schema.tuple(&[("weight", Value::from(v))]).unwrap();
                barrier.wait();
                let mut x = (tid + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                for _ in 0..150 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let amt = (x % 7) as i64;
                    graph
                        .transaction(|tx| {
                            let qa = tx.query(&ka, wcols)?;
                            let qb = tx.query(&kb, wcols)?;
                            let wa = qa[0].get(wcol).and_then(|v| v.as_int()).unwrap();
                            let wb = qb[0].get(wcol).and_then(|v| v.as_int()).unwrap();
                            tx.update(&ka, &w(wa - amt))?;
                            tx.update(&kb, &w(wb + amt))?;
                            Ok(())
                        })
                        .unwrap();
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2u64)
        .map(|_| {
            let graph = Arc::clone(&graph);
            let barrier = Arc::clone(&barrier);
            let (ka, kb) = (key(a), key(b));
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..200 {
                    // One snapshot spanning both shards; also exercise the
                    // single-shot fan-out path, which reroutes here.
                    let (qa, qb, all) = graph.read_transaction(|snap| {
                        (
                            snap.query(&ka, wcols).unwrap(),
                            snap.query(&kb, wcols).unwrap(),
                            snap.snapshot().unwrap(),
                        )
                    });
                    let wa = qa[0].get(wcol).and_then(|v| v.as_int()).unwrap();
                    let wb = qb[0].get(wcol).and_then(|v| v.as_int()).unwrap();
                    assert_eq!(
                        wa + wb,
                        2 * initial,
                        "snapshot saw a torn cross-shard transfer"
                    );
                    assert_eq!(all.len(), 2, "snapshot saw a key mid-relocation");
                }
            })
        })
        .collect();
    for h in writers.into_iter().chain(readers) {
        h.join().unwrap();
    }
    // The lock-free single-shot fan-out (rerouted through one snapshot)
    // agrees at quiescence.
    let total: i64 = graph
        .snapshot()
        .unwrap()
        .iter()
        .map(|t| t.get(wcol).and_then(|v| v.as_int()).unwrap())
        .sum();
    assert_eq!(total, 2 * initial);
    assert!(graph.lock_stats().snapshot_reads > 0);
}

/// Superseded versions must be retired, not accumulated: overwriting one
/// entry N times with no reader registered keeps the live version count
/// bounded, dead (tombstoned) cells are purged from the index through the
/// epoch collector, and dropping the relation frees whatever remains.
#[test]
fn superseded_versions_are_retired_and_reclaimed() {
    let _serial = serialize();
    relc_containers::reclamation_flush();
    let v0 = version_stats();
    let r0 = relc_containers::reclamation_stats();

    let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let rel = ConcurrentRelation::new(d.clone(), LockPlacement::coarse(&d).unwrap()).unwrap();
    rel.insert(&edge(&rel, 1, 1), &weight(&rel, 0)).unwrap();
    for i in 0..500 {
        rel.update(&edge(&rel, 1, 1), &weight(&rel, i)).unwrap();
    }
    // Flush so cells parked in the epoch collector's in-flight bags (their
    // versions still count as live) are actually freed before we bound the
    // live count.
    rel.flush_reclamation();
    let mid = version_stats();
    assert!(
        mid.created > v0.created + 500,
        "every mirrored write creates a version: {mid}"
    );
    assert!(
        mid.retired > v0.retired + 400,
        "with no registered reader, superseded versions retire eagerly: {mid}"
    );
    // Each chain holds at most the newest committed version (plus the
    // key's sibling edges); nothing proportional to the 500 updates
    // survives.
    assert!(
        mid.live() < v0.live() + 32,
        "live version count must stay bounded under same-key churn: {mid}"
    );

    // Tombstone + same-key rewrite purges the dead cell from the index;
    // the skip list hands the Arc to the epoch collector.
    rel.remove(&edge(&rel, 1, 1)).unwrap();
    rel.insert(&edge(&rel, 1, 1), &weight(&rel, 7)).unwrap();
    rel.remove(&edge(&rel, 1, 1)).unwrap();
    let rstats = rel.flush_reclamation();
    assert!(
        rstats.retired > r0.retired,
        "dead version cells flow through the epoch collector: {rstats:?}"
    );

    // Dropping the relation frees every remaining chain: the global
    // created/retired balance for this test's serialized window closes.
    let created_before_drop = version_stats().created;
    drop(rel);
    relc_containers::reclamation_flush();
    let end = version_stats();
    assert_eq!(end.created, created_before_drop, "drop creates no versions");
    assert_eq!(
        end.live(),
        v0.live(),
        "relation drop retires every version it ever created: {end}"
    );
}

/// A dead cell that a registered reader pins at its own commit must be
/// reclaimed by a *later* commit's sweep step — not wait for "the
/// next write of the same entry key", which on a value-keyed edge (the
/// weight sink here) may never come. Every update below commits with a
/// reader registered, so its tombstoned old-weight cell always survives
/// its own retirement pass; without the sweep, one dead cell per
/// distinct weight value accumulates and every snapshot scan crawls the
/// corpses (~200x read slowdown in the 95/5 bench before the fix).
#[test]
fn pinned_dead_cells_are_swept_by_later_commits() {
    let _serial = serialize();
    relc_containers::reclamation_flush();
    let v0 = version_stats();

    let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let rel = ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap()).unwrap();
    rel.insert(&edge(&rel, 3, 3), &weight(&rel, 0)).unwrap();
    for i in 1..=400 {
        // Register before the update so this commit's min_active is the
        // reader's (pre-update) snapshot: the weight-(i-1) cell it
        // tombstones is still visible to the reader and must survive
        // this commit. The next iteration's commit sweeps it. The
        // registration must target *this relation's* registry —
        // registries are per relation now.
        let g = rel.snapshots().register(relc_locks::commit_clock());
        rel.update(&edge(&rel, 3, 3), &weight(&rel, i)).unwrap();
        drop(g);
    }
    rel.flush_reclamation();
    let vs = version_stats();
    assert!(
        vs.live() < v0.live() + 32,
        "later commits must sweep reader-pinned dead cells (got {} new live \
         versions; ~400 means the sweep is gone): {vs}",
        vs.live() - v0.live()
    );
    drop(rel);
    relc_containers::reclamation_flush();
}

/// The sweep is bounded, not lost: on a `fine` root index of well over
/// one budget's entries, dead entries that a reader pinned at scattered
/// keys are all reclaimed by later commits that write *other* keys, within
/// ⌈N / 64⌉ + 1 of them — each commit's step takes the next 64 entries of
/// the index round.
#[test]
fn scattered_pinned_corpses_are_reclaimed_within_one_round_of_sweep_steps() {
    let _serial = serialize();
    const ROWS: i64 = 4_096;
    const CORPSES: i64 = 48;
    let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let rel = ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap()).unwrap();
    for s in 0..ROWS {
        rel.insert(&edge(&rel, s, 0), &weight(&rel, s)).unwrap();
    }
    let before = rel.version_footprint();

    // Under a registered reader, move `CORPSES` rows from scattered keys
    // to fresh ones: each old key's root entry is left a pinned tombstone
    // over the version the reader can still see.
    let g = rel.snapshots().register(relc_locks::commit_clock());
    for j in 0..CORPSES {
        let from = j * 89 % ROWS;
        assert_eq!(rel.remove(&edge(&rel, from, 0)).unwrap(), 1);
        assert!(rel
            .insert(&edge(&rel, ROWS + j, 0), &weight(&rel, from))
            .unwrap());
    }
    drop(g);
    assert_eq!(
        rel.version_footprint(),
        before + 2 * CORPSES as usize,
        "every moved row left a two-version corpse"
    );

    // Later commits write the root index at one fresh key each (inserted
    // and removed again: no footprint of their own).
    let entries = (ROWS + CORPSES) as usize;
    let steps = entries.div_ceil(64) + 1;
    let mut reclaimed_after = None;
    for i in 0..steps {
        let key = edge(&rel, 2 * ROWS + i as i64, 0);
        rel.transaction(|tx| {
            tx.insert(&key, &weight(&rel, 0))?;
            tx.remove(&key)
        })
        .unwrap();
        if rel.version_footprint() == before {
            reclaimed_after = Some(i + 1);
            break;
        }
    }
    assert!(
        reclaimed_after.is_some(),
        "{steps} commits left {} unreclaimed versions",
        rel.version_footprint() - before
    );
    assert_eq!(rel.len(), ROWS as usize);
    rel.verify().unwrap();
}

/// A reader registered at an old snapshot pins history: versions it can
/// still see are not truncated under it, and it reads the old value even
/// after hundreds of newer commits.
#[test]
fn registered_reader_pins_its_version() {
    let _serial = serialize();
    let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let rel =
        Arc::new(ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap()).unwrap());
    rel.insert(&edge(&rel, 9, 9), &weight(&rel, 111)).unwrap();
    let wcols = rel.schema().column_set(&["weight"]).unwrap();
    let wcol = rel.schema().column("weight").unwrap();

    rel.read_transaction(|snap| {
        let before = snap.query(&edge(&rel, 9, 9), wcols).unwrap();
        assert_eq!(before[0].get(wcol).and_then(|v| v.as_int()), Some(111));
        // A writer on another thread overwrites the entry many times
        // while this snapshot stays registered.
        let rel2 = Arc::clone(&rel);
        std::thread::spawn(move || {
            for i in 0..300 {
                rel2.update(&edge(&rel2, 9, 9), &weight(&rel2, i)).unwrap();
            }
        })
        .join()
        .unwrap();
        // Still the pinned value, and stable across re-reads.
        let after = snap.query(&edge(&rel, 9, 9), wcols).unwrap();
        assert_eq!(before, after, "registered reader lost its version");
    });
    // A fresh snapshot sees the newest commit.
    let now = rel.read_transaction(|snap| snap.query(&edge(&rel, 9, 9), wcols).unwrap());
    assert_eq!(now[0].get(wcol).and_then(|v| v.as_int()), Some(299));
}

/// Regression: single-shot reads route through `read_transaction`, so a
/// `relB.contains()` inside `relA.read_transaction(..)` registers a
/// second snapshot on the same thread. With the old one-slot-per-thread
/// registry the inner registration overwrote the outer's slot and its
/// guard drop deregistered the still-active outer reader, letting
/// committers retire versions the outer snapshot needed. Each
/// registration now holds its own slot.
#[test]
fn nested_read_does_not_deregister_outer_snapshot() {
    let _serial = serialize();
    let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let rel =
        Arc::new(ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap()).unwrap());
    let other = ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap()).unwrap();
    rel.insert(&edge(&rel, 9, 9), &weight(&rel, 111)).unwrap();
    other
        .insert(&edge(&other, 1, 1), &weight(&other, 1))
        .unwrap();
    let wcols = rel.schema().column_set(&["weight"]).unwrap();
    let wcol = rel.schema().column("weight").unwrap();

    rel.read_transaction(|snap| {
        let before = snap.query(&edge(&rel, 9, 9), wcols).unwrap();
        assert_eq!(before[0].get(wcol).and_then(|v| v.as_int()), Some(111));
        // Nested registration + drop on this thread.
        assert!(other.contains(&edge(&other, 1, 1)).unwrap());
        // Commit-side retirement on another thread must still honor the
        // outer snapshot after the inner guard dropped.
        let rel2 = Arc::clone(&rel);
        std::thread::spawn(move || {
            for i in 0..300 {
                rel2.update(&edge(&rel2, 9, 9), &weight(&rel2, i)).unwrap();
            }
        })
        .join()
        .unwrap();
        let after = snap.query(&edge(&rel, 9, 9), wcols).unwrap();
        assert_eq!(
            before, after,
            "outer snapshot was deregistered by the nested read"
        );
    });
    let now = rel.read_transaction(|snap| snap.query(&edge(&rel, 9, 9), wcols).unwrap());
    assert_eq!(now[0].get(wcol).and_then(|v| v.as_int()), Some(299));
}

/// The new counters surface through the public stats accessors and are
/// non-zero after snapshot traffic: `snapshot_reads` on
/// `LockStats`/sharded aggregation, `versions_created`/`versions_retired`
/// through `version_stats()` on both relation flavors.
#[test]
fn snapshot_counters_surface_through_stats() {
    let _serial = serialize();
    let v0 = version_stats();
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let rel = ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap()).unwrap();
    let s0 = rel.lock_stats().snapshot_reads;
    for k in 0..20 {
        rel.insert(&edge(&rel, k, k), &weight(&rel, k)).unwrap();
        rel.update(&edge(&rel, k, k), &weight(&rel, -k)).unwrap();
    }
    let wcols = rel.schema().column_set(&["weight"]).unwrap();
    for k in 0..20 {
        assert!(!rel.query(&edge(&rel, k, k), wcols).unwrap().is_empty());
        assert!(rel.contains(&edge(&rel, k, k)).unwrap());
    }
    rel.read_transaction(|snap| snap.snapshot().unwrap());
    let stats = rel.lock_stats();
    assert!(
        stats.snapshot_reads >= s0 + 41,
        "single-shot query/contains and read_transaction all count: {stats}"
    );
    let vs = rel.version_stats();
    assert!(vs.created > v0.created, "writers created versions: {vs}");
    assert!(
        vs.retired > v0.retired,
        "updates retired predecessors: {vs}"
    );

    let graph = ShardedRelation::new(d.clone(), LockPlacement::fine(&d).unwrap(), 4).unwrap();
    let schema = graph.schema().clone();
    let key = |s: i64| {
        schema
            .tuple(&[("src", Value::from(s)), ("dst", Value::from(s))])
            .unwrap()
    };
    let w = |v: i64| schema.tuple(&[("weight", Value::from(v))]).unwrap();
    let g0 = graph.lock_stats().snapshot_reads;
    for k in 0..8 {
        graph.insert(&key(k), &w(k)).unwrap();
    }
    graph.snapshot().unwrap(); // fan-out: one registration, N shard reads
    let pat = schema.tuple(&[("src", Value::from(3))]).unwrap();
    assert!(graph.contains(&pat).unwrap());
    assert!(
        graph.lock_stats().snapshot_reads > g0,
        "sharded aggregation surfaces snapshot reads: {}",
        graph.lock_stats()
    );
    assert!(graph.version_stats().created > v0.created);
}

/// `verify()` must stay linear in the instance count: its three walks
/// (structure, version chains, footprint) each remember the instances they
/// visited, and with a list for that memory a 32,768-edge `split` graph —
/// 4,096 `u`/`v` and 65,536 `w`/`y` instances, the benchmark's
/// `graph_read_mostly` — took 40 s to verify. The graph is churned first
/// so the walk meets both index shapes in every state a commit leaves
/// them in: rewritten and emptied one-chain indexes (`w→x`, `y→z`),
/// unlinked and re-linked map entries (`u→w`, `v→y`), and — under a
/// registered reader — chains more than one version deep, whose
/// mirror-completeness check has to resolve past the pinned versions.
#[test]
fn verify_walks_a_benchmark_sized_graph_in_linear_time() {
    let _serial = serialize();
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let rel =
        ConcurrentRelation::new(d.clone(), LockPlacement::striped_root(&d, 1024).unwrap()).unwrap();
    let nodes = 4_096i64;
    let rows: Vec<(i64, i64)> = (0..nodes)
        .flat_map(|n| (0..8).map(move |k| (n, (n + k * 523) % nodes)))
        .collect();
    for &(s, t) in &rows {
        assert!(rel.insert(&edge(&rel, s, t), &weight(&rel, s ^ t)).unwrap());
    }
    let pin = rel.snapshots().register(relc_locks::commit_clock());
    for (i, &(s, t)) in rows.iter().enumerate().filter(|(i, _)| i % 16 == 3) {
        match i % 3 {
            0 => drop(rel.update(&edge(&rel, s, t), &weight(&rel, -1)).unwrap()),
            1 => drop(rel.remove(&edge(&rel, s, t)).unwrap()),
            _ => {
                rel.remove(&edge(&rel, s, t)).unwrap();
                rel.insert(&edge(&rel, s, t), &weight(&rel, -2)).unwrap();
            }
        }
    }
    let removed = rows
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 16 == 3 && i % 3 == 1);
    let expected = rows.len() - removed.count();
    let pinned_footprint = rel.version_footprint();
    assert!(
        pinned_footprint > 2 * expected + rows.len() / 16,
        "the registered reader pins the churned entries' old versions: {pinned_footprint}"
    );

    let start = std::time::Instant::now();
    assert_eq!(rel.verify().unwrap().len(), expected);
    drop(pin);
    // No reader left: this pass compacts every chain to one version and
    // drops what the removes left behind, in both shapes.
    assert_eq!(rel.verify().unwrap().len(), expected);
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(20),
        "two verify() passes over {} rows took {elapsed:?}",
        rows.len()
    );
    // `ρ→u`, `u→w`, `w→x` and their mirror images: 2 root entries per
    // node and 4 entries per row, one version each.
    assert_eq!(rel.version_footprint(), 2 * nodes as usize + 4 * expected);
}
