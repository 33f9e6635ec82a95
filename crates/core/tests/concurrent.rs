//! Multi-threaded correctness tests for synthesized concurrent relations:
//! linearizability (checked histories), put-if-absent atomicity, structural
//! integrity under contention, and deadlock freedom (watchdogged).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use relc::decomp::library::{diamond, split, stick};
use relc::lincheck::{check_linearizable, HistoryRecorder, OpRecord};
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, Decomposition};
use relc_containers::ContainerKind;
use relc_spec::{Tuple, Value};

fn variants() -> Vec<(String, Arc<ConcurrentRelation>)> {
    let mut out: Vec<(String, Arc<ConcurrentRelation>)> = Vec::new();
    let decomps: Vec<Arc<Decomposition>> = vec![
        stick(ContainerKind::HashMap, ContainerKind::TreeMap),
        stick(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
        split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
        split(ContainerKind::ConcurrentSkipListMap, ContainerKind::TreeMap),
        diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
    ];
    for d in decomps {
        for p in [
            LockPlacement::coarse(&d).ok(),
            LockPlacement::fine(&d).ok(),
            LockPlacement::striped_root(&d, 16).ok(),
            LockPlacement::speculative(&d, 8).ok(),
        ]
        .into_iter()
        .flatten()
        {
            let name = format!("{} / {}", d.describe(), p.name());
            out.push((
                name,
                Arc::new(ConcurrentRelation::new(d.clone(), p).unwrap()),
            ));
        }
    }
    out
}

fn edge(rel: &ConcurrentRelation, s: i64, d: i64) -> Tuple {
    rel.schema()
        .tuple(&[("src", Value::from(s)), ("dst", Value::from(d))])
        .unwrap()
}

fn weight(rel: &ConcurrentRelation, w: i64) -> Tuple {
    rel.schema().tuple(&[("weight", Value::from(w))]).unwrap()
}

/// Runs `f` under a watchdog; panics if it does not finish in time
/// (deadlock/livelock detector).
fn with_watchdog(secs: u64, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("watchdog: concurrent test did not finish (deadlock?)");
}

#[test]
fn put_if_absent_has_exactly_one_winner_per_key() {
    for (name, rel) in variants() {
        let threads = 8;
        let keys = 16i64;
        let barrier = Arc::new(Barrier::new(threads));
        let wins = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..threads as i64)
            .map(|tid| {
                let rel = rel.clone();
                let barrier = barrier.clone();
                let wins = wins.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for k in 0..keys {
                        // Every thread tries to insert (k, k) with its own
                        // weight; put-if-absent must admit exactly one.
                        if rel.insert(&edge(&rel, k, k), &weight(&rel, tid)).unwrap() {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            wins.load(Ordering::Relaxed),
            keys as usize,
            "exactly one winner per key on {name}"
        );
        assert_eq!(rel.len(), keys as usize, "{name}");
        // Each edge's weight identifies a single coherent winner.
        let wcol = rel.schema().column_set(&["weight"]).unwrap();
        for k in 0..keys {
            let got = rel.query(&edge(&rel, k, k), wcol).unwrap();
            assert_eq!(got.len(), 1, "{name}");
        }
        rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn structural_integrity_under_contended_mixed_ops() {
    for (name, rel) in variants() {
        let rel2 = rel.clone();
        let _name2 = name.clone();
        with_watchdog(120, move || {
            let threads = 8;
            let ops = 400;
            let keyspace = 8i64; // small: maximum contention
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads as u64)
                .map(|tid| {
                    let rel = rel2.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        let mut x = (tid + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        let mut next = move || {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x
                        };
                        barrier.wait();
                        let dw = rel.schema().column_set(&["dst", "weight"]).unwrap();
                        let sw = rel.schema().column_set(&["src", "weight"]).unwrap();
                        for _ in 0..ops {
                            let s = (next() % keyspace as u64) as i64;
                            let d = (next() % keyspace as u64) as i64;
                            let w = (next() % 4) as i64;
                            match next() % 4 {
                                0 => {
                                    let _ = rel.insert(&edge(&rel, s, d), &weight(&rel, w));
                                }
                                1 => {
                                    let _ = rel.remove(&edge(&rel, s, d));
                                }
                                2 => {
                                    let pat =
                                        rel.schema().tuple(&[("src", Value::from(s))]).unwrap();
                                    match rel.query(&pat, dw) {
                                        Ok(res) => {
                                            // Every result extends the pattern's columns.
                                            for t in res {
                                                assert!(t.dom() == dw);
                                            }
                                        }
                                        Err(relc::CoreError::NoValidPlan(_)) => {}
                                        Err(e) => panic!("{e}"),
                                    }
                                }
                                _ => {
                                    let pat =
                                        rel.schema().tuple(&[("dst", Value::from(d))]).unwrap();
                                    match rel.query(&pat, sw) {
                                        Ok(_) => {}
                                        Err(relc::CoreError::NoValidPlan(_)) => {}
                                        Err(e) => panic!("{e}"),
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        // Quiescent: the instance must be structurally perfect, and the
        // lock-free tuple counter must agree with the real contents —
        // any drift (a delta applied for a rolled-back op, or dropped by
        // a poisoned batch) is a bug even if no single observable caught
        // it mid-run.
        let snap = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            rel.len(),
            snap.len(),
            "{name}: len() must equal snapshot().len() at quiescence"
        );
    }
}

#[test]
fn small_histories_are_linearizable() {
    // Exhaustive Wing–Gong checking of many short concurrent histories on
    // the most interesting placements (striped + speculative), where lock
    // placement bugs would manifest as non-linearizable results.
    let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let placements = vec![
        LockPlacement::fine(&d).unwrap(),
        LockPlacement::striped_root(&d, 4).unwrap(),
        LockPlacement::speculative(&d, 4).unwrap(),
    ];
    for p in placements {
        for round in 0..30u64 {
            let rel = Arc::new(ConcurrentRelation::new(d.clone(), p.clone()).unwrap());
            let rec = HistoryRecorder::new();
            let threads = 3;
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
                            match next() % 3 {
                                0 => rec.record(|| {
                                    let r =
                                        rel.insert(&edge(&rel, s, dd), &weight(&rel, w)).unwrap();
                                    (
                                        (),
                                        OpRecord::Insert {
                                            s: edge(&rel, s, dd),
                                            t: weight(&rel, w),
                                            result: r,
                                        },
                                    )
                                }),
                                1 => rec.record(|| {
                                    let r = rel.remove(&edge(&rel, s, dd)).unwrap();
                                    (
                                        (),
                                        OpRecord::Remove {
                                            s: edge(&rel, s, dd),
                                            result: r,
                                        },
                                    )
                                }),
                                _ => {
                                    let cols = rel.schema().column_set(&["dst", "weight"]).unwrap();
                                    rec.record(|| {
                                        let pat =
                                            rel.schema().tuple(&[("src", Value::from(s))]).unwrap();
                                        let r = rel.query(&pat, cols).unwrap();
                                        (
                                            (),
                                            OpRecord::Query {
                                                s: pat,
                                                cols,
                                                result: r,
                                            },
                                        )
                                    })
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
                "non-linearizable history on {} (round {round}): {history:#?}",
                rel.placement().name()
            );
        }
    }
}

/// Bank-transfer stress: concurrent multi-operation transactions moving
/// value between keys must conserve the total — any lost update, partial
/// commit, or unrolled-back restart breaks the sum. Exercises rollback
/// hard: transactions restart mid-flight with effects already applied.
#[test]
fn concurrent_transfers_conserve_the_total() {
    for (name, rel) in variants() {
        let keys = 4i64;
        let initial = 100i64;
        for k in 0..keys {
            rel.insert(&edge(&rel, k, k), &weight(&rel, initial))
                .unwrap();
        }
        let rel2 = rel.clone();
        let name2 = name.clone();
        with_watchdog(120, move || {
            let threads = 6;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads as u64)
                .map(|tid| {
                    let rel = rel2.clone();
                    let barrier = barrier.clone();
                    let name = name2.clone();
                    std::thread::spawn(move || {
                        let wcol = rel.schema().column("weight").unwrap();
                        let wcols = rel.schema().column_set(&["weight"]).unwrap();
                        let mut x = (tid + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        let mut next = move || {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x
                        };
                        barrier.wait();
                        for i in 0..120 {
                            let a = (next() % 4) as i64;
                            let b = (next() % 4) as i64;
                            if a == b {
                                continue;
                            }
                            let amt = (next() % 5) as i64;
                            if i % 2 == 0 {
                                // Remove/re-insert shape: 4 ops, all
                                // exclusive from the start.
                                rel.transaction(|tx| {
                                    let ta = tx
                                        .remove_returning(&edge(&rel, a, a))?
                                        .expect("account a exists");
                                    let tb = tx
                                        .remove_returning(&edge(&rel, b, b))?
                                        .expect("account b exists");
                                    let wa = ta.get(wcol).and_then(|v| v.as_int()).unwrap();
                                    let wb = tb.get(wcol).and_then(|v| v.as_int()).unwrap();
                                    tx.insert(&edge(&rel, a, a), &weight(&rel, wa - amt))?;
                                    tx.insert(&edge(&rel, b, b), &weight(&rel, wb + amt))?;
                                    Ok(())
                                })
                                .unwrap_or_else(|e| panic!("{name}: {e}"));
                            } else {
                                // Read-then-update shape: shared locks
                                // first, upgraded by the updates.
                                rel.transaction(|tx| {
                                    let qa = tx.query(&edge(&rel, a, a), wcols)?;
                                    let qb = tx.query(&edge(&rel, b, b), wcols)?;
                                    assert!(
                                        !qa.is_empty() && !qb.is_empty(),
                                        "{name}: key vanished mid-history: a={qa:?} b={qb:?}"
                                    );
                                    let wa = qa[0].get(wcol).and_then(|v| v.as_int()).unwrap();
                                    let wb = qb[0].get(wcol).and_then(|v| v.as_int()).unwrap();
                                    tx.update(&edge(&rel, a, a), &weight(&rel, wa - amt))?;
                                    tx.update(&edge(&rel, b, b), &weight(&rel, wb + amt))?;
                                    Ok(())
                                })
                                .unwrap_or_else(|e| panic!("{name}: {e}"));
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let snap = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(snap.len(), keys as usize, "{name}");
        let wcol = rel.schema().column("weight").unwrap();
        let total: i64 = snap
            .iter()
            .map(|t| t.get(wcol).and_then(|v| v.as_int()).unwrap())
            .sum();
        assert_eq!(
            total,
            keys * initial,
            "{name}: transfers must conserve the sum"
        );
        assert_eq!(rel.len(), keys as usize, "{name}");
        let stats = rel.lock_stats();
        assert!(stats.commits > 0, "{name}: {stats}");
        assert_eq!(stats.user_rollbacks, 0, "{name}: no aborts here: {stats}");
    }
}

/// Wing–Gong checking of short concurrent histories that include
/// *multi-operation transactions* (recorded as single `Txn` events):
/// each transaction must be one linearization point.
#[test]
fn small_transaction_histories_are_linearizable() {
    let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let placements = vec![
        LockPlacement::fine(&d).unwrap(),
        LockPlacement::striped_root(&d, 4).unwrap(),
        LockPlacement::speculative(&d, 4).unwrap(),
    ];
    for p in placements {
        for round in 0..20u64 {
            let rel = Arc::new(ConcurrentRelation::new(d.clone(), p.clone()).unwrap());
            let rec = HistoryRecorder::new();
            let threads = 3;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads as u64)
                .map(|tid| {
                    let rel = rel.clone();
                    let rec = rec.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        let mut x = (round + 1) * (tid + 3) * 0x9e37_79b9;
                        let mut next = move || {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x
                        };
                        barrier.wait();
                        for _ in 0..3 {
                            let s = (next() % 2) as i64;
                            let dd = (next() % 2) as i64;
                            let w = (next() % 3) as i64;
                            match next() % 3 {
                                0 => {
                                    // insert + update of the same key in
                                    // one transaction.
                                    rec.record(|| {
                                        let mut ops = Vec::new();
                                        rel.transaction(|tx| {
                                            ops.clear();
                                            let ins =
                                                tx.insert(&edge(&rel, s, dd), &weight(&rel, w))?;
                                            ops.push(OpRecord::Insert {
                                                s: edge(&rel, s, dd),
                                                t: weight(&rel, w),
                                                result: ins,
                                            });
                                            let upd = tx
                                                .update(&edge(&rel, s, dd), &weight(&rel, w + 1))?;
                                            ops.push(OpRecord::Update {
                                                s: edge(&rel, s, dd),
                                                t: weight(&rel, w + 1),
                                                result: upd,
                                            });
                                            Ok(())
                                        })
                                        .unwrap();
                                        ((), OpRecord::Txn { ops })
                                    });
                                }
                                1 => {
                                    // Move the edge to the transposed key.
                                    rec.record(|| {
                                        let mut ops = Vec::new();
                                        rel.transaction(|tx| {
                                            ops.clear();
                                            let removed =
                                                tx.remove_returning(&edge(&rel, s, dd))?;
                                            ops.push(OpRecord::Remove {
                                                s: edge(&rel, s, dd),
                                                result: usize::from(removed.is_some()),
                                            });
                                            if let Some(u) = removed {
                                                let wcol = tx.schema().column("weight").unwrap();
                                                let wv =
                                                    u.get(wcol).and_then(|v| v.as_int()).unwrap();
                                                let ins = tx.insert(
                                                    &edge(&rel, dd, s),
                                                    &weight(&rel, wv),
                                                )?;
                                                ops.push(OpRecord::Insert {
                                                    s: edge(&rel, dd, s),
                                                    t: weight(&rel, wv),
                                                    result: ins,
                                                });
                                            }
                                            Ok(())
                                        })
                                        .unwrap();
                                        ((), OpRecord::Txn { ops })
                                    });
                                }
                                _ => {
                                    let cols = rel.schema().column_set(&["dst", "weight"]).unwrap();
                                    rec.record(|| {
                                        let pat =
                                            rel.schema().tuple(&[("src", Value::from(s))]).unwrap();
                                        let r = rel.query(&pat, cols).unwrap();
                                        (
                                            (),
                                            OpRecord::Query {
                                                s: pat,
                                                cols,
                                                result: r,
                                            },
                                        )
                                    });
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
                "non-linearizable transaction history on {} (round {round}): {history:#?}",
                rel.placement().name()
            );
            rel.verify().unwrap();
        }
    }
}

/// Wing–Gong checking of short concurrent histories that mix batched
/// operations (`insert_all` / `remove_all`, recorded as single `InsertAll`
/// / `RemoveAll` events), single ops, and in-place updates: every batch
/// must be one linearization point whose per-row results are the
/// sequential put-if-absent / removal fold.
#[test]
fn batch_histories_are_linearizable() {
    let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let placements = vec![
        LockPlacement::coarse(&d).unwrap(),
        LockPlacement::fine(&d).unwrap(),
        LockPlacement::striped_root(&d, 4).unwrap(),
        LockPlacement::speculative(&d, 4).unwrap(),
    ];
    for p in placements {
        for round in 0..20u64 {
            let rel = Arc::new(ConcurrentRelation::new(d.clone(), p.clone()).unwrap());
            let rec = HistoryRecorder::new();
            let threads = 3;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads as u64)
                .map(|tid| {
                    let rel = rel.clone();
                    let rec = rec.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        let mut x = (round + 1) * (tid + 5) * 0x9e37_79b9;
                        let mut next = move || {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x
                        };
                        barrier.wait();
                        for _ in 0..3 {
                            let s = (next() % 2) as i64;
                            let dd = (next() % 2) as i64;
                            let w = (next() % 3) as i64;
                            match next() % 4 {
                                0 => {
                                    // A batch with an intentional duplicate
                                    // pattern: the fold must report it false.
                                    let rows = vec![
                                        (edge(&rel, s, dd), weight(&rel, w)),
                                        (edge(&rel, dd, s), weight(&rel, w + 1)),
                                        (edge(&rel, s, dd), weight(&rel, w + 2)),
                                    ];
                                    rec.record(|| {
                                        let results = rel.insert_all(&rows).unwrap();
                                        ((), OpRecord::InsertAll { rows, results })
                                    });
                                }
                                1 => {
                                    let keys = vec![edge(&rel, s, dd), edge(&rel, 1 - s, 1 - dd)];
                                    rec.record(|| {
                                        let results = rel.remove_all(&keys).unwrap();
                                        ((), OpRecord::RemoveAll { keys, results })
                                    });
                                }
                                2 => {
                                    rec.record(|| {
                                        let r = rel
                                            .update(&edge(&rel, s, dd), &weight(&rel, w))
                                            .unwrap();
                                        (
                                            (),
                                            OpRecord::Update {
                                                s: edge(&rel, s, dd),
                                                t: weight(&rel, w),
                                                result: r,
                                            },
                                        )
                                    });
                                }
                                _ => {
                                    let cols = rel.schema().column_set(&["dst", "weight"]).unwrap();
                                    rec.record(|| {
                                        let pat =
                                            rel.schema().tuple(&[("src", Value::from(s))]).unwrap();
                                        let r = rel.query(&pat, cols).unwrap();
                                        (
                                            (),
                                            OpRecord::Query {
                                                s: pat,
                                                cols,
                                                result: r,
                                            },
                                        )
                                    });
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
                "non-linearizable batch history on {} (round {round}): {history:#?}",
                rel.placement().name()
            );
            let snap = rel.verify().unwrap();
            assert_eq!(
                rel.len(),
                snap.len(),
                "len() must equal snapshot().len() at quiescence"
            );
        }
    }
}

#[test]
fn len_is_exact_after_quiescence() {
    for (name, rel) in variants().into_iter().take(6) {
        let threads = 4;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads as i64)
            .map(|tid| {
                let rel = rel.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for k in 0..50i64 {
                        // Thread-disjoint keys: all inserts must win.
                        assert!(rel
                            .insert(&edge(&rel, tid * 1000 + k, k), &weight(&rel, k))
                            .unwrap());
                    }
                    for k in 0..25i64 {
                        assert_eq!(rel.remove(&edge(&rel, tid * 1000 + k, k)).unwrap(), 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rel.len(), threads * 25, "{name}");
        let snap = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(snap.len(), threads * 25, "{name}");
    }
}
