//! Batched operation tests: `insert_all` / `remove_all` must be the
//! *atomic, amortized* form of the sequential per-op fold — differentially
//! checked against per-op loops and the §2 oracle, including duplicate
//! keys inside one batch, whole-batch aborts on poisoned rows, forced
//! mid-batch restarts, and contention against single-op writers.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use relc::decomp::library::{diamond, split, stick};
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, CoreError, Decomposition};
use relc_containers::ContainerKind;
use relc_spec::{OracleRelation, SpecError, Tuple, Value};

mod support;

fn variants() -> Vec<(String, Arc<ConcurrentRelation>)> {
    let mut out: Vec<(String, Arc<ConcurrentRelation>)> = Vec::new();
    let decomps: Vec<Arc<Decomposition>> = vec![
        stick(ContainerKind::HashMap, ContainerKind::TreeMap),
        stick(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
        split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
        split(ContainerKind::ConcurrentSkipListMap, ContainerKind::TreeMap),
        diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
        diamond(
            ContainerKind::ConcurrentHashMap,
            ContainerKind::CopyOnWriteArrayList,
        ),
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

fn with_watchdog(secs: u64, name: String, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("watchdog: {name} did not finish (deadlock?)"));
}

/// `insert_all` / `remove_all` must observably equal the sequential per-op
/// fold: differential against a per-op-driven twin relation *and* the §2
/// oracle, over pseudo-random batches with duplicate keys inside batches.
#[test]
fn batch_ops_match_per_op_fold_across_variants() {
    for (name, rel) in variants() {
        // The twin is driven per-op on the same decomposition/placement.
        let twin =
            ConcurrentRelation::new(rel.decomposition().clone(), rel.placement().clone()).unwrap();
        let oracle = OracleRelation::empty(rel.schema().clone());
        let mut x = 0xfeed_5eed_u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..60 {
            let len = (step() % 6) as usize + 1;
            if step() % 3 == 0 {
                let keys: Vec<Tuple> = (0..len)
                    .map(|_| edge(&rel, (step() % 5) as i64, (step() % 5) as i64))
                    .collect();
                let got = rel.remove_all(&keys).unwrap();
                let mut want_twin = Vec::with_capacity(keys.len());
                let mut want_oracle = Vec::with_capacity(keys.len());
                for k in &keys {
                    want_twin.push(twin.remove(k).unwrap() == 1);
                    want_oracle.push(oracle.remove(k) == 1);
                }
                assert_eq!(
                    got, want_twin,
                    "remove_all vs twin on {name} (round {round})"
                );
                assert_eq!(got, want_oracle, "remove_all vs oracle on {name}");
            } else {
                // Small key range: duplicates inside one batch are common.
                let rows: Vec<(Tuple, Tuple)> = (0..len)
                    .map(|_| {
                        (
                            edge(&rel, (step() % 5) as i64, (step() % 5) as i64),
                            weight(&rel, (step() % 4) as i64),
                        )
                    })
                    .collect();
                let got = rel.insert_all(&rows).unwrap();
                let want_twin: Vec<bool> = rows
                    .iter()
                    .map(|(s, t)| twin.insert(s, t).unwrap())
                    .collect();
                let want_oracle: Vec<bool> = rows
                    .iter()
                    .map(|(s, t)| oracle.insert(s, t).unwrap())
                    .collect();
                assert_eq!(
                    got, want_twin,
                    "insert_all vs twin on {name} (round {round})"
                );
                assert_eq!(got, want_oracle, "insert_all vs oracle on {name}");
            }
            assert_eq!(rel.len(), oracle.len(), "len on {name}");
        }
        let got = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let twin_got = twin.verify().unwrap_or_else(|e| panic!("{name} twin: {e}"));
        let want: std::collections::BTreeSet<Tuple> = oracle.snapshot().into_iter().collect();
        assert_eq!(got, want, "final contents on {name}");
        assert_eq!(twin_got, want, "twin final contents on {name}");
    }
}

/// Duplicate patterns inside one batch: the first occurrence wins, later
/// ones report `false` — and only one tuple lands.
#[test]
fn duplicate_keys_in_one_batch_first_wins() {
    for (name, rel) in variants() {
        let rows = vec![
            (edge(&rel, 1, 2), weight(&rel, 10)),
            (edge(&rel, 3, 4), weight(&rel, 20)),
            (edge(&rel, 1, 2), weight(&rel, 99)),
            (edge(&rel, 1, 2), weight(&rel, 98)),
        ];
        let results = rel.insert_all(&rows).unwrap();
        assert_eq!(results, vec![true, true, false, false], "{name}");
        assert_eq!(rel.len(), 2, "{name}");
        let wcol = rel.schema().column("weight").unwrap();
        let wc = rel.schema().column_set(&["weight"]).unwrap();
        let got = rel.query(&edge(&rel, 1, 2), wc).unwrap();
        assert_eq!(got.len(), 1, "{name}");
        assert_eq!(
            got[0].get(wcol),
            Some(&Value::from(10)),
            "{name}: the first row's payload must win"
        );
        // Duplicate keys in a removal batch remove once, and the per-key
        // outcomes say which occurrence won (and which keys were absent).
        let removed = rel
            .remove_all(&[
                edge(&rel, 1, 2),
                edge(&rel, 1, 2),
                edge(&rel, 3, 4),
                edge(&rel, 7, 7),
            ])
            .unwrap();
        assert_eq!(removed, vec![true, false, true, false], "{name}");
        assert!(rel.is_empty(), "{name}");
        rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// A poisoned row anywhere in the batch aborts the whole batch before any
/// effect: the relation is bit-identical to its pre-batch state.
#[test]
fn poisoned_batch_aborts_whole_batch() {
    for (name, rel) in variants() {
        rel.insert(&edge(&rel, 9, 9), &weight(&rel, 1)).unwrap();
        let before = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let len_before = rel.len();
        // Overlapping s/t domains: an FD-shape violation caught by
        // validation — but only in the *last* row, after valid ones.
        let poison_t = rel
            .schema()
            .tuple(&[("dst", Value::from(2)), ("weight", Value::from(3))])
            .unwrap();
        let rows = vec![
            (edge(&rel, 1, 2), weight(&rel, 10)),
            (edge(&rel, 3, 4), weight(&rel, 20)),
            (edge(&rel, 5, 6), poison_t),
        ];
        let err = rel.insert_all(&rows).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Spec(SpecError::OverlappingInsertDomains { .. })
            ),
            "{name}: {err}"
        );
        // Partial tuples poison the batch the same way.
        let partial = vec![
            (edge(&rel, 1, 2), weight(&rel, 10)),
            (
                rel.schema().tuple(&[("src", Value::from(5))]).unwrap(),
                weight(&rel, 3),
            ),
        ];
        assert!(matches!(
            rel.insert_all(&partial).unwrap_err(),
            CoreError::Spec(SpecError::NotAValuation { .. })
        ));
        // A non-key pattern poisons a removal batch.
        let bad_key = rel.schema().tuple(&[("dst", Value::from(2))]).unwrap();
        assert!(matches!(
            rel.remove_all(&[edge(&rel, 9, 9), bad_key]).unwrap_err(),
            CoreError::Spec(SpecError::RemoveNotByKey { .. })
        ));
        let after = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(after, before, "{name}: poisoned batches must be no-ops");
        assert_eq!(rel.len(), len_before, "{name}");
    }
}

/// An abort *after* a batch inside a transaction rolls back every row of
/// the batch, with everything else the attempt wrote.
#[test]
fn aborted_transaction_rolls_back_whole_batch() {
    for (name, rel) in variants() {
        rel.insert(&edge(&rel, 0, 0), &weight(&rel, 5)).unwrap();
        let before = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let err = rel
            .transaction(|tx| -> Result<(), relc::TxnError> {
                let rows = vec![
                    (edge(&rel, 1, 1), weight(&rel, 1)),
                    (edge(&rel, 2, 2), weight(&rel, 2)),
                    (edge(&rel, 3, 3), weight(&rel, 3)),
                ];
                assert_eq!(tx.insert_all(&rows)?, vec![true, true, true]);
                // Read-your-writes: the batch is visible inside the txn.
                assert!(tx.contains(&edge(&rel, 2, 2))?);
                assert_eq!(
                    tx.remove_all(&[edge(&rel, 0, 0), edge(&rel, 1, 1)])?,
                    vec![true, true]
                );
                Err(tx.abort("poisoned"))
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::TransactionAborted(_)), "{name}");
        let after = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(after, before, "{name}: rollback must be exact");
        assert_eq!(rel.len(), 1, "{name}");
    }
}

/// A shared→exclusive upgrade *after* a query, contended by a second
/// reader of the same lock, forces the whole closure — including an
/// already-applied batch — to roll back and re-run; the committed state is
/// the second run's.
#[test]
fn forced_mid_transaction_restart_replays_batch() {
    let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
    let p = LockPlacement::coarse(&d).unwrap();
    let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
    let dw = d.schema().column_set(&["dst", "weight"]).unwrap();
    let src1 = d.schema().tuple(&[("src", Value::from(1))]).unwrap();
    let runs = AtomicU32::new(0);
    let hold = |wait: &dyn Fn()| {
        rel.transaction(|tx| {
            tx.query(&src1, dw)?;
            wait();
            Ok(())
        })
        .unwrap()
    };
    let results = support::with_second_reader(&runs, hold, || {
        rel.transaction(|tx| {
            let run = runs.fetch_add(1, Ordering::AcqRel) + 1;
            // Shared locks first...
            let succ = tx.query(&src1, dw)?;
            assert!(succ.is_empty() || run > 1);
            // ...then a batch needing exclusive access: first run restarts.
            tx.insert_all(&[
                (
                    d.schema()
                        .tuple(&[("src", Value::from(1)), ("dst", Value::from(2))])
                        .unwrap(),
                    d.schema().tuple(&[("weight", Value::from(7))]).unwrap(),
                ),
                (
                    d.schema()
                        .tuple(&[("src", Value::from(1)), ("dst", Value::from(3))])
                        .unwrap(),
                    d.schema().tuple(&[("weight", Value::from(8))]).unwrap(),
                ),
            ])
        })
        .unwrap()
    });
    assert_eq!(results, vec![true, true]);
    assert_eq!(
        runs.load(Ordering::Acquire),
        2,
        "the upgrade must force exactly one re-run"
    );
    assert_eq!(rel.len(), 2);
    rel.verify().unwrap();
}

/// Batch writers racing single-op writers and readers over a small shared
/// keyspace: put-if-absent winners stay unique per key, rollback/restart
/// machinery keeps the structure sound, and everything terminates.
#[test]
fn batch_contention_stress_against_single_op_writers() {
    for (name, rel) in variants() {
        let rel2 = rel.clone();
        with_watchdog(120, name.clone(), move || {
            let threads = 8usize;
            let keyspace = 6i64;
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
                        for _ in 0..60 {
                            let mk = |n: &mut dyn FnMut() -> u64| {
                                (
                                    ((*n)() % keyspace as u64) as i64,
                                    ((*n)() % keyspace as u64) as i64,
                                )
                            };
                            match tid % 2 {
                                0 => {
                                    // Batch writer: insert a 4-row batch,
                                    // then remove a (different) 4-key batch.
                                    let rows: Vec<(Tuple, Tuple)> = (0..4)
                                        .map(|_| {
                                            let (a, b) = mk(&mut next);
                                            (edge(&rel, a, b), weight(&rel, (next() % 8) as i64))
                                        })
                                        .collect();
                                    rel.insert_all(&rows).unwrap();
                                    let keys: Vec<Tuple> = (0..4)
                                        .map(|_| {
                                            let (a, b) = mk(&mut next);
                                            edge(&rel, a, b)
                                        })
                                        .collect();
                                    rel.remove_all(&keys).unwrap();
                                }
                                _ => {
                                    // Single-op writer/reader.
                                    let (a, b) = mk(&mut next);
                                    let _ =
                                        rel.insert(&edge(&rel, a, b), &weight(&rel, 1)).unwrap();
                                    let pat =
                                        rel.schema().tuple(&[("src", Value::from(a))]).unwrap();
                                    match rel.query(&pat, dw) {
                                        Ok(_) | Err(CoreError::NoValidPlan(_)) => {}
                                        Err(e) => panic!("{e}"),
                                    }
                                    let _ = rel.remove(&edge(&rel, a, b)).unwrap();
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
        // Quiescent: structurally perfect, and every surviving key unique.
        rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// A mid-transaction insert materializes fresh node instances and a later
/// *shared* read of the same transaction traverses them, taking their
/// locks shared. Rollback unlinks them anyway: it acquires nothing, so
/// there is no upgrade for it to trip over. (Historically a regression
/// test: rollback by compensating unlink needed those locks exclusively.)
#[test]
fn insert_then_shared_read_then_abort_rolls_back() {
    for (name, rel) in variants() {
        let before = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let err = rel
            .transaction(|tx| -> Result<(), relc::TxnError> {
                assert!(tx.insert(&edge(&rel, 4, 5), &weight(&rel, 1))?);
                // Shared locks over the freshly built subtree.
                assert!(tx.contains(&edge(&rel, 4, 5))?);
                Err(tx.abort("change of plans"))
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::TransactionAborted(_)), "{name}");
        let after = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(after, before, "{name}: rollback must be exact");
    }
}

/// Mixed-shape batches fall back to the per-row path but keep the exact
/// fold semantics (a full-tuple pattern can collide with an earlier
/// key-pattern row's tuple).
#[test]
fn mixed_shape_batches_keep_fold_semantics() {
    let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
    let p = LockPlacement::coarse(&d).unwrap();
    let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
    let full = edge(&rel, 1, 2).union(&weight(&rel, 10)).unwrap();
    let rows = vec![
        (edge(&rel, 1, 2), weight(&rel, 10)),
        // Full-tuple pattern, empty payload: extends the first row's tuple.
        (full, Tuple::empty()),
        (edge(&rel, 3, 4), weight(&rel, 20)),
    ];
    assert_eq!(rel.insert_all(&rows).unwrap(), vec![true, false, true]);
    assert_eq!(rel.len(), 2);
    // Mixed-shape removals: full tuple key and (src, dst) key.
    let removed = rel
        .remove_all(&[
            edge(&rel, 3, 4).union(&weight(&rel, 20)).unwrap(),
            edge(&rel, 1, 2),
        ])
        .unwrap();
    assert_eq!(removed, vec![true, true]);
    assert!(rel.is_empty());
    rel.verify().unwrap();
}

/// Empty batches are no-ops.
#[test]
fn empty_batches_are_noops() {
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let p = LockPlacement::fine(&d).unwrap();
    let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
    assert_eq!(rel.insert_all(&[]).unwrap(), Vec::<bool>::new());
    assert_eq!(rel.remove_all(&[]).unwrap(), Vec::<bool>::new());
    assert!(rel.is_empty());
    rel.verify().unwrap();
}
