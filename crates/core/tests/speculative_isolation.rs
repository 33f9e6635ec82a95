//! Isolation regressions under the §4.5 speculative placement, where
//! readers guess through *unlocked* lookups: a transaction that removes
//! and re-creates the same key must never expose a half-built or
//! half-unlinked instance to a speculative reader, and a batch that aborts
//! must never expose any of its rows. Historically caught
//! two bugs: insert publishing the root link before the subtree was
//! complete, and the engine treating a re-created instance's fresh
//! physical lock as covered by the dead object's token. The same suite
//! races the journal rollback of aborted attempts against those readers.

use std::sync::{Arc, Barrier};

use relc::decomp::library::split;
use relc::placement::LockPlacement;
use relc::ConcurrentRelation;
use relc_containers::ContainerKind;
use relc_spec::{RelationSchema, Tuple, Value};

fn key(sch: &RelationSchema, s: i64) -> Tuple {
    sch.tuple(&[("src", Value::from(s)), ("dst", Value::from(s))])
        .unwrap()
}

fn w(sch: &RelationSchema, v: i64) -> Tuple {
    sch.tuple(&[("weight", Value::from(v))]).unwrap()
}

#[test]
fn reader_never_sees_key_vanish() {
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let p = LockPlacement::speculative(&d, 8).unwrap();
    let rel = Arc::new(ConcurrentRelation::new(d.clone(), p).unwrap());
    let sch = d.schema().clone();
    rel.insert(&key(&sch, 1), &w(&sch, 100)).unwrap();
    rel.insert(&key(&sch, 2), &w(&sch, 100)).unwrap();
    let barrier = Arc::new(Barrier::new(2));
    let wcols = sch.column_set(&["weight"]).unwrap();

    let writer = {
        let rel = rel.clone();
        let barrier = barrier.clone();
        let sch = sch.clone();
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..30000i64 {
                rel.transaction(|tx| {
                    let a = tx
                        .remove_returning(&key(&sch, 2))?
                        .expect("writer owns key 2");
                    let _ = a;
                    tx.insert(&key(&sch, 2), &w(&sch, i))?;
                    Ok(())
                })
                .unwrap();
            }
        })
    };
    let reader = {
        let rel = rel.clone();
        let barrier = barrier.clone();
        let sch = sch.clone();
        std::thread::spawn(move || {
            barrier.wait();
            for _ in 0..30000i64 {
                rel.transaction(|tx| {
                    let qa = tx.query(&key(&sch, 1), wcols)?;
                    let qb = tx.query(&key(&sch, 2), wcols)?;
                    assert!(!qa.is_empty(), "key 1 vanished");
                    assert!(!qb.is_empty(), "key 2 vanished (qa={qa:?})");
                    Ok(())
                })
                .unwrap();
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    rel.verify().unwrap();
}

#[test]
fn rollback_reinsert_never_exposes_uncommitted_values() {
    // A transaction that updates and then removes the same key, and rolls
    // back: the rollback re-links key 1's subtree — the very instances the
    // remove unlinked, whose target-side locks the attempt still holds —
    // and then takes the uncommitted update back inside it. A speculative
    // reader that guesses through the re-linked entry must wait on that
    // lock until the whole rollback is done; it must never read the
    // rolled-back value, and the rollback must never have to wait for it.
    // (Historically a regression test for compensation by re-insert, which
    // published a *fresh* target whose lock nobody held.)
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let p = LockPlacement::speculative(&d, 8).unwrap();
    let rel = Arc::new(ConcurrentRelation::new(d.clone(), p).unwrap());
    let sch = d.schema().clone();
    for k in [1, 3, 4, 5, 6] {
        rel.insert(&key(&sch, k), &w(&sch, 100)).unwrap();
    }
    let readers = 3;
    let barrier = Arc::new(Barrier::new(readers + 1));
    let wcols = sch.column_set(&["weight"]).unwrap();
    const MARKER: i64 = -1;

    let writer = {
        let rel = rel.clone();
        let barrier = barrier.clone();
        let sch = sch.clone();
        std::thread::spawn(move || {
            barrier.wait();
            for _ in 0..20000 {
                let err = rel
                    .transaction(|tx| -> Result<(), relc::TxnError> {
                        tx.update(&key(&sch, 1), &w(&sch, MARKER))?;
                        // Extra removes between the update and the remove
                        // of key 1: the rollback re-links them *between*
                        // re-linking key 1 and restoring its value,
                        // widening the window in which the uncommitted
                        // value is linked during rollback.
                        for k in [3, 4, 5, 6] {
                            tx.remove(&key(&sch, k))?;
                        }
                        tx.remove(&key(&sch, 1))?;
                        Err(tx.abort("always roll back"))
                    })
                    .unwrap_err();
                assert!(matches!(err, relc::CoreError::TransactionAborted(_)));
            }
        })
    };
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let rel = rel.clone();
            let barrier = barrier.clone();
            let sch = sch.clone();
            std::thread::spawn(move || {
                let wcol = sch.column("weight").unwrap();
                barrier.wait();
                for _ in 0..20000 {
                    let got = rel
                        .transaction(|tx| tx.query(&key(&sch, 1), wcols))
                        .unwrap();
                    assert_eq!(got.len(), 1, "key 1 must never vanish");
                    assert_eq!(
                        got[0].get(wcol),
                        Some(&Value::from(100)),
                        "dirty read of a rolled-back value"
                    );
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for h in handles {
        h.join().unwrap();
    }
    let snap = rel.verify().unwrap();
    assert_eq!(snap.len(), 5);
}

#[test]
fn aborted_batch_is_never_visible_to_speculative_readers() {
    // A batch publishes each row as it goes, and a later row (or the
    // closure) can still roll it back: every row must hold the target-side
    // lock of each speculative child it publishes, so a reader that guesses
    // through a just-published entry waits for the rollback and then finds
    // the entry gone — it must never see a row of a batch that aborted.
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let p = LockPlacement::speculative(&d, 8).unwrap();
    let rel = Arc::new(ConcurrentRelation::new(d.clone(), p).unwrap());
    let sch = d.schema().clone();
    for k in [1, 2, 3] {
        rel.insert(&key(&sch, k), &w(&sch, 100)).unwrap();
    }
    let rows: Vec<(Tuple, Tuple)> = [7, 8, 9].map(|k| (key(&sch, k), w(&sch, k))).into();
    let readers = 3;
    let barrier = Arc::new(Barrier::new(readers + 1));

    let writer = {
        let rel = rel.clone();
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            barrier.wait();
            for _ in 0..20000 {
                let err = rel
                    .transaction(|tx| -> Result<(), relc::TxnError> {
                        let inserted = tx.insert_all(&rows)?;
                        assert_eq!(inserted, [true; 3]);
                        Err(tx.abort("always roll back"))
                    })
                    .unwrap_err();
                assert!(matches!(err, relc::CoreError::TransactionAborted(_)));
            }
        })
    };
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let rel = rel.clone();
            let barrier = barrier.clone();
            let first = key(&sch, 7);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..20000 {
                    let seen = rel.transaction(|tx| tx.contains(&first)).unwrap();
                    assert!(!seen, "read a row of an aborted batch");
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for h in handles {
        h.join().unwrap();
    }
    let snap = rel.verify().unwrap();
    assert_eq!(snap.len(), 3);
    assert_eq!(rel.len(), 3);
}

#[test]
fn transfer_mix_never_loses_keys() {
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let p = LockPlacement::speculative(&d, 8).unwrap();
    let rel = Arc::new(ConcurrentRelation::new(d.clone(), p).unwrap());
    let sch = d.schema().clone();
    for k in 0..4 {
        rel.insert(&key(&sch, k), &w(&sch, 100)).unwrap();
    }
    let threads = 6;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads as u64)
        .map(|tid| {
            let rel = rel.clone();
            let sch = sch.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let wcol = sch.column("weight").unwrap();
                let wcols = sch.column_set(&["weight"]).unwrap();
                let mut x = (tid + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                barrier.wait();
                for i in 0..400 {
                    let a = (next() % 4) as i64;
                    let b = (next() % 4) as i64;
                    if a == b {
                        continue;
                    }
                    let amt = (next() % 5) as i64;
                    if i % 2 == 0 {
                        rel.transaction(|tx| {
                            let ta = tx.remove_returning(&key(&sch, a))?.expect("a exists");
                            let tb = tx.remove_returning(&key(&sch, b))?.expect("b exists");
                            let wa = ta.get(wcol).and_then(|v| v.as_int()).unwrap();
                            let wb = tb.get(wcol).and_then(|v| v.as_int()).unwrap();
                            tx.insert(&key(&sch, a), &w(&sch, wa - amt))?;
                            tx.insert(&key(&sch, b), &w(&sch, wb + amt))?;
                            Ok(())
                        })
                        .unwrap();
                    } else {
                        rel.transaction(|tx| {
                            let qa = tx.query(&key(&sch, a), wcols)?;
                            let qb = tx.query(&key(&sch, b), wcols)?;
                            assert!(
                                !qa.is_empty() && !qb.is_empty(),
                                "key vanished: a={qa:?} b={qb:?}"
                            );
                            let wa = qa[0].get(wcol).and_then(|v| v.as_int()).unwrap();
                            let wb = qb[0].get(wcol).and_then(|v| v.as_int()).unwrap();
                            tx.update(&key(&sch, a), &w(&sch, wa - amt))?;
                            tx.update(&key(&sch, b), &w(&sch, wb + amt))?;
                            Ok(())
                        })
                        .unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = rel.verify().unwrap();
    let wcol = sch.column("weight").unwrap();
    let total: i64 = snap
        .iter()
        .map(|t| t.get(wcol).and_then(|v| v.as_int()).unwrap())
        .sum();
    assert_eq!(total, 400);
}
