//! Tests for `ShardedRelation`: routing and oracle equivalence across
//! shard counts, cross-shard transaction atomicity (the abort on shard B
//! must roll back shard A's already-applied operations), hash
//! decorrelation between the shard router and the container level,
//! linearizability of concurrent sharded histories, and deadlock freedom
//! of opposing cross-shard transfers.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use proptest::prelude::*;
use relc::decomp::library::{diamond, split, stick};
use relc::lincheck::{check_linearizable, HistoryRecorder, OpRecord};
use relc::placement::LockPlacement;
use relc::{CoreError, Decomposition, ShardedRelation};
use relc_containers::ContainerKind;
use relc_spec::{OracleRelation, RelationSchema, SpecError, Tuple, Value};

fn graph_variants() -> Vec<(String, Arc<Decomposition>, Arc<LockPlacement>)> {
    let st = stick(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let sp = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let di = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    vec![
        (
            "stick/coarse".into(),
            st.clone(),
            LockPlacement::coarse(&st).unwrap(),
        ),
        (
            "split/fine".into(),
            sp.clone(),
            LockPlacement::fine(&sp).unwrap(),
        ),
        (
            "split/striped16".into(),
            sp.clone(),
            LockPlacement::striped_root(&sp, 16).unwrap(),
        ),
        (
            "diamond/speculative8".into(),
            di.clone(),
            LockPlacement::speculative(&di, 8).unwrap(),
        ),
    ]
}

fn edge(rel: &ShardedRelation, s: i64, d: i64) -> Tuple {
    rel.schema()
        .tuple(&[("src", Value::from(s)), ("dst", Value::from(d))])
        .unwrap()
}

fn weight(rel: &ShardedRelation, w: i64) -> Tuple {
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

/// Two keys guaranteed to live in different shards (the test bed for every
/// cross-shard scenario). Panics if the router maps the whole probe range
/// to one shard — which would itself be a distribution bug.
fn keys_in_distinct_shards(rel: &ShardedRelation) -> (Tuple, Tuple) {
    let a = edge(rel, 0, 0);
    let sa = rel.shard_of(&a);
    for k in 1..256 {
        let b = edge(rel, k, k);
        if rel.shard_of(&b) != sa {
            return (a, b);
        }
    }
    panic!("router mapped 256 consecutive keys into one shard");
}

/// Pseudo-random single-op + batch mix, differential against the §2
/// oracle, across shard counts (including the degenerate 1) and
/// representative (decomposition, placement) pairs. Every intermediate
/// observable must agree; verify() additionally checks that each tuple
/// sits in exactly the shard the router names.
#[test]
fn sharded_relation_matches_oracle_across_shard_counts() {
    for (name, d, p) in graph_variants() {
        for shards in [1usize, 2, 3, 8] {
            let name = format!("{name} x{shards}");
            let rel = ShardedRelation::new(d.clone(), p.clone(), shards).unwrap();
            assert_eq!(rel.shard_count(), shards);
            let oracle = OracleRelation::empty(d.schema().clone());
            let mut x = 0x5ca1_ab1e_u64 + shards as u64;
            let mut step = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let dw = d.schema().column_set(&["dst", "weight"]).unwrap();
            for _ in 0..250 {
                let s = (step() % 6) as i64;
                let t = (step() % 6) as i64;
                let w = (step() % 4) as i64;
                match step() % 6 {
                    0 => {
                        let got = rel.insert(&edge(&rel, s, t), &weight(&rel, w)).unwrap();
                        let want = oracle.insert(&edge(&rel, s, t), &weight(&rel, w)).unwrap();
                        assert_eq!(got, want, "insert on {name}");
                    }
                    1 => {
                        let got = rel.remove(&edge(&rel, s, t)).unwrap();
                        let want = oracle.remove(&edge(&rel, s, t));
                        assert_eq!(got, want, "remove on {name}");
                    }
                    2 => {
                        let got = rel.update(&edge(&rel, s, t), &weight(&rel, w)).unwrap();
                        let want = oracle.update(&edge(&rel, s, t), &weight(&rel, w)).unwrap();
                        assert_eq!(got, want, "update on {name}");
                    }
                    3 => {
                        // Routed point query (one shard).
                        let wc = d.schema().column_set(&["weight"]).unwrap();
                        let got = rel.query(&edge(&rel, s, t), wc).unwrap();
                        assert_eq!(got, oracle.query(&edge(&rel, s, t), wc), "point on {name}");
                    }
                    4 => {
                        // Partial pattern: fans out across every shard and
                        // must still merge to the oracle's sorted result.
                        let pat = d.schema().tuple(&[("src", Value::from(s))]).unwrap();
                        match rel.query(&pat, dw) {
                            Ok(got) => assert_eq!(got, oracle.query(&pat, dw), "succ on {name}"),
                            Err(CoreError::NoValidPlan(_)) => {}
                            Err(e) => panic!("unexpected error on {name}: {e}"),
                        }
                    }
                    _ => {
                        let got = rel.contains(&edge(&rel, s, t)).unwrap();
                        let want = !oracle.query(&edge(&rel, s, t), dw).is_empty();
                        assert_eq!(got, want, "contains on {name}");
                    }
                }
                assert_eq!(rel.len(), oracle.len(), "len on {name}");
            }
            let verified = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
            let want: BTreeSet<Tuple> = oracle.snapshot().into_iter().collect();
            assert_eq!(verified, want, "final contents on {name}");
            // Satellite invariant: the counter is exact at quiescence.
            assert_eq!(verified.len(), rel.len(), "{name}");
            match rel.snapshot() {
                Ok(snap) => assert_eq!(snap.len(), rel.len(), "{name}"),
                // Speculative placements cannot scan; verify() covered it.
                Err(CoreError::NoValidPlan(_)) => {}
                Err(e) => panic!("{name}: {e}"),
            }
        }
    }
}

/// Batched operations split per shard but must keep the exact §2 fold
/// semantics (duplicates lose to the first occurrence), report per-row /
/// per-key outcomes in the original batch order, and commit atomically
/// across shards.
#[test]
fn sharded_batches_match_fold_semantics() {
    for (name, d, p) in graph_variants() {
        let rel = ShardedRelation::new(d.clone(), p.clone(), 4).unwrap();
        let oracle = OracleRelation::empty(d.schema().clone());
        let mut x = 0xbead_cafe_u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..40 {
            let len = (step() % 7) as usize + 1;
            if step() % 3 == 0 {
                let keys: Vec<Tuple> = (0..len)
                    .map(|_| edge(&rel, (step() % 5) as i64, (step() % 5) as i64))
                    .collect();
                let got = rel.remove_all(&keys).unwrap();
                let want: Vec<bool> = keys.iter().map(|k| oracle.remove(k) == 1).collect();
                assert_eq!(got, want, "remove_all on {name} (round {round})");
            } else {
                let rows: Vec<(Tuple, Tuple)> = (0..len)
                    .map(|_| {
                        (
                            edge(&rel, (step() % 5) as i64, (step() % 5) as i64),
                            weight(&rel, (step() % 4) as i64),
                        )
                    })
                    .collect();
                let got = rel.insert_all(&rows).unwrap();
                let want: Vec<bool> = rows
                    .iter()
                    .map(|(s, t)| oracle.insert(s, t).unwrap())
                    .collect();
                assert_eq!(got, want, "insert_all on {name} (round {round})");
            }
            assert_eq!(rel.len(), oracle.len(), "len on {name}");
        }
        assert_eq!(rel.insert_all(&[]).unwrap(), Vec::<bool>::new());
        assert_eq!(rel.remove_all(&[]).unwrap(), Vec::<bool>::new());
        let verified = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let want: BTreeSet<Tuple> = oracle.snapshot().into_iter().collect();
        assert_eq!(verified, want, "final contents on {name}");
    }
}

/// A poisoned row in a sharded batch aborts the whole batch across every
/// shard: rows already applied to other shards roll back.
#[test]
fn poisoned_sharded_batch_rolls_back_every_shard() {
    for (name, d, p) in graph_variants() {
        let rel = ShardedRelation::new(d.clone(), p.clone(), 4).unwrap();
        rel.insert(&edge(&rel, 9, 9), &weight(&rel, 1)).unwrap();
        let before = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let poison_t = rel
            .schema()
            .tuple(&[("dst", Value::from(2)), ("weight", Value::from(3))])
            .unwrap();
        // Valid rows spread over several shards, then an overlapping-domain
        // poison row.
        let rows = vec![
            (edge(&rel, 0, 0), weight(&rel, 10)),
            (edge(&rel, 1, 1), weight(&rel, 11)),
            (edge(&rel, 2, 2), weight(&rel, 12)),
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
        let after = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(after, before, "{name}: poisoned batch must be a no-op");
        assert_eq!(rel.len(), 1, "{name}");
        // A non-key pattern poisons a sharded removal batch the same way.
        let bad_key = rel.schema().tuple(&[("dst", Value::from(9))]).unwrap();
        assert!(matches!(
            rel.remove_all(&[edge(&rel, 9, 9), bad_key]).unwrap_err(),
            CoreError::Spec(SpecError::RemoveNotByKey { .. })
        ));
        assert_eq!(
            rel.verify().unwrap_or_else(|e| panic!("{name}: {e}")),
            before,
            "{name}"
        );
    }
}

/// The acceptance scenario: a transfer spanning two shards that aborts
/// mid-flight leaves both shards' snapshots — and the aggregated `len()` —
/// exactly at the pre-transaction state.
#[test]
fn cross_shard_abort_rolls_back_already_applied_shards() {
    for (name, d, p) in graph_variants() {
        let rel = ShardedRelation::new(d.clone(), p.clone(), 8).unwrap();
        let (ka, kb) = keys_in_distinct_shards(&rel);
        let (sa, sb) = (rel.shard_of(&ka), rel.shard_of(&kb));
        assert_ne!(sa, sb, "{name}: probe keys must span two shards");
        rel.insert(&ka, &weight(&rel, 100)).unwrap();
        rel.insert(&kb, &weight(&rel, 0)).unwrap();
        let before = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let len_before = rel.len();
        let per_shard_before: Vec<_> = rel.shards().iter().map(|s| s.verify().unwrap()).collect();

        // Shard A's update and an insert on shard B both apply, then the
        // closure aborts: both shards must roll back.
        let err = rel
            .transaction(|tx| -> Result<(), relc::TxnError> {
                assert!(tx.update(&ka, &weight(&rel, 70))?.is_some());
                assert_eq!(tx.remove(&kb)?, 1);
                assert!(tx.insert(&kb, &weight(&rel, 30))?);
                // Read-your-writes across shards inside the transaction.
                let wc = tx.schema().column_set(&["weight"]).unwrap();
                assert_eq!(tx.query(&ka, wc)?, vec![weight(&rel, 70)]);
                Err(tx.abort("insufficient funds"))
            })
            .unwrap_err();
        assert!(
            matches!(err, CoreError::TransactionAborted(ref m) if m.contains("funds")),
            "{name}: {err}"
        );

        let after = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(after, before, "{name}: cross-shard rollback must be exact");
        assert_eq!(rel.len(), len_before, "{name}: aggregated len unchanged");
        for (i, snap) in per_shard_before.iter().enumerate() {
            assert_eq!(
                &rel.shards()[i].verify().unwrap(),
                snap,
                "{name}: shard {i} must be untouched"
            );
        }
        // The abort is a user rollback on every touched shard's engine.
        assert!(rel.lock_stats().user_rollbacks >= 2, "{name}");

        // The same transfer without the abort commits on both shards.
        rel.transaction(|tx| {
            tx.update(&ka, &weight(&rel, 70))?;
            tx.update(&kb, &weight(&rel, 30))?;
            Ok(())
        })
        .unwrap();
        let wc = d.schema().column_set(&["weight"]).unwrap();
        assert_eq!(rel.query(&ka, wc).unwrap(), vec![weight(&rel, 70)]);
        assert_eq!(rel.query(&kb, wc).unwrap(), vec![weight(&rel, 30)]);
        assert_eq!(rel.len(), 2, "{name}");
    }
}

/// Single-shot operations on the sharded relation (or its shards) inside a
/// cross-shard closure would self-deadlock; the per-shard re-entrancy
/// guards panic instead.
#[test]
#[should_panic(expected = "re-entrant")]
fn nested_single_shot_inside_sharded_transaction_panics() {
    let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
    let p = LockPlacement::coarse(&d).unwrap();
    let rel = ShardedRelation::new(d.clone(), p, 4).unwrap();
    let k = edge(&rel, 1, 2);
    rel.insert(&k, &weight(&rel, 1)).unwrap();
    let _ = rel.transaction(|tx| {
        tx.contains(&k)?;
        let _ = rel.remove(&k); // bypasses the transaction: panics
        Ok(())
    });
}

/// Satellite regression: the shard router's hash must be decorrelated from
/// the container-level `hash_key` stream. Both levels are checked: the
/// router spreads keys near-uniformly over relation shards, and *within
/// each relation shard* the keys' container hashes still spread
/// near-uniformly over a 16-way striped container's shards — if the two
/// hashes shared their stream, each relation shard's keys would collapse
/// into 16/N_rel of the container shards.
#[test]
fn router_hash_decorrelated_from_container_hash() {
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let p = LockPlacement::fine(&d).unwrap();
    const REL_SHARDS: usize = 8;
    const CONTAINER_SHARDS: usize = 16;
    let rel = ShardedRelation::new(d.clone(), p, REL_SHARDS).unwrap();
    let src_cols = d.schema().column_set(&["src", "dst"]).unwrap();

    // 4096 synthetic keys; expect 512 per relation shard and 32 per
    // (relation shard, container shard) cell.
    let mut level1 = [0usize; REL_SHARDS];
    let mut level2 = [[0usize; CONTAINER_SHARDS]; REL_SHARDS];
    for s in 0..64i64 {
        for t in 0..64i64 {
            let tup = d
                .schema()
                .tuple(&[("src", Value::from(s)), ("dst", Value::from(t))])
                .unwrap();
            let r = rel.shard_of(&tup);
            level1[r] += 1;
            // The container key the root edge stores is the projection
            // onto the edge columns; StripedHashMap picks its shard from
            // the low bits of `hash_key` over that tuple.
            let h = relc_containers::hashing::hash_key(&tup.project(src_cols));
            level2[r][(h % CONTAINER_SHARDS as u64) as usize] += 1;
        }
    }
    let expect1 = 4096 / REL_SHARDS;
    for (i, &n) in level1.iter().enumerate() {
        assert!(
            n > expect1 / 2 && n < expect1 * 2,
            "relation shard {i} occupancy {n} far from uniform ({expect1}): {level1:?}"
        );
    }
    let expect2 = 4096 / REL_SHARDS / CONTAINER_SHARDS;
    for (r, row) in level2.iter().enumerate() {
        for (c, &n) in row.iter().enumerate() {
            assert!(
                n > expect2 / 4,
                "container shard {c} under relation shard {r} holds {n} \
                 keys (expected ≈{expect2}): router correlates with hash_key"
            );
        }
    }
}

/// Concurrent sharded histories — routed single ops, cross-shard transfer
/// transactions, and batches — must be linearizable with the §2 semantics,
/// with every transaction a single linearization point. Fifteen rounds per
/// graph variant.
#[test]
fn sharded_histories_are_linearizable() {
    let variants = graph_variants();
    for round in 0..15 * variants.len() as u64 {
        let (name, d, p) = &variants[round as usize % variants.len()];
        let rel = Arc::new(ShardedRelation::new(d.clone(), p.clone(), 4).unwrap());
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
                        match next() % 4 {
                            0 => {
                                rec.record(|| {
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
                                });
                            }
                            1 => {
                                // Cross-shard move: remove one key,
                                // re-insert under the transposed key —
                                // atomically, whatever shards they hash to.
                                rec.record(|| {
                                    let mut ops = Vec::new();
                                    rel.transaction(|tx| {
                                        ops.clear();
                                        let removed = tx.remove_returning(&edge(&rel, s, dd))?;
                                        ops.push(OpRecord::Remove {
                                            s: edge(&rel, s, dd),
                                            result: usize::from(removed.is_some()),
                                        });
                                        if removed.is_some() {
                                            let ins = tx
                                                .insert(&edge(&rel, dd + 2, s), &weight(&rel, w))?;
                                            ops.push(OpRecord::Insert {
                                                s: edge(&rel, dd + 2, s),
                                                t: weight(&rel, w),
                                                result: ins,
                                            });
                                        }
                                        Ok(())
                                    })
                                    .unwrap();
                                    ((), OpRecord::Txn { ops })
                                });
                            }
                            2 => {
                                let rows = vec![
                                    (edge(&rel, s, dd), weight(&rel, w)),
                                    (edge(&rel, dd + 2, s), weight(&rel, w + 1)),
                                    (edge(&rel, s, dd), weight(&rel, w + 2)),
                                ];
                                rec.record(|| {
                                    let results = rel.insert_all(&rows).unwrap();
                                    ((), OpRecord::InsertAll { rows, results })
                                });
                            }
                            _ => {
                                let keys = vec![edge(&rel, s, dd), edge(&rel, dd + 2, s)];
                                rec.record(|| {
                                    let results = rel.remove_all(&keys).unwrap();
                                    ((), OpRecord::RemoveAll { keys, results })
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
            "{name}: non-linearizable sharded history (round {round}): {history:#?}"
        );
        let snap = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            rel.len(),
            snap.len(),
            "{name}: len at quiescence (round {round})"
        );
    }
}

/// Deadlock freedom of the cross-shard protocol: opposing transfers (A→B
/// and B→A concurrently, so the two shards are locked in both orders),
/// plus fan-out readers locking every shard. Watchdogged; totals must be
/// conserved and the counter exact at quiescence.
#[test]
fn opposing_cross_shard_transfers_make_progress_and_conserve_totals() {
    for (name, d, p) in graph_variants() {
        let rel = Arc::new(ShardedRelation::new(d.clone(), p.clone(), 4).unwrap());
        let keys = 16i64;
        let initial = 100i64;
        for k in 0..keys {
            rel.insert(&edge(&rel, k, k), &weight(&rel, initial))
                .unwrap();
        }
        let rel2 = rel.clone();
        let name2 = name.clone();
        with_watchdog(120, name.clone(), move || {
            let threads = 8usize;
            let rounds = 60i64;
            let barrier = Arc::new(Barrier::new(threads));
            let moved = Arc::new(AtomicI64::new(0));
            let handles: Vec<_> = (0..threads as u64)
                .map(|tid| {
                    let rel = rel2.clone();
                    let barrier = barrier.clone();
                    let moved = moved.clone();
                    std::thread::spawn(move || {
                        let wcol = rel.schema().column("weight").unwrap();
                        let mut x = (tid + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        let mut next = move || {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x
                        };
                        barrier.wait();
                        for _ in 0..rounds {
                            let a = (next() % keys as u64) as i64;
                            let b = (next() % keys as u64) as i64;
                            if a == b {
                                continue;
                            }
                            // Half the threads transfer a→b, half b→a:
                            // shard pairs are locked in opposing orders.
                            let (from, to) = if tid % 2 == 0 { (a, b) } else { (b, a) };
                            let amount = (next() % 5) as i64;
                            rel.transaction(|tx| {
                                let wc = tx.schema().column_set(&["weight"]).unwrap();
                                let wf = tx.query(&edge(&rel, from, from), wc)?;
                                let wt = tx.query(&edge(&rel, to, to), wc)?;
                                let (Some(wf), Some(wt)) = (wf.first(), wt.first()) else {
                                    return Ok(false);
                                };
                                let wf = wf.get(wcol).and_then(|v| v.as_int()).unwrap();
                                let wt = wt.get(wcol).and_then(|v| v.as_int()).unwrap();
                                if wf < amount {
                                    return Ok(false);
                                }
                                tx.update(&edge(&rel, from, from), &weight(&rel, wf - amount))?;
                                tx.update(&edge(&rel, to, to), &weight(&rel, wt + amount))?;
                                Ok(true)
                            })
                            .unwrap();
                            moved.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert!(moved.load(Ordering::Relaxed) > 0, "{name2}: no progress");
        });
        let snap = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(snap.len(), keys as usize, "{name}");
        assert_eq!(rel.len(), keys as usize, "{name}: len at quiescence");
        let wcol = rel.schema().column("weight").unwrap();
        let total: i64 = snap
            .iter()
            .map(|t| t.get(wcol).and_then(|v| v.as_int()).unwrap())
            .sum();
        assert_eq!(
            total,
            keys * initial,
            "{name}: cross-shard transfers must conserve the sum"
        );
        let stats = rel.lock_stats();
        assert!(stats.commits > 0, "{name}: {stats}");
    }
}

/// Alternate keys and routing-column rewrites: a schema where both `k` and
/// `v` are keys routes by the canonical key `{v}`; removes by `{k}` must
/// fan out, and updates assigning `v` must *relocate* the tuple to its new
/// owning shard (checked by `verify`'s routing invariant).
#[test]
fn alternate_key_ops_fan_out_and_relocate() {
    let schema = RelationSchema::builder()
        .column("k")
        .column("v")
        .fd(&["k"], &["v"])
        .fd(&["v"], &["k"])
        .build();
    let mut b = Decomposition::builder(schema);
    let root = b.root();
    let n = b.node("byK");
    let leaf = b.node("val");
    b.edge(root, n, &["k"], ContainerKind::ConcurrentHashMap)
        .unwrap();
    b.edge(n, leaf, &["v"], ContainerKind::Singleton).unwrap();
    let d = b.build().unwrap();
    let p = LockPlacement::fine(&d).unwrap();
    let rel = ShardedRelation::new(d.clone(), p, 8).unwrap();
    // The canonical key minimizes in column order: {v} (k drops first).
    assert_eq!(rel.route_by(), d.schema().column_set(&["v"]).unwrap());
    let kt = |k: i64| d.schema().tuple(&[("k", Value::from(k))]).unwrap();
    let vt = |v: i64| d.schema().tuple(&[("v", Value::from(v))]).unwrap();

    for i in 0..32 {
        assert!(rel.insert(&kt(i), &vt(1000 + i)).unwrap());
    }
    assert_eq!(rel.len(), 32);
    rel.verify().unwrap();

    // Alternate-key point read fans out and still finds the tuple.
    let vc = d.schema().column_set(&["v"]).unwrap();
    assert_eq!(rel.query(&kt(7), vc).unwrap(), vec![vt(1007)]);
    assert!(rel.contains(&kt(7)).unwrap());

    // Update by the non-routing key `k`, rewriting the routing column `v`:
    // the tuple must move to the shard its *new* value hashes to.
    let old = rel.update(&kt(7), &vt(4242)).unwrap().expect("k=7 exists");
    let vcol = d.schema().column("v").unwrap();
    assert_eq!(old.get(vcol), Some(&Value::from(1007)));
    assert_eq!(rel.query(&kt(7), vc).unwrap(), vec![vt(4242)]);
    assert_eq!(rel.len(), 32);
    // verify() asserts every tuple sits in its router-assigned shard — a
    // relocation bug (tuple left at the old value's shard) fails here.
    rel.verify().unwrap();

    // Alternate-key remove fans out.
    assert_eq!(rel.remove(&kt(7)).unwrap(), 1);
    assert_eq!(rel.remove(&kt(7)).unwrap(), 0);
    // Routed remove by the canonical key.
    assert_eq!(rel.remove(&vt(1003)).unwrap(), 1);
    assert_eq!(rel.len(), 30);
    rel.verify().unwrap();

    // A removal batch mixing an alternate key and a routed key that match
    // the *same* tuple must fold in batch order: kt(5) and vt(1005) both
    // name (k=5, v=1005); the earlier occurrence removes it, the later
    // reads false. (The grouped per-shard path would evaluate the routed
    // key first and report [false, true].)
    assert_eq!(
        rel.remove_all(&[kt(5), vt(1005)]).unwrap(),
        vec![true, false]
    );
    // And the routed-first order too.
    assert_eq!(
        rel.remove_all(&[vt(1006), kt(6)]).unwrap(),
        vec![true, false]
    );
    assert_eq!(rel.len(), 28);
    rel.verify().unwrap();

    // Validation errors surface identically to the single-instance path.
    assert!(matches!(
        rel.update(&kt(1), &Tuple::empty()).unwrap_err(),
        CoreError::Spec(SpecError::EmptyUpdate)
    ));
    assert!(matches!(
        rel.update(&kt(1), &kt(2)).unwrap_err(),
        CoreError::Spec(SpecError::UpdateOverlapsPattern { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Differential proptest over random shard counts and op sequences: a
    /// sharded relation must be observably identical to the §2 oracle
    /// whatever the partitioning.
    #[test]
    fn sharded_fold_matches_oracle(
        shards in 1usize..9,
        ops in proptest::collection::vec((0u8..5, 0i64..5, 0i64..5, 0i64..4), 1..60),
    ) {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).unwrap();
        let rel = ShardedRelation::new(d.clone(), p, shards).unwrap();
        let oracle = OracleRelation::empty(d.schema().clone());
        let e = |s: i64, t: i64| d.schema()
            .tuple(&[("src", Value::from(s)), ("dst", Value::from(t))]).unwrap();
        let w = |w: i64| d.schema().tuple(&[("weight", Value::from(w))]).unwrap();
        for &(op, s, t, wv) in &ops {
            match op {
                0 => prop_assert_eq!(
                    rel.insert(&e(s, t), &w(wv)).unwrap(),
                    oracle.insert(&e(s, t), &w(wv)).unwrap()
                ),
                1 => prop_assert_eq!(rel.remove(&e(s, t)).unwrap(), oracle.remove(&e(s, t))),
                2 => prop_assert_eq!(
                    rel.update(&e(s, t), &w(wv)).unwrap(),
                    oracle.update(&e(s, t), &w(wv)).unwrap()
                ),
                3 => {
                    // Batch: three rows derived from the tuple, with an
                    // intentional duplicate.
                    let rows = vec![
                        (e(s, t), w(wv)),
                        (e(t, s), w(wv + 1)),
                        (e(s, t), w(wv + 2)),
                    ];
                    let want: Vec<bool> = rows
                        .iter()
                        .map(|(s, t)| oracle.insert(s, t).unwrap())
                        .collect();
                    prop_assert_eq!(rel.insert_all(&rows).unwrap(), want);
                }
                _ => {
                    let keys = vec![e(s, t), e(t, s), e(s, t)];
                    let want: Vec<bool> =
                        keys.iter().map(|k| oracle.remove(k) == 1).collect();
                    prop_assert_eq!(rel.remove_all(&keys).unwrap(), want);
                }
            }
            prop_assert_eq!(rel.len(), oracle.len());
        }
        let verified = rel.verify().map_err(TestCaseError::fail)?;
        let want: BTreeSet<Tuple> = oracle.snapshot().into_iter().collect();
        prop_assert_eq!(verified, want);
    }
}
