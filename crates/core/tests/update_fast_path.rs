//! Coverage for the in-place `update` fast path: planner classification,
//! oracle-differential behavior on both strategies, rollback after aborts
//! and forced mid-transaction restarts, lincheck under contention, and the
//! short-circuiting `contains`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier, RwLock};

use proptest::prelude::*;
use relc::decomp::library::{dcache, diamond, kv, split, stick};
use relc::lincheck::{check_linearizable, HistoryRecorder, OpRecord};
use relc::placement::LockPlacement;
use relc::planner::UpdatePlan;
use relc::{ConcurrentRelation, CoreError, Decomposition};
use relc_containers::ContainerKind;
use relc_spec::{OracleRelation, RelationSchema, Tuple, Value};

mod support;

/// The commit clock is process-global. The rollback tests assert how far
/// it moved, so they take this exclusively; every other test that commits
/// takes it shared.
static CLOCK: RwLock<()> = RwLock::new(());

fn edge(d: &Decomposition, s: i64, t: i64) -> Tuple {
    d.schema()
        .tuple(&[("src", Value::from(s)), ("dst", Value::from(t))])
        .unwrap()
}

fn weight(d: &Decomposition, w: i64) -> Tuple {
    d.schema().tuple(&[("weight", Value::from(w))]).unwrap()
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// A graph-schema decomposition whose first edge binds (src, weight): the
/// updated column sits in a *non-sink* node key, so a weight update must
/// move the tuple and the planner must refuse the fast path.
fn weight_in_mid_key() -> Arc<Decomposition> {
    let schema = relc_spec::library::graph_schema();
    let mut b = Decomposition::builder(schema);
    let root = b.root();
    let a = b.node("a");
    let c = b.node("c");
    b.edge(root, a, &["src", "weight"], ContainerKind::HashMap)
        .unwrap();
    b.edge(a, c, &["dst"], ContainerKind::HashMap).unwrap();
    b.build().unwrap()
}

#[test]
fn fast_path_is_selected_across_library_decompositions() {
    // Every library decomposition keys its value column(s) only at sinks,
    // so the canonical update shape takes the fast path under every
    // non-degenerate placement.
    let graphs = [
        stick(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
        split(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap),
        diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
    ];
    for d in graphs {
        for p in [
            LockPlacement::coarse(&d).unwrap(),
            LockPlacement::fine(&d).unwrap(),
        ] {
            let rel = ConcurrentRelation::new(d.clone(), p.clone()).unwrap();
            let planner = rel.planner();
            let plan = planner
                .plan_update(
                    d.schema().column_set(&["src", "dst"]).unwrap(),
                    d.schema().column_set(&["weight"]).unwrap(),
                )
                .unwrap();
            assert!(
                plan.is_in_place(),
                "weight update must be in-place on {} / {}",
                d.describe(),
                p.name()
            );
        }
    }
    // dcache: child is the sink column of the (parent, name) key.
    let d = dcache();
    let plan = ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap())
        .unwrap()
        .planner()
        .plan_update(
            d.schema().column_set(&["parent", "name"]).unwrap(),
            d.schema().column_set(&["child"]).unwrap(),
        )
        .unwrap();
    assert!(plan.is_in_place(), "dcache child update must be in-place");
    // kv: the everyday key-value overwrite.
    let d = kv(ContainerKind::ConcurrentHashMap);
    let plan = ConcurrentRelation::new(d.clone(), LockPlacement::striped_root(&d, 16).unwrap())
        .unwrap()
        .planner()
        .plan_update(
            d.schema().column_set(&["key"]).unwrap(),
            d.schema().column_set(&["value"]).unwrap(),
        )
        .unwrap();
    assert!(plan.is_in_place(), "kv value update must be in-place");

    // And the counterexample: weight bound mid-chain forces the general
    // path.
    let d = weight_in_mid_key();
    let plan = ConcurrentRelation::new(d.clone(), LockPlacement::coarse(&d).unwrap())
        .unwrap()
        .planner()
        .plan_update(
            d.schema().column_set(&["src", "dst"]).unwrap(),
            d.schema().column_set(&["weight"]).unwrap(),
        )
        .unwrap();
    assert!(matches!(plan, UpdatePlan::General(_)));
}

/// Differential oracle test on a decomposition where update takes the
/// *general* path — the fallback must keep exact §2 semantics.
#[test]
fn general_path_update_matches_oracle() {
    let _clock = CLOCK.read().unwrap_or_else(|e| e.into_inner());
    let d = weight_in_mid_key();
    let p = LockPlacement::coarse(&d).unwrap();
    let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
    let oracle = OracleRelation::empty(d.schema().clone());
    let mut step = xorshift(0xfeed_f00d);
    for _ in 0..300 {
        let s = (step() % 5) as i64;
        let t = (step() % 5) as i64;
        let w = (step() % 4) as i64;
        match step() % 3 {
            0 => {
                let got = rel.insert(&edge(&d, s, t), &weight(&d, w)).unwrap();
                let want = oracle.insert(&edge(&d, s, t), &weight(&d, w)).unwrap();
                assert_eq!(got, want, "insert");
            }
            1 => {
                let got = rel.update(&edge(&d, s, t), &weight(&d, w)).unwrap();
                let want = oracle.update(&edge(&d, s, t), &weight(&d, w)).unwrap();
                assert_eq!(got, want, "update");
            }
            _ => {
                assert_eq!(
                    rel.remove(&edge(&d, s, t)).unwrap(),
                    oracle.remove(&edge(&d, s, t)),
                    "remove"
                );
            }
        }
        assert_eq!(rel.len(), oracle.len());
    }
    let verified = rel.verify().unwrap();
    let want: std::collections::BTreeSet<Tuple> = oracle.snapshot().into_iter().collect();
    assert_eq!(verified, want);
}

/// Differential oracle test mixing fast-path updates with `contains` (the
/// short-circuiting existence check) on dcache and kv — shapes beyond the
/// graph variants the shared tests already sweep.
#[test]
fn fast_path_update_and_contains_match_oracle_on_dcache_and_kv() {
    let _clock = CLOCK.read().unwrap_or_else(|e| e.into_inner());
    // dcache.
    let d = dcache();
    for p in [
        LockPlacement::coarse(&d).unwrap(),
        LockPlacement::fine(&d).unwrap(),
    ] {
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        let oracle = OracleRelation::empty(d.schema().clone());
        let key = |par: i64, name: i64| {
            d.schema()
                .tuple(&[("parent", Value::from(par)), ("name", Value::from(name))])
                .unwrap()
        };
        let child = |c: i64| d.schema().tuple(&[("child", Value::from(c))]).unwrap();
        let mut step = xorshift(0xabad_cafe);
        for _ in 0..300 {
            let par = (step() % 4) as i64;
            let nm = (step() % 3) as i64;
            let ch = (step() % 6) as i64;
            match step() % 4 {
                0 => {
                    assert_eq!(
                        rel.insert(&key(par, nm), &child(ch)).unwrap(),
                        oracle.insert(&key(par, nm), &child(ch)).unwrap()
                    );
                }
                1 => {
                    assert_eq!(
                        rel.update(&key(par, nm), &child(ch)).unwrap(),
                        oracle.update(&key(par, nm), &child(ch)).unwrap()
                    );
                }
                2 => {
                    assert_eq!(
                        rel.remove(&key(par, nm)).unwrap(),
                        oracle.remove(&key(par, nm))
                    );
                }
                _ => {
                    let pat = d.schema().tuple(&[("parent", Value::from(par))]).unwrap();
                    assert_eq!(
                        rel.contains(&pat).unwrap(),
                        !oracle.query(&pat, relc_spec::ColumnSet::EMPTY).is_empty(),
                        "contains(parent={par})"
                    );
                }
            }
        }
        rel.verify().unwrap();
    }

    // kv under striping: the hot put-overwrite shape.
    let d = kv(ContainerKind::ConcurrentHashMap);
    let p = LockPlacement::striped_root(&d, 16).unwrap();
    let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
    let oracle = OracleRelation::empty(d.schema().clone());
    let k = |k: i64| d.schema().tuple(&[("key", Value::from(k))]).unwrap();
    let v = |v: i64| d.schema().tuple(&[("value", Value::from(v))]).unwrap();
    let mut step = xorshift(0x5eed);
    for _ in 0..400 {
        let key = (step() % 8) as i64;
        let val = (step() % 100) as i64;
        match step() % 4 {
            0 => {
                assert_eq!(
                    rel.insert(&k(key), &v(val)).unwrap(),
                    oracle.insert(&k(key), &v(val)).unwrap()
                );
            }
            1 | 2 => {
                assert_eq!(
                    rel.update(&k(key), &v(val)).unwrap(),
                    oracle.update(&k(key), &v(val)).unwrap()
                );
            }
            _ => {
                assert_eq!(rel.remove(&k(key)).unwrap(), oracle.remove(&k(key)));
            }
        }
    }
    let verified = rel.verify().unwrap();
    let want: std::collections::BTreeSet<Tuple> = oracle.snapshot().into_iter().collect();
    assert_eq!(verified, want);
}

/// (c) of the issue's test matrix: a transaction whose fast-path update is
/// followed by an operation that forces a restart mid-transaction. The
/// first run applies the in-place rewrite and then restarts (the insert
/// upgrades shared traversal locks); the rollback must take the rewrite
/// back exactly — publishing nothing — and the retry must commit both
/// effects once, at one timestamp.
#[test]
fn fast_path_rollback_after_forced_mid_transaction_restart() {
    let _clock = CLOCK.write().unwrap_or_else(|e| e.into_inner());
    {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).unwrap();
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        rel.insert(&edge(&d, 1, 1), &weight(&d, 10)).unwrap();
        let runs = AtomicU32::new(0);
        let clock = relc_locks::commit_clock().now();
        // A second reader shares the root locks, so the upgrade below
        // cannot be granted in place.
        let hold = |wait: &dyn Fn()| {
            rel.transaction(|tx| {
                tx.query(&edge(&d, 2, 2), d.schema().column_set(&["weight"]).unwrap())?;
                wait();
                Ok(())
            })
            .unwrap()
        };
        support::with_second_reader(&runs, hold, || {
            rel.transaction(|tx| {
                runs.fetch_add(1, Ordering::AcqRel);
                // Fast-path update: shared locks on the root chains,
                // exclusive only on the touched hosts.
                let old = tx.update(&edge(&d, 1, 1), &weight(&d, 77))?;
                assert!(old.is_some());
                // The insert's root sweep needs those root locks
                // exclusively: upgrade → restart on the first run, after
                // the update already wrote. The rollback must take it back
                // before the retry.
                tx.insert(&edge(&d, 2, 2), &weight(&d, 20))?;
                Ok(())
            })
            .unwrap()
        });
        assert!(
            runs.load(Ordering::Acquire) >= 2,
            "the shared→exclusive upgrade must force one restart"
        );
        assert_eq!(
            relc_locks::commit_clock().now(),
            clock + 1,
            "only the committed run allocates a timestamp"
        );
        let wcol = d.schema().column("weight").unwrap();
        let verified = rel.verify().unwrap();
        assert_eq!(verified.len(), 2);
        let weights: Vec<i64> = verified
            .iter()
            .map(|t| t.get(wcol).and_then(|v| v.as_int()).unwrap())
            .collect();
        assert!(
            weights.contains(&77),
            "update committed exactly once: {weights:?}"
        );
        assert!(weights.contains(&20), "insert committed: {weights:?}");
    }
}

/// Aborted transactions mixing fast-path updates with structural ops must
/// roll back to the exact prior instance — including double updates of one
/// key and update-then-remove-then-insert of it — without allocating a
/// commit timestamp or leaving a version behind.
#[test]
fn fast_path_rollback_on_abort_composes_with_other_ops() {
    let _clock = CLOCK.write().unwrap_or_else(|e| e.into_inner());
    let variants: Vec<(Arc<Decomposition>, Arc<LockPlacement>)> = {
        let st = stick(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let sp = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let di = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        vec![
            (st.clone(), LockPlacement::coarse(&st).unwrap()),
            (sp.clone(), LockPlacement::fine(&sp).unwrap()),
            (sp.clone(), LockPlacement::striped_root(&sp, 64).unwrap()),
            (di.clone(), LockPlacement::speculative(&di, 8).unwrap()),
        ]
    };
    for (d, p) in variants {
        let name = format!("{} / {}", d.describe(), p.name());
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        rel.insert(&edge(&d, 1, 2), &weight(&d, 100)).unwrap();
        rel.insert(&edge(&d, 3, 4), &weight(&d, 200)).unwrap();
        let before = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let trace = || (relc_locks::commit_clock().now(), rel.version_footprint());
        let untouched = trace();

        // Double update of one key, update of another, then abort.
        let err = rel
            .transaction(|tx| -> Result<(), relc::TxnError> {
                assert!(tx.update(&edge(&d, 1, 2), &weight(&d, 7))?.is_some());
                assert!(tx.update(&edge(&d, 1, 2), &weight(&d, 8))?.is_some());
                assert!(tx.update(&edge(&d, 3, 4), &weight(&d, 9))?.is_some());
                Err(tx.abort("nope"))
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::TransactionAborted(_)), "{name}");
        assert_eq!(trace(), untouched, "{name}: (clock, footprint)");
        let after = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(after, before, "{name}: double-update abort must be exact");

        // Update, remove the same key, insert it back differently, abort.
        let err = rel
            .transaction(|tx| -> Result<(), relc::TxnError> {
                assert!(tx.update(&edge(&d, 1, 2), &weight(&d, 55))?.is_some());
                assert_eq!(tx.remove(&edge(&d, 1, 2))?, 1);
                assert!(tx.insert(&edge(&d, 1, 2), &weight(&d, 66))?);
                assert!(tx.update(&edge(&d, 1, 2), &weight(&d, 67))?.is_some());
                Err(tx.abort("still nope"))
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::TransactionAborted(_)), "{name}");
        assert_eq!(trace(), untouched, "{name}: (clock, footprint)");
        let after = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(after, before, "{name}: mixed-op abort must be exact");
        assert_eq!(rel.len(), 2, "{name}");
    }
}

/// Concurrency stress: update-heavy contention over few keys while reader
/// threads run point queries and `contains`; every placement must stay
/// structurally sound and linearizable histories must check out.
#[test]
fn fast_path_update_contention_stress() {
    let _clock = CLOCK.read().unwrap_or_else(|e| e.into_inner());
    let variants: Vec<(&str, Arc<Decomposition>, Arc<LockPlacement>)> = {
        let st = stick(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let sp = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let di = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        vec![
            (
                "stick/coarse",
                st.clone(),
                LockPlacement::coarse(&st).unwrap(),
            ),
            ("split/fine", sp.clone(), LockPlacement::fine(&sp).unwrap()),
            (
                "split/striped",
                sp.clone(),
                LockPlacement::striped_root(&sp, 64).unwrap(),
            ),
            (
                "diamond/spec",
                di.clone(),
                LockPlacement::speculative(&di, 16).unwrap(),
            ),
        ]
    };
    for (name, d, p) in variants {
        let rel = Arc::new(ConcurrentRelation::new(d.clone(), p).unwrap());
        const KEYS: i64 = 4;
        for k in 0..KEYS {
            rel.insert(&edge(&d, k, k), &weight(&d, 0)).unwrap();
        }
        let threads = 6;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads as u64)
            .map(|tid| {
                let rel = Arc::clone(&rel);
                let d = d.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut next = xorshift((tid + 1) * 0x9e37_79b9);
                    let wcols = d.schema().column_set(&["weight"]).unwrap();
                    barrier.wait();
                    for _ in 0..400 {
                        let k = (next() % KEYS as u64) as i64;
                        match next() % 4 {
                            0 | 1 => {
                                let w = (next() % 1000) as i64;
                                assert!(rel
                                    .update(&edge(&d, k, k), &weight(&d, w))
                                    .unwrap()
                                    .is_some());
                            }
                            2 => {
                                let got = rel.query(&edge(&d, k, k), wcols).unwrap();
                                assert_eq!(got.len(), 1, "key ({k},{k}) always present");
                            }
                            _ => {
                                assert!(rel.contains(&edge(&d, k, k)).unwrap());
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join()
                .unwrap_or_else(|e| panic!("{name}: worker panicked: {e:?}"));
        }
        let verified = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(verified.len(), KEYS as usize, "{name}");
        assert_eq!(rel.len(), KEYS as usize, "{name}");
    }
}

/// Small concurrent histories of single-shot fast-path updates and point
/// queries must be linearizable (Wing–Gong check).
#[test]
fn fast_path_update_histories_are_linearizable() {
    let _clock = CLOCK.read().unwrap_or_else(|e| e.into_inner());
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    for p in [
        LockPlacement::fine(&d).unwrap(),
        LockPlacement::striped_root(&d, 8).unwrap(),
    ] {
        for round in 0..15u64 {
            let rel = Arc::new(ConcurrentRelation::new(d.clone(), p.clone()).unwrap());
            let rec = HistoryRecorder::new();
            // The seeding insert is part of the checked history (the model
            // starts from an empty relation).
            rec.record(|| {
                let r = rel.insert(&edge(&d, 0, 0), &weight(&d, 0)).unwrap();
                (
                    (),
                    OpRecord::Insert {
                        s: edge(&d, 0, 0),
                        t: weight(&d, 0),
                        result: r,
                    },
                )
            });
            let threads = 3;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads as u64)
                .map(|tid| {
                    let rel = Arc::clone(&rel);
                    let d = d.clone();
                    let rec = Arc::clone(&rec);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        let mut next = xorshift((round + 1) * (tid + 7));
                        let wcols = d.schema().column_set(&["weight"]).unwrap();
                        barrier.wait();
                        for _ in 0..3 {
                            let w = (next() % 4) as i64;
                            if next().is_multiple_of(2) {
                                rec.record(|| {
                                    let r = rel.update(&edge(&d, 0, 0), &weight(&d, w)).unwrap();
                                    (
                                        (),
                                        OpRecord::Update {
                                            s: edge(&d, 0, 0),
                                            t: weight(&d, w),
                                            result: r,
                                        },
                                    )
                                });
                            } else {
                                rec.record(|| {
                                    let r = rel.query(&edge(&d, 0, 0), wcols).unwrap();
                                    (
                                        (),
                                        OpRecord::Query {
                                            s: edge(&d, 0, 0),
                                            cols: wcols,
                                            result: r,
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
                check_linearizable(rel.schema(), &history),
                "non-linearizable update history on {} (round {round}): {history:#?}",
                rel.placement().name()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Proptest: random op sequences, fast and general strategy side by side.
// ---------------------------------------------------------------------------

fn abcd_schema() -> Arc<RelationSchema> {
    RelationSchema::builder()
        .column("a")
        .column("b")
        .column("c")
        .column("d")
        .fd(&["a"], &["b", "c", "d"])
        .build()
}

/// Chain ρ -a→ x -b→ y -c→ z -d→ w: `d` lives only in the sink key, so
/// updating `d` is fast-path eligible; updating `b` (a mid-chain key) is
/// not.
fn abcd_chain() -> Arc<Decomposition> {
    let schema = abcd_schema();
    let mut b = Decomposition::builder(schema);
    let root = b.root();
    let x = b.node("x");
    let y = b.node("y");
    let z = b.node("z");
    let w = b.node("w");
    b.edge(root, x, &["a"], ContainerKind::ConcurrentHashMap)
        .unwrap();
    b.edge(x, y, &["b"], ContainerKind::HashMap).unwrap();
    b.edge(y, z, &["c"], ContainerKind::TreeMap).unwrap();
    b.edge(z, w, &["d"], ContainerKind::Singleton).unwrap();
    b.build().unwrap()
}

#[derive(Debug, Clone)]
enum FpOp {
    Insert(i64, i64, i64, i64),
    /// Update `d` by key `a` — the fast path on the abcd chain.
    UpdateLast(i64, i64),
    /// Update `b` (and `c`, `d`) by key `a` — forced general path.
    UpdateMid(i64, i64),
    Remove(i64),
    Contains(i64),
}

fn fp_op_strategy() -> impl Strategy<Value = FpOp> {
    prop_oneof![
        (0i64..6, 0i64..4, 0i64..4, 0i64..4).prop_map(|(a, b, c, d)| FpOp::Insert(a, b, c, d)),
        (0i64..6, 0i64..8).prop_map(|(a, d)| FpOp::UpdateLast(a, d)),
        (0i64..6, 0i64..8).prop_map(|(a, b)| FpOp::UpdateMid(a, b)),
        (0i64..6).prop_map(FpOp::Remove),
        (0i64..6).prop_map(FpOp::Contains),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn proptest_fast_and_general_updates_match_oracle(
        ops in proptest::collection::vec(fp_op_strategy(), 1..120)
    ) {
        let _clock = CLOCK.read().unwrap_or_else(|e| e.into_inner());
        let d = abcd_chain();
        let schema = d.schema().clone();
        // Sanity-check the strategy split once per case.
        for p in [LockPlacement::coarse(&d).unwrap(), LockPlacement::fine(&d).unwrap()] {
            let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
            let planner = rel.planner();
            let akey = schema.column_set(&["a"]).unwrap();
            prop_assert!(planner
                .plan_update(akey, schema.column_set(&["d"]).unwrap())
                .unwrap()
                .is_in_place());
            prop_assert!(!planner
                .plan_update(akey, schema.column_set(&["b", "c", "d"]).unwrap())
                .unwrap()
                .is_in_place());
            let oracle = OracleRelation::empty(schema.clone());
            let key = |a: i64| schema.tuple(&[("a", Value::from(a))]).unwrap();
            for op in &ops {
                match *op {
                    FpOp::Insert(a, b, c, dd) => {
                        let t = schema
                            .tuple(&[
                                ("b", Value::from(b)),
                                ("c", Value::from(c)),
                                ("d", Value::from(dd)),
                            ])
                            .unwrap();
                        prop_assert_eq!(
                            rel.insert(&key(a), &t).unwrap(),
                            oracle.insert(&key(a), &t).unwrap()
                        );
                    }
                    FpOp::UpdateLast(a, dd) => {
                        let t = schema.tuple(&[("d", Value::from(dd))]).unwrap();
                        prop_assert_eq!(
                            rel.update(&key(a), &t).unwrap(),
                            oracle.update(&key(a), &t).unwrap()
                        );
                    }
                    FpOp::UpdateMid(a, b) => {
                        let t = schema
                            .tuple(&[
                                ("b", Value::from(b)),
                                ("c", Value::from(b + 1)),
                                ("d", Value::from(b + 2)),
                            ])
                            .unwrap();
                        prop_assert_eq!(
                            rel.update(&key(a), &t).unwrap(),
                            oracle.update(&key(a), &t).unwrap()
                        );
                    }
                    FpOp::Remove(a) => {
                        prop_assert_eq!(rel.remove(&key(a)).unwrap(), oracle.remove(&key(a)));
                    }
                    FpOp::Contains(a) => {
                        prop_assert_eq!(
                            rel.contains(&key(a)).unwrap(),
                            !oracle.query(&key(a), relc_spec::ColumnSet::EMPTY).is_empty()
                        );
                    }
                }
                prop_assert_eq!(rel.len(), oracle.len());
            }
            let verified = rel.verify().map_err(TestCaseError::fail)?;
            let want: std::collections::BTreeSet<Tuple> =
                oracle.snapshot().into_iter().collect();
            prop_assert_eq!(verified, want);
        }
    }
}
