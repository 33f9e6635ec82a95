//! Property tests over *randomly generated decomposition structures*: build
//! a trie of random ordered partitions of the column set (always adequate by
//! construction), pick random containers and placements, and differentially
//! test the synthesized relation against the §2 oracle.
//!
//! This explores decomposition shapes far beyond the paper's three (deep
//! chains, wide fans, shared suffix columns, multi-column edges).

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, Decomposition};
use relc_containers::ContainerKind;
use relc_spec::{OracleRelation, RelationSchema, Tuple, Value};

const COLS: [&str; 4] = ["a", "b", "c", "d"];

fn schema() -> Arc<RelationSchema> {
    // FD: a → b, c, d — so {a} is a key (needed for generic removals) and
    // edges binding later columns under a fixed `a` are singletons.
    RelationSchema::builder()
        .column("a")
        .column("b")
        .column("c")
        .column("d")
        .fd(&["a"], &["b", "c", "d"])
        .build()
}

/// An ordered partition of {0,1,2,3} into 1..=4 groups, e.g. [[2],[0,1],[3]].
fn partition_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    // A permutation plus group boundaries.
    (Just([0usize, 1, 2, 3]), 0u8..27).prop_perturb(|(mut cols, splits), mut rng| {
        use proptest::test_runner::RngAlgorithm;
        let _ = RngAlgorithm::default();
        // Fisher-Yates with the proptest rng.
        for i in (1..cols.len()).rev() {
            let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
            cols.swap(i, j);
        }
        // splits encodes boundaries after positions 0,1,2 (3 bits).
        let mut groups: Vec<Vec<usize>> = vec![vec![cols[0]]];
        for (pos, &c) in cols.iter().enumerate().skip(1) {
            if splits & (1 << (pos - 1)) != 0 {
                groups.push(vec![c]);
            } else {
                groups.last_mut().expect("nonempty").push(c);
            }
        }
        groups
    })
}

fn container_strategy() -> impl Strategy<Value = ContainerKind> {
    prop_oneof![
        Just(ContainerKind::HashMap),
        Just(ContainerKind::TreeMap),
        Just(ContainerKind::ConcurrentHashMap),
        Just(ContainerKind::ConcurrentSkipListMap),
        Just(ContainerKind::CopyOnWriteArrayList),
    ]
}

/// Builds a trie decomposition from 1..=3 ordered partitions: branches with
/// common group prefixes share nodes, so every branch covers all columns —
/// adequate by construction.
fn build_decomposition(
    partitions: &[Vec<Vec<usize>>],
    containers: &[ContainerKind],
) -> Arc<Decomposition> {
    let schema = schema();
    let mut b = Decomposition::builder(schema.clone());
    // Trie keyed by the group-prefix path.
    let mut trie: BTreeMap<Vec<Vec<usize>>, relc::NodeId> = BTreeMap::new();
    let mut edges_made: Vec<(relc::NodeId, relc::NodeId)> = Vec::new();
    let mut ci = 0usize;
    for part in partitions {
        let mut prefix: Vec<Vec<usize>> = Vec::new();
        let mut cur = b.root();
        for group in part {
            prefix.push(group.clone());
            let next = match trie.get(&prefix) {
                Some(&n) => n,
                None => {
                    let name = format!(
                        "n{}",
                        prefix
                            .iter()
                            .map(|g| g.iter().map(|c| COLS[*c]).collect::<String>())
                            .collect::<Vec<_>>()
                            .join("_")
                    );
                    // Trie prefixes are unique, but two *different* prefixes
                    // can collide in name only if equal — impossible.
                    let n = b.node(&name);
                    trie.insert(prefix.clone(), n);
                    n
                }
            };
            if !edges_made.contains(&(cur, next)) {
                let cols: Vec<&str> = group.iter().map(|c| COLS[*c]).collect();
                let kind = containers[ci % containers.len()];
                ci += 1;
                b.edge(cur, next, &cols, kind).expect("known columns");
                edges_made.push((cur, next));
            }
            cur = next;
        }
    }
    b.build().expect("trie decompositions are adequate")
}

/// The key pattern `a = v`.
fn key_a(schema: &RelationSchema, v: i64) -> Tuple {
    schema.tuple(&[("a", Value::from(v))]).unwrap()
}

/// A valuation of the columns of {b, c, d} selected by the low three bits
/// of `mask` (all three when it selects none).
fn rest(schema: &RelationSchema, mask: u8, vals: (i64, i64, i64)) -> Tuple {
    let mask = if mask & 7 == 0 { 7 } else { mask };
    let fields: Vec<(&str, Value)> = [("b", vals.0), ("c", vals.1), ("d", vals.2)]
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, (col, v))| (col, Value::from(v)))
        .collect();
    schema.tuple(&fields).unwrap()
}

fn tuple4(schema: &RelationSchema, a: i64, bb: i64, c: i64, d: i64) -> Tuple {
    schema
        .tuple(&[
            ("a", Value::from(a)),
            ("b", Value::from(bb)),
            ("c", Value::from(c)),
            ("d", Value::from(d)),
        ])
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A random prefix of every kind of write — single-row and batched,
    /// in-place and general updates — then an abort, on every placement
    /// the generated decomposition admits: inside the attempt each result
    /// matches the oracle's, and afterwards there is no trace of it — the
    /// contents, `len()` and the version footprint are the committed
    /// preload's, and `verify()` holds.
    #[test]
    fn aborted_write_prefix_leaves_no_trace(
        partitions in proptest::collection::vec(partition_strategy(), 1..4),
        containers in proptest::collection::vec(container_strategy(), 1..6),
        preload in proptest::collection::vec((0i64..6, 0i64..3, 0i64..3, 0i64..3), 0..8),
        ops in proptest::collection::vec(
            (0u8..5, 1u8..8, proptest::collection::vec((0i64..6, 0i64..3, 0i64..3, 0i64..3), 1..4)),
            1..10,
        ),
    ) {
        let d = build_decomposition(&partitions, &containers);
        let schema = d.schema().clone();
        let placements = [
            LockPlacement::coarse(&d).ok(),
            LockPlacement::fine(&d).ok(),
            LockPlacement::striped_root(&d, 4).ok(),
            LockPlacement::speculative(&d, 4).ok(),
        ];
        for p in placements.into_iter().flatten() {
            let name = p.name().to_owned();
            let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
            // A speculative placement cannot plan every shape on every
            // decomposition (no scans over speculative edges).
            let (planner, a) = (rel.planner(), schema.column_set(&["a"]).unwrap());
            let plannable = planner.plan_insert(a).is_ok()
                && planner.plan_remove(a).is_ok()
                && (1..8).all(|m| planner.plan_update(a, rest(&schema, m, (0, 0, 0)).dom()).is_ok());
            if !plannable {
                continue;
            }
            for &(a, bb, c, dd) in &preload {
                rel.insert(&key_a(&schema, a), &rest(&schema, 7, (bb, c, dd))).unwrap();
            }
            let committed = rel.verify().map_err(TestCaseError::fail)?;
            let footprint = rel.version_footprint();
            let err = rel.transaction(|tx| -> Result<(), relc::TxnError> {
                // The closure re-runs after a restart, so its oracle does too.
                let oracle = OracleRelation::empty(schema.clone());
                oracle.load(committed.iter().cloned());
                for (which, mask, rows) in &ops {
                    let keys: Vec<Tuple> = rows.iter().map(|r| key_a(&schema, r.0)).collect();
                    let pairs: Vec<(Tuple, Tuple)> = rows
                        .iter()
                        .map(|&(a, bb, c, dd)| (key_a(&schema, a), rest(&schema, 7, (bb, c, dd))))
                        .collect();
                    let (s, t) = &pairs[0];
                    match which {
                        0 => assert_eq!(tx.insert(s, t)?, oracle.insert(s, t).unwrap(), "{name}"),
                        1 => assert_eq!(tx.remove(s)?, oracle.remove(s), "{name}"),
                        2 => {
                            let (.., bb, c, dd) = rows[0];
                            let t = rest(&schema, *mask, (bb, c, dd));
                            assert_eq!(tx.update(s, &t)?, oracle.update(s, &t).unwrap(), "{name}");
                        }
                        3 => {
                            let want: Vec<bool> =
                                pairs.iter().map(|(s, t)| oracle.insert(s, t).unwrap()).collect();
                            assert_eq!(tx.insert_all(&pairs)?, want, "{name}");
                        }
                        _ => {
                            let want: Vec<bool> =
                                keys.iter().map(|k| oracle.remove(k) == 1).collect();
                            assert_eq!(tx.remove_all(&keys)?, want, "{name}");
                        }
                    }
                }
                Err(tx.abort("discard the prefix"))
            });
            prop_assert!(matches!(err, Err(relc::CoreError::TransactionAborted(_))), "{}", name);
            prop_assert_eq!(rel.version_footprint(), footprint, "{}: footprint", name);
            prop_assert_eq!(rel.len(), committed.len(), "{}: len", name);
            let after = rel.verify().map_err(TestCaseError::fail)?;
            prop_assert_eq!(after, committed, "{}: contents", name);
        }
    }

    #[test]
    fn random_batches_match_sequential_oracle_fold(
        partitions in proptest::collection::vec(partition_strategy(), 1..4),
        containers in proptest::collection::vec(container_strategy(), 1..6),
        placement_pick in 0u8..3,
        batches in proptest::collection::vec(
            (proptest::collection::vec((0i64..6, 0i64..3, 0i64..3, 0i64..3), 1..8), 0u8..4),
            1..12,
        ),
    ) {
        let d = build_decomposition(&partitions, &containers);
        let p = match placement_pick {
            0 => LockPlacement::coarse(&d).ok(),
            1 => LockPlacement::fine(&d).ok(),
            _ => LockPlacement::striped_root(&d, 4).ok(),
        };
        let Some(p) = p else { return Ok(()); }; // container-incompatible
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        let oracle = OracleRelation::empty(d.schema().clone());
        let schema = d.schema().clone();

        for (batch, which) in batches {
            match which {
                // insert_all: per-row results must equal the sequential
                // §2 put-if-absent fold (duplicates inside batches are
                // frequent with this tiny key range).
                0 | 1 => {
                    let rows: Vec<(Tuple, Tuple)> = batch
                        .iter()
                        .map(|&(a, bb, c, dd)| {
                            (
                                schema.tuple(&[("a", Value::from(a))]).unwrap(),
                                schema
                                    .tuple(&[
                                        ("b", Value::from(bb)),
                                        ("c", Value::from(c)),
                                        ("d", Value::from(dd)),
                                    ])
                                    .unwrap(),
                            )
                        })
                        .collect();
                    let got = rel.insert_all(&rows).unwrap();
                    let want: Vec<bool> = rows
                        .iter()
                        .map(|(s, t)| oracle.insert(s, t).unwrap())
                        .collect();
                    prop_assert_eq!(got, want);
                }
                // remove_all: per-key outcomes must equal the sequential
                // removal fold.
                2 => {
                    let keys: Vec<Tuple> = batch
                        .iter()
                        .map(|&(a, _, _, _)| schema.tuple(&[("a", Value::from(a))]).unwrap())
                        .collect();
                    let got = rel.remove_all(&keys).unwrap();
                    let want: Vec<bool> = keys.iter().map(|k| oracle.remove(k) == 1).collect();
                    prop_assert_eq!(got, want);
                }
                // Poisoned batch: valid rows followed by a row whose s/t
                // domains overlap — the whole batch must abort and the
                // relation must be bit-identical to its pre-batch state.
                _ => {
                    let before = rel.verify().map_err(TestCaseError::fail)?;
                    let mut rows: Vec<(Tuple, Tuple)> = batch
                        .iter()
                        .map(|&(a, bb, c, dd)| {
                            (
                                schema.tuple(&[("a", Value::from(a))]).unwrap(),
                                schema
                                    .tuple(&[
                                        ("b", Value::from(bb)),
                                        ("c", Value::from(c)),
                                        ("d", Value::from(dd)),
                                    ])
                                    .unwrap(),
                            )
                        })
                        .collect();
                    rows.push((
                        schema
                            .tuple(&[("a", Value::from(0)), ("b", Value::from(0))])
                            .unwrap(),
                        schema
                            .tuple(&[
                                ("b", Value::from(1)),
                                ("c", Value::from(1)),
                                ("d", Value::from(1)),
                            ])
                            .unwrap(),
                    ));
                    prop_assert!(rel.insert_all(&rows).is_err());
                    let after = rel.verify().map_err(TestCaseError::fail)?;
                    prop_assert_eq!(before, after, "poisoned batch must be a no-op");
                }
            }
            prop_assert_eq!(rel.len(), oracle.len());
        }
        let final_rel = rel.verify().map_err(TestCaseError::fail)?;
        let final_oracle: std::collections::BTreeSet<Tuple> =
            oracle.snapshot().into_iter().collect();
        prop_assert_eq!(final_rel, final_oracle);

        // Drain through remove_all in one batch: everything must go.
        let all_keys: Vec<Tuple> = oracle.snapshot();
        let drained = rel.remove_all(&all_keys).unwrap();
        prop_assert!(drained.iter().all(|&b| b), "every drained key existed");
        prop_assert_eq!(drained.len(), all_keys.len());
        prop_assert!(rel.verify().map_err(TestCaseError::fail)?.is_empty());
    }

    #[test]
    fn random_trie_decompositions_match_oracle(
        partitions in proptest::collection::vec(partition_strategy(), 1..4),
        containers in proptest::collection::vec(container_strategy(), 1..6),
        placement_pick in 0u8..3,
        ops in proptest::collection::vec((0i64..5, 0i64..3, 0i64..3, 0i64..3, 0u8..4), 1..60),
    ) {
        let d = build_decomposition(&partitions, &containers);
        let p = match placement_pick {
            0 => LockPlacement::coarse(&d).ok(),
            1 => LockPlacement::fine(&d).ok(),
            _ => LockPlacement::striped_root(&d, 4).ok(),
        };
        let Some(p) = p else { return Ok(()); }; // container-incompatible
        let rel = ConcurrentRelation::new(d.clone(), p).unwrap();
        let oracle = OracleRelation::empty(d.schema().clone());
        let schema = d.schema().clone();

        for (a, bb, c, dd, which) in ops {
            match which {
                0 | 1 => {
                    // Insert keyed on `a` (the FD key).
                    let s = schema.tuple(&[("a", Value::from(a))]).unwrap();
                    let t = schema
                        .tuple(&[
                            ("b", Value::from(bb)),
                            ("c", Value::from(c)),
                            ("d", Value::from(dd)),
                        ])
                        .unwrap();
                    let got = rel.insert(&s, &t).unwrap();
                    let want = oracle.insert(&s, &t).unwrap();
                    prop_assert_eq!(got, want);
                }
                2 => {
                    let s = schema.tuple(&[("a", Value::from(a))]).unwrap();
                    let got = rel.remove(&s).unwrap();
                    let want = oracle.remove(&s);
                    prop_assert_eq!(got, want);
                }
                _ => {
                    // Query on a random single column with full projection.
                    let col = ["a", "b", "c", "d"][(a.unsigned_abs() as usize) % 4];
                    let pat = schema.tuple(&[(col, Value::from(bb))]).unwrap();
                    let got = rel.query(&pat, schema.columns()).unwrap();
                    prop_assert_eq!(got, oracle.query(&pat, schema.columns()));
                }
            }
        }
        let final_rel = rel.verify().map_err(TestCaseError::fail)?;
        let final_oracle: std::collections::BTreeSet<Tuple> =
            oracle.snapshot().into_iter().collect();
        prop_assert_eq!(final_rel, final_oracle);

        // Full-tuple removal drains the relation through every branch.
        for t in oracle.snapshot() {
            prop_assert_eq!(rel.remove(&t).unwrap(), 1);
        }
        prop_assert!(rel.verify().map_err(TestCaseError::fail)?.is_empty());
        let _ = tuple4; // helper retained for debugging sessions
    }
}
