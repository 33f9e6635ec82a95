//! Property tests for the lock-discipline analyzer over *randomly
//! generated* decomposition structures (same trie generator as
//! `proptest_random_decomps`):
//!
//! * **no false positives** — every placement the §4.3 validator accepts
//!   passes `analyze_all` clean, whatever the decomposition shape;
//! * **no false negatives** — seeding a violation into a random structure
//!   (forgotten MVCC mirror, edge hosted below its source, unsorted
//!   stripe sweep) is always flagged with the expected diagnostic kind.
//!
//! The deterministic per-class battery lives in `tests/analysis.rs`; this
//! file checks the oracle generalizes beyond the standard library shapes.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use relc::analysis::{Analyzer, AnalyzerOptions, DiagnosticKind};
use relc::placement::LockPlacement;
use relc::{Decomposition, EdgeId};
use relc_containers::ContainerKind;
use relc_spec::{ColumnSet, RelationSchema};

const COLS: [&str; 4] = ["a", "b", "c", "d"];

fn schema() -> Arc<RelationSchema> {
    RelationSchema::builder()
        .column("a")
        .column("b")
        .column("c")
        .column("d")
        .fd(&["a"], &["b", "c", "d"])
        .build()
}

/// An ordered partition of {0,1,2,3} into 1..=4 groups.
fn partition_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    (Just([0usize, 1, 2, 3]), 0u8..27).prop_perturb(|(mut cols, splits), mut rng| {
        for i in (1..cols.len()).rev() {
            let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
            cols.swap(i, j);
        }
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

/// Trie decomposition from 1..=3 ordered partitions (adequate by
/// construction); identical to the generator in `proptest_random_decomps`.
fn build_decomposition(
    partitions: &[Vec<Vec<usize>>],
    containers: &[ContainerKind],
) -> Arc<Decomposition> {
    let schema = schema();
    let mut b = Decomposition::builder(schema.clone());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No false positives: whatever random structure the validator
    /// accepts, the symbolic executor finds nothing to complain about in
    /// any plan shape.
    #[test]
    fn valid_random_placements_pass_the_analyzer(
        partitions in proptest::collection::vec(partition_strategy(), 1..4),
        containers in proptest::collection::vec(container_strategy(), 1..6),
        placement_pick in 0u8..4,
    ) {
        let d = build_decomposition(&partitions, &containers);
        let p = match placement_pick {
            0 => LockPlacement::coarse(&d).ok(),
            1 => LockPlacement::fine(&d).ok(),
            2 => LockPlacement::striped_root(&d, 4).ok(),
            _ => LockPlacement::speculative(&d, 4).ok(),
        };
        let Some(p) = p else { return Ok(()); }; // container-incompatible
        let diags = Analyzer::new(Arc::clone(&d), Arc::clone(&p)).analyze_all();
        prop_assert!(
            diags.is_empty(),
            "false positives under `{}`: {:?}",
            p.name(),
            diags.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No false negatives (version-push omission): forgetting the version
    /// push on *any* edge of *any* structure is flagged on the insert
    /// path, which writes every edge of a fresh tuple.
    #[test]
    fn forgotten_mirror_is_always_rejected(
        partitions in proptest::collection::vec(partition_strategy(), 1..4),
        containers in proptest::collection::vec(container_strategy(), 1..6),
        edge_pick in 0usize..16,
    ) {
        let d = build_decomposition(&partitions, &containers);
        let Ok(p) = LockPlacement::fine(&d) else { return Ok(()); };
        let edges: Vec<EdgeId> = d.edges().map(|(e, _)| e).collect();
        let victim = edges[edge_pick % edges.len()];
        let opts = AnalyzerOptions {
            suppress_mirror: Some(victim),
            ..Default::default()
        };
        let analyzer = Analyzer::with_options(Arc::clone(&d), p, opts);
        let diags = analyzer
            .analyze_insert(d.schema().columns())
            .expect("full-bound inserts always plan");
        prop_assert!(
            diags.iter().any(|x| x.kind == DiagnosticKind::MissingMvccMirror),
            "mirror omission on edge {victim:?} not flagged: {diags:?}"
        );
    }

    /// No false negatives (domination): hosting any edge at its
    /// destination — strictly below the source in the trie — can never
    /// dominate, and the structural pass must say so.
    #[test]
    fn dst_hosting_is_always_rejected(
        partitions in proptest::collection::vec(partition_strategy(), 1..4),
        containers in proptest::collection::vec(container_strategy(), 1..6),
        edge_pick in 0usize..16,
    ) {
        let d = build_decomposition(&partitions, &containers);
        let edges: Vec<EdgeId> = d.edges().map(|(e, _)| e).collect();
        let victim = edges[edge_pick % edges.len()];
        let mut b = LockPlacement::builder(Arc::clone(&d));
        for (e, em) in d.edges() {
            b.place(e, if e == victim { em.dst } else { em.src });
        }
        let Ok(p) = b.named("prop-bad-host").build_unchecked() else { return Ok(()); };
        let diags = Analyzer::new(Arc::clone(&d), p).check_placement();
        prop_assert!(
            diags.iter().any(|x| x.kind == DiagnosticKind::NonDominatingHost),
            "dst-hosted edge {victim:?} not flagged: {diags:?}"
        );
    }

    /// No false negatives (sweep order): a striped root with its stripe
    /// columns unbound sweeps every stripe; skipping the global sort must
    /// surface as an unsorted sweep on some insert shape.
    #[test]
    fn unsorted_stripe_sweep_is_always_rejected(
        partitions in proptest::collection::vec(partition_strategy(), 1..4),
        containers in proptest::collection::vec(container_strategy(), 1..6),
    ) {
        let d = build_decomposition(&partitions, &containers);
        let Ok(p) = LockPlacement::striped_root(&d, 4) else { return Ok(()); };
        let opts = AnalyzerOptions {
            suppress_sweep_sort: true,
            ..Default::default()
        };
        let analyzer = Analyzer::with_options(Arc::clone(&d), p, opts);
        // Empty bound leaves the stripe columns unbound, so the sweep
        // takes all four stripes of each root-hosted edge.
        let diags = analyzer
            .analyze_insert(ColumnSet::new())
            .expect("unbound inserts always plan");
        prop_assert!(
            diags.iter().any(|x| x.kind == DiagnosticKind::UnsortedSweep),
            "reversed stripe sweep not flagged: {diags:?}"
        );
    }
}
