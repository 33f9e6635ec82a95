//! Tier-1 exhaustive run of the lock-discipline analyzer: every standard
//! decomposition × placement × operation shape × bound-column subset must
//! pass with zero diagnostics, and every seeded violation class must be
//! flagged with a step-level diagnostic naming the token(s) involved.

use std::sync::Arc;

use relc::analysis::{Analyzer, AnalyzerOptions, DiagnosticKind};
use relc::decomp::library;
use relc::placement::LockPlacement;
use relc::Decomposition;
use relc_containers::ContainerKind;

fn standard_decomps() -> Vec<(&'static str, Arc<Decomposition>)> {
    vec![
        (
            "stick(chm,tm)",
            library::stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap),
        ),
        (
            "stick(tm,tm)",
            library::stick(ContainerKind::TreeMap, ContainerKind::TreeMap),
        ),
        (
            "stick(cslm,chm)",
            library::stick(
                ContainerKind::ConcurrentSkipListMap,
                ContainerKind::ConcurrentHashMap,
            ),
        ),
        (
            "split(chm,tm)",
            library::split(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap),
        ),
        (
            "diamond(chm,tm)",
            library::diamond(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap),
        ),
        ("dcache", library::dcache()),
        (
            "kv(cslm)",
            library::kv(ContainerKind::ConcurrentSkipListMap),
        ),
    ]
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

/// The positive half of the oracle: no false positives anywhere in the
/// standard library.
#[test]
fn standard_library_passes_clean() {
    for (dname, d) in standard_decomps() {
        for p in standard_placements(&d) {
            let analyzer = Analyzer::new(Arc::clone(&d), Arc::clone(&p));
            let diags = analyzer.analyze_all();
            assert!(
                diags.is_empty(),
                "{dname} under `{}`: expected a clean report, got:\n{}",
                p.name(),
                diags
                    .iter()
                    .map(|x| format!("  {x}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }
}

/// A placement hosting a root edge at its *destination* (which does not
/// dominate the source) must be rejected both structurally and — via the
/// unbound-host lock site — symbolically.
#[test]
fn seeded_non_dominating_host_flagged() {
    let d = library::stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let mut b = LockPlacement::builder(Arc::clone(&d));
    for (e, em) in d.edges() {
        if em.src == d.root() {
            b.place(e, em.dst); // host below the edge: no domination
        } else {
            b.place(e, em.src);
        }
    }
    let p = b.named("seeded-bad-host").build_unchecked().unwrap();
    let analyzer = Analyzer::new(Arc::clone(&d), p);
    let diags = analyzer.analyze_all();
    assert!(
        diags
            .iter()
            .any(|x| x.kind == DiagnosticKind::NonDominatingHost),
        "structural non-domination not flagged: {diags:?}"
    );
    assert!(
        diags.iter().any(|x| x.kind == DiagnosticKind::HostUnbound),
        "symbolic manifestation (unbound host at a lock site) not flagged"
    );
}

/// Path-sharing (§4.3 condition 2): a mid-chain edge hosted at the root
/// while the path edge to its source keeps its own lock.
#[test]
fn seeded_path_sharing_violation_flagged() {
    let d = library::stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let mut b = LockPlacement::builder(Arc::clone(&d));
    for (e, em) in d.edges() {
        // Fine placement except the leaf edge, hosted at the root: the
        // root→v path runs through u→v, whose lock lives at u — not the
        // root lock the leaf edge claims protects the path.
        let host = if d.node(em.src).name == "v" {
            d.root()
        } else {
            em.src
        };
        b.place(e, host);
    }
    let p = b.named("seeded-path-sharing").build_unchecked().unwrap();
    let analyzer = Analyzer::new(Arc::clone(&d), p);
    let diags = analyzer.check_placement();
    assert!(
        diags
            .iter()
            .any(|x| x.kind == DiagnosticKind::PathSharingViolated),
        "path-sharing violation not flagged: {diags:?}"
    );
}

/// A bulk sweep that forgets the global token sort must be flagged on the
/// striped placements (two comparable stripes of one instance inverted).
#[test]
fn seeded_unsorted_sweep_flagged() {
    let d = library::stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let p = LockPlacement::striped_root(&d, 2).unwrap();
    let opts = AnalyzerOptions {
        suppress_sweep_sort: true,
        ..Default::default()
    };
    let analyzer = Analyzer::with_options(Arc::clone(&d), p, opts);
    // bound = {dst}: the existence check scans the src level, forcing an
    // all-stripe root sweep — exactly the batch whose sort matters.
    let dst = d.schema().column_set(&["dst"]).unwrap();
    let diags = analyzer.analyze_insert(dst).unwrap();
    let hit = diags
        .iter()
        .find(|x| x.kind == DiagnosticKind::UnsortedSweep)
        .unwrap_or_else(|| panic!("unsorted sweep not flagged: {diags:?}"));
    assert_eq!(hit.tokens.len(), 2, "diagnostic must name the token pair");
}

/// Undoing the planner's mode-promotion pass under a coarse placement must
/// surface as a shared→exclusive upgrade on the shared root lock.
#[test]
fn seeded_missing_promotion_flagged() {
    let d = library::stick(
        ContainerKind::ConcurrentHashMap,
        ContainerKind::ConcurrentHashMap,
    );
    let p = LockPlacement::coarse(&d).unwrap();
    let opts = AnalyzerOptions {
        suppress_promotion: true,
        ..Default::default()
    };
    let analyzer = Analyzer::with_options(Arc::clone(&d), Arc::clone(&p), opts);
    let bound = d.schema().column_set(&["src", "dst"]).unwrap();
    let updated = d.schema().column_set(&["weight"]).unwrap();
    let diags = analyzer.analyze_update(bound, updated).unwrap();
    let hit = diags
        .iter()
        .find(|x| x.kind == DiagnosticKind::SharedToExclusiveUpgrade)
        .unwrap_or_else(|| panic!("missing promotion not flagged: {diags:?}"));
    assert!(hit.step.is_some(), "diagnostic must name the plan step");
    // Sanity: with the real promotion pass the same shape is clean.
    let ok = Analyzer::new(Arc::clone(&d), p)
        .analyze_update(bound, updated)
        .unwrap();
    assert!(ok.is_empty(), "promoted plan should be clean: {ok:?}");
}

/// Dropping the `mvcc_write` mirror at one edge's mutation sites must be
/// flagged on every operation that writes the edge.
#[test]
fn seeded_missing_mvcc_mirror_flagged() {
    let d = library::stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let p = LockPlacement::fine(&d).unwrap();
    let weight_edge = d
        .edges()
        .find(|(_, em)| d.node(em.dst).name == "w")
        .map(|(e, _)| e)
        .unwrap();
    let opts = AnalyzerOptions {
        suppress_mirror: Some(weight_edge),
        ..Default::default()
    };
    let analyzer = Analyzer::with_options(Arc::clone(&d), p, opts);
    let key = d.schema().column_set(&["src", "dst"]).unwrap();
    for diags in [
        analyzer.analyze_insert(key).unwrap(),
        analyzer.analyze_remove(key).unwrap(),
    ] {
        assert!(
            diags
                .iter()
                .any(|x| x.kind == DiagnosticKind::MissingMvccMirror),
            "missing MVCC mirror not flagged: {diags:?}"
        );
    }
}

/// Claiming §5.2 sort elision on a chain whose scan order is not the token
/// order must be flagged.
#[test]
fn seeded_unsound_presort_flagged() {
    // ConcurrentHashMap scans are unsorted: no lock step after its scan
    // may claim a presorted batch.
    let d = library::stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let p = LockPlacement::fine(&d).unwrap();
    let opts = AnalyzerOptions {
        force_presorted: true,
        ..Default::default()
    };
    let analyzer = Analyzer::with_options(Arc::clone(&d), p, opts);
    let diags = analyzer.analyze_query(relc_spec::ColumnSet::new(), d.schema().columns());
    let diags = diags.unwrap();
    assert!(
        diags
            .iter()
            .any(|x| x.kind == DiagnosticKind::PresortedUnsound),
        "unsound presort claim not flagged: {diags:?}"
    );
}

/// A range scan can visit entries in every stripe of its host; an
/// executor that locks only one stripe — as if the interval routed the
/// traversal the way a point lookup's key does — must be flagged as an
/// uncovered read under a striped placement.
#[test]
fn seeded_under_locked_range_scan_flagged() {
    let d = library::stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let p = LockPlacement::striped_root(&d, 2).unwrap();
    let opts = AnalyzerOptions {
        demote_range_lock: true,
        ..Default::default()
    };
    let analyzer = Analyzer::with_options(Arc::clone(&d), Arc::clone(&p), opts);
    let src = d.schema().column("src").unwrap();
    let diags = analyzer
        .analyze_query_range(relc_spec::ColumnSet::new(), src, d.schema().columns())
        .unwrap();
    assert!(
        diags
            .iter()
            .any(|x| x.kind == DiagnosticKind::UncoveredRead),
        "under-locked range scan not flagged: {diags:?}"
    );
    // Sanity: the planner's real range plan (all stripes locked) is clean.
    let ok = Analyzer::new(Arc::clone(&d), p)
        .analyze_query_range(relc_spec::ColumnSet::new(), src, d.schema().columns())
        .unwrap();
    assert!(ok.is_empty(), "standard range plan should be clean: {ok:?}");
}

/// A migration fence that sweeps only the *first* stripe of each
/// root-hosted edge leaves the remaining stripes unlocked, so the frozen
/// cut and the bulk-load publication are both under-protected; under a
/// striped placement this must surface as uncovered reads/writes.
#[test]
fn seeded_under_locked_migration_fence_flagged() {
    let d = library::stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let p = LockPlacement::striped_root(&d, 8).unwrap();
    let opts = AnalyzerOptions {
        suppress_migration_fence: true,
        ..Default::default()
    };
    let diags = Analyzer::with_options(Arc::clone(&d), Arc::clone(&p), opts).analyze_migration();
    assert!(
        diags
            .iter()
            .any(|x| x.kind == DiagnosticKind::UncoveredRead
                || x.kind == DiagnosticKind::UncoveredWrite),
        "under-locked migration cutover not flagged: {diags:?}"
    );
    // Sanity: the real fence (all-stripe exclusive sweep) is clean.
    let ok = Analyzer::new(d, p).analyze_migration();
    assert!(ok.is_empty(), "full-fence cutover should be clean: {ok:?}");
}

/// The one lock rollback still asks of a write: an insert that is not its
/// attempt's last write — a row of a batch, the re-insert of a general
/// update inside a longer transaction — holds the target-side lock of every
/// §4.5 speculative child it publishes. An executor that never takes it
/// must be flagged wherever a speculative edge is written.
#[test]
fn seeded_unlocked_speculative_publication_flagged() {
    let d = library::split(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let p = LockPlacement::speculative(&d, 4).unwrap();
    let opts = AnalyzerOptions {
        suppress_published_target_lock: true,
        ..Default::default()
    };
    let analyzer = Analyzer::with_options(Arc::clone(&d), Arc::clone(&p), opts);
    let key = d.schema().column_set(&["src", "dst"]).unwrap();
    for diags in [
        analyzer.analyze_insert(key).unwrap(),
        analyzer.analyze_insert_all(key).unwrap(),
    ] {
        let hit = diags
            .iter()
            .find(|x| x.kind == DiagnosticKind::UncoveredWrite)
            .unwrap_or_else(|| panic!("unlocked publication not flagged: {diags:?}"));
        assert!(hit.step.is_some(), "diagnostic must name the plan step");
        assert_eq!(hit.tokens.len(), 1, "diagnostic must name the target token");
    }
    // Sanity: with the target locks taken the same shapes are clean, and
    // a placement without speculative edges has nothing to flag.
    let ok = Analyzer::new(Arc::clone(&d), p)
        .analyze_insert_all(key)
        .unwrap();
    assert!(ok.is_empty(), "locked publication should be clean: {ok:?}");
    let opts = AnalyzerOptions {
        suppress_published_target_lock: true,
        ..Default::default()
    };
    let fine = LockPlacement::fine(&d).unwrap();
    let ok = Analyzer::with_options(d, fine, opts)
        .analyze_insert(key)
        .unwrap();
    assert!(
        ok.is_empty(),
        "no speculative edge, nothing to hold: {ok:?}"
    );
}

/// Disabling the cross-shard try-only demotion must surface as an
/// out-of-order acquisition in the lexicographic (shard, token) model.
#[test]
fn seeded_shard_demotion_bypass_flagged() {
    let d = library::kv(ContainerKind::ConcurrentHashMap);
    let p = LockPlacement::fine(&d).unwrap();
    let opts = AnalyzerOptions {
        suppress_shard_demotion: true,
        ..Default::default()
    };
    let diags =
        Analyzer::with_options(Arc::clone(&d), Arc::clone(&p), opts).analyze_sharded_order();
    assert!(
        diags.iter().any(|x| x.kind == DiagnosticKind::OutOfOrder),
        "lower-shard blocking revisit not flagged: {diags:?}"
    );
    assert!(
        Analyzer::new(d, p).analyze_sharded_order().is_empty(),
        "demoted revisit must be clean"
    );
}
