//! Tier-1 exhaustive run of the lock-discipline analyzer: every standard
//! decomposition × placement × operation shape × bound-column subset must
//! pass with zero diagnostics, and every seeded violation class must be
//! flagged with a step-level diagnostic naming the token(s) involved.

use std::sync::Arc;

use relc::analysis::{Analyzer, AnalyzerOptions, DiagnosticKind};
use relc::decomp::library;
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, Decomposition};
use relc_containers::ContainerKind;
use relc_spec::{ColumnSet, Tuple, Value};

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

/// Dropping the version push at one edge's mutation sites must be flagged
/// on every operation that writes the edge: on a fused tail
/// (`stick(ConcurrentHashMap, TreeMap)`'s `v→w`, written in `u→v`'s
/// `TreeMap` entries), and on a `ConcurrentSkipListMap` root edge. Every
/// edge is its version index alone, so the push is its one write site.
#[test]
fn seeded_missing_mvcc_mirror_flagged() {
    for (root, tail, lost) in [
        (ContainerKind::ConcurrentHashMap, "w", "version index alone"),
        (
            ContainerKind::ConcurrentSkipListMap,
            "u",
            "version index alone",
        ),
    ] {
        let d = library::stick(root, ContainerKind::TreeMap);
        let p = LockPlacement::fine(&d).unwrap();
        let suppressed = d
            .edges()
            .find(|(_, em)| d.node(em.dst).name == tail)
            .map(|(e, _)| e)
            .unwrap();
        let opts = AnalyzerOptions {
            suppress_mirror: Some(suppressed),
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
                    .any(|x| x.kind == DiagnosticKind::MissingMvccMirror && x.detail.contains(lost)),
                "{root:?} root, edge into {tail}: missing version push not flagged: {diags:?}"
            );
        }
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

/// Fusion moves a fused node's tail lock onto its parent edge, whose
/// entry now holds the tail's columns. A lowering that fused the node but
/// left the tail's lock where the logical placement put it would rewrite
/// that entry without its parent-host lock held exclusively: nothing
/// raises the parent's read lock, and the tail's own lock steps are gone
/// with the tail. The analyzer must reject the in-place update that writes
/// the dependent columns, and accept it once the lock has moved.
fn assert_unmoved_fused_lock_flagged(
    d: &Arc<Decomposition>,
    p: &Arc<LockPlacement>,
    fused: &str,
    key: &[&str],
    set: &[&str],
) {
    let node = d.node_by_name(fused).unwrap();
    let opts = AnalyzerOptions {
        unmoved_fused_lock: Some(node),
        ..Default::default()
    };
    let analyzer = Analyzer::with_options(Arc::clone(d), Arc::clone(p), opts);
    let (key, set) = (
        d.schema().column_set(key).unwrap(),
        d.schema().column_set(set).unwrap(),
    );
    let diags = analyzer.analyze_update(key, set).unwrap();
    let hit = diags
        .iter()
        .find(|x| {
            x.kind == DiagnosticKind::UncoveredWrite
                || x.kind == DiagnosticKind::SharedToExclusiveUpgrade
        })
        .unwrap_or_else(|| panic!("{fused}: unlocked fused write not flagged: {diags:?}"));
    assert!(
        hit.step.is_some(),
        "{fused}: diagnostic must name the plan step"
    );
    assert_eq!(
        hit.tokens.len(),
        1,
        "{fused}: diagnostic must name the parent's lock"
    );
    let ok = Analyzer::new(Arc::clone(d), Arc::clone(p))
        .analyze_update(key, set)
        .unwrap();
    assert!(
        ok.is_empty(),
        "{fused}: the lowered plan should be clean: {ok:?}"
    );
}

/// `stick`'s `v`: the weight lives in `u→v`'s entry, locked at `u`.
#[test]
fn seeded_under_locked_fused_stick_v_flagged() {
    let d = library::stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let p = LockPlacement::fine(&d).unwrap();
    assert_unmoved_fused_lock_flagged(&d, &p, "v", &["src", "dst"], &["weight"]);
}

/// `split`'s `w`: the weight lives in `u→w`'s entry, locked at `u` (`y`,
/// the mirror image, keeps its lock moved).
#[test]
fn seeded_under_locked_fused_split_w_flagged() {
    let d = library::split(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let p = LockPlacement::fine(&d).unwrap();
    assert_unmoved_fused_lock_flagged(&d, &p, "w", &["src", "dst"], &["weight"]);
}

/// `kv`'s `a`: the value lives in the root entry, locked on the root
/// stripe of its key.
#[test]
fn seeded_under_locked_fused_kv_a_flagged() {
    let d = library::kv(ContainerKind::ConcurrentSkipListMap);
    let p = LockPlacement::striped_root(&d, 8).unwrap();
    assert_unmoved_fused_lock_flagged(&d, &p, "a", &["key"], &["value"]);
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

/// A graph-schema decomposition whose first edge binds (src, weight): a
/// weight update moves the tuple, so it takes the general unlink +
/// re-insert plan — the one update shape no standard decomposition has.
fn weight_in_mid_key() -> Arc<Decomposition> {
    let mut b = Decomposition::builder(relc_spec::library::graph_schema());
    let root = b.root();
    let a = b.node("a");
    let c = b.node("c");
    b.edge(root, a, &["src", "weight"], ContainerKind::HashMap)
        .unwrap();
    b.edge(a, c, &["dst"], ContainerKind::HashMap).unwrap();
    b.build().unwrap()
}

/// An operation's result for the footprint table: the value, or only the
/// error's variant (its message is not part of the footprint).
fn outcome<T: std::fmt::Debug>(r: Result<T, relc::CoreError>) -> String {
    match r {
        Ok(v) => format!("{v:?}"),
        Err(e) => {
            let debug = format!("{e:?}");
            format!("Err({})", debug.split('(').next().unwrap_or_default())
        }
    }
}

/// The lock-stat delta of each single-shot mutation shape on a fresh
/// four-row relation, one `(case, outcome and delta)` pair per shape:
/// insert of a fresh and of a present key, and of a fresh row by each
/// one-column pattern; remove of a present and an
/// absent tuple by every key of the schema (smallest first); one update
/// of the non-key columns by the smallest key; `insert_all` of fresh rows,
/// of a present and a fresh row, and of a fresh row twice (the second
/// with another payload); `remove_all` of present, absent and present
/// keys. Rows are `r·10 + column`,
/// so `row(7)` is absent and its values collide with no preloaded row.
fn footprint_cases(d: &Arc<Decomposition>, p: &Arc<LockPlacement>) -> Vec<(String, String)> {
    let schema = d.schema();
    let all = schema.columns();
    let cols: Vec<_> = all.iter().collect();
    let mut keys: Vec<ColumnSet> = (1u32..1 << cols.len())
        .map(|mask| {
            let mut s = ColumnSet::new();
            for (i, &c) in cols.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(c);
                }
            }
            s
        })
        .filter(|&s| schema.is_key(s))
        .collect();
    keys.sort_by_key(|s| (s.len(), s.bits()));
    let (key, payload) = (keys[0], all.difference(keys[0]));
    let row = |r: i64| {
        Tuple::from_pairs(
            all.iter()
                .map(|c| (c, Value::from(r * 10 + c.index() as i64))),
        )
    };
    let measure = |op: &dyn Fn(&ConcurrentRelation) -> String| {
        let rel = ConcurrentRelation::new(Arc::clone(d), Arc::clone(p)).unwrap();
        for r in 0..4 {
            let x = row(r);
            assert!(rel.insert(&x.project(key), &x.project(payload)).unwrap());
        }
        let before = rel.lock_stats();
        let outcome = op(&rel);
        let after = rel.lock_stats();
        format!(
            "{outcome} acq={} restarts={} upgrades={} spec_fail={}",
            after.acquisitions - before.acquisitions,
            after.restarts - before.restarts,
            after.upgrades - before.upgrades,
            after.speculation_failures - before.speculation_failures
        )
    };
    let insert = |r: i64, s: ColumnSet| {
        move |rel: &ConcurrentRelation| {
            let x = row(r).override_with(&row(7).project(all.difference(s)));
            outcome(rel.insert(&x.project(s), &x.project(all.difference(s))))
        }
    };
    let mut cases = vec![
        ("insert fresh".to_owned(), measure(&insert(7, key))),
        ("insert present".to_owned(), measure(&insert(1, key))),
    ];
    // A pattern over one column: wherever no lookup chain binds it, the
    // existence check scans, and the root sweep takes every stripe.
    for c in all.iter() {
        let s = ColumnSet::single(c);
        let name = schema.catalog().render_set(s);
        cases.push((format!("insert fresh {name}"), measure(&insert(7, s))));
    }
    for &k in &keys {
        let name = schema.catalog().render_set(k);
        for (what, r) in [("present", 1), ("absent", 7)] {
            let out = measure(&|rel| outcome(rel.remove(&row(r).project(k))));
            cases.push((format!("remove {what} {name}"), out));
        }
    }
    let plan = ConcurrentRelation::new(Arc::clone(d), Arc::clone(p))
        .unwrap()
        .planner()
        .plan_update(key, payload);
    let kind = match plan {
        Ok(plan) if plan.is_in_place() => "update in-place",
        Ok(_) => "update general",
        Err(_) => "update unplannable",
    };
    let out = measure(&|rel| {
        let old = rel.update(&row(1).project(key), &row(7).project(payload));
        outcome(old.map(|o| o.is_some()))
    });
    cases.push((kind.to_owned(), out));
    // Batches: the root sweep over every row, then each row's body; the
    // duplicate row finds the first one's tuple as a single insert would.
    let insert_all = |rows: &[(i64, i64)]| {
        let rows: Vec<(Tuple, Tuple)> = rows
            .iter()
            .map(|&(k, t)| (row(k).project(key), row(t).project(payload)))
            .collect();
        move |rel: &ConcurrentRelation| outcome(rel.insert_all(&rows))
    };
    for (name, rows) in [
        ("insert_all fresh", &[(7, 7), (8, 8)][..]),
        ("insert_all present", &[(1, 1), (8, 8)]),
        ("insert_all dup", &[(7, 7), (8, 8), (7, 9)]),
    ] {
        cases.push((name.to_owned(), measure(&insert_all(rows))));
    }
    let remove_keys: Vec<Tuple> = [1, 7, 2].map(|r| row(r).project(key)).into();
    let out = measure(&|rel| outcome(rel.remove_all(&remove_keys)));
    cases.push(("remove_all".to_owned(), out));
    cases
}

/// The lock footprint of every mutation shape, pinned: acquisitions,
/// restarts, upgrades and failed speculations of each single-threaded
/// case of [`footprint_cases`], over every standard decomposition ×
/// placement plus [`weight_in_mid_key`] (for the general update). A
/// change to how a mutation locates, checks or sweeps that takes a
/// different lock set — the all-stripe root sweep of an insert whose
/// existence check scans included — shows up here as a changed row.
#[test]
fn lock_footprint_table() {
    let mut decomps = standard_decomps();
    decomps.push(("mid-key(hm)", weight_in_mid_key()));
    let mut got = Vec::new();
    for (dname, d) in decomps {
        for p in standard_placements(&d) {
            for (case, out) in footprint_cases(&d, &p) {
                got.push(format!("{dname} | {} | {case} | {out}", p.name()));
            }
        }
    }
    let expected: Vec<&str> = LOCK_FOOTPRINT.lines().filter(|l| !l.is_empty()).collect();
    let diffs: Vec<String> = got
        .iter()
        .zip(&expected)
        .filter(|(g, e)| g != e)
        .map(|(g, e)| format!("  expected {e}\n  got      {g}"))
        .collect();
    assert!(
        diffs.is_empty() && got.len() == expected.len(),
        "lock footprint changed ({} rows, expected {}):\n{}\nfull table:\n{}",
        got.len(),
        expected.len(),
        diffs.join("\n"),
        got.join("\n")
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

/// [`lock_footprint_table`]'s expected rows: `decomposition | placement |
/// case | outcome and lock-stat delta`.
const LOCK_FOOTPRINT: &str = "
stick(chm,tm) | coarse | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | remove present {src, dst} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | remove present {src, dst, weight} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | update in-place | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | insert_all present | [false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | insert_all dup | [true, true, false] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | coarse | remove_all | [true, false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | insert present | false acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | remove present {src, dst} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | remove present {src, dst, weight} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | update in-place | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | insert_all present | [false, true] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | insert_all dup | [true, true, false] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | fine | remove_all | [true, false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | insert present | false acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | insert fresh {dst} | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | insert fresh {weight} | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | remove present {src, dst} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | remove present {src, dst, weight} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | update in-place | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | insert_all present | [false, true] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | insert_all dup | [true, true, false] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(2) | remove_all | [true, false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | insert present | false acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | insert fresh {dst} | true acq=8 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | insert fresh {weight} | true acq=8 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | remove present {src, dst} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | remove present {src, dst, weight} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | update in-place | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | insert_all fresh | [true, true] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | insert_all present | [false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | insert_all dup | [true, true, false] acq=3 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | striped(8) | remove_all | [true, false, true] acq=5 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | insert present | false acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | insert fresh {dst} | Err(NoValidPlan) acq=0 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | insert fresh {weight} | Err(NoValidPlan) acq=0 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | remove present {src, dst} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | remove present {src, dst, weight} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | update in-place | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | insert_all fresh | [true, true] acq=4 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | insert_all present | [false, true] acq=4 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | insert_all dup | [true, true, false] acq=4 restarts=0 upgrades=0 spec_fail=0
stick(chm,tm) | speculative(4) | remove_all | [true, false, true] acq=4 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | remove present {src, dst} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | remove present {src, dst, weight} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | update in-place | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | insert_all present | [false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | insert_all dup | [true, true, false] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | coarse | remove_all | [true, false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | insert present | false acq=2 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | remove present {src, dst} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | remove present {src, dst, weight} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | update in-place | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | insert_all present | [false, true] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | insert_all dup | [true, true, false] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(tm,tm) | fine | remove_all | [true, false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | remove present {src, dst} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | remove present {src, dst, weight} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | update in-place | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | insert_all present | [false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | insert_all dup | [true, true, false] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | coarse | remove_all | [true, false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | insert present | false acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | remove present {src, dst} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | remove present {src, dst, weight} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | update in-place | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | insert_all present | [false, true] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | insert_all dup | [true, true, false] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | fine | remove_all | [true, false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | insert present | false acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | insert fresh {dst} | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | insert fresh {weight} | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | remove present {src, dst} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | remove present {src, dst, weight} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | update in-place | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | insert_all present | [false, true] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | insert_all dup | [true, true, false] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(2) | remove_all | [true, false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | insert present | false acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | insert fresh {dst} | true acq=8 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | insert fresh {weight} | true acq=8 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | remove present {src, dst} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | remove present {src, dst, weight} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | update in-place | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | insert_all fresh | [true, true] acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | insert_all present | [false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | insert_all dup | [true, true, false] acq=3 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | striped(8) | remove_all | [true, false, true] acq=5 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | insert present | false acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | insert fresh {dst} | Err(NoValidPlan) acq=0 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | insert fresh {weight} | Err(NoValidPlan) acq=0 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | remove present {src, dst} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | remove present {src, dst, weight} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | update in-place | true acq=2 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | insert_all fresh | [true, true] acq=4 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | insert_all present | [false, true] acq=4 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | insert_all dup | [true, true, false] acq=4 restarts=0 upgrades=0 spec_fail=0
stick(cslm,chm) | speculative(4) | remove_all | [true, false, true] acq=4 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | remove present {src, dst} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | remove present {src, dst, weight} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | update in-place | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | insert_all present | [false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | insert_all dup | [true, true, false] acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | coarse | remove_all | [true, false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | insert present | false acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | remove present {src, dst} | 1 acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | remove present {src, dst, weight} | 1 acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | update in-place | true acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | insert_all present | [false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | insert_all dup | [true, true, false] acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | fine | remove_all | [true, false, true] acq=5 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | insert present | false acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | insert fresh {weight} | true acq=2 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | remove present {src, dst} | 1 acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | remove present {src, dst, weight} | 1 acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | update in-place | true acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | insert_all present | [false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | insert_all dup | [true, true, false] acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(2) | remove_all | [true, false, true] acq=5 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | insert present | false acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | insert fresh {weight} | true acq=8 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | remove present {src, dst} | 1 acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | remove present {src, dst, weight} | 1 acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | update in-place | true acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | insert_all fresh | [true, true] acq=2 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | insert_all present | [false, true] acq=4 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | insert_all dup | [true, true, false] acq=4 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | striped(8) | remove_all | [true, false, true] acq=7 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | insert present | false acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | insert fresh {weight} | Err(NoValidPlan) acq=0 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | remove present {src, dst} | 1 acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | remove present {src, dst, weight} | 1 acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | update in-place | true acq=3 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | insert_all fresh | [true, true] acq=6 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | insert_all present | [false, true] acq=6 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | insert_all dup | [true, true, false] acq=6 restarts=0 upgrades=0 spec_fail=0
split(chm,tm) | speculative(4) | remove_all | [true, false, true] acq=6 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | remove present {src, dst} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | remove present {src, dst, weight} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | update in-place | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | insert_all present | [false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | insert_all dup | [true, true, false] acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | coarse | remove_all | [true, false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | insert present | false acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | remove present {src, dst} | 1 acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | remove present {src, dst, weight} | 1 acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | update in-place | true acq=3 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | insert_all present | [false, true] acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | insert_all dup | [true, true, false] acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | fine | remove_all | [true, false, true] acq=7 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | insert present | false acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | insert fresh {weight} | true acq=2 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | remove present {src, dst} | 1 acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | remove present {src, dst, weight} | 1 acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | update in-place | true acq=3 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | insert_all present | [false, true] acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | insert_all dup | [true, true, false] acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(2) | remove_all | [true, false, true] acq=7 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | insert present | false acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | insert fresh {weight} | true acq=8 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | remove present {src, dst} | 1 acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | remove present {src, dst, weight} | 1 acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | update in-place | true acq=3 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | insert_all fresh | [true, true] acq=2 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | insert_all present | [false, true] acq=5 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | insert_all dup | [true, true, false] acq=5 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | striped(8) | remove_all | [true, false, true] acq=9 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | insert present | false acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | insert fresh {weight} | Err(NoValidPlan) acq=0 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | remove present {src, dst} | 1 acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | remove present {src, dst, weight} | 1 acq=4 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | update in-place | true acq=3 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | insert_all fresh | [true, true] acq=6 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | insert_all present | [false, true] acq=7 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | insert_all dup | [true, true, false] acq=7 restarts=0 upgrades=0 spec_fail=0
diamond(chm,tm) | speculative(4) | remove_all | [true, false, true] acq=8 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | insert fresh {parent} | true acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | insert fresh {name} | true acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | insert fresh {child} | true acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | remove present {parent, name} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | remove absent {parent, name} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | remove present {parent, name, child} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | remove absent {parent, name, child} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | update in-place | true acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | insert_all present | [false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | insert_all dup | [true, true, false] acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | coarse | remove_all | [true, false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | fine | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | fine | insert present | false acq=3 restarts=0 upgrades=0 spec_fail=0
dcache | fine | insert fresh {parent} | true acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | fine | insert fresh {name} | true acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | fine | insert fresh {child} | true acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | fine | remove present {parent, name} | 1 acq=3 restarts=0 upgrades=0 spec_fail=0
dcache | fine | remove absent {parent, name} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | fine | remove present {parent, name, child} | 1 acq=3 restarts=0 upgrades=0 spec_fail=0
dcache | fine | remove absent {parent, name, child} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | fine | update in-place | true acq=2 restarts=0 upgrades=0 spec_fail=0
dcache | fine | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
dcache | fine | insert_all present | [false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
dcache | fine | insert_all dup | [true, true, false] acq=3 restarts=0 upgrades=0 spec_fail=0
dcache | fine | remove_all | [true, false, true] acq=5 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | insert fresh {key} | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | insert fresh {value} | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | remove present {key} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | remove absent {key} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | remove present {key, value} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | remove absent {key, value} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | update in-place | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | insert_all present | [false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | insert_all dup | [true, true, false] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | coarse | remove_all | [true, false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | insert fresh {key} | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | insert fresh {value} | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | remove present {key} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | remove absent {key} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | remove present {key, value} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | remove absent {key, value} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | update in-place | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | insert_all present | [false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | insert_all dup | [true, true, false] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | fine | remove_all | [true, false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | insert fresh {key} | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | insert fresh {value} | true acq=2 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | remove present {key} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | remove absent {key} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | remove present {key, value} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | remove absent {key, value} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | update in-place | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | insert_all present | [false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | insert_all dup | [true, true, false] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(2) | remove_all | [true, false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | insert fresh {key} | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | insert fresh {value} | true acq=8 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | remove present {key} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | remove absent {key} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | remove present {key, value} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | remove absent {key, value} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | update in-place | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | insert_all fresh | [true, true] acq=2 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | insert_all present | [false, true] acq=2 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | insert_all dup | [true, true, false] acq=2 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | striped(8) | remove_all | [true, false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | insert present | false acq=2 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | insert fresh {key} | true acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | insert fresh {value} | Err(NoValidPlan) acq=0 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | remove present {key} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | remove absent {key} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | remove present {key, value} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | remove absent {key, value} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | update in-place | true acq=2 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | insert_all fresh | [true, true] acq=4 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | insert_all present | [false, true] acq=4 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | insert_all dup | [true, true, false] acq=4 restarts=0 upgrades=0 spec_fail=0
kv(cslm) | speculative(4) | remove_all | [true, false, true] acq=4 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | remove present {src, dst} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | remove present {src, dst, weight} | 1 acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | update general | true acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | insert_all present | [false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | insert_all dup | [true, true, false] acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | coarse | remove_all | [true, false, true] acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | insert fresh | true acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | insert present | false acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | insert fresh {src} | true acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | insert fresh {dst} | true acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | insert fresh {weight} | true acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | remove present {src, dst} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | remove absent {src, dst} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | remove present {src, dst, weight} | 1 acq=2 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | remove absent {src, dst, weight} | 0 acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | update general | true acq=2 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | insert_all fresh | [true, true] acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | insert_all present | [false, true] acq=2 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | insert_all dup | [true, true, false] acq=1 restarts=0 upgrades=0 spec_fail=0
mid-key(hm) | fine | remove_all | [true, false, true] acq=3 restarts=0 upgrades=0 spec_fail=0
";
