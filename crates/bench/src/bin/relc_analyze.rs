//! **Lock-discipline report** — runs the static §4.3/§5.1 analyzer
//! (`relc::analysis`) over the standard decomposition library under every
//! standard lock placement, printing one line per combination and every
//! diagnostic the symbolic executor raises. `analyze_all` covers every
//! plan shape per combination: queries and existence checks over every
//! bound-column subset, range queries (`RangeScan` plans, ordered and
//! fallback) over every free column, inserts, removes, and updates.
//!
//! Exits nonzero if any combination produces a diagnostic, so it doubles
//! as a CI gate:
//!
//! ```text
//! cargo run -p relc-bench --bin relc-analyze
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use relc::analysis::Analyzer;
use relc::decomp::library;
use relc::placement::LockPlacement;
use relc::Decomposition;
use relc_bench::Args;
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

fn main() -> ExitCode {
    Args::from_env("relc-analyze", &[], &[]);
    let mut combos = 0usize;
    let mut violations = 0usize;
    println!("lock-discipline report: static verification of every plan shape\n");
    for (dname, d) in standard_decomps() {
        for p in standard_placements(&d) {
            combos += 1;
            let analyzer = Analyzer::new(Arc::clone(&d), Arc::clone(&p));
            let diags = analyzer.analyze_all();
            if diags.is_empty() {
                println!("  PASS  {dname:<16} {}", p.name());
            } else {
                violations += diags.len();
                println!(
                    "  FAIL  {dname:<16} {}  ({} diagnostic{})",
                    p.name(),
                    diags.len(),
                    if diags.len() == 1 { "" } else { "s" }
                );
                for diag in &diags {
                    println!("          {diag}");
                }
            }
        }
    }
    println!(
        "\n{combos} decomposition x placement combinations; {violations} violation{}",
        if violations == 1 { "" } else { "s" }
    );
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
