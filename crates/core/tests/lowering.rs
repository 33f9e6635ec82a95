//! Lowering is invisible outside instantiation: the plans a relation hands
//! out through `rel.planner()` are the logical ones, and they render under
//! `Planner::render` byte for byte as they did before Singleton tails were
//! fused. `LOGICAL_PLANS` pins every plan shape of every library
//! decomposition under every placement family that validates for it.

use std::fmt::Write;
use std::sync::Arc;

use relc::decomp::library;
use relc::placement::LockPlacement;
use relc::planner::UpdatePlan;
use relc::{ConcurrentRelation, Decomposition, Planner};
use relc_containers::ContainerKind;
use relc_spec::{ColumnId, ColumnSet};

fn library_shapes() -> Vec<(&'static str, Arc<Decomposition>)> {
    let (ch, tm) = (ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    vec![
        ("stick(chm,tm)", library::stick(ch, tm)),
        ("split(chm,tm)", library::split(ch, tm)),
        ("diamond(chm,tm)", library::diamond(ch, tm)),
        ("dcache", library::dcache()),
        ("kv(chm)", library::kv(ch)),
    ]
}

fn placement_families(d: &Arc<Decomposition>) -> Vec<Arc<LockPlacement>> {
    [
        LockPlacement::coarse(d).ok(),
        LockPlacement::fine(d).ok(),
        LockPlacement::striped_root(d, 8).ok(),
        LockPlacement::speculative(d, 4).ok(),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Every subset of `cols`, smallest mask first.
fn subsets(cols: &[ColumnId]) -> Vec<ColumnSet> {
    (0u32..1 << cols.len())
        .map(|mask| {
            let mut s = ColumnSet::new();
            for (i, &c) in cols.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(c);
                }
            }
            s
        })
        .collect()
}

/// One line per plan: `shape | placement | operation | rendered plan`,
/// the plan's lines joined by ` / `, or the planner's refusal.
fn render_all(planner: &Planner, prefix: &str, out: &mut String) {
    let d = planner.decomposition();
    let schema = d.schema();
    let name = |s: ColumnSet| schema.catalog().render_set(s);
    let mut line = |op: String, plan: Result<String, relc::CoreError>| {
        let rendered = match plan {
            Ok(text) => text.replace('\n', " / "),
            Err(e) => format!("{e:?}")
                .split('(')
                .next()
                .unwrap_or_default()
                .to_owned(),
        };
        writeln!(out, "{prefix} | {op} | {rendered}").unwrap();
    };
    let all = schema.columns();
    let cols: Vec<ColumnId> = all.iter().collect();
    for bound in subsets(&cols) {
        let b = name(bound);
        line(
            format!("query {b}"),
            planner.plan_query(bound, all).map(|p| planner.render(&p)),
        );
        for &c in cols.iter().filter(|&&c| !bound.contains(c)) {
            let plan = planner.plan_range(bound, c, all);
            line(
                format!("range {b} on {}", name(ColumnSet::single(c))),
                plan.map(|p| planner.render(&p)),
            );
        }
        line(
            format!("insert check {b}"),
            planner.plan_insert(bound).map(|p| planner.render(&p.check)),
        );
        line(
            format!("remove locate {b}"),
            planner
                .plan_remove(bound)
                .map(|p| planner.render(&p.locate)),
        );
        for updated in subsets(&cols) {
            if updated.is_empty() || !updated.is_disjoint(bound) || !schema.is_key(bound) {
                continue;
            }
            let plan = planner.plan_update(bound, updated).map(|p| match p {
                UpdatePlan::InPlace(p) => planner.render(&p.locate),
                UpdatePlan::General(p) => format!(
                    "{} // {}",
                    planner.render(&p.remove.locate),
                    planner.render(&p.insert.check)
                ),
            });
            line(format!("update {b} set {}", name(updated)), plan);
        }
    }
}

fn logical_renders() -> String {
    let mut out = String::new();
    for (shape, d) in library_shapes() {
        for p in placement_families(&d) {
            let rel = ConcurrentRelation::new(Arc::clone(&d), Arc::clone(&p)).unwrap();
            render_all(&rel.planner(), &format!("{shape} | {}", p.name()), &mut out);
        }
    }
    out
}

#[test]
fn logical_plans_render_as_before_fusion() {
    let got = logical_renders();
    let expected = LOGICAL_PLANS.trim_start();
    let diffs: Vec<String> = (got.lines().zip(expected.lines()))
        .filter(|(g, e)| g != e)
        .map(|(g, e)| format!("  expected {e}\n  got      {g}"))
        .collect();
    assert!(
        diffs.is_empty() && got.lines().count() == expected.lines().count(),
        "logical plans changed ({} lines, expected {}):\n{}\nfull table:\n{got}",
        got.lines().count(),
        expected.lines().count(),
        diffs.join("\n")
    );
}

/// [`logical_plans_render_as_before_fusion`]'s expected lines, rendered by
/// the planner before Singleton tails were fused.
const LOGICAL_PLANS: &str = "
stick(chm,tm) | coarse | query {} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | insert check {} | let b = scan(a, ρu) in / b
stick(chm,tm) | coarse | remove locate {} | Spec
stick(chm,tm) | coarse | query {src} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {src} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {src} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | insert check {src} | let b = lookup(a, ρu) in / b
stick(chm,tm) | coarse | remove locate {src} | Spec
stick(chm,tm) | coarse | query {dst} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {dst} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {dst} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | insert check {dst} | let b = scan(a, ρu) in / let c = lookup(b, uv) in / c
stick(chm,tm) | coarse | remove locate {dst} | Spec
stick(chm,tm) | coarse | query {src, dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {src, dst} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | insert check {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, uv) in / c
stick(chm,tm) | coarse | remove locate {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, uv) in / let d = scan(c, vw) in / d
stick(chm,tm) | coarse | update {src, dst} set {weight} | let _ = lock!(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock!(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock!(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | query {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {weight} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {weight} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | insert check {weight} | let b = scan(a, ρu) in / let c = scan(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | coarse | remove locate {weight} | Spec
stick(chm,tm) | coarse | query {src, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {src, weight} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | insert check {src, weight} | let b = lookup(a, ρu) in / let c = scan(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | coarse | remove locate {src, weight} | Spec
stick(chm,tm) | coarse | query {dst, weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | range {dst, weight} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | insert check {dst, weight} | let b = scan(a, ρu) in / let c = lookup(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | coarse | remove locate {dst, weight} | Spec
stick(chm,tm) | coarse | query {src, dst, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | coarse | insert check {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | coarse | remove locate {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | fine | query {} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | insert check {} | let b = scan(a, ρu) in / b
stick(chm,tm) | fine | remove locate {} | Spec
stick(chm,tm) | fine | query {src} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {src} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {src} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | insert check {src} | let b = lookup(a, ρu) in / b
stick(chm,tm) | fine | remove locate {src} | Spec
stick(chm,tm) | fine | query {dst} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {dst} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {dst} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | insert check {dst} | let b = scan(a, ρu) in / let c = lookup(b, uv) in / c
stick(chm,tm) | fine | remove locate {dst} | Spec
stick(chm,tm) | fine | query {src, dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {src, dst} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | insert check {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, uv) in / c
stick(chm,tm) | fine | remove locate {src, dst} | let b = lookup(a, ρu) in / let _ = lock!(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock!(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / d
stick(chm,tm) | fine | update {src, dst} set {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock!(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | query {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {weight} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {weight} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | insert check {weight} | let b = scan(a, ρu) in / let c = scan(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | fine | remove locate {weight} | Spec
stick(chm,tm) | fine | query {src, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {src, weight} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | insert check {src, weight} | let b = lookup(a, ρu) in / let c = scan(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | fine | remove locate {src, weight} | Spec
stick(chm,tm) | fine | query {dst, weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | range {dst, weight} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | insert check {dst, weight} | let b = scan(a, ρu) in / let c = lookup(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | fine | remove locate {dst, weight} | Spec
stick(chm,tm) | fine | query {src, dst, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | fine | insert check {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | fine | remove locate {src, dst, weight} | let b = lookup(a, ρu) in / let _ = lock!(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock!(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / d
stick(chm,tm) | striped(8) | query {} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | insert check {} | let b = scan(a, ρu) in / b
stick(chm,tm) | striped(8) | remove locate {} | Spec
stick(chm,tm) | striped(8) | query {src} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {src} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {src} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | insert check {src} | let b = lookup(a, ρu) in / b
stick(chm,tm) | striped(8) | remove locate {src} | Spec
stick(chm,tm) | striped(8) | query {dst} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {dst} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {dst} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | insert check {dst} | let b = scan(a, ρu) in / let c = lookup(b, uv) in / c
stick(chm,tm) | striped(8) | remove locate {dst} | Spec
stick(chm,tm) | striped(8) | query {src, dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {src, dst} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | insert check {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, uv) in / c
stick(chm,tm) | striped(8) | remove locate {src, dst} | let b = lookup(a, ρu) in / let _ = lock!(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock!(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / d
stick(chm,tm) | striped(8) | update {src, dst} set {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock!(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | query {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {weight} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {weight} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | insert check {weight} | let b = scan(a, ρu) in / let c = scan(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | striped(8) | remove locate {weight} | Spec
stick(chm,tm) | striped(8) | query {src, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {src, weight} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | insert check {src, weight} | let b = lookup(a, ρu) in / let c = scan(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | striped(8) | remove locate {src, weight} | Spec
stick(chm,tm) | striped(8) | query {dst, weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | range {dst, weight} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | insert check {dst, weight} | let b = scan(a, ρu) in / let c = lookup(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | striped(8) | remove locate {dst, weight} | Spec
stick(chm,tm) | striped(8) | query {src, dst, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | striped(8) | insert check {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | striped(8) | remove locate {src, dst, weight} | let b = lookup(a, ρu) in / let _ = lock!(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock!(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / d
stick(chm,tm) | speculative(4) | query {} | NoValidPlan
stick(chm,tm) | speculative(4) | range {} on {src} | NoValidPlan
stick(chm,tm) | speculative(4) | range {} on {dst} | NoValidPlan
stick(chm,tm) | speculative(4) | range {} on {weight} | NoValidPlan
stick(chm,tm) | speculative(4) | insert check {} | NoValidPlan
stick(chm,tm) | speculative(4) | remove locate {} | Spec
stick(chm,tm) | speculative(4) | query {src} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | speculative(4) | range {src} on {dst} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | speculative(4) | range {src} on {weight} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | speculative(4) | insert check {src} | let b = lookup(a, ρu) in / b
stick(chm,tm) | speculative(4) | remove locate {src} | Spec
stick(chm,tm) | speculative(4) | query {dst} | NoValidPlan
stick(chm,tm) | speculative(4) | range {dst} on {src} | NoValidPlan
stick(chm,tm) | speculative(4) | range {dst} on {weight} | NoValidPlan
stick(chm,tm) | speculative(4) | insert check {dst} | NoValidPlan
stick(chm,tm) | speculative(4) | remove locate {dst} | Spec
stick(chm,tm) | speculative(4) | query {src, dst} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | speculative(4) | range {src, dst} on {weight} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = range-scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | speculative(4) | insert check {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, uv) in / c
stick(chm,tm) | speculative(4) | remove locate {src, dst} | let b = spec-lock!-lookup(a, ρu) in / let _ = lock!(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock!(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | speculative(4) | update {src, dst} set {weight} | let _ = lock(a, ψ(ρu)) in / let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock!(c, ψ(vw)) in / let d = scan(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | speculative(4) | query {weight} | NoValidPlan
stick(chm,tm) | speculative(4) | range {weight} on {src} | NoValidPlan
stick(chm,tm) | speculative(4) | range {weight} on {dst} | NoValidPlan
stick(chm,tm) | speculative(4) | insert check {weight} | NoValidPlan
stick(chm,tm) | speculative(4) | remove locate {weight} | Spec
stick(chm,tm) | speculative(4) | query {src, weight} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | speculative(4) | range {src, weight} on {dst} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = range-scan(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | speculative(4) | insert check {src, weight} | let b = lookup(a, ρu) in / let c = scan(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | speculative(4) | remove locate {src, weight} | Spec
stick(chm,tm) | speculative(4) | query {dst, weight} | NoValidPlan
stick(chm,tm) | speculative(4) | range {dst, weight} on {src} | NoValidPlan
stick(chm,tm) | speculative(4) | insert check {dst, weight} | NoValidPlan
stick(chm,tm) | speculative(4) | remove locate {dst, weight} | Spec
stick(chm,tm) | speculative(4) | query {src, dst, weight} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
stick(chm,tm) | speculative(4) | insert check {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, uv) in / let d = lookup(c, vw) in / d
stick(chm,tm) | speculative(4) | remove locate {src, dst, weight} | let b = spec-lock!-lookup(a, ρu) in / let _ = lock!(b, ψ(uv)) in / let c = lookup(b, uv) in / let _ = lock!(c, ψ(vw)) in / let d = lookup(c, vw) in / let _ = unlock(c, ψ(vw)) in / let _ = unlock(b, ψ(uv)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | query {} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | range {} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | range {} on {dst} | let _ = lock(a, ψ(ρv)) in / let b = range-scan~(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | coarse | range {} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = range-scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | insert check {} | let b = scan(a, ρu) in / b
split(chm,tm) | coarse | remove locate {} | Spec
split(chm,tm) | coarse | query {src} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | range {src} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = range-scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | range {src} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = range-scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | insert check {src} | let b = lookup(a, ρu) in / b
split(chm,tm) | coarse | remove locate {src} | Spec
split(chm,tm) | coarse | query {dst} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | coarse | range {dst} on {src} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = range-scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | coarse | range {dst} on {weight} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = range-scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | coarse | insert check {dst} | let b = lookup(a, ρv) in / b
split(chm,tm) | coarse | remove locate {dst} | Spec
split(chm,tm) | coarse | query {src, dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | range {src, dst} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = range-scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | insert check {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, uw) in / c
split(chm,tm) | coarse | remove locate {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, ρv) in / let d = lookup(c, vy) in / let e = scan(d, yz) in / let f = lookup(e, uw) in / let g = lookup(f, wx) in / g
split(chm,tm) | coarse | update {src, dst} set {weight} | let _ = lock!(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock!(b, ψ(ρv)) in / let c = lookup(b, ρv) in / let _ = lock!(c, ψ(vy)) in / let d = lookup(c, vy) in / let _ = lock!(d, ψ(yz)) in / let e = scan(d, yz) in / let _ = lock!(e, ψ(uw)) in / let f = lookup(e, uw) in / let _ = lock!(f, ψ(wx)) in / let g = lookup(f, wx) in / let _ = unlock(f, ψ(wx)) in / let _ = unlock(e, ψ(uw)) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(vy)) in / let _ = unlock(b, ψ(ρv)) in / let _ = unlock(a, ψ(ρu)) in / g
split(chm,tm) | coarse | query {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | range {weight} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | range {weight} on {dst} | let _ = lock(a, ψ(ρv)) in / let b = range-scan~(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | coarse | insert check {weight} | let b = scan(a, ρu) in / let c = scan(b, uw) in / let d = lookup(c, wx) in / d
split(chm,tm) | coarse | remove locate {weight} | Spec
split(chm,tm) | coarse | query {src, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | range {src, weight} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = range-scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | insert check {src, weight} | let b = lookup(a, ρu) in / let c = scan(b, uw) in / let d = lookup(c, wx) in / d
split(chm,tm) | coarse | remove locate {src, weight} | Spec
split(chm,tm) | coarse | query {dst, weight} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | coarse | range {dst, weight} on {src} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = range-scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | coarse | insert check {dst, weight} | let b = lookup(a, ρv) in / let c = scan(b, vy) in / let d = lookup(c, yz) in / d
split(chm,tm) | coarse | remove locate {dst, weight} | Spec
split(chm,tm) | coarse | query {src, dst, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | coarse | insert check {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, uw) in / let d = lookup(c, wx) in / d
split(chm,tm) | coarse | remove locate {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, ρv) in / let d = lookup(c, vy) in / let e = lookup(d, yz) in / let f = lookup(e, uw) in / let g = lookup(f, wx) in / g
split(chm,tm) | fine | query {} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | range {} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | range {} on {dst} | let _ = lock(a, ψ(ρv)) in / let b = range-scan~(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | fine | range {} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = range-scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | insert check {} | let b = scan(a, ρu) in / b
split(chm,tm) | fine | remove locate {} | Spec
split(chm,tm) | fine | query {src} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | range {src} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = range-scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | range {src} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = range-scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | insert check {src} | let b = lookup(a, ρu) in / b
split(chm,tm) | fine | remove locate {src} | Spec
split(chm,tm) | fine | query {dst} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | fine | range {dst} on {src} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = range-scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | fine | range {dst} on {weight} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = range-scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | fine | insert check {dst} | let b = lookup(a, ρv) in / b
split(chm,tm) | fine | remove locate {dst} | Spec
split(chm,tm) | fine | query {src, dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | range {src, dst} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = range-scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | insert check {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, uw) in / c
split(chm,tm) | fine | remove locate {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, ρv) in / let _ = lock!(c, ψ(vy)) in / let d = lookup(c, vy) in / let _ = lock!(d, ψ(yz)) in / let e = scan(d, yz) in / let _ = lock!(e, ψ(uw)) in / let f = lookup(e, uw) in / let _ = lock!(f, ψ(wx)) in / let g = lookup(f, wx) in / let _ = unlock(f, ψ(wx)) in / let _ = unlock(e, ψ(uw)) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(vy)) in / g
split(chm,tm) | fine | update {src, dst} set {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(ρv)) in / let c = lookup(b, ρv) in / let _ = lock(c, ψ(vy)) in / let d = lookup(c, vy) in / let _ = lock!(d, ψ(yz)) in / let e = scan(d, yz) in / let _ = lock(e, ψ(uw)) in / let f = lookup(e, uw) in / let _ = lock!(f, ψ(wx)) in / let g = lookup(f, wx) in / let _ = unlock(f, ψ(wx)) in / let _ = unlock(e, ψ(uw)) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(vy)) in / let _ = unlock(b, ψ(ρv)) in / let _ = unlock(a, ψ(ρu)) in / g
split(chm,tm) | fine | query {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | range {weight} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | range {weight} on {dst} | let _ = lock(a, ψ(ρv)) in / let b = range-scan~(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | fine | insert check {weight} | let b = scan(a, ρu) in / let c = scan(b, uw) in / let d = lookup(c, wx) in / d
split(chm,tm) | fine | remove locate {weight} | Spec
split(chm,tm) | fine | query {src, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | range {src, weight} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = range-scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | insert check {src, weight} | let b = lookup(a, ρu) in / let c = scan(b, uw) in / let d = lookup(c, wx) in / d
split(chm,tm) | fine | remove locate {src, weight} | Spec
split(chm,tm) | fine | query {dst, weight} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | fine | range {dst, weight} on {src} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = range-scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | fine | insert check {dst, weight} | let b = lookup(a, ρv) in / let c = scan(b, vy) in / let d = lookup(c, yz) in / d
split(chm,tm) | fine | remove locate {dst, weight} | Spec
split(chm,tm) | fine | query {src, dst, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | fine | insert check {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, uw) in / let d = lookup(c, wx) in / d
split(chm,tm) | fine | remove locate {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, ρv) in / let _ = lock!(c, ψ(vy)) in / let d = lookup(c, vy) in / let _ = lock!(d, ψ(yz)) in / let e = lookup(d, yz) in / let _ = lock!(e, ψ(uw)) in / let f = lookup(e, uw) in / let _ = lock!(f, ψ(wx)) in / let g = lookup(f, wx) in / let _ = unlock(f, ψ(wx)) in / let _ = unlock(e, ψ(uw)) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(vy)) in / g
split(chm,tm) | striped(8) | query {} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | range {} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | range {} on {dst} | let _ = lock(a, ψ(ρv)) in / let b = range-scan~(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | striped(8) | range {} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = range-scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | insert check {} | let b = scan(a, ρu) in / b
split(chm,tm) | striped(8) | remove locate {} | Spec
split(chm,tm) | striped(8) | query {src} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | range {src} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = range-scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | range {src} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = range-scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | insert check {src} | let b = lookup(a, ρu) in / b
split(chm,tm) | striped(8) | remove locate {src} | Spec
split(chm,tm) | striped(8) | query {dst} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | striped(8) | range {dst} on {src} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = range-scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | striped(8) | range {dst} on {weight} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = range-scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | striped(8) | insert check {dst} | let b = lookup(a, ρv) in / b
split(chm,tm) | striped(8) | remove locate {dst} | Spec
split(chm,tm) | striped(8) | query {src, dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | range {src, dst} on {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = range-scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | insert check {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, uw) in / c
split(chm,tm) | striped(8) | remove locate {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, ρv) in / let _ = lock!(c, ψ(vy)) in / let d = lookup(c, vy) in / let _ = lock!(d, ψ(yz)) in / let e = scan(d, yz) in / let _ = lock!(e, ψ(uw)) in / let f = lookup(e, uw) in / let _ = lock!(f, ψ(wx)) in / let g = lookup(f, wx) in / let _ = unlock(f, ψ(wx)) in / let _ = unlock(e, ψ(uw)) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(vy)) in / g
split(chm,tm) | striped(8) | update {src, dst} set {weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(ρv)) in / let c = lookup(b, ρv) in / let _ = lock(c, ψ(vy)) in / let d = lookup(c, vy) in / let _ = lock!(d, ψ(yz)) in / let e = scan(d, yz) in / let _ = lock(e, ψ(uw)) in / let f = lookup(e, uw) in / let _ = lock!(f, ψ(wx)) in / let g = lookup(f, wx) in / let _ = unlock(f, ψ(wx)) in / let _ = unlock(e, ψ(uw)) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(vy)) in / let _ = unlock(b, ψ(ρv)) in / let _ = unlock(a, ψ(ρu)) in / g
split(chm,tm) | striped(8) | query {weight} | let _ = lock(a, ψ(ρu)) in / let b = scan(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | range {weight} on {src} | let _ = lock(a, ψ(ρu)) in / let b = range-scan~(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | range {weight} on {dst} | let _ = lock(a, ψ(ρv)) in / let b = range-scan~(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | striped(8) | insert check {weight} | let b = scan(a, ρu) in / let c = scan(b, uw) in / let d = lookup(c, wx) in / d
split(chm,tm) | striped(8) | remove locate {weight} | Spec
split(chm,tm) | striped(8) | query {src, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | range {src, weight} on {dst} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = range-scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | insert check {src, weight} | let b = lookup(a, ρu) in / let c = scan(b, uw) in / let d = lookup(c, wx) in / d
split(chm,tm) | striped(8) | remove locate {src, weight} | Spec
split(chm,tm) | striped(8) | query {dst, weight} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | striped(8) | range {dst, weight} on {src} | let _ = lock(a, ψ(ρv)) in / let b = lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = range-scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | striped(8) | insert check {dst, weight} | let b = lookup(a, ρv) in / let c = scan(b, vy) in / let d = lookup(c, yz) in / d
split(chm,tm) | striped(8) | remove locate {dst, weight} | Spec
split(chm,tm) | striped(8) | query {src, dst, weight} | let _ = lock(a, ψ(ρu)) in / let b = lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | striped(8) | insert check {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, uw) in / let d = lookup(c, wx) in / d
split(chm,tm) | striped(8) | remove locate {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, ρv) in / let _ = lock!(c, ψ(vy)) in / let d = lookup(c, vy) in / let _ = lock!(d, ψ(yz)) in / let e = lookup(d, yz) in / let _ = lock!(e, ψ(uw)) in / let f = lookup(e, uw) in / let _ = lock!(f, ψ(wx)) in / let g = lookup(f, wx) in / let _ = unlock(f, ψ(wx)) in / let _ = unlock(e, ψ(uw)) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(vy)) in / g
split(chm,tm) | speculative(4) | query {} | NoValidPlan
split(chm,tm) | speculative(4) | range {} on {src} | NoValidPlan
split(chm,tm) | speculative(4) | range {} on {dst} | NoValidPlan
split(chm,tm) | speculative(4) | range {} on {weight} | NoValidPlan
split(chm,tm) | speculative(4) | insert check {} | NoValidPlan
split(chm,tm) | speculative(4) | remove locate {} | Spec
split(chm,tm) | speculative(4) | query {src} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | speculative(4) | range {src} on {dst} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = range-scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | speculative(4) | range {src} on {weight} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = range-scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | speculative(4) | insert check {src} | let b = lookup(a, ρu) in / b
split(chm,tm) | speculative(4) | remove locate {src} | Spec
split(chm,tm) | speculative(4) | query {dst} | let b = spec-lock-lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | speculative(4) | range {dst} on {src} | let b = spec-lock-lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = range-scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | speculative(4) | range {dst} on {weight} | let b = spec-lock-lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = range-scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | speculative(4) | insert check {dst} | let b = lookup(a, ρv) in / b
split(chm,tm) | speculative(4) | remove locate {dst} | Spec
split(chm,tm) | speculative(4) | query {src, dst} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | speculative(4) | range {src, dst} on {weight} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = range-scan(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | speculative(4) | insert check {src, dst} | let b = lookup(a, ρu) in / let c = lookup(b, uw) in / c
split(chm,tm) | speculative(4) | remove locate {src, dst} | let b = spec-lock!-lookup(a, ρu) in / let c = spec-lock!-lookup(b, ρv) in / let _ = lock!(c, ψ(vy)) in / let d = lookup(c, vy) in / let _ = lock!(d, ψ(yz)) in / let e = scan(d, yz) in / let _ = lock!(e, ψ(uw)) in / let f = lookup(e, uw) in / let _ = lock!(f, ψ(wx)) in / let g = lookup(f, wx) in / let _ = unlock(f, ψ(wx)) in / let _ = unlock(e, ψ(uw)) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(vy)) in / let _ = unlock(b, ψ(ρv)) in / let _ = unlock(a, ψ(ρu)) in / g
split(chm,tm) | speculative(4) | update {src, dst} set {weight} | let _ = lock(a, ψ(ρu)) in / let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(ρv)) in / let c = spec-lock-lookup(b, ρv) in / let _ = lock(c, ψ(vy)) in / let d = lookup(c, vy) in / let _ = lock!(d, ψ(yz)) in / let e = scan(d, yz) in / let _ = lock(e, ψ(uw)) in / let f = lookup(e, uw) in / let _ = lock!(f, ψ(wx)) in / let g = lookup(f, wx) in / let _ = unlock(f, ψ(wx)) in / let _ = unlock(e, ψ(uw)) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(vy)) in / let _ = unlock(b, ψ(ρv)) in / let _ = unlock(a, ψ(ρu)) in / g
split(chm,tm) | speculative(4) | query {weight} | NoValidPlan
split(chm,tm) | speculative(4) | range {weight} on {src} | NoValidPlan
split(chm,tm) | speculative(4) | range {weight} on {dst} | NoValidPlan
split(chm,tm) | speculative(4) | insert check {weight} | NoValidPlan
split(chm,tm) | speculative(4) | remove locate {weight} | Spec
split(chm,tm) | speculative(4) | query {src, weight} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | speculative(4) | range {src, weight} on {dst} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = range-scan(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | speculative(4) | insert check {src, weight} | let b = lookup(a, ρu) in / let c = scan(b, uw) in / let d = lookup(c, wx) in / d
split(chm,tm) | speculative(4) | remove locate {src, weight} | Spec
split(chm,tm) | speculative(4) | query {dst, weight} | let b = spec-lock-lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | speculative(4) | range {dst, weight} on {src} | let b = spec-lock-lookup(a, ρv) in / let _ = lock(b, ψ(vy)) in / let c = range-scan(b, vy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(vy)) in / let _ = unlock(a, ψ(ρv)) in / d
split(chm,tm) | speculative(4) | insert check {dst, weight} | let b = lookup(a, ρv) in / let c = scan(b, vy) in / let d = lookup(c, yz) in / d
split(chm,tm) | speculative(4) | remove locate {dst, weight} | Spec
split(chm,tm) | speculative(4) | query {src, dst, weight} | let b = spec-lock-lookup(a, ρu) in / let _ = lock(b, ψ(uw)) in / let c = lookup(b, uw) in / let _ = lock(c, ψ(wx)) in / let d = lookup(c, wx) in / let _ = unlock(c, ψ(wx)) in / let _ = unlock(b, ψ(uw)) in / let _ = unlock(a, ψ(ρu)) in / d
split(chm,tm) | speculative(4) | insert check {src, dst, weight} | let b = lookup(a, ρu) in / let c = lookup(b, uw) in / let d = lookup(c, wx) in / d
split(chm,tm) | speculative(4) | remove locate {src, dst, weight} | let b = spec-lock!-lookup(a, ρu) in / let c = spec-lock!-lookup(b, ρv) in / let _ = lock!(c, ψ(vy)) in / let d = lookup(c, vy) in / let _ = lock!(d, ψ(yz)) in / let e = lookup(d, yz) in / let _ = lock!(e, ψ(uw)) in / let f = lookup(e, uw) in / let _ = lock!(f, ψ(wx)) in / let g = lookup(f, wx) in / let _ = unlock(f, ψ(wx)) in / let _ = unlock(e, ψ(uw)) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(vy)) in / let _ = unlock(b, ψ(ρv)) in / let _ = unlock(a, ψ(ρu)) in / g
diamond(chm,tm) | coarse | query {} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | range {} on {src} | let _ = lock(a, ψ(ρx)) in / let b = range-scan~(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | range {} on {dst} | let _ = lock(a, ψ(ρy)) in / let b = range-scan~(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | coarse | range {} on {weight} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | insert check {} | let b = scan(a, ρx) in / b
diamond(chm,tm) | coarse | remove locate {} | Spec
diamond(chm,tm) | coarse | query {src} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | range {src} on {dst} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = range-scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | range {src} on {weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | insert check {src} | let b = lookup(a, ρx) in / b
diamond(chm,tm) | coarse | remove locate {src} | Spec
diamond(chm,tm) | coarse | query {dst} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | coarse | range {dst} on {src} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = range-scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | coarse | range {dst} on {weight} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | coarse | insert check {dst} | let b = lookup(a, ρy) in / b
diamond(chm,tm) | coarse | remove locate {dst} | Spec
diamond(chm,tm) | coarse | query {src, dst} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | range {src, dst} on {weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | insert check {src, dst} | let b = lookup(a, ρx) in / let c = lookup(b, xw) in / c
diamond(chm,tm) | coarse | remove locate {src, dst} | let b = lookup(a, ρx) in / let c = lookup(b, ρy) in / let d = lookup(c, yw) in / let e = lookup(d, xw) in / let f = scan(e, wz) in / f
diamond(chm,tm) | coarse | update {src, dst} set {weight} | let _ = lock!(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock!(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock!(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | query {weight} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | range {weight} on {src} | let _ = lock(a, ψ(ρx)) in / let b = range-scan~(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | range {weight} on {dst} | let _ = lock(a, ψ(ρy)) in / let b = range-scan~(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | coarse | insert check {weight} | let b = scan(a, ρx) in / let c = scan(b, xw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | coarse | remove locate {weight} | Spec
diamond(chm,tm) | coarse | query {src, weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | range {src, weight} on {dst} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = range-scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | insert check {src, weight} | let b = lookup(a, ρx) in / let c = scan(b, xw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | coarse | remove locate {src, weight} | Spec
diamond(chm,tm) | coarse | query {dst, weight} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | coarse | range {dst, weight} on {src} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = range-scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | coarse | insert check {dst, weight} | let b = lookup(a, ρy) in / let c = scan(b, yw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | coarse | remove locate {dst, weight} | Spec
diamond(chm,tm) | coarse | query {src, dst, weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | coarse | insert check {src, dst, weight} | let b = lookup(a, ρx) in / let c = lookup(b, xw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | coarse | remove locate {src, dst, weight} | let b = lookup(a, ρx) in / let c = lookup(b, ρy) in / let d = lookup(c, yw) in / let e = lookup(d, xw) in / let f = lookup(e, wz) in / f
diamond(chm,tm) | fine | query {} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | range {} on {src} | let _ = lock(a, ψ(ρx)) in / let b = range-scan~(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | range {} on {dst} | let _ = lock(a, ψ(ρy)) in / let b = range-scan~(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | fine | range {} on {weight} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | insert check {} | let b = scan(a, ρx) in / b
diamond(chm,tm) | fine | remove locate {} | Spec
diamond(chm,tm) | fine | query {src} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | range {src} on {dst} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = range-scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | range {src} on {weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | insert check {src} | let b = lookup(a, ρx) in / b
diamond(chm,tm) | fine | remove locate {src} | Spec
diamond(chm,tm) | fine | query {dst} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | fine | range {dst} on {src} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = range-scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | fine | range {dst} on {weight} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | fine | insert check {dst} | let b = lookup(a, ρy) in / b
diamond(chm,tm) | fine | remove locate {dst} | Spec
diamond(chm,tm) | fine | query {src, dst} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | range {src, dst} on {weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | insert check {src, dst} | let b = lookup(a, ρx) in / let c = lookup(b, xw) in / c
diamond(chm,tm) | fine | remove locate {src, dst} | let b = lookup(a, ρx) in / let c = lookup(b, ρy) in / let _ = lock!(c, ψ(yw)) in / let d = lookup(c, yw) in / let _ = lock!(d, ψ(xw)) in / let e = lookup(d, xw) in / let _ = lock!(e, ψ(wz)) in / let f = scan(e, wz) in / let _ = unlock(e, ψ(wz)) in / let _ = unlock(d, ψ(xw)) in / let _ = unlock(c, ψ(yw)) in / f
diamond(chm,tm) | fine | update {src, dst} set {weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock!(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | query {weight} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | range {weight} on {src} | let _ = lock(a, ψ(ρx)) in / let b = range-scan~(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | range {weight} on {dst} | let _ = lock(a, ψ(ρy)) in / let b = range-scan~(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | fine | insert check {weight} | let b = scan(a, ρx) in / let c = scan(b, xw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | fine | remove locate {weight} | Spec
diamond(chm,tm) | fine | query {src, weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | range {src, weight} on {dst} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = range-scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | insert check {src, weight} | let b = lookup(a, ρx) in / let c = scan(b, xw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | fine | remove locate {src, weight} | Spec
diamond(chm,tm) | fine | query {dst, weight} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | fine | range {dst, weight} on {src} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = range-scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | fine | insert check {dst, weight} | let b = lookup(a, ρy) in / let c = scan(b, yw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | fine | remove locate {dst, weight} | Spec
diamond(chm,tm) | fine | query {src, dst, weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | fine | insert check {src, dst, weight} | let b = lookup(a, ρx) in / let c = lookup(b, xw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | fine | remove locate {src, dst, weight} | let b = lookup(a, ρx) in / let c = lookup(b, ρy) in / let _ = lock!(c, ψ(yw)) in / let d = lookup(c, yw) in / let _ = lock!(d, ψ(xw)) in / let e = lookup(d, xw) in / let _ = lock!(e, ψ(wz)) in / let f = lookup(e, wz) in / let _ = unlock(e, ψ(wz)) in / let _ = unlock(d, ψ(xw)) in / let _ = unlock(c, ψ(yw)) in / f
diamond(chm,tm) | striped(8) | query {} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | range {} on {src} | let _ = lock(a, ψ(ρx)) in / let b = range-scan~(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | range {} on {dst} | let _ = lock(a, ψ(ρy)) in / let b = range-scan~(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | striped(8) | range {} on {weight} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | insert check {} | let b = scan(a, ρx) in / b
diamond(chm,tm) | striped(8) | remove locate {} | Spec
diamond(chm,tm) | striped(8) | query {src} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | range {src} on {dst} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = range-scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | range {src} on {weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | insert check {src} | let b = lookup(a, ρx) in / b
diamond(chm,tm) | striped(8) | remove locate {src} | Spec
diamond(chm,tm) | striped(8) | query {dst} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | striped(8) | range {dst} on {src} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = range-scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | striped(8) | range {dst} on {weight} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | striped(8) | insert check {dst} | let b = lookup(a, ρy) in / b
diamond(chm,tm) | striped(8) | remove locate {dst} | Spec
diamond(chm,tm) | striped(8) | query {src, dst} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | range {src, dst} on {weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | insert check {src, dst} | let b = lookup(a, ρx) in / let c = lookup(b, xw) in / c
diamond(chm,tm) | striped(8) | remove locate {src, dst} | let b = lookup(a, ρx) in / let c = lookup(b, ρy) in / let _ = lock!(c, ψ(yw)) in / let d = lookup(c, yw) in / let _ = lock!(d, ψ(xw)) in / let e = lookup(d, xw) in / let _ = lock!(e, ψ(wz)) in / let f = scan(e, wz) in / let _ = unlock(e, ψ(wz)) in / let _ = unlock(d, ψ(xw)) in / let _ = unlock(c, ψ(yw)) in / f
diamond(chm,tm) | striped(8) | update {src, dst} set {weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock!(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | query {weight} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | range {weight} on {src} | let _ = lock(a, ψ(ρx)) in / let b = range-scan~(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | range {weight} on {dst} | let _ = lock(a, ψ(ρy)) in / let b = range-scan~(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | striped(8) | insert check {weight} | let b = scan(a, ρx) in / let c = scan(b, xw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | striped(8) | remove locate {weight} | Spec
diamond(chm,tm) | striped(8) | query {src, weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | range {src, weight} on {dst} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = range-scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | insert check {src, weight} | let b = lookup(a, ρx) in / let c = scan(b, xw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | striped(8) | remove locate {src, weight} | Spec
diamond(chm,tm) | striped(8) | query {dst, weight} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | striped(8) | range {dst, weight} on {src} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = range-scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | striped(8) | insert check {dst, weight} | let b = lookup(a, ρy) in / let c = scan(b, yw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | striped(8) | remove locate {dst, weight} | Spec
diamond(chm,tm) | striped(8) | query {src, dst, weight} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | striped(8) | insert check {src, dst, weight} | let b = lookup(a, ρx) in / let c = lookup(b, xw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | striped(8) | remove locate {src, dst, weight} | let b = lookup(a, ρx) in / let c = lookup(b, ρy) in / let _ = lock!(c, ψ(yw)) in / let d = lookup(c, yw) in / let _ = lock!(d, ψ(xw)) in / let e = lookup(d, xw) in / let _ = lock!(e, ψ(wz)) in / let f = lookup(e, wz) in / let _ = unlock(e, ψ(wz)) in / let _ = unlock(d, ψ(xw)) in / let _ = unlock(c, ψ(yw)) in / f
diamond(chm,tm) | speculative(4) | query {} | NoValidPlan
diamond(chm,tm) | speculative(4) | range {} on {src} | NoValidPlan
diamond(chm,tm) | speculative(4) | range {} on {dst} | NoValidPlan
diamond(chm,tm) | speculative(4) | range {} on {weight} | NoValidPlan
diamond(chm,tm) | speculative(4) | insert check {} | NoValidPlan
diamond(chm,tm) | speculative(4) | remove locate {} | Spec
diamond(chm,tm) | speculative(4) | query {src} | let b = spec-lock-lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | speculative(4) | range {src} on {dst} | let b = spec-lock-lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = range-scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | speculative(4) | range {src} on {weight} | let b = spec-lock-lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | speculative(4) | insert check {src} | let b = lookup(a, ρx) in / b
diamond(chm,tm) | speculative(4) | remove locate {src} | Spec
diamond(chm,tm) | speculative(4) | query {dst} | let b = spec-lock-lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | speculative(4) | range {dst} on {src} | let b = spec-lock-lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = range-scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | speculative(4) | range {dst} on {weight} | let b = spec-lock-lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | speculative(4) | insert check {dst} | let b = lookup(a, ρy) in / b
diamond(chm,tm) | speculative(4) | remove locate {dst} | Spec
diamond(chm,tm) | speculative(4) | query {src, dst} | let b = spec-lock-lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | speculative(4) | range {src, dst} on {weight} | let b = spec-lock-lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = range-scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | speculative(4) | insert check {src, dst} | let b = lookup(a, ρx) in / let c = lookup(b, xw) in / c
diamond(chm,tm) | speculative(4) | remove locate {src, dst} | let b = spec-lock!-lookup(a, ρx) in / let c = spec-lock!-lookup(b, ρy) in / let _ = lock!(c, ψ(yw)) in / let d = lookup(c, yw) in / let _ = lock!(d, ψ(xw)) in / let e = lookup(d, xw) in / let _ = lock!(e, ψ(wz)) in / let f = scan(e, wz) in / let _ = unlock(e, ψ(wz)) in / let _ = unlock(d, ψ(xw)) in / let _ = unlock(c, ψ(yw)) in / let _ = unlock(b, ψ(ρy)) in / let _ = unlock(a, ψ(ρx)) in / f
diamond(chm,tm) | speculative(4) | update {src, dst} set {weight} | let _ = lock(a, ψ(ρx)) in / let b = spec-lock-lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock!(c, ψ(wz)) in / let d = scan(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | speculative(4) | query {weight} | NoValidPlan
diamond(chm,tm) | speculative(4) | range {weight} on {src} | NoValidPlan
diamond(chm,tm) | speculative(4) | range {weight} on {dst} | NoValidPlan
diamond(chm,tm) | speculative(4) | insert check {weight} | NoValidPlan
diamond(chm,tm) | speculative(4) | remove locate {weight} | Spec
diamond(chm,tm) | speculative(4) | query {src, weight} | let b = spec-lock-lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | speculative(4) | range {src, weight} on {dst} | let b = spec-lock-lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = range-scan(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | speculative(4) | insert check {src, weight} | let b = lookup(a, ρx) in / let c = scan(b, xw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | speculative(4) | remove locate {src, weight} | Spec
diamond(chm,tm) | speculative(4) | query {dst, weight} | let b = spec-lock-lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | speculative(4) | range {dst, weight} on {src} | let b = spec-lock-lookup(a, ρy) in / let _ = lock(b, ψ(yw)) in / let c = range-scan(b, yw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(yw)) in / let _ = unlock(a, ψ(ρy)) in / d
diamond(chm,tm) | speculative(4) | insert check {dst, weight} | let b = lookup(a, ρy) in / let c = scan(b, yw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | speculative(4) | remove locate {dst, weight} | Spec
diamond(chm,tm) | speculative(4) | query {src, dst, weight} | let b = spec-lock-lookup(a, ρx) in / let _ = lock(b, ψ(xw)) in / let c = lookup(b, xw) in / let _ = lock(c, ψ(wz)) in / let d = lookup(c, wz) in / let _ = unlock(c, ψ(wz)) in / let _ = unlock(b, ψ(xw)) in / let _ = unlock(a, ψ(ρx)) in / d
diamond(chm,tm) | speculative(4) | insert check {src, dst, weight} | let b = lookup(a, ρx) in / let c = lookup(b, xw) in / let d = lookup(c, wz) in / d
diamond(chm,tm) | speculative(4) | remove locate {src, dst, weight} | let b = spec-lock!-lookup(a, ρx) in / let c = spec-lock!-lookup(b, ρy) in / let _ = lock!(c, ψ(yw)) in / let d = lookup(c, yw) in / let _ = lock!(d, ψ(xw)) in / let e = lookup(d, xw) in / let _ = lock!(e, ψ(wz)) in / let f = lookup(e, wz) in / let _ = unlock(e, ψ(wz)) in / let _ = unlock(d, ψ(xw)) in / let _ = unlock(c, ψ(yw)) in / let _ = unlock(b, ψ(ρy)) in / let _ = unlock(a, ψ(ρx)) in / f
dcache | coarse | query {} | let _ = lock(a, ψ(ρy)) in / let b = scan(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = scan(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | coarse | range {} on {parent} | let _ = lock(a, ψ(ρx)) in / let b = range-scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | range {} on {name} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = range-scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | range {} on {child} | let _ = lock(a, ψ(ρy)) in / let b = scan(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = range-scan(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | coarse | insert check {} | let b = scan(a, ρx) in / b
dcache | coarse | remove locate {} | Spec
dcache | coarse | query {parent} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | range {parent} on {name} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = range-scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | range {parent} on {child} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = range-scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | insert check {parent} | let b = lookup(a, ρx) in / b
dcache | coarse | remove locate {parent} | Spec
dcache | coarse | query {name} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = lookup(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | range {name} on {parent} | let _ = lock(a, ψ(ρx)) in / let b = range-scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = lookup(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | range {name} on {child} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = lookup(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = range-scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | insert check {name} | let b = scan(a, ρx) in / let c = lookup(b, xy) in / c
dcache | coarse | remove locate {name} | Spec
dcache | coarse | query {parent, name} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = scan(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | coarse | range {parent, name} on {child} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = range-scan(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | coarse | insert check {parent, name} | let b = lookup(a, ρy) in / b
dcache | coarse | remove locate {parent, name} | let b = lookup(a, ρx) in / let c = lookup(b, ρy) in / let d = lookup(c, xy) in / let e = scan(d, yz) in / e
dcache | coarse | update {parent, name} set {child} | let _ = lock!(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock!(b, ψ(yz)) in / let c = scan(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | coarse | query {child} | let _ = lock(a, ψ(ρy)) in / let b = scan(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = lookup(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | coarse | range {child} on {parent} | let _ = lock(a, ψ(ρx)) in / let b = range-scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | range {child} on {name} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = range-scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | insert check {child} | let b = scan(a, ρy) in / let c = lookup(b, yz) in / c
dcache | coarse | remove locate {child} | Spec
dcache | coarse | query {parent, child} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | range {parent, child} on {name} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = range-scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | insert check {parent, child} | let b = lookup(a, ρx) in / let c = scan(b, xy) in / let d = lookup(c, yz) in / d
dcache | coarse | remove locate {parent, child} | Spec
dcache | coarse | query {name, child} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = lookup(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | range {name, child} on {parent} | let _ = lock(a, ψ(ρx)) in / let b = range-scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = lookup(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | coarse | insert check {name, child} | let b = scan(a, ρx) in / let c = lookup(b, xy) in / let d = lookup(c, yz) in / d
dcache | coarse | remove locate {name, child} | Spec
dcache | coarse | query {parent, name, child} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = lookup(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | coarse | insert check {parent, name, child} | let b = lookup(a, ρy) in / let c = lookup(b, yz) in / c
dcache | coarse | remove locate {parent, name, child} | let b = lookup(a, ρx) in / let c = lookup(b, ρy) in / let d = lookup(c, xy) in / let e = lookup(d, yz) in / e
dcache | fine | query {} | let _ = lock(a, ψ(ρy)) in / let b = scan(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = scan(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | fine | range {} on {parent} | let _ = lock(a, ψ(ρx)) in / let b = range-scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | range {} on {name} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = range-scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | range {} on {child} | let _ = lock(a, ψ(ρy)) in / let b = scan(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = range-scan(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | fine | insert check {} | let b = scan(a, ρx) in / b
dcache | fine | remove locate {} | Spec
dcache | fine | query {parent} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | range {parent} on {name} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = range-scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | range {parent} on {child} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = range-scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | insert check {parent} | let b = lookup(a, ρx) in / b
dcache | fine | remove locate {parent} | Spec
dcache | fine | query {name} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = lookup(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | range {name} on {parent} | let _ = lock(a, ψ(ρx)) in / let b = range-scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = lookup(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | range {name} on {child} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = lookup(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = range-scan(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | insert check {name} | let b = scan(a, ρx) in / let c = lookup(b, xy) in / c
dcache | fine | remove locate {name} | Spec
dcache | fine | query {parent, name} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = scan(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | fine | range {parent, name} on {child} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = range-scan(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | fine | insert check {parent, name} | let b = lookup(a, ρy) in / b
dcache | fine | remove locate {parent, name} | let b = lookup(a, ρx) in / let c = lookup(b, ρy) in / let _ = lock!(c, ψ(xy)) in / let d = lookup(c, xy) in / let _ = lock!(d, ψ(yz)) in / let e = scan(d, yz) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(xy)) in / e
dcache | fine | update {parent, name} set {child} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock!(b, ψ(yz)) in / let c = scan(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | fine | query {child} | let _ = lock(a, ψ(ρy)) in / let b = scan(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = lookup(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | fine | range {child} on {parent} | let _ = lock(a, ψ(ρx)) in / let b = range-scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | range {child} on {name} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = range-scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | insert check {child} | let b = scan(a, ρy) in / let c = lookup(b, yz) in / c
dcache | fine | remove locate {child} | Spec
dcache | fine | query {parent, child} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | range {parent, child} on {name} | let _ = lock(a, ψ(ρx)) in / let b = lookup(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = range-scan(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | insert check {parent, child} | let b = lookup(a, ρx) in / let c = scan(b, xy) in / let d = lookup(c, yz) in / d
dcache | fine | remove locate {parent, child} | Spec
dcache | fine | query {name, child} | let _ = lock(a, ψ(ρx)) in / let b = scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = lookup(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | range {name, child} on {parent} | let _ = lock(a, ψ(ρx)) in / let b = range-scan(a, ρx) in / let _ = lock(b, ψ(xy)) in / let c = lookup(b, xy) in / let _ = lock(c, ψ(yz)) in / let d = lookup(c, yz) in / let _ = unlock(c, ψ(yz)) in / let _ = unlock(b, ψ(xy)) in / let _ = unlock(a, ψ(ρx)) in / d
dcache | fine | insert check {name, child} | let b = scan(a, ρx) in / let c = lookup(b, xy) in / let d = lookup(c, yz) in / d
dcache | fine | remove locate {name, child} | Spec
dcache | fine | query {parent, name, child} | let _ = lock(a, ψ(ρy)) in / let b = lookup(a, ρy) in / let _ = lock(b, ψ(yz)) in / let c = lookup(b, yz) in / let _ = unlock(b, ψ(yz)) in / let _ = unlock(a, ψ(ρy)) in / c
dcache | fine | insert check {parent, name, child} | let b = lookup(a, ρy) in / let c = lookup(b, yz) in / c
dcache | fine | remove locate {parent, name, child} | let b = lookup(a, ρx) in / let c = lookup(b, ρy) in / let _ = lock!(c, ψ(xy)) in / let d = lookup(c, xy) in / let _ = lock!(d, ψ(yz)) in / let e = lookup(d, yz) in / let _ = unlock(d, ψ(yz)) in / let _ = unlock(c, ψ(xy)) in / e
kv(chm) | coarse | query {} | let _ = lock(a, ψ(ρa)) in / let b = scan(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | coarse | range {} on {key} | let _ = lock(a, ψ(ρa)) in / let b = range-scan~(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | coarse | range {} on {value} | let _ = lock(a, ψ(ρa)) in / let b = scan(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = range-scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | coarse | insert check {} | let b = scan(a, ρa) in / b
kv(chm) | coarse | remove locate {} | Spec
kv(chm) | coarse | query {key} | let _ = lock(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | coarse | range {key} on {value} | let _ = lock(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = range-scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | coarse | insert check {key} | let b = lookup(a, ρa) in / b
kv(chm) | coarse | remove locate {key} | let b = lookup(a, ρa) in / let c = scan(b, ab) in / c
kv(chm) | coarse | update {key} set {value} | let _ = lock!(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock!(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | coarse | query {value} | let _ = lock(a, ψ(ρa)) in / let b = scan(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | coarse | range {value} on {key} | let _ = lock(a, ψ(ρa)) in / let b = range-scan~(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | coarse | insert check {value} | let b = scan(a, ρa) in / let c = lookup(b, ab) in / c
kv(chm) | coarse | remove locate {value} | Spec
kv(chm) | coarse | query {key, value} | let _ = lock(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | coarse | insert check {key, value} | let b = lookup(a, ρa) in / let c = lookup(b, ab) in / c
kv(chm) | coarse | remove locate {key, value} | let b = lookup(a, ρa) in / let c = lookup(b, ab) in / c
kv(chm) | fine | query {} | let _ = lock(a, ψ(ρa)) in / let b = scan(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | fine | range {} on {key} | let _ = lock(a, ψ(ρa)) in / let b = range-scan~(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | fine | range {} on {value} | let _ = lock(a, ψ(ρa)) in / let b = scan(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = range-scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | fine | insert check {} | let b = scan(a, ρa) in / b
kv(chm) | fine | remove locate {} | Spec
kv(chm) | fine | query {key} | let _ = lock(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | fine | range {key} on {value} | let _ = lock(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = range-scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | fine | insert check {key} | let b = lookup(a, ρa) in / b
kv(chm) | fine | remove locate {key} | let b = lookup(a, ρa) in / let _ = lock!(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / c
kv(chm) | fine | update {key} set {value} | let _ = lock(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock!(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | fine | query {value} | let _ = lock(a, ψ(ρa)) in / let b = scan(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | fine | range {value} on {key} | let _ = lock(a, ψ(ρa)) in / let b = range-scan~(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | fine | insert check {value} | let b = scan(a, ρa) in / let c = lookup(b, ab) in / c
kv(chm) | fine | remove locate {value} | Spec
kv(chm) | fine | query {key, value} | let _ = lock(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | fine | insert check {key, value} | let b = lookup(a, ρa) in / let c = lookup(b, ab) in / c
kv(chm) | fine | remove locate {key, value} | let b = lookup(a, ρa) in / let _ = lock!(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / c
kv(chm) | striped(8) | query {} | let _ = lock(a, ψ(ρa)) in / let b = scan(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | striped(8) | range {} on {key} | let _ = lock(a, ψ(ρa)) in / let b = range-scan~(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | striped(8) | range {} on {value} | let _ = lock(a, ψ(ρa)) in / let b = scan(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = range-scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | striped(8) | insert check {} | let b = scan(a, ρa) in / b
kv(chm) | striped(8) | remove locate {} | Spec
kv(chm) | striped(8) | query {key} | let _ = lock(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | striped(8) | range {key} on {value} | let _ = lock(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = range-scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | striped(8) | insert check {key} | let b = lookup(a, ρa) in / b
kv(chm) | striped(8) | remove locate {key} | let b = lookup(a, ρa) in / let _ = lock!(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / c
kv(chm) | striped(8) | update {key} set {value} | let _ = lock(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock!(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | striped(8) | query {value} | let _ = lock(a, ψ(ρa)) in / let b = scan(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | striped(8) | range {value} on {key} | let _ = lock(a, ψ(ρa)) in / let b = range-scan~(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | striped(8) | insert check {value} | let b = scan(a, ρa) in / let c = lookup(b, ab) in / c
kv(chm) | striped(8) | remove locate {value} | Spec
kv(chm) | striped(8) | query {key, value} | let _ = lock(a, ψ(ρa)) in / let b = lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | striped(8) | insert check {key, value} | let b = lookup(a, ρa) in / let c = lookup(b, ab) in / c
kv(chm) | striped(8) | remove locate {key, value} | let b = lookup(a, ρa) in / let _ = lock!(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / c
kv(chm) | speculative(4) | query {} | NoValidPlan
kv(chm) | speculative(4) | range {} on {key} | NoValidPlan
kv(chm) | speculative(4) | range {} on {value} | NoValidPlan
kv(chm) | speculative(4) | insert check {} | NoValidPlan
kv(chm) | speculative(4) | remove locate {} | Spec
kv(chm) | speculative(4) | query {key} | let b = spec-lock-lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | speculative(4) | range {key} on {value} | let b = spec-lock-lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = range-scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | speculative(4) | insert check {key} | let b = lookup(a, ρa) in / b
kv(chm) | speculative(4) | remove locate {key} | let b = spec-lock!-lookup(a, ρa) in / let _ = lock!(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | speculative(4) | update {key} set {value} | let _ = lock!(a, ψ(ρa)) in / let b = spec-lock!-lookup(a, ρa) in / let _ = lock!(b, ψ(ab)) in / let c = scan(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | speculative(4) | query {value} | NoValidPlan
kv(chm) | speculative(4) | range {value} on {key} | NoValidPlan
kv(chm) | speculative(4) | insert check {value} | NoValidPlan
kv(chm) | speculative(4) | remove locate {value} | Spec
kv(chm) | speculative(4) | query {key, value} | let b = spec-lock-lookup(a, ρa) in / let _ = lock(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
kv(chm) | speculative(4) | insert check {key, value} | let b = lookup(a, ρa) in / let c = lookup(b, ab) in / c
kv(chm) | speculative(4) | remove locate {key, value} | let b = spec-lock!-lookup(a, ρa) in / let _ = lock!(b, ψ(ab)) in / let c = lookup(b, ab) in / let _ = unlock(b, ψ(ab)) in / let _ = unlock(a, ψ(ρa)) in / c
";
