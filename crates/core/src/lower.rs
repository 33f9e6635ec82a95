//! Lowering: the physical form a decomposition is instantiated in.
//!
//! A decomposition describes the heap logically, and most of it is
//! instantiated as written: one [`NodeInstance`](crate::instance::NodeInstance)
//! per node valuation, one container per outgoing edge. Its *Singleton
//! tails* are not. Take an edge `p --K--> w` where `w` has exactly one
//! incoming edge and only [`Singleton`](ContainerKind::Singleton) edges into
//! leaves, each leaf with that one incoming edge: `w`'s dependent columns —
//! its residual — are a function of the path to `K` (that is what the
//! Singleton edges' functional dependencies say), so they can live in the
//! entry that leads to `w`. [`Fusion`] names those edges. A fused edge's
//! entries hold `K` as their key and `w`'s dependent columns as their
//! payload ([`Child::Row`](crate::instance::Child::Row)), in the container
//! entry and in the version cell alike, and neither `w` nor its leaves is
//! ever instantiated. The §6.2 hand-coded graph keeps an edge's weight
//! inside its `BTreeMap<dst, weight>` entry in just this way.
//!
//! What a fused tail costs is nothing: the plans a relation runs are the
//! logical plans with every step on a tail edge removed
//! (`Fusion::plan`), since the `Lookup` or `Scan` of the fused edge binds
//! the key slots and the payload slots in one step. The tail's logical lock
//! becomes its parent edge's lock — the same host, the same `stripe_by`
//! (`Fusion::placement`) — which §4.3 admits because the parent dominates
//! `w`; the tail's lock steps are then covered by the parent's, whose mode
//! the planner's promotion pass raises where a tail is written.
//!
//! Two kinds of node keep the logical layout:
//!
//! * a shared node — Fig. 3(c)'s diamond `w`, `dcache`'s `y` — which is
//!   reached along two edges and so has two parents to live in;
//! * the target of a §4.5 speculative edge (`kv`'s `a` under
//!   `speculative(k)`), whose instance is the home of the edge's target
//!   lock.
//!
//! Everything outside instantiation — [`Planner::render`](crate::Planner::render),
//! [`Relation::planner`](crate::Relation::planner), migration,
//! `verify`, the write-ahead log, the checkpoint and the autotuner — sees
//! the logical decomposition. Fusion is unconditional: every relation runs
//! its lowered form.

use std::sync::Arc;

use relc_containers::ContainerKind;
use relc_spec::ColumnSet;

use crate::decomp::{Decomposition, EdgeId, NodeId};
use crate::placement::LockPlacement;
use crate::planner::Plan;
use crate::query::PlanStep;

/// Which edges of a decomposition fuse their Singleton tails into their
/// entries (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Fusion {
    /// Per edge: the dependent columns a fused edge's entries carry beside
    /// their key; empty where the edge is not fused.
    payload: Vec<ColumnSet>,
    /// Per edge: the fused edge whose tail this edge is.
    tail_of: Vec<Option<EdgeId>>,
    /// Per node: whether fusion leaves it uninstantiated (a fused edge's
    /// target, or one of its leaves).
    elided: Vec<bool>,
}

impl Fusion {
    /// The logical form: nothing fused.
    pub(crate) fn none() -> Fusion {
        Fusion::default()
    }

    /// Fuses every edge `p --K--> w` of `decomp` where `w` has exactly one
    /// incoming edge and at least one outgoing edge, every outgoing edge of
    /// `w` is a `Singleton` edge into a leaf whose one incoming edge it is,
    /// and `placement` does not make the edge §4.5 speculative.
    pub fn of(decomp: &Decomposition, placement: &LockPlacement) -> Fusion {
        let mut fusion = Fusion {
            payload: vec![ColumnSet::EMPTY; decomp.edge_count()],
            tail_of: vec![None; decomp.edge_count()],
            elided: vec![false; decomp.node_count()],
        };
        for (e, em) in decomp.edges() {
            let w = decomp.node(em.dst);
            let tail_is_singleton_leaves = !w.outgoing.is_empty()
                && w.outgoing.iter().all(|&t| {
                    let tm = decomp.edge(t);
                    let leaf = decomp.node(tm.dst);
                    tm.container == ContainerKind::Singleton
                        && leaf.outgoing.is_empty()
                        && leaf.incoming.len() == 1
                });
            if w.incoming.len() != 1 || !tail_is_singleton_leaves || placement.edge(e).speculative {
                continue;
            }
            fusion.payload[e.index()] = w.residual;
            fusion.elided[em.dst.index()] = true;
            for &t in &w.outgoing {
                fusion.tail_of[t.index()] = Some(e);
                fusion.elided[decomp.edge(t).dst.index()] = true;
            }
        }
        fusion
    }

    /// Whether edge `e`'s entries carry its target's dependent columns.
    pub fn is_fused(&self, e: EdgeId) -> bool {
        !self.payload(e).is_empty()
    }

    /// The dependent columns fused edge `e`'s entries carry; empty where
    /// `e` is not fused.
    pub fn payload(&self, e: EdgeId) -> ColumnSet {
        self.payload
            .get(e.index())
            .copied()
            .unwrap_or(ColumnSet::EMPTY)
    }

    /// The fused edge whose tail `e` is, if it is one.
    pub fn parent_of(&self, e: EdgeId) -> Option<EdgeId> {
        self.tail_of.get(e.index()).copied().flatten()
    }

    /// Whether fusion leaves `node` uninstantiated.
    pub fn is_elided(&self, node: NodeId) -> bool {
        self.elided.get(node.index()).copied().unwrap_or(false)
    }

    /// The nodes whose dependent columns live in their parent's entry —
    /// the target of every fused edge — in edge order.
    pub fn fused_nodes(&self, decomp: &Decomposition) -> Vec<NodeId> {
        decomp
            .edges()
            .filter(|&(e, _)| self.is_fused(e))
            .map(|(_, em)| em.dst)
            .collect()
    }

    /// The lowered placement: `logical` with every tail edge's logical lock
    /// moved onto its parent edge's — the same host, the same `stripe_by`.
    /// A fused node listed in `keep` keeps its tail's logical lock instead
    /// (the analyzer's seeded under-locking; see
    /// [`AnalyzerOptions::unmoved_fused_lock`](crate::AnalyzerOptions::unmoved_fused_lock)).
    /// Nothing else changes, so the result is well-formed exactly when
    /// `logical` is: the parent's host dominates the tail's source, and the
    /// only path from it to the tail's source runs through the parent edge.
    pub(crate) fn placement(
        &self,
        logical: &Arc<LockPlacement>,
        keep: Option<NodeId>,
    ) -> Arc<LockPlacement> {
        let decomp = logical.decomposition();
        let moved = |t: EdgeId| {
            self.parent_of(t)
                .filter(|&e| keep != Some(decomp.edge(e).dst))
        };
        if decomp.edges().all(|(t, _)| moved(t).is_none()) {
            return Arc::clone(logical);
        }
        let mut b = LockPlacement::builder(Arc::clone(decomp));
        for (e, _) in decomp.edges() {
            let ep = logical.edge(moved(e).unwrap_or(e));
            if ep.speculative {
                b.place_speculative(e, ep.stripe_by);
            } else {
                b.place_striped(e, ep.host, ep.stripe_by);
            }
        }
        for (v, _) in decomp.nodes() {
            b.stripes(v, logical.stripe_count(v));
        }
        b.named(logical.name())
            .build_unchecked()
            .expect("every edge keeps a placement")
    }

    /// Lowers a logical plan: every step on a tail edge goes. The fused
    /// edge's own `Lookup` or `Scan` binds the tail's columns, and a tail's
    /// `Lock` step names its parent's lock under the lowered placement,
    /// which the parent's own `Lock` step already took in a mode at least
    /// as strong.
    pub(crate) fn plan(&self, mut plan: Plan) -> Plan {
        plan.steps = self.steps(plan.steps);
        plan
    }

    /// [`Fusion::plan`] over a bare step list.
    pub(crate) fn steps(&self, mut steps: Vec<PlanStep>) -> Vec<PlanStep> {
        steps.retain(|step| self.parent_of(step.edge()).is_none());
        steps
    }

    /// `edges` without the tail edges, each of those written in place of
    /// its fused parent, deduplicated: what a logical edge list names
    /// physically.
    pub(crate) fn edges(&self, edges: &[EdgeId]) -> Vec<EdgeId> {
        let mut out: Vec<EdgeId> = Vec::with_capacity(edges.len());
        for &e in edges {
            let physical = self.parent_of(e).unwrap_or(e);
            if !out.contains(&physical) {
                out.push(physical);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::library::{dcache, diamond, kv, split, stick};

    fn names(d: &Decomposition, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|&v| d.node(v).name.clone()).collect()
    }

    #[test]
    fn every_ledger_shape_fuses_its_tails_and_shared_nodes_do_not() {
        let (ch, hm) = (ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        // `dcache`'s tree-map root cannot be striped.
        let placements = |d: &Arc<Decomposition>| {
            [
                LockPlacement::coarse(d),
                LockPlacement::fine(d),
                LockPlacement::striped_root(d, 8),
            ]
            .into_iter()
            .flatten()
        };
        let cases: [(Arc<Decomposition>, &[&str], &[&str]); 5] = [
            (stick(ch, hm), &["v"], &["v", "w"]),
            (split(ch, hm), &["w", "y"], &["w", "x", "y", "z"]),
            (kv(ch), &["a"], &["a", "b"]),
            (diamond(ch, hm), &[], &[]),
            (dcache(), &[], &[]),
        ];
        for (d, fused, elided) in cases {
            for p in placements(&d) {
                let fusion = Fusion::of(&d, &p);
                assert_eq!(names(&d, &fusion.fused_nodes(&d)), fused, "{}", p.name());
                let gone: Vec<NodeId> = (d.nodes().map(|(v, _)| v))
                    .filter(|&v| fusion.is_elided(v))
                    .collect();
                assert_eq!(names(&d, &gone), elided, "{}", p.name());
            }
        }
        // A §4.5 speculative target keeps its node: it holds the target
        // lock. Below a speculative root edge, a tail still fuses.
        let d = kv(ch);
        let p = LockPlacement::speculative(&d, 4).unwrap();
        assert!(Fusion::of(&d, &p).fused_nodes(&d).is_empty());
        let d = split(ch, hm);
        let p = LockPlacement::speculative(&d, 4).unwrap();
        assert_eq!(names(&d, &Fusion::of(&d, &p).fused_nodes(&d)), ["w", "y"]);
    }

    #[test]
    fn a_fused_edges_payload_is_its_targets_residual() {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).unwrap();
        let fusion = Fusion::of(&d, &p);
        let weight = d.schema().column_set(&["weight"]).unwrap();
        let uw = d.edge_between("u", "w").unwrap();
        let wx = d.edge_between("w", "x").unwrap();
        let ru = d.edge_between("ρ", "u").unwrap();
        assert_eq!(fusion.payload(uw), weight);
        assert!(fusion.is_fused(uw) && !fusion.is_fused(ru) && !fusion.is_fused(wx));
        assert_eq!(fusion.parent_of(wx), Some(uw));
        assert_eq!(fusion.parent_of(uw), None);
        assert_eq!(fusion.edges(&[ru, wx, uw]), [ru, uw]);
    }

    #[test]
    fn a_tails_lock_moves_to_its_parent_edge() {
        let d = kv(ContainerKind::ConcurrentHashMap);
        let ka = d.edge_between("ρ", "a").unwrap();
        let ab = d.edge_between("a", "b").unwrap();
        for p in [
            LockPlacement::fine(&d).unwrap(),
            LockPlacement::striped_root(&d, 64).unwrap(),
        ] {
            let lowered = Fusion::of(&d, &p).placement(&p, None);
            assert_eq!(lowered.edge(ab), p.edge(ka), "{}", p.name());
            assert_eq!(lowered.edge(ka), p.edge(ka), "{}", p.name());
            assert_eq!(lowered.name(), p.name());
            let a = d.node_by_name("a").unwrap();
            assert_eq!(
                lowered.lock_count(a),
                0,
                "{}: nothing is locked at `a`",
                p.name()
            );
            let kept = Fusion::of(&d, &p).placement(&p, Some(a));
            assert_eq!(kept.edge(ab), p.edge(ab), "{}", p.name());
        }
        // Nothing fused: the placement itself.
        let d = dcache();
        let p = LockPlacement::fine(&d).unwrap();
        assert!(Arc::ptr_eq(&Fusion::of(&d, &p).placement(&p, None), &p));
    }
}
