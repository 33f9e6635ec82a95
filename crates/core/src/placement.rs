//! Lock placements: mapping logical locks onto physical locks (§4.3–§4.5).
//!
//! Every edge instance of a decomposition instance carries a *logical lock*
//! protecting its state (present or absent). A [`LockPlacement`] maps each
//! edge's logical locks onto *physical locks* attached to node instances:
//!
//! * the **host** node of an edge holds the physical lock(s) for that
//!   edge's logical locks; the host must dominate the edge's source (§4.3)
//!   — or, for **speculative** placements (§4.5), present edges are locked
//!   at their *target* and absent edges fall back to the host;
//! * **striping** (§4.4) attaches `k` physical locks to a node and selects
//!   one by hashing the `stripe_by` columns of the edge tuple; operations
//!   that do not bind those columns conservatively take all `k` locks;
//! * **well-formedness** (§4.3): the host dominates the source; every edge
//!   on any path from the host to the source shares the host
//!   (path-sharing); and container choices are compatible — a
//!   concurrency-unsafe container must be serialized by its placement, and
//!   speculative edges need linearizable unlocked lookups.
//!
//! A placement is given for the logical decomposition. The relation runs
//! it *lowered* ([`crate::lower`]): where lowering fuses a Singleton tail
//! `w → x` into its parent edge `p → w`, the tail's logical lock becomes
//! the parent edge's — the same host, the same `stripe_by` — since the
//! tail's entries now live in the parent's. §4.3 admits the coarsening:
//! the parent's host dominates `w`, and the only path from it to `w` runs
//! through the parent edge. A fused entry is therefore written under the
//! lock its key hashes to at the parent's host, and `w`, which is never
//! instantiated, holds no lock.

use std::fmt;
use std::sync::Arc;

use relc_locks::LockMode;
use relc_spec::{ColumnId, ColumnSet, Tuple, Value};

use crate::decomp::{Decomposition, EdgeId, NodeId};
use crate::error::CoreError;

/// Where one edge's logical locks live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgePlacement {
    /// The node hosting the physical lock (the *fallback* host for
    /// speculative edges, holding the locks of absent edge instances).
    pub host: NodeId,
    /// Columns hashed to select a stripe at the host (must be a subset of
    /// the edge tuple's columns `A_src ∪ cols(e)`). Empty = stripe 0.
    pub stripe_by: ColumnSet,
    /// §4.5: lock present edges at their target node instance; absent edges
    /// at the host stripes.
    pub speculative: bool,
}

/// A validated lock placement for a decomposition.
#[derive(Debug, Clone)]
pub struct LockPlacement {
    decomp: Arc<Decomposition>,
    edges: Vec<EdgePlacement>,
    stripe_counts: Vec<u32>,
    /// Per node: whether its instances hold physical locks (see
    /// [`LockPlacement::lock_count`]).
    holds_locks: Vec<bool>,
    name: String,
}

/// The fields an operation has bound, as a lock-token computation reads
/// them: a [`Tuple`], or one row of the evaluator's frame
/// ([`crate::query`]).
pub(crate) trait BoundFields {
    /// The bound columns.
    fn dom(&self) -> ColumnSet;
    /// The value of bound column `c`.
    fn value(&self, c: ColumnId) -> &Value;
}

impl BoundFields for Tuple {
    fn dom(&self) -> ColumnSet {
        Tuple::dom(self)
    }

    fn value(&self, c: ColumnId) -> &Value {
        self.get(c).expect("token columns are bound")
    }
}

/// Per node: whether some edge's locks live at its instances — it hosts
/// an edge, or is the target of a §4.5 speculative edge, whose present
/// instances are locked there. These are the only lock sites a plan
/// names.
fn lock_holders(decomp: &Decomposition, edges: &[EdgePlacement]) -> Vec<bool> {
    let mut holds = vec![false; decomp.node_count()];
    for (e, em) in decomp.edges() {
        let ep = edges[e.index()];
        holds[ep.host.index()] = true;
        if ep.speculative {
            holds[em.dst.index()] = true;
        }
    }
    holds
}

/// A globally ordered identifier of one physical lock (§5.1): topological
/// position of the owning node, then the node-instance key tuple
/// (lexicographic), then the stripe index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockToken {
    /// Topological position of the node the lock is attached to.
    pub node_pos: u16,
    /// The node instance's key tuple (valuation of its `A` columns).
    pub instance: Tuple,
    /// Stripe index within the node instance.
    pub stripe: u32,
}

impl relc_locks::LockdepClass for LockToken {
    /// The `lockdep` witness collapses tokens to `(node position, stripe)`
    /// classes: every instance of one decomposition level shares the
    /// ordering constraints the §5.1 order imposes on the level, which is
    /// exactly the granularity at which an order inversion is a bug.
    fn lockdep_class(&self) -> u64 {
        (u64::from(self.node_pos) << 32) | u64::from(self.stripe)
    }
}

impl fmt::Display for LockToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lock@{}:{:?}#{}",
            self.node_pos, self.instance, self.stripe
        )
    }
}

impl LockPlacement {
    /// Starts building a custom placement. See also the ready-made
    /// [`LockPlacement::coarse`], [`LockPlacement::fine`],
    /// [`LockPlacement::striped_root`] and [`LockPlacement::speculative`].
    pub fn builder(decomp: Arc<Decomposition>) -> PlacementBuilder {
        PlacementBuilder::new(decomp)
    }

    /// ψ1 (§4.3): one lock at the root protects every edge.
    ///
    /// # Errors
    ///
    /// Propagates validation failures (possible for exotic container
    /// choices; the standard library decompositions always validate).
    pub fn coarse(decomp: &Arc<Decomposition>) -> Result<Arc<LockPlacement>, CoreError> {
        let mut b = Self::builder(Arc::clone(decomp));
        for (e, _) in decomp.edges() {
            b.place(e, decomp.root());
        }
        b.named("coarse").build()
    }

    /// ψ2 (§4.3): each edge is protected by a lock at its source node
    /// ("objects in a container are protected by a single lock on the
    /// container itself").
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn fine(decomp: &Arc<Decomposition>) -> Result<Arc<LockPlacement>, CoreError> {
        let mut b = Self::builder(Arc::clone(decomp));
        for (e, em) in decomp.edges() {
            b.place(e, em.src);
        }
        b.named("fine").build()
    }

    /// ψ3 (§4.4): like [`LockPlacement::fine`], but edges leaving the root
    /// are striped across `k` locks by their own columns
    /// (`i = hash(t(cols)) mod k`).
    ///
    /// # Errors
    ///
    /// Propagates validation failures — e.g. striping a root edge that is
    /// implemented by a concurrency-unsafe container.
    pub fn striped_root(
        decomp: &Arc<Decomposition>,
        k: u32,
    ) -> Result<Arc<LockPlacement>, CoreError> {
        let mut b = Self::builder(Arc::clone(decomp));
        for (e, em) in decomp.edges() {
            if em.src == decomp.root() {
                b.place_striped(e, decomp.root(), em.cols);
            } else {
                b.place(e, em.src);
            }
        }
        b.stripes(decomp.root(), k);
        b.named(&format!("striped({k})")).build()
    }

    /// ψ4 (§4.5): root edges are *speculative* — present edges are locked
    /// at their target instance, absent edges at one of `k` root stripes —
    /// and all other edges are locked at their source.
    ///
    /// # Errors
    ///
    /// Propagates validation failures — e.g. a root edge whose container
    /// does not provide linearizable unlocked lookups.
    pub fn speculative(
        decomp: &Arc<Decomposition>,
        k: u32,
    ) -> Result<Arc<LockPlacement>, CoreError> {
        let mut b = Self::builder(Arc::clone(decomp));
        for (e, em) in decomp.edges() {
            if em.src == decomp.root() {
                b.place_speculative(e, em.cols);
            } else {
                b.place(e, em.src);
            }
        }
        b.stripes(decomp.root(), k);
        b.named(&format!("speculative({k})")).build()
    }

    /// The decomposition this placement belongs to.
    pub fn decomposition(&self) -> &Arc<Decomposition> {
        &self.decomp
    }

    /// A short human-readable name (e.g. `coarse`, `striped(1024)`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The placement of one edge.
    pub fn edge(&self, e: EdgeId) -> EdgePlacement {
        self.edges[e.index()]
    }

    /// Number of physical locks (stripes) attached to each instance of
    /// `node`.
    pub fn stripe_count(&self, node: NodeId) -> u32 {
        self.stripe_counts[node.index()]
    }

    /// Number of physical locks an instance of `node` is built with: its
    /// [stripe count](LockPlacement::stripe_count) where some edge's locks
    /// live — it hosts an edge, or is a §4.5 speculative edge's target —
    /// and none elsewhere, since no plan can name a lock there. Computed
    /// once per placement.
    pub fn lock_count(&self, node: NodeId) -> u32 {
        if self.holds_locks[node.index()] {
            self.stripe_count(node)
        } else {
            0
        }
    }

    /// The lock mode required to *read* (observe) edge instances of `e`.
    ///
    /// Shared for containers whose concurrent reads are safe; exclusive for
    /// read-rebalancing containers such as splay trees (§3.1).
    pub fn read_mode(&self, e: EdgeId) -> LockMode {
        if self.decomp.edge(e).container.props().reads_are_safe() {
            LockMode::Shared
        } else {
            LockMode::Exclusive
        }
    }

    /// Whether this placement permits two transactions inside the *same
    /// container instance* of edge `e` concurrently (used by the autotuner:
    /// a serialized edge wastes a concurrent container; a concurrent edge
    /// requires one).
    pub fn admits_container_concurrency(&self, e: EdgeId) -> bool {
        let ep = self.edges[e.index()];
        if ep.speculative {
            return true;
        }
        let a_src = self.decomp.node(self.decomp.edge(e).src).key_cols;
        // Striping by columns beyond the source key splits one container
        // instance's entries across stripes.
        !ep.stripe_by.is_subset(a_src) && self.stripe_count(ep.host) > 1
    }

    /// Computes the globally ordered token(s) of the physical lock(s)
    /// implementing edge `e`'s logical lock for an edge tuple whose known
    /// fields are `bound` (§4.4: unknown stripe columns conservatively take
    /// every stripe).
    ///
    /// For speculative edges this names the *fallback* (absent-edge) locks;
    /// the present-edge lock is discovered by the speculation protocol.
    pub fn fallback_tokens(&self, e: EdgeId, bound: &Tuple) -> Vec<LockToken> {
        let mut out = Vec::new();
        self.fallback_tokens_into(e, bound, &mut out);
        out
    }

    /// [`LockPlacement::fallback_tokens`] appended into a caller-owned
    /// buffer — the batched operations compute thousands of tokens per
    /// sweep and reuse one allocation.
    pub fn fallback_tokens_into(&self, e: EdgeId, bound: &Tuple, out: &mut Vec<LockToken>) {
        self.tokens_into(e, bound, false, out);
    }

    /// Like [`LockPlacement::fallback_tokens_into`], but unconditionally
    /// takes every stripe at the host. Used when an operation must cover a
    /// whole container instance (scans, emptiness checks) that striping
    /// would otherwise split (§4.4: "we can always conservatively take all
    /// k locks").
    pub fn all_stripe_tokens_into(&self, e: EdgeId, bound: &Tuple, out: &mut Vec<LockToken>) {
        self.tokens_into(e, bound, true, out);
    }

    /// The fallback tokens of edge `e` for the fields `bound` — every
    /// stripe at the host if `all_stripes` — appended to `out`: the one
    /// definition behind [`LockPlacement::fallback_tokens_into`] and
    /// [`LockPlacement::all_stripe_tokens_into`], which the evaluator's
    /// locked view also calls with a row of its frame.
    pub(crate) fn tokens_into(
        &self,
        e: EdgeId,
        bound: &impl BoundFields,
        all_stripes: bool,
        out: &mut Vec<LockToken>,
    ) {
        let ep = self.edges[e.index()];
        let key_cols = self.decomp.node(ep.host).key_cols;
        let dom = bound.dom();
        debug_assert!(
            key_cols.is_subset(dom),
            "host instance key must be bound when locking (planner invariant)"
        );
        let instance = Tuple::from_pairs(key_cols.iter().map(|c| (c, bound.value(c).clone())));
        let k = self.stripe_count(ep.host);
        let node_pos = self.decomp.topo_position(ep.host);
        let token = |instance, stripe| LockToken {
            node_pos,
            instance,
            stripe,
        };
        // An empty stripe_by pins the edge to stripe 0 — one fixed lock at
        // a (possibly otherwise striped) node.
        if !all_stripes && (k == 1 || ep.stripe_by.is_empty()) {
            out.push(token(instance, 0));
        } else if !all_stripes && ep.stripe_by.is_subset(dom) {
            let fields = ep.stripe_by.iter().map(|c| (c, bound.value(c)));
            let stripe = (Tuple::stable_hash_fields(fields) % u64::from(k)) as u32;
            out.push(token(instance, stripe));
        } else {
            // Every stripe: asked for, or (conservatively) because the
            // stripe columns are not all bound.
            out.extend((0..k).map(|stripe| token(instance.clone(), stripe)));
        }
    }

    /// The token of the *target-side* lock used by the speculation protocol
    /// for a present edge instance with target-instance key `target_key`.
    pub fn target_token(&self, e: EdgeId, target_key: &Tuple) -> LockToken {
        let dst = self.decomp.edge(e).dst;
        LockToken {
            node_pos: self.decomp.topo_position(dst),
            instance: target_key.clone(),
            stripe: 0,
        }
    }

    /// Renders the placement like the paper's edge labels:
    /// `ρ→u @ ρ[src mod 4]; u→w @ u; ...`.
    pub fn describe(&self) -> String {
        let cat = self.decomp.schema().catalog();
        let mut parts = Vec::new();
        for (e, em) in self.decomp.edges() {
            let ep = self.edges[e.index()];
            let host = &self.decomp.node(ep.host).name;
            let k = self.stripe_count(ep.host);
            let mut s = format!(
                "{}→{} @ {}{}",
                self.decomp.node(em.src).name,
                self.decomp.node(em.dst).name,
                if ep.speculative { "target/" } else { "" },
                host,
            );
            if k > 1 {
                s.push_str(&format!("[{} mod {}]", cat.render_set(ep.stripe_by), k));
            }
            parts.push(s);
        }
        parts.join("; ")
    }
}

impl fmt::Display for LockPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Builder for [`LockPlacement`].
#[derive(Debug)]
pub struct PlacementBuilder {
    decomp: Arc<Decomposition>,
    edges: Vec<Option<EdgePlacement>>,
    stripe_counts: Vec<u32>,
    name: String,
}

impl PlacementBuilder {
    fn new(decomp: Arc<Decomposition>) -> Self {
        let edges = vec![None; decomp.edge_count()];
        let stripe_counts = vec![1; decomp.node_count()];
        PlacementBuilder {
            decomp,
            edges,
            stripe_counts,
            name: "custom".to_owned(),
        }
    }

    /// Places edge `e`'s locks at `host` (single stripe).
    pub fn place(&mut self, e: EdgeId, host: NodeId) -> &mut Self {
        self.edges[e.index()] = Some(EdgePlacement {
            host,
            stripe_by: ColumnSet::EMPTY,
            speculative: false,
        });
        self
    }

    /// Places edge `e`'s locks at `host`, striped by `stripe_by`.
    pub fn place_striped(&mut self, e: EdgeId, host: NodeId, stripe_by: ColumnSet) -> &mut Self {
        self.edges[e.index()] = Some(EdgePlacement {
            host,
            stripe_by,
            speculative: false,
        });
        self
    }

    /// Places edge `e` speculatively (§4.5): present edges lock at the
    /// target; absent edges at the edge's source (the fallback host),
    /// striped by `stripe_by`.
    pub fn place_speculative(&mut self, e: EdgeId, stripe_by: ColumnSet) -> &mut Self {
        let src = self.decomp.edge(e).src;
        self.edges[e.index()] = Some(EdgePlacement {
            host: src,
            stripe_by,
            speculative: true,
        });
        self
    }

    /// Sets the number of physical locks attached to each instance of
    /// `node`.
    pub fn stripes(&mut self, node: NodeId, k: u32) -> &mut Self {
        self.stripe_counts[node.index()] = k.max(1);
        self
    }

    /// Names the placement (for reports).
    pub fn named(&mut self, name: &str) -> &mut Self {
        self.name = name.to_owned();
        self
    }

    /// Validates well-formedness (§4.3) and container compatibility.
    ///
    /// # Errors
    ///
    /// [`CoreError::IllFormedPlacement`] or
    /// [`CoreError::IncompatibleContainer`]; see the module docs for the
    /// conditions.
    pub fn build(&self) -> Result<Arc<LockPlacement>, CoreError> {
        let d = &self.decomp;
        let mut edges = Vec::with_capacity(d.edge_count());
        for (e, em) in d.edges() {
            let ep = self.edges[e.index()].ok_or_else(|| {
                CoreError::IllFormedPlacement(format!(
                    "edge {}→{} has no placement",
                    d.node(em.src).name,
                    d.node(em.dst).name
                ))
            })?;
            let ename = format!("{}→{}", d.node(em.src).name, d.node(em.dst).name);
            let props = em.container.props();
            let a_src = d.node(em.src).key_cols;
            let edge_cols = a_src.union(em.cols);
            if !ep.stripe_by.is_subset(edge_cols) {
                return Err(CoreError::IllFormedPlacement(format!(
                    "edge {ename}: stripe columns are not part of the edge tuple"
                )));
            }
            if ep.speculative {
                // §4.5 prerequisites.
                if !props.lookup_is_linearizable() {
                    return Err(CoreError::IncompatibleContainer(format!(
                        "edge {ename}: speculative locking requires a container with \
                         linearizable unlocked lookups, but {} is not",
                        em.container
                    )));
                }
                if em.src != d.root() {
                    return Err(CoreError::IllFormedPlacement(format!(
                        "edge {ename}: speculative placement is only supported on edges \
                         leaving the root (the fallback host must never be deallocated)"
                    )));
                }
                if ep.host != em.src {
                    return Err(CoreError::IllFormedPlacement(format!(
                        "edge {ename}: a speculative edge's fallback host must be its source"
                    )));
                }
                if self.stripe_counts[em.dst.index()] != 1 {
                    return Err(CoreError::IllFormedPlacement(format!(
                        "edge {ename}: speculative targets must have exactly one lock"
                    )));
                }
            } else {
                // Domination (§4.3, condition 1).
                if !d.dominates(ep.host, em.src) {
                    return Err(CoreError::IllFormedPlacement(format!(
                        "edge {ename}: host {} does not dominate the edge source",
                        d.node(ep.host).name
                    )));
                }
                // Path-sharing (§4.3, condition 2): every edge on any path
                // host → source shares the host.
                for path in d.paths_between(ep.host, em.src) {
                    for pe in path {
                        let other = self.edges[pe.index()].ok_or_else(|| {
                            CoreError::IllFormedPlacement(format!(
                                "edge on the path protecting {ename} has no placement"
                            ))
                        })?;
                        if other.speculative || other.host != ep.host {
                            return Err(CoreError::IllFormedPlacement(format!(
                                "edge {ename}: edge on the path from host {} is not \
                                 protected by the same lock (path-sharing violated)",
                                d.node(ep.host).name
                            )));
                        }
                    }
                }
                // Concurrency-unsafe containers must be serialized: all
                // entries of one container instance map to one stripe.
                let splits_instance =
                    !ep.stripe_by.is_subset(a_src) && self.stripe_counts[ep.host.index()] > 1;
                if !props.is_concurrency_safe() && splits_instance {
                    return Err(CoreError::IncompatibleContainer(format!(
                        "edge {ename}: {} is not concurrency-safe, but striping by \
                         columns beyond the source key admits concurrent access to one \
                         container instance",
                        em.container
                    )));
                }
            }
            edges.push(ep);
        }
        Ok(self.finish(edges))
    }

    fn finish(&self, edges: Vec<EdgePlacement>) -> Arc<LockPlacement> {
        Arc::new(LockPlacement {
            decomp: Arc::clone(&self.decomp),
            holds_locks: lock_holders(&self.decomp, &edges),
            edges,
            stripe_counts: self.stripe_counts.clone(),
            name: self.name.clone(),
        })
    }

    /// Builds the placement **without** the §4.3/§4.5 validation — every
    /// edge must still have *a* placement, but domination, path-sharing,
    /// and the speculative prerequisites are not enforced.
    ///
    /// This exists solely so the lock-discipline analyzer's rejection
    /// battery (see [`crate::analysis`]) can construct deliberately
    /// ill-formed placements and prove they are flagged; never hand one of
    /// these to an executor.
    ///
    /// # Errors
    ///
    /// [`CoreError::IllFormedPlacement`] if some edge has no placement at
    /// all (the analyzer needs a total edge map to run).
    pub fn build_unchecked(&self) -> Result<Arc<LockPlacement>, CoreError> {
        let d = &self.decomp;
        let mut edges = Vec::with_capacity(d.edge_count());
        for (e, em) in d.edges() {
            let ep = self.edges[e.index()].ok_or_else(|| {
                CoreError::IllFormedPlacement(format!(
                    "edge {}→{} has no placement",
                    d.node(em.src).name,
                    d.node(em.dst).name
                ))
            })?;
            edges.push(ep);
        }
        Ok(self.finish(edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::library::{dcache, diamond, kv, split, stick};
    use relc_containers::ContainerKind;
    use relc_spec::Value;

    #[test]
    fn coarse_places_everything_at_root() {
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        for (e, _) in d.edges() {
            assert_eq!(p.edge(e).host, d.root());
            assert!(!p.edge(e).speculative);
        }
        assert_eq!(p.stripe_count(d.root()), 1);
        assert_eq!(p.name(), "coarse");
    }

    #[test]
    fn fine_places_each_edge_at_source() {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).unwrap();
        for (e, em) in d.edges() {
            assert_eq!(p.edge(e).host, em.src);
        }
    }

    #[test]
    fn striped_root_requires_concurrent_container() {
        // HashMap at the root + striping splits one container instance
        // across stripes: rejected.
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        assert!(matches!(
            LockPlacement::striped_root(&d, 8),
            Err(CoreError::IncompatibleContainer(_))
        ));
        // With a ConcurrentHashMap it validates.
        let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
        let p = LockPlacement::striped_root(&d, 8).unwrap();
        assert_eq!(p.stripe_count(d.root()), 8);
        // k = 1 striping of a non-concurrent container is fine (no split).
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        assert!(LockPlacement::striped_root(&d, 1).is_ok());
    }

    #[test]
    fn speculative_requires_linearizable_lookups() {
        let d = diamond(ContainerKind::HashMap, ContainerKind::HashMap);
        assert!(matches!(
            LockPlacement::speculative(&d, 4),
            Err(CoreError::IncompatibleContainer(_))
        ));
        let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::speculative(&d, 4).unwrap();
        let rx = d.edge_between("ρ", "x").unwrap();
        assert!(p.edge(rx).speculative);
        let xw = d.edge_between("x", "w").unwrap();
        assert!(!p.edge(xw).speculative);
    }

    #[test]
    fn domination_violation_rejected() {
        // Place edge y→w's lock at x: x does not dominate y.
        let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let x = d.node_by_name("x").unwrap();
        let yw = d.edge_between("y", "w").unwrap();
        let mut b = LockPlacement::builder(Arc::clone(&d));
        for (e, em) in d.edges() {
            if e == yw {
                b.place(e, x);
            } else {
                b.place(e, em.src);
            }
        }
        match b.build() {
            Err(CoreError::IllFormedPlacement(m)) => assert!(m.contains("dominate"), "{m}"),
            other => panic!("expected IllFormedPlacement, got {other:?}"),
        }
    }

    #[test]
    fn path_sharing_violation_rejected() {
        // Stick: place u→v at ρ but ρ→u at u. The path ρ→u protecting u→v
        // is not owned by ρ.
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let ru = d.edge_between("ρ", "u").unwrap();
        let uv = d.edge_between("u", "v").unwrap();
        let vw = d.edge_between("v", "w").unwrap();
        let u = d.node_by_name("u").unwrap();
        let v = d.node_by_name("v").unwrap();
        let mut b = LockPlacement::builder(Arc::clone(&d));
        b.place(ru, u); // ill-formed by itself (u does not dominate... u is
                        // the TARGET; host must dominate source ρ; u doesn't)
        b.place(uv, d.root());
        b.place(vw, v);
        assert!(b.build().is_err());

        // Clean path-sharing failure: ρ→u at ρ, u→v at ρ, v→w at v is fine;
        // but ρ→u at ρ, u→v at u, v→w at ρ breaks sharing on path ρ…→v.
        let mut b = LockPlacement::builder(Arc::clone(&d));
        b.place(ru, d.root());
        b.place(uv, u);
        b.place(vw, d.root());
        match b.build() {
            Err(CoreError::IllFormedPlacement(m)) => {
                assert!(m.contains("path-sharing"), "{m}")
            }
            other => panic!("expected path-sharing failure, got {other:?}"),
        }
    }

    #[test]
    fn speculative_only_from_root() {
        let d = stick(
            ContainerKind::ConcurrentHashMap,
            ContainerKind::ConcurrentHashMap,
        );
        let uv = d.edge_between("u", "v").unwrap();
        let mut b = LockPlacement::builder(Arc::clone(&d));
        for (e, em) in d.edges() {
            if e == uv {
                b.place_speculative(e, ColumnSet::EMPTY);
            } else {
                b.place(e, em.src);
            }
        }
        match b.build() {
            Err(CoreError::IllFormedPlacement(m)) => assert!(m.contains("root"), "{m}"),
            other => panic!("expected root-only speculation failure, got {other:?}"),
        }
    }

    #[test]
    fn fallback_tokens_stripe_selection() {
        let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
        let p = LockPlacement::striped_root(&d, 16).unwrap();
        let ru = d.edge_between("ρ", "u").unwrap();
        let s = d.schema();
        let t = s.tuple(&[("src", Value::from(7))]).unwrap();
        let toks = p.fallback_tokens(ru, &t);
        assert_eq!(toks.len(), 1, "src bound picks one stripe");
        assert!(toks[0].stripe < 16);
        assert_eq!(toks[0].node_pos, 0);
        // Same src → same stripe (deterministic); different src → usually
        // different (check a spread).
        let toks2 = p.fallback_tokens(ru, &s.tuple(&[("src", Value::from(7))]).unwrap());
        assert_eq!(toks, toks2);
        // Unbound stripe columns take all stripes.
        let all = p.fallback_tokens(ru, &Tuple::empty());
        assert_eq!(all.len(), 16);
        // Tokens are ordered by stripe.
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn token_order_node_then_instance_then_stripe() {
        let a = LockToken {
            node_pos: 0,
            instance: Tuple::empty(),
            stripe: 5,
        };
        let b = LockToken {
            node_pos: 1,
            instance: Tuple::empty(),
            stripe: 0,
        };
        assert!(a < b);
        let d = stick(ContainerKind::TreeMap, ContainerKind::TreeMap);
        let p = LockPlacement::fine(&d).unwrap();
        let uv = d.edge_between("u", "v").unwrap();
        let s = d.schema();
        let t1 = s.tuple(&[("src", Value::from(1))]).unwrap();
        let t2 = s.tuple(&[("src", Value::from(2))]).unwrap();
        let tok1 = &p.fallback_tokens(uv, &t1)[0];
        let tok2 = &p.fallback_tokens(uv, &t2)[0];
        assert!(tok1 < tok2, "instances ordered lexicographically");
    }

    #[test]
    fn dcache_fine_placement_validates() {
        let d = dcache();
        let p = LockPlacement::fine(&d).unwrap();
        assert!(p.describe().contains("ρ→x @ ρ"));
        // dcache's ρ→y hash edge admits no container-instance concurrency
        // under fine (single lock at ρ).
        let ry = d.edge_between("ρ", "y").unwrap();
        assert!(!p.admits_container_concurrency(ry));
    }

    #[test]
    fn read_mode_exclusive_for_splay() {
        let d = stick(ContainerKind::SplayTreeMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let ru = d.edge_between("ρ", "u").unwrap();
        let uv = d.edge_between("u", "v").unwrap();
        assert_eq!(p.read_mode(ru), LockMode::Exclusive);
        assert_eq!(p.read_mode(uv), LockMode::Shared);
    }

    /// `ρ -key,value→ a`: the root edge's target is a sink, so under a
    /// speculative placement it holds a lock only as the target.
    fn leaf_target() -> Arc<Decomposition> {
        let mut b = Decomposition::builder(relc_spec::library::kv_schema());
        let root = b.root();
        let a = b.node("a");
        b.edge(root, a, &["key", "value"], ContainerKind::ConcurrentHashMap)
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn only_lock_sites_get_locks() {
        let ch = ContainerKind::ConcurrentHashMap;
        let decomps = [
            stick(ch, ContainerKind::TreeMap),
            split(ch, ContainerKind::HashMap),
            diamond(ch, ContainerKind::HashMap),
            kv(ch),
            dcache(),
            leaf_target(),
        ];
        let mut speculative = 0;
        for d in &decomps {
            let placements = [
                LockPlacement::coarse(d),
                LockPlacement::fine(d),
                LockPlacement::striped_root(d, 8),
                LockPlacement::speculative(d, 4),
            ];
            for p in placements.into_iter().flatten() {
                speculative += usize::from(p.name().starts_with("speculative"));
                for (v, meta) in d.nodes() {
                    let site = d.edges().any(|(e, em)| {
                        p.edge(e).host == v || (p.edge(e).speculative && em.dst == v)
                    });
                    let want = if site { p.stripe_count(v) } else { 0 };
                    assert_eq!(p.lock_count(v), want, "{} under {}", meta.name, p.name());
                }
            }
        }
        assert!(speculative > 0, "a speculative placement was covered");

        let node = |d: &Arc<Decomposition>, name| d.node_by_name(name).unwrap();
        let d = split(ch, ContainerKind::HashMap);
        let p = LockPlacement::striped_root(&d, 1024).unwrap();
        assert_eq!(p.lock_count(d.root()), 1024);
        for leaf in ["x", "z"] {
            assert_eq!(p.lock_count(node(&d, leaf)), 0, "{leaf}");
        }
        assert_eq!(p.lock_count(node(&d, "u")), 1);
        let d = stick(ch, ContainerKind::TreeMap);
        let p = LockPlacement::fine(&d).unwrap();
        assert_eq!(p.lock_count(node(&d, "w")), 0);
        let p = LockPlacement::coarse(&d).unwrap();
        for name in ["u", "v", "w"] {
            assert_eq!(p.lock_count(node(&d, name)), 0, "{name}");
        }
        let d = kv(ch);
        let p = LockPlacement::striped_root(&d, 64).unwrap();
        assert_eq!(p.lock_count(node(&d, "b")), 0);
        let d = diamond(ch, ContainerKind::HashMap);
        let p = LockPlacement::speculative(&d, 4).unwrap();
        for target in ["x", "y"] {
            assert_eq!(p.lock_count(node(&d, target)), 1, "{target}");
        }
        assert_eq!(p.lock_count(node(&d, "z")), 0);
        let d = leaf_target();
        let p = LockPlacement::speculative(&d, 4).unwrap();
        assert_eq!(p.lock_count(node(&d, "a")), 1, "speculative target");
        let p = LockPlacement::fine(&d).unwrap();
        assert_eq!(p.lock_count(node(&d, "a")), 0);
    }

    #[test]
    fn admits_concurrency_analysis() {
        let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
        let striped = LockPlacement::striped_root(&d, 1024).unwrap();
        let ru = d.edge_between("ρ", "u").unwrap();
        let uv = d.edge_between("u", "v").unwrap();
        assert!(striped.admits_container_concurrency(ru));
        assert!(!striped.admits_container_concurrency(uv));
        let coarse = LockPlacement::coarse(&d).unwrap();
        assert!(!coarse.admits_container_concurrency(ru));
        let d2 = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let spec = LockPlacement::speculative(&d2, 8).unwrap();
        let rx = d2.edge_between("ρ", "x").unwrap();
        assert!(spec.admits_container_concurrency(rx));
    }
}
