//! Decomposition instances: the run-time counterpart of a decomposition
//! (§4.1).
//!
//! Each node `v : A ▷ B` of a decomposition has a set of run-time instances
//! `v_t`, one per valuation `t` of `A`; each instance owns, per outgoing
//! edge, the edge's container and its shadow [`VersionIndex`], and the
//! physical lock stripes assigned to the node by the lock placement.
//! Instances are shared via [`Arc`] — a node with several incoming edges
//! (e.g. the diamond's `w`) is reachable from several containers but is one
//! object, exactly as in Fig. 2(b).
//!
//! **The index follows the edge.** [`NodeInstance::new`] makes both halves
//! of an edge from the one [`ContainerKind`](relc_containers::ContainerKind)
//! the decomposition gives it: the container that fits the edge, and the
//! version index that fits that container — one inline version chain where
//! the edge holds at most one entry (`Singleton`), a skip list with the
//! chains embedded in its nodes everywhere else. Nothing else in the
//! runtime knows which shape an edge has.
//!
//! **An entry holds a child or a row.** An entry of an edge leads to the
//! instance of the edge's target ([`Child::Node`]) — unless lowering fused
//! the edge ([`crate::lower`]): then the target and its Singleton leaves are
//! never instantiated, and the entry holds the target's dependent columns
//! instead ([`Child::Row`]), in the container and in the version cell
//! alike. The `weight` of a `split` edge `(s, d)` is then one field of the
//! entry `d` in `s`'s instance, not an instance `w` with an `edges` box, a
//! version chain and a leaf of its own. A fused entry's logical lock is its
//! parent edge's: it lives at the same host, on the same stripe, as the
//! lock of the entry's key.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use relc_containers::Container;
use relc_locks::PhysicalLock;
use relc_spec::Tuple;

use crate::decomp::{Decomposition, EdgeId, NodeId};
use crate::placement::LockPlacement;

/// Shared handle to a node instance.
pub type NodeRef = Arc<NodeInstance>;

/// What an entry of an edge holds (see the module docs).
#[derive(Debug, Clone)]
pub enum Child {
    /// The instance of the edge's target.
    Node(NodeRef),
    /// A fused edge's payload: the valuation of its target's dependent
    /// columns.
    Row(Tuple),
}

impl Child {
    /// The child instance; `None` for a fused entry's row.
    pub fn node(&self) -> Option<&NodeRef> {
        match self {
            Child::Node(node) => Some(node),
            Child::Row(_) => None,
        }
    }
}

/// The shadow version index of one outgoing edge: entry key → that
/// entry's MVCC version chain. Kept parallel to the edge's main
/// container and mirrored by every locked write, so snapshot readers
/// traverse only this lock-free structure and never touch containers
/// that are unsafe under concurrent writes.
pub type VersionIndex = relc_containers::VersionIndex<Tuple, Child>;

/// What an instance owns per outgoing edge.
struct EdgeInstance {
    container: Box<dyn Container<Tuple, Child>>,
    versions: VersionIndex,
}

/// A run-time instance `v_t` of decomposition node `v`.
pub struct NodeInstance {
    node: NodeId,
    key: Tuple,
    locks: Box<[Arc<PhysicalLock>]>,
    /// Parallel to `node.outgoing`.
    edges: Box<[EdgeInstance]>,
}

impl NodeInstance {
    /// Creates a fresh instance of `node` keyed by `key` (a valuation of the
    /// node's `A` columns), with empty containers and the placement's
    /// [`lock_count`](LockPlacement::lock_count) locks: its stripes where
    /// some edge's locks live, none where no plan can take one.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `key` is not a valuation of the node's key columns.
    pub fn new(
        decomp: &Decomposition,
        placement: &LockPlacement,
        node: NodeId,
        key: Tuple,
    ) -> NodeRef {
        let meta = decomp.node(node);
        debug_assert!(
            key.is_valuation_for(meta.key_cols),
            "instance key {key:?} must be a valuation of node {}'s key columns",
            meta.name
        );
        let locks = (0..placement.lock_count(node))
            .map(|_| Arc::new(PhysicalLock::new()))
            .collect();
        // The index follows the edge: both are made from the edge's
        // container kind, here and nowhere else.
        let edges = meta
            .outgoing
            .iter()
            .map(|&e| {
                let kind = decomp.edge(e).container;
                EdgeInstance {
                    container: kind.instantiate::<Tuple, Child>(),
                    versions: VersionIndex::for_kind(kind),
                }
            })
            .collect();
        Arc::new(NodeInstance {
            node,
            key,
            locks,
            edges,
        })
    }

    /// The decomposition node this is an instance of.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The instance key (valuation of the node's `A` columns).
    pub fn key(&self) -> &Tuple {
        &self.key
    }

    /// The physical lock for stripe `stripe`.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` exceeds the placement's lock count for the node.
    pub fn lock(&self, stripe: u32) -> &Arc<PhysicalLock> {
        &self.locks[stripe as usize]
    }

    fn edge(&self, decomp: &Decomposition, edge: EdgeId) -> &EdgeInstance {
        let pos = decomp
            .node(self.node)
            .outgoing
            .iter()
            .position(|&e| e == edge)
            .expect("edge must leave this node");
        &self.edges[pos]
    }

    /// The container implementing outgoing edge `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not an outgoing edge of this node.
    pub fn container(&self, decomp: &Decomposition, edge: EdgeId) -> &dyn Container<Tuple, Child> {
        &*self.edge(decomp, edge).container
    }

    /// The shadow version index of outgoing edge `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not an outgoing edge of this node.
    pub fn versions(&self, decomp: &Decomposition, edge: EdgeId) -> &VersionIndex {
        &self.edge(decomp, edge).versions
    }

    /// Starts loading what reading outgoing edge `edge` of this instance
    /// touches, one hop at a time, without waiting for it: this instance's
    /// own fields that find the edge (`slot` false), or the edge's slot,
    /// where its version index begins (`slot` true; reads those fields, so
    /// it pays off after a `slot`-false call). The first 64 bytes of the
    /// index — where either shape keeps the pointer a read follows first —
    /// may straddle two cache lines, so both are asked for. A hint with no
    /// effect on what any read returns.
    pub(crate) fn prefetch(&self, decomp: &Decomposition, edge: EdgeId, slot: bool) {
        if slot {
            let index = std::ptr::from_ref(self.versions(decomp, edge)).cast::<u8>();
            relc_containers::prefetch(index);
            relc_containers::prefetch(index.wrapping_add(63));
        } else {
            relc_containers::prefetch(&self.node);
            relc_containers::prefetch(&self.edges);
        }
    }

    /// Whether every container of this instance is empty (the instance
    /// represents no residual tuples and should be unlinked).
    pub fn is_exhausted(&self) -> bool {
        self.edges.iter().all(|e| e.container.is_empty())
    }
}

impl fmt::Debug for NodeInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeInstance")
            .field("node", &self.node)
            .field("key", &self.key)
            .field("stripes", &self.locks.len())
            .finish()
    }
}

/// Walks one maximal chain of `decomp` from `root`, returning the set of
/// full tuples it represents. `chain` is a root-originating edge path ending
/// at a sink. A fused entry's row completes its tuple: the chain's edges
/// below it, which fusion never instantiated, pass it through.
///
/// Not synchronized: callers must be quiescent (tests, assertions).
fn tuples_along_chain(decomp: &Decomposition, root: &NodeRef, chain: &[EdgeId]) -> BTreeSet<Tuple> {
    let mut states: Vec<(Tuple, Option<NodeRef>)> = vec![(Tuple::empty(), Some(Arc::clone(root)))];
    for &e in chain {
        let mut next = Vec::new();
        for (t, inst) in states {
            let Some(inst) = inst else {
                next.push((t, None));
                continue;
            };
            inst.container(decomp, e)
                .scan(&mut |k: &Tuple, child: &Child| {
                    let merged = t.union(k).expect("container keys extend the path tuple");
                    next.push(match child {
                        Child::Node(node) => (merged, Some(Arc::clone(node))),
                        Child::Row(row) => (
                            merged
                                .union(row)
                                .expect("a payload extends its entry's key"),
                            None,
                        ),
                    });
                    std::ops::ControlFlow::Continue(())
                });
        }
        states = next;
    }
    states.into_iter().map(|(t, _)| t).collect()
}

/// All maximal chains (root-to-sink edge paths) of a decomposition.
pub fn maximal_chains(decomp: &Decomposition) -> Vec<Vec<EdgeId>> {
    let mut out = Vec::new();
    let mut stack = Vec::new();
    fn rec(
        decomp: &Decomposition,
        node: NodeId,
        stack: &mut Vec<EdgeId>,
        out: &mut Vec<Vec<EdgeId>>,
    ) {
        let meta = decomp.node(node);
        if meta.outgoing.is_empty() {
            out.push(stack.clone());
            return;
        }
        for &e in &meta.outgoing {
            stack.push(e);
            rec(decomp, decomp.edge(e).dst, stack, out);
            stack.pop();
        }
    }
    rec(decomp, decomp.root(), &mut stack, &mut out);
    out
}

/// The abstraction function α: the relation represented by a decomposition
/// instance (§4.1), computed from the first maximal chain.
///
/// Not synchronized: callers must be quiescent.
pub fn abstract_relation(decomp: &Decomposition, root: &NodeRef) -> BTreeSet<Tuple> {
    let chains = maximal_chains(decomp);
    tuples_along_chain(decomp, root, &chains[0])
}

/// Full well-formedness check of a quiescent instance:
///
/// * every maximal chain represents the same tuple set (branch agreement);
/// * instances of shared nodes are physically shared (`Arc::ptr_eq`);
/// * no instance is exhausted (empty substructures must be unlinked);
/// * every instance key matches its position in the graph;
/// * a fused entry's row binds exactly its target's dependent columns.
///
/// Returns the represented relation on success.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn verify_instance(decomp: &Decomposition, root: &NodeRef) -> Result<BTreeSet<Tuple>, String> {
    let chains = maximal_chains(decomp);
    let reference = tuples_along_chain(decomp, root, &chains[0]);
    for chain in &chains[1..] {
        let got = tuples_along_chain(decomp, root, chain);
        if got != reference {
            return Err(format!(
                "branch disagreement: chain {chain:?} represents {got:?}, \
                 expected {reference:?}"
            ));
        }
    }
    // Structural walk: sharing, keys, exhaustion.
    let mut seen: HashMap<(NodeId, Tuple), *const NodeInstance> = HashMap::new();
    let mut stack: Vec<NodeRef> = vec![Arc::clone(root)];
    while let Some(inst) = stack.pop() {
        let meta = decomp.node(inst.node());
        if !inst.key().is_valuation_for(meta.key_cols) {
            return Err(format!(
                "instance of {} has key {:?} not matching its columns",
                meta.name,
                inst.key()
            ));
        }
        if inst.node() != decomp.root() && inst.is_exhausted() && !meta.outgoing.is_empty() {
            return Err(format!(
                "instance {:?} of {} is exhausted but still linked",
                inst.key(),
                meta.name
            ));
        }
        let ptr = Arc::as_ptr(&inst);
        match seen.insert((inst.node(), inst.key().clone()), ptr) {
            Some(prev) if prev != ptr => {
                return Err(format!(
                    "instance {:?} of {} is duplicated instead of shared",
                    inst.key(),
                    meta.name
                ));
            }
            Some(_) => continue, // already visited this exact object
            None => {}
        }
        for &e in &meta.outgoing {
            let dst = decomp.node(decomp.edge(e).dst);
            let mut bad_row = None;
            inst.container(decomp, e)
                .scan(&mut |k: &Tuple, child: &Child| {
                    match child {
                        Child::Node(node) => {
                            let expected = inst
                                .key()
                                .union(k)
                                .expect("edge key extends instance key")
                                .project(dst.key_cols);
                            if node.key() == &expected {
                                stack.push(Arc::clone(node));
                            }
                        }
                        Child::Row(row) if row.dom() != dst.residual => {
                            bad_row.get_or_insert_with(|| k.clone());
                        }
                        Child::Row(_) => {}
                    }
                    std::ops::ControlFlow::Continue(())
                });
            if let Some(k) = bad_row {
                return Err(format!(
                    "fused entry {k:?} of instance {:?} of {} does not hold {}'s dependent columns",
                    inst.key(),
                    meta.name,
                    dst.name
                ));
            }
        }
    }
    Ok(reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::library::{dcache, diamond, stick};
    use crate::placement::LockPlacement;
    use relc_containers::ContainerKind;
    use relc_spec::Value;

    fn mk_tuple(d: &Decomposition, fields: &[(&str, i64)]) -> Tuple {
        d.schema()
            .tuple(
                &fields
                    .iter()
                    .map(|(n, v)| (*n, Value::from(*v)))
                    .collect::<Vec<_>>(),
            )
            .unwrap()
    }

    /// Hand-builds an instance of the stick decomposition holding one edge
    /// (1, 2, 42), mirroring Fig. 2(b)'s construction.
    #[test]
    fn hand_built_stick_instance_abstracts_correctly() {
        let d = stick(ContainerKind::TreeMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let root = NodeInstance::new(&d, &p, d.root(), Tuple::empty());
        let u = d.node_by_name("u").unwrap();
        let v = d.node_by_name("v").unwrap();
        let w = d.node_by_name("w").unwrap();

        let full = mk_tuple(&d, &[("src", 1), ("dst", 2), ("weight", 42)]);
        let u_inst = NodeInstance::new(&d, &p, u, full.project(d.node(u).key_cols));
        let v_inst = NodeInstance::new(&d, &p, v, full.project(d.node(v).key_cols));
        let w_inst = NodeInstance::new(&d, &p, w, full.clone());

        let ru = d.edge_between("ρ", "u").unwrap();
        let uv = d.edge_between("u", "v").unwrap();
        let vw = d.edge_between("v", "w").unwrap();
        root.container(&d, ru).write(
            &full.project(d.edge(ru).cols),
            Some(Child::Node(Arc::clone(&u_inst))),
        );
        u_inst.container(&d, uv).write(
            &full.project(d.edge(uv).cols),
            Some(Child::Node(Arc::clone(&v_inst))),
        );
        v_inst.container(&d, vw).write(
            &full.project(d.edge(vw).cols),
            Some(Child::Node(Arc::clone(&w_inst))),
        );

        let rel = abstract_relation(&d, &root);
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&full));
        let verified = verify_instance(&d, &root).expect("well-formed");
        assert_eq!(verified, rel);
    }

    #[test]
    fn diamond_branch_disagreement_is_detected() {
        let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).unwrap();
        let root = NodeInstance::new(&d, &p, d.root(), Tuple::empty());
        let x = d.node_by_name("x").unwrap();
        let w = d.node_by_name("w").unwrap();
        let z = d.node_by_name("z").unwrap();

        // Populate only the src-side branch: ρ→x→w→z, leaving ρ→y empty.
        let full = mk_tuple(&d, &[("src", 1), ("dst", 2), ("weight", 9)]);
        let x_inst = NodeInstance::new(&d, &p, x, full.project(d.node(x).key_cols));
        let w_inst = NodeInstance::new(&d, &p, w, full.project(d.node(w).key_cols));
        let z_inst = NodeInstance::new(&d, &p, z, full.clone());
        let rx = d.edge_between("ρ", "x").unwrap();
        let xw = d.edge_between("x", "w").unwrap();
        let wz = d.edge_between("w", "z").unwrap();
        root.container(&d, rx).write(
            &full.project(d.edge(rx).cols),
            Some(Child::Node(Arc::clone(&x_inst))),
        );
        x_inst.container(&d, xw).write(
            &full.project(d.edge(xw).cols),
            Some(Child::Node(Arc::clone(&w_inst))),
        );
        w_inst.container(&d, wz).write(
            &full.project(d.edge(wz).cols),
            Some(Child::Node(Arc::clone(&z_inst))),
        );

        let err = verify_instance(&d, &root).unwrap_err();
        assert!(err.contains("branch disagreement"), "{err}");
    }

    #[test]
    fn duplicate_instead_of_shared_is_detected() {
        let d = dcache();
        let p = LockPlacement::fine(&d).unwrap();
        let root = NodeInstance::new(&d, &p, d.root(), Tuple::empty());
        let x = d.node_by_name("x").unwrap();
        let y = d.node_by_name("y").unwrap();
        let z = d.node_by_name("z").unwrap();

        let full = mk_tuple(&d, &[("parent", 1), ("name", 7), ("child", 2)]);
        let x_inst = NodeInstance::new(&d, &p, x, full.project(d.node(x).key_cols));
        // Two *different* y instances for the same key: a sharing bug.
        let y1 = NodeInstance::new(&d, &p, y, full.project(d.node(y).key_cols));
        let y2 = NodeInstance::new(&d, &p, y, full.project(d.node(y).key_cols));
        let z_inst = NodeInstance::new(&d, &p, z, full.clone());

        let rx = d.edge_between("ρ", "x").unwrap();
        let xy = d.edge_between("x", "y").unwrap();
        let ry = d.edge_between("ρ", "y").unwrap();
        let yz = d.edge_between("y", "z").unwrap();
        root.container(&d, rx).write(
            &full.project(d.edge(rx).cols),
            Some(Child::Node(Arc::clone(&x_inst))),
        );
        x_inst.container(&d, xy).write(
            &full.project(d.edge(xy).cols),
            Some(Child::Node(Arc::clone(&y1))),
        );
        root.container(&d, ry).write(
            &full.project(d.edge(ry).cols),
            Some(Child::Node(Arc::clone(&y2))),
        );
        y1.container(&d, yz).write(
            &full.project(d.edge(yz).cols),
            Some(Child::Node(Arc::clone(&z_inst))),
        );
        y2.container(&d, yz).write(
            &full.project(d.edge(yz).cols),
            Some(Child::Node(Arc::clone(&z_inst))),
        );

        let err = verify_instance(&d, &root).unwrap_err();
        assert!(err.contains("duplicated"), "{err}");
    }

    #[test]
    fn maximal_chains_enumeration() {
        let d = stick(ContainerKind::TreeMap, ContainerKind::TreeMap);
        assert_eq!(maximal_chains(&d).len(), 1);
        let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        assert_eq!(maximal_chains(&d).len(), 2);
        let d = dcache();
        assert_eq!(maximal_chains(&d).len(), 2);
    }

    #[test]
    fn empty_instance_abstracts_to_empty_relation() {
        let d = stick(ContainerKind::HashMap, ContainerKind::HashMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let root = NodeInstance::new(&d, &p, d.root(), Tuple::empty());
        assert!(abstract_relation(&d, &root).is_empty());
        assert_eq!(verify_instance(&d, &root).unwrap().len(), 0);
        assert!(root.is_exhausted());
    }

    #[test]
    fn stripe_count_respected() {
        let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
        let p = LockPlacement::striped_root(&d, 8).unwrap();
        let root = NodeInstance::new(&d, &p, d.root(), Tuple::empty());
        for s in 0..8 {
            let _ = root.lock(s);
        }
        let u = d.node_by_name("u").unwrap();
        let u_inst = NodeInstance::new(&d, &p, u, mk_tuple(&d, &[("src", 1)]));
        let _ = u_inst.lock(0);
        assert!(!format!("{u_inst:?}").is_empty());
    }
}
