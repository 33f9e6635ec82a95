//! Decomposition instances: the run-time counterpart of a decomposition
//! (§4.1).
//!
//! Each node `v : A ▷ B` of a decomposition has a set of run-time instances
//! `v_t`, one per valuation `t` of `A`; each instance owns, per outgoing
//! edge, the edge's [`VersionIndex`] — and its container, where the index
//! is not already one — and the physical lock stripes assigned to the node
//! by the lock placement. Instances are shared via [`Arc`] — a node with
//! several incoming edges (e.g. the diamond's `w`) is reachable from
//! several edges but is one object, exactly as in Fig. 2(b).
//!
//! **The index follows the edge.** [`NodeInstance::new`] makes an edge from
//! the one [`ContainerKind`](relc_containers::ContainerKind) the
//! decomposition gives it: the version index that fits the container — one
//! inline version chain where the edge holds at most one entry
//! (`Singleton`), a split-ordered hash list with the chains embedded in its
//! entries for a hash-keyed edge (`HashMap`, `ConcurrentHashMap`), a skip
//! list with the chains embedded in its nodes for every other — and the
//! container itself only where the index is not that container already
//! ([`VersionIndex::is_container_for`](relc_containers::VersionIndex::is_container_for)).
//! A `ConcurrentSkipListMap`, `HashMap`, `ConcurrentHashMap` or `Singleton`
//! edge is its index alone: the chain heads are its entries, tentative
//! writes included. Only a `TreeMap`, `CopyOnWriteArrayList` or
//! `SplayTreeMap` edge keeps its container beside the index, written after
//! it by the same `NodeInstance::write`. Readers holding the edge's locks
//! go through [`NodeInstance::lookup`] and [`NodeInstance::scan`], which
//! read whichever the edge has. Nothing else in the runtime knows which
//! shape an edge has.
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
use std::ops::{Bound, ControlFlow};
use std::sync::Arc;

use relc_containers::epoch::{self, Guard};
use relc_containers::Container;
use relc_locks::{CommitStamp, PhysicalLock};
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

/// The version index of one outgoing edge: entry key → that entry's MVCC
/// version chain. Written by every locked write, so snapshot readers
/// traverse only this lock-free structure and never touch containers that
/// are unsafe under concurrent writes.
pub type VersionIndex = relc_containers::VersionIndex<Tuple, Child>;

/// What an instance owns per outgoing edge.
struct EdgeInstance {
    versions: VersionIndex,
    /// The decomposition's container, where the index is not one already.
    container: Option<Box<dyn Container<Tuple, Child>>>,
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
        // The index follows the edge: it and any container are made from
        // the edge's container kind, here and nowhere else.
        let edges = meta
            .outgoing
            .iter()
            .map(|&e| {
                let kind = decomp.edge(e).container;
                EdgeInstance {
                    versions: VersionIndex::for_kind(kind),
                    container: (!VersionIndex::is_container_for(kind))
                        .then(|| kind.instantiate::<Tuple, Child>()),
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

    /// The child or row entry `key` of outgoing edge `edge` holds now,
    /// tentative writes included: what a reader holding the entry's locks
    /// sees. Reads the edge's container where it keeps one, its index's
    /// newest version elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not an outgoing edge of this node.
    pub fn lookup(&self, decomp: &Decomposition, edge: EdgeId, key: &Tuple) -> Option<Child> {
        let slot = self.edge(decomp, edge);
        match &slot.container {
            Some(container) => container.lookup(key),
            None => slot.versions.newest().get(key, &epoch::pin()).cloned(),
        }
    }

    /// Visits the entries of outgoing edge `edge` whose keys lie in
    /// `[lo, hi]`, as [`lookup`](Self::lookup) sees them, until `f`
    /// breaks. In key order where the edge is sorted (a bounded walk then
    /// visits only the interval); a bounded scan of a hash-keyed edge is a
    /// filtered full scan.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not an outgoing edge of this node.
    pub fn scan(
        &self,
        decomp: &Decomposition,
        edge: EdgeId,
        lo: Bound<&Tuple>,
        hi: Bound<&Tuple>,
        f: &mut dyn FnMut(&Tuple, &Child) -> ControlFlow<()>,
    ) {
        let slot = self.edge(decomp, edge);
        match &slot.container {
            Some(container) if matches!((lo, hi), (Bound::Unbounded, Bound::Unbounded)) => {
                container.scan(f);
            }
            Some(container) => container.scan_range(lo, hi, f),
            None => slot.versions.newest().walk(lo, hi, &epoch::pin(), f),
        }
    }

    /// Writes entry `key` of outgoing edge `edge` (`None`: removes it) and
    /// returns whether it was present before: pushes the version, stamped
    /// `stamp`, onto the entry's chain, then writes the container where
    /// the edge keeps one. The caller holds the entry's write locks and
    /// journals the write ([`crate::mvcc::MvccScope::write`]).
    pub(crate) fn write(
        &self,
        decomp: &Decomposition,
        edge: EdgeId,
        key: &Tuple,
        value: Option<Child>,
        stamp: Arc<CommitStamp>,
        guard: &Guard,
    ) -> bool {
        let slot = self.edge(decomp, edge);
        match &slot.container {
            Some(container) => {
                let was = slot.versions.write(key, stamp, value.clone(), guard);
                container.write(key, value);
                was
            }
            None => slot.versions.write(key, stamp, value, guard),
        }
    }

    /// Moves the entry at `old_key` of outgoing edge `edge` to `new_key`,
    /// holding `child`, and returns whether the entry was present: two
    /// versions of one stamp — a tombstone at `old_key`, `child` at
    /// `new_key`, which collapse to one where the keys coincide — then one
    /// [`Container::update_entry`] where the edge keeps a container. Same
    /// contract as [`write`](Self::write).
    pub(crate) fn move_entry(
        &self,
        decomp: &Decomposition,
        edge: EdgeId,
        (old_key, new_key): (&Tuple, &Tuple),
        child: Child,
        stamp: Arc<CommitStamp>,
        guard: &Guard,
    ) -> bool {
        let slot = self.edge(decomp, edge);
        let was = slot
            .versions
            .write(old_key, Arc::clone(&stamp), None, guard);
        match &slot.container {
            Some(container) => {
                slot.versions
                    .write(new_key, stamp, Some(child.clone()), guard);
                container.update_entry(old_key, new_key, child);
            }
            None => {
                slot.versions.write(new_key, stamp, Some(child), guard);
            }
        }
        was
    }

    /// Takes back what the attempt holding `stamp` wrote to entry `key` of
    /// outgoing edge `edge` ([`VersionIndex::revert`]) and, where the edge
    /// keeps a container, writes the container's entry back to what the
    /// chain now says. The caller holds the entry's write locks and has not
    /// committed `stamp`.
    pub(crate) fn revert(
        &self,
        decomp: &Decomposition,
        edge: EdgeId,
        key: &Tuple,
        stamp: &Arc<CommitStamp>,
        guard: &Guard,
    ) {
        let slot = self.edge(decomp, edge);
        let found = slot.versions.revert(key, stamp, guard);
        if let Some(container) = &slot.container {
            container.write(key, found.cloned());
        }
    }

    /// The container of outgoing edge `edge`, if it keeps one beside its
    /// index.
    #[cfg(test)]
    pub(crate) fn container(
        &self,
        decomp: &Decomposition,
        edge: EdgeId,
    ) -> Option<&dyn Container<Tuple, Child>> {
        self.edge(decomp, edge).container.as_deref()
    }

    /// The version index of outgoing edge `edge`.
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

    /// Whether every edge of this instance is empty (the instance
    /// represents no residual tuples and should be unlinked). Asked of the
    /// version indexes, whose newest view a kept container only copies.
    pub fn is_exhausted(&self) -> bool {
        self.edges.iter().all(|e| e.versions.newest().is_empty())
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
            inst.scan(
                decomp,
                e,
                Bound::Unbounded,
                Bound::Unbounded,
                &mut |k, child| {
                    let merged = t.union(k).expect("edge keys extend the path tuple");
                    next.push(match child {
                        Child::Node(node) => (merged, Some(Arc::clone(node))),
                        Child::Row(row) => (
                            merged
                                .union(row)
                                .expect("a payload extends its entry's key"),
                            None,
                        ),
                    });
                    ControlFlow::Continue(())
                },
            );
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
            inst.scan(
                decomp,
                e,
                Bound::Unbounded,
                Bound::Unbounded,
                &mut |k, child| {
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
                    ControlFlow::Continue(())
                },
            );
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

    /// Links `child` under entry `key` of `src`'s edge `e`, as a write of
    /// an attempt that never commits.
    fn link(d: &Decomposition, src: &NodeRef, e: EdgeId, key: &Tuple, child: &NodeRef) {
        let guard = epoch::pin();
        let value = Some(Child::Node(Arc::clone(child)));
        src.write(d, e, key, value, CommitStamp::new(), &guard);
    }

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
        link(&d, &root, ru, &full.project(d.edge(ru).cols), &u_inst);
        link(&d, &u_inst, uv, &full.project(d.edge(uv).cols), &v_inst);
        link(&d, &v_inst, vw, &full.project(d.edge(vw).cols), &w_inst);

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
        link(&d, &root, rx, &full.project(d.edge(rx).cols), &x_inst);
        link(&d, &x_inst, xw, &full.project(d.edge(xw).cols), &w_inst);
        link(&d, &w_inst, wz, &full.project(d.edge(wz).cols), &z_inst);

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
        link(&d, &root, rx, &full.project(d.edge(rx).cols), &x_inst);
        link(&d, &x_inst, xy, &full.project(d.edge(xy).cols), &y1);
        link(&d, &root, ry, &full.project(d.edge(ry).cols), &y2);
        link(&d, &y1, yz, &full.project(d.edge(yz).cols), &z_inst);
        link(&d, &y2, yz, &full.project(d.edge(yz).cols), &z_inst);

        let err = verify_instance(&d, &root).unwrap_err();
        assert!(err.contains("duplicated"), "{err}");
    }

    /// An edge whose version index is its container keeps no other
    /// structure; only the kinds no index shape stands in for — `TreeMap`,
    /// `CopyOnWriteArrayList`, `SplayTreeMap` — keep their container beside
    /// the index.
    #[test]
    fn only_edges_whose_index_is_not_their_container_keep_one() {
        let kept_beside = [
            ContainerKind::TreeMap,
            ContainerKind::CopyOnWriteArrayList,
            ContainerKind::SplayTreeMap,
        ];
        for kind in ContainerKind::ALL {
            // `stick`'s `v→w` is a Singleton edge; any kind but that fits
            // its root edge.
            let root_kind = if kind == ContainerKind::Singleton {
                ContainerKind::HashMap
            } else {
                kind
            };
            let d = stick(root_kind, ContainerKind::TreeMap);
            let p = LockPlacement::coarse(&d).unwrap();
            let (src, dst) = if kind == ContainerKind::Singleton {
                ("v", "w")
            } else {
                ("ρ", "u")
            };
            let node = d.node_by_name(src).unwrap();
            let key = mk_tuple(&d, &[("src", 1), ("dst", 2)]).project(d.node(node).key_cols);
            let inst = NodeInstance::new(&d, &p, node, key);
            let edge = d.edge_between(src, dst).unwrap();
            let kept = inst.container(&d, edge).is_some();
            assert_eq!(kept, kept_beside.contains(&kind), "{kind:?}");
        }
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
