//! The concurrent query language (§5.2, Fig. 4) and its one evaluator.
//!
//! Compiled relational operations are sequences of *plan steps* over sets of
//! *query states*. A query state pairs a partial tuple with a mapping from
//! decomposition nodes to node instances — exactly the paper's `(t, m)`
//! pairs. The step language mirrors Fig. 4's expressions: `lock`, `lookup`,
//! and `scan` (plus the combined speculative lookup of §4.5); `let`-bound
//! sequencing is implicit in the step list, and the matching `unlock`s of
//! the shrinking phase are emitted by the renderer and performed by the
//! engine's release-all at commit.
//!
//! # One evaluator, two edge views
//!
//! The language has one evaluation semantics, so it has one evaluator, in
//! two traversal orders: breadth-first over every state (`query`,
//! `query_range`, and the locate phase of every mutation — §5.2's "query
//! plan that locates and locks all of the edges that require updating")
//! and depth-first to the first witness (`contains`, and an insert's
//! existence check). They are the only code that interprets
//! [`PlanStep`]s; a mutation adds only its write phase, over the states
//! its locate plan leaves. What differs between a locked read and a
//! lock-free snapshot read is *how one edge is read*, and that is the edge
//! view the evaluator is generic over: the locked view
//! ([`crate::exec::Executor`]) takes the step's locks and reads the edge
//! containers; the snapshot view (in `mvcc.rs`) takes none and resolves
//! the edge's version index at its timestamp.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Bound, ControlFlow};
use std::sync::Arc;

use relc_locks::LockMode;
use relc_spec::{RangePattern, Tuple, Value};

use crate::decomp::{Decomposition, EdgeId, NodeId};
use crate::exec::assemble_range_output;
use crate::instance::NodeRef;
use crate::planner::Plan;

/// One step of a compiled plan (growing phase; unlocks are implicit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// Acquire the physical locks implementing edge `edge`'s logical locks
    /// for every current query state, in `mode`.
    ///
    /// `presorted` records the §5.2 static analysis: when the states were
    /// produced by a sorted scan whose order coincides with the lock order,
    /// the runtime sort of the lock set can be elided.
    Lock {
        /// The edge whose logical locks are being implemented.
        edge: EdgeId,
        /// Requested mode.
        mode: LockMode,
        /// Lock set is already sorted (sort elision, §5.2).
        presorted: bool,
        /// Take every stripe at the host: required when the following
        /// traversal reads a whole container instance that striping splits
        /// (§4.4's conservative all-`k` acquisition).
        all_stripes: bool,
    },
    /// Traverse `edge` by point lookup: the edge's columns are already bound
    /// in every state.
    Lookup {
        /// The edge to traverse.
        edge: EdgeId,
    },
    /// Traverse `edge` by scanning its container, binding the edge's columns
    /// (filtered against any partial bindings).
    Scan {
        /// The edge to traverse.
        edge: EdgeId,
    },
    /// Traverse `edge` by a *bounded* range scan: the edge's single key
    /// column is the range column of a [`relc_spec::RangePattern`], so the
    /// interval over values is a contiguous interval of container keys.
    /// On a sorted container ([`ordered`](PlanStep::RangeScan::ordered))
    /// the traversal visits only the interval, in key order; elsewhere it
    /// degrades to a filtered full scan. The interval's bounds travel
    /// alongside the plan (steps are shapes, not instances — like the
    /// pattern tuple of every other step).
    RangeScan {
        /// The edge to traverse.
        edge: EdgeId,
        /// Whether the edge's container keeps sorted order (`sorted_scan`),
        /// making the traversal a bounded in-order walk whose output is in
        /// range order (enables limit short-circuiting downstream).
        ordered: bool,
    },
    /// §4.5: speculative point traversal of a concurrency-safe edge — guess
    /// via an unlocked lookup, lock the target (present) or the fallback
    /// stripe (absent), re-validate, restart the transaction on a wrong
    /// guess.
    SpecLookup {
        /// The edge to traverse.
        edge: EdgeId,
        /// Mode for the edge's logical lock.
        mode: LockMode,
    },
}

impl PlanStep {
    /// The edge this step concerns.
    pub fn edge(&self) -> EdgeId {
        match self {
            PlanStep::Lock { edge, .. }
            | PlanStep::Lookup { edge }
            | PlanStep::Scan { edge }
            | PlanStep::RangeScan { edge, .. }
            | PlanStep::SpecLookup { edge, .. } => *edge,
        }
    }

    /// Whether the step acquires locks.
    pub fn is_lock(&self) -> bool {
        matches!(self, PlanStep::Lock { .. } | PlanStep::SpecLookup { .. })
    }
}

/// A query state `(t, m)`: a partial tuple plus bindings from decomposition
/// nodes to node instances (§5.2).
#[derive(Debug, Clone)]
pub struct QueryState {
    /// The tuple accumulated so far (pattern plus bound columns).
    pub tuple: Tuple,
    /// `m`: per-node instance bindings (indexed by `NodeId`).
    pub nodes: Vec<Option<NodeRef>>,
}

impl QueryState {
    /// The initial state: the operation's pattern tuple with only the root
    /// instance bound.
    pub fn initial(decomp: &Decomposition, pattern: Tuple, root: NodeRef) -> Self {
        let mut nodes = vec![None; decomp.node_count()];
        nodes[decomp.root().index()] = Some(root);
        QueryState {
            tuple: pattern,
            nodes,
        }
    }

    /// The bound instance of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node is unbound — a planner invariant violation.
    pub fn instance(&self, node: NodeId) -> &NodeRef {
        self.nodes[node.index()]
            .as_ref()
            .expect("planner invariant: node instance bound before use")
    }
}

/// A key interval of one edge's entries.
pub(crate) type KeyBounds = (Bound<Tuple>, Bound<Tuple>);

/// The container-key interval of a range over a single-column edge: each
/// value bound becomes a single-field key tuple bound (tuple order over
/// single-column keys coincides with value order).
fn range_key_bounds(range: &RangePattern) -> KeyBounds {
    let mk = |b: Bound<&Value>| match b {
        Bound::Included(v) => Bound::Included(Tuple::from_pairs([(range.col(), v.clone())])),
        Bound::Excluded(v) => Bound::Excluded(Tuple::from_pairs([(range.col(), v.clone())])),
        Bound::Unbounded => Bound::Unbounded,
    };
    (mk(range.lo()), mk(range.hi()))
}

/// How one edge of a decomposition instance is read: the three questions a
/// plan step asks, answered under some synchronisation policy. The
/// evaluator is monomorphised over this, so the policy costs nothing.
pub(crate) trait EdgeView {
    /// What a failed acquisition or speculation returns: `MustRestart`
    /// under locks, `Infallible` at a snapshot.
    type Restart;

    /// Whether an interval [`Self::walk`] is in ascending key order whatever
    /// the edge's container kind (else the step's `ordered` flag says).
    const WALKS_IN_KEY_ORDER: bool;

    /// Acquires the physical locks implementing `edge`'s logical locks for
    /// every state in `states`.
    fn lock(
        &mut self,
        states: &[QueryState],
        edge: EdgeId,
        mode: LockMode,
        presorted: bool,
        all_stripes: bool,
    ) -> Result<(), Self::Restart>;

    /// Follows `key` through `edge` of `st`'s source instance; `None` if the
    /// edge instance is absent. `spec` carries the mode of a §4.5
    /// speculative step, whose view also takes the step's locks.
    fn follow(
        &mut self,
        st: &QueryState,
        edge: EdgeId,
        key: &Tuple,
        spec: Option<LockMode>,
    ) -> Result<Option<NodeRef>, Self::Restart>;

    /// Walks the entries of `edge` at `st`'s source instance that match
    /// `st`'s partial tuple (inside `bounds`, if given) until `f` breaks.
    /// `f` gets the view back so a depth-first caller can keep using it.
    fn walk(
        &mut self,
        st: &QueryState,
        edge: EdgeId,
        bounds: Option<&KeyBounds>,
        f: impl FnMut(&mut Self, &Tuple, NodeRef) -> ControlFlow<()>,
    );
}

/// The key interval a walking step covers: none for a plain scan, the
/// range's for a `RangeScan` — the one place that checks it has one.
fn walk_bounds(ranged: bool, bounds: Option<&KeyBounds>) -> Option<&KeyBounds> {
    ranged.then(|| bounds.expect("planner invariant: RangeScan only in plans run with a range"))
}

/// Binds `dst` to `child` in `nodes`. A node reached along two edges is
/// reached at one instance (§4.1 sharing), so a second binding must name
/// the instance already bound.
pub(crate) fn bind(nodes: &mut [Option<NodeRef>], dst: NodeId, child: NodeRef) {
    debug_assert!(
        nodes[dst.index()]
            .as_ref()
            .is_none_or(|prev| Arc::ptr_eq(prev, &child)),
        "shared node reached with different instances"
    );
    nodes[dst.index()] = Some(child);
}

/// `st` extended through a walked entry (`k` joins the tuple, `child` binds
/// `dst`). Clone-then-overwrite on purpose: building it from `nodes.clone()`
/// alone measured −20% ops/s on `graph_read_mostly` (CHANGES.md, PR 16).
fn extend(st: &QueryState, dst: NodeId, k: &Tuple, child: NodeRef) -> QueryState {
    let mut next = st.clone();
    next.tuple = st.tuple.union(k).expect("matches implies mergeable");
    bind(&mut next.nodes, dst, child);
    next
}

/// Evaluates `plan` breadth-first over **all** states from `st` — the
/// locked view needs every state of a step at once to sort its lock batch
/// — and returns the states that survive every step. A query projects
/// them ([`eval_all`]); a mutation's locate phase reads its one survivor's
/// tuple and node instances, which it then writes under the locks the
/// walk took.
///
/// Given a `range`, `RangeScan` steps walk only its key interval, and an
/// ordered walk that is the plan's last traversal stops once it has
/// `limit` distinct output projections per state.
pub(crate) fn eval_states<V: EdgeView>(
    decomp: &Decomposition,
    view: &mut V,
    plan: &Plan,
    range: Option<&RangePattern>,
    st: QueryState,
) -> Result<Vec<QueryState>, V::Restart> {
    let mut states = vec![st];
    let bounds = range.map(range_key_bounds);
    let last = plan.steps.len().saturating_sub(1);
    for (i, step) in plan.steps.iter().enumerate() {
        match step {
            PlanStep::Lock {
                edge,
                mode,
                presorted,
                all_stripes,
            } => {
                view.lock(&states, *edge, *mode, *presorted, *all_stripes)?;
                continue;
            }
            PlanStep::Lookup { edge } | PlanStep::SpecLookup { edge, .. } => {
                let em = decomp.edge(*edge);
                let spec = match step {
                    PlanStep::SpecLookup { mode, .. } => Some(*mode),
                    _ => None,
                };
                let mut out = Vec::with_capacity(states.len());
                for mut st in states {
                    let key = st.tuple.project(em.cols);
                    debug_assert!(
                        key.is_valuation_for(em.cols),
                        "planner invariant: lookup key fully bound"
                    );
                    if let Some(child) = view.follow(&st, *edge, &key, spec)? {
                        bind(&mut st.nodes, em.dst, child);
                        out.push(st);
                    }
                }
                states = out;
            }
            PlanStep::Scan { edge } | PlanStep::RangeScan { edge, .. } => {
                // Top-k short circuit, only on an ordered walk that is the
                // plan's final traversal: entries arrive in strictly
                // ascending value order per state (single-column keys carry
                // one entry per value), so once `k` distinct output
                // projections are collected, every later entry either
                // duplicates one (at a larger value, which dedup discards)
                // or has `k` strictly smaller distinct predecessors — never
                // in the global top-k.
                let (ranged, in_order) = match step {
                    PlanStep::RangeScan { ordered, .. } => {
                        (true, *ordered || V::WALKS_IN_KEY_ORDER)
                    }
                    _ => (false, false),
                };
                let interval = walk_bounds(ranged, bounds.as_ref());
                let limit = range
                    .and_then(RangePattern::limit)
                    .filter(|_| in_order && i == last);
                let dst = decomp.edge(*edge).dst;
                let mut out = Vec::new();
                for st in &states {
                    let mut distinct: BTreeSet<Tuple> = BTreeSet::new();
                    view.walk(st, *edge, interval, |_, k, child| {
                        let next = extend(st, dst, k, child);
                        if let Some(limit) = limit {
                            distinct.insert(next.tuple.project(plan.output));
                            out.push(next);
                            if distinct.len() >= limit {
                                return ControlFlow::Break(());
                            }
                        } else {
                            out.push(next);
                        }
                        ControlFlow::Continue(())
                    });
                }
                states = out;
            }
        }
        if states.is_empty() {
            break;
        }
    }
    Ok(states)
}

/// Evaluates `plan` from the pattern's initial state ([`eval_states`]) and
/// returns the plan's output projection of the survivors: deduplicated and
/// sorted (§2's `query r s C`), or, given a `range`, in the canonical
/// range order via [`assemble_range_output`] (`query_range r s ρ C`).
///
/// The final range filter re-checks the interval on every surviving state,
/// so chains that bind the range column through an ordinary multi-column
/// scan (no single-column edge qualified) are just as correct — they only
/// do more work.
pub(crate) fn eval_all<V: EdgeView>(
    decomp: &Decomposition,
    view: &mut V,
    plan: &Plan,
    pattern: &Tuple,
    range: Option<&RangePattern>,
    root: &NodeRef,
) -> Result<Vec<Tuple>, V::Restart> {
    let st = QueryState::initial(decomp, pattern.clone(), Arc::clone(root));
    let tuples = eval_states(decomp, view, plan, range, st)?
        .into_iter()
        .map(|st| st.tuple);
    Ok(match range {
        Some(range) => assemble_range_output(tuples, range, plan.output),
        None => {
            let set: BTreeSet<Tuple> = tuples.map(|t| t.project(plan.output)).collect();
            set.into_iter().collect()
        }
    })
}

/// Evaluates `steps` from `st` depth-first and stops at the **first
/// witness**: `true` as soon as one state survives every step, without
/// materializing, deduplicating, or sorting the matches (§2's `query r s C`
/// asked as a boolean).
///
/// Sibling states produced by a scan are explored one at a time, so under
/// the locked view locks for later siblings can be requested out of the
/// global order; the engine then only *tries* those acquisitions, and
/// contention surfaces as a restart — the same protocol as speculative
/// guesses (§5.1).
pub(crate) fn eval_any<V: EdgeView>(
    decomp: &Decomposition,
    view: &mut V,
    steps: &[PlanStep],
    mut st: QueryState,
) -> Result<bool, V::Restart> {
    let Some((step, rest)) = steps.split_first() else {
        return Ok(true); // the state survived every step: a witness
    };
    match step {
        PlanStep::Lock {
            edge,
            mode,
            presorted,
            all_stripes,
        } => {
            let states = std::slice::from_ref(&st);
            view.lock(states, *edge, *mode, *presorted, *all_stripes)?;
            eval_any(decomp, view, rest, st)
        }
        PlanStep::Lookup { edge } | PlanStep::SpecLookup { edge, .. } => {
            let em = decomp.edge(*edge);
            let key = st.tuple.project(em.cols);
            let spec = match step {
                PlanStep::SpecLookup { mode, .. } => Some(*mode),
                _ => None,
            };
            match view.follow(&st, *edge, &key, spec)? {
                Some(child) => {
                    bind(&mut st.nodes, em.dst, child);
                    eval_any(decomp, view, rest, st)
                }
                None => Ok(false),
            }
        }
        PlanStep::Scan { edge } | PlanStep::RangeScan { edge, .. } => {
            let mut outcome = Ok(false);
            let interval = walk_bounds(matches!(step, PlanStep::RangeScan { .. }), None);
            let dst = decomp.edge(*edge).dst;
            view.walk(&st, *edge, interval, |view, k, child| {
                match eval_any(decomp, view, rest, extend(&st, dst, k, child)) {
                    Ok(false) => ControlFlow::Continue(()),
                    done => {
                        // Witness found (or restart demanded): stop
                        // walking right here.
                        outcome = done;
                        ControlFlow::Break(())
                    }
                }
            });
            outcome
        }
    }
}

/// Renders a plan in the paper's `let`-notation (§5.2), e.g.
///
/// ```text
/// let _ = lock(a, ρ) in
/// let b = scan(a, ρy) in
/// let c = scan(b, yz) in
/// let _ = unlock(a, ρ) in
/// c
/// ```
pub fn render_plan(decomp: &Decomposition, steps: &[PlanStep]) -> String {
    let edge_name = |e: EdgeId| {
        let em = decomp.edge(e);
        format!("{}{}", decomp.node(em.src).name, decomp.node(em.dst).name)
    };
    let mut out = String::new();
    let mut var = b'a';
    let mut current = var; // variable holding the current state set
    let mut locked: Vec<(EdgeId, u8)> = Vec::new();
    for step in steps {
        match step {
            PlanStep::Lock { edge, mode, .. } => {
                out.push_str(&format!(
                    "let _ = lock{}({}, ψ({})) in\n",
                    if *mode == LockMode::Exclusive {
                        "!"
                    } else {
                        ""
                    },
                    current as char,
                    edge_name(*edge),
                ));
                locked.push((*edge, current));
            }
            PlanStep::SpecLookup { edge, mode } => {
                var += 1;
                out.push_str(&format!(
                    "let {} = spec-lock{}-lookup({}, {}) in\n",
                    var as char,
                    if *mode == LockMode::Exclusive {
                        "!"
                    } else {
                        ""
                    },
                    current as char,
                    edge_name(*edge),
                ));
                // After a lock of its fallback stripe (a mutation's locate),
                // the logical lock is already taken: one unlock.
                if !locked.contains(&(*edge, current)) {
                    locked.push((*edge, current));
                }
                current = var;
            }
            PlanStep::Lookup { edge } => {
                var += 1;
                out.push_str(&format!(
                    "let {} = lookup({}, {}) in\n",
                    var as char,
                    current as char,
                    edge_name(*edge)
                ));
                current = var;
            }
            PlanStep::Scan { edge } => {
                var += 1;
                out.push_str(&format!(
                    "let {} = scan({}, {}) in\n",
                    var as char,
                    current as char,
                    edge_name(*edge)
                ));
                current = var;
            }
            PlanStep::RangeScan { edge, ordered } => {
                var += 1;
                out.push_str(&format!(
                    "let {} = range-scan{}({}, {}) in\n",
                    var as char,
                    if *ordered { "" } else { "~" },
                    current as char,
                    edge_name(*edge)
                ));
                current = var;
            }
        }
    }
    for (edge, v) in locked.iter().rev() {
        out.push_str(&format!(
            "let _ = unlock({}, ψ({})) in\n",
            *v as char,
            edge_name(*edge)
        ));
    }
    out.push(current as char);
    out
}

/// A rendered, displayable plan.
#[derive(Debug, Clone)]
pub struct RenderedPlan(pub String);

impl fmt::Display for RenderedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::library::{dcache, stick};
    use crate::instance::NodeInstance;
    use crate::placement::LockPlacement;
    use relc_containers::ContainerKind;

    #[test]
    fn initial_state_binds_root_only() {
        let d = stick(ContainerKind::TreeMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let root = NodeInstance::new(&d, &p, d.root(), Tuple::empty());
        let st = QueryState::initial(&d, Tuple::empty(), root);
        assert!(st.nodes[d.root().index()].is_some());
        assert_eq!(st.nodes.iter().filter(|n| n.is_some()).count(), 1);
        let _ = st.instance(d.root());
    }

    #[test]
    #[should_panic(expected = "planner invariant")]
    fn unbound_instance_access_panics() {
        let d = stick(ContainerKind::TreeMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let root = NodeInstance::new(&d, &p, d.root(), Tuple::empty());
        let st = QueryState::initial(&d, Tuple::empty(), root);
        let _ = st.instance(d.node_by_name("u").unwrap());
    }

    #[test]
    fn render_matches_paper_shape() {
        // The dcache full-iteration plan (2) from §5.2: lock root, scan ρy,
        // scan yz, unlock, return.
        let d = dcache();
        let ry = d.edge_between("ρ", "y").unwrap();
        let yz = d.edge_between("y", "z").unwrap();
        let steps = vec![
            PlanStep::Lock {
                edge: ry,
                mode: LockMode::Shared,
                presorted: false,
                all_stripes: false,
            },
            PlanStep::Scan { edge: ry },
            PlanStep::Lock {
                edge: yz,
                mode: LockMode::Shared,
                presorted: false,
                all_stripes: false,
            },
            PlanStep::Scan { edge: yz },
        ];
        let rendered = render_plan(&d, &steps);
        assert!(rendered.contains("scan(a, ρy)"), "{rendered}");
        assert!(rendered.contains("scan(b, yz)"), "{rendered}");
        assert!(rendered.contains("unlock"), "{rendered}");
        // Unlocks come in reverse order of locks.
        let first_unlock = rendered.find("unlock(b, ψ(yz))").unwrap();
        let second_unlock = rendered.find("unlock(a, ψ(ρy))").unwrap();
        assert!(first_unlock < second_unlock, "{rendered}");
    }

    #[test]
    fn step_accessors() {
        let d = stick(ContainerKind::TreeMap, ContainerKind::TreeMap);
        let ru = d.edge_between("ρ", "u").unwrap();
        let lock = PlanStep::Lock {
            edge: ru,
            mode: LockMode::Shared,
            presorted: true,
            all_stripes: false,
        };
        assert_eq!(lock.edge(), ru);
        assert!(lock.is_lock());
        assert!(!PlanStep::Scan { edge: ru }.is_lock());
        assert!(PlanStep::SpecLookup {
            edge: ru,
            mode: LockMode::Shared
        }
        .is_lock());
    }
}
