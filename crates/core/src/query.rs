//! The concurrent query language (§5.2, Fig. 4) and its one evaluator.
//!
//! Compiled relational operations are sequences of *plan steps* over sets of
//! *query states* — the paper's `(t, m)` pairs of a partial tuple and a
//! mapping from decomposition nodes to node instances. The step language
//! mirrors Fig. 4's expressions: `lock`, `lookup`, and `scan` (plus the
//! combined speculative lookup of §4.5); `let`-bound sequencing is implicit
//! in the step list, and the matching `unlock`s of the shrinking phase are
//! emitted by the renderer and performed by the engine's release-all at
//! commit.
//!
//! # Row frames
//!
//! The evaluator keeps a step's query states as rows of a `Frame`: one
//! value slot per schema column (at [`ColumnId::index`]) and one binding
//! slot per decomposition node, stored flat in buffers that two
//! alternating frames reuse from step to step, sized from the plan
//! ([`Plan::frame_rows`]). Every row of a step binds the same columns, so
//! the bound column set is tracked once per step, not per row. A lookup
//! fills one reused key tuple from the row's slots; a scan compares an
//! entry only on the slots already bound and copies the entry's fields
//! into their slots — no tuple is unioned, projected or cloned per state.
//! A query builds one [`Tuple`] per surviving row from the plan's output
//! slots; a mutation's locate materializes its one survivor.
//!
//! # One evaluator, two edge views
//!
//! The language has one evaluation semantics, so it has one evaluator, in
//! two traversal orders: breadth-first over every row (`query`,
//! `query_range`, and the locate phase of every mutation — §5.2's "query
//! plan that locates and locks all of the edges that require updating")
//! and depth-first over one row to the first witness (`contains`, and an
//! insert's existence check). They are the only code that interprets
//! [`PlanStep`]s; a mutation adds only its write phase, over the row its
//! locate plan leaves. What differs between a locked read and a lock-free
//! snapshot read is *how one edge is read* and *how a row holds a node
//! instance*, and that is the edge view the evaluator is generic over: the
//! locked view ([`crate::exec::Executor`]) takes the step's locks, reads
//! the edge containers and binds counted [`NodeRef`]s; the snapshot view
//! (in `mvcc.rs`) takes none, resolves the edge's version index at its
//! timestamp and binds `&NodeRef` borrows good for its epoch guard, so a
//! snapshot read touches no reference count.
//!
//! # Grouped prefetch
//!
//! Reading one edge of one row is a chain of dependent heap hops — the
//! source instance, its edge slot (a separate allocation), the version
//! index's entry point, that version's stamp or the entry's chain — and a
//! row read alone waits for each miss in turn. Breadth-first evaluation
//! knows every row of a step before the step runs, so a step of more than
//! one row is read in groups of [`PREFETCH_GROUP`] rows, and before it
//! reads a group the edge view may start loading the group's hops: one
//! pass per hop over the group's rows, so the misses of a group's rows are
//! in flight together (group prefetching, Chen, Ailamaki, Gibbons & Mowry,
//! ICDE 2004). The snapshot view does; the locked view keeps the default,
//! which does nothing. A prefetch is a hint: what a read returns never
//! depends on it.
//!
//! # Range results on the frame
//!
//! A range query orders, deduplicates and caps its rows where they are,
//! by index: the rows inside the interval are ordered by (range slot,
//! output slots) with `Frame::cmp_on`, the first row of each output
//! projection is kept, the walk over them stops at the limit, and only
//! the rows kept become tuples. The rule is written once,
//! `select_range_rows`, which the sharded fan-out's merge of
//! per-instance tuples also calls.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Bound, ControlFlow, Range};
use std::sync::Arc;

use relc_locks::LockMode;
use relc_spec::{ColumnId, ColumnSet, RangePattern, Tuple, Value};

use crate::decomp::{Decomposition, EdgeId, NodeId};
use crate::instance::NodeRef;
use crate::placement::BoundFields;
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

/// The rows of one plan step, stored flat: §5.2's query states `(t, m)`
/// compiled to slots. Row `i` holds one value slot per schema column,
/// `vals[i * cols + c.index()]`, and one binding slot per decomposition
/// node, `nodes[i * width + v.index()]`. Every row of a step binds the same
/// columns, so the step's bound column set is kept once, by the evaluator,
/// and handed to each [`Row`]; a value slot outside it holds whatever an
/// earlier row or branch left there and is never read.
pub(crate) struct Frame<H> {
    cols: usize,
    width: usize,
    vals: Vec<Value>,
    nodes: Vec<Option<H>>,
}

impl<H: Clone + Borrow<NodeRef>> Frame<H> {
    /// An empty frame over `decomp`'s columns and nodes, with room for
    /// `rows` rows.
    fn new(decomp: &Decomposition, rows: usize) -> Self {
        let cols = decomp
            .schema()
            .columns()
            .iter()
            .last()
            .map_or(0, |c| c.index() + 1);
        let width = decomp.node_count();
        Frame {
            cols,
            width,
            vals: Vec::with_capacity(rows * cols),
            nodes: Vec::with_capacity(rows * width),
        }
    }

    /// A frame with room for `rows` rows holding the initial row: the
    /// pattern's fields in their slots and only the root bound.
    fn initial(decomp: &Decomposition, rows: usize, pattern: &Tuple, root: H) -> Self {
        let mut frame = Frame::new(decomp, rows);
        frame.vals.resize(frame.cols, Value::Unit);
        for (c, v) in pattern.iter() {
            frame.vals[c.index()] = v.clone();
        }
        frame.nodes.resize(frame.width, None);
        frame.nodes[decomp.root().index()] = Some(root);
        frame
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len() / self.width
    }

    fn clear(&mut self) {
        self.vals.clear();
        self.nodes.clear();
    }

    /// Row `i`, whose step binds the columns `bound`.
    fn row(&self, i: usize, bound: ColumnSet) -> Row<'_, H> {
        Row {
            vals: &self.vals[i * self.cols..][..self.cols],
            nodes: &self.nodes[i * self.width..][..self.width],
            bound,
        }
    }

    /// The instance row `i` binds to `node` (see [`Row::node`]).
    pub(crate) fn instance(&self, i: usize, node: NodeId) -> &NodeRef {
        self.row(i, ColumnSet::EMPTY).instance(node)
    }

    /// Every row, in order, of a step that binds the columns `bound`.
    pub(crate) fn rows(&self, bound: ColumnSet) -> impl Iterator<Item = Row<'_, H>> {
        (0..self.len()).map(move |i| self.row(i, bound))
    }

    /// Row `i`'s slots, for writing.
    fn slots_mut(&mut self, i: usize) -> (&mut [Value], &mut [Option<H>]) {
        (
            &mut self.vals[i * self.cols..][..self.cols],
            &mut self.nodes[i * self.width..][..self.width],
        )
    }

    /// Appends a copy of `row` and returns the copy's slots.
    fn push(&mut self, row: Row<'_, H>) -> (&mut [Value], &mut [Option<H>]) {
        self.vals.extend_from_slice(row.vals);
        self.nodes.extend_from_slice(row.nodes);
        self.slots_mut(self.len() - 1)
    }

    /// Orders rows `i` and `j` by their values on `cols`.
    fn cmp_on(&self, i: usize, j: usize, cols: ColumnSet) -> Ordering {
        let (a, b) = (&self.vals[i * self.cols..], &self.vals[j * self.cols..]);
        cols.iter()
            .map(|c| a[c.index()].cmp(&b[c.index()]))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// The first row, materialized for a write phase: the tuple of the
    /// columns `bound` and the node bindings. `None` if there is no row.
    pub(crate) fn into_first(mut self, bound: ColumnSet) -> Option<(Tuple, Vec<Option<H>>)> {
        if self.len() == 0 {
            return None;
        }
        let tuple = self.row(0, bound).project(bound);
        self.nodes.truncate(self.width);
        Some((tuple, self.nodes))
    }
}

/// One row of a [`Frame`], with its step's bound column set: what a plan
/// step reads of one query state.
pub(crate) struct Row<'a, H> {
    vals: &'a [Value],
    nodes: &'a [Option<H>],
    bound: ColumnSet,
}

impl<H> Clone for Row<'_, H> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<H> Copy for Row<'_, H> {}

impl<'a, H: Borrow<NodeRef>> Row<'a, H> {
    /// The handle bound to `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node is unbound — a planner invariant violation.
    pub(crate) fn node(&self, node: NodeId) -> &'a H {
        self.nodes[node.index()]
            .as_ref()
            .expect("planner invariant: node instance bound before use")
    }

    /// The instance bound to `node` (see [`Row::node`]).
    pub(crate) fn instance(&self, node: NodeId) -> &'a NodeRef {
        self.node(node).borrow()
    }

    /// Whether entry key `k` agrees with the row on every bound column:
    /// [`Tuple::matches`] over slots.
    fn matches(&self, k: &Tuple) -> bool {
        k.iter()
            .all(|(c, v)| !self.bound.contains(c) || self.vals[c.index()] == *v)
    }

    /// Fills `key` with the row's valuation of `cols`, all bound.
    fn key_into(&self, cols: ColumnSet, key: &mut Tuple) {
        debug_assert!(
            cols.is_subset(self.bound),
            "planner invariant: lookup key fully bound"
        );
        key.assign(cols.iter().map(|c| (c, self.vals[c.index()].clone())));
    }

    /// The row's valuation of `cols`, all bound, as a tuple.
    fn project(&self, cols: ColumnSet) -> Tuple {
        debug_assert!(cols.is_subset(self.bound), "projected columns are bound");
        cols.iter()
            .map(|c| (c, self.vals[c.index()].clone()))
            .collect()
    }
}

impl<H> BoundFields for Row<'_, H> {
    fn dom(&self) -> ColumnSet {
        self.bound
    }

    fn value(&self, c: ColumnId) -> &Value {
        &self.vals[c.index()]
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
    /// How a row binds a node instance: a borrow good for the snapshot's
    /// epoch guard, a counted reference under locks.
    type Node: Clone + Borrow<NodeRef>;

    /// What a failed acquisition or speculation returns: `MustRestart`
    /// under locks, `Infallible` at a snapshot.
    type Restart;

    /// Whether an interval [`Self::walk`] is in ascending key order whatever
    /// the edge's container kind (else the step's `ordered` flag says).
    const WALKS_IN_KEY_ORDER: bool;

    /// Acquires the physical locks implementing `edge`'s logical locks for
    /// every row of `rows`, whose step binds the columns `bound`.
    fn lock(
        &mut self,
        rows: &Frame<Self::Node>,
        bound: ColumnSet,
        edge: EdgeId,
        mode: LockMode,
        presorted: bool,
        all_stripes: bool,
    ) -> Result<(), Self::Restart>;

    /// Follows `key` through `edge` of `row`'s source instance; `None` if
    /// the edge instance is absent. `spec` carries the mode of a §4.5
    /// speculative step, whose view also takes the step's locks.
    fn follow(
        &mut self,
        row: Row<'_, Self::Node>,
        edge: EdgeId,
        key: &Tuple,
        spec: Option<LockMode>,
    ) -> Result<Option<Self::Node>, Self::Restart>;

    /// Walks the entries of `edge` at instance `src` (inside `bounds`, if
    /// given) until `f` breaks; the evaluator filters them against the
    /// row. `f` gets the view back so a depth-first caller can keep using
    /// it.
    fn walk(
        &mut self,
        src: &Self::Node,
        edge: EdgeId,
        bounds: Option<&KeyBounds>,
        f: impl FnMut(&mut Self, &Tuple, &Self::Node) -> ControlFlow<()>,
    );

    /// Starts loading what reading `edge` from the source instance of each
    /// row in `group` touches first, without waiting for any of it, so
    /// that the group's cache misses are in flight together before its
    /// first row is read. A hint; the default does nothing.
    fn prefetch(&self, _rows: &Frame<Self::Node>, _edge: EdgeId, _group: Range<usize>) {}
}

/// Rows per prefetch group: a step of more than one row is read in groups
/// of this many, and the snapshot view starts loading each hop of a
/// group's reads before it reads the group's first row (see the module
/// docs). Enough rows to keep several misses in flight, few enough that a
/// group's lines are still cached when its rows are read. On the
/// benchmark's `range_window` (32-row snapshot range reads, 2-core x86_64
/// VM, three 5-s runs each), groups of 8, 16 and 32 rows measured a read
/// p50 of 46.3, 45.1 and 48.1 µs, against 73.0 µs without prefetch.
pub const PREFETCH_GROUP: usize = 16;

/// Visits every row of `rows` (whose step binds the columns `bound`) in
/// order, to traverse `edge`. A step of more than one row is taken in
/// groups of [`PREFETCH_GROUP`] rows, each prefetched by the view before
/// any of its rows is visited.
fn for_each_row<V: EdgeView, E>(
    view: &mut V,
    rows: &Frame<V::Node>,
    bound: ColumnSet,
    edge: EdgeId,
    mut visit: impl FnMut(&mut V, Row<'_, V::Node>) -> Result<(), E>,
) -> Result<(), E> {
    let n = rows.len();
    for start in (0..n).step_by(PREFETCH_GROUP) {
        let group = start..n.min(start + PREFETCH_GROUP);
        if n > 1 {
            view.prefetch(rows, edge, group.clone());
        }
        for i in group {
            visit(view, rows.row(i, bound))?;
        }
    }
    Ok(())
}

/// The key interval a walking step covers: none for a plain scan, the
/// range's for a `RangeScan` — the one place that checks it has one.
fn walk_bounds(ranged: bool, bounds: Option<&KeyBounds>) -> Option<&KeyBounds> {
    ranged.then(|| bounds.expect("planner invariant: RangeScan only in plans run with a range"))
}

/// Binds `dst` to `child` in `nodes` and returns the previous binding. A
/// node reached along two edges is reached at one instance (§4.1
/// sharing), so a second binding must name the instance already bound.
pub(crate) fn bind<H: Borrow<NodeRef>>(
    nodes: &mut [Option<H>],
    dst: NodeId,
    child: H,
) -> Option<H> {
    let slot = &mut nodes[dst.index()];
    debug_assert!(
        slot.as_ref()
            .is_none_or(|prev| Arc::ptr_eq(prev.borrow(), child.borrow())),
        "shared node reached with different instances"
    );
    slot.replace(child)
}

/// The mode of a §4.5 speculative lookup; `None` for any other step.
fn spec_mode(step: &PlanStep) -> Option<LockMode> {
    match step {
        PlanStep::SpecLookup { mode, .. } => Some(*mode),
        _ => None,
    }
}

/// Evaluates `plan` breadth-first from the pattern's initial row over
/// **all** rows of each step — the locked view needs every row of a step
/// at once to sort its lock batch — and returns the rows that survive
/// every step with the columns they bind. Two frames alternate as one
/// step's input and the next one's output, so a step allocates only when
/// it outgrows the plan's [`frame_rows`](Plan::frame_rows). A query
/// projects the survivors ([`eval_all`]); a mutation's locate phase
/// materializes its one survivor's tuple and node instances, which it then
/// writes under the locks the walk took.
///
/// Given a `range`, `RangeScan` steps walk only its key interval, and an
/// ordered walk that is the plan's last traversal stops once it has
/// `limit` distinct output projections per row.
pub(crate) fn eval_rows<V: EdgeView>(
    decomp: &Decomposition,
    view: &mut V,
    plan: &Plan,
    range: Option<&RangePattern>,
    pattern: &Tuple,
    root: V::Node,
) -> Result<(Frame<V::Node>, ColumnSet), V::Restart> {
    let mut cur = Frame::initial(decomp, plan.frame_rows, pattern, root);
    let mut next = Frame::new(decomp, plan.frame_rows);
    let mut bound = pattern.dom();
    let mut key = Tuple::empty();
    // Per source row on a limited walk: its output rows with distinct
    // output projections, as indices into `next`, sorted by projection.
    let mut distinct: Vec<usize> = Vec::new();
    let bounds = range.map(range_key_bounds);
    let last = plan.steps.len().saturating_sub(1);
    for (i, step) in plan.steps.iter().enumerate() {
        next.clear();
        match step {
            PlanStep::Lock {
                edge,
                mode,
                presorted,
                all_stripes,
            } => {
                view.lock(&cur, bound, *edge, *mode, *presorted, *all_stripes)?;
                continue;
            }
            PlanStep::Lookup { edge } | PlanStep::SpecLookup { edge, .. } => {
                let em = decomp.edge(*edge);
                for_each_row(view, &cur, bound, *edge, |view, row| {
                    row.key_into(em.cols, &mut key);
                    if let Some(child) = view.follow(row, *edge, &key, spec_mode(step))? {
                        bind(next.push(row).1, em.dst, child);
                    }
                    Ok(())
                })?;
            }
            PlanStep::Scan { edge } | PlanStep::RangeScan { edge, .. } => {
                // Top-k short circuit, only on an ordered walk that is the
                // plan's final traversal: entries arrive in strictly
                // ascending value order per row (single-column keys carry
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
                if limit == Some(0) {
                    // A top-0 walk keeps no entry, so it walks none.
                    cur.clear();
                    break;
                }
                let em = decomp.edge(*edge);
                for_each_row(view, &cur, bound, *edge, |view, row| {
                    distinct.clear();
                    view.walk(row.node(em.src), *edge, interval, |_, k, child| {
                        if !row.matches(k) {
                            return ControlFlow::Continue(());
                        }
                        let (vals, nodes) = next.push(row);
                        for (c, v) in k.iter() {
                            vals[c.index()] = v.clone();
                        }
                        bind(nodes, em.dst, child.clone());
                        let Some(limit) = limit else {
                            return ControlFlow::Continue(());
                        };
                        let j = next.len() - 1;
                        if let Err(at) =
                            distinct.binary_search_by(|&d| next.cmp_on(d, j, plan.output))
                        {
                            distinct.insert(at, j);
                        }
                        if distinct.len() >= limit {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    });
                    Ok::<_, V::Restart>(())
                })?;
                bound = bound.union(em.cols);
            }
        }
        std::mem::swap(&mut cur, &mut next);
        if cur.len() == 0 {
            break;
        }
    }
    Ok((cur, bound))
}

/// The range rule of `query_range r s ρ C`, written once over candidate
/// rows named by index: orders `rows` by **(range value, output
/// projection)** (`cmp_range`, then `cmp_output`), keeps the first row of
/// each distinct output projection, and stops once it keeps `limit` rows
/// — a limit of 0 keeps none and looks at no row. Returns the kept
/// indices in that order; the caller filters the candidates to the
/// interval before and builds one tuple per kept index after.
///
/// When the range column is among the output columns (`range_projected`),
/// rows with one projection share one range value, so they are adjacent
/// in the order and a row is a duplicate exactly when it projects like
/// the row kept before it. Otherwise one projection can recur at several
/// range values, and a row is checked against every kept projection.
///
/// This is [`RangePattern::select`]'s order — the oracle's, written
/// independently of it (the differential suites compare the two) — and
/// every access path answers with it: the evaluator on its frame rows
/// ([`eval_all`]) and the sharded fan-out on the merged tuples of its
/// instances.
pub(crate) fn select_range_rows(
    mut rows: Vec<usize>,
    limit: Option<usize>,
    range_projected: bool,
    cmp_range: impl Fn(usize, usize) -> Ordering,
    cmp_output: impl Fn(usize, usize) -> Ordering,
) -> Vec<usize> {
    let limit = limit.unwrap_or(usize::MAX);
    if limit == 0 {
        rows.clear();
        return rows;
    }
    rows.sort_unstable_by(|&i, &j| cmp_range(i, j).then_with(|| cmp_output(i, j)));
    // Kept projections, sorted by `cmp_output` (range column unprojected).
    let mut seen: Vec<usize> = Vec::new();
    let mut kept = 0;
    for at in 0..rows.len() {
        let i = rows[at];
        let first = if range_projected {
            kept == 0 || cmp_output(rows[kept - 1], i).is_ne()
        } else {
            match seen.binary_search_by(|&j| cmp_output(j, i)) {
                Ok(_) => false,
                Err(slot) => {
                    seen.insert(slot, i);
                    true
                }
            }
        };
        if first {
            rows[kept] = i;
            kept += 1;
            if kept == limit {
                break;
            }
        }
    }
    rows.truncate(kept);
    rows
}

/// Evaluates `plan` from the pattern's initial row ([`eval_rows`]) and
/// returns one tuple per surviving row, built from the row's output
/// slots: sorted and deduplicated (§2's `query r s C`), or, given a
/// `range`, in the canonical range order (`query_range r s ρ C`),
/// assembled on the frame: the rows inside the interval are ordered and
/// deduplicated by index ([`select_range_rows`], comparing slots), and
/// only the rows kept become tuples.
///
/// The range filter re-checks the interval on every surviving row, so
/// chains that bind the range column through an ordinary multi-column
/// scan (no single-column edge qualified) are just as correct — they only
/// do more work.
pub(crate) fn eval_all<V: EdgeView>(
    decomp: &Decomposition,
    view: &mut V,
    plan: &Plan,
    pattern: &Tuple,
    range: Option<&RangePattern>,
    root: V::Node,
) -> Result<Vec<Tuple>, V::Restart> {
    let (frame, bound) = eval_rows(decomp, view, plan, range, pattern, root)?;
    Ok(match range {
        Some(range) => {
            let col = ColumnSet::EMPTY.with(range.col());
            debug_assert!(
                frame.len() == 0 || bound.contains(range.col()),
                "planner invariant: a range plan binds its range column"
            );
            let inside = (0..frame.len())
                .filter(|&i| range.contains(frame.row(i, bound).value(range.col())))
                .collect();
            let kept = select_range_rows(
                inside,
                range.limit(),
                plan.output.contains(range.col()),
                |i, j| frame.cmp_on(i, j, col),
                |i, j| frame.cmp_on(i, j, plan.output),
            );
            kept.into_iter()
                .map(|i| frame.row(i, bound).project(plan.output))
                .collect()
        }
        None => {
            let mut out: Vec<Tuple> = frame
                .rows(bound)
                .map(|row| row.project(plan.output))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        }
    })
}

/// Evaluates `plan` from the pattern's initial row depth-first, over one
/// frame of one row, and stops at the **first witness**: `true` as soon
/// as one row survives every step, without materializing, deduplicating,
/// or sorting the matches (§2's `query r s C` asked as a boolean).
///
/// Sibling rows produced by a scan are explored one at a time, so under
/// the locked view locks for later siblings can be requested out of the
/// global order; the engine then only *tries* those acquisitions, and
/// contention surfaces as a restart — the same protocol as speculative
/// guesses (§5.1).
pub(crate) fn eval_any<V: EdgeView>(
    decomp: &Decomposition,
    view: &mut V,
    plan: &Plan,
    pattern: &Tuple,
    root: V::Node,
) -> Result<bool, V::Restart> {
    let mut frame = Frame::initial(decomp, 1, pattern, root);
    let mut key = Tuple::empty();
    witness(
        decomp,
        view,
        &plan.steps,
        &mut frame,
        pattern.dom(),
        &mut key,
    )
}

/// [`eval_any`] from `steps` on, over the frame's one row, whose steps so
/// far bound the columns `bound`. Each step that binds a node puts the
/// previous binding back before it returns, so a branch leaves the row as
/// it found it, apart from value slots outside `bound`.
fn witness<V: EdgeView>(
    decomp: &Decomposition,
    view: &mut V,
    steps: &[PlanStep],
    frame: &mut Frame<V::Node>,
    bound: ColumnSet,
    key: &mut Tuple,
) -> Result<bool, V::Restart> {
    let Some((step, rest)) = steps.split_first() else {
        return Ok(true); // the row survived every step: a witness
    };
    match step {
        PlanStep::Lock {
            edge,
            mode,
            presorted,
            all_stripes,
        } => {
            view.lock(frame, bound, *edge, *mode, *presorted, *all_stripes)?;
            witness(decomp, view, rest, frame, bound, key)
        }
        PlanStep::Lookup { edge } | PlanStep::SpecLookup { edge, .. } => {
            let em = decomp.edge(*edge);
            let row = frame.row(0, bound);
            row.key_into(em.cols, key);
            let Some(child) = view.follow(row, *edge, key, spec_mode(step))? else {
                return Ok(false);
            };
            let prev = bind(frame.slots_mut(0).1, em.dst, child);
            let found = witness(decomp, view, rest, frame, bound, key);
            frame.slots_mut(0).1[em.dst.index()] = prev;
            found
        }
        PlanStep::Scan { edge } | PlanStep::RangeScan { edge, .. } => {
            let em = decomp.edge(*edge);
            let interval = walk_bounds(matches!(step, PlanStep::RangeScan { .. }), None);
            let src = frame.row(0, bound).node(em.src).clone();
            let mut outcome = Ok(false);
            view.walk(&src, *edge, interval, |view, k, child| {
                if !frame.row(0, bound).matches(k) {
                    return ControlFlow::Continue(());
                }
                let (vals, nodes) = frame.slots_mut(0);
                for (c, v) in k.iter() {
                    vals[c.index()] = v.clone();
                }
                let prev = bind(nodes, em.dst, child.clone());
                let found = witness(decomp, view, rest, frame, bound.union(em.cols), key);
                frame.slots_mut(0).1[em.dst.index()] = prev;
                match found {
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
        let src = d.schema().column("src").unwrap();
        let pattern = Tuple::from_pairs([(src, Value::from(7))]);
        let frame = Frame::initial(&d, 4, &pattern, root);
        assert_eq!(frame.len(), 1);
        let row = frame.row(0, pattern.dom());
        assert_eq!(row.nodes.iter().filter(|n| n.is_some()).count(), 1);
        let _ = row.instance(d.root());
        assert_eq!(row.project(pattern.dom()), pattern);
    }

    #[test]
    #[should_panic(expected = "planner invariant")]
    fn unbound_instance_access_panics() {
        let d = stick(ContainerKind::TreeMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let root = NodeInstance::new(&d, &p, d.root(), Tuple::empty());
        let frame = Frame::initial(&d, 1, &Tuple::empty(), root);
        let _ = frame
            .row(0, ColumnSet::EMPTY)
            .instance(d.node_by_name("u").unwrap());
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
