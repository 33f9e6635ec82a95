//! The concurrent query planner (§5).
//!
//! The planner compiles each relational operation into a plan tailored to
//! one decomposition and lock placement:
//!
//! * **Queries** become chain plans: because adequacy forces every branch
//!   below a node to cover the node's full residual, a single
//!   root-originating chain always suffices; the planner enumerates all
//!   chains that bind the needed columns, rejects chains that would need to
//!   scan a speculative edge (no lock could be named in advance, §4.5),
//!   costs each candidate, and keeps the cheapest.
//! * **Mutations** locate what they write with a plan in the same step
//!   language, run by the same evaluator (§5.2: "a concurrent query plan
//!   that locates and locks all of the edges that require updating"); the
//!   executor adds only the write phase. A remove's locate plan traverses
//!   *every* edge in a global edge order — by lock host's topological
//!   position, then source position — which makes the acquisitions follow
//!   the §5.1 lock order, each traversal a lookup or a scan given the
//!   columns bound so far. An insert's existence check is the `contains`
//!   plan of its pattern, run without its locks under the insert's own.
//! * **Updates** are classified into two strategies. When the updated
//!   columns intersect no edge source's key columns (only sinks bind
//!   them), the tuple's position in every untouched container is
//!   unchanged and [`plan_update`](Planner::plan_update) emits the
//!   [`UpdatePlan::InPlace`] fast path: a locate plan that locks the
//!   cheapest chains in read mode and the *touched* edges (whose key
//!   columns intersect `dom t`) in write mode, and a rewrite of exactly
//!   those entries in place. Otherwise the general [`UpdatePlan::General`]
//!   unlink + re-insert plan is produced. A mode-promotion pass upgrades
//!   any lock step sharing a physical lock host with an exclusive one, so
//!   a plan never requests one lock shared first and exclusive later
//!   (an upgrade, which restarts whenever another reader shares the lock).
//! * The §5.2 static **sort-elision analysis**: a lock set produced by
//!   traversing sorted containers is already in lock order, so the runtime
//!   sort can be skipped (`presorted`).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use relc_containers::ContainerKind;
use relc_locks::LockMode;
use relc_spec::{ColumnId, ColumnSet, RelationSchema, SpecError};

use crate::decomp::{Decomposition, EdgeId, NodeId};
use crate::error::CoreError;
use crate::placement::LockPlacement;
use crate::query::{render_plan, PlanStep};

/// A compiled, costed query plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Growing-phase steps (unlocks are implicit at commit).
    pub steps: Vec<PlanStep>,
    /// Columns projected out of the surviving states.
    pub output: ColumnSet,
    /// Heuristic cost estimate used to select this plan (0 for the locate
    /// plan of a remove or an in-place update, whose steps the mutation
    /// order fixes).
    pub cost: f64,
}

/// A compiled insert plan (§2's `insert r s t`, put-if-absent).
#[derive(Debug, Clone)]
pub struct InsertPlan {
    /// Every edge, in mutation order (lock host topo, then source topo):
    /// the full-tuple walk that locks the non-root hosts and finds which
    /// edges are already present.
    pub edges: Vec<EdgeId>,
    /// The existence check `∃u ⊇ s`: the `contains` plan over `dom s`
    /// ([`Planner::plan_query`] with no output) without its `Lock` steps
    /// and with §4.5 speculative lookups read as plain ones. It runs under
    /// the root sweep and the walk's exclusive locks, which exclude every
    /// writer of what it reads.
    pub check: Plan,
    /// Root-hosted edges with their force-all-stripes flag: a row's
    /// fallback (or all-stripe) tokens of these edges are its root lock
    /// sweep, and a batch's sweep is the union over its rows. Every flag
    /// is set when the check scans: a scan observes whole container
    /// instances, and under a striped root the fallback sweep holds only
    /// the inserted tuple's stripe, which does not exclude writers on
    /// sibling stripes — §4.4's conservative all-`k` rule makes the
    /// scanned instances writer-free.
    pub root_hosted: Vec<(EdgeId, bool)>,
    /// Node ids in topological order: the materialization order.
    pub topo_nodes: Vec<NodeId>,
}

impl InsertPlan {
    /// The check's first edge when the check opens with a point lookup:
    /// its key is the pattern's projection, which the full-tuple walk
    /// looks up too.
    pub(crate) fn first_check_lookup(&self) -> Option<EdgeId> {
        match self.check.steps.first() {
            Some(&PlanStep::Lookup { edge }) => Some(edge),
            _ => None,
        }
    }
}

/// A compiled remove plan (§2's `remove r s`; `s` must be a key).
#[derive(Debug, Clone)]
pub struct RemovePlan {
    /// Locates the tuple and locks every edge that stores it (§5.2): one
    /// traversal per edge in mutation order — a lookup where the edge's
    /// columns are bound, a scan otherwise, an exclusive §4.5 speculative
    /// lookup on a speculative edge — each preceded by an exclusive lock
    /// at a non-root host (the root sweep holds the root's). A lock takes
    /// every stripe where the scan or the unlink's emptiness check reads a
    /// whole container instance that striping splits.
    pub locate: Plan,
    /// Root-hosted edges with their force-all-stripes flag (set where a
    /// root-hosted edge's traversal reads a whole striped instance): the
    /// root lock sweep of one key, or — unioned over the keys — of a
    /// batch.
    pub root_hosted: Vec<(EdgeId, bool)>,
    /// Node ids in reverse topological order: the bottom-up unlink order.
    pub reverse_topo_nodes: Vec<NodeId>,
}

/// A compiled update plan (§2's `update r s t`: replace the unique tuple
/// `u ⊇ s` with `u ⊕ t`).
///
/// The planner picks one of two strategies:
///
/// * [`UpdatePlan::InPlace`] — the **fast path**, chosen when the updated
///   columns appear in no non-sink node's key (equivalently: they are
///   disjoint from every edge *source*'s key columns). Then the only
///   structural change is rewriting the entries of the `touched` edges —
///   the tuple keeps its position in every other container — so the plan
///   locks just the traversal chain (read mode) plus the touched edges
///   (write mode) and swaps the touched entries in place.
/// * [`UpdatePlan::General`] — the fallback: a locked unlink of `u`
///   followed by a re-insert of `u ⊕ t` under the *same* two-phase scope.
///   The `remove` sub-plan's traversal takes every edge exclusively, which
///   subsumes the required write locks on the touched edges.
#[derive(Debug, Clone)]
pub enum UpdatePlan {
    /// Key-position-preserving fast path: rewrite only the touched edge
    /// entries in place.
    InPlace(InPlaceUpdate),
    /// General unlink + re-insert path.
    General(GeneralUpdate),
}

impl UpdatePlan {
    /// Columns assigned by the update (`dom t`).
    pub fn updated(&self) -> ColumnSet {
        match self {
            UpdatePlan::InPlace(p) => p.updated,
            UpdatePlan::General(p) => p.updated,
        }
    }

    /// Edges whose key columns intersect the updated set — the edges whose
    /// container entries are actually rewritten.
    pub fn touched(&self) -> &[EdgeId] {
        match self {
            UpdatePlan::InPlace(p) => &p.touched,
            UpdatePlan::General(p) => &p.touched,
        }
    }

    /// Whether the fast path was selected.
    pub fn is_in_place(&self) -> bool {
        matches!(self, UpdatePlan::InPlace(_))
    }
}

/// The general (unlink + re-insert) update plan.
#[derive(Debug, Clone)]
pub struct GeneralUpdate {
    /// Locates and unlinks the old tuple (all edges, mutation order).
    pub remove: RemovePlan,
    /// Re-inserts the rewritten tuple (existence check is over the full
    /// column set: after the unlink it is vacuous, but it keeps the insert
    /// machinery uniform).
    pub insert: InsertPlan,
    /// Columns assigned by the update (`dom t`).
    pub updated: ColumnSet,
    /// Edges whose key columns intersect `updated`.
    pub touched: Vec<EdgeId>,
}

/// The in-place update fast path: a locate plan over the minimal edge set
/// (cheapest chains from the root to every touched edge's source, plus the
/// touched edges themselves), followed by an entry rewrite of exactly the
/// touched edges.
#[derive(Debug, Clone)]
pub struct InPlaceUpdate {
    /// Locates the tuple: every traversal, in mutation order (so the lock
    /// acquisitions follow the §5.1 global order), preceded by a lock of
    /// its edge — in the container's read mode for pure traversal,
    /// exclusive for touched edges, and promoted to exclusive wherever a
    /// physical lock is also requested exclusively (so no execution is
    /// forced into an upgrade, which restarts whenever another reader
    /// shares the lock). A §4.5 hop is a lock of the
    /// fallback stripe plus the speculative lookup. A touched edge whose
    /// old values are not yet bound is scanned, and takes every stripe
    /// where striping splits the instance its rewrite moves entries in.
    pub locate: Plan,
    /// Columns assigned by the update (`dom t`).
    pub updated: ColumnSet,
    /// Edges whose entries are rewritten.
    pub touched: Vec<EdgeId>,
}

/// A compiled batch-insert plan. Everything a batch amortizes — the root
/// sweep's edges, the materialization order — is compiled into the
/// per-tuple [`InsertPlan`], which the row path uses too; the batch plan is
/// that plan, fetched once per batch.
#[derive(Debug, Clone)]
pub struct InsertBatchPlan {
    /// The per-tuple insert plan.
    pub insert: InsertPlan,
}

/// A compiled batch-remove plan: the per-key [`RemovePlan`] (which carries
/// the root sweep's edges and the unlink order), fetched once per batch.
#[derive(Debug, Clone)]
pub struct RemoveBatchPlan {
    /// The per-key remove plan.
    pub remove: RemovePlan,
}

/// The query planner for one (decomposition, placement) pair.
#[derive(Debug, Clone)]
pub struct Planner {
    decomp: Arc<Decomposition>,
    placement: Arc<LockPlacement>,
}

fn lookup_cost(kind: ContainerKind) -> f64 {
    match kind {
        ContainerKind::HashMap => 1.0,
        ContainerKind::ConcurrentHashMap => 1.3,
        ContainerKind::TreeMap => 1.7,
        ContainerKind::ConcurrentSkipListMap => 2.0,
        ContainerKind::CopyOnWriteArrayList => 1.5,
        ContainerKind::SplayTreeMap => 1.7,
        ContainerKind::Singleton => 0.4,
    }
}

const SCAN_SETUP_COST: f64 = 0.5;
const SCAN_ENTRY_COST: f64 = 0.4;
const DEFAULT_FANOUT: f64 = 8.0;
const LOCK_COST_SHARED: f64 = 0.4;
const LOCK_COST_EXCLUSIVE: f64 = 0.8;
const LOCK_COST_PER_EXTRA_STRIPE: f64 = 0.15;
/// Assumed fraction of an edge's entries falling inside a range interval.
/// A bounded in-order walk over a sorted container visits only that
/// fraction, so a range-scannable chain out-costs the filtered full scan
/// and wins the cheapest-chain selection.
const RANGE_SELECTIVITY: f64 = 0.35;

impl Planner {
    /// Creates a planner.
    ///
    /// # Panics
    ///
    /// Panics if the placement belongs to a different decomposition.
    pub fn new(decomp: Arc<Decomposition>, placement: Arc<LockPlacement>) -> Self {
        assert!(
            Arc::ptr_eq(placement.decomposition(), &decomp),
            "placement must belong to the decomposition"
        );
        Planner { decomp, placement }
    }

    /// The decomposition being planned against.
    pub fn decomposition(&self) -> &Arc<Decomposition> {
        &self.decomp
    }

    /// The lock placement being planned against.
    pub fn placement(&self) -> &Arc<LockPlacement> {
        &self.placement
    }

    /// Plans `query r s C` for a pattern binding `bound` and outputs
    /// `output` (§5.2). Returns the cheapest valid chain plan.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoValidPlan`] if every chain would have to scan a
    /// speculative edge.
    pub fn plan_query(&self, bound: ColumnSet, output: ColumnSet) -> Result<Plan, CoreError> {
        self.plan_query_inner(bound, output, None)
    }

    /// Plans `query_range r s (lo ≤ c < hi) C`: a chain query whose states
    /// are additionally constrained by an interval over column `range_col`.
    ///
    /// The chain must bind the range column (otherwise the interval could
    /// not be checked). When the edge that first binds it keys on *exactly*
    /// that column, tuple order over the edge's single-column keys coincides
    /// with value order, so the interval is a contiguous container-key range
    /// and the planner emits [`PlanStep::RangeScan`] — a bounded in-order
    /// walk on sorted containers, a filtered full scan elsewhere. Edges
    /// binding the range column among other columns fall back to an
    /// ordinary [`PlanStep::Scan`] (the executor filters the fan-out). Both
    /// shapes are costed and the cheapest chain wins, with
    /// `RANGE_SELECTIVITY` discounting bounded walks.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoValidPlan`] as for [`Planner::plan_query`].
    pub fn plan_range(
        &self,
        bound: ColumnSet,
        range_col: ColumnId,
        output: ColumnSet,
    ) -> Result<Plan, CoreError> {
        self.plan_query_inner(bound, output, Some(range_col))
    }

    fn plan_query_inner(
        &self,
        bound: ColumnSet,
        output: ColumnSet,
        range_col: Option<ColumnId>,
    ) -> Result<Plan, CoreError> {
        let mut needed = bound.union(output);
        if let Some(rc) = range_col {
            needed.insert(rc);
        }
        let mut best: Option<Plan> = None;
        let mut chain: Vec<EdgeId> = Vec::new();
        self.enumerate_chains(
            self.decomp.root(),
            bound,
            needed,
            output,
            range_col,
            &mut chain,
            &mut best,
        );
        best.ok_or_else(|| {
            CoreError::NoValidPlan(format!(
                "no chain can bind {} under placement `{}` (speculative edges \
                 cannot be scanned)",
                self.decomp.schema().catalog().render_set(needed),
                self.placement.name()
            ))
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate_chains(
        &self,
        node: crate::decomp::NodeId,
        bound: ColumnSet,
        needed: ColumnSet,
        output: ColumnSet,
        range_col: Option<ColumnId>,
        chain: &mut Vec<EdgeId>,
        best: &mut Option<Plan>,
    ) {
        // Every needed column must be covered by the *chain* (`A_node`):
        // pattern-bound columns not on the chain would be projected out
        // unverified, silently dropping the constraint. The root witnesses
        // no tuples, so at least one edge must be traversed.
        if needed.is_subset(self.decomp.node(node).key_cols) && node != self.decomp.root() {
            if let Some(plan) = self.chain_to_plan(chain, bound, output, range_col) {
                if best.as_ref().is_none_or(|b| plan.cost < b.cost) {
                    *best = Some(plan);
                }
            }
            return;
        }
        for &e in &self.decomp.node(node).outgoing {
            chain.push(e);
            self.enumerate_chains(
                self.decomp.edge(e).dst,
                bound,
                needed,
                output,
                range_col,
                chain,
                best,
            );
            chain.pop();
        }
    }

    /// Builds and costs the plan for one chain; `None` if invalid.
    fn chain_to_plan(
        &self,
        chain: &[EdgeId],
        bound: ColumnSet,
        output: ColumnSet,
        range_col: Option<ColumnId>,
    ) -> Option<Plan> {
        let mut steps = Vec::new();
        let mut known = bound;
        let mut cost = 0.0f64;
        let mut states = 1.0f64;
        // §5.2 sort-elision analysis. The lock order compares instance key
        // tuples lexicographically by ascending column id, while the state
        // list is ordered by the *scan order* of the traversed containers.
        // The two coincide only while (a) every scanned container is sorted
        // and (b) the scanned column groups appear in ascending column-id
        // order (so scan-major order equals tuple-major order).
        let mut chain_sorted = true; // one initial state is trivially sorted
        let mut last_scanned_max: Option<usize> = None;
        for &e in chain {
            let em = self.decomp.edge(e);
            let ep = self.placement.edge(e);
            let mode = self.placement.read_mode(e);
            let point = em.cols.is_subset(known);
            if ep.speculative {
                if !point {
                    return None; // cannot scan a speculative edge (§4.5)
                }
                steps.push(PlanStep::SpecLookup { edge: e, mode });
                cost += states * (lookup_cost(em.container) * 2.0 + LOCK_COST_EXCLUSIVE);
            } else {
                // A scan reads a whole container instance; if striping
                // splits the instance's entries across stripes
                // (stripe_by ⊄ A_src), every stripe must be taken (§4.4).
                let a_src = self.decomp.node(em.src).key_cols;
                let all_stripes = !point && !ep.stripe_by.is_subset(a_src);
                // Stripe cost: unbound or conservative stripes take all k.
                let k = self.placement.stripe_count(ep.host) as f64;
                let stripes = if !all_stripes && ep.stripe_by.is_subset(known) {
                    1.0
                } else {
                    k
                };
                let lock_base = match mode {
                    LockMode::Shared => LOCK_COST_SHARED,
                    LockMode::Exclusive => LOCK_COST_EXCLUSIVE,
                };
                cost += states * (lock_base + (stripes - 1.0) * LOCK_COST_PER_EXTRA_STRIPE);
                steps.push(PlanStep::Lock {
                    edge: e,
                    mode,
                    presorted: chain_sorted,
                    all_stripes,
                });
                if point {
                    steps.push(PlanStep::Lookup { edge: e });
                    cost += states * lookup_cost(em.container);
                } else {
                    // An edge keying on exactly the (still unbound) range
                    // column maps the value interval onto a contiguous
                    // container-key interval: range-scan it. Sorted
                    // containers walk only the interval; elsewhere the
                    // traversal degrades to a filtered full scan (same
                    // visit cost, smaller fan-out).
                    let range_here = range_col
                        .is_some_and(|rc| !known.contains(rc) && em.cols == ColumnSet::single(rc));
                    // A scan reads the whole container instance, whose
                    // population grows with the number of key columns the
                    // edge binds; filtering only shrinks the *output*.
                    let population = if em.singleton {
                        1.0
                    } else {
                        DEFAULT_FANOUT.powi(em.cols.len() as i32).min(4096.0)
                    };
                    let out_fanout = if em.singleton {
                        1.0
                    } else {
                        DEFAULT_FANOUT
                            .powi(em.cols.difference(known).len() as i32)
                            .min(4096.0)
                    };
                    if range_here {
                        let ordered = em.container.props().sorted_scan;
                        steps.push(PlanStep::RangeScan { edge: e, ordered });
                        let visited = if ordered {
                            (population * RANGE_SELECTIVITY).max(1.0)
                        } else {
                            population
                        };
                        cost += states * (SCAN_SETUP_COST + visited * SCAN_ENTRY_COST);
                        states *= (out_fanout * RANGE_SELECTIVITY).max(1.0);
                    } else {
                        steps.push(PlanStep::Scan { edge: e });
                        cost += states * (SCAN_SETUP_COST + population * SCAN_ENTRY_COST);
                        states *= out_fanout;
                    }
                    let group_min = em.cols.iter().next().map(|c| c.index());
                    let group_max = em.cols.iter().last().map(|c| c.index());
                    chain_sorted = chain_sorted
                        && em.container.props().sorted_scan
                        && match (last_scanned_max, group_min) {
                            (Some(prev_max), Some(min)) => prev_max < min,
                            _ => true,
                        };
                    last_scanned_max = last_scanned_max.max(group_max);
                }
            }
            known = known.union(em.cols);
        }
        Some(Plan {
            steps,
            output,
            cost,
        })
    }

    /// The global mutation order over all edges: lock host topological
    /// position, then source position, then edge index. Guarantees that an
    /// edge's source node is bound before the edge is traversed, and that
    /// lock acquisitions follow the §5.1 order for well-formed placements.
    pub fn mutation_order(&self) -> Vec<EdgeId> {
        let mut edges: Vec<EdgeId> = self.decomp.edges().map(|(e, _)| e).collect();
        edges.sort_by_key(|&e| {
            let em = self.decomp.edge(e);
            let host = self.placement.edge(e).host;
            (
                self.decomp.topo_position(host),
                self.decomp.topo_position(em.src),
                e.index(),
            )
        });
        edges
    }

    /// Plans `insert r s t` where `dom s = bound` (§2). The full tuple
    /// `s ∪ t` must be a valuation of the schema, so every edge is traversed
    /// by point lookup; the existence check on `s` is `contains r s`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoValidPlan`] if no chain can check `∃u ⊇ s` under the
    /// placement (e.g. the check would scan a speculative edge).
    pub fn plan_insert(&self, bound: ColumnSet) -> Result<InsertPlan, CoreError> {
        let mut check = self.plan_query(bound, ColumnSet::EMPTY)?;
        check.steps = (check.steps.into_iter())
            .filter_map(|step| match step {
                PlanStep::Lock { .. } => None,
                PlanStep::SpecLookup { edge, .. } => Some(PlanStep::Lookup { edge }),
                step => Some(step),
            })
            .collect();
        let scans = (check.steps.iter()).any(|step| matches!(step, PlanStep::Scan { .. }));
        Ok(InsertPlan {
            edges: self.mutation_order(),
            check,
            root_hosted: self.root_hosted_edges(|_| scans),
            topo_nodes: self.nodes_in_topo_order(false),
        })
    }

    /// Plans `remove r s` where `dom s = bound`; the schema's FDs must make
    /// `bound` a key (§2: "our implementation requires that s is a key").
    ///
    /// # Errors
    ///
    /// * [`CoreError::Spec`] if `bound` is not a key;
    /// * [`CoreError::NoValidPlan`] if some edge could only be reached by
    ///   scanning a speculative edge.
    pub fn plan_remove(&self, bound: ColumnSet) -> Result<RemovePlan, CoreError> {
        if !self.decomp.schema().is_key(bound) {
            return Err(CoreError::Spec(SpecError::RemoveNotByKey {
                dom: self.decomp.schema().catalog().render_set(bound),
            }));
        }
        let root = self.decomp.root();
        let mut known = bound;
        let mut steps = Vec::new();
        let mut forced = Vec::new();
        for e in self.mutation_order() {
            let em = self.decomp.edge(e);
            let ep = self.placement.edge(e);
            let point = em.cols.is_subset(known);
            if ep.speculative && !point {
                return Err(CoreError::NoValidPlan(format!(
                    "removal must scan speculative edge {}→{}",
                    self.decomp.node(em.src).name,
                    self.decomp.node(em.dst).name
                )));
            }
            // Two situations force taking every stripe: emptiness checks on
            // non-root sources, and scans — both read a whole container
            // instance, which striping beyond the source key splits.
            let all_stripes = !ep.speculative
                && !ep.stripe_by.is_subset(self.decomp.node(em.src).key_cols)
                && self.placement.stripe_count(ep.host) > 1
                && (em.src != root || !point);
            if ep.host != root {
                steps.push(PlanStep::Lock {
                    edge: e,
                    mode: LockMode::Exclusive,
                    presorted: false,
                    all_stripes,
                });
            } else if all_stripes {
                forced.push(e);
            }
            steps.push(self.traversal(e, point, LockMode::Exclusive));
            known = known.union(em.cols);
        }
        Ok(RemovePlan {
            locate: self.locate_plan(steps),
            root_hosted: self.root_hosted_edges(|e| forced.contains(&e)),
            reverse_topo_nodes: self.nodes_in_topo_order(true),
        })
    }

    /// The traversal of edge `e` in a mutation's locate plan: a §4.5
    /// speculative lookup in `mode` on a speculative edge, else a lookup
    /// where the edge's columns are bound (`point`) and a scan elsewhere.
    fn traversal(&self, e: EdgeId, point: bool, mode: LockMode) -> PlanStep {
        if self.placement.edge(e).speculative {
            PlanStep::SpecLookup { edge: e, mode }
        } else if point {
            PlanStep::Lookup { edge: e }
        } else {
            PlanStep::Scan { edge: e }
        }
    }

    /// A mutation's locate plan: its survivor is the whole stored tuple.
    fn locate_plan(&self, steps: Vec<PlanStep>) -> Plan {
        Plan {
            steps,
            output: self.decomp.schema().columns(),
            cost: 0.0,
        }
    }

    /// Plans a batched `insert_all` whose rows all bind `bound`. See
    /// [`InsertBatchPlan`].
    ///
    /// # Errors
    ///
    /// As for [`Planner::plan_insert`].
    pub fn plan_insert_batch(&self, bound: ColumnSet) -> Result<InsertBatchPlan, CoreError> {
        let insert = self.plan_insert(bound)?;
        Ok(InsertBatchPlan { insert })
    }

    /// Plans a batched `remove_all` whose keys all bind `bound`. See
    /// [`RemoveBatchPlan`].
    ///
    /// # Errors
    ///
    /// As for [`Planner::plan_remove`].
    pub fn plan_remove_batch(&self, bound: ColumnSet) -> Result<RemoveBatchPlan, CoreError> {
        let remove = self.plan_remove(bound)?;
        Ok(RemoveBatchPlan { remove })
    }

    /// Root-hosted edges, each with the force-all-stripes flag `force_all`
    /// assigns it — the shape of a root lock sweep.
    fn root_hosted_edges(&self, force_all: impl Fn(EdgeId) -> bool) -> Vec<(EdgeId, bool)> {
        let root = self.decomp.root();
        self.decomp
            .edges()
            .filter(|&(e, _)| self.placement.edge(e).host == root)
            .map(|(e, _)| (e, force_all(e)))
            .collect()
    }

    /// All node ids sorted by topological position (reversed on demand).
    fn nodes_in_topo_order(&self, reverse: bool) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.decomp.nodes().map(|(id, _)| id).collect();
        nodes.sort_by_key(|&v| self.decomp.topo_position(v));
        if reverse {
            nodes.reverse();
        }
        nodes
    }

    /// Plans `update r s t` where `dom s = bound` and `dom t = updated`
    /// (§2). The schema's FDs must make `bound` a key (as for `remove`, so
    /// "the tuple matching `s`" is well defined), and the updated columns
    /// must be disjoint from `bound` — updating a tuple never changes which
    /// key it answers to.
    ///
    /// When the updated columns appear in no edge source's key columns —
    /// only sink nodes bind them, so the tuple's position in every
    /// untouched container is unchanged — the planner emits the
    /// [`UpdatePlan::InPlace`] fast path; otherwise the general
    /// unlink + re-insert plan.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Spec`] with [`SpecError::EmptyUpdate`] if
    ///   `updated` is empty, [`SpecError::UpdateOverlapsPattern`]
    ///   if it intersects `bound`, or
    ///   [`SpecError::RemoveNotByKey`] if `bound` is not a key;
    /// * [`CoreError::NoValidPlan`] if the located tuple cannot be reached
    ///   under the placement (as for `remove`).
    pub fn plan_update(
        &self,
        bound: ColumnSet,
        updated: ColumnSet,
    ) -> Result<UpdatePlan, CoreError> {
        validate_update(self.decomp.schema(), bound, updated)?;
        let touched: Vec<EdgeId> = self
            .decomp
            .edges()
            .filter(|(_, em)| !em.cols.is_disjoint(updated))
            .map(|(e, _)| e)
            .collect();
        if let Some(locate) = self.plan_in_place(bound, updated, &touched) {
            return Ok(UpdatePlan::InPlace(InPlaceUpdate {
                locate,
                updated,
                touched,
            }));
        }
        let remove = self.plan_remove(bound)?;
        let insert = self.plan_insert(self.decomp.schema().columns())?;
        Ok(UpdatePlan::General(GeneralUpdate {
            remove,
            insert,
            updated,
            touched,
        }))
    }

    /// Attempts to compile the in-place fast path; `None` means the update
    /// is not key-position-preserving (or the placement makes the fast path
    /// unreachable) and the general plan must be used.
    fn plan_in_place(
        &self,
        bound: ColumnSet,
        updated: ColumnSet,
        touched: &[EdgeId],
    ) -> Option<Plan> {
        // Eligibility: the updated columns must intersect no edge source's
        // key columns. Then any node binding an updated column is a sink
        // (it can be the source of no edge), every affected sink is the
        // target of touched edges only, and every untouched container
        // keeps the tuple at an unchanged position.
        for (_, em) in self.decomp.edges() {
            if !updated.is_disjoint(self.decomp.node(em.src).key_cols) {
                return None;
            }
        }
        // A touched edge under §4.5 speculation would need the target-side
        // re-validation protocol replayed around the rewrite; only a
        // degenerate root→sink edge can hit this, so fall back instead.
        if touched.iter().any(|&e| self.placement.edge(e).speculative) {
            return None;
        }
        // The locate set: the cheapest valid chain from the root to every
        // touched edge's source, plus the touched edges themselves.
        let mut need: BTreeSet<EdgeId> = touched.iter().copied().collect();
        for &e in touched {
            need.extend(self.cheapest_chain_to(self.decomp.edge(e).src, bound)?);
        }
        // Compile the steps in mutation order; `known` accumulates the
        // bound columns, exactly as the evaluator's traversal will bind
        // them.
        let mut steps = Vec::with_capacity(2 * need.len());
        let mut known = bound;
        for e in self.mutation_order() {
            if !need.contains(&e) {
                continue;
            }
            let em = self.decomp.edge(e);
            let ep = self.placement.edge(e);
            let is_touched = touched.contains(&e);
            let point = em.cols.is_subset(known);
            if ep.speculative && !point {
                return None; // cannot scan a speculative edge (§4.5)
            }
            known = known.union(em.cols);
            // Scans read — and touched rewrites may move entries across —
            // the whole container instance; when striping by non-source
            // columns splits it, every stripe must be held.
            let all_stripes = !ep.stripe_by.is_subset(self.decomp.node(em.src).key_cols)
                && self.placement.stripe_count(ep.host) > 1
                && (is_touched || !point);
            let mode = if is_touched {
                LockMode::Exclusive
            } else {
                self.placement.read_mode(e)
            };
            // A §4.5 hop, too, locks its fallback stripe before the
            // speculation protocol: unlocked existence checks exclude
            // structural writers by sweeping every root stripe (see
            // `InsertPlan::root_hosted`), and the in-place rewrite is such
            // a writer even where the present path would skip the root.
            steps.push(PlanStep::Lock {
                edge: e,
                mode,
                presorted: false,
                all_stripes,
            });
            steps.push(self.traversal(e, point, mode));
        }
        self.promote_colliding_modes(&mut steps);
        Some(self.locate_plan(steps))
    }

    /// Lock sites (decomposition nodes whose instances hold the physical
    /// locks) a step can acquire: the placement host of a lock step, plus
    /// the edge target for a speculative lookup.
    fn lock_sites(&self, step: &PlanStep) -> Vec<NodeId> {
        match *step {
            PlanStep::Lock { edge, .. } => vec![self.placement.edge(edge).host],
            PlanStep::SpecLookup { edge, .. } => {
                vec![self.placement.edge(edge).host, self.decomp.edge(edge).dst]
            }
            _ => Vec::new(),
        }
    }

    /// One physical lock requested shared by one step and exclusive by a
    /// later one would force an upgrade on *every* execution, which
    /// restarts whenever another reader shares the lock; promote shared
    /// lock steps whose lock sites collide with an exclusive
    /// step's sites, to a fixpoint.
    fn promote_colliding_modes(&self, steps: &mut [PlanStep]) {
        let exclusive = |step: &PlanStep| {
            matches!(
                step,
                PlanStep::Lock {
                    mode: LockMode::Exclusive,
                    ..
                } | PlanStep::SpecLookup {
                    mode: LockMode::Exclusive,
                    ..
                }
            )
        };
        let mut exclusive_nodes: BTreeSet<NodeId> = (steps.iter())
            .filter(|step| exclusive(step))
            .flat_map(|step| self.lock_sites(step))
            .collect();
        loop {
            let mut changed = false;
            for step in steps.iter_mut() {
                let sites = self.lock_sites(step);
                if let PlanStep::Lock { mode, .. } | PlanStep::SpecLookup { mode, .. } = step {
                    if *mode == LockMode::Shared
                        && sites.iter().any(|n| exclusive_nodes.contains(n))
                    {
                        *mode = LockMode::Exclusive;
                        exclusive_nodes.extend(sites);
                        changed = true;
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// The cheapest chain of edges from the root to `target` that is valid
    /// under the placement (speculative edges cannot be scanned), starting
    /// from the pattern columns `bound`. `None` if no valid chain exists.
    fn cheapest_chain_to(
        &self,
        target: crate::decomp::NodeId,
        bound: ColumnSet,
    ) -> Option<Vec<EdgeId>> {
        let mut best: Option<(f64, Vec<EdgeId>)> = None;
        let mut chain = Vec::new();
        self.chains_to(
            self.decomp.root(),
            target,
            bound,
            0.0,
            1.0,
            &mut chain,
            &mut best,
        );
        best.map(|(_, c)| c)
    }

    #[allow(clippy::too_many_arguments)]
    fn chains_to(
        &self,
        node: crate::decomp::NodeId,
        target: crate::decomp::NodeId,
        known: ColumnSet,
        cost: f64,
        states: f64,
        chain: &mut Vec<EdgeId>,
        best: &mut Option<(f64, Vec<EdgeId>)>,
    ) {
        if node == target {
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                *best = Some((cost, chain.clone()));
            }
            return;
        }
        for &e in &self.decomp.node(node).outgoing {
            let em = self.decomp.edge(e);
            let ep = self.placement.edge(e);
            let point = em.cols.is_subset(known);
            let (step_cost, next_states) = if point {
                let spec_overhead = if ep.speculative { 2.0 } else { 1.0 };
                (lookup_cost(em.container) * spec_overhead, states)
            } else {
                if ep.speculative {
                    continue; // cannot scan a speculative edge
                }
                let fanout = if em.singleton { 1.0 } else { DEFAULT_FANOUT };
                (SCAN_SETUP_COST + fanout * SCAN_ENTRY_COST, states * fanout)
            };
            chain.push(e);
            self.chains_to(
                em.dst,
                target,
                known.union(em.cols),
                cost + states * step_cost,
                next_states,
                chain,
                best,
            );
            chain.pop();
        }
    }

    /// Renders a query plan in the paper's `let` notation (§5.2).
    pub fn render(&self, plan: &Plan) -> String {
        render_plan(&self.decomp, &plan.steps)
    }
}

/// The §2 preconditions of `update r s t` with `dom s = bound` and
/// `dom t = updated`, checked in this order: the update assigns something,
/// it assigns no column of the pattern (an update never changes which key
/// the tuple answers to), and the pattern is a key (so "the tuple matching
/// `s`" is well defined).
///
/// # Errors
///
/// [`CoreError::Spec`] with [`SpecError::EmptyUpdate`],
/// [`SpecError::UpdateOverlapsPattern`] or [`SpecError::RemoveNotByKey`]
/// respectively.
pub(crate) fn validate_update(
    schema: &RelationSchema,
    bound: ColumnSet,
    updated: ColumnSet,
) -> Result<(), CoreError> {
    let render = |cols| schema.catalog().render_set(cols);
    if updated.is_empty() {
        Err(SpecError::EmptyUpdate)
    } else if !updated.is_disjoint(bound) {
        Err(SpecError::UpdateOverlapsPattern {
            shared: render(updated.intersection(bound)),
        })
    } else if !schema.is_key(bound) {
        Err(SpecError::RemoveNotByKey { dom: render(bound) })
    } else {
        Ok(())
    }
    .map_err(CoreError::Spec)
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan({} steps, cost {:.1})", self.steps.len(), self.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::library::{dcache, diamond, split, stick};

    fn cols(d: &Decomposition, names: &[&str]) -> ColumnSet {
        d.schema().column_set(names).unwrap()
    }

    #[test]
    fn successor_query_on_split_uses_src_branch() {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        let plan = planner
            .plan_query(cols(&d, &["src"]), cols(&d, &["dst", "weight"]))
            .unwrap();
        // First traversal must be a lookup of the src-keyed edge ρu.
        let ru = d.edge_between("ρ", "u").unwrap();
        assert!(plan.steps.iter().any(|s| matches!(s,
            PlanStep::Lookup { edge } if *edge == ru)));
        // And it must not touch the dst-side branch.
        let rv = d.edge_between("ρ", "v").unwrap();
        assert!(!plan.steps.iter().any(|s| s.edge() == rv));
    }

    #[test]
    fn predecessor_query_on_stick_requires_full_scan() {
        let d = stick(ContainerKind::HashMap, ContainerKind::HashMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        // find-predecessors: bind dst, want src+weight. The stick must scan
        // the src level.
        let plan = planner
            .plan_query(cols(&d, &["dst"]), cols(&d, &["src", "weight"]))
            .unwrap();
        let ru = d.edge_between("ρ", "u").unwrap();
        assert!(plan.steps.iter().any(|s| matches!(s,
            PlanStep::Scan { edge } if *edge == ru)));
        // Compare with the successors plan, which should be much cheaper.
        let succ = planner
            .plan_query(cols(&d, &["src"]), cols(&d, &["dst", "weight"]))
            .unwrap();
        assert!(
            succ.cost < plan.cost,
            "successors {} < predecessors {}",
            succ.cost,
            plan.cost
        );
    }

    #[test]
    fn dcache_point_query_prefers_hash_shortcut() {
        // Fig. 2: lookup by (parent, name) should use the ρ→y hash edge, not
        // the two-level tree path.
        let d = dcache();
        let p = LockPlacement::fine(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        let plan = planner
            .plan_query(cols(&d, &["parent", "name"]), cols(&d, &["child"]))
            .unwrap();
        let ry = d.edge_between("ρ", "y").unwrap();
        assert!(
            plan.steps
                .iter()
                .any(|s| matches!(s, PlanStep::Lookup { edge } if *edge == ry)),
            "should shortcut through the hash index: {}",
            planner.render(&plan)
        );
    }

    #[test]
    fn dcache_full_iteration_matches_paper_plan2() {
        // §5.2 plan (2): lock ρ, scan(ρy), scan(yz), unlock, return — under
        // the coarse placement.
        let d = dcache();
        let p = LockPlacement::coarse(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        let plan = planner
            .plan_query(ColumnSet::EMPTY, d.schema().columns())
            .unwrap();
        let rendered = planner.render(&plan);
        // Whichever chain is chosen, it must scan to cover all columns and
        // end with the singleton child edge.
        assert!(rendered.contains("scan"), "{rendered}");
        assert!(rendered.contains("unlock"), "{rendered}");
        // The cheapest chain is the 2-edge one: ρy then yz (plan (2), not
        // the 3-edge plan (3)).
        let ry = d.edge_between("ρ", "y").unwrap();
        assert!(plan.steps.iter().any(|s| s.edge() == ry), "{rendered}");
        assert_eq!(
            plan.steps.iter().filter(|s| !s.is_lock()).count(),
            2,
            "two traversals: {rendered}"
        );
    }

    #[test]
    fn speculative_edges_forbid_scans() {
        let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::speculative(&d, 8).unwrap();
        let planner = Planner::new(d.clone(), p);
        // Point query by (src) is fine: speculative lookup.
        let plan = planner
            .plan_query(cols(&d, &["src"]), cols(&d, &["dst", "weight"]))
            .unwrap();
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::SpecLookup { .. })));
        // Full iteration must scan ρx or ρy — impossible: no valid plan.
        let err = planner
            .plan_query(ColumnSet::EMPTY, d.schema().columns())
            .unwrap_err();
        assert!(matches!(err, CoreError::NoValidPlan(_)));
    }

    #[test]
    fn sort_elision_flags_follow_container_sortedness() {
        // Sorted containers (TreeMap) keep the chain sorted; HashMap breaks
        // it.
        let d = stick(ContainerKind::TreeMap, ContainerKind::TreeMap);
        let p = LockPlacement::fine(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        let plan = planner
            .plan_query(ColumnSet::EMPTY, d.schema().columns())
            .unwrap();
        let flags: Vec<bool> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                PlanStep::Lock { presorted, .. } => Some(*presorted),
                _ => None,
            })
            .collect();
        assert!(
            flags.iter().all(|&f| f),
            "TreeMap chain stays sorted: {flags:?}"
        );

        let d = stick(ContainerKind::HashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        let plan = planner
            .plan_query(ColumnSet::EMPTY, d.schema().columns())
            .unwrap();
        let flags: Vec<bool> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                PlanStep::Lock { presorted, .. } => Some(*presorted),
                _ => None,
            })
            .collect();
        assert!(flags[0], "first lock over one state is trivially sorted");
        assert!(
            !flags[2],
            "after an unsorted scan the lock set needs sorting"
        );
    }

    #[test]
    fn mutation_order_binds_sources_first() {
        for d in [
            stick(ContainerKind::HashMap, ContainerKind::HashMap),
            split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
            diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap),
            dcache(),
        ] {
            for p in [
                LockPlacement::coarse(&d).unwrap(),
                LockPlacement::fine(&d).unwrap(),
            ] {
                let planner = Planner::new(d.clone(), p);
                let order = planner.mutation_order();
                assert_eq!(order.len(), d.edge_count());
                // Every edge's source must be bound (reached) by an earlier
                // edge, or be the root.
                let mut bound = vec![false; d.node_count()];
                bound[d.root().index()] = true;
                for e in order {
                    let em = d.edge(e);
                    assert!(bound[em.src.index()], "source bound before edge {e:?}");
                    bound[em.dst.index()] = true;
                }
            }
        }
    }

    #[test]
    fn insert_plan_check_chain_covers_key() {
        // The check is `contains r s`: over a key it looks the tuple up
        // along one branch, without the query plan's locks.
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        let plan = planner.plan_insert(cols(&d, &["src", "dst"])).unwrap();
        assert_eq!(plan.edges.len(), d.edge_count());
        assert_eq!(
            planner.render(&plan.check),
            "let b = lookup(a, ρu) in\n\
             let c = lookup(b, uw) in\n\
             c"
        );
        assert!(plan.root_hosted.iter().all(|&(_, all)| !all));

        // A pattern no lookup chain binds scans, and the root sweep then
        // takes every stripe.
        let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
        let planner = Planner::new(d.clone(), LockPlacement::striped_root(&d, 2).unwrap());
        let plan = planner.plan_insert(cols(&d, &["dst"])).unwrap();
        assert_eq!(
            planner.render(&plan.check),
            "let b = scan(a, ρu) in\n\
             let c = lookup(b, uv) in\n\
             c"
        );
        assert!(plan.root_hosted.iter().all(|&(_, all)| all));

        // A §4.5 speculative lookup is read as a plain one: the insert's
        // own locks freeze the edge.
        let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let planner = Planner::new(d.clone(), LockPlacement::speculative(&d, 8).unwrap());
        let plan = planner.plan_insert(cols(&d, &["src", "dst"])).unwrap();
        assert_eq!(
            planner.render(&plan.check),
            "let b = lookup(a, ρx) in\n\
             let c = lookup(b, xw) in\n\
             c"
        );
    }

    #[test]
    fn remove_plan_requires_key() {
        let d = stick(ContainerKind::HashMap, ContainerKind::HashMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        assert!(planner.plan_remove(cols(&d, &["src", "dst"])).is_ok());
        // src alone is not a key.
        assert!(matches!(
            planner.plan_remove(cols(&d, &["src"])),
            Err(CoreError::Spec(_))
        ));
        // Full tuples are keys.
        assert!(planner
            .plan_remove(cols(&d, &["src", "dst", "weight"]))
            .is_ok());
    }

    #[test]
    fn remove_plan_mixes_lookups_and_scans() {
        // src, dst edges are lookups; the weight edge must be scanned. The
        // coarse placement hosts every edge at the root, whose locks the
        // root sweep takes: the locate plan itself locks nothing.
        let d = stick(ContainerKind::HashMap, ContainerKind::HashMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        let plan = planner.plan_remove(cols(&d, &["src", "dst"])).unwrap();
        assert_eq!(
            planner.render(&plan.locate),
            "let b = lookup(a, ρu) in\n\
             let c = lookup(b, uv) in\n\
             let d = scan(c, vw) in\n\
             d"
        );
        assert!(plan.root_hosted.iter().all(|&(_, all)| !all));
        // Under the fine placement each non-root host is locked
        // exclusively before its edge is traversed.
        let planner = Planner::new(d.clone(), LockPlacement::fine(&d).unwrap());
        let plan = planner.plan_remove(cols(&d, &["src", "dst"])).unwrap();
        assert_eq!(
            planner.render(&plan.locate),
            "let b = lookup(a, ρu) in\n\
             let _ = lock!(b, ψ(uv)) in\n\
             let c = lookup(b, uv) in\n\
             let _ = lock!(c, ψ(vw)) in\n\
             let d = scan(c, vw) in\n\
             let _ = unlock(c, ψ(vw)) in\n\
             let _ = unlock(b, ψ(uv)) in\n\
             d"
        );
    }

    #[test]
    fn remove_under_speculation_works_for_keys() {
        let d = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::speculative(&d, 8).unwrap();
        let planner = Planner::new(d.clone(), p);
        // (src, dst) binds both speculative edges via exclusive §4.5
        // lookups: fine.
        let plan = planner.plan_remove(cols(&d, &["src", "dst"])).unwrap();
        assert_eq!(
            planner.render(&plan.locate),
            "let b = spec-lock!-lookup(a, ρx) in\n\
             let c = spec-lock!-lookup(b, ρy) in\n\
             let _ = lock!(c, ψ(yw)) in\n\
             let d = lookup(c, yw) in\n\
             let _ = lock!(d, ψ(xw)) in\n\
             let e = lookup(d, xw) in\n\
             let _ = lock!(e, ψ(wz)) in\n\
             let f = scan(e, wz) in\n\
             let _ = unlock(e, ψ(wz)) in\n\
             let _ = unlock(d, ψ(xw)) in\n\
             let _ = unlock(c, ψ(yw)) in\n\
             let _ = unlock(b, ψ(ρy)) in\n\
             let _ = unlock(a, ψ(ρx)) in\n\
             f"
        );
        // Removing by the full tuple also looks every edge up.
        assert!(planner
            .plan_remove(cols(&d, &["src", "dst", "weight"]))
            .is_ok());
    }

    #[test]
    fn update_plan_validates_and_records_touched_edges() {
        let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        let p = LockPlacement::coarse(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        let plan = planner
            .plan_update(cols(&d, &["src", "dst"]), cols(&d, &["weight"]))
            .unwrap();
        // Only the weight edge is rewritten by a weight update, and weight
        // lives only in the sink's key: the fast path applies.
        let vw = d.edge_between("v", "w").unwrap();
        assert_eq!(plan.touched(), &[vw]);
        assert_eq!(plan.updated(), cols(&d, &["weight"]));
        let UpdatePlan::InPlace(ip) = &plan else {
            panic!("weight update on the stick must take the fast path");
        };
        // The locate covers the chain ρ→u→v plus the touched edge v→w,
        // whose old weight is unknown until it is read: a scan. Under the
        // coarse placement every step shares the root lock, so mode
        // promotion makes the whole plan exclusive (a shared-then-
        // exclusive request on one lock would restart every execution).
        assert_eq!(
            planner.render(&ip.locate),
            "let _ = lock!(a, ψ(ρu)) in\n\
             let b = lookup(a, ρu) in\n\
             let _ = lock!(b, ψ(uv)) in\n\
             let c = lookup(b, uv) in\n\
             let _ = lock!(c, ψ(vw)) in\n\
             let d = scan(c, vw) in\n\
             let _ = unlock(c, ψ(vw)) in\n\
             let _ = unlock(b, ψ(uv)) in\n\
             let _ = unlock(a, ψ(ρu)) in\n\
             d"
        );

        // Assignment overlapping the key pattern is rejected.
        assert!(matches!(
            planner.plan_update(cols(&d, &["src", "dst"]), cols(&d, &["dst"])),
            Err(CoreError::Spec(SpecError::UpdateOverlapsPattern { .. }))
        ));
        // Empty assignment is rejected.
        assert!(matches!(
            planner.plan_update(cols(&d, &["src", "dst"]), ColumnSet::EMPTY),
            Err(CoreError::Spec(SpecError::EmptyUpdate))
        ));
        // Non-key pattern is rejected.
        assert!(matches!(
            planner.plan_update(cols(&d, &["src"]), cols(&d, &["weight"])),
            Err(CoreError::Spec(SpecError::RemoveNotByKey { .. }))
        ));
    }

    #[test]
    fn update_fast_path_classification() {
        // Fine placement on the split: touched edges are hosted at their
        // sources (per-key locks), the root chains stay shared.
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        let plan = planner
            .plan_update(cols(&d, &["src", "dst"]), cols(&d, &["weight"]))
            .unwrap();
        let UpdatePlan::InPlace(ip) = &plan else {
            panic!("weight update on the split must take the fast path");
        };
        let wx = d.edge_between("w", "x").unwrap();
        let yz = d.edge_between("y", "z").unwrap();
        let mut touched = plan.touched().to_vec();
        touched.sort();
        assert_eq!(touched, vec![wx, yz]);
        // Both branches are traversed and both touched edges locked
        // exclusively; untouched traversal stays in shared mode (hosts are
        // disjoint from the touched hosts under the fine placement). The
        // first touched edge in mutation order scans for the old values;
        // the second finds them bound and is a lookup.
        assert_eq!(
            planner.render(&ip.locate),
            "let _ = lock(a, ψ(ρu)) in\n\
             let b = lookup(a, ρu) in\n\
             let _ = lock(b, ψ(ρv)) in\n\
             let c = lookup(b, ρv) in\n\
             let _ = lock(c, ψ(vy)) in\n\
             let d = lookup(c, vy) in\n\
             let _ = lock!(d, ψ(yz)) in\n\
             let e = scan(d, yz) in\n\
             let _ = lock(e, ψ(uw)) in\n\
             let f = lookup(e, uw) in\n\
             let _ = lock!(f, ψ(wx)) in\n\
             let g = lookup(f, wx) in\n\
             let _ = unlock(f, ψ(wx)) in\n\
             let _ = unlock(e, ψ(uw)) in\n\
             let _ = unlock(d, ψ(yz)) in\n\
             let _ = unlock(c, ψ(vy)) in\n\
             let _ = unlock(b, ψ(ρv)) in\n\
             let _ = unlock(a, ψ(ρu)) in\n\
             g"
        );

        // A chain binding the updated column mid-path disqualifies the
        // fast path: weight sits in a non-sink node's key.
        let schema = relc_spec::library::graph_schema();
        let mut b = Decomposition::builder(schema);
        let root = b.root();
        let a = b.node("a");
        let c = b.node("c");
        b.edge(root, a, &["src", "weight"], ContainerKind::HashMap)
            .unwrap();
        b.edge(a, c, &["dst"], ContainerKind::HashMap).unwrap();
        let d2 = b.build().unwrap();
        let p2 = LockPlacement::coarse(&d2).unwrap();
        let planner2 = Planner::new(d2.clone(), p2);
        let plan2 = planner2
            .plan_update(cols(&d2, &["src", "dst"]), cols(&d2, &["weight"]))
            .unwrap();
        assert!(
            matches!(plan2, UpdatePlan::General(_)),
            "weight in a non-sink key forces the general path"
        );

        // The diamond under speculation: the touched sink edge is not
        // speculative (only root edges are), so the fast path still
        // applies, locating through one speculative lookup (through ρ→x or
        // ρ→y) — its fallback stripe locked first — plus w→z.
        let d3 = diamond(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p3 = LockPlacement::speculative(&d3, 8).unwrap();
        let planner3 = Planner::new(d3.clone(), p3);
        let plan3 = planner3
            .plan_update(cols(&d3, &["src", "dst"]), cols(&d3, &["weight"]))
            .unwrap();
        let UpdatePlan::InPlace(ip3) = &plan3 else {
            panic!("diamond/speculative weight update must take the fast path");
        };
        assert_eq!(
            planner3.render(&ip3.locate),
            "let _ = lock(a, ψ(ρx)) in\n\
             let b = spec-lock-lookup(a, ρx) in\n\
             let _ = lock(b, ψ(xw)) in\n\
             let c = lookup(b, xw) in\n\
             let _ = lock!(c, ψ(wz)) in\n\
             let d = scan(c, wz) in\n\
             let _ = unlock(c, ψ(wz)) in\n\
             let _ = unlock(b, ψ(xw)) in\n\
             let _ = unlock(a, ψ(ρx)) in\n\
             d"
        );
    }

    #[test]
    fn query_plan_cache_key_is_shape_only() {
        // Same bound/output shapes give structurally identical plans.
        let d = stick(ContainerKind::TreeMap, ContainerKind::TreeMap);
        let p = LockPlacement::fine(&d).unwrap();
        let planner = Planner::new(d.clone(), p);
        let a = planner
            .plan_query(cols(&d, &["src"]), cols(&d, &["dst"]))
            .unwrap();
        let b = planner
            .plan_query(cols(&d, &["src"]), cols(&d, &["dst"]))
            .unwrap();
        assert_eq!(a.steps, b.steps);
    }
}
