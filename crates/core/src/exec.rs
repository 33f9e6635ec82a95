//! Plan execution under the two-phase locking engine (§5).
//!
//! The [`Executor`] runs compiled plans against a decomposition instance,
//! acquiring the physical locks named by the placement through a
//! [`TwoPhaseEngine`]. Every operation is well-locked (locks precede the
//! reads/writes they cover — a planner invariant) and two-phase (the engine
//! releases only at commit/abort), so by §4.2 the operations are
//! serializable; the §5.1 lock order plus the engine's try-and-restart rule
//! for out-of-order acquisitions gives deadlock freedom.
//!
//! Reads are not interpreted here: the query language has one evaluator
//! ([`crate::query`]), and the executor is its *locked edge view* — it
//! answers each step's "take these locks", "follow this key" (including
//! the §4.5 speculative protocol) and "walk these entries" against the
//! main containers. Mutations, which are not Fig. 4 plans, are.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::Arc;

use relc_locks::{LockMode, MustRestart, TwoPhaseEngine};
use relc_spec::{ColumnSet, RangePattern, Tuple, Value};

use crate::decomp::{Decomposition, EdgeId, NodeId};
use crate::instance::{NodeInstance, NodeRef};
use crate::mvcc::MvccScope;
use crate::placement::{LockPlacement, LockToken};
use crate::planner::{
    InPlaceUpdate, InsertBatchPlan, InsertPlan, MutTraverse, Plan, RemoveBatchPlan, RemovePlan,
};
use crate::query::{eval_all, eval_any, EdgeView, KeyBounds, QueryState};

/// How a [`Executor::run_insert`] call participates in the transaction
/// layer's write compensation (see `txn.rs`).
#[derive(Clone, Copy)]
pub enum InsertUndo<'p> {
    /// The final write phase of a single-shot operation: no later
    /// operation of the same transaction can restart, so this insert can
    /// never be compensated and no extra locks are needed.
    None,
    /// A mid-transaction insert that may later be compensated by a
    /// structural removal (the given inverse plan): pre-acquire, before
    /// the first write, every token that removal could need beyond the
    /// insert's own set, so the compensation can never restart.
    Prepare(&'p RemovePlan),
    /// Like [`InsertUndo::Prepare`], but for the *final* operation of a
    /// single-shot transaction (a `ConcurrentRelation::insert_all` batch):
    /// compensation is still possible (a later row of the same batch can
    /// restart), so the inverse's extra tokens are pre-acquired — but no
    /// later operation of this transaction will ever *read* the freshly
    /// materialized subtrees, so their host locks need not enter the
    /// engine. Other transactions cannot reach them either: locked
    /// readers block on the root-hosted tokens the batch sweep holds, and
    /// speculative readers on the pre-acquired target-side locks.
    PrepareFinal(&'p RemovePlan),
    /// This insert *is* a compensation step (re-inserting a removed
    /// tuple during rollback). Freshly materialized speculative targets
    /// must still take their target-side locks before publication: the
    /// re-inserted value may be uncommitted state that the rest of the
    /// rollback undoes again, so a speculative reader acquiring the
    /// otherwise-free lock would dirty-read it — and a later compensation
    /// step (an unlink of the same key) would then find the lock
    /// contended and restart, which rollback must never do.
    Compensation,
}

impl<'p> InsertUndo<'p> {
    /// [`InsertUndo::Prepare`] when a mid-transaction inverse plan exists,
    /// [`InsertUndo::None`] for the final phase of a single-shot operation.
    pub fn from_inverse(inverse: Option<&'p RemovePlan>) -> Self {
        match inverse {
            Some(p) => InsertUndo::Prepare(p),
            None => InsertUndo::None,
        }
    }
}

/// FNV-1a, the hasher for the batch-local maps: their keys are consulted
/// once or twice per row on the hot path, where SipHash's per-hash setup
/// cost (the `HashMap` default) is measurable and HashDoS resistance is
/// irrelevant (the maps live for one batch, keyed by the caller's own
/// tuples).
#[derive(Default, Clone, Copy)]
struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

type BuildFnv = std::hash::BuildHasherDefault<FnvHasher>;

/// Assembles the canonical `query_range` output from surviving (full or
/// partial) tuples: filter by the interval, order by **(range value,
/// projected tuple)**, deduplicate keeping first occurrences, truncate at
/// the limit — exactly [`relc_spec::OracleRelation::query_range`]'s
/// reference order, written independently of it (the differential suites
/// compare the two). Shared by the evaluator and the sharded fan-out
/// merge, so every access path agrees with the oracle tuple-for-tuple.
pub(crate) fn assemble_range_output(
    tuples: impl IntoIterator<Item = Tuple>,
    range: &RangePattern,
    output: ColumnSet,
) -> Vec<Tuple> {
    let mut matched: Vec<(Value, Tuple)> = tuples
        .into_iter()
        .filter_map(|t| {
            let v = t.get(range.col()).filter(|v| range.contains(v))?.clone();
            Some((v, t.project(output)))
        })
        .collect();
    matched.sort();
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (_, p) in matched {
        if seen.insert(p.clone()) {
            out.push(p);
            if range.limit().is_some_and(|k| out.len() >= k) {
                break;
            }
        }
    }
    out
}

/// Batch-local state threaded through [`Executor::run_insert_all`]'s
/// per-row passes.
struct BatchInsertCtx<'b> {
    /// Indexed by edge: the edge leaves the root, so its publication is
    /// deferred to the flush (from the batch plan).
    defer: &'b [bool],
    /// Deferred publications: (edge, entry key) → complete-but-unpublished
    /// child instance. Later rows of the same batch consult this map so
    /// shared subtrees stay shared.
    pending: &'b mut HashMap<(EdgeId, Tuple), NodeRef, BuildFnv>,
}

/// Executes compiled plans for one transaction at a time.
pub struct Executor<'a> {
    decomp: &'a Decomposition,
    placement: &'a LockPlacement,
    engine: &'a mut TwoPhaseEngine<LockToken>,
    /// Ablation knob: ignore the planner's sort-elision analysis and always
    /// sort lock sets at runtime (§5.2).
    pub always_sort_locks: bool,
    /// MVCC state of the current attempt: the shared commit stamp and the
    /// journal of mirrored writes (see [`crate::mvcc`]).
    mvcc: MvccScope,
}

/// The locked edge view: a step's locks are really taken (through the
/// two-phase engine, which holds them to commit) and edges are read from
/// their main containers, which those locks make safe to read.
impl EdgeView for Executor<'_> {
    type Restart = MustRestart;

    /// Containers walk an interval in key order only when they are sorted;
    /// the step's `ordered` flag says which.
    const WALKS_IN_KEY_ORDER: bool = false;

    fn lock(
        &mut self,
        states: &[QueryState],
        edge: EdgeId,
        mode: LockMode,
        presorted: bool,
        all_stripes: bool,
    ) -> Result<(), MustRestart> {
        let host = self.placement.edge(edge).host;
        let mut batch: Vec<(LockToken, Arc<relc_locks::PhysicalLock>)> = Vec::new();
        for st in states {
            let inst = st.instance(host);
            let tokens = if all_stripes {
                self.placement.all_stripe_tokens(edge, &st.tuple)
            } else {
                self.placement.fallback_tokens(edge, &st.tuple)
            };
            for tok in tokens {
                let lock = Arc::clone(inst.lock(tok.stripe));
                batch.push((tok, lock));
            }
        }
        if presorted && !self.always_sort_locks {
            debug_assert!(
                batch.windows(2).all(|w| w[0].0 <= w[1].0),
                "planner sort-elision analysis was wrong"
            );
            for (tok, lock) in batch {
                self.engine.acquire(tok, &lock, mode)?;
            }
            return Ok(());
        }
        self.acquire_sorted_batch(batch, mode)
    }

    /// A plain step is a container lookup. A §4.5 speculative step guesses
    /// with an unlocked (linearizable) lookup, locks the target if present
    /// or the fallback stripe if absent, re-validates, and restarts the
    /// transaction on a wrong guess — `None` is then a *verified* absence.
    fn follow(
        &mut self,
        st: &QueryState,
        edge: EdgeId,
        key: &Tuple,
        spec: Option<LockMode>,
    ) -> Result<Option<NodeRef>, MustRestart> {
        let src = st.instance(self.decomp.edge(edge).src);
        let container = src.container(self.decomp, edge);
        let Some(mode) = spec else {
            return Ok(container.lookup(key));
        };
        match container.lookup(key) {
            Some(child) => {
                // Guess: present. Lock the target instance, then verify
                // that the edge still points at the same object.
                let tok = self.placement.target_token(edge, child.key());
                let lock = Arc::clone(child.lock(0));
                self.engine.acquire(tok, &lock, mode)?;
                match container.lookup(key) {
                    Some(now) if Arc::ptr_eq(&now, &child) => Ok(Some(child)),
                    _ => Err(self.engine.fail_speculation()),
                }
            }
            None => {
                // Guess: absent. Lock the fallback stripe(s) at the
                // source, then verify the edge is still absent.
                for tok in self.placement.fallback_tokens(edge, &st.tuple) {
                    let lock = Arc::clone(src.lock(tok.stripe));
                    self.engine.acquire(tok, &lock, mode)?;
                }
                match container.lookup(key) {
                    Some(_) => Err(self.engine.fail_speculation()),
                    None => Ok(None),
                }
            }
        }
    }

    /// On sorted containers a bounded walk visits only the interval, in
    /// ascending key order; elsewhere
    /// [`relc_containers::Container::scan_range`] degrades to a filtered
    /// full scan.
    fn walk(
        &mut self,
        st: &QueryState,
        edge: EdgeId,
        bounds: Option<&KeyBounds>,
        mut f: impl FnMut(&mut Self, &Tuple, NodeRef) -> ControlFlow<()>,
    ) {
        let container = st
            .instance(self.decomp.edge(edge).src)
            .container(self.decomp, edge);
        let mut visit = |k: &Tuple, child: &NodeRef| {
            if st.tuple.matches(k) {
                f(self, k, Arc::clone(child))
            } else {
                ControlFlow::Continue(())
            }
        };
        match bounds {
            Some((lo, hi)) => container.scan_range(lo.as_ref(), hi.as_ref(), &mut visit),
            None => container.scan(&mut visit),
        }
    }
}

impl<'a> Executor<'a> {
    /// Creates an executor borrowing the transaction's lock engine.
    pub fn new(
        decomp: &'a Decomposition,
        placement: &'a LockPlacement,
        engine: &'a mut TwoPhaseEngine<LockToken>,
    ) -> Self {
        Executor {
            decomp,
            placement,
            engine,
            always_sort_locks: false,
            mvcc: MvccScope::default(),
        }
    }

    /// The attempt's MVCC state; the commit/rollback paths stamp and
    /// retire it before the engine releases any lock.
    pub(crate) fn mvcc(&self) -> &MvccScope {
        &self.mvcc
    }

    /// The borrowed lock engine (the commit/rollback paths release it).
    pub(crate) fn engine(&mut self) -> &mut TwoPhaseEngine<LockToken> {
        self.engine
    }

    /// Pre-seeds the attempt's commit stamp (cross-shard transactions
    /// share one stamp across every shard's executor).
    pub(crate) fn set_mvcc_stamp(&mut self, stamp: Arc<relc_locks::CommitStamp>) {
        self.mvcc.set_stamp(stamp);
    }

    /// Mirrors a locked container write into `host`'s shadow version
    /// index for `edge` (see [`crate::mvcc`]). Called at every site that
    /// mutates an edge container, under the same exclusive locks.
    fn mvcc_write(&mut self, host: &NodeRef, edge: EdgeId, key: Tuple, value: Option<NodeRef>) {
        let guard = relc_containers::epoch::pin();
        self.mvcc.write(self.decomp, host, edge, key, value, &guard);
    }

    /// Whether the engine has entered the shrinking phase. The
    /// transaction layer asserts this stays `false` between operations:
    /// plans never release early, so a shrinking engine mid-transaction
    /// means two-phase discipline was broken.
    pub(crate) fn engine_in_shrinking_phase(&self) -> bool {
        self.engine.in_shrinking_phase()
    }

    /// Demotes every future acquisition to a try (see
    /// [`TwoPhaseEngine::set_try_only`]); used by cross-shard
    /// transactions once this executor's shard stops being the highest
    /// shard they hold locks in.
    pub(crate) fn set_try_only(&mut self) {
        self.engine.set_try_only();
    }

    /// Sorts a batch of physical locks into the §5.1 global token order and
    /// acquires each in `mode` — the shared tail of every mutation path's
    /// lock batching.
    fn acquire_sorted_batch(
        &mut self,
        mut batch: Vec<(LockToken, Arc<relc_locks::PhysicalLock>)>,
        mode: LockMode,
    ) -> Result<(), MustRestart> {
        batch.sort_by(|a, b| a.0.cmp(&b.0));
        for (tok, lock) in batch {
            self.engine.acquire(tok, &lock, mode)?;
        }
        Ok(())
    }

    /// Runs a compiled query plan; returns the deduplicated projection of
    /// the surviving states (§2's `query r s C`).
    ///
    /// # Errors
    ///
    /// [`MustRestart`] if lock acquisition or speculation failed; the caller
    /// rolls back and retries.
    pub fn run_query(
        &mut self,
        plan: &Plan,
        pattern: &Tuple,
        root: &NodeRef,
    ) -> Result<Vec<Tuple>, MustRestart> {
        eval_all(self.decomp, self, plan, pattern, None, root)
    }

    /// Runs a compiled range plan (§2's `query_range r s ρ C`): as
    /// [`Executor::run_query`], with range-scan steps walking only the key
    /// interval and the output in the canonical range order.
    ///
    /// # Errors
    ///
    /// [`MustRestart`] if lock acquisition or speculation failed; the caller
    /// rolls back and retries.
    pub fn run_query_range(
        &mut self,
        plan: &Plan,
        pattern: &Tuple,
        range: &RangePattern,
        root: &NodeRef,
    ) -> Result<Vec<Tuple>, MustRestart> {
        eval_all(self.decomp, self, plan, pattern, Some(range), root)
    }

    /// Acquires exclusive locks on every root-hosted edge for the tuple
    /// `bound` (insert: the full tuple; remove: the key pattern), in one
    /// sorted batch. Root-hosted edges include all speculative fallbacks,
    /// which freezes the presence of speculative edges for the rest of the
    /// transaction. `force_all` selects edges whose whole stripe set must be
    /// taken (scanned root edges in removals).
    fn lock_root_batch(
        &mut self,
        bound: &Tuple,
        root: &NodeRef,
        force_all: &dyn Fn(EdgeId) -> bool,
    ) -> Result<(), MustRestart> {
        let mut batch: Vec<LockToken> = Vec::new();
        for (e, _) in self.decomp.edges() {
            if self.placement.edge(e).host == self.decomp.root() {
                if force_all(e) {
                    batch.extend(self.placement.all_stripe_tokens(e, bound));
                } else {
                    batch.extend(self.placement.fallback_tokens(e, bound));
                }
            }
        }
        batch.sort();
        batch.dedup();
        for tok in batch {
            let lock = Arc::clone(root.lock(tok.stripe));
            self.engine.acquire(tok, &lock, LockMode::Exclusive)?;
        }
        Ok(())
    }

    /// Acquires the migration write fence: every stripe of every
    /// root-hosted edge, exclusively, in one sorted batch — the same
    /// all-stripe sweep scanning removals use, widened to the whole root.
    ///
    /// Every locked operation holds at least one root-hosted lock for its
    /// full two-phase scope: mutations take the root batch
    /// ([`Executor::lock_root_batch`]), locked reads traverse from the
    /// root, and even the speculative in-place update pins its fallback
    /// root stripe before the target protocol. Holding the complete sweep
    /// therefore means no writer is in flight and none can acquire until
    /// the fence releases; `ConcurrentRelation::migrate_to` runs its
    /// MVCC cut, bulk load, and root swap under this fence.
    ///
    /// # Errors
    ///
    /// [`MustRestart`] on contention, like any other acquisition — the
    /// migration loop backs off and retries.
    pub(crate) fn acquire_migration_fence(&mut self, root: &NodeRef) -> Result<(), MustRestart> {
        // The root's key columns are empty, so the empty tuple is a valid
        // instance bound for every root-hosted token.
        let bound = Tuple::empty();
        let mut batch: Vec<LockToken> = Vec::new();
        for (e, _) in self.decomp.edges() {
            if self.placement.edge(e).host == self.decomp.root() {
                batch.extend(self.placement.all_stripe_tokens(e, &bound));
            }
        }
        batch.sort();
        batch.dedup();
        for tok in batch {
            let lock = Arc::clone(root.lock(tok.stripe));
            self.engine.acquire(tok, &lock, LockMode::Exclusive)?;
        }
        Ok(())
    }

    /// Runs a compiled insert plan for the full tuple `x = s ∪ t` with
    /// pattern `s`. Returns whether the tuple was inserted (put-if-absent,
    /// §2).
    ///
    /// `undo` is the multi-operation transaction layer's compensation
    /// mode: when a *later* operation of the same transaction restarts,
    /// this insert is compensated by structurally removing `x`, and that
    /// removal must never itself restart (the transaction would be left
    /// half-applied). [`InsertUndo::Prepare`] carries the inverse
    /// [`RemovePlan`] and makes the insert pre-acquire, *before its first
    /// write*, the only tokens the compensation could need beyond the
    /// insert's own set: the all-stripes tokens of edges whose removal
    /// covers a whole striped container instance, plus the target-side
    /// locks of speculative children. Single-shot operations pass
    /// [`InsertUndo::None`] — their writes are the final phase of the
    /// transaction, so no compensation can run. Compensation re-inserts
    /// pass [`InsertUndo::Compensation`], which still locks freshly
    /// materialized speculative targets before publishing them (see its
    /// docs for why rollback correctness depends on this).
    ///
    /// # Errors
    ///
    /// [`MustRestart`] on lock contention; the caller rolls back and
    /// retries.
    pub fn run_insert(
        &mut self,
        plan: &InsertPlan,
        x: &Tuple,
        s: &Tuple,
        root: &NodeRef,
        undo: InsertUndo<'_>,
    ) -> Result<bool, MustRestart> {
        // A scanning existence check reads whole container instances
        // unlocked; take every root stripe so no sibling-stripe writer can
        // race the scan (`InsertPlan::check_has_scan`).
        self.lock_root_batch(x, root, &|_| plan.check_has_scan)?;
        let mut order: Vec<NodeId> = self.decomp.nodes().map(|(id, _)| id).collect();
        order.sort_by_key(|&v| self.decomp.topo_position(v));
        self.insert_under_root_locks(plan, x, s, root, undo, &order, None)
    }

    /// The per-tuple body of [`Executor::run_insert`], entered with the
    /// tuple's root-hosted locks already held (by `run_insert`'s own root
    /// batch, or by [`Executor::run_insert_all`]'s bulk sweep).
    ///
    /// `topo_nodes` is the materialization order (all nodes, topologically
    /// sorted — batch plans cache it so it is not re-sorted per row). When
    /// `batch` is given, root-source edge publications are *deferred*: the
    /// completed child goes into the batch's pending map instead of the
    /// root container, and lookups consult that map, so later rows of the
    /// same batch still share subtrees. The caller flushes the map — in one
    /// fused [`relc_containers::Container::extend_entries`] call per
    /// container — before releasing any lock.
    #[allow(clippy::too_many_arguments)]
    fn insert_under_root_locks(
        &mut self,
        plan: &InsertPlan,
        x: &Tuple,
        s: &Tuple,
        root: &NodeRef,
        undo: InsertUndo<'_>,
        topo_nodes: &[NodeId],
        mut batch: Option<BatchInsertCtx<'_>>,
    ) -> Result<bool, MustRestart> {
        // Walk every edge in mutation order, locking non-root hosts and
        // recording bindings/presence along x's projections.
        let mut bindings: Vec<Option<NodeRef>> = vec![None; self.decomp.node_count()];
        bindings[self.decomp.root().index()] = Some(Arc::clone(root));
        let mut present = vec![false; self.decomp.edge_count()];
        for &e in &plan.edges {
            let em = self.decomp.edge(e);
            let ep = self.placement.edge(e);
            let host_bound = bindings[ep.host.index()].is_some();
            if ep.host != self.decomp.root() && host_bound {
                for tok in self.placement.fallback_tokens(e, x) {
                    let lock = {
                        let host_inst = bindings[ep.host.index()].as_ref().expect("bound");
                        Arc::clone(host_inst.lock(tok.stripe))
                    };
                    self.engine.acquire(tok, &lock, LockMode::Exclusive)?;
                }
            }
            // Traverse by x's projection (x is a full valuation).
            let Some(src_inst) = bindings[em.src.index()].clone() else {
                continue; // absent prefix: subtree will be created privately
            };
            let key = x.project(em.cols);
            let found = src_inst.container(self.decomp, e).lookup(&key).or_else(|| {
                // An earlier row of this batch may have created the edge
                // with its publication still pending.
                batch
                    .as_ref()
                    .filter(|ctx| ctx.defer[e.index()])
                    .and_then(|ctx| ctx.pending.get(&(e, key.clone())).cloned())
            });
            if let Some(child) = found {
                // Speculative edges: presence is frozen by the fallback
                // lock held exclusively, so no target lock or re-validation
                // is needed for the existence check.
                match &bindings[em.dst.index()] {
                    Some(prev) => debug_assert!(
                        Arc::ptr_eq(prev, &child),
                        "shared node reached with different instances"
                    ),
                    None => bindings[em.dst.index()] = Some(child),
                }
                present[e.index()] = true;
            }
        }

        // Existence check: does any tuple extend s? (Chain over dom s.)
        // When the chain's first step is a point lookup, the walk above
        // already answered it: the lookup key is `s`'s projection, which
        // coincides with `x`'s on columns bound by `s`, and the walk
        // evaluates every root-source edge definitively. An absent first
        // edge means no tuple extends `s` — the common case for fresh-key
        // inserts — so the chain traversal is skipped entirely.
        let exists = match plan.check.first() {
            Some(&(e1, MutTraverse::Lookup)) if !present[e1.index()] => false,
            _ => self.check_exists(&plan.check, s, &bindings),
        };
        if exists {
            return Ok(false);
        }

        // Pre-acquire the compensation tokens (see the doc comment): the
        // inverse removal's all-stripes edges on hosts that already exist,
        // plus the target-side locks of present speculative children —
        // the inverse removal acquires those, and it must find them
        // uncontended. Hosts we are about to create fresh are unreachable
        // to other transactions until published, so their locks cannot be
        // contended (they are taken below, after creation).
        if let InsertUndo::Prepare(inverse) | InsertUndo::PrepareFinal(inverse) = undo {
            let mut batch: Vec<(LockToken, Arc<relc_locks::PhysicalLock>)> = Vec::new();
            for (i, &(e, _)) in inverse.edges.iter().enumerate() {
                let ep = self.placement.edge(e);
                if ep.speculative && present[e.index()] {
                    let child = bindings[self.decomp.edge(e).dst.index()]
                        .as_ref()
                        .expect("present edge binds its target");
                    batch.push((
                        self.placement.target_token(e, child.key()),
                        Arc::clone(child.lock(0)),
                    ));
                }
                if !inverse.all_stripes[i] {
                    continue;
                }
                let Some(host_inst) = bindings[ep.host.index()].as_ref() else {
                    continue;
                };
                for tok in self.placement.all_stripe_tokens(e, x) {
                    let lock = Arc::clone(host_inst.lock(tok.stripe));
                    batch.push((tok, lock));
                }
            }
            self.acquire_sorted_batch(batch, LockMode::Exclusive)?;
        }

        // Materialize: create missing instances in topological order,
        // remembering which hosts pre-existed (those were locked during
        // the walk above; fresh ones were not).
        let mut prebound = vec![false; self.decomp.node_count()];
        for &v in topo_nodes {
            match &bindings[v.index()] {
                Some(_) => prebound[v.index()] = true,
                None => {
                    let key = x.project(self.decomp.node(v).key_cols);
                    bindings[v.index()] =
                        Some(NodeInstance::new(self.decomp, self.placement, v, key));
                }
            }
        }
        // Compensation tokens for *fresh* hosts: the walk only locks hosts
        // that already exist, so the lock sets of freshly materialized
        // instances would be published free. A single-shot insert never
        // needs them held, but a mid-transaction insert must pre-acquire
        // them: a later shared read of the same transaction (a query
        // through the new subtree) would otherwise hold them shared, and
        // the compensating unlink's exclusive acquisition would then be an
        // upgrade — which rollback must never hit. The instances are
        // unpublished here, so these try-acquisitions cannot fail.
        if matches!(undo, InsertUndo::Prepare(_)) {
            for &e in &plan.edges {
                let ep = self.placement.edge(e);
                if ep.host == self.decomp.root() || prebound[ep.host.index()] {
                    continue;
                }
                let host_inst = bindings[ep.host.index()].as_ref().expect("all bound");
                for tok in self.placement.all_stripe_tokens(e, x) {
                    let lock = Arc::clone(host_inst.lock(tok.stripe));
                    self.engine.acquire(tok, &lock, LockMode::Exclusive)?;
                }
            }
        }
        // Compensation tokens, part two: targets of speculative edges we
        // are about to write. Fresh instances are unpublished (always
        // uncontended); a shared pre-existing target can contend with a
        // speculative reader, which restarts us — still before any write.
        // This also runs for compensation re-inserts: a fresh target
        // published with its lock free would let speculative readers
        // dirty-read the rolled-back value and could make a later
        // compensating unlink of the same key restart (the engine's
        // shadowed-lock mechanism re-acquires the fresh object under the
        // already-held token, and an unpublished lock is uncontended, so
        // the acquisition here cannot itself fail).
        if !matches!(undo, InsertUndo::None) {
            for &e in &plan.edges {
                if present[e.index()] || !self.placement.edge(e).speculative {
                    continue;
                }
                let dst = bindings[self.decomp.edge(e).dst.index()]
                    .as_ref()
                    .expect("all bound");
                let tok = self.placement.target_token(e, dst.key());
                let lock = Arc::clone(dst.lock(0));
                self.engine.acquire(tok, &lock, LockMode::Exclusive)?;
            }
        }
        // Write the missing edges in *reverse* mutation order: subtrees
        // complete before the root-hosted edge publishes them. Locked
        // observers cannot look mid-flight, but §4.5 speculative readers
        // guess through unlocked lookups — they must never find a link to
        // a half-built instance.
        for &e in plan.edges.iter().rev() {
            if present[e.index()] {
                continue;
            }
            let em = self.decomp.edge(e);
            let src = bindings[em.src.index()]
                .as_ref()
                .expect("all bound")
                .clone();
            let dst = bindings[em.dst.index()]
                .as_ref()
                .expect("all bound")
                .clone();
            // Mirror the publication into the version index first: the
            // version stays tentative (invisible to snapshot readers)
            // until the commit stamp publishes, so mirror-then-write and
            // write-then-mirror are indistinguishable — and mirroring the
            // *deferred* branch here (rather than at the batch flush)
            // keeps one code path for both.
            self.mvcc_write(&src, e, x.project(em.cols), Some(Arc::clone(&dst)));
            if let Some(ctx) = batch.as_mut() {
                if ctx.defer[e.index()] {
                    // Defer the publication: the subtree below `dst` is
                    // complete (deeper edges were just written), so linking
                    // it in later — at the batch flush, still under every
                    // lock of this sweep — is indistinguishable to readers.
                    let prev = ctx
                        .pending
                        .insert((e, x.project(em.cols)), Arc::clone(&dst));
                    debug_assert!(prev.is_none(), "edge instance appeared under our locks");
                    continue;
                }
            }
            let prev = src
                .container(self.decomp, e)
                .write(&x.project(em.cols), Some(Arc::clone(&dst)));
            debug_assert!(prev.is_none(), "edge instance appeared under our locks");
        }
        Ok(true)
    }

    /// Sorts a precomputed sweep of root-lock tokens into the §5.1 global
    /// order, merges duplicate tokens by *joining* their modes (one
    /// physical lock requested shared by one row and exclusive by another
    /// collapses to a single exclusive acquisition up front — never
    /// shared-then-upgrade), and acquires the survivors in one pass.
    ///
    /// Every token names a root-hosted lock and root tokens precede all
    /// others in the global order, so when this runs as a transaction
    /// operation's first acquisition the whole sweep is in-order (blocking,
    /// never restarting on order violations).
    fn acquire_root_sweep(
        &mut self,
        mut sweep: Vec<(LockToken, LockMode)>,
        root: &NodeRef,
    ) -> Result<(), MustRestart> {
        sweep.sort_by(|a, b| a.0.cmp(&b.0));
        sweep.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                prev.1 = prev.1.join(next.1);
                true
            } else {
                false
            }
        });
        for (tok, mode) in sweep {
            let lock = Arc::clone(root.lock(tok.stripe));
            self.engine.acquire(tok, &lock, mode)?;
        }
        Ok(())
    }

    /// Runs a compiled batch-insert plan: row `i` inserts the full tuple
    /// `xs[i]` with existence pattern `rows[i].0` (the caller's validated
    /// originals; all rows bind the same column sets). The amortized form
    /// of one [`Executor::run_insert`] per row.
    ///
    /// Locking: every row's root-hosted lock tokens — including the
    /// all-stripes compensation tokens of the shared inverse plan — are
    /// precomputed, deduplicated, globally sorted, and acquired in **one
    /// in-order sweep** before the first row runs; the per-row passes then
    /// skip the root batch entirely. Root-source edge publications are
    /// deferred into a pending map and flushed at the end with one fused
    /// [`relc_containers::Container::extend_entries`] call per container,
    /// key-sorted so sorted containers insert along one in-order walk.
    ///
    /// Put-if-absent semantics are the sequential fold: a row whose `s`
    /// equals an earlier row's is `false` without re-running the check
    /// (under one batch all rows share `dom s`, so an earlier row's tuple
    /// extends a later `s` exactly when the patterns are equal).
    ///
    /// `results` receives one flag per processed row and `applied` the
    /// *indices* of the actually-inserted rows; both are filled *even on
    /// an error return* (the pending map is flushed first), so the
    /// transaction layer can compensate every applied row whatever
    /// happened mid-batch.
    ///
    /// `final_op` marks the batch as the last operation of a single-shot
    /// transaction (see [`InsertUndo::PrepareFinal`]): fresh subtree host
    /// locks are skipped, which is a large share of a load batch's
    /// per-row lock-engine traffic.
    ///
    /// # Errors
    ///
    /// [`MustRestart`] on lock contention; the caller rolls back (undoing
    /// the applied prefix) and retries.
    #[allow(clippy::too_many_arguments)]
    pub fn run_insert_all(
        &mut self,
        plan: &InsertBatchPlan,
        xs: &[Tuple],
        rows: &[(Tuple, Tuple)],
        root: &NodeRef,
        final_op: bool,
        results: &mut Vec<bool>,
        applied: &mut Vec<usize>,
    ) -> Result<(), MustRestart> {
        let mut tokens: Vec<LockToken> = Vec::new();
        for x in xs {
            for &(e, force_all) in &plan.root_hosted {
                if force_all {
                    self.placement.all_stripe_tokens_into(e, x, &mut tokens);
                } else {
                    self.placement.fallback_tokens_into(e, x, &mut tokens);
                }
            }
        }
        self.acquire_root_sweep(
            tokens
                .into_iter()
                .map(|t| (t, LockMode::Exclusive))
                .collect(),
            root,
        )?;

        let mut pending: HashMap<(EdgeId, Tuple), NodeRef, BuildFnv> = HashMap::default();
        let mut seen: HashSet<&Tuple, BuildFnv> = HashSet::default();
        let mut outcome = Ok(());
        for (i, x) in xs.iter().enumerate() {
            let s = &rows[i].0;
            if seen.contains(s) {
                // An earlier row claimed this pattern (whether it inserted
                // or found the tuple pre-existing): put-if-absent fails.
                results.push(false);
                continue;
            }
            let undo = if final_op {
                InsertUndo::PrepareFinal(&plan.inverse)
            } else {
                InsertUndo::Prepare(&plan.inverse)
            };
            let res = self.insert_under_root_locks(
                &plan.insert,
                x,
                s,
                root,
                undo,
                &plan.topo_nodes,
                Some(BatchInsertCtx {
                    defer: &plan.defer,
                    pending: &mut pending,
                }),
            );
            match res {
                Ok(inserted) => {
                    results.push(inserted);
                    seen.insert(s);
                    if inserted {
                        applied.push(i);
                    }
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        // Flush the deferred publications — also on the error path: the
        // applied rows' compensating unlinks (replayed by the transaction's
        // rollback, under these still-held locks) must find their tuples
        // fully linked.
        self.flush_pending_publications(pending, root);
        outcome
    }

    /// Publishes a batch's deferred root-source edges: one fused
    /// key-sorted [`relc_containers::Container::extend_entries`] call per
    /// edge container, under the still-held bulk sweep locks.
    fn flush_pending_publications(
        &self,
        pending: HashMap<(EdgeId, Tuple), NodeRef, BuildFnv>,
        root: &NodeRef,
    ) {
        if pending.is_empty() {
            return;
        }
        let mut by_edge: BTreeMap<EdgeId, Vec<(Tuple, NodeRef)>> = BTreeMap::new();
        for ((e, key), child) in pending {
            by_edge.entry(e).or_default().push((key, child));
        }
        for (e, mut entries) in by_edge {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let displaced = root.container(self.decomp, e).extend_entries(entries);
            debug_assert_eq!(displaced, 0, "edge instances appeared under our locks");
        }
    }

    /// Evaluates the existence-check chain over the recorded bindings: true
    /// iff some tuple extends `s`.
    fn check_exists(
        &self,
        check: &[(EdgeId, MutTraverse)],
        s: &Tuple,
        bindings: &[Option<NodeRef>],
    ) -> bool {
        // States: (pattern-so-far, instance). Lookup steps reuse the
        // bindings recorded by the mutation walk (their keys coincide with
        // s's projections); scan steps read the containers directly — their
        // whole container instance is covered by the held locks.
        let root = bindings[self.decomp.root().index()]
            .as_ref()
            .expect("root always bound");
        let mut states: Vec<(Tuple, NodeRef)> = vec![(s.clone(), Arc::clone(root))];
        for (e, kind) in check {
            let em = self.decomp.edge(*e);
            let mut next = Vec::new();
            match kind {
                MutTraverse::Lookup => {
                    for (t, inst) in &states {
                        let key = t.project(em.cols);
                        if let Some(child) = inst.container(self.decomp, *e).lookup(&key) {
                            next.push((t.clone(), child));
                        }
                    }
                }
                MutTraverse::Scan => {
                    for (t, inst) in &states {
                        inst.container(self.decomp, *e)
                            .scan(&mut |k: &Tuple, child: &NodeRef| {
                                if t.matches(k) {
                                    let merged = t.union(k).expect("matches implies mergeable");
                                    next.push((merged, Arc::clone(child)));
                                }
                                ControlFlow::Continue(())
                            });
                    }
                }
            }
            states = next;
            if states.is_empty() {
                return false;
            }
        }
        !states.is_empty()
    }

    /// Runs a compiled query plan as a short-circuiting existence check:
    /// `true` as soon as one state survives every step (the evaluator's
    /// depth-first order).
    ///
    /// # Errors
    ///
    /// [`MustRestart`] if lock acquisition or speculation failed; the
    /// caller rolls back and retries.
    pub fn run_exists(
        &mut self,
        plan: &Plan,
        pattern: &Tuple,
        root: &NodeRef,
    ) -> Result<bool, MustRestart> {
        let st = QueryState::initial(self.decomp, pattern.clone(), Arc::clone(root));
        eval_any(self.decomp, self, &plan.steps, st)
    }

    /// Runs the in-place update fast path: locates the unique tuple
    /// `u ⊇ s` along the plan's steps (locking path edges in read mode and
    /// touched edges exclusively), then swaps each touched edge's entry to
    /// the rewritten key/child — no unlink, no re-insert, no touching of
    /// any other edge. Returns the replaced tuple, or `None` if no tuple
    /// extends `s`.
    ///
    /// All lock acquisitions happen during the locate phase, strictly
    /// before the first container write; a [`MustRestart`] therefore never
    /// leaves a partial rewrite behind, and the write phase itself cannot
    /// fail. Affected sink instances are replaced by fresh instances keyed
    /// by the new valuation (one per sink node, shared across its touched
    /// edges, preserving the §4.1 sharing invariant).
    ///
    /// # Errors
    ///
    /// [`MustRestart`] on lock contention during the locate phase; the
    /// caller rolls back and retries. No writes have been applied at that
    /// point.
    pub fn run_update_in_place(
        &mut self,
        plan: &InPlaceUpdate,
        s: &Tuple,
        t: &Tuple,
        root: &NodeRef,
    ) -> Result<Option<Tuple>, MustRestart> {
        /// A locate candidate: the query state plus, per touched edge, the
        /// source instance and old entry key to rewrite if this candidate
        /// survives.
        struct Cand {
            st: QueryState,
            touched: Vec<(EdgeId, NodeRef, Tuple)>,
        }
        let mut cands = vec![Cand {
            st: QueryState::initial(self.decomp, s.clone(), Arc::clone(root)),
            touched: Vec::new(),
        }];
        for step in &plan.steps {
            let em = self.decomp.edge(step.edge);
            let ep = self.placement.edge(step.edge);
            if ep.speculative {
                // §4.5: self-locking lookup; the planner guarantees spec
                // steps are point lookups and never touched.
                debug_assert!(step.kind == MutTraverse::Lookup && !step.touched);
                // Pin the fallback root stripe *before* the target
                // protocol: unlocked existence checks exclude structural
                // writers by sweeping every root stripe (see
                // `InsertPlan::check_has_scan`), and the in-place rewrite
                // is such a writer even when the present path would let it
                // skip the root entirely.
                let mut batch: Vec<(LockToken, Arc<relc_locks::PhysicalLock>)> = Vec::new();
                for c in &cands {
                    let Some(host_inst) = c.st.nodes[ep.host.index()].clone() else {
                        continue;
                    };
                    for tok in self.placement.fallback_tokens(step.edge, &c.st.tuple) {
                        let lock = Arc::clone(host_inst.lock(tok.stripe));
                        batch.push((tok, lock));
                    }
                }
                self.acquire_sorted_batch(batch, step.mode)?;
                for mut c in std::mem::take(&mut cands) {
                    let key = c.st.tuple.project(em.cols);
                    if let Some(child) = self.follow(&c.st, step.edge, &key, Some(step.mode))? {
                        c.st.nodes[em.dst.index()] = Some(child);
                        cands.push(c);
                    }
                }
            } else {
                // Lock the step's tokens for every live candidate, one
                // sorted batch (as in `run_remove`).
                let mut batch: Vec<(LockToken, Arc<relc_locks::PhysicalLock>)> = Vec::new();
                for c in &cands {
                    let Some(host_inst) = c.st.nodes[ep.host.index()].clone() else {
                        continue;
                    };
                    let tokens = if step.all_stripes {
                        self.placement.all_stripe_tokens(step.edge, &c.st.tuple)
                    } else {
                        self.placement.fallback_tokens(step.edge, &c.st.tuple)
                    };
                    for tok in tokens {
                        let lock = Arc::clone(host_inst.lock(tok.stripe));
                        batch.push((tok, lock));
                    }
                }
                self.acquire_sorted_batch(batch, step.mode)?;
                let mut next = Vec::with_capacity(cands.len());
                for mut c in cands {
                    let Some(src_inst) = c.st.nodes[em.src.index()].clone() else {
                        continue; // prefix absent for this candidate
                    };
                    match step.kind {
                        MutTraverse::Lookup => {
                            let key = c.st.tuple.project(em.cols);
                            let Some(child) =
                                src_inst.container(self.decomp, step.edge).lookup(&key)
                            else {
                                continue;
                            };
                            merge_binding(&mut c.st.nodes, em.dst, child);
                            if step.touched {
                                c.touched.push((step.edge, src_inst, key));
                            }
                            next.push(c);
                        }
                        MutTraverse::Scan => {
                            src_inst.container(self.decomp, step.edge).scan(
                                &mut |k: &Tuple, child: &NodeRef| {
                                    if c.st.tuple.matches(k) {
                                        let mut cand = Cand {
                                            st: c.st.clone(),
                                            touched: c.touched.clone(),
                                        };
                                        cand.st.tuple =
                                            c.st.tuple.union(k).expect("matches implies mergeable");
                                        merge_binding(
                                            &mut cand.st.nodes,
                                            em.dst,
                                            Arc::clone(child),
                                        );
                                        if step.touched {
                                            cand.touched.push((
                                                step.edge,
                                                src_inst.clone(),
                                                k.clone(),
                                            ));
                                        }
                                        next.push(cand);
                                    }
                                    ControlFlow::Continue(())
                                },
                            );
                        }
                    }
                }
                cands = next;
            }
            if cands.is_empty() {
                return Ok(None); // no tuple matches s
            }
        }
        debug_assert!(
            cands.len() == 1,
            "s is a key: at most one candidate can survive the full traversal"
        );
        let survivor = cands.remove(0);
        let old = survivor.st.tuple;
        debug_assert!(
            old.is_valuation_for(self.decomp.schema().columns()),
            "the locate set binds every column (a touched edge reaches a sink)"
        );
        let new = old.override_with(t);

        // Write phase: swap each touched entry under the exclusive locks
        // taken above. One fresh instance per affected sink node, shared
        // across all of its (necessarily all-touched) incoming edges.
        let mut fresh: Vec<Option<NodeRef>> = vec![None; self.decomp.node_count()];
        for (e, src_inst, old_key) in &survivor.touched {
            let em = self.decomp.edge(*e);
            let inst = fresh[em.dst.index()]
                .get_or_insert_with(|| {
                    let key = new.project(self.decomp.node(em.dst).key_cols);
                    NodeInstance::new(self.decomp, self.placement, em.dst, key)
                })
                .clone();
            let new_key = new.project(em.cols);
            // Mirror as tombstone(old) + live(new); when the keys
            // coincide the two same-stamp pushes hit one cell and
            // collapse to the live version.
            self.mvcc_write(src_inst, *e, old_key.clone(), None);
            self.mvcc_write(src_inst, *e, new_key.clone(), Some(Arc::clone(&inst)));
            let prev = src_inst
                .container(self.decomp, *e)
                .update_entry(old_key, &new_key, inst);
            debug_assert!(prev.is_some(), "touched entry vanished under our locks");
        }
        Ok(Some(old))
    }

    /// Reverses an applied [`Executor::run_update_in_place`] during
    /// rollback: re-traverses the plan by the *new* tuple (every edge is a
    /// point lookup — the full valuation is known) and swaps each touched
    /// entry back to the old key and a fresh old-keyed sink instance.
    ///
    /// Runs strictly under the locks the forward pass acquired (still held
    /// by the transaction), performs **no** lock acquisition, and therefore
    /// can never restart — the property `Transaction::rollback_effects`
    /// relies on.
    ///
    /// # Panics
    ///
    /// Panics if the traversal does not find the new tuple's entries —
    /// that would mean the undo log is being replayed out of order (a
    /// transaction-layer bug).
    pub fn run_update_write_back(
        &mut self,
        plan: &InPlaceUpdate,
        old: &Tuple,
        new: &Tuple,
        root: &NodeRef,
    ) {
        let mut bindings: Vec<Option<NodeRef>> = vec![None; self.decomp.node_count()];
        bindings[self.decomp.root().index()] = Some(Arc::clone(root));
        let mut fresh: Vec<Option<NodeRef>> = vec![None; self.decomp.node_count()];
        for step in &plan.steps {
            let em = self.decomp.edge(step.edge);
            let src = bindings[em.src.index()]
                .clone()
                .expect("write-back: source bound by an earlier step");
            if step.touched {
                let inst = fresh[em.dst.index()]
                    .get_or_insert_with(|| {
                        let key = old.project(self.decomp.node(em.dst).key_cols);
                        NodeInstance::new(self.decomp, self.placement, em.dst, key)
                    })
                    .clone();
                self.mvcc_write(&src, step.edge, new.project(em.cols), None);
                self.mvcc_write(
                    &src,
                    step.edge,
                    old.project(em.cols),
                    Some(Arc::clone(&inst)),
                );
                let prev = src.container(self.decomp, step.edge).update_entry(
                    &new.project(em.cols),
                    &old.project(em.cols),
                    inst,
                );
                assert!(
                    prev.is_some(),
                    "in-place write-back: rewritten entry vanished under held locks"
                );
            } else {
                let child = src
                    .container(self.decomp, step.edge)
                    .lookup(&new.project(em.cols))
                    .expect("write-back: path entry vanished under held locks");
                merge_binding(&mut bindings, em.dst, child);
            }
        }
    }

    /// Runs a compiled remove plan for key pattern `s`. Returns the removed
    /// tuple, if one existed (§2; at most one, since `s` is a key).
    ///
    /// # Errors
    ///
    /// [`MustRestart`] on lock contention; the caller rolls back and
    /// retries.
    pub fn run_remove(
        &mut self,
        plan: &RemovePlan,
        s: &Tuple,
        root: &NodeRef,
    ) -> Result<Option<Tuple>, MustRestart> {
        self.lock_root_batch(s, root, &|e| {
            plan.edges
                .iter()
                .zip(&plan.all_stripes)
                .any(|(&(pe, _), &all)| pe == e && all)
        })?;
        let mut order: Vec<NodeId> = self.decomp.nodes().map(|(id, _)| id).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.decomp.topo_position(v)));
        self.remove_under_root_locks(plan, s, root, &order)
    }

    /// Runs a compiled batch-remove plan for `keys` (all binding the same
    /// column set): the amortized form of one [`Executor::run_remove`] per
    /// key. Every key's root-hosted tokens (with the plan's force-all
    /// analysis applied) are acquired in one globally sorted in-order
    /// sweep, then each key unlinks under the held set.
    ///
    /// `removed` receives each removed tuple as it is unlinked, tagged
    /// with the index of the key that matched it — filled even on an
    /// error return, so the transaction layer can compensate the applied
    /// prefix and report per-key outcomes. Duplicate keys in one batch
    /// behave as the sequential fold: the first occurrence removes, later
    /// ones find nothing.
    ///
    /// # Errors
    ///
    /// [`MustRestart`] on lock contention; the caller rolls back
    /// (re-inserting the removed prefix) and retries.
    pub fn run_remove_all(
        &mut self,
        plan: &RemoveBatchPlan,
        keys: &[Tuple],
        root: &NodeRef,
        removed: &mut Vec<(usize, Tuple)>,
    ) -> Result<(), MustRestart> {
        let mut tokens: Vec<LockToken> = Vec::new();
        for s in keys {
            for &(e, force_all) in &plan.root_hosted {
                if force_all {
                    self.placement.all_stripe_tokens_into(e, s, &mut tokens);
                } else {
                    self.placement.fallback_tokens_into(e, s, &mut tokens);
                }
            }
        }
        self.acquire_root_sweep(
            tokens
                .into_iter()
                .map(|t| (t, LockMode::Exclusive))
                .collect(),
            root,
        )?;
        for (i, s) in keys.iter().enumerate() {
            if let Some(t) =
                self.remove_under_root_locks(&plan.remove, s, root, &plan.reverse_topo_nodes)?
            {
                removed.push((i, t));
            }
        }
        Ok(())
    }

    /// The per-key body of [`Executor::run_remove`], entered with the
    /// key's root-hosted locks already held (by `run_remove`'s own root
    /// batch, or by [`Executor::run_remove_all`]'s bulk sweep).
    /// `reverse_topo_nodes` is the bottom-up unlink order (batch plans
    /// cache it so it is not re-sorted per key).
    fn remove_under_root_locks(
        &mut self,
        plan: &RemovePlan,
        s: &Tuple,
        root: &NodeRef,
        reverse_topo_nodes: &[NodeId],
    ) -> Result<Option<Tuple>, MustRestart> {
        // Multi-state traversal: a scan over an edge whose columns are not
        // bound by `s` (e.g. a by-cpu index when removing by pid) yields
        // several *candidate* states; deeper edges filter them. Since `s`
        // is a key, at most one candidate survives the full traversal.
        let mut states = vec![QueryState::initial(
            self.decomp,
            s.clone(),
            Arc::clone(root),
        )];
        for (i, &(e, kind)) in plan.edges.iter().enumerate() {
            let em = self.decomp.edge(e);
            let ep = self.placement.edge(e);
            // Lock (non-root hosts; the root batch covered the rest), one
            // sorted batch across all candidate states.
            if ep.host != self.decomp.root() {
                let mut batch: Vec<(LockToken, Arc<relc_locks::PhysicalLock>)> = Vec::new();
                for st in &states {
                    let Some(host_inst) = st.nodes[ep.host.index()].clone() else {
                        continue;
                    };
                    let tokens = if plan.all_stripes[i] {
                        self.placement.all_stripe_tokens(e, &st.tuple)
                    } else {
                        self.placement.fallback_tokens(e, &st.tuple)
                    };
                    for tok in tokens {
                        let lock = Arc::clone(host_inst.lock(tok.stripe));
                        batch.push((tok, lock));
                    }
                }
                self.acquire_sorted_batch(batch, LockMode::Exclusive)?;
            }
            let mut next = Vec::with_capacity(states.len());
            for st in states {
                let Some(src_inst) = st.nodes[em.src.index()].clone() else {
                    continue; // prefix absent for this candidate
                };
                let container = src_inst.container(self.decomp, e);
                match kind {
                    MutTraverse::Lookup => {
                        let key = st.tuple.project(em.cols);
                        if let Some(child) = container.lookup(&key) {
                            if ep.speculative {
                                // Exclude readers holding the target-side
                                // lock; presence is already frozen by the
                                // fallback lock from the root batch.
                                let tok = self.placement.target_token(e, child.key());
                                let lock = Arc::clone(child.lock(0));
                                self.engine.acquire(tok, &lock, LockMode::Exclusive)?;
                            }
                            let mut st = st;
                            merge_binding(&mut st.nodes, em.dst, child);
                            next.push(st);
                        }
                    }
                    MutTraverse::Scan => {
                        container.scan(&mut |k: &Tuple, child: &NodeRef| {
                            if st.tuple.matches(k) {
                                let mut cand = st.clone();
                                cand.tuple = st.tuple.union(k).expect("matches implies mergeable");
                                merge_binding(&mut cand.nodes, em.dst, Arc::clone(child));
                                next.push(cand);
                            }
                            ControlFlow::Continue(())
                        });
                    }
                }
            }
            states = next;
            if states.is_empty() {
                return Ok(None); // no tuple matches s
            }
        }
        debug_assert!(
            states.len() == 1,
            "s is a key: at most one candidate can survive the full traversal"
        );
        let survivor = states.remove(0);
        let tuple = survivor.tuple;
        let bindings = survivor.nodes;

        // All edges present: unlink bottom-up. A node dies when all its
        // containers become empty; dying children are removed from every
        // parent container.
        let mut dies = vec![false; self.decomp.node_count()];
        for &v in reverse_topo_nodes {
            let meta = self.decomp.node(v);
            let inst = bindings[v.index()].as_ref().expect("all bound").clone();
            if meta.outgoing.is_empty() {
                dies[v.index()] = true;
                continue;
            }
            for &e in &meta.outgoing {
                let em = self.decomp.edge(e);
                if dies[em.dst.index()] {
                    self.mvcc_write(&inst, e, tuple.project(em.cols), None);
                    let prev = inst
                        .container(self.decomp, e)
                        .write(&tuple.project(em.cols), None);
                    debug_assert!(prev.is_some(), "edge vanished under our locks");
                }
            }
            dies[v.index()] = v != self.decomp.root() && inst.is_exhausted();
        }
        Ok(Some(tuple))
    }
}

fn merge_binding(bindings: &mut [Option<NodeRef>], node: NodeId, child: NodeRef) {
    match &bindings[node.index()] {
        Some(prev) => debug_assert!(
            Arc::ptr_eq(prev, &child),
            "shared node reached with different instances"
        ),
        None => bindings[node.index()] = Some(child),
    }
}

impl std::fmt::Debug for Executor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("placement", &self.placement.name())
            .field("always_sort_locks", &self.always_sort_locks)
            .finish()
    }
}
