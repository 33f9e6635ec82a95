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
//! Plans are not interpreted here: the query language has one evaluator
//! ([`crate::query`]), and the executor is its *locked edge view* — it
//! answers each step's "take these locks", "follow this key" (including
//! the §4.5 speculative protocol) and "walk these entries" against each
//! edge's newest state, the head versions of its version index
//! ([`NodeInstance::lookup`], [`NodeInstance::scan`]). Every write goes
//! through `MvccScope::write`: one version push, which is the whole write.
//! A mutation locates what it writes with a plan of the
//! same language (§5.2) — a remove's and an in-place update's locate
//! plan, an insert's existence check — and the executor keeps only what
//! no plan expresses: the root lock sweep, the insert's full-tuple walk,
//! and the write phases (materialize and publish, unlink, rewrite).
//!
//! An insert or remove runs over N ≥ 1 rows: one root sweep over every
//! row's tokens, then the single-row body per row, publishing as it goes.
//!
//! The executor runs a relation's *lowered* plans ([`crate::lower`]): a
//! fused edge's entry holds its target's dependent columns, so an insert
//! writes that row instead of materializing the target and its leaves, a
//! remove drops the entry with its row, and an in-place update of a
//! dependent column is one version push on the fused entry.

use std::ops::{Bound, ControlFlow};
use std::sync::Arc;

use relc_containers::epoch::Guard;
use relc_locks::{LockMode, MustRestart, PhysicalLock, TwoPhaseEngine};
use relc_spec::{ColumnSet, RangePattern, Tuple};

use crate::decomp::{Decomposition, EdgeId, NodeId};
use crate::instance::{Child, NodeInstance, NodeRef};
use crate::lower::Fusion;
use crate::mvcc::MvccScope;
use crate::placement::{LockPlacement, LockToken};
use crate::planner::{InPlaceUpdate, InsertPlan, Plan, Planner, RemovePlan};
use crate::query::{bind, eval_all, eval_any, eval_rows, EdgeView, Entry, Frame, KeyBounds, Row};

/// Executes compiled plans for one transaction at a time.
pub struct Executor<'a> {
    decomp: &'a Decomposition,
    /// The lowered placement the plans were compiled against.
    placement: &'a LockPlacement,
    /// Which edges' entries hold their target's dependent columns.
    fusion: &'a Fusion,
    engine: &'a mut TwoPhaseEngine<LockToken>,
    /// Ablation knob: ignore the planner's sort-elision analysis and always
    /// sort lock sets at runtime (§5.2).
    pub always_sort_locks: bool,
    /// MVCC state of the current attempt: the shared commit stamp and the
    /// journal of writes (see [`crate::mvcc`]).
    mvcc: MvccScope,
}

/// The locked edge view: a step's locks are really taken (through the
/// two-phase engine, which holds them to commit) and edges are read as
/// their writers left them — the index's newest versions, tentative ones
/// included, which those locks make safe to read. A row holds
/// each node instance by a counted [`NodeRef`]: a locate's survivor keeps
/// them for its write phase, which may unlink what it located.
impl EdgeView for Executor<'_> {
    type Node = NodeRef;
    type Row = Tuple;
    type Restart = MustRestart;

    /// The batch is every row's tokens, each computed from the row's slots,
    /// paired with the lock it names at the row's host instance.
    fn lock(
        &mut self,
        rows: &Frame<NodeRef>,
        bound: ColumnSet,
        edge: EdgeId,
        mode: LockMode,
        presorted: bool,
        all_stripes: bool,
    ) -> Result<(), MustRestart> {
        let host = self.placement.edge(edge).host;
        let mut tokens = Vec::new();
        let mut batch: Vec<(LockToken, &Arc<PhysicalLock>)> = Vec::with_capacity(rows.len());
        for row in rows.rows(bound) {
            let inst = row.instance(host);
            self.placement
                .tokens_into(edge, &row, all_stripes, &mut tokens);
            batch.extend(tokens.drain(..).map(|tok| {
                let lock = inst.lock(tok.stripe);
                (tok, lock)
            }));
        }
        if presorted && !self.always_sort_locks {
            debug_assert!(
                batch.windows(2).all(|w| w[0].0 <= w[1].0),
                "planner sort-elision analysis was wrong"
            );
        } else {
            batch.sort_by(|a, b| a.0.cmp(&b.0));
        }
        for (tok, lock) in batch {
            self.engine.acquire(tok, lock, mode)?;
        }
        Ok(())
    }

    /// A plain step is a container lookup. A §4.5 speculative step guesses
    /// with an unlocked (linearizable) lookup, locks the target if present
    /// or the fallback stripe if absent, re-validates, and restarts the
    /// transaction on a wrong guess — `None` is then a *verified* absence.
    fn follow(
        &mut self,
        row: Row<'_, NodeRef>,
        edge: EdgeId,
        key: &Tuple,
        spec: Option<LockMode>,
    ) -> Result<Option<Entry<NodeRef, Tuple>>, MustRestart> {
        let src = row.instance(self.decomp.edge(edge).src);
        let lookup = || src.lookup(self.decomp, edge, key);
        let Some(mode) = spec else {
            return Ok(lookup().map(|child| match child {
                Child::Node(node) => Entry::Node(node),
                Child::Row(row) => Entry::Row(row),
            }));
        };
        // A speculative edge is never fused: its target holds its lock.
        let present = |child: Child| {
            child
                .node()
                .cloned()
                .expect("a speculative edge is unfused")
        };
        match lookup().map(present) {
            Some(child) => {
                // Guess: present. Lock the target instance, then verify
                // that the edge still points at the same object.
                let tok = self.placement.target_token(edge, child.key());
                self.engine.acquire(tok, child.lock(0), mode)?;
                match lookup().map(present) {
                    Some(now) if Arc::ptr_eq(&now, &child) => Ok(Some(Entry::Node(child))),
                    _ => Err(self.engine.fail_speculation()),
                }
            }
            None => {
                // Guess: absent. Lock the fallback stripe(s) at the
                // source, then verify the edge is still absent.
                let mut tokens = Vec::new();
                self.placement.tokens_into(edge, &row, false, &mut tokens);
                for tok in tokens {
                    let stripe = tok.stripe;
                    self.engine.acquire(tok, src.lock(stripe), mode)?;
                }
                match lookup() {
                    Some(_) => Err(self.engine.fail_speculation()),
                    None => Ok(None),
                }
            }
        }
    }

    /// On sorted edges a bounded walk visits only the interval, in
    /// ascending key order; elsewhere it is a filtered full scan
    /// ([`NodeInstance::scan`]).
    fn walk(
        &mut self,
        src: &NodeRef,
        edge: EdgeId,
        bounds: Option<&KeyBounds>,
        mut f: impl FnMut(&mut Self, &Tuple, Entry<&NodeRef, &Tuple>) -> ControlFlow<()>,
    ) {
        let (lo, hi) = match bounds {
            Some((lo, hi)) => (lo.as_ref(), hi.as_ref()),
            None => (Bound::Unbounded, Bound::Unbounded),
        };
        src.scan(self.decomp, edge, lo, hi, &mut |k, child| match child {
            Child::Node(node) => f(self, k, Entry::Node(node)),
            Child::Row(row) => f(self, k, Entry::Row(row)),
        });
    }
}

/// The one survivor of a mutation's locate plan, materialized for the
/// write phase: the stored tuple extending the key pattern, and the node
/// instances it is stored under.
struct Located {
    tuple: Tuple,
    nodes: Vec<Option<NodeRef>>,
}

impl Located {
    /// The instance of `node` the tuple is stored under.
    fn instance(&self, node: NodeId) -> &NodeRef {
        self.nodes[node.index()]
            .as_ref()
            .expect("the locate plan binds every node")
    }
}

/// One epoch pin for a whole operation of the locked view. The version
/// indexes it reads — every edge that is its index alone is read there,
/// under the edge's locks — pin again for each lookup and scan, which
/// inside this pin only counts a thread-local depth instead of publishing
/// the thread's epoch once per read.
fn pin_operation() -> Guard {
    relc_containers::epoch::pin()
}

impl<'a> Executor<'a> {
    /// Creates an executor for the plans of `planner` — a relation's
    /// lowered planner ([`Planner::lowered`]), whose placement and fusion
    /// the plans were compiled against — borrowing the transaction's lock
    /// engine.
    pub fn new(planner: &'a Planner, engine: &'a mut TwoPhaseEngine<LockToken>) -> Self {
        Executor {
            decomp: planner.decomposition(),
            placement: planner.placement(),
            fusion: planner.fusion(),
            engine,
            always_sort_locks: false,
            mvcc: MvccScope::default(),
        }
    }

    /// The attempt's MVCC state; the commit path stamps and retires it
    /// before the engine releases any lock.
    pub(crate) fn mvcc(&self) -> &MvccScope {
        &self.mvcc
    }

    /// Takes back every write of the attempt ([`MvccScope::roll_back`]).
    pub(crate) fn roll_back(&mut self) {
        self.mvcc.roll_back(self.decomp);
    }

    /// The borrowed lock engine (the commit/rollback paths release it).
    pub(crate) fn engine(&mut self) -> &mut TwoPhaseEngine<LockToken> {
        self.engine
    }

    /// Pre-seeds the attempt's commit stamp (a transaction spanning
    /// instances shares one stamp across every instance's executor).
    pub(crate) fn set_mvcc_stamp(&mut self, stamp: Arc<relc_locks::CommitStamp>) {
        self.mvcc.set_stamp(stamp);
    }

    /// The attempt's commit stamp, created on first use.
    pub(crate) fn mvcc_stamp(&mut self) -> Arc<relc_locks::CommitStamp> {
        self.mvcc.stamp()
    }

    /// Writes entry `key` of `host`'s edge `edge` and returns whether it
    /// was present ([`MvccScope::write`]). Called at every site that
    /// mutates an edge, under the entry's exclusive locks.
    fn write(&mut self, host: &NodeRef, edge: EdgeId, key: Tuple, value: Option<Child>) -> bool {
        let guard = relc_containers::epoch::pin();
        self.mvcc.write(self.decomp, host, edge, key, value, &guard)
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
        let _pinned = pin_operation();
        eval_all(self.decomp, self, plan, pattern, None, Arc::clone(root))
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
        let _pinned = pin_operation();
        eval_all(
            self.decomp,
            self,
            plan,
            pattern,
            Some(range),
            Arc::clone(root),
        )
    }

    /// Acquires the migration write fence: every stripe of every
    /// root-hosted edge, exclusively — the all-stripe sweep scanning
    /// removals use, widened to the whole root.
    ///
    /// Every locked operation holds at least one root-hosted lock for its
    /// full two-phase scope: mutations take their root sweep
    /// ([`Executor::acquire_root_sweep`]), locked reads traverse from the
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
        let hosted: Vec<(EdgeId, bool)> = (self.decomp.edges())
            .filter(|&(e, _)| self.placement.edge(e).host == self.decomp.root())
            .map(|(e, _)| (e, true))
            .collect();
        // The root's key columns are empty, so the empty tuple is a valid
        // instance bound for every root-hosted token.
        self.acquire_root_sweep(&hosted, [&Tuple::empty()], root)
    }

    /// Runs a compiled insert plan over `rows` — each a full tuple
    /// `x = s ∪ t` and its pattern `s`, all binding the same column sets —
    /// and sets `inserted[i]` to whether row `i` was inserted
    /// (put-if-absent, §2): one root sweep over every row's tokens, then
    /// the single-row body per row, which publishes as it goes. A row whose
    /// pattern an earlier row claimed finds that row's tuple like any other
    /// lookup would.
    ///
    /// Every lock a row needs is taken before its first write, so a
    /// [`MustRestart`] leaves nothing of that row behind; what the attempt
    /// wrote before it is taken back from the write journal, under the
    /// locks the attempt still holds (see `mvcc.rs`, *Rollback*). One
    /// isolation rule remains with the caller: `hold_published_targets`
    /// says more writes follow — later rows or operations, any of which can
    /// still restart and roll these rows back. Each row then takes the
    /// target-side lock of every §4.5 speculative child it publishes
    /// *before* publishing it: published with its lock free, a speculative
    /// reader could read a row that may yet be rolled back. Only the final
    /// write of a single-shot operation, one row, passes `false`.
    ///
    /// # Errors
    ///
    /// [`MustRestart`] on lock contention; the caller rolls back and
    /// retries.
    pub fn run_insert(
        &mut self,
        plan: &InsertPlan,
        rows: &[(&Tuple, &Tuple)],
        root: &NodeRef,
        hold_published_targets: bool,
        inserted: &mut [bool],
    ) -> Result<(), MustRestart> {
        let _pinned = pin_operation();
        debug_assert_eq!(rows.len(), inserted.len());
        debug_assert!(
            hold_published_targets || rows.len() == 1,
            "a later row can roll an earlier one back"
        );
        // Root-hosted edges include all speculative fallbacks, which
        // freezes the presence of speculative edges for the rest of the
        // transaction.
        self.acquire_root_sweep(&plan.root_hosted, rows.iter().map(|&(x, _)| x), root)?;
        for (&(x, s), out) in rows.iter().zip(inserted) {
            *out = self.insert_under_root_locks(plan, x, s, root, hold_published_targets)?;
        }
        Ok(())
    }

    /// The per-row body of [`Executor::run_insert`], entered with the
    /// row's root-hosted locks already held by its root sweep.
    fn insert_under_root_locks(
        &mut self,
        plan: &InsertPlan,
        x: &Tuple,
        s: &Tuple,
        root: &NodeRef,
        hold_published_targets: bool,
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
            if let Some(child) = src_inst.lookup(self.decomp, e, &key) {
                // Speculative edges: presence is frozen by the fallback
                // lock held exclusively, so no target lock or re-validation
                // is needed for the existence check. A fused entry binds no
                // instance: its target is never materialized.
                if let Child::Node(child) = child {
                    bind(&mut bindings, em.dst, child);
                }
                present[e.index()] = true;
            }
        }

        // Existence check: does any tuple extend s? The walk above often
        // already answered it (`InsertPlan::answer_from_walk`): an absent
        // first edge of the check means no tuple extends `s` — the common
        // case for fresh-key inserts — and a check of lookups keyed by
        // `s`'s columns that the walk found all of means one does — the
        // common case for inserting a present key. Otherwise it runs
        // unlocked: the sweep and the walk's exclusive locks exclude every
        // writer of what it reads.
        let exists = match plan.answer_from_walk(&present) {
            Some(exists) => exists,
            None => self.run_exists(&plan.check, s, root)?,
        };
        if exists {
            return Ok(false);
        }

        // Materialize: create missing instances in topological order (the
        // lowered plan lists no node that fusion leaves uninstantiated).
        for &v in &plan.topo_nodes {
            if bindings[v.index()].is_none() {
                let key = x.project(self.decomp.node(v).key_cols);
                bindings[v.index()] = Some(NodeInstance::new(self.decomp, self.placement, v, key));
            }
        }
        // The isolation rule (see `run_insert`): targets of the speculative
        // edges about to be written. A fresh instance is unpublished, so
        // its lock is uncontended; a shared pre-existing target can contend
        // with a speculative reader, which restarts us — still before any
        // write.
        if hold_published_targets {
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
            let child = if self.fusion.is_fused(e) {
                Child::Row(x.project(self.fusion.payload(e)))
            } else {
                Child::Node(bindings[em.dst.index()].clone().expect("all bound"))
            };
            // The version stays tentative (invisible to snapshot readers)
            // until the commit stamp publishes.
            let was = self.write(&src, e, x.project(em.cols), Some(child));
            debug_assert!(!was, "edge instance appeared under our locks");
        }
        Ok(true)
    }

    /// The root lock sweep of a mutation: for every tuple of `bounds`
    /// (insert: the full tuples; remove: the key patterns), the fallback
    /// tokens of each root-hosted edge in `hosted` — every stripe where the
    /// edge's flag says so — sorted into the §5.1 global order,
    /// deduplicated, and acquired exclusively in one pass.
    ///
    /// Every token names a root-hosted lock and root tokens precede all
    /// others in the global order, so when this runs as a transaction
    /// operation's first acquisition the whole sweep is in-order (blocking,
    /// never restarting on order violations).
    fn acquire_root_sweep<'b>(
        &mut self,
        hosted: &[(EdgeId, bool)],
        bounds: impl IntoIterator<Item = &'b Tuple>,
        root: &NodeRef,
    ) -> Result<(), MustRestart> {
        let mut sweep: Vec<LockToken> = Vec::new();
        for bound in bounds {
            for &(e, all_stripes) in hosted {
                if all_stripes {
                    self.placement.all_stripe_tokens_into(e, bound, &mut sweep);
                } else {
                    self.placement.fallback_tokens_into(e, bound, &mut sweep);
                }
            }
        }
        sweep.sort();
        sweep.dedup();
        for tok in sweep {
            let lock = Arc::clone(root.lock(tok.stripe));
            self.engine.acquire(tok, &lock, LockMode::Exclusive)?;
        }
        Ok(())
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
        let _pinned = pin_operation();
        eval_any(self.decomp, self, plan, pattern, Arc::clone(root))
    }

    /// Runs a mutation's locate plan for key pattern `s` and returns its
    /// survivor: the stored tuple extending `s`, with the node instances
    /// it is stored under, or `None` if no tuple extends `s`. A scan over
    /// an edge whose columns `s` does not bind (a by-cpu index when
    /// removing by pid) yields several candidate states, which deeper
    /// edges filter; since `s` is a key, at most one survives.
    fn locate(
        &mut self,
        plan: &Plan,
        s: &Tuple,
        root: &NodeRef,
    ) -> Result<Option<Located>, MustRestart> {
        let (survivors, bound) = eval_rows(self.decomp, self, plan, None, s, Arc::clone(root))?;
        debug_assert!(
            survivors.len() <= 1,
            "s is a key: at most one candidate can survive the full traversal"
        );
        Ok(survivors
            .into_first(bound)
            .map(|(tuple, nodes)| Located { tuple, nodes }))
    }

    /// Runs the in-place update fast path: locates the unique tuple
    /// `u ⊇ s` with the plan's locate plan (locking path edges in read
    /// mode and touched edges exclusively), then swaps each touched edge's
    /// entry to the rewritten key/child — no unlink, no re-insert, no
    /// touching of any other edge. Returns the replaced tuple, or `None` if
    /// no tuple extends `s`.
    ///
    /// All lock acquisitions happen during the locate phase, strictly
    /// before the first container write; a [`MustRestart`] therefore never
    /// leaves a partial rewrite behind, and the write phase itself cannot
    /// fail. A touched fused edge keeps its entry's key and takes the new
    /// dependent columns: one version push. Elsewhere affected sink
    /// instances are replaced by fresh instances keyed by the new valuation
    /// (one per sink node, shared across its touched edges, preserving the
    /// §4.1 sharing invariant).
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
        let _pinned = pin_operation();
        let Some(survivor) = self.locate(&plan.locate, s, root)? else {
            return Ok(None); // no tuple matches s
        };
        let old = &survivor.tuple;
        debug_assert!(
            old.is_valuation_for(self.decomp.schema().columns()),
            "the locate plan binds every column (a touched edge reaches a sink)"
        );
        let new = old.override_with(t);

        // Write phase: swap each touched entry — at the survivor's
        // instance of the edge's source, keyed by the old tuple — under the
        // exclusive locks the locate plan took. One fresh instance per
        // affected sink node, shared across all of its (necessarily
        // all-touched) incoming edges.
        let mut fresh: Vec<Option<NodeRef>> = vec![None; self.decomp.node_count()];
        for &e in &plan.touched {
            let em = self.decomp.edge(e);
            let src_inst = survivor.instance(em.src);
            let (old_key, new_key) = (old.project(em.cols), new.project(em.cols));
            if self.fusion.is_fused(e) {
                // The key is the fused target's key, which an in-place
                // update never assigns: the entry stays, its row changes.
                debug_assert_eq!(old_key, new_key, "an in-place update keeps a fused key");
                let row = Child::Row(new.project(self.fusion.payload(e)));
                let was = self.write(src_inst, e, new_key, Some(row));
                debug_assert!(was, "touched entry vanished under our locks");
                continue;
            }
            let inst = fresh[em.dst.index()]
                .get_or_insert_with(|| {
                    let key = new.project(self.decomp.node(em.dst).key_cols);
                    NodeInstance::new(self.decomp, self.placement, em.dst, key)
                })
                .clone();
            // Versioned as tombstone(old) + live(new); when the keys
            // coincide the two same-stamp pushes hit one cell and
            // collapse to the live version.
            let guard = relc_containers::epoch::pin();
            let (decomp, child) = (self.decomp, Child::Node(inst));
            let was = self
                .mvcc
                .move_entry(decomp, src_inst, e, (old_key, new_key), child, &guard);
            debug_assert!(was, "touched entry vanished under our locks");
        }
        Ok(Some(survivor.tuple))
    }

    /// Runs a compiled remove plan over `keys` (all binding the same
    /// column set) and sets `removed[i]` to the tuple key `i` removed, if
    /// one existed (§2; at most one, since a key pattern is a key). Every
    /// key's root-hosted tokens are taken in one sorted sweep, then each
    /// key unlinks under the held set; duplicate keys behave as the
    /// sequential fold — the first occurrence removes, later ones find
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`MustRestart`] on lock contention, with some keys possibly
    /// unlinked; the caller rolls the attempt back and retries.
    pub fn run_remove(
        &mut self,
        plan: &RemovePlan,
        keys: &[Tuple],
        root: &NodeRef,
        removed: &mut [Option<Tuple>],
    ) -> Result<(), MustRestart> {
        let _pinned = pin_operation();
        debug_assert_eq!(keys.len(), removed.len());
        self.acquire_root_sweep(&plan.root_hosted, keys, root)?;
        for (s, out) in keys.iter().zip(removed) {
            *out = self.remove_under_root_locks(plan, s, root)?;
        }
        Ok(())
    }

    /// The per-key body of [`Executor::run_remove`], entered with the
    /// key's root-hosted locks already held by its root sweep.
    fn remove_under_root_locks(
        &mut self,
        plan: &RemovePlan,
        s: &Tuple,
        root: &NodeRef,
    ) -> Result<Option<Tuple>, MustRestart> {
        let Some(survivor) = self.locate(&plan.locate, s, root)? else {
            return Ok(None); // no tuple matches s
        };
        let Located {
            tuple,
            nodes: bindings,
        } = survivor;

        // All edges present: unlink bottom-up. A node dies when all its
        // containers become empty; dying children are removed from every
        // parent container. A fused entry goes with its tuple (the lowered
        // plan lists no node that fusion leaves uninstantiated).
        let mut dies = vec![false; self.decomp.node_count()];
        for &v in &plan.reverse_topo_nodes {
            let meta = self.decomp.node(v);
            let inst = bindings[v.index()].as_ref().expect("all bound").clone();
            if meta.outgoing.is_empty() {
                dies[v.index()] = true;
                continue;
            }
            for &e in &meta.outgoing {
                let em = self.decomp.edge(e);
                if self.fusion.is_fused(e) || dies[em.dst.index()] {
                    let was = self.write(&inst, e, tuple.project(em.cols), None);
                    debug_assert!(was, "edge vanished under our locks");
                }
            }
            dies[v.index()] = v != self.decomp.root() && inst.is_exhausted();
        }
        Ok(Some(tuple))
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
