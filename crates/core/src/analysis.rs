//! Static lock-discipline analysis over compiled plans (§4.3/§5.1).
//!
//! The [`Analyzer`] symbolically executes every plan shape the planner can
//! emit — query chains, existence checks, insert, remove, in-place and
//! general updates, `insert_all`/`remove_all` batch sweeps — against a
//! `(Decomposition, LockPlacement)` pair, tracking an abstract held-lock
//! set in [`LockToken`](crate::placement::LockToken) space, and verifies:
//!
//! * **Coverage/domination** — every edge read is dominated by a
//!   shared-or-stronger hold of the physical locks implementing its
//!   logical lock, and every container mutation by an exclusive hold,
//!   modeling striped placements (unbound stripe columns ⇒ all-`k`
//!   acquisition, §4.4) and speculative target-vs-fallback locking
//!   (§4.5). Unlocked reads (the insert existence check) are justified by
//!   *exclusion*: on every root→source path some edge's lock set is held
//!   exclusively in full, so no conflicting transaction can reach the
//!   instance being read.
//! * **Ordering** — acquisitions at blocking sites are monotone in the
//!   §5.1 `(node position, instance key, stripe)` order; batch sweeps are
//!   globally sorted; the sharded extension is lexicographic over
//!   `(shard, token)`.
//! * **No shared→exclusive upgrade** — the planner's mode-promotion pass
//!   promoted every lock that a later step needs exclusively, so no
//!   execution is forced into an upgrade, which restarts whenever another
//!   reader shares the lock.
//! * **MVCC write-side completeness** — every plan step that mutates an
//!   edge pushes a version: beside the container write where the edge
//!   keeps a container, so no version chain can silently go stale; as the
//!   write itself, one site, where the edge is its version index alone.
//!
//! The plans checked are the ones a relation runs: the lowered plans of
//! [`Planner::lowered`], against the lowered placement, where a fused
//! tail's lock is its parent edge's and a write of the tail's columns is a
//! write of the parent's entry ([`crate::lower`]). The structural
//! placement checks read the logical placement, which lowering keeps
//! well-formed.
//!
//! The symbolic domain replaces runtime tuples with *origins*: a column is
//! bound either by an operand (`Origin::Operand(row)`) or by a scan fanout
//! (`Origin::Scanned(id)`, one fresh id per scan step). Two abstract
//! instances with equal origin vectors denote the same runtime instance;
//! unequal vectors denote instances whose key order is statically unknown.
//! Token comparison is therefore *partial* — the engine model only flags
//! an ordering violation when a pair is provably inverted at a site the
//! executor expects to be in order (unknown pairs fall back to the
//! engine's try-and-restart rule, which is deadlock-free by design).
//!
//! [`AnalyzerOptions`] can seed deliberate discipline violations (skip the
//! sweep sort, undo mode promotion, drop a version push, publish a
//! speculative child without its lock, fuse a node without moving its
//! tail's lock); together
//! with [`PlacementBuilder::build_unchecked`](crate::placement::PlacementBuilder::build_unchecked)
//! (non-dominating hosts) these drive the rejection battery that proves
//! the analyzer flags each violation class with a step-level diagnostic.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use relc_locks::LockMode;
use relc_spec::{ColumnId, ColumnSet};

use crate::decomp::{Decomposition, EdgeId, NodeId};
use crate::error::CoreError;
use crate::instance::VersionIndex;
use crate::lower::Fusion;
use crate::placement::LockPlacement;
use crate::planner::{InPlaceUpdate, InsertPlan, Plan, Planner, RemovePlan, UpdatePlan};
use crate::query::PlanStep;

/// Where a column's symbolic value came from.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
enum Origin {
    /// Bound by the operation's pattern/tuple; the index distinguishes
    /// operand namespaces (batch rows, or an update's `t` tuple).
    Operand(u8),
    /// Bound by a scan fanout; each scan step mints a fresh id, so equal
    /// ids mean "the same unknown entry" within one symbolic execution.
    Scanned(u32),
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Operand(0) => write!(f, "∗"),
            Origin::Operand(r) => write!(f, "∗{r}"),
            Origin::Scanned(i) => write!(f, "scan#{i}"),
        }
    }
}

/// An abstract node-instance identity: the origins of its key columns,
/// sorted by column id. Equal vectors ⇒ the same runtime instance.
type AbsInstance = Vec<(ColumnId, Origin)>;

/// An abstract stripe index at a host instance.
#[derive(Clone, PartialEq, Eq, Debug)]
enum AbsStripe {
    /// A concrete stripe index (empty `stripe_by`, `k == 1`, or one leg of
    /// a conservative all-`k` acquisition).
    At(u32),
    /// `hash(proj(t, stripe_by)) mod k` for a tuple whose `stripe_by`
    /// projection has these origins. Equal vectors ⇒ equal stripe.
    Hashed(Vec<(ColumnId, Origin)>),
}

/// An abstract [`LockToken`](crate::placement::LockToken).
#[derive(Clone, PartialEq, Eq, Debug)]
struct AbsToken {
    node_pos: u16,
    node: NodeId,
    instance: AbsInstance,
    stripe: AbsStripe,
}

impl AbsToken {
    /// Partial §5.1 comparison: `None` when the runtime order of the two
    /// tokens is not statically determined (distinct instance classes, or
    /// a hashed stripe against anything but itself).
    fn partial_cmp_token(&self, other: &AbsToken) -> Option<Ordering> {
        match self.node_pos.cmp(&other.node_pos) {
            Ordering::Equal => {}
            o => return Some(o),
        }
        if self.instance != other.instance {
            return None;
        }
        match (&self.stripe, &other.stripe) {
            (AbsStripe::At(a), AbsStripe::At(b)) => Some(a.cmp(b)),
            (AbsStripe::Hashed(a), AbsStripe::Hashed(b)) if a == b => Some(Ordering::Equal),
            _ => None,
        }
    }
}

/// The violation classes the analyzer reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiagnosticKind {
    /// §4.3 condition 1: an edge's lock host does not dominate its source.
    NonDominatingHost,
    /// §4.3 condition 2: an edge on a host→source path is not protected by
    /// the same lock.
    PathSharingViolated,
    /// A lock host whose instance key is not bound when the lock must be
    /// taken — the operational face of a non-dominating host.
    HostUnbound,
    /// An edge read with neither a covering held lock nor a root→source
    /// exclusion gate.
    UncoveredRead,
    /// A container mutation without an exclusive covering hold.
    UncoveredWrite,
    /// A blocking acquisition provably below an already-held token in the
    /// §5.1 order.
    OutOfOrder,
    /// A batch sweep whose token sequence is not sorted.
    UnsortedSweep,
    /// An exclusive acquisition of a token held shared — the promotion
    /// pass missed a lock that a later step needs exclusively.
    SharedToExclusiveUpgrade,
    /// A plan claims its lock batch is presorted (§5.2 sort elision) but
    /// the chain's scan order does not match the token order.
    PresortedUnsound,
    /// An edge mutation with no version push.
    MissingMvccMirror,
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DiagnosticKind::NonDominatingHost => "non-dominating host",
            DiagnosticKind::PathSharingViolated => "path-sharing violated",
            DiagnosticKind::HostUnbound => "host unbound at lock site",
            DiagnosticKind::UncoveredRead => "uncovered read",
            DiagnosticKind::UncoveredWrite => "uncovered write",
            DiagnosticKind::OutOfOrder => "out-of-order acquisition",
            DiagnosticKind::UnsortedSweep => "unsorted batch sweep",
            DiagnosticKind::SharedToExclusiveUpgrade => "shared→exclusive upgrade",
            DiagnosticKind::PresortedUnsound => "unsound presorted claim",
            DiagnosticKind::MissingMvccMirror => "missing MVCC mirror",
        };
        f.write_str(s)
    }
}

/// One analyzer finding: the operation shape, the plan step it anchors to,
/// the violation class, the token(s) involved, and a human explanation.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The operation shape, e.g. `insert bound={dst}`.
    pub op: String,
    /// The plan step index the finding anchors to, when step-scoped.
    pub step: Option<usize>,
    /// The violation class.
    pub kind: DiagnosticKind,
    /// Rendered abstract tokens involved (the token pair for ordering
    /// violations; the missing tokens for coverage violations).
    pub tokens: Vec<String>,
    /// Free-form explanation.
    pub detail: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.op)?;
        if let Some(s) = self.step {
            write!(f, " step {s}")?;
        }
        if !self.tokens.is_empty() {
            write!(f, " tokens: {}", self.tokens.join(", "))?;
        }
        if !self.detail.is_empty() {
            write!(f, " — {}", self.detail)?;
        }
        Ok(())
    }
}

/// Seeded-violation knobs: each models the *omission* of one enforcement
/// layer, so the rejection battery can prove the analyzer detects its
/// absence. All default to `false`/`None` (analyze the real discipline).
#[derive(Clone, Default)]
pub struct AnalyzerOptions {
    /// Model an executor that forgets the version push at every mutation
    /// of this edge.
    pub suppress_mirror: Option<EdgeId>,
    /// Model an executor whose bulk sweeps skip the global token sort.
    pub suppress_sweep_sort: bool,
    /// Model a planner without the mode-promotion pass: in-place update
    /// steps keep their raw (unpromoted) modes.
    pub suppress_promotion: bool,
    /// Model a planner that claims §5.2 sort elision on every lock step;
    /// the analyzer must flag each step whose chain order does not
    /// actually match the token order.
    pub force_presorted: bool,
    /// Model a sharded layer that fails to demote lower-shard revisits to
    /// try-only acquisitions (see
    /// [`Analyzer::analyze_sharded_order`]).
    pub suppress_shard_demotion: bool,
    /// Model an executor that locks only one stripe before a range scan —
    /// as if the range interval routed the traversal to a single stripe
    /// the way a point lookup's key does. A range scan can visit entries
    /// in *every* stripe, so the analyzer must flag the scan's read as
    /// uncovered on striped hosts.
    pub demote_range_lock: bool,
    /// Model a live-migration cutover whose fence locks only the first
    /// stripe of each root-hosted edge instead of the full all-stripe
    /// sweep — an under-locked cutover that fails to drain writers
    /// parked on the other stripes. On striped placements the frozen-cut
    /// reads and the root-swap publication writes must be flagged (see
    /// [`Analyzer::analyze_migration`]).
    pub suppress_migration_fence: bool,
    /// Model an executor whose inserts never take the target-side lock of a
    /// §4.5 speculative child before publishing it — sound only for the
    /// last write of an attempt. Anywhere else (a mid-transaction insert,
    /// a row of a batch) a speculative reader could lock the child and
    /// read a row that a later restart rolls back; the publication must be
    /// flagged as an uncovered write.
    pub suppress_published_target_lock: bool,
    /// Model a lowering that fuses this node away but leaves its tail's
    /// logical lock where the logical placement put it — at the fused node,
    /// which is never instantiated — instead of moving it onto the parent
    /// edge. The plans are then compiled as if the tail were locked apart,
    /// nothing raises the parent's lock for a write of the tail's columns,
    /// and the tail's lock steps vanish with the tail: an in-place rewrite
    /// of the fused entry happens without its parent-host lock held
    /// exclusively, and must be flagged.
    pub unmoved_fused_lock: Option<NodeId>,
}

/// How strictly an acquisition site treats ordering. Blocking sites are
/// expected to be monotone (the executor would block there); tolerant
/// sites knowingly acquire out of order and rely on the engine's
/// try-and-restart rule.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Site {
    Blocking,
    /// A blocking bulk sweep: ordering violations are reported as
    /// [`DiagnosticKind::UnsortedSweep`].
    Sweep,
    Tolerant,
}

/// A symbolic traversal state: per-column origins plus the set of bound
/// node instances (their identities are the key-column projections of the
/// origin map, fixed at binding time because origins are never rebound).
#[derive(Clone)]
struct SymState {
    cols: Vec<Option<Origin>>,
    bound: Vec<bool>,
}

impl SymState {
    fn operand(decomp: &Decomposition, bound_cols: ColumnSet, row: u8) -> Self {
        let n = decomp.schema().catalog().len();
        let mut cols = vec![None; n];
        for c in bound_cols.iter() {
            cols[c.index()] = Some(Origin::Operand(row));
        }
        let mut bound = vec![false; decomp.node_count()];
        bound[decomp.root().index()] = true;
        SymState { cols, bound }
    }

    /// The origin projection onto `cols`; `None` if any column is unbound.
    fn project(&self, cols: ColumnSet) -> Option<Vec<(ColumnId, Origin)>> {
        let mut out = Vec::with_capacity(cols.len());
        for c in cols.iter() {
            out.push((c, self.cols[c.index()]?));
        }
        Some(out)
    }

    /// Binds every unbound column in `cols` to a fresh scan origin.
    fn scan_bind(&mut self, cols: ColumnSet, next_scan: &mut u32) {
        for c in cols.iter() {
            if self.cols[c.index()].is_none() {
                self.cols[c.index()] = Some(Origin::Scanned(*next_scan));
                *next_scan += 1;
            }
        }
    }
}

/// The symbolic two-phase engine plus coverage checker for one operation.
struct SymExec<'a> {
    decomp: &'a Decomposition,
    placement: &'a LockPlacement,
    fusion: &'a Fusion,
    options: &'a AnalyzerOptions,
    op: String,
    /// `(token, mode, ordered)` — `ordered` is false for tolerant-site
    /// acquisitions (spec targets, post-scan candidates): the engine's
    /// dynamic order check already demotes conflicts against them to
    /// try-and-restart, so they are not baselines for §5.1 monotonicity.
    held: Vec<(AbsToken, LockMode, bool)>,
    next_scan: u32,
    diags: Vec<Diagnostic>,
}

impl<'a> SymExec<'a> {
    fn new(
        decomp: &'a Decomposition,
        placement: &'a LockPlacement,
        fusion: &'a Fusion,
        options: &'a AnalyzerOptions,
        op: String,
    ) -> Self {
        SymExec {
            decomp,
            placement,
            fusion,
            options,
            op,
            held: Vec::new(),
            next_scan: 0,
            diags: Vec::new(),
        }
    }

    fn diag(
        &mut self,
        kind: DiagnosticKind,
        step: Option<usize>,
        tokens: Vec<String>,
        detail: String,
    ) {
        self.diags.push(Diagnostic {
            op: self.op.clone(),
            step,
            kind,
            tokens,
            detail,
        });
    }

    fn render(&self, tok: &AbsToken) -> String {
        let cat = self.decomp.schema().catalog();
        let inst: Vec<String> = tok
            .instance
            .iter()
            .map(|(c, o)| format!("{}={o}", cat.name(*c)))
            .collect();
        let stripe = match &tok.stripe {
            AbsStripe::At(i) => format!("{i}"),
            AbsStripe::Hashed(proj) => {
                let p: Vec<String> = proj
                    .iter()
                    .map(|(c, o)| format!("{}={o}", cat.name(*c)))
                    .collect();
                format!("hash({})", p.join(","))
            }
        };
        format!(
            "lock@{}[{}]#{}",
            self.decomp.node(tok.node).name,
            inst.join(","),
            stripe
        )
    }

    fn token(&self, node: NodeId, instance: AbsInstance, stripe: AbsStripe) -> AbsToken {
        AbsToken {
            node_pos: self.decomp.topo_position(node),
            node,
            instance,
            stripe,
        }
    }

    /// The abstract instance identity of `node` under `st`; reports
    /// [`DiagnosticKind::HostUnbound`] and returns `None` when the key is
    /// not fully bound (a non-dominating host manifests here: the walk
    /// reaches the lock site before any path has bound the host).
    fn host_instance(
        &mut self,
        node: NodeId,
        st: &SymState,
        step: Option<usize>,
    ) -> Option<AbsInstance> {
        let key = self.decomp.node(node).key_cols;
        if !st.bound[node.index()] {
            let name = self.decomp.node(node).name.clone();
            self.diag(
                DiagnosticKind::HostUnbound,
                step,
                vec![],
                format!("lock host `{name}` has no bound instance at the lock site"),
            );
            return None;
        }
        match st.project(key) {
            Some(inst) => Some(inst),
            None => {
                let name = self.decomp.node(node).name.clone();
                self.diag(
                    DiagnosticKind::HostUnbound,
                    step,
                    vec![],
                    format!("lock host `{name}`'s key columns are not bound at the lock site"),
                );
                None
            }
        }
    }

    /// Mirror of [`LockPlacement::fallback_tokens`] in origin space.
    fn fallback_tokens(&mut self, e: EdgeId, st: &SymState, step: Option<usize>) -> Vec<AbsToken> {
        let ep = self.placement.edge(e);
        let Some(inst) = self.host_instance(ep.host, st, step) else {
            return vec![];
        };
        let k = self.placement.stripe_count(ep.host);
        if k == 1 || ep.stripe_by.is_empty() {
            vec![self.token(ep.host, inst, AbsStripe::At(0))]
        } else if let Some(proj) = st.project(ep.stripe_by) {
            vec![self.token(ep.host, inst, AbsStripe::Hashed(proj))]
        } else {
            (0..k)
                .map(|i| self.token(ep.host, inst.clone(), AbsStripe::At(i)))
                .collect()
        }
    }

    /// Mirror of [`LockPlacement::all_stripe_tokens_into`] in origin space.
    fn all_stripe_tokens(
        &mut self,
        e: EdgeId,
        st: &SymState,
        step: Option<usize>,
    ) -> Vec<AbsToken> {
        let ep = self.placement.edge(e);
        let Some(inst) = self.host_instance(ep.host, st, step) else {
            return vec![];
        };
        (0..self.placement.stripe_count(ep.host))
            .map(|i| self.token(ep.host, inst.clone(), AbsStripe::At(i)))
            .collect()
    }

    /// Mirror of [`LockPlacement::target_token`] (§4.5 present-edge lock).
    fn target_token(&mut self, e: EdgeId, st: &SymState, step: Option<usize>) -> Option<AbsToken> {
        let dst = self.decomp.edge(e).dst;
        let key = self.decomp.node(dst).key_cols;
        let inst = st.project(key)?;
        let _ = step;
        Some(self.token(dst, inst, AbsStripe::At(0)))
    }

    /// One engine acquisition. Covered re-acquisitions are no-ops; an
    /// exclusive request against a shared hold is an upgrade violation;
    /// blocking sites additionally verify §5.1 monotonicity against every
    /// held token with a statically known order.
    fn acquire(&mut self, tok: AbsToken, mode: LockMode, site: Site, step: Option<usize>) {
        if let Some(pos) = self.held.iter().position(|(h, _, _)| *h == tok) {
            let held_mode = self.held[pos].1;
            if held_mode.covers(mode) {
                return;
            }
            let t = self.render(&tok);
            self.diag(
                DiagnosticKind::SharedToExclusiveUpgrade,
                step,
                vec![t],
                "exclusive acquisition of a token already held shared (forces an \
                 upgrade, which restarts whenever another reader shares the lock)"
                    .to_owned(),
            );
            self.held[pos].1 = mode;
            return;
        }
        if site != Site::Tolerant {
            let inverted: Vec<String> = self
                .held
                .iter()
                .filter(|(h, _, ordered)| {
                    *ordered && tok.partial_cmp_token(h) == Some(Ordering::Less)
                })
                .map(|(h, _, _)| self.render(h))
                .collect();
            if let Some(prev) = inverted.first() {
                let kind = if site == Site::Sweep {
                    DiagnosticKind::UnsortedSweep
                } else {
                    DiagnosticKind::OutOfOrder
                };
                self.diag(
                    kind,
                    step,
                    vec![prev.clone(), self.render(&tok)],
                    "acquisition provably below an already-held token in the \
                     (node position, instance key, stripe) order"
                        .to_owned(),
                );
            }
        }
        self.held.push((tok, mode, site != Site::Tolerant));
    }

    /// A sorted batch acquisition (a lock step's batch /
    /// [`acquire_root_sweep`] in the executor): sorts where the partial
    /// order decides (stable for unknown pairs), dedups exact repeats,
    /// then acquires each token. With
    /// [`AnalyzerOptions::suppress_sweep_sort`] the batch is reversed
    /// instead (a forgotten sort under adversarial enumeration order), so
    /// any comparable pair inside the batch surfaces as a violation.
    fn acquire_batch(
        &mut self,
        mut toks: Vec<AbsToken>,
        mode: LockMode,
        site: Site,
        step: Option<usize>,
    ) {
        toks.sort_by(|a, b| a.partial_cmp_token(b).unwrap_or(Ordering::Equal));
        if self.options.suppress_sweep_sort {
            // Model a forgotten sort under adversarial enumeration order:
            // any comparable pair in the batch is now provably inverted.
            toks.reverse();
        }
        toks.dedup();
        for t in toks {
            self.acquire(t, mode, site, step);
        }
    }

    /// Whether `req` (in `mode`) is satisfied by the held set: an exact
    /// hold, or — for a hashed stripe — holding every concrete stripe of
    /// the same host instance.
    fn holds(&self, req: &AbsToken, mode: LockMode) -> bool {
        let direct = self.held.iter().any(|(h, m, _)| h == req && m.covers(mode));
        if direct {
            return true;
        }
        if let AbsStripe::Hashed(_) = req.stripe {
            let k = self.placement.stripe_count(req.node);
            return (0..k).all(|i| {
                self.held.iter().any(|(h, m, _)| {
                    h.node == req.node
                        && h.instance == req.instance
                        && h.stripe == AbsStripe::At(i)
                        && m.covers(mode)
                })
            });
        }
        false
    }

    /// Whether the reader holds, exclusively, every concrete stripe of
    /// `node`'s instance `inst` — total exclusion of any transaction that
    /// must take a lock at that instance.
    fn holds_all_stripes_exclusive(&self, node: NodeId, inst: &AbsInstance) -> bool {
        let k = self.placement.stripe_count(node);
        (0..k).all(|i| {
            self.held.iter().any(|(h, m, _)| {
                h.node == node
                    && h.instance == *inst
                    && h.stripe == AbsStripe::At(i)
                    && *m == LockMode::Exclusive
            })
        })
    }

    /// Coverage check for a read of edge `e` under state `st`. `point`
    /// reads follow one fully bound entry key; whole reads (scans,
    /// emptiness checks) observe every entry of the container instance.
    ///
    /// A read is covered when either
    ///
    /// * **R1 (direct):** the physical locks implementing the edge's
    ///   logical lock for this instance are held in the container's read
    ///   mode or stronger — the §4.3 discipline both readers and writers
    ///   follow; or
    /// * **R2 (exclusion gate):** on *every* root→source path there is an
    ///   edge whose lock set at this state's instance classes is held
    ///   exclusively in full. Any transaction mutating the observed
    ///   container must traverse some root→source path and take that
    ///   edge's lock (the §4.3 domination argument), so the hold excludes
    ///   every conflicting writer — this justifies the executor's
    ///   *unlocked* existence-check reads.
    fn require_read(&mut self, e: EdgeId, st: &SymState, point: bool, step: Option<usize>) {
        let ep = self.placement.edge(e);
        let em = self.decomp.edge(e);
        let mode = self.placement.read_mode(e);
        // Speculative point reads outside the §4.5 protocol are justified
        // by an exclusive hold of the fallback locks (presence freezing);
        // the protocol path is modeled separately by the caller.
        let req_mode = if ep.speculative {
            LockMode::Exclusive
        } else {
            mode
        };
        let required = if point {
            self.fallback_tokens(e, st, step)
        } else {
            let a_src = self.decomp.node(em.src).key_cols;
            let k = self.placement.stripe_count(ep.host);
            let Some(inst) = self.host_instance(ep.host, st, step) else {
                return;
            };
            if k == 1 || ep.stripe_by.is_empty() {
                vec![self.token(ep.host, inst, AbsStripe::At(0))]
            } else if ep.stripe_by.is_subset(a_src) {
                // Entries of one container instance agree on the source
                // key, so they all hash to one stripe.
                match st.project(ep.stripe_by) {
                    Some(proj) => vec![self.token(ep.host, inst, AbsStripe::Hashed(proj))],
                    None => (0..k)
                        .map(|i| self.token(ep.host, inst.clone(), AbsStripe::At(i)))
                        .collect(),
                }
            } else {
                (0..k)
                    .map(|i| self.token(ep.host, inst.clone(), AbsStripe::At(i)))
                    .collect()
            }
        };
        let missing: Vec<&AbsToken> = required
            .iter()
            .filter(|r| !self.holds(r, req_mode))
            .collect();
        if missing.is_empty() {
            return;
        }
        if self.excluded_by_gates(em.src, st) {
            return;
        }
        let toks: Vec<String> = missing.iter().map(|t| self.render(t)).collect();
        let ename = self.edge_name(e);
        self.diag(
            DiagnosticKind::UncoveredRead,
            step,
            toks,
            format!(
                "{} read of edge {ename} is neither lock-covered nor writer-excluded",
                if point { "point" } else { "whole-instance" }
            ),
        );
    }

    /// The R2 exclusion-gate check: every root→`src` path must contain a
    /// *gate* — an edge whose lock acquisition any conflicting transaction
    /// must perform at instance classes projected from this state, where
    /// the reader holds that full lock set exclusively. For a speculative
    /// gate the writer's present-path lock is the target-side lock; for a
    /// normal gate it is the host's stripe set.
    fn excluded_by_gates(&mut self, src: NodeId, st: &SymState) -> bool {
        let root = self.decomp.root();
        if src == root {
            let Some(inst) = st.project(self.decomp.node(root).key_cols) else {
                return false;
            };
            return self.holds_all_stripes_exclusive(root, &inst);
        }
        let paths = self.decomp.paths_between(root, src);
        if paths.is_empty() {
            return false;
        }
        paths
            .iter()
            .all(|path| path.iter().any(|&pe| self.is_exclusion_gate(pe, st)))
    }

    /// Whether the reader's exclusive holds close edge `pe` as a gate for
    /// instances classed by `st` (see [`SymExec::excluded_by_gates`]).
    fn is_exclusion_gate(&self, pe: EdgeId, st: &SymState) -> bool {
        let ep = self.placement.edge(pe);
        if ep.speculative {
            // A writer reaching below a speculative edge holds the
            // target-side lock on the present path (§4.5) *and* — by the
            // executor's fallback-pin rule — at least one fallback stripe
            // at the host, so either side closes the gate: the target
            // instance exclusively, or every host stripe exclusively.
            let dst = self.decomp.edge(pe).dst;
            if let Some(inst) = st.project(self.decomp.node(dst).key_cols) {
                if self.holds_all_stripes_exclusive(dst, &inst) {
                    return true;
                }
            }
            let Some(inst) = st.project(self.decomp.node(ep.host).key_cols) else {
                return false;
            };
            self.holds_all_stripes_exclusive(ep.host, &inst)
        } else {
            let Some(inst) = st.project(self.decomp.node(ep.host).key_cols) else {
                return false;
            };
            self.holds_all_stripes_exclusive(ep.host, &inst)
        }
    }

    /// Coverage check for a container mutation of edge `e`: the entry's
    /// stripe token must be held exclusively (a shared hold is reported as
    /// a missed promotion). `entry` supplies the origins of the written
    /// entry's tuple — for in-place rewrites the new key can hash to a
    /// different stripe than the traversal's. `fresh` marks writes into a
    /// just-materialized, unpublished instance: unreachable by any other
    /// transaction until the publication write, hence self-covered.
    fn require_write(&mut self, e: EdgeId, entry: &SymState, fresh: bool, step: Option<usize>) {
        self.mirror_write(e, step);
        if fresh {
            return;
        }
        let required = self.fallback_tokens(e, entry, step);
        let mut missing = Vec::new();
        for r in &required {
            if self.holds(r, LockMode::Exclusive) {
                continue;
            }
            if self.holds(r, LockMode::Shared) {
                let t = self.render(r);
                self.diag(
                    DiagnosticKind::SharedToExclusiveUpgrade,
                    step,
                    vec![t],
                    format!(
                        "mutation of edge {} under a shared hold — the promotion \
                         pass missed this lock",
                        self.edge_name(e)
                    ),
                );
                continue;
            }
            missing.push(r.clone());
        }
        if missing.is_empty() {
            return;
        }
        let em_src = self.decomp.edge(e).src;
        if self.excluded_by_gates(em_src, entry) {
            return;
        }
        let toks: Vec<String> = missing.iter().map(|t| self.render(t)).collect();
        let ename = self.edge_name(e);
        self.diag(
            DiagnosticKind::UncoveredWrite,
            step,
            toks,
            format!("mutation of edge {ename} without an exclusive covering hold"),
        );
    }

    /// The MVCC write-side completeness table: every edge mutation pushes
    /// a version under the entry's exclusive locks — before the container
    /// write where the edge keeps a container, and as the whole write where
    /// the edge is its version index alone
    /// ([`VersionIndex::is_container_for`]).
    /// [`AnalyzerOptions::suppress_mirror`] models a forgotten push, which
    /// must surface as [`DiagnosticKind::MissingMvccMirror`]. A fused
    /// edge's entry carries its tail's columns, so its push is its tail's
    /// too.
    fn mirror_write(&mut self, e: EdgeId, step: Option<usize>) {
        let suppressed = self.options.suppress_mirror;
        if suppressed.is_some_and(|s| s == e || self.fusion.parent_of(s) == Some(e)) {
            let ename = self.edge_name(e);
            let lost = if VersionIndex::is_container_for(self.decomp.edge(e).container) {
                "the edge is its version index alone, so no reader would see the write"
            } else {
                "snapshot readers would observe a stale version chain"
            };
            self.diag(
                DiagnosticKind::MissingMvccMirror,
                step,
                vec![],
                format!("mutation of edge {ename} pushes no version — {lost}"),
            );
        }
    }

    fn edge_name(&self, e: EdgeId) -> String {
        let em = self.decomp.edge(e);
        format!(
            "{}→{}",
            self.decomp.node(em.src).name,
            self.decomp.node(em.dst).name
        )
    }
}

/// The lock-discipline analyzer: symbolic execution of every plan shape a
/// `(Decomposition, LockPlacement)` pair admits, plus the structural §4.3
/// placement checks. See the module docs for the properties verified.
pub struct Analyzer {
    decomp: Arc<Decomposition>,
    /// The logical placement, which the structural checks read.
    placement: Arc<LockPlacement>,
    /// The lowered placement the plans run under, which the symbolic
    /// executions check them against.
    lowered: Arc<LockPlacement>,
    planner: Planner,
    options: AnalyzerOptions,
}

impl Analyzer {
    /// Creates an analyzer verifying the real discipline (no seeded
    /// violations).
    pub fn new(decomp: Arc<Decomposition>, placement: Arc<LockPlacement>) -> Self {
        Self::with_options(decomp, placement, AnalyzerOptions::default())
    }

    /// Creates an analyzer with seeded-violation options (the rejection
    /// battery).
    pub fn with_options(
        decomp: Arc<Decomposition>,
        placement: Arc<LockPlacement>,
        options: AnalyzerOptions,
    ) -> Self {
        let fusion = Fusion::of(&decomp, &placement);
        let lowered = fusion.placement(&placement, None);
        let planned = fusion.placement(&placement, options.unmoved_fused_lock);
        let planner = Planner::with_fusion(Arc::clone(&decomp), planned, fusion);
        Analyzer {
            decomp,
            placement,
            lowered,
            planner,
            options,
        }
    }

    fn exec(&self, op: String) -> SymExec<'_> {
        let fusion = self.planner.fusion();
        SymExec::new(&self.decomp, &self.lowered, fusion, &self.options, op)
    }

    fn render_set(&self, s: ColumnSet) -> String {
        self.decomp.schema().catalog().render_set(s)
    }

    /// The structural §4.3 well-formedness checks, re-derived independently
    /// of [`PlacementBuilder::build`](crate::placement::PlacementBuilder::build):
    /// every non-speculative edge's host dominates its source, every edge
    /// on a host→source path shares the host's lock, and speculative
    /// placements satisfy the §4.5 prerequisites.
    pub fn check_placement(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let d = &self.decomp;
        for (e, em) in d.edges() {
            let ep = self.placement.edge(e);
            let ename = format!("{}→{}", d.node(em.src).name, d.node(em.dst).name);
            if ep.speculative {
                if em.src != d.root() || ep.host != em.src {
                    out.push(Diagnostic {
                        op: "placement".to_owned(),
                        step: None,
                        kind: DiagnosticKind::NonDominatingHost,
                        tokens: vec![],
                        detail: format!(
                            "speculative edge {ename} must leave the root with its \
                             source as fallback host (§4.5)"
                        ),
                    });
                }
                continue;
            }
            if !d.dominates(ep.host, em.src) {
                out.push(Diagnostic {
                    op: "placement".to_owned(),
                    step: None,
                    kind: DiagnosticKind::NonDominatingHost,
                    tokens: vec![],
                    detail: format!(
                        "edge {ename}: host `{}` does not dominate source `{}` (§4.3)",
                        d.node(ep.host).name,
                        d.node(em.src).name
                    ),
                });
                continue;
            }
            for path in d.paths_between(ep.host, em.src) {
                for pe in path {
                    let other = self.placement.edge(pe);
                    if other.speculative || other.host != ep.host {
                        out.push(Diagnostic {
                            op: "placement".to_owned(),
                            step: None,
                            kind: DiagnosticKind::PathSharingViolated,
                            tokens: vec![],
                            detail: format!(
                                "edge {ename}: path edge {} from host `{}` is not \
                                 protected by the same lock (§4.3)",
                                {
                                    let pm = d.edge(pe);
                                    format!("{}→{}", d.node(pm.src).name, d.node(pm.dst).name)
                                },
                                d.node(ep.host).name
                            ),
                        });
                    }
                }
            }
        }
        out
    }

    /// Walks a compiled plan from `st` and returns the survivor state: the
    /// one model of every plan the evaluator runs — queries, ranges and
    /// the existence DFS, the locate plans of removes and in-place
    /// updates, an insert's unlocked existence check. Acquisitions start
    /// at `site`; `tolerant_after_scan` models walkers that, past a scan,
    /// knowingly acquire for sibling or candidate states out of the global
    /// order and rely on the engine's try-and-restart rule (the existence
    /// DFS, a mutation's locate).
    fn sym_plan_steps(
        &self,
        ex: &mut SymExec<'_>,
        plan: &Plan,
        mut st: SymState,
        mut site: Site,
        tolerant_after_scan: bool,
    ) -> SymState {
        let has_range = plan
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::RangeScan { .. }));
        // §5.2 sort-elision re-verification state, mirroring
        // `chain_to_plan`.
        let mut chain_sorted = true;
        let mut last_scanned_max: Option<usize> = None;
        for (i, step) in plan.steps.iter().enumerate() {
            let step_no = Some(i);
            match *step {
                PlanStep::Lock {
                    edge,
                    mode,
                    presorted,
                    all_stripes,
                } => {
                    if (presorted || self.options.force_presorted) && !chain_sorted {
                        ex.diag(
                            DiagnosticKind::PresortedUnsound,
                            step_no,
                            vec![],
                            format!(
                                "lock step for edge {} claims §5.2 sort elision, but \
                                 an earlier scan's order does not match the token order",
                                ex.edge_name(edge)
                            ),
                        );
                    }
                    let mut toks = if all_stripes {
                        ex.all_stripe_tokens(edge, &st, step_no)
                    } else {
                        ex.fallback_tokens(edge, &st, step_no)
                    };
                    if self.options.demote_range_lock && has_range {
                        toks.truncate(1);
                    }
                    ex.acquire_batch(toks, mode, site, step_no);
                }
                PlanStep::Lookup { edge } => {
                    ex.require_read(edge, &st, true, step_no);
                    self.traverse(ex, &mut st, edge);
                }
                PlanStep::Scan { edge } => {
                    let em = self.decomp.edge(edge);
                    ex.require_read(edge, &st, false, step_no);
                    self.traverse(ex, &mut st, edge);
                    if tolerant_after_scan {
                        site = Site::Tolerant;
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
                PlanStep::RangeScan { edge, ordered } => {
                    // Lock-wise a range scan is a scan: the traversal may
                    // touch any entry of the container, so it needs the
                    // same scan-read justification (all stripes for
                    // striped hosts, shared mode otherwise).
                    let em = self.decomp.edge(edge);
                    ex.require_read(edge, &st, false, step_no);
                    self.traverse(ex, &mut st, edge);
                    if tolerant_after_scan {
                        site = Site::Tolerant;
                    }
                    // The planner may only claim `ordered` (native bounded
                    // in-order walk, enabling the top-k short-circuit) on a
                    // container whose scan is sorted.
                    if ordered && !em.container.props().sorted_scan {
                        ex.diag(
                            DiagnosticKind::PresortedUnsound,
                            step_no,
                            vec![],
                            format!(
                                "range scan over edge {} claims a native ordered \
                                 walk, but the container's scan is unsorted",
                                ex.edge_name(edge)
                            ),
                        );
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
                PlanStep::SpecLookup { edge, mode } => {
                    // §4.5 protocol: the read itself is justified by the
                    // target-side (present) or fallback (absent) lock the
                    // protocol acquires; only the present branch continues
                    // the chain.
                    match ex.target_token(edge, &st, step_no) {
                        Some(tok) => ex.acquire(tok, mode, Site::Tolerant, step_no),
                        None => ex.diag(
                            DiagnosticKind::HostUnbound,
                            step_no,
                            vec![],
                            format!(
                                "speculative target of edge {} is not determined at \
                                 the lookup site",
                                ex.edge_name(edge)
                            ),
                        ),
                    }
                    st.bound[self.decomp.edge(edge).dst.index()] = true;
                }
            }
        }
        st
    }

    /// Binds what traversing `edge` binds in `st`: the edge's columns, and
    /// either its target's instance or — on a fused edge — the target's
    /// dependent columns, read from the entry.
    fn traverse(&self, ex: &mut SymExec<'_>, st: &mut SymState, edge: EdgeId) {
        let em = self.decomp.edge(edge);
        let fusion = self.planner.fusion();
        st.scan_bind(em.cols.union(fusion.payload(edge)), &mut ex.next_scan);
        if !fusion.is_fused(edge) {
            st.bound[em.dst.index()] = true;
        }
    }

    /// Analyzes `query r s C` for a pattern binding `bound` with outputs
    /// `output`.
    ///
    /// # Errors
    ///
    /// Propagates planner failures ([`CoreError::NoValidPlan`]).
    pub fn analyze_query(
        &self,
        bound: ColumnSet,
        output: ColumnSet,
    ) -> Result<Vec<Diagnostic>, CoreError> {
        let plan = self.planner.plan_query(bound, output)?;
        let mut ex = self.exec(format!("query bound={}", self.render_set(bound)));
        let st = SymState::operand(&self.decomp, bound, 0);
        self.sym_plan_steps(&mut ex, &plan, st, Site::Blocking, false);
        Ok(ex.diags)
    }

    /// Analyzes `query_range` for a pattern binding `bound`, an interval
    /// over `range_col`, and outputs `output` — the plan the planner
    /// emits when the range column is free ([`Planner::plan_range`]),
    /// which may contain `RangeScan` steps.
    ///
    /// # Errors
    ///
    /// Propagates planner failures ([`CoreError::NoValidPlan`]).
    pub fn analyze_query_range(
        &self,
        bound: ColumnSet,
        range_col: ColumnId,
        output: ColumnSet,
    ) -> Result<Vec<Diagnostic>, CoreError> {
        let plan = self.planner.plan_range(bound, range_col, output)?;
        let mut ex = self.exec(format!(
            "query_range bound={} col={}",
            self.render_set(bound),
            self.render_set(ColumnSet::single(range_col))
        ));
        let st = SymState::operand(&self.decomp, bound, 0);
        self.sym_plan_steps(&mut ex, &plan, st, Site::Blocking, false);
        Ok(ex.diags)
    }

    /// Analyzes the existence DFS over the query plan for `bound` (the
    /// executor's `run_exists` shape: later sibling states acquire out of
    /// order and rely on the engine's try-and-restart rule).
    ///
    /// # Errors
    ///
    /// Propagates planner failures.
    pub fn analyze_exists(&self, bound: ColumnSet) -> Result<Vec<Diagnostic>, CoreError> {
        let plan = self.planner.plan_query(bound, ColumnSet::new())?;
        let mut ex = self.exec(format!("exists bound={}", self.render_set(bound)));
        let st = SymState::operand(&self.decomp, bound, 0);
        self.sym_plan_steps(&mut ex, &plan, st, Site::Blocking, true);
        Ok(ex.diags)
    }

    /// A fully bound symbolic state for operand row `row` (insert/remove
    /// walk bodies reach every node).
    fn full_state(&self, row: u8) -> SymState {
        let mut st = SymState::operand(&self.decomp, self.decomp.schema().columns(), row);
        for b in st.bound.iter_mut() {
            *b = true;
        }
        st
    }

    /// The union of root-hosted lock tokens a bulk sweep acquires for one
    /// pattern state, honoring per-edge force-all flags.
    fn root_sweep_tokens(
        &self,
        ex: &mut SymExec<'_>,
        hosted: &[(EdgeId, bool)],
        st: &SymState,
    ) -> Vec<AbsToken> {
        let mut toks = Vec::new();
        for &(e, force) in hosted {
            if force {
                toks.extend(ex.all_stripe_tokens(e, st, None));
            } else {
                toks.extend(ex.fallback_tokens(e, st, None));
            }
        }
        toks
    }

    /// The insert body after the root sweep: walk locks on every non-root
    /// host, the unlocked existence-check plan, the target-side locks of
    /// the speculative children about to be published, then the container
    /// writes in reverse mutation order. Modelled as a write that more
    /// operations may follow — the stricter of the executor's two modes
    /// (`Executor::run_insert`'s `hold_published_targets`): the last write
    /// of an attempt may skip the target locks, everything else must hold
    /// them, because it can still be rolled back.
    fn sym_insert_body(
        &self,
        ex: &mut SymExec<'_>,
        plan: &InsertPlan,
        bound: ColumnSet,
        st_full: &SymState,
        walk_site: Site,
    ) {
        let root = self.decomp.root();
        for &e in &plan.edges {
            if self.lowered.edge(e).host != root {
                let toks = ex.fallback_tokens(e, st_full, None);
                ex.acquire_batch(toks, LockMode::Exclusive, walk_site, None);
            }
        }
        // The existence check reads containers *unlocked* (its plan has no
        // lock steps): every read must be justified by the walk/sweep holds
        // (R1) or by writer exclusion (R2) under the scan-forced all-stripe
        // sweep. It starts from the pattern's columns of the full tuple.
        let mut st = SymState::operand(&self.decomp, ColumnSet::new(), 0);
        for c in bound.iter() {
            st.cols[c.index()] = st_full.cols[c.index()];
        }
        self.sym_plan_steps(ex, &plan.check, st, walk_site, false);
        // The isolation rule's site: one target-side acquisition per
        // speculative edge, before the writes. (A site table, like
        // `mirror_write`: the model binds every host, so the walk's own
        // holds at the child would mask a state-based check.)
        for (i, &e) in plan.edges.iter().enumerate() {
            if !self.lowered.edge(e).speculative {
                continue;
            }
            let Some(tok) = ex.target_token(e, st_full, Some(i)) else {
                continue;
            };
            if !self.options.suppress_published_target_lock {
                ex.acquire(tok, LockMode::Exclusive, Site::Tolerant, Some(i));
                continue;
            }
            let (t, ename) = (ex.render(&tok), ex.edge_name(e));
            ex.diag(
                DiagnosticKind::UncoveredWrite,
                Some(i),
                vec![t],
                format!(
                    "speculative edge {ename} publishes its child without the \
                     target-side lock, in an insert that can still be rolled back"
                ),
            );
        }
        for (i, &e) in plan.edges.iter().enumerate().rev() {
            ex.require_write(e, st_full, false, Some(i));
        }
    }

    /// The remove body after the root sweep: the locate plan, then the
    /// bottom-up unlink — a write per edge and a whole-instance emptiness
    /// read per non-root node. Returns the survivor state (scan origins
    /// bound) for callers that re-insert.
    fn sym_remove_body(
        &self,
        ex: &mut SymExec<'_>,
        plan: &RemovePlan,
        bound: ColumnSet,
        row: u8,
        site: Site,
    ) -> SymState {
        let root = self.decomp.root();
        let st = SymState::operand(&self.decomp, bound, row);
        let st = self.sym_plan_steps(ex, &plan.locate, st, site, true);
        // Bottom-up unlink: write every edge's entry out of its container,
        // then decide survivor death by reading the node's containers
        // empty (`is_exhausted`), for every node below the root.
        for &v in &plan.reverse_topo_nodes {
            for &e in &self.decomp.node(v).outgoing {
                if self.decomp.edge(e).src == v {
                    ex.require_write(e, &st, false, None);
                }
            }
            if v != root {
                for &e in &self.decomp.node(v).outgoing {
                    ex.require_read(e, &st, false, None);
                }
            }
        }
        st
    }

    /// Analyzes `insert r s x` planned for a pattern over `bound`: root
    /// sweep (all stripes when the existence check scans), non-root walk
    /// locks, unlocked check plan, reverse-order container writes.
    ///
    /// # Errors
    ///
    /// Propagates planner failures.
    pub fn analyze_insert(&self, bound: ColumnSet) -> Result<Vec<Diagnostic>, CoreError> {
        let plan = self.planner.plan_insert(bound)?;
        let mut ex = self.exec(format!("insert bound={}", self.render_set(bound)));
        let st_full = self.full_state(0);
        let sweep = self.root_sweep_tokens(&mut ex, &plan.root_hosted, &st_full);
        ex.acquire_batch(sweep, LockMode::Exclusive, Site::Sweep, None);
        self.sym_insert_body(&mut ex, &plan, bound, &st_full, Site::Blocking);
        Ok(ex.diags)
    }

    /// Analyzes a two-row `insert_all` batch: one fused root sweep over
    /// both rows' tokens (must be globally sorted), then per-row bodies —
    /// the second row's walk acquisitions are out of the global order by
    /// construction and rely on the engine's try-and-restart rule.
    ///
    /// # Errors
    ///
    /// Propagates planner failures.
    pub fn analyze_insert_all(&self, bound: ColumnSet) -> Result<Vec<Diagnostic>, CoreError> {
        let plan = self.planner.plan_insert_batch(bound)?;
        let mut ex = self.exec(format!("insert_all bound={}", self.render_set(bound)));
        let states = [self.full_state(0), self.full_state(1)];
        let mut sweep = Vec::new();
        for st in &states {
            sweep.extend(self.root_sweep_tokens(&mut ex, &plan.insert.root_hosted, st));
        }
        ex.acquire_batch(sweep, LockMode::Exclusive, Site::Sweep, None);
        for (r, st) in states.iter().enumerate() {
            let site = if r == 0 {
                Site::Blocking
            } else {
                Site::Tolerant
            };
            self.sym_insert_body(&mut ex, &plan.insert, bound, st, site);
        }
        Ok(ex.diags)
    }

    /// Analyzes `remove r s` for a key pattern over `bound`.
    ///
    /// # Errors
    ///
    /// Propagates planner failures.
    pub fn analyze_remove(&self, bound: ColumnSet) -> Result<Vec<Diagnostic>, CoreError> {
        let plan = self.planner.plan_remove(bound)?;
        let mut ex = self.exec(format!("remove bound={}", self.render_set(bound)));
        let st0 = SymState::operand(&self.decomp, bound, 0);
        let sweep = self.root_sweep_tokens(&mut ex, &plan.root_hosted, &st0);
        ex.acquire_batch(sweep, LockMode::Exclusive, Site::Sweep, None);
        self.sym_remove_body(&mut ex, &plan, bound, 0, Site::Blocking);
        Ok(ex.diags)
    }

    /// Analyzes a two-key `remove_all` batch: one fused root sweep, then
    /// per-key locate/unlink bodies.
    ///
    /// # Errors
    ///
    /// Propagates planner failures.
    pub fn analyze_remove_all(&self, bound: ColumnSet) -> Result<Vec<Diagnostic>, CoreError> {
        let plan = self.planner.plan_remove_batch(bound)?;
        let mut ex = self.exec(format!("remove_all bound={}", self.render_set(bound)));
        let mut sweep = Vec::new();
        for r in 0..2u8 {
            let st = SymState::operand(&self.decomp, bound, r);
            sweep.extend(self.root_sweep_tokens(&mut ex, &plan.remove.root_hosted, &st));
        }
        ex.acquire_batch(sweep, LockMode::Exclusive, Site::Sweep, None);
        for r in 0..2u8 {
            let site = if r == 0 {
                Site::Blocking
            } else {
                Site::Tolerant
            };
            self.sym_remove_body(&mut ex, &plan.remove, bound, r, site);
        }
        Ok(ex.diags)
    }

    /// Analyzes `update r s t` (`dom s = bound`, `dom t = updated`): the
    /// in-place fast path locks the locate chain with the plan's promoted
    /// modes and rewrites touched entries under them; the general path is
    /// a locked unlink followed by a re-insert of the rewritten tuple in
    /// the same two-phase scope.
    ///
    /// # Errors
    ///
    /// Propagates planner failures.
    pub fn analyze_update(
        &self,
        bound: ColumnSet,
        updated: ColumnSet,
    ) -> Result<Vec<Diagnostic>, CoreError> {
        let plan = self.planner.plan_update(bound, updated)?;
        let mut ex = self.exec(format!(
            "update bound={} set={}",
            self.render_set(bound),
            self.render_set(updated)
        ));
        match plan {
            UpdatePlan::InPlace(p) => self.sym_update_in_place(&mut ex, &p, bound),
            UpdatePlan::General(p) => {
                let st0 = SymState::operand(&self.decomp, bound, 0);
                let sweep = self.root_sweep_tokens(&mut ex, &p.remove.root_hosted, &st0);
                ex.acquire_batch(sweep, LockMode::Exclusive, Site::Sweep, None);
                let survivor = self.sym_remove_body(&mut ex, &p.remove, bound, 0, Site::Blocking);
                // Re-insert x = u ⊕ t mid-transaction: the old tuple's
                // origins survive on unchanged columns, the update operand
                // (row 1) overwrites `updated`. Extra acquisitions past the
                // two-phase growth point rely on try-and-restart.
                let mut st_new = survivor;
                for c in p.updated.iter() {
                    st_new.cols[c.index()] = Some(Origin::Operand(1));
                }
                for b in st_new.bound.iter_mut() {
                    *b = true;
                }
                let all = self.decomp.schema().columns();
                let sweep = self.root_sweep_tokens(&mut ex, &p.insert.root_hosted, &st_new);
                ex.acquire_batch(sweep, LockMode::Exclusive, Site::Tolerant, None);
                self.sym_insert_body(&mut ex, &p.insert, all, &st_new, Site::Tolerant);
            }
        }
        Ok(ex.diags)
    }

    /// The in-place update model: the locate plan with its promoted lock
    /// modes, then the touched-entry rewrites (old entry tombstone + new
    /// entry, each with its MVCC mirror).
    fn sym_update_in_place(&self, ex: &mut SymExec<'_>, p: &InPlaceUpdate, bound: ColumnSet) {
        // With the seeded-violation switch the promotion pass is undone:
        // each lock step reverts to its pre-promotion mode.
        let mut locate = p.locate.clone();
        if self.options.suppress_promotion {
            for step in &mut locate.steps {
                if let PlanStep::Lock { edge, mode, .. } | PlanStep::SpecLookup { edge, mode } =
                    step
                {
                    *mode = if p.touched.contains(edge) {
                        LockMode::Exclusive
                    } else {
                        self.placement.read_mode(*edge)
                    };
                }
            }
        }
        let st = SymState::operand(&self.decomp, bound, 0);
        let st = self.sym_plan_steps(ex, &locate, st, Site::Blocking, true);
        // Write phase: each touched edge gets an old-entry tombstone and a
        // new-entry write (stripe may differ when striping columns are
        // updated), both demanding exclusive coverage + an MVCC mirror.
        let mut st_new = st.clone();
        for c in p.updated.iter() {
            st_new.cols[c.index()] = Some(Origin::Operand(1));
        }
        for &e in &p.touched {
            let step = (locate.steps.iter()).position(|s| !s.is_lock() && s.edge() == e);
            ex.require_write(e, &st, false, step);
            ex.require_write(e, &st_new, false, step);
        }
    }

    /// Analyzes the cross-shard lexicographic discipline: the global
    /// coordinate of a lock is `(shard index, token)`, and a transaction
    /// returning to a lower-indexed shard must demote that shard's engine
    /// to try-only acquisition (see [`crate::shard`]). The model biases the
    /// token's node position by `shard × node_count` and replays an
    /// ascending visit followed by a lower-shard revisit; with
    /// [`AnalyzerOptions::suppress_shard_demotion`] the revisit becomes a
    /// blocking acquisition below the held maximum and must be flagged.
    pub fn analyze_sharded_order(&self) -> Vec<Diagnostic> {
        let mut ex = self.exec("cross-shard transaction".to_owned());
        let span = self.decomp.node_count() as u16;
        let root = self.decomp.root();
        let shard_tok = |ex: &SymExec<'_>, shard: u16| {
            let mut tok = ex.token(root, Vec::new(), AbsStripe::At(0));
            tok.node_pos += shard * span;
            tok
        };
        // Ascending visit: shard 0 then shard 1 — always in order.
        let t0 = shard_tok(&ex, 0);
        let t1 = shard_tok(&ex, 1);
        ex.acquire(t0, LockMode::Exclusive, Site::Blocking, None);
        ex.acquire(t1, LockMode::Exclusive, Site::Blocking, None);
        // Revisit of shard 0 at a second root instance: lexicographically
        // below the held shard-1 token. The layer demotes this to try-only.
        let mut t0b = ex.token(
            root,
            vec![(ColumnId::from_index(0), Origin::Operand(1))],
            AbsStripe::At(0),
        );
        t0b.node_pos = shard_tok(&ex, 0).node_pos;
        let site = if self.options.suppress_shard_demotion {
            Site::Blocking
        } else {
            Site::Tolerant
        };
        ex.acquire(t0b, LockMode::Exclusive, site, None);
        ex.diags
    }

    /// Analyzes the live-migration cutover
    /// ([`crate::ConcurrentRelation::migrate_to`]): the all-stripe
    /// exclusive fence over every root-hosted edge, the frozen-cut
    /// structural walk of the whole tree, the bulk load into the new
    /// (still unpublished) tree, and the root-swap publication.
    ///
    /// The discipline being checked: the fence must cover every read of
    /// the cut walk — directly at the root, through R2 exclusion gates
    /// below it (every root→source path starts with a root-hosted edge
    /// whose full stripe set the fence holds exclusively) — and must
    /// exclude every writer at the publication point, where the swap
    /// makes the bulk-loaded tree reachable. Bulk-load writes themselves
    /// target unpublished instances and are self-covered, exactly like
    /// the executor's fresh-subtree writes.
    ///
    /// With [`AnalyzerOptions::suppress_migration_fence`] the sweep
    /// locks only the first stripe of each root-hosted edge — the
    /// under-locked cutover — and on striped placements the walk's reads
    /// and the publication writes must surface as
    /// [`DiagnosticKind::UncoveredRead`] /
    /// [`DiagnosticKind::UncoveredWrite`].
    pub fn analyze_migration(&self) -> Vec<Diagnostic> {
        let mut ex = self.exec("migration cutover".to_owned());
        let mut st = SymState::operand(&self.decomp, ColumnSet::new(), 0);
        let root = self.decomp.root();
        // Fence: every stripe of every root-hosted edge, exclusively, in
        // one sorted sweep (the executor's `acquire_migration_fence`).
        let mut sweep = Vec::new();
        for (e, _) in self.decomp.edges() {
            if self.lowered.edge(e).host == root {
                let mut toks = ex.all_stripe_tokens(e, &st, None);
                if self.options.suppress_migration_fence {
                    toks.truncate(1);
                }
                sweep.extend(toks);
            }
        }
        ex.acquire_batch(sweep, LockMode::Exclusive, Site::Sweep, None);
        // Frozen cut: the structural walk observes every entry of every
        // edge, descending in topological order and scan-binding the
        // columns it reads (so lower hosts' instance keys are bound when
        // their lock sites are checked).
        let fusion = self.planner.fusion();
        let mut edges: Vec<EdgeId> = (self.decomp.edges())
            .map(|(e, _)| e)
            .filter(|&e| fusion.parent_of(e).is_none())
            .collect();
        edges.sort_by_key(|&e| self.decomp.topo_position(self.decomp.edge(e).src));
        for &e in &edges {
            ex.require_read(e, &st, false, None);
            self.traverse(&mut ex, &mut st, e);
        }
        // Bulk load: writes into the new tree's still-unpublished
        // instances are self-covered (`fresh`), like the executor's
        // fresh-subtree writes — but each still owes its MVCC mirror.
        for &e in &edges {
            ex.require_write(e, &st, true, None);
        }
        // Publication: the swap makes the loaded tree reachable, which
        // carries the same writer-exclusion obligation as mutating every
        // root-hosted edge in place.
        for &e in &edges {
            if self.lowered.edge(e).host == root {
                ex.require_write(e, &st, false, None);
            }
        }
        ex.diags
    }

    /// Runs the whole battery: the structural placement checks, every
    /// operation shape over every bound-column subset (and every disjoint
    /// updated subset for updates), and the cross-shard order model.
    /// Planner rejections (`NoValidPlan`, non-key patterns) are skipped —
    /// the executor can never run those shapes. Intended for library-sized
    /// schemas (the subset enumeration is exponential in column count).
    pub fn analyze_all(&self) -> Vec<Diagnostic> {
        let mut out = self.check_placement();
        let full = self.decomp.schema().columns();
        let cols: Vec<ColumnId> = full.iter().collect();
        let n = cols.len();
        let mut subsets = Vec::new();
        for mask in 0u32..(1u32 << n) {
            let mut s = ColumnSet::new();
            for (i, &c) in cols.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(c);
                }
            }
            subsets.push(s);
        }
        for &bound in &subsets {
            if let Ok(d) = self.analyze_query(bound, full) {
                out.extend(d);
            }
            for &rc in &cols {
                if bound.contains(rc) {
                    continue;
                }
                if let Ok(d) = self.analyze_query_range(bound, rc, full) {
                    out.extend(d);
                }
            }
            if let Ok(d) = self.analyze_exists(bound) {
                out.extend(d);
            }
            if let Ok(d) = self.analyze_insert(bound) {
                out.extend(d);
            }
            if let Ok(d) = self.analyze_insert_all(bound) {
                out.extend(d);
            }
            if let Ok(d) = self.analyze_remove(bound) {
                out.extend(d);
            }
            if let Ok(d) = self.analyze_remove_all(bound) {
                out.extend(d);
            }
            for &updated in &subsets {
                if updated.is_empty() || !updated.is_disjoint(bound) {
                    continue;
                }
                if let Ok(d) = self.analyze_update(bound, updated) {
                    out.extend(d);
                }
            }
        }
        out.extend(self.analyze_sharded_order());
        out.extend(self.analyze_migration());
        out
    }
}
