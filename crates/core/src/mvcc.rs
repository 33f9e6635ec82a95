//! The MVCC write mirror and the snapshot edge view.
//!
//! Every locked container mutation in [`crate::exec`] is mirrored into
//! the written instance's *shadow version index* (see
//! [`crate::instance::VersionIndex`]): a lock-free map from entry key to
//! that entry's [`VersionCell`] chain, kept parallel to the edge's main
//! container. All versions written by one transaction attempt share one
//! [`CommitStamp`]; the commit path ([`crate::commit::commit`], where the
//! whole ordering argument lives) stamps it through the global
//! [`commit clock`](relc_locks::commit_clock) *before* the lock engine
//! releases anything, so a version's stamp being `≤` a reader's snapshot
//! implies the whole owning transaction committed before that snapshot.
//!
//! Snapshot readers ([`crate::relation::SnapshotReader`]) run the same
//! compiled plans through the same evaluator ([`crate::query`]) as locked
//! reads; only the edge view differs. [`Snapshot`] never touches the main
//! containers — many of which are unsafe under concurrent writes and rely
//! on the synthesized lock placement — only the version indexes,
//! resolving at each edge the newest version committed at or before its
//! timestamp, under an epoch guard held for the whole traversal.
//!
//! # Version retirement
//!
//! At commit (locks still held), the committer computes the oldest
//! snapshot any in-flight reader holds
//! ([`SnapshotRegistry::min_active`](relc_locks::SnapshotRegistry::min_active))
//! once, then for every cell in its write journal: truncates versions
//! strictly older than the newest version at or below that floor, and —
//! if the cell's whole remaining history is one committed tombstone at
//! or below the floor — unlinks the cell from its index (the skip list
//! defers the `Arc` through the epoch collector, so retirement shows up
//! in `ReclamationStats`). Cells are only ever mutated or unlinked by a
//! transaction holding the entry's 2PL write locks, which is what makes
//! the chains single-writer. A cell tombstoned while an old reader was
//! still live is retired the next time *any* transaction writes that
//! entry (or when the relation drops); it is never reclaimed behind a
//! lock-free reader's back.

use std::collections::BTreeSet;
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::Arc;

use relc_containers::epoch::Guard;
use relc_containers::{Container, VersionCell};
use relc_locks::{CommitStamp, LockMode};
use relc_spec::Tuple;

use crate::commit::Participant;
use crate::decomp::{Decomposition, EdgeId};
use crate::instance::NodeRef;
use crate::placement::LockPlacement;
use crate::query::{EdgeView, KeyBounds, QueryState};

/// One mirrored write: enough to revisit the cell at commit for
/// truncation and dead-cell purge.
pub(crate) struct JournalEntry {
    /// The instance whose version index holds the cell.
    pub host: NodeRef,
    /// The outgoing edge the entry belongs to.
    pub edge: EdgeId,
    /// The entry key within the edge.
    pub key: Tuple,
    /// The entry's version chain.
    pub cell: Arc<VersionCell<NodeRef>>,
}

/// Per-transaction-attempt MVCC state, owned by the executor: the shared
/// commit stamp (created lazily on the first mirrored write, so
/// read-only and no-op transactions never touch the clock) and the write
/// journal revisited at commit.
#[derive(Default)]
pub(crate) struct MvccScope {
    stamp: Option<Arc<CommitStamp>>,
    pub journal: Vec<JournalEntry>,
}

impl MvccScope {
    /// The attempt's stamp, created on first use.
    pub fn stamp(&mut self) -> Arc<CommitStamp> {
        Arc::clone(self.stamp.get_or_insert_with(CommitStamp::new))
    }

    /// The stamp, if any mirrored write created one.
    pub fn stamp_opt(&self) -> Option<&Arc<CommitStamp>> {
        self.stamp.as_ref()
    }

    /// Pre-seeds the stamp (cross-shard attempts share one stamp).
    ///
    /// A late injection — after a mirrored write already lazily created a
    /// stamp — would split one attempt's versions across two
    /// `CommitStamp`s and break single-timestamp atomic visibility, so
    /// this asserts in release builds too (it is a once-per-attempt
    /// path; the cost is negligible).
    pub fn set_stamp(&mut self, stamp: Arc<CommitStamp>) {
        assert!(
            self.stamp.is_none(),
            "stamp injection must precede every mirrored write"
        );
        self.stamp = Some(stamp);
    }

    /// Mirrors one locked container write into `host`'s version index
    /// for `edge`: pushes a version (`None` = tombstone) stamped with
    /// this attempt's stamp onto the entry's cell, creating the cell on
    /// first write. Caller must hold the entry's placement write locks —
    /// the same locks that serialize the mirrored container mutation —
    /// which serializes all same-entry cell mutation.
    pub fn write(
        &mut self,
        decomp: &Decomposition,
        host: &NodeRef,
        edge: EdgeId,
        key: Tuple,
        value: Option<NodeRef>,
        guard: &Guard,
    ) {
        let stamp = self.stamp();
        let index = host.versions(decomp, edge);
        let cell = match index.lookup(&key) {
            Some(cell) => {
                cell.push(stamp, value, guard);
                cell
            }
            None => {
                let cell = Arc::new(VersionCell::new(stamp, value));
                index.write(&key, Some(Arc::clone(&cell)));
                cell
            }
        };
        self.journal.push(JournalEntry {
            host: Arc::clone(host),
            edge,
            key,
            cell,
        });
    }

    /// Commit-side maintenance, run with the attempt's locks still held
    /// and its stamp already committed: truncate every journaled cell to
    /// the retirement floor `min_active` and unlink cells whose whole
    /// visible history is one committed tombstone at or below it.
    ///
    /// Where the placement guards a whole edge container instance with
    /// one physical lock
    /// (`!`[`LockPlacement::admits_container_concurrency`]), the *whole*
    /// version index of each journaled edge is swept, not just the
    /// journaled cells. A dead cell that a live reader pinned at *its*
    /// committing transaction's retirement can only otherwise be
    /// reclaimed by a later write of the same entry key — and on
    /// value-keyed edges (a weight sink, say) the same key rarely
    /// recurs, so those corpses would pile up and every snapshot scan
    /// would crawl them forever. The sweep is safe exactly because this
    /// attempt holds that single per-instance lock exclusively for every
    /// journaled edge, so no other writer can be mutating *any* cell of
    /// the index. Speculative edges (present entries locked at per-entry
    /// targets) and edges striped by entry-key columns (another stripe's
    /// writer may hold another stripe) keep the journaled-cells-only
    /// rule — there, the entry keys are relation keys, which workloads
    /// do rewrite.
    pub fn retire(&self, placement: &LockPlacement, min_active: u64, guard: &Guard) {
        let decomp = placement.decomposition();
        let mut swept: Vec<(*const (), EdgeId)> = Vec::new();
        for entry in &self.journal {
            if !placement.admits_container_concurrency(entry.edge) {
                let tag = (Arc::as_ptr(&entry.host).cast::<()>(), entry.edge);
                if swept.contains(&tag) {
                    continue;
                }
                swept.push(tag);
                let index = entry.host.versions(decomp, entry.edge);
                let mut dead: Vec<Tuple> = Vec::new();
                index.scan(&mut |k: &Tuple, cell| {
                    cell.truncate(min_active, guard);
                    if cell.is_dead(min_active, guard) {
                        dead.push(k.clone());
                    }
                    std::ops::ControlFlow::<()>::Continue(())
                });
                for k in dead {
                    index.write(&k, None);
                }
            } else {
                entry.cell.truncate(min_active, guard);
                if entry.cell.is_dead(min_active, guard) {
                    entry
                        .host
                        .versions(decomp, entry.edge)
                        .write(&entry.key, None);
                }
            }
        }
    }
}

/// Stamps and retires the MVCC scopes of one finishing attempt — commit
/// *and* rollback paths alike (compensations push versions under the same
/// stamp, so an aborted attempt's stamped state equals the
/// pre-transaction state). Must run while the attempt's locks are still
/// held and strictly before any engine releases: that ordering is the
/// whole commit-visibility argument (see [`crate::commit::commit`], the
/// only caller besides its `abort`).
///
/// One stamp publishes for the whole attempt; `publish` then runs with
/// the committed timestamp (and the participants, handed back because
/// this function holds them) — after the clock has made it visible to
/// readers, strictly before version retirement — which is where the
/// commit path appends its redo records. If no participant wrote, the
/// clock is never touched and `publish` never runs: a pure read commits
/// no timestamp and logs nothing. Retirement truncates to `registry`'s
/// floor — the *owning relation's* registry, so snapshot readers of other
/// relations never pin this relation's dead versions — each participant
/// under its own placement.
pub(crate) fn finish_attempt(
    registry: &relc_locks::SnapshotRegistry,
    parts: &mut [Participant<'_>],
    publish: impl FnOnce(&mut [Participant<'_>], u64),
) {
    let clock = relc_locks::commit_clock();
    let Some(ts) = parts
        .iter()
        .map(Participant::scope)
        .find(|s| !s.journal.is_empty())
        .and_then(MvccScope::stamp_opt)
        .map(|stamp| clock.commit(stamp))
    else {
        return;
    };
    publish(parts, ts);
    let min_active = registry.min_active(clock);
    let guard = relc_containers::epoch::pin();
    for p in parts.iter() {
        p.scope().retire(p.placement(), min_active, &guard);
    }
}

impl std::fmt::Debug for MvccScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvccScope")
            .field("stamped", &self.stamp.is_some())
            .field("journal", &self.journal.len())
            .finish()
    }
}

/// Quiescent verification of every version chain reachable from `root`
/// (test support; surfaced through
/// [`ConcurrentRelation::verify`](crate::ConcurrentRelation::verify)):
///
/// * chain stamps are strictly decreasing newest-first;
/// * no tentative stamp survives quiescence ([`finish_attempt`] commits
///   the stamp on rollback paths too);
/// * after compacting each chain to the current retirement floor, at
///   most one version sits at or below the floor (the keeper —
///   [`VersionCell::truncate`]'s postcondition);
/// * the version indexes, resolved at the current clock time, carry
///   exactly the live keys of the main containers (every locked write
///   was mirrored, every mirror was written).
///
/// As a side effect chains are compacted to the current floor, exactly
/// as a committing writer would; at quiescence that is sound and
/// exercises the retirement path.
pub(crate) fn verify_versions(
    decomp: &Decomposition,
    root: &NodeRef,
    registry: &relc_locks::SnapshotRegistry,
) -> Result<(), String> {
    let clock = relc_locks::commit_clock();
    let floor = registry.min_active(clock);
    let now = clock.now();
    let guard = relc_containers::epoch::pin();
    let mut seen: Vec<*const ()> = Vec::new();
    let mut stack: Vec<NodeRef> = vec![Arc::clone(root)];
    while let Some(inst) = stack.pop() {
        let ptr = Arc::as_ptr(&inst).cast::<()>();
        if seen.contains(&ptr) {
            continue;
        }
        seen.push(ptr);
        let meta = decomp.node(inst.node());
        for &e in &meta.outgoing {
            let em = decomp.edge(e);
            let ename = format!("{}→{}", meta.name, decomp.node(em.dst).name);
            let mut live: BTreeSet<Tuple> = BTreeSet::new();
            inst.container(decomp, e)
                .scan(&mut |k: &Tuple, child: &NodeRef| {
                    live.insert(k.clone());
                    stack.push(Arc::clone(child));
                    ControlFlow::Continue(())
                });
            let mut err: Option<String> = None;
            let mut resolved: BTreeSet<Tuple> = BTreeSet::new();
            inst.versions(decomp, e).scan(&mut |k: &Tuple, cell| {
                cell.truncate(floor, &guard);
                let stamps = cell.chain_stamps(&guard);
                if let Some(w) = stamps.windows(2).find(|w| w[0].0 <= w[1].0) {
                    err = Some(format!(
                        "version chain for {k:?} on {ename} of instance \
                         {:?} is not strictly decreasing: {} then {}",
                        inst.key(),
                        w[0].0,
                        w[1].0
                    ));
                    return ControlFlow::Break(());
                }
                if stamps.iter().any(|&(s, _)| s == u64::MAX) {
                    err = Some(format!(
                        "version chain for {k:?} on {ename} of instance \
                         {:?} holds a tentative stamp at quiescence",
                        inst.key()
                    ));
                    return ControlFlow::Break(());
                }
                let below = stamps.iter().filter(|&&(s, _)| s <= floor).count();
                if below > 1 {
                    err = Some(format!(
                        "version chain for {k:?} on {ename} of instance \
                         {:?} keeps {below} versions at or below the \
                         retirement floor {floor}",
                        inst.key()
                    ));
                    return ControlFlow::Break(());
                }
                if cell.resolve(now, &guard).is_some() {
                    resolved.insert(k.clone());
                }
                ControlFlow::Continue(())
            });
            if let Some(err) = err {
                return Err(err);
            }
            if resolved != live {
                let missing: Vec<_> = live.difference(&resolved).collect();
                let phantom: Vec<_> = resolved.difference(&live).collect();
                return Err(format!(
                    "version index for {ename} of instance {:?} disagrees \
                     with the container: unmirrored live keys {missing:?}, \
                     phantom version keys {phantom:?}",
                    inst.key()
                ));
            }
        }
    }
    Ok(())
}

/// Total number of versions across every version chain reachable from
/// `root` (test support; surfaced through
/// [`ConcurrentRelation::version_footprint`](crate::ConcurrentRelation::version_footprint)).
/// Unlike [`verify_versions`] this is pure observation: no truncation,
/// no invariant checks — so a retirement regression can compare
/// footprints before/after churn without perturbing the chains.
pub(crate) fn version_footprint(decomp: &Decomposition, root: &NodeRef) -> usize {
    let guard = relc_containers::epoch::pin();
    let mut total = 0usize;
    let mut seen: Vec<*const ()> = Vec::new();
    let mut stack: Vec<NodeRef> = vec![Arc::clone(root)];
    while let Some(inst) = stack.pop() {
        let ptr = Arc::as_ptr(&inst).cast::<()>();
        if seen.contains(&ptr) {
            continue;
        }
        seen.push(ptr);
        let meta = decomp.node(inst.node());
        for &e in &meta.outgoing {
            inst.container(decomp, e)
                .scan(&mut |_k: &Tuple, child: &NodeRef| {
                    stack.push(Arc::clone(child));
                    ControlFlow::Continue(())
                });
            inst.versions(decomp, e).scan(&mut |_k: &Tuple, cell| {
                total += cell.chain_stamps(&guard).len();
                ControlFlow::Continue(())
            });
        }
    }
    total
}

/// The snapshot edge view: the version indexes as of commit timestamp
/// `snap`, read under the epoch `guard` that keeps truncated version nodes
/// and purged cells alive for the whole traversal. A step's locks are not
/// taken and a §4.5 speculative lookup is a plain one: the versions a
/// snapshot resolves are immutable once committed, so nothing can restart.
pub(crate) struct Snapshot<'a> {
    pub decomp: &'a Decomposition,
    pub snap: u64,
    pub guard: &'a Guard,
}

impl EdgeView for Snapshot<'_> {
    type Restart = Infallible;

    /// Every version index is a skip list, so an interval walk is a
    /// bounded in-order traversal regardless of the main container's kind
    /// (a step's `ordered` flag describes the locked view).
    const WALKS_IN_KEY_ORDER: bool = true;

    fn lock(
        &mut self,
        _: &[QueryState],
        _: EdgeId,
        _: LockMode,
        _: bool,
        _: bool,
    ) -> Result<(), Infallible> {
        Ok(())
    }

    fn follow(
        &mut self,
        st: &QueryState,
        edge: EdgeId,
        key: &Tuple,
        _spec: Option<LockMode>,
    ) -> Result<Option<NodeRef>, Infallible> {
        Ok(st
            .instance(self.decomp.edge(edge).src)
            .versions(self.decomp, edge)
            .lookup(key)
            .and_then(|cell| cell.resolve(self.snap, self.guard)))
    }

    fn walk(
        &mut self,
        st: &QueryState,
        edge: EdgeId,
        bounds: Option<&KeyBounds>,
        mut f: impl FnMut(&mut Self, &Tuple, NodeRef) -> ControlFlow<()>,
    ) {
        let index = st
            .instance(self.decomp.edge(edge).src)
            .versions(self.decomp, edge);
        let mut visit = |k: &Tuple, cell: &Arc<VersionCell<NodeRef>>| {
            if st.tuple.matches(k) {
                if let Some(child) = cell.resolve(self.snap, self.guard) {
                    return f(self, k, child);
                }
            }
            ControlFlow::Continue(())
        };
        match bounds {
            Some((lo, hi)) => index.scan_range(lo.as_ref(), hi.as_ref(), &mut visit),
            None => index.scan(&mut visit),
        }
    }
}
