//! The MVCC write path and the snapshot edge view.
//!
//! Every locked write in [`crate::exec`] is a version pushed onto the
//! written entry's chain in the instance's *version index* (see
//! [`crate::instance::VersionIndex`]): a lock-free map from entry key to
//! that entry's version chain, in the shape of the edge's container kind —
//! one inline chain for an edge that holds at most one entry, a
//! split-ordered hash list with embedded chains for a hash-keyed edge, a
//! skip list with embedded chains for every other. The index is all the
//! edge has, so the push is the whole write
//! ([`VersionIndex::write`](relc_containers::VersionIndex::write)).
//! This module never sees a chain: it writes entries, reads them at a
//! timestamp, and asks the index to retire them. All versions written by
//! one transaction attempt share one [`CommitStamp`]; the commit path
//! ([`crate::commit::commit`], where the whole ordering argument lives)
//! stamps it through the global [`commit clock`](relc_locks::commit_clock)
//! *before* the lock engine releases anything, so a version's stamp being
//! `≤` a reader's snapshot implies the whole owning transaction committed
//! before that snapshot.
//!
//! A fused edge ([`crate::lower`]) is written like any other: its entry's
//! versions carry the row of its target's dependent columns
//! ([`Child::Row`](crate::instance::Child::Row)) where an unfused entry's
//! carry the child instance, so one version cell holds the history of the
//! entry *and* of the Singleton tail it stands for. An in-place update of a
//! dependent column is one push onto that cell, under the parent edge's
//! lock, which is where the tail's lock lives.
//!
//! Snapshot readers ([`crate::relation::SnapshotReader`]) run the same
//! compiled plans through the same evaluator ([`crate::query`]) as locked
//! reads; only the edge view differs. [`Snapshot`] reads the same version
//! indexes as the locked view, resolving at each edge the newest version
//! committed at or before its timestamp instead of the head, under one
//! epoch guard held for the whole traversal (the indexes pin nothing
//! themselves and hand back borrows good for that guard).
//!
//! # Version retirement
//!
//! At commit (locks still held), the committer computes the oldest
//! snapshot any in-flight reader holds
//! ([`SnapshotRegistry::min_active`](relc_locks::SnapshotRegistry::min_active))
//! once, then revisits every entry in its write journal. The journal
//! names entries — `(host, edge, key)` — and holds no pointer into an
//! index: the entry is found again by key, under the commit's guard,
//! along the path the attempt's own write just warmed. That is what lets
//! a chain live *inside* its index node rather than behind a shared
//! pointer. Retiring an entry truncates versions strictly older than the
//! newest version at or below the floor and — if the whole remaining
//! history is one committed tombstone at or below it — drops the entry
//! from the index (a multi-entry index unlinks the node and defers it, with
//! the chain it embeds, through the epoch collector, so retirement shows
//! up in `ReclamationStats`; a one-chain index empties its chain).
//! Entries are only ever mutated or unlinked by a transaction holding the
//! entry's 2PL write locks, which is what makes the chains single-writer
//! — for a one-entry edge too, whose every writer holds the lock of the
//! entry present. An entry tombstoned while an old reader was still live
//! is retired the next time *any* transaction writes that entry, when a
//! later commit's sweep step reaches it, or when the relation drops; it
//! is never reclaimed behind a lock-free reader's back.
//!
//! Where one physical lock guards a whole edge container instance, a
//! commit also takes one bounded step of the edge's resumable index sweep
//! ([`MvccScope::retire`]): `max(64, 4 ×` the edge's journaled entries`)`
//! entries onward from where the previous step stopped, wrapping at the
//! end. The work under the lock is proportional to the write, not to the
//! index, and every entry of an N-entry index is still revisited within
//! ⌈N / 64⌉ sweeping commits.
//!
//! # Rollback
//!
//! The same journal is the attempt's undo log — the only one. An entry's
//! chain holds at most one version per attempt (same-stamp pushes
//! collapse), on top of the value the attempt found, so an attempt that
//! does not commit is taken back physically
//! ([`MvccScope::roll_back`]): newest journal entry first, drop the
//! attempt's version from the entry's chain. Every edge is its index alone,
//! so that is the whole rollback, on every kind: an entry the attempt
//! created leaves with its node, and nothing is written back. Every
//! journaled entry was written under a lock the attempt still holds, so
//! rollback acquires nothing, plans nothing and cannot restart; it
//! re-links the *same* instances the attempt unlinked, so §4.1 sharing is
//! restored rather than rebuilt; and it never touches the commit clock —
//! the stamp of an attempt that rolled back stays tentative and dies with
//! its versions.

use std::collections::HashSet;
use std::convert::Infallible;
use std::ops::{Bound, ControlFlow, Range};
use std::sync::Arc;

use relc_containers::epoch::Guard;
use relc_locks::{CommitStamp, LockMode};
use relc_spec::{ColumnSet, Tuple};

use crate::commit::Participant;
use crate::decomp::{Decomposition, EdgeId};
use crate::instance::{Child, NodeInstance, NodeRef, VersionIndex};
use crate::lower::Fusion;
use crate::placement::LockPlacement;
use crate::query::{EdgeView, Entry, Frame, KeyBounds, Row};

/// The least number of entries one commit's step of a version index's
/// sweep visits ([`MvccScope::retire`]); a commit that journaled `w`
/// entries of the index visits `max(SWEEP_BUDGET, 4w)`.
const SWEEP_BUDGET: usize = 64;

/// One write: where to find the entry again when the attempt
/// ends — at commit for truncation and dead-entry purge, at rollback to
/// take the write back. The index is re-entered by key — the attempt wrote
/// this entry moments ago, so the path to it is warm, and the journal holds
/// no reference into the index's memory.
pub(crate) struct JournalEntry {
    /// The instance whose version index holds the entry.
    pub host: NodeRef,
    /// The outgoing edge the entry belongs to.
    pub edge: EdgeId,
    /// The entry key within the edge.
    pub key: Tuple,
}

/// Per-transaction-attempt MVCC state, owned by the executor: the shared
/// commit stamp (created lazily on the first write, so
/// read-only and no-op transactions never touch the clock) and the write
/// journal, revisited when the attempt ends: by [`MvccScope::retire`] if
/// it commits, by [`MvccScope::roll_back`] if it does not.
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

    /// The stamp, if any write created one.
    pub fn stamp_opt(&self) -> Option<&Arc<CommitStamp>> {
        self.stamp.as_ref()
    }

    /// Pre-seeds the stamp (cross-shard attempts share one stamp).
    ///
    /// A late injection — after a write already lazily created a
    /// stamp — would split one attempt's versions across two
    /// `CommitStamp`s and break single-timestamp atomic visibility, so
    /// this asserts in release builds too (it is a once-per-attempt
    /// path; the cost is negligible).
    pub fn set_stamp(&mut self, stamp: Arc<CommitStamp>) {
        assert!(
            self.stamp.is_none(),
            "stamp injection must precede every write"
        );
        self.stamp = Some(stamp);
    }

    /// Writes entry `key` of `host`'s edge `edge` — a version stamped with
    /// this attempt's stamp, `None` a tombstone, pushed onto the entry's
    /// chain in the edge's index — journals it, and returns whether the
    /// entry was present before. Caller must hold the entry's placement
    /// write locks, which serializes all same-entry mutation.
    pub fn write(
        &mut self,
        decomp: &Decomposition,
        host: &NodeRef,
        edge: EdgeId,
        key: Tuple,
        value: Option<Child>,
        guard: &Guard,
    ) -> bool {
        let was = host
            .versions(decomp, edge)
            .write(&key, self.stamp(), value, guard);
        self.journal(host, edge, key);
        was
    }

    /// Moves entry `old_key` of `host`'s edge `edge` to `new_key`, holding
    /// `child` — two versions of one stamp, a tombstone at `old_key` and
    /// `child` at `new_key`, which collapse to one where the keys coincide
    /// — journals both keys, and returns whether the entry was present.
    /// Same contract as [`write`](Self::write).
    pub fn move_entry(
        &mut self,
        decomp: &Decomposition,
        host: &NodeRef,
        edge: EdgeId,
        (old_key, new_key): (Tuple, Tuple),
        child: Child,
        guard: &Guard,
    ) -> bool {
        let stamp = self.stamp();
        let index = host.versions(decomp, edge);
        let was = index.write(&old_key, Arc::clone(&stamp), None, guard);
        index.write(&new_key, stamp, Some(child), guard);
        self.journal(host, edge, old_key);
        self.journal(host, edge, new_key);
        was
    }

    fn journal(&mut self, host: &NodeRef, edge: EdgeId, key: Tuple) {
        self.journal.push(JournalEntry {
            host: Arc::clone(host),
            edge,
            key,
        });
    }

    /// Commit-side maintenance, run with the attempt's locks still held
    /// and its stamp already committed: truncate every journaled entry to
    /// the retirement floor `min_active` and drop entries whose whole
    /// visible history is one committed tombstone at or below it.
    ///
    /// Where the placement guards a whole edge container instance with
    /// one physical lock
    /// (`!`[`LockPlacement::admits_container_concurrency`]), each distinct
    /// journaled `(host, edge)` also takes one step of its version index's
    /// resumable [sweep](crate::instance::VersionIndex::sweep), of
    /// `max(`[`SWEEP_BUDGET`]`, 4 ×` that edge's journaled entries`)`
    /// entries. A dead entry that a live reader pinned at *its*
    /// committing transaction's retirement can only otherwise be
    /// reclaimed by a later write of the same entry key — and on
    /// value-keyed edges (a weight sink, say) the same key rarely
    /// recurs, so those corpses would pile up and every snapshot scan
    /// would crawl them forever. The steps walk the index round, so every
    /// entry of an N-entry index is revisited within ⌈N / 64⌉ sweeping
    /// commits, while the work under the lock stays proportional to the
    /// write rather than to the index. Sweeping is safe exactly because
    /// this attempt holds that single per-instance lock exclusively for
    /// every journaled edge, so no other writer can be mutating *any*
    /// entry of the index. Speculative edges (present entries locked at
    /// per-entry targets) and edges striped by entry-key columns (another
    /// stripe's writer may hold another stripe) keep the
    /// journaled-entries-only rule — there, the entry keys are relation
    /// keys, which workloads do rewrite.
    pub fn retire(&self, placement: &LockPlacement, min_active: u64, guard: &Guard) {
        let decomp = placement.decomposition();
        // One per distinct `(host, edge)` — one index — with its count of
        // journaled entries.
        let mut sweeps: Vec<(&VersionIndex, usize)> = Vec::new();
        for entry in &self.journal {
            let index = entry.host.versions(decomp, entry.edge);
            index.retire(&entry.key, min_active, guard);
            if placement.admits_container_concurrency(entry.edge) {
                continue;
            }
            match sweeps
                .iter_mut()
                .find(|(swept, _)| std::ptr::eq(*swept, index))
            {
                Some((_, writes)) => *writes += 1,
                None => sweeps.push((index, 1)),
            }
        }
        for (index, writes) in sweeps {
            index.sweep(min_active, SWEEP_BUDGET.max(4 * writes), guard);
        }
    }

    /// Takes back every write of an attempt that will not commit, newest
    /// first, with the attempt's locks still held: per journal entry, drop
    /// the attempt's version from the entry's chain
    /// ([`VersionIndex::revert`](relc_containers::VersionIndex::revert)),
    /// which leaves the entry as the attempt found it — holding the same
    /// instance, or gone. Deliberately handed nothing but
    /// the decomposition: no engine, no plans, no clock. See the module
    /// docs.
    ///
    /// Does nothing when there is nothing to take back: no write,
    /// a journal already rolled back (this consumes it), or a stamp that
    /// has published — a committed attempt's journal is only waiting to be
    /// dropped, which it is with the attempt, after its locks are gone, so
    /// that freeing the instances it unlinked is off the lock path.
    pub fn roll_back(&mut self, decomp: &Decomposition) {
        let Some(stamp) = self.stamp.as_ref().filter(|s| !s.is_committed()) else {
            return;
        };
        let guard = relc_containers::epoch::pin();
        while let Some(JournalEntry { host, edge, key }) = self.journal.pop() {
            host.versions(decomp, edge).revert(&key, stamp, &guard);
        }
    }
}

/// Stamps and retires the MVCC scopes of one committing attempt. Must run
/// while the attempt's locks are still held and strictly before any engine
/// releases: that ordering is the whole commit-visibility argument (see
/// [`crate::commit::commit`], the only caller). An attempt that does not
/// commit never gets here: it is taken back by [`MvccScope::roll_back`],
/// which leaves nothing to stamp.
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
    parts: &mut [Option<Participant<'_>>],
    publish: impl FnOnce(&mut [Option<Participant<'_>>], u64),
) {
    let clock = relc_locks::commit_clock();
    let Some(ts) = parts
        .iter()
        .flatten()
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
    for p in parts.iter().flatten() {
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
/// * no entry's chain is empty (a rollback unlinks an entry it emptied);
/// * chain stamps are strictly decreasing newest-first;
/// * no tentative stamp survives quiescence (an attempt either commits
///   its stamp or drops its versions — [`MvccScope::roll_back`]);
/// * after compacting each chain to the current retirement floor, at
///   most one version sits at or below the floor (the keeper —
///   [`relc_containers::VersionCell::truncate`]'s postcondition).
///
/// As a side effect every index is swept to the current floor, exactly
/// as a committing writer holding its lock would; at quiescence that is
/// sound and exercises the retirement path. The first three checks run
/// before the sweep, which would unlink an empty entry as dead.
pub(crate) fn verify_versions(
    decomp: &Decomposition,
    root: &NodeRef,
    registry: &relc_locks::SnapshotRegistry,
) -> Result<(), String> {
    let floor = registry.min_active(relc_locks::commit_clock());
    let guard = relc_containers::epoch::pin();
    let mut seen: HashSet<*const NodeInstance> = HashSet::new();
    let mut stack: Vec<NodeRef> = vec![Arc::clone(root)];
    while let Some(inst) = stack.pop() {
        if !seen.insert(Arc::as_ptr(&inst)) {
            continue;
        }
        let meta = decomp.node(inst.node());
        for &e in &meta.outgoing {
            let ename = format!("{}→{}", meta.name, decomp.node(decomp.edge(e).dst).name);
            inst.scan(
                decomp,
                e,
                Bound::Unbounded,
                Bound::Unbounded,
                &mut |_, child| {
                    stack.extend(child.node().cloned());
                    ControlFlow::Continue(())
                },
            );
            let index = inst.versions(decomp, e);
            let mut err: Option<String> = None;
            let mut fault = |k: Option<&Tuple>, fault: String| {
                err.get_or_insert(format!(
                    "version chain for {k:?} on {ename} of instance {:?} {fault}",
                    inst.key()
                ));
            };
            // Before the sweep, which unlinks an entry with no version as
            // dead: such an entry is what a rollback that forgot to unlink
            // an entry it emptied leaves.
            index.chains(&guard, |k, stamps| {
                if stamps.is_empty() {
                    fault(k, "is empty".to_owned());
                } else if let Some(w) = stamps.windows(2).find(|w| w[0].0 <= w[1].0) {
                    fault(
                        k,
                        format!("is not strictly decreasing: {} then {}", w[0].0, w[1].0),
                    );
                } else if stamps.iter().any(|&(s, _)| s == u64::MAX) {
                    fault(k, "holds a tentative stamp at quiescence".to_owned());
                }
            });
            index.sweep(floor, usize::MAX, &guard);
            index.chains(&guard, |k, stamps| {
                let below = stamps.iter().filter(|&&(s, _)| s <= floor).count();
                if below > 1 {
                    fault(
                        k,
                        format!("keeps {below} versions at or below the retirement floor {floor}"),
                    );
                }
            });
            if let Some(err) = err {
                return Err(err);
            }
        }
    }
    Ok(())
}

/// Total number of versions across every version chain reachable from
/// `root`, counted per logical entry (test support; surfaced through
/// [`ConcurrentRelation::version_footprint`](crate::ConcurrentRelation::version_footprint)):
/// a fused entry's chain stands for its own edge's entry and each of its
/// tail edges' ([`crate::lower`]), so each of its versions counts once per
/// edge it stands for, and a footprint reads the same whichever form the
/// decomposition is instantiated in. Unlike [`verify_versions`] this is
/// pure observation: no truncation, no invariant checks — so a retirement
/// regression can compare footprints before/after churn without
/// perturbing the chains.
pub(crate) fn version_footprint(decomp: &Decomposition, fusion: &Fusion, root: &NodeRef) -> usize {
    let guard = relc_containers::epoch::pin();
    let mut total = 0usize;
    let mut seen: HashSet<*const NodeInstance> = HashSet::new();
    let mut stack: Vec<NodeRef> = vec![Arc::clone(root)];
    while let Some(inst) = stack.pop() {
        if !seen.insert(Arc::as_ptr(&inst)) {
            continue;
        }
        for &e in &decomp.node(inst.node()).outgoing {
            inst.scan(
                decomp,
                e,
                Bound::Unbounded,
                Bound::Unbounded,
                &mut |_, child| {
                    stack.extend(child.node().cloned());
                    ControlFlow::Continue(())
                },
            );
            let edges = if fusion.is_fused(e) {
                1 + decomp.node(decomp.edge(e).dst).outgoing.len()
            } else {
                1
            };
            inst.versions(decomp, e)
                .chains(&guard, |_, stamps| total += edges * stamps.len());
        }
    }
    total
}

/// The snapshot edge view: the version indexes as of commit timestamp
/// `snap`, read under the epoch `guard` that keeps truncated version nodes
/// and purged cells alive for the whole traversal. A step's locks are not
/// taken and a §4.5 speculative lookup is a plain one: the versions a
/// snapshot resolves are immutable once committed, so nothing can restart.
///
/// A row binds a node instance as a `&'g NodeRef` borrowed from the
/// version that holds it — or copies a fused entry's row of dependent
/// columns out of the version into its slots — and no reference count is
/// touched. The borrow
/// is good for the guard's lifetime `'g`: [`VersionIndex::get`] and
/// [`VersionIndex::walk`] hand out borrows of a version's value that live
/// as long as the guard, because a version leaves its chain only by being
/// retired through the epoch collector, which frees nothing a pinned
/// guard could still reach. The version owns the `Arc`, so the instance
/// it names — with the indexes inside it, which the next step reads —
/// outlives the guard too. Induction from the root, which the reader's
/// representation owns for longer still, covers every handle a row holds.
pub(crate) struct Snapshot<'g> {
    pub decomp: &'g Decomposition,
    pub snap: u64,
    pub guard: &'g Guard,
}

/// A version's value as the evaluator takes it: the instance it names,
/// or a fused entry's row, each borrowed for the guard's lifetime.
fn entry(child: &Child) -> Entry<&NodeRef, &Tuple> {
    match child {
        Child::Node(node) => Entry::Node(node),
        Child::Row(row) => Entry::Row(row),
    }
}

impl<'g> EdgeView for Snapshot<'g> {
    type Node = &'g NodeRef;
    type Row = &'g Tuple;
    type Restart = Infallible;

    fn lock(
        &mut self,
        _: &Frame<&'g NodeRef>,
        _: ColumnSet,
        _: EdgeId,
        _: LockMode,
        _: bool,
        _: bool,
    ) -> Result<(), Infallible> {
        Ok(())
    }

    fn follow(
        &mut self,
        row: Row<'_, &'g NodeRef>,
        edge: EdgeId,
        key: &Tuple,
        _spec: Option<LockMode>,
    ) -> Result<Option<Entry<&'g NodeRef, &'g Tuple>>, Infallible> {
        let src: &'g NodeRef = row.node(self.decomp.edge(edge).src);
        Ok(src
            .versions(self.decomp, edge)
            .get(key, self.snap, self.guard)
            .map(entry))
    }

    fn walk(
        &mut self,
        src: &&'g NodeRef,
        edge: EdgeId,
        bounds: Option<&KeyBounds>,
        mut f: impl FnMut(&mut Self, &Tuple, Entry<&&'g NodeRef, &Tuple>) -> ControlFlow<()>,
    ) {
        let (lo, hi) = match bounds {
            Some((lo, hi)) => (lo.as_ref(), hi.as_ref()),
            None => (Bound::Unbounded, Bound::Unbounded),
        };
        src.versions(self.decomp, edge).walk(
            lo,
            hi,
            self.snap,
            self.guard,
            |k, child| match entry(child) {
                Entry::Node(node) => f(self, k, Entry::Node(&node)),
                Entry::Row(row) => f(self, k, Entry::Row(row)),
            },
        );
    }

    /// Group prefetch (Chen, Ailamaki, Gibbons & Mowry, ICDE 2004): one
    /// pass per hop of a read of `edge` over every row of the group — the
    /// source instance, its edge slot, the version index's entry point,
    /// and the hop after it — so the group's misses on each hop overlap
    /// instead of queueing behind one another row by row.
    fn prefetch(&self, rows: &Frame<&'g NodeRef>, edge: EdgeId, group: Range<usize>) {
        let src = self.decomp.edge(edge).src;
        let inst = |i| rows.instance(i, src);
        for slot in [false, true] {
            for i in group.clone() {
                inst(i).prefetch(self.decomp, edge, slot);
            }
        }
        for beyond in [false, true] {
            for i in group.clone() {
                inst(i)
                    .versions(self.decomp, edge)
                    .prefetch(beyond, self.guard);
            }
        }
    }
}
