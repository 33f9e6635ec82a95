//! [`VersionIndex`] — all three shapes, read at a snapshot and through its
//! newest view — against a model, under drop tracking, and under
//! concurrent snapshot readers; the hash shape also while concurrent
//! writers grow its table.
//!
//! The commit clock, the version counters and the epoch domain are
//! process-global, so the tests in this binary serialize on a mutex.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Bound, ControlFlow};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};

use proptest::prelude::*;
use relc_containers::testsupport::{DropCounter, DropFamily};
use relc_containers::{epoch, reclamation_flush, version_stats, ContainerKind, VersionIndex};
use relc_locks::{commit_clock, CommitStamp, SnapshotRegistry};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const ONE: ContainerKind = ContainerKind::Singleton;
/// A kind whose index has the sorted shape, walked in key order.
const SORTED: ContainerKind = ContainerKind::ConcurrentSkipListMap;
/// A kind whose index has the hash shape, walked in its own order.
const HASH: ContainerKind = ContainerKind::HashMap;
/// The multi-entry shapes.
const MULTI: [ContainerKind; 2] = [SORTED, HASH];

/// A walk's visits as the model lists them: in key order, which the hash
/// shape does not walk in (a duplicate visit still shows).
fn in_key_order(kind: ContainerKind, mut visits: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
    if kind == HASH {
        visits.sort_unstable();
    }
    visits
}

// ---------------------------------------------------------------------
// Model equivalence.
// ---------------------------------------------------------------------

/// Keys of the model tests: a few, so that attempts collide.
const KEYS: i64 = 6;
/// Keys of the hash shape's resize test: enough live entries to grow its
/// table three times (past 8, 16 and 32 entries).
const MANY_KEYS: i64 = 64;

#[derive(Debug, Clone)]
enum Retire {
    Nothing,
    Written,
    Sweep,
}

#[derive(Debug, Clone)]
enum Op {
    /// One transaction attempt: its writes (`None` = tombstone; a key
    /// written twice is a same-stamp rewrite), whether it then rolls back
    /// (reverting what it wrote, newest first, and committing nothing), and
    /// otherwise what it retires once its stamp has committed — at a floor
    /// `floor_back` commits old.
    Attempt {
        writes: Vec<(i64, Option<i64>)>,
        abort: bool,
        retire: Retire,
        floor_back: usize,
    },
    /// Snapshot reads `back` commits in the past: every key's `get`, the
    /// full `walk`, and the `walk` over `[lo, hi)`.
    Read { back: usize, lo: i64, hi: i64 },
}

fn op_strategy(keys: i64, writes: std::ops::Range<usize>) -> impl Strategy<Value = Op> {
    let write = (0..keys, proptest::option::of(0i64..1000));
    prop_oneof![
        (
            proptest::collection::vec(write, writes),
            any::<bool>(),
            prop_oneof![
                Just(Retire::Nothing),
                Just(Retire::Written),
                Just(Retire::Sweep)
            ],
            0usize..4,
        )
            .prop_map(|(writes, abort, retire, floor_back)| Op::Attempt {
                writes,
                abort,
                retire,
                floor_back,
            }),
        (0usize..4, 0..keys, 0..keys + 1).prop_map(|(back, lo, hi)| Op::Read { back, lo, hi }),
    ]
}

/// The reference: each of `keys` keys' committed history, oldest first.
struct Model {
    keys: i64,
    history: BTreeMap<i64, Vec<(u64, Option<i64>)>>,
}

impl Model {
    fn at(&self, key: i64, snap: u64) -> Option<i64> {
        let versions = self.history.get(&key)?;
        versions.iter().rev().find(|(ts, _)| *ts <= snap)?.1
    }

    fn live_at(&self, snap: u64) -> Vec<(i64, i64)> {
        (0..self.keys)
            .filter_map(|k| self.at(k, snap).map(|v| (k, v)))
            .collect()
    }

    /// Every key's newest committed value.
    fn newest(&self) -> BTreeMap<i64, Option<i64>> {
        (0..self.keys).map(|k| (k, self.at(k, u64::MAX))).collect()
    }
}

fn walk(
    index: &VersionIndex<i64, i64>,
    lo: Bound<&i64>,
    hi: Bound<&i64>,
    snap: u64,
) -> Vec<(i64, i64)> {
    let guard = epoch::pin();
    let mut out = Vec::new();
    index.walk(lo, hi, snap, &guard, |k, v| {
        out.push((*k, *v));
        ControlFlow::Continue(())
    });
    out
}

/// The newest view against `state`, the value each key holds as the last
/// writer left it: every key's lookup, the walk over `[lo, hi)` and over
/// everything, and whether the view is empty.
fn check_newest(
    kind: ContainerKind,
    index: &VersionIndex<i64, i64>,
    state: &BTreeMap<i64, Option<i64>>,
    (lo, hi): (i64, i64),
    when: &str,
) {
    let guard = epoch::pin();
    let newest = index.newest();
    for &key in state.keys() {
        assert_eq!(
            newest.get(&key, &guard).copied(),
            state[&key],
            "{kind}: newest get({key}) {when}"
        );
    }
    let live: Vec<(i64, i64)> = state
        .iter()
        .filter_map(|(&k, v)| v.map(|v| (k, v)))
        .collect();
    let walk = |lo: Bound<&i64>, hi: Bound<&i64>| {
        let mut out = Vec::new();
        newest.walk(lo, hi, &guard, |k, v| {
            out.push((*k, *v));
            ControlFlow::Continue(())
        });
        in_key_order(kind, out)
    };
    assert_eq!(
        walk(Bound::Unbounded, Bound::Unbounded),
        live,
        "{kind}: newest walk {when}"
    );
    let inside: Vec<_> = live
        .iter()
        .copied()
        .filter(|(k, _)| (lo..hi).contains(k))
        .collect();
    assert_eq!(
        walk(Bound::Included(&lo), Bound::Excluded(&hi)),
        inside,
        "{kind}: newest walk over [{lo}, {hi}) {when}"
    );
    assert_eq!(
        newest.is_empty(),
        live.is_empty(),
        "{kind}: newest is_empty {when}"
    );
}

/// One attempt's writes, applied to the index and to the model's view of
/// the state the attempt will commit.
struct Attempt<'a> {
    kind: ContainerKind,
    index: &'a VersionIndex<i64, i64>,
    stamp: Arc<CommitStamp>,
    guard: &'a epoch::Guard,
    state: BTreeMap<i64, Option<i64>>,
    written: Vec<i64>,
}

impl Attempt<'_> {
    fn write(&mut self, key: i64, value: Option<i64>) {
        self.index
            .write(&key, Arc::clone(&self.stamp), value, self.guard);
        if self.kind == ONE && value.is_some() {
            // A live write is the one-entry edge's whole new state.
            for (k, v) in self.state.iter_mut() {
                if *k != key && v.is_some() {
                    *v = None;
                    self.written.push(*k);
                }
            }
        }
        self.state.insert(key, value);
        self.written.push(key);
        // The attempt's own tentative writes are the newest state.
        let when = format!("after the attempt wrote {key} := {value:?}");
        check_newest(self.kind, self.index, &self.state, (key, key + 2), &when);
    }
}

fn check_model(kind: ContainerKind, keys: i64, ops: &[Op]) {
    let _serial = serialize();
    let clock = commit_clock();
    let index: VersionIndex<i64, i64> = VersionIndex::for_kind(kind);
    let mut model = Model {
        keys,
        history: BTreeMap::new(),
    };
    // Own commit timestamps, and the highest floor retired at so far: a
    // reader older than a floor a writer used cannot exist in the system.
    let mut times: Vec<u64> = vec![clock.now()];
    let mut floor = 0u64;
    let pick = |times: &[u64], back: usize, floor: u64| {
        times[times.len() - 1 - back.min(times.len() - 1)].max(floor)
    };
    for op in ops {
        // Every op leaves the index at the model's newest committed state.
        check_newest(
            kind,
            &index,
            &model.newest(),
            (1, keys - 1),
            "between attempts",
        );
        match op {
            Op::Attempt {
                writes,
                abort,
                retire,
                floor_back,
            } => {
                let guard = epoch::pin();
                let now = *times.last().unwrap();
                let before: BTreeMap<i64, Option<i64>> =
                    (0..keys).map(|k| (k, model.at(k, now))).collect();
                let mut attempt = Attempt {
                    kind,
                    index: &index,
                    stamp: CommitStamp::new(),
                    guard: &guard,
                    state: before.clone(),
                    written: Vec::new(),
                };
                for &(key, value) in writes {
                    attempt.write(key, value);
                }
                if *abort {
                    // Every written entry goes back to what the attempt
                    // found, and readers at every snapshot see no trace.
                    for key in attempt.written.iter().rev() {
                        assert_eq!(
                            index.revert(key, &attempt.stamp, &guard).copied(),
                            before[key],
                            "{kind}: revert({key})"
                        );
                    }
                    index.chains(&guard, |key, stamps| {
                        assert!(
                            !stamps.is_empty() && stamps.iter().all(|&(s, _)| s <= now),
                            "{kind} {key:?}: {stamps:?} kept a reverted version or entry"
                        );
                    });
                    check_newest(kind, &index, &before, (0, keys), "after revert");
                    continue;
                }
                let Attempt {
                    stamp,
                    state,
                    mut written,
                    ..
                } = attempt;
                let ts = clock.commit(&stamp);
                times.push(ts);
                written.sort_unstable();
                written.dedup();
                for &key in &written {
                    model
                        .history
                        .entry(key)
                        .or_default()
                        .push((ts, state[&key]));
                }
                let at = pick(&times, *floor_back, floor);
                match retire {
                    Retire::Nothing => continue,
                    Retire::Written => written.iter().for_each(|k| index.retire(k, at, &guard)),
                    Retire::Sweep => {
                        index.sweep(at, usize::MAX, &guard);
                        index.chains(&guard, |key, stamps| {
                            let old = stamps.iter().filter(|(s, _)| *s <= at).count();
                            let dead = stamps.len() == 1 && old == 1 && !stamps[0].1;
                            assert!(
                                old <= 1 && !dead,
                                "{kind} {key:?}: {stamps:?} survived a sweep at {at}"
                            );
                        });
                    }
                }
                floor = at;
            }
            Op::Read { back, lo, hi } => {
                let snap = pick(&times, *back, floor);
                let live = model.live_at(snap);
                if kind == ONE {
                    assert!(live.len() <= 1, "a one-entry edge held {live:?} at {snap}");
                }
                let guard = epoch::pin();
                for key in 0..keys {
                    assert_eq!(
                        index.get(&key, snap, &guard).copied(),
                        model.at(key, snap),
                        "{kind}: get({key}) at {snap}"
                    );
                }
                assert_eq!(
                    in_key_order(kind, walk(&index, Bound::Unbounded, Bound::Unbounded, snap)),
                    live,
                    "{kind}: walk at {snap}"
                );
                let inside: Vec<_> = live
                    .iter()
                    .copied()
                    .filter(|(k, _)| (*lo..*hi).contains(k))
                    .collect();
                assert_eq!(
                    in_key_order(
                        kind,
                        walk(&index, Bound::Included(lo), Bound::Excluded(hi), snap)
                    ),
                    inside,
                    "{kind}: walk over [{lo}, {hi}) at {snap}"
                );
                check_newest(kind, &index, &model.newest(), (*lo, *hi), "beside a read");
            }
        }
    }
    check_newest(kind, &index, &model.newest(), (0, keys), "at the end");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sorted_shape_matches_model(ops in proptest::collection::vec(op_strategy(KEYS, 1..5), 1..80)) {
        check_model(SORTED, KEYS, &ops);
    }

    #[test]
    fn hash_shape_matches_model(ops in proptest::collection::vec(op_strategy(KEYS, 1..5), 1..80)) {
        check_model(HASH, KEYS, &ops);
    }

    #[test]
    fn one_chain_shape_matches_model(ops in proptest::collection::vec(op_strategy(KEYS, 1..5), 1..80)) {
        check_model(ONE, KEYS, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The hash shape over enough keys that its table grows while the
    /// model's attempts, rollbacks, retirements and reads go on: a first
    /// attempt links a third of the keys (two resizes), and the random
    /// attempts over all of them grow it past 32 entries.
    #[test]
    fn hash_shape_matches_model_across_resizes(
        ops in proptest::collection::vec(op_strategy(MANY_KEYS, 1..12), 1..60)
    ) {
        let first = Op::Attempt {
            writes: (0..MANY_KEYS / 3).map(|k| (k, Some(k))).collect(),
            abort: false,
            retire: Retire::Nothing,
            floor_back: 0,
        };
        let ops: Vec<Op> = std::iter::once(first).chain(ops).collect();
        check_model(HASH, MANY_KEYS, &ops);
    }
}

// ---------------------------------------------------------------------
// Drop tracking.
// ---------------------------------------------------------------------

/// One committed write of `key → value` (or a tombstone), retired at the
/// clock's present.
fn commit_write(index: &VersionIndex<i64, DropCounter>, key: i64, value: Option<DropCounter>) {
    let guard = epoch::pin();
    let stamp = CommitStamp::new();
    index.write(&key, Arc::clone(&stamp), value, &guard);
    let ts = commit_clock().commit(&stamp);
    index.retire(&key, ts, &guard);
}

/// A cell embedded in an unlinked node — and the versions truncated off a
/// chain — are destroyed exactly once ([`DropCounter`] panics on a second
/// drop), and only after every guard pinned before the unlink has dropped.
#[test]
fn retired_entries_are_destroyed_once_and_only_after_earlier_guards_drop() {
    let _serial = serialize();
    for kind in [SORTED, HASH, ONE] {
        let fam = DropFamily::new();
        let index: VersionIndex<i64, DropCounter> = VersionIndex::for_kind(kind);
        commit_write(&index, 7, Some(fam.make(1)));
        commit_write(&index, 8, Some(fam.make(2)));
        // What survives all of this test's retirement: on a multi-entry
        // shape entry 7; on the one-chain shape nothing (writing 8
        // replaced 7).
        let (kept, kept_versions) = if kind == ONE { (0, 0) } else { (1, 1) };
        reclamation_flush();
        assert_eq!(fam.live(), kept + 1, "{kind}");
        let v0 = version_stats().live() - kept_versions - 1;

        let held = epoch::pin();
        let snap = commit_clock().now();
        let seen = index.get(&8, snap, &held).expect("present at the snapshot");
        // Tombstone, then retire: the live version is truncated and the
        // entry, now one dead tombstone, is unlinked with its cell (multi-
        // entry shapes) or emptied (one chain) — all of it handed to the
        // collector, none of it destroyed while `held` is pinned.
        commit_write(&index, 8, None);
        assert!(index.get(&8, commit_clock().now(), &held).is_none());
        reclamation_flush();
        assert_eq!(seen.payload(), 2, "{kind}: the guard keeps what it read");
        assert_eq!(
            fam.live(),
            kept + 1,
            "{kind}: nothing freed under the guard"
        );
        if kind != ONE {
            // The tombstone lives in the unlinked node's embedded cell.
            assert_eq!(version_stats().live() - v0, kept_versions + 1);
        }

        drop(held);
        reclamation_flush();
        assert_eq!(fam.live(), kept, "{kind}: the retired value is freed");
        assert_eq!(version_stats().live() - v0, kept_versions, "{kind}");

        // Dropping the index frees what is still linked, once.
        drop(index);
        assert_eq!(fam.live(), 0, "{kind}");
        assert_eq!(fam.created(), fam.dropped(), "{kind}");
        assert_eq!(version_stats().live(), v0, "{kind}");
        assert_eq!(reclamation_flush().in_flight(), 0, "{kind}");
    }
}

// ---------------------------------------------------------------------
// Readers against a rewriting, reverting, retiring, unlinking writer.
// ---------------------------------------------------------------------

const SLOTS: i64 = 8;

/// Attempt `n` of the writer moves the one-entry edge from key `n - 1` to
/// key `n` (value `n`) and, under the same stamp, sets map entry `n % 8` to
/// `n` and tombstones map entry `(n + 4) % 8`; then it retires what it
/// wrote at the registry's floor, as a committing transaction does. A
/// reader at any snapshot must therefore find the pair intact: the one
/// entry `(n, n)` for the newest attempt `n` it can see, and `n` under map
/// key `n % 8` — a torn pair means a version leaked across a stamp.
///
/// Before it commits, each attempt first runs and *rolls back*: the same
/// writes with the value `-n`, plus a map entry (key `≥ 8`) that no
/// committed attempt ever holds, all reverted newest first under a stamp
/// that never commits. Readers must never see a negative value or such a
/// key, and a reverted entry must be gone from the index, not emptied.
///
/// The map index has the shape of `kind`: a sorted one must walk in key
/// order, a hash one must visit no key twice.
fn stress(kind: ContainerKind, attempts: i64) {
    let clock = commit_clock();
    let registry = SnapshotRegistry::new();
    let one: VersionIndex<i64, i64> = VersionIndex::for_kind(ONE);
    let map: VersionIndex<i64, i64> = VersionIndex::for_kind(kind);
    let done = AtomicBool::new(false);
    let newest = AtomicI64::new(0);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut reads = 0u64;
                    while !done.load(SeqCst) {
                        let floor = newest.load(SeqCst);
                        let reg = registry.register(clock);
                        let guard = epoch::pin();
                        let mut pair = None;
                        one.walk(
                            Bound::Unbounded,
                            Bound::Unbounded,
                            reg.snap(),
                            &guard,
                            |k, v| {
                                pair = Some((*k, *v));
                                ControlFlow::Continue(())
                            },
                        );
                        let Some((n, v)) = pair else {
                            assert_eq!(floor, 0, "the edge is never empty once written");
                            continue;
                        };
                        assert_eq!(n, v, "one-entry edge tore");
                        assert!(n >= floor, "snapshot went back in time: {n} < {floor}");
                        assert_eq!(one.get(&n, reg.snap(), &guard), Some(&n));
                        assert_eq!(
                            map.get(&(n % SLOTS), reg.snap(), &guard),
                            Some(&n),
                            "attempt {n} is visible in one index and not the other"
                        );
                        let mut prev = -1;
                        let mut seen = 0u64;
                        map.walk(
                            Bound::Unbounded,
                            Bound::Unbounded,
                            reg.snap(),
                            &guard,
                            |k, v| {
                                assert!(*v > 0 && *v % SLOTS == *k && *v <= n, "({k}, {v}) at {n}");
                                assert!(kind != SORTED || *k > prev, "{kind}: {k} after {prev}");
                                assert_eq!(seen & 1 << k, 0, "{kind}: {k} visited twice");
                                prev = *k;
                                seen |= 1 << k;
                                ControlFlow::Continue(())
                            },
                        );
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        for n in 1..=attempts {
            let guard = epoch::pin();
            let (set, cleared) = (n % SLOTS, (n + SLOTS / 2) % SLOTS);
            let doomed = CommitStamp::new();
            let journal = [
                (&one, n - 1, None),
                (&one, n, Some(-n)),
                (&map, set, Some(-n)),
                (&map, SLOTS + set, Some(-n)),
            ];
            for (index, key, value) in journal {
                index.write(&key, Arc::clone(&doomed), value, &guard);
            }
            for (index, key, _) in journal.iter().rev() {
                let found = index.revert(key, &doomed, &guard);
                assert!(found.is_none_or(|v| *v > 0 && *v < n), "({key}, {found:?})");
            }
            let stamp = CommitStamp::new();
            one.write(&(n - 1), Arc::clone(&stamp), None, &guard);
            one.write(&n, Arc::clone(&stamp), Some(n), &guard);
            map.write(&set, Arc::clone(&stamp), Some(n), &guard);
            map.write(&cleared, Arc::clone(&stamp), None, &guard);
            clock.commit(&stamp);
            newest.store(n, SeqCst);
            let floor = registry.min_active(clock);
            one.retire(&n, floor, &guard);
            if n % 64 == 0 {
                map.sweep(floor, usize::MAX, &guard);
            } else {
                map.retire(&set, floor, &guard);
                map.retire(&cleared, floor, &guard);
                map.sweep(floor, 3, &guard);
            }
        }
        done.store(true, SeqCst);
        for r in readers {
            assert!(r.join().unwrap() > 0, "a reader never completed a read");
        }
    });
    // Quiescent: one more sweep leaves one version per live entry.
    let guard = epoch::pin();
    let now = clock.now();
    one.sweep(now, usize::MAX, &guard);
    map.sweep(now, usize::MAX, &guard);
    let count = |index: &VersionIndex<i64, i64>| {
        let mut versions = 0;
        index.chains(&guard, |_, stamps| versions += stamps.len());
        versions
    };
    assert_eq!(count(&one), 1);
    assert_eq!(count(&map), (SLOTS / 2) as usize);
    map.chains(&guard, |key, _| {
        assert!(key.is_some_and(|k| *k < SLOTS), "{key:?}")
    });
    drop(guard);
    drop((one, map));
    assert_eq!(reclamation_flush().in_flight(), 0, "retired == reclaimed");
}

#[test]
fn snapshot_readers_never_see_a_torn_pair() {
    let _serial = serialize();
    for kind in MULTI {
        stress(kind, 20_000);
    }
}

/// Long form of [`snapshot_readers_never_see_a_torn_pair`] for the soak
/// step.
#[test]
#[ignore = "soak: run with --ignored"]
fn snapshot_readers_never_see_a_torn_pair_soak() {
    let _serial = serialize();
    for kind in MULTI {
        stress(kind, 1_000_000);
    }
}

// ---------------------------------------------------------------------
// The hash shape's table growing under concurrent writers and readers.
// ---------------------------------------------------------------------

/// Keys every round starts with and never writes again: present
/// throughout.
const STEADY: i64 = 48;
const WRITERS: i64 = 2;

/// Per round, a fresh hash-shaped index holding [`STEADY`] keys, then
/// [`WRITERS`] writers of disjoint key sets, each inserting `churn` keys of
/// its own and then removing them — a committed tombstone, retired at the
/// registry's floor until the entry is unlinked — while two snapshot
/// readers walk and probe. The inserts grow the table from one bucket to
/// `churn` of them, so every round crosses several resizes with readers on
/// the list and two writers linking entries and bucket sentinels at once.
/// Every reader's walk must visit each steady key exactly once, and a
/// probe of it must find it; nothing a reader sees may be a value no
/// writer wrote.
fn grow_under_readers(rounds: usize, churn: i64) {
    let clock = commit_clock();
    for _ in 0..rounds {
        let registry = SnapshotRegistry::new();
        let index: VersionIndex<i64, i64> = VersionIndex::for_kind(HASH);
        commit_all(&index, (0..STEADY).map(|k| (k, Some(k))));
        let writing = AtomicI64::new(WRITERS);
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|r| {
                    let (index, registry, writing) = (&index, &registry, &writing);
                    s.spawn(move || {
                        let mut reads = 0u64;
                        while writing.load(SeqCst) > 0 || reads == 0 {
                            let reg = registry.register(clock);
                            let guard = epoch::pin();
                            let mut steady = vec![0u8; STEADY as usize];
                            index.walk(
                                Bound::Unbounded,
                                Bound::Unbounded,
                                reg.snap(),
                                &guard,
                                |k, v| {
                                    assert_eq!(k, v, "a value no writer wrote");
                                    if *k < STEADY {
                                        steady[*k as usize] += 1;
                                    }
                                    ControlFlow::Continue(())
                                },
                            );
                            assert!(
                                steady.iter().all(|&n| n == 1),
                                "a walk visited the steady keys {steady:?} times"
                            );
                            let probe = (reads as i64 * 7 + r) % STEADY;
                            assert_eq!(index.get(&probe, reg.snap(), &guard), Some(&probe));
                            reads += 1;
                        }
                        reads
                    })
                })
                .collect();
            for w in 0..WRITERS {
                let (index, registry, writing) = (&index, &registry, &writing);
                s.spawn(move || {
                    let mine = (0..churn).map(|i| STEADY + i * WRITERS + w);
                    for key in mine.clone() {
                        commit_all(index, [(key, Some(key))]);
                    }
                    let mut linked: Vec<i64> = mine.collect();
                    for &key in &linked {
                        commit_all(index, [(key, None)]);
                    }
                    while !linked.is_empty() {
                        let guard = epoch::pin();
                        let floor = registry.min_active(clock);
                        linked
                            .iter()
                            .for_each(|key| index.retire(key, floor, &guard));
                        let mut left = BTreeSet::new();
                        index.chains(&guard, |k, _| {
                            left.extend(k.copied());
                        });
                        linked.retain(|key| left.contains(key));
                        std::thread::yield_now();
                    }
                    writing.fetch_sub(1, SeqCst);
                });
            }
            for r in readers {
                assert!(r.join().unwrap() > 0, "a reader never completed a read");
            }
        });
        let guard = epoch::pin();
        let mut left = Vec::new();
        index.chains(&guard, |k, stamps| {
            assert_eq!(stamps.len(), 1);
            left.push(*k.unwrap());
        });
        left.sort_unstable();
        assert_eq!(left, (0..STEADY).collect::<Vec<_>>());
        drop(guard);
        drop(index);
    }
    assert_eq!(reclamation_flush().in_flight(), 0, "retired == reclaimed");
}

#[test]
fn readers_find_every_steady_key_while_writers_grow_the_table() {
    let _serial = serialize();
    grow_under_readers(4, 1_024);
}

/// Long form of [`readers_find_every_steady_key_while_writers_grow_the_table`]
/// for the soak step.
#[test]
#[ignore = "soak: run with --ignored"]
fn readers_find_every_steady_key_while_writers_grow_the_table_soak() {
    let _serial = serialize();
    grow_under_readers(200, 8_192);
}

// ---------------------------------------------------------------------
// Budgeted sweep steps.
// ---------------------------------------------------------------------

/// Commits one write of every `(key, value)` under one stamp.
fn commit_all(
    index: &VersionIndex<i64, i64>,
    writes: impl IntoIterator<Item = (i64, Option<i64>)>,
) {
    let guard = epoch::pin();
    let stamp = CommitStamp::new();
    for (key, value) in writes {
        index.write(&key, Arc::clone(&stamp), value, &guard);
    }
    commit_clock().commit(&stamp);
}

/// A `kind`-shaped index over `keys`, each entry two committed versions
/// deep.
fn two_deep(
    kind: ContainerKind,
    keys: impl Iterator<Item = i64> + Clone,
) -> VersionIndex<i64, i64> {
    let index = VersionIndex::for_kind(kind);
    commit_all(&index, keys.clone().map(|k| (k, Some(k))));
    commit_all(&index, keys.map(|k| (k, Some(-k))));
    index
}

/// The index's keys in its own order: key order on the sorted shape, the
/// split-ordered list's on the hash shape. A sweep step goes round in it.
fn index_order(index: &VersionIndex<i64, i64>) -> Vec<i64> {
    let guard = epoch::pin();
    let mut keys = Vec::new();
    index.chains(&guard, |key, _| {
        keys.push(*key.expect("a multi-entry shape"))
    });
    keys
}

/// One sweep step at the present floor, and the entries it visited, in the
/// index's order: those whose chain it truncated to one version. Each of
/// them is pushed back to two versions, so the next step shows what *it*
/// visits.
fn step(index: &VersionIndex<i64, i64>, budget: usize) -> (usize, Vec<i64>) {
    let guard = epoch::pin();
    let count = index.sweep(commit_clock().now(), budget, &guard);
    let mut visited = Vec::new();
    index.chains(&guard, |key, stamps| {
        if stamps.len() == 1 {
            visited.push(*key.expect("a multi-entry shape"));
        }
    });
    commit_all(index, visited.iter().map(|&k| (k, Some(k))));
    (count, visited)
}

/// Consecutive steps walk the index round in its order: with `budget`
/// dividing N, every ⌈N / budget⌉ consecutive steps visit each entry
/// exactly once, also when the window straddles the end of the index;
/// otherwise each at least once and none more than twice. On the hash
/// shape the index also grows its table in between (the entries past the
/// first eight), which moves no entry of the round.
#[test]
fn budgeted_steps_visit_every_entry_once_per_round() {
    let _serial = serialize();
    let cases = [
        (12usize, 4usize),
        (12, 3),
        (10, 4),
        (7, 1),
        (5, 64),
        (40, 8),
    ];
    for (kind, (entries, budget)) in MULTI.into_iter().flat_map(|k| cases.map(|c| (k, c))) {
        let index = two_deep(kind, 0..entries as i64);
        // Start off the first entry so that rounds straddle the wrap.
        assert_eq!(step(&index, 1), (1, vec![index_order(&index)[0]]), "{kind}");
        let round = entries.div_ceil(budget);
        let exact = entries.is_multiple_of(budget) || budget >= entries;
        let mut order = Vec::new();
        for _ in 0..3 * round {
            let (count, visited) = step(&index, budget);
            assert_eq!(
                count,
                visited.len(),
                "{kind} {entries}/{budget}: {visited:?}"
            );
            order.push(visited);
        }
        for window in order.windows(round) {
            let mut seen = vec![0usize; entries];
            window.iter().flatten().for_each(|&k| seen[k as usize] += 1);
            assert!(
                seen.iter()
                    .all(|&n| if exact { n == 1 } else { (1..=2).contains(&n) }),
                "{kind} {entries}/{budget}: {window:?} visited {seen:?}"
            );
        }
    }
}

/// A step resumes at the cursor's successor when the cursor's own entry —
/// and the one after it — was unlinked between steps, and wraps to the
/// first entry when nothing is left after the cursor.
#[test]
fn a_step_resumes_past_an_unlinked_cursor() {
    let _serial = serialize();
    for kind in MULTI {
        let index = two_deep(kind, 0..10);
        let o = index_order(&index);
        let unlink = |keys: &[i64]| {
            commit_all(&index, keys.iter().map(|&k| (k, None)));
            let guard = epoch::pin();
            let now = commit_clock().now();
            keys.iter().for_each(|k| index.retire(k, now, &guard));
        };
        assert_eq!(step(&index, 3), (3, o[0..3].to_vec()), "{kind}");
        unlink(&[o[2], o[3]]);
        assert_eq!(step(&index, 3), (3, o[4..7].to_vec()), "{kind}");
        assert_eq!(step(&index, 3), (3, o[7..10].to_vec()), "{kind}");
        unlink(&[o[9]]);
        assert_eq!(step(&index, 2), (2, o[0..2].to_vec()), "{kind}");
    }
}

/// A step visits `min(budget, N)` entries of an N-entry index — never more
/// than its budget, and never one entry twice.
#[test]
fn a_step_never_visits_more_than_its_budget() {
    let _serial = serialize();
    for (kind, entries) in MULTI
        .into_iter()
        .flat_map(|k| [0i64, 1, 9, 70].map(|n| (k, n)))
    {
        let index = two_deep(kind, 0..entries);
        for budget in [0usize, 1, 2, 8, 9, 10, 64, 71, usize::MAX] {
            for _ in 0..3 {
                let (count, visited) = step(&index, budget);
                assert_eq!(
                    count,
                    budget.min(entries as usize),
                    "{kind} {entries}/{budget}"
                );
                assert_eq!(count, visited.len(), "{kind} {entries}/{budget}");
            }
        }
    }
    let one: VersionIndex<i64, i64> = VersionIndex::for_kind(ONE);
    let guard = epoch::pin();
    assert_eq!(
        one.sweep(commit_clock().now(), usize::MAX, &guard),
        0,
        "empty chain"
    );
    commit_all(&one, [(1, Some(1))]);
    assert_eq!(one.sweep(commit_clock().now(), 0, &guard), 0);
    assert_eq!(one.sweep(commit_clock().now(), 1, &guard), 1);
}

/// `usize::MAX` is the whole-index sweep, from wherever budgeted steps
/// left the cursor: it leaves the same chains as retiring every entry,
/// which is what the sweep did before it took a budget.
#[test]
fn an_unbounded_step_leaves_the_chains_a_whole_index_sweep_did() {
    let _serial = serialize();
    for kind in MULTI {
        unbounded_step_against_whole_index_sweep(kind);
    }
}

fn unbounded_step_against_whole_index_sweep(kind: ContainerKind) {
    let clock = commit_clock();
    let (swept, reference) = (VersionIndex::for_kind(kind), VersionIndex::for_kind(kind));
    let mut floor = 0;
    for round in 0..6i64 {
        // Both indexes get every write under one stamp, so their chains
        // compare stamp for stamp.
        let guard = epoch::pin();
        let stamp = CommitStamp::new();
        // Odd keys stop being written at the floor: those last tombstoned
        // by then are dead.
        for k in (0..40).filter(|k| (k + round) % 3 != 0 && (round <= 3 || k % 2 == 0)) {
            let tombstone = (k * 7 + round) % 5 == 0;
            for index in [&swept, &reference] {
                index.write(
                    &k,
                    Arc::clone(&stamp),
                    (!tombstone).then_some(k * 100 + round),
                    &guard,
                );
            }
        }
        clock.commit(&stamp);
        if round == 3 {
            floor = clock.now();
        }
    }
    let guard = epoch::pin();
    // Floor 0 truncates nothing: these steps only move the cursor.
    for budget in [7, 11, 5] {
        assert_eq!(swept.sweep(0, budget, &guard), budget);
    }
    let entries = {
        let mut n = 0;
        reference.chains(&guard, |_, _| n += 1);
        n
    };
    assert_eq!(swept.sweep(floor, usize::MAX, &guard), entries);
    let keys: Vec<i64> = (0..40).collect();
    keys.iter().for_each(|k| reference.retire(k, floor, &guard));
    let chains = |index: &VersionIndex<i64, i64>| {
        let mut out = Vec::new();
        index.chains(&guard, |key, stamps| out.push((*key.unwrap(), stamps)));
        out
    };
    let after = chains(&swept);
    assert!(after.len() < entries, "the floor unlinked no dead entry");
    assert_eq!(after, chains(&reference));
}
