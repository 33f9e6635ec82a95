//! Durability battery: kill-and-reopen crash simulation for the
//! write-ahead log. Crashes are simulated at the file level — run a
//! committed workload against a durable relation (recording a
//! per-commit oracle), copy the log directory, mutilate the copy the
//! way a crash would (truncate the log at arbitrary byte offsets, leave
//! a checkpoint temp file behind, rename a checkpoint without
//! truncating the log, drop a cross-shard commit marker), then recover
//! a fresh relation from the copy and check it equals the
//! committed-prefix oracle.
//!
//! Also covered: recovery idempotence (replay-twice is a no-op keyed on
//! the replay floor), the commit clock resuming strictly above the
//! highest replayed stamp, and the group-commit acceptance bound
//! (>= 2 commits per fsync under a concurrent commit workload).
//!
//! The commit core (`crates/core/src/commit.rs`) is covered here for both
//! relation flavours at once: the outcome table (what each way an attempt
//! can end leaves behind, in memory and in the logs), checkpoints racing
//! writers, and the maintenance fence's statistics.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use relc::decomp::library::{split, stick};
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, CoreError, ShardedRelation, TxnError, WalOptions};
use relc_containers::ContainerKind;
use relc_spec::{OracleRelation, SpecError, Tuple, Value};

mod support;

/// The commit clock is process-global; every test here serializes so
/// clock-resumption assertions are not perturbed by parallel tests.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Framed size of a cross-shard commit marker record:
/// magic(1) + kind(1) + len(4) + checksum(8) + ts payload(8).
const MARKER_FRAME_LEN: u64 = 22;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relc-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn graph() -> (
    Arc<relc::Decomposition>,
    Arc<relc::placement::LockPlacement>,
) {
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let p = LockPlacement::fine(&d).unwrap();
    (d, p)
}

fn key(rel: &ConcurrentRelation, s: i64, d: i64) -> Tuple {
    rel.schema()
        .tuple(&[("src", Value::from(s)), ("dst", Value::from(d))])
        .unwrap()
}

fn payload(rel: &ConcurrentRelation, w: i64) -> Tuple {
    rel.schema().tuple(&[("weight", Value::from(w))]).unwrap()
}

/// Full contents as a set of complete rows.
fn dump(rel: &ConcurrentRelation) -> HashSet<Tuple> {
    let all = rel.schema().columns();
    rel.query(&Tuple::empty(), all)
        .unwrap()
        .into_iter()
        .collect()
}

fn dump_sharded(rel: &ShardedRelation) -> HashSet<Tuple> {
    let all = rel.schema().columns();
    rel.query(&Tuple::empty(), all)
        .unwrap()
        .into_iter()
        .collect()
}

/// Materializes a `(src, dst) -> weight` oracle into full rows.
fn oracle_rows(rel: &ConcurrentRelation, m: &HashMap<(i64, i64), i64>) -> HashSet<Tuple> {
    m.iter()
        .map(|(&(s, d), &w)| {
            rel.schema()
                .tuple(&[
                    ("src", Value::from(s)),
                    ("dst", Value::from(d)),
                    ("weight", Value::from(w)),
                ])
                .unwrap()
        })
        .collect()
}

struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Runs `commits` single-threaded committed transactions (insert /
/// update / remove over a small key space), returning the oracle state
/// *after each commit* and the log file length after each commit (the
/// exact durable-record boundaries, since fsync-on commits wait for
/// their own record).
/// Per-commit oracle states plus the log-file length after each commit.
type WorkloadTrace = (Vec<HashMap<(i64, i64), i64>>, Vec<u64>);

fn committed_workload(
    rel: &ConcurrentRelation,
    log_path: &Path,
    commits: usize,
    seed: u64,
) -> WorkloadTrace {
    committed_workload_from(rel, log_path, commits, seed, HashMap::new())
}

/// [`committed_workload`] continuing from a known oracle state (so a
/// second batch against a non-empty relation plans no no-op inserts,
/// which would log nothing).
fn committed_workload_from(
    rel: &ConcurrentRelation,
    log_path: &Path,
    commits: usize,
    seed: u64,
    initial: HashMap<(i64, i64), i64>,
) -> WorkloadTrace {
    let mut rng = XorShift(seed | 1);
    let mut oracle: HashMap<(i64, i64), i64> = initial;
    let mut states = vec![oracle.clone()];
    let mut sizes = vec![std::fs::metadata(log_path).map(|m| m.len()).unwrap_or(0)];
    for _ in 0..commits {
        let n_ops = 1 + (rng.next() % 3) as usize;
        let mut planned: Vec<(u8, (i64, i64), i64)> = Vec::new();
        let mut next_state = oracle.clone();
        for _ in 0..n_ops {
            let s = (rng.next() % 4) as i64;
            let d = (rng.next() % 4) as i64;
            let w = (rng.next() % 100) as i64;
            match next_state.get(&(s, d)) {
                Some(_) if rng.next().is_multiple_of(2) => {
                    next_state.insert((s, d), w);
                    planned.push((1, (s, d), w)); // update
                }
                Some(_) => {
                    next_state.remove(&(s, d));
                    planned.push((2, (s, d), 0)); // remove
                }
                None => {
                    next_state.insert((s, d), w);
                    planned.push((0, (s, d), w)); // insert
                }
            }
        }
        rel.transaction(|tx| {
            for &(op, (s, d), w) in &planned {
                let k = key(rel, s, d);
                match op {
                    0 => {
                        tx.insert(&k, &payload(rel, w))?;
                    }
                    1 => {
                        tx.update(&k, &payload(rel, w))?;
                    }
                    _ => {
                        tx.remove(&k)?;
                    }
                }
            }
            Ok(())
        })
        .unwrap();
        oracle = next_state;
        states.push(oracle.clone());
        sizes.push(std::fs::metadata(log_path).unwrap().len());
    }
    (states, sizes)
}

/// Basic reopen: a clean shutdown (no crash) recovers exactly the
/// committed state, and the commit clock resumes strictly above the
/// highest replayed stamp (observed as a strictly increasing `max_ts`
/// across generations that each add a commit).
#[test]
fn reopen_recovers_committed_state_and_clock_resumes_above() {
    let _serial = serialize();
    let (d, p) = graph();
    let dir = fresh_dir("reopen");

    let (rel, report) =
        ConcurrentRelation::open_durable(d.clone(), p.clone(), &dir, WalOptions::default())
            .unwrap();
    assert_eq!(report.replayed, 0);
    assert_eq!(report.checkpoint_rows, 0);
    let (states, _) = committed_workload(&rel, &dir.join("relation.wal"), 40, 0x5eed);
    let expect = oracle_rows(&rel, states.last().unwrap());
    assert_eq!(dump(&rel), expect);
    drop(rel);

    let (rel2, report2) =
        ConcurrentRelation::open_durable(d.clone(), p.clone(), &dir, WalOptions::default())
            .unwrap();
    assert_eq!(dump(&rel2), expect);
    assert!(!report2.torn_tail);
    assert!(report2.replayed > 0);
    assert!(
        relc_locks::commit_clock().now() >= report2.max_ts,
        "clock must resume at or above the highest replayed stamp"
    );
    // A post-recovery commit must stamp strictly above every replayed
    // stamp: reopen a third time and watch max_ts strictly increase.
    rel2.insert(&key(&rel2, 7, 7), &payload(&rel2, 7)).unwrap();
    drop(rel2);
    let (rel3, report3) =
        ConcurrentRelation::open_durable(d, p, &dir, WalOptions::default()).unwrap();
    assert!(
        report3.max_ts > report2.max_ts,
        "new commit must be stamped strictly above the replayed history \
         ({} vs {})",
        report3.max_ts,
        report2.max_ts
    );
    assert!(dump(&rel3).contains(
        &rel3
            .schema()
            .tuple(&[
                ("src", Value::from(7)),
                ("dst", Value::from(7)),
                ("weight", Value::from(7)),
            ])
            .unwrap()
    ));
}

/// The kill-and-reopen sweep: truncate a copy of the log at random byte
/// offsets (plus every exact record boundary) and check the recovered
/// state equals the committed prefix whose records fit wholly below the
/// cut — never a torn suffix, never a lost durable prefix.
#[test]
fn torn_tail_truncation_sweep_recovers_committed_prefix() {
    let _serial = serialize();
    let (d, p) = graph();
    let dir = fresh_dir("sweep");
    let (rel, _) =
        ConcurrentRelation::open_durable(d.clone(), p.clone(), &dir, WalOptions::default())
            .unwrap();
    let (states, sizes) = committed_workload(&rel, &dir.join("relation.wal"), 30, 0xc0ffee);
    drop(rel);

    let total = *sizes.last().unwrap();
    let mut rng = XorShift(0xdead_beef);
    let mut cuts: Vec<u64> = sizes.clone(); // every exact boundary
    cuts.extend((0..40).map(|_| rng.next() % (total + 1))); // random crash points
    let crash = fresh_dir("sweep-crash");
    for cut in cuts {
        copy_dir(&dir, &crash);
        let log = crash.join("relation.wal");
        std::fs::OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let (rec, report) =
            ConcurrentRelation::open_durable(d.clone(), p.clone(), &crash, WalOptions::default())
                .unwrap();
        // Number of commits whose record lies wholly below the cut.
        let prefix = sizes.iter().filter(|&&s| s <= cut).count() - 1;
        assert_eq!(
            dump(&rec),
            oracle_rows(&rec, &states[prefix]),
            "cut at byte {cut} must recover exactly the {prefix}-commit prefix"
        );
        assert_eq!(report.replayed, prefix, "cut at byte {cut}");
        let at_boundary = sizes.contains(&cut);
        assert_eq!(
            report.torn_tail, !at_boundary,
            "cut at byte {cut}: torn iff mid-record"
        );
    }
}

/// Replay idempotence: re-running recovery over the same tail is a
/// no-op — both on a freshly recovered relation and after new commits
/// land (every logged commit raises the replay floor as it publishes,
/// so its own record is never double-applied).
#[test]
fn replay_twice_is_a_noop() {
    let _serial = serialize();
    let (d, p) = graph();
    let dir = fresh_dir("idem");
    let (rel, _) =
        ConcurrentRelation::open_durable(d.clone(), p.clone(), &dir, WalOptions::default())
            .unwrap();
    let (states, _) = committed_workload(&rel, &dir.join("relation.wal"), 25, 0x1de8);
    drop(rel);

    let (rec, first) = ConcurrentRelation::open_durable(d, p, &dir, WalOptions::default()).unwrap();
    let after_recovery = dump(&rec);
    assert_eq!(after_recovery, oracle_rows(&rec, states.last().unwrap()));

    let again = rec.replay_log().unwrap();
    assert_eq!(
        again.replayed, 0,
        "second pass over the same tail replays nothing"
    );
    assert_eq!(dump(&rec), after_recovery);

    // New commits append to the log; replaying on the live relation must
    // skip them too (their effects are already in memory).
    rec.insert(&key(&rec, 9, 9), &payload(&rec, 9)).unwrap();
    let live = dump(&rec);
    let third = rec.replay_log().unwrap();
    assert_eq!(third.replayed, 0, "live commits must not be double-applied");
    assert_eq!(dump(&rec), live);
    assert!(first.max_ts > 0);
}

/// Crash mid-checkpoint, state (a): the temp sidecar was being written
/// when the process died — never renamed. Recovery must ignore it and
/// replay the full (untruncated) log.
#[test]
fn crash_before_checkpoint_rename_recovers_from_log() {
    let _serial = serialize();
    let (d, p) = graph();
    let dir = fresh_dir("ckpt-tmp");
    let (rel, _) =
        ConcurrentRelation::open_durable(d.clone(), p.clone(), &dir, WalOptions::default())
            .unwrap();
    let (states, _) = committed_workload(&rel, &dir.join("relation.wal"), 20, 0xaaaa);
    drop(rel);

    // A half-written (garbage) temp sidecar, as a crash mid-write leaves.
    std::fs::write(dir.join("relation.tmp"), b"half-written checkpoint garbag").unwrap();
    let (rec, report) =
        ConcurrentRelation::open_durable(d, p, &dir, WalOptions::default()).unwrap();
    assert_eq!(report.checkpoint_rows, 0, "temp file is not a checkpoint");
    assert_eq!(report.replayed, 20);
    assert_eq!(dump(&rec), oracle_rows(&rec, states.last().unwrap()));
}

/// Crash mid-checkpoint, state (b): the sidecar was renamed into place
/// but the process died before truncating the log. Recovery loads the
/// checkpoint and must skip every log record at or below its cut —
/// the checkpoint already contains those effects.
#[test]
fn crash_after_checkpoint_rename_before_truncate_is_idempotent() {
    let _serial = serialize();
    let (d, p) = graph();
    let dir = fresh_dir("ckpt-untruncated");
    let (rel, _) =
        ConcurrentRelation::open_durable(d.clone(), p.clone(), &dir, WalOptions::default())
            .unwrap();
    let (states, _) = committed_workload(&rel, &dir.join("relation.wal"), 20, 0xbbbb);
    let expect = oracle_rows(&rel, states.last().unwrap());

    // Save the pre-checkpoint log, checkpoint (which truncates it), then
    // put the old log back: exactly the crash window between rename and
    // truncate.
    let log_path = dir.join("relation.wal");
    let old_log = std::fs::read(&log_path).unwrap();
    let rows = rel.checkpoint().unwrap();
    assert_eq!(rows, states.last().unwrap().len());
    drop(rel);
    std::fs::write(&log_path, &old_log).unwrap();

    let (rec, report) =
        ConcurrentRelation::open_durable(d, p, &dir, WalOptions::default()).unwrap();
    assert_eq!(report.checkpoint_rows, rows);
    assert_eq!(
        report.replayed, 0,
        "every surviving log record predates the checkpoint cut"
    );
    assert_eq!(dump(&rec), expect);
}

/// Checkpoint + post-checkpoint tail: recovery is checkpoint rows plus
/// exactly the commits after the cut.
#[test]
fn checkpoint_then_tail_recovers_both() {
    let _serial = serialize();
    let (d, p) = graph();
    let dir = fresh_dir("ckpt-tail");
    let (rel, _) =
        ConcurrentRelation::open_durable(d.clone(), p.clone(), &dir, WalOptions::default())
            .unwrap();
    let (states, _) = committed_workload(&rel, &dir.join("relation.wal"), 15, 0xcccc);
    let ckpt_rows = rel.checkpoint().unwrap();
    assert_eq!(ckpt_rows, states.last().unwrap().len());
    let (states2, _) = committed_workload_from(
        &rel,
        &dir.join("relation.wal"),
        10,
        0xdddd,
        states.last().unwrap().clone(),
    );
    let expect = oracle_rows(&rel, states2.last().unwrap());
    drop(rel);

    let (rec, report) =
        ConcurrentRelation::open_durable(d, p, &dir, WalOptions::default()).unwrap();
    assert_eq!(report.checkpoint_rows, ckpt_rows);
    assert_eq!(report.replayed, 10);
    assert_eq!(dump(&rec), expect);
}

/// Group-commit acceptance: under a concurrent commit workload with a
/// small leader window, fsyncs batch at least two commits each on
/// average pace — observed as `max_batch >= 2` and strictly fewer
/// fsyncs than appends.
#[test]
fn group_commit_batches_at_least_two_commits_per_fsync() {
    let _serial = serialize();
    let (d, p) = graph();
    let dir = fresh_dir("batch");
    let opts = WalOptions {
        fsync: true,
        group_window: Duration::from_millis(3),
    };
    let (rel, _) = ConcurrentRelation::open_durable(d, p, &dir, opts).unwrap();
    let rel = Arc::new(rel);
    let threads = 8usize;
    let per = 16i64;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads as i64)
        .map(|t| {
            let rel = Arc::clone(&rel);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per {
                    rel.insert(&key(&rel, t, i), &payload(&rel, t * per + i))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = rel.wal_stats().unwrap();
    assert_eq!(stats.appends, (threads as i64 * per) as u64);
    assert!(
        stats.max_batch >= 2,
        "no fsync ever covered two commits: {stats:?}"
    );
    assert!(
        stats.fsyncs < stats.appends,
        "group commit amortized nothing: {stats:?}"
    );
    assert_eq!(rel.len(), threads * per as usize);
}

fn skey(rel: &ShardedRelation, s: i64, d: i64) -> Tuple {
    rel.schema()
        .tuple(&[("src", Value::from(s)), ("dst", Value::from(d))])
        .unwrap()
}

fn spayload(rel: &ShardedRelation, w: i64) -> Tuple {
    rel.schema().tuple(&[("weight", Value::from(w))]).unwrap()
}

/// Sharded reopen: per-shard logs recover the whole partitioned state,
/// including cross-shard transactions (whose markers are durable).
#[test]
fn sharded_reopen_recovers_cross_shard_transactions() {
    let _serial = serialize();
    let (d, p) = graph();
    let dir = fresh_dir("sharded");
    let (rel, report) =
        ShardedRelation::open_durable(d.clone(), p.clone(), 4, &dir, WalOptions::default())
            .unwrap();
    assert_eq!(report.replayed, 0);
    // Cross-shard transactions: each writes a diagonal of keys that hash
    // across shards.
    for round in 0..12i64 {
        rel.transaction(|tx| {
            for i in 0..5i64 {
                tx.insert(&skey(&rel, round, i), &spayload(&rel, round * 10 + i))?;
            }
            Ok(())
        })
        .unwrap();
    }
    // And some routed single-shard writes.
    for i in 0..10i64 {
        rel.insert(&skey(&rel, 100 + i, 0), &spayload(&rel, i))
            .unwrap();
    }
    let expect = dump_sharded(&rel);
    assert_eq!(rel.len(), 12 * 5 + 10);
    drop(rel);

    let (rec, report) =
        ShardedRelation::open_durable(d, p, 4, &dir, WalOptions::default()).unwrap();
    assert_eq!(dump_sharded(&rec), expect);
    assert!(!report.torn_tail);
    assert!(
        relc_locks::commit_clock().now() >= report.max_ts,
        "clock resumes above the highest stamp of any shard"
    );
}

/// Cross-shard atomic abort: if the commit marker for a cross-shard
/// transaction never reached disk, recovery must abort the transaction
/// on *every* shard — even shards whose data records are durable.
/// Restoring the marker commits it everywhere.
#[test]
fn sharded_missing_marker_aborts_cross_shard_transaction_everywhere() {
    let _serial = serialize();
    let (d, p) = graph();
    let dir = fresh_dir("marker");
    let (rel, _) =
        ShardedRelation::open_durable(d.clone(), p.clone(), 4, &dir, WalOptions::default())
            .unwrap();
    // Baseline: routed writes on every shard.
    for i in 0..20i64 {
        rel.insert(&skey(&rel, i, 0), &spayload(&rel, i)).unwrap();
    }
    let baseline = dump_sharded(&rel);
    // One cross-shard transaction, last in every involved log. Spread
    // keys until at least two shards are written.
    rel.transaction(|tx| {
        for i in 0..6i64 {
            tx.insert(&skey(&rel, 50 + i, 1), &spayload(&rel, 500 + i))?;
        }
        Ok(())
    })
    .unwrap();
    let full = dump_sharded(&rel);
    assert_eq!(full.len(), baseline.len() + 6);
    // The marker protocol only engages when >1 shard writes; make sure
    // this key diagonal really spreads (deterministic router, so this
    // either always holds or the keys need changing).
    let spread: HashSet<usize> = (0..6i64)
        .map(|i| rel.shard_of(&skey(&rel, 50 + i, 1)))
        .collect();
    assert!(spread.len() >= 2, "test keys must span at least two shards");
    drop(rel);

    // Crash copy 1: shard 0's log loses its trailing marker record (the
    // marker is appended after every data record, so it is the last
    // record in shard-0.wal).
    let crash = fresh_dir("marker-crash");
    copy_dir(&dir, &crash);
    let log0 = crash.join("shard-0.wal");
    let len = std::fs::metadata(&log0).unwrap().len();
    assert!(len > MARKER_FRAME_LEN);
    std::fs::OpenOptions::new()
        .write(true)
        .open(&log0)
        .unwrap()
        .set_len(len - MARKER_FRAME_LEN)
        .unwrap();
    let (aborted, _) =
        ShardedRelation::open_durable(d.clone(), p.clone(), 4, &crash, WalOptions::default())
            .unwrap();
    assert_eq!(
        dump_sharded(&aborted),
        baseline,
        "without the marker, the cross-shard transaction must vanish from every shard"
    );
    drop(aborted);

    // Crash copy 2: marker intact — the transaction commits everywhere.
    copy_dir(&dir, &crash);
    let (committed, _) =
        ShardedRelation::open_durable(d, p, 4, &crash, WalOptions::default()).unwrap();
    assert_eq!(dump_sharded(&committed), full);
}

/// Sharded checkpoint: one cut across all shards, then reopen recovers
/// checkpoint + tail; the aggregated WAL stats surface afterwards.
#[test]
fn sharded_checkpoint_then_reopen() {
    let _serial = serialize();
    let (d, p) = graph();
    let dir = fresh_dir("sharded-ckpt");
    let (rel, _) =
        ShardedRelation::open_durable(d.clone(), p.clone(), 3, &dir, WalOptions::default())
            .unwrap();
    for i in 0..15i64 {
        rel.insert(&skey(&rel, i, i), &spayload(&rel, i)).unwrap();
    }
    let ckpt_rows = rel.checkpoint().unwrap();
    assert_eq!(ckpt_rows, 15);
    // Post-checkpoint tail, including a cross-shard transaction.
    rel.transaction(|tx| {
        for i in 0..4i64 {
            tx.insert(&skey(&rel, 30 + i, 2), &spayload(&rel, i))?;
        }
        Ok(())
    })
    .unwrap();
    let expect = dump_sharded(&rel);
    assert!(rel.wal_stats().unwrap().appends > 0);
    drop(rel);

    let (rec, report) =
        ShardedRelation::open_durable(d, p, 3, &dir, WalOptions::default()).unwrap();
    assert_eq!(report.checkpoint_rows, ckpt_rows);
    assert_eq!(dump_sharded(&rec), expect);
    assert_eq!(rec.len(), 19);
}

/// A durable relation with fsync disabled still recovers everything the
/// OS flushed (here: everything, since the process exits cleanly) — the
/// benchmark configuration stays functional.
#[test]
fn fsync_off_still_logs_and_recovers_on_clean_shutdown() {
    let _serial = serialize();
    let (d, p) = graph();
    let dir = fresh_dir("nosync");
    let opts = WalOptions {
        fsync: false,
        group_window: Duration::ZERO,
    };
    let (rel, _) = ConcurrentRelation::open_durable(d.clone(), p.clone(), &dir, opts).unwrap();
    for i in 0..10i64 {
        rel.insert(&key(&rel, i, 0), &payload(&rel, i)).unwrap();
    }
    let expect = dump(&rel);
    let stats = rel.wal_stats().unwrap();
    assert_eq!(stats.fsyncs, 0, "fsync disabled must issue no fsyncs");
    assert!(stats.appends >= 10);
    drop(rel);
    let (rec, _) = ConcurrentRelation::open_durable(d, p, &dir, opts).unwrap();
    assert_eq!(dump(&rec), expect);
}

/// Two probe keys of a sharded relation that live in the same shard
/// (`same`) or in different ones.
fn shard_mates(rel: &ShardedRelation, same: bool) -> (Tuple, Tuple) {
    let a = skey(rel, 0, 0);
    let b = (1..256)
        .map(|k| skey(rel, k, k))
        .find(|b| (rel.shard_of(b) == rel.shard_of(&a)) == same)
        .expect("the router spreads 256 probe keys over the shards");
    (a, b)
}

/// The rows of the commit-outcome table for one relation: every way an
/// attempt can end, run back to back against an oracle. `$ka` / `$kb` are
/// the two keys every writing attempt touches, `$shards` the number of
/// distinct shards they live in, and `$footprint` counts the relation's
/// versions. After each outcome the contents equal the oracle's, `len()`
/// is exact, `verify()` finds no tentative stamp, `user_rollbacks` moved
/// only for `tx.abort` (once per touched shard), a durable relation's logs
/// grew by exactly one record per writing shard plus one marker iff more
/// than one shard wrote, and the commit clock ticked once per *committed*
/// writing attempt — read-only, aborted, restarted and panicked attempts
/// append nothing, allocate no timestamp and leave the version footprint
/// where it was. A macro because the two flavours share method names, not
/// a trait.
macro_rules! check_commit_outcomes {
    ($label:expr, $rel:expr, $ka:expr, $kb:expr, $shards:expr, $footprint:expr) => {{
        let (label, rel, ka, kb, shards): (String, _, Tuple, Tuple, u64) =
            ($label, $rel, $ka, $kb, $shards);
        let footprint = || $footprint(&rel);
        let schema = rel.schema().clone();
        let oracle = OracleRelation::empty(schema.clone());
        let w = |x: i64| schema.tuple(&[("weight", Value::from(x))]).unwrap();
        let wc = schema.column_set(&["weight"]).unwrap();
        let not_a_key = ka.project(schema.column_set(&["src"]).unwrap());
        let durable = rel.wal_stats().is_some();
        let per_commit = if durable {
            shards + u64::from(shards > 1)
        } else {
            0
        };
        let counters = || {
            (
                rel.wal_stats().map_or(0, |s| s.appends),
                rel.lock_stats().user_rollbacks,
                relc_locks::commit_clock().now(),
            )
        };
        let mut seen = counters();
        let mut check = |outcome: &str, appended: u64, user_rollbacks: u64, timestamps: u64| {
            let got = rel
                .verify()
                .unwrap_or_else(|e| panic!("{label} / {outcome}: {e}"));
            let want: BTreeSet<Tuple> = oracle.snapshot().into_iter().collect();
            assert_eq!(got, want, "{label} / {outcome}: contents");
            assert_eq!(rel.len(), oracle.len(), "{label} / {outcome}: len");
            let now = counters();
            assert_eq!(now.0 - seen.0, appended, "{label} / {outcome}: appends");
            assert_eq!(
                now.1 - seen.1,
                user_rollbacks,
                "{label} / {outcome}: user_rollbacks"
            );
            assert_eq!(
                now.2 - seen.2,
                timestamps,
                "{label} / {outcome}: commit timestamps allocated"
            );
            seen = now;
        };

        rel.transaction(|tx| {
            assert!(tx.insert(&ka, &w(1))?);
            assert!(tx.insert(&kb, &w(2))?);
            Ok(())
        })
        .unwrap();
        oracle.insert(&ka, &w(1)).unwrap();
        oracle.insert(&kb, &w(2)).unwrap();
        check("commit", per_commit, 0, 1);

        let read = rel
            .transaction(|tx| {
                assert!(tx.contains(&kb)?);
                tx.query(&ka, wc)
            })
            .unwrap();
        assert_eq!(read, vec![w(1)], "{label}");
        check("read-only commit", 0, 0, 0);

        let versions = footprint();
        let err = rel
            .transaction(|tx| -> Result<(), TxnError> {
                tx.update(&ka, &w(3))?;
                assert_eq!(tx.remove(&kb)?, 1);
                Err(tx.abort("changed my mind"))
            })
            .unwrap_err();
        assert!(
            matches!(err, CoreError::TransactionAborted(_)),
            "{label}: {err}"
        );
        assert_eq!(footprint(), versions, "{label} / tx.abort: footprint");
        check("tx.abort", 0, shards, 0);

        let err = rel
            .transaction(|tx| -> Result<(), TxnError> {
                tx.update(&kb, &w(4))?;
                tx.update(&ka, &w(4))?;
                tx.remove(&not_a_key)?;
                Ok(())
            })
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Spec(SpecError::RemoveNotByKey { .. })),
            "{label}: {err}"
        );
        assert_eq!(footprint(), versions, "{label} / validation: footprint");
        check("validation error", 0, 0, 0);

        // A closure that panics after writing to every shard it touches
        // unwinds through the attempt: it must roll back before its locks
        // go, exactly like an abort, and leave the relation usable.
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            rel.transaction(|tx| -> Result<(), TxnError> {
                tx.update(&ka, &w(7))?;
                assert_eq!(tx.remove(&kb)?, 1);
                assert!(tx.insert(&kb, &w(8))?);
                panic!("closure panicked mid-transaction");
            })
        }));
        assert!(panicked.is_err(), "{label}: the panic reaches the caller");
        assert_eq!(footprint(), versions, "{label} / panic: footprint");
        check("panic", 0, 0, 0);
        rel.transaction(|tx| tx.update(&kb, &w(9)).map(drop))
            .unwrap();
        oracle.update(&kb, &w(9)).unwrap();
        let fresh = rel.read_transaction(|r| r.query(&kb, wc)).unwrap();
        assert_eq!(
            fresh,
            vec![w(9)],
            "{label}: commit after a panic is visible"
        );
        check("commit after panic", u64::from(durable), 0, 1);

        // The query's shared lock on `ka`'s shard, shared with a second
        // reader, makes the update of `ka` (and of `kb`, when it lives
        // there too) demand an upgrade restart, which the closure wrongly
        // swallows — after `kb`'s update already applied, when `kb` lives
        // elsewhere. The half-run must not commit: it rolls back and the
        // closure re-runs, with exclusive hints.
        let runs = AtomicU32::new(0);
        let hold = |wait: &dyn Fn()| {
            rel.transaction(|tx| {
                tx.query(&ka, wc)?;
                wait();
                Ok(())
            })
            .unwrap()
        };
        support::with_second_reader(&runs, hold, || {
            rel.transaction(|tx| {
                runs.fetch_add(1, Ordering::AcqRel);
                tx.query(&ka, wc)?;
                let _ = tx.update(&kb, &w(5));
                let _ = tx.update(&ka, &w(6));
                Ok(())
            })
            .unwrap()
        });
        assert_eq!(
            runs.load(Ordering::Acquire),
            2,
            "{label}: the swallowed restart forces one re-run"
        );
        oracle.update(&kb, &w(5)).unwrap();
        oracle.update(&ka, &w(6)).unwrap();
        check("swallowed MustRestart", per_commit, 0, 1);
    }};
}

/// One outcome table for the commit core: outcomes × flavours × durability.
#[test]
fn commit_outcome_table() {
    let _serial = serialize();
    let d = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
    let p = LockPlacement::coarse(&d).unwrap();
    let opts = WalOptions::default();
    for durable in [false, true] {
        let single = if durable {
            let dir = fresh_dir("outcomes-single");
            ConcurrentRelation::open_durable(d.clone(), p.clone(), dir, opts)
                .unwrap()
                .0
        } else {
            ConcurrentRelation::new(d.clone(), p.clone()).unwrap()
        };
        let (ka, kb) = (key(&single, 0, 0), key(&single, 1, 1));
        check_commit_outcomes!(
            format!("single, durable={durable}"),
            single,
            ka,
            kb,
            1,
            ConcurrentRelation::version_footprint
        );

        for (n, same) in [(1, true), (4, true), (4, false)] {
            let rel = if durable {
                let dir = fresh_dir(&format!("outcomes-sharded-{n}-{same}"));
                ShardedRelation::open_durable(d.clone(), p.clone(), n, dir, opts)
                    .unwrap()
                    .0
            } else {
                ShardedRelation::new(d.clone(), p.clone(), n).unwrap()
            };
            let (ka, kb) = shard_mates(&rel, same);
            let label = format!("sharded N={n}, one shard={same}, durable={durable}");
            let footprint = |rel: &ShardedRelation| -> usize {
                let shards = rel.shards().iter();
                shards.map(ConcurrentRelation::version_footprint).sum()
            };
            check_commit_outcomes!(label, rel, ka, kb, if same { 1 } else { 2 }, footprint);
        }
    }
}

/// Checkpoints racing writers, for one relation flavour. `$open` opens
/// (or reopens) the durable relation in a directory; `$records` says how
/// many log records a committed transfer between two accounts appends
/// (one per distinct shard). Two writers run seeded constant-sum
/// transfers plus routed single-shot inserts/removes of zero-weight
/// scratch rows while the main thread checkpoints; after a reopen the
/// recovered contents equal the final in-memory contents, the sum is
/// conserved, and recovery replays no more records than were appended
/// after the last checkpoint began.
macro_rules! check_checkpoint_race {
    ($name:expr, $open:expr, $records:expr) => {{
        const ACCOUNTS: u64 = 16;
        const START: i64 = 1000;
        let (open, records_of) = ($open, $records);
        let dir = fresh_dir($name);
        let (rel, _) = open(&dir);
        let schema = rel.schema().clone();
        let row = |s: u64, d: u64| {
            schema
                .tuple(&[
                    ("src", Value::from(s as i64)),
                    ("dst", Value::from(d as i64)),
                ])
                .unwrap()
        };
        let bal = |w: i64| schema.tuple(&[("weight", Value::from(w))]).unwrap();
        let wcol = schema.column("weight").unwrap();
        let weight_of = |t: &Tuple| t.get(wcol).unwrap().as_int().unwrap();
        for i in 0..ACCOUNTS {
            rel.insert(&row(i, 0), &bal(START)).unwrap();
        }
        // Log records appended by writes that have returned.
        let appended = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let floor = std::thread::scope(|scope| {
            for t in 0..2u64 {
                let (rel, row, bal) = (&rel, &row, &bal);
                let (appended, stop, records_of) = (&appended, &stop, &records_of);
                scope.spawn(move || {
                    let mut rng = XorShift(0xC0FFEE + t);
                    // Transfers still to run once the checkpoints are over,
                    // so the log always has a tail to replay.
                    let mut tail = 8;
                    while tail > 0 {
                        if stop.load(Ordering::SeqCst) {
                            tail -= 1;
                        }
                        let a = rng.next() % ACCOUNTS;
                        let b = (a + 1 + rng.next() % (ACCOUNTS - 1)) % ACCOUNTS;
                        let amount = 1 + (rng.next() % 5) as i64;
                        let (ka, kb) = (row(a, 0), row(b, 0));
                        rel.transaction(|tx| {
                            let from = weight_of(&tx.update(&ka, &bal(0))?.unwrap());
                            tx.update(&ka, &bal(from - amount))?;
                            let to = weight_of(&tx.update(&kb, &bal(0))?.unwrap());
                            tx.update(&kb, &bal(to + amount))?;
                            Ok(())
                        })
                        .unwrap();
                        appended.fetch_add(records_of(rel, &ka, &kb), Ordering::SeqCst);
                        let scratch = row(1000 + t, rng.next() % 8);
                        if rel.insert(&scratch, &bal(0)).unwrap()
                            || rel.remove(&scratch).unwrap() == 1
                        {
                            appended.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
            let mut floor = 0;
            for _ in 0..4 {
                std::thread::sleep(Duration::from_millis(3));
                // Everything counted so far committed before this
                // checkpoint's cut, so none of it can be replayed.
                floor = appended.load(Ordering::SeqCst);
                rel.checkpoint().unwrap();
            }
            stop.store(true, Ordering::SeqCst);
            floor
        });
        let contents = rel.verify().unwrap();
        assert_eq!(rel.len(), contents.len(), "{}", $name);
        assert_eq!(
            contents.iter().map(weight_of).sum::<i64>(),
            ACCOUNTS as i64 * START,
            "{}: transfers conserve the sum",
            $name
        );
        let after_floor = appended.load(Ordering::SeqCst) - floor;
        drop(rel);

        let (recovered, report) = open(&dir);
        assert_eq!(recovered.verify().unwrap(), contents, "{}", $name);
        assert_eq!(recovered.len(), contents.len(), "{}", $name);
        assert!(!report.torn_tail, "{}", $name);
        assert!(
            (16..=after_floor).contains(&(report.replayed as u64)),
            "{}: replayed {} records, {after_floor} appended since the last checkpoint began",
            $name,
            report.replayed
        );
    }};
}

/// `checkpoint()` while writers run (only the benchmark did this before):
/// the fence drains them, the cut is consistent, and checkpoint + tail
/// recover exactly the final state — on both flavours.
#[test]
fn checkpoint_racing_writers_recovers_final_state() {
    let _serial = serialize();
    let (d, p) = graph();
    let opts = WalOptions::default();
    check_checkpoint_race!(
        "race-single",
        |dir: &Path| ConcurrentRelation::open_durable(d.clone(), p.clone(), dir, opts).unwrap(),
        |_: &ConcurrentRelation, _: &Tuple, _: &Tuple| 1u64
    );
    check_checkpoint_race!(
        "race-sharded",
        |dir: &Path| ShardedRelation::open_durable(d.clone(), p.clone(), 4, dir, opts).unwrap(),
        |rel: &ShardedRelation, a: &Tuple, b: &Tuple| {
            1 + u64::from(rel.shard_of(a) != rel.shard_of(b))
        }
    );
}

/// The write fence is maintenance, not a transaction: neither
/// `checkpoint()` nor `migrate_to()` may move `commits` (the denominator
/// of restarts-per-commit) or `user_rollbacks`, on either flavour.
#[test]
fn maintenance_fences_count_no_commits() {
    let _serial = serialize();
    let (d, p) = graph();
    let target = stick(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let target_p = LockPlacement::coarse(&target).unwrap();
    let opts = WalOptions::default();

    let single =
        ConcurrentRelation::open_durable(d.clone(), p.clone(), fresh_dir("fence-single"), opts)
            .unwrap()
            .0;
    let sharded =
        ShardedRelation::open_durable(d.clone(), p.clone(), 4, fresh_dir("fence-sharded"), opts)
            .unwrap()
            .0;
    for i in 0..12i64 {
        single
            .insert(&key(&single, i, i), &payload(&single, i))
            .unwrap();
        sharded
            .insert(&skey(&sharded, i, i), &spayload(&sharded, i))
            .unwrap();
    }
    let counted = |s: relc_locks::LockStatsSnapshot| (s.commits, s.user_rollbacks);

    let before = counted(single.lock_stats());
    assert_eq!(single.checkpoint().unwrap(), 12);
    assert_eq!(counted(single.lock_stats()), before, "single checkpoint");
    single.migrate_to(target.clone(), target_p.clone()).unwrap();
    assert_eq!(counted(single.lock_stats()), before, "single migrate_to");
    assert_eq!(single.verify().unwrap().len(), 12);

    let before = counted(sharded.lock_stats());
    assert_eq!(sharded.checkpoint().unwrap(), 12);
    assert_eq!(counted(sharded.lock_stats()), before, "sharded checkpoint");
    sharded.migrate_to(target, target_p).unwrap();
    assert_eq!(counted(sharded.lock_stats()), before, "sharded migrate_to");
    assert_eq!(sharded.verify().unwrap().len(), 12);
}
