//! Relation-level reclamation churn: a `ConcurrentRelation` whose
//! decomposition places skip lists at its edges is hammered with
//! insert/remove/update over a fixed key range. Real epoch reclamation
//! must (a) actually free retired skip-list nodes (`reclaimed` rises),
//! (b) keep in-flight garbage bounded while the storm runs, (c) reach
//! zero in-flight at quiescence after `flush_reclamation`, and (d) leave
//! the relation's visible contents exactly what the sequential oracle
//! predicts for the same operation stream.
//!
//! The epoch domain is process-global, so the tests in this binary
//! serialize on a mutex.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use relc::decomp::library::{split, stick};
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, Decomposition};
use relc_containers::{reclamation_flush, reclamation_stats, ContainerKind};
use relc_spec::{OracleRelation, Tuple, Value};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Representations that put a `ConcurrentSkipListMap` at one or more
/// edges, so relation ops drive the epoch collector.
fn skiplist_variants() -> Vec<(String, Arc<ConcurrentRelation>)> {
    let decomps: Vec<Arc<Decomposition>> = vec![
        stick(
            ContainerKind::ConcurrentSkipListMap,
            ContainerKind::ConcurrentSkipListMap,
        ),
        split(
            ContainerKind::ConcurrentSkipListMap,
            ContainerKind::ConcurrentSkipListMap,
        ),
    ];
    let mut out = Vec::new();
    for d in decomps {
        for p in [
            LockPlacement::coarse(&d).unwrap(),
            LockPlacement::fine(&d).unwrap(),
        ] {
            let name = format!("{} / {}", d.describe(), p.name());
            out.push((
                name,
                Arc::new(ConcurrentRelation::new(d.clone(), p).unwrap()),
            ));
        }
    }
    out
}

fn edge(rel: &ConcurrentRelation, s: i64, d: i64) -> Tuple {
    rel.schema()
        .tuple(&[("src", Value::from(s)), ("dst", Value::from(d))])
        .unwrap()
}

fn weight(rel: &ConcurrentRelation, w: i64) -> Tuple {
    rel.schema().tuple(&[("weight", Value::from(w))]).unwrap()
}

fn churn_one(
    name: &str,
    rel: &Arc<ConcurrentRelation>,
    threads: u64,
    rounds: u64,
    keyspace: u64,
    bound: u64,
) {
    reclamation_flush();
    let before = reclamation_stats();

    let barrier = Arc::new(Barrier::new(threads as usize));
    let done = Arc::new(AtomicBool::new(false));
    let max_in_flight = Arc::new(AtomicU64::new(0));
    let monitor = {
        let done = Arc::clone(&done);
        let max_in_flight = Arc::clone(&max_in_flight);
        std::thread::spawn(move || {
            while !done.load(SeqCst) {
                max_in_flight.fetch_max(reclamation_stats().in_flight(), SeqCst);
                std::thread::yield_now();
            }
        })
    };
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let rel = Arc::clone(rel);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut x = (t + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                for _ in 0..rounds {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = (x % keyspace) as i64;
                    match (x >> 32) % 4 {
                        0 => {
                            rel.insert(&edge(&rel, k, k), &weight(&rel, k)).unwrap();
                        }
                        1 => {
                            rel.remove(&edge(&rel, k, k)).unwrap();
                        }
                        2 => {
                            rel.update(&edge(&rel, k, k), &weight(&rel, -k)).unwrap();
                        }
                        _ => {
                            let cols = rel.schema().column_set(&["weight"]).unwrap();
                            let _ = rel.query(&edge(&rel, k, k), cols).unwrap();
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    done.store(true, SeqCst);
    monitor.join().unwrap();

    let stats = rel.flush_reclamation();
    let retired = stats.retired - before.retired;
    let reclaimed = stats.reclaimed - before.reclaimed;
    let peak = max_in_flight.load(SeqCst);
    assert!(
        reclaimed > 0,
        "{name}: relation churn must reclaim retired skip-list nodes"
    );
    assert_eq!(
        stats.in_flight(),
        0,
        "{name}: flush at quiescence frees everything ({stats:?})"
    );
    assert_eq!(retired, reclaimed, "{name}");
    assert!(
        peak <= bound,
        "{name}: in-flight garbage unbounded during churn: peak {peak} > {bound} \
         (retired {retired})"
    );

    // Structural integrity after the storm.
    let verified = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(verified.len(), rel.len(), "{name}: len exact at quiescence");
}

#[test]
fn churn_reclaims_and_bounds_in_flight_across_representations() {
    let _serial = serialize();
    for (name, rel) in skiplist_variants() {
        churn_one(&name, &rel, 4, 1_500, 48, 8_192);
    }
}

/// The same deterministic op stream applied to a skip-list-backed relation
/// and the sequential oracle must agree op-for-op — reclamation must not
/// change any visible result. (Sequential on purpose: with one thread the
/// oracle is an exact specification, so any divergence is a real bug, not
/// a linearization ambiguity.)
#[test]
fn oracle_differential_unchanged_under_reclamation() {
    let _serial = serialize();
    for (name, rel) in skiplist_variants() {
        let schema = rel.schema().clone();
        let oracle = OracleRelation::empty(schema.clone());
        let wcols = schema.column_set(&["weight"]).unwrap();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..4_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 32) as i64;
            match (x >> 32) % 4 {
                0 => {
                    let got = rel.insert(&edge(&rel, k, k), &weight(&rel, k)).unwrap();
                    let want = oracle.insert(&edge(&rel, k, k), &weight(&rel, k)).unwrap();
                    assert_eq!(got, want, "{name}: insert({k})");
                }
                1 => {
                    let got = rel.remove(&edge(&rel, k, k)).unwrap();
                    let want = oracle.remove(&edge(&rel, k, k));
                    assert_eq!(got, want, "{name}: remove({k})");
                }
                2 => {
                    let got = rel.update(&edge(&rel, k, k), &weight(&rel, -k)).unwrap();
                    let want = oracle.update(&edge(&rel, k, k), &weight(&rel, -k)).unwrap();
                    assert_eq!(got, want, "{name}: update({k})");
                }
                _ => {
                    let mut got = rel.query(&edge(&rel, k, k), wcols).unwrap();
                    let mut want = oracle.query(&edge(&rel, k, k), wcols);
                    got.sort();
                    want.sort();
                    assert_eq!(got, want, "{name}: query({k})");
                }
            }
            // Periodically force collection mid-stream so reclamation
            // interleaves with the differential, not just after it.
            if x.is_multiple_of(97) {
                rel.flush_reclamation();
            }
        }
        let mut got = rel.snapshot().unwrap();
        let mut want = oracle.snapshot();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{name}: final contents diverge");
        rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let stats = rel.flush_reclamation();
        assert_eq!(stats.in_flight(), 0, "{name}");
    }
}

/// Batched ops through a sharded, skip-list-backed relation churn and
/// reclaim too (exercises batch inserts' row-by-row publication and
/// cross-shard removal against the collector).
#[test]
fn sharded_batch_churn_reclaims() {
    let _serial = serialize();
    reclamation_flush();
    let before = reclamation_stats();

    let d = stick(
        ContainerKind::ConcurrentSkipListMap,
        ContainerKind::ConcurrentSkipListMap,
    );
    let rel = Arc::new(
        relc::ShardedRelation::new(d.clone(), LockPlacement::fine(&d).unwrap(), 4).unwrap(),
    );
    let threads = 3u64;
    let barrier = Arc::new(Barrier::new(threads as usize));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let rel = Arc::clone(&rel);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let schema = rel.schema().clone();
                let key = |s: i64, d: i64| {
                    schema
                        .tuple(&[("src", Value::from(s)), ("dst", Value::from(d))])
                        .unwrap()
                };
                let w = |v: i64| schema.tuple(&[("weight", Value::from(v))]).unwrap();
                let mut x = ((t + 1) * 0x9e37_79b9) | 1;
                for _ in 0..150 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let base = (x % 64) as i64;
                    let rows: Vec<(Tuple, Tuple)> =
                        (0..16).map(|j| (key(base + j, base + j), w(j))).collect();
                    rel.insert_all(&rows).unwrap();
                    let keys: Vec<Tuple> = rows.into_iter().map(|(s, _)| s).collect();
                    rel.remove_all(&keys).unwrap();
                }
            })
        })
        .collect();
    for wkr in workers {
        wkr.join().unwrap();
    }

    let stats = rel.flush_reclamation();
    assert!(stats.reclaimed > before.reclaimed, "batch churn reclaims");
    assert_eq!(stats.in_flight(), 0);
    rel.verify().unwrap();
}

#[test]
#[ignore = "long-running relation-level reclamation soak; run with `cargo test -- --ignored`"]
fn soak_relation_churn_memory_stays_bounded() {
    let _serial = serialize();
    let d = stick(
        ContainerKind::ConcurrentSkipListMap,
        ContainerKind::ConcurrentSkipListMap,
    );
    let rel =
        Arc::new(ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap()).unwrap());
    // Bound headroom for release-speed churn on oversubscribed boxes: a
    // descheduled pinned thread stalls the epoch for a timeslice while
    // the rest keep retiring (see the containers soak for the math).
    churn_one("stick(skiplist)/fine soak", &rel, 4, 30_000, 64, 32_768);
}

/// The bounded sweep keeps up under a reader that never lets go: two
/// writers move rows of a ~16k-entry `fine` root to fresh keys while a
/// snapshot reader re-registers in a loop, so a good share of commits
/// leave a pinned corpse at the root for a later commit's sweep step to
/// reclaim. Checked between rounds (the footprint walk reads the
/// containers unlocked): the footprint stays within one version per live
/// index entry plus a quarter of the root's size.
#[test]
#[ignore = "long-running relation-level reclamation soak; run with `cargo test -- --ignored`"]
fn soak_pinned_root_corpses_stay_bounded_under_budgeted_sweeps() {
    let _serial = serialize();
    const ROWS: i64 = 16_384;
    let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
    let rel = ConcurrentRelation::new(d.clone(), LockPlacement::fine(&d).unwrap()).unwrap();
    let rows: Vec<(Tuple, Tuple)> = (0..ROWS)
        .map(|s| (edge(&rel, s, 0), weight(&rel, s)))
        .collect();
    rel.insert_all(&rows).unwrap();
    let done = AtomicBool::new(false);
    let mut over = None;
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reads = 0u64;
            let cols = rel.schema().column_set(&["weight"]).unwrap();
            while !done.load(SeqCst) {
                rel.read_transaction(|snap| {
                    let k = (reads * 7_919 % ROWS as u64) as i64;
                    snap.query(&edge(&rel, k, 0), cols).unwrap();
                });
                reads += 1;
            }
            reads
        });
        for round in 0..20i64 {
            std::thread::scope(|writers| {
                for t in 0..2i64 {
                    let rel = &rel;
                    writers.spawn(move || {
                        // Writer `t` owns the rows `≡ t (mod 2)`; each
                        // round moves a row of them to a key never used
                        // before, so no later write of the key it left
                        // reclaims the corpse there: only sweeps do.
                        let (from, to) = (round * ROWS, (round + 1) * ROWS);
                        for i in 0..1_000i64 {
                            let k = (i * 2 + t) * 7 % ROWS;
                            if rel.remove(&edge(rel, k + from, 0)).unwrap() == 1 {
                                rel.insert(&edge(rel, k + to, 0), &weight(rel, k)).unwrap();
                            }
                        }
                    });
                }
            });
            let live = 3 * rel.len();
            let footprint = rel.version_footprint();
            if footprint > live + ROWS as usize / 4 {
                over = Some(format!(
                    "round {round}: footprint {footprint} over {live} live entries"
                ));
                break;
            }
        }
        // Stop the reader before any assertion, or a failing one would
        // leave the scope waiting on it forever.
        done.store(true, SeqCst);
        assert!(reader.join().unwrap() > 0, "the reader never read");
    });
    assert_eq!(over, None);
    assert_eq!(rel.len(), ROWS as usize);
    rel.verify().unwrap();
}
