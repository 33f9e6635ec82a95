//! Single-threaded layer probes with fixed iteration counts, and the
//! feature ladder. Every probe times one layer's public entry point in
//! isolation, on the workload's own container kind and working-set size
//! where that matters; the numbers say what a layer costs per call, and so
//! bound what a change to that layer can give an end-to-end metric.

use std::hint::black_box;
use std::io::Write as _;
use std::ops::{Bound, ControlFlow};
use std::sync::Arc;
use std::time::{Duration, Instant};

use relc::decomp::library::split;
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, ShardedRelation, WalOptions};
use relc_containers::{epoch, Container, ContainerKind, VersionCell};
use relc_locks::{commit_clock, CommitStamp, LockMode, LockStats, PhysicalLock, TwoPhaseEngine};
use relc_spec::{ColumnSet, Tuple, Value};

use crate::workload::{ProbeSpec, ShardedProbe};

pub type Metrics = Vec<(&'static str, f64)>;

const ROUNDS: u32 = 5;

/// Nanoseconds per call of `f`: the median over [`ROUNDS`] rounds of
/// `iters / ROUNDS` calls each, so that one preemption does not move it.
fn ns_per_call(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    let per_round = (iters / ROUNDS).max(1);
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|r| {
            let t0 = Instant::now();
            for i in 0..per_round {
                f(r * per_round + i);
            }
            t0.elapsed().as_nanos() as f64 / per_round as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[rounds.len() / 2]
}

/// A stride that visits keys in a cache-unfriendly but repeatable order.
fn scatter(i: u32, n: u32) -> u32 {
    (i as u64 * 2_654_435_761 % n as u64) as u32
}

pub fn layer_probes(spec: &ProbeSpec<'_>, quick: bool) -> Metrics {
    let scale = if quick { 10 } else { 1 };
    let mut m = Metrics::new();
    relspec(spec, scale, &mut m);
    containers(spec, scale, &mut m);
    locks(scale, &mut m);
    planner(spec, scale, &mut m);
    mvcc(spec, scale, &mut m);
    if let Some(sharded) = &spec.sharded {
        shard(spec, sharded, scale, &mut m);
    }
    m
}

fn shard(spec: &ProbeSpec<'_>, sharded: &ShardedProbe<'_>, scale: u32, m: &mut Metrics) {
    let keys: Vec<Tuple> = (0..1024).map(|i| (spec.key)(i % spec.keys)).collect();
    m.push((
        "shard.route_ns",
        ns_per_call(200_000 / scale, |i| {
            black_box(sharded.rel.shard_of(&keys[i as usize % keys.len()]));
        }),
    ));
    // A 16-row batch that spans shards, inserted and removed again: the
    // path the workload's shard-local blocks stay off.
    let rows: Vec<(Tuple, Tuple)> = (0..16)
        .map(|i| ((sharded.fresh_key)(i), (spec.payload)(i)))
        .collect();
    let keys: Vec<Tuple> = rows.iter().map(|(k, _)| k.clone()).collect();
    let spans_shards = keys
        .iter()
        .any(|k| sharded.rel.shard_of(k) != sharded.rel.shard_of(&keys[0]));
    assert!(spans_shards, "16 keys on one of several shards");
    let pair_ns = ns_per_call(10, |_| {
        let fresh = sharded
            .rel
            .insert_all(&rows)
            .expect("cross-shard insert_all");
        let gone = sharded
            .rel
            .remove_all(&keys)
            .expect("cross-shard remove_all");
        assert!(fresh.iter().chain(&gone).all(|&changed| changed));
    });
    m.push(("shard.cross_batch16_us", pair_ns / 2.0 / 1e3));
}

fn relspec(spec: &ProbeSpec<'_>, scale: u32, m: &mut Metrics) {
    m.push((
        "relspec.tuple_build_ns",
        ns_per_call(500_000 / scale, |i| {
            black_box((spec.key)(i % spec.keys));
        }),
    ));
    let row = (spec.key)(0).union_disjoint(&(spec.payload)(0));
    m.push((
        "relspec.tuple_clone_ns",
        ns_per_call(500_000 / scale, |_| {
            black_box(black_box(&row).clone());
        }),
    ));
}

fn containers(spec: &ProbeSpec<'_>, scale: u32, m: &mut Metrics) {
    let n = spec.top_entries;
    let key = |k: u32| Tuple::from_pairs([(spec.top_col, Value::from(k))]);
    let keys: Vec<Tuple> = (0..n).map(key).collect();
    let c: Box<dyn Container<Tuple, Arc<u64>>> = spec.top_kind.instantiate();
    for (i, k) in keys.iter().enumerate() {
        c.write(k, Some(Arc::new(i as u64)));
    }
    m.push((
        "containers.lookup_ns",
        ns_per_call(200_000 / scale, |i| {
            black_box(c.lookup(&keys[scatter(i, n) as usize]));
        }),
    ));
    let fresh = Arc::new(0u64);
    m.push((
        "containers.write_ns",
        ns_per_call(200_000 / scale, |i| {
            black_box(c.write(&keys[scatter(i, n) as usize], Some(fresh.clone())));
        }),
    ));
    // Unsorted kinds answer a range by scanning everything: fewer calls.
    let scans = if spec.top_kind.props().sorted_scan {
        20_000
    } else {
        200
    };
    m.push((
        "containers.scan_range32_ns",
        ns_per_call(scans / scale, |i| {
            let lo = scatter(i, n - 32);
            let mut seen = 0u32;
            c.scan_range(
                Bound::Included(&keys[lo as usize]),
                Bound::Excluded(&keys[lo as usize + 32]),
                &mut |_, _| {
                    seen += 1;
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(black_box(seen), 32);
        }),
    ));

    // Version chains: committed stamps made beforehand, so that the push
    // probe times the push alone.
    let iters = 100_000 / scale;
    let stamps: Vec<Arc<CommitStamp>> = (0..=iters)
        .map(|_| {
            let s = CommitStamp::new();
            commit_clock().commit(&s);
            s
        })
        .collect();
    let guard = epoch::pin();
    let cell = VersionCell::new(stamps[0].clone(), Some(0u64));
    m.push((
        "containers.version_push_ns",
        ns_per_call(iters, |i| {
            cell.push(stamps[i as usize + 1].clone(), Some(i as u64), &guard);
        }),
    ));
    drop(cell);
    // A writer-touched entry as a reader finds it: two versions deep.
    let cells: Vec<VersionCell<u64>> = (0..4096)
        .map(|i| {
            let cell = VersionCell::new(stamps[0].clone(), Some(i));
            cell.push(stamps[1].clone(), Some(i + 1), &guard);
            cell
        })
        .collect();
    let snap = commit_clock().now();
    m.push((
        "containers.version_resolve_ns",
        ns_per_call(500_000 / scale, |i| {
            black_box(cells[i as usize % cells.len()].resolve(snap, &guard));
        }),
    ));
}

fn locks(scale: u32, m: &mut Metrics) {
    let lock = PhysicalLock::new();
    m.push((
        "locks.physical_pair_ns",
        ns_per_call(1_000_000 / scale, |_| {
            lock.acquire(LockMode::Exclusive);
            // SAFETY: this thread acquired `lock` in exclusive mode on the
            // line above and has not released it since.
            unsafe { lock.release(LockMode::Exclusive) };
        }),
    ));
    let pair = [Arc::new(PhysicalLock::new()), Arc::new(PhysicalLock::new())];
    let mut engine: TwoPhaseEngine<usize> = TwoPhaseEngine::new(Arc::new(LockStats::new()));
    m.push((
        "locks.engine_acquire2_finish_ns",
        ns_per_call(500_000 / scale, |_| {
            for (key, lock) in pair.iter().enumerate() {
                engine
                    .acquire(key, lock, LockMode::Exclusive)
                    .expect("uncontended in-order acquisition");
            }
            engine.finish();
        }),
    ));
    m.push((
        "locks.clock_commit_ns",
        ns_per_call(500_000 / scale, |_| {
            black_box(commit_clock().commit(&CommitStamp::new()));
        }),
    ));
}

fn planner(spec: &ProbeSpec<'_>, scale: u32, m: &mut Metrics) {
    // Cold compiles: `rel.planner()` bypasses the relation's plan memo.
    let p = spec.rel.planner();
    let key_cols = (spec.key)(0).dom();
    let all = key_cols.union(spec.payload_cols);
    let iters = 5_000 / scale;
    m.push((
        "planner.plan_query_ns",
        ns_per_call(iters, |_| {
            black_box(
                p.plan_query(key_cols, spec.payload_cols)
                    .expect("point query plan"),
            );
        }),
    ));
    m.push((
        "planner.plan_update_ns",
        ns_per_call(iters, |_| {
            black_box(
                p.plan_update(key_cols, spec.payload_cols)
                    .expect("update plan"),
            );
        }),
    ));
    m.push((
        "planner.plan_insert_ns",
        ns_per_call(iters, |_| {
            black_box(p.plan_insert(key_cols).expect("insert plan"));
        }),
    ));
    m.push((
        "planner.plan_range_ns",
        ns_per_call(iters, |_| {
            black_box(
                p.plan_range(ColumnSet::new(), spec.top_col, all)
                    .expect("range plan"),
            );
        }),
    ));
    // How many different plans the planner's entry points give this
    // representation; each is compiled once per thread and memoised.
    let mut shapes = std::collections::BTreeSet::new();
    let mut note = |shape: String| {
        shapes.insert(shape);
    };
    if let Ok(plan) = p.plan_query(key_cols, spec.payload_cols) {
        note(format!("{plan:?}"));
    }
    if let Ok(plan) = p.plan_range(ColumnSet::new(), spec.top_col, all) {
        note(format!("{plan:?}"));
    }
    if let Ok(plan) = p.plan_update(key_cols, spec.payload_cols) {
        note(format!("{plan:?}"));
    }
    if let Ok(plan) = p.plan_insert(key_cols) {
        note(format!("{plan:?}"));
    }
    if let Ok(plan) = p.plan_remove(key_cols) {
        note(format!("{plan:?}"));
    }
    if let Ok(plan) = p.plan_insert_batch(key_cols) {
        note(format!("{plan:?}"));
    }
    if let Ok(plan) = p.plan_remove_batch(key_cols) {
        note(format!("{plan:?}"));
    }
    m.push(("planner.distinct_plan_shapes", shapes.len() as f64));
}

fn mvcc(spec: &ProbeSpec<'_>, scale: u32, m: &mut Metrics) {
    let keys: Vec<Tuple> = (0..4096.min(spec.keys))
        .map(|i| (spec.key)(scatter(i, spec.keys)))
        .collect();
    let iters = 100_000 / scale;
    let snapshot = ns_per_call(iters, |i| {
        let rows = spec
            .rel
            .query(&keys[i as usize % keys.len()], spec.payload_cols);
        assert_eq!(black_box(rows).map(|r| r.len()), Ok(1));
    });
    let locked = ns_per_call(iters, |i| {
        let rows = spec
            .rel
            .transaction(|tx| tx.query(&keys[i as usize % keys.len()], spec.payload_cols));
        assert_eq!(black_box(rows).map(|r| r.len()), Ok(1));
    });
    m.push(("mvcc.locked_over_snapshot_read", locked / snapshot));
}

/// Median microseconds of a raw 200-byte append + `fsync` in the
/// benchmark's output directory: the floor the device puts under a
/// durable commit.
pub fn fsync_probe_us() -> f64 {
    let path = crate::out_dir().join(format!("fsync-probe-{}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create fsync probe file");
    let record = [0xA7u8; 200];
    let mut us: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            f.write_all(&record).expect("append to fsync probe file");
            f.sync_all().expect("fsync probe file");
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    drop(f);
    let _ = std::fs::remove_file(&path);
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

const LADDER_ROWS: u32 = 16_384;
/// Updates per rung. An update through the relation costs ~13 us here, so
/// this keeps the five rungs without `fsync` under two seconds together.
const LADDER_UPDATES: u32 = 20_000;
/// The fsync rung runs a prefix of the stream: at a few hundred
/// microseconds a commit the whole stream would take several seconds.
const LADDER_FSYNC_UPDATES: u32 = 2_000;

/// The feature ladder: one client, the same update stream on each rung,
/// each rung adding one feature to the one below. The difference between
/// two rungs is what that feature costs when it is on but idle.
pub fn ladder(quick: bool) -> Metrics {
    let scale = if quick { 10 } else { 1 };
    let updates = LADDER_UPDATES / scale;
    let mut m = Metrics::new();
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let schema = d.schema().clone();
    let col = |n: &str| schema.column(n).expect("graph schema column");
    let (src, dst, weight) = (col("src"), col("dst"), col("weight"));
    let key = |k: u32| Tuple::from_pairs([(src, Value::from(k)), (dst, Value::from(k))]);
    let payload = |w: u32| Tuple::from_pairs([(weight, Value::from(w))]);
    let target = |i: u32| scatter(i, LADDER_ROWS);
    let preload: Vec<(Tuple, Tuple)> = (0..LADDER_ROWS).map(|k| (key(k), payload(k))).collect();

    let c: Box<dyn Container<Tuple, Arc<u64>>> = ContainerKind::ConcurrentHashMap.instantiate();
    for (k, _) in &preload {
        c.write(k, Some(Arc::new(0)));
    }
    m.push((
        "ladder.container_write_ns",
        ns_per_call(updates, |i| {
            black_box(c.write(&key(target(i)), Some(Arc::new(i as u64))));
        }),
    ));

    let fine = || LockPlacement::fine(&d).expect("fine placement");
    let rel = ConcurrentRelation::new(d.clone(), fine()).expect("split/fine relation");
    rel.insert_all(&preload).expect("preload ladder relation");
    m.push((
        "ladder.relation_update_ns",
        ns_per_call(updates, |i| {
            let old = rel.update(&key(target(i)), &payload(i));
            assert!(black_box(old).is_ok_and(|o| o.is_some()));
        }),
    ));
    m.push((
        "ladder.txn_update_ns",
        ns_per_call(updates, |i| {
            let old = rel.transaction(|tx| tx.update(&key(target(i)), &payload(i)));
            assert!(black_box(old).is_ok_and(|o| o.is_some()));
        }),
    ));
    drop(rel);

    // The three sharded rungs go through `transaction` like the rung
    // below them, so that rung 3 → 4 is the routing hop alone.
    let sharded_rung = |rel: &ShardedRelation, updates: u32| {
        rel.insert_all(&preload).expect("preload ladder relation");
        ns_per_call(updates, |i| {
            let old = rel.transaction(|tx| tx.update(&key(target(i)), &payload(i)));
            assert!(black_box(old).is_ok_and(|o| o.is_some()));
        })
    };
    let shard1 = ShardedRelation::new(d.clone(), fine(), 1).expect("1-shard relation");
    m.push(("ladder.shard1_update_ns", sharded_rung(&shard1, updates)));
    drop(shard1);
    for (name, fsync, updates) in [
        ("ladder.wal_nosync_update_ns", false, updates),
        (
            "ladder.wal_fsync_update_ns",
            true,
            LADDER_FSYNC_UPDATES / scale,
        ),
    ] {
        let dir = crate::out_dir().join(format!("ladder-{}-{fsync}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = WalOptions {
            fsync,
            group_window: Duration::ZERO,
        };
        let (rel, _) = ShardedRelation::open_durable(d.clone(), fine(), 1, &dir, opts)
            .expect("open 1-shard durable relation");
        m.push((name, sharded_rung(&rel, updates)));
        drop(rel);
        let _ = std::fs::remove_dir_all(&dir);
    }
    m
}

/// A probe outside the ledger: median nanoseconds of one `Instant::now()`
/// pair, printed in the run header so that a reader can judge the clock's
/// share of a sub-microsecond latency.
pub fn clock_read_ns() -> f64 {
    ns_per_call(1_000_000, |_| {
        black_box(Instant::now());
    })
}
