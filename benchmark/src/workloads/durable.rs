//! `durable_sharded`: `ShardedRelation::open_durable` over 4 shards of
//! `split(ConcurrentHashMap, HashMap)` + `fine`, with
//! `WalOptions { fsync: true, group_window: 0 }` and the logs under
//! `benchmark/out/`. 50% routed `update`, 20% 16-row `insert_all` /
//! `remove_all` of a block of rows that live on one shard, 10% two-update
//! transactions over two random rows (3 in 4 span two shards), 20%
//! `query` (half routed, half fanned in on the non-routing pattern
//! `src = k`). Client 0 checkpoints every
//! [`DurableSharded::checkpoint_every`] of its own writes, so a run sees
//! several checkpoint cycles. The log and the router do the work here;
//! everything below them idles while a commit waits for its `fsync`.
//!
//! Blocks are shard-local, as a loader that batches by destination would
//! make them, because a batch that spans shards leaves the router's
//! single-destination path for the cross-shard transaction path, and that
//! path takes ~25 ms for 16 rows at this size (it grows with the rows a
//! shard holds). At 20% of the mix that one cost would be the whole
//! workload. The probe `shard.cross_batch16_us` keeps it in the ledger.
//!
//! After the run the relation is dropped and reopened, and what recovery
//! rebuilds must equal what was there before the drop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use relc::decomp::library::split;
use relc::placement::LockPlacement;
use relc::{Decomposition, ShardedRelation, WalOptions};
use relc_containers::ContainerKind;
use relc_spec::{ColumnId, ColumnSet, RelationSchema, Tuple, Value};

use super::{int, quiescent_rows};
use crate::stream::{Op, Rng, STREAM_LEN};
use crate::trace::Tracer;
use crate::workload::{
    Counters, Outcome, PostCheck, ProbeSpec, Scale, ShardedProbe, Target, Workload,
};

const UPDATE: u8 = 0;
const INSERT_BLOCK: u8 = 1;
const REMOVE_BLOCK: u8 = 2;
const TWO_UPDATE_TXN: u8 = 3;
const ROUTED_QUERY: u8 = 4;
const FANIN_QUERY: u8 = 5;

const SHARDS: usize = 4;
const BLOCK_ROWS: usize = 16;
const WAL: WalOptions = WalOptions {
    fsync: true,
    group_window: Duration::ZERO,
};

pub struct DurableSharded {
    /// Diagonal keys `0..diagonal`, never removed.
    diagonal: u32,
    /// Off-diagonal blocks of [`BLOCK_ROWS`] rows `(src, dst)` each, every
    /// block on one shard; the even ones are preloaded (inserts : removes
    /// = 1 : 1).
    blocks: Vec<[(u32, u32); BLOCK_ROWS]>,
    /// Client 0 checkpoints after this many of its own writes. The two
    /// clients are symmetric, so at full size that is every 4,000 commits:
    /// at the ~800 commits a second this sandbox's `fsync` allows, four
    /// cycles in a 20 s run.
    checkpoint_every: u64,
}

impl DurableSharded {
    pub fn new(scale: Scale) -> Self {
        let rows = scale.rows(65_536);
        let diagonal = rows / 8 * 7;
        let blocks = rows / 8 / BLOCK_ROWS as u32 * 2;
        // An empty relation of the same shape, to ask the router where
        // rows go.
        let (d, p) = representation();
        let router = ShardedRelation::new(d, p, SHARDS).expect("sharded relation");
        let schema = router.schema().clone();
        let (src, dst) = (column(&schema, "src"), column(&schema, "dst"));
        let shard_of = |s: u32, d: u32| {
            router.shard_of(&Tuple::from_pairs([
                (src, Value::from(s)),
                (dst, Value::from(d)),
            ]))
        };
        // Block `b` is the first 16 rows `(s, s + j)`, `j = 1, 2, ...`,
        // around its stretch of the key space that route to shard
        // `b % SHARDS`.
        let stretch = diagonal / blocks;
        let blocks = (0..blocks)
            .map(|b| {
                let candidates =
                    (1..).flat_map(|j| (b * stretch..(b + 1) * stretch).map(move |s| (s, s + j)));
                let mut local = candidates.filter(|&(s, d)| shard_of(s, d) == b as usize % SHARDS);
                std::array::from_fn(|_| local.next().expect("unbounded candidates"))
            })
            .collect();
        DurableSharded {
            diagonal,
            blocks,
            checkpoint_every: scale.rows(2_000) as u64,
        }
    }
}

fn representation() -> (Arc<Decomposition>, Arc<LockPlacement>) {
    let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
    let p = LockPlacement::fine(&d).expect("fine placement");
    (d, p)
}

fn column(schema: &RelationSchema, name: &str) -> ColumnId {
    schema.column(name).expect("graph schema column")
}

pub struct DurableState {
    rel: ShardedRelation,
    dir: PathBuf,
    src: ColumnId,
    dst: ColumnId,
    weight: ColumnId,
    weight_cols: ColumnSet,
    dst_weight: ColumnSet,
    /// Bytes of log files that checkpoints have since truncated.
    truncated_bytes: AtomicU64,
    checkpoint_ns: Mutex<Vec<u64>>,
}

impl DurableState {
    fn row(&self, s: u32, d: u32) -> Tuple {
        Tuple::from_pairs([(self.src, Value::from(s)), (self.dst, Value::from(d))])
    }

    fn weight(&self, w: u32) -> Tuple {
        Tuple::from_pairs([(self.weight, Value::from(w))])
    }

    fn log_bytes(&self) -> u64 {
        (0..SHARDS)
            .filter_map(|i| std::fs::metadata(self.dir.join(format!("shard-{i}.wal"))).ok())
            .map(|m| m.len())
            .sum()
    }

    fn checkpoint(&self) -> Instant {
        let t0 = Instant::now();
        let before = self.log_bytes();
        self.rel.checkpoint().expect("checkpoint");
        let t1 = Instant::now();
        self.truncated_bytes.fetch_add(before, Ordering::Relaxed);
        self.checkpoint_ns
            .lock()
            .expect("checkpoint list")
            .push((t1 - t0).as_nanos() as u64);
        t0
    }
}

fn open(dir: &Path) -> (ShardedRelation, relc::RecoveryReport) {
    let (d, p) = representation();
    ShardedRelation::open_durable(d, p, SHARDS, dir, WAL).expect("open durable relation")
}

impl Target for DurableSharded {
    type State = DurableState;

    fn setup(&self, tag: &str) -> DurableState {
        let dir = crate::out_dir().join(format!("wal-{tag}"));
        // A stale directory would be recovered from, not started from.
        let _ = std::fs::remove_dir_all(&dir);
        let (rel, _) = open(&dir);
        let schema = rel.schema().clone();
        let st = DurableState {
            src: column(&schema, "src"),
            dst: column(&schema, "dst"),
            weight: column(&schema, "weight"),
            weight_cols: schema.column_set(&["weight"]).expect("graph columns"),
            dst_weight: schema
                .column_set(&["dst", "weight"])
                .expect("graph columns"),
            truncated_bytes: AtomicU64::new(0),
            checkpoint_ns: Mutex::new(Vec::new()),
            rel,
            dir,
        };
        let diagonal = (0..self.diagonal).map(|k| (k, k));
        let blocks = self.blocks.iter().step_by(2).flatten().copied();
        // Batched by destination shard, 1024 rows to a batch: a batch
        // that spans shards would take the cross-shard transaction path.
        let mut by_shard: Vec<Vec<(Tuple, Tuple)>> = vec![Vec::new(); SHARDS];
        for (s, d) in diagonal.chain(blocks) {
            let key = st.row(s, d);
            by_shard[st.rel.shard_of(&key)].push((key, st.weight(s)));
        }
        for batch in by_shard.iter().flat_map(|rows| rows.chunks(1024)) {
            let fresh = st.rel.insert_all(batch).expect("preload batch");
            assert!(fresh.iter().all(|&f| f), "preload rows are distinct");
        }
        // The run starts from a checkpoint and empty logs.
        st.rel.checkpoint().expect("checkpoint after preload");
        st
    }

    fn exec<T: Tracer>(&self, st: &DurableState, op: Op, tr: &mut T) -> Outcome {
        match op.kind {
            UPDATE => {
                tr.enter("relspec.args");
                let (key, payload) = (st.row(op.k1, op.k1), st.weight(op.w));
                tr.next("relation.update");
                let old = st.rel.update(&key, &payload);
                tr.exit();
                Outcome::write(old.is_ok_and(|old| old.is_some()))
            }
            INSERT_BLOCK => {
                tr.enter("relspec.args");
                let rows: Vec<(Tuple, Tuple)> = self.blocks[op.k1 as usize]
                    .iter()
                    .map(|&(s, d)| (st.row(s, d), st.weight(op.w)))
                    .collect();
                tr.next("relation.insert_all");
                let r = st.rel.insert_all(&rows);
                tr.exit();
                Outcome::write(r.is_ok_and(|fresh| fresh.len() == rows.len()))
            }
            REMOVE_BLOCK => {
                tr.enter("relspec.args");
                let keys: Vec<Tuple> = self.blocks[op.k1 as usize]
                    .iter()
                    .map(|&(s, d)| st.row(s, d))
                    .collect();
                tr.next("relation.remove_all");
                let r = st.rel.remove_all(&keys);
                tr.exit();
                Outcome::write(r.is_ok_and(|gone| gone.len() == keys.len()))
            }
            TWO_UPDATE_TXN => {
                tr.enter("relspec.args");
                let (a, b) = (st.row(op.k1, op.k1), st.row(op.k2, op.k2));
                let (wa, wb) = (st.weight(op.w), st.weight(op.w + 1));
                tr.next("relation.transaction");
                let both = st.rel.transaction(|tx| {
                    tr.enter("txn.update");
                    let ua = tx.update(&a, &wa);
                    tr.exit();
                    let ua = ua?;
                    tr.enter("txn.update");
                    let ub = tx.update(&b, &wb);
                    tr.exit();
                    Ok(ua.is_some() && ub?.is_some())
                });
                tr.exit();
                Outcome::write(both == Ok(true))
            }
            ROUTED_QUERY => {
                tr.enter("relspec.args");
                let key = st.row(op.k1, op.k1);
                tr.next("relation.query");
                let rows = st.rel.query(&key, st.weight_cols);
                tr.exit();
                Outcome::read(rows.is_ok_and(|rows| rows.len() == 1))
            }
            FANIN_QUERY => {
                tr.enter("relspec.args");
                let pattern = Tuple::from_pairs([(st.src, Value::from(op.k1))]);
                tr.next("shard.fanin_query");
                let rows = st.rel.query(&pattern, st.dst_weight);
                tr.next("check");
                let ok = rows
                    .is_ok_and(|rows| rows.iter().any(|r| int(r, st.dst) == Some(op.k1 as i64)));
                tr.exit();
                Outcome::read(ok)
            }
            k => unreachable!("durable op kind {k}"),
        }
    }

    fn maintain<T: Tracer>(
        &self,
        st: &DurableState,
        client: usize,
        writes: u64,
        tr: &mut T,
    ) -> bool {
        if client != 0 || !writes.is_multiple_of(self.checkpoint_every) {
            return false;
        }
        let t0 = st.checkpoint();
        tr.event("wal.checkpoint", t0, Instant::now());
        true
    }

    fn discard(&self, st: DurableState) {
        let DurableState { rel, dir, .. } = st;
        drop(rel);
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Workload for DurableSharded {
    fn name(&self) -> &'static str {
        "durable_sharded"
    }

    fn gen_stream(&self, rng: &mut Rng) -> Vec<Op> {
        (0..STREAM_LEN)
            .map(|_| {
                let kind = match rng.below(10) {
                    0..=4 => UPDATE,
                    5 => INSERT_BLOCK,
                    6 => REMOVE_BLOCK,
                    7 => TWO_UPDATE_TXN,
                    8 => ROUTED_QUERY,
                    _ => FANIN_QUERY,
                };
                let (k1, k2) = match kind {
                    INSERT_BLOCK | REMOVE_BLOCK => (rng.below(self.blocks.len() as u32), 0),
                    _ => {
                        let a = rng.below(self.diagonal);
                        // A second key, different from the first.
                        (a, (a + 1 + rng.below(self.diagonal - 1)) % self.diagonal)
                    }
                };
                Op {
                    kind,
                    k1,
                    k2,
                    w: rng.below(1_000),
                }
            })
            .collect()
    }

    fn counters(&self, st: &DurableState) -> Counters {
        Counters {
            stats: st.rel.stats_snapshot(),
            wal: st.rel.wal_stats(),
            wal_bytes: st.truncated_bytes.load(Ordering::Relaxed) + st.log_bytes(),
            version_footprint: st.rel.shards().iter().map(|s| s.version_footprint()).sum(),
        }
    }

    fn probe_spec<'a>(&'a self, st: &'a DurableState) -> ProbeSpec<'a> {
        // The probes run on shard 0, with the diagonal keys it owns.
        let owned: Vec<u32> = (0..self.diagonal)
            .filter(|&k| st.rel.shard_of(&st.row(k, k)) == 0)
            .collect();
        ProbeSpec {
            rel: &st.rel.shards()[0],
            sharded: Some(ShardedProbe {
                rel: &st.rel,
                // No block reaches this far from the diagonal.
                fresh_key: Box::new(|i| st.row(i, i + 1_000_000)),
            }),
            top_kind: ContainerKind::ConcurrentHashMap,
            top_entries: owned.len() as u32,
            top_col: st.src,
            keys: owned.len() as u32,
            key: Box::new(move |i| st.row(owned[i as usize], owned[i as usize])),
            payload_cols: st.weight_cols,
            payload: Box::new(|w| st.weight(w)),
        }
    }

    fn cross_shard_txn_share(&self, st: &DurableState, streams: &[Vec<Op>]) -> f64 {
        let (mut txns, mut crossing) = (0u64, 0u64);
        for op in streams
            .iter()
            .flatten()
            .filter(|op| op.kind == TWO_UPDATE_TXN)
        {
            txns += 1;
            let shard = |k| st.rel.shard_of(&st.row(k, k));
            crossing += (shard(op.k1) != shard(op.k2)) as u64;
        }
        crossing as f64 / txns.max(1) as f64
    }

    fn checkpoint_ns(&self, st: &DurableState) -> Vec<u64> {
        st.checkpoint_ns.lock().expect("checkpoint list").clone()
    }

    fn post_check(&self, st: DurableState) -> Result<PostCheck, String> {
        let before = quiescent_rows(st.rel.len(), || st.rel.verify(), || st.rel.snapshot())?;
        let diagonal = before
            .iter()
            .filter(|r| int(r, st.src) == int(r, st.dst))
            .count();
        if diagonal != self.diagonal as usize {
            return Err(format!(
                "{diagonal} diagonal rows left of {}",
                self.diagonal
            ));
        }
        let DurableState { rel, dir, .. } = st;
        drop(rel);
        let t0 = Instant::now();
        let (reopened, report) = open(&dir);
        let recovery_s = t0.elapsed().as_secs_f64();
        let after = reopened.snapshot().map_err(|e| e.to_string())?;
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
        if report.torn_tail {
            return Err("recovery found a torn tail after a clean drop".into());
        }
        if before != after {
            return Err(format!(
                "recovered {} rows differ from the {} rows before the drop",
                after.len(),
                before.len()
            ));
        }
        Ok(PostCheck {
            rows: after.len(),
            recovery_s,
            replayed_records: report.replayed,
        })
    }
}
