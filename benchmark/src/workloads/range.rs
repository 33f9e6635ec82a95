//! `range_window`: a working set well beyond L2 on
//! `stick(ConcurrentSkipListMap, HashMap)` + `fine`. 60% single-shot
//! `query_range` (32-wide window on `src`, top-32, snapshot path), 20%
//! locked `transaction(query_range(8-wide) + update(first row))`, 20%
//! insert/remove churn of off-diagonal rows. Ordered container scans,
//! range assembly, tuple allocation and epoch reclamation dominate; the
//! locked range path is where "range plans lock every stripe" shows.
//!
//! Seven eighths of the preloaded rows are the diagonal `(k, k)`, which is
//! never removed, so every window holds at least as many rows as its
//! width. The churn universe is one off-diagonal row `(s, s + 1)` per 3.5
//! diagonal keys, half of it preloaded (inserts : removes = 1 : 1).

use relc::decomp::library::stick;
use relc::placement::LockPlacement;
use relc::ConcurrentRelation;
use relc_containers::ContainerKind;
use relc_spec::{ColumnId, ColumnSet, RangePattern, Tuple, Value};

use super::{int, quiescent_rows_of, stats_of};
use crate::stream::{Op, Rng, STREAM_LEN};
use crate::trace::Tracer;
use crate::workload::{Counters, Outcome, PostCheck, ProbeSpec, Scale, Target, Workload};

const SNAPSHOT_RANGE: u8 = 0;
const LOCKED_RANGE_UPDATE: u8 = 1;
const INSERT_ROW: u8 = 2;
const REMOVE_ROW: u8 = 3;

const SNAPSHOT_WIDTH: u32 = 32;
const LOCKED_WIDTH: u32 = 8;

pub struct RangeWindow {
    /// Diagonal keys `0..diagonal`.
    diagonal: u32,
    /// Size of the churn universe.
    churn: u32,
}

impl RangeWindow {
    pub fn new(scale: Scale) -> Self {
        let rows = scale.rows(65_536);
        RangeWindow {
            diagonal: rows / 8 * 7,
            churn: rows / 4,
        }
    }

    /// `src` of churn row `j`; the row is `(src, src + 1)`.
    fn churn_src(&self, j: u32) -> u32 {
        (j as u64 * self.diagonal as u64 / self.churn as u64) as u32
    }
}

pub struct RangeState {
    rel: ConcurrentRelation,
    src: ColumnId,
    dst: ColumnId,
    weight: ColumnId,
    all: ColumnSet,
}

impl RangeState {
    fn row(&self, s: u32, d: u32) -> Tuple {
        Tuple::from_pairs([(self.src, Value::from(s)), (self.dst, Value::from(d))])
    }

    fn weight(&self, w: u32) -> Tuple {
        Tuple::from_pairs([(self.weight, Value::from(w))])
    }

    fn window(&self, lo: u32, width: u32) -> RangePattern {
        RangePattern::half_open(self.src, Value::from(lo), Value::from(lo + width))
            .with_limit(width as usize)
    }

    /// Exactly `width` rows (the diagonal alone fills the window), in
    /// `src` order, all inside the window.
    fn window_ok(&self, rows: &[Tuple], lo: u32, width: u32) -> bool {
        let inside = |r: &Tuple| {
            int(r, self.src).is_some_and(|s| (lo as i64..(lo + width) as i64).contains(&s))
        };
        rows.len() == width as usize
            && rows.iter().all(inside)
            && rows
                .windows(2)
                .all(|w| int(&w[0], self.src) <= int(&w[1], self.src))
    }
}

impl Target for RangeWindow {
    type State = RangeState;

    fn setup(&self, _tag: &str) -> RangeState {
        let d = stick(ContainerKind::ConcurrentSkipListMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).expect("fine placement");
        let rel = ConcurrentRelation::new(d, p).expect("stick/cslm-src/fine relation");
        let schema = rel.schema().clone();
        let col = |n: &str| schema.column(n).expect("graph schema column");
        let st = RangeState {
            src: col("src"),
            dst: col("dst"),
            weight: col("weight"),
            all: schema.columns(),
            rel,
        };
        let diagonal = (0..self.diagonal).map(|k| (k, k));
        let churn = (0..self.churn).step_by(2).map(|j| {
            let s = self.churn_src(j);
            (s, s + 1)
        });
        // Batches, as a loader would: one lock scope per 1024 rows. In a
        // fixed scattered order, not key order: rows loaded in key order
        // sit next to their neighbours in memory until updates move them,
        // and a range read would get slower slice by slice as they do.
        let mut rows: Vec<(Tuple, Tuple)> = diagonal
            .chain(churn)
            .map(|(s, d)| (st.row(s, d), st.weight(s)))
            .collect();
        let mut rng = Rng::new(0x72_61_6e_67_65);
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.below(i as u32 + 1) as usize);
        }
        for batch in rows.chunks(1024) {
            let fresh = st.rel.insert_all(batch).expect("preload batch");
            assert!(fresh.iter().all(|&f| f), "preload rows are distinct");
        }
        st
    }

    fn exec<T: Tracer>(&self, st: &RangeState, op: Op, tr: &mut T) -> Outcome {
        match op.kind {
            SNAPSHOT_RANGE => {
                tr.enter("relspec.args");
                let range = st.window(op.k1, SNAPSHOT_WIDTH);
                tr.next("relation.query_range");
                let rows = st.rel.query_range(&Tuple::empty(), &range, st.all);
                tr.next("check");
                let ok = rows.is_ok_and(|rows| st.window_ok(&rows, op.k1, SNAPSHOT_WIDTH));
                tr.exit();
                Outcome::read(ok)
            }
            LOCKED_RANGE_UPDATE => {
                tr.enter("relspec.args");
                let range = st.window(op.k1, LOCKED_WIDTH);
                let payload = st.weight(op.w);
                tr.next("relation.transaction");
                let done = st.rel.transaction(|tx| {
                    tr.enter("relation.query_range_locked");
                    let rows = tx.query_range(&Tuple::empty(), &range, st.all);
                    tr.exit();
                    let rows = rows?;
                    if !st.window_ok(&rows, op.k1, LOCKED_WIDTH) {
                        return Ok(false);
                    }
                    let first = rows[0].project(ColumnSet::single(st.src).with(st.dst));
                    tr.enter("txn.update");
                    let old = tx.update(&first, &payload);
                    tr.exit();
                    Ok(old?.is_some())
                });
                tr.exit();
                Outcome::write(done == Ok(true))
            }
            INSERT_ROW => {
                tr.enter("relspec.args");
                let (key, payload) = (st.row(op.k1, op.k1 + 1), st.weight(op.w));
                tr.next("relation.insert");
                let r = st.rel.insert(&key, &payload);
                tr.exit();
                Outcome::write(r.is_ok())
            }
            REMOVE_ROW => {
                tr.enter("relspec.args");
                let key = st.row(op.k1, op.k1 + 1);
                tr.next("relation.remove");
                let r = st.rel.remove(&key);
                tr.exit();
                Outcome::write(r.is_ok_and(|n| n <= 1))
            }
            k => unreachable!("range op kind {k}"),
        }
    }
}

impl Workload for RangeWindow {
    fn name(&self) -> &'static str {
        "range_window"
    }

    fn gen_stream(&self, rng: &mut Rng) -> Vec<Op> {
        (0..STREAM_LEN)
            .map(|_| {
                let (kind, k1) = match rng.below(10) {
                    0..=5 => (
                        SNAPSHOT_RANGE,
                        rng.below(self.diagonal - SNAPSHOT_WIDTH + 1),
                    ),
                    6..=7 => (
                        LOCKED_RANGE_UPDATE,
                        rng.below(self.diagonal - LOCKED_WIDTH + 1),
                    ),
                    8 => (INSERT_ROW, self.churn_src(rng.below(self.churn))),
                    _ => (REMOVE_ROW, self.churn_src(rng.below(self.churn))),
                };
                Op {
                    kind,
                    k1,
                    k2: 0,
                    w: rng.below(1_000),
                }
            })
            .collect()
    }

    fn counters(&self, st: &RangeState) -> Counters {
        stats_of(&st.rel)
    }

    fn probe_spec<'a>(&'a self, st: &'a RangeState) -> ProbeSpec<'a> {
        ProbeSpec {
            rel: &st.rel,
            sharded: None,
            top_kind: ContainerKind::ConcurrentSkipListMap,
            top_entries: self.diagonal,
            top_col: st.src,
            key: Box::new(|i| st.row(i, i)),
            keys: self.diagonal,
            payload_cols: ColumnSet::single(st.weight),
            payload: Box::new(|w| st.weight(w)),
        }
    }

    fn post_check(&self, st: RangeState) -> Result<PostCheck, String> {
        let rows = quiescent_rows_of(&st.rel)?;
        let mut diagonal = 0;
        for r in &rows {
            match (int(r, st.src), int(r, st.dst)) {
                (Some(s), Some(d)) if s == d => diagonal += 1,
                (Some(s), Some(d)) if d == s + 1 => {}
                _ => return Err(format!("row outside the key universe: {r:?}")),
            }
        }
        if diagonal != self.diagonal {
            return Err(format!(
                "{diagonal} diagonal rows left of {}",
                self.diagonal
            ));
        }
        Ok(PostCheck {
            rows: rows.len(),
            ..PostCheck::default()
        })
    }
}
