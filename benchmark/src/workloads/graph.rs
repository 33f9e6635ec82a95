//! `graph_read_mostly`: the paper's Figure 5 mix 45-45-9-1 (successors /
//! predecessors / insert-edge / remove-edge) over uniform keys, on
//! `split(ConcurrentHashMap, HashMap)` + `striped_root(1024)`. Reads are
//! single-shot and take the lock-free snapshot path; it is also the only
//! workload with a hand-written reference ([`GraphHandcoded`]).
//!
//! Every node keeps a permanent self-loop, so each read has a row it must
//! find. Inserts and removes draw from a fixed universe of off-diagonal
//! edges preloaded at its steady-state occupancy (inserts : removes =
//! 9 : 1, so 0.9), which keeps the graph's size — and so each read's cost —
//! the same from the first slice to the last.

use std::collections::HashSet;

use relc::decomp::library::split;
use relc::placement::LockPlacement;
use relc::ConcurrentRelation;
use relc_autotune::GraphOps;
use relc_bench::handcoded::HandcodedGraph;
use relc_containers::ContainerKind;
use relc_spec::{ColumnId, ColumnSet, Tuple, Value};

use super::{int, quiescent_rows_of, stats_of};
use crate::runner::{self, RunResult, RunShape};
use crate::stream::{Op, Rng, STREAM_LEN};
use crate::trace::Tracer;
use crate::workload::{Counters, Outcome, PostCheck, ProbeSpec, Scale, Target, Workload};

const SUCCESSORS: u8 = 0;
const PREDECESSORS: u8 = 1;
const INSERT_EDGE: u8 = 2;
const REMOVE_EDGE: u8 = 3;

pub struct GraphReadMostly {
    nodes: u32,
    /// Off-diagonal edges that inserts and removes draw from; the first
    /// `churn_preloaded` are present at the start.
    universe: Vec<(u32, u32)>,
    churn_preloaded: usize,
}

impl GraphReadMostly {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let nodes = scale.rows(4_096);
        let edges = scale.rows(32_768);
        let churn_preloaded = (edges - nodes) as usize;
        let universe_len = churn_preloaded * 10 / 9;
        let mut rng = Rng::for_lane(seed, 0x67_72_61_70_68);
        let mut seen = HashSet::with_capacity(universe_len);
        let mut universe = Vec::with_capacity(universe_len);
        while universe.len() < universe_len {
            let e = (rng.below(nodes), rng.below(nodes));
            if e.0 != e.1 && seen.insert(e) {
                universe.push(e);
            }
        }
        GraphReadMostly {
            nodes,
            universe,
            churn_preloaded,
        }
    }

    fn preloaded(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.nodes)
            .map(|n| (n, n))
            .chain(self.universe[..self.churn_preloaded].iter().copied())
    }
}

pub struct GraphState {
    rel: ConcurrentRelation,
    src: ColumnId,
    dst: ColumnId,
    weight: ColumnId,
    dst_weight: ColumnSet,
    src_weight: ColumnSet,
}

impl GraphState {
    fn edge(&self, s: u32, d: u32) -> Tuple {
        Tuple::from_pairs([(self.src, Value::from(s)), (self.dst, Value::from(d))])
    }

    fn weight(&self, w: u32) -> Tuple {
        Tuple::from_pairs([(self.weight, Value::from(w))])
    }
}

impl Target for GraphReadMostly {
    type State = GraphState;

    fn setup(&self, _tag: &str) -> GraphState {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::striped_root(&d, 1024).expect("striped_root placement");
        let rel = ConcurrentRelation::new(d, p).expect("split/striped1024 relation");
        let schema = rel.schema().clone();
        let col = |n: &str| schema.column(n).expect("graph schema column");
        let st = GraphState {
            src: col("src"),
            dst: col("dst"),
            weight: col("weight"),
            dst_weight: schema
                .column_set(&["dst", "weight"])
                .expect("graph columns"),
            src_weight: schema
                .column_set(&["src", "weight"])
                .expect("graph columns"),
            rel,
        };
        for (s, d) in self.preloaded() {
            let fresh = st.rel.insert(&st.edge(s, d), &st.weight(s ^ d));
            assert_eq!(fresh, Ok(true), "preload edge ({s}, {d})");
        }
        st
    }

    fn exec<T: Tracer>(&self, st: &GraphState, op: Op, tr: &mut T) -> Outcome {
        match op.kind {
            SUCCESSORS | PREDECESSORS => {
                let (bound, other, out) = if op.kind == SUCCESSORS {
                    (st.src, st.dst, st.dst_weight)
                } else {
                    (st.dst, st.src, st.src_weight)
                };
                tr.enter("relspec.args");
                let pattern = Tuple::from_pairs([(bound, Value::from(op.k1))]);
                tr.next("relation.query");
                let rows = st.rel.query(&pattern, out);
                tr.next("check");
                // The node's self-loop is never removed.
                let ok =
                    rows.is_ok_and(|rows| rows.iter().any(|r| int(r, other) == Some(op.k1 as i64)));
                tr.exit();
                Outcome::read(ok)
            }
            INSERT_EDGE => {
                tr.enter("relspec.args");
                let (key, payload) = (st.edge(op.k1, op.k2), st.weight(op.w));
                tr.next("relation.insert");
                let r = st.rel.insert(&key, &payload);
                tr.exit();
                Outcome::write(r.is_ok())
            }
            REMOVE_EDGE => {
                tr.enter("relspec.args");
                let key = st.edge(op.k1, op.k2);
                tr.next("relation.remove");
                let r = st.rel.remove(&key);
                tr.exit();
                Outcome::write(r.is_ok_and(|n| n <= 1))
            }
            k => unreachable!("graph op kind {k}"),
        }
    }
}

impl Workload for GraphReadMostly {
    fn name(&self) -> &'static str {
        "graph_read_mostly"
    }

    fn gen_stream(&self, rng: &mut Rng) -> Vec<Op> {
        (0..STREAM_LEN)
            .map(|_| {
                let kind = match rng.below(100) {
                    0..=44 => SUCCESSORS,
                    45..=89 => PREDECESSORS,
                    90..=98 => INSERT_EDGE,
                    _ => REMOVE_EDGE,
                };
                let (k1, k2) = if kind <= PREDECESSORS {
                    (rng.below(self.nodes), 0)
                } else {
                    self.universe[rng.below(self.universe.len() as u32) as usize]
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

    fn counters(&self, st: &GraphState) -> Counters {
        stats_of(&st.rel)
    }

    fn probe_spec<'a>(&'a self, st: &'a GraphState) -> ProbeSpec<'a> {
        ProbeSpec {
            rel: &st.rel,
            sharded: None,
            top_kind: ContainerKind::ConcurrentHashMap,
            top_entries: self.nodes,
            top_col: st.src,
            key: Box::new(|i| st.edge(i, i)),
            keys: self.nodes,
            payload_cols: ColumnSet::single(st.weight),
            payload: Box::new(|w| st.weight(w)),
        }
    }

    fn reference_run(&self, streams: &[Vec<Op>], shape: RunShape) -> Option<RunResult> {
        let reference = GraphHandcoded(self);
        let g = reference.setup("");
        Some(runner::run(&reference, &g, streams, shape, false))
    }

    fn post_check(&self, st: GraphState) -> Result<PostCheck, String> {
        let rows = quiescent_rows_of(&st.rel)?;
        let universe: HashSet<(i64, i64)> = self
            .universe
            .iter()
            .map(|&(s, d)| (s as i64, d as i64))
            .collect();
        let mut loops = 0;
        for r in &rows {
            match (int(r, st.src), int(r, st.dst)) {
                (Some(s), Some(d)) if s == d => loops += 1,
                (Some(s), Some(d)) if universe.contains(&(s, d)) => {}
                _ => return Err(format!("row outside the edge universe: {r:?}")),
            }
        }
        if loops != self.nodes {
            return Err(format!("{loops} self-loops left of {}", self.nodes));
        }
        Ok(PostCheck {
            rows: rows.len(),
            ..PostCheck::default()
        })
    }
}

/// The same stream and the same checks against the hand-written graph of
/// `relc_bench::handcoded` — the reference of the paper's §6.2 claim.
pub struct GraphHandcoded<'w>(pub &'w GraphReadMostly);

impl Target for GraphHandcoded<'_> {
    type State = HandcodedGraph;

    fn setup(&self, _tag: &str) -> HandcodedGraph {
        let g = HandcodedGraph::new();
        for (s, d) in self.0.preloaded() {
            assert!(g.insert_edge(s as i64, d as i64, (s ^ d) as i64));
        }
        g
    }

    fn exec<T: Tracer>(&self, g: &HandcodedGraph, op: Op, _: &mut T) -> Outcome {
        let (k1, k2) = (op.k1 as i64, op.k2 as i64);
        match op.kind {
            SUCCESSORS => Outcome::read(g.find_successors(k1).iter().any(|&(d, _)| d == k1)),
            PREDECESSORS => Outcome::read(g.find_predecessors(k1).iter().any(|&(s, _)| s == k1)),
            INSERT_EDGE => {
                g.insert_edge(k1, k2, op.w as i64);
                Outcome::write(true)
            }
            REMOVE_EDGE => {
                g.remove_edge(k1, k2);
                Outcome::write(true)
            }
            k => unreachable!("graph op kind {k}"),
        }
    }
}
