//! What a workload supplies to the runner, the probes and the checks.

use relc::{ConcurrentRelation, ShardedRelation, StatsSnapshot};
use relc_containers::ContainerKind;
use relc_locks::GroupCommitStats;
use relc_spec::{ColumnId, ColumnSet, Tuple};

use crate::runner::{RunResult, RunShape};
use crate::stream::{Op, Rng};
use crate::trace::Tracer;

/// Whether an op counts towards the read or the write latency metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

/// What one executed op reports back: its class, and whether it returned
/// without an unexpected `Err` and passed its inline check.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    pub class: Class,
    pub ok: bool,
}

impl Outcome {
    pub fn read(ok: bool) -> Self {
        Outcome {
            class: Class::Read,
            ok,
        }
    }

    pub fn write(ok: bool) -> Self {
        Outcome {
            class: Class::Write,
            ok,
        }
    }
}

/// Full size, or `--quick` (every row count divided by 16) for tests.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    pub fn rows(self, full: u32) -> u32 {
        if self.quick {
            full / 16
        } else {
            full
        }
    }
}

/// Counters read from the library's own statistics surfaces; the runner
/// takes them before and after a run and reports the difference.
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    pub stats: StatsSnapshot,
    pub wal: Option<GroupCommitStats>,
    /// Log bytes written so far, including logs already truncated by a
    /// checkpoint.
    pub wal_bytes: u64,
    pub version_footprint: usize,
}

/// What the single-threaded layer probes need to know about a workload:
/// a live relation in its representation at its working-set size, and how
/// to name the rows preloaded into it.
pub struct ProbeSpec<'a> {
    pub rel: &'a ConcurrentRelation,
    pub sharded: Option<ShardedProbe<'a>>,
    /// Container kind of the representation's top-level edge, and how many
    /// entries it holds in this workload.
    pub top_kind: ContainerKind,
    pub top_entries: u32,
    /// Column the top-level edge is keyed by.
    pub top_col: ColumnId,
    /// Full key of the `i`-th permanent (never removed) preloaded row,
    /// for `i` in `0..keys`.
    pub key: Box<dyn Fn(u32) -> Tuple + 'a>,
    pub keys: u32,
    /// The non-key columns.
    pub payload_cols: ColumnSet,
    /// A payload tuple.
    pub payload: Box<dyn Fn(u32) -> Tuple + 'a>,
}

/// The sharded relation a workload runs on, for the router's probes.
pub struct ShardedProbe<'a> {
    pub rel: &'a ShardedRelation,
    /// Full key of a row that the workload never inserts, distinct for
    /// each `i`.
    pub fresh_key: Box<dyn Fn(u32) -> Tuple + 'a>,
}

/// Facts a workload's post-run check hands back for the report.
#[derive(Clone, Copy, Debug, Default)]
pub struct PostCheck {
    /// Rows the relation held at the end.
    pub rows: usize,
    /// `durable_sharded` only: seconds to reopen, and records replayed.
    pub recovery_s: f64,
    pub replayed_records: usize,
}

/// Something the closed loop can drive.
pub trait Target: Sync {
    type State: Sync;

    /// Builds the representation and preloads it: everything that happens
    /// before the clock starts, timed as `setup_s`. `tag` names this
    /// set-up's scratch directory, if it needs one.
    fn setup(&self, tag: &str) -> Self::State;

    /// Runs one op, inline check included.
    fn exec<T: Tracer>(&self, st: &Self::State, op: Op, tr: &mut T) -> Outcome;

    /// Called by client `client` after each of its writes, `writes` being
    /// how many it has done. Returns whether it did any work, in which
    /// case the loop takes a fresh timestamp so that the work is not
    /// charged to the next op.
    fn maintain<T: Tracer>(
        &self,
        _: &Self::State,
        _client: usize,
        _writes: u64,
        _: &mut T,
    ) -> bool {
        false
    }

    /// Drops a state that no post-run check will consume, scratch files
    /// included.
    fn discard(&self, st: Self::State) {
        drop(st);
    }
}

pub trait Workload: Target {
    fn name(&self) -> &'static str;

    /// One client's op stream.
    fn gen_stream(&self, rng: &mut Rng) -> Vec<Op>;

    fn counters(&self, st: &Self::State) -> Counters;

    fn probe_spec<'a>(&'a self, st: &'a Self::State) -> ProbeSpec<'a>;

    /// Share of the streams' transactions that span more than one shard.
    fn cross_shard_txn_share(&self, _: &Self::State, _streams: &[Vec<Op>]) -> f64 {
        0.0
    }

    /// Durations of the checkpoints taken so far, in nanoseconds.
    fn checkpoint_ns(&self, _: &Self::State) -> Vec<u64> {
        Vec::new()
    }

    /// The same streams against a hand-written reference implementation,
    /// for the one workload that has one.
    fn reference_run(&self, _streams: &[Vec<Op>], _: RunShape) -> Option<RunResult> {
        None
    }

    /// Post-run invariants on the quiescent relation; consumes it.
    fn post_check(&self, st: Self::State) -> Result<PostCheck, String>;
}
