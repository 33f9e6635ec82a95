//! The four workloads. Each has reads and writes, so that a read win that
//! costs writers shows, and each keeps its relation's size stationary, so
//! that the tenth slice measures the same thing as the first.

pub mod durable;
pub mod graph;
pub mod range;
pub mod transfer;

use std::collections::BTreeSet;

use relc::{ConcurrentRelation, CoreError};
use relc_spec::{ColumnId, Tuple, Value};

use crate::workload::Counters;

pub const NAMES: [&str; 4] = [
    "graph_read_mostly",
    "txn_transfer",
    "range_window",
    "durable_sharded",
];

/// The integer in column `c` of `t`.
pub fn int(t: &Tuple, c: ColumnId) -> Option<i64> {
    t.get(c).and_then(Value::as_int)
}

/// `verify()` keeps the instances it has visited in a list that it
/// searches linearly, so its cost grows with the square of the instance
/// count: 3 s at 16,384 `kv` rows, 40 s at 32,768 `split` rows, hours at
/// 262,144. Above this many rows the post-run check reads the rows through
/// `snapshot()` instead and leaves the structural walk out.
const VERIFY_MAX_ROWS: usize = 16_384;

/// The rows of a quiescent relation, through the structural `verify()`
/// walk where that is affordable; checked against `len()` either way.
fn quiescent_rows(
    len: usize,
    verify: impl FnOnce() -> Result<BTreeSet<Tuple>, String>,
    snapshot: impl FnOnce() -> Result<Vec<Tuple>, CoreError>,
) -> Result<Vec<Tuple>, String> {
    let rows: Vec<Tuple> = if len <= VERIFY_MAX_ROWS {
        verify()?.into_iter().collect()
    } else {
        snapshot().map_err(|e| e.to_string())?
    };
    if rows.len() != len {
        return Err(format!("len() {len} but {} rows", rows.len()));
    }
    Ok(rows)
}

fn quiescent_rows_of(rel: &ConcurrentRelation) -> Result<Vec<Tuple>, String> {
    quiescent_rows(rel.len(), || rel.verify(), || rel.snapshot())
}

fn stats_of(rel: &ConcurrentRelation) -> Counters {
    Counters {
        stats: rel.stats_snapshot(),
        wal: None,
        wal_bytes: 0,
        version_footprint: rel.version_footprint(),
    }
}
