//! Write-ahead logging, checkpointing, and crash recovery.
//!
//! Opt-in durability under the transaction layer: a relation opened with
//! [`ConcurrentRelation::open_durable`] appends **one logical redo record
//! per committed transaction** — the attempt's applied operations as the
//! API calls that made them — stamped with
//! the transaction's [`CommitClock`] timestamp and published in watermark
//! order, so the log is a timestamp-ordered history of commits. Fsyncs
//! are batched by [`relc_locks::GroupCommit`]: concurrent committers
//! amortize one `fsync` across the in-order publication queue.
//!
//! # Record format
//!
//! Every record is framed as
//!
//! ```text
//! magic 0xA7 · kind u8 · len u32 LE · fnv1a64 u64 LE · payload (len bytes)
//! ```
//!
//! with the checksum taken over `magic‖kind‖len‖payload`. A commit
//! record's payload is `ts u64 · flags u8 · n_ops u32 · ops`, each op a
//! tagged forward call (insert/remove/update) with its argument tuples; a
//! cross-shard **marker** record's payload is just the shared timestamp.
//! Recovery scans until the first corrupt or short record — a torn tail
//! (the crash landed mid-append) truncates to the durable prefix, which
//! group-commit's in-order flushing makes a *committed* prefix.
//!
//! # Checkpoint and recovery
//!
//! A checkpoint freezes the relation behind the migration write-fence
//! (every writer drained — the same machinery as
//! [`ConcurrentRelation::migrate_to`]), snapshots the contents at one
//! MVCC cut, writes them to a sidecar file (tmp + fsync + rename), and
//! truncates the log: records at or below the checkpoint's cut are
//! superseded. Recovery loads the checkpoint, replays the log tail
//! through the normal `transaction` path (one transaction per record, so
//! the original atomicity is preserved), and re-seeds the clock
//! **strictly above** the highest replayed stamp
//! ([`relc_locks::CommitClock::advance_to`]). Replay is keyed on that
//! floor — a record at or below `applied_through` is skipped — which
//! makes replaying the same tail twice a no-op.
//!
//! [`ConcurrentRelation::open_durable`]: crate::ConcurrentRelation::open_durable
//! [`ConcurrentRelation::migrate_to`]: crate::ConcurrentRelation::migrate_to
//! [`CommitClock`]: relc_locks::CommitClock

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::MutexGuard;
use std::time::Duration;

use relc_locks::{GroupCommit, GroupCommitStats};
use relc_spec::{ColumnId, Tuple, Value};

use crate::error::CoreError;
use crate::txn::RedoOp;

/// Leading byte of every log record.
const RECORD_MAGIC: u8 = 0xA7;
/// Record kinds.
const KIND_COMMIT: u8 = 1;
const KIND_MARKER: u8 = 2;
/// Commit-record flag: part of a cross-shard transaction, valid only if
/// the shared timestamp's marker record is durable in shard 0's log.
const FLAG_CROSS_SHARD: u8 = 0x01;
/// Checkpoint file magic.
const CKPT_MAGIC: &[u8; 8] = b"RELCKPT1";

/// How a durable relation's log behaves.
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Whether flushes `fsync` (true = real durability; false = buffered
    /// writes only, for benchmarks isolating the logging overhead).
    pub fsync: bool,
    /// Group-commit leader micro-delay: how long the elected flush leader
    /// waits for concurrent committers to join its batch before draining.
    /// Zero (the default) flushes immediately — lowest latency, batching
    /// only what arrived while the previous flush was in flight.
    pub group_window: Duration,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: true,
            group_window: Duration::ZERO,
        }
    }
}

/// What crash recovery found and did; returned by
/// [`ConcurrentRelation::open_durable`] and
/// [`ConcurrentRelation::replay_log`].
///
/// [`ConcurrentRelation::open_durable`]: crate::ConcurrentRelation::open_durable
/// [`ConcurrentRelation::replay_log`]: crate::ConcurrentRelation::replay_log
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Rows loaded from the checkpoint file.
    pub checkpoint_rows: usize,
    /// Log records replayed (each one original transaction).
    pub replayed: usize,
    /// Highest commit timestamp replayed (or the checkpoint cut if the
    /// tail was empty); the clock resumes strictly above it.
    pub max_ts: u64,
    /// Whether the log ended in a torn (corrupt or short) record that
    /// the scan discarded.
    pub torn_tail: bool,
}

impl RecoveryReport {
    /// Folds another shard's (or pass's) report into this one.
    pub(crate) fn merge(&mut self, other: &RecoveryReport) {
        self.checkpoint_rows += other.checkpoint_rows;
        self.replayed += other.replayed;
        self.max_ts = self.max_ts.max(other.max_ts);
        self.torn_tail |= other.torn_tail;
    }
}

/// One relation's write-ahead log: the group-commit log file, the
/// checkpoint sidecar path, and the replay floor.
#[derive(Debug)]
pub(crate) struct Wal {
    log: GroupCommit,
    checkpoint_path: PathBuf,
    /// Replay floor: records with `ts <= applied_through` are already in
    /// the in-memory state (loaded from the checkpoint or replayed), so
    /// a second replay pass skips them — recovery idempotence.
    applied_through: AtomicU64,
}

impl Wal {
    /// Opens (creating if absent) the log at `log_path` with
    /// `checkpoint_path` as its checkpoint sidecar.
    pub(crate) fn open(
        log_path: impl AsRef<Path>,
        checkpoint_path: impl AsRef<Path>,
        opts: WalOptions,
    ) -> Result<Wal, CoreError> {
        let mut log = GroupCommit::open(log_path, opts.fsync).map_err(io_err("open log"))?;
        log.set_group_window(opts.group_window);
        Ok(Wal {
            log,
            checkpoint_path: checkpoint_path.as_ref().to_path_buf(),
            applied_through: AtomicU64::new(0),
        })
    }

    /// The external ordering lock; held across commit-timestamp
    /// allocation *and* the record append so log order equals timestamp
    /// order (the prefix-closure recovery relies on).
    pub(crate) fn lock_order(&self) -> MutexGuard<'_, ()> {
        self.log.lock_order()
    }

    /// Appends one commit record (buffered; durable after
    /// [`Self::wait_durable`]). `ops_bytes` is the pre-encoded op stream
    /// from [`encode_ops`] — pre-encoding keeps the work under the order
    /// lock to a couple of memcpys.
    pub(crate) fn append_commit(&self, ts: u64, cross_shard: bool, ops_bytes: &[u8]) -> u64 {
        let mut payload = Vec::with_capacity(9 + ops_bytes.len());
        payload.extend_from_slice(&ts.to_le_bytes());
        payload.push(if cross_shard { FLAG_CROSS_SHARD } else { 0 });
        payload.extend_from_slice(ops_bytes);
        self.log.append(&frame(KIND_COMMIT, &payload))
    }

    /// Appends one cross-shard marker record for the shared timestamp.
    pub(crate) fn append_marker(&self, ts: u64) -> u64 {
        self.log.append(&frame(KIND_MARKER, &ts.to_le_bytes()))
    }

    /// Blocks until record `seq` is durable (group-commit batched).
    pub(crate) fn wait_durable(&self, seq: u64) -> Result<(), CoreError> {
        self.log.wait_durable(seq).map_err(io_err("fsync log"))
    }

    /// Reads the log from disk: the valid record prefix plus whether the
    /// scan stopped at a torn tail.
    pub(crate) fn read_records(&self) -> Result<(Vec<WalRecord>, bool), CoreError> {
        read_log(self.log.path())
    }

    /// The checkpoint's first phase: the sidecar write (tmp + fsync +
    /// rename + dir fsync) alone, log left untouched — a checkpoint
    /// writes *every* shard's sidecar before truncating *any* log (see
    /// [`crate::commit::checkpoint`]). Caller must have writers quiescent
    /// (the write fence held).
    pub(crate) fn write_snapshot(&self, cut_ts: u64, rows: &[Tuple]) -> Result<(), CoreError> {
        write_checkpoint(
            &self.checkpoint_path,
            cut_ts,
            rows,
            self.log.fsync_enabled(),
        )?;
        // Records ≤ the cut are superseded by the checkpoint; raising the
        // floor keeps a replay pass from re-applying them even while the
        // log still holds them.
        self.applied_through.fetch_max(cut_ts, Ordering::SeqCst);
        Ok(())
    }

    /// The checkpoint's second phase: truncate the log (releasing any
    /// committers still parked on a group fsync — the just-written
    /// snapshot covers their effects).
    pub(crate) fn truncate_log(&self) -> Result<(), CoreError> {
        self.log
            .truncate_and_reset()
            .map_err(io_err("truncate log"))
    }

    /// Loads the checkpoint sidecar, if one exists: `(cut_ts, rows)`.
    pub(crate) fn read_checkpoint(&self) -> Result<Option<(u64, Vec<Tuple>)>, CoreError> {
        read_checkpoint(&self.checkpoint_path)
    }

    /// The replay floor (highest timestamp already in memory).
    pub(crate) fn applied_through(&self) -> u64 {
        self.applied_through.load(Ordering::SeqCst)
    }

    /// Raises the replay floor (never lowers it).
    pub(crate) fn raise_applied_through(&self, ts: u64) {
        self.applied_through.fetch_max(ts, Ordering::SeqCst);
    }

    /// Group-commit batching counters for this log.
    pub(crate) fn stats(&self) -> GroupCommitStats {
        self.log.stats()
    }
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// One committed transaction's forward op stream.
    Commit {
        /// The transaction's commit timestamp.
        ts: u64,
        /// Whether it was part of a cross-shard transaction (valid only
        /// with a durable marker for `ts`).
        cross_shard: bool,
        /// The applied operations, in order.
        ops: Vec<RedoOp>,
    },
    /// Cross-shard commit marker: every involved shard's data records
    /// for `ts` were durable when this was appended.
    Marker {
        /// The cross-shard transaction's shared timestamp.
        ts: u64,
    },
}

impl WalRecord {
    /// The record's commit timestamp.
    pub(crate) fn ts(&self) -> u64 {
        match self {
            WalRecord::Commit { ts, .. } | WalRecord::Marker { ts } => *ts,
        }
    }
}

fn io_err(what: &'static str) -> impl Fn(io::Error) -> CoreError {
    move |e| CoreError::Durability(format!("{what}: {e}"))
}

/// FNV-1a 64-bit over `bytes` (no external deps; collision resistance is
/// irrelevant here — the checksum detects torn writes, not adversaries).
fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Frames one record: magic · kind · len · checksum · payload.
fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("record payload under 4 GiB");
    let len_bytes = len.to_le_bytes();
    let sum = fnv1a64(&[&[RECORD_MAGIC, kind], &len_bytes, payload]);
    let mut out = Vec::with_capacity(14 + payload.len());
    out.push(RECORD_MAGIC);
    out.push(kind);
    out.extend_from_slice(&len_bytes);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Serializes an op stream (`n_ops u32 · ops`) for
/// [`Wal::append_commit`].
pub(crate) fn encode_ops(ops: &[RedoOp]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match op {
            RedoOp::Insert(s, t) => {
                out.push(0);
                encode_tuple(&mut out, s);
                encode_tuple(&mut out, t);
            }
            RedoOp::Remove(key) => {
                out.push(1);
                encode_tuple(&mut out, key);
            }
            RedoOp::Update(s, t) => {
                out.push(2);
                encode_tuple(&mut out, s);
                encode_tuple(&mut out, t);
            }
        }
    }
    out
}

fn encode_tuple(out: &mut Vec<u8>, t: &Tuple) {
    let n = t.iter().count() as u32;
    out.extend_from_slice(&n.to_le_bytes());
    for (col, v) in t.iter() {
        out.extend_from_slice(&(col.index() as u32).to_le_bytes());
        match v {
            Value::Unit => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(u8::from(*b));
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// A bounds-checked little-endian reader; every decode failure surfaces
/// as `None`, which the log scan treats as a torn tail.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|b| i64::from_le_bytes(b.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_tuple(c: &mut Cursor<'_>) -> Option<Tuple> {
    let n = c.u32()? as usize;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let col = ColumnId::from_index(c.u32()? as usize);
        let v = match c.u8()? {
            0 => Value::Unit,
            1 => Value::Bool(c.u8()? != 0),
            2 => Value::Int(c.i64()?),
            3 => {
                let len = c.u32()? as usize;
                let bytes = c.take(len)?;
                Value::from(std::str::from_utf8(bytes).ok()?)
            }
            _ => return None,
        };
        pairs.push((col, v));
    }
    Some(Tuple::from_pairs(pairs))
}

fn decode_ops(c: &mut Cursor<'_>) -> Option<Vec<RedoOp>> {
    let n = c.u32()? as usize;
    let mut ops = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        ops.push(match c.u8()? {
            0 => RedoOp::Insert(decode_tuple(c)?, decode_tuple(c)?),
            1 => RedoOp::Remove(decode_tuple(c)?),
            2 => RedoOp::Update(decode_tuple(c)?, decode_tuple(c)?),
            _ => return None,
        });
    }
    Some(ops)
}

fn decode_record(kind: u8, payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let rec = match kind {
        KIND_COMMIT => {
            let ts = c.u64()?;
            let flags = c.u8()?;
            let ops = decode_ops(&mut c)?;
            WalRecord::Commit {
                ts,
                cross_shard: flags & FLAG_CROSS_SHARD != 0,
                ops,
            }
        }
        KIND_MARKER => WalRecord::Marker { ts: c.u64()? },
        _ => return None,
    };
    c.done().then_some(rec)
}

/// Scans a log file: the valid record prefix, plus whether the scan
/// stopped early at a torn (corrupt or short) record. A missing file is
/// an empty, untorn log.
pub(crate) fn read_log(path: &Path) -> Result<(Vec<WalRecord>, bool), CoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
        Err(e) => return Err(io_err("read log")(e)),
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(rec) = (|| {
            let header = bytes.get(pos..pos + 14)?;
            if header[0] != RECORD_MAGIC {
                return None;
            }
            let kind = header[1];
            let len = u32::from_le_bytes(header[2..6].try_into().unwrap()) as usize;
            let sum = u64::from_le_bytes(header[6..14].try_into().unwrap());
            let payload = bytes.get(pos + 14..pos + 14 + len)?;
            if fnv1a64(&[&header[..2], &header[2..6], payload]) != sum {
                return None;
            }
            let rec = decode_record(kind, payload)?;
            pos += 14 + len;
            Some(rec)
        })() else {
            // Torn tail: everything before `pos` is intact and, by the
            // in-order flush discipline, a committed prefix.
            return Ok((records, true));
        };
        records.push(rec);
    }
    Ok((records, false))
}

/// Writes the checkpoint sidecar atomically: tmp file, fsync, rename
/// over the old checkpoint, fsync the directory. A crash before the
/// rename leaves the old checkpoint (and the untruncated log) intact; a
/// crash after it but before log truncation is harmless because replay
/// skips records at or below the new cut.
fn write_checkpoint(
    path: &Path,
    cut_ts: u64,
    rows: &[Tuple],
    fsync: bool,
) -> Result<(), CoreError> {
    let mut body = Vec::new();
    body.extend_from_slice(CKPT_MAGIC);
    body.extend_from_slice(&cut_ts.to_le_bytes());
    body.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for row in rows {
        encode_tuple(&mut body, row);
    }
    let sum = fnv1a64(&[&body]);
    body.extend_from_slice(&sum.to_le_bytes());

    let tmp = path.with_extension("tmp");
    (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(&body)?;
        if fsync {
            f.sync_all()?;
        }
        drop(f);
        std::fs::rename(&tmp, path)?;
        if fsync {
            if let Some(dir) = path.parent() {
                // Persist the rename itself; failure to open the
                // directory (exotic filesystems) degrades gracefully.
                if let Ok(d) = OpenOptions::new().read(true).open(dir) {
                    let _ = d.sync_all();
                }
            }
        }
        Ok(())
    })()
    .map_err(io_err("write checkpoint"))
}

/// Loads a checkpoint sidecar: `None` if absent, the cut timestamp and
/// rows otherwise.
///
/// # Errors
///
/// [`CoreError::Durability`] if the file exists but fails validation —
/// unlike the log's torn tail, a *renamed* checkpoint was fsynced whole
/// before the rename, so corruption here is real damage, not a crash
/// artifact, and recovery must not silently drop the whole relation.
fn read_checkpoint(path: &Path) -> Result<Option<(u64, Vec<Tuple>)>, CoreError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => f
            .read_to_end(&mut bytes)
            .map_err(io_err("read checkpoint"))?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read checkpoint")(e)),
    };
    let corrupt = || CoreError::Durability("corrupt checkpoint".into());
    if bytes.len() < CKPT_MAGIC.len() + 8 + 8 + 8 || &bytes[..8] != CKPT_MAGIC {
        return Err(corrupt());
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    if fnv1a64(&[body]) != u64::from_le_bytes(sum_bytes.try_into().unwrap()) {
        return Err(corrupt());
    }
    let mut c = Cursor::new(&body[8..]);
    let parse = |c: &mut Cursor<'_>| -> Option<(u64, Vec<Tuple>)> {
        let cut_ts = c.u64()?;
        let n = c.u64()? as usize;
        let mut rows = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            rows.push(decode_tuple(c)?);
        }
        c.done().then_some((cut_ts, rows))
    };
    parse(&mut c).map(Some).ok_or_else(corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(pairs: &[(usize, i64)]) -> Tuple {
        Tuple::from_pairs(
            pairs
                .iter()
                .map(|&(c, v)| (ColumnId::from_index(c), Value::Int(v))),
        )
    }

    /// One op of each kind over tuples that hold every kind of value.
    fn all_value_kinds_ops() -> Vec<RedoOp> {
        let s = Tuple::from_pairs([
            (ColumnId::from_index(0), Value::Int(-7)),
            (ColumnId::from_index(1), Value::from("héllo")),
        ]);
        let tt = Tuple::from_pairs([
            (ColumnId::from_index(2), Value::Bool(true)),
            (ColumnId::from_index(3), Value::Unit),
        ]);
        vec![
            RedoOp::Insert(s.clone(), tt.clone()),
            RedoOp::Remove(s.clone()),
            RedoOp::Update(s, tt),
        ]
    }

    /// `encode_ops(&all_value_kinds_ops())`, written down once: logs on
    /// disk must stay readable whatever the in-memory layout of `Value`
    /// and `Tuple`, so the byte format is pinned, not only its round trip.
    #[rustfmt::skip]
    const ALL_VALUE_KINDS_BYTES: &[u8] = &[
        3, 0, 0, 0, // three ops
        0, // insert
        2, 0, 0, 0, // s: two fields
        0, 0, 0, 0, 2, 0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // c0: Int(-7)
        1, 0, 0, 0, 3, 6, 0, 0, 0, b'h', 0xc3, 0xa9, b'l', b'l', b'o', // c1: Str("héllo")
        2, 0, 0, 0, // tt: two fields
        2, 0, 0, 0, 1, 1, // c2: Bool(true)
        3, 0, 0, 0, 0, // c3: Unit
        1, // remove
        2, 0, 0, 0,
        0, 0, 0, 0, 2, 0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        1, 0, 0, 0, 3, 6, 0, 0, 0, b'h', 0xc3, 0xa9, b'l', b'l', b'o',
        2, // update
        2, 0, 0, 0,
        0, 0, 0, 0, 2, 0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        1, 0, 0, 0, 3, 6, 0, 0, 0, b'h', 0xc3, 0xa9, b'l', b'l', b'o',
        2, 0, 0, 0,
        2, 0, 0, 0, 1, 1,
        3, 0, 0, 0, 0,
    ];

    #[test]
    fn encoding_of_all_value_kinds_is_pinned() {
        let ops = all_value_kinds_ops();
        assert_eq!(encode_ops(&ops), ALL_VALUE_KINDS_BYTES);
        let mut c = Cursor::new(ALL_VALUE_KINDS_BYTES);
        assert_eq!(decode_ops(&mut c), Some(ops));
        assert!(c.done());
    }

    #[test]
    fn record_round_trip_all_value_kinds() {
        let ops = all_value_kinds_ops();
        let payload = {
            let mut p = 99u64.to_le_bytes().to_vec();
            p.push(FLAG_CROSS_SHARD);
            p.extend_from_slice(&encode_ops(&ops));
            p
        };
        let framed = frame(KIND_COMMIT, &payload);
        let dir = std::env::temp_dir().join(format!("relc-wal-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        std::fs::write(&path, &framed).unwrap();
        let (records, torn) = read_log(&path).unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 1);
        match &records[0] {
            WalRecord::Commit {
                ts,
                cross_shard,
                ops: got,
            } => {
                assert_eq!(*ts, 99);
                assert!(cross_shard);
                assert_eq!(got, &ops);
            }
            other => panic!("wrong record: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_at_first_bad_record() {
        let dir = std::env::temp_dir().join(format!("relc-wal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        let r1 = frame(KIND_MARKER, &1u64.to_le_bytes());
        let r2 = frame(KIND_MARKER, &2u64.to_le_bytes());
        let mut bytes = [r1.clone(), r2.clone()].concat();
        // Every proper prefix that cuts into r2 yields exactly [r1].
        for cut in r1.len()..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (records, torn) = read_log(&path).unwrap();
            assert_eq!(torn, cut != r1.len() + r2.len() && cut != r1.len());
            assert_eq!(records.len(), if cut < r1.len() + r2.len() { 1 } else { 2 });
        }
        // Flip a payload byte of r2: checksum catches it.
        let flip = r1.len() + 14;
        bytes[flip] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (records, torn) = read_log(&path).unwrap();
        assert!(torn);
        assert_eq!(records, vec![WalRecord::Marker { ts: 1 }]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_round_trip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("relc-wal-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt");
        assert_eq!(read_checkpoint(&path).unwrap(), None);
        let rows = vec![t(&[(0, 1), (1, 10)]), t(&[(0, 2), (1, 20)])];
        write_checkpoint(&path, 42, &rows, false).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), Some((42, rows)));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CoreError::Durability(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
