//! Group-commit fsync batching for write-ahead logs.
//!
//! A [`GroupCommit`] owns one append-only log file and amortizes `fsync`
//! across concurrent committers: every committer appends its record to an
//! in-memory buffer (cheap, under a short mutex) and then waits for its
//! record to become durable. The first waiter to find no flush in flight
//! elects itself **leader**, drains the *entire* buffer — its own record
//! plus every record appended since the last flush — writes it with one
//! `write` + one `fsync`, and wakes every follower whose record the batch
//! covered. Committers that arrive while a flush is in flight simply
//! buffer and wait: the *next* leader picks them all up in one batch, so
//! under concurrency the steady state is one fsync per batch of N
//! commits, not one per commit.
//!
//! Ordering: callers serialize their appends through [`Self::lock_order`]
//! (held across timestamp allocation *and* the buffer append), so buffer
//! order equals commit-timestamp order and every flush makes a
//! **timestamp-prefix** of the commit history durable. Durability is
//! therefore prefix-closed per log: if a record is durable, so is every
//! record with a smaller timestamp in the same log — the property crash
//! recovery relies on to replay a consistent committed prefix.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Mutable flush state shared by every committer on one log.
#[derive(Debug, Default)]
struct State {
    /// Records appended since the last flush, in append (= timestamp)
    /// order, already framed by the caller.
    buf: Vec<u8>,
    /// Sequence number of the last appended record (0 = none yet).
    next_seq: u64,
    /// Highest sequence number sitting in `buf` (== `next_seq`).
    buffered_through: u64,
    /// Records appended since the last flush (for batch accounting).
    buffered_records: u64,
    /// Highest sequence number known durable on disk.
    durable_seq: u64,
    /// Whether a leader is currently writing + fsyncing.
    syncing: bool,
    /// Set to the first flush failure's description. A failed flush may
    /// have torn a record mid-log (partial `write_all`), making every
    /// byte appended after it unrecoverable — so once set, every
    /// [`GroupCommit::wait_durable`] for a not-yet-durable record fails
    /// until [`GroupCommit::truncate_and_reset`] wipes the file.
    poisoned: Option<String>,
}

/// Counters describing how well fsync batching amortized; see
/// [`GroupCommit::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Records appended (one per committed transaction).
    pub appends: u64,
    /// Flush batches written (each is one `write` + at most one `fsync`).
    pub flushes: u64,
    /// `fsync` calls actually issued (equals `flushes` unless fsync is
    /// disabled).
    pub fsyncs: u64,
    /// Largest number of records covered by a single flush.
    pub max_batch: u64,
}

/// One append-only log file with group-commit fsync batching. See the
/// module docs of `group_commit.rs`.
#[derive(Debug)]
pub struct GroupCommit {
    /// The log file; touched only by the elected leader (and by
    /// [`Self::truncate_and_reset`], which excludes leaders first).
    file: Mutex<File>,
    path: PathBuf,
    /// External ordering lock: held by committers across timestamp
    /// allocation + append so buffer order equals timestamp order.
    order: Mutex<()>,
    state: Mutex<State>,
    cv: Condvar,
    /// Whether flushes actually `fsync` (false = buffered durability for
    /// benchmarks and tests that only need the ordering machinery).
    fsync: bool,
    /// Leader micro-delay before draining: a deliberate wait that lets
    /// concurrent committers join the batch. Zero by default (lowest
    /// latency); benchmarks and the batching test set a millisecond or
    /// two to make ≥2-commits-per-fsync deterministic on few-core boxes.
    group_window: Duration,
    appends: AtomicU64,
    flushes: AtomicU64,
    fsyncs: AtomicU64,
    max_batch: AtomicU64,
    /// Test-only fault injection: number of upcoming flushes forced to
    /// fail before any byte reaches the file.
    #[cfg(test)]
    fail_flushes: AtomicU64,
}

impl GroupCommit {
    /// Opens (creating if absent) the log at `path` in append position.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file.
    pub fn open(path: impl AsRef<Path>, fsync: bool) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(GroupCommit {
            file: Mutex::new(file),
            path,
            order: Mutex::new(()),
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            fsync,
            group_window: Duration::ZERO,
            appends: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            #[cfg(test)]
            fail_flushes: AtomicU64::new(0),
        })
    }

    /// Sets the leader micro-delay (see the `group_window` field docs).
    pub fn set_group_window(&mut self, window: Duration) {
        self.group_window = window;
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether flushes fsync.
    pub fn fsync_enabled(&self) -> bool {
        self.fsync
    }

    /// The external ordering lock. Committers hold the returned guard
    /// across commit-timestamp allocation *and* [`Self::append`] so the
    /// buffer is in timestamp order; nothing inside this type takes it.
    pub fn lock_order(&self) -> std::sync::MutexGuard<'_, ()> {
        self.order.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one framed record to the in-memory buffer and returns its
    /// sequence number for [`Self::wait_durable`]. Does not block on I/O.
    pub fn append(&self, bytes: &[u8]) -> u64 {
        self.appends.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.next_seq += 1;
        st.buf.extend_from_slice(bytes);
        st.buffered_through = st.next_seq;
        st.buffered_records += 1;
        st.next_seq
    }

    /// Blocks until record `seq` is durable, electing this thread as the
    /// flush leader if no flush is in flight. A flush failure **poisons**
    /// the log: the failed batch was drained but may be torn mid-file, so
    /// the leader, every follower of that batch, and every later caller
    /// whose record is not already durable all get an error —
    /// `durable_seq` never advances past bytes actually synced, and
    /// nothing is ever reported durable that could vanish (or sit behind
    /// a torn record) after a crash. Only
    /// [`Self::truncate_and_reset`] — which wipes the file — clears the
    /// poison. Records that were durable *before* the failure still
    /// return `Ok`: they are genuinely on disk and recovery's torn-tail
    /// scan stops before anything written afterwards.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or syncing the log, or a previous flush
    /// failure that poisoned the log.
    pub fn wait_durable(&self, seq: u64) -> io::Result<()> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.durable_seq >= seq {
                return Ok(());
            }
            if let Some(msg) = &st.poisoned {
                return Err(io::Error::other(format!(
                    "log poisoned by earlier flush failure: {msg}"
                )));
            }
            if st.syncing {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Leader election: this thread flushes everything buffered.
            st.syncing = true;
            if !self.group_window.is_zero() {
                drop(st);
                std::thread::sleep(self.group_window);
                st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            }
            let batch = std::mem::take(&mut st.buf);
            let upto = st.buffered_through;
            let records = std::mem::take(&mut st.buffered_records);
            drop(st);
            let res = self.flush_batch(&batch, records);
            st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.syncing = false;
            match &res {
                Ok(()) => st.durable_seq = st.durable_seq.max(upto),
                Err(e) => st.poisoned = Some(e.to_string()),
            }
            self.cv.notify_all();
            res?;
        }
    }

    /// Leader-only: one write + one (optional) fsync for a drained batch.
    fn flush_batch(&self, batch: &[u8], records: u64) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        #[cfg(test)]
        if self.fail_flushes.load(Ordering::Relaxed) > 0 {
            self.fail_flushes.fetch_sub(1, Ordering::Relaxed);
            return Err(io::Error::other("injected flush failure"));
        }
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(batch)?;
        if self.fsync {
            file.sync_all()?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.max_batch.fetch_max(records, Ordering::Relaxed);
        Ok(())
    }

    /// Truncates the log file to empty and resets the batching state —
    /// the checkpoint path, called with writers quiescent (no concurrent
    /// [`Self::append`]; a leader mid-flush is waited out). Any records
    /// still buffered are discarded and their waiters released as durable:
    /// the checkpoint that triggers truncation supersedes them. A poison
    /// left by a failed flush is cleared on success — truncation wipes
    /// any torn bytes, so the file is clean again.
    ///
    /// # Errors
    ///
    /// Any I/O error truncating or syncing the log.
    pub fn truncate_and_reset(&self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.syncing {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.syncing = true;
        drop(st);
        let res: io::Result<()> = (|| {
            let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            if self.fsync {
                file.sync_all()?;
            }
            Ok(())
        })();
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.syncing = false;
        st.buf.clear();
        st.buffered_records = 0;
        st.buffered_through = st.next_seq;
        match &res {
            // Truncation wiped any torn bytes: the file is clean again
            // and the (discarded, superseded) records count as durable.
            Ok(()) => {
                st.durable_seq = st.next_seq;
                st.poisoned = None;
            }
            // A failed truncation leaves the file in an unknown state
            // *and* just discarded the buffered records — keep
            // `durable_seq` where it was and poison, so their waiters
            // (and every later commit) fail instead of reporting
            // durability that was never achieved.
            Err(e) => st.poisoned = Some(e.to_string()),
        }
        self.cv.notify_all();
        res
    }

    /// Current batching counters.
    pub fn stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            appends: self.appends.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("relc-gc-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn append_then_wait_is_durable_on_disk() {
        let path = temp_path("basic");
        let _ = std::fs::remove_file(&path);
        let gc = GroupCommit::open(&path, true).unwrap();
        let s1 = gc.append(b"hello ");
        let s2 = gc.append(b"world");
        gc.wait_durable(s2).unwrap();
        assert!(s1 < s2);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world");
        let st = gc.stats();
        assert_eq!(st.appends, 2);
        assert!(st.fsyncs >= 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_commits_batch_fsyncs() {
        let path = temp_path("batch");
        let _ = std::fs::remove_file(&path);
        let mut gc = GroupCommit::open(&path, true).unwrap();
        gc.set_group_window(Duration::from_millis(2));
        let gc = Arc::new(gc);
        const THREADS: usize = 8;
        const PER: usize = 16;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let gc = Arc::clone(&gc);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        let rec = format!("t{t}i{i};");
                        let _guard = gc.lock_order();
                        let seq = gc.append(rec.as_bytes());
                        drop(_guard);
                        gc.wait_durable(seq).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let st = gc.stats();
        assert_eq!(st.appends, (THREADS * PER) as u64);
        assert!(
            st.max_batch >= 2,
            "group window must batch at least one pair: {st:?}"
        );
        assert!(st.fsyncs < st.appends, "fsyncs must amortize: {st:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_flush_poisons_until_truncate() {
        let path = temp_path("poison");
        let _ = std::fs::remove_file(&path);
        let gc = GroupCommit::open(&path, true).unwrap();
        let s1 = gc.append(b"good;");
        gc.wait_durable(s1).unwrap();
        gc.fail_flushes.store(1, Ordering::Relaxed);
        let s2 = gc.append(b"lost;");
        // The leader hits the injected failure...
        assert!(gc.wait_durable(s2).is_err());
        // ...and it is sticky: the drained batch is gone, so no later
        // leader may ever report s2 (or anything after it) durable.
        assert!(gc.wait_durable(s2).is_err());
        let s3 = gc.append(b"after;");
        assert!(gc.wait_durable(s3).is_err());
        // Records durable before the failure stay truthfully durable.
        gc.wait_durable(s1).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"good;");
        // Truncation wipes the file and clears the poison.
        gc.truncate_and_reset().unwrap();
        let s4 = gc.append(b"fresh;");
        gc.wait_durable(s4).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"fresh;");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_resets_and_releases_waiters() {
        let path = temp_path("trunc");
        let _ = std::fs::remove_file(&path);
        let gc = GroupCommit::open(&path, false).unwrap();
        let seq = gc.append(b"doomed");
        gc.truncate_and_reset().unwrap();
        // The buffered record was superseded: waiting is a no-op.
        gc.wait_durable(seq).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        let s2 = gc.append(b"fresh");
        gc.wait_durable(s2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"fresh");
        std::fs::remove_file(&path).unwrap();
    }
}
