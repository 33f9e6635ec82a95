//! The closed loop: [`CLIENTS`] client threads, each issuing its next op
//! only after the previous one returned, over a warm-up slice (discarded)
//! and [`SLICES`] measured slices.

use std::time::{Duration, Instant};

use crate::hist::Histogram;
use crate::stream::Op;
use crate::trace::{NoTrace, Span, SpanTrace, Tracer, OP};
use crate::workload::{Class, Target};

/// Fixed at 2: the sandbox has 2 cores, and more clients than cores would
/// measure the scheduler.
pub const CLIENTS: usize = 2;
pub const SLICES: usize = 10;

/// Warm-up of one slice length, then [`SLICES`] measured slices.
#[derive(Clone, Copy, Debug)]
pub struct RunShape {
    pub slice: Duration,
}

impl RunShape {
    /// A run that measures for `seconds` in total.
    pub fn measuring(seconds: f64) -> Self {
        RunShape {
            slice: Duration::from_secs_f64(seconds / SLICES as f64),
        }
    }
}

/// One slice of one client, or of all clients once merged.
#[derive(Clone, Default)]
pub struct SliceRec {
    pub ops: u64,
    pub failed: u64,
    pub read: Histogram,
    pub write: Histogram,
}

impl SliceRec {
    fn merge(&mut self, other: &SliceRec) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.read.merge(&other.read);
        self.write.merge(&other.write);
    }
}

pub struct RunResult {
    /// The measured slices, clients merged; the warm-up is not in here.
    pub slices: Vec<SliceRec>,
    /// Process CPU seconds (user + system) spent in each measured slice.
    pub cpu_s: Vec<f64>,
    pub slice_s: f64,
    /// Every op issued, warm-up included.
    pub attempted: u64,
    pub attempted_writes: u64,
    pub failed: u64,
    /// `VmHWM` when the last slice ended.
    pub peak_rss_kib: u64,
    /// Per client; empty for an untraced run.
    pub spans: Vec<Vec<Span>>,
}

impl RunResult {
    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / (self.slice_s * SLICES as f64)
    }
}

/// User + system CPU time of this process so far, in seconds.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command name
    // (which may itself contain spaces) closes with ')'. USER_HZ is 100 on
    // every Linux ABI.
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let rest = &stat[stat.rfind(')').expect("comm in /proc/self/stat") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    (tick() + tick()) as f64 / 100.0
}

/// `VmHWM` (peak resident set) of this process, in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status")
}

struct ClientRec {
    /// Index 0 is the warm-up.
    slices: Vec<SliceRec>,
}

fn client_loop<W: Target, T: Tracer>(
    w: &W,
    st: &W::State,
    stream: &[Op],
    client: usize,
    shape: RunShape,
    start: Instant,
    tr: &mut T,
) -> ClientRec {
    let slice_ns = shape.slice.as_nanos() as u64;
    let mut slices = vec![SliceRec::default(); SLICES + 1];
    let mut current = 0usize;
    let mut slice_end_ns = slice_ns;
    let mut writes = 0u64;
    let mut cursor = 0usize;
    let mut t_prev = Instant::now();
    loop {
        let op = stream[cursor];
        cursor += 1;
        if cursor == stream.len() {
            cursor = 0;
        }
        tr.op_begin(OP, t_prev);
        let out = w.exec(st, op, tr);
        let t = Instant::now();
        tr.op_end(t);
        // An op belongs to the slice it ended in.
        let at_ns = t.duration_since(start).as_nanos() as u64;
        while at_ns >= slice_end_ns {
            current += 1;
            slice_end_ns += slice_ns;
        }
        if current > SLICES {
            return ClientRec { slices };
        }
        let rec = &mut slices[current];
        rec.ops += 1;
        rec.failed += !out.ok as u64;
        let lat_ns = t.duration_since(t_prev).as_nanos() as u64;
        match out.class {
            Class::Read => rec.read.record(lat_ns),
            Class::Write => rec.write.record(lat_ns),
        }
        t_prev = t;
        if out.class == Class::Write {
            writes += 1;
            if w.maintain(st, client, writes, tr) {
                t_prev = Instant::now();
            }
        }
    }
}

/// Drives `w` with one stream per client. `traced` selects the sampling
/// span recorder; otherwise tracing compiles to nothing.
pub fn run<W: Target>(
    w: &W,
    st: &W::State,
    streams: &[Vec<Op>],
    shape: RunShape,
    traced: bool,
) -> RunResult {
    assert_eq!(streams.len(), CLIENTS);
    // Clients count their slices from one shared instant, a little in the
    // future so that every thread is already waiting when it arrives.
    let start = Instant::now() + Duration::from_millis(20);
    let mut cpu_marks = Vec::with_capacity(SLICES + 1);
    let mut peak_rss = 0;
    let recs: Vec<(ClientRec, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(client, stream)| {
                scope.spawn(move || {
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    if traced {
                        let mut tr = SpanTrace::new(start);
                        let rec = client_loop(w, st, stream, client, shape, start, &mut tr);
                        (rec, tr.into_spans())
                    } else {
                        let rec = client_loop(w, st, stream, client, shape, start, &mut NoTrace);
                        (rec, Vec::new())
                    }
                })
            })
            .collect();
        for k in 1..=SLICES as u32 + 1 {
            std::thread::sleep((start + shape.slice * k).saturating_duration_since(Instant::now()));
            cpu_marks.push(process_cpu_s());
        }
        peak_rss = peak_rss_kib();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut slices = vec![SliceRec::default(); SLICES];
    let (mut attempted, mut attempted_writes, mut failed) = (0, 0, 0);
    let mut spans = Vec::new();
    for (rec, client_spans) in recs {
        for (k, s) in rec.slices.iter().enumerate() {
            attempted += s.ops;
            attempted_writes += s.write.len();
            failed += s.failed;
            if k > 0 {
                slices[k - 1].merge(s);
            }
        }
        if traced {
            spans.push(client_spans);
        }
    }
    RunResult {
        slices,
        cpu_s: cpu_marks.windows(2).map(|m| m[1] - m[0]).collect(),
        slice_s: shape.slice.as_secs_f64(),
        attempted,
        attempted_writes,
        failed,
        peak_rss_kib: peak_rss,
        spans,
    }
}
