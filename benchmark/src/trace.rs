//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The client loop is generic over [`Tracer`]: the untraced run uses
//! [`NoTrace`] (every method is an empty inline function, so tracing off
//! costs nothing) and the traced run uses [`SpanTrace`], which keeps a full
//! span tree for one op in [`SAMPLE_EVERY`] in per-thread memory. Spans
//! carry name, start, end, parent and the op's id; a span's *self time* is
//! its duration minus what its direct children cover.

use std::time::Instant;

/// One op in this many gets a span tree in the traced run.
pub const SAMPLE_EVERY: u64 = 32;
/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Per-thread op sequence number; spans of one op share it.
    pub op: u64,
    /// Index of the parent span in the same thread's span list.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub trait Tracer {
    /// Opens the op's root span at `at` (the client loop's own timestamp)
    /// if this op is sampled.
    fn op_begin(&mut self, name: &'static str, at: Instant);
    /// Closes the op's root span at `at`.
    fn op_end(&mut self, at: Instant);
    /// Opens a child of the innermost open span.
    fn enter(&mut self, name: &'static str);
    /// Closes the innermost open span.
    fn exit(&mut self);
    /// Closes the innermost open span and opens a sibling on one clock
    /// read, for phases that follow each other without a gap.
    fn next(&mut self, name: &'static str);
    /// Records a rare event outside any op (a checkpoint), never sampled
    /// away.
    fn event(&mut self, name: &'static str, start: Instant, end: Instant);
}

/// Tracing off.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn op_begin(&mut self, _: &'static str, _: Instant) {}
    #[inline(always)]
    fn op_end(&mut self, _: Instant) {}
    #[inline(always)]
    fn enter(&mut self, _: &'static str) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn next(&mut self, _: &'static str) {}
    #[inline(always)]
    fn event(&mut self, _: &'static str, _: Instant, _: Instant) {}
}

/// Sampling span recorder for one client thread.
pub struct SpanTrace {
    epoch: Instant,
    ops_seen: u64,
    spans: Vec<Span>,
    /// Indices of the open spans of the current sampled op, root first.
    /// Empty while the current op is not sampled.
    open: Vec<u32>,
}

impl SpanTrace {
    pub fn new(epoch: Instant) -> Self {
        SpanTrace {
            epoch,
            ops_seen: 0,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            op: self.ops_seen,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    fn pop(&mut self, end_ns: u64) {
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end_ns = end_ns;
        }
    }
}

impl Tracer for SpanTrace {
    fn op_begin(&mut self, name: &'static str, at: Instant) {
        self.ops_seen += 1;
        if self.ops_seen.is_multiple_of(SAMPLE_EVERY) {
            let t = self.ns(at);
            self.push(name, t);
        }
    }

    fn op_end(&mut self, at: Instant) {
        if !self.open.is_empty() {
            let t = self.ns(at);
            // A transaction closure that restarted may have left children
            // open; they end with the op.
            while !self.open.is_empty() {
                self.pop(t);
            }
        }
    }

    fn enter(&mut self, name: &'static str) {
        if !self.open.is_empty() {
            let t = self.ns(Instant::now());
            self.push(name, t);
        }
    }

    fn exit(&mut self) {
        // Never closes the root: that is `op_end`'s, on the loop's clock.
        if self.open.len() > 1 {
            let t = self.ns(Instant::now());
            self.pop(t);
        }
    }

    fn next(&mut self, name: &'static str) {
        if self.open.len() > 1 {
            let t = self.ns(Instant::now());
            self.pop(t);
            self.push(name, t);
        }
    }

    fn event(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            op: self.ops_seen,
            parent: NO_PARENT,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children of one span never overlap (they come from one
/// thread's stack), so the cover is their summed duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

pub fn median_u64(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2] as f64
    } else {
        (s[n / 2 - 1] as f64 + s[n / 2] as f64) / 2.0
    }
}

/// Name of an op's root span.
pub const OP: &str = "op";

/// Total and self time of the op spans. One minus their ratio is the
/// share of op time that lies inside a named child span, i.e. that the
/// trace attributes to a layer and not to the benchmark's own loop.
pub fn op_time(spans: &[Span]) -> (u64, u64) {
    let own = self_times(spans);
    let (mut total, mut own_total) = (0u64, 0u64);
    for (s, o) in spans.iter().zip(own) {
        if s.parent == NO_PARENT && s.name == OP {
            total += s.duration_ns();
            own_total += o;
        }
    }
    (total, own_total)
}

/// For spans named `name`: per span, the summed duration of its direct
/// children, its self time, and its child count.
pub fn children_of(spans: &[Span], name: &str) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let own = self_times(spans);
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_n = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.duration_ns();
            child_n[s.parent as usize] += 1;
        }
    }
    let mut out = (Vec::new(), Vec::new(), Vec::new());
    for (i, s) in spans.iter().enumerate() {
        if s.name == name {
            out.0.push(child_ns[i]);
            out.1.push(own[i]);
            out.2.push(child_n[i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 1,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(NO_PARENT, "op", 0, 100),
            span(0, "args", 0, 10),
            span(0, "txn", 10, 90),
            span(2, "query", 20, 40),
            span(2, "update", 40, 70),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 30, 20, 30]);
        assert_eq!(op_time(&spans), (100, 10));
        let (cover, own, n) = children_of(&spans, "txn");
        assert_eq!((cover, own, n), (vec![50], vec![30], vec![2]));
    }

    #[test]
    fn sampled_op_records_a_tree_and_unsampled_ops_nothing() {
        let epoch = Instant::now();
        let mut t = SpanTrace::new(epoch);
        for _ in 0..SAMPLE_EVERY {
            t.op_begin("op", Instant::now());
            t.enter("a");
            t.next("b");
            t.enter("b.inner");
            t.exit();
            t.exit();
            t.exit(); // one too many: must not close the root
            t.enter("c");
            t.op_end(Instant::now()); // closes `c` and the root
        }
        let spans = t.into_spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["op", "a", "b", "b.inner", "c"]);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[4].parent, 0);
        assert!(spans.iter().all(|s| s.op == SAMPLE_EVERY));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans[1].end_ns, spans[2].start_ns);
    }

    #[test]
    fn no_trace_is_inert() {
        let mut t = NoTrace;
        t.op_begin("op", Instant::now());
        t.enter("a");
        t.next("b");
        t.exit();
        t.op_end(Instant::now());
    }
}
