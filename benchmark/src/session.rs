//! One `--workload` run, in either of its two forms: the untraced run that
//! yields the end-to-end metrics, or the traced run plus probes and ladder
//! that yields the per-layer ledger.

use std::io::Write as _;
use std::time::Instant;

use crate::probes::{self, Metrics};
use crate::report::{self, RunReport, Stat};
use crate::runner::{self, RunResult, RunShape, CLIENTS};
use crate::stream::{stream_hash, Op, Rng};
use crate::trace::{self, Span, NO_PARENT, SAMPLE_EVERY};
use crate::workload::{Counters, Scale, Workload};
use crate::workloads::{durable, graph, range, transfer};

#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    /// How long the untraced run measures; the traced run and its untraced
    /// twin measure for a quarter of it each.
    pub seconds: f64,
    pub quick: bool,
}

/// Runs workload `name`; `None` if there is no such workload.
pub fn run_workload(name: &str, cfg: Config, traced: bool) -> Option<RunReport> {
    let scale = Scale { quick: cfg.quick };
    Some(match name {
        "graph_read_mostly" => session(&graph::GraphReadMostly::new(scale, cfg.seed), cfg, traced),
        "txn_transfer" => session(&transfer::TxnTransfer::new(scale), cfg, traced),
        "range_window" => session(&range::RangeWindow::new(scale), cfg, traced),
        "durable_sharded" => session(&durable::DurableSharded::new(scale), cfg, traced),
        _ => return None,
    })
}

fn session<W: Workload>(w: &W, cfg: Config, traced: bool) -> RunReport {
    if traced {
        per_layer(w, cfg)
    } else {
        end_to_end(w, cfg)
    }
}

/// Runs `f` and prints how long it took: where a run's wall time goes.
fn phase<R>(workload: &str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    let s = t0.elapsed().as_secs_f64();
    println!("phase {workload} {name} {s:.3} s");
    (r, s)
}

fn scratch_tag(workload: &str, i: usize) -> String {
    format!("{workload}-{}-{i}", std::process::id())
}

fn streams_of<W: Workload>(w: &W, seed: u64) -> Vec<Vec<Op>> {
    let streams: Vec<Vec<Op>> = (0..CLIENTS as u64)
        .map(|client| w.gen_stream(&mut Rng::for_lane(seed, client)))
        .collect();
    println!(
        "stream {} seed={seed} hash={:016x}",
        w.name(),
        stream_hash(&streams)
    );
    streams
}

/// Set-ups per run: at least this many, and more (up to
/// [`MAX_SETUPS`]) while they have taken less than [`SETUP_BUDGET_S`]
/// together, so that a set-up of a few tens of milliseconds is a median of
/// many.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;

fn end_to_end<W: Workload>(w: &W, cfg: Config) -> RunReport {
    let mut violations = Vec::new();
    let mut setup_s = Vec::new();
    let name = w.name();
    let (st, s) = phase(name, "setup", || w.setup(&scratch_tag(name, 0)));
    setup_s.push(s);
    let streams = streams_of(w, cfg.seed);
    let shape = RunShape::measuring(cfg.seconds);
    let (run, _) = phase(name, "run", || runner::run(w, &st, &streams, shape, false));
    if let (Err(e), _) = phase(name, "post_check", || w.post_check(st)) {
        violations.push(format!("post-run check: {e}"));
    }
    // The remaining set-ups come after the run, so that the run's peak
    // RSS is that of one relation.
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (st, s) = phase(name, "setup", || w.setup(&scratch_tag(name, setup_s.len())));
        setup_s.push(s);
        phase(name, "discard", || w.discard(st));
    }
    let per_slice: Vec<String> = run
        .slices
        .iter()
        .map(|s| format!("{:.0}", s.ops as f64 / run.slice_s))
        .collect();
    println!("slices {name} ops_per_s {}", per_slice.join(" "));
    let e2e = report::end_to_end(&run, &setup_s);
    if e2e.p99_fallbacks > 0 {
        println!(
            "note {} {} latency metrics taken over the whole run: a slice held too few samples",
            w.name(),
            e2e.p99_fallbacks
        );
    }
    if e2e.p99_unsupported && !cfg.quick {
        violations.push("fewer than 10 samples beyond a reported percentile".into());
    }
    RunReport {
        workload: w.name(),
        metrics: e2e.metrics,
        attempted: run.attempted,
        failed: run.failed,
        violations,
    }
}

fn per_layer<W: Workload>(w: &W, cfg: Config) -> RunReport {
    let mut violations = Vec::new();
    let name = w.name();
    let (st, _) = phase(name, "setup", || w.setup(&scratch_tag(name, 0)));
    let streams = streams_of(w, cfg.seed);
    let shape = RunShape::measuring(cfg.seconds / 4.0);
    let run = |traced| runner::run(w, &st, &streams, shape, traced);
    let (plain, _) = phase(name, "untraced_run", || run(false));
    let before = w.counters(&st);
    let (traced, _) = phase(name, "traced_run", || run(true));
    let after = w.counters(&st);

    let mut m = Metrics::new();
    let spec = w.probe_spec(&st);
    let durable = spec.sharded.is_some();
    m.extend(
        phase(name, "layer_probes", || {
            probes::layer_probes(&spec, cfg.quick)
        })
        .0,
    );
    drop(spec);
    m.push((
        "shard.cross_shard_txn_share",
        w.cross_shard_txn_share(&st, &streams),
    ));
    m.push((
        "wal.checkpoint_ms",
        trace::median_u64(&w.checkpoint_ns(&st)) / 1e6,
    ));
    counter_metrics(&before, &after, &traced, &mut m);
    match phase(name, "post_check", || w.post_check(st)).0 {
        Ok(post) => {
            m.push(("wal.recovery_s", post.recovery_s));
            m.push(("wal.replayed_records", post.replayed_records as f64));
        }
        Err(e) => violations.push(format!("post-run check: {e}")),
    }
    let mut failed = plain.failed + traced.failed;
    let mut attempted = plain.attempted + traced.attempted;
    if let (Some(reference), _) = phase(name, "reference_run", || w.reference_run(&streams, shape))
    {
        m.push(("ref.handcoded_ops_per_s", reference.ops_per_s()));
        m.push((
            "ref.vs_handcoded",
            plain.ops_per_s() / reference.ops_per_s(),
        ));
        failed += reference.failed;
        attempted += reference.attempted;
    }
    m.extend(phase(name, "ladder", || probes::ladder(cfg.quick)).0);
    if durable {
        m.push(("wal.fsync_probe_us", probes::fsync_probe_us()));
    }
    span_metrics(&traced.spans, &mut m);
    m.push((
        "trace.overhead_share",
        1.0 - traced.ops_per_s() / plain.ops_per_s(),
    ));
    m.push((
        "check.failed_share",
        failed as f64 / attempted.max(1) as f64,
    ));
    if let Err(e) = write_trace_file(name, cfg.seed, &traced.spans) {
        violations.push(format!("trace file: {e}"));
    }

    // Catalogue order; what a workload does not exercise reads 0.
    let metrics = report::PER_LAYER
        .iter()
        .map(|(name, _)| {
            let value = m.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
            (*name, Stat::single(value))
        })
        .collect();
    RunReport {
        workload: w.name(),
        metrics,
        attempted,
        failed,
        violations,
    }
}

/// Per-layer metrics that are differences of the library's own counters
/// over the traced run.
fn counter_metrics(before: &Counters, after: &Counters, run: &RunResult, m: &mut Metrics) {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let (l0, l1) = (before.stats.locks, after.stats.locks);
    let commits = l1.commits - l0.commits;
    let acquisitions = l1.acquisitions - l0.acquisitions;
    m.push((
        "locks.acquisitions_per_op",
        ratio(acquisitions, run.attempted),
    ));
    m.push((
        "locks.contended_share",
        ratio(l1.contended - l0.contended, acquisitions),
    ));
    m.push((
        "locks.restarts_per_commit",
        ratio(l1.restarts - l0.restarts, commits),
    ));
    m.push((
        "locks.upgrades_per_commit",
        ratio(l1.upgrades - l0.upgrades, commits),
    ));
    m.push((
        "locks.spec_failures_per_commit",
        ratio(l1.speculation_failures - l0.speculation_failures, commits),
    ));
    let (v0, v1) = (before.stats.versions, after.stats.versions);
    let created = v1.created - v0.created;
    m.push((
        "mvcc.versions_created_per_write",
        ratio(created, run.attempted_writes),
    ));
    m.push((
        "mvcc.versions_retired_share",
        ratio(v1.retired - v0.retired, created),
    ));
    m.push(("mvcc.version_footprint_end", after.version_footprint as f64));
    let (r0, r1) = (before.stats.reclamation, after.stats.reclamation);
    m.push((
        "containers.reclaim_lag_share",
        ratio(r1.in_flight(), r1.retired - r0.retired),
    ));
    if let (Some(w0), Some(w1)) = (before.wal, after.wal) {
        let appends = w1.appends - w0.appends;
        m.push((
            "wal.bytes_per_commit",
            ratio(after.wal_bytes - before.wal_bytes, appends),
        ));
        m.push((
            "wal.commits_per_fsync",
            ratio(appends, w1.fsyncs - w0.fsyncs),
        ));
        m.push(("wal.max_batch", w1.max_batch as f64));
    }
}

/// Per-layer metrics read off the traced run's spans.
fn span_metrics(spans: &[Vec<Span>], m: &mut Metrics) {
    let median_us = |names: &[&str]| {
        let d: Vec<u64> = spans
            .iter()
            .flatten()
            .filter(|s| names.contains(&s.name))
            .map(Span::duration_ns)
            .collect();
        trace::median_u64(&d) / 1e3
    };
    for (metric, span) in [
        ("relation.query_us", &["relation.query"][..]),
        ("relation.insert_us", &["relation.insert"]),
        ("relation.remove_us", &["relation.remove"]),
        ("relation.update_us", &["relation.update"]),
        ("relation.query_range_us", &["relation.query_range"]),
        (
            "relation.query_range_locked_us",
            &["relation.query_range_locked"],
        ),
        (
            "relation.batch16_us",
            &["relation.insert_all", "relation.remove_all"],
        ),
        (
            "relation.read_transaction_us",
            &["relation.read_transaction"],
        ),
        ("shard.fanin_query_us", &["shard.fanin_query"]),
    ] {
        m.push((metric, median_us(span)));
    }
    let (mut cover, mut own, mut children) = (Vec::new(), Vec::new(), Vec::new());
    let (mut op_ns, mut op_self_ns) = (0u64, 0u64);
    for client in spans {
        let (c, o, n) = trace::children_of(client, "relation.transaction");
        cover.extend(c);
        own.extend(o);
        children.extend(n);
        let (total, own) = trace::op_time(client);
        op_ns += total;
        op_self_ns += own;
    }
    m.push(("txn.closure_ops_us", trace::median_u64(&cover) / 1e3));
    m.push(("txn.commit_overhead_us", trace::median_u64(&own) / 1e3));
    m.push((
        "txn.ops_per_txn",
        children.iter().sum::<u64>() as f64 / children.len().max(1) as f64,
    ));
    m.push((
        "trace.spans",
        spans.iter().map(Vec::len).sum::<usize>() as f64,
    ));
    m.push((
        "trace.coverage_share",
        if op_ns == 0 {
            0.0
        } else {
            1.0 - op_self_ns as f64 / op_ns as f64
        },
    ));
}

/// Spans written per client; the metrics above use every span kept in
/// memory, the file is for reading.
const TRACE_FILE_SPANS: usize = 20_000;

fn write_trace_file(workload: &str, seed: u64, spans: &[Vec<Span>]) -> std::io::Result<()> {
    let path = crate::out_dir().join(format!("trace-{workload}.json"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        f,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"sample_every\": {SAMPLE_EVERY}, \"spans\": ["
    )?;
    let mut first = true;
    for (client, list) in spans.iter().enumerate() {
        for (id, s) in list.iter().take(TRACE_FILE_SPANS).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{}{{\"client\": {client}, \"id\": {id}, \"parent\": {parent}, \"op\": {}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                if first { "" } else { "," },
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
            first = false;
        }
    }
    writeln!(f, "]}}")?;
    f.flush()
}
