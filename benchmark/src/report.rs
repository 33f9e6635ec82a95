//! Metric names and units (the same ones `BENCHMARK.json` lists), the
//! statistics over slices, and the lines the benchmark prints.

use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::runner::{RunResult, SliceRec};

/// Which way an end-to-end metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: its unit, which way is better, and the share of
/// the baseline's median by which it may worsen before a change counts as
/// a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEndMetric {
    EndToEndMetric {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric, in print order; the same on every workload.
pub const END_TO_END: &[EndToEndMetric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("read_p50_us", "us", Better::Lower, 0.25),
    e2e("read_p99_us", "us", Better::Lower, 0.25),
    e2e("write_p50_us", "us", Better::Lower, 0.25),
    e2e("write_p99_us", "us", Better::Lower, 0.25),
    e2e("cpu_s_per_mop", "s/Mop", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.05),
];

/// `(name, unit)` of every per-layer metric, in print order. A metric that
/// does not apply to a workload (`wal.*` off `durable_sharded`) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("relspec.tuple_build_ns", "ns"),
    ("relspec.tuple_clone_ns", "ns"),
    ("containers.lookup_ns", "ns"),
    ("containers.write_ns", "ns"),
    ("containers.scan_range32_ns", "ns"),
    ("containers.version_push_ns", "ns"),
    ("containers.version_resolve_ns", "ns"),
    ("containers.reclaim_lag_share", "share"),
    ("locks.physical_pair_ns", "ns"),
    ("locks.engine_acquire2_finish_ns", "ns"),
    ("locks.clock_commit_ns", "ns"),
    ("locks.acquisitions_per_op", "1/op"),
    ("locks.contended_share", "share"),
    ("locks.restarts_per_commit", "1/commit"),
    ("locks.upgrades_per_commit", "1/commit"),
    ("locks.spec_failures_per_commit", "1/commit"),
    ("planner.plan_query_ns", "ns"),
    ("planner.plan_update_ns", "ns"),
    ("planner.plan_insert_ns", "ns"),
    ("planner.plan_range_ns", "ns"),
    ("planner.distinct_plan_shapes", "count"),
    ("relation.query_us", "us"),
    ("relation.insert_us", "us"),
    ("relation.remove_us", "us"),
    ("relation.update_us", "us"),
    ("relation.query_range_us", "us"),
    ("relation.query_range_locked_us", "us"),
    ("relation.batch16_us", "us"),
    ("relation.read_transaction_us", "us"),
    ("txn.closure_ops_us", "us"),
    ("txn.commit_overhead_us", "us"),
    ("txn.ops_per_txn", "count"),
    ("mvcc.versions_created_per_write", "1/op"),
    ("mvcc.versions_retired_share", "share"),
    ("mvcc.version_footprint_end", "count"),
    ("mvcc.locked_over_snapshot_read", "ratio"),
    ("shard.route_ns", "ns"),
    ("shard.fanin_query_us", "us"),
    ("shard.cross_batch16_us", "us"),
    ("shard.cross_shard_txn_share", "share"),
    ("wal.bytes_per_commit", "B"),
    ("wal.commits_per_fsync", "count"),
    ("wal.max_batch", "count"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.recovery_s", "s"),
    ("wal.replayed_records", "count"),
    ("wal.fsync_probe_us", "us"),
    ("ladder.container_write_ns", "ns"),
    ("ladder.relation_update_ns", "ns"),
    ("ladder.txn_update_ns", "ns"),
    ("ladder.shard1_update_ns", "ns"),
    ("ladder.wal_nosync_update_ns", "ns"),
    ("ladder.wal_fsync_update_ns", "ns"),
    ("ref.handcoded_ops_per_s", "1/s"),
    ("ref.vs_handcoded", "ratio"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
    ("trace.coverage_share", "share"),
    ("check.failed_share", "share"),
];

/// Median and quartiles of one metric over a run's slices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so that the spreads this benchmark prints are
/// the ones its driver computes.
pub fn quartiles(values: &[f64]) -> Stat {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Stat {
        median: at(2),
        q1: at(1),
        q3: at(3),
        n,
    }
}

impl Stat {
    pub fn single(value: f64) -> Self {
        Stat {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

pub struct EndToEnd {
    pub metrics: Vec<(&'static str, Stat)>,
    /// How many latency metrics had to fall back to the whole run's
    /// histogram because fewer than half the slices held ten samples
    /// beyond the percentile.
    pub p99_fallbacks: usize,
    /// Whether even the whole run was too short for a p99.
    pub p99_unsupported: bool,
}

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: u64 = 10;

pub fn end_to_end(run: &RunResult, setup_s: &[f64]) -> EndToEnd {
    let (mut p99_fallbacks, mut p99_unsupported) = (0, false);
    let mut latency_us = |pick: fn(&SliceRec) -> &Histogram, q: f64| -> Stat {
        // A slice's percentile counts only if enough samples lie beyond it.
        let per_slice: Vec<f64> = run
            .slices
            .iter()
            .map(pick)
            .filter(|h| q <= 0.5 || h.samples_beyond(q) >= MIN_BEYOND)
            .filter_map(|h| h.quantile(q))
            .map(|ns| ns / 1e3)
            .collect();
        if per_slice.len() * 2 >= run.slices.len() {
            return quartiles(&per_slice);
        }
        let mut all = Histogram::new();
        for s in &run.slices {
            all.merge(pick(s));
        }
        p99_fallbacks += 1;
        p99_unsupported |= all.samples_beyond(q) < MIN_BEYOND;
        Stat::single(all.quantile(q).unwrap_or(0.0) / 1e3)
    };
    let read_p50 = latency_us(|s| &s.read, 0.50);
    let read_p99 = latency_us(|s| &s.read, 0.99);
    let write_p50 = latency_us(|s| &s.write, 0.50);
    let write_p99 = latency_us(|s| &s.write, 0.99);

    let per_slice = |f: &dyn Fn(usize, &SliceRec) -> f64| -> Stat {
        let v: Vec<f64> = run
            .slices
            .iter()
            .enumerate()
            .map(|(k, s)| f(k, s))
            .collect();
        quartiles(&v)
    };
    let setup = match setup_s {
        [one] => Stat::single(*one),
        many => quartiles(many),
    };
    EndToEnd {
        metrics: vec![
            ("setup_s", setup),
            ("ops_per_s", per_slice(&|_, s| s.ops as f64 / run.slice_s)),
            ("read_p50_us", read_p50),
            ("read_p99_us", read_p99),
            ("write_p50_us", write_p50),
            ("write_p99_us", write_p99),
            (
                "cpu_s_per_mop",
                per_slice(&|k, s| run.cpu_s[k] / (s.ops as f64 / 1e6)),
            ),
            (
                "peak_rss_mib",
                Stat::single(run.peak_rss_kib as f64 / 1024.0),
            ),
        ],
        p99_fallbacks,
        p99_unsupported,
    }
}

/// The unit the catalogue gives metric `name`.
pub fn unit_of(name: &str) -> &'static str {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    end_to_end
        .chain(PER_LAYER.iter().copied())
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
        .1
}

/// `metric <workload> <name> <value> <unit> [q1=.. q3=.. n=..]`, one line
/// per metric: what `--selfcheck`, `run.sh` and the contract test read.
pub fn metric_line(workload: &str, name: &str, unit: &str, stat: Stat) -> String {
    let mut line = format!("metric {workload} {name} {} {unit}", stat.median);
    if stat.n > 1 {
        let _ = write!(line, " q1={} q3={} n={}", stat.q1, stat.q3, stat.n);
    }
    line
}

/// What one `--workload` run found, ready to print.
pub struct RunReport {
    pub workload: &'static str,
    pub metrics: Vec<(&'static str, Stat)>,
    pub attempted: u64,
    pub failed: u64,
    /// Post-run invariants and the p99 sample rule, as one verdict with
    /// its reasons.
    pub violations: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|(name, stat)| metric_line(self.workload, name, unit_of(name), *stat))
            .collect()
    }

    /// The one-line JSON object the driver reads.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, stat)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(stat.median),
                unit_of(name)
            );
        }
        s.push_str("}}");
        s
    }
}

/// JSON has no NaN or infinity; a metric that came out non-finite is a
/// bug worth seeing, so it is written as null and fails every reader.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartiles(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
        for (name, unit) in end_to_end.chain(PER_LAYER.iter().copied()) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
