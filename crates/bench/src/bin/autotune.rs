//! The **closed-loop autotuner**: calibrate a cost model ([`CostModel`])
//! over a candidate pool, observe a live `calibrate::TxnMix`-shaped
//! workload, and when a calibrated mix describes the observed traffic,
//! **migrate the running relation live**
//! ([`ConcurrentRelation::migrate_to`]) to the advised representation —
//! then re-measure and report before/after throughput.
//!
//! ```text
//! cargo run -p relc-bench --release --bin autotune [-- --quick]
//!     [--report PATH] [--threads T] [--keys K] [--window-ms W] [--cal-ops N]
//! ```
//!
//! `--quick` calibrates two candidates on one mix and performs one live
//! migration — the CI smoke gate. Without it, the loop runs three
//! workload scenarios over a five-candidate pool. Every run calibrates
//! afresh; `--report` writes the before/after markdown report.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use relc::ConcurrentRelation;
use relc_autotune::calibrate::{CalibrationConfig, TxnMix};
use relc_autotune::candidates::{Candidate, PlacementKind, Structure};
use relc_autotune::cost::{CostModel, ObservedSignals};
use relc_bench::{fail, Args};
use relc_containers::ContainerKind;
use relc_spec::{RelationSchema, Tuple, Value};

/// The candidate pool the model calibrates over: coarse, fine and striped
/// placements over the three structures — which placement wins a mix
/// depends on the host (on a single core, extra lock acquisitions are
/// pure overhead; on many cores, coarse serializes), so the model decides
/// empirically.
fn candidate_pool(quick: bool) -> Vec<Candidate> {
    let coarse = Candidate {
        structure: Structure::Stick,
        top: ContainerKind::HashMap,
        second: ContainerKind::TreeMap,
        top2: None,
        second2: None,
        placement: PlacementKind::Coarse,
    };
    let fine = Candidate {
        structure: Structure::Stick,
        top: ContainerKind::ConcurrentHashMap,
        second: ContainerKind::HashMap,
        top2: None,
        second2: None,
        placement: PlacementKind::Fine,
    };
    if quick {
        return vec![coarse, fine];
    }
    vec![
        coarse,
        fine,
        Candidate {
            structure: Structure::Stick,
            top: ContainerKind::ConcurrentHashMap,
            second: ContainerKind::TreeMap,
            top2: None,
            second2: None,
            placement: PlacementKind::Striped(8),
        },
        Candidate {
            structure: Structure::Split,
            top: ContainerKind::ConcurrentHashMap,
            second: ContainerKind::HashMap,
            top2: None,
            second2: None,
            placement: PlacementKind::Striped(8),
        },
        Candidate {
            structure: Structure::Diamond,
            top: ContainerKind::ConcurrentHashMap,
            second: ContainerKind::HashMap,
            top2: None,
            second2: None,
            placement: PlacementKind::Fine,
        },
    ]
}

/// The scenario's starting representation: the model's *lowest-ranked*
/// feasible candidate for the mix — the worst case a deployment could
/// find itself on, and the strongest test of the closed loop (the advice
/// must move it to the top-ranked one and measurably improve).
fn worst_for(model: &CostModel, mix_label: &str) -> Option<Candidate> {
    model
        .entries
        .iter()
        .filter_map(|e| {
            e.features
                .iter()
                .find(|f| f.mix == mix_label)
                .map(|f| (f.ops_per_sec, &e.candidate))
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, c)| c.clone())
}

/// A live workload shape (the [`TxnMix`] names; the report keys on them).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    ReadHeavy,
    UpdateHeavy,
    TxnTransfer,
}

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::ReadHeavy => "read_heavy",
            Shape::UpdateHeavy => "update_heavy",
            Shape::TxnTransfer => "txn_transfer",
        }
    }

    fn mix(self) -> TxnMix {
        match self {
            Shape::ReadHeavy => TxnMix::ReadHeavy,
            Shape::UpdateHeavy => TxnMix::UpdateHeavy,
            Shape::TxnTransfer => TxnMix::TxnTransfer,
        }
    }
}

fn key(schema: &RelationSchema, a: i64) -> Tuple {
    schema
        .tuple(&[("src", Value::from(a)), ("dst", Value::from(a))])
        .unwrap()
}

fn weight(schema: &RelationSchema, w: i64) -> Tuple {
    schema.tuple(&[("weight", Value::from(w))]).unwrap()
}

/// A continuously running workload against one relation: `threads`
/// workers driving `shape` until stopped, bumping a shared op counter.
struct LiveWorkload {
    stop: Arc<AtomicBool>,
    ops: Arc<AtomicU64>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl LiveWorkload {
    fn start(rel: &Arc<ConcurrentRelation>, shape: Shape, threads: usize, keys: i64) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let ops = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(threads + 1));
        let handles: Vec<_> = (0..threads as u64)
            .map(|tid| {
                let rel = Arc::clone(rel);
                let stop = Arc::clone(&stop);
                let ops = Arc::clone(&ops);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let schema = rel.schema().clone();
                    let wcols = schema.column_set(&["weight"]).unwrap();
                    let mut x = (tid + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let mut next = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    barrier.wait();
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let a = (next() % keys as u64) as i64;
                        let mut b = (next() % keys as u64) as i64;
                        if b == a {
                            b = (b + 1) % keys;
                        }
                        match shape {
                            Shape::ReadHeavy => {
                                if i.is_multiple_of(20) {
                                    let w = (next() % 1_000) as i64;
                                    rel.update(&key(&schema, a), &weight(&schema, w)).unwrap();
                                } else {
                                    let _ = rel.query(&key(&schema, a), wcols).unwrap();
                                }
                            }
                            Shape::UpdateHeavy => {
                                let w = (next() % 1_000) as i64;
                                rel.update(&key(&schema, a), &weight(&schema, w)).unwrap();
                            }
                            Shape::TxnTransfer => {
                                // Sum-preserving transfer: move one unit
                                // from account `a` to account `b`.
                                rel.transaction(|tx| {
                                    let wa = tx.query(&key(&schema, a), wcols)?;
                                    let wb = tx.query(&key(&schema, b), wcols)?;
                                    let (Some(wa), Some(wb)) = (wa.first(), wb.first()) else {
                                        return Ok(());
                                    };
                                    let va = wa.get(schema.column("weight").unwrap()).unwrap();
                                    let vb = wb.get(schema.column("weight").unwrap()).unwrap();
                                    let (va, vb) = (va.as_int().unwrap(), vb.as_int().unwrap());
                                    tx.update(&key(&schema, a), &weight(&schema, va - 1))?;
                                    tx.update(&key(&schema, b), &weight(&schema, vb + 1))?;
                                    Ok(())
                                })
                                .unwrap();
                            }
                        }
                        ops.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                })
            })
            .collect();
        barrier.wait();
        LiveWorkload { stop, ops, handles }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles {
            h.join().expect("workload worker panicked");
        }
    }
}

/// One observation window: ops/sec over `window` plus the
/// [`ObservedSignals`] derived from the relation's stats delta.
fn observe(rel: &ConcurrentRelation, ops: &AtomicU64, window: Duration) -> (f64, ObservedSignals) {
    let before = rel.stats_snapshot();
    let c0 = ops.load(Ordering::Relaxed);
    let t0 = Instant::now();
    std::thread::sleep(window);
    let c1 = ops.load(Ordering::Relaxed);
    let elapsed = t0.elapsed().as_secs_f64();
    let after = rel.stats_snapshot();
    (
        (c1 - c0) as f64 / elapsed,
        ObservedSignals::from_delta(&before, &after),
    )
}

/// Minimum predicted throughput gain (fractional) before the loop pays
/// for a live cutover.
const MIGRATION_GAIN_THRESHOLD: f64 = 0.10;

struct ScenarioReport {
    shape: Shape,
    start_name: String,
    signals: ObservedSignals,
    matched_mix: String,
    distance: f64,
    advised_name: String,
    predicted_gain: f64,
    migrated: bool,
    migration_ms: f64,
    before_ops: f64,
    after_ops: f64,
    rows: usize,
    sum_preserved: bool,
}

impl ScenarioReport {
    fn improved(&self) -> bool {
        self.migrated && self.after_ops > self.before_ops
    }

    fn markdown(&self) -> String {
        let p = self.signals.profile();
        let delta = if self.before_ops > 0.0 {
            (self.after_ops / self.before_ops - 1.0) * 100.0
        } else {
            0.0
        };
        format!(
            "## Scenario: `{}`\n\n\
             - starting representation: `{}`\n\
             - observed signals: reads={}, writes={}, txns={} \
             (profile {:.2}/{:.2}/{:.2}), contention {:.3}, restarts/commit {:.3}\n\
             - matched calibrated mix: `{}` (profile distance {:.3})\n\
             - advice: `{}` (predicted gain {:+.1}%)\n\
             - live migration: {} ({} rows, {:.1} ms, workload uninterrupted)\n\
             - throughput: {:.0} ops/s before → {:.0} ops/s after ({:+.1}%)\n\
             - invariants: verify OK, {} rows preserved{}\n",
            self.shape.label(),
            self.start_name,
            self.signals.reads,
            self.signals.writes,
            self.signals.txns,
            p.read_fraction,
            p.write_fraction,
            p.txn_fraction,
            self.signals.contention,
            self.signals.restart_rate,
            self.matched_mix,
            self.distance,
            self.advised_name,
            self.predicted_gain * 100.0,
            if self.migrated {
                "performed"
            } else if self.advised_name == self.start_name {
                "skipped (already on the advised representation)"
            } else {
                "skipped (predicted gain below the 10% cutover threshold)"
            },
            self.rows,
            self.migration_ms,
            self.before_ops,
            self.after_ops,
            delta,
            self.rows,
            if self.sum_preserved {
                ", weight sum preserved"
            } else {
                ""
            },
        )
    }
}

fn run_scenario(
    shape: Shape,
    start: Candidate,
    model: &CostModel,
    threads: usize,
    keys: i64,
    window: Duration,
) -> ScenarioReport {
    let rel = start.build().expect("starting candidate builds");
    let schema = rel.schema().clone();
    for k in 0..keys {
        rel.insert(&key(&schema, k), &weight(&schema, k)).unwrap();
    }
    let initial_sum: i64 = (0..keys).sum();

    let wl = LiveWorkload::start(&rel, shape, threads, keys);
    // Warm up, then observe the live traffic.
    std::thread::sleep(window / 2);
    let (before_ops, signals) = observe(&rel, &wl.ops, window);

    let advice = model
        .advise(&signals)
        .expect("calibrated model covers the scenario mixes");
    let best = advice.best();
    let advised_name = best.candidate.name();
    // Hysteresis: a cutover pays a fence and a bulk load, so only migrate
    // when the model predicts a real gain over the current representation
    // (reads on the lock-free snapshot path, for instance, are nearly
    // representation-insensitive — advice there is noise).
    let start_pred = advice
        .ranked
        .iter()
        .find(|r| r.candidate.name() == start.name())
        .map(|r| r.features.ops_per_sec);
    let predicted_gain = start_pred
        .map(|s| best.features.ops_per_sec / s - 1.0)
        .unwrap_or(f64::INFINITY);
    let mut migrated = false;
    let mut migration_ms = 0.0;
    if advised_name != start.name() && predicted_gain >= MIGRATION_GAIN_THRESHOLD {
        let d = best.candidate.decomposition();
        let p = best
            .candidate
            .placement_for(&d)
            .expect("advised placement validates");
        let t0 = Instant::now();
        rel.migrate_to(d, p).expect("live migration succeeds");
        migration_ms = t0.elapsed().as_secs_f64() * 1e3;
        migrated = true;
    }
    // Let the workload settle on the new representation, then re-measure.
    std::thread::sleep(window / 2);
    let (after_ops, _) = observe(&rel, &wl.ops, window);
    wl.stop();

    let rows = rel.verify().expect("relation verifies after migration");
    let wcol = schema.column("weight").unwrap();
    let final_sum: i64 = rows
        .iter()
        .map(|t| t.get(wcol).unwrap().as_int().unwrap())
        .sum();
    let sum_preserved = match shape {
        Shape::TxnTransfer => final_sum == initial_sum,
        _ => true, // updates overwrite weights; only row count is invariant
    };
    assert_eq!(rows.len(), keys as usize, "row count changed under load");
    assert!(
        sum_preserved,
        "transfer sum drifted: {final_sum} != {initial_sum}"
    );

    ScenarioReport {
        shape,
        start_name: start.name(),
        signals,
        matched_mix: advice.matched_mix.clone(),
        distance: advice.distance,
        advised_name,
        predicted_gain,
        migrated,
        migration_ms,
        before_ops,
        after_ops,
        rows: rows.len(),
        sum_preserved,
    }
}

const USAGE: &str = "autotune [--quick] [--report PATH] [--threads T] [--keys K] \
                     [--window-ms W] [--cal-ops N]";
const SWITCHES: &[&str] = &["--quick"];
const OPTIONS: &[&str] = &[
    "--report",
    "--threads",
    "--keys",
    "--window-ms",
    "--cal-ops",
];

/// The run's settings, read from the command line.
#[derive(Debug)]
struct Settings {
    quick: bool,
    threads: usize,
    keys: i64,
    window: Duration,
    cal_ops: usize,
    report_path: String,
}

impl Settings {
    /// Reads the flags and refuses values the loop cannot run with: a
    /// transfer moves weight between two distinct keys, so `--keys` must
    /// be at least 2, and `--threads`, `--window-ms` and `--cal-ops` at
    /// least 1.
    fn from_args(args: &Args) -> Result<Settings, String> {
        let quick = args.present("--quick");
        let threads: usize = args.try_value(
            "--threads",
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
        )?;
        let keys: i64 = args.try_value("--keys", 256)?;
        let window_ms: u64 = args.try_value("--window-ms", if quick { 250 } else { 600 })?;
        let cal_ops: usize = args.try_value("--cal-ops", if quick { 1_500 } else { 6_000 })?;
        if keys < 2 {
            return Err(format!("`--keys` must be at least 2, got {keys}"));
        }
        for (flag, value) in [
            ("--threads", threads as u64),
            ("--window-ms", window_ms),
            ("--cal-ops", cal_ops as u64),
        ] {
            if value == 0 {
                return Err(format!("`{flag}` must be at least 1"));
            }
        }
        Ok(Settings {
            quick,
            threads,
            keys,
            window: Duration::from_millis(window_ms),
            cal_ops,
            report_path: args.try_value("--report", String::new())?,
        })
    }
}

fn main() {
    let args = Args::from_env(USAGE, SWITCHES, OPTIONS);
    let Settings {
        quick,
        threads,
        keys,
        window,
        cal_ops,
        report_path,
    } = Settings::from_args(&args).unwrap_or_else(|e| fail(USAGE, &e));

    let pool = candidate_pool(quick);
    let shapes: &[Shape] = if quick {
        // Transfer transactions are the most representation-sensitive mix
        // (lock acquisitions per transaction scale with the placement), so
        // the smoke gate exercises that one.
        &[Shape::TxnTransfer]
    } else {
        &[Shape::ReadHeavy, Shape::UpdateHeavy, Shape::TxnTransfer]
    };
    let mixes: Vec<TxnMix> = shapes.iter().map(|s| s.mix()).collect();

    println!(
        "Closed-loop autotuner: {} candidates, {} scenario(s), {} threads, {} keys\n",
        pool.len(),
        shapes.len(),
        threads,
        keys
    );

    println!(
        "cost model: calibrating {} candidates × {} mixes ({} ops/thread)...",
        pool.len(),
        mixes.len(),
        cal_ops
    );
    let cfg = CalibrationConfig {
        threads,
        ops_per_thread: cal_ops,
        key_range: keys.min(128),
        ..Default::default()
    };
    let t0 = Instant::now();
    let model = CostModel::calibrate(&pool, &mixes, &cfg);
    println!(
        "cost model: calibrated in {:.1}s ({} feasible entries)\n",
        t0.elapsed().as_secs_f64(),
        model.entries.len()
    );

    let mut reports = Vec::new();
    for &shape in shapes {
        println!("=== scenario `{}`", shape.label());
        let start = worst_for(&model, &shape.mix().label())
            .expect("model has calibrated entries for the scenario mix");
        let r = run_scenario(shape, start, &model, threads, keys, window);
        println!(
            "    {} → {}  ({:.0} → {:.0} ops/s, migration {})",
            r.start_name,
            r.advised_name,
            r.before_ops,
            r.after_ops,
            if r.migrated {
                format!("{:.1} ms", r.migration_ms)
            } else {
                "skipped".to_owned()
            }
        );
        reports.push(r);
    }

    let improved = reports.iter().filter(|r| r.improved()).count();
    println!(
        "\nsummary: the autotuner installed a faster representation for {improved} of {} workload(s)",
        reports.len()
    );

    if !report_path.is_empty() {
        let mut md = String::from(
            "# Closed-loop autotune report\n\n\
             Calibrate a cost model over the candidate pool, observe a live\n\
             `calibrate::TxnMix`-shaped workload, match it against the model,\n\
             migrate the running relation live to the advised representation,\n\
             and re-measure.\n\n\
             Regenerate with:\n\n\
             ```\n\
             cargo run -p relc-bench --release --bin autotune -- --report AUTOTUNE.md\n\
             ```\n\n\
             Every run calibrates afresh, and short calibrations are noisy: the\n\
             predicted and measured gains move from run to run. This is one\n\
             run's output as printed.\n\n",
        );
        for r in &reports {
            md.push_str(&r.markdown());
            md.push('\n');
        }
        md.push_str(&format!(
            "## Summary\n\nThe autotuner picked and installed a faster representation \
             for {improved} of {} workload(s).\n",
            reports.len()
        ));
        std::fs::write(&report_path, md).expect("write report");
        println!("report written to `{report_path}`");
    }

    // The CI gate: at least one workload must end up on a faster
    // representation after a live migration.
    assert!(
        improved >= 1,
        "closed loop failed to improve any workload: {:?}",
        reports
            .iter()
            .map(|r| (r.shape.label(), r.before_ops, r.after_ops))
            .collect::<Vec<_>>()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(words: &[&str]) -> Result<Settings, String> {
        let argv = words.iter().map(|s| s.to_string());
        Settings::from_args(&Args::parse(USAGE, SWITCHES, OPTIONS, argv)?)
    }

    #[test]
    fn flags_the_loop_cannot_run_with_are_refused() {
        for (words, err) in [
            (&["--keys", "1"][..], "`--keys` must be at least 2, got 1"),
            (&["--keys", "-3"][..], "`--keys` must be at least 2, got -3"),
            (&["--threads", "0"][..], "`--threads` must be at least 1"),
            (
                &["--window-ms", "0"][..],
                "`--window-ms` must be at least 1",
            ),
            (&["--cal-ops", "0"][..], "`--cal-ops` must be at least 1"),
        ] {
            assert_eq!(settings(words).unwrap_err(), err, "{words:?}");
        }
        let s = settings(&["--quick", "--keys", "2", "--threads", "1"]).unwrap();
        assert_eq!((s.keys, s.threads, s.cal_ops), (2, 1, 1_500));
        assert_eq!(s.window, Duration::from_millis(250));
        assert!(settings(&["--model", "cost-model"]).is_err());
    }
}
