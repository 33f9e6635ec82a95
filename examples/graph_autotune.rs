//! Autotuning demo (§6.1, online): calibrate a cost model over a slice of
//! the representation space, then ask it to *advise* on observed workloads
//! without re-measuring — showing that "the best data representation
//! varies with the workload".
//!
//! ```text
//! cargo run -p relc-integration --example graph_autotune --release
//! ```

use relc_autotune::calibrate::{CalibrationConfig, OpMix, TxnMix};
use relc_autotune::candidates::enumerate;
use relc_autotune::cost::{CostModel, ObservedSignals};

fn main() {
    // A compact slice of the space: stripe factor 8 keeps the demo quick
    // while still exercising coarse/fine/striped/speculative families.
    let space: Vec<_> = enumerate(&[8]).into_iter().take(12).collect();
    println!("calibrating {} candidates...\n", space.len());

    let cfg = CalibrationConfig {
        threads: std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4),
        ops_per_thread: 4_000,
        ..Default::default()
    };
    let mixes = [
        TxnMix::ReadHeavy,
        TxnMix::TxnTransfer,
        TxnMix::Graph(OpMix::new(70, 0, 20, 10)),
    ];
    let model = CostModel::calibrate(&space, &mixes, &cfg);
    println!(
        "model: {} candidates × {} mixes calibrated\n",
        model.entries.len(),
        model.mixes.len()
    );

    // Observed traffic shapes (normally StatsSnapshot deltas from a live
    // relation; synthesized here).
    let scenarios = [
        (
            "read-dominant service",
            ObservedSignals {
                reads: 9_500,
                writes: 500,
                txns: 0,
                restart_rate: 0.0,
                contention: 0.05,
                snapshot_read_rate: 0.9,
            },
        ),
        (
            "transfer pipeline",
            ObservedSignals {
                reads: 0,
                writes: 0,
                txns: 10_000,
                restart_rate: 0.1,
                contention: 0.3,
                snapshot_read_rate: 0.0,
            },
        ),
    ];

    for (label, obs) in scenarios {
        println!("=== {label}");
        match model.advise(&obs) {
            Some(advice) => {
                println!(
                    "    matched mix `{}` (distance {:.3}), {} ranked candidates",
                    advice.matched_mix,
                    advice.distance,
                    advice.ranked.len()
                );
                for r in advice.ranked.iter().take(3) {
                    println!(
                        "    {:>12.0} ops/s  p99 {:>8.1}us  {}",
                        r.features.ops_per_sec,
                        r.features.p99_us,
                        r.candidate.name()
                    );
                }
                println!("    winner: {}\n", advice.best().candidate.name());
            }
            None => println!("    model does not cover this mix; re-calibration needed\n"),
        }
    }
}
