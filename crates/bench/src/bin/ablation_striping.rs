//! **Stripe-factor ablation (§4.4)**: "By increasing the value k we can
//! reduce lock contention to arbitrarily low levels, at the cost of making
//! operations such as iteration that access the entire container more
//! expensive."
//!
//! Sweeps k ∈ {1, 4, 64, 1024} on the split decomposition under a
//! write-heavy mix (contention reduction) and under a predecessor-heavy
//! mix on the *stick* (whose predecessor queries must take all k stripes —
//! the iteration cost).
//!
//! ```text
//! cargo run -p relc-bench --release --bin ablation_striping [-- --ops N]
//! ```

use std::sync::Arc;

use relc::decomp::library::{split, stick};
use relc::placement::LockPlacement;
use relc::ConcurrentRelation;
use relc_autotune::calibrate::{run_workload, KeyDistribution, OpMix, WorkloadConfig};
use relc_autotune::{GraphOps, RelationGraph};
use relc_bench::report::ThroughputTable;
use relc_bench::Args;
use relc_containers::ContainerKind;

fn main() {
    let args = Args::from_env("ablation_striping [--ops N]", &[], &["--ops"]);
    let ops: usize = args.value("--ops", 20_000);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let factors = [1u32, 4, 64, 1024];

    println!("Stripe-factor ablation (§4.4); {threads} threads, {ops} ops/thread\n");

    // (a) Contention: write-heavy split — more stripes should help.
    let mut table = ThroughputTable::new(
        "split / 0-0-50-50 (contention: higher k should win)",
        factors.iter().map(|&k| k as usize).collect(),
    );
    let mut row = Vec::new();
    for &k in &factors {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::striped_root(&d, k).expect("valid");
        let rel = Arc::new(ConcurrentRelation::new(d, p).expect("valid"));
        let g: Arc<dyn GraphOps> = Arc::new(RelationGraph::new(rel).expect("graph"));
        let res = run_workload(
            &g,
            &WorkloadConfig {
                mix: OpMix::new(0, 0, 50, 50),
                threads,
                ops_per_thread: ops,
                key_range: 256,
                distribution: KeyDistribution::Uniform,
                seed: 1,
            },
        );
        row.push(res.ops_per_sec);
    }
    table.push_row("striped split", row);
    println!("{}", table.render());

    // (b) Iteration: predecessor queries on the stick take all k stripes.
    let mut table = ThroughputTable::new(
        "stick / 35-35-20-10 (iteration: higher k hurts predecessor scans)",
        factors.iter().map(|&k| k as usize).collect(),
    );
    let mut row = Vec::new();
    for &k in &factors {
        let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::striped_root(&d, k).expect("valid");
        let rel = Arc::new(ConcurrentRelation::new(d, p).expect("valid"));
        let g: Arc<dyn GraphOps> = Arc::new(RelationGraph::new(rel).expect("graph"));
        let res = run_workload(
            &g,
            &WorkloadConfig {
                mix: OpMix::new(35, 35, 20, 10),
                threads,
                ops_per_thread: ops / 4, // predecessor scans are slow on sticks
                key_range: 256,
                distribution: KeyDistribution::Uniform,
                seed: 1,
            },
        );
        row.push(res.ops_per_sec);
    }
    table.push_row("striped stick", row);
    println!("{}", table.render());
}
