//! **Key-skew ablation** (our extension to the §6.2 methodology): under a
//! Zipf-skewed key distribution, most operations hit a handful of hot keys,
//! so lock striping no longer spreads writers — the placement trade-offs
//! shift compared to the paper's uniform workload.
//!
//! ```text
//! cargo run -p relc-bench --release --bin ablation_zipf [-- --ops N]
//! ```

use std::sync::Arc;

use relc::decomp::library::split;
use relc::placement::LockPlacement;
use relc::ConcurrentRelation;
use relc_autotune::calibrate::{run_workload, KeyDistribution, OpMix, WorkloadConfig};
use relc_autotune::{GraphOps, RelationGraph};
use relc_bench::report::ThroughputTable;
use relc_bench::Args;
use relc_containers::ContainerKind;

fn main() {
    let args = Args::from_env("ablation_zipf [--ops N]", &[], &["--ops"]);
    let ops: usize = args.value("--ops", 20_000);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let skews: [(&str, KeyDistribution); 3] = [
        ("uniform", KeyDistribution::Uniform),
        ("zipf(0.8)", KeyDistribution::Zipf(0.8)),
        ("zipf(1.4)", KeyDistribution::Zipf(1.4)),
    ];

    println!("Key-skew ablation; split decomposition, 0-0-50-50, {threads} threads\n");
    let mut table = ThroughputTable::new(
        "throughput by placement × skew (kops/sec; columns = skew index)",
        (0..skews.len()).collect(),
    );
    for (pname, placement) in [("coarse", 0u8), ("striped(1024)", 1)] {
        let mut row = Vec::new();
        for (_, dist) in skews {
            let d = if placement == 0 {
                split(ContainerKind::HashMap, ContainerKind::TreeMap)
            } else {
                split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap)
            };
            let p = if placement == 0 {
                LockPlacement::coarse(&d).expect("valid")
            } else {
                LockPlacement::striped_root(&d, 1024).expect("valid")
            };
            let rel = Arc::new(ConcurrentRelation::new(d, p).expect("valid"));
            let g: Arc<dyn GraphOps> = Arc::new(RelationGraph::new(rel).expect("graph"));
            let res = run_workload(
                &g,
                &WorkloadConfig {
                    mix: OpMix::new(0, 0, 50, 50),
                    threads,
                    ops_per_thread: ops,
                    key_range: 256,
                    distribution: dist,
                    seed: 9,
                },
            );
            row.push(res.ops_per_sec);
        }
        table.push_row(pname, row);
    }
    for (i, (name, _)) in skews.iter().enumerate() {
        println!("  column {i} = {name}");
    }
    println!("\n{}", table.render());
    println!(
        "Expectation: striping's advantage over coarse shrinks as skew grows — \
         hot keys serialize on the same stripe regardless of k."
    );
}
