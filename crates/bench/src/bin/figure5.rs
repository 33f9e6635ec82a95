//! Regenerates **Figure 5**: throughput/scalability curves for the four
//! §6.2 operation mixes over the 13 representative graph representations
//! (plus a speculative bonus series).
//!
//! ```text
//! cargo run -p relc-bench --release --bin figure5 [-- --ops N | --full]
//!     [--keys K] [--seed S]
//! ```
//!
//! Defaults to 5×10⁴ operations per thread (CI-scale); `--full` runs the
//! paper's 5×10⁵. Thread counts sweep powers of two up to the machine's
//! parallelism. Prints a human table and a CSV block per mix.

use std::sync::Arc;

use relc_autotune::calibrate::{run_workload, KeyDistribution, WorkloadConfig, FIGURE5_MIXES};
use relc_bench::report::{default_thread_counts, ThroughputTable};
use relc_bench::{figures, Args};

fn main() {
    let args = Args::from_env(
        "figure5 [--ops N | --full] [--keys K] [--seed S]",
        &["--full"],
        &["--ops", "--keys", "--seed"],
    );
    let full = args.present("--full");
    let ops: usize = args.value("--ops", if full { 500_000 } else { 50_000 });
    let keys: i64 = args.value("--keys", 256);
    let seed: u64 = args.value("--seed", 0x5eed);
    let threads = default_thread_counts();

    println!("Figure 5: throughput-scalability for the §6.2 graph benchmark");
    println!(
        "(ops/thread = {ops}, key range = {keys}, threads = {threads:?}; \
         series per Fig. 3 structures)\n"
    );

    let mut csv = String::new();
    for mix in FIGURE5_MIXES {
        let mut table = ThroughputTable::new(
            format!("Operation Distribution: {}", mix.label()),
            threads.clone(),
        );
        for cfg in figures::figure5_configs() {
            let mut row = Vec::with_capacity(threads.len());
            for &t in &threads {
                let graph = cfg.build();
                let wl = WorkloadConfig {
                    mix,
                    threads: t,
                    ops_per_thread: ops,
                    key_range: keys,
                    distribution: KeyDistribution::Uniform,
                    seed,
                };
                let res = run_workload(&Arc::clone(&graph), &wl);
                row.push(res.ops_per_sec);
            }
            table.push_row(cfg.name, row);
            eprint!(".");
        }
        eprintln!();
        println!("{}", table.render());
        csv.push_str(&table.render_csv());
        csv.push('\n');
    }
    println!("--- CSV ---\n{csv}");
}
