//! Regenerates **Figure 1**: the concurrency-safety and consistency
//! properties of the container catalog.
//!
//! ```text
//! cargo run -p relc-bench --release --bin figure1_taxonomy
//! ```

use relc_bench::Args;
use relc_containers::{render_figure1, ContainerKind};

fn main() {
    Args::from_env("figure1_taxonomy", &[], &[]);
    println!("Figure 1: concurrency safety of the container catalog");
    println!("(cells: yes = safe + linearizable, weak = safe but weakly");
    println!(" consistent, no = unsafe without external synchronization)\n");
    let rows: Vec<_> = ContainerKind::FIGURE1.iter().map(|k| k.props()).collect();
    println!("{}", render_figure1(&rows));
    println!("Extended catalog (beyond the paper's five):\n");
    let extra: Vec<_> = [ContainerKind::SplayTreeMap, ContainerKind::Singleton]
        .iter()
        .map(|k| k.props())
        .collect();
    println!("{}", render_figure1(&extra));
}
