//! The paper-evaluation tables that are not Figure 5, one per subcommand:
//!
//! * `taxonomy` — **Figure 1**: the concurrency-safety and consistency
//!   properties of the container catalog;
//! * `sorting` — the **lock-sort elision ablation (§5.2)**: "The compiler
//!   uses a simple static analysis to detect lock statements where it can
//!   avoid sorting";
//! * `striping` — the **stripe-factor ablation (§4.4)**: "By increasing the
//!   value k we can reduce lock contention to arbitrarily low levels, at the
//!   cost of making operations such as iteration that access the entire
//!   container more expensive";
//! * `zipf` — the **key-skew ablation** (our extension to the §6.2
//!   methodology): under a Zipf-skewed key distribution, most operations hit
//!   a handful of hot keys, so lock striping no longer spreads writers.
//!
//! ```text
//! cargo run -p relc-bench --release --bin figures -- taxonomy
//! cargo run -p relc-bench --release --bin figures -- sorting [--edges N] [--iters M]
//! cargo run -p relc-bench --release --bin figures -- striping [--ops N]
//! cargo run -p relc-bench --release --bin figures -- zipf [--ops N]
//! ```
//!
//! Each subcommand declares its own flags: an unknown one, or a value that
//! does not parse, prints the subcommand's usage and exits 2.

use std::sync::Arc;
use std::time::Instant;

use relc::decomp::library::{split, stick};
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, Decomposition};
use relc_autotune::calibrate::{run_workload, KeyDistribution, OpMix, WorkloadConfig};
use relc_autotune::{GraphOps, RelationGraph};
use relc_bench::report::ThroughputTable;
use relc_bench::{fail, Args};
use relc_containers::{render_figure1, ContainerKind};
use relc_spec::{Tuple, Value};

fn main() {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("taxonomy") => {
            Args::from_words("figures taxonomy", &[], &[], argv);
            taxonomy();
        }
        Some("sorting") => {
            let args = Args::from_words(
                "figures sorting [--edges N] [--iters M]",
                &[],
                &["--edges", "--iters"],
                argv,
            );
            sorting(args.value("--edges", 2_000), args.value("--iters", 200));
        }
        Some("striping") => {
            let args = Args::from_words("figures striping [--ops N]", &[], &["--ops"], argv);
            striping(args.value("--ops", 20_000));
        }
        Some("zipf") => {
            let args = Args::from_words("figures zipf [--ops N]", &[], &["--ops"], argv);
            zipf(args.value("--ops", 20_000));
        }
        other => fail(
            "figures <taxonomy | sorting | striping | zipf> [flags]",
            &match other {
                Some(word) => format!("unknown figure `{word}`"),
                None => "no figure named".to_owned(),
            },
        ),
    }
}

/// Figure 1, plus the catalog's containers beyond the paper's five.
fn taxonomy() {
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

/// Full-iteration *locked* query throughput (a query inside a
/// `transaction`, which takes the plan's locks) on a TreeMap stick under
/// fine locking, with the planner's sort-elision analysis honored vs.
/// runtime sorts forced on every lock statement. A plain `rel.query` is a
/// lock-free snapshot read, which takes no lock and so sorts none.
fn sorting(edges: i64, iters: usize) {
    // Sorted containers end-to-end: the planner marks every lock statement
    // presorted, so the elision has maximal effect.
    let d = stick(ContainerKind::TreeMap, ContainerKind::TreeMap);
    let p = LockPlacement::fine(&d).expect("valid");
    let rel = Arc::new(ConcurrentRelation::new(d.clone(), p).expect("valid"));
    let schema = d.schema();
    for i in 0..edges {
        let s = schema
            .tuple(&[("src", Value::from(i % 64)), ("dst", Value::from(i))])
            .expect("tuple");
        let t = schema.tuple(&[("weight", Value::from(i))]).expect("tuple");
        rel.insert(&s, &t).expect("insert");
    }

    let scan = || {
        rel.transaction(|tx| tx.query(&Tuple::empty(), schema.columns()))
            .expect("query")
    };
    let measure = |label: &str, force_sort: bool| {
        rel.set_always_sort_locks(force_sort);
        // Warm-up.
        let _ = scan();
        let before = rel.lock_stats().acquisitions;
        let start = Instant::now();
        for _ in 0..iters {
            assert_eq!(scan().len(), edges as usize);
        }
        let secs = start.elapsed().as_secs_f64();
        let acquisitions = rel.lock_stats().acquisitions - before;
        assert!(acquisitions > 0, "{label}: the scans took no lock");
        let per_iter_ms = secs * 1e3 / iters as f64;
        let per_scan = acquisitions / iters as u64;
        println!("{label:<28} {per_iter_ms:>9.3} ms / full scan, {per_scan} acquisitions / scan");
        secs
    };

    println!("Lock-sort elision ablation (§5.2): {edges} edges, {iters} full scans\n");
    let elided = measure("sort elided (planner)", false);
    let forced = measure("sort forced (ablation)", true);
    println!(
        "\nelision speedup: {:.2}x (sorted TreeMap chains let the compiler \
         skip runtime lock sorting)",
        forced / elided
    );
}

/// Threads for the §6.2 graph workload: the machine's parallelism.
fn all_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Throughput of the §6.2 graph workload `mix` over 256 keys drawn from
/// `distribution`, on the relation synthesized from `d` and `p`.
fn graph_ops_per_sec(
    d: Arc<Decomposition>,
    p: Arc<LockPlacement>,
    mix: OpMix,
    ops_per_thread: usize,
    distribution: KeyDistribution,
    seed: u64,
) -> f64 {
    let rel = Arc::new(ConcurrentRelation::new(d, p).expect("valid"));
    let g: Arc<dyn GraphOps> = Arc::new(RelationGraph::new(rel).expect("graph"));
    let cfg = WorkloadConfig {
        mix,
        threads: all_threads(),
        ops_per_thread,
        key_range: 256,
        distribution,
        seed,
    };
    run_workload(&g, &cfg).ops_per_sec
}

/// Sweeps k ∈ {1, 4, 64, 1024} on the split decomposition under a
/// write-heavy mix (contention reduction) and under a predecessor-heavy
/// mix on the *stick* (whose predecessor queries must take all k stripes —
/// the iteration cost).
fn striping(ops: usize) {
    let factors = [1u32, 4, 64, 1024];
    println!(
        "Stripe-factor ablation (§4.4); {} threads, {ops} ops/thread\n",
        all_threads()
    );

    // (a) Contention: write-heavy split — more stripes should help.
    let mut table = ThroughputTable::new(
        "split / 0-0-50-50 (contention: higher k should win)",
        factors.iter().map(|&k| k as usize).collect(),
    );
    let mut row = Vec::new();
    for &k in &factors {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::striped_root(&d, k).expect("valid");
        let mix = OpMix::new(0, 0, 50, 50);
        row.push(graph_ops_per_sec(
            d,
            p,
            mix,
            ops,
            KeyDistribution::Uniform,
            1,
        ));
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
        let mix = OpMix::new(35, 35, 20, 10);
        // Predecessor scans are slow on sticks.
        row.push(graph_ops_per_sec(
            d,
            p,
            mix,
            ops / 4,
            KeyDistribution::Uniform,
            1,
        ));
    }
    table.push_row("striped stick", row);
    println!("{}", table.render());
}

/// Coarse vs. 1024-striped split decompositions under a write-only mix,
/// with uniform and Zipf-skewed keys.
fn zipf(ops: usize) {
    let skews: [(&str, KeyDistribution); 3] = [
        ("uniform", KeyDistribution::Uniform),
        ("zipf(0.8)", KeyDistribution::Zipf(0.8)),
        ("zipf(1.4)", KeyDistribution::Zipf(1.4)),
    ];

    println!(
        "Key-skew ablation; split decomposition, 0-0-50-50, {} threads\n",
        all_threads()
    );
    let mut table = ThroughputTable::new(
        "throughput by placement × skew (kops/sec; columns = skew index)",
        (0..skews.len()).collect(),
    );
    for (pname, striped) in [("coarse", false), ("striped(1024)", true)] {
        let mut row = Vec::new();
        for (_, dist) in skews {
            let (d, p) = if striped {
                let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
                let p = LockPlacement::striped_root(&d, 1024).expect("valid");
                (d, p)
            } else {
                let d = split(ContainerKind::HashMap, ContainerKind::TreeMap);
                let p = LockPlacement::coarse(&d).expect("valid");
                (d, p)
            };
            row.push(graph_ops_per_sec(
                d,
                p,
                OpMix::new(0, 0, 50, 50),
                ops,
                dist,
                9,
            ));
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
