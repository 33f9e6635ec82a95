//! **Lock-sort elision ablation (§5.2)**: "The compiler uses a simple
//! static analysis to detect lock statements where it can avoid sorting."
//!
//! Compares full-iteration *locked* query throughput (a query inside a
//! `transaction`, which takes the plan's locks) on a TreeMap stick under
//! fine locking with the planner's sort-elision analysis honored vs.
//! runtime sorts forced on every lock statement. A plain `rel.query` is a
//! lock-free snapshot read, which takes no lock and so sorts none.
//!
//! ```text
//! cargo run -p relc-bench --release --bin ablation_sorting [-- --edges N --iters M]
//! ```

use std::sync::Arc;
use std::time::Instant;

use relc::decomp::library::stick;
use relc::placement::LockPlacement;
use relc::ConcurrentRelation;
use relc_bench::Args;
use relc_containers::ContainerKind;
use relc_spec::{Tuple, Value};

fn main() {
    let args = Args::from_env(
        "ablation_sorting [--edges N] [--iters M]",
        &[],
        &["--edges", "--iters"],
    );
    let edges: i64 = args.value("--edges", 2_000);
    let iters: usize = args.value("--iters", 200);

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
