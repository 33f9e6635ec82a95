//! # relc-benchmark — the repo's layered benchmark
//!
//! Four workloads, each driven through the library's public functions by a
//! closed loop of two client threads over a seeded op stream; end-to-end
//! metrics from an untraced run (medians over ten slices); per-layer
//! metrics from a shorter traced run of the same stream, single-threaded
//! layer probes and a feature ladder. `README.md` beside this crate is the
//! glossary; `../BENCHMARK.json` is the contract.

pub mod hist;
pub mod probes;
pub mod report;
pub mod runner;
pub mod session;
pub mod stream;
pub mod trace;
pub mod workload;
pub mod workloads;

use std::path::PathBuf;

/// `benchmark/out/`: write-ahead logs and trace files. It sits on the same
/// volume as the repository, never on tmpfs, so that `fsync` is the
/// volume's.
pub fn out_dir() -> PathBuf {
    // `cargo run` names the crate's directory at run time; a binary started
    // by hand falls back to where it was built.
    let crate_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    let dir = crate_dir.join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}
