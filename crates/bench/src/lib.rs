//! # relc-bench — the evaluation harness (§6)
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Artifact | Binary | Notes |
//! |---|---|---|
//! | Figure 1 (container taxonomy) | `figure1_taxonomy` | property table from `relc-containers` |
//! | Figure 5 (4 throughput/scalability graphs) | `figure5` | 13 series + speculative bonus; `--full` for paper-scale op counts |
//! | §6.1 autotuner | `autotune` | enumerates the candidate space and ranks it per mix |
//! | Stripe-factor ablation (§4.4) | `ablation_striping` | k ∈ {1, 4, 64, 1024} |
//! | Lock-sort elision ablation (§5.2) | `ablation_sorting` | planner analysis on vs forced runtime sorts |
//! | Key-skew ablation (extension) | `ablation_zipf` | Zipf-skewed keys across placements |
//! | §4.3/§5.1 lock-discipline report | `relc-analyze` | static analyzer over every standard decomposition × placement; exits non-zero on a diagnostic |
//!
//! The repository's performance benchmark is the separate `benchmark/`
//! workspace, not this crate.
//!
//! The library half hosts the [`handcoded`] baseline, the Figure 5
//! [`figures`] configuration table, and plain-text [`report`] formatting.

#![warn(missing_docs)]

pub mod figures;
pub mod handcoded;
pub mod report;

/// Parses a `--flag value`-style option from `args`, with a default.
pub fn arg_value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether a bare `--flag` is present.
pub fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--ops", "123", "--full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--ops", 5usize), 123);
        assert_eq!(arg_value(&args, "--threads", 7usize), 7);
        assert!(arg_present(&args, "--full"));
        assert!(!arg_present(&args, "--quick"));
    }
}
