//! Randomized exponential backoff for transaction restarts.
//!
//! When a transaction must restart (an out-of-order `try_lock` failed, or a
//! shared→exclusive upgrade met another reader), immediately retrying
//! against the same contended locks livelocks. [`Backoff`] spins briefly,
//! then yields, then sleeps with deterministic-per-thread jitter.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;
const MAX_SLEEP_US: u64 = 1_000;

/// Per-transaction restart backoff state.
#[derive(Debug)]
pub struct Backoff {
    step: u32,
}

fn jitter(bound: u64) -> u64 {
    // xorshift64 seeded per thread; avoids a rand dependency in the hot path.
    static SEED: AtomicU64 = AtomicU64::new(0x853c_49e6_748f_ea9b);
    thread_local! {
        static STATE: Cell<u64> =
            Cell::new(SEED.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed) | 1);
    }
    STATE.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        if bound == 0 {
            0
        } else {
            x % bound
        }
    })
}

impl Backoff {
    /// Creates a fresh backoff (first waits are spins).
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Waits an amount appropriate for the current step, then escalates.
    pub fn wait(&mut self) {
        if self.step < SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            let exp = (self.step - YIELD_LIMIT).min(10);
            let bound = (1u64 << exp).min(MAX_SLEEP_US);
            std::thread::sleep(Duration::from_micros(1 + jitter(bound)));
        }
        self.step = self.step.saturating_add(1);
    }

    /// Number of waits performed so far.
    pub fn retries(&self) -> u32 {
        self.step
    }

    /// Resets to the initial (spinning) state.
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_and_resets() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.wait();
        }
        assert_eq!(b.retries(), 20);
        b.reset();
        assert_eq!(b.retries(), 0);
    }

    #[test]
    fn jitter_is_bounded() {
        for bound in [1u64, 2, 100] {
            for _ in 0..100 {
                assert!(jitter(bound) < bound);
            }
        }
        assert_eq!(jitter(0), 0);
    }

    #[test]
    fn long_backoff_terminates_quickly_enough() {
        let start = std::time::Instant::now();
        let mut b = Backoff::new();
        for _ in 0..30 {
            b.wait();
        }
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
