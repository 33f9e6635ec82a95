//! Log-bucketed latency histogram: 128 buckets per power of two, so a
//! value is off from its bucket's midpoint by at most 1/256 (≈0.4%) — the
//! benchmark's "≤1% relative error" budget with room to spare. Values are
//! nanoseconds; anything at or above 2^40 ns (~18 min) lands in the last
//! bucket.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const MAX_EXP: u32 = 39;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 2) as usize) << SUB_BITS;

/// A mergeable histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = (63 - v.leading_zeros()).min(MAX_EXP);
    let v = v.min((1 << (MAX_EXP + 1)) - 1);
    let mantissa = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((((e - SUB_BITS + 1) as u64) << SUB_BITS) | mantissa) as usize
}

/// Midpoint of bucket `idx`.
fn value_of(idx: usize) -> f64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx as f64;
    }
    let shift = (idx >> SUB_BITS) - 1;
    let lower = (SUB | (idx & (SUB - 1))) << shift;
    lower as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// 1-based rank of quantile `q`: the smallest rank with at least a
    /// share `q` of the samples at or below it.
    fn rank(&self, q: f64) -> u64 {
        ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1))
    }

    /// The value at quantile `q` in `[0, 1]`, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = self.rank(q);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return Some(value_of(idx));
            }
        }
        unreachable!("rank is clamped to the sample count")
    }

    /// How many samples rank strictly above quantile `q`.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        self.total - self.rank(q).min(self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(49.0));
        assert_eq!(h.quantile(1.0), Some(99.0));
        assert_eq!(h.samples_beyond(0.9), 10);
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut last = 0usize;
        for e in 0..44u32 {
            for v in [1u64 << e, (1u64 << e) + (1u64 << e) / 3, (2u64 << e) - 1] {
                let b = bucket_of(v);
                assert!(b >= last, "bucket index decreases at {v}");
                assert!(b < BUCKETS, "bucket {b} out of range at {v}");
                last = b;
            }
        }
    }

    #[test]
    fn quantile_error_within_one_percent() {
        // A deterministic spread over six decades.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut vals: Vec<u64> = (0..200_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                100 + (x % 1_000) * (1 + (x >> 40) % 1_000)
            })
            .collect();
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * vals.len() as f64).ceil() as usize).max(1);
            let exact = vals[rank - 1] as f64;
            let got = h.quantile(q).unwrap();
            assert!(
                ((got - exact) / exact).abs() <= 0.01,
                "q={q}: {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..50_000u64 {
            let v = v * v % 1_000_003;
            if v % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.len(), both.len());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }
}
