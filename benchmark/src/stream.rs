//! Seeded op streams. A stream is a fixed-length list of raw
//! `(kind, k1, k2, w)` records generated before the clock starts; clients
//! cycle through it. Argument tuples are built from the records on the
//! clock, because every caller of the library pays for them.

/// Records per client. Long enough that a client does not wrap more than
/// a few dozen times in a run; every workload's key choice keeps the
/// relation's size stationary, so wrapping replays a statistically
/// identical stretch.
pub const STREAM_LEN: usize = 1 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: u8,
    pub k1: u32,
    pub k2: u32,
    pub w: u32,
}

/// splitmix64: small, seedable, and good enough for key choice.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Independent generator for `(seed, lane)`; lanes are clients and
    /// preload phases.
    pub fn for_lane(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-32 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % n as u64) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over `0..n` by inverse-CDF lookup; rank 0 is the hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c <= u) as u32).min(self.cdf.len() as u32 - 1)
    }
}

/// FNV-1a over the records' fields in little-endian order: the stream's
/// identity, printed so that "same seed, same inputs" can be checked from
/// outside.
pub fn stream_hash(streams: &[Vec<Op>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in streams {
        for op in s {
            eat(&[op.kind]);
            eat(&op.k1.to_le_bytes());
            eat(&op.k2.to_le_bytes());
            eat(&op.w.to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = Rng::for_lane(7, 0);
        let mut hits = [0u32; 1000];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99] && hits[99] > 0);
    }

    #[test]
    fn lanes_and_seeds_differ() {
        let a = Rng::for_lane(1, 0).next_u64();
        assert_ne!(a, Rng::for_lane(1, 1).next_u64());
        assert_ne!(a, Rng::for_lane(2, 0).next_u64());
        assert_eq!(a, Rng::for_lane(1, 0).next_u64());
    }
}
