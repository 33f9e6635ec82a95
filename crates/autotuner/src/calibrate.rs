//! The calibration runner: short, instrumented measurement runs that feed
//! the [`crate::cost`] model.
//!
//! Two workload families live here:
//!
//! * the **transaction-layer mixes** ([`TxnMix`]) — read, update,
//!   read-modify-write and transfer shapes, run via [`calibrate_run`] with
//!   per-op latency capture, producing the [`crate::cost::FeatureVector`]
//!   per (candidate, mix);
//! * the legacy **§6.2 graph workload** ([`run_workload`]) — `k` identical
//!   threads performing random graph operations drawn from an `x-y-z-w`
//!   distribution ("x% successors, y% predecessors, z% inserts, w%
//!   removes"), folded in here from the former `workload` module; the
//!   Figure 5 reproductions and the striping/Zipf ablations still drive
//!   it, and [`TxnMix::Graph`] routes it through calibration so the cost
//!   model can cover §6.2-shaped traffic too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use relc::ConcurrentRelation;
use relc_spec::{RelationSchema, Tuple, Value};

use crate::cost::FeatureVector;
use crate::graph::GraphOps;

/// An operation-mix distribution `x-y-z-w` (percentages must sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// % find-successors.
    pub successors: u32,
    /// % find-predecessors.
    pub predecessors: u32,
    /// % insert-edge.
    pub inserts: u32,
    /// % remove-edge.
    pub removes: u32,
}

impl OpMix {
    /// Creates a mix, checking it sums to 100.
    ///
    /// # Panics
    ///
    /// Panics if the percentages do not sum to 100.
    pub const fn new(successors: u32, predecessors: u32, inserts: u32, removes: u32) -> Self {
        assert!(
            successors + predecessors + inserts + removes == 100,
            "op mix must sum to 100"
        );
        OpMix {
            successors,
            predecessors,
            inserts,
            removes,
        }
    }

    /// The paper's label, e.g. `70-0-20-10`.
    pub fn label(&self) -> String {
        format!(
            "{}-{}-{}-{}",
            self.successors, self.predecessors, self.inserts, self.removes
        )
    }

    /// Whether the mix ever queries predecessors (plans over the dst
    /// branch).
    pub fn uses_predecessors(&self) -> bool {
        self.predecessors > 0
    }
}

/// The four workload mixes of Figure 5.
pub const FIGURE5_MIXES: [OpMix; 4] = [
    OpMix::new(70, 0, 20, 10),
    OpMix::new(35, 35, 20, 10),
    OpMix::new(0, 0, 50, 50),
    OpMix::new(45, 45, 9, 1),
];

/// How `src`/`dst` values are drawn from `0..key_range`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Uniform (the paper's §6.2 methodology).
    Uniform,
    /// Zipf-like skew with exponent `s` (our extension): hot keys
    /// concentrate lock and container contention, stressing striping and
    /// speculation. Sampled by inverse-CDF over precomputed weights.
    Zipf(f64),
}

/// A sampler for [`KeyDistribution`] (per-thread, cheap).
#[derive(Debug, Clone)]
struct KeySampler {
    /// Cumulative weights for Zipf; empty for uniform.
    cdf: Vec<f64>,
    range: i64,
}

impl KeySampler {
    fn new(dist: KeyDistribution, range: i64) -> Self {
        match dist {
            KeyDistribution::Uniform => KeySampler {
                cdf: Vec::new(),
                range,
            },
            KeyDistribution::Zipf(s) => {
                let mut cdf = Vec::with_capacity(range as usize);
                let mut acc = 0.0;
                for k in 1..=range {
                    acc += 1.0 / (k as f64).powf(s);
                    cdf.push(acc);
                }
                let total = acc;
                for w in &mut cdf {
                    *w /= total;
                }
                KeySampler { cdf, range }
            }
        }
    }

    fn sample(&self, rng: &mut StdRng) -> i64 {
        if self.cdf.is_empty() {
            rng.random_range(0..self.range)
        } else {
            let u: f64 = rng.random_range(0.0..1.0);
            match self.cdf.binary_search_by(|w| w.total_cmp(&u)) {
                Ok(i) | Err(i) => (i as i64).min(self.range - 1),
            }
        }
    }
}

/// Configuration of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// The operation mix.
    pub mix: OpMix,
    /// Number of worker threads (`k` in §6.2).
    pub threads: usize,
    /// Operations per thread (paper: 5 × 10⁵).
    pub ops_per_thread: usize,
    /// `src`/`dst` values are drawn from `0..key_range`.
    pub key_range: i64,
    /// Key skew (uniform in the paper; Zipf as a contention ablation).
    pub distribution: KeyDistribution,
    /// RNG seed (deterministic workloads per seed).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            mix: FIGURE5_MIXES[0],
            threads: 4,
            ops_per_thread: 10_000,
            key_range: 256,
            distribution: KeyDistribution::Uniform,
            seed: 0x0e1c_5eed,
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadResult {
    /// Aggregate throughput over all threads, operations per second.
    pub ops_per_sec: f64,
    /// Wall-clock seconds for the run.
    pub elapsed_secs: f64,
    /// Total operations executed.
    pub total_ops: u64,
}

/// Runs the §6.2 workload against `graph`: starts `threads` workers at a
/// barrier, each performing `ops_per_thread` operations drawn from the mix,
/// and reports aggregate throughput.
pub fn run_workload(graph: &Arc<dyn GraphOps>, cfg: &WorkloadConfig) -> WorkloadResult {
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    let done_ops = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(cfg.threads);
    for tid in 0..cfg.threads {
        let graph = Arc::clone(graph);
        let barrier = Arc::clone(&barrier);
        let done_ops = Arc::clone(&done_ops);
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (tid as u64).wrapping_mul(0x9e37));
            let sampler = KeySampler::new(cfg.distribution, cfg.key_range);
            barrier.wait();
            let mut local = 0u64;
            for _ in 0..cfg.ops_per_thread {
                let src = sampler.sample(&mut rng);
                let dst = sampler.sample(&mut rng);
                let dice = rng.random_range(0..100u32);
                let m = cfg.mix;
                if dice < m.successors {
                    let _ = graph.find_successors(src);
                } else if dice < m.successors + m.predecessors {
                    let _ = graph.find_predecessors(dst);
                } else if dice < m.successors + m.predecessors + m.inserts {
                    let weight = rng.random_range(0..1_000_000i64);
                    let _ = graph.insert_edge(src, dst, weight);
                } else {
                    let _ = graph.remove_edge(src, dst);
                }
                local += 1;
            }
            done_ops.fetch_add(local, Ordering::Relaxed);
        }));
    }
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().expect("workload thread panicked");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total = done_ops.load(Ordering::Relaxed);
    WorkloadResult {
        ops_per_sec: total as f64 / elapsed.max(1e-9),
        elapsed_secs: elapsed,
        total_ops: total,
    }
}

// ---------------------------------------------------------------------------
// Transaction-layer calibration (the cost model's measurement probes).
// ---------------------------------------------------------------------------

/// A transaction-layer calibration mix: the cost model measures each
/// candidate under these and matches observed traffic against their
/// profiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TxnMix {
    /// 95% lock-free snapshot point reads / 5% single-shot updates.
    ReadHeavy,
    /// 100% single-shot updates on random keys.
    UpdateHeavy,
    /// 50% updates, 30% point reads, 20% transfer transactions.
    MixedRmw,
    /// 100% four-op transfer transactions (query + query + update + update).
    TxnTransfer,
    /// The legacy §6.2 graph mix, folded into calibration: successors /
    /// predecessors / edge inserts / edge removes per [`OpMix`].
    Graph(OpMix),
}

impl TxnMix {
    /// The four transaction-layer mixes every calibration covers by
    /// default (graph mixes are opt-in per workload).
    pub const STANDARD: [TxnMix; 4] = [
        TxnMix::ReadHeavy,
        TxnMix::UpdateHeavy,
        TxnMix::MixedRmw,
        TxnMix::TxnTransfer,
    ];

    /// The mix's stable label — the cost model's feature key (`read_heavy`,
    /// `update_heavy`, `mixed_rmw`, `txn_transfer`, `graph/x-y-z-w`).
    pub fn label(self) -> String {
        match self {
            TxnMix::ReadHeavy => "read_heavy".to_owned(),
            TxnMix::UpdateHeavy => "update_heavy".to_owned(),
            TxnMix::MixedRmw => "mixed_rmw".to_owned(),
            TxnMix::TxnTransfer => "txn_transfer".to_owned(),
            TxnMix::Graph(m) => format!("graph/{}", m.label()),
        }
    }

    /// The nominal (read, write, transaction) operation fractions, the
    /// coordinates [`crate::cost::ObservedSignals`] are matched against.
    pub fn profile(self) -> MixProfile {
        match self {
            TxnMix::ReadHeavy => MixProfile::new(0.95, 0.05, 0.0),
            TxnMix::UpdateHeavy => MixProfile::new(0.0, 1.0, 0.0),
            TxnMix::MixedRmw => MixProfile::new(0.3, 0.5, 0.2),
            TxnMix::TxnTransfer => MixProfile::new(0.0, 0.0, 1.0),
            TxnMix::Graph(m) => MixProfile::new(
                (m.successors + m.predecessors) as f64 / 100.0,
                (m.inserts + m.removes) as f64 / 100.0,
                0.0,
            ),
        }
    }

    /// Whether `rel`'s planner can execute every operation this mix
    /// issues (infeasible candidates are skipped during calibration, as
    /// the §6.1 tuner skipped candidates with no valid plan).
    pub fn supported_by(self, rel: &ConcurrentRelation) -> bool {
        let schema = rel.schema().clone();
        let planner = rel.planner();
        let key = schema.column_set(&["src", "dst"]).expect("graph schema");
        let wc = schema.column_set(&["weight"]).expect("graph schema");
        let point = || planner.plan_query(key, wc).is_ok();
        let update = || planner.plan_update(key, wc).is_ok();
        match self {
            TxnMix::ReadHeavy | TxnMix::UpdateHeavy => point() && update(),
            TxnMix::MixedRmw | TxnMix::TxnTransfer => point() && update(),
            TxnMix::Graph(m) => {
                let src = schema.column_set(&["src"]).expect("graph schema");
                let dst = schema.column_set(&["dst"]).expect("graph schema");
                let dw = schema.column_set(&["dst", "weight"]).expect("graph schema");
                let sw = schema.column_set(&["src", "weight"]).expect("graph schema");
                (m.successors == 0 || planner.plan_query(src, dw).is_ok())
                    && (m.predecessors == 0 || planner.plan_query(dst, sw).is_ok())
                    && (m.inserts == 0 || planner.plan_insert(key).is_ok())
                    && (m.removes == 0 || planner.plan_remove(key).is_ok())
            }
        }
    }
}

/// Nominal operation fractions of a mix (reads, writes, multi-op
/// transactions; they sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixProfile {
    /// Fraction of point/snapshot reads.
    pub read_fraction: f64,
    /// Fraction of single-shot writes.
    pub write_fraction: f64,
    /// Fraction of multi-operation transactions.
    pub txn_fraction: f64,
}

impl MixProfile {
    /// Builds a profile (fractions are expected to sum to ~1).
    pub fn new(read_fraction: f64, write_fraction: f64, txn_fraction: f64) -> Self {
        MixProfile {
            read_fraction,
            write_fraction,
            txn_fraction,
        }
    }

    /// Euclidean distance to another profile — the coverage metric for
    /// [`crate::cost::CostModel::advise`].
    pub fn distance(&self, other: &MixProfile) -> f64 {
        let dr = self.read_fraction - other.read_fraction;
        let dw = self.write_fraction - other.write_fraction;
        let dt = self.txn_fraction - other.txn_fraction;
        (dr * dr + dw * dw + dt * dt).sqrt()
    }
}

/// Configuration of one calibration run (deliberately short: the model is
/// built from many small probes, not one long benchmark).
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Worker threads.
    pub threads: usize,
    /// Operations per thread per probe.
    pub ops_per_thread: usize,
    /// Keys are drawn from `0..key_range` (the diagonal is pre-populated
    /// so updates and transfers always hit).
    pub key_range: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            threads: 4,
            ops_per_thread: 2_000,
            key_range: 128,
            seed: 0xca11_b8a7e,
        }
    }
}

fn cal_key(schema: &RelationSchema, s: i64, d: i64) -> Tuple {
    schema
        .tuple(&[("src", Value::from(s)), ("dst", Value::from(d))])
        .unwrap()
}

fn cal_weight(schema: &RelationSchema, w: i64) -> Tuple {
    schema.tuple(&[("weight", Value::from(w))]).unwrap()
}

/// (p50, p99) in microseconds over raw nanosecond latencies.
fn percentiles_us(mut lats: Vec<u64>) -> (f64, f64) {
    if lats.is_empty() {
        return (0.0, 0.0);
    }
    lats.sort_unstable();
    let at = |q: f64| lats[((lats.len() - 1) as f64 * q) as usize] as f64 / 1e3;
    (at(0.50), at(0.99))
}

/// Pre-populates the diagonal keyspace the scenarios run over: account `k`
/// is the row `(k, k)` holding weight `k`, for every `k` in `0..keys`. A
/// row already present is left as it is.
pub fn populate(rel: &ConcurrentRelation, keys: i64) {
    let schema = rel.schema();
    for k in 0..keys {
        let _ = rel.insert(&cal_key(schema, k, k), &cal_weight(schema, k));
    }
}

/// One operation of the `read_heavy` scenario, the `i`-th its worker
/// issues: every 20th sets account `a`'s weight to `w`, the rest read it
/// from a snapshot.
pub fn read_heavy_op(rel: &ConcurrentRelation, i: usize, a: i64, w: i64) {
    if i.is_multiple_of(20) {
        update_heavy_op(rel, a, w);
    } else {
        point_read(rel, a);
    }
}

/// A snapshot read of account `a`'s weight.
fn point_read(rel: &ConcurrentRelation, a: i64) {
    let schema = rel.schema();
    let wcols = schema.column_set(&["weight"]).expect("graph schema");
    let _ = rel.query(&cal_key(schema, a, a), wcols).unwrap();
}

/// One operation of the `update_heavy` scenario: sets account `a`'s weight
/// to `w`.
pub fn update_heavy_op(rel: &ConcurrentRelation, a: i64, w: i64) {
    let schema = rel.schema();
    rel.update(&cal_key(schema, a, a), &cal_weight(schema, w))
        .unwrap();
}

/// One operation of the `txn_transfer` scenario: a transaction that reads
/// accounts `a` and `b` under their locks and moves one unit of weight
/// from `a` to `b` — two locked reads and two updates that preserve the
/// sum of all weights, which a run can check afterwards.
pub fn txn_transfer_op(rel: &ConcurrentRelation, a: i64, b: i64) {
    let schema = rel.schema();
    let wcols = schema.column_set(&["weight"]).expect("graph schema");
    let wcol = schema.column("weight").expect("graph schema");
    let balance = |rows: &[Tuple]| rows.first().and_then(|t| t.get(wcol)?.as_int());
    rel.transaction(|tx| {
        let wa = balance(&tx.query(&cal_key(schema, a, a), wcols)?);
        let wb = balance(&tx.query(&cal_key(schema, b, b), wcols)?);
        let (Some(wa), Some(wb)) = (wa, wb) else {
            return Ok(());
        };
        tx.update(&cal_key(schema, a, a), &cal_weight(schema, wa - 1))?;
        tx.update(&cal_key(schema, b, b), &cal_weight(schema, wb + 1))?;
        Ok(())
    })
    .unwrap();
}

/// Runs one calibration probe of `mix` against `rel`: pre-populates the
/// diagonal keyspace ([`populate`]), drives the mix from `cfg.threads`
/// workers with per-op latency capture — each scenario's operations are
/// the ones a live run of it issues ([`read_heavy_op`],
/// [`update_heavy_op`], [`txn_transfer_op`]) — and derives the mix's
/// [`FeatureVector`] from the run's throughput and latencies.
///
/// The caller is responsible for feasibility ([`TxnMix::supported_by`]);
/// an unsupported mix panics on the first unplannable operation.
pub fn calibrate_run(
    rel: &Arc<ConcurrentRelation>,
    mix: TxnMix,
    cfg: &CalibrationConfig,
) -> FeatureVector {
    populate(rel, cfg.key_range);
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    let latencies = Arc::new(std::sync::Mutex::new(Vec::<u64>::new()));
    let done = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..cfg.threads as u64)
        .map(|tid| {
            let rel = Arc::clone(rel);
            let barrier = Arc::clone(&barrier);
            let latencies = Arc::clone(&latencies);
            let done = Arc::clone(&done);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let graph =
                    crate::graph::RelationGraph::new(Arc::clone(&rel)).expect("graph schema");
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (tid + 1).wrapping_mul(0x9e37_79b9));
                barrier.wait();
                let mut lats = Vec::with_capacity(cfg.ops_per_thread);
                for i in 0..cfg.ops_per_thread {
                    let a = rng.random_range(0..cfg.key_range);
                    let mut b = rng.random_range(0..cfg.key_range);
                    if b == a {
                        b = (b + 1) % cfg.key_range;
                    }
                    let w = rng.random_range(0..1_000i64);
                    let t0 = Instant::now();
                    match mix {
                        TxnMix::ReadHeavy => read_heavy_op(&rel, i, a, w),
                        TxnMix::UpdateHeavy => update_heavy_op(&rel, a, w),
                        TxnMix::MixedRmw => match i % 10 {
                            0..=4 => update_heavy_op(&rel, a, w),
                            5..=7 => point_read(&rel, a),
                            _ => txn_transfer_op(&rel, a, b),
                        },
                        TxnMix::TxnTransfer => txn_transfer_op(&rel, a, b),
                        TxnMix::Graph(m) => {
                            let dice = rng.random_range(0..100u32);
                            if dice < m.successors {
                                let _ = graph.find_successors(a);
                            } else if dice < m.successors + m.predecessors {
                                let _ = graph.find_predecessors(b);
                            } else if dice < m.successors + m.predecessors + m.inserts {
                                let _ = graph.insert_edge(a, b, w);
                            } else {
                                let _ = graph.remove_edge(a, b);
                            }
                        }
                    }
                    lats.push(t0.elapsed().as_nanos() as u64);
                }
                done.fetch_add(lats.len() as u64, Ordering::Relaxed);
                latencies.lock().unwrap().extend(lats);
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().expect("calibration worker panicked");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total_ops = done.load(Ordering::Relaxed);
    let lats = std::mem::take(&mut *latencies.lock().unwrap());
    let (p50_us, p99_us) = percentiles_us(lats);
    FeatureVector {
        mix: mix.label(),
        ops_per_sec: total_ops as f64 / elapsed.max(1e-9),
        p50_us,
        p99_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RelationGraph;
    use relc::decomp::library::split;
    use relc::placement::LockPlacement;
    use relc::ConcurrentRelation;
    use relc_containers::ContainerKind;

    #[test]
    fn mixes_are_well_formed() {
        for m in FIGURE5_MIXES {
            assert_eq!(m.successors + m.predecessors + m.inserts + m.removes, 100);
            assert!(!m.label().is_empty());
        }
        assert_eq!(FIGURE5_MIXES[0].label(), "70-0-20-10");
        assert!(!FIGURE5_MIXES[0].uses_predecessors());
        assert!(FIGURE5_MIXES[1].uses_predecessors());
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_panics() {
        let _ = OpMix::new(50, 50, 50, 50);
    }

    #[test]
    fn workload_runs_and_counts_ops() {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::striped_root(&d, 16).unwrap();
        let rel = Arc::new(ConcurrentRelation::new(d, p).unwrap());
        let graph: Arc<dyn GraphOps> = Arc::new(RelationGraph::new(rel.clone()).unwrap());
        let cfg = WorkloadConfig {
            mix: FIGURE5_MIXES[1],
            threads: 4,
            ops_per_thread: 500,
            key_range: 32,
            distribution: KeyDistribution::Uniform,
            seed: 42,
        };
        let res = run_workload(&graph, &cfg);
        assert_eq!(res.total_ops, 2_000);
        assert!(res.ops_per_sec > 0.0);
        rel.verify().expect("structurally sound after workload");
    }

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let sampler = KeySampler::new(KeyDistribution::Zipf(1.2), 64);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            let k = sampler.sample(&mut rng);
            assert!((0..64).contains(&k));
            counts[k as usize] += 1;
        }
        // Key 0 is the hottest; the head dominates the tail.
        assert!(counts[0] > counts[1]);
        assert!(counts[0] > 10 * counts[32].max(1), "{counts:?}");
        let head: usize = counts[..8].iter().sum();
        assert!(
            head > 10_000,
            "head of the Zipf must carry most mass: {head}"
        );
        // Uniform sampler spreads instead.
        let uniform = KeySampler::new(KeyDistribution::Uniform, 64);
        let mut u_counts = [0usize; 64];
        for _ in 0..20_000 {
            u_counts[uniform.sample(&mut rng) as usize] += 1;
        }
        assert!(u_counts.iter().all(|&c| c > 100), "{u_counts:?}");
    }

    #[test]
    fn zipf_workload_runs_against_relation() {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::striped_root(&d, 16).unwrap();
        let rel = Arc::new(ConcurrentRelation::new(d, p).unwrap());
        let graph: Arc<dyn GraphOps> = Arc::new(RelationGraph::new(rel.clone()).unwrap());
        let cfg = WorkloadConfig {
            mix: FIGURE5_MIXES[1],
            threads: 4,
            ops_per_thread: 400,
            key_range: 32,
            distribution: KeyDistribution::Zipf(1.0),
            seed: 5,
        };
        let res = run_workload(&graph, &cfg);
        assert_eq!(res.total_ops, 1_600);
        rel.verify().expect("sound after skewed contention");
    }

    #[test]
    fn workload_is_deterministic_per_seed_single_thread() {
        // Same seed, single thread → identical final relation contents.
        let build = || {
            let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
            let p = LockPlacement::fine(&d).unwrap();
            Arc::new(ConcurrentRelation::new(d, p).unwrap())
        };
        let cfg = WorkloadConfig {
            mix: FIGURE5_MIXES[2],
            threads: 1,
            ops_per_thread: 400,
            key_range: 16,
            distribution: KeyDistribution::Uniform,
            seed: 7,
        };
        let r1 = build();
        let g1: Arc<dyn GraphOps> = Arc::new(RelationGraph::new(r1.clone()).unwrap());
        run_workload(&g1, &cfg);
        let r2 = build();
        let g2: Arc<dyn GraphOps> = Arc::new(RelationGraph::new(r2.clone()).unwrap());
        run_workload(&g2, &cfg);
        assert_eq!(r1.snapshot().unwrap(), r2.snapshot().unwrap());
    }
}
