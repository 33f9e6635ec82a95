//! The online cost model: per-candidate feature vectors measured by short
//! calibration runs, consulted at runtime to rank candidate
//! representations for an *observed* workload without re-measuring.
//!
//! The §6.1 autotuner was offline: enumerate, measure every candidate,
//! pick the best. This module keeps the measurement (now at the
//! transaction layer, via [`crate::calibrate::calibrate_run`]) but makes
//! the result a model the calibrating process reuses:
//! [`CostModel::calibrate`] builds a per-(candidate, mix)
//! [`FeatureVector`] table, and [`CostModel::advise`] matches live
//! [`ObservedSignals`] against the calibrated mixes and returns
//! [`RankedCandidates`] when one of them describes the observed traffic.
//! The closed loop — observe, advise,
//! [`relc::ConcurrentRelation::migrate_to`], re-measure — lives in the
//! `autotune` bench binary.

use relc::StatsSnapshot;

use crate::calibrate::{calibrate_run, CalibrationConfig, MixProfile, TxnMix};
use crate::candidates::Candidate;

/// Maximum profile distance at which the model considers a calibrated mix
/// to describe the observed traffic (beyond it, [`CostModel::advise`]
/// declines rather than extrapolate).
pub const COVERAGE_THRESHOLD: f64 = 0.35;

/// The measured features of one (candidate, mix) calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    /// The mix label ([`TxnMix::label`]).
    pub mix: String,
    /// Completed top-level operations per second.
    pub ops_per_sec: f64,
    /// Median per-operation latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-operation latency, microseconds.
    pub p99_us: f64,
}

/// Live workload signals derived from a [`StatsSnapshot`] delta — what the
/// closed loop observes about traffic it did not generate itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedSignals {
    /// Point/range/contains reads plus read-only transactions.
    pub reads: u64,
    /// Single-shot inserts, removes and updates.
    pub writes: u64,
    /// Multi-operation read-write transactions.
    pub txns: u64,
    /// Restarts per commit over the window.
    pub restart_rate: f64,
    /// Contended acquisitions per acquisition over the window.
    pub contention: f64,
    /// Snapshot reads per operation over the window.
    pub snapshot_read_rate: f64,
}

impl ObservedSignals {
    /// Derives the signals from two [`StatsSnapshot`]s bracketing an
    /// observation window on the same relation.
    pub fn from_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> Self {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let reads = d(after.ops.queries, before.ops.queries)
            + d(after.ops.range_queries, before.ops.range_queries)
            + d(after.ops.contains_checks, before.ops.contains_checks)
            + d(after.ops.read_transactions, before.ops.read_transactions);
        let writes = d(after.ops.inserts, before.ops.inserts)
            + d(after.ops.removes, before.ops.removes)
            + d(after.ops.updates, before.ops.updates);
        let txns = d(after.ops.transactions, before.ops.transactions);
        let ops = (reads + writes + txns).max(1) as f64;
        ObservedSignals {
            reads,
            writes,
            txns,
            restart_rate: d(after.locks.restarts, before.locks.restarts) as f64
                / d(after.locks.commits, before.locks.commits).max(1) as f64,
            contention: d(after.locks.contended, before.locks.contended) as f64
                / d(after.locks.acquisitions, before.locks.acquisitions).max(1) as f64,
            snapshot_read_rate: d(after.locks.snapshot_reads, before.locks.snapshot_reads) as f64
                / ops,
        }
    }

    /// The observed operation-fraction profile, comparable to
    /// [`TxnMix::profile`].
    pub fn profile(&self) -> MixProfile {
        let total = (self.reads + self.writes + self.txns) as f64;
        if total == 0.0 {
            return MixProfile::new(0.0, 0.0, 0.0);
        }
        MixProfile::new(
            self.reads as f64 / total,
            self.writes as f64 / total,
            self.txns as f64 / total,
        )
    }
}

/// One candidate's calibrated features across the measured mixes.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// The candidate representation.
    pub candidate: Candidate,
    /// One feature vector per mix the candidate could run.
    pub features: Vec<FeatureVector>,
}

/// A candidate ranked by predicted throughput for a matched mix.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    /// The candidate representation.
    pub candidate: Candidate,
    /// Its calibrated features under the matched mix.
    pub features: FeatureVector,
}

/// The advice [`CostModel::advise`] returns when a calibrated mix
/// describes the observed traffic: candidates ranked fastest-first under
/// the calibrated mix nearest to the observation.
#[derive(Debug, Clone)]
pub struct RankedCandidates {
    /// Label of the calibrated mix matched to the observation.
    pub matched_mix: String,
    /// Profile distance between the observation and the matched mix.
    pub distance: f64,
    /// Candidates with features for the matched mix, fastest first.
    pub ranked: Vec<RankedCandidate>,
}

impl RankedCandidates {
    /// The predicted-fastest candidate.
    pub fn best(&self) -> &RankedCandidate {
        &self.ranked[0]
    }
}

/// The cost model: calibrated mixes and per-candidate features.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// The calibrated mixes (label, nominal profile).
    pub mixes: Vec<(String, MixProfile)>,
    /// Per-candidate feature tables.
    pub entries: Vec<ModelEntry>,
}

impl CostModel {
    /// Calibrates `candidates` under `mixes`: builds each candidate,
    /// skips (candidate, mix) pairs the candidate's planner cannot
    /// execute ([`TxnMix::supported_by`] — e.g. scans over speculative
    /// edges), and measures the rest with [`calibrate_run`]. Candidates
    /// that fail to build, or support no mix at all, are dropped.
    pub fn calibrate(candidates: &[Candidate], mixes: &[TxnMix], cfg: &CalibrationConfig) -> Self {
        let mut model = CostModel {
            mixes: mixes.iter().map(|m| (m.label(), m.profile())).collect(),
            entries: Vec::new(),
        };
        for cand in candidates {
            let Ok(rel) = cand.build() else { continue };
            let mut features = Vec::new();
            for &mix in mixes {
                if !mix.supported_by(&rel) {
                    continue;
                }
                features.push(calibrate_run(&rel, mix, cfg));
            }
            if !features.is_empty() {
                model.entries.push(ModelEntry {
                    candidate: cand.clone(),
                    features,
                });
            }
        }
        model
    }

    /// The calibrated mix nearest to `signals`, with its profile distance.
    fn nearest_mix(&self, signals: &ObservedSignals) -> Option<(&str, f64)> {
        let p = signals.profile();
        self.mixes
            .iter()
            .map(|(label, profile)| (label.as_str(), profile.distance(&p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Ranks the calibrated candidates for the observed traffic, fastest
    /// first, without re-measuring. Returns `None` when no calibrated mix
    /// lies within [`COVERAGE_THRESHOLD`] of the observation (the caller
    /// should calibrate for the observed mix).
    pub fn advise(&self, signals: &ObservedSignals) -> Option<RankedCandidates> {
        let (label, distance) = self.nearest_mix(signals)?;
        if distance > COVERAGE_THRESHOLD {
            return None;
        }
        let mut ranked: Vec<RankedCandidate> = self
            .entries
            .iter()
            .filter_map(|e| {
                e.features
                    .iter()
                    .find(|f| f.mix == label)
                    .map(|f| RankedCandidate {
                        candidate: e.candidate.clone(),
                        features: f.clone(),
                    })
            })
            .collect();
        if ranked.is_empty() {
            return None;
        }
        let label = label.to_owned();
        ranked.sort_by(|a, b| b.features.ops_per_sec.total_cmp(&a.features.ops_per_sec));
        Some(RankedCandidates {
            matched_mix: label,
            distance,
            ranked,
        })
    }
}

#[cfg(test)]
mod tests {
    use relc_containers::ContainerKind;

    use super::*;
    use crate::calibrate::OpMix;
    use crate::candidates::{PlacementKind, Structure};

    fn small_candidates() -> Vec<Candidate> {
        vec![
            Candidate {
                structure: Structure::Stick,
                top: ContainerKind::ConcurrentHashMap,
                second: ContainerKind::TreeMap,
                top2: None,
                second2: None,
                placement: PlacementKind::Striped(8),
            },
            Candidate {
                structure: Structure::Stick,
                top: ContainerKind::HashMap,
                second: ContainerKind::TreeMap,
                top2: None,
                second2: None,
                placement: PlacementKind::Coarse,
            },
        ]
    }

    fn quick_cfg() -> CalibrationConfig {
        CalibrationConfig {
            threads: 2,
            ops_per_thread: 300,
            key_range: 32,
            ..Default::default()
        }
    }

    fn fake_feature(mix: &str, ops: f64) -> FeatureVector {
        FeatureVector {
            mix: mix.to_owned(),
            ops_per_sec: ops,
            p50_us: 1.5,
            p99_us: 12.25,
        }
    }

    fn fake_model() -> CostModel {
        let cands = small_candidates();
        CostModel {
            mixes: vec![
                ("read_heavy".to_owned(), TxnMix::ReadHeavy.profile()),
                ("txn_transfer".to_owned(), TxnMix::TxnTransfer.profile()),
            ],
            entries: vec![
                ModelEntry {
                    candidate: cands[0].clone(),
                    features: vec![
                        fake_feature("read_heavy", 900_000.0),
                        fake_feature("txn_transfer", 200_000.0),
                    ],
                },
                ModelEntry {
                    candidate: cands[1].clone(),
                    features: vec![fake_feature("read_heavy", 400_000.0)],
                },
            ],
        }
    }

    #[test]
    fn calibration_measures_every_supported_pair() {
        let model = CostModel::calibrate(
            &small_candidates(),
            &[TxnMix::ReadHeavy, TxnMix::TxnTransfer],
            &quick_cfg(),
        );
        assert_eq!(model.entries.len(), 2);
        for e in &model.entries {
            assert_eq!(e.features.len(), 2, "{}", e.candidate.name());
            for f in &e.features {
                assert!(f.ops_per_sec > 0.0, "{}: {f:?}", e.candidate.name());
                assert!(f.p99_us >= f.p50_us, "{}: {f:?}", e.candidate.name());
            }
        }
    }

    #[test]
    fn graph_mix_routes_through_calibration() {
        let model = CostModel::calibrate(
            &small_candidates()[..1],
            &[TxnMix::Graph(OpMix::new(70, 0, 20, 10))],
            &quick_cfg(),
        );
        assert_eq!(model.entries.len(), 1);
        assert_eq!(model.entries[0].features[0].mix, "graph/70-0-20-10");
    }

    #[test]
    fn advise_ranks_covered_mix_without_remeasuring() {
        let model = fake_model();
        // Read-dominant observation: matches read_heavy, ranks the striped
        // concurrent candidate first.
        let obs = ObservedSignals {
            reads: 950,
            writes: 50,
            txns: 0,
            restart_rate: 0.0,
            contention: 0.1,
            snapshot_read_rate: 0.9,
        };
        let advice = model.advise(&obs).unwrap();
        assert_eq!(advice.matched_mix, "read_heavy");
        assert!(advice.distance <= COVERAGE_THRESHOLD);
        assert_eq!(advice.ranked.len(), 2);
        assert!(advice.best().features.ops_per_sec >= advice.ranked[1].features.ops_per_sec);
        assert_eq!(advice.best().candidate.name(), small_candidates()[0].name());
        // Transfer-heavy observation: only the first entry is calibrated
        // for txn_transfer.
        let txn_obs = ObservedSignals {
            reads: 0,
            writes: 0,
            txns: 100,
            restart_rate: 0.2,
            contention: 0.3,
            snapshot_read_rate: 0.0,
        };
        let advice = model.advise(&txn_obs).unwrap();
        assert_eq!(advice.matched_mix, "txn_transfer");
        assert_eq!(advice.ranked.len(), 1);
    }

    #[test]
    fn advise_declines_uncovered_mix() {
        let model = fake_model();
        // Write-only traffic is nowhere near read_heavy or txn_transfer.
        let obs = ObservedSignals {
            reads: 0,
            writes: 1_000,
            txns: 0,
            restart_rate: 0.0,
            contention: 0.0,
            snapshot_read_rate: 0.0,
        };
        assert!(model.advise(&obs).is_none());
    }

    #[test]
    fn observed_signals_profile_matches_counters() {
        let obs = ObservedSignals {
            reads: 30,
            writes: 50,
            txns: 20,
            restart_rate: 0.0,
            contention: 0.0,
            snapshot_read_rate: 0.0,
        };
        let p = obs.profile();
        assert!((p.read_fraction - 0.3).abs() < 1e-9);
        assert!((p.write_fraction - 0.5).abs() < 1e-9);
        assert!((p.txn_fraction - 0.2).abs() < 1e-9);
        // Identical to the MixedRmw nominal profile.
        assert!(p.distance(&TxnMix::MixedRmw.profile()) < 1e-9);
    }
}
