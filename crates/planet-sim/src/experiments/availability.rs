//! Figure 8: availability under a site failure. Three sites (TW, FI, SC)
//! tolerating one failure; the TW site — which also hosts the Paxos leader —
//! is halted 30 s into the run; failures are suspected after 10 s. The figure
//! reports the throughput over time at each site and in aggregate, for Paxos
//! and Atlas (§5.6).

use crate::region::Region;
use crate::runner::{run, ProtocolKind};
use crate::sim::SimConfig;
use crate::workload::WorkloadSpec;
use atlas_core::protocol::Time;
use atlas_core::Config;
use serde::{Deserialize, Serialize};

/// Parameters of the availability experiment.
#[derive(Debug, Clone)]
pub struct Params {
    /// Clients per site (the paper uses 128).
    pub clients_per_site: usize,
    /// Time at which the TW site is halted, µs (the paper uses 30 s).
    pub crash_at: Time,
    /// Failure-detection timeout, µs (the paper uses 10 s).
    pub detection_timeout: Time,
    /// Total simulated duration, µs (the paper shows 70 s).
    pub duration: Time,
    /// Conflict rate: half the clients target the shared key 0, the rest use
    /// per-client keys, which a 50% conflict rate approximates.
    pub conflict_rate: f64,
    /// Window used for the throughput series, µs.
    pub window: Time,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// The paper's parameters.
    pub fn paper() -> Self {
        Self {
            clients_per_site: 128,
            crash_at: 30_000_000,
            detection_timeout: 10_000_000,
            duration: 70_000_000,
            conflict_rate: 0.5,
            window: 1_000_000,
            seed: 9,
        }
    }

    /// Scaled-down parameters.
    pub fn quick() -> Self {
        Self {
            clients_per_site: 16,
            crash_at: 10_000_000,
            detection_timeout: 4_000_000,
            duration: 30_000_000,
            window: 1_000_000,
            ..Self::paper()
        }
    }
}

/// Result for one protocol: throughput over time, per site and aggregate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesSet {
    /// Protocol label ("Paxos" or "Atlas").
    pub protocol: String,
    /// Per-site series, keyed by the site's short region name (TW, FI, SC);
    /// each series is a list of (time s, ops/s) samples.
    pub per_site: Vec<(String, Vec<(f64, f64)>)>,
    /// Aggregate series over all sites.
    pub aggregate: Vec<(f64, f64)>,
    /// Total operations completed during the run.
    pub total_ops: usize,
    /// Operations completed after the crash was detected (availability
    /// indicator).
    pub ops_after_recovery: usize,
}

/// Runs the experiment for Atlas and Paxos (FPaxos with majority quorums in
/// a 3-site deployment, leader at TW).
pub fn run_experiment(params: &Params) -> Vec<SeriesSet> {
    let sites = Region::availability3();
    let mut results = Vec::new();
    for (kind, label) in [
        (ProtocolKind::FPaxos, "Paxos"),
        (ProtocolKind::Atlas, "Atlas"),
    ] {
        let mut cfg = SimConfig::new(
            Config::new(3, 1),
            sites.clone(),
            params.clients_per_site,
            WorkloadSpec::Conflict {
                rate: params.conflict_rate,
                payload: 100,
            },
        )
        .with_duration(params.duration)
        .with_seed(params.seed)
        .with_crash(params.crash_at, 1);
        cfg.detection_timeout_us = params.detection_timeout;
        // The paper places the Paxos leader at TW (site 1), the site that is
        // later halted.
        cfg.leader_override = Some(1);
        let report = run(kind, cfg);
        let per_site = sites
            .iter()
            .enumerate()
            .map(|(idx, region)| {
                (
                    region.short_name().to_string(),
                    report.throughput_series(params.window, Some((idx + 1) as u32)),
                )
            })
            .collect();
        let recovery_time = params.crash_at + params.detection_timeout;
        let ops_after_recovery = report
            .completions
            .iter()
            .filter(|(t, _)| *t > recovery_time + 2_000_000)
            .count();
        results.push(SeriesSet {
            protocol: label.to_string(),
            per_site,
            aggregate: report.throughput_series(params.window, None),
            total_ops: report.completions.len(),
            ops_after_recovery,
        });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_protocols_recover_after_the_crash() {
        let results = run_experiment(&Params::quick());
        assert_eq!(results.len(), 2);
        for set in &results {
            assert!(
                set.total_ops > 0,
                "{} made no progress at all",
                set.protocol
            );
            assert!(
                set.ops_after_recovery > 0,
                "{} never recovered after the TW crash",
                set.protocol
            );
        }
    }

    #[test]
    fn the_run_is_a_function_of_its_seed() {
        // Takeover used to pick its witness, and the graph the order it
        // retried waiters in, by hash-map iteration order: three outputs
        // from one binary. Two runs in one process draw different hasher
        // keys, so agreement here is agreement everywhere.
        let totals = |sets: &[SeriesSet]| -> Vec<(usize, usize)> {
            let counts = sets.iter().map(|s| (s.total_ops, s.ops_after_recovery));
            counts.collect()
        };
        let first = run_experiment(&Params::quick());
        let second = run_experiment(&Params::quick());
        assert_eq!(totals(&first), totals(&second));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.aggregate, b.aggregate, "{} series differ", a.protocol);
        }
        // Pinned for `Params::quick()` (seed 9): Paxos, then Atlas. Neither
        // survivor's closest site is the halted TW, so suspicion moves no
        // Atlas quorum here. Atlas's total moved 5267 → 5264 with the
        // conflict index's commit-time rule (`KeyDeps::add_committed`), and
        // 5264 → 5425 (2592 → 2712 after recovery) once a commit that names
        // an uncommitted dependency of TW, outside the order, takes it over
        // in the same step: the simulator suspects once, and what that
        // takeover surfaced used to stall SC for the rest of the run.
        assert_eq!(totals(&first), vec![(6099, 3440), (5425, 2712)]);
    }

    #[test]
    fn atlas_outperforms_paxos_before_the_crash() {
        let params = Params::quick();
        let results = run_experiment(&params);
        let ops_before = |label: &str| {
            results
                .iter()
                .find(|s| s.protocol == label)
                .unwrap()
                .aggregate
                .iter()
                .filter(|(t, _)| *t < params.crash_at as f64 / 1_000_000.0)
                .map(|(_, ops)| ops)
                .sum::<f64>()
        };
        // The paper reports Atlas being almost two times faster than Paxos
        // before the failure; we only require a clear advantage.
        assert!(ops_before("Atlas") > ops_before("Paxos"));
    }
}
