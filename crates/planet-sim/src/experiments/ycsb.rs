//! Figure 9: YCSB throughput for update-heavy (20%-80%), balanced (50%-50%),
//! read-heavy (80%-20%) and read-only (100%-0%) workloads, over 7 and 13
//! sites, for EPaxos and Atlas (f = 1, 2) with and without the NFR
//! optimization (§5.7).

use crate::region::Region;
use crate::runner::{run, ProtocolKind};
use crate::sim::SimConfig;
use crate::workload::WorkloadSpec;
use atlas_core::protocol::Time;
use atlas_core::Config;
use kvstore::workload::YcsbMix;
use serde::{Deserialize, Serialize};

/// Parameters of the YCSB experiment.
#[derive(Debug, Clone)]
pub struct Params {
    /// Deployment sizes (the paper uses 7 and 13).
    pub site_counts: Vec<usize>,
    /// YCSB client threads per site (the paper uses 128).
    pub clients_per_site: usize,
    /// Number of records in the store (the paper uses 10⁶).
    pub records: u64,
    /// Read/write mixes to evaluate.
    pub mixes: Vec<YcsbMix>,
    /// Simulated duration per point, µs.
    pub duration: Time,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// The paper's parameters.
    pub fn paper() -> Self {
        Self {
            site_counts: vec![7, 13],
            clients_per_site: 128,
            records: 1_000_000,
            mixes: YcsbMix::all().to_vec(),
            duration: 20_000_000,
            seed: 10,
        }
    }

    /// Scaled-down parameters.
    pub fn quick() -> Self {
        Self {
            site_counts: vec![7],
            clients_per_site: 16,
            records: 100_000,
            duration: 8_000_000,
            ..Self::paper()
        }
    }
}

/// One bar of Figure 9.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Point {
    /// Number of sites.
    pub sites: usize,
    /// Workload mix label ("20%-80%", …).
    pub mix: String,
    /// Protocol label, prefixed with `*` when NFR is enabled (as in the
    /// paper's figure).
    pub protocol: String,
    /// Whether the NFR optimization was enabled.
    pub nfr: bool,
    /// Aggregate throughput, operations per second.
    pub throughput_ops: f64,
    /// Speed-up over vanilla EPaxos on the same (sites, mix) point.
    pub speedup_over_epaxos: f64,
    /// Cluster-wide fast-path ratio.
    pub fast_path_ratio: f64,
    /// Mean commit-to-execute delay, ms.
    pub commit_to_execute_ms: f64,
}

/// The protocol configurations of Figure 9: (protocol, f, NFR enabled).
fn configurations() -> Vec<(ProtocolKind, usize, bool)> {
    vec![
        (ProtocolKind::EPaxos, 2, false),
        (ProtocolKind::EPaxos, 2, true),
        (ProtocolKind::Atlas, 1, false),
        (ProtocolKind::Atlas, 1, true),
        (ProtocolKind::Atlas, 2, false),
        (ProtocolKind::Atlas, 2, true),
    ]
}

/// Runs the YCSB experiment.
pub fn run_experiment(params: &Params) -> Vec<Point> {
    let mut points = Vec::new();
    for &n in &params.site_counts {
        let sites = Region::deployment(n);
        for &mix in &params.mixes {
            let mut epaxos_baseline = None;
            for (kind, f, nfr) in configurations() {
                let config = Config::new(n, f).with_nfr(nfr);
                let cfg = SimConfig::new(
                    config,
                    sites.clone(),
                    params.clients_per_site,
                    WorkloadSpec::Ycsb {
                        mix,
                        records: params.records,
                        payload: 100,
                    },
                )
                .with_duration(params.duration)
                .with_seed(params.seed);
                let report = run(kind, cfg);
                let throughput = report.throughput_ops();
                if kind == ProtocolKind::EPaxos && !nfr {
                    epaxos_baseline = Some(throughput);
                }
                let baseline = epaxos_baseline.unwrap_or(throughput);
                let label = format!("{}{}", if nfr { "*" } else { "" }, kind.label(f));
                points.push(Point {
                    sites: n,
                    mix: mix.label().to_string(),
                    protocol: label,
                    nfr,
                    throughput_ops: throughput,
                    speedup_over_epaxos: if baseline > 0.0 {
                        throughput / baseline
                    } else {
                        0.0
                    },
                    fast_path_ratio: report.fast_path_ratio().unwrap_or(0.0),
                    commit_to_execute_ms: report.protocol_metrics.commit_to_execute_mean_us()
                        / 1_000.0,
                });
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            site_counts: vec![7],
            clients_per_site: 4,
            records: 10_000,
            mixes: vec![YcsbMix::Balanced],
            duration: 5_000_000,
            seed: 11,
        }
    }

    #[test]
    fn atlas_f1_beats_vanilla_epaxos_on_ycsb() {
        let points = run_experiment(&tiny());
        let get = |proto: &str| {
            points
                .iter()
                .find(|p| p.protocol == proto)
                .map(|p| p.throughput_ops)
                .unwrap()
        };
        assert!(get("Atlas f=1") > get("EPaxos"));
    }

    #[test]
    fn speedups_are_relative_to_vanilla_epaxos() {
        let points = run_experiment(&tiny());
        let epaxos = points.iter().find(|p| p.protocol == "EPaxos").unwrap();
        assert!((epaxos.speedup_over_epaxos - 1.0).abs() < 1e-9);
        for p in &points {
            assert!(p.speedup_over_epaxos > 0.0);
        }
    }
}
