//! Figure 5: client-perceived latency when the deployment scales out from 3
//! to 13 sites while a fixed population of 1000 clients stays spread over
//! the 13 client locations (§5.4, "bringing the service closer to clients").

use crate::optimal::optimal_latency_ms;
use crate::region::Region;
use crate::runner::{run, ProtocolKind};
use crate::sim::SimConfig;
use crate::workload::WorkloadSpec;
use atlas_core::protocol::Time;
use atlas_core::Config;
use serde::{Deserialize, Serialize};

/// Parameters of the scale-out experiment.
#[derive(Debug, Clone)]
pub struct Params {
    /// Deployment sizes to evaluate.
    pub site_counts: Vec<usize>,
    /// Total number of clients, spread uniformly over the 13 client regions.
    pub total_clients: usize,
    /// Conflict rate (the paper uses 2%).
    pub conflict_rate: f64,
    /// Command payload in bytes (the paper uses 100 B).
    pub payload: usize,
    /// Simulated duration per point, µs.
    pub duration: Time,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// The paper's parameters.
    pub fn paper() -> Self {
        Self {
            site_counts: vec![3, 5, 7, 9, 11, 13],
            total_clients: 1000,
            conflict_rate: 0.02,
            payload: 100,
            duration: 30_000_000,
            seed: 5,
        }
    }

    /// Scaled-down parameters for tests and quick runs.
    pub fn quick() -> Self {
        Self {
            site_counts: vec![3, 7, 13],
            total_clients: 130,
            duration: 10_000_000,
            ..Self::paper()
        }
    }
}

/// One bar of Figure 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Point {
    /// Number of sites in the deployment.
    pub sites: usize,
    /// Protocol label.
    pub protocol: String,
    /// Mean client-perceived latency, ms.
    pub latency_ms: f64,
    /// The optimal leaderless latency for this deployment, ms.
    pub optimal_ms: f64,
    /// Overhead with respect to the optimum, percent.
    pub overhead_pct: f64,
}

/// The protocol configurations compared in Figure 5.
fn protocols() -> Vec<(ProtocolKind, usize)> {
    vec![
        (ProtocolKind::FPaxos, 1),
        (ProtocolKind::FPaxos, 2),
        (ProtocolKind::Mencius, 1),
        (ProtocolKind::EPaxos, 1),
        (ProtocolKind::Atlas, 1),
        (ProtocolKind::Atlas, 2),
    ]
}

/// Runs the experiment; returns one point per (deployment size, protocol).
pub fn run_experiment(params: &Params) -> Vec<Point> {
    let client_regions = Region::deployment(13);
    let per_region = (params.total_clients / client_regions.len()).max(1);
    let client_locations: Vec<(Region, usize)> =
        client_regions.iter().map(|r| (*r, per_region)).collect();

    let mut points = Vec::new();
    for &n in &params.site_counts {
        let sites = Region::deployment(n);
        let optimal_ms = optimal_latency_ms(&sites, &client_locations);
        for (kind, f) in protocols() {
            if f > (n - 1) / 2 {
                continue;
            }
            let cfg = SimConfig::new(
                Config::new(n, f),
                sites.clone(),
                0,
                WorkloadSpec::Conflict {
                    rate: params.conflict_rate,
                    payload: params.payload,
                },
            )
            .with_client_locations(client_locations.clone())
            .with_duration(params.duration)
            .with_seed(params.seed);
            let report = run(kind, cfg);
            let latency_ms = report.mean_latency_ms();
            points.push(Point {
                sites: n,
                protocol: kind.label(f),
                latency_ms,
                optimal_ms,
                overhead_pct: (latency_ms / optimal_ms - 1.0) * 100.0,
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            site_counts: vec![3, 13],
            total_clients: 26,
            conflict_rate: 0.02,
            payload: 100,
            duration: 6_000_000,
            seed: 2,
        }
    }

    fn point<'a>(points: &'a [Point], sites: usize, proto: &str) -> &'a Point {
        points
            .iter()
            .find(|p| p.sites == sites && p.protocol == proto)
            .unwrap()
    }

    #[test]
    fn atlas_latency_improves_with_more_sites() {
        let points = run_experiment(&tiny());
        let latency = |sites: usize, proto: &str| point(&points, sites, proto).latency_ms;
        // Going from 3 to 13 sites cuts Atlas f=1 latency (the paper reports
        // a 39%-42% reduction; the simulated latency model compresses
        // intercontinental paths, so we only require a clear improvement).
        assert!(latency(13, "Atlas f=1") < latency(3, "Atlas f=1") * 0.97);
        // And Atlas f=1 stays close to the optimal leaderless latency.
        let thirteen = point(&points, 13, "Atlas f=1");
        assert!(thirteen.latency_ms < thirteen.optimal_ms * 1.25);
    }

    #[test]
    fn atlas_outperforms_leader_based_protocols_at_13_sites() {
        let points = run_experiment(&tiny());
        let get = |proto: &str| point(&points, 13, proto).latency_ms;
        assert!(get("Atlas f=1") < get("FPaxos f=1"));
        assert!(get("Atlas f=1") < get("Mencius"));
        assert!(get("Atlas f=1") < get("EPaxos"));
        assert!(get("Atlas f=2") < get("FPaxos f=2"));
    }
}
