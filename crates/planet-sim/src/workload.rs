//! Cloneable workload specifications used to spawn one workload instance per
//! simulated client.

use kvstore::workload::YcsbMix;
use kvstore::{ConflictWorkload, Workload, YcsbWorkload};

/// A description of the workload every client runs; building it per client
/// keeps clients independent while the spec itself stays `Clone`.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// The §5.2 microbenchmark: single-key writes hitting a shared key with
    /// probability `rate`, payload of `payload` bytes.
    Conflict {
        /// Conflict rate in `[0, 1]`.
        rate: f64,
        /// Payload size in bytes.
        payload: usize,
    },
    /// The §5.7 YCSB workload over `records` keys.
    Ycsb {
        /// Read/write mix.
        mix: YcsbMix,
        /// Number of records in the store.
        records: u64,
        /// Payload size of writes, in bytes.
        payload: usize,
    },
}

impl WorkloadSpec {
    /// Instantiates the workload for one client.
    pub fn build(&self) -> Box<dyn Workload> {
        match self {
            WorkloadSpec::Conflict { rate, payload } => {
                Box::new(ConflictWorkload::new(*rate, *payload))
            }
            WorkloadSpec::Ycsb {
                mix,
                records,
                payload,
            } => Box::new(YcsbWorkload::new(*records, *mix, *payload)),
        }
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Conflict { rate, payload } => {
                format!("conflict={:.0}% payload={}B", rate * 100.0, payload)
            }
            WorkloadSpec::Ycsb { mix, .. } => format!("ycsb {}", mix.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn conflict_spec_builds_workload() {
        let mut rng = SmallRng::seed_from_u64(1);
        let spec = WorkloadSpec::Conflict {
            rate: 0.5,
            payload: 100,
        };
        let mut workload = spec.build();
        let cmd = workload.next_command(1, 1, &mut rng);
        assert!(cmd.is_write());
        assert!(spec.label().contains("conflict=50%"));
    }

    #[test]
    fn ycsb_spec_builds_workload() {
        let mut rng = SmallRng::seed_from_u64(2);
        let spec = WorkloadSpec::Ycsb {
            mix: YcsbMix::ReadOnly,
            records: 1_000,
            payload: 100,
        };
        let mut workload = spec.build();
        let cmd = workload.next_command(1, 1, &mut rng);
        assert!(cmd.is_read_only());
        assert!(spec.label().contains("ycsb"));
    }
}
