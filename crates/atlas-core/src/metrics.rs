//! [`ProtocolStats`]: the per-replica protocol counters.
//!
//! The evaluation section of the paper reports fast-path ratios,
//! commit-to-execute delays, dependency counts and execution batch sizes.
//! One flat, integer-only record carries the raw material for all of those:
//! protocols record into it on their command path, it rides inside their
//! serialized state (so it must not grow with uptime), and the runtime
//! exports it unchanged in its `MetricsSnapshot`.

use serde::{Deserialize, Serialize};

/// Counters and constant-size moments accumulated by a protocol replica.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolStats {
    /// Commands committed via the fast path at this replica (as coordinator).
    pub fast_paths: u64,
    /// Commands committed via the slow path at this replica (as coordinator).
    pub slow_paths: u64,
    /// Commands committed locally (any coordinator).
    pub commits: u64,
    /// Commands executed locally.
    pub executions: u64,
    /// Recoveries this replica initiated (took over as coordinator).
    pub recoveries: u64,
    /// `noOp` commands this replica committed during recovery.
    pub noops: u64,
    /// Executions with a known commit time.
    pub commit_to_execute_count: u64,
    /// Sum of commit-to-execute delays (µs).
    pub commit_to_execute_sum_us: u128,
    /// Largest commit-to-execute delay (µs).
    pub commit_to_execute_max_us: u64,
    /// Execution batches (strongly connected components of the dependency
    /// graph, executed as a unit). Slot-ordered protocols (FPaxos, Mencius)
    /// execute one slot at a time and record no batches.
    pub batch_count: u64,
    /// Sum of execution batch sizes.
    pub batch_sum: u128,
    /// Committed commands with a recorded dependency count.
    pub dependency_count: u64,
    /// Sum of per-command dependency counts.
    pub dependency_sum: u128,
}

impl ProtocolStats {
    /// Records the local commit of a command with `dependencies` dependencies.
    pub fn record_commit(&mut self, dependencies: usize) {
        self.commits += 1;
        self.dependency_count += 1;
        self.dependency_sum += dependencies as u128;
    }

    /// Records a local execution at `now` (µs); `committed_at` if known.
    pub fn record_execution(&mut self, committed_at: Option<u64>, now: u64) {
        self.executions += 1;
        if let Some(waited) = committed_at.map(|at| now.saturating_sub(at)) {
            self.commit_to_execute_count += 1;
            self.commit_to_execute_sum_us += waited as u128;
            self.commit_to_execute_max_us = self.commit_to_execute_max_us.max(waited);
        }
    }

    /// Sets the batch moments from the dependency graph's running totals.
    pub fn set_batches(&mut self, (batches, commands): (u64, u64)) {
        self.batch_count = batches;
        self.batch_sum = commands as u128;
    }

    /// Fraction of coordinator commits that took the fast path, in `[0, 1]`.
    /// Returns `None` if this replica coordinated no commands.
    pub fn fast_path_ratio(&self) -> Option<f64> {
        let total = self.fast_paths + self.slow_paths;
        (total > 0).then(|| self.fast_paths as f64 / total as f64)
    }

    /// Mean commit-to-execute delay in µs, or 0 if none recorded.
    pub fn commit_to_execute_mean_us(&self) -> f64 {
        mean(self.commit_to_execute_sum_us, self.commit_to_execute_count)
    }

    /// Mean execution batch size, or 0 if none recorded.
    pub fn mean_batch_size(&self) -> f64 {
        mean(self.batch_sum, self.batch_count)
    }

    /// Mean dependencies per committed command, or 0 if none recorded.
    pub fn mean_dependencies(&self) -> f64 {
        mean(self.dependency_sum, self.dependency_count)
    }

    /// Accumulates another replica's stats (cluster-wide aggregation).
    pub fn merge(&mut self, other: &ProtocolStats) {
        self.fast_paths += other.fast_paths;
        self.slow_paths += other.slow_paths;
        self.commits += other.commits;
        self.executions += other.executions;
        self.recoveries += other.recoveries;
        self.noops += other.noops;
        self.commit_to_execute_count += other.commit_to_execute_count;
        self.commit_to_execute_sum_us += other.commit_to_execute_sum_us;
        self.commit_to_execute_max_us = self
            .commit_to_execute_max_us
            .max(other.commit_to_execute_max_us);
        self.batch_count += other.batch_count;
        self.batch_sum += other.batch_sum;
        self.dependency_count += other.dependency_count;
        self.dependency_sum += other.dependency_sum;
    }
}

fn mean(sum: u128, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_ratio() {
        let mut m = ProtocolStats::default();
        assert_eq!(m.fast_path_ratio(), None);
        m.fast_paths = 3;
        m.slow_paths = 1;
        assert_eq!(m.fast_path_ratio(), Some(0.75));
    }

    #[test]
    fn recorders_keep_the_moments() {
        let mut s = ProtocolStats::default();
        assert_eq!(s.commit_to_execute_mean_us(), 0.0);
        s.record_commit(1);
        s.record_commit(3);
        s.record_execution(Some(50), 150);
        s.record_execution(Some(50), 350);
        s.record_execution(None, 400);
        s.set_batches((2, 3));
        assert_eq!((s.commits, s.executions), (2, 3));
        assert_eq!(s.commit_to_execute_count, 2);
        assert_eq!(s.commit_to_execute_mean_us(), 200.0);
        assert_eq!(s.commit_to_execute_max_us, 300);
        assert_eq!(s.mean_dependencies(), 2.0);
        assert_eq!(s.mean_batch_size(), 1.5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ProtocolStats {
            fast_paths: 1,
            commits: 2,
            ..Default::default()
        };
        a.record_execution(Some(0), 5);
        let mut b = ProtocolStats {
            fast_paths: 2,
            slow_paths: 4,
            commits: 6,
            ..Default::default()
        };
        b.record_execution(Some(9), 7); // a clock that ran back counts 0
        a.merge(&b);
        assert_eq!((a.fast_paths, a.slow_paths, a.commits), (3, 4, 8));
        assert_eq!(a.commit_to_execute_count, 2);
        assert_eq!(a.commit_to_execute_max_us, 5);
    }
}
