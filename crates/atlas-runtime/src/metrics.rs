//! The replica's metric registry: every counter and histogram one replica
//! maintains at runtime, in one `Arc`-shared struct.
//!
//! The event loop owns the only hot recording paths (submit, execute,
//! journal sync), but the registry is shared so helper tasks and the
//! export plane can read it without a channel round-trip. All cells are
//! relaxed atomics from [`atlas_metrics`] — recording is a handful of
//! `fetch_add`s, cheap enough to stay enabled unconditionally.
//!
//! The registry holds what the *runtime* measures. Protocol-level counters
//! (fast/slow paths, recoveries) live inside the hosted protocol and are
//! copied from [`Protocol::metrics`](atlas_core::Protocol::metrics) when a
//! [`MetricsSnapshot`](atlas_metrics::MetricsSnapshot) is assembled in
//! [`crate::replica`].

use atlas_metrics::{
    AtomicHistogram, Counter, DetectorStats, DurabilityStats, ExecutorShardStats, ExecutorStats,
    Gauge, GcStats, LifecycleStats, ReactorStats,
};

/// The runtime's scheduler/reactor counters as a snapshot section — the
/// process's, not a replica's: every replica hosted here exports the same.
pub fn reactor_stats() -> ReactorStats {
    let s = tokio::runtime::stats();
    ReactorStats {
        epoll_waits: s.epoll_waits,
        io_events: s.io_events,
        tasks_polled: s.tasks_polled,
        worker_parks: s.worker_parks,
        worker_unparks: s.worker_unparks,
        eventfd_signals: s.eventfd_signals,
        timers_fired: s.timers_fired,
        queue_depth_max: s.queue_depth_max,
    }
}

/// One executor shard's metric cells, recorded from that shard's thread
/// (dispatch counters from the protocol thread): everything is a relaxed
/// atomic, so the export plane reads a consistent-enough view without
/// stopping the pool.
#[derive(Debug, Default)]
pub struct ShardExecutorMetrics {
    /// Commands enqueued on this shard (multi-shard commands count once per
    /// involved shard). Written by the protocol thread at dispatch.
    pub dispatched: Counter,
    /// Queue entries this shard's executor has finished with. Written by
    /// executor threads.
    pub completed: Counter,
    /// `dispatched - completed`, maintained at both ends so consumers get a
    /// plain gauge instead of re-deriving it.
    pub queue_depth: Gauge,
    /// Per-command execute latency on this shard (µs); multi-shard commands
    /// land on the shard whose executor ran them.
    pub execute_us: AtomicHistogram,
}

/// Every runtime-level metric one replica maintains.
///
/// Lifecycle counters/histograms cover commands submitted *through this
/// replica* (each command has exactly one lifecycle owner: its
/// coordinator). Stage histograms are cumulative from submission, so one
/// command contributes a monotonically increasing series across stages.
#[derive(Debug, Default)]
pub struct ReplicaMetrics {
    /// Commands received from local client sessions.
    pub submitted: Counter,
    /// Commands made durable in the input journal.
    pub journaled: Counter,
    /// Commands handed to the protocol.
    pub proposed: Counter,
    /// Locally submitted commands whose commit was observed.
    pub committed: Counter,
    /// Locally submitted commands executed against the store.
    pub executed: Counter,
    /// Replies delivered to the submitting client session.
    pub replied: Counter,
    /// Submission → journal durable (µs).
    pub submit_to_journaled: AtomicHistogram,
    /// Submission → protocol proposal issued (µs).
    pub submit_to_proposed: AtomicHistogram,
    /// Submission → commit observed (µs).
    pub submit_to_committed: AtomicHistogram,
    /// Submission → executed against the store (µs).
    pub submit_to_executed: AtomicHistogram,
    /// Submission → reply handed to the client session (µs).
    pub submit_to_replied: AtomicHistogram,

    /// Records appended to the input journal (all kinds, not just submits).
    pub journal_records: Counter,
    /// `write` calls that put those records in the WAL (one per flush).
    pub wal_writes: Counter,
    /// fsyncs actually issued, by the WAL and by the snapshot writer (no-op
    /// syncs are not counted).
    pub fsyncs: Counter,
    /// Latency of each issued fsync (µs).
    pub fsync_us: AtomicHistogram,
    /// Replica snapshots published (renamed into place) and the journal
    /// prefix they cover truncated.
    pub snapshots_saved: Counter,
    /// Event-loop time per snapshot cut (µs): protocol state, store and
    /// execution record copied, one WAL fsync, hand-off to the writer.
    pub snapshot_cut_us: AtomicHistogram,
    /// Snapshot-writer time per snapshot (µs): serialise → directory fsync.
    pub snapshot_write_us: AtomicHistogram,
    /// Encoded size of the last snapshot written (bytes).
    pub snapshot_bytes: Gauge,
    /// Snapshots that fell due (cadence or GC round) while the writer was
    /// busy; they fold into the one cut taken when the writer reports.
    pub snapshots_coalesced: Counter,

    /// Detector Trusted → Suspected transitions.
    pub suspicions: Counter,
    /// Detector Suspected → Trusted (probation passed) transitions.
    pub trusts: Counter,
    /// Recovery takeovers dispatched to the protocol.
    pub takeovers: Counter,

    /// GC rounds that advanced the horizon.
    pub gc_rounds: Counter,
    /// Executed entries dropped across all GC rounds.
    pub gc_entries_dropped: Counter,

    /// Commands that spanned more than one shard and took the executor
    /// pool's deterministic cross-shard barrier.
    pub multi_shard_commands: Counter,
    /// Per-shard executor telemetry; empty when the pool runs inline
    /// (shards = 1).
    pub executor_shards: Vec<ShardExecutorMetrics>,
}

impl ReplicaMetrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a zeroed registry with `shards` per-shard executor cells
    /// (none for an inline pool — shard telemetry would be noise when
    /// execution happens on the protocol thread).
    pub fn with_shards(shards: usize) -> Self {
        let mut metrics = Self::default();
        if shards > 1 {
            metrics.executor_shards = (0..shards)
                .map(|_| ShardExecutorMetrics::default())
                .collect();
        }
        metrics
    }

    /// Exports the executor-pool section. `shards_configured` comes from
    /// the caller because an inline pool has no shard cells to count.
    pub fn executor_stats(&self, shards_configured: usize) -> ExecutorStats {
        ExecutorStats {
            shards_configured: shards_configured as u64,
            multi_shard_commands: self.multi_shard_commands.get(),
            shards: self
                .executor_shards
                .iter()
                .enumerate()
                .map(|(i, cell)| ExecutorShardStats {
                    shard: i as u64,
                    dispatched: cell.dispatched.get(),
                    completed: cell.completed.get(),
                    queue_depth: cell.queue_depth.get(),
                    execute_us: cell.execute_us.load(),
                })
                .collect(),
        }
    }

    /// Exports the command-lifecycle section.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        LifecycleStats {
            submitted: self.submitted.get(),
            journaled: self.journaled.get(),
            proposed: self.proposed.get(),
            committed: self.committed.get(),
            executed: self.executed.get(),
            replied: self.replied.get(),
            submit_to_journaled: self.submit_to_journaled.load(),
            submit_to_proposed: self.submit_to_proposed.load(),
            submit_to_committed: self.submit_to_committed.load(),
            submit_to_executed: self.submit_to_executed.load(),
            submit_to_replied: self.submit_to_replied.load(),
        }
    }

    /// Exports the durability section; the live WAL segment count comes
    /// from the journal, not the registry.
    pub fn durability_stats(&self, wal_segments: u64) -> DurabilityStats {
        DurabilityStats {
            journal_records: self.journal_records.get(),
            fsyncs: self.fsyncs.get(),
            fsync_us: self.fsync_us.load(),
            wal_segments,
            snapshots_saved: self.snapshots_saved.get(),
            snapshot_cut_us: self.snapshot_cut_us.load(),
            snapshot_write_us: self.snapshot_write_us.load(),
            snapshot_bytes: self.snapshot_bytes.get(),
            snapshots_coalesced: self.snapshots_coalesced.get(),
            wal_writes: self.wal_writes.get(),
        }
    }

    /// Exports the failure-detector section.
    pub fn detector_stats(&self) -> DetectorStats {
        DetectorStats {
            suspicions: self.suspicions.get(),
            trusts: self.trusts.get(),
            takeovers: self.takeovers.get(),
        }
    }

    /// Exports the garbage-collection section; the current horizon is
    /// event-loop state, not a metric cell.
    pub fn gc_stats(&self, horizon: Vec<(atlas_core::ProcessId, u64)>) -> GcStats {
        GcStats {
            rounds: self.gc_rounds.get(),
            entries_dropped: self.gc_entries_dropped.get(),
            horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_export_what_was_recorded() {
        let m = ReplicaMetrics::new();
        m.submitted.inc();
        m.submitted.inc();
        m.replied.inc();
        m.submit_to_replied.record(250);
        m.fsyncs.inc();
        m.fsync_us.record(90);
        m.suspicions.inc();
        m.takeovers.inc();
        m.gc_rounds.inc();
        m.gc_entries_dropped.add(12);

        let l = m.lifecycle_stats();
        assert_eq!(l.submitted, 2);
        assert_eq!(l.replied, 1);
        assert_eq!(l.submit_to_replied.count(), 1);

        let d = m.durability_stats(3);
        assert_eq!(d.fsyncs, 1);
        assert_eq!(d.wal_segments, 3);
        assert_eq!(d.fsync_us.max(), 90);

        let det = m.detector_stats();
        assert_eq!((det.suspicions, det.trusts, det.takeovers), (1, 0, 1));

        let gc = m.gc_stats(vec![(1, 4)]);
        assert_eq!(gc.rounds, 1);
        assert_eq!(gc.entries_dropped, 12);
        assert_eq!(gc.horizon, vec![(1, 4)]);
    }
}
