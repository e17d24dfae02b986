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
    AtomicHistogram, Counter, DetectorStats, DurabilityStats, Gauge, GcStats, LifecycleStats,
    ReactorStats,
};

/// Appends `line` and a newline to the file at `path`, creating it.
pub(crate) fn append_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

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
    /// Event-loop time per snapshot cut (µs): the GC round before it (GC
    /// on), protocol state encoded, store copied, one WAL fsync, hand-off
    /// to the writer.
    pub snapshot_cut_us: AtomicHistogram,
    /// Snapshot-writer time per snapshot (µs): snapshot serialised →
    /// directory fsync.
    pub snapshot_write_us: AtomicHistogram,
    /// Encoded size of the last snapshot file written (bytes): protocol
    /// state, store (its execution summary included) and view — O(keys),
    /// not O(history).
    pub snapshot_bytes: Gauge,
    /// Snapshots that fell due (cadence or GC round) while the writer was
    /// busy; they fold into the one cut taken when the writer reports.
    pub snapshots_coalesced: Counter,

    /// Detector Trusted → Suspected transitions.
    pub suspicions: Counter,
    /// Detector Suspected → Trusted (probation passed) transitions.
    pub trusts: Counter,
    /// Recovery takeovers dispatched to the protocol: suspicions, and
    /// distance orders that leave a member out.
    pub takeovers: Counter,
    /// Measured distance orders dispatched to the protocol.
    pub reorders: Counter,

    /// GC rounds that advanced the horizon.
    pub gc_rounds: Counter,
    /// Executed entries dropped across all GC rounds.
    pub gc_entries_dropped: Counter,
}

impl ReplicaMetrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Self::default()
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
            reorders: self.reorders.get(),
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
