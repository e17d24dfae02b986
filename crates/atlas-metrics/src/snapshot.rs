//! The wire-level export type: everything one replica knows about itself,
//! gathered into a single serde value.
//!
//! A [`MetricsSnapshot`] travels three ways: inside
//! `ClientReply::Stats` (binary serde over the client socket), as one line
//! of the `--metrics-every` JSONL dump ([`MetricsSnapshot::to_json`]), and
//! rendered by the `atlas-top` poller. Lifecycle histograms are shipped in
//! full ([`BoundedHistogram`] is constant-size) so consumers can merge
//! across replicas before taking percentiles; the JSON form compresses each
//! histogram to a summary object.
//!
//! The binary encoding is positional, so it leads with [`StatsVersion`]:
//! a reader built against another layout refuses the snapshot with an error
//! naming both versions instead of misreading every field after the first
//! one that moved. Bump [`STATS_VERSION`] whenever a field is added or removed.

use crate::histogram::BoundedHistogram;
use atlas_core::{ProcessId, ProtocolStats};
use serde::{Deserialize, Serialize};

/// Layout version of the [`MetricsSnapshot`] encoding (see the module docs).
pub const STATS_VERSION: u32 = 3;

/// The version stamp leading a [`MetricsSnapshot`]: always
/// [`STATS_VERSION`] in this build, and decoding refuses any other value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsVersion(u32);

impl Default for StatsVersion {
    fn default() -> Self {
        Self(STATS_VERSION)
    }
}

impl Serialize for StatsVersion {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.0.serialize(out);
    }
}

impl Deserialize for StatsVersion {
    fn deserialize(input: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        match u32::deserialize(input)? {
            STATS_VERSION => Ok(Self(STATS_VERSION)),
            other => Err(serde::Error::custom(format!(
                "stats snapshot of layout version {other}, this build reads version \
                 {STATS_VERSION}: rebuild the reader and the replica from one tree"
            ))),
        }
    }
}

/// Compact percentile summary of a [`BoundedHistogram`], used for JSON
/// rendering and one-line displays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean in µs.
    pub mean_us: f64,
    /// Exact minimum in µs.
    pub min_us: u64,
    /// Median in µs.
    pub p50_us: u64,
    /// 95th percentile in µs.
    pub p95_us: u64,
    /// 99th percentile in µs.
    pub p99_us: u64,
    /// Exact maximum in µs.
    pub max_us: u64,
}

impl HistogramSummary {
    /// Summarizes a histogram.
    pub fn of(h: &BoundedHistogram) -> Self {
        Self {
            count: h.count(),
            mean_us: h.mean(),
            min_us: h.min(),
            p50_us: h.percentile(0.50),
            p95_us: h.percentile(0.95),
            p99_us: h.percentile(0.99),
            max_us: h.max(),
        }
    }
}

/// Per-command lifecycle accounting for commands submitted *through this
/// replica* (commands coordinated elsewhere execute here too, but only
/// their coordinator owns their lifecycle).
///
/// Stage histograms are cumulative from submission — `submit_to_executed`
/// includes journaling and commit — so a command contributes one
/// monotonically increasing sample series across the stages.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LifecycleStats {
    /// Commands received from clients.
    pub submitted: u64,
    /// Commands made durable in the input journal.
    pub journaled: u64,
    /// Commands handed to the protocol (collect/accept messages sent).
    pub proposed: u64,
    /// Locally submitted commands whose commit was observed.
    pub committed: u64,
    /// Locally submitted commands executed against the store.
    pub executed: u64,
    /// Replies delivered to the submitting client session.
    pub replied: u64,
    /// Submission → journal durable (µs, min 1).
    pub submit_to_journaled: BoundedHistogram,
    /// Submission → protocol proposal issued (µs, min 1).
    pub submit_to_proposed: BoundedHistogram,
    /// Submission → commit observed (µs, min 1).
    pub submit_to_committed: BoundedHistogram,
    /// Submission → executed against the store (µs, min 1).
    pub submit_to_executed: BoundedHistogram,
    /// Submission → reply handed to the client session (µs, min 1).
    pub submit_to_replied: BoundedHistogram,
}

/// Journal / WAL durability counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DurabilityStats {
    /// Records appended to the input journal.
    pub journal_records: u64,
    /// fsync calls actually issued: the WAL's, and the two (file,
    /// directory) of every snapshot the writer thread persists.
    pub fsyncs: u64,
    /// Latency of each issued fsync (µs).
    pub fsync_us: BoundedHistogram,
    /// Live WAL segment files (after GC truncation).
    pub wal_segments: u64,
    /// Replica snapshots published and their journal prefix truncated.
    pub snapshots_saved: u64,
    /// Event-loop time per snapshot cut (µs) — what a snapshot still costs
    /// the commit path.
    pub snapshot_cut_us: BoundedHistogram,
    /// Snapshot-writer time per snapshot (µs), serialisation → directory
    /// fsync — off the event loop.
    pub snapshot_write_us: BoundedHistogram,
    /// Encoded size of the last snapshot file written (bytes): protocol
    /// state, store and view. The store carries an execution summary of
    /// O(keys) in place of a record of every executed command, so this
    /// does not grow with the history.
    pub snapshot_bytes: u64,
    /// Snapshots that fell due while the writer was busy and were folded
    /// into the next cut.
    pub snapshots_coalesced: u64,
    /// `write(2)` calls that put journal records in the WAL: one per
    /// event-loop turn that journaled anything, however many records it
    /// carried. Appended at the tail (positional serde).
    pub wal_writes: u64,
}

/// Failure-detector and recovery counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DetectorStats {
    /// Trusted → Suspected transitions observed.
    pub suspicions: u64,
    /// Suspected → Trusted (probation passed) transitions observed.
    pub trusts: u64,
    /// Recovery takeovers dispatched to the protocol: `Protocol::suspect`,
    /// and `Protocol::discover` with an order that leaves a member out.
    pub takeovers: u64,
    /// Measured distance orders installed (`Protocol::discover`).
    pub reorders: u64,
}

/// Executed-entry garbage-collection counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GcStats {
    /// GC rounds that advanced the horizon.
    pub rounds: u64,
    /// Executed entries dropped across all rounds.
    pub entries_dropped: u64,
    /// Current GC floor: per identifier space, entries at or below this
    /// sequence have been collected everywhere.
    pub horizon: Vec<(ProcessId, u64)>,
}

/// One peer link's health, exported by `LinkStatus::snapshot()`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkSnapshot {
    /// Peer replica this link leads to.
    pub peer: ProcessId,
    /// Whether the link currently has a live TCP connection.
    pub connected: bool,
    /// Whether the writer is between connection attempts.
    pub reconnecting: bool,
    /// Frames buffered for (re)delivery.
    pub buffered: u64,
    /// Frames dropped because the resend buffer was full.
    pub dropped: u64,
    /// Frames rewritten after a reconnect (retransmissions).
    pub resent: u64,
    /// Socket writes the link writer issued (frames that were due together
    /// share one). Appended at the tail (positional serde).
    pub writes: u64,
    /// Windowed-minimum round trip to the peer measured by the heartbeat
    /// probes (µs; 0 until the first echo).
    pub rtt_us: u64,
}

/// The async runtime's scheduler and reactor vitals since it booted.
/// **Process-wide, not per-replica**: replicas hosted in one process share
/// one runtime and report the same numbers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReactorStats {
    /// `epoll_wait` calls, blocking and fairness polls alike.
    pub epoll_waits: u64,
    /// Readiness events those calls returned.
    pub io_events: u64,
    /// Task polls.
    pub tasks_polled: u64,
    /// Times a worker went to sleep on the pool's condvar.
    pub worker_parks: u64,
    /// Condvar notifications sent to parked workers.
    pub worker_unparks: u64,
    /// Eventfd writes that interrupted a worker blocked in `epoll_wait`.
    pub eventfd_signals: u64,
    /// Timers the timer queue fired.
    pub timers_fired: u64,
    /// High-water mark of the run queue.
    pub queue_depth_max: u64,
}

/// Everything one replica reports about itself.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Leads the encoding (see the module docs).
    pub version: StatsVersion,
    /// Reporting replica.
    pub replica: ProcessId,
    /// Protocol name (`Protocol::name()`).
    pub protocol: String,
    /// Microseconds since the replica process started.
    pub uptime_us: u64,
    /// Command lifecycle counters and stage latencies.
    pub lifecycle: LifecycleStats,
    /// Protocol-level counters (fast/slow paths, recoveries, …).
    pub protocol_stats: ProtocolStats,
    /// Journal / WAL counters.
    pub durability: DurabilityStats,
    /// Failure-detector counters.
    pub detector: DetectorStats,
    /// Garbage-collection counters.
    pub gc: GcStats,
    /// Per-peer link health.
    pub links: Vec<LinkSnapshot>,
    /// Protocol bookkeeping entries currently tracked (GC pressure).
    pub tracked_entries: u64,
    /// Commands executed against the store (any coordinator).
    pub store_executed: u64,
    /// Configuration epoch this replica operates in (0 until the first
    /// reconfiguration; odd epochs are joint windows in the two-phase
    /// lifecycle).
    pub epoch: u64,
    /// Heap allocator calls in this replica's process since the replica
    /// started, counted by [`crate::CountingAllocator`] — zero when that
    /// allocator is not installed as the process's `#[global_allocator]`.
    /// Divided by [`store_executed`](Self::store_executed) this is the
    /// allocations-per-command gauge the bench gate watches. Appended at
    /// the tail (positional serde).
    pub alloc_count: u64,
    /// Runtime scheduler/reactor vitals — of the whole process, see
    /// [`ReactorStats`]. Appended at the tail (positional serde).
    pub reactor: ReactorStats,
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:.3}"));
    } else {
        out.push_str("null");
    }
}

fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_summary(out: &mut String, h: &BoundedHistogram) {
    let s = HistogramSummary::of(h);
    out.push_str(&format!("{{\"count\":{},\"mean_us\":", s.count));
    push_f64(out, s.mean_us);
    out.push_str(&format!(
        ",\"min_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{}}}",
        s.min_us, s.p50_us, s.p95_us, s.p99_us, s.max_us
    ));
}

impl MetricsSnapshot {
    /// Mean allocator calls per executed command — the wire-path pressure
    /// gauge. `None` when it cannot be read: no commands executed yet, or
    /// the process runs without the counting allocator (`alloc_count` 0).
    pub fn allocs_per_cmd(&self) -> Option<f64> {
        if self.alloc_count == 0 || self.store_executed == 0 {
            return None;
        }
        Some(self.alloc_count as f64 / self.store_executed as f64)
    }

    /// Renders the snapshot as one line of JSON (no trailing newline).
    /// Histograms appear as percentile summary objects, not raw buckets.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        o.push_str(&format!("{{\"replica\":{},\"protocol\":", self.replica));
        push_str_escaped(&mut o, &self.protocol);
        o.push_str(&format!(",\"uptime_us\":{}", self.uptime_us));

        let l = &self.lifecycle;
        o.push_str(&format!(
            ",\"lifecycle\":{{\"submitted\":{},\"journaled\":{},\"proposed\":{},\"committed\":{},\"executed\":{},\"replied\":{}",
            l.submitted, l.journaled, l.proposed, l.committed, l.executed, l.replied
        ));
        for (name, h) in [
            ("submit_to_journaled", &l.submit_to_journaled),
            ("submit_to_proposed", &l.submit_to_proposed),
            ("submit_to_committed", &l.submit_to_committed),
            ("submit_to_executed", &l.submit_to_executed),
            ("submit_to_replied", &l.submit_to_replied),
        ] {
            o.push_str(&format!(",\"{name}\":"));
            push_summary(&mut o, h);
        }
        o.push('}');

        let p = &self.protocol_stats;
        o.push_str(&format!(
            ",\"protocol_stats\":{{\"fast_paths\":{},\"slow_paths\":{},\"commits\":{},\"executions\":{},\"recoveries\":{},\"noops\":{},\"fast_path_ratio\":",
            p.fast_paths, p.slow_paths, p.commits, p.executions, p.recoveries, p.noops
        ));
        match p.fast_path_ratio() {
            Some(r) => push_f64(&mut o, r),
            None => o.push_str("null"),
        }
        o.push_str(&format!(
            ",\"commit_to_execute\":{{\"count\":{},\"mean_us\":",
            p.commit_to_execute_count
        ));
        push_f64(&mut o, p.commit_to_execute_mean_us());
        o.push_str(&format!(
            ",\"max_us\":{}}},\"mean_batch\":",
            p.commit_to_execute_max_us
        ));
        push_f64(&mut o, p.mean_batch_size());
        o.push_str(",\"mean_dependencies\":");
        push_f64(&mut o, p.mean_dependencies());
        o.push('}');

        let d = &self.durability;
        o.push_str(&format!(
            ",\"durability\":{{\"journal_records\":{},\"fsyncs\":{},\"fsync_us\":",
            d.journal_records, d.fsyncs
        ));
        push_summary(&mut o, &d.fsync_us);
        o.push_str(&format!(
            ",\"wal_segments\":{},\"snapshots_saved\":{},\"snapshot_cut_us\":",
            d.wal_segments, d.snapshots_saved
        ));
        push_summary(&mut o, &d.snapshot_cut_us);
        o.push_str(",\"snapshot_write_us\":");
        push_summary(&mut o, &d.snapshot_write_us);
        o.push_str(&format!(
            ",\"snapshot_bytes\":{},\"snapshots_coalesced\":{},\"wal_writes\":{}}}",
            d.snapshot_bytes, d.snapshots_coalesced, d.wal_writes
        ));

        o.push_str(&format!(
            ",\"detector\":{{\"suspicions\":{},\"trusts\":{},\"takeovers\":{},\"reorders\":{}}}",
            self.detector.suspicions,
            self.detector.trusts,
            self.detector.takeovers,
            self.detector.reorders
        ));

        o.push_str(&format!(
            ",\"gc\":{{\"rounds\":{},\"entries_dropped\":{},\"horizon\":[",
            self.gc.rounds, self.gc.entries_dropped
        ));
        for (i, (space, seq)) in self.gc.horizon.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!("[{space},{seq}]"));
        }
        o.push_str("]}");

        o.push_str(",\"links\":[");
        for (i, link) in self.links.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "{{\"peer\":{},\"connected\":{},\"reconnecting\":{},\"buffered\":{},\"dropped\":{},\"resent\":{},\"writes\":{},\"rtt_us\":{}}}",
                link.peer, link.connected, link.reconnecting, link.buffered, link.dropped, link.resent, link.writes, link.rtt_us
            ));
        }
        o.push(']');

        o.push_str(&format!(
            ",\"tracked_entries\":{},\"store_executed\":{},\"epoch\":{}",
            self.tracked_entries, self.store_executed, self.epoch
        ));

        o.push_str(&format!(
            ",\"alloc_count\":{},\"allocs_per_cmd\":",
            self.alloc_count
        ));
        match self.allocs_per_cmd() {
            Some(r) => push_f64(&mut o, r),
            None => o.push_str("null"),
        }

        let r = &self.reactor;
        o.push_str(&format!(
            ",\"reactor\":{{\"epoll_waits\":{},\"io_events\":{},\"tasks_polled\":{},\"worker_parks\":{},\"worker_unparks\":{},\"eventfd_signals\":{},\"timers_fired\":{},\"queue_depth_max\":{}}}",
            r.epoll_waits, r.io_events, r.tasks_polled, r.worker_parks, r.worker_unparks,
            r.eventfd_signals, r.timers_fired, r.queue_depth_max
        ));
        o.push('}');
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            replica: 1,
            protocol: "atlas".to_string(),
            uptime_us: 123_456,
            ..Default::default()
        };
        s.lifecycle.submitted = 10;
        s.lifecycle.replied = 10;
        for v in [120u64, 340, 900] {
            s.lifecycle.submit_to_replied.record(v);
        }
        s.protocol_stats.fast_paths = 9;
        s.protocol_stats.slow_paths = 1;
        s.durability.snapshots_saved = 3;
        s.durability.snapshot_cut_us.record(700);
        s.durability.snapshot_write_us.record(9_000);
        s.durability.snapshot_bytes = 4_096;
        s.durability.snapshots_coalesced = 2;
        s.durability.wal_writes = 17;
        s.gc.horizon = vec![(1, 5), (2, 3)];
        s.links.push(LinkSnapshot {
            peer: 2,
            connected: true,
            writes: 5,
            rtt_us: 30_250,
            ..Default::default()
        });
        s.detector.reorders = 1;
        s.epoch = 2;
        s.store_executed = 10;
        s.alloc_count = 1234;
        s.reactor.epoll_waits = 40;
        s.reactor.queue_depth_max = 6;
        s
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let s = sample_snapshot();
        let mut bytes = Vec::new();
        serde::Serialize::serialize(&s, &mut bytes);
        let mut r = serde::Reader::new(&bytes);
        let back = <MetricsSnapshot as serde::Deserialize>::deserialize(&mut r).expect("decodes");
        assert_eq!(s, back);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn another_layout_version_is_refused_by_name() {
        let mut bytes = Vec::new();
        serde::Serialize::serialize(&sample_snapshot(), &mut bytes);
        assert_eq!(bytes[..4], STATS_VERSION.to_le_bytes(), "the stamp leads");
        bytes[..4].copy_from_slice(&(STATS_VERSION + 1).to_le_bytes());
        let mut r = serde::Reader::new(&bytes);
        let err = <MetricsSnapshot as serde::Deserialize>::deserialize(&mut r).unwrap_err();
        let expected = format!(
            "version {}, this build reads version {STATS_VERSION}",
            STATS_VERSION + 1
        );
        assert!(err.to_string().contains(&expected), "{err}");
    }

    #[test]
    fn json_is_structurally_sound() {
        let j = sample_snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces: {j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for needle in [
            "\"replica\":1",
            "\"protocol\":\"atlas\"",
            "\"fast_path_ratio\":0.900",
            "\"submit_to_replied\":{\"count\":3",
            "\"snapshots_saved\":3,\"snapshot_cut_us\":{\"count\":1",
            "\"snapshot_write_us\":{\"count\":1",
            "\"snapshot_bytes\":4096,\"snapshots_coalesced\":2,\"wal_writes\":17}",
            "\"horizon\":[[1,5],[2,3]]",
            "\"peer\":2",
            "\"resent\":0,\"writes\":5,\"rtt_us\":30250}",
            "\"takeovers\":0,\"reorders\":1}",
            "\"epoch\":2",
            "\"alloc_count\":1234,\"allocs_per_cmd\":123.400",
            "\"reactor\":{\"epoll_waits\":40,\"io_events\":0",
            "\"timers_fired\":0,\"queue_depth_max\":6}}",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
        // JSONL consumers split on newlines — the rendering must be one line.
        assert!(!j.contains('\n'));
    }

    #[test]
    fn allocs_gauge_reads_absent_without_counter_or_commands() {
        let mut s = sample_snapshot();
        s.alloc_count = 0; // counting allocator not installed
        assert_eq!(s.allocs_per_cmd(), None);
        assert!(s.to_json().contains("\"allocs_per_cmd\":null"));
        s.alloc_count = 5;
        s.store_executed = 0; // nothing executed yet
        assert_eq!(s.allocs_per_cmd(), None);
    }
}
