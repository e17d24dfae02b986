//! The names, units, directions and bounds `BENCHMARK.json` declares, as
//! the harness and the repeatability tool use them. A test holds the two
//! in step.

/// An end-to-end metric: what a user of the cluster sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. The rule: the largest, over the
    /// workloads in CALIBRATION.md, of twice the gap between two sets'
    /// medians and three times a set's quartile spread, rounded up to a
    /// whole percent, at most the pipeline's 0.25 — where the current
    /// table puts all five. `repeat` prints what a fresh table supports.
    pub bound: f64,
}

/// The end-to-end metrics, in report order.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// The per-layer metrics of a traced run: `(name, unit, higher is better)`.
pub const PER_LAYER: [(&str, &str, bool); 56] = [
    ("client.requests", "count", true),
    ("client.failed", "count", false),
    ("client.lost_with_site", "count", false),
    ("client.latency_p99_window_us", "us", false),
    ("client.gen_late_p99_us", "us", false),
    ("stage.client_us", "us", false),
    ("stage.journaled_us", "us", false),
    ("stage.proposed_us", "us", false),
    ("stage.committed_us", "us", false),
    ("stage.executed_us", "us", false),
    ("stage.replied_us", "us", false),
    ("protocol.fast_path_ratio", "ratio", true),
    ("protocol.slow_paths", "count", false),
    ("protocol.recoveries", "count", false),
    ("protocol.noops", "count", false),
    ("protocol.tracked_entries_end", "count", false),
    ("journal.records_per_op", "1/op", false),
    ("wal.fsyncs_per_op", "1/op", false),
    ("wal.fsync_mean_us", "us", false),
    ("wal.fsync_busy_share", "ratio", false),
    ("snapshot.count", "count", false),
    ("snapshot.per_1k_ops", "1/kop", false),
    ("gc.rounds", "count", true),
    ("gc.entries_dropped_per_op", "1/op", true),
    ("transport.resent_frames", "count", false),
    ("transport.dropped_frames", "count", false),
    ("detector.suspicions", "count", false),
    ("detector.takeovers", "count", false),
    ("detector.stall_ms", "ms", false),
    ("proc.sys_share", "ratio", false),
    ("proc.syscalls_per_op", "1/op", false),
    ("proc.ctx_switches_per_op", "1/op", false),
    ("proc.allocs_per_op", "1/op", false),
    ("proc.io_bytes_per_op", "B/op", false),
    ("proc.rss_peak_mb", "MB", false),
    ("wire.encode_client_ns", "ns", false),
    ("wire.decode_client_ns", "ns", false),
    ("wire.encode_peer_ns", "ns", false),
    ("wire.decode_peer_ns", "ns", false),
    ("wire.encode_reply_ns", "ns", false),
    ("wal.append_ns", "ns", false),
    ("wal.append_fsync_us", "us", false),
    ("journal.snapshot_ms", "ms", false),
    ("protocol.commit_cycle_ns", "ns", false),
    ("keydeps.conflicts_and_add_ns", "ns", false),
    ("graph.commit_ns", "ns", false),
    ("graph.commit_chain_ns", "ns", false),
    ("kvstore.execute_ns", "ns", false),
    ("reactor.task_wake_us", "us", false),
    ("reactor.tcp_echo_rtt_us", "us", false),
    ("reactor.timer_overshoot_us", "us", false),
    ("budget.walk_cpu_us_per_op", "us", false),
    ("budget.unattributed_us", "us", false),
    ("trace.overhead_pct", "%", false),
    // Set-up as its own per-layer figures, so that work moved into
    // set-up shows in a traced run too.
    ("setup.median_s", "s", false),
    ("setup.first_s", "s", false),
];

/// Length of the measured interval unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` is hand-written to the pipeline's contract; this
    /// keeps it and the tables above from drifting apart.
    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for e in END_TO_END {
            let better = if e.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                e.name, e.unit, e.bound
            );
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        for (name, unit, higher) in PER_LAYER {
            let better = if higher { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    }
}
