//! Pure arithmetic behind the report: percentiles and the "enough samples
//! beyond" rule, quartiles as the pipeline computes them, `/proc` parsers,
//! stats-plane deltas and the lifecycle stage differences.
//!
//! Nothing here touches a socket, a clock or a file, so every function is
//! unit-tested on literal inputs.

use atlas_runtime::MetricsSnapshot;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0.0..=1.0`).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of the usual tail percentiles that still has
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, if any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Median of unsorted floats (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the pipeline's spread is `(q3 - q1) / median`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        // j = i * (n + 1) // 4, delta = i * (n + 1) - j * 4
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// `(q3 - q1) / median`, the pipeline's spread of a metric over runs.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// `(max - min) / median`, the single-run spread CALIBRATION.md records.
pub fn range_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

/// CPU time of the process in clock ticks (`utime + stime`), parsed from
/// the text of `/proc/self/stat`. The command name may contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state(3) ... utime is field 14, stime field 15.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// One `key: value` counter of `/proc/self/io` or `/proc/<pid>/status`
/// (the value's first whitespace-separated token, so `VmHWM: 123 kB`
/// yields 123).
pub fn parse_proc_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key)
            .then(|| v.split_ascii_whitespace().next()?.parse().ok())
            .flatten()
    })
}

/// Voluntary plus involuntary context switches of one task's `status` text.
pub fn parse_ctx_switches(status: &str) -> u64 {
    parse_proc_field(status, "voluntary_ctxt_switches").unwrap_or(0)
        + parse_proc_field(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// Time on a CPU of one task, ns: the first field of its `schedstat`.
/// Unlike the tick-sampled `utime`/`stime` it is exact, which matters for
/// threads that run in bursts far shorter than a tick.
pub fn parse_schedstat_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// Process counters read from `/proc/self` at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// Time on a CPU summed over every task of the process, ns.
    pub run_ns: u64,
    /// User CPU, clock ticks.
    pub utime_ticks: u64,
    /// System CPU, clock ticks.
    pub stime_ticks: u64,
    /// `read`-family system calls (`syscr`).
    pub syscr: u64,
    /// `write`-family system calls (`syscw`).
    pub syscw: u64,
    /// Bytes passed to read and write calls (`rchar + wchar`).
    pub io_bytes: u64,
    /// Context switches summed over every task of the process.
    pub ctx_switches: u64,
    /// Heap allocator calls (the counting allocator).
    pub allocs: u64,
    /// Peak resident set, KiB (`VmHWM`).
    pub rss_peak_kb: u64,
}

impl ProcSample {
    /// CPU microseconds (user + system) between `earlier` and `self`.
    pub fn cpu_us_since(&self, earlier: &ProcSample) -> f64 {
        self.run_ns.saturating_sub(earlier.run_ns) as f64 / 1e3
    }

    /// Share of that CPU time spent in the kernel.
    pub fn sys_share_since(&self, earlier: &ProcSample) -> f64 {
        let sys = self.stime_ticks.saturating_sub(earlier.stime_ticks) as f64;
        let all = (self.utime_ticks + self.stime_ticks)
            .saturating_sub(earlier.utime_ticks + earlier.stime_ticks) as f64;
        if all == 0.0 {
            0.0
        } else {
            sys / all
        }
    }
}

/// Mean of the samples a cumulative histogram gained between two
/// snapshots, from its `(sum, count)` at both ends.
pub fn delta_mean(start: (u128, u64), end: (u128, u64)) -> f64 {
    let count = end.1.saturating_sub(start.1);
    if count == 0 {
        return 0.0;
    }
    end.0.saturating_sub(start.0) as f64 / count as f64
}

/// Self-time of each lifecycle stage, µs, from the cumulative
/// `submit_to_*` means: successive differences, with everything outside
/// the coordinator (`client`) as the remainder of the client-side mean.
/// The six values sum to `client_mean_us` by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stages {
    /// Client, sockets and session tasks: client mean − submit→replied.
    pub client: f64,
    /// Submission → journal durable.
    pub journaled: f64,
    /// Journal durable → handed to the protocol.
    pub proposed: f64,
    /// Proposal → commit observed (quorum round trips).
    pub committed: f64,
    /// Commit → executed (dependency waits and the store).
    pub executed: f64,
    /// Executed → reply handed to the session.
    pub replied: f64,
}

impl Stages {
    /// `cumulative` holds the interval means of submit→journaled,
    /// →proposed, →committed, →executed, →replied, in that order.
    pub fn from_cumulative(client_mean_us: f64, cumulative: [f64; 5]) -> Self {
        let [journaled, proposed, committed, executed, replied] = cumulative;
        Self {
            client: client_mean_us - replied,
            journaled,
            proposed: proposed - journaled,
            committed: committed - proposed,
            executed: executed - committed,
            replied: replied - executed,
        }
    }

    /// Sum of the six self-times.
    #[cfg(test)]
    pub fn sum(&self) -> f64 {
        self.client + self.journaled + self.proposed + self.committed + self.executed + self.replied
    }
}

/// What the live replicas' stats planes gained over the measured interval,
/// summed over the replicas alive at both ends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsDelta {
    /// Interval means of the five cumulative lifecycle histograms, µs,
    /// weighted over all coordinators.
    pub cumulative_us: [f64; 5],
    /// Commands replied to by their coordinators.
    pub replied: u64,
    /// Commands executed, summed over replicas (≈ 3 × commands).
    pub store_executed: u64,
    /// Fast-path commits.
    pub fast_paths: u64,
    /// Slow-path commits.
    pub slow_paths: u64,
    /// Recovery takeovers started by the protocol.
    pub recoveries: u64,
    /// `noOp`s committed by recovery.
    pub noops: u64,
    /// Journal records appended.
    pub journal_records: u64,
    /// Metered fsyncs.
    pub fsyncs: u64,
    /// Mean metered fsync, µs.
    pub fsync_mean_us: f64,
    /// Total metered fsync time, µs.
    pub fsync_total_us: f64,
    /// Snapshots written.
    pub snapshots: u64,
    /// GC rounds that advanced the horizon.
    pub gc_rounds: u64,
    /// Protocol entries GC dropped.
    pub gc_dropped: u64,
    /// Protocol entries tracked at the end, summed over replicas.
    pub tracked_entries_end: u64,
    /// Frames rewritten after a reconnect.
    pub resent_frames: u64,
    /// Frames dropped at a full resend buffer.
    pub dropped_frames: u64,
    /// Trusted → suspected transitions.
    pub suspicions: u64,
    /// Takeovers the detector dispatched.
    pub takeovers: u64,
}

impl StatsDelta {
    /// Pairs snapshots by replica identifier; a replica missing at either
    /// end (killed during the interval) contributes nothing.
    pub fn between(start: &[MetricsSnapshot], end: &[MetricsSnapshot]) -> Self {
        let mut d = StatsDelta::default();
        let mut sums = [(0u128, 0u64); 5];
        let mut fsync = (0u128, 0u64);
        for e in end {
            let Some(s) = start.iter().find(|s| s.replica == e.replica) else {
                continue;
            };
            let hists = |m: &MetricsSnapshot| {
                let l = &m.lifecycle;
                [
                    (l.submit_to_journaled.sum(), l.submit_to_journaled.count()),
                    (l.submit_to_proposed.sum(), l.submit_to_proposed.count()),
                    (l.submit_to_committed.sum(), l.submit_to_committed.count()),
                    (l.submit_to_executed.sum(), l.submit_to_executed.count()),
                    (l.submit_to_replied.sum(), l.submit_to_replied.count()),
                ]
            };
            for (acc, (hs, he)) in sums.iter_mut().zip(hists(s).into_iter().zip(hists(e))) {
                acc.0 += he.0.saturating_sub(hs.0);
                acc.1 += he.1.saturating_sub(hs.1);
            }
            d.replied += e.lifecycle.replied.saturating_sub(s.lifecycle.replied);
            d.store_executed += e.store_executed.saturating_sub(s.store_executed);
            let (ps, pe) = (&s.protocol_stats, &e.protocol_stats);
            d.fast_paths += pe.fast_paths.saturating_sub(ps.fast_paths);
            d.slow_paths += pe.slow_paths.saturating_sub(ps.slow_paths);
            d.recoveries += pe.recoveries.saturating_sub(ps.recoveries);
            d.noops += pe.noops.saturating_sub(ps.noops);
            let (ds, de) = (&s.durability, &e.durability);
            d.journal_records += de.journal_records.saturating_sub(ds.journal_records);
            d.fsyncs += de.fsyncs.saturating_sub(ds.fsyncs);
            fsync.0 += de.fsync_us.sum().saturating_sub(ds.fsync_us.sum());
            fsync.1 += de.fsync_us.count().saturating_sub(ds.fsync_us.count());
            d.snapshots += de.snapshots_saved.saturating_sub(ds.snapshots_saved);
            d.gc_rounds += e.gc.rounds.saturating_sub(s.gc.rounds);
            d.gc_dropped += e.gc.entries_dropped.saturating_sub(s.gc.entries_dropped);
            d.tracked_entries_end += e.tracked_entries;
            let link_sum = |m: &MetricsSnapshot| {
                m.links
                    .iter()
                    .fold((0u64, 0u64), |a, l| (a.0 + l.resent, a.1 + l.dropped))
            };
            let (ls, le) = (link_sum(s), link_sum(e));
            d.resent_frames += le.0.saturating_sub(ls.0);
            d.dropped_frames += le.1.saturating_sub(ls.1);
            d.suspicions += e.detector.suspicions.saturating_sub(s.detector.suspicions);
            d.takeovers += e.detector.takeovers.saturating_sub(s.detector.takeovers);
        }
        for (out, acc) in d.cumulative_us.iter_mut().zip(sums) {
            *out = delta_mean((0, 0), acc);
        }
        d.fsync_mean_us = delta_mean((0, 0), fsync);
        d.fsync_total_us = fsync.0 as f64;
        d
    }

    /// Fast-path share of the interval's commits (1 when nothing committed,
    /// so an idle interval does not read as "all slow").
    pub fn fast_path_ratio(&self) -> f64 {
        let total = self.fast_paths + self.slow_paths;
        if total == 0 {
            1.0
        } else {
            self.fast_paths as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // 1000 samples: exactly 10 lie beyond p99, 1 beyond p99.9.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1000, 0.999), 1);
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(20_000), Some(0.999));
        // Too few samples for any tail at all.
        assert_eq!(highest_supported_percentile(50), None);
        // The issue's floor: 8 000 samples leave 80 beyond p99.
        assert_eq!(samples_beyond(8_000, 0.99), 80);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert!((range_share(&v) - 9.0 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn proc_stat_survives_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 2 3 0 -1 4194304 83 0 0 0 117 33 0 0 20 0 5 0 99 1 2";
        assert_eq!(parse_stat_cpu_ticks(stat), Some((117, 33)));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        let a = ProcSample {
            run_ns: 2_000_000,
            utime_ticks: 100,
            stime_ticks: 50,
            ..ProcSample::default()
        };
        let b = ProcSample {
            run_ns: 1_002_000_000,
            utime_ticks: 160,
            stime_ticks: 90,
            ..ProcSample::default()
        };
        assert_eq!(b.cpu_us_since(&a), 1_000_000.0);
        assert_eq!(
            parse_schedstat_run_ns("185584462 72578201 143\n"),
            Some(185_584_462)
        );
        assert_eq!(parse_schedstat_run_ns(""), None);
        assert!((b.sys_share_since(&a) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn proc_io_and_status_fields_parse() {
        let io = "rchar: 3980\nwchar: 12\nsyscr: 9\nsyscw: 4\nread_bytes: 0\n";
        assert_eq!(parse_proc_field(io, "syscr"), Some(9));
        assert_eq!(parse_proc_field(io, "wchar"), Some(12));
        assert_eq!(parse_proc_field(io, "nope"), None);
        let status = "Name:\tx\nVmHWM:\t  5120 kB\nvoluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_proc_field(status, "VmHWM"), Some(5120));
        assert_eq!(parse_ctx_switches(status), 10);
    }

    #[test]
    fn stages_are_successive_differences_and_sum_to_the_client_mean() {
        let s = Stages::from_cumulative(150.0, [10.0, 12.0, 90.0, 95.0, 100.0]);
        assert_eq!(
            s,
            Stages {
                client: 50.0,
                journaled: 10.0,
                proposed: 2.0,
                committed: 78.0,
                executed: 5.0,
                replied: 5.0,
            }
        );
        assert!((s.sum() - 150.0).abs() < 1e-9);
        // Without the client remainder the stages are submit→replied.
        assert!((s.sum() - s.client - 100.0).abs() < 1e-9);
    }

    fn snapshot(replica: u32, scale: u64) -> MetricsSnapshot {
        let mut m = MetricsSnapshot {
            replica,
            store_executed: 30 * scale,
            tracked_entries: 5,
            ..MetricsSnapshot::default()
        };
        m.lifecycle.replied = 10 * scale;
        for _ in 0..10 * scale {
            m.lifecycle.submit_to_journaled.record(10);
            m.lifecycle.submit_to_replied.record(100);
        }
        m.protocol_stats.fast_paths = 10 * scale;
        m.durability.journal_records = 50 * scale;
        m.durability.fsyncs = scale;
        for _ in 0..scale {
            m.durability.fsync_us.record(2_000);
        }
        m
    }

    #[test]
    fn stats_delta_subtracts_per_replica_and_skips_the_dead() {
        let start = vec![snapshot(1, 1), snapshot(2, 1), snapshot(3, 1)];
        // Replica 2 died during the interval: absent at the end.
        let end = vec![snapshot(1, 4), snapshot(3, 2)];
        let d = StatsDelta::between(&start, &end);
        assert_eq!(d.replied, 30 + 10);
        assert_eq!(d.store_executed, 90 + 30);
        assert_eq!(d.journal_records, 150 + 50);
        assert_eq!(d.fsyncs, 3 + 1);
        assert_eq!(d.tracked_entries_end, 10);
        assert!((d.cumulative_us[0] - 10.0).abs() < 1.0);
        assert!((d.cumulative_us[4] - 100.0).abs() < 5.0);
        assert!((d.fsync_mean_us - 2_000.0).abs() < 100.0);
        assert_eq!(d.fast_path_ratio(), 1.0);
        assert_eq!(StatsDelta::default().fast_path_ratio(), 1.0);
        assert_eq!(delta_mean((100, 1), (400, 4)), 100.0);
        assert_eq!(delta_mean((100, 1), (100, 1)), 0.0);
    }
}
