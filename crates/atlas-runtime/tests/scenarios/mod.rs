//! Shared support for the WAN scenario harness (`wan_scenarios.rs`):
//! geo-latency [`NetProfile`]s modeled on the paper's 3- and 5-site
//! deployments, convergence/workload helpers over real TCP clients, and
//! the per-figure `BENCH_fig*.json` reports `ci/bench_guard.py` ingests.

use atlas_core::{ClientId, Key, ProcessId, Rifl};
use atlas_metrics::MetricsSnapshot;
use atlas_runtime::{Client, Cluster, LinkRule, NetProfile};
use kvstore::ExecutionSummary;
use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// WAN scenarios boot real clusters with injected latency and partitions;
/// running them concurrently would let one scenario's load distort
/// another's timing assertions, so every test takes this guard first.
pub fn serial() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    // A poisoned guard only means an earlier scenario failed; the cluster
    // it leaked is gone with its runtime, so later scenarios proceed.
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

const MS: Duration = Duration::from_millis(1);

/// One-way delays between replicas `a` and `b`, in milliseconds.
pub type Links = [(ProcessId, ProcessId, u64)];

/// A 3-site geo profile: one-way peer delays of 10/15/20 ms — the shape of
/// the paper's 3-region deployments, scaled down so a scenario finishes in
/// CI time. Each site's closest fast quorum is 2 sites, so the round trips
/// to beat are 20/20/30 ms.
pub const GEO3_LINKS: [(ProcessId, ProcessId, u64); 3] = [(1, 2, 10), (1, 3, 20), (2, 3, 15)];

/// A 5-site geo profile (one-way delays 10–40 ms). With `f = 2` a fast
/// quorum is 4 sites, so commits wait on the 3rd-closest peer.
pub const GEO5_LINKS: [(ProcessId, ProcessId, u64); 10] = [
    (1, 2, 10),
    (1, 3, 15),
    (1, 4, 20),
    (1, 5, 40),
    (2, 3, 10),
    (2, 4, 25),
    (2, 5, 35),
    (3, 4, 15),
    (3, 5, 30),
    (4, 5, 20),
];

/// Every link of `links`, both directions, at its delay plus up to
/// `jitter`.
pub fn geo(seed: u64, links: &Links, jitter: Duration) -> NetProfile {
    let mut profile = NetProfile::new(seed);
    for &(a, b, ms) in links {
        let delay = Duration::from_millis(ms);
        profile = profile
            .rule(LinkRule::link(a, b).delay(delay).jitter(jitter))
            .rule(LinkRule::link(b, a).delay(delay).jitter(jitter));
    }
    profile
}

/// [`GEO3_LINKS`] with 2 ms of jitter.
pub fn geo3(seed: u64) -> NetProfile {
    geo(seed, &GEO3_LINKS, 2 * MS)
}

/// [`GEO5_LINKS`] with 2 ms of jitter.
pub fn geo5(seed: u64) -> NetProfile {
    geo(seed, &GEO5_LINKS, 2 * MS)
}

/// The same sites with replicas `a` and `b` trading places: another
/// identifier-to-site assignment, so identifier order is not distance
/// order.
pub fn swap(links: &Links, a: ProcessId, b: ProcessId) -> Vec<(ProcessId, ProcessId, u64)> {
    let trade = |p: ProcessId| match p {
        p if p == a => b,
        p if p == b => a,
        p => p,
    };
    links
        .iter()
        .map(|&(x, y, ms)| (trade(x), trade(y), ms))
        .collect()
}

/// The round trip of replica `id`'s closest quorum of `size` (itself
/// included) over `links`: twice the one-way delay to its `size − 1`-th
/// closest peer — the latency floor of a command it coordinates.
pub fn quorum_floor(links: &Links, id: ProcessId, size: usize) -> Duration {
    let mut delays: Vec<u64> = links
        .iter()
        .filter(|&&(a, b, _)| a == id || b == id)
        .map(|&(_, _, ms)| ms)
        .collect();
    delays.sort_unstable();
    Duration::from_millis(2 * delays[size - 2])
}

/// Runs `ops` sequential puts on non-conflicting per-client keys and
/// returns each put's measured latency.
pub async fn timed_writes(
    addr: SocketAddr,
    client_id: ClientId,
    ops: u64,
) -> io::Result<Vec<Duration>> {
    let mut client = Client::connect(addr, client_id).await?;
    let mut latencies = Vec::with_capacity(ops as usize);
    for i in 0..ops {
        let key: Key = client_id * 10_000 + (i % 32);
        let t0 = Instant::now();
        client.put(key, i).await?;
        latencies.push(t0.elapsed());
    }
    Ok(latencies)
}

/// Like [`timed_writes`] on **conflicting** shared keys (every command
/// conflicts with every other), continuing a client's sequence numbers so
/// phased workloads can reuse an identifier.
pub async fn conflicting_writes(
    addr: SocketAddr,
    client_id: ClientId,
    seq_base: u64,
    ops: u64,
) -> io::Result<Vec<Duration>> {
    const SHARED_KEYS: Key = 4;
    let mut client = Client::connect_with_seq(addr, client_id, seq_base + 1).await?;
    let mut latencies = Vec::with_capacity(ops as usize);
    for i in seq_base..seq_base + ops {
        let t0 = Instant::now();
        client
            .put((client_id + i) % SHARED_KEYS, client_id * 1_000_000 + i)
            .await?;
        latencies.push(t0.elapsed());
    }
    Ok(latencies)
}

/// The `q`-quantile of a latency series, in (fractional) milliseconds.
pub fn percentile_ms(latencies: &[Duration], q: f64) -> f64 {
    assert!(!latencies.is_empty(), "no latency samples");
    let mut sorted = latencies.to_vec();
    sorted.sort();
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

/// The largest sample of a latency series, in milliseconds.
pub fn max_ms(latencies: &[Duration]) -> f64 {
    latencies
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .fold(0.0, f64::max)
}

/// Fetches replica `id`'s metrics snapshot over the stats plane.
pub async fn snapshot(cluster: &Cluster, id: ProcessId) -> Option<MetricsSnapshot> {
    let mut probe = Client::connect(cluster.addr(id), 990 + id as u64)
        .await
        .ok()?;
    probe.stats().await.ok()
}

/// Polls replica `id`'s snapshot until `done` holds, panicking with `what`
/// after `deadline`.
pub async fn snapshot_when(
    cluster: &Cluster,
    id: ProcessId,
    deadline: Duration,
    what: &str,
    done: impl Fn(&MetricsSnapshot) -> bool,
) -> MetricsSnapshot {
    let deadline = Instant::now() + deadline;
    loop {
        if let Some(snapshot) = snapshot(cluster, id).await {
            if done(&snapshot) {
                return snapshot;
            }
            assert!(
                Instant::now() < deadline,
                "replica {id}: timed out waiting for {what}; detector {:?}",
                snapshot.detector
            );
        } else {
            assert!(
                Instant::now() < deadline,
                "replica {id}: timed out waiting for {what} (stats unreachable)"
            );
        }
        tokio::time::sleep(Duration::from_millis(50)).await;
    }
}

/// Cluster-wide fast/slow path split, summed across the given replicas'
/// snapshots (each commit is classified by exactly one coordinator).
pub fn path_split(snapshots: &[MetricsSnapshot]) -> (u64, u64) {
    snapshots.iter().fold((0, 0), |(fast, slow), s| {
        (
            fast + s.protocol_stats.fast_paths,
            slow + s.protocol_stats.slow_paths,
        )
    })
}

/// Polls the replicas in `ids` until they report the same execution
/// summary and digest, with at least as many commands executed as
/// `must_contain` names; returns each polled replica's `(summary, digest)`.
/// A replica in `ids` answered each of `must_contain`'s commands, so equal
/// summaries hold them everywhere.
pub async fn converge_on(
    cluster: &Cluster,
    ids: &[ProcessId],
    must_contain: &HashSet<Rifl>,
    deadline: Duration,
) -> Vec<(ExecutionSummary, u64)> {
    let deadline = Instant::now() + deadline;
    loop {
        let mut logs = Vec::new();
        for &id in ids {
            if let Ok(mut probe) = Client::connect(cluster.addr(id), 900 + id as u64).await {
                if let Ok(log) = probe.execution_log().await {
                    logs.push(log);
                }
            }
        }
        if logs.len() == ids.len()
            && logs.iter().all(|log| *log == logs[0])
            && logs[0].0.len() >= must_contain.len() as u64
        {
            return logs;
        }
        assert!(Instant::now() < deadline, "no convergence: {logs:?}");
        tokio::time::sleep(Duration::from_millis(100)).await;
    }
}

/// Collects the rifls of a completed workload for [`converge_on`]'s
/// `must_contain` (client sequences are 1-based).
pub fn rifls_of(client_id: ClientId, seq_base: u64, ops: u64) -> HashSet<Rifl> {
    (seq_base + 1..=seq_base + ops)
        .map(|seq| Rifl::new(client_id, seq))
        .collect()
}

/// One bounded measurement inside a [`FigureReport`].
pub struct Check {
    /// Measurement name, e.g. `fast_path_ratio`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Inclusive lower bound, when the figure asserts one.
    pub min: Option<f64>,
    /// Inclusive upper bound, when the figure asserts one.
    pub max: Option<f64>,
}

/// A paper-figure scenario's measured results: asserted in-process by
/// [`FigureReport::check`] and emitted as `BENCH_<figure>.json` for
/// `ci/bench_guard.py --fig`, so CI re-validates exactly what the test
/// measured.
pub struct FigureReport {
    figure: &'static str,
    checks: Vec<Check>,
}

impl FigureReport {
    /// Starts a report for `figure` (e.g. `fig_fast_path_geo3`).
    pub fn new(figure: &'static str) -> Self {
        Self {
            figure,
            checks: Vec::new(),
        }
    }

    /// Records one measurement and asserts it lies within `[min, max]`
    /// (either bound optional) — the scenario invariant and the emitted
    /// artifact can never disagree.
    pub fn check(&mut self, name: &'static str, value: f64, min: Option<f64>, max: Option<f64>) {
        if let Some(min) = min {
            assert!(
                value >= min,
                "{}: {name} = {value} below floor {min}",
                self.figure
            );
        }
        if let Some(max) = max {
            assert!(
                value <= max,
                "{}: {name} = {value} above ceiling {max}",
                self.figure
            );
        }
        self.checks.push(Check {
            name,
            value,
            min,
            max,
        });
    }

    /// Records a measurement without bounds (context for the artifact).
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.check(name, value, None, None);
    }

    /// Writes `BENCH_<figure>.json` into `$ATLAS_WAN_BENCH_DIR` (or
    /// `target/wan-figures/`) and returns the path. Hand-rolled JSON — the
    /// offline dependency set has no JSON codec.
    pub fn emit(&self) -> PathBuf {
        let dir = std::env::var_os("ATLAS_WAN_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/wan-figures"));
        std::fs::create_dir_all(&dir).expect("create figure dir");
        let mut json = format!("{{\"figure\":\"{}\",\"checks\":[", self.figure);
        for (i, check) in self.checks.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"name\":\"{}\",\"value\":{:.6}",
                check.name, check.value
            ));
            if let Some(min) = check.min {
                json.push_str(&format!(",\"min\":{min:.6}"));
            }
            if let Some(max) = check.max {
                json.push_str(&format!(",\"max\":{max:.6}"));
            }
            json.push('}');
        }
        json.push_str("]}\n");
        let path = dir.join(format!("BENCH_{}.json", self.figure));
        std::fs::write(&path, json).expect("write figure report");
        path
    }
}
