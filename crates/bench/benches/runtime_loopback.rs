//! Baseline for the real TCP stack: commands/sec through a 3-replica Atlas
//! cluster on localhost, measured at a closed-loop client. Later transport
//! optimizations (frame coalescing, zero-copy encode, connection pooling)
//! are judged against these numbers.
//!
//! After each benchmark the serving replica's [`MetricsSnapshot`] is
//! captured over the stats plane; with `ATLAS_BENCH_METRICS=<path>` set the
//! snapshots are written as `{"snapshots": [...]}` so CI can assert the
//! benchmark ran on the protocol's fast path (`ci/bench_guard.py
//! --metrics`), not just that it was fast.

use atlas_core::{Command, Config, Rifl};
use atlas_metrics::MetricsSnapshot;
use atlas_protocol::Atlas;
use atlas_runtime::{Client, Cluster};
use criterion::{criterion_group, Criterion};
use std::sync::Mutex;

/// Count every heap allocation in the bench process so the captured
/// replica snapshots carry the allocations-per-command gauge
/// (`alloc_count` / `store_executed`), gated by `ci/bench_guard.py
/// --max-allocs-per-cmd`. The counter spans the whole process — three
/// replicas plus this client — which inflates the constant but still
/// catches a wire path that regresses to per-frame allocation.
#[global_allocator]
static ALLOC: atlas_metrics::CountingAllocator = atlas_metrics::CountingAllocator;

/// Replica snapshots captured at the end of each benchmark, in run order,
/// under the benchmark's name.
static SNAPSHOTS: Mutex<Vec<(&str, MetricsSnapshot)>> = Mutex::new(Vec::new());

const ROUND_TRIP: &str = "runtime_loopback/put_round_trip";
const BATCH_16: &str = "runtime_loopback/put_batch_16";

struct Harness {
    rt: tokio::runtime::Runtime,
    _cluster: Cluster,
    client: Client,
    seq: u64,
}

impl Harness {
    fn new() -> Self {
        let rt = tokio::runtime::Runtime::new().expect("runtime");
        let (cluster, client) = rt.block_on(async {
            let cluster = Cluster::spawn::<Atlas>(Config::new(3, 1))
                .await
                .expect("cluster boots");
            let client = Client::connect(cluster.addr(1), 1).await.expect("client");
            (cluster, client)
        });
        Self {
            rt,
            _cluster: cluster,
            client,
            seq: 0,
        }
    }

    fn next_rifl(&mut self) -> Rifl {
        self.seq += 1;
        Rifl::new(1, self.seq)
    }

    /// Fetches the serving replica's view of the run and stashes it for
    /// [`capture_metrics`].
    fn capture_snapshot(&mut self, bench: &'static str) {
        let snapshot = self
            .rt
            .block_on(async {
                let mut probe = Client::connect(self._cluster.addr(1), 900).await?;
                probe.stats().await
            })
            .expect("stats probe");
        SNAPSHOTS.lock().unwrap().push((bench, snapshot));
    }
}

/// Writes the captured snapshots to `$ATLAS_BENCH_METRICS` (JSON, one
/// `snapshots` array of [`MetricsSnapshot::to_json`] objects, each with a
/// leading `bench` key so per-benchmark gates find theirs). No-op when
/// the variable is unset, so local `cargo bench` runs stay file-free.
fn capture_metrics() {
    let Some(path) = std::env::var_os("ATLAS_BENCH_METRICS") else {
        return;
    };
    let snapshots = SNAPSHOTS.lock().unwrap();
    let body: Vec<String> = snapshots
        .iter()
        .map(|(bench, s)| format!("{{\"bench\":\"{bench}\",{}", &s.to_json()[1..]))
        .collect();
    let json = format!("{{\"snapshots\":[{}]}}\n", body.join(","));
    std::fs::write(&path, json).expect("write ATLAS_BENCH_METRICS");
}

/// One conflicting PUT per iteration: full submit → commit → execute →
/// reply round trip over loopback TCP.
fn put_round_trip(c: &mut Criterion) {
    let mut h = Harness::new();
    c.bench_function(ROUND_TRIP, |b| {
        b.iter(|| {
            let rifl = h.next_rifl();
            let cmd = Command::put(rifl, 0, rifl.seq, 64);
            h.rt.block_on(h.client.submit(cmd))
                .expect("command executes")
        });
    });
    h.capture_snapshot(ROUND_TRIP);
}

/// A 16-command batch per iteration (single submit frame, 16 executions
/// awaited): measures how much framing/syscall overhead batching amortizes.
fn put_batch_16(c: &mut Criterion) {
    let mut h = Harness::new();
    c.bench_function(BATCH_16, |b| {
        b.iter(|| {
            let cmds: Vec<Command> = (0..16)
                .map(|i| {
                    let rifl = h.next_rifl();
                    // Distinct keys: the batch commits in parallel.
                    Command::put(rifl, 1 + i, rifl.seq, 64)
                })
                .collect();
            h.rt.block_on(h.client.submit_batch(cmds))
                .expect("batch executes")
        });
    });
    h.capture_snapshot(BATCH_16);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = put_round_trip, put_batch_16
}

// What criterion's `criterion_main!(benches)` expands to, plus the metrics
// capture: the snapshot file must be written after every group has run.
fn main() {
    benches();
    criterion::emit_json();
    capture_metrics();
}
