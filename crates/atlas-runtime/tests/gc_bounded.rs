//! The acceptance drill for executed-entry garbage collection over real
//! TCP: a 5k-command Atlas run with GC enabled must keep the protocol's
//! per-command bookkeeping (`info` map) bounded — orders of magnitude
//! below the command count — while converging to exactly the same store
//! digest as a GC-disabled run of the same workload — both with a GC round
//! every 4 ticks and with the cadence never firing, where only the round
//! that runs before each snapshot cut compacts. Also the CI memory sanity
//! check: without GC the map holds every command ever committed.

use atlas_core::{ClientId, Config, Key, ProcessId};
use atlas_protocol::Atlas;
use atlas_runtime::{Client, Cluster, ClusterOptions};
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const OPS_PER_CLIENT: u64 = 2_500; // × 2 clients = 5k commands
const TOTAL: u64 = 2 * OPS_PER_CLIENT;
/// A GC cadence no run reaches (10 ms ticks): GC is on, but only the
/// rounds before snapshot cuts run.
const NEVER: u64 = 1_000_000;

/// Deterministic workload: each client cycles through its own key range,
/// so the final value of every key is fixed by the workload alone and two
/// independent cluster runs must land on the same digest (conflicting
/// cross-client writes would make the digest schedule-dependent).
async fn run_writes(addr: std::net::SocketAddr, client_id: ClientId) -> std::io::Result<()> {
    let mut client = Client::connect(addr, client_id).await?;
    for i in 0..OPS_PER_CLIENT {
        let key: Key = client_id * 10_000 + (i % 64);
        client.put(key, i).await?;
    }
    Ok(())
}

/// Runs the workload on a fresh cluster, waits for convergence, and
/// returns `(digest, final tracked-entry count per replica)`. With
/// `gc_every > 0` the tracked count is polled until it is below a quarter
/// of the commands: the cadence drains the workload tail, and with
/// [`NEVER`] the cuts every 1 024 records have already compacted all but
/// the commands since the last one.
fn run(gc_every: u64) -> (u64, Vec<u64>) {
    let options = ClusterOptions {
        tick_interval: Duration::from_millis(10),
        gc_every,
        snapshot_every: 1_024,
        ..ClusterOptions::default()
    };
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        let c1 = tokio::spawn(run_writes(cluster.addr(1), 1));
        let c2 = tokio::spawn(run_writes(cluster.addr(2), 2));
        c1.await.expect("client 1 task").expect("client 1 run");
        c2.await.expect("client 2 task").expect("client 2 run");

        // Convergence: every replica executed everything, same summary and
        // digest.
        let deadline = Instant::now() + Duration::from_secs(60);
        let digest = loop {
            let mut digests = Vec::new();
            for id in 1..=REPLICAS as ProcessId {
                if let Ok(mut probe) = Client::connect(cluster.addr(id), 900 + id as u64).await {
                    if let Ok((summary, digest)) = probe.execution_log().await {
                        if summary.len() >= TOTAL {
                            digests.push((summary, digest));
                        }
                    }
                }
            }
            if digests.len() == REPLICAS && digests.iter().all(|d| *d == digests[0]) {
                break digests[0].1;
            }
            assert!(Instant::now() < deadline, "no convergence: {digests:?}");
            tokio::time::sleep(Duration::from_millis(100)).await;
        };

        // Bookkeeping size. With GC on, give the collector (which runs on
        // the tick cadence and needs one more watermark exchange after the
        // last execution) time to drain the tail.
        let bound: u64 = if gc_every > 0 { TOTAL / 4 } else { u64::MAX };
        let deadline = Instant::now() + Duration::from_secs(30);
        let tracked = loop {
            let mut tracked = Vec::new();
            for id in 1..=REPLICAS as ProcessId {
                let mut probe = Client::connect(cluster.addr(id), 800 + id as u64)
                    .await
                    .expect("stats probe connects");
                let snapshot = probe.stats().await.expect("stats");
                assert_eq!(
                    snapshot.store_executed, TOTAL,
                    "replica {id} executed count"
                );
                tracked.push(snapshot.tracked_entries);
            }
            if tracked.iter().all(|&t| t <= bound) {
                break tracked;
            }
            assert!(
                Instant::now() < deadline,
                "GC never drained the tail: tracked {tracked:?} (bound {bound})"
            );
            tokio::time::sleep(Duration::from_millis(200)).await;
        };
        cluster.shutdown();
        (digest, tracked)
    })
}

#[test]
fn gc_keeps_info_map_bounded_and_digest_identical() {
    let (gc_digest, gc_tracked) = run(4);
    let (cut_digest, cut_tracked) = run(NEVER);
    let (plain_digest, plain_tracked) = run(0);

    // Same workload, same final state — GC is observationally invisible.
    assert_eq!(
        gc_digest, plain_digest,
        "GC-enabled run diverged from the GC-disabled run"
    );
    assert_eq!(
        cut_digest, plain_digest,
        "GC-at-the-cut run diverged from the GC-disabled run"
    );

    // Without GC the info map holds (at least) every command; with GC it
    // stays far below the command count — the memory sanity check.
    for (id, &t) in plain_tracked.iter().enumerate() {
        assert!(
            t >= TOTAL,
            "replica {}: expected >= {TOTAL} tracked entries without GC, got {t}",
            id + 1
        );
    }
    for (id, &t) in gc_tracked.iter().enumerate() {
        assert!(
            t < TOTAL / 4,
            "replica {}: info map not bounded under GC: {t} entries for {TOTAL} commands",
            id + 1
        );
    }
    // The cadence never fired, so every collected entry went in a round
    // before a snapshot cut.
    for (id, &t) in cut_tracked.iter().enumerate() {
        assert!(
            t < TOTAL / 4,
            "replica {}: info map not bounded by GC at the cut: {t} entries for {TOTAL} commands",
            id + 1
        );
    }
}
