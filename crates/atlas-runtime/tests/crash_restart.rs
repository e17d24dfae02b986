//! Crash/restart fault-injection tests of the durability subsystem, over
//! real TCP:
//!
//! * a replica killed mid-workload (~1k commands) and restarted under the
//!   same identifier + data directory recovers from its journal and
//!   converges to the same store digest as the survivors;
//! * the same scenario with a **wiped** data directory recovers via
//!   peer-assisted catch-up (snapshot transfer) instead;
//! * the kill and the restart land mid-burst under 16-command requests
//!   (batched journal writes and held effects) and nothing acknowledged is
//!   lost;
//! * a small snapshot cadence forces the snapshot + journal-suffix restore
//!   path (not just full replay);
//! * a restart smoke test runs for all four protocols.

use atlas_core::{ClientId, Command, Config, Dot, Key, ProcessId, Protocol, Rifl};
use atlas_protocol::Atlas;
use atlas_runtime::{Client, Cluster, ClusterOptions};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const SHARED_KEYS: Key = 4;

/// What op `i` of client `client_id` writes: shared keys (heavily
/// conflicting) with a private key mixed in.
fn write_key(client_id: ClientId, i: u64) -> Key {
    if i % 3 == 2 {
        1_000 + client_id
    } else {
        (client_id + i) % SHARED_KEYS
    }
}

/// Runs `ops` sequential writes for `client_id` against `addr`, starting at
/// sequence `seq_base + 1`.
async fn run_writes(
    addr: std::net::SocketAddr,
    client_id: ClientId,
    seq_base: u64,
    ops: u64,
) -> std::io::Result<()> {
    let mut client = Client::connect_with_seq(addr, client_id, seq_base + 1).await?;
    for i in seq_base..seq_base + ops {
        let key = write_key(client_id, i);
        let value = client_id * 1_000_000 + i;
        client.put(key, value).await?;
    }
    Ok(())
}

/// Polls every replica until all executed `expected` commands and the store
/// digests agree; returns each replica's `(entries, digest)`.
async fn converge(
    cluster: &Cluster,
    expected: usize,
    deadline: Duration,
) -> Vec<(Vec<(Dot, Rifl)>, u64)> {
    let deadline = Instant::now() + deadline;
    loop {
        let mut logs = Vec::new();
        for id in 1..=REPLICAS as ProcessId {
            if let Ok(mut probe) = Client::connect(cluster.addr(id), 900 + id as u64).await {
                if let Ok(log) = probe.execution_log().await {
                    logs.push(log);
                }
            }
        }
        if logs.len() == REPLICAS
            && logs.iter().all(|(entries, _)| entries.len() >= expected)
            && logs.iter().all(|(_, digest)| *digest == logs[0].1)
        {
            return logs;
        }
        assert!(
            Instant::now() < deadline,
            "no convergence: {:?} commands executed (want {expected}), digests {:?}",
            logs.iter().map(|(e, _)| e.len()).collect::<Vec<_>>(),
            logs.iter().map(|(_, d)| d).collect::<Vec<_>>(),
        );
        tokio::time::sleep(Duration::from_millis(100)).await;
    }
}

/// Asserts every replica ordered the writes of every key identically
/// (conflicting commands must execute in the same order everywhere; the
/// workload is deterministic so the rifl → key mapping can be rebuilt).
fn assert_same_conflict_order(
    logs: &[(Vec<(Dot, Rifl)>, u64)],
    clients: &[(ClientId, u64)], // (client, total ops)
) {
    let mut key_of: HashMap<Rifl, Key> = HashMap::new();
    for &(client_id, ops) in clients {
        for i in 0..ops {
            key_of.insert(Rifl::new(client_id, i + 1), write_key(client_id, i));
        }
    }
    let projection = |entries: &[(Dot, Rifl)], key: Key| -> Vec<Rifl> {
        entries
            .iter()
            .filter(|(_, rifl)| key_of.get(rifl) == Some(&key))
            .map(|(_, rifl)| *rifl)
            .collect()
    };
    let keys: HashSet<Key> = key_of.values().copied().collect();
    for key in keys {
        let reference = projection(&logs[0].0, key);
        for (replica, (entries, _)) in logs.iter().enumerate().skip(1) {
            assert_eq!(
                projection(entries, key),
                reference,
                "replica {} ordered writes of key {key} differently",
                replica + 1
            );
        }
    }
}

/// The shared shape of both Atlas restart scenarios: drive traffic, kill
/// replica 3 mid-workload, keep driving, restart (wiped or not), drive a
/// little more, then require full convergence.
fn kill_restart_scenario(options: ClusterOptions, wipe: bool) {
    const PHASE_A: u64 = 250;
    const PHASE_B: u64 = 250;
    const PHASE_C: u64 = 10;
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        // Two clients, pinned to the two replicas that survive the crash.
        let drive = |cluster: &Cluster, seq_base: u64, ops: u64| {
            let addr1 = cluster.addr(1);
            let addr2 = cluster.addr(2);
            async move {
                let c1 = tokio::spawn(run_writes(addr1, 1, seq_base, ops));
                let c2 = tokio::spawn(run_writes(addr2, 2, seq_base, ops));
                c1.await.expect("client 1 task").expect("client 1 run");
                c2.await.expect("client 2 task").expect("client 2 run");
            }
        };

        drive(&cluster, 0, PHASE_A).await;
        // Crash replica 3 mid-workload...
        cluster.kill(3);
        // ...and keep the cluster serving while it is down (Atlas f=1:
        // quorums of the survivors never include replica 3).
        drive(&cluster, PHASE_A, PHASE_B).await;

        if wipe {
            cluster
                .restart_wiped::<Atlas>(3)
                .await
                .expect("wiped restart");
        } else {
            cluster.restart::<Atlas>(3).await.expect("restart");
        }
        drive(&cluster, PHASE_A + PHASE_B, PHASE_C).await;

        let total_ops = PHASE_A + PHASE_B + PHASE_C;
        let expected = (2 * total_ops) as usize;
        let logs = converge(&cluster, expected, Duration::from_secs(60)).await;
        for (entries, _) in &logs {
            let set: HashSet<(Dot, Rifl)> = entries.iter().copied().collect();
            assert_eq!(set.len(), entries.len(), "duplicate execution");
            assert_eq!(entries.len(), expected, "wrong command count");
        }
        assert_same_conflict_order(&logs, &[(1, total_ops), (2, total_ops)]);
        cluster.shutdown();
    });
}

/// ~1k commands, replica 3 SIGKILL-equivalent mid-workload, restarted with
/// the same id + data dir: journal replay brings it back and all replicas
/// reach identical digests.
#[test]
fn killed_replica_recovers_from_its_journal() {
    kill_restart_scenario(ClusterOptions::default(), false);
}

/// Same scenario, but the replica's data directory is wiped before the
/// restart: it rejoins via peer-assisted catch-up (snapshot transfer).
#[test]
fn wiped_replica_catches_up_via_peer_snapshot() {
    kill_restart_scenario(ClusterOptions::default(), true);
}

/// Crash mid-parallel-execution: every replica runs the sharded executor
/// pool (8 shards), so the kill lands with executor batches in flight on
/// replica 3's pool threads. The journal records the protocol order, never
/// the thread interleaving, so replay through a fresh pool must reconverge
/// to the survivors' digest — and the per-key conflict order must match
/// everywhere.
#[test]
fn killed_replica_with_sharded_executors_replays_to_same_digest() {
    kill_restart_scenario(ClusterOptions::default().with_shards(8), false);
}

/// The wiped variant under sharded executors: peer-assisted catch-up streams
/// the survivors' **flat** (merged) store view, and the rejoining replica
/// re-splits it across its own shards.
#[test]
fn wiped_replica_with_sharded_executors_catches_up() {
    kill_restart_scenario(ClusterOptions::default().with_shards(8), true);
}

/// The batched write path under a crash: two clients drive 16-PUT requests —
/// every turn of replica 3 journals a burst of records with one write and
/// holds a burst of effects — and replica 3 is killed, then restarted on the
/// same directory, *while the bursts keep coming*. Whatever the kill cut
/// off between stage, write and release never left the replica, so the
/// peers' unacknowledged frames replay it: digests converge, and every PUT
/// a client saw acknowledged reads back through the restarted replica.
#[test]
fn replica_killed_mid_burst_of_batched_requests_recovers() {
    const REQUESTS: u64 = 120;
    const BATCH: u64 = 16;
    let key = |client: ClientId, r: u64, i: u64| client * 100_000 + r * BATCH + i;
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn::<Atlas>(Config::new(REPLICAS, 1))
            .await
            .expect("cluster boots");
        // Requests acknowledged so far, across both clients.
        let acked = Arc::new(AtomicU64::new(0));
        let drive = |addr, id: ClientId, acked: Arc<AtomicU64>| async move {
            let mut client = Client::connect(addr, id).await?;
            for r in 0..REQUESTS {
                let cmds = (0..BATCH)
                    .map(|i| Command::put(client.next_rifl(), key(id, r, i), r + 1, 64))
                    .collect();
                client.submit_batch(cmds).await?;
                acked.fetch_add(1, Ordering::Relaxed);
            }
            std::io::Result::Ok(())
        };
        let c1 = tokio::spawn(drive(cluster.addr(1), 1, Arc::clone(&acked)));
        let c2 = tokio::spawn(drive(cluster.addr(2), 2, Arc::clone(&acked)));
        let reached = |requests: u64| {
            let acked = Arc::clone(&acked);
            async move {
                while acked.load(Ordering::Relaxed) < requests {
                    tokio::time::sleep(Duration::from_millis(1)).await;
                }
            }
        };
        reached(REQUESTS / 2).await;
        cluster.kill(3);
        reached(REQUESTS).await;
        cluster.restart::<Atlas>(3).await.expect("restart");
        c1.await.expect("client 1 task").expect("client 1 run");
        c2.await.expect("client 2 task").expect("client 2 run");

        let expected = (2 * REQUESTS * BATCH) as usize;
        let logs = converge(&cluster, expected, Duration::from_secs(60)).await;
        for (entries, _) in &logs {
            let set: HashSet<(Dot, Rifl)> = entries.iter().copied().collect();
            assert_eq!(set.len(), entries.len(), "duplicate execution");
            assert_eq!(entries.len(), expected, "wrong command count");
        }
        let mut reader = Client::connect(cluster.addr(3), 9).await.expect("reader");
        for client in [1, 2] {
            for r in 0..REQUESTS {
                for i in 0..BATCH {
                    let value = reader.get(key(client, r, i)).await.expect("read");
                    assert_eq!(value, Some(r + 1), "client {client} request {r} put {i}");
                }
            }
        }
        cluster.shutdown();
    });
}

/// A tiny snapshot cadence forces the restart to take the snapshot +
/// journal-suffix path rather than a full replay.
#[test]
fn restart_restores_snapshot_plus_journal_suffix() {
    let options = ClusterOptions {
        snapshot_every: 64,
        ..ClusterOptions::default()
    };
    kill_restart_scenario(options.clone(), false);
    // The cadence is small enough that snapshots must actually have been
    // taken during the run; spot-check the mechanism on a fresh cluster.
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        run_writes(cluster.addr(1), 1, 0, 200)
            .await
            .expect("writes");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snapshots = std::fs::read_dir(cluster.data_dir(1))
                .map(|dir| {
                    dir.filter_map(|e| e.ok())
                        .filter(|e| e.file_name().to_string_lossy().starts_with("snap-"))
                        .count()
                })
                .unwrap_or(0);
            if snapshots > 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "no snapshot appeared despite snapshot_every=64"
            );
            tokio::time::sleep(Duration::from_millis(50)).await;
        }
        cluster.shutdown();
    });
}

/// Kill + restart smoke for every hosted protocol (no traffic while the
/// replica is down: Mencius needs acks from all replicas, so its commands
/// would stall until the restart anyway).
fn restart_smoke<P>()
where
    P: Protocol + Send + 'static,
    P::Message: Serialize + Deserialize + Send + 'static,
{
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn::<P>(Config::new(REPLICAS, 1))
            .await
            .expect("cluster boots");
        run_writes(cluster.addr(1), 1, 0, 100)
            .await
            .expect("phase 1");
        cluster.kill(3);
        cluster.restart::<P>(3).await.expect("restart");
        run_writes(cluster.addr(1), 1, 100, 50)
            .await
            .expect("phase 2");
        let logs = converge(&cluster, 150, Duration::from_secs(60)).await;
        assert!(logs.iter().all(|(_, d)| *d == logs[0].1));
        cluster.shutdown();
    });
}

#[test]
fn atlas_restart_smoke() {
    restart_smoke::<Atlas>();
}

#[test]
fn epaxos_restart_smoke() {
    restart_smoke::<epaxos::EPaxos>();
}

#[test]
fn fpaxos_restart_smoke() {
    restart_smoke::<fpaxos::FPaxos>();
}

#[test]
fn mencius_restart_smoke() {
    restart_smoke::<mencius::Mencius>();
}
