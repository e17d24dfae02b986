//! Loopback integration test of the networked runtime: boots a 3-replica
//! Atlas cluster over 127.0.0.1 TCP, drives ~1k PUT/GET commands from
//! concurrent clients, and checks
//!
//! * **read-your-writes per key**: a client that PUTs and then GETs through
//!   the same proxy always reads its own latest write (conflicting commands
//!   from one client are submitted sequentially, so the GET depends on the
//!   PUT and must execute after it everywhere);
//! * **identical execution order across replicas**: every replica executes
//!   the same command set exactly once (the summary's count and set word),
//!   conflicting commands (same-key writes) in the same relative order (its
//!   order digest), and all stores converge to the same digest.
//!   (Non-conflicting commands commute — Atlas deliberately leaves their
//!   interleaving free, which is where its performance comes from.)

use atlas::core::{ClientId, Config, Key, ProcessId, Rifl};
use atlas::kvstore::ExecutionSummary;
use atlas::protocol::Atlas;
use atlas_runtime::{Client, Cluster};
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const CLIENTS_PER_REPLICA: u64 = 2;
const OPS_PER_CLIENT: u64 = 170; // 6 clients x 170 = 1020 commands
const SHARED_KEYS: Key = 4;

/// The deterministic workload of client `client_id`: what op `i` does.
/// `None` = read of the private key; `Some(key)` = write of `key`.
fn op_write_key(client_id: ClientId, i: u64) -> Option<Key> {
    match i % 4 {
        0 | 1 => Some((client_id + i) % SHARED_KEYS),
        2 => Some(1_000 + client_id),
        _ => None,
    }
}

/// One client's closed loop: alternate shared-key PUTs (heavily conflicting)
/// with private-key PUTs and read-your-writes GETs.
async fn run_client(addr: std::net::SocketAddr, client_id: ClientId) -> std::io::Result<()> {
    let mut client = Client::connect(addr, client_id).await?;
    let private_key: Key = 1_000 + client_id;
    let mut last_private_write: Option<u64> = None;
    for i in 0..OPS_PER_CLIENT {
        match op_write_key(client_id, i) {
            Some(key) => {
                let value = client_id * 1_000_000 + i;
                client.put(key, value).await?;
                if key == private_key {
                    last_private_write = Some(value);
                }
            }
            None => {
                let read = client.get(private_key).await?;
                assert_eq!(
                    read, last_private_write,
                    "client {client_id}: read-your-writes violated on key {private_key}"
                );
            }
        }
    }
    Ok(())
}

/// Polls every replica until all of them executed `expected` commands (the
/// commit broadcast makes every replica execute every command), returning
/// each replica's execution summary + store digest.
async fn converged_logs(
    cluster: &Cluster,
    expected: u64,
) -> std::io::Result<Vec<(ExecutionSummary, u64)>> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut logs = Vec::new();
        for id in 1..=REPLICAS as ProcessId {
            let mut probe = Client::connect(cluster.addr(id), 900 + id as u64).await?;
            logs.push(probe.execution_log().await?);
        }
        if logs.iter().all(|(summary, _)| summary.len() >= expected) {
            return Ok(logs);
        }
        assert!(
            Instant::now() < deadline,
            "replicas did not converge: {:?} of {expected} commands executed",
            logs.iter()
                .map(|(summary, _)| summary.len())
                .collect::<Vec<_>>()
        );
        tokio::time::sleep(Duration::from_millis(50)).await;
    }
}

#[test]
fn three_replica_atlas_cluster_serves_linearizable_traffic() {
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn::<Atlas>(Config::new(REPLICAS, 1))
            .await
            .expect("cluster boots");

        // Concurrent clients, pinned round-robin to replicas.
        let mut tasks = Vec::new();
        for client_id in 1..=REPLICAS as u64 * CLIENTS_PER_REPLICA {
            let replica = ((client_id - 1) % REPLICAS as u64) as ProcessId + 1;
            let addr = cluster.addr(replica);
            tasks.push(tokio::spawn(run_client(addr, client_id)));
        }
        for task in tasks {
            task.await.expect("client task").expect("client run");
        }

        let clients = REPLICAS as u64 * CLIENTS_PER_REPLICA;
        let total = clients * OPS_PER_CLIENT;
        let logs = converged_logs(&cluster, total).await.expect("log fetch");

        // Same command set everywhere, each executed exactly once: the
        // count, and the set word of exactly the clients' commands.
        let rifls = (1..=clients)
            .flat_map(|client| (1..=OPS_PER_CLIENT).map(move |seq| Rifl::new(client, seq)));
        let set = ExecutionSummary::set_of(rifls);
        for (i, (summary, _)) in logs.iter().enumerate() {
            let replica = i + 1;
            assert_eq!(
                summary.len(),
                total,
                "replica {replica}: lost or duplicate execution"
            );
            assert_eq!(
                summary.set, set,
                "replica {replica} executed another command set"
            );
        }

        // All stores converged to the same state, and every replica
        // executed the writes of each key in the same order: writes of the
        // same key pairwise conflict, so their order is the protocol's.
        let (reference, digest) = logs[0];
        for (i, (summary, d)) in logs.iter().enumerate() {
            assert_eq!(*d, digest, "replica {} store diverged", i + 1);
            assert_eq!(
                summary.order,
                reference.order,
                "replica {} ordered the writes of some key differently",
                i + 1
            );
        }

        cluster.shutdown();
    });
}
