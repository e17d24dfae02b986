//! Drills for the write-behind snapshot and the per-request write-ahead
//! sync, over a real 3-replica Atlas cluster:
//!
//! * on a slow disk a snapshot costs the event loop one fsync (the cut's
//!   WAL sync) and the writer the rest, and the snapshots that fall due
//!   while the writer is busy coalesce;
//! * killing a replica while its writer is mid-write loses nothing and the
//!   dead incarnation publishes nothing afterwards — restarted on the same
//!   directory, and restarted wiped;
//! * a 16-command request costs its coordinator one write-ahead fsync;
//! * a snapshot cut never lands between the records of one request.
//!
//! Replica 1 sits in every fast quorum of a 3-replica cluster (a coordinator
//! picks itself plus the lowest other id), replica 3 only in its own — so
//! the drills slow down or kill whichever of the two makes the point.

#[allow(dead_code)]
mod scenarios;

use atlas_core::{Command, Config, Key, ProcessId, ReconfigOp};
use atlas_log::FlushPolicy;
use atlas_metrics::MetricsSnapshot;
use atlas_protocol::Atlas;
use atlas_runtime::{Client, Cluster, ClusterOptions};
use scenarios::{converge_on, rifls_of};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const STALL: Duration = Duration::from_millis(300);

/// Indices of the snapshot files in `dir` ending in `suffix` (`.bin`:
/// published snapshots, `.tmp`: one being written).
fn snapshot_files(dir: &Path, suffix: &str) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new(); // mid-wipe
    };
    let mut indices: Vec<u64> = entries
        .filter_map(|entry| {
            let name = entry.ok()?.file_name();
            let index = name.to_str()?.strip_prefix("snap-")?.strip_suffix(suffix)?;
            index.parse().ok()
        })
        .collect();
    indices.sort_unstable();
    indices
}

async fn stats(cluster: &Cluster, id: ProcessId) -> MetricsSnapshot {
    scenarios::snapshot(cluster, id).await.expect("stats")
}

/// Waits until all three replicas executed requests `1..=ops` of `client`
/// and agree on the execution summary and the store digest.
async fn converge(cluster: &Cluster, client: u64, ops: u64) {
    let must = rifls_of(client, 0, ops);
    converge_on(cluster, &[1, 2, 3], &must, Duration::from_secs(60)).await;
}

/// Stops the cluster and waits for every snapshot writer to wind down: no
/// replica directory may keep a temporary snapshot file.
async fn shutdown_leaving_no_temporary_files(cluster: Cluster) {
    cluster.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    for id in 1..=REPLICAS as ProcessId {
        while !snapshot_files(cluster.data_dir(id), ".tmp").is_empty() {
            assert!(
                Instant::now() < deadline,
                "replica {id} left a temporary snapshot file behind"
            );
            tokio::time::sleep(Duration::from_millis(50)).await;
        }
    }
}

/// What a slow disk costs the event loop: one fsync per snapshot — the WAL
/// sync inside the cut — and nothing of the writer's. With 300 ms inside
/// every fsync a snapshot takes the writer 600 ms to persist; a request
/// through that replica (it is in every fast quorum) waits for at most the
/// one stalled cut that lands on it, and only as many requests are slow at
/// all as there were cuts. Written inline, as at the parent commit, every
/// snapshot held the loop for all three fsyncs.
#[test]
fn snapshot_does_not_stall_the_loop() {
    const MARGIN: Duration = Duration::from_millis(100);
    let options = ClusterOptions {
        snapshot_every: 256,
        fsync_stall: HashMap::from([(1 as ProcessId, STALL)]),
        ..ClusterOptions::default()
    };
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        let mut client = Client::connect(cluster.addr(1), 1).await.expect("client");
        let mut slowest = Duration::ZERO;
        let mut slow = 0u64;
        let mut ops = 0u64;
        let deadline = Instant::now() + Duration::from_secs(60);
        let s1 = loop {
            for _ in 0..50 {
                let t0 = Instant::now();
                client.put(ops % 64, ops).await.expect("put");
                let took = t0.elapsed();
                slowest = slowest.max(took);
                slow += u64::from(took >= MARGIN);
                ops += 1;
            }
            let s1 = stats(&cluster, 1).await;
            if s1.durability.snapshots_saved >= 3 {
                break s1;
            }
            assert!(Instant::now() < deadline, "three snapshots never published");
        };
        let d = &s1.durability;
        let stall_us = STALL.as_micros() as u64;
        // Each cut held the loop for exactly one stalled fsync...
        let cuts = d.snapshot_cut_us.count();
        assert!(
            cuts >= 3
                && d.snapshot_cut_us.min() >= stall_us
                && d.snapshot_cut_us.max() < (STALL + MARGIN).as_micros() as u64,
            "{cuts} cuts of {}..{} us",
            d.snapshot_cut_us.min(),
            d.snapshot_cut_us.max()
        );
        // ...which is all a request ever waited for, one request per cut...
        assert!(
            slowest < STALL + MARGIN,
            "a request through the slow-disk replica took {slowest:?}"
        );
        assert!(slow <= cuts, "{slow} slow requests for {cuts} cuts");
        // ...while the writer sat through two more per snapshot, and what
        // fell due behind it was folded.
        assert!(
            d.snapshot_write_us.min() >= 2 * stall_us,
            "writer faster than its injected stalls: {:?} us",
            d.snapshot_write_us.min()
        );
        assert!(
            d.snapshots_coalesced > 0,
            "nothing coalesced behind a 600 ms writer"
        );
        assert!(d.snapshot_bytes > 0);
        for id in 1..=REPLICAS as ProcessId {
            let s = stats(&cluster, id).await;
            assert_eq!(s.detector.suspicions, 0, "replica {id} suspected someone");
        }
        converge(&cluster, 1, ops).await;
        shutdown_leaving_no_temporary_files(cluster).await;
    });
}

/// Kills replica 1 while its writer sits in the injected stall between the
/// temporary file's fsync and the rename, restarts it (on its directory, or
/// wiped), and requires: nothing acknowledged is lost, every replica
/// reaches the same digest, and the dead incarnation's snapshot never
/// becomes loadable.
fn crash_while_writer_is_stalled(wipe: bool) {
    let options = ClusterOptions {
        snapshot_every: 256,
        fsync_stall: HashMap::from([(1 as ProcessId, STALL)]),
        ..ClusterOptions::default()
    };
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        let dir = cluster.data_dir(1).clone();
        let mut client = Client::connect(cluster.addr(2), 2).await.expect("client");
        // Drive writes until replica 1 has a published snapshot to fall back
        // on *and* its writer is mid-write on the next one.
        let mut acked = 0u64;
        let deadline = Instant::now() + Duration::from_secs(60);
        let dying = loop {
            client.put(acked % 64, acked).await.expect("put");
            acked += 1;
            let published = snapshot_files(&dir, ".bin");
            if let (false, Some(&dying)) =
                (published.is_empty(), snapshot_files(&dir, ".tmp").first())
            {
                break dying;
            }
            assert!(Instant::now() < deadline, "writer never seen mid-write");
        };
        let published = snapshot_files(&dir, ".bin");
        cluster.kill(1);

        if wipe {
            // Straight away: the stalled writer outlives the wipe and wakes
            // up in a directory that belongs to the next incarnation.
            cluster
                .restart_wiped::<Atlas>(1)
                .await
                .expect("wiped restart");
        } else {
            // Let the dead incarnation's writer run out its stall first:
            // it must abandon the write, not publish it.
            tokio::time::sleep(3 * STALL).await;
            assert_eq!(
                snapshot_files(&dir, ".bin"),
                published,
                "published after the kill"
            );
            assert!(
                snapshot_files(&dir, ".tmp").is_empty(),
                "temporary file left behind"
            );
            cluster.restart::<Atlas>(1).await.expect("restart");
        }
        // Previous snapshot + the full journal suffix (or peer catch-up)
        // bring replica 1 back; the cluster serves again and agrees.
        let mut client = Client::connect_with_seq(cluster.addr(2), 2, acked + 1)
            .await
            .expect("client");
        for _ in 0..20 {
            client
                .put(acked % 64, acked)
                .await
                .expect("put after restart");
            acked += 1;
        }
        converge(&cluster, 2, acked).await;
        if wipe {
            // The new life's journal restarted from zero and is nowhere
            // near the dead incarnation's index: a snapshot at or above it
            // can only be the stale writer's. (Here the wipe also took the
            // temporary file along; a stale writer that only *creates* its
            // file after the wipe is the unit test
            // `a_stopped_replica_publishes_and_truncates_nothing`.)
            tokio::time::sleep(3 * STALL).await;
            let now = snapshot_files(&dir, ".bin");
            assert!(
                now.iter().all(|&index| index < dying),
                "snapshot {dying} of the dead incarnation resurfaced: {now:?}"
            );
        }
        shutdown_leaving_no_temporary_files(cluster).await;
    });
}

#[test]
fn crash_while_writer_is_stalled_loses_nothing() {
    crash_while_writer_is_stalled(false);
}

#[test]
fn crash_while_writer_is_stalled_then_wiped_loses_nothing() {
    crash_while_writer_is_stalled(true);
}

/// One 16-PUT request: one instance, so one `Submit` record and one
/// write-ahead fsync (before requests were batched, its 16 records shared
/// that fsync; before that, each paid its own). The tick is slowed to 2 s
/// so at most one ack flush — the only other source of fsyncs here — can
/// fall into the measured window.
#[test]
fn a_request_is_one_fsync() {
    let options = ClusterOptions {
        flush_policy: FlushPolicy::EveryN(64),
        snapshot_every: 0,
        tick_interval: Duration::from_secs(2),
        suspect_after: None,
        ..ClusterOptions::default()
    };
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        let mut client = Client::connect(cluster.addr(1), 1).await.expect("client");
        client.put(1_000, 0).await.expect("warm-up put");
        let before = stats(&cluster, 1).await.durability;
        let cmds: Vec<Command> = (0..16)
            .map(|key| Command::put(client.next_rifl(), key, key, 64))
            .collect();
        let done = client.submit_batch(cmds).await.expect("batch");
        assert_eq!(done.len(), 16);
        let after = stats(&cluster, 1).await.durability;
        let fsyncs = after.fsyncs - before.fsyncs;
        assert!(
            (1..=2).contains(&fsyncs),
            "a 16-command request cost its coordinator {fsyncs} fsyncs"
        );
        // What is journaled: one submission, and the collect ack of the
        // one other fast-quorum member.
        assert_eq!(after.journal_records - before.journal_records, 2);
        assert_eq!(after.fsync_us.count(), after.fsyncs);
        shutdown_leaving_no_temporary_files(cluster).await;
    });
}

/// A request's records are all journaled before its first command is
/// applied, so a snapshot cut *inside* a request would claim to cover
/// inputs the protocol never saw — and lose them on restart. A request
/// holding a membership change is not batched, so a `Finalize` (a no-op
/// outside a joint window) ahead of 16 PUTs makes 17 records, and with a
/// cadence of 8 records every request crosses it mid-way. The slow
/// writer pins which snapshot the restart finds: the first one cut, and
/// nothing newer — a later, well-placed snapshot cannot paper over it.
#[test]
fn batched_requests_survive_a_cut_between_them() {
    let options = ClusterOptions {
        snapshot_every: 8,
        fsync_stall: HashMap::from([(3 as ProcessId, STALL)]),
        ..ClusterOptions::default()
    };
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        let dir = cluster.data_dir(3).clone();
        let mut client = Client::connect(cluster.addr(3), 3).await.expect("client");
        let mut written: Vec<(Key, u64)> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        // Batches through replica 3 until its first snapshot is published.
        while snapshot_files(&dir, ".bin").is_empty() {
            let base = written.len() as u64;
            let finalize = Command::reconfigure(client.next_rifl(), ReconfigOp::Finalize);
            let cmds: Vec<Command> = std::iter::once(finalize)
                .chain(
                    (base..base + 16).map(|key| Command::put(client.next_rifl(), key, key + 7, 64)),
                )
                .collect();
            let done = client.submit_batch(cmds).await.expect("batch");
            assert_eq!(done.len(), 17);
            written.extend((base..base + 16).map(|key| (key, key + 7)));
            assert!(Instant::now() < deadline, "no snapshot published");
        }
        cluster.kill(3);
        cluster.restart::<Atlas>(3).await.expect("restart");
        let sent = written.len() as u64 / 16 * 17;
        converge(&cluster, 3, sent).await;
        // Every acknowledged write reads back through the restarted
        // replica (a read executes against its coordinator's store).
        let next = sent + 1;
        let mut client = Client::connect_with_seq(cluster.addr(3), 3, next)
            .await
            .expect("client");
        for (key, value) in written {
            assert_eq!(
                client.get(key).await.expect("get"),
                Some(value),
                "key {key}"
            );
        }
        shutdown_leaving_no_temporary_files(cluster).await;
    });
}
