//! Acceptance drills for the observability layer: a real 3-replica cluster
//! runs ~1k commands and the metrics snapshots — fetched over the stats
//! plane — must satisfy the lifecycle invariants (counter chains, stage
//! histogram/counter agreement, percentile monotonicity across the
//! cumulative stages, fast+slow = total commands across replicas) while the
//! `--metrics-every` JSONL dump lands on disk. A second drill kills a
//! coordinator mid-burst and asserts the survivors' detector counters
//! recorded the suspicion and the recovery takeover.

use atlas_core::{ClientId, Command, Config, Key, ProcessId, Protocol};
use atlas_metrics::MetricsSnapshot;
use atlas_protocol::Atlas;
use atlas_runtime::{Client, Cluster, ClusterOptions, LinkRule, NetProfile, OpenLoopClient};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;

/// Polls every replica's stats plane until `done` holds for the full set of
/// snapshots (one per replica, in identifier order), then returns them.
async fn snapshots_when(
    cluster: &Cluster,
    done: impl Fn(&[MetricsSnapshot]) -> bool,
    what: &str,
) -> Vec<MetricsSnapshot> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let mut snapshots = Vec::new();
        for id in 1..=REPLICAS as ProcessId {
            if let Ok(mut probe) = Client::connect(cluster.addr(id), 900 + id as u64).await {
                if let Ok(snapshot) = probe.stats().await {
                    snapshots.push(snapshot);
                }
            }
        }
        if snapshots.len() == REPLICAS && done(&snapshots) {
            return snapshots;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: executed {:?}",
            snapshots
                .iter()
                .map(|s| s.store_executed)
                .collect::<Vec<_>>()
        );
        tokio::time::sleep(Duration::from_millis(100)).await;
    }
}

/// Non-conflicting per-client key ranges: the workload exercises the fast
/// path, and the lifecycle invariants don't depend on conflict order.
async fn run_writes(
    addr: std::net::SocketAddr,
    client_id: ClientId,
    ops: u64,
) -> std::io::Result<()> {
    let mut client = Client::connect(addr, client_id).await?;
    for i in 0..ops {
        let key: Key = client_id * 10_000 + (i % 32);
        client.put(key, i).await?;
    }
    Ok(())
}

/// The ~1k-command invariant run, generic over the hosted protocol and the
/// executor shard count. Two closed-loop clients submit through replicas 1
/// and 2; replica 3 only executes. Every invariant below is checked against
/// snapshots fetched over the stats plane — the same bytes `atlas-top`
/// renders. With `shards > 1` the executed/replied stamps are taken on
/// executor threads, so this doubles as the proof that the stage chain and
/// the percentile monotonicity survive concurrent executors: the snapshot
/// path drains the pool first, and commit stamps (protocol thread) always
/// precede execute stamps (executor thread) on the shared clock.
fn lifecycle_invariants<P>(shards: usize)
where
    P: Protocol + Send + 'static,
    P::Message: Serialize + Deserialize + Send + 'static,
{
    const OPS: u64 = 500;
    const TOTAL: u64 = 2 * OPS;
    let options = ClusterOptions {
        tick_interval: Duration::from_millis(10),
        gc_every: 4,
        metrics_every: 5,
        shards,
        ..ClusterOptions::default()
    };
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn_with::<P>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        let c1 = tokio::spawn(run_writes(cluster.addr(1), 1, OPS));
        let c2 = tokio::spawn(run_writes(cluster.addr(2), 2, OPS));
        c1.await.expect("client 1 task").expect("client 1 run");
        c2.await.expect("client 2 task").expect("client 2 run");

        // GC is tick-cadenced (reports at every `gc_every`-th tick, the
        // first horizon advance one round later), so a fast workload can
        // finish before the first round — wait for it rather than racing it.
        let snapshots = snapshots_when(
            &cluster,
            |all| {
                all.iter()
                    .all(|s| s.store_executed == TOTAL && s.gc.rounds > 0)
            },
            "every replica to execute the workload and run a GC round",
        )
        .await;

        for (i, s) in snapshots.iter().enumerate() {
            let id = i + 1;
            assert_eq!(s.replica, id as ProcessId);
            assert_eq!(s.protocol, P::name(), "replica {id} protocol label");
            assert!(s.uptime_us > 0, "replica {id} uptime");
            assert_eq!(s.store_executed, TOTAL, "replica {id} store executions");

            // The lifecycle chain: a command can only move forward, and a
            // closed-loop client got a reply for every command it submitted.
            let l = &s.lifecycle;
            let expected = if id <= 2 { OPS } else { 0 };
            assert_eq!(l.submitted, expected, "replica {id} submissions");
            assert!(l.submitted >= l.committed, "replica {id}: {l:?}");
            assert!(l.committed >= l.executed, "replica {id}: {l:?}");
            assert_eq!(l.executed, l.replied, "replica {id}: {l:?}");
            assert_eq!(l.replied, expected, "replica {id} replies");

            // Every counter has a matching histogram sample (journaling is
            // on: the cluster harness always gives replicas a data dir).
            assert_eq!(l.journaled, l.submitted, "replica {id} journaled");
            for (stage, count, h) in [
                ("journaled", l.journaled, &l.submit_to_journaled),
                ("proposed", l.proposed, &l.submit_to_proposed),
                ("committed", l.committed, &l.submit_to_committed),
                ("executed", l.executed, &l.submit_to_executed),
                ("replied", l.replied, &l.submit_to_replied),
            ] {
                assert_eq!(h.count(), count, "replica {id} {stage} histogram");
                if count > 0 {
                    assert!(h.min() >= 1, "replica {id} {stage} zero-latency sample");
                }
            }

            // Stages are cumulative from submission, so every percentile is
            // monotone across journaled → proposed → committed → executed →
            // replied (exactly, even under bucketing: the per-command sample
            // series is monotone and bucketing preserves order).
            if expected > 0 {
                for q in [0.50, 0.95, 0.99] {
                    let series = [
                        l.submit_to_journaled.percentile(q),
                        l.submit_to_proposed.percentile(q),
                        l.submit_to_committed.percentile(q),
                        l.submit_to_executed.percentile(q),
                        l.submit_to_replied.percentile(q),
                    ];
                    assert!(
                        series.windows(2).all(|w| w[0] <= w[1]),
                        "replica {id} p{} not monotone across stages: {series:?}",
                        q * 100.0
                    );
                }
            }

            // The executor section reflects the configured pool, and the
            // drained snapshot sees it quiesced: every dispatched command
            // completed, every queue empty. The workload is single-key, so
            // nothing took the cross-shard barrier and every execution left
            // a latency sample on its shard.
            let e = &s.executor;
            assert_eq!(e.shards_configured, shards as u64, "replica {id} shards");
            if shards > 1 {
                assert_eq!(e.shards.len(), shards, "replica {id} shard cells");
                let dispatched: u64 = e.shards.iter().map(|c| c.dispatched).sum();
                let completed: u64 = e.shards.iter().map(|c| c.completed).sum();
                assert_eq!(dispatched, TOTAL, "replica {id} dispatched");
                assert_eq!(dispatched, completed, "replica {id} not quiesced");
                assert!(
                    e.shards.iter().all(|c| c.queue_depth == 0),
                    "replica {id} residual queue depth: {:?}",
                    e.shards
                );
                let samples: u64 = e.shards.iter().map(|c| c.execute_us.count()).sum();
                assert_eq!(samples, TOTAL, "replica {id} execute histogram");
                assert_eq!(e.multi_shard_commands, 0, "replica {id} barrier count");
            } else {
                assert!(e.shards.is_empty(), "inline pool exports shard cells");
            }

            // Durability: at least one journal record per submission, and
            // the journal fsync policy (OS-buffered here) never lies about
            // issuing syncs it didn't.
            assert!(
                s.durability.journal_records >= l.submitted,
                "replica {id} journal records"
            );
            assert_eq!(
                s.durability.fsync_us.count(),
                s.durability.fsyncs,
                "replica {id} fsync histogram/counter mismatch"
            );
            // GC rounds dropped entries, so snapshots were cut, written off
            // the loop and published — and their fsyncs (one in the cut,
            // two in the writer) are no longer invisible.
            let d = &s.durability;
            assert!(d.snapshots_saved > 0, "replica {id} never snapshotted");
            assert!(
                d.snapshot_cut_us.count() >= d.snapshots_saved
                    && d.snapshot_write_us.count() >= d.snapshots_saved,
                "replica {id}: {} published, {} cut, {} written",
                d.snapshots_saved,
                d.snapshot_cut_us.count(),
                d.snapshot_write_us.count()
            );
            assert!(d.snapshot_bytes > 0, "replica {id} snapshot size");
            assert!(
                d.snapshots_coalesced <= d.snapshot_cut_us.count() + s.gc.rounds,
                "replica {id} coalesced more snapshots than ever fell due"
            );
            assert!(
                d.fsyncs >= 3 * d.snapshots_saved,
                "replica {id}: {} fsyncs for {} snapshots",
                d.fsyncs,
                d.snapshots_saved
            );

            // Healthy cluster: both peer links up, GC ran, nothing suspected.
            assert_eq!(s.links.len(), REPLICAS - 1, "replica {id} link count");
            assert!(
                s.links.iter().all(|link| link.connected),
                "replica {id} links: {:?}",
                s.links
            );
            assert!(s.gc.rounds > 0, "replica {id} never ran GC");
            assert_eq!(s.detector.suspicions, 0, "replica {id} spurious suspicion");
            assert_eq!(s.detector.takeovers, 0, "replica {id} spurious takeover");

            // The runtime's vitals (process-wide: every replica here reports
            // the one shared pool). Each wake-up of a sleeping worker was
            // either a parked worker's or the blocked poller's.
            let r = &s.reactor;
            assert!(r.tasks_polled >= TOTAL, "replica {id} reactor: {r:?}");
            assert!(r.epoll_waits > 0 && r.io_events > 0, "replica {id}: {r:?}");
            assert!(
                r.timers_fired > 0,
                "replica {id} ticked without timers: {r:?}"
            );
            assert!(r.worker_unparks <= r.worker_parks, "replica {id}: {r:?}");
            assert!(r.queue_depth_max >= 1, "replica {id}: {r:?}");

            // The JSONL dump cadence fired and produced parseable lines.
            let dump =
                std::fs::read_to_string(cluster.data_dir(id as ProcessId).join("metrics.jsonl"))
                    .expect("metrics.jsonl exists");
            assert!(!dump.is_empty(), "replica {id} metrics.jsonl empty");
            for line in dump.lines() {
                assert!(
                    line.starts_with('{')
                        && line.ends_with('}')
                        && line.contains(&format!("\"replica\":{id}")),
                    "replica {id} malformed dump line: {line}"
                );
                for name in [
                    "\"snapshots_saved\":",
                    "\"snapshot_cut_us\":{",
                    "\"snapshot_write_us\":{",
                    "\"snapshot_bytes\":",
                    "\"snapshots_coalesced\":",
                    "\"wal_writes\":",
                    "\"resent\":0,\"writes\":",
                    "\"reactor\":{\"epoll_waits\":",
                    "\"io_events\":",
                    "\"tasks_polled\":",
                    "\"worker_parks\":",
                    "\"worker_unparks\":",
                    "\"eventfd_signals\":",
                    "\"timers_fired\":",
                    "\"queue_depth_max\":",
                ] {
                    assert!(line.contains(name), "replica {id} dump lacks {name}");
                }
            }
        }

        // Each command was committed by exactly one coordinator, on exactly
        // one of the two paths — so the cluster-wide path split must account
        // for the whole workload (Atlas and EPaxos both classify every
        // commit; nothing was killed, so no recovery re-commits).
        let paths: u64 = snapshots
            .iter()
            .map(|s| s.protocol_stats.fast_paths + s.protocol_stats.slow_paths)
            .sum();
        assert_eq!(paths, TOTAL, "fast+slow paths must cover the workload");
        cluster.shutdown();
    });
}

#[test]
fn lifecycle_invariants_atlas() {
    lifecycle_invariants::<Atlas>(1);
}

#[test]
fn lifecycle_invariants_epaxos() {
    lifecycle_invariants::<epaxos::EPaxos>(1);
}

/// The same invariants with the sharded parallel executor pool on every
/// replica: `executed == replied` and the monotone percentile series must
/// hold even though those stamps are taken on executor threads.
#[test]
fn lifecycle_invariants_atlas_sharded() {
    lifecycle_invariants::<Atlas>(8);
}

#[test]
fn lifecycle_invariants_epaxos_sharded() {
    lifecycle_invariants::<epaxos::EPaxos>(8);
}

/// Commit and execution are stamped apart: a command that commits at once
/// but names an *uncommitted* dependency must show the wait in
/// `submit_to_executed`, not in `submit_to_committed`. (Before protocols
/// emitted `Action::Commit` the commit stamp silently fell back to the
/// execute stamp, so dependency waits hid inside the commit stage.)
///
/// Replica 3 coordinates `a` with fast quorum {3, 1}; replica 1 records it
/// at once, but its ack travels a 400 ms link, so `a` stays uncommitted for
/// that long. Replica 1 then coordinates a conflicting `b` with fast quorum
/// {1, 2}: it commits within a round trip to 2, depending on `a`, and can
/// execute only once `a`'s commit arrives.
///
/// The same two commands pin the protocol moments replica 1 exports, over
/// the stats plane and in the JSON dump alike: two singleton execution
/// batches and one dependency between two commits (`mean_batch_size` read 0
/// for as long as nothing recorded batches).
#[test]
fn dependency_wait_lands_in_the_executed_stage() {
    const ACK_DELAY: Duration = Duration::from_millis(400);
    let options = ClusterOptions {
        tick_interval: Duration::from_millis(10),
        ..ClusterOptions::default()
    }
    .with_net(NetProfile::new(0xDE).rule(LinkRule::link(1, 3).delay(ACK_DELAY)));
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        let mut slow = Client::connect(cluster.addr(3), 3).await.expect("client");
        let a = tokio::spawn(async move { slow.put(7, 1).await });
        // `b` must be submitted after replica 1 recorded `a`'s collect.
        snapshots_when(&cluster, |all| all[0].tracked_entries >= 1, "the collect").await;
        let mut client = Client::connect(cluster.addr(1), 1).await.expect("client");
        client.put(7, 2).await.expect("b executes once a commits");
        a.await.expect("client task").expect("a executes");

        let all = snapshots_when(&cluster, |all| all[0].lifecycle.replied == 1, "b").await;
        let l = &all[0].lifecycle;
        let (committed, executed) = (l.submit_to_committed.max(), l.submit_to_executed.min());
        assert!(
            committed + ACK_DELAY.as_micros() as u64 / 4 < executed,
            "b committed after {committed} µs but executed after {executed} µs: \
             the wait for its dependency must separate the two stages"
        );

        let p = &all[0].protocol_stats;
        assert_eq!((p.batch_count, p.mean_batch_size()), (2, 1.0), "{p:?}");
        assert_eq!((p.commits, p.mean_dependencies()), (2, 0.5), "{p:?}");
        let json = all[0].to_json();
        assert!(
            json.contains("\"mean_batch\":1.000,\"mean_dependencies\":0.500}"),
            "{json}"
        );
        cluster.shutdown();
    });
}

/// Cluster-wide I/O counts of one closed-loop run: `clients` clients (client
/// `i` at replica `i`) each submit `requests` requests of `batch` PUTs on
/// private keys. Returns `(commands, journal records, WAL writes, message
/// frames, link writes)`, after checking what batching must leave alone:
/// five records per command and every commit on the fast path.
fn io_counts(clients: u64, requests: u64, batch: u64) -> (u64, u64, u64, u64, u64) {
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn::<Atlas>(Config::new(REPLICAS, 1))
            .await
            .expect("cluster boots");
        let drive = |addr, id: ClientId| async move {
            let mut client = Client::connect(addr, id).await?;
            for r in 0..requests {
                let cmds = (0..batch)
                    .map(|i| Command::put(client.next_rifl(), id * 10_000 + r * batch + i, r, 64))
                    .collect();
                client.submit_batch(cmds).await?;
            }
            std::io::Result::Ok(())
        };
        let tasks: Vec<_> = (1..=clients)
            .map(|id| tokio::spawn(drive(cluster.addr(id as ProcessId), id)))
            .collect();
        for task in tasks {
            task.await.expect("client task").expect("client run");
        }
        let total = clients * requests * batch;
        let all = snapshots_when(
            &cluster,
            |all| all.iter().all(|s| s.store_executed == total),
            "every replica to execute the workload",
        )
        .await;
        cluster.shutdown();

        let sum = |f: &dyn Fn(&MetricsSnapshot) -> u64| all.iter().map(f).sum::<u64>();
        let records = sum(&|s| s.durability.journal_records);
        // Submit, collect, collect-ack, two commits: batching writes records
        // together, it does not merge them.
        assert_eq!(records, 5 * total, "journal records per command");
        assert_eq!(sum(&|s| s.protocol_stats.fast_paths), total, "fast paths");
        assert_eq!(sum(&|s| s.protocol_stats.slow_paths), 0, "slow paths");
        assert_eq!(sum(&|s| s.links.iter().map(|l| l.resent).sum()), 0);
        // Every journaled record that is not a submission is a message
        // frame some peer sent.
        let frames = records - sum(&|s| s.lifecycle.submitted);
        let wal_writes = sum(&|s| s.durability.wal_writes);
        let link_writes = sum(&|s| s.links.iter().map(|l| l.writes).sum());
        (total, records, wal_writes, frames, link_writes)
    })
}

/// One write and one send per turn, counted where the work happens: under
/// 16-command requests from two clients the replicas put at least four
/// records in every WAL write and four message frames in every socket write
/// (heartbeats and acks included in the writes), while a single-PUT closed
/// loop — every turn one event — pays no more writes than it has records.
#[test]
fn a_turn_is_one_wal_write_and_one_send_per_link() {
    let (total, records, wal_writes, frames, link_writes) = io_counts(2, 100, 16);
    assert!(
        4 * wal_writes <= records,
        "{wal_writes} WAL writes for {records} records ({total} commands)"
    );
    assert!(
        4 * link_writes <= frames,
        "{link_writes} socket writes for {frames} message frames ({total} commands)"
    );

    let (total, records, wal_writes, frames, link_writes) = io_counts(1, 300, 1);
    assert!(
        wal_writes <= records,
        "{wal_writes} WAL writes for {records} records ({total} commands)"
    );
    // Beside the frames: a heartbeat and at most one ack per link and tick
    // (a generous bound on the ticks: the run takes well under 5 s).
    let ticks = 5_000 / ClusterOptions::default().tick_interval.as_millis() as u64;
    assert!(
        link_writes <= frames + 6 * 2 * ticks,
        "{link_writes} socket writes for {frames} message frames ({total} commands)"
    );
}

/// Kill-the-coordinator drill, metrics edition: replica 3 coordinates a
/// burst of conflicting commands and dies mid-burst; the survivors must not
/// only finish the workload (tests/recovery.rs proves that end) but *show*
/// what happened on the stats plane — suspicions and recovery takeovers.
///
/// The survivor→victim links carry a 150 ms injected delay so the victim's
/// collect acks provably cannot arrive before the kill: the burst is
/// guaranteed to die *collected but uncommitted* on the survivors, which
/// is the state only a recovery takeover can resolve. (On an unshaped
/// loopback the whole burst commits inside the pre-kill window and the
/// drill degenerates into a clean shutdown with nothing to take over.)
#[test]
fn detector_counters_record_the_takeover() {
    const BURST: u64 = 100;
    const SHARED_KEYS: Key = 4;
    let options = ClusterOptions {
        tick_interval: Duration::from_millis(10),
        ..ClusterOptions::default()
    }
    .with_suspicion(Duration::from_millis(300))
    .with_net(
        NetProfile::new(0xD7)
            .rule(LinkRule::link(1, 3).delay(Duration::from_millis(150)))
            .rule(LinkRule::link(2, 3).delay(Duration::from_millis(150))),
    );
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        let mut client = Client::connect(cluster.addr(1), 1).await.expect("client");
        for i in 0..100u64 {
            client.put(i % SHARED_KEYS, i).await.expect("phase A write");
        }

        // Conflicting burst at the victim, killed mid-flight: survivors now
        // hold state only a recovery takeover can resolve.
        let mut burst = OpenLoopClient::connect(cluster.addr(3), 3)
            .await
            .expect("burst client");
        let cmds: Vec<atlas_core::Command> = (0..BURST)
            .map(|i| {
                let rifl = burst.next_rifl();
                atlas_core::Command::put(rifl, i % SHARED_KEYS, 3_000_000 + i, 64)
            })
            .collect();
        burst.submit_batch(cmds).await.expect("burst fired");
        tokio::time::sleep(Duration::from_millis(5)).await;
        cluster.kill(3);

        // Conflicting writes against a survivor complete only after the
        // takeover resolves the dead coordinator's in-flight commands.
        let keep_writing = async move {
            for i in 100..200u64 {
                client.put(i % SHARED_KEYS, i).await.expect("phase B write");
            }
        };
        tokio::time::timeout(Duration::from_secs(60), keep_writing)
            .await
            .expect("workload stalled after the kill");

        for id in [1 as ProcessId, 2] {
            let mut probe = Client::connect(cluster.addr(id), 900 + id as u64)
                .await
                .expect("stats probe connects");
            let s = probe.stats().await.expect("stats");
            assert!(
                s.detector.suspicions >= 1,
                "survivor {id} never recorded the suspicion: {:?}",
                s.detector
            );
            assert!(
                s.detector.takeovers >= 1,
                "survivor {id} never recorded the takeover: {:?}",
                s.detector
            );
            let dead_link = s
                .links
                .iter()
                .find(|link| link.peer == 3)
                .expect("link to the dead peer is exported");
            assert!(
                !dead_link.connected,
                "survivor {id} still reports the dead peer connected"
            );
        }
        cluster.shutdown();
    });
}

/// The `--metrics-every` dump must fail open: when the JSONL append stops
/// working (here `metrics.jsonl` is replaced by a directory, so every
/// append-open fails), the replica disables the dump and keeps serving —
/// losing telemetry is acceptable, failing the replica over it is not.
#[test]
fn metrics_dump_self_disables_on_write_error_and_replica_keeps_serving() {
    let options = ClusterOptions {
        tick_interval: Duration::from_millis(10),
        metrics_every: 2,
        ..ClusterOptions::default()
    };
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        run_writes(cluster.addr(2), 2, 20).await.expect("phase A");

        // Sabotage the dump target while the replica is down: a directory
        // at the file's path makes every future append-open fail.
        cluster.kill(2);
        let path = cluster.data_dir(2).join("metrics.jsonl");
        let _ = std::fs::remove_file(&path);
        std::fs::create_dir(&path).expect("plant directory at the dump path");
        cluster.restart::<Atlas>(2).await.expect("replica restarts");

        // The replica recovered, hit the broken dump on its first cadence
        // tick, and must still serve commands and the live stats plane.
        run_writes(cluster.addr(2), 20, 20).await.expect("phase B");
        tokio::time::sleep(Duration::from_millis(100)).await; // several dump cadences
        let mut probe = Client::connect(cluster.addr(2), 902).await.expect("probe");
        let s = probe
            .stats()
            .await
            .expect("live stats survive the dead dump");
        assert!(
            s.store_executed >= 20,
            "restarted replica is not executing: {}",
            s.store_executed
        );

        // The dump self-disabled instead of retrying: nothing was written
        // into (or beside) the directory squatting on its path.
        assert!(path.is_dir(), "dump path was replaced: {}", path.display());
        let planted = std::fs::read_dir(&path).expect("read planted dir").count();
        assert_eq!(planted, 0, "the disabled dump kept writing");
        cluster.shutdown();
    });
}
