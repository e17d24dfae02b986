//! Live-reconfiguration drills over real TCP: epoch-stamped membership
//! change, replica replacement, and the scale-out figure experiments.
//!
//! | drill | claim | figure |
//! |---|---|---|
//! | `expand_3_to_5_to_7_mid_workload` | two `Enter`/`Finalize` windows grow the cluster under load with zero lost or duplicated client commands | `fig_reconfig_scale_out` |
//! | `swap_dead_replica_unfreezes_gc` | replacing a crashed member re-keys the GC horizon on the new member set and compaction resumes | `fig_reconfig_swap` |
//!
//! The edge-case tests pin down the boundary behaviours the drills only
//! exercise implicitly: an old-epoch straggler frame from a removed member
//! is dropped before it can poison the watermark fold, a joiner killed
//! mid-bootstrap leaves the joint window open until a wiped retry lands,
//! and a replica that journaled a `Reconfigure` barrier without ever
//! snapshotting replays into the post-barrier member set.

#[allow(dead_code)]
mod scenarios;

use atlas_core::{Config, ProcessId, Rifl};
use atlas_protocol::Atlas;
use atlas_runtime::wire::{Hello, PeerBody, PeerFrame};
use atlas_runtime::{Client, Cluster, ClusterOptions};
use kvstore::ExecutionSummary;
use scenarios::*;
use std::collections::HashSet;
use std::time::Duration;
use tokio::io::AsyncWriteExt;
use tokio::net::TcpStream;

/// Fast tick so epoch announcements and the auto-finalize dwell settle in
/// fractions of a second; suspicion stays on so detector membership is
/// exercised across epoch switches.
fn reconfig_options() -> ClusterOptions {
    ClusterOptions {
        tick_interval: Duration::from_millis(10),
        gc_every: 8,
        ..ClusterOptions::default()
    }
    .with_suspicion(Duration::from_millis(800))
}

/// Sum of the per-space GC floor — a scalar that only moves when the
/// compaction horizon does.
fn horizon_sum(s: &atlas_runtime::MetricsSnapshot) -> u64 {
    s.gc.horizon.iter().map(|&(_, v)| v).sum()
}

/// Asserts the converged replicas executed each command of `workload` once
/// and, beside it, only the reconfiguration barriers: one per epoch switch,
/// as many as replica 1's epoch. That is the "zero duplicated commands
/// across epoch boundaries" half of the drill claim; the zero-lost half is
/// `converge_on`'s `must_contain`.
async fn assert_no_duplicates(
    cluster: &Cluster,
    logs: &[(ExecutionSummary, u64)],
    workload: &HashSet<Rifl>,
) {
    let barriers = snapshot(cluster, 1).await.expect("stats").epoch;
    let executed = logs[0].0.len();
    assert_eq!(
        executed,
        workload.len() as u64 + barriers,
        "{executed} commands executed: {} workload commands, {barriers} barriers",
        workload.len()
    );
}

/// The scale-out drill: a 3-replica Atlas cluster grows to 5 and then 7
/// members while a client workload runs, every switch decided through the
/// replicated log. After the second window finalizes, a fresh client
/// writes through one of the *joiners* — proof the new members carry
/// traffic — and all 7 execution summaries must converge with every
/// workload command present exactly once.
#[test]
fn expand_3_to_5_to_7_mid_workload() {
    let _guard = serial();
    const WORKLOAD_OPS: u64 = 240;
    const JOINER_OPS: u64 = 30;
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), reconfig_options())
            .await
            .expect("cluster boots");

        // The mid-workload part: a paced writer keeps commands in flight
        // across both reconfiguration windows.
        let addr = cluster.addr(1);
        let workload = tokio::spawn(async move {
            let mut client = Client::connect(addr, 7).await?;
            for i in 0..WORKLOAD_OPS {
                client.put(7 * 10_000 + (i % 32), i).await?;
                tokio::time::sleep(Duration::from_millis(5)).await;
            }
            std::io::Result::Ok(())
        });
        tokio::time::sleep(Duration::from_millis(200)).await;

        let first = cluster
            .add_replicas::<Atlas>(2, 1)
            .await
            .expect("first expansion");
        assert_eq!(first, vec![4, 5]);
        snapshot_when(
            &cluster,
            1,
            Duration::from_secs(30),
            "first window to finalize (epoch 2)",
            |s| s.epoch >= 2,
        )
        .await;

        let second = cluster
            .add_replicas::<Atlas>(2, 1)
            .await
            .expect("second expansion");
        assert_eq!(second, vec![6, 7]);
        let settled = snapshot_when(
            &cluster,
            1,
            Duration::from_secs(30),
            "second window to finalize (epoch 4)",
            |s| s.epoch >= 4,
        )
        .await;
        // The joiners themselves must reach the settled epoch, not just
        // the member that drove the expansion.
        for id in [4, 5, 6, 7] {
            snapshot_when(
                &cluster,
                id,
                Duration::from_secs(30),
                "joiner to reach the settled epoch",
                |s| s.epoch >= 4,
            )
            .await;
        }

        workload
            .await
            .expect("workload task")
            .expect("workload writes");

        // New members serve traffic: a second client writes through
        // replica 6, admitted two epochs after boot.
        let mut via_joiner = Client::connect(cluster.addr(6), 8)
            .await
            .expect("joiner serves");
        for i in 0..JOINER_OPS {
            via_joiner
                .put(8 * 10_000 + i, i)
                .await
                .expect("put via joiner");
        }

        let mut must_contain = rifls_of(7, 0, WORKLOAD_OPS);
        must_contain.extend(rifls_of(8, 0, JOINER_OPS));
        let ids: Vec<ProcessId> = (1..=7).collect();
        let logs = converge_on(&cluster, &ids, &must_contain, Duration::from_secs(60)).await;
        assert_no_duplicates(&cluster, &logs, &must_contain).await;

        let mut report = FigureReport::new("fig_reconfig_scale_out");
        report.check(
            "members_final",
            cluster.members().len() as f64,
            Some(7.0),
            Some(7.0),
        );
        report.check("epoch_final", settled.epoch as f64, Some(4.0), None);
        report.check(
            "commands_executed_everywhere",
            must_contain.len() as f64,
            Some((WORKLOAD_OPS + JOINER_OPS) as f64),
            None,
        );
        report.check(
            "converged_replicas",
            logs.len() as f64,
            Some(7.0),
            Some(7.0),
        );
        report.note("log_entries", logs[0].0.len() as f64);
        report.emit();
        cluster.shutdown();
    });
}

/// The replacement drill: with GC on, a member crashes and the horizon
/// freezes at the dead replica's last watermark report (its stale report
/// still keys the pointwise-minimum fold). Swapping the dead member for a
/// fresh replica re-keys the fold on the *current* configuration, and the
/// horizon advances again once the replacement reports.
#[test]
fn swap_dead_replica_unfreezes_gc() {
    let _guard = serial();
    const PHASE_OPS: u64 = 40;
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut options = reconfig_options();
        options.gc_every = 4;
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
            .await
            .expect("cluster boots");

        // Phase A: enough executed entries for a first GC round.
        timed_writes(cluster.addr(1), 11, PHASE_OPS)
            .await
            .expect("phase A");
        snapshot_when(
            &cluster,
            1,
            Duration::from_secs(20),
            "a first GC round",
            |s| s.gc.rounds >= 1 && horizon_sum(s) > 0,
        )
        .await;

        // Phase B: replica 3 dies; commits continue on the survivor
        // majority but the horizon freezes at 3's last (stale) report.
        cluster.kill(3);
        let mut client = Client::connect_with_seq(cluster.addr(1), 11, PHASE_OPS + 1)
            .await
            .expect("phase B client");
        for i in 0..PHASE_OPS {
            client
                .put(11 * 10_000 + (i % 32), i)
                .await
                .expect("phase B put");
        }
        // Settle: two identical samples 400 ms (many GC cadences) apart.
        let frozen = loop {
            let a = snapshot(&cluster, 1).await.expect("stats");
            tokio::time::sleep(Duration::from_millis(400)).await;
            let b = snapshot(&cluster, 1).await.expect("stats");
            if horizon_sum(&a) == horizon_sum(&b) {
                break horizon_sum(&b);
            }
        };

        // The swap: one Enter barrier drops 3 and admits the replacement.
        let new_id = cluster.swap_replica::<Atlas>(3).await.expect("swap");
        snapshot_when(
            &cluster,
            1,
            Duration::from_secs(30),
            "swap window to finalize (epoch 2)",
            |s| s.epoch >= 2,
        )
        .await;
        snapshot_when(
            &cluster,
            new_id,
            Duration::from_secs(30),
            "replacement to reach the settled epoch",
            |s| s.epoch >= 2,
        )
        .await;

        // Phase C: more writes, then the headline assertion — the horizon
        // moves past its frozen value now that the dead member no longer
        // keys the fold.
        for i in PHASE_OPS..2 * PHASE_OPS {
            client
                .put(11 * 10_000 + (i % 32), i)
                .await
                .expect("phase C put");
        }
        let advanced = snapshot_when(
            &cluster,
            1,
            Duration::from_secs(30),
            "the GC horizon to advance past its frozen value",
            |s| horizon_sum(s) > frozen,
        )
        .await;

        let survivors: Vec<ProcessId> = vec![1, 2, new_id];
        let workload = rifls_of(11, 0, 3 * PHASE_OPS);
        let logs = converge_on(&cluster, &survivors, &workload, Duration::from_secs(60)).await;
        assert_no_duplicates(&cluster, &logs, &workload).await;

        let mut report = FigureReport::new("fig_reconfig_swap");
        report.check("horizon_frozen", frozen as f64, Some(1.0), None);
        report.check(
            "horizon_after_swap",
            horizon_sum(&advanced) as f64,
            Some(frozen as f64 + 1.0),
            None,
        );
        report.check("gc_rounds", advanced.gc.rounds as f64, Some(2.0), None);
        report.check("epoch_final", advanced.epoch as f64, Some(2.0), None);
        report.check(
            "members_final",
            cluster.members().len() as f64,
            Some(3.0),
            Some(3.0),
        );
        report.note("entries_dropped", advanced.gc.entries_dropped as f64);
        report.emit();
        cluster.shutdown();
    });
}

/// Edge case: after a swap settles, frames stamped with an old epoch from
/// a replica that is no longer a member must be dropped before they touch
/// protocol or GC state. The probe dials a survivor *as* the removed
/// member and replays a stale watermark report plus a garbage `Msg`
/// payload: if either got past the epoch gate, the watermark fold would
/// clamp the horizon to the stale values forever (and the garbage payload
/// would fail protocol decode). The horizon advancing past its
/// pre-injection value proves the gate held.
#[test]
fn old_epoch_straggler_frames_are_dropped() {
    let _guard = serial();
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut options = reconfig_options();
        options.gc_every = 4;
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
            .await
            .expect("cluster boots");

        timed_writes(cluster.addr(1), 21, 30)
            .await
            .expect("base workload");
        cluster.kill(3);
        let new_id = cluster.swap_replica::<Atlas>(3).await.expect("swap");
        snapshot_when(
            &cluster,
            1,
            Duration::from_secs(30),
            "swap to finalize",
            |s| s.epoch >= 2,
        )
        .await;
        let before = snapshot_when(
            &cluster,
            1,
            Duration::from_secs(30),
            "a post-swap GC round",
            |s| horizon_sum(s) > 0,
        )
        .await;

        // The straggler: replica 3 "comes back from the dead" with its
        // pre-reconfiguration epoch and a floor-zero watermark report.
        let mut wire = TcpStream::connect(cluster.addr(1))
            .await
            .expect("dial survivor");
        atlas_runtime::wire::write_frame(&mut wire, &Hello::Peer { from: 3 })
            .await
            .expect("hello");
        let stale = PeerFrame {
            from: 3,
            seq: 0,
            epoch: 0,
            body: PeerBody::Watermarks(vec![(1, 0), (2, 0), (3, 0)]),
        };
        atlas_runtime::wire::write_frame(&mut wire, &stale)
            .await
            .expect("stale watermarks");
        let garbage = PeerFrame {
            from: 3,
            seq: 1,
            epoch: 0,
            body: PeerBody::Msg(vec![0xFF; 16]),
        };
        atlas_runtime::wire::write_frame(&mut wire, &garbage)
            .await
            .expect("stale msg");
        wire.flush().await.ok();
        tokio::time::sleep(Duration::from_millis(300)).await;

        // Liveness and compaction both survive the injection.
        let mut client = Client::connect_with_seq(cluster.addr(1), 21, 31)
            .await
            .expect("post-injection client");
        for i in 0..30u64 {
            client
                .put(21 * 10_000 + (i % 32), i)
                .await
                .expect("post-injection put");
        }
        snapshot_when(
            &cluster,
            1,
            Duration::from_secs(30),
            "the horizon to advance past the injection",
            |s| horizon_sum(s) > horizon_sum(&before),
        )
        .await;
        converge_on(
            &cluster,
            &[1, 2, new_id],
            &rifls_of(21, 0, 60),
            Duration::from_secs(60),
        )
        .await;
        cluster.shutdown();
    });
}

/// Edge case: a joiner that dies mid-bootstrap must not wedge the
/// cluster. The joint window stays open (auto-finalize refuses to cut
/// over while the incoming member is unreachable), commits continue in
/// joint quorums, and a wiped restart of the joiner re-runs the bootstrap
/// and lets the window finalize.
#[test]
fn joiner_killed_mid_bootstrap_retries_cleanly() {
    let _guard = serial();
    const BASE_OPS: u64 = 300;
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut options = reconfig_options();
        // A deep prefix served in tiny chunks stretches the bootstrap
        // window the kill lands in.
        options.snapshot_every = 64;
        options.catch_up_chunk_bytes = 1024;
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
            .await
            .expect("cluster boots");
        timed_writes(cluster.addr(1), 31, BASE_OPS)
            .await
            .expect("base workload");

        let joiner = cluster
            .add_replica::<Atlas>()
            .await
            .expect("expansion starts");
        tokio::time::sleep(Duration::from_millis(30)).await;
        cluster.kill(joiner);

        // The window must stay joint: the barrier has entered (epoch 1)
        // but finalize is gated on the joiner being connected and drained.
        snapshot_when(
            &cluster,
            1,
            Duration::from_secs(20),
            "the joint epoch",
            |s| s.epoch == 1,
        )
        .await;
        let mut client = Client::connect_with_seq(cluster.addr(1), 31, BASE_OPS + 1)
            .await
            .expect("joint-window client");
        for i in 0..20u64 {
            client
                .put(31 * 10_000 + (i % 32), i)
                .await
                .expect("joint-window put");
        }
        tokio::time::sleep(Duration::from_secs(1)).await;
        let held = snapshot(&cluster, 1).await.expect("stats");
        assert_eq!(
            held.epoch, 1,
            "window must not finalize with the joiner dead"
        );

        // The retry: a wiped restart re-runs the full bootstrap.
        cluster
            .restart_wiped::<Atlas>(joiner)
            .await
            .expect("joiner retries");
        snapshot_when(
            &cluster,
            1,
            Duration::from_secs(30),
            "the window to finalize",
            |s| s.epoch >= 2,
        )
        .await;
        snapshot_when(
            &cluster,
            joiner,
            Duration::from_secs(30),
            "the joiner to reach the settled epoch",
            |s| s.epoch >= 2,
        )
        .await;

        let ids: Vec<ProcessId> = vec![1, 2, 3, joiner];
        let workload = rifls_of(31, 0, BASE_OPS + 20);
        let logs = converge_on(&cluster, &ids, &workload, Duration::from_secs(60)).await;
        assert_no_duplicates(&cluster, &logs, &workload).await;
        cluster.shutdown();
    });
}

/// Edge case: a member that journaled the `Reconfigure` barriers but never
/// snapshotted (journal-only durability) must replay into the
/// post-barrier member set — the epoch switch is re-derived from barrier
/// execution during replay, not from any snapshot field.
#[test]
fn journaled_reconfigure_replays_into_new_member_set() {
    let _guard = serial();
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut options = reconfig_options();
        // Keep the full journal: original members never snapshot, so a
        // restart replays every record including the barriers.
        options.snapshot_every = 0;
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
            .await
            .expect("cluster boots");

        timed_writes(cluster.addr(1), 41, 30)
            .await
            .expect("pre-expansion workload");
        let joiner = cluster.add_replica::<Atlas>().await.expect("expansion");
        snapshot_when(
            &cluster,
            1,
            Duration::from_secs(30),
            "expansion to finalize",
            |s| s.epoch >= 2,
        )
        .await;
        let mut client = Client::connect_with_seq(cluster.addr(1), 41, 31)
            .await
            .expect("post-expansion client");
        for i in 0..30u64 {
            client
                .put(41 * 10_000 + (i % 32), i)
                .await
                .expect("post-expansion put");
        }
        drop(client);

        // Replica 2 restarts from its journal alone and must come back in
        // epoch 2 with 4 members — talking to the joiner it admitted.
        cluster.kill(2);
        cluster
            .restart::<Atlas>(2)
            .await
            .expect("journal-only restart");
        snapshot_when(
            &cluster,
            2,
            Duration::from_secs(30),
            "the replayed replica to land in the settled epoch",
            |s| s.epoch >= 2,
        )
        .await;

        let ids: Vec<ProcessId> = vec![1, 2, 3, joiner];
        let workload = rifls_of(41, 0, 60);
        let logs = converge_on(&cluster, &ids, &workload, Duration::from_secs(60)).await;
        assert_no_duplicates(&cluster, &logs, &workload).await;
        cluster.shutdown();
    });
}

/// Edge case companion to removal: a member voted out of the
/// configuration executes the barrier, retires itself, and the remaining
/// members carry on without it.
#[test]
fn removed_replica_retires_itself() {
    let _guard = serial();
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(4, 1), reconfig_options())
            .await
            .expect("cluster boots");
        timed_writes(cluster.addr(1), 51, 30)
            .await
            .expect("base workload");

        cluster.remove_replica(4, 1).await.expect("removal");
        snapshot_when(
            &cluster,
            1,
            Duration::from_secs(30),
            "removal to finalize",
            |s| s.epoch >= 2,
        )
        .await;
        assert_eq!(cluster.members(), &[1, 2, 3]);

        // The removed replica tears itself down once the barrier reaches
        // it: its stats plane stops answering.
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        loop {
            if snapshot(&cluster, 4).await.is_none() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "replica 4 still serving after being removed"
            );
            tokio::time::sleep(Duration::from_millis(100)).await;
        }

        let mut client = Client::connect_with_seq(cluster.addr(1), 51, 31)
            .await
            .expect("post-removal client");
        for i in 0..30u64 {
            client
                .put(51 * 10_000 + (i % 32), i)
                .await
                .expect("post-removal put");
        }
        let workload = rifls_of(51, 0, 60);
        let logs = converge_on(&cluster, &[1, 2, 3], &workload, Duration::from_secs(60)).await;
        assert_no_duplicates(&cluster, &logs, &workload).await;
        cluster.shutdown();
    });
}
