//! End-to-end failure detection + recovery over real TCP.
//!
//! The headline scenario (the paper's availability claim, §5.6): a
//! 3-replica cluster, the coordinator of in-flight conflicting commands is
//! killed mid-workload and **never restarted** — and the drill runs for
//! **every hosted protocol**. The survivors suspect the coordinator after
//! `suspect_after` of silence and run the protocol's own recovery: Atlas
//! Algorithm-2 `MRec` takeover, EPaxos explicit-prepare instance recovery,
//! Mencius slot revocation, and (killing the *leader*) FPaxos leader
//! election with proxy re-forwarding. The rest of the workload completes
//! with identical cross-replica digests.
//!
//! Two negative drills prove the new recovery paths are load-bearing: with
//! the failure detector disabled, the same EPaxos and Mencius scenarios
//! stall and never complete.
//!
//! Also here: a suspected-then-restarted replica reconverges (all four
//! protocols), and a suspected replica that rejoins *wiped* under its own
//! identifier is trusted again rather than staying suspected forever.

use atlas_core::{ClientId, Command, Config, Key, ProcessId, Protocol, Rifl};
use atlas_protocol::Atlas;
use atlas_runtime::{Client, Cluster, ClusterOptions, LinkRule, NetProfile, OpenLoopClient};
use kvstore::ExecutionSummary;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const SHARED_KEYS: Key = 4;

/// Fast cadences for fault injection: suspicion well above the tick (so
/// heartbeats can refute it) but far below test patience.
fn drill_options() -> ClusterOptions {
    ClusterOptions {
        tick_interval: Duration::from_millis(10),
        ..ClusterOptions::default()
    }
    .with_suspicion(Duration::from_millis(300))
}

/// What op `i` of client `client_id` writes: shared keys only, so every
/// command conflicts with the dead coordinator's in-flight ones.
fn write_key(client_id: ClientId, i: u64) -> Key {
    (client_id + i) % SHARED_KEYS
}

/// Runs `ops` sequential conflicting writes for `client_id` against `addr`,
/// starting at sequence `seq_base + 1`.
async fn run_writes(
    addr: std::net::SocketAddr,
    client_id: ClientId,
    seq_base: u64,
    ops: u64,
) -> std::io::Result<()> {
    let mut client = Client::connect_with_seq(addr, client_id, seq_base + 1).await?;
    for i in seq_base..seq_base + ops {
        client
            .put(write_key(client_id, i), client_id * 1_000_000 + i)
            .await?;
    }
    Ok(())
}

/// Polls the replicas in `ids` until they report the same execution
/// summary and digest, with at least as many commands executed as
/// `must_contain` names; returns each polled replica's `(summary, digest)`.
/// A replica in `ids` answered each of `must_contain`'s commands, so equal
/// summaries hold them everywhere.
async fn converge_on(
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

/// Asserts the converged replicas executed exactly the commands `rifls`,
/// each once.
fn assert_executed_once(logs: &[(ExecutionSummary, u64)], rifls: &HashSet<Rifl>) {
    let summary = logs[0].0;
    assert_eq!(
        summary.len(),
        rifls.len() as u64,
        "lost or duplicate execution"
    );
    assert_eq!(summary.set, ExecutionSummary::set_of(rifls.iter().copied()));
}

/// **The acceptance scenario**, generic over the hosted protocol. The
/// replica at `victim` coordinates a burst of conflicting commands and is
/// killed mid-burst, never to return; clients keep writing against the two
/// survivors. Without working suspicion + recovery this stalls forever:
/// for Atlas/EPaxos the survivors' commands depend on the dead
/// coordinator's unresolved identifiers, for Mencius every commit waits on
/// the dead replica's acknowledgement (and the log has holes at its
/// slots), for FPaxos (victim = the leader, with clients proxied through
/// the survivors) every command funnels through the corpse.
fn killed_coordinator_drill<P>(victim: ProcessId)
where
    P: Protocol + Send + 'static,
    P::Message: Serialize + Deserialize + Send + 'static,
{
    const PHASE_A: u64 = 150;
    const BURST: u64 = 100;
    const PHASE_B: u64 = 350;
    let survivors: Vec<ProcessId> = (1..=REPLICAS as ProcessId)
        .filter(|id| *id != victim)
        .collect();
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<P>(Config::new(REPLICAS, 1), drill_options())
            .await
            .expect("cluster boots");
        let drive = |cluster: &Cluster, seq_base: u64, ops: u64| {
            let addr1 = cluster.addr(survivors[0]);
            let addr2 = cluster.addr(survivors[1]);
            async move {
                let c1 = tokio::spawn(run_writes(addr1, 1, seq_base, ops));
                let c2 = tokio::spawn(run_writes(addr2, 2, seq_base, ops));
                c1.await.expect("client 1 task").expect("client 1 run");
                c2.await.expect("client 2 task").expect("client 2 run");
            }
        };

        drive(&cluster, 0, PHASE_A).await;

        // Client 3 fires a burst of conflicting writes at the victim
        // open-loop (no waiting), and the victim dies mid-burst: some
        // commands are fully committed, some are in flight at arbitrary
        // stages — partially propagated but never committed is the
        // poisonous stage, because survivors now hold state only recovery
        // can resolve.
        let mut burst = OpenLoopClient::connect(cluster.addr(victim), 3)
            .await
            .expect("burst client");
        let cmds: Vec<Command> = (0..BURST)
            .map(|i| {
                let rifl = burst.next_rifl();
                Command::put(rifl, write_key(3, i), 3_000_000 + i, 64)
            })
            .collect();
        burst.submit_batch(cmds).await.expect("burst fired");
        // Give the burst a moment to reach the victim and partially
        // propagate, then kill it. No flush, no goodbye.
        tokio::time::sleep(Duration::from_millis(5)).await;
        cluster.kill(victim);

        // The rest of the workload — ~1k conflicting commands against the
        // survivors. Deadlocks here (forever) if suspicion or recovery is
        // broken; the timeout turns that into a loud failure.
        let remaining =
            tokio::time::timeout(Duration::from_secs(120), drive(&cluster, PHASE_A, PHASE_B)).await;
        assert!(
            remaining.is_ok(),
            "workload stalled: the dead coordinator was never suspected or \
             its in-flight commands were never recovered"
        );

        // Survivors must agree exactly — same summary (count, set word and
        // per-key write order) and digest — and have executed every client
        // command once. The burst is one request, so one instance: it
        // executes whole everywhere, or recovery turned it into a `noOp`.
        let total = PHASE_A + PHASE_B;
        let must_contain: HashSet<Rifl> = [1u64, 2]
            .into_iter()
            .flat_map(|client| (1..=total).map(move |seq| Rifl::new(client, seq)))
            .collect();
        let logs = converge_on(&cluster, &survivors, &must_contain, Duration::from_secs(60)).await;
        let survived = ExecutionSummary::set_of(must_contain.iter().copied());
        let burst = ExecutionSummary::set_of((1..=BURST).map(|seq| Rifl::new(3, seq)));
        let summary = logs[0].0;
        let expected = match summary.len() - 2 * total {
            0 => survived,
            BURST => survived.wrapping_add(burst),
            other => panic!("{other} burst commands executed: a duplicate or a torn batch"),
        };
        assert_eq!(summary.set, expected, "lost or duplicate execution");
        cluster.shutdown();
    });
}

#[test]
fn killed_coordinator_recovers_atlas() {
    killed_coordinator_drill::<Atlas>(3);
}

#[test]
fn killed_coordinator_recovers_epaxos() {
    killed_coordinator_drill::<epaxos::EPaxos>(3);
}

#[test]
fn killed_coordinator_recovers_mencius() {
    killed_coordinator_drill::<mencius::Mencius>(3);
}

/// FPaxos funnels every command through the leader (replica 1 under the
/// identity topology), so the drill kills *it* while clients write through
/// the surviving proxies: the survivors must elect a new leader and
/// re-forward their in-flight commands.
#[test]
fn killed_leader_recovers_fpaxos() {
    killed_coordinator_drill::<fpaxos::FPaxos>(1);
}

/// The negative drill proving the recovery paths are load-bearing: the
/// same scenario with the failure detector disabled must stall. For
/// Mencius the stall is structural (every commit waits for the dead
/// replica's acknowledgement); for EPaxos the survivors' conflicting
/// commands wait on the dead coordinator's in-flight instances.
///
/// The survivor→victim links carry a 150 ms injected delay, and the victim
/// is killed as soon as its burst reached survivor 1: the burst provably
/// dies collected but uncommitted, so the stall is required on the first
/// attempt. (Unshaped, the burst could commit before the kill landed.)
fn killed_coordinator_stalls_without_recovery<P>()
where
    P: Protocol + Send + 'static,
    P::Message: Serialize + Deserialize + Send + 'static,
{
    const PHASE_A: u64 = 30;
    const BURST: u64 = 600;
    const ACK_DELAY: Duration = Duration::from_millis(150);
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let options = ClusterOptions {
            tick_interval: Duration::from_millis(10),
            suspect_after: None, // the recovery path under test, disabled
            ..ClusterOptions::default()
        }
        .with_net(
            NetProfile::new(0x5A)
                .rule(LinkRule::link(1, 3).delay(ACK_DELAY))
                .rule(LinkRule::link(2, 3).delay(ACK_DELAY)),
        );
        let mut cluster = Cluster::spawn_with::<P>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        run_writes(cluster.addr(1), 1, 0, PHASE_A)
            .await
            .expect("phase A");

        let mut probe = Client::connect(cluster.addr(1), 901)
            .await
            .expect("probe client");
        async fn tracked(probe: &mut Client) -> u64 {
            probe.stats().await.expect("stats").tracked_entries
        }
        let before = tracked(&mut probe).await;
        let mut burst = OpenLoopClient::connect(cluster.addr(3), 3)
            .await
            .expect("burst client");
        let cmds: Vec<Command> = (0..BURST)
            .map(|i| {
                let rifl = burst.next_rifl();
                Command::put(rifl, write_key(3, i), 3_000_000 + i, 64)
            })
            .collect();
        let fired = Instant::now();
        burst.submit_batch(cmds).await.expect("burst fired");
        // Kill the coordinator once the burst reached survivor 1: its acks
        // are still in flight, so nothing of the burst can have committed.
        while tracked(&mut probe).await == before {
            assert!(
                fired.elapsed() < Duration::from_secs(20),
                "the burst never reached survivor 1"
            );
            tokio::time::sleep(Duration::from_millis(2)).await;
        }
        cluster.kill(3);
        assert!(
            fired.elapsed() < ACK_DELAY,
            "the kill landed after the first acks could arrive"
        );

        // With no failure detector nothing ever resolves the dead
        // coordinator's in-flight state: the conflicting workload below
        // must hang until the timeout.
        let completed = tokio::time::timeout(
            Duration::from_secs(8),
            run_writes(cluster.addr(1), 1, PHASE_A, 30),
        )
        .await;
        cluster.shutdown();
        assert!(
            completed.is_err(),
            "the workload completed without {} recovery — the suspect path \
             is not load-bearing",
            P::name()
        );
    });
}

#[test]
fn epaxos_stalls_without_recovery() {
    killed_coordinator_stalls_without_recovery::<epaxos::EPaxos>();
}

#[test]
fn mencius_stalls_without_recovery() {
    killed_coordinator_stalls_without_recovery::<mencius::Mencius>();
}

/// A replica that is suspected (killed long enough for the detector to
/// fire at the survivors) and then restarted from its journal is trusted
/// again and reconverges to identical digests — for every hosted protocol,
/// including the ones whose `suspect` is a documented no-op.
fn suspected_then_restarted_reconverges<P>()
where
    P: Protocol + Send + 'static,
    P::Message: Serialize + Deserialize + Send + 'static,
{
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<P>(Config::new(REPLICAS, 1), drill_options())
            .await
            .expect("cluster boots");
        run_writes(cluster.addr(1), 1, 0, 100)
            .await
            .expect("phase 1");
        cluster.kill(3);
        // Stay down well past `suspect_after`: the survivors' detectors
        // fire and dispatch `Protocol::suspect(3)`.
        tokio::time::sleep(Duration::from_millis(900)).await;
        cluster.restart::<P>(3).await.expect("restart");
        run_writes(cluster.addr(1), 1, 100, 50)
            .await
            .expect("phase 2");
        let must_contain: HashSet<Rifl> = (1..=150).map(|seq| Rifl::new(1, seq)).collect();
        let logs = converge_on(&cluster, &[1, 2, 3], &must_contain, Duration::from_secs(60)).await;
        assert_executed_once(&logs, &must_contain);
        cluster.shutdown();
    });
}

#[test]
fn atlas_suspected_restart_reconverges() {
    suspected_then_restarted_reconverges::<Atlas>();
}

#[test]
fn epaxos_suspected_restart_reconverges() {
    suspected_then_restarted_reconverges::<epaxos::EPaxos>();
}

#[test]
fn fpaxos_suspected_restart_reconverges() {
    suspected_then_restarted_reconverges::<fpaxos::FPaxos>();
}

#[test]
fn mencius_suspected_restart_reconverges() {
    suspected_then_restarted_reconverges::<mencius::Mencius>();
}

/// A suspected replica whose data directory is *wiped* rejoins under its
/// old identifier via `Hello::CatchUp` — the catch-up request itself (and
/// the rejoined replica's heartbeats) count as evidence of life, so it
/// must end up trusted and serving rather than permanently suspected.
#[test]
fn wiped_replica_rejoins_after_suspicion() {
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), drill_options())
            .await
            .expect("cluster boots");
        run_writes(cluster.addr(1), 1, 0, 100)
            .await
            .expect("phase 1");
        cluster.kill(3);
        tokio::time::sleep(Duration::from_millis(900)).await;
        cluster.restart_wiped::<Atlas>(3).await.expect("rejoin");
        run_writes(cluster.addr(1), 1, 100, 50)
            .await
            .expect("phase 2");
        // Convergence of replica 3 itself proves it is being spoken to
        // again: a permanently suspected (or permanently silent) rejoiner
        // would never reach the survivors' digest.
        let must_contain: HashSet<Rifl> = (1..=150).map(|seq| Rifl::new(1, seq)).collect();
        let logs = converge_on(&cluster, &[1, 2, 3], &must_contain, Duration::from_secs(60)).await;
        assert_executed_once(&logs, &must_contain);
        cluster.shutdown();
    });
}
