//! The WAN scenario harness: the paper's figure experiments reproduced
//! **end-to-end over real TCP** — real replicas, real clients, and real
//! injected network conditions ([`atlas_runtime::netem`]) instead of the
//! discrete-event simulator (`planet-sim`) that produced the original
//! figures. Each scenario asserts digest convergence plus a
//! scenario-specific invariant (fast-path ratio floor, bounded stall
//! window, detector counters from the PR-6 metrics plane) and emits a
//! `BENCH_fig*.json` artifact that `ci/bench_guard.py --fig` re-validates.
//!
//! | scenario | paper figure / claim | injected condition |
//! |---|---|---|
//! | `fast_path_geo3/geo5` | §5.3 fast-path latency at 3/5 sites | geo delay+jitter profile |
//! | `closest_quorum_geo3/geo5` | §3: every site commits at its closest quorum | geo profile, permuted sites, a client per site |
//! | `quorum_member_loss_geo3` | §5.6: a site failure does not stop the survivors | the one member of a replica's quorum killed |
//! | `stranded_takeover_geo3` | §5.6: the survivors take a dead coordinator's commands over | a coordinator killed holding 5/25/100 collected commands |
//! | `availability_under_region_loss` | §5.6 availability under region failure | permanent symmetric cut isolating a coordinator |
//! | `link_failure_and_recovery` | §5.6 link blips below the suspicion threshold | bounded symmetric cut |
//! | `asymmetric_partition` | simulator-inexpressible | one **directed** link cut |
//! | `slow_disk_replica` | simulator-inexpressible | injected fsync stalls vs. the detector |
//! | `flapping_link` | simulator-inexpressible | periodic cut vs. suspicion hysteresis |
//!
//! A negative drill (`no_injector_means_no_wan`) reruns the geo3
//! measurement with the profile disabled and requires the latency floor to
//! collapse — proving the injector, not the harness, produces the numbers.

mod scenarios;

use atlas_core::{Config, ProcessId};
use atlas_log::FlushPolicy;
use atlas_metrics::MetricsSnapshot;
use atlas_protocol::Atlas;
use atlas_runtime::{Client, Cluster, ClusterOptions, Cut, LinkRule, NetProfile, OpenLoopClient};
use scenarios::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const MS: Duration = Duration::from_millis(1);

/// Fast tick so heartbeats stay far below every suspicion threshold used
/// here (injected WAN delays add tens of milliseconds on top).
fn wan_options(net: Option<NetProfile>) -> ClusterOptions {
    ClusterOptions {
        tick_interval: Duration::from_millis(10),
        net,
        ..ClusterOptions::default()
    }
}

/// Sleeps until `at` (measured from `t0`) has certainly passed. Cut
/// schedules run on each replica's boot epoch, which is at or shortly
/// *after* `t0` — so for "the cut is surely open by now" sleeps, add the
/// boot slack; "surely before" targets subtract nothing (epoch ≥ t0).
async fn sleep_until(t0: Instant, at: Duration) {
    let target = t0 + at;
    let now = Instant::now();
    if target > now {
        tokio::time::sleep(target - now).await;
    }
}

/// Boots an Atlas cluster under `net`, runs `ops` non-conflicting closed-
/// loop writes through replica 1, waits for full digest convergence, and
/// returns the measured per-put latencies plus the cluster-wide
/// `(fast, slow)` path split — the §5.3 measurement body, shared by the
/// geo figures and the negative drill.
fn measure_fast_path(
    n: usize,
    f: usize,
    net: Option<NetProfile>,
    ops: u64,
) -> (Vec<Duration>, (u64, u64)) {
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(n, f), wan_options(net))
            .await
            .expect("cluster boots");
        let latencies = timed_writes(cluster.addr(1), 1, ops)
            .await
            .expect("workload");
        let ids: Vec<ProcessId> = (1..=n as ProcessId).collect();
        converge_on(
            &cluster,
            &ids,
            &rifls_of(1, 0, ops),
            Duration::from_secs(60),
        )
        .await;
        let mut snapshots = Vec::new();
        for id in &ids {
            snapshots.push(snapshot(&cluster, *id).await.expect("stats"));
        }
        let split = path_split(&snapshots);
        cluster.shutdown();
        (latencies, split)
    })
}

/// §5.3 at 3 sites: a non-conflicting workload over the geo3 profile must
/// ride the fast path and pay (at least) the cheapest fast-quorum round
/// trip per command.
#[test]
fn fast_path_geo3_over_real_tcp() {
    let _guard = serial();
    const OPS: u64 = 100;
    let (latencies, (fast, slow)) = measure_fast_path(3, 1, Some(geo3(0xF163)), OPS);
    let mut report = FigureReport::new("fig_fast_path_geo3");
    report.check(
        "fast_path_ratio",
        fast as f64 / (fast + slow) as f64,
        Some(0.9),
        None,
    );
    // The floor: a commit cannot beat the 20 ms round trip to the closest
    // fast-quorum peer (jitter only adds). The generous ceiling is a
    // sanity check against runaway scheduling, not a latency claim.
    report.check(
        "p50_put_ms",
        percentile_ms(&latencies, 0.50),
        Some(quorum_floor(&GEO3_LINKS, 1, 2).as_secs_f64() * 1e3 * 0.75),
        Some(500.0),
    );
    report.note("p95_put_ms", percentile_ms(&latencies, 0.95));
    report.note("commands", OPS as f64);
    report.emit();
}

/// §5.3 at 5 sites, `f = 2`: fast quorums are 4-of-5, so the floor climbs
/// to the 3rd-closest peer's round trip.
#[test]
fn fast_path_geo5_over_real_tcp() {
    let _guard = serial();
    const OPS: u64 = 60;
    let (latencies, (fast, slow)) = measure_fast_path(5, 2, Some(geo5(0xF165)), OPS);
    let mut report = FigureReport::new("fig_fast_path_geo5");
    report.check(
        "fast_path_ratio",
        fast as f64 / (fast + slow) as f64,
        Some(0.9),
        None,
    );
    report.check(
        "p50_put_ms",
        percentile_ms(&latencies, 0.50),
        Some(quorum_floor(&GEO5_LINKS, 1, 4).as_secs_f64() * 1e3 * 0.75),
        Some(500.0),
    );
    report.note("p95_put_ms", percentile_ms(&latencies, 0.95));
    report.note("commands", OPS as f64);
    report.emit();
}

/// The negative drill: the exact geo3 measurement body with the injector
/// disabled must collapse far below the WAN floor — if this test ever
/// fails, the fast-path figures are measuring harness overhead, not the
/// injected network.
#[test]
fn negative_drill_no_injector_means_no_wan() {
    let _guard = serial();
    const OPS: u64 = 100;
    let (latencies, (fast, slow)) = measure_fast_path(3, 1, None, OPS);
    let mut report = FigureReport::new("fig_negative_no_injector");
    report.check(
        "fast_path_ratio",
        fast as f64 / (fast + slow) as f64,
        Some(0.9),
        None,
    );
    // Loopback p50 is ~0.2 ms; anywhere under half the geo3 floor proves
    // the WAN numbers come from the injector.
    report.check(
        "p50_put_ms",
        percentile_ms(&latencies, 0.50),
        None,
        Some(quorum_floor(&GEO3_LINKS, 1, 2).as_secs_f64() * 1e3 * 0.5),
    );
    report.emit();
}

/// Boots an `n`-replica Atlas cluster over `links` (jitter-free, so a
/// round trip is exactly its floor) at the default tick, waits until every
/// replica has measured every link, then runs `ops`
/// non-conflicting closed-loop writes through **every** replica at once.
/// Returns each replica's latencies and final snapshot.
fn measure_every_site(
    n: usize,
    f: usize,
    links: &scenarios::Links,
    seed: u64,
    ops: u64,
) -> Vec<(Vec<Duration>, MetricsSnapshot)> {
    let options = ClusterOptions::default().with_net(geo(seed, links, Duration::ZERO));
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(n, f), options)
            .await
            .expect("cluster boots");
        let ids: Vec<ProcessId> = (1..=n as ProcessId).collect();
        for &id in &ids {
            let measured = |s: &MetricsSnapshot| s.links.iter().all(|l| l.rtt_us > 0);
            snapshot_when(&cluster, id, Duration::from_secs(10), "rtts", measured).await;
        }
        // Two ticks for a better order to hold, plus slack.
        tokio::time::sleep(200 * MS).await;
        let clients: Vec<_> = ids
            .iter()
            .map(|&id| tokio::spawn(timed_writes(cluster.addr(id), id as u64, ops)))
            .collect();
        let mut results = Vec::new();
        for (&id, client) in ids.iter().zip(clients) {
            let latencies = client.await.expect("client task").expect("workload");
            results.push((latencies, snapshot(&cluster, id).await.expect("stats")));
        }
        let mut must = std::collections::HashSet::new();
        for &id in &ids {
            must.extend(rifls_of(id as u64, 0, ops));
        }
        converge_on(&cluster, &ids, &must, Duration::from_secs(60)).await;
        cluster.shutdown();
        results
    })
}

/// Asserts every replica's p50 within 15 % of its closest-quorum round
/// trip over `links`, and emits the figure.
fn check_closest_quorums(
    figure: &'static str,
    links: &scenarios::Links,
    quorum: usize,
    results: &[(Vec<Duration>, MetricsSnapshot)],
) {
    const P50: [&str; 5] = [
        "p50_ms_r1",
        "p50_ms_r2",
        "p50_ms_r3",
        "p50_ms_r4",
        "p50_ms_r5",
    ];
    const REORDERS: [&str; 5] = [
        "reorders_r1",
        "reorders_r2",
        "reorders_r3",
        "reorders_r4",
        "reorders_r5",
    ];
    let mut report = FigureReport::new(figure);
    for (i, (latencies, s)) in results.iter().enumerate() {
        let floor = quorum_floor(links, i as ProcessId + 1, quorum).as_secs_f64() * 1e3;
        let p50 = percentile_ms(latencies, 0.50);
        report.check(P50[i], p50, Some(floor * 0.85), Some(floor * 1.15));
        report.note(REORDERS[i], s.detector.reorders as f64);
        assert_eq!(s.protocol_stats.recoveries, 0, "replica {}", i + 1);
    }
    report.emit();
}

/// §3's latency claim at 3 sites: with replicas 2 and 3 trading sites,
/// identifier order is wrong for two replicas of three, and every site must
/// still commit at the round trip to its closest quorum (20/30/20 ms).
#[test]
fn closest_quorum_geo3_permuted() {
    let _guard = serial();
    let links = swap(&GEO3_LINKS, 2, 3);
    let results = measure_every_site(3, 1, &links, 0xC103, 60);
    check_closest_quorums("fig_closest_quorum_geo3", &links, 2, &results);
}

/// The same at 5 sites, `f = 2` (fast quorums of 4), with replicas 4 and 5
/// trading sites: identifier order is more than 15 % off for four of five.
#[test]
fn closest_quorum_geo5_permuted() {
    let _guard = serial();
    let links = swap(&GEO5_LINKS, 4, 5);
    let results = measure_every_site(5, 2, &links, 0xC105, 40);
    check_closest_quorums("fig_closest_quorum_geo5", &links, 4, &results);
}

/// §5.6 from the survivor's side: replica 3's fast quorum is {3, 1} (1 is
/// its closest site). Killing replica 1 must not stop 3's non-conflicting
/// puts: 1 falls out of 3's order a few ticks into its silence, the put in
/// flight is re-driven by 3 itself and the next ones go to {3, 2} — well
/// before the default 1.5 s suspicion.
#[test]
fn quorum_member_loss_geo3() {
    let _guard = serial();
    const KILL_AT: Duration = Duration::from_millis(1_000);
    const RUN: Duration = Duration::from_millis(3_000);
    let links = swap(&GEO3_LINKS, 2, 3);
    let options = ClusterOptions::default().with_net(geo(0xD13, &links, 2 * MS));
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
            .await
            .expect("cluster boots");
        let addr = cluster.addr(3);
        let t0 = Instant::now();
        let puts = tokio::spawn(async move {
            let mut client = Client::connect(addr, 3).await.expect("client");
            let mut latencies = Vec::new();
            let mut i = 0u64;
            while t0.elapsed() < RUN {
                let t = Instant::now();
                client.put(30_000 + (i % 32), i).await.expect("put");
                latencies.push((t - t0, t.elapsed()));
                i += 1;
            }
            latencies
        });
        sleep_until(t0, KILL_AT).await;
        cluster.kill(1);
        let latencies = puts.await.expect("client task");
        let s3 = snapshot(&cluster, 3).await.expect("stats 3");
        let after: Vec<Duration> = latencies
            .iter()
            .filter(|(at, _)| *at >= KILL_AT)
            .map(|(_, latency)| *latency)
            .collect();
        let all: Vec<Duration> = latencies.iter().map(|(_, latency)| *latency).collect();
        let mut report = FigureReport::new("fig_quorum_member_loss");
        report.check("puts_after_kill", after.len() as f64, Some(20.0), None);
        report.check("max_put_ms", max_ms(&all), None, Some(400.0));
        report.check("reorders_r3", s3.detector.reorders as f64, Some(1.0), None);
        report.note("p50_after_kill_ms", percentile_ms(&after, 0.50));
        report.note("redrives_r3", s3.protocol_stats.recoveries as f64);
        report.emit();
        cluster.shutdown();
    });
}

/// §5.6, the stranded side: replica 2 coordinates `stranded` conflicting
/// commands that replica 1 has collected and dies before any of them
/// commits. Replica 3's conflicting writes, which depend on them, must
/// resume within 600 ms of the kill — when 2 leaves the survivors' orders
/// and they take its commands over in one pass — not at the default 1.5 s
/// suspicion. The survivor→victim links carry 50 ms instead of their geo
/// delay, and the victim is killed as soon as replica 1 holds the whole
/// burst, so no ack can have reached it: the burst provably dies collected
/// but uncommitted.
#[test]
fn stranded_takeover_geo3() {
    let _guard = serial();
    const ACK_DELAY: Duration = Duration::from_millis(50);
    const RESUME_MS: f64 = 600.0;
    let mut report = FigureReport::new("fig_stranded_takeover_geo3");
    for (stranded, name) in [
        (5, "resume_ms_5"),
        (25, "resume_ms_25"),
        (100, "resume_ms_100"),
    ] {
        let net = geo(0x57A + stranded, &GEO3_LINKS, 2 * MS)
            .rule(LinkRule::link(1, 2).delay(ACK_DELAY))
            .rule(LinkRule::link(3, 2).delay(ACK_DELAY));
        let options = ClusterOptions::default().with_net(net);
        let rt = tokio::runtime::Runtime::new().unwrap();
        let resume = rt.block_on(async {
            let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
                .await
                .expect("cluster boots");
            // Warm-up: every link carries traffic before the burst.
            conflicting_writes(cluster.addr(3), 3, 0, 10)
                .await
                .expect("warm-up");
            let mut probe = Client::connect(cluster.addr(1), 901).await.expect("probe");
            let before = probe.stats().await.expect("stats").tracked_entries;
            let mut burst = OpenLoopClient::connect(cluster.addr(2), 2)
                .await
                .expect("burst client");
            let cmds: Vec<atlas_core::Command> = (0..stranded)
                .map(|i| {
                    let rifl = burst.next_rifl();
                    atlas_core::Command::put(rifl, i % 4, 2_000_000 + i, 64)
                })
                .collect();
            let fired = Instant::now();
            burst.submit_batch(cmds).await.expect("burst fired");
            while probe.stats().await.expect("stats").tracked_entries < before + stranded {
                assert!(
                    fired.elapsed() < Duration::from_secs(5),
                    "burst never collected"
                );
            }
            cluster.kill(2);
            let killed = Instant::now();
            assert!(
                killed - fired < ACK_DELAY,
                "the kill landed after the first acks could arrive"
            );
            conflicting_writes(cluster.addr(3), 3, 10, 1)
                .await
                .expect("resumed write");
            let resume = killed.elapsed();
            let more = conflicting_writes(cluster.addr(3), 3, 11, 10).await;
            more.expect("writes after the takeover");
            cluster.shutdown();
            resume
        });
        report.check(name, resume.as_secs_f64() * 1e3, None, Some(RESUME_MS));
    }
    report.emit();
}

/// §5.6 availability: a replica coordinating an in-flight conflicting
/// burst is cut off from its peers (a region loss — the replica is *alive*
/// and keeps its clients, unlike a crash). The survivors must suspect it,
/// recover its stranded commands, and keep serving conflicting writes
/// within a bounded stall window.
#[test]
fn availability_under_region_loss() {
    let _guard = serial();
    const CUT_AT: Duration = Duration::from_millis(2_500);
    const PHASE_OPS: u64 = 40;
    let net = NetProfile::new(0xAE61)
        .rule(LinkRule::link(3, 0).cut(Cut::from(CUT_AT)))
        .rule(LinkRule::link(0, 3).cut(Cut::from(CUT_AT)));
    let options = wan_options(Some(net)).with_suspicion(Duration::from_millis(400));
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let t0 = Instant::now();
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
            .await
            .expect("cluster boots");

        // Phase A: conflicting writes complete while the cluster is whole.
        conflicting_writes(cluster.addr(1), 1, 0, PHASE_OPS)
            .await
            .expect("phase A");

        // Just before the region drops: an open-loop conflicting burst at
        // replica 3, so the cut strands partially propagated commands that
        // only a recovery takeover can resolve.
        sleep_until(t0, CUT_AT - 200 * MS).await;
        let mut burst = OpenLoopClient::connect(cluster.addr(3), 3)
            .await
            .expect("burst client");
        let cmds: Vec<atlas_core::Command> = (0..60u64)
            .map(|i| {
                let rifl = burst.next_rifl();
                atlas_core::Command::put(rifl, i % 4, 3_000_000 + i, 64)
            })
            .collect();
        burst.submit_batch(cmds).await.expect("burst fired");

        // Phase B: once the cut is surely open, conflicting writes through
        // a survivor must complete — stalled only until suspicion +
        // takeover resolve the stranded burst.
        sleep_until(t0, CUT_AT + 700 * MS).await;
        let phase_b = tokio::time::timeout(
            Duration::from_secs(60),
            conflicting_writes(cluster.addr(1), 1, PHASE_OPS, PHASE_OPS),
        )
        .await
        .expect("workload stalled past the takeover window")
        .expect("phase B");

        // The survivors observed the loss on the metrics plane...
        let s1 = snapshot_when(
            &cluster,
            1,
            Duration::from_secs(20),
            "suspicion at 1",
            |s| s.detector.suspicions >= 1,
        )
        .await;
        let s2 = snapshot_when(
            &cluster,
            2,
            Duration::from_secs(20),
            "suspicion at 2",
            |s| s.detector.suspicions >= 1,
        )
        .await;

        // ...and their digests agree on everything either of them executed.
        let must = rifls_of(1, 0, 2 * PHASE_OPS);
        converge_on(&cluster, &[1, 2], &must, Duration::from_secs(30)).await;

        let mut report = FigureReport::new("fig_availability_region_loss");
        report.check(
            "suspicions_r1",
            s1.detector.suspicions as f64,
            Some(1.0),
            None,
        );
        report.check(
            "suspicions_r2",
            s2.detector.suspicions as f64,
            Some(1.0),
            None,
        );
        // The stall window: the worst phase-B put paid suspicion +
        // takeover, and must stay well under the drill's patience.
        report.check("max_stall_ms", max_ms(&phase_b), None, Some(20_000.0));
        report.note("phase_b_p50_ms", percentile_ms(&phase_b, 0.50));
        report.note("takeovers_r1", s1.detector.takeovers as f64);
        report.emit();
        cluster.shutdown();
    });
}

/// §5.6 link blips: a symmetric 800 ms cut of one link — well below the
/// 2 s suspicion threshold — must cause **zero** suspicions; commands
/// whose fast quorum spans the cut link stall at most the cut plus the
/// reconnect backoff (no takeover, no client error), and the severed link
/// must reconnect and drain its backlog after healing.
#[test]
fn link_failure_and_recovery_below_suspicion() {
    let _guard = serial();
    const CUT: Cut = Cut {
        start: Duration::from_millis(1_500),
        length: Duration::from_millis(800),
        period: Duration::ZERO,
    };
    let net = NetProfile::new(0x11F4)
        .rule(LinkRule::link(1, 2).cut(CUT))
        .rule(LinkRule::link(2, 1).cut(CUT));
    let options = wan_options(Some(net)).with_suspicion(Duration::from_secs(2));
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
            .await
            .expect("cluster boots");

        // A paced workload spanning before, during and after the cut.
        let mut client = Client::connect(cluster.addr(1), 1).await.expect("client");
        let mut latencies = Vec::new();
        for i in 0..300u64 {
            let t = Instant::now();
            client.put(10_000 + (i % 32), i).await.expect("put");
            latencies.push(t.elapsed());
            tokio::time::sleep(10 * MS).await;
        }

        // Full 3-way convergence: the healed link delivered the backlog.
        converge_on(
            &cluster,
            &[1, 2, 3],
            &rifls_of(1, 0, 300),
            Duration::from_secs(30),
        )
        .await;
        // The link to 2 drained its resend buffer after the heal.
        let s1 = snapshot_when(
            &cluster,
            1,
            Duration::from_secs(20),
            "link 1→2 drained",
            |s| {
                s.links
                    .iter()
                    .any(|l| l.peer == 2 && l.connected && l.buffered == 0)
            },
        )
        .await;
        let s2 = snapshot(&cluster, 2).await.expect("stats 2");
        let s3 = snapshot(&cluster, 3).await.expect("stats 3");

        let mut report = FigureReport::new("fig_link_failure_recovery");
        for (name, s) in [
            ("suspicions_r1", &s1),
            ("suspicions_r2", &s2),
            ("suspicions_r3", &s3),
        ] {
            report.check(name, s.detector.suspicions as f64, None, Some(0.0));
        }
        // The worst put waited out the cut plus the link's reconnect
        // backoff (≤ 1 s) — never a suspicion/takeover cycle.
        report.check("max_put_ms", max_ms(&latencies), None, Some(2_500.0));
        report.note("p50_put_ms", percentile_ms(&latencies, 0.50));
        report.emit();
        cluster.shutdown();
    });
}

/// Simulator-inexpressible: a **directed** cut `1 → 2`. Replica 2 stops
/// hearing 1 and must suspect it; replica 1 still hears 2 and must not
/// suspect anyone; after the window heals, 2 re-trusts 1 through the
/// hysteresis. The wire-level injector is what makes one-way loss
/// expressible at all — `ChaosNet` drops messages, not directions.
#[test]
fn asymmetric_partition_one_way_suspicion() {
    let _guard = serial();
    const CUT_AT: Duration = Duration::from_millis(1_500);
    const CUT_LEN: Duration = Duration::from_millis(2_000);
    let net = NetProfile::new(0xA57).rule(LinkRule::link(1, 2).cut(Cut::window(CUT_AT, CUT_LEN)));
    let options = wan_options(Some(net)).with_suspicion(Duration::from_millis(400));
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let t0 = Instant::now();
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
            .await
            .expect("cluster boots");

        // Complete (committed-everywhere) writes before the cut opens, so
        // the one-way suspicion has nothing in flight to noop away.
        conflicting_writes(cluster.addr(1), 1, 0, 20)
            .await
            .expect("phase A");

        // Mid-window: 2 suspects 1; 1 suspects nobody.
        sleep_until(t0, CUT_AT + 700 * MS).await;
        let s2 = snapshot_when(&cluster, 2, Duration::from_secs(20), "2 suspects 1", |s| {
            s.detector.suspicions >= 1
        })
        .await;
        let s1 = snapshot(&cluster, 1).await.expect("stats 1");
        assert_eq!(
            s1.detector.suspicions, 0,
            "replica 1 suspected someone across a one-way cut it can still hear through"
        );

        // After the heal: hysteresis restores trust at 2.
        sleep_until(t0, CUT_AT + CUT_LEN + 300 * MS).await;
        let s2_healed = snapshot_when(&cluster, 2, Duration::from_secs(20), "2 re-trusts 1", |s| {
            s.detector.trusts >= 1
        })
        .await;

        // Post-heal workload through the untouched replica 3, then full
        // convergence.
        conflicting_writes(cluster.addr(3), 5, 0, 20)
            .await
            .expect("phase C");
        let mut must = rifls_of(1, 0, 20);
        must.extend(rifls_of(5, 0, 20));
        converge_on(&cluster, &[1, 2, 3], &must, Duration::from_secs(30)).await;

        let mut report = FigureReport::new("fig_asymmetric_partition");
        report.check(
            "suspicions_r2",
            s2.detector.suspicions as f64,
            Some(1.0),
            None,
        );
        report.check(
            "suspicions_r1",
            s1.detector.suspicions as f64,
            None,
            Some(0.0),
        );
        report.check(
            "trusts_r2",
            s2_healed.detector.trusts as f64,
            Some(1.0),
            None,
        );
        report.emit();
        cluster.shutdown();
    });
}

/// Simulator-inexpressible: a replica whose *disk* is slow, not its
/// network. Injected 5 ms fsync stalls under `FlushPolicy::Always` must
/// show up in the victim's fsync histogram without ever tripping the
/// failure detector — storage latency is not silence.
#[test]
fn slow_disk_replica_stays_trusted() {
    let _guard = serial();
    const STALL: Duration = Duration::from_millis(5);
    let mut options = wan_options(None).with_suspicion(Duration::from_secs(1));
    options.flush_policy = FlushPolicy::Always;
    options.fsync_stall = HashMap::from([(2 as ProcessId, STALL)]);
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
            .await
            .expect("cluster boots");

        // Writes through the healthy replica (replica 2 journals every
        // peer message through its stalled fsync) and through the slow
        // replica itself.
        timed_writes(cluster.addr(1), 1, 60).await.expect("via 1");
        timed_writes(cluster.addr(2), 2, 20).await.expect("via 2");

        let mut must = rifls_of(1, 0, 60);
        must.extend(rifls_of(2, 0, 20));
        converge_on(&cluster, &[1, 2, 3], &must, Duration::from_secs(60)).await;

        let s2 = snapshot(&cluster, 2).await.expect("stats 2");
        let mut report = FigureReport::new("fig_slow_disk");
        // The stall is visible where it should be: in the disk telemetry.
        assert!(s2.durability.fsyncs > 0, "slow replica never fsynced");
        report.check(
            "fsync_p50_us_r2",
            s2.durability.fsync_us.percentile(0.50) as f64,
            Some(STALL.as_micros() as f64),
            None,
        );
        // ...and invisible where it should not be: no replica suspected
        // anyone over a slow disk.
        for id in [1 as ProcessId, 2, 3] {
            let s = snapshot(&cluster, id).await.expect("stats");
            report.check(
                match id {
                    1 => "suspicions_r1",
                    2 => "suspicions_r2",
                    _ => "suspicions_r3",
                },
                s.detector.suspicions as f64,
                None,
                Some(0.0),
            );
        }
        report.note("fsyncs_r2", s2.durability.fsyncs as f64);
        report.emit();
        cluster.shutdown();
    });
}

/// Simulator-inexpressible: a link flapping faster than the trust
/// hysteresis. Observers must suspect the flapping replica and then
/// **park** — probation never completes during the flap (every silent
/// half-period re-suspects before `trust_after` elapses), so the
/// Trusted↔Suspected oscillation (each trust a green light, each
/// suspicion a recovery broadcast) never happens. Trust returns only
/// after the link holds steady.
#[test]
fn flapping_link_parks_in_probation() {
    let _guard = serial();
    const FLAP_AT: Duration = Duration::from_millis(1_500);
    const DOWN: Duration = Duration::from_millis(500);
    const PERIOD: Duration = Duration::from_millis(650);
    const CYCLES: u32 = 6;
    // suspect < trust: the hysteresis window (800 ms) cannot complete
    // within one open half-period (150 ms) plus the next suspicion
    // (400 ms), so probation always re-suspects first.
    let mut options = wan_options(None);
    options.suspect_after = Some(Duration::from_millis(400));
    options.trust_after = Duration::from_millis(800);
    // Finite flap: CYCLES one-shot windows, then the link holds steady.
    let mut out_1 = LinkRule::link(3, 1);
    let mut out_2 = LinkRule::link(3, 2);
    for k in 0..CYCLES {
        let cut = Cut::window(FLAP_AT + k * PERIOD, DOWN);
        out_1 = out_1.cut(cut);
        out_2 = out_2.cut(cut);
    }
    options.net = Some(NetProfile::new(0xF1A9).rule(out_1).rule(out_2));
    let flap_end = FLAP_AT + (CYCLES - 1) * PERIOD + DOWN;

    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let t0 = Instant::now();
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
            .await
            .expect("cluster boots");
        conflicting_writes(cluster.addr(1), 1, 0, 20)
            .await
            .expect("pre-flap workload");

        // Mid-flap (several down/up cycles in): suspected, never trusted.
        sleep_until(t0, FLAP_AT + 3 * PERIOD).await;
        let mid_1 = snapshot_when(&cluster, 1, Duration::from_secs(20), "1 suspects 3", |s| {
            s.detector.suspicions >= 1
        })
        .await;
        let mid_2 = snapshot_when(&cluster, 2, Duration::from_secs(20), "2 suspects 3", |s| {
            s.detector.suspicions >= 1
        })
        .await;
        assert_eq!(
            (mid_1.detector.trusts, mid_2.detector.trusts),
            (0, 0),
            "an observer oscillated back to Trusted mid-flap instead of parking in Probation"
        );

        // After the last window the link holds; hysteresis completes.
        sleep_until(t0, flap_end + 300 * MS).await;
        let end_1 = snapshot_when(&cluster, 1, Duration::from_secs(20), "1 re-trusts 3", |s| {
            s.detector.trusts >= 1
        })
        .await;

        // Post-flap workload and full convergence.
        conflicting_writes(cluster.addr(1), 1, 20, 20)
            .await
            .expect("post-flap workload");
        converge_on(
            &cluster,
            &[1, 2, 3],
            &rifls_of(1, 0, 40),
            Duration::from_secs(30),
        )
        .await;

        let mut report = FigureReport::new("fig_flapping_link");
        report.check(
            "suspicions_r1",
            mid_1.detector.suspicions as f64,
            Some(1.0),
            None,
        );
        report.check(
            "suspicions_r2",
            mid_2.detector.suspicions as f64,
            Some(1.0),
            None,
        );
        report.check(
            "trusts_mid_flap",
            (mid_1.detector.trusts + mid_2.detector.trusts) as f64,
            None,
            Some(0.0),
        );
        report.check(
            "trusts_r1_after",
            end_1.detector.trusts as f64,
            Some(1.0),
            None,
        );
        report.emit();
        cluster.shutdown();
    });
}
