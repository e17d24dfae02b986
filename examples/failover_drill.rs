//! Failover drill over **real TCP** — the runtime counterpart of the
//! simulator's `fig8_availability` (§5.6): boot an Atlas cluster (3
//! replicas by default; `ATLAS_EXAMPLE_N`/`ATLAS_EXAMPLE_F` resize it),
//! drive conflicting traffic from a client pinned to the first member,
//! then SIGKILL-equivalent the last member *with a burst of its own
//! commands still in flight* and never restart it.
//!
//! Watch the timeline it prints: the workload stalls the moment the
//! survivors commit commands that depend on the dead coordinator's
//! in-flight identifiers, and resumes as soon as the failure detector
//! fires (`suspect_after` of silence) and Algorithm 2 recovery replaces
//! the unseen commands with `noOp`s. Before the runtime had a failure
//! detector, this program would hang forever at the kill.
//!
//! ```text
//! cargo run --release --example failover_drill
//! ```

use atlas::core::{Command, Config};
use atlas::metrics::HistogramSummary;
use atlas::protocol::Atlas;
use atlas::runtime::{Client, Cluster, ClusterOptions, OpenLoopClient};
use std::time::{Duration, Instant};

const SUSPECT_AFTER: Duration = Duration::from_millis(500);
const OPS_BEFORE: u64 = 200;
const OPS_AFTER: u64 = 800;
const SHARED_KEYS: u64 = 4;

/// Cluster size from `ATLAS_EXAMPLE_N`/`ATLAS_EXAMPLE_F` (default 3/1):
/// everything downstream derives member identifiers from the cluster, so
/// resizing is one environment variable, not an edit in several places.
fn drill_config() -> Config {
    let read = |var: &str, default: usize| {
        std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    Config::new(read("ATLAS_EXAMPLE_N", 3), read("ATLAS_EXAMPLE_F", 1))
}

fn main() {
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    rt.block_on(async {
        let config = drill_config();
        let options = ClusterOptions {
            tick_interval: Duration::from_millis(10),
            ..ClusterOptions::default()
        }
        .with_suspicion(SUSPECT_AFTER);
        let mut cluster = Cluster::spawn_with::<Atlas>(config, options)
            .await
            .expect("cluster boots");
        // The cast: the drill's roles come from the membership, not from
        // literal identifiers — the first member serves the workload, the
        // last is the victim.
        let survivor = cluster.members()[0];
        let victim = *cluster.members().last().expect("non-empty membership");
        println!(
            "{}-replica Atlas on 127.0.0.1, f = {}, suspicion after {SUSPECT_AFTER:?} of silence",
            config.n, config.f
        );

        let t0 = Instant::now();
        let mut c1 = Client::connect(cluster.addr(survivor), 1)
            .await
            .expect("client 1");
        for i in 0..OPS_BEFORE {
            c1.put(i % SHARED_KEYS, i).await.expect("warm-up write");
        }
        println!(
            "t={:>7.3}s  {OPS_BEFORE} conflicting writes committed with all replicas up",
            t0.elapsed().as_secs_f64()
        );

        // Fire a burst at the victim without waiting and kill it mid-burst:
        // some commands commit, some are stranded in their collect phase —
        // exactly the identifiers that poison later conflicting commands.
        let mut burst = OpenLoopClient::connect(cluster.addr(victim), u64::from(victim))
            .await
            .expect("burst client");
        let cmds: Vec<Command> = (0..2_000)
            .map(|i| {
                let rifl = burst.next_rifl();
                Command::put(rifl, i % SHARED_KEYS, 900_000 + i, 64)
            })
            .collect();
        // One request per command: a request is one instance, and the
        // burst must leave many instances at different stages.
        for cmd in cmds {
            burst.submit_batch(vec![cmd]).await.expect("burst fired");
        }
        tokio::time::sleep(Duration::from_micros(500)).await;
        cluster.kill(victim);
        let killed_at = t0.elapsed();
        println!(
            "t={killed:>7.3}s  replica {victim} killed with its burst in flight (never restarted)",
            killed = killed_at.as_secs_f64()
        );

        // Keep driving; the first writes stall behind the dead replica's
        // in-flight identifiers until suspicion + recovery resolve them.
        for i in OPS_BEFORE..OPS_BEFORE + OPS_AFTER {
            c1.put(i % SHARED_KEYS, i).await.expect("write");
        }
        println!(
            "t={:>7.3}s  {OPS_AFTER} more writes committed by the survivors",
            t0.elapsed().as_secs_f64()
        );

        // The survivor's own account of the drill, from the stats plane:
        // the reply-latency tail *is* the detection + recovery window, and
        // the detector counters show the takeover actually happened.
        let mut probe = Client::connect(cluster.addr(survivor), 901)
            .await
            .expect("stats probe connects");
        let snapshot = probe.stats().await.expect("stats");
        let reply = HistogramSummary::of(&snapshot.lifecycle.submit_to_replied);
        println!(
            "           survivor reply latency: p50 {:.2} ms, p99 {:.2} ms, \
             max {:.2} ms — the max is the stall behind the dead coordinator",
            reply.p50_us as f64 / 1_000.0,
            reply.p99_us as f64 / 1_000.0,
            reply.max_us as f64 / 1_000.0,
        );
        println!(
            "           detector: {} suspicion(s), {} recovery takeover(s); \
             link to replica {victim} connected: {}",
            snapshot.detector.suspicions,
            snapshot.detector.takeovers,
            snapshot
                .links
                .iter()
                .find(|l| l.peer == victim)
                .map(|l| l.connected)
                .unwrap_or(false),
        );
        println!("           (without the failure detector this drill deadlocks at the kill)");
        cluster.shutdown();
    });
}
