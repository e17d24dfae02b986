//! Closed-loop workload driver: `atlas-client --addr 127.0.0.1:4001
//! [--clients 4] [--ops 500] [--keys 100] [--conflict 10] [--payload 64]`
//!
//! Spawns `--clients` concurrent closed-loop clients against one replica;
//! each client issues `--ops` single-key PUTs, picking the shared key 0 with
//! probability `--conflict`% and a client-private key otherwise (the paper's
//! §5.2 microbenchmark shape). Prints throughput, client-observed latency
//! percentiles (via the shared bounded histogram, not ad-hoc sorting), and
//! the replica's own view of the run from its metrics snapshot.
//!
//! The driver doubles as the membership-change admin tool. `--enter
//! <id=addr,...>` submits an `Enter` barrier naming the **target** member
//! set (with `--f <f>` overriding the failure budget, default 1): the
//! cluster moves to a joint configuration, and once every incoming member
//! has bootstrapped, the designated member finalizes the window
//! automatically. `--finalize` submits the cut-over barrier manually for
//! the rare case where automatic finalization is not wanted. Both are
//! one-shot: the command is sequenced through the replica at `--addr` like
//! any client command, and the tool exits once it executes.

use atlas_core::{Command, ProcessId, ReconfigOp, Rifl};
use atlas_metrics::{BoundedHistogram, HistogramSummary};
use atlas_runtime::Client;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::process::exit;
use std::time::Instant;

struct Args {
    addr: SocketAddr,
    clients: u64,
    ops: u64,
    keys: u64,
    conflict_pct: u64,
    payload: usize,
    f: usize,
    enter: Option<Vec<(ProcessId, String)>>,
    finalize: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: atlas-client --addr <host:port> [--clients <n>] [--ops <n>] \
         [--keys <n>] [--conflict <pct>] [--payload <bytes>]\n\
         \x20      atlas-client --addr <host:port> --enter <id=addr,...> [--f <f>]\n\
         \x20      atlas-client --addr <host:port> --finalize"
    );
    exit(2);
}

/// Reports a failed step as one line and exits 1: a replica that dies or
/// hangs up mid-run is an outcome to report, not a bug in this tool.
fn fail(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("atlas-client: {what}: {err}");
    exit(1);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:4001".parse().unwrap(),
        clients: 4,
        ops: 500,
        keys: 100,
        conflict_pct: 10,
        payload: 64,
        f: 1,
        enter: None,
        finalize: false,
    };
    let mut iter = std::env::args().skip(1);
    let mut saw_addr = false;
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => {
                args.addr = value().parse().unwrap_or_else(|_| usage());
                saw_addr = true;
            }
            "--clients" => args.clients = value().parse().unwrap_or_else(|_| usage()),
            "--ops" => args.ops = value().parse().unwrap_or_else(|_| usage()),
            "--keys" => args.keys = value().parse().unwrap_or_else(|_| usage()),
            "--conflict" => args.conflict_pct = value().parse().unwrap_or_else(|_| usage()),
            "--payload" => args.payload = value().parse().unwrap_or_else(|_| usage()),
            "--f" => args.f = value().parse().unwrap_or_else(|_| usage()),
            "--enter" => {
                args.enter = Some(
                    value()
                        .split(',')
                        .map(|entry| {
                            let (id, addr) = entry.split_once('=').unwrap_or_else(|| usage());
                            (id.parse().unwrap_or_else(|_| usage()), addr.to_string())
                        })
                        .collect(),
                )
            }
            "--finalize" => args.finalize = true,
            _ => usage(),
        }
    }
    if !saw_addr || (args.enter.is_some() && args.finalize) {
        usage();
    }
    args
}

async fn drive(
    addr: SocketAddr,
    client_id: u64,
    ops: u64,
    keys: u64,
    conflict_pct: u64,
    payload: usize,
) -> std::io::Result<Vec<u64>> {
    let mut client = Client::connect(addr, client_id).await?;
    let mut rng = SmallRng::seed_from_u64(client_id);
    let mut latencies_us = Vec::with_capacity(ops as usize);
    for seq in 1..=ops {
        let key = if rng.gen_range(0u64..100) < conflict_pct {
            0
        } else {
            1 + client_id * keys + rng.gen_range(0..keys)
        };
        let cmd = Command::put(Rifl::new(client_id, seq), key, seq, payload);
        let start = Instant::now();
        client.submit(cmd).await?;
        latencies_us.push(start.elapsed().as_micros() as u64);
    }
    Ok(latencies_us)
}

fn print_latency(label: &str, s: &HistogramSummary) {
    println!(
        "{label}  p50 {:>7.2} ms   p95 {:>7.2} ms   p99 {:>7.2} ms   max {:>7.2} ms",
        s.p50_us as f64 / 1_000.0,
        s.p95_us as f64 / 1_000.0,
        s.p99_us as f64 / 1_000.0,
        s.max_us as f64 / 1_000.0,
    );
}

/// Submits one membership-change barrier and reports the acknowledged
/// epoch from the replica's stats plane.
async fn admin(addr: SocketAddr, op: ReconfigOp) -> std::io::Result<()> {
    let namespace = (std::process::id() as u64) << 20;
    let describe = match &op {
        ReconfigOp::Enter { members, f } => {
            let ids: Vec<ProcessId> = members.iter().map(|&(id, _)| id).collect();
            format!("enter barrier: target members {ids:?}, f={f}")
        }
        ReconfigOp::Finalize => "finalize barrier".to_string(),
    };
    let mut client = Client::connect(addr, namespace | 1).await?;
    client.reconfigure(op).await?;
    let snapshot = client.stats().await?;
    println!(
        "{describe} executed; replica {} now at epoch {}",
        snapshot.replica, snapshot.epoch
    );
    Ok(())
}

fn main() {
    let args = parse_args();
    let rt = tokio::runtime::Runtime::new().unwrap_or_else(|e| fail("runtime", e));
    if let Some(members) = args.enter.clone() {
        let f = args.f;
        rt.block_on(admin(args.addr, ReconfigOp::Enter { members, f }))
            .unwrap_or_else(|e| fail("enter barrier", e));
        return;
    }
    if args.finalize {
        rt.block_on(admin(args.addr, ReconfigOp::Finalize))
            .unwrap_or_else(|e| fail("finalize barrier", e));
        return;
    }
    rt.block_on(async {
        let started = Instant::now();
        let mut tasks = Vec::new();
        // Client identifiers are namespaced by process id: a `Rifl` must be
        // globally unique (the runtime routes replies by it, and protocol
        // retry deduplication relies on it), and two concurrent
        // `atlas-client` invocations both numbering their clients `1..=n`
        // would otherwise submit *different* commands under identical
        // rifls.
        let namespace = (std::process::id() as u64) << 20;
        for client_idx in 1..=args.clients {
            tasks.push(tokio::spawn(drive(
                args.addr,
                namespace | client_idx,
                args.ops,
                args.keys,
                args.conflict_pct,
                args.payload,
            )));
        }
        let mut hist = BoundedHistogram::new();
        for task in tasks {
            let run = task.await.unwrap_or_else(|e| fail("client task", e));
            for latency_us in run.unwrap_or_else(|e| fail("client run", e)) {
                hist.record(latency_us);
            }
        }
        let elapsed = started.elapsed();
        println!(
            "{} commands in {:.2?}  ->  {:.0} ops/s",
            hist.count(),
            elapsed,
            hist.count() as f64 / elapsed.as_secs_f64()
        );
        print_latency("client latency ", &HistogramSummary::of(&hist));

        // The replica's own view of the run: lifecycle stage latency and
        // the protocol path split, straight from the stats plane.
        let mut probe = Client::connect(args.addr, namespace | (args.clients + 1))
            .await
            .unwrap_or_else(|e| fail("stats probe connects", e));
        let snapshot = probe.stats().await.unwrap_or_else(|e| fail("stats", e));
        print_latency(
            "replica reply  ",
            &HistogramSummary::of(&snapshot.lifecycle.submit_to_replied),
        );
        match snapshot.protocol_stats.fast_path_ratio() {
            Some(ratio) => println!(
                "replica {} ({}): fast-path {:.1}% ({} fast / {} slow), {} tracked entries",
                snapshot.replica,
                snapshot.protocol,
                ratio * 100.0,
                snapshot.protocol_stats.fast_paths,
                snapshot.protocol_stats.slow_paths,
                snapshot.tracked_entries,
            ),
            None => println!(
                "replica {} ({}): no commits observed, {} tracked entries",
                snapshot.replica, snapshot.protocol, snapshot.tracked_entries,
            ),
        }
    });
}
