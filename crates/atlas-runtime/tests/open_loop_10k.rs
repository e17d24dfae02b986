//! The reactor's headline drill: **10,000 concurrent open-loop clients**
//! against a real 3-replica cluster, on a bounded number of OS threads.
//!
//! Under the old thread-per-task runtime this workload would have meant
//! tens of thousands of threads (two tasks per connection on the client
//! side alone); the epoll reactor runs it on single-digit worker threads
//! (which poll epoll themselves — there is no reactor thread). The drill
//! asserts exactly that — the process thread count stays bounded while every client's
//! commands execute — and emits `BENCH_open_loop_10k.json` for
//! `ci/bench_guard.py --fig`.
//!
//! Ignored by default (it opens ~2 fds per client and pushes tens of
//! thousands of commands through consensus); the `reactor-drill` CI job
//! runs it explicitly with `--ignored`. Knobs:
//!
//! * `ATLAS_OPEN_LOOP_CLIENTS` — target client count (default 10,000),
//!   clamped to the process fd budget **with a logged warning** so a
//!   low-`ulimit` machine degrades loudly, never silently;
//! * `ATLAS_OPEN_LOOP_OPS` — commands per client (default 4; the CI quick
//!   mode uses 2).

// The shared scenario helpers exist for the WAN drills; this drill only
// needs `FigureReport`.
#[allow(dead_code)]
mod scenarios;

use atlas_core::{Command, Config, Rifl};
use atlas_protocol::Atlas;
use atlas_runtime::{Cluster, ClusterOptions, OpenLoopClient};
use scenarios::FigureReport;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ceiling on the process's OS thread count while 10k clients are in
/// flight: test harness + worker pool + three snapshot writers + the
/// sampler thread is ~9; the bound leaves slack for the harness without
/// ever tolerating per-connection threads.
const MAX_THREADS: u64 = 18;

/// Fds held back from the budget for the cluster itself (listeners, peer
/// links, journals, epoll/eventfd plumbing) and general slack.
const FD_RESERVE: u64 = 512;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The process's soft open-file limit, from `/proc/self/limits`.
fn fd_soft_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Current OS thread count of this process, from `/proc/self/status`.
fn thread_count() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

#[test]
#[ignore = "10k-connection drill: run explicitly (reactor-drill CI job runs it with --ignored)"]
fn ten_thousand_open_loop_clients_on_bounded_threads() {
    let requested = env_u64("ATLAS_OPEN_LOOP_CLIENTS", 10_000);
    let ops = env_u64("ATLAS_OPEN_LOOP_OPS", 4);

    // Every in-process client costs two fds (its socket and the replica's
    // accepted side). Clamp to the budget — loudly, never silently.
    let clients = match fd_soft_limit() {
        Some(soft) => {
            let budget = soft.saturating_sub(FD_RESERVE) / 2;
            if budget < requested {
                eprintln!(
                    "open_loop_10k: fd soft limit {soft} supports only {budget} in-process \
                     clients; clamping from the requested {requested} (raise ulimit -n to \
                     run the full drill)"
                );
            }
            requested.min(budget)
        }
        None => requested,
    };
    assert!(clients > 0, "no fd budget for any client");

    // Peak-thread sampler: a plain OS thread (counted in the bound) so the
    // measurement never depends on the runtime it is auditing.
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(0));
    let sampler = {
        let stop = Arc::clone(&stop);
        let peak = Arc::clone(&peak);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(thread_count(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };

    let rt = tokio::runtime::Runtime::new().unwrap();
    let (executed, elapsed) = rt.block_on(async move {
        // Suspicion off: with tens of thousands of commands in flight the
        // point is throughput on bounded threads, not failure detection —
        // a load-delayed heartbeat must not trigger recovery mid-drill.
        let cluster = Cluster::spawn_with::<Atlas>(
            Config::new(3, 1),
            ClusterOptions {
                suspect_after: None,
                ..ClusterOptions::default()
            },
        )
        .await
        .expect("cluster boots");

        // Connect in waves: the accept backlog is finite, and 10k
        // simultaneous SYNs against one loopback listener would park most
        // dials in kernel retransmit backoff.
        let t0 = Instant::now();
        let mut connected = Vec::with_capacity(clients as usize);
        for wave in (0..clients).collect::<Vec<_>>().chunks(512) {
            let handles: Vec<_> = wave
                .iter()
                .map(|&i| {
                    let addr = cluster.addr((i % 3 + 1) as u32);
                    tokio::spawn(async move { OpenLoopClient::connect(addr, 1_000_000 + i).await })
                })
                .collect();
            for handle in handles {
                connected.push(
                    handle
                        .await
                        .expect("connect task")
                        .expect("open-loop client connects"),
                );
            }
        }
        eprintln!(
            "open_loop_10k: {clients} clients connected in {:?} (threads now: {})",
            t0.elapsed(),
            thread_count()
        );

        // Open-loop fire: every client submits its whole batch without
        // waiting, then collects its replies.
        let t0 = Instant::now();
        let workers: Vec<_> = connected
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                tokio::spawn(async move {
                    let key = 1_000_000 + i as u64;
                    let cmds: Vec<Command> = (1..=ops)
                        .map(|seq| Command::put(Rifl::new(1_000_000 + i as u64, seq), key, seq, 64))
                        .collect();
                    client.submit_batch(cmds).await.expect("submit");
                    client.finish().await.expect("collect replies")
                })
            })
            .collect();
        let mut executed: u64 = 0;
        for worker in workers {
            executed += worker.await.expect("client task").len() as u64;
        }
        let elapsed = t0.elapsed();
        cluster.shutdown();
        (executed, elapsed)
    });

    stop.store(true, Ordering::Relaxed);
    sampler.join().unwrap();
    let peak = peak.load(Ordering::Relaxed);
    eprintln!(
        "open_loop_10k: {executed} commands executed across {clients} clients in {elapsed:?}; \
         peak threads {peak}"
    );

    let mut report = FigureReport::new("open_loop_10k");
    report.note("clients_requested", requested as f64);
    report.check("clients", clients as f64, Some(1.0), None);
    report.check(
        "commands_executed",
        executed as f64,
        Some((clients * ops) as f64),
        None,
    );
    report.check(
        "peak_threads",
        peak as f64,
        Some(1.0),
        Some(MAX_THREADS as f64),
    );
    report.note("elapsed_s", elapsed.as_secs_f64());
    report.emit();
}
