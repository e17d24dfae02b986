//! Live cluster summary: `atlas-top --addrs
//! 127.0.0.1:4001,127.0.0.1:4002,127.0.0.1:4003 [--interval-ms 1000]
//! [--iterations 0] [--no-clear]`
//!
//! Polls every replica's stats plane (`ClientRequest::Stats`) on the given
//! interval and renders a one-screen summary: per-replica lifecycle
//! counters, reply-latency percentiles, fast-path ratio, detector/GC
//! activity and link health, plus a cluster-wide latency line computed by
//! **merging** the replicas' bounded histograms before taking percentiles
//! (percentiles of percentiles would be wrong; merged histograms are not).
//!
//! Replicas are numbered `1..=n` in `--addrs` order, exactly like
//! `atlas-replica`. An unreachable replica shows as `down` and is retried
//! every interval — `atlas-top` can outlive restarts and watch a recovery
//! happen. A replica whose stats encoding has another layout version shows
//! as `refused`, with both versions named, rather than as misread numbers.
//! The `cut p99(ms)` column is the 99th percentile of the time the event
//! loop spent on a snapshot cut (`durability.snapshot_cut_us`; `-` before
//! the first cut). The `rtt(ms)` column lists each link's measured round
//! trip as `peer:ms`. `--iterations 0` polls forever; any other value exits after
//! that many screens (useful in scripts).

use atlas_metrics::{BoundedHistogram, HistogramSummary, MetricsSnapshot};
use atlas_runtime::Client;
use std::net::SocketAddr;
use std::process::exit;
use std::time::Duration;

struct Args {
    addrs: Vec<SocketAddr>,
    interval: Duration,
    iterations: u64,
    clear: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: atlas-top --addrs <a1,a2,...> [--interval-ms <ms>] \
         [--iterations <n|0=forever>] [--no-clear]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addrs: Vec::new(),
        interval: Duration::from_millis(1_000),
        iterations: 0,
        clear: true,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match flag.as_str() {
            "--addrs" => {
                args.addrs = value("--addrs")
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--interval-ms" => {
                args.interval = Duration::from_millis(
                    value("--interval-ms").parse().unwrap_or_else(|_| usage()),
                )
            }
            "--iterations" => {
                args.iterations = value("--iterations").parse().unwrap_or_else(|_| usage())
            }
            "--no-clear" => args.clear = false,
            _ => usage(),
        }
    }
    if args.addrs.is_empty() {
        usage();
    }
    args
}

/// Ceiling on one replica's dial + stats round trip. A down replica whose
/// address blackholes (dropped SYNs, a mid-handshake crash, a replica that
/// accepts but never replies) must cost one bounded beat, not stall the
/// whole screen until the kernel gives up — `atlas-top` keeps rendering
/// the live replicas while the dead one shows as `down`.
const POLL_TIMEOUT: Duration = Duration::from_millis(750);

/// Fetches one replica's snapshot, reconnecting when needed. `Err` says
/// why there is none this round — unreachable, or a snapshot this build
/// refuses to decode — and clears the connection slot so the next round
/// redials.
async fn poll(
    slot: &mut Option<Client>,
    addr: SocketAddr,
    client_id: u64,
) -> Result<MetricsSnapshot, String> {
    let down = || format!("down ({addr})");
    if slot.is_none() {
        *slot = match tokio::time::timeout(POLL_TIMEOUT, Client::connect(addr, client_id)).await {
            Ok(conn) => conn.ok(),
            Err(_elapsed) => None,
        };
    }
    let client = slot.as_mut().ok_or_else(down)?;
    let polled = tokio::time::timeout(POLL_TIMEOUT, client.stats()).await;
    if !matches!(polled, Ok(Ok(_))) {
        // Error or timeout: drop the connection (a timed-out stats reply
        // could still arrive and desync the request/reply stream).
        *slot = None;
    }
    match polled {
        Ok(Ok(snapshot)) => Ok(snapshot),
        Ok(Err(e)) if e.kind() == std::io::ErrorKind::InvalidData => {
            eprintln!("atlas-top: replica at {addr}: {e}");
            Err(format!("refused: {e}"))
        }
        Ok(Err(_)) | Err(_) => Err(down()),
    }
}

/// Each link's measured round trip, `peer:ms`.
fn rtts(s: &MetricsSnapshot) -> String {
    let rtt = |us: u64| match us {
        0 => "-".to_string(),
        us => format!("{:.1}", us as f64 / 1_000.0),
    };
    let links = s
        .links
        .iter()
        .map(|l| format!("{}:{}", l.peer, rtt(l.rtt_us)));
    links.collect::<Vec<_>>().join(" ")
}

fn render(snapshots: &[Result<MetricsSnapshot, String>]) {
    println!(
        "{:<3} {:<8} {:>8} {:>10} {:>9} {:>9} {:>9} {:>6} {:>8} {:>7} {:>5} {:>7} {:>8} {:>8} {:>12} rtt(ms)",
        "id",
        "proto",
        "uptime",
        "submitted",
        "replied",
        "p50(ms)",
        "p99(ms)",
        "fast%",
        "tracked",
        "gc",
        "takeo",
        "links",
        "wal-wr",
        "sock-wr",
        "cut p99(ms)"
    );
    let mut merged = BoundedHistogram::new();
    for (i, snapshot) in snapshots.iter().enumerate() {
        let id = i + 1;
        let s = match snapshot {
            Ok(s) => s,
            Err(why) => {
                println!("{id:<3} {:<8} {why}", "-");
                continue;
            }
        };
        merged.merge(&s.lifecycle.submit_to_replied);
        let reply = HistogramSummary::of(&s.lifecycle.submit_to_replied);
        let fast = match s.protocol_stats.fast_path_ratio() {
            Some(r) => format!("{:>5.1}", r * 100.0),
            None => "    -".to_string(),
        };
        let up = s.links.iter().filter(|l| l.connected).count();
        let socket_writes: u64 = s.links.iter().map(|l| l.writes).sum();
        let cuts = &s.durability.snapshot_cut_us;
        let cut = if cuts.is_empty() {
            "-".to_string()
        } else {
            format!("{:.2}", HistogramSummary::of(cuts).p99_us as f64 / 1_000.0)
        };
        println!(
            "{id:<3} {:<8} {:>7}s {:>10} {:>9} {:>9.2} {:>9.2} {fast} {:>8} {:>7} {:>5} {:>4}/{} {:>8} {:>8} {cut:>12} {}",
            s.protocol,
            s.uptime_us / 1_000_000,
            s.lifecycle.submitted,
            s.lifecycle.replied,
            reply.p50_us as f64 / 1_000.0,
            reply.p99_us as f64 / 1_000.0,
            s.tracked_entries,
            s.gc.rounds,
            s.detector.takeovers,
            up,
            s.links.len(),
            s.durability.wal_writes,
            socket_writes,
            rtts(s),
        );
    }
    if !merged.is_empty() {
        let cluster = HistogramSummary::of(&merged);
        println!(
            "cluster reply latency ({} cmds): p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms  max {:.2} ms",
            cluster.count,
            cluster.p50_us as f64 / 1_000.0,
            cluster.p95_us as f64 / 1_000.0,
            cluster.p99_us as f64 / 1_000.0,
            cluster.max_us as f64 / 1_000.0,
        );
    }
}

fn main() {
    let args = parse_args();
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    rt.block_on(async {
        // Stats probes submit no commands, but client identifiers should
        // still be unique per process (sessions are keyed by them).
        let namespace = (std::process::id() as u64) << 20;
        let mut slots: Vec<Option<Client>> = args.addrs.iter().map(|_| None).collect();
        let mut round: u64 = 0;
        loop {
            round += 1;
            let mut snapshots = Vec::with_capacity(args.addrs.len());
            for (i, (&addr, slot)) in args.addrs.iter().zip(slots.iter_mut()).enumerate() {
                snapshots.push(poll(slot, addr, namespace | (i as u64 + 1)).await);
            }
            if args.clear {
                // ANSI clear + home, so the summary repaints in place.
                print!("\x1b[2J\x1b[H");
            }
            println!(
                "atlas-top — {} replicas, every {:?}, round {round}",
                args.addrs.len(),
                args.interval
            );
            render(&snapshots);
            if args.iterations > 0 && round >= args.iterations {
                return;
            }
            tokio::time::sleep(args.interval).await;
        }
    });
}
