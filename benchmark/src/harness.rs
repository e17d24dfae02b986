//! One benchmark run: set the cluster up, warm it, measure, check the
//! outputs, report.
//!
//! The main thread owns the cluster and the clock-driven side work (the
//! kill, the `/proc` and stats-plane samples at both ends of the measured
//! interval); the generator thread owns the client sockets. The replicas
//! run on the vendored reactor's worker pool, sized by
//! `TOKIO_WORKER_THREADS`, which `main` pins before first use.

use crate::contract::{END_TO_END, PER_LAYER};
use crate::loadgen::{self, Conn, LoadResult, Model, Timeline};
use crate::stats::{self, ProcSample, Stages, StatsDelta};
use crate::trace::Trace;
use crate::walk;
use crate::workload::{self, LoopKind, Spec, Stream};
use atlas_core::{Command, Config, KvOp, ProcessId};
use atlas_protocol::Atlas;
use atlas_runtime::{Client, Cluster, ClusterOptions, LinkRule, MetricsSnapshot, NetProfile};
use kvstore::Output;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fixed warm-up at the workload's own load before the measured interval.
pub const WARMUP: Duration = Duration::from_secs(3);
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Executed-entry GC cadence in ticks (the README's long-lived setting):
/// keeps protocol state bounded over a long run.
const GC_EVERY: u64 = 40;
/// Generator lateness (p99, µs) above which an open-loop run is void. The
/// issue asked for 5 ms; on the calibration machine the whole guest stops
/// for 30–70 ms every few seconds, and 1 % of a 16 s schedule is 160 ms, so
/// one run in a dozen reads 4 ms with nothing wrong in the program. Every
/// latency is timed from the due time and so already contains the
/// lateness; this limit only catches a generator that cannot hold its
/// schedule at all. Every run prints the figure (`gen_late_p99_us`), and
/// `repeat` holds the worst one against the issue's 5 ms.
pub const MAX_LATE_P99_US: u64 = 100_000;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed of the command streams.
    pub seed: u64,
    /// Length of the measured interval.
    pub seconds: u64,
    /// Traced run: per-layer metrics, spans written to `trace_out`.
    pub trace: bool,
    /// Where the spans go (traced runs).
    pub trace_out: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand for a [`Metric`].
pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Measured client requests.
    pub requests: u64,
    /// Measured client requests given up.
    pub failed: u64,
    /// Latency samples behind the percentiles (= `requests`).
    pub samples: usize,
    /// Samples beyond the reported p99.
    pub beyond_p99: usize,
    /// 99th percentile of how late requests left the generator, µs.
    pub gen_late_p99_us: f64,
    /// The highest percentile the sample supports (ten samples beyond
    /// it) and its value, µs.
    pub tail: Option<(f64, f64)>,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// Everything the output check found wrong; empty = correct.
    pub problems: Vec<String>,
}

struct Setup {
    cluster: Cluster,
    conns: Vec<Conn>,
    streams: Vec<Stream>,
    models: Vec<Model>,
}

fn cluster_options(spec: &Spec) -> ClusterOptions {
    let mut options = ClusterOptions {
        flush_policy: spec.flush,
        gc_every: if spec.compaction { GC_EVERY } else { 0 },
        ..ClusterOptions::default()
    };
    if !spec.compaction {
        options.snapshot_every = 0;
    }
    if !spec.delays.is_empty() {
        // Fixed one-way delays, jitter 0: a tail then measures the
        // program's queueing, not the shaper's dice.
        let mut net = NetProfile::new(0);
        for &(a, b, delay) in spec.delays {
            net = net
                .rule(LinkRule::link(a, b).delay(delay))
                .rule(LinkRule::link(b, a).delay(delay));
        }
        options = options.with_net(net);
    }
    options
}

/// Boots the cluster, connects the clients and writes every key once
/// through consensus.
fn set_up(rt: &tokio::runtime::Runtime, spec: &Spec, seed: u64) -> io::Result<Setup> {
    let cluster = rt.block_on(Cluster::spawn_with::<Atlas>(
        Config::new(3, 1),
        cluster_options(spec),
    ))?;
    let mut conns = Vec::new();
    let mut streams = Vec::new();
    let mut models = vec![Model::default(); spec.client_replicas.len()];
    for (i, &replica) in spec.client_replicas.iter().enumerate() {
        conns.push(Conn::connect(
            cluster.addr(replica),
            workload::client_id(i),
        )?);
        streams.push(Stream::new(spec, seed, i));
    }
    let scripts: Vec<Vec<Vec<Command>>> = streams.iter_mut().map(Stream::preload).collect();
    for (model, script) in models.iter_mut().zip(&scripts) {
        for cmd in script.iter().flatten() {
            if let Some((key, KvOp::Put(value))) = cmd.ops().next() {
                model.preloaded(*key, *value);
            }
        }
    }
    let mut done = 0usize;
    let expected: usize = scripts.iter().flatten().map(Vec::len).sum();
    loadgen::run_script(
        &mut conns,
        scripts,
        4 * workload::PRELOAD_BATCH,
        Duration::from_secs(60),
        |_, _, outputs| {
            done += usize::from(matches!(outputs.first(), Some((_, Output::Done))));
        },
    )?;
    if done != expected {
        return Err(io::Error::other(format!(
            "preload acknowledged {done} of {expected} writes"
        )));
    }
    Ok(Setup {
        cluster,
        conns,
        streams,
        models,
    })
}

/// Stops the replicas and gives their tasks a moment to notice before the
/// data directories vanish under them (a replica that loses its journal
/// mid-append says so on stderr).
fn tear_down(cluster: Cluster) {
    cluster.shutdown();
    std::thread::sleep(Duration::from_millis(100));
    drop(cluster);
}

/// The process's counters; CPU time and context switches summed over its
/// tasks.
fn read_proc() -> ProcSample {
    let read = |path: std::path::PathBuf| std::fs::read_to_string(path).unwrap_or_default();
    let mut p = ProcSample::default();
    for task in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let dir = task.path();
        let (utime, stime) =
            stats::parse_stat_cpu_ticks(&read(dir.join("stat"))).unwrap_or_default();
        p.utime_ticks += utime;
        p.stime_ticks += stime;
        p.run_ns += stats::parse_schedstat_run_ns(&read(dir.join("schedstat"))).unwrap_or(0);
        p.ctx_switches += stats::parse_ctx_switches(&read(dir.join("status")));
    }
    let io = read("/proc/self/io".into());
    let field = |key| stats::parse_proc_field(&io, key).unwrap_or(0);
    p.syscr = field("syscr");
    p.syscw = field("syscw");
    p.io_bytes = field("rchar") + field("wchar");
    p.allocs = atlas_metrics::allocations();
    p.rss_peak_kb =
        stats::parse_proc_field(&read("/proc/self/status".into()), "VmHWM").unwrap_or(0);
    p
}

/// Stats-plane connections to every replica, opened before the measured
/// interval so that sampling costs one request each.
struct StatsPlane(Vec<(ProcessId, Client)>);

impl StatsPlane {
    fn connect(rt: &tokio::runtime::Runtime, cluster: &Cluster) -> io::Result<Self> {
        let mut probes = Vec::new();
        for id in 1..=cluster.n() as ProcessId {
            probes.push((
                id,
                rt.block_on(Client::connect(cluster.addr(id), 900 + u64::from(id)))?,
            ));
        }
        Ok(Self(probes))
    }

    /// Snapshots of the replicas not listed in `dead`.
    fn sample(
        &mut self,
        rt: &tokio::runtime::Runtime,
        dead: Option<ProcessId>,
    ) -> io::Result<Vec<MetricsSnapshot>> {
        let mut out = Vec::new();
        for (id, probe) in &mut self.0 {
            if Some(*id) != dead {
                out.push(rt.block_on(probe.stats())?);
            }
        }
        Ok(out)
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// What the main thread sampled around the measured interval.
#[derive(Default)]
struct Samples {
    /// Duration of each set-up, s, the cold one first.
    setup_s: Vec<f64>,
    /// When the victim was killed, ns since the timeline's origin.
    kill_ns: Option<u64>,
    proc_start: ProcSample,
    proc_end: ProcSample,
    stats_start: Vec<MetricsSnapshot>,
    stats_end: Vec<MetricsSnapshot>,
}

/// Runs one workload once.
pub fn run(spec: &'static Spec, opts: &RunOptions) -> io::Result<RunReport> {
    let rt = tokio::runtime::Runtime::new()?;

    // Set up several times; the last cluster is the one measured.
    let mut samples = Samples::default();
    let mut setup = None;
    for _ in 0..SETUPS {
        if let Some(Setup { cluster, .. }) = setup.take() {
            tear_down(cluster);
        }
        let t0 = Instant::now();
        setup = Some(set_up(&rt, spec, opts.seed)?);
        samples.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        mut cluster,
        conns,
        streams,
        models,
    } = setup.expect("SETUPS > 0");

    let mut plane = if opts.trace {
        Some(StatsPlane::connect(&rt, &cluster)?)
    } else {
        None
    };

    let origin = Instant::now();
    let start = origin + Duration::from_millis(20);
    let measure_start = start + WARMUP;
    let interval = Duration::from_secs(opts.seconds);
    let timeline = Timeline {
        origin,
        start,
        measure_start,
        measure_end: measure_start + interval,
        kill_at: spec
            .kill
            .map(|_| measure_start + interval * workload::KILL_AFTER_THIRDS / 3),
        trace: opts.trace,
        give_up: loadgen::GIVE_UP,
    };
    let load = std::thread::scope(|scope| -> io::Result<_> {
        let generator = std::thread::Builder::new()
            .name("generator".into())
            .spawn_scoped(scope, || {
                loadgen::run_load(spec, conns, streams, models, timeline)
            })?;

        sleep_until(timeline.measure_start);
        samples.proc_start = read_proc();
        if let Some(plane) = &mut plane {
            samples.stats_start = plane.sample(&rt, None)?;
        }
        if let (Some(plan), Some(at)) = (spec.kill, timeline.kill_at) {
            sleep_until(at);
            samples.kill_ns = Some(Instant::now().duration_since(origin).as_nanos() as u64);
            cluster.kill(plan.replica);
        }
        sleep_until(timeline.measure_end);
        samples.proc_end = read_proc();
        if let Some(plane) = &mut plane {
            samples.stats_end = plane.sample(&rt, spec.kill.map(|k| k.replica))?;
        }
        generator
            .join()
            .map_err(|_| io::Error::other("generator thread panicked"))?
    });
    drop(plane);
    let (load, mut conns, mut streams) = load?;

    let mut problems = Vec::new();
    check_load(spec, &load, &mut problems);
    check_state(
        &rt,
        spec,
        &cluster,
        &mut conns,
        &mut streams,
        &load,
        &mut problems,
    )?;
    drop(conns);
    tear_down(cluster);

    let samples_n = load.latencies_ns.len();
    let mut report = RunReport {
        workload: spec.name,
        requests: load.requests,
        failed: load.failed,
        samples: samples_n,
        beyond_p99: stats::samples_beyond(samples_n, 0.99),
        gen_late_p99_us: stats::percentile(&load.lateness_ns, 0.99) as f64 / 1e3,
        tail: stats::highest_supported_percentile(samples_n)
            .map(|p| (p, stats::percentile(&load.latencies_ns, p) as f64 / 1e3)),
        metrics: Vec::new(),
        problems,
    };
    if samples_n == 0 || load.acked_cmds == 0 {
        report
            .problems
            .push("no request completed in the measured interval".into());
        return Ok(report);
    }

    let e2e = end_to_end(&load, &samples, opts.seconds);
    if opts.trace {
        let mut trace = Trace::new(spec.name, opts.seed);
        report.metrics = per_layer(spec, opts, &load, &samples, &e2e, &mut trace);
        trace.add_requests(&load.spans);
        trace.write(&opts.trace_out)?;
    } else {
        report.metrics = e2e;
    }
    // The names and units printed are the ones `BENCHMARK.json` declares.
    let declared: Vec<(&str, &str)> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, *unit))
            .collect()
    } else {
        END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
    };
    if !report.metrics.iter().map(|x| (x.name, x.unit)).eq(declared) {
        report
            .problems
            .push("the metrics reported are not the ones declared".into());
    }
    Ok(report)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(load: &LoadResult, samples: &Samples, seconds: u64) -> Vec<Metric> {
    let cpu_us = samples.proc_end.cpu_us_since(&samples.proc_start);
    vec![
        m(
            "throughput_ops_s",
            load.acked_cmds as f64 / seconds as f64,
            "1/s",
        ),
        m(
            "latency_p50_us",
            stats::percentile(&load.latencies_ns, 0.50) as f64 / 1e3,
            "us",
        ),
        m(
            "latency_p99_us",
            stats::percentile(&load.latencies_ns, 0.99) as f64 / 1e3,
            "us",
        ),
        m("cpu_us_per_op", cpu_us / load.acked_cmds as f64, "us"),
        m("setup_s", stats::median(&samples.setup_s), "s"),
    ]
}

/// Median over the interval's one-second windows of each window's 99th
/// percentile: the tail a request meets in a typical second. A burst — a
/// snapshot pause, a descheduled vCPU, the kill — spoils the windows it
/// falls in, not this figure, which is why it is a per-layer reading and
/// the end-to-end `latency_p99_us` is the whole interval's.
fn window_p99_us(load: &LoadResult, seconds: u64) -> f64 {
    let per_window: Vec<f64> = load
        .window_latencies_ns
        .iter()
        .take(seconds as usize)
        .filter(|w| !w.is_empty())
        .map(|w| stats::percentile(w, 0.99) as f64 / 1e3)
        .collect();
    stats::median(&per_window)
}

fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|x| x.name == name)
        .map_or(0.0, |x| x.value)
}

/// The per-layer metrics of a traced run: live counters first, then the
/// isolated layer walk and the budget that ties both to `cpu_us_per_op`.
fn per_layer(
    spec: &Spec,
    opts: &RunOptions,
    load: &LoadResult,
    samples: &Samples,
    e2e: &[Metric],
    trace: &mut Trace,
) -> Vec<Metric> {
    let ops = load.acked_cmds as f64;
    let d = StatsDelta::between(&samples.stats_start, &samples.stats_end);
    trace.add_counters("stats_plane", &d);
    trace.add_proc(&samples.proc_start, &samples.proc_end);
    // Replicas that died have no stats plane at the end; hold the
    // survivors' stage means against their own clients' mean.
    let client_mean_us = stats::delta_mean((0, 0), load.survivor_latency_ns) / 1e3;
    let stages = Stages::from_cumulative(client_mean_us, d.cumulative_us);
    let replicas = samples.stats_end.len().max(1) as f64;
    let (p0, p1) = (&samples.proc_start, &samples.proc_end);
    let per_op = |a: u64, b: u64| b.saturating_sub(a) as f64 / ops;
    let stall_ms = match (samples.kill_ns, load.service_resumed_ns) {
        (Some(kill), Some(resumed)) => resumed.saturating_sub(kill) as f64 / 1e6,
        _ => 0.0,
    };
    // Acknowledged commands per traced second against per untraced second
    // of the same interval, as medians: the seconds around a kill (or a
    // hiccup) are not what tracing is being charged for.
    let by_parity = |parity: usize| -> Vec<f64> {
        let acked = load.window_acked.iter().take(opts.seconds as usize);
        acked.skip(parity).step_by(2).map(|a| *a as f64).collect()
    };
    let (untraced, traced) = (stats::median(&by_parity(0)), stats::median(&by_parity(1)));
    let overhead_pct = if untraced > 0.0 && traced > 0.0 {
        (untraced - traced) / untraced * 100.0
    } else {
        0.0
    };

    let mut out = vec![
        m("client.requests", load.requests as f64, "count"),
        m("client.failed", load.failed as f64, "count"),
        m("client.lost_with_site", load.lost_with_site as f64, "count"),
        m(
            "client.latency_p99_window_us",
            window_p99_us(load, opts.seconds),
            "us",
        ),
        m(
            "client.gen_late_p99_us",
            stats::percentile(&load.lateness_ns, 0.99) as f64 / 1e3,
            "us",
        ),
        m("stage.client_us", stages.client, "us"),
        m("stage.journaled_us", stages.journaled, "us"),
        m("stage.proposed_us", stages.proposed, "us"),
        m("stage.committed_us", stages.committed, "us"),
        m("stage.executed_us", stages.executed, "us"),
        m("stage.replied_us", stages.replied, "us"),
        m("protocol.fast_path_ratio", d.fast_path_ratio(), "ratio"),
        m("protocol.slow_paths", d.slow_paths as f64, "count"),
        m("protocol.recoveries", d.recoveries as f64, "count"),
        m("protocol.noops", d.noops as f64, "count"),
        m(
            "protocol.tracked_entries_end",
            d.tracked_entries_end as f64,
            "count",
        ),
        m(
            "journal.records_per_op",
            d.journal_records as f64 / ops,
            "1/op",
        ),
        m("wal.fsyncs_per_op", d.fsyncs as f64 / ops, "1/op"),
        m("wal.fsync_mean_us", d.fsync_mean_us, "us"),
        m(
            "wal.fsync_busy_share",
            d.fsync_total_us / (opts.seconds as f64 * 1e6 * replicas),
            "ratio",
        ),
        m("snapshot.count", d.snapshots as f64, "count"),
        m(
            "snapshot.per_1k_ops",
            d.snapshots as f64 * 1_000.0 / ops,
            "1/kop",
        ),
        m("gc.rounds", d.gc_rounds as f64, "count"),
        m(
            "gc.entries_dropped_per_op",
            d.gc_dropped as f64 / ops,
            "1/op",
        ),
        m("transport.resent_frames", d.resent_frames as f64, "count"),
        m("transport.dropped_frames", d.dropped_frames as f64, "count"),
        m("detector.suspicions", d.suspicions as f64, "count"),
        m("detector.takeovers", d.takeovers as f64, "count"),
        m("detector.stall_ms", stall_ms, "ms"),
        m("proc.sys_share", p1.sys_share_since(p0), "ratio"),
        m(
            "proc.syscalls_per_op",
            per_op(p0.syscr + p0.syscw, p1.syscr + p1.syscw),
            "1/op",
        ),
        m(
            "proc.ctx_switches_per_op",
            per_op(p0.ctx_switches, p1.ctx_switches),
            "1/op",
        ),
        m("proc.allocs_per_op", per_op(p0.allocs, p1.allocs), "1/op"),
        m(
            "proc.io_bytes_per_op",
            per_op(p0.io_bytes, p1.io_bytes),
            "B/op",
        ),
        m("proc.rss_peak_mb", p1.rss_peak_kb as f64 / 1024.0, "MB"),
    ];

    let live = walk::LiveShape {
        records_per_op: d.journal_records as f64 / ops,
        snapshots_per_op: d.snapshots as f64 / ops,
        // What a replica snapshots by the end of the run: the preloaded
        // store and one execution-record entry per executed command.
        store_keys: workload::PRIVATE_KEYS * spec.client_replicas.len() as u64 + workload::HOT_KEYS,
        log_entries: samples
            .stats_end
            .iter()
            .map(|s| s.store_executed)
            .max()
            .unwrap_or(0),
    };
    let walked = walk::run(spec, opts.seed, &live, trace);
    let walk_cpu = walked.cpu_us_per_op;
    out.extend(walked.metrics);
    out.push(m("budget.walk_cpu_us_per_op", walk_cpu, "us"));
    out.push(m(
        "budget.unattributed_us",
        value_of(e2e, "cpu_us_per_op") - walk_cpu,
        "us",
    ));
    out.push(m("trace.overhead_pct", overhead_pct, "%"));
    out.push(m("setup.median_s", value_of(e2e, "setup_s"), "s"));
    out.push(m("setup.first_s", samples.setup_s[0], "s"));
    out
}

/// Checks on what the generator itself saw.
fn check_load(spec: &Spec, load: &LoadResult, problems: &mut Vec<String>) {
    if load.failed > 0 {
        problems.push(format!(
            "{} of {} requests were given up",
            load.failed, load.requests
        ));
    }
    if load.wrong_outputs > 0 {
        problems.push(format!(
            "{} replies contradicted the client's own writes",
            load.wrong_outputs
        ));
    }
    if spec.kill.is_none() && load.lost_with_site > 0 {
        problems.push("requests were lost although no replica was killed".into());
    }
    if matches!(spec.loop_kind, LoopKind::Open { .. }) {
        let p99 = stats::percentile(&load.lateness_ns, 0.99) / 1_000;
        if p99 > MAX_LATE_P99_US {
            problems.push(format!(
                "generator ran late: p99 {p99} us past due (limit {MAX_LATE_P99_US})"
            ));
        }
    }
    if spec.kill.is_some() && load.service_resumed_ns.is_none() {
        problems.push("no hot-key request was answered after the kill".into());
    }
}

/// Checks on the replicated state once the load has stopped: every
/// private key read back through consensus holds its owner's last
/// acknowledged write (or, for writes cut off by the kill, possibly a later
/// unacknowledged one), and all live replicas converge on one digest.
fn check_state(
    rt: &tokio::runtime::Runtime,
    spec: &Spec,
    cluster: &Cluster,
    conns: &mut [Conn],
    streams: &mut [Stream],
    load: &LoadResult,
    problems: &mut Vec<String>,
) -> io::Result<()> {
    // Survivors read their own keys; the first client (a survivor by
    // construction of the workload table) also reads the keys of clients
    // whose site died.
    let mut scripts: Vec<Vec<Vec<Command>>> = vec![Vec::new(); conns.len()];
    for (owner, conn) in conns.iter().enumerate() {
        let reader = if conn.open { owner } else { 0 };
        let script = streams[reader].read_back(owner);
        scripts[reader].extend(script);
    }
    let mut mismatches = 0u64;
    let mut read = 0u64;
    let patience = Duration::from_secs(30);
    loadgen::run_script(
        conns,
        scripts,
        8 * workload::PRELOAD_BATCH,
        patience,
        |_, _, outputs| {
            for (key, output) in outputs {
                let model = &load.models[workload::owner_of(key)];
                let Output::Value(got) = output else {
                    mismatches += 1;
                    continue;
                };
                read += 1;
                let unacked = |v| model.maybe.get(&key).is_some_and(|m| m.contains(&v));
                if got != model.acked.get(&key).copied() && !got.is_some_and(unacked) {
                    mismatches += 1;
                }
            }
        },
    )?;
    let expected = workload::PRIVATE_KEYS * conns.len() as u64;
    if read != expected {
        problems.push(format!("read back {read} of {expected} private keys"));
    }
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} private keys do not hold their owner's last acknowledged write"
        ));
    }

    // Digest convergence of the live replicas.
    let live_ids: Vec<ProcessId> = (1..=cluster.n() as ProcessId)
        .filter(|id| spec.kill.is_none_or(|k| k.replica != *id))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(20) + spec.max_rtt() * 10;
    let mut probes = Vec::new();
    for &id in &live_ids {
        probes.push(rt.block_on(Client::connect(cluster.addr(id), 950 + u64::from(id)))?);
    }
    loop {
        let mut views = Vec::new();
        for probe in &mut probes {
            let (entries, digest) = rt.block_on(probe.execution_log())?;
            views.push((entries.len(), digest));
        }
        if views.windows(2).all(|w| w[0] == w[1]) {
            break;
        }
        if Instant::now() >= deadline {
            problems.push(format!(
                "live replicas did not converge: (executed, digest) = {views:?}"
            ));
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    Ok(())
}
