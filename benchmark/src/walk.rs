//! The layer walk: the workload's own generated commands replayed,
//! single-threaded and without the cluster's sockets, through each layer's
//! public function.
//!
//! Every layer gets one parent span and one child span per chunk of
//! [`CHUNK`] calls (a span per call would put the clock's own ~25 ns inside
//! every measurement and write a gigabyte of JSON); the per-call figures
//! are chunk self time over calls. The walk ends with a budget: each
//! figure times how often a command needs it on three replicas, to be held
//! against the live `cpu_us_per_op`.

use crate::harness::{m, Metric};
use crate::trace::Trace;
use crate::workload::{self, Spec, Stream};
use atlas_core::{Action, Command, Config, Dot, ProcessId, Protocol, Topology};
use atlas_log::{FlushPolicy, SnapshotStore, TempDir, Wal};
use atlas_protocol::{Atlas, DependencyGraph, KeyDeps, Message};
use atlas_runtime::journal::{JournalRecord, ReplicaSnapshot};
use atlas_runtime::wire::{
    decode_payload, decode_peer_frame, encode_frame_into, encode_peer_frame_into, ClientReply,
    ClientRequest, PeerBodyRef, PeerBodyView,
};
use kvstore::{KVStore, Output};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};

/// Commands the walk replays through the cheap layers.
pub const COMMANDS: usize = 100_000;
/// Calls per span.
pub const CHUNK: usize = 1_000;
/// In-memory GC cadence of the commit cycle, in chunks — the live
/// cluster's GC keeps protocol state to about a second of commands.
const GC_EVERY_CHUNKS: usize = 8;
/// Calls of the layers that wait for a disk, a socket or a timer.
const FSYNC_CALLS: usize = 64;
const SNAPSHOT_CALLS: usize = 3;
const REACTOR_ROUNDS: usize = 2_000;
const TIMER_ROUNDS: usize = 200;

/// What the live part of the run says about how often the layers are used.
#[derive(Debug, Clone, Copy)]
pub struct LiveShape {
    /// Journal records per command, over the three replicas.
    pub records_per_op: f64,
    /// Snapshots per command, over the three replicas.
    pub snapshots_per_op: f64,
    /// Keys in a replica's store.
    pub store_keys: u64,
    /// Entries in a replica's execution record at the end of the run.
    pub log_entries: u64,
}

/// The walk's metrics and the CPU budget they add up to.
#[derive(Debug)]
pub struct Walked {
    /// Per-layer metrics, names as in `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Σ walk time × calls per command on three replicas, µs.
    pub cpu_us_per_op: f64,
}

/// Three in-memory Atlas replicas with messages handed over directly.
struct MemCluster {
    replicas: Vec<Atlas>,
    queue: VecDeque<(ProcessId, ProcessId, Message)>,
    executed: u64,
    /// Messages sent to at least one remote replica, with how many.
    remote: Option<Vec<(Message, usize)>>,
}

impl MemCluster {
    fn new(capture: bool) -> Self {
        let config = Config::new(3, 1);
        Self {
            replicas: (1..=3)
                .map(|id| Atlas::new(id, config, Topology::identity(id, 3)))
                .collect(),
            queue: VecDeque::new(),
            executed: 0,
            remote: capture.then(Vec::new),
        }
    }

    fn perform(&mut self, at: ProcessId, actions: Vec<Action<Message>>) {
        for action in actions {
            match action {
                Action::Send { targets, msg } => {
                    let remotes = targets.iter().filter(|t| **t != at).count();
                    if let (Some(log), true) = (&mut self.remote, remotes > 0) {
                        log.push((msg.clone(), remotes));
                    }
                    // Self-addressed messages are delivered first, as the
                    // runtime does.
                    for to in targets
                        .iter()
                        .filter(|t| **t == at)
                        .chain(targets.iter().filter(|t| **t != at))
                    {
                        self.queue.push_back((at, *to, msg.clone()));
                    }
                }
                Action::Execute { .. } => self.executed += 1,
                Action::Commit { .. } => {}
            }
        }
    }

    /// One command from submission to `Execute` at all three replicas.
    fn commit(&mut self, at: ProcessId, cmd: Command) {
        let actions = self.replicas[at as usize - 1].submit(cmd, 0);
        self.perform(at, actions);
        while let Some((from, to, msg)) = self.queue.pop_front() {
            let actions = self.replicas[to as usize - 1].handle(from, msg, 0);
            self.perform(to, actions);
        }
    }

    /// What the runtime's GC round does: collect what every replica
    /// executed.
    fn gc(&mut self) {
        let mut horizon = self.replicas[0].executed_watermarks();
        for replica in &self.replicas[1..] {
            for (space, mark) in &mut horizon {
                let theirs = replica
                    .executed_watermarks()
                    .iter()
                    .find(|(s, _)| s == space)
                    .map_or(0, |(_, m)| *m);
                *mark = (*mark).min(theirs);
            }
        }
        for replica in &mut self.replicas {
            replica.gc_executed(&horizon);
        }
    }
}

/// The first [`COMMANDS`] commands of the workload, with the replica that
/// coordinates each (its client's), in the order the clients interleave.
fn commands(spec: &Spec, seed: u64) -> Vec<(ProcessId, Vec<Command>)> {
    let mut streams: Vec<Stream> = (0..spec.client_replicas.len())
        .map(|i| {
            let mut s = Stream::new(spec, seed, i);
            s.preload(); // the live run's streams are past their preload too
            s
        })
        .collect();
    let mut out = Vec::new();
    let mut total = 0;
    while total < COMMANDS {
        for (i, stream) in streams.iter_mut().enumerate() {
            let request = stream.next_request(None);
            total += request.len();
            out.push((spec.client_replicas[i], request));
        }
    }
    out
}

/// Runs the walk; spans go to `trace`.
pub fn run(spec: &Spec, seed: u64, live: &LiveShape, trace: &mut Trace) -> Walked {
    let requests = commands(spec, seed);
    let flat: Vec<(ProcessId, Command)> = requests
        .iter()
        .flat_map(|(at, cmds)| cmds.iter().map(|c| (*at, c.clone())))
        .take(COMMANDS)
        .collect();
    let mut buf = Vec::new();

    // wire, client side: one frame per request, costed per command.
    let layer = trace.open("walk.wire.client");
    let frames: Vec<(ClientRequest, usize)> = requests
        .iter()
        .map(|(_, cmds)| (ClientRequest::Submit { cmds: cmds.clone() }, cmds.len()))
        .collect();
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    let frames_per_span = CHUNK / spec.batch + 1;
    let mut first = 0u64;
    for chunk in frames.chunks(frames_per_span) {
        let calls: usize = chunk.iter().map(|(_, len)| len).sum();
        trace.time(layer, "wire.encode_client", first, calls as u64, || {
            for (frame, _) in chunk {
                encode_frame_into(&mut buf, frame).expect("request encodes");
                encoded.push(black_box(&buf).clone());
            }
        });
        first += calls as u64;
    }
    let mut first = 0u64;
    for (chunk, lens) in encoded
        .chunks(frames_per_span)
        .zip(frames.chunks(frames_per_span))
    {
        let calls: usize = lens.iter().map(|(_, len)| len).sum();
        trace.time(layer, "wire.decode_client", first, calls as u64, || {
            for bytes in chunk {
                black_box(decode_payload::<ClientRequest>(&bytes[4..]).expect("request decodes"));
            }
        });
        first += calls as u64;
    }
    drop(encoded);
    drop(frames);
    trace.close(layer);

    // protocol: submit → Execute at all three, messages handed over in
    // memory. Commands are cloned outside the timed region.
    let layer = trace.open("walk.protocol");
    let mut cluster = MemCluster::new(false);
    for (ci, chunk) in flat.chunks(CHUNK).enumerate() {
        let owned: Vec<(ProcessId, Command)> = chunk.to_vec();
        trace.time(
            layer,
            "protocol.commit_cycle",
            (ci * CHUNK) as u64,
            chunk.len() as u64,
            || {
                for (at, cmd) in owned {
                    cluster.commit(at, cmd);
                }
            },
        );
        if ci % GC_EVERY_CHUNKS == GC_EVERY_CHUNKS - 1 {
            cluster.gc();
        }
    }
    assert_eq!(
        cluster.executed,
        3 * flat.len() as u64,
        "every command executes at all three replicas"
    );
    let protocol_state = cluster.replicas[0]
        .save_state()
        .expect("Atlas snapshots its state");
    drop(cluster);
    trace.close(layer);

    // The peer messages of a sample of the same commands, for the wire.
    let mut capture = MemCluster::new(true);
    let sample = &flat[..flat.len().min(10 * CHUNK)];
    for (at, cmd) in sample {
        capture.commit(*at, cmd.clone());
    }
    let messages = capture.remote.take().expect("capture was on");
    let msgs_per_op = messages.len() as f64 / sample.len() as f64;
    let frames_per_op =
        messages.iter().map(|(_, remotes)| *remotes).sum::<usize>() as f64 / sample.len() as f64;
    drop(capture);

    let layer = trace.open("walk.wire.peer");
    let mut peer_frames: Vec<Vec<u8>> = Vec::with_capacity(messages.len());
    for (ci, chunk) in messages.chunks(CHUNK).enumerate() {
        trace.time(
            layer,
            "wire.encode_peer",
            (ci * CHUNK) as u64,
            chunk.len() as u64,
            || {
                for (i, (msg, _)) in chunk.iter().enumerate() {
                    let payload = bincode::serialize(msg).expect("message encodes");
                    encode_peer_frame_into(
                        &mut buf,
                        1,
                        i as u64 + 1,
                        0,
                        PeerBodyRef::Msg(&payload),
                    )
                    .expect("frame encodes");
                    peer_frames.push(black_box(&buf).clone());
                }
            },
        );
    }
    for (ci, chunk) in peer_frames.chunks(CHUNK).enumerate() {
        trace.time(
            layer,
            "wire.decode_peer",
            (ci * CHUNK) as u64,
            chunk.len() as u64,
            || {
                for bytes in chunk {
                    let frame = decode_peer_frame(&bytes[4..]).expect("frame decodes");
                    let PeerBodyView::Msg(payload) = frame.body else {
                        unreachable!("only Msg frames were encoded");
                    };
                    black_box(bincode::deserialize::<Message>(payload).expect("message decodes"));
                }
            },
        );
    }
    drop(peer_frames);
    drop(messages);
    trace.close(layer);

    // keydeps, graph, store: the protocol's parts, each alone.
    let layer = trace.open("walk.protocol.parts");
    let mut deps = KeyDeps::new(false);
    for (ci, chunk) in flat.chunks(CHUNK).enumerate() {
        trace.time(
            layer,
            "keydeps.conflicts_and_add",
            (ci * CHUNK) as u64,
            chunk.len() as u64,
            || {
                for (i, (_, cmd)) in chunk.iter().enumerate() {
                    black_box(
                        deps.conflicts_and_add(Dot::new(1, (ci * CHUNK + i) as u64 + 1), cmd),
                    );
                }
            },
        );
    }
    drop(deps);
    for (name, chained) in [("graph.commit", false), ("graph.commit_chain", true)] {
        let mut graph = DependencyGraph::new();
        for (ci, chunk) in flat.chunks(CHUNK).enumerate() {
            let owned: Vec<Command> = chunk.iter().map(|(_, c)| c.clone()).collect();
            let executed = trace.time(layer, name, (ci * CHUNK) as u64, chunk.len() as u64, || {
                let mut executed = 0;
                for (i, cmd) in owned.into_iter().enumerate() {
                    let seq = (ci * CHUNK + i) as u64 + 1;
                    let deps = if chained && seq > 1 {
                        vec![Dot::new(1, seq - 1)]
                    } else {
                        Vec::new()
                    };
                    executed += graph.commit(Dot::new(1, seq), cmd, deps).len();
                }
                executed
            });
            assert_eq!(executed, chunk.len(), "every commit is executable at once");
        }
    }
    let mut store = KVStore::new();
    for stream_index in 0..spec.client_replicas.len() {
        let base = workload::private_base(stream_index);
        for key in base..base + workload::PRIVATE_KEYS {
            store.restore_record(key, key);
        }
    }
    for (ci, chunk) in flat.chunks(CHUNK).enumerate() {
        trace.time(
            layer,
            "kvstore.execute",
            (ci * CHUNK) as u64,
            chunk.len() as u64,
            || {
                for (_, cmd) in chunk {
                    black_box(store.execute(cmd));
                }
            },
        );
    }
    trace.close(layer);

    // wire, reply side.
    let layer = trace.open("walk.wire.reply");
    for (ci, chunk) in flat.chunks(CHUNK).enumerate() {
        let replies: Vec<ClientReply> = chunk
            .iter()
            .map(|(_, cmd)| ClientReply::Executed {
                rifl: cmd.rifl,
                outputs: cmd.keys().map(|k| (*k, Output::Value(Some(*k)))).collect(),
            })
            .collect();
        trace.time(
            layer,
            "wire.encode_reply",
            (ci * CHUNK) as u64,
            chunk.len() as u64,
            || {
                for reply in &replies {
                    encode_frame_into(&mut buf, reply).expect("reply encodes");
                    black_box(&buf);
                }
            },
        );
    }
    trace.close(layer);

    // wal, journal: real files next to the replicas' own.
    let layer = trace.open("walk.journal");
    let dir = TempDir::new("atlas-benchmark-walk").expect("scratch directory");
    let records: Vec<Vec<u8>> = flat
        .iter()
        .map(|(_, cmd)| {
            bincode::serialize(&JournalRecord::Submit { cmd: cmd.clone() }).expect("record encodes")
        })
        .collect();
    let (mut wal, _) =
        Wal::open(&dir.path().join("buffered"), FlushPolicy::OsBuffered).expect("wal opens");
    for (ci, chunk) in records.chunks(CHUNK).enumerate() {
        trace.time(
            layer,
            "wal.append",
            (ci * CHUNK) as u64,
            chunk.len() as u64,
            || {
                for record in chunk {
                    black_box(wal.append(record).expect("append"));
                }
            },
        );
    }
    let (mut synced, _) =
        Wal::open(&dir.path().join("synced"), FlushPolicy::Always).expect("wal opens");
    for (i, record) in records.iter().take(FSYNC_CALLS).enumerate() {
        trace.time(layer, "wal.append_fsync", i as u64, 1, || {
            black_box(synced.append(record).expect("append"));
        });
    }
    drop(records);
    // A snapshot as the replica takes it: clone store and execution
    // record, encode, sync the journal, write the file, truncate.
    let mut log = Vec::with_capacity(live.log_entries as usize);
    for i in 0..live.log_entries {
        log.push((
            Dot::new((i % 3) as ProcessId + 1, i / 3 + 1),
            flat[i as usize % flat.len()].1.rifl,
        ));
    }
    let mut full = KVStore::new();
    for i in 0..live.store_keys {
        full.restore_record(
            workload::private_base((i / workload::PRIVATE_KEYS) as usize)
                + i % workload::PRIVATE_KEYS,
            i,
        );
    }
    let snapshots =
        SnapshotStore::open(&dir.path().join("buffered")).expect("snapshot store opens");
    let view = atlas_core::ClusterView::initial(Config::new(3, 1));
    for i in 0..SNAPSHOT_CALLS {
        trace.time(layer, "journal.snapshot", i as u64, 1, || {
            let snapshot = ReplicaSnapshot {
                protocol: protocol_state.clone(),
                store: full.clone(),
                log: log.clone(),
                view: view.clone(),
                addrs: Vec::new(),
            };
            let bytes = bincode::serialize(&snapshot).expect("snapshot encodes");
            wal.sync().expect("sync");
            let index = wal.next_index();
            snapshots.save(index, &bytes).expect("snapshot saves");
            wal.truncate_below(index).expect("truncate");
        });
        wal.append(b"keeps the next snapshot index distinct")
            .expect("append");
    }
    drop(dir);
    trace.close(layer);

    // reactor: hand-offs, loopback sockets and timers of the vendored
    // runtime, the parts every request crosses between the layers above.
    let layer = trace.open("walk.reactor");
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    trace.time(
        layer,
        "reactor.task_wake",
        0,
        2 * REACTOR_ROUNDS as u64,
        || {
            rt.block_on(async {
                let (ping_tx, mut ping_rx) = tokio::sync::mpsc::unbounded_channel::<u32>();
                let (pong_tx, mut pong_rx) = tokio::sync::mpsc::unbounded_channel::<u32>();
                let echo = tokio::spawn(async move {
                    while let Some(v) = ping_rx.recv().await {
                        if pong_tx.send(v).is_err() {
                            break;
                        }
                    }
                });
                let driver = tokio::spawn(async move {
                    for i in 0..REACTOR_ROUNDS as u32 {
                        ping_tx.send(i).expect("echo task is alive");
                        pong_rx.recv().await.expect("echo task answers");
                    }
                });
                driver.await.expect("driver task");
                echo.await.expect("echo task");
            });
        },
    );
    trace.time(
        layer,
        "reactor.tcp_echo_rtt",
        0,
        REACTOR_ROUNDS as u64,
        || {
            rt.block_on(async {
                let listener = tokio::net::TcpListener::bind("127.0.0.1:0")
                    .await
                    .expect("bind");
                let addr = listener.local_addr().expect("local address");
                let echo = tokio::spawn(async move {
                    let (mut stream, _) = listener.accept().await.expect("accept");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut buf = [0u8; 64];
                    while stream.read_exact(&mut buf).await.is_ok() {
                        if stream.write_all(&buf).await.is_err() {
                            break;
                        }
                    }
                });
                let driver = tokio::spawn(async move {
                    let mut stream = tokio::net::TcpStream::connect(addr).await.expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut buf = [7u8; 64];
                    for _ in 0..REACTOR_ROUNDS {
                        stream.write_all(&buf).await.expect("write");
                        stream.read_exact(&mut buf).await.expect("read");
                    }
                });
                driver.await.expect("driver task");
                echo.await.expect("echo task");
            });
        },
    );
    let mut overshoot = Duration::ZERO;
    trace.time(layer, "reactor.timer", 0, TIMER_ROUNDS as u64, || {
        rt.block_on(async {
            for _ in 0..TIMER_ROUNDS {
                let t0 = Instant::now();
                tokio::time::sleep(Duration::from_millis(1)).await;
                overshoot += t0.elapsed().saturating_sub(Duration::from_millis(1));
            }
        });
    });
    trace.close(layer);

    let ns = |name: &str| trace.ns_per_call(name);
    let metrics = vec![
        m("wire.encode_client_ns", ns("wire.encode_client"), "ns"),
        m("wire.decode_client_ns", ns("wire.decode_client"), "ns"),
        m("wire.encode_peer_ns", ns("wire.encode_peer"), "ns"),
        m("wire.decode_peer_ns", ns("wire.decode_peer"), "ns"),
        m("wire.encode_reply_ns", ns("wire.encode_reply"), "ns"),
        m("wal.append_ns", ns("wal.append"), "ns"),
        m("wal.append_fsync_us", ns("wal.append_fsync") / 1e3, "us"),
        m("journal.snapshot_ms", ns("journal.snapshot") / 1e6, "ms"),
        m(
            "protocol.commit_cycle_ns",
            ns("protocol.commit_cycle"),
            "ns",
        ),
        m(
            "keydeps.conflicts_and_add_ns",
            ns("keydeps.conflicts_and_add"),
            "ns",
        ),
        m("graph.commit_ns", ns("graph.commit"), "ns"),
        m("graph.commit_chain_ns", ns("graph.commit_chain"), "ns"),
        m("kvstore.execute_ns", ns("kvstore.execute"), "ns"),
        m("reactor.task_wake_us", ns("reactor.task_wake") / 1e3, "us"),
        m(
            "reactor.tcp_echo_rtt_us",
            ns("reactor.tcp_echo_rtt") / 1e3,
            "us",
        ),
        m(
            "reactor.timer_overshoot_us",
            overshoot.as_secs_f64() * 1e6 / TIMER_ROUNDS as f64,
            "us",
        ),
    ];

    // The budget: what one command needs of each layer on three replicas.
    let cpu_ns = ns("wire.encode_client")
        + ns("wire.decode_client")
        + live.records_per_op * ns("wal.append")
        + msgs_per_op * ns("wire.encode_peer")
        + frames_per_op * ns("wire.decode_peer")
        + ns("protocol.commit_cycle")
        + 3.0 * ns("kvstore.execute")
        + ns("wire.encode_reply")
        + live.snapshots_per_op * ns("journal.snapshot");
    Walked {
        metrics,
        cpu_us_per_op: cpu_ns / 1e3,
    }
}
