//! Streamed catch-up fault-injection tests over real TCP:
//!
//! * a wiped replica rejoins from peers whose history is forced through
//!   **many small chunks** (the chunk budget is pinned to its 1 KiB floor,
//!   so the serialized state is orders of magnitude larger than any one
//!   frame — the same shape as a real history outgrowing
//!   `MAX_FRAME_BYTES`) and converges to the survivors' digests;
//! * a raw catch-up exchange against a loaded replica is inspected at the
//!   wire level: multiple chunks, contiguous sequence numbers, every frame
//!   within budget, exactly one `last`; a client that hangs up mid-stream
//!   leaves the serving replica fully functional;
//! * a rejoiner whose first catch-up stream dies mid-base (a fake peer
//!   drops the connection before the base completes) or opens without
//!   `Start` retries cleanly and converges — the executed-state base
//!   installs atomically or not at all, and never goes missing.

use atlas_core::{
    Action, ClientId, ClusterView, Command, Config, Dot, Key, ProcessId, Protocol, Rifl, Topology,
};
use atlas_protocol::Atlas;
use atlas_runtime::replica::{self, Boot, ReplicaConfig};
use atlas_runtime::wire::{
    read_frame, write_frame, write_raw_frame, CatchUpChunk, CatchUpPayload, Hello, MAX_FRAME_BYTES,
};
use atlas_runtime::{Client, Cluster, ClusterOptions};
use kvstore::KVStore;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const SHARED_KEYS: Key = 4;

fn write_key(client_id: ClientId, i: u64) -> Key {
    if i % 3 == 2 {
        1_000 + client_id
    } else {
        (client_id + i) % SHARED_KEYS
    }
}

async fn run_writes(
    addr: SocketAddr,
    client_id: ClientId,
    seq_base: u64,
    ops: u64,
) -> std::io::Result<()> {
    let mut client = Client::connect_with_seq(addr, client_id, seq_base + 1).await?;
    for i in seq_base..seq_base + ops {
        let key = write_key(client_id, i);
        client.put(key, client_id * 1_000_000 + i).await?;
    }
    Ok(())
}

async fn converge(
    cluster: &Cluster,
    expected: usize,
    deadline: Duration,
) -> Vec<(Vec<(Dot, Rifl)>, u64)> {
    let deadline = Instant::now() + deadline;
    loop {
        let mut logs = Vec::new();
        for id in 1..=REPLICAS as ProcessId {
            if let Ok(mut probe) = Client::connect(cluster.addr(id), 900 + id as u64).await {
                if let Ok(log) = probe.execution_log().await {
                    logs.push(log);
                }
            }
        }
        if logs.len() == REPLICAS
            && logs.iter().all(|(entries, _)| entries.len() >= expected)
            && logs.iter().all(|(_, digest)| *digest == logs[0].1)
        {
            return logs;
        }
        assert!(
            Instant::now() < deadline,
            "no convergence: {:?} commands executed (want {expected}), digests {:?}",
            logs.iter().map(|(e, _)| e.len()).collect::<Vec<_>>(),
            logs.iter().map(|(_, d)| d).collect::<Vec<_>>(),
        );
        tokio::time::sleep(Duration::from_millis(100)).await;
    }
}

/// Performs one raw catch-up exchange against `addr`, returning the chunks.
async fn raw_catch_up(addr: SocketAddr, from: ProcessId) -> std::io::Result<Vec<CatchUpChunk>> {
    let stream = tokio::net::TcpStream::connect(addr).await?;
    stream.set_nodelay(true)?;
    let (mut reader, mut writer) = stream.into_split();
    write_frame(&mut writer, &Hello::CatchUp { from }).await?;
    let mut chunks = Vec::new();
    loop {
        let chunk: CatchUpChunk = read_frame(&mut reader).await?;
        let last = chunk.last;
        chunks.push(chunk);
        if last {
            return Ok(chunks);
        }
    }
}

/// ~1k commands with the chunk budget pinned to its 1 KiB floor: the
/// serialized catch-up state is far larger than any single chunk, so a
/// wiped rejoiner must be rebuilt through a genuinely multi-chunk stream —
/// and still converge with full per-key order agreement. Also inspects a
/// raw exchange mid-run (bounded frames, contiguous sequence numbers,
/// mid-stream client hangup is harmless to the server).
#[test]
fn wiped_replica_catches_up_over_many_small_chunks() {
    const PHASE_A: u64 = 250;
    const PHASE_B: u64 = 250;
    const PHASE_C: u64 = 10;
    let options = ClusterOptions {
        catch_up_chunk_bytes: 1, // clamped up to the 1 KiB floor
        ..ClusterOptions::default()
    };
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let mut cluster = Cluster::spawn_with::<Atlas>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        let drive = |cluster: &Cluster, seq_base: u64, ops: u64| {
            let addr1 = cluster.addr(1);
            let addr2 = cluster.addr(2);
            async move {
                let c1 = tokio::spawn(run_writes(addr1, 1, seq_base, ops));
                let c2 = tokio::spawn(run_writes(addr2, 2, seq_base, ops));
                c1.await.expect("client 1 task").expect("client 1 run");
                c2.await.expect("client 2 task").expect("client 2 run");
            }
        };

        drive(&cluster, 0, PHASE_A).await;
        cluster.kill(3);
        drive(&cluster, PHASE_A, PHASE_B).await;

        // Wire-level inspection of the stream a rejoiner would receive.
        let chunks = raw_catch_up(cluster.addr(1), 3).await.expect("raw stream");
        assert!(
            chunks.len() > 10,
            "a ~1k-command history through 1 KiB chunks must span many \
             frames, got {}",
            chunks.len()
        );
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.seq as usize, i, "contiguous sequence numbers");
            assert_eq!(chunk.last, i + 1 == chunks.len(), "exactly one last");
            let frame = bincode::serialize(chunk).unwrap();
            assert!(
                frame.len() < MAX_FRAME_BYTES,
                "chunk {i} is {} bytes",
                frame.len()
            );
        }
        let total: usize = chunks
            .iter()
            .map(|c| bincode::serialize(c).unwrap().len())
            .sum();
        assert!(
            total > 8 * 1024,
            "the whole stream ({total} bytes) must dwarf the chunk budget \
             — otherwise this test is not exercising chunking"
        );

        // A client that hangs up mid-stream must leave the server serving.
        {
            let stream = tokio::net::TcpStream::connect(cluster.addr(1))
                .await
                .unwrap();
            let (mut reader, mut writer) = stream.into_split();
            write_frame(&mut writer, &Hello::CatchUp { from: 3 })
                .await
                .unwrap();
            let _first: CatchUpChunk = read_frame(&mut reader).await.unwrap();
            let _second: CatchUpChunk = read_frame(&mut reader).await.unwrap();
            // reader/writer drop here: mid-stream hangup
        }

        cluster
            .restart_wiped::<Atlas>(3)
            .await
            .expect("wiped restart");
        drive(&cluster, PHASE_A + PHASE_B, PHASE_C).await;

        let total_ops = PHASE_A + PHASE_B + PHASE_C;
        let expected = (2 * total_ops) as usize;
        let logs = converge(&cluster, expected, Duration::from_secs(60)).await;
        for (entries, _) in &logs {
            let set: HashSet<(Dot, Rifl)> = entries.iter().copied().collect();
            assert_eq!(set.len(), entries.len(), "duplicate execution");
            assert_eq!(entries.len(), expected, "wrong command count");
        }
        // Per-key order identical everywhere (conflicting writes).
        let mut key_of: HashMap<Rifl, Key> = HashMap::new();
        for client_id in [1u64, 2] {
            for i in 0..total_ops {
                key_of.insert(Rifl::new(client_id, i + 1), write_key(client_id, i));
            }
        }
        let keys: HashSet<Key> = key_of.values().copied().collect();
        for key in keys {
            let projection = |entries: &[(Dot, Rifl)]| -> Vec<Rifl> {
                entries
                    .iter()
                    .filter(|(_, rifl)| key_of.get(rifl) == Some(&key))
                    .map(|(_, rifl)| *rifl)
                    .collect()
            };
            let reference = projection(&logs[0].0);
            for (replica, (entries, _)) in logs.iter().enumerate().skip(1) {
                assert_eq!(
                    projection(entries),
                    reference,
                    "replica {} ordered writes of key {key} differently",
                    replica + 1
                );
            }
        }
        cluster.shutdown();
    });
}

/// Drives a tiny in-memory 3-replica Atlas history (lock-step delivery)
/// and returns replica 1's protocol state plus its executed history (the
/// commands in execution order), mirroring what a real serving replica
/// would hold.
fn build_server_history(commands: u64) -> (Atlas, Vec<(Dot, Command)>) {
    let config = Config::new(3, 1);
    let mut replicas: Vec<Atlas> = (1..=3u32)
        .map(|id| Atlas::new(id, config, Topology::identity(id, 3)))
        .collect();
    let mut executed = Vec::new();
    fn sort(
        source: ProcessId,
        actions: Vec<Action<atlas_protocol::Message>>,
        queue: &mut Vec<(ProcessId, ProcessId, atlas_protocol::Message)>,
        executed: &mut Vec<(Dot, Command)>,
    ) {
        for action in actions {
            match action {
                Action::Send { targets, msg } => {
                    let mut targets = targets;
                    targets.sort_by_key(|t| if *t == source { 0 } else { 1 });
                    for to in targets {
                        queue.push((source, to, msg.clone()));
                    }
                }
                Action::Execute { dot, cmd } => {
                    if source == 1 {
                        executed.push((dot, cmd));
                    }
                }
                Action::Commit { .. } => {}
            }
        }
    }
    for seq in 1..=commands {
        let coordinator = (seq % 3 + 1) as ProcessId;
        let cmd = Command::put(Rifl::new(coordinator as u64, seq), seq % 5, seq, 64);
        let mut queue: Vec<(ProcessId, ProcessId, atlas_protocol::Message)> = Vec::new();
        let actions = replicas[(coordinator - 1) as usize].submit(cmd, 0);
        sort(coordinator, actions, &mut queue, &mut executed);
        while !queue.is_empty() {
            let (from, to, msg) = queue.remove(0);
            let actions = replicas[(to - 1) as usize].handle(from, msg, 0);
            sort(to, actions, &mut queue, &mut executed);
        }
    }
    (replicas.swap_remove(0), executed)
}

/// Encodes one chunk frame.
fn chunk_frame(seq: u32, last: bool, payload: CatchUpPayload) -> Vec<u8> {
    bincode::serialize(&CatchUpChunk { seq, last, payload }).unwrap()
}

/// How the fake peer's first catch-up stream goes wrong.
#[derive(Clone, Copy, Debug)]
enum FirstStream {
    /// `Start` + half the store records, then the connection drops.
    DiesMidBase,
    /// The whole base and message tail, but chunk 0 is `Store`, not
    /// `Start`: applied, the messages would replay with no base under them.
    OpensWithoutStart,
}

/// A rejoiner whose **first** catch-up stream is cut short or malformed
/// must retry cleanly: the next stream (here: the other peer, served by the
/// same fake listener — and a later full retry of the first) serves
/// everything. Every stream serves a committed log without its oldest
/// commands, as a peer that garbage-collected would, so only the base can
/// rebuild the state. The rejoiner must end up with exactly the server's
/// state — nothing double-applied, nothing lost — proving the base installs
/// atomically or not at all, that a stream without `Start` is refused, and
/// that repeated full streams are absorbed idempotently.
#[test]
fn mid_stream_disconnect_leaves_rejoiner_able_to_retry() {
    for first in [FirstStream::DiesMidBase, FirstStream::OpensWithoutStart] {
        rejoin_after(first);
    }
}

fn rejoin_after(first: FirstStream) {
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let (server, executed) = build_server_history(40);
        // The state a real server would transfer.
        let marker = server.save_executed();
        let mut store = KVStore::new();
        for (_, cmd) in &executed {
            store.execute(cmd);
        }
        let records: Vec<(Key, u64)> = store.records().collect();
        let log: Vec<(Dot, Rifl)> = executed.iter().map(|(d, c)| (*d, c.rifl)).collect();
        let horizon = server.seen_horizon(2);
        let expected_digest = store.digest();
        let expected_entries = log.len();

        // Fake "replica 1": the first catch-up connection goes wrong as
        // `first` says, later ones serve the full stream. Peer hellos are
        // drained silently.
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let fake_addr = listener.local_addr().unwrap();
        let half = records.len() / 2;
        // The served log lacks the three oldest commands (keys 1–3's first
        // writes), as if garbage-collected: messages alone rebuild keys 0
        // and 4 but leave keys 1–3 blocked, so only the base completes them.
        let collected: HashSet<Dot> = executed[..3].iter().map(|(dot, _)| *dot).collect();
        let msgs: Vec<Vec<u8>> = server
            .committed_log()
            .iter()
            .filter(|m| !collected.contains(&m.dot()))
            .map(|m| bincode::serialize(m).unwrap())
            .collect();
        let full = [
            CatchUpPayload::Start {
                horizon,
                executed: marker,
                store_executed: store.executed(),
                view: ClusterView::initial(Config::new(3, 1)),
                addrs: Vec::new(),
            },
            CatchUpPayload::Store(records[..half].to_vec()),
            CatchUpPayload::Store(records[half..].to_vec()),
            CatchUpPayload::Log(log.clone()),
            CatchUpPayload::Msgs(msgs),
        ];
        tokio::spawn(async move {
            let mut catch_ups = 0u32;
            loop {
                let Ok((stream, _)) = listener.accept().await else {
                    return;
                };
                let (mut reader, mut writer) = stream.into_split();
                match read_frame::<_, Hello>(&mut reader).await {
                    Ok(Hello::CatchUp { .. }) => {
                        catch_ups += 1;
                        let served = match (catch_ups, first) {
                            // The store half-sent, then no Log/Msgs/last.
                            (1, FirstStream::DiesMidBase) => &full[..2],
                            (1, FirstStream::OpensWithoutStart) => &full[1..],
                            _ => &full[..],
                        };
                        for (seq, payload) in served.iter().enumerate() {
                            let last = matches!(payload, CatchUpPayload::Msgs(_));
                            let frame = chunk_frame(seq as u32, last, payload.clone());
                            if write_raw_frame(&mut writer, &frame).await.is_err() {
                                break;
                            }
                        }
                    }
                    // The rejoiner's peer link dials us too; drain and drop.
                    Ok(Hello::Peer { .. }) => {
                        let mut sink = vec![0u8; 4096];
                        while tokio::io::AsyncReadExt::read(&mut reader, &mut sink)
                            .await
                            .map(|n| n > 0)
                            .unwrap_or(false)
                        {}
                    }
                    _ => {}
                }
            }
        });

        // The real rejoiner: replica 2 of a 3-replica cluster; both peers
        // resolve to the fake listener (peer 1's stream dies mid-base, the
        // "other peer" then serves the full stream). Catch-up enabled,
        // detector off.
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let own_addr = listener.local_addr().unwrap();
        let addrs: HashMap<ProcessId, SocketAddr> = [(1, fake_addr), (2, own_addr), (3, fake_addr)]
            .into_iter()
            .collect();
        let mut cfg = ReplicaConfig::new(2, Config::new(3, 1), addrs);
        cfg.boot = Boot::CatchUp;
        cfg.options.suspect_after = None;
        let handle = replica::spawn_on_listener::<Atlas>(cfg, listener).expect("rejoiner spawns");

        // The first stream fails mid-base; the retry round (250 ms later)
        // must complete. Poll the rejoiner until it serves the full state.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut probe) = Client::connect(own_addr, 900).await {
                if let Ok((entries, digest)) = probe.execution_log().await {
                    if entries.len() == expected_entries && digest == expected_digest {
                        // Exactly the server's record — the half-applied
                        // first stream neither lost nor duplicated state.
                        assert_eq!(entries, log);
                        break;
                    }
                    assert!(
                        entries.len() <= expected_entries,
                        "rejoiner over-applied: {} entries (want {expected_entries})",
                        entries.len()
                    );
                }
            }
            assert!(
                Instant::now() < deadline,
                "{first:?}: rejoiner never converged"
            );
            tokio::time::sleep(Duration::from_millis(100)).await;
        }
        handle.shutdown();
    });
}
