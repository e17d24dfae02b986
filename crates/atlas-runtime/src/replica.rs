//! The networked replica: an event loop that owns a [`Protocol`] state
//! machine plus the local store (behind the sharded
//! [`ExecutorPool`]), and maps the
//! protocol's [`Action`] output language onto sockets, timers, client
//! sessions and the durable journal.
//!
//! One replica runs these tasks (a pool worker that wakes a task usually
//! runs it itself, so a command's chain is one thread, not a hop per task):
//!
//! * the **event loop** (this module's heart) — single owner of all mutable
//!   protocol state; consumes events from one mpsc queue, a
//!   *turn* of ready events at a time (`turn.rs`);
//! * an **acceptor** on the replica's listen address; each inbound connection
//!   identifies itself with a [`Hello`] frame and becomes a peer reader, a
//!   client session, or a one-shot catch-up exchange;
//! * one **peer reader** per inbound peer connection, bulk-reading
//!   [`PeerFrame`](crate::wire::PeerFrame)s ([`FrameReader`]) into peer events;
//! * one **client session** per connected client: a reader turning each
//!   `Submit` request into one submit event and a writer sending each burst
//!   of that session's replies in one write;
//! * one **writer task per outbound peer link** (see [`crate::transport`]);
//! * a **ticker** emitting tick events at a fixed cadence, which the event
//!   loop uses to flush pending delivery acks, heartbeat the links, advance
//!   the failure detector and pace GC (protocols themselves take no ticks:
//!   an un-journaled periodic input would break replay determinism).
//!
//! ## Durability and crash recovery
//!
//! With [`ReplicaConfig::data_dir`] set, every protocol input is staged for
//! the journal **before** it reaches the protocol (see [`crate::journal`])
//! and what the protocol makes of it is held until the turn's records are
//! written: `turn.rs` states that rule and alone enforces it. A
//! client request costs one disk wait, before its first command is
//! proposed. Every [`ReplicaConfig::snapshot_every`]
//! records the loop takes a **cut** of its full state between two turns;
//! the journal's writer thread serialises and syncs it, and the loop
//! truncates the journal when the writer reports. On startup the replica
//! restores the latest snapshot, replays the journal suffix — re-emitting
//! the outbound messages the inputs produce, which peers deduplicate by
//! protocol-level idempotence — and only then starts consuming live events.
//! With [`ReplicaConfig::catch_up`] also set (a replica whose disk was
//! lost), it first streams committed state from every reachable peer over a
//! [`Hello::CatchUp`] exchange — a sequence of bounded-size
//! [`CatchUpChunk`]s, applied incrementally: the first peer's
//! **executed-state base** (store records, execution-record slices and the
//! protocol's [`save_executed`](Protocol::save_executed) marker, installed
//! atomically so a mid-stream disconnect can always be retried cleanly)
//! followed by each peer's retained committed log replayed through the
//! normal message path (base-covered entries replay as idempotent
//! no-ops). It then advances its identifier
//! generator past the peers' observed
//! [`seen_horizon`](Protocol::seen_horizon) so identifiers of the lost
//! incarnation are never reissued. Commands that were still in flight (not
//! committed anywhere) when the disk was lost are not recovered — that is
//! the window the paper's recovery protocol ([`Protocol::suspect`]) exists
//! for.
//!
//! ## Log compaction (garbage collection)
//!
//! With [`ReplicaConfig::gc_every`] set, every `gc_every`-th tick the
//! replica broadcasts its [`executed
//! watermarks`](Protocol::executed_watermarks) to all peers (piggybacked on
//! the existing links as unsequenced control frames) and, once every peer
//! has reported, hands the **pointwise minimum** — identifiers executed at
//! *every* replica — to [`Protocol::gc_executed`]. Each advancing GC round
//! is journaled (as [`JournalRecord::Gc`], a protocol input like any
//! other) and marks a snapshot wanted, which truncates the WAL below the
//! new snapshot and prunes older snapshot files — so the protocol's
//! per-command maps, the journal *and* the on-disk history all stay
//! bounded while the cluster runs. See `ARCHITECTURE.md` for the safety
//! argument (why collecting below the all-executed horizon can never
//! strand a recovering replica).
//!
//! ## Failure detection
//!
//! With [`ReplicaConfig::suspect_after`] set (the default), the event loop
//! runs a [`FailureDetector`](crate::detector): every
//! inbound frame (peer message, delivery ack, heartbeat, catch-up request)
//! counts as evidence that its sender is alive, every tick heartbeats all
//! outbound links and checks for peers that exceeded `suspect_after` of
//! silence. A suspicion is journaled (as [`JournalRecord::Suspect`] — it is
//! a protocol input like any other and can mint recovery ballots) and then
//! dispatched to [`Protocol::suspect`], whose actions flow through the
//! normal [`Action`] pipeline; the protocol takes over the suspected
//! replica's in-flight commands (Atlas/EPaxos ballot takeovers, Mencius
//! slot revocation, FPaxos leader election) and resolves the unseen ones
//! as `noOp`s/skips so conflicting commands stop stalling. Trust is
//! restored with hysteresis
//! ([`ReplicaConfig::trust_after`]) once the peer is heard again — a
//! crashed replica that restarts (journal recovery) or rejoins wiped
//! (`catch_up`) announces itself through its own heartbeats and catch-up
//! requests, so it is never permanently suspected.

use crate::detector::{DetectorEvent, FailureDetector};
use crate::executor::{ExecCtx, ExecutorPool};
use crate::journal::{corrupt, Host, Journal, JournalRecord, ReplicaSnapshot};
use crate::metrics::ReplicaMetrics;
use crate::netem::NetProfile;
use crate::transport::{PeerLink, DEFAULT_RESEND_BUFFER_CAP};
use crate::turn::{Outbox, TURN_EVENTS};
use crate::wire::{
    append_frame, decode_payload, decode_peer_frame, frame_payload_into, read_frame, write_frame,
    CatchUpChunk, CatchUpPayload, ClientReply, ClientRequest, EpochUpdate, FrameReader, Hello,
    PeerBodyView, MAX_FRAME_BYTES,
};
use atlas_core::{
    Action, ClientId, ClusterView, Command, Config, Dot, IdMap, Key, ProcessId, Protocol,
    ReconfigOp, Rifl, Topology, Value,
};
use atlas_log::FlushPolicy;
use atlas_metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::io::AsyncWriteExt;
use tokio::net::tcp::{OwnedReadHalf, OwnedWriteHalf};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc::{self, UnboundedReceiver, UnboundedSender};

/// Re-announce the configuration epoch to peers whose frames still carry an
/// older one every this many ticks — the repair path for a replica (or
/// joiner) that missed the `Reconfigure` barrier's commit traffic.
const EPOCH_ANNOUNCE_EVERY: u64 = 40;

/// Ticks a joint window must dwell — with every target member connected,
/// caught up (empty resend buffers) and trusted — before the designated
/// member auto-submits the `Finalize` barrier. The dwell is the
/// bootstrap-before-voting rule's safety margin: a joiner that only just
/// connected gets a few heartbeat rounds to drain before the old
/// configuration is dissolved.
const AUTO_FINALIZE_DWELL_TICKS: u64 = 10;

/// Re-submit a lost auto-`Finalize` after this many ticks still joint.
const AUTO_FINALIZE_RETRY_TICKS: u64 = 400;

/// Client-id space for internally minted reconfiguration commands (the
/// auto-`Finalize`), disjoint per replica so concurrent submitters never
/// collide on a rifl.
const RECONFIG_CLIENT_BASE: u64 = 0xEC0_0000;

/// How many rounds of peer polling a catch-up attempt makes before giving
/// up on peers that never answered (all unreachable = a fresh cluster
/// boot).
const CATCH_UP_ROUNDS: u32 = 3;

/// Bound on the catch-up connect and on each chunk of the reply stream (a
/// per-chunk bound, so a long stream that keeps flowing never times out
/// while a stalled one fails fast).
const CATCH_UP_FETCH_TIMEOUT: Duration = Duration::from_secs(2);

/// Where a session writer stops draining replies into one write.
const REPLY_BURST_BYTES: usize = 64 << 10;

/// Default budget for one catch-up chunk's payload. Deliberately far below
/// [`MAX_FRAME_BYTES`]: the point of chunking is that no frame ever
/// approaches the cap, however long the served history is.
pub const DEFAULT_CATCH_UP_CHUNK_BYTES: usize = 4 << 20;

/// Static configuration of one networked replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This replica's identifier (`1..=n`).
    pub id: ProcessId,
    /// Protocol configuration (`n`, `f`, optimization switches).
    pub config: Config,
    /// Listen/dial addresses of **all** replicas, own id included.
    pub addrs: HashMap<ProcessId, SocketAddr>,
    /// Cadence of the replica tick (acks, heartbeats, detector, GC).
    pub tick_interval: Duration,
    /// Where to keep the durable journal and snapshots. `None` runs the
    /// replica ephemeral (crash = state loss), the pre-durability behaviour.
    pub data_dir: Option<PathBuf>,
    /// fsync batching for the journal (ignored without a data dir).
    pub flush_policy: FlushPolicy,
    /// Snapshot (and truncate the journal) every this many journaled
    /// records; 0 disables snapshotting and keeps the full journal.
    pub snapshot_every: u64,
    /// On startup, fetch committed state from peers before serving — for a
    /// replica rejoining under its old identifier with a lost data dir.
    pub catch_up: bool,
    /// Boot as a **joiner**: this replica is not (yet) a member of the
    /// configuration in `addrs` — it bootstraps from the listed members
    /// (set `catch_up` too), stays a non-voting learner until a
    /// `Reconfigure::Enter` naming it executes, and starts voting only
    /// once it has replayed that barrier. With `join`, `addrs` holds the
    /// *current members plus this replica*, and `config` describes the
    /// current (pre-join) configuration.
    pub join: bool,
    /// Suspect a peer after this much silence and hand it to
    /// [`Protocol::suspect`]. `None` disables failure detection (the
    /// pre-detector behaviour: a dead coordinator's in-flight commands
    /// stall everything that conflicts with them forever). Must comfortably
    /// exceed `tick_interval` — the silence clock only advances between
    /// heartbeats — and should leave headroom for scheduling noise: a
    /// false suspicion is *safe* (recovery is consensus-protected) but can
    /// replace a live coordinator's not-yet-propagated commands with
    /// `noOp`s, which drops those commands.
    pub suspect_after: Option<Duration>,
    /// Hysteresis: a suspected peer must stay audible this long before it
    /// is trusted again, so a flapping link does not oscillate between
    /// suspicion (each one a recovery broadcast) and trust. Must strictly
    /// exceed `tick_interval`: "audible" means heard within the last
    /// `trust_after`, and heartbeats only arrive once per tick.
    pub trust_after: Duration,
    /// Run an executed-entry garbage-collection round every this many
    /// ticks: broadcast this replica's executed watermarks to the peers
    /// and, once every peer has reported, hand the pointwise minimum to
    /// [`Protocol::gc_executed`] (journaled, and a snapshot follows that
    /// trims the WAL and prunes older snapshots). 0 disables GC — the
    /// protocol's per-command maps then grow with the full history, the
    /// pre-compaction behaviour. GC only ever collects entries executed at
    /// **every** replica, so while any current member is down (or has
    /// never reported) the horizon stops advancing past that member's last
    /// report. The fold is keyed on the current configuration: replacing a
    /// dead member (`Reconfigure` barrier, see [`ReconfigOp`]) drops its
    /// stale report and the horizon resumes once the replacement reports.
    pub gc_every: u64,
    /// Budget for one catch-up chunk's payload, in bytes (clamped to half
    /// of [`MAX_FRAME_BYTES`]); smaller values force more, smaller frames.
    /// The serving replica packs store records, execution-record slices and
    /// committed messages into chunks of at most this size, so catch-up
    /// works no matter how far the served history has outgrown a single
    /// frame.
    pub catch_up_chunk_bytes: usize,
    /// Append one [`MetricsSnapshot`] line to `<data_dir>/metrics.jsonl`
    /// every this many ticks (0 disables the dump; it also needs a data
    /// directory). The live stats plane (`ClientRequest::Stats`,
    /// `atlas-top`) works regardless of this knob.
    pub metrics_every: u64,
    /// Injected network conditions for this replica's **outbound** peer
    /// links (delay/jitter/bandwidth, scheduled cuts, connection resets —
    /// see [`crate::netem`]). `None` runs every link unshaped. Cut
    /// schedules are measured from replica boot.
    pub net: Option<NetProfile>,
    /// Injected storage latency: stall this long inside every write-ahead
    /// fsync (on the event loop, heartbeats included) and every fsync of
    /// the snapshot writer (on its thread), exactly like a real fsync that
    /// takes this long; zero disables. A harness knob for slow-disk drills.
    /// The WAL fsync inside a snapshot cut is metered but not stalled.
    pub fsync_stall: Duration,
    /// Executor shards: partition the keyspace into this many hash shards
    /// and execute protocol-ordered commands on one executor thread per
    /// shard ([`crate::executor`]). Commands touching disjoint shards
    /// execute concurrently; multi-shard commands take a deterministic
    /// cross-shard barrier. `1` (the default) executes inline on the event
    /// loop — the pre-pool behaviour, with zero handoff overhead. Execution
    /// output is shard-count independent, so replicas of one cluster (and
    /// successive incarnations of one replica) may use different values.
    pub shards: usize,
}

impl ReplicaConfig {
    /// Configuration with the default 25 ms tick cadence, no data directory
    /// (ephemeral state), default flush/snapshot knobs and failure
    /// detection on (1.5 s suspicion threshold, 250 ms trust hysteresis).
    pub fn new(id: ProcessId, config: Config, addrs: HashMap<ProcessId, SocketAddr>) -> Self {
        Self {
            id,
            config,
            addrs,
            tick_interval: Duration::from_millis(25),
            data_dir: None,
            flush_policy: FlushPolicy::default(),
            snapshot_every: 4096,
            catch_up: false,
            join: false,
            suspect_after: Some(Duration::from_millis(1_500)),
            trust_after: Duration::from_millis(250),
            gc_every: 0,
            catch_up_chunk_bytes: DEFAULT_CATCH_UP_CHUNK_BYTES,
            metrics_every: 0,
            net: None,
            fsync_stall: Duration::ZERO,
            shards: 1,
        }
    }
}

/// Everything that can happen to a replica, funnelled into one queue so the
/// event loop is the single owner of protocol state (no locks anywhere).
enum Event<M> {
    /// A protocol message arrived from peer `from`.
    Peer {
        /// The sending replica.
        from: ProcessId,
        /// Link sequence number of the frame (0 = unsequenced).
        seq: u64,
        /// The sender's configuration epoch when the frame was queued.
        epoch: u64,
        /// The encoded message, exactly as received (journaled verbatim).
        payload: Vec<u8>,
        /// The decoded protocol message.
        msg: M,
    },
    /// Peer `from` cumulatively acknowledged our frames up to `upto`.
    PeerAck {
        /// The acknowledging replica.
        from: ProcessId,
        /// The sender's configuration epoch.
        epoch: u64,
        /// Highest acknowledged sequence on our link to it.
        upto: u64,
    },
    /// Peer `from` reported its executed watermarks (GC cadence).
    PeerWatermarks {
        /// The reporting replica.
        from: ProcessId,
        /// The sender's configuration epoch.
        epoch: u64,
        /// Its executed watermarks, per identifier space.
        watermarks: Vec<(ProcessId, u64)>,
    },
    /// Peer `from` announced a configuration epoch.
    PeerEpoch {
        /// The announcing replica.
        from: ProcessId,
        /// The announced view and member addresses.
        update: EpochUpdate,
    },
    /// A local client submitted one request.
    Submit {
        /// The request's commands, in submission order.
        cmds: Vec<Command>,
        /// Where to route this client's replies from now on.
        session: UnboundedSender<ClientReply>,
    },
    /// The journal's snapshot writer finished the cut taken at `index`.
    SnapshotWritten {
        /// WAL index the snapshot covers up to.
        index: u64,
        /// Whether it was published (`false`: abandoned, replica stopping).
        result: io::Result<bool>,
    },
    /// A client asked for the execution record.
    Query {
        /// Where to send the reply.
        session: UnboundedSender<ClientReply>,
    },
    /// A client asked for bookkeeping statistics.
    Stats {
        /// Where to send the reply.
        session: UnboundedSender<ClientReply>,
    },
    /// A recovering replica asked for our committed state.
    CatchUp {
        /// The recovering replica.
        from: ProcessId,
        /// Where the encoded [`CatchUpChunk`] frames go, one send per
        /// chunk (the acceptor task writes them back on the requesting
        /// connection in order and closes it when the channel drains).
        reply: UnboundedSender<Vec<u8>>,
    },
    /// Periodic tick.
    Tick,
    /// Stop the event loop.
    Shutdown,
}

/// Handle to a spawned replica.
pub struct ReplicaHandle {
    /// The replica's identifier.
    pub id: ProcessId,
    /// The address the replica listens on.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown: Box<dyn Fn() + Send + Sync>,
}

impl std::fmt::Debug for ReplicaHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaHandle")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .finish()
    }
}

impl ReplicaHandle {
    /// Stops the replica: ends the event loop, aborts reconnect loops and
    /// unblocks the acceptor. Idempotent.
    ///
    /// Nothing is flushed or checkpointed on the way down — shutting down is
    /// deliberately indistinguishable from a crash as far as the durability
    /// layer is concerned, so every test of this path is also a crash test.
    pub fn shutdown(&self) {
        // Also read by the snapshot writer, which publishes nothing once it
        // sees this (`journal.rs`, `Disk::write`, on what a late one does).
        self.stop.store(true, Ordering::Relaxed);
        (self.shutdown)();
        // The acceptor task is blocked in `accept`; a dummy connection
        // unblocks it so it can observe the stop flag and exit.
        let _ = std::net::TcpStream::connect(self.addr);
    }
}

/// Binds `cfg`'s own address and spawns the replica on it.
pub async fn spawn<P>(cfg: ReplicaConfig) -> io::Result<ReplicaHandle>
where
    P: Protocol + Send + 'static,
    P::Message: Serialize + Deserialize + Send + 'static,
{
    let addr = cfg.addrs[&cfg.id];
    let listener = TcpListener::bind(addr).await?;
    spawn_on_listener::<P>(cfg, listener)
}

/// Spawns the replica on an already-bound listener (lets a harness bind port
/// 0 for every replica first and distribute the real addresses afterwards).
///
/// When a data directory is configured, durable state is recovered — the
/// latest snapshot restored and the journal suffix replayed — *before* this
/// returns; an unreadable or corrupt journal fails loudly here rather than
/// booting an amnesiac replica.
pub fn spawn_on_listener<P>(cfg: ReplicaConfig, listener: TcpListener) -> io::Result<ReplicaHandle>
where
    P: Protocol + Send + 'static,
    P::Message: Serialize + Deserialize + Send + 'static,
{
    let addr = listener.local_addr()?;
    let id = cfg.id;
    let n = cfg.config.n;
    if !cfg.join {
        assert_eq!(
            cfg.addrs.len(),
            n,
            "replica {id}: {} addresses configured for n={n}",
            cfg.addrs.len()
        );
    }

    let stop = Arc::new(AtomicBool::new(false));
    let (event_tx, event_rx) = mpsc::unbounded_channel::<Event<P::Message>>();

    // Outbound links to every other replica (self-sends short-circuit inside
    // the event loop and never touch the network). Boot is the reference
    // instant the injected cut schedules (if any) are measured from, and
    // `epoch_ctr` the shared configuration-epoch counter the link writers
    // stamp on every outgoing frame.
    let boot = Instant::now();
    let epoch_ctr = Arc::new(AtomicU64::new(0));
    let mut links = HashMap::new();
    for (&peer, &peer_addr) in &cfg.addrs {
        if peer != id {
            let shaper = cfg.net.as_ref().and_then(|p| p.shaper(id, peer, boot));
            links.insert(
                peer,
                PeerLink::spawn(
                    id,
                    peer,
                    peer_addr,
                    Arc::clone(&stop),
                    DEFAULT_RESEND_BUFFER_CAP,
                    shaper,
                    Arc::clone(&epoch_ctr),
                ),
            );
        }
    }

    // Recover durable state before accepting any input. Blocking file IO is
    // fine here: the runtime is thread-per-task.
    let report_tx = event_tx.clone();
    let report = Box::new(move |index, result| {
        let _ = report_tx.send(Event::SnapshotWritten { index, result });
    });
    let stop_flag = Arc::clone(&stop);
    let core = Core::<P>::recover(&cfg, links, stop_flag, epoch_ctr, boot, addr, report)?;

    tokio::spawn(acceptor(listener, event_tx.clone(), Arc::clone(&stop)));
    tokio::spawn(ticker(
        cfg.tick_interval,
        event_tx.clone(),
        Arc::clone(&stop),
    ));

    let catch_up_addrs = cfg.catch_up.then(|| cfg.addrs.clone());
    tokio::spawn(event_loop(
        core,
        event_rx,
        catch_up_addrs,
        Arc::clone(&stop),
        addr,
    ));

    let shutdown_tx = event_tx;
    Ok(ReplicaHandle {
        id,
        addr,
        stop,
        shutdown: Box::new(move || {
            let _ = shutdown_tx.send(Event::Shutdown);
        }),
    })
}

/// Accepts inbound connections and classifies them by their hello frame.
async fn acceptor<M>(
    listener: TcpListener,
    event_tx: UnboundedSender<Event<M>>,
    stop: Arc<AtomicBool>,
) where
    M: Deserialize + Send + 'static,
{
    loop {
        let accepted = listener.accept().await;
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            // Persistent accept errors (e.g. fd exhaustion) would otherwise
            // busy-spin this task; back off briefly before retrying.
            tokio::time::sleep(Duration::from_millis(50)).await;
            continue;
        };
        let _ = stream.set_nodelay(true);
        let event_tx = event_tx.clone();
        tokio::spawn(async move {
            let (mut reader, mut writer) = stream.into_split();
            match read_frame::<_, Hello>(&mut reader).await {
                Ok(Hello::Peer { from }) => peer_reader(reader, from, event_tx).await,
                Ok(Hello::Client { client }) => {
                    client_session(reader, writer, client, event_tx).await
                }
                Ok(Hello::CatchUp { from }) => {
                    // Streamed exchange: the event loop produces the full
                    // sequence of bounded-size chunk frames (one channel
                    // send each); write them back in order, then hang up.
                    let (reply_tx, mut reply_rx) = mpsc::unbounded_channel::<Vec<u8>>();
                    let event = Event::CatchUp {
                        from,
                        reply: reply_tx,
                    };
                    if event_tx.send(event).is_err() {
                        return;
                    }
                    // One reusable frame buffer for the whole stream.
                    let mut frame = Vec::new();
                    while let Some(bytes) = reply_rx.recv().await {
                        // Framing only fails on an oversize chunk (an
                        // encode-side bug: the event loop caps chunks well
                        // below the frame limit); hanging up lets the
                        // requester retry rather than feeding it a frame
                        // its reader would reject anyway.
                        if frame_payload_into(&mut frame, &bytes).is_err()
                            || writer.write_all(&frame).await.is_err()
                        {
                            return;
                        }
                    }
                }
                // Dummy shutdown connections and port scanners land here.
                Err(_) => {}
            }
        });
    }
}

/// Pumps frames from one inbound peer connection into the event loop. Ends
/// at EOF / connection error (the peer will redial).
async fn peer_reader<M>(reader: OwnedReadHalf, from: ProcessId, event_tx: UnboundedSender<Event<M>>)
where
    M: Deserialize,
{
    // One buffer for the connection's life, filled by bulk reads; the
    // borrowed decode means the only per-message allocation left here is
    // the owned payload copy the event loop keeps (it can outlive the
    // buffer in the journal and the protocol's committed log).
    let mut frames = FrameReader::new(reader);
    loop {
        let Ok(Some(payload)) = frames.next().await else {
            return; // EOF or broken connection; the peer will redial
        };
        let Ok(frame) = decode_peer_frame(payload) else {
            return; // corrupt stream; drop the connection
        };
        debug_assert_eq!(frame.from, from, "peer hello/frame sender mismatch");
        let event = match frame.body {
            PeerBodyView::Msg(payload) => match bincode::deserialize::<M>(payload) {
                Ok(msg) => Event::Peer {
                    from,
                    seq: frame.seq,
                    epoch: frame.epoch,
                    payload: payload.to_vec(),
                    msg,
                },
                // A partner speaking another protocol version; drop the
                // frame rather than poisoning the event loop.
                Err(_) => continue,
            },
            PeerBodyView::Ack(upto) => Event::PeerAck {
                from,
                epoch: frame.epoch,
                upto,
            },
            PeerBodyView::Watermarks(watermarks) => Event::PeerWatermarks {
                from,
                epoch: frame.epoch,
                watermarks,
            },
            PeerBodyView::Epoch(update) => Event::PeerEpoch { from, update },
        };
        if event_tx.send(event).is_err() {
            return; // event loop gone: replica is shutting down
        }
    }
}

/// One connected client: forwards submissions into the event loop and drains
/// the session's replies back into the socket.
async fn client_session<M>(
    reader: OwnedReadHalf,
    mut writer: OwnedWriteHalf,
    client: ClientId,
    event_tx: UnboundedSender<Event<M>>,
) {
    let (reply_tx, mut reply_rx) = mpsc::unbounded_channel::<ClientReply>();
    // Writer side: one task per session so a slow client only stalls itself.
    tokio::spawn(async move {
        // One reusable buffer, one write per burst: whatever queued behind
        // the reply that woke us goes out with it, in channel order.
        let mut buf = Vec::new();
        while let Some(first) = reply_rx.recv().await {
            buf.clear();
            let mut next = Some(first);
            while let Some(reply) = next {
                if append_frame(&mut buf, &reply).is_err() {
                    return;
                }
                next = (buf.len() < REPLY_BURST_BYTES)
                    .then(|| reply_rx.try_recv().ok())
                    .flatten();
            }
            if writer.write_all(&buf).await.is_err() {
                return;
            }
        }
    });
    let mut frames = FrameReader::new(reader);
    while let Ok(Some(payload)) = frames.next().await {
        let session = reply_tx.clone();
        let event = match decode_payload(payload) {
            Ok(ClientRequest::Submit { cmds }) => {
                debug_assert!(
                    cmds.iter().all(|cmd| cmd.rifl.client == client),
                    "client {client} submitted a command with a foreign rifl"
                );
                // One event: the loop journals and syncs a request as a unit.
                Event::Submit { cmds, session }
            }
            Ok(ClientRequest::ExecutionLog) => Event::Query { session },
            Ok(ClientRequest::Stats) => Event::Stats { session },
            Err(_) => return, // garbage; drop the connection
        };
        if event_tx.send(event).is_err() {
            return;
        }
    }
}

/// Emits `Event::Tick` at a fixed cadence until shutdown.
async fn ticker<M>(period: Duration, event_tx: UnboundedSender<Event<M>>, stop: Arc<AtomicBool>) {
    let mut interval = tokio::time::interval(period);
    loop {
        interval.tick().await;
        if stop.load(Ordering::Relaxed) || event_tx.send(Event::Tick).is_err() {
            return;
        }
    }
}

/// The single-threaded owner of all replica state: the protocol state
/// machine, the store, the execution record, the client reply routes, the
/// journal and the outbound links.
struct Core<P: Protocol> {
    id: ProcessId,
    protocol: P,
    links: HashMap<ProcessId, PeerLink>,
    /// The execute stage: owns the (sharded) store. Every observer of
    /// execution state below goes through it and drains first; the
    /// protocol-order artifacts (`log`, journal, `pending`/`commit_times`)
    /// stay on this thread.
    exec: ExecutorPool,
    log: Vec<(Dot, Rifl)>,
    sessions: HashMap<ClientId, UnboundedSender<ClientReply>>,
    journal: Option<Journal>,
    /// What the current turn produced and still holds ([`crate::turn`]).
    outbox: Outbox<(Command, ExecCtx)>,
    detector: Option<FailureDetector>,
    start: Instant,
    /// GC cadence in ticks (0 = disabled) and chunk budget for catch-up
    /// serving, copied from the config.
    gc_every: u64,
    catch_up_chunk_bytes: usize,
    /// Ticks seen so far (drives the GC cadence).
    ticks: u64,
    /// Latest executed-watermark report from each peer. Runtime state, not
    /// journaled: it only decides *when* GC fires; the GC rounds themselves
    /// are journaled. Reports are replaced, not maxed — a peer that rejoins
    /// wiped legitimately reports lower values, which merely delays GC
    /// (stale-higher values are equally safe; see `ARCHITECTURE.md`).
    peer_watermarks: HashMap<ProcessId, Vec<(ProcessId, u64)>>,
    /// The last horizon handed to [`Protocol::gc_executed`], to skip (and
    /// not journal) rounds where nothing advanced.
    last_gc_horizon: HashMap<ProcessId, u64>,
    /// Runtime metric registry (`Arc` so the export plane could share it;
    /// all hot recording happens on this event loop).
    metrics: Arc<ReplicaMetrics>,
    /// Submission time (µs since start) of each locally submitted command
    /// still in flight — inserted before the protocol sees the command,
    /// removed at execution, so it is bounded by in-flight commands and
    /// empty during journal replay (replay contributes no latency samples).
    pending: HashMap<Rifl, u64>,
    /// Commit-observation time per identifier, recorded at `Action::Commit`
    /// for every command (only at execution do we know whether this replica
    /// owns its lifecycle) and removed at `Action::Execute` — bounded by
    /// the committed-but-unexecuted window. (Keyed by a replica-minted
    /// identifier, unlike `pending`: see `atlas_core::hash`.)
    commit_times: IdMap<Dot, u64>,
    /// JSONL dump cadence in ticks (0 = disabled).
    metrics_every: u64,
    /// Where the JSONL dump appends; `None` after a write error (the dump
    /// self-disables rather than spamming a broken disk).
    metrics_path: Option<PathBuf>,
    /// The runtime's configuration view: which replicas are members, which
    /// are on their way out (joint window), and the current epoch. Advances
    /// from **both** executed `Reconfigure` barriers and peer epoch
    /// announcements; the hosted protocol's own view advances only at
    /// barrier execution (see [`Core::apply_reconfig_barrier`]).
    view: ClusterView,
    /// Current dial addresses of every known process (own id included);
    /// grows from `Enter` barriers and epoch announcements.
    addrs: HashMap<ProcessId, SocketAddr>,
    /// Shared epoch counter stamped on outgoing frames by the link writers.
    epoch_ctr: Arc<AtomicU64>,
    /// Highest configuration epoch observed in frames from each peer —
    /// drives targeted re-announcements to lagging peers.
    peer_epochs: HashMap<ProcessId, u64>,
    /// Tick at which the current joint window was entered (drives the
    /// auto-`Finalize` dwell). `None` outside a joint window.
    joint_since: Option<u64>,
    /// `(epoch, tick)` of the last auto-`Finalize` submission, so the
    /// designated member submits once per joint epoch (with a slow retry)
    /// instead of once per tick.
    finalize_sent: Option<(u64, u64)>,
    /// Shared stop flag (also handed to spawned links) and the own listen
    /// address — needed to retire the replica when a `Finalize` removes it.
    stop: Arc<AtomicBool>,
    self_addr: SocketAddr,
    /// Link-shaping parameters for members added at runtime.
    net: Option<NetProfile>,
    boot: Instant,
    /// Process-wide allocation count at replica construction
    /// ([`atlas_metrics::allocations`]), so snapshots report allocations
    /// *since this replica started* — meaningful even when several
    /// short-lived clusters share one (bench) process. Zero unless the
    /// process installed [`atlas_metrics::CountingAllocator`].
    alloc_baseline: u64,
}

/// Lifecycle stage latency in µs, clamped to ≥ 1 so a stage completing
/// within the clock's resolution still registers as a non-zero sample.
fn stage_us(t0: u64, t1: u64) -> u64 {
    t1.saturating_sub(t0).max(1)
}

impl<P> Core<P>
where
    P: Protocol,
    P::Message: Serialize + Deserialize,
{
    /// Builds the replica state, restoring snapshot + journal when a data
    /// directory is configured. Replay re-performs the actions the inputs
    /// produce — outbound sends included, which doubles as at-least-once
    /// redelivery of anything the previous incarnation may never have put
    /// on the wire.
    fn recover(
        cfg: &ReplicaConfig,
        links: HashMap<ProcessId, PeerLink>,
        stop: Arc<AtomicBool>,
        epoch_ctr: Arc<AtomicU64>,
        boot: Instant,
        self_addr: SocketAddr,
        report: Box<dyn Fn(u64, io::Result<bool>) + Send + Sync>,
    ) -> io::Result<Self> {
        // A joiner is not (yet) a member: the configuration it boots into
        // is everyone in the address book *except* itself, and it stays a
        // non-voting learner until an `Enter` barrier naming it replays.
        let (config, view) = if cfg.join {
            let members: Vec<ProcessId> =
                cfg.addrs.keys().copied().filter(|&p| p != cfg.id).collect();
            let view = ClusterView::at(0, members, cfg.config.f);
            (view.config(cfg.config), view)
        } else {
            (cfg.config, ClusterView::initial(cfg.config))
        };
        let topology = if cfg.join {
            Topology::from_members(cfg.id, &view.all_members())
        } else {
            Topology::identity(cfg.id, cfg.config.n)
        };
        let detector = cfg.suspect_after.map(|suspect_after| {
            FailureDetector::new(
                cfg.id,
                cfg.addrs.keys().copied(),
                suspect_after,
                cfg.trust_after,
                Instant::now(),
            )
        });
        // The metric registry and the clock base are shared with the
        // executor pool, so executor-side lifecycle stamps land in the same
        // cells on the same timeline as the event loop's.
        let start = Instant::now();
        let metrics = Arc::new(ReplicaMetrics::with_shards(cfg.shards));
        let exec = ExecutorPool::new(cfg.shards, Arc::clone(&metrics), start);
        let mut core = Self {
            id: cfg.id,
            protocol: P::new(cfg.id, config, topology.clone()),
            links,
            exec,
            log: Vec::new(),
            sessions: HashMap::new(),
            journal: None,
            outbox: Outbox::new(),
            detector,
            start,
            gc_every: cfg.gc_every,
            catch_up_chunk_bytes: cfg.catch_up_chunk_bytes.clamp(1024, MAX_FRAME_BYTES / 2),
            ticks: 0,
            peer_watermarks: HashMap::new(),
            last_gc_horizon: HashMap::new(),
            metrics,
            pending: HashMap::new(),
            commit_times: IdMap::default(),
            metrics_every: cfg.metrics_every,
            metrics_path: (cfg.metrics_every > 0)
                .then(|| cfg.data_dir.as_ref().map(|dir| dir.join("metrics.jsonl")))
                .flatten(),
            view,
            addrs: cfg.addrs.clone(),
            epoch_ctr,
            peer_epochs: HashMap::new(),
            joint_since: None,
            finalize_sent: None,
            stop,
            self_addr,
            net: cfg.net.clone(),
            boot,
            alloc_baseline: atlas_metrics::allocations(),
        };
        let Some(dir) = &cfg.data_dir else {
            return Ok(core);
        };
        let host = Host {
            metrics: Arc::clone(&core.metrics),
            fsync_stall: cfg.fsync_stall,
            stop: Arc::clone(&core.stop),
            report,
        };
        let (journal, snapshot, records) =
            Journal::open(dir, cfg.flush_policy, cfg.snapshot_every, host)?;
        if let Some(snapshot) = snapshot {
            core.protocol = P::restore_state(cfg.id, config, topology, &snapshot.protocol)
                .ok_or_else(|| {
                    corrupt(format!("replica {}: snapshot failed to restore", cfg.id))
                })?;
            core.exec.install_flat(snapshot.store);
            core.log = snapshot.log;
            // The snapshot's view may name members the boot address book
            // does not (a restart after an expand): install it before
            // replay so links exist and Epoch records replay idempotently.
            if snapshot.view.epoch > core.view.epoch {
                let view = snapshot.view.clone();
                core.install_view(&view, &snapshot.addrs);
            }
        }
        for record in records {
            core.replay(record)?;
        }
        // Replay dispatched executes through the pool like a live run;
        // quiesce before serving so recovery is externally indistinguishable
        // from the single-threaded path.
        core.exec.drain();
        core.journal = Some(journal);
        Ok(core)
    }

    /// Microseconds since replica start (the protocol's notion of time).
    fn now(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// [`Outbox::stage`] into this replica's journal.
    fn stage(&mut self, record: &JournalRecord, minting: bool) {
        self.outbox.stage(self.journal.as_mut(), record, minting);
    }

    /// [`Outbox::release`]: ends a turn, and precedes a barrier or observer.
    fn release(&mut self) -> io::Result<()> {
        self.outbox
            .release(self.journal.as_mut(), &self.links, &mut self.exec)
    }

    /// Re-applies one journaled input during recovery. Replay passes time 0:
    /// wall-clock time only feeds latency metrics, never state transitions.
    fn replay(&mut self, record: JournalRecord) -> io::Result<()> {
        match record {
            JournalRecord::Submit { cmd } => {
                let actions = self.protocol.submit(cmd, 0);
                self.perform(actions, 0)?;
            }
            JournalRecord::Peer { from, payload } => {
                let msg = bincode::deserialize::<P::Message>(&payload)
                    .map_err(|e| corrupt(format!("journaled message no longer decodes: {e}")))?;
                let actions = self.protocol.handle(from, msg, 0);
                self.perform(actions, 0)?;
            }
            JournalRecord::Advance { past } => self.protocol.advance_identifiers(past),
            JournalRecord::Gc { horizon } => {
                // Replayed at its original position in the input order, so
                // the compaction floor — which changes how straggler
                // messages later in the journal are handled — matches the
                // live run exactly.
                let _ = self.protocol.gc_executed(&horizon);
                self.last_gc_horizon = horizon.into_iter().collect();
            }
            JournalRecord::Epoch { view, addrs } => {
                // Journaled only for off-log adoptions (epoch announcements
                // and catch-up preambles); barrier-driven switches are not
                // journaled — re-executing the barrier re-derives them.
                if view.epoch > self.view.epoch {
                    self.install_view(&view, &addrs);
                }
            }
            JournalRecord::Suspect { peer } => {
                // The journal replays inputs in their original order, so the
                // protocol is in exactly the state it was in when the
                // suspicion was dispatched live — the replayed `suspect`
                // reissues the same recovery ballots (and the promises they
                // imply), which is precisely why suspicions are journaled.
                let actions = self.protocol.suspect(peer, 0);
                self.perform(actions, 0)?;
            }
        }
        self.release()
    }

    /// Records inbound evidence that `peer` is alive.
    fn heard(&mut self, peer: ProcessId) {
        if let Some(detector) = &mut self.detector {
            detector.heard(peer, Instant::now());
        }
    }

    /// Restarts the failure detector's silence clocks — called when the
    /// replica starts serving live traffic, so time spent in journal replay
    /// or peer-assisted catch-up does not count as peer silence.
    fn arm_detector(&mut self) {
        if let Some(detector) = &mut self.detector {
            detector.arm(Instant::now());
        }
    }

    /// The failure detector reported `peer` silent past the threshold:
    /// journal the suspicion (it is a protocol input — it can mint recovery
    /// ballots whose promises must survive a crash, so it is staged as
    /// minting: reissuing a recovery ballot for a different proposal after
    /// losing the record would be unsound Paxos), then let the protocol
    /// take over the peer's in-flight commands.
    fn dispatch_suspect(&mut self, peer: ProcessId) -> io::Result<()> {
        eprintln!(
            "replica {}: suspecting replica {peer} (silent past threshold); \
             recovering its in-flight commands",
            self.id
        );
        self.stage(&JournalRecord::Suspect { peer }, true);
        self.metrics.takeovers.inc();
        let now = self.now();
        let actions = self.protocol.suspect(peer, now);
        self.perform(actions, now)
    }

    /// A local client submitted the request `cmds`. This replica owns each
    /// command's lifecycle from here: every stage below timestamps against
    /// the request's arrival `t0`, and the commit/execute/reply stages
    /// complete in [`Self::do_actions`] via the `pending` entries inserted
    /// before the protocol runs.
    fn submit(
        &mut self,
        cmds: Vec<Command>,
        session: UnboundedSender<ClientReply>,
    ) -> io::Result<()> {
        let t0 = self.now();
        self.metrics.submitted.add(cmds.len() as u64);
        // The early flush: the request's records are written and synced as
        // a unit before the protocol sees the first command, so
        // `journaled` precedes `proposed` for every one of them.
        for cmd in &cmds {
            self.stage(&JournalRecord::Submit { cmd: cmd.clone() }, true);
        }
        self.outbox.flush(self.journal.as_mut())?;
        if self.journal.is_some() {
            let journaled = stage_us(t0, self.now());
            for _ in &cmds {
                self.metrics.journaled.inc();
                self.metrics.submit_to_journaled.record(journaled);
            }
        }
        // Route all of this client's replies through its session (a client
        // that reconnects simply re-registers here).
        if let Some(first) = cmds.first() {
            self.sessions.insert(first.rifl.client, session);
        }
        for cmd in cmds {
            self.pending.insert(cmd.rifl, t0);
            // "Proposed" is the hand-off to the protocol — recorded *before*
            // `submit` runs so the stage series stays monotone even when the
            // self-addressed message cascade commits (or executes) the
            // command within this very call.
            self.metrics.proposed.inc();
            let now = self.now();
            self.metrics.submit_to_proposed.record(stage_us(t0, now));
            let actions = self.protocol.submit(cmd, now);
            self.perform(actions, now)?;
        }
        Ok(())
    }

    /// Peer `from` sent a message frame.
    fn peer_msg(
        &mut self,
        from: ProcessId,
        seq: u64,
        epoch: u64,
        payload: Vec<u8>,
        msg: P::Message,
    ) -> io::Result<()> {
        // Straggler drop: a frame from a process that is no longer a member,
        // stamped with an epoch older than ours, is pre-removal traffic from
        // a configuration that no longer exists — drop it before it reaches
        // the journal or the protocol. Frames from *members* pass whatever
        // their epoch (the protocols handle cross-epoch messages; Paxos
        // ring history decodes old-epoch ballots).
        if epoch < self.view.epoch && !self.view.all_members().contains(&from) {
            return Ok(());
        }
        self.note_peer_epoch(from, epoch);
        self.heard(from);
        self.stage(&JournalRecord::Peer { from, payload }, false);
        if seq > 0 {
            self.outbox.received(from, seq);
        }
        let now = self.now();
        let actions = self.protocol.handle(from, msg, now);
        self.perform(actions, now)
    }

    /// Periodic tick: owe every pending ack, probe (heartbeat) every outbound
    /// link, advance the failure detector — suspicions it reports are
    /// journaled and dispatched to [`Protocol::suspect`] right here, through
    /// the same action pipeline as every other protocol input — and, on the
    /// GC cadence, exchange executed watermarks and run a garbage-collection
    /// round.
    fn tick(&mut self) -> io::Result<()> {
        // The tick observes (watermark reports, the metrics dump).
        self.release()?;
        self.ticks += 1;
        // Sessions whose reply channel an executor thread found closed are
        // reported back here and dropped on the protocol thread, which owns
        // the session map.
        for client in self.exec.take_dead_clients() {
            self.sessions.remove(&client);
        }
        if self.gc_every > 0 && self.ticks.is_multiple_of(self.gc_every) {
            self.gc_round()?;
        }
        self.outbox.ack_all();
        // Heartbeat every link (self-suppressed while a link is
        // mid-reconnect): keeps silently dead connections surfacing *and*
        // gives idle-but-alive peers the traffic their detectors listen for.
        for link in self.links.values() {
            link.probe();
        }
        if let Some(detector) = &mut self.detector {
            for event in detector.tick(Instant::now()) {
                match event {
                    DetectorEvent::Suspect(peer) => {
                        self.metrics.suspicions.inc();
                        self.dispatch_suspect(peer)?;
                    }
                    DetectorEvent::Trust(peer) => {
                        self.metrics.trusts.inc();
                        eprintln!(
                            "replica {}: replica {peer} is audible again; trust restored",
                            self.id
                        );
                    }
                }
            }
        }
        self.announce_epoch();
        self.maybe_auto_finalize()?;
        if self.metrics_every > 0 && self.ticks.is_multiple_of(self.metrics_every) {
            self.dump_metrics();
        }
        Ok(())
    }

    /// Appends one snapshot line to `<data_dir>/metrics.jsonl`. A write
    /// error disables the dump for the rest of the replica's life — losing
    /// telemetry is acceptable, failing the replica (or logging every tick)
    /// over it is not.
    fn dump_metrics(&mut self) {
        let Some(path) = &self.metrics_path else {
            return;
        };
        let line = self.metrics_snapshot().to_json();
        use std::io::Write as _;
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{line}"));
        if let Err(e) = written {
            eprintln!(
                "replica {}: disabling metrics dump to {}: {e}",
                self.id,
                path.display()
            );
            self.metrics_path = None;
        }
    }

    /// One garbage-collection round: broadcast this replica's executed
    /// watermarks, then — once every peer has reported — compute the
    /// pointwise minimum (the all-executed horizon) and, if it advanced,
    /// journal it and hand it to [`Protocol::gc_executed`]. A round that
    /// dropped entries marks a snapshot wanted; the one cut at the end of
    /// this event (or when the busy writer reports) truncates the WAL below
    /// the now smaller snapshot and prunes older snapshot files — the
    /// on-disk half of compaction.
    fn gc_round(&mut self) -> io::Result<()> {
        let mine = self.protocol.executed_watermarks();
        for link in self.links.values() {
            link.send_watermarks(mine.clone());
        }
        if self
            .links
            .keys()
            .any(|peer| !self.peer_watermarks.contains_key(peer))
        {
            // Some *current member* has never reported (down, or GC
            // disabled there): its executed set is unknown, so nothing is
            // provably all-executed yet. Keyed by the current view's links
            // — a member removed by reconfiguration no longer holds the
            // horizon hostage, which is how GC resumes after a dead
            // replica is swapped out.
            return Ok(());
        }
        let mut horizon: HashMap<ProcessId, u64> = mine.into_iter().collect();
        for report in self.peer_watermarks.values() {
            let report: HashMap<ProcessId, u64> = report.iter().copied().collect();
            horizon.retain(|space, h| match report.get(space) {
                Some(&peer_h) => {
                    *h = (*h).min(peer_h);
                    true
                }
                None => false,
            });
        }
        let mut horizon: Vec<(ProcessId, u64)> = horizon
            .into_iter()
            .filter(|&(space, h)| h > self.last_gc_horizon.get(&space).copied().unwrap_or(0))
            .collect();
        if horizon.is_empty() {
            return Ok(()); // nothing advanced since the last round
        }
        horizon.sort_unstable();
        let record = JournalRecord::Gc {
            horizon: horizon.clone(),
        };
        self.stage(&record, false);
        let dropped = self.protocol.gc_executed(&horizon);
        self.metrics.gc_rounds.inc();
        self.metrics.gc_entries_dropped.add(dropped);
        for (space, h) in horizon {
            self.last_gc_horizon.insert(space, h);
        }
        if let (true, Some(journal)) = (dropped > 0, &mut self.journal) {
            journal.want_snapshot();
        }
        Ok(())
    }

    /// Builds the full catch-up stream for a recovering peer as encoded
    /// [`CatchUpChunk`] frames, each payload bounded by the configured
    /// chunk budget: `Start` (identifier horizon + executed marker), the
    /// store records and execution-record slices of the executed-state
    /// base, then this replica's **entire retained committed log** — the
    /// executed entries included, because an entry executed here may be
    /// unknown to the peer whose base the receiver installed, and the
    /// receiver's marker makes replaying base-covered entries a no-op.
    /// Payloads are encoded into frames as they are produced, so peak
    /// memory is one serialized copy of the state (held in the reply
    /// channel until the acceptor drains it), never the payloads *and*
    /// their encodings at once. A catch-up request is also evidence the
    /// peer is alive again — marking it heard here is what keeps a wiped
    /// replica rejoining under its old identifier from staying suspected
    /// while it rebuilds.
    fn catch_up_chunks(&mut self, from: ProcessId) -> Vec<Vec<u8>> {
        /// Encodes payloads into frames one step behind, so the final
        /// payload can be flagged `last` without knowing the count upfront.
        struct ChunkStream {
            frames: Vec<Vec<u8>>,
            held: Option<CatchUpPayload>,
        }
        impl ChunkStream {
            fn push(&mut self, payload: CatchUpPayload) {
                if let Some(prev) = self.held.replace(payload) {
                    self.encode(prev, false);
                }
            }
            fn finish(mut self) -> Vec<Vec<u8>> {
                if let Some(prev) = self.held.take() {
                    self.encode(prev, true);
                }
                self.frames
            }
            fn encode(&mut self, payload: CatchUpPayload, last: bool) {
                let chunk = CatchUpChunk {
                    seq: self.frames.len() as u32,
                    last,
                    payload,
                };
                self.frames
                    .push(bincode::serialize(&chunk).expect("catch-up chunks always encode"));
            }
        }

        self.heard(from);
        // Serve a quiesced store: everything protocol-ordered so far must
        // be applied before its records are streamed out.
        self.exec.drain();
        let store = self.exec.flat_store();
        let budget = self.catch_up_chunk_bytes;
        let mut stream = ChunkStream {
            frames: Vec::new(),
            held: None,
        };
        stream.push(CatchUpPayload::Start {
            horizon: self.protocol.seen_horizon(from),
            executed: self.protocol.save_executed(),
            store_executed: store.executed(),
            view: self.view.clone(),
            addrs: self.addrs_wire(),
        });
        // Fixed-size records: chunk by count against the byte budget,
        // batching straight off the iterators (no full intermediate
        // copy of the store).
        let per_store = (budget / 24).max(1);
        let mut batch: Vec<(Key, Value)> = Vec::with_capacity(per_store);
        for record in store.records() {
            batch.push(record);
            if batch.len() == per_store {
                stream.push(CatchUpPayload::Store(std::mem::take(&mut batch)));
            }
        }
        if !batch.is_empty() {
            stream.push(CatchUpPayload::Store(batch));
        }
        let per_log = (budget / 40).max(1);
        for slice in self.log.chunks(per_log) {
            stream.push(CatchUpPayload::Log(slice.to_vec()));
        }
        // Messages vary in size: pack by actual encoded bytes.
        let mut group: Vec<Vec<u8>> = Vec::new();
        let mut group_bytes = 0usize;
        for msg in self.protocol.committed_log() {
            let encoded = bincode::serialize(&msg).expect("protocol messages always encode");
            if !group.is_empty() && group_bytes + encoded.len() > budget {
                stream.push(CatchUpPayload::Msgs(std::mem::take(&mut group)));
                group_bytes = 0;
            }
            group_bytes += encoded.len();
            group.push(encoded);
        }
        if !group.is_empty() {
            stream.push(CatchUpPayload::Msgs(group));
        }
        stream.finish()
    }

    /// Applies one `Msgs` chunk of a peer's catch-up stream through the
    /// message path.
    ///
    /// The bulk messages are *not* journaled — `catch_up_from_peers`
    /// snapshots once when the whole catch-up completes, instead of writing
    /// up to `n-1` copies of the cluster history through the write-ahead
    /// path. A crash before that snapshot only loses un-journaled catch-up
    /// progress, which restarting with catch-up enabled (the documented flow
    /// for a wiped replica: rerun the same command line) simply redoes.
    fn apply_catch_up_msgs(&mut self, peer: ProcessId, msgs: Vec<Vec<u8>>) -> io::Result<()> {
        for payload in msgs {
            let Ok(msg) = bincode::deserialize::<P::Message>(&payload) else {
                continue; // peer speaking another protocol version
            };
            let now = self.now();
            let actions = self.protocol.handle(peer, msg, now);
            self.perform(actions, now)?;
        }
        Ok(())
    }

    /// Answers an execution-record query. An observer: the turn so far is
    /// released first and the digest drains the executor pool, so the reply
    /// reflects everything protocol-ordered so far — a client that observed
    /// a reply can never see a digest that predates the replied command.
    fn query(&mut self, session: UnboundedSender<ClientReply>) -> io::Result<()> {
        self.release()?;
        let _ = session.send(ClientReply::ExecutionLog {
            entries: self.log.clone(),
            digest: self.exec.digest(),
        });
        Ok(())
    }

    /// Answers a stats query with the full metrics snapshot (an observer
    /// too: counters and store agree only once the turn is released).
    fn stats(&mut self, session: UnboundedSender<ClientReply>) -> io::Result<()> {
        self.release()?;
        let _ = session.send(ClientReply::Stats {
            snapshot: Box::new(self.metrics_snapshot()),
        });
        Ok(())
    }

    /// Assembles the export snapshot: the registry's counters/histograms,
    /// the hosted protocol's own digest, and the event-loop state that is
    /// not a metric cell (GC horizon, link health, bookkeeping sizes).
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        // Quiesce the executor pool first so lifecycle counters satisfy the
        // stage invariants (`executed == replied` for locally owned
        // commands) and `store_executed` matches what the pool has applied.
        self.exec.drain();
        let mut horizon: Vec<(ProcessId, u64)> = self
            .last_gc_horizon
            .iter()
            .map(|(&space, &h)| (space, h))
            .collect();
        horizon.sort_unstable();
        let mut links: Vec<_> = self
            .links
            .values()
            .map(|link| link.status().snapshot())
            .collect();
        links.sort_by_key(|link| link.peer);
        MetricsSnapshot {
            replica: self.id,
            protocol: P::name().to_string(),
            uptime_us: self.now(),
            lifecycle: self.metrics.lifecycle_stats(),
            protocol_stats: self.protocol.metrics().clone(),
            durability: self
                .metrics
                .durability_stats(self.journal.as_ref().map_or(0, |j| j.wal_segments() as u64)),
            detector: self.metrics.detector_stats(),
            gc: self.metrics.gc_stats(horizon),
            links,
            tracked_entries: self.protocol.tracked_entries() as u64,
            store_executed: self.exec.executed(),
            epoch: self.view.epoch,
            executor: self.metrics.executor_stats(self.exec.shards()),
            alloc_count: atlas_metrics::allocations().saturating_sub(self.alloc_baseline),
            reactor: crate::metrics::reactor_stats(),
        }
    }

    /// Cuts a snapshot when one is due and the writer is free. Called
    /// between turns only: records are staged before they are applied, and
    /// a cut in between would claim to cover inputs the protocol has not
    /// seen.
    fn maybe_snapshot(&mut self) -> io::Result<()> {
        match &self.journal {
            Some(journal) if journal.snapshot_due() => self.snapshot_now(false),
            _ => Ok(()),
        }
    }

    /// The cut: copies everything a snapshot captures and gives it to the
    /// journal, which fsyncs the WAL, stamps the index and has its writer
    /// thread persist it (`inline`: this thread does, before returning).
    /// No-op without a journal.
    fn snapshot_now(&mut self, inline: bool) -> io::Result<()> {
        if self.journal.is_none() {
            return Ok(());
        }
        // The cut observes the store: everything collected executes first.
        self.release()?;
        let t0 = Instant::now();
        let protocol = self.protocol.save_state();
        // Snapshots always store the *flat* (merged) KVS, never per-shard
        // parts: the on-disk format stays shard-count independent, so a
        // replica may restart with a different `--shards` and re-split.
        let snapshot = ReplicaSnapshot {
            protocol: protocol.expect("every protocol snapshots its state"),
            store: self.exec.flat_store(),
            log: self.log.clone(),
            view: self.view.clone(),
            addrs: self.addrs_wire(),
        };
        let journal = self.journal.as_mut().expect("checked above");
        journal.save_snapshot(snapshot, t0, inline)
    }

    /// Remembers the highest configuration epoch seen in frames from `from`
    /// (drives targeted re-announcements to lagging peers).
    fn note_peer_epoch(&mut self, from: ProcessId, epoch: u64) {
        let seen = self.peer_epochs.entry(from).or_insert(0);
        *seen = (*seen).max(epoch);
    }

    /// The address book in wire form (sorted for determinism).
    fn addrs_wire(&self) -> Vec<(ProcessId, String)> {
        let mut addrs: Vec<(ProcessId, String)> = self
            .addrs
            .iter()
            .map(|(&id, addr)| (id, addr.to_string()))
            .collect();
        addrs.sort_unstable_by_key(|&(id, _)| id);
        addrs
    }

    /// The current view plus address book as an announcement payload.
    fn epoch_update(&self) -> EpochUpdate {
        EpochUpdate {
            view: self.view.clone(),
            addrs: self.addrs_wire(),
        }
    }

    /// Installs `view` as the runtime's configuration: stamps the epoch on
    /// outgoing frames, merges addresses, retargets links and the failure
    /// detector, purges per-peer bookkeeping of departed processes and
    /// retires this replica when the new configuration drops it. Callers
    /// guard that `view.epoch` is strictly newer.
    fn install_view(&mut self, view: &ClusterView, addrs: &[(ProcessId, String)]) {
        for (id, addr) in addrs {
            match addr.parse() {
                Ok(parsed) => {
                    self.addrs.insert(*id, parsed);
                }
                Err(_) => eprintln!(
                    "replica {}: ignoring unparsable address {addr:?} for replica {id}",
                    self.id
                ),
            }
        }
        let was_member = self.view.all_members().contains(&self.id);
        self.view = view.clone();
        self.epoch_ctr.store(view.epoch, Ordering::Relaxed);
        self.joint_since = view.is_joint().then_some(self.ticks);
        if !view.is_joint() {
            self.finalize_sent = None;
        }
        self.sync_links_to_view();
        if was_member && !view.all_members().contains(&self.id) {
            eprintln!(
                "replica {}: epoch {} configuration no longer includes this \
                 replica; retiring",
                self.id, view.epoch
            );
            // Same teardown as `ReplicaHandle::shutdown`: set the flag, then
            // unblock the acceptor with a dummy connection so it observes it.
            self.stop.store(true, Ordering::Relaxed);
            let _ = std::net::TcpStream::connect(self.self_addr);
        }
    }

    /// Aligns outbound links, the failure detector and per-peer bookkeeping
    /// with the current view: spawns links to new members whose address is
    /// known, tears down links (and purges bookkeeping) of processes that
    /// left the configuration.
    fn sync_links_to_view(&mut self) {
        let members = self.view.all_members();
        let now = Instant::now();
        for &peer in &members {
            if peer == self.id || self.links.contains_key(&peer) {
                continue;
            }
            let Some(&addr) = self.addrs.get(&peer) else {
                eprintln!(
                    "replica {}: no address for new member {peer}; it stays \
                     unreachable until an announcement supplies one",
                    self.id
                );
                continue;
            };
            let shaper = self
                .net
                .as_ref()
                .and_then(|profile| profile.shaper(self.id, peer, self.boot));
            self.links.insert(
                peer,
                PeerLink::spawn(
                    self.id,
                    peer,
                    addr,
                    Arc::clone(&self.stop),
                    DEFAULT_RESEND_BUFFER_CAP,
                    shaper,
                    Arc::clone(&self.epoch_ctr),
                ),
            );
            if let Some(detector) = &mut self.detector {
                detector.add_peer(peer, now);
            }
        }
        let departed: Vec<ProcessId> = self
            .links
            .keys()
            .copied()
            .filter(|peer| !members.contains(peer))
            .collect();
        for peer in departed {
            self.links.remove(&peer);
            self.peer_watermarks.remove(&peer);
            self.peer_epochs.remove(&peer);
            self.outbox.forget(peer);
            if let Some(detector) = &mut self.detector {
                detector.remove_peer(peer);
            }
        }
    }

    /// Adopts a newer view learned **off the log** (an epoch announcement
    /// or a catch-up preamble): journaled as [`JournalRecord::Epoch`] so a
    /// restart reaches the same configuration without needing the barrier's
    /// commit traffic again. A view that is not newer is ignored.
    fn adopt_runtime_view(
        &mut self,
        view: &ClusterView,
        addrs: &[(ProcessId, String)],
    ) -> io::Result<()> {
        if view.epoch <= self.view.epoch {
            return Ok(());
        }
        let record = JournalRecord::Epoch {
            view: view.clone(),
            addrs: addrs.to_vec(),
        };
        self.stage(&record, false);
        self.install_view(view, addrs);
        Ok(())
    }

    /// A peer announced a configuration epoch: remember its stamp and adopt
    /// the view if newer.
    fn handle_epoch_frame(&mut self, from: ProcessId, update: EpochUpdate) -> io::Result<()> {
        self.note_peer_epoch(from, update.view.epoch);
        self.heard(from);
        self.adopt_runtime_view(&update.view, &update.addrs)
    }

    /// An executed `Reconfigure` barrier — the **only** place the hosted
    /// protocol's membership moves. The target is derived from the
    /// protocol's own view ([`Protocol::cluster_view`]), not the runtime's:
    /// epoch announcements can race the log and push the runtime view
    /// ahead, but the protocol must walk the exact joint-then-final
    /// progression the barrier sequence spells out (Mencius derives its
    /// ring cut from the execution frontier at each barrier). Not
    /// journaled: replay re-executes the barrier and re-derives the switch.
    fn apply_reconfig_barrier(
        &mut self,
        op: &ReconfigOp,
        local: &mut VecDeque<(ProcessId, P::Message)>,
        now: u64,
    ) -> io::Result<()> {
        let current = self.protocol.cluster_view();
        let next = match op {
            ReconfigOp::Enter { members, f } => {
                for (id, addr) in members {
                    if let Ok(parsed) = addr.parse() {
                        self.addrs.insert(*id, parsed);
                    }
                }
                let ids: Vec<ProcessId> = members.iter().map(|&(id, _)| id).collect();
                current.enter(&ids, *f)
            }
            ReconfigOp::Finalize => current.finalize(),
        };
        let Some(next) = next else {
            return Ok(()); // idempotent replay of an already-applied barrier
        };
        eprintln!(
            "replica {}: reconfigure barrier executed; epoch {} members {:?}{}",
            self.id,
            next.epoch,
            next.members,
            if next.is_joint() { " (joint)" } else { "" }
        );
        if next.epoch > self.view.epoch {
            self.install_view(&next, &[]);
        } else {
            // The runtime view already adopted this (or a later) epoch from
            // an announcement; still make sure links exist for the targets.
            self.sync_links_to_view();
        }
        let actions = self.protocol.reconfigure(&next, now);
        self.do_actions(actions, local, now)
    }

    /// Re-announces the configuration epoch to peers still stamping older
    /// ones — the repair path for a replica (or joiner) that missed the
    /// `Reconfigure` barrier's commit traffic.
    fn announce_epoch(&mut self) {
        if self.view.epoch == 0 || !self.ticks.is_multiple_of(EPOCH_ANNOUNCE_EVERY) {
            return;
        }
        let lagging: Vec<ProcessId> = self
            .links
            .keys()
            .copied()
            .filter(|peer| self.peer_epochs.get(peer).copied().unwrap_or(0) < self.view.epoch)
            .collect();
        if lagging.is_empty() {
            return;
        }
        let update = self.epoch_update();
        for peer in lagging {
            if let Some(link) = self.links.get(&peer) {
                link.send_epoch(update.clone());
            }
        }
    }

    /// Auto-submits the `Finalize` barrier once a joint window is stable.
    /// Exactly one member is designated (the smallest target-member id) so
    /// the cluster does not flood itself with finalizes. Every gate below
    /// is a liveness precaution, not a safety requirement — `Finalize` is
    /// sequenced through the log like any command; a premature one would
    /// merely dissolve the old configuration before stragglers drained.
    fn maybe_auto_finalize(&mut self) -> io::Result<()> {
        if !self.view.is_joint() || self.view.members.first() != Some(&self.id) {
            return Ok(());
        }
        let Some(since) = self.joint_since else {
            return Ok(());
        };
        if self.ticks.saturating_sub(since) < AUTO_FINALIZE_DWELL_TICKS {
            return Ok(());
        }
        // The protocol itself must have executed the `Enter` barrier.
        if self.protocol.epoch() < self.view.epoch {
            return Ok(());
        }
        for &peer in &self.view.members {
            if peer == self.id {
                continue;
            }
            // Every target member must have stamped the joint epoch, be
            // connected with a drained resend buffer, and not be suspected
            // — i.e. bootstrapped-before-voting, per the joiner rule.
            if self.peer_epochs.get(&peer).copied().unwrap_or(0) < self.view.epoch {
                return Ok(());
            }
            let Some(link) = self.links.get(&peer) else {
                return Ok(());
            };
            let status = link.status();
            if !status.is_connected() || status.buffered() > 0 {
                return Ok(());
            }
            if self
                .detector
                .as_ref()
                .is_some_and(|detector| detector.is_suspected(peer))
            {
                return Ok(());
            }
        }
        if let Some((epoch, tick)) = self.finalize_sent {
            if epoch == self.view.epoch
                && self.ticks.saturating_sub(tick) < AUTO_FINALIZE_RETRY_TICKS
            {
                return Ok(());
            }
        }
        self.finalize_sent = Some((self.view.epoch, self.ticks));
        eprintln!(
            "replica {}: joint epoch {} stable; submitting finalize barrier",
            self.id, self.view.epoch
        );
        let rifl = Rifl::new(RECONFIG_CLIENT_BASE + u64::from(self.id), self.view.epoch);
        self.submit_internal(Command::reconfigure(rifl, ReconfigOp::Finalize))
    }

    /// Submits an internally minted command (no client session): journaled
    /// as minting, like a client submission.
    fn submit_internal(&mut self, cmd: Command) -> io::Result<()> {
        self.metrics.submitted.inc();
        self.stage(&JournalRecord::Submit { cmd: cmd.clone() }, true);
        let now = self.now();
        let actions = self.protocol.submit(cmd, now);
        self.perform(actions, now)
    }

    /// Applies one event of a turn.
    fn handle(&mut self, event: Event<P::Message>) -> io::Result<()> {
        match event {
            Event::Peer {
                from,
                seq,
                epoch,
                payload,
                msg,
            } => self.peer_msg(from, seq, epoch, payload, msg),
            Event::PeerAck { from, epoch, upto } => {
                self.note_peer_epoch(from, epoch);
                self.heard(from);
                if let Some(link) = self.links.get(&from) {
                    link.acked(upto);
                }
                Ok(())
            }
            Event::PeerWatermarks {
                from,
                epoch,
                watermarks,
            } => {
                self.note_peer_epoch(from, epoch);
                self.heard(from);
                // A report from a non-member (just removed, or an epoch
                // straggler) must not re-enter the horizon computation.
                if self.view.all_members().contains(&from) {
                    self.peer_watermarks.insert(from, watermarks);
                }
                Ok(())
            }
            Event::PeerEpoch { from, update } => self.handle_epoch_frame(from, update),
            Event::Submit { cmds, session } => self.submit(cmds, session),
            Event::SnapshotWritten { index, result } => match &mut self.journal {
                Some(journal) => journal.snapshot_written(index, result),
                None => Ok(()),
            },
            Event::Query { session } => self.query(session),
            Event::Stats { session } => self.stats(session),
            Event::CatchUp { from, reply } => {
                self.release()?; // an observer of execution state
                for frame in self.catch_up_chunks(from) {
                    if reply.send(frame).is_err() {
                        break; // requester hung up; it will retry
                    }
                }
                Ok(())
            }
            Event::Tick => self.tick(),
            Event::Shutdown => Ok(()), // the loop returns before handling it
        }
    }

    /// Maps protocol [`Action`]s onto the runtime and drains self-addressed
    /// sends to fixpoint (delivered with zero delay, the paper's
    /// assumption; they may themselves produce more actions). Local
    /// deliveries are *not* journaled — they are a deterministic consequence
    /// of the journaled input that produced them.
    fn perform(&mut self, actions: Vec<Action<P::Message>>, now: u64) -> io::Result<()> {
        let mut local: VecDeque<(ProcessId, P::Message)> = VecDeque::new();
        self.do_actions(actions, &mut local, now)?;
        while let Some((from, msg)) = local.pop_front() {
            let actions = self.protocol.handle(from, msg, now);
            self.do_actions(actions, &mut local, now)?;
        }
        Ok(())
    }

    /// One batch of actions, collected in the outbox until the turn's
    /// records are written:
    ///
    /// * `Send` to a remote peer → encode the message once, for that peer's
    ///   (at-least-once) link;
    /// * `Send` to self → queue for immediate local handling;
    /// * `Execute` → append to the execution record; the execute stage
    ///   applies the command to the store and answers the submitting
    ///   client if its session lives here;
    /// * `Commit` → remember the commit time for the lifecycle latency
    ///   histograms (clients are answered at execution).
    fn do_actions(
        &mut self,
        actions: Vec<Action<P::Message>>,
        local: &mut VecDeque<(ProcessId, P::Message)>,
        now: u64,
    ) -> io::Result<()> {
        for action in actions {
            match action {
                Action::Send { targets, msg } => {
                    // Encoded once, shared by every target link behind an
                    // `Arc`: the fan-out clones a pointer, not the bytes
                    // (each link writer borrows the payload while framing
                    // it into its own pooled buffer).
                    let mut payload: Option<Arc<Vec<u8>>> = None;
                    for target in targets {
                        if target == self.id {
                            local.push_back((self.id, msg.clone()));
                            continue;
                        }
                        if !self.links.contains_key(&target) {
                            // A removed member (or a joiner not linked yet)
                            // can legitimately be targeted across an epoch
                            // switch; the frame is simply not deliverable.
                            continue;
                        }
                        let payload = payload.get_or_insert_with(|| {
                            Arc::new(
                                bincode::serialize(&msg).expect("protocol messages always encode"),
                            )
                        });
                        self.outbox.send(target, Arc::clone(payload));
                    }
                }
                Action::Execute { dot, cmd } => {
                    let rifl = cmd.rifl;
                    // Protocol-order artifacts stay on this thread: the
                    // execution record advances at *dispatch* (protocol
                    // order), never at completion (execution interleaving).
                    self.log.push((dot, rifl));
                    // Lifecycle: a commit time was remembered for every
                    // dot; the samples only count when this replica owns
                    // the command's lifecycle (it was submitted here). The
                    // commit/execute/reply stamps themselves are taken by
                    // the executor in stage order, so the percentile series
                    // stays monotone under concurrent executors.
                    let ctx = ExecCtx {
                        rifl,
                        submit_t: self.pending.remove(&rifl),
                        commit_t: self.commit_times.remove(&dot),
                        session: self.sessions.get(&rifl.client).cloned(),
                    };
                    if cmd.is_noop() || cmd.is_reconfig() {
                        // Total-order barriers execute inline on this
                        // thread (after a release and a pool drain): a
                        // `Reconfigure` mutates the protocol, which only
                        // this thread may touch.
                        self.release()?;
                        let reconfig = cmd.reconfig_op().cloned();
                        self.exec.execute_barrier(&cmd, ctx);
                        if let Some(op) = reconfig {
                            self.apply_reconfig_barrier(&op, local, now)?;
                        }
                    } else {
                        self.outbox.execute((cmd, ctx));
                    }
                }
                Action::Commit { dot } => {
                    self.commit_times.insert(dot, self.now());
                }
            }
        }
        Ok(())
    }
}

/// The not-yet-installed executed-state base of one catch-up stream,
/// buffered so installation is **atomic**: a stream that dies while the
/// base is still in transit leaves the replica exactly as before, and the
/// retry (same peer or another) starts clean. The base is installed when
/// the stream moves past its base sections (first `Msgs` chunk, or the
/// `last` flag) — from that point on, a partially applied message tail is
/// fine, because message application is idempotent on top of the base.
struct PendingBase {
    marker: Vec<u8>,
    store_executed: u64,
    records: Vec<(Key, Value)>,
    log: Vec<(Dot, Rifl)>,
}

impl PendingBase {
    /// Installs the buffered base into `core` — the transferred store
    /// records and execution record plus the protocol's executed marker —
    /// unless a base is already installed or the protocol refuses the
    /// marker. A refusal on a **fresh** replica means the marker is
    /// undecodable: that is an error (fail the stream so it is retried;
    /// committing to message-only replay and snapshotting the result would
    /// silently persist a truncated state whenever the peers have
    /// garbage-collected). A refusal on a replica with **local progress**
    /// is the `--catch-up`-with-surviving-data-dir flow: fall back to full
    /// committed-log replay on top — complete as long as the peers never
    /// collected, which the loud warning spells out.
    fn install<P>(self, core: &mut Core<P>, base_installed: &mut bool) -> io::Result<()>
    where
        P: Protocol,
        P::Message: Serialize + Deserialize,
    {
        if *base_installed {
            return Ok(());
        }
        if core.protocol.restore_executed(&self.marker) {
            for (key, value) in self.records {
                core.exec.restore_record(key, value);
            }
            core.exec.restore_executed_count(self.store_executed);
            core.log = self.log;
            *base_installed = true;
            return Ok(());
        }
        if core.log.is_empty() && core.exec.is_empty() {
            return Err(corrupt(format!(
                "replica {}: peer's executed-state marker did not decode",
                core.id
            )));
        }
        eprintln!(
            "replica {}: catch-up found local progress, so the peer's executed-state base \
             was skipped; replaying committed logs on top — complete only if no peer has \
             garbage-collected below this replica's state",
            core.id
        );
        Ok(())
    }
}

/// Dials `addr` and applies one peer's catch-up stream **incrementally**
/// into `core`, chunk by chunk — memory holds the growing replica state
/// plus at most one chunk of messages and the (buffered, bounded-by-state)
/// base, never a serialized copy of the whole history. Each connect/read
/// step is bounded by [`CATCH_UP_FETCH_TIMEOUT`]; the per-chunk bound
/// matters for more than slow peers: a peer that is *itself* mid-catch-up
/// queues our request behind its own (its event loop only answers once it
/// starts serving), so two simultaneously recovering replicas would
/// otherwise block on each other forever.
///
/// On a mid-stream error everything already applied stays (identifier
/// advances are monotone, message application is idempotent, and the base
/// installs atomically), so the caller simply retries the peer later.
async fn fetch_catch_up<P>(
    core: &mut Core<P>,
    peer: ProcessId,
    addr: SocketAddr,
    base_installed: &mut bool,
) -> io::Result<()>
where
    P: Protocol,
    P::Message: Serialize + Deserialize,
{
    let timed = |label: &'static str| {
        move |e: tokio::time::error::Elapsed| {
            let _ = e;
            io::Error::new(
                io::ErrorKind::TimedOut,
                format!("catch-up {label} timed out"),
            )
        }
    };
    let stream = tokio::time::timeout(CATCH_UP_FETCH_TIMEOUT, TcpStream::connect(addr))
        .await
        .map_err(timed("connect"))??;
    stream.set_nodelay(true)?;
    let (mut reader, mut writer) = stream.into_split();
    write_frame(&mut writer, &Hello::CatchUp { from: core.id }).await?;

    // The vendored tokio's `timeout` needs an owned ('static) future, so
    // the reader travels through it by value and comes back with the chunk.
    async fn read_chunk(mut reader: OwnedReadHalf) -> (OwnedReadHalf, io::Result<CatchUpChunk>) {
        let chunk = read_frame::<_, CatchUpChunk>(&mut reader).await;
        (reader, chunk)
    }

    let mut pending: Option<PendingBase> = None;
    let mut expected_seq: u32 = 0;
    loop {
        let (returned, chunk) = tokio::time::timeout(CATCH_UP_FETCH_TIMEOUT, read_chunk(reader))
            .await
            .map_err(timed("chunk"))?;
        reader = returned;
        let chunk = chunk?;
        if chunk.seq != expected_seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "catch-up stream gap: expected chunk {expected_seq}, got {}",
                    chunk.seq
                ),
            ));
        }
        expected_seq += 1;
        match chunk.payload {
            CatchUpPayload::Start {
                horizon,
                executed,
                store_executed,
                view,
                addrs,
            } => {
                // The server's configuration first: a joiner must know the
                // real member set (and its addresses) before it interprets
                // the rest of the stream.
                core.adopt_runtime_view(&view, &addrs)?;
                if horizon > 0 {
                    core.stage(&JournalRecord::Advance { past: horizon }, false);
                    core.protocol.advance_identifiers(horizon);
                }
                if !*base_installed {
                    pending = Some(PendingBase {
                        marker: executed,
                        store_executed,
                        records: Vec::new(),
                        log: Vec::new(),
                    });
                }
            }
            CatchUpPayload::Store(records) => {
                if let Some(base) = &mut pending {
                    base.records.extend(records);
                }
            }
            CatchUpPayload::Log(entries) => {
                if let Some(base) = &mut pending {
                    base.log.extend(entries);
                }
            }
            CatchUpPayload::Msgs(msgs) => {
                if let Some(base) = pending.take() {
                    base.install(core, base_installed)?;
                }
                core.apply_catch_up_msgs(peer, msgs)?;
            }
        }
        core.release()?;
        if chunk.last {
            if let Some(base) = pending.take() {
                base.install(core, base_installed)?;
            }
            return Ok(());
        }
    }
}

/// Fetches and applies committed state from the peers, retrying until
/// **every** peer has answered once or the rounds run out.
///
/// Hearing from all peers matters for safety, not just completeness: the
/// identifier horizon protects against reissuing identifiers of the lost
/// incarnation, but an in-flight identifier may be known to only some
/// quorum members — only the union of all peers' horizons is guaranteed to
/// cover it. If some peers stay unreachable the replica proceeds with what
/// it got (they may be crashed for good, and waiting forever would trade a
/// narrow unsoundness window for guaranteed unavailability) and says so
/// loudly. If *no* peer ever answers this is a fresh cluster boot.
async fn catch_up_from_peers<P>(
    core: &mut Core<P>,
    addrs: &HashMap<ProcessId, SocketAddr>,
) -> io::Result<()>
where
    P: Protocol,
    P::Message: Serialize + Deserialize,
{
    let mut pending: Vec<(ProcessId, SocketAddr)> = addrs
        .iter()
        .filter(|(&peer, _)| peer != core.id)
        .map(|(&peer, &addr)| (peer, addr))
        .collect();
    pending.sort_unstable_by_key(|(peer, _)| *peer);
    // At most one peer's executed-state base is installed (the first whose
    // stream reaches its message tail); every other stream contributes only
    // messages on top. One base plus every peer's retained committed log is
    // complete: whatever any peer garbage-collected is — by the
    // all-executed horizon — inside every replica's executed state and
    // hence inside the base, and everything above a peer's floor is in its
    // retained log; base-covered entries replay as idempotent no-ops.
    let mut base_installed = false;
    let mut heard_from_any = false;
    for round in 0..CATCH_UP_ROUNDS {
        let mut still_pending = Vec::new();
        for &(peer, addr) in &pending {
            match fetch_catch_up(core, peer, addr, &mut base_installed).await {
                Ok(()) => heard_from_any = true,
                Err(_) => still_pending.push((peer, addr)),
            }
        }
        pending = still_pending;
        if pending.is_empty() {
            break;
        }
        if round + 1 < CATCH_UP_ROUNDS {
            tokio::time::sleep(Duration::from_millis(250)).await;
        }
    }
    if heard_from_any {
        if !pending.is_empty() {
            let missing: Vec<ProcessId> = pending.iter().map(|(peer, _)| *peer).collect();
            eprintln!(
                "replica {}: caught up without peers {missing:?}; identifiers they alone \
                 observed from the previous incarnation may be unprotected",
                core.id
            );
        }
        // Persist the caught-up state in one stroke, before serving (hence
        // on this thread); until this completes a crash redoes the catch-up.
        core.snapshot_now(true)?;
    }
    Ok(())
}

/// The event loop: single-threaded owner of the [`Core`]. On a fatal error
/// (journal failure, catch-up IO failure) it tears the whole replica down
/// via `fatal_stop` — exiting alone would leave a zombie whose acceptor
/// keeps accepting connections that nobody will ever answer.
async fn event_loop<P>(
    mut core: Core<P>,
    mut events: UnboundedReceiver<Event<P::Message>>,
    catch_up_addrs: Option<HashMap<ProcessId, SocketAddr>>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
) where
    P: Protocol,
    P::Message: Serialize + Deserialize,
{
    let fatal_stop = |id: ProcessId, what: &str, e: io::Error| {
        // A replica that cannot journal must not keep acknowledging inputs
        // it would forget after a crash: stop serving instead. Same
        // teardown as ReplicaHandle::shutdown — set the flag, then unblock
        // the acceptor with a dummy connection so it observes it.
        eprintln!("replica {id}: {what}, stopping: {e}");
        stop.store(true, Ordering::Relaxed);
        let _ = std::net::TcpStream::connect(addr);
    };
    if let Some(addrs) = catch_up_addrs {
        if let Err(e) = catch_up_from_peers(&mut core, &addrs).await {
            fatal_stop(core.id, "catch-up failed", e);
            return;
        }
    }
    // Journal replay and catch-up can take arbitrarily long; only now does
    // peer silence start counting toward suspicion.
    core.arm_detector();
    while let Some(mut event) = events.recv().await {
        // One turn: every event that is ready, up to the bound; their
        // records reach the WAL together and their effects leave together,
        // in `release`. A shutdown mid-turn releases nothing: from outside,
        // the turn's inputs never arrived.
        let mut result = Ok(());
        for taken in 1..=TURN_EVENTS {
            if matches!(event, Event::Shutdown) {
                return;
            }
            result = core.handle(event);
            if result.is_err() || taken == TURN_EVENTS {
                break;
            }
            match events.try_recv() {
                Ok(next) => event = next,
                Err(_) => break,
            }
        }
        // Every turn boundary is a consistent cut: whatever the turn
        // journaled has been applied, written and released.
        let result = result.and_then(|()| core.release());
        if let Err(e) = result.and_then(|()| core.maybe_snapshot()) {
            fatal_stop(core.id, "journal failure", e);
            return;
        }
    }
}
