//! Reconnecting peer links with at-least-once delivery and piggybacked
//! liveness.
//!
//! A replica owns one [`PeerLink`] per remote peer. The link is a handle to a
//! dedicated **writer task** that dials the peer, identifies itself with
//! [`Hello::Peer`](crate::wire::Hello), and then drains an outbound queue of
//! [`PeerFrame`](crate::wire::PeerFrame)s into the socket. Peer connections
//! are unidirectional (see [`crate::wire`]): replica `i`'s messages to `j`
//! always travel over the connection `i` dialed to `j`, while messages from
//! `j` arrive on the connection `j` dialed.
//!
//! ## Delivery guarantee
//!
//! Every message frame gets a per-link sequence number and stays in the
//! writer's **resend buffer** until the peer acknowledges it (acks arrive on
//! the reverse connection and are routed here by the replica event loop via
//! [`PeerLink::acked`]). After a reconnect the writer replays the entire
//! unacknowledged suffix, so a frame that was sitting in the kernel buffers
//! of a dying connection — the loss window an ack-less design cannot close —
//! is delivered again on the fresh one. Frames received twice are handled by
//! protocol-level idempotence. The result is at-least-once delivery for as
//! long as both endpoints eventually run, which is exactly what a replica
//! recovering from its journal needs in order to observe everything its
//! peers sent while it was down.
//!
//! The resend buffer is **capped** ([`PeerLink::spawn`] takes the cap): a
//! peer that stays dead would otherwise grow the buffer without bound while
//! the cluster keeps committing around it. At the cap, the newest frame is
//! dropped and counted in [`LinkStatus::dropped`] (the first drop is also
//! logged) — from that point the link is **gapped**: once the peer returns
//! and the buffer drains, newer frames flow again, so what the peer
//! received has a permanent hole in the middle and at-least-once delivery
//! no longer holds toward it. That is safe for the *survivors* (quorum
//! protocols tolerate message loss; the failure detector has long since
//! handed the peer to
//! [`Protocol::suspect`](atlas_core::Protocol::suspect)), but the returned
//! peer itself may be missing commits it will never be resent — a replica
//! that was down past the cap must therefore rejoin wiped via peer-assisted
//! catch-up (`--catch-up`), not by plain restart.
//!
//! ## Liveness signal
//!
//! [`PeerLink::probe`], called on every replica tick, makes the writer send
//! a **heartbeat** frame (`Ack(0)`, acknowledging nothing) and dial the peer
//! if the link is down. The heartbeat serves double duty: a write to a
//! silently dead peer eventually errors (triggering reconnect + resend of
//! anything the kernel swallowed), and on the receiving side *any* inbound
//! frame counts as evidence of life for the
//! [`FailureDetector`](crate::detector::FailureDetector) — so an idle but
//! alive peer is never mistaken for a dead one. Each link's coarse state is
//! published in a shared [`LinkStatus`] ([`PeerLink::status`]); the event
//! loop skips probing a link that is mid-reconnect so probe commands cannot
//! pile up behind a backoff loop while a peer is down.
//!
//! Outgoing [`PeerBody::Ack`](crate::wire::PeerBody) control frames are
//! fire-and-forget: they are never buffered or resent (a lost ack merely
//! delays trimming of the peer's resend buffer until the next ack).
//!
//! ## One hand-off, one write
//!
//! The event loop gives a link everything one of its turns produced for the
//! peer at once ([`PeerLink::hand_off`]: the message payloads in order, plus
//! the delivery ack the peer is owed, if any), and the writer puts every
//! frame that is **due** — on an unshaped link, all of them, ack included —
//! on the socket with one `write`. Sequence numbers, the resend buffer and
//! the release deadlines stay per frame.
//!
//! ## Network-condition injection
//!
//! A link may carry a [`LinkShaper`] (resolved
//! from the replica's [`NetProfile`](crate::netem::NetProfile)). Shaping
//! sits **below the resend buffer**: release deadlines are stamped when a
//! frame is handed to the link (so delays pipeline instead of serializing)
//! and enforced by the writer task just before the bytes hit the socket
//! (frames share a write only once each one's own deadline has passed),
//! while scheduled cuts make dials fail and sever live connections, and
//! injected resets tear the connection down mid-stream. Every frame kind —
//! protocol messages, acks, watermark reports and heartbeat probes — passes
//! through the same gate, so the failure detector on the far side and the
//! reconnect/replay machinery on this side experience injected WAN
//! conditions exactly as they would real ones. See [`crate::netem`] for the
//! model.

use crate::netem::LinkShaper;
use crate::wire::{encode_peer_frame_into, write_frame, EpochUpdate, Hello, PeerBodyRef};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tokio::io::AsyncWriteExt;
use tokio::net::tcp::OwnedWriteHalf;
use tokio::net::TcpStream;
use tokio::sync::mpsc::{self, UnboundedSender};

use atlas_core::ProcessId;
use atlas_metrics::LinkSnapshot;

/// Initial reconnect backoff; doubles up to [`MAX_BACKOFF`].
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);
/// Most retired frame buffers a link writer keeps for reuse; beyond this,
/// acked buffers are simply freed (bounds idle memory per link while still
/// making the steady-state encode path allocation-free).
const FRAME_POOL_CAP: usize = 64;
/// Backoff ceiling while a peer is unreachable.
const MAX_BACKOFF: Duration = Duration::from_millis(1_000);

/// Default cap on buffered-but-unacknowledged message frames per link (see
/// the module docs for what overflowing it means).
pub const DEFAULT_RESEND_BUFFER_CAP: usize = 65_536;

/// Link connection states published in [`LinkStatus`].
mod state {
    /// No connection and the writer is idle (will dial on the next frame or
    /// probe).
    pub const IDLE: u8 = 0;
    /// A connection is established.
    pub const CONNECTED: u8 = 1;
    /// The writer is inside a dial/backoff loop; probing it would only queue
    /// commands it cannot serve yet.
    pub const RECONNECTING: u8 = 2;
}

/// Shared, lock-free view of one link's health, updated by the writer task
/// and read by the replica event loop (and tests). This is the "surface a
/// metric" half of the resend-buffer cap, and what lets the event loop avoid
/// flooding a reconnecting link with probes.
#[derive(Debug, Default)]
pub struct LinkStatus {
    /// The peer this link leads to (plain data, set at spawn).
    peer: ProcessId,
    /// One of the [`state`] constants.
    state: AtomicU8,
    /// Message frames handed to the link and not yet acknowledged by the
    /// peer (queued + in the resend buffer). Bounded by the link's cap.
    buffered: AtomicU64,
    /// Message frames dropped because the buffer was at its cap.
    dropped: AtomicU64,
    /// Message frames rewritten after a reconnect (retransmissions).
    resent: AtomicU64,
    /// Socket writes issued on established connections (the hello aside).
    writes: AtomicU64,
}

impl LinkStatus {
    fn new(peer: ProcessId) -> Self {
        Self {
            peer,
            ..Self::default()
        }
    }

    /// Whether the link currently has an established connection.
    pub fn is_connected(&self) -> bool {
        self.state.load(Ordering::Relaxed) == state::CONNECTED
    }

    /// Whether the writer is inside a dial/backoff loop (probes are pointless
    /// and would pile up).
    pub fn is_reconnecting(&self) -> bool {
        self.state.load(Ordering::Relaxed) == state::RECONNECTING
    }

    /// Message frames accepted but not yet acknowledged by the peer.
    pub fn buffered(&self) -> u64 {
        self.buffered.load(Ordering::Relaxed)
    }

    /// Message frames dropped at the resend-buffer cap since the link
    /// spawned. A nonzero value toward a peer that later rejoins *without*
    /// catch-up means that peer may be missing frames forever.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Message frames rewritten on a fresh connection after a reconnect —
    /// the at-least-once delivery machinery doing its job. A steadily
    /// climbing value means the link keeps dying mid-traffic.
    pub fn resent(&self) -> u64 {
        self.resent.load(Ordering::Relaxed)
    }

    /// Socket writes the writer issued since the link spawned: one per
    /// batch of due frames, one per lone control frame.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// One coherent-enough export of the whole status: the connection state
    /// plus all the counters, read once each, instead of callers
    /// assembling their own view field by field.
    pub fn snapshot(&self) -> LinkSnapshot {
        LinkSnapshot {
            peer: self.peer,
            connected: self.is_connected(),
            reconnecting: self.is_reconnecting(),
            buffered: self.buffered(),
            dropped: self.dropped(),
            resent: self.resent(),
            writes: self.writes(),
        }
    }

    fn set_state(&self, s: u8) {
        self.state.store(s, Ordering::Relaxed);
    }
}

/// What the event loop asks the link writer to do. The `Option<Instant>`
/// riding on every frame-producing command is the shaped **release
/// deadline**, stamped at enqueue time by the [`PeerLink`] handle (`None`
/// on unshaped links): computing it when the frame is handed over — not
/// when the writer gets to it — is what makes injected delays pipeline
/// like real propagation delay instead of serializing per frame.
enum LinkCmd {
    /// One event-loop turn's traffic for the peer.
    Turn {
        /// Protocol message payloads (pre-encoded `Message` bytes, shared
        /// by every link the replica fans the message out to), in order;
        /// each is sequenced, buffered and resent until acknowledged.
        msgs: Vec<Arc<Vec<u8>>>,
        /// Release deadline of each payload; empty on an unshaped link.
        deadlines: Vec<Instant>,
        /// A cumulative delivery ack for the reverse link; best-effort.
        ack: Option<(u64, Option<Instant>)>,
    },
    /// Send an executed-watermark report (GC cadence); best-effort like an
    /// ack — a lost report only delays the receiver's next GC round.
    SendWatermarks(Vec<(ProcessId, u64)>, Option<Instant>),
    /// Send a configuration-epoch announcement; best-effort like an ack —
    /// the authoritative switch travels in the replicated log, this frame
    /// only nudges lagging runtime plumbing.
    SendEpoch(Box<EpochUpdate>, Option<Instant>),
    /// The peer acknowledged every sequence `<= .0`: trim the resend buffer.
    Acked(u64),
    /// Tick-driven heartbeat: dial the peer if the link is down, then write
    /// an empty `Ack(0)` frame. A TCP write to a silently dead peer
    /// "succeeds" into its kernel buffers, so a link whose every frame is
    /// written but unacknowledged would otherwise never learn the frames are
    /// gone — the heartbeat forces a write, and a failing write triggers
    /// reconnect + resend. On the peer's side the heartbeat is the liveness
    /// signal its failure detector listens for.
    Probe(Option<Instant>),
}

/// Handle to the outbound link to one peer.
#[derive(Clone)]
pub struct PeerLink {
    tx: UnboundedSender<LinkCmd>,
    status: Arc<LinkStatus>,
    cap: u64,
    /// Injected network conditions; shared with the writer task (which
    /// checks cuts and rolls resets). The replica event loop is the only
    /// handle-side caller, so the mutex is effectively uncontended.
    shaper: Option<Arc<Mutex<LinkShaper>>>,
    /// Who owns this link and where it points — only for log messages.
    self_id: ProcessId,
    addr: SocketAddr,
}

impl std::fmt::Debug for PeerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerLink")
            .field("buffered", &self.status.buffered())
            .field("dropped", &self.status.dropped())
            .finish()
    }
}

impl std::fmt::Debug for LinkCmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkCmd::Turn { msgs, ack, .. } => write!(f, "Turn({} msgs, ack {ack:?})", msgs.len()),
            LinkCmd::SendWatermarks(wm, _) => write!(f, "SendWatermarks({} spaces)", wm.len()),
            LinkCmd::SendEpoch(update, _) => write!(f, "SendEpoch({})", update.view.epoch),
            LinkCmd::Acked(upto) => write!(f, "Acked({upto})"),
            LinkCmd::Probe(_) => write!(f, "Probe"),
        }
    }
}

impl PeerLink {
    /// Spawns the writer task for the link `self_id → peer` at `addr`, with
    /// at most `resend_buffer_cap` buffered-but-unacknowledged message
    /// frames (frames beyond the cap are dropped and counted in
    /// [`LinkStatus::dropped`]).
    ///
    /// `stop` aborts reconnect loops at shutdown; an established idle link
    /// terminates when the owning replica drops its `PeerLink` handles.
    ///
    /// `shaper` carries the injected network conditions for this directed
    /// link (`None` = unshaped, native speed); see [`crate::netem`].
    ///
    /// `epoch` is the replica's shared configuration-epoch counter; the
    /// writer stamps its current value on every outgoing frame, so a
    /// receiver can tell a pre-reconfiguration straggler from current
    /// traffic without the sender's event loop on the critical path.
    pub fn spawn(
        self_id: ProcessId,
        peer: ProcessId,
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        resend_buffer_cap: usize,
        shaper: Option<LinkShaper>,
        epoch: Arc<AtomicU64>,
    ) -> Self {
        let (tx, rx) = mpsc::unbounded_channel();
        let status = Arc::new(LinkStatus::new(peer));
        let shaper = shaper.map(|s| Arc::new(Mutex::new(s)));
        tokio::spawn(writer_task(
            self_id,
            addr,
            rx,
            stop,
            Arc::clone(&status),
            shaper.clone(),
            epoch,
        ));
        Self {
            tx,
            status,
            cap: resend_buffer_cap.max(1) as u64,
            shaper,
            self_id,
            addr,
        }
    }

    /// Stamps the shaped release deadline for a frame of roughly `bytes`
    /// handed to the link right now; `None` on an unshaped link.
    fn stamp(&self, bytes: usize) -> Option<Instant> {
        self.shaper.as_ref().map(|shaper| {
            shaper
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .release_deadline(Instant::now(), bytes)
        })
    }

    /// This link's shared health/metric view.
    pub fn status(&self) -> &LinkStatus {
        &self.status
    }

    /// Hands the link one event-loop turn's traffic for the peer: the
    /// pre-encoded protocol message payloads, in order, for (at-least-once,
    /// up to the resend-buffer cap) delivery — each rides behind an `Arc`
    /// so a fan-out to `n` peers shares one encoding — and, if the peer is
    /// owed one, a cumulative delivery ack for frames received *from* it
    /// (best-effort; it travels on this link, in the opposite direction of
    /// the frames it acknowledges). One command, one wake-up of the writer,
    /// and on an unshaped link one socket write.
    pub fn hand_off(&self, mut msgs: Vec<Arc<Vec<u8>>>, ack: Option<u64>) {
        // The cap check races nothing: the replica event loop is the only
        // caller, and the writer task only ever *decreases* `buffered`.
        let room = self.cap.saturating_sub(self.status.buffered()) as usize;
        if msgs.len() > room {
            let dropped = (msgs.len() - room) as u64;
            msgs.truncate(room);
            if self.status.dropped.fetch_add(dropped, Ordering::Relaxed) == 0 {
                // From the first drop on, this link is *gapped*: the peer's
                // received stream is no longer a prefix of what was sent,
                // and only a wiped rejoin (catch-up) restores completeness.
                // Say so once, loudly, for the operator's post-mortem.
                eprintln!(
                    "link {self_id} -> {peer} ({addr}): resend buffer full ({cap} frames); \
                     dropping frames — if this peer ever rejoins, it must use --catch-up",
                    self_id = self.self_id,
                    peer = self.status.peer,
                    addr = self.addr,
                    cap = self.cap,
                );
            }
        }
        self.status
            .buffered
            .fetch_add(msgs.len() as u64, Ordering::Relaxed);
        let deadlines = msgs
            .iter()
            .filter_map(|payload| self.stamp(payload.len() + FRAME_OVERHEAD_BYTES))
            .collect();
        let ack = ack.map(|upto| (upto, self.stamp(FRAME_OVERHEAD_BYTES)));
        if msgs.is_empty() && ack.is_none() {
            return;
        }
        // Send failure means the writer task exited (shutdown); dropping the
        // frames is then correct.
        let _ = self.tx.send(LinkCmd::Turn {
            msgs,
            deadlines,
            ack,
        });
    }

    /// Sends this replica's executed-watermark report (the GC cadence
    /// piggybacks on the peer links rather than opening new connections).
    /// Best-effort, like an ack.
    pub fn send_watermarks(&self, watermarks: Vec<(ProcessId, u64)>) {
        let deadline = self.stamp(FRAME_OVERHEAD_BYTES + 16 * watermarks.len());
        let _ = self.tx.send(LinkCmd::SendWatermarks(watermarks, deadline));
    }

    /// Sends a configuration-epoch announcement to the peer (best-effort,
    /// like an ack): the receiver uses it to update runtime plumbing —
    /// links, detector and GC membership — ahead of executing the
    /// `Reconfigure` barrier itself, and a joiner uses it to learn
    /// addresses of members it has never met.
    pub fn send_epoch(&self, update: EpochUpdate) {
        let deadline = self.stamp(FRAME_OVERHEAD_BYTES + 32 * update.addrs.len());
        let _ = self.tx.send(LinkCmd::SendEpoch(Box::new(update), deadline));
    }

    /// Records that the peer acknowledged every frame with `seq <= upto`,
    /// releasing them from the resend buffer.
    pub fn acked(&self, upto: u64) {
        let _ = self.tx.send(LinkCmd::Acked(upto));
    }

    /// Asks the writer to heartbeat the peer (dialing first if the link is
    /// down); called on every replica tick. Skipped while the writer is
    /// mid-reconnect — it could not serve the probe anyway, and unserved
    /// probes would pile up in the command queue for as long as the peer
    /// stays dead.
    pub fn probe(&self) {
        if self.status.is_reconnecting() {
            return;
        }
        let deadline = self.stamp(FRAME_OVERHEAD_BYTES);
        let _ = self.tx.send(LinkCmd::Probe(deadline));
    }
}

/// A released turn's frames go to the link of each peer — if it still has
/// one: a member removed since they were collected does not.
impl crate::turn::Links for std::collections::HashMap<ProcessId, PeerLink> {
    fn hand_off(&self, peer: ProcessId, frames: Vec<Arc<Vec<u8>>>, ack: Option<u64>) {
        if let Some(link) = self.get(&peer) {
            link.hand_off(frames, ack);
        }
    }
}

/// Approximate envelope cost of a peer frame (length prefix + `PeerFrame`
/// fields) for bandwidth accounting; exactness is irrelevant, only that
/// frame cost scales with payload size.
const FRAME_OVERHEAD_BYTES: usize = 24;

/// Sleeps until a shaped release deadline (no-op if it already passed —
/// e.g. resend-buffer frames replayed after a reconnect, which burst out
/// like a healed TCP connection's retransmission window).
async fn wait_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        tokio::time::sleep(deadline - now).await;
    }
}

/// Whether the link's injected schedule has it cut right now.
fn shaper_cut(shaper: &Option<Arc<Mutex<LinkShaper>>>) -> bool {
    shaper.as_ref().is_some_and(|s| {
        s.lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_cut(Instant::now())
    })
}

/// Rolls the link's injected connection-reset die.
fn shaper_reset(shaper: &Option<Arc<Mutex<LinkShaper>>>) -> bool {
    shaper
        .as_ref()
        .is_some_and(|s| s.lock().unwrap_or_else(|e| e.into_inner()).should_reset())
}

/// Dials `addr` and sends the peer hello, returning the write half.
async fn connect(self_id: ProcessId, addr: SocketAddr) -> std::io::Result<OwnedWriteHalf> {
    let stream = TcpStream::connect(addr).await?;
    stream.set_nodelay(true)?;
    let (_read_half, mut write_half) = stream.into_split();
    write_frame(&mut write_half, &Hello::Peer { from: self_id }).await?;
    Ok(write_half)
}

async fn writer_task(
    self_id: ProcessId,
    addr: SocketAddr,
    mut rx: mpsc::UnboundedReceiver<LinkCmd>,
    stop: Arc<AtomicBool>,
    status: Arc<LinkStatus>,
    shaper: Option<Arc<Mutex<LinkShaper>>>,
    epoch: Arc<AtomicU64>,
) {
    let mut conn: Option<OwnedWriteHalf> = None;
    let mut backoff = INITIAL_BACKOFF;
    let mut next_seq: u64 = 1;
    // Frames not yet acknowledged: `(seq, wire-ready frame — length prefix
    // included — , release deadline)`. Deadlines were stamped at enqueue; a
    // replay after a reconnect finds them long past and bursts.
    let mut unacked: VecDeque<(u64, Vec<u8>, Option<Instant>)> = VecDeque::new();
    // Frame-buffer pool: encode scratch recycled from acked resend-buffer
    // entries, so a steady-state link encodes every message frame into a
    // reused allocation. Bounded — a burst can still allocate, but the
    // retained set stays small.
    let mut pool: Vec<Vec<u8>> = Vec::new();
    // Reused encode buffer for unsequenced control frames (acks, watermark
    // reports, epoch announcements, heartbeats), which never enter the
    // resend buffer.
    let mut scratch: Vec<u8> = Vec::new();
    // Reused write buffer: every frame that is due goes out in one write.
    let mut batch: Vec<u8> = Vec::new();
    // How many frames at the front of `unacked` were already written on the
    // *current* connection; reset on reconnect so the whole buffer replays.
    let mut written: usize = 0;
    // Highest sequence ever written on *any* connection: a write at or below
    // it is a replay of the resend buffer, counted in `LinkStatus::resent`.
    let mut max_written_seq: u64 = 0;

    let control = |scratch: &mut Vec<u8>, body: PeerBodyRef<'_>| {
        encode_peer_frame_into(scratch, self_id, 0, epoch.load(Ordering::Relaxed), body)
            .expect("peer frames always encode");
    };

    while let Some(cmd) = rx.recv().await {
        // A control frame sits in `scratch`, to be written by itself right
        // away (`lone`) or behind the turn's frames, in their write (`ack`);
        // the value is its release deadline.
        let mut lone: Option<Option<Instant>> = None;
        let mut ack: Option<Option<Instant>> = None;
        match cmd {
            LinkCmd::Acked(upto) => {
                let mut trimmed: u64 = 0;
                while unacked.front().is_some_and(|(seq, _, _)| *seq <= upto) {
                    if let Some((_, buf, _)) = unacked.pop_front() {
                        if pool.len() < FRAME_POOL_CAP {
                            pool.push(buf);
                        }
                    }
                    written = written.saturating_sub(1);
                    trimmed += 1;
                }
                if trimmed > 0 {
                    status.buffered.fetch_sub(trimmed, Ordering::Relaxed);
                }
                continue;
            }
            LinkCmd::SendWatermarks(watermarks, deadline) => {
                control(&mut scratch, PeerBodyRef::Watermarks(&watermarks));
                lone = Some(deadline);
            }
            LinkCmd::SendEpoch(update, deadline) => {
                control(&mut scratch, PeerBodyRef::Epoch(&update));
                lone = Some(deadline);
            }
            LinkCmd::Probe(deadline) => {
                // Heartbeat: `Ack(0)` acknowledges nothing, so the frame is
                // pure signal — it forces a write (surfacing a silently
                // dead connection) and tells the peer's detector we live.
                control(&mut scratch, PeerBodyRef::Ack(0));
                lone = Some(deadline);
            }
            LinkCmd::Turn {
                msgs,
                deadlines,
                ack: turn_ack,
            } => {
                for (i, payload) in msgs.iter().enumerate() {
                    let seq = next_seq;
                    next_seq += 1;
                    // Encode into a pooled buffer: the shared payload is
                    // only borrowed, so fanning one message out to `n` peers
                    // costs one encoding plus `n` framed copies in reused
                    // buffers.
                    let mut frame = pool.pop().unwrap_or_default();
                    encode_peer_frame_into(
                        &mut frame,
                        self_id,
                        seq,
                        epoch.load(Ordering::Relaxed),
                        PeerBodyRef::Msg(payload),
                    )
                    .expect("peer frames always encode");
                    unacked.push_back((seq, frame, deadlines.get(i).copied()));
                }
                if let Some((upto, deadline)) = turn_ack {
                    control(&mut scratch, PeerBodyRef::Ack(upto));
                    ack = Some(deadline);
                }
            }
        }
        // The lone control frames share the dial-once-then-write shape: a
        // watermark report or heartbeat alone is not worth stalling the
        // queue with a backoff loop.
        if let Some(deadline) = lone {
            dial_once_and_write(
                self_id,
                addr,
                &stop,
                &status,
                &shaper,
                &mut conn,
                &mut written,
                &mut backoff,
                deadline,
                &scratch,
            )
            .await;
        }

        // Deliver every pending frame, reconnecting as needed, until the
        // buffer is fully on the wire or the runtime shuts down. Also
        // entered with a fully written buffer when the connection is gone
        // (e.g. a failed probe): frames "written" to a dead connection may
        // never have arrived, so they replay on the fresh one.
        while written < unacked.len() || (conn.is_none() && !unacked.is_empty()) {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            // A scheduled cut makes the link unusable: sever any live
            // connection and behave exactly like a failed dial (backoff,
            // stay RECONNECTING) until the schedule heals; the eventual
            // reconnect then replays the buffer like any real outage.
            if shaper_cut(&shaper) {
                conn = None;
                status.set_state(state::RECONNECTING);
                tokio::time::sleep(backoff).await;
                backoff = (backoff * 2).min(MAX_BACKOFF);
                continue;
            }
            let writer = match &mut conn {
                Some(writer) => writer,
                None => {
                    status.set_state(state::RECONNECTING);
                    match connect(self_id, addr).await {
                        Ok(writer) => {
                            backoff = INITIAL_BACKOFF;
                            // Fresh connection: replay the whole buffer.
                            written = 0;
                            conn.insert(writer)
                        }
                        Err(_) => {
                            tokio::time::sleep(backoff).await;
                            backoff = (backoff * 2).min(MAX_BACKOFF);
                            continue;
                        }
                    }
                }
            };
            // Honor the next frame's shaped release deadline, then gather
            // it and every frame behind it that is due as well (deadlines
            // never decrease along the buffer) into one write. The injected
            // connection-reset die (TCP's rendition of frame loss) is still
            // rolled per frame: the frame it falls on and everything behind
            // stay buffered and replay after the reconnect.
            if let Some(deadline) = unacked[written].2 {
                wait_until(deadline).await;
            }
            let now = Instant::now();
            let due = |deadline: Option<Instant>| deadline.is_none_or(|at| at <= now);
            let mut end = written;
            let mut reset = false;
            batch.clear();
            while end < unacked.len() && due(unacked[end].2) && !reset {
                reset = shaper_reset(&shaper);
                if !reset {
                    // The buffered frames are wire-ready (prefix included).
                    batch.extend_from_slice(&unacked[end].1);
                    end += 1;
                }
            }
            // The turn's ack rides behind its last frame when due by then.
            let acked = !reset && end == unacked.len() && ack.is_some_and(due);
            if acked {
                batch.extend_from_slice(&scratch);
            }
            if !batch.is_empty() {
                status.writes.fetch_add(1, Ordering::Relaxed);
                match writer.write_all(&batch).await {
                    Ok(()) => {
                        for (seq, _, _) in unacked.range(written..end) {
                            if *seq <= max_written_seq {
                                status.resent.fetch_add(1, Ordering::Relaxed);
                            } else {
                                max_written_seq = *seq;
                            }
                        }
                        written = end;
                        if acked {
                            ack = None;
                        }
                    }
                    // Connection broke mid-write: the receiver keeps the
                    // complete frames and discards the partial one with the
                    // dead connection; all of them replay on a fresh one.
                    Err(_) => reset = true,
                }
            }
            if reset {
                conn = None;
            }
        }
        // An ack with no frame to ride behind (or not due when they left).
        if let Some(deadline) = ack {
            dial_once_and_write(
                self_id,
                addr,
                &stop,
                &status,
                &shaper,
                &mut conn,
                &mut written,
                &mut backoff,
                deadline,
                &scratch,
            )
            .await;
        }
        status.set_state(if conn.is_some() {
            state::CONNECTED
        } else {
            state::IDLE
        });
    }
}

/// One dial attempt (no backoff loop) if the link is down, then one write
/// of `frame` through whatever connection exists. A fresh connection means
/// delivery of previously "written" frames is unknown, so `written` resets
/// to 0 — the writer's drain loop then replays the whole resend buffer
/// (forgetting this would strand frames written to the dead connection
/// while newer frames flow). A successful dial also resets the reconnect
/// `backoff`, so a later disconnect retries briskly instead of inheriting
/// a stale 1 s ceiling from an earlier outage.
///
/// Under a scheduled cut the control frame is simply dropped (severing any
/// live connection first): heartbeats stop crossing the cut — which is the
/// whole point, the peer's failure detector must see silence — and a lost
/// ack or watermark report is best-effort by design. The link state is
/// left alone so tick-driven probes keep arriving and re-dial the moment
/// the schedule heals.
#[allow(clippy::too_many_arguments)]
async fn dial_once_and_write(
    self_id: ProcessId,
    addr: SocketAddr,
    stop: &AtomicBool,
    status: &LinkStatus,
    shaper: &Option<Arc<Mutex<LinkShaper>>>,
    conn: &mut Option<OwnedWriteHalf>,
    written: &mut usize,
    backoff: &mut Duration,
    deadline: Option<Instant>,
    frame: &[u8],
) {
    if shaper_cut(shaper) {
        *conn = None;
        return;
    }
    if let Some(deadline) = deadline {
        wait_until(deadline).await;
    }
    if shaper_reset(shaper) {
        *conn = None;
        return;
    }
    if conn.is_none() && !stop.load(Ordering::Relaxed) {
        status.set_state(state::RECONNECTING);
        if let Ok(writer) = connect(self_id, addr).await {
            *written = 0;
            *backoff = INITIAL_BACKOFF;
            *conn = Some(writer);
        }
    }
    if let Some(writer) = conn {
        status.writes.fetch_add(1, Ordering::Relaxed);
        if writer.write_all(frame).await.is_err() {
            *conn = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// The resend buffer toward a dead peer stops growing at the cap and
    /// counts what it drops — the regression test for the unbounded-memory
    /// bug when `Cluster::kill` leaves a peer down for good.
    #[test]
    fn resend_buffer_is_capped_toward_a_dead_peer() {
        let rt = tokio::runtime::Runtime::new().unwrap();
        rt.block_on(async {
            // A port nothing listens on: every dial fails fast.
            let dead = {
                let probe = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
                probe.local_addr().unwrap()
                // listener drops here; the port is free again
            };
            let stop = Arc::new(AtomicBool::new(false));
            let cap = 32;
            let link = PeerLink::spawn(1, 2, dead, Arc::clone(&stop), cap, None, Arc::default());
            for i in 0..(cap as u64 + 50) {
                link.hand_off(vec![Arc::new(vec![i as u8; 16])], None);
            }
            assert_eq!(link.status().buffered(), cap as u64, "buffer at the cap");
            assert_eq!(link.status().dropped(), 50, "overflow counted");
            // More sends while saturated only grow the drop counter.
            link.hand_off(vec![Arc::new(vec![0; 16])], None);
            assert_eq!(link.status().buffered(), cap as u64);
            assert_eq!(link.status().dropped(), 51);
            stop.store(true, Ordering::Relaxed);
        });
    }

    /// Probes are suppressed while the writer is stuck dialing a dead peer,
    /// so tick-driven heartbeats cannot pile up in the command queue.
    #[test]
    fn probes_skip_a_reconnecting_link() {
        let rt = tokio::runtime::Runtime::new().unwrap();
        rt.block_on(async {
            let dead = {
                let probe = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
                probe.local_addr().unwrap()
            };
            let stop = Arc::new(AtomicBool::new(false));
            let link = PeerLink::spawn(1, 2, dead, Arc::clone(&stop), 8, None, Arc::default());
            // A message forces the writer into its dial/backoff loop.
            link.hand_off(vec![Arc::new(vec![1, 2, 3])], None);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !link.status().is_reconnecting() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "writer never entered the reconnect loop"
                );
                tokio::time::sleep(Duration::from_millis(5)).await;
            }
            // While reconnecting, probe() is a no-op at the handle level.
            link.probe();
            assert!(link.status().is_reconnecting());
            stop.store(true, Ordering::Relaxed);
        });
    }

    use crate::netem::{Cut, LinkRule, NetProfile};
    use crate::wire::{read_frame, PeerBody, PeerFrame};
    use std::time::Instant;

    /// Accepts one peer connection and returns the instants at which the
    /// hello and the first `count` peer frames arrived.
    async fn accept_and_time(
        listener: tokio::net::TcpListener,
        count: usize,
    ) -> (Hello, Vec<(PeerFrame, Instant)>) {
        let (stream, _) = listener.accept().await.unwrap();
        let (mut read_half, _write_half) = stream.into_split();
        let hello: Hello = read_frame(&mut read_half).await.unwrap();
        let mut frames = Vec::new();
        for _ in 0..count {
            let frame: PeerFrame = read_frame(&mut read_half).await.unwrap();
            frames.push((frame, Instant::now()));
        }
        (hello, frames)
    }

    /// A shaped link imposes (at least) its configured one-way delay on
    /// every frame, and a burst handed over together pipelines — it does
    /// not pay the delay once per frame.
    #[test]
    fn shaped_link_delays_but_pipelines_frames() {
        const DELAY: Duration = Duration::from_millis(150);
        let rt = tokio::runtime::Runtime::new().unwrap();
        rt.block_on(async {
            let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let reader = tokio::spawn(accept_and_time(listener, 8));

            let profile = NetProfile::new(1).rule(LinkRule::any().delay(DELAY));
            let shaper = profile.shaper(1, 2, Instant::now());
            let stop = Arc::new(AtomicBool::new(false));
            let link = PeerLink::spawn(1, 2, addr, Arc::clone(&stop), 64, shaper, Arc::default());

            let sent_at = Instant::now();
            for i in 0..8u8 {
                link.hand_off(vec![Arc::new(vec![i; 8])], None);
            }
            let (hello, frames) = reader.await.unwrap();
            assert_eq!(hello, Hello::Peer { from: 1 });
            let first = frames.first().unwrap().1;
            let last = frames.last().unwrap().1;
            assert!(
                first >= sent_at + DELAY,
                "first frame arrived {:?} after send — before the {DELAY:?} delay",
                first - sent_at
            );
            assert!(
                last < sent_at + 8 * DELAY,
                "burst serialized the delay per frame instead of pipelining"
            );
            stop.store(true, Ordering::Relaxed);
        });
    }

    /// A scheduled cut starves the peer of frames — heartbeat probes
    /// included — and the link resumes delivery once the window closes.
    #[test]
    fn a_cut_severs_the_link_until_it_heals() {
        const CUT: Duration = Duration::from_millis(400);
        let rt = tokio::runtime::Runtime::new().unwrap();
        rt.block_on(async {
            let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let reader = tokio::spawn(accept_and_time(listener, 1));

            // Cut from the epoch: nothing crosses for the first CUT window.
            let profile =
                NetProfile::new(1).rule(LinkRule::any().cut(Cut::window(Duration::ZERO, CUT)));
            let epoch = Instant::now();
            let shaper = profile.shaper(1, 2, epoch);
            let stop = Arc::new(AtomicBool::new(false));
            let link = PeerLink::spawn(1, 2, addr, Arc::clone(&stop), 64, shaper, Arc::default());

            // Probes during the cut are dropped without dialing; a message
            // parks in the resend buffer behind the cut.
            link.probe();
            link.hand_off(vec![Arc::new(vec![7; 8])], None);
            tokio::time::sleep(CUT / 4).await;
            link.probe();
            assert!(
                !link.status().is_connected(),
                "link connected across an open cut"
            );

            // Once the window closes, the buffered frame replays.
            let (_, frames) = reader.await.unwrap();
            let (frame, arrived) = &frames[0];
            assert!(
                *arrived >= epoch + CUT,
                "frame crossed {:?} into the cut window",
                epoch + CUT - *arrived
            );
            assert!(matches!(frame.body, PeerBody::Msg(_)));
            stop.store(true, Ordering::Relaxed);
        });
    }

    /// One hand-off is one write: 32 frames (and the ack riding behind
    /// them) handed to an unshaped link together arrive in order, from a
    /// single socket write.
    #[test]
    fn a_hand_off_of_due_frames_is_one_write() {
        let rt = tokio::runtime::Runtime::new().unwrap();
        rt.block_on(async {
            let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let reader = tokio::spawn(accept_and_time(listener, 33));
            let stop = Arc::new(AtomicBool::new(false));
            let link = PeerLink::spawn(1, 2, addr, Arc::clone(&stop), 64, None, Arc::default());

            let frames = (0..32u8).map(|i| Arc::new(vec![i; 8])).collect();
            link.hand_off(frames, Some(9));
            let (_, frames) = reader.await.unwrap();
            for (i, (frame, _)) in frames[..32].iter().enumerate() {
                assert_eq!(frame.seq, i as u64 + 1, "sequence numbers stay per frame");
                assert_eq!(frame.body, PeerBody::Msg(vec![i as u8; 8]));
            }
            assert_eq!(frames[32].0.body, PeerBody::Ack(9), "the ack rides last");
            assert_eq!(link.status().buffered(), 32, "all in the resend buffer");
            assert!(
                link.status().writes() <= 2,
                "{} socket writes for one hand-off",
                link.status().writes()
            );
            stop.store(true, Ordering::Relaxed);
        });
    }

    /// Coalescing never sends a frame early: on a rate-limited link every
    /// frame of a hand-off still waits for its own stamped deadline, so
    /// only frames already due share a write.
    #[test]
    fn a_shaped_hand_off_keeps_every_frames_deadline() {
        const DELAY: Duration = Duration::from_millis(40);
        // 1 KiB frames at 25 KiB/s: deadlines ~40 ms apart.
        const SPACING: Duration = Duration::from_millis(40);
        let rt = tokio::runtime::Runtime::new().unwrap();
        rt.block_on(async {
            let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let reader = tokio::spawn(accept_and_time(listener, 6));
            let profile = NetProfile::new(1).rule(LinkRule::any().delay(DELAY).rate(25 << 10));
            let shaper = profile.shaper(1, 2, Instant::now());
            let stop = Arc::new(AtomicBool::new(false));
            let link = PeerLink::spawn(1, 2, addr, Arc::clone(&stop), 64, shaper, Arc::default());

            let sent_at = Instant::now();
            link.hand_off((0..6u8).map(|i| Arc::new(vec![i; 1000])).collect(), None);
            let (_, frames) = reader.await.unwrap();
            for (i, (frame, arrived)) in frames.iter().enumerate() {
                assert_eq!(frame.seq, i as u64 + 1);
                let earliest = sent_at + DELAY + SPACING * (i as u32 + 1);
                assert!(
                    *arrived >= earliest,
                    "frame {i} left {:?} before its deadline",
                    earliest - *arrived
                );
            }
            assert!(link.status().writes() > 1, "frames not yet due were held");
            stop.store(true, Ordering::Relaxed);
        });
    }
}
