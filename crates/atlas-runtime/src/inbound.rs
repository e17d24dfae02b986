//! The replica's inbound side: the tasks that turn sockets and the clock
//! into [`Event`]s on the event loop's one queue.
//!
//! * an **acceptor** on the replica's listen address; each inbound
//!   connection identifies itself with a [`Hello`] frame and becomes a peer
//!   reader, a client session, or a one-shot catch-up exchange;
//! * one **peer reader** per inbound peer connection, bulk-reading
//!   [`PeerFrame`](crate::wire::PeerFrame)s ([`FrameReader`]) into peer
//!   events;
//! * one **client session** per connected client: a reader turning each
//!   `Submit` request into one submit event and a writer sending each burst
//!   of that session's replies in one write;
//! * a **ticker** emitting tick events at a fixed cadence.
//!
//! Outside input is checked here, before it becomes an event: a peer frame
//! must name the sender its connection said hello as, and a client may only
//! submit commands under its own identifier, none of them a batch, in a
//! request of at most [`MAX_REQUEST_BYTES`]. A connection that breaks any
//! rule is dropped with the offending frame.

use crate::wire::{
    append_frame, decode_payload, decode_peer_frame, frame_payload_into, read_frame, ClientReply,
    ClientRequest, EpochUpdate, FrameReader, Hello, PeerBodyView, Probe, MAX_REQUEST_BYTES,
};
use atlas_core::{ClientId, Command, ProcessId};
use serde::Deserialize;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::io::AsyncWriteExt;
use tokio::net::tcp::{OwnedReadHalf, OwnedWriteHalf};
use tokio::net::TcpListener;
use tokio::sync::mpsc::{self, UnboundedSender};

/// Where a session writer stops draining replies into one write.
const REPLY_BURST_BYTES: usize = 64 << 10;

/// Everything that can happen to a replica, funnelled into one queue so the
/// event loop is the single owner of protocol state (no locks anywhere).
/// A peer event carries the sender's configuration `epoch` when the frame
/// was queued.
pub(crate) enum Event<M> {
    /// A protocol message from peer `from`: link sequence `seq` (0 =
    /// unsequenced), the encoded `payload` exactly as received (journaled
    /// verbatim) and its decoded `msg`.
    Peer {
        from: ProcessId,
        seq: u64,
        epoch: u64,
        payload: Vec<u8>,
        msg: M,
    },
    /// Peer `from` cumulatively acknowledged our frames up to `upto`.
    PeerAck {
        from: ProcessId,
        epoch: u64,
        upto: u64,
    },
    /// Peer `from` reported its executed watermarks, per identifier space.
    PeerWatermarks {
        from: ProcessId,
        epoch: u64,
        watermarks: Vec<(ProcessId, u64)>,
    },
    /// Peer `from` sent a heartbeat probe, which the reader took off the
    /// socket at `at`.
    PeerProbe {
        from: ProcessId,
        epoch: u64,
        probe: Probe,
        at: Instant,
    },
    /// Peer `from` announced a configuration view and member addresses.
    PeerEpoch {
        from: ProcessId,
        update: EpochUpdate,
    },
    /// A local client submitted one request (`cmds` in submission order);
    /// its replies go to `session` from now on.
    Submit {
        cmds: Vec<Command>,
        session: UnboundedSender<ClientReply>,
    },
    /// The connection of client `client` whose replies went to `session`
    /// stopped reading: its route goes, unless a newer connection of the
    /// client owns it by now.
    SessionClosed {
        client: ClientId,
        session: UnboundedSender<ClientReply>,
    },
    /// The journal's snapshot writer finished the cut covering the WAL up
    /// to `index`; `Ok(false)`: abandoned, the replica is stopping.
    SnapshotWritten {
        index: u64,
        result: io::Result<bool>,
    },
    /// A client asked for the execution summary.
    Query {
        session: UnboundedSender<ClientReply>,
    },
    /// A client asked for bookkeeping statistics.
    Stats {
        session: UnboundedSender<ClientReply>,
    },
    /// Recovering replica `from` asked for our committed state; the encoded
    /// chunk frames go to `reply`, one send per chunk (the acceptor task
    /// writes them back in order and hangs up when the channel drains).
    CatchUp {
        from: ProcessId,
        reply: UnboundedSender<Vec<u8>>,
    },
    /// Periodic tick.
    Tick,
    /// Stop the event loop.
    Shutdown,
}

impl<M> Event<M> {
    /// The peer a peer frame came from and the configuration epoch it was
    /// stamped with (an announcement's own epoch); `None` for other events.
    pub fn sender(&self) -> Option<(ProcessId, u64)> {
        match self {
            Event::Peer { from, epoch, .. }
            | Event::PeerAck { from, epoch, .. }
            | Event::PeerWatermarks { from, epoch, .. }
            | Event::PeerProbe { from, epoch, .. } => Some((*from, *epoch)),
            Event::PeerEpoch { from, update } => Some((*from, update.view.epoch)),
            _ => None,
        }
    }
}

/// Accepts inbound connections and classifies them by their hello frame.
pub(crate) async fn acceptor<M>(
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
/// at EOF / connection error (the peer will redial), and drops a connection
/// whose frames name another sender than its hello did.
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
        if frame.from != from {
            return; // a frame posing as another replica
        }
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
            PeerBodyView::Probe(probe) => Event::PeerProbe {
                from,
                epoch: frame.epoch,
                probe,
                at: Instant::now(),
            },
        };
        if event_tx.send(event).is_err() {
            return; // event loop gone: replica is shutting down
        }
    }
}

/// One connected client: forwards submissions into the event loop and drains
/// the session's replies back into the socket. A submission carrying a
/// command under another client's identifier drops the connection: replies
/// are routed by that identifier, so accepting it would hand this
/// connection another client's replies. So does a batch (the replica builds
/// those, and its parts' identifiers go unchecked here) and a request over
/// [`MAX_REQUEST_BYTES`], whose instance might not fit in a frame. However
/// the reader ends, the loop hears of it, so the route it holds to the
/// writer goes and the writer ends with the socket.
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
        if payload.len() > MAX_REQUEST_BYTES {
            break;
        }
        let session = reply_tx.clone();
        let event = match decode_payload(payload) {
            Ok(ClientRequest::Submit { cmds }) => {
                if cmds
                    .iter()
                    .any(|cmd| cmd.rifl.client != client || cmd.is_batch())
                {
                    break; // a command posing as another client's
                }
                // One event: the loop journals and syncs a request as a unit.
                Event::Submit { cmds, session }
            }
            Ok(ClientRequest::ExecutionLog) => Event::Query { session },
            Ok(ClientRequest::Stats) => Event::Stats { session },
            Err(_) => break, // garbage; drop the connection
        };
        if event_tx.send(event).is_err() {
            return;
        }
    }
    let _ = event_tx.send(Event::SessionClosed {
        client,
        session: reply_tx,
    });
}

/// Emits `Event::Tick` at a fixed cadence until shutdown.
pub(crate) async fn ticker<M>(
    period: Duration,
    event_tx: UnboundedSender<Event<M>>,
    stop: Arc<AtomicBool>,
) {
    let mut interval = tokio::time::interval(period);
    loop {
        interval.tick().await;
        if stop.load(Ordering::Relaxed) || event_tx.send(Event::Tick).is_err() {
            return;
        }
    }
}
