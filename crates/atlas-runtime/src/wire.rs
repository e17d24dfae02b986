//! Wire format of the networked runtime.
//!
//! Every connection — replica↔replica and client↔replica — carries
//! **length-prefixed bincode frames**: a little-endian `u32` payload length
//! followed by the bincode encoding of one value. The first frame on any
//! inbound connection is a [`Hello`] identifying the dialer; everything after
//! depends on the connection kind:
//!
//! * peer connections are **unidirectional**: the dialer only writes
//!   [`PeerFrame`]s (its protocol messages, delivery acknowledgements and
//!   executed-watermark reports), the acceptor only reads;
//! * client connections are bidirectional: [`ClientRequest`] frames flow in,
//!   [`ClientReply`] frames flow out;
//! * catch-up connections ([`Hello::CatchUp`]) carry a **stream of
//!   bounded-size [`CatchUpChunk`]s** back to the dialer — an executed-state
//!   base (store records, execution-record slices, the protocol's executed
//!   marker) followed by the server's retained committed log — and are
//!   closed after the chunk flagged [`last`](CatchUpChunk::last). Chunking
//!   is what lets a long-lived replica's history exceed
//!   [`MAX_FRAME_BYTES`]: no single frame ever has to carry the whole
//!   committed log.
//!
//! Protocol messages are carried as an opaque `Vec<u8>` payload inside
//! [`PeerFrame`] (bincode within bincode) so the envelope types stay
//! non-generic while the runtime remains generic over the hosted
//! [`Protocol`](atlas_core::Protocol)'s message type.
//!
//! ## Reliable delivery
//!
//! Each [`PeerFrame`] carrying a message also carries a per-link **sequence
//! number**; the receiver acknowledges delivery (cumulatively, after
//! journaling the message when durability is on) with [`PeerBody::Ack`]
//! frames flowing over its own link in the opposite direction. The sender
//! keeps every unacknowledged frame in a resend buffer and replays the
//! buffer after a reconnect, which upgrades links from "at most once across
//! reconnects" to **at least once**; the hosted protocols are idempotent
//! against the resulting duplicates. This is the acknowledgement layer the
//! durability subsystem needs so that a replica restarting from its journal
//! still receives everything peers sent while it was down.

use atlas_core::{ClientId, ClusterView, Command, Key, ProcessId, Rifl};
use atlas_metrics::MetricsSnapshot;
use kvstore::{ExecutionSummary, Output, Slot};
use serde::{Deserialize, Serialize};
use std::io;
use tokio::io::{AsyncReadExt, AsyncWriteExt};

/// Upper bound on a frame payload; guards against corrupted length prefixes.
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// Upper bound on a client request's frame payload; a session that sends a
/// longer one is dropped. A request becomes one instance, and the instance
/// must fit in every frame it travels in — a peer frame, a catch-up chunk
/// — and a journal record, whose envelopes, dot, ballots and quorum take
/// well under 64 KiB. The instance is its command plus its dependencies:
/// the command encodes in no more bytes than the request did (a batch's
/// part spends less than a command), and every key in it costs at least 12
/// bytes of the request (the key and its operation's tag) and contributes
/// at most one 12-byte dependency, the key's last write. (A write also
/// depends on the reads of its key since that write, which this does not
/// bound.) So an instance stays within twice the request plus 64 KiB.
pub const MAX_REQUEST_BYTES: usize = (MAX_FRAME_BYTES - (64 << 10)) / 2;

/// First frame on every connection: who is dialing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Hello {
    /// A fellow replica; subsequent frames are [`PeerFrame`]s.
    Peer {
        /// The dialing replica.
        from: ProcessId,
    },
    /// A client; subsequent frames are [`ClientRequest`]s.
    Client {
        /// The dialing client.
        client: ClientId,
    },
    /// A replica rebuilding its state asks for a catch-up stream; the
    /// acceptor answers with a sequence of [`CatchUpChunk`] frames (the
    /// final one flagged [`last`](CatchUpChunk::last)) and closes the
    /// connection.
    CatchUp {
        /// The recovering replica.
        from: ProcessId,
    },
}

/// One frame on a peer connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerFrame {
    /// The sending replica.
    pub from: ProcessId,
    /// Per-link sequence number of a [`PeerBody::Msg`] frame (1-based,
    /// assigned by the sender's link writer); 0 for unsequenced control
    /// frames such as acks.
    pub seq: u64,
    /// Configuration epoch of the sender when the frame was queued. Lets a
    /// receiver drop `Msg` stragglers from replicas that are no longer
    /// members *and* whose frames predate the receiver's epoch, and tells
    /// it when a peer lags behind (prompting a [`PeerBody::Epoch`]).
    pub epoch: u64,
    /// What the frame carries.
    pub body: PeerBody,
}

/// Payload of a [`PeerFrame`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeerBody {
    /// bincode encoding of the protocol's `Message` type.
    Msg(Vec<u8>),
    /// Cumulative delivery acknowledgement: the sender of this frame has
    /// received (and, when durability is on, journaled) every `Msg` frame
    /// with sequence `<=` the value on the *reverse* link.
    Ack(u64),
    /// The sender's [`executed
    /// watermarks`](atlas_core::Protocol::executed_watermarks), broadcast
    /// on the garbage-collection cadence. Unsequenced and best-effort like
    /// acks: a lost report merely delays the receiver's next GC round (the
    /// pointwise minimum over *last known* reports is always a safe
    /// horizon — watermarks only rise on a live replica).
    Watermarks(Vec<(ProcessId, u64)>),
    /// A configuration-epoch announcement, sent to peers whose frames show
    /// an older epoch. Best-effort and unsequenced: the authoritative
    /// switch is the `Reconfigure` barrier in the log; this frame only
    /// updates *runtime* plumbing (links, detector, GC peer set) of
    /// replicas that have not executed the barrier yet — e.g. a joiner
    /// that must dial members it has never met.
    Epoch(EpochUpdate),
    /// The tick heartbeat, which also measures the link's round trip.
    Probe(Probe),
}

/// A heartbeat that carries an NTP-style round-trip sample. The receiver of
/// a probe whose `echo` is its own earlier `stamp` measures the round trip
/// as `now − echo − held`, all but `held` on its own clock, so the two
/// replicas' clocks need not agree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Probe {
    /// When the sender wrote this probe (µs, sender's clock; never 0).
    pub stamp: u64,
    /// The `stamp` of the last probe the sender received from the
    /// receiver (0: none yet).
    pub echo: u64,
    /// µs between the sender receiving that probe and writing this one.
    pub held: u64,
}

/// Payload of a [`PeerBody::Epoch`] announcement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochUpdate {
    /// The announced view.
    pub view: ClusterView,
    /// Address of every process in [`ClusterView::all_members`] (current
    /// and, during a joint window, outgoing members), so a receiver can
    /// dial members it has never met.
    pub addrs: Vec<(ProcessId, String)>,
}

/// One frame of the streamed answer to a [`Hello::CatchUp`] request.
///
/// The serving replica sends `Start`, then the executed-state base (its
/// `Store` slots), then its retained committed log as `Msgs` — every frame
/// bounded by the configured chunk budget, the final one flagged
/// [`last`](CatchUpChunk::last). The receiver applies
/// chunks incrementally, but installs the base **atomically** when the
/// first post-base chunk arrives, so a mid-stream disconnect leaves it
/// either untouched or fully based — never half-based — and a retry (same
/// peer or another) is always clean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatchUpChunk {
    /// 0-based position of this chunk in the stream; the receiver rejects
    /// gaps (a skipped frame means the stream is corrupt, not shorter).
    pub seq: u32,
    /// Whether this is the final chunk of the stream.
    pub last: bool,
    /// What the chunk carries.
    pub payload: CatchUpPayload,
}

/// Payload of one [`CatchUpChunk`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CatchUpPayload {
    /// First chunk of every stream.
    Start {
        /// Highest identifier sequence the serving replica has seen from
        /// the requester (committed or in flight); the requester must not
        /// reissue identifiers at or below it.
        horizon: u64,
        /// The serving protocol's [`executed
        /// marker`](atlas_core::Protocol::save_executed): which identifiers
        /// the transferred store already reflects.
        executed: Vec<u8>,
        /// The serving store's executed-command counter.
        store_executed: u64,
        /// The serving store's [`ExecutionSummary::set`] word; the `Store`
        /// slots carry the rest of its summary.
        store_set: u64,
        /// The serving replica's runtime configuration view, so a joiner
        /// bootstrapping into a reconfigured cluster learns the current
        /// member set before its first epoch announcement arrives.
        view: ClusterView,
        /// Address of every process in `view` (current and outgoing).
        addrs: Vec<(ProcessId, String)>,
    },
    /// A slice of the serving replica's store slots, in key order.
    Store(Vec<(Key, Slot)>),
    /// bincode encodings of the serving replica's retained
    /// [`committed_log`](atlas_core::Protocol::committed_log) — executed
    /// entries included, since an entry executed at this server may be
    /// unknown to the peer whose base the receiver installed; base-covered
    /// entries replay as idempotent no-ops.
    Msgs(Vec<Vec<u8>>),
}

/// Requests a client sends to its replica.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientRequest {
    /// Submit a batch of commands; one [`ClientReply::Executed`] comes back
    /// per command, in execution order (not necessarily submission order).
    Submit {
        /// The batched commands.
        cmds: Vec<Command>,
    },
    /// Ask for what the replica executed (testing/inspection): one
    /// [`ClientReply::ExecutionLog`].
    ExecutionLog,
    /// Ask for the replica's full [`MetricsSnapshot`] — command-lifecycle
    /// latencies, protocol path counters, durability/detector/GC/link
    /// telemetry plus the bookkeeping numbers garbage collection keeps
    /// bounded. Served by `atlas-top`, tests and anything else that wants a
    /// live view without touching the replica's data directory.
    Stats,
}

/// Replies a replica sends to a client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientReply {
    /// A command this client submitted was executed.
    Executed {
        /// The command's request identifier.
        rifl: Rifl,
        /// Per-key outputs of the execution.
        outputs: Vec<(Key, Output)>,
    },
    /// The summary of what the replica executed so far, one frame
    /// whatever the history's length.
    ExecutionLog {
        /// The store's [`ExecutionSummary`].
        summary: ExecutionSummary,
        /// Digest of the store's values.
        digest: u64,
    },
    /// The replica's metrics snapshot. Histograms ship in full (bounded,
    /// ~8 KiB each) so consumers can merge across replicas *before* taking
    /// percentiles; the bookkeeping numbers the old reply carried live in
    /// [`MetricsSnapshot::tracked_entries`] and
    /// [`MetricsSnapshot::store_executed`].
    Stats {
        /// Everything the replica measures, in one coherent-enough cut.
        snapshot: Box<MetricsSnapshot>,
    },
}

fn encode_err(e: bincode::Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn oversize_err(len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES} byte cap"),
    )
}

/// Encodes `value` as one length-prefixed frame *into* `buf`, clearing it
/// first: the 4-byte prefix and the payload share the allocation, so a
/// caller that keeps `buf` across frames produces wire-ready bytes
/// (`writer.write_all(&buf)`) with zero steady-state allocations.
pub fn encode_frame_into<T>(buf: &mut Vec<u8>, value: &T) -> io::Result<()>
where
    T: Serialize,
{
    buf.clear();
    append_frame(buf, value)
}

/// Appends one length-prefixed frame to `buf`, keeping what is there: a
/// writer that drains a burst encodes it into one buffer and writes once.
/// After an error `buf` ends in a torn frame and must not be sent.
pub fn append_frame<T: Serialize>(buf: &mut Vec<u8>, value: &T) -> io::Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    bincode::serialize_into(buf, value).map_err(encode_err)?;
    let len = buf.len() - start - 4;
    if len > MAX_FRAME_BYTES {
        return Err(oversize_err(len));
    }
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Frames pre-encoded `payload` bytes into `buf` (clearing it first) —
/// the reusable-buffer counterpart of [`write_raw_frame`]. Rejects
/// oversize payloads like [`encode_frame_into`] does: sending one would
/// only move the failure to the receiver, which drops the connection on
/// the oversized length prefix — an encode-side bug disguised as a remote
/// disconnect.
pub fn frame_payload_into(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(oversize_err(payload.len()));
    }
    buf.clear();
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// Borrowed view of a [`PeerBody`] for allocation-free encoding. The manual
/// [`Serialize`] impl mirrors the derived one on the owned enum — same
/// variant tags, same field order — so the two encode byte-identically
/// (pinned by the `borrowed_peer_frames_encode_like_owned` test).
#[derive(Debug, Clone, Copy)]
pub enum PeerBodyRef<'a> {
    /// See [`PeerBody::Msg`].
    Msg(&'a [u8]),
    /// See [`PeerBody::Ack`].
    Ack(u64),
    /// See [`PeerBody::Watermarks`].
    Watermarks(&'a [(ProcessId, u64)]),
    /// See [`PeerBody::Epoch`].
    Epoch(&'a EpochUpdate),
    /// See [`PeerBody::Probe`].
    Probe(Probe),
}

impl Serialize for PeerBodyRef<'_> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            PeerBodyRef::Msg(bytes) => {
                0u32.serialize(out);
                (**bytes).serialize(out);
            }
            PeerBodyRef::Ack(upto) => {
                1u32.serialize(out);
                upto.serialize(out);
            }
            PeerBodyRef::Watermarks(watermarks) => {
                2u32.serialize(out);
                (**watermarks).serialize(out);
            }
            PeerBodyRef::Epoch(update) => {
                3u32.serialize(out);
                update.serialize(out);
            }
            PeerBodyRef::Probe(probe) => {
                4u32.serialize(out);
                probe.serialize(out);
            }
        }
    }
}

/// Encodes one length-prefixed [`PeerFrame`] into `buf` (clearing it first)
/// without owning the body: a link writer encodes a message payload it only
/// borrows — e.g. behind an `Arc` shared across fan-out targets — straight
/// into a pooled buffer.
pub fn encode_peer_frame_into(
    buf: &mut Vec<u8>,
    from: ProcessId,
    seq: u64,
    epoch: u64,
    body: PeerBodyRef<'_>,
) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]);
    // Field order must match the derived encoding of `PeerFrame`.
    from.serialize(buf);
    seq.serialize(buf);
    epoch.serialize(buf);
    body.serialize(buf);
    let len = buf.len() - 4;
    if len > MAX_FRAME_BYTES {
        return Err(oversize_err(len));
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Decoded [`PeerFrame`] whose `Msg` payload borrows from the input buffer
/// (control bodies are small and decode owned). Pairs with
/// [`FrameReader`]: the receive path reuses one buffer per connection and
/// copies only the protocol payload out of it.
#[derive(Debug, PartialEq, Eq)]
pub struct PeerFrameView<'a> {
    /// See [`PeerFrame::from`].
    pub from: ProcessId,
    /// See [`PeerFrame::seq`].
    pub seq: u64,
    /// See [`PeerFrame::epoch`].
    pub epoch: u64,
    /// See [`PeerFrame::body`].
    pub body: PeerBodyView<'a>,
}

/// Body of a [`PeerFrameView`].
#[derive(Debug, PartialEq, Eq)]
pub enum PeerBodyView<'a> {
    /// Protocol message payload, borrowed from the frame buffer.
    Msg(&'a [u8]),
    /// See [`PeerBody::Ack`].
    Ack(u64),
    /// See [`PeerBody::Watermarks`].
    Watermarks(Vec<(ProcessId, u64)>),
    /// See [`PeerBody::Epoch`].
    Epoch(EpochUpdate),
    /// See [`PeerBody::Probe`].
    Probe(Probe),
}

fn decode_err(e: serde::Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Decodes a [`PeerFrame`] from its (unprefixed) payload bytes, borrowing
/// the `Msg` body instead of copying it into a fresh `Vec`. Rejects
/// trailing garbage like `bincode::deserialize`.
pub fn decode_peer_frame(payload: &[u8]) -> io::Result<PeerFrameView<'_>> {
    let mut reader = serde::Reader::new(payload);
    let from = ProcessId::deserialize(&mut reader).map_err(decode_err)?;
    let seq = u64::deserialize(&mut reader).map_err(decode_err)?;
    let epoch = u64::deserialize(&mut reader).map_err(decode_err)?;
    let tag = u32::deserialize(&mut reader).map_err(decode_err)?;
    let body = match tag {
        0 => {
            let len = reader.take_len().map_err(decode_err)?;
            PeerBodyView::Msg(reader.take(len).map_err(decode_err)?)
        }
        1 => PeerBodyView::Ack(u64::deserialize(&mut reader).map_err(decode_err)?),
        2 => PeerBodyView::Watermarks(
            Vec::<(ProcessId, u64)>::deserialize(&mut reader).map_err(decode_err)?,
        ),
        3 => PeerBodyView::Epoch(EpochUpdate::deserialize(&mut reader).map_err(decode_err)?),
        4 => PeerBodyView::Probe(Probe::deserialize(&mut reader).map_err(decode_err)?),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown PeerBody variant tag {other}"),
            ))
        }
    };
    if reader.remaining() != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} trailing bytes after peer frame", reader.remaining()),
        ));
    }
    Ok(PeerFrameView {
        from,
        seq,
        epoch,
        body,
    })
}

/// Writes one length-prefixed frame containing the bincode encoding of
/// `value`. One-shot convenience over [`encode_frame_into`]; hot paths keep
/// a scratch buffer and call the latter directly.
pub async fn write_frame<W, T>(writer: &mut W, value: &T) -> io::Result<()>
where
    W: AsyncWriteExt,
    T: Serialize,
{
    let mut buf = Vec::new();
    encode_frame_into(&mut buf, value)?;
    writer.write_all(&buf).await
}

/// Writes one length-prefixed frame around pre-encoded `payload` bytes.
/// Oversize payloads are rejected before any bytes hit the socket (see
/// [`frame_payload_into`]).
pub async fn write_raw_frame<W: AsyncWriteExt>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    // One write_all for the whole frame: a frame is either fully queued on
    // the socket or the connection is considered broken (and the link layer
    // resends the frame on a fresh connection).
    let mut buf = Vec::with_capacity(4 + payload.len());
    frame_payload_into(&mut buf, payload)?;
    writer.write_all(&buf).await
}

/// Decodes a frame payload as a `T`.
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> io::Result<T> {
    bincode::deserialize(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Reads one length-prefixed frame with two exact reads and decodes it as a
/// `T` — for one-shot exchanges (the `Hello`, a catch-up stream). It takes
/// exactly the frame's bytes off the socket, so the read half can go to a
/// [`FrameReader`] afterwards; never the other way round.
pub async fn read_frame<R, T>(reader: &mut R) -> io::Result<T>
where
    R: AsyncReadExt,
    T: Deserialize,
{
    let mut len_buf = [0u8; 4];
    reader.read_exact(&mut len_buf).await?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(oversize_err(len));
    }
    let mut payload = vec![0; len];
    reader.read_exact(&mut payload).await?;
    decode_payload(&payload)
}

/// Initial size of a [`FrameReader`]'s buffer; a larger frame grows it.
const READ_BUF_BYTES: usize = 8 << 10;

/// Buffered frame reading for a long-lived connection: one reusable buffer
/// filled by bulk reads, frames served out of it as borrowed slices — a
/// burst of frames costs one `read`, not two per frame. It reads ahead, so
/// it **owns** the read half from creation on; create it only after the
/// exact-length [`read_frame`] of the `Hello`.
#[derive(Debug)]
pub struct FrameReader<R> {
    reader: R,
    buf: Vec<u8>,
    /// `buf[start..end]` holds received bytes not yet served.
    start: usize,
    end: usize,
}

impl<R: AsyncReadExt> FrameReader<R> {
    /// Takes ownership of `reader`.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// The next frame's payload; `None` when the peer closed between
    /// frames. Serves a complete buffered frame, or moves the partial one to
    /// the front and issues **one** read into the space behind it.
    pub async fn next(&mut self) -> io::Result<Option<&[u8]>> {
        loop {
            let have = self.end - self.start;
            let mut need = 4;
            if let Some(prefix) = self.buf[self.start..self.end].first_chunk::<4>() {
                let len = u32::from_le_bytes(*prefix) as usize;
                // Checked before any space is reserved for it.
                if len > MAX_FRAME_BYTES {
                    return Err(oversize_err(len));
                }
                need += len;
                if have >= need {
                    let payload = self.start + 4..self.start + need;
                    self.start = payload.end;
                    return Ok(Some(&self.buf[payload]));
                }
            }
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, have);
            if self.buf.len() < need.max(READ_BUF_BYTES) {
                self.buf.resize(need.max(READ_BUF_BYTES), 0);
            }
            match self.reader.read(&mut self.buf[have..]).await? {
                0 if have == 0 => return Ok(None),
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                n => self.end += n,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::{Command, Config, DepSet, Dot, Rifl, Topology};
    use atlas_protocol::Message as AtlasMessage;

    #[test]
    fn atlas_messages_round_trip_through_bincode() {
        let cmd = Command::put(Rifl::new(7, 3), 42, 9, 100);
        let msgs = vec![
            AtlasMessage::MCollect {
                dot: Dot::new(1, 1),
                cmd: cmd.clone(),
                past: [Dot::new(2, 1), Dot::new(3, 5)].into_iter().collect(),
                quorum: vec![1, 2, 3],
            },
            AtlasMessage::MCollectAck {
                dot: Dot::new(1, 1),
                deps: DepSet::new(),
            },
            AtlasMessage::MCommit {
                dot: Dot::new(1, 1),
                cmd: cmd.clone(),
                deps: [Dot::new(9, 9)].into_iter().collect(),
            },
        ];
        for msg in msgs {
            let bytes = bincode::serialize(&msg).unwrap();
            let back: AtlasMessage = bincode::deserialize(&bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn baseline_messages_round_trip_through_bincode() {
        let cmd = Command::put(Rifl::new(1, 1), 0, 1, 64);
        let fpx = fpaxos::Message::MPromise {
            ballot: 12,
            accepted: [(3u64, (7u64, cmd.clone()))].into_iter().collect(),
        };
        let bytes = bincode::serialize(&fpx).unwrap();
        assert_eq!(
            bincode::deserialize::<fpaxos::Message>(&bytes).unwrap(),
            fpx
        );

        let men = mencius::Message::MSkip {
            slots: vec![1, 4, 7],
        };
        let bytes = bincode::serialize(&men).unwrap();
        assert_eq!(
            bincode::deserialize::<mencius::Message>(&bytes).unwrap(),
            men
        );
    }

    #[test]
    fn wire_envelopes_round_trip() {
        let hello = Hello::Peer { from: 3 };
        let bytes = bincode::serialize(&hello).unwrap();
        assert_eq!(bincode::deserialize::<Hello>(&bytes).unwrap(), hello);

        let req = ClientRequest::Submit {
            cmds: vec![Command::get(Rifl::new(5, 1), 11)],
        };
        let bytes = bincode::serialize(&req).unwrap();
        assert_eq!(bincode::deserialize::<ClientRequest>(&bytes).unwrap(), req);

        let reply = ClientReply::Executed {
            rifl: Rifl::new(5, 1),
            outputs: vec![(11, Output::Value(Some(9)))],
        };
        let bytes = bincode::serialize(&reply).unwrap();
        assert_eq!(bincode::deserialize::<ClientReply>(&bytes).unwrap(), reply);

        let summary = ExecutionSummary {
            executed: 3,
            set: 11,
            order: 12,
        };
        let reply = ClientReply::ExecutionLog { summary, digest: 7 };
        let bytes = bincode::serialize(&reply).unwrap();
        assert_eq!(bincode::deserialize::<ClientReply>(&bytes).unwrap(), reply);

        let mut snapshot = MetricsSnapshot {
            replica: 2,
            protocol: "atlas".to_string(),
            uptime_us: 123_456,
            tracked_entries: 7,
            store_executed: 99,
            ..MetricsSnapshot::default()
        };
        snapshot.lifecycle.submitted = 5;
        snapshot.lifecycle.submit_to_replied.record(1_500);
        snapshot.gc.horizon = vec![(1, 10), (2, 7)];
        let stats = ClientReply::Stats {
            snapshot: Box::new(snapshot),
        };
        let bytes = bincode::serialize(&stats).unwrap();
        assert_eq!(bincode::deserialize::<ClientReply>(&bytes).unwrap(), stats);

        let watermarks = PeerBody::Watermarks(vec![(1, 10), (2, 7)]);
        let bytes = bincode::serialize(&watermarks).unwrap();
        assert_eq!(
            bincode::deserialize::<PeerBody>(&bytes).unwrap(),
            watermarks
        );

        let mut view = atlas_core::ClusterView::initial(Config::new(3, 1));
        view = view.enter(&[1, 2, 4], 1).unwrap();
        let epoch = PeerFrame {
            from: 2,
            seq: 0,
            epoch: 1,
            body: PeerBody::Epoch(EpochUpdate {
                view,
                addrs: vec![
                    (1, "127.0.0.1:7001".to_string()),
                    (2, "127.0.0.1:7002".to_string()),
                    (3, "127.0.0.1:7003".to_string()),
                    (4, "127.0.0.1:7004".to_string()),
                ],
            }),
        };
        let bytes = bincode::serialize(&epoch).unwrap();
        assert_eq!(bincode::deserialize::<PeerFrame>(&bytes).unwrap(), epoch);
    }

    fn slot(value: u64) -> Slot {
        Slot {
            value: Some(value),
            chain: value + 1,
        }
    }

    #[test]
    fn catch_up_chunks_round_trip() {
        let chunks = vec![
            CatchUpChunk {
                seq: 0,
                last: false,
                payload: CatchUpPayload::Start {
                    horizon: 42,
                    executed: vec![1, 2, 3],
                    store_executed: 17,
                    store_set: 5,
                    view: atlas_core::ClusterView::initial(Config::new(3, 1)),
                    addrs: vec![(1, "127.0.0.1:7001".to_string())],
                },
            },
            CatchUpChunk {
                seq: 1,
                last: false,
                payload: CatchUpPayload::Store(vec![(1, slot(10)), (2, slot(20))]),
            },
            CatchUpChunk {
                seq: 2,
                last: true,
                payload: CatchUpPayload::Msgs(vec![vec![0xAB; 16]]),
            },
        ];
        for chunk in chunks {
            let bytes = bincode::serialize(&chunk).unwrap();
            assert_eq!(bincode::deserialize::<CatchUpChunk>(&bytes).unwrap(), chunk);
        }
    }

    /// The borrowed encode path ([`encode_peer_frame_into`]) must produce
    /// byte-identical frames to the derived encoding of the owned types —
    /// this is what lets link writers and readers mix pooled and one-shot
    /// paths freely. Checked for every `PeerBody` variant, along with the
    /// borrowed decode round-trip.
    #[test]
    fn borrowed_peer_frames_encode_like_owned() {
        let update = EpochUpdate {
            view: atlas_core::ClusterView::initial(Config::new(3, 1)),
            addrs: vec![(1, "127.0.0.1:7001".to_string())],
        };
        let watermarks = vec![(1u32, 10u64), (2, 7)];
        let msg = vec![0xABu8; 48];
        let probe = Probe {
            stamp: 9_000,
            echo: 8_000,
            held: 120,
        };
        let cases: Vec<(PeerBody, PeerBodyRef<'_>)> = vec![
            (PeerBody::Msg(msg.clone()), PeerBodyRef::Msg(&msg)),
            (PeerBody::Ack(41), PeerBodyRef::Ack(41)),
            (
                PeerBody::Watermarks(watermarks.clone()),
                PeerBodyRef::Watermarks(&watermarks),
            ),
            (PeerBody::Epoch(update.clone()), PeerBodyRef::Epoch(&update)),
            (PeerBody::Probe(probe), PeerBodyRef::Probe(probe)),
        ];
        for (seq, (owned, borrowed)) in cases.into_iter().enumerate() {
            let seq = seq as u64;
            let frame = PeerFrame {
                from: 3,
                seq,
                epoch: 2,
                body: owned,
            };
            let payload = bincode::serialize(&frame).unwrap();
            let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
            expected.extend_from_slice(&payload);

            let mut buf = vec![0xFF; 7]; // stale contents must be discarded
            encode_peer_frame_into(&mut buf, 3, seq, 2, borrowed).unwrap();
            assert_eq!(buf, expected, "borrowed encoding diverged from owned");

            // And the borrowed decode agrees with the owned frame.
            let view = decode_peer_frame(&payload).unwrap();
            assert_eq!((view.from, view.seq, view.epoch), (3, seq, 2));
            match (&frame.body, &view.body) {
                (PeerBody::Msg(a), PeerBodyView::Msg(b)) => assert_eq!(&a[..], *b),
                (PeerBody::Ack(a), PeerBodyView::Ack(b)) => assert_eq!(a, b),
                (PeerBody::Watermarks(a), PeerBodyView::Watermarks(b)) => assert_eq!(a, b),
                (PeerBody::Epoch(a), PeerBodyView::Epoch(b)) => assert_eq!(a, b),
                (PeerBody::Probe(a), PeerBodyView::Probe(b)) => assert_eq!(a, b),
                (owned, view) => panic!("variant mismatch: {owned:?} decoded as {view:?}"),
            }
        }
    }

    /// A truncated or trailing-garbage peer frame is a decode error on the
    /// borrowed path, same as the owned one.
    #[test]
    fn borrowed_peer_frame_decode_rejects_corruption() {
        let frame = PeerFrame {
            from: 1,
            seq: 9,
            epoch: 0,
            body: PeerBody::Msg(vec![1, 2, 3]),
        };
        let payload = bincode::serialize(&frame).unwrap();
        assert!(decode_peer_frame(&payload[..payload.len() / 2]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_peer_frame(&trailing).is_err());
        assert!(decode_peer_frame(&payload).is_ok());
    }

    #[test]
    fn corrupted_protocol_payload_is_an_error_not_a_panic() {
        let cmd = Command::put(Rifl::new(1, 1), 0, 1, 64);
        let msg = AtlasMessage::MCommit {
            dot: Dot::new(1, 1),
            cmd,
            deps: DepSet::new(),
        };
        let mut bytes = bincode::serialize(&msg).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(bincode::deserialize::<AtlasMessage>(&bytes).is_err());
    }

    /// An oversize payload must be rejected on the *encode* side — in
    /// release builds too, not just under `debug_assert!` — because a sent
    /// oversize frame only fails later at the receiver, which drops the
    /// connection on the length prefix and turns an encode-side bug into a
    /// mystery remote disconnect.
    #[test]
    fn oversize_payloads_are_rejected_at_encode_time() {
        let payload = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut buf = Vec::new();
        let err = frame_payload_into(&mut buf, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(buf.is_empty(), "no partial frame left behind");
        // At the cap exactly the frame is legal.
        frame_payload_into(&mut buf, &payload[..MAX_FRAME_BYTES]).unwrap();
        assert_eq!(buf.len(), 4 + MAX_FRAME_BYTES);
    }

    /// A socket stand-in: serves `data` in reads of 1, 2, 3, … bytes
    /// (`trickle`) or as much as fits, then reports EOF; counts the reads.
    struct Script {
        data: Vec<u8>,
        at: usize,
        trickle: bool,
        reads: usize,
    }

    impl Script {
        fn new(data: Vec<u8>, trickle: bool) -> Self {
            Self {
                data,
                at: 0,
                trickle,
                reads: 0,
            }
        }
    }

    impl AsyncReadExt for Script {
        async fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let step = if self.trickle { self.reads } else { usize::MAX };
            let n = step.min(buf.len()).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }

        async fn read_exact(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            unreachable!("a FrameReader only issues plain reads")
        }
    }

    fn frames_of(
        mut reader: FrameReader<Script>,
    ) -> (io::Result<Vec<Vec<u8>>>, FrameReader<Script>) {
        let rt = tokio::runtime::Runtime::new().unwrap();
        let frames = rt.block_on(async {
            let mut frames = Vec::new();
            while let Some(payload) = reader.next().await? {
                frames.push(payload.to_vec());
            }
            Ok(frames)
        });
        (frames, reader)
    }

    /// Payloads from empty to well past the read buffer, so frames straddle
    /// reads, partial frames move to the front and one frame grows the
    /// buffer.
    fn sample_stream() -> (Vec<Vec<u8>>, Vec<u8>) {
        let payloads: Vec<Vec<u8>> = [0, 1, 3, 200, 4_000, 3 * READ_BUF_BYTES, 17, 0, 5_000]
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        let mut stream = Vec::new();
        let mut frame = Vec::new();
        for payload in &payloads {
            frame_payload_into(&mut frame, payload).unwrap();
            stream.extend_from_slice(&frame);
        }
        (payloads, stream)
    }

    #[test]
    fn frame_reader_yields_the_same_frames_however_the_bytes_arrive() {
        let (payloads, stream) = sample_stream();
        let (bulk, _) = frames_of(FrameReader::new(Script::new(stream.clone(), false)));
        assert_eq!(bulk.unwrap(), payloads);
        let (trickled, _) = frames_of(FrameReader::new(Script::new(stream, true)));
        assert_eq!(trickled.unwrap(), payloads);
    }

    #[test]
    fn frame_reader_serves_a_burst_of_frames_from_one_read() {
        let mut stream = Vec::new();
        for i in 0..16u64 {
            append_frame(&mut stream, &i).unwrap();
        }
        let (frames, reader) = frames_of(FrameReader::new(Script::new(stream, false)));
        let decoded: Vec<u64> = frames
            .unwrap()
            .iter()
            .map(|f| decode_payload(f).unwrap())
            .collect();
        assert_eq!(decoded, (0..16).collect::<Vec<u64>>());
        assert_eq!(
            reader.reader.reads, 2,
            "one read for the burst, one for EOF"
        );
    }

    #[test]
    fn frame_reader_rejects_an_oversize_prefix_before_reserving() {
        let mut stream = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&[0xEE; 64]);
        let (frames, reader) = frames_of(FrameReader::new(Script::new(stream, false)));
        assert_eq!(frames.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            reader.buf.len(),
            READ_BUF_BYTES,
            "nothing reserved for the claim"
        );
        // At the cap exactly the prefix is legal (and then the stream ends).
        let stream = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        let (frames, _) = frames_of(FrameReader::new(Script::new(stream, false)));
        assert_eq!(frames.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_reader_tells_a_clean_end_from_a_cut_frame() {
        let (payloads, stream) = sample_stream();
        // Cut inside the last frame's payload, and inside a length prefix.
        for cut in [stream.len() - 1, stream.len() - 5_000 - 2] {
            let (frames, _) =
                frames_of(FrameReader::new(Script::new(stream[..cut].to_vec(), true)));
            assert_eq!(frames.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        }
        // Cut exactly between two frames: a clean end after the first eight.
        let (frames, _) = frames_of(FrameReader::new(Script::new(
            stream[..stream.len() - 5_004].to_vec(),
            true,
        )));
        assert_eq!(frames.unwrap(), payloads[..8]);
        let (frames, _) = frames_of(FrameReader::new(Script::new(Vec::new(), false)));
        assert_eq!(frames.unwrap(), Vec::<Vec<u8>>::new());
    }

    /// `Protocol::new` only sees `Config` and `Topology`; make sure both the
    /// types a deployment tool would ship over the network round-trip too.
    #[test]
    fn config_and_topology_round_trip() {
        let config = Config::new(5, 2).with_nfr(true);
        let bytes = bincode::serialize(&config).unwrap();
        assert_eq!(bincode::deserialize::<Config>(&bytes).unwrap(), config);

        let topology = Topology::identity(2, 5);
        let bytes = bincode::serialize(&topology).unwrap();
        assert_eq!(bincode::deserialize::<Topology>(&bytes).unwrap(), topology);
    }
}
