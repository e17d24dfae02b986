//! Client drivers for the networked runtime.
//!
//! * [`Client`] — a **closed-loop** client: submits a command (or a batch)
//!   and waits for all executions before submitting again. This is the
//!   paper's client model and what the latency experiments use.
//! * [`OpenLoopClient`] — an **open-loop** client: fires submissions without
//!   waiting, while a background collector matches replies to send times.
//!   Used to drive a replica at a target in-flight depth for throughput
//!   measurements.
//!
//! Both connect to a single replica (their *proxy*, in the paper's terms) and
//! identify with a [`Hello::Client`] frame. Commands must carry `Rifl`s of
//! this client so the proxy can route executions back.

use crate::wire::{
    decode_payload, encode_frame_into, write_frame, ClientReply, ClientRequest, FrameReader, Hello,
};
use atlas_core::{ClientId, Command, Dot, Key, ReconfigOp, Rifl, Value};
use atlas_metrics::MetricsSnapshot;
use kvstore::Output;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::time::Instant;
use tokio::io::AsyncWriteExt;
use tokio::net::tcp::{OwnedReadHalf, OwnedWriteHalf};
use tokio::net::TcpStream;
use tokio::sync::mpsc::{self, UnboundedSender};
use tokio::task::JoinHandle;

async fn connect(
    addr: SocketAddr,
    client: ClientId,
) -> io::Result<(FrameReader<OwnedReadHalf>, OwnedWriteHalf)> {
    let stream = TcpStream::connect(addr).await?;
    stream.set_nodelay(true)?;
    let (reader, mut writer) = stream.into_split();
    write_frame(&mut writer, &Hello::Client { client }).await?;
    Ok((FrameReader::new(reader), writer))
}

/// The next reply on the connection; a replica that hangs up is an error.
async fn next_reply(replies: &mut FrameReader<OwnedReadHalf>) -> io::Result<ClientReply> {
    match replies.next().await? {
        Some(payload) => decode_payload(payload),
        None => Err(io::ErrorKind::UnexpectedEof.into()),
    }
}

fn bad_reply(what: &ClientReply) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply from replica: {what:?}"),
    )
}

/// A closed-loop client connected to one replica.
#[derive(Debug)]
pub struct Client {
    id: ClientId,
    next_seq: u64,
    replies: FrameReader<OwnedReadHalf>,
    writer: OwnedWriteHalf,
    /// Reusable encode scratch: a closed-loop client round-trips thousands
    /// of frames over one connection, so requests encode into one
    /// long-lived buffer (and replies arrive through the reader's).
    scratch: Vec<u8>,
}

impl Client {
    /// Connects client `id` to the replica at `addr`.
    pub async fn connect(addr: SocketAddr, id: ClientId) -> io::Result<Self> {
        Self::connect_with_seq(addr, id, 1).await
    }

    /// Connects client `id` with an explicit first sequence number — for a
    /// client logically resuming an identity whose earlier requests already
    /// used sequences below `first_seq` (request identifiers must stay
    /// unique per client).
    pub async fn connect_with_seq(
        addr: SocketAddr,
        id: ClientId,
        first_seq: u64,
    ) -> io::Result<Self> {
        let (replies, writer) = connect(addr, id).await?;
        Ok(Self {
            id,
            next_seq: first_seq,
            replies,
            writer,
            scratch: Vec::new(),
        })
    }

    /// This client's identifier.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The next fresh request identifier.
    pub fn next_rifl(&mut self) -> Rifl {
        let rifl = Rifl::new(self.id, self.next_seq);
        self.next_seq += 1;
        rifl
    }

    /// Encodes `req` into the reusable scratch buffer and writes the frame.
    async fn send_request(&mut self, req: &ClientRequest) -> io::Result<()> {
        encode_frame_into(&mut self.scratch, req)?;
        self.writer.write_all(&self.scratch).await
    }

    /// Submits one command and waits for its execution, returning the
    /// per-key outputs.
    pub async fn submit(&mut self, cmd: Command) -> io::Result<Vec<(Key, Output)>> {
        let rifl = cmd.rifl;
        self.send_request(&ClientRequest::Submit { cmds: vec![cmd] })
            .await?;
        loop {
            match next_reply(&mut self.replies).await? {
                ClientReply::Executed {
                    rifl: got, outputs, ..
                } if got == rifl => return Ok(outputs),
                // Replies for earlier batched commands may still be in
                // flight; ignore anything that is not ours.
                ClientReply::Executed { .. } => continue,
                other => return Err(bad_reply(&other)),
            }
        }
    }

    /// Submits a batch in one frame and waits until every command in it
    /// executed. Returns `(rifl, outputs)` pairs in execution order.
    pub async fn submit_batch(
        &mut self,
        cmds: Vec<Command>,
    ) -> io::Result<Vec<(Rifl, Vec<(Key, Output)>)>> {
        let mut waiting: std::collections::HashSet<Rifl> = cmds.iter().map(|c| c.rifl).collect();
        let expected = waiting.len();
        self.send_request(&ClientRequest::Submit { cmds }).await?;
        let mut done = Vec::with_capacity(expected);
        while !waiting.is_empty() {
            match next_reply(&mut self.replies).await? {
                ClientReply::Executed { rifl, outputs } => {
                    if waiting.remove(&rifl) {
                        done.push((rifl, outputs));
                    }
                }
                other => return Err(bad_reply(&other)),
            }
        }
        Ok(done)
    }

    /// Writes `value` under `key` (waits for execution).
    pub async fn put(&mut self, key: Key, value: Value) -> io::Result<()> {
        let rifl = self.next_rifl();
        self.submit(Command::put(rifl, key, value, 64)).await?;
        Ok(())
    }

    /// Reads `key` (a replicated read through consensus, not a local peek).
    pub async fn get(&mut self, key: Key) -> io::Result<Option<Value>> {
        let rifl = self.next_rifl();
        let outputs = self.submit(Command::get(rifl, key)).await?;
        match outputs.into_iter().find(|(k, _)| *k == key) {
            Some((_, Output::Value(v))) => Ok(v),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "get produced no value output",
            )),
        }
    }

    /// Submits a reconfiguration command (an `Enter` or `Finalize`
    /// barrier) and waits for it to execute — i.e. for the epoch switch to
    /// have happened at least at the proxy replica. The barrier conflicts
    /// with every other command, so on return every command this client
    /// submitted earlier is ordered before the configuration change.
    pub async fn reconfigure(&mut self, op: ReconfigOp) -> io::Result<()> {
        let rifl = self.next_rifl();
        self.submit(Command::reconfigure(rifl, op)).await?;
        Ok(())
    }

    /// Fetches the replica's execution record: `(dot, rifl)` pairs in local
    /// execution order, plus a digest of its store state.
    pub async fn execution_log(&mut self) -> io::Result<(Vec<(Dot, Rifl)>, u64)> {
        self.send_request(&ClientRequest::ExecutionLog).await?;
        loop {
            match next_reply(&mut self.replies).await? {
                ClientReply::ExecutionLog { entries, digest } => return Ok((entries, digest)),
                // Executions of older submissions (or other queries) may
                // interleave.
                _ => continue,
            }
        }
    }

    /// Fetches the replica's full [`MetricsSnapshot`]: command-lifecycle
    /// stage latencies, protocol path counters, durability/detector/GC
    /// telemetry and per-link health, plus the bookkeeping numbers garbage
    /// collection keeps bounded ([`MetricsSnapshot::tracked_entries`],
    /// [`MetricsSnapshot::store_executed`]).
    pub async fn stats(&mut self) -> io::Result<MetricsSnapshot> {
        self.send_request(&ClientRequest::Stats).await?;
        loop {
            match next_reply(&mut self.replies).await? {
                ClientReply::Stats { snapshot } => return Ok(*snapshot),
                _ => continue,
            }
        }
    }
}

/// Marker closing an open-loop run (a rifl no live client ever uses).
const OPEN_LOOP_DONE: Rifl = Rifl { client: 0, seq: 0 };

/// An open-loop client: `submit` returns immediately; a background collector
/// records per-command latency as replies arrive.
#[derive(Debug)]
pub struct OpenLoopClient {
    id: ClientId,
    next_seq: u64,
    writer: OwnedWriteHalf,
    sent_tx: UnboundedSender<(Rifl, Instant)>,
    collector: JoinHandle<Vec<u64>>,
    /// Reusable request-encode buffer (see [`Client::scratch`]).
    scratch: Vec<u8>,
}

impl OpenLoopClient {
    /// Connects client `id` to the replica at `addr`.
    pub async fn connect(addr: SocketAddr, id: ClientId) -> io::Result<Self> {
        let (mut replies, writer) = connect(addr, id).await?;
        let (sent_tx, mut sent_rx) = mpsc::unbounded_channel::<(Rifl, Instant)>();
        let collector = tokio::spawn(async move {
            let mut latencies_us = Vec::new();
            let mut in_flight: HashMap<Rifl, Instant> = HashMap::new();
            let mut closing = false;
            let drain =
                |in_flight: &mut HashMap<Rifl, Instant>,
                 closing: &mut bool,
                 sent_rx: &mut mpsc::UnboundedReceiver<(Rifl, Instant)>| {
                    while let Ok((rifl, at)) = sent_rx.try_recv() {
                        if rifl == OPEN_LOOP_DONE {
                            *closing = true;
                        } else {
                            in_flight.insert(rifl, at);
                        }
                    }
                };
            loop {
                drain(&mut in_flight, &mut closing, &mut sent_rx);
                if closing && in_flight.is_empty() {
                    return latencies_us;
                }
                match next_reply(&mut replies).await {
                    Ok(ClientReply::Executed { rifl, .. }) => {
                        let at = in_flight.remove(&rifl).or_else(|| {
                            // The submission side enqueues the timestamp
                            // *before* writing the frame, so a reply that
                            // beats the top-of-loop drain is guaranteed to
                            // find its timestamp after one more drain.
                            drain(&mut in_flight, &mut closing, &mut sent_rx);
                            in_flight.remove(&rifl)
                        });
                        if let Some(at) = at {
                            latencies_us.push(at.elapsed().as_micros() as u64);
                        }
                    }
                    Ok(_) => {}
                    Err(_) => return latencies_us, // replica gone
                }
            }
        });
        Ok(Self {
            id,
            next_seq: 1,
            writer,
            sent_tx,
            collector,
            scratch: Vec::new(),
        })
    }

    /// Fresh request identifier.
    pub fn next_rifl(&mut self) -> Rifl {
        let rifl = Rifl::new(self.id, self.next_seq);
        self.next_seq += 1;
        rifl
    }

    /// Fires a batch without waiting for executions.
    pub async fn submit_batch(&mut self, cmds: Vec<Command>) -> io::Result<()> {
        let now = Instant::now();
        for cmd in &cmds {
            let _ = self.sent_tx.send((cmd.rifl, now));
        }
        encode_frame_into(&mut self.scratch, &ClientRequest::Submit { cmds })?;
        self.writer.write_all(&self.scratch).await
    }

    /// Stops submitting, waits for all in-flight commands and returns their
    /// latencies in microseconds (reply order).
    pub async fn finish(mut self) -> io::Result<Vec<u64>> {
        let _ = self.sent_tx.send((OPEN_LOOP_DONE, Instant::now()));
        // The collector may be parked in `next_reply` with nothing in
        // flight; an ExecutionLog probe forces one reply so it wakes up and
        // observes the done marker.
        encode_frame_into(&mut self.scratch, &ClientRequest::ExecutionLog)?;
        self.writer.write_all(&self.scratch).await?;
        self.collector
            .await
            .map_err(|_| io::Error::other("open-loop collector task panicked"))
    }
}
