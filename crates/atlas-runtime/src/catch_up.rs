//! Peer-assisted catch-up (the crate docs give the design): the stream of
//! bounded-size [`CatchUpChunk`]s a peer serves ([`serve`]) and how a
//! replica that lost its disk applies it. The acceptance rules are a
//! socket-free state machine ([`Receiver`]) over the replica seen through
//! [`Rebuild`]; the async glue ([`catch_up`]) only connects, times out and
//! reads. Commands in flight (committed nowhere) when the disk was lost
//! are not recovered — that is the window the recovery protocol is for.

use crate::wire::{read_frame, write_frame, CatchUpChunk, CatchUpPayload, EpochUpdate, Hello};
use atlas_core::ProcessId;
use kvstore::KVStore;
use serde::Serialize;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;
use tokio::net::tcp::OwnedReadHalf;
use tokio::net::TcpStream;

/// Rounds of peer polling before giving up on peers that never answered
/// (all unreachable = a fresh cluster boot).
const CATCH_UP_ROUNDS: u32 = 3;

/// Bound on the connect and on each chunk of the stream: a long stream that
/// keeps flowing never times out, a stalled one fails fast.
const CATCH_UP_FETCH_TIMEOUT: Duration = Duration::from_secs(2);

/// What a catch-up stream does to the replica it rebuilds.
pub(crate) trait Rebuild {
    /// The rebuilding replica's identifier.
    fn id(&self) -> ProcessId;
    /// `Start`: adopts the server's configuration if newer, then never
    /// reissues identifiers at or below `horizon`; both are journaled.
    fn start(&mut self, server: EpochUpdate, horizon: u64) -> io::Result<()>;
    /// Hands the protocol the server's executed `marker`; if it accepts,
    /// installs `store` as the executed state. Whether it did.
    fn install_base(&mut self, marker: &[u8], store: KVStore) -> bool;
    /// Whether nothing has executed here yet.
    fn is_fresh(&self) -> bool;
    /// Applies committed messages from `from` through the message path,
    /// *not* journaled: the caught-up state is snapshotted once at the end
    /// instead of writing up to `n-1` copies of the history ahead. A crash
    /// before that loses catch-up progress, which a restart redoes.
    fn apply_msgs(&mut self, from: ProcessId, msgs: Vec<Vec<u8>>) -> io::Result<()>;
    /// A chunk was applied: release what it produced.
    fn chunk_applied(&mut self) -> io::Result<()>;
}

/// The not-yet-installed executed-state base of one catch-up stream,
/// buffered so installation is **atomic**: a stream that dies while the
/// base is still in transit leaves the replica exactly as before, and the
/// retry (same peer or another) starts clean.
struct PendingBase {
    marker: Vec<u8>,
    store: KVStore,
}

/// The acceptance rules of a catch-up, one peer's stream at a time:
/// chunks arrive with dense sequence numbers, the first and only the first
/// is `Start`, and the buffered base is installed when the stream moves
/// past its base sections (first `Msgs` chunk, or the `last` flag) — from
/// then on a partially applied message tail is fine, because message
/// application is idempotent on top of the base. At most one peer's base is
/// installed per catch-up.
#[derive(Default)]
pub(crate) struct Receiver {
    peer: ProcessId,
    next_seq: u32,
    base: Option<PendingBase>,
    base_installed: bool,
}

impl Receiver {
    /// Starts on `peer`'s stream, dropping what is left of the previous one.
    pub fn stream_from(&mut self, peer: ProcessId) {
        (self.peer, self.next_seq, self.base) = (peer, 0, None);
    }

    /// Applies `chunk` to `replica`; `Ok(true)` once the stream's last
    /// chunk is in. An error fails the stream; what it applied stays.
    pub fn accept(&mut self, chunk: CatchUpChunk, replica: &mut impl Rebuild) -> io::Result<bool> {
        let expected = self.next_seq;
        if chunk.seq != expected {
            return Err(invalid(format!(
                "catch-up stream gap: expected chunk {expected}, got {}",
                chunk.seq
            )));
        }
        // `Start` opens the stream and only opens it: base sections or
        // messages without it would be applied with no base (a silent
        // truncation once peers garbage-collect), and a second one would
        // restart the base mid-stream.
        if matches!(chunk.payload, CatchUpPayload::Start { .. }) != (expected == 0) {
            return Err(invalid(format!(
                "catch-up stream must open with exactly one Start (chunk {expected})"
            )));
        }
        self.next_seq += 1;
        match chunk.payload {
            CatchUpPayload::Start {
                horizon,
                executed,
                store_executed,
                store_set,
                view,
                addrs,
            } => {
                // The server's configuration first: a joiner must know the
                // real member set (and its addresses) before it interprets
                // the rest of the stream.
                replica.start(EpochUpdate { view, addrs }, horizon)?;
                if !self.base_installed {
                    let mut store = KVStore::new();
                    store.restore_executed(store_executed, store_set);
                    self.base = Some(PendingBase {
                        marker: executed,
                        store,
                    });
                }
            }
            CatchUpPayload::Store(slots) => {
                if let Some(base) = &mut self.base {
                    for (key, slot) in slots {
                        base.store.restore_slot(key, slot);
                    }
                }
            }
            CatchUpPayload::Msgs(msgs) => {
                self.install(replica)?;
                replica.apply_msgs(self.peer, msgs)?;
            }
        }
        replica.chunk_applied()?;
        if chunk.last {
            self.install(replica)?;
        }
        Ok(chunk.last)
    }

    /// Installs the buffered base, if any and if none is yet. A **fresh**
    /// replica refusing the marker is an error: message-only replay, once
    /// snapshotted, would persist a truncated state whenever peers have
    /// collected, so the stream fails and is retried. A replica with
    /// **local progress** (`--catch-up` over a surviving data dir) falls
    /// back to full committed-log replay, complete only if no peer
    /// collected, as the warning says.
    fn install(&mut self, replica: &mut impl Rebuild) -> io::Result<()> {
        let Some(base) = self.base.take().filter(|_| !self.base_installed) else {
            return Ok(());
        };
        let fresh = replica.is_fresh();
        if replica.install_base(&base.marker, base.store) {
            self.base_installed = true;
            return Ok(());
        }
        let id = replica.id();
        if fresh {
            return Err(invalid(format!(
                "replica {id}: peer's executed-state marker did not decode"
            )));
        }
        eprintln!(
            "replica {id}: catch-up found local progress, so the peer's executed-state base \
             was skipped; replaying committed logs on top — complete only if no peer has \
             garbage-collected below this replica's state",
        );
        Ok(())
    }
}

/// A stream that breaks the acceptance rules.
fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The catch-up stream a serving replica sends, as encoded
/// [`CatchUpChunk`]s with payloads within `budget` bytes: `start`, the
/// executed-state base (`store`'s slots, which with `start`'s counters
/// carry its execution summary), then `committed`, the **entire retained
/// committed log** — executed entries too, since one executed here may be
/// unknown to the peer whose base the receiver installed (base-covered
/// entries replay as no-ops).
/// Payloads are encoded as they are produced: peak memory is one
/// serialized copy of the state.
pub(crate) fn serve<M: Serialize>(
    start: CatchUpPayload,
    store: &KVStore,
    committed: impl IntoIterator<Item = M>,
    budget: usize,
) -> Vec<Vec<u8>> {
    let mut stream = ChunkStream::default();
    stream.push(start);
    // Slots encode in at most 25 bytes: chunk by count against the byte
    // budget, batching straight off the store (no intermediate copy).
    stream.push_batched(store.records(), (budget / 32).max(1), CatchUpPayload::Store);
    // Messages vary in size: pack by actual encoded bytes.
    let mut group: Vec<Vec<u8>> = Vec::new();
    let mut group_bytes = 0usize;
    for msg in committed {
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

/// Encodes payloads into frames one step behind, so the final payload can
/// be flagged `last` without knowing the count upfront.
#[derive(Default)]
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

    /// Pushes `items` in payloads of `per` items (the last one shorter;
    /// none when `items` is empty).
    fn push_batched<T>(
        &mut self,
        items: impl Iterator<Item = T>,
        per: usize,
        payload: impl Fn(Vec<T>) -> CatchUpPayload,
    ) {
        let mut batch = Vec::with_capacity(per);
        for item in items {
            batch.push(item);
            if batch.len() == per {
                self.push(payload(std::mem::take(&mut batch)));
            }
        }
        if !batch.is_empty() {
            self.push(payload(batch));
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

/// Fetches and applies committed state from the peers in `addrs`, retrying
/// until **every** peer has answered once or the rounds run out. Returns
/// whether any peer answered; if none did, this is a fresh cluster boot.
///
/// Hearing from all peers matters for safety, not just completeness: the
/// identifier horizon protects against reissuing identifiers of the lost
/// incarnation, but an in-flight identifier may be known to only some
/// quorum members — only the union of all peers' horizons is guaranteed to
/// cover it. If some peers stay unreachable the replica proceeds with what
/// it got (they may be crashed for good, and waiting forever would trade a
/// narrow unsoundness window for guaranteed unavailability) and says so
/// loudly.
pub(crate) async fn catch_up(
    replica: &mut impl Rebuild,
    addrs: &HashMap<ProcessId, SocketAddr>,
) -> io::Result<bool> {
    let id = replica.id();
    let mut pending: Vec<(ProcessId, SocketAddr)> = addrs
        .iter()
        .filter(|(&peer, _)| peer != id)
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
    let mut receiver = Receiver::default();
    let mut heard_from_any = false;
    for round in 0..CATCH_UP_ROUNDS {
        let mut still_pending = Vec::new();
        for &(peer, addr) in &pending {
            receiver.stream_from(peer);
            match fetch(replica, &mut receiver, addr).await {
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
    if heard_from_any && !pending.is_empty() {
        let missing: Vec<ProcessId> = pending.iter().map(|(peer, _)| *peer).collect();
        eprintln!(
            "replica {id}: caught up without peers {missing:?}; identifiers they alone \
             observed from the previous incarnation may be unprotected"
        );
    }
    Ok(heard_from_any)
}

/// Dials `addr` and feeds one peer's catch-up stream to a [`Receiver`],
/// chunk by chunk: memory holds at most one chunk of messages and the
/// buffered base, never a serialized copy of the whole history. Each
/// connect/read step is bounded by [`CATCH_UP_FETCH_TIMEOUT`] — a peer that
/// is *itself* mid-catch-up queues our request behind its own, so two
/// recovering replicas would otherwise block on each other forever. On an
/// error what was applied stays (identifier advances are monotone, message
/// application is idempotent, the base installs atomically), so the caller
/// simply retries the peer later.
async fn fetch(
    replica: &mut impl Rebuild,
    receiver: &mut Receiver,
    addr: SocketAddr,
) -> io::Result<()> {
    let timed = |label: &'static str| {
        move |_: tokio::time::error::Elapsed| {
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
    write_frame(&mut writer, &Hello::CatchUp { from: replica.id() }).await?;

    // The vendored tokio's `timeout` needs an owned ('static) future, so
    // the reader travels through it by value and comes back with the chunk.
    async fn read_chunk(mut reader: OwnedReadHalf) -> (OwnedReadHalf, io::Result<CatchUpChunk>) {
        let chunk = read_frame::<_, CatchUpChunk>(&mut reader).await;
        (reader, chunk)
    }

    loop {
        let (returned, chunk) = tokio::time::timeout(CATCH_UP_FETCH_TIMEOUT, read_chunk(reader))
            .await
            .map_err(timed("chunk"))?;
        reader = returned;
        if receiver.accept(chunk?, replica)? {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::ClusterView;
    use kvstore::Slot;
    use CatchUpPayload::{Msgs, Store};

    /// A replica reduced to the calls a stream makes on it.
    #[derive(Default)]
    struct Fake {
        calls: Vec<String>,
        refuse_marker: bool,
        progressed: bool,
    }

    impl Rebuild for Fake {
        fn id(&self) -> ProcessId {
            9
        }
        fn start(&mut self, _: EpochUpdate, horizon: u64) -> io::Result<()> {
            self.calls.push(format!("start {horizon}"));
            Ok(())
        }
        fn install_base(&mut self, marker: &[u8], store: KVStore) -> bool {
            let values: Vec<_> = store.records().map(|(k, slot)| (k, slot.value)).collect();
            let summary = store.summary();
            let (executed, set) = (summary.executed, summary.set);
            let base = format!("base {marker:?} {values:?} executed {executed} set {set}");
            self.calls.push(base);
            !self.refuse_marker
        }
        fn is_fresh(&self) -> bool {
            !self.progressed
        }
        fn apply_msgs(&mut self, from: ProcessId, msgs: Vec<Vec<u8>>) -> io::Result<()> {
            self.calls.push(format!("msgs {from}x{}", msgs.len()));
            Ok(())
        }
        fn chunk_applied(&mut self) -> io::Result<()> {
            self.calls.push("release".into());
            Ok(())
        }
    }

    fn start() -> CatchUpPayload {
        let view = ClusterView::at(0, [1, 2, 3], 1);
        let (executed, addrs) = (vec![7], Vec::new());
        CatchUpPayload::Start {
            horizon: 42,
            executed,
            store_executed: 3,
            store_set: 8,
            view,
            addrs,
        }
    }

    /// `payloads` as a stream from peer 2: dense sequence numbers, the last
    /// chunk flagged.
    fn stream(payloads: Vec<CatchUpPayload>) -> Vec<CatchUpChunk> {
        let n = payloads.len();
        let chunk = |(i, payload)| CatchUpChunk {
            seq: i as u32,
            last: i + 1 == n,
            payload,
        };
        payloads.into_iter().enumerate().map(chunk).collect()
    }

    fn slot(value: u64) -> Slot {
        Slot {
            value: Some(value),
            chain: value * 3,
        }
    }

    /// `(key, value)` pairs as store slots.
    fn slots(pairs: &[(u64, u64)]) -> CatchUpPayload {
        Store(
            pairs
                .iter()
                .map(|&(key, value)| (key, slot(value)))
                .collect(),
        )
    }

    /// Feeds `chunks` to one receiver, stopping at the first error: that
    /// error or whether the last chunk fed ended the stream, and the calls.
    fn feed(replica: &mut Fake, chunks: Vec<CatchUpChunk>) -> (io::Result<bool>, String) {
        let mut receiver = Receiver::default();
        receiver.stream_from(2);
        let mut done = Ok(false);
        for chunk in chunks {
            done = receiver.accept(chunk, replica);
            if done.is_err() {
                break;
            }
        }
        (done, replica.calls.join("; "))
    }

    #[test]
    fn a_sequence_gap_is_refused() {
        let mut chunks = stream(vec![start(), Msgs(vec![]), Msgs(vec![])]);
        chunks.remove(1);
        let (done, calls) = feed(&mut Fake::default(), chunks);
        let err = done.expect_err("gap");
        assert!(err.to_string().contains("expected chunk 1, got 2"), "{err}");
        assert_eq!(calls, "start 42; release");
    }

    #[test]
    fn a_stream_must_open_with_exactly_one_start() {
        let (done, calls) = feed(&mut Fake::default(), stream(vec![Msgs(vec![vec![1]])]));
        assert!(done.is_err() && calls.is_empty(), "no Start: {calls}");
        let (done, calls) = feed(&mut Fake::default(), stream(vec![start(), start()]));
        assert!(done.is_err(), "a second Start");
        assert_eq!(calls, "start 42; release");
    }

    #[test]
    fn the_base_installs_at_the_first_msgs_chunk() {
        let chunks = stream(vec![
            start(),
            slots(&[(1, 10)]),
            slots(&[(2, 20)]),
            Msgs(vec![vec![1], vec![2]]),
            Msgs(vec![vec![3]]),
        ]);
        let (done, calls) = feed(&mut Fake::default(), chunks);
        assert!(done.expect("a valid stream"));
        let base = "base [7] [(1, Some(10)), (2, Some(20))] executed 3 set 8";
        let after = "msgs 2x2; release; msgs 2x1; release";
        assert_eq!(
            calls,
            format!("start 42; release; release; release; {base}; {after}")
        );
    }

    #[test]
    fn a_stream_without_messages_installs_its_base_at_last() {
        let (done, calls) = feed(
            &mut Fake::default(),
            stream(vec![start(), slots(&[(4, 40)])]),
        );
        assert!(done.expect("a valid stream"));
        let base = "base [7] [(4, Some(40))] executed 3 set 8";
        assert_eq!(calls, format!("start 42; release; release; {base}"));
    }

    #[test]
    fn a_stream_cut_before_its_tail_installs_nothing() {
        let mut chunks = stream(vec![start(), slots(&[(4, 40)]), Msgs(vec![])]);
        chunks.pop();
        let (done, calls) = feed(&mut Fake::default(), chunks);
        assert!(!done.expect("valid so far"));
        assert_eq!(calls, "start 42; release; release");
    }

    #[test]
    fn only_the_first_base_is_installed() {
        let (mut replica, mut receiver) = (Fake::default(), Receiver::default());
        for peer in [2, 3] {
            receiver.stream_from(peer);
            for chunk in stream(vec![start(), Msgs(vec![])]) {
                receiver.accept(chunk, &mut replica).expect("valid");
            }
        }
        let bases = replica.calls.iter().filter(|c| c.starts_with("base"));
        assert_eq!(bases.count(), 1);
    }

    #[test]
    fn a_fresh_replica_refusing_the_marker_is_an_error() {
        let refusing = |progressed| Fake {
            refuse_marker: true,
            progressed,
            ..Fake::default()
        };
        let (done, _) = feed(&mut refusing(false), stream(vec![start(), Msgs(vec![])]));
        let err = done.expect_err("an undecodable marker");
        assert!(err.to_string().contains("did not decode"), "{err}");
        // With local progress the replica replays messages on top instead.
        let (done, calls) = feed(&mut refusing(true), stream(vec![start(), Msgs(vec![])]));
        assert!(
            done.expect("falls back") && calls.ends_with("msgs 2x0; release"),
            "{calls}"
        );
    }

    fn decode(frames: &[Vec<u8>]) -> Vec<CatchUpChunk> {
        let chunk = |frame: &Vec<u8>| bincode::deserialize(frame).expect("chunks decode");
        frames.iter().map(chunk).collect()
    }

    #[test]
    fn served_chunks_are_dense_bounded_and_end_once() {
        let budget = 1024;
        let mut store = KVStore::new();
        (0..500).for_each(|key| store.restore_slot(key, slot(key * 2)));
        let committed: Vec<Vec<u8>> = (0..200).map(|i| vec![i as u8; 1 + i % 90]).collect();
        let chunks = decode(&serve(start(), &store, committed, budget));
        assert!(chunks.len() > 10, "the budget forces many chunks");
        let (mut records, mut msgs) = (0, 0);
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.seq, i as u32, "dense sequence numbers");
            assert_eq!(
                chunk.last,
                i + 1 == chunks.len(),
                "only the final chunk is last"
            );
            let mut bytes = bincode::serialize(&chunk.payload).unwrap().len();
            match &chunk.payload {
                CatchUpPayload::Start { .. } => assert_eq!(i, 0, "Start opens the stream, only"),
                Store(slice) => records += slice.len(),
                Msgs(group) => {
                    msgs += group.len();
                    bytes = group.iter().map(Vec::len).sum();
                }
            }
            assert!(i == 0 || bytes <= budget, "chunk {i} carries {bytes} B");
        }
        assert_eq!((records, msgs), (500, 200), "nothing lost");
    }

    #[test]
    fn an_empty_replica_serves_a_lone_start() {
        let none: Vec<Vec<u8>> = Vec::new();
        let frames = serve(start(), &KVStore::new(), none, 1024);
        assert_eq!(decode(&frames), stream(vec![start()]));
    }
}
