//! The **turn**: the unit of I/O of the replica's event loop.
//!
//! The loop takes every event that is ready (up to [`TURN_EVENTS`]) and for
//! each one stages its journal record, runs the protocol, and *collects*
//! what the protocol asks for in the [`Outbox`] instead of doing it. When
//! the turn ends, its records reach the WAL with one write, one
//! policy-driven sync follows if something about to leave needs it, and only
//! then is the outbox released: each peer link gets the turn's frames (and
//! at most one delivery ack) as one hand-off, the execute stage its commands.
//!
//! The write-ahead rule, enforced by [`Outbox::release`] and nowhere else:
//!
//! > **stage → apply → write (→ sync) → release.** Nothing derived from a
//! > record leaves the loop before the record is written, and no ack or
//! > fresh identifier before it is synced.
//!
//! Two kinds of event end the collecting early, so that order and stamps
//! keep their meaning: a client request — one instance, one record however
//! many commands it holds — [flushes](Outbox::flush) what is staged, its
//! own record included, before the protocol sees it (the `journaled` stage
//! still precedes `proposed`); and a total-order
//! barrier or an observer of execution state (execution-record query, stats,
//! catch-up serving, the tick's reports, a snapshot cut) releases first.
//!
//! The outbox knows neither files nor sockets: the journal, the links and
//! the execute stage are passed in behind [`Log`], [`Links`] and
//! [`Execute`], which is also how the ordering tests below watch the call
//! sequence.

use crate::journal::JournalRecord;
use atlas_core::ProcessId;
use std::io;
use std::sync::Arc;

/// Most events one turn takes off the queue. A bound, not a tuning knob: it
/// keeps a flooded loop releasing (and snapshotting) at a steady cadence
/// while comfortably covering the burst one batched request fans out into.
pub(crate) const TURN_EVENTS: usize = 128;

/// A peer is owed a cumulative delivery ack once this many of its message
/// frames arrived since the last one (ticks ack earlier).
const ACK_EVERY: u64 = 64;

/// What a turn needs from the durable journal.
pub(crate) trait Log {
    /// Stages `record` for the next [`Log::write`]; no I/O.
    fn stage(&mut self, record: &JournalRecord);
    /// Puts everything staged in the WAL with one write.
    fn write(&mut self) -> io::Result<()>;
    /// The flush policy's fsync of what has been written; `force`: an ack
    /// or a freshly minted identifier is about to leave.
    fn sync(&mut self, force: bool) -> io::Result<()>;
}

/// Where a released turn's peer traffic goes.
pub(crate) trait Links {
    /// The turn's protocol messages for `peer` (encoded once, shared across
    /// the fan-out), in order, and the delivery ack it is owed, if any.
    fn hand_off(&self, peer: ProcessId, frames: Vec<Arc<Vec<u8>>>, ack: Option<u64>);
}

/// Where a released turn's commands go. `X` is one protocol-ordered command
/// with whatever context its completion (the reply to the client) needs.
pub(crate) trait Execute<X> {
    /// Hands one command to the execute stage.
    fn execute(&mut self, exec: X);
}

/// One peer's share of the turn, plus the inbound delivery bookkeeping its
/// acks come from.
struct Peer {
    id: ProcessId,
    /// Message payloads the protocol addressed to it this turn.
    frames: Vec<Arc<Vec<u8>>>,
    /// Sequence of the most recently received message frame.
    last_seen: u64,
    /// Message frames received since the last ack we sent.
    unacked: u64,
}

/// Everything a turn has produced and not yet let go of.
pub(crate) struct Outbox<X> {
    /// Records were staged since the last write.
    staged: bool,
    /// Something derived from an unsynced record is waiting to leave.
    must_sync: bool,
    /// A tick asked for every outstanding ack, whatever its count.
    ack_all: bool,
    peers: Vec<Peer>,
    execs: Vec<X>,
}

impl<X> Outbox<X> {
    pub fn new() -> Self {
        Self {
            staged: false,
            must_sync: false,
            ack_all: false,
            peers: Vec::new(),
            execs: Vec::new(),
        }
    }

    fn peer(&mut self, id: ProcessId) -> &mut Peer {
        let at = self.peers.iter().position(|peer| peer.id == id);
        let at = at.unwrap_or_else(|| {
            self.peers.push(Peer {
                id,
                frames: Vec::new(),
                last_seen: 0,
                unacked: 0,
            });
            self.peers.len() - 1
        });
        &mut self.peers[at]
    }

    /// Write-ahead: stages `record`, to be called *before* the protocol sees
    /// the input. `minting`: the input can mint identifiers or ballots
    /// (a submission, a suspicion), so the record must be synced — not just
    /// written — before anything derived from it leaves; reissuing them
    /// after losing the record would be unsound, not merely lossy. No-op
    /// for an ephemeral replica (`log` is `None`).
    pub fn stage(&mut self, log: Option<&mut impl Log>, record: &JournalRecord, minting: bool) {
        if let Some(log) = log {
            log.stage(record);
            self.staged = true;
            self.must_sync |= minting;
        }
    }

    /// The input staged last minted a ballot after all (a peer message the
    /// protocol answered with a takeover, a revocation or a campaign): its
    /// record is synced before anything leaves, as a minting one's would be.
    pub fn minted(&mut self) {
        self.must_sync |= self.staged;
    }

    /// Collects one protocol message for `peer`.
    pub fn send(&mut self, peer: ProcessId, payload: Arc<Vec<u8>>) {
        self.peer(peer).frames.push(payload);
    }

    /// Collects one command for the execute stage.
    pub fn execute(&mut self, exec: X) {
        self.execs.push(exec);
    }

    /// Message frame `seq` arrived from `peer` (and its record was staged):
    /// it counts toward the next ack. The ack releases the frame from the
    /// peer's resend buffer forever, hence the sync before it.
    pub fn received(&mut self, peer: ProcessId, seq: u64) {
        let peer = self.peer(peer);
        peer.last_seen = seq;
        peer.unacked += 1;
    }

    /// Tick: this turn acknowledges everything received, however little.
    pub fn ack_all(&mut self) {
        self.ack_all = true;
    }

    /// `peer` left the configuration: drop what was collected for it.
    pub fn forget(&mut self, peer: ProcessId) {
        self.peers.retain(|p| p.id != peer);
    }

    /// Writes what is staged and issues the sync the policy or a waiting
    /// effect calls for. Releases nothing.
    pub fn flush(&mut self, log: Option<&mut impl Log>) -> io::Result<()> {
        let Some(log) = log else {
            return Ok(());
        };
        if self.staged {
            log.write()?;
        }
        if self.staged || self.must_sync {
            log.sync(self.must_sync)?;
        }
        self.staged = false;
        self.must_sync = false;
        Ok(())
    }

    /// Ends the turn (or the part of it before a barrier or an observer):
    /// flush, then let everything collected go — frames first, so peers work
    /// while this replica executes. Each peer gets one hand-off and at most
    /// one ack. On an error nothing is released; the caller stops serving.
    pub fn release(
        &mut self,
        log: Option<&mut impl Log>,
        links: &impl Links,
        stage: &mut impl Execute<X>,
    ) -> io::Result<()> {
        let ack_all = std::mem::take(&mut self.ack_all);
        let owed = |peer: &Peer| peer.unacked >= ACK_EVERY || (ack_all && peer.unacked > 0);
        self.must_sync |= log.is_some() && self.peers.iter().any(owed);
        self.flush(log)?;
        for peer in &mut self.peers {
            let ack = owed(peer).then_some(peer.last_seen);
            if ack.is_some() {
                peer.unacked = 0;
            }
            if ack.is_some() || !peer.frames.is_empty() {
                links.hand_off(peer.id, std::mem::take(&mut peer.frames), ack);
            }
        }
        for exec in self.execs.drain(..) {
            stage.execute(exec);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The calls the fakes saw, in order.
    type Calls = Rc<RefCell<Vec<String>>>;

    struct FakeLog {
        calls: Calls,
        fail_write: bool,
    }

    impl Log for FakeLog {
        fn stage(&mut self, _: &JournalRecord) {
            self.calls.borrow_mut().push("stage".into());
        }
        fn write(&mut self) -> io::Result<()> {
            self.calls.borrow_mut().push("write".into());
            match self.fail_write {
                true => Err(io::Error::other("disk full")),
                false => Ok(()),
            }
        }
        fn sync(&mut self, force: bool) -> io::Result<()> {
            self.calls.borrow_mut().push(format!("sync({force})"));
            Ok(())
        }
    }

    /// Stands in for the links and for the execute stage.
    struct FakeSink(Calls);

    impl Links for FakeSink {
        fn hand_off(&self, peer: ProcessId, frames: Vec<Arc<Vec<u8>>>, ack: Option<u64>) {
            let bytes: Vec<u8> = frames.iter().map(|frame| frame[0]).collect();
            self.0
                .borrow_mut()
                .push(format!("to {peer}: frames {bytes:?} ack {ack:?}"));
        }
    }

    impl Execute<&'static str> for FakeSink {
        fn execute(&mut self, exec: &'static str) {
            self.0.borrow_mut().push(format!("execute {exec}"));
        }
    }

    fn fakes() -> (Calls, FakeLog, FakeSink, FakeSink) {
        let calls = Calls::default();
        let log = FakeLog {
            calls: Rc::clone(&calls),
            fail_write: false,
        };
        let links = FakeSink(Rc::clone(&calls));
        (Rc::clone(&calls), log, links, FakeSink(calls))
    }

    fn peer_record() -> JournalRecord {
        JournalRecord::Peer {
            from: 2,
            payload: vec![1],
        }
    }

    fn frame(tag: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![tag])
    }

    fn seen(calls: &Calls) -> Vec<String> {
        calls.borrow().clone()
    }

    #[test]
    fn nothing_leaves_before_the_write_of_its_record() {
        let (calls, mut log, links, mut stage) = fakes();
        let mut outbox = Outbox::new();
        // Two events of one turn: each staged, applied, its effects held.
        for (seq, tag) in [(1, 10), (2, 20)] {
            outbox.stage(Some(&mut log), &peer_record(), false);
            outbox.send(3, frame(tag));
            outbox.send(2, frame(tag + 1));
            outbox.execute(if seq == 1 { "a" } else { "b" });
            outbox.received(2, seq);
        }
        assert_eq!(seen(&calls), ["stage", "stage"], "held until the write");
        outbox.release(Some(&mut log), &links, &mut stage).unwrap();
        assert_eq!(
            seen(&calls),
            [
                "stage",
                "stage",
                "write",
                "sync(false)",
                "to 3: frames [10, 20] ack None",
                "to 2: frames [11, 21] ack None",
                "execute a",
                "execute b",
            ],
            "one write, then one hand-off per link, then the executions"
        );
        // A turn that journaled nothing costs the journal nothing.
        outbox.send(3, frame(30));
        outbox.release(Some(&mut log), &links, &mut stage).unwrap();
        assert_eq!(seen(&calls).len(), 9);
        assert_eq!(seen(&calls)[8], "to 3: frames [30] ack None");
    }

    #[test]
    fn no_fresh_identifier_and_no_ack_before_the_sync() {
        let (calls, mut log, links, mut stage) = fakes();
        let mut outbox = Outbox::new();
        // A request: its records are written *and synced* by the early
        // flush, before the protocol mints identifiers from them.
        outbox.stage(Some(&mut log), &peer_record(), true);
        outbox.stage(Some(&mut log), &peer_record(), true);
        outbox.flush(Some(&mut log)).unwrap();
        assert_eq!(seen(&calls), ["stage", "stage", "write", "sync(true)"]);
        outbox.send(2, frame(1)); // carries the fresh identifier
        outbox.release(Some(&mut log), &links, &mut stage).unwrap();
        assert_eq!(seen(&calls)[4..], ["to 2: frames [1] ack None"]);

        // A suspicion is not flushed early: the forced sync still precedes
        // the recovery messages it minted ballots for.
        calls.borrow_mut().clear();
        outbox.stage(Some(&mut log), &peer_record(), true);
        outbox.send(3, frame(2));
        outbox.release(Some(&mut log), &links, &mut stage).unwrap();
        assert_eq!(
            seen(&calls),
            ["stage", "write", "sync(true)", "to 3: frames [2] ack None"]
        );

        // A peer message the protocol answered with a takeover is synced
        // the same way.
        calls.borrow_mut().clear();
        outbox.stage(Some(&mut log), &peer_record(), false);
        outbox.minted();
        outbox.send(3, frame(3));
        outbox.release(Some(&mut log), &links, &mut stage).unwrap();
        assert_eq!(
            seen(&calls),
            ["stage", "write", "sync(true)", "to 3: frames [3] ack None"]
        );

        // Acks: none below the threshold, one — after a forced sync — once
        // it is crossed, however far past it the burst went.
        calls.borrow_mut().clear();
        for seq in 1..ACK_EVERY {
            outbox.received(2, seq);
        }
        outbox.release(Some(&mut log), &links, &mut stage).unwrap();
        assert_eq!(seen(&calls), [] as [&str; 0], "no ack owed yet");
        for seq in ACK_EVERY..3 * ACK_EVERY {
            outbox.stage(Some(&mut log), &peer_record(), false);
            outbox.received(2, seq);
        }
        outbox.release(Some(&mut log), &links, &mut stage).unwrap();
        let tail = seen(&calls).split_off(2 * ACK_EVERY as usize);
        assert_eq!(
            tail,
            [
                "write".to_string(),
                "sync(true)".to_string(),
                format!("to 2: frames [] ack Some({})", 3 * ACK_EVERY - 1),
            ],
            "one ack per peer per turn, behind the sync"
        );

        // A tick acknowledges whatever is outstanding, synced first even
        // though this turn journaled nothing itself.
        calls.borrow_mut().clear();
        outbox.received(3, 7);
        outbox.ack_all();
        outbox.release(Some(&mut log), &links, &mut stage).unwrap();
        assert_eq!(seen(&calls), ["sync(true)", "to 3: frames [] ack Some(7)"]);
        outbox.release(Some(&mut log), &links, &mut stage).unwrap();
        assert_eq!(seen(&calls).len(), 2, "acked once");
    }

    #[test]
    fn a_turn_cut_short_releases_nothing_unwritten() {
        // Shutdown mid-turn: the loop returns and the outbox is dropped.
        let (calls, mut log, _links, _stage) = fakes();
        let mut outbox = Outbox::new();
        outbox.stage(Some(&mut log), &peer_record(), false);
        outbox.send(2, frame(1));
        outbox.execute("a");
        outbox.received(2, 1);
        outbox.ack_all();
        drop(outbox);
        assert_eq!(seen(&calls), ["stage"]);

        // A failed write: the error surfaces and everything stays held.
        let (calls, mut log, links, mut stage) = fakes();
        log.fail_write = true;
        let mut outbox = Outbox::new();
        outbox.stage(Some(&mut log), &peer_record(), false);
        outbox.send(2, frame(1));
        outbox.execute("a");
        assert!(outbox.release(Some(&mut log), &links, &mut stage).is_err());
        assert_eq!(seen(&calls), ["stage", "write"]);
    }

    #[test]
    fn an_ephemeral_replica_releases_without_a_journal() {
        let (calls, _log, links, mut stage) = fakes();
        let mut outbox = Outbox::new();
        outbox.stage(None::<&mut FakeLog>, &peer_record(), true);
        outbox.send(2, frame(1));
        outbox.received(2, 1);
        outbox.ack_all();
        outbox.forget(3);
        outbox
            .release(None::<&mut FakeLog>, &links, &mut stage)
            .unwrap();
        assert_eq!(seen(&calls), ["to 2: frames [1] ack Some(1)"]);
        outbox.send(2, frame(2));
        outbox.forget(2);
        outbox
            .release(None::<&mut FakeLog>, &links, &mut stage)
            .unwrap();
        assert_eq!(seen(&calls).len(), 1, "a departed peer gets nothing");
    }
}
