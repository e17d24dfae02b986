//! What the replica persists and how it recovers.
//!
//! The durable state of a replica is an **input journal** plus periodic
//! **snapshots**, both kept under one data directory by `atlas-log`:
//!
//! * every protocol-relevant input — a client [`JournalRecord::Submit`] or a
//!   peer [`JournalRecord::Peer`] message — is staged for the write-ahead
//!   log *before* the protocol processes it, and written (one `write` per
//!   event-loop turn, see `turn.rs`) before anything derived from it
//!   leaves the replica. Protocols are deterministic
//!   state machines (wall-clock time only feeds metrics), so replaying the
//!   journaled inputs in order reconstructs exactly the state the previous
//!   incarnation reached — including the dots it assigned, the dependencies
//!   it reported and the promises it made to peers;
//! * every `snapshot_every` records — and after every GC round that shrank
//!   the protocol state — the replica persists a [`ReplicaSnapshot`] (the
//!   protocol's [`save_state`](atlas_core::Protocol::save_state), the
//!   key–value store and the execution record) in three steps, of which
//!   only the first runs on the event loop:
//!   1. **cut** (`Journal::save_snapshot`): at a turn boundary — every
//!      journaled record applied — the loop copies its state, fsyncs the
//!      WAL and stamps the copy with the WAL's next index;
//!   2. **write**: the journal's writer thread serialises the cut and
//!      publishes it (temporary file, fsync, rename, directory fsync, prune
//!      older snapshots) while the loop keeps serving, then reports back;
//!   3. **truncate** (`Journal::snapshot_written`): the loop drops the
//!      WAL segments the published snapshot covers, so replay work and
//!      disk usage stay bounded.
//!
//!   At most one snapshot is in flight; one falling due meanwhile is taken
//!   when the writer reports. A crash at any point leaves the newest
//!   published snapshot and a WAL still holding every record at or above
//!   its index (`ARCHITECTURE.md` has the crash matrix).
//!
//! Recovery is then: load the latest snapshot (if any), restore the
//! protocol with [`restore_state`](atlas_core::Protocol::restore_state),
//! and replay the journal suffix. A replica whose data directory was wiped
//! additionally performs peer-assisted catch-up (see
//! [`crate::replica`]).

use crate::metrics::ReplicaMetrics;
use crate::turn::Log;
use atlas_core::{ClusterView, Command, Dot, ProcessId, Rifl};
use atlas_log::{FlushPolicy, SnapshotStore, Wal};
use kvstore::KVStore;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One journaled protocol input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A local client submitted `cmd`.
    Submit {
        /// The submitted command.
        cmd: Command,
    },
    /// Peer `from` sent a protocol message (bincode encoding of the hosted
    /// protocol's `Message`; kept opaque so the record type is not generic).
    Peer {
        /// The sending replica.
        from: ProcessId,
        /// Encoded protocol message, exactly as received.
        payload: Vec<u8>,
    },
    /// During catch-up, peers reported having seen this replica's
    /// identifiers up to `past`
    /// ([`Protocol::advance_identifiers`](atlas_core::Protocol::advance_identifiers)).
    /// Journaled so the advance survives a second crash.
    Advance {
        /// Horizon below which identifiers must never be reissued.
        past: u64,
    },
    /// The failure detector suspected `peer` and the replica dispatched
    /// [`Protocol::suspect`](atlas_core::Protocol::suspect). Journaled
    /// because suspicion is a protocol *input* like any other: it can mint
    /// recovery ballots (promises this replica makes as a recovery
    /// coordinator), and replaying the subsequent peer messages without it
    /// would reconstruct a different — unsound — replica.
    Suspect {
        /// The suspected replica.
        peer: ProcessId,
    },
    /// A garbage-collection round ran:
    /// [`Protocol::gc_executed`](atlas_core::Protocol::gc_executed) was
    /// called with this all-executed horizon. Journaled so replay
    /// reconstructs the exact post-GC state — the compaction floor changes
    /// which straggler messages the protocol ignores, and replaying the
    /// suffix against an uncompacted replica would diverge.
    Gc {
        /// Per identifier space, the horizon below which every replica had
        /// executed (sorted by space).
        horizon: Vec<(ProcessId, u64)>,
    },
    /// The runtime adopted a configuration view it learned *off the log* —
    /// from a peer's epoch announcement frame — rather than by executing a
    /// `Reconfigure` barrier itself (barrier-driven switches are **not**
    /// journaled: replaying the journaled `Submit`/`Peer` inputs re-executes
    /// the barrier and re-derives the same view deterministically).
    /// Journaled so a restarting replica rebuilds the same peer set, failure
    /// detector membership and GC watermark keying it had before crashing.
    /// Appended last so journals written before reconfiguration existed
    /// still decode (records encode positionally).
    Epoch {
        /// The adopted view.
        view: ClusterView,
        /// Address of every process in the view (current and outgoing).
        addrs: Vec<(ProcessId, String)>,
    },
}

/// Everything a snapshot captures. Restoring this plus replaying the
/// journal suffix is equivalent to replaying the full journal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaSnapshot {
    /// [`Protocol::save_state`](atlas_core::Protocol::save_state) bytes.
    pub protocol: Vec<u8>,
    /// The replicated key–value store, always in **flat** (merged) form —
    /// never per-shard parts. A replica running the sharded executor pool
    /// merges its shard stores before snapshotting, so on-disk state is
    /// independent of `--shards` and a restart may use a different count.
    pub store: KVStore,
    /// The execution record: `(dot, rifl)` in local execution order.
    pub log: Vec<(Dot, Rifl)>,
    /// The runtime's configuration view when the snapshot was taken, so a
    /// restart resumes with the post-reconfiguration peer set instead of
    /// the boot-time one.
    pub view: ClusterView,
    /// Address of every process in `view` (current and outgoing members).
    pub addrs: Vec<(ProcessId, String)>,
}

/// What a [`Journal`] needs from the replica that hosts it.
pub(crate) struct Host {
    /// Where disk time and counts are recorded (shared with the writer).
    pub metrics: Arc<ReplicaMetrics>,
    /// `ReplicaConfig::fsync_stall`: injected latency per fsync.
    pub fsync_stall: Duration,
    /// The incarnation's stop flag: once set, the writer publishes nothing.
    pub stop: Arc<AtomicBool>,
    /// How the writer thread reports `(index, published)`; the replica
    /// turns it into an event that ends in [`Journal::snapshot_written`].
    pub report: Box<dyn Fn(u64, io::Result<bool>) + Send + Sync>,
}

/// What the event loop and the snapshot writer share of the durable state.
struct Disk {
    snapshots: SnapshotStore,
    host: Host,
}

impl Disk {
    /// Accounts for one real fsync that started at `t0`: every fsync the
    /// replica issues ends here, on the thread that issued it. The injected
    /// slow-disk stall comes first, inside the timed window, so it delays
    /// what a slow fsync delays (on the event loop: heartbeats too).
    fn fsynced(&self, t0: Instant) {
        if !self.host.fsync_stall.is_zero() {
            std::thread::sleep(self.host.fsync_stall);
        }
        self.host.metrics.fsyncs.inc();
        let us = (t0.elapsed().as_micros() as u64).max(1);
        self.host.metrics.fsync_us.record(us);
    }

    /// Serialises `snapshot` and publishes it as covering WAL records below
    /// `index` — the one write path, run by the writer thread and by the
    /// synchronous snapshot that ends catch-up. `Ok(false)`: abandoned
    /// unpublished because the replica stopped meanwhile; its directory may
    /// already belong to the next incarnation (wiped and recreated, even),
    /// where this journal's snapshot would cover records never written.
    ///
    /// A writer overtaken by a kill between its stop check and its rename
    /// needs no more synchronisation: its temporary file predates the kill,
    /// so a wipe or the next `SnapshotStore::open` removes it and the rename
    /// fails; landing in a directory restarted as is, the rename publishes
    /// a valid snapshot of that same WAL (its prefix was synced at the cut).
    fn write(&self, index: u64, snapshot: &ReplicaSnapshot) -> io::Result<bool> {
        let t0 = Instant::now();
        let bytes = bincode::serialize(snapshot).expect("snapshots always encode");
        let stopped = || self.host.stop.load(Ordering::Relaxed);
        let synced = |t0| self.fsynced(t0);
        let published = self.snapshots.save_with(index, &bytes, synced, stopped)?;
        self.host.metrics.snapshot_bytes.set(bytes.len() as u64);
        let us = t0.elapsed().as_micros() as u64;
        self.host.metrics.snapshot_write_us.record(us);
        Ok(published)
    }
}

/// What the writer is handed: the WAL index the snapshot covers up to, and it.
type Cut = (u64, ReplicaSnapshot);

/// The open durable state of a running replica.
pub(crate) struct Journal {
    wal: Wal,
    disk: Arc<Disk>,
    /// Take a snapshot after this many journaled records (0 = never).
    snapshot_every: u64,
    /// Records appended since the last cut.
    since_snapshot: u64,
    /// A GC round asked for a snapshot ([`Journal::want_snapshot`]).
    wanted: bool,
    /// WAL index of the cut the writer is persisting. At most one snapshot
    /// is ever in flight; one that falls due meanwhile waits for the report.
    in_flight: Option<u64>,
    /// The snapshot writer and its inbox, spawned with the first hand-off.
    writer: Option<(mpsc::Sender<Cut>, JoinHandle<()>)>,
}

/// An `InvalidData` error for journal/snapshot corruption — the class of
/// failure recovery must surface loudly instead of booting amnesiac.
pub(crate) fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Journal {
    /// Opens the data directory, returning the journal positioned for
    /// appending, the latest snapshot (if any) and the journal records the
    /// snapshot does not cover, in order.
    pub fn open(
        dir: &Path,
        policy: FlushPolicy,
        snapshot_every: u64,
        host: Host,
    ) -> io::Result<(Self, Option<ReplicaSnapshot>, Vec<JournalRecord>)> {
        let snapshots = SnapshotStore::open(dir)?;
        let (wal, raw_records) = Wal::open(&dir.join("wal"), policy)?;
        let (snapshot, covered) = match snapshots.load_latest()? {
            Some((index, bytes)) => {
                let snapshot: ReplicaSnapshot = bincode::deserialize(&bytes)
                    .map_err(|e| corrupt(format!("undecodable snapshot {index}: {e}")))?;
                (Some(snapshot), index)
            }
            None => (None, 0),
        };
        let mut records = Vec::new();
        for raw in raw_records {
            if raw.index < covered {
                continue; // segment straddling the snapshot index
            }
            let record = bincode::deserialize(&raw.payload)
                .map_err(|e| corrupt(format!("undecodable journal record {}: {e}", raw.index)))?;
            records.push(record);
        }
        // The replayed suffix counts toward the snapshot cadence: a replica
        // that keeps crashing just short of `snapshot_every` *new* records
        // would otherwise never snapshot, and its journal (and recovery
        // time) would grow without bound across restarts.
        let since_snapshot = records.len() as u64;
        Ok((
            Self {
                wal,
                disk: Arc::new(Disk { snapshots, host }),
                snapshot_every,
                since_snapshot,
                wanted: false,
                in_flight: None,
                writer: None,
            },
            snapshot,
            records,
        ))
    }

    /// Number of live WAL segment files (compaction health metric).
    pub fn wal_segments(&self) -> usize {
        self.wal.segment_count()
    }

    /// A GC round shrank the protocol state: snapshot at the next event
    /// boundary whatever the cadence says, so the files on disk shrink too.
    pub fn want_snapshot(&mut self) {
        if self.in_flight.is_some() {
            self.disk.host.metrics.snapshots_coalesced.inc();
        }
        self.wanted = true;
    }

    /// Whether to cut a snapshot now: one is due (cadence or GC) and the
    /// writer is free. While it is busy, due snapshots coalesce into the
    /// one this reports once [`Journal::snapshot_written`] ran — which also
    /// keeps a slow disk from queueing cuts.
    pub fn snapshot_due(&self) -> bool {
        let cadence = self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every;
        self.in_flight.is_none() && (self.wanted || cadence)
    }

    /// Takes `snapshot` — the replica's state after applying **every**
    /// record journaled so far, so only ever cut at a turn boundary — as
    /// covering the journal up to here, and hands it to the writer thread;
    /// [`Journal::snapshot_written`] finishes the job when the writer
    /// reports. `cut_started` is when the caller began copying its state:
    /// `snapshot_cut_us` runs from there to the hand-off. `inline` writes on
    /// the calling thread instead (the snapshot that ends catch-up must be
    /// on disk before the replica serves).
    ///
    /// The WAL is fsynced first, whatever the flush policy: the snapshot
    /// may only become loadable once the records below its index are
    /// durable. Were they lost to a power failure, the restarted WAL would
    /// reissue indices below the snapshot's and [`Journal::open`] would
    /// skip those records. That fsync is a disk wait on the event loop, one
    /// per snapshot and as slow as the device; so is the directory fsync of
    /// a truncation that drops a segment ([`Journal::snapshot_written`]).
    pub fn save_snapshot(
        &mut self,
        snapshot: ReplicaSnapshot,
        cut_started: Instant,
        inline: bool,
    ) -> io::Result<()> {
        debug_assert!(self.in_flight.is_none(), "one snapshot in flight at most");
        self.write()?; // nothing is staged at a turn boundary; cheap to be sure
        let t0 = Instant::now();
        self.wal.sync()?;
        self.disk.fsynced(t0);
        let index = self.wal.next_index();
        self.since_snapshot = 0;
        self.wanted = false;
        if inline {
            let result = self.disk.write(index, &snapshot);
            return self.snapshot_written(index, result);
        }
        if self.writer.is_none() {
            let (tx, rx) = mpsc::channel();
            let disk = Arc::clone(&self.disk);
            let handle = std::thread::Builder::new()
                .name("snapshot-writer".into())
                .spawn(move || {
                    for (index, snapshot) in rx {
                        (disk.host.report)(index, disk.write(index, &snapshot));
                    }
                })?;
            self.writer = Some((tx, handle));
        }
        let (inbox, _) = self.writer.as_ref().expect("spawned above");
        inbox
            .send((index, snapshot))
            .map_err(|_| io::Error::other("snapshot writer thread is gone"))?;
        self.in_flight = Some(index);
        let cut_us = cut_started.elapsed().as_micros() as u64;
        self.disk.host.metrics.snapshot_cut_us.record(cut_us);
        Ok(())
    }

    /// The snapshot cut at `index` finished: if it was published, the log
    /// prefix it covers goes away — only now, never at hand-off, so a crash
    /// while the writer works restarts from the previous snapshot and the
    /// full journal suffix.
    pub fn snapshot_written(&mut self, index: u64, result: io::Result<bool>) -> io::Result<()> {
        self.in_flight = None;
        if result? {
            let t0 = Instant::now();
            if self.wal.truncate_below(index)? {
                self.disk.fsynced(t0);
            }
            self.disk.host.metrics.snapshots_saved.inc();
        }
        Ok(())
    }
}

impl Log for Journal {
    /// Encodes `record` straight into the WAL's staging buffer (write-ahead:
    /// call this *before* handing the input to the protocol).
    fn stage(&mut self, record: &JournalRecord) {
        self.wal.stage_with(|buf| {
            bincode::serialize_into(buf, record).expect("journal records always encode")
        });
        let metrics = &self.disk.host.metrics;
        metrics.journal_records.inc();
        self.since_snapshot += 1;
        if self.since_snapshot == self.snapshot_every && self.in_flight.is_some() {
            metrics.snapshots_coalesced.inc();
        }
    }

    fn write(&mut self) -> io::Result<()> {
        if self.wal.flush()? {
            self.disk.host.metrics.wal_writes.inc();
        }
        Ok(())
    }

    /// The flush policy's fsync of what was written (`force`: an ack or a
    /// fresh identifier is about to leave). Under
    /// [`FlushPolicy::OsBuffered`] this is a no-op — that policy explicitly
    /// trades host-power-loss durability away (process crashes are still
    /// covered by the page cache). Only real syncs are metered.
    fn sync(&mut self, force: bool) -> io::Result<()> {
        let t0 = Instant::now();
        if self.wal.sync_if(force)? {
            self.disk.fsynced(t0);
        }
        Ok(())
    }
}

impl Drop for Journal {
    /// Waits for the writer to finish the cut it holds (it publishes
    /// nothing once the stop flag is set), so no write outlives the journal
    /// unobserved and a writer panic is not lost.
    fn drop(&mut self) {
        if let Some((inbox, handle)) = self.writer.take() {
            drop(inbox);
            if handle.join().is_err() {
                eprintln!("snapshot writer thread panicked");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_log::TempDir;

    /// Journals one record the way a one-event turn does: stage, write.
    fn append(journal: &mut Journal, record: &JournalRecord) {
        journal.stage(record);
        journal.write().unwrap();
    }

    fn submit(n: u64) -> JournalRecord {
        JournalRecord::Submit {
            cmd: Command::put(Rifl::new(n, 1), n, n, 8),
        }
    }

    /// What the writer thread reported, in order.
    type Reports = mpsc::Receiver<(u64, io::Result<bool>)>;

    /// A host whose writer reports into a channel the test drains by hand —
    /// the test plays the event loop.
    fn host() -> (Host, Reports) {
        let (tx, rx) = mpsc::channel();
        let tx = std::sync::Mutex::new(tx);
        let host = Host {
            metrics: Arc::new(ReplicaMetrics::new()),
            fsync_stall: Duration::ZERO,
            stop: Arc::new(AtomicBool::new(false)),
            report: Box::new(move |index, result| {
                let _ = tx.lock().expect("report lock").send((index, result));
            }),
        };
        (host, rx)
    }

    fn open(dir: &TempDir, every: u64) -> (Journal, Option<ReplicaSnapshot>, Vec<JournalRecord>) {
        Journal::open(dir.path(), FlushPolicy::OsBuffered, every, host().0).unwrap()
    }

    fn snapshot(marker: u8) -> ReplicaSnapshot {
        ReplicaSnapshot {
            protocol: vec![marker, marker],
            store: KVStore::new(),
            log: vec![(Dot::new(1, 1), Rifl::new(1, 1))],
            view: ClusterView::at(2, [1, 2, 4], 1),
            addrs: vec![(1, "a:1".into()), (2, "a:2".into()), (4, "a:4".into())],
        }
    }

    #[test]
    fn journal_records_round_trip_across_reopen() {
        let dir = TempDir::new("journal-roundtrip").unwrap();
        let (mut journal, snap, records) = open(&dir, 0);
        assert!(snap.is_none());
        assert!(records.is_empty());
        append(&mut journal, &submit(1));
        append(
            &mut journal,
            &JournalRecord::Peer {
                from: 2,
                payload: vec![1, 2, 3],
            },
        );
        append(&mut journal, &JournalRecord::Suspect { peer: 3 });
        append(
            &mut journal,
            &JournalRecord::Gc {
                horizon: vec![(1, 9), (2, 4)],
            },
        );
        drop(journal);

        let (_, snap, records) = open(&dir, 0);
        assert!(snap.is_none());
        assert_eq!(records.len(), 4);
        assert_eq!(records[0], submit(1));
        assert_eq!(
            records[1],
            JournalRecord::Peer {
                from: 2,
                payload: vec![1, 2, 3]
            }
        );
        assert_eq!(records[2], JournalRecord::Suspect { peer: 3 });
        assert_eq!(
            records[3],
            JournalRecord::Gc {
                horizon: vec![(1, 9), (2, 4)]
            }
        );
    }

    #[test]
    fn snapshot_truncates_the_covered_prefix() {
        let dir = TempDir::new("journal-snap").unwrap();
        let (mut journal, _, _) = open(&dir, 3);
        for i in 0..3 {
            append(&mut journal, &submit(i));
        }
        assert!(journal.snapshot_due());
        journal
            .save_snapshot(snapshot(9), Instant::now(), true)
            .unwrap();
        assert!(!journal.snapshot_due());
        append(&mut journal, &submit(7));
        drop(journal);

        let (_, snap, records) = open(&dir, 3);
        let snap = snap.expect("snapshot restored");
        assert_eq!(snap.protocol, vec![9, 9]);
        assert_eq!(snap.log.len(), 1);
        assert_eq!(snap.view, ClusterView::at(2, [1, 2, 4], 1));
        assert_eq!(snap.addrs.len(), 3);
        assert_eq!(records, vec![submit(7)], "only the suffix replays");
    }

    /// Records physically present in the WAL files right now.
    fn wal_records(dir: &TempDir) -> usize {
        let (_, records) = Wal::open(&dir.path().join("wal"), FlushPolicy::OsBuffered).unwrap();
        records.len()
    }

    /// The write-behind protocol, with the test in the event loop's seat:
    /// handing a cut off truncates nothing — not even once the writer has
    /// published it — only the completion call does; and what falls due
    /// while the writer is busy waits for it as **one** snapshot.
    #[test]
    fn truncation_waits_for_the_completion_call_and_due_snapshots_coalesce() {
        let dir = TempDir::new("journal-writer").unwrap();
        let (host, reports) = host();
        let metrics = Arc::clone(&host.metrics);
        let (mut journal, _, _) =
            Journal::open(dir.path(), FlushPolicy::OsBuffered, 3, host).unwrap();
        for i in 0..3 {
            append(&mut journal, &submit(i));
        }
        assert!(journal.snapshot_due());
        journal
            .save_snapshot(snapshot(1), Instant::now(), false)
            .unwrap();
        let (index, result) = reports.recv().expect("writer reports");
        assert_eq!(index, 3);
        assert!(result.as_ref().is_ok_and(|published| *published));
        assert_eq!(wal_records(&dir), 3, "hand-off must not truncate");
        assert_eq!(metrics.snapshots_saved.get(), 0);
        journal.snapshot_written(index, result).unwrap();
        assert_eq!(wal_records(&dir), 0, "completion truncates");
        assert_eq!(metrics.snapshots_saved.get(), 1);

        for i in 3..6 {
            append(&mut journal, &submit(i));
        }
        journal
            .save_snapshot(snapshot(2), Instant::now(), false)
            .unwrap();
        // Cadence and a GC round both fall due while that one is in flight
        // (in flight until the loop has seen the report): neither is taken.
        for i in 6..9 {
            append(&mut journal, &submit(i));
        }
        journal.want_snapshot();
        assert!(!journal.snapshot_due(), "one snapshot in flight at most");
        assert_eq!(metrics.snapshots_coalesced.get(), 2);
        let (index, result) = reports.recv().expect("writer reports");
        assert_eq!(index, 6);
        journal.snapshot_written(index, result).unwrap();
        assert!(journal.snapshot_due(), "the coalesced snapshot is due now");
        journal
            .save_snapshot(snapshot(3), Instant::now(), false)
            .unwrap();
        let (index, result) = reports.recv().expect("writer reports");
        assert_eq!(index, 9);
        journal.snapshot_written(index, result).unwrap();
        assert!(!journal.snapshot_due(), "two fell due, one was taken");
        assert_eq!(metrics.snapshots_saved.get(), 3);
        assert_eq!(metrics.snapshot_write_us.load().count(), 3);
        assert!(metrics.snapshot_bytes.get() > 0);
        // Per snapshot: the cut's WAL sync, the file's, the directory's —
        // and the WAL directory's when a segment went away, which the
        // second completion (records 6..9 already behind it) could not do.
        assert_eq!(metrics.fsyncs.get(), 3 * 3 + 2);
        drop(journal);

        let (_, snap, records) = open(&dir, 3);
        assert_eq!(snap.expect("snapshot restored").protocol, vec![3, 3]);
        assert!(records.is_empty());
    }

    /// An unpublished write (the writer saw the stop flag) truncates
    /// nothing: the previous snapshot and the full journal stay the truth.
    #[test]
    fn a_stopped_replica_publishes_and_truncates_nothing() {
        let dir = TempDir::new("journal-stopped").unwrap();
        let (host, reports) = host();
        let stop = Arc::clone(&host.stop);
        let (mut journal, _, _) =
            Journal::open(dir.path(), FlushPolicy::OsBuffered, 2, host).unwrap();
        append(&mut journal, &submit(0));
        append(&mut journal, &submit(1));
        stop.store(true, Ordering::Relaxed);
        journal
            .save_snapshot(snapshot(1), Instant::now(), false)
            .unwrap();
        let (index, result) = reports.recv().expect("writer reports");
        assert!(result.as_ref().is_ok_and(|published| !*published));
        journal.snapshot_written(index, result).unwrap();
        drop(journal);

        let files = std::fs::read_dir(dir.path()).unwrap();
        let names: Vec<_> = files.map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["wal"], "no snapshot, no temporary file");
        let (_, snap, records) = open(&dir, 2);
        assert!(snap.is_none());
        assert_eq!(records, vec![submit(0), submit(1)]);
    }

    #[test]
    fn epoch_records_round_trip_across_reopen() {
        let dir = TempDir::new("journal-epoch").unwrap();
        let (mut journal, _, _) = open(&dir, 0);
        let record = JournalRecord::Epoch {
            view: ClusterView::at(4, [1, 2, 4, 5, 6], 2),
            addrs: (1..=6).map(|i| (i, format!("h:{i}"))).collect(),
        };
        append(&mut journal, &record);
        drop(journal);

        let (_, _, records) = open(&dir, 0);
        assert_eq!(records, vec![record]);
    }
}
