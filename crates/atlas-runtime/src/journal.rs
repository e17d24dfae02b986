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
//!      journaled record applied — the loop first runs a GC round (when GC
//!      is on), so the protocol state it encodes is the in-flight window
//!      rather than everything executed since the last round; the round's
//!      `Gc` record is journaled before the cut, which covers it. The loop
//!      then encodes the protocol state and copies the store, but
//!      **shares** the execution record (`ExecutionRecord`): its growing
//!      tail is frozen into one more `Arc` chunk, and the cut takes the
//!      chunk list, one pointer per chunk. Last it fsyncs the WAL and
//!      stamps the cut with the WAL's next index;
//!   2. **write**: the journal's writer thread appends the record entries
//!      executed since the last published cut to the record file (one
//!      fdatasynced chunk, `RecordFile`), serialises the snapshot with an
//!      empty [`ReplicaSnapshot::log`] and publishes it (temporary file,
//!      fsync, rename, directory fsync, prune older snapshots) while the
//!      loop keeps serving, then reports back;
//!   3. **truncate** (`Journal::snapshot_written`): the loop drops the
//!      WAL segments the published snapshot covers, so replay work and
//!      disk usage stay bounded.
//!
//!   At most one snapshot is in flight; one falling due meanwhile is taken
//!   when the writer reports. A crash at any point leaves the newest
//!   published snapshot and a WAL still holding every record at or above
//!   its index (`ARCHITECTURE.md` has the crash matrix).
//!
//! Recovery is then: load the latest snapshot (if any) and the record it
//! covers, restore the protocol with
//! [`restore_state`](atlas_core::Protocol::restore_state), and replay the
//! journal suffix. A replica whose data directory was wiped
//! additionally performs peer-assisted catch-up (see
//! [`crate::replica`]).

use crate::metrics::ReplicaMetrics;
use crate::turn::Log;
use atlas_core::{ClusterView, Command, Dot, ProcessId, Rifl};
use atlas_log::{FlushPolicy, SnapshotStore, Wal};
use kvstore::KVStore;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    /// The failure detector measured a new distance order and the replica
    /// dispatched [`Protocol::discover`](atlas_core::Protocol::discover) —
    /// an input like `Suspect`: it re-draws quorums and can mint recovery
    /// ballots. Appended last so older journals still decode.
    Discover {
        /// The processes reached, closest first.
        by_distance: Vec<ProcessId>,
    },
}

/// Everything a snapshot captures. Restoring this plus replaying the
/// journal suffix is equivalent to replaying the full journal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaSnapshot {
    /// [`Protocol::save_state`](atlas_core::Protocol::save_state) bytes.
    pub protocol: Vec<u8>,
    /// The replicated key–value store.
    pub store: KVStore,
    /// The execution record: `(dot, rifl)` in local execution order. Empty
    /// in a published file, whose record is in the record file.
    pub log: Vec<(Dot, Rifl)>,
    /// The runtime's configuration view when the snapshot was taken, so a
    /// restart resumes with the post-reconfiguration peer set instead of
    /// the boot-time one.
    pub view: ClusterView,
    /// Address of every process in `view` (current and outgoing members).
    pub addrs: Vec<(ProcessId, String)>,
}

/// The execution record as the event loop keeps it: `(dot, rifl)` in local
/// execution order, held as frozen chunks shared behind `Arc`s plus the
/// tail that still grows. [`ExecutionRecord::freeze`] moves the tail into a
/// chunk of its own — no entry is copied — and returns the record up to
/// there, sharing every chunk; that is all a snapshot cut takes of it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecutionRecord {
    frozen: Vec<Arc<Vec<(Dot, Rifl)>>>,
    tail: Vec<(Dot, Rifl)>,
}

impl ExecutionRecord {
    /// Appends one executed command.
    pub fn push(&mut self, entry: (Dot, Rifl)) {
        self.tail.push(entry);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.frozen.iter().map(|chunk| chunk.len()).sum::<usize>() + self.tail.len()
    }

    /// Whether nothing executed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freezes the tail into a new chunk (a move, not a copy) and returns
    /// the whole record as it stands, cloning one `Arc` per chunk.
    pub fn freeze(&mut self) -> Self {
        if !self.tail.is_empty() {
            self.frozen.push(Arc::new(std::mem::take(&mut self.tail)));
        }
        Self {
            frozen: self.frozen.clone(),
            tail: Vec::new(),
        }
    }

    /// The entries in execution order.
    pub fn iter(&self) -> impl Iterator<Item = &(Dot, Rifl)> {
        self.since(0)
    }

    /// The entries from position `start` on, in execution order; the
    /// chunks wholly below it are skipped, not walked.
    pub fn since(&self, start: usize) -> impl Iterator<Item = &(Dot, Rifl)> {
        let mut skip = start;
        let parts = self.frozen.iter().map(|chunk| chunk.as_slice());
        parts.chain([self.tail.as_slice()]).flat_map(move |part| {
            let below = skip.min(part.len());
            skip -= below;
            &part[below..]
        })
    }
}

impl From<Vec<(Dot, Rifl)>> for ExecutionRecord {
    /// A restored record: the vector becomes the first frozen chunk as is.
    fn from(entries: Vec<(Dot, Rifl)>) -> Self {
        let mut record = Self {
            frozen: Vec::new(),
            tail: entries,
        };
        record.freeze();
        record
    }
}

/// A snapshot as the event loop cuts it: the fields of a
/// [`ReplicaSnapshot`], with the execution record still shared with the
/// loop. The writer appends the entries the record file lacks and encodes
/// the rest ([`SnapshotCut::split`]) with an empty `log`.
pub(crate) struct SnapshotCut {
    /// [`Protocol::save_state`](atlas_core::Protocol::save_state) bytes.
    pub protocol: Vec<u8>,
    /// The flat (merged) key–value store.
    pub store: KVStore,
    /// The execution record up to the cut.
    pub log: ExecutionRecord,
    /// The runtime's configuration view.
    pub view: ClusterView,
    /// Address of every process in `view`.
    pub addrs: Vec<(ProcessId, String)>,
}

impl SnapshotCut {
    /// The cut's [`ReplicaSnapshot`] with an empty `log`, and its record.
    fn split(self) -> (ReplicaSnapshot, ExecutionRecord) {
        let snapshot = ReplicaSnapshot {
            protocol: self.protocol,
            store: self.store,
            log: Vec::new(),
            view: self.view,
            addrs: self.addrs,
        };
        (snapshot, self.log)
    }
}

/// A snapshot file as published: [`ENVELOPE_TAG`], the record file's chunks
/// and entries it covers, and the snapshot with an empty `log`. A file from
/// before the record file is a bare [`ReplicaSnapshot`], record inline; it
/// starts with the protocol state's length, which is never the tag.
type Envelope = (u64, u64, u64, ReplicaSnapshot);
const ENVELOPE_TAG: u64 = u64::MAX;

/// Held over each writer's stop check and chunk write, and over every
/// opening of a record file: a killed writer still running when
/// `Cluster::restart` reopens its directory either wrote its chunk before
/// (an unpublished chunk) or sees the stop flag and writes nothing.
static RECORD_WRITES: Mutex<()> = Mutex::new(());

/// The execution record's own file, `record/` beside the WAL, framed by a
/// [`Wal`]: one chunk `(start, entries)` per cut that executed anything,
/// fdatasynced before that cut's snapshot is renamed into place. The chunks
/// below a snapshot's count, each overwriting the record from its `start`
/// on, rebuild exactly the record it covers; an unpublished cut's chunk
/// lies above, and the next chunk starts where the published record ends.
#[derive(Default)]
struct RecordFile {
    path: PathBuf,
    /// Opened at boot when a snapshot points into the file, else by the
    /// first chunk.
    wal: Option<Wal>,
    /// Entries and chunks of the file the published snapshot covers.
    persisted: u64,
    chunks: u64,
}

impl RecordFile {
    /// Rebuilds the record of a snapshot that covers the file's first
    /// `chunks` chunks and `entries` entries, keeping the file open.
    fn restore(&mut self, chunks: u64, entries: u64) -> io::Result<Vec<(Dot, Rifl)>> {
        if chunks == 0 && entries == 0 {
            return Ok(Vec::new()); // cut before anything executed: no file
        }
        let _opening = RECORD_WRITES.lock().expect("record lock");
        let (wal, raw) = Wal::open(&self.path, FlushPolicy::OsBuffered)?;
        let mut log = Vec::new();
        for raw in raw.iter().take_while(|raw| raw.index < chunks) {
            let (start, part): (u64, Vec<(Dot, Rifl)>) = bincode::deserialize(&raw.payload)
                .map_err(|e| corrupt(format!("undecodable record chunk {}: {e}", raw.index)))?;
            if start > log.len() as u64 {
                return Err(corrupt(format!("record chunk {} follows a gap", raw.index)));
            }
            log.truncate(start as usize);
            log.extend(part);
        }
        let held = log.len() as u64;
        if held != entries || wal.next_index() < chunks {
            return Err(corrupt(format!("record holds {held} of {entries} entries")));
        }
        (self.wal, self.persisted, self.chunks) = (Some(wal), entries, chunks);
        Ok(log)
    }

    /// Appends the entries of `log` past the persisted ones as one chunk,
    /// fdatasynced (`synced` meters it), unless `stopped`. Returns the
    /// `(chunks, entries)` a snapshot of `log` covers.
    fn append(
        &mut self,
        log: &ExecutionRecord,
        stopped: impl Fn() -> bool,
        synced: impl FnOnce(Instant),
    ) -> io::Result<Option<(u64, u64)>> {
        let (start, entries) = (self.persisted, log.len() as u64);
        if entries < start {
            return Err(corrupt(format!("record shrank below {start} entries")));
        }
        if entries == start {
            return Ok(Some((self.chunks, entries))); // nothing new: no chunk, no fsync
        }
        let part: Vec<(Dot, Rifl)> = log.since(start as usize).copied().collect();
        let chunk = bincode::serialize(&(start, part)).expect("chunks always encode");
        let appending = RECORD_WRITES.lock().expect("record lock");
        if stopped() {
            return Ok(None);
        }
        if self.wal.is_none() {
            self.wal = Some(Wal::open(&self.path, FlushPolicy::OsBuffered)?.0);
        }
        let wal = self.wal.as_mut().expect("opened above");
        wal.stage(&chunk);
        wal.flush()?;
        drop(appending);
        let t0 = Instant::now();
        wal.sync()?;
        synced(t0);
        Ok(Some((wal.next_index(), entries)))
    }
}

/// What a [`Journal`] needs from the replica that hosts it.
pub(crate) struct Host {
    /// Where disk time and counts are recorded (shared with the writer).
    pub metrics: Arc<ReplicaMetrics>,
    /// `ClusterOptions::fsync_stall` for this replica: injected latency per fsync.
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
    /// Only ever locked by the one thread writing a snapshot.
    record: Mutex<RecordFile>,
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

    /// Appends the record entries `cut` adds to the record file, then
    /// serialises the rest of it and publishes it as covering WAL records
    /// below `index` — the one write path, run by the writer thread and by
    /// the synchronous snapshot that ends catch-up. `Ok(false)`: abandoned
    /// unpublished because the replica stopped meanwhile; its directory may
    /// already belong to the next incarnation (wiped and recreated, even),
    /// where this journal's snapshot would cover records never written (the
    /// flag is checked before the chunk append and before the rename).
    ///
    /// A writer overtaken by a kill between its stop check and its rename
    /// needs no more synchronisation: its temporary file predates the kill,
    /// so a wipe or the next `SnapshotStore::open` removes it and the rename
    /// fails; landing in a directory restarted as is, the rename publishes
    /// a valid snapshot of that same WAL (its prefix was synced at the cut)
    /// and record file (its chunk was written before the file was reopened).
    fn write(&self, index: u64, cut: SnapshotCut) -> io::Result<bool> {
        let t0 = Instant::now();
        let stopped = || self.host.stop.load(Ordering::Relaxed);
        let synced = |t0| self.fsynced(t0);
        let (snapshot, log) = cut.split();
        let mut record = self.record.lock().expect("record file lock");
        let Some((chunks, entries)) = record.append(&log, stopped, synced)? else {
            return Ok(false);
        };
        let envelope = (ENVELOPE_TAG, chunks, entries, snapshot);
        let bytes = bincode::serialize(&envelope).expect("snapshots always encode");
        let published = self.snapshots.save_with(index, &bytes, synced, stopped)?;
        if published {
            (record.persisted, record.chunks) = (entries, chunks);
        }
        self.host.metrics.snapshot_bytes.set(bytes.len() as u64);
        let us = t0.elapsed().as_micros() as u64;
        self.host.metrics.snapshot_write_us.record(us);
        Ok(published)
    }
}

/// What the writer is handed: the WAL index the snapshot covers up to, and it.
type Cut = (u64, SnapshotCut);

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
        let mut record = RecordFile {
            path: dir.join("record"),
            ..RecordFile::default()
        };
        let (snapshot, covered) = match snapshots.load_latest()? {
            Some((index, bytes)) => {
                let undecodable = |e| corrupt(format!("undecodable snapshot {index}: {e}"));
                // A bare snapshot holds the whole record inline; the first
                // cut writes all of it to the record file.
                let snapshot = if bytes.starts_with(&ENVELOPE_TAG.to_le_bytes()) {
                    let (_, chunks, entries, mut snapshot): Envelope =
                        bincode::deserialize(&bytes).map_err(undecodable)?;
                    snapshot.log = record.restore(chunks, entries)?;
                    snapshot
                } else {
                    bincode::deserialize(&bytes).map_err(undecodable)?
                };
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
                disk: Arc::new(Disk {
                    snapshots,
                    record: Mutex::new(record),
                    host,
                }),
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

    /// Takes `cut` — the replica's state after applying **every** record
    /// journaled so far, so only ever cut at a turn boundary — as covering
    /// the journal up to here, and hands it to the writer thread;
    /// [`Journal::snapshot_written`] finishes the job when the writer
    /// reports. `cut_started` is when the caller began working on the cut
    /// (the GC round before it included): `snapshot_cut_us` runs from there
    /// to the hand-off. `inline` writes on the calling thread instead (the
    /// snapshot that ends catch-up must be on disk before the replica
    /// serves).
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
        cut: SnapshotCut,
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
            let result = self.disk.write(index, cut);
            return self.snapshot_written(index, result);
        }
        if self.writer.is_none() {
            let (tx, rx) = mpsc::channel();
            let disk = Arc::clone(&self.disk);
            let handle = std::thread::Builder::new()
                .name("snapshot-writer".into())
                .spawn(move || {
                    for (index, cut) in rx {
                        (disk.host.report)(index, disk.write(index, cut));
                    }
                })?;
            self.writer = Some((tx, handle));
        }
        let (inbox, _) = self.writer.as_ref().expect("spawned above");
        inbox
            .send((index, cut))
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

    /// Execution-record entry number `n`.
    fn entry(n: u64) -> (Dot, Rifl) {
        (Dot::new(2, n), Rifl::new(7, n))
    }

    /// A cut whose record holds entries `1..=marker`, so each larger marker
    /// executed more.
    fn snapshot(marker: u8) -> SnapshotCut {
        cut(marker, (1..=u64::from(marker)).map(entry).collect())
    }

    fn cut(marker: u8, log: Vec<(Dot, Rifl)>) -> SnapshotCut {
        SnapshotCut {
            protocol: vec![marker, marker],
            store: KVStore::new(),
            log: log.into(),
            view: ClusterView::at(2, [1, 2, 4], 1),
            addrs: vec![(1, "a:1".into()), (2, "a:2".into()), (4, "a:4".into())],
        }
    }

    /// The record file's chunks, as the next open would find them.
    fn chunks(dir: &TempDir) -> Vec<(u64, Vec<(Dot, Rifl)>)> {
        let path = dir.path().join("record");
        let (_, raw) = Wal::open(&path, FlushPolicy::OsBuffered).unwrap();
        raw.iter()
            .map(|raw| bincode::deserialize(&raw.payload).unwrap())
            .collect()
    }

    /// Bytes in the record file's segments.
    fn record_bytes(dir: &TempDir) -> u64 {
        let segments = std::fs::read_dir(dir.path().join("record")).unwrap();
        segments.map(|e| e.unwrap().metadata().unwrap().len()).sum()
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
        assert_eq!(snap.log, (1..=9).map(entry).collect::<Vec<_>>());
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
        // Per snapshot: the cut's WAL sync, the record chunk's (each cut
        // executed one more entry), the file's, the directory's — and the
        // WAL directory's when a segment went away, which the second
        // completion (records 6..9 already behind it) could not do.
        assert_eq!(metrics.fsyncs.get(), 3 * 4 + 2);
        assert_eq!(chunks(&dir), [1, 2, 3].map(|n| (n - 1, vec![entry(n)])));
        drop(journal);

        let (_, snap, records) = open(&dir, 3);
        let snap = snap.expect("snapshot restored");
        assert_eq!(snap.protocol, vec![3, 3]);
        assert_eq!(snap.log, (1..=3).map(entry).collect::<Vec<_>>());
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

    fn entries(record: &ExecutionRecord) -> Vec<(Dot, Rifl)> {
        record.iter().copied().collect()
    }

    /// The chunked execution record against a plain `Vec` model: a seeded
    /// mix of pushes and freezes (consecutive freezes, empty tails and a
    /// restored record among them) reads back entry for entry at every
    /// step, from the start and from any position, and every frozen view
    /// keeps the prefix it was cut at while the record grows behind it.
    #[test]
    fn execution_record_matches_a_vec_model() {
        let entry = |n: u64| (Dot::new(1 + (n % 3) as ProcessId, n), Rifl::new(n % 5, n));
        for restored in [0, 1, 40] {
            let mut model: Vec<(Dot, Rifl)> = (0..restored).map(entry).collect();
            let mut record = ExecutionRecord::from(model.clone());
            let mut cuts: Vec<(ExecutionRecord, Vec<(Dot, Rifl)>)> = Vec::new();
            let mut rng = 0x9e37_79b9_7f4a_7c15_u64 ^ restored;
            for step in 0..600 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                if rng.is_multiple_of(8) {
                    cuts.push((record.freeze(), model.clone()));
                } else {
                    let next = entry(restored + step);
                    record.push(next);
                    model.push(next);
                }
                assert_eq!(record.len(), model.len());
                assert_eq!(record.is_empty(), model.is_empty());
                assert!(record.iter().eq(model.iter()));
                let from = (rng >> 32) as usize % (model.len() + 2);
                assert!(record.since(from).eq(model.iter().skip(from)));
            }
            assert_eq!(entries(&record), model);
            assert!(cuts.len() > 10, "the seed must exercise freezing");
            for (cut, prefix) in &cuts {
                assert_eq!(cut.len(), prefix.len());
                assert_eq!(&entries(cut), prefix);
            }
            let frozen = record.freeze();
            assert_eq!(entries(&frozen), model);
            assert_eq!(entries(&ExecutionRecord::from(entries(&frozen))), model);
        }
    }

    /// The snapshot file holds no record, however long the record and
    /// however the loop chunked it: it is the cut's other fields in an
    /// envelope that names the record file's share. The chunk holds the
    /// record in order, and a reopen reads it back.
    #[test]
    fn a_snapshot_file_holds_no_record() {
        let dir = TempDir::new("journal-envelope").unwrap();
        let (mut journal, _, _) = open(&dir, 0);
        let mut record = ExecutionRecord::from((1..=4).map(entry).collect::<Vec<_>>());
        for n in 5..=7 {
            record.push(entry(n));
        }
        record.freeze();
        for n in 8..=9 {
            record.push(entry(n));
        }
        let cut = SnapshotCut {
            log: record.freeze(),
            ..snapshot(5)
        };
        journal.save_snapshot(cut, Instant::now(), true).unwrap();
        drop(journal);

        let (_, bytes) = SnapshotStore::open(dir.path())
            .and_then(|store| store.load_latest())
            .unwrap()
            .expect("published");
        let envelope: Envelope = (ENVELOPE_TAG, 1, 9, snapshot(5).split().0);
        assert_eq!(bytes, bincode::serialize(&envelope).unwrap());
        assert_eq!(chunks(&dir), [(0, (1..=9).map(entry).collect())]);
        let (_, snap, _) = open(&dir, 0);
        assert_eq!(snap.unwrap().log, (1..=9).map(entry).collect::<Vec<_>>());
    }

    /// A crash after a cut's chunk reached the record file but before its
    /// snapshot was renamed into place: the restart rebuilds the previous
    /// snapshot's record exactly. Its next published cut — executing other
    /// entries than the lost one had — then restores exactly too.
    #[test]
    fn an_unpublished_chunk_is_never_read_as_covered() {
        let dir = TempDir::new("journal-unpublished").unwrap();
        let (mut journal, _, _) = open(&dir, 0);
        journal
            .save_snapshot(snapshot(3), Instant::now(), true)
            .unwrap();
        // The next cut's writer appends, then the process dies.
        let lost: ExecutionRecord = (1..=5).map(entry).collect::<Vec<_>>().into();
        let mut record = journal.disk.record.lock().unwrap();
        let covered = record.append(&lost, || false, drop).unwrap();
        assert_eq!(covered, Some((2, 5)));
        drop(record);
        drop(journal);
        assert_eq!(chunks(&dir).len(), 2);

        let (mut journal, snap, _) = open(&dir, 0);
        assert_eq!(snap.unwrap().log, (1..=3).map(entry).collect::<Vec<_>>());
        let mut log: Vec<(Dot, Rifl)> = (1..=3).map(entry).collect();
        log.push(entry(40));
        journal
            .save_snapshot(cut(4, log.clone()), Instant::now(), true)
            .unwrap();
        drop(journal);
        assert_eq!(
            chunks(&dir)[2],
            (3, vec![entry(40)]),
            "appends from the cover"
        );

        let (_, snap, _) = open(&dir, 0);
        assert_eq!(snap.unwrap().log, log);
    }

    /// A snapshot written before the record had its own file carries the
    /// whole record inline: it restores, and the first cut after it writes
    /// that record once, whole, as the record file's first chunk.
    #[test]
    fn a_bare_snapshot_restores_and_its_first_cut_persists_the_whole_record() {
        let dir = TempDir::new("journal-bare").unwrap();
        let (journal, _, _) = open(&dir, 0);
        drop(journal);
        let (bare, log) = snapshot(5).split();
        let bare = ReplicaSnapshot {
            log: entries(&log),
            ..bare
        };
        let store = SnapshotStore::open(dir.path()).unwrap();
        store.save(0, &bincode::serialize(&bare).unwrap()).unwrap();

        let (mut journal, snap, _) = open(&dir, 0);
        assert_eq!(snap.unwrap().log, (1..=5).map(entry).collect::<Vec<_>>());
        assert!(!dir.path().join("record").exists(), "boot writes nothing");
        journal
            .save_snapshot(snapshot(7), Instant::now(), true)
            .unwrap();
        drop(journal);
        assert_eq!(chunks(&dir), [(0, (1..=7).map(entry).collect())]);
        let (_, snap, _) = open(&dir, 0);
        assert_eq!(snap.unwrap().log, (1..=7).map(entry).collect::<Vec<_>>());
    }

    /// A record file that lacks what its snapshot covers fails the open
    /// instead of restoring a shorter record.
    #[test]
    fn a_record_file_short_of_its_snapshot_fails_loudly() {
        let dir = TempDir::new("journal-gap").unwrap();
        let (mut journal, _, _) = open(&dir, 0);
        journal
            .save_snapshot(snapshot(3), Instant::now(), true)
            .unwrap();
        drop(journal);
        std::fs::remove_dir_all(dir.path().join("record")).unwrap();
        let host = host().0;
        let open = Journal::open(dir.path(), FlushPolicy::OsBuffered, 0, host);
        let err = open.err().expect("a gap must not restore");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// What a cut writes does not grow with the history before it: ten
    /// cuts of 100 new entries each, and the tenth writes as many snapshot
    /// and record bytes as the first.
    #[test]
    fn a_cut_writes_what_it_added_not_the_history() {
        let dir = TempDir::new("journal-incremental").unwrap();
        let (host, _) = host();
        let metrics = Arc::clone(&host.metrics);
        let (mut journal, _, _) =
            Journal::open(dir.path(), FlushPolicy::OsBuffered, 0, host).unwrap();
        let mut written = Vec::new();
        for n in 1..=10 {
            let before = if n == 1 { 0 } else { record_bytes(&dir) };
            let log = (1..=100 * n).map(entry).collect();
            journal
                .save_snapshot(cut(1, log), Instant::now(), true)
                .unwrap();
            let snapshot = metrics.snapshot_bytes.get();
            written.push((record_bytes(&dir) - before, snapshot));
        }
        assert!(written.iter().all(|&w| w == written[0]), "{written:?}");
        drop(journal);
        let (_, snap, _) = open(&dir, 0);
        assert_eq!(snap.unwrap().log.len(), 1000);
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
