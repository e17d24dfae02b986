//! The segmented append-only write-ahead log.

use crate::crc::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Default segment size before rotation (small enough that truncation after
/// a snapshot reclaims space promptly, large enough to keep the directory
/// small).
const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// Bytes of framing per record: `len: u32` + `crc: u32`.
const HEADER_BYTES: u64 = 8;

/// Staging capacity kept across flushes; one oversized record (a 16 MiB
/// peer frame) must not pin its buffer for the life of the log.
const STAGE_KEEP_BYTES: usize = 1 << 20;

/// When to fsync the log file.
///
/// Records reach the OS with the [`Wal::flush`] that follows their staging
/// (one `write(2)` per flush, however many records it carries); the policy
/// only controls when [`Wal::sync_if`] additionally `fdatasync`s the file.
/// Callers that externalize effects derived from a record (acknowledge it
/// to a peer, mint a fresh identifier from it) force durability first with
/// `sync_if(true)` — the replica runtime does this once per event-loop turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// fsync after every flush that wrote a record: full host-power-loss
    /// safety, slowest.
    Always,
    /// fsync once `n` records are written and unsynced: bounds what a host
    /// power failure can
    /// lose to the last `< n` *un-externalized* records while amortizing
    /// the sync cost. Responses already sent for records lost this way may
    /// be recomputed differently after recovery (peers redeliver the
    /// unacknowledged inputs, but possibly interleaved differently);
    /// deployments that must rule even that out use [`FlushPolicy::Always`].
    EveryN(u32),
    /// Never fsync explicitly: records survive a *process* crash (the OS
    /// page cache holds them) but not a host crash. The right trade for
    /// tests and single-host experiments.
    OsBuffered,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy::EveryN(64)
    }
}

impl FlushPolicy {
    /// Parses the CLI spelling of a policy: `always`, `os`, or `every:<n>`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(FlushPolicy::Always),
            "os" => Some(FlushPolicy::OsBuffered),
            _ => {
                let n: u32 = s.strip_prefix("every:")?.parse().ok()?;
                (n > 0).then_some(FlushPolicy::EveryN(n))
            }
        }
    }
}

/// One record recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Position of the record in the log (0-based, monotonically
    /// increasing across segments for the lifetime of the log).
    pub index: u64,
    /// The opaque payload handed to [`Wal::stage`].
    pub payload: Vec<u8>,
}

/// A segmented append-only log of CRC-protected records.
///
/// ```
/// use atlas_log::{FlushPolicy, TempDir, Wal};
///
/// let dir = TempDir::new("wal-doc").unwrap();
/// let (mut wal, records) = Wal::open(dir.path(), FlushPolicy::OsBuffered).unwrap();
/// assert!(records.is_empty()); // fresh directory boots clean
/// wal.stage(b"hello");
/// wal.stage(b"world");
/// assert!(wal.flush().unwrap()); // both records, one write
/// drop(wal);
///
/// let (wal, records) = Wal::open(dir.path(), FlushPolicy::OsBuffered).unwrap();
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].payload, b"hello");
/// assert_eq!(wal.next_index(), 2);
/// ```
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    policy: FlushPolicy,
    segment_bytes: u64,
    /// Start index of every live segment, sorted ascending. Never empty.
    segments: Vec<u64>,
    /// Open handle onto the last segment, positioned at its end.
    file: File,
    /// Bytes currently in the last segment.
    seg_len: u64,
    /// Index the next staged record will get.
    next_index: u64,
    /// Records written since the last fsync.
    unsynced: u64,
    /// Framed records staged for the next [`Wal::flush`]; reused.
    staged: Vec<u8>,
    /// How many records `staged` holds.
    staged_records: u64,
    /// What the next [`Wal::sync`] also fsyncs: the directory of a segment
    /// `open` created, and its parent when `open` created the directory.
    unsynced_dirs: Vec<PathBuf>,
}

fn segment_name(start: u64) -> String {
    format!("wal-{start:020}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Wal {
    /// Opens (creating if needed) the log in `dir` and replays every intact
    /// record, in order.
    ///
    /// A torn final record — the file ends before the bytes its header
    /// promises — is the signature of a crash mid-append: it is discarded
    /// and the segment truncated back to the last complete record. Any
    /// other inconsistency (a CRC mismatch on a complete record, a torn
    /// record followed by more data, a gap between segments) is silent
    /// corruption and returns an error rather than dropping committed
    /// state on the floor.
    ///
    /// One ambiguity is fundamental: a corrupted *length field* in the very
    /// last record of the log claims more bytes than exist and is therefore
    /// indistinguishable from a genuine mid-append tear — it is treated as
    /// one (the behaviour of LevelDB/RocksDB-style log readers). A
    /// corrupted length anywhere else surfaces as a CRC or continuity
    /// error.
    pub fn open(dir: &Path, policy: FlushPolicy) -> io::Result<(Self, Vec<Record>)> {
        Self::open_with_segment_bytes(dir, policy, DEFAULT_SEGMENT_BYTES)
    }

    /// [`Wal::open`] with an explicit rotation threshold (tests use tiny
    /// segments to exercise rotation).
    pub fn open_with_segment_bytes(
        dir: &Path,
        policy: FlushPolicy,
        segment_bytes: u64,
    ) -> io::Result<(Self, Vec<Record>)> {
        let mut unsynced_dirs = Vec::new();
        if !dir.exists() {
            unsynced_dirs.extend(dir.parent().map(Path::to_path_buf));
        }
        fs::create_dir_all(dir)?;
        let mut segments: Vec<u64> = fs::read_dir(dir)?
            .filter_map(|entry| parse_segment_name(entry.ok()?.file_name().to_str()?))
            .collect();
        segments.sort_unstable();

        let mut records = Vec::new();
        let mut next_index = 0;
        for (i, &start) in segments.iter().enumerate() {
            let last = i + 1 == segments.len();
            // The first segment may start anywhere (truncation deletes
            // prefixes); every later one must continue exactly where the
            // previous ended — a gap means a segment went missing, which
            // must fail loudly rather than replay with silently absent
            // records.
            if i > 0 && start != next_index {
                return Err(corrupt(format!(
                    "segment {} starts at index {start} but the previous one ended at {next_index}",
                    segment_name(start)
                )));
            }
            next_index = Self::replay_segment(dir, start, last, &mut records)?;
        }

        let (file, seg_len) = match segments.last() {
            Some(&start) => {
                let file = OpenOptions::new()
                    .append(true)
                    .open(dir.join(segment_name(start)))?;
                let len = file.metadata()?.len();
                (file, len)
            }
            None => {
                segments.push(0);
                unsynced_dirs.push(dir.to_path_buf());
                (create_segment(dir, 0)?, 0)
            }
        };

        Ok((
            Self {
                dir: dir.to_path_buf(),
                policy,
                segment_bytes,
                segments,
                file,
                seg_len,
                next_index,
                unsynced: 0,
                staged: Vec::new(),
                staged_records: 0,
                unsynced_dirs,
            },
            records,
        ))
    }

    /// Replays one segment into `records`, truncating a torn tail when
    /// `last` and failing loudly otherwise. Returns the index after the
    /// segment's final record.
    fn replay_segment(
        dir: &Path,
        start: u64,
        last: bool,
        records: &mut Vec<Record>,
    ) -> io::Result<u64> {
        let path = dir.join(segment_name(start));
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let mut pos = 0u64;
        let mut index = start;
        let total = bytes.len() as u64;
        let torn = |pos: u64| -> io::Result<u64> {
            if !last {
                return Err(corrupt(format!(
                    "torn record in non-final segment {}",
                    segment_name(start)
                )));
            }
            // Crash mid-append: discard the partial record.
            OpenOptions::new().write(true).open(&path)?.set_len(pos)?;
            Ok(pos)
        };
        while pos < total {
            if total - pos < HEADER_BYTES {
                torn(pos)?;
                break;
            }
            let header = &bytes[pos as usize..(pos + HEADER_BYTES) as usize];
            let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as u64;
            let expected_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
            let end = pos + HEADER_BYTES + len;
            if end > total {
                torn(pos)?;
                break;
            }
            let payload = &bytes[(pos + HEADER_BYTES) as usize..end as usize];
            if crc32(payload) != expected_crc {
                return Err(corrupt(format!(
                    "CRC mismatch at record {index} in {}",
                    segment_name(start)
                )));
            }
            records.push(Record {
                index,
                payload: payload.to_vec(),
            });
            index += 1;
            pos = end;
        }
        Ok(index)
    }

    /// Index the next staged record will get (equivalently: the number of
    /// records ever staged or appended to this log).
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Stages one record for the next [`Wal::flush`] and returns its index:
    /// `encode` appends the payload to the staging buffer and the framing
    /// (length, CRC) is filled in around it in place — no copy of the
    /// payload, no allocation per record. Nothing reaches the file yet.
    pub fn stage_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let start = self.staged.len();
        self.staged.extend_from_slice(&[0; HEADER_BYTES as usize]);
        encode(&mut self.staged);
        let body = start + HEADER_BYTES as usize;
        assert!(
            self.staged.len() >= body,
            "encode shrank the staging buffer"
        );
        let len = u32::try_from(self.staged.len() - body).expect("record below 4 GiB");
        let crc = crc32(&self.staged[body..]);
        self.staged[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.staged[start + 4..body].copy_from_slice(&crc.to_le_bytes());
        self.staged_records += 1;
        self.next_index += 1;
        self.next_index - 1
    }

    /// [`Wal::stage_with`] for a payload that already exists as bytes.
    pub fn stage(&mut self, payload: &[u8]) -> u64 {
        self.stage_with(|buf| buf.extend_from_slice(payload))
    }

    /// Puts every staged record in the file with **one** `write(2)` and
    /// reports whether there was anything to write. The segment rotates
    /// before the write if it is full, never inside it, so one flush lands
    /// whole in one segment (which may overshoot the rotation threshold by
    /// that flush). Whether the records are also fsynced is
    /// [`Wal::sync_if`]'s call.
    pub fn flush(&mut self) -> io::Result<bool> {
        if self.staged.is_empty() {
            return Ok(false);
        }
        if self.seg_len >= self.segment_bytes {
            self.rotate()?;
        }
        self.file.write_all(&self.staged)?;
        self.seg_len += self.staged.len() as u64;
        self.unsynced += self.staged_records;
        self.staged_records = 0;
        if self.staged.capacity() > STAGE_KEEP_BYTES {
            self.staged = Vec::new();
        } else {
            self.staged.clear();
        }
        Ok(true)
    }

    /// Appends one record write-through — stage, flush, policy sync — and
    /// returns its index: the single-record convenience over the staged
    /// path (tools and tests; the replica stages a turn and flushes once).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let index = self.stage(payload);
        self.flush()?;
        self.sync_if(false)?;
        Ok(index)
    }

    /// fsyncs what has been written, regardless of policy (staged records
    /// are not written by this: flush first). The one place the log issues
    /// `fdatasync`; the first also makes a segment `open` created durable,
    /// so that opening costs no fsync.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        for dir in self.unsynced_dirs.drain(..) {
            sync_dir(&dir)?;
        }
        Ok(())
    }

    /// The policy's fsync, to be called after a flush: syncs when the
    /// policy says the written records are due ([`FlushPolicy::Always`]: any
    /// unsynced record; [`FlushPolicy::EveryN`]: `n` of them) or when the
    /// caller is about to externalize something derived from them (`force`)
    /// and any are unsynced. Never under [`FlushPolicy::OsBuffered`], which
    /// trades host-power-loss durability away.
    ///
    /// Returns whether an fsync was actually issued, so callers can meter
    /// fsync count and latency without false samples from the no-op path.
    pub fn sync_if(&mut self, force: bool) -> io::Result<bool> {
        let due = match self.policy {
            FlushPolicy::Always => self.unsynced > 0,
            FlushPolicy::EveryN(n) => self.unsynced >= u64::from(n) || (force && self.unsynced > 0),
            FlushPolicy::OsBuffered => false,
        };
        if due {
            self.sync()?;
        }
        Ok(due)
    }

    /// Number of live segment files (including the active one). Grows with
    /// appends, shrinks when [`truncate_below`](Wal::truncate_below)
    /// reclaims snapshotted history.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Closes the current segment and starts a fresh one named after the
    /// first record it will hold — the oldest staged one: rotation only
    /// happens at the start of a flush.
    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        let start = self.next_index - self.staged_records;
        self.file = create_segment(&self.dir, start)?;
        self.segments.push(start);
        self.seg_len = 0;
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// Deletes every segment whose records are *all* below `index` — called
    /// after a snapshot covering records `.. index` has been persisted.
    /// Truncation is segment-granular: a segment straddling `index` is kept
    /// whole (replay filters by index). Returns whether any file went away,
    /// in which case the directory was fsynced to make that durable.
    pub fn truncate_below(&mut self, index: u64) -> io::Result<bool> {
        let mut removed = false;
        while self.segments.len() > 1 && self.segments[1] <= index {
            let start = self.segments.remove(0);
            fs::remove_file(self.dir.join(segment_name(start)))?;
            removed = true;
        }
        let none_staged = self.staged_records == 0;
        if self.segments.len() == 1 && index >= self.next_index && self.seg_len > 0 && none_staged {
            // Everything in the open segment is covered too: replace it with
            // an empty segment starting at the next index (a staged record
            // would belong in the old one, so such a log waits for a later
            // snapshot instead).
            let start = self.segments[0];
            self.file = create_segment(&self.dir, self.next_index)?;
            self.segments[0] = self.next_index;
            self.seg_len = 0;
            if start != self.next_index {
                fs::remove_file(self.dir.join(segment_name(start)))?;
            }
            removed = true;
        }
        if removed {
            sync_dir(&self.dir)?;
        }
        Ok(removed)
    }
}

fn create_segment(dir: &Path, start: u64) -> io::Result<File> {
    OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(dir.join(segment_name(start)))
}

/// fsync the directory so segment creations/deletions are themselves
/// durable. Best-effort: some filesystems refuse to sync directories.
fn sync_dir(dir: &Path) -> io::Result<()> {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    fn reopen(dir: &Path) -> (Wal, Vec<Record>) {
        Wal::open(dir, FlushPolicy::OsBuffered).expect("open")
    }

    #[test]
    fn fresh_directory_boots_clean() {
        let dir = TempDir::new("wal-fresh").unwrap();
        let (wal, records) = reopen(dir.path());
        assert!(records.is_empty());
        assert_eq!(wal.next_index(), 0);
    }

    #[test]
    fn records_replay_in_order_across_reopen() {
        let dir = TempDir::new("wal-replay").unwrap();
        let (mut wal, _) = reopen(dir.path());
        for i in 0..100u64 {
            let idx = wal.append(format!("record-{i}").as_bytes()).unwrap();
            assert_eq!(idx, i);
        }
        drop(wal);
        let (wal, records) = reopen(dir.path());
        assert_eq!(wal.next_index(), 100);
        assert_eq!(records.len(), 100);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.index, i as u64);
            assert_eq!(rec.payload, format!("record-{i}").as_bytes());
        }
    }

    #[test]
    fn rotation_spreads_records_over_segments_transparently() {
        let dir = TempDir::new("wal-rotate").unwrap();
        let (mut wal, _) =
            Wal::open_with_segment_bytes(dir.path(), FlushPolicy::OsBuffered, 64).unwrap();
        for i in 0..50u64 {
            wal.append(&[i as u8; 24]).unwrap();
        }
        drop(wal);
        let segments = fs::read_dir(dir.path()).unwrap().count();
        assert!(segments > 1, "tiny segment size must force rotation");
        let (wal, records) = reopen(dir.path());
        assert_eq!(records.len(), 50);
        assert_eq!(wal.next_index(), 50);
        assert!(records.iter().enumerate().all(|(i, r)| r.index == i as u64));
    }

    #[test]
    fn missing_middle_segment_fails_loudly() {
        let dir = TempDir::new("wal-gap").unwrap();
        let (mut wal, _) =
            Wal::open_with_segment_bytes(dir.path(), FlushPolicy::OsBuffered, 64).unwrap();
        for i in 0..60u64 {
            wal.append(&[i as u8; 24]).unwrap();
        }
        let segments = wal.segments.clone();
        assert!(segments.len() >= 3, "need at least 3 segments for the test");
        drop(wal);
        // Losing any non-first segment — including the second-to-last — must
        // surface as corruption, not replay as a silent gap in the record
        // stream.
        let victim = segments[segments.len() - 2];
        fs::remove_file(dir.path().join(segment_name(victim))).unwrap();
        let err = Wal::open(dir.path(), FlushPolicy::OsBuffered).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("starts at index"), "{err}");
    }

    #[test]
    fn torn_final_record_is_discarded_and_log_stays_usable() {
        let dir = TempDir::new("wal-torn").unwrap();
        let (mut wal, _) = reopen(dir.path());
        wal.append(b"intact-0").unwrap();
        wal.append(b"intact-1").unwrap();
        wal.append(b"will-be-torn").unwrap();
        drop(wal);
        // Cut the last record mid-payload, as a crash mid-write would.
        let path = dir.path().join(segment_name(0));
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 4)
            .unwrap();

        let (mut wal, records) = reopen(dir.path());
        assert_eq!(records.len(), 2, "torn tail must be dropped");
        assert_eq!(wal.next_index(), 2);
        // The next append reuses the freed index and replays cleanly.
        wal.append(b"after-recovery").unwrap();
        drop(wal);
        let (_, records) = reopen(dir.path());
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].payload, b"after-recovery");
    }

    #[test]
    fn torn_header_is_discarded_too() {
        let dir = TempDir::new("wal-torn-header").unwrap();
        let (mut wal, _) = reopen(dir.path());
        wal.append(b"intact").unwrap();
        drop(wal);
        let path = dir.path().join(segment_name(0));
        let len = fs::metadata(&path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0xAB; 5]).unwrap(); // 5 of the 8 header bytes
        drop(file);
        assert_eq!(fs::metadata(&path).unwrap().len(), len + 5);

        let (wal, records) = reopen(dir.path());
        assert_eq!(records.len(), 1);
        assert_eq!(wal.next_index(), 1);
        assert_eq!(fs::metadata(&path).unwrap().len(), len, "tail truncated");
    }

    #[test]
    fn crc_corruption_fails_loudly() {
        let dir = TempDir::new("wal-crc").unwrap();
        let (mut wal, _) = reopen(dir.path());
        wal.append(b"record-zero").unwrap();
        wal.append(b"record-one").unwrap();
        drop(wal);
        // Flip one payload byte of the *first* record (a complete record).
        let path = dir.path().join(segment_name(0));
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_BYTES as usize] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let err = Wal::open(dir.path(), FlushPolicy::OsBuffered).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
    }

    #[test]
    fn truncate_below_drops_covered_segments_only() {
        let dir = TempDir::new("wal-trunc").unwrap();
        let (mut wal, _) =
            Wal::open_with_segment_bytes(dir.path(), FlushPolicy::OsBuffered, 64).unwrap();
        for i in 0..40u64 {
            wal.append(&[i as u8; 24]).unwrap();
        }
        let boundary = wal.segments[wal.segments.len() / 2];
        assert!(wal.truncate_below(boundary).unwrap());
        assert!(
            !wal.truncate_below(boundary).unwrap(),
            "nothing left to drop"
        );
        drop(wal);
        let (wal, records) = reopen(dir.path());
        assert_eq!(
            wal.next_index(),
            40,
            "indices keep counting after truncation"
        );
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.index < 40));
        assert_eq!(records.last().unwrap().index, 39);
        // All records >= the first surviving segment's start are present.
        let first = records.first().unwrap().index;
        assert!(first <= boundary);
        assert_eq!(records.len() as u64, 40 - first);
    }

    #[test]
    fn truncate_below_everything_starts_an_empty_segment() {
        let dir = TempDir::new("wal-trunc-all").unwrap();
        let (mut wal, _) = reopen(dir.path());
        for _ in 0..10 {
            wal.append(b"x").unwrap();
        }
        assert!(wal.truncate_below(wal.next_index()).unwrap());
        drop(wal);
        let (mut wal, records) = reopen(dir.path());
        assert!(records.is_empty());
        assert_eq!(wal.next_index(), 10);
        assert_eq!(wal.append(b"post-snapshot").unwrap(), 10);
    }

    /// Payload of test record `i`: distinct lengths, so a cut falls in
    /// every part of some record.
    fn payload(i: u64) -> Vec<u8> {
        vec![i as u8; 3 + 5 * i as usize]
    }

    #[test]
    fn a_flush_torn_at_any_byte_replays_the_complete_prefix() {
        let dir = TempDir::new("wal-torn-flush").unwrap();
        let (mut wal, _) = reopen(dir.path());
        wal.append(b"before the flush").unwrap();
        let path = dir.path().join(segment_name(0));
        let base = fs::metadata(&path).unwrap().len();
        let mut ends = vec![base];
        for i in 0..6 {
            wal.stage(&payload(i));
            ends.push(ends[i as usize] + HEADER_BYTES + payload(i).len() as u64);
        }
        assert_eq!(fs::metadata(&path).unwrap().len(), base, "staging writes");
        assert!(wal.flush().unwrap());
        assert!(!wal.flush().unwrap(), "nothing left to write");
        drop(wal);
        let whole = fs::read(&path).unwrap();
        // The on-disk format is the per-record framing, back to back.
        let mut expected = whole[..base as usize].to_vec();
        for i in 0..6 {
            expected.extend_from_slice(&(payload(i).len() as u32).to_le_bytes());
            expected.extend_from_slice(&crc32(&payload(i)).to_le_bytes());
            expected.extend_from_slice(&payload(i));
        }
        assert_eq!(whole, expected);

        for cut in base..=whole.len() as u64 {
            fs::write(&path, &whole[..cut as usize]).unwrap();
            let complete = ends.iter().filter(|&&end| end <= cut).count() as u64 - 1;
            let (mut wal, records) = reopen(dir.path());
            assert_eq!(records.len() as u64, 1 + complete, "cut at byte {cut}");
            for (i, record) in records.iter().skip(1).enumerate() {
                assert_eq!(record.payload, payload(i as u64), "cut at byte {cut}");
            }
            // The log stays appendable: the freed indices are reused.
            assert_eq!(wal.append(b"after").unwrap(), 1 + complete);
            drop(wal);
            let (_, records) = reopen(dir.path());
            assert_eq!(records.len() as u64, 2 + complete, "cut at byte {cut}");
            assert_eq!(records.last().unwrap().payload, b"after");
        }
    }

    #[test]
    fn a_flush_lands_whole_in_one_segment() {
        let dir = TempDir::new("wal-straddle").unwrap();
        let (mut wal, _) =
            Wal::open_with_segment_bytes(dir.path(), FlushPolicy::OsBuffered, 64).unwrap();
        // 40 bytes in: below the threshold, so the next flush stays here
        // however far it overshoots.
        wal.append(&[0; 32]).unwrap();
        for i in 1..=4u8 {
            wal.stage(&[i; 32]);
        }
        wal.flush().unwrap();
        assert_eq!(wal.segments, [0], "rotation inside a flush");
        assert_eq!(
            fs::metadata(dir.path().join(segment_name(0)))
                .unwrap()
                .len(),
            200
        );
        // Full now: the next flush rotates first and names the new segment
        // after its first record, not after the last one staged.
        wal.stage(&[5; 32]);
        wal.stage(&[6; 32]);
        wal.flush().unwrap();
        assert_eq!(wal.segments, [0, 5]);
        assert_eq!(
            fs::metadata(dir.path().join(segment_name(5)))
                .unwrap()
                .len(),
            80
        );
        drop(wal);
        let (wal, records) = reopen(dir.path());
        assert_eq!(wal.next_index(), 7);
        assert!(records
            .iter()
            .enumerate()
            .all(|(i, r)| r.index == i as u64 && r.payload == [i as u8; 32]));
    }

    #[test]
    fn each_policy_syncs_exactly_when_documented() {
        /// Stages and flushes `n` records, then asks for the policy's sync.
        fn turn(wal: &mut Wal, n: usize, force: bool) -> bool {
            for _ in 0..n {
                wal.stage(b"record");
            }
            wal.flush().unwrap();
            wal.sync_if(force).unwrap()
        }
        let dir = TempDir::new("wal-policies").unwrap();
        let open = |name: &str, policy| Wal::open(&dir.path().join(name), policy).unwrap().0;

        let mut always = open("always", FlushPolicy::Always);
        assert!(
            !turn(&mut always, 0, true),
            "nothing written, nothing synced"
        );
        assert!(turn(&mut always, 3, false), "one sync covers the flush");
        assert!(!turn(&mut always, 0, true), "already durable");

        let mut every = open("every", FlushPolicy::EveryN(4));
        assert!(!turn(&mut every, 3, false), "below the horizon");
        assert!(turn(&mut every, 1, false), "the fourth record crosses it");
        assert!(!turn(&mut every, 3, false), "the count restarted");
        assert!(turn(&mut every, 0, true), "forced: three records are owed");
        assert!(!turn(&mut every, 0, true), "forced with nothing owed");
        assert!(turn(&mut every, 9, false), "one sync however far past");
        every.stage(b"staged only");
        assert!(
            !every.sync_if(true).unwrap(),
            "unwritten records owe no sync"
        );

        let mut os = open("os", FlushPolicy::OsBuffered);
        assert!(!turn(&mut os, 100, false));
        assert!(!turn(&mut os, 1, true), "the policy promises no fsyncs");
    }

    #[test]
    fn flush_policies_accept_appends() {
        for policy in [
            FlushPolicy::Always,
            FlushPolicy::EveryN(3),
            FlushPolicy::OsBuffered,
        ] {
            let dir = TempDir::new("wal-flush").unwrap();
            let (mut wal, _) = Wal::open(dir.path(), policy).unwrap();
            for i in 0..10u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            drop(wal);
            let (_, records) = reopen(dir.path());
            assert_eq!(records.len(), 10);
        }
    }

    #[test]
    fn flush_policy_parses_cli_spellings() {
        assert_eq!(FlushPolicy::parse("always"), Some(FlushPolicy::Always));
        assert_eq!(FlushPolicy::parse("os"), Some(FlushPolicy::OsBuffered));
        assert_eq!(
            FlushPolicy::parse("every:16"),
            Some(FlushPolicy::EveryN(16))
        );
        assert_eq!(FlushPolicy::parse("every:0"), None);
        assert_eq!(FlushPolicy::parse("sometimes"), None);
    }
}
