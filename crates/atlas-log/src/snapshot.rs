//! Atomic snapshot persistence.
//!
//! A snapshot is an opaque blob covering every WAL record below a given
//! index. Snapshots are written to a temporary file, fsynced, and renamed
//! into place, so a crash mid-snapshot leaves the previous snapshot intact;
//! the highest-indexed valid snapshot wins on load. The temporary file such a
//! crash leaves behind is removed the next time the store is opened.

use crate::crc::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stores and retrieves CRC-protected snapshot blobs in a directory.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

fn snapshot_name(index: u64) -> String {
    format!("snap-{index:020}.bin")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot store rooted at `dir`,
    /// removing the temporary files of snapshots that never got renamed into
    /// place — nothing else ever reads or deletes them.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let stale = |n: &str| n.starts_with("snap-") && n.ends_with(".tmp");
            if name.to_str().is_some_and(stale) {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    /// Atomically persists `payload` as the snapshot covering WAL records
    /// `.. index`, then prunes older snapshots.
    pub fn save(&self, index: u64, payload: &[u8]) -> io::Result<()> {
        self.save_with(index, payload, |_| (), || false).map(|_| ())
    }

    /// [`save`](Self::save) for a caller that accounts for the disk time and
    /// may have to abandon the write. `synced` runs after each of the two
    /// fsyncs — the file's, then the directory's — with the instant that
    /// fsync started. `abandon` is asked once, after the file's fsync (and
    /// its `synced`) and before the rename: if it says so, the temporary
    /// file is removed, nothing is renamed into place and the result is
    /// `Ok(false)`.
    pub fn save_with(
        &self,
        index: u64,
        payload: &[u8],
        mut synced: impl FnMut(Instant),
        abandon: impl FnOnce() -> bool,
    ) -> io::Result<bool> {
        let tmp = self.dir.join(format!("snap-{index:020}.tmp"));
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&crc32(payload).to_le_bytes())?;
        file.write_all(payload)?;
        let t0 = Instant::now();
        file.sync_data()?;
        drop(file);
        synced(t0);
        if abandon() {
            let _ = fs::remove_file(&tmp);
            return Ok(false);
        }
        fs::rename(&tmp, self.dir.join(snapshot_name(index)))?;
        let t0 = Instant::now();
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        synced(t0);
        // Prune every older snapshot; the new one covers them.
        for old in self.indices()? {
            if old < index {
                let _ = fs::remove_file(self.dir.join(snapshot_name(old)));
            }
        }
        Ok(true)
    }

    /// Loads the highest-indexed snapshot, if any, returning `(index,
    /// payload)`. A snapshot whose CRC does not match fails loudly — the
    /// caller must not silently fall back to an empty state.
    pub fn load_latest(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        let Some(index) = self.indices()?.into_iter().max() else {
            return Ok(None);
        };
        let mut bytes = Vec::new();
        File::open(self.dir.join(snapshot_name(index)))?.read_to_end(&mut bytes)?;
        if bytes.len() < 4 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("snapshot {index} is too short to contain its checksum"),
            ));
        }
        let expected = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        let payload = bytes.split_off(4);
        if crc32(&payload) != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("CRC mismatch in snapshot {index}"),
            ));
        }
        Ok(Some((index, payload)))
    }

    fn indices(&self) -> io::Result<Vec<u64>> {
        Ok(fs::read_dir(&self.dir)?
            .filter_map(|entry| parse_snapshot_name(entry.ok()?.file_name().to_str()?))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    #[test]
    fn empty_store_loads_nothing() {
        let dir = TempDir::new("snap-empty").unwrap();
        let store = SnapshotStore::open(dir.path()).unwrap();
        assert_eq!(store.load_latest().unwrap(), None);
    }

    #[test]
    fn latest_snapshot_wins_and_older_ones_are_pruned() {
        let dir = TempDir::new("snap-latest").unwrap();
        let store = SnapshotStore::open(dir.path()).unwrap();
        store.save(10, b"ten").unwrap();
        store.save(25, b"twenty-five").unwrap();
        assert_eq!(
            store.load_latest().unwrap(),
            Some((25, b"twenty-five".to_vec()))
        );
        let files = fs::read_dir(dir.path()).unwrap().count();
        assert_eq!(files, 1, "older snapshots must be pruned");
    }

    #[test]
    fn open_removes_temporary_files_a_crash_left_behind() {
        let dir = TempDir::new("snap-tmp").unwrap();
        let store = SnapshotStore::open(dir.path()).unwrap();
        store.save(5, b"five").unwrap();
        // A crash between the write and the rename leaves only the `.tmp`.
        let stale = dir.path().join("snap-00000000000000000009.tmp");
        fs::write(&stale, b"half a snapshot").unwrap();
        fs::write(dir.path().join("unrelated.tmp"), b"not ours").unwrap();
        let store = SnapshotStore::open(dir.path()).unwrap();
        assert!(!stale.exists(), "stale temporary file must be reclaimed");
        assert!(dir.path().join("unrelated.tmp").exists());
        assert_eq!(store.load_latest().unwrap(), Some((5, b"five".to_vec())));
    }

    #[test]
    fn abandoned_save_publishes_nothing_and_leaves_no_temporary_file() {
        let dir = TempDir::new("snap-abandon").unwrap();
        let store = SnapshotStore::open(dir.path()).unwrap();
        store.save(3, b"three").unwrap();
        let mut syncs = 0;
        let published = store.save_with(8, b"eight", |_| syncs += 1, || true);
        assert!(!published.unwrap());
        assert_eq!(syncs, 1, "abandoned right after the file's fsync");
        assert_eq!(store.load_latest().unwrap(), Some((3, b"three".to_vec())));
        assert_eq!(fs::read_dir(dir.path()).unwrap().count(), 1);
        let mut syncs = 0;
        let published = store.save_with(8, b"eight", |_| syncs += 1, || false);
        assert!(published.unwrap());
        assert_eq!(syncs, 2, "file fsync, then directory fsync");
        assert_eq!(store.load_latest().unwrap(), Some((8, b"eight".to_vec())));
    }

    #[test]
    fn corrupted_snapshot_fails_loudly() {
        let dir = TempDir::new("snap-corrupt").unwrap();
        let store = SnapshotStore::open(dir.path()).unwrap();
        store.save(3, b"precious state").unwrap();
        let path = dir.path().join(snapshot_name(3));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let err = store.load_latest().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
