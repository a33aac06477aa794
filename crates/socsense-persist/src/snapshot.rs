//! Atomic whole-state checkpoint files.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::error::PersistError;
use crate::wal::{create_dir_durable, read_clean, rewrite_atomic};

/// A directory of checkpoint files, one per snapshot sequence number.
///
/// Each snapshot is a single-record log (`snapshot-<seq>.json`, same
/// CRC-guarded line format as the WAL) written atomically via
/// tmp-then-rename. [`latest`](Self::latest) walks candidates
/// newest-first and returns the first that validates, so one damaged
/// file degrades to its predecessor instead of failing recovery. Reads
/// never write: a file that fails validation stays on disk as it is.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    bytes_total: u64,
    fsyncs_total: u64,
}

impl SnapshotStore {
    /// Opens the snapshot directory, creating it and any missing
    /// ancestors durably (each directory that gains an entry is
    /// fsynced).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures.
    pub fn open(dir: &Path) -> Result<Self, PersistError> {
        let fsyncs_total = create_dir_durable(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            bytes_total: 0,
            fsyncs_total,
        })
    }

    /// The store at `dir` as it stands, creating nothing: until
    /// [`open`](Self::open) creates the directory, a missing one holds no
    /// snapshot. For reading a directory that may yet be refused.
    pub fn at(dir: &Path) -> Self {
        Self {
            dir: dir.to_path_buf(),
            bytes_total: 0,
            fsyncs_total: 0,
        }
    }

    /// The path of snapshot `seq` (zero-padded so lexical order is
    /// numeric order).
    fn path_of(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snapshot-{seq:020}.json"))
    }

    /// Writes snapshot `seq` atomically, replacing any previous file of
    /// the same sequence number.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures.
    pub fn write<T: Serialize>(&mut self, seq: u64, payload: &T) -> Result<(), PersistError> {
        let path = self.path_of(seq);
        self.fsyncs_total += rewrite_atomic(&path, std::slice::from_ref(payload))?;
        self.bytes_total += std::fs::metadata(&path)
            .map_err(|e| PersistError::io(&path, "stat", e))?
            .len();
        Ok(())
    }

    /// Every snapshot sequence number on disk, ascending; none when the
    /// directory does not exist.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures.
    pub fn sequences(&self) -> Result<Vec<u64>, PersistError> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(PersistError::io(&self.dir, "read dir", e)),
        };
        let mut seqs = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| PersistError::io(&self.dir, "read dir", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = name
                .strip_prefix("snapshot-")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// The newest valid snapshot, if any: `(seq, payload)`.
    ///
    /// Files that fail validation (damaged by external interference, or
    /// written in another format) are skipped in favour of the
    /// next-newest candidate and left on disk unmodified.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures while listing or
    /// reading.
    pub fn latest<T: Deserialize>(&self) -> Result<Option<(u64, T)>, PersistError> {
        for &seq in self.sequences()?.iter().rev() {
            let path = self.path_of(seq);
            match read_clean::<T>(&path) {
                Ok(records) => {
                    if let Some(payload) = records.and_then(|r| r.into_iter().next()) {
                        return Ok(Some((seq, payload)));
                    }
                }
                Err(PersistError::Corrupt { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Deletes all but the newest `keep` snapshots.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures.
    pub fn prune(&self, keep: usize) -> Result<(), PersistError> {
        let seqs = self.sequences()?;
        let drop_n = seqs.len().saturating_sub(keep);
        for &seq in &seqs[..drop_n] {
            let path = self.path_of(seq);
            std::fs::remove_file(&path).map_err(|e| PersistError::io(&path, "remove", e))?;
        }
        Ok(())
    }

    /// Bytes of snapshot files written through this store.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// `fsync`s issued by this store: the directory fsyncs of an
    /// [`open`](Self::open) that created directories, and two per
    /// [`write`](Self::write) (the file and its directory).
    pub fn fsyncs_total(&self) -> u64 {
        self.fsyncs_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Snap {
        seq: u64,
        bits: Vec<u64>,
    }

    fn snap(seq: u64) -> Snap {
        Snap {
            seq,
            bits: vec![seq, 0xDEAD_BEEF],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("socsense-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn latest_returns_newest_valid() {
        let dir = tmp_dir("latest");
        let mut store = SnapshotStore::open(&dir).unwrap();
        assert!(store.latest::<Snap>().unwrap().is_none());
        store.write(3, &snap(3)).unwrap();
        store.write(10, &snap(10)).unwrap();
        store.write(7, &snap(7)).unwrap();
        let (seq, payload) = store.latest::<Snap>().unwrap().unwrap();
        assert_eq!(seq, 10);
        assert_eq!(payload, snap(10));
        assert_eq!(store.sequences().unwrap(), vec![3, 7, 10]);
        assert!(store.bytes_total() > 0);
        assert_eq!(store.fsyncs_total(), 1 + 3 * 2, "new directory, 3 writes");
        assert_eq!(SnapshotStore::open(&dir).unwrap().fsyncs_total(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_store_at_a_missing_directory_reads_nothing_and_creates_nothing() {
        let dir = tmp_dir("missing");
        let store = SnapshotStore::at(&dir);
        assert!(store.latest::<Snap>().unwrap().is_none());
        assert!(store.sequences().unwrap().is_empty());
        assert_eq!(store.fsyncs_total(), 0);
        assert!(!dir.exists(), "reading created {}", dir.display());
    }

    #[test]
    fn damaged_newest_degrades_to_predecessor() {
        let dir = tmp_dir("damaged");
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.write(1, &snap(1)).unwrap();
        store.write(2, &snap(2)).unwrap();
        // Corrupt snapshot 2 in place (external interference).
        let path = dir.join(format!("snapshot-{:020}.json", 2));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (seq, payload) = store.latest::<Snap>().unwrap().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(payload, snap(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_snapshots_are_skipped_and_left_byte_identical() {
        #[derive(Debug, Serialize)]
        struct OlderFormat {
            seq: u64,
            state: String,
        }
        let dir = tmp_dir("readonly");
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.write(1, &snap(1)).unwrap();
        // Snapshot 2 is CRC-valid but in another format; snapshot 3 has
        // a flipped byte.
        store
            .write(
                2,
                &OlderFormat {
                    seq: 2,
                    state: "before a format change".into(),
                },
            )
            .unwrap();
        store.write(3, &snap(3)).unwrap();
        let path = |seq: u64| dir.join(format!("snapshot-{seq:020}.json"));
        let mut bytes = std::fs::read(path(3)).unwrap();
        bytes[12] ^= 0x01;
        std::fs::write(path(3), &bytes).unwrap();
        let before: Vec<Vec<u8>> = (1..=3).map(|s| std::fs::read(path(s)).unwrap()).collect();

        let (seq, payload) = store.latest::<Snap>().unwrap().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(payload, snap(1));
        for (s, want) in (1..=3).zip(&before) {
            assert_eq!(
                &std::fs::read(path(s)).unwrap(),
                want,
                "snapshot {s} changed"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_the_newest() {
        let dir = tmp_dir("prune");
        let mut store = SnapshotStore::open(&dir).unwrap();
        for seq in 1..=5 {
            store.write(seq, &snap(seq)).unwrap();
        }
        store.prune(2).unwrap();
        assert_eq!(store.sequences().unwrap(), vec![4, 5]);
        // Pruning below the count is a no-op error-free path.
        store.prune(10).unwrap();
        assert_eq!(store.sequences().unwrap(), vec![4, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
