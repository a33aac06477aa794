//! Durable serve state: the WAL record and snapshot payload types, the
//! shared append/checkpoint engine, and the sharded router's on-disk
//! history spill (see DESIGN.md §12).
//!
//! Every float inside a payload travels as `f64::to_bits` (via
//! [`SlotCheckpoint`]), so a restored worker is
//! bit-identical to the one that wrote the checkpoint — recovery is
//! *restore the newest snapshot, then replay the WAL tail through the
//! normal ingest path*, and both steps are pure functions of the logged
//! ingest sequence. A clean shutdown checkpoints the last batch, so a
//! planned restart's tail is empty; only a crash leaves one to replay.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use socsense_graph::TimedClaim;
use socsense_obs::Obs;
use socsense_persist::{recover, rewrite_atomic, SnapshotStore, WalWriter};

use crate::api::{PersistConfig, ServeError};
use crate::slot::SlotCheckpoint;

/// One WAL record: an accepted ingest batch stamped with its position
/// in the ingest sequence (the unsharded worker's batch number, or the
/// sharded router's epoch). Sequence numbers are dense: record `k + 1`
/// always follows record `k`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct WalRecord {
    /// 1-based position in the ingest sequence.
    pub seq: u64,
    /// The batch, verbatim (global ids).
    pub claims: Vec<TimedClaim>,
}

/// The checkpoint format this build writes and reads, stamped into
/// every [`WorkerSnapshot`] and [`RouterSnapshot`]. Bump it whenever
/// their encoding changes, [`SlotCheckpoint`] included: recovery refuses
/// a checkpoint of any other format, or one without a stamp, instead of
/// skipping it. Format 2 stores a slot's chain-fit `θ` once, as the
/// stream's warm start; format 1 stored it twice.
pub(crate) const CHECKPOINT_FORMAT: u64 = 2;

/// The unsharded worker's checkpoint: its slot plus the request count.
/// The ingest sequence position it covers is the snapshot's own
/// sequence number.
#[derive(Serialize, Deserialize)]
pub(crate) struct WorkerSnapshot {
    /// [`CHECKPOINT_FORMAT`] when written.
    pub format: u64,
    pub slot: SlotCheckpoint,
    pub requests_served: u64,
}

/// One cluster's slice of a router checkpoint: global membership and
/// the cluster's slot (local ids). Shipping this to whichever shard the
/// rendezvous hash picks *after* restart is what makes a cluster move
/// equal to snapshot ship + tail replay.
#[derive(Serialize, Deserialize)]
pub(crate) struct ClusterSnapshot {
    pub key: u32,
    pub sources: Vec<u32>,
    pub assertions: Vec<u32>,
    pub slot: SlotCheckpoint,
}

/// The sharded router's checkpoint: router counters plus every live
/// cluster's state, in ascending key order.
#[derive(Serialize, Deserialize)]
pub(crate) struct RouterSnapshot {
    /// [`CHECKPOINT_FORMAT`] when written.
    pub format: u64,
    pub epoch: u64,
    pub total_claims: usize,
    pub requests_served: u64,
    pub clusters: Vec<ClusterSnapshot>,
}

/// What [`DurableLog::open`] found on disk.
pub(crate) struct Recovered<S> {
    /// The newest valid snapshot, if any: `(sequence, payload)`.
    pub snapshot: Option<(u64, S)>,
    /// Every valid WAL record, in append order (including records the
    /// snapshot already covers — the router's membership dry-replay
    /// needs the full sequence). Replay them through [`dense_from`].
    pub records: Vec<WalRecord>,
}

/// The one gap check of WAL recovery: the records from sequence `first`
/// on, in order. Records before `first` — absorbed by a checkpoint that
/// truncated the log — are skipped; the rest must run densely `first,
/// first + 1, …`, so recovery fails loudly instead of replaying around
/// a hole.
pub(crate) fn dense_from(
    records: Vec<WalRecord>,
    first: u64,
) -> Result<Vec<WalRecord>, ServeError> {
    let tail: Vec<WalRecord> = records.into_iter().filter(|r| r.seq >= first).collect();
    for (expected, record) in (first..).zip(&tail) {
        if record.seq != expected {
            return Err(ServeError::Persist(format!(
                "WAL gap: expected batch {expected}, found {}",
                record.seq
            )));
        }
    }
    Ok(tail)
}

/// The durability engine shared by the unsharded worker and the sharded
/// router: one WAL of ingest batches plus a snapshot directory.
pub(crate) struct DurableLog {
    wal: WalWriter,
    snaps: SnapshotStore,
    snapshot_every: usize,
    /// Sequence number of the newest checkpoint on disk (0 before the
    /// first).
    checkpointed: u64,
    /// Test hook: the next [`append`](Self::append) fails.
    #[cfg(test)]
    pub fail_next_append: bool,
}

impl DurableLog {
    /// Opens (creating as needed) the durable state under
    /// `cfg.data_dir` and recovers whatever a previous service left
    /// there: the newest valid snapshot and every valid WAL record. A
    /// torn final WAL line — the signature of a crash mid-append — is
    /// truncated away and counted on `serve.wal.truncated_tail_total`.
    /// A snapshot of another checkpoint format is refused (see
    /// [`decode_checkpoint`]) before any file is touched.
    pub fn open<S: Deserialize>(
        cfg: &PersistConfig,
        obs: &Obs,
    ) -> Result<(Self, Recovered<S>), ServeError> {
        let snaps = SnapshotStore::open(&cfg.data_dir.join("snapshots"))?;
        let snapshot = match snaps.latest::<serde_json::Value>()? {
            Some((seq, payload)) => Some((seq, decode_checkpoint(seq, payload)?)),
            None => None,
        };
        let wal_path = cfg.data_dir.join("wal.jsonl");
        let rx = recover::<WalRecord>(&wal_path)?;
        if rx.truncated_tail {
            obs.counter("serve.wal.truncated_tail_total", 1);
        }
        if snapshot.is_some() {
            obs.counter("serve.snapshot.restores_total", 1);
        }
        let since = snapshot.as_ref().map_or(0, |(seq, _)| *seq);
        let replayable = rx.records.iter().filter(|r| r.seq > since).count();
        obs.counter("serve.wal.recovered_batches_total", replayable as u64);
        let wal = WalWriter::open(&wal_path, cfg.fsync_every)?;
        Ok((
            Self {
                wal,
                snaps,
                snapshot_every: cfg.snapshot_every,
                checkpointed: since,
                #[cfg(test)]
                fail_next_append: false,
            },
            Recovered {
                snapshot,
                records: rx.records,
            },
        ))
    }

    /// Appends one accepted batch to the WAL (write-ahead of the ack:
    /// with `fsync_every = 1`, a batch the client saw acknowledged is on
    /// disk).
    pub fn append(&mut self, seq: u64, claims: &[TimedClaim], obs: &Obs) -> Result<(), ServeError> {
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next_append) {
            return Err(ServeError::Persist("injected WAL append failure".into()));
        }
        let bytes_before = self.wal.bytes_total();
        let fsyncs_before = self.wal.fsyncs_total();
        self.wal.append(&WalRecord {
            seq,
            claims: claims.to_vec(),
        })?;
        obs.counter("serve.wal.appends_total", 1);
        obs.counter(
            "serve.wal.bytes_total",
            self.wal.bytes_total() - bytes_before,
        );
        obs.counter(
            "serve.wal.fsyncs_total",
            self.wal.fsyncs_total() - fsyncs_before,
        );
        Ok(())
    }

    /// Whether the configured checkpoint cadence is due at `seq`.
    pub fn should_snapshot(&self, seq: u64) -> bool {
        self.snapshot_every > 0 && seq.is_multiple_of(self.snapshot_every as u64)
    }

    /// Whether a clean shutdown after batch `seq` owes a final
    /// checkpoint: periodic checkpoints are on and the newest one is
    /// older than `seq`. A restart then decodes that checkpoint and
    /// replays no batch.
    pub fn shutdown_due(&self, seq: u64) -> bool {
        self.snapshot_every > 0 && self.checkpointed < seq
    }

    /// Writes checkpoint `seq` atomically, keeps the two newest
    /// snapshots, and — when `truncate_wal` — empties the WAL, whose
    /// records the checkpoint has fully absorbed. (The router keeps its
    /// WAL: the full record sequence is its membership replay source.)
    pub fn write_snapshot<S: Serialize>(
        &mut self,
        seq: u64,
        payload: &S,
        truncate_wal: bool,
        obs: &Obs,
    ) -> Result<(), ServeError> {
        let bytes_before = self.snaps.bytes_total();
        self.snaps.write(seq, payload)?;
        self.checkpointed = seq;
        self.snaps.prune(2)?;
        obs.counter("serve.snapshot.writes_total", 1);
        obs.counter(
            "serve.snapshot.bytes_total",
            self.snaps.bytes_total() - bytes_before,
        );
        if truncate_wal {
            self.wal.truncate()?;
        }
        Ok(())
    }
}

/// Decodes checkpoint `seq` once its format stamp reads
/// [`CHECKPOINT_FORMAT`]. A checkpoint of any other format, or one
/// without a stamp, is refused with an error naming both formats: its
/// WAL was truncated when it was written, so skipping it would lose the
/// state it holds.
fn decode_checkpoint<S: Deserialize>(
    seq: u64,
    payload: serde_json::Value,
) -> Result<S, ServeError> {
    let stamp = payload
        .as_object()
        .and_then(|fields| fields.get("format"))
        .map(|format| serde_json::from_value::<u64>(format.clone()));
    let found = match stamp {
        Some(Ok(CHECKPOINT_FORMAT)) => {
            return serde_json::from_value(payload).map_err(|e| {
                ServeError::Persist(format!(
                    "snapshot {seq} is stamped checkpoint format {CHECKPOINT_FORMAT} but does \
                     not decode: {e}"
                ))
            });
        }
        Some(Ok(other)) => format!("checkpoint format {other}"),
        _ => "an unstamped checkpoint format".to_string(),
    };
    Err(ServeError::Persist(format!(
        "snapshot {seq} is in {found}, but this build reads checkpoint format \
         {CHECKPOINT_FORMAT}; recovery refuses it and leaves the data directory as it is"
    )))
}

/// One entry of a cluster's claim history: `(ingest epoch, position in
/// that epoch's batch, the claim)`. The pair orders entries globally.
pub(crate) type HistoryEntry = (u64, u32, TimedClaim);

/// On-disk framing of one [`HistoryEntry`] in a cluster segment.
#[derive(Serialize, Deserialize)]
struct HistoryRecord {
    epoch: u64,
    pos: u32,
    claim: TimedClaim,
}

/// Where the router keeps per-cluster claim histories — the replay
/// source for membership-change rebuilds.
///
/// `Memory` is the original in-process map. `Disk` spills each cluster
/// to its own segment file under `<data_dir>/clusters/`, so the
/// router's resident state stays bounded by the live fit caches, not by
/// the claim log. Segments are *not* crash-critical: recovery rebuilds
/// them from scratch by dry-replaying the WAL, so segment appends skip
/// fsync entirely.
pub(crate) enum HistoryBackend {
    Memory(BTreeMap<u32, Vec<HistoryEntry>>),
    Disk(PathBuf),
}

impl HistoryBackend {
    pub fn memory() -> Self {
        HistoryBackend::Memory(BTreeMap::new())
    }

    /// A disk spill rooted at `dir` (created as needed).
    pub fn disk(dir: &Path) -> Result<Self, ServeError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ServeError::Persist(format!("creating {}: {e}", dir.display())))?;
        Ok(HistoryBackend::Disk(dir.to_path_buf()))
    }

    fn segment(dir: &Path, key: u32) -> PathBuf {
        dir.join(format!("cluster-{key:010}.jsonl"))
    }

    /// Drops every cluster's history (recovery rebuilds from the WAL).
    pub fn wipe(&mut self) -> Result<(), ServeError> {
        match self {
            HistoryBackend::Memory(map) => map.clear(),
            HistoryBackend::Disk(dir) => {
                let entries = std::fs::read_dir(&*dir)
                    .map_err(|e| ServeError::Persist(format!("listing {}: {e}", dir.display())))?;
                for entry in entries {
                    let entry = entry.map_err(|e| {
                        ServeError::Persist(format!("listing {}: {e}", dir.display()))
                    })?;
                    let path = entry.path();
                    if path.extension().is_some_and(|x| x == "jsonl") {
                        std::fs::remove_file(&path).map_err(|e| {
                            ServeError::Persist(format!("removing {}: {e}", path.display()))
                        })?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Appends entries (already in `(epoch, pos)` order) to `key`'s
    /// history.
    pub fn append(&mut self, key: u32, entries: &[HistoryEntry]) -> Result<(), ServeError> {
        match self {
            HistoryBackend::Memory(map) => {
                map.entry(key).or_default().extend_from_slice(entries);
            }
            HistoryBackend::Disk(dir) => {
                let mut w = WalWriter::open(&Self::segment(dir, key), 0)?;
                for &(epoch, pos, claim) in entries {
                    w.append(&HistoryRecord { epoch, pos, claim })?;
                }
            }
        }
        Ok(())
    }

    /// Removes and returns `key`'s history (`None` when it has none).
    pub fn remove(&mut self, key: u32) -> Result<Option<Vec<HistoryEntry>>, ServeError> {
        match self {
            HistoryBackend::Memory(map) => Ok(map.remove(&key)),
            HistoryBackend::Disk(dir) => {
                let path = Self::segment(dir, key);
                if !path.exists() {
                    return Ok(None);
                }
                let entries = read_segment(&path)?;
                std::fs::remove_file(&path).map_err(|e| {
                    ServeError::Persist(format!("removing {}: {e}", path.display()))
                })?;
                Ok(Some(entries))
            }
        }
    }

    /// Folds `absorbed` (a merged-away cluster's history) into
    /// `winner`'s, restoring global `(epoch, pos)` order. The pairs are
    /// unique, so this is a deterministic merge of two sorted runs.
    pub fn merge(&mut self, winner: u32, absorbed: Vec<HistoryEntry>) -> Result<(), ServeError> {
        match self {
            HistoryBackend::Memory(map) => {
                let dst = map.entry(winner).or_default();
                dst.extend(absorbed);
                dst.sort_unstable_by_key(|&(seq, pos, _)| (seq, pos));
            }
            HistoryBackend::Disk(dir) => {
                let path = Self::segment(dir, winner);
                let mut dst = if path.exists() {
                    read_segment(&path)?
                } else {
                    Vec::new()
                };
                dst.extend(absorbed);
                dst.sort_unstable_by_key(|&(seq, pos, _)| (seq, pos));
                let records: Vec<HistoryRecord> = dst
                    .into_iter()
                    .map(|(epoch, pos, claim)| HistoryRecord { epoch, pos, claim })
                    .collect();
                rewrite_atomic(&path, &records)?;
            }
        }
        Ok(())
    }

    /// `key`'s full history, in `(epoch, pos)` order.
    pub fn read(&self, key: u32) -> Result<Vec<HistoryEntry>, ServeError> {
        match self {
            HistoryBackend::Memory(map) => Ok(map.get(&key).cloned().unwrap_or_default()),
            HistoryBackend::Disk(dir) => {
                let path = Self::segment(dir, key);
                if !path.exists() {
                    return Ok(Vec::new());
                }
                read_segment(&path)
            }
        }
    }
}

fn read_segment(path: &Path) -> Result<Vec<HistoryEntry>, ServeError> {
    let rx = recover::<HistoryRecord>(path)?;
    Ok(rx
        .records
        .into_iter()
        .map(|r| (r.epoch, r.pos, r.claim))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("socsense-serve-hist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entries_of(seed: u64, count: u32) -> Vec<HistoryEntry> {
        (0..count)
            .map(|p| {
                (
                    seed,
                    p,
                    TimedClaim::new(p % 3, p % 2, seed * 100 + p as u64),
                )
            })
            .collect()
    }

    #[test]
    fn disk_backend_mirrors_memory_backend() {
        let dir = tmp_dir("mirror");
        let mut mem = HistoryBackend::memory();
        let mut disk = HistoryBackend::disk(&dir).unwrap();
        for backend in [&mut mem, &mut disk] {
            backend.append(1, &entries_of(1, 3)).unwrap();
            backend.append(2, &entries_of(2, 2)).unwrap();
            backend.append(1, &entries_of(3, 1)).unwrap();
            // Cluster 2 merges away into cluster 1.
            let absorbed = backend.remove(2).unwrap().unwrap();
            backend.merge(1, absorbed).unwrap();
        }
        assert_eq!(mem.read(1).unwrap(), disk.read(1).unwrap());
        assert_eq!(mem.read(2).unwrap(), Vec::new());
        assert_eq!(disk.read(2).unwrap(), Vec::new());
        assert!(mem.remove(9).unwrap().is_none());
        assert!(disk.remove(9).unwrap().is_none());
        // Merged history is globally ordered by (epoch, pos).
        let h = disk.read(1).unwrap();
        let keys: Vec<(u64, u32)> = h.iter().map(|&(e, p, _)| (e, p)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(h.len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flips one interior line of `key`'s segment to non-JSON garbage,
    /// leaving the final line (the torn-tail slot) intact.
    fn corrupt_interior_line(dir: &Path, key: u32) {
        let path = HistoryBackend::segment(dir, key);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        assert!(
            lines.len() >= 2,
            "need an interior line to corrupt, got {} line(s)",
            lines.len()
        );
        let victim = lines.len() / 2 - lines.len().is_multiple_of(2) as usize;
        lines[victim] = "{\"epoch\":garbage";
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    }

    #[test]
    fn interior_segment_corruption_is_loud_never_a_silent_truncation() {
        let dir = tmp_dir("interior");
        let mut disk = HistoryBackend::disk(&dir).unwrap();
        disk.append(5, &entries_of(1, 2)).unwrap();
        disk.append(5, &entries_of(2, 2)).unwrap();
        corrupt_interior_line(&dir, 5);

        // Every access path must refuse: returning the readable prefix
        // would silently drop claims from the rebuild replay source.
        let err = disk.read(5).unwrap_err().to_string();
        assert!(
            err.contains("corrupt"),
            "read error names corruption: {err}"
        );
        assert!(
            err.contains("cluster-0000000005.jsonl"),
            "read error names the segment: {err}"
        );
        let err = disk.remove(5).unwrap_err().to_string();
        assert!(err.contains("corrupt"), "remove error: {err}");
        assert!(
            HistoryBackend::segment(&dir, 5).exists(),
            "a failed remove must leave the evidence on disk"
        );
        let err = disk.merge(5, entries_of(9, 1)).unwrap_err().to_string();
        assert!(err.contains("corrupt"), "merge error: {err}");

        // Other clusters stay readable.
        disk.append(6, &entries_of(3, 1)).unwrap();
        assert_eq!(disk.read(6).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_segment_line_is_dropped_but_interior_tear_is_not() {
        let dir = tmp_dir("torn");
        let mut disk = HistoryBackend::disk(&dir).unwrap();
        disk.append(5, &entries_of(1, 3)).unwrap();
        let path = HistoryBackend::segment(&dir, 5);

        // Chop the final line mid-record: the crash-mid-append
        // signature. Recovery semantics allow dropping exactly that.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 8]).unwrap();
        assert_eq!(
            disk.read(5).unwrap().len(),
            2,
            "torn tail drops only the final record"
        );

        // The same tear *inside* the file (a missing newline splices
        // two records) is interior corruption and must be loud.
        let spliced = text.replacen('\n', "", 1);
        std::fs::write(&path, spliced).unwrap();
        let err = disk.read(5).unwrap_err().to_string();
        assert!(err.contains("corrupt"), "spliced records are loud: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wipe_drops_every_segment() {
        let dir = tmp_dir("wipe");
        let mut disk = HistoryBackend::disk(&dir).unwrap();
        disk.append(4, &entries_of(1, 2)).unwrap();
        disk.append(7, &entries_of(2, 2)).unwrap();
        disk.wipe().unwrap();
        assert_eq!(disk.read(4).unwrap(), Vec::new());
        assert_eq!(disk.read(7).unwrap(), Vec::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
