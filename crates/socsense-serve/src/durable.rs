//! Durable serve state: the WAL record and snapshot payload types and
//! the append/checkpoint engine both serving tiers share (see DESIGN.md
//! §12).
//!
//! Every float inside a payload travels as `f64::to_bits` (via
//! [`SlotCheckpoint`]), so a restored worker is
//! bit-identical to the one that wrote the checkpoint — recovery is
//! *restore the newest snapshot, then replay the WAL tail through the
//! normal ingest path*, and both steps are pure functions of the logged
//! ingest sequence. A clean shutdown checkpoints the last batch, so a
//! planned restart's tail is empty; only a crash leaves one to replay.

use serde::{Deserialize, Serialize};

use socsense_graph::TimedClaim;
use socsense_obs::Obs;
use socsense_persist::{recover, truncate_tail, Recovery, SnapshotStore, WalWriter};

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
/// skipping it. Format 4 stores each claim of a slot's claim log as the
/// array `[source, assertion, time]`; format 3 stored it as an object
/// with three named keys. Format 3 dropped a slot's probe-refit and
/// probe-cache-hit counters, which format 2 stored, and format 1 also
/// stored a slot's chain-fit `θ` twice.
pub(crate) const CHECKPOINT_FORMAT: u64 = 4;

/// Each tier's checkpoint by the top-level key only it holds, and the
/// tier that writes it. Recovery names the writer of a checkpoint that
/// holds another tier's key (see [`decode_checkpoint`]).
const WRITERS: [(&str, &str); 2] = [
    ("slot", "the single worker (`QueryService`)"),
    ("clusters", "the sharded router (`ShardedService`)"),
];

/// A tier's checkpoint payload.
pub(crate) trait Checkpoint: Deserialize {
    /// The tier's key in [`WRITERS`].
    const KEY: &'static str;
}

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

impl Checkpoint for WorkerSnapshot {
    const KEY: &'static str = "slot";
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

impl Checkpoint for RouterSnapshot {
    const KEY: &'static str = "clusters";
}

/// What [`DurableLog::open`] found on disk.
pub(crate) struct Recovered<S> {
    /// The newest valid snapshot, if any: `(sequence, payload)`.
    pub snapshot: Option<(u64, S)>,
    /// The valid WAL records to replay, in append order and without a
    /// gap: every record when `open` was asked to keep the ones the
    /// snapshot covers (the router's membership dry-replay needs the full
    /// sequence), else the records after the snapshot.
    pub records: Vec<WalRecord>,
}

/// The one gap check of WAL recovery: the records from sequence `first`
/// on, in order. Records before `first` — absorbed by a checkpoint that
/// truncated the log — are skipped; the rest must run densely `first,
/// first + 1, …`, so recovery fails loudly instead of replaying around
/// a hole.
fn dense_from(records: Vec<WalRecord>, first: u64) -> Result<Vec<WalRecord>, ServeError> {
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
    /// Recovers whatever a previous service left under `cfg.data_dir`
    /// and opens the durable state there: the newest valid snapshot and
    /// the valid WAL records from the first one to replay on — every
    /// record when `keep_covered`, else those after the snapshot — which
    /// must run without a gap. A snapshot of another checkpoint format or
    /// tier (see [`decode_checkpoint`]), a corrupt WAL line or a gap is
    /// refused before anything is written or counted: only an accepted
    /// directory loses a torn final WAL line — the signature of a crash
    /// mid-append, counted on `serve.wal.truncated_tail_total` — and then
    /// gains `snapshots/` and the WAL file, and only an accepted recovery
    /// counts its restore on `serve.snapshot.restores_total` and its
    /// replayable batches on `serve.wal.recovered_batches_total`. Reading
    /// the snapshot —
    /// the file read, its CRC check and the decode — is timed on
    /// `serve.snapshot.read.seconds`. Each fsync the two stores issue,
    /// here and later, is counted on `serve.wal.fsyncs_total` or
    /// `serve.snapshot.fsyncs_total`.
    pub fn open<S: Checkpoint>(
        cfg: &PersistConfig,
        obs: &Obs,
        keep_covered: bool,
    ) -> Result<(Self, Recovered<S>), ServeError> {
        let snap_dir = cfg.data_dir.join("snapshots");
        let read = obs.timer("serve.snapshot.read.seconds");
        let snapshot = match SnapshotStore::at(&snap_dir).latest::<serde_json::Value>()? {
            Some((seq, payload)) => Some((seq, decode_checkpoint(seq, payload)?)),
            None => None,
        };
        read.stop();
        let wal_path = cfg.data_dir.join("wal.jsonl");
        let Recovery { records, torn_at } = recover::<WalRecord>(&wal_path)?;
        let since = snapshot.as_ref().map_or(0, |(seq, _)| *seq);
        let replayable = records.iter().filter(|r| r.seq > since).count();
        let records = dense_from(records, if keep_covered { 1 } else { since + 1 })?;
        // Counted once the snapshot, the WAL and its order are accepted:
        // a refused recovery restores and replays nothing.
        if snapshot.is_some() {
            obs.counter("serve.snapshot.restores_total", 1);
        }
        obs.counter("serve.wal.recovered_batches_total", replayable as u64);
        if let Some(len) = torn_at {
            truncate_tail(&wal_path, len)?;
            obs.counter("serve.wal.truncated_tail_total", 1);
        }
        let snaps = SnapshotStore::open(&snap_dir)?;
        let wal = WalWriter::open(&wal_path, cfg.fsync_every)?;
        obs.counter(
            "serve.wal.fsyncs_total",
            u64::from(torn_at.is_some()) + wal.fsyncs_total(),
        );
        obs.counter("serve.snapshot.fsyncs_total", snaps.fsyncs_total());
        Ok((
            Self {
                wal,
                snaps,
                snapshot_every: cfg.snapshot_every,
                checkpointed: since,
                #[cfg(test)]
                fail_next_append: false,
            },
            Recovered { snapshot, records },
        ))
    }

    /// Appends one accepted batch to the WAL (write-ahead of the ack:
    /// with `fsync_every = 1`, a batch the client saw acknowledged is on
    /// disk), timed on `serve.wal.append.seconds`.
    pub fn append(&mut self, seq: u64, claims: &[TimedClaim], obs: &Obs) -> Result<(), ServeError> {
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next_append) {
            return Err(ServeError::Persist("injected WAL append failure".into()));
        }
        let bytes_before = self.wal.bytes_total();
        let fsyncs_before = self.wal.fsyncs_total();
        let timer = obs.timer("serve.wal.append.seconds");
        self.wal.append(&WalRecord {
            seq,
            claims: claims.to_vec(),
        })?;
        timer.stop();
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
    /// The write — encode, CRC, file and directory fsyncs — is timed on
    /// `serve.snapshot.write.seconds`.
    pub fn write_snapshot<S: Serialize>(
        &mut self,
        seq: u64,
        payload: &S,
        truncate_wal: bool,
        obs: &Obs,
    ) -> Result<(), ServeError> {
        let bytes_before = self.snaps.bytes_total();
        let fsyncs_before = self.snaps.fsyncs_total();
        let timer = obs.timer("serve.snapshot.write.seconds");
        self.snaps.write(seq, payload)?;
        timer.stop();
        self.checkpointed = seq;
        self.snaps.prune(2)?;
        obs.counter("serve.snapshot.writes_total", 1);
        obs.counter(
            "serve.snapshot.bytes_total",
            self.snaps.bytes_total() - bytes_before,
        );
        obs.counter(
            "serve.snapshot.fsyncs_total",
            self.snaps.fsyncs_total() - fsyncs_before,
        );
        if truncate_wal {
            let fsyncs_before = self.wal.fsyncs_total();
            self.wal.truncate()?;
            obs.counter(
                "serve.wal.fsyncs_total",
                self.wal.fsyncs_total() - fsyncs_before,
            );
        }
        Ok(())
    }
}

/// Decodes checkpoint `seq` once its format stamp reads
/// [`CHECKPOINT_FORMAT`] and it holds no other tier's key. A checkpoint
/// of any other format, or one without a stamp, is refused with an error
/// naming both formats; one that another tier wrote, with an error
/// naming that tier. Skipping either would lose the state it holds: its
/// WAL was truncated when it was written, or it is another tier's.
fn decode_checkpoint<S: Checkpoint>(seq: u64, payload: serde_json::Value) -> Result<S, ServeError> {
    let fields = payload.as_object();
    let has = |key: &str| fields.is_some_and(|fields| fields.contains_key(key));
    let stamp = fields
        .and_then(|fields| fields.get("format"))
        .map(|format| serde_json::from_value::<u64>(format.clone()));
    let found = match stamp {
        Some(Ok(CHECKPOINT_FORMAT)) => {
            if let Some((_, writer)) = WRITERS.iter().find(|&&(key, _)| key != S::KEY && has(key)) {
                return Err(ServeError::Persist(format!(
                    "snapshot {seq} was written by {writer}, another serving tier; recovery \
                     refuses it and leaves the data directory as it is"
                )));
            }
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
