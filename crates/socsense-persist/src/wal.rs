//! The append-only write-ahead record log.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::crc::crc32;
use crate::error::PersistError;

/// Serializes one record into its on-disk line: `<crc32 hex8> <json>\n`,
/// CRC over the JSON bytes.
fn encode_line<T: Serialize>(record: &T) -> Vec<u8> {
    // Serialization of the workspace's record types cannot fail (no
    // maps with non-string keys, no non-serializable leaves), and the
    // float_roundtrip vendor feature keeps floats lossless.
    // detlint: allow(P1) -- infallible by construction: record types are plain structs (no map keys, no fallible leaves); a failure here is a type-level bug, not a runtime condition
    let json = serde_json::to_string(record).expect("WAL records serialize infallibly");
    let mut line = format!("{:08x} ", crc32(json.as_bytes())).into_bytes();
    line.extend_from_slice(json.as_bytes());
    line.push(b'\n');
    line
}

/// Why a line failed validation.
enum BadLine {
    /// The framing or the CRC does not check out: what a torn or
    /// partially flushed append leaves behind.
    Unverified(&'static str),
    /// The CRC matches, so these are the bytes that were written, but
    /// they do not decode as a record (another format, or a bug). No
    /// crash produces this.
    Undecodable,
}

impl BadLine {
    fn what(&self) -> &'static str {
        match self {
            Self::Unverified(what) => what,
            Self::Undecodable => "malformed record payload",
        }
    }
}

/// Parses and validates one line (without trailing newline).
fn decode_line<T: Deserialize>(line: &[u8]) -> Result<T, BadLine> {
    if line.len() < 10 || line[8] != b' ' {
        return Err(BadLine::Unverified("malformed record framing"));
    }
    let stored = std::str::from_utf8(&line[..8])
        .ok()
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or(BadLine::Unverified("malformed crc field"))?;
    let json = &line[9..];
    if crc32(json) != stored {
        return Err(BadLine::Unverified("crc mismatch"));
    }
    let json = std::str::from_utf8(json).map_err(|_| BadLine::Undecodable)?;
    serde_json::from_str(json).map_err(|_| BadLine::Undecodable)
}

/// Validates a whole log image: the clean records, plus the byte offset
/// where a torn final line starts, if there is one.
///
/// A final line that is incomplete (no newline) or fails its framing or
/// CRC check is torn. Any other failing line is an error: an interior
/// line cannot be a torn append, and a complete final line whose CRC
/// matches holds exactly the bytes written.
fn scan<T: Deserialize>(
    path: &Path,
    bytes: &[u8],
) -> Result<(Vec<T>, Option<usize>), PersistError> {
    let corrupt = |line, bad: BadLine| PersistError::Corrupt {
        path: path.display().to_string(),
        line,
        what: bad.what(),
    };
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut line_no = 0usize;
    while offset < bytes.len() {
        line_no += 1;
        let rest = &bytes[offset..];
        let (line, consumed, complete) = match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => (&rest[..nl], nl + 1, true),
            None => (rest, rest.len(), false),
        };
        let is_final = offset + consumed >= bytes.len();
        match decode_line::<T>(line) {
            Ok(record) if complete => {
                records.push(record);
                offset += consumed;
            }
            Err(bad @ BadLine::Undecodable) if complete => return Err(corrupt(line_no, bad)),
            // A valid-looking but newline-less final chunk is still a
            // torn append (the newline never landed), as is a final line
            // that fails its framing or CRC check.
            _ if is_final => return Ok((records, Some(offset))),
            // detlint: allow(P1) -- the `_ if is_final` arm above consumes every incomplete-line case; a parsed record without a newline mid-file is impossible by the split logic
            Ok(_) => unreachable!("incomplete line can only be final"),
            Err(bad) => return Err(corrupt(line_no, bad)),
        }
    }
    Ok((records, None))
}

/// Reads and validates a log without modifying it: `None` when the file
/// is missing.
fn read<T: Deserialize>(path: &Path) -> Result<Option<Recovery<T>>, PersistError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PersistError::io(path, "read", e)),
    };
    let (records, torn_at) = scan(path, &bytes)?;
    Ok(Some(Recovery {
        records,
        torn_at: torn_at.map(|offset| offset as u64),
    }))
}

/// Reads a log without modifying it: every record, or `None` when the
/// file is missing or its final line is torn. Snapshot reads use this;
/// a snapshot is renamed into place whole, so a torn one is damage to
/// skip, not a tail to repair.
///
/// # Errors
///
/// As [`recover`].
pub(crate) fn read_clean<T: Deserialize>(path: &Path) -> Result<Option<Vec<T>>, PersistError> {
    Ok(match read(path)? {
        Some(Recovery {
            records,
            torn_at: None,
        }) => Some(records),
        _ => None,
    })
}

/// The result of [`recover`]: the valid records plus where a torn final
/// line starts.
#[derive(Debug)]
pub struct Recovery<T> {
    /// Every valid record, in append order.
    pub records: Vec<T>,
    /// The byte offset of a torn final line, if there is one: the length
    /// [`truncate_tail`] cuts the file back to before a [`WalWriter`]
    /// appends.
    pub torn_at: Option<u64>,
}

/// Reads a WAL back, validating every record, and writes nothing.
///
/// A missing file yields zero records. A final line that is incomplete
/// or fails its framing or CRC check is a *torn append* (the only
/// failure a crash of the sequential writer can produce): it stays on
/// disk, and [`torn_at`](Recovery::torn_at) reports where it starts.
///
/// # Errors
///
/// [`PersistError::Corrupt`] when a record that is **not** the final
/// line fails validation (that cannot be a torn append), or when a
/// complete line passes its CRC check but does not decode.
/// [`PersistError::Io`] on filesystem failures.
pub fn recover<T: Deserialize>(path: &Path) -> Result<Recovery<T>, PersistError> {
    Ok(read(path)?.unwrap_or(Recovery {
        records: Vec::new(),
        torn_at: None,
    }))
}

/// Cuts the WAL at `path` back to `len` bytes, where [`recover`] found a
/// torn tail, and fsyncs it, so a [`WalWriter`] opened next appends
/// after the last valid record. Issues one fsync.
///
/// # Errors
///
/// [`PersistError::Io`] on filesystem failures.
pub fn truncate_tail(path: &Path, len: u64) -> Result<(), PersistError> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| PersistError::io(path, "open", e))?;
    file.set_len(len)
        .map_err(|e| PersistError::io(path, "truncate", e))?;
    file.sync_data()
        .map_err(|e| PersistError::io(path, "fsync", e))
}

/// Atomically replaces `path` with a log holding exactly `records`:
/// written to a sibling temporary file, fsynced, renamed over `path`,
/// and the parent directory fsynced — the file is never observable in a
/// partially written state. Returns the number of fsyncs issued (2).
///
/// # Errors
///
/// [`PersistError::Io`] on filesystem failures.
pub(crate) fn rewrite_atomic<T: Serialize>(
    path: &Path,
    records: &[T],
) -> Result<u64, PersistError> {
    let tmp = tmp_sibling(path);
    {
        let mut file = File::create(&tmp).map_err(|e| PersistError::io(&tmp, "create", e))?;
        for record in records {
            file.write_all(&encode_line(record))
                .map_err(|e| PersistError::io(&tmp, "write", e))?;
        }
        file.sync_all()
            .map_err(|e| PersistError::io(&tmp, "fsync", e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| PersistError::io(path, "rename", e))?;
    sync_parent_dir(path)?;
    Ok(2)
}

/// `<path>.tmp`, the scratch name [`rewrite_atomic`] stages into.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Fsyncs the directory holding `path`, making a just-created or
/// just-renamed entry durable.
fn sync_parent_dir(path: &Path) -> Result<(), PersistError> {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    let dir = File::open(parent).map_err(|e| PersistError::io(parent, "open dir", e))?;
    dir.sync_all()
        .map_err(|e| PersistError::io(parent, "fsync dir", e))
}

/// Creates `dir` and any missing ancestors, then fsyncs each directory
/// that gained an entry: without that, fsync(2) does not promise the new
/// entries survive a crash. Returns the number of fsyncs issued, 0 when
/// `dir` already exists.
pub(crate) fn create_dir_durable(dir: &Path) -> Result<u64, PersistError> {
    let missing: Vec<&Path> = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
        .collect();
    if missing.is_empty() {
        return Ok(0);
    }
    std::fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, "create dir", e))?;
    for created in missing.iter().rev() {
        sync_parent_dir(created)?;
    }
    Ok(missing.len() as u64)
}

/// An append-only writer over one WAL file.
///
/// Run [`recover`] first: appends land at the end of the file, so a
/// torn tail must have been cut off ([`truncate_tail`]) before the
/// first append.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    fsync_every: usize,
    appends_since_sync: usize,
    fsyncs_total: u64,
    bytes_total: u64,
}

impl WalWriter {
    /// Opens `path` for appending, creating it (and missing parent
    /// directories) as needed. A file or directory it creates is made
    /// durable by fsyncing the directory that gained the entry.
    ///
    /// `fsync_every` batches durability: an `fsync` is issued every that
    /// many appends (`1` = after every append; `0` = never implicitly).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures.
    pub fn open(path: &Path, fsync_every: usize) -> Result<Self, PersistError> {
        let mut fsyncs_total = match path.parent() {
            Some(parent) => create_dir_durable(parent)?,
            None => 0,
        };
        let is_new = !path.exists();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| PersistError::io(path, "open", e))?;
        if is_new {
            sync_parent_dir(path)?;
            fsyncs_total += 1;
        }
        // Make the append position explicit (append mode does this on
        // every write anyway; seeking keeps `stream_position` users sane).
        file.seek(SeekFrom::End(0))
            .map_err(|e| PersistError::io(path, "seek", e))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            fsync_every,
            appends_since_sync: 0,
            fsyncs_total,
            bytes_total: 0,
        })
    }

    /// Appends one record and applies the batched-fsync policy.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures.
    pub fn append<T: Serialize>(&mut self, record: &T) -> Result<(), PersistError> {
        let line = encode_line(record);
        self.file
            .write_all(&line)
            .map_err(|e| PersistError::io(&self.path, "append", e))?;
        self.bytes_total += line.len() as u64;
        self.appends_since_sync += 1;
        if self.fsync_every > 0 && self.appends_since_sync >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces an `fsync` now, regardless of the batching policy.
    fn sync(&mut self) -> Result<(), PersistError> {
        self.file
            .sync_data()
            .map_err(|e| PersistError::io(&self.path, "fsync", e))?;
        self.fsyncs_total += 1;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Discards every record: truncates the file to zero length and
    /// fsyncs. Used after a snapshot has absorbed the logged history, so
    /// the log only ever holds the tail since the last checkpoint.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures.
    pub fn truncate(&mut self) -> Result<(), PersistError> {
        self.file
            .set_len(0)
            .map_err(|e| PersistError::io(&self.path, "truncate", e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| PersistError::io(&self.path, "seek", e))?;
        self.file
            .sync_data()
            .map_err(|e| PersistError::io(&self.path, "fsync", e))?;
        self.fsyncs_total += 1;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// `fsync`s issued by this writer: the directory fsyncs of an
    /// [`open`](Self::open) that created the file, the batched ones
    /// after appends, and one per [`truncate`](Self::truncate).
    pub fn fsyncs_total(&self) -> u64 {
        self.fsyncs_total
    }

    /// Bytes appended through this writer.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Rec {
        seq: u64,
        payload: Vec<u32>,
    }

    fn rec(seq: u64) -> Rec {
        Rec {
            seq,
            payload: vec![seq as u32, 7],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("socsense-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_preserves_records_in_order() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("wal.jsonl");
        let mut w = WalWriter::open(&path, 1).unwrap();
        for s in 0..5 {
            w.append(&rec(s)).unwrap();
        }
        assert_eq!(w.bytes_total(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(
            w.fsyncs_total(),
            6,
            "the new file's directory, then fsync_every=1 syncs per append"
        );
        drop(w);
        let rx: Recovery<Rec> = recover(&path).unwrap();
        assert_eq!(rx.torn_at, None);
        assert_eq!(rx.records, (0..5).map(rec).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_recovers_empty() {
        let dir = tmp_dir("missing");
        let rx: Recovery<Rec> = recover(&dir.join("absent.jsonl")).unwrap();
        assert!(rx.records.is_empty());
        assert_eq!(rx.torn_at, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_truncated_and_appends_continue() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.jsonl");
        let mut w = WalWriter::open(&path, 0).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        w.sync().unwrap();
        assert_eq!(
            w.fsyncs_total(),
            2,
            "the new file's directory, then fsync_every=0 only syncs explicitly"
        );
        drop(w);
        let first_len = encode_line(&rec(0)).len() as u64;
        // Tear the final line mid-record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 4).unwrap();
        drop(f);
        let torn = std::fs::read(&path).unwrap();
        let rx: Recovery<Rec> = recover(&path).unwrap();
        assert_eq!(rx.torn_at, Some(first_len));
        assert_eq!(rx.records, vec![rec(0)]);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            torn,
            "reading writes nothing"
        );
        // Cut back, the log is clean again: appends resume after the
        // last record.
        truncate_tail(&path, first_len).unwrap();
        let mut w = WalWriter::open(&path, 1).unwrap();
        w.append(&rec(9)).unwrap();
        drop(w);
        let rx: Recovery<Rec> = recover(&path).unwrap();
        assert_eq!(rx.torn_at, None);
        assert_eq!(rx.records, vec![rec(0), rec(9)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn complete_final_line_with_bad_crc_is_treated_as_torn() {
        let dir = tmp_dir("badcrc");
        let path = dir.join("wal.jsonl");
        let mut w = WalWriter::open(&path, 1).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        drop(w);
        // Flip one payload byte of the final line, newline intact.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let rx: Recovery<Rec> = recover(&path).unwrap();
        assert_eq!(rx.torn_at, Some(encode_line(&rec(0)).len() as u64));
        assert_eq!(rx.records, vec![rec(0)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_valid_final_line_that_fails_to_decode_is_corrupt_and_kept() {
        #[derive(Debug, Serialize)]
        struct OtherFormat {
            seq: u64,
            payload: String,
        }
        let dir = tmp_dir("undecodable");
        let path = dir.join("wal.jsonl");
        let mut w = WalWriter::open(&path, 1).unwrap();
        w.append(&rec(0)).unwrap();
        // A complete line with a valid CRC whose payload is not a `Rec`:
        // no torn append looks like this.
        w.append(&OtherFormat {
            seq: 1,
            payload: "older format".into(),
        })
        .unwrap();
        drop(w);
        let before = std::fs::read(&path).unwrap();
        let err = recover::<Rec>(&path).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt { line: 2, .. }),
            "{err}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "file must be untouched"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_line_is_an_error_not_a_truncation() {
        let dir = tmp_dir("midcorrupt");
        let path = dir.join("wal.jsonl");
        let mut w = WalWriter::open(&path, 1).unwrap();
        for s in 0..3 {
            w.append(&rec(s)).unwrap();
        }
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt a byte inside the second line's JSON.
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[first_nl + 15] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = recover::<Rec>(&path).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt { line: 2, .. }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_batches_by_policy() {
        let dir = tmp_dir("batch");
        let path = dir.join("wal.jsonl");
        let mut w = WalWriter::open(&path, 3).unwrap();
        for s in 0..7 {
            w.append(&rec(s)).unwrap();
        }
        assert_eq!(
            w.fsyncs_total(),
            1 + 2,
            "new file, then 7 appends at fsync_every=3"
        );
        w.sync().unwrap();
        assert_eq!(w.fsyncs_total(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_empties_the_log_and_appends_restart() {
        let dir = tmp_dir("truncate");
        let path = dir.join("wal.jsonl");
        let mut w = WalWriter::open(&path, 1).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        w.truncate().unwrap();
        w.append(&rec(2)).unwrap();
        assert_eq!(w.fsyncs_total(), 1 + 2 + 1 + 1, "open, appends, truncate");
        drop(w);
        let rx: Recovery<Rec> = recover(&path).unwrap();
        assert_eq!(rx.torn_at, None);
        assert_eq!(rx.records, vec![rec(2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn created_directories_are_synced_through_relative_parents() {
        let dir = tmp_dir("mkdir");
        let nested = dir.join("a").join("b");
        assert_eq!(create_dir_durable(&nested).unwrap(), 2);
        assert!(nested.is_dir());
        assert_eq!(create_dir_durable(&nested).unwrap(), 0);
        // A writer that creates both directories and its file syncs
        // all three entries; reopening syncs nothing.
        let path = dir.join("c").join("d").join("wal.jsonl");
        assert_eq!(WalWriter::open(&path, 1).unwrap().fsyncs_total(), 3);
        assert_eq!(WalWriter::open(&path, 1).unwrap().fsyncs_total(), 0);
        // A one-component relative path's parent is the working directory.
        sync_parent_dir(Path::new("Cargo.toml")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_atomic_replaces_contents() {
        let dir = tmp_dir("rewrite");
        let path = dir.join("seg.jsonl");
        assert_eq!(rewrite_atomic(&path, &[rec(1), rec(2)]).unwrap(), 2);
        let rx: Recovery<Rec> = recover(&path).unwrap();
        assert_eq!(rx.records, vec![rec(1), rec(2)]);
        rewrite_atomic(&path, &[rec(9)]).unwrap();
        let rx: Recovery<Rec> = recover(&path).unwrap();
        assert_eq!(rx.records, vec![rec(9)]);
        assert!(!path.with_extension("jsonl.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
