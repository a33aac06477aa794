//! Durable serve state: CRC-guarded write-ahead logging and atomic
//! epoch snapshots.
//!
//! This crate is the storage layer behind `socsense-serve`'s durability
//! contract (DESIGN.md §12): a worker killed at an arbitrary point and
//! restarted from *snapshot + WAL tail* answers every query
//! `f64::to_bits`-identically to the uninterrupted worker.
//!
//! Two primitives:
//!
//! * [`WalWriter`] / [`recover`] — an append-only record log. Each
//!   record is one line, `<crc32 hex8> <json>\n`, with the CRC taken
//!   over the JSON bytes. A crash can tear only the *final* line
//!   (appends are sequential), so recovery validates every line and
//!   reports where a torn tail starts, writing nothing; [`truncate_tail`]
//!   cuts it off once the caller accepts the log. A corrupt line that is
//!   *not* final is real corruption and is reported as an error rather
//!   than silently dropped. Durability is batched:
//!   [`WalWriter::append`] issues an `fsync` every `fsync_every` appends
//!   (`1` = every append — safest, slowest; `0` = never implicitly).
//! * [`SnapshotStore`] — whole-state checkpoint files, written
//!   tmp-then-rename with `fsync` on both file and directory, so a
//!   snapshot is either completely present or absent. [`SnapshotStore::latest`]
//!   walks candidates newest-first and returns the first valid one,
//!   making a snapshot that was torn mid-write (impossible via this
//!   writer, but possible via external truncation) recoverable by
//!   falling back to its predecessor.
//!
//! Both guard every line with a CRC-32 (IEEE polynomial, the checksum
//! gzip and PNG use) that steps eight bytes at a time through slice-by-8
//! tables built at compile time: every WAL append and every checkpoint
//! read and write checksums its whole payload.
//!
//! Opening either one creates what is missing and fsyncs each directory
//! that gained an entry, so a fresh data directory's `snapshots/` and
//! WAL file are durable before the first checkpoint truncates the WAL.
//! Opening over existing state issues no such fsync.
//!
//! Everything is deterministic: record bytes are a pure function of the
//! serialized payload (no timestamps, no randomness), and recovery
//! returns records in append order.

// detlint: contract = deterministic
#![warn(missing_docs)]

mod crc;
mod error;
mod snapshot;
mod wal;

pub use error::PersistError;
pub use snapshot::SnapshotStore;
pub use wal::{recover, truncate_tail, Recovery, WalWriter};
