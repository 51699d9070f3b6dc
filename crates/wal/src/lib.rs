//! # mvcc-wal — durability for the multiversion database
//!
//! The in-memory database (mvcc-core) commits a batch by installing a new
//! version root; a process crash loses every one of those commits. This
//! crate adds the three classic durability layers, kept deliberately
//! independent of the tree types so the transactional crate wires them in
//! without this crate knowing about forests or sessions:
//!
//! * **Write-ahead log** ([`Wal`]) — append-only segment files
//!   (`wal-{seq:08}.seg`, rolled at a size threshold) of CRC-guarded,
//!   length-prefixed frames. Two append paths share the segments:
//!   [`Wal::append`] writes one record per frame and fsyncs per the
//!   [`FsyncPolicy`] (the *serial* path), while [`Wal::announce`] +
//!   [`CommitIntent::enqueue`] + [`Wal::wait_durable`] stage records on
//!   a commit-ordered **group tail** that a leader — the first
//!   durability waiter, or an enqueue blocked at the tail's watermark —
//!   drains into one multi-record frame and a single fsync (the
//!   *group-commit* path; see [`GroupStats`] for how well it
//!   coalesces). A waiting leader holds
//!   its flush, at most one mean flush time, for committers on their
//!   way: announced and not yet enqueued, or expected from the size of
//!   the last group. Appends retry transient I/O errors with exponential
//!   backoff before surfacing a typed [`WalError`].
//! * **Snapshot checkpoints** ([`checkpoint`]) — a full key/value image
//!   at one `commit_ts`, written to a temporary name, CRC-sealed, then
//!   renamed into place so a crash mid-checkpoint leaves the previous
//!   checkpoint authoritative. Loading falls back across corrupt
//!   checkpoints to the newest valid one.
//! * **Recovery** ([`Wal::open`]) — scans the segments, replays every
//!   intact frame in order and *gracefully degrades* on a torn tail: a
//!   frame with a short length or bad CRC ends replay at the last intact
//!   record (the torn bytes are truncated away so the log is appendable
//!   again) instead of aborting.
//!
//! ## Segment and frame grammar
//!
//! A segment is a header, frames, and optional zero padding.
//! [`DirStorage`] keeps each segment zero-filled past its last frame, so
//! a group commit's fsync overwrites zeros instead of growing the file.
//! Recovery reads padding as the segment's clean end and trims it; any
//! nonzero byte after the last intact frame makes the tail torn. (A zero
//! frame head would claim an empty payload, which no record has, so
//! padding can never decode as a frame.)
//!
//! Every frame is length-prefixed and CRC-guarded; the checksum covers
//! the whole payload, so a torn or bit-flipped **group** frame rejects
//! every record in it — coalesced commits recover all-or-nothing, never
//! as a partial group:
//!
//! ```text
//! segment := "MVWALSEG" [segment_seq: u64] frame* [0x00]*
//! frame   := [payload_len: u32] [crc32(payload): u32] payload
//! payload := record                                      // single commit
//!          | [GROUP_TAG: u64] [n_records: u32] record*   // coalesced group
//! record  := [tx_id: u64] [commit_ts: u64] [snapshot_ts: u64]
//!            [n_ops: u32] op*
//! op      := [0x00] [key_len: u32] key [val_len: u32] val   // put
//!          | [0x01] [key_len: u32] key                      // delete
//! ```
//!
//! [`GROUP_TAG`] is `u64::MAX`; real `tx_id`s start at 1, so the first
//! eight bytes of a payload decide its shape unambiguously. All integers
//! are little-endian.
//!
//! All I/O goes through the [`Storage`] trait: [`DirStorage`] is the real
//! filesystem backend (zero-padded segments, as above), and
//! [`FaultStorage`] is an in-memory double with a
//! seeded fault plan — torn writes, dropped unsynced bytes, bit flips,
//! transient append failures, short reads and crash-points at every write
//! site — driving the crash-recovery property tests in the workspace root
//! (`tests/wal_recovery.rs`).
//!
//! ```
//! use std::sync::Arc;
//! use mvcc_wal::{FaultStorage, FsyncPolicy, Wal, WalBatch, WalConfig, WalOp};
//!
//! let storage = Arc::new(FaultStorage::unfaulted());
//! let (wal, replay) = Wal::open(storage.clone(), WalConfig::default()).unwrap();
//! assert!(replay.batches.is_empty());
//! wal.append(&WalBatch {
//!     tx_id: 1,
//!     commit_ts: 1,
//!     snapshot_ts: 0,
//!     ops: vec![WalOp::Put(b"k".to_vec(), b"v".to_vec())],
//! })
//! .unwrap();
//! // Re-opening replays the committed batch.
//! drop(wal);
//! let (_wal, replay) = Wal::open(storage, WalConfig::default()).unwrap();
//! assert_eq!(replay.batches.len(), 1);
//! assert!(replay.torn.is_none());
//! ```

pub mod checkpoint;
pub mod codec;
mod fault;
mod frame;
mod log;
mod storage;

pub use codec::WalCodec;
pub use fault::{FaultPlan, FaultStorage};
pub use frame::{crc32, WalBatch, WalOp, GROUP_TAG};
pub use log::{is_segment_name, CommitIntent, GroupStats, Replay, TornTail, Wal};
pub use storage::{DirStorage, Storage};

use std::time::Duration;

/// When the log calls `fsync` on the active segment.
///
/// The policy trades a crash's worst-case loss window against commit
/// latency: `Always` makes every acknowledged commit durable; `EveryN(n)`
/// group-commits (a crash can lose up to the last `n - 1` acknowledged
/// batches, but they are lost *from the tail* — recovery still yields a
/// committed prefix); `Off` leaves flushing to the OS entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every append: an acknowledged commit is durable.
    Always,
    /// Sync after every `n`-th append (group commit). `EveryN(1)` is
    /// `Always`.
    EveryN(u64),
    /// Never sync; the OS flushes at its leisure.
    Off,
}

/// Bounded retry for transient I/O errors on the append path.
///
/// An append that still fails after `attempts` retries surfaces as
/// [`WalError::Io`]; any partial bytes a failed attempt may have written
/// are truncated away before each retry, so a retried append can never
/// leave a corrupt frame *in front of* later records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 = fail immediately).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub initial_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(1),
        }
    }
}

/// Configuration for a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Group-commit fsync policy for the append path.
    pub fsync: FsyncPolicy,
    /// Roll to a fresh segment file once the active one exceeds this many
    /// bytes (checkpoint truncation drops whole sealed segments).
    pub segment_bytes: u64,
    /// Transient-error retry policy for appends.
    pub retry: RetryPolicy,
    /// High watermark on the group-commit tail, in pending records
    /// (0 = unbounded). [`CommitIntent::enqueue`] past it blocks —
    /// leading a flush itself if none is in progress — and
    /// [`CommitIntent::try_enqueue`]
    /// returns [`WalError::Backpressure`], so the tail can never outrun
    /// the disk without bound.
    pub max_pending_batches: usize,
    /// High watermark on the group-commit tail, in encoded record bytes
    /// (0 = unbounded). Same backpressure contract as
    /// [`WalConfig::max_pending_batches`]; whichever trips first wins.
    pub max_pending_bytes: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            retry: RetryPolicy::default(),
            max_pending_batches: 0,
            max_pending_bytes: 0,
        }
    }
}

/// Typed durability errors. Everything the WAL, checkpoint and recovery
/// paths can surface; `From<std::io::Error>` is deliberately absent — the
/// call sites wrap I/O failures with the operation and file they hit.
#[derive(Debug)]
pub enum WalError {
    /// An I/O operation failed and (for appends) kept failing across the
    /// configured retries.
    Io {
        /// The storage operation that failed (`"append"`, `"sync"`, …).
        op: &'static str,
        /// The file the operation targeted.
        name: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A record failed validation where corruption is not tolerable (a
    /// checkpoint body, or a frame that decodes but contradicts itself).
    /// Torn WAL *tails* do not produce this error — they end replay
    /// gracefully (see [`Replay::torn`]).
    Corrupt {
        /// The file holding the corrupt bytes.
        name: String,
        /// Byte offset of the corruption.
        offset: u64,
        /// What failed to validate.
        reason: &'static str,
    },
    /// A post-append failure (fsync or segment roll) could not be rolled
    /// back, so the log's tail holds a frame that was never acknowledged
    /// and cannot be removed. The log refuses all further appends —
    /// writing past that frame could resurrect the unacknowledged commit
    /// after a crash. Re-open the log ([`Wal::open`]) to repair and
    /// resume.
    Poisoned,
    /// The group-commit tail is at its configured watermark
    /// ([`WalConfig::max_pending_batches`] /
    /// [`WalConfig::max_pending_bytes`]) and the caller asked not to
    /// block ([`CommitIntent::try_enqueue`]). Nothing was enqueued; retry after a
    /// flush drains the tail.
    Backpressure,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { op, name, source } => {
                write!(f, "wal {op} on {name:?} failed: {source}")
            }
            WalError::Corrupt {
                name,
                offset,
                reason,
            } => {
                write!(f, "corrupt record in {name:?} at byte {offset}: {reason}")
            }
            WalError::Poisoned => {
                write!(
                    f,
                    "write-ahead log poisoned by an unrecoverable append failure; \
                     re-open to repair"
                )
            }
            WalError::Backpressure => {
                write!(
                    f,
                    "group-commit tail is at its watermark; retry after a flush drains it"
                )
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            WalError::Corrupt { .. } | WalError::Poisoned | WalError::Backpressure => None,
        }
    }
}

pub(crate) fn io_err(op: &'static str, name: &str, source: std::io::Error) -> WalError {
    WalError::Io {
        op,
        name: name.to_string(),
        source,
    }
}
