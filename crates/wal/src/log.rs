//! The write-ahead log proper: append-only segment files, group-commit
//! coalescing, bounded retry, and graceful torn-tail recovery.
//!
//! A log is a sequence of segment files `wal-<seq>.seg`, each beginning
//! with a 16-byte header (magic + sequence number) followed by frames
//! (see [`crate::frame`]). Appends go to the newest segment; once it
//! exceeds [`WalConfig::segment_bytes`] the log seals it and starts the
//! next. Checkpoint truncation ([`Wal::truncate_before`]) drops whole
//! sealed segments whose every batch is covered by a checkpoint — the
//! active segment is never dropped.
//!
//! Two append paths share the segment files:
//!
//! * [`Wal::append`] — the serial path: one frame, fsynced per policy,
//!   durable (or rolled back) by the time the call returns.
//! * [`Wal::announce`] + [`CommitIntent::enqueue`] + [`Wal::wait_durable`]
//!   — the group-commit path. A committer *announces* itself before it
//!   takes its own commit lock; `enqueue` encodes the batch onto an
//!   in-memory pending tail (the commit-ordered record queue), consumes
//!   the announcement, and returns a sequence number; `wait_durable`
//!   blocks until a *flush* — one storage append of the whole pending
//!   group as multi-record frames, one fsync — covers that sequence. The
//!   first waiter to find no flush in progress elects itself leader. If
//!   committers are still on their way — announced and not yet
//!   enqueued, or expected because the tail is still smaller than the
//!   last flushed group — it *holds*: it waits until they have enqueued
//!   (or withdrawn), but never longer than one mean flush time, so the
//!   hold costs at most the flush it saves. Then it drains the tail and
//!   flushes while later enqueuers keep adding to the next group;
//!   everyone else waits on a condvar and is woken with the result. An
//!   enqueue that finds the tail at its watermark leads a flush the same
//!   way (without holding: its own announcement is still outstanding),
//!   and [`Wal::flush_pending`] drives one explicitly for `sync` and the
//!   serial path; neither holds.
//!
//! The two paths have different failure contracts. A serial append rolls
//! its frame back on any post-append failure, so `Err` means "the log is
//! unchanged". A group flush cannot roll back: its records were enqueued
//! (and the corresponding commits made visible) before the flush ran, so
//! truncating them away would let the *next* group replay over a gap in
//! commit order. A failed flush therefore poisons the log: the leader
//! that ran it gets the I/O error itself (a full disk stays a typed
//! [`WalError::Io`]), every other waiter and every further enqueue gets
//! [`WalError::Poisoned`], and recovery at the next open repairs
//! whatever prefix actually reached storage.
//!
//! [`Wal::open`] is recovery: it scans the segments in sequence order,
//! replays every intact frame (group frames yield their records in
//! order, all-or-nothing), and stops at the first torn or corrupt frame.
//! The torn bytes are truncated away and any segments *after* the torn
//! point are dropped, so the surviving log is exactly the replayed
//! prefix and immediately appendable — a crash mid-append (or a bit flip
//! anywhere) costs the tail, never the log. A segment ends at end of
//! file or at zero padding: when every byte after the last intact frame
//! is zero (how [`crate::DirStorage`] pre-fills segments), that is a
//! clean end — trimmed, not torn, and the scan goes on to the next
//! segment. One nonzero byte anywhere after the last frame makes it torn.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::frame::{self, WalBatch, GROUP_CHUNK_RECORDS};
use crate::{io_err, FsyncPolicy, RetryPolicy, Storage, WalConfig, WalError};

const SEGMENT_MAGIC: &[u8; 8] = b"MVWALSEG";
const SEGMENT_HEADER_BYTES: u64 = 16;

fn segment_name(seq: u64) -> String {
    format!("wal-{seq:08}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Is `name` a WAL segment file (`wal-<seq>.seg`)? Lets callers that see
/// only a [`Storage`] listing — e.g. footprint accounting for a store
/// opened without a live [`Wal`] — recognize segment files without
/// duplicating the naming scheme.
pub fn is_segment_name(name: &str) -> bool {
    parse_segment_name(name).is_some()
}

#[derive(Debug, Clone)]
struct SegmentMeta {
    seq: u64,
    bytes: u64,
    batches: u64,
    /// `commit_ts` of the last batch in the segment (0 when empty).
    last_ts: u64,
}

impl SegmentMeta {
    fn name(&self) -> String {
        segment_name(self.seq)
    }
}

/// Where and why replay stopped early. The bytes at (and after) this
/// point were discarded by the open-time repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// The segment holding the first bad frame.
    pub segment: String,
    /// Byte offset of the first bad frame within that segment.
    pub offset: u64,
    /// What failed (`"torn or corrupt frame"`, `"bad segment header"`).
    pub reason: &'static str,
}

/// The result of scanning the log at [`Wal::open`] time.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every intact batch, in append (= `commit_ts`) order.
    pub batches: Vec<WalBatch>,
    /// `Some` when replay ended at a torn/corrupt frame instead of the
    /// log's true end; the damage has been truncated away.
    pub torn: Option<TornTail>,
    /// Segment files scanned.
    pub segments: usize,
    /// Segment files discarded because they sat beyond the torn point
    /// (or had an unreadable header).
    pub dropped_segments: usize,
    /// Bytes truncated off the torn segment.
    pub repaired_bytes: u64,
}

struct WalInner {
    /// Sealed segments, oldest first. Invariant: strictly increasing
    /// `seq`, all older than `cur`.
    sealed: Vec<SegmentMeta>,
    /// The active segment; appends land here.
    cur: SegmentMeta,
    appends_since_sync: u64,
    /// Reusable frame-encoding buffer.
    scratch: Vec<u8>,
    /// Set when a post-append failure could not be rolled back: the tail
    /// holds an unacknowledged frame we cannot remove, so every further
    /// append (which would write *past* it and make it replayable as a
    /// committed prefix) is refused with [`WalError::Poisoned`].
    poisoned: bool,
}

/// Cumulative group-commit counters, snapshotted by [`Wal::group_stats`]
/// (zero everywhere when only the serial [`Wal::append`] path is used).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Flushes that reached storage (each one storage append + fsync).
    pub groups: u64,
    /// Batches across all flushed groups.
    pub batches: u64,
    /// The largest single group flushed.
    pub max_group: u64,
    /// Total wall-clock nanoseconds spent inside flushes.
    pub flush_ns: u64,
    /// The slowest single flush observed.
    pub max_flush_ns: u64,
    /// Enqueues that found the tail at its watermark and had to block
    /// (saturation events: the commit rate outran the disk).
    pub blocked_enqueues: u64,
    /// Total wall-clock nanoseconds enqueues spent blocked at the
    /// watermark.
    pub blocked_ns: u64,
    /// Flushes a leader delayed for committers on their way to the tail:
    /// announced (see [`Wal::announce`]) and not yet enqueued, or
    /// expected because the tail was smaller than the last group.
    pub holds: u64,
    /// Total wall-clock nanoseconds leaders spent holding.
    pub hold_ns: u64,
}

impl GroupStats {
    /// Mean batches per flushed group (0.0 before the first flush).
    pub fn mean_group(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.batches as f64 / self.groups as f64
        }
    }
}

/// The pending group-commit tail: record bodies enqueued by committers
/// but not yet flushed. Guarded by its own mutex so enqueuers never
/// block behind an in-flight flush's I/O (which holds the segment
/// mutex, not this one).
struct GroupState {
    /// Concatenated [`WalBatch::encode_record`] bodies awaiting flush.
    bodies: Vec<u8>,
    /// End offset of each pending record within `bodies`.
    ends: Vec<usize>,
    /// `commit_ts` of the most recently enqueued record.
    last_ts: u64,
    /// Sequence number of the most recently enqueued record (1-based).
    enqueued: u64,
    /// Every record with sequence `<= durable` is flushed and fsynced.
    durable: u64,
    /// A leader is currently flushing the previously pending records.
    flushing: bool,
    /// A would-be leader is holding its flush for committers on their
    /// way; it leads the next flush, so other would-be leaders wait.
    holding: bool,
    /// Records in the last flushed group: how many committers were
    /// active, so how big the next group can be expected to get. The
    /// committers it acknowledged race back to the tail, and the first
    /// one back would otherwise flush before the others even announce.
    last_group: usize,
    /// Set when a flush failed: its commits were already visible, so the
    /// missing frames cannot be rolled back without creating a replay
    /// gap — all further enqueues and waits get [`WalError::Poisoned`].
    poisoned: bool,
    stats: GroupStats,
}

/// An append-only write-ahead log over a [`Storage`].
///
/// Thread-safe: appends serialize on an internal mutex (the transactional
/// layer serializes durable commits anyway; the mutex makes direct use
/// safe too). The group-commit path ([`Wal::announce`] /
/// [`CommitIntent::enqueue`] / [`Wal::wait_durable`]) adds concurrent batch coalescing on top — see
/// the module docs for the two paths' contracts.
pub struct Wal {
    storage: Arc<dyn Storage>,
    cfg: WalConfig,
    inner: Mutex<WalInner>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    /// Outstanding [`CommitIntent`]s. Incremented without a lock;
    /// decremented only under the group lock, which is what a holding
    /// leader checks it under. `Relaxed` throughout: it publishes no
    /// data, and a leader that misses a fresh increment merely skips a
    /// hold.
    announced: AtomicUsize,
    /// Disk-footprint red line (see [`Wal::set_redline`]): while set,
    /// the group tail's effective watermark drops to a single pending
    /// record, so committers feel backpressure at disk speed instead of
    /// growing the log unboundedly.
    redline: AtomicBool,
}

impl Wal {
    /// Open (or create) the log on `storage`, replaying what survives.
    ///
    /// This is crash recovery: intact frames come back in
    /// [`Replay::batches`]; a torn tail is reported in [`Replay::torn`]
    /// and repaired in place (truncated, later segments dropped) so the
    /// returned log is append-ready. Zero padding after a segment's last
    /// frame is trimmed the same way but is not a torn tail: nothing is
    /// reported and later segments replay.
    pub fn open(storage: Arc<dyn Storage>, cfg: WalConfig) -> Result<(Wal, Replay), WalError> {
        let mut seqs: Vec<u64> = storage
            .list()
            .map_err(|e| io_err("list", "<storage>", e))?
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .collect();
        seqs.sort_unstable();

        let mut replay = Replay::default();
        let mut sealed: Vec<SegmentMeta> = Vec::new();
        let mut stop_after: Option<usize> = None; // index into seqs of the torn segment

        for (i, &seq) in seqs.iter().enumerate() {
            if stop_after.is_some() {
                break;
            }
            let name = segment_name(seq);
            let data = storage.read(&name).map_err(|e| io_err("read", &name, e))?;
            replay.segments += 1;

            if data.len() < SEGMENT_HEADER_BYTES as usize
                || &data[..8] != SEGMENT_MAGIC
                || u64::from_le_bytes(data[8..16].try_into().expect("8 bytes")) != seq
            {
                // Unreadable header: nothing in this segment (or beyond
                // it) is trustworthy.
                replay.torn = Some(TornTail {
                    segment: name,
                    offset: 0,
                    reason: "bad segment header",
                });
                stop_after = Some(i);
                continue;
            }

            let mut meta = SegmentMeta {
                seq,
                bytes: data.len() as u64,
                batches: 0,
                last_ts: 0,
            };
            let mut at = SEGMENT_HEADER_BYTES as usize;
            while at < data.len() {
                let before = replay.batches.len();
                match WalBatch::decode_frames(&data, at, &mut replay.batches) {
                    Some(next) => {
                        meta.batches += (replay.batches.len() - before) as u64;
                        if let Some(last) = replay.batches.last() {
                            meta.last_ts = last.commit_ts;
                        }
                        at = next;
                    }
                    None if data[at..].iter().all(|&b| b == 0) => {
                        // Zero padding (see `DirStorage`): the segment's
                        // clean end. Trim it so appends land right after
                        // the last frame, and go on to the next segment.
                        storage
                            .truncate(&name, at as u64)
                            .map_err(|e| io_err("truncate", &name, e))?;
                        meta.bytes = at as u64;
                        break;
                    }
                    None => {
                        // Torn or corrupt: end replay at the last intact
                        // record and repair the file to match.
                        replay.torn = Some(TornTail {
                            segment: name.clone(),
                            offset: at as u64,
                            reason: "torn or corrupt frame",
                        });
                        replay.repaired_bytes = (data.len() - at) as u64;
                        storage
                            .truncate(&name, at as u64)
                            .map_err(|e| io_err("truncate", &name, e))?;
                        meta.bytes = at as u64;
                        stop_after = Some(i);
                        break;
                    }
                }
            }
            sealed.push(meta);
        }

        // Drop everything beyond the torn point: those frames are not
        // part of the recovered prefix.
        if let Some(i) = stop_after {
            for &seq in &seqs[i..] {
                let name = segment_name(seq);
                // The torn segment itself survives (truncated) if its
                // header was good; header-corrupt segments are removed.
                let keep = sealed.last().is_some_and(|m| m.seq == seq);
                if !keep {
                    storage
                        .remove(&name)
                        .map_err(|e| io_err("remove", &name, e))?;
                    replay.dropped_segments += 1;
                }
            }
        }

        // The newest surviving segment becomes the active one; with no
        // survivors, start a fresh log.
        let cur = match sealed.pop() {
            Some(meta) => meta,
            None => {
                let seq = seqs.last().map_or(1, |s| s + 1);
                Self::create_segment(&storage, &cfg.retry, seq)?
            }
        };

        let wal = Wal {
            storage,
            cfg,
            inner: Mutex::new(WalInner {
                sealed,
                cur,
                appends_since_sync: 0,
                scratch: Vec::new(),
                poisoned: false,
            }),
            group: Mutex::new(GroupState {
                bodies: Vec::new(),
                ends: Vec::new(),
                last_ts: 0,
                enqueued: 0,
                durable: 0,
                flushing: false,
                holding: false,
                last_group: 0,
                poisoned: false,
                stats: GroupStats::default(),
            }),
            group_cv: Condvar::new(),
            announced: AtomicUsize::new(0),
            redline: AtomicBool::new(false),
        };
        Ok((wal, replay))
    }

    fn lock(&self) -> MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn create_segment(
        storage: &Arc<dyn Storage>,
        retry: &RetryPolicy,
        seq: u64,
    ) -> Result<SegmentMeta, WalError> {
        let name = segment_name(seq);
        let mut header = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
        header.extend_from_slice(SEGMENT_MAGIC);
        header.extend_from_slice(&seq.to_le_bytes());
        append_retry(storage, retry, &name, 0, &header)?;
        Ok(SegmentMeta {
            seq,
            bytes: SEGMENT_HEADER_BYTES,
            batches: 0,
            last_ts: 0,
        })
    }

    /// Append one committed batch, honoring the fsync policy. On success
    /// the batch is in the log (and durable, under `FsyncPolicy::Always`);
    /// on `Err` the log is exactly as it was: partial bytes from failed
    /// append attempts are rolled back, and a frame whose *post*-append
    /// fsync or segment roll failed is truncated back off the segment. If
    /// even that rollback fails the log poisons itself — every further
    /// append returns [`WalError::Poisoned`] — so an unacknowledged frame
    /// can never end up buried under acknowledged ones (re-opening the
    /// log repairs and resumes).
    pub fn append(&self, batch: &WalBatch) -> Result<(), WalError> {
        // Drain any pending group first so a mixed serial/group workload
        // still reaches storage in commit order (no-op when the group
        // tail is empty, which is the pure-serial fast path).
        self.flush_pending()?;
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.poisoned {
            return Err(WalError::Poisoned);
        }
        inner.scratch.clear();
        batch.encode_frame(&mut inner.scratch);
        let name = inner.cur.name();
        let prev = inner.cur.clone();
        let prev_since_sync = inner.appends_since_sync;
        append_retry(
            &self.storage,
            &self.cfg.retry,
            &name,
            inner.cur.bytes,
            &inner.scratch,
        )?;
        inner.cur.bytes += inner.scratch.len() as u64;
        inner.cur.batches += 1;
        inner.cur.last_ts = batch.commit_ts;
        inner.appends_since_sync += 1;

        // The frame is in the log; fsync it per policy and roll the
        // segment if full. Any failure past this point must not surface
        // with the frame still appended (the caller treats `Err` as "the
        // commit did not happen", so a lingering frame would be
        // resurrected by the next recovery).
        let res = (|| -> Result<(), WalError> {
            let flush = match self.cfg.fsync {
                FsyncPolicy::Always => true,
                FsyncPolicy::EveryN(n) => inner.appends_since_sync >= n.max(1),
                FsyncPolicy::Off => false,
            };
            if flush {
                self.storage
                    .sync(&name)
                    .map_err(|e| io_err("sync", &name, e))?;
                inner.appends_since_sync = 0;
            }

            if inner.cur.bytes >= self.cfg.segment_bytes {
                // Seal and roll. Sync the sealed segment first so
                // truncation bookkeeping never outruns durability.
                if !flush && self.cfg.fsync != FsyncPolicy::Off {
                    self.storage
                        .sync(&name)
                        .map_err(|e| io_err("sync", &name, e))?;
                    inner.appends_since_sync = 0;
                }
                let next = Self::create_segment(&self.storage, &self.cfg.retry, inner.cur.seq + 1)?;
                let sealed = std::mem::replace(&mut inner.cur, next);
                inner.sealed.push(sealed);
            }
            Ok(())
        })();

        if let Err(e) = res {
            // Take the frame back off the segment (and remove any
            // partially created next segment) so `Err` means the log is
            // unchanged. If the cleanup itself fails the tail is in a
            // state we can no longer reason about: poison the log.
            let next_name = segment_name(prev.seq + 1);
            let cleanup = (|| -> io::Result<()> {
                self.storage.truncate(&name, prev.bytes)?;
                match self.storage.len(&next_name) {
                    Ok(_) => self.storage.remove(&next_name),
                    Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(()),
                    Err(err) => Err(err),
                }
            })();
            match cleanup {
                Ok(()) => {
                    inner.cur = prev;
                    // A successful mid-path sync may be forgotten here;
                    // that only schedules the next group fsync early,
                    // which is always safe.
                    inner.appends_since_sync = prev_since_sync;
                }
                Err(_) => inner.poisoned = true,
            }
            return Err(e);
        }
        Ok(())
    }

    /// Force an fsync of the active segment, first flushing any pending
    /// group-commit records and any pending `EveryN` group.
    pub fn sync(&self) -> Result<(), WalError> {
        self.flush_pending()?;
        let mut inner = self.lock();
        if inner.poisoned {
            return Err(WalError::Poisoned);
        }
        let name = inner.cur.name();
        self.storage
            .sync(&name)
            .map_err(|e| io_err("sync", &name, e))?;
        inner.appends_since_sync = 0;
        Ok(())
    }

    // ---- the group-commit path -------------------------------------

    fn group_lock(&self) -> MutexGuard<'_, GroupState> {
        self.group.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Is the pending tail at (or past) a configured high watermark?
    /// Under the red line any pending record counts as "at the
    /// watermark", so blocking enqueuers drain the tail themselves (one
    /// flush per commit — disk speed) and [`CommitIntent::try_enqueue`]
    /// reports [`WalError::Backpressure`].
    fn over_watermark(&self, g: &GroupState) -> bool {
        let batches = self.cfg.max_pending_batches;
        let bytes = self.cfg.max_pending_bytes;
        (batches > 0 && g.ends.len() >= batches)
            || (bytes > 0 && g.bodies.len() >= bytes)
            || (self.redline.load(Ordering::Relaxed) && !g.ends.is_empty())
    }

    /// Engage (or clear) the disk-footprint **red line** and return the
    /// previous state. While engaged, the group-commit tail admits at
    /// most one pending record: every further enqueue blocks behind a
    /// flush (or gets [`WalError::Backpressure`] from
    /// [`CommitIntent::try_enqueue`]), so commit throughput degrades to
    /// disk speed instead of outrunning a reclamation path that has stopped
    /// keeping up. The maintenance supervisor engages this when
    /// `wal_bytes` crosses its policy's red-line threshold and clears it
    /// once a checkpoint brings the footprint back down. Durability
    /// semantics are untouched — this only narrows the coalescing
    /// window.
    pub fn set_redline(&self, on: bool) -> bool {
        let was = self.redline.swap(on, Ordering::Relaxed);
        if was && !on {
            // Waiters blocked at the narrowed watermark can proceed.
            self.group_cv.notify_all();
        }
        was
    }

    /// Is the red line currently engaged?
    pub fn redline(&self) -> bool {
        self.redline.load(Ordering::Relaxed)
    }

    /// Announce a committer on its way to the group tail, *before* it
    /// takes whatever lock orders its commit. The returned
    /// [`CommitIntent`] is the only door onto the tail: its
    /// [`enqueue`](CommitIntent::enqueue) /
    /// [`try_enqueue`](CommitIntent::try_enqueue) consumes the
    /// announcement under the group lock the enqueue takes anyway, and
    /// dropping it unconsumed withdraws it.
    ///
    /// While announcements are outstanding, a would-be leader in
    /// [`Wal::wait_durable`] holds its flush — until every announced
    /// committer has enqueued or withdrawn, or one mean flush time has
    /// passed — so a committer already in its commit section joins this
    /// group instead of paying for the next one. (It holds the same way
    /// while the tail is smaller than the last flushed group: the
    /// committers that group acknowledged race back, and the first one
    /// back must not flush before the others have even announced.)
    pub fn announce(&self) -> CommitIntent<'_> {
        self.announced.fetch_add(1, Ordering::Relaxed);
        CommitIntent { wal: self }
    }

    /// [`CommitIntent::enqueue`]: wait out the watermark (leading a
    /// flush if none runs), then push.
    fn enqueue(&self, intent: CommitIntent<'_>, batch: &WalBatch) -> Result<u64, WalError> {
        let mut g = self.group_lock();
        if g.poisoned {
            return Err(WalError::Poisoned);
        }
        if self.over_watermark(&g) {
            g.stats.blocked_enqueues += 1;
            let t0 = Instant::now();
            let waited = loop {
                if g.poisoned {
                    break Err(WalError::Poisoned);
                }
                if !self.over_watermark(&g) {
                    break Ok(());
                }
                if !g.flushing {
                    // Self-promote: drain the tail ourselves rather than
                    // waiting for an ack-waiter who may never come. Never
                    // hold here — our own intent is still outstanding.
                    let res;
                    (g, res) = self.lead_flush(g);
                    if res.is_err() {
                        break res;
                    }
                    continue;
                }
                g = self.group_cv.wait(g).unwrap_or_else(|e| e.into_inner());
            };
            g.stats.blocked_ns += t0.elapsed().as_nanos() as u64;
            waited?;
        }
        Ok(self.push_record(g, intent, batch))
    }

    /// [`CommitIntent::try_enqueue`]: refuse at the watermark.
    fn try_enqueue(&self, intent: CommitIntent<'_>, batch: &WalBatch) -> Result<u64, WalError> {
        let mut g = self.group_lock();
        if g.poisoned {
            return Err(WalError::Poisoned);
        }
        if self.over_watermark(&g) {
            g.stats.blocked_enqueues += 1;
            return Err(WalError::Backpressure);
        }
        Ok(self.push_record(g, intent, batch))
    }

    /// The enqueue tail end: encode onto the pending tail (the caller
    /// has already cleared poisoning and the watermark), consume the
    /// intent, and wake a leader holding for it.
    fn push_record(
        &self,
        mut g: MutexGuard<'_, GroupState>,
        intent: CommitIntent<'_>,
        batch: &WalBatch,
    ) -> u64 {
        batch.encode_record(&mut g.bodies);
        let end = g.bodies.len();
        g.ends.push(end);
        g.last_ts = batch.commit_ts;
        g.enqueued += 1;
        let seq = g.enqueued;
        self.announced.fetch_sub(1, Ordering::Relaxed);
        std::mem::forget(intent);
        drop(g);
        // Wake a leader holding for this record.
        self.group_cv.notify_all();
        seq
    }

    /// Block until every record enqueued at or before `seq` is flushed
    /// and fsynced. The first waiter to find no flush in progress elects
    /// itself **leader**; if committers are on their way — announced (see
    /// [`Wal::announce`]), or expected because the tail is smaller than
    /// the last flushed group — it first holds, at most one mean flush
    /// time, for them to enqueue, then performs the flush (one multi-record
    /// append, one fsync) for the whole pending group. The others wait on
    /// a condvar and wake with the result. A flush that fails after the
    /// record was already enqueued cannot be rolled back (see the module
    /// docs): the leader that ran it gets its I/O error, every other
    /// waiter [`WalError::Poisoned`].
    pub fn wait_durable(&self, seq: u64) -> Result<(), WalError> {
        self.wait_group(seq, true)
    }

    fn wait_group(&self, seq: u64, may_hold: bool) -> Result<(), WalError> {
        let mut g = self.group_lock();
        loop {
            if g.durable >= seq {
                return Ok(());
            }
            if g.poisoned {
                return Err(WalError::Poisoned);
            }
            if g.flushing || g.holding {
                g = self.group_cv.wait(g).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            if may_hold {
                g = self.hold(g, seq);
                // A blocked enqueue may have self-promoted meanwhile. The
                // hold ends without this waiter leading a flush: wake
                // whoever went to sleep behind `holding`.
                if g.flushing || g.durable >= seq || g.poisoned {
                    self.group_cv.notify_all();
                    continue;
                }
            }
            let res;
            (g, res) = self.lead_flush(g);
            res?;
        }
    }

    /// Are committers on their way to the tail: announced, or (judging
    /// by the last group) acknowledged and not yet back?
    fn on_their_way(&self, g: &GroupState) -> bool {
        self.announced.load(Ordering::Relaxed) > 0 || g.ends.len() < g.last_group
    }

    /// A would-be leader's hold: while committers are on their way, wait
    /// for them to enqueue — until none is left, a flush starts
    /// elsewhere, or one mean flush time has passed, so holding never
    /// costs more than the flush it saves. No flush yet means no
    /// estimate: no hold.
    fn hold<'a>(
        &'a self,
        mut g: MutexGuard<'a, GroupState>,
        seq: u64,
    ) -> MutexGuard<'a, GroupState> {
        if g.stats.groups == 0 || !self.on_their_way(&g) {
            return g;
        }
        let budget = Duration::from_nanos(g.stats.flush_ns / g.stats.groups);
        let t0 = Instant::now();
        g.holding = true;
        while self.on_their_way(&g) && !g.flushing && !g.poisoned && g.durable < seq {
            let Some(left) = budget.checked_sub(t0.elapsed()) else {
                break;
            };
            g = self
                .group_cv
                .wait_timeout(g, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        g.holding = false;
        g.stats.holds += 1;
        g.stats.hold_ns += t0.elapsed().as_nanos() as u64;
        g
    }

    /// Flush every record currently pending on the group tail (leading
    /// the flush, or waiting for an in-progress one that covers them).
    /// Ok and a no-op when nothing is pending.
    pub fn flush_pending(&self) -> Result<(), WalError> {
        let target = {
            let g = self.group_lock();
            if g.poisoned {
                return Err(WalError::Poisoned);
            }
            g.enqueued
        };
        self.wait_group(target, false)
    }

    /// Records enqueued on the group tail but not yet flushed.
    pub fn pending_batches(&self) -> usize {
        self.group_lock().ends.len()
    }

    /// The highest sequence number covered by a completed group flush
    /// (compare with the sequence from [`CommitIntent::enqueue`]).
    pub fn durable_seq(&self) -> u64 {
        self.group_lock().durable
    }

    /// Cumulative group-commit counters.
    pub fn group_stats(&self) -> GroupStats {
        self.group_lock().stats
    }

    /// Become the leader: take the pending records, flush them outside
    /// the group lock, publish the outcome, wake everyone. A failed flush
    /// poisons the group state and hands its error to this leader alone.
    fn lead_flush<'a>(
        &'a self,
        mut g: MutexGuard<'a, GroupState>,
    ) -> (MutexGuard<'a, GroupState>, Result<(), WalError>) {
        debug_assert!(!g.flushing);
        if g.ends.is_empty() {
            return (g, Ok(()));
        }
        g.flushing = true;
        let bodies = std::mem::take(&mut g.bodies);
        let ends = std::mem::take(&mut g.ends);
        let upto = g.enqueued;
        let last_ts = g.last_ts;
        drop(g);

        let t0 = Instant::now();
        let res = self.flush_group(&bodies, &ends, last_ts);
        let flush_ns = t0.elapsed().as_nanos() as u64;

        let mut g = self.group_lock();
        g.flushing = false;
        g.last_group = ends.len();
        match res {
            Ok(()) => {
                g.durable = upto;
                g.stats.groups += 1;
                g.stats.batches += ends.len() as u64;
                g.stats.max_group = g.stats.max_group.max(ends.len() as u64);
                g.stats.flush_ns += flush_ns;
                g.stats.max_flush_ns = g.stats.max_flush_ns.max(flush_ns);
            }
            Err(_) => g.poisoned = true,
        }
        self.group_cv.notify_all();
        (g, res)
    }

    /// The flush I/O: frame the pending record bodies (single-record
    /// frames for lone commits, multi-record group frames otherwise,
    /// chunked at [`GROUP_CHUNK_RECORDS`]), append them in one storage
    /// write, fsync once, and roll the segment if it filled. Serializes
    /// with the serial append path on the segment mutex. Any failure
    /// poisons the segment state (see the module docs).
    fn flush_group(&self, bodies: &[u8], ends: &[usize], last_ts: u64) -> Result<(), WalError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.poisoned {
            return Err(WalError::Poisoned);
        }
        inner.scratch.clear();
        let mut first = 0usize; // record index where the current chunk starts
        let mut first_byte = 0usize;
        while first < ends.len() {
            let last = (first + GROUP_CHUNK_RECORDS).min(ends.len());
            let chunk = &bodies[first_byte..ends[last - 1]];
            if last - first == 1 {
                frame::encode_single_frame_raw(chunk, &mut inner.scratch);
            } else {
                frame::encode_group_frame_raw(chunk, (last - first) as u32, &mut inner.scratch);
            }
            first_byte = ends[last - 1];
            first = last;
        }

        let name = inner.cur.name();
        let res = (|| -> Result<(), WalError> {
            append_retry(
                &self.storage,
                &self.cfg.retry,
                &name,
                inner.cur.bytes,
                &inner.scratch,
            )?;
            inner.cur.bytes += inner.scratch.len() as u64;
            inner.cur.batches += ends.len() as u64;
            inner.cur.last_ts = last_ts;
            if self.cfg.fsync != FsyncPolicy::Off {
                self.storage
                    .sync(&name)
                    .map_err(|e| io_err("sync", &name, e))?;
                inner.appends_since_sync = 0;
            }
            if inner.cur.bytes >= self.cfg.segment_bytes {
                let next = Self::create_segment(&self.storage, &self.cfg.retry, inner.cur.seq + 1)?;
                let sealed = std::mem::replace(&mut inner.cur, next);
                inner.sealed.push(sealed);
            }
            Ok(())
        })();
        if res.is_err() {
            // Unlike the serial path there is nothing to roll back to:
            // the group's commits are already visible, so removing their
            // frames would leave a replay-order gap. Refuse everything.
            inner.poisoned = true;
        }
        res
    }

    /// Drop every sealed segment whose batches are all covered by a
    /// checkpoint at `commit_ts` (i.e. whose last batch has
    /// `commit_ts <= ts`). The active segment always survives. Returns
    /// the number of segments removed.
    pub fn truncate_before(&self, commit_ts: u64) -> Result<usize, WalError> {
        let mut inner = self.lock();
        let mut removed = 0;
        while let Some(seg) = inner.sealed.first() {
            if seg.batches > 0 && seg.last_ts > commit_ts {
                break;
            }
            let name = seg.name();
            self.storage
                .remove(&name)
                .map_err(|e| io_err("remove", &name, e))?;
            inner.sealed.remove(0);
            removed += 1;
        }
        Ok(removed)
    }

    /// Segment files currently in the log (sealed + active).
    pub fn segments(&self) -> usize {
        self.lock().sealed.len() + 1
    }

    /// Total bytes across all segments (headers included).
    pub fn bytes(&self) -> u64 {
        let inner = self.lock();
        inner.sealed.iter().map(|s| s.bytes).sum::<u64>() + inner.cur.bytes
    }
}

/// A committer's announcement that it is on its way to the group-commit
/// tail, from [`Wal::announce`]. Enqueueing through it consumes the
/// announcement; dropping it unconsumed (the commit aborted, or the
/// enqueue was refused) withdraws it and wakes a leader holding for it.
#[must_use = "an intent is withdrawn as soon as it is dropped"]
pub struct CommitIntent<'a> {
    wal: &'a Wal,
}

impl CommitIntent<'_> {
    /// Enqueue one committed batch on the group-commit tail and return
    /// its sequence number for [`Wal::wait_durable`].
    ///
    /// The record enters the commit-ordered pending queue immediately —
    /// this is the "logged" half of logged-before-visible — but is *not*
    /// durable until a flush covers it. With the tail under its
    /// watermark this never blocks on I/O: a flush in progress proceeds
    /// concurrently, and this record simply joins the next group. At the
    /// watermark ([`WalConfig::max_pending_batches`] /
    /// [`WalConfig::max_pending_bytes`]) the call blocks until a flush
    /// drains the tail — electing itself flush leader if no flush is in
    /// progress, so a lone committer that never waits its acks still
    /// makes progress (the bounded queue can never deadlock on a missing
    /// leader; the flush takes only the group and segment locks, never
    /// the caller's commit lock).
    pub fn enqueue(self, batch: &WalBatch) -> Result<u64, WalError> {
        self.wal.enqueue(self, batch)
    }

    /// Non-blocking [`CommitIntent::enqueue`]: at the watermark this
    /// returns [`WalError::Backpressure`] immediately (nothing enqueued,
    /// nothing blocked, the intent withdrawn) instead of waiting for a
    /// flush to drain the tail.
    pub fn try_enqueue(self, batch: &WalBatch) -> Result<u64, WalError> {
        self.wal.try_enqueue(self, batch)
    }
}

impl Drop for CommitIntent<'_> {
    fn drop(&mut self) {
        // Only reached unconsumed (`push_record` forgets the intent).
        // Withdraw under the group lock so a leader cannot check the
        // count and then sleep past this wake.
        let g = self.wal.group_lock();
        self.wal.announced.fetch_sub(1, Ordering::Relaxed);
        let holding = g.holding;
        drop(g);
        if holding {
            self.wal.group_cv.notify_all();
        }
    }
}

/// Append with bounded retry and partial-write rollback: transient
/// failures back off exponentially; before each retry any bytes the
/// failed attempt landed are truncated away so a retried frame can never
/// corrupt the middle of the log. `base` is the file's length before the
/// append — the log tracks it, so the storage is only asked for a length
/// after a failure.
fn append_retry(
    storage: &Arc<dyn Storage>,
    retry: &RetryPolicy,
    name: &str,
    base: u64,
    data: &[u8],
) -> Result<(), WalError> {
    let mut backoff = retry.initial_backoff;
    for attempt in 0.. {
        match storage.append(name, data) {
            Ok(()) => return Ok(()),
            Err(e) => {
                // Roll back partial bytes; a failed rollback (storage
                // dead) leaves a torn tail, which recovery handles.
                if let Ok(len) = storage.len(name) {
                    if len > base {
                        let _ = storage.truncate(name, base);
                    }
                }
                if attempt >= retry.attempts {
                    return Err(io_err("append", name, e));
                }
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
        }
    }
    unreachable!("loop returns on success or exhausted retries")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::WalOp;
    use crate::{FaultPlan, FaultStorage};

    fn batch(ts: u64) -> WalBatch {
        WalBatch {
            tx_id: ts,
            commit_ts: ts,
            snapshot_ts: ts.saturating_sub(1),
            ops: vec![WalOp::Put(ts.to_le_bytes().to_vec(), vec![0xAB; 16])],
        }
    }

    fn open_mem(storage: &FaultStorage, cfg: WalConfig) -> (Wal, Replay) {
        Wal::open(Arc::new(storage.clone()), cfg).unwrap()
    }

    /// A disk whose every fsync takes 2 ms.
    fn slow_disk() -> FaultStorage {
        FaultStorage::new(
            FaultPlan {
                sync_latency: Duration::from_millis(2),
                ..FaultPlan::default()
            },
            41,
        )
    }

    /// A log over [`slow_disk`] with one flush already behind it, so a
    /// leader has a mean flush time to hold for. Returns that mean.
    fn open_slow_calibrated(cfg: WalConfig) -> (Wal, Duration) {
        let (wal, _) = open_mem(&slow_disk(), cfg);
        let seq = wal.announce().enqueue(&batch(1)).unwrap();
        wal.wait_durable(seq).unwrap();
        let g = wal.group_stats();
        assert_eq!((g.groups, g.holds), (1, 0), "nothing to hold for yet");
        (wal, Duration::from_nanos(g.flush_ns))
    }

    /// Block until some leader is holding its flush.
    fn await_holding(wal: &Wal) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !wal.group_lock().holding {
            assert!(Instant::now() < deadline, "no leader ever held");
            std::thread::yield_now();
        }
    }

    #[test]
    fn append_and_reopen_replays_in_order() {
        let storage = FaultStorage::unfaulted();
        let (wal, _) = open_mem(&storage, WalConfig::default());
        for ts in 1..=10 {
            wal.append(&batch(ts)).unwrap();
        }
        drop(wal);
        let (_, replay) = open_mem(&storage, WalConfig::default());
        assert_eq!(replay.batches.len(), 10);
        assert!(replay.torn.is_none());
        let ts: Vec<u64> = replay.batches.iter().map(|b| b.commit_ts).collect();
        assert_eq!(ts, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn segments_rotate_and_truncate() {
        let storage = FaultStorage::unfaulted();
        let cfg = WalConfig {
            segment_bytes: 128, // tiny: force rotation every couple frames
            ..WalConfig::default()
        };
        let (wal, _) = open_mem(&storage, cfg.clone());
        for ts in 1..=20 {
            wal.append(&batch(ts)).unwrap();
        }
        assert!(wal.segments() > 2, "rotation never happened");
        let before = wal.segments();
        // A checkpoint at ts=10 retires every segment fully below it.
        let removed = wal.truncate_before(10).unwrap();
        assert!(removed > 0, "no segment retired");
        assert_eq!(wal.segments(), before - removed);
        // Replay after truncation: only batches beyond the dropped
        // segments remain, still contiguous and ending at 20.
        drop(wal);
        let (_, replay) = open_mem(&storage, cfg);
        let ts: Vec<u64> = replay.batches.iter().map(|b| b.commit_ts).collect();
        assert_eq!(*ts.last().unwrap(), 20);
        let first = ts[0];
        assert!(first <= 11, "truncation dropped uncovered batches: {ts:?}");
        assert_eq!(ts, (first..=20).collect::<Vec<_>>(), "gap after truncate");
    }

    #[test]
    fn redline_narrows_the_watermark_to_one_record() {
        let storage = FaultStorage::unfaulted();
        // Roomy watermark: without the red line, dozens of records fit.
        let cfg = WalConfig {
            max_pending_batches: 64,
            ..WalConfig::default()
        };
        let (wal, _) = open_mem(&storage, cfg);
        assert!(!wal.set_redline(true), "previously off");
        assert!(wal.redline());
        wal.announce().enqueue(&batch(1)).unwrap(); // an empty tail always admits one
        let err = wal.announce().try_enqueue(&batch(2)).unwrap_err();
        assert!(matches!(err, WalError::Backpressure));
        // A blocking enqueue self-promotes to flush leader and proceeds
        // at disk speed rather than deadlocking.
        let seq = wal.announce().enqueue(&batch(2)).unwrap();
        wal.wait_durable(seq).unwrap();
        assert!(wal.group_stats().blocked_enqueues >= 1);
        // Clearing the red line restores the configured watermark.
        assert!(wal.set_redline(false));
        wal.announce().enqueue(&batch(3)).unwrap();
        wal.announce().try_enqueue(&batch(4)).unwrap();
        wal.flush_pending().unwrap();
        assert_eq!(wal.durable_seq(), 4);
    }

    #[test]
    fn segment_name_recognizer() {
        assert!(is_segment_name("wal-00000001.seg"));
        assert!(is_segment_name(&segment_name(42)));
        assert!(!is_segment_name("wal-1.seg"));
        assert!(!is_segment_name("ckpt-0000000000000001.ck"));
        assert!(!is_segment_name("wal-0000000a.seg"));
    }

    #[test]
    fn torn_tail_truncates_and_log_stays_appendable() {
        let storage = FaultStorage::unfaulted();
        let (wal, _) = open_mem(&storage, WalConfig::default());
        for ts in 1..=5 {
            wal.append(&batch(ts)).unwrap();
        }
        drop(wal);
        // Injure the tail directly: append half a frame's worth of junk.
        storage.append(&segment_name(1), &[0x77; 9]).unwrap();
        let (wal, replay) = open_mem(&storage, WalConfig::default());
        assert_eq!(replay.batches.len(), 5, "intact prefix survives");
        let torn = replay.torn.expect("tail was torn");
        assert_eq!(torn.reason, "torn or corrupt frame");
        assert_eq!(replay.repaired_bytes, 9);
        // The log is usable immediately: append, reopen, all clean.
        wal.append(&batch(6)).unwrap();
        drop(wal);
        let (_, replay) = open_mem(&storage, WalConfig::default());
        assert!(replay.torn.is_none());
        assert_eq!(replay.batches.len(), 6);
    }

    #[test]
    fn corruption_mid_log_drops_later_segments() {
        let storage = FaultStorage::unfaulted();
        let cfg = WalConfig {
            segment_bytes: 128,
            ..WalConfig::default()
        };
        let (wal, _) = open_mem(&storage, cfg.clone());
        for ts in 1..=20 {
            wal.append(&batch(ts)).unwrap();
        }
        let segments = wal.segments();
        assert!(segments >= 3);
        drop(wal);
        // Flip a byte in the middle of segment 2's first frame payload.
        let name = segment_name(2);
        let data = storage.read(&name).unwrap();
        let mut patched = data.clone();
        patched[SEGMENT_HEADER_BYTES as usize + 12] ^= 0xFF;
        storage.remove(&name).unwrap();
        storage.append(&name, &patched).unwrap();

        let (_, replay) = open_mem(&storage, cfg);
        let torn = replay.torn.expect("corruption detected");
        assert_eq!(torn.segment, name);
        assert!(
            replay.dropped_segments > 0,
            "segments beyond the corruption must go"
        );
        // Replay is exactly the prefix before the bad frame.
        let ts: Vec<u64> = replay.batches.iter().map(|b| b.commit_ts).collect();
        assert_eq!(ts, (1..=ts.len() as u64).collect::<Vec<_>>());
        assert!((ts.len() as u64) < 20);
    }

    /// Append `tail` to `name`, then zeros up to the next 64 KiB
    /// boundary: what a zero-padded segment looks like after a restart.
    fn pad_segment(storage: &FaultStorage, name: &str, tail: &[u8]) {
        storage.append(name, tail).unwrap();
        let len = storage.len(name).unwrap();
        let zeros = len.next_multiple_of(64 << 10) - len;
        storage.append(name, &vec![0; zeros as usize]).unwrap();
    }

    #[test]
    fn zero_padded_segments_reopen_clean_and_keep_later_segments() {
        let storage = FaultStorage::unfaulted();
        let cfg = WalConfig {
            segment_bytes: 128,
            ..WalConfig::default()
        };
        let (wal, _) = open_mem(&storage, cfg.clone());
        for ts in 1..=20 {
            wal.append(&batch(ts)).unwrap();
        }
        let (segments, bytes) = (wal.segments(), wal.bytes());
        assert!(segments >= 3);
        drop(wal);
        for name in storage.list().unwrap() {
            pad_segment(&storage, &name, &[]);
        }

        let (wal, replay) = open_mem(&storage, cfg.clone());
        assert!(replay.torn.is_none(), "padding is not a torn tail");
        assert_eq!((replay.dropped_segments, replay.repaired_bytes), (0, 0));
        let ts: Vec<u64> = replay.batches.iter().map(|b| b.commit_ts).collect();
        assert_eq!(ts, (1..=20).collect::<Vec<_>>(), "every segment replays");
        assert_eq!((wal.segments(), wal.bytes()), (segments, bytes));
        // The padding is trimmed: the next frame follows the last one.
        wal.append(&batch(21)).unwrap();
        drop(wal);
        let (_, replay) = open_mem(&storage, cfg);
        assert!(replay.torn.is_none());
        assert_eq!(replay.batches.len(), 21);
    }

    #[test]
    fn a_zero_frame_head_then_a_nonzero_byte_is_torn() {
        let storage = FaultStorage::unfaulted();
        let cfg = WalConfig {
            segment_bytes: 128,
            ..WalConfig::default()
        };
        let (wal, _) = open_mem(&storage, cfg.clone());
        for ts in 1..=20 {
            wal.append(&batch(ts)).unwrap();
        }
        drop(wal);
        // Segment 1 is cleanly padded. Segment 2's padding holds eight
        // zero bytes that read as a frame head (length 0, CRC 0), then
        // one byte no padding holds.
        let second = segment_name(2);
        let intact = storage.len(&second).unwrap();
        pad_segment(&storage, &segment_name(1), &[]);
        pad_segment(&storage, &second, &[0, 0, 0, 0, 0, 0, 0, 0, 1]);

        let (_, replay) = open_mem(&storage, cfg);
        let torn = replay.torn.expect("a nonzero byte after the frames");
        assert_eq!(
            (torn.segment.as_str(), torn.offset, torn.reason),
            (second.as_str(), intact, "torn or corrupt frame")
        );
        assert!(replay.dropped_segments > 0, "later segments must go");
        let ts: Vec<u64> = replay.batches.iter().map(|b| b.commit_ts).collect();
        assert_eq!(ts, (1..=ts.len() as u64).collect::<Vec<_>>());
        assert!(ts.len() < 20);
    }

    #[test]
    fn transient_append_failures_are_retried() {
        let storage = FaultStorage::new(
            FaultPlan {
                transient_append_failures: 2,
                ..FaultPlan::default()
            },
            11,
        );
        // Even the segment-header append hits the transient faults.
        let (wal, _) = Wal::open(Arc::new(storage.clone()), WalConfig::default()).unwrap();
        wal.append(&batch(1)).unwrap();
        drop(wal);
        let (_, replay) = open_mem(&storage, WalConfig::default());
        assert_eq!(replay.batches.len(), 1);
        assert!(replay.torn.is_none());
    }

    #[test]
    fn exhausted_retries_surface_typed_io_error() {
        let storage = FaultStorage::new(
            FaultPlan {
                transient_append_failures: u64::MAX,
                ..FaultPlan::default()
            },
            13,
        );
        let err = match Wal::open(Arc::new(storage), WalConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("open succeeded through a permanently failing storage"),
        };
        match err {
            WalError::Io { op: "append", .. } => {}
            other => panic!("expected append Io error, got {other}"),
        }
    }

    #[test]
    fn failed_fsync_rolls_the_frame_back_off_the_log() {
        // The frame append succeeds but its fsync fails: `append` must
        // return Err with the log *unchanged*, so the caller may safely
        // reuse the commit_ts — the failed frame must never replay.
        let storage = FaultStorage::new(
            FaultPlan {
                transient_sync_failures: 1,
                ..FaultPlan::default()
            },
            19,
        );
        let (wal, _) = open_mem(&storage, WalConfig::default());
        let err = wal
            .append(&batch(1))
            .expect_err("sync was injected to fail");
        assert!(matches!(err, WalError::Io { op: "sync", .. }), "{err}");
        // Same commit_ts again, as the transactional layer would do.
        wal.append(&batch(1)).unwrap();
        drop(wal);
        let (_, replay) = open_mem(&storage, WalConfig::default());
        assert!(replay.torn.is_none());
        let ts: Vec<u64> = replay.batches.iter().map(|b| b.commit_ts).collect();
        assert_eq!(ts, vec![1], "exactly one ts=1 frame survives");
    }

    #[test]
    fn unrollbackable_fsync_failure_poisons_the_log() {
        // The fsync crashes the storage, so the rollback truncate fails
        // too: the log must refuse all further appends (the orphan frame
        // cannot be buried under acknowledged ones).
        let storage = FaultStorage::new(
            FaultPlan {
                crash_at_sync: Some(0),
                ..FaultPlan::default()
            },
            23,
        );
        let (wal, _) = open_mem(&storage, WalConfig::default());
        let err = wal.append(&batch(1)).expect_err("sync crashes");
        assert!(matches!(err, WalError::Io { op: "sync", .. }), "{err}");
        assert!(matches!(wal.append(&batch(1)), Err(WalError::Poisoned)));
        assert!(matches!(wal.sync(), Err(WalError::Poisoned)));
        // Recovery repairs: at most the one orphan frame replays, and the
        // reopened log accepts appends again.
        let view = storage.crash_view();
        let (wal, replay) = open_mem(&view, WalConfig::default());
        assert!(replay.batches.len() <= 1);
        wal.append(&batch(replay.batches.len() as u64 + 1)).unwrap();
    }

    #[test]
    fn group_enqueue_coalesces_and_replays_in_order() {
        let storage = FaultStorage::unfaulted();
        let (wal, _) = open_mem(&storage, WalConfig::default());
        // Enqueue a burst before anyone waits: one flush, one group.
        let mut seqs = Vec::new();
        for ts in 1..=6 {
            seqs.push(wal.announce().enqueue(&batch(ts)).unwrap());
        }
        assert_eq!(wal.pending_batches(), 6);
        assert_eq!(wal.durable_seq(), 0);
        wal.wait_durable(*seqs.last().unwrap()).unwrap();
        assert_eq!(wal.pending_batches(), 0);
        assert_eq!(wal.durable_seq(), 6);
        let stats = wal.group_stats();
        assert_eq!(stats.groups, 1, "one coalesced flush");
        assert_eq!(stats.batches, 6);
        assert_eq!(stats.max_group, 6);
        // A lone enqueue flushes as an ordinary single-record frame.
        let s = wal.announce().enqueue(&batch(7)).unwrap();
        wal.wait_durable(s).unwrap();
        assert_eq!(wal.group_stats().groups, 2);
        drop(wal);
        let (_, replay) = open_mem(&storage, WalConfig::default());
        let ts: Vec<u64> = replay.batches.iter().map(|b| b.commit_ts).collect();
        assert_eq!(ts, (1..=7).collect::<Vec<_>>());
        assert!(replay.torn.is_none());
    }

    #[test]
    fn group_flush_is_one_sync_per_group() {
        let storage = FaultStorage::unfaulted();
        let (wal, _) = open_mem(&storage, WalConfig::default());
        let syncs_before = storage.syncs();
        for ts in 1..=8 {
            wal.announce().enqueue(&batch(ts)).unwrap();
        }
        wal.flush_pending().unwrap();
        assert_eq!(
            storage.syncs() - syncs_before,
            1,
            "eight commits must share one fsync"
        );
    }

    #[test]
    fn concurrent_group_waiters_all_ack() {
        let storage = FaultStorage::unfaulted();
        let (wal, _) = open_mem(&storage, WalConfig::default());
        let wal = Arc::new(wal);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..25u64 {
                        let seq = wal.announce().enqueue(&batch(t * 1000 + i + 1)).unwrap();
                        wal.wait_durable(seq).unwrap();
                    }
                });
            }
        });
        assert_eq!(wal.durable_seq(), 100);
        let stats = wal.group_stats();
        assert_eq!(stats.batches, 100);
        assert!(stats.groups <= 100);
        drop(wal);
        let (_, replay) = open_mem(&storage, WalConfig::default());
        assert_eq!(replay.batches.len(), 100, "every acked record replays");
    }

    #[test]
    fn failed_group_flush_poisons_instead_of_rolling_back() {
        let storage = FaultStorage::new(
            FaultPlan {
                crash_at_sync: Some(0),
                ..FaultPlan::default()
            },
            31,
        );
        let (wal, _) = open_mem(&storage, WalConfig::default());
        let s1 = wal.announce().enqueue(&batch(1)).unwrap();
        let s2 = wal.announce().enqueue(&batch(2)).unwrap();
        // The leader that ran the failing fsync gets its cause; everyone
        // after it gets the poison.
        let err = wal.wait_durable(s1).expect_err("sync crashes");
        assert!(matches!(err, WalError::Io { op: "sync", .. }), "{err}");
        assert!(matches!(wal.wait_durable(s2), Err(WalError::Poisoned)));
        // Everything downstream refuses too: no frame can be buried
        // after the group whose durability was never acknowledged.
        assert!(matches!(
            wal.announce().enqueue(&batch(3)),
            Err(WalError::Poisoned)
        ));
        assert!(matches!(wal.append(&batch(3)), Err(WalError::Poisoned)));
        // Recovery repairs: at most the crashed group replays, and the
        // reopened log accepts work again.
        let view = storage.crash_view();
        let (wal, replay) = open_mem(&view, WalConfig::default());
        assert!(replay.batches.len() <= 2);
        wal.append(&batch(replay.batches.len() as u64 + 1)).unwrap();
    }

    #[test]
    fn group_flush_rolls_segments() {
        let storage = FaultStorage::unfaulted();
        let cfg = WalConfig {
            segment_bytes: 128,
            ..WalConfig::default()
        };
        let (wal, _) = open_mem(&storage, cfg.clone());
        for round in 0..10u64 {
            for i in 0..4u64 {
                wal.announce().enqueue(&batch(round * 4 + i + 1)).unwrap();
            }
            wal.flush_pending().unwrap();
        }
        assert!(wal.segments() > 2, "group flushes must roll segments");
        drop(wal);
        let (_, replay) = open_mem(&storage, cfg);
        let ts: Vec<u64> = replay.batches.iter().map(|b| b.commit_ts).collect();
        assert_eq!(ts, (1..=40).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_tail_blocks_enqueue_and_self_promotes() {
        let storage = FaultStorage::unfaulted();
        let cfg = WalConfig {
            max_pending_batches: 4,
            ..WalConfig::default()
        };
        let (wal, _) = open_mem(&storage, cfg);
        // A lone committer that never waits its acks: the 5th enqueue
        // hits the watermark and must flush the tail itself rather than
        // deadlock waiting for an ack-waiter that never comes.
        for ts in 1..=12 {
            wal.announce().enqueue(&batch(ts)).unwrap();
        }
        let stats = wal.group_stats();
        assert!(
            stats.blocked_enqueues >= 2,
            "12 enqueues over a 4-deep tail must block: {stats:?}"
        );
        assert!(stats.groups >= 2, "blocked enqueues must have led flushes");
        assert!(wal.pending_batches() <= 4, "tail stayed bounded");
        wal.flush_pending().unwrap();
        drop(wal);
        let (_, replay) = open_mem(&storage, WalConfig::default());
        let ts: Vec<u64> = replay.batches.iter().map(|b| b.commit_ts).collect();
        assert_eq!(
            ts,
            (1..=12).collect::<Vec<_>>(),
            "nothing lost or reordered"
        );
    }

    #[test]
    fn try_enqueue_returns_backpressure_at_the_watermark() {
        let storage = FaultStorage::unfaulted();
        let cfg = WalConfig {
            max_pending_batches: 2,
            ..WalConfig::default()
        };
        let (wal, _) = open_mem(&storage, cfg);
        wal.announce().try_enqueue(&batch(1)).unwrap();
        wal.announce().try_enqueue(&batch(2)).unwrap();
        assert!(matches!(
            wal.announce().try_enqueue(&batch(3)),
            Err(WalError::Backpressure)
        ));
        assert_eq!(wal.pending_batches(), 2, "refused record not enqueued");
        // Draining the tail re-opens admission.
        wal.flush_pending().unwrap();
        wal.announce().try_enqueue(&batch(3)).unwrap();
        wal.flush_pending().unwrap();
        assert!(wal.group_stats().blocked_enqueues >= 1);
        drop(wal);
        let (_, replay) = open_mem(&storage, WalConfig::default());
        let ts: Vec<u64> = replay.batches.iter().map(|b| b.commit_ts).collect();
        assert_eq!(ts, vec![1, 2, 3]);
    }

    #[test]
    fn a_blocked_enqueue_that_leads_a_failing_flush_gets_its_cause() {
        let storage = FaultStorage::new(
            FaultPlan {
                crash_at_sync: Some(0),
                ..FaultPlan::default()
            },
            37,
        );
        let (wal, _) = open_mem(
            &storage,
            WalConfig {
                max_pending_batches: 1,
                ..WalConfig::default()
            },
        );
        let s1 = wal.announce().enqueue(&batch(1)).unwrap();
        // At the watermark: this enqueue leads the flush of record 1,
        // whose fsync fails. Its own record never enters the tail.
        let err = wal.announce().enqueue(&batch(2)).expect_err("sync crashes");
        assert!(matches!(err, WalError::Io { op: "sync", .. }), "{err}");
        assert_eq!(wal.group_stats().blocked_enqueues, 1);
        assert!(matches!(wal.wait_durable(s1), Err(WalError::Poisoned)));
        assert!(matches!(
            wal.announce().enqueue(&batch(2)),
            Err(WalError::Poisoned)
        ));
        assert_eq!(wal.announced.load(Ordering::Relaxed), 0, "withdrawn");
    }

    #[test]
    fn byte_watermark_trips_and_the_slowest_flush_is_recorded() {
        let storage = FaultStorage::unfaulted();
        let cfg = WalConfig {
            max_pending_bytes: 1, // any pending record trips it
            ..WalConfig::default()
        };
        let (wal, _) = open_mem(&storage, cfg);
        wal.announce().enqueue(&batch(1)).unwrap();
        // The second enqueue finds a pending byte and must flush first.
        wal.announce().enqueue(&batch(2)).unwrap();
        wal.flush_pending().unwrap();
        let stats = wal.group_stats();
        assert!(stats.blocked_enqueues >= 1);
        assert_eq!(stats.groups, 2);
        assert!(stats.max_flush_ns > 0);
        assert!(stats.max_flush_ns <= stats.flush_ns);
    }

    #[test]
    fn short_read_ends_replay_gracefully() {
        let storage = FaultStorage::unfaulted();
        let (wal, _) = open_mem(&storage, WalConfig::default());
        for ts in 1..=8 {
            wal.append(&batch(ts)).unwrap();
        }
        drop(wal);
        // The next read of the segment returns a prefix: recovery must
        // degrade to the intact records it saw, not panic.
        let short = FaultStorage::new(
            FaultPlan {
                short_read_at: Some(0),
                ..FaultPlan::default()
            },
            17,
        );
        for name in storage.list().unwrap() {
            short.append(&name, &storage.read(&name).unwrap()).unwrap();
        }
        let (_, replay) = open_mem(&short, WalConfig::default());
        assert!(replay.batches.len() <= 8);
        for (i, b) in replay.batches.iter().enumerate() {
            assert_eq!(b.commit_ts, i as u64 + 1, "prefix, in order");
        }
    }

    #[test]
    fn leader_holds_for_an_announced_committer() {
        let (wal, mean) = open_slow_calibrated(WalConfig::default());
        let announced = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let intent = wal.announce();
                announced.wait();
                // Still "in the commit section" when the leader arrives.
                await_holding(&wal);
                let seq = intent.enqueue(&batch(3)).unwrap();
                wal.wait_durable(seq).unwrap();
            });
            announced.wait();
            let seq = wal.announce().enqueue(&batch(2)).unwrap();
            wal.wait_durable(seq).unwrap();
        });
        let g = wal.group_stats();
        assert_eq!(g.groups, 2, "both records left in one group: {g:?}");
        assert_eq!(g.max_group, 2);
        assert_eq!(g.holds, 1);
        // The enqueue ended the hold, not the one-mean-flush bound.
        assert!(
            g.hold_ns < mean.as_nanos() as u64 / 2,
            "hold ran {} ns of a {mean:?} budget",
            g.hold_ns
        );
        assert_eq!(wal.announced.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_parked_intent_costs_at_most_one_mean_flush() {
        let (wal, mean) = open_slow_calibrated(WalConfig::default());
        let announced = std::sync::Barrier::new(2);
        let release = std::sync::Barrier::new(2);
        let elapsed = std::thread::scope(|s| {
            s.spawn(|| {
                let _intent = wal.announce();
                announced.wait();
                release.wait(); // never enqueues
            });
            announced.wait();
            let t0 = Instant::now();
            let seq = wal.announce().enqueue(&batch(2)).unwrap();
            wal.wait_durable(seq).unwrap();
            let elapsed = t0.elapsed();
            release.wait();
            elapsed
        });
        let g = wal.group_stats();
        assert_eq!((g.groups, g.max_group, g.holds), (2, 1, 1), "{g:?}");
        assert!(g.hold_ns >= mean.as_nanos() as u64, "held the full bound");
        // Hold (one mean flush) plus the flush itself, with slack for a
        // loaded host — never an unbounded wait.
        assert!(elapsed < mean * 3, "{elapsed:?} against a {mean:?} mean");
        assert_eq!(wal.announced.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_lone_writer_never_holds() {
        let (wal, _) = open_mem(&slow_disk(), WalConfig::default());
        for ts in 1..=100 {
            let seq = wal.announce().enqueue(&batch(ts)).unwrap();
            wal.wait_durable(seq).unwrap();
        }
        let g = wal.group_stats();
        assert_eq!((g.groups, g.holds, g.hold_ns), (100, 0, 0), "{g:?}");
    }

    #[test]
    fn a_blocked_enqueue_self_promotes_without_holding() {
        let (wal, mean) = open_slow_calibrated(WalConfig {
            max_pending_batches: 1,
            ..WalConfig::default()
        });
        wal.announce().enqueue(&batch(2)).unwrap(); // fills the tail
                                                    // At the watermark with its own intent still outstanding: it
                                                    // must lead the flush at once, not hold for itself.
        let t0 = Instant::now();
        let seq = wal.announce().enqueue(&batch(3)).unwrap();
        let elapsed = t0.elapsed();
        let g = wal.group_stats();
        assert_eq!((g.blocked_enqueues, g.groups, g.holds), (1, 2, 0), "{g:?}");
        assert!(elapsed < mean * 2, "{elapsed:?} against a {mean:?} mean");
        wal.wait_durable(seq).unwrap();
        assert_eq!(wal.group_stats().holds, 0);
    }

    #[test]
    fn a_dropped_intent_is_withdrawn_and_wakes_the_holder() {
        let (wal, mean) = open_slow_calibrated(WalConfig {
            max_pending_batches: 1,
            ..WalConfig::default()
        });
        wal.announce().try_enqueue(&batch(2)).unwrap();
        assert_eq!(wal.announced.load(Ordering::Relaxed), 0, "consumed");
        let refused = wal.announce().try_enqueue(&batch(3));
        assert!(matches!(refused, Err(WalError::Backpressure)));
        assert_eq!(wal.announced.load(Ordering::Relaxed), 0, "withdrawn");
        wal.flush_pending().unwrap();

        // A holding leader is released by the withdrawal, not the bound.
        let announced = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let intent = wal.announce();
                announced.wait();
                await_holding(&wal);
                drop(intent); // the commit aborted
            });
            announced.wait();
            let seq = wal.announce().enqueue(&batch(3)).unwrap();
            wal.wait_durable(seq).unwrap();
        });
        let g = wal.group_stats();
        assert_eq!(g.holds, 1, "{g:?}");
        assert!(
            g.hold_ns < mean.as_nanos() as u64 / 2,
            "hold ran {} ns of a {mean:?} budget",
            g.hold_ns
        );
        assert_eq!(wal.announced.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_hold_that_ends_without_flushing_wakes_the_committer_behind_it() {
        // A leader holds for a parked intent; a blocked enqueue flushes the
        // leader's record and enqueues its own, and its committer goes to
        // sleep behind `holding`. The holder then finds itself durable and
        // returns without leading a flush — that must still wake the
        // committer behind it, which nothing else would.
        let (wal, mean) = open_slow_calibrated(WalConfig {
            max_pending_batches: 1,
            ..WalConfig::default()
        });
        let calibrated = wal.group_stats().flush_ns;
        // Stretch the holder's budget (read once, as its hold starts) so
        // the hold outlasts the blocked enqueue's flush.
        wal.group_lock().stats.flush_ns = Duration::from_secs(2).as_nanos() as u64;
        let announced = std::sync::Barrier::new(3);
        let release = std::sync::Barrier::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        let wal = &wal;
        let waited = std::thread::scope(|s| {
            s.spawn(|| {
                let _parked = wal.announce();
                announced.wait();
                release.wait();
            });
            s.spawn(|| {
                announced.wait();
                let seq = wal.announce().enqueue(&batch(2)).unwrap();
                wal.wait_durable(seq).unwrap(); // the holder
            });
            announced.wait();
            await_holding(wal);
            wal.group_lock().stats.flush_ns = calibrated;
            s.spawn(move || {
                // At the watermark: leads the flush of the holder's record.
                let seq = wal.announce().enqueue(&batch(3)).unwrap();
                let t0 = Instant::now();
                wal.wait_durable(seq).unwrap();
                tx.send(t0.elapsed()).unwrap();
            });
            // Watchdog: a lost wake fails the test instead of hanging it.
            let waited = rx.recv_timeout(Duration::from_secs(1));
            if waited.is_err() {
                wal.group_cv.notify_all();
            }
            release.wait();
            waited
        });
        let waited = waited.expect("the committer behind the hold was never woken");
        // Its own hold (one mean flush) plus its flush — nowhere near a
        // 20 ms backstop timer.
        assert!(
            waited < Duration::from_millis(10),
            "{waited:?} against a {mean:?} mean flush"
        );
        let g = wal.group_stats();
        assert_eq!((g.blocked_enqueues, g.groups), (1, 3), "{g:?}");
        assert_eq!(wal.durable_seq(), 3);
    }
}
