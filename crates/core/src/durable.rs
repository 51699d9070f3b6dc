//! Durable transactions: the group-commit WAL pipeline, snapshot-
//! consistent checkpoints, and crash recovery for a [`Database`].
//!
//! A [`DurableDatabase`] wraps the in-memory multiversion database with
//! the `mvcc-wal` layers:
//!
//! * **Commit** — a durable write transaction is the usual Figure 1
//!   skeleton (the crate's one `try_write_core`) on the usual
//!   [`WriteTxn`], with a delta log attached to the view and the batch
//!   *published to the write-ahead log before the version becomes
//!   visible*: the WAL publish is the skeleton's before-visible step,
//!   between user code and the VM `set`, inside a commit mutex that
//!   hands every batch the next `commit_ts` in log order (so the `set`
//!   cannot lose a race to another durable writer). What "publish"
//!   costs depends on the [`GroupCommit`] policy: `Serial` appends *and
//!   fsyncs* the frame inside the critical section, while `Leader` only
//!   *enqueues* the record on the WAL's commit-ordered group tail there
//!   and waits for the coalesced group fsync **outside** the lock — one
//!   fsync covers every commit that overlapped it. The invariant is
//!   then *logged-before-visible, durable-before-acked*: a commit is in
//!   the log before readers can see it, and [`DurableSession::write`]
//!   returns (or [`CommitAck::wait`] completes) only once its group's
//!   fsync landed. [`DurableSession::write_acked`] splits the commit at
//!   that seam for callers that want to overlap work with the flush.
//! * **Checkpoint** — [`DurableDatabase::checkpoint`] pins a snapshot via
//!   the existing session machinery (`begin_read` under a brief clock
//!   lock), then walks it *at its own pace while writers proceed* — the
//!   paper's bounded-delay-reads claim doing real I/O — and finally
//!   retires WAL segments older than the checkpoint's `commit_ts`.
//! * **Recovery** — [`DurableDatabase::recover`] loads the newest valid
//!   checkpoint, replays the WAL tail after it, and gracefully degrades
//!   on a torn tail (replay ends at the last intact record; see
//!   [`mvcc_wal::Replay`]). A coalesced group is one CRC-guarded
//!   multi-record frame, so its members replay all-or-nothing — after a
//!   crash, each writer recovers a gapless prefix of its acked commits
//!   plus at most its one in-flight commit
//!   (`acked <= T <= acked + group_size`). Replaying the same WAL twice
//!   is a no-op: batches at or below the recovered `commit_ts` are
//!   skipped.
//!
//!   The tail replays as **one bulk write**. Recovery decodes the ops of
//!   every batch it does not skip, in commit order, keeps the last
//!   write per key (logged values are already merged, so the last put
//!   *is* the value), and applies one bulk remove of the keys whose
//!   last write deletes them and one bulk insert of the rest. The
//!   result is the one a batch-by-batch replay reaches: only intact
//!   frames are replayed, so per-batch atomicity holds, and the
//!   database is private until `recover` returns, so nothing can
//!   observe the intermediate versions that the fold skips. The
//!   [`RecoveryReport`] counts and the commit clock (`next_tx`,
//!   `last_commit_ts`) are still taken batch by batch.
//!
//! [`Durability::Off`] keeps today's in-memory behavior: writes go
//! straight through the lock-free session path — no logging, no commit
//! mutex, no fsync — and only an explicit checkpoint persists anything.
//! Since `Off` commits never touch the commit clock, each `Off`
//! checkpoint advances it by one instead, so successive checkpoints get
//! distinct (monotone) file names and the newest-valid fallback keeps
//! real redundancy.
//!
//! The raw [`Database`] stays reachable ([`DurableDatabase::database`])
//! for reads, pools and diagnostics, but a *write* through it bypasses
//! the log; a durable commit that loses its `set` to such a writer
//! surfaces [`DurableError::RacedByRawWriter`] instead of retrying —
//! that race is a misuse, not a liveness event.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mvcc_ftree::TreeParams;
use mvcc_vm::{PswfVm, VersionMaintenance};
use mvcc_wal::checkpoint::{self};
use mvcc_wal::{
    is_segment_name, DirStorage, FsyncPolicy, RetryPolicy, Storage, TornTail, Wal, WalBatch,
    WalCodec, WalConfig, WalError, WalOp,
};

use crate::batch::MapOp;
use crate::{Database, Session, SessionError, SessionReadGuard, WriteTxn};

/// When a committed batch becomes durable.
///
/// * [`Always`](Durability::Always) — every commit is appended to the WAL
///   and fsynced before it is acknowledged; a crash loses nothing acked.
/// * [`EveryN`](Durability::EveryN)`(n)` — group commit: every commit is
///   appended, the log fsyncs once per `n` appends. A crash can lose up
///   to the last `n - 1` acked commits, always from the tail.
/// * [`Off`](Durability::Off) — no logging at all: the lock-free
///   in-memory commit path, byte-for-byte. Only explicit
///   [`DurableDatabase::checkpoint`] calls persist state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Fsync every commit before acknowledging it.
    Always,
    /// Append every commit, fsync once per `n` (group commit).
    EveryN(u64),
    /// No write-ahead logging (in-memory behavior and performance).
    Off,
}

/// How concurrent [`Durability::Always`] committers share fsyncs.
///
/// * [`Serial`](GroupCommit::Serial) — each commit appends its own frame
///   and pays its own fsync inside the commit critical section (the
///   original durable path). Simplest; the per-commit fsync bounds
///   multi-writer throughput.
/// * [`Leader`](GroupCommit::Leader) — commits *enqueue* their batch on
///   the WAL's group tail inside the critical section and wait for
///   durability outside it. Each commit announces itself on the WAL
///   before it queues for the commit lock. The first waiter to find no
///   flush in progress elects itself leader; if committers are on their
///   way — announced, or expected because fewer commits are pending than
///   the last group held — it holds until they have enqueued, but never
///   longer than one mean flush time, and then flushes the whole pending
///   group (one append, one fsync); commits that arrive during that
///   flush form the next group. So two writers that take turns at the
///   lock share one fsync instead of alternating, and a lone writer
///   (nobody announced, groups of one) never holds: one fsync per
///   commit, same as `Serial`.
///
/// Group commit only changes *when the fsync happens*, never what is
/// logged: records still enter the WAL's commit-ordered tail before the
/// version becomes visible, and an `Ok` from [`DurableSession::write`]
/// (or [`CommitAck::wait`]) still means durable. The policy applies only
/// under [`Durability::Always`]; `EveryN` and `Off` already amortize or
/// skip fsyncs, so they keep the serial path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupCommit {
    /// One frame + one fsync per commit, inside the commit lock.
    Serial,
    /// First durability waiter holds for committers on their way, then
    /// flushes the whole pending group.
    Leader,
}

/// Configuration for opening / recovering a [`DurableDatabase`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Commit durability policy.
    pub durability: Durability,
    /// Fsync-sharing policy for concurrent `Always` committers.
    pub group_commit: GroupCommit,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Transient I/O retry policy for WAL appends.
    pub retry: RetryPolicy,
    /// Bounded commit queue: high watermark on the group-commit tail in
    /// pending commits (0 = unbounded). A commit that would push past it
    /// blocks inside its critical section until a flush drains the tail
    /// — leading that flush itself if none is running — so memory stays
    /// bounded when the commit rate outruns the disk. Counted in
    /// [`DurableStats::blocked_enqueues`].
    pub max_pending_batches: usize,
    /// Bounded commit queue by encoded bytes (0 = unbounded); whichever
    /// watermark trips first wins.
    pub max_pending_bytes: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        let wal = WalConfig::default();
        DurableConfig {
            durability: Durability::Always,
            group_commit: GroupCommit::Serial,
            segment_bytes: wal.segment_bytes,
            retry: wal.retry,
            max_pending_batches: wal.max_pending_batches,
            max_pending_bytes: wal.max_pending_bytes,
        }
    }
}

impl DurableConfig {
    /// The default config with a different [`Durability`] policy.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// This config with a different [`GroupCommit`] policy.
    pub fn with_group_commit(mut self, group_commit: GroupCommit) -> Self {
        self.group_commit = group_commit;
        self
    }

    /// This config with a bounded commit queue (high watermark in
    /// pending commits; 0 = unbounded).
    pub fn with_max_pending_batches(mut self, batches: usize) -> Self {
        self.max_pending_batches = batches;
        self
    }

    fn wal_config(&self) -> WalConfig {
        WalConfig {
            fsync: match self.durability {
                Durability::Always => FsyncPolicy::Always,
                Durability::EveryN(n) => FsyncPolicy::EveryN(n),
                // Off never appends; the policy is irrelevant but Off is
                // the honest mapping for the recovery-time segment repair.
                Durability::Off => FsyncPolicy::Off,
            },
            segment_bytes: self.segment_bytes,
            retry: self.retry,
            max_pending_batches: self.max_pending_batches,
            max_pending_bytes: self.max_pending_bytes,
        }
    }
}

/// Typed errors of the durable layer. Composes the WAL's I/O/corruption
/// errors with the session layer's lease errors so call sites handle one
/// enum.
#[derive(Debug)]
pub enum DurableError {
    /// The write-ahead log or checkpoint I/O failed (after retries).
    Wal(WalError),
    /// No session/pid was available where the operation needed one.
    Session(SessionError),
    /// A persisted record decoded at the byte layer but its typed
    /// key/value contents did not ([`WalCodec::decode`] failed) —
    /// corruption past what the CRC can see, or a codec change.
    Corrupt {
        /// What was being decoded.
        context: &'static str,
    },
    /// A durable commit lost its `set` to a writer that bypassed the
    /// durable layer (a raw [`Database`] write). The batch is already in
    /// the WAL — the durable image and the in-memory image have diverged,
    /// which is exactly why raw writes on a durable database are a
    /// contract violation.
    RacedByRawWriter,
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Wal(e) => write!(f, "durability I/O failed: {e}"),
            DurableError::Session(e) => write!(f, "no session available: {e}"),
            DurableError::Corrupt { context } => {
                write!(f, "persisted {context} failed typed decoding")
            }
            DurableError::RacedByRawWriter => write!(
                f,
                "durable commit raced by a non-durable writer (raw Database write)"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Wal(e) => Some(e),
            DurableError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        DurableError::Wal(e)
    }
}

impl From<SessionError> for DurableError {
    fn from(e: SessionError) -> Self {
        DurableError::Session(e)
    }
}

/// What [`DurableDatabase::recover`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// `commit_ts` of the checkpoint the recovery started from, if any.
    pub checkpoint_ts: Option<u64>,
    /// Entries loaded from that checkpoint.
    pub checkpoint_entries: usize,
    /// WAL batches replayed (those after the checkpoint).
    pub replayed: usize,
    /// WAL batches skipped as already covered by the checkpoint —
    /// replaying a WAL twice is a no-op by this rule.
    pub skipped: usize,
    /// The torn tail recovery truncated, if the log had one.
    pub torn: Option<TornTail>,
    /// WAL segments dropped beyond the torn point.
    pub dropped_segments: usize,
    /// Stale `ckpt-*.tmp` files swept — leftovers of a checkpointer that
    /// crashed between its tmp write and the publishing rename.
    pub swept_tmp: usize,
}

/// Group-commit counters of a [`DurableDatabase`]
/// (see [`DurableDatabase::durable_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Group flushes that reached storage (one append + one fsync each).
    pub groups_flushed: u64,
    /// Commits coalesced across all flushed groups.
    pub batches_flushed: u64,
    /// The largest single group flushed.
    pub max_group: u64,
    /// Total wall-clock nanoseconds spent inside group flushes.
    pub flush_ns_total: u64,
    /// The slowest single group flush observed.
    pub max_flush_ns: u64,
    /// Commits that found the bounded queue at its watermark and had to
    /// block for a flush (saturation: the commit rate outran the disk).
    pub blocked_enqueues: u64,
    /// Total wall-clock nanoseconds commits spent blocked at the
    /// watermark.
    pub blocked_ns: u64,
    /// Flushes a [`GroupCommit::Leader`] leader delayed for committers
    /// on their way: announced before the commit lock, or expected from
    /// the size of the last group.
    pub holds: u64,
    /// Total wall-clock nanoseconds leaders spent holding.
    pub hold_ns: u64,
    /// Commits enqueued on the group tail but not yet flushed (a racy
    /// snapshot).
    pub pending_batches: u64,
}

impl DurableStats {
    /// Mean commits per flushed group (0.0 before the first flush).
    pub fn mean_group(&self) -> f64 {
        if self.groups_flushed == 0 {
            0.0
        } else {
            self.batches_flushed as f64 / self.groups_flushed as f64
        }
    }
}

/// When the durability maintenance supervisor checkpoints, how hard it
/// backs off on failure, and where the disk-footprint red line sits.
///
/// Drives [`DurableDatabase::maintenance_tick`] — either from the
/// dedicated thread of [`DurableDatabase::start_maintenance`] or embedded
/// in a caller's own periodic loop (mvcc-net's server tick). A checkpoint
/// is due when the WAL footprint reaches
/// [`wal_bytes_threshold`](MaintenancePolicy::wal_bytes_threshold) *or*
/// [`interval`](MaintenancePolicy::interval) has elapsed since the last
/// one; failures retry with jittered exponential backoff capped at
/// [`max_backoff`](MaintenancePolicy::max_backoff) while commits keep
/// flowing (see [`Health`]).
#[derive(Debug, Clone)]
pub struct MaintenancePolicy {
    /// Checkpoint once [`DurableDatabase::wal_bytes`] reaches this many
    /// bytes and the log has a sealed segment to retire (0 disables the
    /// bytes trigger). A threshold below the segment size therefore
    /// checkpoints about once per segment roll, not on every tick.
    pub wal_bytes_threshold: u64,
    /// Checkpoint when this much time has passed since the last
    /// successful checkpoint (`None` disables the time trigger).
    pub interval: Option<Duration>,
    /// Upper bound on the failure backoff (the first retry waits
    /// ~10ms, doubling — with jitter — up to this cap).
    pub max_backoff: Duration,
    /// Published checkpoints to retain (clamped to at least 1). More
    /// copies buy fallback redundancy against a corrupt newest image at
    /// the price of disk space.
    pub min_keep_checkpoints: usize,
    /// Disk-footprint **red line**: when [`DurableDatabase::wal_bytes`]
    /// reaches this, the supervisor narrows the WAL's group-commit
    /// watermark to one pending record, so committers feel bounded-queue
    /// backpressure at disk speed instead of growing the log without
    /// bound while reclamation is stalled. Cleared automatically once a
    /// checkpoint brings the footprint back under. 0 disables.
    pub redline_bytes: u64,
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        MaintenancePolicy {
            // One default WAL segment: checkpoint roughly per segment roll.
            wal_bytes_threshold: 8 << 20,
            interval: None,
            max_backoff: Duration::from_secs(5),
            min_keep_checkpoints: checkpoint::KEEP_CHECKPOINTS,
            redline_bytes: 0,
        }
    }
}

impl MaintenancePolicy {
    /// This policy with a different WAL-bytes checkpoint trigger.
    pub fn with_wal_bytes_threshold(mut self, bytes: u64) -> Self {
        self.wal_bytes_threshold = bytes;
        self
    }

    /// This policy with an elapsed-time checkpoint trigger.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = Some(interval);
        self
    }

    /// This policy with a different backoff cap.
    pub fn with_max_backoff(mut self, cap: Duration) -> Self {
        self.max_backoff = cap;
        self
    }

    /// This policy with a disk-footprint red line.
    pub fn with_redline_bytes(mut self, bytes: u64) -> Self {
        self.redline_bytes = bytes;
        self
    }
}

/// Maintenance health, surfaced by [`DurableDatabase::health`].
///
/// Degradation is *typed and bounded*: a failing checkpoint path stalls
/// log reclamation (and, past the policy red line, slows commits to disk
/// speed), but it never blocks commits outright and never corrupts the
/// log — the supervisor keeps retrying with backoff and recovers to
/// [`Health::Ok`] on the first success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// Maintenance is keeping up (or has not been needed yet).
    Ok,
    /// Checkpoints are failing; only reclamation is stalled.
    Degraded {
        /// The most recent failure, rendered.
        reason: String,
        /// When the current failure streak began.
        since: Instant,
        /// Consecutive failed attempts in the streak.
        retries: u32,
    },
}

impl Health {
    /// Is maintenance currently degraded?
    pub fn is_degraded(&self) -> bool {
        matches!(self, Health::Degraded { .. })
    }
}

/// Counters of the maintenance supervisor
/// (see [`DurableDatabase::maintenance_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// [`DurableDatabase::maintenance_tick`] invocations.
    pub ticks: u64,
    /// Checkpoints the supervisor completed.
    pub checkpoints: u64,
    /// Checkpoint attempts that failed.
    pub failures: u64,
    /// Ticks skipped because a failure backoff was still in force.
    pub skipped_backoff: u64,
    /// `commit_ts` of the newest supervisor-written (or recovered)
    /// checkpoint.
    pub last_checkpoint_ts: u64,
    /// [`DurableDatabase::wal_bytes`] at the most recent tick.
    pub wal_bytes: u64,
    /// Is the red-line backpressure currently engaged?
    pub redline_engaged: bool,
    /// How many times the red line newly engaged.
    pub redline_engagements: u64,
}

/// What one [`DurableDatabase::maintenance_tick`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceTick {
    /// No checkpoint was due.
    Idle,
    /// Another tick's checkpoint is still in flight (thread + embedded
    /// tick can overlap; the work is never duplicated).
    Busy,
    /// A failure backoff is in force; nothing was attempted.
    Backoff,
    /// A checkpoint at this `commit_ts` was written and the WAL
    /// truncated behind it.
    Checkpointed(u64),
    /// A checkpoint was due and failed; [`DurableDatabase::health`] is
    /// now [`Health::Degraded`] and a backoff is armed.
    Failed,
}

/// The embeddable form of the supervisor: a shareable closure that runs
/// one [`DurableDatabase::maintenance_tick`] and reports [`Health`].
/// Produced by [`DurableDatabase::maintenance_hook`]; mvcc-net's server
/// invokes one from its poll-loop tick.
pub type MaintenanceHook = Arc<dyn Fn() -> Health + Send + Sync>;

/// First failure backoff; doubles (with jitter) up to
/// [`MaintenancePolicy::max_backoff`].
const MAINT_INITIAL_BACKOFF: Duration = Duration::from_millis(10);

/// How long a maintenance checkpoint waits for a free session pid before
/// treating the attempt as a transient failure. Bounds how long a
/// [`MaintenanceHandle`] drop can block behind a pid-starved checkpoint.
const MAINT_ACQUIRE_TIMEOUT: Duration = Duration::from_millis(250);

/// Supervisor-internal state, behind its own mutex (never held across
/// checkpoint I/O).
struct MaintInner {
    health: Health,
    stats: MaintenanceStats,
    backoff_until: Option<Instant>,
    next_backoff: Duration,
    last_checkpoint_at: Instant,
    in_flight: bool,
    rng: u64,
}

impl MaintInner {
    /// xorshift64*; deterministic jitter, no external RNG dependency.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// An awaitable durability acknowledgement for one commit, returned by
/// [`DurableSession::write_acked`].
///
/// When the ack is created the commit is already *visible* (readers see
/// it) and *logged* (its record sits in the WAL's commit-ordered tail);
/// [`CommitAck::wait`] blocks until it is *durable* — covered by a group
/// fsync. Under [`GroupCommit::Serial`] (and `EveryN`/`Off`) the commit
/// is as durable as the policy makes it before `write_acked` even
/// returns, so `wait` is free.
///
/// The ack holds an `Arc` to the WAL, not a borrow of the session: it
/// may be stored, sent to another thread, or waited on after the session
/// is gone.
#[must_use = "a group commit is only durable once the ack is waited on"]
pub struct CommitAck {
    /// `None`: already as durable as the policy guarantees.
    wal: Option<Arc<Wal>>,
    seq: u64,
    commit_ts: Option<u64>,
}

impl std::fmt::Debug for CommitAck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitAck")
            .field("seq", &self.seq)
            .field("commit_ts", &self.commit_ts)
            .field("durable", &self.is_durable())
            .finish()
    }
}

impl CommitAck {
    fn immediate(commit_ts: Option<u64>) -> CommitAck {
        CommitAck {
            wal: None,
            seq: 0,
            commit_ts,
        }
    }

    /// The `commit_ts` this commit established (`None` under
    /// [`Durability::Off`], whose commits bypass the commit clock).
    pub fn commit_ts(&self) -> Option<u64> {
        self.commit_ts
    }

    /// Has a flush already covered this commit? (Non-blocking; `true` is
    /// stable.)
    pub fn is_durable(&self) -> bool {
        match &self.wal {
            None => true,
            Some(wal) => wal.durable_seq() >= self.seq,
        }
    }

    /// Block until this commit is durable. Under [`GroupCommit::Leader`]
    /// the caller may end up performing the group flush itself. `Err`
    /// means the flush failed *after* the commit became visible — the
    /// log is poisoned and the commit, while readable in memory, may not
    /// survive a crash. The waiter that ran the failing flush gets its
    /// I/O error; every other waiter gets [`WalError::Poisoned`].
    pub fn wait(&self) -> Result<(), DurableError> {
        match &self.wal {
            None => Ok(()),
            Some(wal) => Ok(wal.wait_durable(self.seq)?),
        }
    }
}

/// The durable commit clock, shared by all durable writers under one
/// mutex: the next batch's identifiers are assigned inside the critical
/// section, so `commit_ts` is strictly increasing along the WAL.
struct CommitClock {
    next_tx: u64,
    last_ts: u64,
}

/// A [`Database`] with a write-ahead log, checkpoints and crash recovery.
///
/// Create with [`DurableDatabase::recover`] (filesystem directory) or
/// [`DurableDatabase::recover_storage`] (any [`Storage`], e.g. the
/// fault-injection double) — recovery of an empty directory *is* the
/// constructor. Write through [`DurableDatabase::session`] handles;
/// anything read-only may also use the raw database underneath.
pub struct DurableDatabase<P: TreeParams, M: VersionMaintenance = PswfVm> {
    db: Database<P, M>,
    storage: Arc<dyn Storage>,
    /// `None` under [`Durability::Off`]: commits skip logging entirely.
    /// Shared ([`Arc`]) so [`CommitAck`]s can outlive the borrow of a
    /// session.
    wal: Option<Arc<Wal>>,
    /// The *effective* group-commit policy ([`GroupCommit::Serial`]
    /// whenever durability is not [`Durability::Always`]).
    group: GroupCommit,
    commit: Mutex<CommitClock>,
    report: RecoveryReport,
    maint: Mutex<MaintInner>,
}

/// Decode one logged batch onto `out` as `(key, Some(value))` for a put
/// and `(key, None)` for a delete, in log order.
fn decode_writes<P: TreeParams>(
    ops: &[WalOp],
    out: &mut Vec<(P::K, Option<P::V>)>,
) -> Result<(), DurableError>
where
    P::K: WalCodec,
    P::V: WalCodec,
{
    for op in ops {
        out.push(match op {
            WalOp::Put(k, v) => match (P::K::decode(k), P::V::decode(v)) {
                (Some(k), Some(v)) => (k, Some(v)),
                _ => {
                    return Err(DurableError::Corrupt {
                        context: "WAL put delta",
                    })
                }
            },
            WalOp::Del(k) => match P::K::decode(k) {
                Some(k) => (k, None),
                None => {
                    return Err(DurableError::Corrupt {
                        context: "WAL delete delta",
                    })
                }
            },
        });
    }
    Ok(())
}

/// The net effect of `writes`, given in commit order: per key, its last
/// write. Returns the keys whose last write is a put, with that value,
/// and the keys whose last write is a delete, each sorted by key.
/// Logged values are already merged, so the last put *is* the value.
fn last_write_per_key<K: Ord, V>(mut writes: Vec<(K, Option<V>)>) -> (Vec<(K, V)>, Vec<K>) {
    // Stable: the writes to one key keep their commit order.
    writes.sort_by(|a, b| a.0.cmp(&b.0));
    let (mut puts, mut dels) = (Vec::new(), Vec::new());
    let mut writes = writes.into_iter().peekable();
    while let Some((k, v)) = writes.next() {
        if writes.peek().is_some_and(|(next, _)| *next == k) {
            continue;
        }
        match v {
            Some(v) => puts.push((k, v)),
            None => dels.push(k),
        }
    }
    (puts, dels)
}

fn encode_ops<P: TreeParams>(ops: &[MapOp<P>]) -> Vec<WalOp>
where
    P::K: WalCodec,
    P::V: WalCodec,
{
    ops.iter()
        .map(|op| match op {
            MapOp::Insert(k, v) => {
                let mut kb = Vec::new();
                let mut vb = Vec::new();
                k.encode(&mut kb);
                v.encode(&mut vb);
                WalOp::Put(kb, vb)
            }
            MapOp::Remove(k) => {
                let mut kb = Vec::new();
                k.encode(&mut kb);
                WalOp::Del(kb)
            }
        })
        .collect()
}

impl<P: TreeParams> DurableDatabase<P, PswfVm>
where
    P::K: WalCodec,
    P::V: WalCodec,
{
    /// Open-or-recover a durable database backed by the directory `path`
    /// (created if absent). An empty directory yields an empty database;
    /// otherwise the newest valid checkpoint is loaded and the WAL tail
    /// replayed — including after a crash, where a torn tail ends replay
    /// at the last intact record instead of failing. The checkpoint
    /// image is one bulk build and the tail one bulk write (see the
    /// module docs).
    pub fn recover(
        path: impl AsRef<Path>,
        processes: usize,
        cfg: DurableConfig,
    ) -> Result<Self, DurableError> {
        let storage = DirStorage::new(path.as_ref()).map_err(|e| {
            DurableError::Wal(WalError::Io {
                op: "open",
                name: path.as_ref().display().to_string(),
                source: e,
            })
        })?;
        Self::recover_storage(Arc::new(storage), processes, cfg)
    }

    /// [`DurableDatabase::recover`] over an explicit [`Storage`] — the
    /// entry point the fault-injection tests drive with an in-memory
    /// crashed image.
    pub fn recover_storage(
        storage: Arc<dyn Storage>,
        processes: usize,
        cfg: DurableConfig,
    ) -> Result<Self, DurableError> {
        let (wal, replay) = Wal::open(Arc::clone(&storage), cfg.wal_config())?;
        let ckpt = checkpoint::load_latest(&*storage)?;
        // A checkpointer that crashed before its publishing rename leaves
        // a `ckpt-*.tmp`; sweep it here so a crash-then-recover sequence
        // cannot leak tmp files while the disk stays too sick for the
        // next successful checkpoint to prune them.
        let swept_tmp = checkpoint::sweep_stale_tmp(&*storage)?;

        let db: Database<P, PswfVm> = Database::new(processes);
        let mut report = RecoveryReport {
            torn: replay.torn.clone(),
            dropped_segments: replay.dropped_segments,
            swept_tmp,
            ..RecoveryReport::default()
        };
        let mut last_ts = 0u64;
        let mut next_tx = 1u64;
        {
            let mut session = db.session()?;
            if let Some(c) = &ckpt {
                last_ts = c.ts;
                // The checkpoint carries the tx-id high-water mark, so
                // tx_id stays monotone across recoveries even when
                // truncation has emptied the WAL tail.
                next_tx = next_tx.max(c.next_tx);
                report.checkpoint_ts = Some(c.ts);
                report.checkpoint_entries = c.entries.len();
                let mut pairs = Vec::with_capacity(c.entries.len());
                for (k, v) in &c.entries {
                    match (P::K::decode(k), P::V::decode(v)) {
                        (Some(k), Some(v)) => pairs.push((k, v)),
                        _ => {
                            return Err(DurableError::Corrupt {
                                context: "checkpoint entry",
                            })
                        }
                    }
                }
                session.write_raw(|f, base| {
                    // The database is freshly constructed: `base` is the
                    // nil root, so building the image directly is safe.
                    debug_assert!(base.is_none(), "recovery must start empty");
                    (f.build_sorted(&pairs), ())
                });
            }
            // The intact tail replays as one write: its net effect per
            // key, applied with one bulk remove and one bulk insert
            // (`multi_insert`'s build and union, over puts that are
            // already sorted and distinct). See the module docs.
            let mut writes = Vec::new();
            for b in &replay.batches {
                // Even checkpoint-covered (skipped) batches advance the
                // tx-id high-water mark.
                next_tx = next_tx.max(b.tx_id + 1);
                if b.commit_ts <= last_ts {
                    report.skipped += 1;
                    continue;
                }
                decode_writes::<P>(&b.ops, &mut writes)?;
                report.replayed += 1;
                last_ts = b.commit_ts;
            }
            if !writes.is_empty() {
                let (puts, dels) = last_write_per_key(writes);
                session.write_raw(|f, base| {
                    let t = f.multi_remove_sorted(base, &dels);
                    let built = f.build_sorted(&puts);
                    (f.union(t, built), ())
                });
            }
        }

        // Group commit only applies where every commit would otherwise
        // pay its own fsync; EveryN and Off keep the serial path.
        let group = match (cfg.durability, cfg.group_commit) {
            (Durability::Always, g) => g,
            _ => GroupCommit::Serial,
        };
        let wal = match cfg.durability {
            Durability::Off => None,
            _ => Some(Arc::new(wal)),
        };
        let maint = MaintInner {
            health: Health::Ok,
            stats: MaintenanceStats {
                // The recovered checkpoint counts as the staleness
                // baseline: nothing new to cover means nothing to write.
                last_checkpoint_ts: report.checkpoint_ts.unwrap_or(0),
                ..MaintenanceStats::default()
            },
            backoff_until: None,
            next_backoff: MAINT_INITIAL_BACKOFF,
            last_checkpoint_at: Instant::now(),
            in_flight: false,
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        Ok(DurableDatabase {
            db,
            storage,
            wal,
            group,
            commit: Mutex::new(CommitClock { next_tx, last_ts }),
            report,
            maint: Mutex::new(maint),
        })
    }
}

impl<P: TreeParams, M: VersionMaintenance> DurableDatabase<P, M> {
    /// What the recovery that opened this database found.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    /// The in-memory database underneath. Reads, pools and diagnostics
    /// are fine; a **write** through it bypasses the WAL and breaks the
    /// durable image (see [`DurableError::RacedByRawWriter`]).
    pub fn database(&self) -> &Database<P, M> {
        &self.db
    }

    /// The storage namespace holding the WAL segments and checkpoints.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// `commit_ts` of the most recent durable commit (0 = none yet).
    /// Under [`Durability::Off`] this advances per *checkpoint*, not per
    /// commit (see [`DurableDatabase::checkpoint`]).
    pub fn last_commit_ts(&self) -> u64 {
        self.clock().last_ts
    }

    /// Is write-ahead logging active (i.e. durability not
    /// [`Durability::Off`])?
    pub fn durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Total bytes currently held by WAL segment files — sealed *and*
    /// active, so a maintenance threshold sees the true disk footprint.
    /// Grows with commits, shrinks when a checkpoint truncates.
    ///
    /// With logging on this is the live [`Wal`]'s accounting. Under
    /// [`Durability::Off`] there is no live log, but segments from an
    /// earlier durable run may still sit on disk until a checkpoint
    /// retires them; those are counted by scanning the storage listing.
    pub fn wal_bytes(&self) -> u64 {
        match &self.wal {
            Some(w) => w.bytes(),
            None => {
                let Ok(names) = self.storage.list() else {
                    return 0;
                };
                names
                    .iter()
                    .filter(|n| is_segment_name(n))
                    .filter_map(|n| self.storage.len(n).ok())
                    .sum()
            }
        }
    }

    /// Maintenance health: [`Health::Ok`], or [`Health::Degraded`] while
    /// the supervisor's checkpoints keep failing. Degradation stalls log
    /// reclamation only — commits keep their WAL-before-visible order
    /// and keep flowing (at disk speed past the policy red line).
    pub fn health(&self) -> Health {
        self.maint().health.clone()
    }

    /// Counters of the maintenance supervisor (all zero until the first
    /// [`DurableDatabase::maintenance_tick`]).
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.maint().stats
    }

    /// The effective [`GroupCommit`] policy (always
    /// [`GroupCommit::Serial`] unless durability is
    /// [`Durability::Always`]).
    pub fn group_commit(&self) -> GroupCommit {
        self.group
    }

    /// Group-commit counters: how many flushes ran, how many commits
    /// they coalesced, the largest group, total flush time, and how many
    /// commits are enqueued but not yet flushed right now. All zero
    /// under [`GroupCommit::Serial`] (and with logging off).
    pub fn durable_stats(&self) -> DurableStats {
        match &self.wal {
            Some(wal) => {
                let g = wal.group_stats();
                DurableStats {
                    groups_flushed: g.groups,
                    batches_flushed: g.batches,
                    max_group: g.max_group,
                    flush_ns_total: g.flush_ns,
                    max_flush_ns: g.max_flush_ns,
                    blocked_enqueues: g.blocked_enqueues,
                    blocked_ns: g.blocked_ns,
                    holds: g.holds,
                    hold_ns: g.hold_ns,
                    pending_batches: wal.pending_batches() as u64,
                }
            }
            None => DurableStats::default(),
        }
    }

    /// Force an fsync of the WAL (flushes the pending group-commit tail
    /// and any pending [`Durability::EveryN`] group). A no-op with
    /// logging off.
    pub fn sync(&self) -> Result<(), DurableError> {
        match &self.wal {
            Some(wal) => wal.sync().map_err(DurableError::from),
            None => Ok(()),
        }
    }

    fn clock(&self) -> MutexGuard<'_, CommitClock> {
        self.commit.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn maint(&self) -> MutexGuard<'_, MaintInner> {
        self.maint.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lease a durable session (a [`Session`] whose write transactions go
    /// through the WAL). `Err(Exhausted)` when all pids are out.
    pub fn session(&self) -> Result<DurableSession<'_, P, M>, DurableError> {
        Ok(DurableSession {
            inner: self.db.session()?,
            dd: self,
            ops: Vec::new(),
        })
    }
}

impl<P: TreeParams, M: VersionMaintenance> DurableDatabase<P, M>
where
    P::K: WalCodec,
    P::V: WalCodec,
{
    /// Write a snapshot-consistent checkpoint and retire the WAL segments
    /// it covers. Returns the checkpoint's `commit_ts`.
    ///
    /// The snapshot is pinned under a brief clock lock (so its contents
    /// correspond exactly to one `commit_ts`), then walked while writers
    /// proceed — precise GC keeps the pinned version alive at zero cost
    /// to them. Needs a free pid for the reading session; parks FIFO
    /// until one frees.
    ///
    /// Under [`Durability::Off`] commits bypass the commit clock, so the
    /// clock is advanced *here* instead: each checkpoint gets a fresh,
    /// strictly larger `commit_ts`, which keeps successive checkpoint
    /// file names distinct (the newest-valid fallback needs the previous
    /// image to still exist) — `last_commit_ts` then counts checkpoints
    /// rather than commits.
    pub fn checkpoint(&self) -> Result<u64, DurableError> {
        self.checkpoint_with_keep(checkpoint::KEEP_CHECKPOINTS)
    }

    /// [`DurableDatabase::checkpoint`] with an explicit retention depth:
    /// after the new image publishes, all but the newest `keep`
    /// checkpoints are pruned (`keep` clamps to at least 1).
    pub fn checkpoint_with_keep(&self, keep: usize) -> Result<u64, DurableError> {
        let session = self.db.pool().acquire();
        self.checkpoint_session(session, keep)
    }

    fn checkpoint_session(
        &self,
        mut session: Session<'_, P, M>,
        keep: usize,
    ) -> Result<u64, DurableError> {
        // Flush the pending group tail first so the image the checkpoint
        // pins (which may include visible-but-unflushed group commits) is
        // never *ahead* of the durable log it truncates.
        if let Some(wal) = &self.wal {
            wal.flush_pending()?;
        }
        // Pin the snapshot at a known clock value: no durable commit can
        // land between reading `last_ts` and acquiring the version.
        let mut clock = self.clock();
        if self.wal.is_none() {
            clock.last_ts += 1;
        }
        let ts = clock.last_ts;
        let next_tx = clock.next_tx;
        let guard = session.begin_read();
        drop(clock);

        // Writers proceed from here; the walk goes at its own pace.
        let mut kb = Vec::new();
        let mut vb = Vec::new();
        checkpoint::write_checkpoint_keep(&*self.storage, ts, next_tx, keep, |w| {
            guard.snapshot().for_each(|k, v| {
                kb.clear();
                vb.clear();
                k.encode(&mut kb);
                v.encode(&mut vb);
                w.entry(&kb, &vb);
            });
            Ok(())
        })?;
        drop(guard);

        match &self.wal {
            Some(wal) => {
                wal.truncate_before(ts)?;
            }
            None => {
                // No live log, but segments from an earlier durable run
                // may still sit on disk. Recovery replayed every one of
                // their batches into the image just published, so they
                // are fully covered: retire them all.
                let names = self.storage.list().map_err(|e| {
                    DurableError::Wal(WalError::Io {
                        op: "list",
                        name: "<storage>".to_string(),
                        source: e,
                    })
                })?;
                for name in names.into_iter().filter(|n| is_segment_name(n)) {
                    self.storage.remove(&name).map_err(|e| {
                        DurableError::Wal(WalError::Io {
                            op: "remove",
                            name,
                            source: e,
                        })
                    })?;
                }
            }
        }
        Ok(ts)
    }

    /// Run one step of the durability maintenance supervisor: decide
    /// whether a checkpoint is due under `policy`, run it off the commit
    /// path if so, and fold the outcome into [`DurableDatabase::health`]
    /// / [`DurableDatabase::maintenance_stats`].
    ///
    /// Embeddable: call it from any periodic loop (mvcc-net's server
    /// invokes it from its ~1ms poll tick via
    /// [`DurableDatabase::maintenance_hook`]) or let
    /// [`DurableDatabase::start_maintenance`] drive it from a dedicated
    /// thread — concurrent ticks coordinate through an in-flight guard,
    /// so the checkpoint work is never duplicated.
    ///
    /// **Degrades instead of dying**: a failed checkpoint records
    /// [`Health::Degraded`], arms a jittered exponential backoff (capped
    /// at [`MaintenancePolicy::max_backoff`]) and returns
    /// [`MaintenanceTick::Failed`] — it never panics and never blocks
    /// commits. Past [`MaintenancePolicy::redline_bytes`] the WAL's
    /// group tail is narrowed to one pending record, converting
    /// unbounded disk growth into the existing bounded-queue
    /// backpressure.
    pub fn maintenance_tick(&self, policy: &MaintenancePolicy) -> MaintenanceTick {
        let now = Instant::now();
        let wal_bytes = self.wal_bytes();
        {
            let mut m = self.maint();
            m.stats.ticks += 1;
            m.stats.wal_bytes = wal_bytes;

            // The red line engages and clears on every tick, independent
            // of checkpoint cadence, backoff, or in-flight work.
            if policy.redline_bytes > 0 {
                if let Some(wal) = &self.wal {
                    let over = wal_bytes >= policy.redline_bytes;
                    let was = wal.set_redline(over);
                    if over && !was {
                        m.stats.redline_engagements += 1;
                    }
                    m.stats.redline_engaged = over;
                }
            }

            if m.in_flight {
                return MaintenanceTick::Busy;
            }
            if let Some(until) = m.backoff_until {
                if now < until {
                    m.stats.skipped_backoff += 1;
                    return MaintenanceTick::Backoff;
                }
            }
            // A checkpoint retires sealed segments only: with the log down
            // to its active segment, none can shrink it, so the footprint
            // alone does not make one due.
            let bytes_due = policy.wal_bytes_threshold > 0
                && wal_bytes >= policy.wal_bytes_threshold
                && self.wal.as_ref().is_none_or(|w| w.segments() > 1);
            let time_due = policy
                .interval
                .is_some_and(|i| now.duration_since(m.last_checkpoint_at) >= i);
            if !bytes_due && !time_due {
                return MaintenanceTick::Idle;
            }
            // Staleness guard (durable mode): when no commit landed since
            // the last checkpoint, a new image would be identical and the
            // surviving bytes (the active segment) cannot shrink — skip
            // rather than rewrite forever. Off-mode checkpoints advance
            // the clock themselves, so they always proceed.
            if self.wal.is_some() && self.last_commit_ts() == m.stats.last_checkpoint_ts {
                return MaintenanceTick::Idle;
            }
            m.in_flight = true;
        }

        // The checkpoint itself runs outside the maintenance lock, so
        // health/stats stay readable (and other ticks return `Busy`)
        // while the snapshot walk does I/O. A pid-starved pool is a
        // transient failure, not a hang: bounded acquire.
        let res = match self.db.pool().acquire_timeout(MAINT_ACQUIRE_TIMEOUT) {
            Ok(session) => self.checkpoint_session(session, policy.min_keep_checkpoints),
            Err(_) => Err(DurableError::Session(SessionError::Exhausted {
                processes: self.db.processes(),
            })),
        };

        let mut m = self.maint();
        m.in_flight = false;
        match res {
            Ok(ts) => {
                m.stats.checkpoints += 1;
                m.stats.last_checkpoint_ts = ts;
                m.stats.wal_bytes = self.wal_bytes();
                m.last_checkpoint_at = Instant::now();
                m.backoff_until = None;
                m.next_backoff = MAINT_INITIAL_BACKOFF;
                m.health = Health::Ok;
                MaintenanceTick::Checkpointed(ts)
            }
            Err(e) => {
                m.stats.failures += 1;
                let (since, retries) = match &m.health {
                    Health::Degraded { since, retries, .. } => (*since, retries + 1),
                    Health::Ok => (now, 1),
                };
                m.health = Health::Degraded {
                    reason: e.to_string(),
                    since,
                    retries,
                };
                // Jittered exponential backoff: wait somewhere in
                // [base/2, base], then double the base up to the cap.
                let base = m.next_backoff.min(policy.max_backoff);
                let half = base / 2;
                let jitter_ns = (half.as_nanos() as u64).saturating_add(1);
                let jitter = Duration::from_nanos(m.next_rand() % jitter_ns);
                m.backoff_until = Some(Instant::now() + half + jitter);
                m.next_backoff = (base * 2).min(policy.max_backoff);
                MaintenanceTick::Failed
            }
        }
    }
}

impl<P, M> DurableDatabase<P, M>
where
    P: TreeParams + 'static,
    M: VersionMaintenance + 'static,
    P::K: WalCodec,
    P::V: WalCodec,
{
    /// Start the durability maintenance supervisor on a dedicated
    /// background thread: [`DurableDatabase::maintenance_tick`] runs
    /// every couple of milliseconds (the policy's thresholds decide when
    /// a tick actually checkpoints). Returns a [`MaintenanceHandle`]
    /// that stops and joins the thread on drop — promptly even
    /// mid-backoff, and waiting out (never interrupting) a checkpoint
    /// already in flight, so dropping the handle can never tear an image
    /// or poison the WAL.
    pub fn start_maintenance(self: &Arc<Self>, policy: MaintenancePolicy) -> MaintenanceHandle
    where
        Self: Send + Sync,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let db = Arc::clone(self);
        const NAP: Duration = Duration::from_millis(2);
        let join = std::thread::Builder::new()
            .name("mvcc-maintenance".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    let _ = db.maintenance_tick(&policy);
                    std::thread::park_timeout(NAP);
                }
            })
            .expect("spawn maintenance thread");
        MaintenanceHandle {
            stop,
            join: Some(join),
        }
    }

    /// The supervisor as an embeddable closure: each call runs one
    /// [`DurableDatabase::maintenance_tick`] under `policy` and returns
    /// the current [`Health`]. Hand it to a caller-owned periodic loop —
    /// mvcc-net's `Server::set_maintenance` drives one from its poll
    /// tick — instead of (or alongside) the dedicated thread; the
    /// in-flight guard keeps concurrent drivers from duplicating work.
    pub fn maintenance_hook(self: &Arc<Self>, policy: MaintenancePolicy) -> MaintenanceHook
    where
        Self: Send + Sync,
    {
        let db = Arc::clone(self);
        Arc::new(move || {
            let _ = db.maintenance_tick(&policy);
            db.health()
        })
    }
}

/// The background supervisor thread of
/// [`DurableDatabase::start_maintenance`], stopped and joined on drop
/// (RAII).
pub struct MaintenanceHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl MaintenanceHandle {
    /// Stop and join the supervisor thread explicitly (drop does the
    /// same). Returns once the thread is gone; a checkpoint already in
    /// flight completes first.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            join.thread().unpark();
            let _ = join.join();
        }
    }
}

impl Drop for MaintenanceHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

impl std::fmt::Debug for MaintenanceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceHandle")
            .field("stopped", &self.stop.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

/// A [`Session`] whose write transactions commit through the write-ahead
/// log. Reads are the ordinary delay-free snapshot reads.
///
/// Obtained from [`DurableDatabase::session`]; like `Session` it is
/// `Send + !Sync` and every transaction takes `&mut self`.
pub struct DurableSession<'db, P: TreeParams, M: VersionMaintenance = PswfVm> {
    inner: Session<'db, P, M>,
    dd: &'db DurableDatabase<P, M>,
    /// Reusable delta-log buffer for the commit path.
    ops: Vec<MapOp<P>>,
}

impl<'db, P: TreeParams, M: VersionMaintenance> DurableSession<'db, P, M> {
    /// The leased process id.
    pub fn pid(&self) -> usize {
        self.inner.pid()
    }

    /// This session's transaction counters (see [`Session::stats`]).
    pub fn stats(&self) -> crate::TxnStats {
        self.inner.stats()
    }

    /// Run a read-only transaction — identical to [`Session::read`]:
    /// durability adds nothing to the read path.
    pub fn read<R>(&mut self, f: impl FnOnce(&crate::Snapshot<'_, P>) -> R) -> R {
        self.inner.read(f)
    }

    /// Begin an RAII read transaction (see [`Session::begin_read`]).
    pub fn begin_read(&mut self) -> SessionReadGuard<'_, 'db, P, M> {
        self.inner.begin_read()
    }

    /// Point lookup as a read transaction.
    pub fn get(&mut self, key: &P::K) -> Option<P::V> {
        self.inner.get(key)
    }

    /// Entry count of the current version.
    pub fn len(&mut self) -> usize {
        self.inner.len()
    }

    /// Is the current version empty?
    pub fn is_empty(&mut self) -> bool {
        self.inner.is_empty()
    }
}

impl<'db, P: TreeParams, M: VersionMaintenance> DurableSession<'db, P, M>
where
    P::K: WalCodec,
    P::V: WalCodec,
{
    /// Run a **durable write transaction**.
    ///
    /// User code sees the ordinary [`WriteTxn`] with a delta log attached:
    /// every delta recorded. On return the batch is in the WAL *before*
    /// the new version becomes visible, and `Ok` means the commit is as
    /// durable as the [`Durability`] policy guarantees: under
    /// [`GroupCommit::Serial`] the frame was appended and fsynced inside
    /// the commit critical section; under `Leader` the record
    /// entered the WAL's commit-ordered tail inside the critical section
    /// and this call then waited (outside it) for the group fsync —
    /// equivalent to [`DurableSession::write_acked`] followed by an
    /// immediate [`CommitAck::wait`].
    ///
    /// On a WAL *append* error the in-memory database is untouched and
    /// the error is surfaced — the transaction did not happen. A group
    /// *flush* error is different: the commit is already visible but its
    /// durability is unknown and the log is poisoned; the waiter that ran
    /// the flush gets its I/O error, every other coalesced waiter
    /// [`WalError::Poisoned`] (see [`CommitAck::wait`]).
    ///
    /// Under [`Durability::Off`] this is exactly [`Session::write`]
    /// (lock-free, retrying, nothing logged), wrapped in `Ok`.
    ///
    /// `f` may run more than once only in the `Off` mode (retry on a
    /// lost race); with logging on, durable writers serialize and `f`
    /// runs exactly once.
    ///
    /// The view cannot swap in a root the log did not see being built —
    /// recovery could not replay it:
    ///
    /// ```compile_fail,E0599
    /// use mvcc_core::{ftree::U64Map, wal::FaultStorage, DurableConfig, DurableDatabase};
    /// let storage = std::sync::Arc::new(FaultStorage::unfaulted());
    /// let db: DurableDatabase<U64Map> =
    ///     DurableDatabase::recover_storage(storage, 1, DurableConfig::default()).unwrap();
    /// db.session().unwrap().write(|txn| txn.set_root(txn.root()));
    /// ```
    pub fn write<R>(
        &mut self,
        f: impl FnMut(&mut WriteTxn<'_, P>) -> R,
    ) -> Result<R, DurableError> {
        let (result, ack) = self.write_acked(f)?;
        ack.wait()?;
        Ok(result)
    }

    /// [`DurableSession::write`], split at the durability wait: returns
    /// as soon as the commit is **visible and logged**, handing back a
    /// [`CommitAck`] to await (or poll) the group fsync.
    ///
    /// This is the producer side of group commit: a committer that does
    /// other work between `write_acked` and [`CommitAck::wait`] overlaps
    /// that work with its group's flush, and commits that land while a
    /// flush is in flight coalesce into the next one. With
    /// [`GroupCommit::Serial`] (or `EveryN`/`Off`) the returned ack is
    /// already satisfied and `wait` is free.
    pub fn write_acked<R>(
        &mut self,
        f: impl FnMut(&mut WriteTxn<'_, P>) -> R,
    ) -> Result<(R, CommitAck), DurableError> {
        let dd = self.dd;
        let Some(wal) = &dd.wal else {
            // Durability::Off: the unmodified in-memory commit path.
            return Ok((self.inner.write(f), CommitAck::immediate(None)));
        };
        // A grouped commit announces itself before it queues for the
        // commit lock, so a leader about to flush can hold for it.
        let intent = match dd.group {
            GroupCommit::Serial => None,
            GroupCommit::Leader => Some(wal.announce()),
        };

        // Serialize durable writers: commit_ts assignment, WAL publish
        // and `set` form one critical section, so the log order is the
        // commit order and `set` cannot lose to another *durable* writer.
        // The group fsync is NOT in here — that is the whole point.
        let mut clock = dd.clock();
        let mut seq = None;
        let committed = self.inner.try_write_logged(&mut self.ops, f, |ops| {
            // Publish to the log BEFORE the version becomes visible: the
            // WAL record is the commit point. Serial appends (and
            // fsyncs) here; grouped mode enqueues on the commit-ordered
            // tail and defers the fsync to the group flush.
            let batch = WalBatch {
                tx_id: clock.next_tx,
                commit_ts: clock.last_ts + 1,
                snapshot_ts: clock.last_ts,
                ops: encode_ops::<P>(ops),
            };
            // On `Err` nothing entered the log (a failed serial append
            // rolls its frame back; a refused enqueue never queued), so
            // there is nothing the next recovery would replay as acked
            // and `commit_ts` is safe to reuse.
            match intent {
                Some(intent) => seq = Some(intent.enqueue(&batch)?),
                None => wal.append(&batch)?,
            }
            // The batch is in the log; its identifiers are spent even if
            // the `set` loses to a contract-violating raw writer.
            clock.next_tx += 1;
            clock.last_ts = batch.commit_ts;
            Ok::<(), WalError>(())
        })?;
        let result = committed.ok_or(DurableError::RacedByRawWriter)?;
        let commit_ts = Some(clock.last_ts);
        let ack = match seq {
            Some(seq) => CommitAck {
                wal: Some(Arc::clone(wal)),
                seq,
                commit_ts,
            },
            None => CommitAck::immediate(commit_ts),
        };
        Ok((result, ack))
    }

    /// Durably insert one entry.
    pub fn insert(&mut self, key: P::K, value: P::V) -> Result<(), DurableError> {
        self.write(move |txn| txn.insert(key.clone(), value.clone()))
    }

    /// Durably remove one key; returns the removed value.
    pub fn remove(&mut self, key: &P::K) -> Result<Option<P::V>, DurableError> {
        self.write(|txn| txn.remove(key))
    }

    /// Durably remove every key in the inclusive range `[lo, hi]` as one
    /// atomic commit.
    pub fn remove_range(&mut self, lo: &P::K, hi: &P::K) -> Result<(), DurableError> {
        self.write(|txn| txn.remove_range(lo, hi))
    }
}

impl<P: TreeParams, M: VersionMaintenance> std::fmt::Debug for DurableSession<'_, P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSession")
            .field("pid", &self.inner.pid())
            .field("durable", &self.dd.durable())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_ftree::U64Map;
    use mvcc_wal::FaultStorage;

    fn open(storage: &FaultStorage, durability: Durability) -> DurableDatabase<U64Map> {
        DurableDatabase::recover_storage(
            Arc::new(storage.clone()),
            2,
            DurableConfig {
                durability,
                ..DurableConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn commits_survive_reopen() {
        let storage = FaultStorage::unfaulted();
        {
            let db = open(&storage, Durability::Always);
            let mut s = db.session().unwrap();
            s.insert(1, 10).unwrap();
            s.insert(2, 20).unwrap();
            assert_eq!(s.remove(&1).unwrap(), Some(10));
            s.write(|txn| {
                txn.insert(3, 30);
                txn.insert(4, 40);
            })
            .unwrap();
            assert_eq!(db.last_commit_ts(), 4);
        }
        let db = open(&storage, Durability::Always);
        assert_eq!(db.recovery().replayed, 4);
        assert_eq!(db.last_commit_ts(), 4);
        let mut s = db.session().unwrap();
        assert_eq!(s.get(&1), None);
        assert_eq!(s.get(&2), Some(20));
        assert_eq!(s.get(&3), Some(30));
        assert_eq!(s.get(&4), Some(40));
    }

    #[test]
    fn range_and_bulk_deltas_replay() {
        let storage = FaultStorage::unfaulted();
        {
            let db = open(&storage, Durability::Always);
            let mut s = db.session().unwrap();
            s.write(|txn| {
                txn.multi_insert((0..50u64).map(|k| (k, k)).collect(), |_o, n| *n);
            })
            .unwrap();
            s.remove_range(&10, &39).unwrap();
            s.write(|txn| txn.multi_remove(vec![0, 1, 2])).unwrap();
        }
        let db = open(&storage, Durability::Always);
        let mut s = db.session().unwrap();
        assert_eq!(s.len(), 17);
        assert_eq!(s.get(&5), Some(5));
        assert_eq!(s.get(&10), None);
        assert_eq!(s.get(&40), Some(40));
        assert_eq!(s.get(&0), None);
    }

    #[test]
    fn merged_values_are_logged_not_the_raw_batch() {
        let storage = FaultStorage::unfaulted();
        {
            let db = open(&storage, Durability::Always);
            let mut s = db.session().unwrap();
            s.insert(7, 100).unwrap();
            // Sum-combine with the existing value and an in-batch dup:
            // replay must see 100 + 1 + 2 = 103 without the combine fn.
            s.write(|txn| {
                txn.multi_insert(vec![(7, 1), (7, 2)], |old, new| old + new);
            })
            .unwrap();
            assert_eq!(s.get(&7), Some(103));
        }
        let db = open(&storage, Durability::Always);
        assert_eq!(db.session().unwrap().get(&7), Some(103));
    }

    #[test]
    fn checkpoint_truncates_and_recovery_prefers_it() {
        let storage = FaultStorage::unfaulted();
        {
            let db = open(&storage, Durability::Always);
            let mut s = db.session().unwrap();
            for k in 0..20u64 {
                s.insert(k, k * 3).unwrap();
            }
            let ts = db.checkpoint().unwrap();
            assert_eq!(ts, 20);
            s.insert(100, 1).unwrap(); // WAL tail beyond the checkpoint
        }
        let db = open(&storage, Durability::Always);
        let report = db.recovery();
        assert_eq!(report.checkpoint_ts, Some(20));
        assert_eq!(report.checkpoint_entries, 20);
        assert_eq!(report.replayed, 1, "only the tail replays");
        let mut s = db.session().unwrap();
        assert_eq!(s.len(), 21);
        assert_eq!(s.get(&100), Some(1));
    }

    #[test]
    fn durability_off_persists_nothing_but_checkpoints() {
        let storage = FaultStorage::unfaulted();
        {
            let db = open(&storage, Durability::Off);
            assert!(!db.durable());
            let mut s = db.session().unwrap();
            s.insert(1, 1).unwrap();
            db.checkpoint().unwrap();
            s.insert(2, 2).unwrap(); // after the checkpoint: lost on crash
            assert_eq!(db.wal_bytes(), 0);
        }
        let db = open(&storage, Durability::Off);
        let mut s = db.session().unwrap();
        assert_eq!(s.get(&1), Some(1), "checkpointed commit survives");
        assert_eq!(s.get(&2), None, "post-checkpoint Off commit is lost");
    }

    #[test]
    fn failed_fsync_does_not_resurrect_the_aborted_commit() {
        use mvcc_wal::FaultPlan;
        // Commit A's fsync fails after its frame was appended: the log
        // must roll the frame back so commit B can take the same
        // commit_ts. Recovery must yield exactly B — the old bug replayed
        // A and skipped B.
        let storage = FaultStorage::new(
            FaultPlan {
                transient_sync_failures: 1,
                ..FaultPlan::default()
            },
            29,
        );
        let db: DurableDatabase<U64Map> = DurableDatabase::recover_storage(
            Arc::new(storage.clone()),
            2,
            DurableConfig::default(),
        )
        .unwrap();
        let mut s = db.session().unwrap();
        let err = s.insert(1, 10).expect_err("first commit's fsync fails");
        assert!(matches!(err, DurableError::Wal(WalError::Io { .. })));
        s.insert(2, 20).unwrap();
        assert_eq!(db.last_commit_ts(), 1);
        drop(s);
        drop(db);

        let db = open(&storage, Durability::Always);
        assert_eq!(db.recovery().replayed, 1);
        let mut s = db.session().unwrap();
        assert_eq!(s.get(&1), None, "the failed commit must not come back");
        assert_eq!(s.get(&2), Some(20), "the acked commit must survive");
    }

    #[test]
    fn off_checkpoints_rotate_names_and_keep_fallback_redundancy() {
        let storage = FaultStorage::unfaulted();
        {
            let db = open(&storage, Durability::Off);
            let mut s = db.session().unwrap();
            s.insert(1, 1).unwrap();
            let ts1 = db.checkpoint().unwrap();
            s.insert(2, 2).unwrap();
            let ts2 = db.checkpoint().unwrap();
            assert!(ts2 > ts1, "Off checkpoints must get distinct names");
            // Both published images exist: KEEP_CHECKPOINTS redundancy.
            let cks: Vec<String> = storage
                .list()
                .unwrap()
                .into_iter()
                .filter(|n| n.ends_with(".ck"))
                .collect();
            assert_eq!(cks.len(), 2, "previous checkpoint destroyed: {cks:?}");
        }
        // Corrupt the newest: recovery falls back to the previous image.
        let newest = storage
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".ck"))
            .max()
            .unwrap();
        storage.truncate(&newest, 10).unwrap();
        let db = open(&storage, Durability::Off);
        let mut s = db.session().unwrap();
        assert_eq!(s.get(&1), Some(1), "fallback image restores commit 1");
        assert_eq!(s.get(&2), None, "newest (corrupt) image is not used");
    }

    #[test]
    fn tx_ids_stay_monotone_across_checkpoint_recovery() {
        // Tiny segments so every frame seals and the checkpoint leaves an
        // empty WAL tail — next_tx must then come from the checkpoint.
        let cfg = || DurableConfig {
            segment_bytes: 1,
            ..DurableConfig::default()
        };
        let storage = FaultStorage::unfaulted();
        {
            let db: DurableDatabase<U64Map> =
                DurableDatabase::recover_storage(Arc::new(storage.clone()), 2, cfg()).unwrap();
            let mut s = db.session().unwrap();
            for k in 0..3u64 {
                s.insert(k, k).unwrap(); // tx_id 1..=3
            }
            db.checkpoint().unwrap();
        }
        {
            let db: DurableDatabase<U64Map> =
                DurableDatabase::recover_storage(Arc::new(storage.clone()), 2, cfg()).unwrap();
            assert_eq!(db.recovery().replayed, 0, "tail fully truncated");
            db.session().unwrap().insert(9, 9).unwrap(); // must be tx_id 4
        }
        let (_, replay) = mvcc_wal::Wal::open(
            Arc::new(storage.clone()),
            mvcc_wal::WalConfig {
                segment_bytes: 1,
                ..mvcc_wal::WalConfig::default()
            },
        )
        .unwrap();
        let tx: Vec<u64> = replay.batches.iter().map(|b| b.tx_id).collect();
        assert_eq!(tx, vec![4], "tx_id restarted instead of staying monotone");
    }

    #[test]
    fn wal_error_leaves_memory_untouched() {
        use mvcc_wal::FaultPlan;
        let storage = FaultStorage::new(
            FaultPlan {
                // Segment header survives open (one transient), then the
                // first commit's append fails beyond the retry budget.
                transient_append_failures: u64::MAX,
                ..FaultPlan::default()
            },
            3,
        );
        // Header append also fails => open itself errors typed.
        let r: Result<DurableDatabase<U64Map>, _> =
            DurableDatabase::recover_storage(Arc::new(storage), 1, DurableConfig::default());
        assert!(matches!(r, Err(DurableError::Wal(WalError::Io { .. }))));
    }

    #[test]
    fn raw_writer_race_is_a_typed_error() {
        let storage = FaultStorage::unfaulted();
        let db = open(&storage, Durability::Always);
        let mut s = db.session().unwrap();
        s.insert(1, 1).unwrap();
        let err = s
            .write(|txn| {
                // A contract-violating raw write sneaks in mid-transaction.
                let mut raw = db.database().session().unwrap();
                raw.insert(99, 99);
                txn.insert(2, 2);
            })
            .expect_err("set must lose to the raw writer");
        assert!(matches!(err, DurableError::RacedByRawWriter));
        // The durable session keeps working afterwards.
        s.insert(3, 3).unwrap();
        assert_eq!(s.get(&3), Some(3));
    }

    #[test]
    fn leader_group_commit_coalesces_concurrent_commits() {
        let storage = FaultStorage::unfaulted();
        {
            let db: DurableDatabase<U64Map> = DurableDatabase::recover_storage(
                Arc::new(storage.clone()),
                4,
                DurableConfig::default().with_group_commit(GroupCommit::Leader),
            )
            .unwrap();
            assert_eq!(db.group_commit(), GroupCommit::Leader);
            let db = &db;
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    scope.spawn(move || {
                        let mut s = db.session().unwrap();
                        for j in 0..25u64 {
                            s.insert(t * 1000 + j, j).unwrap();
                        }
                    });
                }
            });
            let stats = db.durable_stats();
            assert_eq!(stats.batches_flushed, 100, "every commit flushed");
            assert_eq!(stats.pending_batches, 0, "acked means flushed");
            assert!(stats.groups_flushed >= 1);
            assert!(stats.groups_flushed <= stats.batches_flushed);
            assert!(stats.mean_group() >= 1.0);
        }
        let db = open(&storage, Durability::Always);
        assert_eq!(db.recovery().replayed, 100);
        assert_eq!(db.session().unwrap().len(), 100);
    }

    #[test]
    fn two_leader_writers_share_fsyncs_over_a_slow_disk() {
        // A leader holds its flush for the other writer, which announced
        // itself before queueing for the commit lock: the two share one
        // fsync instead of strictly alternating.
        let storage = FaultStorage::new(
            mvcc_wal::FaultPlan {
                sync_latency: Duration::from_millis(2),
                ..mvcc_wal::FaultPlan::default()
            },
            7,
        );
        let cfg = DurableConfig::default().with_group_commit(GroupCommit::Leader);
        let mut model = std::collections::BTreeMap::new();
        {
            let db: DurableDatabase<U64Map> =
                DurableDatabase::recover_storage(Arc::new(storage.clone()), 2, cfg.clone())
                    .unwrap();
            let db = &db;
            std::thread::scope(|scope| {
                for t in 0..2u64 {
                    scope.spawn(move || {
                        let mut s = db.session().unwrap();
                        for i in 0..300u64 {
                            s.write(|txn| txn.insert(t * 1000 + i % 50, i)).unwrap();
                        }
                    });
                }
            });
            for t in 0..2u64 {
                for i in 250..300u64 {
                    model.insert(t * 1000 + i % 50, i);
                }
            }
            let stats = db.durable_stats();
            assert_eq!(stats.batches_flushed, 600);
            assert!(
                stats.mean_group() >= 1.6,
                "writers alternated instead of grouping: {stats:?}"
            );
            assert!(stats.holds > 0, "{stats:?}");
        }
        let db: DurableDatabase<U64Map> =
            DurableDatabase::recover_storage(Arc::new(storage.crash_view()), 2, cfg).unwrap();
        assert_eq!(db.recovery().replayed, 600);
        let contents: Vec<(u64, u64)> = db.session().unwrap().read(|s| s.to_vec());
        assert_eq!(contents, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn write_acked_overlaps_work_with_the_flush() {
        let storage = FaultStorage::unfaulted();
        let db: DurableDatabase<U64Map> = DurableDatabase::recover_storage(
            Arc::new(storage.clone()),
            2,
            DurableConfig::default().with_group_commit(GroupCommit::Leader),
        )
        .unwrap();
        let mut s = db.session().unwrap();
        let (_, a1) = s
            .write_acked(|txn| {
                txn.insert(1, 1);
            })
            .unwrap();
        let (_, a2) = s
            .write_acked(|txn| {
                txn.insert(2, 2);
            })
            .unwrap();
        // Both commits are visible before anyone waited on durability.
        assert_eq!(s.get(&1), Some(1));
        assert_eq!(s.get(&2), Some(2));
        assert_eq!(a1.commit_ts(), Some(1));
        assert_eq!(a2.commit_ts(), Some(2));
        // Waiting on the later ack flushes the whole pending group, so
        // the earlier commit becomes durable with it.
        a2.wait().unwrap();
        assert!(a1.is_durable());
        a1.wait().unwrap();
        let stats = db.durable_stats();
        assert_eq!(stats.pending_batches, 0);
        assert_eq!(stats.max_group, 2, "the two commits shared one flush");
    }

    #[test]
    fn group_commit_downgrades_to_serial_without_always() {
        let storage = FaultStorage::unfaulted();
        let db: DurableDatabase<U64Map> = DurableDatabase::recover_storage(
            Arc::new(storage.clone()),
            2,
            DurableConfig::default()
                .with_durability(Durability::EveryN(4))
                .with_group_commit(GroupCommit::Leader),
        )
        .unwrap();
        assert_eq!(
            db.group_commit(),
            GroupCommit::Serial,
            "EveryN already amortizes fsyncs; grouping applies to Always only"
        );
        let mut s = db.session().unwrap();
        let (_, ack) = s
            .write_acked(|txn| {
                txn.insert(1, 1);
            })
            .unwrap();
        assert!(ack.is_durable(), "serial acks are satisfied immediately");
        ack.wait().unwrap();
    }

    #[test]
    fn poisoned_group_flush_fails_waiters_and_later_commits() {
        use mvcc_wal::FaultPlan;
        let storage = FaultStorage::new(
            FaultPlan {
                crash_at_sync: Some(0),
                ..FaultPlan::default()
            },
            7,
        );
        let db: DurableDatabase<U64Map> = DurableDatabase::recover_storage(
            Arc::new(storage.clone()),
            2,
            DurableConfig::default().with_group_commit(GroupCommit::Leader),
        )
        .unwrap();
        let mut s = db.session().unwrap();
        // The commit becomes visible, but its group flush dies at the
        // fsync — after the frame entered the commit-ordered tail, so it
        // cannot be rolled back without creating a replay-order gap.
        let (_, ack) = s
            .write_acked(|txn| {
                txn.insert(1, 1);
            })
            .unwrap();
        assert!(ack.wait().is_err(), "flush failure must surface");
        assert_eq!(s.get(&1), Some(1), "the commit stays visible in memory");
        // Later durable commits refuse before becoming visible: the log
        // is poisoned and enqueue fails fast.
        let err = s.insert(2, 2).expect_err("poisoned log takes no commits");
        assert!(matches!(err, DurableError::Wal(WalError::Poisoned)));
        assert_eq!(s.get(&2), None, "the refused commit never became visible");
    }

    fn wal_disk_bytes(storage: &FaultStorage) -> u64 {
        storage
            .list()
            .unwrap()
            .iter()
            .filter(|n| is_segment_name(n))
            .map(|n| storage.len(n).unwrap())
            .sum()
    }

    /// Segments of one byte: every commit seals its segment, so a
    /// checkpoint is due as soon as anything is logged.
    fn sealing_every_commit() -> DurableConfig {
        DurableConfig {
            segment_bytes: 1,
            ..DurableConfig::default()
        }
    }

    fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn wal_bytes_counts_sealed_segments_across_a_roll() {
        let storage = FaultStorage::unfaulted();
        let cfg = DurableConfig {
            segment_bytes: 256,
            ..DurableConfig::default()
        };
        {
            let db: DurableDatabase<U64Map> =
                DurableDatabase::recover_storage(Arc::new(storage.clone()), 2, cfg.clone())
                    .unwrap();
            let mut s = db.session().unwrap();
            for k in 0..64u64 {
                s.insert(k, k).unwrap();
            }
            // The log rolled: the active segment alone is under the
            // threshold, so equality with the on-disk total proves the
            // sealed segments are counted too.
            assert!(db.wal_bytes() > 256, "no roll happened");
            assert_eq!(db.wal_bytes(), wal_disk_bytes(&storage));
            let before = db.wal_bytes();
            db.checkpoint().unwrap();
            assert!(db.wal_bytes() < before, "truncation must shrink it");
            assert_eq!(db.wal_bytes(), wal_disk_bytes(&storage));
        }
        // Re-opened with logging off: the segments still on disk are the
        // footprint the supervisor must see, not zero.
        let db: DurableDatabase<U64Map> = DurableDatabase::recover_storage(
            Arc::new(storage.clone()),
            2,
            DurableConfig {
                durability: Durability::Off,
                ..cfg
            },
        )
        .unwrap();
        assert!(db.wal_bytes() > 0, "Off must still count on-disk segments");
        assert_eq!(db.wal_bytes(), wal_disk_bytes(&storage));
        // An Off checkpoint covers and retires them.
        db.checkpoint().unwrap();
        assert_eq!(db.wal_bytes(), 0);
        assert_eq!(wal_disk_bytes(&storage), 0);
    }

    #[test]
    fn maintenance_tick_checkpoints_on_bytes_threshold() {
        let storage = FaultStorage::unfaulted();
        let db: DurableDatabase<U64Map> = DurableDatabase::recover_storage(
            Arc::new(storage.clone()),
            2,
            DurableConfig {
                segment_bytes: 256,
                ..DurableConfig::default()
            },
        )
        .unwrap();
        let policy = MaintenancePolicy::default().with_wal_bytes_threshold(512);
        assert_eq!(db.maintenance_tick(&policy), MaintenanceTick::Idle);
        let mut s = db.session().unwrap();
        while db.wal_bytes() < 512 {
            s.insert(db.wal_bytes(), 1).unwrap();
        }
        let ts = match db.maintenance_tick(&policy) {
            MaintenanceTick::Checkpointed(ts) => ts,
            other => panic!("expected a checkpoint, got {other:?}"),
        };
        assert_eq!(ts, db.last_commit_ts());
        assert!(db.wal_bytes() < 512, "checkpoint must reclaim the log");
        let stats = db.maintenance_stats();
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.last_checkpoint_ts, ts);
        assert_eq!(db.health(), Health::Ok);
        // Nothing new committed: the staleness guard skips a rewrite
        // even though time keeps passing.
        assert_eq!(
            db.maintenance_tick(&MaintenancePolicy::default().with_interval(Duration::ZERO)),
            MaintenanceTick::Idle
        );
    }

    #[test]
    fn a_threshold_below_the_segment_size_checkpoints_per_sealed_segment() {
        // No checkpoint can shrink the log below its active segment, so a
        // 1 KiB threshold over 64 KiB segments must not checkpoint on
        // every tick — only when a sealed segment is there to retire.
        let storage = FaultStorage::unfaulted();
        let db: DurableDatabase<U64Map> = DurableDatabase::recover_storage(
            Arc::new(storage.clone()),
            2,
            DurableConfig {
                segment_bytes: 64 << 10,
                ..DurableConfig::default()
            },
        )
        .unwrap();
        let policy = MaintenancePolicy::default().with_wal_bytes_threshold(1 << 10);
        let mut s = db.session().unwrap();
        for i in 0..200u64 {
            s.write(|txn| {
                txn.multi_insert((0..32).map(|k| (i * 32 + k, i)).collect(), |_o, n| *n);
            })
            .unwrap();
            assert_ne!(db.maintenance_tick(&policy), MaintenanceTick::Failed);
        }
        let newest = storage
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| is_segment_name(n))
            .max()
            .unwrap();
        let sealed: u64 = newest[4..12].parse::<u64>().unwrap() - 1;
        assert!(sealed >= 2, "the load must seal segments: {sealed}");
        let checkpoints = db.maintenance_stats().checkpoints;
        assert!(
            (1..=sealed + 1).contains(&checkpoints),
            "{checkpoints} checkpoints for {sealed} sealed segments"
        );
    }

    #[test]
    fn maintenance_degrades_then_recovers_to_ok() {
        use mvcc_wal::FaultPlan;
        let storage = FaultStorage::new(
            FaultPlan {
                transient_checkpoint_failures: 2,
                ..FaultPlan::default()
            },
            5,
        );
        let db: DurableDatabase<U64Map> =
            DurableDatabase::recover_storage(Arc::new(storage.clone()), 2, sealing_every_commit())
                .unwrap();
        db.session().unwrap().insert(1, 1).unwrap();
        let policy = MaintenancePolicy::default()
            .with_wal_bytes_threshold(1)
            .with_max_backoff(Duration::from_millis(2));
        assert_eq!(db.maintenance_tick(&policy), MaintenanceTick::Failed);
        match db.health() {
            Health::Degraded { retries, .. } => assert_eq!(retries, 1),
            Health::Ok => panic!("first failure must degrade"),
        }
        // Commits keep flowing while maintenance is degraded.
        db.session().unwrap().insert(2, 2).unwrap();
        // Retry through the (jittered, capped) backoff until it heals.
        let mut failed = 1u64;
        loop {
            match db.maintenance_tick(&policy) {
                MaintenanceTick::Checkpointed(_) => break,
                MaintenanceTick::Failed => failed += 1,
                MaintenanceTick::Backoff => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(failed, 2, "exactly the injected failures");
        assert_eq!(db.health(), Health::Ok, "first success heals");
        let stats = db.maintenance_stats();
        assert_eq!(stats.failures, 2);
        assert_eq!(stats.checkpoints, 1);
        assert!(stats.skipped_backoff > 0, "backoff was exercised");
    }

    #[test]
    fn start_maintenance_checkpoints_in_background_and_joins() {
        let storage = FaultStorage::unfaulted();
        let db: Arc<DurableDatabase<U64Map>> = Arc::new(
            DurableDatabase::recover_storage(
                Arc::new(storage.clone()),
                2,
                DurableConfig {
                    segment_bytes: 256,
                    ..DurableConfig::default()
                },
            )
            .unwrap(),
        );
        let handle =
            db.start_maintenance(MaintenancePolicy::default().with_wal_bytes_threshold(512));
        let mut s = db.session().unwrap();
        for k in 0..200u64 {
            s.insert(k, k).unwrap();
        }
        // Once the writers stop, the supervisor must both have
        // checkpointed and have brought the footprint back under the
        // threshold (plus at most one unsealed segment).
        wait_until(
            || db.maintenance_stats().checkpoints >= 1 && db.wal_bytes() < 512 + 256,
            "background checkpoint to bound the log",
        );
        drop(s);
        handle.shutdown();
        // The database is fully usable after the supervisor is gone.
        db.session().unwrap().insert(999, 9).unwrap();
        db.checkpoint().unwrap();
    }

    #[test]
    fn maintenance_handle_drop_is_prompt_mid_backoff() {
        use mvcc_wal::FaultPlan;
        let storage = FaultStorage::new(
            FaultPlan {
                fail_checkpoint_writes: true,
                ..FaultPlan::default()
            },
            9,
        );
        let db: Arc<DurableDatabase<U64Map>> = Arc::new(
            DurableDatabase::recover_storage(Arc::new(storage.clone()), 2, sealing_every_commit())
                .unwrap(),
        );
        db.session().unwrap().insert(1, 1).unwrap();
        // A backoff far longer than the test: drop must not wait it out.
        let handle = db.start_maintenance(
            MaintenancePolicy::default()
                .with_wal_bytes_threshold(1)
                .with_max_backoff(Duration::from_secs(3600)),
        );
        wait_until(|| db.health().is_degraded(), "degraded health");
        let t0 = Instant::now();
        drop(handle);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "drop blocked on the backoff: {:?}",
            t0.elapsed()
        );
        // Degradation stalled reclamation only: the WAL takes commits.
        db.session().unwrap().insert(2, 2).unwrap();
    }

    #[test]
    fn maintenance_handle_drop_waits_out_in_flight_checkpoint() {
        let storage = FaultStorage::unfaulted();
        let db: Arc<DurableDatabase<U64Map>> = Arc::new(
            DurableDatabase::recover_storage(Arc::new(storage.clone()), 2, sealing_every_commit())
                .unwrap(),
        );
        // A big image makes the snapshot walk take real time, so the
        // drop below almost certainly lands mid-checkpoint.
        let mut s = db.session().unwrap();
        s.write(|txn| {
            txn.multi_insert((0..50_000u64).map(|k| (k, k)).collect(), |_o, n| *n);
        })
        .unwrap();
        drop(s);
        let handle = db.start_maintenance(MaintenancePolicy::default().with_wal_bytes_threshold(1));
        std::thread::sleep(Duration::from_millis(1));
        drop(handle); // joins; must not tear the image or poison the WAL
        assert_eq!(db.health(), Health::Ok);
        db.session().unwrap().insert(999_999, 1).unwrap();
        db.checkpoint().unwrap();
        drop(db);
        let db = open(&storage, Durability::Always);
        assert!(db.recovery().checkpoint_ts.is_some());
        assert_eq!(db.session().unwrap().len(), 50_001);
    }

    #[test]
    fn redline_escalates_to_commit_backpressure_and_clears() {
        let storage = FaultStorage::unfaulted();
        let db: DurableDatabase<U64Map> = DurableDatabase::recover_storage(
            Arc::new(storage.clone()),
            2,
            DurableConfig {
                segment_bytes: 256,
                ..DurableConfig::default()
            }
            .with_group_commit(GroupCommit::Leader),
        )
        .unwrap();
        let policy = MaintenancePolicy::default()
            .with_wal_bytes_threshold(0) // isolate the red line
            .with_redline_bytes(600);
        let mut s = db.session().unwrap();
        while db.wal_bytes() < 600 {
            s.insert(db.wal_bytes(), 1).unwrap();
        }
        assert_eq!(db.maintenance_tick(&policy), MaintenanceTick::Idle);
        let stats = db.maintenance_stats();
        assert!(stats.redline_engaged);
        assert_eq!(stats.redline_engagements, 1);
        // With one commit already pending, the next one must block for a
        // flush — the existing bounded-queue backpressure, forced by the
        // narrowed watermark.
        let blocked_before = db.durable_stats().blocked_enqueues;
        let (_, a1) = s.write_acked(|txn| txn.insert(9_001, 1)).unwrap();
        let (_, a2) = s.write_acked(|txn| txn.insert(9_002, 2)).unwrap();
        a1.wait().unwrap();
        a2.wait().unwrap();
        assert!(
            db.durable_stats().blocked_enqueues > blocked_before,
            "red line never produced backpressure"
        );
        // A checkpoint shrinks the footprint; the next tick clears it.
        let ts = db.checkpoint().unwrap();
        assert_eq!(ts, db.last_commit_ts());
        assert!(db.wal_bytes() < 600);
        assert_eq!(db.maintenance_tick(&policy), MaintenanceTick::Idle);
        assert!(!db.maintenance_stats().redline_engaged);
        // And enqueues flow freely again.
        let (_, a3) = s.write_acked(|txn| txn.insert(9_003, 3)).unwrap();
        let (_, a4) = s.write_acked(|txn| txn.insert(9_004, 4)).unwrap();
        a4.wait().unwrap();
        a3.wait().unwrap();
    }

    #[test]
    fn recover_sweeps_stale_checkpoint_tmp_files() {
        let storage = FaultStorage::unfaulted();
        {
            let db = open(&storage, Durability::Always);
            db.session().unwrap().insert(1, 1).unwrap();
            db.checkpoint().unwrap();
        }
        // A checkpointer died before its rename: two orphaned tmps.
        storage
            .append("ckpt-00000000000000aa.tmp", b"torn image")
            .unwrap();
        storage
            .append("ckpt-00000000000000ab.tmp", b"torn image")
            .unwrap();
        let db = open(&storage, Durability::Always);
        assert_eq!(db.recovery().swept_tmp, 2);
        assert!(
            !storage.list().unwrap().iter().any(|n| n.ends_with(".tmp")),
            "recovery must not leak tmp files"
        );
        assert_eq!(db.session().unwrap().get(&1), Some(1));
    }

    #[test]
    fn double_recovery_is_idempotent() {
        let storage = FaultStorage::unfaulted();
        {
            let db = open(&storage, Durability::Always);
            let mut s = db.session().unwrap();
            for k in 0..10u64 {
                s.insert(k, k).unwrap();
            }
        }
        let once = open(&storage, Durability::Always);
        let first: Vec<(u64, u64)> = once.session().unwrap().read(|s| s.to_vec());
        let ts = once.last_commit_ts();
        drop(once);
        let twice = open(&storage, Durability::Always);
        assert_eq!(twice.session().unwrap().read(|s| s.to_vec()), first);
        assert_eq!(twice.last_commit_ts(), ts);
        assert_eq!(twice.recovery().skipped, 0);
        assert_eq!(twice.recovery().replayed, 10);
    }
}
