//! # mvcc-core — the multiversion transactional framework (Figure 1)
//!
//! This crate assembles the paper's primary contribution: a transactional
//! system over purely functional data structures in which
//!
//! * **read transactions are delay-free** — `acquire` (O(1) with PSWF),
//!   then the unmodified sequential user code on an immutable snapshot
//!   (Theorem 5.4);
//! * **a single writer has O(P) delay** — `acquire` + user code
//!   (path-copying) + `set` (O(P));
//! * **concurrent writers are lock-free** — a failed `set` implies another
//!   writer succeeded; the loser collects its speculative version and
//!   retries;
//! * **garbage collection is safe and precise** (Theorem 5.3) — `release`
//!   returns a version exactly when its last holder lets go, and
//!   [`mvcc_ftree::Forest::release`] then frees exactly the tuples
//!   unreachable from every other live version, in time linear in the
//!   garbage (Theorem 4.2).
//!
//! ## Sessions
//!
//! The VM problem hands each of the `P` process ids to "at most one
//! thread at a time". Rather than trusting every call site with a raw
//! `pid: usize`, the API leases pids: [`Database::session`] pops a free
//! pid from a lock-free registry and returns a [`Session`] — a `Send +
//! !Sync` handle owning the pid, a pinned arena shard, a reusable release
//! buffer and local transaction counters. All transactions run through
//! the session; the pid returns to the pool on drop.
//!
//! The transaction skeletons are Figure 1, expressed on a session:
//!
//! ```
//! use mvcc_core::Database;
//! use mvcc_core::ftree::SumU64Map;
//!
//! let db: Database<SumU64Map> = Database::new(2);
//!
//! // Lease a session (Figure 1's process k).
//! let mut writer = db.session().unwrap();
//!
//! // Write transaction: acquire; user code on a mutable view; set;
//! // release -> collect. Retries on a concurrent commit.
//! writer.write(|txn| {
//!     txn.insert(1, 10);
//!     txn.insert(2, 20);
//! });
//!
//! // Read transaction: acquire; user code on an immutable snapshot;
//! // release -> collect. Delay-free.
//! let mut reader = db.session().unwrap();
//! assert_eq!(reader.read(|snap| snap.aug_total()), 30);
//!
//! // Leases are exclusive: the pids are taken until a session drops.
//! assert!(db.session().is_err());
//! drop(reader);
//! assert!(db.session().is_ok());
//! ```
//!
//! Bulk operations keep the raw closure form ([`Session::write_raw`])
//! where user code consumes and returns owned roots directly.
//!
//! ## Session pools and the shard router — beyond `P` sessions
//!
//! `Database::session()` fails with `Err(Exhausted)` once all `P` pids
//! are leased. The [`pool`] module decouples logical sessions from that
//! physical bound:
//!
//! * [`Database::pool`] returns a [`SessionPool`] whose
//!   [`acquire`](SessionPool::acquire) parks the caller on a FIFO wait
//!   queue until a pid frees (a dropping session wakes exactly the front
//!   waiter through the pid pool's release hook); `acquire_timeout`
//!   bounds the wait.
//! * [`Router`] shards keys over `N` independent databases by seeded
//!   hash, for `N×P` aggregate capacity — `router.session(&tenant)`
//!   leases (waiting, per shard) on the shard that tenant always maps to.
//!
//! ```
//! use mvcc_core::{Database, Router};
//! use mvcc_core::ftree::U64Map;
//!
//! let db: Database<U64Map> = Database::new(1);
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let pool = db.pool();
//!         // Four logical sessions share one pid: acquire() waits its
//!         // turn instead of erroring.
//!         s.spawn(move || pool.acquire().insert(t, t));
//!     }
//! });
//!
//! let router: Router<U64Map> = Router::new(8, 2); // 8 shards × 2 pids
//! router.session(&"tenant-7").insert(1, 1);
//! assert_eq!(router.capacity(), 16);
//! ```
//!
//! [`Database`] is generic over the [`VersionMaintenance`] algorithm, so
//! the §7.1 experiments can swap PSWF / PSLF / HP / EP / RCU under an
//! identical transaction layer. [`batch`] adds the Appendix F
//! flat-combining single-writer that turns concurrent update requests into
//! atomically-committed parallel batches.
//!
//! ## Durability
//!
//! Everything above is memory-only: a process crash loses every commit.
//! The [`durable`] module (backed by the `mvcc-wal` crate) wraps a
//! database with a write-ahead log, snapshot-consistent checkpoints and
//! crash recovery:
//!
//! ```
//! use mvcc_core::{Durability, DurableConfig, DurableDatabase};
//! use mvcc_core::ftree::U64Map;
//! use mvcc_core::wal::FaultStorage;
//! use std::sync::Arc;
//!
//! // Open-or-recover; an empty store yields an empty database. (A real
//! // deployment uses `DurableDatabase::recover("path/to/dir", ..)`.)
//! let storage = Arc::new(FaultStorage::unfaulted());
//! let cfg = DurableConfig { durability: Durability::Always, ..Default::default() };
//! let db: DurableDatabase<U64Map> =
//!     DurableDatabase::recover_storage(storage.clone(), 2, cfg.clone()).unwrap();
//! let mut s = db.session().unwrap();
//! s.insert(1, 10).unwrap(); // in the WAL (fsynced) before it is visible
//! drop(s);
//! drop(db); // crash-equivalent: no checkpoint, just the log
//!
//! let db: DurableDatabase<U64Map> =
//!     DurableDatabase::recover_storage(storage, 2, cfg).unwrap();
//! let mut s = db.session().unwrap();
//! assert_eq!(s.get(&1), Some(10));
//! ```
//!
//! A durable write transaction is not a second mechanism: user code gets
//! the same [`WriteTxn`] (with a delta log attached), and the commit is
//! the same skeleton with the WAL publish as its one step before `set`.
//!
//! The [`Durability`] policy trades the crash-loss window against commit
//! latency: `Always` fsyncs every commit, `EveryN(n)` amortizes (a
//! crash loses at most the last `n - 1` acknowledged commits, always
//! from the tail), and `Off` preserves this crate's in-memory behavior
//! and performance exactly — the lock-free commit path, no logging —
//! with only explicit [`DurableDatabase::checkpoint`] calls persisting
//! state. Orthogonally, [`GroupCommit`] decides how concurrent `Always`
//! committers share fsyncs: `Serial` pays one per commit inside the
//! commit lock; `Leader` enqueues inside the lock and coalesces
//! overlapping commits into one group fsync outside it, acknowledged
//! through awaitable [`CommitAck`]s ([`DurableSession::write_acked`])
//! and measured by [`DurableStats`]. The recovery contract: the newest
//! valid checkpoint is loaded, the WAL tail after it is replayed in
//! `commit_ts` order, a torn tail ends replay at the last intact record
//! (and is truncated away), a coalesced group replays all-or-nothing,
//! and recovering the same store twice is idempotent.
//!
//! The workspace-level `ARCHITECTURE.md` maps this crate's place in the
//! full stack (arena → version maintenance → trees → transactions →
//! WAL/network) and the invariants each boundary keeps.

pub mod batch;
pub mod durable;
pub mod pool;
mod session;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mvcc_ftree::{Forest, OptNodeId, Root, TreeParams};
use mvcc_vm::{PidPool, PswfVm, VersionMaintenance, VmKind};

pub use batch::{BatchWriter, MapOp, SubmitError};
pub use durable::{
    CommitAck, Durability, DurableConfig, DurableDatabase, DurableError, DurableSession,
    DurableStats, GroupCommit, Health, MaintenanceHandle, MaintenanceHook, MaintenancePolicy,
    MaintenanceStats, MaintenanceTick, RecoveryReport,
};
pub use mvcc_ftree as ftree;
pub use mvcc_vm as vm;
/// Error returned by [`Database::session`] / [`Database::session_for`]:
/// the pool is exhausted or the requested pid is already leased.
pub use mvcc_vm::LeaseError as SessionError;
pub use mvcc_wal as wal;
pub use pool::{AcquireFuture, AcquireState, AcquireTimeout, PoolStats, Router, SessionPool};
pub use session::{Session, SessionReadGuard, WriteTxn};

#[inline]
fn encode(root: Root) -> u64 {
    root.raw() as u64
}

#[inline]
fn decode(token: u64) -> Root {
    debug_assert!(token <= u32::MAX as u64, "corrupt version token");
    OptNodeId::from_raw(token as u32)
}

/// Cumulative transaction statistics (monotone counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Committed write transactions.
    pub commits: u64,
    /// Aborted `set` attempts (each implies a concurrent successful write).
    pub aborts: u64,
    /// Completed read transactions.
    pub reads: u64,
}

/// A multiversion ordered-map database: one [`Forest`] of tree versions
/// plus a Version Maintenance object deciding which versions are live.
///
/// `P` fixes key/value/augmentation types; `M` picks the VM algorithm
/// (default: the paper's PSWF). The `processes` process ids are handed
/// out as exclusive [`Session`] leases, and a lease is the only way to
/// run a transaction — no method takes a raw pid and runs one:
///
/// ```compile_fail,E0599
/// use mvcc_core::{ftree::U64Map, Database};
/// let db: Database<U64Map> = Database::new(1);
/// // Lease first: db.session()?.read(..)
/// db.read(0, |s| s.len());
/// ```
pub struct Database<P: TreeParams, M: VersionMaintenance = PswfVm> {
    forest: Forest<P>,
    vmo: M,
    pids: PidPool,
    /// FIFO wait queue for `pool().acquire()`; `Arc` because the pid
    /// pool's release hook (a `'static` closure) holds the other ref.
    pub(crate) waiters: Arc<pool::WaitQueue>,
    commits: AtomicU64,
    aborts: AtomicU64,
    reads: AtomicU64,
}

impl<P: TreeParams> Database<P, PswfVm> {
    /// An empty database using the PSWF algorithm for `processes`
    /// processes.
    pub fn new(processes: usize) -> Self {
        Self::with_vm(PswfVm::new(processes, encode(OptNodeId::NONE)))
    }
}

impl<P: TreeParams> Database<P, Box<dyn VersionMaintenance>> {
    /// An empty database using the given VM algorithm family — the
    /// experiment harness's entry point.
    pub fn with_kind(kind: VmKind, processes: usize) -> Self {
        Self::with_vm(kind.build(processes, encode(OptNodeId::NONE)))
    }
}

impl<P: TreeParams, M: VersionMaintenance> Database<P, M> {
    /// Wrap an explicit VM instance whose initial version must carry the
    /// nil-root token.
    pub fn with_vm(vmo: M) -> Self {
        assert_eq!(
            vmo.current(),
            encode(OptNodeId::NONE),
            "VM's initial version must be the empty tree"
        );
        let pids = PidPool::new(vmo.processes());
        let waiters = Arc::new(pool::WaitQueue::new());
        // Wake-on-release: a dropping `Session` releases its pid, and the
        // pool's hook unparks the FIFO wait queue — `pool().acquire()`
        // never polls.
        let wake = Arc::clone(&waiters);
        pids.add_release_hook(move |_pid| wake.notify());
        Database {
            forest: Forest::new(),
            pids,
            waiters,
            vmo,
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        }
    }

    /// Lease a free process id as a [`Session`].
    /// `Err(Exhausted)` when all `processes` pids are held.
    pub fn session(&self) -> Result<Session<'_, P, M>, SessionError> {
        Ok(Session::new(self, self.pids.lease()?))
    }

    /// Lease the specific process id `pid` (e.g. to pair a producer with
    /// a deterministic arena shard). `Err(PidLeased)` if it is held,
    /// `Err(OutOfRange)` if `pid >= processes()`.
    pub fn session_for(&self, pid: usize) -> Result<Session<'_, P, M>, SessionError> {
        self.pids.lease_exact(pid)?;
        Ok(Session::new(self, pid))
    }

    /// Number of currently leased sessions (racy snapshot, diagnostics).
    pub fn sessions_leased(&self) -> usize {
        self.pids.leased()
    }

    /// The waiting-mode session front end: [`SessionPool::acquire`]
    /// parks FIFO until a pid frees instead of returning
    /// `Err(Exhausted)`, so more logical sessions than `processes()` can
    /// share this database. The handle is `Copy`; every handle shares one
    /// wait queue.
    pub fn pool(&self) -> SessionPool<'_, P, M> {
        SessionPool::new(self)
    }

    /// The shared forest (for building batches outside transactions).
    pub fn forest(&self) -> &Forest<P> {
        &self.forest
    }

    /// The underlying Version Maintenance object (diagnostics).
    pub fn vm(&self) -> &M {
        &self.vmo
    }

    /// Number of process ids.
    pub fn processes(&self) -> usize {
        self.vmo.processes()
    }

    /// Snapshot of the global transaction counters.
    ///
    /// Live sessions count locally and flush here only when they drop,
    /// so a long-lived session's transactions are missing from this
    /// snapshot until then (consult [`Session::stats`] for its local
    /// tally) — the price of keeping three contended `fetch_add`s off
    /// every transaction.
    pub fn stats(&self) -> TxnStats {
        TxnStats {
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn flush_stats(&self, local: TxnStats) {
        if local.commits > 0 {
            self.commits.fetch_add(local.commits, Ordering::Relaxed);
        }
        if local.aborts > 0 {
            self.aborts.fetch_add(local.aborts, Ordering::Relaxed);
        }
        if local.reads > 0 {
            self.reads.fetch_add(local.reads, Ordering::Relaxed);
        }
    }

    /// Versions not yet collected (Table 2's "live versions" metric).
    pub fn live_versions(&self) -> u64 {
        self.vmo.uncollected_versions()
    }

    /// The common cleanup phase: release the pid's acquired version and
    /// precisely collect the trees of whatever stopped being live.
    pub(crate) fn finish_txn(&self, pid: usize, released: &mut Vec<u64>) {
        self.vmo.release(pid, released);
        for tok in released.drain(..) {
            self.forest.release(decode(tok));
        }
    }

    /// One write attempt (Figure 1, right) — the only commit skeleton in
    /// this crate: acquire, run user code on an owned snapshot root, the
    /// `before_visible` step, `set`, then release/collect. No counters —
    /// sessions account locally.
    ///
    /// `before_visible` sees the new root while it is still speculative
    /// (the durable commit publishes to the WAL there). Its `Err` means
    /// the transaction did not happen: the speculative version is
    /// collected and nothing became visible. `Ok(None)` is a `set` lost
    /// to a concurrent commit.
    pub(crate) fn try_write_core<R, E>(
        &self,
        pid: usize,
        released: &mut Vec<u64>,
        f: &mut impl FnMut(&Forest<P>, Root) -> (Root, R),
        before_visible: impl FnOnce(Root) -> Result<(), E>,
    ) -> Result<Option<R>, E> {
        let base = decode(self.vmo.acquire(pid));
        // Hand the user code an owned reference to the snapshot; the
        // version system keeps its own.
        self.forest.retain(base);
        let (new_root, result) = f(&self.forest, base);
        // Commit: ownership of `new_root`'s reference transfers to the
        // version system on success.
        let outcome = before_visible(new_root)
            .map(|()| self.vmo.set(pid, encode(new_root)).then_some(result));
        // ---- response (if committed) delivered; cleanup phase ----
        self.finish_txn(pid, released);
        if !matches!(outcome, Ok(Some(_))) {
            // Figure 1 line 7: collect the speculative version.
            self.forest.release(new_root);
        }
        outcome
    }
}

/// Error returned by [`Session::try_write`] when a concurrent writer
/// committed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "write transaction aborted by a concurrent commit")
    }
}

impl std::error::Error for Aborted {}

/// An immutable view of one version of the database — what read
/// transactions and writers' user code see. All queries run the plain
/// sequential tree code (delay-free).
pub struct Snapshot<'a, P: TreeParams> {
    forest: &'a Forest<P>,
    root: Root,
}

impl<'a, P: TreeParams> Snapshot<'a, P> {
    /// The version root (for advanced tree operations via
    /// [`Snapshot::forest`]).
    pub fn root(&self) -> Root {
        self.root
    }

    /// The forest the root lives in. The borrow is tied to the snapshot so
    /// references cannot outlive the transaction's active interval.
    pub fn forest(&self) -> &Forest<P> {
        self.forest
    }

    /// Look up a key. The returned borrow is tied to the snapshot, not the
    /// database — it cannot escape the transaction closure.
    pub fn get(&self, key: &P::K) -> Option<&P::V> {
        self.forest.get(self.root, key)
    }

    /// Does the snapshot contain `key`?
    pub fn contains(&self, key: &P::K) -> bool {
        self.forest.contains(self.root, key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.forest.size(self.root)
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monoid fold over the inclusive key range (O(log n)).
    pub fn aug_range(&self, lo: &P::K, hi: &P::K) -> P::Aug {
        self.forest.aug_range(self.root, lo, hi)
    }

    /// Fold over the whole snapshot.
    pub fn aug_total(&self) -> P::Aug {
        self.forest.aug_total(self.root)
    }

    /// In-order traversal.
    pub fn for_each(&self, mut f: impl FnMut(&P::K, &P::V)) {
        self.forest.for_each(self.root, &mut f);
    }

    /// Clone the snapshot out as a sorted vector.
    pub fn to_vec(&self) -> Vec<(P::K, P::V)> {
        self.forest.to_vec(self.root)
    }

    /// Smallest entry.
    pub fn min(&self) -> Option<(&P::K, &P::V)> {
        self.forest.min(self.root)
    }

    /// Largest entry.
    pub fn max(&self) -> Option<(&P::K, &P::V)> {
        self.forest.max(self.root)
    }

    /// The `i`-th smallest entry (0-based), in O(log n).
    pub fn kth(&self, i: usize) -> Option<(&P::K, &P::V)> {
        self.forest.kth(self.root, i)
    }

    /// Number of entries with key strictly below `key`, in O(log n).
    pub fn rank(&self, key: &P::K) -> usize {
        self.forest.rank(self.root, key)
    }

    /// In-order traversal restricted to the inclusive key range.
    pub fn range_for_each(&self, lo: &P::K, hi: &P::K, mut f: impl FnMut(&P::K, &P::V)) {
        self.forest.range_for_each(self.root, lo, hi, &mut f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_ftree::{SumU64Map, U64Map};

    #[test]
    fn snapshot_order_statistics() {
        let db: Database<U64Map> = Database::new(2);
        let mut w = db.session().unwrap();
        for k in [40u64, 10, 30, 20, 50] {
            w.insert(k, k * 2);
        }
        let mut r = db.session().unwrap();
        r.read(|s| {
            assert_eq!(s.min(), Some((&10, &20)));
            assert_eq!(s.max(), Some((&50, &100)));
            assert_eq!(s.kth(0), Some((&10, &20)));
            assert_eq!(s.kth(2), Some((&30, &60)));
            assert_eq!(s.kth(5), None);
            assert_eq!(s.rank(&10), 0);
            assert_eq!(s.rank(&35), 3);
            assert_eq!(s.rank(&99), 5);
            let mut seen = Vec::new();
            s.range_for_each(&20, &40, |k, _| seen.push(*k));
            assert_eq!(seen, vec![20, 30, 40]);
        });
    }

    #[test]
    fn remove_range_is_one_atomic_commit() {
        let db: Database<SumU64Map> = Database::new(2);
        let mut w = db.session().unwrap();
        w.write(|txn| {
            let init: Vec<(u64, u64)> = (0..100).map(|k| (k, 1)).collect();
            txn.multi_insert(init, |_o, v| *v);
        });
        let before = w.stats().commits;
        w.remove_range(&10, &89);
        assert_eq!(w.stats().commits, before + 1, "single commit");
        let mut r = db.session().unwrap();
        assert_eq!(r.len(), 20);
        assert_eq!(r.read(|s| s.aug_total()), 20);
        // Precision: the removed entries' tuples are collected.
        assert_eq!(db.live_versions(), 1);
        assert_eq!(db.forest().arena().live(), 20);
    }

    #[test]
    fn single_process_insert_get_remove() {
        let db: Database<U64Map> = Database::new(1);
        {
            let mut s = db.session().unwrap();
            s.insert(5, 50);
            s.insert(3, 30);
            assert_eq!(s.get(&5), Some(50));
            assert_eq!(s.get(&4), None);
            assert_eq!(s.remove(&5), Some(50));
            assert_eq!(s.get(&5), None);
            assert_eq!(s.len(), 1);
        }
        // The session's local counters flushed on drop.
        let stats = db.stats();
        assert_eq!(stats.commits, 3);
        assert_eq!(stats.aborts, 0);
    }

    #[test]
    fn snapshot_isolation_under_writes() {
        let db: Database<U64Map> = Database::new(2);
        let mut w = db.session().unwrap();
        let mut r = db.session().unwrap();
        for k in 0..50u64 {
            w.insert(k, k);
        }
        let guard = r.begin_read();
        let snap_len = guard.snapshot().len();
        for k in 50..100u64 {
            w.insert(k, k);
        }
        // The pinned snapshot is unaffected by the 50 commits after it.
        assert_eq!(guard.snapshot().len(), snap_len);
        assert_eq!(guard.snapshot().get(&75), None);
        drop(guard);
        assert_eq!(w.len(), 100);
    }

    #[test]
    fn precise_gc_after_quiescence() {
        let db: Database<U64Map> = Database::new(2);
        let mut s = db.session().unwrap();
        for k in 0..200u64 {
            s.insert(k, k);
        }
        for k in 0..100u64 {
            s.remove(&k);
        }
        // Quiescent: exactly the current version is live.
        assert_eq!(db.live_versions(), 1);
        let live = db.forest().arena().live();
        assert_eq!(
            live, 100,
            "allocated tuples must equal entries of the sole live version"
        );
    }

    #[test]
    fn failed_set_collects_speculative_version() {
        let db: Database<U64Map> = Database::new(2);
        let mut a = db.session().unwrap();
        let mut b = db.session().unwrap();
        a.insert(1, 1);
        // Force an abort: acquire on session b, then let session a commit
        // first.
        let r = b.try_write(|txn| {
            // Sneak a competing committed write in while we're active.
            a.insert(99, 99);
            txn.insert(2, 2);
        });
        assert_eq!(r, Err(Aborted));
        assert_eq!(b.stats().aborts, 1);
        assert_eq!(a.get(&2), None);
        assert_eq!(a.get(&99), Some(99));
        // The speculative path-copied nodes were collected.
        assert_eq!(db.live_versions(), 1);
        assert_eq!(db.forest().arena().live(), 2);
    }

    #[test]
    fn write_retries_until_commit() {
        let db: Database<U64Map> = Database::new(2);
        let mut a = db.session().unwrap();
        let mut b = db.session().unwrap();
        a.insert(1, 1);
        let mut attempts = 0;
        b.write(|txn| {
            attempts += 1;
            if attempts == 1 {
                a.insert(100 + attempts, 0); // make attempt 1 fail
            }
            txn.insert(2, 2);
        });
        assert_eq!(attempts, 2);
        assert_eq!(a.get(&2), Some(2));
        assert_eq!(b.stats().commits, 1);
        assert_eq!(b.stats().aborts, 1);
    }

    #[test]
    fn write_txn_sees_own_writes() {
        let db: Database<SumU64Map> = Database::new(1);
        let mut s = db.session().unwrap();
        s.write(|txn| {
            assert!(txn.is_empty());
            txn.insert(1, 10);
            txn.insert(2, 20);
            assert_eq!(txn.get(&1), Some(&10));
            assert_eq!(txn.len(), 2);
            assert_eq!(txn.aug_total(), 30);
            assert_eq!(txn.remove(&1), Some(10));
            assert!(!txn.contains(&1));
            txn.multi_insert(vec![(3, 30), (4, 40)], |_o, n| *n);
            txn.remove_range(&4, &9);
            assert_eq!(txn.min(), Some((&2, &20)));
            assert_eq!(txn.max(), Some((&3, &30)));
        });
        assert_eq!(s.read(|s| s.to_vec()), vec![(2, 20), (3, 30)]);
        assert_eq!(s.stats().commits, 1, "one atomic commit for the batch");
        assert_eq!(db.forest().arena().live(), 2, "temporaries collected");
    }

    #[test]
    fn aug_range_through_snapshot() {
        let db: Database<SumU64Map> = Database::new(1);
        let mut s = db.session().unwrap();
        s.write(|txn| {
            let batch: Vec<(u64, u64)> = (0..100).map(|k| (k, k)).collect();
            txn.multi_insert(batch, |_o, n| *n);
        });
        let sum = s.read(|s| s.aug_range(&10, &20));
        assert_eq!(sum, (10..=20).sum::<u64>());
        assert_eq!(s.read(|s| s.aug_total()), (0..100).sum::<u64>());
    }

    #[test]
    fn with_kind_builds_all_algorithms() {
        for kind in VmKind::PAPER {
            let db: Database<U64Map, _> = Database::with_kind(kind, 2);
            let mut w = db.session().unwrap();
            let mut r = db.session().unwrap();
            w.insert(1, 10);
            assert_eq!(r.get(&1), Some(10), "{kind:?}");
            w.insert(1, 20);
            assert_eq!(r.get(&1), Some(20), "{kind:?}");
        }
    }

    #[test]
    fn concurrent_readers_and_single_writer_smoke() {
        use std::sync::atomic::AtomicBool;
        let db: std::sync::Arc<Database<SumU64Map>> = std::sync::Arc::new(Database::new(4));
        // Constant-sum invariant: every committed version sums to 1000.
        let mut w = db.session().unwrap();
        w.write(|txn| {
            let batch: Vec<(u64, u64)> = (0..10).map(|k| (k, 100)).collect();
            txn.multi_insert(batch, |_o, n| *n);
        });
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 1..4 {
                let db = db.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut reader = db.session().unwrap();
                    while !stop.load(Ordering::Relaxed) {
                        let total = reader.read(|snap| snap.aug_total());
                        assert_eq!(total, 1000, "snapshot saw a torn update");
                    }
                });
            }
            // Writer moves value between keys, preserving the total.
            for i in 0..2_000u64 {
                let from = i % 10;
                let to = (i + 1) % 10;
                w.write(|txn| {
                    let vf = *txn.get(&from).unwrap();
                    let vt = *txn.get(&to).unwrap();
                    let moved = vf.min(10);
                    txn.insert(from, vf - moved);
                    txn.insert(to, vt + moved);
                });
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(w.read(|s| s.aug_total()), 1000);
        assert_eq!(db.live_versions(), 1);
        assert_eq!(db.forest().arena().live(), 10);
    }
}
