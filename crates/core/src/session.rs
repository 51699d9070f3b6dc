//! Session handles: leased process ids, pinned allocation contexts, and
//! transaction views.
//!
//! The VM problem's contract — each process id used by at most one thread
//! at a time — used to be a doc comment on every `pid: usize` parameter.
//! A [`Session`] makes it a lease: [`Database::session`] pops a free pid
//! from a lock-free registry ([`mvcc_vm::PidPool`]) and returns a handle
//! that is the *only* way to run transactions on that pid until it drops.
//! The handle is `Send` (a logical writer may migrate between threads)
//! but deliberately `!Sync`, and every transaction method takes
//! `&mut self`, so the "at most one thread / one transaction at a time"
//! contract is enforced by the borrow checker instead of by prayer.
//!
//! Owning the pid lets the session own everything else a transaction
//! repeatedly needs:
//!
//! * a pinned [`AllocCtx`] (one arena shard per pid), so user code's path
//!   copies, commit bookkeeping and precise collection all route through
//!   one freelist — the pin covers the session's own thread; bulk
//!   operations that fork onto the work-stealing pool (`union`,
//!   `multi_insert`, `filter`, …) re-pin each stolen subtask to its
//!   executing thread's shard, so big batches parallelize across the
//!   sharded arena instead of funnelling through the session's freelist;
//! * a reusable release buffer, so the `release -> collect` cleanup phase
//!   performs no per-transaction allocation;
//! * local transaction counters, flushed into the database's global
//!   [`TxnStats`] once on drop instead of three contended `fetch_add`s
//!   per transaction.

use std::cell::{Cell, RefCell};
use std::convert::Infallible;
use std::marker::PhantomData;

use mvcc_ftree::{AllocCtx, Forest, Root, TreeParams};
use mvcc_vm::{PswfVm, VersionMaintenance};

use crate::batch::MapOp;
use crate::{decode, Aborted, Database, Snapshot, TxnStats};

/// An exclusive lease on one process id of a [`Database`], carrying the
/// transaction API (Figure 1) for that pid.
///
/// Obtain with [`Database::session`] (any free pid) or
/// [`Database::session_for`] (a specific pid). The pid returns to the
/// pool when the session drops.
///
/// `Session` is `Send` but **not** `Sync` — hand it between threads,
/// never share it:
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<mvcc_core::Session<'static, mvcc_core::ftree::U64Map>>();
/// ```
pub struct Session<'db, P: TreeParams, M: VersionMaintenance = PswfVm> {
    db: &'db Database<P, M>,
    pid: usize,
    ctx: AllocCtx,
    /// Reused across transactions: `release` appends, `collect` drains.
    released: Vec<u64>,
    commits: u64,
    aborts: u64,
    reads: u64,
    /// `Cell` poisons `Sync` without costing anything: a session moves
    /// between threads, it is never shared.
    _not_sync: PhantomData<Cell<()>>,
}

#[allow(dead_code)]
fn _session_is_send(s: Session<'static, mvcc_ftree::U64Map>) -> impl Send {
    s
}

impl<'db, P: TreeParams, M: VersionMaintenance> Session<'db, P, M> {
    pub(crate) fn new(db: &'db Database<P, M>, pid: usize) -> Self {
        Session {
            db,
            pid,
            ctx: db.forest.ctx_for(pid),
            released: Vec::new(),
            commits: 0,
            aborts: 0,
            reads: 0,
            _not_sync: PhantomData,
        }
    }

    /// The leased process id.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// The database this session leases from.
    pub fn database(&self) -> &'db Database<P, M> {
        self.db
    }

    /// The arena shard this session's transactions allocate and collect
    /// through (stable for the lease's lifetime).
    pub fn alloc_ctx(&self) -> AllocCtx {
        self.ctx
    }

    /// This session's transaction counters. Local and unflushed: they
    /// merge into [`Database::stats`] when the session drops.
    pub fn stats(&self) -> TxnStats {
        TxnStats {
            commits: self.commits,
            aborts: self.aborts,
            reads: self.reads,
        }
    }

    /// Run a **read-only transaction** (Figure 1, left). `f` sees an
    /// immutable [`Snapshot`]; the release/collect cleanup after `f`
    /// returns adds no delay to the result and performs no allocation.
    pub fn read<R>(&mut self, f: impl FnOnce(&Snapshot<'_, P>) -> R) -> R {
        let db = self.db;
        let _pin = db.forest.arena().pin(self.ctx);
        let root = decode(db.vmo.acquire(self.pid));
        let result = f(&Snapshot {
            forest: &db.forest,
            root,
        });
        // ---- response delivered; cleanup phase ----
        db.finish_txn(self.pid, &mut self.released);
        self.reads += 1;
        result
    }

    /// Begin a read transaction as an RAII guard (release + collect on
    /// drop). The guard borrows the session exclusively, so no other
    /// transaction can run on this pid until it drops — the per-process
    /// `acquire (set)? release` pattern holds by construction.
    pub fn begin_read(&mut self) -> SessionReadGuard<'_, 'db, P, M> {
        let root = decode(self.db.vmo.acquire(self.pid));
        SessionReadGuard {
            session: self,
            root,
        }
    }

    /// Run a **write transaction** (Figure 1, right) through a
    /// [`WriteTxn`] view that tracks the working root internally,
    /// retrying on abort (lock-free: each retry implies another writer's
    /// commit).
    ///
    /// `f` may run multiple times; it must have no side effects beyond
    /// building the new version.
    ///
    /// ```
    /// use mvcc_core::Database;
    /// use mvcc_core::ftree::U64Map;
    ///
    /// let db: Database<U64Map> = Database::new(1);
    /// let mut s = db.session().unwrap();
    /// let removed = s.write(|txn| {
    ///     txn.insert(1, 10);
    ///     txn.insert(2, 20);
    ///     txn.remove(&1)
    /// });
    /// assert_eq!(removed, Some(10));
    /// assert_eq!(s.get(&2), Some(20));
    /// ```
    pub fn write<R>(&mut self, mut f: impl FnMut(&mut WriteTxn<'_, P>) -> R) -> R {
        self.write_raw(move |forest, base| WriteTxn::run(forest, base, None, &mut f))
    }

    /// [`Session::write`] without retrying: `Err(Aborted)` if a
    /// concurrent writer's `set` intervened (the speculative version has
    /// been collected).
    pub fn try_write<R>(
        &mut self,
        mut f: impl FnMut(&mut WriteTxn<'_, P>) -> R,
    ) -> Result<R, Aborted> {
        self.try_write_raw(move |forest, base| WriteTxn::run(forest, base, None, &mut f))
    }

    /// One attempt of [`Session::write`] with a delta log attached to the
    /// view — the durable commit ([`crate::durable`]). User code fills
    /// `log`; `publish` then reads it as the skeleton's before-visible
    /// step, and an `Err` from it means the transaction did not happen.
    /// `Ok(None)` is a `set` lost to a concurrent commit.
    pub(crate) fn try_write_logged<R, E>(
        &mut self,
        log: &mut Vec<MapOp<P>>,
        mut f: impl FnMut(&mut WriteTxn<'_, P>) -> R,
        publish: impl FnOnce(&[MapOp<P>]) -> Result<(), E>,
    ) -> Result<Option<R>, E> {
        log.clear();
        // Two closures, one buffer, never at the same time: user code
        // has returned before the before-visible step runs.
        let log = RefCell::new(log);
        self.attempt(
            &mut |forest, base| WriteTxn::run(forest, base, Some(&mut **log.borrow_mut()), &mut f),
            |_new_root| publish(&log.borrow()),
        )
    }

    /// The raw closure form of [`Session::write`] for bulk operations:
    /// `f` receives the forest and an *owned* snapshot root and returns
    /// the new version's owned root (via consuming tree operations such
    /// as `multi_insert` / `union`).
    pub fn write_raw<R>(&mut self, mut f: impl FnMut(&Forest<P>, Root) -> (Root, R)) -> R {
        loop {
            if let Ok(r) = self.try_write_raw(&mut f) {
                return r;
            }
        }
    }

    /// One attempt of [`Session::write_raw`]; `Err(Aborted)` on a
    /// concurrent commit.
    pub fn try_write_raw<R>(
        &mut self,
        mut f: impl FnMut(&Forest<P>, Root) -> (Root, R),
    ) -> Result<R, Aborted> {
        let Ok(committed) = self.attempt(&mut f, |_new_root| Ok::<(), Infallible>(()));
        committed.ok_or(Aborted)
    }

    /// One pass through the commit skeleton on this session's pid, shard
    /// and release buffer; anything but a commit counts as an abort.
    fn attempt<R, E>(
        &mut self,
        f: &mut impl FnMut(&Forest<P>, Root) -> (Root, R),
        before_visible: impl FnOnce(Root) -> Result<(), E>,
    ) -> Result<Option<R>, E> {
        let db = self.db;
        // Everything the attempt allocates (user path copies) or frees
        // (displaced/speculative versions) routes through this session's
        // shard, even if a thread pool migrated the session since the
        // last transaction.
        let _pin = db.forest.arena().pin(self.ctx);
        let result = db.try_write_core(self.pid, &mut self.released, f, before_visible);
        match result {
            Ok(Some(_)) => self.commits += 1,
            _ => self.aborts += 1,
        }
        result
    }

    // ---- convenience single-op transactions ----

    /// Transactionally insert one entry.
    pub fn insert(&mut self, key: P::K, value: P::V) {
        self.write_raw(move |f, base| (f.insert(base, key.clone(), value.clone()), ()))
    }

    /// Transactionally remove one key; returns the removed value.
    pub fn remove(&mut self, key: &P::K) -> Option<P::V> {
        self.write_raw(|f, base| f.remove(base, key))
    }

    /// Transactionally remove every key in `[lo, hi]` (one atomic commit,
    /// O(log n) plus the collected garbage).
    pub fn remove_range(&mut self, lo: &P::K, hi: &P::K) {
        self.write_raw(|f, base| (f.remove_range(base, lo, hi), ()))
    }

    /// Point lookup as a read transaction (clones the value out).
    pub fn get(&mut self, key: &P::K) -> Option<P::V> {
        self.read(|s| s.get(key).cloned())
    }

    /// Entry count of the current version.
    pub fn len(&mut self) -> usize {
        self.read(|s| s.len())
    }

    /// Is the current version empty?
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
}

impl<P: TreeParams, M: VersionMaintenance> Drop for Session<'_, P, M> {
    fn drop(&mut self) {
        self.db.flush_stats(TxnStats {
            commits: self.commits,
            aborts: self.aborts,
            reads: self.reads,
        });
        self.db.pids.release(self.pid);
    }
}

impl<P: TreeParams, M: VersionMaintenance> std::fmt::Debug for Session<'_, P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("pid", &self.pid)
            .field("shard", &self.ctx.shard_index())
            .finish_non_exhaustive()
    }
}

/// RAII read transaction on a [`Session`]: the snapshot stays valid until
/// the guard drops, at which point the version is released and (if this
/// was the last holder) precisely collected through the session's
/// reusable buffer.
#[must_use = "dropping the guard immediately ends the read transaction"]
pub struct SessionReadGuard<'s, 'db, P: TreeParams, M: VersionMaintenance> {
    session: &'s mut Session<'db, P, M>,
    root: Root,
}

impl<P: TreeParams, M: VersionMaintenance> SessionReadGuard<'_, '_, P, M> {
    /// The snapshot this guard pins.
    pub fn snapshot(&self) -> Snapshot<'_, P> {
        Snapshot {
            forest: &self.session.db.forest,
            root: self.root,
        }
    }
}

impl<P: TreeParams, M: VersionMaintenance> Drop for SessionReadGuard<'_, '_, P, M> {
    fn drop(&mut self) {
        let db = self.session.db;
        let _pin = db.forest.arena().pin(self.session.ctx);
        db.finish_txn(self.session.pid, &mut self.session.released);
        self.session.reads += 1;
    }
}

/// The mutable view a write transaction's closure receives — from
/// [`Session::write`] and from [`crate::DurableSession::write`] alike. It
/// owns the transaction's working root, so user code mutates in place
/// (`txn.insert(k, v)`) instead of hand-threading `(Root, R)` tuples.
/// Every read method queries the working root, i.e. the transaction sees
/// its own earlier writes.
///
/// The root changes only through the update methods, because a durable
/// commit recovers from the deltas they record; owned-root tree surgery
/// goes through [`Session::write_raw`].
pub struct WriteTxn<'t, P: TreeParams> {
    forest: &'t Forest<P>,
    root: Root,
    /// Where a durable commit records this transaction's deltas for the
    /// WAL; `None` on every in-memory path.
    log: Option<&'t mut Vec<MapOp<P>>>,
}

impl<'t, P: TreeParams> WriteTxn<'t, P> {
    /// Run user code on a view of the owned root `base`; returns the new
    /// version's owned root beside the closure's result.
    fn run<R>(
        forest: &'t Forest<P>,
        base: Root,
        log: Option<&'t mut Vec<MapOp<P>>>,
        f: &mut impl FnMut(&mut WriteTxn<'t, P>) -> R,
    ) -> (Root, R) {
        let mut txn = WriteTxn {
            forest,
            root: base,
            log,
        };
        let r = f(&mut txn);
        (txn.root, r)
    }

    /// Insert or overwrite one entry.
    pub fn insert(&mut self, key: P::K, value: P::V) {
        if let Some(log) = self.log.as_deref_mut() {
            log.push(MapOp::Insert(key.clone(), value.clone()));
        }
        self.root = self.forest.insert(self.root, key, value);
    }

    /// Remove one key; returns the removed value.
    pub fn remove(&mut self, key: &P::K) -> Option<P::V> {
        let (root, removed) = self.forest.remove(self.root, key);
        self.root = root;
        // A miss changed nothing: nothing to replay.
        if let (Some(log), Some(_)) = (self.log.as_deref_mut(), &removed) {
            log.push(MapOp::Remove(key.clone()));
        }
        removed
    }

    /// Remove every key in the inclusive range `[lo, hi]`.
    pub fn remove_range(&mut self, lo: &P::K, hi: &P::K) {
        // Replay has no range op: the log names each doomed key.
        if let Some(log) = self.log.as_deref_mut() {
            self.forest
                .range_for_each(self.root, lo, hi, &mut |k: &P::K, _: &P::V| {
                    log.push(MapOp::Remove(k.clone()))
                });
        }
        self.root = self.forest.remove_range(self.root, lo, hi);
    }

    /// Apply a whole batch of insertions (parallel `multi_insert`);
    /// duplicates merge with `combine(old, new)`. A durable commit logs
    /// the *merged* values, so replay needs no combine function.
    pub fn multi_insert(
        &mut self,
        batch: Vec<(P::K, P::V)>,
        combine: impl Fn(&P::V, &P::V) -> P::V + Sync,
    ) {
        let Some(log) = self.log.as_deref_mut() else {
            self.root = self.forest.multi_insert(self.root, batch, combine);
            return;
        };
        let mut keys: Vec<P::K> = batch.iter().map(|(k, _)| k.clone()).collect();
        keys.sort();
        keys.dedup();
        self.root = self.forest.multi_insert(self.root, batch, combine);
        for k in keys {
            let v = self
                .forest
                .get(self.root, &k)
                .expect("multi_insert key present in working version")
                .clone();
            log.push(MapOp::Insert(k, v));
        }
    }

    /// Remove a whole batch of keys (parallel `multi_remove`).
    pub fn multi_remove(&mut self, keys: Vec<P::K>) {
        self.log_removes(&keys);
        self.root = self.forest.multi_remove(self.root, keys);
    }

    /// Remove a borrowed, strictly-sorted batch of keys.
    pub fn multi_remove_sorted(&mut self, keys: &[P::K]) {
        self.log_removes(keys);
        self.root = self.forest.multi_remove_sorted(self.root, keys);
    }

    fn log_removes(&mut self, keys: &[P::K]) {
        if let Some(log) = self.log.as_deref_mut() {
            log.extend(keys.iter().cloned().map(MapOp::Remove));
        }
    }

    // ---- queries on the working root (see own writes) ----

    /// Look up a key in the working version.
    pub fn get(&self, key: &P::K) -> Option<&P::V> {
        self.forest.get(self.root, key)
    }

    /// Does the working version contain `key`?
    pub fn contains(&self, key: &P::K) -> bool {
        self.forest.contains(self.root, key)
    }

    /// Entry count of the working version.
    pub fn len(&self) -> usize {
        self.forest.size(self.root)
    }

    /// Is the working version empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monoid fold over the inclusive key range (O(log n)).
    pub fn aug_range(&self, lo: &P::K, hi: &P::K) -> P::Aug {
        self.forest.aug_range(self.root, lo, hi)
    }

    /// Fold over the whole working version.
    pub fn aug_total(&self) -> P::Aug {
        self.forest.aug_total(self.root)
    }

    /// Smallest entry of the working version.
    pub fn min(&self) -> Option<(&P::K, &P::V)> {
        self.forest.min(self.root)
    }

    /// Largest entry of the working version.
    pub fn max(&self) -> Option<(&P::K, &P::V)> {
        self.forest.max(self.root)
    }

    /// The current working root (owned by the transaction; read-only).
    pub fn root(&self) -> Root {
        self.root
    }
}
