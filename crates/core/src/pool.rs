//! Session pools and the sharded database router: more logical sessions
//! than `P`.
//!
//! The paper fixes the process count `P` at construction; PR 2's
//! [`Database::session`] made the `P` process ids leasable but still
//! fails hard (`Err(Exhausted)`) once all are out. This module decouples
//! *logical* sessions from *physical* process ids in two layers:
//!
//! * [`SessionPool`] — admission control over one database's pid pool.
//!   [`SessionPool::acquire`] parks the caller on a FIFO ticket queue
//!   until a pid frees (a dropping [`Session`] wakes exactly the front
//!   waiter through [`mvcc_vm::PidPool`]'s release hook — one `unpark`
//!   per release, no stampede), so any number of client threads can
//!   share `P` pids; [`SessionPool::acquire_timeout`] bounds the wait
//!   and [`SessionPool::try_acquire`] keeps the non-blocking behavior.
//! * [`Router`] — a fixed-fanout shard router owning `N` independent
//!   [`Database`] instances. Tenant/key-space identifiers map to shards
//!   by seeded hash ([`Router::shard_for`] is stable for the router's
//!   lifetime), so aggregate capacity becomes `N×P` concurrent sessions
//!   — each shard's pool waiting independently — instead of `P` total.
//!
//! The same decouple-logical-from-physical move appears wherever a
//! resource bound is baked into an algorithm (cf. the bounded process
//! naming in the paper's VM problem): the bound stays, a queue and a
//! hash in front of it hide it from callers.
//!
//! # Async admission
//!
//! [`SessionPool::acquire`] parks an OS thread per waiter, which caps
//! concurrent logical sessions at thread-count scale. The async face of
//! the same queue — [`SessionPool::acquire_async`] returning an
//! [`AcquireFuture`], with [`SessionPool::poll_acquire`] as the
//! poll-level form — parks a [`std::task::Waker`] instead, so thousands
//! of pending admissions cost a queue entry each, not a stack. The
//! contract, point by point:
//!
//! * **One queue, one order.** Sync and async waiters draw tickets from
//!   the same monotone dispenser and are served strictly
//!   first-come-first-served; mixing the two modes cannot reorder
//!   admission.
//! * **One wake per release.** A dropping [`Session`] wakes exactly the
//!   front waiter (unpark for a thread, `Waker::wake` for a task) — no
//!   thundering herd in either mode.
//! * **Cancellation hands off.** Dropping a pending [`AcquireFuture`]
//!   surrenders its ticket; if the dropped waiter was the front (so a
//!   release's single wake may have been spent on it), the wake is
//!   forwarded to the next waiter. A cancelled admission can never
//!   strand the queue or leak a pid.
//! * **Re-poll replaces the waker.** A future migrating between tasks
//!   keeps exactly one registered waker — the most recent poll's.
//!
//! No executor ships with the pool (and none is required): [`block_on`]
//! drives one future from sync code. The production consumer is the
//! `mvcc-net` crate's `executor` module — a dedup `ReadySet` handing
//! each connection a `Waker` whose wake re-queues exactly that
//! connection — which lets `mvcc_net::Server`'s single poll loop
//! multiplex thousands of connection-bound admissions onto one thread
//! (each parked request is a queue entry here, not a blocked thread).
//!
//! # Fairness
//!
//! Waiters in [`SessionPool::acquire`] are served strictly
//! first-come-first-served: a storm of late arrivals cannot starve an
//! early waiter. Non-waiting paths ([`SessionPool::try_acquire`],
//! [`Database::session`]) deliberately barge past the queue — they never
//! park, so they take a free pid even while waiters exist. Mixing the
//! two on one database trades strict fairness for the fast path's
//! lock-freedom; use `acquire` everywhere if FIFO order matters.
//!
//! ```
//! use mvcc_core::{Database, Router};
//! use mvcc_core::ftree::U64Map;
//!
//! // One database, two pids, many client threads: acquire() waits
//! // instead of erroring.
//! let db: Database<U64Map> = Database::new(2);
//! std::thread::scope(|s| {
//!     for t in 0..8u64 {
//!         let pool = db.pool();
//!         s.spawn(move || {
//!             let mut session = pool.acquire(); // parks if both pids are out
//!             session.insert(t, t);
//!         });
//!     }
//! });
//! assert_eq!(db.sessions_leased(), 0);
//!
//! // Four databases behind a router: same key, same shard, N×P capacity.
//! let router: Router<U64Map> = Router::new(4, 2);
//! let mut s = router.session(&"tenant-42");
//! s.insert(1, 10);
//! assert_eq!(router.shard_for(&"tenant-42"), router.shard_for(&"tenant-42"));
//! assert_eq!(router.capacity(), 8);
//! ```

use std::collections::VecDeque;
use std::future::Future;
use std::hash::{Hash, Hasher};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

use mvcc_ftree::TreeParams;
use mvcc_vm::{PswfVm, VersionMaintenance, VmKind};

use crate::{Database, Session, SessionError, TxnStats};

/// Error returned by [`SessionPool::acquire_timeout`] when no pid freed
/// within the allowed wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcquireTimeout {
    /// How long the caller waited before giving up.
    pub waited: Duration,
}

impl std::fmt::Display for AcquireTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no process id freed within {:?} (pool still exhausted)",
            self.waited
        )
    }
}

impl std::error::Error for AcquireTimeout {}

/// The parking-based FIFO wait queue behind [`SessionPool::acquire`].
/// One per [`Database`]; every `SessionPool` handle on that database
/// shares it, so fairness is global across handles.
///
/// Each queue entry carries its waiter's [`Thread`] handle, and every
/// wake targets exactly the queue's front via `unpark` — a freed pid
/// costs one wake-up regardless of how many waiters are parked (a
/// condvar `notify_all` here would stampede all `W` waiters per release,
/// O(W²) wake-ups to drain the queue in exactly the oversubscribed
/// regime the pool exists for). `unpark`'s saved-permit semantics close
/// the wake/park race: an unpark landing between a waiter's failed lease
/// attempt and its `park()` makes that park return immediately.
pub(crate) struct WaitQueue {
    inner: Mutex<QueueInner>,
}

/// How a queued waiter is told "you are front; re-check for a pid".
///
/// The sync path ([`SessionPool::acquire`]) parks an OS thread and is
/// woken by `unpark`; the async path ([`SessionPool::poll_acquire`])
/// registers the polling task's [`Waker`]. Both share one queue, one
/// ticket dispenser and therefore one strict FIFO order — a release
/// wakes whichever kind is at the front, exactly once.
enum WakeHandle {
    /// A parked client thread (`unpark`'s saved-permit semantics close
    /// the wake/park race for this arm).
    Thread(Thread),
    /// An async task; `Waker::wake_by_ref` schedules its next poll. A
    /// woken-but-not-yet-polled future that is dropped forwards the
    /// stolen wake from its `Drop` (see [`AcquireState`]).
    Task(Waker),
}

impl WakeHandle {
    fn wake(&self) {
        match self {
            WakeHandle::Thread(t) => t.unpark(),
            WakeHandle::Task(w) => w.wake_by_ref(),
        }
    }
}

struct Waiter {
    /// Ticket from the monotone dispenser; FIFO position key.
    ticket: u64,
    /// Woken when this waiter reaches the front (or was front already)
    /// and should re-check for a pid.
    wake: WakeHandle,
}

struct QueueInner {
    /// Monotone ticket dispenser.
    next_ticket: u64,
    /// Parked (or about-to-park) waiters, front = next to be served.
    queue: VecDeque<Waiter>,
}

impl QueueInner {
    /// Wake the waiter currently at the front, if any.
    fn wake_front(&self) {
        if let Some(w) = self.queue.front() {
            w.wake.wake();
        }
    }
}

impl WaitQueue {
    pub(crate) fn new() -> Self {
        WaitQueue {
            inner: Mutex::new(QueueInner {
                next_ticket: 0,
                queue: VecDeque::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        // No panics occur while the queue lock is held; recover the
        // guard anyway so one poisoned waiter cannot wedge the pool.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A pid freed: wake the front waiter to claim it. Taking the queue
    /// lock is load-bearing even though `unpark`/`wake` itself never
    /// loses a wake: it orders this notify against waiters mid-enqueue,
    /// so the front we see is the front that exists.
    pub(crate) fn notify(&self) {
        self.lock().wake_front();
    }

    /// Parked/arriving waiters (racy snapshot, diagnostics and tests).
    fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Surrender `ticket`'s place in the queue (timeout expiry or an
    /// [`AcquireFuture`] dropped while pending). If the abandoned slot
    /// was the front, a release may already have targeted it — forward
    /// that possibly-stolen wake to the new front so the queue cannot
    /// stall.
    fn cancel(&self, ticket: u64) {
        let mut inner = self.lock();
        let was_front = inner.queue.front().map(|w| w.ticket) == Some(ticket);
        inner.queue.retain(|w| w.ticket != ticket);
        if was_front {
            inner.wake_front();
        }
    }
}

/// A waiting-mode front end over a [`Database`]'s pid pool: logical
/// sessions beyond `P` queue up instead of erroring.
///
/// Obtain with [`Database::pool`]. The pool is a borrowed handle
/// (`Copy`); all handles on one database share one FIFO wait queue, and
/// a dropping [`Session`] wakes it via the pid pool's release hook —
/// there is no polling.
pub struct SessionPool<'db, P: TreeParams, M: VersionMaintenance = PswfVm> {
    db: &'db Database<P, M>,
}

impl<P: TreeParams, M: VersionMaintenance> Clone for SessionPool<'_, P, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: TreeParams, M: VersionMaintenance> Copy for SessionPool<'_, P, M> {}

impl<'db, P: TreeParams, M: VersionMaintenance> SessionPool<'db, P, M> {
    pub(crate) fn new(db: &'db Database<P, M>) -> Self {
        SessionPool { db }
    }

    /// The database this pool admits sessions to.
    pub fn database(&self) -> &'db Database<P, M> {
        self.db
    }

    /// Number of pids (the pool's concurrency limit, the paper's `P`).
    pub fn capacity(&self) -> usize {
        self.db.processes()
    }

    /// Waiters currently queued in [`SessionPool::acquire`] /
    /// [`SessionPool::acquire_timeout`] (racy snapshot, diagnostics).
    pub fn waiters(&self) -> usize {
        self.db.waiters.len()
    }

    /// Lease a session, parking FIFO until a pid frees.
    ///
    /// Returns as soon as this caller reaches the queue's front *and* a
    /// pid is free; the returned [`Session`] re-wakes the queue when it
    /// drops. See the module docs for the fairness contract.
    pub fn acquire(&self) -> Session<'db, P, M> {
        match self.acquire_inner(None) {
            Ok(session) => session,
            Err(_) => unreachable!("untimed acquire cannot time out"),
        }
    }

    /// [`SessionPool::acquire`] with a bounded wait: `Err(AcquireTimeout)`
    /// if no pid freed (or the queue ahead did not drain) in `timeout`.
    pub fn acquire_timeout(&self, timeout: Duration) -> Result<Session<'db, P, M>, AcquireTimeout> {
        self.acquire_inner(Some(timeout))
    }

    /// Non-blocking lease — exactly [`Database::session`]: takes a free
    /// pid immediately (barging past any waiters) or returns
    /// `Err(Exhausted)`.
    pub fn try_acquire(&self) -> Result<Session<'db, P, M>, SessionError> {
        self.db.session()
    }

    fn acquire_inner(
        &self,
        timeout: Option<Duration>,
    ) -> Result<Session<'db, P, M>, AcquireTimeout> {
        let db = self.db;
        // A zero-pid database cannot be constructed (the VM constructors
        // require at least one process), so the wait below always has a
        // pid that can eventually free.
        debug_assert!(db.processes() > 0);
        let wq = &db.waiters;
        let start = Instant::now();
        let deadline = timeout.map(|t| start + t);
        let mut inner = wq.lock();
        let me = inner.next_ticket;
        inner.next_ticket += 1;
        inner.queue.push_back(Waiter {
            ticket: me,
            wake: WakeHandle::Thread(std::thread::current()),
        });
        loop {
            // Only the queue's front may take a pid: FIFO by construction.
            if inner.queue.front().map(|w| w.ticket) == Some(me) {
                if let Ok(pid) = db.pids.lease() {
                    inner.queue.pop_front();
                    // Several pids may have freed while we were parked
                    // (their wakes all targeted us, coalescing into one
                    // permit); hand the new front its chance immediately.
                    inner.wake_front();
                    drop(inner);
                    return Ok(Session::new(db, pid));
                }
            }
            drop(inner);
            match deadline {
                None => std::thread::park(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Surrender the slot; if it was blocking the
                        // queue's progress the new front gets re-checked.
                        wq.cancel(me);
                        return Err(AcquireTimeout {
                            waited: start.elapsed(),
                        });
                    }
                    std::thread::park_timeout(d - now);
                }
            }
            inner = wq.lock();
        }
    }

    /// Begin an **async** lease: a [`Future`] resolving to a [`Session`]
    /// once this waiter reaches the front of the same FIFO ticket queue
    /// [`SessionPool::acquire`] parks on — sync and async waiters are
    /// served in one strict arrival order.
    ///
    /// The future is executor-agnostic (no runtime dependency): it
    /// parks a [`Waker`], and a dropping [`Session`] wakes exactly the
    /// front waiter through the pid pool's release hook — one wake per
    /// release, whether the front is a parked thread or a task.
    /// Dropping the future while it is still queued surrenders its
    /// ticket and forwards any wake that already targeted it to the
    /// next waiter, so cancellation can never strand the queue.
    ///
    /// ```
    /// use mvcc_core::Database;
    /// use mvcc_core::ftree::U64Map;
    ///
    /// let db: Database<U64Map> = Database::new(1);
    /// let pool = db.pool();
    /// // A trivial single-future executor is enough to drive it:
    /// let mut session = mvcc_core::pool::block_on(pool.acquire_async());
    /// session.insert(1, 1);
    /// ```
    pub fn acquire_async(&self) -> AcquireFuture<'db, P, M> {
        AcquireFuture {
            pool: *self,
            state: AcquireState::default(),
        }
    }

    /// Poll-level async acquire: the manual, state-explicit form of
    /// [`SessionPool::acquire_async`] (which is a thin wrapper holding
    /// the [`AcquireState`] for you).
    ///
    /// The first poll enqueues a ticket into the FIFO wait queue and
    /// records it in `state`; subsequent polls refresh the stored
    /// [`Waker`] (re-polling from a different task is fine — the newest
    /// waker wins). Returns `Ready(session)` only when this ticket is
    /// the queue's front **and** a pid leases, preserving strict
    /// arrival order against every other waiter, sync or async.
    ///
    /// `state` must be dropped (or re-polled to `Ready`) for the ticket
    /// to leave the queue; see [`AcquireState`] for the cancellation
    /// contract.
    ///
    /// # Panics
    /// If `state` is already registered with a different database's
    /// pool.
    pub fn poll_acquire(
        &self,
        cx: &mut Context<'_>,
        state: &mut AcquireState,
    ) -> Poll<Session<'db, P, M>> {
        let db = self.db;
        let wq = &db.waiters;
        let mut inner = wq.lock();
        let me = match (&state.queue, state.ticket) {
            (Some(queue), Some(ticket)) => {
                assert!(
                    Arc::ptr_eq(queue, wq),
                    "AcquireState is registered with a different pool"
                );
                // Waker replacement: a future may migrate between tasks
                // (e.g. `select!`-style composition); the wake must go
                // to whoever polled last.
                let w = inner
                    .queue
                    .iter_mut()
                    .find(|w| w.ticket == ticket)
                    .expect("registered ticket is always in the queue");
                match &w.wake {
                    WakeHandle::Task(old) if old.will_wake(cx.waker()) => {}
                    _ => w.wake = WakeHandle::Task(cx.waker().clone()),
                }
                ticket
            }
            _ => {
                let ticket = inner.next_ticket;
                inner.next_ticket += 1;
                inner.queue.push_back(Waiter {
                    ticket,
                    wake: WakeHandle::Task(cx.waker().clone()),
                });
                state.queue = Some(Arc::clone(wq));
                state.ticket = Some(ticket);
                ticket
            }
        };
        // Only the queue's front may take a pid: FIFO by construction
        // (same discipline as the sync path — the two share the queue).
        if inner.queue.front().map(|w| w.ticket) == Some(me) {
            if let Ok(pid) = db.pids.lease() {
                inner.queue.pop_front();
                // The ticket outlives resolution (admission-order
                // audits); only the queue handle is cleared.
                state.queue = None;
                // Coalesced permits: several pids may have freed while
                // we were pending; hand the new front its chance.
                inner.wake_front();
                drop(inner);
                return Poll::Ready(Session::new(db, pid));
            }
        }
        Poll::Pending
    }

    /// [`SessionPool::poll_acquire`] with an admission deadline: once
    /// `state`'s deadline has passed, the ticket is surrendered through
    /// the same wait-queue cancellation path a dropped future uses
    /// (wake-forwarding included — an expiring front waiter cannot
    /// stall the queue) and the poll resolves `Err(AcquireTimeout)`.
    ///
    /// Expiry is *observed at poll time*: no timer fires, so a pending
    /// admission past its deadline stays queued until the driving loop
    /// polls it again. Callers with latency SLOs re-poll on a coarse
    /// tick (see `mvcc_net::Server`), paying one queue scan per tick
    /// instead of a timer per waiter.
    ///
    /// A `state` without a deadline ([`AcquireState::default`]) never
    /// expires; the call is then exactly [`SessionPool::poll_acquire`].
    pub fn poll_acquire_deadline(
        &self,
        cx: &mut Context<'_>,
        state: &mut AcquireState,
    ) -> Poll<Result<Session<'db, P, M>, AcquireTimeout>> {
        let started = *state.started.get_or_insert_with(Instant::now);
        if let Some(d) = state.deadline {
            if Instant::now() >= d {
                // Surrender the slot exactly as Drop would; `ticket`
                // survives for admission-order audits.
                if let (Some(wq), Some(ticket)) = (state.queue.take(), state.ticket) {
                    wq.cancel(ticket);
                }
                return Poll::Ready(Err(AcquireTimeout {
                    waited: started.elapsed(),
                }));
            }
        }
        self.poll_acquire(cx, state).map(Ok)
    }

    /// Async [`SessionPool::acquire_timeout`]: a future resolving to
    /// `Ok(session)` in FIFO order, or `Err(AcquireTimeout)` once
    /// `timeout` elapses without a pid.
    ///
    /// The deadline is checked at each poll (see
    /// [`SessionPool::poll_acquire_deadline`] for the no-timer
    /// contract): an executor that only wakes the future on pool
    /// releases will not notice the expiry until something polls it,
    /// so pair the future with a periodic tick when expiry must be
    /// prompt.
    pub fn acquire_async_timeout(&self, timeout: Duration) -> AcquireTimeoutFuture<'db, P, M> {
        AcquireTimeoutFuture {
            pool: *self,
            state: AcquireState::with_deadline(Instant::now() + timeout),
        }
    }

    /// Point-in-time admission gauges (each field a racy snapshot):
    /// the shed-above-depth policy in `mvcc-net` reads
    /// [`PoolStats::waiters`] against its threshold before enqueuing.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            capacity: self.capacity(),
            leased: self.db.sessions_leased(),
            waiters: self.waiters(),
        }
    }

    /// Lease a session under a **lease timeout**: if the holder lets
    /// `lease` elapse without completing a transaction through the
    /// returned [`LeaseGuard`], a subsequent [`SessionPool::reap_expired`]
    /// sweep reclaims the pid for other waiters, and the stalled
    /// holder's next access observes [`LeaseRevoked`] instead of
    /// silently aliasing the pid. The deadline renews on every
    /// completed [`LeaseGuard::with`], so `lease` bounds *idle gaps
    /// between transactions*, not total session lifetime.
    ///
    /// Parks FIFO like [`SessionPool::acquire`] while all pids are out.
    pub fn acquire_leased(&self, lease: Duration) -> LeaseGuard<'db, P, M> {
        self.install_lease(self.acquire(), lease)
    }

    fn install_lease(&self, session: Session<'db, P, M>, lease: Duration) -> LeaseGuard<'db, P, M> {
        let db = self.db;
        let pid = session.pid();
        let cell = Arc::new(LeaseCell {
            state: AtomicU64::new(LEASE_IDLE),
            deadline_ns: AtomicU64::new(db.leases.now_ns().saturating_add(as_ns(lease))),
        });
        db.leases.install(pid, Arc::clone(&cell));
        LeaseGuard {
            session: Some(session),
            cell,
            pool: *self,
            pid,
            lease,
        }
    }

    /// Sweep the lease registry and reclaim every pid whose
    /// [`LeaseGuard`] deadline has passed *between* transactions
    /// (a lease mid-transaction is never revoked — the holder owns an
    /// acquired version the reaper must not free from under it).
    /// Each reclaimed pid is released to the pool immediately, waking
    /// the front waiter; the stalled guard learns of the revocation on
    /// its next use. Returns how many pids were reclaimed.
    ///
    /// Nothing calls this automatically — drive it from a maintenance
    /// tick (the `mvcc-net` server's scan loop does).
    pub fn reap_expired(&self) -> usize {
        let db = self.db;
        let now = db.leases.now_ns();
        let mut slots = db.leases.lock_slots();
        let mut reaped = 0;
        for (pid, slot) in slots.iter_mut().enumerate() {
            let Some(cell) = slot else { continue };
            if cell.deadline_ns.load(Ordering::Acquire) > now {
                continue;
            }
            // Only an *idle* lease is revocable; the CAS loses cleanly
            // to a holder racing into a transaction (it renews) or a
            // guard dropping (it releases the pid itself).
            if cell
                .state
                .compare_exchange(
                    LEASE_IDLE,
                    LEASE_REVOKED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                *slot = None;
                // Idle ⇒ the holder has no acquired version, so the pid
                // is safe to hand out; release wakes the wait queue.
                db.pids.release(pid);
                reaped += 1;
            }
        }
        reaped
    }
}

/// Point-in-time gauges over one pool's admission state
/// ([`SessionPool::stats`]); every field is a racy snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// The concurrency limit (the paper's `P`).
    pub capacity: usize,
    /// Pids currently leased out.
    pub leased: usize,
    /// Waiters queued for admission — the queue depth load-shedding
    /// policies compare against their threshold.
    pub waiters: usize,
}

const LEASE_IDLE: u64 = 0;
const LEASE_IN_TXN: u64 = 1;
const LEASE_REVOKED: u64 = 2;
const LEASE_DEAD: u64 = 3;

fn as_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One lease's shared state: the guard and the registry each hold an
/// `Arc`, so a reaper revoking an idle lease and the guard observing
/// the revocation later need no further rendezvous.
pub(crate) struct LeaseCell {
    /// `LEASE_IDLE` / `LEASE_IN_TXN` / `LEASE_REVOKED` / `LEASE_DEAD`.
    /// All ownership transfers go through CAS on this word: the reaper
    /// may only take IDLE→REVOKED, the guard takes IDLE→IN_TXN around
    /// each transaction and IDLE/IN_TXN→DEAD on drop.
    state: AtomicU64,
    /// Lease expiry in nanoseconds since the registry epoch; renewed
    /// (before state returns to IDLE) on every completed transaction.
    deadline_ns: AtomicU64,
}

/// Per-database lease table, indexed by pid ([`Database`] owns one).
/// A slot is occupied exactly while a [`LeaseGuard`] holds that pid and
/// has not been revoked.
pub(crate) struct LeaseRegistry {
    /// Epoch for `deadline_ns` (monotonic, per registry).
    epoch: Instant,
    slots: Mutex<Vec<Option<Arc<LeaseCell>>>>,
}

impl LeaseRegistry {
    pub(crate) fn new(processes: usize) -> Self {
        LeaseRegistry {
            epoch: Instant::now(),
            slots: Mutex::new(vec![None; processes]),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock_slots(&self) -> MutexGuard<'_, Vec<Option<Arc<LeaseCell>>>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn install(&self, pid: usize, cell: Arc<LeaseCell>) {
        let mut slots = self.lock_slots();
        debug_assert!(slots[pid].is_none(), "pid leased twice");
        slots[pid] = Some(cell);
    }

    fn clear(&self, pid: usize) {
        self.lock_slots()[pid] = None;
    }
}

/// Error returned by [`LeaseGuard::with`] after
/// [`SessionPool::reap_expired`] reclaimed the guard's pid: the lease
/// deadline passed while the holder sat between transactions, and the
/// pid may already belong to someone else. The guard is spent — drop
/// it and acquire again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseRevoked {
    /// The pid that was reclaimed.
    pub pid: usize,
}

impl std::fmt::Display for LeaseRevoked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "session lease on pid {} was revoked (lease deadline passed between transactions)",
            self.pid
        )
    }
}

impl std::error::Error for LeaseRevoked {}

/// A [`Session`] held under a lease deadline
/// ([`SessionPool::acquire_leased`]): every transaction goes through
/// [`LeaseGuard::with`], which renews the deadline on completion. Let
/// the deadline lapse between transactions and a
/// [`SessionPool::reap_expired`] sweep hands the pid to the next
/// waiter; the guard's next `with` then returns [`LeaseRevoked`]
/// instead of running on a pid it no longer owns.
///
/// Revocation is strictly *between* transactions: a closure running
/// inside `with` marks the lease in-transaction, which the reaper
/// never touches, so an acquired version is never freed mid-read.
pub struct LeaseGuard<'db, P: TreeParams, M: VersionMaintenance = PswfVm> {
    /// `None` only after revocation has been observed (the revoked
    /// session is dropped with its pid release suppressed).
    session: Option<Session<'db, P, M>>,
    cell: Arc<LeaseCell>,
    pool: SessionPool<'db, P, M>,
    pid: usize,
    lease: Duration,
}

impl<'db, P: TreeParams, M: VersionMaintenance> LeaseGuard<'db, P, M> {
    /// The leased pid (stable for the guard's lifetime, though after
    /// revocation it may be serving another holder).
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Has this guard observed its revocation? (`true` ⇒ every further
    /// [`LeaseGuard::with`] fails; racy only in the benign direction —
    /// `false` may become `true` at the next `with`.)
    pub fn is_revoked(&self) -> bool {
        self.session.is_none() || self.cell.state.load(Ordering::Acquire) == LEASE_REVOKED
    }

    /// Run one transaction (or several — anything on the session) under
    /// the lease, renewing the deadline on completion. Returns
    /// [`LeaseRevoked`] without running `f` if the reaper reclaimed the
    /// pid first.
    pub fn with<R>(
        &mut self,
        f: impl FnOnce(&mut Session<'db, P, M>) -> R,
    ) -> Result<R, LeaseRevoked> {
        match self.cell.state.compare_exchange(
            LEASE_IDLE,
            LEASE_IN_TXN,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {}
            Err(_) => {
                // REVOKED (or the session already surrendered): the pid
                // belongs to someone else now.
                self.surrender();
                return Err(LeaseRevoked { pid: self.pid });
            }
        }
        let session = self
            .session
            .as_mut()
            .expect("session present while the lease is live");
        let r = f(session);
        // Renew *before* going idle so the reaper can never see an
        // idle lease with a stale pre-transaction deadline.
        let db = self.pool.db;
        self.cell.deadline_ns.store(
            db.leases.now_ns().saturating_add(as_ns(self.lease)),
            Ordering::Release,
        );
        self.cell.state.store(LEASE_IDLE, Ordering::Release);
        Ok(r)
    }

    /// Drop the session with its pid release suppressed: the reaper
    /// already released (and possibly re-leased) the pid.
    fn surrender(&mut self) {
        if let Some(mut s) = self.session.take() {
            s.revoked = true;
        }
    }
}

impl<P: TreeParams, M: VersionMaintenance> Drop for LeaseGuard<'_, P, M> {
    fn drop(&mut self) {
        // IDLE→DEAD (normal) or IN_TXN→DEAD (a panicking `with`
        // closure unwound before restoring IDLE; the reaper never
        // touched IN_TXN, so the pid is still ours to release): clear
        // the registry slot, then let the session release the pid.
        for live in [LEASE_IDLE, LEASE_IN_TXN] {
            if self
                .cell
                .state
                .compare_exchange(live, LEASE_DEAD, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.pool.db.leases.clear(self.pid);
                return; // `session` drops normally, releasing the pid
            }
        }
        // REVOKED: the reaper owns the slot and released the pid.
        self.surrender();
    }
}

impl<P: TreeParams, M: VersionMaintenance> std::fmt::Debug for LeaseGuard<'_, P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseGuard")
            .field("pid", &self.pid)
            .field("lease", &self.lease)
            .field("revoked", &self.is_revoked())
            .finish()
    }
}

/// Queue-registration state for [`SessionPool::poll_acquire`]: which
/// ticket (if any) this waiter holds in the FIFO wait queue.
///
/// `Default::default()` is unregistered; the first `poll_acquire` with
/// it enqueues a ticket. Dropping a registered state **surrenders the
/// ticket**: the slot leaves the queue, and if it was the front — a
/// release may already have spent its one wake on it — the wake is
/// forwarded to the new front. That is the pool-checkout handoff
/// contract that makes cancellation (dropping an [`AcquireFuture`]
/// mid-wait) safe: no pid is leaked and no wake is lost.
#[derive(Default)]
pub struct AcquireState {
    /// The wait queue this state is registered with, while queued.
    /// Holding it by `Arc` keeps cancel-on-drop sound even if the state
    /// outlives the pool handle; `None` before the first poll and after
    /// resolution.
    queue: Option<Arc<WaitQueue>>,
    /// The FIFO ticket drawn by the first poll. Deliberately *not*
    /// cleared on resolution: tickets are handed out in arrival order,
    /// so a granted ticket is the admission-order audit trail (the
    /// `mvcc-net` server asserts per-shard monotonicity with it).
    ticket: Option<u64>,
    /// Admission deadline checked by [`SessionPool::poll_acquire_deadline`]
    /// (`None` = wait forever, the [`SessionPool::poll_acquire`] contract).
    deadline: Option<Instant>,
    /// When the first poll enqueued the ticket; the expiry error reports
    /// `waited` from here.
    started: Option<Instant>,
}

impl AcquireState {
    /// An unregistered state whose admission expires at `deadline`: once
    /// [`SessionPool::poll_acquire_deadline`] observes the deadline has
    /// passed, it surrenders the ticket (same cancellation path as
    /// dropping the state) and resolves `Err(AcquireTimeout)`.
    ///
    /// No timer fires at the deadline — expiry is observed at the *next
    /// poll*, so the driving loop must re-poll on its own tick (the
    /// `mvcc-net` server's scan-loop tick does exactly this).
    pub fn with_deadline(deadline: Instant) -> Self {
        AcquireState {
            queue: None,
            ticket: None,
            deadline: Some(deadline),
            started: None,
        }
    }

    /// The FIFO ticket drawn by the first poll (`None` only before it).
    /// Tickets are handed out in arrival order and survive resolution,
    /// so admission order can be audited against them.
    pub fn ticket(&self) -> Option<u64> {
        self.ticket
    }

    /// The admission deadline, if one was set ([`AcquireState::with_deadline`]).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

impl Drop for AcquireState {
    fn drop(&mut self) {
        if let (Some(wq), Some(ticket)) = (self.queue.take(), self.ticket) {
            wq.cancel(ticket);
        }
    }
}

impl std::fmt::Debug for AcquireState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcquireState")
            .field("ticket", &self.ticket())
            .finish()
    }
}

/// The future returned by [`SessionPool::acquire_async`]: resolves to a
/// [`Session`] in strict FIFO order with every other waiter on the same
/// database. See [`SessionPool::poll_acquire`] for the polling contract
/// and [`AcquireState`] for what dropping a pending future does.
pub struct AcquireFuture<'db, P: TreeParams, M: VersionMaintenance = PswfVm> {
    pool: SessionPool<'db, P, M>,
    state: AcquireState,
}

impl<'db, P: TreeParams, M: VersionMaintenance> AcquireFuture<'db, P, M> {
    /// The FIFO ticket drawn by this future's first poll (`None` only
    /// before it; the ticket survives resolution for admission-order
    /// audits).
    pub fn ticket(&self) -> Option<u64> {
        self.state.ticket()
    }
}

impl<'db, P: TreeParams, M: VersionMaintenance> Future for AcquireFuture<'db, P, M> {
    type Output = Session<'db, P, M>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // No self-references: the future is plain data (pool handle +
        // ticket state), hence `Unpin` and safe to project by value.
        let this = self.get_mut();
        this.pool.poll_acquire(cx, &mut this.state)
    }
}

impl<P: TreeParams, M: VersionMaintenance> std::fmt::Debug for AcquireFuture<'_, P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcquireFuture")
            .field("ticket", &self.ticket())
            .field("pool", &self.pool)
            .finish()
    }
}

/// The future returned by [`SessionPool::acquire_async_timeout`]:
/// FIFO admission like [`AcquireFuture`], but resolves
/// `Err(AcquireTimeout)` once its deadline is observed past at a poll.
/// Dropping it pending surrenders its ticket like any other waiter.
pub struct AcquireTimeoutFuture<'db, P: TreeParams, M: VersionMaintenance = PswfVm> {
    pool: SessionPool<'db, P, M>,
    state: AcquireState,
}

impl<'db, P: TreeParams, M: VersionMaintenance> AcquireTimeoutFuture<'db, P, M> {
    /// The FIFO ticket drawn by this future's first poll (`None` only
    /// before it).
    pub fn ticket(&self) -> Option<u64> {
        self.state.ticket()
    }

    /// The admission deadline this future expires at.
    pub fn deadline(&self) -> Instant {
        self.state
            .deadline()
            .expect("acquire_async_timeout always sets a deadline")
    }
}

impl<'db, P: TreeParams, M: VersionMaintenance> Future for AcquireTimeoutFuture<'db, P, M> {
    type Output = Result<Session<'db, P, M>, AcquireTimeout>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.pool.poll_acquire_deadline(cx, &mut this.state)
    }
}

impl<P: TreeParams, M: VersionMaintenance> std::fmt::Debug for AcquireTimeoutFuture<'_, P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcquireTimeoutFuture")
            .field("ticket", &self.ticket())
            .field("deadline", &self.deadline())
            .finish()
    }
}

/// Drive one future to completion on the current thread, parking
/// between polls — the minimal executor. Enough to use
/// [`SessionPool::acquire_async`] from synchronous code and tests; the
/// `mvcc-net` server brings its own readiness loop instead.
///
/// It re-polls only when woken, so a *poll-observed* deadline —
/// [`SessionPool::acquire_async_timeout`] on a pool nothing releases —
/// never fires under it: there is no timer to produce the wake. From
/// synchronous code use [`SessionPool::acquire_timeout`] (its parked
/// thread times out on its own); reserve the deadline future for
/// executors with a periodic tick.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    /// Waker that unparks the blocked thread.
    struct ThreadWaker(Thread);
    impl std::task::Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => std::thread::park(),
        }
    }
}

impl<P: TreeParams, M: VersionMaintenance> std::fmt::Debug for SessionPool<'_, P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPool")
            .field("capacity", &self.capacity())
            .field("leased", &self.db.sessions_leased())
            .field("waiters", &self.waiters())
            .finish()
    }
}

/// Default hash seed for [`Router::new`]; an arbitrary odd 64-bit
/// constant (splitmix64's increment) so shard placement is stable across
/// runs unless a seed is chosen explicitly.
const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed-fanout shard router: `N` independent [`Database`] instances
/// behind one seeded-hash key map, for `N×P` aggregate session capacity.
///
/// Shards are fully independent databases — separate forests, version
/// maintenance objects and pid pools — so cross-shard transactions do not
/// exist; a key's transactions all land on [`Router::shard_for`]`(key)`.
/// That is the scaling contract: pick the routing key (tenant id, user
/// id, key-space prefix) so that work that must be atomic together hashes
/// together.
///
/// [`Router::session`] leases through the shard's [`SessionPool`] —
/// parking, not erroring, when the shard's pids are all out. Cross-shard
/// sweeps (stats, GC checks) go through [`Router::iter`].
pub struct Router<P: TreeParams, M: VersionMaintenance = PswfVm> {
    shards: Box<[Database<P, M>]>,
    seed: u64,
}

impl<P: TreeParams> Router<P, PswfVm> {
    /// `shards` empty PSWF databases with `processes_per_shard` pids
    /// each, keyed with the default seed.
    ///
    /// # Panics
    /// If `shards == 0` or `processes_per_shard == 0`.
    pub fn new(shards: usize, processes_per_shard: usize) -> Self {
        Self::with_seed(shards, processes_per_shard, DEFAULT_SEED)
    }

    /// [`Router::new`] with an explicit hash seed (e.g. to de-correlate
    /// two routers over the same key population).
    pub fn with_seed(shards: usize, processes_per_shard: usize, seed: u64) -> Self {
        assert!(processes_per_shard > 0, "shards need at least one pid");
        Self::from_databases(
            (0..shards)
                .map(|_| Database::new(processes_per_shard))
                .collect(),
            seed,
        )
    }
}

impl<P: TreeParams> Router<P, Box<dyn VersionMaintenance>> {
    /// A router whose shards run the given VM algorithm family.
    ///
    /// # Panics
    /// If `shards == 0` or `processes_per_shard == 0`.
    pub fn with_kind(kind: VmKind, shards: usize, processes_per_shard: usize) -> Self {
        assert!(processes_per_shard > 0, "shards need at least one pid");
        Self::from_databases(
            (0..shards)
                .map(|_| Database::with_kind(kind, processes_per_shard))
                .collect(),
            DEFAULT_SEED,
        )
    }
}

impl<P: TreeParams, M: VersionMaintenance> Router<P, M> {
    /// Assemble a router from pre-built shard databases (heterogeneous
    /// sizing, pre-seeded contents, custom VM instances).
    ///
    /// # Panics
    /// If `databases` is empty.
    pub fn from_databases(databases: Vec<Database<P, M>>, seed: u64) -> Self {
        assert!(!databases.is_empty(), "router needs at least one shard");
        Router {
            shards: databases.into_boxed_slice(),
            seed,
        }
    }

    /// Number of shards (`N`).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate session capacity: the sum of every shard's `P`.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|db| db.processes()).sum()
    }

    /// The shard index `key` routes to. Stable for the router's
    /// lifetime: the same key always lands on the same shard.
    pub fn shard_for<K: Hash + ?Sized>(&self, key: &K) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        hasher.write_u64(self.seed);
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// The shard database at `index` — the escape hatch for callers that
    /// computed (or pinned) a placement themselves.
    ///
    /// # Panics
    /// If `index >= shards()`; [`Router::try_with_shard`] is the
    /// non-panicking form.
    pub fn with_shard(&self, index: usize) -> &Database<P, M> {
        &self.shards[index]
    }

    /// [`Router::with_shard`] without the panic: `None` when `index` is
    /// not a shard (e.g. an index computed against a differently-sized
    /// router).
    pub fn try_with_shard(&self, index: usize) -> Option<&Database<P, M>> {
        self.shards.get(index)
    }

    /// The shard database `key` routes to.
    pub fn database_for<K: Hash + ?Sized>(&self, key: &K) -> &Database<P, M> {
        self.with_shard(self.shard_for(key))
    }

    /// Lease a session on `key`'s shard, parking FIFO (per shard) until
    /// one of that shard's pids frees.
    pub fn session<K: Hash + ?Sized>(&self, key: &K) -> Session<'_, P, M> {
        self.database_for(key).pool().acquire()
    }

    /// Iterate the shards in index order — the cross-shard sweep for
    /// stats aggregation, GC/quiescence checks and maintenance.
    pub fn iter(&self) -> std::slice::Iter<'_, Database<P, M>> {
        self.shards.iter()
    }

    /// Transaction counters summed across shards (same staleness caveat
    /// as [`Database::stats`]: live sessions flush on drop).
    pub fn stats(&self) -> TxnStats {
        self.iter().fold(TxnStats::default(), |acc, db| {
            let s = db.stats();
            TxnStats {
                commits: acc.commits + s.commits,
                aborts: acc.aborts + s.aborts,
                reads: acc.reads + s.reads,
            }
        })
    }

    /// Uncollected versions summed across shards (quiescent routers
    /// report exactly `shards()`).
    pub fn live_versions(&self) -> u64 {
        self.iter().map(|db| db.live_versions()).sum()
    }

    /// Currently leased sessions summed across shards (racy snapshot).
    pub fn sessions_leased(&self) -> usize {
        self.iter().map(|db| db.sessions_leased()).sum()
    }

    /// Run [`SessionPool::reap_expired`] on every shard; returns the
    /// total pids reclaimed.
    pub fn reap_leases(&self) -> usize {
        self.iter().map(|db| db.pool().reap_expired()).sum()
    }
}

impl<'r, P: TreeParams, M: VersionMaintenance> IntoIterator for &'r Router<P, M> {
    type Item = &'r Database<P, M>;
    type IntoIter = std::slice::Iter<'r, Database<P, M>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<P: TreeParams, M: VersionMaintenance> std::fmt::Debug for Router<P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.shards())
            .field("capacity", &self.capacity())
            .field("leased", &self.sessions_leased())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_ftree::U64Map;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn acquire_takes_free_pid_without_waiting() {
        let db: Database<U64Map> = Database::new(2);
        let pool = db.pool();
        let mut a = pool.acquire();
        let mut b = pool.acquire();
        a.insert(1, 1);
        b.insert(2, 2);
        assert_eq!(pool.waiters(), 0);
        assert_eq!(db.sessions_leased(), 2);
    }

    #[test]
    fn acquire_parks_until_release() {
        let db: Database<U64Map> = Database::new(1);
        let pool = db.pool();
        let first = pool.acquire();
        let entered = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                entered.store(1, Ordering::SeqCst);
                let mut session = pool.acquire(); // must park: sole pid is out
                session.insert(7, 7);
                session.pid()
            });
            // Wait until the waiter is actually queued, then free the pid.
            while pool.waiters() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(entered.load(Ordering::SeqCst), 1);
            let freed = first.pid();
            drop(first);
            assert_eq!(handle.join().unwrap(), freed, "waiter got the freed pid");
        });
        assert_eq!(db.sessions_leased(), 0);
    }

    #[test]
    fn acquire_timeout_expires_and_leaves_queue_clean() {
        let db: Database<U64Map> = Database::new(1);
        let pool = db.pool();
        let held = pool.acquire();
        let err = pool
            .acquire_timeout(Duration::from_millis(20))
            .expect_err("sole pid is held");
        assert!(err.waited >= Duration::from_millis(20));
        assert_eq!(pool.waiters(), 0, "expired waiter removed itself");
        drop(held);
        // And a timed acquire that can succeed, does.
        let s = pool.acquire_timeout(Duration::from_secs(5)).unwrap();
        drop(s);
    }

    #[test]
    fn try_acquire_matches_session_behavior() {
        let db: Database<U64Map> = Database::new(1);
        let pool = db.pool();
        let held = pool.try_acquire().unwrap();
        assert!(matches!(
            pool.try_acquire(),
            Err(SessionError::Exhausted { processes: 1 })
        ));
        drop(held);
        assert!(pool.try_acquire().is_ok());
    }

    #[test]
    fn acquire_async_resolves_immediately_on_a_free_pid() {
        let db: Database<U64Map> = Database::new(1);
        let pool = db.pool();
        let mut session = block_on(pool.acquire_async());
        session.insert(1, 10);
        drop(session);
        assert_eq!(db.sessions_leased(), 0);
        assert_eq!(pool.waiters(), 0);
    }

    #[test]
    fn acquire_async_waits_for_release_and_is_woken_once() {
        let db: Database<U64Map> = Database::new(1);
        let pool = db.pool();
        let held = pool.acquire();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut session = block_on(pool.acquire_async());
                session.insert(2, 20);
                session.pid()
            });
            while pool.waiters() == 0 {
                std::thread::yield_now();
            }
            let freed = held.pid();
            drop(held);
            assert_eq!(waiter.join().unwrap(), freed, "waiter got the freed pid");
        });
        assert_eq!(db.sessions_leased(), 0);
    }

    #[test]
    fn acquire_state_ticket_reports_queue_position() {
        let db: Database<U64Map> = Database::new(1);
        let pool = db.pool();
        let held = pool.acquire();
        let mut fut = pool.acquire_async();
        assert_eq!(fut.ticket(), None, "not queued before the first poll");
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert!(fut.ticket().is_some(), "first poll queues a ticket");
        assert_eq!(pool.waiters(), 1);
        drop(fut);
        assert_eq!(pool.waiters(), 0, "dropped future surrendered its slot");
        drop(held);
    }

    #[test]
    fn poll_acquire_deadline_expires_only_when_observed() {
        let db: Database<U64Map> = Database::new(1);
        let pool = db.pool();
        let held = pool.acquire();
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let mut state = AcquireState::with_deadline(Instant::now() + Duration::from_millis(5));
        assert!(pool.poll_acquire_deadline(&mut cx, &mut state).is_pending());
        assert_eq!(pool.waiters(), 1);
        std::thread::sleep(Duration::from_millis(10));
        // Deadline long past, but nothing fired: expiry happens *here*.
        match pool.poll_acquire_deadline(&mut cx, &mut state) {
            Poll::Ready(Err(err)) => assert!(err.waited >= Duration::from_millis(5)),
            other => panic!("expected expiry, got {other:?}", other = other.is_ready()),
        }
        assert_eq!(pool.waiters(), 0, "expired waiter left the queue");
        drop(held);
        // A fresh deadline admission on a free pid resolves immediately.
        let mut ok = AcquireState::with_deadline(Instant::now() + Duration::from_secs(5));
        assert!(pool.poll_acquire_deadline(&mut cx, &mut ok).is_ready());
    }

    #[test]
    fn acquire_async_timeout_resolves_on_free_pid() {
        let db: Database<U64Map> = Database::new(1);
        let pool = db.pool();
        let mut s = block_on(pool.acquire_async_timeout(Duration::from_secs(5))).unwrap();
        s.insert(1, 1);
        drop(s);
        assert_eq!(db.sessions_leased(), 0);
    }

    #[test]
    fn lease_guard_normal_drop_releases_pid() {
        let db: Database<U64Map> = Database::new(1);
        let pool = db.pool();
        let mut g = pool.acquire_leased(Duration::from_secs(60));
        g.with(|s| s.insert(1, 10)).unwrap();
        assert!(!g.is_revoked());
        assert_eq!(db.sessions_leased(), 1);
        drop(g);
        assert_eq!(db.sessions_leased(), 0, "guard drop released the pid");
        assert_eq!(pool.reap_expired(), 0, "registry slot cleared on drop");
        assert_eq!(pool.acquire().get(&1), Some(10));
    }

    #[test]
    fn expired_idle_lease_is_reaped_and_guard_sees_revocation() {
        let db: Database<U64Map> = Database::new(1);
        let pool = db.pool();
        let mut g = pool.acquire_leased(Duration::from_millis(1));
        g.with(|s| s.insert(1, 10)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(pool.reap_expired(), 1, "idle lease past deadline reaped");
        assert_eq!(db.sessions_leased(), 0, "pid back in the pool");
        // The next waiter gets the pid while the stalled guard lives.
        let mut fresh = pool.acquire();
        assert_eq!(fresh.get(&1), Some(10));
        assert!(g.is_revoked());
        assert_eq!(
            g.with(|s| s.insert(2, 20)).unwrap_err(),
            LeaseRevoked { pid: fresh.pid() }
        );
        drop(g);
        drop(fresh);
        assert_eq!(db.sessions_leased(), 0, "no double release, no leak");
    }

    #[test]
    fn lease_mid_transaction_is_never_revoked() {
        let db: Database<U64Map> = Database::new(1);
        let pool = db.pool();
        let mut g = pool.acquire_leased(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        g.with(|s| {
            // In-transaction: a sweep right now must skip us even
            // though the deadline is long past.
            std::thread::sleep(Duration::from_millis(5));
            assert_eq!(pool.reap_expired(), 0, "IN_TXN lease untouchable");
            s.insert(1, 1);
        })
        .expect("completed transaction renewed the lease");
        assert!(!g.is_revoked());
        drop(g);
        assert_eq!(db.sessions_leased(), 0);
    }

    #[test]
    fn pool_stats_gauges_track_admission_state() {
        let db: Database<U64Map> = Database::new(2);
        let pool = db.pool();
        assert_eq!(
            pool.stats(),
            PoolStats {
                capacity: 2,
                leased: 0,
                waiters: 0
            }
        );
        let a = pool.acquire();
        let b = pool.acquire();
        let s = pool.stats();
        assert_eq!((s.leased, s.waiters), (2, 0));
        std::thread::scope(|scope| {
            scope.spawn(|| drop(pool.acquire()));
            while pool.stats().waiters == 0 {
                std::thread::yield_now();
            }
            drop(a);
        });
        drop(b);
        assert_eq!(pool.stats().leased, 0);
    }

    #[test]
    fn router_routes_same_key_to_same_shard() {
        let router: Router<U64Map> = Router::new(4, 1);
        for key in 0u64..64 {
            let first = router.shard_for(&key);
            assert!(first < 4);
            for _ in 0..3 {
                assert_eq!(router.shard_for(&key), first, "unstable placement");
            }
        }
    }

    #[test]
    fn router_shards_are_independent() {
        let router: Router<U64Map> = Router::new(4, 2);
        // Find two keys on different shards.
        let (a, b) = {
            let a = 0u64;
            let b = (1u64..)
                .find(|k| router.shard_for(k) != router.shard_for(&a))
                .unwrap();
            (a, b)
        };
        router.session(&a).insert(1, 100);
        // Shard(b) never saw the write.
        assert_eq!(router.session(&b).get(&1), None);
        assert_eq!(router.session(&a).get(&1), Some(100));
        // Aggregates roll up across shards.
        assert_eq!(router.stats().commits, 1);
        assert_eq!(router.live_versions(), 4, "one live version per shard");
        assert_eq!(router.sessions_leased(), 0);
        assert_eq!(router.capacity(), 8);
    }

    #[test]
    fn router_seed_changes_placement_space() {
        // Different seeds must not produce identical placement for every
        // key (2^-64-ish chance per key of colliding by accident).
        let a: Router<U64Map> = Router::with_seed(8, 1, 1);
        let b: Router<U64Map> = Router::with_seed(8, 1, 2);
        let moved = (0u64..256)
            .filter(|k| a.shard_for(k) != b.shard_for(k))
            .count();
        assert!(moved > 0, "seed has no effect on placement");
    }

    #[test]
    fn router_escape_hatch_pins_explicit_shards() {
        let router: Router<U64Map> = Router::new(3, 1);
        let shard = router.shard_for(&"tenant");
        // `with_shard` + the database API reaches the same data as the
        // keyed path.
        router.session(&"tenant").insert(9, 90);
        let mut direct = router.with_shard(shard).pool().acquire();
        assert_eq!(direct.get(&9), Some(90));
        // IntoIterator sweeps all shards.
        assert_eq!((&router).into_iter().count(), 3);
    }
}
