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

/// Drive one future to completion on the current thread, parking
/// between polls — the minimal executor. Enough to use
/// [`SessionPool::acquire_async`] from synchronous code and tests; the
/// `mvcc-net` server brings its own readiness loop instead.
///
/// It re-polls only when woken, so a *poll-observed* deadline
/// ([`SessionPool::poll_acquire_deadline`]) on a pool nothing releases
/// never fires under it: there is no timer to produce the wake. From
/// synchronous code use [`SessionPool::acquire_timeout`] (its parked
/// thread times out on its own).
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

/// The router's hash seed; an arbitrary odd 64-bit constant
/// (splitmix64's increment), so shard placement is stable across runs.
const ROUTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

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
}

impl<P: TreeParams> Router<P, PswfVm> {
    /// `shards` empty PSWF databases with `processes_per_shard` pids
    /// each.
    ///
    /// # Panics
    /// If `shards == 0` or `processes_per_shard == 0`.
    pub fn new(shards: usize, processes_per_shard: usize) -> Self {
        Self::build(shards, processes_per_shard, Database::new)
    }
}

impl<P: TreeParams> Router<P, Box<dyn VersionMaintenance>> {
    /// A router whose shards run the given VM algorithm family.
    ///
    /// # Panics
    /// If `shards == 0` or `processes_per_shard == 0`.
    pub fn with_kind(kind: VmKind, shards: usize, processes_per_shard: usize) -> Self {
        Self::build(shards, processes_per_shard, |p| {
            Database::with_kind(kind, p)
        })
    }
}

impl<P: TreeParams, M: VersionMaintenance> Router<P, M> {
    fn build(
        shards: usize,
        processes_per_shard: usize,
        database: impl Fn(usize) -> Database<P, M>,
    ) -> Self {
        assert!(shards > 0, "router needs at least one shard");
        assert!(processes_per_shard > 0, "shards need at least one pid");
        Router {
            shards: (0..shards).map(|_| database(processes_per_shard)).collect(),
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
        hasher.write_u64(ROUTER_SEED);
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// The shard database at `index` — the escape hatch for callers that
    /// computed (or pinned) a placement themselves.
    ///
    /// # Panics
    /// If `index >= shards()`.
    pub fn with_shard(&self, index: usize) -> &Database<P, M> {
        &self.shards[index]
    }

    /// Lease a session on `key`'s shard, parking FIFO (per shard) until
    /// one of that shard's pids frees.
    pub fn session<K: Hash + ?Sized>(&self, key: &K) -> Session<'_, P, M> {
        self.with_shard(self.shard_for(key)).pool().acquire()
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
