//! The work-stealing fork-join runtime behind [`join`].
//!
//! ## Shape
//!
//! A lazily-initialized **global pool** of `N` worker threads (`N` from
//! [`std::thread::available_parallelism`], overridable with the
//! `MVCC_POOL_THREADS` environment variable; `N = 1` spawns no threads
//! and degenerates to sequential execution). Each worker owns a LIFO
//! deque of pending jobs; threads that are not pool workers submit
//! through a shared FIFO **injector**. Idle workers steal from the back
//! of the injector's front and from random siblings' deque fronts.
//!
//! ## The `join` protocol
//!
//! `join(a, b)` publishes `b` as a stack-allocated job (own deque if the
//! caller is a worker, injector otherwise), runs `a` inline, then tries
//! to get `b` back: the LIFO pop usually recovers it untouched
//! (steal-back — the common, allocation-cheap path), and if another
//! thread already stole `b` the caller *helps*: it executes other
//! pending jobs while waiting on `b`'s latch instead of blocking. A
//! panic in either closure is captured and re-thrown at the `join` call
//! site — but only after **both** halves have finished, because `b`
//! borrows the caller's stack frame.
//!
//! ## Lifecycle
//!
//! [`shutdown`] stops and joins every worker (see [`live_workers`]) and
//! returns the global slot to "uninitialized": the next `join` builds a
//! fresh pool. [`set_pool_threads`] does the same and overrides the
//! worker count — tests use it to sweep worker counts in-process.
//! Blocked `join`s survive a concurrent shutdown: a caller that cannot
//! find its stolen half simply executes the job itself once the queues
//! drain, so no job is ever abandoned.
//!
//! ## Safety
//!
//! Jobs are raw pointers to stack frames (`StackJob`), erased through
//! `JobRef`. The invariant making this sound: a `JobRef` is consumed
//! by exactly one executor (deque/injector pops are destructive), and
//! the frame that owns the job never returns before the job's latch is
//! set, which happens only after execution finished and the result (or
//! panic payload) was stored.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread;
use std::time::Duration;

// ---------------------------------------------------------------------
// Jobs and latches
// ---------------------------------------------------------------------

/// Type-erased pointer to a [`StackJob`] pending on some queue.
struct JobRef {
    ptr: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: the pointee is a `StackJob` whose closure and result types are
// `Send`; the single-consumer queue discipline (see module docs) means
// exactly one thread dereferences the pointer.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Execute the job. The caller must have popped this ref from a
    /// queue (sole ownership).
    unsafe fn execute(self) {
        unsafe { (self.exec)(self.ptr) }
    }
}

/// Completion flag wired to the forking thread for prompt wake-up.
struct Latch {
    done: AtomicBool,
    /// The thread blocked in `join` waiting on this latch.
    owner: thread::Thread,
}

impl Latch {
    fn new() -> Self {
        Latch {
            done: AtomicBool::new(false),
            owner: thread::current(),
        }
    }

    #[inline]
    fn probe(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    fn set(&self) {
        // Clone the handle *before* publishing: the instant `done` reads
        // true the owner may take the result, return, and pop the stack
        // frame holding this latch — `self` must not be touched after
        // the store.
        let owner = self.owner.clone();
        self.done.store(true, Ordering::Release);
        owner.unpark();
    }
}

/// A fork-join job allocated on the forker's stack: closure in, result
/// (or panic payload) out, completion signalled through a [`Latch`].
struct StackJob<F, R> {
    func: Cell<Option<F>>,
    result: Cell<Option<thread::Result<R>>>,
    latch: Latch,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(f: F) -> Self {
        StackJob {
            func: Cell::new(Some(f)),
            result: Cell::new(None),
            latch: Latch::new(),
        }
    }

    /// Erase into a queueable [`JobRef`].
    ///
    /// # Safety
    /// The caller must keep `self` alive (and at a stable address) until
    /// the latch is set, and must enqueue the ref on at most one queue.
    unsafe fn as_job_ref(&self) -> JobRef {
        JobRef {
            ptr: self as *const Self as *const (),
            exec: Self::execute_erased,
        }
    }

    unsafe fn execute_erased(ptr: *const ()) {
        let this = unsafe { &*(ptr as *const Self) };
        let func = this.func.take().expect("job executed twice");
        // Capture a panic instead of unwinding through the worker loop;
        // the payload re-throws at the join call site.
        let result = panic::catch_unwind(AssertUnwindSafe(func));
        this.result.set(Some(result));
        this.latch.set();
    }

    /// Take the stored result. Only valid after the latch is set.
    fn take_result(&self) -> thread::Result<R> {
        self.result.take().expect("join result missing")
    }
}

// SAFETY: a `StackJob` is shared across threads as a raw pointer but the
// protocol gives each field a single writer at a time: `func` is taken
// once by the sole executor, `result` is written by the executor and read
// by the owner only after the latch's release/acquire edge.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

// ---------------------------------------------------------------------
// Pool core
// ---------------------------------------------------------------------

/// One worker's job queue. The owner pushes and pops at the back (LIFO:
/// hot, recently forked subtrees first); thieves pop at the front
/// (FIFO: the biggest, oldest subtrees — classic work-stealing order).
struct Worker {
    deque: Mutex<VecDeque<JobRef>>,
}

struct PoolCore {
    /// Distinguishes pool generations so a thread-local worker identity
    /// from a shut-down pool is never mistaken for a current one.
    id: usize,
    workers: Box<[Worker]>,
    /// FIFO queue for submissions from threads outside the pool.
    injector: Mutex<VecDeque<JobRef>>,
    /// Sleep support: workers with nothing to do wait here.
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// Number of workers currently waiting on `idle_cv` (gates the
    /// notify so an all-busy pool never touches the idle lock).
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
}

/// Workers alive across all pool generations — observability for the
/// "no leaked threads" tests.
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Worker identity of the current thread: `(pool generation id, worker
/// index)`, or `NOT_A_WORKER`.
const NOT_A_WORKER: (usize, usize) = (0, 0);

thread_local! {
    static WORKER_ID: Cell<(usize, usize)> = const { Cell::new(NOT_A_WORKER) };
    /// How many *alien* jobs (other computations' forks) the current
    /// thread is executing nested inside `join` wait loops right now.
    static HELP_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Cap on nested alien helps per worker thread: each help level can add
/// a whole sequential subtree recursion to the stack, so an unbounded
/// chain (thousands of pending jobs on a loaded pool) overflows. Workers
/// get [`WORKER_STACK`]-sized stacks to match this budget.
const MAX_HELP_DEPTH_WORKER: usize = 32;
/// External (non-pool) threads help too, but their stacks are whatever
/// the embedding application chose (test threads: 2 MiB), so they get a
/// much smaller budget and park sooner.
const MAX_HELP_DEPTH_EXTERNAL: usize = 2;
/// Worker thread stack size: roomy enough for the help-depth budget
/// times a deep sequential recursion (virtual memory, mapped lazily).
const WORKER_STACK: usize = 16 << 20;

#[inline]
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Job closures run outside any guard and workers catch their panics,
    // so poisoning can only come from a user panic at a harmless point;
    // the queues themselves are always consistent between locks.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Cheap xorshift for the randomized steal order.
#[inline]
fn xorshift(seed: &mut u64) -> u64 {
    let mut x = *seed;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *seed = x;
    x
}

impl PoolCore {
    /// This thread's worker index in *this* pool, if any.
    fn my_index(&self) -> Option<usize> {
        let (pool, index) = WORKER_ID.with(|w| w.get());
        (pool == self.id).then_some(index)
    }

    /// Enqueue a job from the current thread and wake a sleeper.
    ///
    /// # Safety
    /// See [`StackJob::as_job_ref`]: the job must outlive its execution.
    unsafe fn publish(&self, job: JobRef) {
        match self.my_index() {
            Some(i) => lock(&self.workers[i].deque).push_back(job),
            None => lock(&self.injector).push_back(job),
        }
        self.notify();
    }

    fn notify(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            // Taking the idle lock orders this notify after any sleeper
            // that incremented `sleepers` but has not started waiting.
            // One job was published, so one waker suffices — waking the
            // whole pool per fork is a thundering herd of deque-lock
            // sweeps (the wait timeout covers any lost-wakeup edge).
            let _g = lock(&self.idle);
            self.idle_cv.notify_one();
        }
    }

    /// Pop one pending job: own deque back (LIFO steal-back), then the
    /// injector, then a randomized sweep of sibling deque fronts.
    fn find_work(&self, my: Option<usize>, seed: &mut u64) -> Option<JobRef> {
        if let Some(i) = my {
            if let Some(job) = lock(&self.workers[i].deque).pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = lock(&self.injector).pop_front() {
            return Some(job);
        }
        let n = self.workers.len();
        let start = (xorshift(seed) % n as u64) as usize;
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == my {
                continue;
            }
            if let Some(job) = lock(&self.workers[victim].deque).pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Remove and return the specific pending job `target` if it is
    /// still claimable by its forker: the back of the forker's own deque
    /// (LIFO discipline puts the current frame's fork on top whenever
    /// the forker is at its wait loop), or anywhere in the injector for
    /// an external forker. Address comparison is unambiguous — a queued
    /// ref and a live `StackJob` at the same address are the same job.
    fn reclaim(&self, my: Option<usize>, target: *const ()) -> Option<JobRef> {
        match my {
            Some(i) => {
                let mut dq = lock(&self.workers[i].deque);
                if dq.back().is_some_and(|j| j.ptr == target) {
                    dq.pop_back()
                } else {
                    None
                }
            }
            None => {
                let mut inj = lock(&self.injector);
                let pos = inj.iter().position(|j| j.ptr == target)?;
                inj.remove(pos)
            }
        }
    }

    /// Racy "is anything queued" check used only on the idle path.
    fn has_queued(&self) -> bool {
        if !lock(&self.injector).is_empty() {
            return true;
        }
        self.workers.iter().any(|w| !lock(&w.deque).is_empty())
    }
}

fn worker_main(core: Arc<PoolCore>, index: usize) {
    WORKER_ID.with(|w| w.set((core.id, index)));
    let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ ((index as u64 + 1) << 32) ^ core.id as u64;
    loop {
        if let Some(job) = core.find_work(Some(index), &mut seed) {
            // SAFETY: popped from a queue — we are the sole executor.
            unsafe { job.execute() };
            continue;
        }
        if core.shutdown.load(Ordering::Acquire) {
            // Quiescent and told to stop. Any job published after our
            // last sweep is picked up by its (still-live) forker, which
            // self-executes once the queues stay empty.
            break;
        }
        let guard = lock(&core.idle);
        if core.shutdown.load(Ordering::Acquire) || core.has_queued() {
            continue;
        }
        core.sleepers.fetch_add(1, Ordering::Relaxed);
        // Wake-ups are notify-driven (`publish` → `notify`); the timeout
        // only bounds the one unavoidable race (a publish between our
        // `has_queued` sweep and the wait), so it can be generous —
        // short timeouts make idle workers churn the scheduler, which
        // costs real throughput on time-sliced single-core hosts.
        let _ = core.idle_cv.wait_timeout(guard, Duration::from_millis(20));
        core.sleepers.fetch_sub(1, Ordering::Relaxed);
    }
    LIVE_WORKERS.fetch_sub(1, Ordering::Release);
}

// ---------------------------------------------------------------------
// Global pool slot
// ---------------------------------------------------------------------

enum State {
    /// No decision yet: the next `join` initializes.
    Uninit,
    /// One usable thread — run every `join` sequentially, spawn nothing.
    Sequential,
    Running(PoolHandle),
}

struct PoolHandle {
    core: Arc<PoolCore>,
    handles: Vec<thread::JoinHandle<()>>,
}

static STATE: RwLock<State> = RwLock::new(State::Uninit);
/// Worker-count override installed by [`set_pool_threads`]; 0 = unset
/// (fall back to `MVCC_POOL_THREADS`, then `available_parallelism`).
static OVERRIDE_THREADS: AtomicUsize = AtomicUsize::new(0);
/// Pool generation ids (start at 1 so `NOT_A_WORKER` never matches).
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

/// The worker count the next (re)initialization will use.
fn configured_threads() -> usize {
    let over = OVERRIDE_THREADS.load(Ordering::Relaxed);
    if over != 0 {
        return over;
    }
    match std::env::var("MVCC_POOL_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        // `0` reads as "no workers" — sequential, like `1` (and unlike
        // `set_pool_threads(0)`, whose 0 clears the override).
        Some(n) => n.max(1),
        None => thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

fn read_state() -> std::sync::RwLockReadGuard<'static, State> {
    STATE.read().unwrap_or_else(|e| e.into_inner())
}

fn write_state() -> std::sync::RwLockWriteGuard<'static, State> {
    STATE.write().unwrap_or_else(|e| e.into_inner())
}

/// The running pool, initializing it on first use. `None` means
/// sequential mode.
fn current_core() -> Option<Arc<PoolCore>> {
    loop {
        match &*read_state() {
            State::Sequential => return None,
            State::Running(h) => return Some(h.core.clone()),
            State::Uninit => {}
        }
        // A pool worker observing Uninit is racing a shutdown() that
        // already detached its generation and is now joining it.
        // Re-creating the global pool from inside the dying one would
        // hand shutdown's caller live workers it can never see; run
        // this join inline instead (always correct, and the worker is
        // about to exit anyway).
        if WORKER_ID.with(|w| w.get()) != NOT_A_WORKER {
            return None;
        }
        let mut state = write_state();
        if let State::Uninit = &*state {
            *state = init_pool(configured_threads());
        }
    }
}

fn init_pool(threads: usize) -> State {
    if threads <= 1 {
        return State::Sequential;
    }
    let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
    let core = Arc::new(PoolCore {
        id,
        workers: (0..threads)
            .map(|_| Worker {
                deque: Mutex::new(VecDeque::new()),
            })
            .collect(),
        injector: Mutex::new(VecDeque::new()),
        idle: Mutex::new(()),
        idle_cv: Condvar::new(),
        sleepers: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
    });
    let handles = (0..threads)
        .map(|index| {
            let core = Arc::clone(&core);
            LIVE_WORKERS.fetch_add(1, Ordering::Relaxed);
            thread::Builder::new()
                .name(format!("mvcc-pool-{index}"))
                .stack_size(WORKER_STACK)
                .spawn(move || worker_main(core, index))
                .expect("failed to spawn pool worker")
        })
        .collect();
    State::Running(PoolHandle { core, handles })
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// Run both closures, potentially in parallel, and return their results.
///
/// With a multi-threaded pool `b` is published for stealing while `a`
/// runs inline on the calling thread; the caller then steals `b` back
/// (or helps execute other pending jobs until `b`'s thief finishes). A
/// panic in either closure propagates to the caller — after both halves
/// have completed, so borrowed stack data stays valid throughout.
///
/// With `MVCC_POOL_THREADS=1` (or a single-core host) this is exactly
/// the old sequential shim: `a` then `b` on the calling thread.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match current_core() {
        None => (oper_a(), oper_b()),
        Some(core) => join_parallel(&core, oper_a, oper_b),
    }
}

fn join_parallel<A, B, RA, RB>(core: &PoolCore, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(oper_b);
    // SAFETY: `job_b` lives on this frame, and this function does not
    // return before `job_b.latch` is set (the wait loop below), so the
    // erased pointer outlives its single execution.
    unsafe { core.publish(job_b.as_job_ref()) };

    // Run `a` inline. A panic may not unwind yet: `b` borrows this frame.
    let result_a = panic::catch_unwind(AssertUnwindSafe(oper_a));

    let my = core.my_index();
    let b_ptr = &job_b as *const StackJob<B, RB> as *const ();
    let mut seed = (b_ptr as u64) | 1;
    while !job_b.latch.probe() {
        // Steal-back first: if nobody took `b`, reclaim it and run it
        // inline — the common path, costing one lock and no context
        // switch, and (like sequential execution would) adding only the
        // computation's own recursion depth to the stack.
        if let Some(job) = core.reclaim(my, b_ptr) {
            // SAFETY: removed from a queue — sole executor.
            unsafe { job.execute() };
            continue; // latch is now set
        }
        // `b` was stolen and is running on its thief. Help with other
        // pending jobs instead of blocking — but only up to a depth
        // budget, because every alien job can itself wait and help,
        // and an unbounded chain overflows the stack. Past the budget
        // we park; `b`'s completion is the thief's responsibility and
        // its latch-set unparks us (the timeout bounds the
        // probe-to-park race and any missed work re-check).
        let depth = HELP_DEPTH.get();
        let budget = if my.is_some() {
            MAX_HELP_DEPTH_WORKER
        } else {
            MAX_HELP_DEPTH_EXTERNAL
        };
        if depth < budget {
            if let Some(job) = core.find_work(my, &mut seed) {
                HELP_DEPTH.set(depth + 1);
                // SAFETY: popped from a queue — sole executor.
                unsafe { job.execute() };
                HELP_DEPTH.set(depth);
                continue;
            }
        }
        if !job_b.latch.probe() {
            thread::park_timeout(Duration::from_micros(100));
        }
    }
    let result_b = job_b.take_result();

    match (result_a, result_b) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        // `a`'s panic wins when both halves panicked (it happened first
        // from the program-order point of view); `b`'s payload is
        // dropped in that case.
        (Err(payload), _) => panic::resume_unwind(payload),
        (_, Err(payload)) => panic::resume_unwind(payload),
    }
}

/// Number of threads `join` currently fans out over: the live pool's
/// worker count, or what the next initialization would use.
pub fn current_num_threads() -> usize {
    match &*read_state() {
        State::Running(h) => h.core.workers.len(),
        State::Sequential => 1,
        State::Uninit => configured_threads(),
    }
}

/// Workers currently alive (0 after a completed [`shutdown`]) — the
/// thread-leak oracle for tests.
pub fn live_workers() -> usize {
    LIVE_WORKERS.load(Ordering::Acquire)
}

/// Stop and join every worker of the global pool, returning the slot to
/// "uninitialized" (the next [`join`] re-creates it). Safe to call
/// concurrently with in-flight `join`s: their forkers self-execute any
/// job the exiting workers left behind. Intended for tests, benches and
/// orderly teardown; a process exit without it is also fine (workers
/// never hold resources that outlive the process).
pub fn shutdown() {
    let prev = std::mem::replace(&mut *write_state(), State::Uninit);
    if let State::Running(handle) = prev {
        handle.core.shutdown.store(true, Ordering::Release);
        {
            let _g = lock(&handle.core.idle);
            handle.core.idle_cv.notify_all();
        }
        for h in handle.handles {
            let _ = h.join();
        }
    }
}

/// Shut the pool down and pin the worker count of the next
/// initialization to `threads` (`0` clears the override, restoring the
/// `MVCC_POOL_THREADS`/`available_parallelism` default). Benches use
/// this to sweep worker counts in one process.
pub fn set_pool_threads(threads: usize) {
    // Install the override *before* tearing the pool down so a join
    // racing the shutdown re-initializes at the new width, not the old.
    OVERRIDE_THREADS.store(threads, Ordering::Relaxed);
    shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Every test reconfigures the one global pool, so they serialize.
    static POOL_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _g = lock(&POOL_TEST_LOCK);
        set_pool_threads(n);
        let r = f();
        set_pool_threads(0);
        shutdown();
        assert_eq!(live_workers(), 0, "workers must not leak across tests");
        r
    }

    /// Parallel recursive sum over a range — exercises nested joins at
    /// every level.
    fn sum(lo: u64, hi: u64) -> u64 {
        if hi - lo <= 64 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
        a + b
    }

    #[test]
    fn nested_joins_compute_correctly() {
        for threads in [1, 2, 4] {
            let got = with_threads(threads, || sum(0, 100_000));
            assert_eq!(got, (0..100_000u64).sum::<u64>(), "threads={threads}");
        }
    }

    #[test]
    fn join_runs_closures_exactly_once() {
        with_threads(3, || {
            let calls = AtomicU64::new(0);
            for _ in 0..1_000 {
                let ((), ()) = join(
                    || {
                        calls.fetch_add(1, Ordering::Relaxed);
                    },
                    || {
                        calls.fetch_add(1 << 32, Ordering::Relaxed);
                    },
                );
            }
            let v = calls.load(Ordering::Relaxed);
            assert_eq!(v & 0xFFFF_FFFF, 1_000);
            assert_eq!(v >> 32, 1_000);
        });
    }

    #[test]
    fn panic_in_either_half_propagates() {
        with_threads(2, || {
            for (which, expect) in [("a", "boom-a"), ("b", "boom-b")] {
                let caught = panic::catch_unwind(|| {
                    join(
                        || {
                            if which == "a" {
                                panic!("boom-a")
                            }
                        },
                        || {
                            if which == "b" {
                                panic!("boom-b")
                            }
                        },
                    )
                });
                let payload = caught.expect_err("panic must propagate");
                let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
                assert_eq!(msg, expect);
            }
            // The pool survives propagated panics.
            assert_eq!(join(|| 1, || 2), (1, 2));
        });
    }

    #[test]
    fn deep_panic_under_load_does_not_deadlock() {
        with_threads(4, || {
            for round in 0..50 {
                let r = panic::catch_unwind(|| {
                    join(
                        || sum(0, 50_000),
                        || {
                            let _ = sum(0, 10_000);
                            panic!("late panic {round}");
                        },
                    )
                });
                assert!(r.is_err());
            }
            assert_eq!(join(|| 1, || 2), (1, 2));
        });
    }

    #[test]
    fn sequential_fallback_spawns_no_threads() {
        with_threads(1, || {
            assert_eq!(current_num_threads(), 1);
            assert_eq!(sum(0, 10_000), (0..10_000u64).sum::<u64>());
            assert_eq!(live_workers(), 0, "N=1 must not spawn workers");
        });
    }

    #[test]
    fn join_from_external_thread_completes() {
        with_threads(2, || {
            // The spawned thread is not a pool worker: its `b` goes
            // through the injector and it helps while waiting.
            let out = thread::spawn(|| sum(0, 200_000)).join().unwrap();
            assert_eq!(out, (0..200_000u64).sum::<u64>());
        });
    }

    #[test]
    fn shutdown_joins_all_workers_and_pool_reinitializes() {
        let _g = lock(&POOL_TEST_LOCK);
        set_pool_threads(4);
        assert_eq!(join(|| 40, || 2), (40, 2));
        assert_eq!(live_workers(), 4);
        shutdown();
        assert_eq!(live_workers(), 0, "shutdown must join every worker");
        // Next join lazily re-creates the pool at the configured width.
        assert_eq!(join(|| 4, || 2), (4, 2));
        assert_eq!(live_workers(), 4);
        set_pool_threads(0);
        shutdown();
        assert_eq!(live_workers(), 0);
    }

    #[test]
    fn results_move_through_join() {
        with_threads(2, || {
            let (a, b) = join(|| vec![1u8, 2, 3], || "hello".to_string());
            assert_eq!(a, vec![1, 2, 3]);
            assert_eq!(b, "hello");
        });
    }
}
