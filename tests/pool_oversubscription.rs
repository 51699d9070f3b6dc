//! Session-pool and router semantics under oversubscription: more
//! logical sessions than the paper's `P` process ids.
//!
//! The acceptance bar for the pool layer: with 4× more client threads
//! than pids, every `acquire` eventually succeeds by parking (never
//! `Err(Exhausted)`), waiters wake FIFO, timeouts expire cleanly, a key
//! always routes to the same shard, and at the end every pid is back in
//! its pool with precise GC's one live version per database.
//!
//! The `*_stress` variants run the same oracles at stress-tier scale via
//! the CI `stress` job (`cargo test --release -- --ignored`).

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use multiversion::core::pool::block_on;
use multiversion::core::{AcquireState, Database, PoolStats, Router};
use multiversion::ftree::{SumU64Map, U64Map};

/// A waker that counts its wakes — lets tests assert exactly who a
/// session release woke.
struct CountWaker(AtomicUsize);

impl CountWaker {
    fn pair() -> (Arc<CountWaker>, Waker) {
        let inner = Arc::new(CountWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&inner));
        (inner, waker)
    }

    fn wakes(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

impl Wake for CountWaker {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Waiters parked while the pool is exhausted wake in arrival order:
/// each freed pid goes to the longest-waiting client.
#[test]
fn fifo_wake_order_under_contention() {
    const WAITERS: usize = 6;
    let db: Database<U64Map> = Database::new(1);
    let pool = db.pool();
    let gate = pool.acquire(); // the sole pid is out
    let woken: Arc<Mutex<Vec<usize>>> = Default::default();

    std::thread::scope(|s| {
        for w in 0..WAITERS {
            // Serialize enqueue order: spawn waiter w+1 only after w is
            // in the queue (the queue length is exact under the lock).
            let expected = w + 1;
            let woken = Arc::clone(&woken);
            let pool = &pool;
            s.spawn(move || {
                let session = pool.acquire();
                woken.lock().unwrap().push(w);
                drop(session); // frees the pid for the next waiter
            });
            while pool.waiters() < expected {
                std::thread::yield_now();
            }
        }
        // All parked; release the pid and let the chain run.
        drop(gate);
    });

    assert_eq!(
        *woken.lock().unwrap(),
        (0..WAITERS).collect::<Vec<_>>(),
        "waiters must be served first-come-first-served"
    );
    assert_eq!(db.sessions_leased(), 0);
    assert_eq!(pool.waiters(), 0);
}

/// `acquire_timeout` expires when the queue ahead doesn't drain, removes
/// itself from the queue, and does not disturb waiters behind it.
#[test]
fn acquire_timeout_expiry_leaves_others_waiting() {
    let db: Database<U64Map> = Database::new(1);
    let pool = db.pool();
    let held = pool.acquire();

    std::thread::scope(|s| {
        // A patient waiter first in line.
        let patient = s.spawn(|| pool.acquire().pid());
        while pool.waiters() < 1 {
            std::thread::yield_now();
        }
        // An impatient one behind it: must time out, not steal the pid.
        let err = pool
            .acquire_timeout(Duration::from_millis(30))
            .expect_err("pid is held and a waiter is ahead");
        assert!(err.waited >= Duration::from_millis(30));
        assert_eq!(pool.waiters(), 1, "expired waiter removed only itself");
        let freed = held.pid();
        drop(held);
        assert_eq!(patient.join().unwrap(), freed, "patient waiter served");
    });
    assert_eq!(db.sessions_leased(), 0);
}

/// A timed acquire that is front-of-queue when a pid frees succeeds well
/// inside its allowance.
#[test]
fn acquire_timeout_succeeds_when_freed_in_time() {
    let db: Database<U64Map> = Database::new(1);
    let pool = db.pool();
    let held = pool.acquire();
    std::thread::scope(|s| {
        let waiter = s.spawn(|| pool.acquire_timeout(Duration::from_secs(30)));
        while pool.waiters() < 1 {
            std::thread::yield_now();
        }
        drop(held);
        let mut session = waiter.join().unwrap().expect("pid freed in time");
        session.insert(1, 1);
    });
    assert_eq!(db.sessions_leased(), 0);
}

/// Dropping an async acquire that is still queued surrenders its ticket
/// — and if a release had already elected it, the wake is forwarded to
/// the waiter behind it rather than lost.
#[test]
fn async_acquire_dropped_while_queued_forwards_its_wake() {
    let db: Database<U64Map> = Database::new(1);
    let pool = db.pool();
    let gate = pool.acquire(); // the sole pid is out

    let (front_count, front_waker) = CountWaker::pair();
    let (back_count, back_waker) = CountWaker::pair();

    // AcquireFuture is Unpin, so Pin::new suffices — and `front` stays
    // an owned future we can genuinely drop mid-wait below.
    let mut front = pool.acquire_async();
    assert!(Pin::new(&mut front)
        .poll(&mut Context::from_waker(&front_waker))
        .is_pending());
    let mut back = pool.acquire_async();
    assert!(Pin::new(&mut back)
        .poll(&mut Context::from_waker(&back_waker))
        .is_pending());
    assert_eq!(pool.waiters(), 2);

    // The release elects the front waiter: exactly one wake, to it.
    drop(gate);
    assert_eq!(front_count.wakes(), 1, "release wakes the front waiter");
    assert_eq!(back_count.wakes(), 0, "one wake per release, not a herd");

    // The front future dies without consuming its wake. Cancellation
    // must pass the baton: the next waiter gets woken, and the pid is
    // still there for it.
    drop(front);
    assert_eq!(pool.waiters(), 1, "cancelled waiter left the queue");
    assert_eq!(back_count.wakes(), 1, "stolen wake forwarded on cancel");
    match Pin::new(&mut back).poll(&mut Context::from_waker(&back_waker)) {
        Poll::Ready(session) => drop(session),
        Poll::Pending => panic!("woken waiter at the front of a free pool must be granted"),
    }

    assert_eq!(pool.waiters(), 0);
    assert_eq!(db.sessions_leased(), 0);
}

/// Sync (thread-parking) and async (waker) waiters share one queue and
/// one arrival order: a freed pid goes to whoever has waited longest,
/// regardless of how they wait.
#[test]
fn fifo_order_holds_across_mixed_sync_and_async_waiters() {
    const WAITERS: usize = 6;
    let db: Database<U64Map> = Database::new(1);
    let pool = db.pool();
    let gate = pool.acquire();
    let woken: Arc<Mutex<Vec<usize>>> = Default::default();

    std::thread::scope(|s| {
        for w in 0..WAITERS {
            let expected = w + 1;
            let woken = Arc::clone(&woken);
            let pool = &pool;
            s.spawn(move || {
                // Odd arrivals wait as futures, even ones as threads —
                // interleaved in one queue.
                let session = if w % 2 == 1 {
                    block_on(pool.acquire_async())
                } else {
                    pool.acquire()
                };
                woken.lock().unwrap().push(w);
                drop(session);
            });
            // Serialize enqueue order before spawning the next waiter
            // (block_on enqueues on its first poll).
            while pool.waiters() < expected {
                std::thread::yield_now();
            }
        }
        drop(gate);
    });

    assert_eq!(
        *woken.lock().unwrap(),
        (0..WAITERS).collect::<Vec<_>>(),
        "one queue, one order — however the waiter waits"
    );
    assert_eq!(db.sessions_leased(), 0);
    assert_eq!(pool.waiters(), 0);
}

/// Re-polling a parked acquire from a different task re-registers the
/// new task's waker: the eventual release wakes the current waker, not
/// the stale one.
#[test]
fn repoll_from_another_task_replaces_the_registered_waker() {
    let db: Database<U64Map> = Database::new(1);
    let pool = db.pool();
    let gate = pool.acquire();

    let (stale_count, stale_waker) = CountWaker::pair();
    let (live_count, live_waker) = CountWaker::pair();

    // Poll through the state-machine API directly — the future form is
    // exercised elsewhere; here the waker swap is the point.
    let mut state = AcquireState::default();
    assert!(pool
        .poll_acquire(&mut Context::from_waker(&stale_waker), &mut state)
        .is_pending());
    // The owning task migrates: same state, new waker.
    assert!(pool
        .poll_acquire(&mut Context::from_waker(&live_waker), &mut state)
        .is_pending());
    assert_eq!(pool.waiters(), 1, "re-poll re-registers, never re-enqueues");

    drop(gate);
    assert_eq!(stale_count.wakes(), 0, "stale waker must not fire");
    assert_eq!(live_count.wakes(), 1, "the replacement waker fires");

    match pool.poll_acquire(&mut Context::from_waker(&live_waker), &mut state) {
        Poll::Ready(session) => drop(session),
        Poll::Pending => panic!("front waiter of a free pool must be granted"),
    }
    assert_eq!(pool.waiters(), 0);
    assert_eq!(db.sessions_leased(), 0);
}

/// A deadline expiring *mid-queue* removes exactly that waiter: the one
/// ahead is still served first and the one behind is served next — the
/// cancellation shares `WaitQueue::cancel`, so FIFO order is untouched.
#[test]
fn async_deadline_expiry_mid_queue_preserves_fifo() {
    let db: Database<U64Map> = Database::new(1);
    let pool = db.pool();
    let gate = pool.acquire(); // the sole pid is out

    let (a_count, a_waker) = CountWaker::pair();
    let (b_count, b_waker) = CountWaker::pair();
    let (c_count, c_waker) = CountWaker::pair();

    // Ahead: a patient waiter. Middle: a 20ms deadline. Behind: patient.
    let mut a = AcquireState::default();
    assert!(pool
        .poll_acquire(&mut Context::from_waker(&a_waker), &mut a)
        .is_pending());
    let mut b = AcquireState::with_deadline(Instant::now() + Duration::from_millis(20));
    assert!(pool
        .poll_acquire_deadline(&mut Context::from_waker(&b_waker), &mut b)
        .is_pending());
    let mut c = AcquireState::default();
    assert!(pool
        .poll_acquire(&mut Context::from_waker(&c_waker), &mut c)
        .is_pending());
    assert_eq!(
        pool.stats(),
        PoolStats {
            capacity: 1,
            leased: 1,
            waiters: 3
        },
        "gauges see the full queue"
    );

    // Let the middle deadline lapse; its next poll expires it in place.
    std::thread::sleep(Duration::from_millis(40));
    match pool.poll_acquire_deadline(&mut Context::from_waker(&b_waker), &mut b) {
        Poll::Ready(Err(err)) => assert!(err.waited >= Duration::from_millis(20)),
        other => panic!("lapsed deadline must expire, got {other:?}"),
    }
    assert_eq!(pool.waiters(), 2, "the expired waiter removed only itself");
    assert_eq!(
        b_count.wakes(),
        0,
        "no release happened; expiry is poll-observed"
    );

    // The release chain serves A then C — the hole left by B is invisible.
    drop(gate);
    assert_eq!((a_count.wakes(), c_count.wakes()), (1, 0), "front first");
    let a_session = match pool.poll_acquire(&mut Context::from_waker(&a_waker), &mut a) {
        Poll::Ready(session) => session,
        Poll::Pending => panic!("woken front waiter must be granted"),
    };
    // A's grant hands the new front (C) its coalesced-permit chance;
    // with the pid still out, C's poll stays pending.
    assert_eq!(c_count.wakes(), 1, "C was elected front, not B's ghost");
    assert!(pool
        .poll_acquire(&mut Context::from_waker(&c_waker), &mut c)
        .is_pending());
    drop(a_session);
    assert_eq!(c_count.wakes(), 2, "A's release wakes C, skipping the hole");
    match pool.poll_acquire(&mut Context::from_waker(&c_waker), &mut c) {
        Poll::Ready(session) => drop(session),
        Poll::Pending => panic!("woken back waiter must be granted"),
    }

    assert_eq!(pool.waiters(), 0);
    assert_eq!(db.sessions_leased(), 0);
}

/// Router placement is a pure function of (seed, key): same key, same
/// shard, on every call and from every thread.
#[test]
fn router_shard_stability_across_calls_and_threads() {
    let router: Arc<Router<U64Map>> = Arc::new(Router::new(8, 1));
    let keys: Vec<String> = (0..200).map(|i| format!("tenant-{i}")).collect();
    let reference: Vec<usize> = keys.iter().map(|k| router.shard_for(k)).collect();

    // Every shard index is in range and the map is not degenerate (200
    // keys over 8 shards collapsing onto one shard would mean the hash
    // ignores the key).
    assert!(reference.iter().all(|&s| s < 8));
    let used: std::collections::HashSet<_> = reference.iter().collect();
    assert!(used.len() > 1, "all keys hashed to one shard");

    std::thread::scope(|s| {
        for _ in 0..4 {
            let router = Arc::clone(&router);
            let keys = &keys;
            let reference = &reference;
            s.spawn(move || {
                for (k, &expect) in keys.iter().zip(reference) {
                    assert_eq!(router.shard_for(k), expect, "placement moved for {k}");
                }
            });
        }
    });
}

/// The acceptance criterion: 4× more client threads than `P`, all
/// acquiring through the pool — no `Exhausted` errors anywhere, every
/// acquire eventually succeeds by parking, and the run ends with all
/// pids returned and one live version.
#[test]
fn oversubscribed_4x_churn_returns_all_pids() {
    oversubscribed_churn_scaled(4, 60);
}

/// Stress-tier oversubscription: the same invariants at 25× the churn.
#[test]
#[ignore = "stress tier: long-running, run with --ignored in release"]
fn oversubscribed_4x_churn_returns_all_pids_stress() {
    oversubscribed_churn_scaled(4, 1_500);
}

fn oversubscribed_churn_scaled(pids: usize, leases_per_client: usize) {
    let clients = 4 * pids; // 4× oversubscribed
    let db: Database<SumU64Map> = Database::new(pids);
    let pool = db.pool();
    let completed = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for c in 0..clients {
            let pool = &pool;
            let completed = &completed;
            s.spawn(move || {
                for i in 0..leases_per_client {
                    // Parks when all pids are out; never errors.
                    let mut session = pool.acquire();
                    let k = (c * leases_per_client + i) as u64;
                    session.write(|txn| {
                        txn.insert(k, 1);
                        txn.insert(k + 1, 1);
                    });
                    session.remove(&k);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(
        completed.load(Ordering::Relaxed),
        clients * leases_per_client,
        "every oversubscribed acquire must eventually succeed"
    );
    assert_eq!(db.sessions_leased(), 0, "all pids returned to the pool");
    assert_eq!(pool.waiters(), 0, "wait queue drained");
    assert_eq!(db.live_versions(), 1, "precise GC in quiescence");
    let stats = db.stats();
    assert_eq!(
        stats.commits,
        (clients * leases_per_client * 2) as u64,
        "two commits per lease"
    );
    // The pool is still fully usable afterwards.
    let all: Vec<_> = (0..pids).map(|_| pool.try_acquire().unwrap()).collect();
    assert_eq!(all.len(), pids);
}

/// The same 4× oversubscription across a router: clients hash to shards,
/// each shard's pool parks its own queue, and every shard drains clean.
#[test]
fn router_oversubscribed_churn_across_shards() {
    router_churn_scaled(40);
}

/// Stress-tier router churn.
#[test]
#[ignore = "stress tier: long-running, run with --ignored in release"]
fn router_oversubscribed_churn_across_shards_stress() {
    router_churn_scaled(1_000);
}

fn router_churn_scaled(leases_per_client: usize) {
    const SHARDS: usize = 4;
    const PIDS: usize = 2;
    let clients = 4 * SHARDS * PIDS; // 4× the aggregate N×P capacity
    let router: Router<U64Map> = Router::new(SHARDS, PIDS);
    let writes = AtomicU64::new(0);

    std::thread::scope(|s| {
        for c in 0..clients {
            let router = &router;
            let writes = &writes;
            s.spawn(move || {
                for i in 0..leases_per_client {
                    // Key by client: all of c's writes land on one shard.
                    let mut session = router.session(&c);
                    session.insert((c * leases_per_client + i) as u64, c as u64);
                    writes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(
        writes.load(Ordering::Relaxed),
        (clients * leases_per_client) as u64
    );
    assert_eq!(router.sessions_leased(), 0, "every shard's pids returned");
    assert_eq!(router.stats().commits, (clients * leases_per_client) as u64);
    assert_eq!(
        router.live_versions(),
        SHARDS as u64,
        "one live version per quiescent shard"
    );
    // Each client's keys are on exactly the shard its key hashed to.
    for c in 0..clients {
        let shard = router.shard_for(&c);
        let mut s = router.with_shard(shard).pool().acquire();
        assert_eq!(
            s.get(&((c * leases_per_client) as u64)),
            Some(c as u64),
            "client {c}'s writes must be on shard {shard}"
        );
    }
}
