//! Lease-lifecycle tests for the session API: the VM contract ("each
//! process id used by at most one thread at a time") is now enforced by
//! `Database::session`'s lock-free pid registry, and these tests pin the
//! lifecycle down — exhaustion, reuse after drop, double-lease refusal,
//! `Send + !Sync` marker traits, and a multi-thread session-churn stress
//! that must end with precise GC's one live version.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use multiversion::core::{Database, Session, SessionError};
use multiversion::ftree::U64Map;

/// `Session` must stay `Send`: a logical writer may migrate between
/// threads (e.g. a thread pool). Compile-time check.
#[allow(dead_code)]
fn session_is_send(s: Session<'static, U64Map>) -> impl Send {
    s
}

/// `Session` must stay `!Sync`: sharing one pid between threads is
/// exactly what the lease exists to prevent. The companion compile-time
/// check is the `compile_fail` doctest on `mvcc_core::Session` itself:
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<multiversion::core::Session<'static, multiversion::ftree::U64Map>>();
/// ```
#[test]
fn session_not_sync_doctest_is_exercised() {
    // The negative assertion lives in the doctests above and on
    // `mvcc_core::Session`; this test documents where, so a future
    // `unsafe impl Sync` cannot land without tripping `cargo test`.
}

#[test]
fn pool_exhaustion_returns_err() {
    let db: Database<U64Map> = Database::new(3);
    let s0 = db.session().unwrap();
    let s1 = db.session().unwrap();
    let s2 = db.session().unwrap();
    assert_eq!(db.sessions_leased(), 3);
    match db.session() {
        Err(SessionError::Exhausted { processes }) => assert_eq!(processes, 3),
        other => panic!("expected Exhausted, got {:?}", other.map(|s| s.pid())),
    }
    // Pids are distinct.
    let mut pids = [s0.pid(), s1.pid(), s2.pid()];
    pids.sort_unstable();
    assert_eq!(pids, [0, 1, 2]);
}

#[test]
fn dropping_a_session_returns_its_pid() {
    let db: Database<U64Map> = Database::new(2);
    let s0 = db.session().unwrap();
    let _s1 = db.session().unwrap();
    let freed = s0.pid();
    assert!(db.session().is_err(), "pool exhausted while both live");
    drop(s0);
    let s2 = db.session().expect("dropped pid must be leasable again");
    assert_eq!(s2.pid(), freed, "the freed pid is what comes back");
    assert_eq!(db.sessions_leased(), 2);
}

#[test]
fn session_for_on_leased_pid_fails() {
    let db: Database<U64Map> = Database::new(4);
    let held = db.session_for(2).unwrap();
    assert_eq!(held.pid(), 2);
    match db.session_for(2) {
        Err(SessionError::PidLeased { pid }) => assert_eq!(pid, 2),
        other => panic!("expected PidLeased, got {:?}", other.map(|s| s.pid())),
    }
    // Anonymous leases skip the held pid.
    let a = db.session().unwrap();
    let b = db.session().unwrap();
    let c = db.session().unwrap();
    assert!(![a.pid(), b.pid(), c.pid()].contains(&2));
    assert!(matches!(db.session(), Err(SessionError::Exhausted { .. })));
    drop(held);
    assert_eq!(db.session().unwrap().pid(), 2);
}

#[test]
fn session_counters_flush_on_drop() {
    let db: Database<U64Map> = Database::new(1);
    {
        let mut s = db.session().unwrap();
        s.insert(1, 1);
        s.insert(2, 2);
        s.get(&1);
        assert_eq!(s.stats().commits, 2);
        assert_eq!(s.stats().reads, 1);
        // Global stats lag while the session is live (local counting).
        assert_eq!(db.stats().commits, 0);
    }
    let stats = db.stats();
    assert_eq!(stats.commits, 2);
    assert_eq!(stats.reads, 1);
    assert_eq!(stats.aborts, 0);
}

/// Multi-thread session churn: threads continuously lease, transact and
/// drop sessions. Nothing may double-lease (checked by the pool), every
/// pid must come back, and at quiescence precise GC leaves exactly one
/// live version.
#[test]
fn session_churn_stress_ends_with_one_live_version() {
    const PIDS: usize = 4;
    const THREADS: usize = 8;
    const ROUNDS: u64 = 400;
    let db: Arc<Database<U64Map>> = Arc::new(Database::new(PIDS));
    let leases = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = db.clone();
            let leases = leases.clone();
            scope.spawn(move || {
                let mut i = 0u64;
                let mut done = 0u64;
                while done < ROUNDS {
                    i += 1;
                    // Mix anonymous and targeted leases to exercise the
                    // registry's tombstone path under contention.
                    let session = if i.is_multiple_of(3) {
                        db.session_for((t + i as usize) % PIDS).ok()
                    } else {
                        db.session().ok()
                    };
                    let Some(mut session) = session else {
                        std::thread::yield_now();
                        continue;
                    };
                    leases.fetch_add(1, Ordering::Relaxed);
                    let key = (t as u64) << 32 | done;
                    session.write(|txn| {
                        txn.insert(key % 512, key);
                    });
                    let got = session.read(|s| s.get(&(key % 512)).copied());
                    assert!(got.is_some(), "own write lost");
                    done += 1;
                    // session drops here: pid back to the pool
                }
            });
        }
    });
    assert!(
        leases.load(Ordering::Relaxed) >= THREADS as u64 * ROUNDS,
        "every round leased at least once"
    );
    assert_eq!(db.sessions_leased(), 0, "all pids returned");
    // Quiescence: precise GC has collected every superseded version.
    assert_eq!(db.live_versions(), 1);
    // And the full pool is leasable again.
    let all: Vec<_> = (0..PIDS).map(|_| db.session().unwrap()).collect();
    assert_eq!(all.len(), PIDS);
}

// (That a lease is the only way to run a transaction — no method takes a
// raw pid — is pinned by the `compile_fail` doctests on
// `mvcc_core::Database` and `mvcc_fds::VersionedCell`.)

/// A session leased, moved to another thread, used there and dropped
/// there still returns its pid (Send semantics + cross-thread drop).
#[test]
fn session_moves_across_threads() {
    let db: Arc<Database<U64Map>> = Arc::new(Database::new(1));
    let mut s = db.session().unwrap();
    s.insert(1, 10);
    let db2 = db.clone();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            // The session migrated here; its pinned shard and buffer came
            // with it.
            s.insert(2, 20);
            assert_eq!(s.get(&1), Some(10));
            drop(s);
            assert!(db2.session().is_ok(), "pid released on foreign thread");
        });
    });
    assert_eq!(db.sessions_leased(), 0);
    assert_eq!(db.live_versions(), 1);
}
