//! Cross-crate integration tests: the full transactional stack (arena +
//! VM + functional tree) under concurrency, for every VM algorithm,
//! driven through leased sessions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use multiversion::core::Database;
use multiversion::ftree::{SumU64Map, U64Map};
use multiversion::vm::VmKind;

/// Strict serializability witness: every snapshot of a constant-sum map
/// must show the same total, for every VM algorithm.
#[test]
fn constant_sum_invariant_all_vm_kinds() {
    for kind in VmKind::PAPER {
        let readers = 3usize;
        let db: Arc<Database<SumU64Map, _>> = Arc::new(Database::with_kind(kind, readers + 1));
        let mut writer = db.session().unwrap();
        writer.write(|txn| {
            let init: Vec<(u64, u64)> = (0..32).map(|k| (k, 500)).collect();
            txn.multi_insert(init, |_o, v| *v);
        });
        let expected = 32 * 500u64;
        std::thread::scope(|s| {
            for r in 0..readers {
                let db = db.clone();
                s.spawn(move || {
                    let mut session = db.session().unwrap();
                    // A fixed read count (rather than a stop flag) keeps the
                    // check meaningful even when the scheduler runs the
                    // writer to completion first.
                    for _ in 0..400 {
                        let total = session.read(|snap| snap.aug_total());
                        assert_eq!(total, expected, "{kind:?}: torn snapshot (reader {r})");
                    }
                });
            }
            for i in 0..500u64 {
                let from = i % 32;
                let to = (i * 13 + 7) % 32;
                if from == to {
                    continue;
                }
                writer.write(|txn| {
                    let a = *txn.get(&from).unwrap();
                    let b = *txn.get(&to).unwrap();
                    let m = a.min(25);
                    txn.insert(from, a - m);
                    txn.insert(to, b + m);
                });
            }
        });
        assert_eq!(writer.read(|s| s.aug_total()), expected, "{kind:?}");
    }
}

/// Multiple concurrent writers are lock-free under PSWF: all operations
/// eventually commit, with aborts possible but bounded by progress.
#[test]
fn multi_writer_lock_free_progress() {
    let writers = 3usize;
    let per_writer = 300u64;
    let db: Arc<Database<U64Map>> = Arc::new(Database::new(writers));
    std::thread::scope(|s| {
        for w in 0..writers {
            let db = db.clone();
            s.spawn(move || {
                let mut session = db.session().unwrap();
                for i in 0..per_writer {
                    let key = (w as u64) << 32 | i;
                    // write() retries on abort — lock-free guarantee says
                    // this terminates.
                    session.insert(key, i);
                }
            });
        }
    });
    // Every session dropped: local counters are flushed.
    let stats = db.stats();
    assert_eq!(stats.commits, writers as u64 * per_writer);
    let mut check = db.session().unwrap();
    for w in 0..writers {
        for i in 0..per_writer {
            let key = (w as u64) << 32 | i;
            assert_eq!(check.get(&key), Some(i), "lost write {w}/{i}");
        }
    }
    assert_eq!(db.live_versions(), 1);
}

/// A paused reader (simulating a faulting/sleeping process, the RCU
/// pathology of §1) never blocks a PSWF writer, and precise GC bounds the
/// uncollected versions by the number of distinct pinned snapshots.
#[test]
fn stalled_reader_does_not_block_pswf_writer() {
    let db: Arc<Database<U64Map>> = Arc::new(Database::new(3));
    let mut writer = db.session().unwrap();
    let mut reader = db.session().unwrap();
    writer.insert(1, 1);

    let guard = reader.begin_read(); // reader parks on this version
    let before = guard.snapshot().len();

    // Writer commits 500 more transactions, unimpeded.
    let t0 = std::time::Instant::now();
    for i in 0..500u64 {
        writer.insert(100 + i, i);
    }
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "writer must not block on the stalled reader"
    );
    // Precision: only the pinned version and the current one are live
    // (the pinned snapshot pins exactly one version).
    assert!(
        db.live_versions() <= 3,
        "at most pinned + current (+1 transient), saw {}",
        db.live_versions()
    );
    assert_eq!(guard.snapshot().len(), before, "pinned snapshot moved");
    drop(guard);
    assert_eq!(db.live_versions(), 1);
}

/// Read transactions per process are monotone: once a process observes
/// version t, it never observes an older version (regular reads would
/// violate this only if acquire returned stale versions).
#[test]
fn per_process_monotone_snapshots() {
    for kind in VmKind::PAPER {
        let readers = 2usize;
        let db: Arc<Database<U64Map, _>> = Arc::new(Database::with_kind(kind, readers + 1));
        let mut writer = db.session().unwrap();
        writer.insert(0, 0);
        let stop = Arc::new(AtomicBool::new(false));
        let committed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for r in 0..readers {
                let db = db.clone();
                let stop = stop.clone();
                let committed = committed.clone();
                s.spawn(move || {
                    let mut session = db.session().unwrap();
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let seen = session.read(|snap| *snap.get(&0).unwrap());
                        assert!(
                            seen >= last,
                            "{kind:?}: reader {r} went back in time {last} -> {seen}"
                        );
                        // Freshness: what we see can't be newer than what
                        // has been committed (sanity) ...
                        assert!(seen <= committed.load(Ordering::Relaxed) + 1);
                        last = seen;
                    }
                });
            }
            for i in 1..=300u64 {
                writer.insert(0, i);
                committed.store(i, Ordering::Relaxed);
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}

/// try_write surfaces aborts instead of retrying, and aborted effects are
/// fully rolled back (speculative nodes collected).
#[test]
fn aborted_writes_leave_no_trace() {
    let db: Database<U64Map> = Database::new(2);
    let mut rival = db.session().unwrap();
    let mut loser = db.session().unwrap();
    rival.insert(1, 1);
    let live_before = db.forest().arena().live();
    for _ in 0..10 {
        let r = loser.try_write(|txn| {
            let bumped = rival.get(&1).unwrap() + 1;
            rival.insert(1, bumped); // competing commit
            txn.insert(999, 999);
        });
        assert!(r.is_err());
    }
    assert_eq!(rival.get(&999), None);
    assert_eq!(loser.stats().aborts, 10);
    // 10 competing inserts overwrote key 1 in place: the tree still has
    // exactly one entry for it plus key 1's original; no speculative
    // garbage survives.
    assert_eq!(db.forest().arena().live(), live_before);
    assert_eq!(db.live_versions(), 1);
}
