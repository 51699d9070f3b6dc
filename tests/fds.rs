//! Cross-crate integration tests for `mvcc-fds`: the structure-agnostic
//! transaction wrapper (`VersionedCell`) driving the functional stack,
//! queue and heap under real concurrency through leased `CellSession`
//! handles, with precise-GC audits.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use multiversion::fds::{Heap, Queue, Stack, VersionedCell};
use multiversion::plm::OptNodeId;
use multiversion::vm::VmKind;

/// A transactional LIFO log: concurrent writers push batches; every
/// snapshot a reader takes must be a prefix-closed view (the stack only
/// grows at the top, so any committed version's contents are a suffix of
/// any later version's).
#[test]
fn stack_snapshots_are_suffixes_of_later_versions() {
    let cell = Arc::new(VersionedCell::new(Stack::<u64>::new(), 3));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Two writers interleave single-push transactions.
        let writers: Vec<_> = (0..2usize)
            .map(|w| {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    let mut session = cell.session().unwrap();
                    for i in 0..300u64 {
                        let value = (w as u64) << 32 | i;
                        session.write(|stack, base| (stack.push(base, value), ()));
                    }
                })
            })
            .collect();
        let cell2 = Arc::clone(&cell);
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            let mut session = cell2.session().unwrap();
            let mut last_len = 0usize;
            while !stop2.load(Ordering::Relaxed) {
                let (len, no_dups) = session.read(|stack, root| {
                    let v = stack.to_vec(root);
                    // Each element was pushed exactly once; the vector is
                    // the version's full history, newest first.
                    let mut sorted = v.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    (v.len(), sorted.len() == v.len())
                });
                assert!(no_dups, "duplicate elements in a snapshot");
                assert!(len >= last_len, "snapshot shrank: {last_len} -> {len}");
                last_len = len;
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let total = cell.session().unwrap().read(|stack, root| stack.len(root));
    assert_eq!(total, 600);
    assert_eq!(cell.commits(), 600);
    // Precise GC: only the current version's 600 cells are live.
    assert_eq!(cell.structure().arena().live(), 600);
}

/// Transactional FIFO work queue under the full VM matrix: producers
/// enqueue, a consumer dequeues; nothing is lost or duplicated.
#[test]
fn queue_producer_consumer_all_vm_kinds() {
    for kind in [VmKind::Pswf, VmKind::Epoch, VmKind::Hazard] {
        let cell = Arc::new(VersionedCell::with_kind(Queue::<u64>::new(), kind, 2));
        let produced = 500u64;

        std::thread::scope(|s| {
            let cp = Arc::clone(&cell);
            s.spawn(move || {
                let mut session = cp.session().unwrap();
                for i in 0..produced {
                    session.write(|q, base| (q.enqueue(base, i), ()));
                }
            });
            let cc = Arc::clone(&cell);
            s.spawn(move || {
                let mut session = cc.session().unwrap();
                let mut got = Vec::new();
                while got.len() < produced as usize {
                    let v = session.write(|q, base| q.dequeue(base));
                    if let Some(v) = v {
                        got.push(v);
                    } else {
                        std::thread::yield_now();
                    }
                }
                // FIFO: consumed in exactly production order.
                assert_eq!(got, (0..produced).collect::<Vec<_>>(), "{kind:?}");
            });
        });

        let final_len = cell.session().unwrap().read(|q, root| q.len(root));
        assert_eq!(final_len, 0, "{kind:?}");
    }
}

/// A priority queue served transactionally: all inserted priorities come
/// back out in globally sorted order once the writers quiesce.
#[test]
fn heap_transactional_drain_is_sorted() {
    let cell = Arc::new(VersionedCell::new(Heap::<u64>::new(), 2));

    std::thread::scope(|s| {
        for w in 0..2usize {
            let cell = Arc::clone(&cell);
            s.spawn(move || {
                let mut session = cell.session().unwrap();
                for i in 0..200u64 {
                    // Interleave priorities from the two writers.
                    let prio = i * 2 + w as u64;
                    session.write(|h, base| (h.insert(base, prio), ()));
                }
            });
        }
    });

    let mut session = cell.session().unwrap();
    let mut drained = Vec::new();
    loop {
        let v = session.write(|h, base| h.pop_min(base));
        match v {
            Some(v) => drained.push(v),
            None => break,
        }
    }
    assert_eq!(drained, (0..400).collect::<Vec<_>>());
    assert_eq!(
        cell.structure().arena().live(),
        0,
        "drained heap leaves no tuples"
    );
}

/// A reader holding a queue snapshot across many commits still sees its
/// version, and precise GC reclaims everything the moment it lets go.
#[test]
fn queue_pinned_snapshot_with_precise_reclamation() {
    let cell = VersionedCell::new(Queue::<u64>::new(), 2);
    let mut writer = cell.session().unwrap();
    let mut reader = cell.session().unwrap();
    for i in 0..50u64 {
        writer.write(|q, base| (q.enqueue(base, i), ()));
    }

    // Pin a snapshot via a read transaction that runs user code slowly:
    // commits happen *inside* the read closure.
    let seen = reader.read(|q, root| {
        let before = q.to_vec(root);
        for i in 50..100u64 {
            writer.write(|q2, base| (q2.enqueue(base, i), ()));
        }
        let after = q.to_vec(root);
        assert_eq!(before, after, "snapshot moved under the reader");
        before.len()
    });
    assert_eq!(seen, 50);

    // Reader done: only the current version (100 cells + roots) is live.
    let current_len = reader.read(|q, root| q.len(root));
    assert_eq!(current_len, 100);
    assert_eq!(cell.live_versions(), 1);
}

/// Mixing two structures in one program: each VersionedCell is an
/// independent transactional object with its own VM instance and its own
/// pid pool.
#[test]
fn independent_cells_do_not_interfere() {
    let cs = VersionedCell::new(Stack::<u64>::new(), 1);
    let ch = VersionedCell::new(Heap::<u64>::new(), 1);
    let mut ss = cs.session().unwrap();
    let mut sh = ch.session().unwrap();

    for i in 0..100u64 {
        ss.write(|stack, base| (stack.push(base, i), ()));
        sh.write(|heap, base| (heap.insert(base, 99 - i), ()));
    }
    assert_eq!(ss.read(|stack, r| stack.len(r)), 100);
    assert_eq!(sh.read(|heap, r| heap.peek_min(r).copied()), Some(0));
    assert_eq!(cs.commits(), 100);
    assert_eq!(ch.commits(), 100);
    assert_eq!(cs.live_versions(), 1);
    assert_eq!(ch.live_versions(), 1);
}

/// Aborted fds write transactions roll back completely (Figure 1 line 7).
#[test]
fn aborted_stack_write_collects_speculation() {
    let cell = VersionedCell::new(Stack::<u64>::new(), 2);
    let mut winner = cell.session().unwrap();
    let mut loser = cell.session().unwrap();
    winner.write(|stack, base| (stack.push(base, 1), ()));
    let live_before = cell.structure().arena().live();

    for _ in 0..5 {
        let r = loser.try_write(|stack, base| {
            // A competing commit from the winner inside our user code
            // dooms us.
            winner.write(|s2, b2| {
                let (rest, _) = s2.pop(b2);
                (s2.push(rest, 7), ())
            });
            (stack.push(base, 999), ())
        });
        assert!(r.is_err());
    }
    assert_eq!(cell.aborts(), 5);
    let top = winner.read(|stack, root| stack.peek(root).copied());
    assert_eq!(top, Some(7));
    assert_eq!(
        cell.structure().arena().live(),
        live_before,
        "speculation leaked"
    );
}

/// The wrapper works with any root convention, including staying empty.
#[test]
fn empty_version_round_trips() {
    let cell = VersionedCell::new(Queue::<u64>::new(), 1);
    let mut session = cell.session().unwrap();
    // A write that commits the empty queue again.
    session.write(|q, base| {
        let (rest, v) = q.dequeue(base);
        assert!(v.is_none());
        assert_eq!(rest, OptNodeId::NONE);
        (rest, ())
    });
    assert_eq!(session.read(|q, r| q.len(r)), 0);
    assert_eq!(cell.structure().arena().live(), 0);
}
