//! Concurrency stress tests for the Figure-7 baseline structures.
//!
//! The baselines' own crates carry a sequential conformance suite; these
//! tests exercise the *concurrent* contracts the YCSB harness relies on:
//! linearizable insert/remove return values (each key's state transition
//! is won by exactly one racer) and reads that never observe torn or
//! invented values.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use multiversion::baselines::{BPlusTree, CoarseMap, ConcurrentMap, LazySkipList, LockFreeBst};

fn all_maps() -> Vec<Box<dyn ConcurrentMap>> {
    vec![
        Box::new(LazySkipList::new()),
        Box::new(BPlusTree::new()),
        Box::new(LockFreeBst::new()),
        Box::new(CoarseMap::new()),
    ]
}

/// Disjoint key ranges per writer: everything lands, nothing is lost.
#[test]
fn disjoint_writers_all_keys_survive() {
    const WRITERS: usize = 4;
    const PER: u64 = 2_000;
    for map in all_maps() {
        let map = Arc::new(map);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let base = w as u64 * PER;
                    for i in 0..PER {
                        assert!(
                            map.insert(base + i, i),
                            "{}: fresh key reported as overwrite",
                            map.name()
                        );
                    }
                });
            }
        });
        for k in 0..WRITERS as u64 * PER {
            assert_eq!(map.get(k), Some(k % PER), "{}: key {k}", map.name());
        }
    }
}

/// Racing inserts on the same fresh key: exactly one racer sees "newly
/// inserted" — the linearizable insert contract.
#[test]
fn exactly_one_winner_per_fresh_key() {
    const THREADS: usize = 4;
    const KEYS: u64 = 1_000;
    for map in all_maps() {
        let map = Arc::new(map);
        let wins = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let map = Arc::clone(&map);
                let wins = Arc::clone(&wins);
                s.spawn(move || {
                    let mut local = 0;
                    for k in 0..KEYS {
                        if map.insert(k, t as u64) {
                            local += 1;
                        }
                    }
                    wins.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(
            wins.load(Ordering::Relaxed),
            KEYS,
            "{}: each fresh key must have exactly one insert winner",
            map.name()
        );
        for k in 0..KEYS {
            let v = map
                .get(k)
                .unwrap_or_else(|| panic!("{}: lost {k}", map.name()));
            assert!(v < THREADS as u64, "{}: invented value {v}", map.name());
        }
    }
}

/// Racing removes of pre-inserted keys: each key is reclaimed by exactly
/// one racer, and is gone afterwards.
#[test]
fn exactly_one_remover_per_key() {
    const THREADS: usize = 4;
    const KEYS: u64 = 1_000;
    for map in all_maps() {
        let map = Arc::new(map);
        for k in 0..KEYS {
            map.insert(k, k);
        }
        let removed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let map = Arc::clone(&map);
                let removed = Arc::clone(&removed);
                s.spawn(move || {
                    let mut local = 0;
                    for k in 0..KEYS {
                        if map.remove(k) {
                            local += 1;
                        }
                    }
                    removed.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(
            removed.load(Ordering::Relaxed),
            KEYS,
            "{}: each key removed exactly once",
            map.name()
        );
        for k in 0..KEYS {
            assert_eq!(map.get(k), None, "{}: ghost key {k}", map.name());
        }
    }
}

/// Readers racing a writer never observe values that were never written
/// to their key (value = key * 1000 + round).
#[test]
fn readers_never_see_foreign_values() {
    const KEYS: u64 = 128;
    for map in all_maps() {
        let map = Arc::new(map);
        for k in 0..KEYS {
            map.insert(k, k * 1000);
        }
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut round = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        for k in 0..KEYS {
                            map.insert(k, k * 1000 + (round % 1000));
                        }
                        round += 1;
                    }
                });
            }
            for _ in 0..3 {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    for _ in 0..20_000 {
                        let k = fastrand_key(KEYS);
                        if let Some(v) = map.get(k) {
                            assert_eq!(v / 1000, k, "{}: foreign value {v} at key {k}", map.name());
                        }
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
        });
    }
}

/// Readers racing a writer whose fresh ascending keys keep splitting the
/// rightmost nodes and growing the root: every key the writer has
/// finished inserting is found. For the B+tree this is the coupling
/// contract — a reader locks the child before it lets go of the parent,
/// so no split can move its key out from under it.
#[test]
fn readers_find_every_key_while_splits_grow_the_tree() {
    const KEYS: u64 = 8_000;
    // Reads aim at the newest keys: they sit in the nodes splits move.
    const WINDOW: u64 = 16;
    for map in all_maps() {
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for k in 0..KEYS {
                    map.insert(k, k);
                    done.store(k + 1, Ordering::Release);
                }
            });
            for _ in 0..3 {
                s.spawn(|| loop {
                    let c = done.load(Ordering::Acquire);
                    if c == KEYS {
                        break;
                    }
                    if c == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    let k = c - 1 - fastrand_key(c.min(WINDOW));
                    assert_eq!(map.get(k), Some(k), "{}: lost key {k} of {c}", map.name());
                });
            }
        });
    }
}

/// Insert/remove churn on a narrow hot range, with concurrent readers —
/// hammers the structures' deletion paths (marks, merges, retries).
#[test]
fn hot_range_churn_stays_consistent() {
    const HOT: u64 = 16;
    for map in all_maps() {
        let map = Arc::new(map);
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for w in 0..2 {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let k = (i * 7 + w) % HOT;
                        if i.is_multiple_of(3) {
                            map.remove(k);
                        } else {
                            map.insert(k, k + 100);
                        }
                        i += 1;
                    }
                });
            }
            {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    for _ in 0..50_000 {
                        let k = fastrand_key(HOT);
                        if let Some(v) = map.get(k) {
                            assert_eq!(v, k + 100, "{}: corrupt value", map.name());
                        }
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
        });
        // Post-quiescence: structure still behaves like a map.
        map.insert(999, 1);
        assert_eq!(map.get(999), Some(1), "{}", map.name());
        assert!(map.remove(999), "{}", map.name());
        assert_eq!(map.get(999), None, "{}", map.name());
    }
}

/// Cheap xorshift so reader loops do not bottleneck on an RNG.
fn fastrand_key(bound: u64) -> u64 {
    use std::cell::Cell;
    thread_local! {
        static STATE: Cell<u64> = const { Cell::new(0x9e3779b97f4a7c15) };
    }
    STATE.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x % bound
    })
}
