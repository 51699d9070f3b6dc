//! The parallel bulk-operation contract: running `union` / `difference`
//! / `filter` on the work-stealing pool produces **exactly** the result
//! of the old sequential shim, panics propagate across `join` without
//! deadlock, and no pool thread outlives a shutdown.
//!
//! Every test reconfigures the process-global pool, so they serialize on
//! one mutex and restore the default (and assert zero live workers) on
//! the way out.

use std::collections::BTreeMap;
use std::sync::{Mutex, Once};

use mvcc_ftree::{Forest, Root, U64Map};
use rand::{Rng, SeedableRng, SmallRng};
use rayon::pool;

static POOL_LOCK: Mutex<()> = Mutex::new(());
static CUTOFF: Once = Once::new();

/// Run `f` with the global pool pinned to `threads` workers, then tear
/// the pool down and verify no worker thread leaked. A small fork
/// cutoff makes even modest trees fork hundreds of tasks.
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    CUTOFF.call_once(|| std::env::set_var("MVCC_PAR_CUTOFF", "192"));
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pool::set_pool_threads(threads);
    let out = f();
    pool::set_pool_threads(0); // restore default; also shuts down
    assert_eq!(pool::live_workers(), 0, "pool threads must not leak");
    out
}

fn build(f: &Forest<U64Map>, pairs: &[(u64, u64)]) -> Root {
    let mut t = f.empty();
    for &(k, v) in pairs {
        t = f.insert(t, k, v);
    }
    t
}

fn random_pairs(rng: &mut SmallRng, n: usize, key_space: u64) -> Vec<(u64, u64)> {
    let mut m = BTreeMap::new();
    for _ in 0..n {
        m.insert(rng.gen_range(0..key_space), rng.gen::<u64>());
    }
    m.into_iter().collect()
}

/// Seeded property test: for random inputs, `union` and `difference`
/// computed on a 4-worker pool equal both the sequential-shim result
/// (`MVCC_POOL_THREADS=1` semantics) and the `BTreeMap` model.
#[test]
fn parallel_union_difference_match_sequential_shim() {
    let mut rng = SmallRng::seed_from_u64(0xB01D_FACE);
    for round in 0..8 {
        let a = random_pairs(&mut rng, 4_000, 6_000);
        let b = random_pairs(&mut rng, 3_000, 6_000);

        let run = |threads: usize| {
            with_pool(threads, || {
                let f: Forest<U64Map> = Forest::new();
                let (ta, tb) = (build(&f, &a), build(&f, &b));
                f.retain(ta);
                f.retain(tb);
                let u = f.union(ta, tb);
                let union_vec = f.to_vec(u);
                f.check_invariants(u);
                f.release(u);
                let d = f.difference(ta, tb);
                let diff_vec = f.to_vec(d);
                f.check_invariants(d);
                f.release(d);
                assert_eq!(f.arena().live(), 0, "precise GC after parallel ops");
                (union_vec, diff_vec)
            })
        };

        let par = run(4);
        let seq = run(1);
        assert_eq!(par, seq, "round {round}: schedule changed the result");

        let mut union_model: BTreeMap<u64, u64> = a.iter().copied().collect();
        union_model.extend(b.iter().copied()); // b wins duplicates
        assert_eq!(par.0, union_model.into_iter().collect::<Vec<_>>());
        let bkeys: std::collections::BTreeSet<u64> = b.iter().map(|(k, _)| *k).collect();
        let diff_model: Vec<(u64, u64)> = a
            .iter()
            .filter(|(k, _)| !bkeys.contains(k))
            .copied()
            .collect();
        assert_eq!(par.1, diff_model, "round {round}: difference model");
    }
}

/// Deeply nested joins: a bulk op above the cutoff forks at every level
/// of the recursion; `multi_insert`/`multi_remove`/`filter` chain them.
#[test]
fn nested_parallel_bulk_ops_keep_invariants() {
    with_pool(4, || {
        let f: Forest<U64Map> = Forest::new();
        let base: Vec<(u64, u64)> = (0..30_000u64).map(|k| (k * 2, k)).collect();
        let t = f.build_sorted(&base);
        let batch: Vec<(u64, u64)> = (0..20_000u64).map(|k| (k * 3, k + 1)).collect();
        let t = f.multi_insert(t, batch.clone(), |_o, n| *n);
        let t = f.filter(t, |k, _| k % 5 != 0);
        let t = f.multi_remove(t, (0..10_000u64).map(|k| k * 6).collect());
        f.check_invariants(t);

        let mut model: BTreeMap<u64, u64> = base.iter().copied().collect();
        for (k, v) in &batch {
            model.insert(*k, *v);
        }
        model.retain(|k, _| k % 5 != 0);
        for k in (0..10_000u64).map(|k| k * 6) {
            model.remove(&k);
        }
        assert_eq!(f.to_vec(t), model.into_iter().collect::<Vec<_>>());
        f.release(t);
        assert_eq!(f.arena().live(), 0);
    });
}

/// A panic in one half of a parallel bulk op propagates to the caller
/// without deadlocking the pool or killing its workers. (The aborted
/// operation leaks its tree into the arena — same as a sequential
/// panic — so this test uses a throwaway forest.)
#[test]
fn panic_inside_parallel_filter_propagates() {
    with_pool(4, || {
        let f: Forest<U64Map> = Forest::new();
        let items: Vec<(u64, u64)> = (0..20_000u64).map(|k| (k, k)).collect();
        let t = f.build_sorted(&items);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.filter(t, |k, _| {
                if *k == 17_321 {
                    panic!("predicate exploded");
                }
                true
            })
        }));
        let payload = caught.expect_err("panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("predicate exploded")
        );
        // The pool survives and still computes correctly afterwards.
        let g: Forest<U64Map> = Forest::new();
        let u = g.union(g.build_sorted(&items), g.empty());
        assert_eq!(g.size(u), items.len());
        g.release(u);
    });
}

/// `MVCC_POOL_THREADS=1` (here via the programmatic equivalent) is the
/// documented sequential escape hatch: no workers are spawned and
/// results are identical to the multi-threaded pool's.
#[test]
fn single_thread_fallback_is_equivalent_and_spawns_nothing() {
    let expected: Vec<(u64, u64)> = (0..12_000u64).map(|k| (k, k ^ 7)).collect();
    let seq = with_pool(1, || {
        assert_eq!(pool::current_num_threads(), 1);
        let f: Forest<U64Map> = Forest::new();
        let t = f.build_sorted(&expected);
        let v = f.to_vec(t);
        assert_eq!(
            pool::live_workers(),
            0,
            "sequential mode must spawn no pool threads"
        );
        f.release(t);
        v
    });
    assert_eq!(seq, expected);
}

/// `build_sorted` fills one arena run; on a 4-worker pool, forked
/// halves fill disjoint parts of it. The tree equals the sequential
/// build's node for node, ids included: a run's ids follow post-order,
/// whichever thread fills them.
#[test]
fn pooled_build_equals_the_sequential_one() {
    fn post_order(f: &Forest<U64Map>, t: Root, out: &mut Vec<(u32, u64, u64, u32)>) {
        if let Some(id) = t.get() {
            let n = f.arena().get(id);
            post_order(f, n.left(), out);
            post_order(f, n.right(), out);
            out.push((id.index(), *n.key(), *n.value(), n.size()));
        }
    }
    let mut rng = SmallRng::seed_from_u64(0xB11D_5EED);
    for n in [1, 191, 193, 5_000, 20_000] {
        let items = random_pairs(&mut rng, n, 1 << 40);
        let run = |threads: usize| {
            with_pool(threads, || {
                assert_eq!(pool::current_num_threads(), threads);
                let f: Forest<U64Map> = Forest::new();
                let t = f.build_sorted(&items);
                assert_eq!(f.check_invariants(t), items.len());
                assert_eq!(f.arena().live(), items.len() as u64);
                let mut nodes = Vec::new();
                post_order(&f, t, &mut nodes);
                f.release(t);
                assert_eq!(f.arena().live(), 0);
                nodes
            })
        };
        let (pooled, sequential) = (run(4), run(1));
        assert_eq!(pooled, sequential, "n = {n}");
        assert!(pooled
            .iter()
            .enumerate()
            .all(|(i, &(id, ..))| id == i as u32));
    }
}
