//! Regression guards on what a point update costs, in counts that repeat
//! exactly: heap allocations (a counting global allocator) and arena
//! tuples allocated/freed (`ArenaStats` deltas). A steady-state overwrite
//! copies exactly the root-to-key path, frees exactly the displaced one,
//! and touches the heap not at all. A durable commit costs the tree the
//! same: the WAL adds heap bytes, never tree nodes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use multiversion::core::{Database, Durability, DurableConfig, DurableDatabase, Session};
use multiversion::ftree::{Forest, Root, U64Map};
use multiversion::wal::FaultStorage;

/// Counts the calling thread's heap allocations (the harness runs the
/// tests of this file on parallel threads; each sees only its own).
struct CountingAlloc;

thread_local! {
    static HEAP_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = HEAP_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = HEAP_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_allocs() -> u64 {
    HEAP_ALLOCS.with(Cell::get)
}

const KEYS: u64 = 1 << 16;

/// Bulk-build keys `0..KEYS` as one version of `db`.
fn preload(db: &Database<U64Map>) {
    let items: Vec<(u64, u64)> = (0..KEYS).map(|k| (k, k)).collect();
    db.session().unwrap().write_raw(|f, base| {
        f.release(base);
        (f.build_sorted(&items), ())
    });
}

/// A database holding keys `0..KEYS`.
fn preloaded(processes: usize) -> Database<U64Map> {
    let db: Database<U64Map> = Database::new(processes);
    preload(&db);
    db
}

/// The same behind a durable front on in-memory storage. The preload
/// goes past the log; nothing here recovers.
fn preloaded_durable(durability: Durability) -> DurableDatabase<U64Map> {
    let cfg = DurableConfig::default().with_durability(durability);
    let db = DurableDatabase::recover_storage(Arc::new(FaultStorage::unfaulted()), 1, cfg).unwrap();
    preload(db.database());
    db
}

fn current_root(s: &mut Session<'_, U64Map>) -> Root {
    s.read(|snap| snap.root())
}

/// Nodes on the path from `root` to `key`, both ends included.
fn depth(f: &Forest<U64Map>, root: Root, key: u64) -> u64 {
    let (mut cur, mut d) = (root, 0);
    while let Some(id) = cur.get() {
        let n = f.arena().get(id);
        d += 1;
        cur = match key.cmp(n.key()) {
            std::cmp::Ordering::Less => n.left(),
            std::cmp::Ordering::Greater => n.right(),
            std::cmp::Ordering::Equal => return d,
        };
    }
    panic!("key {key} is not in the tree");
}

/// `(allocated_total, freed_total)` of the database's arena.
fn arena_totals(db: &Database<U64Map>) -> (u64, u64) {
    let s = db.forest().arena().stats();
    (s.allocated_total, s.freed_total)
}

/// What `write` spent: heap allocations, and arena tuples
/// `(allocated, freed)` in `db`.
fn cost(db: &Database<U64Map>, write: impl FnOnce()) -> (u64, (u64, u64)) {
    let (h0, a0) = (heap_allocs(), arena_totals(db));
    write();
    let (h1, a1) = (heap_allocs(), arena_totals(db));
    (h1 - h0, (a1.0 - a0.0, a1.1 - a0.1))
}

/// A fixed scramble of `0..KEYS` (odd multiplier: a bijection).
fn scrambled(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48
}

#[test]
fn steady_state_overwrites_never_touch_the_heap() {
    let db = preloaded(1);
    let mut s = db.session().unwrap();
    // Let the session's release buffer and the collector's scratch stack
    // reach their steady capacity.
    for i in 0..64 {
        s.insert(scrambled(i), i);
    }
    let before = heap_allocs();
    for i in 64..1_064 {
        s.insert(scrambled(i), i);
    }
    assert_eq!(
        heap_allocs() - before,
        0,
        "1000 overwrites on a warm 2^16-key map allocated on the heap"
    );
    assert_eq!(db.live_versions(), 1);
    assert_eq!(db.forest().arena().live(), KEYS);
}

#[test]
fn an_overwrite_copies_its_path_and_frees_the_displaced_one() {
    let db = preloaded(2);
    let mut writer = db.session().unwrap();
    let mut reader = db.session().unwrap();
    for i in 0..200 {
        let key = scrambled(i);
        let d = depth(db.forest(), current_root(&mut writer), key);

        // With nobody else holding the old version, it goes at commit.
        let (a0, f0) = arena_totals(&db);
        writer.insert(key, i);
        let (a1, f1) = arena_totals(&db);
        assert_eq!(a1 - a0, d, "key {key}: allocated != depth");
        assert_eq!(f1 - f0, d, "key {key}: freed != depth");

        // With a reader on it, it goes when the reader does — and not a
        // tuple of it earlier.
        let pinned = reader.begin_read();
        writer.insert(key, i + 1);
        let (a2, f2) = arena_totals(&db);
        assert_eq!(a2 - a1, d, "key {key}: allocated != depth (pinned)");
        assert_eq!(f2 - f1, 0, "key {key}: freed under a reader");
        drop(pinned);
        let (_, f3) = arena_totals(&db);
        assert_eq!(f3 - f2, d, "key {key}: freed != depth on release");
    }
    assert_eq!(db.live_versions(), 1);
    assert_eq!(db.forest().arena().live(), KEYS);
}

#[test]
fn an_adjacent_pair_copies_the_deeper_path_only() {
    // Of two neighbours in key order one is the other's ancestor, so the
    // second insert of the transaction walks nodes the first one created
    // (updated in place) and copies only what lies below them.
    let db = preloaded(1);
    let mut s = db.session().unwrap();
    for i in 0..200 {
        let k = scrambled(i);
        let root = current_root(&mut s);
        let deeper = depth(db.forest(), root, k).max(depth(db.forest(), root, k ^ 1));
        let (a0, f0) = arena_totals(&db);
        s.write(|txn| {
            txn.insert(k, i);
            txn.insert(k ^ 1, i);
        });
        let (a1, f1) = arena_totals(&db);
        assert_eq!(a1 - a0, deeper, "pair at {k}: allocated != deeper path");
        assert_eq!(f1 - f0, deeper, "pair at {k}: freed != deeper path");
    }
    assert_eq!(db.forest().arena().live(), KEYS);
}

#[test]
fn a_durable_overwrite_costs_the_tree_what_an_in_memory_one_does() {
    // The same overwrites on three databases of the same shape, each
    // through the `WriteTxn` view.
    let mem = preloaded(1);
    let off = preloaded_durable(Durability::Off);
    let always = preloaded_durable(Durability::Always);
    let mut mem_s = mem.session().unwrap();
    let mut off_s = off.session().unwrap();
    let mut always_s = always.session().unwrap();
    for i in 0..264 {
        let key = scrambled(i);
        let (mem_heap, tuples) = cost(&mem, || mem_s.write(|txn| txn.insert(key, i)));
        let (off_heap, off_tuples) = cost(off.database(), || {
            off_s.write(|txn| txn.insert(key, i)).unwrap()
        });
        let (_, always_tuples) = cost(always.database(), || {
            always_s.write(|txn| txn.insert(key, i)).unwrap()
        });
        assert_eq!(off_tuples, tuples, "Off, key {key}");
        assert_eq!(always_tuples, tuples, "Always, key {key}");
        // Past warm-up, neither in-memory path touches the heap; the
        // logged one does (its WAL frame), which is why it is not here.
        if i >= 64 {
            assert_eq!(mem_heap, 0, "Session::write, key {key}");
            assert_eq!(off_heap, 0, "Durability::Off, key {key}");
        }
    }
    assert_eq!(always.database().forest().arena().live(), KEYS);
}

#[test]
fn collecting_a_shared_root_only_drops_a_count() {
    let db = preloaded(1);
    let f = db.forest();
    let root = current_root(&mut db.session().unwrap());
    f.retain(root);
    let (before, totals) = (heap_allocs(), arena_totals(&db));
    assert_eq!(f.release(root), 0);
    assert_eq!(heap_allocs() - before, 0);
    assert_eq!(arena_totals(&db), totals);
}
