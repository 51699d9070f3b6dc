//! Regression guards on what a point update costs, in counts that repeat
//! exactly: heap allocations (a counting global allocator) and arena
//! tuples allocated/freed (`ArenaStats` deltas). A steady-state overwrite
//! copies exactly the root-to-key path, frees exactly the displaced one,
//! and touches the heap not at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multiversion::core::{Database, Session};
use multiversion::ftree::{Forest, Root, U64Map};

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

/// A database holding keys `0..KEYS`, bulk-built as one version.
fn preloaded(processes: usize) -> Database<U64Map> {
    let db: Database<U64Map> = Database::new(processes);
    let items: Vec<(u64, u64)> = (0..KEYS).map(|k| (k, k)).collect();
    db.session().unwrap().write_raw(|f, base| {
        f.release(base);
        (f.build_sorted(&items), ())
    });
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
