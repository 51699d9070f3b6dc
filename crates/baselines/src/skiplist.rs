#![allow(clippy::needless_range_loop)]
//! The lazy skiplist (Herlihy–Lev–Luchangco–Shavit, "A Simple Optimistic
//! Skiplist Algorithm") — the paper's skiplist comparator [55].
//!
//! * `get` is wait-free: one marked/fully-linked check after a plain
//!   traversal, no locks, no retries.
//! * `insert`/`remove` use per-node spinlocks with optimistic validation
//!   and *logical deletion* (a mark bit) before physical unlinking.
//! * Updates of existing keys write the value through an atomic (YCSB's
//!   "update" path never restructures).
//!
//! Matching the paper's Figure 7 methodology ("we turn GC off"), physically
//! unlinked nodes are parked in a graveyard and reclaimed when the skiplist
//! drops.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::ConcurrentMap;

const MAX_LEVEL: usize = 16;

/// -1 = head sentinel, 0 = data node, 1 = tail sentinel.
#[derive(PartialEq, Clone, Copy)]
enum Kind {
    Head,
    Data,
    Tail,
}

struct Node {
    kind: Kind,
    key: u64,
    value: AtomicU64,
    /// Height of this node: participates in levels `0..top_level+1`.
    top_level: usize,
    next: [AtomicPtr<Node>; MAX_LEVEL],
    marked: AtomicBool,
    fully_linked: AtomicBool,
    lock: SpinLock,
}

/// Minimal test-and-test-and-set lock; nodes are raw-pointer managed, so a
/// guardless lock keeps the multi-node locking of insert/remove simple.
struct SpinLock(AtomicBool);

impl SpinLock {
    const fn new() -> Self {
        SpinLock(AtomicBool::new(false))
    }
    fn lock(&self) {
        loop {
            if !self.0.swap(true, Ordering::Acquire) {
                return;
            }
            while self.0.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
    }
    fn unlock(&self) {
        self.0.store(false, Ordering::Release);
    }
}

impl Node {
    fn new(kind: Kind, key: u64, value: u64, top_level: usize) -> *mut Node {
        Box::into_raw(Box::new(Node {
            kind,
            key,
            value: AtomicU64::new(value),
            top_level,
            next: [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_LEVEL],
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
            lock: SpinLock::new(),
        }))
    }

    /// `self < key`? Sentinels compare as ∓∞.
    #[inline]
    fn before(&self, key: u64) -> bool {
        match self.kind {
            Kind::Head => true,
            Kind::Tail => false,
            Kind::Data => self.key < key,
        }
    }

    #[inline]
    fn is(&self, key: u64) -> bool {
        self.kind == Kind::Data && self.key == key
    }
}

/// Lazy lock-based skiplist over `u64 -> u64`.
pub struct LazySkipList {
    head: *mut Node,
    /// Physically removed nodes, reclaimed at drop (GC off, per Figure 7).
    graveyard: Mutex<Vec<*mut Node>>,
    /// Cheap xorshift state for level selection.
    level_seed: AtomicU64,
    len: AtomicUsize,
}

unsafe impl Send for LazySkipList {}
unsafe impl Sync for LazySkipList {}

impl Default for LazySkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl LazySkipList {
    /// Empty skiplist.
    pub fn new() -> Self {
        let head = Node::new(Kind::Head, 0, 0, MAX_LEVEL - 1);
        let tail = Node::new(Kind::Tail, u64::MAX, 0, MAX_LEVEL - 1);
        unsafe {
            for level in 0..MAX_LEVEL {
                (*head).next[level].store(tail, Ordering::Relaxed);
            }
            (*head).fully_linked.store(true, Ordering::Relaxed);
            (*tail).fully_linked.store(true, Ordering::Relaxed);
        }
        LazySkipList {
            head,
            graveyard: Mutex::new(Vec::new()),
            level_seed: AtomicU64::new(0x9E3779B97F4A7C15),
            len: AtomicUsize::new(0),
        }
    }

    /// Approximate number of entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn random_level(&self) -> usize {
        // Geometric with p = 1/2, capped. Xorshift on a shared word is
        // contended but only touched on structural inserts.
        let mut x = self.level_seed.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.level_seed.store(x, Ordering::Relaxed);
        (x.trailing_ones() as usize).min(MAX_LEVEL - 1)
    }

    /// Standard skiplist search: fill `preds`/`succs` per level; return the
    /// highest level at which `key` was found.
    fn find(
        &self,
        key: u64,
        preds: &mut [*mut Node; MAX_LEVEL],
        succs: &mut [*mut Node; MAX_LEVEL],
    ) -> Option<usize> {
        let mut found = None;
        let mut pred = self.head;
        for level in (0..MAX_LEVEL).rev() {
            unsafe {
                let mut curr = (*pred).next[level].load(Ordering::Acquire);
                while (*curr).before(key) {
                    pred = curr;
                    curr = (*pred).next[level].load(Ordering::Acquire);
                }
                if found.is_none() && (*curr).is(key) {
                    found = Some(level);
                }
                preds[level] = pred;
                succs[level] = curr;
            }
        }
        found
    }
}

impl ConcurrentMap for LazySkipList {
    fn get(&self, key: u64) -> Option<u64> {
        // Wait-free contains: traverse, then check link/mark state.
        let mut pred = self.head;
        let mut curr = std::ptr::null_mut();
        for level in (0..MAX_LEVEL).rev() {
            unsafe {
                curr = (*pred).next[level].load(Ordering::Acquire);
                while (*curr).before(key) {
                    pred = curr;
                    curr = (*pred).next[level].load(Ordering::Acquire);
                }
            }
        }
        unsafe {
            if (*curr).is(key)
                && (*curr).fully_linked.load(Ordering::Acquire)
                && !(*curr).marked.load(Ordering::Acquire)
            {
                Some((*curr).value.load(Ordering::Acquire))
            } else {
                None
            }
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        loop {
            if let Some(lfound) = self.find(key, &mut preds, &mut succs) {
                let node = succs[lfound];
                unsafe {
                    if !(*node).marked.load(Ordering::Acquire) {
                        // Upsert: wait for full linking, then overwrite.
                        while !(*node).fully_linked.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                        (*node).value.store(value, Ordering::Release);
                        return false;
                    }
                }
                // Marked: a removal is in flight; retry.
                continue;
            }
            let top = self.random_level();
            // Lock unique predecessors bottom-up and validate.
            let mut locked: Vec<*mut Node> = Vec::with_capacity(top + 1);
            let mut valid = true;
            unsafe {
                let mut prev: *mut Node = std::ptr::null_mut();
                for level in 0..=top {
                    let pred = preds[level];
                    let succ = succs[level];
                    if pred != prev {
                        (*pred).lock.lock();
                        locked.push(pred);
                        prev = pred;
                    }
                    valid = !(*pred).marked.load(Ordering::Acquire)
                        && !(*succ).marked.load(Ordering::Acquire)
                        && (*pred).next[level].load(Ordering::Acquire) == succ;
                    if !valid {
                        break;
                    }
                }
                if !valid {
                    for p in locked {
                        (*p).lock.unlock();
                    }
                    continue;
                }
                let node = Node::new(Kind::Data, key, value, top);
                for level in 0..=top {
                    (*node).next[level].store(succs[level], Ordering::Relaxed);
                }
                for level in 0..=top {
                    (*preds[level]).next[level].store(node, Ordering::Release);
                }
                (*node).fully_linked.store(true, Ordering::Release);
                for p in locked {
                    (*p).lock.unlock();
                }
            }
            self.len.fetch_add(1, Ordering::Relaxed);
            return true;
        }
    }

    fn remove(&self, key: u64) -> bool {
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let mut victim: *mut Node = std::ptr::null_mut();
        let mut is_marked = false;
        let mut top = 0usize;
        loop {
            let lfound = self.find(key, &mut preds, &mut succs);
            unsafe {
                if !is_marked {
                    let Some(lf) = lfound else { return false };
                    victim = succs[lf];
                    let ok = (*victim).fully_linked.load(Ordering::Acquire)
                        && (*victim).top_level == lf
                        && !(*victim).marked.load(Ordering::Acquire);
                    if !ok {
                        return false;
                    }
                    top = (*victim).top_level;
                    (*victim).lock.lock();
                    if (*victim).marked.load(Ordering::Acquire) {
                        (*victim).lock.unlock();
                        return false;
                    }
                    (*victim).marked.store(true, Ordering::Release); // logical delete
                    is_marked = true;
                }
                // Lock predecessors and validate they still point at victim.
                let mut locked: Vec<*mut Node> = Vec::with_capacity(top + 1);
                let mut valid = true;
                let mut prev: *mut Node = std::ptr::null_mut();
                for level in 0..=top {
                    let pred = preds[level];
                    if pred != prev {
                        (*pred).lock.lock();
                        locked.push(pred);
                        prev = pred;
                    }
                    valid = !(*pred).marked.load(Ordering::Acquire)
                        && (*pred).next[level].load(Ordering::Acquire) == victim;
                    if !valid {
                        break;
                    }
                }
                if !valid {
                    for p in locked {
                        (*p).lock.unlock();
                    }
                    continue; // re-find and retry unlinking
                }
                for level in (0..=top).rev() {
                    let succ = (*victim).next[level].load(Ordering::Acquire);
                    (*preds[level]).next[level].store(succ, Ordering::Release);
                }
                (*victim).lock.unlock();
                for p in locked {
                    (*p).lock.unlock();
                }
            }
            self.graveyard
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(victim);
            self.len.fetch_sub(1, Ordering::Relaxed);
            return true;
        }
    }

    fn name(&self) -> &'static str {
        "LazySkipList"
    }
}

impl Drop for LazySkipList {
    fn drop(&mut self) {
        unsafe {
            // Free the level-0 chain (head, data nodes, tail)...
            let mut cur = self.head;
            while !cur.is_null() {
                let next = (*cur).next[0].load(Ordering::Relaxed);
                drop(Box::from_raw(cur));
                if cur == next {
                    break;
                }
                cur = next;
            }
            // ...and the deferred graveyard.
            for p in self
                .graveyard
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .drain(..)
            {
                drop(Box::from_raw(p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn model_check() {
        conformance::sequential_model_check(&LazySkipList::new(), 2, 5000);
    }

    #[test]
    fn disjoint_writers() {
        conformance::concurrent_disjoint_writers(&LazySkipList::new());
    }

    #[test]
    fn contended_upserts() {
        conformance::concurrent_contended_upserts(&LazySkipList::new());
    }

    #[test]
    fn boundary_keys() {
        let s = LazySkipList::new();
        assert!(s.insert(0, 1));
        assert!(s.insert(u64::MAX, 2)); // tail sentinel must not collide
        assert_eq!(s.get(0), Some(1));
        assert_eq!(s.get(u64::MAX), Some(2));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn reinsert_after_remove() {
        let s = LazySkipList::new();
        for round in 0..50u64 {
            assert!(s.insert(7, round), "round {round}");
            assert_eq!(s.get(7), Some(round));
            assert!(s.remove(7));
            assert_eq!(s.get(7), None);
        }
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_insert_remove_same_keys() {
        let s = LazySkipList::new();
        std::thread::scope(|sc| {
            for t in 0..4 {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..2000u64 {
                        let k = i % 32;
                        if (t + i) % 2 == 0 {
                            s.insert(k, i);
                        } else {
                            s.remove(k);
                        }
                        let _ = s.get(k);
                    }
                });
            }
        });
        // Structure is intact: a full scan terminates and is sorted.
        let mut prev = None;
        for k in 0..32u64 {
            if let Some(v) = s.get(k) {
                let _ = v;
                if let Some(p) = prev {
                    assert!(p < k);
                }
                prev = Some(k);
            }
        }
    }
}
