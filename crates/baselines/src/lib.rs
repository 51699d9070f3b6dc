//! # mvcc-baselines — concurrent ordered maps compared against in Figure 7
//!
//! The paper benchmarks its batched functional tree against five
//! state-of-the-art concurrent structures (skiplist, OpenBW-tree, Masstree,
//! B+tree, chromatic tree). OpenBW and Masstree are large external C++
//! systems; per DESIGN.md we cover the same design space with four
//! from-scratch implementations:
//!
//! * [`LazySkipList`] — the Herlihy–Shavit *lazy* skiplist: lock-free
//!   wait-free `get`, fine-grained per-node locking with logical deletion
//!   marks for updates;
//! * [`BPlusTree`] — a B+tree with top-down lock coupling and preemptive
//!   splits (at most two nodes locked at any time);
//! * [`LockFreeBst`] — a lock-free external binary search tree in the
//!   Ellen et al. style, simplified to the insert/upsert/get +
//!   tombstone-remove operation set that YCSB exercises (see module docs);
//! * [`CoarseMap`] — a reader-writer-locked `BTreeMap`, the floor any
//!   concurrent structure must beat.
//!
//! All implement [`ConcurrentMap`] over `u64` keys and values (the paper
//! uses 64-bit integers for the YCSB runs) so the Figure 7 harness can
//! sweep them uniformly. Matching the paper's methodology, internal
//! garbage collection is *off*: removed nodes are reclaimed when the
//! structure drops, not during the run.

mod bst;
mod btree;
mod skiplist;

pub use bst::LockFreeBst;
pub use btree::BPlusTree;
pub use skiplist::LazySkipList;

use std::collections::BTreeMap;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

// No critical section in these maps panics unless an invariant is
// already broken, so a poisoned lock is taken as it is.

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Uniform interface for the Figure 7 structures: an ordered map from
/// `u64` to `u64` safe for concurrent use.
pub trait ConcurrentMap: Send + Sync {
    /// Point lookup.
    fn get(&self, key: u64) -> Option<u64>;
    /// Insert or overwrite; returns `true` if the key was newly inserted.
    fn insert(&self, key: u64, value: u64) -> bool;
    /// Remove; returns `true` if the key was present.
    fn remove(&self, key: u64) -> bool;
    /// Display name for benchmark tables.
    fn name(&self) -> &'static str;
}

/// Coarse-grained baseline: one `RwLock` around a `BTreeMap`.
#[derive(Default)]
pub struct CoarseMap {
    inner: RwLock<BTreeMap<u64, u64>>,
}

impl CoarseMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ConcurrentMap for CoarseMap {
    fn get(&self, key: u64) -> Option<u64> {
        read(&self.inner).get(&key).copied()
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        write(&self.inner).insert(key, value).is_none()
    }

    fn remove(&self, key: u64) -> bool {
        write(&self.inner).remove(&key).is_some()
    }

    fn name(&self) -> &'static str {
        "RwLock<BTreeMap>"
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared conformance suite run against every implementation.
    use super::ConcurrentMap;
    use rand::prelude::*;
    use std::collections::BTreeMap;

    pub fn sequential_model_check(map: &impl ConcurrentMap, seed: u64, ops: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..ops {
            let key = rng.gen_range(0..200u64);
            match rng.gen_range(0..3) {
                0 => {
                    let newly = map.insert(key, i as u64);
                    assert_eq!(newly, !model.contains_key(&key), "insert({key}) @op{i}");
                    model.insert(key, i as u64);
                }
                1 => {
                    let was = map.remove(key);
                    assert_eq!(was, model.remove(&key).is_some(), "remove({key}) @op{i}");
                }
                _ => {
                    assert_eq!(map.get(key), model.get(&key).copied(), "get({key}) @op{i}");
                }
            }
        }
        for (k, v) in &model {
            assert_eq!(map.get(*k), Some(*v));
        }
    }

    pub fn concurrent_disjoint_writers(map: &impl ConcurrentMap) {
        let threads = 4;
        let per = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let map = &map;
                s.spawn(move || {
                    let base = t as u64 * per;
                    for k in base..base + per {
                        assert!(map.insert(k, k * 2));
                    }
                    for k in base..base + per {
                        assert_eq!(map.get(k), Some(k * 2));
                    }
                    for k in (base..base + per).step_by(2) {
                        assert!(map.remove(k));
                    }
                });
            }
        });
        let mut present = 0;
        for k in 0..threads as u64 * per {
            let got = map.get(k);
            if k % 2 == 0 {
                assert_eq!(got, None, "key {k} should be removed");
            } else {
                assert_eq!(got, Some(k * 2), "key {k} should remain");
                present += 1;
            }
        }
        assert_eq!(present, threads as u64 * per / 2);
    }

    pub fn concurrent_contended_upserts(map: &impl ConcurrentMap) {
        // All threads hammer the same small key set with updates; at the
        // end every key must hold one of the written values.
        let threads = 4;
        let rounds = 2_000u64;
        for k in 0..16u64 {
            map.insert(k, 0);
        }
        std::thread::scope(|s| {
            for t in 0..threads {
                let map = &map;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    for i in 0..rounds {
                        let k = rng.gen_range(0..16u64);
                        map.insert(k, (t as u64) << 32 | i);
                        let _ = map.get(rng.gen_range(0..16u64));
                    }
                });
            }
        });
        for k in 0..16u64 {
            assert!(map.get(k).is_some(), "key {k} lost under contention");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_model() {
        conformance::sequential_model_check(&CoarseMap::new(), 1, 3000);
    }

    #[test]
    fn coarse_disjoint() {
        conformance::concurrent_disjoint_writers(&CoarseMap::new());
    }

    #[test]
    fn coarse_contended() {
        conformance::concurrent_contended_upserts(&CoarseMap::new());
    }
}
