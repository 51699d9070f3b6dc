//! A **dynamic non-zero indicator** (SNZI) — the contention-mitigation
//! alternative to fetch-and-add counters that §4 of the paper points to:
//!
//! > "The simplest way of implementing the counters is via a
//! > fetch-and-add object. However, we note that this could introduce
//! > unnecessary contention. To mitigate that effect, other options,
//! > like dynamic non-zero indicators [2], can be used."
//!
//! This is the SNZI tree of Ellen, Lev, Luchangco and Moir (PODC 2007),
//! as used for nested parallelism by Acar, Ben-David and Rainey [2]: a
//! complete binary tree of counters where each process arrives and
//! departs at its own leaf, and an increment propagates toward the root
//! **only on a 0 → nonzero transition** of its node (symmetrically for
//! decrements on nonzero → 0). Under the single-writer workload's
//! pattern — many processes repeatedly arriving/departing — almost all
//! traffic stays on per-process leaves, and the root (the only word a
//! `query` reads) is touched O(1) amortized times instead of once per
//! operation.
//!
//! Each internal node's state is a packed `(count, version)` word, with
//! the count in **half units**: the intermediate value ½ marks a node
//! whose 0 → nonzero transition is mid-flight (its owner has yet to
//! finish arriving at the parent), letting helpers merge into the same
//! transition instead of contending on it.
//!
//! # Guarantees
//!
//! * If some process has completed an [`Snzi::arrive`] and not yet begun
//!   the matching [`Snzi::depart`], then [`Snzi::query`] returns `true`.
//! * After every arrive has been matched by a completed depart (and no
//!   operation is in flight), `query` returns `false`.
//!
//! (The original paper additionally makes `query` linearizable with
//! in-flight arrives via an indicator/announce bit on the root; the
//! reference-counting use case only needs the two properties above, so
//! the root here is a plain counter.)

use crate::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Memory-ordering roles — a local mirror of `mvcc-vm::ordering`'s
// vocabulary (this crate sits below `mvcc-vm` in the dependency graph,
// so the constants are restated rather than imported; the `strict-sc`
// feature maps the tunable ones back to `SeqCst` just the same).
// ---------------------------------------------------------------------

/// Tunable (`AcqRel`; `SeqCst` under `strict-sc`) — every interior-node
/// CAS. The RMW chain on each node totally orders that node's
/// transitions and extends predecessors' release sequences, so a
/// completed arrive's propagation to the root happens-before any
/// operation that synchronizes with the arriver — the edge the
/// `Guarantees` section needs. (On x86 this is the same locked
/// instruction as `SeqCst`; ARM drops the trailing barrier.)
const NODE_CAS: Ordering = if cfg!(feature = "strict-sc") {
    Ordering::SeqCst
} else {
    Ordering::AcqRel
};

/// Tunable (`Relaxed`; `SeqCst` under `strict-sc`) — the per-iteration
/// node re-read feeding a CAS expected value. A stale read is corrected
/// by the CAS failing (the version field catches stale `HALF`
/// promotions); no decision survives without revalidation.
const NODE_HINT: Ordering = if cfg!(feature = "strict-sc") {
    Ordering::SeqCst
} else {
    Ordering::Relaxed
};

/// **Pinned `SeqCst`** — the root counter's RMWs and [`Snzi::query`]'s
/// load. Proof obligation: the module's first guarantee is *temporal*
/// ("if some process has completed an arrive..."), promised to queriers
/// with no happens-before relationship to the arriver; only the SC
/// total order makes a completed root increment visible to every later
/// query. Root RMWs are locked instructions on x86 either way, and the
/// query is a plain `mov`, so pinning costs nothing there.
const ROOT_RMW: Ordering = Ordering::SeqCst;
/// See [`ROOT_RMW`].
const QUERY: Ordering = Ordering::SeqCst;

/// Count of one whole arrival, in half units.
const ONE: u64 = 2;
/// The intermediate "half" count marking an in-flight 0→nonzero move.
const HALF: u64 = 1;

#[inline]
fn pack(c: u64, v: u32) -> u64 {
    (c << 32) | v as u64
}

#[inline]
fn count_of(x: u64) -> u64 {
    x >> 32
}

#[inline]
fn ver_of(x: u64) -> u32 {
    x as u32
}

/// A scalable non-zero indicator over `leaves` process slots.
pub struct Snzi {
    /// Implicit complete binary tree: `nodes[0]` is the root, the
    /// children of `i` are `2i+1` and `2i+2`.
    nodes: Box<[CachePadded<AtomicU64>]>,
    /// Index of the first leaf node.
    leaf_base: usize,
    leaves: usize,
}

impl Snzi {
    /// An indicator with one leaf per process slot.
    pub fn new(leaves: usize) -> Self {
        assert!(leaves >= 1);
        let width = leaves.next_power_of_two();
        let total = 2 * width - 1;
        Snzi {
            nodes: (0..total)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            leaf_base: width - 1,
            leaves,
        }
    }

    /// Number of leaf slots.
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// Record one arrival at `leaf`. Must be matched by exactly one
    /// [`Snzi::depart`] on the same leaf (by any thread).
    pub fn arrive(&self, leaf: usize) {
        assert!(leaf < self.leaves);
        self.arrive_at(self.leaf_base + leaf);
    }

    /// Record one departure at `leaf`, matching an earlier arrival.
    pub fn depart(&self, leaf: usize) {
        assert!(leaf < self.leaves);
        self.depart_at(self.leaf_base + leaf);
    }

    /// `true` iff the surplus (arrives minus departs) is provably
    /// non-zero. A single uncontended root-word read.
    pub fn query(&self) -> bool {
        count_of(self.nodes[0].load(QUERY)) > 0
    }

    fn arrive_at(&self, idx: usize) {
        if idx == 0 {
            // Root: a plain counter; only 0↔nonzero transitions of its
            // children ever reach here.
            self.nodes[0].fetch_add(pack(ONE, 0), ROOT_RMW);
            return;
        }
        let parent = (idx - 1) / 2;
        let node = &self.nodes[idx];
        // The PODC'07 Arrive, verbatim: one load per iteration, then the
        // three (non-exclusive) cases. Only the ≥1 add and the 0→½ claim
        // complete *our* arrival; the ½→1 promotion finishes the
        // *claimer's* transition, and a helper whose promotion loses
        // withdraws its donated parent-arrival afterwards.
        let mut succ = false;
        let mut undo = 0u32;
        while !succ {
            let mut x = node.load(NODE_HINT);
            if count_of(x) >= ONE {
                // Node already visibly non-zero: just add our unit.
                if node
                    .compare_exchange(x, pack(count_of(x) + ONE, ver_of(x)), NODE_CAS, NODE_HINT)
                    .is_ok()
                {
                    succ = true;
                }
            }
            if count_of(x) == 0 {
                // Claim the 0→nonzero transition with the HALF marker and
                // a fresh version so a stale ½→1 CAS can never land.
                let claimed = pack(HALF, ver_of(x).wrapping_add(1));
                if node
                    .compare_exchange(x, claimed, NODE_CAS, NODE_HINT)
                    .is_ok()
                {
                    succ = true;
                    x = claimed;
                }
            }
            if count_of(x) == HALF {
                // Complete the transition: surplus must reach the parent
                // *before* the node reads as whole (NODE_CAS release
                // publishes the parent arrival with the promotion).
                self.arrive_at(parent);
                if node
                    .compare_exchange(x, pack(ONE, ver_of(x)), NODE_CAS, NODE_HINT)
                    .is_err()
                {
                    undo += 1;
                }
            }
        }
        for _ in 0..undo {
            self.depart_at(parent);
        }
    }

    fn depart_at(&self, idx: usize) {
        if idx == 0 {
            let prev = self.nodes[0].fetch_sub(pack(ONE, 0), ROOT_RMW);
            debug_assert!(count_of(prev) >= ONE, "root departed below zero");
            return;
        }
        let parent = (idx - 1) / 2;
        let node = &self.nodes[idx];
        loop {
            let x = node.load(NODE_HINT);
            let (c, v) = (count_of(x), ver_of(x));
            debug_assert!(c >= ONE, "depart without a completed arrive");
            if node
                .compare_exchange(x, pack(c - ONE, v), NODE_CAS, NODE_HINT)
                .is_ok()
            {
                if c == ONE {
                    // nonzero → 0: withdraw this subtree's surplus.
                    self.depart_at(parent);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_leaf_arrive_depart() {
        let s = Snzi::new(1);
        assert!(!s.query());
        s.arrive(0);
        assert!(s.query());
        s.depart(0);
        assert!(!s.query());
    }

    #[test]
    fn nested_arrivals_one_leaf() {
        let s = Snzi::new(4);
        for _ in 0..10 {
            s.arrive(2);
        }
        assert!(s.query());
        for i in 0..10 {
            assert!(s.query(), "still held after {i} departs");
            s.depart(2);
        }
        assert!(!s.query());
    }

    #[test]
    fn different_leaves_independent() {
        let s = Snzi::new(8);
        s.arrive(0);
        s.arrive(7);
        s.depart(0);
        assert!(s.query(), "leaf 7 still arrived");
        s.depart(7);
        assert!(!s.query());
    }

    #[test]
    fn depart_on_other_leaf_than_arrive_thread() {
        // The refcount use case hands ownership across threads: arrive on
        // the writer's leaf, depart from a releaser's context (same leaf
        // index, different thread).
        let s = Arc::new(Snzi::new(2));
        s.arrive(1);
        let s2 = Arc::clone(&s);
        std::thread::spawn(move || s2.depart(1)).join().unwrap();
        assert!(!s.query());
    }

    #[test]
    fn non_power_of_two_leaves() {
        let s = Snzi::new(5);
        for leaf in 0..5 {
            s.arrive(leaf);
        }
        for leaf in 0..5 {
            assert!(s.query());
            s.depart(leaf);
        }
        assert!(!s.query());
    }

    #[test]
    fn concurrent_hammer_never_false_while_held() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 2_000;
        let s = Arc::new(Snzi::new(THREADS));
        std::thread::scope(|scope| {
            for leaf in 0..THREADS {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        s.arrive(leaf);
                        // While *we* hold an arrival, the indicator must
                        // be non-zero no matter what everyone else does.
                        assert!(s.query(), "query false while leaf {leaf} held");
                        s.depart(leaf);
                    }
                });
            }
        });
        assert!(!s.query(), "surplus after all departs");
    }

    #[test]
    fn concurrent_shared_leaf() {
        // All threads hammer the SAME leaf — maximal contention on one
        // node; correctness must still hold.
        const THREADS: usize = 8;
        const ROUNDS: usize = 2_000;
        let s = Arc::new(Snzi::new(1));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        s.arrive(0);
                        assert!(s.query());
                        s.depart(0);
                    }
                });
            }
        });
        assert!(!s.query());
    }

    #[test]
    fn staggered_holders_quiesce_to_zero() {
        const THREADS: usize = 6;
        let s = Arc::new(Snzi::new(THREADS));
        std::thread::scope(|scope| {
            for leaf in 0..THREADS {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for round in 0..500usize {
                        s.arrive(leaf);
                        if round % (leaf + 1) == 0 {
                            std::thread::yield_now();
                        }
                        s.depart(leaf);
                    }
                });
            }
        });
        assert!(!s.query());
    }
}
