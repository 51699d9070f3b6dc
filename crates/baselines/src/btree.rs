//! A concurrent B+tree with top-down lock coupling ("crabbing") and
//! preemptive splits — the paper's B+tree comparator [61].
//!
//! * Readers descend with read-lock coupling: at most two locks held, the
//!   parent's released as soon as the child is acquired.
//! * Writers descend with write-lock coupling and split any full child
//!   *before* entering it, so a split never needs to propagate back up and
//!   at most two nodes are write-locked at any time.
//! * Deletion removes the key from its leaf without structural rebalancing
//!   (nodes may become underfull but never invalid) — the standard
//!   deferred-compaction simplification; the YCSB mixes of Figure 7 never
//!   delete.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::{read, write, ConcurrentMap};

/// Maximum keys per node; nodes split when they reach this.
const MAX_KEYS: usize = 31;

type NodeRef = Arc<RwLock<Node>>;

enum Node {
    Internal {
        /// `children[i]` holds keys `< keys[i]`; `children.len() == keys.len() + 1`.
        keys: Vec<u64>,
        children: Vec<NodeRef>,
    },
    Leaf {
        keys: Vec<u64>,
        vals: Vec<u64>,
    },
}

impl Node {
    fn empty_leaf() -> NodeRef {
        Arc::new(RwLock::new(Node::Leaf {
            keys: Vec::new(),
            vals: Vec::new(),
        }))
    }

    fn is_full(&self) -> bool {
        match self {
            Node::Internal { keys, .. } => keys.len() >= MAX_KEYS,
            Node::Leaf { keys, .. } => keys.len() >= MAX_KEYS,
        }
    }

    /// Index of the child to follow for `key`.
    fn child_index(keys: &[u64], key: u64) -> usize {
        keys.partition_point(|k| *k <= key)
    }
}

/// Concurrent B+tree over `u64 -> u64`.
///
/// Each descent is a recursion over borrowed guards, one frame per level:
/// a frame clones the child's `Arc` into a local, locks the child, and
/// only then drops its own guard and recurses. So at most two nodes are
/// locked at once, and the depth is the tree's height.
pub struct BPlusTree {
    /// Lock order: the root holder first, then nodes top-down.
    root: RwLock<NodeRef>,
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BPlusTree {
    /// Empty tree.
    pub fn new() -> Self {
        BPlusTree {
            root: RwLock::new(Node::empty_leaf()),
        }
    }

    /// Split the full child at `idx` of the (write-locked) internal parent.
    /// `child` is the child's write guard; returns the separator key and
    /// the new right sibling.
    fn split_child(parent: &mut Node, idx: usize, child: &mut Node) -> (u64, NodeRef) {
        let (sep, right) = match child {
            Node::Leaf { keys, vals } => {
                let mid = keys.len() / 2;
                let rkeys: Vec<u64> = keys.split_off(mid);
                let rvals: Vec<u64> = vals.split_off(mid);
                let sep = rkeys[0];
                (
                    sep,
                    Arc::new(RwLock::new(Node::Leaf {
                        keys: rkeys,
                        vals: rvals,
                    })),
                )
            }
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let mut rkeys: Vec<u64> = keys.split_off(mid);
                let sep = rkeys.remove(0);
                let rchildren: Vec<NodeRef> = children.split_off(mid + 1);
                (
                    sep,
                    Arc::new(RwLock::new(Node::Internal {
                        keys: rkeys,
                        children: rchildren,
                    })),
                )
            }
        };
        match parent {
            Node::Internal { keys, children } => {
                keys.insert(idx, sep);
                children.insert(idx + 1, right.clone());
            }
            Node::Leaf { .. } => unreachable!("leaf cannot be a parent"),
        }
        (sep, right)
    }

    fn get_in(node: RwLockReadGuard<'_, Node>, key: u64) -> Option<u64> {
        match &*node {
            Node::Leaf { keys, vals } => keys.binary_search(&key).ok().map(|i| vals[i]),
            Node::Internal { keys, children } => {
                let child = Arc::clone(&children[Node::child_index(keys, key)]);
                let child_guard = read(&child);
                drop(node);
                Self::get_in(child_guard, key)
            }
        }
    }

    /// `node` is non-full, so splitting a full child cannot overflow it.
    fn insert_in(mut node: RwLockWriteGuard<'_, Node>, key: u64, value: u64) -> bool {
        let (idx, child) = match &mut *node {
            Node::Leaf { keys, vals } => {
                return match keys.binary_search(&key) {
                    Ok(i) => {
                        vals[i] = value;
                        false
                    }
                    Err(i) => {
                        keys.insert(i, key);
                        vals.insert(i, value);
                        true
                    }
                };
            }
            Node::Internal { keys, children } => {
                let idx = Node::child_index(keys, key);
                (idx, Arc::clone(&children[idx]))
            }
        };
        let right: NodeRef;
        let mut child_guard = write(&child);
        // Preemptive split keeps every descended-into child non-full.
        if child_guard.is_full() {
            let sep;
            (sep, right) = Self::split_child(&mut node, idx, &mut child_guard);
            if key >= sep {
                drop(child_guard);
                child_guard = write(&right);
            }
        }
        drop(node);
        Self::insert_in(child_guard, key, value)
    }

    fn remove_in(mut node: RwLockWriteGuard<'_, Node>, key: u64) -> bool {
        let child = match &mut *node {
            Node::Leaf { keys, vals } => {
                let Ok(i) = keys.binary_search(&key) else {
                    return false;
                };
                keys.remove(i);
                vals.remove(i);
                return true;
            }
            Node::Internal { keys, children } => {
                Arc::clone(&children[Node::child_index(keys, key)])
            }
        };
        let child_guard = write(&child);
        drop(node);
        Self::remove_in(child_guard, key)
    }
}

impl ConcurrentMap for BPlusTree {
    fn get(&self, key: u64) -> Option<u64> {
        let holder = read(&self.root);
        let root = Arc::clone(&holder);
        let guard = read(&root);
        drop(holder);
        Self::get_in(guard, key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        let right: NodeRef;
        let mut holder = write(&self.root);
        let root = Arc::clone(&holder);
        let mut guard = write(&root);
        if guard.is_full() {
            // Grow: a fresh internal root over the old one, which splits.
            // The holder stays locked until the half `key` belongs in is
            // locked too.
            let mut new_root = Node::Internal {
                keys: Vec::new(),
                children: vec![Arc::clone(&root)],
            };
            let sep;
            (sep, right) = Self::split_child(&mut new_root, 0, &mut guard);
            *holder = Arc::new(RwLock::new(new_root));
            if key >= sep {
                drop(guard);
                guard = write(&right);
            }
        }
        drop(holder);
        Self::insert_in(guard, key, value)
    }

    fn remove(&self, key: u64) -> bool {
        let holder = read(&self.root);
        let root = Arc::clone(&holder);
        let guard = write(&root);
        drop(holder);
        Self::remove_in(guard, key)
    }

    fn name(&self) -> &'static str {
        "B+tree (lock coupling)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn model_check() {
        conformance::sequential_model_check(&BPlusTree::new(), 3, 5000);
    }

    #[test]
    fn disjoint_writers() {
        conformance::concurrent_disjoint_writers(&BPlusTree::new());
    }

    #[test]
    fn contended_upserts() {
        conformance::concurrent_contended_upserts(&BPlusTree::new());
    }

    #[test]
    fn sequential_bulk_insert_and_lookup() {
        let t = BPlusTree::new();
        let n = 20_000u64;
        for k in 0..n {
            assert!(t.insert(k, k * 2));
        }
        for k in 0..n {
            assert_eq!(t.get(k), Some(k * 2), "key {k}");
        }
        assert_eq!(t.get(n), None);
    }

    #[test]
    fn descending_inserts_split_left_edge() {
        let t = BPlusTree::new();
        for k in (0..5_000u64).rev() {
            assert!(t.insert(k, k));
        }
        for k in 0..5_000u64 {
            assert_eq!(t.get(k), Some(k));
        }
    }

    #[test]
    fn remove_then_reuse() {
        let t = BPlusTree::new();
        for k in 0..1000u64 {
            t.insert(k, k);
        }
        for k in (0..1000u64).step_by(3) {
            assert!(t.remove(k));
            assert!(!t.remove(k));
        }
        for k in 0..1000u64 {
            let expect = if k % 3 == 0 { None } else { Some(k) };
            assert_eq!(t.get(k), expect);
        }
        // Underfull leaves still accept inserts.
        for k in (0..1000u64).step_by(3) {
            assert!(t.insert(k, k + 1));
        }
        assert_eq!(t.get(999), Some(1000));
    }
}
