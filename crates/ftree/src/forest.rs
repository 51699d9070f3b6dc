//! The `Forest`: an arena of persistent trees plus the join-based core
//! (`join`, `split`, `insert`, `remove`) every other operation is built on.

use mvcc_plm::{AllocCtx, Arena, NodeId, OptNodeId};

use crate::node::{Node, Root};
use crate::params::TreeParams;

/// A family of persistent ordered maps sharing one tuple arena. Each map
/// version is a [`Root`]; versions share structure via path copying.
///
/// See the crate docs for the reference-count move-semantics convention:
/// update operations consume one owned reference per input root and return
/// one owned reference to the result.
pub struct Forest<P: TreeParams> {
    arena: Arena<Node<P>>,
}

/// What a node caches about its subtree, plus its children's heights.
struct Summary<P: TreeParams> {
    aug: P::Aug,
    size: u32,
    hl: u8,
    hr: u8,
}

impl<P: TreeParams> Default for Forest<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: TreeParams> Forest<P> {
    /// Create an empty forest.
    pub fn new() -> Self {
        Forest {
            arena: Arena::new(),
        }
    }

    /// The underlying arena (statistics, advanced use).
    pub fn arena(&self) -> &Arena<Node<P>> {
        &self.arena
    }

    // ------------------------------------------------------------------
    // Allocation contexts (sharded arena)
    // ------------------------------------------------------------------
    //
    // Node allocation goes through the calling thread's arena shard by
    // default; a writer that batches many updates (or a harness driving
    // one logical process across threads) can pin one shard over a whole
    // operation so every path-copied node and every collected slot stays
    // on a single freelist.

    /// The calling thread's allocation context.
    pub fn alloc_ctx(&self) -> AllocCtx {
        self.arena.ctx()
    }

    /// A deterministic context (e.g. one per process or producer id).
    pub fn ctx_for(&self, seed: usize) -> AllocCtx {
        self.arena.ctx_for(seed)
    }

    /// Run `f` with all allocation and collection on this thread routed
    /// through `ctx`'s shard — no parameter threading through recursive
    /// tree code required.
    pub fn with_ctx<R>(&self, ctx: AllocCtx, f: impl FnOnce() -> R) -> R {
        self.arena.with_ctx(ctx, f)
    }

    /// Run one fork-join subtask with allocation routed through the
    /// *executing* thread's own shard.
    ///
    /// The parallel bulk operations wrap both halves of every
    /// `rayon::join` in this: a stolen half then allocates and collects
    /// through its thief's shard (one freelist per allocating thread —
    /// the sharded arena's contract), instead of inheriting whatever pin
    /// happened to be installed on the forking thread.
    #[inline]
    pub(crate) fn with_task_ctx<R>(&self, f: impl FnOnce() -> R) -> R {
        self.arena.with_ctx(self.arena.task_ctx(), f)
    }

    /// The empty map.
    #[inline]
    pub fn empty(&self) -> Root {
        OptNodeId::NONE
    }

    /// Add one owner to a root (snapshot retention). Nil is a no-op.
    #[inline]
    pub fn retain(&self, root: Root) {
        self.arena.inc_opt(root);
    }

    /// Give up one owned reference to a root, precisely collecting every
    /// tuple that thereby becomes unreachable. Returns the number of tuples
    /// freed.
    #[inline]
    pub fn release(&self, root: Root) -> usize {
        self.arena.collect_opt(root)
    }

    // ------------------------------------------------------------------
    // Cached-field helpers (read-only, no rc effects)
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node<P> {
        self.arena.get(id)
    }

    /// AVL height of a (possibly nil) subtree.
    #[inline]
    pub(crate) fn height(&self, t: Root) -> u8 {
        match t.get() {
            Some(id) => self.node(id).height,
            None => 0,
        }
    }

    /// Number of entries in a (possibly nil) subtree.
    #[inline]
    pub fn size(&self, t: Root) -> usize {
        match t.get() {
            Some(id) => self.node(id).size as usize,
            None => 0,
        }
    }

    /// Cached augmentation of a whole (possibly nil) subtree.
    #[inline]
    pub fn aug_total(&self, t: Root) -> P::Aug {
        match t.get() {
            Some(id) => self.node(id).aug.clone(),
            None => P::aug_id(),
        }
    }

    // ------------------------------------------------------------------
    // Node construction / destruction (the PLM `tuple` instruction)
    // ------------------------------------------------------------------

    /// The cached fields of a node with entry `(key, value)` over the
    /// children `l` and `r`, reading each child exactly once.
    #[inline]
    fn summarize(&self, l: Root, key: &P::K, value: &P::V, r: Root) -> Summary<P> {
        let mut aug = P::make_aug(key, value);
        let (mut size, mut hl, mut hr) = (1u32, 0u8, 0u8);
        if let Some(lid) = l.get() {
            let n = self.node(lid);
            aug = P::combine(&n.aug, &aug);
            size += n.size;
            hl = n.height;
        }
        if let Some(rid) = r.get() {
            let n = self.node(rid);
            aug = P::combine(&aug, &n.aug);
            size += n.size;
            hr = n.height;
        }
        Summary { aug, size, hl, hr }
    }

    /// Create a node owning `l` and `r` (ownership of both transfers in).
    pub(crate) fn make(&self, l: Root, key: P::K, value: P::V, r: Root) -> NodeId {
        let Summary { aug, size, hl, hr } = self.summarize(l, &key, &value, r);
        self.arena.alloc(Node {
            key,
            value,
            aug,
            size,
            height: 1 + hl.max(hr),
            left: l,
            right: r,
        })
    }

    /// Destructure an owned node into `(left, key, value, right)`,
    /// consuming the caller's reference.
    ///
    /// If the caller owns the *only* reference, the node is dismantled in
    /// place (no copy, slot recycled); otherwise the entry is cloned and
    /// the children gain one owner each — this is exactly path copying,
    /// performed lazily at the moment a shared node must change.
    ///
    /// This is the primitive of the join algebra (`join`, `split`,
    /// `split_last` and the bulk operations built on them), where both
    /// children of an exposed node go on to separate owners. The point
    /// updates [`Forest::insert_with`] and [`Forest::remove`] do not use
    /// it on their way down: they keep one child where it is, so they
    /// descend by borrow and touch only the off-path sibling's count.
    pub(crate) fn expose_owned(&self, id: NodeId) -> (Root, P::K, P::V, Root) {
        if self.arena.rc(id) == 1 {
            // Exclusive: move everything out, recycle the slot.
            let n = self.arena.take(id);
            (n.left, n.key, n.value, n.right)
        } else {
            let (l, r, key, value) = {
                let n = self.node(id);
                (n.left, n.right, n.key.clone(), n.value.clone())
            };
            // Order matters under concurrent collectors: secure the
            // children before giving up our reference to the parent.
            self.arena.inc_opt(l);
            self.arena.inc_opt(r);
            self.arena.collect(id);
            (l, key, value, r)
        }
    }

    // ------------------------------------------------------------------
    // Join-based core (Just Join, AVL variant)
    // ------------------------------------------------------------------

    /// Join two trees around a middle entry: every key in `l` is smaller
    /// and every key in `r` larger than `key`. O(|height(l) − height(r)|).
    pub(crate) fn join(&self, l: Root, key: P::K, value: P::V, r: Root) -> Root {
        let (hl, hr) = (self.height(l), self.height(r));
        if hl > hr + 1 {
            OptNodeId::some(self.join_right(l.unwrap(), key, value, r, hr))
        } else if hr > hl + 1 {
            OptNodeId::some(self.join_left(l, hl, key, value, r.unwrap()))
        } else {
            OptNodeId::some(self.make(l, key, value, r))
        }
    }

    /// `height(l) > hr + 1` where `hr = height(r)`: descend l's right
    /// spine.
    fn join_right(&self, l: NodeId, key: P::K, value: P::V, r: Root, hr: u8) -> NodeId {
        let (ll, lk, lv, lr) = self.expose_owned(l);
        let (hll, hlr) = (self.height(ll), self.height(lr));
        if hlr <= hr + 1 {
            let t = self.make(lr, key, value, r);
            // height(t) = 1 + max(hlr, hr), to stay within hll + 1.
            if hlr.max(hr) <= hll {
                self.make(ll, lk, lv, OptNodeId::some(t))
            } else {
                let rotated = self.rotate_right(t);
                self.rotate_left(self.make(ll, lk, lv, OptNodeId::some(rotated)))
            }
        } else {
            let t = self.join_right(lr.unwrap(), key, value, r, hr);
            let th = self.node(t).height;
            let joined = self.make(ll, lk, lv, OptNodeId::some(t));
            if th <= hll + 1 {
                joined
            } else {
                self.rotate_left(joined)
            }
        }
    }

    /// Mirror image of [`Forest::join_right`] (`hl = height(l)`).
    fn join_left(&self, l: Root, hl: u8, key: P::K, value: P::V, r: NodeId) -> NodeId {
        let (rl, rk, rv, rr) = self.expose_owned(r);
        let (hrl, hrr) = (self.height(rl), self.height(rr));
        if hrl <= hl + 1 {
            let t = self.make(l, key, value, rl);
            // height(t) = 1 + max(hl, hrl), to stay within hrr + 1.
            if hl.max(hrl) <= hrr {
                self.make(OptNodeId::some(t), rk, rv, rr)
            } else {
                let rotated = self.rotate_left(t);
                self.rotate_right(self.make(OptNodeId::some(rotated), rk, rv, rr))
            }
        } else {
            let t = self.join_left(l, hl, key, value, rl.unwrap());
            let th = self.node(t).height;
            let joined = self.make(OptNodeId::some(t), rk, rv, rr);
            if th <= hrr + 1 {
                joined
            } else {
                self.rotate_right(joined)
            }
        }
    }

    fn rotate_left(&self, t: NodeId) -> NodeId {
        let (l, k, v, r) = self.expose_owned(t);
        let (rl, rk, rv, rr) = self.expose_owned(r.unwrap());
        let new_l = self.make(l, k, v, rl);
        self.make(OptNodeId::some(new_l), rk, rv, rr)
    }

    fn rotate_right(&self, t: NodeId) -> NodeId {
        let (l, k, v, r) = self.expose_owned(t);
        let (ll, lk, lv, lr) = self.expose_owned(l.unwrap());
        let new_r = self.make(lr, k, v, r);
        self.make(ll, lk, lv, OptNodeId::some(new_r))
    }

    /// Split `t` by `key` into `(< key, entry at key, > key)`. Consumes
    /// `t`; both returned roots are owned.
    #[allow(clippy::type_complexity)]
    pub fn split(&self, t: Root, key: &P::K) -> (Root, Option<(P::K, P::V)>, Root) {
        let Some(id) = t.get() else {
            return (OptNodeId::NONE, None, OptNodeId::NONE);
        };
        let (l, k, v, r) = self.expose_owned(id);
        match key.cmp(&k) {
            std::cmp::Ordering::Less => {
                let (ll, m, lr) = self.split(l, key);
                (ll, m, self.join(lr, k, v, r))
            }
            std::cmp::Ordering::Greater => {
                let (rl, m, rr) = self.split(r, key);
                (self.join(l, k, v, rl), m, rr)
            }
            std::cmp::Ordering::Equal => (l, Some((k, v)), r),
        }
    }

    /// Remove and return the rightmost entry. Consumes `t`.
    pub(crate) fn split_last(&self, t: NodeId) -> (Root, P::K, P::V) {
        let (l, k, v, r) = self.expose_owned(t);
        match r.get() {
            None => (l, k, v),
            Some(rid) => {
                let (rest, lk, lv) = self.split_last(rid);
                (self.join(l, k, v, rest), lk, lv)
            }
        }
    }

    /// Join two trees where every key of `l` is smaller than every key of
    /// `r`, with no middle entry. Consumes both.
    pub fn join2(&self, l: Root, r: Root) -> Root {
        match l.get() {
            None => r,
            Some(lid) => {
                let (rest, k, v) = self.split_last(lid);
                self.join(rest, k, v, r)
            }
        }
    }

    // ------------------------------------------------------------------
    // Point updates
    // ------------------------------------------------------------------

    /// A one-entry map.
    pub fn singleton(&self, key: P::K, value: P::V) -> Root {
        OptNodeId::some(self.make(OptNodeId::NONE, key, value, OptNodeId::NONE))
    }

    // Both point updates walk one root-to-key path and keep every
    // off-path subtree where it is. How a node on the path is replaced
    // depends on who else can see it:
    //
    // * **Exclusive** (`rc == 1`, and the caller owns that reference):
    //   no version and no other thread can reach the node — it was
    //   created earlier in the same transaction, or the whole tree has a
    //   single owner. It is updated in place. Its children are owned by
    //   it alone, so each child is consumed as an owned root in turn
    //   (exclusive again, or shared from there down).
    // * **Shared** (`rc > 1`): the node is read *by borrow* through the
    //   caller's root reference, which pins the whole old tree for the
    //   duration of the descent. The on-path child is borrowed in turn;
    //   the off-path sibling gains its one new owner (the copy); the
    //   copy is a fresh node. Below a shared node every node is shared
    //   whatever its own count says (its count-1 owner is the shared
    //   parent, not the caller), so the descent stays borrowed. The
    //   caller's reference to the old root is given up once, at the top,
    //   after the new tree is complete.
    //
    // Per copied node that is one `inc` and one allocation, against
    // `expose_owned`'s two `inc`s and a decrement.
    //
    // A panic out of `P`'s hooks or `combine` mid-update leaks the nodes
    // of the unfinished path; they are unreachable from any version, and
    // nothing traverses them again.

    /// Insert (replacing any existing value). Consumes `t`.
    pub fn insert(&self, t: Root, key: P::K, value: P::V) -> Root {
        self.insert_with(t, key, value, |_old, new| new.clone())
    }

    /// Insert, resolving duplicates with `combine(old, new)`. Consumes `t`.
    ///
    /// Costs one allocation and one reference-count increment per shared
    /// node on the path to `key` (none for nodes this owner holds
    /// exclusively, which are updated in place), plus one decrement of
    /// `t` itself.
    pub fn insert_with(
        &self,
        t: Root,
        key: P::K,
        value: P::V,
        combine: impl Fn(&P::V, &P::V) -> P::V + Copy,
    ) -> Root {
        let Some(id) = t.get() else {
            return self.singleton(key, value);
        };
        if self.arena.rc(id) == 1 {
            return OptNodeId::some(self.insert_exclusive(id, key, value, combine));
        }
        let new = self.insert_shared(id, key, value, combine);
        self.arena.collect(id);
        new
    }

    /// Insert below a node read by borrow; returns an owned new subtree
    /// and leaves every count on the old path untouched.
    fn insert_shared(
        &self,
        id: NodeId,
        key: P::K,
        value: P::V,
        combine: impl Fn(&P::V, &P::V) -> P::V + Copy,
    ) -> Root {
        let n = self.node(id);
        let descend = |child: Root, key, value| match child.get() {
            Some(c) => self.insert_shared(c, key, value, combine),
            None => self.singleton(key, value),
        };
        match key.cmp(&n.key) {
            std::cmp::Ordering::Less => {
                let l2 = descend(n.left, key, value);
                self.arena.inc_opt(n.right);
                self.join(l2, n.key.clone(), n.value.clone(), n.right)
            }
            std::cmp::Ordering::Greater => {
                let r2 = descend(n.right, key, value);
                self.arena.inc_opt(n.left);
                self.join(n.left, n.key.clone(), n.value.clone(), r2)
            }
            std::cmp::Ordering::Equal => {
                let merged = combine(&n.value, &value);
                self.arena.inc_opt(n.left);
                self.arena.inc_opt(n.right);
                OptNodeId::some(self.make(n.left, key, merged, n.right))
            }
        }
    }

    /// Insert into an exclusively owned node, in place where the result
    /// stays balanced. Consumes the caller's reference to `id`.
    fn insert_exclusive(
        &self,
        id: NodeId,
        key: P::K,
        value: P::V,
        combine: impl Fn(&P::V, &P::V) -> P::V + Copy,
    ) -> NodeId {
        let n = self.node(id);
        let (l, r) = (n.left, n.right);
        match key.cmp(&n.key) {
            std::cmp::Ordering::Less => {
                let l2 = self.insert_with(l, key, value, combine);
                self.relink(id, l2, r)
            }
            std::cmp::Ordering::Greater => {
                let r2 = self.insert_with(r, key, value, combine);
                self.relink(id, l, r2)
            }
            std::cmp::Ordering::Equal => {
                let merged = combine(&n.value, &value);
                let aug = self.summarize(l, &key, &merged, r).aug;
                debug_assert_eq!(self.arena.rc(id), 1, "in-place update of a shared node");
                // SAFETY: `rc == 1` and the caller owns that reference,
                // so no version and no other thread can reach this node.
                let n = unsafe { self.arena.get_mut_unchecked(id) };
                (n.key, n.value, n.aug) = (key, merged, aug);
                id
            }
        }
    }

    /// Give the exclusively owned node `id` the children `l` and `r`
    /// (both owned by the caller, transferred in; the node's previous
    /// links have already been consumed). In place when the children
    /// balance, otherwise the node is dismantled and re-joined.
    fn relink(&self, id: NodeId, l: Root, r: Root) -> NodeId {
        let n = self.node(id);
        let Summary { aug, size, hl, hr } = self.summarize(l, &n.key, &n.value, r);
        if hl.abs_diff(hr) > 1 {
            let n = self.arena.take(id);
            return self.join(l, n.key, n.value, r).unwrap();
        }
        debug_assert_eq!(self.arena.rc(id), 1, "in-place update of a shared node");
        // SAFETY: `rc == 1` and the caller owns that reference, so no
        // version and no other thread can reach this node.
        let n = unsafe { self.arena.get_mut_unchecked(id) };
        (n.left, n.right, n.aug, n.size) = (l, r, aug, size);
        n.height = 1 + hl.max(hr);
        id
    }

    /// Remove `key`; returns the new root and the removed value, if any.
    /// Consumes `t`. When `key` is absent the result *is* `t` (the
    /// caller's reference handed back): nothing is copied.
    pub fn remove(&self, t: Root, key: &P::K) -> (Root, Option<P::V>) {
        let Some(id) = t.get() else {
            return (OptNodeId::NONE, None);
        };
        if self.arena.rc(id) == 1 {
            return self.remove_exclusive(id, key);
        }
        match self.remove_shared(id, key) {
            Some((new, removed)) => {
                self.arena.collect(id);
                (new, Some(removed))
            }
            None => (t, None),
        }
    }

    /// Remove below a node read by borrow; `None` if `key` is absent,
    /// otherwise an owned new subtree and the removed value. Leaves
    /// every count on the old path untouched.
    fn remove_shared(&self, id: NodeId, key: &P::K) -> Option<(Root, P::V)> {
        let n = self.node(id);
        match key.cmp(&n.key) {
            std::cmp::Ordering::Less => {
                let (l2, removed) = self.remove_shared(n.left.get()?, key)?;
                self.arena.inc_opt(n.right);
                let t = self.join(l2, n.key.clone(), n.value.clone(), n.right);
                Some((t, removed))
            }
            std::cmp::Ordering::Greater => {
                let (r2, removed) = self.remove_shared(n.right.get()?, key)?;
                self.arena.inc_opt(n.left);
                let t = self.join(n.left, n.key.clone(), n.value.clone(), r2);
                Some((t, removed))
            }
            std::cmp::Ordering::Equal => {
                self.arena.inc_opt(n.left);
                self.arena.inc_opt(n.right);
                Some((self.join2(n.left, n.right), n.value.clone()))
            }
        }
    }

    /// Remove from an exclusively owned node, in place where the result
    /// stays balanced. Consumes the caller's reference to `id`.
    fn remove_exclusive(&self, id: NodeId, key: &P::K) -> (Root, Option<P::V>) {
        let n = self.node(id);
        let (l, r) = (n.left, n.right);
        let (l2, r2, removed) = match key.cmp(&n.key) {
            std::cmp::Ordering::Less => {
                let (l2, removed) = self.remove(l, key);
                (l2, r, removed)
            }
            std::cmp::Ordering::Greater => {
                let (r2, removed) = self.remove(r, key);
                (l, r2, removed)
            }
            std::cmp::Ordering::Equal => {
                let n = self.arena.take(id);
                return (self.join2(l, r), Some(n.value));
            }
        };
        if removed.is_none() {
            // Absent: the child came back as it was.
            return (OptNodeId::some(id), None);
        }
        (OptNodeId::some(self.relink(id, l2, r2)), removed)
    }

    // ------------------------------------------------------------------
    // Structural audit (used heavily by tests)
    // ------------------------------------------------------------------

    /// Verify order, AVL balance, cached sizes/heights/augmentations and
    /// positive reference counts for the whole subtree. Panics on any
    /// violation; returns the entry count. `O(n)` — test/debug use only.
    pub fn check_invariants(&self, t: Root) -> usize
    where
        P::Aug: PartialEq + std::fmt::Debug,
    {
        fn go<P: TreeParams>(
            f: &Forest<P>,
            t: Root,
            lo: Option<&P::K>,
            hi: Option<&P::K>,
        ) -> (usize, u8, P::Aug)
        where
            P::Aug: PartialEq + std::fmt::Debug,
        {
            let Some(id) = t.get() else {
                return (0, 0, P::aug_id());
            };
            assert!(f.arena.rc(id) >= 1, "non-positive rc at {id:?}");
            let n = f.node(id);
            if let Some(lo) = lo {
                assert!(n.key > *lo, "order violation (left bound)");
            }
            if let Some(hi) = hi {
                assert!(n.key < *hi, "order violation (right bound)");
            }
            let (ls, lh, la) = go(f, n.left, lo, Some(&n.key));
            let (rs, rh, ra) = go(f, n.right, Some(&n.key), hi);
            assert!(
                lh.abs_diff(rh) <= 1,
                "AVL balance violated at {id:?}: {lh} vs {rh}"
            );
            let h = 1 + lh.max(rh);
            assert_eq!(n.height, h, "cached height wrong at {id:?}");
            let s = 1 + ls + rs;
            assert_eq!(n.size as usize, s, "cached size wrong at {id:?}");
            let aug = P::combine(&P::combine(&la, &P::make_aug(&n.key, &n.value)), &ra);
            assert_eq!(n.aug, aug, "cached augmentation wrong at {id:?}");
            (s, h, aug)
        }
        go(self, t, None, None).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{SumU64Map, U64Map};

    #[test]
    fn insert_find_remove_roundtrip() {
        let f: Forest<U64Map> = Forest::new();
        let mut t = f.empty();
        for k in [5u64, 3, 8, 1, 9, 4, 7] {
            t = f.insert(t, k, k * 10);
        }
        f.check_invariants(t);
        assert_eq!(f.size(t), 7);
        assert_eq!(f.get(t, &8), Some(&80));
        assert_eq!(f.get(t, &2), None);
        let (t2, removed) = f.remove(t, &8);
        assert_eq!(removed, Some(80));
        assert_eq!(f.get(t2, &8), None);
        f.check_invariants(t2);
        f.release(t2);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn insert_replaces_and_combines() {
        let f: Forest<U64Map> = Forest::new();
        let t = f.insert(f.empty(), 1, 10);
        let t = f.insert(t, 1, 20);
        assert_eq!(f.get(t, &1), Some(&20));
        assert_eq!(f.size(t), 1);
        let t = f.insert_with(t, 1, 5, |old, new| old + new);
        assert_eq!(f.get(t, &1), Some(&25));
        f.release(t);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn path_copy_preserves_snapshot() {
        let f: Forest<U64Map> = Forest::new();
        let mut v1 = f.empty();
        for k in 0..100u64 {
            v1 = f.insert(v1, k, k);
        }
        f.retain(v1);
        let mut v2 = f.insert(v1, 1000, 1000);
        for k in 0..50u64 {
            let (t, _) = f.remove(v2, &k);
            v2 = t;
        }
        // v1 unchanged.
        assert_eq!(f.size(v1), 100);
        for k in 0..100u64 {
            assert_eq!(f.get(v1, &k), Some(&k), "snapshot corrupted at {k}");
        }
        // v2 mutated.
        assert_eq!(f.size(v2), 51);
        assert_eq!(f.get(v2, &1000), Some(&1000));
        f.check_invariants(v1);
        f.check_invariants(v2);
        f.release(v1);
        f.release(v2);
        assert_eq!(f.arena().live(), 0, "precise GC leaves nothing");
    }

    #[test]
    fn split_and_join2() {
        let f: Forest<U64Map> = Forest::new();
        let mut t = f.empty();
        for k in 0..50u64 {
            t = f.insert(t, k, k);
        }
        let (l, m, r) = f.split(t, &20);
        assert_eq!(m, Some((20, 20)));
        assert_eq!(f.size(l), 20);
        assert_eq!(f.size(r), 29);
        f.check_invariants(l);
        f.check_invariants(r);
        let joined = f.join2(l, r);
        assert_eq!(f.size(joined), 49);
        assert_eq!(f.get(joined, &20), None);
        f.check_invariants(joined);
        f.release(joined);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn split_absent_key() {
        let f: Forest<U64Map> = Forest::new();
        let mut t = f.empty();
        for k in (0..40u64).step_by(2) {
            t = f.insert(t, k, k);
        }
        let (l, m, r) = f.split(t, &7);
        assert_eq!(m, None);
        assert_eq!(f.size(l), 4); // 0 2 4 6
        assert_eq!(f.size(r), 16);
        f.release(l);
        f.release(r);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn ascending_descending_and_random_insertions_stay_balanced() {
        let f: Forest<U64Map> = Forest::new();
        let n = 2_000u64;
        let mut asc = f.empty();
        for k in 0..n {
            asc = f.insert(asc, k, k);
        }
        assert_eq!(f.check_invariants(asc), n as usize);
        assert!(f.height(asc) as f64 <= 1.45 * (n as f64).log2() + 2.0);
        let mut desc = f.empty();
        for k in (0..n).rev() {
            desc = f.insert(desc, k, k);
        }
        assert_eq!(f.check_invariants(desc), n as usize);
        f.release(asc);
        f.release(desc);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn sum_augmentation_maintained_through_updates() {
        let f: Forest<SumU64Map> = Forest::new();
        let mut t = f.empty();
        let mut expected = 0u64;
        for k in 0..500u64 {
            t = f.insert(t, k, k * 3);
            expected += k * 3;
        }
        assert_eq!(f.aug_total(t), expected);
        let (t, removed) = f.remove(t, &100);
        expected -= removed.unwrap();
        assert_eq!(f.aug_total(t), expected);
        f.check_invariants(t);
        f.release(t);
    }

    #[test]
    fn with_ctx_matches_default_paths() {
        let f: Forest<U64Map> = Forest::new();
        f.with_ctx(f.ctx_for(1), || {
            let mut t = f.empty();
            for k in [5u64, 3, 8, 1, 9] {
                t = f.insert(t, k, k * 10);
            }
            f.check_invariants(t);
            assert_eq!(f.get(t, &8), Some(&80));
            let (t2, removed) = f.remove(t, &8);
            assert_eq!(removed, Some(80));
            f.check_invariants(t2);
            let batch: Vec<(u64, u64)> = (100..150u64).map(|k| (k, k)).collect();
            let t3 = f.multi_insert(t2, batch, |_o, n| *n);
            assert_eq!(f.size(t3), 54);
            let t4 = f.multi_remove(t3, (100..150u64).collect());
            assert_eq!(f.size(t4), 4);
            f.release(t4);
        });
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn many_snapshots_share_structure() {
        let f: Forest<U64Map> = Forest::new();
        let mut roots = Vec::new();
        let mut t = f.empty();
        for k in 0..200u64 {
            t = f.insert(t, k, k);
            f.retain(t);
            roots.push(t);
        }
        // 200 versions of sizes 1..=200, but far fewer than 200*100 nodes.
        let live = f.arena().live();
        assert!(live < 5_000, "sharing failed: {live} nodes live");
        for (i, r) in roots.iter().enumerate() {
            assert_eq!(f.size(*r), i + 1);
        }
        for r in roots {
            f.release(r);
        }
        f.release(t);
        assert_eq!(f.arena().live(), 0);
    }
}
