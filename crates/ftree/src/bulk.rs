//! Join-based bulk operations: `union`, `intersection`, `difference`,
//! `multi_insert`, `multi_remove`, `filter`, `build_sorted`.
//!
//! These are the parallel divide-and-conquer algorithms of "Just Join for
//! Parallel Ordered Sets" [16] that PAM uses and the paper's batching
//! writer relies on (Appendix F): each splits one tree by the other's root
//! key and recurses on the two halves independently — `rayon::join` above
//! a sequential cutoff — then reassembles with `join`/`join2`.
//!
//! Ownership: like all updates, each operation consumes one owned
//! reference per input root (discarded subtrees are collected eagerly, so
//! GC stays precise even for temporaries) and returns an owned result.

use crate::forest::Forest;
use crate::node::Root;
use crate::params::{par_cutoff, TreeParams};
use mvcc_plm::OptNodeId;

impl<P: TreeParams> Forest<P> {
    /// Fork the two halves onto the work-stealing pool when `par` and
    /// the pool has workers, else recurse sequentially on this thread.
    ///
    /// Each parallel half re-acquires its *executing* thread's
    /// allocation context ([`Forest::with_task_ctx`]): `rayon::join` may
    /// run a half on any pool thread, so the old shim's same-thread
    /// guarantee (which let a single pin cover both halves) no longer
    /// holds — and funneling every stolen subtask through the forker's
    /// pinned shard would re-serialize the allocator the sharding was
    /// built to parallelize. With a sequential pool
    /// (`MVCC_POOL_THREADS=1`) the fork — and with it the re-pin — is
    /// skipped entirely, so session/`with_ctx` pins cover whole bulk ops
    /// exactly as they did under the sequential shim.
    #[inline]
    fn maybe_join<A: Send, B: Send>(
        &self,
        par: bool,
        fa: impl FnOnce() -> A + Send,
        fb: impl FnOnce() -> B + Send,
    ) -> (A, B) {
        if par && rayon::pool::current_num_threads() > 1 {
            rayon::join(|| self.with_task_ctx(fa), || self.with_task_ctx(fb))
        } else {
            (fa(), fb())
        }
    }

    /// Union of two maps; on duplicate keys the result holds
    /// `combine(value_in_a, value_in_b)`. Consumes both roots.
    /// Work O(m · log(n/m + 1)), polylog span.
    pub fn union_with(
        &self,
        a: Root,
        b: Root,
        combine: impl Fn(&P::V, &P::V) -> P::V + Sync,
    ) -> Root {
        self.union_rec(a, b, &combine)
    }

    /// Union where `b`'s value wins on duplicates (the "newer batch
    /// overrides" semantics of a batched writer).
    pub fn union(&self, a: Root, b: Root) -> Root {
        self.union_rec(a, b, &|_old, new| new.clone())
    }

    fn union_rec<F: Fn(&P::V, &P::V) -> P::V + Sync>(&self, a: Root, b: Root, f: &F) -> Root {
        if a.is_none() {
            return b;
        }
        if b.is_none() {
            return a;
        }
        let par = self.size(a) + self.size(b) > par_cutoff();
        let (bl, bk, bv, br) = self.expose_owned(b.unwrap());
        let (al, m, ar) = self.split(a, &bk);
        let ((l, r), value) = {
            let (l, r) = self.maybe_join(
                par,
                || self.union_rec(al, bl, f),
                || self.union_rec(ar, br, f),
            );
            let value = match &m {
                Some((_, av)) => f(av, &bv),
                None => bv,
            };
            ((l, r), value)
        };
        self.join(l, bk, value, r)
    }

    /// Intersection of two maps, keeping keys present in both with
    /// `combine(value_in_a, value_in_b)`. Consumes both roots.
    pub fn intersection_with(
        &self,
        a: Root,
        b: Root,
        combine: impl Fn(&P::V, &P::V) -> P::V + Sync,
    ) -> Root {
        self.inter_rec(a, b, &combine)
    }

    fn inter_rec<F: Fn(&P::V, &P::V) -> P::V + Sync>(&self, a: Root, b: Root, f: &F) -> Root {
        if a.is_none() {
            self.release(b);
            return OptNodeId::NONE;
        }
        if b.is_none() {
            self.release(a);
            return OptNodeId::NONE;
        }
        let par = self.size(a) + self.size(b) > par_cutoff();
        let (bl, bk, bv, br) = self.expose_owned(b.unwrap());
        let (al, m, ar) = self.split(a, &bk);
        let (l, r) = self.maybe_join(
            par,
            || self.inter_rec(al, bl, f),
            || self.inter_rec(ar, br, f),
        );
        match m {
            Some((k, av)) => {
                let v = f(&av, &bv);
                self.join(l, k, v, r)
            }
            None => self.join2(l, r),
        }
    }

    /// All entries of `a` whose key is *not* in `b`. Consumes both roots.
    pub fn difference(&self, a: Root, b: Root) -> Root {
        if a.is_none() {
            self.release(b);
            return OptNodeId::NONE;
        }
        if b.is_none() {
            return a;
        }
        let par = self.size(a) + self.size(b) > par_cutoff();
        let (bl, bk, _bv, br) = self.expose_owned(b.unwrap());
        let (al, _m, ar) = self.split(a, &bk);
        let (l, r) = self.maybe_join(par, || self.difference(al, bl), || self.difference(ar, br));
        self.join2(l, r)
    }

    /// Keep only the entries satisfying `pred`. Consumes `t`.
    pub fn filter(&self, t: Root, pred: impl Fn(&P::K, &P::V) -> bool + Sync) -> Root {
        self.filter_rec(t, &pred)
    }

    fn filter_rec<F: Fn(&P::K, &P::V) -> bool + Sync>(&self, t: Root, pred: &F) -> Root {
        let Some(id) = t.get() else {
            return OptNodeId::NONE;
        };
        let par = self.size(t) > par_cutoff();
        let (l, k, v, r) = self.expose_owned(id);
        let (fl, fr) = self.maybe_join(
            par,
            || self.filter_rec(l, pred),
            || self.filter_rec(r, pred),
        );
        if pred(&k, &v) {
            self.join(fl, k, v, fr)
        } else {
            self.join2(fl, fr)
        }
    }

    /// Build a tree from a strictly-sorted slice of entries (clones them).
    /// O(n) work, O(log n) span.
    pub fn build_sorted(&self, items: &[(P::K, P::V)]) -> Root {
        debug_assert!(
            items.windows(2).all(|w| w[0].0 < w[1].0),
            "build_sorted requires strictly increasing keys"
        );
        self.build_rec(items)
    }

    fn build_rec(&self, items: &[(P::K, P::V)]) -> Root {
        if items.is_empty() {
            return OptNodeId::NONE;
        }
        let mid = items.len() / 2;
        let (k, v) = items[mid].clone();
        let (l, r) = self.maybe_join(
            items.len() > par_cutoff(),
            || self.build_rec(&items[..mid]),
            || self.build_rec(&items[mid + 1..]),
        );
        OptNodeId::some(self.make(l, k, v, r))
    }

    /// Apply a whole batch of insertions atomically — PAM's `multi_insert`,
    /// the workhorse of the paper's batched single-writer (Appendix F).
    /// The batch need not be sorted; duplicate keys inside the batch are
    /// merged left-to-right with `combine`, then merged into the map with
    /// `combine(old_value, batch_value)`. Consumes `t`.
    pub fn multi_insert(
        &self,
        t: Root,
        mut batch: Vec<(P::K, P::V)>,
        combine: impl Fn(&P::V, &P::V) -> P::V + Sync,
    ) -> Root {
        if batch.is_empty() {
            return t;
        }
        batch.sort_by(|a, b| a.0.cmp(&b.0));
        // Merge duplicates left-to-right (later entries are "newer").
        let mut merged: Vec<(P::K, P::V)> = Vec::with_capacity(batch.len());
        for (k, v) in batch {
            match merged.last_mut() {
                Some(last) if last.0 == k => last.1 = combine(&last.1, &v),
                _ => merged.push((k, v)),
            }
        }
        let built = self.build_sorted(&merged);
        self.union_with(t, built, combine)
    }

    /// Remove a whole batch of keys atomically. Keys need not be sorted or
    /// distinct. Consumes `t`.
    pub fn multi_remove(&self, t: Root, mut keys: Vec<P::K>) -> Root {
        keys.sort();
        keys.dedup();
        self.remove_sorted(t, &keys)
    }

    /// [`Forest::multi_remove`] over a **borrowed, strictly-sorted** key
    /// slice — no per-call clone, so a retrying writer (e.g. the batching
    /// combiner) can resolve its batch once and reuse it across attempts.
    /// Consumes `t`.
    pub fn multi_remove_sorted(&self, t: Root, keys: &[P::K]) -> Root {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "multi_remove_sorted requires strictly increasing keys"
        );
        self.remove_sorted(t, keys)
    }

    fn remove_sorted(&self, t: Root, keys: &[P::K]) -> Root {
        if t.is_none() || keys.is_empty() {
            return t;
        }
        let mid = keys.len() / 2;
        let (l, _m, r) = self.split(t, &keys[mid]);
        let (l2, r2) = self.maybe_join(
            self.size(l) + self.size(r) > par_cutoff(),
            || self.remove_sorted(l, &keys[..mid]),
            || self.remove_sorted(r, &keys[mid + 1..]),
        );
        self.join2(l2, r2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{SumU64Map, U64Map};
    use std::collections::BTreeMap;

    fn from_pairs(f: &Forest<U64Map>, pairs: &[(u64, u64)]) -> Root {
        let mut t = f.empty();
        for (k, v) in pairs {
            t = f.insert(t, *k, *v);
        }
        t
    }

    #[test]
    fn union_matches_model() {
        let f: Forest<U64Map> = Forest::new();
        let a: Vec<_> = (0..300u64).map(|k| (k * 2, k)).collect();
        let b: Vec<_> = (0..300u64).map(|k| (k * 3, k + 1000)).collect();
        let ta = from_pairs(&f, &a);
        let tb = from_pairs(&f, &b);
        let u = f.union(ta, tb);
        let mut model: BTreeMap<u64, u64> = a.iter().copied().collect();
        for (k, v) in &b {
            model.insert(*k, *v); // b wins
        }
        assert_eq!(f.to_vec(u), model.into_iter().collect::<Vec<_>>());
        f.check_invariants(u);
        f.release(u);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn union_with_combiner() {
        let f: Forest<U64Map> = Forest::new();
        let ta = from_pairs(&f, &[(1, 10), (2, 20), (3, 30)]);
        let tb = from_pairs(&f, &[(2, 2), (3, 3), (4, 4)]);
        let u = f.union_with(ta, tb, |a, b| a + b);
        assert_eq!(f.to_vec(u), vec![(1, 10), (2, 22), (3, 33), (4, 4)]);
        f.release(u);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn union_preserves_snapshots_of_inputs() {
        let f: Forest<U64Map> = Forest::new();
        let ta = from_pairs(&f, &(0..500u64).map(|k| (k, k)).collect::<Vec<_>>());
        let tb = from_pairs(&f, &(250..750u64).map(|k| (k, k + 1)).collect::<Vec<_>>());
        f.retain(ta);
        f.retain(tb);
        let u = f.union(ta, tb);
        // Inputs still intact.
        assert_eq!(f.size(ta), 500);
        assert_eq!(f.size(tb), 500);
        assert_eq!(f.get(ta, &300), Some(&300));
        assert_eq!(f.get(tb, &300), Some(&301));
        assert_eq!(f.get(u, &300), Some(&301));
        assert_eq!(f.size(u), 750);
        f.check_invariants(ta);
        f.check_invariants(tb);
        f.check_invariants(u);
        f.release(ta);
        f.release(tb);
        f.release(u);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn intersection_matches_model() {
        let f: Forest<U64Map> = Forest::new();
        let a: Vec<_> = (0..200u64).map(|k| (k * 2, k)).collect();
        let b: Vec<_> = (0..200u64).map(|k| (k * 3, k)).collect();
        let ta = from_pairs(&f, &a);
        let tb = from_pairs(&f, &b);
        let i = f.intersection_with(ta, tb, |x, y| x + y);
        let bm: BTreeMap<u64, u64> = b.iter().copied().collect();
        let expected: Vec<(u64, u64)> = a
            .iter()
            .filter_map(|(k, v)| bm.get(k).map(|w| (*k, v + w)))
            .collect();
        assert_eq!(f.to_vec(i), expected);
        f.release(i);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn difference_matches_model() {
        let f: Forest<U64Map> = Forest::new();
        let a: Vec<_> = (0..300u64).map(|k| (k, k)).collect();
        let b: Vec<_> = (0..300u64).filter(|k| k % 3 == 0).map(|k| (k, 0)).collect();
        let ta = from_pairs(&f, &a);
        let tb = from_pairs(&f, &b);
        let d = f.difference(ta, tb);
        let expected: Vec<(u64, u64)> = a.iter().filter(|(k, _)| k % 3 != 0).copied().collect();
        assert_eq!(f.to_vec(d), expected);
        f.check_invariants(d);
        f.release(d);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn multi_insert_matches_sequential_inserts() {
        let f: Forest<SumU64Map> = Forest::new();
        let mut t = f.empty();
        for k in 0..500u64 {
            t = f.insert(t, k * 2, k);
        }
        let batch: Vec<(u64, u64)> = (0..400u64).map(|k| (k * 3, k + 7)).collect();
        f.retain(t);
        let batched = f.multi_insert(t, batch.clone(), |_o, n| *n);
        let mut seq = t;
        for (k, v) in batch {
            seq = f.insert(seq, k, v);
        }
        assert_eq!(f.to_vec(batched), f.to_vec(seq));
        assert_eq!(f.aug_total(batched), f.aug_total(seq));
        f.check_invariants(batched);
        f.release(batched);
        f.release(seq);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn multi_insert_merges_batch_duplicates() {
        let f: Forest<U64Map> = Forest::new();
        let t = f.multi_insert(
            f.empty(),
            vec![(1, 1), (1, 2), (2, 5), (1, 4)],
            |old, new| old + new,
        );
        assert_eq!(f.to_vec(t), vec![(1, 7), (2, 5)]);
        f.release(t);
    }

    #[test]
    fn multi_remove_matches_model() {
        let f: Forest<U64Map> = Forest::new();
        let mut t = f.empty();
        for k in 0..1000u64 {
            t = f.insert(t, k, k);
        }
        let keys: Vec<u64> = (0..1000u64).filter(|k| k % 7 == 0).chain([5000]).collect();
        let t = f.multi_remove(t, keys);
        assert_eq!(f.size(t), 1000 - 143);
        assert!(!f.contains(t, &0));
        assert!(!f.contains(t, &7));
        assert!(f.contains(t, &1));
        f.check_invariants(t);
        f.release(t);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn filter_and_build_sorted() {
        let f: Forest<U64Map> = Forest::new();
        let items: Vec<(u64, u64)> = (0..500u64).map(|k| (k, k)).collect();
        let t = f.build_sorted(&items);
        f.check_invariants(t);
        assert_eq!(f.size(t), 500);
        let t = f.filter(t, |k, _| k % 2 == 0);
        assert_eq!(f.size(t), 250);
        assert!(f.contains(t, &0) && !f.contains(t, &1));
        f.check_invariants(t);
        f.release(t);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn large_parallel_union_exceeds_cutoff() {
        let f: Forest<U64Map> = Forest::new();
        let a: Vec<(u64, u64)> = (0..6000u64).map(|k| (k * 2, k)).collect();
        let b: Vec<(u64, u64)> = (0..6000u64).map(|k| (k * 2 + 1, k)).collect();
        let ta = f.build_sorted(&a);
        let tb = f.build_sorted(&b);
        let u = f.union(ta, tb);
        assert_eq!(f.size(u), 12000);
        f.check_invariants(u);
        f.release(u);
        assert_eq!(f.arena().live(), 0);
    }

    #[test]
    fn empty_edge_cases() {
        let f: Forest<U64Map> = Forest::new();
        let t = from_pairs(&f, &[(1, 1), (2, 2)]);
        f.retain(t);
        f.retain(t);
        f.retain(t);
        assert_eq!(f.to_vec(f.union(t, f.empty())), vec![(1, 1), (2, 2)]);
        assert!(f.intersection_with(t, f.empty(), |a, _| *a).is_none());
        assert_eq!(f.to_vec(f.difference(t, f.empty())), vec![(1, 1), (2, 2)]);
        assert!(f.build_sorted(&[]).is_none());
        let t2 = f.multi_insert(t, vec![], |_o, n| *n);
        assert_eq!(t2, t);
        // Ref accounting: creation + 3 retains = 4 owned refs; union and
        // difference each consumed one and returned it, intersection
        // consumed one outright, multi_insert returned its input as `t2`.
        // Three owned refs remain.
        f.release(t);
        f.release(t);
        f.release(t2);
        assert_eq!(f.arena().live(), 0);
    }
}
