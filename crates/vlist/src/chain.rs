//! Per-object version chains.
//!
//! A chain is the classic MVCC record format: a list of `(timestamp,
//! value)` versions where `value = None` is a deletion tombstone,
//! stored oldest-first (newest at the back) so installs append in
//! O(1). Readers walk from the newest version back to the first one
//! whose timestamp is `≤` their read timestamp — the walk length is the
//! "extra delay" the paper's introduction attributes to version lists,
//! and every read reports it so benches can plot delay against the
//! number of uncollected versions.

use std::sync::RwLock;

use crate::{read, write};

/// One object's version list, stored oldest first (newest at the back)
/// so installing a version is an amortized O(1) `push` instead of the
/// classic head-insert that shifts the whole chain on every write.
/// Readers still *walk* from the newest end, so the reported hop count —
/// the paper's "extra delay" metric — is unchanged.
///
/// Readers share the lock; the (single) writer and the vacuum take it
/// exclusively. The lock is per-object, so reader/reader contention is
/// nil and reader/writer contention only occurs on the object being
/// written — this is the *favourable* version-list implementation; its
/// measured read delay is therefore a lower bound for the design.
pub struct VersionChain<V> {
    /// Sorted by timestamp ascending: `versions.last()` is the newest.
    versions: RwLock<Vec<(u64, Option<V>)>>,
}

impl<V: Clone> VersionChain<V> {
    /// A chain born with a single version.
    pub fn new(ts: u64, value: Option<V>) -> Self {
        VersionChain {
            versions: RwLock::new(vec![(ts, value)]),
        }
    }

    /// Append a version. `ts` must be at least the current newest
    /// timestamp (commit timestamps are handed out monotonically).
    pub fn install(&self, ts: u64, value: Option<V>) {
        let mut g = write(&self.versions);
        debug_assert!(
            g.last().is_none_or(|head| head.0 <= ts),
            "version timestamps must be installed in increasing order"
        );
        g.push((ts, value));
    }

    /// Resolve the chain at read timestamp `ts`: the newest version with
    /// timestamp `≤ ts`. Returns the value (`None` inside the outer
    /// `Some` would have been a tombstone, which resolves to `None`) and
    /// the number of versions examined (the reader's extra hops). The
    /// walk starts at the newest version, exactly like a linked version
    /// list — the hop count is the delay being measured, so no binary
    /// search shortcut here.
    pub fn read_at(&self, ts: u64) -> (Option<V>, u64) {
        let g = read(&self.versions);
        let mut hops = 0;
        for (vts, value) in g.iter().rev() {
            hops += 1;
            if *vts <= ts {
                return (value.clone(), hops);
            }
        }
        (None, hops)
    }

    /// The newest version's value (tombstones resolve to `None`).
    pub fn latest(&self) -> Option<V> {
        read(&self.versions).last().and_then(|(_, v)| v.clone())
    }

    /// Number of versions currently in the chain.
    pub fn len(&self) -> usize {
        read(&self.versions).len()
    }

    /// True if the chain holds no versions (only possible after a prune
    /// that found the whole chain dead).
    pub fn is_empty(&self) -> bool {
        read(&self.versions).is_empty()
    }

    /// Scan-based pruning against `horizon` (the oldest timestamp any
    /// active or future reader can use): keep every version with
    /// timestamp `> horizon` plus the newest version `≤ horizon` — unless
    /// that boundary version is a tombstone and nothing newer survives,
    /// in which case the chain empties entirely.
    ///
    /// Returns `(scanned, freed)`: the vacuum pays `scanned` regardless
    /// of how little it frees, which is exactly the cost profile the
    /// paper's precise collector avoids (Theorem 4.2: `O(freed + 1)`).
    pub fn prune(&self, horizon: u64) -> (u64, u64) {
        let mut g = write(&self.versions);
        let scanned = g.len() as u64;
        // Count of versions with ts <= horizon (the chain is sorted
        // ascending); the boundary version is the newest of them.
        let below = g.partition_point(|(ts, _)| *ts <= horizon);
        if below == 0 {
            return (scanned, 0); // every version still above the horizon
        }
        if below == g.len() && g[below - 1].1.is_none() {
            // The whole chain is a dead tombstone.
            g.clear();
            return (scanned, scanned);
        }
        // Drop everything older than the boundary version.
        let freed = (below - 1) as u64;
        g.drain(..below - 1);
        (scanned, freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with(versions: &[(u64, Option<u64>)]) -> VersionChain<u64> {
        let c = VersionChain::new(versions[0].0, versions[0].1);
        for &(ts, v) in &versions[1..] {
            c.install(ts, v);
        }
        c
    }

    #[test]
    fn read_resolves_newest_at_or_below() {
        let c = chain_with(&[(1, Some(10)), (5, Some(50)), (9, Some(90))]);
        assert_eq!(c.read_at(0), (None, 3));
        assert_eq!(c.read_at(1), (Some(10), 3));
        assert_eq!(c.read_at(4), (Some(10), 3));
        assert_eq!(c.read_at(5), (Some(50), 2));
        assert_eq!(c.read_at(9), (Some(90), 1));
        assert_eq!(c.read_at(u64::MAX), (Some(90), 1));
    }

    #[test]
    fn hops_grow_with_uncollected_versions() {
        let c = chain_with(&[(1, Some(0))]);
        for ts in 2..=100 {
            c.install(ts, Some(ts));
        }
        // A reader pinned at the oldest timestamp pays one hop per
        // version accumulated since — the paper's motivating pathology.
        let (v, hops) = c.read_at(1);
        assert_eq!(v, Some(0));
        assert_eq!(hops, 100);
    }

    #[test]
    fn tombstone_resolves_to_none() {
        let c = chain_with(&[(1, Some(7)), (3, None)]);
        assert_eq!(c.read_at(2), (Some(7), 2));
        assert_eq!(c.read_at(3), (None, 1));
    }

    #[test]
    fn prune_keeps_boundary_version() {
        let c = chain_with(&[(1, Some(10)), (5, Some(50)), (9, Some(90))]);
        let (scanned, freed) = c.prune(6);
        assert_eq!((scanned, freed), (3, 1)); // ts=1 freed; ts=5 is boundary
        assert_eq!(c.read_at(6), (Some(50), 2));
        assert_eq!(c.read_at(9), (Some(90), 1));
    }

    #[test]
    fn prune_below_everything_is_a_noop() {
        let c = chain_with(&[(5, Some(50)), (9, Some(90))]);
        assert_eq!(c.prune(4), (2, 0));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn prune_drops_dead_tombstone_chain() {
        let c = chain_with(&[(1, Some(10)), (5, None)]);
        let (_, freed) = c.prune(10);
        assert_eq!(freed, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn prune_keeps_tombstone_with_live_successor() {
        let c = chain_with(&[(1, Some(10)), (5, None), (9, Some(90))]);
        let (_, freed) = c.prune(6);
        assert_eq!(freed, 1); // ts=1 dies; tombstone at 5 is the boundary
        assert_eq!(c.read_at(6), (None, 2));
    }
}
