//! Tree parameterisation: key/value types and the augmentation monoid —
//! plus the shared fork-join cutoff knob.

/// Default sequential cutoff for the parallel divide-and-conquer
/// operations (bulk set ops and map-reduce): subtrees at or below this
/// many entries recurse sequentially.
///
/// Re-tuned against the work-stealing pool (PR 4): one fork costs two
/// queue locks plus a latch handshake (sub-microsecond), while a
/// cutoff-sized bulk-op subtree costs hundreds of microseconds, so fork
/// overhead stays well under 1%. Union at 10^6 keys measured
/// single-digit-percent total parallel overhead on a single core, flat
/// across cutoffs 2048–8192 — so the cutoff stays at 2048, which keeps
/// enough forks in flight to feed wide pools at the sizes the paper
/// evaluates.
pub(crate) const DEFAULT_PAR_CUTOFF: usize = 2048;

/// The active sequential cutoff: `MVCC_PAR_CUTOFF` if set to a positive
/// integer (read once per process), otherwise [`DEFAULT_PAR_CUTOFF`].
#[inline]
pub(crate) fn par_cutoff() -> usize {
    static CUTOFF: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CUTOFF.get_or_init(|| {
        std::env::var("MVCC_PAR_CUTOFF")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&c| c >= 1)
            .unwrap_or(DEFAULT_PAR_CUTOFF)
    })
}

/// Static description of a map type: key ordering, value type, and an
/// *augmentation* — a monoid folded over every subtree and cached in each
/// node, enabling O(log n) range queries (`aug_range`). This mirrors PAM's
//  `entry` concept.
pub trait TreeParams: Sized + Send + Sync + 'static {
    /// Key type (total order decides tree shape).
    type K: Ord + Clone + Send + Sync + 'static;
    /// Value type.
    type V: Clone + Send + Sync + 'static;
    /// Augmented value (monoid element).
    type Aug: Clone + Send + Sync + 'static;

    /// The monoid identity (augmentation of an empty tree).
    fn aug_id() -> Self::Aug;
    /// Lift one entry into the monoid.
    fn make_aug(k: &Self::K, v: &Self::V) -> Self::Aug;
    /// Associative combination.
    fn combine(a: &Self::Aug, b: &Self::Aug) -> Self::Aug;
}

/// Plain `u64 -> u64` map with no augmentation — the YCSB workloads.
pub struct U64Map;

impl TreeParams for U64Map {
    type K = u64;
    type V = u64;
    type Aug = ();

    #[inline]
    fn aug_id() -> Self::Aug {}
    #[inline]
    fn make_aug(_: &u64, _: &u64) -> Self::Aug {}
    #[inline]
    fn combine(_: &(), _: &()) -> Self::Aug {}
}

/// `u64 -> u64` map augmented with the **sum** of values — the range-sum
/// query workload of §7.1 (Table 2 / Figure 6).
pub struct SumU64Map;

impl TreeParams for SumU64Map {
    type K = u64;
    type V = u64;
    type Aug = u64;

    #[inline]
    fn aug_id() -> u64 {
        0
    }
    #[inline]
    fn make_aug(_: &u64, v: &u64) -> u64 {
        *v
    }
    #[inline]
    fn combine(a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }
}

/// `u64 -> u64` map augmented with the **max** of values — the inverted
/// index's max-weight augmentation (§7.2).
pub struct MaxU64Map;

impl TreeParams for MaxU64Map {
    type K = u64;
    type V = u64;
    type Aug = u64;

    #[inline]
    fn aug_id() -> u64 {
        0
    }
    #[inline]
    fn make_aug(_: &u64, v: &u64) -> u64 {
        *v
    }
    #[inline]
    fn combine(a: &u64, b: &u64) -> u64 {
        (*a).max(*b)
    }
}

/// Generic wrapper that counts entries matching nothing in particular —
/// useful to verify that the cached subtree sizes agree with a monoid fold.
pub struct CountAug<P>(std::marker::PhantomData<P>);

impl<P: TreeParams> TreeParams for CountAug<P> {
    type K = P::K;
    type V = P::V;
    type Aug = u64;

    #[inline]
    fn aug_id() -> u64 {
        0
    }
    #[inline]
    fn make_aug(_: &P::K, _: &P::V) -> u64 {
        1
    }
    #[inline]
    fn combine(a: &u64, b: &u64) -> u64 {
        a + b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monoid_laws_sum() {
        let id = SumU64Map::aug_id();
        for a in [0u64, 5, 17] {
            assert_eq!(SumU64Map::combine(&a, &id), a);
            assert_eq!(SumU64Map::combine(&id, &a), a);
        }
        // Associativity on a few triples.
        for (a, b, c) in [(1u64, 2u64, 3u64), (10, 0, 7)] {
            assert_eq!(
                SumU64Map::combine(&SumU64Map::combine(&a, &b), &c),
                SumU64Map::combine(&a, &SumU64Map::combine(&b, &c)),
            );
        }
    }

    #[test]
    fn monoid_laws_max() {
        let id = MaxU64Map::aug_id();
        for a in [0u64, 5, 17] {
            assert_eq!(MaxU64Map::combine(&a, &id), a);
        }
        assert_eq!(MaxU64Map::combine(&3, &9), 9);
    }
}
