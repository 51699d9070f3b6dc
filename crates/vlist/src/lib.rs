//! # mvcc-vlist — the version-list multiversion baseline
//!
//! The mainstream way to build a multiversion system — used by MVTO \[57\],
//! ROMV [50, 62] and most MVCC databases — keeps a **version list per
//! object**: every record carries a chain of `(timestamp, value)` pairs,
//! newest first, and a reader with read-timestamp `t` walks the chain to
//! the newest version with timestamp `≤ t`.
//!
//! The paper's introduction singles this design out as the reason no
//! prior multiversion system bounds delay: *"these lists need to be
//! traversed to find the relevant version, which causes extra delay for
//! reads. The delay is not just a constant, but can be asymptotic in the
//! number of versions."* Garbage collection is equally problematic —
//! dead versions are found by scanning chains against the oldest active
//! reader, so collection cost is proportional to the data scanned, not
//! to the garbage collected.
//!
//! This crate implements that baseline faithfully so the repository can
//! *measure* the claim rather than cite it:
//!
//! * [`VersionListMap`] — an ordered map of `u64` keys to per-key version
//!   chains, a global commit timestamp, per-process read-timestamp
//!   announcements, and a scan-based [`VersionListMap::vacuum`].
//! * Per-read **hop accounting** ([`VlistStats::hops`]) so benches can
//!   plot reader work against the number of uncollected versions — the
//!   quantity the functional-tree system keeps at zero extra.
//!
//! It is deliberately *not* a full transactional STM: the repository's
//! point of comparison is the cost profile of version lists under the
//! paper's single-writer + many-readers workload (Table 2's shape), so
//! the writer API is single-writer (callers serialize writers, exactly
//! like the paper's batched writer) while reads are fully concurrent.

//! ## Example
//!
//! ```
//! use mvcc_vlist::VersionListMap;
//!
//! let m = VersionListMap::new(2); // two reader process slots
//! m.insert(1, 10);
//!
//! // Pin a snapshot, then keep writing.
//! let snap = m.begin_read(0);
//! m.insert(1, 11);
//! m.insert(1, 12);
//!
//! // The snapshot reads its timestamp... by walking the chain.
//! let (value, hops) = m.get_at_counted(&snap, 1);
//! assert_eq!(value, Some(10));
//! assert_eq!(hops, 3, "one hop per newer version — the paper's point");
//! m.end_read(snap);
//!
//! // Scan-based GC: cost is proportional to versions scanned.
//! let (scanned, freed) = m.vacuum();
//! assert_eq!((scanned, freed), (3, 2));
//! ```

mod chain;
mod map;

pub use chain::VersionChain;
pub use map::{ReadTicket, VersionListMap, VlistStats};

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

// Every critical section here leaves its chain, index or writer slot
// whole between statements, so a lock poisoned by a panicking holder is
// taken as it is.

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn end_to_end_snapshot_isolation() {
        let m = VersionListMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        let t = m.begin_read(0);
        assert_eq!(m.get_at(&t, 1), Some(10));
        m.insert(1, 11);
        // The pinned reader still sees the old version.
        assert_eq!(m.get_at(&t, 1), Some(10));
        m.end_read(t);
        let t2 = m.begin_read(0);
        assert_eq!(m.get_at(&t2, 1), Some(11));
        m.end_read(t2);
    }

    #[test]
    fn concurrent_readers_never_see_torn_sums() {
        // Writer keeps the sum over keys constant; readers must always
        // observe that constant on a snapshot.
        const KEYS: u64 = 64;
        let m = Arc::new(VersionListMap::new(4));
        for k in 0..KEYS {
            m.insert(k, 100);
        }
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let mw = Arc::clone(&m);
            let stopw = Arc::clone(&stop);
            s.spawn(move || {
                let mut i = 0u64;
                while !stopw.load(Ordering::Relaxed) {
                    // Move one unit from key a to key b atomically at one
                    // timestamp.
                    let a = i % KEYS;
                    let b = (i + 1) % KEYS;
                    let va = mw.get_latest(a).unwrap();
                    let vb = mw.get_latest(b).unwrap();
                    mw.insert_many(&[(a, va - 1), (b, vb + 1)]);
                    i += 1;
                }
            });
            for pid in 1..4 {
                let mr = Arc::clone(&m);
                let stopr = Arc::clone(&stop);
                s.spawn(move || {
                    for _ in 0..300 {
                        let t = mr.begin_read(pid);
                        let sum = mr.range_sum(&t, 0, KEYS);
                        assert_eq!(sum, 100 * KEYS, "torn multi-key read");
                        mr.end_read(t);
                    }
                    stopr.store(true, Ordering::Relaxed);
                });
            }
        });
    }

    #[test]
    fn vacuum_under_concurrent_reads_is_safe() {
        let m = Arc::new(VersionListMap::new(3));
        for k in 0..32u64 {
            m.insert(k, k);
        }
        std::thread::scope(|s| {
            let mw = Arc::clone(&m);
            s.spawn(move || {
                for round in 0..200u64 {
                    for k in 0..32 {
                        mw.insert(k, round * 100 + k);
                    }
                    mw.vacuum();
                }
            });
            for pid in 1..3 {
                let mr = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..200 {
                        let t = mr.begin_read(pid);
                        // Every key must resolve to *some* version of
                        // itself (k mod 100) — vacuum must never free a
                        // version a live snapshot can still reach.
                        for k in 0..32u64 {
                            let v = mr.get_at(&t, k).expect("reachable version freed");
                            assert_eq!(v % 100, k);
                        }
                        mr.end_read(t);
                    }
                });
            }
        });
        m.vacuum();
        let st = m.stats();
        assert_eq!(
            st.live_versions, 32,
            "quiescent vacuum must keep exactly the newest version per key"
        );
    }
}
