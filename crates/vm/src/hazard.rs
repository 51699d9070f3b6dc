//! Hazard-pointer based Version Maintenance (§6).
//!
//! Each process announces the version (data token) it is about to use and
//! re-validates that it is still current — the classic Michael hazard
//! pointer protocol with a single hazard slot per process. A successful
//! `set` retires the replaced version into the setter's local retired list;
//! `release` only scans the announcement array once the list reaches `2P`
//! entries, at which point at least `P` versions are unannounced and
//! returnable, giving O(1) amortized release cost.
//!
//! **Imprecise**: up to `2P` dead versions can sit in retired lists
//! indefinitely (the paper measures exactly `2P = 282` live versions for
//! HP in Table 2).
//!
//! ## Memory orderings
//!
//! The classic hazard-pointer fence idiom (`crate::ordering`, pattern
//! 1): `acquire` publishes the hazard slot with [`ANNOUNCE_PUBLISH`] and
//! crosses [`announce_validate_fence`] before validating; the `release`
//! scan crosses [`scan_fence`] before its [`SCAN_LOAD`] snapshot. All
//! other traffic is plain acquire/release ([`VERSION_CAS`] /
//! [`VERSION_LOAD`] / [`ANNOUNCE_CLEAR`]).

use mvcc_plm::CachePadded;
use std::sync::atomic::AtomicU64;

use crate::counter::VersionCounter;
use crate::ordering::{
    announce_validate_fence, scan_fence, ANNOUNCE_CLEAR, ANNOUNCE_PUBLISH, CAS_FAILURE, SCAN_LOAD,
    SELF_LOAD, VERSION_CAS, VERSION_LOAD,
};
use crate::util::PerProc;
use crate::VersionMaintenance;

/// Announcement value meaning "no version announced".
const IDLE: u64 = u64::MAX;

/// Per-process mutable state (only touched by its owner, per the VM
/// problem's same-`k`-never-concurrent contract).
#[derive(Default)]
struct Proc {
    /// Versions this process retired and has not yet handed back.
    retired: Vec<u64>,
}

/// Hazard-pointer solution to the Version Maintenance problem.
pub struct HazardVm {
    processes: usize,
    /// Current version's data token.
    v: CachePadded<AtomicU64>,
    /// One hazard slot per process (`IDLE` when not reading).
    ann: Box<[CachePadded<AtomicU64>]>,
    proc: PerProc<Proc>,
    counter: VersionCounter,
}

impl HazardVm {
    /// Create an instance for `processes` processes; `initial` must not be
    /// `u64::MAX` (reserved as the idle marker).
    pub fn new(processes: usize, initial: u64) -> Self {
        assert!(processes >= 1);
        assert_ne!(initial, IDLE, "u64::MAX is reserved");
        HazardVm {
            processes,
            v: CachePadded::new(AtomicU64::new(initial)),
            ann: (0..processes)
                .map(|_| CachePadded::new(AtomicU64::new(IDLE)))
                .collect(),
            proc: PerProc::new(processes, |_| Proc::default()),
            counter: VersionCounter::with_initial(),
        }
    }
}

impl VersionMaintenance for HazardVm {
    fn processes(&self) -> usize {
        self.processes
    }

    fn acquire(&self, k: usize) -> u64 {
        loop {
            let d = self.v.load(VERSION_LOAD);
            self.ann[k].store(d, ANNOUNCE_PUBLISH);
            // ANNOUNCE_VALIDATE_FENCE: the announcement must be globally
            // visible before the validate load (StoreLoad; pairs with
            // the release scan's `scan_fence`).
            announce_validate_fence();
            // Re-validate: if still current, the announcement was visible
            // before the version could be retired, so it is protected.
            if d == self.v.load(VERSION_LOAD) {
                return d;
            }
        }
    }

    fn set(&self, k: usize, data: u64) -> bool {
        debug_assert_ne!(data, IDLE, "u64::MAX is reserved");
        // SELF_LOAD: our own slot, last written by our own acquire.
        let old = self.ann[k].load(SELF_LOAD);
        if self
            .v
            .compare_exchange(old, data, VERSION_CAS, CAS_FAILURE)
            .is_ok()
        {
            self.counter.created();
            // Safety: only process k touches proc[k] (VM contract).
            unsafe { self.proc.with(k, |p| p.retired.push(old)) };
            true
        } else {
            false
        }
    }

    fn release(&self, k: usize, out: &mut Vec<u64>) {
        // ANNOUNCE_CLEAR: a scan observing IDLE acquires every use we
        // made of the version; a scan that misses it just keeps the
        // version one more round (within the 2P imprecision budget).
        self.ann[k].store(IDLE, ANNOUNCE_CLEAR);
        let threshold = 2 * self.processes;
        // Safety: only process k touches proc[k].
        unsafe {
            self.proc.with(k, |p| {
                if p.retired.len() < threshold {
                    return;
                }
                // Scan phase: snapshot all hazard slots, hand back every
                // retired version that no one has announced. SCAN_FENCE:
                // pairs with acquire's announce/validate fence — any
                // announcement this snapshot misses belongs to a reader
                // whose validation will observe the retirement and retry.
                scan_fence();
                let announced: Vec<u64> = self.ann.iter().map(|a| a.load(SCAN_LOAD)).collect();
                let before = p.retired.len();
                p.retired.retain(|ver| {
                    if announced.contains(ver) {
                        true // still hazarded: keep
                    } else {
                        out.push(*ver);
                        false
                    }
                });
                self.counter.collected((before - p.retired.len()) as u64);
            });
        }
    }

    fn current(&self) -> u64 {
        self.v.load(VERSION_LOAD)
    }

    fn uncollected_versions(&self) -> u64 {
        self.counter.uncollected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_versions_flush_at_threshold() {
        let p = 2; // threshold = 4
        let vm = HazardVm::new(p, 0);
        let mut out = Vec::new();
        for i in 1..=10u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
        }
        // Flushes happen in bursts of >= threshold; everything dead and
        // unannounced must eventually be returned.
        assert!(out.len() >= 10 - 2 * p, "out: {out:?}");
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.len(), "no double-collect");
        assert!(!out.contains(&10), "current version never collected");
    }

    #[test]
    fn announced_version_is_protected() {
        let vm = HazardVm::new(2, 0);
        let mut out = Vec::new();
        assert_eq!(vm.acquire(1), 0); // reader pins version 0
        for i in 1..=20u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
        }
        assert!(!out.contains(&0), "hazarded version must survive scans");
        vm.release(1, &mut out);
        // After the reader lets go, a later writer scan may reclaim it.
        for i in 21..=40u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
        }
        assert!(out.contains(&0), "unpinned version eventually reclaimed");
    }

    #[test]
    fn uncollected_bounded_by_2p_plus_current_single_writer() {
        let p = 4;
        let vm = HazardVm::new(p, 0);
        let mut out = Vec::new();
        for i in 1..=1000u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
            assert!(
                vm.uncollected_versions() <= (2 * p as u64) + 1,
                "HP bound violated at round {i}"
            );
        }
    }
}
