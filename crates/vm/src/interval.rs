//! Interval-based Version Maintenance — the §6 "extensions" direction.
//!
//! §6 notes that "researchers have proposed numerous extensions to the
//! original HP and EP techniques [3, 22, 63, 20]" and that "some of these
//! directly translate to new ways of solving the VM problem". This module
//! is one such translation: **interval-based reclamation** (IBR, Wen et
//! al., PPoPP 2018 — reference [63]) adapted from per-object memory
//! reclamation to whole-version maintenance.
//!
//! Every successful `set` advances a global *era*; each version carries a
//! *birth era* (the era when it was installed) and, once replaced, a
//! *retire era*. A process in a transaction reserves the era interval it
//! may be reading from; a retired version is returned for collection only
//! when its `[birth, retire]` lifetime interval overlaps no process's
//! reservation. Compared to the two neighbours it interpolates between:
//!
//! * vs **HP**: a reservation is an era range, not a version identity, so
//!   validation needs only one era re-read and never retries against a
//!   racing writer that restores the same token;
//! * vs **EP**: a slow reader pins only versions whose lifetime overlaps
//!   its reservation interval — versions born *after* the reader reserved
//!   and dying before anyone else looks are still reclaimed, so one
//!   straggler no longer blocks all reclamation (the Figure 6 blow-up).
//!
//! **Imprecise**: like HP, up to `2P` dead versions may sit in retired
//! lists between scans, and a pinned interval can hold versions past
//! their death. The paper's precision experiments treat this as a third
//! imprecise point between HP and EP.
//!
//! ## Memory orderings
//!
//! The hazard-pointer fence idiom over eras (`crate::ordering`, pattern
//! 1): `acquire` publishes its reservation with [`ANNOUNCE_PUBLISH`] and
//! crosses [`announce_validate_fence`] before the version read and era
//! validation; the `release` scan crosses [`scan_fence`] before its
//! [`SCAN_LOAD`]s of the reservation array. A reservation the scan
//! misses belongs to a reader whose era validation observes the
//! retirement bump and retries. The birth-era word is a pure hint
//! ([`BIRTH_HINT`]): stale reads only widen intervals.

use mvcc_plm::CachePadded;
use std::sync::atomic::AtomicU64;

use crate::counter::VersionCounter;
use crate::ordering::{
    announce_validate_fence, scan_fence, ANNOUNCE_CLEAR, ANNOUNCE_PUBLISH, BIRTH_HINT, CAS_FAILURE,
    CLOCK_BUMP, CLOCK_LOAD, SCAN_LOAD, VERSION_CAS, VERSION_LOAD,
};
use crate::util::PerProc;
use crate::VersionMaintenance;

/// Reservation value meaning "not in a transaction".
const IDLE: u64 = u64::MAX;

/// A retired version with its lifetime interval.
struct Retired {
    data: u64,
    birth: u64,
    retire: u64,
}

/// Per-process mutable state (owner-only, per the VM contract).
struct Proc {
    /// Token returned by this process's last `acquire`.
    acquired: u64,
    /// Versions this process retired and has not yet handed back.
    retired: Vec<Retired>,
}

/// Interval-based (IBR-style) solution to the Version Maintenance problem.
pub struct IntervalVm {
    processes: usize,
    /// Global era clock: bumped by every successful `set`.
    era: CachePadded<AtomicU64>,
    /// Current version's data token.
    v: CachePadded<AtomicU64>,
    /// Birth era of the current version: the era its setter read just
    /// before its CAS on `v`, written right after the CAS. A racing
    /// setter may observe an *earlier* version's (smaller) birth, which
    /// only widens the retired interval — conservative, never unsafe.
    v_birth: CachePadded<AtomicU64>,
    /// Per-process reserved era (`IDLE` when quiescent). A single era
    /// suffices because each transaction acquires exactly one version, so
    /// the reserved interval is degenerate.
    resv: Box<[CachePadded<AtomicU64>]>,
    proc: PerProc<Proc>,
    counter: VersionCounter,
}

impl IntervalVm {
    /// Create an instance for `processes` processes with `initial` as the
    /// first version's data token.
    pub fn new(processes: usize, initial: u64) -> Self {
        assert!(processes >= 1);
        IntervalVm {
            processes,
            era: CachePadded::new(AtomicU64::new(1)),
            v: CachePadded::new(AtomicU64::new(initial)),
            v_birth: CachePadded::new(AtomicU64::new(1)),
            resv: (0..processes)
                .map(|_| CachePadded::new(AtomicU64::new(IDLE)))
                .collect(),
            proc: PerProc::new(processes, |_| Proc {
                acquired: 0,
                retired: Vec::new(),
            }),
            counter: VersionCounter::with_initial(),
        }
    }

    /// Does `[birth, retire]` overlap any active reservation?
    /// Callers must cross [`scan_fence`] once before the scan loop that
    /// invokes this (pairs with `acquire`'s announce/validate fence).
    fn pinned(&self, birth: u64, retire: u64) -> bool {
        self.resv.iter().any(|r| {
            let e = r.load(SCAN_LOAD);
            e != IDLE && birth <= e && e <= retire
        })
    }
}

impl VersionMaintenance for IntervalVm {
    fn processes(&self) -> usize {
        self.processes
    }

    fn acquire(&self, k: usize) -> u64 {
        loop {
            let e = self.era.load(CLOCK_LOAD);
            self.resv[k].store(e, ANNOUNCE_PUBLISH);
            // ANNOUNCE_VALIDATE_FENCE: the reservation must be globally
            // visible before the era validation below (StoreLoad; pairs
            // with the release scan's `scan_fence`).
            announce_validate_fence();
            let d = self.v.load(VERSION_LOAD);
            // If no successful set advanced the era, `d` was the current
            // version at a point inside our reservation: its birth is
            // <= e and its retire era (if any) will be > e.
            if self.era.load(CLOCK_LOAD) == e {
                // Safety: only process k touches proc[k] (VM contract).
                unsafe { self.proc.with(k, |p| p.acquired = d) };
                return d;
            }
        }
    }

    fn set(&self, k: usize, data: u64) -> bool {
        let old = unsafe { self.proc.with(k, |p| p.acquired) };
        // Read the old version's birth before the CAS: if another set
        // succeeds in between, our CAS fails; a torn read can only be an
        // older (smaller) birth, widening the interval — safe.
        let old_birth = self.v_birth.load(BIRTH_HINT);
        // The new version's birth era is read *before* the CAS publishes
        // it. A reader can acquire `data` in the window between the CAS
        // and the era bump below, with a reservation equal to the era it
        // validated — which is at least this value (the CAS orders this
        // load before the reader's validation load) but less than the
        // post-bump era. Stamping the birth with the post-bump era would
        // leave that reader outside `[birth, retire]`.
        let birth = self.era.load(CLOCK_LOAD);
        if self
            .v
            .compare_exchange(old, data, VERSION_CAS, CAS_FAILURE)
            .is_ok()
        {
            let retire = self.era.fetch_add(1, CLOCK_BUMP) + 1;
            self.v_birth.store(birth, BIRTH_HINT);
            self.counter.created();
            unsafe {
                self.proc.with(k, |p| {
                    p.retired.push(Retired {
                        data: old,
                        birth: old_birth,
                        retire,
                    })
                })
            };
            true
        } else {
            false
        }
    }

    fn release(&self, k: usize, out: &mut Vec<u64>) {
        // ANNOUNCE_CLEAR: a scan observing IDLE acquires every use we
        // made of the reserved-era versions.
        self.resv[k].store(IDLE, ANNOUNCE_CLEAR);
        let threshold = 2 * self.processes;
        // Safety: only process k touches proc[k].
        unsafe {
            self.proc.with(k, |p| {
                if p.retired.len() < threshold {
                    return;
                }
                // SCAN_FENCE: once per scan, before the first `pinned`
                // reservation load (see `pinned`'s contract).
                scan_fence();
                let before = p.retired.len();
                p.retired.retain(|r| {
                    if self.pinned(r.birth, r.retire) {
                        true
                    } else {
                        out.push(r.data);
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
        let vm = IntervalVm::new(p, 0);
        let mut out = Vec::new();
        for i in 1..=10u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
        }
        assert!(out.len() >= 10 - 2 * p, "out: {out:?}");
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.len(), "no double-collect");
        assert!(!out.contains(&10), "current version never collected");
    }

    #[test]
    fn reserved_interval_protects_held_version() {
        let vm = IntervalVm::new(2, 0);
        let mut out = Vec::new();
        assert_eq!(vm.acquire(1), 0); // reader reserves era 1
        for i in 1..=20u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
        }
        assert!(!out.contains(&0), "held version must survive scans");
        vm.release(1, &mut out);
        for i in 21..=40u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
        }
        assert!(out.contains(&0), "released version eventually reclaimed");
    }

    /// The IBR advantage over EP: versions born and retired entirely
    /// after a straggler's reservation are still reclaimed.
    #[test]
    fn straggler_does_not_pin_younger_versions() {
        let p = 2;
        let vm = IntervalVm::new(p, 0);
        let mut out = Vec::new();
        vm.acquire(1); // straggler reserves era 1, holding version 0
        for i in 1..=100u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
        }
        // Versions 1..99 were born after era 1 and retired before anyone
        // else reserved: all reclaimable despite the straggler. Only
        // version 0 (lifetime covers era 1) plus the current one and the
        // sub-threshold tail may remain.
        assert!(
            vm.uncollected_versions() <= 2 * p as u64 + 2,
            "straggler must not pin younger versions, uncollected={}",
            vm.uncollected_versions()
        );
        assert!(!out.contains(&0));
        vm.release(1, &mut out);
    }

    #[test]
    fn stale_set_aborts_after_competitor() {
        let vm = IntervalVm::new(2, 0);
        assert_eq!(vm.acquire(0), 0);
        assert_eq!(vm.acquire(1), 0);
        assert!(vm.set(0, 1));
        assert!(!vm.set(1, 2), "competitor succeeded: must abort");
        let mut out = Vec::new();
        vm.release(0, &mut out);
        vm.release(1, &mut out);
        assert_eq!(vm.current(), 1);
    }
}
