//! Epoch-based Version Maintenance (§6).
//!
//! Execution is divided into epochs. `acquire` announces the current epoch
//! and reads the current version; a successful `set` retires the replaced
//! version into the current epoch's limbo bag; a `release` that follows a
//! successful `set` (the paper's optimization — all other releases return
//! immediately) scans the announcement array, and if every process has
//! announced the current epoch (or is quiescent) it advances the epoch and
//! returns every version retired two epochs ago. Three limbo bags suffice.
//!
//! **Imprecise and unbounded**: a single slow reader pins its announced
//! epoch, after which *no* version can be collected, no matter how many
//! pile up — this is exactly the blow-up Figure 6 shows for small `nu`.
//!
//! ## Memory orderings
//!
//! The crossbeam-epoch `pin` idiom (`crate::ordering`, pattern 1):
//! `acquire` announces its epoch with [`ANNOUNCE_PUBLISH`] and crosses
//! [`announce_validate_fence`] before reading the version; the
//! epoch-advance scan crosses [`scan_fence`] before its [`SCAN_LOAD`]s,
//! so a reader whose announcement the scan missed is guaranteed to
//! observe a version newer than anything the advance frees. Limbo-bag
//! contents synchronize through the bag mutex.

use mvcc_plm::CachePadded;
use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, MutexGuard};

use crate::counter::VersionCounter;
use crate::ordering::{
    announce_validate_fence, scan_fence, ANNOUNCE_CLEAR, ANNOUNCE_PUBLISH, CAS_FAILURE, CLOCK_LOAD,
    EPOCH_ADVANCE_CAS, SCAN_LOAD, VERSION_CAS, VERSION_LOAD,
};
use crate::util::PerProc;
use crate::VersionMaintenance;

/// Announcement value meaning "not in a transaction".
const QUIESCENT: u64 = u64::MAX;

struct Proc {
    /// Data token returned by this process's last `acquire`.
    acquired: u64,
    /// Did this process's last `set` succeed (⇒ its release must try to
    /// advance the epoch)?
    try_advance: bool,
}

/// Epoch-based solution to the Version Maintenance problem.
pub struct EpochVm {
    processes: usize,
    /// Global epoch counter (starts at 2 so `e - 2` never underflows).
    epoch: CachePadded<AtomicU64>,
    /// Current version's data token.
    v: CachePadded<AtomicU64>,
    /// Per-process announced epoch (`QUIESCENT` when idle).
    ann: Box<[CachePadded<AtomicU64>]>,
    /// Versions retired during epoch `e` live in `limbo[e % 3]`.
    limbo: [Mutex<Vec<u64>>; 3],
    proc: PerProc<Proc>,
    counter: VersionCounter,
}

impl EpochVm {
    /// Create an instance for `processes` processes with `initial` as the
    /// first version's data token.
    pub fn new(processes: usize, initial: u64) -> Self {
        assert!(processes >= 1);
        EpochVm {
            processes,
            epoch: CachePadded::new(AtomicU64::new(2)),
            v: CachePadded::new(AtomicU64::new(initial)),
            ann: (0..processes)
                .map(|_| CachePadded::new(AtomicU64::new(QUIESCENT)))
                .collect(),
            limbo: [const { Mutex::new(Vec::new()) }; 3],
            proc: PerProc::new(processes, |_| Proc {
                acquired: 0,
                try_advance: false,
            }),
            counter: VersionCounter::with_initial(),
        }
    }

    /// The limbo bag of epoch `e`. A bag holds only retired tokens, so
    /// one left poisoned by a panicking holder is still whole.
    fn bag(&self, e: u64) -> MutexGuard<'_, Vec<u64>> {
        self.limbo[(e % 3) as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

impl VersionMaintenance for EpochVm {
    fn processes(&self) -> usize {
        self.processes
    }

    fn acquire(&self, k: usize) -> u64 {
        let e = self.epoch.load(CLOCK_LOAD);
        self.ann[k].store(e, ANNOUNCE_PUBLISH);
        // ANNOUNCE_VALIDATE_FENCE: the epoch announcement must be
        // globally visible before the version read — an advance scan
        // that misses it would otherwise free what we are about to read
        // (StoreLoad; pairs with release's `scan_fence`). There is no
        // validate retry here: the fence instead guarantees the version
        // we read is too young for any advance that missed us to free.
        announce_validate_fence();
        let d = self.v.load(VERSION_LOAD);
        // Safety: only process k touches proc[k] (VM contract).
        unsafe { self.proc.with(k, |p| p.acquired = d) };
        d
    }

    fn set(&self, k: usize, data: u64) -> bool {
        let old = unsafe { self.proc.with(k, |p| p.acquired) };
        if self
            .v
            .compare_exchange(old, data, VERSION_CAS, CAS_FAILURE)
            .is_ok()
        {
            self.counter.created();
            let e = self.epoch.load(CLOCK_LOAD);
            self.bag(e).push(old);
            unsafe { self.proc.with(k, |p| p.try_advance = true) };
            true
        } else {
            false
        }
    }

    fn release(&self, k: usize, out: &mut Vec<u64>) {
        // ANNOUNCE_CLEAR: an advance scan observing QUIESCENT acquires
        // every read we made under the announced epoch.
        self.ann[k].store(QUIESCENT, ANNOUNCE_CLEAR);
        // Paper optimization: only writer releases scan; this leaves at
        // most one extra uncollected version behind.
        let advance = unsafe {
            self.proc.with(k, |p| {
                let a = p.try_advance;
                p.try_advance = false;
                a
            })
        };
        if !advance {
            return;
        }
        let e = self.epoch.load(CLOCK_LOAD);
        // SCAN_FENCE: pairs with acquire's announce/validate fence (see
        // `ordering` pattern 1) — an announcement this scan misses
        // belongs to a reader whose version read is ordered after our
        // retirements, so nothing it holds is in the bag we may drain.
        scan_fence();
        for a in self.ann.iter() {
            let announced = a.load(SCAN_LOAD);
            if announced != QUIESCENT && announced != e {
                return; // a straggler pins an older epoch
            }
        }
        if self
            .epoch
            .compare_exchange(e, e + 1, EPOCH_ADVANCE_CAS, CAS_FAILURE)
            .is_ok()
        {
            // Epoch e+1 begins; versions retired in epoch e-2 (which lives
            // in the bag that epoch e+1 will reuse) are unreachable now:
            // every in-flight transaction announced epoch >= e-1... >= e.
            let mut bag = self.bag(e + 1);
            self.counter.collected(bag.len() as u64);
            out.append(&mut *bag);
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
    fn versions_reclaimed_after_epoch_advances() {
        let vm = EpochVm::new(2, 0);
        let mut out = Vec::new();
        for i in 1..=10u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
        }
        // Each writer release advances an epoch; retirements lag by ~2.
        assert!(out.len() >= 7, "out: {out:?}");
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.len(), "no double-collect");
        assert!(!out.contains(&10), "current never collected");
    }

    #[test]
    fn slow_reader_pins_everything() {
        let vm = EpochVm::new(2, 0);
        let mut out = Vec::new();
        vm.acquire(1); // reader parks in an old epoch
        for i in 1..=50u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
        }
        // The reader announced epoch 2 and never left: at most the couple
        // of versions retired before it could block advancement escape.
        assert!(
            vm.uncollected_versions() >= 48,
            "EP must leak under a slow reader, uncollected={}",
            vm.uncollected_versions()
        );
        vm.release(1, &mut out);
        // Reader gone: the writer can advance epochs again and drain.
        for i in 51..=56u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
        }
        assert!(vm.uncollected_versions() < 50);
    }

    #[test]
    fn reader_in_current_epoch_does_not_block() {
        let vm = EpochVm::new(2, 0);
        let mut out = Vec::new();
        for i in 1..=30u64 {
            vm.acquire(1);
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
            vm.release(1, &mut out);
        }
        assert!(
            vm.uncollected_versions() <= 5,
            "prompt readers must not leak, uncollected={}",
            vm.uncollected_versions()
        );
    }
}
