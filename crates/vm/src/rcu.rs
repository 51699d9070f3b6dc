//! Read-copy-update based Version Maintenance (§6, Citrus-style grace
//! periods).
//!
//! `acquire` is `read_lock` (announce the current grace-period generation)
//! plus a read of the current version; `set` CASes the version; the
//! release that follows a successful `set` calls `synchronize`, **blocking**
//! until every read-side critical section that predates it has finished,
//! and then returns the single replaced version — so collection is precise
//! and at most one dead version ever exists, but the writer's progress is
//! hostage to the slowest reader (the paper's motivation for PSWF, and the
//! reason RCU's update throughput collapses in Table 2).
//!
//! ## Memory orderings
//!
//! `read_lock` is `crate::ordering`'s pattern 1: publish the generation
//! with [`ANNOUNCE_PUBLISH`], cross [`announce_validate_fence`], read
//! the version. `synchronize` pins its generation bump at `SeqCst`
//! ([`GRACE_PERIOD_RMW`]) and crosses [`scan_fence`] before scanning
//! reader generations: a reader the scan misses is one whose version
//! read is ordered after the writer's install, so it cannot hold the
//! version being reclaimed; a reader the scan waits for hands its
//! critical section over through [`ANNOUNCE_CLEAR`]/[`SCAN_LOAD`].

use mvcc_plm::CachePadded;
use std::sync::atomic::AtomicU64;

use crate::counter::VersionCounter;
use crate::ordering::{
    announce_validate_fence, scan_fence, ANNOUNCE_CLEAR, ANNOUNCE_PUBLISH, CAS_FAILURE, CLOCK_LOAD,
    GRACE_PERIOD_RMW, SCAN_LOAD, VERSION_CAS, VERSION_LOAD,
};
use crate::util::PerProc;
use crate::VersionMaintenance;

/// Reader-generation value meaning "not inside a read-side section".
const QUIESCENT: u64 = 0;

struct Proc {
    /// Data token returned by this process's last `acquire`.
    acquired: u64,
    /// Version replaced by this process's successful `set`, awaiting a
    /// grace period.
    pending_old: Option<u64>,
}

/// RCU-based solution to the Version Maintenance problem.
pub struct RcuVm {
    processes: usize,
    /// Current version's data token.
    v: CachePadded<AtomicU64>,
    /// Grace-period generation counter (starts at 1; 0 means quiescent).
    gen: CachePadded<AtomicU64>,
    /// Per-process announced generation.
    reader_gen: Box<[CachePadded<AtomicU64>]>,
    proc: PerProc<Proc>,
    counter: VersionCounter,
}

impl RcuVm {
    /// Create an instance for `processes` processes with `initial` as the
    /// first version's data token.
    pub fn new(processes: usize, initial: u64) -> Self {
        assert!(processes >= 1);
        RcuVm {
            processes,
            v: CachePadded::new(AtomicU64::new(initial)),
            gen: CachePadded::new(AtomicU64::new(1)),
            reader_gen: (0..processes)
                .map(|_| CachePadded::new(AtomicU64::new(QUIESCENT)))
                .collect(),
            proc: PerProc::new(processes, |_| Proc {
                acquired: 0,
                pending_old: None,
            }),
            counter: VersionCounter::with_initial(),
        }
    }

    /// Block until all read-side critical sections that existed at the
    /// start of this call have completed.
    fn synchronize(&self) {
        // GRACE_PERIOD_RMW: pinned SeqCst — orders the preceding version
        // CAS against the scan below (StoreLoad), on top of totally
        // ordering the generation chain readers announce against.
        let target = self.gen.fetch_add(1, GRACE_PERIOD_RMW) + 1;
        // SCAN_FENCE: pairs with read_lock's announce/validate fence.
        scan_fence();
        for slot in self.reader_gen.iter() {
            let mut spins = 0u32;
            loop {
                let g = slot.load(SCAN_LOAD);
                // A reader is past us if it is quiescent or entered after
                // the generation bump.
                if g == QUIESCENT || g >= target {
                    break;
                }
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl VersionMaintenance for RcuVm {
    fn processes(&self) -> usize {
        self.processes
    }

    fn acquire(&self, k: usize) -> u64 {
        // read_lock: publish our generation, then read the version. The
        // announce/validate fence orders the publish against
        // synchronize's scan, so either the writer waits for us or we
        // observe the new version.
        let g = self.gen.load(CLOCK_LOAD);
        self.reader_gen[k].store(g, ANNOUNCE_PUBLISH);
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
            unsafe { self.proc.with(k, |p| p.pending_old = Some(old)) };
            true
        } else {
            false
        }
    }

    fn release(&self, k: usize, out: &mut Vec<u64>) {
        // read_unlock first so our own read-side section never blocks our
        // own synchronize. ANNOUNCE_CLEAR: the waiting writer's SCAN_LOAD
        // acquires our whole read-side critical section.
        self.reader_gen[k].store(QUIESCENT, ANNOUNCE_CLEAR);
        let pending = unsafe { self.proc.with(k, |p| p.pending_old.take()) };
        if let Some(old) = pending {
            self.synchronize();
            self.counter.collected(1);
            out.push(old);
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
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::sync::Arc;

    #[test]
    fn writer_release_returns_old_version_immediately_when_no_readers() {
        let vm = RcuVm::new(2, 0);
        let mut out = Vec::new();
        for i in 1..=10u64 {
            vm.acquire(0);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
            assert_eq!(vm.uncollected_versions(), 1, "RCU keeps exactly 1");
        }
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn writer_blocks_until_reader_exits() {
        let vm = Arc::new(RcuVm::new(2, 0));
        let writer_done = Arc::new(AtomicBool::new(false));

        // Reader (process 1) pins version 0.
        vm.acquire(1);

        let vm2 = vm.clone();
        let done2 = writer_done.clone();
        let writer = std::thread::spawn(move || {
            let mut out = Vec::new();
            vm2.acquire(0);
            assert!(vm2.set(0, 1));
            vm2.release(0, &mut out); // must block on the reader
            done2.store(true, SeqCst);
            out
        });

        // Give the writer ample time to reach synchronize.
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(
            !writer_done.load(SeqCst),
            "RCU writer must block while a reader is in its critical section"
        );

        let mut out = Vec::new();
        vm.release(1, &mut out); // reader exits; grace period elapses
        assert!(out.is_empty(), "reader never returns versions under RCU");
        let collected = writer.join().unwrap();
        assert_eq!(collected, vec![0]);
        assert!(writer_done.load(SeqCst));
    }

    #[test]
    fn reader_entering_after_synchronize_does_not_block_it() {
        let vm = Arc::new(RcuVm::new(3, 0));
        // Process 1 reads, releases; then writer syncs: no blocking.
        vm.acquire(1);
        let mut out = Vec::new();
        vm.release(1, &mut out);
        vm.acquire(0);
        assert!(vm.set(0, 1));
        vm.release(0, &mut out);
        assert_eq!(out, vec![0]);
    }
}
