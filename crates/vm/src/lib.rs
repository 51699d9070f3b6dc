//! # mvcc-vm — the Version Maintenance problem and its solutions
//!
//! The *Version Maintenance (VM) problem* (§3 of the paper) abstracts what a
//! multiversion transactional system needs in order to enter and exit
//! transactions: a linearizable object with three operations, each invoked
//! with the calling process id `k` (operations with the same `k` never run
//! concurrently, and each `acquire(k)` is followed by a `release(k)` with at
//! most one `set(k, ·)` in between):
//!
//! * `acquire(k) -> data`  — returns the current version's data pointer and
//!   guarantees it cannot be collected while held;
//! * `set(k, data) -> bool` — makes `data` the current version; may fail
//!   only if a successful `set` happened since this process's `acquire`;
//! * `release(k) -> [data]` — gives up the acquired version and returns the
//!   versions that thereby stop being *live* (current, or acquired and not
//!   released). In a **precise** solution the returned list is a singleton
//!   exactly when the releasing process was the last holder.
//!
//! Five implementations matching the paper's §3.1, §6 and §7.1 evaluation,
//! plus one extension ([`IntervalVm`]) from the §6 pointer to IBR \[63\]:
//!
//! | Type | Precise | Progress | acquire | set | release | relaxed-audit |
//! |------|---------|----------|---------|-----|---------|---------------|
//! | [`PswfVm`]   | yes | wait-free           | O(1) | O(P) | O(P) | handshake pinned `SeqCst`; data array relaxed |
//! | [`PslfVm`]   | yes | lock-free (no helping) | unbounded retries | O(P) | O(P) | handshake pinned `SeqCst`; data array relaxed |
//! | [`HazardVm`] | no (≤ 2P retired) | non-blocking readers | O(1) expected | O(1) | amortized O(1) | acq/rel + announce/scan fences |
//! | [`EpochVm`]  | no (unbounded)     | non-blocking | O(1) | O(1) | O(P) on epoch close | acq/rel + announce/scan fences |
//! | [`RcuVm`]    | yes (≤ 1 old) | **writers block on readers** | O(1) | O(1) | O(readers) blocking | acq/rel + fences; grace RMW pinned |
//! | [`IntervalVm`] | no (≤ 2P + pinned intervals) | non-blocking | O(1) expected | O(1) | amortized O(1) | acq/rel + announce/scan fences |
//!
//! (The last column summarizes each algorithm's position after the
//! relaxed-ordering audit; `strict-sc` collapses every tunable entry
//! back to `SeqCst`.)
//!
//! Data pointers are opaque `u64` tokens (`mvcc-core` stores version-root
//! node ids in them); [`NIL_DATA`] is the "no data" token of the initial
//! version when a system starts empty.
//!
//! ## Memory-ordering contract
//!
//! The paper's model is a sequentially consistent shared memory, and the
//! seed reproduction used `SeqCst` everywhere for fidelity. That audit
//! is now complete: every atomic site in this crate names a **role**
//! from the [`ordering`] vocabulary module, which documents one pairing
//! argument per role instead of ad-hoc per-site reasoning. Hot-path
//! announcement traffic runs on acquire/release (plus two explicit
//! `SeqCst` fences where a StoreLoad edge is irreducible), while the
//! sites whose proofs genuinely need a total store order — Algorithm 4's
//! handshake words, whose Appendix B linearization argument orders all
//! of its CASes globally, and the RCU grace-period RMW — stay pinned at
//! `SeqCst` in every build.
//!
//! Building with the **`strict-sc`** feature maps every tunable role
//! back to `SeqCst` (the explicit fences remain), restoring the paper's
//! memory model wholesale. Use it as the safe harbor when auditing the
//! algorithms against the proofs, or to measure what the relaxed
//! orderings buy: build the system benchmark (`benchmark/README.md`)
//! once as is and once with `--features mvcc-vm/strict-sc`, and compare
//! the traced `vm.acquire_ns` / `vm.set_ns` / `vm.release_ns` rows.

//! ## Example
//!
//! ```
//! use mvcc_vm::{PswfVm, VersionMaintenance};
//!
//! let vm = PswfVm::new(2, 100); // 2 processes, initial data token 100
//!
//! // Reader (process 1) pins the current version.
//! assert_eq!(vm.acquire(1), 100);
//!
//! // Writer (process 0) installs a new version.
//! vm.acquire(0);
//! assert!(vm.set(0, 200));
//! let mut dead = Vec::new();
//! vm.release(0, &mut dead);
//! assert!(dead.is_empty(), "reader still holds version 100");
//!
//! // The reader's release is the last: precise collection hands back
//! // exactly the dead version.
//! vm.release(1, &mut dead);
//! assert_eq!(dead, vec![100]);
//! ```

mod counter;
mod epoch;
mod hazard;
mod interval;
mod lease;
pub mod ordering;
mod pswf;
mod rcu;
mod util;
mod word;

pub use counter::VersionCounter;
pub use epoch::EpochVm;
pub use hazard::HazardVm;
pub use interval::IntervalVm;
pub use lease::{LeaseError, PidPool};
pub use pswf::{PslfVm, PswfVm};
pub use rcu::RcuVm;

/// The "no data" token used for the initial version of an empty system.
/// (In `mvcc-core` this is the nil tree root.)
pub const NIL_DATA: u64 = u64::MAX - 1;

/// A solution to the Version Maintenance problem (§3).
///
/// # Contract
/// * `k < processes()`.
/// * Operations with the same `k` are never invoked concurrently, and per
///   process follow the pattern `acquire (set)? release` — exactly the
///   usage of Figure 1's transactions. Behaviour is unspecified otherwise
///   (the paper leaves it undefined; our implementations assert in debug
///   builds where cheap).
/// * `release` appends collectable data tokens to `out` instead of
///   allocating a fresh list; precise implementations append at most one.
pub trait VersionMaintenance: Send + Sync {
    /// Number of processes `P` this instance was constructed for.
    fn processes(&self) -> usize;

    /// Return the current version's data token, pinned against collection.
    fn acquire(&self, k: usize) -> u64;

    /// Try to install `data` as the current version. Returns `false` only
    /// if a successful `set` intervened since this process's `acquire`
    /// (1-abortability-style condition, §3).
    fn set(&self, k: usize, data: u64) -> bool;

    /// Release the acquired version; appends the data tokens of versions
    /// that are no longer live (and thus safe to collect) to `out`.
    fn release(&self, k: usize, out: &mut Vec<u64>);

    /// The current version's data token (diagnostic; not an acquire).
    fn current(&self) -> u64;

    /// Number of versions created and not yet handed back for collection
    /// (includes the current version). This is the "live versions" series
    /// of Table 2 / Figure 6.
    fn uncollected_versions(&self) -> u64;
}

impl<V: VersionMaintenance + ?Sized> VersionMaintenance for Box<V> {
    fn processes(&self) -> usize {
        (**self).processes()
    }
    fn acquire(&self, k: usize) -> u64 {
        (**self).acquire(k)
    }
    fn set(&self, k: usize, data: u64) -> bool {
        (**self).set(k, data)
    }
    fn release(&self, k: usize, out: &mut Vec<u64>) {
        (**self).release(k, out)
    }
    fn current(&self) -> u64 {
        (**self).current()
    }
    fn uncollected_versions(&self) -> u64 {
        (**self).uncollected_versions()
    }
}

impl<V: VersionMaintenance + ?Sized> VersionMaintenance for std::sync::Arc<V> {
    fn processes(&self) -> usize {
        (**self).processes()
    }
    fn acquire(&self, k: usize) -> u64 {
        (**self).acquire(k)
    }
    fn set(&self, k: usize, data: u64) -> bool {
        (**self).set(k, data)
    }
    fn release(&self, k: usize, out: &mut Vec<u64>) {
        (**self).release(k, out)
    }
    fn current(&self) -> u64 {
        (**self).current()
    }
    fn uncollected_versions(&self) -> u64 {
        (**self).uncollected_versions()
    }
}

/// Identifier for the algorithm families — used by the experiment
/// harnesses to sweep over algorithms (Table 2, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmKind {
    /// Precise, safe, wait-free (Algorithm 4).
    Pswf,
    /// PSWF without helping: precise, lock-free.
    Pslf,
    /// Hazard-pointer based (imprecise).
    Hazard,
    /// Epoch based (imprecise).
    Epoch,
    /// Read-copy-update based (precise, blocking writer).
    Rcu,
    /// Interval-based reclamation (imprecise; §6 extension, IBR \[63\]).
    Interval,
}

impl VmKind {
    /// The paper's five algorithms, in the order its tables list them.
    pub const PAPER: [VmKind; 5] = [
        VmKind::Pswf,
        VmKind::Pslf,
        VmKind::Hazard,
        VmKind::Epoch,
        VmKind::Rcu,
    ];

    /// All algorithms including the IBR extension.
    pub const ALL: [VmKind; 6] = [
        VmKind::Pswf,
        VmKind::Pslf,
        VmKind::Hazard,
        VmKind::Epoch,
        VmKind::Rcu,
        VmKind::Interval,
    ];

    /// Table/figure label.
    pub fn name(self) -> &'static str {
        match self {
            VmKind::Pswf => "PSWF",
            VmKind::Pslf => "PSLF",
            VmKind::Hazard => "HP",
            VmKind::Epoch => "EP",
            VmKind::Rcu => "RCU",
            VmKind::Interval => "IBR",
        }
    }

    /// Whether the algorithm guarantees precise garbage collection.
    pub fn is_precise(self) -> bool {
        matches!(self, VmKind::Pswf | VmKind::Pslf | VmKind::Rcu)
    }

    /// Instantiate for `processes` processes with `initial` as the first
    /// current version's data token.
    pub fn build(self, processes: usize, initial: u64) -> Box<dyn VersionMaintenance> {
        match self {
            VmKind::Pswf => Box::new(PswfVm::new(processes, initial)),
            VmKind::Pslf => Box::new(PslfVm::new(processes, initial)),
            VmKind::Hazard => Box::new(HazardVm::new(processes, initial)),
            VmKind::Epoch => Box::new(EpochVm::new(processes, initial)),
            VmKind::Rcu => Box::new(RcuVm::new(processes, initial)),
            VmKind::Interval => Box::new(IntervalVm::new(processes, initial)),
        }
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn kind_metadata() {
        assert_eq!(VmKind::PAPER.len(), 5);
        assert_eq!(VmKind::ALL.len(), 6);
        assert!(VmKind::Pswf.is_precise());
        assert!(VmKind::Pslf.is_precise());
        assert!(VmKind::Rcu.is_precise());
        assert!(!VmKind::Hazard.is_precise());
        assert!(!VmKind::Epoch.is_precise());
        assert!(!VmKind::Interval.is_precise());
        assert_eq!(VmKind::Pswf.name(), "PSWF");
        assert_eq!(VmKind::Interval.name(), "IBR");
    }

    /// The sequential specification (§3 / Appendix A) holds for every
    /// algorithm when driven sequentially.
    #[test]
    fn sequential_specification_all_kinds() {
        for kind in VmKind::ALL {
            let vm = kind.build(4, 100);
            let mut out = Vec::new();

            // acquire returns current version.
            assert_eq!(vm.acquire(0), 100, "{kind:?}");
            // set makes the new version current.
            assert!(vm.set(0, 200), "{kind:?}");
            assert_eq!(vm.current(), 200, "{kind:?}");
            vm.release(0, &mut out);
            // Version 100 is dead: a precise algorithm returns it now.
            if kind.is_precise() {
                assert_eq!(out, vec![100], "{kind:?} must return dead version");
            }

            // A reader holding the old version delays collection.
            out.clear();
            assert_eq!(vm.acquire(1), 200, "{kind:?}");
            assert_eq!(vm.acquire(2), 200, "{kind:?}");
            assert!(vm.set(2, 300), "{kind:?}");
            if kind == VmKind::Rcu {
                // RCU's post-set release *blocks* until the reader exits
                // (the paper's critique of RCU) — drive it from another
                // thread and let the reader unblock it.
                std::thread::scope(|s| {
                    let writer = s.spawn(|| {
                        let mut o = Vec::new();
                        vm.release(2, &mut o);
                        o
                    });
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    let mut o1 = Vec::new();
                    vm.release(1, &mut o1);
                    assert!(o1.is_empty(), "RCU readers never return versions");
                    let o = writer.join().unwrap();
                    assert_eq!(o, vec![200], "RCU writer reclaims after grace period");
                });
            } else {
                vm.release(2, &mut out);
                if kind.is_precise() {
                    assert!(out.is_empty(), "{kind:?}: p1 still holds 200, got {out:?}");
                }
                vm.release(1, &mut out);
                if kind.is_precise() {
                    assert_eq!(out, vec![200], "{kind:?}: last holder returns 200");
                }
            }

            // Current version is never handed out for collection.
            assert!(!out.contains(&300), "{kind:?}");
        }
    }

    /// A set with a stale acquire must abort once another set succeeded.
    #[test]
    fn stale_set_aborts() {
        for kind in VmKind::ALL {
            let vm = kind.build(4, 0);
            let mut out = Vec::new();
            assert_eq!(vm.acquire(0), 0);
            assert_eq!(vm.acquire(1), 0);
            assert!(vm.set(0, 1), "{kind:?}");
            assert!(!vm.set(1, 2), "{kind:?}: concurrent-success must abort");
            // Release the reader first: RCU's post-set release blocks
            // until all read-side critical sections exit.
            vm.release(1, &mut out);
            vm.release(0, &mut out);
            assert_eq!(vm.current(), 1, "{kind:?}");
        }
    }

    /// Each dead version token is returned at most once across releases.
    #[test]
    fn no_double_collect_sequential() {
        for kind in VmKind::ALL {
            let vm = kind.build(3, 0);
            let mut all = Vec::new();
            for round in 1..=50u64 {
                let mut out = Vec::new();
                vm.acquire(0);
                assert!(vm.set(0, round));
                vm.release(0, &mut out);
                all.extend(out);
            }
            let mut sorted = all.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), all.len(), "{kind:?}: duplicate collection");
            assert!(!all.contains(&50), "{kind:?}: current version collected");
        }
    }

    /// Precise algorithms leave exactly one uncollected version (the
    /// current one) in quiescence; HP/EP are allowed to lag.
    #[test]
    fn quiescent_precision() {
        for kind in VmKind::ALL {
            let vm = kind.build(2, 0);
            let mut out = Vec::new();
            for round in 1..=20u64 {
                vm.acquire(0);
                assert!(vm.set(0, round));
                vm.release(0, &mut out);
            }
            if kind.is_precise() {
                assert_eq!(vm.uncollected_versions(), 1, "{kind:?}");
            } else {
                assert!(vm.uncollected_versions() >= 1, "{kind:?}");
            }
        }
    }
}
