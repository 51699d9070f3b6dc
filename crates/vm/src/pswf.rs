//! The **PSWF** algorithm — Precise, Safe and Wait-Free Version Maintenance
//! (Algorithm 4 of the paper) — and its **PSLF** variant without helping.
//!
//! Data layout (Figure 3):
//!
//! * `v`  — the current version `V` (packed timestamp+index word);
//! * `s`  — the status array `S[3P+1]`: `⟨version, usable|pending|frozen⟩`
//!   or the distinguished `⟨empty, usable⟩`;
//! * `d`  — the data array `D[3P+1]`, indexed by `version.index`;
//! * `a`  — the announcement array `A[P]`: `⟨version, help⟩`.
//!
//! Cost bounds (Theorems 3.3–3.5): `acquire` is O(1), `set` and `release`
//! are O(P), the object is linearizable, and with a single writer every
//! operation has O(1)/O(P) amortized contention.
//!
//! ## Why 3P+1 slots
//!
//! At any moment at most `P` versions are acquired and at most `P`
//! candidate versions are being `set`, so at most `2P` slots are occupied;
//! with `3P+1` slots a setter that finds *no* empty slot must have been
//! concurrent with `P+1` slot claims, which pigeonholes into a process
//! running three sets concurrent with ours — one of which witnessed a
//! successful set overlapping ours, making the abort legal (Lemma B.10).
//! By the same count, slot-exhaustion aborts can occur only below `2P+1`,
//! and an ablation over `P+2`…`4P+1` slots (four writers, 2 cores)
//! measured the same commit rate and abort share at every size: `3P+1`
//! buys the proof, not speed.
//!
//! ## Deviations from the paper's pseudocode
//!
//! 1. Algorithm 4's `set` returns `false` from inside the helping phase
//!    (line 37) *without* clearing the `S` slot it claimed, yet the proof
//!    of Lemma B.10 relies on "an unsuccessful set operation clears its
//!    own slot before terminating" — without the clear, slots leak until
//!    `set` permanently fails. We clear the claimed slot on **every**
//!    abort path.
//! 2. Our `release` returns *data tokens* rather than version handles, so
//!    it must read `D[v.index]` — and it must do so **before** the final
//!    erase CAS on `S[v.index]`: the instant the slot is erased a
//!    concurrent `set` may claim it and overwrite `D`, and a post-erase
//!    read would hand the newcomer's data out for collection (caught by
//!    the multi-writer double-collect oracle in `tests/vm_stress.rs`).
//!
//! ## Memory orderings
//!
//! Every operation on the handshake words `V` / `S` / `A` uses the
//! pinned roles [`HANDSHAKE_CAS`] / [`HANDSHAKE_LOAD`] /
//! [`HANDSHAKE_STORE`] (`SeqCst` in both builds): Appendix B's
//! linearization argument orders all of Algorithm 4's CASes globally,
//! and both of `crate::ordering`'s irreducible StoreLoad windows occur
//! here (announce->validate in `acquire`, clear->scan in `release`). Only
//! the data array `D` — a pure payload side-channel carried by those
//! words — runs on the tunable [`DATA_SLOT`] role.

use mvcc_plm::CachePadded;
use std::sync::atomic::AtomicU64;

use crate::counter::VersionCounter;
use crate::ordering::{DATA_SLOT, HANDSHAKE_CAS, HANDSHAKE_LOAD, HANDSHAKE_STORE};
use crate::word::*;
use crate::VersionMaintenance;

/// Shared state of Algorithm 4, parameterised by whether `set` runs the
/// helping phase (PSWF) or not (PSLF).
struct Core {
    processes: usize,
    /// Global current version `V`.
    v: CachePadded<AtomicU64>,
    /// Status array `S[3P+1]`.
    s: Box<[CachePadded<AtomicU64>]>,
    /// Data array `D[3P+1]`.
    d: Box<[AtomicU64]>,
    /// Announcement array `A[P]`.
    a: Box<[CachePadded<AtomicU64>]>,
    counter: VersionCounter,
    /// CAS attempts that failed — each failure means another process's
    /// modifying operation responded on the same word during ours, i.e.
    /// one unit of contention in the §2 sense. Bumped only on failure
    /// (rare by Theorem 3.5), so the accounting is free on the hot path.
    /// `Relaxed` on both ends (stats only, never a decision): the
    /// counters slice of the relaxed-ordering audit — the state machine
    /// itself uses the pinned roles of [`crate::ordering`].
    cas_failures: AtomicU64,
}

impl Core {
    /// Record a CAS outcome for the contention accounting.
    #[inline]
    fn tally<T, E>(&self, r: Result<T, E>) -> Result<T, E> {
        if r.is_err() {
            self.cas_failures
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        r
    }
}

impl Core {
    fn new(processes: usize, initial: u64) -> Self {
        assert!(processes >= 1, "need at least one process");
        let slots = 3 * processes + 1;
        assert!(slots < IDX_MASK as usize, "too many slots");
        let core = Core {
            processes,
            v: CachePadded::new(AtomicU64::new(pack_ver(1, 0))),
            s: (0..slots)
                .map(|_| CachePadded::new(AtomicU64::new(EMPTY_USABLE)))
                .collect(),
            d: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            a: (0..processes)
                .map(|_| CachePadded::new(AtomicU64::new(EMPTY_ANNOUNCE)))
                .collect(),
            counter: VersionCounter::with_initial(),
            cas_failures: AtomicU64::new(0),
        };
        // Install the initial version ⟨ts=1, index=0⟩.
        core.s[0].store(pack_ver(1, 0) | USABLE, HANDSHAKE_STORE);
        core.d[0].store(initial, DATA_SLOT);
        core
    }

    #[inline]
    fn data_of(&self, ver: u64) -> u64 {
        // DATA_SLOT: the carrying word (V / A[k] / S[i], all pinned)
        // provides the synchronizes-with edge; see `ordering::DATA_SLOT`.
        self.d[idx_of(ver)].load(DATA_SLOT)
    }

    /// Algorithm 4 `acquire` (wait-free, O(1)): announce with the help flag
    /// raised, re-validate against `V`, commit by clearing the flag; retry
    /// at most twice, after which a helper must have committed for us.
    fn acquire_bounded(&self, k: usize) -> u64 {
        // HANDSHAKE_*: the announce->validate window below (store A[k],
        // then re-load V) is `ordering`'s StoreLoad pattern 1, and the
        // helping CASes are counted by Lemma B.2 in the global CAS
        // order — every access to V/A here is pinned.
        let mut u = self.v.load(HANDSHAKE_LOAD);
        self.a[k].store(u | HELP, HANDSHAKE_STORE);
        if u == self.v.load(HANDSHAKE_LOAD) {
            let _ =
                self.tally(self.a[k].compare_exchange(u | HELP, u, HANDSHAKE_CAS, HANDSHAKE_LOAD));
            return self.data_of(ver_of(self.a[k].load(HANDSHAKE_LOAD)));
        }
        for _ in 0..2 {
            let v = self.v.load(HANDSHAKE_LOAD);
            if self
                .tally(self.a[k].compare_exchange(
                    u | HELP,
                    v | HELP,
                    HANDSHAKE_CAS,
                    HANDSHAKE_LOAD,
                ))
                .is_err()
            {
                // Someone helped: use the committed version.
                return self.data_of(ver_of(self.a[k].load(HANDSHAKE_LOAD)));
            }
            if v == self.v.load(HANDSHAKE_LOAD) {
                let _ = self.tally(self.a[k].compare_exchange(
                    v | HELP,
                    v,
                    HANDSHAKE_CAS,
                    HANDSHAKE_LOAD,
                ));
                return self.data_of(ver_of(self.a[k].load(HANDSHAKE_LOAD)));
            }
            u = v;
        }
        // Two version changes occurred during this acquire; Lemma B.2
        // guarantees a helping CAS has committed A[k] by now.
        self.data_of(ver_of(self.a[k].load(HANDSHAKE_LOAD)))
    }

    /// PSLF `acquire` (lock-free): same announce/validate/commit protocol
    /// but retries unboundedly — without the setters' helping phase there
    /// is no bound on how often `V` can slip away. Release-side helping
    /// (the pending phase) may still commit for us mid-retry, in which case
    /// we must use the committed version to keep collection precise.
    fn acquire_unbounded(&self, k: usize) -> u64 {
        // HANDSHAKE_*: same announce->validate window as the bounded
        // variant; all V/A accesses pinned.
        let mut u = self.v.load(HANDSHAKE_LOAD);
        self.a[k].store(u | HELP, HANDSHAKE_STORE);
        loop {
            if u == self.v.load(HANDSHAKE_LOAD) {
                let _ = self.tally(self.a[k].compare_exchange(
                    u | HELP,
                    u,
                    HANDSHAKE_CAS,
                    HANDSHAKE_LOAD,
                ));
                return self.data_of(ver_of(self.a[k].load(HANDSHAKE_LOAD)));
            }
            let v = self.v.load(HANDSHAKE_LOAD);
            if self
                .tally(self.a[k].compare_exchange(
                    u | HELP,
                    v | HELP,
                    HANDSHAKE_CAS,
                    HANDSHAKE_LOAD,
                ))
                .is_err()
            {
                return self.data_of(ver_of(self.a[k].load(HANDSHAKE_LOAD)));
            }
            u = v;
        }
    }

    /// Algorithm 4 `set`: claim a status slot for the candidate version,
    /// optionally help pending acquires, then CAS the global version.
    fn set(&self, k: usize, data: u64, helping: bool) -> bool {
        let announced = self.a[k].load(HANDSHAKE_LOAD);
        debug_assert!(
            !has_help(announced) && ver_of(announced) != EMPTY_VER,
            "set({k}) without a committed acquire"
        );
        let old_ver = ver_of(announced);

        // Find an empty slot for the candidate version.
        let slots = self.s.len();
        let mut claimed = usize::MAX;
        let mut new_ver = 0u64;
        for i in 0..slots {
            if self.s[i].load(HANDSHAKE_LOAD) == EMPTY_USABLE {
                let ts = ts_of(self.v.load(HANDSHAKE_LOAD)) + 1;
                let cand = pack_ver(ts, i);
                if self
                    .tally(self.s[i].compare_exchange(
                        EMPTY_USABLE,
                        cand | USABLE,
                        HANDSHAKE_CAS,
                        HANDSHAKE_LOAD,
                    ))
                    .is_ok()
                {
                    // DATA_SLOT: exclusive while we hold the claim CAS;
                    // published to readers by the V CAS below.
                    self.d[i].store(data, DATA_SLOT);
                    claimed = i;
                    new_ver = cand;
                    break;
                }
            }
        }
        if claimed == usize::MAX {
            // All 3P+1 slots occupied: legal abort (see module docs).
            return false;
        }

        if helping {
            // Help every process with a raised help flag, up to 3 times —
            // an acquire can thwart at most two helping CASes, so the
            // third is guaranteed to commit (proof of Lemma B.2).
            for i in 0..self.processes {
                for _ in 0..3 {
                    let a = self.a[i].load(HANDSHAKE_LOAD);
                    if has_help(a) {
                        if old_ver != self.v.load(HANDSHAKE_LOAD) {
                            // Our own set can no longer succeed; clear the
                            // claimed slot (paper fix, see module docs).
                            self.s[claimed].store(EMPTY_USABLE, HANDSHAKE_STORE);
                            return false;
                        }
                        let _ = self.tally(self.a[i].compare_exchange(
                            a,
                            old_ver,
                            HANDSHAKE_CAS,
                            HANDSHAKE_LOAD,
                        ));
                    }
                }
            }
        }

        if self
            .tally(
                self.v
                    .compare_exchange(old_ver, new_ver, HANDSHAKE_CAS, HANDSHAKE_LOAD),
            )
            .is_ok()
        {
            self.counter.created();
            true
        } else {
            self.s[claimed].store(EMPTY_USABLE, HANDSHAKE_STORE);
            false
        }
    }

    /// Algorithm 4 `release`: clear the announcement; if the released
    /// version is dead, race through the usable→pending→frozen status
    /// protocol to decide the unique last releaser.
    fn release(&self, k: usize, out: &mut Vec<u64>) {
        let v = ver_of(self.a[k].load(HANDSHAKE_LOAD));
        // HANDSHAKE_STORE: this clear opens `ordering`'s StoreLoad
        // window 2 (clear -> scan): two racing releasers that each missed
        // the other's clear would both bail out and leak `v`, so the
        // clear must take part in the SC total order.
        self.a[k].store(EMPTY_ANNOUNCE, HANDSHAKE_STORE);
        if v == EMPTY_VER {
            return; // release without acquire (tolerated defensively)
        }
        if v == self.v.load(HANDSHAKE_LOAD) {
            return; // still the current version: live
        }
        let idx = idx_of(v);
        let mut s = self.s[idx].load(HANDSHAKE_LOAD);
        if ver_of(s) != v {
            return; // slot already recycled: another release returned v
        }
        if status_of(s) == USABLE {
            if self
                .tally(self.s[idx].compare_exchange(s, v | PENDING, HANDSHAKE_CAS, HANDSHAKE_LOAD))
                .is_err()
            {
                return; // another releaser owns the pending phase
            }
            // Pending phase: commit anyone who announced v with help up —
            // after this, no process can ever commit v again.
            for i in 0..self.processes {
                let a = self.a[i].load(HANDSHAKE_LOAD);
                if a == (v | HELP) {
                    let _ =
                        self.tally(self.a[i].compare_exchange(a, v, HANDSHAKE_CAS, HANDSHAKE_LOAD));
                }
            }
            s = v | FROZEN;
            self.s[idx].store(s, HANDSHAKE_STORE);
        }
        if status_of(s) == FROZEN {
            for i in 0..self.processes {
                if self.a[i].load(HANDSHAKE_LOAD) == v {
                    return; // committed holder still using v
                }
            }
            // Read v's data token BEFORE erasing the slot: the moment the
            // erase CAS lands, a concurrent set may claim slot `idx` and
            // overwrite D[idx] with its candidate's data — reading after
            // the erase can hand the *candidate's* token out for
            // collection (a double collect once that version dies). While
            // S[idx] still holds ⟨v, frozen⟩ the slot cannot be reused,
            // so this read is v's data for certain.
            // DATA_SLOT: cannot read a post-erase claimant's write — that
            // write happens-after the erase CAS below, which is sequenced
            // after this load (see `ordering::DATA_SLOT`).
            let data = self.d[idx].load(DATA_SLOT);
            if self
                .tally(self.s[idx].compare_exchange(s, EMPTY_USABLE, HANDSHAKE_CAS, HANDSHAKE_LOAD))
                .is_ok()
            {
                // We won the erase race: unique last releaser of v.
                self.counter.collected(1);
                out.push(data);
            }
        }
        // status == pending: another releaser is mid-scan; return nothing.
    }
}

/// The paper's wait-free algorithm (Algorithm 4): precise, safe, O(1)
/// `acquire`, O(P) `set`/`release`, O(1) amortized contention for readers
/// in the single-writer setting.
pub struct PswfVm {
    core: Core,
}

impl PswfVm {
    /// Create an instance for `processes` processes whose initial current
    /// version carries `initial` as its data token.
    pub fn new(processes: usize, initial: u64) -> Self {
        PswfVm {
            core: Core::new(processes, initial),
        }
    }

    /// Contention accounting: CAS failures summed over all operations so
    /// far. Each failed CAS means another process's modifying operation
    /// responded on the same word during ours — one unit of contention in
    /// the §2 sense. `tests/vm_stress.rs::single_writer_contention_is_bounded_by_the_op_count`
    /// checks Theorem 3.5's single-writer setting against it: the writer
    /// never aborts and failures never outnumber operations.
    pub fn cas_failures(&self) -> u64 {
        self.core
            .cas_failures
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl VersionMaintenance for PswfVm {
    fn processes(&self) -> usize {
        self.core.processes
    }
    fn acquire(&self, k: usize) -> u64 {
        self.core.acquire_bounded(k)
    }
    fn set(&self, k: usize, data: u64) -> bool {
        self.core.set(k, data, true)
    }
    fn release(&self, k: usize, out: &mut Vec<u64>) {
        self.core.release(k, out)
    }
    fn current(&self) -> u64 {
        self.core.data_of(ver_of(self.core.v.load(HANDSHAKE_LOAD)))
    }
    fn uncollected_versions(&self) -> u64 {
        self.core.counter.uncollected()
    }
}

/// PSWF without the setters' helping phase (§7.1's "PSLF"): still precise
/// and safe — the release-side pending phase keeps committing stragglers —
/// but `acquire` degrades from wait-free to lock-free (unbounded retries
/// under a storm of successful sets).
pub struct PslfVm {
    core: Core,
}

impl PslfVm {
    /// Create an instance for `processes` processes whose initial current
    /// version carries `initial` as its data token.
    pub fn new(processes: usize, initial: u64) -> Self {
        PslfVm {
            core: Core::new(processes, initial),
        }
    }

    /// Contention accounting — see [`PswfVm::cas_failures`].
    pub fn cas_failures(&self) -> u64 {
        self.core
            .cas_failures
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl VersionMaintenance for PslfVm {
    fn processes(&self) -> usize {
        self.core.processes
    }
    fn acquire(&self, k: usize) -> u64 {
        self.core.acquire_unbounded(k)
    }
    fn set(&self, k: usize, data: u64) -> bool {
        self.core.set(k, data, false)
    }
    fn release(&self, k: usize, out: &mut Vec<u64>) {
        self.core.release(k, out)
    }
    fn current(&self) -> u64 {
        self.core.data_of(ver_of(self.core.v.load(HANDSHAKE_LOAD)))
    }
    fn uncollected_versions(&self) -> u64 {
        self.core.counter.uncollected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<V: VersionMaintenance>(vm: &V) {
        let mut out = Vec::new();
        // Interleave two acquirers and a writer, sequentially.
        assert_eq!(vm.acquire(0), 7);
        assert_eq!(vm.acquire(1), 7);
        assert!(vm.set(0, 8));
        vm.release(0, &mut out);
        assert!(out.is_empty(), "reader 1 still holds version 7");
        vm.release(1, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn pswf_basic() {
        drive(&PswfVm::new(3, 7));
    }

    #[test]
    fn pslf_basic() {
        drive(&PslfVm::new(3, 7));
    }

    #[test]
    fn release_without_set_returns_nothing_while_current() {
        let vm = PswfVm::new(2, 1);
        let mut out = Vec::new();
        assert_eq!(vm.acquire(0), 1);
        vm.release(0, &mut out);
        assert!(out.is_empty(), "current version must stay uncollected");
        assert_eq!(vm.uncollected_versions(), 1);
    }

    #[test]
    fn repeated_acquire_release_reuses_announcement() {
        let vm = PswfVm::new(1, 0);
        let mut out = Vec::new();
        for i in 1..=100u64 {
            assert_eq!(vm.acquire(0), i - 1);
            assert!(vm.set(0, i));
            vm.release(0, &mut out);
        }
        assert_eq!(out.len(), 100);
        assert_eq!(vm.current(), 100);
        assert_eq!(vm.uncollected_versions(), 1);
    }

    #[test]
    fn status_slots_recycle_under_long_run() {
        // 3P+1 = 4 slots; 1000 rounds must recycle them constantly.
        let vm = PswfVm::new(1, 0);
        let mut out = Vec::new();
        for i in 1..=1000u64 {
            vm.acquire(0);
            assert!(vm.set(0, i), "set must keep finding empty slots");
            vm.release(0, &mut out);
        }
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn failed_set_clears_slot_and_can_retry() {
        let vm = PswfVm::new(2, 0);
        let mut out = Vec::new();
        // Both acquire the same version; p0 wins, p1 aborts, then p1
        // retries with a fresh acquire and succeeds.
        vm.acquire(0);
        vm.acquire(1);
        assert!(vm.set(0, 1));
        assert!(!vm.set(1, 2));
        vm.release(1, &mut out);
        vm.release(0, &mut out);
        assert_eq!(out, vec![0]);
        // Retry: many rounds to prove the aborted set leaked no slot.
        for i in 0..50u64 {
            vm.acquire(1);
            assert!(vm.set(1, 10 + i));
            vm.release(1, &mut out);
        }
        assert_eq!(vm.current(), 59);
    }

    #[test]
    fn distinct_tokens_never_collected_twice_two_writers() {
        // Alternating writers; every dead token returned exactly once.
        let vm = PswfVm::new(2, 0);
        let mut collected = Vec::new();
        for round in 0..200u64 {
            let k = (round % 2) as usize;
            let token = round + 1;
            vm.acquire(k);
            assert!(vm.set(k, token));
            vm.release(k, &mut collected);
        }
        let mut sorted = collected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), collected.len());
        assert_eq!(collected.len(), 200); // all but the current version
    }

    #[test]
    fn uncollected_matches_holders() {
        let vm = PswfVm::new(4, 0);
        let mut out = Vec::new();
        // Three readers pin three distinct versions.
        vm.acquire(1);
        vm.acquire(0);
        assert!(vm.set(0, 1));
        vm.release(0, &mut out);
        vm.acquire(2);
        vm.acquire(0);
        assert!(vm.set(0, 2));
        vm.release(0, &mut out);
        assert!(out.is_empty(), "versions 0 and 1 still held");
        assert_eq!(vm.uncollected_versions(), 3); // v0, v1, current v2
        vm.release(1, &mut out);
        assert_eq!(out, vec![0]);
        vm.release(2, &mut out);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(vm.uncollected_versions(), 1);
    }
}
