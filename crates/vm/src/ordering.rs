//! The memory-ordering vocabulary of the VM state machines.
//!
//! The paper assumes a sequentially consistent shared memory, and the
//! seed reproduction honoured that by using `SeqCst` for every atomic
//! operation in this crate. On x86 every `SeqCst` *store* compiles to a
//! locked instruction (an `xchg` or a trailing `mfence`), so each
//! `acquire`/`set`/`release` — the per-transaction entry/exit cost §3's
//! Version Maintenance problem is designed to minimize — paid full-fence
//! tax on every announcement write. On ARM-class memory models the tax is
//! higher still (`dmb ish` pairs around every access).
//!
//! This module completes the relaxed-ordering audit the ROADMAP left
//! open. Instead of annotating ~110 sites one by one, every atomic site
//! in the crate now names a **role** from this vocabulary, and each role
//! carries its pairing argument here, once. Roles come in two classes:
//!
//! * **Tunable roles** are `Acquire`/`Release`/`Relaxed` by default and
//!   are mapped back to `SeqCst` when the crate is built with the
//!   `strict-sc` feature — the paper-fidelity safe harbor. Their
//!   correctness arguments below therefore only need to hold for the
//!   *default* build; the strict build is trivially a superset.
//! * **Pinned roles** are `SeqCst` (or an explicit `fence(SeqCst)`) in
//!   *both* builds, because the algorithm's proof genuinely needs a
//!   total order that acquire/release cannot express. Each pinned role
//!   documents its proof obligation.
//!
//! # The two store-load windows that cannot be weakened
//!
//! Two patterns in this crate fundamentally require sequential
//! consistency (a `StoreLoad` barrier), and reappear across the
//! algorithms:
//!
//! 1. **Announce → validate** (hazard pointers, epochs, RCU
//!    read-lock, and Algorithm 4's `acquire`): a reader publishes an
//!    announcement and then re-reads shared state to validate it. The
//!    announcement store must be globally visible *before* the validate
//!    load executes, otherwise a concurrent reclaimer can scan the
//!    announcement array, miss the announcement, and free the version
//!    the reader just validated. Acquire/release cannot order an earlier
//!    store against a later load; only `SeqCst` accesses or a `SeqCst`
//!    fence can.
//! 2. **Clear → scan** (Algorithm 4's `release`): a releaser clears its
//!    own announcement and then scans everyone else's to decide whether
//!    it is the unique last holder. Two racing releasers that each miss
//!    the other's clear would *both* bail out and leak the version —
//!    breaking precision (Theorem 3.3), not just performance. The SC
//!    total order guarantees the last releaser's scan sees every earlier
//!    clear.
//!
//! Pattern 1 is expressed with a tunable announcement store **plus the
//! unconditional [`announce_validate_fence`]**, mirroring the idiom of
//! production reclamation libraries (crossbeam-epoch's `pin`, folly's
//! hazptr): a relaxed announce followed by a `SeqCst` fence costs one
//! fence, where a `SeqCst` store followed by the same fence (the
//! `strict-sc` build) costs two. The reclaimer side pairs with it
//! through [`scan_fence`]. Pattern 2 has no fence decomposition that
//! beats plain `SeqCst` stores, so Algorithm 4's handshake words are
//! pinned wholesale (see [`HANDSHAKE_CAS`]).
//!
//! # Fence-pairing argument (pattern 1)
//!
//! Let the reader do `A.store(x, ANNOUNCE_PUBLISH); F1 =
//! announce_validate_fence(); V.load(VERSION_LOAD)` and the reclaimer do
//! `retire V (an RMW); F2 = scan_fence(); A.load(SCAN_LOAD)`. `SeqCst`
//! fences are totally ordered. If `F1 < F2`, the reclaimer's scan
//! observes the announcement (C++ [atomics.fences]: store before `F1`,
//! load after `F2`) and conservatively keeps the version. If `F2 < F1`,
//! the reader's validate load observes the retirement (same rule, other
//! direction) and the validation fails/retries, so the reader never
//! relies on the missed announcement. Either way: no use-after-free.
//! The same two-case argument covers the epoch announce vs.
//! epoch-advance scan and the RCU generation announce vs. grace-period
//! scan; the per-site
//! comments cite this section rather than repeating it.

#![allow(unused)] // each role is used by a subset of the algorithms

use std::sync::atomic::{fence, Ordering};

/// `true` when the crate is built in paper-fidelity mode (`strict-sc`):
/// every tunable role below reads as `SeqCst`. A measurement that
/// compares the two regimes can record it to say which one it ran.
pub const STRICT_SC: bool = cfg!(feature = "strict-sc");

macro_rules! tunable {
    ($(#[$doc:meta])* $name:ident = $weak:ident) => {
        $(#[$doc])*
        ///
        /// *Tunable role: shown ordering by default, `SeqCst` under
        /// `strict-sc`.*
        pub const $name: Ordering = if STRICT_SC {
            Ordering::SeqCst
        } else {
            Ordering::$weak
        };
    };
}

// ---------------------------------------------------------------------
// Version word (the current-version pointer `V` of HP/EP/RCU).
// ---------------------------------------------------------------------

tunable! {
    /// **`Acquire`** — load of a current-version word whose value the
    /// caller will dereference (data tokens carry `mvcc-core` root node
    /// ids). Pairs with [`VERSION_CAS`]'s release on the publishing
    /// store: everything the successful setter wrote before its `set`
    /// (the new version's tree nodes) happens-before the reader's use.
    VERSION_LOAD = Acquire
}

tunable! {
    /// **`AcqRel`** — the CAS that installs a new current version.
    /// Release on success publishes the version's payload to
    /// [`VERSION_LOAD`]ers; acquire orders the setter after the previous
    /// publisher (the RMW also extends the predecessor's release
    /// sequence, so readers that load any later value still synchronize
    /// with every earlier setter).
    VERSION_CAS = AcqRel
}

tunable! {
    /// **`Acquire`** — the failure ordering of every tunable CAS in the
    /// crate. The loaded value either feeds a retry (which re-validates
    /// through the success ordering) or an abort decision that the VM
    /// contract already allows to be conservative.
    CAS_FAILURE = Acquire
}

// ---------------------------------------------------------------------
// Announcements (hazard slots, epoch/generation announcements) and the
// reclamation scans that read them.
// ---------------------------------------------------------------------

tunable! {
    /// **`Relaxed`** — a reader publishing its protection announcement
    /// (hazard slot, announced epoch, reserved era, RCU generation).
    /// **Must** be followed by [`announce_validate_fence`] before the
    /// validate load; the fence, not the store, provides the StoreLoad
    /// edge (see the module docs' pairing argument).
    ANNOUNCE_PUBLISH = Relaxed
}

tunable! {
    /// **`Release`** — a reader withdrawing its announcement on
    /// `release` (hazard slot → `IDLE`, epoch/generation → quiescent,
    /// reservation → idle). Release pairs with the reclaimer's
    /// [`SCAN_LOAD`] acquire: every use the reader made of the protected
    /// version happens-before a scan that observes the withdrawal, so
    /// the scan may free the version. A scan that instead sees the stale
    /// announcement merely keeps the version another round —
    /// conservative, and for the imprecise algorithms (HP/EP)
    /// bounded by their existing imprecision budget. (Algorithm 4's
    /// clear is *not* this role — precision makes its clear a pinned
    /// StoreLoad window, see [`HANDSHAKE_CAS`].)
    ANNOUNCE_CLEAR = Release
}

tunable! {
    /// **`Acquire`** — a reclamation scan reading the announcement /
    /// reservation / generation array. Pairs with [`ANNOUNCE_CLEAR`]
    /// (quit-protection edge) and, through [`scan_fence`] /
    /// [`announce_validate_fence`], with [`ANNOUNCE_PUBLISH`]. Every
    /// scan loop must execute [`scan_fence`] once before its first
    /// `SCAN_LOAD`.
    SCAN_LOAD = Acquire
}

// ---------------------------------------------------------------------
// Logical clocks (the epoch counter, the RCU generation).
// ---------------------------------------------------------------------

tunable! {
    /// **`Acquire`** — reading a logical clock (epoch / generation) to
    /// announce it or to stamp a retirement. Pairs with the release in
    /// [`EPOCH_ADVANCE_CAS`] (the epoch) and [`GRACE_PERIOD_RMW`] (the
    /// RCU generation) so clock values never run ahead of the state
    /// they summarize. A stale (smaller)
    /// clock read only widens the interval a version is considered live
    /// for — conservative in every use below.
    CLOCK_LOAD = Acquire
}

tunable! {
    /// **`AcqRel`** — the epoch-advance CAS. Release publishes "epoch
    /// `e` closed"; acquire orders the advancing thread after every
    /// retirement filed under the bag it is about to drain (the bag
    /// mutex adds its own edge for the contents).
    EPOCH_ADVANCE_CAS = AcqRel
}

// ---------------------------------------------------------------------
// Payload side-channels.
// ---------------------------------------------------------------------

tunable! {
    /// **`Relaxed`** — Algorithm 4's data array `D[i]`, both sides. `D`
    /// is never used to synchronize: a slot is written only while its
    /// owner holds the claim CAS on `S[i]` (exclusive), and every read
    /// path first traverses a carrying word (`V`, `A[k]` or `S[i]`,
    /// all pinned `SeqCst`, which includes acquire/release) whose
    /// synchronizes-with edge orders the `D` write before the `D` read.
    /// The `release`-path read is additionally protected by the frozen
    /// slot: a new claimant's `D` write happens-after the erase CAS,
    /// which is sequenced after this read, and a load cannot read from a
    /// write that happens-after it.
    DATA_SLOT = Relaxed
}

tunable! {
    /// **`Relaxed`** — re-reading a word this same process wrote last
    /// (e.g. a setter loading its own committed announcement).
    /// Same-location coherence already guarantees the own store is
    /// observed; no cross-thread edge is taken from the value.
    SELF_LOAD = Relaxed
}

// ---------------------------------------------------------------------
// PidPool: the lease state machine and its Treiber freelist.
// ---------------------------------------------------------------------

tunable! {
    /// **`AcqRel`** — a lease-state transition CAS (`FREE → LEASED`,
    /// `FREE → RESERVED`, `RESERVED → LEASED`, `RESERVED → FREE`).
    /// Acquire on the claiming transitions makes everything the previous
    /// holder did before releasing happen-before the new holder (the
    /// edge `PerProc` relies on when a pid migrates across threads);
    /// release on the relinquishing transitions publishes it.
    LEASE_CAS = AcqRel
}

tunable! {
    /// **`Acquire`** — reading a pid's lease state to pick a transition
    /// (the `release` loop) or report diagnostics-adjacent decisions.
    LEASE_STATE_LOAD = Acquire
}

tunable! {
    /// **`Release`** — `release`'s `LEASED → FREE` store. Publishes the
    /// departing holder's writes to the next [`LEASE_CAS`] claimant.
    LEASE_RELEASE_STORE = Release
}

tunable! {
    /// **`Acquire`** — loading the freelist head before a pop/push
    /// attempt. Synchronizes with the [`FREELIST_CAS`] that installed
    /// the value (and, through the RMW release sequence, with every
    /// earlier pusher), making the popped slot's [`FREELIST_LINK`]
    /// visible.
    FREELIST_HEAD_LOAD = Acquire
}

tunable! {
    /// **`AcqRel`** — the head CAS of a freelist push or pop. Release on
    /// push publishes the node's link store; the RMW chain preserves
    /// every predecessor's release sequence for later
    /// [`FREELIST_HEAD_LOAD`]s. The tag field carries the ABA argument;
    /// ordering plays no part in it.
    FREELIST_CAS = AcqRel
}

tunable! {
    /// **`Relaxed`** — a freelist node's `next` link. Written only by
    /// the pusher that currently owns the node, published by the
    /// subsequent [`FREELIST_CAS`] release; read only after a
    /// [`FREELIST_HEAD_LOAD`] acquire that synchronized with it. A
    /// stale link read after losing a race is discarded by the tag CAS
    /// failing.
    FREELIST_LINK = Relaxed
}

tunable! {
    /// **`Release`** — publishing "at least one release hook exists"
    /// after appending the hook under the write lock.
    HOOK_FLAG_SET = Release
}

tunable! {
    /// **`Acquire`** — the release path's hook-presence check. Pairs
    /// with [`HOOK_FLAG_SET`]; the hook vector itself is read under the
    /// `RwLock`. Registration racing a release may or may not be seen —
    /// the documented (and pre-existing) contract.
    HOOK_FLAG_READ = Acquire
}

// ---------------------------------------------------------------------
// Pinned roles — `SeqCst` in both builds. Each carries the proof
// obligation that forbids weakening.
// ---------------------------------------------------------------------

/// **Pinned `SeqCst`** — every CAS on Algorithm 4's handshake words
/// (`V`, the status array `S`, the announcement array `A`).
///
/// Proof obligation: Appendix B's linearization argument (Lemmas B.1–
/// B.10) orders *all* of the algorithm's CASes in one global sequence —
/// e.g. Lemma B.2 counts how many helping CASes an acquire can thwart,
/// and Lemma B.10's abort-legality pigeonhole counts slot claims
/// concurrent with a set — and both StoreLoad windows of the module docs
/// appear here: `acquire` announces `A[k]` and validates against `V`
/// (window 1), and `release` clears `A[k]` then scans `A` under the
/// `usable → pending → frozen` protocol (window 2, where two racing
/// releasers that miss each other's clears would both bail and leak the
/// version, violating precision). `SeqCst` on all three words is the
/// proof's model; no per-site weakening is attempted.
pub const HANDSHAKE_CAS: Ordering = Ordering::SeqCst;

/// **Pinned `SeqCst`** — plain loads of Algorithm 4's handshake words.
/// Same obligation as [`HANDSHAKE_CAS`]: the validate loads of window 1
/// and the scan loads of window 2 must participate in the single total
/// order.
pub const HANDSHAKE_LOAD: Ordering = Ordering::SeqCst;

/// **Pinned `SeqCst`** — plain stores to Algorithm 4's handshake words
/// (the announce store, the announcement clear, the freeze store, the
/// abort-path slot clears). The clear → scan window (module docs,
/// pattern 2) is why even the *stores* stay `SeqCst`: a release-only
/// clear could be missed by every concurrent releaser's scan, and
/// precision (Theorem 3.3) forbids the resulting leak.
pub const HANDSHAKE_STORE: Ordering = Ordering::SeqCst;

/// **Pinned `SeqCst`** — the RCU grace-period RMW (`gen.fetch_add` in
/// `synchronize`). The writer must order its preceding version CAS
/// against its subsequent reader-generation scan (a StoreLoad edge); the
/// `SeqCst` RMW plus [`scan_fence`] provides it, and the generation
/// chain is what readers announce against.
pub const GRACE_PERIOD_RMW: Ordering = Ordering::SeqCst;

/// The StoreLoad fence between a reader's announcement store and its
/// validate load — **unconditional** in both builds (pattern 1 of the
/// module docs; pairs with [`scan_fence`]). The `strict-sc` build keeps
/// it too: `SeqCst` accesses alone would also pair, but keeping the
/// fence makes the strict build a strict superset of the default one
/// rather than a differently-shaped program.
#[inline]
pub fn announce_validate_fence() {
    fence(Ordering::SeqCst);
}

/// The reclaimer-side `SeqCst` fence, executed once per scan before the
/// first [`SCAN_LOAD`] — **unconditional** in both builds. Pairs with
/// [`announce_validate_fence`] per the module docs' two-case argument.
#[inline]
pub fn scan_fence() {
    fence(Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_sc_flag_matches_feature() {
        assert_eq!(STRICT_SC, cfg!(feature = "strict-sc"));
    }

    #[test]
    fn tunable_roles_collapse_to_seqcst_under_strict_sc() {
        let tunables = [
            VERSION_LOAD,
            VERSION_CAS,
            CAS_FAILURE,
            ANNOUNCE_PUBLISH,
            ANNOUNCE_CLEAR,
            SCAN_LOAD,
            CLOCK_LOAD,
            EPOCH_ADVANCE_CAS,
            DATA_SLOT,
            SELF_LOAD,
            LEASE_CAS,
            LEASE_STATE_LOAD,
            LEASE_RELEASE_STORE,
            FREELIST_HEAD_LOAD,
            FREELIST_CAS,
            FREELIST_LINK,
            HOOK_FLAG_SET,
            HOOK_FLAG_READ,
        ];
        if STRICT_SC {
            assert!(tunables.iter().all(|&o| o == Ordering::SeqCst));
        } else {
            assert!(tunables.iter().any(|&o| o != Ordering::SeqCst));
        }
        // Pinned roles never move.
        for pinned in [
            HANDSHAKE_CAS,
            HANDSHAKE_LOAD,
            HANDSHAKE_STORE,
            GRACE_PERIOD_RMW,
        ] {
            assert_eq!(pinned, Ordering::SeqCst);
        }
    }
}
