//! Linearizability-oriented oracles for the Version Maintenance
//! algorithms, complementing `vm_stress.rs`'s use-after-free oracle:
//!
//! * **freshness** — an `acquire` must return a version at least as new
//!   as any `set` whose *response* preceded the acquire's *invocation*
//!   (the sequential specification says acquire returns the current
//!   version; linearizability forces real-time order);
//! * **release uniqueness under multiple writers** — for the precise
//!   algorithms, every dead version token is returned by exactly one
//!   release, even when several writers race sets and aborts;
//! * **abort legality** — PSWF may only abort a `set` if a successful
//!   set overlapped the acquire–set window (1-abortability, Lemma B.10);
//! * **memory-ordering litmus probes** — seeded cross-thread
//!   message-passing and precise-release-singleton churn, added with the
//!   relaxed-ordering audit (`mvcc_vm::ordering`): the same probes run
//!   under the default acquire/release build and the `strict-sc` build
//!   in CI, so a mis-weakened role fails the suite rather than only a
//!   code review. Fast tiers run in tier-1; `*_stress` variants follow
//!   the scale-parameterized `#[ignore]` convention of `vm_stress.rs`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use multiversion::vm::{PswfVm, VersionMaintenance, VmKind};
use rand::{RngCore, SeedableRng, SmallRng};

/// Deterministic per-thread jitter for the litmus schedules: seeded so
/// failures reproduce, varied so the interleavings drift across
/// iterations instead of locking into one phase.
struct Jitter(SmallRng);

impl Jitter {
    fn new(seed: u64) -> Self {
        Jitter(SmallRng::seed_from_u64(seed))
    }

    /// Spin 0..=31 times — enough to shift thread phase, cheap enough
    /// to keep the probe hot.
    fn pause(&mut self) {
        for _ in 0..(self.0.next_u64() & 31) {
            std::hint::spin_loop();
        }
    }
}

/// Single writer publishes strictly increasing tokens and records the
/// newest *completed* set in `floor`; every reader's acquire must return
/// a token ≥ the floor it sampled before invoking acquire.
#[test]
fn acquire_is_real_time_fresh() {
    for kind in VmKind::PAPER {
        let readers = 3usize;
        let vm = kind.build(readers + 1, 0);
        let floor = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|s| {
            for r in 0..readers {
                let vm = &vm;
                let floor = Arc::clone(&floor);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut out = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        let before = floor.load(Ordering::SeqCst);
                        let got = vm.acquire(r + 1);
                        assert!(
                            got >= before,
                            "{kind:?}: acquire returned {got}, but set({before}) \
                             completed before the acquire began"
                        );
                        vm.release(r + 1, &mut out);
                        out.clear();
                    }
                });
            }
            {
                let vm = &vm;
                let floor = Arc::clone(&floor);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for token in 1..=4_000u64 {
                        vm.acquire(0);
                        assert!(vm.set(0, token), "single writer never aborts");
                        // Publish only after set's response: readers that
                        // sample this floor start strictly after the set.
                        floor.store(token, Ordering::SeqCst);
                        vm.release(0, &mut out);
                        out.clear();
                    }
                    stop.store(true, Ordering::SeqCst);
                });
            }
        });
    }
}

/// Multi-writer PSWF/PSLF: every committed token except the final
/// current one is collected exactly once, across all releases.
#[test]
fn precise_release_uniqueness_multi_writer() {
    for kind in [VmKind::Pswf, VmKind::Pslf] {
        const WRITERS: usize = 4;
        const PER: u64 = 1_500;
        let vm = kind.build(WRITERS, 0);
        let committed = Arc::new(AtomicU64::new(0));
        // collected[token] counts how many releases returned it.
        let collected: Arc<Vec<AtomicU64>> = Arc::new(
            (0..(WRITERS as u64 * PER + 1) * 2)
                .map(|_| AtomicU64::new(0))
                .collect(),
        );

        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let vm = &vm;
                let committed = Arc::clone(&committed);
                let collected = Arc::clone(&collected);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut commits = 0u64;
                    let mut next_token = (w as u64) * PER + 1;
                    while commits < PER {
                        vm.acquire(w);
                        if vm.set(w, next_token) {
                            commits += 1;
                            next_token += 1;
                            committed.fetch_add(1, Ordering::SeqCst);
                        }
                        vm.release(w, &mut out);
                        for t in out.drain(..) {
                            collected[t as usize].fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });

        // Quiesce: one last cycle collects the second-to-last version.
        let mut out = Vec::new();
        vm.acquire(0);
        assert!(vm.set(0, u64::MAX - 3));
        vm.release(0, &mut out);
        let current = u64::MAX - 3;

        let mut total = out.len() as u64; // tail collection
        for (tok, cnt) in collected.iter().enumerate() {
            let c = cnt.load(Ordering::SeqCst);
            assert!(
                c <= 1,
                "{kind:?}: token {tok} collected {c} times (double free)"
            );
            total += c;
        }
        // Everything committed except the current version must have been
        // collected exactly once (plus the initial token 0).
        let commits = committed.load(Ordering::SeqCst) + 1; // + our tail set
        assert_eq!(
            total,
            commits, // commits versions died: all but current, plus initial 0
            "{kind:?}: dead-version count mismatch (current={current})"
        );
        assert_eq!(vm.uncollected_versions(), 1, "{kind:?}: precise quiescence");
    }
}

/// PSWF abort legality: with an overlap witness — a monotonically
/// increasing commit counter — every abort must observe that some other
/// writer committed during its acquire→set window.
#[test]
fn pswf_aborts_only_with_concurrent_success() {
    const WRITERS: usize = 3;
    let vm = Arc::new(PswfVm::new(WRITERS, 0));
    let commit_seq = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let vm = Arc::clone(&vm);
            let commit_seq = Arc::clone(&commit_seq);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut out = Vec::new();
                let mut token = (w as u64 + 1) << 40;
                let mut rounds = 0u64;
                while !stop.load(Ordering::SeqCst) && rounds < 3_000 {
                    let seq_before = commit_seq.load(Ordering::SeqCst);
                    vm.acquire(w);
                    token += 1;
                    if vm.set(w, token) {
                        commit_seq.fetch_add(1, Ordering::SeqCst);
                    } else {
                        // A legal abort implies some writer's set
                        // succeeded during our window; its counter bump
                        // trails its set by a few instructions, so give
                        // it a bounded grace period before declaring the
                        // abort spurious.
                        let mut witnessed = false;
                        for _ in 0..50_000_000u64 {
                            if commit_seq.load(Ordering::SeqCst) > seq_before {
                                witnessed = true;
                                break;
                            }
                            std::hint::spin_loop();
                        }
                        assert!(
                            witnessed,
                            "writer {w}: abort without any concurrent commit \
                             (seq stayed {seq_before})"
                        );
                    }
                    vm.release(w, &mut out);
                    out.clear();
                    rounds += 1;
                }
                stop.store(true, Ordering::SeqCst);
            });
        }
    });
}

/// The helping path: a reader whose acquire is endlessly invalidated by
/// sets still completes in a bounded number of its own steps (wait-
/// freedom witness: the loop below would livelock under PSLF-style
/// unbounded retries if helping were broken, tripping the watchdog).
#[test]
fn pswf_acquire_completes_under_set_storm() {
    let readers = 2usize;
    let vm = Arc::new(PswfVm::new(readers + 1, 0));
    let stop = Arc::new(AtomicBool::new(false));
    let acquires = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        {
            let vm = Arc::clone(&vm);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut out = Vec::new();
                let mut token = 1u64;
                while !stop.load(Ordering::SeqCst) {
                    vm.acquire(0);
                    vm.set(0, token);
                    token += 1;
                    vm.release(0, &mut out);
                    out.clear();
                }
            });
        }
        for r in 0..readers {
            let vm = Arc::clone(&vm);
            let stop = Arc::clone(&stop);
            let acquires = Arc::clone(&acquires);
            s.spawn(move || {
                let mut out = Vec::new();
                for _ in 0..20_000 {
                    vm.acquire(r + 1);
                    vm.release(r + 1, &mut out);
                    out.clear();
                    acquires.fetch_add(1, Ordering::Relaxed);
                }
                stop.store(true, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(acquires.load(Ordering::Relaxed), 2 * 20_000);
}

/// Message-passing litmus over the VM's publish edge, all six kinds: a
/// payload written *before* `set(k, token)` must be visible to any
/// process whose `acquire` returns `token`. This is exactly how
/// `mvcc-core` uses the VM (tokens carry root node ids whose nodes are
/// plain memory written before `set`), and it probes the
/// `VERSION_CAS`-release → `VERSION_LOAD`-acquire pairing — including
/// PSWF's helper-committed announcements, where the edge is a chain
/// through `A[k]` rather than a direct read of `V`.
#[test]
fn message_passing_payload_visible_after_acquire() {
    message_passing_scaled(3_000);
}

/// Stress tier of [`message_passing_payload_visible_after_acquire`]:
/// 20× the published versions. Run via the CI `stress` job
/// (`cargo test --release -- --ignored`).
#[test]
#[ignore = "stress tier: long-running, run with --ignored in release"]
fn message_passing_payload_visible_after_acquire_stress() {
    message_passing_scaled(60_000);
}

fn message_passing_scaled(writes: u64) {
    for kind in VmKind::PAPER {
        let readers = 2usize;
        let vm = kind.build(readers + 1, 0);
        let stop = Arc::new(AtomicBool::new(false));
        // payload[token], written Relaxed on purpose: the *only* edge
        // that may make it visible is the VM's publish/observe pairing.
        let payload: Arc<Vec<AtomicU64>> =
            Arc::new((0..writes + 1).map(|_| AtomicU64::new(0)).collect());
        let expected = |token: u64| token.wrapping_mul(31).wrapping_add(7);
        payload[0].store(expected(0), Ordering::Relaxed);

        std::thread::scope(|s| {
            for r in 0..readers {
                let vm = &vm;
                let stop = Arc::clone(&stop);
                let payload = Arc::clone(&payload);
                s.spawn(move || {
                    let mut jit = Jitter::new(0xC0FFEE ^ r as u64);
                    let mut out = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let t = vm.acquire(r + 1);
                        let got = payload[t as usize].load(Ordering::Relaxed);
                        assert_eq!(
                            got,
                            expected(t),
                            "{kind:?}: acquire({t}) returned a version whose \
                             payload write is not visible (broken publish edge)"
                        );
                        jit.pause();
                        vm.release(r + 1, &mut out);
                        out.clear();
                    }
                });
            }
            {
                let vm = &vm;
                let stop = Arc::clone(&stop);
                let payload = Arc::clone(&payload);
                s.spawn(move || {
                    let mut jit = Jitter::new(0xFACADE);
                    let mut out = Vec::new();
                    for token in 1..=writes {
                        vm.acquire(0);
                        // Figure 1's order: create the version's data,
                        // then install it.
                        payload[token as usize].store(expected(token), Ordering::Relaxed);
                        assert!(vm.set(0, token), "single writer never aborts");
                        vm.release(0, &mut out);
                        out.clear();
                        jit.pause();
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
        });
    }
}

/// Precise-release singleton property under churn, all six kinds: every
/// dead token is handed back at most once (all kinds), each single
/// `release` returns at most one token and quiescence leaves exactly
/// the current version (precise kinds only — HP/EP legally batch).
/// Probes the clear→scan windows of Algorithm 4's release protocol and
/// the announce/scan fence pairings of the imprecise kinds.
#[test]
fn release_singleton_under_churn() {
    release_singleton_scaled(1_200);
}

/// Stress tier of [`release_singleton_under_churn`] (PR 3 convention):
/// 20× the commits per writer.
#[test]
#[ignore = "stress tier: long-running, run with --ignored in release"]
fn release_singleton_under_churn_stress() {
    release_singleton_scaled(24_000);
}

fn release_singleton_scaled(commits_per_writer: u64) {
    for kind in VmKind::PAPER {
        const WRITERS: usize = 2;
        const READERS: usize = 2;
        let vm = kind.build(WRITERS + READERS, 0);
        let token_space = (WRITERS as u64 + 1) * (commits_per_writer * 4 + 1);
        let collect_counts: Arc<Vec<AtomicU64>> =
            Arc::new((0..token_space).map(|_| AtomicU64::new(0)).collect());
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|s| {
            for r in 0..READERS {
                let vm = &vm;
                let stop = Arc::clone(&stop);
                let counts = Arc::clone(&collect_counts);
                s.spawn(move || {
                    let mut jit = Jitter::new(0xBEEF ^ r as u64);
                    let mut out = Vec::new();
                    let pid = WRITERS + r;
                    while !stop.load(Ordering::Relaxed) {
                        vm.acquire(pid);
                        jit.pause();
                        vm.release(pid, &mut out);
                        if kind.is_precise() {
                            assert!(out.len() <= 1, "{kind:?}: precise release returned {out:?}");
                        }
                        for t in out.drain(..) {
                            counts[t as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            for w in 0..WRITERS {
                let vm = &vm;
                let stop = Arc::clone(&stop);
                let counts = Arc::clone(&collect_counts);
                s.spawn(move || {
                    let mut jit = Jitter::new(0xDEAD ^ w as u64);
                    let mut out = Vec::new();
                    let mut committed = 0u64;
                    let mut attempts = 0u64;
                    let base = (w as u64 + 1) * (commits_per_writer * 4 + 1);
                    while committed < commits_per_writer && attempts < commits_per_writer * 4 {
                        attempts += 1;
                        vm.acquire(w);
                        if vm.set(w, base + attempts) {
                            committed += 1;
                        }
                        jit.pause();
                        vm.release(w, &mut out);
                        if kind.is_precise() {
                            assert!(out.len() <= 1, "{kind:?}: precise release returned {out:?}");
                        }
                        for t in out.drain(..) {
                            counts[t as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if w == 0 {
                        stop.store(true, Ordering::Relaxed);
                    }
                });
            }
        });

        for (tok, cnt) in collect_counts.iter().enumerate() {
            let c = cnt.load(Ordering::Relaxed);
            assert!(
                c <= 1,
                "{kind:?}: token {tok} collected {c} times (double free)"
            );
        }
        if kind.is_precise() {
            // Quiesce with one last write cycle, then the precise kinds
            // must be down to exactly the current version.
            let mut out = Vec::new();
            vm.acquire(0);
            assert!(vm.set(0, token_space + 1));
            vm.release(0, &mut out);
            assert_eq!(
                vm.uncollected_versions(),
                1,
                "{kind:?}: precise quiescence after churn"
            );
        }
    }
}
