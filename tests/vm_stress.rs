//! Concurrency stress tests of the Version Maintenance algorithms' safety
//! invariants, with an *aliveness oracle*: every version token maps to a
//! flag that collectors clear. If any algorithm ever hands a version to a
//! reader after (or while) it was collected — the use-after-free the
//! paper's safety property forbids — a reader observes a dead flag.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use multiversion::vm::{PslfVm, PswfVm, VersionMaintenance, VmKind};

const MAX_TOKENS: usize = 1 << 19;

struct Oracle {
    alive: Vec<AtomicBool>,
    collected_count: AtomicU64,
}

impl Oracle {
    fn new() -> Self {
        let mut alive = Vec::with_capacity(MAX_TOKENS);
        alive.resize_with(MAX_TOKENS, || AtomicBool::new(false));
        alive[0].store(true, Ordering::SeqCst); // initial version token 0
        Oracle {
            alive,
            collected_count: AtomicU64::new(0),
        }
    }

    fn birth(&self, token: u64) {
        self.alive[token as usize].store(true, Ordering::SeqCst);
    }

    fn assert_alive(&self, token: u64, kind: VmKind, who: &str) {
        assert!(
            self.alive[token as usize].load(Ordering::SeqCst),
            "{kind:?}: {who} is using collected version {token} (UAF!)"
        );
    }

    fn collect(&self, token: u64, kind: VmKind) {
        let was = self.alive[token as usize].swap(false, Ordering::SeqCst);
        assert!(was, "{kind:?}: version {token} collected twice");
        self.collected_count.fetch_add(1, Ordering::SeqCst);
    }
}

/// Single writer + several readers, every algorithm: no UAF, no double
/// collect, per-reader monotone tokens, and (for the precise algorithms)
/// full reclamation in quiescence.
#[test]
fn single_writer_safety_oracle() {
    single_writer_oracle_scaled(2_000);
}

/// The stress-tier version of [`single_writer_safety_oracle`]: same
/// oracle, 20× the committed versions. Run via the CI `stress` job
/// (`cargo test --release -- --ignored`).
#[test]
#[ignore = "stress tier: long-running, run with --ignored in release"]
fn single_writer_safety_oracle_stress() {
    single_writer_oracle_scaled(40_000);
}

fn single_writer_oracle_scaled(writes: u64) {
    assert!((writes as usize) < MAX_TOKENS, "oracle table too small");
    for kind in VmKind::ALL {
        let readers = 3usize;
        let procs = readers + 1;
        let vm = kind.build(procs, 0);
        let oracle = Arc::new(Oracle::new());
        let stop = Arc::new(AtomicBool::new(false));
        let created = Arc::new(AtomicU64::new(1)); // token 0 exists

        std::thread::scope(|s| {
            for r in 0..readers {
                let vm = &vm;
                let oracle = oracle.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let pid = r + 1;
                    let mut last = 0u64;
                    let mut out = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let t = vm.acquire(pid);
                        oracle.assert_alive(t, kind, "reader(acquire)");
                        assert!(t >= last, "{kind:?}: reader went backwards");
                        last = t;
                        // Simulated user code: the version must stay alive
                        // for the whole active interval.
                        for _ in 0..8 {
                            std::hint::spin_loop();
                            oracle.assert_alive(t, kind, "reader(mid-txn)");
                        }
                        vm.release(pid, &mut out);
                        for tok in out.drain(..) {
                            oracle.collect(tok, kind);
                        }
                    }
                });
            }
            // Writer on this thread.
            let mut out = Vec::new();
            for i in 1..writes {
                let t = vm.acquire(0);
                oracle.assert_alive(t, kind, "writer(acquire)");
                oracle.birth(i);
                assert!(vm.set(0, i), "{kind:?}: single writer must not abort");
                created.fetch_add(1, Ordering::SeqCst);
                vm.release(0, &mut out);
                for tok in out.drain(..) {
                    oracle.collect(tok, kind);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });

        // Quiescence accounting.
        let created = created.load(Ordering::SeqCst);
        let collected = oracle.collected_count.load(Ordering::SeqCst);
        assert_eq!(
            vm.uncollected_versions(),
            created - collected,
            "{kind:?}: version accounting broken"
        );
        if kind.is_precise() {
            assert_eq!(
                vm.uncollected_versions(),
                1,
                "{kind:?}: precise algorithms leave only the current version"
            );
        }
    }
}

/// Multiple concurrent writers under the lock-free algorithms: every
/// token is collected at most once, failed sets don't lose versions, and
/// the current version is never collected.
#[test]
fn multi_writer_safety_oracle() {
    multi_writer_oracle_scaled(400, 100_000);
}

/// Stress-tier [`multi_writer_safety_oracle`]: 25× the commits per
/// writer (attempt cap sized to stay inside the oracle's token table).
#[test]
#[ignore = "stress tier: long-running, run with --ignored in release"]
fn multi_writer_safety_oracle_stress() {
    multi_writer_oracle_scaled(10_000, 150_000);
}

fn multi_writer_oracle_scaled(commits_per_writer: u64, max_attempts: u64) {
    for kind in [VmKind::Pswf, VmKind::Pslf, VmKind::Hazard, VmKind::Epoch] {
        let writers = 3usize;
        assert!(
            writers as u64 * max_attempts < MAX_TOKENS as u64,
            "oracle table too small for the attempt budget"
        );
        let vm = kind.build(writers, 0);
        let oracle = Arc::new(Oracle::new());
        let next_token = Arc::new(AtomicU64::new(1));
        let commits = Arc::new(AtomicU64::new(0));

        std::thread::scope(|s| {
            for w in 0..writers {
                let vm = &vm;
                let oracle = oracle.clone();
                let next_token = next_token.clone();
                let commits = commits.clone();
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut committed = 0u64;
                    let mut attempts = 0u64;
                    while committed < commits_per_writer && attempts < max_attempts {
                        attempts += 1;
                        let t = vm.acquire(w);
                        oracle.assert_alive(t, kind, "writer(acquire)");
                        let tok = next_token.fetch_add(1, Ordering::SeqCst);
                        oracle.birth(tok);
                        if vm.set(w, tok) {
                            committed += 1;
                            commits.fetch_add(1, Ordering::SeqCst);
                        } else {
                            // Aborted: the speculative token dies here
                            // (mirrors Figure 1's collect(newv)).
                            oracle.collect(tok, kind);
                        }
                        vm.release(w, &mut out);
                        for tk in out.drain(..) {
                            oracle.collect(tk, kind);
                        }
                    }
                    assert_eq!(
                        committed, commits_per_writer,
                        "{kind:?}: writer starved (lock-freedom)"
                    );
                });
            }
        });

        let current = vm.current();
        assert!(
            oracle.alive[current as usize].load(Ordering::SeqCst),
            "{kind:?}: current version was collected"
        );
        if kind.is_precise() {
            assert_eq!(vm.uncollected_versions(), 1, "{kind:?}");
        }
    }
}

/// Theorem 3.5 in the single-writer setting: with concurrent `set`s
/// excluded, contention is O(1) amortized per `acquire` and O(P) per
/// `set`/`release`, whatever the schedule. A failed CAS is one unit of
/// §2 contention, so `cas_failures` lower-bounds it. One writer runs a
/// fixed number of acquire/set/release cycles while R readers loop
/// acquire/release; the writer never aborts, and failures never
/// outnumber operations (measured on 2 cores: ≤ 0.042 per op at R = 1
/// and ≤ 0.006 at R ≥ 2, so the bound has more than 20× headroom).
#[test]
fn single_writer_contention_is_bounded_by_the_op_count() {
    const WRITES: u64 = 5_000;

    /// Returns (total ops, writer aborts). The writer counts its aborts
    /// instead of asserting, so a failure stops the readers rather than
    /// hanging the scope.
    fn run(vm: &impl VersionMaintenance, readers: usize) -> (u64, u64) {
        let stop = AtomicBool::new(false);
        let reader_ops = AtomicU64::new(0);
        let aborts = std::thread::scope(|s| {
            for r in 0..readers {
                let (stop, reader_ops) = (&stop, &reader_ops);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        vm.acquire(r + 1);
                        vm.release(r + 1, &mut out);
                        out.clear();
                        n += 2;
                    }
                    reader_ops.fetch_add(n, Ordering::Relaxed);
                });
            }
            let mut out = Vec::new();
            let mut aborts = 0u64;
            for token in 1..=WRITES {
                vm.acquire(0);
                aborts += u64::from(!vm.set(0, token));
                vm.release(0, &mut out);
                out.clear();
            }
            stop.store(true, Ordering::Relaxed);
            aborts
        });
        (3 * WRITES + reader_ops.load(Ordering::Relaxed), aborts)
    }

    for readers in [1usize, 2, 4] {
        let pswf = PswfVm::new(readers + 1, 0);
        let pswf_run = run(&pswf, readers);
        let pslf = PslfVm::new(readers + 1, 0);
        let pslf_run = run(&pslf, readers);
        for (name, (ops, aborts), failures) in [
            ("PSWF", pswf_run, pswf.cas_failures()),
            ("PSLF", pslf_run, pslf.cas_failures()),
        ] {
            assert_eq!(
                aborts, 0,
                "{name}, R = {readers}: the single writer's set aborted"
            );
            assert!(
                failures <= ops,
                "{name}, R = {readers}: {failures} CAS failures in {ops} ops"
            );
        }
    }
}

/// RCU-specific liveness: a writer's release blocks until readers leave,
/// but readers never block each other or the acquire path.
#[test]
fn rcu_grace_period_blocks_only_writer_release() {
    let vm = Arc::new(multiversion::vm::RcuVm::new(3, 0));
    let in_read = Arc::new(AtomicBool::new(false));
    let writer_finished = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Reader 1 enters and parks.
        vm.acquire(1);
        in_read.store(true, Ordering::SeqCst);

        let vm_w = vm.clone();
        let wf = writer_finished.clone();
        s.spawn(move || {
            let mut out = Vec::new();
            vm_w.acquire(0);
            assert!(vm_w.set(0, 1));
            vm_w.release(0, &mut out); // blocks on reader 1
            assert_eq!(out, vec![0]);
            wf.store(true, Ordering::SeqCst);
        });

        // Reader 2 can still acquire and release freely meanwhile.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut out = Vec::new();
        let t = vm.acquire(2);
        assert_eq!(t, 1, "reader 2 sees the new version immediately");
        vm.release(2, &mut out);
        assert!(out.is_empty());
        assert!(!writer_finished.load(Ordering::SeqCst));

        // Reader 1 leaves; the writer's grace period completes.
        vm.release(1, &mut out);
        assert!(out.is_empty());
    });
    assert!(writer_finished.load(Ordering::SeqCst));
    assert_eq!(vm.uncollected_versions(), 1);
}
