//! The §7.1 single-writer / multi-reader range-sum experiment behind
//! **Table 2** and **Figure 6**.
//!
//! One writer thread commits update transactions of `nu` insertions each;
//! `readers` threads run query transactions of `nq` range-sum queries
//! each, answered in O(log n) from the sum augmentation. The number of
//! live (uncollected) versions is sampled before every update and its
//! maximum reported — the GC-precision metric that separates PSWF/PSLF/RCU
//! from HP/EP.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mvcc_core::Database;
use mvcc_ftree::{Forest, SumU64Map};
use mvcc_vm::VmKind;
use mvcc_workloads::harness::run_for;

use rand::prelude::*;

/// Parameters of one cell of Table 2 / one point of Figure 6.
#[derive(Debug, Clone, Copy)]
pub struct RangeSumConfig {
    /// Initial tree size (paper: 10⁸).
    pub n: u64,
    /// Queries per read transaction.
    pub nq: usize,
    /// Insertions per write transaction.
    pub nu: usize,
    /// Query threads (paper: 140).
    pub readers: usize,
    /// Run duration.
    pub secs: f64,
    /// VM algorithm; `None` is the paper's "Base" (no version
    /// maintenance, no GC).
    pub kind: Option<VmKind>,
}

/// One row cell of Table 2.
#[derive(Debug, Clone, Copy)]
pub struct RangeSumResult {
    /// Query throughput, millions of range-sums per second.
    pub query_mops: f64,
    /// Update throughput, millions of insertions per second.
    pub update_mops: f64,
    /// Maximum number of live versions observed before updates.
    pub max_live_versions: u64,
}

fn preload(db: &Database<SumU64Map, Box<dyn mvcc_vm::VersionMaintenance>>, n: u64) {
    let batch: Vec<(u64, u64)> = (0..n).map(|k| (k * 2, k)).collect();
    // Scoped session: the pid returns to the pool before the workers
    // lease theirs.
    let mut s = db.session().expect("fresh database has free pids");
    s.write(|txn| txn.multi_insert(batch.clone(), |_o, v| *v));
}

/// Run one configuration and report throughputs plus the version high-water
/// mark.
pub fn run(cfg: RangeSumConfig) -> RangeSumResult {
    match cfg.kind {
        Some(kind) => run_vm(cfg, kind),
        None => run_base(cfg),
    }
}

fn run_vm(cfg: RangeSumConfig, kind: VmKind) -> RangeSumResult {
    let threads = cfg.readers + 1;
    let db: Database<SumU64Map, _> = Database::with_kind(kind, threads);
    preload(&db, cfg.n);
    let max_versions = AtomicU64::new(0);
    let key_hi = cfg.n * 2;
    let span = (key_hi / 100).max(2);
    let writer_ops = AtomicU64::new(0);

    // One session per worker, parked behind an (uncontended) mutex: the
    // harness closure is shared across threads but worker `t` is the
    // only locker of slot `t`.
    let sessions: Vec<Mutex<mvcc_core::Session<'_, SumU64Map, _>>> = (0..threads)
        .map(|_| Mutex::new(db.session().expect("one pid per worker")))
        .collect();

    let report = run_for(threads, Duration::from_secs_f64(cfg.secs), |t, iter| {
        let mut rng = SmallRng::seed_from_u64((t as u64) << 32 | (iter & 0xFFFF_FFFF));
        let mut session = sessions[t].lock().unwrap_or_else(|e| e.into_inner());
        if t == 0 {
            // Writer: sample live versions, then commit nu insertions.
            max_versions.fetch_max(db.live_versions(), Ordering::Relaxed);
            let batch: Vec<(u64, u64)> = (0..cfg.nu)
                .map(|_| (rng.gen_range(0..key_hi), rng.gen_range(0..1000)))
                .collect();
            session.write(|txn| txn.multi_insert(batch.clone(), |_o, v| *v));
            writer_ops.fetch_add(cfg.nu as u64, Ordering::Relaxed);
            0 // writer ops tracked separately
        } else {
            // Reader: one transaction of nq range-sum queries.
            session.read(|s| {
                let mut acc = 0u64;
                for _ in 0..cfg.nq {
                    let lo = rng.gen_range(0..key_hi.saturating_sub(span));
                    acc = acc.wrapping_add(s.aug_range(&lo, &(lo + span)));
                }
                std::hint::black_box(acc);
            });
            cfg.nq as u64
        }
    });

    RangeSumResult {
        query_mops: report.total_ops() as f64 / report.elapsed.as_secs_f64() / 1e6,
        update_mops: writer_ops.load(Ordering::Relaxed) as f64 / report.elapsed.as_secs_f64() / 1e6,
        max_live_versions: max_versions.load(Ordering::Relaxed),
    }
}

/// The paper's "Base": the same tree and workload with no version
/// maintenance at all — readers query a fixed preloaded snapshot while the
/// writer chains updates privately. Upper-bounds the achievable throughput.
fn run_base(cfg: RangeSumConfig) -> RangeSumResult {
    let forest: Forest<SumU64Map> = Forest::new();
    let batch: Vec<(u64, u64)> = (0..cfg.n).map(|k| (k * 2, k)).collect();
    let preloaded = forest.multi_insert(forest.empty(), batch, |_o, v| *v);
    let key_hi = cfg.n * 2;
    let span = (key_hi / 100).max(2);
    let writer_ops = AtomicU64::new(0);
    // The writer owns a private chain starting from the snapshot.
    forest.retain(preloaded);
    let writer_root = Mutex::new(preloaded);

    let report = run_for(
        cfg.readers + 1,
        Duration::from_secs_f64(cfg.secs),
        |t, iter| {
            let mut rng = SmallRng::seed_from_u64((t as u64) << 32 | (iter & 0xFFFF_FFFF));
            if t == 0 {
                let batch: Vec<(u64, u64)> = (0..cfg.nu)
                    .map(|_| (rng.gen_range(0..key_hi), rng.gen_range(0..1000)))
                    .collect();
                let mut root = writer_root.lock().unwrap();
                *root = forest.multi_insert(*root, batch, |_o, v| *v);
                writer_ops.fetch_add(cfg.nu as u64, Ordering::Relaxed);
                0
            } else {
                let mut acc = 0u64;
                for _ in 0..cfg.nq {
                    let lo = rng.gen_range(0..key_hi.saturating_sub(span));
                    acc = acc.wrapping_add(forest.aug_range(preloaded, &lo, &(lo + span)));
                }
                std::hint::black_box(acc);
                cfg.nq as u64
            }
        },
    );

    RangeSumResult {
        query_mops: report.total_ops() as f64 / report.elapsed.as_secs_f64() / 1e6,
        update_mops: writer_ops.load(Ordering::Relaxed) as f64 / report.elapsed.as_secs_f64() / 1e6,
        max_live_versions: 0,
    }
}
