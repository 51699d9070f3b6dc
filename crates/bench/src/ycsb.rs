//! The §7.2 YCSB comparison behind **Figure 7**: our batched functional
//! tree versus the concurrent baselines on workloads A/B/C.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mvcc_baselines::ConcurrentMap;
use mvcc_core::{BatchWriter, Database, MapOp};
use mvcc_ftree::U64Map;
use mvcc_workloads::harness::run_for;
use mvcc_workloads::ycsb::{Mix, Op, YcsbConfig, YcsbGenerator};

use rand::prelude::*;

/// Ops per harness iteration (amortizes the deadline check).
const CHUNK: usize = 64;

/// Drive a [`ConcurrentMap`] baseline with `threads` symmetric workers.
/// Returns throughput in Mop/s.
pub fn run_baseline(
    map: &(impl ConcurrentMap + ?Sized),
    mix: Mix,
    keyspace: u64,
    threads: usize,
    secs: f64,
) -> f64 {
    // Preload the full key space (the paper's "original dataset") in
    // shuffled order — sorted insertion would degenerate the external
    // BST (which does not rebalance) into a path, benchmarking its worst
    // case rather than the YCSB steady state.
    let mut keys: Vec<u64> = (0..keyspace).collect();
    keys.shuffle(&mut SmallRng::seed_from_u64(0x10ad));
    for k in keys {
        map.insert(k, k);
    }
    // One generator per worker, built once — the Zipfian zeta
    // precomputation is O(keyspace) and must stay out of the hot loop.
    let gens: Vec<Mutex<(SmallRng, YcsbGenerator)>> = (0..threads)
        .map(|t| {
            Mutex::new((
                SmallRng::seed_from_u64(0x5eed ^ (t as u64) << 32),
                YcsbGenerator::new(YcsbConfig::new(mix, keyspace)),
            ))
        })
        .collect();
    let report = run_for(threads, Duration::from_secs_f64(secs), |t, _iter| {
        let mut slot = gens[t].lock().unwrap_or_else(|e| e.into_inner());
        let (rng, gen) = &mut *slot;
        let mut done = 0u64;
        for _ in 0..CHUNK {
            match gen.next_op(rng) {
                Op::Read(k) => {
                    std::hint::black_box(map.get(k));
                }
                Op::Update(k, v) => {
                    map.insert(k, v);
                }
            }
            done += 1;
        }
        done
    });
    report.mops()
}

/// Drive our system: reads are delay-free read transactions; updates are
/// submitted to per-thread buffers and committed in parallel batches by a
/// dedicated combining writer (Appendix F). Returns Mop/s over the worker
/// threads' completed operations.
pub fn run_ours(mix: Mix, keyspace: u64, threads: usize, secs: f64) -> f64 {
    // One session for the combiner plus one per worker.
    let db: Database<U64Map> = Database::new(threads + 1);
    {
        let mut s = db.session().expect("fresh pool");
        let preload: Vec<(u64, u64)> = (0..keyspace).map(|k| (k, k)).collect();
        s.write(|txn| txn.multi_insert(preload.clone(), |_o, v| *v));
    }

    let bw: BatchWriter<U64Map> = BatchWriter::new(threads, 4096);
    let stop = AtomicBool::new(false);

    let report = std::thread::scope(|s| {
        // Combiner thread (not counted toward worker throughput, like the
        // paper's single writer applying batches).
        let combiner = s.spawn(|| {
            let mut session = db.session().expect("combiner pid");
            while !stop.load(Ordering::Relaxed) {
                if bw.combine(&mut session) == 0 {
                    std::thread::yield_now();
                }
            }
            // Final drain so every submitted update is applied.
            while bw.combine(&mut session) > 0 {}
        });

        // Per-worker state: RNG + generator + leased session, each behind
        // an uncontended mutex (worker `t` is slot `t`'s only locker).
        type WorkerSlot<'db> = (SmallRng, YcsbGenerator, mvcc_core::Session<'db, U64Map>);
        let gens: Vec<Mutex<WorkerSlot<'_>>> = (0..threads)
            .map(|t| {
                Mutex::new((
                    SmallRng::seed_from_u64(0x5eed ^ (t as u64) << 32),
                    YcsbGenerator::new(YcsbConfig::new(mix, keyspace)),
                    db.session().expect("one pid per worker"),
                ))
            })
            .collect();
        let report = run_for(threads, Duration::from_secs_f64(secs), |t, _iter| {
            let mut slot = gens[t].lock().unwrap_or_else(|e| e.into_inner());
            let (rng, gen, session) = &mut *slot;
            let mut done = 0u64;
            for _ in 0..CHUNK {
                match gen.next_op(rng) {
                    Op::Read(k) => {
                        std::hint::black_box(session.read(|snap| snap.get(&k).copied()));
                    }
                    Op::Update(k, v) => {
                        bw.submit_blocking(t, MapOp::Insert(k, v));
                    }
                }
                done += 1;
            }
            done
        });
        stop.store(true, Ordering::Relaxed);
        combiner.join().unwrap();
        report
    });
    report.mops()
}
