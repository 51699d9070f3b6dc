//! Criterion validation of delay-freedom (Theorem 5.4): a lookup inside
//! a read transaction costs (almost) the same as a raw tree lookup, and
//! the overhead does not grow with the configured process count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvcc_core::Database;
use mvcc_ftree::{Forest, U64Map};

const N: u64 = 100_000;

fn bench_raw_vs_txn(c: &mut Criterion) {
    let items: Vec<(u64, u64)> = (0..N).map(|k| (k, k)).collect();

    let forest: Forest<U64Map> = Forest::new();
    let root = forest.build_sorted(&items);

    let mut g = c.benchmark_group("read_delay");
    let mut k = 1u64;
    g.bench_function("raw_get", |b| {
        b.iter(|| {
            k = (k * 2654435761) % N;
            std::hint::black_box(forest.get(root, &k))
        })
    });

    for p in [1usize, 16, 128] {
        let db: Database<U64Map> = Database::new(p);
        let mut session = db.session().unwrap();
        session.write(|txn| txn.multi_insert(items.clone(), |_o, v| *v));
        g.bench_with_input(BenchmarkId::new("txn_get_session_P", p), &p, |b, _| {
            b.iter(|| {
                k = (k * 2654435761) % N;
                std::hint::black_box(session.read(|s| s.get(&k).copied()))
            })
        });
        // Amortized: one transaction covering 100 lookups (the paper's nq).
        g.bench_with_input(
            BenchmarkId::new("txn_get_session_batch100_P", p),
            &p,
            |b, _| {
                b.iter(|| {
                    session.read(|s| {
                        let mut acc = 0u64;
                        for i in 0..100u64 {
                            let key = (k.wrapping_add(i) * 2654435761) % N;
                            acc = acc.wrapping_add(s.get(&key).copied().unwrap_or(0));
                        }
                        std::hint::black_box(acc)
                    })
                })
            },
        );
    }
    g.finish();
}

fn bench_write_paths(c: &mut Criterion) {
    // Single-writer insert/overwrite commits: the one-call shorthand vs
    // the same insert through a `WriteTxn` closure.
    let mut g = c.benchmark_group("write_overhead");
    {
        let db: Database<U64Map> = Database::new(8);
        let mut session = db.session().unwrap();
        let mut k = 0u64;
        g.bench_function("insert_session", |b| {
            b.iter(|| {
                k = (k + 1) % 1024;
                session.insert(k, k);
            })
        });
    }
    {
        let db: Database<U64Map> = Database::new(8);
        let mut session = db.session().unwrap();
        let mut k = 0u64;
        g.bench_function("insert_write_txn", |b| {
            b.iter(|| {
                k = (k + 1) % 1024;
                session.write(|txn| txn.insert(k, k));
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_raw_vs_txn, bench_write_paths
}
criterion_main!(benches);
