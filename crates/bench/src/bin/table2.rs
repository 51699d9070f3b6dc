//! Regenerates **Table 2**: query/update throughput and max live versions
//! for Base / PSWF / PSLF / HP / EP / RCU over (nq, nu) ∈ {10, 1000}².
//!
//! ```sh
//! MVCC_SECS=2 MVCC_N=100000 MVCC_READERS=3 \
//!     cargo run --release -p mvcc-bench --bin table2
//! ```

use mvcc_bench::rangesum::{run, RangeSumConfig};
use mvcc_bench::{env_u64, reader_threads, run_secs};
use mvcc_vm::VmKind;

fn main() {
    let n = env_u64("MVCC_N", 100_000);
    let readers = reader_threads();
    let secs = run_secs();
    let grid = [(10usize, 10usize), (10, 1000), (1000, 10), (1000, 1000)];

    println!("Table 2 — range-sum queries + batched insertions");
    println!("n = {n}, readers = {readers}, writer = 1, {secs}s per cell");
    println!("(paper: n = 10^8, 140 readers, 15s — shapes, not absolutes)");
    println!();

    let algos: Vec<(String, Option<VmKind>)> = std::iter::once(("Base".to_string(), None))
        .chain(VmKind::PAPER.map(|k| (k.name().to_string(), Some(k))))
        .collect();

    let mut rows = Vec::new();
    for (nq, nu) in grid {
        for (name, kind) in &algos {
            let r = run(RangeSumConfig {
                n,
                nq,
                nu,
                readers,
                secs,
                kind: *kind,
            });
            rows.push((nq, nu, name.clone(), r));
            eprintln!("  measured {name} nq={nq} nu={nu}");
        }
    }

    println!(
        "{:>5} {:>5} | {:>6} {:>12} {:>13} {:>13}",
        "nq", "nu", "algo", "query Mop/s", "update Mop/s", "max versions"
    );
    println!("{}", "-".repeat(64));
    for (nq, nu, name, r) in &rows {
        let ver = if name == "Base" {
            "—".to_string()
        } else {
            format!("{}", r.max_live_versions)
        };
        println!(
            "{:>5} {:>5} | {:>6} {:>12.3} {:>13.4} {:>13}",
            nq, nu, name, r.query_mops, r.update_mops, ver
        );
    }
}
