//! Regenerates **Figure 6**: maximum number of uncollected versions vs.
//! update granularity `nu` (queries fixed at `nq = 10`), one series per VM
//! algorithm. The paper's shape: HP flat at 2P, EP blowing up at small
//! `nu`, RCU pinned at 1, PSWF/PSLF low throughout.
//!
//! ```sh
//! cargo run --release -p mvcc-bench --bin fig6
//! ```

use mvcc_bench::rangesum::{run, RangeSumConfig};
use mvcc_bench::{env_u64, reader_threads, run_secs};
use mvcc_vm::VmKind;

fn main() {
    let n = env_u64("MVCC_N", 100_000);
    let readers = reader_threads();
    let secs = run_secs();
    let nus = [1usize, 10, 100, 1000];

    println!("Figure 6 — max uncollected versions vs update granularity");
    println!("n = {n}, nq = 10, readers = {readers}, {secs}s per point");
    println!("(paper reference points: HP = 2P, RCU = 1, EP up to ~1000)");
    println!();
    print!("{:>8}", "nu");
    for kind in VmKind::PAPER {
        print!("{:>8}", kind.name());
    }
    println!();
    println!("{}", "-".repeat(8 + 8 * VmKind::PAPER.len()));

    for nu in nus {
        print!("{:>8}", nu);
        for kind in VmKind::PAPER {
            let r = run(RangeSumConfig {
                n,
                nq: 10,
                nu,
                readers,
                secs,
                kind: Some(kind),
            });
            print!("{:>8}", r.max_live_versions);
        }
        println!();
    }
    println!();
    println!(
        "HP bound for this config: 2P = {} (P = {} incl. writer)",
        2 * (readers + 1),
        readers + 1
    );
}
