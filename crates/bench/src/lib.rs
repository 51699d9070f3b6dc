//! # mvcc-bench — experiment drivers regenerating the paper's evaluation
//!
//! One module per experiment family; the five `src/bin/` drivers
//! (`fig6`, `fig7`, `table1_delay`, `table2`, `table3`) print the
//! corresponding table/figure rows. They record nothing: the repository's
//! one measurement instrument is the system benchmark
//! (`benchmark/README.md`, declared by `BENCHMARK.json`). All parameters
//! scale via environment variables so the same code runs on the paper's
//! 144-thread box or a 1-core CI machine:
//!
//! | var | default | meaning |
//! |-----|---------|---------|
//! | `MVCC_SECS`     | 2.0  | seconds per measured run |
//! | `MVCC_N`        | 100000 | initial tree size (paper: 10⁸) |
//! | `MVCC_READERS`  | 3    | query threads (paper: 140) |
//! | `MVCC_KEYSPACE` | 100000 | YCSB key space (paper: 5·10⁷) |
//! | `MVCC_DOCS`     | 5000 | initial documents for Table 3 |

pub mod rangesum;
pub mod table1;
pub mod table3;
pub mod ycsb;

/// Read a scaling knob from the environment.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read an integer scaling knob from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Seconds per measured run.
pub fn run_secs() -> f64 {
    env_f64("MVCC_SECS", 2.0)
}

/// Number of query threads.
pub fn reader_threads() -> usize {
    env_u64("MVCC_READERS", 3) as usize
}
