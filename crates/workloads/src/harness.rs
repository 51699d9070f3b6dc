//! Time-boxed throughput measurement.
//!
//! The paper's §7.1 runs "for 15 seconds" with one writer and many query
//! threads, reporting millions of operations per second per class. This
//! module provides the shared scaffolding: spawn `threads` workers, run
//! each in a loop until the deadline, collect per-thread operation counts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Result of a [`run_for`] measurement.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Wall-clock duration actually measured.
    pub elapsed: Duration,
    /// Operations completed per thread.
    pub per_thread: Vec<u64>,
}

impl ThroughputReport {
    /// Total operations across threads.
    pub fn total_ops(&self) -> u64 {
        self.per_thread.iter().sum()
    }

    /// Throughput in millions of operations per second (the paper's
    /// Mop/s).
    pub fn mops(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_secs_f64()
    }
}

/// Run `threads` workers for `duration`. Each worker `t` repeatedly calls
/// `work(t, iteration)`, which returns how many operations it completed;
/// workers poll the deadline between calls. Returns per-thread totals.
///
/// `work` receives the worker index so callers can give thread 0 a
/// different role (e.g. the single writer of §7.1).
pub fn run_for(
    threads: usize,
    duration: Duration,
    work: impl Fn(usize, u64) -> u64 + Sync,
) -> ThroughputReport {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let per_thread = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let stop = &stop;
                let work = &work;
                s.spawn(move || {
                    let mut ops = 0u64;
                    let mut iter = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        ops += work(t, iter);
                        iter += 1;
                    }
                    ops
                })
            })
            .collect();
        // Deadline keeper runs on the scope's own thread.
        while start.elapsed() < duration {
            std::thread::sleep(Duration::from_millis(1).min(duration));
        }
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    ThroughputReport {
        elapsed: start.elapsed(),
        per_thread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_all_threads() {
        let report = run_for(3, Duration::from_millis(50), |_t, _i| 1);
        assert_eq!(report.per_thread.len(), 3);
        assert!(report.total_ops() > 0);
        assert!(report.elapsed >= Duration::from_millis(50));
        assert!(report.mops() > 0.0);
    }

    #[test]
    fn worker_index_passed_through() {
        use std::sync::atomic::AtomicU64;
        let seen = [const { AtomicU64::new(0) }; 4];
        run_for(4, Duration::from_millis(20), |t, _| {
            seen[t].fetch_add(1, Ordering::Relaxed);
            1
        });
        for s in &seen {
            assert!(s.load(Ordering::Relaxed) > 0);
        }
    }

    #[test]
    fn ops_accumulate_from_return_value() {
        let report = run_for(1, Duration::from_millis(20), |_, _| 10);
        assert_eq!(report.total_ops() % 10, 0);
    }
}
