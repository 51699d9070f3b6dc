//! The load generators. Three families — `mem`, `durable`, `net` (paced
//! and saturated) — share one shape: set up, then drive the product
//! through back-to-back phases on one clock: a warm-up that is thrown
//! away, an untraced reference phase (traced runs only, to price the
//! tracing), and the measured window, cut into [`SLICES`] equal slices.
//!
//! Every end-to-end number is the **median over all twelve slices** of
//! that slice's rate, percentile or CPU per operation. The host is a
//! shared sandbox whose interference comes in bursts of a slice or two;
//! a median over slices shrugs those off without discarding any slice
//! beforehand, and anything the product does at least once per slice
//! (a checkpoint, a collection burst) is in every slice and so in the
//! median. Each run also prints every slice and the whole-window
//! figures, so what the median passed over can be seen.

pub mod durable;
pub mod mem;
pub mod net;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::stats;
use crate::trace::{self, Span};

pub const SLICES: usize = 12;
pub const REFERENCE: usize = 1;
/// Phase index of the window's first slice.
pub const WINDOW: usize = 2;
const PHASES: usize = WINDOW + SLICES;

/// What one run of one family is asked to do.
pub struct Cfg {
    pub seed: u64,
    /// How many times to set up; `setup_s` is the median. The first
    /// instance is the one measured.
    pub setups: usize,
    /// Seconds of warm-up, reference and window.
    pub secs: [f64; 3],
    /// Record spans (and time storage calls) during the window, and run
    /// the family's floors afterwards.
    pub traced: bool,
    /// Scratch directory of this run.
    pub data_dir: PathBuf,
}

/// Phase boundaries on the trace clock, fixed before any worker starts,
/// so workers need no signalling: each runs a phase until its end time.
#[derive(Clone, Copy)]
pub struct Phases {
    pub start: u64,
    pub ends: [u64; PHASES],
    pub traced: bool,
}

impl Phases {
    pub fn starting_now(cfg: &Cfg) -> Phases {
        let start = trace::now_ns();
        let ns = |secs: f64| (secs * 1e9) as u64;
        let mut ends = [0u64; PHASES];
        ends[0] = start + ns(cfg.secs[0]);
        ends[REFERENCE] = ends[0] + ns(cfg.secs[1]);
        for s in 0..SLICES {
            ends[WINDOW + s] = ends[REFERENCE] + ns(cfg.secs[2] * (s + 1) as f64 / SLICES as f64);
        }
        Phases {
            start,
            ends,
            traced: cfg.traced,
        }
    }

    /// The phase `now` falls in; `None` once the window has ended.
    #[inline]
    pub fn at(&self, now: u64) -> Option<usize> {
        self.ends.iter().position(|&end| now < end)
    }

    /// Should operation `id`, issued in `phase`, record spans?
    #[inline]
    pub fn sampled(&self, phase: usize, id: u64) -> bool {
        self.traced && phase >= WINDOW && id.is_multiple_of(trace::SAMPLE_EVERY)
    }

    /// For the coordinator thread: sleep to the start of the window and
    /// then to the end of every slice, calling `at_edge(i)` at each of
    /// those `SLICES + 1` edges.
    pub fn watch(&self, mut at_edge: impl FnMut(usize)) {
        for (i, &edge) in self.ends[REFERENCE..].iter().enumerate() {
            let now = trace::now_ns();
            if edge > now {
                std::thread::sleep(Duration::from_nanos(edge - now));
            }
            at_edge(i);
        }
    }
}

/// What one load thread did in one phase. An operation belongs to the
/// phase it was issued in; a phase's rate is its count over the phase's
/// planned length (a thread overruns an edge by one operation at most).
#[derive(Default)]
pub struct PhaseOut {
    /// Completed operations of every kind, writes included.
    pub ops: u64,
    /// Those of them that mutate: write transaction, durable commit, PUT.
    pub writes: u64,
    /// Operations that errored, were refused, or returned a wrong result.
    pub failed: u64,
    /// Latencies in ns of a sample that every operation, of either kind,
    /// is equally likely to be in.
    pub op_lat: Vec<u64>,
    /// Latencies of the writes.
    pub write_lat: Vec<u64>,
}

impl PhaseOut {
    pub fn per_phase() -> Vec<PhaseOut> {
        (0..PHASES).map(|_| PhaseOut::default()).collect()
    }
}

/// The end-to-end figures of one stretch of time, all load threads
/// together. Latencies in µs; 0 where the stretch has no sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct Figures {
    pub ops_per_s: f64,
    pub writes_per_s: f64,
    pub op_p50_us: f64,
    pub op_p90_us: f64,
    pub op_p99_us: f64,
    pub write_p50_us: f64,
    pub write_p90_us: f64,
    pub write_p99_us: f64,
    pub cpu_us_per_op: f64,
}

impl Figures {
    /// `op_lat` and `write_lat` are sorted here.
    fn of(p: &mut PhaseOut, secs: f64, cpu_us: u64) -> Figures {
        p.op_lat.sort_unstable();
        p.write_lat.sort_unstable();
        let pct = |lat: &[u64], q: f64| {
            if lat.is_empty() {
                0.0
            } else {
                stats::percentile(lat, q) as f64 / 1e3
            }
        };
        Figures {
            ops_per_s: p.ops as f64 / secs,
            writes_per_s: p.writes as f64 / secs,
            op_p50_us: pct(&p.op_lat, 0.5),
            op_p90_us: pct(&p.op_lat, 0.9),
            op_p99_us: pct(&p.op_lat, 0.99),
            write_p50_us: pct(&p.write_lat, 0.5),
            write_p90_us: pct(&p.write_lat, 0.9),
            write_p99_us: pct(&p.write_lat, 0.99),
            cpu_us_per_op: if p.ops > 0 {
                cpu_us as f64 / p.ops as f64
            } else {
                0.0
            },
        }
    }
}

/// One family's run, summed over its load threads.
#[derive(Default)]
pub struct FamilyOut {
    /// The window slice by slice.
    pub slices: Vec<Figures>,
    /// Each figure's median over the slices — what the run reports.
    pub median: Figures,
    /// The window as one stretch: totals over its length, percentiles
    /// over all its samples.
    pub whole: Figures,
    /// Median of the run's set-ups, and each of them.
    pub setup_s: f64,
    pub setups_s: Vec<f64>,
    /// `VmHWM` after the measured instance's checks, before the extra
    /// set-ups.
    pub peak_rss_mb: f64,
    /// Totals and all latency samples (sorted) of the window, and of the
    /// reference phase before it.
    pub window: PhaseOut,
    pub reference: PhaseOut,
    /// Tracing overhead: 1 − window ÷ reference throughput (or the
    /// ratio of median latencies − 1 where throughput is fixed).
    pub overhead_share: f64,
    /// The per-layer metrics this workload exercises.
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Vec<Span>>,
    /// Path-copy length, for the plm share estimate.
    pub nodes_alloc_per_write: f64,
    /// Failed end-of-run checks, in words.
    pub check_errors: Vec<String>,
}

impl FamilyOut {
    /// Fold the threads' phases into the per-slice, median and
    /// whole-window figures. `cpu_us` holds the CPU clock of the threads
    /// under test at the window's `SLICES + 1` edges.
    pub fn absorb(&mut self, cfg: &Cfg, threads: Vec<Vec<PhaseOut>>, cpu_us: &[u64]) {
        assert_eq!(cpu_us.len(), SLICES + 1, "one CPU reading per edge");
        let mut phases = PhaseOut::per_phase();
        for t in threads {
            for (sum, p) in phases.iter_mut().zip(t) {
                sum.ops += p.ops;
                sum.writes += p.writes;
                sum.failed += p.failed;
                sum.op_lat.extend(p.op_lat);
                sum.write_lat.extend(p.write_lat);
            }
        }
        let slice_secs = cfg.secs[2] / SLICES as f64;
        for (s, p) in phases[WINDOW..].iter_mut().enumerate() {
            self.slices
                .push(Figures::of(p, slice_secs, cpu_us[s + 1] - cpu_us[s]));
            self.window.ops += p.ops;
            self.window.writes += p.writes;
            self.window.failed += p.failed;
            self.window.op_lat.append(&mut p.op_lat);
            self.window.write_lat.append(&mut p.write_lat);
        }
        self.whole = Figures::of(&mut self.window, cfg.secs[2], cpu_us[SLICES] - cpu_us[0]);
        let median = |f: fn(&Figures) -> f64| {
            let v: Vec<f64> = self.slices.iter().map(f).filter(|&v| v > 0.0).collect();
            if v.is_empty() {
                0.0
            } else {
                stats::median_f64(&v)
            }
        };
        self.median = Figures {
            ops_per_s: median(|s| s.ops_per_s),
            writes_per_s: median(|s| s.writes_per_s),
            op_p50_us: median(|s| s.op_p50_us),
            op_p90_us: median(|s| s.op_p90_us),
            op_p99_us: median(|s| s.op_p99_us),
            write_p50_us: median(|s| s.write_p50_us),
            write_p90_us: median(|s| s.write_p90_us),
            write_p99_us: median(|s| s.write_p99_us),
            cpu_us_per_op: median(|s| s.cpu_us_per_op),
        };
        // Like with like: both sides are totals over their whole phase.
        self.reference = std::mem::take(&mut phases[REFERENCE]);
        if self.reference.ops > 0 {
            let ref_rate = self.reference.ops as f64 / cfg.secs[1];
            self.overhead_share = 1.0 - self.whole.ops_per_s / ref_rate;
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_errors.push(what());
        }
    }

    /// Call once the measured instance is checked and torn down: records
    /// the peak RSS, then sets up `cfg.setups - 1` more times and takes
    /// the median set-up time. (Extra instances come last so that the
    /// peak is one instance's, not the allocator's leftovers of several.)
    pub fn finish_setups<T>(
        &mut self,
        cfg: &Cfg,
        first_s: f64,
        mut setup: impl FnMut() -> T,
        mut teardown: impl FnMut(T),
    ) {
        self.peak_rss_mb = crate::sys::peak_rss_mb();
        self.setups_s = vec![first_s];
        for _ in 1..cfg.setups {
            let (instance, secs) = timed(&mut setup);
            self.setups_s.push(secs);
            teardown(instance);
        }
        self.setup_s = stats::median_f64(&self.setups_s);
    }
}

/// Time one set-up.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = setup();
    (v, t0.elapsed().as_secs_f64())
}

/// Median duration (or self time, with `own`) of the spans named `name`;
/// `None` if there is none.
pub fn span_p50(
    spans: &BTreeMap<&'static str, trace::NameStats>,
    name: &str,
    own: bool,
) -> Option<f64> {
    let s = spans.get(name)?;
    p50(&mut if own { s.selfs.clone() } else { s.durs.clone() })
}

/// A percentile in ns; `None` for an empty sample: the metric is then
/// not applicable.
fn pct(samples: &mut [u64], q: f64) -> Option<f64> {
    samples.sort_unstable();
    (!samples.is_empty()).then(|| stats::percentile(samples, q) as f64)
}

pub fn p50(samples: &mut [u64]) -> Option<f64> {
    pct(samples, 0.5)
}

pub fn p95(samples: &mut [u64]) -> Option<f64> {
    pct(samples, 0.95)
}

pub fn p99(samples: &mut [u64]) -> Option<f64> {
    pct(samples, 0.99)
}

/// Collect the per-layer metrics that were measured.
pub fn layers<const N: usize>(
    rows: [(&'static str, Option<f64>); N],
) -> BTreeMap<&'static str, f64> {
    rows.into_iter()
        .filter_map(|(name, v)| Some((name, v?)))
        .collect()
}
