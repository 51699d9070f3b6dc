//! `mem-read-heavy`: one reader beside one writer on the in-memory core
//! — the paper's §7.1 set-up. No WAL, no sockets.

use crate::adapters::{engine_floors, MemDb, MemSession};
use crate::gen::{Rng, Zipf};
use crate::trace;

use super::{layers, span_p50, timed, Cfg, FamilyOut, PhaseOut, Phases, WINDOW};

/// Rows: the node set (~48 MB) is far past L2.
const KEYS: u64 = 1 << 20;
/// Reader and writer.
pub const PROCESSES: usize = 2;
/// Pre-drawn operations per thread, cycled.
const OPS: usize = 1 << 20;
/// One read transaction in this many is a range sum.
const RANGE_EVERY: u64 = 16;
const RANGE_LEN: u64 = 1000;
/// One transaction in this many, of either kind, is in the latency
/// sample of all operations (a prime, so the samples do not line up with
/// the trace sampling). Every write is in the sample of writes.
const TIME_EVERY: u64 = 61;
/// What the writer asks to sleep for between commits (with timer slack
/// and wake-up it is back after ~130 µs, so it commits ~7 000 times a
/// second). Flat out, the writer commits 110 000 times a second and the
/// reader spends most of its time on the cache lines those commits just
/// rewrote: 270 k reads/s at 5 µs instead of 750 k at 1.4 µs. That is a
/// workload about the writer; this one is about reads beside a writer.
const WRITER_THINK: std::time::Duration = std::time::Duration::from_micros(50);
/// Marks a pre-drawn operation as a range sum.
const RANGE_BIT: u64 = 1 << 63;

fn draw_ops(seed: u64, stream: u64, zipf: &Zipf) -> Vec<u64> {
    let mut rng = Rng::new(seed, stream);
    (0..OPS)
        .map(|_| {
            let k = zipf.sample(&mut rng);
            if rng.below(RANGE_EVERY) == 0 {
                k | RANGE_BIT
            } else {
                k
            }
        })
        .collect()
}

#[derive(Default)]
struct Gauges {
    live_versions_max: u64,
    live_nodes_max: u64,
}

fn reader(db: &MemDb, ops: &[u64], ph: &Phases) -> (Vec<PhaseOut>, Gauges) {
    crate::sys::bind_to_cpu(0);
    let mut s = db.session();
    let mut out = PhaseOut::per_phase();
    let mut g = Gauges::default();
    let mut i = 0u64;
    let mut now = trace::now_ns();
    while let Some(phase) = ph.at(now) {
        let o = &mut out[phase];
        loop {
            i += 1;
            let op = ops[i as usize % OPS];
            let timed = i.is_multiple_of(TIME_EVERY);
            let t0 = if timed { trace::now_ns() } else { 0 };
            let ok = {
                let _op = trace::op("op.read", i, ph.sampled(phase, i));
                read_txn(&mut s, op)
            };
            o.ops += 1;
            o.failed += !ok as u64;
            if timed {
                now = trace::now_ns();
                o.op_lat.push(now - t0);
                // Precision, sampled where the clock is read anyway: at
                // most one version per session plus the current one.
                let live = db.live_versions();
                o.failed += (live > PROCESSES as u64 + 1) as u64;
                g.live_versions_max = g.live_versions_max.max(live);
                g.live_nodes_max = g.live_nodes_max.max(db.live_nodes());
                if now >= ph.ends[phase] {
                    break;
                }
            }
        }
    }
    (out, g)
}

/// One read transaction; `false` if what it saw breaks snapshot
/// atomicity: the two keys of a pair always carry the same stamp, so a
/// pair-aligned range sums to an even number.
#[inline]
fn read_txn(s: &mut MemSession<'_>, op: u64) -> bool {
    let k = op & !RANGE_BIT;
    if op & RANGE_BIT != 0 {
        let lo = (k & !1).min(KEYS - RANGE_LEN);
        s.range_sum(lo, lo + RANGE_LEN - 1).is_multiple_of(2)
    } else {
        matches!(s.read_pair(k), (Some(a), Some(b)) if a == b)
    }
}

struct WriterOut {
    phases: Vec<PhaseOut>,
    /// Arena counters' growth over the window.
    nodes_allocated: u64,
    nodes_freed: u64,
}

fn writer(db: &MemDb, ops: &[u64], ph: &Phases) -> WriterOut {
    crate::sys::bind_to_cpu(1);
    let mut s = db.session();
    let mut out = PhaseOut::per_phase();
    let mut at_window = db.arena_totals();
    let mut i = 0u64;
    let mut now = trace::now_ns();
    while let Some(phase) = ph.at(now) {
        let o = &mut out[phase];
        if phase == WINDOW {
            at_window = db.arena_totals();
        }
        while now < ph.ends[phase] {
            i += 1;
            let k = ops[i as usize % OPS] & !RANGE_BIT;
            {
                let _op = trace::op("op.write", i, ph.sampled(phase, i));
                s.write_pair(k, i);
            }
            o.ops += 1;
            o.writes += 1;
            let lat = trace::now_ns() - now;
            o.write_lat.push(lat);
            if i.is_multiple_of(TIME_EVERY) {
                o.op_lat.push(lat);
            }
            std::thread::sleep(WRITER_THINK);
            now = trace::now_ns();
        }
    }
    let after = db.arena_totals();
    WriterOut {
        phases: out,
        nodes_allocated: after.allocated - at_window.allocated,
        nodes_freed: after.freed - at_window.freed,
    }
}

fn setup() -> MemDb {
    let db = MemDb::new(PROCESSES);
    db.preload(KEYS);
    db
}

pub fn run(cfg: &Cfg) -> FamilyOut {
    let mut out = FamilyOut::default();
    let (db, first_setup_s) = timed(setup);
    let zipf = Zipf::new(KEYS, 0.99);
    let read_ops = draw_ops(cfg.seed, 1, &zipf);
    let write_ops = draw_ops(cfg.seed, 2, &zipf);

    let ph = Phases::starting_now(cfg);
    let mut cpu = Vec::new();
    let (r, w) = std::thread::scope(|sc| {
        let r = sc.spawn(|| (reader(&db, &read_ops, &ph), trace::take()));
        let w = sc.spawn(|| (writer(&db, &write_ops, &ph), trace::take()));
        ph.watch(|_| cpu.push(crate::sys::process_cpu_us()));
        (r.join().expect("reader"), w.join().expect("writer"))
    });
    let (((r_phases, gauges), r_spans), (w_out, w_spans)) = (r, w);
    let commits: u64 = w_out.phases[WINDOW..].iter().map(|p| p.writes).sum();
    let commits = commits.max(1) as f64;
    out.absorb(cfg, vec![r_phases, w_out.phases], &cpu);
    out.spans = vec![r_spans, w_spans];

    // Quiescence: both sessions are gone, so precise GC must have left
    // exactly the current version and exactly its nodes.
    let live_versions = db.live_versions();
    out.check(live_versions == 1, || {
        format!("live_versions() == {live_versions} at quiescence, want 1")
    });
    let (live, reachable) = (db.live_nodes(), db.reachable_nodes());
    out.check(live == reachable && reachable == KEYS, || {
        format!("arena holds {live} nodes, {reachable} reachable from the root, want {KEYS}")
    });
    out.check(gauges.live_versions_max <= PROCESSES as u64 + 1, || {
        format!(
            "saw {} live versions, bound is {}",
            gauges.live_versions_max,
            PROCESSES + 1
        )
    });

    out.nodes_alloc_per_write = w_out.nodes_allocated as f64 / commits;
    let (commits_all, aborts_all) = db.txn_counts();
    drop(db);
    out.finish_setups(cfg, first_setup_s, setup, drop);
    let spans = trace::aggregate(&out.spans);
    out.layers = layers([
        ("plm.nodes_alloc_per_write", Some(out.nodes_alloc_per_write)),
        (
            "plm.nodes_freed_per_write",
            Some(w_out.nodes_freed as f64 / commits),
        ),
        ("plm.live_nodes_max", Some(gauges.live_nodes_max as f64)),
        (
            "vm.live_versions_max",
            Some(gauges.live_versions_max as f64),
        ),
        (
            "core.txn_abort_share",
            Some(aborts_all as f64 / (commits_all + aborts_all).max(1) as f64),
        ),
        ("ftree.get_ns", span_p50(&spans, "ftree.get", false)),
        (
            "ftree.range_sum_ns",
            span_p50(&spans, "ftree.range_sum", false),
        ),
        ("ftree.update_ns", span_p50(&spans, "ftree.update", false)),
        (
            "core.read_txn_self_ns",
            span_p50(&spans, "core.read_txn", true),
        ),
        (
            "core.write_txn_self_ns",
            span_p50(&spans, "core.write_txn", true),
        ),
    ]);
    if cfg.traced {
        out.layers.extend(engine_floors(PROCESSES));
    }
    out
}
