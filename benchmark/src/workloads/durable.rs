//! `durable-commit`: two writers committing through the WAL with an
//! fsync per group, with checkpoints driven from writer 0. The tree work
//! is a few µs of a ~300 µs commit.

use std::collections::HashMap;
use std::path::Path;

use crate::adapters::{engine_floors, recover_dir, wal_floor, DurDb};
use crate::gen::Rng;
use crate::trace;

use super::{layers, p50, p99, span_p50, timed, Cfg, FamilyOut, PhaseOut, Phases, WINDOW};

const KEYS: u64 = 1 << 16;
/// The minimum that lets leader group commit form groups.
const WRITERS: u64 = 2;
/// One pid per writer and one for the checkpointer.
pub const PROCESSES: usize = WRITERS as usize + 1;
/// Writer 0 runs one supervisor step every this many commits.
const TICK_EVERY: u64 = 256;
const WAL_BYTES_THRESHOLD: u64 = 1 << 20;
/// What a user stored per inserted pair: two u64.
const USER_BYTES_PER_PAIR: f64 = 16.0;

struct WriterOut {
    phases: Vec<PhaseOut>,
    /// Last value this writer saw acknowledged per key (it owns the keys
    /// congruent to its index, so nobody else writes them).
    model: HashMap<u64, u64>,
    checkpoint_ns: Vec<u64>,
    errors: Vec<String>,
}

fn writer(db: &DurDb, w: u64, seed: u64, ph: &Phases) -> WriterOut {
    crate::sys::bind_to_cpu(w as usize);
    let mut s = db.session();
    let mut rng = Rng::new(seed, w);
    let mut out = WriterOut {
        phases: PhaseOut::per_phase(),
        model: HashMap::new(),
        checkpoint_ns: Vec::new(),
        errors: Vec::new(),
    };
    let mut i = 0u64;
    let mut now = trace::now_ns();
    while let Some(phase) = ph.at(now) {
        let o = &mut out.phases[phase];
        while now < ph.ends[phase] {
            i += 1;
            let kv: [(u64, u64); 4] = std::array::from_fn(|j| {
                (rng.below(KEYS / WRITERS) * WRITERS + w, i * 4 + j as u64)
            });
            let t0 = now;
            let done = {
                let _op = trace::op("op.write", i, ph.sampled(phase, i));
                s.commit4(&kv).and_then(|ack| ack.wait())
            };
            now = trace::now_ns();
            o.ops += 1;
            o.writes += 1;
            o.op_lat.push(now - t0);
            o.write_lat.push(now - t0);
            match done {
                Ok(()) => out.model.extend(kv),
                Err(e) => {
                    o.failed += 1;
                    if out.errors.len() < 8 {
                        out.errors.push(e);
                    }
                    continue;
                }
            }

            if w == 0 && i.is_multiple_of(TICK_EVERY) {
                let tick = trace::op("op.maintenance", i, ph.traced && phase >= WINDOW);
                match db.maintenance_tick(WAL_BYTES_THRESHOLD) {
                    Ok(true) => out.checkpoint_ns.push(trace::now_ns() - now),
                    Ok(false) => {}
                    Err(e) => out.errors.push(e),
                }
                drop(tick);
                now = trace::now_ns();
            }
        }
    }
    out
}

fn setup(dir: &Path) -> DurDb {
    let db = DurDb::open(dir, PROCESSES).expect("open durable database");
    db.preload(KEYS).expect("preload");
    db
}

pub fn run(cfg: &Cfg) -> FamilyOut {
    let mut out = FamilyOut::default();
    let live_dir = cfg.data_dir.join("durable-live");
    let (db, first_setup_s) = timed(|| setup(&live_dir));

    let ph = Phases::starting_now(cfg);
    let mut cpu = Vec::new();
    let mut at_window = (db.stats(), db.storage.counts(), db.arena_totals());
    let results: Vec<(WriterOut, Vec<trace::Span>)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (db, ph) = (&db, &ph);
                sc.spawn(move || (writer(db, w, cfg.seed, ph), trace::take()))
            })
            .collect();
        ph.watch(|edge| {
            cpu.push(crate::sys::process_cpu_us());
            if edge == 0 {
                at_window = (db.stats(), db.storage.counts(), db.arena_totals());
                db.storage.set_timed(cfg.traced);
            }
        });
        handles
            .into_iter()
            .map(|h| h.join().expect("writer"))
            .collect()
    });
    db.storage.set_timed(false);
    let (stats, counts, arena) = (db.stats(), db.storage.counts(), db.arena_totals());
    let (stats0, counts0, arena0) = at_window;
    let (mut append_ns, mut sync_ns) = db.storage.take_times();

    let mut model: HashMap<u64, u64> = (0..KEYS).map(|k| (k, k)).collect();
    let mut checkpoint_ns = Vec::new();
    let mut phases = Vec::new();
    for (w, spans) in results {
        model.extend(w.model);
        checkpoint_ns.extend(w.checkpoint_ns);
        out.check_errors.extend(w.errors);
        phases.push(w.phases);
        out.spans.push(spans);
    }
    out.absorb(cfg, phases, &cpu);
    let commits = out.window.writes.max(1) as f64;

    // One last commit whose ack is never waited on: a crash may keep it
    // or lose it, but must not tear it.
    let last: [(u64, u64); 4] = std::array::from_fn(|j| (j as u64 * 2, u64::MAX - j as u64));
    if let Err(e) = db.session().commit4(&last) {
        out.check_errors.push(format!("final commit: {e}"));
    }

    // Crash: keep only what was synced, recover from that, and compare
    // with what the writers saw acknowledged.
    let crash_dir = cfg.data_dir.join("durable-crashed");
    let recovered = db
        .storage
        .copy_crash_view(&crash_dir)
        .map_err(|e| e.to_string())
        .and_then(|()| recover_dir(&crash_dir, PROCESSES));
    let (mut recover_ms, mut replayed) = (None, None);
    match recovered {
        Err(e) => out.check_errors.push(format!("crash recovery: {e}")),
        Ok(r) => {
            recover_ms = Some(r.recover_ms);
            replayed = Some(r.replayed_batches as f64);
            let got: HashMap<u64, u64> = r.contents.into_iter().collect();
            let mut with_last = model.clone();
            with_last.extend(last);
            out.check(got == model || got == with_last, || {
                let missing = model.iter().filter(|(k, v)| got.get(k) != Some(v)).count();
                format!(
                    "recovered {} keys; {missing} of {} acknowledged values are missing or wrong",
                    got.len(),
                    model.len()
                )
            });
        }
    }

    let _ = std::fs::remove_dir_all(&crash_dir);
    let final_wal_bytes = db.stats().wal_bytes;
    let teardown = |db: DurDb| {
        drop(db);
        let _ = std::fs::remove_dir_all(&live_dir);
    };
    teardown(db);
    out.finish_setups(cfg, first_setup_s, || setup(&live_dir), teardown);

    let groups = (stats.groups - stats0.groups).max(1) as f64;
    let bytes = (counts.bytes - counts0.bytes) as f64;
    out.nodes_alloc_per_write = (arena.allocated - arena0.allocated) as f64 / commits;
    let spans = trace::aggregate(&out.spans);
    let us = |ns: Option<f64>| ns.map(|ns| ns / 1e3);
    out.layers = layers([
        ("ftree.update_ns", span_p50(&spans, "ftree.update", false)),
        (
            "durable.commit_self_us",
            us(span_p50(&spans, "durable.write_acked", true)),
        ),
        (
            "durable.ack_wait_us",
            us(span_p50(&spans, "durable.ack_wait", false)),
        ),
        (
            "durable.group_size_mean",
            Some((stats.batches - stats0.batches) as f64 / groups),
        ),
        (
            "durable.flush_us_mean",
            Some((stats.flush_ns_total - stats0.flush_ns_total) as f64 / groups / 1e3),
        ),
        (
            "durable.blocked_enqueues",
            Some((stats.blocked_enqueues - stats0.blocked_enqueues) as f64),
        ),
        (
            "durable.checkpoints",
            Some((stats.checkpoints - stats0.checkpoints) as f64),
        ),
        (
            "durable.checkpoint_ms_p50",
            p50(&mut checkpoint_ns).map(|ns| ns / 1e6),
        ),
        ("durable.recover_ms", recover_ms),
        ("durable.replayed_batches", replayed),
        ("storage.append_us_p50", us(p50(&mut append_ns))),
        ("storage.sync_us_p50", us(p50(&mut sync_ns))),
        ("storage.sync_us_p99", us(p99(&mut sync_ns))),
        (
            "storage.appends_per_commit",
            Some((counts.appends - counts0.appends) as f64 / commits),
        ),
        (
            "storage.syncs_per_commit",
            Some((counts.syncs - counts0.syncs) as f64 / commits),
        ),
        (
            "storage.calls_per_commit",
            Some((counts.calls - counts0.calls) as f64 / commits),
        ),
        ("storage.bytes_per_commit", Some(bytes / commits)),
        ("wal.final_bytes", Some(final_wal_bytes as f64)),
        (
            "wal.bytes_per_user_byte",
            Some(bytes / (commits * 4.0 * USER_BYTES_PER_PAIR)),
        ),
    ]);
    if cfg.traced {
        out.layers.extend(engine_floors(PROCESSES));
        out.layers.extend(wal_floor());
    }
    out
}
