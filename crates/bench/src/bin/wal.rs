//! Durability cost and recovery scaling: what the WAL charges per commit
//! under each fsync policy, and how recovery time grows with the length
//! of the un-checkpointed WAL tail.
//!
//! Three experiment families, all into `BENCH_wal.json`:
//!
//! * `modes` — a single durable writer committing fixed-size batches of
//!   Zipfian updates against real files for `MVCC_SECS`, once per
//!   `Durability::{Off, EveryN(8), Always}`. Reports commits/s, ops/s
//!   and the per-commit latency distribution. `off` runs the unchanged
//!   in-memory commit path (the no-regression baseline the acceptance
//!   criteria cite); `always` pays one fsync per commit, so the gap
//!   between the three rows *is* the durability price list.
//! * `group_commit` — 1/2/4/8 concurrent `Durability::Always` writers,
//!   once with each writer paying its own fsync
//!   ([`GroupCommit::Serial`], the `always` mode's multi-writer shape)
//!   and once with overlapping commits coalescing into shared fsyncs
//!   ([`GroupCommit::Leader`]). The leader rows should match serial at
//!   one writer (nothing overlaps) and pull ahead as writers are added,
//!   with `mean_group` telling how many commits each fsync amortized.
//! * `recovery` — fill a WAL tail of `N` batches (no checkpoint), then
//!   time `DurableDatabase::recover`; repeat with a checkpoint taken
//!   right before the tail so only the tail replays. Recovery must scale
//!   with the tail, not the database: the checkpointed rows stay flat as
//!   the pre-checkpoint history grows.
//! * `bounded_queue` — one [`GroupCommit::Leader`] writer calling
//!   `write_acked` flat out and never awaiting the acks, once with the
//!   commit queue unbounded and once capped at a small watermark. With
//!   nobody waiting, nothing flushes the unbounded tail until the final
//!   `sync`; at the watermark a blocked commit leads the flush itself,
//!   so the bounded row rate-matches the writer to the disk (its
//!   `blocked_enqueues` / `blocked_ms` show the backpressure actually
//!   engaging) instead of letting unfsynced batches pile up in memory.
//! * `maintenance` — the same time-boxed writer, once bare and once
//!   with the background supervisor
//!   ([`DurableDatabase::start_maintenance`]) checkpointing at the
//!   `MVCC_CKPT_BYTES` wal-bytes threshold. The unsupervised row's WAL
//!   footprint and recovery time grow linearly with the run; the
//!   supervised row's stay bounded near the threshold — that bound is
//!   the row pair's whole point.
//!
//! Knobs: `MVCC_SECS` (per-mode measurement window), `MVCC_KEYSPACE`
//! (Zipfian key space), `MVCC_WAL_BATCH` (ops per commit, default 16),
//! `MVCC_WAL_TAIL` (longest recovery tail, default 4000),
//! `MVCC_WAL_BOUND` (bounded-queue watermark, default 4 batches),
//! `MVCC_CKPT_BYTES` (supervisor checkpoint threshold, default 256 KiB).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvcc_bench::json::{self, JsonWriter};
use mvcc_bench::{env_u64, run_secs};
use mvcc_core::{
    Durability, DurableConfig, DurableDatabase, DurableSession, GroupCommit, MaintenancePolicy,
};
use mvcc_ftree::U64Map;
use mvcc_workloads::{run_for_collect, LatencySummary, ScrambledZipf};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn mode_name(d: Durability) -> &'static str {
    match d {
        Durability::Off => "off",
        Durability::EveryN(_) => "every8",
        Durability::Always => "always",
    }
}

/// A scratch directory under the system temp dir, fresh per call.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvcc-bench-wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &PathBuf, durability: Durability) -> DurableDatabase<U64Map> {
    match DurableDatabase::recover(dir, 2, DurableConfig::default().with_durability(durability)) {
        Ok(db) => db,
        Err(e) => panic!("open {}: {e}", dir.display()),
    }
}

/// One time-boxed single-writer run; returns (commits/s, ops/s, latency).
fn measure_mode(
    durability: Durability,
    secs: f64,
    batch: u64,
    zipf: &ScrambledZipf,
) -> (f64, f64, LatencySummary) {
    let dir = scratch_dir(mode_name(durability));
    let db = open(&dir, durability);
    let (report, states) = run_for_collect(
        1,
        Duration::from_secs_f64(secs),
        |_| {
            (
                db.session().expect("fresh pool has a free lease"),
                SmallRng::seed_from_u64(42),
                Vec::<u64>::new(),
            )
        },
        |_, iter, (session, rng, samples): &mut (DurableSession<'_, U64Map>, _, _)| {
            let t0 = Instant::now();
            session
                .write(|txn| {
                    for i in 0..batch {
                        txn.insert(zipf.sample(rng), iter * batch + i);
                    }
                })
                .expect("durable commit");
            samples.push(t0.elapsed().as_nanos() as u64);
            1
        },
    );
    let commits_per_sec = report.ops_per_sec();
    let mut samples = states.into_iter().next().map(|(_, _, s)| s).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (
        commits_per_sec,
        commits_per_sec * batch as f64,
        LatencySummary::from_ns(&mut samples),
    )
}

fn group_name(g: GroupCommit) -> &'static str {
    match g {
        GroupCommit::Serial => "serial",
        GroupCommit::Leader => "leader",
    }
}

/// One time-boxed multi-writer `Durability::Always` run; returns total
/// commits/s, the merged per-commit latency across writers, and the
/// mean records-per-fsync the WAL achieved.
fn measure_group(
    writers: usize,
    group: GroupCommit,
    secs: f64,
    batch: u64,
    zipf: &ScrambledZipf,
) -> (f64, LatencySummary, f64) {
    let dir = scratch_dir(&format!("group-{writers}-{}", group_name(group)));
    let db: DurableDatabase<U64Map> = DurableDatabase::recover(
        &dir,
        writers,
        DurableConfig::default().with_group_commit(group),
    )
    .unwrap_or_else(|e| panic!("open {}: {e}", dir.display()));
    let (report, states) = run_for_collect(
        writers,
        Duration::from_secs_f64(secs),
        |i| {
            (
                db.session().expect("pool sized to the writer count"),
                SmallRng::seed_from_u64(42 + i as u64),
                Vec::<u64>::new(),
            )
        },
        |_, iter, (session, rng, samples): &mut (DurableSession<'_, U64Map>, _, _)| {
            let t0 = Instant::now();
            session
                .write(|txn| {
                    for i in 0..batch {
                        txn.insert(zipf.sample(rng), iter * batch + i);
                    }
                })
                .expect("durable commit");
            samples.push(t0.elapsed().as_nanos() as u64);
            1
        },
    );
    let mean_group = db.durable_stats().mean_group();
    let mut samples: Vec<u64> = states.into_iter().flat_map(|(_, _, s)| s).collect();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    (
        report.ops_per_sec(),
        LatencySummary::from_ns(&mut samples),
        mean_group,
    )
}

/// One time-boxed saturation run: a single `Leader` writer calling
/// `write_acked` flat out without awaiting its acks, with the commit
/// queue either unbounded (`bound == 0`) or capped at `bound` batches.
/// Returns (commits/s, final durable stats).
fn measure_saturation(
    bound: usize,
    secs: f64,
    batch: u64,
    zipf: &ScrambledZipf,
) -> (f64, mvcc_core::DurableStats) {
    let dir = scratch_dir(&format!("sat-{bound}"));
    let mut cfg = DurableConfig::default().with_group_commit(GroupCommit::Leader);
    if bound > 0 {
        cfg = cfg.with_max_pending_batches(bound);
    }
    let db: DurableDatabase<U64Map> = DurableDatabase::recover(&dir, 2, cfg)
        .unwrap_or_else(|e| panic!("open {}: {e}", dir.display()));
    let (report, _) = run_for_collect(
        1,
        Duration::from_secs_f64(secs),
        |_| {
            (
                db.session().expect("fresh pool has a free lease"),
                SmallRng::seed_from_u64(42),
            )
        },
        |_, iter, (session, rng): &mut (DurableSession<'_, U64Map>, _)| {
            // The ack is dropped: the bench measures the enqueue path
            // and the queue bound, not fsync completion latency (the
            // final `db.sync()` drains everything before stats).
            let _ack = session
                .write_acked(|txn| {
                    for i in 0..batch {
                        txn.insert(zipf.sample(rng), iter * batch + i);
                    }
                })
                .expect("acked durable commit");
            1
        },
    );
    db.sync().expect("drain the commit queue");
    let stats = db.durable_stats();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    (report.ops_per_sec(), stats)
}

/// One time-boxed run of the same single writer, with or without the
/// background maintenance supervisor bounding the WAL at `ckpt_bytes`.
/// Returns (commits/s, final wal bytes, checkpoints taken, batches
/// replayed on recovery, recover_ms).
fn measure_maintenance(
    supervised: bool,
    ckpt_bytes: u64,
    secs: f64,
    batch: u64,
    zipf: &ScrambledZipf,
) -> (f64, u64, u64, u64, f64) {
    let dir = scratch_dir(&format!("maint-{}", if supervised { "on" } else { "off" }));
    // EveryN keeps the fill disk-bound on frames, not fsyncs, so the
    // supervised/unsupervised rows see the same write pressure. Segments
    // roll well under the checkpoint threshold — only *sealed* segments
    // can be truncated, so rotation bounds what the supervisor reclaims.
    let db: Arc<DurableDatabase<U64Map>> = Arc::new(
        DurableDatabase::recover(
            &dir,
            2,
            DurableConfig {
                segment_bytes: (ckpt_bytes / 4).max(4 << 10),
                ..DurableConfig::default().with_durability(Durability::EveryN(8))
            },
        )
        .unwrap_or_else(|e| panic!("open {}: {e}", dir.display())),
    );
    let handle = supervised.then(|| {
        db.start_maintenance(MaintenancePolicy::default().with_wal_bytes_threshold(ckpt_bytes))
    });
    let (report, _) = run_for_collect(
        1,
        Duration::from_secs_f64(secs),
        |_| {
            (
                db.session().expect("fresh pool has a free lease"),
                SmallRng::seed_from_u64(42),
            )
        },
        |_, iter, (session, rng): &mut (DurableSession<'_, U64Map>, _)| {
            session
                .write(|txn| {
                    for i in 0..batch {
                        txn.insert(zipf.sample(rng), iter * batch + i);
                    }
                })
                .expect("durable commit");
            1
        },
    );
    if let Some(handle) = handle {
        handle.shutdown();
    }
    db.sync().expect("final sync");
    let wal_bytes = db.wal_bytes();
    let checkpoints = db.maintenance_stats().checkpoints;
    drop(db);
    let t0 = Instant::now();
    let db: DurableDatabase<U64Map> = DurableDatabase::recover(&dir, 2, DurableConfig::default())
        .unwrap_or_else(|e| panic!("recover {}: {e}", dir.display()));
    let elapsed = t0.elapsed();
    let replayed = db.recovery().replayed as u64;
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    (
        report.ops_per_sec(),
        wal_bytes,
        checkpoints,
        replayed,
        elapsed.as_secs_f64() * 1e3,
    )
}

/// Fill `history` then (optionally) checkpoint, then fill `tail` more
/// commits, then time recovery. Returns (replayed, recover_ms).
fn measure_recovery(history: u64, tail: u64, checkpoint: bool, batch: u64) -> (u64, f64) {
    let dir = scratch_dir(&format!(
        "rec-{history}-{tail}-{}",
        if checkpoint { "ck" } else { "raw" }
    ));
    // EveryN fill: every frame lands, sync cost stays off the fill's
    // critical path — the bench times recovery, not the fill.
    {
        let db = open(&dir, Durability::EveryN(64));
        let mut session = db.session().expect("fresh pool has a free lease");
        let mut commit = |i: u64| {
            session
                .write(|txn| {
                    for j in 0..batch {
                        txn.insert((i * batch + j) % 100_000, i);
                    }
                })
                .expect("durable commit");
        };
        for i in 0..history {
            commit(i);
        }
        if checkpoint {
            db.checkpoint().expect("checkpoint");
        }
        for i in history..history + tail {
            commit(i);
        }
        db.sync().expect("final sync");
    }
    let t0 = Instant::now();
    let db: DurableDatabase<U64Map> = DurableDatabase::recover(&dir, 2, DurableConfig::default())
        .unwrap_or_else(|e| {
            panic!("recover {}: {e}", dir.display());
        });
    let elapsed = t0.elapsed();
    let replayed = db.recovery().replayed as u64;
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    (replayed, elapsed.as_secs_f64() * 1e3)
}

fn main() {
    let secs = run_secs() / 2.0;
    let batch = env_u64("MVCC_WAL_BATCH", 16);
    let keyspace = env_u64("MVCC_KEYSPACE", 100_000);
    let tail_max = env_u64("MVCC_WAL_TAIL", 4_000);
    let zipf = ScrambledZipf::ycsb(keyspace);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "wal: {secs:.2}s per mode, {batch} ops/commit, keyspace {keyspace}, \
         recovery tails up to {tail_max}"
    );

    let mut jw = JsonWriter::bench("wal_durability");
    jw.field_u64("host_threads", nproc as u64);
    jw.field_f64("secs_per_mode", secs);
    jw.field_u64("ops_per_commit", batch);
    jw.field_u64("keyspace", keyspace);
    jw.field_str(
        "note",
        "single durable writer against real files; off = unchanged in-memory \
         commit path (no-regression baseline), every8 = group commit (fsync \
         every 8th), always = fsync per commit; recovery rows time \
         DurableDatabase::recover with the given un-checkpointed tail — \
         checkpointed rows replay only the tail, so they stay flat as the \
         pre-checkpoint history grows; group_commit rows run N concurrent \
         Always writers with per-commit fsyncs (serial) vs coalesced group \
         fsyncs (leader)",
    );

    jw.begin_object("modes");
    for durability in [Durability::Off, Durability::EveryN(8), Durability::Always] {
        let (commits, ops, latency) = measure_mode(durability, secs, batch, &zipf);
        println!(
            "  {:<7} {commits:>9.0} commits/s  {ops:>10.0} ops/s  p50 {:>8} ns  p99 {:>8} ns",
            mode_name(durability),
            latency.p50_ns,
            latency.p99_ns
        );
        jw.begin_object(mode_name(durability));
        jw.field_f64("commits_per_sec", commits);
        jw.field_f64("ops_per_sec", ops);
        jw.begin_object("commit_latency");
        jw.field_u64("count", latency.count);
        jw.field_u64("mean_ns", latency.mean_ns);
        jw.field_u64("p50_ns", latency.p50_ns);
        jw.field_u64("p99_ns", latency.p99_ns);
        jw.field_u64("max_ns", latency.max_ns);
        jw.end_object();
        jw.end_object();
    }
    jw.end_object();

    jw.begin_object("group_commit");
    for writers in [1usize, 2, 4, 8] {
        jw.begin_object(&format!("writers_{writers}"));
        for group in [GroupCommit::Serial, GroupCommit::Leader] {
            let (commits, latency, mean_group) = measure_group(writers, group, secs, batch, &zipf);
            println!(
                "  {writers} writer(s) {:<7} {commits:>9.0} commits/s  p50 {:>8} ns  \
                 p99 {:>8} ns  mean group {mean_group:.2}",
                group_name(group),
                latency.p50_ns,
                latency.p99_ns
            );
            jw.begin_object(group_name(group));
            jw.field_f64("commits_per_sec", commits);
            jw.field_f64("mean_records_per_fsync", mean_group);
            jw.begin_object("commit_latency");
            jw.field_u64("count", latency.count);
            jw.field_u64("mean_ns", latency.mean_ns);
            jw.field_u64("p50_ns", latency.p50_ns);
            jw.field_u64("p99_ns", latency.p99_ns);
            jw.field_u64("p999_ns", latency.p999_ns);
            jw.field_u64("max_ns", latency.max_ns);
            jw.end_object();
            jw.end_object();
        }
        jw.end_object();
    }
    jw.end_object();

    jw.begin_object("recovery");
    for tail in [tail_max / 40, tail_max / 4, tail_max] {
        let tail = tail.max(1);
        let (replayed, ms) = measure_recovery(0, tail, false, batch);
        println!("  tail {tail:>6} (raw)          replayed {replayed:>6}  {ms:>8.2} ms");
        jw.begin_object(&format!("tail_{tail}"));
        jw.field_u64("batches_replayed", replayed);
        jw.field_f64("recover_ms", ms);
        jw.end_object();

        // Same total history, but checkpointed before the tail: recovery
        // cost should track the tail length, not the full history.
        let (replayed, ms) = measure_recovery(tail_max - tail, tail, true, batch);
        println!("  tail {tail:>6} (checkpointed) replayed {replayed:>6}  {ms:>8.2} ms");
        jw.begin_object(&format!("checkpointed_tail_{tail}"));
        jw.field_u64("history_batches", tail_max - tail);
        jw.field_u64("batches_replayed", replayed);
        jw.field_f64("recover_ms", ms);
        jw.end_object();
    }
    jw.end_object();

    let bound = env_u64("MVCC_WAL_BOUND", 4) as usize;
    jw.begin_object("bounded_queue");
    for (name, b) in [("unbounded", 0usize), ("bounded", bound)] {
        let (commits, stats) = measure_saturation(b, secs, batch, &zipf);
        println!(
            "  queue {name:<9} {commits:>9.0} commits/s  blocked {:>6} enqueues \
             ({:>6.1} ms)  max flush {:>8.1} us",
            stats.blocked_enqueues,
            stats.blocked_ns as f64 / 1e6,
            stats.max_flush_ns as f64 / 1e3,
        );
        jw.begin_object(name);
        jw.field_u64("max_pending_batches", b as u64);
        jw.field_f64("commits_per_sec", commits);
        jw.field_u64("batches_flushed", stats.batches_flushed);
        jw.field_u64("groups_flushed", stats.groups_flushed);
        jw.field_u64("blocked_enqueues", stats.blocked_enqueues);
        jw.field_f64("blocked_ms", stats.blocked_ns as f64 / 1e6);
        jw.field_u64("max_flush_ns", stats.max_flush_ns);
        jw.end_object();
    }
    jw.end_object();

    let ckpt_bytes = env_u64("MVCC_CKPT_BYTES", 256 << 10);
    jw.begin_object("maintenance");
    for (name, supervised) in [("unsupervised", false), ("supervised", true)] {
        let (commits, wal_bytes, checkpoints, replayed, recover_ms) =
            measure_maintenance(supervised, ckpt_bytes, secs, batch, &zipf);
        println!(
            "  {name:<12} {commits:>9.0} commits/s  wal {:>9} B  {checkpoints:>3} ckpts  \
             recover {replayed:>6} batches in {recover_ms:>8.2} ms",
            wal_bytes,
        );
        jw.begin_object(name);
        jw.field_u64(
            "ckpt_bytes_threshold",
            if supervised { ckpt_bytes } else { 0 },
        );
        jw.field_f64("commits_per_sec", commits);
        jw.field_u64("final_wal_bytes", wal_bytes);
        jw.field_u64("checkpoints", checkpoints);
        jw.field_u64("batches_replayed", replayed);
        jw.field_f64("recover_ms", recover_ms);
        jw.end_object();
    }
    jw.end_object();

    json::write_repo_root("BENCH_wal.json", &jw.finish());
}
