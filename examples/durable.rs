//! Durable MVCC: open-or-recover a database from a directory, commit
//! through the WAL, simulate a crash (drop without checkpointing), and
//! recover — then watch a checkpoint cut the replay tail to zero, and
//! finally run concurrent committers under group commit.
//!
//! The commit protocol publishes every batch to the write-ahead log
//! *before* the version becomes visible, so anything a committed write
//! acknowledged is on disk (`Durability::Always` fsyncs per commit).
//! Recovery loads the newest checkpoint and replays the WAL tail; a torn
//! tail ends replay at the last intact record instead of failing. The
//! last acts switch on `GroupCommit::Leader` — overlapping commits
//! coalesce into shared fsyncs, acknowledged through awaitable
//! `CommitAck`s — and then hand the whole checkpoint/retention chore to
//! the background maintenance supervisor, which is killed mid-flight
//! and recovered from.
//!
//! ```sh
//! cargo run --release --example durable
//! ```

use std::sync::Arc;

use multiversion::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join(format!("mvcc-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Durability::Always, with tiny segments so the checkpoint's WAL
    // truncation is visible (only *sealed* segments can be dropped; the
    // default 8 MB rotation threshold would keep everything in one).
    let cfg = DurableConfig {
        segment_bytes: 256,
        ..DurableConfig::default()
    };

    // --- First life: seed some accounts, then "crash" --------------------
    {
        let db: DurableDatabase<SumU64Map> =
            DurableDatabase::recover(&dir, 2, cfg.clone()).expect("open empty dir");
        assert_eq!(db.recovery().replayed, 0, "nothing to replay yet");

        let mut session = db.session().expect("pid free");
        for account in 0..8u64 {
            session.insert(account, 1_000).expect("durable commit");
        }
        session
            .write(|txn| {
                // One atomic transfer: both legs in a single WAL batch.
                let a = *txn.get(&0).unwrap();
                let b = *txn.get(&1).unwrap();
                txn.insert(0, a - 250);
                txn.insert(1, b + 250);
            })
            .expect("durable commit");

        println!(
            "first life: committed ts {} ({} WAL bytes), then crashing without a checkpoint",
            db.last_commit_ts(),
            db.wal_bytes()
        );
        // Dropping here is the crash simulation: no checkpoint, no
        // graceful shutdown. Everything lives only in the WAL.
    }

    // --- Second life: recovery replays the whole WAL tail ----------------
    let db: DurableDatabase<SumU64Map> =
        DurableDatabase::recover(&dir, 2, cfg.clone()).expect("recover");
    let report = db.recovery().clone();
    println!(
        "recovered: checkpoint {:?}, {} batches replayed, last commit ts {}",
        report.checkpoint_ts,
        report.replayed,
        db.last_commit_ts()
    );
    assert_eq!(report.checkpoint_ts, None);
    assert_eq!(report.replayed, 9);
    // The segments on disk are zero-padded past their last frame; that
    // padding is each segment's clean end, not a torn tail.
    assert!(report.torn.is_none() && report.dropped_segments == 0);

    let mut session = db.session().expect("pid free");
    assert_eq!(session.get(&0), Some(750), "the transfer survived");
    assert_eq!(session.get(&1), Some(1_250));
    assert_eq!(session.read(|snap| snap.aug_total()), 8_000);

    // --- Checkpoint: pin a snapshot, walk it, truncate the WAL -----------
    // The checkpoint walks a pinned snapshot while writers keep
    // committing (the paper's delay-free readers, aimed at real I/O);
    // WAL segments older than its commit_ts are dropped afterwards.
    let before = db.wal_bytes();
    let ts = db.checkpoint().expect("checkpoint");
    session.insert(100, 42).expect("post-checkpoint commit");
    println!(
        "checkpointed at ts {ts}: WAL truncated {before} -> {} bytes",
        db.wal_bytes()
    );
    assert!(db.wal_bytes() < before, "sealed segments were dropped");
    drop(session);
    drop(db);

    // --- Third life: only the post-checkpoint tail replays ---------------
    let db: DurableDatabase<SumU64Map> =
        DurableDatabase::recover(&dir, 2, cfg.clone()).expect("recover");
    println!(
        "recovered again: checkpoint {:?} + {} replayed batch(es)",
        db.recovery().checkpoint_ts,
        db.recovery().replayed
    );
    assert_eq!(db.recovery().checkpoint_ts, Some(ts));
    assert_eq!(db.recovery().replayed, 1, "just the post-checkpoint commit");
    let mut session = db.session().expect("pid free");
    assert_eq!(session.get(&100), Some(42));
    assert_eq!(session.read(|snap| snap.aug_total()), 8_042);

    drop(session);
    drop(db);

    // --- Fourth life: group commit — shared fsyncs, awaitable acks -------
    // Under GroupCommit::Leader commits still log-before-visible, but the
    // fsync moves outside the commit lock: the first durability waiter
    // flushes the whole pending group, so N overlapping committers can
    // share one fsync instead of paying N.
    let db: DurableDatabase<SumU64Map> =
        DurableDatabase::recover(&dir, 4, cfg.clone().with_group_commit(GroupCommit::Leader))
            .expect("recover");
    {
        let mut session = db.session().expect("pid free");
        // write_acked splits the commit at the durability seam: the write
        // is visible and logged when it returns, durable when the ack
        // resolves — work done in between overlaps the group flush.
        let mut acks: Vec<CommitAck> = Vec::new();
        for account in 0..8u64 {
            let ((), ack) = session
                .write_acked(|txn| {
                    let balance = txn.get(&account).copied().unwrap_or(0);
                    txn.insert(account, balance + 5);
                })
                .expect("visible and logged");
            acks.push(ack);
        }
        for ack in acks {
            ack.wait().expect("group fsync");
        }
        let stats = db.durable_stats();
        println!(
            "group commit: {} commits durable in {} group flush(es), mean group {:.2}",
            stats.batches_flushed,
            stats.groups_flushed,
            stats.mean_group()
        );
        assert_eq!(stats.pending_batches, 0, "every ack was waited on");
    }
    // Concurrent committers coalesce for real: each waits its own ack
    // (session.insert == write + wait), overlapping commits share fsyncs.
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let db = &db;
            scope.spawn(move || {
                let mut session = db.session().expect("pid free");
                for j in 0..16u64 {
                    session.insert(1_000 + t * 100 + j, j).expect("durable");
                }
            });
        }
    });
    drop(db);

    // --- Fifth life: coalesced groups replay like any other commits ------
    let db: DurableDatabase<SumU64Map> =
        DurableDatabase::recover(&dir, 2, cfg.clone()).expect("recover");
    let mut session = db.session().expect("pid free");
    assert_eq!(session.get(&0), Some(755), "750 + the group-commit top-up");
    assert_eq!(session.get(&1_000), Some(0), "concurrent commits survived");
    assert_eq!(session.get(&1_315), Some(15));
    println!(
        "recovered once more: checkpoint {:?} + {} replayed batch(es)",
        db.recovery().checkpoint_ts,
        db.recovery().replayed
    );

    drop(session);
    drop(db);

    // --- Sixth life: self-driving durability -----------------------------
    // Instead of calling checkpoint() by hand, hand the chore to the
    // background supervisor: it watches the WAL footprint and runs
    // snapshot-pinned checkpoints off the commit path. Commits never
    // block on it — a failing supervisor only stalls reclamation.
    let db: Arc<DurableDatabase<SumU64Map>> =
        Arc::new(DurableDatabase::recover(&dir, 4, cfg.clone()).expect("recover"));
    let handle = db.start_maintenance(MaintenancePolicy::default().with_wal_bytes_threshold(1_024));
    println!("supervisor on (checkpoint past 1024 WAL bytes); write load:");
    let mut session = db.session().expect("pid free");
    for round in 0..6u64 {
        for j in 0..24u64 {
            session.insert(2_000 + round * 100 + j, j).expect("durable");
        }
        // Give the 2ms-nap supervisor a beat, then sample the trajectory.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let stats = db.maintenance_stats();
        println!(
            "  round {round}: wal {:>5} B after {} checkpoint(s), health {:?}",
            db.wal_bytes(),
            stats.checkpoints,
            db.health()
        );
    }
    assert!(
        db.maintenance_stats().checkpoints >= 1,
        "the load crossed the threshold; the supervisor must have acted"
    );
    assert_eq!(db.health(), Health::Ok);
    drop(session);
    // The kill: drop the handle (joins the supervisor even if a
    // checkpoint is mid-flight — RAII, no torn image, no poisoned WAL)
    // and then drop the database without any graceful shutdown.
    drop(handle);
    drop(db);

    // --- Final life: a supervised crash recovers like any other ----------
    let db: DurableDatabase<SumU64Map> = DurableDatabase::recover(&dir, 2, cfg).expect("recover");
    println!(
        "recovered from the supervised run: checkpoint {:?} + {} replayed batch(es)",
        db.recovery().checkpoint_ts,
        db.recovery().replayed
    );
    assert!(
        db.recovery().checkpoint_ts.is_some(),
        "a background checkpoint anchored recovery"
    );
    let mut session = db.session().expect("pid free");
    for round in 0..6u64 {
        for j in 0..24u64 {
            assert_eq!(session.get(&(2_000 + round * 100 + j)), Some(j));
        }
    }

    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    println!("durable example passed");
}
