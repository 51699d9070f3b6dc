//! Fault-injection storage: an in-memory [`Storage`] double that can
//! tear writes, fail fsyncs, drop unsynced bytes, flip bits and die at
//! any write or sync site.
//!
//! The crash model mirrors a real kernel's: an `append` lands in the
//! "page cache" (the in-memory buffer) immediately, and `sync` advances
//! the durable watermark. A crash freezes the storage — every subsequent
//! operation fails with an I/O error, exactly what a dying process would
//! see — and [`FaultStorage::crash_view`] then reconstructs what a
//! restarted process would find on disk:
//!
//! * the append the crash interrupted survives only as a seeded-length
//!   prefix (a **torn write**);
//! * with [`FaultPlan::drop_unsynced`], everything past each file's sync
//!   watermark is lost (the page cache never made it out);
//! * with [`FaultPlan::bit_flip_on_crash`], one seeded bit in the
//!   surviving unsynced region is inverted (a medium error the CRC must
//!   catch).
//!
//! Deterministic: the same seed and plan produce the same damage, so
//! every failure a property test finds replays exactly.

use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::Storage;

/// What should go wrong, and when. Counters index *append calls* across
/// all files (the WAL's frames, segment headers and checkpoint bytes all
/// count), so sweeping `crash_at_append` over `0..total_appends` visits a
/// crash-point at every write site of a workload.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash *during* the Nth append (0-based): a seeded prefix of that
    /// append's bytes lands, the call fails, and the storage is frozen.
    pub crash_at_append: Option<u64>,
    /// At crash time, lose every byte past each file's sync watermark
    /// (models a power failure rather than a process kill).
    pub drop_unsynced: bool,
    /// At crash time, flip one seeded bit somewhere in the surviving
    /// unsynced bytes (if any).
    pub bit_flip_on_crash: bool,
    /// The first N append calls fail transiently (nothing is written);
    /// appends after that succeed. Exercises the retry/backoff path.
    pub transient_append_failures: u64,
    /// The Nth `read` call returns only a seeded prefix of the file — a
    /// short read the replay path must treat as a torn tail.
    pub short_read_at: Option<u64>,
    /// Crash *during* the Nth `sync` call (0-based): the durable
    /// watermark does not advance, the call fails, and the storage is
    /// frozen — the fsync-failure analogue of `crash_at_append`.
    pub crash_at_sync: Option<u64>,
    /// The first N `sync` calls fail transiently (the watermark does not
    /// advance); syncs after that succeed. Exercises the post-append
    /// rollback path in [`crate::Wal::append`].
    pub transient_sync_failures: u64,
    /// Disk-exhaustion budget: once the bytes stored across *all* files
    /// reach this total, further appends fail with
    /// [`std::io::ErrorKind::StorageFull`] and write nothing. Removing or
    /// truncating files frees budget, so checkpoint-driven segment
    /// truncation is the cure — exactly the ENOSPC shape a maintenance
    /// supervisor has to survive.
    pub enospc_after_bytes: Option<u64>,
    /// The first N appends to checkpoint files (`ckpt-*`) fail
    /// transiently; WAL segment writes are untouched. Exercises the
    /// supervisor's retry/backoff path without stalling commits.
    pub transient_checkpoint_failures: u64,
    /// Every append to a checkpoint file (`ckpt-*`) fails. Models a
    /// persistently broken checkpoint path: commits must keep flowing
    /// while maintenance degrades to a typed health state.
    pub fail_checkpoint_writes: bool,
    /// Every successful `sync` takes at least this long (slept outside
    /// the storage lock): a slow disk, so concurrent committers overlap
    /// a flush the way they do on real hardware.
    pub sync_latency: Duration,
}

#[derive(Debug, Clone, Default)]
struct FileState {
    data: Vec<u8>,
    synced: usize,
}

#[derive(Debug)]
struct Inner {
    files: BTreeMap<String, FileState>,
    plan: FaultPlan,
    appends: u64,
    reads: u64,
    syncs: u64,
    ckpt_appends: u64,
    crashed: bool,
    rng: u64,
}

impl Inner {
    fn used_bytes(&self) -> u64 {
        self.files.values().map(|f| f.data.len() as u64).sum()
    }
}

impl Inner {
    /// xorshift64*; deterministic per seed.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn crashed_err() -> io::Error {
    io::Error::other("storage crashed (fault injection)")
}

fn transient_err() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "transient I/O fault (injected)")
}

fn enospc_err() -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        "no space left on device (injected)",
    )
}

fn ckpt_err() -> io::Error {
    io::Error::other("checkpoint write fault (injected)")
}

/// The in-memory fault-injection [`Storage`]. Cloning shares the
/// underlying files (the handle is an `Arc`), so a test can keep a handle
/// while the WAL owns another.
#[derive(Clone)]
pub struct FaultStorage {
    inner: Arc<Mutex<Inner>>,
}

impl FaultStorage {
    /// A storage with the given fault plan and RNG seed.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultStorage {
            inner: Arc::new(Mutex::new(Inner {
                files: BTreeMap::new(),
                plan,
                appends: 0,
                reads: 0,
                syncs: 0,
                ckpt_appends: 0,
                crashed: false,
                rng: seed | 1,
            })),
        }
    }

    /// A plain in-memory storage that never fails.
    pub fn unfaulted() -> Self {
        Self::new(FaultPlan::default(), 1)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total append calls observed so far (crashed or not). Run a
    /// workload once against [`FaultStorage::unfaulted`] to learn its
    /// write-site count, then sweep `crash_at_append` over `0..count`.
    pub fn appends(&self) -> u64 {
        self.lock().appends
    }

    /// Total `sync` calls observed so far (crashed or not) — the
    /// `crash_at_sync` analogue of [`FaultStorage::appends`].
    pub fn syncs(&self) -> u64 {
        self.lock().syncs
    }

    /// Has an injected crash frozen this storage?
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Crash immediately (no torn write): freeze the storage as-is.
    pub fn crash_now(&self) {
        self.lock().crashed = true;
    }

    /// What a restarted process finds: a fresh, fault-free storage
    /// seeded with the post-crash file contents (torn tail kept,
    /// unsynced bytes dropped and bits flipped per the plan). Also
    /// callable before a crash, in which case it is a plain snapshot.
    pub fn crash_view(&self) -> FaultStorage {
        let mut inner = self.lock();
        let mut files = inner.files.clone();
        if inner.plan.drop_unsynced {
            for f in files.values_mut() {
                f.data.truncate(f.synced);
            }
        }
        if inner.plan.bit_flip_on_crash {
            // Collect the surviving unsynced regions and flip one bit.
            let mut candidates: Vec<(String, usize)> = Vec::new();
            for (name, f) in &files {
                for at in f.synced..f.data.len() {
                    candidates.push((name.clone(), at));
                }
            }
            if !candidates.is_empty() {
                let pick = (inner.next_rand() % candidates.len() as u64) as usize;
                let bit = (inner.next_rand() % 8) as u8;
                let (name, at) = &candidates[pick];
                files.get_mut(name).expect("candidate exists").data[*at] ^= 1 << bit;
            }
        }
        for f in files.values_mut() {
            f.synced = f.data.len();
        }
        let seed = inner.next_rand();
        FaultStorage {
            inner: Arc::new(Mutex::new(Inner {
                files,
                plan: FaultPlan::default(),
                appends: 0,
                reads: 0,
                syncs: 0,
                ckpt_appends: 0,
                crashed: false,
                rng: seed | 1,
            })),
        }
    }
}

impl Storage for FaultStorage {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut inner = self.lock();
        if inner.crashed {
            return Err(crashed_err());
        }
        let n = inner.appends;
        inner.appends += 1;
        if n < inner.plan.transient_append_failures {
            return Err(transient_err());
        }
        if inner.plan.crash_at_append == Some(n) {
            // Torn write: a seeded prefix lands, then the lights go out.
            let keep = (inner.next_rand() % (data.len() as u64 + 1)) as usize;
            let prefix = data[..keep].to_vec();
            inner
                .files
                .entry(name.to_string())
                .or_default()
                .data
                .extend_from_slice(&prefix);
            inner.crashed = true;
            return Err(crashed_err());
        }
        if name.starts_with("ckpt-") {
            let c = inner.ckpt_appends;
            inner.ckpt_appends += 1;
            if inner.plan.fail_checkpoint_writes {
                return Err(ckpt_err());
            }
            if c < inner.plan.transient_checkpoint_failures {
                return Err(transient_err());
            }
        }
        if let Some(budget) = inner.plan.enospc_after_bytes {
            if inner.used_bytes() + data.len() as u64 > budget {
                return Err(enospc_err());
            }
        }
        inner
            .files
            .entry(name.to_string())
            .or_default()
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let mut inner = self.lock();
        if inner.crashed {
            return Err(crashed_err());
        }
        let n = inner.syncs;
        inner.syncs += 1;
        if n < inner.plan.transient_sync_failures {
            return Err(transient_err());
        }
        if inner.plan.crash_at_sync == Some(n) {
            // The watermark never advances: whatever was unsynced is at
            // the mercy of `drop_unsynced` at crash-view time.
            inner.crashed = true;
            return Err(crashed_err());
        }
        let latency = inner.plan.sync_latency;
        match inner.files.get_mut(name) {
            Some(f) => f.synced = f.data.len(),
            None => return Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
        drop(inner);
        if !latency.is_zero() {
            std::thread::sleep(latency);
        }
        Ok(())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut inner = self.lock();
        if inner.crashed {
            return Err(crashed_err());
        }
        let n = inner.reads;
        inner.reads += 1;
        let data = match inner.files.get(name) {
            Some(f) => f.data.clone(),
            None => return Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        };
        if inner.plan.short_read_at == Some(n) {
            let keep = (inner.next_rand() % (data.len() as u64 + 1)) as usize;
            return Ok(data[..keep].to_vec());
        }
        Ok(data)
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        let inner = self.lock();
        if inner.crashed {
            return Err(crashed_err());
        }
        match inner.files.get(name) {
            Some(f) => Ok(f.data.len() as u64),
            None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut inner = self.lock();
        if inner.crashed {
            return Err(crashed_err());
        }
        match inner.files.get_mut(name) {
            Some(f) => {
                f.data.truncate(len as usize);
                f.synced = f.synced.min(f.data.len());
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let mut inner = self.lock();
        if inner.crashed {
            return Err(crashed_err());
        }
        match inner.files.remove(name) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut inner = self.lock();
        if inner.crashed {
            return Err(crashed_err());
        }
        match inner.files.remove(from) {
            Some(f) => {
                inner.files.insert(to.to_string(), f);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, from.to_string())),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let inner = self.lock();
        if inner.crashed {
            return Err(crashed_err());
        }
        Ok(inner.files.keys().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_at_append_tears_and_freezes() {
        let s = FaultStorage::new(
            FaultPlan {
                crash_at_append: Some(1),
                ..FaultPlan::default()
            },
            42,
        );
        s.append("f", b"first").unwrap();
        let err = s.append("f", b"second").unwrap_err();
        assert!(err.to_string().contains("crashed"));
        assert!(s.crashed());
        assert!(s.append("f", b"more").is_err(), "frozen after crash");
        assert!(s.read("f").is_err(), "reads fail after crash too");
        let view = s.crash_view();
        let data = view.read("f").unwrap();
        assert!(data.starts_with(b"first"));
        assert!(data.len() <= b"first".len() + b"second".len());
        // The recovered view is fault-free.
        view.append("f", b"!").unwrap();
    }

    #[test]
    fn drop_unsynced_truncates_to_watermark() {
        let s = FaultStorage::new(
            FaultPlan {
                drop_unsynced: true,
                ..FaultPlan::default()
            },
            7,
        );
        s.append("f", b"durable").unwrap();
        s.sync("f").unwrap();
        s.append("f", b" volatile").unwrap();
        s.crash_now();
        assert_eq!(s.crash_view().read("f").unwrap(), b"durable");
    }

    #[test]
    fn bit_flip_changes_exactly_one_unsynced_bit() {
        let s = FaultStorage::new(
            FaultPlan {
                bit_flip_on_crash: true,
                ..FaultPlan::default()
            },
            99,
        );
        s.append("f", b"synced").unwrap();
        s.sync("f").unwrap();
        s.append("f", b"tail").unwrap();
        s.crash_now();
        let got = s.crash_view().read("f").unwrap();
        let want = b"syncedtail";
        let diff_bits: u32 = got
            .iter()
            .zip(want.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1, "exactly one bit flipped: {got:?}");
        assert_eq!(&got[..6], b"synced", "synced region untouched");
    }

    #[test]
    fn transient_failures_then_success() {
        let s = FaultStorage::new(
            FaultPlan {
                transient_append_failures: 2,
                ..FaultPlan::default()
            },
            3,
        );
        assert!(s.append("f", b"x").is_err());
        assert!(s.append("f", b"x").is_err());
        s.append("f", b"x").unwrap();
        assert_eq!(s.read("f").unwrap(), b"x", "failed attempts wrote nothing");
    }

    #[test]
    fn sync_faults_fail_without_advancing_the_watermark() {
        let s = FaultStorage::new(
            FaultPlan {
                transient_sync_failures: 1,
                crash_at_sync: Some(1),
                drop_unsynced: true,
                ..FaultPlan::default()
            },
            21,
        );
        s.append("f", b"data").unwrap();
        assert!(s.sync("f").is_err(), "sync 0 fails transiently");
        assert!(!s.crashed());
        assert!(s.sync("f").is_err(), "sync 1 crashes");
        assert!(s.crashed());
        assert_eq!(s.syncs(), 2);
        // Neither sync advanced the watermark: power loss drops it all.
        assert_eq!(s.crash_view().read("f").unwrap(), b"");
    }

    #[test]
    fn short_read_returns_prefix() {
        let s = FaultStorage::new(
            FaultPlan {
                short_read_at: Some(0),
                ..FaultPlan::default()
            },
            5,
        );
        s.append("f", b"0123456789").unwrap();
        let short = s.read("f").unwrap();
        assert!(short.len() <= 10);
        assert_eq!(&short[..], &b"0123456789"[..short.len()]);
        assert_eq!(s.read("f").unwrap().len(), 10, "only the Nth read is short");
    }

    #[test]
    fn enospc_budget_fails_full_appends_and_frees_on_remove() {
        let s = FaultStorage::new(
            FaultPlan {
                enospc_after_bytes: Some(10),
                ..FaultPlan::default()
            },
            11,
        );
        s.append("a", b"12345678").unwrap(); // 8 of 10 bytes used
        let err = s.append("a", b"xyz").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(
            s.read("a").unwrap(),
            b"12345678",
            "failed append wrote nothing"
        );
        assert!(!s.crashed(), "ENOSPC is an error, not a crash");
        s.append("b", b"12").unwrap(); // exactly at the budget
        s.remove("a").unwrap(); // reclamation frees budget
        s.append("b", b"12345678").unwrap();
        assert_eq!(s.read("b").unwrap(), b"1212345678");
    }

    #[test]
    fn checkpoint_faults_scope_to_ckpt_files() {
        let s = FaultStorage::new(
            FaultPlan {
                transient_checkpoint_failures: 2,
                ..FaultPlan::default()
            },
            13,
        );
        s.append("wal-00000001.seg", b"frame").unwrap();
        assert!(s.append("ckpt-0001.tmp", b"img").is_err());
        s.append("wal-00000001.seg", b"frame").unwrap();
        assert!(s.append("ckpt-0001.tmp", b"img").is_err());
        s.append("ckpt-0001.tmp", b"img").unwrap();

        let s = FaultStorage::new(
            FaultPlan {
                fail_checkpoint_writes: true,
                ..FaultPlan::default()
            },
            17,
        );
        for _ in 0..4 {
            assert!(s.append("ckpt-0002.tmp", b"img").is_err(), "permanent");
            s.append("wal-00000001.seg", b"frame").unwrap();
        }
        assert!(!s.crashed());
    }

    #[test]
    fn deterministic_per_seed() {
        for seed in [1u64, 2, 3] {
            let mk = || {
                let s = FaultStorage::new(
                    FaultPlan {
                        crash_at_append: Some(0),
                        ..FaultPlan::default()
                    },
                    seed,
                );
                let _ = s.append("f", b"abcdefgh");
                s.crash_view().read("f").unwrap()
            };
            assert_eq!(mk(), mk(), "same seed, same tear");
        }
    }
}
