//! The benchmark's view of the storage layer: a `Storage` that forwards
//! every call to `DirStorage`, counts it, times it (in a traced window),
//! and remembers how much of each file a crash would keep.
//!
//! `sync` is the device's own `fdatasync`, so what `durable-commit`
//! reports is this sandbox's virtual disk and not a device result.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use mvcc_wal::{DirStorage, Storage};

use crate::trace;

#[derive(Default, Clone, Copy)]
struct FileLen {
    len: u64,
    /// Length at the last `sync` — what survives a power loss.
    synced: u64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct StorageCounts {
    pub appends: u64,
    pub syncs: u64,
    pub bytes: u64,
    /// Every trait call, the three above included.
    pub calls: u64,
}

pub struct TimingStorage {
    inner: DirStorage,
    dir: PathBuf,
    files: Mutex<HashMap<String, FileLen>>,
    appends: AtomicU64,
    syncs: AtomicU64,
    bytes: AtomicU64,
    calls: AtomicU64,
    /// Time every append and sync (traced windows only).
    timed: AtomicBool,
    append_ns: Mutex<Vec<u64>>,
    sync_ns: Mutex<Vec<u64>>,
}

impl TimingStorage {
    pub fn new(dir: &Path) -> io::Result<TimingStorage> {
        Ok(TimingStorage {
            inner: DirStorage::new(dir)?,
            dir: dir.to_path_buf(),
            files: Mutex::default(),
            appends: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            timed: AtomicBool::new(false),
            append_ns: Mutex::default(),
            sync_ns: Mutex::default(),
        })
    }

    pub fn counts(&self) -> StorageCounts {
        StorageCounts {
            appends: self.appends.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            calls: self.calls.load(Relaxed),
        }
    }

    pub fn set_timed(&self, on: bool) {
        self.timed.store(on, Relaxed);
    }

    /// Drain the `(append, sync)` call times in ns.
    pub fn take_times(&self) -> (Vec<u64>, Vec<u64>) {
        (
            std::mem::take(&mut self.append_ns.lock().unwrap()),
            std::mem::take(&mut self.sync_ns.lock().unwrap()),
        )
    }

    /// Write into `dest` what a power loss right now would leave: every
    /// file cut to its last synced length. The process staying alive
    /// keeps unflushed bytes readable through the OS cache, so a crash
    /// test has to discard them itself.
    pub fn copy_crash_view(&self, dest: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dest)?;
        let files = self.files.lock().unwrap().clone();
        for (name, f) in files {
            let mut data = std::fs::read(self.dir.join(&name))?;
            data.truncate(f.synced as usize);
            std::fs::write(dest.join(&name), data)?;
        }
        Ok(())
    }

    /// The tracked lengths of `name`, learned from the directory on
    /// first sight (a file that predates the wrapper counts as synced).
    fn with_file<R>(&self, name: &str, f: impl FnOnce(&mut FileLen) -> R) -> R {
        let mut files = self.files.lock().unwrap();
        if !files.contains_key(name) {
            let len = self.inner.len(name).unwrap_or(0);
            files.insert(name.to_string(), FileLen { len, synced: len });
        }
        f(files.get_mut(name).expect("inserted above"))
    }

    fn call<R>(
        &self,
        span: &'static str,
        times: Option<&Mutex<Vec<u64>>>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.calls.fetch_add(1, Relaxed);
        let _span = trace::span(span);
        match times {
            Some(times) if self.timed.load(Relaxed) => {
                let t0 = trace::now_ns();
                let r = f();
                times.lock().unwrap().push(trace::now_ns() - t0);
                r
            }
            _ => f(),
        }
    }
}

impl Storage for TimingStorage {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        // Learn the pre-append length before the bytes land.
        self.with_file(name, |_| ());
        self.call("storage.append", Some(&self.append_ns), || {
            self.inner.append(name, data)
        })?;
        self.appends.fetch_add(1, Relaxed);
        self.bytes.fetch_add(data.len() as u64, Relaxed);
        self.with_file(name, |f| f.len += data.len() as u64);
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        // Bytes appended while the sync runs are not covered by it.
        let len_before = self.with_file(name, |f| f.len);
        self.call("storage.sync", Some(&self.sync_ns), || {
            self.inner.sync(name)
        })?;
        self.syncs.fetch_add(1, Relaxed);
        self.with_file(name, |f| f.synced = f.synced.max(len_before));
        Ok(())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.call("storage.read", None, || self.inner.read(name))
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        self.call("storage.len", None, || self.inner.len(name))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.call("storage.truncate", None, || self.inner.truncate(name, len))?;
        // DirStorage::truncate syncs the file before returning.
        self.with_file(name, |f| *f = FileLen { len, synced: len });
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.call("storage.remove", None, || self.inner.remove(name))?;
        self.files.lock().unwrap().remove(name);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        // Seen before the rename, so its lengths are the ones on disk.
        let lens = self.with_file(from, |f| *f);
        self.call("storage.rename", None, || self.inner.rename(from, to))?;
        // DirStorage::rename syncs the directory: the new name is durable
        // and carries the old name's synced prefix.
        let mut files = self.files.lock().unwrap();
        files.remove(from);
        files.insert(to.to_string(), lens);
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.call("storage.list", None, || self.inner.list())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_view_keeps_only_synced_bytes() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-storage");
        let _ = std::fs::remove_dir_all(&base);
        let s = TimingStorage::new(&base.join("live")).unwrap();
        s.append("a.seg", b"durable").unwrap();
        s.sync("a.seg").unwrap();
        s.append("a.seg", b" lost").unwrap();
        s.append("b.tmp", b"checkpoint").unwrap();
        s.sync("b.tmp").unwrap();
        s.rename("b.tmp", "b.ckpt").unwrap();
        s.append("c.seg", b"never synced").unwrap();
        s.copy_crash_view(&base.join("crashed")).unwrap();
        let read = |n: &str| std::fs::read(base.join("crashed").join(n)).unwrap();
        assert_eq!(read("a.seg"), b"durable");
        assert_eq!(read("b.ckpt"), b"checkpoint");
        assert_eq!(read("c.seg"), b"");
        assert!(!base.join("crashed/b.tmp").exists());
        let c = s.counts();
        assert_eq!((c.appends, c.syncs, c.bytes), (4, 2, 34));
        assert_eq!(c.calls, 7);
        std::fs::remove_dir_all(&base).unwrap();
    }
}
