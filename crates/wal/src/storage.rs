//! The storage abstraction every durability layer writes through.
//!
//! One flat namespace of append-only-ish files is all the WAL and
//! checkpoints need: segments only ever append (plus a truncate to repair
//! a torn tail), checkpoints write a temporary name and rename it into
//! place. Keeping the surface this small is what makes the in-memory
//! fault-injection double ([`crate::FaultStorage`]) a faithful model of
//! the real filesystem backend.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use crate::is_segment_name;

/// A flat namespace of files supporting the operations the WAL and
/// checkpoint layers need. Implementations must be safe to call from
/// multiple threads (the log serializes appends itself; reads and
/// maintenance may come from other threads).
///
/// `append` is *not* assumed atomic: a crash (or a failed call) may leave
/// a prefix of the data — exactly the torn-write behavior recovery must
/// tolerate. `rename` over an existing name replaces it (the checkpoint
/// publication step).
///
/// A WAL segment read after a crash or a restart may end in zero bytes
/// that were never appended ([`DirStorage`] pads segments that way);
/// [`crate::Wal::open`] reads all-zero bytes after the last frame as the
/// segment's clean end.
pub trait Storage: Send + Sync + 'static {
    /// Append `data` to `name`, creating the file if absent.
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Flush `name`'s data to durable storage.
    fn sync(&self, name: &str) -> io::Result<()>;
    /// Read the entire contents of `name`.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Current length of `name` in bytes.
    fn len(&self, name: &str) -> io::Result<u64>;
    /// Truncate `name` to `len` bytes (torn-tail repair).
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;
    /// Delete `name`.
    fn remove(&self, name: &str) -> io::Result<()>;
    /// Atomically rename `from` to `to`, replacing any existing `to`.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// All file names in the namespace, in unspecified order.
    fn list(&self) -> io::Result<Vec<String>>;
}

/// WAL segments grow on disk in whole steps of this many bytes.
const PAD_STEP: u64 = 64 << 10;

/// The zeros a segment is padded with (at most one step's worth per
/// append).
static ZEROS: [u8; PAD_STEP as usize] = [0; PAD_STEP as usize];

/// The real-filesystem [`Storage`]: one directory, one file per name.
///
/// Handles are cached so the hot append/sync path does not re-open the
/// segment per commit; maintenance operations (truncate, remove, rename)
/// drop the cached handle first.
///
/// **WAL segments are zero-padded.** A segment file ([`is_segment_name`])
/// is kept zero-filled past its logical end, in whole 64 KiB steps, and
/// each append overwrites those zeros in place. An append then leaves
/// the file's size alone, so the `fdatasync` of a group commit writes
/// data only and does not wait for the filesystem to commit new file
/// metadata. While the handle is open, [`Storage::len`] and
/// [`Storage::read`] report the logical file; after a crash or a restart
/// the padding is visible, and [`crate::Wal::open`] trims it. Checkpoint
/// and temporary files are written once and renamed, and are never
/// padded.
pub struct DirStorage {
    dir: PathBuf,
    handles: Mutex<HashMap<String, Handle>>,
}

/// An open file and where its logical content ends.
struct Handle {
    file: File,
    /// The logical end: where the next append lands.
    len: u64,
    /// For a WAL segment, the end of its zero padding on disk; `None`
    /// for a file that is never padded.
    padded: Option<u64>,
}

impl Handle {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        write_at(&self.file, data, self.len)?;
        self.len += data.len() as u64;
        if self.padded.is_some_and(|p| p < self.len) {
            // The append ran past the padding: fill its last step so the
            // appends after it overwrite zeros again.
            let end = self.len.next_multiple_of(PAD_STEP);
            write_at(&self.file, &ZEROS[..(end - self.len) as usize], self.len)?;
            self.padded = Some(end);
        }
        Ok(())
    }
}

#[cfg(unix)]
fn write_at(file: &File, data: &[u8], at: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, data, at)
}

#[cfg(not(unix))]
fn write_at(mut file: &File, data: &[u8], at: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    file.seek(SeekFrom::Start(at))?;
    file.write_all(data)
}

impl DirStorage {
    /// Open (creating if needed) `dir` as a storage namespace.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DirStorage {
            dir,
            handles: Mutex::new(HashMap::new()),
        })
    }

    /// The directory backing this storage.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Fsync the directory itself so file creations, renames and removals
    /// (directory-entry metadata, not file data) survive a crash. Without
    /// this a published checkpoint rename or a fresh WAL segment can
    /// vanish on power loss even though every *file* was fsynced.
    fn sync_dir(&self) -> io::Result<()> {
        #[cfg(unix)]
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    fn handles(&self) -> MutexGuard<'_, HashMap<String, Handle>> {
        self.handles.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cached handle for `name`, opened (and the file created) on
    /// first use.
    fn handle<'h>(
        &self,
        handles: &'h mut HashMap<String, Handle>,
        name: &str,
    ) -> io::Result<&'h mut Handle> {
        if !handles.contains_key(name) {
            let path = self.path(name);
            let created = !path.exists();
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(false)
                .open(path)?;
            if created {
                // The new file's directory entry must be durable before
                // any acked bytes inside it.
                self.sync_dir()?;
            }
            // An existing file is opened at its size on disk, so a
            // padded segment must be trimmed before it is appended to
            // again: recovery's clean-end trim and the torn-write
            // rollback both truncate it.
            let len = file.metadata()?.len();
            let padded = is_segment_name(name).then_some(len);
            handles.insert(name.to_string(), Handle { file, len, padded });
        }
        Ok(handles.get_mut(name).expect("inserted above"))
    }

    /// The logical length of `name`, if it has an open handle.
    fn open_len(&self, name: &str) -> Option<u64> {
        self.handles().get(name).map(|h| h.len)
    }

    fn drop_handle(&self, name: &str) {
        self.handles().remove(name);
    }
}

impl Storage for DirStorage {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut handles = self.handles();
        let res = self.handle(&mut handles, name)?.append(data);
        if res.is_err() {
            // A failed write may have left bytes past the logical end.
            // Forget the handle: `len` then reports the whole file, so
            // the caller's torn-write repair truncates them away.
            handles.remove(name);
        }
        res
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        self.handle(&mut self.handles(), name)?.file.sync_data()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let open_len = self.open_len(name);
        let mut data = std::fs::read(self.path(name))?;
        if let Some(len) = open_len {
            data.truncate(len as usize);
        }
        Ok(data)
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        match self.open_len(name) {
            Some(len) => Ok(len),
            None => Ok(std::fs::metadata(self.path(name))?.len()),
        }
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.drop_handle(name);
        let f = OpenOptions::new().write(true).open(self.path(name))?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.drop_handle(name);
        std::fs::remove_file(self.path(name))?;
        self.sync_dir()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.drop_handle(from);
        self.drop_handle(to);
        std::fs::rename(self.path(from), self.path(to))?;
        // The rename is the publication point (checkpoints): make the
        // directory entry durable before reporting success.
        self.sync_dir()
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mvcc-wal-storage-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn disk_len(dir: &std::path::Path, name: &str) -> u64 {
        std::fs::metadata(dir.join(name)).unwrap().len()
    }

    #[test]
    fn dir_storage_roundtrip() {
        let dir = tmp("roundtrip");
        let s = DirStorage::new(&dir).unwrap();
        s.append("a.seg", b"hello ").unwrap();
        s.append("a.seg", b"world").unwrap();
        s.sync("a.seg").unwrap();
        assert_eq!(s.read("a.seg").unwrap(), b"hello world");
        assert_eq!(s.len("a.seg").unwrap(), 11);
        s.truncate("a.seg", 5).unwrap();
        assert_eq!(s.read("a.seg").unwrap(), b"hello");
        // Appends after a truncate land at the new end.
        s.append("a.seg", b"!").unwrap();
        assert_eq!(s.read("a.seg").unwrap(), b"hello!");
        s.rename("a.seg", "b.seg").unwrap();
        let mut names = s.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["b.seg"]);
        s.remove("b.seg").unwrap();
        assert!(s.list().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_are_zero_padded_on_disk_and_logical_through_the_trait() {
        let dir = tmp("padding");
        let s = DirStorage::new(&dir).unwrap();
        let seg = "wal-00000001.seg";
        s.append(seg, b"hello ").unwrap();
        s.append(seg, b"world").unwrap();
        s.sync(seg).unwrap();
        // The trait sees the log; the disk holds one zero-filled step.
        assert_eq!(s.len(seg).unwrap(), 11);
        assert_eq!(s.read(seg).unwrap(), b"hello world");
        let disk = std::fs::read(dir.join(seg)).unwrap();
        assert_eq!(disk.len() as u64, PAD_STEP);
        assert_eq!(&disk[..11], b"hello world");
        assert!(disk[11..].iter().all(|&b| b == 0), "padding is zeros");

        // An append past the padding extends it by whole steps.
        let big = vec![0xAB; PAD_STEP as usize];
        s.append(seg, &big).unwrap();
        assert_eq!(s.len(seg).unwrap(), 11 + PAD_STEP);
        assert_eq!(disk_len(&dir, seg), 2 * PAD_STEP);

        // After a truncate the next append lands at the truncated end,
        // not behind the padding that was there.
        s.truncate(seg, 5).unwrap();
        assert_eq!(disk_len(&dir, seg), 5);
        s.append(seg, b"!").unwrap();
        assert_eq!(s.read(seg).unwrap(), b"hello!");
        assert_eq!(s.len(seg).unwrap(), 6);
        assert_eq!(disk_len(&dir, seg), PAD_STEP);

        // A restart (no open handle) sees the padding on disk.
        let fresh = DirStorage::new(&dir).unwrap();
        assert_eq!(fresh.len(seg).unwrap(), PAD_STEP);
        assert_eq!(&fresh.read(seg).unwrap()[..6], b"hello!");

        // A checkpoint is written once and renamed: never padded.
        let tmp_name = "ckpt-0000000000000001.tmp";
        s.append(tmp_name, b"image").unwrap();
        s.append(tmp_name, b" bytes").unwrap();
        s.sync(tmp_name).unwrap();
        assert_eq!(disk_len(&dir, tmp_name), 11);
        s.rename(tmp_name, "ckpt-0000000000000001.ck").unwrap();
        assert_eq!(disk_len(&dir, "ckpt-0000000000000001.ck"), 11);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
