//! Chunk storage: one anonymous private mapping per arena chunk — the
//! crate's only FFI.
//!
//! A fresh anonymous mapping reads as zeroes and costs nothing until a
//! page is first written, so the arena installs a chunk without touching
//! it: zero is the free-slot state. A chunk of at least [`HUGE_PAGE`]
//! bytes is placed on a huge-page boundary and advised `MADV_HUGEPAGE`,
//! so transparent huge pages can back it and a tree descent through it
//! stays within a few TLB entries. Smaller chunks are plain mappings and
//! never ask for a 2 MiB page.
//!
//! The calls go straight to the libc `std` already links (no new
//! dependency), with constants declared by hand for 64-bit Linux.

use std::ffi::{c_int, c_void};
use std::ptr::{self, NonNull};

// The constants below are the generic Linux ABI's (MIPS numbers
// `MAP_ANONYMOUS` differently); a fallback for other targets would be
// code no CI compiles or runs.
#[cfg(not(all(
    any(target_os = "linux", target_os = "android"),
    target_pointer_width = "64",
    not(target_arch = "mips64")
)))]
compile_error!("mvcc-plm maps arena chunks with mmap(2) on 64-bit Linux or Android only");

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MADV_HUGEPAGE: c_int = 14;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// A transparent huge page on x86-64 and 4 KiB-page arm64: chunks at
/// least this large are aligned to it and advised.
pub(crate) const HUGE_PAGE: usize = 2 << 20;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

/// Map `bytes` of zeroed, readable and writable memory, page-aligned, or
/// `None` if the kernel refuses. At least [`HUGE_PAGE`] bytes come back
/// [`HUGE_PAGE`]-aligned and advised for huge pages.
pub(crate) fn map_chunk(bytes: usize) -> Option<NonNull<u8>> {
    let huge = bytes >= HUGE_PAGE;
    // Over-map by one huge page so an aligned start fits inside.
    let len = if huge { bytes + HUGE_PAGE } else { bytes };
    // SAFETY: a new anonymous private mapping at an address of the
    // kernel's choosing; it aliases nothing this process holds.
    let raw = unsafe {
        mmap(
            ptr::null_mut(),
            len,
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    if raw == MAP_FAILED {
        return None;
    }
    if !huge {
        return NonNull::new(raw.cast());
    }
    let head = (raw as usize).next_multiple_of(HUGE_PAGE) - raw as usize;
    let base = raw.wrapping_byte_add(head);
    // SAFETY: `[raw, base)` and `[base + bytes, raw + len)` lie inside
    // the mapping just made and nothing points into them; trimming them
    // leaves `[base, base + bytes)` mapped. The advice only sets a flag
    // on that range, and a refusal (a kernel without THP) is harmless.
    unsafe {
        if head > 0 {
            munmap(raw, head);
        }
        munmap(base.wrapping_byte_add(bytes), HUGE_PAGE - head);
        madvise(base, bytes, MADV_HUGEPAGE);
    }
    NonNull::new(base.cast())
}

/// Unmap a chunk [`map_chunk`] returned.
///
/// # Safety
/// `ptr` and `bytes` must be a [`map_chunk`] result and its argument,
/// and nothing may use the chunk afterwards.
pub(crate) unsafe fn unmap_chunk(ptr: NonNull<u8>, bytes: usize) {
    // SAFETY: per the contract, exactly the range `map_chunk` kept.
    let rc = unsafe { munmap(ptr.as_ptr().cast(), bytes) };
    debug_assert_eq!(rc, 0, "munmap of an arena chunk failed");
}
