//! Slot storage: one address-space reservation per arena, grown in
//! place — the crate's only FFI.
//!
//! An arena reserves room for every slot it could ever hold when it is
//! built: one anonymous private mapping, `PROT_NONE` and
//! `MAP_NORESERVE`, so it costs address space and neither memory nor
//! commit charge (it works under `vm.overcommit_memory=2` too). A slot
//! id is then an offset from the mapping's base, and no slot ever moves.
//!
//! A prefix of the reservation is readable and writable, grown by
//! [`Reservation::expose`] in doubling steps of whole huge pages. A
//! fresh anonymous page reads as zeroes and costs nothing until it is
//! first written, so exposing a range writes nothing: zero is the
//! free-slot state, and only pages holding slots actually handed out are
//! ever faulted in.
//!
//! The base is on a [`HUGE_PAGE`] boundary, and everything past the
//! first huge page is advised `MADV_HUGEPAGE`, so transparent huge pages
//! can back a large arena and a tree descent through it stays within a
//! few TLB entries. A small arena lives in the unadvised first 2 MiB and
//! never asks for a huge page.
//!
//! The calls go straight to the libc `std` already links (no new
//! dependency), with constants declared by hand for 64-bit Linux.

use std::alloc::{handle_alloc_error, Layout};
use std::ffi::{c_int, c_void};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicUsize, Ordering};

// The constants below are the generic Linux ABI's (MIPS numbers
// `MAP_ANONYMOUS` and `MAP_NORESERVE` differently); a fallback for
// other targets would be code no CI compiles or runs.
#[cfg(not(all(
    any(target_os = "linux", target_os = "android"),
    target_pointer_width = "64",
    not(target_arch = "mips64")
)))]
compile_error!("mvcc-plm reserves arena slots with mmap(2) on 64-bit Linux or Android only");

const PROT_NONE: c_int = 0x0;
const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MADV_HUGEPAGE: c_int = 14;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// A transparent huge page on x86-64 and 4 KiB-page arm64: the
/// reservation's alignment, the unadvised head's size, and the unit in
/// which the accessible prefix grows.
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
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

/// A [`HUGE_PAGE`]-aligned range of reserved address space whose first
/// [`Reservation::accessible`] bytes are zero-filled, readable and
/// writable memory. Unmapped on drop.
pub(crate) struct Reservation {
    base: NonNull<u8>,
    /// A multiple of [`HUGE_PAGE`].
    len: usize,
    /// Bytes from `base` that are readable and writable: a multiple of
    /// [`HUGE_PAGE`], only ever raised.
    accessible: AtomicUsize,
}

impl Reservation {
    /// Reserve at least `bytes` of address space, none of it accessible.
    /// A refusal by the kernel (an address-space limit, `ulimit -v`)
    /// goes to [`handle_alloc_error`].
    pub(crate) fn new(bytes: usize) -> Self {
        let len = bytes.next_multiple_of(HUGE_PAGE);
        // Over-reserve by one huge page so an aligned start fits inside.
        let span = len + HUGE_PAGE;
        // SAFETY: a new anonymous private mapping at an address of the
        // kernel's choosing; it aliases nothing this process holds.
        let raw = unsafe {
            mmap(
                ptr::null_mut(),
                span,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        if raw == MAP_FAILED {
            handle_alloc_error(Self::layout(len));
        }
        let head = (raw as usize).next_multiple_of(HUGE_PAGE) - raw as usize;
        let base = raw.wrapping_byte_add(head);
        // SAFETY: `[raw, base)` and `[base + len, raw + span)` lie inside
        // the mapping just made and nothing points into them; trimming
        // them leaves `[base, base + len)` reserved. The advice only sets
        // a flag on the range past the first huge page, and a refusal (a
        // kernel without THP) is harmless.
        unsafe {
            if head > 0 {
                munmap(raw, head);
            }
            munmap(base.wrapping_byte_add(len), HUGE_PAGE - head);
            if len > HUGE_PAGE {
                madvise(
                    base.wrapping_byte_add(HUGE_PAGE),
                    len - HUGE_PAGE,
                    MADV_HUGEPAGE,
                );
            }
        }
        Reservation {
            base: NonNull::new(base.cast()).expect("mmap returned a null mapping"),
            len,
            accessible: AtomicUsize::new(0),
        }
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len, HUGE_PAGE).expect("reservation exceeds the address space")
    }

    /// The reservation's first byte, [`HUGE_PAGE`]-aligned.
    #[inline]
    pub(crate) fn base(&self) -> NonNull<u8> {
        self.base
    }

    /// Bytes reserved.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes from [`Reservation::base`] that are readable and writable.
    /// A thread synchronized with an [`Reservation::expose`] (it learned
    /// of an id that the call made accessible through any `Acquire`
    /// load) reads at least what that call exposed.
    #[inline]
    pub(crate) fn accessible(&self) -> usize {
        self.accessible.load(Ordering::Relaxed)
    }

    /// Make at least the first `bytes` readable and writable. The prefix
    /// grows to `bytes` or to twice its size, whichever is more, rounded
    /// up to whole huge pages, so it grows `O(log)` times and every huge
    /// page it exposes is whole. Racing calls may change the protection
    /// of the same pages twice, which is harmless. A refusal (the commit
    /// limit under `vm.overcommit_memory=2`) goes to
    /// [`handle_alloc_error`].
    ///
    /// Panics if `bytes` exceeds the reservation.
    pub(crate) fn expose(&self, bytes: usize) {
        let old = self.accessible.load(Ordering::Acquire);
        if bytes <= old {
            return;
        }
        assert!(bytes <= self.len, "expose past the reservation");
        let new = bytes.max(2 * old).next_multiple_of(HUGE_PAGE).min(self.len);
        // SAFETY: `[base + old, base + new)` lies inside the reservation
        // (both are multiples of the page size, `new <= len`), and
        // raising its protection invalidates no reference: bytes below
        // `old` keep theirs, and no one holds a byte above it.
        let rc = unsafe {
            mprotect(
                self.base.as_ptr().add(old).cast(),
                new - old,
                PROT_READ | PROT_WRITE,
            )
        };
        if rc != 0 {
            handle_alloc_error(Self::layout(new));
        }
        // Release: a thread that sees `new` (or anything published after
        // it) finds the pages accessible.
        self.accessible.fetch_max(new, Ordering::Release);
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        // SAFETY: exactly the range `new` kept; `&mut self` means no
        // reference into it is left.
        let rc = unsafe { munmap(self.base.as_ptr().cast(), self.len) };
        debug_assert_eq!(rc, 0, "munmap of an arena reservation failed");
    }
}
