//! Per-process mutable state, exploiting the VM problem's contract that
//! operations with the same process id never run concurrently.

use mvcc_plm::CachePadded;
use std::cell::UnsafeCell;

/// A fixed array of per-process cells. Slot `k` may only be accessed by
/// process `k`'s operations, which the Version Maintenance problem
/// guarantees are never concurrent — so `&mut` access through a shared
/// reference is sound for the caller that upholds that contract.
///
/// No atomics live here, so the relaxed-ordering audit touches this
/// module only through its contract: when ownership of a process id
/// migrates across OS threads (a `mvcc-core` session ending on one
/// thread and the pid being re-leased on another), the happens-before
/// edge that makes the previous owner's plain writes visible to the next
/// is [`PidPool`]'s lease hand-off — the `LEASE_RELEASE_STORE` release /
/// `LEASE_CAS` acquire pairing of [`crate::ordering`]. Callers that
/// move a raw pid between threads by other means must supply an
/// equivalent edge themselves.
///
/// [`PidPool`]: crate::PidPool
pub(crate) struct PerProc<T> {
    slots: Box<[CachePadded<UnsafeCell<T>>]>,
}

// Safety: each slot is only accessed by its owning process (enforced by the
// VM usage contract); the container itself is shared read-only.
unsafe impl<T: Send> Sync for PerProc<T> {}
unsafe impl<T: Send> Send for PerProc<T> {}

impl<T> PerProc<T> {
    pub(crate) fn new(n: usize, init: impl Fn(usize) -> T) -> Self {
        PerProc {
            slots: (0..n)
                .map(|k| CachePadded::new(UnsafeCell::new(init(k))))
                .collect(),
        }
    }

    /// Run `f` with exclusive access to process `k`'s slot.
    ///
    /// # Safety
    /// The caller must guarantee no other thread is concurrently inside
    /// `with` for the same `k` (the VM problem's same-`k` exclusion).
    #[inline]
    pub(crate) unsafe fn with<R>(&self, k: usize, f: impl FnOnce(&mut T) -> R) -> R {
        f(unsafe { &mut *self.slots[k].get() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_slots() {
        let pp = PerProc::new(3, |k| k * 10);
        unsafe {
            pp.with(0, |v| *v += 1);
            pp.with(2, |v| *v += 2);
            assert_eq!(pp.with(0, |v| *v), 1);
            assert_eq!(pp.with(1, |v| *v), 10);
            assert_eq!(pp.with(2, |v| *v), 22);
        }
    }
}
