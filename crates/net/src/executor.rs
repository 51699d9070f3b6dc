//! The hand-rolled executor underneath the server: a ready set fed by
//! per-connection [`Waker`]s.
//!
//! There is no task heap and no runtime here — the server's poll loop
//! *is* the executor. Each connection with a request parked in the
//! session admission queue holds one `AcquireFuture`; the waker handed
//! to that future, when woken by a session release, pushes the
//! connection's id into a shared [`ReadySet`]. The loop drains the set
//! each sweep and re-polls exactly the woken futures — so one
//! session release translates into one future poll, mirroring the
//! pool's one-wake-per-release invariant at the connection layer.
//!
//! Wakes can arrive from any thread (a sync `Session` dropped elsewhere
//! releases the same pids), so the set is a mutex-guarded id vector
//! with a dedup bitmask; the loop never blocks on it.
//!
//! The loop does block in its readiness wait
//! ([`crate::readiness::wait`]), so a wake must be able to end that
//! wait. The set owns a [`WakePipe`] whose read end is in every wait
//! set, and a `parked` flag orders the two threads:
//!
//! ```text
//! loop:  parked = true  →  ids empty?  →  block        →  parked = false
//! wake:  ids.push(id)   →  parked.swap(false)?  →  one byte into the pipe
//! ```
//!
//! Either the loop's emptiness check sees the id (it takes the same
//! mutex the push did) and does not block, or the push comes later and
//! finds `parked` set: no wake is lost, and a loop that is not about to
//! block costs a waker no syscall. A caller with nothing to push
//! (shutdown) writes the pipe directly: a byte that lands while the loop
//! is busy just makes its next wait return at once.
//!
//! For driving a single future from synchronous code (tests, simple
//! clients), use [`block_on`] — re-exported from `mvcc_core::pool`,
//! where the admission futures live.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Wake, Waker};

pub use mvcc_core::pool::block_on;

use crate::readiness::WakePipe;

/// Connection ids whose admission futures have been woken and must be
/// re-polled. Shared between the poll loop (drains) and every
/// connection waker (inserts, possibly from other threads).
pub struct ReadySet {
    inner: Mutex<ReadyInner>,
    /// The loop has announced it is about to block (see the module
    /// docs): the next push owes it a byte on `pipe`.
    parked: AtomicBool,
    pipe: WakePipe,
}

struct ReadyInner {
    /// Woken ids in wake order (FIFO re-poll keeps admission audits
    /// deterministic).
    ids: Vec<usize>,
    /// `queued[id]` — id already in `ids`? Dedups redundant wakes
    /// (coalesced permits, waker clones) without growing `ids`.
    queued: Vec<bool>,
}

impl ReadySet {
    pub fn new() -> io::Result<Arc<ReadySet>> {
        Ok(Arc::new(ReadySet {
            inner: Mutex::new(ReadyInner {
                ids: Vec::new(),
                queued: Vec::new(),
            }),
            parked: AtomicBool::new(false),
            pipe: WakePipe::new()?,
        }))
    }

    /// Mark `id` ready (idempotent until drained).
    pub fn push(&self, id: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.queued.len() <= id {
            inner.queued.resize(id + 1, false);
        }
        if !inner.queued[id] {
            inner.queued[id] = true;
            inner.ids.push(id);
        }
        drop(inner);
        if self.parked.swap(false, Ordering::SeqCst) {
            self.pipe.wake();
        }
    }

    /// Announce that the loop is about to block. `false` — and nothing
    /// announced — if something is already woken: don't block.
    pub fn park(&self) -> bool {
        self.parked.store(true, Ordering::SeqCst);
        let clear = self.is_empty();
        if !clear {
            self.unpark();
        }
        clear
    }

    /// The wait [`ReadySet::park`] announced is over: pushes cost no
    /// syscall again.
    pub fn unpark(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// The pipe whose read end the loop puts in its wait set, and
    /// drains when a wait reports it readable.
    pub fn pipe(&self) -> &WakePipe {
        &self.pipe
    }

    /// Take the woken ids, in wake order. `out` is reused across loop
    /// iterations (cleared here) so the hot path allocates nothing.
    pub fn drain_into(&self, out: &mut Vec<usize>) {
        out.clear();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::swap(&mut inner.ids, out);
        for &id in out.iter() {
            inner.queued[id] = false;
        }
    }

    /// Is anything woken?
    pub fn is_empty(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .ids
            .is_empty()
    }
}

/// The waker for one connection's admission future: wake = "push my
/// connection id into the ready set".
struct ConnWaker {
    ready: Arc<ReadySet>,
    id: usize,
}

impl Wake for ConnWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// Build the [`Waker`] that re-schedules connection `id`.
pub fn conn_waker(ready: &Arc<ReadySet>, id: usize) -> Waker {
    Waker::from(Arc::new(ConnWaker {
        ready: Arc::clone(ready),
        id,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakes_dedup_until_drained() {
        let ready = ReadySet::new().unwrap();
        let w3 = conn_waker(&ready, 3);
        let w1 = conn_waker(&ready, 1);
        w3.wake_by_ref();
        w3.wake_by_ref(); // dedup
        w1.wake_by_ref();
        let mut out = Vec::new();
        ready.drain_into(&mut out);
        assert_eq!(out, vec![3, 1], "wake order preserved, dupes dropped");
        assert!(ready.is_empty());
        // After a drain the id can be woken again.
        w3.wake();
        ready.drain_into(&mut out);
        assert_eq!(out, vec![3]);
    }

    /// The wake-pipe protocol: a push pays for a byte only when the loop
    /// has announced a block, once per announcement; and the loop never
    /// blocks past an id that is already in the set.
    #[test]
    fn only_a_parked_loop_is_owed_a_byte() {
        use crate::readiness::{wait, PollFd};
        use std::time::Duration;

        let ready = ReadySet::new().unwrap();
        let piped = || {
            let mut fds = [PollFd::new(ready.pipe(), true, false)];
            wait(&mut fds, Duration::ZERO).unwrap() == 1
        };
        let (w1, w2) = (conn_waker(&ready, 1), conn_waker(&ready, 2));

        w1.wake_by_ref();
        assert!(!piped(), "the loop is awake: no syscall for the waker");
        assert!(!ready.park(), "an id is waiting: do not block");
        w2.wake_by_ref();
        assert!(!piped(), "a refused park announces nothing");

        let mut out = Vec::new();
        ready.drain_into(&mut out);
        assert!(ready.park(), "empty set: block");
        w1.wake_by_ref();
        assert!(piped(), "the parked loop gets its byte");
        ready.pipe().drain();
        w2.wake_by_ref();
        assert!(!piped(), "one byte per announcement");
        ready.unpark();
        ready.drain_into(&mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn wakes_cross_threads() {
        let ready = ReadySet::new().unwrap();
        std::thread::scope(|s| {
            for id in 0..8 {
                let w = conn_waker(&ready, id);
                s.spawn(move || w.wake());
            }
        });
        let mut out = Vec::new();
        ready.drain_into(&mut out);
        out.sort_unstable();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }
}
