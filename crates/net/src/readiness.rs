//! Blocking readiness: one `ppoll(2)` over the listener, the connections
//! and a wake pipe — and the crate's only `unsafe`.
//!
//! The server loop hands [`wait`] a set of [`PollFd`]s and a timeout and
//! gets back which of them can move. Everything platform-specific lives
//! here: the wait is a direct `extern "C"` call into the libc `std`
//! already links (no new dependency), over kernel structs declared by
//! hand for 64-bit Linux and Android — the only targets this crate
//! builds for.
//!
//! [`WakePipe`] is how another thread ends a wait early: a nonblocking
//! socket pair whose read end sits in every wait set. Who writes to it,
//! and when, is [`crate::executor::ReadySet`]'s protocol.

use std::time::Duration;

pub use sys::{wait, PollFd, Source, WakePipe};

/// Lower the calling thread's timer slack to `slack` for as long as the
/// returned guard lives (Linux rounds every sleep and poll timeout up by
/// the slack, 50 µs by default — more than the naps the server loop
/// takes). A no-op if the kernel refuses the knob.
pub fn timer_slack(slack: Duration) -> TimerSlack {
    TimerSlack {
        restore: sys::swap_timer_slack(slack.as_nanos() as u64),
    }
}

/// Restores the thread's previous timer slack on drop.
#[derive(Debug)]
pub struct TimerSlack {
    restore: Option<u64>,
}

impl Drop for TimerSlack {
    fn drop(&mut self) {
        if let Some(ns) = self.restore {
            sys::swap_timer_slack(ns);
        }
    }
}

// The kernel structs in `sys` are declared by hand for the 64-bit Linux
// ABI; a fallback for other targets would be code no CI compiles or runs.
#[cfg(not(all(
    any(target_os = "linux", target_os = "android"),
    target_pointer_width = "64"
)))]
compile_error!("mvcc-net's readiness wait is ppoll(2) on 64-bit Linux or Android only");

mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::io::{self, Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    /// Anything with a descriptor the kernel can poll.
    pub use std::os::fd::AsRawFd as Source;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;
    const POLLNVAL: c_short = 0x020;

    const PR_SET_TIMERSLACK: c_int = 29;
    const PR_GET_TIMERSLACK: c_int = 30;

    /// `struct timespec` on the 64-bit Linux ABIs: two `long`s.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// One source in a wait set: what the loop asked about it and, after
    /// [`wait`], what the kernel answered. Laid out as `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    // The kernel reads and writes these through raw pointers.
    const _: () = {
        assert!(std::mem::size_of::<PollFd>() == 8);
        assert!(std::mem::offset_of!(PollFd, events) == 4);
        assert!(std::mem::offset_of!(PollFd, revents) == 6);
        assert!(std::mem::size_of::<Timespec>() == 16);
    };

    impl PollFd {
        /// Ask whether `source` can be read and/or written. The entry
        /// holds the bare descriptor: `source` must stay open until the
        /// entry has been waited on and read.
        pub fn new(source: &impl Source, read: bool, write: bool) -> PollFd {
            let mut events = 0;
            if read {
                events |= POLLIN;
            }
            if write {
                events |= POLLOUT;
            }
            PollFd {
                fd: source.as_raw_fd(),
                events,
                revents: 0,
            }
        }

        /// A read will not block: there are bytes, or the peer hung up
        /// or the socket failed — the read says which.
        pub fn readable(&self) -> bool {
            self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
        }
    }

    /// Block until a source in `fds` is ready or `timeout` passes (zero:
    /// look without blocking); returns how many are ready. A signal ends
    /// the wait early with nothing ready.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ts = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // entries laid out as `struct pollfd`, and its length is passed
        // with it, so the kernel reads and writes only inside it; `ts`
        // outlives the call and is a valid timespec (`tv_nsec` < 1e9); a
        // null `sigmask` leaves the signal mask alone. `ppoll` keeps no
        // pointer after it returns, and a descriptor closed in the
        // meantime is reported as `POLLNVAL`, not dereferenced.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        for fd in fds {
            fd.revents = 0;
        }
        Ok(0)
    }

    /// Set the calling thread's timer slack; returns the previous value.
    pub(super) fn swap_timer_slack(ns: u64) -> Option<u64> {
        // SAFETY: `PR_GET_TIMERSLACK` takes no further argument and
        // `PR_SET_TIMERSLACK` one `unsigned long` by value; neither
        // touches memory, and both act on the calling thread only.
        unsafe {
            let prev = prctl(PR_GET_TIMERSLACK);
            (prev >= 0 && prctl(PR_SET_TIMERSLACK, ns as c_ulong) == 0).then_some(prev as u64)
        }
    }

    /// A nonblocking socket pair: [`WakePipe::wake`] from any thread
    /// makes the read end — a [`Source`] — readable until
    /// [`WakePipe::drain`].
    #[derive(Debug)]
    pub struct WakePipe {
        tx: UnixStream,
        rx: UnixStream,
    }

    impl WakePipe {
        pub fn new() -> io::Result<WakePipe> {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(WakePipe { tx, rx })
        }

        /// Make the read end readable. A full pipe is already readable,
        /// so a failed write loses nothing.
        pub fn wake(&self) {
            let _ = (&self.tx).write(&[1]);
        }

        /// Swallow every pending wake.
        pub fn drain(&self) {
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
    }

    impl AsRawFd for WakePipe {
        fn as_raw_fd(&self) -> std::os::fd::RawFd {
            self.rx.as_raw_fd()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::super::timer_slack;
        use super::*;
        use std::time::Instant;

        #[test]
        fn wait_reports_timeout_a_readable_stream_and_the_wake_pipe() {
            let (mut a, b) = UnixStream::pair().unwrap();
            let pipe = WakePipe::new().unwrap();
            let set = |b_write: bool| {
                [
                    PollFd::new(&pipe, true, false),
                    PollFd::new(&b, true, b_write),
                ]
            };

            // Nothing to read: the timeout expires, and no sooner.
            let mut fds = set(false);
            let t0 = Instant::now();
            assert_eq!(wait(&mut fds, Duration::from_millis(20)).unwrap(), 0);
            assert!(t0.elapsed() >= Duration::from_millis(20));
            assert!(!fds[0].readable() && !fds[1].readable());

            // Write interest in a stream with room ends the wait at once, and
            // is not mistaken for something to read.
            let mut fds = set(true);
            assert_eq!(wait(&mut fds, Duration::from_secs(5)).unwrap(), 1);
            assert!(!fds[1].readable() && !fds[0].readable());

            // Bytes on the stream: only the stream is readable.
            a.write_all(b"x").unwrap();
            let mut fds = set(false);
            assert_eq!(wait(&mut fds, Duration::from_secs(5)).unwrap(), 1);
            assert!(fds[1].readable() && !fds[0].readable());

            // A wake from another thread ends a wait that is already blocked.
            let mut fds = [PollFd::new(&pipe, true, false)];
            let t0 = Instant::now();
            std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(20));
                    pipe.wake();
                });
                assert_eq!(wait(&mut fds, Duration::from_secs(5)).unwrap(), 1);
            });
            assert!(fds[0].readable());
            assert!(
                t0.elapsed() < Duration::from_secs(4),
                "woken, not timed out"
            );

            // Wakes coalesce, and a drained pipe is quiet again.
            pipe.wake();
            pipe.drain();
            let mut fds = set(false);
            assert_eq!(wait(&mut fds, Duration::ZERO).unwrap(), 1);
            assert!(!fds[0].readable() && fds[1].readable());

            // A peer that hangs up counts as readable: the read sees the EOF.
            drop(a);
            let mut fds = [PollFd::new(&b, false, false)];
            assert_eq!(wait(&mut fds, Duration::ZERO).unwrap(), 1);
            assert!(fds[0].readable());
        }

        #[test]
        fn timer_slack_is_lowered_and_put_back() {
            let before = swap_timer_slack(50_000).expect("linux has the knob");
            {
                let _precise = timer_slack(Duration::from_micros(1));
                assert_eq!(swap_timer_slack(1_000), Some(1_000));
            }
            assert_eq!(swap_timer_slack(before), Some(50_000));
        }
    }
}
