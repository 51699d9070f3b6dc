//! The server: one poll loop multiplexing every client connection onto
//! a [`Router`]'s `N×P` pids through async session admission.
//!
//! No thread is ever parked per waiter. A connection whose request
//! cannot lease a pid holds an `AcquireFuture` parked in the shard's
//! FIFO ticket queue; the session release that frees a pid wakes
//! exactly that future (through the connection's waker, see
//! [`crate::executor`]), and the loop re-polls it on its next sweep.
//! Thousands of connections therefore cost a queue entry and a buffer
//! each — not a stack — which is the whole point of the async admission
//! layer.
//!
//! The loop, per sweep:
//!
//! 1. **wait** for readiness ([`crate::readiness::wait`]) on the wake
//!    pipe, the listener and every connection that has room to be read
//!    or output left to write — the only place the loop blocks;
//! 2. accept new connections, if the listener is ready;
//! 3. read the ready sockets, splitting and decoding complete frames;
//! 4. drain the ready set and re-poll exactly the woken admissions;
//! 5. admit each connection's next queued request (one in flight per
//!    connection — responses stay in request order);
//! 6. flush staged response bytes, reap finished connections;
//! 7. every maintenance tick (~1ms), re-poll deadline-expired
//!    admissions, reap idle connections, sample queue-depth gauges,
//!    sweep expired session leases, and drive the installed
//!    durability-maintenance hook ([`Server::set_maintenance`]).
//!
//! # Where the loop blocks, and what wakes it
//!
//! Step 1 first looks without blocking. With nothing ready and no
//! admission woken it blocks until the next tick is due, and four
//! things end that wait early: a connecting client, bytes (or a
//! hang-up) on a connection being read, room on a socket with unflushed
//! output, and a byte on the wake pipe — written by the waker of a
//! parked admission when a session is released on *another* thread, and
//! by [`ServerHandle::shutdown`] ([`crate::executor`] has the protocol).
//! A connection that is back-pressured, or closing with nothing left to
//! write, is not in the wait set at all: only an admission can move it,
//! so it cannot make the loop spin. An idle server therefore runs one
//! sweep per tick; a bare [`Server::run_until`] caller's stop flag is
//! seen within one.
//!
//! With something ready the loop does not block, and left alone it
//! would run many small sweeps — a handful of requests for a round of
//! system calls each. So a sweep that finds work less than `SWEEP_PACE`
//! (40µs) after the previous sweep began naps out the remainder first
//! and serves what piled up meanwhile as one batch. A request that
//! arrives while the loop is blocked is never delayed by this.
//! [`ServerStats`] counts sweeps, blocked waits, paced sweeps and wake-
//! pipe wakes; requests ÷ sweeps is the batch size.
//!
//! Admission order is audited: tickets are drawn in arrival order, so
//! per shard the granted tickets must be strictly increasing. The
//! counter [`ServerStats::fifo_violations`] stays zero or the pool's
//! fairness contract is broken (the loopback integration test asserts
//! this).
//!
//! # Overload behavior
//!
//! Every queue this server feeds is bounded, and overload degrades to
//! *typed replies*, never dropped connections or unbounded memory
//! ([`ServerConfig`] holds the knobs):
//!
//! * **Load shedding** — with [`ServerConfig::shed_depth`] set, a
//!   request whose shard admission queue is already that deep is
//!   answered [`ErrorCode::Overloaded`] *before* it queues: no
//!   session, no side effects, and the reply carries
//!   [`ServerConfig::retry_after_hint`] as a client backoff hint. The
//!   connection stays open.
//! * **Request deadlines** — with [`ServerConfig::request_deadline`]
//!   set, an admission still queued when its deadline passes is
//!   cancelled (its ticket leaves the queue through the pool's
//!   wake-forwarding cancel path) and answered `Overloaded`; the
//!   connection proceeds to its next request.
//! * **Idle reaping** — with [`ServerConfig::idle_timeout`] set, a
//!   connection with nothing buffered, parsed, pending or unflushed
//!   for that long is closed by the tick. Mid-pipeline connections
//!   are never reaped, however slow.
//!
//! All three are off by default ([`ServerConfig::default`] preserves
//! the unbounded behavior); [`ServerStats`] counts what each did.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use mvcc_core::pool::AcquireState;
use mvcc_core::{Health, MaintenanceHook, Router, Session};
use mvcc_ftree::U64Map;

use crate::conn::{Conn, Hangup};
use crate::executor::{conn_waker, ReadySet};
use crate::proto::{ErrorCode, Request, Response, TxnOp};
use crate::readiness::{self, PollFd};

/// The least time between the starts of two sweeps that both found work
/// without blocking: the second naps out the remainder, so a loaded
/// server serves a batch per round of system calls instead of a request
/// or two. Never added to a request that arrives while the loop is
/// blocked.
const SWEEP_PACE: Duration = Duration::from_micros(40);

/// Timer slack of the loop thread while it runs: the kernel's default
/// (50µs) would more than double every [`SWEEP_PACE`] nap.
const TIMER_SLACK: Duration = Duration::from_micros(1);

/// Fixed entries of the loop's wait set; connections follow.
const WAKE_PIPE: usize = 0;
const LISTENER: usize = 1;
const FIRST_CONN: usize = 2;

/// Coarse maintenance-tick period: deadline re-polls, idle reaping,
/// gauge sampling and lease sweeps happen at this granularity — one
/// clock read per tick, no per-connection or per-waiter timers.
const TICK: Duration = Duration::from_millis(1);

/// Keep at most this many admission-wait samples (oldest kept; the
/// system benchmark drains them long before the cap).
const MAX_WAIT_SAMPLES: usize = 1 << 22;

/// Monotone counters the loop maintains; snapshot with
/// [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests answered (typed error replies included).
    pub requests: u64,
    /// Connections dropped for protocol violations.
    pub proto_errors: u64,
    /// Admissions granted out of ticket order — **must stay zero**;
    /// a nonzero value means the pool broke its FIFO contract.
    pub fifo_violations: u64,
    /// Requests answered [`ErrorCode::Overloaded`] at the door
    /// (admission queue over [`ServerConfig::shed_depth`]).
    pub shed: u64,
    /// Admissions cancelled because their
    /// [`ServerConfig::request_deadline`] passed while queued (also
    /// answered `Overloaded`).
    pub deadline_expired: u64,
    /// Connections closed by the idle reaper
    /// ([`ServerConfig::idle_timeout`]).
    pub reaped_idle: u64,
    /// Deepest per-shard admission queue ever observed (sampled at
    /// shed checks and every tick — a high-water gauge, not a sum).
    pub max_queue_depth: u64,
    /// Times the installed durability-maintenance hook
    /// ([`Server::set_maintenance`]) was driven by the loop's tick.
    pub maintenance_ticks: u64,
    /// Whether the last maintenance hook invocation reported
    /// [`Health::Degraded`] — reclamation is stalled, commits are not.
    pub maintenance_degraded: bool,
    /// Sweeps of the poll loop; [`ServerStats::requests`] over this is
    /// the mean batch a sweep serves.
    pub sweeps: u64,
    /// Sweeps whose readiness wait found nothing to do and blocked (on
    /// an idle server: all of them, one per tick).
    pub blocked_waits: u64,
    /// Sweeps that found work too soon after the previous one and
    /// napped first, to batch.
    pub paced_sweeps: u64,
    /// Waits ended by the wake pipe: a session released on another
    /// thread woke a parked admission, or a shutdown.
    pub wake_fd_wakes: u64,
    /// Failed `accept` calls (aborted handshakes, a full descriptor
    /// table); the loop keeps serving and accepts again next tick.
    pub accept_errors: u64,
}

/// Overload-protection knobs for a [`Server`]. The default is fully
/// permissive — no shedding, no deadlines, no reaping — i.e. exactly
/// the pre-config behavior; production fronts set all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Shed a request (typed [`ErrorCode::Overloaded`] reply, no
    /// side effects) when its shard's admission queue is already this
    /// deep. `None` = never shed.
    pub shed_depth: Option<usize>,
    /// Cancel an admission still queued after this long and answer
    /// `Overloaded`; the connection survives. `None` = wait forever.
    pub request_deadline: Option<Duration>,
    /// Close a connection with no buffered, parsed, pending or
    /// unflushed work for this long. `None` = never reap.
    pub idle_timeout: Option<Duration>,
    /// Backoff hint carried in every `Overloaded` reply (clamped to
    /// `u16::MAX` milliseconds on the wire).
    pub retry_after_hint: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shed_depth: None,
            request_deadline: None,
            idle_timeout: None,
            retry_after_hint: Duration::from_millis(1),
        }
    }
}

impl ServerConfig {
    /// The wire form of [`ServerConfig::retry_after_hint`].
    fn retry_after_ms(&self) -> u16 {
        u16::try_from(self.retry_after_hint.as_millis()).unwrap_or(u16::MAX)
    }
}

/// A wire-protocol front end over a [`Router`]: bind with
/// [`Server::bind`], drive with [`Server::run_until`] (or spawn a loop
/// thread with [`Server::start`]).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    router: Arc<Router<U64Map>>,
    config: ServerConfig,
    connections: AtomicU64,
    requests: AtomicU64,
    proto_errors: AtomicU64,
    fifo_violations: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    reaped_idle: AtomicU64,
    max_queue_depth: AtomicU64,
    maintenance_ticks: AtomicU64,
    sweeps: AtomicU64,
    blocked_waits: AtomicU64,
    paced_sweeps: AtomicU64,
    wake_fd_wakes: AtomicU64,
    accept_errors: AtomicU64,
    /// Woken admissions, and the wake pipe that ends the loop's wait.
    ready: Arc<ReadySet>,
    /// Durability-maintenance hook driven by the loop's tick, plus the
    /// health its last invocation reported (see
    /// [`Server::set_maintenance`]).
    maintenance: Mutex<Option<MaintenanceHook>>,
    maintenance_health: Mutex<Option<Health>>,
    /// Nanoseconds each admitted request waited between joining the
    /// admission queue and leasing its session — the async-path
    /// equivalent of `SessionPool::acquire` wait time.
    wait_samples: Mutex<Vec<u64>>,
}

/// One request parked in (or just entering) a shard's admission queue.
struct Admission {
    /// Ticket + (optional) deadline in the shard pool's FIFO queue;
    /// dropping it surrenders the ticket with wake-forwarding.
    state: AcquireState,
    req: Request,
    shard: usize,
    since: Instant,
}

/// A connection slot: IO state plus at most one in-flight admission.
struct Slot {
    conn: Conn,
    pending: Option<Admission>,
    /// Cached so re-polls pass the *same* waker (`will_wake` then
    /// short-circuits the clone in `poll_acquire`).
    waker: Waker,
    /// Last time this connection's bytes or admission moved — the
    /// idle reaper's clock.
    last_activity: Instant,
}

/// How a parsed request proceeds.
enum Classified {
    /// Answerable without a session (empty `TXN`, cross-shard error).
    Immediate(Response),
    /// Needs a session on this shard — enter the admission queue.
    Admit(usize),
}

impl Server {
    /// Bind a listener and wrap `router` behind it. `addr` may be
    /// `"127.0.0.1:0"` for an ephemeral port ([`Server::local_addr`]
    /// reports the choice).
    pub fn bind(router: Arc<Router<U64Map>>, addr: impl ToSocketAddrs) -> io::Result<Server> {
        Server::bind_with(router, addr, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit overload-protection knobs.
    pub fn bind_with(
        router: Arc<Router<U64Map>>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            router,
            config,
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            proto_errors: AtomicU64::new(0),
            fifo_violations: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            reaped_idle: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            maintenance_ticks: AtomicU64::new(0),
            sweeps: AtomicU64::new(0),
            blocked_waits: AtomicU64::new(0),
            paced_sweeps: AtomicU64::new(0),
            wake_fd_wakes: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            ready: ReadySet::new()?,
            maintenance: Mutex::new(None),
            maintenance_health: Mutex::new(None),
            wait_samples: Mutex::new(Vec::new()),
        })
    }

    /// [`Server::bind`] plus a named loop thread: returns a handle that
    /// stops and joins the loop on [`ServerHandle::shutdown`] (or drop).
    pub fn start(
        router: Arc<Router<U64Map>>,
        addr: impl ToSocketAddrs,
    ) -> io::Result<ServerHandle> {
        Server::start_with(router, addr, ServerConfig::default())
    }

    /// [`Server::start`] with explicit overload-protection knobs.
    pub fn start_with(
        router: Arc<Router<U64Map>>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let server = Arc::new(Server::bind_with(router, addr, config)?);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("mvcc-net-server".into())
                .spawn(move || server.run_until(&stop))?
        };
        Ok(ServerHandle {
            server,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router this server fronts.
    pub fn router(&self) -> &Arc<Router<U64Map>> {
        &self.router
    }

    /// The overload-protection knobs this server runs with.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// Snapshot the loop's counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            proto_errors: self.proto_errors.load(Ordering::Relaxed),
            fifo_violations: self.fifo_violations.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            reaped_idle: self.reaped_idle.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            maintenance_ticks: self.maintenance_ticks.load(Ordering::Relaxed),
            maintenance_degraded: self.maintenance_health().is_some_and(|h| h.is_degraded()),
            sweeps: self.sweeps.load(Ordering::Relaxed),
            blocked_waits: self.blocked_waits.load(Ordering::Relaxed),
            paced_sweeps: self.paced_sweeps.load(Ordering::Relaxed),
            wake_fd_wakes: self.wake_fd_wakes.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
        }
    }

    /// Install a durability-maintenance hook the loop drives from its
    /// coarse tick (~1ms): typically
    /// `DurableDatabase::maintenance_hook`, which embeds the
    /// checkpoint/retention supervisor in this server's thread instead
    /// of a dedicated one. The hook runs *between* request batches —
    /// a checkpoint executes synchronously in the tick, so admission
    /// pauses for its duration, but commits already queued on the WAL
    /// flush independently. Installing replaces any previous hook.
    pub fn set_maintenance(&self, hook: MaintenanceHook) {
        *self.maintenance.lock().unwrap_or_else(|e| e.into_inner()) = Some(hook);
    }

    /// The health the maintenance hook reported on its last tick
    /// (`None` until a hook is installed and has run once).
    pub fn maintenance_health(&self) -> Option<Health> {
        self.maintenance_health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Drain the recorded admission-wait samples (ns). The system
    /// benchmark turns these into its `net.admission_wait_ns_*` rows.
    pub fn take_wait_samples(&self) -> Vec<u64> {
        std::mem::take(&mut *self.wait_samples.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Run the poll loop until `stop` turns true. The flag is checked
    /// every sweep and an idle loop sweeps once per tick, so shutdown
    /// latency is about a millisecond ([`ServerHandle::shutdown`] also
    /// wakes the loop and is seen at once). One thread at a time.
    pub fn run_until(&self, stop: &AtomicBool) -> io::Result<()> {
        let router = &*self.router;
        let ready = &self.ready;
        let _precise_naps = readiness::timer_slack(TIMER_SLACK);
        let mut slots: Vec<Option<Slot>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut woken: Vec<usize> = Vec::new();
        // The wait set, and the slot behind each of its connections.
        let mut fds: Vec<PollFd> = Vec::new();
        let mut polled: Vec<usize> = Vec::new();
        // Per-shard FIFO audit trail: the last granted ticket.
        let mut last_ticket: Vec<Option<u64>> = vec![None; router.shards()];
        let mut next_tick = Instant::now() + TICK;
        let mut sweep_began = Instant::now();
        // After a failed accept the listener stays out of the wait set
        // until the next tick: its readiness is level-triggered, and a
        // full descriptor table would otherwise spin the loop.
        let mut accept_muted = false;

        while !stop.load(Ordering::Relaxed) {
            self.sweeps.fetch_add(1, Ordering::Relaxed);

            // 1. Wait: look, and block only if there is nothing to do.
            fds.clear();
            polled.clear();
            fds.push(PollFd::new(ready.pipe(), true, false));
            fds.push(PollFd::new(&self.listener, !accept_muted, false));
            for (id, slot) in slots.iter().enumerate() {
                if let Some(fd) = slot.as_ref().and_then(|slot| slot.conn.interest()) {
                    fds.push(fd);
                    polled.push(id);
                }
            }
            let now = Instant::now();
            if readiness::wait(&mut fds, Duration::ZERO)? == 0 && ready.park() {
                let blocked = readiness::wait(&mut fds, next_tick.saturating_duration_since(now));
                ready.unpark();
                blocked?;
                self.blocked_waits.fetch_add(1, Ordering::Relaxed);
            } else if let Some(early) = SWEEP_PACE.checked_sub(now.duration_since(sweep_began)) {
                // Work, and hard on the heels of the last sweep: let a
                // batch pile up, then look again.
                std::thread::sleep(early);
                self.paced_sweeps.fetch_add(1, Ordering::Relaxed);
                readiness::wait(&mut fds, Duration::ZERO)?;
            }
            sweep_began = Instant::now();
            if fds[WAKE_PIPE].readable() {
                ready.pipe().drain();
                self.wake_fd_wakes.fetch_add(1, Ordering::Relaxed);
            }

            // 2. Accept.
            while !accept_muted && fds[LISTENER].readable() {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let Ok(conn) = Conn::new(stream) else {
                            continue;
                        };
                        let id = free.pop().unwrap_or_else(|| {
                            slots.push(None);
                            slots.len() - 1
                        });
                        let waker = conn_waker(ready, id);
                        slots[id] = Some(Slot {
                            conn,
                            pending: None,
                            waker,
                            last_activity: sweep_began,
                        });
                        self.connections.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    // Transient (the peer aborted, the descriptor table
                    // is full): the connections already here are served.
                    Err(_) => {
                        self.accept_errors.fetch_add(1, Ordering::Relaxed);
                        accept_muted = true;
                    }
                }
            }

            // 3. Read and parse the ready sockets.
            for (fd, &id) in fds[FIRST_CONN..].iter().zip(&polled) {
                let slot = slots[id].as_mut().expect("in the wait set this sweep");
                if fd.readable() && slot.conn.fill() {
                    slot.last_activity = sweep_began;
                }
            }

            // 4. Re-poll exactly the woken admissions.
            ready.drain_into(&mut woken);
            for &id in &woken {
                if let Some(slot) = slots.get_mut(id).and_then(Option::as_mut) {
                    self.drive(router, slot, &mut last_ticket);
                }
            }

            // 5. Admit next requests on connections with no admission in
            //    flight (drive() loops on to the pipeline's next request
            //    after each grant, so this also covers fresh arrivals).
            for slot in slots.iter_mut().flatten() {
                if slot.pending.is_none() && slot.conn.parsed_backlog() > 0 {
                    self.drive(router, slot, &mut last_ticket);
                }
            }

            // 6. Flush what is staged, then reap finished connections.
            for (id, entry) in slots.iter_mut().enumerate() {
                let Some(slot) = entry.as_mut() else { continue };
                if !slot.conn.flushed() && slot.conn.flush() {
                    slot.last_activity = sweep_began;
                }
                let reap = match slot.conn.hangup() {
                    // Protocol violation: close once the typed farewell
                    // reply is on the wire.
                    Some(Hangup::Proto(_)) => slot.conn.flushed(),
                    // Socket error: nothing more can move.
                    Some(Hangup::Io(_)) => true,
                    // Peer half-closed: serve what it pipelined, then
                    // close once everything is answered and flushed.
                    Some(Hangup::Eof) => {
                        slot.pending.is_none()
                            && slot.conn.parsed_backlog() == 0
                            && slot.conn.flushed()
                    }
                    None => false,
                };
                if reap {
                    if matches!(slot.conn.hangup(), Some(Hangup::Proto(_))) {
                        self.proto_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    // Dropping the slot drops any pending AcquireState,
                    // which surrenders its ticket and forwards a stolen
                    // wake — a dying connection cannot stall the queue.
                    *entry = None;
                    free.push(id);
                }
            }

            // 7. Coarse maintenance tick.
            let now = Instant::now();
            if now >= next_tick {
                self.tick(router, &mut slots, &mut free, &mut last_ticket, now);
                next_tick = now + TICK;
                accept_muted = false;
            }
        }
        Ok(())
    }

    /// The coarse maintenance tick (every [`TICK`] of loop time):
    ///
    /// * re-poll admissions whose deadline has passed — no release will
    ///   wake them, so the expiry must be *observed* here;
    /// * reap connections idle past [`ServerConfig::idle_timeout`]
    ///   (nothing buffered, parsed, pending or unflushed — a slow
    ///   mid-pipeline connection is never reaped);
    /// * sample the per-shard admission-queue depth high-water gauge;
    /// * sweep expired session leases on the router (other holders of
    ///   the same router may lease with timeouts; the server's tick is
    ///   the reaper that makes those deadlines real);
    /// * drive the installed durability-maintenance hook and record
    ///   the [`Health`] it reports ([`Server::set_maintenance`]).
    fn tick(
        &self,
        router: &Router<U64Map>,
        slots: &mut [Option<Slot>],
        free: &mut Vec<usize>,
        last_ticket: &mut [Option<u64>],
        now: Instant,
    ) {
        for (id, entry) in slots.iter_mut().enumerate() {
            let Some(slot) = entry.as_mut() else { continue };
            // Deadline-expired admissions: poll observes the expiry and
            // answers Overloaded (the connection lives on).
            let expired = slot
                .pending
                .as_ref()
                .and_then(|a| a.state.deadline())
                .is_some_and(|d| now >= d);
            if expired {
                self.drive(router, slot, last_ticket);
            }
            // Idle reaper.
            if let Some(idle) = self.config.idle_timeout {
                if slot.pending.is_none()
                    && slot.conn.hangup().is_none()
                    && slot.conn.is_idle()
                    && now.duration_since(slot.last_activity) >= idle
                {
                    *entry = None;
                    free.push(id);
                    self.reaped_idle.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        for shard in 0..router.shards() {
            self.note_queue_depth(router.with_shard(shard).pool().waiters());
        }
        router.reap_leases();
        // Drive the durability-maintenance hook, if installed. The Arc
        // is cloned out so the hook (which may run a checkpoint) never
        // executes under the server's own lock.
        let hook = self
            .maintenance
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if let Some(hook) = hook {
            let health = hook();
            self.maintenance_ticks.fetch_add(1, Ordering::Relaxed);
            *self
                .maintenance_health
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(health);
        }
    }

    /// Update the queue-depth high-water gauge.
    fn note_queue_depth(&self, depth: usize) {
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// The typed load-shed reply (side-effect-free by construction: it
    /// is staged before any session exists for the request).
    fn overloaded(&self, what: &str) -> Response {
        Response::Error {
            code: ErrorCode::Overloaded,
            retry_after_ms: self.config.retry_after_ms(),
            message: format!(
                "request shed under overload ({what}); back off and retry — \
                 nothing was applied and this connection is still good"
            ),
        }
    }

    /// Drive one connection: poll its pending admission and, after each
    /// grant, admit the pipeline's next request — until something parks
    /// or the backlog empties.
    fn drive(&self, router: &Router<U64Map>, slot: &mut Slot, last_ticket: &mut [Option<u64>]) {
        loop {
            if slot.pending.is_none() {
                let Some(req) = slot.conn.pop_request() else {
                    break;
                };
                match classify(router, &req) {
                    Classified::Immediate(resp) => {
                        slot.conn.push_response(&resp);
                        self.requests.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    Classified::Admit(shard) => {
                        // Shed at the door: over the depth threshold the
                        // request never queues and never gets a session —
                        // the reply is typed and side-effect-free.
                        let depth = router.with_shard(shard).pool().waiters();
                        self.note_queue_depth(depth);
                        if self.config.shed_depth.is_some_and(|limit| depth >= limit) {
                            slot.conn
                                .push_response(&self.overloaded("admission queue at depth limit"));
                            self.shed.fetch_add(1, Ordering::Relaxed);
                            self.requests.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let state = match self.config.request_deadline {
                            Some(d) => AcquireState::with_deadline(Instant::now() + d),
                            None => AcquireState::default(),
                        };
                        slot.pending = Some(Admission {
                            state,
                            req,
                            shard,
                            since: Instant::now(),
                        });
                    }
                }
            }
            let adm = slot.pending.as_mut().expect("set above");
            let pool = router.with_shard(adm.shard).pool();
            let mut cx = Context::from_waker(&slot.waker);
            match pool.poll_acquire_deadline(&mut cx, &mut adm.state) {
                Poll::Ready(Ok(mut session)) => {
                    let adm = slot.pending.take().expect("still in flight");
                    self.audit_fifo(&adm, last_ticket);
                    self.record_wait(adm.since.elapsed());
                    let resp = execute(&mut session, &adm.req);
                    // Dropping the session releases the pid and wakes
                    // the next waiter (possibly another connection's
                    // admission, via the ready set).
                    drop(session);
                    slot.conn.push_response(&resp);
                    self.requests.fetch_add(1, Ordering::Relaxed);
                }
                Poll::Ready(Err(_expired)) => {
                    // Deadline passed while queued: the ticket already
                    // left the queue (wake forwarded); answer Overloaded
                    // and move on to the pipeline's next request.
                    slot.pending = None;
                    slot.conn
                        .push_response(&self.overloaded("request deadline passed in queue"));
                    self.deadline_expired.fetch_add(1, Ordering::Relaxed);
                    self.requests.fetch_add(1, Ordering::Relaxed);
                }
                Poll::Pending => break,
            }
        }
    }

    /// Granted tickets are drawn in arrival order, so per shard they
    /// must be strictly increasing — the observable form of the pool's
    /// FIFO fairness contract.
    fn audit_fifo(&self, adm: &Admission, last_ticket: &mut [Option<u64>]) {
        let Some(ticket) = adm.state.ticket() else {
            return;
        };
        let last = &mut last_ticket[adm.shard];
        if last.is_some_and(|l| ticket <= l) {
            self.fifo_violations.fetch_add(1, Ordering::Relaxed);
        }
        *last = Some(ticket);
    }

    fn record_wait(&self, waited: Duration) {
        let mut samples = self.wait_samples.lock().unwrap_or_else(|e| e.into_inner());
        if samples.len() < MAX_WAIT_SAMPLES {
            samples.push(waited.as_nanos() as u64);
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("shards", &self.router.shards())
            .field("capacity", &self.router.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Decide how a request proceeds (see [`Classified`]). Runs before
/// admission so requests that need no session never queue.
fn classify(router: &Router<U64Map>, req: &Request) -> Classified {
    match req {
        Request::Txn { ops } if ops.is_empty() => {
            Classified::Immediate(Response::TxnOk { applied: 0 })
        }
        Request::Txn { ops } => {
            let shard = router.shard_for(&ops[0].key());
            match ops.iter().find(|op| router.shard_for(&op.key()) != shard) {
                Some(stray) => Classified::Immediate(Response::Error {
                    code: ErrorCode::CrossShardTxn,
                    retry_after_ms: 0,
                    message: format!(
                        "key {} routes to shard {}, not the batch's shard {shard}; \
                         shards are independent databases and cross-shard \
                         transactions do not exist",
                        stray.key(),
                        router.shard_for(&stray.key()),
                    ),
                }),
                None => Classified::Admit(shard),
            }
        }
        _ => {
            let key = req.routing_key().expect("non-TXN requests carry a key");
            Classified::Admit(router.shard_for(&key))
        }
    }
}

/// Run one admitted request inside its session lease.
fn execute(session: &mut Session<'_, U64Map>, req: &Request) -> Response {
    match req {
        Request::Get { key } => Response::Value {
            value: session.get(key),
        },
        Request::Put { key, value } => {
            session.insert(*key, *value);
            Response::Done
        }
        Request::Del { key } => Response::Removed {
            prev: session.remove(key),
        },
        Request::Txn { ops } => {
            session.write(|txn| {
                for op in ops {
                    match *op {
                        TxnOp::Put { key, value } => txn.insert(key, value),
                        TxnOp::Del { key } => {
                            txn.remove(&key);
                        }
                    }
                }
            });
            Response::TxnOk {
                applied: ops.len() as u16,
            }
        }
    }
}

/// Owner of a running server loop thread (see [`Server::start`]).
/// Dropping the handle stops and joins the loop.
pub struct ServerHandle {
    server: Arc<Server>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The server (stats, wait samples, router).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Raise the stop flag, then end the loop's wait so it is read now
    /// and not at the next tick.
    fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.server.ready.pipe().wake();
    }

    /// Stop the loop and join its thread, returning the loop's exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop();
        match self.thread.take() {
            Some(t) => t.join().expect("server loop panicked"),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr())
            .finish()
    }
}
