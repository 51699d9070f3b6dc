//! `net-paced` and `net-saturated`: the same TCP server and data, driven
//! two ways. Paced is an open loop far below capacity, so the server's
//! idle sleep/wake sets the latency; saturated is a closed pipelined
//! loop, so CPU per request sets the throughput.

use std::collections::VecDeque;

use crate::adapters::{codec_floor_ns, engine_floors, NetConn, NetServer, Reply};
use crate::gen::{poisson_schedule, Rng};
use crate::stats::median_f64;
use crate::trace::{self, NO_PARENT};

use super::{layers, p50, p95, p99, timed, Cfg, FamilyOut, PhaseOut, Phases, WINDOW};

const KEYS: u64 = 1 << 16;
const SHARDS: usize = 2;
pub const PIDS_PER_SHARD: usize = 2;
/// At most `nproc` connections on the 2-core reference host.
const CONNS: usize = 2;
/// Offered load of `net-paced`, requests per second over both connections.
const PACED_RATE: f64 = 2000.0;
/// A paced run is void — the generator, not the server, set its
/// latencies — if more than one request in twenty went out later than
/// this. (The issue put the limit at one in a hundred. On this sandbox
/// the hypervisor takes a core away for longer than 200 µs from a thread
/// that does nothing but read the clock 40–90 times a second, which
/// makes 1–2 % of the requests late whatever the generator does; half
/// of all runs would be void. One in twenty still keeps the reported
/// 90th percentile within a few per cent.)
const MAX_GEN_LATE_P95_NS: f64 = 200_000.0;
/// Outstanding requests per connection in `net-saturated`.
const PIPELINE: usize = 32;

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Open loop, Poisson arrivals, 90 % GET.
    Paced,
    /// Closed loop, pipelined, 50 % GET.
    Saturated,
}

impl Mode {
    fn get_share(self) -> f64 {
        match self {
            Mode::Paced => 0.9,
            Mode::Saturated => 0.5,
        }
    }
}

struct Pending {
    id: u64,
    phase: usize,
    /// Expected value for a GET; `None` for a PUT.
    expect_get: Option<u64>,
    /// Latency is counted from here: the due time (paced) or the moment
    /// of sending (saturated).
    from: u64,
    /// The `send` call's own span.
    send: (u64, u64),
}

/// The one load thread of a net workload.
struct Generator {
    /// Connection `i` owns the keys congruent to `i`.
    conns: Vec<NetConn>,
    pending: Vec<VecDeque<Pending>>,
    /// Last value acknowledged (or in flight) per key. Nobody else
    /// writes a connection's keys and the server answers a connection in
    /// order, so a GET must return exactly this.
    model: Vec<u64>,
    rng: Rng,
    mode: Mode,
    ph: Phases,
    out: Vec<PhaseOut>,
    issued: u64,
    send_ns: Vec<u64>,
    recv_ns: Vec<u64>,
    /// How late each request went out, by phase.
    late_ns: Vec<Vec<u64>>,
    errors: Vec<String>,
}

impl Generator {
    fn new(conns: Vec<NetConn>, seed: u64, mode: Mode, ph: Phases) -> Generator {
        let out = PhaseOut::per_phase();
        let late_ns = vec![Vec::new(); out.len()];
        Generator {
            pending: conns.iter().map(|_| VecDeque::new()).collect(),
            model: (0..KEYS).collect(),
            rng: Rng::new(seed, 8),
            conns,
            mode,
            ph,
            out,
            issued: 0,
            send_ns: Vec::new(),
            recv_ns: Vec::new(),
            late_ns,
            errors: Vec::new(),
        }
    }

    /// Draw the next request and send it on connection `c`. It was `due`
    /// at that time, and the connection was free for it from `ready` on
    /// (≥ `due`).
    fn issue(&mut self, c: usize, phase: usize, due: u64, ready: u64) {
        let key = self.rng.below(KEYS / CONNS as u64) * CONNS as u64 + c as u64;
        let is_get = self.rng.unit() < self.mode.get_share();
        self.issued += 1;
        let id = KEYS + self.issued;
        let t0 = trace::now_ns();
        let sent = if is_get {
            self.conns[c].send_get(key)
        } else {
            self.model[key as usize] = id;
            self.conns[c].send_put(key, id)
        };
        let t1 = trace::now_ns();
        if let Err(e) = sent {
            self.fail(phase, format!("send: {e}"));
            return;
        }
        self.late_ns[phase].push(t0.saturating_sub(ready));
        if phase >= WINDOW && self.ph.traced {
            self.send_ns.push(t1 - t0);
        }
        self.pending[c].push_back(Pending {
            id,
            phase,
            expect_get: is_get.then(|| self.model[key as usize]),
            from: if self.mode == Mode::Paced { due } else { t0 },
            send: (t0, t1),
        });
    }

    /// Receive the oldest outstanding reply on connection `c` and check
    /// it; `false` if nothing is outstanding or (paced) it is not back yet.
    fn try_complete(&mut self, c: usize) -> bool {
        if self.pending[c].is_empty() {
            return false;
        }
        let t0 = trace::now_ns();
        let reply = match self.conns[c].recv() {
            Ok(None) => return false,
            Ok(Some(reply)) => Ok(reply),
            Err(e) => Err(e),
        };
        let t1 = trace::now_ns();
        let p = self.pending[c].pop_front().expect("checked above");
        let o = &mut self.out[p.phase];
        let ok = match (&reply, p.expect_get) {
            (Ok(Reply::Value(got)), Some(want)) => *got == Some(want),
            (Ok(Reply::Done), None) => true,
            _ => false,
        };
        o.ops += 1;
        o.op_lat.push(t1 - p.from);
        if p.expect_get.is_none() {
            o.writes += 1;
            o.write_lat.push(t1 - p.from);
        }
        if !ok {
            let what = match reply {
                Ok(Reply::Value(v)) => format!("GET returned {v:?}, want {:?}", p.expect_get),
                Ok(Reply::Done) => "PUT reply to a GET".into(),
                Ok(Reply::Refused) => "refused (Overloaded)".into(),
                Ok(Reply::Other(r)) => r,
                Err(e) => format!("recv: {e}"),
            };
            self.fail(p.phase, what);
        }
        if p.phase >= WINDOW && self.ph.traced {
            self.recv_ns.push(t1 - t0);
            if self.ph.sampled(p.phase, p.id) {
                let name = if p.expect_get.is_some() {
                    "op.get"
                } else {
                    "op.put"
                };
                let root = trace::record(name, p.from.min(p.send.0), t1, NO_PARENT, p.id);
                trace::record("net.client_send", p.send.0, p.send.1, root, p.id);
                trace::record("net.client_recv", t0, t1, root, p.id);
            }
        }
        true
    }

    fn fail(&mut self, phase: usize, what: String) {
        self.out[phase].failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn drain(&mut self) {
        for c in 0..self.conns.len() {
            while !self.pending[c].is_empty() {
                self.try_complete(c);
            }
        }
    }

    /// Open loop: every request has a due time drawn before the run and
    /// goes out on the connections in turn, one outstanding request per
    /// connection. The generator never sleeps: it polls for replies, so
    /// that each is timed the moment it lands, and for the clock to
    /// reach the next due time. (A sleep comes back 30 µs to 3 ms late on
    /// this sandbox, and latency counts from the due time; the spin is
    /// the generator's own CPU, on its own core, and is in no metric.)
    /// A connection still busy at the due time is the system's wait: it
    /// counts in the latency, not in the generator's lateness.
    fn run_paced(&mut self, schedule: &[u64]) {
        let mut free_at = vec![0u64; self.conns.len()];
        for (n, &offset) in schedule.iter().enumerate() {
            let due = self.ph.start + offset;
            let Some(phase) = self.ph.at(due) else { break };
            let c = n % self.conns.len();
            loop {
                for (k, free) in free_at.iter_mut().enumerate() {
                    if self.try_complete(k) {
                        *free = trace::now_ns();
                    }
                }
                let now = trace::now_ns();
                if now >= due && self.pending[c].is_empty() {
                    break;
                }
                std::hint::spin_loop();
            }
            self.issue(c, phase, due, due.max(free_at[c]));
        }
        self.drain();
    }

    /// Closed loop: keep `PIPELINE` requests outstanding per connection.
    fn run_saturated(&mut self) {
        let mut now = trace::now_ns();
        while let Some(phase) = self.ph.at(now) {
            for c in 0..self.conns.len() {
                while self.pending[c].len() >= PIPELINE {
                    self.try_complete(c);
                }
                // Due the moment a slot in the window is free.
                let due = trace::now_ns();
                self.issue(c, phase, due, due);
            }
            now = trace::now_ns();
        }
        self.drain();
    }
}

struct Setup {
    server: NetServer,
    conns: Vec<NetConn>,
}

fn setup(mode: Mode) -> Setup {
    let server = NetServer::start(SHARDS, PIDS_PER_SHARD, KEYS).expect("start server");
    // The paced generator polls for replies; the saturated one waits.
    let blocking = mode == Mode::Saturated;
    let conns = (0..CONNS)
        .map(|_| NetConn::connect(server.addr(), blocking).expect("connect"))
        .collect();
    Setup { server, conns }
}

pub fn run(cfg: &Cfg, mode: Mode) -> FamilyOut {
    let mut out = FamilyOut::default();
    let (Setup { server, conns }, first_setup_s) = timed(|| setup(mode));

    let ph = Phases::starting_now(cfg);
    let mut gen = Generator::new(conns, cfg.seed, mode, ph);
    // Of the server's poll loop alone: the generator's CPU is the load's.
    let mut server_cpu = Vec::new();
    let mut arena0 = server.arena_totals();
    let (mut gen, spans) = std::thread::scope(|sc| {
        let h = sc.spawn(move || {
            // The server's poll loop has CPU 0.
            crate::sys::bind_to_cpu(1);
            match mode {
                Mode::Paced => {
                    let horizon = cfg.secs.iter().sum();
                    gen.run_paced(&poisson_schedule(cfg.seed, 7, PACED_RATE, horizon))
                }
                Mode::Saturated => gen.run_saturated(),
            }
            (gen, trace::take())
        });
        ph.watch(|edge| {
            server_cpu.push(server.server_cpu_us());
            if edge == 0 {
                arena0 = server.arena_totals();
                // Only the window's admission waits are wanted.
                drop(server.take_wait_samples());
            }
        });
        h.join().expect("generator")
    });
    out.spans = vec![spans];
    out.check_errors.append(&mut gen.errors);
    let issued = gen.issued;
    let answered: u64 = gen.out.iter().map(|o| o.ops).sum();
    let (mut send_ns, mut recv_ns) = (gen.send_ns, gen.recv_ns);
    out.absorb(cfg, vec![gen.out], &server_cpu);
    // Tracing overhead where the rate is fixed: the median latency's rise.
    if mode == Mode::Paced {
        if let Some(ref_p50_ns) = p50(&mut out.reference.op_lat) {
            out.overhead_share = out.whole.op_p50_us * 1e3 / ref_p50_ns - 1.0;
        }
    }

    let mut waits = server.take_wait_samples();
    let stats = server.stats();
    let arena = server.arena_totals();
    out.nodes_alloc_per_write =
        (arena.allocated - arena0.allocated) as f64 / out.window.writes.max(1) as f64;

    // Floors (traced runs only): the engine without the wire, an
    // uncontended session lease, and the codec.
    let mut floors = Vec::new();
    if cfg.traced {
        let mut rng = Rng::new(cfg.seed, 9);
        let reqs: Vec<(bool, u64, u64)> = (0..100_000u64)
            .map(|i| (rng.unit() < mode.get_share(), rng.below(KEYS), i))
            .collect();
        let (engine_op_ns, codec_ns) = (server.engine_op_ns(&reqs), codec_floor_ns());
        floors.extend(engine_floors(PIDS_PER_SHARD));
        floors.extend([
            ("net.engine_op_ns", engine_op_ns),
            ("net.codec_ns", codec_ns),
            ("core.pool_acquire_ns", server.pool_acquire_ns(100_000)),
            // What is left of a round trip: poll loop, syscalls,
            // sleep/wake, pipeline wait.
            (
                "net.wire_self_us",
                out.whole.op_p50_us - (engine_op_ns + codec_ns) / 1e3,
            ),
        ]);
    }

    let (leased, loop_result) = server.shutdown();
    drop(gen.conns);
    out.finish_setups(
        cfg,
        first_setup_s,
        || setup(mode),
        |s| {
            let _ = s.server.shutdown();
        },
    );
    out.check(loop_result.is_ok(), || {
        format!("poll loop: {loop_result:?}")
    });
    out.check(leased == 0, || {
        format!("{leased} sessions still leased after shutdown")
    });
    out.check(answered == issued, || {
        format!("{issued} requests, {answered} replies")
    });
    out.check(stats.fifo_violations == 0, || {
        format!("{} FIFO violations", stats.fifo_violations)
    });
    // How late the generator ran is a paced run's validity guard (a
    // closed loop has no due times to be late for): like every other
    // figure, the median over the slices of the slice's percentile.
    let mut gen_late_ns = |pct: fn(&mut [u64]) -> Option<f64>| {
        let slices: Vec<f64> = gen.late_ns[WINDOW..]
            .iter_mut()
            .filter_map(|late| pct(late))
            .collect();
        (mode == Mode::Paced && !slices.is_empty()).then(|| median_f64(&slices))
    };
    let (gen_late_p95_ns, gen_late_p99_ns) = (gen_late_ns(p95), gen_late_ns(p99));
    out.check(
        gen_late_p95_ns.is_none_or(|ns| ns <= MAX_GEN_LATE_P95_NS),
        || {
            format!(
                "the generator ran {:.0} us late at p95: the run is void",
                gen_late_p95_ns.unwrap_or(0.0) / 1e3
            )
        },
    );

    let served = out.window.ops.max(1) as f64;
    let server_cpu_us = server_cpu.last().unwrap_or(&0) - server_cpu.first().unwrap_or(&0);
    let us = |ns: Option<f64>| ns.map(|ns| ns / 1e3);
    out.layers = layers([
        ("net.rtt_p50_us", Some(out.whole.op_p50_us)),
        ("net.client_send_us", us(p50(&mut send_ns))),
        ("net.client_recv_us", us(p50(&mut recv_ns))),
        ("net.admission_wait_ns_p50", p50(&mut waits)),
        ("net.admission_wait_ns_p99", p99(&mut waits)),
        ("net.max_queue_depth", Some(stats.max_queue_depth as f64)),
        ("net.shed", Some(stats.shed as f64)),
        ("net.deadline_expired", Some(stats.deadline_expired as f64)),
        ("net.fifo_violations", Some(stats.fifo_violations as f64)),
        ("net.proto_errors", Some(stats.proto_errors as f64)),
        (
            "net.server_cpu_us_per_req",
            Some(server_cpu_us as f64 / served),
        ),
        ("net.gen_late_us_p95", us(gen_late_p95_ns)),
        ("net.gen_late_us_p99", us(gen_late_p99_ns)),
    ]);
    out.layers.extend(floors);
    out
}
