//! Every call into the product, in one place. The workloads, the checks
//! and the floors speak only the small vocabulary defined here, so a PR
//! that changes a product API edits this file and nothing else.
//!
//! The spans a traced window records are opened here too: around each
//! crate entry call, and inside each closure the crate calls back into.

use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use mvcc_core::{
    CommitAck, Database, Durability, DurableConfig, DurableDatabase, DurableSession, GroupCommit,
    MaintenancePolicy, MaintenanceTick, Router, Session,
};
use mvcc_ftree::{Forest, SumU64Map, U64Map};
use mvcc_net::proto;
use mvcc_net::{ErrorCode, Request, Response, Server, ServerConfig, ServerStats};
use mvcc_vm::VmKind;
use mvcc_wal::{Storage, WalBatch, WalOp};

use crate::stats::median_f64;
use crate::storage::TimingStorage;
use crate::trace;

// ---------------------------------------------------------------------
// mem: the in-memory transactional core (plm, vm, ftree, core::session)
// ---------------------------------------------------------------------

pub struct MemDb(Database<SumU64Map>);

/// Allocation counters of an arena, summed over shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArenaTotals {
    pub allocated: u64,
    pub freed: u64,
}

impl MemDb {
    pub fn new(processes: usize) -> MemDb {
        MemDb(Database::new(processes))
    }

    /// Keys `0..n`, every value 0, as one bulk-built version.
    pub fn preload(&self, n: u64) {
        let items: Vec<(u64, u64)> = (0..n).map(|k| (k, 0)).collect();
        let mut s = self.0.session().expect("fresh database has free pids");
        s.write_raw(|forest, base| {
            forest.release(base);
            (forest.build_sorted(&items), ())
        });
    }

    pub fn session(&self) -> MemSession<'_> {
        MemSession(self.0.session().expect("one pid per load thread"))
    }

    pub fn live_versions(&self) -> u64 {
        self.0.live_versions()
    }

    pub fn live_nodes(&self) -> u64 {
        self.0.forest().arena().live()
    }

    pub fn arena_totals(&self) -> ArenaTotals {
        let s = self.0.forest().arena().stats();
        ArenaTotals {
            allocated: s.allocated_total,
            freed: s.freed_total,
        }
    }

    /// Nodes reachable from the current root, by walking it.
    pub fn reachable_nodes(&self) -> u64 {
        let mut n = 0u64;
        self.0
            .session()
            .expect("quiescent database has free pids")
            .read(|snap| snap.for_each(|_, _| n += 1));
        n
    }

    /// `(commits, aborts)` of every session dropped so far.
    pub fn txn_counts(&self) -> (u64, u64) {
        let s = self.0.stats();
        (s.commits, s.aborts)
    }
}

pub struct MemSession<'db>(Session<'db, SumU64Map>);

impl MemSession<'_> {
    /// Both keys of a pair from one snapshot.
    #[inline]
    pub fn read_pair(&mut self, k: u64) -> (Option<u64>, Option<u64>) {
        let _entry = trace::span("core.read_txn");
        self.0.read(|snap| {
            let _body = trace::span("ftree.get");
            (snap.get(&k).copied(), snap.get(&(k ^ 1)).copied())
        })
    }

    /// Sum of the values in `lo..=hi`.
    #[inline]
    pub fn range_sum(&mut self, lo: u64, hi: u64) -> u64 {
        let _entry = trace::span("core.read_txn");
        self.0.read(|snap| {
            let _body = trace::span("ftree.range_sum");
            snap.aug_range(&lo, &hi)
        })
    }

    /// Set both keys of a pair to `stamp` in one commit.
    #[inline]
    pub fn write_pair(&mut self, k: u64, stamp: u64) {
        let _entry = trace::span("core.write_txn");
        self.0.write(|txn| {
            let _body = trace::span("ftree.update");
            txn.insert(k, stamp);
            txn.insert(k ^ 1, stamp);
        })
    }
}

// ---------------------------------------------------------------------
// durable: core::durable over the WAL over the timing storage
// ---------------------------------------------------------------------

pub struct DurDb {
    db: DurableDatabase<U64Map>,
    pub storage: Arc<TimingStorage>,
}

pub struct Ack(CommitAck);

#[derive(Debug, Clone, Copy, Default)]
pub struct DurStats {
    pub groups: u64,
    pub batches: u64,
    pub flush_ns_total: u64,
    pub blocked_enqueues: u64,
    pub checkpoints: u64,
    pub wal_bytes: u64,
}

/// `Always` × `Leader`, with segments small enough that a checkpoint can
/// retire most of the log: a checkpoint only drops whole sealed
/// segments, so with the default 8 MiB segment the footprint would sit
/// above the workload's 1 MiB threshold and every supervisor step would
/// checkpoint again.
fn durable_config() -> DurableConfig {
    DurableConfig {
        segment_bytes: 256 << 10,
        ..DurableConfig::default()
    }
    .with_durability(Durability::Always)
    .with_group_commit(GroupCommit::Leader)
}

impl DurDb {
    /// Open-or-recover `dir` behind the timing wrapper.
    pub fn open(dir: &Path, processes: usize) -> Result<DurDb, String> {
        let storage = Arc::new(TimingStorage::new(dir).map_err(|e| e.to_string())?);
        let as_dyn: Arc<dyn Storage> = storage.clone();
        let db = DurableDatabase::recover_storage(as_dyn, processes, durable_config())
            .map_err(|e| e.to_string())?;
        Ok(DurDb { db, storage })
    }

    /// Keys `0..n` with value = key, in durable commits of 4096 entries,
    /// then a checkpoint so the run starts from a short log.
    pub fn preload(&self, n: u64) -> Result<(), String> {
        let mut s = self.db.session().map_err(|e| e.to_string())?;
        for chunk in (0..n).collect::<Vec<_>>().chunks(4096) {
            let batch: Vec<(u64, u64)> = chunk.iter().map(|&k| (k, k)).collect();
            s.write(|txn| txn.multi_insert(batch.clone(), |_old, new| *new))
                .map_err(|e| e.to_string())?;
        }
        drop(s);
        self.db.checkpoint().map_err(|e| e.to_string())?;
        Ok(())
    }

    pub fn session(&self) -> DurSession<'_> {
        DurSession(self.db.session().expect("one pid per writer"))
    }

    /// One supervisor step; `Ok(true)` when it wrote a checkpoint.
    pub fn maintenance_tick(&self, wal_bytes_threshold: u64) -> Result<bool, String> {
        let _entry = trace::span("durable.maintenance_tick");
        let policy = MaintenancePolicy::default().with_wal_bytes_threshold(wal_bytes_threshold);
        match self.db.maintenance_tick(&policy) {
            MaintenanceTick::Checkpointed(_) => Ok(true),
            MaintenanceTick::Failed => Err(format!("checkpoint failed: {:?}", self.db.health())),
            _ => Ok(false),
        }
    }

    pub fn stats(&self) -> DurStats {
        let d = self.db.durable_stats();
        DurStats {
            groups: d.groups_flushed,
            batches: d.batches_flushed,
            flush_ns_total: d.flush_ns_total,
            blocked_enqueues: d.blocked_enqueues,
            checkpoints: self.db.maintenance_stats().checkpoints,
            wal_bytes: self.db.wal_bytes(),
        }
    }

    pub fn arena_totals(&self) -> ArenaTotals {
        let s = self.db.database().forest().arena().stats();
        ArenaTotals {
            allocated: s.allocated_total,
            freed: s.freed_total,
        }
    }
}

/// What a recovery of a plain directory (no wrapper) found.
pub struct Recovered {
    pub contents: Vec<(u64, u64)>,
    pub replayed_batches: u64,
    /// Time inside `DurableDatabase::recover` alone.
    pub recover_ms: f64,
}

pub fn recover_dir(dir: &Path, processes: usize) -> Result<Recovered, String> {
    let t0 = Instant::now();
    let db: DurableDatabase<U64Map> =
        DurableDatabase::recover(dir, processes, durable_config()).map_err(|e| e.to_string())?;
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut s = db.session().map_err(|e| e.to_string())?;
    Ok(Recovered {
        contents: s.read(|snap| snap.to_vec()),
        replayed_batches: db.recovery().replayed as u64,
        recover_ms,
    })
}

pub struct DurSession<'db>(DurableSession<'db, U64Map>);

impl DurSession<'_> {
    /// Insert the four pairs as one commit: visible and logged on return,
    /// durable once the ack has been waited on.
    #[inline]
    pub fn commit4(&mut self, kv: &[(u64, u64); 4]) -> Result<Ack, String> {
        let _entry = trace::span("durable.write_acked");
        let ((), ack) = self
            .0
            .write_acked(|txn| {
                let _body = trace::span("ftree.update");
                for &(k, v) in kv {
                    txn.insert(k, v);
                }
            })
            .map_err(|e| e.to_string())?;
        Ok(Ack(ack))
    }
}

impl Ack {
    #[inline]
    pub fn wait(&self) -> Result<(), String> {
        let _entry = trace::span("durable.ack_wait");
        self.0.wait().map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// net: the TCP server over a Router, and its blocking client
// ---------------------------------------------------------------------

pub struct NetServer {
    server: Arc<Server>,
    router: Arc<Router<U64Map>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<io::Result<()>>>,
    /// `/proc/<pid>/task/<tid>` of the poll-loop thread.
    task_dir: String,
}

impl NetServer {
    /// A router of `shards × pids` preloaded with keys `0..n` (value =
    /// key), served on an ephemeral loopback port by a poll-loop thread
    /// this struct owns.
    pub fn start(shards: usize, pids: usize, n: u64) -> io::Result<NetServer> {
        let router: Arc<Router<U64Map>> = Arc::new(Router::new(shards, pids));
        for k in 0..n {
            router.session(&k).insert(k, k);
        }
        let server = Arc::new(Server::bind_with(
            Arc::clone(&router),
            "127.0.0.1:0",
            ServerConfig::default(),
        )?);
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let thread = {
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("bench-net-server".into())
                .spawn(move || {
                    crate::sys::bind_to_cpu(0);
                    let me = std::fs::read_link("/proc/thread-self")
                        .map(|p| format!("/proc/{}", p.display()))
                        .unwrap_or_default();
                    let _ = tx.send(me);
                    server.run_until(&stop)
                })?
        };
        let task_dir = rx.recv().unwrap_or_default();
        Ok(NetServer {
            server,
            router,
            stop,
            thread: Some(thread),
            task_dir,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// Drain the admission-wait samples (ns).
    pub fn take_wait_samples(&self) -> Vec<u64> {
        self.server.take_wait_samples()
    }

    /// CPU time the poll-loop thread has used so far, in µs.
    pub fn server_cpu_us(&self) -> u64 {
        crate::sys::thread_cpu_us(&self.task_dir)
    }

    pub fn arena_totals(&self) -> ArenaTotals {
        let mut t = ArenaTotals::default();
        for db in self.router.iter() {
            let s = db.forest().arena().stats();
            t.allocated += s.allocated_total;
            t.freed += s.freed_total;
        }
        t
    }

    /// Time `reqs` applied in-process through `Router::session` — the
    /// part of a round trip that is not the network layer. Returns ns
    /// per request.
    pub fn engine_op_ns(&self, reqs: &[(bool, u64, u64)]) -> f64 {
        let t0 = Instant::now();
        for &(is_get, k, v) in reqs {
            let mut s = self.router.session(&k);
            if is_get {
                black_box(s.get(&k));
            } else {
                s.insert(k, v);
            }
        }
        t0.elapsed().as_nanos() as f64 / reqs.len().max(1) as f64
    }

    /// `Router::session` + drop, uncontended: ns per lease.
    pub fn pool_acquire_ns(&self, iters: u64) -> f64 {
        let t0 = Instant::now();
        for k in 0..iters {
            black_box(self.router.session(&k));
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    }

    /// Stop and join the poll loop; returns sessions still leased (must
    /// be 0) and the loop's result.
    pub fn shutdown(mut self) -> (usize, io::Result<()>) {
        self.stop.store(true, Ordering::Relaxed);
        let res = match self.thread.take().map(JoinHandle::join) {
            Some(Ok(r)) => r,
            _ => Err(io::Error::other("server thread panicked")),
        };
        (self.router.sessions_leased(), res)
    }
}

pub enum Reply {
    Value(Option<u64>),
    Done,
    /// `Overloaded`: refused before any side effect.
    Refused,
    Other(String),
}

/// One client connection: the product's wire codec over a socket the
/// benchmark owns, because a paced generator must be able to look for a
/// reply without waiting for it (`mvcc_net::Client` only blocks).
pub struct NetConn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
}

impl NetConn {
    /// Nagle off, like `mvcc_net::Client`. With `blocking` false, `recv`
    /// returns `None` instead of waiting.
    pub fn connect(addr: SocketAddr, blocking: bool) -> io::Result<NetConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(!blocking)?;
        Ok(NetConn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
        })
    }

    #[inline]
    pub fn send_get(&mut self, key: u64) -> Result<(), String> {
        self.send(&Request::Get { key })
    }

    #[inline]
    pub fn send_put(&mut self, key: u64, value: u64) -> Result<(), String> {
        self.send(&Request::Put { key, value })
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        self.out.clear();
        proto::encode_request(req, &mut self.out);
        self.stream.write_all(&self.out).map_err(|e| e.to_string())
    }

    /// The next reply, in the order the requests were sent; `None` if it
    /// has not arrived yet (non-blocking connections only).
    #[inline]
    pub fn recv(&mut self) -> Result<Option<Reply>, String> {
        loop {
            let frame = proto::split_frame(&self.inbuf).map_err(|e| e.to_string())?;
            if let Some((payload, used)) = frame {
                let response = proto::decode_response(payload).map_err(|e| e.to_string())?;
                self.inbuf.drain(..used);
                return Ok(Some(match response {
                    Response::Value { value } => Reply::Value(value),
                    Response::Done => Reply::Done,
                    Response::Error {
                        code: ErrorCode::Overloaded,
                        ..
                    } => Reply::Refused,
                    other => Reply::Other(format!("{other:?}")),
                }));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("the server closed the connection".into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

// ---------------------------------------------------------------------
// floors: single-thread timed loops over each layer's public functions
// ---------------------------------------------------------------------

/// Median over `reps` of the mean ns per iteration of `body(iters)`.
fn loop_ns(reps: usize, iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let per_iter: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            body(iters);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_f64(&per_iter)
}

fn median_ns(mut samples: Vec<u64>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// The floors of the layers every workload runs on: what plm's and vm's
/// cheapest public operations cost on this host right now, with nothing
/// else running. `processes` is the workload's P.
pub fn engine_floors(processes: usize) -> [(&'static str, f64); 4] {
    // plm: one tuple allocated and collected again.
    let forest: Forest<U64Map> = Forest::new();
    let alloc_collect = loop_ns(5, 200_000, |n| {
        for k in 0..n {
            forest.release(black_box(forest.singleton(k, k)));
        }
    });

    // vm: each call timed on its own, less the cost of reading the clock.
    let vm = VmKind::Pswf.build(processes, 0);
    let n = 100_000usize;
    let (mut clock, mut acquire, mut set, mut release) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut released = Vec::new();
    for i in 0..n as u64 {
        let t0 = Instant::now();
        let t1 = Instant::now();
        black_box(vm.acquire(0));
        let t2 = Instant::now();
        black_box(vm.set(0, i + 1));
        let t3 = Instant::now();
        vm.release(0, &mut released);
        let t4 = Instant::now();
        released.clear();
        clock.push((t1 - t0).as_nanos() as u64);
        acquire.push((t2 - t1).as_nanos() as u64);
        set.push((t3 - t2).as_nanos() as u64);
        release.push((t4 - t3).as_nanos() as u64);
    }
    let clock = median_ns(clock);
    // A mean, not a median: calls this short sit near the clock's own
    // resolution, where a median would read the same on every run.
    let mean_less_clock =
        |v: Vec<u64>| (v.iter().sum::<u64>() as f64 / v.len() as f64 - clock).max(0.0);
    [
        ("plm.alloc_collect_pair_ns", alloc_collect),
        ("vm.acquire_ns", mean_less_clock(acquire)),
        ("vm.set_ns", mean_less_clock(set)),
        ("vm.release_ns", mean_less_clock(release)),
    ]
}

/// wal: framing the durable workload's four-insert batch.
pub fn wal_floor() -> [(&'static str, f64); 1] {
    let batch = WalBatch {
        tx_id: 1,
        commit_ts: 2,
        snapshot_ts: 1,
        ops: (0..4u64)
            .map(|k| WalOp::Put(k.to_le_bytes().to_vec(), k.to_le_bytes().to_vec()))
            .collect(),
    };
    let mut frame = Vec::new();
    let encode = loop_ns(5, 200_000, |n| {
        for _ in 0..n {
            frame.clear();
            black_box(&batch).encode_frame(&mut frame);
            black_box(&frame);
        }
    });
    [("wal.encode_frame_ns", encode)]
}

/// net: one GET and one PUT through both directions of the codec, in ns
/// per request.
pub fn codec_floor_ns() -> f64 {
    let mut buf = Vec::new();
    let mut codec_turn = |req: &Request, resp: &Response| {
        buf.clear();
        proto::encode_request(black_box(req), &mut buf);
        let (payload, _) = proto::split_frame(&buf).unwrap().unwrap();
        black_box(proto::decode_request(payload).unwrap());
        buf.clear();
        proto::encode_response(black_box(resp), &mut buf);
        let (payload, _) = proto::split_frame(&buf).unwrap().unwrap();
        black_box(proto::decode_response(payload).unwrap());
    };
    loop_ns(5, 100_000, |n| {
        for k in 0..n {
            codec_turn(
                &Request::Get { key: k },
                &Response::Value { value: Some(k) },
            );
            codec_turn(&Request::Put { key: k, value: k }, &Response::Done);
        }
    }) / 2.0
}
