//! End-to-end wire-protocol server tests over real loopback sockets.
//!
//! The acceptance bar for the network layer: a server multiplexing 4×
//! more connections than the router has pids serves *every* request
//! correctly (each client model-checks its own key range against a
//! local `HashMap`), admits strictly FIFO per shard (the server's own
//! ticket audit stays at zero violations), and when the last client
//! hangs up every pid is back in its pool.
//!
//! The `*_stress` variant runs the same oracles at stress-tier scale
//! via the CI `stress` job (`cargo test --release -- --ignored`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use multiversion::core::Router;
use multiversion::ftree::U64Map;
use multiversion::net::{
    Client, ClientError, ErrorCode, Request, Response, Server, ServerConfig, TxnOp,
};

/// Tier-1 smoke: one client, every request type, over a real socket.
#[test]
fn loopback_round_trip_serves_every_request_type() {
    let router: Arc<Router<U64Map>> = Arc::new(Router::new(2, 2));
    let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.get(1).unwrap(), None, "empty database");
    client.put(1, 10).unwrap();
    assert_eq!(client.get(1).unwrap(), Some(10));
    client.put(1, 11).unwrap();
    assert_eq!(client.get(1).unwrap(), Some(11), "overwrite");
    assert_eq!(client.del(1).unwrap(), Some(11));
    assert_eq!(client.del(1).unwrap(), None, "double delete");

    // A transaction batch on one key's shard commits atomically.
    let applied = client
        .txn(vec![
            TxnOp::Put { key: 2, value: 20 },
            TxnOp::Put { key: 2, value: 21 },
            TxnOp::Del { key: 2 },
        ])
        .unwrap();
    assert_eq!(applied, 3);
    assert_eq!(client.get(2).unwrap(), None, "txn net effect applied");

    // An empty batch is a no-op, not an error.
    assert_eq!(client.txn(vec![]).unwrap(), 0);

    drop(client);
    let stats = handle.server().stats();
    handle.shutdown().unwrap();
    assert_eq!(stats.fifo_violations, 0);
    assert_eq!(stats.proto_errors, 0);
    assert_eq!(router.sessions_leased(), 0, "no pids leaked");
}

/// A TXN whose keys hash to different shards is refused with the typed
/// error, applies nothing, and leaves the connection usable.
#[test]
fn cross_shard_txn_is_refused_without_side_effects() {
    let router: Arc<Router<U64Map>> = Arc::new(Router::new(4, 1));
    // Find two keys on different shards (the hash spreads; scan a few).
    let k0 = 0u64;
    let k1 = (1..100)
        .find(|k| router.shard_for(k) != router.shard_for(&k0))
        .expect("some key lands on another shard");

    let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let err = client
        .txn(vec![
            TxnOp::Put { key: k0, value: 1 },
            TxnOp::Put { key: k1, value: 2 },
        ])
        .expect_err("keys on two shards cannot be atomic");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::CrossShardTxn),
        other => panic!("expected a typed server error, got {other:?}"),
    }

    // Nothing was applied, and the connection still works.
    assert_eq!(client.get(k0).unwrap(), None);
    assert_eq!(client.get(k1).unwrap(), None);
    client.put(k0, 7).unwrap();
    assert_eq!(client.get(k0).unwrap(), Some(7));

    drop(client);
    handle.shutdown().unwrap();
    assert_eq!(router.sessions_leased(), 0);
}

/// A malformed frame gets a typed error reply, the connection is then
/// closed by the server, and other connections are unaffected.
#[test]
fn protocol_violation_closes_only_the_offending_connection() {
    use std::io::{Read, Write};

    let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 1));
    let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();

    let mut good = Client::connect(handle.addr()).unwrap();
    good.put(1, 10).unwrap();

    // Hand-craft a frame with a bad version byte.
    let mut bad = std::net::TcpStream::connect(handle.addr()).unwrap();
    bad.write_all(&[2u8, 0, 0, 0, 0xFF, 0x01]).unwrap(); // len=2, version=0xFF
    let mut reply = Vec::new();
    bad.read_to_end(&mut reply).unwrap(); // server replies then closes
    let (payload, _) = multiversion::net::proto::split_frame(&reply)
        .unwrap()
        .expect("one whole error frame before close");
    match multiversion::net::proto::decode_response(payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadVersion),
        other => panic!("expected an error reply, got {other:?}"),
    }

    // The well-behaved connection never noticed.
    assert_eq!(good.get(1).unwrap(), Some(10));

    drop(good);
    let stats = handle.server().stats();
    handle.shutdown().unwrap();
    assert_eq!(stats.proto_errors, 1);
    assert_eq!(router.sessions_leased(), 0);
}

/// Pipelined requests on one connection come back in order.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let router: Arc<Router<U64Map>> = Arc::new(Router::new(2, 1));
    let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    const N: u64 = 40;
    for k in 0..N {
        client
            .send(&Request::Put {
                key: k,
                value: k * 2,
            })
            .unwrap();
    }
    for k in 0..N {
        client.send(&Request::Get { key: k }).unwrap();
    }
    for k in 0..N {
        assert_eq!(client.recv().unwrap(), Response::Done, "put #{k}");
    }
    for k in 0..N {
        assert_eq!(
            client.recv().unwrap(),
            Response::Value { value: Some(k * 2) },
            "get #{k} out of order"
        );
    }

    drop(client);
    handle.shutdown().unwrap();
    assert_eq!(router.sessions_leased(), 0);
}

/// The acceptance criterion: 64 connections onto a 2-shard × 8-pid
/// router — 4× more connections than pids — every request model-checked,
/// strict FIFO admission, zero leaks.
#[test]
fn oversubscribed_connections_are_served_correctly_and_fifo() {
    oversubscribed_net_scaled(64, 30);
}

/// Stress-tier: the same oracles with a deeper per-connection workload.
#[test]
#[ignore = "stress tier: long-running, run with --ignored in release"]
fn oversubscribed_connections_are_served_correctly_and_fifo_stress() {
    oversubscribed_net_scaled(64, 400);
}

fn oversubscribed_net_scaled(conns: usize, requests_per_conn: usize) {
    const SHARDS: usize = 2;
    const PIDS: usize = 8;
    let router: Arc<Router<U64Map>> = Arc::new(Router::new(SHARDS, PIDS));
    assert!(
        conns >= 4 * SHARDS * PIDS,
        "the point is ≥4x more connections than pids"
    );
    let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    std::thread::scope(|s| {
        for c in 0..conns {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Disjoint key range per connection: the model is local.
                let base = (c * requests_per_conn * 4) as u64;
                let mut model: HashMap<u64, u64> = HashMap::new();
                for i in 0..requests_per_conn {
                    let k = base + (i % 7) as u64;
                    match i % 4 {
                        0 => {
                            let v = (c + i) as u64;
                            client.put(k, v).unwrap();
                            model.insert(k, v);
                        }
                        1 => {
                            assert_eq!(
                                client.get(k).unwrap(),
                                model.get(&k).copied(),
                                "conn {c} request {i}: GET diverged from model"
                            );
                        }
                        2 => {
                            // Single-shard batch: same key, so trivially
                            // co-sharded.
                            let v = (c * 31 + i) as u64;
                            let applied = client
                                .txn(vec![
                                    TxnOp::Put { key: k, value: v },
                                    TxnOp::Put {
                                        key: k,
                                        value: v + 1,
                                    },
                                ])
                                .unwrap();
                            assert_eq!(applied, 2);
                            model.insert(k, v + 1);
                        }
                        _ => {
                            assert_eq!(
                                client.del(k).unwrap(),
                                model.remove(&k),
                                "conn {c} request {i}: DEL diverged from model"
                            );
                        }
                    }
                }
                // Final sweep: the server agrees with the whole model.
                for (&k, &v) in &model {
                    assert_eq!(client.get(k).unwrap(), Some(v));
                }
            });
        }
    });

    let stats = handle.server().stats();
    handle.shutdown().unwrap();
    assert_eq!(stats.connections, conns as u64);
    assert_eq!(stats.proto_errors, 0);
    assert_eq!(
        stats.fifo_violations, 0,
        "per-shard admission must grant tickets in arrival order"
    );
    assert_eq!(
        router.sessions_leased(),
        0,
        "every pid returned after the last client hung up"
    );
    assert_eq!(
        router.live_versions(),
        SHARDS as u64,
        "precise GC: one live version per quiescent shard"
    );
}

/// Tier-1 shed smoke (also the single-core degradation check: the CI
/// `MVCC_POOL_THREADS=1` variant runs this same test): with
/// `shed_depth = 0` every data request is answered with a typed
/// `Overloaded` carrying the configured backoff hint, the connection
/// stays open through repeated sheds, and nothing is ever applied.
#[test]
fn shed_replies_are_typed_carry_the_hint_and_apply_nothing() {
    let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 1));
    let handle = Server::start_with(
        Arc::clone(&router),
        "127.0.0.1:0",
        ServerConfig {
            shed_depth: Some(0),
            retry_after_hint: Duration::from_millis(7),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    for i in 0..5u64 {
        match client.put(1, 10 + i) {
            Err(ClientError::Overloaded { retry_after_ms, .. }) => {
                assert_eq!(retry_after_ms, 7, "hint travels on the wire");
            }
            other => panic!("shed #{i}: expected Overloaded, got {other:?}"),
        }
    }
    assert!(
        matches!(client.get(1), Err(ClientError::Overloaded { .. })),
        "the connection survived five sheds and still answers"
    );

    drop(client);
    let stats = handle.server().stats();
    handle.shutdown().unwrap();
    assert!(stats.shed >= 6, "every data request was shed at the door");
    assert_eq!(
        stats.requests, stats.shed,
        "shed replies are answered requests"
    );
    assert_eq!(router.sessions_leased(), 0);
    // Side-effect-free: straight to the store, bypassing the server.
    assert_eq!(router.session(&1u64).get(&1), None);
    assert_eq!(router.live_versions(), 1, "only the initial empty version");
}

/// A request whose admission outlives `request_deadline` is answered
/// `Overloaded` *while the pool is still camped* (the tick re-polls the
/// expired future; no release ever wakes it), applies nothing, and the
/// connection keeps working afterwards.
#[test]
fn queued_request_past_its_deadline_is_shed_and_the_conn_survives() {
    let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 1));
    let handle = Server::start_with(
        Arc::clone(&router),
        "127.0.0.1:0",
        ServerConfig {
            request_deadline: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Camp the only pid so every admission parks.
    let blocker = router.session(&0u64);
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(
        matches!(client.put(1, 10), Err(ClientError::Overloaded { .. })),
        "the reply arrived while the pid was still camped: deadline, not release"
    );
    assert!(
        matches!(client.get(1), Err(ClientError::Overloaded { .. })),
        "second request on the same conn also expires cleanly"
    );
    drop(blocker);

    // Pool free again: the same connection serves, and the expired put
    // left nothing behind.
    assert_eq!(client.get(1).unwrap(), None, "expired PUT applied nothing");
    client.put(1, 11).unwrap();
    assert_eq!(client.get(1).unwrap(), Some(11));

    drop(client);
    let stats = handle.server().stats();
    handle.shutdown().unwrap();
    assert!(stats.deadline_expired >= 2);
    assert_eq!(stats.fifo_violations, 0);
    assert_eq!(router.sessions_leased(), 0);
}

/// The unbounded baseline the deadline exists to fix: with the default
/// (fully permissive) config, a request against a camped pool is not
/// answered until the camper lets go — its wait is exactly as long as
/// the camp.
#[test]
fn without_shedding_a_request_waits_out_the_camped_pool() {
    const CAMP: Duration = Duration::from_millis(300);
    let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 1));
    let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let blocker = router.session(&0u64);
    let waiter = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.put(1, 10).unwrap();
        Instant::now()
    });
    std::thread::sleep(CAMP);
    let released = Instant::now();
    drop(blocker);
    let answered = waiter.join().unwrap();
    assert!(
        answered >= released,
        "the reply cannot precede the camper's release"
    );

    handle.shutdown().unwrap();
    assert_eq!(router.sessions_leased(), 0);
}

/// Idle connections are reaped by the tick once `idle_timeout` passes;
/// a connection mid-pipeline (request parked in the admission queue)
/// is *never* reaped no matter how long it waits.
#[test]
fn idle_conns_are_reaped_while_mid_pipeline_conns_survive() {
    let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 1));
    let handle = Server::start_with(
        Arc::clone(&router),
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // `idler` completes one request, then goes quiet.
    let mut idler = Client::connect(addr).unwrap();
    idler.put(1, 10).unwrap();

    // `worker` parks a request behind a camped pid: pending, not idle.
    let blocker = router.session(&0u64);
    let mut worker = Client::connect(addr).unwrap();
    worker.send(&Request::Put { key: 2, value: 20 }).unwrap();

    std::thread::sleep(Duration::from_millis(300));
    drop(blocker);

    assert_eq!(
        worker.recv().unwrap(),
        Response::Done,
        "a conn waiting on admission outlived six idle timeouts"
    );
    assert!(
        matches!(idler.get(1), Err(ClientError::Io(_))),
        "the idle conn was closed by the reaper"
    );

    drop(worker);
    let stats = handle.server().stats();
    handle.shutdown().unwrap();
    assert!(stats.reaped_idle >= 1, "the idler was reaped");
    assert_eq!(router.sessions_leased(), 0);
}

/// The adversarial open-loop storm: every pid camped for the whole run,
/// 12 pipelined connections firing 8 puts each. With shedding + a
/// request deadline the server answers *all 96* requests with typed
/// `Overloaded` while the pool stays camped — the storm joins in
/// bounded time where the permissive config would park it until the
/// campers exit (see `without_shedding_a_request_waits_out_the_camped_pool`).
/// Afterwards: zero side effects, zero leaks, FIFO intact.
#[test]
fn open_loop_storm_with_shedding_is_answered_while_the_pool_is_camped() {
    const CONNS: usize = 12;
    const REQS: usize = 8;
    let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 2));
    let handle = Server::start_with(
        Arc::clone(&router),
        "127.0.0.1:0",
        ServerConfig {
            shed_depth: Some(3),
            request_deadline: Some(Duration::from_millis(50)),
            retry_after_hint: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Camp both pids for the storm's entire lifetime.
    let campers = [router.session(&0u64), router.session(&0u64)];
    std::thread::scope(|s| {
        for c in 0..CONNS {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Pipeline the whole burst, then drain the replies.
                for i in 0..REQS {
                    let k = (c * REQS + i) as u64;
                    client.send(&Request::Put { key: k, value: k }).unwrap();
                }
                for i in 0..REQS {
                    match client.recv().unwrap() {
                        Response::Error {
                            code: ErrorCode::Overloaded,
                            ..
                        } => {}
                        other => panic!("conn {c} req {i}: expected Overloaded, got {other:?}"),
                    }
                }
            });
        }
    });
    // The scope joined: every request was answered while both pids were
    // still camped. That join *is* the boundedness assertion.
    drop(campers);

    let stats = handle.server().stats();
    assert!(stats.shed > 0, "the depth limit engaged during the storm");
    assert_eq!(
        stats.shed + stats.deadline_expired,
        (CONNS * REQS) as u64,
        "every storm request was either shed at the door or expired in queue"
    );
    assert!(
        stats.max_queue_depth <= 3 + 1,
        "the gauge shows the queue never grew past the shed depth (+1 for \
         the admission being classified), got {}",
        stats.max_queue_depth
    );

    // Side-effect-free at scale: not one storm key exists.
    let mut sweep = Client::connect(addr).unwrap();
    for k in 0..(CONNS * REQS) as u64 {
        assert_eq!(sweep.get(k).unwrap(), None, "shed PUT {k} left a residue");
    }
    sweep.put(9999, 1).unwrap();
    assert_eq!(sweep.get(9999).unwrap(), Some(1), "normal service resumed");

    drop(sweep);
    let stats = handle.server().stats();
    handle.shutdown().unwrap();
    assert_eq!(stats.fifo_violations, 0);
    assert_eq!(router.sessions_leased(), 0, "no pid leaked by the storm");
}

/// Disconnecting mid-wait (requests parked in the admission queue) must
/// not leak pids or wakes: the dropped connection's future surrenders
/// its ticket and the remaining clients finish.
#[test]
fn abrupt_disconnect_while_queued_leaks_nothing() {
    let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 1));
    let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Several clients fire a burst of writes and vanish without reading
    // replies; their parked admissions must cancel cleanly.
    for c in 0..8u64 {
        let mut client = Client::connect(addr).unwrap();
        for i in 0..16u64 {
            client.send(&Request::Put { key: i, value: c }).unwrap();
        }
        drop(client); // half-close with requests still in flight
    }

    // A patient client still gets served afterwards.
    let mut survivor = Client::connect(addr).unwrap();
    survivor.put(99, 1).unwrap();
    assert_eq!(survivor.get(99).unwrap(), Some(1));

    drop(survivor);
    let stats = handle.server().stats();
    handle.shutdown().unwrap();
    assert_eq!(stats.fifo_violations, 0);
    assert_eq!(router.sessions_leased(), 0, "no pid leaked by disconnects");
}

/// The server's ~1ms tick drives an installed durability-maintenance
/// hook: a supervised `DurableDatabase` riding in the server process
/// gets its checkpoints from the poll loop (no dedicated thread), the
/// reported health lands in `ServerStats`, and a degraded supervisor
/// never stops the server from answering requests.
#[test]
fn server_tick_drives_maintenance_hook_and_reports_health() {
    use multiversion::core::{DurableConfig, DurableDatabase, Health, MaintenancePolicy};
    use multiversion::wal::{FaultPlan, FaultStorage};

    let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 2));
    let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
    assert_eq!(handle.server().maintenance_health(), None, "no hook yet");

    // A healthy durable store embedded next to the server.
    let storage = FaultStorage::unfaulted();
    let db: Arc<DurableDatabase<U64Map>> = Arc::new(
        DurableDatabase::recover_storage(
            Arc::new(storage.clone()),
            2,
            DurableConfig {
                segment_bytes: 256,
                ..DurableConfig::default()
            },
        )
        .unwrap(),
    );
    handle.server().set_maintenance(
        db.maintenance_hook(MaintenancePolicy::default().with_wal_bytes_threshold(512)),
    );

    // Write load on the durable store; the server's tick must notice
    // the footprint and checkpoint it back under the threshold.
    let mut s = db.session().unwrap();
    for k in 0..200u64 {
        s.insert(k, k).unwrap();
    }
    drop(s);
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.maintenance_stats().checkpoints < 1 || db.wal_bytes() >= 512 + 256 {
        assert!(Instant::now() < deadline, "server tick never checkpointed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = handle.server().stats();
    assert!(stats.maintenance_ticks > 0, "tick count must be visible");
    assert!(!stats.maintenance_degraded);
    assert_eq!(handle.server().maintenance_health(), Some(Health::Ok));

    // Swap in a supervisor whose checkpoints always fail: the server
    // reports Degraded, and keeps serving clients regardless.
    let broken = FaultStorage::new(
        FaultPlan {
            fail_checkpoint_writes: true,
            ..FaultPlan::default()
        },
        7,
    );
    // One-byte segments: the commit below seals its segment, so the
    // 1-byte threshold makes a checkpoint due.
    let bad: Arc<DurableDatabase<U64Map>> = Arc::new(
        DurableDatabase::recover_storage(
            Arc::new(broken.clone()),
            2,
            DurableConfig {
                segment_bytes: 1,
                ..DurableConfig::default()
            },
        )
        .unwrap(),
    );
    bad.session().unwrap().insert(1, 1).unwrap();
    handle.server().set_maintenance(
        bad.maintenance_hook(
            MaintenancePolicy::default()
                .with_wal_bytes_threshold(1)
                .with_max_backoff(Duration::from_millis(2)),
        ),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.server().stats().maintenance_degraded {
        assert!(Instant::now() < deadline, "degradation never surfaced");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Commits keep flowing: on the wire...
    let mut client = Client::connect(handle.addr()).unwrap();
    client.put(5, 50).unwrap();
    assert_eq!(client.get(5).unwrap(), Some(50));
    // ...and on the degraded store itself.
    bad.session().unwrap().insert(2, 2).unwrap();

    drop(client);
    let stats = handle.server().stats();
    handle.shutdown().unwrap();
    assert_eq!(stats.fifo_violations, 0);
    assert!(stats.maintenance_degraded);
    assert_eq!(router.sessions_leased(), 0, "no pids leaked");
}

/// The readiness wait: where the loop blocks and what wakes it, read off
/// the poll-loop counters in `ServerStats` rather than off the clock.
mod readiness_wait {
    use super::*;

    /// Spin (1ms naps, 10s cap) until `cond` holds: waits for a *state* the
    /// server reaches on its own thread, never for a duration.
    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// An idle server with a connected, silent client blocks in its wait and
    /// sweeps once per tick: its CPU bill does not depend on how long
    /// nothing happens at a finer grain than that.
    #[test]
    fn an_idle_server_blocks_and_sweeps_once_per_tick() {
        let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 1));
        let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.put(1, 10).unwrap(); // accepted, served, and now silent

        let before = handle.server().stats();
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(200));
        let after = handle.server().stats();
        let ticks = t0.elapsed().as_millis() as u64 + 1;

        let sweeps = after.sweeps - before.sweeps;
        let blocked = after.blocked_waits - before.blocked_waits;
        assert!(
            sweeps <= ticks + 8,
            "{sweeps} sweeps in {ticks} ticks: the idle loop is not blocking"
        );
        assert!(sweeps >= 10, "the tick still runs ({sweeps} sweeps)");
        assert!(
            blocked + 8 >= sweeps,
            "every idle sweep blocks: {blocked} blocked waits, {sweeps} sweeps"
        );
        assert_eq!(after.requests, before.requests);

        drop(client);
        handle.shutdown().unwrap();
    }

    /// A session released on *another* thread must end the loop's blocking
    /// wait: the waker of the parked admission finds the loop parked and
    /// writes the wake pipe. Without that byte the reply would still come —
    /// at the next tick — so the evidence is `wake_fd_wakes`, not the clock.
    /// (A release that lands in the few µs of a tick's own sweep finds the
    /// loop awake and rightly writes nothing; hence several rounds.)
    #[test]
    fn a_release_on_another_thread_wakes_the_blocked_loop_through_the_pipe() {
        const PIDS: usize = 2;
        const ROUNDS: u64 = 10;
        let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, PIDS));
        router.session(&7u64).insert(7, 70);
        let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let pool = router.with_shard(0).pool();

        let before = handle.server().stats();
        for round in 0..ROUNDS {
            // Hold every pid of the shard in-process: the GET must park.
            let campers: Vec<_> = (0..PIDS).map(|_| router.session(&7u64)).collect();
            client.send(&Request::Get { key: 7 }).unwrap();
            wait_for("the GET to park", || pool.waiters() == 1);
            drop(campers); // this thread, not the loop's, releases the pids
            assert_eq!(
                client.recv().unwrap(),
                Response::Value { value: Some(70) },
                "round {round}"
            );
        }
        let after = handle.server().stats();
        assert!(
            after.wake_fd_wakes > before.wake_fd_wakes,
            "{ROUNDS} cross-thread releases and the wake pipe never ended a wait"
        );
        assert!(
            after.wake_fd_wakes - before.wake_fd_wakes <= ROUNDS,
            "one byte per wake at most"
        );

        drop(client);
        handle.shutdown().unwrap();
        assert_eq!(router.sessions_leased(), 0);
    }

    /// A back-pressured connection is not in the wait set: a client that
    /// pipelines far past the parsed-backlog budget while every pid is held
    /// leaves bytes in its socket, the socket stays readable, and the loop
    /// must *not* spin on it. Once the pid is released everything is
    /// answered, in order.
    #[test]
    fn a_back_pressured_connection_does_not_spin_the_loop() {
        const PAIRS: u64 = 1000; // 2000 requests against a budget of 64
        let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 1));
        let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let pool = router.with_shard(0).pool();

        let camper = router.session(&0u64);
        client.send(&Request::Put { key: 0, value: 1 }).unwrap();
        wait_for("the first PUT to park", || pool.waiters() == 1);
        // Two bursts with a pause between them: the loop reads the first,
        // which alone overruns the budget, so the second stays in the socket.
        for burst in [1..=PAIRS / 10, PAIRS / 10 + 1..=PAIRS] {
            for k in burst {
                client.send(&Request::Put { key: k, value: k }).unwrap();
                client.send(&Request::Get { key: k }).unwrap();
            }
            std::thread::sleep(Duration::from_millis(20));
        }

        let before = handle.server().stats();
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(100));
        let after = handle.server().stats();
        let ticks = t0.elapsed().as_millis() as u64 + 1;
        assert!(
            after.sweeps - before.sweeps <= ticks + 8,
            "{} sweeps in {ticks} ticks while nothing could move",
            after.sweeps - before.sweeps
        );
        assert_eq!(after.requests, before.requests, "the pid is still held");

        drop(camper);
        assert_eq!(client.recv().unwrap(), Response::Done);
        for k in 1..=PAIRS {
            assert_eq!(client.recv().unwrap(), Response::Done, "put {k}");
            assert_eq!(
                client.recv().unwrap(),
                Response::Value { value: Some(k) },
                "get {k} out of order"
            );
        }

        drop(client);
        let stats = handle.server().stats();
        handle.shutdown().unwrap();
        assert_eq!(stats.fifo_violations, 0);
        assert_eq!(router.sessions_leased(), 0);
    }

    /// Shutting down an idle (blocked) server does not wait for anything.
    #[test]
    fn shutdown_of_an_idle_server_is_prompt() {
        let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 1));
        let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
        let client = Client::connect(handle.addr()).unwrap();
        wait_for("the loop to block", || {
            let s = handle.server().stats();
            s.connections == 1 && s.blocked_waits >= 2
        });
        let t0 = Instant::now();
        handle.shutdown().unwrap();
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(20), "shutdown took {took:?}");
        drop(client);
    }

    /// A peer that pipelines a burst and then half-closes (FIN, read side
    /// still open) gets every reply before the server closes its side: the
    /// hang-up reaches `fill` as a readable socket, and requests already
    /// parsed — some still behind a held pid — are not dropped with it.
    #[test]
    fn a_half_closed_peer_is_served_to_the_end_of_its_pipeline() {
        use multiversion::net::proto;
        use std::io::{Read, Write};

        // Under the parsed-backlog budget: the connection is still being
        // read when the FIN arrives.
        const N: u64 = 40;
        let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 1));
        let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
        let pool = router.with_shard(0).pool();

        let camper = router.session(&0u64);
        let mut peer = std::net::TcpStream::connect(handle.addr()).unwrap();
        let mut burst = Vec::new();
        for k in 0..N {
            proto::encode_request(
                &Request::Put {
                    key: k,
                    value: k + 1,
                },
                &mut burst,
            );
        }
        peer.write_all(&burst).unwrap();
        wait_for("the burst to park", || pool.waiters() == 1);
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        // The EOF is read while the pipeline is still parked behind the pid.
        std::thread::sleep(Duration::from_millis(5));
        drop(camper);

        let mut replies = Vec::new();
        peer.read_to_end(&mut replies).unwrap(); // ends when the server closes
        let mut rest = &replies[..];
        for k in 0..N {
            let (payload, used) = proto::split_frame(rest).unwrap().expect("a whole frame");
            assert_eq!(
                proto::decode_response(payload).unwrap(),
                Response::Done,
                "put {k}"
            );
            rest = &rest[used..];
        }
        assert!(rest.is_empty(), "nothing after the last reply");

        let mut check = Client::connect(handle.addr()).unwrap();
        assert_eq!(check.get(N - 1).unwrap(), Some(N));
        drop(check);
        let stats = handle.server().stats();
        handle.shutdown().unwrap();
        assert_eq!(stats.proto_errors, 0);
        assert_eq!(router.sessions_leased(), 0);
    }
}
