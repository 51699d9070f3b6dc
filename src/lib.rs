//! # multiversion — Multiversion Concurrency with Bounded Delay and
//! Precise Garbage Collection
//!
//! A complete Rust implementation of Ben-David, Blelloch, Sun & Wei's
//! SPAA 2019 system: delay-free snapshot readers, an O(P)-delay single
//! writer (lock-free multi-writer), and garbage collection that reclaims
//! every version the instant its last transaction completes.
//!
//! This crate is an umbrella re-exporting the workspace's public API:
//!
//! * [`plm`] — the reference-counted tuple arena (PLM memory model);
//! * [`vm`] — the Version Maintenance problem: PSWF (Algorithm 4), PSLF,
//!   hazard-pointer, epoch and RCU solutions;
//! * [`ftree`] — persistent augmented balanced trees with join-based
//!   parallel bulk operations (the PAM equivalent);
//! * [`core`] — the transactional framework of Figure 1 plus the
//!   Appendix F batching writer, and the durable layer (WAL-backed
//!   crash recovery, see [`core::DurableDatabase`]);
//! * [`wal`] — the write-ahead log itself: CRC-framed segment files,
//!   atomic checkpoints, and a fault-injection storage for crash tests;
//! * [`fds`] — more functional structures (stack, queue, leftist heap)
//!   and a structure-agnostic transaction wrapper;
//! * [`index`] — the §7.2 weighted inverted-index application;
//! * [`vlist`] — the version-list MVCC baseline the paper argues
//!   against (per-key chains, scan-based vacuum), for measured contrast;
//! * [`baselines`] — concurrent comparator structures (Figure 7);
//! * [`workloads`] — YCSB/Zipfian/corpus generators and the throughput
//!   harness;
//! * [`net`] — a wire-protocol TCP front end whose connections share
//!   the session pids through async admission (futures parked in the
//!   pool's FIFO queue instead of blocked threads).
//!
//! `ARCHITECTURE.md` at the repository root draws the full layer map
//! (arena → version maintenance → trees → transactions → WAL/network),
//! crosswalks every module to the paper's algorithms and sections, and
//! names the invariant each boundary keeps; `benchmark/README.md`
//! documents the system benchmark that `BENCHMARK.json` declares. Start
//! there when you need the system-wide picture rather than one crate's
//! contract.
//!
//! ## Quickstart
//!
//! Transactions run through [`core::Session`] handles: each session
//! leases one of the database's process ids (the VM problem's "at most
//! one thread per process id" contract, enforced instead of documented),
//! pins one allocator shard, and reuses its release buffer across
//! transactions.
//!
//! ```
//! use multiversion::core::Database;
//! use multiversion::ftree::SumU64Map;
//!
//! // A map with a range-sum augmentation, for up to 4 processes.
//! let db: Database<SumU64Map> = Database::new(4);
//!
//! // Write transactions commit new immutable versions.
//! let mut writer = db.session().unwrap();
//! writer.write(|txn| {
//!     txn.insert(10, 100);
//!     txn.insert(20, 200);
//! });
//!
//! // Read transactions are delay-free snapshot queries.
//! let mut reader = db.session().unwrap();
//! let sum = reader.read(|snap| snap.aug_range(&0, &50));
//! assert_eq!(sum, 300);
//!
//! // Precision: in quiescence exactly one version is live.
//! assert_eq!(db.live_versions(), 1);
//! ```
//!
//! ## Durability
//!
//! [`core::DurableDatabase`] wraps the same machinery in a write-ahead
//! log: commits publish to the WAL *before* the version becomes
//! visible, checkpoints walk a pinned snapshot while writers proceed,
//! and `recover` replays the newest checkpoint plus the WAL tail —
//! degrading gracefully on a torn tail. [`core::Durability`] picks the
//! fsync trade-off (`Always` per commit, `EveryN` amortized, `Off` for
//! today's pure in-memory behavior), and [`core::GroupCommit`] decides
//! how concurrent `Always` committers share those fsyncs: under
//! `Leader` overlapping commits coalesce into one multi-record WAL
//! frame and a single fsync, each committer holding an awaitable
//! [`core::CommitAck`] that resolves when its group's flush lands:
//!
//! ```
//! use multiversion::core::{DurableConfig, DurableDatabase, GroupCommit};
//! use multiversion::ftree::U64Map;
//! use multiversion::wal::FaultStorage;
//! use std::sync::Arc;
//!
//! let disk = Arc::new(FaultStorage::unfaulted());
//! let cfg = DurableConfig::default().with_group_commit(GroupCommit::Leader);
//! let db: DurableDatabase<U64Map> =
//!     DurableDatabase::recover_storage(disk, 2, cfg).unwrap();
//! let mut s = db.session().unwrap();
//! // Visible and logged immediately; durable once the ack resolves.
//! let (_, ack) = s.write_acked(|txn| { txn.insert(1, 10); }).unwrap();
//! ack.wait().unwrap();
//! assert!(db.durable_stats().pending_batches == 0);
//! ```
//!
//! See the `mvcc-core` crate docs for the full contract and
//! `examples/durable.rs` for a crash/recover/group-commit walkthrough.
//!
//! ## Serving over the network
//!
//! [`net::Server`] fronts a [`core::Router`] with a length-prefixed
//! binary protocol over plain TCP — no async runtime, one poll-loop
//! thread, every parked request a queue entry rather than a blocked
//! thread (see the `mvcc-net` crate docs and `examples/server.rs` /
//! `examples/client.rs` for the two halves run as real processes):
//!
//! ```
//! use multiversion::core::Router;
//! use multiversion::ftree::U64Map;
//! use multiversion::net::{Client, Server};
//! use std::sync::Arc;
//!
//! // 2 shards x 2 pids behind an ephemeral loopback port.
//! let router: Arc<Router<U64Map>> = Arc::new(Router::new(2, 2));
//! let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.put(1, 10).unwrap();
//! assert_eq!(client.get(1).unwrap(), Some(10));
//! assert_eq!(client.del(1).unwrap(), Some(10));
//!
//! drop(client);
//! handle.shutdown().unwrap();
//! assert_eq!(router.sessions_leased(), 0);
//! ```
//!
//! ```
//! use multiversion::core::{Durability, DurableConfig, DurableDatabase};
//! use multiversion::ftree::U64Map;
//! use multiversion::wal::FaultStorage;
//! use std::sync::Arc;
//!
//! let disk = FaultStorage::unfaulted(); // in-memory Storage for the doctest
//! let cfg = DurableConfig::default().with_durability(Durability::Always);
//! {
//!     let db: DurableDatabase<U64Map> =
//!         DurableDatabase::recover_storage(Arc::new(disk.clone()), 2, cfg.clone()).unwrap();
//!     db.session().unwrap().insert(1, 10).unwrap();
//!     // Dropped without a checkpoint: a simulated crash.
//! }
//! let db: DurableDatabase<U64Map> =
//!     DurableDatabase::recover_storage(Arc::new(disk), 2, cfg).unwrap();
//! assert_eq!(db.session().unwrap().get(&1), Some(10));
//! ```

pub use mvcc_baselines as baselines;
pub use mvcc_core as core;
pub use mvcc_fds as fds;
pub use mvcc_ftree as ftree;
pub use mvcc_index as index;
pub use mvcc_net as net;
pub use mvcc_plm as plm;
pub use mvcc_vlist as vlist;
pub use mvcc_vm as vm;
pub use mvcc_wal as wal;
pub use mvcc_workloads as workloads;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use mvcc_core::{
        AcquireTimeout, BatchWriter, CommitAck, Database, Durability, DurableConfig,
        DurableDatabase, DurableError, DurableSession, DurableStats, GroupCommit, Health,
        MaintenanceHandle, MaintenanceHook, MaintenancePolicy, MaintenanceStats, MaintenanceTick,
        MapOp, PoolStats, RecoveryReport, Router, Session, SessionError, SessionPool,
        SessionReadGuard, Snapshot, WriteTxn,
    };
    pub use mvcc_fds::{CellSession, VersionedCell};
    pub use mvcc_ftree::{Forest, MaxU64Map, SumU64Map, TreeParams, U64Map};
    pub use mvcc_index::{IndexSession, InvertedIndex};
    pub use mvcc_net::{Client, Server, ServerConfig, ServerHandle, TxnOp};
    pub use mvcc_vm::{VersionMaintenance, VmKind};
}
