//! `mvcc-net` — a wire-protocol front end over the MVCC router, built
//! on **async session admission**.
//!
//! The crate answers one question: how do thousands of client
//! connections share a [`Router`]'s `N×P` session pids without a
//! thread per connection? The answer is the admission layer added to
//! `mvcc-core::pool` — [`SessionPool::poll_acquire`] parks a waiter in
//! the same FIFO ticket queue the blocking `acquire` path uses, at the
//! cost of a queue entry instead of a parked thread. This crate
//! supplies everything around that future:
//!
//! - [`proto`] — the length-prefixed binary protocol (GET/PUT/DEL and
//!   atomic TXN batches, versioned payloads, typed error replies);
//! - [`conn`] — per-connection nonblocking buffer management with
//!   structural backpressure;
//! - [`executor`] — the ready-set mini executor the server loop is
//!   built on (one session release → one future re-poll), and the
//!   wake-pipe protocol that lets a release on another thread end the
//!   loop's wait;
//! - [`readiness`] — the blocking readiness wait, one `ppoll(2)` over
//!   the listener, the connections and the wake pipe;
//! - [`server`] — the single-threaded poll loop multiplexing every
//!   connection onto the router, with FIFO admission auditing;
//! - [`client`] — a small blocking client for tests, benches and
//!   examples.
//!
//! Everything is `std`-only: nonblocking `std::net` sockets, hand-rolled
//! wakers, and a single `extern "C"` declaration of `ppoll` against the
//! libc `std` already links — no tokio, no `libc` crate, in keeping with
//! the repo's no-external-dependencies rule. [`readiness`] holds the
//! crate's only `unsafe`; everywhere else it is denied.
//!
//! # A round trip
//!
//! ```
//! use std::sync::Arc;
//! use mvcc_net::{Client, Server, TxnOp};
//! use mvcc_core::Router;
//! use mvcc_ftree::U64Map;
//!
//! // Two shards, two pids each, fronted by a server on an ephemeral
//! // loopback port.
//! let router: Arc<Router<U64Map>> = Arc::new(Router::new(2, 2));
//! let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.put(7, 700).unwrap();
//! assert_eq!(client.get(7).unwrap(), Some(700));
//! client.txn(vec![TxnOp::Put { key: 7, value: 701 }]).unwrap();
//! assert_eq!(client.del(7).unwrap(), Some(701));
//! assert_eq!(client.get(7).unwrap(), None);
//!
//! drop(client);
//! handle.shutdown().unwrap();
//! assert_eq!(router.sessions_leased(), 0); // nothing leaked
//! ```
//!
//! # Overload behavior
//!
//! Every queue the server feeds is **bounded**, and overload degrades
//! to typed errors — never dropped connections, never unbounded
//! memory. Configure it with [`ServerConfig`] and
//! [`Server::start_with`]:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use mvcc_net::{Client, ClientError, Server, ServerConfig};
//! use mvcc_core::Router;
//! use mvcc_ftree::U64Map;
//!
//! let router: Arc<Router<U64Map>> = Arc::new(Router::new(1, 1));
//! let handle = Server::start_with(
//!     Arc::clone(&router),
//!     "127.0.0.1:0",
//!     ServerConfig {
//!         // Shed once a shard's admission queue is 64 deep…
//!         shed_depth: Some(64),
//!         // …cancel admissions still queued after 20ms…
//!         request_deadline: Some(Duration::from_millis(20)),
//!         // …and close connections idle for a minute.
//!         idle_timeout: Some(Duration::from_secs(60)),
//!         retry_after_hint: Duration::from_millis(5),
//!     },
//! )
//! .unwrap();
//!
//! // A shed or expired request surfaces as a typed, retryable error —
//! // the connection is still good, and nothing was applied.
//! let mut client = Client::connect(handle.addr()).unwrap();
//! match client.put(1, 10) {
//!     Ok(()) => {}
//!     Err(ClientError::Overloaded { retry_after_ms, .. }) => {
//!         std::thread::sleep(Duration::from_millis(retry_after_ms as u64));
//!         // …retry here…
//!     }
//!     Err(other) => panic!("{other}"),
//! }
//! # drop(client);
//! # handle.shutdown().unwrap();
//! ```
//!
//! The server's loop runs a coarse maintenance tick (~1ms): it
//! re-polls deadline-expired admissions, reaps idle connections
//! (mid-pipeline connections are never reaped), samples the
//! queue-depth high-water gauge into [`ServerStats`], and drives the
//! installed durability-maintenance hook. See `server` module docs for
//! the exact degradation contract.
//!
//! [`Router`]: mvcc_core::Router
//! [`SessionPool::poll_acquire`]: mvcc_core::SessionPool::poll_acquire

#![deny(unsafe_code)]

pub mod client;
pub mod conn;
pub mod executor;
pub mod proto;
#[allow(unsafe_code)]
pub mod readiness;
pub mod server;

pub use client::{Client, ClientError};
pub use executor::block_on;
pub use proto::{ErrorCode, ProtoError, Request, Response, TxnOp};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
