//! # mvcc-ftree — functional augmented balanced trees over the PLM arena
//!
//! The paper's transactional system (§5) requires all shared state to be a
//! *purely functional* data structure: updates path-copy, old versions stay
//! intact, and a version is just a root pointer. This crate is the Rust
//! equivalent of the PAM library \[60\] the paper evaluates with: a
//! persistent, augmented, height-balanced ordered map with **join-based**
//! bulk algorithms ("Just Join for Parallel Ordered Sets" \[16\]) — `union`,
//! `intersection`, `difference`, `multi_insert`, `split`, `filter` — all of
//! which parallelize with fork-join (`rayon::join`) above a sequential
//! cutoff.
//!
//! ## Memory model
//!
//! Nodes are tuples in an [`mvcc_plm::Arena`]; every tree function follows
//! **move semantics on reference counts**: it *consumes* one owned
//! reference to each input root and returns one owned reference to the
//! output root. To keep using an input after an update (the snapshot
//! pattern), retain it first:
//!
//! ```
//! use mvcc_ftree::{Forest, U64Map};
//!
//! let f: Forest<U64Map> = Forest::new();
//! let v1 = f.insert(f.empty(), 1, 10);
//! f.retain(v1);                       // keep v1 alive across the update
//! let v2 = f.insert(v1, 2, 20);       // consumes one ref to v1
//! assert_eq!(f.get(v1, &2), None);    // old version unchanged
//! assert_eq!(f.get(v2, &2), Some(&20));
//! f.release(v1);
//! f.release(v2);
//! assert_eq!(f.arena().live(), 0);    // precise: nothing leaks
//! ```
//!
//! That convention holds at every public entry point. Inside one, the
//! point updates ([`Forest::insert_with`], [`Forest::remove`]) read a
//! node that has other owners *by borrow* through the caller's root
//! reference — held until the new tree is complete, then given up with
//! one decrement — so a path copy costs one allocation and one count
//! (the off-path sibling's) per level; a node only this caller owns
//! (count 1: created earlier in the same transaction) is updated in
//! place.
//!
//! Read operations ([`Forest::get`], [`Forest::aug_range`], iteration)
//! never touch reference counts — this is what makes the paper's read
//! transactions *delay-free*: a query is exactly the sequential tree
//! search, with no instrumentation on the hot path.
//!
//! ## Balance
//!
//! Height-balanced (AVL-style) trees with O(|h1 − h2|) `join`, following
//! the Just Join paper. Every bulk operation is built from `join`/`split`
//! and is therefore work-efficient and (with rayon) has polylog span.
//!
//! ## Parallel bulk operations
//!
//! The divide-and-conquer operations (`union`, `intersection`,
//! `difference`, `multi_insert`, `multi_remove`, `filter`,
//! `build_sorted`, `map_reduce`, `map_values`) fork both halves onto a
//! **work-stealing pool** (`rayon::join`, the in-tree shim's real
//! fork-join runtime) whenever a subtree exceeds the sequential cutoff,
//! so their polylog span is realized as multicore speedup:
//!
//! * `MVCC_POOL_THREADS` sets the worker count (default: one worker per
//!   core). `MVCC_POOL_THREADS=1` is the supported escape hatch that
//!   forces the old fully-sequential execution — deterministic schedules
//!   for debugging, zero extra threads.
//! * `MVCC_PAR_CUTOFF` overrides the sequential cutoff (default 2048
//!   entries), mostly for benchmarking the fork overhead.
//!
//! Allocation stays sharded under parallelism: each stolen subtask
//! allocates and collects through its *executing* thread's arena shard
//! ([`Arena::task_ctx`]), while an explicit [`AllocCtx`] pin (e.g. a
//! session's, or [`Forest::with_ctx`]) keeps governing the
//! sequential regime on the calling thread. Results are identical to
//! sequential execution — the recursion tree and reassembly order do not
//! depend on the schedule; only the placement of freed/allocated slots
//! across shards does.

mod bulk;
mod forest;
mod iter;
mod node;
mod params;
mod query;
mod range;
mod reduce;

pub use forest::Forest;
pub use iter::{Iter, RangeIter};
pub use node::{Node, Root};
pub use params::{CountAug, MaxU64Map, SumU64Map, TreeParams, U64Map};

pub use mvcc_plm::{AllocCtx, Arena, NodeId, OptNodeId};
