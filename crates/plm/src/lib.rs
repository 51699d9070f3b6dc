//! # mvcc-plm — Pure-LISP-Machine tuple memory
//!
//! The paper ("Multiversion Concurrency with Bounded Delay and Precise
//! Garbage Collection", SPAA 2019) models shared state as a *pure LISP
//! machine* (PLM, §2): memory is a DAG of immutable fixed-arity tuples,
//! created by a `tuple(...)` instruction and read by `nth(t, i)`. Versions of
//! a functional data structure are pointers into this DAG, updates
//! path-copy, and garbage collection is reference counting (`collect`,
//! Algorithm 5): decrement a tuple's count, and when it reaches zero free it
//! and recursively collect its children, in time `O(S + 1)` for `S` freed
//! tuples (Theorem 4.2).
//!
//! This crate is that substrate:
//!
//! * [`Arena<T>`] — a lock-free slab holding tuples of type `T`. Slots
//!   are addressed by 4-byte [`NodeId`]s (so tree links cost 4 bytes)
//!   and live in one address-space reservation per arena, made when the
//!   arena is built: slot `i` is at `base + i`, and no slot ever moves,
//!   so reads are wait-free and never invalidated. Only a prefix of the
//!   reservation is accessible, grown as fresh ids are carved; its zero
//!   fill is the free state, so only slots handed out are ever faulted
//!   in, and everything past its first 2 MiB is advised for transparent
//!   huge pages. Allocation and collection route through a per-thread
//!   (or explicitly pinned, see [`AllocCtx`]) **shard**, so concurrent
//!   writers do not serialize on one freelist head. Each shard keeps a
//!   small LIFO cache of the slots it freed; past that, freed slots go
//!   back to their 256-slot **block**'s free bitmap, and a block a
//!   quarter free is handed to the next shard that needs one, which
//!   allocates from it in ascending id order. A bulk build takes all its
//!   slots at once as a [`Run`] ([`Arena::run`]): recycled slots first,
//!   the rest carved as one range, each filled with plain stores.
//! * Per-slot atomic reference counts with an *ownership* convention:
//!   `rc` equals the number of owners (parent tuples + external handles).
//!   [`Arena::alloc`] returns a node owned by the caller (`rc == 1`);
//!   linking it under a parent transfers that ownership; sharing a child
//!   between two parents requires [`Arena::inc`].
//! * [`Arena::collect`] — Algorithm 5, made iterative so deeply linear
//!   version graphs cannot overflow the call stack. It returns the number of
//!   tuples freed, which the benchmark harness uses to validate the
//!   `O(S + 1)` bound.
//! * Exact allocation statistics ([`Arena::live`], [`Arena::allocated_total`],
//!   [`Arena::freed_total`]) so the transaction layer and the tests can audit
//!   the paper's *precision* claim (Definition 2.1): in quiescence, the
//!   allocated space equals exactly the space reachable from live versions.
//!
//! ## Safety contract
//!
//! The arena is a low-level substrate. [`Arena::get`] checks (with an atomic
//! load) that the slot is currently occupied and panics otherwise, so a
//! dangling `NodeId` whose slot has been freed *and not yet reused* is caught
//! deterministically. A dangling `NodeId` whose slot has already been reused
//! is indistinguishable from a valid one — exactly the ABA inherent in any
//! recycling collector. The layers above (`mvcc-vm` + `mvcc-core`) guarantee
//! this never happens for correct clients: a version's tuples are only
//! collected after the *precise* version-maintenance object proves no
//! transaction still holds the version (Theorem 5.3). The concurrency stress
//! tests in this workspace run with `debug_assertions` generation checks to
//! empirically verify the claim.
//!
//! ## Address-space cost
//!
//! Each arena reserves [`Arena::capacity`] × slot bytes of address space
//! (a slot is the tuple and an 8-byte metadata word, padded to the
//! tuple's alignment), whether it holds one tuple or four billion. At
//! 48-byte slots that is 192 GiB, so a 47-bit (128 TiB) user address
//! space fits about 680 live arenas. Beside it each arena reserves a
//! side array of 64 bytes per 256-slot block, the blocks' free bitmaps:
//! 1 GiB of address space, exposed like the slots as blocks are carved,
//! so it costs a quarter of a byte per slot. The reservations need no
//! memory and no commit charge, but a process limited by a small
//! `ulimit -v` cannot build an arena at all: the reservation goes to
//! [`std::alloc::handle_alloc_error`].

//! ## Example
//!
//! ```
//! use mvcc_plm::{Arena, Leaf, OptNodeId};
//!
//! let arena: Arena<Leaf<&str>> = Arena::new();
//! let id = arena.alloc(Leaf("hello")); // caller owns one reference
//! assert_eq!(arena.get(id).0, "hello");
//! assert_eq!(arena.live(), 1);
//!
//! // Algorithm 5: dropping the last owner frees the tuple (and would
//! // recursively collect any children).
//! let freed = arena.collect(id);
//! assert_eq!(freed, 1);
//! assert_eq!(arena.live(), 0);
//! ```

mod arena;
mod id;
mod pages;

pub use arena::{AllocCtx, Arena, ArenaStats, PinGuard, Run};
pub use id::{NodeId, OptNodeId};

/// A tuple type storable in the [`Arena`].
///
/// `for_each_child` must report every `NodeId` reference the value owns —
/// this is how [`Arena::collect`] traverses the memory graph (the `nth`
/// instruction of the PLM). The reported ids must all live in the *same*
/// arena the value was allocated in.
pub trait Tuple: Send + Sync + 'static {
    /// Invoke `f` on each child reference held by this tuple.
    fn for_each_child(&self, f: &mut dyn FnMut(NodeId));
}

/// Blanket helper: leaf payloads with no children.
///
/// Wrap any `Send + Sync + 'static` value in [`Leaf`] to store it in an
/// arena without writing a `Tuple` impl.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leaf<T>(pub T);

impl<T: Send + Sync + 'static> Tuple for Leaf<T> {
    #[inline]
    fn for_each_child(&self, _f: &mut dyn FnMut(NodeId)) {}
}

/// Pads and aligns a value to 128 bytes so neighbouring values never
/// share a cache line (two lines, to defeat adjacent-line prefetch).
///
/// The arena's shards here, and `mvcc-vm`'s per-process announcement
/// slots above, each sit in one of these.
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

const _: () = {
    assert!(std::mem::align_of::<CachePadded<u8>>() == 128);
    assert!(std::mem::size_of::<CachePadded<std::sync::atomic::AtomicU64>>() == 128);
};
