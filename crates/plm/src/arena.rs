//! Sharded lock-free chunked slab with atomic reference counts.
//!
//! ## Slot storage
//!
//! Slots live in up to [`NUM_CHUNKS`] chunks whose sizes double (`BASE`,
//! `2*BASE`, `4*BASE`, …). Chunks are installed lazily with a single CAS
//! and are never moved or freed until the arena drops, so a `&T` handed
//! out by [`Arena::get`] stays valid storage for the arena's lifetime
//! regardless of concurrent allocation. A [`NodeId`] is a stable 4-byte
//! index into this (global, shard-agnostic) id space.
//!
//! ## Sharded allocation
//!
//! Every transactional write path-copies O(log n) tree nodes and precise
//! GC frees them one by one, so allocator throughput bounds system
//! throughput. A single freelist head serializes every thread in the
//! process on one cache line; this arena therefore splits the allocator
//! into `S` independent **shards** (a power of two, default ≈ 2× the
//! core count), each with
//!
//! * its own tagged Treiber freelist head (the tag defeats ABA), and
//! * its own **fresh window** — a block of never-used ids carved from
//!   the global bump cursor [`FRESH_BLOCK`] ids at a time, so the global
//!   cursor is touched once per block instead of once per allocation.
//!
//! An allocation site picks a shard through an [`AllocCtx`]:
//! thread-affine by default (each thread is assigned a shard round-robin
//! on first use), or pinned explicitly — [`Arena::pin`] installs a
//! thread-local override so a whole batch (e.g. the flat-combining
//! writer, or a bulk tree operation) allocates and frees through one
//! shard without threading a parameter through every recursive call.
//! Allocation order per shard: own freelist → own fresh window → steal
//! a recycled slot from a sibling shard → carve a new fresh block. Slots
//! may migrate between shards over their lifetime (freed into whichever
//! shard collected them); ids, generations and metadata are global so
//! this is invisible to readers.
//!
//! [`Arena::collect`] additionally *buffers* frees: freed slots are
//! linked into a private chain (through their own metadata words — no
//! side buffer) and spliced onto the shard freelist with one CAS per
//! [`FREE_BUF`] tuples, so collecting a large version does not CAS a
//! shared head once per tuple. A `collect` that only drops a count —
//! the root still has other owners — is a single `fetch_sub`: no heap,
//! no thread-local, no shard lookup.
//!
//! ## Per-slot metadata
//!
//! Packs into one `AtomicU64` (unchanged by sharding — `NodeId`
//! stability and the precise-GC accounting hold exactly as before):
//!
//! ```text
//! bit 63      : OCCUPIED
//! bits 32..63 : generation (bumped on every free; detects stale ids)
//! bits  0..32 : reference count (occupied) | next free index (free)
//! ```
//!
//! Reference-count updates are single `fetch_add`/`fetch_sub`
//! instructions on the metadata word — they can never carry into the
//! generation field because the owner invariant guarantees
//! `1 <= rc < 2^32` whenever an increment or decrement happens.

use core::sync::atomic::{fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;

use crate::{CachePadded, NodeId, OptNodeId, Tuple};

/// log2 of the first chunk's slot count.
const BASE_BITS: u32 = 10;
/// Slot count of chunk 0.
const BASE: u32 = 1 << BASE_BITS;
/// Maximum number of chunks; capacity is `BASE * (2^NUM_CHUNKS - 1)` slots,
/// which exhausts the 32-bit id space.
const NUM_CHUNKS: usize = 22;

const OCCUPIED: u64 = 1 << 63;
const GEN_SHIFT: u32 = 32;
const GEN_MASK: u64 = ((1u64 << 31) - 1) << GEN_SHIFT;
const LOW_MASK: u64 = (1u64 << 32) - 1;

/// Freelist "empty" marker (also used as a slot's "no next" link).
const NIL: u32 = u32::MAX;

/// Ids carved from the global fresh cursor per shard refill. Must divide
/// `BASE` so a block never straddles a chunk boundary (chunk starts are
/// multiples of `BASE`), letting the refill install the chunk once.
const FRESH_BLOCK: u64 = 256;
const _: () = assert!((BASE as u64).is_multiple_of(FRESH_BLOCK));

/// Upper bound on the shard count (id space and stats stay tiny).
const MAX_SHARDS: usize = 64;

/// Buffered frees per freelist splice in [`Arena::collect`].
const FREE_BUF: usize = 64;

#[inline]
fn locate(index: u32) -> (usize, usize) {
    // Chunk c covers indices [BASE*(2^c - 1), BASE*(2^(c+1) - 1)).
    let adjusted = (index as u64 + BASE as u64) >> BASE_BITS; // >= 1
    let chunk = 63 - adjusted.leading_zeros() as u64;
    let chunk_start = ((1u64 << chunk) - 1) << BASE_BITS;
    (chunk as usize, (index as u64 - chunk_start) as usize)
}

#[inline]
fn chunk_len(chunk: usize) -> usize {
    (BASE as usize) << chunk
}

struct Slot<T> {
    meta: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            meta: AtomicU64::new(0),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

/// One allocator shard. The whole struct is cache-padded where it is
/// stored so shards never false-share.
struct Shard {
    /// Tagged Treiber head: `(tag << 32) | index`.
    free_head: AtomicU64,
    /// Fresh window `(end << 32) | cursor`: ids `[cursor, end)` are
    /// reserved for this shard and have never been used.
    fresh: AtomicU64,
    /// Serializes window refills (rare: once per [`FRESH_BLOCK`] fresh
    /// allocations) so a lost install race cannot leak a carved block.
    refill_lock: AtomicBool,
    /// The only two per-call counters; `live` is always derived as
    /// their difference (see [`ArenaStats`]).
    allocated: AtomicU64,
    freed: AtomicU64,
    /// High-water mark of `allocated - freed`, sampled only when an
    /// allocation finds this shard's freelist empty — the one place a
    /// new high can occur (see [`ArenaStats::peak_live`]).
    peak_live: AtomicI64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            free_head: AtomicU64::new(NIL as u64),
            fresh: AtomicU64::new(0), // cursor == end == 0: empty
            refill_lock: AtomicBool::new(false),
            allocated: AtomicU64::new(0),
            freed: AtomicU64::new(0),
            peak_live: AtomicI64::new(0),
        }
    }
}

/// A shard selection for allocation and collection — cheap to copy,
/// valid for any arena (the index is taken modulo the shard count).
///
/// Obtain one with [`Arena::ctx`] (thread-affine), [`Arena::ctx_for`]
/// (deterministic, e.g. per producer id), and apply it either per call
/// ([`Arena::alloc_in`], [`Arena::collect_in`]) or scoped over a whole
/// batch with [`Arena::pin`] / [`Arena::with_ctx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCtx {
    shard: u32,
}

impl AllocCtx {
    /// The raw shard index this context routes to (diagnostics).
    pub fn shard_index(self) -> usize {
        self.shard as usize
    }
}

/// Round-robin source for thread-affine shard assignment.
static NEXT_THREAD_SEED: AtomicU32 = AtomicU32::new(0);

const NO_PIN: u32 = u32::MAX;

/// Keep a raw round-robin counter value out of the `NO_PIN` sentinel
/// while preserving consecutiveness (so consecutive threads land on
/// consecutive shards under any power-of-two mask).
#[inline]
fn sanitize_seed(raw: u32) -> u32 {
    raw % NO_PIN
}

/// This thread's affine shard seed, assigned round-robin on first use.
#[inline]
fn affine_seed() -> u32 {
    THREAD_SEED.with(|s| {
        let mut v = s.get();
        if v == NO_PIN {
            v = sanitize_seed(NEXT_THREAD_SEED.fetch_add(1, Ordering::Relaxed));
            s.set(v);
        }
        v
    })
}

thread_local! {
    /// This thread's affine shard seed (assigned on first allocation).
    static THREAD_SEED: Cell<u32> = const { Cell::new(NO_PIN) };
    /// Explicit override installed by [`Arena::pin`]: `(arena key,
    /// seed)`. Keyed per arena so pinning one arena never reroutes a
    /// different arena the same thread touches inside the scope.
    static PINNED_SEED: Cell<(usize, u32)> = const { Cell::new((0, NO_PIN)) };
    /// Scratch for the freeing path of [`Arena::collect`]: tuples whose
    /// count reached zero and whose slots are still to be freed. Taken
    /// for the duration of a collection and handed back with its
    /// capacity, so steady-state collection performs no heap allocation
    /// (a destructor that re-enters `collect` on this thread simply
    /// finds an empty `Vec` and grows its own).
    static DEAD_STACK: Cell<Vec<NodeId>> = const { Cell::new(Vec::new()) };
}

/// RAII guard for [`Arena::pin`]: restores the previous pin (if any) on
/// drop. Not `Send` — the pin is a property of the current thread. The
/// borrow keeps the pinned arena alive (its identity keys the pin).
pub struct PinGuard<'a> {
    prev: (usize, u32),
    _arena: std::marker::PhantomData<&'a ()>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        PINNED_SEED.with(|p| p.set(self.prev));
    }
}

/// Point-in-time allocation statistics (see [`Arena::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total number of `alloc` calls ever performed.
    pub allocated_total: u64,
    /// Total number of slots freed by `collect`.
    pub freed_total: u64,
    /// Currently allocated (not yet freed) slots. Always *derived*:
    /// `allocated_total − freed_total` of this same snapshot (the arena
    /// keeps no separate live counter), so it is exact in quiescence and
    /// within the in-flight calls of either total otherwise.
    pub live: u64,
    /// Sum of the per-shard high-water marks of `allocs − frees`. A
    /// shard samples its mark only when an allocation finds its own
    /// freelist empty (fresh window, steal or refill): while recycled
    /// slots are available the shard's balance is below what it was when
    /// the last of them was first handed out, so no new high can occur
    /// on the recycling path and it pays nothing for this statistic.
    /// Exact when each shard's frees balance its allocs (the
    /// affine/pinned pattern, and any single-threaded use); when frees
    /// deliberately migrate to other shards the alloc-side shards' marks
    /// never come down, so this inflates toward `allocated_total` and is
    /// only a (possibly vacuous) upper bound.
    pub peak_live: u64,
    /// Number of allocator shards.
    pub shards: u64,
}

/// A concurrent slab of reference-counted tuples — the PLM memory of the
/// paper. See the crate docs for the ownership convention and the module
/// docs for the sharded allocator layout.
pub struct Arena<T: Tuple> {
    chunks: [AtomicU64; NUM_CHUNKS], // raw `*mut Slot<T>` stored as u64
    shards: Box<[CachePadded<Shard>]>,
    shard_mask: u32,
    /// Global bump cursor; carved [`FRESH_BLOCK`] ids at a time.
    next_fresh: CachePadded<AtomicU64>,
    _marker: std::marker::PhantomData<T>,
}

unsafe impl<T: Tuple> Send for Arena<T> {}
unsafe impl<T: Tuple> Sync for Arena<T> {}

impl<T: Tuple> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

fn default_shard_count() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (2 * cores).next_power_of_two().clamp(1, MAX_SHARDS)
}

impl<T: Tuple> Arena<T> {
    /// Create an empty arena with the default shard count (≈ 2× cores,
    /// rounded to a power of two). No chunks are allocated until first
    /// use.
    pub fn new() -> Self {
        Self::with_shards(default_shard_count())
    }

    /// Create an empty arena with an explicit shard count (rounded up to
    /// a power of two, clamped to `1..=64`). `with_shards(1)` reproduces
    /// the classic single-freelist allocator, which benchmarks use as
    /// their contention baseline.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.next_power_of_two().clamp(1, MAX_SHARDS);
        Arena {
            chunks: std::array::from_fn(|_| AtomicU64::new(0)),
            shards: (0..shards)
                .map(|_| CachePadded::new(Shard::new()))
                .collect(),
            shard_mask: shards as u32 - 1,
            next_fresh: CachePadded::new(AtomicU64::new(0)),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of allocator shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Maximum number of slots this arena can ever hold.
    pub const fn capacity() -> u64 {
        (BASE as u64) * ((1u64 << NUM_CHUNKS) - 1)
    }

    // ------------------------------------------------------------------
    // Allocation contexts
    // ------------------------------------------------------------------

    /// The calling thread's allocation context: the pinned shard if a
    /// [`Arena::pin`] guard is live, otherwise the thread's affine shard
    /// (assigned round-robin on first use).
    pub fn ctx(&self) -> AllocCtx {
        let (pin_key, pinned) = PINNED_SEED.with(|p| p.get());
        let seed = if pinned != NO_PIN && pin_key == self.pin_key() {
            pinned
        } else {
            affine_seed()
        };
        AllocCtx {
            shard: seed & self.shard_mask,
        }
    }

    /// The calling thread's **affine** context, deliberately bypassing
    /// any live [`Arena::pin`] — the cheap per-*task* shard acquisition
    /// for fork-join code (one thread-local read after first use).
    ///
    /// A work-stealing runtime (`rayon::join`) may run a forked closure
    /// on any pool thread, or inline on a thread that is *helping* while
    /// it waits and still has an unrelated batch pin installed. Either
    /// way the right shard for the subtask is the executing thread's own
    /// one — inheriting the forker's pin would funnel every parallel
    /// subtask onto a single freelist (re-serializing the allocator), and
    /// inheriting a helper's pin would route an unrelated computation
    /// through a batch's shard. Parallel subtasks therefore re-pin with
    /// `with_ctx(task_ctx(), ...)` at each fork; pins keep their batching
    /// role for the sequential regime below the fork cutoff.
    pub fn task_ctx(&self) -> AllocCtx {
        AllocCtx {
            shard: affine_seed() & self.shard_mask,
        }
    }

    /// A deterministic context: `seed` is mapped onto a shard. Useful to
    /// give each producer/process id its own shard regardless of which
    /// thread runs it.
    pub fn ctx_for(&self, seed: usize) -> AllocCtx {
        AllocCtx {
            shard: (seed as u32) & self.shard_mask,
        }
    }

    /// The thread-local pin key identifying *this* arena: pins are
    /// per-arena, so a pinned batch on one arena leaves every other
    /// arena's shard routing untouched.
    #[inline]
    fn pin_key(&self) -> usize {
        self as *const Self as usize
    }

    /// Pin the calling thread to `ctx`'s shard **for this arena** until
    /// the returned guard drops. Every `alloc`/`collect` on this thread
    /// (from any call depth — no parameter threading) routes through
    /// that shard, which is how a batch writer keeps a whole batch on
    /// one freelist. Other arenas touched inside the scope keep their
    /// own affinity. Only the innermost live pin is honoured (they
    /// restore stack-wise), so nest pins for different arenas rather
    /// than interleaving them.
    pub fn pin(&self, ctx: AllocCtx) -> PinGuard<'_> {
        let prev = PINNED_SEED.with(|p| p.replace((self.pin_key(), ctx.shard)));
        PinGuard {
            prev,
            _arena: std::marker::PhantomData,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Run `f` with the thread pinned to `ctx`'s shard.
    pub fn with_ctx<R>(&self, ctx: AllocCtx, f: impl FnOnce() -> R) -> R {
        let _guard = self.pin(ctx);
        f()
    }

    #[inline]
    fn shard(&self, ctx: AllocCtx) -> &Shard {
        &self.shards[(ctx.shard & self.shard_mask) as usize]
    }

    // ------------------------------------------------------------------
    // Chunk management
    // ------------------------------------------------------------------

    #[inline]
    fn chunk_ptr(&self, chunk: usize) -> *mut Slot<T> {
        self.chunks[chunk].load(Ordering::Acquire) as *mut Slot<T>
    }

    /// Get (or lazily install) chunk `chunk`.
    fn ensure_chunk(&self, chunk: usize) -> *mut Slot<T> {
        let existing = self.chunk_ptr(chunk);
        if !existing.is_null() {
            return existing;
        }
        // Build a fresh chunk. Slots are zeroed metadata + uninit values.
        let len = chunk_len(chunk);
        let mut v: Vec<Slot<T>> = Vec::with_capacity(len);
        v.resize_with(len, Slot::new);
        let boxed: Box<[Slot<T>]> = v.into_boxed_slice();
        let ptr = Box::into_raw(boxed) as *mut Slot<T>;
        match self.chunks[chunk].compare_exchange(
            0,
            ptr as u64,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => ptr,
            Err(winner) => {
                // Lost the install race; drop ours (values are uninit, so
                // rebuilding the box only frees the raw slot storage).
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len)));
                }
                winner as *mut Slot<T>
            }
        }
    }

    #[inline]
    fn slot(&self, id: NodeId) -> &Slot<T> {
        let (chunk, offset) = locate(id.0);
        let ptr = self.chunk_ptr(chunk);
        debug_assert!(!ptr.is_null(), "slot in uninstalled chunk: {id:?}");
        unsafe { &*ptr.add(offset) }
    }

    // ------------------------------------------------------------------
    // Per-shard freelist + fresh window
    // ------------------------------------------------------------------

    fn pop_free(&self, shard: &Shard) -> Option<NodeId> {
        loop {
            let head = shard.free_head.load(Ordering::Acquire);
            let idx = (head & LOW_MASK) as u32;
            if idx == NIL {
                return None;
            }
            let tag = head >> 32;
            let next = self.slot(NodeId(idx)).meta.load(Ordering::Acquire) & LOW_MASK;
            let new_head = ((tag + 1) << 32) | next;
            if shard
                .free_head
                .compare_exchange_weak(head, new_head, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(NodeId(idx));
            }
        }
    }

    /// Splice a privately linked chain of freed slots onto the shard
    /// freelist with a single CAS. The chain runs `head → … → tail`
    /// through the slots' own metadata words (each already holds its
    /// bumped generation and its successor); only the tail's link is
    /// written here. None of the slots is reachable by any other thread
    /// until the CAS publishes `head`.
    fn push_free_chain(&self, shard: &Shard, head: u32, tail: u32, tail_gen: u64) {
        let tail_slot = self.slot(NodeId(tail));
        loop {
            let old_head = shard.free_head.load(Ordering::Acquire);
            let tag = old_head >> 32;
            tail_slot.meta.store(
                (tail_gen << GEN_SHIFT) | (old_head & LOW_MASK),
                Ordering::Release,
            );
            let new_head = ((tag + 1) << 32) | head as u64;
            if shard
                .free_head
                .compare_exchange_weak(old_head, new_head, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Take one id from the shard's fresh window, if non-empty.
    fn pop_fresh(&self, shard: &Shard) -> Option<NodeId> {
        let mut cur = shard.fresh.load(Ordering::Acquire);
        loop {
            let cursor = cur & LOW_MASK;
            let end = cur >> 32;
            if cursor >= end {
                return None;
            }
            match shard.fresh.compare_exchange_weak(
                cur,
                (end << 32) | (cursor + 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(NodeId(cursor as u32)),
                Err(now) => cur = now,
            }
        }
    }

    /// Steal a recycled slot from any sibling shard's freelist.
    fn steal(&self, ctx: AllocCtx) -> Option<NodeId> {
        let own = (ctx.shard & self.shard_mask) as usize;
        let n = self.shards.len();
        for i in 1..n {
            let sibling = &self.shards[(own + i) & self.shard_mask as usize];
            if let Some(id) = self.pop_free(sibling) {
                return Some(id);
            }
        }
        None
    }

    /// Carve a new fresh block from the global cursor into the shard's
    /// window and return its first id. The per-shard refill lock makes
    /// the carve-and-install atomic so a lost race cannot leak a block;
    /// refills happen once per `FRESH_BLOCK` fresh allocations.
    fn refill_fresh(&self, shard: &Shard) -> NodeId {
        loop {
            if let Some(id) = self.pop_fresh(shard) {
                return id;
            }
            if shard
                .refill_lock
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // Re-check: a refill may have landed while we raced.
                if let Some(id) = self.pop_fresh(shard) {
                    shard.refill_lock.store(false, Ordering::Release);
                    return id;
                }
                let start = self.next_fresh.fetch_add(FRESH_BLOCK, Ordering::Relaxed);
                assert!(start < Self::capacity(), "arena capacity exhausted");
                let end = (start + FRESH_BLOCK).min(Self::capacity());
                // A block never straddles a chunk boundary (FRESH_BLOCK
                // divides BASE), so installing the first id's chunk
                // covers the whole window.
                let (chunk, _) = locate(start as u32);
                self.ensure_chunk(chunk);
                // Poppers only CAS a non-empty window, so a plain store
                // cannot clobber a concurrent hand-out.
                shard
                    .fresh
                    .store((end << 32) | (start + 1), Ordering::Release);
                shard.refill_lock.store(false, Ordering::Release);
                return NodeId(start as u32);
            }
            std::hint::spin_loop();
        }
    }

    // ------------------------------------------------------------------
    // Alloc / read / refcount
    // ------------------------------------------------------------------

    /// Allocate a tuple with reference count 1 (owned by the caller),
    /// through the calling thread's context (see [`Arena::ctx`]).
    ///
    /// Ownership convention: any `NodeId` children inside `value` are
    /// *transferred* to the new tuple — the caller gives up its owned
    /// reference to each child and must **not** `collect` them. To keep an
    /// independent reference to a child, call [`Arena::inc`] first.
    pub fn alloc(&self, value: T) -> NodeId {
        self.alloc_in(self.ctx(), value)
    }

    /// [`Arena::alloc`] through an explicit shard context.
    pub fn alloc_in(&self, ctx: AllocCtx, value: T) -> NodeId {
        let shard = self.shard(ctx);
        let (id, recycled) = match self.pop_free(shard) {
            Some(id) => (id, true),
            None => {
                let id = match self.pop_fresh(shard) {
                    Some(id) => id,
                    None => match self.steal(ctx) {
                        Some(id) => id,
                        None => self.refill_fresh(shard),
                    },
                };
                (id, false)
            }
        };
        let slot = self.slot(id);
        let gen = (slot.meta.load(Ordering::Acquire) & GEN_MASK) >> GEN_SHIFT;
        unsafe {
            (*slot.value.get()).write(value);
        }
        // Publish: value write happens-before any Acquire load of the meta.
        slot.meta
            .store(OCCUPIED | (gen << GEN_SHIFT) | 1, Ordering::Release);
        let allocated = shard.allocated.fetch_add(1, Ordering::Relaxed) + 1;
        if !recycled {
            // The shard's freelist was empty: the only point at which
            // its `allocated - freed` balance can reach a new high.
            let live = allocated as i64 - shard.freed.load(Ordering::Relaxed) as i64;
            shard.peak_live.fetch_max(live, Ordering::Relaxed);
        }
        id
    }

    /// Read a tuple. Panics if the slot has been freed and not reused (a
    /// deterministic catch for dangling ids); see the crate-level safety
    /// contract for the reuse caveat.
    #[inline]
    pub fn get(&self, id: NodeId) -> &T {
        let slot = self.slot(id);
        let meta = slot.meta.load(Ordering::Acquire);
        assert!(meta & OCCUPIED != 0, "access to freed slot {id:?}");
        unsafe { (*slot.value.get()).assume_init_ref() }
    }

    /// Mutably access a tuple in place.
    ///
    /// # Safety
    /// The caller must own the *only* reference (`rc == 1` and the caller
    /// owns it), so no concurrent reader can observe the node — this is the
    /// PAM-style in-place-update fast path used by `mvcc-ftree` during
    /// write transactions.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn get_mut_unchecked(&self, id: NodeId) -> &mut T {
        let slot = self.slot(id);
        debug_assert_eq!(self.rc(id), 1, "in-place mutation of shared node");
        unsafe { (*slot.value.get()).assume_init_mut() }
    }

    /// Current reference count of an occupied slot (diagnostics/tests).
    #[inline]
    pub fn rc(&self, id: NodeId) -> u32 {
        let meta = self.slot(id).meta.load(Ordering::Acquire);
        debug_assert!(meta & OCCUPIED != 0, "rc of freed slot {id:?}");
        (meta & LOW_MASK) as u32
    }

    /// Whether the slot is currently occupied.
    #[inline]
    pub fn is_occupied(&self, id: NodeId) -> bool {
        self.slot(id).meta.load(Ordering::Acquire) & OCCUPIED != 0
    }

    /// The slot's current generation tag (bumped on every free). Lets
    /// tests and audits prove that a reused id is distinguishable from
    /// its previous incarnation.
    #[inline]
    pub fn generation(&self, id: NodeId) -> u32 {
        ((self.slot(id).meta.load(Ordering::Acquire) & GEN_MASK) >> GEN_SHIFT) as u32
    }

    /// Add one owner to `id` (sharing a child between two parents, or
    /// retaining a version root). Mirrors `Arc::clone`'s relaxed increment:
    /// the caller already owns a reference, so the node cannot be freed
    /// concurrently.
    #[inline]
    pub fn inc(&self, id: NodeId) {
        let old = self.slot(id).meta.fetch_add(1, Ordering::Relaxed);
        debug_assert!(old & OCCUPIED != 0, "inc of freed slot {id:?}");
        debug_assert!(old & LOW_MASK >= 1, "inc resurrecting dead slot {id:?}");
    }

    /// Convenience: `inc` on a non-nil optional id.
    #[inline]
    pub fn inc_opt(&self, id: OptNodeId) {
        if let Some(id) = id.get() {
            self.inc(id);
        }
    }

    // ------------------------------------------------------------------
    // Collection
    // ------------------------------------------------------------------

    /// Algorithm 5, iteratively: release one owned reference to `root`;
    /// if that was the last owner, free the tuple and collect its children.
    /// Returns the number of tuples freed (the `S` of Theorem 4.2 — total
    /// work is `O(S + 1)`). Freed slots go to the calling thread's shard.
    ///
    /// When `root` has other owners this is one `fetch_sub` and returns
    /// 0; the shard context is only resolved on the freeing path.
    pub fn collect(&self, root: NodeId) -> usize {
        if !self.release_ref(root) {
            return 0;
        }
        self.free_dead(self.shard(self.ctx()), root)
    }

    /// [`Arena::collect`] through an explicit shard context. Frees are
    /// chained and spliced onto the shard freelist `FREE_BUF` at a
    /// time, so a large precise collection performs `O(S / FREE_BUF)`
    /// head CASes instead of `O(S)`.
    pub fn collect_in(&self, ctx: AllocCtx, root: NodeId) -> usize {
        if !self.release_ref(root) {
            return 0;
        }
        self.free_dead(self.shard(ctx), root)
    }

    /// Give up one owned reference to `id`. Returns `true` if that was
    /// the last owner: the tuple is then *dead* — unreachable by any
    /// other thread — and the caller must free it.
    #[inline]
    fn release_ref(&self, id: NodeId) -> bool {
        let old = self.slot(id).meta.fetch_sub(1, Ordering::Release);
        debug_assert!(old & OCCUPIED != 0, "collect of freed slot {id:?}");
        debug_assert!(old & LOW_MASK >= 1, "rc underflow at {id:?}");
        if old & LOW_MASK != 1 {
            return false;
        }
        // Last owner: synchronize with all prior decrements before the
        // value is torn down. (Same fence protocol as `Arc::drop`.)
        fence(Ordering::Acquire);
        true
    }

    /// The freeing path of `collect`: `root`'s count has just reached
    /// zero. Frees it and every descendant whose count thereby reaches
    /// zero, and returns how many tuples that was.
    ///
    /// Children are decremented as their parent is dismantled and only
    /// the dead ones are stacked, so a surviving (shared) child costs
    /// exactly one `fetch_sub`.
    fn free_dead(&self, shard: &Shard, root: NodeId) -> usize {
        let mut dead = DEAD_STACK.take();
        let mut freed = 0usize;
        // The private chain of freed slots awaiting their splice:
        // `head` is the most recently freed slot, `tail` the first.
        let (mut head, mut tail, mut tail_gen, mut chained) = (NIL, NIL, 0u64, 0usize);
        let mut cur = Some(root);
        while let Some(id) = cur.take().or_else(|| dead.pop()) {
            let slot = self.slot(id);
            // Count zero, so this thread is the slot's only accessor.
            let meta = slot.meta.load(Ordering::Relaxed);
            debug_assert_eq!(meta & !GEN_MASK, OCCUPIED, "freeing a live slot {id:?}");
            let gen = ((meta & GEN_MASK) >> GEN_SHIFT).wrapping_add(1) & (GEN_MASK >> GEN_SHIFT);
            // Clear OCCUPIED (with the bumped generation, linked in
            // front of the private chain) *before* running the
            // destructor: if `drop` panics and unwinds past the splice
            // below, the slot — and its chained predecessors — read as
            // free, so `Arena::drop` cannot double-drop them (they leak
            // off-freelist, which is safe; stacked dead tuples still
            // read as occupied and are dropped with the arena). No other
            // thread can observe this store: the slot is off every
            // freelist and rc has reached zero.
            slot.meta
                .store((gen << GEN_SHIFT) | head as u64, Ordering::Relaxed);
            if chained == 0 {
                (tail, tail_gen) = (id.0, gen);
            }
            head = id.0;
            chained += 1;
            // SAFETY: the slot was occupied with its count at zero, so
            // the value is initialized and this thread is its only
            // accessor; it is dropped exactly once, here.
            unsafe {
                let value = (*slot.value.get()).assume_init_mut();
                value.for_each_child(&mut |child| {
                    if self.release_ref(child) {
                        dead.push(child);
                    }
                });
                std::ptr::drop_in_place(value as *mut T);
            }
            if chained == FREE_BUF {
                self.push_free_chain(shard, head, tail, tail_gen);
                (head, chained) = (NIL, 0);
            }
            freed += 1;
        }
        if chained > 0 {
            self.push_free_chain(shard, head, tail, tail_gen);
        }
        DEAD_STACK.set(dead);
        shard.freed.fetch_add(freed as u64, Ordering::Relaxed);
        freed
    }

    /// Destructure an exclusively-owned tuple: free the slot and return the
    /// value by move, *without* touching the children's reference counts
    /// (their ownership transfers to the caller through the returned value).
    ///
    /// This is the fast path of persistent-tree "expose": when a writer
    /// owns the only reference to a node (`rc == 1`), the node cannot be
    /// part of any snapshot, so it can be dismantled in place instead of
    /// path-copied.
    ///
    /// Panics if the slot is not occupied with `rc == 1`.
    pub fn take(&self, id: NodeId) -> T {
        let shard = self.shard(self.ctx());
        let slot = self.slot(id);
        let meta = slot.meta.load(Ordering::Acquire);
        assert!(meta & OCCUPIED != 0, "take of freed slot {id:?}");
        assert_eq!(meta & LOW_MASK, 1, "take of shared slot {id:?}");
        // Exclusive: rc == 1 and the caller owns that reference, so no
        // other thread can read or modify this slot.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        let gen = ((meta & GEN_MASK) >> GEN_SHIFT).wrapping_add(1) & (GEN_MASK >> GEN_SHIFT);
        self.push_free_chain(shard, id.0, id.0, gen);
        shard.freed.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// [`Arena::collect`] on an optional root; nil is a no-op.
    #[inline]
    pub fn collect_opt(&self, root: OptNodeId) -> usize {
        match root.get() {
            Some(id) => self.collect(id),
            None => 0,
        }
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Number of currently allocated tuples. The *precision* audits compare
    /// this against the reachable set of the live versions.
    pub fn live(&self) -> u64 {
        self.allocated_total().saturating_sub(self.freed_total())
    }

    /// Total `alloc` calls ever performed.
    pub fn allocated_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.allocated.load(Ordering::Relaxed))
            .sum()
    }

    /// Total tuples ever freed by `collect`.
    pub fn freed_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.freed.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of the allocation counters, rolled up across shards.
    pub fn stats(&self) -> ArenaStats {
        let allocated_total = self.allocated_total();
        let freed_total = self.freed_total();
        let peak: i64 = self
            .shards
            .iter()
            .map(|s| s.peak_live.load(Ordering::Relaxed).max(0))
            .sum();
        ArenaStats {
            allocated_total,
            freed_total,
            live: allocated_total.saturating_sub(freed_total),
            peak_live: peak as u64,
            shards: self.shards.len() as u64,
        }
    }
}

impl<T: Tuple> Drop for Arena<T> {
    fn drop(&mut self) {
        // Drop any still-occupied values, then free the chunk storage.
        // `next_fresh` bounds every id ever handed out (ids beyond the
        // shard cursors inside carved blocks have zeroed metadata).
        let fresh = self
            .next_fresh
            .load(Ordering::Acquire)
            .min(Self::capacity());
        for raw in 0..fresh as u32 {
            let (chunk, offset) = locate(raw);
            let ptr = self.chunk_ptr(chunk);
            if ptr.is_null() {
                continue;
            }
            let slot = unsafe { &*ptr.add(offset) };
            if slot.meta.load(Ordering::Acquire) & OCCUPIED != 0 {
                unsafe {
                    std::ptr::drop_in_place((*slot.value.get()).assume_init_mut() as *mut T);
                }
            }
        }
        for chunk in 0..NUM_CHUNKS {
            let ptr = self.chunk_ptr(chunk);
            if !ptr.is_null() {
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        ptr,
                        chunk_len(chunk),
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Leaf;
    use std::sync::Arc;

    /// A binary tuple with two optional children — the canonical PLM shape.
    struct Pair {
        left: OptNodeId,
        right: OptNodeId,
        #[allow(dead_code)]
        payload: u64,
    }

    impl Tuple for Pair {
        fn for_each_child(&self, f: &mut dyn FnMut(NodeId)) {
            if let Some(l) = self.left.get() {
                f(l);
            }
            if let Some(r) = self.right.get() {
                f(r);
            }
        }
    }

    fn leaf(arena: &Arena<Pair>, payload: u64) -> NodeId {
        arena.alloc(Pair {
            left: OptNodeId::NONE,
            right: OptNodeId::NONE,
            payload,
        })
    }

    #[test]
    fn locate_math() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(BASE - 1), (0, (BASE - 1) as usize));
        assert_eq!(locate(BASE), (1, 0));
        assert_eq!(locate(3 * BASE - 1), (1, (2 * BASE - 1) as usize));
        assert_eq!(locate(3 * BASE), (2, 0));
        // Every index in the first few chunks maps to a unique slot.
        let mut seen = std::collections::HashSet::new();
        for i in 0..8 * BASE {
            assert!(seen.insert(locate(i)), "duplicate slot for index {i}");
        }
    }

    #[test]
    fn alloc_get_roundtrip() {
        let arena: Arena<Leaf<u64>> = Arena::new();
        let a = arena.alloc(Leaf(41));
        let b = arena.alloc(Leaf(42));
        assert_eq!(arena.get(a).0, 41);
        assert_eq!(arena.get(b).0, 42);
        assert_eq!(arena.rc(a), 1);
        assert_eq!(arena.live(), 2);
    }

    #[test]
    fn collect_frees_chain() {
        let arena: Arena<Pair> = Arena::new();
        // c <- b <- a (a is root)
        let c = leaf(&arena, 3);
        let b = arena.alloc(Pair {
            left: OptNodeId::some(c),
            right: OptNodeId::NONE,
            payload: 2,
        });
        let a = arena.alloc(Pair {
            left: OptNodeId::some(b),
            right: OptNodeId::NONE,
            payload: 1,
        });
        assert_eq!(arena.live(), 3);
        let freed = arena.collect(a);
        assert_eq!(freed, 3);
        assert_eq!(arena.live(), 0);
        assert!(!arena.is_occupied(a));
    }

    #[test]
    fn shared_child_survives_one_parent() {
        let arena: Arena<Pair> = Arena::new();
        let shared = leaf(&arena, 9);
        arena.inc(shared); // second parent's reference
        let p1 = arena.alloc(Pair {
            left: OptNodeId::some(shared),
            right: OptNodeId::NONE,
            payload: 1,
        });
        let p2 = arena.alloc(Pair {
            left: OptNodeId::some(shared),
            right: OptNodeId::NONE,
            payload: 2,
        });
        assert_eq!(arena.rc(shared), 2);
        assert_eq!(arena.collect(p1), 1); // only p1 freed
        assert!(arena.is_occupied(shared));
        assert_eq!(arena.rc(shared), 1);
        assert_eq!(arena.collect(p2), 2); // p2 and shared freed
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn dag_diamond_collects_once() {
        let arena: Arena<Pair> = Arena::new();
        let bottom = leaf(&arena, 0);
        arena.inc(bottom);
        let l = arena.alloc(Pair {
            left: OptNodeId::some(bottom),
            right: OptNodeId::NONE,
            payload: 1,
        });
        let r = arena.alloc(Pair {
            left: OptNodeId::some(bottom),
            right: OptNodeId::NONE,
            payload: 2,
        });
        let top = arena.alloc(Pair {
            left: OptNodeId::some(l),
            right: OptNodeId::some(r),
            payload: 3,
        });
        assert_eq!(arena.collect(top), 4);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn slots_are_reused() {
        let arena: Arena<Leaf<u64>> = Arena::new();
        let a = arena.alloc(Leaf(1));
        let raw = a.index();
        arena.collect(a);
        let b = arena.alloc(Leaf(2));
        assert_eq!(b.index(), raw, "freed slot should be recycled");
        assert_eq!(arena.get(b).0, 2);
        assert_eq!(arena.stats().allocated_total, 2);
        assert_eq!(arena.stats().freed_total, 1);
        assert_eq!(arena.stats().live, 1);
    }

    #[test]
    fn generation_bumps_on_reuse() {
        let arena: Arena<Leaf<u64>> = Arena::new();
        let a = arena.alloc(Leaf(1));
        let gen0 = arena.generation(a);
        arena.collect(a);
        let b = arena.alloc(Leaf(2));
        assert_eq!(b.index(), a.index());
        assert_eq!(arena.generation(b), gen0 + 1, "free must bump the tag");
    }

    #[test]
    #[should_panic(expected = "access to freed slot")]
    fn get_after_free_panics() {
        let arena: Arena<Leaf<u64>> = Arena::new();
        let a = arena.alloc(Leaf(1));
        arena.collect(a);
        let _ = arena.get(a);
    }

    #[test]
    fn values_drop_on_free_and_arena_drop() {
        struct Probe(Arc<std::sync::atomic::AtomicU64>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let arena: Arena<Leaf<Probe>> = Arena::new();
        let a = arena.alloc(Leaf(Probe(drops.clone())));
        let _b = arena.alloc(Leaf(Probe(drops.clone())));
        arena.collect(a);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        drop(arena); // _b still occupied: dropped with the arena
        assert_eq!(drops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        let arena: Arena<Pair> = Arena::new();
        let mut cur = leaf(&arena, 0);
        for i in 1..200_000u64 {
            cur = arena.alloc(Pair {
                left: OptNodeId::some(cur),
                right: OptNodeId::NONE,
                payload: i,
            });
        }
        assert_eq!(arena.collect(cur), 200_000);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn peak_live_tracks_high_water() {
        let arena: Arena<Leaf<u64>> = Arena::new();
        let ids: Vec<_> = (0..100).map(|i| arena.alloc(Leaf(i))).collect();
        for id in ids {
            arena.collect(id);
        }
        let stats = arena.stats();
        assert_eq!(stats.live, 0);
        assert_eq!(stats.peak_live, 100);
    }

    #[test]
    fn concurrent_alloc_collect_stress() {
        let arena: Arc<Arena<Pair>> = Arc::new(Arena::new());
        let threads = 4;
        let per_thread = 2_000;
        std::thread::scope(|s| {
            for t in 0..threads {
                let arena = &arena;
                s.spawn(move || {
                    let mut roots = Vec::new();
                    for i in 0..per_thread {
                        let l = leaf(arena, i);
                        let r = leaf(arena, i + 1);
                        let p = arena.alloc(Pair {
                            left: OptNodeId::some(l),
                            right: OptNodeId::some(r),
                            payload: t as u64,
                        });
                        roots.push(p);
                        if i % 3 == 0 {
                            if let Some(old) = roots.pop() {
                                arena.collect(old);
                            }
                        }
                    }
                    for r in roots {
                        arena.collect(r);
                    }
                });
            }
        });
        assert_eq!(arena.live(), 0, "stress must end with empty arena");
        assert_eq!(arena.allocated_total(), arena.freed_total());
    }

    #[test]
    fn cross_chunk_allocation() {
        let arena: Arena<Leaf<u32>> = Arena::new();
        let n = 3 * BASE + 7; // spans three chunks
        let ids: Vec<_> = (0..n).map(|i| arena.alloc(Leaf(i))).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(arena.get(*id).0 as usize, i);
        }
        for id in ids {
            arena.collect(id);
        }
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn thread_seed_sanitizer_preserves_consecutiveness() {
        // Regression: masking with `NO_PIN - 1` cleared bit 0, making
        // every thread-affine seed even — odd shards were unreachable by
        // default-path allocation and thread pairs shared a shard.
        assert_eq!(sanitize_seed(0), 0);
        assert_eq!(sanitize_seed(1), 1, "odd seeds must survive");
        assert_eq!(sanitize_seed(NO_PIN), 0, "sentinel must be remapped");
        for raw in 0..16u32 {
            assert_eq!(
                sanitize_seed(raw) & 1,
                raw & 1,
                "parity (lowest shard bit) must be preserved"
            );
            assert_ne!(sanitize_seed(raw), NO_PIN);
        }
    }

    #[test]
    fn single_shard_matches_classic_behaviour() {
        let arena: Arena<Leaf<u64>> = Arena::with_shards(1);
        assert_eq!(arena.shards(), 1);
        let a = arena.alloc(Leaf(1));
        arena.collect(a);
        let b = arena.alloc(Leaf(2));
        assert_eq!(a.index(), b.index());
        arena.collect(b);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn distinct_ctxs_use_distinct_shards() {
        let arena: Arena<Leaf<u64>> = Arena::with_shards(4);
        assert_eq!(arena.shards(), 4);
        let c0 = arena.ctx_for(0);
        let c1 = arena.ctx_for(1);
        assert_ne!(c0.shard_index(), c1.shard_index());
        // Ids allocated through different contexts come from different
        // fresh blocks.
        let a = arena.alloc_in(c0, Leaf(0));
        let b = arena.alloc_in(c1, Leaf(1));
        assert_ne!(
            a.index() / FRESH_BLOCK as u32,
            b.index() / FRESH_BLOCK as u32
        );
        arena.collect_in(c0, a);
        arena.collect_in(c1, b);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn stealing_recycles_sibling_free_slots() {
        let arena: Arena<Leaf<u64>> = Arena::with_shards(2);
        let c0 = arena.ctx_for(0);
        let c1 = arena.ctx_for(1);
        // Free a slot into shard 1's freelist.
        let a = arena.alloc_in(c1, Leaf(7));
        arena.collect_in(c1, a);
        // Shard 0 has an empty freelist and has never opened a fresh
        // window, so (steal preceding refill) its very next allocation
        // should recover `a` from shard 1; the loop tolerates any
        // ordering as long as the slot comes back eventually.
        let mut drained = Vec::new();
        loop {
            let id = arena.alloc_in(c0, Leaf(0));
            if id == a {
                // Got the stolen slot back.
                break;
            }
            drained.push(id);
            assert!(
                drained.len() <= 2 * FRESH_BLOCK as usize,
                "never stole sibling's freed slot"
            );
        }
        for id in drained {
            arena.collect_in(c0, id);
        }
        arena.collect_in(c0, a);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn pin_routes_allocations_to_one_shard() {
        let arena: Arena<Leaf<u64>> = Arena::with_shards(4);
        let ctx = arena.ctx_for(3);
        let ids: Vec<_> = arena.with_ctx(ctx, || (0..10).map(|i| arena.alloc(Leaf(i))).collect());
        // All ids come from one fresh block — proof they hit one shard.
        let block = ids[0].index() / FRESH_BLOCK as u32;
        for id in &ids {
            assert_eq!(id.index() / FRESH_BLOCK as u32, block);
        }
        // The pin is gone after the scope; nested pins restore properly.
        let g1 = arena.pin(arena.ctx_for(1));
        let g2 = arena.pin(arena.ctx_for(2));
        assert_eq!(arena.ctx().shard_index(), 2);
        drop(g2);
        assert_eq!(arena.ctx().shard_index(), 1);
        drop(g1);
        for id in ids {
            arena.collect(id);
        }
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn panicking_value_drop_cannot_double_free() {
        // A destructor that panics mid-collect unwinds past the
        // buffered freelist flush. Slots whose values already ran their
        // destructor must read as free so `Arena::drop` does not run
        // those destructors again: every value drops exactly once.
        use std::sync::atomic::AtomicU64 as StdAtomicU64;
        struct Bomb {
            next: OptNodeId,
            drops: Arc<StdAtomicU64>,
        }
        impl Tuple for Bomb {
            fn for_each_child(&self, f: &mut dyn FnMut(NodeId)) {
                if let Some(n) = self.next.get() {
                    f(n);
                }
            }
        }
        impl Drop for Bomb {
            fn drop(&mut self) {
                let count = self.drops.fetch_add(1, Ordering::Relaxed) + 1;
                if count == 3 && !std::thread::panicking() {
                    panic!("boom on drop #3");
                }
            }
        }
        let drops = Arc::new(StdAtomicU64::new(0));
        let arena: Arena<Bomb> = Arena::with_shards(1);
        let n = 8u64;
        let mut cur = OptNodeId::NONE;
        for _ in 0..n {
            cur = OptNodeId::some(arena.alloc(Bomb {
                next: cur,
                drops: drops.clone(),
            }));
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            arena.collect(cur.unwrap());
        }));
        assert!(unwound.is_err(), "the armed destructor must have fired");
        drop(arena);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            n,
            "every value must drop exactly once (no double drop, no skip)"
        );
    }

    #[test]
    fn task_ctx_bypasses_pins() {
        // A fork-join subtask must allocate through its executing
        // thread's own shard even when the thread carries a batch pin
        // (forker's pin inherited inline, or a helper's unrelated pin).
        let arena: Arena<Leaf<u64>> = Arena::with_shards(4);
        let affine = arena.task_ctx().shard_index();
        let pinned = (affine + 1) % 4;
        let _guard = arena.pin(arena.ctx_for(pinned));
        assert_eq!(arena.ctx().shard_index(), pinned, "pin governs ctx()");
        assert_eq!(
            arena.task_ctx().shard_index(),
            affine,
            "task_ctx() must ignore the pin"
        );
    }

    #[test]
    fn pin_is_scoped_to_one_arena() {
        // Pinning arena A must not reroute allocation on arena B inside
        // the same scope: B falls back to its own (affine) routing.
        let a: Arena<Leaf<u64>> = Arena::with_shards(4);
        let b: Arena<Leaf<u64>> = Arena::with_shards(4);
        let affine_b = b.ctx().shard_index();
        let pinned = (affine_b + 1) % 4; // a shard B would not pick
        let _guard = a.pin(a.ctx_for(pinned));
        assert_eq!(a.ctx().shard_index(), pinned, "pin applies to A");
        assert_eq!(b.ctx().shard_index(), affine_b, "pin must not leak to B");
    }

    #[test]
    fn buffered_collect_crosses_flush_boundary() {
        // A chain longer than FREE_BUF exercises the chain-splice path
        // more than once, including the final partial flush.
        let arena: Arena<Pair> = Arena::new();
        let n = 3 * FREE_BUF + 17;
        let mut cur = leaf(&arena, 0);
        for i in 1..n as u64 {
            cur = arena.alloc(Pair {
                left: OptNodeId::some(cur),
                right: OptNodeId::NONE,
                payload: i,
            });
        }
        assert_eq!(arena.collect(cur), n);
        assert_eq!(arena.live(), 0);
        // Every freed slot is reachable again through the freelist: the
        // next n allocations recycle without growing the arena.
        let before = arena.stats().allocated_total;
        let ids: Vec<_> = (0..n as u64).map(|i| leaf(&arena, i)).collect();
        assert_eq!(arena.stats().allocated_total, before + n as u64);
        assert_eq!(arena.live(), n as u64);
        for id in ids {
            arena.collect(id);
        }
        assert_eq!(arena.live(), 0);
    }
}
