//! Sharded lock-free slab with atomic reference counts.
//!
//! ## Slot storage
//!
//! Each arena reserves, when it is built, one range of address space
//! large enough for every id it could ever hand out ([`Arena::capacity`]
//! slots; `crate::pages`). A [`NodeId`] is a stable 4-byte index into
//! this (global, shard-agnostic) id space, and slot `i` sits at
//! `base + i`: reading a node costs one pointer add, with no table to
//! consult. Nothing is ever moved or unmapped until the arena drops, so
//! a `&T` handed out by [`Arena::get`] stays valid storage for the
//! arena's lifetime regardless of concurrent allocation.
//!
//! The reservation is inaccessible except for a prefix, which grows
//! when a carved block of fresh ids ends past it — in doubling steps of
//! whole 2 MiB huge pages, so it grows a logarithmic number of times.
//! The zero fill of fresh anonymous memory *is* the free-slot state —
//! metadata 0 (not occupied, generation 0), value uninitialized — so
//! growing the prefix writes nothing, and only pages holding slots
//! actually handed out are ever faulted in. Everything past the first
//! 2 MiB is advised for transparent huge pages, so a large version is
//! backed by a few dozen huge pages rather than thousands of 4 KiB ones
//! and a tree descent takes fewer TLB misses; a small arena's slots all
//! sit in the unadvised head.
//!
//! ## Sharded allocation
//!
//! Every transactional write path-copies O(log n) tree nodes and precise
//! GC frees them one by one, so allocator throughput bounds system
//! throughput. A single freelist head serializes every thread in the
//! process on one cache line; this arena therefore splits the allocator
//! into `S` independent **shards** (a power of two, default ≈ 2× the
//! core count). An allocation site picks a shard through an
//! [`AllocCtx`]: thread-affine by default (each thread is assigned a
//! shard round-robin on first use), or pinned explicitly —
//! [`Arena::pin`] installs a thread-local override so a whole batch
//! (e.g. the flat-combining writer, or a bulk tree operation) allocates
//! and frees through one shard without threading a parameter through
//! every recursive call. Ids, generations and metadata are global, so
//! which shard a slot passes through is invisible to readers.
//!
//! Slots are recycled at two levels:
//!
//! * **The shard's cache**: a tagged Treiber stack (the tag defeats
//!   ABA) of up to [`CACHE_CAP`] freed slots, popped first with one
//!   CAS. A shard that frees and allocates its own slots — a durable
//!   writer, a preload, a write whose old version nobody else holds —
//!   reuses them hot, in LIFO order.
//! * **Blocks**: the id space is cut into [`BLOCK`]-slot blocks, each
//!   with a free bitmap in a side array ([`Block`]) reserved like the
//!   slots and exposed as blocks are carved. A free that finds its
//!   shard's cache full sets its slot's bit instead. Under the paper's
//!   precise GC a reader, as the last releaser, frees each displaced
//!   version into *its* shard, so this is where a writer's slots come
//!   back from.
//!
//! Allocation order per shard: its cache → the next set bit at or after
//! the shard's cursor in the block it owns, claimed with one
//! `fetch_and` → a block popped from the arena's stack of
//! **recyclable** blocks → a freshly carved block, which is simply a
//! block with every bit set. So a writer whose cache is empty fills each
//! new path into ascending, mostly contiguous slots, as Immix's
//! recyclable blocks do (Blackburn and McKinley, PLDI 2008), instead of
//! scattering it over single slots freed wherever readers happened to
//! release them.
//!
//! A block is *held* while it is queued on the recyclable stack or
//! owned (by a shard's cursor, or by a [`Run`] taking its bits), and
//! *idle* otherwise. An owner that has claimed every bit at or after its
//! cursor releases the block; a block that is idle, or is released,
//! with at least [`RECYCLE_AT`] (a quarter) of its slots free is queued
//! — exactly once, by whoever wins the idle → held CAS. A block's free
//! count is the popcount of its bitmap: the bitmap *is* the count.
//!
//! **Footprint bound.** In quiescence every idle block is more than ¾
//! live or cached, so the ids ever carved ([`ArenaStats::carved`]) obey
//!
//! ```text
//! carved ≤ ⌈4/3 · (live + cached)⌉ + (shards + queued + 1) · BLOCK,   cached < shards · (CACHE_CAP + FREE_BUF)
//! ```
//!
//! where `queued` counts the recyclable stack and the `+ 1` is the block
//! that a [`Run`]'s carve left part-carved. The quarter is a trade:
//! queueing blocks that are less free spreads a new path over more of
//! them, and waiting for more free leaves more partly free blocks idle.
//!
//! The same-shard path adds no atomic read-modify-write to an
//! allocation. Each shard counts its allocations and frees by where
//! they went — `popped` from and `pushed` onto its cache, `claimed`
//! from bitmaps or carved, `spilled` into bitmaps — so the counters it
//! bumps anyway give the cache's length, `pushed − popped`, and the
//! totals are their sums.
//!
//! A bulk build knows up front how many tuples it creates, and takes
//! them all at once as a [`Run`] ([`Arena::run`]). One owner — the
//! calling thread, through its context — gets `n` slots that sit in no
//! cache and no bitmap, so no other allocator can see them, and the run
//! counts all `n` with at most two `fetch_add`s. The owner publishes each
//! slot with a plain value write and one `Release` store of its
//! metadata, and may split the run into disjoint parts for other threads
//! to fill. Recycled slots come first: the caller's cache, taken whole
//! with one tagged CAS and its unused remainder handed back with one
//! more, then the free bits of recyclable blocks, in address order. Only
//! the rest is carved from the global cursor as one range, with one
//! prefix expose. Carving first would leave freed slots idle while a
//! build-heavy steady state raised the high-water mark by every build. A
//! run abandoned part-filled (a builder that panics) leaks whole:
//! [`Arena::live`] keeps counting its `n` slots; the filled ones stay
//! occupied and drop with the arena, once; the unfilled ones read as
//! free and drop nothing.
//!
//! [`Arena::collect`] additionally *buffers* frees: freed slots are
//! linked into a private chain (through their own metadata words — no
//! side buffer) and spliced onto the shard's cache with one CAS per
//! [`FREE_BUF`] tuples, so collecting a large version does not CAS a
//! shared head once per tuple. Whether the cache has room is asked once
//! per chain; a chain that finds it full spills slot by slot into the
//! bitmaps, so a cache may overshoot its cap by less than a chain. A
//! `collect` that only drops a count — the root still has other owners
//! — is a single `fetch_sub`: no heap, no thread-local, no shard
//! lookup.
//!
//! ## Per-slot metadata
//!
//! Packs into one `AtomicU64`:
//!
//! ```text
//! bit 63      : OCCUPIED
//! bits 32..63 : generation (bumped on every free; detects stale ids)
//! bits  0..32 : reference count (occupied)
//!             | next slot in the shard's cache (free, cached)
//!             | unused (free, in a block's bitmap, or never handed out)
//! ```
//!
//! Reference-count updates are single `fetch_add`/`fetch_sub`
//! instructions on the metadata word — they can never carry into the
//! generation field because the owner invariant guarantees
//! `1 <= rc < 2^32` whenever an increment or decrement happens.

use core::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;

use crate::pages::{self, Reservation};
use crate::{CachePadded, NodeId, OptNodeId, Tuple};

const OCCUPIED: u64 = 1 << 63;
const GEN_SHIFT: u32 = 32;
const GEN_MASK: u64 = ((1u64 << 31) - 1) << GEN_SHIFT;
const LOW_MASK: u64 = (1u64 << 32) - 1;

/// Empty-stack marker, a slot's "no next" link, and a cursor's "no block".
const NIL: u32 = u32::MAX;

/// Slots per block: the unit of carving and of bitmap recycling.
const BLOCK: u64 = 256;

/// Bitmap words per block.
const WORDS: usize = (BLOCK / 64) as usize;

/// Free slots at which an idle block is queued for reuse: a quarter.
const RECYCLE_AT: u32 = (BLOCK / 4) as u32;

/// Freed slots a shard's cache holds before frees spill into bitmaps.
const CACHE_CAP: u64 = 1024;

/// Upper bound on the shard count (id space and stats stay tiny).
const MAX_SHARDS: usize = 64;

/// Buffered frees per cache splice in [`Arena::collect`].
const FREE_BUF: usize = 64;

/// A block's state: on no stack and owned by no one.
const IDLE: u32 = 0;
/// A block's state: queued on the recyclable stack, or owned.
const HELD: u32 = 1;

/// A shard cursor that owns no block.
const NO_BLOCK: u64 = (NIL as u64) << 32;

/// All-zero bytes are a free slot: metadata 0, value uninitialized.
struct Slot<T> {
    meta: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// The recycling state of [`BLOCK`] consecutive slots, in a side array
/// indexed by `id / BLOCK`. All-zero bytes are an idle block with no
/// free bit, which is what a block nobody has carved reads as.
#[repr(align(64))]
struct Block {
    /// Bit `i` of word `w` set: slot `w * 64 + i` of the block is free
    /// and on no cache.
    free: [AtomicU64; WORDS],
    /// [`IDLE`] or [`HELD`].
    state: AtomicU32,
    /// The next block down the recyclable stack while queued.
    link: AtomicU32,
}

impl Block {
    /// Free slots in the bitmap. `SeqCst` loads: a free that sets a bit
    /// and then finds the block idle, and a release that marks it idle
    /// and then counts, cannot both miss the other.
    fn free_count(&self) -> u32 {
        self.free
            .iter()
            .map(|w| w.load(Ordering::SeqCst).count_ones())
            .sum()
    }
}

/// The bits of word `w` of block `b` that ids `lo..hi` cover.
fn range_mask(b: u64, w: usize, lo: u64, hi: u64) -> u64 {
    let first = b * BLOCK + w as u64 * 64;
    let (lo, hi) = (lo.clamp(first, first + 64), hi.clamp(first, first + 64));
    match hi - lo {
        0 => 0,
        64 => !0,
        n => ((1u64 << n) - 1) << (lo - first),
    }
}

/// One allocator shard. The whole struct is cache-padded where it is
/// stored so shards never false-share.
struct Shard {
    /// The cache: a tagged Treiber head, `(tag << 32) | index`.
    free_head: AtomicU64,
    /// `(block << 32) | word`: the block this shard allocates from and
    /// the bitmap word it has reached ([`NO_BLOCK`]: none yet).
    cursor: AtomicU64,
    /// Slots allocated from the cache.
    popped: AtomicU64,
    /// Slots allocated from bitmaps or carved.
    claimed: AtomicU64,
    /// Slots freed onto the cache.
    pushed: AtomicU64,
    /// Slots freed into a bitmap.
    spilled: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            free_head: AtomicU64::new(NIL as u64),
            cursor: AtomicU64::new(NO_BLOCK),
            popped: AtomicU64::new(0),
            claimed: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
        }
    }

    /// Slots on the cache, from the counters: exact in quiescence, and
    /// off by the calls in flight otherwise.
    fn cached(&self) -> u64 {
        let pushed = self.pushed.load(Ordering::Relaxed);
        let popped = self.popped.load(Ordering::Relaxed);
        (pushed.wrapping_sub(popped) as i64).max(0) as u64
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
    /// Ids ever carved from the arena's never-used space. Every slot
    /// ever handed out lies below it, so it is the high-water mark of
    /// the arena's footprint: it rises only when neither the shard's
    /// cache, nor its block, nor a recyclable block can cover an
    /// allocation, and never falls.
    pub carved: u64,
    /// Number of allocator shards.
    pub shards: u64,
}

/// A concurrent slab of reference-counted tuples — the PLM memory of the
/// paper. See the crate docs for the ownership convention and the module
/// docs for the sharded allocator layout.
pub struct Arena<T: Tuple> {
    /// Slot `i` at `base + i`; accessible up to the carved ids.
    pages: Reservation,
    /// [`Block`] `b` at `base + b`; accessible up to the carved blocks.
    blocks: Reservation,
    shards: Box<[CachePadded<Shard>]>,
    shard_mask: u32,
    /// Global bump cursor: ids below it have been carved.
    next_fresh: CachePadded<AtomicU64>,
    /// Tagged Treiber head of the recyclable blocks, `(tag << 32) | block`.
    recyclable: CachePadded<AtomicU64>,
    _marker: std::marker::PhantomData<T>,
}

// SAFETY: the arena owns its reservation outright, and every shared
// access to a slot goes through the slot's atomic metadata word (values
// are written before the `Release` store that publishes them, and torn
// down only by the thread that took the count to zero). `T: Tuple` is
// `Send + Sync`, so values may be dropped on, and shared with, any
// thread.
unsafe impl<T: Tuple> Send for Arena<T> {}
// SAFETY: as above.
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
    /// rounded to a power of two). It reserves address space for
    /// [`Arena::capacity`] slots and touches none of it until first use.
    pub fn new() -> Self {
        Self::with_shards(default_shard_count())
    }

    /// Create an empty arena with an explicit shard count (rounded up to
    /// a power of two, clamped to `1..=64`). `with_shards(1)` reproduces
    /// the classic single-freelist allocator, which benchmarks use as
    /// their contention baseline.
    pub fn with_shards(shards: usize) -> Self {
        // The reservation is huge-page-aligned, which covers any sane tuple.
        const { assert!(align_of::<Slot<T>>() <= pages::HUGE_PAGE) };
        let shards = shards.next_power_of_two().clamp(1, MAX_SHARDS);
        Arena {
            pages: Reservation::new(Self::capacity() as usize * size_of::<Slot<T>>()),
            blocks: Reservation::new(
                Self::capacity().div_ceil(BLOCK) as usize * size_of::<Block>(),
            ),
            shards: (0..shards)
                .map(|_| CachePadded::new(Shard::new()))
                .collect(),
            shard_mask: shards as u32 - 1,
            next_fresh: CachePadded::new(AtomicU64::new(0)),
            recyclable: CachePadded::new(AtomicU64::new(NIL as u64)),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of allocator shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Maximum number of slots this arena can ever hold: every 32-bit id
    /// but the nil sentinel.
    pub const fn capacity() -> u64 {
        NIL as u64
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

    #[inline]
    fn slot(&self, id: NodeId) -> &Slot<T> {
        debug_assert!(
            (id.0 as usize + 1) * size_of::<Slot<T>>() <= self.pages.accessible(),
            "slot {id:?} lies past the arena's accessible prefix"
        );
        let base = self.pages.base().cast::<Slot<T>>().as_ptr();
        // SAFETY: every id below `capacity()` has a slot inside the
        // reservation; ids are handed out only once carved, and `carve`
        // exposes their slots first; the reservation lives as long as
        // `self`.
        unsafe { &*base.add(id.0 as usize) }
    }

    /// The recycling state of block `b`.
    #[inline]
    fn block(&self, b: u32) -> &Block {
        debug_assert!(
            (b as usize + 1) * size_of::<Block>() <= self.blocks.accessible(),
            "block {b} lies past the arena's accessible prefix"
        );
        let base = self.blocks.base().cast::<Block>().as_ptr();
        // SAFETY: as for `slot`: `carve` exposes the block of every id
        // it carves, and blocks are only named through carved ids.
        unsafe { &*base.add(b as usize) }
    }

    // ------------------------------------------------------------------
    // The shard cache
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

    /// Splice a privately linked chain of freed slots onto the shard's
    /// cache with a single CAS. The chain runs `head → … → tail`
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

    // ------------------------------------------------------------------
    // Blocks
    // ------------------------------------------------------------------

    /// Free the slots `mask` of word `w` of block `b` into its bitmap,
    /// and queue the block if that leaves it idle and a quarter free.
    /// The slots' generations are already bumped and their values gone.
    fn free_bits(&self, b: u32, w: usize, mask: u64) {
        let block = self.block(b);
        // Releases the slots: a claimer that takes a bit reads the
        // slot's metadata as this thread left it.
        block.free[w].fetch_or(mask, Ordering::SeqCst);
        if block.state.load(Ordering::SeqCst) == IDLE && block.free_count() >= RECYCLE_AT {
            self.queue(b);
        }
    }

    /// Free slot `id`, whose generation is bumped and value gone, into
    /// its block's bitmap.
    fn spill(&self, id: NodeId) {
        let i = id.0 as u64;
        self.free_bits(
            (i / BLOCK) as u32,
            ((i % BLOCK) / 64) as usize,
            1 << (i % 64),
        );
    }

    /// Queue block `b` on the recyclable stack unless another thread
    /// already holds it.
    fn queue(&self, b: u32) {
        let block = self.block(b);
        if block
            .state
            .compare_exchange(IDLE, HELD, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        loop {
            let head = self.recyclable.load(Ordering::Acquire);
            block
                .link
                .store((head & LOW_MASK) as u32, Ordering::Relaxed);
            let new_head = (((head >> 32) + 1) << 32) | b as u64;
            if self
                .recyclable
                .compare_exchange_weak(head, new_head, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Pop a recyclable block; the caller owns it until [`Arena::release`].
    fn pop_block(&self) -> Option<u32> {
        loop {
            let head = self.recyclable.load(Ordering::Acquire);
            let b = (head & LOW_MASK) as u32;
            if b == NIL {
                return None;
            }
            let next = self.block(b).link.load(Ordering::Relaxed) as u64;
            let new_head = (((head >> 32) + 1) << 32) | next;
            if self
                .recyclable
                .compare_exchange_weak(head, new_head, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(b);
            }
        }
    }

    /// Give up ownership of block `b`: it turns idle, or is queued again
    /// if a quarter of it is free. `SeqCst` pairs with [`Arena::free_bits`]
    /// so a bit set while the block was owned is never stranded.
    fn release(&self, b: u32) {
        let block = self.block(b);
        block.state.store(IDLE, Ordering::SeqCst);
        if block.free_count() >= RECYCLE_AT {
            self.queue(b);
        }
    }

    /// Carve `n` never-used ids from the global cursor, exposing their
    /// slots and blocks.
    fn carve(&self, n: u64) -> std::ops::Range<u64> {
        let start = self.next_fresh.fetch_add(n, Ordering::Relaxed);
        self.expose(start + n);
        start..start + n
    }

    /// Make every id below `end`, and its block, accessible.
    fn expose(&self, end: u64) {
        assert!(end <= Self::capacity(), "arena capacity exhausted");
        self.pages.expose(end as usize * size_of::<Slot<T>>());
        self.blocks
            .expose(end.div_ceil(BLOCK) as usize * size_of::<Block>());
    }

    /// Carve the rest of the block the global cursor is in. If that is
    /// a whole block, no one else has seen it: it comes back owned, with
    /// every bit set. Otherwise a [`Run`] carved its head, and the tail
    /// is freed into its bitmap like any free (`None`).
    fn carve_block(&self) -> Option<u32> {
        let mut start = self.next_fresh.load(Ordering::Relaxed);
        let end = loop {
            assert!(start < Self::capacity(), "arena capacity exhausted");
            let end = ((start / BLOCK + 1) * BLOCK).min(Self::capacity());
            match self.next_fresh.compare_exchange_weak(
                start,
                end,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break end,
                Err(now) => start = now,
            }
        };
        self.expose(end);
        let b = start / BLOCK;
        let block = self.block(b as u32);
        if start.is_multiple_of(BLOCK) {
            // The installing CAS on a shard cursor, or the stack push of
            // a lost install, publishes these plain stores.
            block.state.store(HELD, Ordering::Relaxed);
            for (w, word) in block.free.iter().enumerate() {
                word.store(range_mask(b, w, start, end), Ordering::Relaxed);
            }
            return Some(b as u32);
        }
        for w in 0..WORDS {
            let mask = range_mask(b, w, start, end);
            if mask != 0 {
                self.free_bits(b as u32, w, mask);
            }
        }
        None
    }

    /// Take the lowest free slot at or after `shard`'s cursor, moving on
    /// through recyclable and freshly carved blocks as each runs dry.
    fn claim(&self, shard: &Shard) -> NodeId {
        loop {
            let cur = shard.cursor.load(Ordering::Acquire);
            let (b, w) = ((cur >> 32) as u32, (cur & LOW_MASK) as usize);
            if b == NIL {
                let Some(next) = self.pop_block().or_else(|| self.carve_block()) else {
                    continue;
                };
                let installed = shard.cursor.compare_exchange(
                    cur,
                    (next as u64) << 32,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                if installed.is_err() {
                    // Another thread of this shard installed one first.
                    self.release(next);
                }
                continue;
            }
            if w == WORDS {
                // Only the thread that clears the cursor releases `b`.
                if shard
                    .cursor
                    .compare_exchange(cur, NO_BLOCK, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.release(b);
                }
                continue;
            }
            let word = &self.block(b).free[w];
            let mut bits = word.load(Ordering::Relaxed);
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                // `Acquire`: pairs with the free that set the bit.
                bits = word.fetch_and(!bit, Ordering::Acquire);
                if bits & bit != 0 {
                    let id = b as u64 * BLOCK + w as u64 * 64 + bit.trailing_zeros() as u64;
                    return NodeId(id as u32);
                }
            }
            let _ =
                shard
                    .cursor
                    .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed);
        }
    }

    /// Move up to `want - out.len()` free slots of block `b`, which the
    /// caller owns, from its bitmap into `out`, in address order.
    fn take_bits(&self, b: u32, want: usize, out: &mut Vec<NodeId>) {
        for (w, word) in self.block(b).free.iter().enumerate() {
            let mut bits = word.load(Ordering::Relaxed);
            while bits != 0 && out.len() < want {
                let mut take = bits;
                for _ in want - out.len()..take.count_ones() as usize {
                    take &= !(1 << (63 - take.leading_zeros()));
                }
                // Only set bits are taken: a thread of a shard that
                // owned `b` before may still be claiming from it.
                let old = word.fetch_and(!take, Ordering::Acquire);
                let mut got = old & take;
                while got != 0 {
                    let bit = got.trailing_zeros() as u64;
                    out.push(NodeId((b as u64 * BLOCK + w as u64 * 64 + bit) as u32));
                    got &= got - 1;
                }
                bits = old & !take;
            }
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
        let id = match self.pop_free(shard) {
            Some(id) => {
                shard.popped.fetch_add(1, Ordering::Relaxed);
                id
            }
            None => {
                shard.claimed.fetch_add(1, Ordering::Relaxed);
                self.claim(shard)
            }
        };
        self.publish(id, value);
        id
    }

    /// Write `value` into the free slot `id`, which the caller owns (it
    /// is on no cache and in no bitmap), and publish it with count 1.
    #[inline]
    fn publish(&self, id: NodeId, value: T) {
        let slot = self.slot(id);
        let gen = slot.meta.load(Ordering::Acquire) & GEN_MASK;
        // SAFETY: the slot is free and owned by the caller alone, so no
        // other thread reads or writes its value.
        unsafe {
            (*slot.value.get()).write(value);
        }
        // Publish: value write happens-before any Acquire load of the meta.
        slot.meta.store(OCCUPIED | gen | 1, Ordering::Release);
    }

    /// Hand the calling thread's context `n` slots as one [`Run`], and
    /// run `f` with it. The run counts all `n` in the allocation totals
    /// at once; `f` then publishes each slot with [`Run::fill`], a plain
    /// value write and one `Release` store, with no CAS and no counter.
    ///
    /// Recycled slots come first: this shard's cache, taken whole with
    /// one tagged CAS and its unused remainder handed back with one
    /// more, then the free bits of recyclable blocks in address order.
    /// Only what they lack is carved from the global fresh cursor, as
    /// one range. So a fresh arena fills ids `start..start + n` in order,
    /// and a build-heavy steady state reuses what it frees instead of
    /// growing the arena.
    ///
    /// Every slot of the run should be filled. One that is not — `f`
    /// panicked part-way, say — leaks: it stays counted in
    /// [`Arena::live`] and is never handed out again. A filled slot
    /// stays occupied and its value drops with the arena, once; an
    /// unfilled one reads as free, so nothing is dropped twice.
    pub fn run<R>(&self, n: usize, f: impl FnOnce(Run<'_, T>) -> R) -> R {
        let shard = self.shard(self.ctx());
        let mut recycled = Vec::new();
        self.take_chain(shard, n, &mut recycled);
        let cached = recycled.len();
        while recycled.len() < n {
            let Some(b) = self.pop_block() else { break };
            self.take_bits(b, n, &mut recycled);
            self.release(b);
        }
        let fresh = match (n - recycled.len()) as u64 {
            0 => 0..0,
            k => self.carve(k),
        };
        if cached > 0 {
            shard.popped.fetch_add(cached as u64, Ordering::Relaxed);
        }
        if n > cached {
            shard
                .claimed
                .fetch_add((n - cached) as u64, Ordering::Relaxed);
        }
        f(Run {
            arena: self,
            recycled: &recycled,
            fresh: fresh.start as u32..fresh.end as u32,
        })
    }

    /// Move cached slots of `shard` into `out` until it holds `want`.
    /// The whole cache is taken with one tagged CAS and walked
    /// privately; an unused remainder goes back with [`Arena::give_back`].
    fn take_chain(&self, shard: &Shard, want: usize, out: &mut Vec<NodeId>) {
        let mut next = loop {
            let head = shard.free_head.load(Ordering::Acquire);
            let idx = (head & LOW_MASK) as u32;
            if idx == NIL {
                return;
            }
            let empty = (((head >> 32) + 1) << 32) | NIL as u64;
            if shard
                .free_head
                .compare_exchange_weak(head, empty, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break idx;
            }
        };
        // The chain's links were written before the `Release` CASes that
        // pushed them, and every write to the head is such a CAS, so the
        // `Acquire` CAS above makes every link readable; the slots are
        // now this thread's alone.
        while next != NIL && out.len() < want {
            out.push(NodeId(next));
            next = (self.slot(NodeId(next)).meta.load(Ordering::Relaxed) & LOW_MASK) as u32;
        }
        if next != NIL {
            self.give_back(shard, next);
        }
    }

    /// Return a privately held, `NIL`-terminated chain of free slots to
    /// `shard`: one CAS while the cache is still empty, else a walk to
    /// the chain's tail and a splice.
    fn give_back(&self, shard: &Shard, head: u32) {
        loop {
            let old = shard.free_head.load(Ordering::Acquire);
            if old & LOW_MASK != NIL as u64 {
                // The chain is still this thread's alone (`take_chain`).
                let (mut tail, mut meta) =
                    (head, self.slot(NodeId(head)).meta.load(Ordering::Relaxed));
                while meta & LOW_MASK != NIL as u64 {
                    tail = (meta & LOW_MASK) as u32;
                    meta = self.slot(NodeId(tail)).meta.load(Ordering::Relaxed);
                }
                let tail_gen = (meta & GEN_MASK) >> GEN_SHIFT;
                return self.push_free_chain(shard, head, tail, tail_gen);
            }
            let new_head = (((old >> 32) + 1) << 32) | head as u64;
            if shard
                .free_head
                .compare_exchange_weak(old, new_head, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
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
    #[cfg(test)]
    fn is_occupied(&self, id: NodeId) -> bool {
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
    /// chained and spliced onto the shard's cache `FREE_BUF` at a time, so a large precise collection performs `O(S / FREE_BUF)`
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
            // off every cache and bitmap, which is safe; stacked dead
            // tuples still read as occupied and are dropped with the
            // arena). No other thread can observe this store: the slot
            // is on no cache or bitmap and rc has reached zero.
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
                self.free_chain(shard, head, tail, tail_gen, chained);
                (head, chained) = (NIL, 0);
            }
            freed += 1;
        }
        if chained > 0 {
            self.free_chain(shard, head, tail, tail_gen, chained);
        }
        DEAD_STACK.set(dead);
        freed
    }

    /// Free a private chain of `len` slots (see [`Arena::free_dead`]):
    /// onto the shard's cache while it holds fewer than [`CACHE_CAP`],
    /// else each into its block's bitmap.
    fn free_chain(&self, shard: &Shard, head: u32, tail: u32, tail_gen: u64, len: usize) {
        if shard.cached() < CACHE_CAP {
            self.push_free_chain(shard, head, tail, tail_gen);
            shard.pushed.fetch_add(len as u64, Ordering::Relaxed);
            return;
        }
        // The chain is still this thread's alone, `NIL`-terminated; a
        // slot in a bitmap keeps only its generation.
        let mut next = head;
        while next != NIL {
            let slot = self.slot(NodeId(next));
            let meta = slot.meta.load(Ordering::Relaxed);
            slot.meta.store(meta & GEN_MASK, Ordering::Relaxed);
            self.spill(NodeId(next));
            next = (meta & LOW_MASK) as u32;
        }
        shard.spilled.fetch_add(len as u64, Ordering::Relaxed);
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
        slot.meta
            .store((gen << GEN_SHIFT) | NIL as u64, Ordering::Relaxed);
        self.free_chain(shard, id.0, id.0, gen, 1);
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
            .map(|s| s.popped.load(Ordering::Relaxed) + s.claimed.load(Ordering::Relaxed))
            .sum()
    }

    /// Total tuples ever freed by `collect`.
    pub fn freed_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.pushed.load(Ordering::Relaxed) + s.spilled.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of the allocation counters, rolled up across shards.
    pub fn stats(&self) -> ArenaStats {
        let allocated_total = self.allocated_total();
        let freed_total = self.freed_total();
        ArenaStats {
            allocated_total,
            freed_total,
            live: allocated_total.saturating_sub(freed_total),
            carved: self.carved(),
            shards: self.shards.len() as u64,
        }
    }

    /// Ids ever carved from the global fresh cursor.
    fn carved(&self) -> u64 {
        self.next_fresh
            .load(Ordering::Acquire)
            .min(Self::capacity())
    }
}

/// Slots that [`Arena::run`] handed to one owner, filled front to back
/// with [`Run::fill`]: the recycled slots first, then a fresh range.
/// [`Run::split_at`] cuts it into disjoint runs that separate threads
/// may fill in parallel. A run is not `Clone`, so no slot is filled
/// twice.
pub struct Run<'r, T: Tuple> {
    arena: &'r Arena<T>,
    recycled: &'r [NodeId],
    fresh: std::ops::Range<u32>,
}

impl<'r, T: Tuple> Run<'r, T> {
    /// Slots left to fill.
    #[inline]
    pub fn len(&self) -> usize {
        self.recycled.len() + self.fresh.len()
    }

    /// Whether every slot has been filled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split into the first `mid` slots and the rest.
    ///
    /// Panics if `mid > self.len()`.
    pub fn split_at(self, mid: usize) -> (Self, Self) {
        assert!(mid <= self.len(), "run split past its end");
        let Run {
            arena,
            recycled,
            fresh,
        } = self;
        let (head, tail) = recycled.split_at(mid.min(recycled.len()));
        let cut = fresh.start + (mid - head.len()) as u32;
        (
            Run {
                arena,
                recycled: head,
                fresh: fresh.start..cut,
            },
            Run {
                arena,
                recycled: tail,
                fresh: cut..fresh.end,
            },
        )
    }

    /// Publish `value` in the run's next slot with count 1, owned by the
    /// caller exactly as [`Arena::alloc`]'s result is (children inside
    /// `value` transfer in), and return its id.
    ///
    /// Panics if the run is empty.
    #[inline]
    pub fn fill(&mut self, value: T) -> NodeId {
        let id = match self.recycled.split_first() {
            Some((&id, rest)) => {
                self.recycled = rest;
                id
            }
            None => NodeId(self.fresh.next().expect("fill past the end of a run")),
        };
        self.arena.publish(id, value);
        id
    }
}

impl<T: Tuple> Drop for Arena<T> {
    fn drop(&mut self) {
        // Drop any still-occupied values; the reservation unmaps itself.
        // The carved ids bound every id ever handed out (ids beyond the
        // shard cursors inside carved blocks have zeroed metadata).
        for raw in 0..self.carved() as u32 {
            let slot = self.slot(NodeId(raw));
            if slot.meta.load(Ordering::Acquire) & OCCUPIED != 0 {
                // SAFETY: an occupied slot holds an initialized value,
                // and `&mut self` rules out any other user.
                unsafe {
                    std::ptr::drop_in_place((*slot.value.get()).assume_init_mut() as *mut T);
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

    /// The `VmFlags` of the `/proc/self/smaps` mapping containing `addr`.
    fn vm_flags(addr: usize) -> Vec<String> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
        let mut inside = false;
        for line in smaps.lines() {
            let range = line.split_once(' ').and_then(|(r, _)| r.split_once('-'));
            if let Some((Ok(lo), Ok(hi))) =
                range.map(|(lo, hi)| (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16)))
            {
                inside = (lo..hi).contains(&addr);
            } else if let Some(flags) = line.strip_prefix("VmFlags:").filter(|_| inside) {
                return flags.split_whitespace().map(str::to_owned).collect();
            }
        }
        panic!("no mapping contains {addr:#x}");
    }

    /// The `/proc/self/maps` entries overlapping `[lo, hi)`, clipped to
    /// it, in address order: `(start, end, permissions)`.
    fn mappings_within(lo: usize, hi: usize) -> Vec<(usize, usize, String)> {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
        let mut out = Vec::new();
        for line in maps.lines() {
            let mut fields = line.split_whitespace();
            let (range, perms) = (fields.next().unwrap(), fields.next().unwrap());
            let (start, end) = range.split_once('-').unwrap();
            let start = usize::from_str_radix(start, 16).unwrap();
            let end = usize::from_str_radix(end, 16).unwrap();
            if start < hi && end > lo {
                out.push((start.max(lo), end.min(hi), perms.to_owned()));
            }
        }
        out
    }

    /// The reservation's bytes and the bytes of every id carved so far.
    fn reserved_and_handed<T: Tuple>(arena: &Arena<T>) -> (usize, usize) {
        let fresh = arena.next_fresh.load(Ordering::Relaxed) as usize;
        (arena.pages.len(), fresh * size_of::<Slot<T>>())
    }

    #[test]
    fn unhanded_slots_read_free() {
        // Every slot the allocator has not handed out reads as free: the
        // zero fill of the exposed prefix is the free state.
        let arena: Arena<Leaf<u64>> = Arena::with_shards(4);
        let ids: Vec<_> = (0..1_000)
            .map(|i| arena.alloc_in(arena.ctx_for(i), Leaf(i as u64)))
            .collect();
        assert_eq!(arena.pages.base().as_ptr() as usize % pages::HUGE_PAGE, 0);
        let slots = arena.pages.accessible() / size_of::<Slot<Leaf<u64>>>();
        assert!(slots >= BLOCK as usize * arena.shards());
        let handed: std::collections::HashSet<u32> = ids.iter().map(|id| id.index()).collect();
        for i in (0..slots as u32).filter(|i| !handed.contains(i)) {
            assert_eq!(
                arena.slot(NodeId(i)).meta.load(Ordering::Relaxed),
                0,
                "slot {i}"
            );
            assert!(!arena.is_occupied(NodeId(i)));
        }
        assert!(ids.iter().all(|&id| arena.is_occupied(id)));
        // Another slot size, and several arenas at once, so no alignment
        // is left to chance.
        let arenas: Vec<Arena<Leaf<[u64; 2]>>> = (0..4).map(|_| Arena::with_shards(1)).collect();
        for arena in &arenas {
            assert_eq!(arena.pages.base().as_ptr() as usize % pages::HUGE_PAGE, 0);
            let id = arena.alloc(Leaf([1, 2]));
            assert_eq!(arena.get(id).0, [1, 2]);
        }
    }

    #[test]
    fn thp_advice_starts_past_the_first_huge_page() {
        let hg = |addr: usize| vm_flags(addr).contains(&"hg".to_owned());
        // Grow the exposed prefix past its unadvised first huge page.
        let big: Arena<Leaf<u64>> = Arena::with_shards(1);
        while big.pages.accessible() <= pages::HUGE_PAGE {
            big.alloc(Leaf(7));
        }
        let base = big.pages.base().as_ptr() as usize;
        assert!(!hg(base) && !hg(base + pages::HUGE_PAGE - 1));
        assert!(hg(base + pages::HUGE_PAGE), "the exposed, advised prefix");
        assert!(hg(base + big.pages.len() - 1), "the reserved tail");
        // A small arena's tuples all sit in the unadvised head.
        let small: Arena<Leaf<u64>> = Arena::with_shards(1);
        for i in 0..1_000 {
            small.alloc(Leaf(i));
        }
        let (_, handed) = reserved_and_handed(&small);
        assert!(handed <= pages::HUGE_PAGE);
        assert!(!hg(small.pages.base().as_ptr() as usize));
    }

    #[test]
    fn only_the_handed_out_prefix_is_accessible() {
        // From the base: readable and writable memory up to the exposed
        // prefix (whole huge pages, at most twice what was handed out),
        // then inaccessible reservation to its end.
        fn check<T: Tuple>(arena: &Arena<T>) {
            let (len, handed) = reserved_and_handed(arena);
            let base = arena.pages.base().as_ptr() as usize;
            let mut prefix = 0;
            let mut at = base;
            for (lo, hi, perms) in mappings_within(base, base + len) {
                assert_eq!(lo, at, "a hole in the reservation");
                if perms == "rw-p" {
                    assert_eq!(prefix, lo - base, "rw-p after ---p");
                    prefix = hi - base;
                } else {
                    assert_eq!(perms, "---p", "reservation at {lo:#x}");
                }
                at = hi;
            }
            assert_eq!(at, base + len, "the reservation ends early");
            assert_eq!(prefix, arena.pages.accessible());
            assert_eq!(prefix % pages::HUGE_PAGE, 0, "a partial huge page");
            assert!(prefix >= handed, "a handed-out slot is inaccessible");
            let bound = pages::HUGE_PAGE.max((2 * handed).next_multiple_of(pages::HUGE_PAGE));
            assert!(
                prefix <= bound,
                "prefix {prefix} for {handed} handed-out bytes"
            );
        }
        let arena: Arena<Leaf<[u64; 2]>> = Arena::with_shards(2);
        check(&arena);
        assert_eq!(arena.pages.accessible(), 0, "nothing exposed before use");
        for round in 0..4 {
            for i in 0..100_000u64 << round {
                arena.alloc(Leaf([i, round]));
            }
            check(&arena);
        }
    }

    #[test]
    fn many_arenas_coexist() {
        // 48-byte slots reserve about 192 GiB each: 256 arenas take a
        // third of a 47-bit address space and next to no memory.
        let arenas: Vec<Arena<Leaf<[u64; 5]>>> = (0..256).map(|_| Arena::with_shards(1)).collect();
        assert_eq!(size_of::<Slot<Leaf<[u64; 5]>>>(), 48);
        let ids: Vec<_> = arenas
            .iter()
            .enumerate()
            .map(|(i, a)| a.alloc(Leaf([i as u64; 5])))
            .collect();
        for (i, (arena, &id)) in arenas.iter().zip(&ids).enumerate() {
            assert_eq!(arena.get(id).0, [i as u64; 5]);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "past the arena's accessible prefix")]
    fn get_past_the_prefix_panics_in_debug_builds() {
        let arena: Arena<Leaf<u64>> = Arena::with_shards(1);
        arena.alloc(Leaf(1));
        let past = arena.pages.accessible() / size_of::<Slot<Leaf<u64>>>();
        let _ = arena.get(NodeId(past as u32));
    }

    #[test]
    fn arena_drop_drops_each_live_value_once() {
        use std::sync::atomic::AtomicU8;
        struct Probe {
            idx: usize,
            drops: Arc<Vec<AtomicU8>>,
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                self.drops[self.idx].fetch_add(1, Ordering::Relaxed);
            }
        }
        // Reach past the first huge page, through several prefix growths.
        let n = 1024 * ((1 << 7) - 1) + 1_000;
        let drops: Arc<Vec<AtomicU8>> = Arc::new((0..n).map(|_| AtomicU8::new(0)).collect());
        let arena: Arena<Leaf<Probe>> = Arena::with_shards(1);
        let ids: Vec<_> = (0..n)
            .map(|idx| {
                let drops = drops.clone();
                arena.alloc(Leaf(Probe { idx, drops }))
            })
            .collect();
        assert!(ids[n - 1].index() as usize * size_of::<Slot<Leaf<Probe>>>() > pages::HUGE_PAGE);
        for &id in ids.iter().step_by(3) {
            arena.collect(id);
        }
        let dropped = |idx: usize| drops[idx].load(Ordering::Relaxed);
        assert!((0..n).all(|idx| dropped(idx) == u8::from(idx % 3 == 0)));
        drop(arena);
        assert!(
            (0..n).all(|idx| dropped(idx) == 1),
            "each value drops exactly once"
        );
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
        // Spans the prefix's first two growths.
        let n = (2 * pages::HUGE_PAGE / size_of::<Slot<Leaf<u32>>>()) as u32 + 7;
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
        assert_ne!(a.index() / BLOCK as u32, b.index() / BLOCK as u32);
        arena.collect_in(c0, a);
        arena.collect_in(c1, b);
        assert_eq!(arena.live(), 0);
    }

    /// Blocks on the recyclable stack (quiescent arenas only).
    fn queued<T: Tuple>(arena: &Arena<T>) -> u64 {
        let (mut b, mut n) = (
            (arena.recyclable.load(Ordering::Acquire) & LOW_MASK) as u32,
            0,
        );
        while b != NIL {
            n += 1;
            b = arena.block(b).link.load(Ordering::Relaxed);
        }
        n
    }

    /// The module docs' footprint bound, read off a quiescent arena.
    fn footprint_bound<T: Tuple>(arena: &Arena<T>) -> u64 {
        let cached: u64 = arena.shards.iter().map(|s| s.cached()).sum();
        (4 * (arena.live() + cached)).div_ceil(3)
            + (arena.shards() as u64 + queued(arena) + 1) * BLOCK
    }

    /// Allocate `CACHE_CAP + BLOCK` slots on `ctx`, whose cache and
    /// cursor are empty while the global cursor is block-aligned, and
    /// free them there: the last `CACHE_CAP` fill its cache, then the
    /// first block's slots `order` (indices into it) spill, in that
    /// order, into its bitmap. Returns that block's ids.
    fn spill_first_block(
        arena: &Arena<Leaf<u64>>,
        ctx: AllocCtx,
        order: impl IntoIterator<Item = usize>,
    ) -> Vec<NodeId> {
        let n = (CACHE_CAP + BLOCK) as usize;
        let ids: Vec<_> = (0..n)
            .map(|i| arena.alloc_in(ctx, Leaf(i as u64)))
            .collect();
        let first = ids[0].index();
        assert_eq!(first as u64 % BLOCK, 0);
        assert!(ids[..BLOCK as usize]
            .iter()
            .zip(first..)
            .all(|(id, i)| id.index() == i));
        for &id in &ids[BLOCK as usize..] {
            arena.collect_in(ctx, id);
        }
        assert_eq!(arena.shard(ctx).cached(), CACHE_CAP, "a full cache");
        for i in order {
            arena.collect_in(ctx, ids[i]);
        }
        ids[..BLOCK as usize].to_vec()
    }

    #[test]
    fn slots_freed_on_another_shard_come_back_within_the_bound() {
        let arena: Arena<Leaf<u64>> = Arena::with_shards(2);
        let (c0, c1) = (arena.ctx_for(0), arena.ctx_for(1));
        // Shard 1's cache is full, so its frees of a whole block spill
        // into the block's bitmap, and the block is queued.
        let block = spill_first_block(&arena, c1, 0..BLOCK as usize);
        assert_eq!(queued(&arena), 1);
        let a = block[100];
        // Shard 0 has never allocated: its cache and cursor are empty.
        // It gets `a` back before the arena carves a single id.
        let carved = arena.stats().carved;
        let mut drained = Vec::new();
        loop {
            let id = arena.alloc_in(c0, Leaf(0));
            assert_eq!(arena.stats().carved, carved, "carved before reusing {a:?}");
            assert!(arena.stats().carved <= footprint_bound(&arena));
            if id == a {
                break;
            }
            drained.push(id);
            assert!(drained.len() < BLOCK as usize, "never reused {a:?}");
        }
        for id in drained {
            arena.collect_in(c0, id);
        }
        arena.collect_in(c0, a);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn a_recycled_block_is_allocated_in_address_order() {
        let arena: Arena<Leaf<u64>> = Arena::with_shards(2);
        let (c0, c1) = (arena.ctx_for(0), arena.ctx_for(1));
        // Free the block in a scrambled order: a stride coprime to it.
        let order = (0..BLOCK as usize).map(|i| (i * 97 + 13) % BLOCK as usize);
        let block = spill_first_block(&arena, c1, order);
        let carved = arena.stats().carved;
        let ids: Vec<_> = (0..BLOCK).map(|i| arena.alloc_in(c0, Leaf(i))).collect();
        assert_eq!(ids, block, "a recycled block hands out ascending ids");
        assert_eq!(arena.stats().carved, carved);
    }

    #[test]
    fn a_slot_reused_through_a_bitmap_carries_a_bumped_generation() {
        let arena: Arena<Leaf<u64>> = Arena::with_shards(2);
        let (c0, c1) = (arena.ctx_for(0), arena.ctx_for(1));
        let n = (CACHE_CAP + BLOCK) as usize;
        let ids: Vec<_> = (0..n).map(|i| arena.alloc_in(c1, Leaf(i as u64))).collect();
        let gens: Vec<u32> = ids.iter().map(|&id| arena.generation(id)).collect();
        for &id in ids[BLOCK as usize..].iter().chain(&ids[..BLOCK as usize]) {
            arena.collect_in(c1, id);
        }
        for (i, &old) in ids[..BLOCK as usize].iter().enumerate() {
            let id = arena.alloc_in(c0, Leaf(7));
            assert_eq!(id, old, "reused through the bitmap, in order");
            assert_eq!(
                arena.generation(id),
                gens[i] + 1,
                "stale {old:?} stays detectable"
            );
            assert_eq!(arena.get(id).0, 7);
        }
    }

    /// A complete tree of `Pair`s with `depth` levels below the root.
    fn full_tree(arena: &Arena<Pair>, ctx: AllocCtx, depth: u32) -> NodeId {
        if depth == 0 {
            return arena.alloc_in(
                ctx,
                Pair {
                    left: OptNodeId::NONE,
                    right: OptNodeId::NONE,
                    payload: 0,
                },
            );
        }
        let left = OptNodeId::some(full_tree(arena, ctx, depth - 1));
        let right = OptNodeId::some(full_tree(arena, ctx, depth - 1));
        arena.alloc_in(
            ctx,
            Pair {
                left,
                right,
                payload: 0,
            },
        )
    }

    /// Path-copy `root` down to leaf `leaf`, sharing every other subtree.
    fn path_copy(
        arena: &Arena<Pair>,
        ctx: AllocCtx,
        root: NodeId,
        depth: u32,
        leaf: u64,
    ) -> NodeId {
        if depth == 0 {
            return arena.alloc_in(
                ctx,
                Pair {
                    left: OptNodeId::NONE,
                    right: OptNodeId::NONE,
                    payload: leaf,
                },
            );
        }
        let node = arena.get(root);
        let (mut left, mut right) = (node.left.unwrap(), node.right.unwrap());
        if leaf >> (depth - 1) & 1 == 0 {
            arena.inc(right);
            left = path_copy(arena, ctx, left, depth - 1, leaf);
        } else {
            arena.inc(left);
            right = path_copy(arena, ctx, right, depth - 1, leaf);
        }
        let (left, right) = (OptNodeId::some(left), OptNodeId::some(right));
        arena.alloc_in(
            ctx,
            Pair {
                left,
                right,
                payload: leaf,
            },
        )
    }

    #[test]
    fn cross_shard_frees_keep_the_footprint_bounded() {
        // A writer path-copies one leaf per write through shard 0; a
        // reader, as the last releaser of each old version, frees the
        // displaced path into shard 1 — the benchmark's snapshot reads.
        let arena: Arena<Pair> = Arena::with_shards(2);
        let (writer, reader) = (arena.ctx_for(0), arena.ctx_for(1));
        let depth = 12;
        let mut root = full_tree(&arena, writer, depth);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut marks = Vec::new();
        for round in 1..=60_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let next = path_copy(&arena, writer, root, depth, rng % (1 << depth));
            assert_eq!(arena.collect_in(reader, root), depth as usize + 1);
            root = next;
            if round % 1_000 == 0 {
                let carved = arena.stats().carved;
                let bound = footprint_bound(&arena);
                assert!(
                    carved <= bound,
                    "round {round}: carved {carved} > bound {bound}"
                );
                marks.push(carved);
            }
        }
        assert_eq!(arena.live(), (1 << (depth + 1)) - 1);
        assert_eq!(marks[29], marks[59], "carved ids kept rising: {marks:?}");
        arena.collect(root);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn pin_routes_allocations_to_one_shard() {
        let arena: Arena<Leaf<u64>> = Arena::with_shards(4);
        let ctx = arena.ctx_for(3);
        let ids: Vec<_> = arena.with_ctx(ctx, || (0..10).map(|i| arena.alloc(Leaf(i))).collect());
        // All ids come from one fresh block — proof they hit one shard.
        let block = ids[0].index() / BLOCK as u32;
        for id in &ids {
            assert_eq!(id.index() / BLOCK as u32, block);
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

    #[test]
    fn a_run_takes_recycled_slots_before_carving() {
        let arena: Arena<Leaf<u64>> = Arena::with_shards(2);
        let (own, sibling) = (arena.ctx_for(0), arena.ctx_for(1));
        let a: Vec<_> = (0..10).map(|i| arena.alloc_in(own, Leaf(i))).collect();
        // The sibling spills 100 slots of one block, scrambled: the block
        // is queued as recyclable.
        let block = spill_first_block(&arena, sibling, (0..100).map(|i| (i * 37) % 100));
        let spilled = &block[..100];
        for &id in &a[..5] {
            arena.collect_in(own, id);
        }
        let recycled: Vec<NodeId> = a[..5].iter().chain(spilled).copied().collect();
        let before = arena.stats();
        let gens: Vec<u32> = recycled.iter().map(|&id| arena.generation(id)).collect();
        let ids: Vec<NodeId> = arena.with_ctx(own, || {
            arena.run(109, |mut run| {
                assert_eq!(run.len(), 109);
                (0..109).map(|i| run.fill(Leaf(100 + i))).collect()
            })
        });
        let after = arena.stats();
        // Own cache first, then the recyclable block in address order,
        // then one carved range.
        let (cached, rest) = ids.split_at(5);
        let (bits, carved) = rest.split_at(100);
        let mut cached = cached.to_vec();
        cached.sort();
        assert_eq!(cached, a[..5]);
        assert_eq!(bits, spilled);
        let start = before.carved as u32;
        assert_eq!(carved, (start..start + 4).map(NodeId).collect::<Vec<_>>());
        assert_eq!(after.carved, before.carved + 4);
        assert_eq!(after.allocated_total, before.allocated_total + 109);
        assert_eq!(after.live, before.live + 109);
        for (&id, gen) in recycled.iter().zip(gens) {
            assert_eq!(arena.generation(id), gen, "a run keeps the bumped tag");
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(arena.get(id).0, 100 + i as u64);
            assert_eq!(arena.rc(id), 1);
            arena.collect(id);
        }
        assert_eq!(arena.live(), 5 + BLOCK - 100);
    }

    #[test]
    fn a_run_hands_back_the_recycled_slots_it_does_not_use() {
        let arena: Arena<Leaf<u64>> = Arena::with_shards(2);
        let ctx = arena.ctx_for(0);
        let ids: Vec<_> = (0..10).map(|i| arena.alloc_in(ctx, Leaf(i))).collect();
        for &id in &ids {
            arena.collect_in(ctx, id);
        }
        let carved = arena.stats().carved;
        let run: Vec<_> = arena.with_ctx(ctx, || {
            arena.run(3, |mut run| (0..3).map(|i| run.fill(Leaf(i))).collect())
        });
        // The other seven are back on the freelist: recycled, not carved.
        let rest: Vec<_> = (0..7).map(|i| arena.alloc_in(ctx, Leaf(i))).collect();
        let mut reused: Vec<_> = run.iter().chain(&rest).copied().collect();
        reused.sort();
        assert_eq!(reused, ids);
        assert_eq!(arena.stats().carved, carved);
        // A run that finds no recycled slot at all is one fresh range.
        let fresh: Vec<_> = arena.run(5, |run| {
            let (mut head, mut tail) = run.split_at(2);
            let mut out = vec![tail.fill(Leaf(2)), head.fill(Leaf(0)), head.fill(Leaf(1))];
            out.extend([tail.fill(Leaf(3)), tail.fill(Leaf(4))]);
            out
        });
        let c = carved as u32;
        assert_eq!(fresh, [c + 2, c, c + 1, c + 3, c + 4].map(NodeId));
        assert_eq!(arena.stats().carved, carved + 5);
        for id in run.into_iter().chain(rest).chain(fresh) {
            arena.collect(id);
        }
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn a_run_abandoned_by_a_panic_leaks_without_a_double_drop() {
        struct Probe(Arc<std::sync::atomic::AtomicU64>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let arena: Arena<Leaf<Probe>> = Arena::with_shards(1);
        let freed = arena.alloc(Leaf(Probe(drops.clone())));
        arena.collect(freed); // one recycled slot, so the run mixes both kinds
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            arena.run(5, |mut run| {
                run.fill(Leaf(Probe(drops.clone())));
                run.fill(Leaf(Probe(drops.clone())));
                panic!("builder gave up");
            })
        }));
        assert!(unwound.is_err());
        // The whole run stays counted; its two values drop once, with
        // the arena, and its three unfilled slots drop nothing.
        assert_eq!(arena.live(), 5);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        drop(arena);
        assert_eq!(drops.load(Ordering::Relaxed), 3);
    }
}
