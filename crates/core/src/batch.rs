//! Flat-combining batched writes (Appendix F).
//!
//! Multi-writer workloads can avoid aborts entirely by funnelling updates
//! through a single combining writer: each producer process appends
//! operations to its own bounded buffer; the combiner periodically drains
//! every buffer, assembles one batch, applies it with the *parallel*
//! `multi_insert` / `multi_remove` of `mvcc-ftree`, and commits the whole
//! batch as **one atomic version**. Producers never contend with each
//! other (one queue each) and the single writer never aborts.
//!
//! As the paper notes, batching trades the wait-freedom of individual
//! writes for throughput and atomicity; per-buffer applied watermarks let
//! a producer wait until its operations are visible in a committed
//! version (bounded latency, §7.2 uses 50 ms batches).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use mvcc_ftree::TreeParams;
use mvcc_vm::VersionMaintenance;

use crate::Session;

/// One map update, as submitted by a producer.
#[derive(Clone)]
pub enum MapOp<P: TreeParams> {
    /// Insert or overwrite `key`.
    Insert(P::K, P::V),
    /// Remove `key` (no-op if absent).
    Remove(P::K),
}

impl<P: TreeParams> std::fmt::Debug for MapOp<P>
where
    P::K: std::fmt::Debug,
    P::V: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapOp::Insert(k, v) => f.debug_tuple("Insert").field(k).field(v).finish(),
            MapOp::Remove(k) => f.debug_tuple("Remove").field(k).finish(),
        }
    }
}

impl<P: TreeParams> PartialEq for MapOp<P>
where
    P::K: PartialEq,
    P::V: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (MapOp::Insert(k1, v1), MapOp::Insert(k2, v2)) => k1 == k2 && v1 == v2,
            (MapOp::Remove(k1), MapOp::Remove(k2)) => k1 == k2,
            _ => false,
        }
    }
}

/// Error returned by [`BatchWriter::submit`] when the producer's buffer is
/// full (the combiner is behind); the operation is handed back.
pub struct SubmitError<P: TreeParams>(pub MapOp<P>);

impl<P: TreeParams> std::fmt::Debug for SubmitError<P>
where
    P::K: std::fmt::Debug,
    P::V: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SubmitError").field(&self.0).finish()
    }
}

impl<P: TreeParams> PartialEq for SubmitError<P>
where
    P::K: PartialEq,
    P::V: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

/// A ticket identifying a submitted operation's position in its buffer;
/// pass to [`BatchWriter::is_applied`] / [`BatchWriter::wait_applied`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    producer: usize,
    seq: u64,
}

struct Buffer<P: TreeParams> {
    /// Pending operations, oldest first; never more than the writer's
    /// `capacity`.
    queue: Mutex<VecDeque<MapOp<P>>>,
    /// Total operations ever pushed (producer-side sequence).
    pushed: AtomicU64,
    /// Total operations applied in committed versions (combiner-side).
    applied: AtomicU64,
}

impl<P: TreeParams> Buffer<P> {
    /// The pending queue. No critical section can panic part-way
    /// through a `VecDeque` update, so a poisoned queue is still whole.
    fn queue(&self) -> MutexGuard<'_, VecDeque<MapOp<P>>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The Appendix F combining writer for a [`crate::Database`].
///
/// `producers` independent submitters (indexed `0..producers`, each used
/// by one thread at a time) plus one combiner thread calling
/// [`BatchWriter::combine`] with its own leased [`Session`].
pub struct BatchWriter<P: TreeParams> {
    buffers: Vec<Buffer<P>>,
    capacity: usize,
}

impl<P: TreeParams> BatchWriter<P> {
    /// Create buffers for `producers` producers, each holding up to
    /// `capacity` pending operations.
    pub fn new(producers: usize, capacity: usize) -> Self {
        assert!(producers >= 1 && capacity >= 1);
        BatchWriter {
            buffers: (0..producers)
                .map(|_| Buffer {
                    queue: Mutex::new(VecDeque::with_capacity(capacity)),
                    pushed: AtomicU64::new(0),
                    applied: AtomicU64::new(0),
                })
                .collect(),
            capacity,
        }
    }

    /// Number of producer buffers.
    pub fn producers(&self) -> usize {
        self.buffers.len()
    }

    /// Operations currently waiting in `producer`'s buffer (a racy
    /// snapshot — combiner pacing, not synchronization).
    pub fn pending(&self, producer: usize) -> usize {
        self.buffers[producer].queue().len()
    }

    /// Submit an operation from `producer`. Non-blocking; returns a ticket
    /// to wait on with [`BatchWriter::wait_applied`], or the operation
    /// back if the buffer is full.
    pub fn submit(&self, producer: usize, op: MapOp<P>) -> Result<Ticket, SubmitError<P>> {
        let buf = &self.buffers[producer];
        let mut queue = buf.queue();
        if queue.len() == self.capacity {
            return Err(SubmitError(op));
        }
        queue.push_back(op);
        let seq = buf.pushed.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(Ticket { producer, seq })
    }

    /// Submit, spinning until buffer space frees up (producers outpacing
    /// the combiner block — the latency/throughput trade-off of batching).
    pub fn submit_blocking(&self, producer: usize, mut op: MapOp<P>) -> Ticket {
        loop {
            match self.submit(producer, op) {
                Ok(t) => return t,
                Err(SubmitError(back)) => {
                    op = back;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Has the operation behind `ticket` been applied in a committed
    /// version?
    pub fn is_applied(&self, ticket: Ticket) -> bool {
        self.buffers[ticket.producer]
            .applied
            .load(Ordering::Acquire)
            >= ticket.seq
    }

    /// Spin until [`BatchWriter::is_applied`].
    pub fn wait_applied(&self, ticket: Ticket) {
        while !self.is_applied(ticket) {
            std::thread::yield_now();
        }
    }

    /// Drain phase: take a snapshot of each queue's current contents,
    /// then resolve last-writer-wins per key (respecting each producer's
    /// order and a deterministic producer order). `None` when nothing was
    /// pending.
    fn drain_resolve(&self) -> Option<DrainedBatch<P>> {
        let mut per_producer: Vec<(usize, u64)> = Vec::with_capacity(self.buffers.len());
        let mut resolved: BTreeMap<P::K, Option<P::V>> = BTreeMap::new();
        let mut ops = Vec::new();
        let mut total = 0usize;
        for (i, buf) in self.buffers.iter().enumerate() {
            // One lock, one drain of what it observed: ops submitted
            // after it belong to the next batch (bounded latency).
            ops.extend(buf.queue().drain(..));
            if ops.is_empty() {
                continue;
            }
            total += ops.len();
            per_producer.push((i, ops.len() as u64));
            for op in ops.drain(..) {
                match op {
                    MapOp::Insert(k, v) => resolved.insert(k, Some(v)),
                    MapOp::Remove(k) => resolved.insert(k, None),
                };
            }
        }
        if total == 0 {
            return None;
        }

        let mut inserts: Vec<(P::K, P::V)> = Vec::new();
        let mut removes: Vec<P::K> = Vec::new();
        for (k, v) in resolved {
            match v {
                Some(v) => inserts.push((k, v)),
                None => removes.push(k),
            }
        }
        Some(DrainedBatch {
            per_producer,
            inserts,
            removes,
            total,
        })
    }

    /// Publish applied watermarks: producers can now observe that their
    /// drained operations are applied (visible in a committed version).
    fn publish(&self, per_producer: &[(usize, u64)]) {
        for &(i, n) in per_producer {
            self.buffers[i].applied.fetch_add(n, Ordering::Release);
        }
    }

    /// Drain all buffers and commit the batch as a single write
    /// transaction on the combiner's `session`. Returns the number of
    /// operations applied (0 = nothing pending).
    ///
    /// Intended to be called in a loop by one combiner thread; with a
    /// single combiner the transaction commits on the first attempt
    /// (single-writer, O(P) delay).
    pub fn combine<M: VersionMaintenance>(&self, session: &mut Session<'_, P, M>) -> usize {
        // Pin the combiner to the session's arena shard for the whole
        // batch: every node the parallel bulk build allocates, and every
        // tuple the displaced version's collection frees, goes through a
        // single freelist instead of contending with the producers'
        // shards.
        let forest = session.database().forest();
        let _shard_pin = forest.arena().pin(session.alloc_ctx());
        let Some(batch) = self.drain_resolve() else {
            return 0;
        };

        // Apply phase: one atomic version containing the whole batch,
        // built with the parallel bulk algorithms. The sorted insert tree
        // is built once, outside the retry loop; each attempt retains one
        // reference for `union` to consume, so an abort costs O(1) extra
        // instead of an O(batch) rebuild.
        let ins_tree = forest.build_sorted(&batch.inserts);
        session.write_raw(|f, base| {
            f.retain(ins_tree);
            let t = f.union(base, ins_tree);
            let t = f.multi_remove_sorted(t, &batch.removes);
            (t, ())
        });
        forest.release(ins_tree);

        self.publish(&batch.per_producer);
        batch.total
    }
}

/// The outcome of [`BatchWriter::drain_resolve`]: the per-key-resolved
/// batch plus the per-producer counts to publish after the commit.
struct DrainedBatch<P: TreeParams> {
    per_producer: Vec<(usize, u64)>,
    inserts: Vec<(P::K, P::V)>,
    removes: Vec<P::K>,
    total: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;
    use mvcc_ftree::U64Map;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn combine_applies_batch_atomically() {
        let db: Database<U64Map> = Database::new(1);
        let mut combiner = db.session().unwrap();
        let bw: BatchWriter<U64Map> = BatchWriter::new(2, 64);
        for k in 0..10u64 {
            bw.submit(0, MapOp::Insert(k, k)).unwrap();
        }
        for k in 5..15u64 {
            bw.submit(1, MapOp::Insert(k, k + 100)).unwrap();
        }
        let versions_before = combiner.stats().commits;
        let applied = bw.combine(&mut combiner);
        assert_eq!(applied, 20);
        assert_eq!(
            combiner.stats().commits,
            versions_before + 1,
            "one atomic commit"
        );
        // Producer 1 (drained later) wins the overlap.
        assert_eq!(combiner.get(&7), Some(107));
        assert_eq!(combiner.get(&2), Some(2));
        assert_eq!(combiner.len(), 15);
    }

    #[test]
    fn removes_and_inserts_resolve_last_writer_wins() {
        let db: Database<U64Map> = Database::new(1);
        let mut combiner = db.session().unwrap();
        let bw: BatchWriter<U64Map> = BatchWriter::new(1, 64);
        combiner.insert(1, 1);
        bw.submit(0, MapOp::Insert(2, 2)).unwrap();
        bw.submit(0, MapOp::Remove(2)).unwrap();
        bw.submit(0, MapOp::Remove(1)).unwrap();
        bw.submit(0, MapOp::Insert(1, 11)).unwrap();
        bw.combine(&mut combiner);
        assert_eq!(combiner.get(&2), None, "insert-then-remove nets to remove");
        assert_eq!(
            combiner.get(&1),
            Some(11),
            "remove-then-insert nets to insert"
        );
    }

    #[test]
    fn tickets_track_durability() {
        let db: Database<U64Map> = Database::new(1);
        let mut combiner = db.session().unwrap();
        let bw: BatchWriter<U64Map> = BatchWriter::new(1, 8);
        let t1 = bw.submit(0, MapOp::Insert(1, 1)).unwrap();
        assert!(!bw.is_applied(t1));
        bw.combine(&mut combiner);
        assert!(bw.is_applied(t1));
        let t2 = bw.submit(0, MapOp::Insert(2, 2)).unwrap();
        assert!(!bw.is_applied(t2));
        bw.combine(&mut combiner);
        assert!(bw.is_applied(t2));
        bw.wait_applied(t2);
    }

    #[test]
    fn full_buffer_rejects_then_accepts() {
        let db: Database<U64Map> = Database::new(1);
        let mut combiner = db.session().unwrap();
        let bw: BatchWriter<U64Map> = BatchWriter::new(1, 2);
        bw.submit(0, MapOp::Insert(1, 1)).unwrap();
        bw.submit(0, MapOp::Insert(2, 2)).unwrap();
        let err = bw.submit(0, MapOp::Insert(3, 3));
        assert_eq!(err, Err(SubmitError(MapOp::Insert(3, 3))));
        bw.combine(&mut combiner);
        bw.submit(0, MapOp::Insert(3, 3)).unwrap();
        bw.combine(&mut combiner);
        assert_eq!(combiner.len(), 3);
    }

    /// A VM wrapper whose `set` *pretends* to lose the race for the
    /// first `fail` calls (the inner VM never sees them — legal, since
    /// the per-process pattern is `acquire (set)? release`). This drives
    /// the transaction layer's abort path deterministically.
    struct FlakySet<M> {
        inner: M,
        fail: std::sync::atomic::AtomicU64,
    }

    impl<M: mvcc_vm::VersionMaintenance> mvcc_vm::VersionMaintenance for FlakySet<M> {
        fn processes(&self) -> usize {
            self.inner.processes()
        }
        fn acquire(&self, k: usize) -> u64 {
            self.inner.acquire(k)
        }
        fn set(&self, k: usize, data: u64) -> bool {
            if self
                .fail
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return false; // simulated lost race; inner VM unchanged
            }
            self.inner.set(k, data)
        }
        fn release(&self, k: usize, out: &mut Vec<u64>) {
            self.inner.release(k, out)
        }
        fn current(&self) -> u64 {
            self.inner.current()
        }
        fn uncollected_versions(&self) -> u64 {
            self.inner.uncollected_versions()
        }
    }

    #[test]
    fn combine_reuses_prebuilt_batch_across_retries() {
        // Force `combine`'s commit closure through two aborts: the
        // prebuilt sorted insert tree must survive each attempt (one
        // retain consumed per `union`) and the abort path must collect
        // the speculative version without touching the shared batch.
        use mvcc_ftree::OptNodeId;
        let vm = FlakySet {
            inner: mvcc_vm::PswfVm::new(1, OptNodeId::NONE.raw() as u64),
            fail: std::sync::atomic::AtomicU64::new(2),
        };
        let db: Database<U64Map, _> = Database::with_vm(vm);
        let mut combiner = db.session().unwrap();
        let bw: BatchWriter<U64Map> = BatchWriter::new(1, 64);
        for k in 0..20u64 {
            bw.submit(0, MapOp::Insert(k, k * 10)).unwrap();
        }
        bw.submit(0, MapOp::Remove(0)).unwrap();
        let applied = bw.combine(&mut combiner);
        assert_eq!(applied, 21);
        assert_eq!(
            combiner.stats().aborts,
            2,
            "both simulated set failures retried"
        );
        assert_eq!(combiner.stats().commits, 1, "then exactly one commit");
        // Content correct after the retries...
        assert_eq!(combiner.get(&0), None, "remove applied");
        for k in 1..20u64 {
            assert_eq!(combiner.get(&k), Some(k * 10));
        }
        // ...and no refcount damage: exactly the 19 live entries remain
        // (a missing retain would free shared nodes mid-retry; an extra
        // one would leak them here).
        assert_eq!(db.live_versions(), 1);
        assert_eq!(db.forest().arena().live(), 19);
    }

    #[test]
    fn concurrent_producers_with_combiner_thread() {
        let db: std::sync::Arc<Database<U64Map>> = std::sync::Arc::new(Database::new(2));
        let bw: std::sync::Arc<BatchWriter<U64Map>> = std::sync::Arc::new(BatchWriter::new(3, 256));
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let per_producer = 2_000u64;

        std::thread::scope(|s| {
            for p in 0..3usize {
                let bw = bw.clone();
                s.spawn(move || {
                    for i in 0..per_producer {
                        let key = (p as u64) * per_producer + i;
                        bw.submit_blocking(p, MapOp::Insert(key, key));
                    }
                });
            }
            let combiner_db = db.clone();
            let combiner_bw = bw.clone();
            let combiner_stop = stop.clone();
            s.spawn(move || {
                let mut combiner = combiner_db.session().unwrap();
                let mut applied = 0u64;
                while applied < 3 * per_producer {
                    applied += combiner_bw.combine(&mut combiner) as u64;
                    if combiner_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        });
        stop.store(true, Ordering::Relaxed);
        let mut reader = db.session().unwrap();
        assert_eq!(reader.len(), 3 * per_producer as usize);
        // Every version except the current one was collected.
        assert_eq!(db.live_versions(), 1);
    }
}
