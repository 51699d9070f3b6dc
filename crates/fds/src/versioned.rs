//! A miniature Figure-1 transaction wrapper for *any* arena-backed
//! functional structure.
//!
//! [`VersionedCell`] pairs one persistent structure (anything that can
//! retain/collect version roots — see [`VersionRoots`]) with one Version
//! Maintenance object and runs the paper's read/write transaction
//! skeletons over whatever version-root convention the caller uses
//! (`OptNodeId`, nil = initial empty version). It is
//! `mvcc-core::Database` stripped of everything tree-specific —
//! demonstrating that the transactional framework depends only on
//! "versions are reference-counted roots", not on the ordered-map
//! structure the experiments happen to use.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use mvcc_plm::{Arena, OptNodeId, Tuple};
use mvcc_vm::{LeaseError, PidPool, PswfVm, VersionMaintenance, VmKind};

/// Error returned by [`CellSession::try_write`]: a concurrent writer
/// committed first; the speculative version has been collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("write transaction aborted: a concurrent set succeeded")
    }
}

impl std::error::Error for Aborted {}

/// A structure whose versions are reference-counted arena roots.
///
/// The two operations are exactly what Figure 1's transaction skeleton
/// needs from the shared state: add an owner to a version root when
/// handing it to user code, and drop an owner (collecting precisely,
/// Algorithm 5) when a `release` returns the version.
pub trait VersionRoots: Send + Sync {
    /// Add one owner to `root` (no-op for the nil root).
    fn retain_root(&self, root: OptNodeId);

    /// Drop one owner of `root`, collecting garbage precisely; returns
    /// the number of tuples freed.
    fn collect_root(&self, root: OptNodeId) -> usize;
}

/// The bare arena is itself a [`VersionRoots`]: a version is any tuple
/// reachable from an owned root id.
impl<T: Tuple> VersionRoots for Arena<T> {
    fn retain_root(&self, root: OptNodeId) {
        self.inc_opt(root);
    }

    fn collect_root(&self, root: OptNodeId) -> usize {
        self.collect_opt(root)
    }
}

#[inline]
fn encode(root: OptNodeId) -> u64 {
    root.raw() as u64
}

#[inline]
fn decode(token: u64) -> OptNodeId {
    debug_assert!(token <= u32::MAX as u64, "corrupt version token");
    OptNodeId::from_raw(token as u32)
}

/// A multiversioned cell: one persistent structure `S` plus one VM
/// instance, giving delay-free snapshot reads and atomic commits.
///
/// `M` picks the VM algorithm (default: the paper's PSWF). Each process
/// id may be used by at most one thread at a time, per the VM problem's
/// contract; a leased [`CellSession`] is the only way to run a
/// transaction, so the contract cannot be broken by passing a pid:
///
/// ```compile_fail,E0599
/// use mvcc_fds::{Stack, VersionedCell};
/// let cell = VersionedCell::new(Stack::<u64>::new(), 1);
/// // Lease first: cell.session()?.read(..)
/// cell.read(0, |stack, root| stack.peek(root).copied());
/// ```
pub struct VersionedCell<S: VersionRoots, M: VersionMaintenance = PswfVm> {
    structure: S,
    vmo: M,
    pids: PidPool,
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl<S: VersionRoots> VersionedCell<S, PswfVm> {
    /// Wrap `structure` (initial version = nil root) using PSWF for
    /// `processes` processes.
    pub fn new(structure: S, processes: usize) -> Self {
        Self::with_vm(structure, PswfVm::new(processes, encode(OptNodeId::NONE)))
    }
}

impl<S: VersionRoots> VersionedCell<S, Box<dyn VersionMaintenance>> {
    /// Wrap `structure` using the given VM algorithm family.
    pub fn with_kind(structure: S, kind: VmKind, processes: usize) -> Self {
        Self::with_vm(structure, kind.build(processes, encode(OptNodeId::NONE)))
    }
}

impl<S: VersionRoots, M: VersionMaintenance> VersionedCell<S, M> {
    /// Wrap an explicit VM instance whose initial version must carry the
    /// nil-root token.
    pub fn with_vm(structure: S, vmo: M) -> Self {
        assert_eq!(
            vmo.current(),
            encode(OptNodeId::NONE),
            "VM's initial version must be the nil root"
        );
        VersionedCell {
            structure,
            pids: PidPool::new(vmo.processes()),
            vmo,
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    /// Lease a free process id as a [`CellSession`].
    /// `Err(Exhausted)` when every pid is held.
    pub fn session(&self) -> Result<CellSession<'_, S, M>, LeaseError> {
        Ok(CellSession::new(self, self.pids.lease()?))
    }

    /// Lease the specific process id `pid`. `Err(PidLeased)` if held.
    pub fn session_for(&self, pid: usize) -> Result<CellSession<'_, S, M>, LeaseError> {
        self.pids.lease_exact(pid)?;
        Ok(CellSession::new(self, pid))
    }

    /// The wrapped structure (all of its non-transactional API).
    pub fn structure(&self) -> &S {
        &self.structure
    }

    /// The underlying Version Maintenance object (diagnostics).
    pub fn vm(&self) -> &M {
        &self.vmo
    }

    /// Number of process ids.
    pub fn processes(&self) -> usize {
        self.vmo.processes()
    }

    /// Committed write transactions so far.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Aborted `set` attempts so far.
    pub fn aborts(&self) -> u64 {
        self.aborts.load(Ordering::Relaxed)
    }

    /// Versions not yet collected.
    pub fn live_versions(&self) -> u64 {
        self.vmo.uncollected_versions()
    }

    fn collect_released(&self, released: &mut Vec<u64>) {
        for tok in released.drain(..) {
            self.structure.collect_root(decode(tok));
        }
    }

    /// The read-transaction core (Figure 1, left): acquire, run `f` on
    /// the immutable snapshot root, then release and precisely collect
    /// through the caller's reusable buffer.
    fn read_core<R>(
        &self,
        pid: usize,
        released: &mut Vec<u64>,
        f: impl FnOnce(&S, OptNodeId) -> R,
    ) -> R {
        let root = decode(self.vmo.acquire(pid));
        let result = f(&self.structure, root);
        // ---- response delivered; cleanup phase ----
        self.vmo.release(pid, released);
        self.collect_released(released);
        result
    }

    /// One write attempt (Figure 1, right) through the caller's buffer.
    fn try_write_core<R>(
        &self,
        pid: usize,
        released: &mut Vec<u64>,
        f: &mut impl FnMut(&S, OptNodeId) -> (OptNodeId, R),
    ) -> Option<R> {
        let base = decode(self.vmo.acquire(pid));
        // Hand the user code an owned reference; the version system keeps
        // its own until release.
        self.structure.retain_root(base);
        let (new_root, result) = f(&self.structure, base);
        let ok = self.vmo.set(pid, encode(new_root));
        // ---- response (if ok) delivered; cleanup phase ----
        self.vmo.release(pid, released);
        self.collect_released(released);
        if ok {
            self.commits.fetch_add(1, Ordering::Relaxed);
            Some(result)
        } else {
            // Figure 1 line 7: collect the speculative version.
            self.structure.collect_root(new_root);
            self.aborts.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// An exclusive lease on one process id of a [`VersionedCell`] — the
/// structure-agnostic sibling of `mvcc-core`'s `Session`. `Send` but
/// `!Sync`; transaction methods take `&mut self`, so the VM contract
/// ("one thread, one outstanding transaction per pid") is enforced by
/// the borrow checker. The pid returns to the pool on drop.
pub struct CellSession<'c, S: VersionRoots, M: VersionMaintenance = PswfVm> {
    cell: &'c VersionedCell<S, M>,
    pid: usize,
    /// Reused across transactions: `release` appends, `collect` drains.
    released: Vec<u64>,
    _not_sync: PhantomData<Cell<()>>,
}

impl<'c, S: VersionRoots, M: VersionMaintenance> CellSession<'c, S, M> {
    fn new(cell: &'c VersionedCell<S, M>, pid: usize) -> Self {
        CellSession {
            cell,
            pid,
            released: Vec::new(),
            _not_sync: PhantomData,
        }
    }

    /// The leased process id.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// The cell this session leases from.
    pub fn cell(&self) -> &'c VersionedCell<S, M> {
        self.cell
    }

    /// Run a **read-only transaction** (Figure 1, left).
    pub fn read<R>(&mut self, f: impl FnOnce(&S, OptNodeId) -> R) -> R {
        self.cell.read_core(self.pid, &mut self.released, f)
    }

    /// Run a **write transaction** (Figure 1, right), retrying on abort.
    ///
    /// `f` receives the structure and an *owned* reference to the
    /// snapshot root and must return the new version's owned root (built
    /// by consuming operations / path copying). `f` may run multiple
    /// times; it must have no side effects beyond arena allocation.
    pub fn write<R>(&mut self, mut f: impl FnMut(&S, OptNodeId) -> (OptNodeId, R)) -> R {
        loop {
            match self
                .cell
                .try_write_core(self.pid, &mut self.released, &mut f)
            {
                Some(r) => return r,
                None => continue,
            }
        }
    }

    /// One write attempt; `Err(Aborted)` means a concurrent writer
    /// committed first and the speculative version has been collected.
    pub fn try_write<R>(
        &mut self,
        mut f: impl FnMut(&S, OptNodeId) -> (OptNodeId, R),
    ) -> Result<R, Aborted> {
        self.cell
            .try_write_core(self.pid, &mut self.released, &mut f)
            .ok_or(Aborted)
    }
}

impl<S: VersionRoots, M: VersionMaintenance> Drop for CellSession<'_, S, M> {
    fn drop(&mut self) {
        self.cell.pids.release(self.pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_plm::Leaf;
    use std::sync::Arc;

    /// A versioned counter: each version is one `Leaf<u64>` tuple, the
    /// arena itself acting as the [`VersionRoots`] structure.
    fn bump(session: &mut CellSession<'_, Arena<Leaf<u64>>>) -> u64 {
        session.write(|arena, base| {
            let old = base.get().map_or(0, |id| arena.get(id).0);
            let fresh = OptNodeId::some(arena.alloc(Leaf(old + 1)));
            // Drop the owned base reference: the new version doesn't
            // point at it.
            arena.collect_opt(base);
            (fresh, old + 1)
        })
    }

    #[test]
    fn counter_sequential() {
        let cell = VersionedCell::new(Arena::<Leaf<u64>>::new(), 2);
        let mut w = cell.session().unwrap();
        let mut r = cell.session().unwrap();
        for i in 1..=100 {
            assert_eq!(bump(&mut w), i);
        }
        let v = r.read(|arena, root| arena.get(root.unwrap()).0);
        assert_eq!(v, 100);
        assert_eq!(cell.commits(), 100);
        // Only the current version is live.
        assert_eq!(cell.structure().live(), 1);
    }

    #[test]
    fn read_sees_snapshot_not_later_writes() {
        let cell = Arc::new(VersionedCell::new(Arena::<Leaf<u64>>::new(), 2));
        let mut w = cell.session().unwrap();
        let mut r = cell.session().unwrap();
        bump(&mut w);
        let observed = r.read(|arena, root| {
            let before = arena.get(root.unwrap()).0;
            // A write committed *during* the read must not be visible.
            bump(&mut w);
            let after = arena.get(root.unwrap()).0;
            (before, after)
        });
        assert_eq!(observed, (1, 1));
        assert_eq!(r.read(|a, root| a.get(root.unwrap()).0), 2);
    }

    #[test]
    fn session_pool_enforces_the_pid_contract() {
        let cell = VersionedCell::new(Arena::<Leaf<u64>>::new(), 2);
        let s0 = cell.session_for(0).unwrap();
        assert!(matches!(
            cell.session_for(0),
            Err(LeaseError::PidLeased { pid: 0 })
        ));
        let _s1 = cell.session().unwrap();
        assert!(matches!(cell.session(), Err(LeaseError::Exhausted { .. })));
        drop(s0);
        assert_eq!(cell.session().unwrap().pid(), 0, "dropped pid reusable");
    }

    #[test]
    fn concurrent_counter_all_increments_survive() {
        const THREADS: usize = 4;
        const PER: u64 = 200;
        let cell = Arc::new(VersionedCell::new(Arena::<Leaf<u64>>::new(), THREADS));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    let mut session = cell.session().unwrap();
                    for _ in 0..PER {
                        bump(&mut session);
                    }
                });
            }
        });
        let v = cell
            .session()
            .unwrap()
            .read(|arena, root| arena.get(root.unwrap()).0);
        assert_eq!(v, THREADS as u64 * PER);
        assert_eq!(cell.commits(), THREADS as u64 * PER);
        assert_eq!(
            cell.structure().live(),
            1,
            "precise GC: only current version"
        );
    }

    #[test]
    fn works_with_every_vm_kind() {
        for kind in VmKind::PAPER {
            let cell = VersionedCell::with_kind(Arena::<Leaf<u64>>::new(), kind, 3);
            let mut w = cell.session().unwrap();
            let mut r = cell.session().unwrap();
            for _ in 0..10 {
                w.write(|arena, base| {
                    let old = base.get().map_or(0, |id| arena.get(id).0);
                    let fresh = OptNodeId::some(arena.alloc(Leaf(old + 1)));
                    arena.collect_opt(base);
                    (fresh, ())
                });
            }
            let v = r.read(|arena, root| arena.get(root.unwrap()).0);
            assert_eq!(v, 10, "kind {:?}", kind);
        }
    }
}
