//! # mvcc-index — a weighted inverted index on the transactional framework
//!
//! The paper's §7.2 application: map each *term* to a *posting list* of
//! `(document, weight)` pairs, support adding/removing whole documents
//! **atomically** (one write transaction per batch of documents — queries
//! never observe a partially indexed document), and run concurrent
//! "and"-queries that intersect two posting lists and return the top-k
//! documents by combined weight — all on snapshots, so queries never block
//! the writer and vice versa.
//!
//! The outer term tree is an `mvcc-ftree` map augmented with the maximum
//! posting weight in each subtree (the paper's augmentation). Posting
//! lists are immutable sorted arrays behind `Arc` — per DESIGN.md this
//! substitutes for PAM's nested inner trees: merging on union gives the
//! same atomic-visibility semantics with coarser sharing, and mirrors how
//! production indexes store postings.
//!
//! ## Parallelism
//!
//! Both the bulk entry points ([`IndexSession::add_documents`] /
//! [`IndexSession::remove_documents`], which bottom out in `mvcc-ftree`'s
//! `multi_insert`/`filter`) and the query-side [`intersect`] fork onto
//! the work-stealing pool behind `rayon::join` above a sequential cutoff.
//! The ingestion paths run inside the session's pinned allocation
//! context; subtasks stolen by other pool threads re-pin to their own
//! arena shard (`mvcc-ftree`'s per-task contexts), so a large batch
//! spreads across the sharded allocator instead of serializing on the
//! session's freelist. `MVCC_POOL_THREADS=1` forces everything
//! sequential (see the `rayon` shim docs).

use std::sync::Arc;

use mvcc_core::{Database, Session, SessionError};
use mvcc_ftree::TreeParams;
use mvcc_vm::{PswfVm, VersionMaintenance};

/// One posting: `(document id, weight)`.
pub type Posting = (u64, u64);

/// An immutable, doc-sorted posting list with its maximum weight cached
/// (the augmentation the outer tree folds).
#[derive(Debug, Clone)]
pub struct PostingList {
    postings: Arc<[Posting]>,
    max_weight: u64,
}

impl PostingList {
    /// Build from postings sorted by document id (asserted in debug).
    pub fn from_sorted(postings: Vec<Posting>) -> Self {
        debug_assert!(postings.windows(2).all(|w| w[0].0 < w[1].0));
        let max_weight = postings.iter().map(|p| p.1).max().unwrap_or(0);
        PostingList {
            postings: postings.into(),
            max_weight,
        }
    }

    /// The postings, sorted by document id.
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// Number of documents containing the term.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Largest weight in the list.
    pub fn max_weight(&self) -> u64 {
        self.max_weight
    }

    /// Merge two sorted lists; on duplicate documents `other` wins
    /// (newer index generation).
    pub fn merge(&self, other: &PostingList) -> PostingList {
        let (a, b) = (self.postings(), other.postings());
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(b[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        PostingList::from_sorted(out)
    }

    /// Remove all postings for the given sorted document ids.
    pub fn without_docs(&self, docs: &[u64]) -> PostingList {
        let filtered: Vec<Posting> = self
            .postings
            .iter()
            .filter(|(d, _)| docs.binary_search(d).is_err())
            .copied()
            .collect();
        PostingList::from_sorted(filtered)
    }
}

/// Sequential cutoff for the parallel intersection.
const INTERSECT_CUTOFF: usize = 4096;

/// Intersect two doc-sorted posting lists, summing weights — the paper's
/// parallel intersection (divide-and-conquer on the larger list, binary
/// search in the smaller).
pub fn intersect(a: &[Posting], b: &[Posting]) -> Vec<(u64, u64)> {
    if a.len() > b.len() {
        return intersect(b, a);
    }
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    if a.len() + b.len() <= INTERSECT_CUTOFF {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        return out;
    }
    // Split the larger list, partition the smaller by binary search.
    let mid = b.len() / 2;
    let pivot = b[mid].0;
    let split = a.partition_point(|p| p.0 < pivot);
    let (left, right) = rayon::join(
        || intersect(&a[..split], &b[..mid]),
        || intersect(&a[split..], &b[mid..]),
    );
    let mut out = left;
    out.extend(right);
    out
}

/// Tree parameters of the term map: term id → posting list, augmented with
/// the subtree's maximum posting weight.
pub struct IndexParams;

impl TreeParams for IndexParams {
    type K = u64;
    type V = PostingList;
    type Aug = u64;

    fn aug_id() -> u64 {
        0
    }
    fn make_aug(_term: &u64, pl: &PostingList) -> u64 {
        pl.max_weight()
    }
    fn combine(a: &u64, b: &u64) -> u64 {
        (*a).max(*b)
    }
}

/// A searchable, transactionally-updated inverted index.
pub struct InvertedIndex<M: VersionMaintenance = PswfVm> {
    db: Database<IndexParams, M>,
}

impl InvertedIndex<PswfVm> {
    /// Empty index for `processes` process ids (PSWF version maintenance).
    pub fn new(processes: usize) -> Self {
        InvertedIndex {
            db: Database::new(processes),
        }
    }
}

impl<M: VersionMaintenance> InvertedIndex<M> {
    /// The underlying database (stats, advanced use).
    pub fn database(&self) -> &Database<IndexParams, M> {
        &self.db
    }

    /// Lease a free process id as an [`IndexSession`] — the handle all
    /// ingestion and querying runs through.
    pub fn session(&self) -> Result<IndexSession<'_, M>, SessionError> {
        Ok(IndexSession {
            inner: self.db.session()?,
        })
    }

    /// Lease the specific process id `pid`.
    pub fn session_for(&self, pid: usize) -> Result<IndexSession<'_, M>, SessionError> {
        Ok(IndexSession {
            inner: self.db.session_for(pid)?,
        })
    }
}

/// An exclusive process-id lease on an [`InvertedIndex`]: one writer or
/// query thread's handle. `Send + !Sync`, like the underlying
/// [`Session`].
pub struct IndexSession<'idx, M: VersionMaintenance = PswfVm> {
    inner: Session<'idx, IndexParams, M>,
}

impl<'idx, M: VersionMaintenance> IndexSession<'idx, M> {
    /// The leased process id.
    pub fn pid(&self) -> usize {
        self.inner.pid()
    }

    /// Add a batch of documents in **one atomic write transaction**.
    /// Each document is `(doc_id, [(term, weight), ...])`. Queries see
    /// either none or all of the batch.
    pub fn add_documents(&mut self, docs: &[(u64, Vec<(u64, u64)>)]) {
        // Build term -> postings for the batch (T' of §7.2).
        let mut by_term: std::collections::BTreeMap<u64, Vec<Posting>> =
            std::collections::BTreeMap::new();
        for (doc, terms) in docs {
            for (term, weight) in terms {
                by_term.entry(*term).or_default().push((*doc, *weight));
            }
        }
        let batch: Vec<(u64, PostingList)> = by_term
            .into_iter()
            .map(|(term, mut postings)| {
                postings.sort_unstable_by_key(|p| p.0);
                postings.dedup_by_key(|p| p.0);
                (term, PostingList::from_sorted(postings))
            })
            .collect();
        // union-with-merge: duplicate terms combine their posting lists
        // (the paper's union "whenever duplicate keys appear, we take a
        // union on their values").
        self.inner
            .write(|txn| txn.multi_insert(batch.clone(), |old, new| old.merge(new)));
    }

    /// Remove a set of documents atomically (posting lists are rewritten;
    /// terms left empty are dropped from the index).
    pub fn remove_documents(&mut self, docs: &[u64]) {
        let mut sorted: Vec<u64> = docs.to_vec();
        sorted.sort_unstable();
        self.inner.write_raw(|f, base| {
            let filtered = f.filter(base, |_term, pl| {
                // Keep terms that still have postings after removal...
                pl.postings()
                    .iter()
                    .any(|(d, _)| sorted.binary_search(d).is_err())
            });
            // ...and rewrite the lists that referenced removed docs.
            let mut rewrites: Vec<(u64, PostingList)> = Vec::new();
            f.for_each(filtered, &mut |term, pl| {
                if pl
                    .postings()
                    .iter()
                    .any(|(d, _)| sorted.binary_search(d).is_ok())
                {
                    rewrites.push((*term, pl.without_docs(&sorted)));
                }
            });
            let t = f.multi_insert(filtered, rewrites, |_old, new| new.clone());
            (t, ())
        });
    }

    /// Number of indexed terms.
    pub fn term_count(&mut self) -> usize {
        self.inner.read(|s| s.len())
    }

    /// The largest posting weight anywhere in `term_lo..=term_hi`
    /// (O(log n) via the augmentation).
    pub fn max_weight_in_range(&mut self, term_lo: u64, term_hi: u64) -> u64 {
        self.inner.read(|s| s.aug_range(&term_lo, &term_hi))
    }

    /// "and"-query (§7.2): top-`k` documents containing both terms, ranked
    /// by combined weight. Runs as one read transaction on a snapshot —
    /// the two posting lists are consistent with each other by
    /// construction.
    pub fn and_query(&mut self, term_a: u64, term_b: u64, k: usize) -> Vec<(u64, u64)> {
        self.inner.read(|s| {
            let (Some(pa), Some(pb)) = (s.get(&term_a), s.get(&term_b)) else {
                return Vec::new();
            };
            let mut hits = intersect(pa.postings(), pb.postings());
            hits.sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
            hits.truncate(k);
            hits
        })
    }

    /// Posting-list length of a term (0 if absent).
    pub fn doc_frequency(&mut self, term: u64) -> usize {
        self.inner.read(|s| s.get(&term).map_or(0, |pl| pl.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u64, terms: &[(u64, u64)]) -> (u64, Vec<(u64, u64)>) {
        (id, terms.to_vec())
    }

    #[test]
    fn add_and_query() {
        let idx = InvertedIndex::new(2);
        let mut writer = idx.session().unwrap();
        let mut reader = idx.session().unwrap();
        writer.add_documents(&[
            doc(1, &[(10, 5), (20, 3)]),
            doc(2, &[(10, 7), (30, 1)]),
            doc(3, &[(10, 2), (20, 9)]),
        ]);
        assert_eq!(reader.term_count(), 3);
        assert_eq!(reader.doc_frequency(10), 3);
        // Docs containing both 10 and 20: 1 (5+3=8) and 3 (2+9=11).
        assert_eq!(reader.and_query(10, 20, 10), vec![(3, 11), (1, 8)]);
        assert_eq!(reader.and_query(10, 20, 1), vec![(3, 11)]);
        assert_eq!(reader.and_query(20, 30, 10), vec![]);
        assert_eq!(reader.and_query(99, 10, 10), vec![]);
    }

    #[test]
    fn incremental_batches_merge_posting_lists() {
        let idx = InvertedIndex::new(1);
        let mut s = idx.session().unwrap();
        s.add_documents(&[doc(1, &[(7, 1)])]);
        s.add_documents(&[doc(2, &[(7, 2)])]);
        s.add_documents(&[doc(3, &[(7, 3)])]);
        assert_eq!(s.doc_frequency(7), 3);
        assert_eq!(s.and_query(7, 7, 10).len(), 3);
        assert_eq!(s.max_weight_in_range(0, 100), 3);
    }

    #[test]
    fn batch_is_atomic_under_concurrent_queries() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let idx = std::sync::Arc::new(InvertedIndex::new(3));
        let mut writer = idx.session().unwrap();
        // Every doc contains both terms 1 and 2 and arrives in a batch of
        // 20, so one snapshot's intersection is always a whole number of
        // batches (atomicity witness).
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let idx = idx.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut q = idx.session().unwrap();
                    while !stop.load(Ordering::Relaxed) {
                        // Two read transactions, so a batch may commit
                        // between them: `hits` first, because the
                        // posting list only grows.
                        let hits = q.and_query(1, 2, usize::MAX);
                        let df1 = q.doc_frequency(1);
                        assert!(
                            hits.len().is_multiple_of(20) && hits.len() <= df1,
                            "query saw a partially-applied batch"
                        );
                    }
                });
            }
            for batch in 0..30u64 {
                let docs: Vec<_> = (0..20)
                    .map(|i| doc(batch * 20 + i, &[(1, i + 1), (2, i + 1)]))
                    .collect();
                writer.add_documents(&docs);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(writer.doc_frequency(1), 600);
        assert_eq!(writer.and_query(1, 2, usize::MAX).len(), 600);
        assert_eq!(idx.database().live_versions(), 1);
    }

    #[test]
    fn remove_documents_rewrites_lists() {
        let idx = InvertedIndex::new(1);
        let mut s = idx.session().unwrap();
        s.add_documents(&[
            doc(1, &[(5, 1), (6, 1)]),
            doc(2, &[(5, 2)]),
            doc(3, &[(6, 3)]),
        ]);
        s.remove_documents(&[1]);
        assert_eq!(s.doc_frequency(5), 1); // doc 2 remains
        assert_eq!(s.doc_frequency(6), 1); // doc 3 remains
        s.remove_documents(&[2, 3]);
        assert_eq!(s.term_count(), 0, "empty terms dropped");
    }

    #[test]
    fn intersect_parallel_matches_sequential() {
        let a: Vec<Posting> = (0..20_000u64).map(|d| (d * 2, d % 100)).collect();
        let b: Vec<Posting> = (0..20_000u64).map(|d| (d * 3, d % 50)).collect();
        let got = intersect(&a, &b);
        // Sequential reference.
        let bm: std::collections::HashMap<u64, u64> = b.iter().copied().collect();
        let want: Vec<(u64, u64)> = a
            .iter()
            .filter_map(|(d, w)| bm.get(d).map(|w2| (*d, w + w2)))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn posting_list_merge_and_remove() {
        let a = PostingList::from_sorted(vec![(1, 5), (3, 2), (5, 9)]);
        let b = PostingList::from_sorted(vec![(2, 1), (3, 7)]);
        let m = a.merge(&b);
        assert_eq!(m.postings(), &[(1, 5), (2, 1), (3, 7), (5, 9)]);
        assert_eq!(m.max_weight(), 9);
        let r = m.without_docs(&[3, 5]);
        assert_eq!(r.postings(), &[(1, 5), (2, 1)]);
        assert_eq!(r.max_weight(), 5);
    }
}
