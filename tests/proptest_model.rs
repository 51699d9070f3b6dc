//! Property-based tests: the transactional map, the functional tree's
//! bulk algebra, and the batching writer are all checked against
//! `BTreeMap` models over arbitrary operation sequences.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;

use multiversion::core::{
    BatchWriter, Database, Durability, DurableConfig, DurableDatabase, MapOp, WriteTxn,
};
use multiversion::ftree::{Forest, SumU64Map, U64Map};
use multiversion::vm::VmKind;
use multiversion::wal::FaultStorage;

#[derive(Debug, Clone)]
enum DbOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    RangeSum(u64, u64),
    MultiInsert(Vec<(u64, u64)>),
    MultiRemove(Vec<u64>),
}

fn db_op() -> impl Strategy<Value = DbOp> {
    let key = 0u64..64;
    let val = 0u64..1000;
    prop_oneof![
        (key.clone(), val.clone()).prop_map(|(k, v)| DbOp::Insert(k, v)),
        key.clone().prop_map(DbOp::Remove),
        key.clone().prop_map(DbOp::Get),
        (key.clone(), key.clone()).prop_map(|(a, b)| DbOp::RangeSum(a.min(b), a.max(b))),
        prop::collection::vec((key.clone(), val), 0..20).prop_map(DbOp::MultiInsert),
        prop::collection::vec(key, 0..20).prop_map(DbOp::MultiRemove),
    ]
}

/// One step of a write transaction: the point-update path, plus the
/// range and bulk updates whose deltas a durable commit has to work out.
#[derive(Debug, Clone)]
enum Step {
    Put(u64, u64),
    /// The preload holds even keys only, so an odd `k` is usually a miss.
    Del(u64),
    /// `k` and `k ^ 1`: one of the two is always the other's ancestor, so
    /// the second insert revisits nodes the first one just created.
    PutPair(u64, u64),
    /// A run of consecutive keys removed one by one: empties one side of
    /// the tree until it must rotate.
    DelRun(u64, u64),
    DelRange(u64, u64),
    /// `multi_insert` summing into what is there; the keys come from a
    /// handful of values, so batches repeat them.
    PutMany(Vec<(u64, u64)>),
    /// `multi_remove_sorted` (strictly increasing keys).
    DelSorted(Vec<u64>),
}

impl Step {
    /// Run the step on a write view, recording what each `remove` found.
    fn apply(&self, txn: &mut WriteTxn<'_, SumU64Map>, removed: &mut Vec<Option<u64>>) {
        match self {
            Step::Put(k, v) => txn.insert(*k, *v),
            Step::Del(k) => removed.push(txn.remove(k)),
            Step::PutPair(k, v) => {
                txn.insert(*k, *v);
                txn.insert(k ^ 1, *v);
            }
            Step::DelRun(k, n) => removed.extend((*k..k + n).map(|k| txn.remove(&k))),
            Step::DelRange(lo, hi) => txn.remove_range(lo, hi),
            Step::PutMany(batch) => txn.multi_insert(batch.clone(), |old, new| old + new),
            Step::DelSorted(keys) => txn.multi_remove_sorted(keys),
        }
    }

    /// The same step on the model.
    fn apply_model(&self, model: &mut BTreeMap<u64, u64>, removed: &mut Vec<Option<u64>>) {
        match self {
            Step::Put(k, v) => drop(model.insert(*k, *v)),
            Step::Del(k) => removed.push(model.remove(k)),
            Step::PutPair(k, v) => {
                model.insert(*k, *v);
                model.insert(k ^ 1, *v);
            }
            Step::DelRun(k, n) => removed.extend((*k..k + n).map(|k| model.remove(&k))),
            Step::DelRange(lo, hi) => model.retain(|k, _| k < lo || k > hi),
            Step::PutMany(batch) => {
                for (k, v) in batch {
                    *model.entry(*k).or_insert(0) += v;
                }
            }
            Step::DelSorted(keys) => model.retain(|k, _| !keys.contains(k)),
        }
    }
}

fn step() -> impl Strategy<Value = Step> {
    let key = 0u64..192;
    let val = 0u64..1000;
    let few_keys = (0u64..16).prop_map(|k| k * 12);
    prop_oneof![
        (key.clone(), val.clone()).prop_map(|(k, v)| Step::Put(k, v)),
        key.clone().prop_map(Step::Del),
        (key.clone(), val.clone()).prop_map(|(k, v)| Step::PutPair(k, v)),
        (key.clone(), 1u64..12).prop_map(|(k, n)| Step::DelRun(k, n)),
        (key.clone(), 0u64..24).prop_map(|(lo, n)| Step::DelRange(lo, lo + n)),
        prop::collection::vec((few_keys, val), 1..10).prop_map(Step::PutMany),
        prop::collection::vec(key, 0..8).prop_map(|mut keys| {
            keys.sort_unstable();
            keys.dedup();
            Step::DelSorted(keys)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Single- and multi-op write transactions (borrowed descent through
    /// shared nodes, in-place update of the nodes a transaction created
    /// itself, range and bulk updates) while up to K older versions stay
    /// retained: no retained version ever changes, every version is a
    /// well-formed tree, and once everything is released the arena is
    /// empty. The same steps run through a durable session (fsync every
    /// commit, in-memory storage): its contents stay equal, and what
    /// recovery replays from the logged deltas is the model.
    #[test]
    fn point_updates_never_disturb_retained_snapshots(
        txns in prop::collection::vec(
            (prop::collection::vec(step(), 1..6), prop::bool::ANY),
            1..40,
        ),
    ) {
        const K: usize = 4;
        let db: Database<SumU64Map> = Database::new(1);
        let f = db.forest();
        let mut s = db.session().unwrap();
        let storage = Arc::new(FaultStorage::unfaulted());
        let cfg = DurableConfig::default().with_durability(Durability::Always);
        let ddb: DurableDatabase<SumU64Map> =
            DurableDatabase::recover_storage(storage.clone(), 1, cfg.clone()).unwrap();
        let mut ds = ddb.session().unwrap();
        let mut model: BTreeMap<u64, u64> = (0..96u64).map(|k| (2 * k, k)).collect();
        let preload: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        s.write(|txn| txn.multi_insert(preload.clone(), |_o, n| *n));
        ds.write(|txn| txn.multi_insert(preload.clone(), |_o, n| *n)).unwrap();
        let mut retained = VecDeque::new();

        for (steps, keep) in &txns {
            let mut run = |txn: &mut WriteTxn<'_, SumU64Map>| {
                let mut removed = Vec::new();
                steps.iter().for_each(|step| step.apply(txn, &mut removed));
                (txn.root(), removed)
            };
            let (root, removed) = s.write(&mut run);
            let (_, durable_removed) = ds.write(&mut run).unwrap();
            let mut expect_removed = Vec::new();
            steps.iter().for_each(|step| step.apply_model(&mut model, &mut expect_removed));
            prop_assert_eq!(&removed, &expect_removed);
            prop_assert_eq!(&durable_removed, &expect_removed);

            let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(f.check_invariants(root), model.len());
            prop_assert_eq!(&f.to_vec(root), &want);
            prop_assert_eq!(&ds.read(|snap| snap.to_vec()), &want);
            for (old_root, old_model) in &retained {
                f.check_invariants(*old_root);
                prop_assert_eq!(&f.to_vec(*old_root), old_model, "a retained snapshot changed");
            }

            if *keep {
                if retained.len() == K {
                    let (oldest, _) = retained.pop_front().unwrap();
                    f.release(oldest);
                }
                f.retain(root);
                retained.push_back((root, want));
            }
        }

        for (root, _) in retained {
            f.release(root);
        }
        prop_assert_eq!(db.live_versions(), 1);
        prop_assert_eq!(f.arena().live(), model.len() as u64);
        s.write_raw(|f, base| {
            f.release(base);
            (f.empty(), ())
        });
        prop_assert_eq!(f.arena().live(), 0);

        drop(ds);
        drop(ddb);
        let recovered: DurableDatabase<SumU64Map> =
            DurableDatabase::recover_storage(storage, 1, cfg).unwrap();
        let got = recovered.session().unwrap().read(|snap| snap.to_vec());
        prop_assert_eq!(got, model.into_iter().collect::<Vec<_>>());
    }

    /// The transactional database behaves exactly like a sequential
    /// BTreeMap for any op sequence, under every VM algorithm, and ends
    /// with a spotless arena. Writes run through one leased session,
    /// reads through another.
    #[test]
    fn database_matches_btreemap(ops in prop::collection::vec(db_op(), 1..80)) {
        for kind in VmKind::PAPER {
            let db: Database<SumU64Map, _> = Database::with_kind(kind, 2);
            let mut writer = db.session().unwrap();
            let mut reader = db.session().unwrap();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for op in &ops {
                match op {
                    DbOp::Insert(k, v) => {
                        writer.insert(*k, *v);
                        model.insert(*k, *v);
                    }
                    DbOp::Remove(k) => {
                        let got = writer.remove(k);
                        prop_assert_eq!(got, model.remove(k), "{:?}", kind);
                    }
                    DbOp::Get(k) => {
                        prop_assert_eq!(reader.get(k), model.get(k).copied(), "{:?}", kind);
                    }
                    DbOp::RangeSum(lo, hi) => {
                        let got = reader.read(|s| s.aug_range(lo, hi));
                        let want: u64 = model.range(lo..=hi).map(|(_, v)| *v).sum();
                        prop_assert_eq!(got, want, "{:?}", kind);
                    }
                    DbOp::MultiInsert(batch) => {
                        let b = batch.clone();
                        writer.write(|txn| txn.multi_insert(b.clone(), |_o, v| *v));
                        for (k, v) in batch {
                            model.insert(*k, *v);
                        }
                    }
                    DbOp::MultiRemove(keys) => {
                        let ks = keys.clone();
                        writer.write(|txn| txn.multi_remove(ks.clone()));
                        for k in keys {
                            model.remove(k);
                        }
                    }
                }
            }
            let got = reader.read(|s| s.to_vec());
            let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want, "{:?}", kind);
            // Precise algorithms end with exactly the current footprint.
            if kind.is_precise() {
                prop_assert_eq!(db.live_versions(), 1, "{:?}", kind);
                prop_assert_eq!(
                    db.forest().arena().live(),
                    model.len() as u64,
                    "{:?}",
                    kind
                );
            }
        }
    }

    /// Set algebra on the functional tree: union/intersection/difference
    /// agree with the model, inputs stay intact, and nothing leaks.
    #[test]
    fn bulk_set_algebra(
        a in prop::collection::btree_map(0u64..128, 0u64..100, 0..60),
        b in prop::collection::btree_map(0u64..128, 0u64..100, 0..60),
    ) {
        let f: Forest<U64Map> = Forest::new();
        let av: Vec<(u64, u64)> = a.iter().map(|(k, v)| (*k, *v)).collect();
        let bv: Vec<(u64, u64)> = b.iter().map(|(k, v)| (*k, *v)).collect();
        let ta = f.build_sorted(&av);
        let tb = f.build_sorted(&bv);

        // union (b wins)
        f.retain(ta);
        f.retain(tb);
        let tu = f.union(ta, tb);
        let mut mu = a.clone();
        mu.extend(b.iter().map(|(k, v)| (*k, *v)));
        prop_assert_eq!(f.to_vec(tu), mu.into_iter().collect::<Vec<_>>());

        // intersection (sum values)
        f.retain(ta);
        f.retain(tb);
        let ti = f.intersection_with(ta, tb, |x, y| x + y);
        let mi: Vec<(u64, u64)> = a
            .iter()
            .filter_map(|(k, v)| b.get(k).map(|w| (*k, v + w)))
            .collect();
        prop_assert_eq!(f.to_vec(ti), mi);

        // difference
        let td = f.difference(ta, tb);
        let md: Vec<(u64, u64)> = a
            .iter()
            .filter(|(k, _)| !b.contains_key(k))
            .map(|(k, v)| (*k, *v))
            .collect();
        prop_assert_eq!(f.to_vec(td), md);

        f.check_invariants(tu);
        f.check_invariants(ti);
        f.check_invariants(td);
        f.release(tu);
        f.release(ti);
        f.release(td);
        prop_assert_eq!(f.arena().live(), 0);
    }

    /// Split/join2 round-trips: for any tree and pivot,
    /// `join2(split(t, k))` equals `t` minus `k`.
    #[test]
    fn split_join_roundtrip(
        entries in prop::collection::btree_map(0u64..256, 0u64..100, 0..80),
        pivot in 0u64..256,
    ) {
        let f: Forest<U64Map> = Forest::new();
        let v: Vec<(u64, u64)> = entries.iter().map(|(k, v)| (*k, *v)).collect();
        let t = f.build_sorted(&v);
        let (l, m, r) = f.split(t, &pivot);
        prop_assert_eq!(m.map(|(k, _)| k), entries.get(&pivot).map(|_| pivot));
        let joined = f.join2(l, r);
        let want: Vec<(u64, u64)> = entries
            .iter()
            .filter(|(k, _)| **k != pivot)
            .map(|(k, v)| (*k, *v))
            .collect();
        prop_assert_eq!(f.to_vec(joined), want);
        f.check_invariants(joined);
        f.release(joined);
        prop_assert_eq!(f.arena().live(), 0);
    }

    /// The batching writer applies any submission pattern equivalently to
    /// a sequential last-writer-wins replay.
    #[test]
    fn batch_writer_matches_replay(
        batches in prop::collection::vec(
            prop::collection::vec((0u64..32, 0u64..100, prop::bool::ANY), 0..12),
            1..8
        ),
    ) {
        let db: Database<U64Map> = Database::new(1);
        let mut combiner = db.session().unwrap();
        let bw: BatchWriter<U64Map> = BatchWriter::new(1, 256);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for batch in &batches {
            for (k, v, is_insert) in batch {
                if *is_insert {
                    bw.submit(0, MapOp::Insert(*k, *v)).unwrap();
                    model.insert(*k, *v);
                } else {
                    bw.submit(0, MapOp::Remove(*k)).unwrap();
                    model.remove(k);
                }
            }
            bw.combine(&mut combiner);
        }
        let got = combiner.read(|s| s.to_vec());
        prop_assert_eq!(got, model.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(db.live_versions(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Rank/range operations agree with the BTreeMap model: split_rank
    /// partitions by order statistics, range_tree/remove_range use
    /// inclusive bounds, symmetric_difference is the set XOR — and every
    /// path leaves a spotless arena.
    #[test]
    fn range_ops_match_model(
        entries in prop::collection::btree_map(0u64..200, 0u64..100, 0..70),
        i in 0usize..80,
        bounds in (0u64..200, 0u64..200),
        other in prop::collection::btree_map(0u64..200, 0u64..100, 0..70),
    ) {
        let f: Forest<U64Map> = Forest::new();
        let ev: Vec<(u64, u64)> = entries.iter().map(|(k, v)| (*k, *v)).collect();
        let (lo, hi) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));

        // split_rank
        let t = f.build_sorted(&ev);
        let (a, b) = f.split_rank(t, i);
        let cut = i.min(ev.len());
        prop_assert_eq!(f.to_vec(a), ev[..cut].to_vec());
        prop_assert_eq!(f.to_vec(b), ev[cut..].to_vec());
        f.release(a);
        f.release(b);
        prop_assert_eq!(f.arena().live(), 0);

        // range_tree (inclusive)
        let t = f.build_sorted(&ev);
        let sub = f.range_tree(t, &lo, &hi);
        let msub: Vec<(u64, u64)> = entries
            .range(lo..=hi)
            .map(|(k, v)| (*k, *v))
            .collect();
        prop_assert_eq!(f.to_vec(sub), msub);
        f.release(sub);
        prop_assert_eq!(f.arena().live(), 0);

        // remove_range (inclusive)
        let t = f.build_sorted(&ev);
        let t = f.remove_range(t, &lo, &hi);
        let mrem: Vec<(u64, u64)> = entries
            .iter()
            .filter(|(k, _)| **k < lo || **k > hi)
            .map(|(k, v)| (*k, *v))
            .collect();
        prop_assert_eq!(f.to_vec(t), mrem);
        f.check_invariants(t);
        f.release(t);
        prop_assert_eq!(f.arena().live(), 0);

        // symmetric_difference
        let ov: Vec<(u64, u64)> = other.iter().map(|(k, v)| (*k, *v)).collect();
        let ta = f.build_sorted(&ev);
        let tb = f.build_sorted(&ov);
        let ts = f.symmetric_difference(ta, tb);
        let msym: Vec<(u64, u64)> = entries
            .iter()
            .filter(|(k, _)| !other.contains_key(k))
            .map(|(k, v)| (*k, *v))
            .chain(
                other
                    .iter()
                    .filter(|(k, _)| !entries.contains_key(k))
                    .map(|(k, v)| (*k, *v)),
            )
            .collect::<std::collections::BTreeMap<u64, u64>>()
            .into_iter()
            .collect();
        prop_assert_eq!(f.to_vec(ts), msym);
        f.check_invariants(ts);
        f.release(ts);
        prop_assert_eq!(f.arena().live(), 0);
    }
}
