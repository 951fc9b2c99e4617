//! Property test: the B+-tree against a `BTreeMap` model.
//!
//! Random interleavings of insert/upsert/delete/get/range, executed both
//! against the paged B+-tree (through real transactions, with evictions
//! forced by a tiny pool and an SSD cache in the loop) and a standard
//! `BTreeMap`. Results must agree exactly, including range-scan order.
//! The bulk-loaded cases start from sorted nodes, whose sorted heads the
//! lookups binary-search, and mix ascending appends (which extend a head),
//! inserts into the middle (which end one) and deletes of loaded keys
//! (whose swap-removes cut one short) with forced evictions and
//! checkpoints, so the head length cached on each page image is both
//! reused and invalidated.

use std::collections::BTreeMap;

use turbopool::core::{SsdConfig, SsdDesign};
use turbopool::engine::{bulk_load_heap, bulk_load_index, Database, DbConfig, HeapId, IndexId};
use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool::iosim::Clk;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u16),
    Delete(u16),
    Get(u16),
    Range(u16, u16),
    Commit,
    Abort,
    /// Read every page of the filler heap, three times each, so that the
    /// LRU-2 pool evicts every index page.
    Evict,
    /// Commit, then checkpoint: the stores share the index pages' images.
    CommitCheckpoint,
}

/// Weighted op draw matching the old proptest strategy (6:2:3:2:1:1).
fn draw_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0u32..15) {
        0..=5 => Op::Insert(rng.gen(), rng.gen()),
        6..=7 => Op::Delete(rng.gen()),
        8..=10 => Op::Get(rng.gen()),
        11..=12 => Op::Range(rng.gen(), rng.gen()),
        13 => Op::Commit,
        _ => Op::Abort,
    }
}

/// Pool frames in every case: splits and evictions go through the cache.
const FRAMES: usize = 8;

fn open_db() -> (Database, Clk) {
    let mut cfg = DbConfig::small_for_tests();
    cfg.pool.db_pages = 4096;
    cfg.pool.frames = FRAMES;
    cfg.ssd = Some(SsdConfig::new(SsdDesign::LazyCleaning, 64));
    (Database::open(cfg), Clk::new())
}

/// Run `ops` against index `idx`, whose committed contents are
/// `committed`, and against the model; then check a fresh transaction and
/// a recovered database see exactly the committed state.
fn run_case(
    db: Database,
    mut clk: Clk,
    idx: IndexId,
    filler: Option<HeapId>,
    mut committed: BTreeMap<u64, u64>,
    ops: Vec<Op>,
) {
    let mut pending = committed.clone();
    let mut txn = db.begin(&mut clk);

    for op in ops {
        match op {
            Op::Insert(k, v) => {
                txn.index_insert(idx, k as u64, v as u64);
                pending.insert(k as u64, v as u64);
            }
            Op::Delete(k) => {
                let got = txn.index_delete(idx, k as u64);
                let want = pending.remove(&(k as u64)).is_some();
                assert_eq!(got, want, "delete {}", k);
            }
            Op::Get(k) => {
                let got = txn.index_get(idx, k as u64);
                assert_eq!(got, pending.get(&(k as u64)).copied(), "get {}", k);
            }
            Op::Range(a, b) => {
                let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
                let got = txn.index_range(idx, lo, hi, 10_000);
                let want: Vec<(u64, u64)> = pending.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want, "range {}..={}", lo, hi);
            }
            Op::Commit | Op::CommitCheckpoint => {
                txn.commit();
                committed = pending.clone();
                if matches!(op, Op::CommitCheckpoint) {
                    db.checkpoint(&mut clk);
                }
                txn = db.begin(&mut clk);
            }
            Op::Abort => {
                txn.abort();
                pending = committed.clone();
                txn = db.begin(&mut clk);
            }
            Op::Evict => {
                let h = filler.expect("an evicting case has a filler heap");
                let meta = db.heap_meta(h);
                for rid in (0..meta.capacity()).step_by(meta.slots_per_page) {
                    for _ in 0..3 {
                        assert!(txn.heap_get(h, rid).is_some(), "filler row {rid}");
                    }
                }
                let root = db.index_meta(idx).root;
                assert!(!db.pool().contains(root), "the index root survived");
            }
        }
    }
    txn.commit();
    let committed = pending;

    // Fresh transaction sees exactly the committed state.
    let mut txn = db.begin(&mut clk);
    let all = txn.index_range(idx, 0, u64::MAX, usize::MAX);
    let want: Vec<(u64, u64)> = committed.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(all, want);
    txn.commit();

    // And so does a recovered database after a crash.
    let (db2, _) = Database::recover(db.crash());
    let mut clk = Clk::new();
    let mut txn = db2.begin(&mut clk);
    let all = txn.index_range(idx, 0, u64::MAX, usize::MAX);
    let want: Vec<(u64, u64)> = committed.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(all, want, "post-recovery divergence");
    txn.commit();
}

#[test]
fn btree_matches_btreemap() {
    for case in 0u64..32 {
        let mut rng = SmallRng::seed_from_u64(0xB7EE ^ case);
        let ops: Vec<Op> = (0..rng.gen_range(1usize..300))
            .map(|_| draw_op(&mut rng))
            .collect();
        let (db, mut clk) = open_db();
        let idx = db.create_index(&mut clk, "t", 3000);
        run_case(db, clk, idx, None, BTreeMap::new(), ops);
    }
}

#[test]
fn bulk_loaded_btree_matches_btreemap() {
    for case in 0u64..16 {
        let mut rng = SmallRng::seed_from_u64(0xB0_1C ^ case);
        let (db, mut clk) = open_db();
        let idx = db.create_index(&mut clk, "t", 3000);
        // Every fourth key of `0..4n`, so inserts land between loaded keys.
        let n: u16 = rng.gen_range(20u16..2000);
        let loaded: BTreeMap<u64, u64> = (0..n).map(|i| (i as u64 * 4, i as u64)).collect();
        let fill = [0.5, 0.7, 1.0][case as usize % 3];
        bulk_load_index(&db, idx, loaded.iter().map(|(&k, &v)| (k, v)), fill);
        let filler = db.create_heap(&mut clk, "filler", 64, 2 * FRAMES as u64);
        bulk_load_heap(&db, filler, db.heap_meta(filler).capacity(), |rid, rec| {
            rec[0] = rid as u8
        });

        let top = 4 * n;
        let mut next = top; // the next ascending append
        let mut keys: Vec<u16> = loaded.keys().map(|&k| k as u16).collect();
        let ops: Vec<Op> = (0..rng.gen_range(100usize..400))
            .map(|_| {
                let any = |rng: &mut SmallRng| rng.gen_range(0..top + 64);
                let loaded_key = |rng: &mut SmallRng| keys[rng.gen_range(0..keys.len())];
                match rng.gen_range(0u32..20) {
                    0..=3 => {
                        next = next.saturating_add(rng.gen_range(1u16..4));
                        keys.push(next);
                        Op::Insert(next, rng.gen())
                    }
                    4..=5 => Op::Insert(loaded_key(&mut rng), rng.gen()),
                    6 => Op::Insert(any(&mut rng), rng.gen()),
                    7..=8 => Op::Delete(loaded_key(&mut rng)),
                    9..=12 => Op::Get(loaded_key(&mut rng)),
                    13 => Op::Get(any(&mut rng)),
                    14..=15 => {
                        let lo = any(&mut rng);
                        Op::Range(lo, lo.saturating_add(rng.gen_range(0u16..64)))
                    }
                    16 => Op::Commit,
                    17 => Op::CommitCheckpoint,
                    18 => Op::Abort,
                    _ => Op::Evict,
                }
            })
            .collect();
        run_case(db, clk, idx, Some(filler), loaded, ops);
    }
}
