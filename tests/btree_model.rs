//! Property test: the B+-tree against a `BTreeMap` model.
//!
//! Random interleavings of insert/upsert/delete/get/range, executed both
//! against the paged B+-tree (through real transactions, with evictions
//! forced by a tiny pool and an SSD cache in the loop) and a standard
//! `BTreeMap`. Results must agree exactly, including range-scan order.

use std::collections::BTreeMap;

use turbopool::core::{SsdConfig, SsdDesign};
use turbopool::engine::{Database, DbConfig};
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

#[test]
fn btree_matches_btreemap() {
    for case in 0u64..32 {
        let mut rng = SmallRng::seed_from_u64(0xB7EE ^ case);
        let ops: Vec<Op> = (0..rng.gen_range(1usize..300))
            .map(|_| draw_op(&mut rng))
            .collect();
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.db_pages = 4096;
        cfg.pool.frames = 8; // force splits + evictions through the cache
        cfg.ssd = Some(SsdConfig::new(SsdDesign::LazyCleaning, 64));
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let idx = db.create_index(&mut clk, "t", 3000);

        let mut committed: BTreeMap<u64, u64> = BTreeMap::new();
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
                    let want: Vec<(u64, u64)> =
                        pending.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want, "range {}..={}", lo, hi);
                }
                Op::Commit => {
                    txn.commit();
                    committed = pending.clone();
                    txn = db.begin(&mut clk);
                }
                Op::Abort => {
                    txn.abort();
                    pending = committed.clone();
                    txn = db.begin(&mut clk);
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
}
