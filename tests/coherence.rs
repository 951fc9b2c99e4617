//! The Figure 3 invariant, checked live against a running system.
//!
//! After every batch of transactions we sample pages and compare the
//! physical bytes of the three possible copies (buffer pool, SSD frame,
//! disk). Exactly the six relationships of Figure 3 may occur; under the
//! write-through designs (CW, DW, TAC) the SSD copy must additionally
//! equal the disk copy (cases 4 and 6 are LC-only).

use turbopool::core::{SsdConfig, SsdDesign};
use turbopool::engine::{Database, DbConfig};
use turbopool::iosim::rng::SmallRng;
use turbopool::iosim::rng::{Rng, SeedableRng};
use turbopool::iosim::{Clk, PageId};

fn build(design: SsdDesign) -> Database {
    let mut cfg = DbConfig::small_for_tests();
    cfg.pool.db_pages = 1024;
    cfg.pool.frames = 16;
    let mut s = SsdConfig::new(design, 64);
    s.partitions = 2;
    s.lambda = 0.6;
    cfg.ssd = Some(s);
    Database::open(cfg)
}

/// Read the three copies of `pid` (memory / SSD / disk) as byte vectors.
fn copies(db: &Database, pid: PageId) -> (Option<Vec<u8>>, Option<Vec<u8>>, Vec<u8>) {
    let ps = db.page_size();
    let mut disk = vec![0u8; ps];
    db.io().disk_store().read(pid, &mut disk);

    let ssd = match (db.ssd_manager(), db.tac_cache()) {
        (Some(m), _) => m.frame_of(pid),
        (_, Some(t)) => t.frame_of_valid(pid),
        _ => None,
    }
    .map(|frame| {
        let mut buf = vec![0u8; ps];
        db.io().ssd_store().read(PageId(frame), &mut buf);
        buf
    });

    // Peek the buffer pool without perturbing it: `contains` then a read
    // through a guard would touch LRU state; for an invariant check that
    // is acceptable (it is a real page access).
    let mem = if db.pool().contains(pid) {
        let mut clk = Clk::new();
        let g = db
            .pool()
            .get(&mut clk, pid, turbopool::iosim::Locality::Random)
            .unwrap();
        Some(g.read(|b| b.to_vec()))
    } else {
        None
    };
    (mem, ssd, disk)
}

fn check_invariant(db: &Database, design: SsdDesign, pid: PageId) {
    let (mem, ssd, disk) = copies(db, pid);
    if let (Some(m), Some(s)) = (&mem, &ssd) {
        assert_eq!(
            m, s,
            "{design:?}: memory and SSD copies of {pid} differ — the SSD \
             copy should have been invalidated when the page was dirtied"
        );
    }
    if let Some(s) = &ssd {
        let newer_than_disk = s != &disk;
        if newer_than_disk {
            assert_eq!(
                design,
                SsdDesign::LazyCleaning,
                "{design:?}: SSD copy of {pid} is newer than disk, but only \
                 LC is a write-back design"
            );
            // Under LC a newer SSD copy must be tracked as dirty.
            assert!(
                db.ssd_manager().unwrap().is_dirty(pid),
                "LC: untracked newer-than-disk SSD copy of {pid}"
            );
        }
    }
    // Note: mem newer than disk is always legal (cases 2 and 6).
}

fn run_and_check(design: SsdDesign) {
    let db = build(design);
    let mut clk = Clk::new();
    let h = db.create_heap(&mut clk, "data", 64, 384);
    let idx = db.create_index(&mut clk, "pk", 256);
    let meta_first = db.heap_meta(h).first;
    let mut rng = SmallRng::seed_from_u64(design as u64 + 1);
    let mut rids: Vec<u64> = Vec::new();

    for batch in 0..40 {
        for _ in 0..25 {
            let mut txn = db.begin(&mut clk);
            if rids.is_empty() || rng.gen_bool(0.5) {
                let mut rec = [0u8; 64];
                rec[0] = rng.gen();
                if let Ok(rid) = txn.heap_insert(h, &rec) {
                    txn.index_insert(idx, rid * 2 + 1, rid);
                    rids.push(rid);
                }
            } else {
                let rid = rids[rng.gen_range(0..rids.len())];
                if let Some(mut rec) = txn.heap_get(h, rid) {
                    rec[1] = rec[1].wrapping_add(1);
                    txn.heap_update(h, rid, &rec);
                }
            }
            txn.commit();
        }
        // Sample heap pages and check the three-copy invariant.
        let used = db.heap_meta(h).used_pages();
        for _ in 0..10 {
            let pid = meta_first.offset(rng.gen_range(0..used.max(1)));
            check_invariant(&db, design, pid);
        }
        if batch % 13 == 12 {
            db.checkpoint(&mut clk);
            // Immediately after a sharp checkpoint nothing may be dirty.
            assert_eq!(db.pool().dirty_count(), 0);
            if let Some(m) = db.ssd_manager() {
                assert_eq!(m.dirty_count(), 0, "checkpoint left dirty SSD pages");
            }
        }
    }
}

#[test]
fn clean_write_keeps_figure3_invariant() {
    run_and_check(SsdDesign::CleanWrite);
}

#[test]
fn dual_write_keeps_figure3_invariant() {
    run_and_check(SsdDesign::DualWrite);
}

#[test]
fn lazy_cleaning_keeps_figure3_invariant() {
    run_and_check(SsdDesign::LazyCleaning);
}

#[test]
fn tac_keeps_figure3_invariant() {
    run_and_check(SsdDesign::Tac);
}
