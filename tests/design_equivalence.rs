//! Cross-design equivalence: the SSD cache must be transparent.
//!
//! The same seeded workload, run under noSSD / CW / DW / LC / TAC, must
//! produce byte-identical logical database contents — caching is a
//! performance layer, never a semantic one.

use std::sync::Arc;

use turbopool::core::{SsdConfig, SsdDesign};
use turbopool::engine::{Database, DbConfig};
use turbopool::iosim::rng::SmallRng;
use turbopool::iosim::rng::{Rng, SeedableRng};
use turbopool::iosim::Clk;

fn db_for(design: Option<SsdDesign>) -> Database {
    let mut cfg = DbConfig::small_for_tests();
    cfg.pool.db_pages = 2048;
    cfg.pool.frames = 24; // tiny: force heavy eviction traffic through the SSD
    cfg.ssd = design.map(|d| {
        let mut s = SsdConfig::new(d, 96);
        s.partitions = 4;
        s.lambda = 0.3;
        s
    });
    Database::open(cfg)
}

/// Run a mixed heap+index workload and return a digest of final contents.
fn run_workload(db: &Database, seed: u64, txns: usize, with_checkpoints: bool) -> Vec<u8> {
    let mut clk = Clk::new();
    let h = db.create_heap(&mut clk, "data", 32, 256);
    let idx = db.create_index(&mut clk, "pk", 700);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: Vec<(u64, u64)> = Vec::new(); // (key, rid)

    for t in 0..txns {
        let mut txn = db.begin(&mut clk);
        match rng.gen_range(0u32..10) {
            // Insert (most common).
            0..=4 => {
                let key = rng.gen_range(0..100_000u64) | 1 << 32 | (t as u64) << 33;
                let mut rec = [0u8; 32];
                rec[..8].copy_from_slice(&key.to_le_bytes());
                if let Ok(rid) = txn.heap_insert(h, &rec) {
                    txn.index_insert(idx, key, rid);
                    live.push((key, rid));
                }
            }
            // Update.
            5..=7 if !live.is_empty() => {
                let &(key, rid) = &live[rng.gen_range(0..live.len())];
                let mut rec = txn.heap_get(h, rid).unwrap();
                let v = u64::from_le_bytes(rec[8..16].try_into().unwrap());
                rec[8..16].copy_from_slice(&(v + 1).to_le_bytes());
                txn.heap_update(h, rid, &rec);
                let _ = key;
            }
            // Delete.
            8 if !live.is_empty() => {
                let i = rng.gen_range(0..live.len());
                let (key, rid) = live.remove(i);
                txn.heap_delete(h, rid);
                txn.index_delete(idx, key);
            }
            // Abort a prepared insert.
            _ => {
                let _ = txn.heap_insert(h, &[9u8; 32]);
                txn.abort();
                continue;
            }
        }
        txn.commit();
        if with_checkpoints && t % 97 == 96 {
            db.checkpoint(&mut clk);
        }
    }

    // Digest: full scan + index verification.
    let mut digest = Vec::new();
    db.scan_heap(&mut clk, h, |rid, rec| {
        digest.extend_from_slice(&rid.to_le_bytes());
        digest.extend_from_slice(rec);
    })
    .unwrap();
    live.sort_unstable();
    let mut txn = db.begin(&mut clk);
    for &(key, rid) in &live {
        assert_eq!(txn.index_get(idx, key), Some(rid), "index lookup of {key}");
    }
    txn.commit();
    digest
}

#[test]
fn all_designs_produce_identical_contents() {
    let designs = [
        None,
        Some(SsdDesign::CleanWrite),
        Some(SsdDesign::DualWrite),
        Some(SsdDesign::LazyCleaning),
        Some(SsdDesign::Tac),
    ];
    let mut reference: Option<Vec<u8>> = None;
    for d in designs {
        let db = db_for(d);
        let digest = run_workload(&db, 42, 800, true);
        match &reference {
            None => reference = Some(digest),
            Some(r) => assert_eq!(r, &digest, "contents diverged under {d:?}"),
        }
    }
}

#[test]
fn all_designs_identical_after_crash_recovery() {
    let designs = [
        None,
        Some(SsdDesign::CleanWrite),
        Some(SsdDesign::DualWrite),
        Some(SsdDesign::LazyCleaning),
        Some(SsdDesign::Tac),
    ];
    let mut reference: Option<Vec<u8>> = None;
    for d in designs {
        let db = db_for(d);
        let _ = run_workload(&db, 7, 500, false);
        // Crash without a final checkpoint: recovery must replay the log.
        let (db2, stats) = Database::recover(db.crash());
        assert!(stats.records_scanned > 0, "design {d:?} had an empty log");
        let mut clk = Clk::new();
        let mut digest = Vec::new();
        db2.scan_heap(&mut clk, 0, |rid, rec| {
            digest.extend_from_slice(&rid.to_le_bytes());
            digest.extend_from_slice(rec);
        })
        .unwrap();
        match &reference {
            None => reference = Some(digest),
            Some(r) => assert_eq!(r, &digest, "post-recovery contents diverged under {d:?}"),
        }
    }
}

#[test]
fn lc_loses_nothing_when_crashing_with_dirty_ssd_pages() {
    // The dangerous design: newest versions live only on the SSD, and the
    // SSD is NOT consulted at restart. WAL + sharp checkpoints must cover.
    let db = db_for(Some(SsdDesign::LazyCleaning));
    let mut clk = Clk::new();
    let h = db.create_heap(&mut clk, "data", 32, 256);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut expect = Vec::new();
    for i in 0..400u64 {
        let mut txn = db.begin(&mut clk);
        let mut rec = [0u8; 32];
        rec[..8].copy_from_slice(&i.to_le_bytes());
        rec[8] = rng.gen();
        let rid = txn.heap_insert(h, &rec).unwrap();
        txn.commit();
        expect.push((rid, rec));
    }
    let mgr = Arc::clone(db.ssd_manager().unwrap());
    // Ensure the SSD really holds dirty (newer-than-disk) pages at crash.
    assert!(mgr.dirty_count() > 0, "test needs dirty SSD pages");
    let (db2, _) = Database::recover(db.crash());
    let mut clk = Clk::new();
    let mut txn = db2.begin(&mut clk);
    for (rid, rec) in expect {
        assert_eq!(txn.heap_get(h, rid).unwrap(), rec.to_vec(), "rid {rid}");
    }
    txn.commit();
}
