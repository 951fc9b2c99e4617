//! Property test for the invariant auditor, which every build runs:
//! randomized operation sequences through every SSD design must produce
//! ZERO buffer-table state-machine violations.
//!
//! Two layers are exercised:
//! * the raw `PageIo` surface of `SsdManager` / `TacCache`, driven with
//!   random evict/read/dirty/run/checkpoint/clean sequences, and
//! * the full engine workload (heap + index transactions + checkpoints),
//!   whose `SsdMetricsSnapshot` must report `audit_violations == 0`.
//!
//! In debug builds the auditor also panics at the first illegal
//! transition, so these tests fail loudly, not just by count.

use std::sync::Arc;

use turbopool::bufpool::PageIo;
use turbopool::core::tac::TacCache;
use turbopool::core::{SsdConfig, SsdDesign, SsdManager};
use turbopool::engine::{Database, DbConfig};
use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool::iosim::{Clk, DeviceSetup, IoManager, Locality, PageId};

const PAGE: usize = 512;
const PIDS: u64 = 4_000; // ~5x the 768-frame cache: heavy replacement

fn drive(io: &dyn PageIo, seed: u64, ops: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut clk = Clk::new();
    let data = vec![7u8; PAGE];
    let mut buf = vec![0u8; PAGE];
    for _ in 0..ops {
        clk.now += 1_000; // keep async writes completing over time
        let pid = PageId(rng.gen_range(0..PIDS));
        let class = if rng.gen_ratio(1, 4) {
            Locality::Sequential
        } else {
            Locality::Random
        };
        match rng.gen_range(0u32..10) {
            // Evictions dominate: both clean and dirty. Contract: a page
            // being evicted dirty was dirtied in memory first, which the
            // pool reports via note_dirtied (invalidating any SSD copy).
            0..=3 => {
                let dirty = rng.gen_ratio(1, 2);
                if dirty {
                    io.note_dirtied(clk.now, pid);
                }
                io.evict_page(clk.now, pid, &data, dirty, class);
            }
            4..=6 => {
                io.read_page(&mut clk, pid, class, &mut buf).unwrap();
            }
            7 => {
                let first = PageId(rng.gen_range(0..PIDS - 16));
                let n = rng.gen_range(2u64..16);
                let _ = io.read_run(&mut clk, first, n);
            }
            8 => io.note_dirtied(clk.now, pid),
            _ => {
                // Checkpoint writes flush pages that are dirty in memory,
                // so the same contract applies.
                io.note_dirtied(clk.now, pid);
                let t = io.checkpoint_write(clk.now, pid, &data, class);
                clk.now = clk.now.max(t);
            }
        }
    }
    // Close out like a sharp checkpoint does.
    io.checkpoint_flush(&mut clk);
}

#[test]
fn randomized_ops_keep_auditor_clean_on_all_managers() {
    for design in [
        SsdDesign::CleanWrite,
        SsdDesign::DualWrite,
        SsdDesign::LazyCleaning,
    ] {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PAGE, 1 << 16, 1 << 12)));
        let mut cfg = SsdConfig::new(design, 768);
        cfg.partitions = 4;
        let m = SsdManager::new(cfg, io);
        for seed in 0..4u64 {
            drive(&m, 0xA0D17 + seed, 3_000);
            if design == SsdDesign::LazyCleaning {
                // Interleave the lazy cleaner between batches.
                let mut clk = Clk::new();
                while m.clean_batch(&mut clk) > 0 {}
            }
        }
        assert_eq!(
            m.audit_violations(),
            0,
            "{design:?}: auditor recorded violations"
        );
        assert_eq!(m.metrics.snapshot().audit_violations, 0);
        // LC must end the run fully clean after checkpoint_flush.
        assert_eq!(m.dirty_count(), 0, "{design:?}: dirty pages left behind");
    }
}

#[test]
fn randomized_ops_keep_auditor_clean_on_tac() {
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(PAGE, 1 << 16, 1 << 12)));
    let cfg = SsdConfig::new(SsdDesign::Tac, 768);
    let t = TacCache::new(cfg, io);
    for seed in 0..4u64 {
        drive(&t, 0x7AC + seed, 3_000);
    }
    assert_eq!(t.audit_violations(), 0, "TAC: auditor recorded violations");
    assert_eq!(t.metrics.snapshot().audit_violations, 0);
}

#[test]
fn engine_workload_reports_zero_audit_violations() {
    for design in [
        SsdDesign::CleanWrite,
        SsdDesign::DualWrite,
        SsdDesign::LazyCleaning,
        SsdDesign::Tac,
    ] {
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.db_pages = 2048;
        cfg.pool.frames = 24;
        cfg.ssd = Some({
            let mut s = SsdConfig::new(design, 96);
            s.partitions = 4;
            s.lambda = 0.3;
            s
        });
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 32, 256);
        let idx = db.create_index(&mut clk, "i", 700);
        let mut rng = SmallRng::seed_from_u64(99);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for i in 0..600usize {
            let mut txn = db.begin(&mut clk);
            match rng.gen_range(0u32..10) {
                0..=5 => {
                    let key = rng.gen_range(0..100_000u64) | (i as u64) << 20;
                    if let Ok(rid) = txn.heap_insert(h, &[3u8; 32]) {
                        txn.index_insert(idx, key, rid);
                        live.push((key, rid));
                    }
                }
                6..=8 if !live.is_empty() => {
                    let &(_, rid) = &live[rng.gen_range(0..live.len())];
                    let mut rec = txn.heap_get(h, rid).unwrap();
                    rec[0] = rec[0].wrapping_add(1);
                    txn.heap_update(h, rid, &rec);
                }
                _ => {
                    // Scans push run reads through the cache (the TAC
                    // stale-copy path regression lives here).
                    txn.commit();
                    db.scan_heap(&mut clk, h, |_, _| {}).unwrap();
                    continue;
                }
            }
            txn.commit();
            if i % 83 == 82 {
                db.checkpoint(&mut clk);
            }
        }
        let snap = db.ssd_metrics().expect("SSD configured");
        assert_eq!(
            snap.audit_violations, 0,
            "{design:?}: engine workload tripped the auditor"
        );
    }
}
