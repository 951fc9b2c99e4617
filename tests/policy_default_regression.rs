//! Regression gate for the buffer policies: the pool's LRU-2 replacement
//! and the paper's per-design SSD admission rule must reproduce the pinned
//! numbers exactly — same seeds ⇒ bit-identical pool/SSD counters, device
//! totals, and page images. The fingerprints below predate PR 8 and have
//! held through every refactor of both policies since; any drift shows up
//! here as a direct counter diff, not just a folded hash mismatch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool::core::{SsdConfig, SsdDesign};
use turbopool::engine::{Database, DbConfig, HeapId};
use turbopool::iosim::fault::checksum;
use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool::iosim::store::PageStore;
use turbopool::iosim::{Clk, PageId, MICROSECOND, MINUTE, SECOND};
use turbopool::workload::driver::{CleanerClient, Client, Driver, StepResult, ThroughputRecorder};
use turbopool::workload::scenario::Design;
use turbopool::workload::tpcc::Tpcc;

/// Fold a sequence of counters into one order-sensitive fingerprint.
fn fold(h: &mut u64, v: u64) {
    *h = h.rotate_left(7) ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
}

fn store_fp(store: &dyn PageStore) -> u64 {
    let mut buf = vec![0u8; store.page_size()];
    let mut h = 0u64;
    for pid in 0..store.num_pages() {
        store.read(PageId(pid), &mut buf);
        h = h.rotate_left(7) ^ checksum(&buf);
    }
    h
}

/// Every observable counter of one finished run, folded in a fixed order.
/// Only fields that existed when the fingerprints were captured
/// participate, so newly added counters can never mask a regression.
fn db_fingerprint(db: &Database, steps: u64) -> u64 {
    let mut h = 0u64;
    fold(&mut h, steps);
    let p = db.pool_stats();
    for v in [
        p.hits,
        p.misses,
        p.evictions_clean,
        p.evictions_dirty,
        p.prefetched_pages,
        p.expanded_fill_pages,
        p.checkpoint_writes,
    ] {
        fold(&mut h, v);
    }
    if let Some(m) = db.ssd_metrics() {
        for v in [
            m.ssd_hits,
            m.ssd_misses,
            m.throttled_reads,
            m.throttled_admissions,
            m.admissions,
            m.fill_admissions,
            m.policy_rejections,
            m.replacements,
            m.invalidations,
            m.cleaned_pages,
            m.cleaner_writes,
            m.inline_cleans,
            m.checkpoint_cleaned,
            m.tac_cancelled_writes,
            m.dirty_hits,
            m.warm_imports,
            m.warm_rejected_stale,
            m.warm_rejected_checksum,
            m.audit_violations,
            m.ssd_io_errors,
            m.checksum_misses,
            m.disk_retries,
            m.ssd_quarantined,
            m.quarantined_reads,
            m.lost_frames,
            m.stranded_dirty,
            m.salvaged_pages,
            // The two counters of the deleted fail-slow reaction (reads
            // and admissions it moved to disk), folded as the 0 they
            // always were here so the pinned fingerprints stay as they are.
            0,
            0,
            m.ssd_retries,
            // The deleted congestion-aware cleaner's backoff and boost
            // counters, folded likewise.
            0,
            0,
        ] {
            fold(&mut h, v);
        }
    }
    for s in [db.io().disk_stats(), db.io().ssd_stats()] {
        for v in [s.read_ops, s.write_ops, s.read_pages, s.write_pages] {
            fold(&mut h, v);
        }
    }
    fold(&mut h, store_fp(db.io().disk_store()));
    fold(&mut h, store_fp(db.io().ssd_store()));
    h
}

/// Mixed point-access + scan client (inserts/updates/reads/scans), the
/// same access shape the determinism suite uses plus `scan_heap` so the
/// read-ahead/prefetch path participates in the fingerprint.
struct MixClient {
    db: Arc<Database>,
    heap: HeapId,
    rng: SmallRng,
    rids: Vec<u64>,
    remaining: usize,
    done_at: Arc<AtomicU64>,
}

impl Client for MixClient {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        if self.remaining == 0 {
            self.done_at.store(clk.now, Ordering::Relaxed);
            return StepResult::Done;
        }
        self.remaining -= 1;
        clk.elapse(10 * MICROSECOND);
        match self.rng.gen_range(0u32..8) {
            0 | 1 => {
                let mut txn = self.db.begin(clk);
                let mut rec = [0u8; 32];
                rec[0] = self.rng.gen();
                if let Ok(rid) = txn.heap_insert(self.heap, &rec) {
                    self.rids.push(rid);
                }
                assert!(txn.commit().is_committed());
            }
            2 | 3 if !self.rids.is_empty() => {
                let rid = self.rids[self.rng.gen_range(0..self.rids.len() as u64) as usize];
                let mut txn = self.db.begin(clk);
                if let Some(mut rec) = txn.heap_get(self.heap, rid) {
                    rec[1] = rec[1].wrapping_add(1);
                    txn.heap_update(self.heap, rid, &rec);
                }
                assert!(txn.commit().is_committed());
            }
            7 => {
                self.db.scan_heap(clk, self.heap, |_, _| {}).unwrap();
            }
            _ if !self.rids.is_empty() => {
                let rid = self.rids[self.rng.gen_range(0..self.rids.len() as u64) as usize];
                let mut txn = self.db.begin(clk);
                txn.heap_get(self.heap, rid);
                assert!(txn.commit().is_committed());
            }
            _ => {}
        }
        StepResult::Continue
    }
}

fn heap_mix_fingerprint(design: Option<SsdDesign>) -> u64 {
    let mut cfg = DbConfig::small_for_tests();
    cfg.pool.db_pages = 1024;
    cfg.pool.frames = 8;
    cfg.pool.fill_expansion = 4;
    if let Some(d) = design {
        let mut s = SsdConfig::new(d, 64);
        s.partitions = 2;
        cfg.ssd = Some(s);
    }
    let db = Arc::new(Database::open(cfg));
    let mut clk = Clk::new();
    let heap = db.create_heap(&mut clk, "data", 32, 256);
    let mut driver = Driver::new();
    let done_at = Arc::new(AtomicU64::new(0));
    for c in 0..3u64 {
        driver.add_in_domain(
            0,
            0,
            Box::new(MixClient {
                db: Arc::clone(&db),
                heap,
                rng: SmallRng::seed_from_u64(0x0EED_5EED ^ (c * 7919)),
                rids: Vec::new(),
                remaining: 120,
                done_at: Arc::clone(&done_at),
            }),
        );
    }
    if let Some(cleaner) = CleanerClient::for_db(&db) {
        driver.add_in_domain(0, 0, Box::new(cleaner));
    }
    driver.run_until(60 * SECOND);
    assert!(done_at.load(Ordering::Relaxed) > 0, "client did not finish");
    let mut clk = Clk::at(60 * SECOND);
    db.checkpoint(&mut clk);
    db_fingerprint(&db, driver.steps())
}

fn tpcc_fingerprint(design: Design) -> u64 {
    let t = Arc::new(Tpcc::setup(design, 1, 0.5));
    let metric = ThroughputRecorder::new(MINUTE);
    let mut driver = Driver::new();
    for c in 0..3u64 {
        driver.add_in_domain(0, 0, Box::new(t.client(c, Arc::clone(&metric))));
    }
    if let Some(cleaner) = CleanerClient::for_db(&t.db) {
        driver.add_in_domain(0, 0, Box::new(cleaner));
    }
    driver.run_until(10 * MINUTE);
    assert!(metric.total() > 0, "no NewOrder commits in 10 minutes");
    db_fingerprint(&t.db, driver.steps())
}

#[test]
fn default_policies_reproduce_pre_refactor_heap_mix() {
    let expected: [(Option<SsdDesign>, u64); 5] = [
        (None, 0xc9bf_b5c8_c574_1bc5),
        (Some(SsdDesign::CleanWrite), 0x1af1_ff9f_e31c_1342),
        (Some(SsdDesign::DualWrite), 0x2940_93d8_d4b2_cba2),
        (Some(SsdDesign::LazyCleaning), 0xf262_0138_3c5e_08c5),
        (Some(SsdDesign::Tac), 0x4443_8b83_73bf_0246),
    ];
    for (design, want) in expected {
        let got = heap_mix_fingerprint(design);
        assert_eq!(
            got, want,
            "default-policy heap-mix fingerprint drifted for {design:?} (got {got:#018x})"
        );
    }
}

#[test]
fn default_policies_reproduce_pre_refactor_tpcc() {
    let expected: [(Design, u64); 3] = [
        (Design::Dw, 0x1d3e_d4ce_d8bd_cd3c),
        (Design::Lc, 0x51e1_ead4_c0d3_abb2),
        (Design::Tac, 0xae64_5b18_974a_387d),
    ];
    for (design, want) in expected {
        let got = tpcc_fingerprint(design);
        assert_eq!(
            got, want,
            "default-policy TPC-C fingerprint drifted for {design:?} (got {got:#018x})"
        );
    }
}
