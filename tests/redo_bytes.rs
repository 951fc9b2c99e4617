//! Pinned redo bytes: the exact log a fixed transaction mix produces.
//!
//! `Txn::write_page` turns each page mutation into byte-range redo records
//! (`diff_ranges`), and `Txn::commit` appends them in call order. Record
//! bytes feed log-device virtual time, `wal.bytes_per_txn` and every
//! determinism fingerprint, so a faster diff kernel or write path must
//! reproduce them exactly. The constants below were captured on the commit
//! before the word-parallel diff landed; the SSD design must not show in
//! either of them (caching is transparent, and the log is design-blind).

use turbopool::core::{SsdConfig, SsdDesign};
use turbopool::engine::{Database, DbConfig};
use turbopool::iosim::fault::checksum;
use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool::iosim::{Clk, Locality, PageId};

const LOG_SUM: u64 = 0xca9d_4e7d_e6e1_b9f2;
const LOG_LEN: usize = 172_239;
const PAGES_SUM: u64 = 0xb569_94d3_9980_b96a;

const DB_PAGES: u64 = 1024;

fn db_for(design: Option<SsdDesign>) -> Database {
    let mut cfg = DbConfig::small_for_tests();
    cfg.pool.db_pages = DB_PAGES;
    cfg.pool.frames = 16; // evictions run through the SSD tier mid-mix
    cfg.ssd = design.map(|d| SsdConfig::new(d, 64));
    Database::open(cfg)
}

/// Heap inserts/updates/deletes, B+-tree inserts (enough for leaf splits
/// and a root split at 15 entries per 256-byte node) and deletes, aborted
/// transactions, and first writes to never-written pages. Returns the
/// (log checksum, log length, checksum over every page image).
fn run_mix(db: &Database) -> (u64, usize, u64) {
    let mut clk = Clk::new();
    let h = db.create_heap(&mut clk, "rows", 40, 400);
    let idx = db.create_index(&mut clk, "pk", 400);
    let mut rng = SmallRng::seed_from_u64(0x5ED0_B17E);
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut aborts = 0;

    for t in 0..700u64 {
        let mut txn = db.begin(&mut clk);
        match rng.gen_range(0u32..12) {
            // Insert one to three rows (first touch of a heap page is a
            // fresh-page create) and index them.
            0..=5 => {
                for _ in 0..rng.gen_range(1u32..4) {
                    let key = rng.gen_range(0..1_000_000u64) << 12 | t;
                    let mut rec = [0u8; 40];
                    rec[..8].copy_from_slice(&key.to_le_bytes());
                    rec[8..16].copy_from_slice(&rng.gen::<u64>().to_le_bytes());
                    rec[39] = t as u8;
                    let rid = txn.heap_insert(h, &rec).expect("heap has room");
                    txn.index_insert(idx, key, rid);
                    live.push((key, rid));
                }
            }
            // Update one field of a row, and sometimes a far-apart second
            // field (two records for one page write).
            6..=8 if !live.is_empty() => {
                let (key, rid) = live[rng.gen_range(0..live.len())];
                let rid = txn.index_get(idx, key).unwrap_or(rid);
                let mut rec = txn.heap_get(h, rid).expect("live row");
                rec[16] = rec[16].wrapping_add(1);
                if rng.gen_range(0u32..3) == 0 {
                    rec[38] ^= 0x5A;
                }
                txn.heap_update(h, rid, &rec);
            }
            9 if !live.is_empty() => {
                let i = rng.gen_range(0..live.len());
                let (key, rid) = live.swap_remove(i);
                txn.heap_delete(h, rid);
                txn.index_delete(idx, key);
            }
            // Write, then abort: nothing of it may reach the log.
            _ => {
                let _ = txn.heap_insert(h, &[0xAB; 40]);
                txn.index_insert(idx, u64::MAX - t, t);
                txn.abort();
                aborts += 1;
                continue;
            }
        }
        assert!(txn.commit().is_committed());
    }
    assert!(aborts > 20, "mix must exercise aborts");
    let im = db.index_meta(idx);
    let nodes = im.cursor.load(std::sync::atomic::Ordering::Relaxed);
    assert!(nodes > 20, "mix must split leaves and the root ({nodes})");

    let log = db.log().durable_handle().with_bytes(<[u8]>::to_vec);
    let mut images = Vec::new();
    let mut txn = db.begin(&mut clk);
    for p in 0..DB_PAGES {
        txn.read_page(PageId(p), Locality::Random, |b| images.extend_from_slice(b));
    }
    txn.commit();
    (checksum(&log), log.len(), checksum(&images))
}

#[test]
fn redo_bytes_and_page_images_are_pinned_on_every_design() {
    let designs = [
        None,
        Some(SsdDesign::CleanWrite),
        Some(SsdDesign::DualWrite),
        Some(SsdDesign::LazyCleaning),
        Some(SsdDesign::Tac),
    ];
    for d in designs {
        let got = run_mix(&db_for(d));
        assert_eq!(
            got,
            (LOG_SUM, LOG_LEN, PAGES_SUM),
            "redo bytes / page images moved under {d:?}: got {got:#x?}"
        );
    }
}
