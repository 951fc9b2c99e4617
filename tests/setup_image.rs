//! The restored database image, pinned: every workload's bulk load must
//! write exactly the bytes it always has. A fingerprint folds every
//! materialised disk-store page (its id and its bytes), the count of such
//! pages, and the catalog cursors the load leaves behind — each heap's
//! append cursor (`next`) and each index's extent cursor (`cursor`). The
//! constants were captured before the loaders were rewritten to stream, so
//! any change to the load order, the page layout or the allocation order of
//! index nodes shows up here. Beside each image sits the page count the
//! workload's `db_pages` declares, which must also be the size the
//! database opened with: sizing and setup read one table list.
//!
//! The tier-1 test runs each workload at test size; the `#[ignore]` variant
//! runs the sizes the standalone benchmark loads (`scripts/check.sh` runs
//! it in release).

use std::sync::atomic::Ordering;

use turbopool::engine::Database;
use turbopool::iosim::store::MemStore;
use turbopool::iosim::PageId;
use turbopool::workload::scenario::{Design, PAGE_SIZE};
use turbopool::workload::synthetic::{Synthetic, SyntheticConfig};
use turbopool::workload::tpcc::Tpcc;
use turbopool::workload::tpce::Tpce;
use turbopool::workload::tpch::Tpch;

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Fingerprint of the loaded image plus the cursors of the catalog's
/// `heaps` heaps and `indexes` indexes (ids are dense from 0).
fn image_fingerprint(db: &Database, heaps: usize, indexes: usize) -> u64 {
    let store: &MemStore = db.io().disk_store();
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut count = 0u64;
    for pid in (0..store.num_pages()).map(PageId) {
        if store.is_materialized(pid) {
            fnv(&mut h, &pid.0.to_le_bytes());
            fnv(&mut h, &store.read_buf(pid));
            count += 1;
        }
    }
    fnv(&mut h, &count.to_le_bytes());
    for id in 0..heaps {
        fnv(
            &mut h,
            &db.heap_meta(id).next.load(Ordering::Relaxed).to_le_bytes(),
        );
    }
    for id in 0..indexes {
        fnv(
            &mut h,
            &db.index_meta(id)
                .cursor
                .load(Ordering::Relaxed)
                .to_le_bytes(),
        );
    }
    h
}

/// `pages`, the count a workload's `db_pages` declares, checked against the
/// size its setup opened the database with.
fn declared(db: &Database, pages: u64) -> u64 {
    assert_eq!(
        db.config().pool.db_pages,
        pages,
        "setup and db_pages disagree"
    );
    pages
}

/// (declared pages, image fingerprint) of each workload at a size.
fn tpcc(warehouses: u64) -> (u64, u64) {
    let t = Tpcc::setup(Design::Lc, warehouses, 0.5);
    let pages = declared(&t.db, Tpcc::db_pages(warehouses, PAGE_SIZE));
    (pages, image_fingerprint(&t.db, 9, 5))
}

fn tpce(customers: u64) -> (u64, u64) {
    let t = Tpce::setup(Design::Dw, customers, 0.01);
    let pages = declared(&t.db, Tpce::db_pages(customers, PAGE_SIZE));
    (pages, image_fingerprint(&t.db, 5, 1))
}

fn tpch(sf: u64) -> (u64, u64) {
    let t = Tpch::setup(Design::Tac, sf, 0.01);
    let pages = declared(&t.db, Tpch::db_pages(sf, PAGE_SIZE));
    (pages, image_fingerprint(&t.db, 5, 2))
}

fn synthetic(rows: u64) -> (u64, u64) {
    let cfg = SyntheticConfig {
        rows,
        ..SyntheticConfig::default()
    };
    let pages = Synthetic::db_pages(&cfg, PAGE_SIZE);
    let s = Synthetic::setup(Design::Lc, cfg, |_| {});
    (declared(&s.db, pages), image_fingerprint(&s.db, 1, 1))
}

fn check(name: &str, (pages, image): (u64, u64), (want_pages, want_image): (u64, u64)) {
    assert_eq!(
        pages, want_pages,
        "{name}: db_pages drifted from the pinned count"
    );
    assert_eq!(
        image, want_image,
        "{name}: loaded image drifted from the pinned one (got {image:#018x})"
    );
}

#[test]
fn tpcc_image_is_pinned() {
    check(
        "TPC-C 2 warehouses",
        tpcc(2),
        (2_795, 0x306a_26ea_9e77_0129),
    );
}

#[test]
fn tpce_image_is_pinned() {
    check(
        "TPC-E 50 customers",
        tpce(50),
        (1_052, 0x8f2c_23bb_1015_55ef),
    );
}

#[test]
fn tpch_image_is_pinned() {
    check("TPC-H SF 2", tpch(2), (431, 0x0fcd_fac9_a569_3f6a));
}

#[test]
fn synthetic_image_is_pinned() {
    check(
        "Synthetic 5k rows",
        synthetic(5_000),
        (171, 0xc0d0_fbab_357c_2015),
    );
}

/// The benchmark's four databases (`benchmark/src/workloads.rs`), one at a
/// time so that only one is resident.
#[test]
#[ignore = "benchmark-size loads; run by scripts/check.sh in release"]
fn benchmark_size_images_are_pinned() {
    check(
        "TPC-C 20 warehouses",
        tpcc(20),
        (26_245, 0x96bd_0c66_e5c4_dfa2),
    );
    check(
        "TPC-E 2,000 customers",
        tpce(2_000),
        (36_074, 0xa946_8724_ab48_9911),
    );
    check("TPC-H SF 100", tpch(100), (17_450, 0xa816_fc5a_8a97_8e10));
    check(
        "Synthetic 60k rows",
        synthetic(60_000),
        (1_695, 0xf250_8c8e_3383_5011),
    );
}
