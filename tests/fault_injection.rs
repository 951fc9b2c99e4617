//! Seeded fault-injection matrix: every SSD design crossed with every
//! fault kind, verified for zero committed-data loss against a fault-free
//! run of the identical workload.
//!
//! What each design owes the engine when its SSD misbehaves (DESIGN.md §8):
//!
//! * **CW / DW / TAC** are write-through — the disk always holds the
//!   current committed image, so any SSD failure (death, corruption,
//!   transient errors) may cost hits but never data. The committed state
//!   after a mid-workload SSD death must be byte-identical to the no-fault
//!   run.
//! * **LC** is write-back — the SSD can hold the *sole* current copy of
//!   committed pages. SSD death strands those pages; the engine must
//!   rebuild them from the committed WAL tail (`Database::salvage`) and the
//!   final state must still match the no-fault run exactly.
//!
//! The whole simulation is deterministic, so a same-seed replay must also
//! reproduce the fault counters bit-for-bit (acceptance criterion for the
//! fault layer: faults are part of the virtual-time experiment, not an
//! outside source of nondeterminism).

use std::collections::BTreeMap;
use std::sync::Arc;

use turbopool::bufpool::PageIo;
use turbopool::core::metrics::SsdMetricsSnapshot;
use turbopool::core::{SsdConfig, SsdDesign};
use turbopool::engine::{Database, DbConfig};
use turbopool::iosim::fault::{FaultConfig, FaultPlan};
use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool::iosim::{Clk, PageId};

const DESIGNS: [SsdDesign; 4] = [
    SsdDesign::CleanWrite,
    SsdDesign::DualWrite,
    SsdDesign::LazyCleaning,
    SsdDesign::Tac,
];

/// Which fault to inject mid-workload.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// The SSD dies at the workload's midpoint.
    Death,
    /// Transient read/write errors on the SSD for the whole run.
    Transient,
    /// Every SSD write persists only a prefix of the frame.
    TornWrites,
    /// Random bit corruption on every SSD frame read.
    BitFlips,
}

struct RunResult {
    /// rid -> committed (byte0, byte1), read back at the end of the run.
    readback: BTreeMap<u64, (u8, u8)>,
    metrics: SsdMetricsSnapshot,
}

/// Drive a deterministic insert/update workload against `design`,
/// injecting `fault`, and read every committed record back at the end.
/// The pool is kept tiny so pages constantly spill to the SSD tier.
fn run(design: SsdDesign, fault: Fault, seed: u64) -> RunResult {
    let mut cfg = DbConfig::small_for_tests();
    cfg.pool.db_pages = 1024;
    cfg.pool.frames = 4;
    let mut s = SsdConfig::new(design, 64);
    s.partitions = 2;
    cfg.ssd = Some(s);
    let db = Database::open(cfg);
    let mut clk = Clk::new();
    let h = db.create_heap(&mut clk, "data", 32, 256);

    // Whole-run fault plans attach before the first op.
    match fault {
        Fault::Transient => {
            db.io()
                .set_ssd_fault(Some(Arc::new(FaultPlan::new(FaultConfig::transient(
                    seed, 0.05,
                )))));
        }
        Fault::TornWrites => {
            let mut fc = FaultConfig::quiet(seed);
            fc.torn_write_prob = 0.3;
            db.io().set_ssd_fault(Some(Arc::new(FaultPlan::new(fc))));
        }
        Fault::BitFlips => {
            let mut fc = FaultConfig::quiet(seed);
            fc.bitflip_prob = 0.2;
            db.io().set_ssd_fault(Some(Arc::new(FaultPlan::new(fc))));
        }
        Fault::None | Fault::Death => {}
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model: BTreeMap<u64, (u8, u8)> = BTreeMap::new();
    const OPS: usize = 400;
    for i in 0..OPS {
        if i == OPS / 2 && fault == Fault::Death {
            let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(seed)));
            db.io().set_ssd_fault(Some(Arc::clone(&plan)));
            plan.kill(clk.now);
        }
        if rng.gen_range(0u32..3) == 0 && !model.is_empty() {
            // Update a random committed record's second byte.
            let keys: Vec<u64> = model.keys().copied().collect();
            let rid = keys[rng.gen_range(0..keys.len() as u64) as usize];
            let val: u8 = rng.gen();
            let mut txn = db.begin(&mut clk);
            let mut rec = txn.heap_get(h, rid).expect("committed rid readable");
            rec[1] = val;
            txn.heap_update(h, rid, &rec);
            assert!(txn.commit().is_committed(), "SSD faults must not abort");
            model.get_mut(&rid).unwrap().1 = val;
        } else {
            let v: u8 = rng.gen();
            let mut rec = [0u8; 32];
            rec[0] = v;
            let mut txn = db.begin(&mut clk);
            if let Ok(rid) = txn.heap_insert(h, &rec) {
                assert!(txn.commit().is_committed(), "SSD faults must not abort");
                model.insert(rid, (v, 0));
            }
        }
    }

    // Read-heavy phase: random point reads churn the tiny pool so clean
    // pages spill to (and are re-read from) the SSD — this is where torn
    // and bit-flipped frames get caught.
    let keys: Vec<u64> = model.keys().copied().collect();
    for _ in 0..800 {
        let rid = keys[rng.gen_range(0..keys.len() as u64) as usize];
        let mut txn = db.begin(&mut clk);
        let rec = txn.heap_get(h, rid).expect("committed rid readable");
        assert_eq!((rec[0], rec[1]), model[&rid], "{design:?}/{fault:?}");
        assert!(txn.commit().is_committed());
    }

    // Read back every committed record.
    let mut readback = BTreeMap::new();
    let mut txn = db.begin(&mut clk);
    for (&rid, _) in &model {
        let rec = txn
            .heap_get(h, rid)
            .unwrap_or_else(|| panic!("{design:?}/{fault:?}: rid {rid} lost"));
        readback.insert(rid, (rec[0], rec[1]));
    }
    assert!(txn.commit().is_committed());
    // The database must agree with the in-memory model of committed state.
    assert_eq!(
        readback, model,
        "{design:?}/{fault:?}: committed data diverged"
    );
    RunResult {
        readback,
        metrics: db.ssd_metrics().expect("all matrix designs have an SSD"),
    }
}

#[test]
fn ssd_death_loses_no_committed_data_in_any_design() {
    for (i, design) in DESIGNS.iter().enumerate() {
        let seed = 0xFA17 + i as u64;
        let clean = run(*design, Fault::None, seed);
        let dead = run(*design, Fault::Death, seed);
        // Same workload, same committed state — the dead SSD cost hits,
        // never data.
        assert_eq!(
            clean.readback, dead.readback,
            "{design:?}: state after SSD death differs from fault-free run"
        );
        assert_eq!(
            dead.metrics.ssd_quarantined, 1,
            "{design:?} must quarantine"
        );
        if *design == SsdDesign::LazyCleaning {
            // Write-back: death strands sole-copy dirty pages, which must
            // come back through the WAL-tail salvage path.
            assert!(dead.metrics.stranded_dirty > 0, "LC strands dirty pages");
            assert!(dead.metrics.salvaged_pages > 0, "LC salvages via the WAL");
        } else {
            // Write-through designs never have a sole copy to strand.
            assert_eq!(
                dead.metrics.stranded_dirty, 0,
                "{design:?} is write-through"
            );
        }
        // The fault-free twin saw none of this.
        assert_eq!(clean.metrics.ssd_quarantined, 0);
        assert_eq!(clean.metrics.ssd_io_errors, 0);
    }
}

#[test]
fn transient_ssd_errors_are_absorbed_by_retries() {
    for (i, design) in DESIGNS.iter().enumerate() {
        let seed = 0x7236 + i as u64;
        let clean = run(*design, Fault::None, seed);
        let noisy = run(*design, Fault::Transient, seed);
        assert_eq!(
            clean.readback, noisy.readback,
            "{design:?}: transient SSD errors changed committed state"
        );
    }
}

#[test]
fn torn_ssd_writes_are_caught_by_checksums() {
    for (i, design) in DESIGNS.iter().enumerate() {
        let seed = 0x7047 + i as u64;
        let clean = run(*design, Fault::None, seed);
        let torn = run(*design, Fault::TornWrites, seed);
        assert_eq!(
            clean.readback, torn.readback,
            "{design:?}: a torn frame reached a reader"
        );
        // The partial frames were detected (checksum), not silently served.
        assert!(
            torn.metrics.checksum_misses > 0,
            "{design:?}: expected the checksum to catch torn frames"
        );
    }
}

#[test]
fn bitflip_corruption_is_caught_by_checksums() {
    for (i, design) in DESIGNS.iter().enumerate() {
        let seed = 0xB17F + i as u64;
        let clean = run(*design, Fault::None, seed);
        let flipped = run(*design, Fault::BitFlips, seed);
        assert_eq!(
            clean.readback, flipped.readback,
            "{design:?}: corrupted frame bytes reached a reader"
        );
        assert!(
            flipped.metrics.checksum_misses > 0,
            "{design:?}: expected the checksum to catch bit flips"
        );
    }
}

/// Under LC a dirty SSD page is the sole current copy. When its frame
/// rots at rest and a multi-page read covers it, the read must fail and
/// strand the page — the disk holds an older committed version — and the
/// committed bytes come back through WAL-tail salvage.
#[test]
fn lost_sole_copy_inside_a_run_fails_the_read_and_is_salvaged() {
    let mut cfg = DbConfig::small_for_tests();
    cfg.pool.db_pages = 1024;
    cfg.pool.frames = 4;
    cfg.ssd = Some(SsdConfig::new(SsdDesign::LazyCleaning, 64));
    let db = Database::open(cfg);
    let m = Arc::clone(db.ssd_manager().unwrap());
    let mut clk = Clk::new();
    let h = db.create_heap(&mut clk, "data", 32, 16);
    let churn = db.create_heap(&mut clk, "churn", 32, 16);
    let mut txn = db.begin(&mut clk);
    for v in 0..40u8 {
        txn.heap_insert(h, &[v; 32]).unwrap();
        txn.heap_insert(churn, &[v; 32]).unwrap();
    }
    assert!(txn.commit().is_committed());
    // Version 1 of every page reaches the disk.
    db.checkpoint(&mut clk);
    // Version 2 of a record on the heap's third page, evicted dirty by
    // reads of the other heap: its only copy is now on the SSD.
    let rid = 2 * db.heap_meta(h).slots_per_page as u64;
    let pid = db.heap_meta(h).locate(rid).0;
    let mut txn = db.begin(&mut clk);
    assert!(txn.heap_update(h, rid, &[0xEE; 32]));
    assert!(txn.commit().is_committed());
    let mut txn = db.begin(&mut clk);
    for r in 0..40 {
        txn.heap_get(churn, r).unwrap();
    }
    assert!(txn.commit().is_committed());
    assert!(m.is_dirty(pid), "the dirty eviction went to the SSD only");
    let frame = PageId(m.frame_of(pid).unwrap());
    let mut bytes = vec![0u8; db.io().page_size()];
    db.io().ssd_store().read(frame, &mut bytes);
    bytes[5] ^= 0x10;
    db.io().ssd_store().write(frame, &bytes);
    let run = m.read_run(&mut clk, PageId(pid.0 - 1), 3);
    assert!(
        run.is_err(),
        "a lost sole copy fails the run, not serve disk"
    );
    assert_eq!(
        (m.contains(pid), m.metrics.snapshot().stranded_dirty),
        (false, 1)
    );
    let mut txn = db.begin(&mut clk);
    assert_eq!(txn.heap_get(h, rid).unwrap(), vec![0xEE; 32]);
    assert!(txn.commit().is_committed());
    assert_eq!(m.metrics.snapshot().salvaged_pages, 1);
}

#[test]
fn same_seed_replay_reproduces_identical_fault_counters() {
    for design in DESIGNS {
        for fault in [Fault::Death, Fault::Transient, Fault::TornWrites] {
            let a = run(design, fault, 0xD07);
            let b = run(design, fault, 0xD07);
            assert_eq!(
                a.metrics, b.metrics,
                "{design:?}/{fault:?}: fault counters are not reproducible"
            );
        }
    }
}
