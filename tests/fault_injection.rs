//! Seeded fault-injection matrix: every SSD design crossed with every
//! fault kind, each a row of op lists for the fault-and-crash harness
//! (`engine::explorer`), whose `twin` runs the row with and without
//! its fault plan and requires the same committed state (DESIGN.md §8):
//!
//! * **CW / DW / TAC** are write-through — the disk always holds the
//!   current committed image, so an SSD failure may cost hits, never data.
//! * **LC** is write-back — the SSD can hold the *sole* current copy of
//!   committed pages. SSD death strands those pages; the engine rebuilds
//!   them from the committed WAL tail (`Database::salvage`).
//!
//! Faults are part of the virtual-time experiment, so a same-seed replay
//! reproduces the fault counters bit-for-bit.

use std::sync::Arc;

use turbopool::bufpool::PageIo;
use turbopool::core::metrics::SsdMetricsSnapshot;
use turbopool::core::SsdConfig;
use turbopool::core::SsdDesign::{self, CleanWrite, DualWrite, LazyCleaning, Tac};
use turbopool::engine::explorer::{damage_frames, run, twin, Damage, Fault, Op, Rig};
use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool::iosim::{Clk, PageId};

const DESIGNS: [SsdDesign; 4] = [CleanWrite, DualWrite, LazyCleaning, Tac];

/// A tiny pool over a 64-frame SSD, so pages constantly spill to the SSD
/// tier.
fn rig(design: SsdDesign, seed: u64) -> Rig {
    let ssd = SsdConfig {
        partitions: 2,
        ..SsdConfig::new(design, 64)
    };
    Rig {
        record: 32,
        seed,
        ..Rig::new(4, 1024, Some(ssd))
    }
}

/// 400 inserts and updates with `fault` armed before the first — death
/// at the midpoint instead — then 800 random reads that churn the pool,
/// so clean pages spill to (and are re-read from) the SSD: that is where
/// torn and bit-flipped frames get caught.
fn ops(fault: Fault, seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    for i in 0..400 {
        if i == 0 && fault != Fault::Death || i == 200 && fault == Fault::Death {
            ops.push(Op::Arm(fault));
        }
        ops.push(if rng.gen_range(0u32..3) == 0 {
            Op::Update(rng.gen(), rng.gen())
        } else {
            Op::Insert(rng.gen())
        });
    }
    ops.extend((0..800).map(|_| Op::Read(rng.gen())));
    ops
}

/// Every design against its fault-free twin; `check` gets the design and
/// the faulted run's counters.
fn matrix(fault: Fault, seed: u64, check: impl Fn(SsdDesign, SsdMetricsSnapshot)) {
    for (i, design) in DESIGNS.into_iter().enumerate() {
        let seed = seed + i as u64;
        let (clean, faulted) = twin(&rig(design, seed), &ops(fault, seed));
        let clean = clean.db().ssd_metrics().expect("every row has an SSD");
        // The fault-free twin saw none of it.
        assert_eq!((clean.ssd_quarantined, clean.ssd_io_errors), (0, 0));
        check(design, faulted.db().ssd_metrics().expect("an SSD"));
    }
}

#[test]
fn ssd_death_loses_no_committed_data_in_any_design() {
    matrix(Fault::Death, 0xFA17, |design, m| {
        assert_eq!(m.ssd_quarantined, 1, "{design:?} must quarantine");
        if design == LazyCleaning {
            // Write-back: death strands sole-copy dirty pages, which must
            // come back through the WAL-tail salvage path.
            assert!(m.stranded_dirty > 0, "LC strands dirty pages");
            assert!(m.salvaged_pages > 0, "LC salvages via the WAL");
        } else {
            // Write-through designs never have a sole copy to strand.
            assert_eq!(m.stranded_dirty, 0, "{design:?} is write-through");
        }
    });
}

#[test]
fn transient_ssd_errors_are_absorbed_by_retries() {
    matrix(Fault::Transient(0.05), 0x7236, |design, m| {
        assert!(m.ssd_io_errors > 0, "{design:?}: no error fired");
    });
}

#[test]
fn torn_ssd_writes_are_caught_by_checksums() {
    matrix(Fault::TornWrites(0.3), 0x7047, |design, m| {
        // The partial frames were detected (checksum), not silently served.
        assert!(m.checksum_misses > 0, "{design:?}: torn frames not caught");
    });
}

#[test]
fn bitflip_corruption_is_caught_by_checksums() {
    matrix(Fault::BitFlips(0.2), 0xB17F, |design, m| {
        assert!(m.checksum_misses > 0, "{design:?}: bit flips not caught");
    });
}

/// Under LC a dirty SSD page is the sole current copy. When its frame
/// rots at rest and a multi-page read covers it, the read must fail and
/// strand the page — the disk holds an older committed version — and the
/// committed bytes come back through WAL-tail salvage.
#[test]
fn lost_sole_copy_inside_a_run_fails_the_read_and_is_salvaged() {
    let rig = Rig {
        record: 32,
        ..Rig::new(4, 1024, Some(SsdConfig::new(LazyCleaning, 64)))
    };
    let (db, h, _) = rig.open();
    let m = Arc::clone(db.ssd_manager().unwrap());
    let mut clk = Clk::new();
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
    let frame = m.frame_of(pid).unwrap();
    let hit = damage_frames(db.io(), Damage::BitFlip, frame as u32, 1);
    assert_eq!(hit.len(), 1);
    let run = m.read_run(&mut clk, PageId(pid.0 - 1), 3);
    assert!(run.is_err(), "a lost sole copy fails the run");
    let stranded = m.metrics.snapshot().stranded_dirty;
    assert_eq!((m.contains(pid), stranded), (false, 1));
    let mut txn = db.begin(&mut clk);
    assert_eq!(txn.heap_get(h, rid).unwrap(), vec![0xEE; 32]);
    assert!(txn.commit().is_committed());
    assert_eq!(m.metrics.snapshot().salvaged_pages, 1);
}

#[test]
fn same_seed_replay_reproduces_identical_fault_counters() {
    for design in DESIGNS {
        for fault in [Fault::Death, Fault::Transient(0.05), Fault::TornWrites(0.3)] {
            let counters = || {
                let run = run(&rig(design, 0xD07), &ops(fault, 0xD07));
                run.db().ssd_metrics().expect("an SSD")
            };
            let a = counters();
            assert_eq!(a, counters(), "{design:?}/{fault:?} not reproducible");
            // And the fault fired: the counter it must move moved.
            let moved = match fault {
                Fault::Death => a.ssd_quarantined,
                Fault::Transient(_) => a.ssd_io_errors,
                _ => a.checksum_misses,
            };
            assert!(moved > 0, "{design:?}/{fault:?} never fired: {a:?}");
        }
    }
}
