//! The warm-restart extension (paper §6 future work).
//!
//! The SSD buffer table is embedded in every checkpoint record; after a
//! crash, entries are re-adopted iff the frame's in-page header still
//! names the page AND the page was not redone from the log (its disk
//! image did not advance). These tests check both the win (the cache is
//! warm) and the safety conditions (stale entries are rejected), each on
//! the fault-and-crash harness (`engine::explorer`), whose `verify` checks
//! every committed record.

use turbopool::core::SsdConfig;
use turbopool::core::SsdDesign::{self, CleanWrite, DualWrite, LazyCleaning};
use turbopool::engine::explorer::{damage_frames, run, Damage, Op, Rig, Run};
use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool::wal::LogTail;

fn ssd(design: SsdDesign, frames: u64, warm: bool) -> Option<SsdConfig> {
    Some(SsdConfig {
        partitions: 4,
        lambda: 0.5,
        warm_restart: warm,
        ..SsdConfig::new(design, frames)
    })
}

/// `n` inserts (rid `i` holds `i`), then — with `touch` — a read of every
/// third record so the SSD fills, then a checkpoint, which embeds the SSD
/// table.
fn loaded(warm: bool, n: u64, touch: bool) -> Run {
    let rig = Rig {
        record: 64,
        ..Rig::new(16, 4096, ssd(LazyCleaning, 256, warm))
    };
    let mut run = Run::new(&rig);
    run.steps((0..n).map(Op::Insert));
    if touch {
        run.steps((0..n).step_by(3).map(Op::Read));
    }
    run.step(Op::Checkpoint);
    run
}

/// The rids whose page the SSD holds.
fn cached(run: &Run, rids: std::ops::Range<u64>) -> Vec<u64> {
    let (meta, mgr) = (run.db().heap_meta(run.heap), run.db().ssd_manager());
    let cached = |&i: &u64| mgr.unwrap().contains(meta.locate(i).0);
    rids.filter(cached).collect()
}

#[test]
fn warm_restart_readopts_checkpointed_pages() {
    let mut run = loaded(true, 3_000, true);
    let before = run.db().ssd_manager().unwrap().occupancy();
    assert!(before > 50, "SSD should be populated: {before}");
    run.reboot(|_| {});
    let imports = run.db().ssd_metrics().unwrap().warm_imports;
    assert!(imports > before / 2, "{imports} of {before} re-adopted");
    // Warm hits: reads served from the SSD with zero disk reads.
    let warm = cached(&run, 0..3_000);
    let disk_reads = run.db().io().disk_stats().read_ops;
    run.steps(warm.iter().copied().map(Op::Read));
    assert!(!warm.is_empty());
    assert_eq!(run.db().io().disk_stats().read_ops, disk_reads);
    // And the data is correct.
    run.verify();
}

#[test]
fn cold_restart_imports_nothing() {
    let mut run = loaded(false, 2_000, false);
    run.reboot(|_| {});
    assert_eq!(run.db().ssd_manager().unwrap().occupancy(), 0);
    assert_eq!(run.db().ssd_metrics().unwrap().warm_imports, 0);
    // Cold, and every record is still there.
    run.verify();
}

#[test]
fn redone_pages_are_not_readopted() {
    let mut run = loaded(true, 3_000, false);
    // Post-checkpoint committed updates: their pages' SSD copies (from the
    // checkpoint table) are stale relative to the redone disk image.
    let updated = Vec::from_iter((0..300).step_by(7));
    run.steps(updated.iter().map(|&i| Op::Update(i, 0xAB)));
    let report = run.reboot(|_| {});
    assert!(report.stats.writes_applied > 0);
    let readopted = |&i: &u64| !cached(&run, i..i + 1).is_empty();
    assert!(!updated.iter().any(readopted), "a redone page re-adopted");
    // Correctness: the updates are visible.
    run.verify();
}

#[test]
fn reused_frames_are_not_readopted() {
    // After the checkpoint, keep inserting so SSD frames get recycled for
    // new pages; the in-page tag then disagrees with the table entry.
    let mut run = loaded(true, 3_000, true);
    run.steps((3_000..3_600).map(Op::Insert));
    let warm = run.reboot(|_| {}).warm.expect("warm import ran");
    assert!(warm.rejected_stale > 0, "no recycled frame was rejected");
    // Some checkpointed pages were re-adopted, and every record — those
    // imported frames included — reads back correctly.
    assert!(!cached(&run, 0..3_000).is_empty(), "nothing re-adopted");
    run.verify();
}

/// At-rest frame corruption (bit rot, torn writes from the previous
/// incarnation) must be caught by the import probe: the damaged frames are
/// rejected with `rejected_checksum` accounting, everything else is still
/// re-adopted, and reads of the affected pages fall back to the (current)
/// disk image.
#[test]
fn damaged_frames_are_rejected_not_readopted() {
    let mut run = loaded(true, 3_000, true);
    assert!(run.db().ssd_manager().unwrap().occupancy() > 50);
    // A bit flipped in a dozen occupied frames while the power is off.
    let mut hit = Vec::new();
    let report = run.reboot(|image| hit = damage_frames(image.io(), Damage::BitFlip, 0, 12));
    let warm = report.warm.expect("warm import ran");
    assert_eq!(hit.len(), 12, "SSD should have occupied frames");
    assert_eq!(warm.rejected_checksum, 12, "every damaged frame rejected");
    assert!(!warm.aborted_dead, "isolated bit rot must not quarantine");
    assert!(warm.imported > 0, "undamaged frames still re-adopted");
    assert_eq!(run.db().ssd_metrics().unwrap().warm_rejected_checksum, 12);
    let mgr = run.db().ssd_manager().unwrap();
    for &(_, pid) in &hit {
        assert!(!mgr.contains(pid), "damaged frame for {pid} re-adopted");
    }
    // Reads of those pages serve the (intact) disk image.
    run.verify();
}

/// Corruption inside the checkpoint's embedded `SsdTable` record kills the
/// record's checksum, so the scan stops before the checkpoint: recovery
/// reports mid-log damage, adopts no table, and restarts cold — but every
/// checkpointed page is on disk, so no committed data is lost.
#[test]
fn corrupt_ssd_table_record_degrades_to_cold_restart() {
    let mut run = loaded(true, 3_000, true);
    assert!(run.db().ssd_manager().unwrap().occupancy() > 50);
    // After the sharp checkpoint the durable log is exactly
    // [SsdTable, Checkpoint]; a flip anywhere inside the table record
    // breaks its record checksum.
    let len = run.db().log().durable_len();
    assert!(len > 0 && run.db().corrupt_log(len / 2, 0x04));
    let report = run.reboot(|_| {});
    let tail = report.log.tail;
    assert!(matches!(tail, LogTail::Corrupt { .. }) && report.is_damaged());
    assert!(!report.log.used_checkpoint, "damaged checkpoint adopted");
    assert!(report.warm.is_none(), "table imported: {report:?}");
    assert_eq!(run.db().ssd_manager().unwrap().occupancy(), 0);
    assert_eq!(run.db().ssd_metrics().unwrap().warm_imports, 0);
    // Cold but correct: the checkpoint flushed every page before its
    // record was written, so the disk image alone serves all commits.
    run.verify();
}

/// The restart decoders beyond the WAL under seeded damage at rest: SSD
/// frames bit-flipped, torn, or rewritten for another page, and bytes of
/// the checkpoint's `SsdTable` record. Each schedule damages right after a
/// checkpoint, so the table names every occupied frame. No schedule may
/// panic, each must classify its damage, and each converges: the harness
/// checks the torn-tail and idempotent-recovery properties after every
/// reboot, and the oracles after that.
#[test]
fn restart_decoders_survive_seeded_damage() {
    let designs = [CleanWrite, DualWrite, LazyCleaning];
    for seed in 0u64..24 {
        let rig = Rig {
            index: true,
            seed,
            ..Rig::new(6, 1024, ssd(designs[seed as usize % 3], 32, true))
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ops = Vec::from_iter((0..40).map(|_| match rng.gen_range(0u32..3) {
            0 => Op::Update(rng.gen(), rng.gen()),
            1 => Op::Read(rng.gen()),
            _ => Op::Insert(rng.gen()),
        }));
        // Reads of checkpointed pages fill the SSD with clean copies.
        ops.push(Op::Checkpoint);
        ops.extend((0..30).map(|_| Op::Read(rng.gen())));
        ops.push(Op::Checkpoint);
        let salt = rng.gen();
        let damage = match seed / 3 % 4 {
            0 => Op::Rot(Damage::BitFlip, salt),
            1 => Op::Rot(Damage::TornPrefix, salt),
            2 => Op::Rot(Damage::Retag, salt),
            _ => Op::CorruptWal(salt, rng.gen()),
        };
        ops.extend([damage, Op::Insert(rng.gen()), Op::Read(rng.gen())]);
        let run = run(&rig, &ops);
        assert_eq!((run.recoveries, run.classified), (1, 1), "{damage:?}");
    }
}
