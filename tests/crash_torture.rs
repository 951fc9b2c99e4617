//! Property-based crash torture: random operations with random crash
//! points, verified against an in-memory model.
//!
//! The model mirrors only *committed* state; after every simulated crash
//! and recovery the real database must agree with it exactly — across all
//! SSD designs and with checkpoints sprinkled in.

use std::collections::{BTreeMap, BTreeSet};

use std::sync::Arc;

use turbopool::core::{SsdConfig, SsdDesign};
use turbopool::engine::{Database, DbConfig, RecoveryReport};
use turbopool::iosim::fault::{FaultConfig, FaultPlan};
use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool::iosim::{Clk, CrashSwitch, MILLISECOND, SECOND};
use turbopool::wal::LogTail;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8),
    Update {
        target: u16,
        val: u8,
    },
    Delete {
        target: u16,
    },
    AbortedInsert,
    Checkpoint,
    Crash,
    /// The SSD dies at the current virtual time (no-op for noSSD); the
    /// design must degrade without losing any committed state.
    SsdDeath,
    /// Attach low-probability transient read/write errors to both devices;
    /// the retry policies must absorb them invisibly.
    TransientIoError,
    /// The SSD browns out (5-50x slower service) from the current virtual
    /// time onward; hedged reads and admission skips must keep every
    /// committed record reachable and correct.
    Brownout,
    /// Crash, then lose power again during recovery's own redo writes
    /// (at boundary `inner`); re-entrant recovery must converge to the
    /// same committed state as an uninterrupted one.
    CrashDuringRecovery {
        inner: u8,
    },
    /// XOR `mask|1` into a pseudo-random durable WAL byte (at-rest media
    /// corruption), then crash. Recovery must come back to *some*
    /// committed prefix, report loudly when data was lost, and never
    /// surface bytes that were never committed.
    CorruptWal {
        byte: u32,
        mask: u8,
    },
}

/// Weighted op draw: the original 5:4:1:1:1:2 mix plus one slot each for
/// the three device-fault ops and the two restart-time-fault ops.
fn draw_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0u32..19) {
        0..=4 => Op::Insert(rng.gen()),
        5..=8 => Op::Update {
            target: rng.gen(),
            val: rng.gen(),
        },
        9 => Op::Delete { target: rng.gen() },
        10 => Op::AbortedInsert,
        11 => Op::Checkpoint,
        12..=13 => Op::Crash,
        14 => Op::SsdDeath,
        15 => Op::TransientIoError,
        16 => Op::Brownout,
        17 => Op::CrashDuringRecovery {
            inner: rng.gen_range(0u8..8),
        },
        _ => Op::CorruptWal {
            byte: rng.gen(),
            mask: rng.gen(),
        },
    }
}

/// Reboot-loop recovery: keep re-entering `try_recover` until it completes
/// on a powered machine. Models a machine whose power fails during recovery
/// (the armed switch on the image's I/O stack) and then comes back.
fn recover_until_converged(mut image: turbopool::engine::CrashImage) -> (Database, RecoveryReport) {
    let mut attempts = 0;
    loop {
        attempts += 1;
        assert!(attempts <= 10, "recovery did not converge");
        match Database::try_recover(image) {
            Ok((db, report)) => {
                if db.io().power_lost() {
                    // Power died on recovery's final write; reboot again.
                    db.io().set_crash_switch(None);
                    image = db.crash();
                    continue;
                }
                db.io().set_crash_switch(None);
                return (db, report);
            }
            Err(e) => {
                image = e.image;
                image.io().set_crash_switch(None);
            }
        }
    }
}

const DESIGNS: [Option<SsdDesign>; 5] = [
    None,
    Some(SsdDesign::CleanWrite),
    Some(SsdDesign::DualWrite),
    Some(SsdDesign::LazyCleaning),
    Some(SsdDesign::Tac),
];

fn build(design: Option<SsdDesign>) -> Database {
    let mut cfg = DbConfig::small_for_tests();
    cfg.pool.db_pages = 1024;
    cfg.pool.frames = 12;
    cfg.ssd = design.map(|d| {
        let mut s = SsdConfig::new(d, 48);
        s.partitions = 2;
        s.lambda = 0.7;
        s
    });
    Database::open(cfg)
}

fn verify(
    db: &Database,
    h: usize,
    idx: usize,
    model: &BTreeMap<u64, (u8, u8)>,
    unindexed: &BTreeSet<u64>,
) {
    let mut clk = Clk::new();
    let mut txn = db.begin(&mut clk);
    for (&rid, &(a, b)) in model {
        let rec = txn
            .heap_get(h, rid)
            .unwrap_or_else(|| panic!("rid {rid} lost"));
        assert_eq!((rec[0], rec[1]), (a, b), "rid {rid} content");
        // Mid-log corruption can strand a heap page on disk (eviction
        // write) while its transaction's index page rolled back with the
        // log — those rids are tracked in `unindexed` and only their heap
        // side is checked.
        if !unindexed.contains(&rid) {
            assert_eq!(txn.index_get(idx, rid * 2 + 1), Some(rid), "index of {rid}");
        }
    }
    txn.commit();
    // And nothing extra: scan count matches the model (holes excluded).
    let mut count = 0usize;
    db.scan_heap(&mut clk, h, |rid, _| {
        assert!(model.contains_key(&rid), "phantom rid {rid} after recovery");
        count += 1;
    })
    .unwrap();
    assert_eq!(count, model.len(), "record count mismatch");
}

#[test]
fn committed_state_survives_random_crashes() {
    // 25 seeded cases: every design five times, with fresh op sequences.
    for case in 0u64..25 {
        let design = DESIGNS[case as usize % DESIGNS.len()];
        let mut rng = SmallRng::seed_from_u64(0xC4A5_4 ^ case);
        let ops: Vec<Op> = (0..rng.gen_range(10usize..120))
            .map(|_| draw_op(&mut rng))
            .collect();
        let mut db = build(design);
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "data", 32, 384);
        let idx = db.create_index(&mut clk, "pk", 256);
        // Model: rid -> (byte0, byte1) of committed records.
        let mut model: BTreeMap<u64, (u8, u8)> = BTreeMap::new();
        // Every (byte0, byte1) pair each rid has *ever* held at a commit
        // point. After WAL corruption, recovery may legitimately roll a rid
        // back to any of these — but never to bytes outside the set.
        let mut history: BTreeMap<u64, BTreeSet<(u8, u8)>> = BTreeMap::new();
        // Rids whose index entry may have been lost to WAL corruption (heap
        // survived via an eviction write, index rolled back with the log).
        let mut unindexed: BTreeSet<u64> = BTreeSet::new();
        // Fault plans stay attached across crashes (the devices survive).
        let mut ssd_plan: Option<Arc<FaultPlan>> = None;
        let mut disk_plan: Option<Arc<FaultPlan>> = None;

        for op in ops {
            match op {
                Op::Insert(v) => {
                    let mut txn = db.begin(&mut clk);
                    let mut rec = [0u8; 32];
                    rec[0] = v;
                    if let Ok(rid) = txn.heap_insert(h, &rec) {
                        txn.index_insert(idx, rid * 2 + 1, rid);
                        txn.commit();
                        model.insert(rid, (v, 0));
                        history.entry(rid).or_default().insert((v, 0));
                        // A (possibly reused) rid gets a fresh index entry.
                        unindexed.remove(&rid);
                    }
                }
                Op::Update { target, val } => {
                    if model.is_empty() {
                        continue;
                    }
                    let keys: Vec<u64> = model.keys().copied().collect();
                    let rid = keys[target as usize % keys.len()];
                    let mut txn = db.begin(&mut clk);
                    let mut rec = txn.heap_get(h, rid).expect("model rid exists");
                    rec[1] = val;
                    txn.heap_update(h, rid, &rec);
                    txn.commit();
                    model.get_mut(&rid).unwrap().1 = val;
                    history.entry(rid).or_default().insert(model[&rid]);
                }
                Op::Delete { target } => {
                    if model.is_empty() {
                        continue;
                    }
                    let keys: Vec<u64> = model.keys().copied().collect();
                    let rid = keys[target as usize % keys.len()];
                    let mut txn = db.begin(&mut clk);
                    txn.heap_delete(h, rid);
                    txn.index_delete(idx, rid * 2 + 1);
                    txn.commit();
                    model.remove(&rid);
                    unindexed.remove(&rid);
                }
                Op::AbortedInsert => {
                    let mut txn = db.begin(&mut clk);
                    let _ = txn.heap_insert(h, &[0xFF; 32]);
                    txn.abort();
                }
                Op::Checkpoint => {
                    db.checkpoint(&mut clk);
                }
                Op::Crash => {
                    let (db2, _) = Database::recover(db.crash());
                    db = db2;
                    clk = Clk::new();
                    verify(&db, h, idx, &model, &unindexed);
                }
                Op::SsdDeath => {
                    let plan = ssd_plan.get_or_insert_with(|| {
                        let p = Arc::new(FaultPlan::new(FaultConfig::quiet(case)));
                        db.io().set_ssd_fault(Some(Arc::clone(&p)));
                        p
                    });
                    plan.kill(clk.now);
                }
                Op::Brownout => {
                    // A stall train starting now: 50ms slow windows every
                    // 200ms until the end of the (virtual) run. Only the
                    // first Brownout in a sequence installs a plan; later
                    // ones are no-ops, like repeated SsdDeath kills.
                    ssd_plan.get_or_insert_with(|| {
                        let p = Arc::new(FaultPlan::new(FaultConfig::brownout_train(
                            case,
                            clk.now,
                            clk.now + 10 * SECOND,
                            200 * MILLISECOND,
                            50 * MILLISECOND,
                            25,
                        )));
                        db.io().set_ssd_fault(Some(Arc::clone(&p)));
                        p
                    });
                }
                Op::CrashDuringRecovery { inner } => {
                    let image = db.crash();
                    // Arm a fresh switch over recovery's own durable
                    // writes: boundary `inner` is the last one to persist.
                    image
                        .io()
                        .set_crash_switch(Some(Arc::new(CrashSwitch::armed(inner as u64, false))));
                    let (db2, _) = recover_until_converged(image);
                    db = db2;
                    clk = Clk::new();
                    verify(&db, h, idx, &model, &unindexed);
                }
                Op::CorruptWal { byte, mask } => {
                    let len = db.log().durable_len();
                    if len == 0 {
                        continue;
                    }
                    // XOR a nonzero mask into a pseudo-random durable byte.
                    db.corrupt_log(byte as usize % len, mask | 1);
                    let (db2, report) = recover_until_converged(db.crash());
                    db = db2;
                    clk = Clk::new();
                    // Whatever survived must be *some* committed state:
                    // every present rid holds bytes it held at a commit
                    // point, and nothing outside the model's key space
                    // appears (insert rids are append-only, so a rolled-back
                    // heap is a subset of the model's rids).
                    let mut recovered: BTreeMap<u64, (u8, u8)> = BTreeMap::new();
                    db.scan_heap(&mut clk, h, |rid, rec| {
                        recovered.insert(rid, (rec[0], rec[1]));
                    })
                    .unwrap();
                    for (rid, pair) in &recovered {
                        assert!(
                            history.get(rid).is_some_and(|s| s.contains(pair)),
                            "case {case}: rid {rid} surfaced never-committed bytes {pair:?}"
                        );
                    }
                    // If the corruption cost us anything relative to the
                    // model, the report must say so loudly: either mid-log
                    // damage, or a shortened (truncated) tail.
                    if recovered != model {
                        assert!(
                            report.is_damaged() || matches!(report.log.tail, LogTail::Torn { .. }),
                            "case {case}: state rolled back silently: {report:?}"
                        );
                        // Adopt the survivor as the new baseline. Heap and
                        // index pages roll back independently (an eviction
                        // write can strand one side on disk past the damage
                        // point), so re-probe which rids still have their
                        // index entry and exempt the rest from index checks.
                        model = recovered;
                        unindexed.clear();
                        let mut txn = db.begin(&mut clk);
                        for &rid in model.keys() {
                            if txn.index_get(idx, rid * 2 + 1) != Some(rid) {
                                unindexed.insert(rid);
                            }
                        }
                        txn.commit();
                    }
                }
                Op::TransientIoError => {
                    // Low enough that the capped retry policy virtually
                    // never exhausts (final-failure odds ~p^6 per request).
                    disk_plan.get_or_insert_with(|| {
                        let p = Arc::new(FaultPlan::new(FaultConfig::transient(case, 0.02)));
                        db.io().set_disk_fault(Some(Arc::clone(&p)));
                        p
                    });
                    ssd_plan.get_or_insert_with(|| {
                        let p =
                            Arc::new(FaultPlan::new(FaultConfig::transient(case ^ 0xDEAD, 0.02)));
                        db.io().set_ssd_fault(Some(Arc::clone(&p)));
                        p
                    });
                }
            }
        }
        // Final crash + verification regardless of the op tail.
        let (db2, _) = Database::recover(db.crash());
        verify(&db2, h, idx, &model, &unindexed);
    }
}
