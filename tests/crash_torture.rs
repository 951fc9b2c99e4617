//! Property-based crash torture: random operations with random crash
//! points, verified against the committed state.
//!
//! Each case is a seeded op list run by the one fault-and-crash harness
//! (`engine::explorer`): every crash, crash during recovery, WAL
//! corruption and SSD fault below is an op of its vocabulary, and every
//! recovery is judged by its oracles — across all SSD designs, with
//! checkpoints and reads sprinkled in.

use turbopool::core::SsdConfig;
use turbopool::core::SsdDesign::{CleanWrite, DualWrite, LazyCleaning, Tac};
use turbopool::engine::explorer::{run, Fault, Op, Rig};
use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};

/// Weighted op draw: 5 inserts : 4 updates : 2 reads : 1 delete : 1
/// aborted insert : 1 checkpoint : 2 crashes, plus one slot each for the
/// four device faults and the two restart-time faults.
fn draw_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0u32..22) {
        0..=4 => Op::Insert(rng.gen()),
        5..=8 => Op::Update(rng.gen(), rng.gen()),
        9..=10 => Op::Read(rng.gen()),
        11 => Op::Delete(rng.gen()),
        12 => Op::AbortedInsert,
        13 => Op::Checkpoint,
        14..=15 => Op::Crash,
        16 => Op::Arm(Fault::Death),
        // Low enough that the capped retry policy virtually never
        // exhausts (final-failure odds ~p^6 per request).
        17 => Op::Arm(Fault::Transient(0.02)),
        18 => Op::Arm(Fault::DiskTransient(0.02)),
        19 => Op::Arm(Fault::Brownout),
        20 => Op::CrashDuringRecovery(rng.gen_range(0u64..8)),
        _ => Op::CorruptWal(rng.gen(), rng.gen()),
    }
}

#[test]
fn committed_state_survives_random_crashes() {
    // 25 seeded cases: every design five times, with fresh op sequences.
    for case in 0u64..25 {
        // The fifth design is noSSD.
        let design = [CleanWrite, DualWrite, LazyCleaning, Tac].get(case as usize % 5);
        let ssd = design.map(|&d| SsdConfig {
            partitions: 2,
            lambda: 0.7,
            ..SsdConfig::new(d, 48)
        });
        let rig = Rig {
            record: 32,
            index: true,
            seed: case,
            ..Rig::new(12, 1024, ssd)
        };
        let mut rng = SmallRng::seed_from_u64(0xC4A54 ^ case);
        let mut ops: Vec<Op> = (0..rng.gen_range(10usize..120))
            .map(|_| draw_op(&mut rng))
            .collect();
        // A final crash regardless of the op tail.
        ops.push(Op::Crash);
        run(&rig, &ops);
    }
}
