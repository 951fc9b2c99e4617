//! Exhaustive crash-schedule exploration.
//!
//! The recovery code path is only as trustworthy as the set of crash points
//! it has been tested against. This module makes that set *exhaustive* for a
//! seeded trace: a recording run numbers every durable-write boundary (disk
//! page writes, SSD frame writes, log flushes) with a
//! [`CrashSwitch`] in recorder mode, then the trace is replayed once per
//! boundary with the switch armed there — power fails at exactly that write
//! (and, in the torn variant, *during* it). Each incarnation is recovered
//! with [`Database::try_recover`] and its surviving contents are checked
//! against an oracle computed from commit attribution alone.
//!
//! The oracle needs no I/O model: a transaction is durable iff its commit
//! log-flush boundary persisted. The recorder captures the boundary sequence
//! number `f_i` of every operation's commit flush; crashing at cut `k` makes
//! operation `i` durable iff `f_i <= k` (or `f_i < k` when the cut boundary
//! is torn — a torn flush loses its final byte, so its commit record never
//! decodes). Because the durable set is always a prefix of the trace, the
//! expected post-recovery state is a pure fold over the trace prefix.
//!
//! Double-crash schedules re-arm a second switch over *recovery's own*
//! writes: the first reboot's redo pass is interrupted mid-write, the
//! machine reboots again, and recovery re-runs from the handed-back
//! [`CrashImage`] until it converges — exercising the re-entrancy contract
//! end to end.
//!
//! Everything is deterministic: same config, same outcome, bit for bit —
//! [`ExplorerOutcome::fingerprint`] folds every recovered value and report
//! into one u64 so reruns can assert exact equality.

use std::sync::Arc;

use turbopool_core::SsdConfig;
use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool_iosim::{fault, BoundaryCounts, Clk, CrashSwitch};

use crate::config::DbConfig;
use crate::db::{Database, HeapId, RecoveryReport};
use crate::heap::Rid;

/// Record payload size for the explorer's heap (bytes). Nearly a full
/// 256-byte test page, so every insert opens a fresh page — a short trace
/// then overflows the 8-frame pool and the boundary stream gets evictions,
/// SSD admissions, and cleaning, not just commit flushes.
const RECORD_SIZE: usize = 200;
/// Heap extent in pages.
const HEAP_PAGES: u64 = 128;

/// One pre-resolved workload step. The trace is generated up front from the
/// seed so replaying it consumes no randomness — replay divergence would
/// silently invalidate the oracle.
#[derive(Debug, Clone, Copy)]
enum TraceOp {
    /// Insert a fresh record holding `val` (rids are assigned sequentially).
    Insert { val: u64 },
    /// Overwrite the record at `rid` with `val`.
    Update { rid: Rid, val: u64 },
    /// Read the record at `rid` (read-only transaction: no log flush, but
    /// misses drive SSD admissions and page temperature).
    Read { rid: Rid },
    /// Sharp checkpoint (flush everything, truncate the log, embed the SSD
    /// table when warm restart is on).
    Checkpoint,
}

/// What to explore. `ssd: None` is the noSSD baseline.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// SSD design under test (admission/cleaning policy, warm restart…).
    pub ssd: Option<SsdConfig>,
    /// Trace length in operations (inserts/updates/checkpoints).
    pub ops: usize,
    /// Trace seed.
    pub seed: u64,
    /// Take a checkpoint every this many operations (0 = never).
    pub checkpoint_every: usize,
    /// Also run the torn variant of every cut (power fails *during* the
    /// write instead of just after it).
    pub torn_variants: bool,
    /// Explore every `cut_stride`-th boundary (1 = exhaustive).
    pub cut_stride: u64,
    /// Every this many cuts, additionally interrupt recovery itself with a
    /// second armed switch (0 = no double-crash schedules).
    pub double_crash_stride: u64,
}

impl ExplorerConfig {
    /// Defaults sized for an exhaustive sweep that stays test-suite cheap.
    pub fn new(ssd: Option<SsdConfig>) -> Self {
        ExplorerConfig {
            ssd,
            ops: 32,
            seed: 0x5EED_CA55,
            checkpoint_every: 10,
            torn_variants: true,
            cut_stride: 1,
            double_crash_stride: 8,
        }
    }
}

/// What an exploration sweep covered and concluded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorerOutcome {
    /// Durable-write boundaries the recording run observed.
    pub boundaries: u64,
    /// The same, broken down by kind.
    pub counts: BoundaryCounts,
    /// Crash schedules replayed, recovered, and verified.
    pub schedules_run: u64,
    /// How many of those tore the cut write.
    pub torn_schedules: u64,
    /// Schedules that also armed a switch over recovery's writes.
    pub double_crash_armed: u64,
    /// Of those, schedules where recovery was actually interrupted and had
    /// to re-enter (the armed boundary was reached before redo finished).
    pub double_crash_interrupted: u64,
    /// Most recovery attempts any single schedule needed to converge.
    pub max_recovery_attempts: u32,
    /// Schedules whose recovery reported lost committed data. Pure power
    /// failures never corrupt the log mid-stream, so this must stay 0.
    pub damaged_reports: u64,
    /// Order-sensitive fold of every schedule's recovered values and
    /// recovery report — bit-identical across reruns of the same config.
    pub fingerprint: u64,
}

/// Run the full sweep. Panics with a schedule-identifying message on any
/// verification failure; returns the coverage summary otherwise.
pub fn explore(cfg: &ExplorerConfig) -> ExplorerOutcome {
    let trace = gen_trace(cfg);
    let rec = record_run(cfg, &trace);
    assert!(
        rec.boundaries > 0,
        "trace produced no durable writes — nothing to explore"
    );
    let mut out = ExplorerOutcome {
        boundaries: rec.boundaries,
        counts: rec.counts,
        ..ExplorerOutcome::default()
    };
    let mut fp: u64 = 0;
    let stride = cfg.cut_stride.max(1);
    let mut cut = 0;
    while cut < rec.boundaries {
        for torn in [false, true] {
            if torn && !cfg.torn_variants {
                continue;
            }
            let double = cfg.double_crash_stride != 0 && cut % cfg.double_crash_stride == 0;
            let (db, h, report, attempts, interrupted) =
                run_schedule(cfg, &trace, cut, torn, double);
            out.schedules_run += 1;
            out.torn_schedules += u64::from(torn);
            out.double_crash_armed += u64::from(double);
            out.double_crash_interrupted += u64::from(interrupted);
            out.max_recovery_attempts = out.max_recovery_attempts.max(attempts);
            out.damaged_reports += u64::from(report.is_damaged());
            let digest = verify(&db, h, &trace, &rec.commit_seq, cut, torn);
            fp = fold(fp, schedule_digest(cut, torn, attempts, &report, digest));
        }
        cut += stride;
    }
    out.fingerprint = fp;
    out
}

// ---------------------------------------------------------------------
// Trace generation and execution
// ---------------------------------------------------------------------

fn build_db(cfg: &ExplorerConfig) -> Database {
    let mut dbc = DbConfig::small_for_tests();
    dbc.pool.db_pages = 512;
    // A small pool forces evictions and re-read misses, so the boundary
    // stream mixes page writes and SSD admissions between the commit
    // flushes instead of being all-log.
    dbc.pool.frames = 6;
    dbc.ssd = cfg.ssd.clone();
    Database::open(dbc)
}

fn record_bytes(val: u64) -> [u8; RECORD_SIZE] {
    let mut rec = [0u8; RECORD_SIZE];
    rec[..8].copy_from_slice(&val.to_le_bytes());
    rec
}

fn gen_trace(cfg: &ExplorerConfig) -> Vec<TraceOp> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut ops = Vec::with_capacity(cfg.ops);
    let mut inserted: u64 = 0;
    for i in 0..cfg.ops {
        if cfg.checkpoint_every != 0 && i > 0 && i % cfg.checkpoint_every == 0 {
            ops.push(TraceOp::Checkpoint);
            continue;
        }
        // Values are unique per operation so an update is always a real
        // page diff (and a wrong survivor is attributable to its writer).
        let val = ((i as u64 + 1) << 20) | rng.gen_range(0u64..1 << 20);
        // Uniform revisits: reuse distance grows with the trace, so pages
        // fall out of the pool and come back as read misses — the events
        // that drive SSD admissions (and TAC's temperature bookkeeping).
        let r: f64 = rng.gen();
        if inserted == 0 || r < 0.45 {
            ops.push(TraceOp::Insert { val });
            inserted += 1;
        } else if r < 0.70 {
            ops.push(TraceOp::Update {
                rid: rng.gen_range(0..inserted),
                val,
            });
        } else {
            ops.push(TraceOp::Read {
                rid: rng.gen_range(0..inserted),
            });
        }
    }
    ops
}

/// Execute one trace op. Returns whether it committed — always true in the
/// fault-free recording run; after the switch fires, commits abort and
/// checkpoints degrade, both of which the oracle already accounts for.
fn apply(db: &Database, clk: &mut Clk, h: HeapId, op: &TraceOp) -> bool {
    match *op {
        TraceOp::Insert { val } => {
            let mut txn = db.begin(clk);
            #[expect(
                clippy::let_underscore_must_use,
                reason = "HeapFull, the only error, needs more than HEAP_PAGES inserts (one \
                          record per page); the oracle numbers rids by counting inserts, so the \
                          returned rid is not needed"
            )]
            let _ = txn.heap_insert(h, &record_bytes(val));
            txn.commit().is_committed()
        }
        TraceOp::Update { rid, val } => {
            let mut txn = db.begin(clk);
            txn.heap_update(h, rid, &record_bytes(val));
            txn.commit().is_committed()
        }
        TraceOp::Read { rid } => {
            let mut txn = db.begin(clk);
            let _ = txn.heap_get(h, rid);
            txn.commit().is_committed()
        }
        TraceOp::Checkpoint => {
            db.checkpoint(clk);
            true
        }
    }
}

// ---------------------------------------------------------------------
// Recording run: number the boundaries, attribute the commits
// ---------------------------------------------------------------------

struct Recording {
    boundaries: u64,
    counts: BoundaryCounts,
    /// Per op: the boundary sequence number of its commit log-flush
    /// (`None` for checkpoints, which carry no user data).
    commit_seq: Vec<Option<u64>>,
}

fn record_run(cfg: &ExplorerConfig, trace: &[TraceOp]) -> Recording {
    let db = build_db(cfg);
    let sw = Arc::new(CrashSwitch::recorder());
    db.io().set_crash_switch(Some(Arc::clone(&sw)));
    let mut clk = Clk::new();
    let h = db.create_heap(&mut clk, "t", RECORD_SIZE, HEAP_PAGES);
    let mut commit_seq = Vec::with_capacity(trace.len());
    for op in trace {
        let committed = apply(&db, &mut clk, h, op);
        assert!(committed, "recording run is fault-free");
        commit_seq.push(match op {
            // Reads and checkpoints carry no user data: a read-only commit
            // never flushes, so the most recent log-flush boundary would be
            // some *earlier* op's — it must not be attributed here.
            TraceOp::Checkpoint | TraceOp::Read { .. } => None,
            // Each mutating commit flushes exactly once, and nothing else
            // flushes between ops, so the most recent log-flush boundary is
            // this op's commit flush.
            _ => Some(sw.last_log_flush_seq().expect("commit flushed the log")),
        });
    }
    Recording {
        boundaries: sw.boundaries(),
        counts: sw.counts(),
        commit_seq,
    }
}

// ---------------------------------------------------------------------
// One schedule: replay to the cut, reboot, recover (possibly repeatedly)
// ---------------------------------------------------------------------

fn run_schedule(
    cfg: &ExplorerConfig,
    trace: &[TraceOp],
    cut: u64,
    torn: bool,
    double: bool,
) -> (Database, HeapId, RecoveryReport, u32, bool) {
    let db = build_db(cfg);
    let sw = Arc::new(CrashSwitch::armed(cut, torn));
    db.io().set_crash_switch(Some(Arc::clone(&sw)));
    let mut clk = Clk::new();
    let h = db.create_heap(&mut clk, "t", RECORD_SIZE, HEAP_PAGES);
    for op in trace {
        apply(&db, &mut clk, h, op);
        if sw.fired() {
            break;
        }
    }
    assert!(
        sw.fired(),
        "replay diverged: cut {cut} inside {} recorded boundaries never fired",
        trace.len()
    );
    let mut image = db.crash();
    if double {
        // The next incarnation's power is also doomed: a second switch armed
        // over recovery's own durable writes. Vary the inner cut with the
        // outer one so different depths of the redo pass get interrupted.
        let inner = 1 + cut % 4;
        image
            .io()
            .set_crash_switch(Some(Arc::new(CrashSwitch::armed(inner, false))));
    } else {
        // Power restored for the reboot.
        image.io().set_crash_switch(None);
    }
    let mut attempts = 0u32;
    let mut interrupted = false;
    loop {
        attempts += 1;
        assert!(
            attempts <= 8,
            "recovery did not converge for cut {cut} (torn={torn})"
        );
        match Database::try_recover(image) {
            Ok((db, report)) => {
                if db.io().power_lost() {
                    // The inner switch fired on recovery's very last write:
                    // recovery "completed" into a dead machine. Reboot once
                    // more with power restored.
                    interrupted = true;
                    db.io().set_crash_switch(None);
                    image = db.crash();
                    continue;
                }
                db.io().set_crash_switch(None);
                return (db, h, report, attempts, interrupted);
            }
            Err(e) => {
                // Mid-recovery power loss: the image comes back unchanged
                // (redo is idempotent). Reboot with power restored and
                // re-enter recovery.
                interrupted = true;
                image = e.image;
                image.io().set_crash_switch(None);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Oracle and verification
// ---------------------------------------------------------------------

fn durable(f: Option<u64>, cut: u64, torn: bool) -> bool {
    match f {
        // The cut boundary itself persists unless torn; a torn log flush
        // loses its final byte, so its commit record never decodes.
        Some(f) if torn => f < cut,
        Some(f) => f <= cut,
        None => false,
    }
}

/// Fold the durable prefix of the trace into the expected heap image:
/// one slot per insert (in rid order), `None` where the insert was not
/// durable — those rids must read back as absent.
fn expected_state(
    trace: &[TraceOp],
    commit_seq: &[Option<u64>],
    cut: u64,
    torn: bool,
) -> Vec<Option<u64>> {
    let mut vals: Vec<Option<u64>> = Vec::new();
    for (i, op) in trace.iter().enumerate() {
        let d = durable(commit_seq[i], cut, torn);
        match *op {
            TraceOp::Insert { val } => vals.push(d.then_some(val)),
            TraceOp::Update { rid, val } => {
                if d {
                    vals[rid as usize] = Some(val);
                }
            }
            TraceOp::Read { .. } | TraceOp::Checkpoint => {}
        }
    }
    vals
}

/// Check every rid the trace ever inserted against the oracle; returns a
/// digest of the recovered values for the rerun fingerprint.
fn verify(
    db: &Database,
    h: HeapId,
    trace: &[TraceOp],
    commit_seq: &[Option<u64>],
    cut: u64,
    torn: bool,
) -> u64 {
    let vals = expected_state(trace, commit_seq, cut, torn);
    let mut bytes = Vec::with_capacity(vals.len() * 9);
    let mut clk = Clk::new();
    let mut txn = db.begin(&mut clk);
    for (rid, want) in vals.iter().enumerate() {
        let got = txn
            .heap_get(h, rid as Rid)
            .map(|rec| u64::from_le_bytes(rec[..8].try_into().unwrap()));
        assert_eq!(
            got, *want,
            "schedule cut={cut} torn={torn}: rid {rid} recovered wrong \
             (None = record absent)"
        );
        bytes.push(got.is_some() as u8);
        bytes.extend_from_slice(&got.unwrap_or(0).to_le_bytes());
    }
    assert!(
        txn.poisoned().is_none(),
        "schedule cut={cut} torn={torn}: verification reads hit I/O errors"
    );
    txn.commit();
    fault::checksum(&bytes)
}

/// One schedule's contribution to the sweep fingerprint: identity, the
/// recovered values, and the load-bearing report numbers.
fn schedule_digest(
    cut: u64,
    torn: bool,
    attempts: u32,
    report: &RecoveryReport,
    values: u64,
) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(&cut.to_le_bytes());
    bytes.push(torn as u8);
    bytes.extend_from_slice(&attempts.to_le_bytes());
    bytes.extend_from_slice(&(report.stats.records_scanned as u64).to_le_bytes());
    bytes.extend_from_slice(&(report.stats.txns_redone as u64).to_le_bytes());
    bytes.extend_from_slice(&(report.stats.writes_applied as u64).to_le_bytes());
    bytes.extend_from_slice(&(report.log.valid_len as u64).to_le_bytes());
    bytes.push(report.log.used_checkpoint as u8);
    if let Some(w) = &report.warm {
        bytes.extend_from_slice(&w.imported.to_le_bytes());
        bytes.extend_from_slice(&w.rejected_stale.to_le_bytes());
        bytes.extend_from_slice(&w.rejected_checksum.to_le_bytes());
    }
    bytes.extend_from_slice(&values.to_le_bytes());
    fault::checksum(&bytes)
}

fn fold(acc: u64, digest: u64) -> u64 {
    // Order-sensitive combination (schedules are enumerated
    // deterministically, so order is part of the contract).
    acc.rotate_left(7) ^ digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_core::SsdDesign;

    fn tiny(ssd: Option<SsdConfig>) -> ExplorerConfig {
        let mut cfg = ExplorerConfig::new(ssd);
        cfg.ops = 10;
        cfg.checkpoint_every = 4;
        cfg.cut_stride = 7;
        cfg.double_crash_stride = 14;
        cfg
    }

    #[test]
    fn oracle_is_a_prefix_fold() {
        let trace = [
            TraceOp::Insert { val: 10 },
            TraceOp::Insert { val: 20 },
            TraceOp::Update { rid: 0, val: 30 },
            TraceOp::Checkpoint,
            TraceOp::Insert { val: 40 },
        ];
        let seq = [Some(2), Some(5), Some(9), None, Some(12)];
        // Cut after the update's flush but before the last insert's.
        let v = expected_state(&trace, &seq, 9, false);
        assert_eq!(v, vec![Some(30), Some(20), None]);
        // Torn at the update's own flush: the update is not durable.
        let v = expected_state(&trace, &seq, 9, true);
        assert_eq!(v, vec![Some(10), Some(20), None]);
        // Before anything.
        let v = expected_state(&trace, &seq, 1, false);
        assert_eq!(v, vec![None, None, None]);
    }

    #[test]
    fn tiny_sweep_verifies_nossd() {
        let out = explore(&tiny(None));
        assert!(out.boundaries > 0);
        assert!(out.schedules_run > 0);
        assert_eq!(out.damaged_reports, 0);
        assert!(out.counts.log_flushes > 0);
    }

    #[test]
    fn tiny_sweep_is_deterministic() {
        let cfg = tiny(Some(SsdConfig::new(SsdDesign::LazyCleaning, 32)));
        let a = explore(&cfg);
        let b = explore(&cfg);
        assert_eq!(a, b, "same config must explore bit-identically");
    }
}
