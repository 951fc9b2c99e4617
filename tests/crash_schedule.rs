//! Exhaustive crash-schedule sweeps (recovery-hardening extension).
//!
//! For each design, a seeded trace is recorded to number every durable-write
//! boundary, then replayed once per boundary with power failing exactly
//! there — persist and torn — plus double crashes that interrupt recovery
//! itself. Every incarnation must recover to the state commit attribution
//! predicts, and the sweep must be bit-identical across reruns. The last
//! two sweeps run traces that break the SSD partway through.

use turbopool::core::SsdConfig;
use turbopool::core::SsdDesign::{self, CleanWrite, DualWrite, LazyCleaning, Tac};
use turbopool::engine::explorer::{explore_ops, Fault, Op, Rig};
use turbopool::engine::{explore, ExplorerConfig, ExplorerOutcome};

fn ssd(design: SsdDesign) -> Option<SsdConfig> {
    let mut s = SsdConfig::new(design, 32);
    s.partitions = 2;
    s.lambda = 0.5;
    // Exercise checkpoint-embedded SSD tables and probed re-adoption in
    // the crash schedules (TAC ignores the flag).
    s.warm_restart = true;
    Some(s)
}

fn config(ssd: Option<SsdConfig>) -> ExplorerConfig {
    ExplorerConfig {
        ops: 40,
        checkpoint_every: 8,
        cut_stride: 1, // exhaustive: every boundary is a crash point
        double_crash_stride: 6,
        ..ExplorerConfig::new(ssd)
    }
}

/// The default trace of `design` with its index, and `faults` armed just
/// before the third checkpoint, swept exhaustively.
fn sweep_through(design: SsdDesign, faults: &[Fault]) -> ExplorerOutcome {
    let cfg = config(ssd(design));
    let mut ops = cfg.trace();
    ops.splice(23..23, faults.iter().map(|&f| Op::Arm(f)));
    let rig = Rig {
        index: true,
        ..cfg.rig()
    };
    let out = explore_ops(&rig, &ops, cfg.cut_stride, cfg.double_crash_stride);
    check(&out);
    let cut_after = out.first_fault_at.is_some_and(|at| at < out.boundaries);
    assert!(cut_after, "no cut lands after the fault: {out:?}");
    out
}

fn check(out: &ExplorerOutcome) {
    // Exhaustive coverage: one persist + one torn schedule per boundary.
    assert_eq!(out.schedules_run, out.boundaries * 2);
    // Every kind of durable write appeared in the trace; a missing kind
    // means the trace no longer exercises that device's crash points.
    assert!(out.counts.log_flushes > 0, "no log-flush boundaries");
    assert!(out.counts.disk_pages > 0, "no disk-page boundaries");
    assert!(out.ssd.is_none() || out.counts.ssd_frames > 0);
    // Some double-crash schedules caught recovery mid-redo, forcing a
    // re-entrant second pass.
    assert!(out.double_crash_interrupted > 0, "{out:?}");
}

#[test]
fn exhaustive_sweep_nossd() {
    check(&explore(&config(None)));
}

#[test]
fn exhaustive_sweep_clean_write() {
    check(&explore(&config(ssd(CleanWrite))));
}

#[test]
fn exhaustive_sweep_dual_write() {
    check(&explore(&config(ssd(DualWrite))));
}

#[test]
fn exhaustive_sweep_lazy_cleaning() {
    check(&explore(&config(ssd(LazyCleaning))));
}

#[test]
fn exhaustive_sweep_tac() {
    check(&explore(&config(ssd(Tac))));
}

/// LC's SSD dies holding the sole copy of dirty pages: they are stranded,
/// salvaged from the WAL tail, and the machine crashes at every boundary
/// on either side of both.
#[test]
fn exhaustive_sweep_lazy_cleaning_through_ssd_death() {
    let m = sweep_through(LazyCleaning, &[Fault::Death]).ssd.unwrap();
    assert_eq!(m.ssd_quarantined, 1);
    assert!(m.stranded_dirty > 0, "the death stranded nothing: {m:?}");
    assert!(m.salvaged_pages > 0, "nothing was salvaged: {m:?}");
}

/// Transient SSD and disk errors under the write-through designs: retried
/// writes are crash points too.
#[test]
fn exhaustive_sweeps_through_transient_errors() {
    for design in [DualWrite, Tac] {
        let faults = [Fault::Transient(0.2), Fault::DiskTransient(0.2)];
        let m = sweep_through(design, &faults).ssd.unwrap();
        assert!(m.ssd_io_errors > 0, "{design:?}: no error fired: {m:?}");
    }
}

/// The whole sweep — boundary numbering, every recovered value, every
/// report — replays bit-identically. This is the property that makes a
/// crash-schedule failure reproducible from nothing but its cut number.
#[test]
fn sweep_is_bit_identical_across_reruns() {
    let mut cfg = config(ssd(LazyCleaning));
    let a = explore(&cfg);
    assert_eq!(a, explore(&cfg), "rerun diverged");
    // And the fingerprint is sensitive to the schedule outcomes: a
    // different trace must not collide.
    cfg.seed ^= 1;
    let c = explore(&cfg);
    assert_ne!(a.fingerprint, c.fingerprint, "fingerprint ignores the data");
}

/// Strided sweep across all five designs — the cheap smoke test that
/// `scripts/check.sh` runs on every change.
#[test]
fn quick_sweep_all_designs() {
    let designs = [CleanWrite, DualWrite, LazyCleaning, Tac].map(ssd);
    for design in [None].into_iter().chain(designs) {
        let out = explore(&ExplorerConfig {
            ops: 16,
            checkpoint_every: 6,
            cut_stride: 9,
            double_crash_stride: 18,
            ..ExplorerConfig::new(design)
        });
        assert!(out.schedules_run > 0);
    }
}
