//! Always-on invariant auditor for the SSD buffer-table state machine.
//!
//! Every page cached on the SSD moves through a small state machine
//! (absent → clean → dirty/invalid → …). The designs differ in which
//! transitions are legal, and [`transition`] reads that from two columns
//! of the design's policy row ([`SsdDesign::policy`]): `Dirty` is reachable
//! only under write-back (LC), `Invalid` only under logical invalidation
//! (TAC). The auditor shadows the buffer table with one [`FrameState`]
//! per cached page and validates every observed transition against the
//! table. That every legal result also passes the Figure 3 coherence
//! chart (`crate::coherence::classify`) is a property of the table, not
//! of a run, so a test checks it once over every design, state and op.
//!
//! Every build runs it. Violations are counted (see
//! `SsdMetrics::audit_violations`) and, in debug builds, abort the run
//! with a panic so tests fail loudly at the first illegal transition
//! instead of at a downstream data divergence.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use turbopool_iosim::sync::{Mutex, Rank};
use turbopool_iosim::{PageId, PageTable};

use crate::config::SsdDesign;

/// Logical state of one page's SSD copy. A page with no entry is absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameState {
    /// The SSD copy matches the disk version.
    Clean,
    /// The SSD copy is newer than disk (LC write-back only).
    Dirty,
    /// TAC logical invalidation: the frame is occupied but its contents
    /// are stale and must never be served.
    Invalid,
    /// Terminal state: the SSD was quarantined (device death or error
    /// budget exhausted) with this page still cached. No further
    /// transition is legal; the frame is unreachable forever.
    Quarantined,
}

/// One observable transition of the buffer-table state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditOp {
    /// A page entered the cache (eviction-time install, TAC write-on-read,
    /// or the DW checkpoint mirror). `dirty` is legal only under LC.
    Admit { dirty: bool },
    /// A checkpointed buffer-table entry was re-adopted at restart.
    WarmImport,
    /// A clean replacement victim left the cache.
    Replace,
    /// LC: a dirty victim was cleaned inline and removed (no clean victim
    /// existed).
    InlineClean,
    /// CW/DW/LC physical invalidation: an in-memory dirtying removed the
    /// entry and freed the frame.
    Invalidate,
    /// TAC logical invalidation: the entry stays, marked invalid.
    LogicalInvalidate,
    /// TAC: an in-flight on-read SSD write was cancelled by a dirtying;
    /// the entry vanishes as if never admitted.
    Cancel,
    /// LC: the lazy cleaner or a sharp checkpoint flushed a dirty page to
    /// disk; the entry stays, now clean.
    Clean,
    /// TAC: a write-through (eviction or checkpoint) rewrote the SSD copy
    /// with the current contents, making it valid.
    Refresh,
    /// The SSD was quarantined with this page still cached; the entry
    /// enters the terminal [`FrameState::Quarantined`] state (legal from
    /// any occupied state, under every design).
    Quarantine,
    /// The SSD copy failed checksum verification (torn write or bit-flip)
    /// or became unreadable; the entry is dropped. Dirty copies can be
    /// lost this way only under LC, which rebuilds the page on disk from
    /// the WAL tail at once.
    CorruptInvalidate,
}

/// An illegal transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditError {
    pub design: SsdDesign,
    pub op: AuditOp,
    /// State before the transition (`None` = absent).
    pub from: Option<FrameState>,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} forbids {:?} from state {:?}",
            self.design, self.op, self.from
        )
    }
}

/// The transition table, read through the design's policy row. Returns
/// the resulting state (`None` = absent) or an error when `op` is illegal
/// from `from` under `design`.
pub fn transition(
    design: SsdDesign,
    from: Option<FrameState>,
    op: AuditOp,
) -> Result<Option<FrameState>, AuditError> {
    use FrameState::*;
    let policy = design.policy();
    // Only write-back reaches `Dirty`; only logical invalidation `Invalid`.
    let (back, logical) = (policy.write_back(), policy.logical_invalidation);
    let illegal = Err(AuditError { design, op, from });
    match (op, from) {
        (AuditOp::Admit { dirty: false } | AuditOp::WarmImport, None) => Ok(Some(Clean)),
        (AuditOp::Admit { dirty: true }, None) if back => Ok(Some(Dirty)),
        (AuditOp::Replace, Some(Clean)) => Ok(None),
        (AuditOp::InlineClean, Some(Dirty)) if back => Ok(None),
        (AuditOp::Invalidate, Some(Clean)) if !logical => Ok(None),
        (AuditOp::Invalidate, Some(Dirty)) if back => Ok(None),
        (AuditOp::LogicalInvalidate, Some(Clean)) if logical => Ok(Some(Invalid)),
        (AuditOp::Cancel, Some(Clean)) if logical => Ok(None),
        (AuditOp::Clean, Some(Dirty)) if back => Ok(Some(Clean)),
        (AuditOp::Refresh, Some(Clean | Invalid)) if logical => Ok(Some(Clean)),
        // Quarantine freezes whatever was cached; an absent page has
        // nothing to freeze and Quarantined itself is terminal.
        (AuditOp::Quarantine, Some(Clean | Dirty | Invalid)) => Ok(Some(Quarantined)),
        (AuditOp::CorruptInvalidate, Some(Clean)) => Ok(None),
        (AuditOp::CorruptInvalidate, Some(Invalid)) if logical => Ok(None),
        (AuditOp::CorruptInvalidate, Some(Dirty)) if back => Ok(None),
        _ => illegal,
    }
}

/// Shadow state machine over the SSD buffer table.
///
/// Owned by [`crate::SsdManager`], which reports every table mutation
/// through [`InvariantAuditor::observe`].
#[derive(Debug)]
pub struct InvariantAuditor {
    design: SsdDesign,
    violations: AtomicU64,
    /// Page number → state; `None` is an absent page.
    states: Mutex<PageTable<Option<FrameState>>>,
}

impl InvariantAuditor {
    /// An auditor of `design`'s table over a database of `db_pages` pages.
    pub fn new(design: SsdDesign, db_pages: u64) -> Self {
        InvariantAuditor {
            design,
            violations: AtomicU64::new(0),
            states: Mutex::ranked(Rank::AuditorStates, PageTable::new(db_pages, None)),
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Validate one transition and advance the shadow state. Returns the
    /// error (after counting it) so the owner can also panic or record it
    /// into its metrics.
    pub fn observe(&self, pid: PageId, op: AuditOp) -> Result<(), AuditError> {
        let mut states = self.states.lock();
        let from = states.get(pid).flatten();
        match transition(self.design, from, op) {
            Ok(to) => {
                states.insert(pid, to);
                Ok(())
            }
            Err(e) => {
                self.violations.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Shadow state of `pid` (`None` when absent).
    #[cfg(test)]
    pub fn state_of(&self, pid: PageId) -> Option<FrameState> {
        self.states.lock().get(pid).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Database size of the unit tests: above every page id they use.
    const PAGES: u64 = 16;
    use FrameState::*;
    use SsdDesign::*;

    #[test]
    fn lc_lifecycle_is_legal() {
        let a = InvariantAuditor::new(LazyCleaning, PAGES);
        let p = PageId(7);
        assert!(a.observe(p, AuditOp::Admit { dirty: true }).is_ok());
        assert_eq!(a.state_of(p), Some(Dirty));
        assert!(a.observe(p, AuditOp::Clean).is_ok());
        assert_eq!(a.state_of(p), Some(Clean));
        assert!(a.observe(p, AuditOp::Replace).is_ok());
        assert_eq!(a.state_of(p), None);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn dirty_admission_outside_lc_is_a_violation() {
        for d in [CleanWrite, DualWrite, Tac] {
            let a = InvariantAuditor::new(d, PAGES);
            assert!(a
                .observe(PageId(1), AuditOp::Admit { dirty: true })
                .is_err());
            assert_eq!(a.violations(), 1, "{d:?}");
        }
    }

    #[test]
    fn tac_logical_invalidation_and_refresh() {
        let a = InvariantAuditor::new(Tac, PAGES);
        let p = PageId(3);
        a.observe(p, AuditOp::Admit { dirty: false }).unwrap();
        a.observe(p, AuditOp::LogicalInvalidate).unwrap();
        assert_eq!(a.state_of(p), Some(Invalid));
        a.observe(p, AuditOp::Refresh).unwrap();
        assert_eq!(a.state_of(p), Some(Clean));
        a.observe(p, AuditOp::Cancel).unwrap();
        assert_eq!(a.state_of(p), None);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn double_admission_is_a_violation() {
        let a = InvariantAuditor::new(DualWrite, PAGES);
        a.observe(PageId(1), AuditOp::Admit { dirty: false })
            .unwrap();
        assert!(a
            .observe(PageId(1), AuditOp::Admit { dirty: false })
            .is_err());
    }

    #[test]
    fn replacing_a_dirty_page_is_a_violation() {
        let a = InvariantAuditor::new(LazyCleaning, PAGES);
        a.observe(PageId(1), AuditOp::Admit { dirty: true })
            .unwrap();
        assert!(a.observe(PageId(1), AuditOp::Replace).is_err());
        // InlineClean is the legal way out of Dirty straight to Absent.
        let b = InvariantAuditor::new(LazyCleaning, PAGES);
        b.observe(PageId(1), AuditOp::Admit { dirty: true })
            .unwrap();
        assert!(b.observe(PageId(1), AuditOp::InlineClean).is_ok());
    }

    #[test]
    fn physical_vs_logical_invalidation_split() {
        // CW/DW/LC invalidate physically; TAC only logically.
        let a = InvariantAuditor::new(Tac, PAGES);
        a.observe(PageId(1), AuditOp::Admit { dirty: false })
            .unwrap();
        assert!(a.observe(PageId(1), AuditOp::Invalidate).is_err());
        let b = InvariantAuditor::new(DualWrite, PAGES);
        b.observe(PageId(1), AuditOp::Admit { dirty: false })
            .unwrap();
        assert!(b.observe(PageId(1), AuditOp::LogicalInvalidate).is_err());
        assert!(b.observe(PageId(1), AuditOp::Invalidate).is_ok());
    }

    /// Every (design, state, op) combination yields a defined verdict —
    /// the table never panics — and every legal result passes the
    /// Figure 3 chart. Symbolically disk is at version 1: a clean copy
    /// matches it, a dirty copy is newer, and invalid or quarantined
    /// frames are never served, so the SSD holds nothing for coherence.
    #[test]
    fn transition_table_is_total() {
        use crate::coherence::classify;
        let ops = [
            AuditOp::Admit { dirty: false },
            AuditOp::Admit { dirty: true },
            AuditOp::WarmImport,
            AuditOp::Replace,
            AuditOp::InlineClean,
            AuditOp::Invalidate,
            AuditOp::LogicalInvalidate,
            AuditOp::Cancel,
            AuditOp::Clean,
            AuditOp::Refresh,
            AuditOp::Quarantine,
            AuditOp::CorruptInvalidate,
        ];
        let version = |state| match state {
            Some(Clean) => Some(1),
            Some(Dirty) => Some(2),
            Some(Invalid | Quarantined) | None => None,
        };
        for d in [CleanWrite, DualWrite, LazyCleaning, Tac] {
            for from in [
                None,
                Some(Clean),
                Some(Dirty),
                Some(Invalid),
                Some(Quarantined),
            ] {
                for op in ops {
                    let Ok(to) = transition(d, from, op) else {
                        continue;
                    };
                    if to == Some(Dirty) {
                        assert_eq!(d, LazyCleaning, "Dirty reachable only under LC");
                    }
                    // Quarantined is terminal: no op may leave it.
                    assert_ne!(from, Some(Quarantined), "{d:?}/{op:?} escaped Quarantined");
                    let verdict = classify(d, None, version(to), 1);
                    assert!(
                        verdict.is_ok(),
                        "{d:?}: {from:?} -{op:?}-> {to:?}: {verdict:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn quarantine_is_terminal_from_every_occupied_state() {
        for d in [CleanWrite, DualWrite, LazyCleaning, Tac] {
            let a = InvariantAuditor::new(d, PAGES);
            let p = PageId(9);
            a.observe(p, AuditOp::Admit { dirty: false }).unwrap();
            a.observe(p, AuditOp::Quarantine).unwrap();
            assert_eq!(a.state_of(p), Some(Quarantined), "{d:?}");
            // Nothing — not even a fresh admission — revives the entry.
            assert!(a.observe(p, AuditOp::Admit { dirty: false }).is_err());
            assert!(a.observe(p, AuditOp::Quarantine).is_err());
            assert!(a.observe(p, AuditOp::Invalidate).is_err());
        }
        // LC quarantines dirty frames too (the stranded-page case).
        let a = InvariantAuditor::new(LazyCleaning, PAGES);
        a.observe(PageId(1), AuditOp::Admit { dirty: true })
            .unwrap();
        a.observe(PageId(1), AuditOp::Quarantine).unwrap();
        assert_eq!(a.state_of(PageId(1)), Some(Quarantined));
        // Quarantining an absent page is a violation.
        let b = InvariantAuditor::new(CleanWrite, PAGES);
        assert!(b.observe(PageId(2), AuditOp::Quarantine).is_err());
    }

    #[test]
    fn corrupt_invalidation_drops_the_entry() {
        // Clean corruption is survivable under every design.
        for d in [CleanWrite, DualWrite, LazyCleaning, Tac] {
            let a = InvariantAuditor::new(d, PAGES);
            a.observe(PageId(4), AuditOp::Admit { dirty: false })
                .unwrap();
            assert!(a.observe(PageId(4), AuditOp::CorruptInvalidate).is_ok());
            assert_eq!(a.state_of(PageId(4)), None, "{d:?}");
            assert_eq!(a.violations(), 0, "{d:?}");
        }
        // A dirty (sole-copy) loss is expressible only under LC.
        let a = InvariantAuditor::new(LazyCleaning, PAGES);
        a.observe(PageId(5), AuditOp::Admit { dirty: true })
            .unwrap();
        assert!(a.observe(PageId(5), AuditOp::CorruptInvalidate).is_ok());
        assert_eq!(a.state_of(PageId(5)), None);
    }
}
