//! The Figure 3 coherence invariant.
//!
//! With up to three copies of a page (memory, SSD, disk) only six
//! relationships are legal; a design that is not write-back additionally
//! never lets the SSD hold a version newer than disk (cases 4 and 6 are
//! LC's alone).
//! The classifier below takes *version numbers* (newer = greater). Besides
//! its own unit tests it runs in one place, `audit::tests::
//! transition_table_is_total`, which classifies the result of every legal
//! transition of the auditor's table once. No engine path calls it: the
//! live check, `tests/coherence.rs`, compares the three copies' page bytes.

use crate::config::SsdDesign;

/// The legal states of Figure 3. `P'` denotes a newer version than `P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceCase {
    /// Only the disk holds the page (not in the chart; trivially coherent).
    DiskOnly,
    /// Case 1: memory == disk, not on SSD.
    MemEqDisk,
    /// Case 2: memory > disk, not on SSD.
    MemNewer,
    /// Case 3: SSD == disk, not in memory.
    SsdEqDisk,
    /// Case 4: SSD > disk, not in memory (LC only).
    SsdNewer,
    /// Case 5: memory == SSD == disk.
    AllEqual,
    /// Case 6: memory == SSD > disk (LC only).
    MemSsdNewer,
}

/// A violation of the Figure 3 invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceViolation {
    /// A cached copy is older than the disk copy (stale cache).
    StaleCopy,
    /// Memory and SSD copies disagree — the SSD copy should have been
    /// invalidated when the memory copy was dirtied.
    MemSsdMismatch,
    /// The design never lets the SSD hold a newer-than-disk copy.
    SsdNewerUnderWriteThrough,
}

/// Classify the version relationship of one page's copies.
///
/// `mem`/`ssd` are the version numbers of the in-memory and SSD copies (or
/// `None` when absent); `disk` is the persistent version. Newer versions
/// compare greater.
pub fn classify(
    design: SsdDesign,
    mem: Option<u64>,
    ssd: Option<u64>,
    disk: u64,
) -> Result<CoherenceCase, CoherenceViolation> {
    if let Some(m) = mem {
        if m < disk {
            return Err(CoherenceViolation::StaleCopy);
        }
    }
    if let Some(s) = ssd {
        if s < disk {
            return Err(CoherenceViolation::StaleCopy);
        }
        if s > disk && !design.policy().write_back() {
            return Err(CoherenceViolation::SsdNewerUnderWriteThrough);
        }
    }
    let case = match (mem, ssd) {
        (None, None) => CoherenceCase::DiskOnly,
        (Some(m), None) => {
            if m == disk {
                CoherenceCase::MemEqDisk
            } else {
                CoherenceCase::MemNewer
            }
        }
        (None, Some(s)) => {
            if s == disk {
                CoherenceCase::SsdEqDisk
            } else {
                CoherenceCase::SsdNewer
            }
        }
        (Some(m), Some(s)) => {
            if m != s {
                return Err(CoherenceViolation::MemSsdMismatch);
            }
            if m == disk {
                CoherenceCase::AllEqual
            } else {
                CoherenceCase::MemSsdNewer
            }
        }
    };
    Ok(case)
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};

    const LC: SsdDesign = SsdDesign::LazyCleaning;
    const DW: SsdDesign = SsdDesign::DualWrite;

    #[test]
    fn six_legal_cases() {
        assert_eq!(classify(LC, Some(1), None, 1), Ok(CoherenceCase::MemEqDisk));
        assert_eq!(classify(LC, Some(2), None, 1), Ok(CoherenceCase::MemNewer));
        assert_eq!(classify(LC, None, Some(1), 1), Ok(CoherenceCase::SsdEqDisk));
        assert_eq!(classify(LC, None, Some(2), 1), Ok(CoherenceCase::SsdNewer));
        assert_eq!(
            classify(LC, Some(1), Some(1), 1),
            Ok(CoherenceCase::AllEqual)
        );
        assert_eq!(
            classify(LC, Some(2), Some(2), 1),
            Ok(CoherenceCase::MemSsdNewer)
        );
        assert_eq!(classify(LC, None, None, 1), Ok(CoherenceCase::DiskOnly));
    }

    #[test]
    fn violations() {
        assert_eq!(
            classify(LC, Some(0), None, 1),
            Err(CoherenceViolation::StaleCopy)
        );
        assert_eq!(
            classify(LC, None, Some(0), 1),
            Err(CoherenceViolation::StaleCopy)
        );
        assert_eq!(
            classify(LC, Some(2), Some(3), 1),
            Err(CoherenceViolation::MemSsdMismatch)
        );
    }

    #[test]
    fn write_through_designs_forbid_newer_ssd() {
        for d in [SsdDesign::CleanWrite, SsdDesign::DualWrite, SsdDesign::Tac] {
            assert_eq!(
                classify(d, None, Some(2), 1),
                Err(CoherenceViolation::SsdNewerUnderWriteThrough)
            );
            assert_eq!(
                classify(d, Some(2), Some(2), 1),
                Err(CoherenceViolation::SsdNewerUnderWriteThrough)
            );
        }
        // Cases 1, 2, 3, 5 remain fine under DW (paper: "only cases 1, 2,
        // 3, and 5 are possible for the CW and DW designs").
        assert!(classify(DW, Some(2), None, 1).is_ok());
        assert!(classify(DW, None, Some(1), 1).is_ok());
        assert!(classify(DW, Some(1), Some(1), 1).is_ok());
    }

    /// Every classified (non-error) state is one of the chart's cases,
    /// and classification is total over version triples. Exhaustive over
    /// the version domain the old property test sampled, plus a seeded
    /// random sweep over a wider domain.
    #[test]
    fn classification_is_total_and_consistent() {
        let check = |mem: Option<u64>, ssd: Option<u64>, disk: u64| {
            match classify(LC, mem, ssd, disk) {
                Ok(case) => {
                    // Reconstruct the defining predicate of each case.
                    let holds = match case {
                        CoherenceCase::DiskOnly => mem.is_none() && ssd.is_none(),
                        CoherenceCase::MemEqDisk => mem == Some(disk),
                        CoherenceCase::MemNewer => mem > Some(disk) && ssd.is_none(),
                        CoherenceCase::SsdEqDisk => ssd == Some(disk),
                        CoherenceCase::SsdNewer => ssd > Some(disk) && mem.is_none(),
                        CoherenceCase::AllEqual => mem == Some(disk) && ssd == Some(disk),
                        CoherenceCase::MemSsdNewer => mem == ssd && mem > Some(disk),
                    };
                    assert!(holds, "case {case:?} wrong for {mem:?}/{ssd:?}/{disk}");
                }
                Err(v) => {
                    let stale = mem.map(|m| m < disk).unwrap_or(false)
                        || ssd.map(|s| s < disk).unwrap_or(false);
                    let mismatch = mem.is_some() && ssd.is_some() && mem != ssd;
                    assert!(stale || mismatch, "unexpected violation {v:?}");
                }
            }
        };
        // Exhaustive over the 5 x 5 x 4 triple domain.
        let opts = [None, Some(0u64), Some(1), Some(2), Some(3)];
        for mem in opts {
            for ssd in opts {
                for disk in 0u64..4 {
                    check(mem, ssd, disk);
                }
            }
        }
        // Seeded random sweep over a wider version domain.
        let mut rng = SmallRng::seed_from_u64(0xF163);
        for _ in 0..10_000 {
            let draw = |rng: &mut SmallRng| -> Option<u64> {
                rng.gen_bool(0.4).then(|| rng.gen_range(0u64..100))
            };
            let (mem, ssd) = (draw(&mut rng), draw(&mut rng));
            check(mem, ssd, rng.gen_range(0u64..100));
        }
    }
}
