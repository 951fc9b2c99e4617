//! SSD-manager configuration: the paper's Table 2 parameters plus the
//! extension knobs some run varies. A value only one setting of which is
//! ever used is a named constant beside the code that reads it.

/// After a cleaning burst, the dirty count is brought to `λ·S − slack·S`
/// ("about 0.01% of the SSD space below the threshold").
pub const LAMBDA_SLACK: f64 = 0.0001;

/// Which dirty-page design the SSD manager runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SsdDesign {
    /// Never cache dirty pages (§2.3.1).
    CleanWrite,
    /// Write dirty evictions to SSD *and* disk — write-through (§2.3.2).
    DualWrite,
    /// Write dirty evictions to SSD only; clean lazily — write-back
    /// (§2.3.3).
    LazyCleaning,
    /// Temperature-Aware Caching baseline (Canim et al.; §2.5).
    Tac,
}

/// Where a dirty page evicted from memory goes (§2.3).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DirtyEviction {
    /// To disk only; the SSD never sees it.
    Disk,
    /// To disk, and a clean copy to the SSD (write-through).
    DiskAndSsd,
    /// To the SSD only, where it is the page's sole current copy
    /// (write-back).
    Ssd,
}

/// The decisions the designs differ in: one row of the policy table
/// ([`SsdDesign::policy`]). Every reader of a design's behaviour — the page
/// flow, the checkpoint, the cleaner, the auditor and the Figure 3
/// classifier — reads these columns instead of naming a design.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Policy {
    /// Where a dirty page evicted from memory goes.
    pub dirty_eviction: DirtyEviction,
    /// Does a checkpoint also write random-class pages to the SSD (§3.2)?
    pub checkpoint_mirror: bool,
    /// Are pages admitted when read from disk, not when evicted from
    /// memory (TAC's page flow, §2.5)?
    pub admit_on_read: bool,
    /// Does dirtying a cached page only mark its copy invalid, its frame
    /// staying occupied until rewritten (§2.5), rather than free the frame?
    pub logical_invalidation: bool,
}

impl Policy {
    /// May the SSD hold a page newer than disk? Only write-back can, and
    /// that brings the lazy cleaner, the checkpoint flush, the checkpoint
    /// window's admission pause, and stranding when a sole copy is lost.
    pub const fn write_back(&self) -> bool {
        matches!(self.dirty_eviction, DirtyEviction::Ssd)
    }
}

impl SsdDesign {
    /// The policy table: this design's row.
    pub const fn policy(self) -> Policy {
        use DirtyEviction::{Disk, DiskAndSsd, Ssd};
        let (dirty_eviction, checkpoint_mirror, admit_on_read, logical_invalidation) = match self {
            SsdDesign::CleanWrite => (Disk, false, false, false),
            SsdDesign::DualWrite => (DiskAndSsd, true, false, false),
            SsdDesign::LazyCleaning => (Ssd, false, false, false),
            SsdDesign::Tac => (Disk, false, true, true),
        };
        Policy {
            dirty_eviction,
            checkpoint_mirror,
            admit_on_read,
            logical_invalidation,
        }
    }

    /// Short label used by the benchmark harnesses ("DW", "LC", ...).
    pub fn label(self) -> &'static str {
        match self {
            SsdDesign::CleanWrite => "CW",
            SsdDesign::DualWrite => "DW",
            SsdDesign::LazyCleaning => "LC",
            SsdDesign::Tac => "TAC",
        }
    }
}

/// How multi-page read requests interact with SSD-resident pages (§3.3.3).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MultiPageMode {
    /// Trim leading/trailing SSD-resident pages, keep the middle as one
    /// disk I/O (the paper's final design).
    Trim,
    /// Split the request at every SSD-resident page (the paper's initial
    /// design, kept for the ablation — it was slower).
    Split,
    /// Ignore the SSD for multi-page reads entirely.
    DiskOnly,
}

/// All tunables of the SSD manager. Defaults are the paper's Table 2.
#[derive(Clone, Debug)]
pub struct SsdConfig {
    /// The design under test.
    pub design: SsdDesign,
    /// `S`: number of page-sized frames in the SSD buffer pool
    /// (18,350,080 = 140 GB in the paper).
    pub frames: u64,
    /// `τ`: aggressive-filling threshold as a fraction of `S` — until the
    /// SSD is this full, *every* evicted page is cached (§3.3.1).
    pub tau: f64,
    /// `μ`: throttle-control threshold — no optional SSD I/O is issued while
    /// the SSD queue is deeper than this (§3.3.2).
    pub mu: usize,
    /// `N`: number of SSD partitions (§3.3.4).
    pub partitions: usize,
    /// `α`: maximum dirty pages gathered into one group-cleaning write
    /// (§3.3.5).
    pub alpha: u64,
    /// `λ`: dirty fraction of SSD space above which the lazy cleaner runs
    /// (§2.3.3); 1% for TPC-E/H, 50% for TPC-C in the paper.
    pub lambda: f64,
    /// TAC extent size in pages (32 in the paper).
    pub tac_extent_pages: u64,
    /// Multi-page read handling.
    pub multipage: MultiPageMode,
    /// Warm restart (extension of the paper's §6 future work): persist the
    /// SSD buffer table in each checkpoint record and re-import still-valid
    /// entries after a crash, skipping the multi-hour SSD ramp-up.
    pub warm_restart: bool,
}

impl SsdConfig {
    /// Table 2 defaults with a caller-chosen design and frame count.
    pub fn new(design: SsdDesign, frames: u64) -> Self {
        SsdConfig {
            design,
            frames,
            tau: 0.95,
            mu: 100,
            partitions: 16,
            alpha: 32,
            lambda: 0.50,
            tac_extent_pages: 32,
            multipage: MultiPageMode::Trim,
            warm_restart: false,
        }
    }

    /// Absolute number of frames below which aggressive filling stops.
    pub fn fill_target(&self) -> u64 {
        (self.frames as f64 * self.tau) as u64
    }

    /// Absolute dirty-page count that triggers the lazy cleaner.
    pub fn dirty_high_water(&self) -> u64 {
        (self.frames as f64 * self.lambda) as u64
    }

    /// Absolute dirty-page count a cleaning burst drains down to.
    pub fn dirty_low_water(&self) -> u64 {
        let low = self.frames as f64 * (self.lambda - LAMBDA_SLACK);
        low.max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SsdConfig::new(SsdDesign::LazyCleaning, 18_350_080);
        assert_eq!(c.tau, 0.95);
        assert_eq!(c.mu, 100);
        assert_eq!(c.partitions, 16);
        assert_eq!(c.alpha, 32);
        assert_eq!(c.lambda, 0.5);
        assert_eq!(c.fill_target(), 17_432_576);
        assert_eq!(c.dirty_high_water(), 9_175_040);
        assert!(c.dirty_low_water() < c.dirty_high_water());
    }

    #[test]
    fn labels() {
        assert_eq!(SsdDesign::CleanWrite.label(), "CW");
        assert_eq!(SsdDesign::DualWrite.label(), "DW");
        assert_eq!(SsdDesign::LazyCleaning.label(), "LC");
        assert_eq!(SsdDesign::Tac.label(), "TAC");
    }

    #[test]
    fn watermarks_never_negative() {
        let mut c = SsdConfig::new(SsdDesign::LazyCleaning, 100);
        c.lambda = 0.0;
        assert_eq!(c.dirty_low_water(), 0);
        assert_eq!(c.dirty_high_water(), 0);
    }
}
