//! Scaled reconstruction of the paper's system under test.
//!
//! Every *size* (database, DRAM pool, SSD pool) is the paper's divided by
//! [`SCALE`], and every device *service time* is multiplied by [`SCALE`].
//! Rescaling sizes and rates by the same factor leaves all the ratios that
//! determine the evaluation's shape — hit rates, working-set-vs-SSD
//! crossovers, ramp-up duration relative to the run, λ-threshold dynamics —
//! exactly where the paper had them, while absolute throughput divides by
//! `SCALE` (reported numbers are "scaled tpmC/tpsE/QphH").

use std::sync::Arc;

use turbopool_core::{SsdConfig, SsdDesign};
use turbopool_engine::btree::node_capacity;
use turbopool_engine::heap::slots_per_page;
use turbopool_engine::{Database, DbConfig, HeapId, IndexId};
use turbopool_iosim::{Clk, DeviceSetup};

/// The common scale factor: sizes ÷ 1000, service times × 1000.
pub const SCALE: f64 = 1000.0;

/// Page size (matches the paper's 8 KB pages — pages are not scaled).
pub const PAGE_SIZE: usize = 8192;

/// DRAM dedicated to the DBMS: 20 GB → 2,621,440 pages / SCALE.
pub const MEM_FRAMES: usize = 2621;

/// SSD buffer pool: 140 GB → 18,350,080 frames / SCALE (Table 2's `S`).
pub const SSD_FRAMES: u64 = 18350;

/// Pages per paper-gigabyte at this scale (2^30 / 8192 / 1000).
pub const PAGES_PER_GB: f64 = 131.072;

/// System design under test (Figure 5's series).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Design {
    NoSsd,
    Cw,
    Dw,
    Lc,
    Tac,
}

impl Design {
    pub fn label(self) -> &'static str {
        match self {
            Design::NoSsd => "noSSD",
            Design::Cw => "CW",
            Design::Dw => "DW",
            Design::Lc => "LC",
            Design::Tac => "TAC",
        }
    }

    /// All designs in the paper's plotting order.
    pub fn all() -> [Design; 5] {
        [
            Design::Dw,
            Design::Lc,
            Design::Tac,
            Design::Cw,
            Design::NoSsd,
        ]
    }

    fn ssd_design(self) -> Option<SsdDesign> {
        match self {
            Design::NoSsd => None,
            Design::Cw => Some(SsdDesign::CleanWrite),
            Design::Dw => Some(SsdDesign::DualWrite),
            Design::Lc => Some(SsdDesign::LazyCleaning),
            Design::Tac => Some(SsdDesign::Tac),
        }
    }
}

/// Full specification of one system configuration: the design, the
/// workload seed, and the configuration tree the database opens with.
#[derive(Clone, Debug)]
pub struct SystemSpec {
    pub design: Design,
    /// Deterministic seed for the workload RNG streams.
    pub seed: u64,
    /// What [`build_db`] opens. Every pool and SSD knob is edited here, in
    /// the config of the layer that reads it (`db.pool.fill_expansion`,
    /// `db.pool.frames`; the SSD half through [`SystemSpec::ssd`]).
    pub db: DbConfig,
}

impl SystemSpec {
    /// The paper's configuration for a database of `db_pages` pages: the
    /// scaled pool sizes and, for an SSD design, Table 2's defaults.
    pub fn paper(design: Design, db_pages: u64) -> Self {
        let mut db = DbConfig::new(PAGE_SIZE, db_pages, MEM_FRAMES);
        db.ssd = design.ssd_design().map(|d| SsdConfig::new(d, SSD_FRAMES));
        SystemSpec {
            design,
            seed: 0x5EED,
            db,
        }
    }

    /// Edit the SSD half of the tree (S, λ, τ, μ, N, …) if this design has
    /// one; on [`Design::NoSsd`] there is nothing to edit and `edit` is
    /// not run, so one tweak serves a sweep over every design.
    pub fn ssd(&mut self, edit: impl FnOnce(&mut SsdConfig)) {
        if let Some(s) = &mut self.db.ssd {
            edit(s);
        }
    }
}

/// Open a database configured per `spec` over time-scaled paper devices,
/// sized from the tree as it stands (after any tweak). The noSSD baseline
/// keeps the paper's idle SSD device.
pub fn build_db(spec: &SystemSpec) -> Arc<Database> {
    let mut cfg = spec.db.clone();
    let ssd_frames = cfg.ssd.as_ref().map_or(SSD_FRAMES, |s| s.frames);
    cfg.devices = Some(DeviceSetup::paper_time_scaled(
        cfg.pool.page_size,
        cfg.pool.db_pages,
        ssd_frames.max(1),
        SCALE,
    ));
    Arc::new(Database::open(cfg))
}

/// Leaf fill every workload bulk-loads its indexes at.
pub(crate) const INDEX_FILL: f64 = 0.7;

/// Pages of a heap holding `rows` records of `record_size` bytes.
pub(crate) fn heap_pages(rows: u64, record_size: usize, page_size: usize) -> u64 {
    rows.div_ceil(slots_per_page(record_size, page_size) as u64)
}

/// Leaves `keys` keys fill at [`INDEX_FILL`].
pub(crate) fn index_leaves(keys: u64, page_size: usize) -> f64 {
    keys as f64 / (node_capacity(page_size) as f64 * INDEX_FILL)
}

/// Split extent of an index over `keys` keys: 1.6× its leaves (room for
/// the inner levels and for splits), at least 8, plus 8 pages.
pub(crate) fn index_extent(keys: u64, page_size: usize) -> u64 {
    ((index_leaves(keys, page_size) * 1.6) as u64).max(8) + 8
}

/// One database's tables, in creation order: the one declaration both a
/// workload's `db_pages` (its [`pages`](Self::pages)) and its `setup` (its
/// [`open`](Self::open)) read.
pub(crate) struct Schema<const H: usize, const I: usize> {
    /// Heaps as (name, record size, pages).
    pub heaps: [(&'static str, usize, u64); H],
    /// Indexes as (name, extent pages); each also takes a root page.
    pub indexes: [(&'static str, u64); I],
    /// Free pages past the last table.
    pub slack: u64,
}

/// A database opened from a [`Schema`]: its handles in list order and the
/// seed its spec carried.
pub(crate) struct Opened<const H: usize, const I: usize> {
    pub db: Arc<Database>,
    pub seed: u64,
    pub heaps: [HeapId; H],
    pub indexes: [IndexId; I],
}

impl<const H: usize, const I: usize> Schema<H, I> {
    /// Database pages: every heap, every index's extent and root, the slack.
    pub fn pages(&self) -> u64 {
        let heaps: u64 = self.heaps.iter().map(|h| h.2).sum();
        let indexes: u64 = self.indexes.iter().map(|i| 1 + i.1).sum();
        heaps + indexes + self.slack
    }

    /// Open the paper's system for `design` sized to this schema, set λ
    /// (if given), let `tweak` edit the spec, and create the heaps, then
    /// the indexes, in list order.
    pub fn open(
        &self,
        design: Design,
        lambda: Option<f64>,
        tweak: impl FnOnce(&mut SystemSpec),
    ) -> Opened<H, I> {
        let mut spec = SystemSpec::paper(design, self.pages());
        if let Some(lambda) = lambda {
            spec.ssd(|s| s.lambda = lambda);
        }
        tweak(&mut spec);
        let db = build_db(&spec);
        let mut clk = Clk::new();
        let heap = |(name, rec, pages)| db.create_heap(&mut clk, name, rec, pages);
        let heaps = self.heaps.map(heap);
        let index = |(name, extent)| db.create_index(&mut clk, name, extent);
        let indexes = self.indexes.map(index);
        let seed = spec.seed;
        Opened {
            db,
            seed,
            heaps,
            indexes,
        }
    }
}

/// Convert paper gigabytes to scaled pages.
pub fn gb_to_pages(gb: f64) -> u64 {
    (gb * PAGES_PER_GB).round() as u64
}

/// The little-endian `u64` field at `off` of a record.
pub(crate) fn u64_at(rec: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(rec[off..off + 8].try_into().expect("an 8-byte field"))
}

/// Store each `(offset, value)` of `fields` into a record as a
/// little-endian `u64`.
pub(crate) fn put_u64s(rec: &mut [u8], fields: &[(usize, u64)]) {
    for &(off, v) in fields {
        rec[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sizes_preserve_paper_ratios() {
        // SSD pool (140 GB) vs DRAM pool (20 GB) = 7x; vs 200 GB DB ≈ 0.7.
        let ssd_over_mem = SSD_FRAMES as f64 / MEM_FRAMES as f64;
        assert!((ssd_over_mem - 7.0).abs() < 0.01, "{ssd_over_mem}");
        let db200 = gb_to_pages(200.0);
        let ratio = SSD_FRAMES as f64 / db200 as f64;
        assert!((ratio - 0.7).abs() < 0.01, "{ratio}");
    }

    /// The tree a spec carries is the tree the database runs — nothing is
    /// copied field by field on the way, so no knob can go nowhere — and the
    /// devices are sized from it.
    #[test]
    fn the_tree_a_spec_carries_is_the_tree_the_database_opens() {
        let tweak = |spec: &mut SystemSpec| {
            spec.db.pool.frames = 24;
            spec.db.pool.fill_expansion = 4;
            spec.ssd(|s| {
                s.frames = 48;
                s.lambda = 0.25;
                s.partitions = 4;
            });
        };
        for design in Design::all() {
            let mut tweaked = SystemSpec::paper(design, 512);
            tweak(&mut tweaked);
            assert_eq!(tweaked.db.pool.frames, 24);
            for spec in [SystemSpec::paper(design, 512), tweaked] {
                let db = build_db(&spec);
                let want = format!("{:?}", (&spec.db.pool, &spec.db.ssd));
                assert_eq!(format!("{:?}", (&db.config().pool, &db.config().ssd)), want);
                // The layer that runs is the design's, built from the SSD half.
                let mgr = db.ssd_manager().map(|m| m.config());
                assert_eq!(mgr.is_some(), design != Design::NoSsd);
                assert_eq!(mgr.map(|c| c.design), design.ssd_design(), "{design:?}");
                assert_eq!(format!("{:?}", mgr), format!("{:?}", spec.db.ssd.as_ref()));
                // On noSSD the SSD half of the tweak had nothing to edit.
                let frames = spec.db.ssd.as_ref().map_or(SSD_FRAMES, |s| s.frames);
                assert_eq!(db.io().setup().ssd_frames, frames, "{design:?}");
                assert_eq!(db.io().setup().db_pages, 512);
            }
        }
        let mut lc = SystemSpec::paper(Design::Lc, 512);
        tweak(&mut lc);
        let ssd = lc.db.ssd.expect("LC has an SSD half");
        assert_eq!((ssd.frames, ssd.lambda, ssd.partitions), (48, 0.25, 4));
    }

    #[test]
    fn time_scaled_devices_are_slower() {
        let db = build_db(&SystemSpec::paper(Design::NoSsd, 64));
        let rr = db.io().setup().disk_profile.rand_read_ns;
        // 985 us * 1000 ≈ 985 ms per aggregate random read.
        assert!(rr > 900_000_000, "{rr}");
    }
}
