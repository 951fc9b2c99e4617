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
use turbopool_engine::{Database, DbConfig};
use turbopool_iosim::DeviceSetup;

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

/// Convert paper gigabytes to scaled pages.
pub fn gb_to_pages(gb: f64) -> u64 {
    (gb * PAGES_PER_GB).round() as u64
}

/// Store each `(offset, value)` of `fields` into a bulk-loaded record as a
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
                let tac = db.tac_cache().map(|t| t.config());
                assert_eq!(tac.is_some(), design == Design::Tac);
                assert_eq!(mgr.or(tac).is_some(), design != Design::NoSsd);
                assert_eq!(
                    format!("{:?}", mgr.or(tac)),
                    format!("{:?}", spec.db.ssd.as_ref())
                );
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
