//! Engine configuration.

use turbopool_bufpool::BufferPoolConfig;
use turbopool_core::SsdConfig;
use turbopool_iosim::DeviceSetup;

/// Everything needed to open a [`crate::Database`]: the one config tree.
/// Each knob lives in the config of the layer that reads it and nowhere
/// else — the DRAM pool's in [`BufferPoolConfig`], the SSD tier's (the
/// paper's Table 2) in [`SsdConfig`].
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// The DRAM buffer pool, which also fixes the page size (8192 in the
    /// paper; tests use smaller pages) and the total pages of the database
    /// file group (growth headroom included).
    pub pool: BufferPoolConfig,
    /// SSD cache configuration; `None` is the paper's `noSSD` baseline.
    pub ssd: Option<SsdConfig>,
    /// Override the device calibration (defaults to the paper's Table 1).
    pub devices: Option<DeviceSetup>,
}

impl DbConfig {
    /// A configuration with the paper's device calibration and the given
    /// sizes; SSD off until `ssd` is set.
    pub fn new(page_size: usize, db_pages: u64, mem_frames: usize) -> Self {
        DbConfig {
            pool: BufferPoolConfig::new(mem_frames, page_size, db_pages),
            ssd: None,
            devices: None,
        }
    }

    /// A tiny configuration for unit tests and doc examples: 256-byte
    /// pages, 512-page database, 32-frame pool.
    pub fn small_for_tests() -> Self {
        let mut cfg = DbConfig::new(256, 512, 32);
        cfg.pool.fill_expansion = 1;
        cfg
    }

    /// The device setup this config resolves to.
    pub fn device_setup(&self) -> DeviceSetup {
        self.devices.clone().unwrap_or_else(|| {
            let ssd_frames = self.ssd.as_ref().map(|s| s.frames).unwrap_or(1);
            DeviceSetup::paper(self.pool.page_size, self.pool.db_pages, ssd_frames)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_setup_sizes_ssd_from_config() {
        let mut cfg = DbConfig::new(8192, 1000, 100);
        assert_eq!(cfg.device_setup().ssd_frames, 1);
        cfg.ssd = Some(SsdConfig::new(turbopool_core::SsdDesign::LazyCleaning, 640));
        let setup = cfg.device_setup();
        assert_eq!(setup.ssd_frames, 640);
        assert_eq!(setup.db_pages, 1000);
        assert_eq!(setup.page_size, 8192);
    }
}
