//! `[c]` per-layer metrics: exact counts from diffs of the public counter
//! snapshots (`pool_stats`, `ssd_metrics`, device stats, log position) taken
//! at the boundaries of the measured virtual window. Deterministic for a
//! fixed seed, so reps of one run must agree to the bit.

use turbopool::bufpool::PoolStats;
use turbopool::core::metrics::SsdMetricsSnapshot;
use turbopool::engine::Database;
use turbopool::iosim::{StatSnapshot, Time};

use crate::stats::per;

/// Every public counter the layers expose, at one instant.
pub struct Snap {
    pub virt: Time,
    pub txns: u64,
    pool: PoolStats,
    ssd: SsdMetricsSnapshot,
    disk: StatSnapshot,
    ssd_dev: StatSnapshot,
    log_dev: StatSnapshot,
    log_lsn: u64,
}

impl Snap {
    pub fn take(db: &Database, virt: Time, txns: u64) -> Snap {
        Snap {
            virt,
            txns,
            pool: db.pool_stats(),
            ssd: db.ssd_metrics().unwrap_or_default(),
            disk: db.io().disk_stats(),
            ssd_dev: db.io().ssd_stats(),
            log_dev: db.io().log_stats(),
            log_lsn: db.log().flushed_lsn(),
        }
    }

    /// SSD buffer-table invariant violations since the database opened.
    pub fn audit_violations(&self) -> u64 {
        self.ssd.audit_violations
    }
}

fn busy(a: &StatSnapshot, b: &StatSnapshot) -> u64 {
    (b.read_busy_ns - a.read_busy_ns) + (b.write_busy_ns - a.write_busy_ns)
}

/// The window's `[c]` metrics from snapshots `a` (window start) and `b`
/// (end of drive); `db` supplies end-state gauges.
pub fn window_counters(a: &Snap, b: &Snap, db: &Database) -> Vec<(&'static str, f64)> {
    let txns = b.txns - a.txns;
    let span = b.virt - a.virt;
    let gets = (b.pool.hits - a.pool.hits) + (b.pool.misses - a.pool.misses);
    let s = |f: fn(&SsdMetricsSnapshot) -> u64| f(&b.ssd) - f(&a.ssd);
    let ssd_reads = s(|m| m.ssd_hits) + s(|m| m.ssd_misses);
    let ssd_ops = ssd_reads + s(|m| m.admissions) + s(|m| m.invalidations);
    let frames = db.io().ssd_frames().max(1);
    let (dirty, occupancy) = match (db.ssd_manager(), db.tac_cache()) {
        (Some(m), _) => (m.dirty_count(), m.occupancy()),
        (_, Some(t)) => (0, t.occupancy()),
        _ => (0, 0),
    };
    let disk_pages =
        (b.disk.read_pages - a.disk.read_pages) + (b.disk.write_pages - a.disk.write_pages);
    let ssd_pages = (b.ssd_dev.read_pages - a.ssd_dev.read_pages)
        + (b.ssd_dev.write_pages - a.ssd_dev.write_pages);
    vec![
        ("engine.pages_per_txn", per(gets, txns)),
        ("bufpool.gets", gets as f64),
        ("bufpool.hit_rate", per(b.pool.hits - a.pool.hits, gets)),
        (
            "bufpool.evictions_clean",
            (b.pool.evictions_clean - a.pool.evictions_clean) as f64,
        ),
        (
            "bufpool.evictions_dirty",
            (b.pool.evictions_dirty - a.pool.evictions_dirty) as f64,
        ),
        (
            "bufpool.prefetched_pages",
            (b.pool.prefetched_pages - a.pool.prefetched_pages) as f64,
        ),
        (
            "bufpool.expanded_fill_pages",
            (b.pool.expanded_fill_pages - a.pool.expanded_fill_pages) as f64,
        ),
        (
            "bufpool.latch_acq_per_get",
            per(b.pool.shard_acquisitions - a.pool.shard_acquisitions, gets),
        ),
        ("core.ssd_hit_rate", per(s(|m| m.ssd_hits), ssd_reads)),
        ("core.admissions", s(|m| m.admissions) as f64),
        ("core.replacements", s(|m| m.replacements) as f64),
        ("core.invalidations", s(|m| m.invalidations) as f64),
        ("core.cleaned_pages", s(|m| m.cleaned_pages) as f64),
        ("core.inline_cleans", s(|m| m.inline_cleans) as f64),
        (
            "core.throttled_share",
            per(
                s(|m| m.throttled_reads) + s(|m| m.throttled_admissions),
                ssd_ops,
            ),
        ),
        ("core.dirty_frac_end", per(dirty, frames)),
        ("core.occupancy_end", per(occupancy, frames)),
        (
            "core.latch_acq_per_op",
            per(s(|m| m.shard_acquisitions), ssd_ops),
        ),
        (
            "core.tac_cancelled_writes",
            s(|m| m.tac_cancelled_writes) as f64,
        ),
        (
            "core.tac_invalid_frames_end",
            db.tac_cache().map_or(0, |t| t.invalid_frames()) as f64,
        ),
        (
            "iosim.disk_read_ops",
            (b.disk.read_ops - a.disk.read_ops) as f64,
        ),
        (
            "iosim.disk_write_ops",
            (b.disk.write_ops - a.disk.write_ops) as f64,
        ),
        (
            "iosim.ssd_read_ops",
            (b.ssd_dev.read_ops - a.ssd_dev.read_ops) as f64,
        ),
        (
            "iosim.ssd_write_ops",
            (b.ssd_dev.write_ops - a.ssd_dev.write_ops) as f64,
        ),
        ("iosim.disk_pages_per_txn", per(disk_pages, txns)),
        ("iosim.ssd_pages_per_txn", per(ssd_pages, txns)),
        // The disk group's busy time is summed over its members.
        (
            "iosim.disk_util",
            per(
                busy(&a.disk, &b.disk),
                span * db.io().setup().num_disks.max(1),
            ),
        ),
        ("iosim.ssd_util", per(busy(&a.ssd_dev, &b.ssd_dev), span)),
        ("iosim.log_util", per(busy(&a.log_dev, &b.log_dev), span)),
        ("wal.bytes_per_txn", per(b.log_lsn - a.log_lsn, txns)),
        (
            "wal.flushes_per_txn",
            per(b.log_dev.write_ops - a.log_dev.write_ops, txns),
        ),
    ]
}
