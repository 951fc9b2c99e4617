//! The ladder pass: `[l]` per-layer host costs at boundaries the in-situ
//! trace cannot reach.
//!
//! `Database` builds its own stack, so the `bufpool` ↔ `core` boundary is
//! not visible from outside it. The ladder builds the same stack from the
//! public constructors — `BufferPool` over a `TimedPageIo` over
//! `SsdManager`/`TacCache` over `IoManager` with the paper's time-scaled
//! devices, at the workload's frame counts — and drives it with a seeded
//! page-reference stream of the workload's shape. It then times the
//! `IoManager` and `LogManager` entry points directly. The stream is a
//! stand-in, so the ladder reports its own pool and SSD hit rates next to
//! the in-situ ones: how representative it is gets measured, not assumed.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use turbopool::bufpool::{BufferPool, BufferPoolConfig, PageIo};
use turbopool::core::cleaner::CleanerStep;
use turbopool::core::{LazyCleaner, SsdConfig, SsdDesign, SsdManager, SsdMetrics, TacCache};
use turbopool::iosim::rng::Rng;
use turbopool::iosim::{Clk, DeviceSetup, IoManager, Locality, PageId, MILLISECOND, SECOND};
use turbopool::wal::{LogManager, LogRecord};
use turbopool::workload::rand_util::{client_rng, Zipf};
use turbopool::workload::scenario::{MEM_FRAMES, PAGE_SIZE, SCALE, SSD_FRAMES};
use turbopool::workload::synthetic::{Synthetic, SyntheticConfig};
use turbopool::workload::tpcc::Tpcc;
use turbopool::workload::tpce::Tpce;
use turbopool::workload::tpch::Tpch;

use crate::host::wall_ns;
use crate::probe::TimedPageIo;
use crate::stats::per;
use crate::workloads::Kind;

/// Pages per sequential run (the TAC extent and the read-ahead unit).
const RUN_PAGES: u64 = 32;
/// Direct calls per timed `IoManager` / `LogManager` loop.
const DIRECT_CALLS: u64 = 20_000;

/// The page-reference stream standing in for one workload.
struct Shape {
    db_pages: u64,
    design: SsdDesign,
    lambda: f64,
    /// Zipf skew over pages for single-page references.
    theta: f64,
    /// Share of single-page references that dirty the page.
    write_share: f64,
    /// Share of operations that are a sequential `RUN_PAGES`-page run.
    run_share: f64,
}

fn shape(kind: Kind) -> Shape {
    match kind {
        // Skewed and update-heavy: 75% of TPC-C references go to ~20% of pages.
        Kind::TpccLc => Shape {
            db_pages: Tpcc::db_pages(20, PAGE_SIZE),
            design: SsdDesign::LazyCleaning,
            lambda: 0.5,
            theta: 1.2,
            write_share: 0.35,
            run_share: 0.0,
        },
        // Read-mostly with a broad working set.
        Kind::TpceDw => Shape {
            db_pages: Tpce::db_pages(2_000, PAGE_SIZE),
            design: SsdDesign::DualWrite,
            lambda: 0.01,
            theta: 1.1,
            write_share: 0.10,
            run_share: 0.0,
        },
        // Scan-dominated: two gets in three are pages a read-ahead run just
        // brought in; the rest are index lookups with hot inner nodes.
        Kind::TpchTac => Shape {
            db_pages: Tpch::db_pages(100, PAGE_SIZE),
            design: SsdDesign::Tac,
            lambda: 0.01,
            theta: 1.1,
            write_share: 0.02,
            run_share: 0.05,
        },
        // Fits the DRAM pool: everything is a hit after the first touch.
        Kind::HotLedger => Shape {
            db_pages: Synthetic::db_pages(
                &SyntheticConfig {
                    rows: 60_000,
                    ..SyntheticConfig::default()
                },
                PAGE_SIZE,
            ),
            design: SsdDesign::LazyCleaning,
            lambda: 0.5,
            theta: 0.9,
            write_share: 0.25,
            run_share: 0.0,
        },
    }
}

/// Run the ladder for `kind`; `div` shrinks the operation count (smoke).
pub fn run(kind: Kind, seed: u64, div: u64) -> Vec<(&'static str, f64)> {
    let mut out = pool_ladder(kind, seed, 300_000 / div);
    out.extend(direct_calls(&shape(kind), seed, DIRECT_CALLS / div));
    out
}

/// `BufferPool` → `TimedPageIo` → SSD layer → `IoManager`, driven by the
/// workload-shaped stream.
fn pool_ladder(kind: Kind, seed: u64, ops: u64) -> Vec<(&'static str, f64)> {
    let sh = shape(kind);
    let setup = DeviceSetup::paper_time_scaled(PAGE_SIZE, sh.db_pages, SSD_FRAMES, SCALE);
    let io = Arc::new(IoManager::new(&setup));
    // A loaded database: every page materialised, as after bulk load.
    let mut page = vec![0u8; PAGE_SIZE];
    for pid in 0..sh.db_pages {
        page[..8].copy_from_slice(&pid.to_le_bytes());
        io.disk_store().write(PageId(pid), &page);
    }
    let mut cfg = SsdConfig::new(sh.design, SSD_FRAMES);
    cfg.lambda = sh.lambda;
    // The layer's own `(SSD hits, SSD misses)`, whichever type it is.
    type Reads = Arc<dyn Fn() -> (u64, u64) + Send + Sync>;
    fn reads(m: &SsdMetrics) -> (u64, u64) {
        let s = m.snapshot();
        (s.ssd_hits, s.ssd_misses)
    }
    let (layer, ssd_reads, mut cleaner): (Arc<dyn PageIo>, Reads, Option<LazyCleaner>) =
        if sh.design == SsdDesign::Tac {
            let t = Arc::new(TacCache::new(cfg, Arc::clone(&io)));
            let m = Arc::clone(&t);
            (t, Arc::new(move || reads(&m.metrics)), None)
        } else {
            let mgr = Arc::new(SsdManager::new(cfg, Arc::clone(&io)));
            let cleaner =
                (sh.design == SsdDesign::LazyCleaning).then(|| LazyCleaner::new(Arc::clone(&mgr)));
            let m = Arc::clone(&mgr);
            (mgr, Arc::new(move || reads(&m.metrics)), cleaner)
        };
    let hits = Arc::clone(&ssd_reads);
    let timed = Arc::new(TimedPageIo::new(layer, Box::new(move || hits().0)));
    let pool = BufferPool::new(
        BufferPoolConfig::new(MEM_FRAMES, PAGE_SIZE, sh.db_pages),
        Arc::clone(&timed) as Arc<dyn PageIo>,
    );
    let costs = &timed.costs;

    let zipf = Zipf::new(sh.db_pages as usize, sh.theta);
    let mut rng = client_rng(seed, 9_000);
    let mut clk = Clk::new();
    let (mut hit_n, mut hit_ns, mut miss_n, mut miss_self_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut run_pages, mut run_self_ns) = (0u64, 0u64);
    let (mut clean_pages, mut clean_ns) = (0u64, 0u64);
    // One timed `get`: a hit made no `PageIo` call; a miss's self time is
    // the get minus what those calls took.
    let mut timed_get = |clk: &mut Clk, pid: PageId, class: Locality, dirty: bool| {
        let (calls, below) = (costs.calls(), costs.ns());
        let h0 = wall_ns();
        let mut guard = pool.get(clk, pid, class).expect("no faults attached");
        let ns = wall_ns() - h0;
        if costs.calls() == calls {
            hit_n += 1;
            hit_ns += ns;
        } else {
            miss_n += 1;
            miss_self_ns += ns.saturating_sub(costs.ns() - below);
        }
        if dirty {
            guard.write(clk.now, |b| b[8] = b[8].wrapping_add(1));
        }
    };
    for op in 0..ops {
        clk.elapse(MILLISECOND);
        if sh.run_share > 0.0 && rng.gen_bool(sh.run_share) {
            // A scan step: read ahead one run, then visit its pages.
            let first = rng.gen_range(0..(sh.db_pages - RUN_PAGES) / RUN_PAGES) * RUN_PAGES;
            let below = costs.ns();
            let h0 = wall_ns();
            pool.prefetch_run(&mut clk, PageId(first), RUN_PAGES)
                .expect("no faults attached");
            run_self_ns += (wall_ns() - h0).saturating_sub(costs.ns() - below);
            run_pages += RUN_PAGES;
            for pid in first..first + RUN_PAGES {
                timed_get(&mut clk, PageId(pid), Locality::Sequential, false);
            }
        } else {
            // Scramble ranks so hot pages spread over the file.
            let rank = zipf.sample(&mut rng) as u64;
            let pid = PageId(rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % sh.db_pages);
            let dirty = rng.gen_bool(sh.write_share);
            timed_get(&mut clk, pid, Locality::Random, dirty);
        }
        if op % 64 == 0 {
            if let Some(c) = cleaner.as_mut() {
                let h0 = wall_ns();
                if let CleanerStep::Cleaned(n) = c.step(&mut clk) {
                    clean_ns += wall_ns() - h0;
                    clean_pages += n as u64;
                }
            }
        }
    }
    let stats = pool.stats();
    let (ssd_hits, ssd_misses) = ssd_reads();
    vec![
        ("bufpool.get_hit_ns", per(hit_ns, hit_n)),
        ("bufpool.get_miss_self_ns", per(miss_self_ns, miss_n)),
        (
            "bufpool.prefetch_self_ns_per_page",
            per(run_self_ns, run_pages),
        ),
        ("core.read_hit_ns", costs.read_hit.mean_ns()),
        ("core.read_miss_ns", costs.read_miss.mean_ns()),
        ("core.evict_admit_ns", costs.evict.mean_ns()),
        ("core.note_dirtied_ns", costs.note_dirtied.mean_ns()),
        (
            "core.read_run_ns_per_page",
            per(
                costs.read_run.ns(),
                costs.read_run_pages.load(Ordering::Relaxed),
            ),
        ),
        ("core.clean_batch_ns_per_page", per(clean_ns, clean_pages)),
        (
            "ladder.pool_hit_rate",
            per(stats.hits, stats.hits + stats.misses),
        ),
        ("ladder.ssd_hit_rate", per(ssd_hits, ssd_hits + ssd_misses)),
    ]
}

/// Timed loops straight into `IoManager` and `LogManager`: the loop is
/// timed as a whole, so these carry no per-call timer cost.
fn direct_calls(sh: &Shape, seed: u64, calls: u64) -> Vec<(&'static str, f64)> {
    let setup = DeviceSetup::paper_time_scaled(PAGE_SIZE, sh.db_pages, SSD_FRAMES, SCALE);
    let io = Arc::new(IoManager::new(&setup));
    let mut rng = client_rng(seed, 9_001);
    let mut clk = Clk::new();
    let mut buf = vec![0u8; PAGE_SIZE];
    let pids: Vec<PageId> = (0..calls)
        .map(|_| PageId(rng.gen_range(0..sh.db_pages)))
        .collect();
    let frames: Vec<u64> = (0..calls).map(|_| rng.gen_range(0..SSD_FRAMES)).collect();

    let timed = |f: &mut dyn FnMut()| {
        let t0 = wall_ns();
        f();
        per(wall_ns() - t0, calls)
    };
    // Asynchronous writes are spaced one virtual second apart so the
    // device queue stays as shallow as the closed-loop workloads keep it.
    let write_disk = timed(&mut || {
        for &pid in &pids {
            clk.elapse(SECOND);
            io.write_disk_async(clk.now, pid, &buf, Locality::Random)
                .expect("no faults attached");
        }
    });
    let read_disk = timed(&mut || {
        for &pid in &pids {
            io.read_disk(&mut clk, pid, &mut buf, Locality::Random)
                .expect("no faults attached");
        }
    });
    let runs = (sh.db_pages - RUN_PAGES) / RUN_PAGES;
    // `calls` pages in all, so the mean is per page.
    let read_run = timed(&mut || {
        for i in 0..calls / RUN_PAGES {
            let first = PageId((i % runs) * RUN_PAGES);
            io.read_disk_run(&mut clk, first, RUN_PAGES, Locality::Sequential)
                .expect("no faults attached");
        }
    });
    let write_ssd = timed(&mut || {
        for (&frame, &pid) in frames.iter().zip(&pids) {
            clk.elapse(MILLISECOND);
            io.write_ssd_async(clk.now, frame, &buf, pid)
                .expect("no faults attached");
        }
    });
    let read_ssd = timed(&mut || {
        for &frame in &frames {
            io.read_ssd(&mut clk, frame, &mut buf)
                .expect("frame was written above");
        }
    });
    let append_log = timed(&mut || {
        for _ in 0..calls {
            io.append_log(&mut clk, 512);
        }
    });
    let log = LogManager::new(Arc::clone(&io));
    let record = LogRecord::PageWrite {
        txid: 1,
        pid: PageId(0),
        offset: 64,
        data: vec![7u8; 64],
    };
    let wal_append = timed(&mut || {
        for _ in 0..calls {
            log.append(&record);
        }
    });
    log.flush(&mut clk);
    let wal_flush = timed(&mut || {
        for txid in 0..calls {
            log.append(&LogRecord::Commit { txid });
            log.flush(&mut clk);
        }
    });
    vec![
        ("iosim.read_disk_ns", read_disk),
        ("iosim.write_disk_async_ns", write_disk),
        ("iosim.read_ssd_ns", read_ssd),
        ("iosim.write_ssd_async_ns", write_ssd),
        ("iosim.read_disk_run_ns_per_page", read_run),
        ("iosim.append_log_ns", append_log),
        ("wal.append_ns", wal_append),
        ("wal.flush_ns", wal_flush),
    ]
}
