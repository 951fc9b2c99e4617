//! Ablations — one experiment per design choice the paper calls out.
//!
//! 1. Random/sequential classifier accuracy: read-ahead-based vs the
//!    64-page proximity rule (§2.2: 82% vs 51%).
//! 2. TAC's logical-invalidation waste (§2.5: 7.4/10.4/8.9 GB of the
//!    140 GB SSD on TPC-C 1K/2K/4K).
//! 3. Multi-page I/O: trim vs split vs disk-only (§3.3.3).
//! 4. SSD partitioning under real thread concurrency (§3.3.4).
//! 5. Aggressive filling on/off (§3.3.1) — ramp-up speed.
//! 6. Throttle control on/off (§3.3.2).

use std::sync::Arc;

use turbopool_bench::{run_oltp, OltpKind, RunOptions, Table};
use turbopool_bufpool::{
    BufferPool, BufferPoolConfig, ClassifierKind, DirectIo, PageIo, ScanCursor,
};
use turbopool_core::{MultiPageMode, SsdConfig, SsdDesign, SsdManager};
use turbopool_iosim::{Clk, DeviceSetup, IoManager, Locality, PageId, HOUR, MILLISECOND, MINUTE};
use turbopool_workload::driver::{Driver, ThroughputRecorder};
use turbopool_workload::scenario::{Design, PAGE_SIZE, SCALE};
use turbopool_workload::synthetic::{Synthetic, SyntheticConfig};

/// §2.2 — classifier accuracy under interleaved scans + nearby random
/// lookups.
fn classifier_accuracy() {
    println!("== Ablation 1: sequential-read classification accuracy (§2.2) ==\n");
    let mut table = Table::new(vec!["classifier", "seq accuracy", "paper"]);
    for (kind, paper) in [
        (ClassifierKind::ReadAhead, "82%"),
        (ClassifierKind::Proximity, "51%"),
    ] {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(512, 4096, 8)));
        let mut cfg = BufferPoolConfig::new(512, 512, 4096);
        cfg.classifier = kind;
        cfg.fill_expansion = 1;
        let pool = BufferPool::new(cfg, Arc::new(DirectIo::new(io)));
        let mut clk = Clk::new();
        // Two interleaved sequential streams plus random lookups that
        // sometimes land near the streams — the concurrent mixture that
        // defeats the proximity rule.
        // Tightly interleaved streams with small read-ahead windows plus
        // two random lookups per round: the I/O-arrival mixture a busy
        // multi-user system shows the classifier.
        let mut a = ScanCursor::new(PageId(0), PageId(1000), 2);
        let mut b = ScanCursor::new(PageId(2000), PageId(3000), 2);
        let mut rnd = 0u64;
        loop {
            let ga = a.next(&mut clk, &pool).is_some();
            rnd = (rnd
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
                >> 16)
                % 4096;
            pool.get(&mut clk, PageId(rnd), Locality::Random)
                .expect("no faults attached");
            let gb = b.next(&mut clk, &pool).is_some();
            rnd = (rnd
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
                >> 16)
                % 4096;
            pool.get(&mut clk, PageId(rnd), Locality::Random)
                .expect("no faults attached");
            if !ga && !gb {
                break;
            }
        }
        let s = pool.classifier_stats();
        table.row(vec![
            format!("{kind:?}"),
            format!("{:.0}%", s.sequential_accuracy() * 100.0),
            paper.to_string(),
        ]);
    }
    table.print();
}

/// §2.5 — SSD space wasted on logically invalid pages under TAC.
fn tac_waste() {
    println!("\n== Ablation 2: TAC logical-invalidation waste (§2.5) ==\n");
    let quick = turbopool_bench::quick();
    let cases: &[(&str, u64, f64)] = if quick {
        &[("2K wh", 20, 10.4)]
    } else {
        &[("1K wh", 10, 7.4), ("2K wh", 20, 10.4), ("4K wh", 40, 8.9)]
    };
    let hours = if quick {
        HOUR
    } else {
        turbopool_bench::run_hours()
    };
    let mut table = Table::new(vec![
        "database",
        "invalid frames",
        "waste (GB eq.)",
        "paper (GB)",
    ]);
    for &(label, sw, paper_gb) in cases {
        let run = run_oltp(
            OltpKind::TpcC { warehouses: sw },
            Design::Tac,
            &RunOptions::tpcc(hours),
        );
        let gb = run.tac_invalid_frames as f64 * PAGE_SIZE as f64 * SCALE / (1u64 << 30) as f64;
        table.row(vec![
            label.to_string(),
            format!("{}", run.tac_invalid_frames),
            format!("{gb:.1}"),
            format!("{paper_gb:.1}"),
        ]);
    }
    table.print();
}

/// §3.3.3 — multi-page read handling.
fn multipage() {
    println!("\n== Ablation 3: multi-page I/O — trim vs split vs disk-only (§3.3.3) ==\n");
    let mut table = Table::new(vec!["mode", "virtual time", "vs Trim"]);
    let mut base = 0.0;
    for mode in [
        MultiPageMode::Trim,
        MultiPageMode::Split,
        MultiPageMode::DiskOnly,
    ] {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(
            PAGE_SIZE, 65_536, 4_096,
        )));
        let mut cfg = SsdConfig::new(SsdDesign::DualWrite, 4_096);
        cfg.multipage = mode;
        cfg.partitions = 1;
        let m = SsdManager::new(cfg, Arc::clone(&io));
        // One quarter of the pages are SSD-resident, scattered through the
        // scan range — the paper's §3.3.3 situation where parts of every
        // multi-page request are cached (their example: the 3rd and 5th
        // pages of a 6-page read).
        // Spread the pre-population in virtual time so the manager's own
        // throttle does not shed it.
        let zero = vec![0u8; PAGE_SIZE];
        for i in 0..16_000u64 {
            m.evict_page(
                i * MILLISECOND,
                PageId(i * 4 + 1),
                &zero,
                false,
                Locality::Random,
            );
        }
        // Start after the fill writes have drained so the throttle stays
        // out of the picture.
        let mut clk = Clk::at(HOUR);
        for run in 0..2_000u64 {
            m.read_run(&mut clk, PageId(run * 32), 32)
                .expect("no faults attached");
        }
        clk.now -= HOUR;
        let secs = clk.now as f64 / 1e9;
        if base == 0.0 {
            base = secs;
        }
        table.row(vec![
            format!("{mode:?}"),
            format!("{secs:.2}s"),
            format!("{:.2}x", secs / base),
        ]);
    }
    table.print();
    println!("(paper: splitting reduced performance; trimming recovers it)");
}

/// §3.3.4 — partitioning under real thread concurrency (latch contention).
///
/// The paper's motivation is the latch on the SSD manager's shared data
/// structures, so this measures pure metadata operations (lookups against
/// the buffer table under the partition latches) from 8 OS threads — I/O
/// is deliberately excluded so the device model's own lock does not mask
/// the effect being measured.
fn partitioning() {
    println!("\n== Ablation 4: SSD partitioning, 8 threads of buffer-table ops (§3.3.4) ==\n");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 2 {
        println!("note: this host exposes {cores} CPU(s); latch contention cannot");
        println!("manifest without true parallelism, so expect flat numbers here.");
        println!("On a multicore host, N=16 spreads the buffer-table latch 16 ways.\n");
    }
    let mut table = Table::new(vec!["partitions", "wall time", "vs N=16"]);
    let mut base = 0.0;
    for n in [16usize, 4, 1] {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(
            PAGE_SIZE,
            1 << 20,
            65_536,
        )));
        let mut cfg = SsdConfig::new(SsdDesign::DualWrite, 65_536);
        cfg.partitions = n;
        let m = Arc::new(SsdManager::new(cfg, io));
        // Pre-populate the cache once (unmeasured).
        let zero = vec![0u8; PAGE_SIZE];
        for i in 0..60_000u64 {
            m.evict_page(0, PageId(i), &zero, false, Locality::Random);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "wall clock on purpose: this measures real OS-thread latch contention \
                      across partition counts, which the virtual clock cannot observe"
        )]
        let t0 = std::time::Instant::now();
        #[expect(
            clippy::disallowed_methods,
            reason = "contention needs true parallelism; the hammered manager is bench-local"
        )]
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let mut x = t + 1;
                    let mut hits = 0u64;
                    for _ in 0..2_000_000u64 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let pid = PageId((x >> 16) % 60_000);
                        if m.contains(pid) {
                            hits += 1;
                        }
                    }
                    std::hint::black_box(hits);
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        if base == 0.0 {
            base = wall;
        }
        table.row(vec![
            format!("{n}"),
            format!("{wall:.2}s"),
            format!("{:.2}x", wall / base),
        ]);
    }
    table.print();
    println!("(more partitions -> less latch contention under real concurrency)");
}

/// §3.3.1 — aggressive filling primes the SSD from cold starts.
///
/// Scenario: a full table scan warms the system from cold (its evicted
/// pages are *sequential*, so only the filling phase will cache them),
/// then a burst of random index lookups runs against the same table.
/// With τ = 95% the scan pre-loads the SSD and the lookups hit it; with
/// filling off, every lookup pays a disk seek.
fn filling() {
    println!("\n== Ablation 5: aggressive filling on/off (§3.3.1) ==\n");
    let mut table = Table::new(vec![
        "tau",
        "random-phase time",
        "SSD hit%",
        "fill admissions",
    ]);
    for (label, tau) in [("95% (on)", 0.95), ("0% (off)", 0.0)] {
        let cfg = SyntheticConfig {
            rows: 800_000,
            record_size: 128,
            theta: 0.0,
            update_frac: 0.0,
            ..Default::default()
        };
        let s = Arc::new(Synthetic::setup(Design::Dw, cfg, |spec| {
            spec.ssd(|s| s.tau = tau);
        }));
        let mut clk = Clk::new();
        // Cold scan: floods the pool; evictions are sequential-class.
        s.db.scan_heap(&mut clk, s.heap, |_, _| {}).unwrap();
        // Random phase.
        let start = clk.now;
        let mut txn = s.db.begin(&mut clk);
        let mut x = 7u64;
        for _ in 0..3_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if let Some(rid) = txn.index_get(s.index, (x >> 16) % 800_000) {
                txn.heap_get(s.heap, rid);
            }
        }
        txn.commit();
        let elapsed = (clk.now - start) as f64 / 1e9;
        let m = s.db.ssd_metrics().unwrap();
        table.row(vec![
            label.to_string(),
            format!("{elapsed:.0}s"),
            format!("{:.0}%", m.hit_rate() * 100.0),
            format!("{}", m.fill_admissions),
        ]);
    }
    table.print();
    let _ = HOUR;
    let _ = MINUTE;
}

/// §3.3.2 — throttle control under SSD admission storms.
///
/// The throttle's job is to shed *optional* SSD traffic when the SSD queue
/// is deep, so foreground reads are not wedged behind it. Scenario: a
/// steady SSD-resident read workload, plus a periodic admission storm
/// (20,000 eviction-admissions in one go — a pool flush's worth). With
/// mu = 100 the storm is shed; without it, every storm books ~27 virtual
/// minutes of SSD time that the readers must queue behind.
fn throttle() {
    println!("\n== Ablation 6: throttle control mu=100 vs off (§3.3.2) ==\n");
    let hours = if turbopool_bench::quick() {
        HOUR
    } else {
        2 * HOUR
    };
    let mut table = Table::new(vec![
        "mu",
        "reader txns",
        "throttled admissions",
        "ssd writes",
    ]);

    struct AdmissionStorm {
        s: Arc<Synthetic>,
        junk: turbopool_engine::HeapId,
        period: u64,
        pages: u64,
        next_pid: u64,
    }
    impl turbopool_workload::driver::Client for AdmissionStorm {
        fn step(&mut self, clk: &mut Clk) -> turbopool_workload::driver::StepResult {
            let mgr = self.s.db.ssd_manager().unwrap();
            let meta = self.s.db.heap_meta(self.junk);
            let zero = vec![0u8; PAGE_SIZE];
            for _ in 0..self.pages {
                let pid = meta.first.offset(self.next_pid % meta.pages);
                self.next_pid += 1;
                mgr.evict_page(clk.now, pid, &zero, false, Locality::Random);
            }
            clk.elapse(self.period);
            turbopool_workload::driver::StepResult::Continue
        }
    }

    for (label, mu) in [("100 (on)", 100usize), ("off", usize::MAX / 2)] {
        let cfg = SyntheticConfig {
            rows: 400_000,
            record_size: 128,
            theta: 0.0,
            update_frac: 0.0,
            ops_per_txn: 2,
            ..Default::default()
        };
        let s = Arc::new(Synthetic::setup(Design::Dw, cfg, |spec| {
            spec.ssd(|s| s.mu = mu);
            spec.db.pool.frames = 512;
            spec.db.pool.db_pages += 40_000; // junk heap for the storm
        }));
        let mut clk = Clk::new();
        let junk = s.db.create_heap(&mut clk, "junk", 128, 40_000);
        // Pre-warm the SSD with the read set.
        {
            let mgr = s.db.ssd_manager().unwrap();
            let ps = s.db.page_size();
            let zero = vec![0u8; ps];
            let meta = s.db.heap_meta(s.heap);
            for i in 0..meta.used_pages() {
                // Spread over virtual time to stay below the throttle.
                mgr.evict_page(
                    i * 100 * MILLISECOND,
                    meta.first.offset(i),
                    &zero,
                    false,
                    Locality::Random,
                );
            }
        }
        let rec = ThroughputRecorder::new(MINUTE);
        let mut d = Driver::new();
        for c in 0..3 {
            d.add(HOUR, Box::new(s.client(c, Arc::clone(&rec))));
        }
        d.add(
            HOUR + 10 * MINUTE,
            Box::new(AdmissionStorm {
                s: Arc::clone(&s),
                junk,
                period: 40 * MINUTE,
                pages: 20_000,
                next_pid: 0,
            }),
        );
        d.run_until(HOUR + hours);
        let m = s.db.ssd_metrics().unwrap();
        table.row(vec![
            label.to_string(),
            format!("{}", rec.total()),
            format!("{}", m.throttled_admissions),
            format!("{}", s.db.io().ssd_stats().write_ops),
        ]);
    }
    table.print();
    println!("(the throttle sheds the storm, keeping reads fast; without it the");
    println!(" readers queue behind tens of minutes of optional SSD writes)");
}

fn main() {
    let timer = turbopool_bench::WallTimer::start();
    classifier_accuracy();
    tac_waste();
    multipage();
    partitioning();
    filling();
    throttle();
    turbopool_bench::BenchReport::new("ablation")
        .standard(timer.secs(), 0, 0)
        .emit();
}
