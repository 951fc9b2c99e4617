//! Microbenchmarks for the SSD manager's data structures and the engine's
//! hot paths. Self-contained std-only harness (this environment has no
//! registry access, so no criterion): each benchmark runs a warmup batch,
//! then splits a fixed iteration budget into [`PASSES`] timed passes and
//! reports their median ns/iter with the fastest and slowest pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_bench::WallTimer;
use turbopool_bufpool::policy::Lru2Policy;
use turbopool_bufpool::{BufferPool, BufferPoolConfig, DirectIo, PageIo};
use turbopool_core::partition::{page_map, Partition};
use turbopool_core::{SsdConfig, SsdDesign, SsdManager};
use turbopool_engine::btree::{find_in_leaf, sorted_head};
use turbopool_engine::txn::diff_ranges;
use turbopool_engine::{bulk_load_heap, bulk_load_index, Database, DbConfig};
use turbopool_iosim::{
    fault, Clk, DeviceSetup, IoManager, Locality, PageBuf, PageId, PageTable, PidMap, MILLISECOND,
    SECOND,
};
use turbopool_workload::rand_util::{client_rng, Zipf};

/// Iterations timed so far, over every rung: the `timing` line's steps.
static ITERS: AtomicU64 = AtomicU64::new(0);

/// Timed passes per rung. A rung's spread comes mostly from one process
/// to the next, so a pass alone cannot resolve a change of 1–2 ns; the
/// median of several in one process, printed with their range, can be
/// compared across processes.
const PASSES: u64 = 5;

/// Time `iters` calls of `f`, split into [`PASSES`] passes, after
/// `iters / 10` warmup calls, and print the median pass's ns/iter with
/// the fastest and slowest. Wall-clock by necessity: these measure real
/// CPU cost of the data structures, not simulated I/O time.
fn bench(name: &str, iters: u64, f: impl FnMut()) -> f64 {
    bench_per(name, iters, 1, f)
}

/// [`bench`] for a body that does `units` units of work per call (pages
/// written, say): `calls` timed calls in all, reported as ns per unit.
fn bench_per(name: &str, calls: u64, units: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..calls / 10 {
        f();
    }
    let per_pass = (calls / PASSES).max(1);
    let mut ns: Vec<f64> = (0..PASSES)
        .map(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "harness-side timing of real CPU work; the virtual clock cannot \
                          observe host execution cost"
            )]
            let t0 = std::time::Instant::now();
            for _ in 0..per_pass {
                f();
            }
            t0.elapsed().as_nanos() as f64 / (per_pass * units) as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    let (lo, med, hi) = (ns[0], ns[ns.len() / 2], ns[ns.len() - 1]);
    let iters = per_pass * PASSES * units;
    println!("{name:<34} {med:>10.1} ns/iter [{lo:.1}–{hi:.1}] ({iters} iters, {PASSES} passes)");
    ITERS.fetch_add(iters, Ordering::Relaxed);
    med
}

fn bench_partition() {
    bench("partition_insert_lookup_remove", 200, || {
        let mut p = Partition::new(0, 4096, page_map(3 * 4096), None);
        for i in 0..4096u64 {
            p.insert(PageId(i * 3), i % 2 == 0, i);
        }
        for i in 0..4096u64 {
            std::hint::black_box(p.lookup(PageId(i * 3)));
        }
        for i in 0..4096u64 {
            let idx = p.lookup(PageId(i * 3)).unwrap();
            p.remove(idx);
        }
    });

    // One partition at the `turbobench` size (18,350 frames over 16
    // partitions), full of clean pages: the touch an SSD read hit makes,
    // then the replacement of the clean victim by a newly admitted page.
    const FRAMES: usize = 18_350 / 16;
    // Admitted page numbers run up to the stamp, which the two rungs
    // below raise 1.1M times each.
    let mut p = Partition::new(0, FRAMES, page_map(1 << 22), None);
    for i in 0..FRAMES {
        p.insert(PageId(i as u64), false, i as u64 + 1);
    }
    let (mut stamp, mut i) = (FRAMES as u64, 0usize);
    bench("partition_touch_1147", 1_000_000, || {
        stamp += 1;
        i = (i + 127) % FRAMES;
        p.touch(i, stamp);
    });
    bench("partition_replace_victim_1147", 1_000_000, || {
        let (_, victim) = p.peek_clean_victim().unwrap();
        p.remove(victim);
        stamp += 1;
        p.insert(PageId(stamp), false, stamp);
    });
}

/// The LRU-2 victim heap on the two paths a pool access takes. A hit only
/// stamps the slot (its one heap entry goes stale in place), so the heap
/// must not grow however many hits run; an eviction pops the minimum,
/// re-keying the stale entries it meets — at the pool size and the
/// 16-hits-per-eviction ratio of the `tpcc_lc` benchmark workload, then
/// under read-ahead's install-then-hit runs.
fn bench_lru2() {
    const HIT_FRAMES: usize = 8192;
    let mut p = Lru2Policy::new(HIT_FRAMES, HIT_FRAMES as u64);
    for s in 0..HIT_FRAMES {
        p.on_install(s, PageId(s as u64));
    }
    let mut i = 0usize;
    // 32M touches: at 2–4 ns each one timed pass takes 70–130 ms, long
    // enough to resolve a 1–2 ns change on the pool-hit path.
    bench("lru2_touch_hit", 32_000_000, || {
        i = (i + 127) % HIT_FRAMES;
        p.on_access(i);
    });
    println!(
        "lru2_touch_hit: heap holds {} entries for {HIT_FRAMES} frames",
        p.heap_len()
    );
    assert!(p.heap_len() <= HIT_FRAMES, "one heap entry per slot");

    const FRAMES: usize = 2621;
    let mut p = Lru2Policy::new(FRAMES, 4 * FRAMES as u64);
    let mut resident: Vec<PageId> = (0..FRAMES as u64).map(PageId).collect();
    for (s, &pid) in resident.iter().enumerate() {
        p.on_install(s, pid);
    }
    let mut x = 1u64;
    let mut next_pid = FRAMES as u64;
    bench("lru2_evict_cycle_2621", 200_000, || {
        for _ in 0..16 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.on_access((x >> 33) as usize % FRAMES);
        }
        let v = p.select_victim(|_| true).expect("nothing is pinned");
        p.on_evict(v, resident[v]);
        // Cycle through 4x the pool so reinstalls adopt retained history.
        next_pid = (next_pid + 1) % (4 * FRAMES as u64);
        resident[v] = PageId(next_pid);
        p.on_install(v, resident[v]);
    });
    assert!(p.heap_len() <= 2 * FRAMES, "two heap entries per slot");

    // Read-ahead at the same pool size, as a `tpch_tac` scan drives it: a
    // 32-page run installed with protection, each install evicting the
    // LRU-2 victim, then the scan's 32 hits on the run. Per page.
    const RUN: usize = 32;
    let mut run = [0usize; RUN];
    bench_per("read_ahead_install", 20_000, RUN as u64, || {
        for at in run.iter_mut() {
            let v = p.select_victim(|_| true).expect("nothing is pinned");
            p.on_evict(v, resident[v]);
            next_pid = (next_pid + 1) % (4 * FRAMES as u64);
            resident[v] = PageId(next_pid);
            p.on_install_protected(v, resident[v]);
            *at = v;
        }
        for &v in &run {
            p.on_access(v);
        }
    });
    assert!(p.heap_len() <= 2 * FRAMES, "two heap entries per slot");
}

/// One warm pool access end to end: hash probe, pin, policy stamp, guard
/// drop — one table latch and no heap operation.
fn bench_pool_hit() {
    const PAGES: u64 = 4096;
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(256, PAGES, 1)));
    let layer: Arc<dyn PageIo> = Arc::new(DirectIo::new(io));
    let pool = BufferPool::new(BufferPoolConfig::new(PAGES as usize, 256, PAGES), layer);
    let mut clk = Clk::new();
    for p in 0..PAGES {
        pool.get(&mut clk, PageId(p), Locality::Random)
            .expect("no fault plan attached");
    }
    let warm = pool.stats();
    let mut x = 1u64;
    bench("pool_get_hit_drop", 2_000_000, || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let pid = PageId((x >> 33) % PAGES);
        let g = pool.get(&mut clk, pid, Locality::Random);
        std::hint::black_box(&g);
    });
    assert_eq!(
        pool.stats().misses,
        warm.misses,
        "every timed get was a hit"
    );
}

/// One page-table probe against the page-number-indexed table every
/// per-page table uses and against `PidMap`'s multiply-and-fold hash,
/// over 28k pages (the benchmark's
/// databases hold 17k-36k), holding one entry per pool frame spread
/// across them.
fn bench_page_table_probe() {
    const PAGES: u64 = 28_672;
    const STRIDE: u64 = 11;
    let mut table: PageTable<u32> = PageTable::new(PAGES, u32::MAX);
    let mut map: PidMap<u32> = PidMap::default();
    for k in (0..PAGES).step_by(STRIDE as usize) {
        table.insert(PageId(k), k as u32);
        map.insert(PageId(k), k as u32);
    }
    let mut x = 1u64;
    let mut step = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        PageId((x >> 33) % PAGES)
    };
    let table_ns = bench("page_table_probe:page_table", 2_000_000, || {
        std::hint::black_box(table.get(step()));
    });
    let map_ns = bench("page_table_probe:pidmap", 2_000_000, || {
        std::hint::black_box(map.get(&step()));
    });
    println!(
        "page_table_probe: PageTable probe is {:.1}x faster than PidMap",
        map_ns / table_ns.max(1e-9)
    );
}

/// An 8 KB B+-tree leaf of `n` entries, entry `i` holding `(key(i), i)`.
fn leaf_of(n: u64, key: impl Fn(u64) -> u64) -> PageBuf {
    let mut image = PageBuf::zeroed(FRAME);
    let leaf = image.as_mut_slice();
    leaf[2..4].copy_from_slice(&(n as u16).to_le_bytes());
    for i in 0..n {
        let off = 16 + i as usize * 16;
        leaf[off..off + 8].copy_from_slice(&key(i).to_le_bytes());
        leaf[off + 8..off + 16].copy_from_slice(&i.to_le_bytes());
    }
    image
}

/// A point lookup's scan over one full 8 KB leaf (511 unsorted entries).
fn bench_btree_leaf_scan() {
    const N: u64 = 511;
    // Keys in a scrambled order, as appends leave them.
    let leaf = leaf_of(N, |i| i * 211 % N);
    let mut k = 0u64;
    bench("btree_find_in_leaf_511", 1_000_000, || {
        k = (k + 97) % N;
        let at = find_in_leaf(std::hint::black_box(&leaf), 0, k);
        std::hint::black_box(at.expect("every key is present"));
    });
}

/// A point lookup in a bulk-loaded 8 KB leaf (357 entries, the loaders'
/// 0.7 fill, all sorted): a search of the sorted head, its length
/// read from the slot cached on the page image, against the head-0 scan.
fn bench_btree_sorted_head() {
    const N: u64 = 357;
    let image = leaf_of(N, |i| i * 3);
    assert_eq!(image.derived(sorted_head), N, "bulk-loaded: all sorted");
    let lookup = |name: &str, head: fn(&PageBuf) -> usize| {
        let mut k = 0u64;
        bench(name, 1_000_000, || {
            k = (k + 97) % N;
            let image = std::hint::black_box(&image);
            let at = find_in_leaf(image, head(image), k * 3);
            std::hint::black_box(at.expect("every key is present"));
        })
    };
    let scan_ns = lookup("btree_find_in_leaf_357_scan", |_| 0);
    let head_ns = lookup("btree_find_in_leaf_357_head", |image| {
        image.derived(sorted_head) as usize
    });
    assert!(
        head_ns < scan_ns,
        "the sorted-head search is no faster than the scan"
    );
    println!(
        "btree sorted head delta: {:.1} ns saved per leaf",
        scan_ns - head_ns
    );
}

/// A point lookup in each of 4,096 bulk-loaded leaves in turn (32 MiB of
/// leaves, visited in a scrambled order): the same search as
/// `btree_find_in_leaf_357_head`, but each leaf's entries are cold, as on
/// an index lookup that has not touched the leaf lately.
fn bench_btree_cold_leaves() {
    const N: u64 = 357;
    const LEAVES: u64 = 4096;
    let leaves: Vec<PageBuf> = (0..LEAVES)
        .map(|l| leaf_of(N, |i| (l * N + i) * 3))
        .collect();
    let (mut l, mut k) = (0u64, 0u64);
    bench("btree_find_in_leaf_357_cold", 1_000_000, || {
        // Odd strides visit every leaf and every entry, far apart.
        l = (l + 1_361) % LEAVES;
        k = (k + 97) % N;
        let image = std::hint::black_box(&leaves[l as usize]);
        let at = find_in_leaf(image, image.derived(sorted_head) as usize, (l * N + k) * 3);
        std::hint::black_box(at.expect("every key is present"));
    });
}

fn bench_ssd_manager() {
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(512, 1 << 20, 1 << 16)));
    let cfg = SsdConfig::new(SsdDesign::DualWrite, 1 << 16);
    let m = SsdManager::new(cfg, io);
    let data = vec![0u8; 512];
    let mut buf = vec![0u8; 512];
    let mut clk = Clk::new();
    let mut i = 0u64;
    bench("ssd_manager_evict_hit_cycle", 200_000, || {
        i += 1;
        let pid = PageId((i * 7919) % 1_000_000);
        m.evict_page(clk.now, pid, &data, false, Locality::Random);
        m.read_page(&mut clk, pid, Locality::Random, &mut buf)
            .expect("no faults attached");
    });
}

/// TAC's write-on-read admission on a full SSD (§2.5), one page per
/// extent: the SSD is filled by sequential reads, which save no time and so
/// leave their extents cold, then every timed read is a random miss of a
/// new page, hotter than those, whose admission replaces the coldest frame.
fn bench_tac_admit_replace() {
    const FRAMES: u64 = 1 << 16;
    const READS: u64 = 50_000;
    // The timed reads and their warmup each read a page never read before.
    let pages = FRAMES + READS + READS / 10;
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(512, pages, FRAMES)));
    let mut cfg = SsdConfig::new(SsdDesign::Tac, FRAMES);
    cfg.tac_extent_pages = 1;
    cfg.tau = 1.0;
    let tac = SsdManager::new(cfg, io);
    let mut buf = vec![0u8; 512];
    let mut clk = Clk::new();
    for p in 0..FRAMES {
        // Spaced out so the SSD queue stays below the throttle.
        clk.elapse(MILLISECOND);
        tac.read_page(&mut clk, PageId(p), Locality::Sequential, &mut buf)
            .expect("no faults attached");
    }
    assert_eq!(tac.occupancy(), FRAMES, "the sequential reads fill the SSD");
    let mut next = FRAMES;
    bench("tac_admit_replace", READS, || {
        tac.read_page(&mut clk, PageId(next), Locality::Random, &mut buf)
            .expect("no faults attached");
        next += 1;
    });
    let replaced = tac.metrics.snapshot().replacements;
    assert_eq!(replaced, next - FRAMES, "every timed read replaced a frame");
}

/// A pool miss that is an SSD hit, with the clean eviction that makes room
/// for it, at the `tpcc_lc` frame counts (2,621 pool frames over 18,350
/// SSD frames, 8 KB pages, LC): a cyclic sweep over 8,192 SSD-resident
/// pages never finds one in the pool. The fill is a handle clone of the
/// SSD frame's image; the eviction finds the victim already cached.
fn bench_pool_miss_ssd_hit() {
    const PAGES: u64 = 8192;
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(FRAME, PAGES, 18_350)));
    let page = vec![0x6Bu8; FRAME];
    for p in 0..PAGES {
        io.disk_store().write(PageId(p), &page);
    }
    let layer = Arc::new(SsdManager::new(
        SsdConfig::new(SsdDesign::LazyCleaning, 18_350),
        Arc::clone(&io),
    ));
    let mut cfg = BufferPoolConfig::new(2621, FRAME, PAGES);
    cfg.fill_expansion = 1;
    let pool = BufferPool::new(cfg, layer);
    let mut clk = Clk::new();
    let mut next = 0u64;
    let mut miss = |clk: &mut Clk| {
        // Spaced out so the SSD queue stays below the throttle.
        clk.elapse(MILLISECOND);
        next = (next + 1) % PAGES;
        let g = pool.get(clk, PageId(next), Locality::Random);
        std::hint::black_box(g.expect("no faults attached"));
    };
    // One sweep reads every page from disk and evicts it into the SSD.
    for _ in 0..PAGES + 2621 {
        miss(&mut clk);
    }
    let reads = io.disk_stats().read_ops;
    bench("pool_miss_ssd_hit_cycle", 200_000, || miss(&mut clk));
    assert_eq!(
        io.disk_stats().read_ops,
        reads,
        "every timed miss hit the SSD"
    );
}

/// The paper's page size: the frame-path rungs below run at 8 KB.
const FRAME: usize = 8192;

/// The two checksum kernels over one 8 KB frame: byte-serial FNV-1a (the
/// WAL/fingerprint format) against the word-parallel frame sum `IoManager`
/// runs on every SSD frame read and write.
fn bench_checksums() {
    let frame: Vec<u8> = (0..FRAME).map(|i| (i * 31 + 7) as u8).collect();
    bench("fnv1a_8k", 50_000, || {
        std::hint::black_box(fault::checksum(std::hint::black_box(&frame)));
    });
    bench("frame_sum_8k", 500_000, || {
        std::hint::black_box(fault::frame_sum(std::hint::black_box(&frame)));
    });
}

/// One SSD frame through `IoManager`: device booking, the store and the
/// frame sum — what `SsdManager` pays per hit and per admission.
/// By handle (the page is an image the store shares: what the pool's
/// traffic does) and, `*_slice`, by byte slice (the store copies, the sum
/// is taken once per write).
fn bench_ssd_frame() {
    const FRAMES: u64 = 1024;
    let io = IoManager::new(&DeviceSetup::paper(FRAME, 16, FRAMES));
    let data = vec![0x5Au8; FRAME];
    let mut buf = vec![0u8; FRAME];
    let mut clk = Clk::new();
    let mut i = 0u64;
    // A different image per write, as evictions bring: each is summed once.
    let images: Vec<PageBuf> = (0..64u8)
        .map(|k| PageBuf::from_slice(&[k; FRAME]))
        .collect();
    bench("ssd_frame_write", 200_000, || {
        i += 1;
        let frame = (i * 7919) % FRAMES;
        let image = images[(i % 64) as usize].clone();
        // Wait each write out so the device queue stays one deep.
        let done = io.write_ssd_async(clk.now, frame, &image, PageId(frame));
        clk.wait_until(done.expect("no fault plan attached"));
    });
    let mut image = io.zero_page();
    bench("ssd_frame_read", 200_000, || {
        i += 1;
        let read = io.read_ssd(&mut clk, (i * 7919) % FRAMES, &mut image);
        read.expect("no fault plan attached");
    });
    // A frame damaged at rest holds another image than its write meant, so
    // its read is the one that sums both.
    let damaged = FRAMES - 1;
    let mut bytes = io.ssd_store().read_buf(PageId(damaged)).to_vec();
    bytes[0] ^= 1;
    io.ssd_store().write(PageId(damaged), &bytes);
    bench("ssd_frame_read_damaged", 200_000, || {
        let read = io.read_ssd(&mut clk, damaged, &mut image);
        read.expect_err("damaged at rest");
    });
    bench("ssd_frame_write_slice", 200_000, || {
        i += 1;
        let frame = (i * 7919) % FRAMES;
        let done = io.write_ssd_async(clk.now, frame, &data, PageId(frame));
        clk.wait_until(done.expect("no fault plan attached"));
    });
    bench("ssd_frame_read_slice", 200_000, || {
        i += 1;
        let read = io.read_ssd(&mut clk, (i * 7919) % FRAMES, &mut buf);
        read.expect("no fault plan attached");
    });
}

/// Handing a page to another tier: a handle clone against the 8 KB copy
/// into a fresh buffer it replaces.
fn bench_page_image() {
    let image = PageBuf::from_slice(&[0xA5u8; FRAME]);
    bench("page_image_clone", 5_000_000, || {
        std::hint::black_box(std::hint::black_box(&image).clone());
    });
    bench("page_image_copy_8k", 500_000, || {
        std::hint::black_box(PageBuf::from_slice(std::hint::black_box(&image)));
    });
}

/// A 32-page read-ahead request through the table's `read_run` under DW
/// and under TAC, with the
/// first two pages and the last page of every run SSD-resident (so the
/// request trims both ends and reads a 29-page middle from disk). Reported
/// per request; divide by 32 for the per-page cost. Then one resident page
/// per request through `read_page`, an SSD hit.
fn bench_read_run() {
    const RUN: u64 = 32;
    const RUNS: u64 = 64;
    // Exactly the frames the resident pages need: the cache is full once
    // they are in, so the timed loop admits nothing and stays steady.
    const SSD_FRAMES: u64 = 3 * RUNS;
    let data = vec![0xC3u8; FRAME];
    for (design, label) in [
        (SsdDesign::DualWrite, "ssd_manager"),
        (SsdDesign::Tac, "tac"),
    ] {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(
            FRAME,
            RUN * RUNS,
            SSD_FRAMES,
        )));
        let mut clk = Clk::new();
        for p in 0..RUN * RUNS {
            let done = io.write_disk_async(clk.now, PageId(p), &data, Locality::Sequential);
            clk.wait_until(done.expect("no fault plan attached"));
        }
        let name = format!("read_run_32_pages_{label}");
        let layer = SsdManager::new(SsdConfig::new(design, SSD_FRAMES), io);
        let mut buf = vec![0u8; FRAME];
        for r in 0..RUNS {
            for off in [0, 1, RUN - 1] {
                // TAC admits on the random read, DW on the clean
                // eviction; each ignores the other call.
                let pid = PageId(r * RUN + off);
                layer
                    .read_page(&mut clk, pid, Locality::Random, &mut buf)
                    .expect("no fault plan attached");
                layer.evict_page(clk.now, pid, &buf, false, Locality::Random);
            }
        }
        // Let every admission write complete (TAC frames turn valid then).
        clk.elapse(SECOND);
        let mut r = 0u64;
        bench(&name, 20_000, || {
            r = (r + 1) % RUNS;
            let pages = layer.read_run(&mut clk, PageId(r * RUN), RUN);
            std::hint::black_box(pages.expect("no fault plan attached"));
        });
        // A single-page SSD hit on the same table: the first page of each
        // run in turn.
        let hit = name.replace("read_run_32_pages", "read_page_ssd_hit");
        bench(&hit, 200_000, || {
            r = (r + 1) % RUNS;
            layer
                .read_page(&mut clk, PageId(r * RUN), Locality::Random, &mut buf)
                .expect("no fault plan attached");
        });
    }
}

/// The redo diff over one whole 8 KB page — what `Txn::write_page` ran
/// after every mutation before it captured windows, and what a writer that
/// opens the whole page as its window still pays: one 8-byte field changed
/// (a ledger balance, a TPC-C stock quantity — almost all of the page is
/// skipped), and sixteen 4-byte fields scattered a record apart (sixteen
/// ranges). The `redo_capture_*` rungs are the same edits through
/// `write_page` on an already-touched page, windows and all.
fn bench_diff() {
    let before: Vec<u8> = (0..FRAME).map(|i| (i * 131 + 5) as u8).collect();
    let mut one_field = before.clone();
    for b in &mut one_field[5000..5008] {
        *b ^= 0x3C;
    }
    let mut scattered = before.clone();
    for field in 0..16 {
        for b in &mut scattered[200 + field * 500..][..4] {
            *b ^= 0x55;
        }
    }
    for (name, after, ranges) in [
        ("diff_ranges_8k_one_field", &one_field, 1),
        ("diff_ranges_8k_scattered", &scattered, 16),
    ] {
        assert_eq!(diff_ranges(&before, after).len(), ranges);
        bench(name, 500_000, || {
            std::hint::black_box(diff_ranges(
                std::hint::black_box(&before),
                std::hint::black_box(after),
            ));
        });
    }

    // One transaction, never committed, whose record list grows by a
    // record or two per call (hence the smaller iteration count).
    let db = Database::open(DbConfig::new(FRAME, 256, 64));
    let mut clk = Clk::new();
    let mut txn = db.begin(&mut clk);
    let pid = PageId(3);
    let mut k = 0u64;
    bench("redo_capture_one_field", 200_000, || {
        k += 1;
        txn.write_page(pid, Locality::Random, |b| b.put(5000, &k.to_le_bytes()));
    });
    // A heap insert's shape: a flag byte and a record far from it.
    bench("redo_capture_two_windows", 200_000, || {
        k += 1;
        txn.write_page(pid, Locality::Random, |b| {
            b.put(17, &[k as u8]);
            b.put(5000, &[k as u8; 64]);
        });
    });
    txn.abort();
}

fn bench_engine() {
    {
        // The whole transaction write path at the paper's page size: first
        // touch of five resident pages, one field changed on each (snapshot,
        // mutate, diff), then log append + flush + publication.
        let mut cfg = DbConfig::new(FRAME, 256, 64);
        cfg.pool.fill_expansion = 1;
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let mut k = 0u64;
        bench("txn_update_commit_5_pages", 50_000, || {
            k += 1;
            let mut txn = db.begin(&mut clk);
            for p in 0..5 {
                let pid = PageId((k * 7 + p * 11) % 48);
                txn.write_page(pid, Locality::Random, |b| b.put(4000, &k.to_le_bytes()));
            }
            txn.commit();
        });
    }

    {
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.db_pages = 4096;
        cfg.pool.frames = 512;
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let idx = db.create_index(&mut clk, "i", 2048);
        let mut k = 0u64;
        // Bounded key domain: inserts become upserts once the domain is
        // covered, so the tree (and its extent) stays fixed-size no matter
        // how many iterations run.
        bench("btree_upsert_get_txn", 50_000, || {
            k += 1;
            let mut txn = db.begin(&mut clk);
            txn.index_insert(idx, (k * 2_654_435_761) % 5_000, k);
            txn.index_get(idx, (k * 48_271) % 5_000);
            txn.commit();
        });
    }

    {
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.db_pages = 1 << 12;
        cfg.pool.frames = 512;
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 64, 1 << 10);
        let rec = [7u8; 64];
        // Pre-populate a bounded row set, then benchmark updates.
        let mut txn = db.begin(&mut clk);
        for _ in 0..1_000 {
            txn.heap_insert(h, &rec).unwrap();
        }
        txn.commit();
        let mut k = 0u64;
        bench("heap_update_txn", 50_000, || {
            k += 1;
            let mut txn = db.begin(&mut clk);
            let mut r = rec;
            r[0] = k as u8;
            txn.heap_update(h, k % 1_000, &r);
            txn.commit();
        });
    }
}

/// A heap record read and a heap record update, each by copy and by loan,
/// on a resident page of 192-byte records (the TPC-E customer row): a read
/// in one read-only transaction that pins the page each time, copying the
/// record out (`heap_get`) or lending it to a closure that reads one field
/// (`heap_read`); and a one-field change committed in its own transaction,
/// written as the whole record (`heap_update`) or as the field alone
/// (`heap_update_with`). Both updates log the same record.
fn bench_heap_lending() {
    const REC: usize = 192;
    let rows = FRAME as u64 / (1 + REC as u64); // one page's worth
                                                // Each rung gets its own database: the update rungs grow the log.
    let heap = || {
        let db = Database::open(DbConfig::new(FRAME, 256, 64));
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "customer", REC, 4);
        let mut txn = db.begin(&mut clk);
        for _ in 0..rows {
            txn.heap_insert(h, &[7u8; REC]).unwrap();
        }
        txn.commit();
        (db, clk, h)
    };
    let mut k = 0u64;
    let (db, mut clk, h) = heap();
    let mut txn = db.begin(&mut clk);
    bench("heap_get_copy", 1_000_000, || {
        k += 1;
        std::hint::black_box(txn.heap_get(h, k % rows));
    });
    bench("heap_read_lend", 1_000_000, || {
        k += 1;
        std::hint::black_box(txn.heap_read(h, k % rows, |r| r[8]));
    });
    txn.commit();
    let (db, mut clk, h) = heap();
    let mut rec = [7u8; REC];
    bench("heap_update_whole", 200_000, || {
        k += 1;
        rec[8..16].copy_from_slice(&k.to_le_bytes());
        let mut txn = db.begin(&mut clk);
        txn.heap_update(h, k % rows, &rec);
        txn.commit();
    });
    let (db, mut clk, h) = heap();
    bench("heap_update_field", 200_000, || {
        k += 1;
        let mut txn = db.begin(&mut clk);
        txn.heap_update_with(h, k % rows, |r| r.put(8, &k.to_le_bytes()));
        txn.commit();
    });
}

/// A transaction's first write to a resident page — one heap-update-sized
/// window — and its commit, on a frame that holds the only handle on its
/// image (written in place, published by applying the records) and on one
/// whose image another handle shares (copied into a private image, which
/// commit swaps in). Both rungs take a handle on the frame's image; only
/// the shared one keeps it across the transaction.
fn bench_first_write() {
    for (name, share) in [
        ("txn_first_write_unshared", false),
        ("txn_first_write_shared", true),
    ] {
        let db = Database::open(DbConfig::new(FRAME, 256, 64));
        let mut clk = Clk::new();
        let pid = PageId(9);
        let mut k = 0u64;
        bench(name, 100_000, || {
            k += 1;
            let held = db.pool().get_resident(pid).map(|g| g.image());
            let held = held.filter(|_| share);
            let mut txn = db.begin(&mut clk);
            txn.write_page(pid, Locality::Random, |b| b.put(4000, &[k as u8; 100]));
            txn.commit();
            drop(held);
        });
    }
}

/// One Zipf(0.9) draw over `hot_ledger`'s 60,000 rows, and one build of
/// the table at warmstart's size (1.2M rows, θ 0.6).
fn bench_zipf() {
    let zipf = Zipf::new(60_000, 0.9);
    let mut rng = client_rng(1, 0);
    bench("zipf_sample_60k", 2_000_000, || {
        std::hint::black_box(zipf.sample(&mut rng));
    });
    bench("zipf_new_1_2m", 10, || {
        std::hint::black_box(Zipf::new(1_200_000, 0.6));
    });
}

/// The restore path, per page written: a heap of 64-byte records (the TPC-E
/// trade row) and a 2M-pair index at the workloads' 0.7 fill, each loaded
/// over again in place.
fn bench_loader() {
    const HEAP_PAGES: u64 = 1024;
    const PAIRS: u64 = 2_000_000;
    let db = Database::open(DbConfig::new(FRAME, HEAP_PAGES + 8192, 64));
    let mut clk = Clk::new();
    let h = db.create_heap(&mut clk, "trade", 64, HEAP_PAGES);
    let rows = db.heap_meta(h).capacity();
    bench_per("bulk_load_heap_page", 50, HEAP_PAGES, || {
        bulk_load_heap(&db, h, rows, |rid, rec| {
            rec[8..16].copy_from_slice(&rid.to_le_bytes())
        });
    });
    let idx = db.create_index(&mut clk, "trade_pk", 8000);
    let cursor = db.index_meta(idx).cursor;
    bulk_load_index(&db, idx, (0..PAIRS).map(|k| (k, k)), 0.7);
    let pages = cursor.load(Ordering::Relaxed) + 1; // extent nodes + root
    bench_per("bulk_load_index_leaf", 20, pages, || {
        cursor.store(0, Ordering::Relaxed);
        bulk_load_index(&db, idx, (0..PAIRS).map(|k| (k, k)), 0.7);
    });
}

fn main() {
    let timer = WallTimer::start();
    bench_partition();
    bench_lru2();
    bench_pool_hit();
    bench_page_table_probe();
    bench_btree_leaf_scan();
    bench_btree_sorted_head();
    bench_btree_cold_leaves();
    bench_ssd_manager();
    bench_tac_admit_replace();
    bench_pool_miss_ssd_hit();
    bench_checksums();
    bench_page_image();
    bench_ssd_frame();
    bench_read_run();
    bench_diff();
    bench_engine();
    bench_heap_lending();
    bench_first_write();
    bench_zipf();
    bench_loader();

    timer.print_timing("micro", ITERS.load(Ordering::Relaxed));
}
