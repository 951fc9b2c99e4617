//! Microbenchmarks of the host-time costs that open ROADMAP.md items
//! read: item 5(b)'s profile leads and item 31's SSD-table heaps. Each
//! rung's doc comment names the item that reads it; a rung whose question
//! has closed goes, its last reading kept in `results/`. Self-contained
//! std-only harness (this environment has no registry access, so no
//! criterion): each benchmark runs a warmup batch, then splits a fixed
//! iteration budget into [`PASSES`] timed passes and reports their median
//! ns/iter with the fastest and slowest pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_bench::WallTimer;
use turbopool_bufpool::policy::Lru2Policy;
use turbopool_bufpool::{BufferPool, BufferPoolConfig, DirectIo, PageIo};
use turbopool_core::partition::{page_map, Partition};
use turbopool_core::{SsdConfig, SsdDesign, SsdManager};
use turbopool_engine::btree::{find_in_leaf, sorted_head};
use turbopool_engine::{Database, DbConfig};
use turbopool_iosim::{
    Clk, DeviceSetup, IoManager, Locality, PageBuf, PageId, MILLISECOND, SECOND,
};

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
fn bench(name: &str, iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let per_pass = (iters / PASSES).max(1);
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
            t0.elapsed().as_nanos() as f64 / per_pass as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    let (lo, med, hi) = (ns[0], ns[ns.len() / 2], ns[ns.len() - 1]);
    let iters = per_pass * PASSES;
    println!("{name:<34} {med:>10.1} ns/iter [{lo:.1}–{hi:.1}] ({iters} iters, {PASSES} passes)");
    ITERS.fetch_add(iters, Ordering::Relaxed);
    med
}

/// ROADMAP 31 (the SSD table's heaps; which heap layout to choose): one
/// partition at the `turbobench` size (18,350 frames over 16 partitions),
/// full of clean pages. The touch an SSD read hit makes, then the
/// replacement of the clean victim by a newly admitted page.
fn bench_partition() {
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

/// ROADMAP 31 (the victim heap the SSD table's orders share, and the
/// pool-side cost of its layout): the LRU-2 victim heap on the two paths a
/// pool access takes. A hit only stamps the slot (its one heap entry goes
/// stale in place), so the heap must not grow however many hits run; an
/// eviction pops the minimum, re-keying the stale entries it meets — at
/// the pool size and the 16-hits-per-eviction ratio of the `tpcc_lc`
/// benchmark workload.
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
}

/// ROADMAP 5(b) (serving pool hits under one latch hold): one warm pool
/// access end to end — hash probe, pin, policy stamp, guard drop — one
/// table latch and no heap operation.
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

/// ROADMAP 5(b) (the sorted head's write half: what a node write that
/// keeps its head sorted saves on later lookups), here and in the two
/// rungs below: a point lookup's scan over one full 8 KB leaf (511
/// unsorted entries).
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

/// ROADMAP 5(b), the sorted head: a point lookup in a bulk-loaded 8 KB leaf
/// (357 entries, the loaders' 0.7 fill, all sorted): a search of the sorted
/// head, its length read from the slot cached on the page image, against
/// the head-0 scan.
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

/// ROADMAP 5(b), the sorted head: a point lookup in each of 4,096
/// bulk-loaded leaves in turn (32 MiB of leaves, visited in a scrambled
/// order): the same search as `btree_find_in_leaf_357_head`, but each
/// leaf's entries are cold, as on an index lookup that has not touched the
/// leaf lately.
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

/// ROADMAP 5(b) (`core.evict_admit_ns`): a DW clean eviction into the SSD
/// table and the read hit that serves the page back.
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

/// ROADMAP 31 (TAC's one-`u64` heap key and its coldest-frame pop): TAC's
/// write-on-read admission on a full SSD (§2.5), one page per extent: the
/// SSD is filled by sequential reads, which save no time and so leave their
/// extents cold, then every timed read is a random miss of a new page,
/// hotter than those, whose admission replaces the coldest frame.
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

/// ROADMAP 5(b) (cold page images): a pool miss that is an SSD hit, with
/// the clean eviction that makes room for it, at the `tpcc_lc` frame counts
/// (2,621 pool frames over 18,350 SSD frames, 8 KB pages, LC): a cyclic
/// sweep over 8,192 SSD-resident pages never finds one in the pool. The
/// fill is a handle clone of the SSD frame's image; the eviction finds the
/// victim already cached.
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

/// ROADMAP 31 (the SSD table's per-order columns, read from both designs'
/// sides): a 32-page read-ahead request through the table's `read_run`
/// under DW and under TAC, with the first two pages and the last page of
/// every run SSD-resident (so the request trims both ends and reads a
/// 29-page middle from disk). Reported per request; divide by 32 for the
/// per-page cost. Then one resident page per request through `read_page`,
/// an SSD hit.
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

/// ROADMAP 5(b) (each read before a `heap_update_with`, and `tpce_dw`'s
/// cold customer rows): a heap record read and a heap record update, each
/// by copy and by loan, on a resident page of 192-byte records (the TPC-E
/// customer row): a read in one read-only transaction that pins the page
/// each time, copying the record out (`heap_get`) or lending it to a
/// closure that reads one field (`heap_read`); and a one-field change
/// committed in its own transaction, written as the whole record
/// (`heap_update`) or as the field alone (`heap_update_with`). Both updates
/// log the same record.
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

/// ROADMAP 5(b) (the first-write copy on `tpcc_lc`): a transaction's first
/// write to a resident page — one heap-update-sized window — and its
/// commit, on a frame that holds the only handle on its image (written in
/// place, published by applying the records) and on one whose image another
/// handle shares (copied into a private image, which commit swaps in). Both
/// rungs take a handle on the frame's image; only the shared one keeps it
/// across the transaction.
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

fn main() {
    let timer = WallTimer::start();
    bench_partition();
    bench_lru2();
    bench_pool_hit();
    bench_btree_leaf_scan();
    bench_btree_sorted_head();
    bench_btree_cold_leaves();
    bench_ssd_manager();
    bench_tac_admit_replace();
    bench_pool_miss_ssd_hit();
    bench_read_run();
    bench_heap_lending();
    bench_first_write();

    timer.print_timing("micro", ITERS.load(Ordering::Relaxed));
}
