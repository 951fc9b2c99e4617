//! Real-thread safety of the pool's latch protocol.
//!
//! `unpins_race_evictions_on_one_shard`: `PageGuard::drop` lowers the
//! frame's pin count with one atomic decrement and no table latch, while
//! an evictor on another thread — holding that latch — reads the count to
//! decide whether the frame may be recycled. The pool is much smaller than
//! the page range, so nearly every `get` evicts a frame that some other
//! thread unpinned a moment ago. Each thread draws from its own residue
//! class of page ids, so the threads share the table latch, the free list
//! and the victim heap — where unpin and eviction meet — but never a page.
//!
//! `first_touches_of_the_same_page_see_its_fill`: the threads walk one
//! shared page sequence, so they fault in the *same* pages at the same
//! moments. A miss takes its frame's write latch before it releases the
//! table latch, so a thread that hits the page while its fill is in
//! flight waits for the fill instead of reading the victim's image or the
//! zero image. It runs once with fill expansion (the run's first page
//! fills through the same latch) until the pool is full, then through
//! single-page misses that evict.
//!
//! What must hold: no "pool exhausted" or pin-underflow panic, a pinned
//! frame is never recycled under its guard and always holds its own page
//! (every page is tagged with its own id, and the tag is read twice while
//! the guard is held), and every pin count is back to zero at the end.
//!
//! `a_warm_hit_takes_one_table_latch`: the threads only hit one warm
//! pool, and the table latch is taken exactly once per `get` (DESIGN §3,
//! "Latching").

use std::sync::{Arc, Barrier};

use turbopool::bufpool::{BufferPool, BufferPoolConfig, DirectIo, PageIo};
use turbopool::iosim::{Clk, DeviceSetup, IoError, IoManager, Locality, PageBuf, PageId, Time};

const PAGE: usize = 64;
const DB_PAGES: u64 = 2048;
const FRAMES: usize = 64;
const THREADS: u64 = 4;
const GETS_PER_THREAD: u64 = 200_000;

fn tag(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("a page holds a tag"))
}

#[test]
fn unpins_race_evictions_on_one_shard() {
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(PAGE, DB_PAGES, 1)));
    let layer: Arc<dyn PageIo> = Arc::new(DirectIo::new(io));
    let mut cfg = BufferPoolConfig::new(FRAMES, PAGE, DB_PAGES);
    cfg.fill_expansion = 1;
    let pool = BufferPool::new(cfg, layer);

    // Tag every page with its id and push the tags below, so the threads
    // start over a clean pool and only ever read.
    let mut clk = Clk::new();
    for p in 0..DB_PAGES {
        let mut g = pool
            .get(&mut clk, PageId(p), Locality::Random)
            .expect("no fault plan attached");
        g.write(clk.now, |b| b[..8].copy_from_slice(&p.to_le_bytes()));
    }
    pool.checkpoint(&mut clk);
    assert_eq!((pool.dirty_count(), pool.pinned_frames()), (0, 0));
    let warm = pool.stats();

    let start = Barrier::new(THREADS as usize);
    #[expect(
        clippy::disallowed_methods,
        reason = "the unpin/evict race needs true parallelism; the hammered pool is \
                  test-local, no simulation state is shared"
    )]
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (pool, start) = (&pool, &start);
            s.spawn(move || {
                let mut clk = Clk::new();
                let mut x = t + 1;
                // Released together, so the threads overlap from the
                // first get on.
                start.wait();
                for i in 0..GETS_PER_THREAD {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    // This thread's residue class, skewed so that hits
                    // (pin, then latch-free unpin) mix with the misses.
                    let span = if i % 4 == 0 { DB_PAGES / THREADS } else { 8 };
                    let pid = ((x >> 33) % span) * THREADS + t;
                    let g = pool
                        .get(&mut clk, PageId(pid), Locality::Random)
                        .expect("no fault plan attached");
                    assert_eq!(g.read(tag), pid, "wrong page under the guard");
                    if i % 64 == 0 {
                        // Give an evictor time to go wrong while the pin
                        // is still held.
                        std::thread::yield_now();
                    }
                    assert_eq!(g.read(tag), pid, "frame recycled under its guard");
                }
            });
        }
    });

    assert_eq!(pool.pinned_frames(), 0, "every guard gave its pin back");
    let s = pool.stats();
    assert_eq!(
        (s.hits - warm.hits) + (s.misses - warm.misses),
        THREADS * GETS_PER_THREAD
    );
    let evictions = s.evictions_clean - warm.evictions_clean;
    assert!(
        evictions > GETS_PER_THREAD / 10,
        "only {evictions} evictions raced the unpins"
    );
    assert_eq!(s.evictions_dirty, warm.evictions_dirty, "threads only read");
    // The pool is still fully usable: every frame can be recycled.
    for p in 0..2 * FRAMES as u64 {
        let g = pool
            .get(&mut clk, PageId(p), Locality::Random)
            .expect("no fault plan attached");
        assert_eq!(g.read(tag), p);
    }
}

#[test]
fn a_warm_hit_takes_one_table_latch() {
    // Frames == pages, so after one warming pass every `get` is a hit.
    const PAGES: u64 = 4096;
    const GETS: u64 = 50_000;
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(PAGE, PAGES, 1)));
    let layer: Arc<dyn PageIo> = Arc::new(DirectIo::new(io));
    let pool = BufferPool::new(BufferPoolConfig::new(PAGES as usize, PAGE, PAGES), layer);
    let mut clk = Clk::new();
    for p in 0..PAGES {
        pool.get(&mut clk, PageId(p), Locality::Random)
            .expect("no fault plan attached");
    }
    let warm = pool.stats();

    let start = Barrier::new(THREADS as usize);
    #[expect(
        clippy::disallowed_methods,
        reason = "the latch count must hold under true parallelism; the hammered pool is \
                  test-local, no simulation state is shared"
    )]
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (pool, start) = (&pool, &start);
            s.spawn(move || {
                let mut clk = Clk::new();
                let mut x = t + 1;
                start.wait();
                for _ in 0..GETS {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let g = pool
                        .get(&mut clk, PageId((x >> 16) % PAGES), Locality::Random)
                        .expect("no fault plan attached");
                    std::hint::black_box(&g);
                }
            });
        }
    });

    let s = pool.stats();
    assert_eq!(s.misses, warm.misses, "every get was a hit");
    // `stats()` itself takes the table latch: the closing snapshot's one
    // acquisition is inside the delta. The probe pins under the latch and
    // the guard's drop takes none, so the count is exact on every host.
    let acquisitions = s.shard_acquisitions - warm.shard_acquisitions - 1;
    assert_eq!(
        acquisitions,
        THREADS * GETS,
        "a warm get must take exactly one table latch"
    );
}

/// [`DirectIo`] that hands the CPU away before every read and every
/// write-behind, so that another thread runs while a miss's eviction and
/// fill are in flight: the window in which a hit must wait for the fill.
struct Yielding(DirectIo);

impl PageIo for Yielding {
    fn read_page(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut [u8],
    ) -> Result<(), IoError> {
        std::thread::yield_now();
        self.0.read_page(clk, pid, class, buf)
    }

    fn read_page_buf(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut PageBuf,
    ) -> Result<(), IoError> {
        std::thread::yield_now();
        self.0.read_page_buf(clk, pid, class, buf)
    }

    fn read_run(&self, clk: &mut Clk, first: PageId, n: u64) -> Result<Vec<PageBuf>, IoError> {
        std::thread::yield_now();
        self.0.read_run(clk, first, n)
    }

    fn evict_page(&self, now: Time, pid: PageId, data: &[u8], dirty: bool, class: Locality) {
        std::thread::yield_now();
        self.0.evict_page(now, pid, data, dirty, class);
    }

    fn evict_page_buf(&self, now: Time, pid: PageId, data: &PageBuf, dirty: bool, class: Locality) {
        std::thread::yield_now();
        self.0.evict_page_buf(now, pid, data, dirty, class);
    }

    fn note_dirtied(&self, now: Time, pid: PageId) {
        self.0.note_dirtied(now, pid);
    }

    fn checkpoint_write(&self, now: Time, pid: PageId, data: &[u8], class: Locality) -> Time {
        self.0.checkpoint_write(now, pid, data, class)
    }

    fn checkpoint_flush(&self, clk: &mut Clk) {
        self.0.checkpoint_flush(clk);
    }
}

/// `threads` OS threads each make `gets` reads of pages drawn from one
/// shared sequence over `span` pages of a fresh `FRAMES`-frame pool with
/// fill expansion on. Pages are tagged in the disk store with their id + 1,
/// so neither a victim's image nor the zero image passes for the page.
fn same_page_first_touches(threads: u64, gets: u64, span: u64) {
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(PAGE, DB_PAGES, 1)));
    for p in 0..DB_PAGES {
        let mut image = [0u8; PAGE];
        image[..8].copy_from_slice(&(p + 1).to_le_bytes());
        io.disk_store().write(PageId(p), &image);
    }
    let layer: Arc<dyn PageIo> = Arc::new(Yielding(DirectIo::new(io)));
    let mut cfg = BufferPoolConfig::new(FRAMES, PAGE, DB_PAGES);
    cfg.fill_expansion = 8;
    let pool = BufferPool::new(cfg, layer);

    let start = Barrier::new(threads as usize);
    #[expect(
        clippy::disallowed_methods,
        reason = "the same-page fill race needs true parallelism; the hammered pool is \
                  test-local, no simulation state is shared"
    )]
    std::thread::scope(|s| {
        for t in 0..threads {
            let (pool, start) = (&pool, &start);
            s.spawn(move || {
                let mut clk = Clk::new();
                // One sequence for every thread, so they fault in the
                // same pages at about the same moments.
                let mut x = 1u64;
                start.wait();
                for i in 0..gets {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let pid = (x >> 33) % span;
                    let g = pool
                        .get(&mut clk, PageId(pid), Locality::Random)
                        .expect("no fault plan attached");
                    assert_eq!(
                        g.read(tag),
                        pid + 1,
                        "thread {t} get {i}: not page {pid}'s fill"
                    );
                    if i % 64 == t {
                        std::thread::yield_now();
                    }
                    assert_eq!(g.read(tag), pid + 1, "frame recycled under its guard");
                }
            });
        }
    });

    assert_eq!(pool.pinned_frames(), 0, "every guard gave its pin back");
    let s = pool.stats();
    assert_eq!(s.hits + s.misses, threads * gets);
    assert!(s.expanded_fill_pages > 0, "the fill-expansion path ran");
    assert!(
        s.evictions_clean > gets / 10,
        "only {} evictions",
        s.evictions_clean
    );
}

#[test]
fn first_touches_of_the_same_page_see_its_fill() {
    same_page_first_touches(4, 20_000, 4 * FRAMES as u64);
}

/// The long variant (release, a few seconds): `scripts/check.sh` runs it.
#[test]
#[ignore = "long variant; run with --release -- --ignored"]
fn first_touches_of_the_same_page_see_its_fill_long() {
    same_page_first_touches(4, 600_000, 4 * FRAMES as u64);
}
