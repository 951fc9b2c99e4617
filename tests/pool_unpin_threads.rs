//! Real-thread safety of the latch-free unpin (ISSUE 14).
//!
//! `PageGuard::drop` lowers the frame's pin count with one atomic
//! decrement and no table latch, while an evictor on another thread —
//! holding that latch — reads the count to decide whether the frame may be
//! recycled. This suite runs the two against each other on real OS
//! threads: the pool is much smaller than the page range, so nearly every
//! `get` evicts a frame that some other thread unpinned a moment ago.
//!
//! What must hold: no "pool exhausted" or pin-underflow panic, a pinned
//! frame is never recycled under its guard (every page is tagged with its
//! own id, and the tag is read twice while the guard is held), and every
//! pin count is back to zero at the end.
//!
//! Each thread draws from its own residue class of page ids. Two threads
//! therefore never fault in the *same* page at the same moment — the pool
//! does not support that (see the contract on `BufferPool`), and a hit on
//! a frame whose fill is still in flight is a separate question from the
//! unpin protocol under test — but they share the table latch, the free
//! list and the victim heap, which is where unpin and eviction meet.

use std::sync::{Arc, Barrier};

use turbopool::bufpool::{BufferPool, BufferPoolConfig, DirectIo, PageIo};
use turbopool::iosim::{Clk, DeviceSetup, IoManager, Locality, PageId};

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
