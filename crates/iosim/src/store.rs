//! Backing stores that hold the actual page bytes of the simulated devices.
//!
//! Timing and data are deliberately separated: devices model *when* a
//! transfer completes, stores hold *what* the bytes are. Stores apply writes
//! at submission so later virtual-time reads always observe them (the
//! simulator never reorders a read before a write that was submitted earlier
//! in its virtual history). A store keeps one [`PageBuf`] image per written
//! page, and images are immutable while shared, so what a write stored is
//! what every later read sees whatever the writer does to its own handle
//! afterwards.
//!
//! A store is one table under one latch, as DESIGN §3 has it for every
//! table: a read holds it shared for a handle clone, a write exclusively
//! for a handle swap or one page copy. Each driver domain owns its
//! database, so no run contends it; a latch per page would cost 16 bytes
//! a page and buy nothing.

use crate::sync::RwLock;

use crate::page::{PageBuf, PageId, PageSrc};

/// In-memory page store with lazily allocated pages.
///
/// Pages start out as `None` (read as zeroes) so a mostly-cold simulated
/// 400 GB-scaled database does not allocate every page buffer up front.
pub struct MemStore {
    /// What every never-written page reads as.
    zero: PageBuf,
    /// Page images by page number (`None` = never written), one latch
    /// for all of them.
    pages: RwLock<Vec<Option<PageBuf>>>,
    /// Capacity in pages, readable without the latch.
    len: usize,
}

impl MemStore {
    pub fn new(num_pages: u64, page_size: usize) -> Self {
        assert!(page_size > 0);
        Self::with_zero(num_pages, PageBuf::zeroed(page_size))
    }

    /// A store whose never-written pages read as (handles on) `zero`, so
    /// several stores can share one zero image.
    pub fn with_zero(num_pages: u64, zero: PageBuf) -> Self {
        assert!(!zero.is_empty());
        let len = num_pages as usize;
        let pages = RwLock::new(vec![None; len]);
        MemStore { zero, pages, len }
    }

    /// `pid`'s slot index; panics past the end.
    fn slot(&self, pid: PageId) -> usize {
        let (i, len) = (pid.0 as usize, self.len);
        assert!(i < len, "page {pid} out of bounds ({len} pages)");
        i
    }

    /// Copy page `pid` into `buf`. Reading a never-written page yields
    /// zeroes, like a freshly created database file.
    pub fn read(&self, pid: PageId, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.zero.len(), "read buffer size mismatch");
        let i = self.slot(pid);
        buf.copy_from_slice(self.pages.read()[i].as_ref().unwrap_or(&self.zero));
    }

    /// Store `data` as page `pid`: an image is shared, a slice is copied —
    /// over the stored image in place while the store holds its only
    /// handle, so a steady stream of slice writes allocates nothing.
    pub fn write<S: PageSrc + ?Sized>(&self, pid: PageId, data: &S) {
        if let Some(image) = data.as_image() {
            return self.write_buf(pid, image.clone());
        }
        let data = data.bytes();
        assert_eq!(data.len(), self.zero.len(), "write size mismatch");
        let i = self.slot(pid);
        match &mut self.pages.write()[i] {
            Some(existing) => existing.copy_from(data),
            slot => *slot = Some(PageBuf::from_slice(data)),
        }
    }

    /// A handle on page `pid`'s image — no bytes move. Never-written
    /// pages all share one zero image.
    pub fn read_buf(&self, pid: PageId) -> PageBuf {
        let i = self.slot(pid);
        self.pages.read()[i].as_ref().unwrap_or(&self.zero).clone()
    }

    /// Make `image` page `pid`'s image: the store adopts the handle and no
    /// bytes move.
    pub fn write_buf(&self, pid: PageId, image: PageBuf) {
        assert_eq!(image.len(), self.zero.len(), "write size mismatch");
        let i = self.slot(pid);
        self.pages.write()[i] = Some(image);
    }

    /// Capacity in pages.
    pub fn num_pages(&self) -> u64 {
        self.len as u64
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.zero.len()
    }

    /// True if the page has ever been written. Fresh pages read as zeroes;
    /// the engine uses this to format never-written pages in memory without
    /// charging a pointless read I/O.
    pub fn is_materialized(&self, pid: PageId) -> bool {
        let i = self.slot(pid);
        self.pages.read()[i].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_pages_read_as_zero() {
        let s = MemStore::new(4, 16);
        let mut buf = [0xFFu8; 16];
        s.read(PageId(2), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert!(!s.is_materialized(PageId(2)));
    }

    #[test]
    fn write_then_read_round_trips() {
        let s = MemStore::new(4, 8);
        s.write(PageId(1), &[7u8; 8]);
        assert!(s.is_materialized(PageId(1)));
        let mut buf = [0u8; 8];
        s.read(PageId(1), &mut buf);
        assert_eq!(buf, [7u8; 8]);
    }

    #[test]
    fn read_buf_matches_read() {
        let s = MemStore::new(4, 8);
        s.write(PageId(1), &[7u8; 8]);
        assert_eq!(s.read_buf(PageId(1)).as_slice(), &[7u8; 8]);
        assert_eq!(s.read_buf(PageId(2)).as_slice(), &[0u8; 8]);
    }

    #[test]
    fn overwrite_replaces_content() {
        let s = MemStore::new(2, 4);
        s.write(PageId(0), &[1, 2, 3, 4]);
        s.write(PageId(0), &[9, 9, 9, 9]);
        let mut buf = [0u8; 4];
        s.read(PageId(0), &mut buf);
        assert_eq!(buf, [9, 9, 9, 9]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let s = MemStore::new(2, 4);
        let mut buf = [0u8; 4];
        s.read(PageId(2), &mut buf);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_size_write_panics() {
        let s = MemStore::new(2, 4);
        s.write(PageId(0), &[0u8; 5]);
    }

    #[test]
    fn never_written_pages_share_one_zero_image() {
        let zero = PageBuf::zeroed(8);
        let (a, b) = (
            MemStore::with_zero(4, zero.clone()),
            MemStore::with_zero(2, zero.clone()),
        );
        assert_eq!(a.read_buf(PageId(0)).as_ptr(), zero.as_ptr());
        assert_eq!(
            a.read_buf(PageId(3)).as_ptr(),
            b.read_buf(PageId(1)).as_ptr()
        );
        // A reader that edits its handle of the zero page leaves it zero.
        let mut mine = a.read_buf(PageId(0));
        mine[0] = 1;
        assert_eq!(a.read_buf(PageId(0)).as_slice(), &[0u8; 8]);
        assert!(!a.is_materialized(PageId(0)));
    }

    #[test]
    fn write_buf_adopts_the_handle_and_slice_writes_reuse_an_unshared_image() {
        let s = MemStore::new(4, 8);
        let image = PageBuf::from_slice(&[7u8; 8]);
        s.write(PageId(1), &image);
        assert_eq!(s.read_buf(PageId(1)).as_ptr(), image.as_ptr());
        // The store shares the image with `image`: a slice write must not
        // show through that handle, so it lands in a fresh one, even when
        // it brings the very same bytes...
        s.write(PageId(1), &[7u8; 8]);
        assert!(!s.read_buf(PageId(1)).same_image(&image));
        s.write(PageId(1), &[8u8; 8]);
        assert_eq!(image.as_slice(), &[7u8; 8]);
        let stored = s.read_buf(PageId(1)).as_ptr();
        assert_ne!(stored, image.as_ptr());
        // ...which the store then owns alone and overwrites in place.
        s.write(PageId(1), &[9u8; 8]);
        assert_eq!(s.read_buf(PageId(1)).as_ptr(), stored);
        assert_eq!(s.read_buf(PageId(1)).as_slice(), &[9u8; 8]);
    }

    /// A handle read out of the store carries the stored image, and so its
    /// sum; an at-rest overwrite of the page (a slice write) must leave that
    /// handle's image and sum as they were and store a different image, so
    /// a frame check that holds the old handle sees the overwrite.
    #[test]
    fn stored_sum_is_carried_out_and_dropped_by_a_slice_write() {
        use crate::fault::frame_sum;
        let s = MemStore::new(2, 64);
        assert_eq!(frame_sum(&s.read_buf(PageId(0))), frame_sum(&[0u8; 64]));
        s.write(PageId(0), &[3u8; 64]);
        let carried = s.read_buf(PageId(0));
        assert!(carried.same_image(&s.read_buf(PageId(0))));
        assert_eq!(frame_sum(&carried), frame_sum(&[3u8; 64]));
        // At-rest overwrite: the carried handle keeps its image and sum,
        // the store's image is no longer the carried one.
        s.write(PageId(0), &[4u8; 64]);
        assert_eq!(frame_sum(&carried), frame_sum(&[3u8; 64]));
        let now = s.read_buf(PageId(0));
        assert!(!now.same_image(&carried));
        assert_eq!(frame_sum(&now), frame_sum(&[4u8; 64]));
    }

    /// Two writers and two readers on one store, on real OS threads: the
    /// one store latch must keep every page its own. Each writer owns the
    /// pages of one parity and rewrites them round after round, by slice
    /// and by handle alternately; every image names its page and round in
    /// its header and repeats them in its tail. A reader must only ever
    /// get the page it asked for, whole, at a round no older than the one
    /// it saw last; at the end each page holds its writer's last image.
    #[test]
    fn concurrent_readers_and_writers_of_distinct_pages_keep_their_own_images() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        const PAGES: u64 = 16;
        const PS: usize = 64;
        const ROUNDS: u64 = 400;
        fn image(pid: u64, round: u64) -> [u8; PS] {
            let mut b = [(pid ^ round) as u8; PS];
            b[..8].copy_from_slice(&pid.to_le_bytes());
            b[8..16].copy_from_slice(&round.to_le_bytes());
            b
        }
        /// The round `b` holds if it is a whole image of page `pid`.
        fn round_of(pid: u64, b: &[u8]) -> u64 {
            let round = u64::from_le_bytes(b[8..16].try_into().unwrap());
            assert_eq!(b, image(pid, round), "page {pid}: not its own whole image");
            round
        }
        let store = MemStore::new(PAGES, PS);
        for pid in 0..PAGES {
            store.write(PageId(pid), &image(pid, 0));
        }
        let writing = AtomicBool::new(true);
        // Released together, so the readers overlap the writers from the
        // first write on.
        let start = Barrier::new(4);
        #[expect(
            clippy::disallowed_methods,
            reason = "the store latch is only exercised by true parallelism; the store is \
                      test-local, no simulation state is shared"
        )]
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..2u64)
                .map(|parity| {
                    let (store, start) = (&store, &start);
                    s.spawn(move || {
                        start.wait();
                        for round in 1..=ROUNDS {
                            for pid in (parity..PAGES).step_by(2) {
                                let bytes = image(pid, round);
                                if round % 2 == 0 {
                                    store.write(PageId(pid), &bytes);
                                } else {
                                    store.write(PageId(pid), &PageBuf::from_slice(&bytes));
                                }
                                assert_eq!(store.read_buf(PageId(pid)).as_slice(), bytes);
                            }
                        }
                    })
                })
                .collect();
            for by_slice in [false, true] {
                let (store, writing, start) = (&store, &writing, &start);
                s.spawn(move || {
                    start.wait();
                    let mut seen = [0u64; PAGES as usize];
                    let mut buf = [0u8; PS];
                    while writing.load(Ordering::Relaxed) {
                        for pid in 0..PAGES {
                            let round = if by_slice {
                                store.read(PageId(pid), &mut buf);
                                round_of(pid, &buf)
                            } else {
                                round_of(pid, &store.read_buf(PageId(pid)))
                            };
                            assert!(round >= seen[pid as usize], "page {pid} went back");
                            seen[pid as usize] = round;
                        }
                    }
                });
            }
            // Readers stop even when a writer failed, so the scope ends.
            let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            writing.store(false, Ordering::Relaxed);
            for j in joined {
                j.unwrap();
            }
        });
        for pid in 0..PAGES {
            assert_eq!(store.read_buf(PageId(pid)).as_slice(), image(pid, ROUNDS));
        }
    }

    /// One step of the aliasing schedule below.
    #[derive(Debug)]
    enum Op {
        SliceWrite { pid: usize, fill: u8 },
        HandleWrite { pid: usize, frame: usize },
        HandleRead { pid: usize, frame: usize },
        SliceRead { pid: usize },
        Edit { frame: usize, at: usize, val: u8 },
        CopyFrom { frame: usize, fill: u8 },
        Overwrite { frame: usize, fill: u8 },
        CloneFrame { from: usize, to: usize },
        Drop { frame: usize },
    }

    /// Differential test of the copy-on-write rules: random schedules of
    /// every way a page can be written, read, shared and dropped, over a
    /// store and a set of "frames" (handles), against a model in which
    /// every page and every frame is its own `Vec<u8>` and every move is a
    /// copy. Checked in full after every step, so a write that showed
    /// through a handle it was not made through fails at that step.
    #[test]
    fn handles_behave_like_private_copies_under_random_schedules() {
        use crate::rng::{Rng, SeedableRng, SmallRng};
        const PAGES: usize = 5;
        const FRAMES: usize = 6;
        const SCHEDULES: u64 = 64; // x 5 page sizes = 320
        for ps in [16usize, 64, 200, 256, 8192] {
            for seed in 0..SCHEDULES {
                let mut rng = SmallRng::seed_from_u64(0xC0DE ^ (ps as u64) << 16 ^ seed);
                let store = MemStore::new(PAGES as u64, ps);
                let mut frames: Vec<Option<PageBuf>> = vec![None; FRAMES];
                let mut model_store: Vec<Vec<u8>> = vec![vec![0u8; ps]; PAGES];
                let mut model_frames: Vec<Option<Vec<u8>>> = vec![None; FRAMES];
                let mut scratch = vec![0u8; ps];
                for step in 0..48 {
                    let pid = rng.gen_range(0..PAGES);
                    let frame = rng.gen_range(0..FRAMES);
                    let fill: u8 = rng.gen();
                    let op = match rng.gen_range(0u32..9) {
                        0 => Op::SliceWrite { pid, fill },
                        1 => Op::HandleWrite { pid, frame },
                        2 => Op::HandleRead { pid, frame },
                        3 => Op::SliceRead { pid },
                        4 => Op::Edit {
                            frame,
                            at: rng.gen_range(0..ps),
                            val: fill,
                        },
                        5 => Op::CopyFrom { frame, fill },
                        6 => Op::Overwrite { frame, fill },
                        7 => Op::CloneFrame {
                            from: frame,
                            to: rng.gen_range(0..FRAMES),
                        },
                        _ => Op::Drop { frame },
                    };
                    match op {
                        Op::SliceWrite { pid, fill } => {
                            scratch.fill(fill);
                            store.write(PageId(pid as u64), &scratch);
                            model_store[pid].fill(fill);
                        }
                        Op::HandleWrite { pid, frame } => {
                            if let Some(image) = &frames[frame] {
                                store.write(PageId(pid as u64), image);
                                model_store[pid] = model_frames[frame].clone().unwrap();
                            }
                        }
                        Op::HandleRead { pid, frame } => {
                            frames[frame] = Some(store.read_buf(PageId(pid as u64)));
                            model_frames[frame] = Some(model_store[pid].clone());
                        }
                        Op::SliceRead { pid } => {
                            store.read(PageId(pid as u64), &mut scratch);
                            assert_eq!(scratch, model_store[pid]);
                        }
                        Op::Edit { frame, at, val } => {
                            if let Some(image) = &mut frames[frame] {
                                // Alternate the two mutable views.
                                if step % 2 == 0 {
                                    image.as_mut_slice()[at] = val;
                                } else {
                                    image[at] = val;
                                }
                                model_frames[frame].as_mut().unwrap()[at] = val;
                            }
                        }
                        Op::CopyFrom { frame, fill } => {
                            if let Some(image) = &mut frames[frame] {
                                scratch.fill(fill);
                                image.copy_from(&scratch);
                                model_frames[frame].as_mut().unwrap().fill(fill);
                            }
                        }
                        Op::Overwrite { frame, fill } => {
                            if let Some(image) = &mut frames[frame] {
                                image.overwrite_slice().fill(fill);
                                model_frames[frame].as_mut().unwrap().fill(fill);
                            }
                        }
                        Op::CloneFrame { from, to } => {
                            frames[to] = frames[from].clone();
                            model_frames[to] = model_frames[from].clone();
                        }
                        Op::Drop { frame } => {
                            frames[frame] = None;
                            model_frames[frame] = None;
                        }
                    }
                    for (pid, want) in model_store.iter().enumerate() {
                        let got = store.read_buf(PageId(pid as u64));
                        assert_eq!(
                            got.as_slice(),
                            &want[..],
                            "ps {ps} seed {seed} step {step} {op:?}: page {pid}"
                        );
                    }
                    for (f, (got, want)) in frames.iter().zip(&model_frames).enumerate() {
                        assert_eq!(
                            got.as_ref().map(|p| p.as_slice()),
                            want.as_deref(),
                            "ps {ps} seed {seed} step {step} {op:?}: frame {f}"
                        );
                    }
                }
            }
        }
    }
}
