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

use crate::sync::RwLock;

use crate::page::{PageBuf, PageId, PageSrc};

/// Byte storage addressed by page id.
pub trait PageStore: Send + Sync {
    /// Copy page `pid` into `buf`. Reading a never-written page yields
    /// zeroes, like a freshly created database file.
    fn read(&self, pid: PageId, buf: &mut [u8]);

    /// Overwrite page `pid` with `data`.
    fn write(&self, pid: PageId, data: &[u8]);

    /// A handle on page `pid`'s image — no bytes move. Never-written
    /// pages all share one zero image.
    fn read_buf(&self, pid: PageId) -> PageBuf;

    /// Make `image` page `pid`'s image: the store adopts the handle and no
    /// bytes move.
    fn write_buf(&self, pid: PageId, image: PageBuf);

    /// Capacity in pages.
    fn num_pages(&self) -> u64;

    /// Page size in bytes.
    fn page_size(&self) -> usize;

    /// True if the page has ever been written. Fresh pages read as zeroes;
    /// the engine uses this to format never-written pages in memory without
    /// charging a pointless read I/O.
    fn is_materialized(&self, pid: PageId) -> bool;
}

/// In-memory page store with lazily allocated pages.
///
/// Pages start out as `None` (read as zeroes) so a mostly-cold simulated
/// 400 GB-scaled database does not allocate every page buffer up front.
pub struct MemStore {
    /// What every never-written page reads as.
    zero: PageBuf,
    pages: Vec<RwLock<Option<PageBuf>>>,
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
        let mut pages = Vec::with_capacity(num_pages as usize);
        pages.resize_with(num_pages as usize, || RwLock::new(None));
        MemStore { zero, pages }
    }

    fn slot(&self, pid: PageId) -> &RwLock<Option<PageBuf>> {
        self.pages
            .get(pid.0 as usize)
            .unwrap_or_else(|| panic!("page {pid} out of bounds ({} pages)", self.pages.len()))
    }

    /// Store `data` as page `pid`: an image is shared, a slice is copied —
    /// over the stored image in place while the store holds its only
    /// handle, so a steady stream of slice writes allocates nothing.
    pub fn put<S: PageSrc + ?Sized>(&self, pid: PageId, data: &S) {
        if let Some(image) = data.as_image() {
            return self.write_buf(pid, image.clone());
        }
        let data = data.bytes();
        assert_eq!(data.len(), self.zero.len(), "write size mismatch");
        let mut slot = self.slot(pid).write();
        match &mut *slot {
            Some(existing) => existing.copy_from(data),
            None => *slot = Some(PageBuf::from_slice(data)),
        }
    }
}

impl PageStore for MemStore {
    fn read(&self, pid: PageId, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.zero.len(), "read buffer size mismatch");
        buf.copy_from_slice(self.slot(pid).read().as_ref().unwrap_or(&self.zero));
    }

    fn write(&self, pid: PageId, data: &[u8]) {
        self.put(pid, data);
    }

    fn read_buf(&self, pid: PageId) -> PageBuf {
        self.slot(pid).read().as_ref().unwrap_or(&self.zero).clone()
    }

    fn write_buf(&self, pid: PageId, image: PageBuf) {
        assert_eq!(image.len(), self.zero.len(), "write size mismatch");
        *self.slot(pid).write() = Some(image);
    }

    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    fn page_size(&self) -> usize {
        self.zero.len()
    }

    fn is_materialized(&self, pid: PageId) -> bool {
        self.slot(pid).read().is_some()
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
        s.put(PageId(1), &image);
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
                                store.put(PageId(pid as u64), image);
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
