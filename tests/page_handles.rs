//! Pages move between tiers by handle, not by copy — pinned exactly.
//!
//! A page image (`PageBuf`) is shared by every tier that holds the page
//! until somebody writes it. These tests check the claim where it can be
//! checked without a timer: by pointer identity. After each kind of pool
//! miss, the frame's bytes live at the very address the serving store's
//! image does; after a write through the frame, the store still has the
//! old bytes at the old address and the frame has moved; after an eviction,
//! the receiving store's image is the evicted frame's old one.

use std::sync::Arc;

use turbopool::bufpool::{BufferPool, BufferPoolConfig, DirectIo, PageIo};
use turbopool::core::{SsdConfig, SsdDesign, SsdManager};
use turbopool::iosim::{Clk, DeviceSetup, IoManager, Locality, PageId, SECOND};

const PS: usize = 64;
const DB_PAGES: u64 = 256;
const SSD_FRAMES: u64 = 32;

fn io() -> Arc<IoManager> {
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(
        PS, DB_PAGES, SSD_FRAMES,
    )));
    // A loaded database: every page written once, as after bulk load.
    for pid in 0..DB_PAGES {
        io.disk_store()
            .write(PageId(pid), &[(pid % 251) as u8 + 1; PS]);
    }
    io
}

/// A pool of `frames` frames, one page per miss, over `layer`.
fn pool(frames: usize, layer: Arc<dyn PageIo>) -> BufferPool {
    let mut cfg = BufferPoolConfig::new(frames, PS, DB_PAGES);
    cfg.fill_expansion = 1;
    BufferPool::new(cfg, layer)
}

fn manager(design: SsdDesign, io: &Arc<IoManager>) -> Arc<SsdManager> {
    let mut cfg = SsdConfig::new(design, SSD_FRAMES);
    cfg.partitions = 1;
    Arc::new(SsdManager::new(cfg, Arc::clone(io)))
}

/// Address of the bytes `pid`'s frame currently holds (the page must be
/// resident or readable).
fn frame_ptr(pool: &BufferPool, clk: &mut Clk, pid: u64) -> *const u8 {
    let g = pool
        .get(clk, PageId(pid), Locality::Random)
        .expect("no faults attached");
    g.read(|b| b.as_ptr())
}

fn disk_ptr(io: &IoManager, pid: u64) -> *const u8 {
    io.disk_store().read_buf(PageId(pid)).as_ptr()
}

fn ssd_ptr(io: &IoManager, frame: u64) -> *const u8 {
    io.ssd_store().read_buf(PageId(frame)).as_ptr()
}

#[test]
fn a_miss_served_from_disk_repoints_the_frame_at_the_disk_image() {
    let io = io();
    let pool = pool(4, Arc::new(DirectIo::new(Arc::clone(&io))));
    let mut clk = Clk::new();
    let on_disk = disk_ptr(&io, 7);
    assert_eq!(frame_ptr(&pool, &mut clk, 7), on_disk);
    // Writing through the frame unshares it: the disk keeps its bytes at
    // its address, the frame moves.
    let mut g = pool.get(&mut clk, PageId(7), Locality::Random).unwrap();
    g.write(clk.now, |b| b[0] = 0xEE);
    assert_ne!(g.read(|b| b.as_ptr()), on_disk);
    drop(g);
    assert_eq!(disk_ptr(&io, 7), on_disk);
    assert_eq!(io.disk_store().read_buf(PageId(7)).as_slice(), &[8u8; PS]);
    // The dirty eviction hands the frame's new image to the disk store.
    // (Each newcomer is touched twice, or LRU-2 would keep evicting the
    // newcomers instead of the much-touched page 7.)
    let dirty = frame_ptr(&pool, &mut clk, 7);
    for pid in 100..104 {
        frame_ptr(&pool, &mut clk, pid);
        frame_ptr(&pool, &mut clk, pid);
    }
    assert!(!pool.contains(PageId(7)));
    assert_eq!(disk_ptr(&io, 7), dirty);
    assert_eq!(io.disk_store().read_buf(PageId(7))[0], 0xEE);
}

#[test]
fn cw_dw_lc_share_one_image_between_disk_ssd_and_frame() {
    for design in [
        SsdDesign::CleanWrite,
        SsdDesign::DualWrite,
        SsdDesign::LazyCleaning,
    ] {
        let io = io();
        let mgr = manager(design, &io);
        let pool = pool(2, Arc::clone(&mgr) as Arc<dyn PageIo>);
        let mut clk = Clk::new();
        // Miss from disk, then push the clean page out: the SSD admits the
        // frame's image, which is still the disk's.
        let on_disk = disk_ptr(&io, 5);
        assert_eq!(frame_ptr(&pool, &mut clk, 5), on_disk, "{design:?}");
        frame_ptr(&pool, &mut clk, 60);
        frame_ptr(&pool, &mut clk, 61);
        let frame = mgr.frame_of(PageId(5)).expect("admitted while filling");
        assert_eq!(ssd_ptr(&io, frame), on_disk, "{design:?}");
        // Miss served from the SSD: the frame repoints at the SSD image.
        clk.elapse(SECOND);
        let reads = io.disk_stats().read_ops;
        assert_eq!(frame_ptr(&pool, &mut clk, 5), on_disk, "{design:?}");
        assert_eq!(io.disk_stats().read_ops, reads, "{design:?}: an SSD hit");
        assert_eq!(mgr.metrics.snapshot().ssd_hits, 1, "{design:?}");
        // Writing through that frame leaves both stores' bytes alone.
        let mut g = pool.get(&mut clk, PageId(5), Locality::Random).unwrap();
        g.write(clk.now, |b| b.fill(0xAB));
        assert_ne!(g.read(|b| b.as_ptr()), on_disk, "{design:?}");
        drop(g);
        assert_eq!(disk_ptr(&io, 5), on_disk, "{design:?}");
        assert_eq!(ssd_ptr(&io, frame), on_disk, "{design:?}");
        assert_eq!(
            io.ssd_store().read_buf(PageId(frame)).as_slice(),
            &[6u8; PS]
        );
    }
}

#[test]
fn an_lc_dirty_eviction_hands_the_frames_image_to_the_ssd() {
    let io = io();
    let mgr = manager(SsdDesign::LazyCleaning, &io);
    let pool = pool(2, Arc::clone(&mgr) as Arc<dyn PageIo>);
    let mut clk = Clk::new();
    let mut g = pool.get(&mut clk, PageId(9), Locality::Random).unwrap();
    g.write(clk.now, |b| b[3] = 0x77);
    let dirty = g.read(|b| b.as_ptr());
    drop(g);
    let on_disk = disk_ptr(&io, 9);
    assert_ne!(dirty, on_disk);
    frame_ptr(&pool, &mut clk, 60);
    frame_ptr(&pool, &mut clk, 61);
    assert!(
        mgr.is_dirty(PageId(9)),
        "write-back: the SSD has the only copy"
    );
    let frame = mgr.frame_of(PageId(9)).unwrap();
    assert_eq!(ssd_ptr(&io, frame), dirty);
    assert_eq!(disk_ptr(&io, 9), on_disk, "the disk is not written yet");
    // Cleaning writes the SSD's image to disk: all three tiers on one
    // image again once the page is read back.
    assert_eq!(mgr.clean_batch(&mut clk), 1);
    assert_eq!(disk_ptr(&io, 9), dirty);
    assert_eq!(frame_ptr(&pool, &mut clk, 9), dirty);
}

#[test]
fn a_dw_checkpoint_shares_one_image_three_ways() {
    let io = io();
    let mgr = manager(SsdDesign::DualWrite, &io);
    let pool = pool(4, Arc::clone(&mgr) as Arc<dyn PageIo>);
    let mut clk = Clk::new();
    let mut g = pool.get(&mut clk, PageId(3), Locality::Random).unwrap();
    g.write(clk.now, |b| b[1] = 0x55);
    let dirty = g.read(|b| b.as_ptr());
    drop(g);
    pool.checkpoint(&mut clk);
    assert_eq!(disk_ptr(&io, 3), dirty, "disk write");
    let frame = mgr.frame_of(PageId(3)).expect("random page mirrored");
    assert_eq!(ssd_ptr(&io, frame), dirty, "SSD mirror");
    assert_eq!(
        frame_ptr(&pool, &mut clk, 3),
        dirty,
        "and the frame kept it"
    );
    // The next write through the frame must not reach either store.
    let mut g = pool.get(&mut clk, PageId(3), Locality::Random).unwrap();
    g.write(clk.now, |b| b[1] = 0x56);
    drop(g);
    assert_eq!(io.disk_store().read_buf(PageId(3))[1], 0x55);
    assert_eq!(io.ssd_store().read_buf(PageId(frame))[1], 0x55);
}

#[test]
fn tac_admits_on_read_and_serves_hits_by_handle() {
    let io = io();
    let mut cfg = SsdConfig::new(SsdDesign::Tac, SSD_FRAMES);
    cfg.tac_extent_pages = 4;
    let tac = Arc::new(SsdManager::new(cfg, Arc::clone(&io)));
    let pool = pool(2, Arc::clone(&tac) as Arc<dyn PageIo>);
    let mut clk = Clk::new();
    let on_disk = disk_ptr(&io, 11);
    // Miss from disk: the frame and (write-on-read) the SSD frame both
    // share the disk's image.
    assert_eq!(frame_ptr(&pool, &mut clk, 11), on_disk);
    let frame = tac.frame_of(PageId(11)).expect("admitted on read");
    assert_eq!(ssd_ptr(&io, frame), on_disk);
    // Evict it (clean: nothing happens below), let the SSD write land, and
    // miss again: served from the SSD, same image.
    frame_ptr(&pool, &mut clk, 60);
    frame_ptr(&pool, &mut clk, 61);
    assert!(!pool.contains(PageId(11)));
    clk.elapse(SECOND);
    let reads = io.disk_stats().read_ops;
    assert_eq!(frame_ptr(&pool, &mut clk, 11), on_disk);
    assert_eq!(io.disk_stats().read_ops, reads, "an SSD hit");
    assert_eq!(tac.metrics.snapshot().ssd_hits, 1);
}

#[test]
fn prefetch_over_a_mixed_run_installs_every_page_by_handle() {
    // Manager (trim: SSD-resident ends, disk middle) and TAC alike.
    let io_m = io();
    let mgr = manager(SsdDesign::DualWrite, &io_m);
    let io_t = io();
    let mut cfg = SsdConfig::new(SsdDesign::Tac, SSD_FRAMES);
    cfg.tac_extent_pages = 4;
    let tac = Arc::new(SsdManager::new(cfg, Arc::clone(&io_t)));
    let layers: [(&str, Arc<IoManager>, Arc<dyn PageIo>); 2] =
        [("manager", io_m, mgr), ("tac", io_t, tac)];
    for (what, io, layer) in layers {
        let pool = pool(16, Arc::clone(&layer));
        let mut clk = Clk::new();
        // Put the run's two end pages into the SSD: read them (TAC admits
        // on read), evict them clean (the manager admits on eviction).
        for pid in [40u64, 45] {
            let mut buf = [0u8; PS];
            layer
                .read_page(&mut clk, PageId(pid), Locality::Random, &mut buf)
                .unwrap();
            layer.evict_page(clk.now, PageId(pid), &buf, false, Locality::Random);
        }
        clk.elapse(SECOND);
        let ssd_reads = io.ssd_stats().read_ops;
        pool.prefetch_run(&mut clk, PageId(40), 6).unwrap();
        assert_eq!(
            io.ssd_stats().read_ops - ssd_reads,
            2,
            "{what}: trimmed ends"
        );
        for pid in 40..46u64 {
            let g = pool.get_resident(PageId(pid)).expect("prefetched");
            let at = g.read(|b| b.as_ptr());
            if pid == 40 || pid == 45 {
                // Slice-admitted frames hold their own copy of the bytes;
                // the pool frame shares *that*.
                let owner = (0..SSD_FRAMES)
                    .find(|&f| io.ssd_tag(f) == Some(PageId(pid)))
                    .expect("cached");
                assert_eq!(at, ssd_ptr(&io, owner), "{what}: page {pid} from the SSD");
            } else {
                assert_eq!(at, disk_ptr(&io, pid), "{what}: page {pid} from disk");
            }
            assert_eq!(g.read(|b| b[0]), pid as u8 + 1, "{what}: page {pid}");
        }
    }
}
