//! Transactions: private write buffering, commit-time logging/publication.

use turbopool_bufpool::PageGuard;
use turbopool_iosim::{Clk, IoError, Locality, PageBuf, PageId, PidMap};
use turbopool_wal::{LogRecord, TxId};

use crate::db::Database;

/// How a [`Txn::commit`] ended.
///
/// Deliberately *not* `#[must_use]`: fault-free callers (the workload
/// drivers, most tests) may keep writing `txn.commit();` — an ignored
/// `AbortedIo` leaves the database exactly as if the transaction never ran,
/// which is a safe default. Fault-aware callers match on the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Logged, flushed, and published.
    Committed,
    /// The transaction was poisoned by an unrecoverable disk-tier error on
    /// one of its reads; nothing was logged or published. Carries the first
    /// such error.
    AbortedIo(IoError),
}

impl CommitOutcome {
    pub fn is_committed(&self) -> bool {
        matches!(self, CommitOutcome::Committed)
    }
}

/// Minimum run of unchanged bytes that splits a page diff into two log
/// records. Smaller gaps are cheaper to log as part of one record than as
/// a second record header.
const DIFF_GAP: usize = 32;

/// Bytes compared per step while skipping an unchanged region.
const DIFF_BLOCK: usize = 32;

/// Index of the first byte at or after `from` where the images differ, or
/// their length if the rest is identical. Unchanged bytes — all but a few
/// dozen of a typical 8 KB page — are skipped a block at a time (a fixed-size
/// array compare, which the compiler turns into wide loads); only the block
/// holding the mismatch, and the sub-block tail, are walked bytewise.
fn first_diff(before: &[u8], after: &[u8], from: usize) -> usize {
    let (b, a) = (&before[from..], &after[from..]);
    let (b_blocks, _) = b.as_chunks::<DIFF_BLOCK>();
    let (a_blocks, _) = a.as_chunks::<DIFF_BLOCK>();
    let same = DIFF_BLOCK
        * b_blocks
            .iter()
            .zip(a_blocks)
            .take_while(|(x, y)| x == y)
            .count();
    let rest = b[same..].iter().zip(&a[same..]);
    from + same + rest.take_while(|(x, y)| x == y).count()
}

/// Compute the minimal set of changed byte ranges between two page images:
/// each range starts and ends on a changed byte, and two changed bytes share
/// a range iff fewer than [`DIFF_GAP`] unchanged bytes separate them.
///
/// Public for the micro bench; the engine's only caller is
/// [`Txn::write_page`].
pub fn diff_ranges(before: &[u8], after: &[u8]) -> Vec<(u32, Vec<u8>)> {
    assert_eq!(before.len(), after.len());
    let n = before.len();
    let mut out: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut start = first_diff(before, after, 0);
    while start < n {
        // Grow the range over changed bytes and over gaps too short to
        // split on; `next` ends up on the first change past such a gap,
        // which is where the following range starts.
        let mut end = start + 1;
        let next = loop {
            while end < n && before[end] != after[end] {
                end += 1;
            }
            let next = first_diff(before, after, end);
            if next == n || next - end >= DIFF_GAP {
                break next;
            }
            end = next + 1;
        };
        out.push((start as u32, after[start..end].to_vec()));
        start = next;
    }
    out
}

/// The byte-serial diff `diff_ranges` replaced, kept as the oracle its
/// output is checked against.
#[cfg(test)]
fn diff_ranges_serial(before: &[u8], after: &[u8]) -> Vec<(u32, Vec<u8>)> {
    debug_assert_eq!(before.len(), after.len());
    let mut out: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut i = 0usize;
    let n = before.len();
    while i < n {
        if before[i] == after[i] {
            i += 1;
            continue;
        }
        // Start of a changed range; extend until DIFF_GAP unchanged bytes.
        let start = i;
        let mut end = i + 1;
        let mut gap = 0usize;
        let mut j = end;
        while j < n && gap < DIFF_GAP {
            if before[j] != after[j] {
                end = j + 1;
                gap = 0;
            } else {
                gap += 1;
            }
            j += 1;
        }
        out.push((start as u32, after[start..end].to_vec()));
        i = end;
    }
    out
}

/// An in-flight transaction.
///
/// Reads see the transaction's own writes through a page overlay; writes
/// stay private until [`Txn::commit`], which logs the byte-level deltas,
/// flushes the log (WAL), and only then publishes the modified pages to the
/// buffer pool. [`Txn::abort`] (or dropping the transaction) discards
/// everything.
pub struct Txn<'d, 'c> {
    pub(crate) db: &'d Database,
    pub clk: &'c mut Clk,
    id: TxId,
    overlay: PidMap<PageBuf>,
    ops: Vec<LogRecord>,
    /// First unrecoverable I/O error observed by a read; a poisoned
    /// transaction serves zeroed pages from then on and refuses to commit.
    poisoned: Option<IoError>,
}

impl<'d, 'c> Txn<'d, 'c> {
    pub(crate) fn new(db: &'d Database, clk: &'c mut Clk, id: TxId) -> Self {
        Txn {
            db,
            clk,
            id,
            overlay: PidMap::default(),
            ops: Vec::new(),
            poisoned: None,
        }
    }

    pub fn id(&self) -> TxId {
        self.id
    }

    /// The error that poisoned this transaction, if any. A poisoned
    /// transaction can only abort ([`Txn::commit`] returns
    /// [`CommitOutcome::AbortedIo`]).
    pub fn poisoned(&self) -> Option<IoError> {
        self.poisoned
    }

    fn poison(&mut self, e: IoError) {
        self.poisoned.get_or_insert(e);
    }

    /// Bytes of redo this transaction has generated so far.
    pub fn log_bytes(&self) -> usize {
        self.ops.iter().map(|r| r.encoded_len()).sum()
    }

    /// Pin the committed copy of `pid`. `None` means the page reads as
    /// zeroes: it was never written, or it cannot be read at all, in which
    /// case the transaction is now poisoned.
    ///
    /// A pool hit is one latch round trip (`get_resident` probes and pins
    /// together); only a pool miss pays for the `is_fresh` chain.
    fn pin(&mut self, pid: PageId, class: Locality) -> Option<PageGuard<'d>> {
        let db = self.db;
        if let Err(e) = db.check_pid(pid) {
            // A reference that points outside the database file — only
            // reachable by following a pointer on a damaged page (e.g. a
            // B+-tree descent after mid-log corruption rolled an inner node
            // back past its children). Poison instead of panicking so the
            // access method unwinds and the caller sees the error; a write
            // stays in the overlay (it can never publish) instead of
            // indexing out of the page store.
            self.poison(e);
            return None;
        }
        if let Some(g) = db.pool().get_resident(pid) {
            return Some(g);
        }
        if db.is_fresh(pid) {
            // Never-written page: no I/O and no frame.
            return None;
        }
        match db.get_with_salvage(self.clk, pid, class) {
            Ok(g) => Some(g),
            Err(e) => {
                // Even WAL-tail salvage could not produce the page: poison
                // the transaction and serve zeroes so the access method can
                // unwind without a panic (and a write is never diffed
                // against garbage into the log).
                self.poison(e);
                None
            }
        }
    }

    /// Read page `pid` (own writes visible). `class` is the declared access
    /// locality (index lookups are random; scans go through
    /// [`Database::scan_heap`] instead).
    pub fn read_page<R>(&mut self, pid: PageId, class: Locality, f: impl FnOnce(&[u8]) -> R) -> R {
        if let Some(p) = self.overlay.get(&pid) {
            return f(p.as_slice());
        }
        match self.pin(pid, class) {
            Some(g) => g.read(f),
            None => f(&self.db.io().zero_page()),
        }
    }

    /// Modify page `pid` in the transaction's private overlay. The change
    /// is diffed against the pre-image and logged as byte ranges at commit.
    pub fn write_page<R>(
        &mut self,
        pid: PageId,
        class: Locality,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        if !self.overlay.contains_key(&pid) {
            // First touch: a private image (contents unspecified), filled
            // exactly once — from the pinned frame, or with zeroes.
            let mut image = self.db.spare_image();
            match self.pin(pid, class) {
                Some(g) => g.read(|b| image.copy_from(b)),
                None => image.copy_from(&self.db.io().zero_page()),
            }
            self.overlay.insert(pid, image);
        }
        // Snapshot the pre-image into a recycled scratch buffer (a fresh
        // PageBuf clone per write_page is the old allocation hot spot).
        let mut before = self.db.page_bufs().lease();
        let page = self
            .overlay
            .get_mut(&pid)
            .expect("first touch inserted the page just above");
        before.copy_from_slice(page.as_slice());
        let r = f(page.as_mut_slice());
        // Diffed here, per call, not at commit: record count and order are
        // part of the log's bytes.
        for (offset, data) in diff_ranges(&before, page.as_slice()) {
            self.ops.push(LogRecord::PageWrite {
                txid: self.id,
                pid,
                offset,
                data,
            });
        }
        r
    }

    /// Commit: log, flush (WAL), publish. Read-only transactions are free.
    /// A poisoned transaction aborts instead (nothing logged or published).
    pub fn commit(mut self) -> CommitOutcome {
        if let Some(e) = self.poisoned {
            return CommitOutcome::AbortedIo(e);
        }
        if self.ops.is_empty() {
            return CommitOutcome::Committed;
        }
        let db = self.db;
        let log = db.log();
        for rec in &self.ops {
            log.append(rec);
        }
        log.append(&LogRecord::Commit { txid: self.id });
        if !log.flush(self.clk) {
            // Power died during the commit flush (crash-schedule switch):
            // the commit record never became durable, so this transaction
            // did NOT commit. Publish nothing — the machine is off, and the
            // next incarnation's recovery must not find these writes
            // applied anywhere.
            return CommitOutcome::AbortedIo(IoError::new(
                turbopool_iosim::FaultDevice::Disk,
                turbopool_iosim::IoErrorKind::DeviceDead,
                self.clk.now,
            ));
        }
        // Publication: install the after-images into the buffer pool,
        // dirtying the pages (which invalidates any SSD copies). Ascending
        // page order, not map order: replacement stamps and fault-plan
        // draws are consumed in publication order, so it must be identical
        // on every run for replay to be bit-reproducible.
        //
        // Each image is swapped into its frame, not copied over it; the
        // image that comes out is recycled for the next transaction's first
        // touches, unless a store or an SSD frame still shares it.
        let mut pages: Vec<(PageId, PageBuf)> =
            std::mem::take(&mut self.overlay).into_iter().collect();
        pages.sort_unstable_by_key(|(pid, _)| pid.0);
        for (pid, image) in pages {
            let resident = db.pool().get_resident(pid);
            let spare = if resident.is_none() && db.is_fresh(pid) {
                db.pool().create_from(self.clk.now, pid, image)
            } else {
                let pinned = match resident {
                    Some(g) => Ok(g),
                    None => db.get_with_salvage(self.clk, pid, Locality::Random),
                };
                match pinned {
                    Ok(mut g) => g.replace(self.clk.now, image),
                    Err(_) => {
                        // The commit record is already durable, so the
                        // transaction IS committed; the frame just cannot be
                        // cached right now. Redo this page's committed
                        // content straight onto the disk tier from the log.
                        db.salvage(&[pid]);
                        image
                    }
                }
            };
            db.recycle_image(spare);
        }
        CommitOutcome::Committed
    }

    /// Discard all buffered writes.
    pub fn abort(self) {
        // Dropping the overlay is the whole rollback (`Drop` recycles it).
    }
}

impl Drop for Txn<'_, '_> {
    /// Whatever the overlay still holds — everything after an abort, a
    /// poisoned or powerless commit, or a plain drop; nothing after a
    /// publishing commit — is recycled.
    fn drop(&mut self) {
        for (_, page) in self.overlay.drain() {
            self.db.recycle_image(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::TXN_SPARE_BUFS;
    use crate::DbConfig;
    use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};

    /// Every diff test goes through here: the answer must be the serial
    /// oracle's, range for range.
    fn diff_checked(before: &[u8], after: &[u8]) -> Vec<(u32, Vec<u8>)> {
        let d = diff_ranges(before, after);
        assert_eq!(d, diff_ranges_serial(before, after));
        d
    }

    #[test]
    fn diff_finds_single_range() {
        let a = vec![0u8; 100];
        let mut b = a.clone();
        b[10] = 1;
        b[12] = 2;
        let d = diff_checked(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, 10);
        assert_eq!(d[0].1, vec![1, 0, 2]);
    }

    #[test]
    fn diff_splits_on_large_gaps() {
        let a = vec![0u8; 200];
        let mut b = a.clone();
        b[0] = 1;
        b[150] = 2;
        let d = diff_checked(&a, &b);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], (0, vec![1]));
        assert_eq!(d[1], (150, vec![2]));
    }

    #[test]
    fn diff_merges_small_gaps() {
        let a = vec![0u8; 100];
        let mut b = a.clone();
        b[10] = 1;
        b[20] = 2; // 9-byte gap < DIFF_GAP
        let d = diff_checked(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, 10);
        assert_eq!(d[0].1.len(), 11);
    }

    #[test]
    fn diff_of_identical_pages_is_empty() {
        let a = vec![7u8; 64];
        assert!(diff_checked(&a, &a).is_empty());
    }

    #[test]
    fn diff_covers_page_edges() {
        let a = vec![0u8; 64];
        let mut b = a.clone();
        b[0] = 1;
        b[63] = 1;
        let d = diff_checked(&a, &b);
        assert_eq!(d.len(), 2);
        assert_eq!(d[1].0, 63);
    }

    /// Page sizes of the differential tests: below one block, exact
    /// multiples of it, and one (200) that leaves a sub-block tail.
    const SIZES: [usize; 5] = [16, 64, 200, 256, 8192];

    #[test]
    fn diff_gap_boundary_at_every_alignment() {
        // Two changed bytes separated by DIFF_GAP - 1 / DIFF_GAP /
        // DIFF_GAP + 1 unchanged ones, slid across every position (so the
        // pair sits on, before, after and astride block boundaries, and
        // runs into the end of the page).
        for n in SIZES {
            let before = vec![0x5Au8; n];
            let step = if n > 1024 { 7 } else { 1 };
            for first in (0..n).step_by(step).chain(n.saturating_sub(80)..n) {
                for gap in [DIFF_GAP - 1, DIFF_GAP, DIFF_GAP + 1] {
                    let second = first + gap + 1;
                    if second >= n {
                        continue;
                    }
                    let mut after = before.clone();
                    after[first] ^= 0xFF;
                    after[second] ^= 0x01;
                    let d = diff_checked(&before, &after);
                    if gap < DIFF_GAP {
                        assert_eq!(d.len(), 1, "n={n} first={first} gap={gap}");
                        assert_eq!((d[0].0 as usize, d[0].1.len()), (first, gap + 2));
                    } else {
                        assert_eq!(d.len(), 2, "n={n} first={first} gap={gap}");
                        assert_eq!(d[0], (first as u32, vec![0xA5]));
                        assert_eq!(d[1], (second as u32, vec![0x5B]));
                    }
                }
            }
        }
    }

    #[test]
    fn diff_single_byte_at_every_position_and_full_pages() {
        for n in SIZES {
            let before: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let step = if n > 1024 { 13 } else { 1 };
            for at in (0..n).step_by(step).chain([n - 1]) {
                let mut after = before.clone();
                after[at] = !after[at];
                assert_eq!(
                    diff_checked(&before, &after),
                    vec![(at as u32, vec![after[at]])]
                );
            }
            // Fully different pages are one record holding the whole page.
            let after: Vec<u8> = before.iter().map(|b| !b).collect();
            assert_eq!(diff_checked(&before, &after), vec![(0, after.clone())]);
        }
    }

    #[test]
    fn diff_matches_the_serial_oracle_on_seeded_random_edits() {
        for n in SIZES {
            let mut rng = SmallRng::seed_from_u64(0xD1FF ^ n as u64);
            for _ in 0..600 {
                let before: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
                let mut after = before.clone();
                let mut at = rng.gen_range(0..n);
                for _ in 0..rng.gen_range(1usize..7) {
                    // Mostly-changed runs (some bytes keep their value) that
                    // start on, just before or just after a block boundary.
                    let len = rng.gen_range(1usize..70).min(n - at);
                    for b in &mut after[at..at + len] {
                        if rng.gen_range(0u32..4) != 0 {
                            *b ^= rng.gen_range(1u8..=255);
                        }
                    }
                    // Next edit: a near-DIFF_GAP hop, or anywhere, snapped
                    // towards a block edge half the time.
                    at = match rng.gen_range(0u32..3) {
                        0 => at + len + rng.gen_range(DIFF_GAP - 2..DIFF_GAP + 3),
                        1 => rng.gen_range(0..n),
                        _ => {
                            let edge = rng.gen_range(0..n) / DIFF_BLOCK * DIFF_BLOCK;
                            (edge + rng.gen_range(0usize..3)).saturating_sub(1)
                        }
                    };
                    if at >= n {
                        break;
                    }
                }
                diff_checked(&before, &after);
            }
        }
    }

    fn db() -> Database {
        Database::open(DbConfig::small_for_tests())
    }

    /// Fill the scratch pool with non-zero garbage, as a busy engine's
    /// recycled frame buffers would be.
    fn dirty_spares(db: &Database, n: usize) {
        for _ in 0..n {
            db.page_bufs().put(vec![0xCD; db.page_size()]);
        }
    }

    #[test]
    fn recycled_overlay_buffers_never_leak_stale_bytes() {
        let db = db();
        let mut clk = Clk::new();
        let pid = PageId(7); // never written: fresh
        dirty_spares(&db, 6);
        // A writes the fresh page and aborts; its overlay buffer (holding
        // A's bytes) joins the garbage in the pool.
        let mut a = db.begin(&mut clk);
        a.write_page(pid, Locality::Random, |b| {
            assert!(b.iter().all(|&x| x == 0), "fresh page starts zeroed");
            b.fill(0xA1);
        });
        a.abort();
        assert_eq!(db.page_bufs().spares(), 6);
        // B sees zeroes, not garbage and not A's bytes, and logs only its
        // own four bytes.
        let mut b = db.begin(&mut clk);
        b.read_page(pid, Locality::Random, |p| {
            assert!(p.iter().all(|&x| x == 0))
        });
        b.write_page(pid, Locality::Random, |p| {
            assert!(p.iter().all(|&x| x == 0));
            p[10..14].copy_from_slice(&[1, 2, 3, 4]);
        });
        assert_eq!(
            b.ops,
            vec![LogRecord::PageWrite {
                txid: b.id(),
                pid,
                offset: 10,
                data: vec![1, 2, 3, 4],
            }]
        );
        assert!(b.commit().is_committed());
        let mut c = db.begin(&mut clk);
        c.read_page(pid, Locality::Random, |p| {
            assert_eq!(&p[10..14], &[1, 2, 3, 4]);
            assert!(p[..10].iter().chain(&p[14..]).all(|&x| x == 0));
        });
    }

    #[test]
    fn poisoned_write_gets_a_zeroed_overlay_page() {
        let db = db();
        let mut clk = Clk::new();
        dirty_spares(&db, 4);
        let bad = PageId(db.config().db_pages + 5);
        let mut txn = db.begin(&mut clk);
        txn.write_page(bad, Locality::Random, |b| {
            assert!(b.iter().all(|&x| x == 0), "no recycled garbage");
            b[0] = 1;
        });
        assert!(txn.poisoned().is_some());
        assert!(!txn.commit().is_committed());
        assert_eq!(db.page_bufs().spares(), 4, "overlay buffer came back");
    }

    #[test]
    fn unshared_images_are_recycled_and_shared_ones_are_not() {
        let db = db();
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 32, 16);
        // Pages 0..3 come into being here: their images go into never-filled
        // frames, which give back handles on the pool's shared zero page —
        // nothing to recycle.
        let mut txn = db.begin(&mut clk);
        for p in 0..3u64 {
            txn.write_page(PageId(p), Locality::Random, |b| b[0] = 1);
        }
        assert!(txn.commit().is_committed());
        assert_eq!(db.spare_images(), 0, "shared zero handles are dropped");
        // Two resident pages, two fresh ones, and a read (which takes no
        // image at all).
        let touch = |txn: &mut Txn<'_, '_>| {
            for p in [1u64, 2, 4, 5] {
                txn.write_page(PageId(p), Locality::Random, |b| b[3] ^= 0x10);
            }
            txn.heap_get(h, 0);
        };
        // Commit: the images swapped out of pages 1 and 2's frames were the
        // previous commit's overlay pages, held by nothing else.
        let mut txn = db.begin(&mut clk);
        touch(&mut txn);
        assert!(txn.commit().is_committed());
        assert_eq!(db.spare_images(), 2, "commit");
        // Abort and drop: all four overlay images come back (two of them
        // were the spares, taken on first touch).
        let mut txn = db.begin(&mut clk);
        touch(&mut txn);
        assert_eq!(db.spare_images(), 0, "first touches take the spares");
        txn.abort();
        assert_eq!(db.spare_images(), 4, "abort");
        {
            let mut txn = db.begin(&mut clk);
            touch(&mut txn);
            assert_eq!(db.spare_images(), 0);
        }
        assert_eq!(db.spare_images(), 4, "drop");
        // Now all four pages are resident with unshared images.
        let mut txn = db.begin(&mut clk);
        touch(&mut txn);
        assert!(txn.commit().is_committed());
        assert_eq!(db.spare_images(), 4, "commit swaps four out for four in");
        // A checkpoint hands the frames' images to the disk store. What the
        // next commit swaps out is then the disk's copy too: writing it in
        // place would change the disk, so it is not kept.
        db.checkpoint(&mut clk);
        let on_disk = db.io().disk_store().read_buf(PageId(1));
        let mut txn = db.begin(&mut clk);
        touch(&mut txn);
        assert_eq!(db.spare_images(), 0);
        assert!(txn.commit().is_committed());
        assert_eq!(db.spare_images(), 0, "shared images are dropped");
        assert_eq!(
            db.io().disk_store().read_buf(PageId(1)).as_ptr(),
            on_disk.as_ptr(),
            "the disk still holds the checkpointed image"
        );
        assert_eq!(on_disk[3] & 0x10, 0, "untouched by the commit after it");
    }

    #[test]
    fn spare_images_are_capped() {
        let db = db();
        let mut clk = Clk::new();
        let mut txn = db.begin(&mut clk);
        for p in 0..TXN_SPARE_BUFS as u64 + 9 {
            txn.write_page(PageId(p), Locality::Random, |b| b[0] = 1);
        }
        txn.abort();
        assert_eq!(db.spare_images(), TXN_SPARE_BUFS);
    }
}
