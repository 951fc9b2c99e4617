//! Transactions: private write buffering, commit-time logging/publication.

use std::ops::Range;

use turbopool_bufpool::PageGuard;
use turbopool_iosim::{Clk, IoError, Locality, PageBuf, PageId, PidMap};
use turbopool_wal::{LogRecord, TxId};

use crate::db::{Database, Resolved};

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

/// The one diff routine: the changed byte ranges of `after`, a page image,
/// against `windows` — `(page offset, before-image)` pieces, disjoint and
/// ascending, that between them cover every byte that can have changed.
/// Each range handed to `emit` (as page offset and after-image bytes, in
/// ascending order) starts and ends on a changed byte, and two changed
/// bytes share a range iff fewer than [`DIFF_GAP`] unchanged bytes separate
/// them — whether those bytes lie inside a window, between two, or both.
fn diff_windows<'a>(
    windows: impl Iterator<Item = (usize, &'a [u8])>,
    after: &[u8],
    mut emit: impl FnMut(u32, &[u8]),
) {
    // The range being grown: first changed byte, one past the last.
    let mut open: Option<(usize, usize)> = None;
    for (base, before) in windows {
        let now = &after[base..base + before.len()];
        let mut i = first_diff(before, now, 0);
        while i < before.len() {
            let mut j = i + 1;
            while j < before.len() && before[j] != now[j] {
                j += 1;
            }
            open = Some(match open {
                Some((start, end)) if base + i - end < DIFF_GAP => (start, base + j),
                Some((start, end)) => {
                    emit(start as u32, &after[start..end]);
                    (base + i, base + j)
                }
                None => (base + i, base + j),
            });
            i = first_diff(before, now, j);
        }
    }
    if let Some((start, end)) = open {
        emit(start as u32, &after[start..end]);
    }
}

/// Compute the minimal set of changed byte ranges between two page images:
/// each range starts and ends on a changed byte, and two changed bytes share
/// a range iff fewer than [`DIFF_GAP`] unchanged bytes separate them.
///
/// This is [`Txn::write_page`]'s diff with the whole page as its one
/// window. The engine never calls it in release builds; it is public for
/// the micro bench, and debug builds check every `write_page` against it.
pub fn diff_ranges(before: &[u8], after: &[u8]) -> Vec<(u32, Vec<u8>)> {
    assert_eq!(before.len(), after.len());
    let mut out = Vec::new();
    diff_windows(std::iter::once((0, before)), after, |offset, data| {
        out.push((offset, data.to_vec()))
    });
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

/// The before-images of the windows one [`Txn::write_page`] call has
/// opened: what its diff runs against. Kept by the transaction and emptied
/// per call, so only a transaction's first writes allocate.
#[derive(Default)]
struct Windows {
    /// Disjoint, ascending by `start`. Overlapping and abutting windows
    /// are stored as the pieces each one added.
    pieces: Vec<Piece>,
    /// The pieces' before-images, back to back in the order taken.
    saved: Vec<u8>,
}

struct Piece {
    start: usize,
    end: usize,
    /// Where in [`Windows::saved`] the bytes `start..end` were copied.
    saved_at: usize,
}

impl Windows {
    /// Snapshot whatever part of `lo..hi` no earlier window has: each
    /// byte is saved the first time it is covered, so it is saved as it
    /// was before the call.
    fn cover(&mut self, page: &[u8], lo: usize, hi: usize) {
        let mut i = self.pieces.partition_point(|p| p.end <= lo);
        let mut at = lo;
        while at < hi {
            let next = self.pieces.get(i).map_or(hi, |p| p.start.min(hi));
            if at < next {
                self.pieces.insert(
                    i,
                    Piece {
                        start: at,
                        end: next,
                        saved_at: self.saved.len(),
                    },
                );
                self.saved.extend_from_slice(&page[at..next]);
                i += 1;
            }
            match self.pieces.get(i) {
                Some(p) if p.start < hi => at = p.end,
                _ => break,
            }
            i += 1;
        }
    }

    /// Run `f` on `page` through a [`PageMut`] and hand `emit` the byte
    /// ranges it changed — exactly what [`diff_ranges`] reports for the
    /// page as it was and as `f` left it.
    fn capture<R>(
        &mut self,
        page: &mut [u8],
        f: impl FnOnce(&mut PageMut<'_>) -> R,
        emit: impl FnMut(u32, &[u8]),
    ) -> R {
        self.pieces.clear();
        self.saved.clear();
        let r = f(&mut PageMut {
            page,
            windows: self,
        });
        let pieces = self.pieces.iter().map(|p| {
            let before = &self.saved[p.saved_at..p.saved_at + (p.end - p.start)];
            (p.start, before)
        });
        diff_windows(pieces, page, emit);
        r
    }

    /// Put back into `page` every byte the last [`capture`](Self::capture)
    /// saved: the page as it was before the call, since no byte can change
    /// before a window saves it.
    fn restore(&self, page: &mut [u8]) {
        for p in &self.pieces {
            page[p.start..p.end].copy_from_slice(&self.saved[p.saved_at..][..p.end - p.start]);
        }
    }
}

/// A capture whose page is put back as it was when this is dropped: after
/// the diff, or on unwind out of a panicking writer.
struct Undo<'a> {
    windows: &'a mut Windows,
    page: &'a mut [u8],
    armed: bool,
}

impl Drop for Undo<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.windows.restore(self.page);
        }
    }
}

/// Run one [`Txn::write_page`] call's writer on `page` and append the
/// records it makes to `ops`. With `undo` the page is left as it was
/// before the call — also when `f` panics — so the records are the only
/// trace of it.
fn capture_call<R>(
    windows: &mut Windows,
    ops: &mut Vec<LogRecord>,
    (txid, pid): (TxId, PageId),
    page: &mut [u8],
    undo: bool,
    f: impl FnOnce(&mut PageMut<'_>) -> R,
) -> R {
    #[cfg(debug_assertions)]
    let (before, logged) = (page.to_vec(), ops.len());
    let call = Undo {
        windows,
        page: &mut *page,
        armed: undo,
    };
    // Diffed here, per call, not at commit: record count and order are
    // part of the log's bytes.
    let r = call.windows.capture(call.page, f, |offset, data| {
        ops.push(LogRecord::PageWrite {
            txid,
            pid,
            offset,
            data: data.to_vec(),
        })
    });
    // Debug builds (tier-1 runs with them) re-derive every call's records
    // from the whole before-image, and check that an undone call left the
    // page exactly as it found it.
    #[cfg(debug_assertions)]
    {
        let captured = ops[logged..].iter().map(|rec| match rec {
            LogRecord::PageWrite { offset, data, .. } => (*offset, data.clone()),
            _ => unreachable!("write_page logs page writes"),
        });
        assert_eq!(
            captured.collect::<Vec<_>>(),
            diff_ranges(&before, call.page),
            "windowed capture of {pid} is not the full-page diff"
        );
    }
    drop(call);
    #[cfg(debug_assertions)]
    if undo {
        assert_eq!(
            page,
            &before[..],
            "{pid} was not restored after its capture"
        );
    }
    r
}

/// Lay `records` — page writes of one page — over `page`.
fn apply(records: &[LogRecord], page: &mut [u8]) {
    for rec in records {
        match rec {
            LogRecord::PageWrite { offset, data, .. } => {
                page[*offset as usize..][..data.len()].copy_from_slice(data)
            }
            _ => unreachable!("write_page logs page writes"),
        }
    }
}

/// A page the transaction has written, as its overlay holds it.
enum Written {
    /// A private image: the page with every write so far.
    Own(PageBuf),
    /// The page's one write so far ran on its frame's own image and was
    /// undone there (see [`Txn::write_page`]): a handle on the committed
    /// image it ran against, and the records it logged, `ops[records]`.
    Logged {
        base: PageBuf,
        records: Range<usize>,
    },
}

impl Written {
    /// The private image, which a `Logged` page first gets built from its
    /// base and its records (`ops` is the transaction's record list): the
    /// one copy of such a page.
    fn own(&mut self, ops: &[LogRecord]) -> &mut PageBuf {
        if let Written::Logged { base, records } = self {
            let mut image = base.clone();
            apply(&ops[records.clone()], image.as_mut_slice());
            *self = Written::Own(image);
        }
        match self {
            Written::Own(image) => image,
            Written::Logged { .. } => unreachable!("made private just above"),
        }
    }

    /// [`own`](Self::own), by value.
    fn into_own(self, ops: &[LogRecord]) -> PageBuf {
        match self {
            Written::Own(image) => image,
            Written::Logged { mut base, records } => {
                apply(&ops[records], base.as_mut_slice());
                base
            }
        }
    }
}

/// A page as [`Txn::write_page`] hands it to a writer: readable whole
/// (it dereferences to the page's bytes), writable only through
/// [`window`](Self::window). The transaction saves a window's bytes before
/// lending them out, so the redo diff looks at the windows and nowhere
/// else — and there is no way to change a byte it does not look at.
pub struct PageMut<'a> {
    page: &'a mut [u8],
    windows: &'a mut Windows,
}

impl PageMut<'_> {
    /// Mutable access to the bytes `range` of the page. Windows may
    /// overlap and repeat; what is logged is the difference between the
    /// page before the `write_page` call and after it.
    pub fn window(&mut self, range: Range<usize>) -> &mut [u8] {
        assert!(
            range.start <= range.end && range.end <= self.page.len(),
            "window {range:?} outside the {}-byte page",
            self.page.len()
        );
        self.windows.cover(self.page, range.start, range.end);
        &mut self.page[range]
    }

    /// Overwrite the bytes at `at..at + src.len()` with `src`.
    pub fn put(&mut self, at: usize, src: &[u8]) {
        self.window(at..at + src.len()).copy_from_slice(src);
    }
}

impl std::ops::Deref for PageMut<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.page
    }
}

/// An in-flight transaction.
///
/// Reads see the transaction's own writes through a page overlay; writes
/// stay private until [`Txn::commit`], which logs the byte-level deltas,
/// flushes the log (WAL), and only then publishes the modified pages to the
/// buffer pool. [`Txn::abort`] (or dropping the transaction) discards
/// everything: no frame ever holds an uncommitted byte once
/// [`Txn::write_page`] has returned.
pub struct Txn<'d, 'c> {
    pub(crate) db: &'d Database,
    pub clk: &'c mut Clk,
    id: TxId,
    overlay: PidMap<Written>,
    ops: Vec<LogRecord>,
    /// Scratch of the `write_page` call in progress.
    windows: Windows,
    /// First unrecoverable I/O error observed by a read; a poisoned
    /// transaction serves zeroed pages from then on and refuses to commit.
    poisoned: Option<IoError>,
    /// The catalog entries the transaction's operations have used.
    pub(crate) resolved: Resolved,
}

impl<'d, 'c> Txn<'d, 'c> {
    pub(crate) fn new(db: &'d Database, clk: &'c mut Clk, id: TxId) -> Self {
        Txn {
            db,
            clk,
            id,
            overlay: PidMap::default(),
            ops: Vec::new(),
            windows: Windows::default(),
            poisoned: None,
            resolved: Resolved::default(),
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
        match db.pool().get(self.clk, pid, class) {
            Ok(g) => Some(g),
            Err(e) => {
                // The disk tier could not produce the page: poison the
                // transaction and serve zeroes so the access method can
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
        self.read_image(pid, class, |image| f(image))
    }

    /// [`read_page`](Self::read_page) lending the page's image, for a reader
    /// that keeps a value derived from its bytes on it ([`PageBuf::derived`]).
    pub fn read_image<R>(
        &mut self,
        pid: PageId,
        class: Locality,
        f: impl FnOnce(&PageBuf) -> R,
    ) -> R {
        if let Some(page) = self.overlay.get_mut(&pid) {
            return f(page.own(&self.ops));
        }
        match self.pin(pid, class) {
            Some(g) => g.read_image(f),
            None => f(&self.db.io().zero_page()),
        }
    }

    /// Modify page `pid`, privately until commit. `f` reads the page
    /// freely and writes it through the windows it opens on the
    /// [`PageMut`]; what it changed is logged as byte ranges.
    ///
    /// The first write to a resident page whose frame holds the only
    /// handle on its image runs on the frame's own bytes, under its write
    /// latch, and is undone there before this returns: the transaction
    /// keeps the records and a handle on the committed image
    /// ([`Written::Logged`]), and nothing else can see an uncommitted
    /// byte. Any other write — to a page whose image a store or an SSD
    /// frame shares, a fresh or unreadable page, or a page this
    /// transaction wrote before — goes to a private image, copied once.
    pub fn write_page<R>(
        &mut self,
        pid: PageId,
        class: Locality,
        f: impl FnOnce(&mut PageMut<'_>) -> R,
    ) -> R {
        if self.overlay.contains_key(&pid) {
            return self.write_own(pid, f);
        }
        // First touch.
        let Some(mut g) = self.pin(pid, class) else {
            // Never written, or unreadable: zeroes, which the write copies.
            self.overlay
                .insert(pid, Written::Own(self.db.io().zero_page()));
            return self.write_own(pid, f);
        };
        let logged = self.ops.len();
        let (windows, ops) = (&mut self.windows, &mut self.ops);
        let in_place = g.with_unshared(|frame| match frame {
            Some(page) => Ok(capture_call(windows, ops, (self.id, pid), page, true, f)),
            None => Err(f),
        });
        match in_place {
            Ok(r) => {
                let (base, records) = (g.image(), logged..self.ops.len());
                self.overlay.insert(pid, Written::Logged { base, records });
                r
            }
            Err(f) => {
                // A store or an SSD frame shares the frame's image: the
                // write copies it.
                self.overlay.insert(pid, Written::Own(g.image()));
                self.write_own(pid, f)
            }
        }
    }

    /// [`write_page`](Self::write_page) on a page the overlay holds.
    fn write_own<R>(&mut self, pid: PageId, f: impl FnOnce(&mut PageMut<'_>) -> R) -> R {
        let page = self
            .overlay
            .get_mut(&pid)
            .expect("first touch inserted the page")
            .own(&self.ops)
            .as_mut_slice();
        capture_call(
            &mut self.windows,
            &mut self.ops,
            (self.id, pid),
            page,
            false,
            f,
        )
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
        // A private image is swapped into its frame, not copied over it. A
        // page written in place gets its records applied to the frame,
        // which owns its image again once the base handle is let go.
        let mut pages: Vec<(PageId, Written)> =
            std::mem::take(&mut self.overlay).into_iter().collect();
        pages.sort_unstable_by_key(|(pid, _)| pid.0);
        for (pid, page) in pages {
            let resident = db.pool().get_resident(pid);
            if resident.is_none() && db.is_fresh(pid) {
                let image = page.into_own(&self.ops);
                db.pool().create_from(self.clk.now, pid, image);
                continue;
            }
            let pinned = match resident {
                Some(g) => Ok(g),
                None => db.pool().get(self.clk, pid, Locality::Random),
            };
            match (pinned, page) {
                (Ok(mut g), Written::Own(image)) => {
                    g.replace(self.clk.now, image);
                }
                (Ok(mut g), Written::Logged { base, records }) => {
                    drop(base);
                    g.write(self.clk.now, |b| apply(&self.ops[records], b));
                }
                (Err(_), _) => {
                    // The commit record is already durable, so the
                    // transaction IS committed; the frame just cannot be
                    // cached right now. Redo this page's committed content
                    // straight onto the disk tier from the log.
                    db.salvage(&[pid]);
                }
            }
        }
        CommitOutcome::Committed
    }

    /// Discard all buffered writes.
    pub fn abort(self) {
        // Dropping the overlay is the whole rollback: a page written in
        // place got its frame's bytes back in `write_page`.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Run `f` on a copy of `before` through the windowed capture. Every
    /// capture test goes through here: the records must be the serial
    /// oracle's over the two whole images, range for range.
    fn capture_checked(
        windows: &mut Windows,
        before: &[u8],
        f: impl FnOnce(&mut PageMut<'_>),
    ) -> (Vec<u8>, Vec<(u32, Vec<u8>)>) {
        let mut page = before.to_vec();
        let mut got = Vec::new();
        windows.capture(&mut page, f, |offset, data| {
            got.push((offset, data.to_vec()))
        });
        assert_eq!(got, diff_ranges_serial(before, &page));
        (page, got)
    }

    fn captured(before: &[u8], f: impl FnOnce(&mut PageMut<'_>)) -> Vec<(u32, Vec<u8>)> {
        capture_checked(&mut Windows::default(), before, f).1
    }

    #[test]
    fn capture_carries_the_gap_rule_across_window_boundaries() {
        // The two changed bytes of `diff_gap_boundary_at_every_alignment`,
        // each written through a window of its own: whether they share a
        // record is decided by the unchanged bytes between them, most of
        // which no window covers.
        for n in SIZES {
            let before = vec![0x5Au8; n];
            let step = if n > 1024 { 7 } else { 1 };
            for first in (0..n).step_by(step).chain(n.saturating_sub(80)..n) {
                for gap in [DIFF_GAP - 1, DIFF_GAP, DIFF_GAP + 1] {
                    let second = first + gap + 1;
                    if second >= n {
                        continue;
                    }
                    // Windows wider than the change, on either side of it.
                    let d = captured(&before, |b| {
                        let lo = first.saturating_sub(3);
                        b.window(lo..first + 1)[first - lo] ^= 0xFF;
                        b.window(second..(second + 4).min(n))[0] ^= 0x01;
                    });
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
    fn capture_diffs_against_the_page_as_it_was_before_the_call() {
        let before: Vec<u8> = (0..64).collect();
        // A byte written twice: back to its old value logs nothing, on to
        // a third value logs the third against the first.
        assert!(captured(&before, |b| {
            b.put(9, &[0xEE]);
            b.put(9, &[9]);
        })
        .is_empty());
        assert_eq!(
            captured(&before, |b| {
                b.put(9, &[0xEE]);
                b.window(4..20)[5] = 0xDD;
            }),
            vec![(9, vec![0xDD])]
        );
        // A window written back with the bytes it had: no record.
        assert!(captured(&before, |b| {
            let same = b[10..30].to_vec();
            b.put(10, &same);
        })
        .is_empty());
        // A window opened and never written: no record either.
        assert!(captured(&before, |b| {
            b.window(0..64);
        })
        .is_empty());
        // Abutting windows make one record; so do overlapping ones, each
        // byte saved once however many windows cover it.
        assert_eq!(
            captured(&before, |b| {
                b.put(20, &[0xA0; 4]);
                b.put(24, &[0xA1; 4]);
                b.put(16, &[0xA2; 4]);
            }),
            vec![(16, [[0xA2; 4], [0xA0; 4], [0xA1; 4]].concat())]
        );
        assert_eq!(
            captured(&before, |b| {
                b.put(30, &[0xB0; 10]);
                b.put(25, &[0xB1; 10]);
                b.put(38, &[0xB2; 4]);
                b.put(20, &[0xB3; 30]);
            }),
            vec![(20, vec![0xB3; 30])]
        );
        // The whole page as one window is `diff_ranges`.
        let d = captured(&before, |b| {
            let all = b.window(0..64);
            all[0] = 0xFF;
            all[63] = 0xFF;
        });
        assert_eq!(d, vec![(0, vec![0xFF]), (63, vec![0xFF])]);
    }

    #[test]
    #[should_panic(expected = "outside the 16-byte page")]
    fn a_window_past_the_page_is_refused() {
        captured(&[0u8; 16], |b| {
            b.window(10..17);
        });
    }

    #[test]
    fn capture_matches_the_serial_oracle_on_seeded_window_writes() {
        for n in SIZES {
            let mut rng = SmallRng::seed_from_u64(0xCA97 ^ n as u64);
            // One scratch for the whole run, as a transaction keeps it.
            let mut windows = Windows::default();
            let mut page: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
            for _ in 0..600 {
                let mut edits: Vec<(usize, Vec<u8>)> = Vec::new();
                let mut at = rng.gen_range(0..n);
                for _ in 0..rng.gen_range(1usize..7) {
                    let len = match rng.gen_range(0u32..12) {
                        0 => n - at,
                        _ => rng.gen_range(1usize..70).min(n - at),
                    };
                    // Mostly-changed bytes; some keep their value, and one
                    // window in eight is written back exactly as it was.
                    let keep_all = rng.gen_ratio(1, 8);
                    let bytes = (at..at + len)
                        .map(|i| match rng.gen_range(0u32..4) {
                            0 => page[i],
                            _ if keep_all => page[i],
                            _ => page[i] ^ rng.gen_range(1u8..=255),
                        })
                        .collect();
                    edits.push((at, bytes));
                    // Next window: abutting, overlapping, a near-DIFF_GAP
                    // hop past the end of this one, or anywhere.
                    at = match rng.gen_range(0u32..5) {
                        0 => at + len,
                        1 => at + rng.gen_range(0..len),
                        2 => (at + len).saturating_sub(rng.gen_range(1usize..90)),
                        3 => at + len + rng.gen_range(DIFF_GAP - 2..DIFF_GAP + 3),
                        _ => rng.gen_range(0..n),
                    };
                    if at >= n {
                        break;
                    }
                }
                (page, _) = capture_checked(&mut windows, &page, |b| {
                    for (at, bytes) in &edits {
                        b.put(*at, bytes);
                    }
                });
            }
        }
    }

    fn db() -> Database {
        Database::open(DbConfig::small_for_tests())
    }

    fn page_writes(txn: &Txn<'_, '_>) -> Vec<(u64, u32, usize)> {
        txn.ops
            .iter()
            .map(|rec| match rec {
                LogRecord::PageWrite {
                    pid, offset, data, ..
                } => (pid.0, *offset, data.len()),
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn the_writers_log_what_a_full_page_diff_would() {
        // (Debug builds also check every `write_page` below against the
        // full-page diff; this pins the shapes.)
        let db = db();
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 100, 4);
        let idx = db.create_index(&mut clk, "i", 4);
        let (heap_page, root) = (db.heap_meta(h).first.0, db.index_meta(idx).root.0);
        let slots = db.heap_meta(h).slots_per_page as u32;
        let mut txn = db.begin(&mut clk);
        // Heap insert: the presence flag and the record are two windows.
        // Slot 0's are 1 byte apart (one record); the next slot's record
        // is 100 bytes further from its flag (two).
        txn.heap_insert(h, &[7; 100]).unwrap();
        txn.heap_insert(h, &[8; 60]).unwrap();
        assert_eq!(
            page_writes(&txn),
            vec![
                (heap_page, 0, slots as usize + 100),
                (heap_page, 1, 1),
                (heap_page, slots + 100, 60),
            ]
        );
        // An update that changes one byte logs one byte; a delete, the flag.
        txn.ops.clear();
        let mut rec = [8u8; 100];
        rec[60..].fill(0);
        rec[40] = 9;
        assert!(txn.heap_update(h, 1, &rec));
        assert!(txn.heap_delete(h, 0));
        assert_eq!(
            page_writes(&txn),
            vec![(heap_page, slots + 140, 1), (heap_page, 0, 1)]
        );
        // B+-tree append: `nkeys` (bytes 2..4) and the entry. Entry 0
        // starts at byte 16, twelve unchanged bytes on: one record. Entry 2
        // is 44 bytes on: two.
        txn.ops.clear();
        txn.index_insert(idx, 5, 50);
        assert_eq!(page_writes(&txn), vec![(root, 2, 23)]);
        txn.index_insert(idx, 6, 60);
        txn.ops.clear();
        txn.index_insert(idx, 7, 70);
        assert_eq!(page_writes(&txn), vec![(root, 2, 1), (root, 48, 9)]);
        // Upsert of an existing key: the value's changed bytes only.
        txn.ops.clear();
        txn.index_insert(idx, 6, 61);
        assert_eq!(page_writes(&txn), vec![(root, 40, 1)]);
        assert!(txn.commit().is_committed());
    }

    /// The frame of resident page `pid`: its image's address and bytes.
    fn frame(db: &Database, pid: PageId) -> (*const u8, Vec<u8>) {
        let image = db.pool().get_resident(pid).expect("resident").image();
        (image.as_ptr(), image.to_vec())
    }

    /// True if `pid`'s frame holds the only handle on its image.
    fn unshared(db: &Database, pid: PageId) -> bool {
        let mut g = db.pool().get_resident(pid).expect("resident");
        g.with_unshared(|b| b.is_some())
    }

    /// Commit one byte, `p + 1` at offset 0, to each of `pages` (fresh
    /// pages, so they come into being in their frames, each frame then the
    /// only holder of its image).
    fn commit_pages(db: &Database, clk: &mut Clk, pages: Range<u64>) {
        let mut txn = db.begin(clk);
        for p in pages {
            txn.write_page(PageId(p), Locality::Random, |b| b.put(0, &[p as u8 + 1]));
        }
        assert!(txn.commit().is_committed());
    }

    /// Checkpoint, then give the disk store an equal image of its own for
    /// each of `pages`: their frames are clean and, once more, the only
    /// holders of their images.
    fn clean_and_unshared(db: &Database, clk: &mut Clk, pages: Range<u64>) {
        db.checkpoint(clk);
        for p in pages {
            let pid = PageId(p);
            assert!(!unshared(db, pid), "the checkpoint shares the image");
            db.io().disk_store().write(pid, &frame(db, pid).1);
            assert!(unshared(db, pid) && !db.pool().is_dirty(pid));
        }
    }

    #[test]
    fn recycled_overlay_images_never_leak_stale_bytes() {
        let db = db();
        let mut clk = Clk::new();
        let pid = PageId(7); // never written: fresh

        // A writes the fresh page and aborts.
        let mut a = db.begin(&mut clk);
        a.write_page(pid, Locality::Random, |b| {
            assert!(b.iter().all(|&x| x == 0), "fresh page starts zeroed");
            let len = b.len();
            b.window(0..len).fill(0xA1);
        });
        a.abort();
        // B sees zeroes, not A's bytes, and logs only its own four bytes.
        let mut b = db.begin(&mut clk);
        b.read_page(pid, Locality::Random, |p| {
            assert!(p.iter().all(|&x| x == 0))
        });
        b.write_page(pid, Locality::Random, |p| {
            assert!(p.iter().all(|&x| x == 0));
            p.put(10, &[1, 2, 3, 4]);
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
        // The page is resident now, its frame the only holder of its
        // image: C writes every byte of it in place and aborts, and D
        // still sees B's bytes and nothing of C's.
        assert!(unshared(&db, pid));
        let mut c = db.begin(&mut clk);
        c.write_page(pid, Locality::Random, |b| {
            let len = b.len();
            b.window(0..len).fill(0xC3);
        });
        assert!(matches!(c.overlay[&pid], Written::Logged { .. }));
        c.abort();
        let mut d = db.begin(&mut clk);
        d.read_page(pid, Locality::Random, |p| {
            assert_eq!(&p[10..14], &[1, 2, 3, 4]);
            assert!(p[..10].iter().chain(&p[14..]).all(|&x| x == 0));
        });
    }

    #[test]
    fn poisoned_write_gets_a_zeroed_overlay_page() {
        let db = db();
        let mut clk = Clk::new();
        let bad = PageId(db.config().pool.db_pages + 5);
        let mut txn = db.begin(&mut clk);
        txn.write_page(bad, Locality::Random, |b| {
            assert!(b.iter().all(|&x| x == 0), "zeroes, not another page");
            b.put(0, &[1]);
        });
        assert!(txn.poisoned().is_some());
        assert!(matches!(txn.overlay[&bad], Written::Own(_)));
        let flushed = db.log().flushed_lsn();
        assert!(!txn.commit().is_committed());
        assert_eq!(db.log().flushed_lsn(), flushed, "nothing logged");
        assert_eq!(db.pool().dirty_count(), 0, "nothing published");
    }

    #[test]
    fn unshared_images_are_recycled_and_shared_ones_are_not() {
        // The frame's own image is written in place when nothing else holds
        // it — the transaction copies nothing, and commit keeps the image —
        // and copied when a store does, which then keeps its bytes.
        let db = db();
        let mut clk = Clk::new();
        commit_pages(&db, &mut clk, 0..3);
        let before: Vec<_> = (0..3).map(|p| frame(&db, PageId(p))).collect();
        let touch = |txn: &mut Txn<'_, '_>| {
            for p in [1u64, 2, 4] {
                txn.write_page(PageId(p), Locality::Random, |b| b.window(3..4)[0] ^= 0x10);
            }
        };
        let mut txn = db.begin(&mut clk);
        touch(&mut txn);
        for p in [1, 2] {
            assert!(matches!(txn.overlay[&PageId(p)], Written::Logged { .. }));
            assert_eq!(frame(&db, PageId(p)), before[p as usize], "undone in place");
        }
        assert!(matches!(txn.overlay[&PageId(4)], Written::Own(_)), "fresh");
        assert!(txn.commit().is_committed());
        for p in [1, 2] {
            let (image, bytes) = frame(&db, PageId(p));
            assert_eq!(image, before[p as usize].0, "{p}: the same image, no copy");
            assert_eq!((bytes[0], bytes[3]), (p as u8 + 1, 0x10));
            assert!(unshared(&db, PageId(p)));
        }
        // A checkpoint hands the frames' images to the disk store: the
        // next write copies, and commit swaps the copy in.
        db.checkpoint(&mut clk);
        let on_disk = db.io().disk_store().read_buf(PageId(1));
        let mut txn = db.begin(&mut clk);
        touch(&mut txn);
        assert!(matches!(txn.overlay[&PageId(1)], Written::Own(_)), "shared");
        assert!(txn.commit().is_committed());
        assert_ne!(frame(&db, PageId(1)).0, on_disk.as_ptr());
        assert_eq!(frame(&db, PageId(1)).1[3], 0);
        assert_eq!(
            db.io().disk_store().read_buf(PageId(1)).as_ptr(),
            on_disk.as_ptr(),
            "the disk still holds the checkpointed image"
        );
        assert_eq!(on_disk[3], 0x10, "untouched by the commit after it");
    }

    #[test]
    fn spare_images_are_capped() {
        // Nothing keeps a page image once a transaction is over: after
        // one that wrote more pages than the pool has frames, and aborted,
        // every frame is again the only holder of its image.
        let db = db();
        let mut clk = Clk::new();
        let frames = db.config().pool.frames as u64;
        commit_pages(&db, &mut clk, 0..frames);
        let mut txn = db.begin(&mut clk);
        for p in 0..frames + 9 {
            txn.write_page(PageId(p), Locality::Random, |b| b.put(1, &[1]));
        }
        txn.abort();
        let resident: Vec<_> = (0..frames + 9)
            .map(PageId)
            .filter(|&pid| db.pool().contains(pid))
            .collect();
        assert!(!resident.is_empty());
        for pid in resident {
            assert!(unshared(&db, pid), "{pid}");
        }
    }

    #[test]
    fn an_aborted_in_place_write_leaves_the_frame_as_it_was() {
        let db = db();
        let mut clk = Clk::new();
        commit_pages(&db, &mut clk, 0..2);
        clean_and_unshared(&db, &mut clk, 0..2);
        let before = [frame(&db, PageId(0)), frame(&db, PageId(1))];
        let write = |txn: &mut Txn<'_, '_>, p: u64| {
            txn.write_page(PageId(p), Locality::Random, |b| {
                b.put(0, &[0xEE; 8]);
                b.put(100, &[0xDD; 20]);
            });
            assert!(matches!(txn.overlay[&PageId(p)], Written::Logged { .. }));
        };
        let mut txn = db.begin(&mut clk);
        write(&mut txn, 0);
        // Mid-transaction the frame already holds the committed bytes.
        assert_eq!(frame(&db, PageId(0)), before[0]);
        txn.abort();
        {
            let mut txn = db.begin(&mut clk);
            write(&mut txn, 1);
        }
        for p in 0..2 {
            let pid = PageId(p);
            assert_eq!(frame(&db, pid), before[p as usize], "bytes and image");
            assert!(!db.pool().is_dirty(pid) && unshared(&db, pid));
        }
        assert_eq!(db.pool().dirty_count(), 0);
    }

    #[test]
    fn own_writes_read_back_and_log_as_a_private_copy_would() {
        // The same transaction on a page written in place and on one
        // whose image is shared (so copied): the reads see both writes, and
        // the records are the same.
        let run = |share: bool| {
            let db = db();
            let mut clk = Clk::new();
            let pid = PageId(3);
            commit_pages(&db, &mut clk, 3..4);
            if share {
                db.checkpoint(&mut clk);
            }
            let mut txn = db.begin(&mut clk);
            txn.write_page(pid, Locality::Random, |b| b.put(40, &[1, 2, 3]));
            let logged = matches!(txn.overlay[&pid], Written::Logged { .. });
            assert_eq!(logged, !share);
            txn.read_page(pid, Locality::Random, |p| {
                assert_eq!((p[0], &p[40..43]), (4, &[1u8, 2, 3][..]))
            });
            assert!(
                matches!(txn.overlay[&pid], Written::Own(_)),
                "read made it own"
            );
            txn.write_page(pid, Locality::Random, |b| {
                assert_eq!(&b[40..43], &[1, 2, 3]);
                b.put(41, &[9, 9, 9, 9]);
            });
            txn.read_page(pid, Locality::Random, |p| {
                assert_eq!(&p[40..45], &[1, 9, 9, 9, 9])
            });
            let records: Vec<_> = txn
                .ops
                .iter()
                .map(|rec| match rec {
                    LogRecord::PageWrite { offset, data, .. } => (*offset, data.clone()),
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert!(txn.commit().is_committed());
            assert_eq!(&frame(&db, pid).1[40..45], &[1, 9, 9, 9, 9]);
            records
        };
        let in_place = run(false);
        assert_eq!(in_place, vec![(40, vec![1, 2, 3]), (41, vec![9, 9, 9, 9])]);
        assert_eq!(in_place, run(true));
    }

    #[test]
    fn a_logged_page_evicted_mid_transaction_commits_its_records() {
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.frames = 2;
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let pid = PageId(0);
        // Pages 1..4 exist below or in the pool; page 0 comes into being
        // last, in a frame that holds the only handle on its image.
        commit_pages(&db, &mut clk, 1..4);
        commit_pages(&db, &mut clk, 0..1);
        let mut txn = db.begin(&mut clk);
        txn.write_page(pid, Locality::Random, |b| b.put(20, &[5, 6, 7]));
        assert!(matches!(txn.overlay[&pid], Written::Logged { .. }));
        // Other pages, read over and over, push it out of the two-frame
        // pool; what goes below is the committed page, not the
        // transaction's write.
        for p in (1..4).cycle().take(9) {
            txn.read_page(PageId(p), Locality::Random, |_| ());
        }
        assert!(!db.pool().contains(pid));
        let below = db.io().disk_store().read_buf(pid);
        assert_eq!((below[0], &below[20..23]), (1, &[0u8, 0, 0][..]));
        // Commit reads the page back and applies the records to it.
        assert!(txn.commit().is_committed());
        let (_, bytes) = frame(&db, pid);
        assert_eq!((bytes[0], &bytes[20..23]), (1, &[5u8, 6, 7][..]));
        assert!(db.pool().is_dirty(pid));
    }

    #[test]
    fn a_panicking_writer_leaves_the_frames_committed_bytes() {
        let db = db();
        let mut clk = Clk::new();
        let pid = PageId(2);
        commit_pages(&db, &mut clk, 2..3);
        let before = frame(&db, pid);
        let mut txn = db.begin(&mut clk);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            txn.write_page(pid, Locality::Random, |b| {
                b.put(0, &[0xFF; 16]);
                b.window(50..60).fill(0xFF);
                panic!("writer failed halfway");
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(frame(&db, pid), before);
        assert!(unshared(&db, pid), "the writer's handle is gone");
        assert!(txn.ops.is_empty() && txn.overlay.is_empty());
        // The transaction goes on, and sees the committed page.
        txn.write_page(pid, Locality::Random, |b| {
            assert_eq!(&b[..], &before.1[..]);
            b.put(1, &[7]);
        });
        assert!(txn.commit().is_committed());
        assert_eq!(frame(&db, pid).1[..2], [3, 7]);
    }
}
