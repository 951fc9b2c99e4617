//! Heap files: fixed-size records addressed by RID.
//!
//! A heap file occupies a contiguous page extent. Each page holds
//! `slots_per_page` fixed-size records behind a presence-flag array, so a
//! zeroed (never-written) page is a valid empty page — creating a table
//! costs no I/O. RIDs are dense: `rid = page_index * slots_per_page + slot`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_iosim::{Locality, PageId};

use crate::txn::{PageMut, Txn};

/// RID: a record's stable address within its heap file.
pub type Rid = u64;

/// Heap-file metadata (kept in the catalog).
#[derive(Clone, Debug)]
pub struct HeapMeta {
    pub first: PageId,
    pub pages: u64,
    pub record_size: usize,
    pub slots_per_page: usize,
    /// Append cursor: the next RID to hand out.
    pub next: Arc<AtomicU64>,
}

/// Records of `record_size` bytes one page of `page_size` bytes holds: a
/// presence byte plus the record per slot.
pub fn slots_per_page(record_size: usize, page_size: usize) -> usize {
    page_size / (1 + record_size)
}

impl HeapMeta {
    pub fn new(first: PageId, pages: u64, record_size: usize, page_size: usize) -> Self {
        let slots_per_page = slots_per_page(record_size, page_size);
        assert!(slots_per_page >= 1, "record larger than a page");
        HeapMeta {
            first,
            pages,
            record_size,
            slots_per_page,
            next: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Total record capacity.
    pub fn capacity(&self) -> u64 {
        self.pages * self.slots_per_page as u64
    }

    /// Page and slot of a RID.
    #[inline]
    pub fn locate(&self, rid: Rid) -> (PageId, usize) {
        let page = self.first.offset(rid / self.slots_per_page as u64);
        let slot = (rid % self.slots_per_page as u64) as usize;
        (page, slot)
    }

    /// Byte offset of a slot's presence flag.
    #[inline]
    fn flag_off(&self, slot: usize) -> usize {
        slot
    }

    /// Byte offset of a slot's record bytes.
    #[inline]
    fn rec_off(&self, slot: usize) -> usize {
        self.slots_per_page + slot * self.record_size
    }

    /// Pages that contain at least one allocated RID (bounds table scans).
    pub fn used_pages(&self) -> u64 {
        let next = self.next.load(Ordering::Relaxed);
        next.div_ceil(self.slots_per_page as u64).min(self.pages)
    }
}

/// Append a record; returns its RID. The data must be at most
/// `record_size` bytes (shorter records are zero-padded).
pub fn insert(txn: &mut Txn<'_, '_>, meta: &HeapMeta, data: &[u8]) -> Result<Rid, HeapFull> {
    assert!(data.len() <= meta.record_size, "record too large");
    let rid = meta.next.fetch_add(1, Ordering::Relaxed);
    if rid >= meta.capacity() {
        return Err(HeapFull);
    }
    let (pid, slot) = meta.locate(rid);
    let (f, r) = (meta.flag_off(slot), meta.rec_off(slot));
    txn.write_page(pid, Locality::Random, |b| {
        b.put(f, &[1]);
        let (rec, padding) = b.window(r..r + meta.record_size).split_at_mut(data.len());
        rec.copy_from_slice(data);
        // Zero the padding in case the slot was previously used.
        padding.fill(0);
    });
    Ok(rid)
}

/// The heap extent is out of slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapFull;

/// Lend record `rid`'s bytes to `f`, inside the page pin; `None` if the
/// RID was never inserted or was deleted. Nothing is copied: a caller that
/// keeps the bytes copies them itself (`Txn::heap_get`).
pub fn read<R>(
    txn: &mut Txn<'_, '_>,
    meta: &HeapMeta,
    rid: Rid,
    f: impl FnOnce(&[u8]) -> R,
) -> Option<R> {
    if rid >= meta.capacity() {
        return None;
    }
    let (pid, slot) = meta.locate(rid);
    let (flag, at) = (meta.flag_off(slot), meta.rec_off(slot));
    txn.read_page(pid, Locality::Random, |b| {
        (b[flag] == 1).then(|| f(&b[at..at + meta.record_size]))
    })
}

/// Change record `rid` in place through `f`, which sees the record's
/// current bytes and writes each field it changes with [`RecordMut::put`]
/// (`Txn::heap_update` puts a whole record at offset 0); `false` if the
/// RID was never inserted or was deleted. One call is one `Txn::write_page`
/// call and so one set of redo records, however many fields it puts.
pub fn update_with(
    txn: &mut Txn<'_, '_>,
    meta: &HeapMeta,
    rid: Rid,
    f: impl FnOnce(&mut RecordMut<'_, '_>),
) -> bool {
    if rid >= meta.capacity() {
        return false;
    }
    let (pid, slot) = meta.locate(rid);
    let (flag, at) = (meta.flag_off(slot), meta.rec_off(slot));
    let len = meta.record_size;
    txn.write_page(pid, Locality::Random, |page| {
        let present = page[flag] == 1;
        if present {
            f(&mut RecordMut { page, at, len });
        }
        present
    })
}

/// One record as [`update_with`] lends it: readable whole (it dereferences
/// to the record's bytes), writable field by field, each [`RecordMut::put`]
/// opening a [`PageMut`] window on that field's bytes only.
pub struct RecordMut<'p, 'a> {
    page: &'p mut PageMut<'a>,
    at: usize,
    len: usize,
}

impl RecordMut<'_, '_> {
    /// Overwrite the record's bytes at `at..at + src.len()` with `src`.
    pub fn put(&mut self, at: usize, src: &[u8]) {
        let end = at + src.len();
        assert!(
            end <= self.len,
            "field {at}..{end} outside the {}-byte record",
            self.len
        );
        self.page.put(self.at + at, src);
    }
}

impl std::ops::Deref for RecordMut<'_, '_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.page[self.at..self.at + self.len]
    }
}

/// Delete a record (the slot is not reused).
pub fn delete(txn: &mut Txn<'_, '_>, meta: &HeapMeta, rid: Rid) -> bool {
    if rid >= meta.capacity() {
        return false;
    }
    let (pid, slot) = meta.locate(rid);
    let f = meta.flag_off(slot);
    txn.write_page(pid, Locality::Random, |b| {
        let was = b[f] == 1;
        b.put(f, &[0]);
        was
    })
}

/// Iterate the present records of one page image, calling
/// `f(rid, record_bytes)`.
pub fn for_each_in_page(
    meta: &HeapMeta,
    page_index: u64,
    page: &[u8],
    mut f: impl FnMut(Rid, &[u8]),
) {
    for slot in 0..meta.slots_per_page {
        if page[meta.flag_off(slot)] == 1 {
            let rid = page_index * meta.slots_per_page as u64 + slot as u64;
            let r = meta.rec_off(slot);
            f(rid, &page[r..r + meta.record_size]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, DbConfig, HeapId};
    use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};
    use turbopool_iosim::Clk;

    #[test]
    fn locate_round_trips() {
        let m = HeapMeta::new(PageId(100), 10, 31, 256);
        assert_eq!(m.slots_per_page, 8);
        assert_eq!(m.capacity(), 80);
        assert_eq!(m.locate(0), (PageId(100), 0));
        assert_eq!(m.locate(7), (PageId(100), 7));
        assert_eq!(m.locate(8), (PageId(101), 0));
        assert_eq!(m.locate(79), (PageId(109), 7));
    }

    #[test]
    fn offsets_do_not_overlap() {
        let m = HeapMeta::new(PageId(0), 1, 31, 256);
        // Flags occupy [0, 8); records start at 8.
        assert_eq!(m.rec_off(0), 8);
        assert_eq!(m.rec_off(7), 8 + 7 * 31);
        assert!(m.rec_off(7) + 31 <= 256);
    }

    #[test]
    fn used_pages_tracks_cursor() {
        let m = HeapMeta::new(PageId(0), 10, 31, 256);
        assert_eq!(m.used_pages(), 0);
        m.next.store(1, Ordering::Relaxed);
        assert_eq!(m.used_pages(), 1);
        m.next.store(8, Ordering::Relaxed);
        assert_eq!(m.used_pages(), 1);
        m.next.store(9, Ordering::Relaxed);
        assert_eq!(m.used_pages(), 2);
        m.next.store(10_000, Ordering::Relaxed);
        assert_eq!(m.used_pages(), 10);
    }

    #[test]
    fn for_each_in_page_skips_absent_slots() {
        let m = HeapMeta::new(PageId(0), 1, 31, 256);
        let mut page = vec![0u8; 256];
        page[0] = 1; // slot 0 present
        page[2] = 1; // slot 2 present
        page[8] = 0xAA; // slot 0 record first byte
        let mut seen = Vec::new();
        for_each_in_page(&m, 5, &page, |rid, rec| seen.push((rid, rec[0])));
        assert_eq!(seen, vec![(40, 0xAA), (42, 0)]);
    }

    const REC: usize = 37;

    /// A small pool over a 60-page heap of 37-byte records (six a page),
    /// so the mix evicts and reads pages back.
    fn heap_db() -> (Database, Clk, HeapId) {
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.frames = 8;
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "rows", REC, 60);
        (db, clk, h)
    }

    /// Length and FNV-1a hash of a record's bytes.
    fn digest(rec: &[u8]) -> (usize, u64) {
        let hash = rec.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        (rec.len(), hash)
    }

    /// What one run of [`run_mix`] leaves behind.
    struct Outcome {
        durable_len: usize,
        log: Vec<u8>,
        hits: u64,
        misses: u64,
        pages: Vec<u8>,
        /// Every read's record digest and every update's verdict.
        answers: Vec<Option<(usize, u64)>>,
    }

    impl std::fmt::Debug for Outcome {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "{} log bytes, {} hits, {} misses, {} answers",
                self.durable_len,
                self.hits,
                self.misses,
                self.answers.len()
            )
        }
    }

    /// A seeded mix of reads, field updates, whole-record updates, inserts,
    /// deletes and aborts, through the copying forms (`heap_get` +
    /// `heap_update`) or the lending ones (`heap_read` +
    /// `heap_update_with`), making the same pool accesses either way. RIDs
    /// are drawn past the append cursor and past the heap's end too, so
    /// absent, deleted and out-of-range records all come up.
    fn run_mix(lend: bool) -> Outcome {
        let (db, mut clk, h) = heap_db();
        let (capacity, cursor) = (db.heap_meta(h).capacity(), db.heap_meta(h).next);
        let mut rng = SmallRng::seed_from_u64(0x1E4D_B0A7);
        let mut answers = Vec::new();
        for t in 0..400u64 {
            let mut txn = db.begin(&mut clk);
            for _ in 0..rng.gen_range(1u32..6) {
                let rid = if rng.gen_bool(0.1) {
                    rng.gen_range(0..capacity + 8)
                } else {
                    rng.gen_range(0..cursor.load(Ordering::Relaxed) + 2)
                };
                match rng.gen_range(0u32..10) {
                    0 | 1 => {
                        let mut rec = [0u8; REC];
                        rec.iter_mut().for_each(|b| *b = rng.gen());
                        let len = rng.gen_range(1..=REC);
                        let _ = txn.heap_insert(h, &rec[..len]);
                    }
                    2..=4 => answers.push(if lend {
                        txn.heap_read(h, rid, digest)
                    } else {
                        txn.heap_get(h, rid).map(|rec| digest(&rec))
                    }),
                    // Read, then bump one field or two far-apart ones
                    // computed from the record's current bytes.
                    5..=7 => {
                        let (at, far) = (rng.gen_range(0..REC - 8), rng.gen_bool(0.3));
                        let bump = |rec: &[u8], at: usize| {
                            let v = u64::from_le_bytes(rec[at..at + 8].try_into().unwrap());
                            v.wrapping_add(t | 1).to_le_bytes()
                        };
                        let done = if lend {
                            txn.heap_read(h, rid, |_| ()).is_some()
                                && txn.heap_update_with(h, rid, |rec| {
                                    rec.put(at, &bump(rec, at));
                                    if far {
                                        rec.put(REC - 1, &[!rec[REC - 1]]);
                                    }
                                })
                        } else {
                            txn.heap_get(h, rid).is_some_and(|mut rec| {
                                let field = bump(&rec, at);
                                rec[at..at + 8].copy_from_slice(&field);
                                if far {
                                    rec[REC - 1] = !rec[REC - 1];
                                }
                                txn.heap_update(h, rid, &rec)
                            })
                        };
                        answers.push(done.then_some((0, 0)));
                    }
                    // A whole-record overwrite, with no read before it.
                    8 => {
                        let data = [t as u8; REC];
                        let len = rng.gen_range(1..=REC);
                        let done = if lend {
                            txn.heap_update_with(h, rid, |rec| rec.put(0, &data[..len]))
                        } else {
                            txn.heap_update(h, rid, &data[..len])
                        };
                        answers.push(done.then_some((1, 1)));
                    }
                    _ => answers.push(txn.heap_delete(h, rid).then_some((2, 2))),
                }
            }
            if rng.gen_range(0u32..8) == 0 {
                txn.abort();
            } else {
                assert!(txn.commit().is_committed());
            }
        }
        let stats = db.pool_stats();
        let mut pages = Vec::new();
        let mut txn = db.begin(&mut clk);
        for p in 0..db.heap_meta(h).pages {
            let pid = db.heap_meta(h).first.offset(p);
            txn.read_page(pid, Locality::Random, |b| pages.extend_from_slice(b));
        }
        txn.commit();
        Outcome {
            durable_len: db.log().durable_len(),
            log: db.log().durable_handle().with_bytes(<[u8]>::to_vec),
            hits: stats.hits,
            misses: stats.misses,
            pages,
            answers,
        }
    }

    #[test]
    fn lending_matches_copying() {
        let (copied, lent) = (run_mix(false), run_mix(true));
        let count = |want| copied.answers.iter().filter(|&&a| a == want).count();
        assert!(copied.misses > 100, "the mix must evict: {copied:?}");
        assert!(
            count(None) > 100 && count(Some((0, 0))) > 100 && count(Some((1, 1))) > 30,
            "the mix must find and miss records: {copied:?}"
        );
        assert_eq!(copied.durable_len, lent.durable_len, "log length");
        assert!(copied.log == lent.log, "log bytes differ");
        assert_eq!((copied.hits, copied.misses), (lent.hits, lent.misses));
        assert!(copied.pages == lent.pages, "page images differ");
        assert_eq!(copied.answers, lent.answers);
    }

    #[test]
    fn absent_records_are_neither_lent_nor_updated() {
        let (db, mut clk, h) = heap_db();
        let capacity = db.heap_meta(h).capacity();
        let mut txn = db.begin(&mut clk);
        let (kept, gone) = (
            txn.heap_insert(h, b"kept").unwrap(),
            txn.heap_insert(h, b"gone").unwrap(),
        );
        assert!(txn.heap_delete(h, gone));
        assert!(txn.commit().is_committed());
        let logged = db.log().durable_len();
        let mut txn = db.begin(&mut clk);
        // Deleted, never inserted (same page), and past the heap's end.
        for rid in [gone, gone + 1, capacity] {
            assert_eq!(txn.heap_read(h, rid, |r| r.len()), None, "rid {rid}");
            assert_eq!(txn.heap_get(h, rid), None, "rid {rid}");
            assert!(
                !txn.heap_update_with(h, rid, |r| r.put(1, b"x")),
                "rid {rid}"
            );
            assert!(!txn.heap_update(h, rid, b"x"), "rid {rid}");
        }
        assert!(txn.commit().is_committed());
        // The refused updates changed no byte, so the commit logged nothing.
        assert_eq!(db.log().durable_len(), logged);
        let mut txn = db.begin(&mut clk);
        let rec = txn.heap_get(h, kept).unwrap();
        assert_eq!((rec.len(), &rec[..5]), (REC, &b"kept\0"[..]));
        assert!(txn.heap_update_with(h, kept, |r| r.put(2, b"s")));
        assert_eq!(
            txn.heap_read(h, kept, |r| r[..4].to_vec()).unwrap(),
            b"kest"
        );
        assert!(txn.commit().is_committed());
    }

    #[test]
    #[should_panic(expected = "outside the 37-byte record")]
    fn a_field_past_the_record_is_refused() {
        let (db, mut clk, h) = heap_db();
        let mut txn = db.begin(&mut clk);
        let rid = txn.heap_insert(h, b"r").unwrap();
        txn.heap_update_with(h, rid, |r| r.put(REC - 2, b"abc"));
    }
}
