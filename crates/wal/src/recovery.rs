//! Crash recovery: redo committed page writes after the last checkpoint.
//!
//! Recovery is fallible end to end: redo reads and writes go through a
//! [`RedoStore`], whose engine-side implementation routes them through the
//! simulated devices (with transient-error retry) instead of poking the
//! backing bytes directly. A torn log tail is truncated and replay
//! proceeds; mid-log corruption stops the scan at the damage point and is
//! surfaced in the [`LogScanReport`] so the caller can fail loudly.
//!
//! The log is read where it lies ([`RecordReader`] borrows every payload
//! from the durable bytes) and each page is redone once: one read, all of
//! its committed ranges in log order, one write.

use std::collections::HashSet;
use std::ops::Add;

use turbopool_iosim::{IoError, MemStore, PageId};

use crate::record::{table_entries, LogTail, RecordReader, RecordRef, TABLE_ENTRY_LEN};
use crate::TxId;

/// Fallible page access for redo: the device-facing face of recovery.
///
/// Implementations decide how faults surface — the engine adapter retries
/// transient errors with capped virtual-time backoff and propagates
/// permanent ones; [`DirectStore`] (unit tests, timing-free replay) never
/// fails.
pub trait RedoStore {
    fn page_size(&self) -> usize;
    /// Pages in the database: a log record naming a page at or past this
    /// cannot be applied, whatever its checksum says.
    fn num_pages(&self) -> u64;
    fn read(&mut self, pid: PageId, buf: &mut [u8]) -> Result<(), IoError>;
    fn write(&mut self, pid: PageId, data: &[u8]) -> Result<(), IoError>;
}

/// Infallible [`RedoStore`] over raw backing bytes, bypassing devices and
/// timing. For unit tests and callers that have already absorbed faults.
pub struct DirectStore<'a>(pub &'a MemStore);

impl RedoStore for DirectStore<'_> {
    fn page_size(&self) -> usize {
        self.0.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.0.num_pages()
    }
    fn read(&mut self, pid: PageId, buf: &mut [u8]) -> Result<(), IoError> {
        self.0.read(pid, buf);
        Ok(())
    }
    fn write(&mut self, pid: PageId, data: &[u8]) -> Result<(), IoError> {
        self.0.write(pid, data);
        Ok(())
    }
}

/// Full result of a recovery pass.
#[derive(Debug, Default, Clone)]
pub struct RecoveryOutcome {
    /// Counters.
    pub stats: RecoveryStats,
    /// Pages whose disk image advanced during redo, ascending: their
    /// pre-crash SSD copies are stale and must not be warm-imported.
    pub redone: Vec<PageId>,
    /// The SSD buffer table embedded in the adopted checkpoint, if any.
    pub ssd_table: Option<Vec<(PageId, u64)>>,
    /// What the log scan found: tail condition, checkpoint adoption.
    pub report: LogScanReport,
}

/// How the durable-log scan went — the WAL half of a `RecoveryReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogScanReport {
    /// How the record stream ended.
    pub tail: LogTail,
    /// Bytes of durable log presented to the scan.
    pub log_bytes: usize,
    /// Bytes of cleanly decoded records — the trustworthy prefix. The
    /// caller should truncate the durable log to this length so future
    /// appends land after the last usable record.
    pub valid_len: usize,
    /// Checkpoint records decoded.
    pub checkpoints_seen: usize,
    /// Checkpoints rejected because their embedded `SsdTable` failed
    /// validation; the scan fell back to the previous complete checkpoint.
    pub checkpoints_rejected: usize,
    /// True when a (validated) checkpoint anchored replay; false means
    /// replay covered the whole retained log.
    pub used_checkpoint: bool,
}

impl Default for LogScanReport {
    fn default() -> Self {
        LogScanReport {
            tail: LogTail::Clean,
            log_bytes: 0,
            valid_len: 0,
            checkpoints_seen: 0,
            checkpoints_rejected: 0,
            used_checkpoint: false,
        }
    }
}

/// Outcome counters from a recovery pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records scanned after the last checkpoint.
    pub records_scanned: usize,
    /// Distinct committed transactions whose writes were redone.
    pub txns_redone: usize,
    /// Individual page-write records applied.
    pub writes_applied: usize,
    /// Page-write records skipped because their transaction never committed.
    pub writes_skipped: usize,
    /// Pages written back: each page with an applied record is read once,
    /// patched with all of its records, and written once.
    pub pages_written: usize,
}

/// Semantic validation of an embedded SSD buffer table: every frame in
/// range (when the geometry is known), no page listed twice, no frame
/// listed twice. A table that fails this check is garbage — adopting it
/// would seed the warm restart with lies — so its checkpoint is rejected.
fn table_valid(raw: &[[u8; TABLE_ENTRY_LEN]], ssd_frames: Option<u64>) -> bool {
    let mut pids: HashSet<u64> = HashSet::with_capacity(raw.len());
    let mut frames: HashSet<u64> = HashSet::with_capacity(raw.len());
    for (pid, frame) in table_entries(raw) {
        if let Some(n) = ssd_frames {
            if frame >= n {
                return false;
            }
        }
        if !pids.insert(pid) || !frames.insert(frame) {
            return false;
        }
    }
    true
}

/// What the verifying pass over the log established.
struct Scan<'a> {
    report: LogScanReport,
    /// Byte position replay starts from: just past the adopted checkpoint
    /// record, or 0 when no checkpoint anchors it.
    start: usize,
    /// Records from `start` to `report.valid_len`.
    records: usize,
    /// The adopted checkpoint's table, still in its encoded form.
    table: Option<&'a [[u8; TABLE_ENTRY_LEN]]>,
}

/// Pass 1: verify every record's trailer, classify the tail, and pick the
/// replay anchor — the last checkpoint whose embedded `SsdTable` (if any)
/// validates.
///
/// A checkpoint owns the last table written *since the previous
/// checkpoint* and nothing older: a table describes the SSD as of the
/// checkpoint it was flushed with. A checkpoint whose table fails
/// validation is rejected, and the anchor stays at the last accepted one.
///
/// A `PageWrite` that checksums but cannot be applied — its range runs off
/// the page, or its page is past the end of the database — ends the scan
/// exactly like a bad trailer: `Corrupt` at that record. Replay therefore
/// only ever sees records it can apply.
fn scan<'a>(log: &'a [u8], page_size: usize, num_pages: u64, ssd_frames: Option<u64>) -> Scan<'a> {
    let mut out = Scan {
        report: LogScanReport {
            log_bytes: log.len(),
            ..Default::default()
        },
        start: 0,
        records: 0,
        table: None,
    };
    let mut pending_table = None;
    let mut impossible = None;
    let mut reader = RecordReader::new(log);
    while let Some((pos, rec)) = reader.next() {
        match rec {
            RecordRef::PageWrite {
                pid, offset, data, ..
            } => {
                if pid.0 >= num_pages || offset as usize + data.len() > page_size {
                    impossible = Some(pos);
                    break;
                }
            }
            RecordRef::Commit { .. } => {}
            RecordRef::SsdTable { entries } => pending_table = Some(entries),
            RecordRef::Checkpoint => {
                out.report.checkpoints_seen += 1;
                let table = pending_table.take();
                if table.is_some_and(|t| !table_valid(t, ssd_frames)) {
                    out.report.checkpoints_rejected += 1;
                } else {
                    out.report.checkpoints_rejected = 0;
                    out.report.used_checkpoint = true;
                    out.table = table;
                    out.start = reader.valid_len();
                    out.records = 0;
                    continue;
                }
            }
        }
        out.records += 1;
    }
    (out.report.tail, out.report.valid_len) = match impossible {
        Some(at) => (LogTail::Corrupt { at }, at),
        None => (reader.tail(), reader.valid_len()),
    };
    out
}

/// Replay the durable log onto the persistent database.
///
/// Three passes, all over the log bytes where they lie. The first verifies
/// every record and picks the adopted checkpoint ([`scan`]); the second
/// collects the committed transactions of the suffix that follows it and
/// counts each page's writes; the third groups the *positions* of the
/// committed `PageWrite` records by page with a counting sort
/// ([`ByPage`]: each position goes to its page's cursor, in 4 bytes per
/// write and 8 per page, twice that for a suffix of 4 GiB or more) and
/// redoes each page once — one read, the page's after-images applied in
/// log order, one write — in ascending page order. Writes of
/// transactions without a commit record are losers (the crash interrupted
/// their commit before the log flush finished) and are skipped — which is
/// also correct, because commit-time publication means no page they
/// touched was ever dirtied in the buffer pool.
///
/// `ssd_frames` is the SSD geometry for validating embedded buffer tables
/// (`None` skips the range check). A checkpoint whose table fails
/// validation is rejected and the scan falls back to the previous complete
/// checkpoint; replaying a longer suffix is always safe because redo is
/// idempotent.
///
/// The SSD is deliberately *not* consulted: as in the paper (§6), no design
/// uses SSD contents at restart, so recovery sees only the disk image plus
/// the log. Under LC this is safe because every sharp checkpoint flushed all
/// SSD-dirty pages before writing its checkpoint record, and post-checkpoint
/// committed writes are all in the log suffix being replayed.
///
/// `Err` means a redo read or write failed permanently (after whatever
/// retry the [`RedoStore`] applies): the disk image is part-redone but the
/// log is untouched, so recovery can simply be run again — redo is
/// idempotent and convergent.
pub fn recover(
    log_bytes: &[u8],
    db: &mut dyn RedoStore,
    ssd_frames: Option<u64>,
) -> Result<RecoveryOutcome, IoError> {
    replay::<u32, u64>(log_bytes, db, ssd_frames, None)
}

/// Targeted live redo: rebuild the committed content of `pids` onto `db`
/// from the durable log tail, without touching any other page — the same
/// replay as [`recover`], restricted to those pages.
///
/// This is the WAL-tail salvage path of the fault-tolerance extension: under
/// lazy cleaning the SSD may hold the *only* current copy of a dirty page,
/// and if that copy becomes unreadable (checksum mismatch, device death) the
/// page is lost. Its committed content is still reconstructible, because
/// (a) the WAL protocol flushed the page's log records before the page ever
/// reached the SSD, and (b) every sharp checkpoint flushes all SSD-dirty
/// pages before truncating the log — so all writes newer than the disk
/// image sit in the post-checkpoint suffix replayed here.
///
/// Replay is restricted to committed transactions and is idempotent (byte
/// after-images applied in log order), so salvaging a page whose disk image
/// was already current is harmless. Returns the distinct pages restored;
/// `Err` means the disk tier itself failed mid-salvage.
pub fn salvage(
    log_bytes: &[u8],
    db: &mut dyn RedoStore,
    pids: &HashSet<PageId>,
) -> Result<usize, IoError> {
    if pids.is_empty() {
        return Ok(0);
    }
    Ok(replay::<u32, u64>(log_bytes, db, None, Some(pids))?
        .stats
        .pages_written)
}

/// The one replay routine: [`recover`] is `only = None`, [`salvage`] passes
/// the pages it wants. Redo stores log positions in the narrow width `N`
/// when the replayed suffix fits it and in the wide `W` otherwise; both
/// callers pass `u32` and `u64`.
fn replay<N: Width, W: Width>(
    log: &[u8],
    db: &mut dyn RedoStore,
    ssd_frames: Option<u64>,
    only: Option<&HashSet<PageId>>,
) -> Result<RecoveryOutcome, IoError> {
    let scan = scan(log, db.page_size(), db.num_pages(), ssd_frames);
    let suffix = &log[scan.start..scan.report.valid_len];
    let mut stats = RecoveryStats {
        records_scanned: scan.records,
        ..Default::default()
    };
    let redone = if N::of(suffix.len()).is_some() {
        redo::<N>(db, suffix, only, &mut stats)?
    } else {
        redo::<W>(db, suffix, only, &mut stats)?
    };
    Ok(RecoveryOutcome {
        stats,
        redone,
        ssd_table: scan
            .table
            .map(|t| table_entries(t).map(|(p, f)| (PageId(p), f)).collect()),
        report: scan.report,
    })
}

/// Passes 2 and 3 over `suffix`, the records after the anchor, with log
/// positions (counted from the suffix's start) and counts stored in `P`.
/// Pass 1 verified these bytes: no re-hash. Pass 2 collects the committed
/// transactions ([`Committed`]) and counts each wanted page's writes;
/// pass 3 indexes the committed ones by page ([`ByPage`]) and redoes each
/// page once, in ascending page order — one read, its after-images
/// applied in log order, one write. The order is part of the contract:
/// redo writes are crash boundaries and fault-plan draws, numbered in the
/// order issued. Returns the pages redone, ascending.
fn redo<P: Width>(
    db: &mut dyn RedoStore,
    suffix: &[u8],
    only: Option<&HashSet<PageId>>,
    stats: &mut RecoveryStats,
) -> Result<Vec<PageId>, IoError> {
    let records = || RecordReader::verified(suffix, 0);
    let wanted = |pid: PageId| only.is_none_or(|pids| pids.contains(&pid));
    let mut commits: Vec<TxId> = Vec::new();
    let mut counts = vec![P::ZERO; db.num_pages() as usize];
    for (_, rec) in records() {
        match rec {
            RecordRef::Commit { txid } => commits.push(txid),
            RecordRef::PageWrite { pid, .. } if wanted(pid) => {
                let n = &mut counts[pid.0 as usize];
                *n = *n + P::ONE;
            }
            _ => {}
        }
    }
    let committed = Committed::new(commits);
    let index = ByPage::build(
        counts,
        records().filter_map(|(pos, rec)| match rec {
            RecordRef::PageWrite { txid, pid, .. } if wanted(pid) && committed.contains(txid) => {
                Some((pid, pos))
            }
            _ => None,
        }),
    );
    stats.txns_redone = committed.len();
    drop(committed);

    let page_size = db.page_size();
    let mut page = vec![0u8; page_size];
    let mut redone = Vec::new();
    for (pid, run) in index.pages() {
        db.read(pid, &mut page)?;
        for pos in run {
            // Pass 3 parsed this very record at `pos` when it indexed it.
            if let Ok((RecordRef::PageWrite { offset, data, .. }, _)) =
                RecordRef::parse(&suffix[pos.get()..])
            {
                let off = offset as usize;
                debug_assert!(
                    off + data.len() <= page_size,
                    "pass 1 ends the log before a record that exceeds page bounds"
                );
                page[off..off + data.len()].copy_from_slice(data);
            }
        }
        db.write(pid, &page)?;
        stats.writes_applied += run.len();
        redone.push(pid);
    }
    stats.writes_skipped = index.at.len() - stats.writes_applied;
    stats.pages_written = redone.len();
    Ok(redone)
}

/// The committed transactions of a replayed suffix, which the placing
/// pass tests each write against: one bit per id from the lowest committed
/// id to the highest, or the ids sorted when that span is wider than
/// [`BITS_PER_COMMIT`] bits per commit (a sorted id costs 64 bits). Ids
/// rise with each begin, so the span is about the number of transactions
/// the suffix saw; one id far below the rest makes it wide.
enum Committed {
    Bits { lo: TxId, words: Vec<u64> },
    Sorted(Vec<TxId>),
}

/// The widest span kept as a bitmap, in bits per committed transaction.
const BITS_PER_COMMIT: u64 = 64;

impl Committed {
    /// The set of `ids`, in any order, a repeated id counted once.
    fn new(mut ids: Vec<TxId>) -> Self {
        let (Some(&lo), Some(&hi)) = (ids.iter().min(), ids.iter().max()) else {
            return Committed::Sorted(ids);
        };
        if hi - lo >= BITS_PER_COMMIT * ids.len() as u64 {
            ids.sort_unstable();
            ids.dedup();
            return Committed::Sorted(ids);
        }
        let mut words = vec![0u64; ((hi - lo) / 64 + 1) as usize];
        for bit in ids.into_iter().map(|id| id - lo) {
            words[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        Committed::Bits { lo, words }
    }

    fn contains(&self, id: TxId) -> bool {
        match self {
            Committed::Bits { lo, words } => id.checked_sub(*lo).is_some_and(|bit| {
                let word = words.get((bit / 64) as usize).copied().unwrap_or(0);
                word >> (bit % 64) & 1 == 1
            }),
            Committed::Sorted(ids) => ids.binary_search(&id).is_ok(),
        }
    }

    /// Distinct committed transactions.
    fn len(&self) -> usize {
        match self {
            Committed::Bits { words, .. } => words.iter().map(|w| w.count_ones() as usize).sum(),
            Committed::Sorted(ids) => ids.len(),
        }
    }
}

/// An unsigned integer width for [`ByPage`]: its log positions and its
/// per-page counts are stored in it.
trait Width: Copy + Add<Output = Self> {
    const ZERO: Self;
    const ONE: Self;
    /// `n` in this width, or `None` when it does not fit.
    fn of(n: usize) -> Option<Self>;
    fn get(self) -> usize;
}

macro_rules! width {
    ($($t:ty),*) => {$(
        impl Width for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            fn of(n: usize) -> Option<Self> {
                Self::try_from(n).ok()
            }
            fn get(self) -> usize {
                self as usize
            }
        }
    )*};
}

width!(u32, u64);
#[cfg(test)]
width!(u8);

/// The committed writes to redo, grouped by page with a counting sort.
/// Page `p` owns one slot per write it has in the suffix, from
/// `starts[p]` on; its committed writes' log positions fill
/// `at[starts[p]..ends[p]]` in log order, and a loser's slot stays empty.
/// One `P` per slot and two per database page, each allocated once.
struct ByPage<P> {
    starts: Vec<P>,
    ends: Vec<P>,
    at: Vec<P>,
}

impl<P: Width> ByPage<P> {
    /// Lay out `counts[p]` slots for each page `p`, then place each of the
    /// `committed` (page, position) pairs, which come in log order, at its
    /// page's cursor. Every position and the sum of `counts` fit in `P`.
    fn build(counts: Vec<P>, committed: impl Iterator<Item = (PageId, usize)>) -> Self {
        let mut starts = counts;
        let mut sum = P::ZERO;
        for n in &mut starts {
            (*n, sum) = (sum, sum + *n);
        }
        let mut ends = starts.clone();
        let mut at = vec![P::ZERO; sum.get()];
        for (pid, pos) in committed {
            let cursor = &mut ends[pid.0 as usize];
            at[cursor.get()] = P::of(pos).expect("the suffix fits the width");
            *cursor = *cursor + P::ONE;
        }
        ByPage { starts, ends, at }
    }

    /// Each page with committed writes, ascending, with their positions in
    /// log order.
    fn pages(&self) -> impl Iterator<Item = (PageId, &[P])> {
        let runs = self.starts.iter().zip(&self.ends).enumerate();
        runs.filter_map(|(p, (start, end))| {
            let run = &self.at[start.get()..end.get()];
            (!run.is_empty()).then_some((PageId(p as u64), run))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecord;
    use turbopool_iosim::{MemStore, PageId};

    fn encode(recs: &[LogRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in recs {
            r.encode(&mut buf);
        }
        buf
    }

    fn run(log: &[u8], db: &MemStore) -> RecoveryOutcome {
        recover(log, &mut DirectStore(db), None).unwrap()
    }

    #[test]
    fn redo_applies_committed_writes_in_order() {
        let db = MemStore::new(4, 16);
        let log = encode(&[
            LogRecord::PageWrite {
                txid: 1,
                pid: PageId(0),
                offset: 0,
                data: vec![1; 4],
            },
            LogRecord::PageWrite {
                txid: 1,
                pid: PageId(0),
                offset: 2,
                data: vec![2; 4],
            },
            LogRecord::Commit { txid: 1 },
        ]);
        let out = run(&log, &db);
        assert_eq!(out.stats.writes_applied, 2);
        assert_eq!(out.stats.txns_redone, 1);
        assert!(out.redone.contains(&PageId(0)));
        assert_eq!(out.report.tail, LogTail::Clean);
        assert_eq!(out.report.valid_len, log.len());
        let mut buf = [0u8; 16];
        db.read(PageId(0), &mut buf);
        assert_eq!(&buf[..6], &[1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn uncommitted_writes_are_skipped() {
        let db = MemStore::new(4, 16);
        let log = encode(&[
            LogRecord::PageWrite {
                txid: 7,
                pid: PageId(1),
                offset: 0,
                data: vec![9; 8],
            },
            // no Commit{7}
        ]);
        let out = run(&log, &db);
        assert_eq!(out.stats.writes_applied, 0);
        assert_eq!(out.stats.writes_skipped, 1);
        assert!(out.redone.is_empty());
        let mut buf = [0u8; 16];
        db.read(PageId(1), &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn replay_starts_after_last_checkpoint() {
        let db = MemStore::new(4, 16);
        let log = encode(&[
            LogRecord::PageWrite {
                txid: 1,
                pid: PageId(0),
                offset: 0,
                data: vec![5; 4],
            },
            LogRecord::Commit { txid: 1 },
            LogRecord::Checkpoint,
            LogRecord::PageWrite {
                txid: 2,
                pid: PageId(2),
                offset: 0,
                data: vec![6; 4],
            },
            LogRecord::Commit { txid: 2 },
        ]);
        let out = run(&log, &db);
        // Pre-checkpoint write is NOT replayed (it is on disk by contract).
        assert_eq!(out.stats.writes_applied, 1);
        assert!(out.report.used_checkpoint);
        assert_eq!(out.report.checkpoints_seen, 1);
        let mut buf = [0u8; 16];
        db.read(PageId(0), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        db.read(PageId(2), &mut buf);
        assert_eq!(&buf[..4], &[6; 4]);
    }

    #[test]
    fn commit_after_writes_of_other_txns_interleaved() {
        let db = MemStore::new(4, 8);
        let log = encode(&[
            LogRecord::PageWrite {
                txid: 1,
                pid: PageId(0),
                offset: 0,
                data: vec![1; 2],
            },
            LogRecord::PageWrite {
                txid: 2,
                pid: PageId(0),
                offset: 0,
                data: vec![2; 2],
            },
            LogRecord::Commit { txid: 2 },
            LogRecord::Commit { txid: 1 },
        ]);
        run(&log, &db);
        // Log order decides: txn 2's write happened after txn 1's.
        let mut buf = [0u8; 8];
        db.read(PageId(0), &mut buf);
        assert_eq!(&buf[..2], &[2, 2]);
    }

    #[test]
    fn empty_log_is_a_noop() {
        let db = MemStore::new(1, 8);
        let out = run(&[], &db);
        assert_eq!(out.stats, RecoveryStats::default());
        assert!(out.redone.is_empty());
        assert!(out.ssd_table.is_none());
        assert_eq!(out.report, LogScanReport::default());
    }

    #[test]
    fn ssd_table_attached_to_last_checkpoint_is_returned() {
        let db = MemStore::new(4, 8);
        let log = encode(&[
            LogRecord::SsdTable {
                entries: vec![(1, 10)],
            }, // stale (older ckpt)
            LogRecord::Checkpoint,
            LogRecord::SsdTable {
                entries: vec![(2, 20), (3, 21)],
            },
            LogRecord::Checkpoint,
            LogRecord::Commit { txid: 9 },
        ]);
        let out = run(&log, &db);
        assert_eq!(out.ssd_table, Some(vec![(PageId(2), 20), (PageId(3), 21)]));
        assert_eq!(out.report.checkpoints_seen, 2);
        assert_eq!(out.report.checkpoints_rejected, 0);
    }

    #[test]
    fn invalid_ssd_table_rejects_its_checkpoint() {
        let db = MemStore::new(4, 16);
        // First checkpoint: valid table. Second checkpoint: table with a
        // duplicate frame — semantically garbage even though the record
        // itself checksums fine. The scan must fall back to the first
        // checkpoint and replay the longer suffix.
        let log = encode(&[
            LogRecord::SsdTable {
                entries: vec![(1, 10)],
            },
            LogRecord::Checkpoint,
            LogRecord::PageWrite {
                txid: 3,
                pid: PageId(1),
                offset: 0,
                data: vec![7; 4],
            },
            LogRecord::Commit { txid: 3 },
            LogRecord::SsdTable {
                entries: vec![(2, 20), (3, 20)], // duplicate frame 20
            },
            LogRecord::Checkpoint,
        ]);
        let out = run(&log, &db);
        assert_eq!(out.report.checkpoints_rejected, 1);
        assert_eq!(out.ssd_table, Some(vec![(PageId(1), 10)]));
        // Replay anchored at the *first* checkpoint redoes txn 3.
        assert_eq!(out.stats.writes_applied, 1);
        let mut buf = [0u8; 16];
        db.read(PageId(1), &mut buf);
        assert_eq!(&buf[..4], &[7; 4]);
    }

    #[test]
    fn out_of_range_frame_rejects_the_table() {
        let db = MemStore::new(4, 8);
        let log = encode(&[
            LogRecord::SsdTable {
                entries: vec![(1, 99)],
            },
            LogRecord::Checkpoint,
        ]);
        // With known geometry (16 frames), frame 99 is impossible.
        let out = recover(&log, &mut DirectStore(&db), Some(16)).unwrap();
        assert_eq!(out.report.checkpoints_rejected, 1);
        assert!(out.ssd_table.is_none());
        assert!(!out.report.used_checkpoint);
        // Without geometry, the same table passes the range check.
        let out = recover(&log, &mut DirectStore(&db), None).unwrap();
        assert_eq!(out.report.checkpoints_rejected, 0);
    }

    #[test]
    fn corrupt_mid_log_stops_at_damage_and_reports() {
        let db = MemStore::new(4, 16);
        let mut log = encode(&[
            LogRecord::PageWrite {
                txid: 1,
                pid: PageId(0),
                offset: 0,
                data: vec![1; 4],
            },
            LogRecord::Commit { txid: 1 },
        ]);
        let first_two = log.len();
        log.extend(encode(&[
            LogRecord::PageWrite {
                txid: 2,
                pid: PageId(1),
                offset: 0,
                data: vec![2; 4],
            },
            LogRecord::Commit { txid: 2 },
        ]));
        // Flip a bit inside txn 2's page write.
        log[first_two + 5] ^= 0x01;
        let out = run(&log, &db);
        assert_eq!(out.report.tail, LogTail::Corrupt { at: first_two });
        assert_eq!(out.report.valid_len, first_two);
        // Txn 1 was replayed; txn 2 is unreachable.
        assert_eq!(out.stats.writes_applied, 1);
        let mut buf = [0u8; 16];
        db.read(PageId(1), &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn salvage_restores_only_the_requested_pages() {
        let db = MemStore::new(4, 16);
        let log = encode(&[
            LogRecord::PageWrite {
                txid: 1,
                pid: PageId(0),
                offset: 0,
                data: vec![1; 4],
            },
            LogRecord::PageWrite {
                txid: 1,
                pid: PageId(2),
                offset: 0,
                data: vec![3; 4],
            },
            LogRecord::Commit { txid: 1 },
            LogRecord::PageWrite {
                txid: 2,
                pid: PageId(0),
                offset: 2,
                data: vec![2; 2],
            },
            LogRecord::Commit { txid: 2 },
        ]);
        let want: HashSet<PageId> = [PageId(0)].into_iter().collect();
        assert_eq!(salvage(&log, &mut DirectStore(&db), &want).unwrap(), 1);
        let mut buf = [0u8; 16];
        db.read(PageId(0), &mut buf);
        assert_eq!(&buf[..4], &[1, 1, 2, 2], "both commits replayed in order");
        db.read(PageId(2), &mut buf);
        assert_eq!(buf, [0u8; 16], "page 2 untouched");
    }

    #[test]
    fn salvage_skips_uncommitted_writes_and_empty_sets() {
        let db = MemStore::new(4, 16);
        let log = encode(&[LogRecord::PageWrite {
            txid: 1,
            pid: PageId(0),
            offset: 0,
            data: vec![9; 4],
        }]);
        let want: HashSet<PageId> = [PageId(0)].into_iter().collect();
        assert_eq!(salvage(&log, &mut DirectStore(&db), &want).unwrap(), 0);
        assert_eq!(
            salvage(&log, &mut DirectStore(&db), &HashSet::new()).unwrap(),
            0
        );
        let mut buf = [0u8; 16];
        db.read(PageId(0), &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn salvage_is_idempotent_over_a_current_disk_image() {
        let db = MemStore::new(4, 16);
        let log = encode(&[
            LogRecord::PageWrite {
                txid: 1,
                pid: PageId(1),
                offset: 4,
                data: vec![7; 4],
            },
            LogRecord::Commit { txid: 1 },
        ]);
        let want: HashSet<PageId> = [PageId(1)].into_iter().collect();
        assert_eq!(salvage(&log, &mut DirectStore(&db), &want).unwrap(), 1);
        let mut first = [0u8; 16];
        db.read(PageId(1), &mut first);
        assert_eq!(salvage(&log, &mut DirectStore(&db), &want).unwrap(), 1);
        let mut second = [0u8; 16];
        db.read(PageId(1), &mut second);
        assert_eq!(first, second);
    }

    #[test]
    fn ssd_table_must_be_adjacent_to_its_checkpoint() {
        let db = MemStore::new(4, 8);
        // A table followed by unrelated records then a checkpoint: still
        // found (it belongs to the pre-checkpoint flush)...
        let log = encode(&[
            LogRecord::SsdTable {
                entries: vec![(5, 50)],
            },
            LogRecord::Checkpoint,
        ]);
        let out = run(&log, &db);
        assert_eq!(out.ssd_table, Some(vec![(PageId(5), 50)]));
    }

    #[test]
    fn a_checkpoint_owns_only_the_table_written_since_the_previous_one() {
        let db = MemStore::new(4, 8);
        // T1 describes the SSD as of the first checkpoint; the second
        // checkpoint was taken without a table and must not inherit it.
        let log = encode(&[
            LogRecord::SsdTable {
                entries: vec![(1, 10)],
            },
            LogRecord::Checkpoint,
            LogRecord::Checkpoint,
        ]);
        let out = run(&log, &db);
        assert_eq!(out.ssd_table, None);
        assert!(out.report.used_checkpoint);
        assert_eq!(out.report.checkpoints_seen, 2);
        assert_eq!(out.report.checkpoints_rejected, 0);
        assert_eq!(out.stats.records_scanned, 0);
    }

    #[test]
    fn a_record_that_checksums_but_cannot_be_applied_ends_the_log_as_corrupt() {
        const PAGE: usize = 16;
        const PAGES: u64 = 4;
        let good = encode(&[
            LogRecord::PageWrite {
                txid: 1,
                pid: PageId(0),
                offset: 0,
                data: vec![1; 4],
            },
            LogRecord::Commit { txid: 1 },
        ]);
        let after = encode(&[LogRecord::Commit { txid: 2 }]);
        // Both carry the trailer `encode` computed: only their content is
        // impossible.
        let off_the_page = LogRecord::PageWrite {
            txid: 2,
            pid: PageId(1),
            offset: PAGE as u32 - 1,
            data: vec![9; 8],
        };
        let past_the_database = LogRecord::PageWrite {
            txid: 2,
            pid: PageId(PAGES),
            offset: 0,
            data: vec![9; 8],
        };
        for bad in [off_the_page, past_the_database] {
            let db = MemStore::new(PAGES, PAGE);
            let log = [good.clone(), encode(&[bad]), after.clone()].concat();
            let out = run(&log, &db);
            assert_eq!(out.report.tail, LogTail::Corrupt { at: good.len() });
            assert_eq!(out.report.valid_len, good.len());
            // The prefix is replayed; the record and everything behind it
            // are not (txn 2 "committed" only past the damage).
            assert_eq!(out.stats.records_scanned, 2);
            assert_eq!(out.stats.writes_applied, 1);
            assert_eq!(out.stats.txns_redone, 1);
            let mut buf = [0u8; PAGE];
            db.read(PageId(0), &mut buf);
            assert_eq!(&buf[..4], &[1; 4]);
            db.read(PageId(1), &mut buf);
            assert_eq!(buf, [0u8; PAGE]);
            // Salvage sees the same log the same way.
            let want: HashSet<PageId> = [PageId(0), PageId(1), PageId(PAGES)].into();
            assert_eq!(salvage(&log, &mut DirectStore(&db), &want).unwrap(), 1);
        }
    }

    #[test]
    fn a_huge_length_field_in_a_short_buffer_is_a_torn_tail() {
        let db = MemStore::new(4, 16);
        let good = encode(&[LogRecord::Commit { txid: 1 }]);
        // A page-write header claiming 4 GiB of data, followed by a few
        // bytes: the stream ends inside the record. Nothing that size is
        // allocated on the way to finding that out.
        let mut log = good.clone();
        log.push(1);
        log.extend_from_slice(&7u64.to_le_bytes());
        log.extend_from_slice(&0u64.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0xEE; 40]);
        let out = run(&log, &db);
        assert_eq!(out.report.tail, LogTail::Torn { at: good.len() });
        assert_eq!(out.report.valid_len, good.len());
        assert_eq!(out.stats.records_scanned, 1);
        // The same for a table claiming 2^32 - 1 entries.
        let mut log = good.clone();
        log.push(4);
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0xEE; 40]);
        assert_eq!(run(&log, &db).report.tail, LogTail::Torn { at: good.len() });
    }

    #[test]
    fn each_page_is_written_once_however_many_records_it_has() {
        let db = MemStore::new(4, 16);
        let write = |txid, pid, offset, byte| LogRecord::PageWrite {
            txid,
            pid: PageId(pid),
            offset,
            data: vec![byte; 4],
        };
        let log = encode(&[
            write(1, 2, 0, 1),
            write(1, 0, 0, 2),
            write(2, 2, 2, 3),
            LogRecord::Commit { txid: 1 },
            write(2, 2, 12, 4),
            LogRecord::Commit { txid: 2 },
        ]);
        let out = run(&log, &db);
        assert_eq!(out.stats.writes_applied, 4);
        assert_eq!(out.stats.pages_written, 2);
        assert_eq!(out.redone.len(), 2);
        let mut buf = [0u8; 16];
        db.read(PageId(2), &mut buf);
        assert_eq!(buf, [1, 1, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4]);
    }

    #[test]
    fn the_committed_set_is_a_bitmap_over_its_span() {
        let set = Committed::new(vec![75, 10, 12, 75]);
        assert!(matches!(set, Committed::Bits { lo: 10, .. }));
        let want = [10, 12, 75];
        for id in [0, 9, 10, 11, 12, 13, 63, 64, 74, 75, 76, 128, u64::MAX] {
            assert_eq!(set.contains(id), want.contains(&id), "id {id}");
        }
        assert_eq!(set.len(), 3, "a repeated commit counts once");
        assert_eq!(Committed::new(Vec::new()).len(), 0);
    }

    /// One committed id far below the rest: a bitmap over the span would
    /// cost a bit per id between, so the ids are kept sorted instead, and
    /// redo applies exactly the committed writes either way.
    #[test]
    fn a_committed_id_far_below_the_rest_is_kept_sorted() {
        let far = 1_000_000u64;
        let ids: Vec<TxId> = (far..far + 10).chain([3]).collect();
        let set = Committed::new(ids.clone());
        assert!(matches!(set, Committed::Sorted(_)));
        for id in [2, 3, 4, far - 1, far, far + 9, far + 10] {
            assert_eq!(set.contains(id), ids.contains(&id), "id {id}");
        }

        let db = MemStore::new(4, 16);
        let write = |txid: TxId, pid| LogRecord::PageWrite {
            txid,
            pid: PageId(pid),
            offset: (txid % 12) as u32,
            data: vec![txid as u8 | 1; 4],
        };
        let mut log = vec![write(3, 0), write(far / 2, 1)];
        for txid in far..far + 10 {
            log.extend([write(txid, 1 + txid % 3), LogRecord::Commit { txid }]);
        }
        log.push(LogRecord::Commit { txid: 3 });
        let out = run(&encode(&log), &db);
        assert_eq!(out.stats.txns_redone, 11);
        assert_eq!(
            (out.stats.writes_applied, out.stats.writes_skipped),
            (11, 1)
        );
        let mut buf = [0u8; 16];
        db.read(PageId(0), &mut buf);
        assert_eq!(
            buf[3..7],
            [3; 4],
            "the lowest committed id's write is redone"
        );
    }

    #[test]
    fn the_index_groups_positions_by_page_in_log_order() {
        // Page 2 has a fourth write, a loser's: its slot stays empty.
        let counts = vec![1, 0, 4, 1, 0];
        let committed = [(2, 0), (0, 10), (2, 20), (3, 30), (2, 255)];
        let index =
            ByPage::<u8>::build(counts, committed.map(|(p, at)| (PageId(p), at)).into_iter());
        let pages: Vec<(PageId, Vec<u8>)> = index
            .pages()
            .map(|(pid, run)| (pid, run.to_vec()))
            .collect();
        let want = [(0, vec![10]), (2, vec![0, 20, 255]), (3, vec![30])];
        assert_eq!(pages, want.map(|(p, run)| (PageId(p), run)));
    }

    #[test]
    fn a_suffix_too_long_for_the_narrow_width_is_indexed_in_the_wide_one() {
        let mut recs = Vec::new();
        for txid in 0..20u64 {
            recs.push(LogRecord::PageWrite {
                txid,
                pid: PageId(txid % 3),
                offset: (txid % 13) as u32,
                data: vec![txid as u8; 3],
            });
            recs.push(LogRecord::Commit { txid });
        }
        let long = encode(&recs);
        let short = encode(&recs[..8]);
        assert!(short.len() <= u8::MAX as usize && long.len() > u8::MAX as usize);
        for log in [short, long] {
            let (narrow, wide) = (MemStore::new(4, 16), MemStore::new(4, 16));
            let got = replay::<u8, u32>(&log, &mut DirectStore(&narrow), None, None).unwrap();
            let want = run(&log, &wide);
            assert_eq!(got.stats, want.stats);
            assert_eq!(got.redone, want.redone);
            let (mut a, mut b) = ([0u8; 16], [0u8; 16]);
            for p in 0..4 {
                narrow.read(PageId(p), &mut a);
                wide.read(PageId(p), &mut b);
                assert_eq!(a, b, "page {p}");
            }
        }
    }

    #[test]
    fn recovery_is_reentrant_after_a_failed_pass() {
        // A store that fails its first N writes models recovery crashing
        // mid-redo: rerunning recover on the same (partial) image must
        // converge to the same final state.
        struct Flaky<'a> {
            inner: &'a MemStore,
            failures_left: usize,
        }
        impl RedoStore for Flaky<'_> {
            fn page_size(&self) -> usize {
                self.inner.page_size()
            }
            fn num_pages(&self) -> u64 {
                self.inner.num_pages()
            }
            fn read(&mut self, pid: PageId, buf: &mut [u8]) -> Result<(), IoError> {
                self.inner.read(pid, buf);
                Ok(())
            }
            fn write(&mut self, pid: PageId, data: &[u8]) -> Result<(), IoError> {
                if self.failures_left > 0 {
                    self.failures_left -= 1;
                    return Err(IoError::new(
                        turbopool_iosim::FaultDevice::Disk,
                        turbopool_iosim::IoErrorKind::DeviceDead,
                        0,
                    ));
                }
                self.inner.write(pid, data);
                Ok(())
            }
        }
        let log = encode(&[
            LogRecord::PageWrite {
                txid: 1,
                pid: PageId(0),
                offset: 0,
                data: vec![1; 4],
            },
            LogRecord::Commit { txid: 1 },
            LogRecord::PageWrite {
                txid: 2,
                pid: PageId(1),
                offset: 0,
                data: vec![2; 4],
            },
            LogRecord::Commit { txid: 2 },
        ]);
        let db = MemStore::new(4, 16);
        let mut flaky = Flaky {
            inner: &db,
            failures_left: 2,
        };
        // First and second passes die mid-redo; the third converges.
        assert!(recover(&log, &mut flaky, None).is_err());
        assert!(recover(&log, &mut flaky, None).is_err());
        let out = recover(&log, &mut flaky, None).unwrap();
        assert_eq!(out.stats.writes_applied, 2);
        let mut buf = [0u8; 16];
        db.read(PageId(0), &mut buf);
        assert_eq!(&buf[..4], &[1; 4]);
        db.read(PageId(1), &mut buf);
        assert_eq!(&buf[..4], &[2; 4]);
    }
}
