//! Replay against the code it replaced, and against damaged logs.
//!
//! [`recover_reference`] is the previous `recover` — every record decoded
//! into an owned [`LogRecord`], one read-modify-write per applied record —
//! kept as the oracle. Seeded well-formed logs must replay identically
//! through both; seeded structure-aware mutations of those logs (bit flips,
//! truncations, spliced records, field edits with the trailer recomputed)
//! must never panic the new one, must classify, and must converge.

use std::collections::HashSet;

use turbopool_iosim::fault::checksum;
use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool_iosim::{FaultDevice, IoError, IoErrorKind, MemStore, PageId, PageStore};

use crate::record::{decode_all, LogRecord, LogTail, RecordReader, RecordRef, CHECKSUM_LEN};
use crate::recovery::{
    recover, salvage, DirectStore, LogScanReport, RecoveryOutcome, RecoveryStats, RedoStore,
};
use crate::TxId;

/// Small enough that hot pages see many overlapping ranges, odd enough
/// that nothing lines up with a record header.
const PAGE: usize = 48;
const PAGES: u64 = 12;
const SSD_FRAMES: u64 = 16;

// ---------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------

fn table_valid_reference(entries: &[(u64, u64)], ssd_frames: Option<u64>) -> bool {
    let mut pids: HashSet<u64> = HashSet::new();
    let mut frames: HashSet<u64> = HashSet::new();
    entries.iter().all(|&(pid, frame)| {
        ssd_frames.is_none_or(|n| frame < n) && pids.insert(pid) && frames.insert(frame)
    })
}

/// `(start_index, ssd_table, checkpoints_seen, checkpoints_rejected)`.
type Anchor = (usize, Option<Vec<(PageId, u64)>>, usize, usize);

/// The last checkpoint, scanning backwards, whose table (the last one
/// written since the checkpoint before it) validates.
fn find_anchor_reference(records: &[LogRecord], ssd_frames: Option<u64>) -> Anchor {
    let ckpts: Vec<usize> = (0..records.len())
        .filter(|&i| records[i] == LogRecord::Checkpoint)
        .collect();
    let mut rejected = 0;
    for &i in ckpts.iter().rev() {
        let table = records[..i]
            .iter()
            .rev()
            .take_while(|r| **r != LogRecord::Checkpoint)
            .find_map(|r| match r {
                LogRecord::SsdTable { entries } => Some(entries),
                _ => None,
            });
        match table {
            Some(entries) if !table_valid_reference(entries, ssd_frames) => rejected += 1,
            _ => {
                let t = table.map(|e| e.iter().map(|&(p, f)| (PageId(p), f)).collect());
                return (i + 1, t, ckpts.len(), rejected);
            }
        }
    }
    (0, None, ckpts.len(), rejected)
}

/// The record-at-a-time `recover` that the page-at-a-time one replaced.
fn recover_reference(
    log_bytes: &[u8],
    db: &mut dyn RedoStore,
    ssd_frames: Option<u64>,
) -> Result<RecoveryOutcome, IoError> {
    let decoded = decode_all(log_bytes);
    let records = decoded.records;
    let (start, ssd_table, seen, rejected) = find_anchor_reference(&records, ssd_frames);
    let tail = &records[start..];
    let committed: HashSet<TxId> = tail
        .iter()
        .filter_map(|r| match r {
            LogRecord::Commit { txid } => Some(*txid),
            _ => None,
        })
        .collect();
    let mut stats = RecoveryStats {
        records_scanned: tail.len(),
        txns_redone: committed.len(),
        ..Default::default()
    };
    let mut redone = HashSet::new();
    let mut page = vec![0u8; db.page_size()];
    for rec in tail {
        if let LogRecord::PageWrite {
            txid,
            pid,
            offset,
            data,
        } = rec
        {
            if !committed.contains(txid) {
                stats.writes_skipped += 1;
                continue;
            }
            let off = *offset as usize;
            db.read(*pid, &mut page)?;
            page[off..off + data.len()].copy_from_slice(data);
            db.write(*pid, &page)?;
            stats.writes_applied += 1;
            redone.insert(*pid);
        }
    }
    Ok(RecoveryOutcome {
        stats,
        redone,
        ssd_table,
        report: LogScanReport {
            tail: decoded.tail,
            log_bytes: log_bytes.len(),
            valid_len: decoded.valid_len,
            checkpoints_seen: seen,
            checkpoints_rejected: rejected,
            used_checkpoint: start > 0,
        },
    })
}

// ---------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------

/// A store whose pages start as seeded noise, so a range applied at the
/// wrong offset or a page written from the wrong base shows.
fn noisy_store(seed: u64) -> MemStore {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5707E);
    let db = MemStore::new(PAGES, PAGE);
    for p in 0..PAGES {
        let page: Vec<u8> = (0..PAGE).map(|_| rng.gen()).collect();
        db.write(PageId(p), &page);
    }
    db
}

fn image(db: &MemStore) -> Vec<Vec<u8>> {
    (0..PAGES)
        .map(|p| db.read_buf(PageId(p)).to_vec())
        .collect()
}

/// Records the pages written, in order, and fails write number `fail_at`.
struct Observed<'a> {
    inner: &'a MemStore,
    writes: Vec<PageId>,
    fail_at: Option<usize>,
}

impl<'a> Observed<'a> {
    fn new(inner: &'a MemStore, fail_at: Option<usize>) -> Self {
        Observed {
            inner,
            writes: Vec::new(),
            fail_at,
        }
    }
}

impl RedoStore for Observed<'_> {
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
        if self.fail_at == Some(self.writes.len()) {
            return Err(IoError::new(FaultDevice::Disk, IoErrorKind::DeviceDead, 0));
        }
        self.writes.push(pid);
        self.inner.write(pid, data);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Well-formed logs
// ---------------------------------------------------------------------

fn gen_write(rng: &mut SmallRng, txid: TxId) -> LogRecord {
    // Half the writes land on two hot pages: repeated and overlapping
    // ranges, many records per page.
    let pid = if rng.gen_bool(0.5) {
        rng.gen_range(0u64..2)
    } else {
        rng.gen_range(0..PAGES)
    };
    let len = match rng.gen_range(0u32..10) {
        0 => PAGE,
        1 => 0,
        _ => rng.gen_range(1usize..=20),
    };
    let offset = match rng.gen_range(0u32..4) {
        0 => 0,
        1 => PAGE - len,
        _ => rng.gen_range(0..=PAGE - len),
    };
    LogRecord::PageWrite {
        txid,
        pid: PageId(pid),
        offset: offset as u32,
        data: (0..len).map(|_| rng.gen()).collect(),
    }
}

/// A checkpoint: bare, with a valid table, with each kind of invalid one,
/// or with a valid table that other records separate from it.
fn gen_checkpoint(rng: &mut SmallRng, recs: &mut Vec<LogRecord>, next_tx: &mut TxId) {
    let n = rng.gen_range(1u64..6);
    let mut entries: Vec<(u64, u64)> = (0..n).map(|i| (i * 2 + 1, SSD_FRAMES - 1 - i)).collect();
    match rng.gen_range(0u32..8) {
        0..=2 => entries.clear(),
        3 | 4 => {}
        5 => entries.push((99, entries[0].1)), // a frame twice
        6 => entries.push((entries[0].0, 0)),  // a page twice
        _ => entries[0].1 = SSD_FRAMES,        // a frame past the SSD
    }
    let bare = entries.is_empty() && rng.gen_bool(0.8);
    if !bare {
        recs.push(LogRecord::SsdTable { entries });
        if rng.gen_ratio(1, 4) {
            recs.push(LogRecord::Commit { txid: *next_tx });
            *next_tx += 1;
        }
    }
    recs.push(LogRecord::Checkpoint);
}

/// Interleaved transactions (up to four open at once), some never
/// committed, and zero to three checkpoints.
fn gen_records(rng: &mut SmallRng) -> Vec<LogRecord> {
    let mut recs = Vec::new();
    let mut open: Vec<TxId> = Vec::new();
    let mut next_tx: TxId = 1;
    let mut checkpoints_left = rng.gen_range(0u32..4);
    let n = rng.gen_range(10usize..90);
    while recs.len() < n {
        match rng.gen_range(0u32..20) {
            0..=2 if open.len() < 4 => {
                open.push(next_tx);
                next_tx += 1;
            }
            3..=5 if !open.is_empty() => {
                let txid = open.swap_remove(rng.gen_range(0..open.len()));
                recs.push(LogRecord::Commit { txid });
            }
            6 if checkpoints_left > 0 => {
                checkpoints_left -= 1;
                gen_checkpoint(rng, &mut recs, &mut next_tx);
            }
            _ if !open.is_empty() => {
                let txid = open[rng.gen_range(0..open.len())];
                recs.push(gen_write(rng, txid));
            }
            _ => {}
        }
    }
    recs
}

/// The encoded log and the byte position of every record boundary
/// (record starts, then the log's length).
fn encode(recs: &[LogRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut log = Vec::new();
    let mut bounds = vec![0];
    for r in recs {
        r.encode(&mut log);
        bounds.push(log.len());
    }
    (log, bounds)
}

/// New and reference replay agree on everything the old one reported, and
/// the new one writes each redone page once, in ascending page order.
fn check_against_reference(seed: u64, log: &[u8]) -> RecoveryOutcome {
    let (new_db, ref_db) = (noisy_store(seed), noisy_store(seed));
    let mut observed = Observed::new(&new_db, None);
    let new = recover(log, &mut observed, Some(SSD_FRAMES)).unwrap();
    let old = recover_reference(log, &mut DirectStore(&ref_db), Some(SSD_FRAMES)).unwrap();
    assert_eq!(image(&new_db), image(&ref_db), "seed {seed}: store bytes");
    assert_eq!(
        RecoveryStats {
            pages_written: 0,
            ..new.stats
        },
        old.stats,
        "seed {seed}"
    );
    assert_eq!(new.report, old.report, "seed {seed}");
    assert_eq!(new.ssd_table, old.ssd_table, "seed {seed}");
    assert_eq!(new.redone, old.redone, "seed {seed}");
    assert_eq!(new.stats.pages_written, new.redone.len(), "seed {seed}");
    assert_eq!(observed.writes.len(), new.stats.pages_written);
    assert!(
        observed.writes.windows(2).all(|w| w[0] < w[1]),
        "seed {seed}: page writes not strictly ascending: {:?}",
        observed.writes
    );
    new
}

/// Recovery interrupted at its k-th page write, for every k, then rerun:
/// the same final image as an uninterrupted pass.
fn check_reentrant(seed: u64, log: &[u8], pages_written: usize) {
    let clean = noisy_store(seed);
    recover(log, &mut DirectStore(&clean), Some(SSD_FRAMES)).unwrap();
    for k in 0..pages_written {
        let db = noisy_store(seed);
        let mut failing = Observed::new(&db, Some(k));
        assert!(recover(log, &mut failing, Some(SSD_FRAMES)).is_err());
        assert_eq!(failing.writes.len(), k);
        recover(log, &mut DirectStore(&db), Some(SSD_FRAMES)).unwrap();
        assert_eq!(image(&db), image(&clean), "seed {seed}: failed write {k}");
    }
}

// ---------------------------------------------------------------------
// Damaged logs
// ---------------------------------------------------------------------

/// Recompute the trailer of the record that now parses at `at`, if one
/// does and its trailer lies inside the buffer: the mutation then passes
/// the checksum and has to be caught — or replayed — on its content.
fn reseal(log: &mut [u8], at: usize) {
    if let Ok((_, total)) = RecordRef::parse(&log[at..]) {
        let body_end = at + total - CHECKSUM_LEN;
        let sum = checksum(&log[at..body_end]);
        log[body_end..at + total].copy_from_slice(&sum.to_le_bytes());
    }
}

/// One structure-aware mutation of a well-formed log.
fn mutate(rng: &mut SmallRng, log: &[u8], bounds: &[usize]) -> Vec<u8> {
    let mut out = log.to_vec();
    let nrec = bounds.len() - 1;
    let i = rng.gen_range(0..nrec);
    let rec = bounds[i]..bounds[i + 1];
    let is_write = log[rec.start] == 1;
    match rng.gen_range(0u32..9) {
        0 => out[rng.gen_range(0..log.len())] ^= 1 << rng.gen_range(0u32..8),
        1 => drop(out.drain(rec)),
        2 | 3 => {
            // Duplicate (2) or move (3) record i to another boundary.
            let bytes = log[rec.clone()].to_vec();
            let to = bounds[rng.gen_range(0..bounds.len())];
            out.splice(to..to, bytes);
            if rng.gen_bool(0.5) {
                let shift = if to <= rec.start { rec.len() } else { 0 };
                out.drain(rec.start + shift..rec.end + shift);
            }
        }
        4 if is_write => {
            let len = u32::from_le_bytes(log[rec.start + 21..rec.start + 25].try_into().unwrap());
            let new = match rng.gen_range(0u32..5) {
                0 => 0,
                1 => len.wrapping_sub(1),
                2 => len + 1,
                3 => PAGE as u32 + 1,
                _ => u32::MAX,
            };
            out[rec.start + 21..rec.start + 25].copy_from_slice(&new.to_le_bytes());
            reseal(&mut out, rec.start);
        }
        5 if is_write => {
            let new = match rng.gen_range(0u32..4) {
                0 => PAGE as u32 - 1,
                1 => PAGE as u32,
                2 => u32::MAX,
                _ => rng.gen_range(0..PAGE as u32),
            };
            out[rec.start + 17..rec.start + 21].copy_from_slice(&new.to_le_bytes());
            reseal(&mut out, rec.start);
        }
        6 if is_write => {
            let new = match rng.gen_range(0u32..4) {
                0 => PAGES,
                1 => PAGES - 1,
                2 => u64::MAX,
                _ => rng.gen_range(0..2 * PAGES),
            };
            out[rec.start + 9..rec.start + 17].copy_from_slice(&new.to_le_bytes());
            reseal(&mut out, rec.start);
        }
        _ => {
            out[rec.start] = rng.gen_range(0u8..6);
            reseal(&mut out, rec.start);
        }
    }
    out
}

/// What must hold of replay over *any* bytes.
fn check_damaged(rng: &mut SmallRng, seed: u64, log: &[u8]) {
    let db = noisy_store(seed);
    let out = recover(log, &mut DirectStore(&db), Some(SSD_FRAMES)).unwrap();
    let LogScanReport {
        tail, valid_len, ..
    } = out.report;
    match tail {
        LogTail::Clean => assert_eq!(valid_len, log.len()),
        LogTail::Torn { at } | LogTail::Corrupt { at } => {
            assert_eq!(valid_len, at);
            assert!(at < log.len());
        }
    }
    let mut reader = RecordReader::new(log);
    let boundary = reader.by_ref().any(|(pos, _)| pos == valid_len);
    assert!(
        boundary || reader.valid_len() == valid_len,
        "seed {seed}: valid_len {valid_len} is inside a record"
    );

    // Idempotent: a second pass over the repaired log changes nothing.
    // Convergent: so does a first pass over it from the original image.
    let after = image(&db);
    for store in [db, noisy_store(seed)] {
        let again = recover(
            &log[..valid_len],
            &mut DirectStore(&store),
            Some(SSD_FRAMES),
        )
        .unwrap();
        assert_eq!(again.report.tail, LogTail::Clean, "seed {seed}");
        assert_eq!(again.stats, out.stats, "seed {seed}");
        assert_eq!(image(&store), after, "seed {seed}");
    }

    // Salvage is recovery restricted to the pages asked for (it validates
    // tables without the SSD geometry, so compare like with like).
    let full = noisy_store(seed);
    let all = recover(log, &mut DirectStore(&full), None).unwrap();
    let want: HashSet<PageId> = (0..PAGES + 2)
        .filter(|_| rng.gen_ratio(1, 3))
        .map(PageId)
        .collect();
    let partial = noisy_store(seed);
    let restored = salvage(log, &mut DirectStore(&partial), &want).unwrap();
    assert_eq!(restored, all.redone.intersection(&want).count());
    let (full, base, partial) = (image(&full), image(&noisy_store(seed)), image(&partial));
    for p in 0..PAGES as usize {
        let expect = if want.contains(&PageId(p as u64)) {
            &full[p]
        } else {
            &base[p]
        };
        assert_eq!(&partial[p], expect, "seed {seed}: page {p}");
    }
}

fn fuzz(seeds: std::ops::Range<u64>, mutants_per_log: usize) {
    for seed in seeds {
        let mut rng = SmallRng::seed_from_u64(0xF022 ^ seed);
        let (log, bounds) = encode(&gen_records(&mut rng));
        let out = check_against_reference(seed, &log);
        assert_eq!(out.report.tail, LogTail::Clean);
        check_reentrant(seed, &log, out.stats.pages_written);
        // A cut at every byte of the last three records...
        let last_three = bounds[bounds.len().saturating_sub(4)];
        for cut in last_three..log.len() {
            check_damaged(&mut rng, seed, &log[..cut]);
        }
        // ...and seeded damage anywhere.
        for _ in 0..mutants_per_log {
            let damaged = mutate(&mut rng, &log, &bounds);
            check_damaged(&mut rng, seed, &damaged);
        }
    }
}

#[test]
fn replay_matches_the_reference_and_survives_mutation() {
    fuzz(0..40, 60);
}

/// The same properties over many more logs; `scripts/check.sh` runs it in
/// release mode.
#[test]
#[ignore = "long variant: cargo test --release -p turbopool-wal -- --ignored"]
fn replay_matches_the_reference_and_survives_mutation_long() {
    fuzz(1_000..2_000, 300);
}
