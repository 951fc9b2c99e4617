//! Log record types and their binary encoding.
//!
//! Every record is framed as `body ++ fnv1a64(body)`: an 8-byte checksum
//! trailer over the record's own bytes. The trailer is what lets a
//! recovery scan tell a *torn tail* (the stream ends inside a record —
//! the crash interrupted the last log flush; truncate and proceed) from
//! *mid-log corruption* (the bytes are all there but the checksum does
//! not match — damaged media; stop and report loudly).

use turbopool_iosim::{fault, PageId};

use crate::TxId;

/// A single log record.
///
/// The log is redo-only: `PageWrite` records carry after-images of the byte
/// range a committed transaction changed, and `Commit` makes all preceding
/// `PageWrite`s of that transaction durable. `Checkpoint` marks a completed
/// sharp checkpoint — everything before it is already on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// After-image of `data.len()` bytes at `offset` within page `pid`,
    /// written by transaction `txid`.
    PageWrite {
        txid: TxId,
        pid: PageId,
        offset: u32,
        data: Vec<u8>,
    },
    /// Transaction `txid` committed; its page writes must be redone.
    Commit { txid: TxId },
    /// A completed sharp checkpoint. Redo never needs to look further back.
    Checkpoint,
    /// The SSD buffer table as of the checkpoint this record precedes:
    /// `(page id, SSD frame)` pairs for every (clean) cached page. Written
    /// only when warm restart is enabled — the extension the paper
    /// sketches in §4.1/§6 ("adding the SSD buffer table data structure
    /// ... to the checkpoint record").
    SsdTable { entries: Vec<(u64, u64)> },
}

const TAG_PAGE_WRITE: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;
const TAG_SSD_TABLE: u8 = 4;

/// Bytes of the per-record FNV-1a-64 checksum trailer.
pub const CHECKSUM_LEN: usize = 8;

/// Why a record could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends inside the record: a torn tail after a crash.
    Incomplete,
    /// The bytes are structurally complete but wrong: unknown tag or
    /// checksum mismatch. The log is damaged at this point.
    Corrupt,
}

/// How a full-log scan ended. Offsets are byte positions into the scanned
/// buffer — everything before the offset decoded cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogTail {
    /// Every byte decoded: the log ends exactly on a record boundary.
    Clean,
    /// The stream ends inside a record at `at` — the torn tail of an
    /// interrupted flush. Safe to truncate at `at` and proceed.
    Torn { at: usize },
    /// Undecodable bytes at `at` with more bytes following: mid-log
    /// corruption. Records beyond `at` are unreachable (the stream has no
    /// out-of-band framing to resynchronize on) and recovery must report
    /// the damage instead of silently proceeding.
    Corrupt { at: usize },
}

impl LogTail {
    /// True when the scan needs to be surfaced to an operator: some bytes
    /// in the durable log could not be used.
    pub fn is_damaged(&self) -> bool {
        !matches!(self, LogTail::Clean)
    }
}

/// Result of scanning a byte stream for records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// Records decoded, in stream order, up to the end/torn/corrupt point.
    pub records: Vec<LogRecord>,
    /// How the scan ended.
    pub tail: LogTail,
    /// Bytes consumed by cleanly decoded records: the prefix of the buffer
    /// that is trustworthy (equals the tail offset for `Torn`/`Corrupt`,
    /// the buffer length for `Clean`).
    pub valid_len: usize,
}

/// A log record read in place: the variants of [`LogRecord`], with the
/// variable-length payloads borrowed from the log bytes instead of copied
/// out of them. This is the one decoder; [`LogRecord::decode`] is
/// [`RecordRef::decode`] followed by [`RecordRef::to_owned`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordRef<'a> {
    PageWrite {
        txid: TxId,
        pid: PageId,
        offset: u32,
        data: &'a [u8],
    },
    Commit {
        txid: TxId,
    },
    Checkpoint,
    /// The table's `(page id, SSD frame)` pairs as encoded: 16 bytes each,
    /// two little-endian `u64`s. [`table_entries`] decodes them.
    SsdTable {
        entries: &'a [[u8; TABLE_ENTRY_LEN]],
    },
}

/// Bytes of one encoded `SsdTable` entry.
pub const TABLE_ENTRY_LEN: usize = 16;

/// Decode the `(page id, SSD frame)` pairs of a borrowed `SsdTable`.
pub fn table_entries(raw: &[[u8; TABLE_ENTRY_LEN]]) -> impl Iterator<Item = (u64, u64)> + '_ {
    raw.iter().map(|e| (le_u64(&e[..8]), le_u64(&e[8..])))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("caller slices eight bytes"))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("caller slices four bytes"))
}

impl<'a> RecordRef<'a> {
    /// Decode one record from the front of `buf` and verify its checksum
    /// trailer, returning the record and the bytes consumed (body +
    /// trailer). Never panics and never allocates, whatever `buf` holds: a
    /// length field that runs past the buffer is [`DecodeError::Incomplete`].
    pub fn decode(buf: &'a [u8]) -> Result<(RecordRef<'a>, usize), DecodeError> {
        let (rec, total) = Self::parse(buf)?;
        let body_len = total - CHECKSUM_LEN;
        if fault::checksum(&buf[..body_len]) != le_u64(&buf[body_len..total]) {
            return Err(DecodeError::Corrupt);
        }
        Ok((rec, total))
    }

    /// [`decode`](Self::decode) without hashing the body: the structure is
    /// still checked (tag, lengths, the trailer's eight bytes present), the
    /// trailer's value is not. For a second pass over bytes a first pass
    /// has already verified.
    pub fn parse(buf: &'a [u8]) -> Result<(RecordRef<'a>, usize), DecodeError> {
        let (&tag, rest) = buf.split_first().ok_or(DecodeError::Incomplete)?;
        // Payload lengths come off the wire: sums saturate instead of
        // wrapping, and a saturated length is longer than any buffer.
        let (rec, body_len) = match tag {
            TAG_PAGE_WRITE => {
                let head = rest.get(..24).ok_or(DecodeError::Incomplete)?;
                let len = le_u32(&head[20..24]) as usize;
                let data = rest
                    .get(24..24usize.saturating_add(len))
                    .ok_or(DecodeError::Incomplete)?;
                let rec = RecordRef::PageWrite {
                    txid: le_u64(&head[0..8]),
                    pid: PageId(le_u64(&head[8..16])),
                    offset: le_u32(&head[16..20]),
                    data,
                };
                (rec, 1 + 24 + len)
            }
            TAG_COMMIT => {
                let txid = rest.get(..8).ok_or(DecodeError::Incomplete)?;
                (RecordRef::Commit { txid: le_u64(txid) }, 1 + 8)
            }
            TAG_CHECKPOINT => (RecordRef::Checkpoint, 1),
            TAG_SSD_TABLE => {
                let n = le_u32(rest.get(..4).ok_or(DecodeError::Incomplete)?) as usize;
                let len = n.saturating_mul(TABLE_ENTRY_LEN);
                let raw = rest
                    .get(4..4usize.saturating_add(len))
                    .ok_or(DecodeError::Incomplete)?;
                let (entries, _) = raw.as_chunks::<TABLE_ENTRY_LEN>();
                (RecordRef::SsdTable { entries }, 1 + 4 + len)
            }
            _ => return Err(DecodeError::Corrupt),
        };
        let total = body_len + CHECKSUM_LEN;
        if buf.len() < total {
            return Err(DecodeError::Incomplete);
        }
        Ok((rec, total))
    }

    /// Copy the borrowed payloads out.
    pub fn to_owned(&self) -> LogRecord {
        match *self {
            RecordRef::PageWrite {
                txid,
                pid,
                offset,
                data,
            } => LogRecord::PageWrite {
                txid,
                pid,
                offset,
                data: data.to_vec(),
            },
            RecordRef::Commit { txid } => LogRecord::Commit { txid },
            RecordRef::Checkpoint => LogRecord::Checkpoint,
            RecordRef::SsdTable { entries } => LogRecord::SsdTable {
                entries: table_entries(entries).collect(),
            },
        }
    }
}

/// Iterator over the records of a log buffer, in place: yields
/// `(byte position, record)` until the buffer ends, then reports how it
/// ended through [`tail`](Self::tail) / [`valid_len`](Self::valid_len).
pub struct RecordReader<'a> {
    buf: &'a [u8],
    pos: usize,
    verify: bool,
    tail: LogTail,
}

impl<'a> RecordReader<'a> {
    /// Read `buf` from its first byte, verifying every checksum trailer.
    pub fn new(buf: &'a [u8]) -> Self {
        RecordReader {
            buf,
            pos: 0,
            verify: true,
            tail: LogTail::Clean,
        }
    }

    /// Read `buf` from byte `from` without re-hashing: for later passes
    /// over a prefix (`&log[..valid_len]`) a verifying pass has accepted,
    /// starting on a record boundary that pass reported.
    pub fn verified(buf: &'a [u8], from: usize) -> Self {
        RecordReader {
            buf,
            pos: from,
            verify: false,
            tail: LogTail::Clean,
        }
    }

    /// How the stream ended. `Clean` until the iterator has returned
    /// `None`; final after that.
    pub fn tail(&self) -> LogTail {
        self.tail
    }

    /// Bytes consumed by cleanly decoded records so far: once the iterator
    /// has returned `None`, the trustworthy prefix of the buffer (the tail
    /// offset for `Torn`/`Corrupt`, the buffer length for `Clean`).
    pub fn valid_len(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for RecordReader<'a> {
    type Item = (usize, RecordRef<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.buf.len() || self.tail.is_damaged() {
            return None;
        }
        let rest = &self.buf[self.pos..];
        let decoded = if self.verify {
            RecordRef::decode(rest)
        } else {
            RecordRef::parse(rest)
        };
        match decoded {
            Ok((rec, used)) => {
                let at = self.pos;
                self.pos += used;
                Some((at, rec))
            }
            Err(DecodeError::Incomplete) => {
                self.tail = LogTail::Torn { at: self.pos };
                None
            }
            Err(DecodeError::Corrupt) => {
                self.tail = LogTail::Corrupt { at: self.pos };
                None
            }
        }
    }
}

impl LogRecord {
    /// Append the binary encoding of this record (body + checksum trailer)
    /// to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        match self {
            LogRecord::PageWrite {
                txid,
                pid,
                offset,
                data,
            } => {
                out.push(TAG_PAGE_WRITE);
                out.extend_from_slice(&txid.to_le_bytes());
                out.extend_from_slice(&pid.0.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
            LogRecord::Commit { txid } => {
                out.push(TAG_COMMIT);
                out.extend_from_slice(&txid.to_le_bytes());
            }
            LogRecord::Checkpoint => out.push(TAG_CHECKPOINT),
            LogRecord::SsdTable { entries } => {
                out.push(TAG_SSD_TABLE);
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for &(pid, frame) in entries {
                    out.extend_from_slice(&pid.to_le_bytes());
                    out.extend_from_slice(&frame.to_le_bytes());
                }
            }
        }
        let sum = fault::checksum(&out[start..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }

    /// Size of the binary encoding (including the checksum trailer).
    pub fn encoded_len(&self) -> usize {
        let body = match self {
            LogRecord::PageWrite { data, .. } => 1 + 8 + 8 + 4 + 4 + data.len(),
            LogRecord::Commit { .. } => 1 + 8,
            LogRecord::Checkpoint => 1,
            LogRecord::SsdTable { entries } => 1 + 4 + TABLE_ENTRY_LEN * entries.len(),
        };
        body + CHECKSUM_LEN
    }

    /// Decode one record from the front of `buf`, returning the record and
    /// the number of bytes consumed (body + trailer).
    pub fn decode(buf: &[u8]) -> Result<(LogRecord, usize), DecodeError> {
        RecordRef::decode(buf).map(|(rec, used)| (rec.to_owned(), used))
    }
}

/// Scan `buf` for records, classifying how the stream ends (clean record
/// boundary, torn tail, or mid-log corruption).
pub fn decode_all(buf: &[u8]) -> DecodeOutcome {
    let mut reader = RecordReader::new(buf);
    let records = reader.by_ref().map(|(_, rec)| rec.to_owned()).collect();
    DecodeOutcome {
        records,
        tail: reader.tail(),
        valid_len: reader.valid_len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rec: LogRecord) {
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(buf.len(), rec.encoded_len());
        let (decoded, used) = LogRecord::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(decoded, rec);
    }

    #[test]
    fn round_trips() {
        round_trip(LogRecord::PageWrite {
            txid: 42,
            pid: PageId(7),
            offset: 128,
            data: vec![1, 2, 3, 4, 5],
        });
        round_trip(LogRecord::PageWrite {
            txid: 0,
            pid: PageId(0),
            offset: 0,
            data: vec![],
        });
        round_trip(LogRecord::Commit { txid: u64::MAX });
        round_trip(LogRecord::Checkpoint);
        round_trip(LogRecord::SsdTable { entries: vec![] });
        round_trip(LogRecord::SsdTable {
            entries: (0..100).map(|i| (i * 3, i)).collect(),
        });
    }

    #[test]
    fn reader_yields_positions_and_borrowed_payloads() {
        let recs = [
            LogRecord::PageWrite {
                txid: 3,
                pid: PageId(9),
                offset: 5,
                data: vec![0xAB; 40],
            },
            LogRecord::Commit { txid: 3 },
            LogRecord::SsdTable {
                entries: vec![(7, 70), (8, 80)],
            },
            LogRecord::Checkpoint,
        ];
        let mut buf = Vec::new();
        let mut starts = Vec::new();
        for r in &recs {
            starts.push(buf.len());
            r.encode(&mut buf);
        }
        let mut reader = RecordReader::new(&buf);
        let got: Vec<(usize, RecordRef<'_>)> = reader.by_ref().collect();
        assert_eq!(
            (reader.tail(), reader.valid_len()),
            (LogTail::Clean, buf.len())
        );
        assert_eq!(got.iter().map(|&(pos, _)| pos).collect::<Vec<_>>(), starts);
        for ((_, rec), want) in got.iter().zip(&recs) {
            assert_eq!(rec.to_owned(), *want);
        }
        // Payloads are slices of the log, not copies of it.
        let RecordRef::PageWrite { data, .. } = got[0].1 else {
            panic!("first record is the page write");
        };
        assert!(buf.as_ptr_range().contains(&data.as_ptr()));
        // A later pass starts from a position the first one reported and
        // does not hash: damage the first pass would catch goes unnoticed
        // (which is why it only ever runs over a verified prefix).
        let rest: Vec<usize> = RecordReader::verified(&buf, starts[2])
            .map(|(pos, _)| pos)
            .collect();
        assert_eq!(rest, starts[2..]);
        let mut damaged = buf.clone();
        damaged[30] ^= 0x04;
        assert_eq!(RecordReader::new(&damaged).count(), 0);
        assert_eq!(RecordReader::verified(&damaged, 0).count(), recs.len());
    }

    #[test]
    fn decode_all_stops_at_torn_tail() {
        let mut buf = Vec::new();
        LogRecord::Commit { txid: 1 }.encode(&mut buf);
        let first_len = buf.len();
        LogRecord::PageWrite {
            txid: 2,
            pid: PageId(3),
            offset: 0,
            data: vec![9; 100],
        }
        .encode(&mut buf);
        // Tear the last record in half.
        buf.truncate(buf.len() - 50);
        let out = decode_all(&buf);
        assert_eq!(out.records, vec![LogRecord::Commit { txid: 1 }]);
        assert_eq!(out.tail, LogTail::Torn { at: first_len });
        assert_eq!(out.valid_len, first_len);
    }

    #[test]
    fn missing_trailer_alone_is_a_torn_tail() {
        // The body is complete but the checksum trailer is cut short: still
        // classified torn, not corrupt (the flush lost its suffix).
        let mut buf = Vec::new();
        LogRecord::Commit { txid: 5 }.encode(&mut buf);
        buf.truncate(buf.len() - 3);
        assert_eq!(LogRecord::decode(&buf), Err(DecodeError::Incomplete));
        assert_eq!(decode_all(&buf).tail, LogTail::Torn { at: 0 });
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        assert_eq!(
            LogRecord::decode(&[0xFF, 1, 2, 3]),
            Err(DecodeError::Corrupt)
        );
    }

    #[test]
    fn bit_flip_anywhere_is_caught() {
        let mut clean = Vec::new();
        LogRecord::PageWrite {
            txid: 9,
            pid: PageId(4),
            offset: 16,
            data: vec![0xAA; 40],
        }
        .encode(&mut clean);
        LogRecord::Commit { txid: 9 }.encode(&mut clean);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut damaged = clean.clone();
                damaged[byte] ^= 1 << bit;
                let out = decode_all(&damaged);
                // A flip must never be absorbed silently: either the scan
                // reports damage, or (flipping a length field downward) the
                // shortened record fails its checksum and reports damage.
                assert!(
                    out.tail.is_damaged(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn corruption_before_valid_records_hides_them() {
        // Records after a corrupt region are unreachable: the scan reports
        // Corrupt with following bytes present.
        let mut buf = Vec::new();
        LogRecord::Commit { txid: 1 }.encode(&mut buf);
        let cut = buf.len();
        LogRecord::Commit { txid: 2 }.encode(&mut buf);
        buf[2] ^= 0x10; // damage the first record's txid
        let out = decode_all(&buf);
        assert!(out.records.is_empty());
        assert_eq!(out.tail, LogTail::Corrupt { at: 0 });
        let _ = cut;
    }

    #[test]
    fn decode_all_handles_back_to_back_records() {
        let mut buf = Vec::new();
        for i in 0..10u64 {
            LogRecord::PageWrite {
                txid: i,
                pid: PageId(i * 2),
                offset: i as u32,
                data: vec![i as u8; i as usize],
            }
            .encode(&mut buf);
        }
        LogRecord::Checkpoint.encode(&mut buf);
        let out = decode_all(&buf);
        assert_eq!(out.records.len(), 11);
        assert_eq!(out.records[10], LogRecord::Checkpoint);
        assert_eq!(out.tail, LogTail::Clean);
        assert_eq!(out.valid_len, buf.len());
    }
}
