//! Backing stores that hold the actual page bytes of the simulated devices.
//!
//! Timing and data are deliberately separated: devices model *when* a
//! transfer completes, stores hold *what* the bytes are. Stores apply writes
//! at submission so later virtual-time reads always observe them (the
//! simulator never reorders a read before a write that was submitted earlier
//! in its virtual history).

use crate::sync::RwLock;

use crate::page::{PageBuf, PageId};

/// Byte storage addressed by page id.
pub trait PageStore: Send + Sync {
    /// Copy page `pid` into `buf`. Reading a never-written page yields
    /// zeroes, like a freshly created database file.
    fn read(&self, pid: PageId, buf: &mut [u8]);

    /// Overwrite page `pid` with `data`.
    fn write(&self, pid: PageId, data: &[u8]);

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
    page_size: usize,
    pages: Vec<RwLock<Option<Box<[u8]>>>>,
}

impl MemStore {
    pub fn new(num_pages: u64, page_size: usize) -> Self {
        assert!(page_size > 0);
        let mut pages = Vec::with_capacity(num_pages as usize);
        pages.resize_with(num_pages as usize, || RwLock::new(None));
        MemStore { page_size, pages }
    }

    fn slot(&self, pid: PageId) -> &RwLock<Option<Box<[u8]>>> {
        self.pages
            .get(pid.0 as usize)
            .unwrap_or_else(|| panic!("page {pid} out of bounds ({} pages)", self.pages.len()))
    }

    /// Page `pid` as a freshly built buffer — one pass over the bytes,
    /// where `read` into a new zeroed buffer would make two.
    pub fn read_buf(&self, pid: PageId) -> PageBuf {
        match &*self.slot(pid).read() {
            Some(data) => PageBuf::from_slice(data),
            None => PageBuf::zeroed(self.page_size),
        }
    }
}

impl PageStore for MemStore {
    fn read(&self, pid: PageId, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.page_size, "read buffer size mismatch");
        match &*self.slot(pid).read() {
            Some(data) => buf.copy_from_slice(data),
            None => buf.fill(0),
        }
    }

    fn write(&self, pid: PageId, data: &[u8]) {
        assert_eq!(data.len(), self.page_size, "write size mismatch");
        let mut slot = self.slot(pid).write();
        match &mut *slot {
            Some(existing) => existing.copy_from_slice(data),
            None => *slot = Some(data.into()),
        }
    }

    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    fn page_size(&self) -> usize {
        self.page_size
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
}
