//! Bulk loading: the backup-restore path.
//!
//! The paper's experiments start from a restored database backup, not from
//! transactional inserts. These loaders build heap pages and B+-trees
//! directly in the persistent disk image, bypassing the buffer pools, the
//! WAL and the virtual clock entirely — exactly what restoring a backup
//! looks like to the storage stack. Benchmarks call them during setup and
//! then run measured workloads against cold caches.

use std::sync::atomic::Ordering;

use crate::btree::{node_capacity, IndexMeta};
use crate::db::{Database, HeapId, IndexId};
use crate::heap::HeapMeta;

/// Load `records` into the heap, packing pages fully in RID order.
/// Returns the number of records loaded. Panics if the heap overflows.
pub fn bulk_load_heap<I>(db: &Database, id: HeapId, records: I) -> u64
where
    I: IntoIterator,
    I::Item: AsRef<[u8]>,
{
    let meta: HeapMeta = db.heap_meta(id);
    let ps = db.page_size();
    let store = db.io().disk_store();
    let mut page = vec![0u8; ps];
    let mut page_index: u64 = 0;
    let mut slot = 0usize;
    let mut count: u64 = 0;

    let flush = |page: &mut Vec<u8>, page_index: u64| {
        store.write(meta.first.offset(page_index), page);
        page.fill(0);
    };

    for rec in records {
        let rec = rec.as_ref();
        assert!(rec.len() <= meta.record_size, "record too large");
        if slot == meta.slots_per_page {
            flush(&mut page, page_index);
            page_index += 1;
            slot = 0;
            assert!(page_index < meta.pages, "heap overflow during bulk load");
        }
        page[slot] = 1;
        let off = meta.slots_per_page + slot * meta.record_size;
        page[off..off + rec.len()].copy_from_slice(rec);
        slot += 1;
        count += 1;
    }
    if slot > 0 {
        flush(&mut page, page_index);
    }
    meta.next.store(count, Ordering::Relaxed);
    // The meta held by the catalog shares the cursor Arc, so the catalog
    // copy sees the new high-water mark too.
    count
}

/// Build a B+-tree bottom-up from key-sorted `(key, value)` pairs.
///
/// Leaves are filled to `fill` (e.g. 0.7 leaves room for inserts without
/// immediate splits), chained, and parented level by level; the top node is
/// written into the index's fixed root page. Panics if the pairs are not
/// strictly ascending or the extent overflows.
pub fn bulk_load_index<I>(db: &Database, id: IndexId, pairs: I, fill: f64)
where
    I: IntoIterator<Item = (u64, u64)>,
{
    assert!((0.1..=1.0).contains(&fill));
    let meta: IndexMeta = db.index_meta(id);
    let ps = db.page_size();
    let cap = node_capacity(ps);
    let per_leaf = ((cap as f64 * fill) as usize).max(1);
    let store = db.io().disk_store();

    // Gather leaves. (Materializing level-by-level keeps the code simple;
    // index sizes here are bench-setup scale.)
    let mut pairs_iter = pairs.into_iter();
    let mut leaves: Vec<(u64, Vec<(u64, u64)>)> = Vec::new(); // (first_key, entries)
    let mut last_key: Option<u64> = None;
    loop {
        let chunk: Vec<(u64, u64)> = pairs_iter.by_ref().take(per_leaf).collect();
        if chunk.is_empty() {
            break;
        }
        for &(k, _) in &chunk {
            assert!(last_key.map(|lk| k > lk).unwrap_or(true), "keys not sorted");
            last_key = Some(k);
        }
        leaves.push((chunk[0].0, chunk));
    }
    if leaves.is_empty() {
        return; // empty index: zeroed root is already an empty leaf
    }

    let alloc = || {
        let i = meta.cursor.fetch_add(1, Ordering::Relaxed);
        assert!(i < meta.extent_pages, "index extent overflow in bulk load");
        meta.extent_first.offset(i)
    };
    let write_leaf = |pid: turbopool_iosim::PageId, entries: &[(u64, u64)], next: u64| {
        let mut b = vec![0u8; ps];
        b[0] = 0; // leaf
        b[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        b[4..12].copy_from_slice(&next.to_le_bytes());
        for (i, &(k, v)) in entries.iter().enumerate() {
            let off = 16 + i * 16;
            b[off..off + 8].copy_from_slice(&k.to_le_bytes());
            b[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
        }
        store.write(pid, &b);
    };
    let write_internal = |pid: turbopool_iosim::PageId, leftmost: u64, entries: &[(u64, u64)]| {
        let mut b = vec![0u8; ps];
        b[0] = 1; // internal
        b[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        b[4..12].copy_from_slice(&leftmost.to_le_bytes());
        for (i, &(k, c)) in entries.iter().enumerate() {
            let off = 16 + i * 16;
            b[off..off + 8].copy_from_slice(&k.to_le_bytes());
            b[off + 8..off + 16].copy_from_slice(&c.to_le_bytes());
        }
        store.write(pid, &b);
    };

    if leaves.len() == 1 {
        // Single leaf: it *is* the root.
        write_leaf(meta.root, &leaves[0].1, 0);
        return;
    }

    // Write the leaf level (allocated from the extent), chaining next-leaf.
    let mut level: Vec<(u64, u64)> = Vec::with_capacity(leaves.len()); // (first_key, pid)
    let pids: Vec<turbopool_iosim::PageId> = leaves.iter().map(|_| alloc()).collect();
    for (i, (first_key, entries)) in leaves.iter().enumerate() {
        let next = if i + 1 < pids.len() {
            pids[i + 1].0 + 1
        } else {
            0
        };
        write_leaf(pids[i], entries, next);
        level.push((*first_key, pids[i].0));
    }

    // Build internal levels until one node remains; that node is the root.
    let per_node = ((cap as f64 * fill) as usize).max(2);
    loop {
        let mut next_level: Vec<(u64, u64)> = Vec::new();
        let is_root_level = level.len() <= per_node;
        for group in level.chunks(per_node) {
            let leftmost = group[0].1;
            let entries: Vec<(u64, u64)> = group[1..].to_vec();
            if is_root_level {
                write_internal(meta.root, leftmost, &entries);
                return;
            }
            let pid = alloc();
            write_internal(pid, leftmost, &entries);
            next_level.push((group[0].0, pid.0));
        }
        level = next_level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use turbopool_iosim::Clk;

    #[test]
    fn bulk_heap_load_round_trips() {
        let db = Database::open(DbConfig::small_for_tests());
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 16, 32);
        let n = bulk_load_heap(&db, h, (0..100u64).map(|i| i.to_le_bytes().to_vec()));
        assert_eq!(n, 100);
        let mut txn = db.begin(&mut clk);
        for rid in [0u64, 50, 99] {
            let rec = txn.heap_get(h, rid).unwrap();
            assert_eq!(u64::from_le_bytes(rec[..8].try_into().unwrap()), rid);
        }
        assert!(txn.heap_get(h, 100).is_none());
        txn.commit();
        // Scans see everything too.
        let mut count = 0;
        db.scan_heap(&mut clk, h, |_, _| count += 1).unwrap();
        assert_eq!(count, 100);
    }

    #[test]
    fn bulk_index_single_leaf() {
        let db = Database::open(DbConfig::small_for_tests());
        let mut clk = Clk::new();
        let idx = db.create_index(&mut clk, "i", 16);
        bulk_load_index(&db, idx, (0..5u64).map(|k| (k * 2, k)), 0.7);
        let mut txn = db.begin(&mut clk);
        assert_eq!(txn.index_get(idx, 4), Some(2));
        assert_eq!(txn.index_get(idx, 5), None);
        txn.commit();
    }

    #[test]
    fn bulk_index_multi_level_lookup_and_range() {
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.db_pages = 2048;
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let idx = db.create_index(&mut clk, "i", 1200);
        let n = 5000u64;
        bulk_load_index(&db, idx, (0..n).map(|k| (k, k + 7)), 0.7);
        let mut txn = db.begin(&mut clk);
        for k in (0..n).step_by(97) {
            assert_eq!(txn.index_get(idx, k), Some(k + 7), "key {k}");
        }
        let r = txn.index_range(idx, 1000, 1010, 100);
        assert_eq!(r.len(), 11);
        assert_eq!(r[0], (1000, 1007));
        assert_eq!(r[10], (1010, 1017));
        txn.commit();
    }

    #[test]
    fn bulk_loaded_index_accepts_inserts_and_splits() {
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.db_pages = 2048;
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let idx = db.create_index(&mut clk, "i", 1500);
        bulk_load_index(&db, idx, (0..3000u64).map(|k| (k * 2, k)), 0.7);
        let mut txn = db.begin(&mut clk);
        // Odd keys force inserts into packed leaves, causing splits.
        for k in (1..2000u64).step_by(2) {
            txn.index_insert(idx, k, k);
        }
        for k in (1..2000u64).step_by(2) {
            assert_eq!(txn.index_get(idx, k), Some(k));
        }
        assert_eq!(txn.index_get(idx, 2500 * 2), Some(2500));
        txn.commit();
    }

    #[test]
    #[should_panic(expected = "keys not sorted")]
    fn bulk_index_rejects_unsorted() {
        let db = Database::open(DbConfig::small_for_tests());
        let mut clk = Clk::new();
        let idx = db.create_index(&mut clk, "i", 16);
        bulk_load_index(&db, idx, vec![(5u64, 0u64), (3, 0)], 0.7);
    }

    #[test]
    fn bulk_load_costs_no_device_time() {
        let db = Database::open(DbConfig::small_for_tests());
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 16, 32);
        bulk_load_heap(&db, h, (0..50u64).map(|i| i.to_le_bytes().to_vec()));
        assert_eq!(db.io().disk_stats().write_ops, 0);
        assert_eq!(clk.now, 0);
    }
}
