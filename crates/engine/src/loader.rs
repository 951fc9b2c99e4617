//! Bulk loading: the backup-restore path.
//!
//! The paper's experiments start from a restored database backup, not from
//! transactional inserts. These loaders build heap pages and B+-trees
//! directly in the persistent disk image, bypassing the buffer pools, the
//! WAL and the virtual clock entirely — exactly what restoring a backup
//! looks like to the storage stack. Benchmarks call them during setup and
//! then run measured workloads against cold caches.
//!
//! Each loader is one pass over the pages it writes: O(pages) time, and
//! memory for one page, one leaf of pairs and one `(first key, page)` pair
//! per node of the level above (O(leaves)). Every page is built in a fresh
//! image and handed to the disk store by handle. `tests/setup_image.rs`
//! pins the image each workload loads.

use std::sync::atomic::Ordering;

use turbopool_iosim::{PageBuf, PageId, PageStore};

use crate::btree::{node_capacity, set_extra, write_entries, IndexMeta, INTERNAL, LEAF};
use crate::db::{Database, HeapId, IndexId};
use crate::heap::HeapMeta;

/// Load `rows` records into the heap, packing pages fully in RID order.
/// `fill(rid, rec)` writes record `rid` into its slot, which is
/// `record_size` zeroed bytes. Panics if the heap overflows.
pub fn bulk_load_heap(db: &Database, id: HeapId, rows: u64, mut fill: impl FnMut(u64, &mut [u8])) {
    let meta: HeapMeta = db.heap_meta(id);
    assert!(rows <= meta.capacity(), "heap overflow during bulk load");
    let store = db.io().disk_store();
    let slots = meta.slots_per_page as u64;
    for page_index in 0..rows.div_ceil(slots) {
        let first = page_index * slots;
        let n = (rows - first).min(slots) as usize;
        let mut page = PageBuf::zeroed(store.page_size());
        let (flags, recs) = page.as_mut_slice().split_at_mut(meta.slots_per_page);
        flags[..n].fill(1);
        for (rid, rec) in (first..).zip(recs.chunks_exact_mut(meta.record_size).take(n)) {
            fill(rid, rec);
        }
        store.write_buf(meta.first.offset(page_index), page);
    }
    // The meta held by the catalog shares the cursor Arc, so the catalog
    // copy sees the new high-water mark too.
    meta.next.store(rows, Ordering::Relaxed);
}

/// Build a B+-tree bottom-up from key-sorted `(key, value)` pairs.
///
/// Leaves are filled to `fill` (e.g. 0.7 leaves room for inserts without
/// immediate splits), chained, and parented level by level; the top node is
/// written into the index's fixed root page. Leaves take the first extent
/// pages in key order, then each internal level the next. Panics if the
/// pairs are not strictly ascending or the extent overflows.
pub fn bulk_load_index<I>(db: &Database, id: IndexId, pairs: I, fill: f64)
where
    I: IntoIterator<Item = (u64, u64)>,
{
    assert!((0.1..=1.0).contains(&fill));
    let meta: IndexMeta = db.index_meta(id);
    let store = db.io().disk_store();
    let filled = (node_capacity(store.page_size()) as f64 * fill) as usize;
    let (per_leaf, per_node) = (filled.max(1), filled.max(2));
    let alloc = || {
        let i = meta.cursor.fetch_add(1, Ordering::Relaxed);
        assert!(i < meta.extent_pages, "index extent overflow in bulk load");
        meta.extent_first.offset(i)
    };

    // The leaf level, one leaf of lookahead: a full leaf is written once the
    // next pair shows whether another leaf follows, and so its next link.
    let mut pairs = pairs.into_iter().peekable();
    let mut leaf: Vec<(u64, u64)> = Vec::with_capacity(per_leaf);
    let mut last_key = None;
    let mut level: Vec<(u64, u64)> = Vec::new(); // (first_key, pid) per node
    let mut pid = None; // the next leaf's page, allocated for the link to it
    loop {
        leaf.clear();
        for (k, v) in pairs.by_ref().take(per_leaf) {
            assert!(last_key.is_none_or(|lk| k > lk), "keys not sorted");
            last_key = Some(k);
            leaf.push((k, v));
        }
        let Some(&(first_key, _)) = leaf.first() else {
            return; // empty index: zeroed root is already an empty leaf
        };
        let more = pairs.peek().is_some();
        if !more && level.is_empty() {
            // Single leaf: it *is* the root.
            return write_node(store, meta.root, LEAF, 0, &leaf);
        }
        let this = pid.take().unwrap_or_else(alloc);
        pid = more.then(alloc);
        write_node(store, this, LEAF, pid.map_or(0, |next| next.0 + 1), &leaf);
        level.push((first_key, this.0));
        if !more {
            break;
        }
    }

    // Build internal levels until one node remains; that node is the root.
    loop {
        let is_root_level = level.len() <= per_node;
        let mut above = Vec::with_capacity(level.len().div_ceil(per_node));
        for group in level.chunks(per_node) {
            let pid = if is_root_level { meta.root } else { alloc() };
            write_node(store, pid, INTERNAL, group[0].1, &group[1..]);
            above.push((group[0].0, pid.0));
        }
        if is_root_level {
            return;
        }
        level = above;
    }
}

/// Write one node to page `pid`, built in a fresh image: `kind`, `extra`
/// (a leaf's next link, an internal node's leftmost child) and `entries`.
fn write_node(store: &dyn PageStore, pid: PageId, kind: u8, extra: u64, entries: &[(u64, u64)]) {
    let mut image = PageBuf::zeroed(store.page_size());
    let b = image.as_mut_slice();
    b[0] = kind;
    set_extra(b, extra);
    write_entries(b, entries);
    store.write_buf(pid, image);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};
    use turbopool_iosim::Clk;

    /// The materialising loader the streaming one replaced, kept as the
    /// reference it must match page for page: every leaf gathered first,
    /// then written, then each internal level built from the one below.
    fn oracle_bulk_load_index(db: &Database, id: IndexId, pairs: &[(u64, u64)], fill: f64) {
        let meta: IndexMeta = db.index_meta(id);
        let ps = db.page_size();
        let cap = node_capacity(ps);
        let per_leaf = ((cap as f64 * fill) as usize).max(1);
        let store = db.io().disk_store();
        let mut leaves: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
        let mut last_key: Option<u64> = None;
        for chunk in pairs.chunks(per_leaf) {
            for &(k, _) in chunk {
                assert!(last_key.map(|lk| k > lk).unwrap_or(true), "keys not sorted");
                last_key = Some(k);
            }
            leaves.push((chunk[0].0, chunk.to_vec()));
        }
        if leaves.is_empty() {
            return;
        }
        let alloc = || {
            let i = meta.cursor.fetch_add(1, Ordering::Relaxed);
            assert!(i < meta.extent_pages, "index extent overflow in bulk load");
            meta.extent_first.offset(i)
        };
        let write = |pid: PageId, kind: u8, extra: u64, entries: &[(u64, u64)]| {
            let mut b = vec![0u8; ps];
            b[0] = kind;
            b[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
            b[4..12].copy_from_slice(&extra.to_le_bytes());
            for (i, &(k, v)) in entries.iter().enumerate() {
                let off = 16 + i * 16;
                b[off..off + 8].copy_from_slice(&k.to_le_bytes());
                b[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
            }
            store.write(pid, &b);
        };
        if leaves.len() == 1 {
            write(meta.root, 0, 0, &leaves[0].1);
            return;
        }
        let mut level: Vec<(u64, u64)> = Vec::with_capacity(leaves.len());
        let pids: Vec<PageId> = leaves.iter().map(|_| alloc()).collect();
        for (i, (first_key, entries)) in leaves.iter().enumerate() {
            let next = if i + 1 < pids.len() {
                pids[i + 1].0 + 1
            } else {
                0
            };
            write(pids[i], 0, next, entries);
            level.push((*first_key, pids[i].0));
        }
        let per_node = ((cap as f64 * fill) as usize).max(2);
        loop {
            let mut next_level: Vec<(u64, u64)> = Vec::new();
            let is_root_level = level.len() <= per_node;
            for group in level.chunks(per_node) {
                let leftmost = group[0].1;
                let entries: Vec<(u64, u64)> = group[1..].to_vec();
                if is_root_level {
                    write(meta.root, 1, leftmost, &entries);
                    return;
                }
                let pid = alloc();
                write(pid, 1, leftmost, &entries);
                next_level.push((group[0].0, pid.0));
            }
            level = next_level;
        }
    }

    /// Load `pairs` with the streaming loader and with the oracle into two
    /// identical databases; every page and the extent cursor must agree.
    fn assert_matches_oracle(pairs: &[(u64, u64)], fill: f64) {
        let open = || {
            let mut cfg = DbConfig::small_for_tests();
            cfg.pool.db_pages = 4096;
            let db = Database::open(cfg);
            let idx = db.create_index(&mut Clk::new(), "i", 4000);
            (db, idx)
        };
        let (streamed, a) = open();
        let (oracle, b) = open();
        bulk_load_index(&streamed, a, pairs.iter().copied(), fill);
        oracle_bulk_load_index(&oracle, b, pairs, fill);
        let what = format!("{} pairs at fill {fill}", pairs.len());
        let cursor = |db: &Database, id| db.index_meta(id).cursor.load(Ordering::Relaxed);
        assert_eq!(cursor(&streamed, a), cursor(&oracle, b), "{what}: cursor");
        let (s, o) = (streamed.io().disk_store(), oracle.io().disk_store());
        for pid in (0..s.num_pages()).map(PageId) {
            assert_eq!(
                s.is_materialized(pid),
                o.is_materialized(pid),
                "{what}: {pid}"
            );
            assert_eq!(s.read_buf(pid), o.read_buf(pid), "{what}: {pid}");
        }
    }

    #[test]
    fn bulk_index_matches_the_materialising_oracle() {
        let cap = node_capacity(DbConfig::small_for_tests().pool.page_size);
        for fill in [0.1, 0.7, 1.0] {
            let per_leaf = ((cap as f64 * fill) as usize).max(1);
            let per_node = ((cap as f64 * fill) as usize).max(2);
            for n in [
                0,
                1,
                per_leaf,
                per_leaf + 1,
                per_leaf * per_node,
                per_leaf * per_node + 1,
            ] {
                let pairs: Vec<(u64, u64)> = (0..n as u64).map(|k| (k * 3, k ^ 0x55)).collect();
                assert_matches_oracle(&pairs, fill);
            }
        }
        for seed in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(0x10AD ^ seed);
            let n = rng.gen_range(0..600u64);
            let mut key = rng.gen_range(0..1_000u64);
            let pairs: Vec<(u64, u64)> = (0..n)
                .map(|_| {
                    key += rng.gen_range(1..50u64);
                    (key, rng.gen())
                })
                .collect();
            assert_matches_oracle(&pairs, [0.1, 0.7, 1.0][seed as usize % 3]);
        }
    }

    #[test]
    fn bulk_heap_load_round_trips() {
        let db = Database::open(DbConfig::small_for_tests());
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 16, 32);
        bulk_load_heap(&db, h, 100, |rid, rec| {
            rec[..8].copy_from_slice(&rid.to_le_bytes())
        });
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
    #[should_panic(expected = "heap overflow during bulk load")]
    fn bulk_heap_rejects_overflow() {
        let db = Database::open(DbConfig::small_for_tests());
        let h = db.create_heap(&mut Clk::new(), "t", 16, 2);
        let capacity = db.heap_meta(h).capacity();
        bulk_load_heap(&db, h, capacity + 1, |_, _| {});
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

    /// The disorder sits in the third leaf, after two leaves were written.
    #[test]
    #[should_panic(expected = "keys not sorted")]
    fn bulk_index_rejects_unsorted_past_the_first_leaf() {
        let db = Database::open(DbConfig::small_for_tests());
        let idx = db.create_index(&mut Clk::new(), "i", 16);
        let per_leaf = (node_capacity(db.page_size()) as f64 * 0.7) as u64;
        let keys = (0..2 * per_leaf + 3).chain([1]);
        bulk_load_index(&db, idx, keys.map(|k| (k, k)), 0.7);
    }

    #[test]
    fn bulk_load_costs_no_device_time() {
        let db = Database::open(DbConfig::small_for_tests());
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 16, 32);
        bulk_load_heap(&db, h, 50, |rid, rec| {
            rec[..8].copy_from_slice(&rid.to_le_bytes())
        });
        assert_eq!(db.io().disk_stats().write_ops, 0);
        assert_eq!(clk.now, 0);
    }
}
