//! B+-tree index over `u64` keys and `u64` values (RIDs).
//!
//! Node layout (within one page):
//!
//! ```text
//! [0]      node type: 0 = leaf, 1 = internal
//! [2..4]   nkeys (u16 LE)
//! [4..12]  leaf: next-leaf pid + 1 (0 = none); internal: leftmost child
//! [16..]   entries, 16 bytes each: (key u64 LE, value/child u64 LE)
//! ```
//!
//! Entries within a node are **unsorted**: lookups scan linearly (virtual
//! time charges only I/O; the host time of the scan is real and is tracked
//! by the benchmark as `engine.index_get_ns`) and inserts append, so a
//! non-splitting insert dirties ~18 bytes — keeping the physical redo log near the volume a
//! physiological-logging engine would generate. Nodes sort their entries
//! only when they split. A zeroed page decodes as an empty leaf, so a fresh
//! index root needs no initialization I/O. Deletes remove the entry without
//! rebalancing (the classic lazy-deletion simplification).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_iosim::{Locality, PageId};

use crate::txn::{PageMut, Txn};

pub(crate) const LEAF: u8 = 0;
pub(crate) const INTERNAL: u8 = 1;
const HDR: usize = 16;
const ENTRY: usize = 16;

/// Index metadata (kept in the catalog).
#[derive(Clone, Debug)]
pub struct IndexMeta {
    /// Root page: fixed for the index's lifetime.
    pub root: PageId,
    /// Extent from which split pages are allocated.
    pub extent_first: PageId,
    pub extent_pages: u64,
    /// Next unallocated page within the extent.
    pub cursor: Arc<AtomicU64>,
}

impl IndexMeta {
    pub fn new(root: PageId, extent_first: PageId, extent_pages: u64) -> Self {
        IndexMeta {
            root,
            extent_first,
            extent_pages,
            cursor: Arc::new(AtomicU64::new(0)),
        }
    }

    fn alloc_node(&self) -> PageId {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        assert!(
            i < self.extent_pages,
            "index extent exhausted ({} pages)",
            self.extent_pages
        );
        self.extent_first.offset(i)
    }
}

/// Entries a node of this page size can hold.
pub fn node_capacity(page_size: usize) -> usize {
    (page_size - HDR) / ENTRY
}

// ---------------------------------------------------------------------
// Node accessors
// ---------------------------------------------------------------------

fn node_type(b: &[u8]) -> u8 {
    b[0]
}

fn nkeys(b: &[u8]) -> usize {
    u16::from_le_bytes([b[2], b[3]]) as usize
}

fn set_nkeys(b: &mut [u8], n: usize) {
    b[2..4].copy_from_slice(&(n as u16).to_le_bytes());
}

fn extra(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[4..12].try_into().unwrap())
}

pub(crate) fn set_extra(b: &mut [u8], v: u64) {
    b[4..12].copy_from_slice(&v.to_le_bytes());
}

fn entry(b: &[u8], i: usize) -> (u64, u64) {
    let off = HDR + i * ENTRY;
    (
        u64::from_le_bytes(b[off..off + 8].try_into().unwrap()),
        u64::from_le_bytes(b[off + 8..off + 16].try_into().unwrap()),
    )
}

fn entry_bytes(k: u64, v: u64) -> [u8; ENTRY] {
    let mut e = [0u8; ENTRY];
    e[..8].copy_from_slice(&k.to_le_bytes());
    e[8..].copy_from_slice(&v.to_le_bytes());
    e
}

fn set_entry(b: &mut [u8], i: usize, k: u64, v: u64) {
    let off = HDR + i * ENTRY;
    b[off..off + ENTRY].copy_from_slice(&entry_bytes(k, v));
}

// The same two stores through a transaction's page view, for the writers
// that change an entry or two: each opens a window of just those bytes.

fn put_nkeys(b: &mut PageMut<'_>, n: usize) {
    b.put(2, &(n as u16).to_le_bytes());
}

fn put_entry(b: &mut PageMut<'_>, i: usize, k: u64, v: u64) {
    b.put(HDR + i * ENTRY, &entry_bytes(k, v));
}

/// The whole page as one window, for the writers that rewrite a node.
fn whole<'a>(b: &'a mut PageMut<'_>) -> &'a mut [u8] {
    b.window(0..b.len())
}

fn entries(b: &[u8]) -> Vec<(u64, u64)> {
    (0..nkeys(b)).map(|i| entry(b, i)).collect()
}

pub(crate) fn write_entries(b: &mut [u8], es: &[(u64, u64)]) {
    for (i, &(k, v)) in es.iter().enumerate() {
        set_entry(b, i, k, v);
    }
    set_nkeys(b, es.len());
}

/// The live entries of node `b` as fixed-size records: one slice bound
/// check for the whole node, none per entry.
fn entry_records(b: &[u8]) -> &[[u8; ENTRY]] {
    b[HDR..HDR + nkeys(b) * ENTRY].as_chunks::<ENTRY>().0
}

fn record_key(e: &[u8; ENTRY]) -> u64 {
    u64::from_le_bytes(e[..8].try_into().unwrap())
}

fn record_val(e: &[u8; ENTRY]) -> u64 {
    u64::from_le_bytes(e[8..].try_into().unwrap())
}

/// Child pid routing `key` in an internal node: the child of the greatest
/// separator key `<= key` (the first such entry, should a separator ever
/// repeat), or the leftmost child when every separator is greater.
fn search_child(b: &[u8], key: u64) -> u64 {
    let mut best: Option<(u64, &[u8; ENTRY])> = None;
    for e in entry_records(b) {
        let k = record_key(e);
        if k <= key && best.is_none_or(|(bk, _)| k > bk) {
            best = Some((k, e));
        }
    }
    best.map_or_else(|| extra(b), |(_, e)| record_val(e))
}

/// Index of `key`'s entry in leaf `b`, if present (`pub` for the micro
/// bench's `btree_find_in_leaf_511` rung).
pub fn find_in_leaf(b: &[u8], key: u64) -> Option<usize> {
    entry_records(b).iter().position(|e| record_key(e) == key)
}

// ---------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------

/// Descend from the root to the leaf that owns `key` and return its pid,
/// handing `ancestor` each internal node on the way (root first).
fn descend(
    txn: &mut Txn<'_, '_>,
    meta: &IndexMeta,
    key: u64,
    mut ancestor: impl FnMut(PageId),
) -> PageId {
    let mut pid = meta.root;
    loop {
        let next = txn.read_page(pid, Locality::Random, |b| {
            (node_type(b) == INTERNAL).then(|| search_child(b, key))
        });
        match next {
            Some(child) => {
                ancestor(pid);
                pid = PageId(child);
            }
            None => return pid,
        }
    }
}

/// Insert or replace (`upsert`) the value for `key`.
pub fn insert(txn: &mut Txn<'_, '_>, meta: &IndexMeta, key: u64, val: u64) {
    let cap = node_capacity(txn.page_size());
    let mut path = Vec::new();
    let leaf = descend(txn, meta, key, |p| path.push(p));
    if let Some(slot) = txn.read_page(leaf, Locality::Random, |b| find_in_leaf(b, key)) {
        txn.write_page(leaf, Locality::Random, |b| put_entry(b, slot, key, val));
        return;
    }
    let n = txn.read_page(leaf, Locality::Random, nkeys);
    if n < cap {
        txn.write_page(leaf, Locality::Random, |b| {
            put_entry(b, n, key, val);
            put_nkeys(b, n + 1);
        });
        return;
    }

    // Leaf split: sort, halve, link, promote the right half's first key.
    let (mut es, old_next) = txn.read_page(leaf, Locality::Random, |b| (entries(b), extra(b)));
    es.push((key, val));
    es.sort_unstable();
    let mid = es.len() / 2;
    let sep = es[mid].0;
    let right = meta.alloc_node();
    txn.write_page(right, Locality::Random, |b| {
        let b = whole(b);
        b[0] = LEAF;
        set_extra(b, old_next);
        write_entries(b, &es[mid..]);
    });
    txn.write_page(leaf, Locality::Random, |b| {
        let b = whole(b);
        set_extra(b, right.0 + 1);
        write_entries(b, &es[..mid]);
    });
    insert_into_parent(txn, meta, path, leaf, sep, right, cap);
}

/// Install the separator for a freshly split node into its parent,
/// splitting ancestors (and ultimately the root) as needed.
fn insert_into_parent(
    txn: &mut Txn<'_, '_>,
    meta: &IndexMeta,
    mut path: Vec<PageId>,
    left: PageId,
    sep: u64,
    right: PageId,
    cap: usize,
) {
    let Some(parent) = path.pop() else {
        // `left` was the root: hoist its contents into a new page and turn
        // the (fixed) root page into an internal node over the two halves.
        debug_assert_eq!(left, meta.root);
        let new_left = meta.alloc_node();
        let image = txn.read_page(left, Locality::Random, |b| b.to_vec());
        txn.write_page(new_left, Locality::Random, |b| b.put(0, &image));
        txn.write_page(meta.root, Locality::Random, |b| {
            let b = whole(b);
            b.fill(0);
            b[0] = INTERNAL;
            set_extra(b, new_left.0);
            write_entries(b, &[(sep, right.0)]);
        });
        return;
    };
    let n = txn.read_page(parent, Locality::Random, nkeys);
    if n < cap {
        txn.write_page(parent, Locality::Random, |b| {
            put_entry(b, n, sep, right.0);
            put_nkeys(b, n + 1);
        });
        return;
    }
    // Internal split: the median key moves up; its child becomes the new
    // right node's leftmost child.
    let mut es = txn.read_page(parent, Locality::Random, entries);
    es.push((sep, right.0));
    es.sort_unstable();
    let mid = es.len() / 2;
    let (promoted_key, promoted_child) = es[mid];
    let new_right = meta.alloc_node();
    txn.write_page(new_right, Locality::Random, |b| {
        let b = whole(b);
        b[0] = INTERNAL;
        set_extra(b, promoted_child);
        write_entries(b, &es[mid + 1..]);
    });
    txn.write_page(parent, Locality::Random, |b| {
        write_entries(whole(b), &es[..mid]);
    });
    insert_into_parent(txn, meta, path, parent, promoted_key, new_right, cap);
}

/// Point lookup.
pub fn get(txn: &mut Txn<'_, '_>, meta: &IndexMeta, key: u64) -> Option<u64> {
    let leaf = descend(txn, meta, key, |_| ());
    txn.read_page(leaf, Locality::Random, |b| {
        find_in_leaf(b, key).map(|i| entry(b, i).1)
    })
}

/// Range scan over `lo..=hi`, returning at most `limit` pairs in key order.
pub fn range(
    txn: &mut Txn<'_, '_>,
    meta: &IndexMeta,
    lo: u64,
    hi: u64,
    limit: usize,
) -> Vec<(u64, u64)> {
    let mut leaf = descend(txn, meta, lo, |_| ());
    let mut out = Vec::new();
    loop {
        let (mut in_range, any_beyond, next) = txn.read_page(leaf, Locality::Random, |b| {
            let mut in_range = Vec::new();
            let mut beyond = false;
            for i in 0..nkeys(b) {
                let (k, v) = entry(b, i);
                if k >= lo && k <= hi {
                    in_range.push((k, v));
                } else if k > hi {
                    beyond = true;
                }
            }
            (in_range, beyond, extra(b))
        });
        in_range.sort_unstable();
        out.extend(in_range);
        if out.len() >= limit || any_beyond || next == 0 {
            break;
        }
        leaf = PageId(next - 1);
    }
    out.truncate(limit);
    out
}

/// Remove `key`; returns whether it existed. No rebalancing.
pub fn delete(txn: &mut Txn<'_, '_>, meta: &IndexMeta, key: u64) -> bool {
    let leaf = descend(txn, meta, key, |_| ());
    let slot = txn.read_page(leaf, Locality::Random, |b| find_in_leaf(b, key));
    let Some(slot) = slot else { return false };
    txn.write_page(leaf, Locality::Random, |b| {
        let n = nkeys(b);
        if slot != n - 1 {
            let (k, v) = entry(b, n - 1);
            put_entry(b, slot, k, v);
        }
        put_nkeys(b, n - 1);
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};

    /// The per-entry indexed loops `search_child` and `find_in_leaf`
    /// replaced, kept as the reference the kernels are compared against.
    fn search_child_indexed(b: &[u8], key: u64) -> u64 {
        let mut best: Option<(u64, u64)> = None;
        for i in 0..nkeys(b) {
            let (k, c) = entry(b, i);
            if k <= key && best.map(|(bk, _)| k > bk).unwrap_or(true) {
                best = Some((k, c));
            }
        }
        best.map(|(_, c)| c).unwrap_or_else(|| extra(b))
    }

    fn find_in_leaf_indexed(b: &[u8], key: u64) -> Option<usize> {
        (0..nkeys(b)).find(|&i| entry(b, i).0 == key)
    }

    #[test]
    fn node_scan_kernels_match_the_indexed_loops() {
        let mut rng = SmallRng::seed_from_u64(0xB7EE);
        for page_size in [64usize, 256, 8192] {
            let cap = node_capacity(page_size);
            for round in 0..200 {
                // Empty, single-entry and full nodes every time; random
                // fills otherwise. Stale bytes beyond `nkeys` must be
                // ignored, so the page starts as noise.
                let n = match round % 4 {
                    0 => 0,
                    1 => 1,
                    2 => cap,
                    _ => rng.gen_range(0..=cap as u64) as usize,
                };
                let mut b: Vec<u8> = (0..page_size).map(|_| rng.next_u64() as u8).collect();
                b[0] = INTERNAL;
                set_extra(&mut b, 7_000_000);
                // Keys from a small domain so probes hit, miss, and fall
                // below every separator; `round % 3 == 0` keeps them
                // duplicate-free, the rest allow repeats.
                let domain = 4 * cap as u64 + 8;
                let mut es: Vec<(u64, u64)> = Vec::with_capacity(n);
                while es.len() < n {
                    let k = 100 + rng.gen_range(0..domain);
                    if round % 3 == 0 && es.iter().any(|&(ek, _)| ek == k) {
                        continue;
                    }
                    es.push((k, 1_000 + es.len() as u64));
                }
                write_entries(&mut b, &es);
                let probes = (0..64)
                    .map(|_| 100 + rng.gen_range(0..domain))
                    .chain(es.iter().map(|&(k, _)| k))
                    // Below every key, above every key, the extremes.
                    .chain([0, 99, 100 + domain, u64::MAX]);
                for key in probes.collect::<Vec<_>>() {
                    assert_eq!(
                        search_child(&b, key),
                        search_child_indexed(&b, key),
                        "search_child n={n} key={key}"
                    );
                    assert_eq!(
                        find_in_leaf(&b, key),
                        find_in_leaf_indexed(&b, key),
                        "find_in_leaf n={n} key={key}"
                    );
                }
            }
        }
    }

    #[test]
    fn capacity_math() {
        assert_eq!(node_capacity(256), 15);
        assert_eq!(node_capacity(8192), 511);
    }

    #[test]
    fn node_byte_round_trip() {
        let mut b = vec![0u8; 256];
        assert_eq!(node_type(&b), LEAF);
        assert_eq!(nkeys(&b), 0);
        set_entry(&mut b, 0, 42, 7);
        set_nkeys(&mut b, 1);
        set_extra(&mut b, 99);
        assert_eq!(entry(&b, 0), (42, 7));
        assert_eq!(nkeys(&b), 1);
        assert_eq!(extra(&b), 99);
    }

    #[test]
    fn search_child_routing() {
        let mut b = vec![0u8; 256];
        b[0] = INTERNAL;
        set_extra(&mut b, 100); // leftmost
        write_entries(&mut b, &[(50, 102), (10, 101)]); // unsorted on purpose
        assert_eq!(search_child(&b, 5), 100);
        assert_eq!(search_child(&b, 10), 101);
        assert_eq!(search_child(&b, 49), 101);
        assert_eq!(search_child(&b, 50), 102);
        assert_eq!(search_child(&b, 1000), 102);
    }

    #[test]
    fn alloc_node_exhaustion() {
        let meta = IndexMeta::new(PageId(0), PageId(1), 2);
        assert_eq!(meta.alloc_node(), PageId(1));
        assert_eq!(meta.alloc_node(), PageId(2));
        let r = std::panic::catch_unwind(|| meta.alloc_node());
        assert!(r.is_err());
    }
}
