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
//! Entries within a node are **not kept sorted**: inserts append, so a
//! non-splitting insert dirties ~18 bytes — keeping the physical redo log
//! near the volume a physiological-logging engine would generate. Splits
//! and the bulk loader write nodes sorted, so every node is a **sorted
//! head** and an unsorted tail: an append extends the head or ends it, a
//! delete's swap-remove may cut it short. Lookups search the head by
//! interpolation and a short gallop ([`search_head`]) and scan the tail;
//! at head 0 that is a linear scan. The head's length
//! ([`sorted_head`]) is cached on the page image (`PageBuf::derived`),
//! which clears it on any mutable access; page bytes, redo records and
//! virtual time do not depend on it (the host time is real and tracked by
//! the benchmark as `engine.index_get_ns`). A zeroed page decodes as an
//! empty leaf, so a fresh index root needs no initialization I/O. Deletes
//! remove the entry without rebalancing (the classic lazy-deletion
//! simplification).

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

/// Length of node `b`'s sorted head: its longest prefix of entries in
/// non-decreasing key order (`pub` for the micro bench).
pub fn sorted_head(b: &[u8]) -> u64 {
    let mut prev = 0;
    let keys = entry_records(b).iter().map(record_key);
    keys.take_while(|&k| std::mem::replace(&mut prev, k) <= k)
        .count() as u64
}

/// Read node `pid` with the length of its sorted head, cached on its image.
fn read_node<R>(txn: &mut Txn<'_, '_>, pid: PageId, f: impl FnOnce(&[u8], usize) -> R) -> R {
    txn.read_image(pid, Locality::Random, |image| {
        f(image, image.derived(sorted_head) as usize)
    })
}

/// Where `key` falls in the sorted head `sorted`: exactly
/// `sorted.partition_point(|e| record_key(e) < key)`, or `<= key` when
/// `inclusive`. It answers at once when the first entry is not below `key`
/// or the last one is. Otherwise it guesses the position from `key`'s place
/// between the first and last keys, gallops out from the guess (1, 2, 4, …
/// entries) until the answer is bracketed, and bisects only the bracket. In
/// a dense or evenly spread head the guess is off by at most one entry, so
/// a lookup reads the two ends and one or two entries by the guess instead
/// of bisecting; a skewed head costs at most about twice the bisection's
/// probes. The guess only picks which entries are read, never the answer;
/// debug builds check every answer against `partition_point`.
fn search_head(sorted: &[[u8; ENTRY]], key: u64, inclusive: bool) -> usize {
    let below = |e: &[u8; ENTRY]| {
        let k = record_key(e);
        k < key || (inclusive && k == key)
    };
    let at = match sorted {
        [first, .., last] if below(first) && !below(last) => {
            // The first key is below `key` and the last is not, so
            // `first < key <= last` (`first <= key < last` if inclusive)
            // and the answer lies in `1..n`.
            let n = sorted.len();
            let (off, span) = (
                key - record_key(first),
                record_key(last) - record_key(first),
            );
            // `key`'s share of the key span, times `n`: in `u64` unless the
            // keys spread over more than `u64::MAX / n`.
            let guess = match off.checked_mul(n as u64) {
                Some(scaled) => scaled / span,
                None => (u128::from(off) * n as u128 / u128::from(span)) as u64,
            };
            let guess = (guess as usize).min(n - 1);
            // Bracket the answer in `from..=to`: gallop right from a guess
            // below `key` (the last entry stops it), left from one that is
            // not (the first entry stops it).
            let (from, to) = if below(&sorted[guess]) {
                let (mut from, mut step) = (guess + 1, 1);
                loop {
                    let probe = (guess + step).min(n - 1);
                    if !below(&sorted[probe]) {
                        break (from, probe);
                    }
                    from = probe + 1;
                    step *= 2;
                }
            } else {
                let (mut to, mut step) = (guess, 1);
                loop {
                    let probe = guess.saturating_sub(step);
                    if below(&sorted[probe]) {
                        break (probe + 1, to);
                    }
                    to = probe;
                    step *= 2;
                }
            };
            from + sorted[from..to].partition_point(below)
        }
        // Every entry is below `key` (the last one is), or none is.
        [first, ..] if below(first) => sorted.len(),
        _ => 0,
    };
    debug_assert_eq!(
        at,
        sorted.partition_point(below),
        "search_head({key}, {inclusive})"
    );
    at
}

/// Child pid routing `key` in an internal node whose first `head` entries
/// are sorted: the child of the greatest separator key `<= key` (the first
/// such entry, should a separator ever repeat), or the leftmost child when
/// every separator is greater.
fn search_child(b: &[u8], head: usize, key: u64) -> u64 {
    let (sorted, tail) = entry_records(b).split_at(head);
    let mut best = match search_head(sorted, key, true) {
        0 => None,
        at => {
            let k = record_key(&sorted[at - 1]);
            Some((k, &sorted[search_head(&sorted[..at], k, false)]))
        }
    };
    for e in tail {
        let k = record_key(e);
        if k <= key && best.is_none_or(|(bk, _)| k > bk) {
            best = Some((k, e));
        }
    }
    best.map_or_else(|| extra(b), |(_, e)| record_val(e))
}

/// Index of `key`'s first entry in leaf `b` whose first `head` entries are
/// sorted, if present (`pub` for the micro bench's `btree_find_in_leaf_*`
/// rungs).
pub fn find_in_leaf(b: &[u8], head: usize, key: u64) -> Option<usize> {
    let (sorted, tail) = entry_records(b).split_at(head);
    let at = search_head(sorted, key, false);
    if sorted.get(at).is_some_and(|e| record_key(e) == key) {
        return Some(at);
    }
    tail.iter()
        .position(|e| record_key(e) == key)
        .map(|i| head + i)
}

/// The entries of leaf `b` (first `head` sorted) with keys in `lo..=hi`,
/// in entry order, and whether any key lies beyond `hi`.
fn leaf_range(b: &[u8], head: usize, lo: u64, hi: u64) -> (Vec<(u64, u64)>, bool) {
    let pair = |e: &[u8; ENTRY]| (record_key(e), record_val(e));
    let (sorted, tail) = entry_records(b).split_at(head);
    let from = search_head(sorted, lo, false);
    let to = search_head(sorted, hi, true);
    let mut in_range: Vec<_> = sorted[from..to.max(from)].iter().map(pair).collect();
    let mut beyond = to < head;
    for e in tail {
        let k = record_key(e);
        if k >= lo && k <= hi {
            in_range.push(pair(e));
        } else if k > hi {
            beyond = true;
        }
    }
    (in_range, beyond)
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
        let next = read_node(txn, pid, |b, head| {
            (node_type(b) == INTERNAL).then(|| search_child(b, head, key))
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
    if let Some(slot) = read_node(txn, leaf, |b, head| find_in_leaf(b, head, key)) {
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
    read_node(txn, leaf, |b, head| {
        find_in_leaf(b, head, key).map(|i| entry(b, i).1)
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
        let (mut in_range, any_beyond, next) = read_node(txn, leaf, |b, head| {
            let (in_range, beyond) = leaf_range(b, head, lo, hi);
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
    let slot = read_node(txn, leaf, |b, head| find_in_leaf(b, head, key));
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

    /// The per-entry indexed loops the kernels replaced, kept as the
    /// reference they are compared against: each is the kernel at head 0.
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

    fn leaf_range_indexed(b: &[u8], lo: u64, hi: u64) -> (Vec<(u64, u64)>, bool) {
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
        (in_range, beyond)
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
                // Four nodes in five get a sorted head of `cut` entries
                // ahead of an unsorted tail, as bulk loads, splits and
                // appends leave them; with repeats, a head key recurs in
                // the head and in the tail.
                let cut = if round % 5 == 4 {
                    0
                } else {
                    rng.gen_range(0..=n as u64) as usize
                };
                if round % 3 != 0 && cut >= 2 {
                    es[1].0 = es[0].0;
                }
                es[..cut].sort_unstable_by_key(|&(k, _)| k);
                if round % 3 != 0 && cut >= 1 && cut < n {
                    let (from, to) = (
                        rng.gen_range(0..cut as u64),
                        rng.gen_range(cut as u64..n as u64),
                    );
                    es[to as usize].0 = es[from as usize].0;
                }
                write_entries(&mut b, &es);
                let full = sorted_head(&b) as usize;
                assert!(full >= cut && full <= n, "head {full} of {n}, cut {cut}");
                assert!(es[..full].is_sorted_by_key(|&(k, _)| k), "head unsorted");
                assert!(full == n || es[full].0 < es[full - 1].0, "head stops early");
                // Every head length the kernels may be given, when that
                // is cheap; the ends and the middle otherwise.
                let heads: Vec<usize> = if cap < 64 || round % 16 == 3 {
                    (0..=full).collect()
                } else {
                    vec![0, full / 2, full]
                };
                // Every stored key is a probe, or every fourth on a large
                // node checked at every head length.
                let stride = if heads.len() > 64 { 4 } else { 1 };
                let probes = (0..64)
                    .map(|_| 100 + rng.gen_range(0..domain))
                    .chain(es.iter().step_by(stride).map(|&(k, _)| k))
                    // Below every key, above every key, the extremes.
                    .chain([0, 99, 100 + domain, u64::MAX]);
                for key in probes.collect::<Vec<_>>() {
                    let hi = key.saturating_add(rng.gen_range(0..domain / 4));
                    let child = search_child_indexed(&b, key);
                    let found = find_in_leaf_indexed(&b, key);
                    let in_range = leaf_range_indexed(&b, key, hi);
                    for &head in &heads {
                        let at = (n, head, key, hi);
                        assert_eq!(search_child(&b, head, key), child, "search_child {at:?}");
                        assert_eq!(find_in_leaf(&b, head, key), found, "find_in_leaf {at:?}");
                        assert_eq!(leaf_range(&b, head, key, hi), in_range, "leaf_range {at:?}");
                    }
                }
                assert_eq!(
                    leaf_range(&b, full, 500, 400),
                    leaf_range_indexed(&b, 500, 400)
                );
            }
        }
    }

    /// `search_head` against `partition_point` for both predicates, on the
    /// key shapes that steer its guess well and badly, at every head
    /// length a bulk-loaded 8 KB leaf can have.
    #[test]
    fn search_head_matches_partition_point() {
        let mut rng = SmallRng::seed_from_u64(0x5EA7);
        for n in 0..=357u64 {
            let base = rng.gen_range(1..1u64 << 40);
            let shapes: [(&str, Vec<u64>); 6] = [
                ("dense", (0..n).map(|i| base + i).collect()),
                ("sparse", {
                    let stride = rng.gen_range(2..1u64 << 44);
                    (0..n).map(|i| base + i * stride).collect()
                }),
                // Runs of consecutive keys behind large gaps.
                ("clustered", {
                    let mut k = base;
                    (0..n)
                        .map(|_| {
                            k += if rng.gen_ratio(1, 16) {
                                rng.gen_range(1..1u64 << 36)
                            } else {
                                1
                            };
                            k
                        })
                        .collect()
                }),
                // Half near the bottom of the key space, half near its middle.
                ("two-cluster", {
                    (0..n)
                        .map(|i| if i < n / 2 { base + i } else { (1 << 63) + i })
                        .collect()
                }),
                // Long runs of one key: a leaf of duplicates, or repeated
                // separators.
                ("duplicate-run", {
                    let run = rng.gen_range(1..=n.max(1));
                    (0..n).map(|i| base + i / run * 7).collect()
                }),
                // Both ends of the key space.
                ("extreme", {
                    let mut ks: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
                    if n >= 1 {
                        ks[0] = 0;
                    }
                    if n >= 2 {
                        ks[1] = u64::MAX;
                    }
                    if n >= 4 {
                        ks[2] = u64::MAX;
                        ks[3] = u64::MAX - 1;
                    }
                    ks.sort_unstable();
                    ks
                }),
            ];
            for (shape, keys) in shapes {
                assert!(keys.is_sorted(), "{shape} keys unsorted");
                let head: Vec<[u8; ENTRY]> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| entry_bytes(k, i as u64))
                    .collect();
                let (first, last) = (keys.first().copied(), keys.last().copied());
                let probes = keys
                    .iter()
                    // Present, and the absent (or neighbouring) keys beside them.
                    .flat_map(|&k| [k, k.wrapping_sub(1), k.wrapping_add(1)])
                    // Below the first key and above the last.
                    .chain(first.map(|k| k.saturating_sub(1)))
                    .chain(last.map(|k| k.saturating_add(1)))
                    .chain([0, 1, u64::MAX - 1, u64::MAX])
                    .collect::<Vec<_>>();
                // Anywhere, and anywhere between the ends.
                let anywhere = (0..16).map(|_| rng.next_u64()).collect::<Vec<_>>();
                let between = (0..16)
                    .filter_map(|_| Some(rng.gen_range(first?..=last?)))
                    .collect::<Vec<_>>();
                for key in probes.into_iter().chain(anywhere).chain(between) {
                    for inclusive in [false, true] {
                        let want = head.partition_point(|e| {
                            let k = record_key(e);
                            if inclusive {
                                k <= key
                            } else {
                                k < key
                            }
                        });
                        assert_eq!(
                            search_head(&head, key, inclusive),
                            want,
                            "{shape} n={n} key={key} inclusive={inclusive}"
                        );
                    }
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
        assert_eq!(sorted_head(&b), 1);
        for head in [0, 1] {
            assert_eq!(search_child(&b, head, 5), 100);
            assert_eq!(search_child(&b, head, 10), 101);
            assert_eq!(search_child(&b, head, 49), 101);
            assert_eq!(search_child(&b, head, 50), 102);
            assert_eq!(search_child(&b, head, 1000), 102);
        }
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
