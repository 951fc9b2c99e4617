//! The SSD heap array: two binary min-heaps sharing one array (Figure 4).
//!
//! > "This SSD heap array is divided into clean and dirty heaps. The clean
//! > heap stores the root (the oldest page that will be chosen for
//! > replacement) at the first element of the array, and grows to the
//! > right. The dirty heap stores the root (the oldest page that will be
//! > first 'cleaned' by the LC thread) at the last element of the array,
//! > and grows to the left."
//!
//! Keys are LRU-2 distances (`(penultimate, last)` access stamps): the
//! minimum of the clean heap is the replacement victim; the minimum of the
//! dirty heap is the next page the lazy cleaner flushes. Each entry carries
//! the index of its SSD buffer-table record, and the heap maintains a
//! record → position index so records can be repositioned (on re-access) or
//! removed (on invalidation) in `O(log n)`.

/// Heap ordering key: the LRU-2 distance of a page.
pub type Key = (u64, u64);

/// Which of the two heaps an entry lives in.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Side {
    Clean,
    Dirty,
}

#[derive(Copy, Clone, Debug)]
struct Entry {
    key: Key,
    rec: usize,
}

/// Two min-heaps packed into one fixed array, indexed by record id.
#[derive(Debug)]
pub struct DualHeap {
    cap: usize,
    slots: Vec<Option<Entry>>,
    clean_len: usize,
    dirty_len: usize,
    /// `pos[rec] = (side, heap-local index)`.
    pos: Vec<Option<(Side, usize)>>,
}

impl DualHeap {
    /// A heap array for `cap` records with ids `0..cap`.
    pub fn new(cap: usize) -> Self {
        DualHeap {
            cap,
            slots: vec![None; cap],
            clean_len: 0,
            dirty_len: 0,
            pos: vec![None; cap],
        }
    }

    /// Number of entries on `side`.
    pub fn len(&self, side: Side) -> usize {
        match side {
            Side::Clean => self.clean_len,
            Side::Dirty => self.dirty_len,
        }
    }

    /// True when both heaps are empty.
    pub fn is_empty(&self) -> bool {
        self.clean_len == 0 && self.dirty_len == 0
    }

    /// Which heap holds `rec`, if any.
    pub fn side_of(&self, rec: usize) -> Option<Side> {
        self.pos[rec].map(|(s, _)| s)
    }

    #[inline]
    fn len_mut(&mut self, side: Side) -> &mut usize {
        match side {
            Side::Clean => &mut self.clean_len,
            Side::Dirty => &mut self.dirty_len,
        }
    }

    /// Array slot of heap-local index `i` on `side`.
    #[inline]
    fn slot(&self, side: Side, i: usize) -> usize {
        match side {
            Side::Clean => i,
            Side::Dirty => self.cap - 1 - i,
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "heap slot bookkeeping invariant; a miss here is a logic bug, fail fast"
    )]
    fn entry(&self, side: Side, i: usize) -> Entry {
        self.slots[self.slot(side, i)].expect("occupied heap slot")
    }

    /// Where record `rec` sits (it must be in a heap).
    #[expect(
        clippy::expect_used,
        reason = "pos[] and slots[] move in lockstep; an absent record is heap corruption"
    )]
    fn position(&self, rec: usize) -> (Side, usize) {
        self.pos[rec].expect("record is in a heap")
    }

    fn set_entry(&mut self, side: Side, i: usize, e: Entry) {
        let s = self.slot(side, i);
        self.slots[s] = Some(e);
        self.pos[e.rec] = Some((side, i));
    }

    fn clear_entry(&mut self, side: Side, i: usize) {
        let s = self.slot(side, i);
        if let Some(e) = self.slots[s].take() {
            self.pos[e.rec] = None;
        }
    }

    fn sift_up(&mut self, side: Side, mut i: usize) {
        let e = self.entry(side, i);
        while i > 0 {
            let parent = (i - 1) / 2;
            let pe = self.entry(side, parent);
            if pe.key <= e.key {
                break;
            }
            self.set_entry(side, i, pe);
            i = parent;
        }
        self.set_entry(side, i, e);
    }

    fn sift_down(&mut self, side: Side, mut i: usize) {
        let len = self.len(side);
        let e = self.entry(side, i);
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let child = if r < len && self.entry(side, r).key < self.entry(side, l).key {
                r
            } else {
                l
            };
            let ce = self.entry(side, child);
            if e.key <= ce.key {
                break;
            }
            self.set_entry(side, i, ce);
            i = child;
        }
        self.set_entry(side, i, e);
    }

    /// Insert record `rec` with `key` into `side`. Panics if the record is
    /// already in a heap or the array is full (both heaps together hold at
    /// most `cap` entries — one per SSD frame).
    pub fn insert(&mut self, side: Side, key: Key, rec: usize) {
        assert!(self.pos[rec].is_none(), "record {rec} already in a heap");
        assert!(
            self.clean_len + self.dirty_len < self.cap,
            "heap array full"
        );
        let i = self.len(side);
        *self.len_mut(side) += 1;
        self.set_entry(side, i, Entry { key, rec });
        self.sift_up(side, i);
    }

    /// Remove record `rec` from whichever heap holds it.
    pub fn remove(&mut self, rec: usize) -> Option<Side> {
        let (side, i) = self.pos[rec]?;
        let last = self.len(side) - 1;
        if i == last {
            self.clear_entry(side, i);
            *self.len_mut(side) -= 1;
        } else {
            let moved = self.entry(side, last);
            self.clear_entry(side, last);
            self.clear_entry(side, i);
            *self.len_mut(side) -= 1;
            self.set_entry(side, i, moved);
            self.sift_down(side, i);
            self.sift_up(side, i);
        }
        Some(side)
    }

    /// Change the key of `rec` in place (re-access updates its LRU-2
    /// distance).
    pub fn update(&mut self, rec: usize, key: Key) {
        let (side, i) = self.position(rec);
        self.set_entry(side, i, Entry { key, rec });
        self.sift_down(side, i);
        self.sift_up(side, i);
    }

    /// Move `rec` between heaps, keeping its key (a dirty page was cleaned,
    /// or a clean page re-admitted dirty).
    pub fn change_side(&mut self, rec: usize, to: Side) {
        let (side, i) = self.position(rec);
        if side == to {
            return;
        }
        let key = self.entry(side, i).key;
        self.remove(rec);
        self.insert(to, key, rec);
    }

    /// The minimum entry of `side` without removing it.
    pub fn peek_min(&self, side: Side) -> Option<(Key, usize)> {
        if self.len(side) == 0 {
            None
        } else {
            let e = self.entry(side, 0);
            Some((e.key, e.rec))
        }
    }

    /// Remove and return the minimum entry of `side`.
    pub fn pop_min(&mut self, side: Side) -> Option<(Key, usize)> {
        let (key, rec) = self.peek_min(side)?;
        self.remove(rec);
        Some((key, rec))
    }

    /// Internal-consistency check used by property tests: heap order holds
    /// on both sides, positions round-trip, lengths match occupancy.
    #[cfg(test)]
    pub fn validate(&self) {
        let mut occupied = 0;
        for side in [Side::Clean, Side::Dirty] {
            let len = self.len(side);
            occupied += len;
            for i in 0..len {
                let e = self.entry(side, i);
                assert_eq!(self.pos[e.rec], Some((side, i)), "pos index broken");
                if i > 0 {
                    let parent = self.entry(side, (i - 1) / 2);
                    assert!(parent.key <= e.key, "heap order violated");
                }
            }
        }
        let filled = self.slots.iter().filter(|s| s.is_some()).count();
        assert_eq!(filled, occupied, "slot occupancy mismatch");
        assert!(self.clean_len + self.dirty_len <= self.cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};

    #[test]
    fn min_pops_in_key_order() {
        let mut h = DualHeap::new(8);
        h.insert(Side::Clean, (5, 0), 0);
        h.insert(Side::Clean, (1, 0), 1);
        h.insert(Side::Clean, (3, 0), 2);
        assert_eq!(h.pop_min(Side::Clean), Some(((1, 0), 1)));
        assert_eq!(h.pop_min(Side::Clean), Some(((3, 0), 2)));
        assert_eq!(h.pop_min(Side::Clean), Some(((5, 0), 0)));
        assert_eq!(h.pop_min(Side::Clean), None);
    }

    #[test]
    fn clean_and_dirty_share_the_array() {
        let mut h = DualHeap::new(4);
        h.insert(Side::Clean, (1, 0), 0);
        h.insert(Side::Clean, (2, 0), 1);
        h.insert(Side::Dirty, (3, 0), 2);
        h.insert(Side::Dirty, (4, 0), 3);
        h.validate();
        assert_eq!(h.len(Side::Clean), 2);
        assert_eq!(h.len(Side::Dirty), 2);
        assert_eq!(h.peek_min(Side::Clean), Some(((1, 0), 0)));
        assert_eq!(h.peek_min(Side::Dirty), Some(((3, 0), 2)));
    }

    #[test]
    #[should_panic(expected = "already in a heap")]
    fn double_insert_panics() {
        let mut h = DualHeap::new(2);
        h.insert(Side::Clean, (1, 0), 0);
        // A record occupies exactly one heap slot at a time.
        h.insert(Side::Dirty, (2, 0), 0);
    }

    #[test]
    fn update_repositions() {
        let mut h = DualHeap::new(4);
        h.insert(Side::Clean, (1, 0), 0);
        h.insert(Side::Clean, (2, 0), 1);
        h.insert(Side::Clean, (3, 0), 2);
        // Record 0 is re-accessed: now the youngest.
        h.update(0, (9, 9));
        h.validate();
        assert_eq!(h.pop_min(Side::Clean), Some(((2, 0), 1)));
        assert_eq!(h.pop_min(Side::Clean), Some(((3, 0), 2)));
        assert_eq!(h.pop_min(Side::Clean), Some(((9, 9), 0)));
    }

    #[test]
    fn change_side_moves_between_heaps() {
        let mut h = DualHeap::new(4);
        h.insert(Side::Dirty, (1, 0), 0);
        h.insert(Side::Dirty, (2, 0), 1);
        // Record 0 was cleaned: it becomes a replacement candidate.
        h.change_side(0, Side::Clean);
        h.validate();
        assert_eq!(h.side_of(0), Some(Side::Clean));
        assert_eq!(h.peek_min(Side::Dirty), Some(((2, 0), 1)));
        assert_eq!(h.peek_min(Side::Clean), Some(((1, 0), 0)));
    }

    #[test]
    fn remove_middle_preserves_order() {
        let mut h = DualHeap::new(8);
        for (rec, k) in [(0, 4), (1, 2), (2, 6), (3, 1), (4, 5)] {
            h.insert(Side::Clean, (k, 0), rec);
        }
        assert_eq!(h.remove(2), Some(Side::Clean));
        assert_eq!(h.remove(2), None, "double remove is a no-op");
        h.validate();
        let mut popped = Vec::new();
        while let Some((k, _)) = h.pop_min(Side::Clean) {
            popped.push(k.0);
        }
        assert_eq!(popped, vec![1, 2, 4, 5]);
    }

    /// Model check: random insert/remove/update/pop against a sorted
    /// reference model, validating structure at every step. 64 seeded
    /// cases of up to 200 operations each.
    #[test]
    fn behaves_like_model() {
        use std::collections::BTreeSet;
        for case in 0u64..64 {
            let mut rng = SmallRng::seed_from_u64(0xD0A1_4EA9 ^ case);
            let n_ops = rng.gen_range(1usize..200);
            let cap = 16;
            let mut h = DualHeap::new(cap);
            // model[side] = set of (key, rec)
            let mut model: [BTreeSet<(Key, usize)>; 2] = [BTreeSet::new(), BTreeSet::new()];
            let side_ix = |s: Side| match s {
                Side::Clean => 0,
                Side::Dirty => 1,
            };

            for _ in 0..n_ops {
                let op = rng.gen_range(0u8..5);
                let rec = rng.gen_range(0usize..16);
                let k = rng.gen_range(0u64..50);
                let key = (k, k.wrapping_mul(7) % 13);
                let in_heap = h.side_of(rec);
                match op {
                    0 | 1 => {
                        // insert into clean/dirty
                        let side = if op == 0 { Side::Clean } else { Side::Dirty };
                        if in_heap.is_none() && model[0].len() + model[1].len() < cap {
                            h.insert(side, key, rec);
                            model[side_ix(side)].insert((key, rec));
                        }
                    }
                    2 => {
                        // remove
                        let removed = h.remove(rec);
                        if let Some(side) = removed {
                            let found = model[side_ix(side)]
                                .iter()
                                .find(|(_, r)| *r == rec)
                                .copied();
                            let found = found.expect("model misses removed record");
                            model[side_ix(side)].remove(&found);
                        } else {
                            assert!(in_heap.is_none());
                        }
                    }
                    3 => {
                        // update key
                        if let Some(side) = in_heap {
                            let old = model[side_ix(side)]
                                .iter()
                                .find(|(_, r)| *r == rec)
                                .copied()
                                .expect("model misses updated record");
                            model[side_ix(side)].remove(&old);
                            model[side_ix(side)].insert((key, rec));
                            h.update(rec, key);
                        }
                    }
                    _ => {
                        // pop min from a side chosen by parity of rec
                        let side = if rec % 2 == 0 {
                            Side::Clean
                        } else {
                            Side::Dirty
                        };
                        let got = h.pop_min(side);
                        let want = model[side_ix(side)].iter().next().copied();
                        match (got, want) {
                            (Some((gk, grec)), Some((wk, _))) => {
                                assert_eq!(gk, wk, "pop returned non-minimum");
                                // Remove the exact popped element from model.
                                let popped = model[side_ix(side)]
                                    .iter()
                                    .find(|(kk, rr)| *kk == gk && *rr == grec)
                                    .copied()
                                    .expect("popped element absent from model");
                                model[side_ix(side)].remove(&popped);
                            }
                            (None, None) => {}
                            _ => panic!("pop/model emptiness disagreement"),
                        }
                    }
                }
                h.validate();
                assert_eq!(h.len(Side::Clean), model[0].len());
                assert_eq!(h.len(Side::Dirty), model[1].len());
            }
        }
    }
}
