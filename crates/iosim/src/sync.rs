//! Poison-free wrappers over `std::sync` locks, with a debug-build
//! lock-rank check.
//!
//! The workspace builds hermetically with the standard library only, so
//! these wrappers stand in for `parking_lot`: `lock()`/`read()`/`write()`
//! return guards directly instead of a `Result`. A poisoned lock is
//! recovered rather than propagated — every critical section in this
//! repository leaves its protected data structurally valid even when a
//! *test* thread panics mid-section (panics are how property tests and
//! `debug_assert!`s report failures), so continuing with the inner value
//! is sound and keeps the locking API infallible.
//!
//! # Lock ranks
//!
//! A lock built with [`Mutex::ranked`] or [`RwLock::ranked`] belongs to a
//! [`Rank`], and the enum's declaration order is the workspace's lock
//! acquisition order. Locks built with `new` are untracked leaves. In
//! debug builds every acquisition of a ranked lock (`lock`, `try_lock`,
//! `read`, `write`) asserts that its rank is at least every rank the
//! thread already holds — equal ranks may nest, as two frame latches do —
//! and pushes it onto a thread-local stack that the guard's drop pops.
//! `IoManager`'s I/O entry points assert that the thread holds no ranked
//! lock, except the ones held when it entered an [`io_under_latch`]
//! section. The checks see every path a test runs, across crates and
//! through `dyn` calls. Release builds compile them out: a guard is the
//! `std` guard plus a zero-sized field.

use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, PoisonError, TryLockError};

/// Lock classes in acquisition order: a thread holding a lock of one rank
/// may only acquire locks of the same or a later rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// The engine's catalog (`Database::catalog`).
    Catalog,
    /// The memory pool's page table (`BufferPool::inner`).
    PoolTable,
    /// The pool's classifier, taken under the table on a miss.
    Classifier,
    /// Pool frame latches (`BufferPool::data`), held into the SSD tier by
    /// a fill and by an evicted frame's write-behind.
    FrameData,
    /// SSD buffer-table partitions (`SsdManager::parts`), one for TAC.
    SsdPartition,
    /// The invariant auditor's shadow table, reported to under one.
    AuditorStates,
    /// The throughput recorder's buckets (`ThroughputRecorder::counts`).
    ThroughputCounts,
}

/// Run `f`, inside which the calling thread may reach an I/O entry point
/// while still holding the ranked locks it holds now (but none it takes
/// inside `f`). `reason` states why holding them across the I/O is sound.
pub fn io_under_latch<R>(reason: &str, f: impl FnOnce() -> R) -> R {
    rank::io_under_latch(reason, f)
}

/// Assert that the calling thread may issue I/O now: it holds no ranked
/// lock beyond those an enclosing [`io_under_latch`] allows. `entry` names
/// the I/O entry point for the panic message.
pub(crate) fn assert_io_allowed(entry: &str) {
    rank::assert_io_allowed(entry);
}

#[cfg(debug_assertions)]
mod rank {
    use super::Rank;
    use std::cell::{Cell, RefCell};

    /// A lock's rank, if it is tracked.
    pub(super) type Slot = Option<Rank>;

    pub(super) fn slot(rank: Rank) -> Slot {
        Some(rank)
    }

    thread_local! {
        /// Ranks of the tracked locks this thread holds, in acquisition order.
        pub(super) static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
        /// How many entries of `HELD` an I/O call may find (`io_under_latch`).
        static IO_OK: Cell<usize> = const { Cell::new(0) };
    }

    /// One held tracked lock; dropping it takes its rank off the stack.
    pub(super) struct Held(Slot);

    impl Held {
        /// Check and record the acquisition of a lock in `slot`; called
        /// before blocking, so an inversion panics instead of deadlocking.
        pub(super) fn acquire(slot: Slot) -> Held {
            if let Some(rank) = slot {
                HELD.with_borrow_mut(|held| {
                    assert!(
                        held.iter().all(|&r| r <= rank),
                        "lock-rank inversion: acquiring {rank:?} while holding {held:?}; \
                         see sync::Rank for the order"
                    );
                    held.push(rank);
                });
            }
            Held(slot)
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // Guards may drop in any order; equal ranks are
            // interchangeable, so removing the latest one is exact.
            if let Some(rank) = self.0 {
                HELD.with_borrow_mut(|held| {
                    if let Some(i) = held.iter().rposition(|&r| r == rank) {
                        held.remove(i);
                    }
                });
            }
        }
    }

    pub(super) fn io_under_latch<R>(_reason: &str, f: impl FnOnce() -> R) -> R {
        let saved = IO_OK.replace(HELD.with_borrow(Vec::len));
        let out = f();
        IO_OK.set(saved);
        out
    }

    pub(super) fn assert_io_allowed(entry: &str) {
        HELD.with_borrow(|held| {
            let ok = IO_OK.get();
            assert!(
                held.len() <= ok,
                "{entry} issued while holding {:?}; hold no latch across I/O, \
                 or justify the site with sync::io_under_latch",
                &held[ok..]
            );
        });
    }
}

#[cfg(not(debug_assertions))]
mod rank {
    use super::Rank;

    pub(super) type Slot = ();

    #[inline(always)]
    pub(super) fn slot(_: Rank) -> Slot {}

    pub(super) struct Held;

    impl Held {
        #[inline(always)]
        pub(super) fn acquire(_: Slot) -> Held {
            Held
        }
    }

    #[inline(always)]
    pub(super) fn io_under_latch<R>(_reason: &str, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    pub(super) fn assert_io_allowed(_: &str) {}
}

/// A lock guard: the `std` guard `G`, plus the rank it holds in debug
/// builds.
pub struct Guard<G> {
    guard: G,
    _held: rank::Held,
}

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = Guard<std::sync::MutexGuard<'a, T>>;
/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = Guard<std::sync::RwLockReadGuard<'a, T>>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = Guard<std::sync::RwLockWriteGuard<'a, T>>;

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// Check and record `rank`, then block in `acquire`, recovering from
/// poisoning.
fn guard<G>(rank: rank::Slot, acquire: impl FnOnce() -> LockResult<G>) -> Guard<G> {
    let held = rank::Held::acquire(rank);
    Guard {
        guard: acquire().unwrap_or_else(PoisonError::into_inner),
        _held: held,
    }
}

/// A mutual-exclusion lock with an infallible `lock()`.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    lock: std::sync::Mutex<T>,
    rank: rank::Slot,
}

impl<T> Mutex<T> {
    /// An untracked lock.
    pub fn new(value: T) -> Self {
        Mutex {
            lock: std::sync::Mutex::new(value),
            rank: Default::default(),
        }
    }

    /// A lock of class `rank` (see the module docs).
    pub fn ranked(rank: Rank, value: T) -> Self {
        Mutex {
            lock: std::sync::Mutex::new(value),
            rank: rank::slot(rank),
        }
    }

    /// Acquire the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        guard(self.rank, || self.lock.lock())
    }

    /// Try to acquire the lock without blocking, recovering from
    /// poisoning. Returns `None` only when another thread holds the
    /// lock right now — the pool, TAC and SSD-partition latch helpers use
    /// this to count contended acquisitions before falling back to a
    /// blocking `lock()`.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let held = rank::Held::acquire(self.rank);
        let guard = match self.lock.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(Guard { guard, _held: held })
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.lock
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.lock.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A readers-writer lock with infallible `read()`/`write()`.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    lock: std::sync::RwLock<T>,
    rank: rank::Slot,
}

impl<T> RwLock<T> {
    /// An untracked lock.
    pub fn new(value: T) -> Self {
        RwLock {
            lock: std::sync::RwLock::new(value),
            rank: Default::default(),
        }
    }

    /// A lock of class `rank` (see the module docs).
    pub fn ranked(rank: Rank, value: T) -> Self {
        RwLock {
            lock: std::sync::RwLock::new(value),
            rank: rank::slot(rank),
        }
    }

    /// Acquire a shared read guard, recovering from poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        guard(self.rank, || self.lock.read())
    }

    /// Acquire an exclusive write guard, recovering from poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        guard(self.rank, || self.lock.write())
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.lock
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(vec![1u8]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = std::sync::Arc::clone(&m);
        #[expect(
            clippy::disallowed_methods,
            reason = "poisoning needs a thread that panics holding the lock"
        )]
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7, "lock stays usable after a panic");
    }

    #[cfg(debug_assertions)]
    mod ranks {
        use super::super::*;
        use crate::{Clk, DeviceSetup, IoManager, Locality, PageId};

        fn held() -> Vec<Rank> {
            rank::HELD.with_borrow(Vec::clone)
        }

        #[test]
        #[should_panic(expected = "acquiring PoolTable while holding [SsdPartition]")]
        fn inversion_panics() {
            let (pool_table, ssd_table) = (
                Mutex::ranked(Rank::PoolTable, ()),
                Mutex::ranked(Rank::SsdPartition, ()),
            );
            let _ssd = ssd_table.lock();
            let _pool = pool_table.lock();
        }

        #[test]
        fn equal_ranks_nest_and_guards_drop_in_any_order() {
            let frames = [
                RwLock::ranked(Rank::FrameData, ()),
                RwLock::ranked(Rank::FrameData, ()),
            ];
            let (part, leaf) = (Mutex::ranked(Rank::SsdPartition, ()), Mutex::new(()));
            let (a, b) = (frames[1].write(), frames[0].read());
            let (p, _untracked) = (part.lock(), leaf.lock());
            drop(a);
            assert_eq!(held(), [Rank::FrameData, Rank::SsdPartition]);
            drop((p, b));
            assert!(held().is_empty());
        }

        #[test]
        #[should_panic(expected = "acquiring FrameData while holding [SsdPartition]")]
        fn try_lock_is_tracked_like_lock() {
            let part = Mutex::ranked(Rank::SsdPartition, ());
            let frame = Mutex::ranked(Rank::FrameData, ());
            let _p = part.try_lock().expect("uncontended");
            assert_eq!(held(), [Rank::SsdPartition]);
            let _f = frame.try_lock();
        }

        fn io() -> IoManager {
            IoManager::new(&DeviceSetup::paper(64, 16, 4))
        }

        #[test]
        #[should_panic(expected = "read_disk issued while holding [FrameData]")]
        fn io_under_a_ranked_latch_panics() {
            let (io, frame) = (io(), RwLock::ranked(Rank::FrameData, ()));
            let _f = frame.write();
            let mut buf = [0u8; 64];
            let _ = io.read_disk(&mut Clk::new(), PageId(1), &mut buf[..], Locality::Random);
        }

        #[test]
        fn io_under_latch_admits_the_latches_held_at_entry() {
            let (io, frame) = (io(), RwLock::ranked(Rank::FrameData, ()));
            let mut clk = Clk::new();
            let f = frame.write();
            io_under_latch("test: the latched frame is the one being written", || {
                io.write_ssd_sync(&mut clk, 0, &[1u8; 64][..], PageId(1))
            })
            .expect("healthy SSD");
            drop(f);
            let mut buf = [0u8; 64];
            io.read_ssd(&mut clk, 0, &mut buf[..])
                .expect("no latch held");
            assert_eq!(buf, [1u8; 64]);
        }

        #[test]
        #[should_panic(expected = "read_ssd issued while holding [SsdPartition]")]
        fn io_under_latch_does_not_admit_latches_taken_inside() {
            let (io, frame) = (io(), RwLock::ranked(Rank::FrameData, ()));
            let part = Mutex::ranked(Rank::SsdPartition, ());
            let _f = frame.write();
            io_under_latch("test: only the frame latch is justified", || {
                let _p = part.lock();
                let _ = io.read_ssd(&mut Clk::new(), 0, &mut [0u8; 64][..]);
            });
        }
    }
}
