//! Shard-count resolution and page-id → shard routing.
//!
//! The DRAM pool and the TAC table are both lock-striped by page id
//! (ISSUE 9): N shards, each behind its own latch, with shard assignment
//! a *pure function* of the page id so that replay stays bit-identical
//! regardless of how many OS threads drive the simulation. `shards = 1`
//! degenerates to the historical single-latch layout bit-for-bit.
//!
//! Determinism note: `ShardCount::Auto` resolves against a *configured*
//! parallelism hint (default 1), never against the host's core count —
//! otherwise the same seed would produce different shard layouts (and
//! different eviction orders) on different machines, breaking the
//! fingerprint gates in `tests/policy_default_regression.rs`.

use turbopool_iosim::PidHasher;

/// How many lock stripes a sharded table should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardCount {
    /// Resolve from the configured parallelism hint (`shard_hint`, which
    /// defaults to 1 — the legacy single-latch layout).
    Auto,
    /// Exactly this many shards (rounded up to a power of two, clamped
    /// to the frame count). `Fixed(1)` is the legacy layout.
    Fixed(usize),
}

impl Default for ShardCount {
    fn default() -> Self {
        ShardCount::Auto
    }
}

impl ShardCount {
    /// Resolve to a concrete power-of-two shard count in `1..=frames`.
    ///
    /// `hint` is the configured parallelism hint consulted by `Auto`;
    /// `frames` bounds the count so every shard owns at least one frame.
    pub fn resolve(self, hint: usize, frames: usize) -> usize {
        let want = match self {
            ShardCount::Auto => hint.max(1),
            ShardCount::Fixed(n) => n.max(1),
        };
        let mut n = want.next_power_of_two();
        let cap = frames.max(1);
        while n > cap {
            n /= 2;
        }
        n
    }
}

/// Fibonacci-hash a routing key into one of `nshards` (power of two)
/// shards. With `nshards == 1` every key maps to shard 0.
#[inline]
pub fn shard_of(key: u64, nshards: usize) -> usize {
    debug_assert!(nshards.is_power_of_two());
    ((key.wrapping_mul(PidHasher::FIB) >> 32) as usize) & (nshards - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rounds_to_power_of_two_and_clamps() {
        assert_eq!(ShardCount::Fixed(1).resolve(8, 1024), 1);
        assert_eq!(ShardCount::Fixed(3).resolve(1, 1024), 4);
        assert_eq!(ShardCount::Fixed(16).resolve(1, 1024), 16);
        // Clamped so every shard owns at least one frame.
        assert_eq!(ShardCount::Fixed(16).resolve(1, 4), 4);
        assert_eq!(ShardCount::Fixed(16).resolve(1, 1), 1);
        assert_eq!(ShardCount::Fixed(0).resolve(1, 64), 1);
    }

    #[test]
    fn auto_follows_hint_not_host() {
        assert_eq!(ShardCount::Auto.resolve(1, 1024), 1, "default is legacy");
        assert_eq!(ShardCount::Auto.resolve(6, 1024), 8);
        assert_eq!(ShardCount::Auto.resolve(0, 1024), 1);
        assert_eq!(ShardCount::Auto.resolve(8, 5), 4, "clamped to frames");
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        for k in 0..1000u64 {
            assert_eq!(shard_of(k, 1), 0);
        }
    }

    #[test]
    fn routing_is_spread_and_pure() {
        let n = 16;
        let mut counts = vec![0usize; n];
        for k in 0..16_000u64 {
            let s = shard_of(k, n);
            assert_eq!(s, shard_of(k, n), "pure function of the key");
            counts[s] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 500, "shard {i} starved: {c}/16000");
        }
    }
}
