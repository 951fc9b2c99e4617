//! Virtual time.
//!
//! All simulation time is expressed in nanoseconds of *virtual* time as a
//! plain `u64`. A [`Clk`] is owned by each logical client (a transaction
//! stream, the lazy-cleaning thread, the checkpointer, ...) and advances only
//! when that client waits for a synchronous event.

/// Virtual time in nanoseconds since the start of the run.
pub type Time = u64;

/// One microsecond of virtual time.
pub const MICROSECOND: Time = 1_000;
/// One millisecond of virtual time.
pub const MILLISECOND: Time = 1_000_000;
/// One second of virtual time.
pub const SECOND: Time = 1_000_000_000;
/// One minute of virtual time.
pub const MINUTE: Time = 60 * SECOND;
/// One hour of virtual time.
pub const HOUR: Time = 60 * MINUTE;

/// A logical client's virtual clock.
///
/// The clock is passed by `&mut` through every synchronous operation; the
/// operation advances `now` to its completion time. Clocks never move
/// backwards: waiting for an event that completed in the past is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clk {
    /// Current virtual time of this client.
    pub now: Time,
}

impl Clk {
    /// A clock starting at virtual time zero.
    pub fn new() -> Self {
        Clk { now: 0 }
    }

    /// A clock starting at time `now`.
    pub fn at(now: Time) -> Self {
        Clk { now }
    }

    /// Wait until `t`: advances the clock if `t` is in the future, otherwise
    /// does nothing (the event already happened).
    #[inline]
    pub fn wait_until(&mut self, t: Time) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Spend `d` nanoseconds of virtual time (e.g. modeled CPU work).
    #[inline]
    pub fn elapse(&mut self, d: Time) {
        self.now += d;
    }
}

impl Default for Clk {
    fn default() -> Self {
        Self::new()
    }
}

/// Render a virtual time as fractional hours, as used by the paper's
/// time-series figures.
pub fn as_hours(t: Time) -> f64 {
    t as f64 / HOUR as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_until_only_moves_forward() {
        let mut c = Clk::new();
        c.wait_until(50);
        assert_eq!(c.now, 50);
        c.wait_until(10);
        assert_eq!(c.now, 50);
        c.elapse(5);
        assert_eq!(c.now, 55);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(SECOND, 1_000 * MILLISECOND);
        assert_eq!(MILLISECOND, 1_000 * MICROSECOND);
        assert_eq!(HOUR, 3_600 * SECOND);
        assert!((as_hours(HOUR / 2) - 0.5).abs() < 1e-12);
    }
}
