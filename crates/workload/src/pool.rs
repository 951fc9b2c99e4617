//! Scoped worker pool for the parallel driver — the only simulation code
//! allowed to spawn OS threads (`clippy.toml` disallows `thread::spawn`
//! and `thread::scope` everywhere else without a stated reason).
//!
//! Threads exist here purely as an execution resource: each worker owns
//! a disjoint set of domain groups, runs them through
//! [`crate::driver::run_group`] (a pure function of its inputs), and
//! hands the outcomes back positionally. No locks, no channels, no
//! shared mutable state — so the scheduling of workers onto cores
//! cannot influence any result, only wall-clock time.

use turbopool_iosim::Time;

use crate::driver::{run_group, Slot, WindowOutcome};

/// Run each domain group through the window on up to `threads` OS
/// threads, returning outcomes in the same order as `groups`.
///
/// Groups are dealt round-robin across workers; each worker processes
/// its hand in order and tags every outcome with the group's original
/// index, so reassembly is position-exact regardless of which worker
/// finishes first.
pub(crate) fn run_groups(
    groups: Vec<Vec<(Time, usize, Slot)>>,
    window_end: Time,
    threads: usize,
) -> Vec<WindowOutcome> {
    let n = groups.len();
    let workers = threads.min(n).max(1);
    let mut hands: Vec<Vec<(usize, Vec<(Time, usize, Slot)>)>> = Vec::new();
    hands.resize_with(workers, Vec::new);
    for (idx, group) in groups.into_iter().enumerate() {
        hands[idx % workers].push((idx, group));
    }
    let mut out: Vec<Option<WindowOutcome>> = Vec::new();
    out.resize_with(n, || None);
    #[expect(
        clippy::disallowed_methods,
        reason = "the driver's worker pool is the one place simulation work runs on \
                  OS threads; domains are share-nothing (DESIGN §9)"
    )]
    std::thread::scope(|scope| {
        let handles: Vec<_> = hands
            .into_iter()
            .map(|hand| {
                scope.spawn(move || {
                    hand.into_iter()
                        .map(|(idx, group)| (idx, run_group(group, window_end)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (idx, outcome) in handle.join().expect("driver worker panicked") {
                out[idx] = Some(outcome);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every group produced an outcome"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Client, StepResult};
    use turbopool_iosim::Clk;

    struct Counter {
        period: Time,
        left: usize,
    }

    impl Client for Counter {
        fn step(&mut self, clk: &mut Clk) -> StepResult {
            if self.left == 0 {
                return StepResult::Done;
            }
            clk.elapse(self.period);
            self.left -= 1;
            StepResult::Continue
        }
    }

    fn slot(start: Time, period: Time, left: usize, domain: usize) -> Slot {
        Slot {
            clk: Clk::at(start),
            client: Box::new(Counter { period, left }),
            domain,
        }
    }

    #[test]
    fn outcomes_come_back_in_group_order() {
        // 5 groups over 2 threads: round-robin dealing must not permute
        // the outcome order.
        let groups: Vec<Vec<(Time, usize, Slot)>> = (0..5)
            .map(|g| vec![(0, g, slot(0, (g as Time + 1) * 10, 3 + g, g))])
            .collect();
        let out = run_groups(groups, Time::MAX, 2);
        assert_eq!(out.len(), 5);
        for (g, outcome) in out.iter().enumerate() {
            // Counter runs `left` Continue steps plus one Done step, and
            // Done clients never re-arrive.
            assert_eq!(outcome.steps, 3 + g as u64 + 1);
            assert!(outcome.arrivals.is_empty());
        }
    }

    #[test]
    fn window_end_bounds_every_group() {
        let groups: Vec<Vec<(Time, usize, Slot)>> = (0..3)
            .map(|g| vec![(0, g, slot(0, 10, usize::MAX, g))])
            .collect();
        let out = run_groups(groups, 100, 3);
        for outcome in &out {
            assert_eq!(outcome.arrivals.len(), 1);
            assert_eq!(outcome.arrivals[0].time, 100);
            assert_eq!(outcome.steps, 10);
        }
    }
}
