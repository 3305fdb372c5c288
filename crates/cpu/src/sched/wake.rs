//! Wake-reason attribution for the next-event scheduler.
//!
//! Every time [`MultiCoreSystem`](super::MultiCoreSystem)'s event-driven
//! run loop moves a sleeping core back onto the awake-list, the wake is
//! tagged with the reason the scheduler had for it. The counters are plain `u64`s
//! maintained inline (no atomics, no indirection), so attribution cannot
//! perturb the simulation; the per-cycle reference policy never sleeps a
//! core and leaves all of them at zero.

use secddr_telemetry::TelemetrySnapshot;

/// Why sleeping cores were woken, one counter per cause. Every
/// event-driven wake lands in exactly one bucket, so
/// [`WakeReasons::total`] counts all wakes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeReasons {
    /// A routed completion for the core arrived from the shared backend:
    /// its state changed, so any registered bound was moot and the core
    /// was force-woken.
    pub completion: u64,
    /// An *exact* sleep's registered bound came due (own in-flight
    /// completions and in-order retire only — these never fire early).
    pub timer: u64,
    /// A *capacity* sleep's registered bound came due. The bound rides
    /// shared queue-space events, so the core may step to no effect —
    /// the scheduler's only source of spurious wake-ups.
    pub spurious: u64,
    /// The due bound was installed by the post-submission re-derive:
    /// another core's accepted submission moved shared queue space, so
    /// the capacity sleeper's bound was refreshed to an earlier cycle.
    pub submit_rederive: u64,
}

impl WakeReasons {
    /// Total wakes across every cause. The exhaustive destructuring makes
    /// adding a bucket without counting it here a compile error.
    #[must_use]
    pub fn total(&self) -> u64 {
        let Self {
            completion,
            timer,
            spurious,
            submit_rederive,
        } = self;
        completion + timer + spurious + submit_rederive
    }

    /// Folds `other` into `self` bucket-wise.
    pub fn merge(&mut self, other: &Self) {
        let Self {
            completion,
            timer,
            spurious,
            submit_rederive,
        } = other;
        self.completion += completion;
        self.timer += timer;
        self.spurious += spurious;
        self.submit_rederive += submit_rederive;
    }

    /// Renders the buckets into `snap` under the `multicore.wake.*`
    /// names, plus the reconciliation total `multicore.wakes_total`.
    pub fn render_into(&self, snap: &mut TelemetrySnapshot) {
        let Self {
            completion,
            timer,
            spurious,
            submit_rederive,
        } = self;
        snap.add_counter("multicore.wakes_total", self.total());
        snap.add_counter("multicore.wake.completion", *completion);
        snap.add_counter("multicore.wake.timer", *timer);
        snap.add_counter("multicore.wake.spurious", *spurious);
        snap.add_counter("multicore.wake.submit_rederive", *submit_rederive);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_and_merge_agree() {
        let mut a = WakeReasons {
            completion: 3,
            timer: 2,
            spurious: 1,
            submit_rederive: 4,
        };
        let b = WakeReasons {
            completion: 10,
            timer: 0,
            spurious: 5,
            submit_rederive: 1,
        };
        let before = a.total() + b.total();
        a.merge(&b);
        assert_eq!(a.total(), before);
    }

    #[test]
    fn snapshot_buckets_sum_to_total() {
        let w = WakeReasons {
            completion: 7,
            timer: 1,
            spurious: 2,
            submit_rederive: 3,
        };
        let mut snap = TelemetrySnapshot::default();
        w.render_into(&mut snap);
        assert_eq!(
            snap.counter_prefix_sum("multicore.wake."),
            snap.counter("multicore.wakes_total")
        );
        assert_eq!(snap.counter("multicore.wakes_total"), 13);
    }
}
