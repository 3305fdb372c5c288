//! Controller-side telemetry: advance-policy accounting plus the
//! per-decision-cause attribution the perf work is steered by.
//!
//! These are plain per-instance `u64`s owned by the controller — not
//! registry atomics — so recording costs one add on a field the tick
//! already touches, results stay isolated per [`DramSystem`] (the bench
//! harness reconciles per-record totals), and instrumentation provably
//! cannot perturb simulation state. They live outside
//! [`DramStats`](crate::DramStats) because the per-cycle reference and
//! the event-driven advance *disagree on them by design* (that is what
//! they measure), while `DramStats` participates in bit-identity.
//!
//! [`DramSystem`]: crate::DramSystem

use secddr_telemetry::TelemetrySnapshot;

/// Why an executed decision cycle executed. Every call into
/// `DramSystem::tick` lands in exactly one bucket, so
/// [`DecisionCauses::total`] equals
/// [`ControllerTelemetry::decision_cycles`] by construction — the
/// reconciliation the bench harness asserts per record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCauses {
    /// A row-hit column command issued (READ/WRITE into an open row).
    pub issue_hit: u64,
    /// A row-miss command issued (column after PRE/ACT, or the PRE/ACT
    /// itself).
    pub issue_miss: u64,
    /// Refresh management used the command slot (REF or refresh-path
    /// PRE).
    pub refresh: u64,
    /// No command issued, but at least one completion's final data beat
    /// landed this cycle. A completion is not a decision: under the
    /// event-driven advance it lands inside a skipped span, so this
    /// bucket only counts ticks executed for another reason that issued
    /// nothing — a drain flip, a starvation onset, a refresh-due arming
    /// tick — on which data also landed; a per-cycle caller lands every
    /// completion cycle here.
    pub completion: u64,
    /// The write-drain hysteresis flipped and nothing else happened.
    pub drain_flip: u64,
    /// A no-op tick while the active queue's oldest request is past the
    /// anti-starvation limit. Under the event-driven advance this is the
    /// starvation onset tick (the decision bound then follows the
    /// starving request's own next command), plus any tick a refresh
    /// holds it up.
    pub aging: u64,
    /// Any other executed no-op tick. Under the event-driven advance
    /// these are the refresh-due arming ticks (a rank crossing its due
    /// time issues nothing that cycle) and, with FCFS scheduling, row
    /// hits waiting behind the oldest request; a per-cycle caller also
    /// lands every dead cycle here.
    pub noop: u64,
}

impl DecisionCauses {
    /// Sum over every cause — equals the executed decision cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        // Exhaustive destructuring: a new cause must join the sum (and
        // therefore the reconciliation) or fail to compile.
        let Self {
            issue_hit,
            issue_miss,
            refresh,
            completion,
            drain_flip,
            aging,
            noop,
        } = self;
        issue_hit + issue_miss + refresh + completion + drain_flip + aging + noop
    }

    /// Accumulates `other` into `self` (every bucket sums).
    pub fn merge(&mut self, other: &Self) {
        let Self {
            issue_hit,
            issue_miss,
            refresh,
            completion,
            drain_flip,
            aging,
            noop,
        } = other;
        self.issue_hit += issue_hit;
        self.issue_miss += issue_miss;
        self.refresh += refresh;
        self.completion += completion;
        self.drain_flip += drain_flip;
        self.aging += aging;
        self.noop += noop;
    }
}

/// Deterministic advance-policy counters for one controller: how many
/// cycles it actually executed ([`Self::decision_cycles`]) versus how
/// many busy cycles it covered ([`Self::busy_cycles`], executed or
/// skipped), with every executed cycle attributed to a
/// [`DecisionCauses`] bucket.
///
/// The per-cycle reference executes every busy cycle while the
/// event-driven advance executes only decision cycles, so these differ between bit-identical
/// runs — the noise-free form of the event-ization win on a steal-noisy
/// host, and the breakdown that says *which* decisions dominate at high
/// core counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerTelemetry {
    /// Calls into `DramSystem::tick` — cycles the controller executed.
    pub decision_cycles: u64,
    /// Cycles covered (executed or skipped) while the controller was
    /// not idle. Identical across advance policies.
    pub busy_cycles: u64,
    /// Per-cause attribution of the executed cycles.
    pub causes: DecisionCauses,
}

impl ControllerTelemetry {
    /// Accumulates `other` into `self` (for cross-shard aggregation).
    pub fn merge(&mut self, other: &Self) {
        let Self {
            decision_cycles,
            busy_cycles,
            causes,
        } = other;
        self.decision_cycles += decision_cycles;
        self.busy_cycles += busy_cycles;
        self.causes.merge(causes);
    }

    /// Renders into `snap` under the `dram.` prefix
    /// (`dram.decision.issue_hit`, …, `dram.decisions_total`,
    /// `dram.busy_cycles`).
    pub fn render_into(&self, snap: &mut TelemetrySnapshot) {
        let Self {
            decision_cycles,
            busy_cycles,
            causes,
        } = self;
        snap.add_counter("dram.decisions_total", *decision_cycles);
        snap.add_counter("dram.busy_cycles", *busy_cycles);
        let DecisionCauses {
            issue_hit,
            issue_miss,
            refresh,
            completion,
            drain_flip,
            aging,
            noop,
        } = causes;
        snap.add_counter("dram.decision.issue_hit", *issue_hit);
        snap.add_counter("dram.decision.issue_miss", *issue_miss);
        snap.add_counter("dram.decision.refresh", *refresh);
        snap.add_counter("dram.decision.completion", *completion);
        snap.add_counter("dram.decision.drain_flip", *drain_flip);
        snap.add_counter("dram.decision.aging", *aging);
        snap.add_counter("dram.decision.noop", *noop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causes_total_and_merge_agree() {
        let mut a = DecisionCauses {
            issue_hit: 3,
            completion: 2,
            noop: 1,
            ..Default::default()
        };
        let b = DecisionCauses {
            issue_miss: 4,
            refresh: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.total(), 11);
    }

    #[test]
    fn snapshot_causes_reconcile_with_total() {
        let t = ControllerTelemetry {
            decision_cycles: 10,
            busy_cycles: 40,
            causes: DecisionCauses {
                issue_hit: 4,
                issue_miss: 3,
                completion: 2,
                noop: 1,
                ..Default::default()
            },
        };
        let mut snap = TelemetrySnapshot::new();
        t.render_into(&mut snap);
        assert_eq!(
            snap.counter_prefix_sum("dram.decision."),
            snap.counter("dram.decisions_total")
        );
        assert_eq!(snap.counter("dram.busy_cycles"), 40);
    }
}
