//! Differential tests for the controller's event-driven *busy* path:
//!
//! `DramSystem::advance_to(target, Advance::ToNextEvent)` must be
//! bit-identical to `target - now` sequential `tick()` calls — same
//! completion stream (with cycle stamps), same statistics (command
//! counts, refresh timing, occupancy histograms), and therefore the same
//! scheduler decisions — while executing strictly fewer cycles. The
//! per-cycle loop is the retained reference, in the same spirit as the
//! `NaiveRescan` scheduler.

use proptest::prelude::*;
use secddr::dram::{Advance, Completion, DramConfig, DramSystem, MemRequest, ReqKind};

/// The event-driven advance to `target`, each completion stamped with the
/// cycle it landed on (its own `finish_cycle`), as the per-cycle loops
/// stamp theirs.
fn advance_stamped(dram: &mut DramSystem, target: u64) -> Vec<(u64, Completion)> {
    dram.advance_to(target, Advance::ToNextEvent)
        .into_iter()
        .map(|c| (c.finish_cycle, c))
        .collect()
}

/// One step of a randomized controller workload.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Enqueue (read?, address) at the current cycle.
    Enqueue(bool, u64),
    /// Advance the channel `n` cycles.
    Jump(u16),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<bool>(), 0u64..(1 << 28)).prop_map(|(r, a)| Step::Enqueue(r, a & !63)),
        // Write bursts over a small footprint pile onto few banks and
        // cross the drain-mode hysteresis thresholds.
        (0u64..(1 << 22)).prop_map(|a| Step::Enqueue(false, a & !63)),
        (1u16..3_000).prop_map(Step::Jump),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The event-driven advance ≡ sequential ticks across random
    /// traffic, rank counts, FCFS modes, and drain boundaries. The
    /// event-driven run also re-validates the controller's incremental state (including
    /// the exact readiness snapshots) after every jump and at the end.
    #[test]
    fn tick_until_matches_sequential_ticks(
        steps in proptest::collection::vec(step_strategy(), 1..120),
        ranks in 1u32..3,
        fcfs in any::<bool>(),
    ) {
        let run = |event_driven: bool| {
            let mut cfg = DramConfig::ddr4_3200();
            cfg.ranks = ranks;
            cfg.fcfs = fcfs;
            let mut dram = DramSystem::new(cfg);
            let mut completions = Vec::new();
            let mut id = 0u64;
            for step in &steps {
                match *step {
                    Step::Enqueue(read, addr) => {
                        let kind = if read { ReqKind::Read } else { ReqKind::Write };
                        let _ = dram.enqueue(MemRequest::new(id, kind, addr, dram.cycle()));
                        id += 1;
                    }
                    Step::Jump(n) => {
                        let target = dram.cycle() + u64::from(n);
                        if event_driven {
                            completions.extend(advance_stamped(&mut dram, target));
                            dram.validate_incremental_state()
                                .expect("incremental state consistent");
                        } else {
                            while dram.cycle() < target {
                                let at = dram.cycle() + 1;
                                for c in dram.tick() {
                                    completions.push((at, c));
                                }
                            }
                        }
                    }
                }
            }
            // Drain so in-flight work is also compared.
            let target = dram.cycle() + 20_000;
            if event_driven {
                completions.extend(advance_stamped(&mut dram, target));
                dram.validate_incremental_state().expect("incremental state consistent");
            } else {
                while dram.cycle() < target {
                    let at = dram.cycle() + 1;
                    for c in dram.tick() {
                        completions.push((at, c));
                    }
                }
            }
            (completions, dram.stats(), dram.telemetry())
        };
        let (fast_c, fast_s, fast_t) = run(true);
        let (ref_c, ref_s, ref_t) = run(false);
        prop_assert_eq!(fast_c, ref_c, "completion schedule diverged");
        prop_assert_eq!(fast_s.clone(), ref_s, "stats diverged");
        // Policy-invariant busy coverage, fewer-or-equal executed cycles,
        // and cause buckets that partition the executed cycles exactly.
        prop_assert_eq!(fast_t.busy_cycles, ref_t.busy_cycles);
        prop_assert!(fast_t.decision_cycles <= fast_s.cycles);
        prop_assert_eq!(fast_t.causes.total(), fast_t.decision_cycles);
        prop_assert_eq!(ref_t.causes.total(), ref_t.decision_cycles);
    }

    /// `advance_to(_, ToNextEvent)` returns the same completion batches as the per-cycle policy at every
    /// interleaving boundary, not just in aggregate.
    #[test]
    fn advance_to_policies_agree_per_window(
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        let mut fast = DramSystem::new(DramConfig::ddr4_3200());
        let mut slow = DramSystem::new(DramConfig::ddr4_3200());
        let mut id = 0u64;
        for step in &steps {
            match *step {
                Step::Enqueue(read, addr) => {
                    let kind = if read { ReqKind::Read } else { ReqKind::Write };
                    let _ = fast.enqueue(MemRequest::new(id, kind, addr, fast.cycle()));
                    let _ = slow.enqueue(MemRequest::new(id, kind, addr, slow.cycle()));
                    id += 1;
                }
                Step::Jump(n) => {
                    let target = fast.cycle() + u64::from(n);
                    prop_assert_eq!(
                        fast.advance_to(target, Advance::ToNextEvent),
                        slow.advance_to(target, Advance::PerCycle),
                        "window completions diverged"
                    );
                }
            }
        }
        prop_assert_eq!(fast.stats(), slow.stats());
    }
}

/// Refresh timing across long idle-and-busy spans: a single event-driven
/// `advance_to` jump over several tREFI intervals must arm, serialize, and issue
/// exactly the refreshes the per-cycle reference does.
#[test]
fn tick_until_preserves_refresh_timing_over_long_spans() {
    let run = |event_driven: bool| {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200());
        let mut completions = Vec::new();
        let mut id = 0u64;
        for round in 0..6u64 {
            // A small burst, then a jump crossing multiple refresh dues.
            for i in 0..8u64 {
                let addr = ((round * 8 + i) * 0x1_1040) & !63;
                let kind = if i % 3 == 0 {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                };
                let _ = dram.enqueue(MemRequest::new(id, kind, addr, dram.cycle()));
                id += 1;
            }
            let target = dram.cycle() + 40_000;
            if event_driven {
                completions.extend(advance_stamped(&mut dram, target));
            } else {
                while dram.cycle() < target {
                    let at = dram.cycle() + 1;
                    for c in dram.tick() {
                        completions.push((at, c));
                    }
                }
            }
        }
        (completions, dram.stats(), dram.telemetry())
    };
    let (fast_c, fast_s, fast_t) = run(true);
    let (ref_c, ref_s, _) = run(false);
    assert_eq!(fast_c, ref_c, "completion schedule diverged");
    assert_eq!(fast_s, ref_s, "stats diverged");
    assert!(
        fast_s.refreshes >= 2 * 6 * 3,
        "the spans must actually cross refresh intervals: {}",
        fast_s.refreshes
    );
    assert!(
        fast_t.decision_cycles * 4 < fast_s.cycles,
        "long spans must be dominated by skipped cycles: {} of {}",
        fast_t.decision_cycles,
        fast_s.cycles
    );
}
