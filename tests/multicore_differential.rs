//! Differential tests for the multi-core front-end:
//!
//! * `MultiCoreSystem` with one core must be **observationally
//!   identical** to the bare `CpuSystem` — same `SimResult` (every
//!   dispatch/retire decision and the cycle count), same engine and DRAM
//!   statistics — over randomized trace streams, under both advance
//!   policies, and over both the bare `SecurityEngine` and a
//!   `ShardedEngine` backend (mirroring `tests/sharded_differential.rs`
//!   one layer up);
//! * at every N, the event-driven core scheduler (min-heap over per-core
//!   wake bounds, global jump when all cores sleep) must be bit-identical
//!   to per-cycle lock-step where every core steps every cycle. Since
//!   `CpuSystem` is the scheduler's one-core view, the N = 1 cases of
//!   these pins are the independent single-core oracle;
//! * the per-core shares of the shared LLC statistics must sum to the
//!   LLC's own totals;
//! * in saturated and bursty rate mode over four channels, the
//!   event-driven controllers execute fewer cycles than they are busy,
//!   and their decision causes partition the executed cycles.

use proptest::prelude::*;
use secddr::core::config::SecurityConfig;
use secddr::core::engine::{EngineOptions, EngineStats, SecurityEngine};
use secddr::core::metadata::DATA_SPAN;
use secddr::cpu::{CpuConfig, CpuSystem, SimResult, TraceOp};
use secddr::dram::{Advance, ControllerTelemetry, DramStats};
use secddr::workloads::Benchmark;
use secddr::{CoreTrace, Interleave, MultiCoreResult, MultiCoreSystem, ShardedEngine};
use std::sync::Arc;

const CPU_MHZ: u32 = 3200;

fn options(advance: Advance) -> EngineOptions {
    EngineOptions {
        advance,
        ..EngineOptions::default()
    }
}

fn cpu_cfg(advance: Advance) -> CpuConfig {
    CpuConfig {
        advance,
        ..CpuConfig::default()
    }
}

fn decode(ops: &[(u64, u64, u64)]) -> Vec<TraceOp> {
    ops.iter()
        .map(|&(sel, addr, n)| match sel % 5 {
            0 => TraceOp::Compute((n % 48 + 1) as u32),
            1 | 4 => TraceOp::Load(addr),
            2 => TraceOp::DependentLoad(addr),
            _ => TraceOp::Store(addr),
        })
        .collect()
}

type Observed = (SimResult, EngineStats, DramStats);

fn run_single_bare(trace: &[TraceOp], advance: Advance) -> Observed {
    let engine =
        SecurityEngine::with_options(SecurityConfig::secddr_ctr(), CPU_MHZ, options(advance));
    let mut sys = CpuSystem::new(cpu_cfg(advance), engine);
    let sim = sys.run(trace.iter().copied());
    (sim, sys.backend().stats(), sys.backend().dram_stats())
}

fn run_multi1_bare(trace: &[TraceOp], advance: Advance) -> Observed {
    let engine =
        SecurityEngine::with_options(SecurityConfig::secddr_ctr(), CPU_MHZ, options(advance));
    let mut sys = MultiCoreSystem::new(1, cpu_cfg(advance), engine);
    let result = sys.run(vec![trace.iter().copied()]);
    (
        result.per_core[0].clone(),
        sys.backend().stats(),
        sys.backend().dram_stats(),
    )
}

fn run_single_sharded(trace: &[TraceOp], advance: Advance) -> Observed {
    let engine = ShardedEngine::with_options(
        SecurityConfig::secddr_ctr(),
        CPU_MHZ,
        Interleave::xor(2),
        options(advance),
    );
    let mut sys = CpuSystem::new(cpu_cfg(advance), engine);
    let sim = sys.run(trace.iter().copied());
    (
        sim,
        sys.backend_mut().stats(),
        sys.backend_mut().dram_stats(),
    )
}

fn run_multi1_sharded(trace: &[TraceOp], advance: Advance) -> Observed {
    let engine = ShardedEngine::with_options(
        SecurityConfig::secddr_ctr(),
        CPU_MHZ,
        Interleave::xor(2),
        options(advance),
    );
    let mut sys = MultiCoreSystem::new(1, cpu_cfg(advance), engine);
    let result = sys.run(vec![trace.iter().copied()]);
    (
        result.per_core[0].clone(),
        sys.backend_mut().stats(),
        sys.backend_mut().dram_stats(),
    )
}

type WideObserved = (MultiCoreResult, EngineStats, DramStats);

/// Runs `cores` rate-mode copies of `trace` over the bare engine,
/// asserting on the way that the per-core LLC shares sum to the shared
/// LLC's own totals.
fn run_wide_bare(cores: usize, trace: &Arc<Vec<TraceOp>>, advance: Advance) -> WideObserved {
    let engine =
        SecurityEngine::with_options(SecurityConfig::secddr_ctr(), CPU_MHZ, options(advance));
    let mut sys = MultiCoreSystem::new(cores, cpu_cfg(advance), engine);
    let result = sys.run(CoreTrace::rate(trace, DATA_SPAN, cores));
    assert_eq!(
        &result.merged().llc,
        sys.llc_stats(),
        "{advance:?}: per-core LLC shares must sum to the shared totals"
    );
    (result, sys.backend().stats(), sys.backend().dram_stats())
}

/// Same over a 4-way sharded backend — cores × channels at width.
fn run_wide_sharded(cores: usize, trace: &Arc<Vec<TraceOp>>, advance: Advance) -> WideObserved {
    run_wide_sharded_with_telemetry(cores, trace, advance).0
}

/// As [`run_wide_sharded`], also returning the channel-merged controller
/// telemetry, which is kept out of the compared observables: the
/// per-cycle reference executes every busy controller cycle by design.
fn run_wide_sharded_with_telemetry(
    cores: usize,
    trace: &Arc<Vec<TraceOp>>,
    advance: Advance,
) -> (WideObserved, ControllerTelemetry) {
    let engine = ShardedEngine::with_options(
        SecurityConfig::secddr_ctr(),
        CPU_MHZ,
        Interleave::xor(4),
        options(advance),
    );
    let mut sys = MultiCoreSystem::new(cores, cpu_cfg(advance), engine);
    let result = sys.run(CoreTrace::rate(trace, DATA_SPAN, cores));
    assert_eq!(
        &result.merged().llc,
        sys.llc_stats(),
        "{advance:?}: per-core LLC shares must sum to the shared totals"
    );
    let observed = (
        result,
        sys.backend_mut().stats(),
        sys.backend_mut().dram_stats(),
    );
    (observed, sys.backend_mut().dram_telemetry())
}

/// Asserts what an event-driven run's controllers must show: the
/// decision causes partition the executed cycles, and the controllers
/// execute strictly fewer cycles than they are busy (the decision bound
/// skips the cycles where no command can issue).
fn assert_decisions_below_busy(telemetry: &ControllerTelemetry, label: &str) {
    assert_eq!(
        telemetry.causes.total(),
        telemetry.decision_cycles,
        "{label}: decision causes must partition the executed cycles"
    );
    assert!(
        telemetry.decision_cycles < telemetry.busy_cycles,
        "{label}: controllers executed {} cycles, not fewer than the {} busy ones",
        telemetry.decision_cycles,
        telemetry.busy_cycles,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One-core `MultiCoreSystem` over the bare engine answers a random
    /// trace stream with the exact `SimResult`, engine statistics, and
    /// DRAM statistics of `CpuSystem`, under both advance policies (a
    /// smoke pin: `CpuSystem` is the scheduler's one-core view).
    #[test]
    fn single_core_matches_cpusystem_bare(
        ops in proptest::collection::vec(
            (0u64..5, 0u64..(1u64 << 32), 1u64..50),
            1..50,
        ),
        event_driven in any::<bool>(),
    ) {
        let trace = decode(&ops);
        let advance = if event_driven { Advance::ToNextEvent } else { Advance::PerCycle };
        prop_assert_eq!(
            run_multi1_bare(&trace, advance),
            run_single_bare(&trace, advance),
            "N=1 diverged from CpuSystem ({:?})", advance
        );
    }

    /// Same pin through a sharded multi-channel backend: cores × channels
    /// compose through the one `MemoryBackend` seam.
    #[test]
    fn single_core_matches_cpusystem_sharded(
        ops in proptest::collection::vec(
            (0u64..5, 0u64..(1u64 << 32), 1u64..50),
            1..40,
        ),
        event_driven in any::<bool>(),
    ) {
        let trace = decode(&ops);
        let advance = if event_driven { Advance::ToNextEvent } else { Advance::PerCycle };
        prop_assert_eq!(
            run_multi1_sharded(&trace, advance),
            run_single_sharded(&trace, advance),
            "N=1 over ShardedEngine diverged from CpuSystem ({:?})", advance
        );
    }

    /// The event-driven core scheduler is bit-identical to per-cycle
    /// lock-step at N = 1 and N = 2 (heterogeneous random traces, bare
    /// engine). `CpuSystem` is the scheduler's one-core view, so the
    /// N = 1 case is the single-core pin that does not compare the
    /// scheduler with itself.
    #[test]
    fn event_driven_scheduler_matches_per_cycle(
        ops_a in proptest::collection::vec(
            (0u64..5, 0u64..(1u64 << 32), 1u64..50),
            1..30,
        ),
        ops_b in proptest::collection::vec(
            (0u64..5, 0u64..(1u64 << 32), 1u64..50),
            1..30,
        ),
        cores in 1usize..=2,
    ) {
        let traces = [decode(&ops_a), decode(&ops_b)];
        let run = |advance: Advance| {
            let engine = SecurityEngine::with_options(
                SecurityConfig::secddr_ctr(), CPU_MHZ, options(advance),
            );
            let mut sys = MultiCoreSystem::new(cores, cpu_cfg(advance), engine);
            let result = sys.run(traces[..cores].iter().map(|t| t.iter().copied()).collect());
            (result, sys.backend().stats(), sys.backend().dram_stats())
        };
        prop_assert_eq!(run(Advance::ToNextEvent), run(Advance::PerCycle));
    }

    /// The same single-core pin through a two-way `ShardedEngine`: one
    /// core over interleaved channels, event-driven ≡ per-cycle.
    #[test]
    fn single_core_sharded_scheduler_matches_per_cycle(
        ops in proptest::collection::vec(
            (0u64..5, 0u64..(1u64 << 32), 1u64..50),
            1..40,
        ),
    ) {
        let trace = decode(&ops);
        let run = |advance: Advance| {
            let engine = ShardedEngine::with_options(
                SecurityConfig::secddr_ctr(),
                CPU_MHZ,
                Interleave::xor(2),
                options(advance),
            );
            let mut sys = MultiCoreSystem::new(1, cpu_cfg(advance), engine);
            let result = sys.run(vec![trace.iter().copied()]);
            (result, sys.backend_mut().stats(), sys.backend_mut().dram_stats())
        };
        prop_assert_eq!(run(Advance::ToNextEvent), run(Advance::PerCycle));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Eight rate-mode cores: the awake-list scheduler is bit-identical
    /// to per-cycle lock-step over both the bare engine and a 4-way
    /// sharded backend, with LLC-share conservation checked inside the
    /// runners.
    #[test]
    fn eight_core_scheduler_matches_per_cycle(
        ops in proptest::collection::vec(
            (0u64..5, 0u64..(1u64 << 32), 1u64..50),
            1..30,
        ),
        sharded in any::<bool>(),
    ) {
        let trace = Arc::new(decode(&ops));
        if sharded {
            prop_assert_eq!(
                run_wide_sharded(8, &trace, Advance::ToNextEvent),
                run_wide_sharded(8, &trace, Advance::PerCycle),
                "8-core sharded diverged"
            );
        } else {
            prop_assert_eq!(
                run_wide_bare(8, &trace, Advance::ToNextEvent),
                run_wide_bare(8, &trace, Advance::PerCycle),
                "8-core bare diverged"
            );
        }
    }

    /// Sixteen rate-mode cores, same pin: more cores than any earlier
    /// suite exercised, so sleep/wake bookkeeping errors that need deep
    /// awake-list churn to surface show up here.
    #[test]
    fn sixteen_core_scheduler_matches_per_cycle(
        ops in proptest::collection::vec(
            (0u64..5, 0u64..(1u64 << 32), 1u64..50),
            1..20,
        ),
        sharded in any::<bool>(),
    ) {
        let trace = Arc::new(decode(&ops));
        if sharded {
            prop_assert_eq!(
                run_wide_sharded(16, &trace, Advance::ToNextEvent),
                run_wide_sharded(16, &trace, Advance::PerCycle),
                "16-core sharded diverged"
            );
        } else {
            prop_assert_eq!(
                run_wide_bare(16, &trace, Advance::ToNextEvent),
                run_wide_bare(16, &trace, Advance::PerCycle),
                "16-core bare diverged"
            );
        }
    }
}

/// End-to-end identity on a real benchmark trace: `MultiCoreSystem{N=1}`
/// is bit-identical to `CpuSystem` over both backends and both advance
/// policies.
#[test]
fn single_core_is_observationally_identical_end_to_end() {
    let bench = Benchmark::by_name("omnetpp").expect("omnetpp exists");
    let trace = bench.generate_shared(25_000, 0xD5);
    for advance in [Advance::ToNextEvent, Advance::PerCycle] {
        assert_eq!(
            run_multi1_bare(&trace, advance),
            run_single_bare(&trace, advance),
            "{advance:?}: bare backend diverged"
        );
        assert_eq!(
            run_multi1_sharded(&trace, advance),
            run_single_sharded(&trace, advance),
            "{advance:?}: sharded backend diverged"
        );
    }
}

/// A 4-core rate-mode run over `ShardedEngine{N=4}` completes under both
/// advance policies with identical per-core results, engine statistics,
/// and DRAM statistics, and the per-core LLC shares sum to the shared
/// LLC's own totals.
#[test]
fn four_core_rate_mode_over_four_channels() {
    let bench = Benchmark::by_name("mcf").expect("mcf exists");
    let trace = bench.generate_shared(8_000, 0xD5);
    let per_copy: u64 = trace.iter().map(TraceOp::instructions).sum();
    let mut reference = None;
    for advance in [Advance::ToNextEvent, Advance::PerCycle] {
        let engine = ShardedEngine::with_options(
            SecurityConfig::secddr_ctr(),
            CPU_MHZ,
            Interleave::xor(4),
            options(advance),
        );
        let mut sys = MultiCoreSystem::new(4, cpu_cfg(advance), engine);
        let result = sys.run(CoreTrace::rate(&trace, DATA_SPAN, 4));
        if advance == Advance::ToNextEvent {
            assert_decisions_below_busy(&sys.backend_mut().dram_telemetry(), "4 cores");
        }
        for r in &result.per_core {
            assert_eq!(r.instructions, per_copy, "{advance:?}: every copy retires");
        }
        let merged = result.merged();
        assert_eq!(
            &merged.llc,
            sys.llc_stats(),
            "{advance:?}: per-core LLC shares must sum to the shared totals"
        );
        assert_eq!(
            merged.cycles,
            result.per_core.iter().map(|r| r.cycles).max().unwrap()
        );
        assert!(result.aggregate_ipc() > 0.0);
        let observed = (
            result,
            sys.backend_mut().stats(),
            sys.backend_mut().dram_stats(),
        );
        match &reference {
            None => reference = Some(observed),
            Some(r) => assert_eq!(
                &observed, r,
                "event-driven 4-core rate mode diverged from per-cycle"
            ),
        }
    }
}

/// Bursty rate mode: mcf cut into 64-op chunks, each followed by a
/// 2,000-instruction compute block, so every channel sits idle between
/// bursts for far longer than the proptests' compute gaps (at most 48
/// cycles). At 8 and 16 cores over four channels the event-driven
/// scheduler is bit-identical to per-cycle, and its controllers still
/// execute fewer cycles than they are busy.
#[test]
fn bursty_wide_rate_mode_over_four_channels() {
    let bench = Benchmark::by_name("mcf").expect("mcf exists");
    let base = bench.generate_shared(2_000, 0xD5);
    let mut ops = Vec::with_capacity(base.len() + base.len() / 64 + 1);
    for chunk in base.chunks(64) {
        ops.extend_from_slice(chunk);
        ops.push(TraceOp::Compute(2_000));
    }
    let trace = Arc::new(ops);
    for cores in [8, 16] {
        let (fast, telemetry) =
            run_wide_sharded_with_telemetry(cores, &trace, Advance::ToNextEvent);
        assert_eq!(
            fast,
            run_wide_sharded(cores, &trace, Advance::PerCycle),
            "{cores} bursty cores: event-driven diverged from per-cycle"
        );
        assert_decisions_below_busy(&telemetry, &format!("{cores} bursty cores"));
    }
}
