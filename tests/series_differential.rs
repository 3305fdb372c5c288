//! Series recording must be provably non-perturbing and exactly
//! reconciled: a run with sim-time series recording enabled at *any*
//! epoch width produces **bit-identical** simulation observables
//! (`SimResult` / `MultiCoreResult`, `EngineStats`, `DramStats`) to a
//! recording-off run under both advance policies, and the per-epoch
//! sums of every recorded counter equal the aggregate
//! `TelemetrySnapshot` value of the same name. The recorders are plain
//! non-atomic `u64`s behind `Option`s, outside every compared struct —
//! these tests pin that the time axis is free.

use proptest::prelude::*;
use secddr::core::config::SecurityConfig;
use secddr::core::engine::{EngineOptions, EngineStats};
use secddr::core::metadata::DATA_SPAN;
use secddr::cpu::{CpuConfig, CpuSystem, SimResult, TraceOp};
use secddr::dram::{Advance, DramStats};
use secddr::workloads::Benchmark;
use secddr::{
    CoreTrace, Interleave, MultiCoreSystem, SeriesSnapshot, ShardedEngine, TelemetrySnapshot,
};

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

fn engine(advance: Advance, epoch_width: Option<u64>) -> ShardedEngine {
    let mut engine = channels(advance, 4);
    if let Some(width) = epoch_width {
        engine.enable_series(width);
    }
    engine
}

fn channels(advance: Advance, count: usize) -> ShardedEngine {
    ShardedEngine::with_options(
        SecurityConfig::secddr_ctr(),
        CPU_MHZ,
        Interleave::xor(count),
        options(advance),
    )
}

/// The channels' and the scheduler's series so far, merged.
fn merged_series(sys: &mut MultiCoreSystem<ShardedEngine>) -> SeriesSnapshot {
    let mut series = sys
        .backend_mut()
        .series_snapshot()
        .expect("backend series enabled");
    series.merge(&sys.series_snapshot().expect("scheduler series enabled"));
    series
}

/// The channels' and the scheduler's aggregate counters, merged.
fn merged_aggregate(sys: &mut MultiCoreSystem<ShardedEngine>) -> TelemetrySnapshot {
    let mut snap = sys.telemetry_snapshot();
    sys.backend_mut().dram_telemetry().render_into(&mut snap);
    snap
}

/// Runs `traces` (one per core) over 2 channels with every layer
/// recording at `width`, returning the merged series.
fn recorded_series(traces: &[Vec<TraceOp>], advance: Advance, width: u64) -> SeriesSnapshot {
    let mut sys = MultiCoreSystem::new(traces.len(), cpu_cfg(advance), channels(advance, 2));
    sys.backend_mut().enable_series(width);
    sys.enable_series(width);
    sys.run(traces.iter().map(|t| t.iter().copied()).collect());
    merged_series(&mut sys)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized single-core streams over a series-recording 4-way
    /// sharded backend at a randomized epoch width, under both advance
    /// policies: identical `SimResult`, engine statistics, and DRAM
    /// statistics to the recording-off run — and the recorded series
    /// reconciles with the aggregate controller telemetry.
    #[test]
    fn series_recording_never_perturbs_random_streams(
        ops in proptest::collection::vec(
            (0u64..5, 0u64..(1u64 << 32), 1u64..50),
            1..40,
        ),
        event_driven in any::<bool>(),
        width in 1u64..200_000,
    ) {
        let trace = decode(&ops);
        let advance = if event_driven { Advance::ToNextEvent } else { Advance::PerCycle };
        let run = |width: Option<u64>| -> (SimResult, EngineStats, DramStats) {
            let mut sys = CpuSystem::new(cpu_cfg(advance), engine(advance, width));
            let sim = sys.run(trace.iter().copied());
            let series = sys.backend_mut().series_snapshot();
            prop_assert_eq!(series.is_some(), width.is_some(), "series opt-in mismatch");
            if let Some(series) = series {
                let mut aggregate = secddr::TelemetrySnapshot::default();
                sys.backend_mut().dram_telemetry().render_into(&mut aggregate);
                prop_assert!(
                    series.reconciles_with(&aggregate),
                    "per-epoch sums diverged from the aggregate"
                );
            }
            (sim, sys.backend_mut().stats(), sys.backend_mut().dram_stats())
        };
        prop_assert_eq!(
            run(Some(width)),
            run(None),
            "series recording perturbed the run ({:?})",
            advance
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Epoch placement, not just row sums: a 4-core, 2-channel run
    /// recorded at width `2w` equals the same run recorded at width `w`
    /// with adjacent epochs summed, for every row of the merged
    /// scheduler and channel series. `w` is even so the channels'
    /// mem-clock widths (half the CPU width) halve exactly too.
    #[test]
    fn doubling_the_width_sums_adjacent_epochs(
        streams in proptest::collection::vec(
            proptest::collection::vec((0u64..5, 0u64..(1u64 << 32), 1u64..50), 1..60),
            4..5,
        ),
        event_driven in any::<bool>(),
        half_w in 1u64..2_048,
    ) {
        let traces: Vec<Vec<TraceOp>> = streams.iter().map(|ops| decode(ops)).collect();
        let advance = if event_driven { Advance::ToNextEvent } else { Advance::PerCycle };
        let w = 2 * half_w;
        let fine = recorded_series(&traces, advance, w);
        let coarse = recorded_series(&traces, advance, 2 * w);
        prop_assert!(fine.epochs() > 0, "the run recorded something");
        let epochs = coarse.epochs().max(fine.epochs().div_ceil(2));
        for name in fine.rows.keys().chain(coarse.rows.keys()) {
            for e in 0..epochs {
                prop_assert_eq!(
                    coarse.value(name, e),
                    fine.value(name, 2 * e) + fine.value(name, 2 * e + 1),
                    "row {} epoch {} at w = {} ({:?})",
                    name,
                    e,
                    w,
                    advance
                );
            }
        }
    }
}

/// A series enabled mid-run (between two cumulative runs) records from
/// the enable on. Its first epoch is the one holding the enable cycle,
/// nothing counted before the enable lands in any epoch, the per-bank
/// rows count the same commands as the issue rows, and the row sums
/// reconcile with the aggregate's growth since the enable.
#[test]
fn series_enabled_mid_run_starts_at_the_enable() {
    let bench = Benchmark::by_name("mcf").expect("mcf exists");
    let trace = bench.generate_shared(20_000, 0xD5);
    let (warm, timed) = trace.split_at(trace.len() / 2);
    let width = 4_096;
    for advance in [Advance::PerCycle, Advance::ToNextEvent] {
        let mut sys = MultiCoreSystem::new(1, cpu_cfg(advance), channels(advance, 1));
        let enabled_at = sys.run(vec![warm.iter().copied()]).per_core[0].cycles;
        let first_epoch = usize::try_from(enabled_at / width).expect("epoch fits usize");
        assert!(first_epoch > 1, "the warm-up spans several epochs");
        let before = merged_aggregate(&mut sys);
        sys.backend_mut().enable_series(width);
        sys.enable_series(width);
        sys.run(vec![timed.iter().copied()]);
        let series = merged_series(&mut sys);
        let grown = merged_aggregate(&mut sys).delta_since(&before);

        for (name, row) in &series.rows {
            let early: u64 = row.iter().take(first_epoch).sum();
            assert_eq!(
                early, 0,
                "{name} credits {early} before the enable ({advance:?})"
            );
        }
        assert!(
            series.value("multicore.core.steps", first_epoch) > 0,
            "the first epoch is the enable's ({advance:?})"
        );
        let bank_issues: u64 = series
            .rows
            .iter()
            .filter(|(name, _)| name.contains(".bank"))
            .map(|(_, row)| row.iter().sum::<u64>())
            .sum();
        let issues = series.row_total("dram.decision.issue_hit")
            + series.row_total("dram.decision.issue_miss");
        assert!(issues > 0, "the timed half issues commands ({advance:?})");
        assert_eq!(bank_issues, issues, "bank rows vs issue rows ({advance:?})");
        assert!(
            series.reconciles_with(&grown),
            "row sums diverged from the aggregate's growth ({advance:?})"
        );
    }
}

/// End-to-end on a real benchmark: a 16-core rate-mode mcf job over
/// `ShardedEngine{N=4}` with series recording on every layer is
/// bit-identical to the recording-off run under both advance policies —
/// and the merged cross-layer series reconciles with the merged
/// aggregate snapshot.
#[test]
fn series_recording_is_bit_identical_end_to_end() {
    let bench = Benchmark::by_name("mcf").expect("mcf exists");
    let trace = bench.generate_shared(6_000, 0xD5);

    for advance in [Advance::PerCycle, Advance::ToNextEvent] {
        let width = 16_384;

        let mut plain = MultiCoreSystem::new(16, cpu_cfg(advance), engine(advance, None));
        let plain_result = plain.run(CoreTrace::rate(&trace, DATA_SPAN, 16));

        let mut recorded = MultiCoreSystem::new(16, cpu_cfg(advance), engine(advance, Some(width)));
        recorded.enable_series(width);
        let recorded_result = recorded.run(CoreTrace::rate(&trace, DATA_SPAN, 16));

        assert_eq!(
            recorded_result, plain_result,
            "results diverged ({advance:?})"
        );
        assert_eq!(
            recorded.backend_mut().stats(),
            plain.backend_mut().stats(),
            "engine stats diverged ({advance:?})"
        );
        assert_eq!(
            recorded.backend_mut().dram_stats(),
            plain.backend_mut().dram_stats(),
            "dram stats diverged ({advance:?})"
        );

        // The cross-layer merge reconciles with the merged aggregate.
        let mut aggregate = recorded.telemetry_snapshot();
        recorded
            .backend_mut()
            .dram_telemetry()
            .render_into(&mut aggregate);
        let mut series = recorded
            .backend_mut()
            .series_snapshot()
            .expect("backend series enabled");
        series.merge(
            &recorded
                .series_snapshot()
                .expect("scheduler series enabled"),
        );
        assert!(
            series.reconciles_with(&aggregate),
            "merged series diverged from the merged aggregate ({advance:?})"
        );
        assert!(series.epochs() > 1, "the run spans several epochs");
    }
}
