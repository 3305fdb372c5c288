//! Kernel perf baseline: wall-clock of the Figure 6 smoke sweep under the
//! per-cycle reference vs the event-driven kernel, written to
//! `BENCH_kernel.json`.
//!
//! Four records are reported:
//!
//! * **fig6_smoke_sweep** — the full 29-benchmark × 6-configuration
//!   matrix `fig6_performance` runs, at a reduced smoke budget. This
//!   mixes bandwidth-saturated workloads (where the DDR4 channel issues a
//!   command every few cycles and an event-driven kernel can at best
//!   match lock-step simulation) with latency-bound ones.
//! * **pointer_chase_runs** — the pointer-chase subset (mcf-style), where
//!   long quiet stalls dominate and idle-skipping pays directly.
//! * **dram_idle_gaps** — the bare DDR4 controller advanced across bursty
//!   traffic with long idle gaps, the kernel's strongest case.
//! * **batched_ingestion** — `MemoryBackend::submit_batch` against one
//!   `submit` call per access on the bare engine, with identical
//!   statistics asserted before timing is reported.
//! * **shard_scaling_nN** (N = 1, 2, 4, 8) — the pointer-chase workload
//!   through `CpuSystem` over a `ShardedEngine` with N interleaved
//!   channels, per-cycle vs event-driven. Per-shard traffic thins as N
//!   grows, so per-shard idle windows *widen* and the event-driven
//!   speedup must not shrink under sharding. The N=1 sharded run is
//!   asserted bit-identical to the bare unsharded engine (reported as
//!   `sharded_n1_matches_unsharded`, gated in CI).
//! * **multicore_rate_nN** (N = 1, 2, 4, 8, 16) — the pointer-chase
//!   workload in rate mode: N cores sharing the LLC and a 4-channel
//!   `ShardedEngine` through `MultiCoreSystem`, per-cycle (every core
//!   steps every cycle) vs the event-driven awake-list scheduler. Each
//!   N's event-driven run is asserted bit-identical to its per-cycle
//!   reference, and the single-core `MultiCoreSystem` is asserted
//!   bit-identical to the bare `CpuSystem` over the same backend and
//!   trace (reported as `multicore_n1_matches_single`, gated in CI).
//!   These records also carry `per_cycle_core_steps` /
//!   `event_driven_core_steps` — the summed number of times any core was
//!   actually stepped, the scheduler-efficiency measure wall-clock
//!   speedups follow from.
//! * **multicore_bursty_nN** (N = 8, 16) — the same rate-mode harness on
//!   a *bursty* variant of the trace (64-op mcf chunks separated by
//!   2000-instruction compute blocks), so every channel sees real idle
//!   windows between bursts: the regime where block-advance should win
//!   biggest at high core counts (the ROADMAP's n8/n16 open item).
//!
//! Sharded and multicore records additionally report
//! `controller_decision_cycles` / `controller_busy_cycles` — the
//! channel-merged count of DRAM cycles the controllers actually
//! *executed* vs the busy cycles they covered (executed or
//! block-skipped). These are deterministic, so unlike seconds they are
//! immune to steal noise, and every saturated rate record asserts
//! decision < busy before timing is reported.
//!
//! Sharded and multicore records also carry a compact `series` block
//! summarising the sim-time windowed series recorded during the
//! event-driven run (epoch width, per-phase dominant decision causes,
//! aging onset epoch, channel imbalance). Series recording is enabled in
//! *all* timed runs of both policies so the overhead is symmetric, and
//! the per-epoch sums are asserted to reconcile exactly with the
//! aggregate telemetry before each record is built (`series_reconciles`,
//! gated in CI).
//!
//! Absolute seconds are host-dependent; the within-run
//! per-cycle/event-driven ratio is measured with mirrored ABBA ordering
//! so host drift cancels.
//!
//! Sweeps run through the shared [`crate::runner::par_sweep`] harness;
//! result tables are asserted identical between the two advance policies
//! before any timing is reported, so each speedup is for bit-identical
//! simulation output.

use std::sync::Arc;
use std::time::Instant;

use cpu_model::system::{AccessKind, BatchAccess, MemoryBackend, SimResult};
use cpu_model::{CpuConfig, CpuSystem, TraceOp};
use dram_sim::{ControllerTelemetry, DramConfig, DramStats, DramSystem, MemRequest, ReqKind};
use secddr_channels::{Interleave, ShardedEngine};
use secddr_core::config::SecurityConfig;
use secddr_core::engine::{EngineOptions, EngineStats, SecurityEngine};
use secddr_core::metadata::DATA_SPAN;
use secddr_core::system::{run_trace_with_options, RunParams};
use secddr_multicore::{CoreTrace, MultiCoreResult, MultiCoreSystem, WakeReasons};
use secddr_telemetry::{report as series_report, SeriesSnapshot, TelemetrySnapshot};
use sim_kernel::Advance;

use crate::runner::{sweep_with_options, Sweep};

/// Series epoch width (CPU cycles) for the sharded and multicore
/// records: scales with the instruction budget so epoch counts stay in
/// the dozens, floored so smoke budgets still roll several epochs.
fn series_width(instructions: u64) -> u64 {
    (instructions * 2).max(2_048)
}

fn fig6_configs() -> [SecurityConfig; 5] {
    [
        SecurityConfig::tree_64ary(),
        SecurityConfig::secddr_ctr(),
        SecurityConfig::encrypt_only_ctr(),
        SecurityConfig::secddr_xts(),
        SecurityConfig::encrypt_only_xts(),
    ]
}

fn timed_sweep(params: RunParams, advance: Advance) -> (Sweep, f64) {
    let options = EngineOptions {
        advance,
        ..EngineOptions::default()
    };
    let start = Instant::now();
    let sweep = sweep_with_options(&fig6_configs(), params, options);
    (sweep, start.elapsed().as_secs_f64())
}

fn assert_sweeps_identical(fast: &Sweep, reference: &Sweep) {
    for (b, (f, r)) in fast
        .results
        .iter()
        .zip(reference.results.iter())
        .enumerate()
    {
        for (c, (fr, rr)) in f.iter().zip(r.iter()).enumerate() {
            assert_eq!(
                (fr.sim.clone(), fr.engine, fr.dram.clone()),
                (rr.sim.clone(), rr.engine, rr.dram.clone()),
                "event-driven kernel diverged on {}/{}",
                fast.benches[b].name(),
                fast.configs[c].label(),
            );
        }
    }
}

/// Bare-controller microbenchmark: bursty traffic with long idle gaps.
fn dram_idle_gap_secs(advance: Advance) -> f64 {
    let start = Instant::now();
    for rep in 0..20u64 {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200());
        let mut id = 0u64;
        for burst in 0..8u64 {
            let target = burst * 20_000;
            let _ = dram.advance_to(target, advance);
            for i in 0..12u64 {
                let kind = if i % 3 == 0 {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                };
                let addr = (rep * 0x10_0000 + burst * 0x1_0000 + i * 0x940) & !63;
                dram.enqueue(MemRequest::new(id, kind, addr, dram.cycle()))
                    .unwrap();
                id += 1;
            }
        }
        let _ = dram.advance_to(200_000, advance);
    }
    start.elapsed().as_secs_f64()
}

/// Bare-engine ingestion microbenchmark: volleys of accesses fed either
/// through `submit_batch` or one `submit` per access, returning the
/// elapsed seconds and the final engine statistics (asserted identical
/// across modes by the caller).
fn ingestion_run(batched: bool) -> (f64, secddr_core::engine::EngineStats) {
    let start = Instant::now();
    let mut last_stats = None;
    for _rep in 0..6u64 {
        let mut engine = SecurityEngine::new(SecurityConfig::secddr_ctr(), 3200);
        let mut results = Vec::new();
        let mut batch = Vec::with_capacity(8);
        let mut now = 100u64;
        for volley in 0..4_000u64 {
            batch.clear();
            for i in 0..8u64 {
                let x = volley * 8 + i;
                batch.push(BatchAccess {
                    kind: if x % 4 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    addr: (x.wrapping_mul(0x9E37_79B9) << 6) & ((1 << 33) - 1),
                    is_prefetch: false,
                });
            }
            results.clear();
            if batched {
                engine.submit_batch(&batch, now, &mut results);
            } else {
                for b in &batch {
                    results.push(engine.submit(b.kind, b.addr, now, b.is_prefetch));
                }
            }
            now += 120;
            let _ = engine.tick(now);
        }
        last_stats = Some(engine.stats());
    }
    (
        start.elapsed().as_secs_f64(),
        last_stats.expect("at least one rep"),
    )
}

/// One `CpuSystem`-over-`ShardedEngine` run: simulated results (for the
/// identity asserts), the merged controller telemetry plus the recorded
/// sim-time series (both kept out of the compared tuple — the advance
/// policies disagree on telemetry by design), and the wall-clock
/// seconds of the run itself. Series recording is enabled in every run,
/// so both timing columns carry the same (near-zero) recording cost.
fn sharded_run(
    trace: &[TraceOp],
    shards: usize,
    advance: Advance,
    epoch_width: u64,
) -> (
    (SimResult, EngineStats, DramStats),
    (ControllerTelemetry, SeriesSnapshot),
    f64,
) {
    let options = EngineOptions {
        advance,
        ..EngineOptions::default()
    };
    let cpu_cfg = CpuConfig {
        advance,
        batch_submit: options.batched_ingestion,
        ..CpuConfig::default()
    };
    let start = Instant::now();
    let mut engine = ShardedEngine::with_options(
        SecurityConfig::secddr_ctr(),
        cpu_cfg.clock_mhz,
        Interleave::xor(shards),
        options,
    );
    engine.enable_series(epoch_width);
    let mut sys = CpuSystem::new(cpu_cfg, engine);
    let sim = sys.run(trace.iter().copied());
    let secs = start.elapsed().as_secs_f64();
    let series = sys
        .backend_mut()
        .series_snapshot()
        .expect("series recording was enabled");
    (
        (
            sim,
            sys.backend_mut().stats(),
            sys.backend_mut().dram_stats(),
        ),
        (sys.backend_mut().dram_telemetry(), series),
        secs,
    )
}

/// Shard-scaling records (N = 1, 2, 4, 8) on the pointer-chase workload,
/// ABBA-ordered per N. Returns the records and asserts along the way
/// that each N's event-driven run matches its per-cycle reference and
/// that the N=1 sharded run is bit-identical to the bare engine.
fn shard_scaling_records(params: RunParams) -> Vec<Record> {
    let bench = workloads::Benchmark::by_name("mcf").expect("mcf exists");
    let trace = bench.generate(params.instructions, params.seed);

    // Unsharded baseline for the N=1 identity gate (event-driven, the
    // same options sharded_run uses).
    let bare = run_trace_with_options(
        &bench,
        &trace,
        &SecurityConfig::secddr_ctr(),
        EngineOptions::default(),
    );

    let width = series_width(params.instructions);
    let mut records = Vec::new();
    for (n, name) in [
        (1usize, "shard_scaling_n1"),
        (2, "shard_scaling_n2"),
        (4, "shard_scaling_n4"),
        (8, "shard_scaling_n8"),
    ] {
        let (ref_res, _, ref_a) = sharded_run(&trace, n, Advance::PerCycle, width);
        let (fast_res, (fast_t, fast_series), fast_a) =
            sharded_run(&trace, n, Advance::ToNextEvent, width);
        let (_, _, fast_b) = sharded_run(&trace, n, Advance::ToNextEvent, width);
        let (_, _, ref_b) = sharded_run(&trace, n, Advance::PerCycle, width);
        assert_eq!(
            fast_res, ref_res,
            "N={n}: event-driven sharded run diverged from per-cycle"
        );
        if n == 1 {
            assert_eq!(fast_res.0, bare.sim, "sharded N=1 SimResult != unsharded");
            assert_eq!(
                fast_res.1, bare.engine,
                "sharded N=1 EngineStats != unsharded"
            );
            assert_eq!(fast_res.2, bare.dram, "sharded N=1 DramStats != unsharded");
        }
        assert_eq!(
            fast_t.causes.total(),
            fast_t.decision_cycles,
            "N={n}: decision causes must partition the executed cycles"
        );
        let mut aggregate = TelemetrySnapshot::default();
        fast_t.render_into(&mut aggregate);
        assert!(
            fast_series.reconciles_with(&aggregate),
            "N={n}: per-epoch series sums must reconcile with the aggregate"
        );
        records.push(Record {
            name,
            detail: format!(
                "mcf x secddr_ctr through CpuSystem over ShardedEngine \
                 (xor interleave, {n} channel{})",
                if n == 1 { "" } else { "s" }
            ),
            ref_secs: ref_a.min(ref_b),
            fast_secs: fast_a.min(fast_b),
            core_steps: None,
            controller_cycles: Some((fast_t.decision_cycles, fast_t.busy_cycles)),
            telemetry: Some((fast_t, None)),
            series: Some(fast_series),
        });
    }
    records
}

/// The shared-backend shard count every multicore record runs over.
const MULTICORE_CHANNELS: usize = 4;

/// Scheduler telemetry of one rate-mode run, kept out of the compared
/// observables (the advance policies disagree on these by design: the
/// per-cycle reference executes every controller cycle and never wakes
/// a core).
struct MulticoreTelemetry {
    /// Summed core-step count.
    steps: u64,
    /// Channel-merged controller telemetry.
    controller: ControllerTelemetry,
    /// Wake-reason attribution (all zero under per-cycle).
    wake: WakeReasons,
    /// Recorded sim-time series, scheduler and channel layers merged.
    series: SeriesSnapshot,
    /// The matching aggregate snapshot (scheduler + controller rows),
    /// built in the same call so the reconciliation assert compares
    /// like with like.
    aggregate: TelemetrySnapshot,
}

/// One rate-mode run: N cores over one shared 4-channel `ShardedEngine`,
/// returning the simulated observables (for the identity asserts), the
/// run's scheduler telemetry, and the wall-clock seconds of the run
/// itself.
fn multicore_run(
    trace: &Arc<Vec<TraceOp>>,
    cores: usize,
    advance: Advance,
    epoch_width: u64,
) -> (
    (MultiCoreResult, EngineStats, DramStats),
    MulticoreTelemetry,
    f64,
) {
    let options = EngineOptions {
        advance,
        ..EngineOptions::default()
    };
    let cpu_cfg = CpuConfig {
        advance,
        batch_submit: options.batched_ingestion,
        ..CpuConfig::default()
    };
    let start = Instant::now();
    let mut engine = ShardedEngine::with_options(
        SecurityConfig::secddr_ctr(),
        cpu_cfg.clock_mhz,
        Interleave::xor(MULTICORE_CHANNELS),
        options,
    );
    engine.enable_series(epoch_width);
    let mut sys = MultiCoreSystem::new(cores, cpu_cfg, engine);
    sys.enable_series(epoch_width);
    let result = sys.run(CoreTrace::rate(trace, DATA_SPAN, cores));
    let secs = start.elapsed().as_secs_f64();
    let controller = sys.backend_mut().dram_telemetry();
    let mut aggregate = sys.telemetry_snapshot();
    controller.render_into(&mut aggregate);
    let mut series = sys
        .backend_mut()
        .series_snapshot()
        .expect("series recording was enabled");
    series.merge(&sys.series_snapshot().expect("series recording was enabled"));
    let telemetry = MulticoreTelemetry {
        steps: sys.core_step_counts().iter().sum(),
        controller,
        wake: sys.wake_reasons(),
        series,
        aggregate,
    };
    (
        (
            result,
            sys.backend_mut().stats(),
            sys.backend_mut().dram_stats(),
        ),
        telemetry,
        secs,
    )
}

/// Multi-core rate-mode records (N = 1, 2, 4, 8, 16 cores over a shared
/// 4-channel `ShardedEngine`), ABBA-ordered per N. Asserts along the way
/// that each N's event-driven core scheduler matches its per-cycle
/// reference and that the single-core `MultiCoreSystem` is bit-identical
/// to the bare `CpuSystem` over the same backend and trace stream.
fn multicore_records(params: RunParams) -> Vec<Record> {
    let bench = workloads::Benchmark::by_name("mcf").expect("mcf exists");
    // Shared (memoized) rate-mode trace: every core of every N iterates
    // this one allocation.
    let trace = bench.generate_shared(params.instructions, params.seed);

    // Single-core baseline for the N=1 identity gate: CpuSystem (the
    // scheduler's one-core view) over an identically built backend, fed
    // the same window-mapped trace stream (event-driven, the default
    // options).
    let single = {
        let options = EngineOptions::default();
        let cpu_cfg = CpuConfig {
            batch_submit: options.batched_ingestion,
            ..CpuConfig::default()
        };
        let engine = ShardedEngine::with_options(
            SecurityConfig::secddr_ctr(),
            cpu_cfg.clock_mhz,
            Interleave::xor(MULTICORE_CHANNELS),
            options,
        );
        let mut sys = CpuSystem::new(cpu_cfg, engine);
        let mut streams = CoreTrace::rate(&trace, DATA_SPAN, 1);
        let sim = sys.run(streams.remove(0));
        (
            sim,
            sys.backend_mut().stats(),
            sys.backend_mut().dram_stats(),
        )
    };

    let width = series_width(params.instructions);
    let mut records = Vec::new();
    for (n, name) in [
        (1usize, "multicore_rate_n1"),
        (2, "multicore_rate_n2"),
        (4, "multicore_rate_n4"),
        (8, "multicore_rate_n8"),
        (16, "multicore_rate_n16"),
    ] {
        let (ref_res, ref_t, ref_a) = multicore_run(&trace, n, Advance::PerCycle, width);
        let (fast_res, fast_t, fast_a) = multicore_run(&trace, n, Advance::ToNextEvent, width);
        let (_, _, fast_b) = multicore_run(&trace, n, Advance::ToNextEvent, width);
        let (_, _, ref_b) = multicore_run(&trace, n, Advance::PerCycle, width);
        assert_eq!(
            fast_res, ref_res,
            "N={n}: event-driven multicore run diverged from per-cycle"
        );
        if n == 1 {
            assert_eq!(
                fast_res.0.per_core[0], single.0,
                "multicore N=1 SimResult != bare CpuSystem"
            );
            assert_eq!(
                fast_res.1, single.1,
                "multicore N=1 EngineStats != bare CpuSystem"
            );
            assert_eq!(
                fast_res.2, single.2,
                "multicore N=1 DramStats != bare CpuSystem"
            );
        }
        let adv = fast_t.controller;
        assert!(
            adv.decision_cycles < adv.busy_cycles,
            "N={n}: a saturated controller must execute strictly fewer cycles \
             than it covers busy ({} vs {})",
            adv.decision_cycles,
            adv.busy_cycles,
        );
        assert_eq!(
            adv.causes.total(),
            adv.decision_cycles,
            "N={n}: decision causes must partition the executed cycles"
        );
        assert_eq!(ref_t.wake, WakeReasons::default(), "per-cycle never wakes");
        assert!(
            fast_t.series.reconciles_with(&fast_t.aggregate),
            "N={n}: per-epoch series sums must reconcile with the aggregate"
        );
        records.push(Record {
            name,
            detail: format!(
                "mcf rate mode x secddr_ctr: {n} core{} over MultiCoreSystem \
                 sharing a 4-channel ShardedEngine (aggregate ipc {:.3})",
                if n == 1 { "" } else { "s" },
                fast_res.0.aggregate_ipc(),
            ),
            ref_secs: ref_a.min(ref_b),
            fast_secs: fast_a.min(fast_b),
            core_steps: Some((ref_t.steps, fast_t.steps)),
            controller_cycles: Some((adv.decision_cycles, adv.busy_cycles)),
            telemetry: Some((adv, Some(fast_t.wake))),
            series: Some(fast_t.series),
        });
    }
    records
}

/// Bursty rate-mode records: the mcf trace chopped into 64-op chunks
/// separated by 2000-instruction compute blocks, so every channel sees
/// real idle windows between bursts — the ROADMAP's n8/n16 open item,
/// where block-advance should win biggest at high core counts.
fn multicore_bursty_records(params: RunParams) -> Vec<Record> {
    let bench = workloads::Benchmark::by_name("mcf").expect("mcf exists");
    let base = bench.generate_shared(params.instructions, params.seed);
    let trace = {
        let mut ops = Vec::with_capacity(base.len() + base.len() / 64 + 1);
        for chunk in base.chunks(64) {
            ops.extend_from_slice(chunk);
            ops.push(TraceOp::Compute(2_000));
        }
        Arc::new(ops)
    };
    let width = series_width(params.instructions);
    let mut records = Vec::new();
    for (n, name) in [
        (8usize, "multicore_bursty_n8"),
        (16, "multicore_bursty_n16"),
    ] {
        let (ref_res, ref_t, ref_a) = multicore_run(&trace, n, Advance::PerCycle, width);
        let (fast_res, fast_t, fast_a) = multicore_run(&trace, n, Advance::ToNextEvent, width);
        let (_, _, fast_b) = multicore_run(&trace, n, Advance::ToNextEvent, width);
        let (_, _, ref_b) = multicore_run(&trace, n, Advance::PerCycle, width);
        assert_eq!(
            fast_res, ref_res,
            "N={n}: event-driven bursty multicore run diverged from per-cycle"
        );
        let adv = fast_t.controller;
        assert_eq!(
            adv.causes.total(),
            adv.decision_cycles,
            "N={n}: decision causes must partition the executed cycles"
        );
        assert!(
            fast_t.series.reconciles_with(&fast_t.aggregate),
            "N={n}: per-epoch series sums must reconcile with the aggregate"
        );
        records.push(Record {
            name,
            detail: format!(
                "mcf bursty rate mode x secddr_ctr: {n} cores, 64-op bursts + \
                 2000-instruction compute gaps over a 4-channel ShardedEngine \
                 (aggregate ipc {:.3})",
                fast_res.0.aggregate_ipc(),
            ),
            ref_secs: ref_a.min(ref_b),
            fast_secs: fast_a.min(fast_b),
            core_steps: Some((ref_t.steps, fast_t.steps)),
            controller_cycles: Some((adv.decision_cycles, adv.busy_cycles)),
            telemetry: Some((adv, Some(fast_t.wake))),
            series: Some(fast_t.series),
        });
    }
    records
}

struct Record {
    name: &'static str,
    detail: String,
    ref_secs: f64,
    fast_secs: f64,
    /// Summed core-step counts (per-cycle, event-driven) for multicore
    /// records: the deterministic scheduler-efficiency measure behind
    /// the host-dependent wall-clocks.
    core_steps: Option<(u64, u64)>,
    /// Channel-merged controller advance counters
    /// (`decision_cycles`, `busy_cycles`) from the event-driven run:
    /// DRAM cycles executed vs busy cycles covered. Deterministic, so
    /// immune to the steal noise that makes seconds unreliable here.
    controller_cycles: Option<(u64, u64)>,
    /// Per-record attribution breakdowns from the event-driven run: the
    /// controller's decision-cause buckets (whose sum is asserted equal
    /// to `controller_decision_cycles` before the record is built) and,
    /// for multicore records, the scheduler's wake-reason buckets.
    telemetry: Option<(ControllerTelemetry, Option<WakeReasons>)>,
    /// Sim-time windowed series from the event-driven run (sharded and
    /// multicore records only), already asserted to reconcile with the
    /// aggregate telemetry. Summarised into a compact per-record
    /// attribution block rather than dumped row-by-row.
    series: Option<SeriesSnapshot>,
}

impl Record {
    fn to_json(&self) -> String {
        let mut extra = String::new();
        if let Some((ref_steps, fast_steps)) = self.core_steps {
            extra.push_str(&format!(
                ",\n    \"per_cycle_core_steps\": {ref_steps},\n    \
                 \"event_driven_core_steps\": {fast_steps},\n    \
                 \"core_step_ratio\": {:.2}",
                ref_steps as f64 / fast_steps as f64
            ));
        }
        if let Some((decisions, busy)) = self.controller_cycles {
            extra.push_str(&format!(
                ",\n    \"controller_decision_cycles\": {decisions},\n    \
                 \"controller_busy_cycles\": {busy},\n    \
                 \"decision_cycle_fraction\": {:.3}",
                decisions as f64 / busy.max(1) as f64
            ));
        }
        if let Some((controller, wake)) = &self.telemetry {
            let c = controller.causes;
            extra.push_str(&format!(
                ",\n    \"telemetry\": {{\n      \
                 \"decision_causes\": {{\"issue_hit\": {}, \"issue_miss\": {}, \
                 \"refresh\": {}, \"completion\": {}, \"drain_flip\": {}, \
                 \"aging\": {}, \"noop\": {}, \"total\": {}}}",
                c.issue_hit,
                c.issue_miss,
                c.refresh,
                c.completion,
                c.drain_flip,
                c.aging,
                c.noop,
                c.total(),
            ));
            if let Some(w) = wake {
                extra.push_str(&format!(
                    ",\n      \"wake_reasons\": {{\"completion\": {}, \
                     \"timer\": {}, \"spurious\": {}, \
                     \"submit_rederive\": {}, \"total\": {}}}",
                    w.completion,
                    w.timer,
                    w.spurious,
                    w.submit_rederive,
                    w.total(),
                ));
            }
            extra.push_str("\n    }");
        }
        if let Some(series) = &self.series {
            let phases: Vec<String> = series_report::phase_summaries(series, 4)
                .iter()
                .map(|p| {
                    format!(
                        "{{\"from_epoch\": {}, \"to_epoch\": {}, \
                         \"dominant_cause\": \"{}\", \"share\": {:.3}, \
                         \"decisions\": {}}}",
                        p.from_epoch, p.to_epoch, p.dominant_cause, p.dominant_share, p.decisions
                    )
                })
                .collect();
            let aging = series_report::aging_onset_epoch(series)
                .map_or("null".to_string(), |e| e.to_string());
            let imbalance = series_report::channel_imbalance(series)
                .map_or("null".to_string(), |(_, _, r)| format!("{r:.2}"));
            extra.push_str(&format!(
                ",\n    \"series_reconciles\": true,\n    \
                 \"series\": {{\"epoch_width\": {}, \"epochs\": {}, \
                 \"aging_onset_epoch\": {aging}, \
                 \"channel_imbalance\": {imbalance}, \"phases\": [{}]}}",
                series.epoch_width,
                series.epochs(),
                phases.join(", ")
            ));
        }
        format!(
            "  {{\n    \"benchmark\": \"{}\",\n    \
             \"detail\": \"{}\",\n    \
             \"per_cycle_seconds\": {:.3},\n    \
             \"event_driven_seconds\": {:.3},\n    \
             \"speedup\": {:.2}{extra}\n  }}",
            self.name,
            self.detail,
            self.ref_secs,
            self.fast_secs,
            self.ref_secs / self.fast_secs,
        )
    }
}

/// Runs all passes at the given budget and returns the JSON report.
///
/// # Panics
///
/// Panics if any pass pair disagrees on any simulated statistic — the
/// speedups are only meaningful for identical results.
pub fn report(instructions: u64, seed: u64) -> String {
    let params = RunParams { instructions, seed };
    // Warm the process-wide GAPBS graph (memoized per (vertices, seed))
    // so neither timed pass absorbs its one-off construction cost.
    let _ = workloads::Benchmark::by_name("pr")
        .expect("pr exists")
        .generate(1_000, seed);

    // ABBA pass order (reference, fast, fast, reference): on a shared or
    // frequency-ramping host, wall-clock drifts over the measurement
    // window; mirrored ordering cancels linear drift instead of crediting
    // it to whichever policy runs later. The minimum of each pair then
    // drops residual scheduler noise.
    let (reference, ref_a) = timed_sweep(params, Advance::PerCycle);
    let (fast, fast_a) = timed_sweep(params, Advance::ToNextEvent);
    let (_, fast_b) = timed_sweep(params, Advance::ToNextEvent);
    let (_, ref_b) = timed_sweep(params, Advance::PerCycle);
    let (fast_secs, ref_secs) = (fast_a.min(fast_b), ref_a.min(ref_b));
    assert_sweeps_identical(&fast, &reference);

    // Latency-bound record: the pointer-chase benchmark, whose long quiet
    // stalls are what the idle-skip targets.
    let subset = "mcf";
    std::env::set_var("SECDDR_BENCH", subset);
    let (ref_lat, ref_lat_a) = timed_sweep(params, Advance::PerCycle);
    let (fast_lat, fast_lat_a) = timed_sweep(params, Advance::ToNextEvent);
    let (_, fast_lat_b) = timed_sweep(params, Advance::ToNextEvent);
    let (_, ref_lat_b) = timed_sweep(params, Advance::PerCycle);
    std::env::remove_var("SECDDR_BENCH");
    let (fast_lat_secs, ref_lat_secs) = (fast_lat_a.min(fast_lat_b), ref_lat_a.min(ref_lat_b));
    assert_sweeps_identical(&fast_lat, &ref_lat);

    let dram_ref = dram_idle_gap_secs(Advance::PerCycle).min(dram_idle_gap_secs(Advance::PerCycle));
    let dram_fast =
        dram_idle_gap_secs(Advance::ToNextEvent).min(dram_idle_gap_secs(Advance::ToNextEvent));

    // Batched ingestion: per-call is the "reference" column, the batch is
    // the "fast" column; statistics must be identical before timing
    // counts.
    let (per_call_a, per_call_stats) = ingestion_run(false);
    let (batch_a, batch_stats) = ingestion_run(true);
    assert_eq!(
        per_call_stats, batch_stats,
        "submit_batch diverged from per-call submits"
    );
    let (batch_b, _) = ingestion_run(true);
    let (per_call_b, _) = ingestion_run(false);
    let (batch_secs, per_call_secs) = (batch_a.min(batch_b), per_call_a.min(per_call_b));

    let mut records = vec![
        Record {
            name: "fig6_smoke_sweep",
            detail: format!(
                "{} benchmarks x {} configs (mixed saturated + latency-bound)",
                fast.benches.len(),
                fast.configs.len() + 1
            ),
            ref_secs,
            fast_secs,
            core_steps: None,
            controller_cycles: None,
            telemetry: None,
            series: None,
        },
        Record {
            name: "pointer_chase_runs",
            detail: format!("{subset} x {} configs", fast_lat.configs.len() + 1),
            ref_secs: ref_lat_secs,
            fast_secs: fast_lat_secs,
            core_steps: None,
            controller_cycles: None,
            telemetry: None,
            series: None,
        },
        Record {
            name: "dram_idle_gaps",
            detail: "bare DDR4 controller, bursty traffic over 200k-cycle windows".into(),
            ref_secs: dram_ref,
            fast_secs: dram_fast,
            core_steps: None,
            controller_cycles: None,
            telemetry: None,
            series: None,
        },
        Record {
            name: "batched_ingestion",
            detail: "bare engine, 8-access volleys: submit_batch vs per-call submit \
                     (columns: per-call, batched)"
                .into(),
            ref_secs: per_call_secs,
            fast_secs: batch_secs,
            core_steps: None,
            controller_cycles: None,
            telemetry: None,
            series: None,
        },
    ];

    // Shard-scaling sweep: asserts per-policy identity at every N and
    // the N=1 ≡ unsharded gate before any timing is recorded.
    records.extend(shard_scaling_records(params));

    // Multi-core rate-mode sweep: asserts per-policy identity at every
    // core count and the N=1 ≡ single-core gate before any timing.
    records.extend(multicore_records(params));

    // Bursty rate-mode sweep (real idle windows per channel at 8/16
    // cores), same per-policy identity asserts.
    records.extend(multicore_bursty_records(params));

    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(16);
    let body: Vec<String> = records.iter().map(Record::to_json).collect();
    format!(
        "{{\n  \"instructions_per_run\": {instructions},\n  \
           \"seed\": {seed},\n  \
           \"host_threads\": {threads},\n  \
           \"results_identical\": true,\n  \
           \"sharded_n1_matches_unsharded\": true,\n  \
           \"multicore_n1_matches_single\": true,\n  \
           \"decision_cycles_below_busy\": true,\n  \
           \"telemetry_reconciles\": true,\n  \
           \"series_reconciles\": true,\n  \
           \"records\": [\n{}\n  ]\n}}\n",
        body.join(",\n"),
    )
}

/// Runs the baseline and writes `BENCH_kernel.json` into the current
/// directory (the workspace root under `cargo run`).
pub fn run() {
    let instructions = std::env::var("SECDDR_INSTRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40_000);
    let json = report(instructions, crate::seed());
    print!("{json}");
    match std::fs::write("BENCH_kernel.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_kernel.json"),
        Err(e) => eprintln!("could not write BENCH_kernel.json: {e}"),
    }
}
