//! `rate16_mcf`: 16 cores run mcf in rate mode under SecDDR+CTR through
//! `MultiCoreSystem` over a 4-channel xor-interleaved `ShardedEngine`,
//! one rate run at a time on one thread.
//!
//! An operation is one rate run. Its host time covers `run` only; the
//! system is built before the clock starts, and that construction is
//! what `setup_s` measures together with trace generation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use cpu_model::system::MemoryBackend;
use cpu_model::{CpuConfig, TraceOp};
use dram_sim::ControllerTelemetry;
use secddr_channels::{Interleave, ShardedEngine};
use secddr_core::engine::EngineOptions;
use secddr_core::metadata::DATA_SPAN;
use secddr_core::{EngineStats, SecurityConfig};
use secddr_multicore::{CoreTrace, MultiCoreResult, MultiCoreSystem, WakeReasons};
use workloads::Benchmark;

use crate::digest::{Checker, Digest};
use crate::seam::{Seam, SeamStats};
use crate::{abba, dram_counts, median, tail, Args, Report};

const NAME: &str = "rate16_mcf";
const CORES: usize = 16;
const CHANNELS: usize = 4;
/// Instructions per core: the budget of the ROADMAP's rate-mode
/// baseline, long enough that aging and drain flips are live at n16.
const INSTRUCTIONS: u64 = 40_000;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;

fn cpu_config() -> CpuConfig {
    let options = EngineOptions::default();
    CpuConfig {
        advance: options.advance,
        batch_submit: options.batched_ingestion,
        ..CpuConfig::default()
    }
}

fn engine() -> ShardedEngine {
    ShardedEngine::with_options(
        SecurityConfig::secddr_ctr(),
        cpu_config().clock_mhz,
        Interleave::xor(CHANNELS),
        EngineOptions::default(),
    )
}

/// One rate run's outputs and probes.
struct Run {
    digest: u64,
    instructions: u64,
    /// Host seconds inside `MultiCoreSystem::run`.
    run_s: f64,
    /// Host seconds of the whole operation (construction, run, stats).
    op_s: f64,
    seam: Option<SeamStats>,
    telemetry: ControllerTelemetry,
    engine: EngineStats,
    shard_ticks: u64,
    core_steps: u64,
    wakes: WakeReasons,
}

impl Run {
    /// The deterministic counts that must repeat exactly.
    fn counts(&self) -> Vec<u64> {
        let mut counts = dram_counts(&self.telemetry).to_vec();
        counts.extend([self.shard_ticks, self.core_steps]);
        counts.extend(self.seam.map(|s| s.counts()).unwrap_or_default());
        counts
    }
}

fn simulate<B: MemoryBackend>(
    sys: &mut MultiCoreSystem<B>,
    trace: &Arc<Vec<TraceOp>>,
) -> (MultiCoreResult, f64) {
    let streams = CoreTrace::rate(trace, DATA_SPAN, CORES);
    let start = Instant::now();
    let result = sys.run(streams);
    (result, start.elapsed().as_secs_f64())
}

fn finish(
    engine: &mut ShardedEngine,
    result: &MultiCoreResult,
    run_s: f64,
    seam: Option<SeamStats>,
    (core_steps, wakes): (u64, WakeReasons),
    start: Instant,
) -> Run {
    let stats = engine.stats();
    let mut digest = Digest::default();
    for core in &result.per_core {
        digest.sim(core);
    }
    digest.engine(&stats).dram(&engine.dram_stats());
    Run {
        digest: digest.value(),
        instructions: result.per_core.iter().map(|r| r.instructions).sum(),
        run_s,
        op_s: start.elapsed().as_secs_f64(),
        seam,
        telemetry: engine.dram_telemetry(),
        engine: stats,
        shard_ticks: engine.shard_tick_counts().iter().sum(),
        core_steps,
        wakes,
    }
}

fn rate_run(trace: &Arc<Vec<TraceOp>>, traced: bool) -> Run {
    let start = Instant::now();
    if traced {
        let mut sys = MultiCoreSystem::new(CORES, cpu_config(), Seam::new(engine()));
        let (result, run_s) = simulate(&mut sys, trace);
        let seam = sys.backend().stats();
        let sched = (sys.core_step_counts().iter().sum(), sys.wake_reasons());
        finish(
            sys.backend_mut().inner_mut(),
            &result,
            run_s,
            Some(seam),
            sched,
            start,
        )
    } else {
        let mut sys = MultiCoreSystem::new(CORES, cpu_config(), engine());
        let (result, run_s) = simulate(&mut sys, trace);
        let sched = (sys.core_step_counts().iter().sum(), sys.wake_reasons());
        finish(sys.backend_mut(), &result, run_s, None, sched, start)
    }
}

/// Trace generation plus system construction, repeated; returns the
/// trace, the median set-up seconds and the median generation seconds.
fn setup(seed: u64) -> (Arc<Vec<TraceOp>>, f64, f64) {
    let bench = Benchmark::by_name("mcf").expect("mcf is a Figure 6 benchmark");
    let mut total = Vec::new();
    let mut generate = Vec::new();
    let mut trace = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let t = Arc::new(bench.generate(INSTRUCTIONS, seed));
        generate.push(start.elapsed().as_secs_f64());
        let sys = MultiCoreSystem::new(CORES, cpu_config(), engine());
        std::hint::black_box(&sys);
        total.push(start.elapsed().as_secs_f64());
        trace = Some(t);
    }
    (
        trace.expect("at least one set-up repetition"),
        median(&total),
        median(&generate),
    )
}

/// Runs one operation, counting it; `None` when it panicked or its
/// output digest did not match.
fn attempt(
    trace: &Arc<Vec<TraceOp>>,
    traced: bool,
    checker: &mut Checker,
    report: &mut Report,
) -> Option<Run> {
    report.attempted += 1;
    match catch_unwind(AssertUnwindSafe(|| rate_run(trace, traced))) {
        Ok(run) if checker.accept(run.digest) => Some(run),
        Ok(run) => {
            println!(
                "{NAME}: rate run digest {:#018x} does not match",
                run.digest
            );
            report.failed += 1;
            None
        }
        Err(_) => {
            report.failed += 1;
            None
        }
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let (trace, setup_s, generate_s) = setup(args.seed);
    let mut checker = Checker::new(NAME, args.seed);
    let clock = Instant::now();
    if !args.trace {
        let mut runs = Vec::new();
        while runs.is_empty() || clock.elapsed().as_secs_f64() < args.seconds {
            if let Some(run) = attempt(&trace, false, &mut checker, report) {
                runs.push(run);
            } else if report.failed > 3 {
                break;
            }
        }
        println!("{}", checker.describe(NAME, args.seed));
        if runs.is_empty() {
            return;
        }
        let ms: Vec<f64> = runs.iter().map(|r| r.run_s * 1e3).collect();
        let rates: Vec<f64> = runs
            .iter()
            .map(|r| r.instructions as f64 / r.run_s / 1e6)
            .collect();
        println!(
            "{NAME}: {} rate runs of {CORES} cores x {INSTRUCTIONS} instructions",
            runs.len()
        );
        report.set("setup_s", setup_s);
        report.set("sim_minstr_per_s", median(&rates));
        report.set("job_p50_ms", median(&ms));
        let (p90, p) = tail(&ms);
        println!(
            "{NAME}: job_p90_ms is the p{:.1} of {} samples",
            p * 100.0,
            ms.len()
        );
        report.set("job_p90_ms", p90);
        report.set("store_hit_p50_ms", median(&ms[(ms.len() - 1).min(1)..]));
        return;
    }

    // Traced run: untraced and traced rate runs alternate (ABBA) so the
    // difference between them is the tracing overhead.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut pair = 0usize;
    while traced.len() < 2 || clock.elapsed().as_secs_f64() < args.seconds {
        for probe in abba(pair) {
            let run = attempt(&trace, probe, &mut checker, report);
            match (run, probe) {
                (Some(run), true) => traced.push(run),
                (Some(run), false) => plain.push(run),
                (None, _) => {}
            }
        }
        pair += 1;
        if report.failed > 3 {
            break;
        }
    }
    println!("{}", checker.describe(NAME, args.seed));
    let Some(first) = traced.first() else {
        report.check(false, "no traced rate run succeeded");
        return;
    };
    for run in &traced[1..] {
        report.check(
            run.counts() == first.counts(),
            "exact counts (dram.*, multicore.core_steps, channels.*.calls) differ between repetitions",
        );
    }
    let mut seam = SeamStats::default();
    for run in &traced {
        seam.merge(run.seam.as_ref().expect("traced runs carry seam stats"));
    }
    let run_s: f64 = traced.iter().map(|r| r.run_s).sum();
    let op_s: f64 = traced.iter().map(|r| r.op_s).sum();
    let seam_s = seam.seconds();
    let reps = traced.len() as f64;

    report.seam(
        "channels",
        first.seam.as_ref().expect("traced"),
        &seam,
        run_s,
    );
    report.set("channels.shard_ticks", first.shard_ticks as f64);
    report.dram(&first.telemetry, seam_s / reps);
    report.set("multicore.self.share", (run_s - seam_s) / run_s);
    report.set("multicore.core_steps", first.core_steps as f64);
    report.set(
        "multicore.wakes.spurious_ratio",
        first.wakes.spurious as f64 / first.wakes.total().max(1) as f64,
    );
    report.set("core.cell_share.secddr_ctr", 1.0);
    report.set(
        "core.metadata_misses",
        first.engine.metadata_misses() as f64,
    );
    report.set("core.leaf_fetches", first.engine.leaf_fetches as f64);
    report.set("workloads.generate.share", generate_s / setup_s);
    let plain_s: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    let traced_s: Vec<f64> = traced.iter().map(|r| r.run_s).collect();
    report.set(
        "trace_overhead_frac",
        median(&traced_s) / median(&plain_s) - 1.0,
    );
    // Spans: run = multicore self + backend seam; the rest of each
    // operation (construction, statistics) is outside every span.
    let reconcile = (op_s - run_s).abs() / op_s;
    report.set("trace.reconcile_error", reconcile);
    println!(
        "{NAME}: {} traced + {} untraced rate runs; backend seam {:.1}% of run time \
         ({:.0} ns per decision cycle, {} decision cycles per run); \
         self times reconcile with the traced wall-clock within 10%: {}",
        traced.len(),
        plain.len(),
        100.0 * seam_s / run_s,
        seam_s / reps * 1e9 / first.telemetry.decision_cycles.max(1) as f64,
        first.telemetry.decision_cycles,
        if reconcile <= 0.1 { "yes" } else { "NO" },
    );
}
