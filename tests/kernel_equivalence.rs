//! Equivalence of the event-driven kernel against the per-cycle
//! reference: skipping provably idle cycles must not change a single
//! statistic — CPU cycles, cache behaviour, engine metadata traffic, or
//! DRAM command counts.

use secddr::core::config::SecurityConfig;
use secddr::core::engine::EngineOptions;
use secddr::core::system::{
    run_benchmark_with_advance, run_trace_with_options, RunParams, RunResult,
};
use secddr::cpu::{CpuConfig, CpuSystem, FixedLatencyBackend, TraceOp};
use secddr::dram::{Advance, DramConfig, DramSystem, MemRequest, ReqKind};
use secddr::workloads::Benchmark;

fn assert_identical(fast: &RunResult, reference: &RunResult, label: &str) {
    assert_eq!(fast.sim, reference.sim, "{label}: SimResult diverged");
    assert_eq!(
        fast.engine, reference.engine,
        "{label}: EngineStats diverged"
    );
    assert_eq!(fast.dram, reference.dram, "{label}: DramStats diverged");
}

/// The ISSUE's core property: a small mcf run at a fixed seed produces
/// identical `SimResult`/`EngineStats`/`DramStats` under both policies.
#[test]
fn mcf_event_driven_matches_per_cycle() {
    let bench = Benchmark::by_name("mcf").expect("mcf exists");
    let params = RunParams {
        instructions: 40_000,
        seed: 0xD5,
    };
    let cfg = SecurityConfig::secddr_ctr();
    let fast = run_benchmark_with_advance(&bench, &cfg, &params, Advance::ToNextEvent);
    let reference = run_benchmark_with_advance(&bench, &cfg, &params, Advance::PerCycle);
    assert_identical(&fast, &reference, "mcf/secddr_ctr");
}

/// The property holds across the mechanism space: metadata-free TDX,
/// tree walks with dirty evictions, and the derated InvisiMem channel
/// all exercise different engine/DRAM paths.
#[test]
fn equivalence_across_configurations() {
    let params = RunParams {
        instructions: 25_000,
        seed: 7,
    };
    let configs = [
        SecurityConfig::tdx_baseline(),
        SecurityConfig::tree_64ary(),
        SecurityConfig::secddr_xts(),
        SecurityConfig::invisimem_realistic(secddr::core::config::EncMode::Xts),
    ];
    // omnetpp is memory-intensive (stresses queue backpressure), povray is
    // compute-bound (stresses the no-skip dispatch path).
    for name in ["omnetpp", "povray"] {
        let bench = Benchmark::by_name(name).expect("known benchmark");
        for cfg in &configs {
            let fast = run_benchmark_with_advance(&bench, cfg, &params, Advance::ToNextEvent);
            let reference = run_benchmark_with_advance(&bench, cfg, &params, Advance::PerCycle);
            assert_identical(&fast, &reference, &format!("{name}/{}", cfg.label()));
        }
    }
}

/// The whole Figure 6 matrix: every benchmark (SPEC and GAPBS) under
/// the TDX baseline and the five configurations `fig6_performance`
/// reports, at a smoke budget, with one trace per benchmark shared by
/// both policies and every configuration.
#[test]
fn figure6_matrix_event_driven_matches_per_cycle() {
    let configs = [
        SecurityConfig::tdx_baseline(),
        SecurityConfig::tree_64ary(),
        SecurityConfig::secddr_ctr(),
        SecurityConfig::encrypt_only_ctr(),
        SecurityConfig::secddr_xts(),
        SecurityConfig::encrypt_only_xts(),
    ];
    let run = |bench: &Benchmark, trace: &[TraceOp], cfg: &SecurityConfig, advance| {
        let options = EngineOptions {
            advance,
            ..EngineOptions::default()
        };
        run_trace_with_options(bench, trace, cfg, options)
    };
    for bench in Benchmark::all() {
        let trace = bench.generate(2_000, 0xD5);
        for cfg in &configs {
            let fast = run(&bench, &trace, cfg, Advance::ToNextEvent);
            let reference = run(&bench, &trace, cfg, Advance::PerCycle);
            assert_identical(
                &fast,
                &reference,
                &format!("{}/{}", bench.name(), cfg.label()),
            );
        }
    }
}

/// Equivalence at the CPU layer alone, over the fixed-latency backend
/// (pointer chasing exercises the dependent-load stall skip).
#[test]
fn cpu_layer_equivalence_over_fixed_latency() {
    let make_trace = || {
        (0..3_000u64).flat_map(|i| {
            [
                TraceOp::Load(i * 64 * 131),
                TraceOp::DependentLoad(i * 64 * 977),
                TraceOp::Compute((i % 40) as u32 + 1),
                TraceOp::Store(i * 64 * 59),
            ]
            .into_iter()
        })
    };
    let run = |advance: Advance| {
        let cfg = CpuConfig {
            advance,
            ..CpuConfig::default()
        };
        CpuSystem::new(cfg, FixedLatencyBackend::new(333)).run(make_trace())
    };
    assert_eq!(run(Advance::ToNextEvent), run(Advance::PerCycle));
}

/// Equivalence at the DRAM layer alone: `advance_to` with idle-skip must
/// reproduce the per-cycle schedule (commands, latencies, refreshes) on a
/// bursty request pattern with long idle gaps.
#[test]
fn dram_layer_equivalence_with_idle_gaps() {
    let run = |advance: Advance| {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200());
        let mut completions = Vec::new();
        let mut id = 0u64;
        // Bursts separated by gaps long enough to cross refresh windows.
        for burst in 0..8u64 {
            let target = burst * 20_000;
            completions.extend(dram.advance_to(target, advance));
            for i in 0..12u64 {
                let kind = if i % 3 == 0 {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                };
                let addr = (burst * 0x1_0000 + i * 0x940) & !63;
                dram.enqueue(MemRequest::new(id, kind, addr, dram.cycle()))
                    .unwrap();
                id += 1;
            }
        }
        completions.extend(dram.advance_to(200_000, advance));
        (completions, dram.stats().clone())
    };
    let (fast_completions, fast_stats) = run(Advance::ToNextEvent);
    let (ref_completions, ref_stats) = run(Advance::PerCycle);
    assert_eq!(
        fast_completions, ref_completions,
        "completion schedule diverged"
    );
    assert_eq!(fast_stats, ref_stats, "DRAM stats diverged");
}

/// The fast path must actually skip: on a memory-bound run it should not
/// cost more wall-clock than the reference (coarse sanity, not a perf
/// test — host time per layer is measured by `perfbench/`).
#[test]
fn event_driven_simulates_fewer_host_operations() {
    let bench = Benchmark::by_name("mcf").expect("mcf exists");
    let params = RunParams {
        instructions: 30_000,
        seed: 1,
    };
    let cfg = SecurityConfig::tree_64ary();
    let t0 = std::time::Instant::now();
    let fast = run_benchmark_with_advance(&bench, &cfg, &params, Advance::ToNextEvent);
    let fast_wall = t0.elapsed();
    let t1 = std::time::Instant::now();
    let reference = run_benchmark_with_advance(&bench, &cfg, &params, Advance::PerCycle);
    let ref_wall = t1.elapsed();
    assert_identical(&fast, &reference, "mcf/tree_64ary");
    // Generous 2x slack: debug builds and CI noise must not flake this.
    assert!(
        fast_wall <= ref_wall * 2,
        "fast path should not be slower: {fast_wall:?} vs {ref_wall:?}"
    );
}
