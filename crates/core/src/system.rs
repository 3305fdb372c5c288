//! One-call experiment runner: benchmark × configuration → IPC.

use cpu_model::{CpuSystem, SimResult};
use sim_kernel::Advance;
use workloads::Benchmark;

use crate::config::SecurityConfig;
use crate::engine::{EngineOptions, EngineStats, SecurityEngine};

/// Parameters of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    /// Instruction budget (the paper uses 200M-instruction SimPoints; the
    /// harness defaults scale this down while preserving the shape).
    pub instructions: u64,
    /// Trace generation seed (identical across configurations so every
    /// configuration sees the same input).
    pub seed: u64,
}

impl Default for RunParams {
    fn default() -> Self {
        Self {
            instructions: 500_000,
            seed: 0xD5,
        }
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark label.
    pub benchmark: &'static str,
    /// Configuration label.
    pub config: String,
    /// Core-side results (IPC, cache stats).
    pub sim: SimResult,
    /// Security-engine traffic statistics.
    pub engine: EngineStats,
    /// DRAM channel statistics.
    pub dram: dram_sim::DramStats,
}

impl RunResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.sim.ipc()
    }

    /// Metadata-cache misses per kilo-instruction (Figure 7).
    pub fn metadata_mpki(&self) -> f64 {
        if self.sim.instructions == 0 {
            0.0
        } else {
            self.engine.metadata_misses() as f64 * 1000.0 / self.sim.instructions as f64
        }
    }

    /// Metadata-cache miss rate (Figure 7).
    pub fn metadata_miss_rate(&self) -> f64 {
        self.engine.metadata_cache.miss_rate()
    }

    /// LLC misses per kilo-instruction (memory-intensity classifier;
    /// the paper uses MPKI >= 10).
    pub fn llc_mpki(&self) -> f64 {
        self.sim.llc_mpki()
    }
}

/// Runs `bench` under `config` and returns the full result set.
pub fn run_benchmark(bench: &Benchmark, config: &SecurityConfig, params: &RunParams) -> RunResult {
    run_benchmark_with_options(bench, config, params, EngineOptions::default())
}

/// As [`run_benchmark`] with an explicit clock-advance policy.
///
/// [`Advance::PerCycle`] runs the lock-step reference semantics; the
/// equivalence tests compare it against the default event-driven fast
/// path, which must produce identical results.
pub fn run_benchmark_with_advance(
    bench: &Benchmark,
    config: &SecurityConfig,
    params: &RunParams,
    advance: Advance,
) -> RunResult {
    let options = EngineOptions {
        advance,
        ..EngineOptions::default()
    };
    run_benchmark_with_options(bench, config, params, options)
}

/// As [`run_benchmark`] with explicit engine ablation knobs.
pub fn run_benchmark_with_options(
    bench: &Benchmark,
    config: &SecurityConfig,
    params: &RunParams,
    options: EngineOptions,
) -> RunResult {
    let trace = bench.generate(params.instructions, params.seed);
    run_trace_with_options(bench, &trace, config, options)
}

/// Runs an already-generated trace under `config`.
///
/// Sweeps that evaluate one benchmark under several configurations
/// generate the trace once and reuse it here — trace generation (graph
/// kernels, calibrated generators) is pure overhead to repeat per
/// configuration.
pub fn run_trace_with_options(
    bench: &Benchmark,
    trace: &[cpu_model::TraceOp],
    config: &SecurityConfig,
    options: EngineOptions,
) -> RunResult {
    let cpu_cfg = options.cpu_config();
    let engine = SecurityEngine::with_options(*config, cpu_cfg.clock_mhz, options);
    let mut system = CpuSystem::new(cpu_cfg, engine);
    let sim = system.run(trace.iter().copied());
    let engine_stats = system.backend().stats();
    let dram = system.backend().dram_stats().clone();
    RunResult {
        benchmark: bench.name(),
        config: config.label(),
        sim,
        engine: engine_stats,
        dram,
    }
}

/// Geometric mean of a nonempty slice.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gmean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "gmean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(name: &str, cfg: SecurityConfig) -> RunResult {
        let params = RunParams {
            instructions: 60_000,
            seed: 7,
        };
        run_benchmark(&Benchmark::by_name(name).unwrap(), &cfg, &params)
    }

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_zero() {
        let _ = gmean(&[1.0, 0.0]);
    }

    #[test]
    fn run_produces_sane_ipc() {
        let r = quick("povray", SecurityConfig::tdx_baseline());
        assert!(r.ipc() > 0.5, "compute-bound benchmark: {}", r.ipc());
        assert!(r.sim.instructions >= 55_000);
    }

    #[test]
    fn memory_intensive_benchmark_is_slower_under_tree() {
        let tree = quick("omnetpp", SecurityConfig::tree_64ary());
        let secddr = quick("omnetpp", SecurityConfig::secddr_ctr());
        assert!(
            secddr.ipc() > tree.ipc(),
            "secddr {} must beat tree {}",
            secddr.ipc(),
            tree.ipc()
        );
    }

    #[test]
    fn encrypt_only_is_an_upper_bound_for_secddr() {
        let enc = quick("omnetpp", SecurityConfig::encrypt_only_xts());
        let secddr = quick("omnetpp", SecurityConfig::secddr_xts());
        // Within a small tolerance (SecDDR pays only the longer bursts).
        assert!(
            secddr.ipc() <= enc.ipc() * 1.02,
            "{} vs {}",
            secddr.ipc(),
            enc.ipc()
        );
    }

    #[test]
    fn metadata_stats_flow_through() {
        let r = quick("omnetpp", SecurityConfig::tree_64ary());
        assert!(r.engine.leaf_fetches > 0);
        assert!(r.metadata_mpki() > 0.0);
        assert!(r.metadata_miss_rate() > 0.0);
        let tdx = quick("omnetpp", SecurityConfig::tdx_baseline());
        assert_eq!(tdx.engine.leaf_fetches, 0);
    }

    #[test]
    fn same_trace_across_configs() {
        let a = quick("gcc", SecurityConfig::tdx_baseline());
        let b = quick("gcc", SecurityConfig::tree_64ary());
        assert_eq!(a.sim.instructions, b.sim.instructions);
    }
}
