//! Shared experiment runner: the [`par_sweep`] harness every
//! figure/table binary fans out through, plus the benchmark ×
//! configuration sweep and paper-style normalized tables built on it.
//!
//! Since the experiment-service PR, [`par_sweep`] rides the process-wide
//! persistent [`secddr_service::WorkerPool`] — the same pool machinery
//! `secddr-serve` schedules jobs on (the service constructs its own
//! instances so tests can size and drain them independently) — so the
//! thread-count policy (`SECDDR_THREADS` override, capped at
//! [`secddr_service::DEFAULT_THREAD_CAP`]) lives in exactly one place.

use secddr_core::config::SecurityConfig;
use secddr_core::engine::EngineOptions;
use secddr_core::system::{gmean, run_trace_with_options, RunParams, RunResult};
use workloads::{Benchmark, Suite};

/// The one parallel map harness (order-preserving, caller-participating)
/// — see [`secddr_service::par_sweep`].
pub use secddr_service::par_sweep;

/// The paper's memory-intensity threshold (LLC MPKI >= 10).
pub const MEM_INTENSIVE_MPKI: f64 = 10.0;

/// Results of a full sweep: `results[bench][config]`.
pub struct Sweep {
    /// Benchmarks, in Figure 6 order.
    pub benches: Vec<Benchmark>,
    /// Configuration labels, in column order.
    pub configs: Vec<SecurityConfig>,
    /// One result per (benchmark, configuration).
    pub results: Vec<Vec<RunResult>>,
    /// The normalization (TDX) results per benchmark.
    pub baseline: Vec<RunResult>,
}

/// Runs every benchmark under every configuration (plus the TDX
/// normalization baseline), in parallel across benchmarks via
/// [`par_sweep`].
pub fn sweep(configs: &[SecurityConfig], params: RunParams) -> Sweep {
    let options = EngineOptions::default();
    let benches = crate::selected_benchmarks();
    let tdx = SecurityConfig::tdx_baseline();

    let config_list = configs.to_vec();
    let rows = par_sweep(benches.clone(), move |bench| {
        // One trace per benchmark, shared by the baseline and every
        // configuration (identical input is also what normalization
        // assumes).
        let trace = bench.generate(params.instructions, params.seed);
        let base = run_trace_with_options(bench, &trace, &tdx, options);
        let row: Vec<RunResult> = config_list
            .iter()
            .map(|c| run_trace_with_options(bench, &trace, c, options))
            .collect();
        (base, row)
    });

    let mut baseline = Vec::with_capacity(benches.len());
    let mut results = Vec::with_capacity(benches.len());
    for (base, row) in rows {
        baseline.push(base);
        results.push(row);
    }
    Sweep {
        benches,
        configs: configs.to_vec(),
        results,
        baseline,
    }
}

impl Sweep {
    /// Normalized IPC of `results[bench][config]` against the TDX baseline.
    pub fn normalized(&self, bench: usize, config: usize) -> f64 {
        self.results[bench][config].ipc() / self.baseline[bench].ipc()
    }

    /// Is benchmark `i` memory intensive (baseline LLC MPKI >= 10)?
    pub fn is_mem_intensive(&self, i: usize) -> bool {
        self.baseline[i].llc_mpki() >= MEM_INTENSIVE_MPKI
    }

    /// Geometric-mean normalized IPC per configuration over all
    /// benchmarks, and over the memory-intensive subset:
    /// `(gmean_all, gmean_mem_intensive)`.
    pub fn gmeans(&self, config: usize) -> (f64, f64) {
        let all: Vec<f64> = (0..self.benches.len())
            .map(|b| self.normalized(b, config))
            .collect();
        let mem: Vec<f64> = (0..self.benches.len())
            .filter(|b| self.is_mem_intensive(*b))
            .map(|b| self.normalized(b, config))
            .collect();
        let g_all = gmean(&all);
        let g_mem = if mem.is_empty() {
            f64::NAN
        } else {
            gmean(&mem)
        };
        (g_all, g_mem)
    }

    /// Prints the classic per-benchmark normalized-IPC table with gmean
    /// rows, in the paper's figure format.
    pub fn print_normalized_table(&self, title: &str) {
        println!("\n=== {title} ===");
        println!("(normalized IPC; 1.00 = Intel-TDX-like baseline)\n");
        print!("{:<12}", "benchmark");
        for c in &self.configs {
            print!(" {:>26}", c.label());
        }
        println!();
        for (bi, bench) in self.benches.iter().enumerate() {
            let tag = if self.is_mem_intensive(bi) { "*" } else { " " };
            print!("{:<11}{tag}", bench.name());
            for ci in 0..self.configs.len() {
                print!(" {:>26.3}", self.normalized(bi, ci));
            }
            println!();
        }
        println!("{}", "-".repeat(12 + 27 * self.configs.len()));
        print!("{:<12}", "gmean-memint");
        for ci in 0..self.configs.len() {
            print!(" {:>26.3}", self.gmeans(ci).1);
        }
        println!();
        print!("{:<12}", "gmean-all");
        for ci in 0..self.configs.len() {
            print!(" {:>26.3}", self.gmeans(ci).0);
        }
        println!(
            "\n(* = memory intensive, LLC MPKI >= 10; suites: {} SPEC + {} GAPBS)",
            self.benches
                .iter()
                .filter(|b| b.suite() == Suite::Spec)
                .count(),
            self.benches
                .iter()
                .filter(|b| b.suite() == Suite::Gapbs)
                .count()
        );
    }
}
