//! Figure 7: metadata cache behaviour (MPKI and miss rate) per benchmark
//! under the 64-ary-tree baseline configuration.

use secddr_core::config::SecurityConfig;
use secddr_core::system::{run_benchmark, RunParams};

use crate::runner::par_sweep;

/// Runs the Figure 7 measurement and prints the two series.
pub fn run_with_budget(instructions: u64, seed: u64) {
    println!("\n=== Figure 7: Metadata cache behavior (64-ary tree baseline) ===\n");
    println!("{:<12} {:>10} {:>10}", "benchmark", "MPKI", "miss-rate");
    let cfg = SecurityConfig::tree_64ary();
    let params = RunParams { instructions, seed };

    let benches = crate::selected_benchmarks();

    let rows = par_sweep(benches.clone(), move |bench| {
        let r = run_benchmark(bench, &cfg, &params);
        (r.metadata_mpki(), r.metadata_miss_rate())
    });
    for (b, (mpki, mr)) in benches.iter().zip(rows.iter()) {
        println!("{:<12} {:>10.2} {:>9.1}%", b.name(), mpki, mr * 100.0);
    }
    println!(
        "\n(Paper shape: random-access workloads — mcf, omnetpp, pr, bc, sssp — show\n\
         the highest metadata MPKI/miss rates; bfs and tc show high locality.)"
    );
}

/// Runs with the environment-configured budget.
pub fn run() {
    run_with_budget(crate::instr_budget(), crate::seed());
}
