//! Ablation studies for the design choices DESIGN.md §5 calls out.
//!
//! None of these reproduce a specific paper figure; they quantify the
//! individual mechanisms behind the figures:
//!
//! * **A1 — eWCRC write-burst cost**: SecDDR with its BL10 bursts vs a
//!   hypothetical BL8 SecDDR, on a write-heavy and a read-heavy workload.
//! * **A2 — metadata cache size**: tree vs SecDDR+CTR sensitivity to the
//!   metadata cache (the tree needs the cache far more).
//! * **A3 — parallel vs serial tree-level fetch**: what the paper's
//!   "parallel tree-level verification" assumption is worth.
//! * **A4 — FR-FCFS vs FCFS**: scheduler contribution, confirming metadata
//!   traffic (not scheduling artifacts) drives the tree penalty.
//! * **A5 — eWCRC burst cost on DDR4 vs DDR5**: the saturated write
//!   bandwidth each generation loses to the extended burst.

use dram_sim::{DramConfig, DramSystem, MemRequest, ReqKind};
use secddr_core::config::SecurityConfig;
use secddr_core::engine::EngineOptions;
use secddr_core::system::{run_trace_with_options, RunParams};
use workloads::Benchmark;

use crate::runner::par_sweep;

/// Normalized IPC (vs the TDX baseline) of each `(config, options)`
/// variant, sharing one generated trace and one baseline run across the
/// whole row.
fn norms(
    bench: &Benchmark,
    params: &RunParams,
    variants: &[(SecurityConfig, EngineOptions)],
) -> Vec<f64> {
    let trace = bench.generate(params.instructions, params.seed);
    let tdx = run_trace_with_options(
        bench,
        &trace,
        &SecurityConfig::tdx_baseline(),
        EngineOptions::default(),
    );
    variants
        .iter()
        .map(|(cfg, options)| {
            run_trace_with_options(bench, &trace, cfg, *options).ipc() / tdx.ipc()
        })
        .collect()
}

/// Posts 4,000 sequential line writes to one channel as fast as its write
/// queue accepts them and returns the cycle the last one finishes: the
/// saturated write bandwidth of `cfg`'s burst length.
fn saturated_write_drain(cfg: DramConfig) -> u64 {
    const TOTAL: u64 = 4_000;
    let mut dram = DramSystem::new(cfg);
    let (mut issued, mut done, mut last) = (0u64, 0u64, 0u64);
    while done < TOTAL {
        if issued < TOTAL
            && dram
                .enqueue(MemRequest::new(
                    issued,
                    ReqKind::Write,
                    issued * 64,
                    dram.cycle(),
                ))
                .is_ok()
        {
            issued += 1;
        }
        for c in dram.tick() {
            done += 1;
            last = last.max(c.finish_cycle);
        }
    }
    last
}

/// Runs all five ablations.
pub fn run_with_budget(instructions: u64, seed: u64) {
    let params = RunParams { instructions, seed };

    println!("\n=== Ablation A1: eWCRC write-burst extension (BL10 vs BL8) ===\n");
    // Burst length only matters when the data bus saturates; the paper's
    // 4-core rate workloads saturate it, a single-core trace does not. We
    // therefore measure raw write bandwidth on a saturated channel plus
    // the workload-level effect.
    let bl10 = saturated_write_drain(SecurityConfig::secddr_ctr().dram_config());
    let bl8 = saturated_write_drain(SecurityConfig::encrypt_only_ctr().dram_config());
    println!(
        "  saturated write stream, 4000 lines: BL8 {bl8} cycles, BL10 {bl10} cycles \
         -> {:.1}% write-bandwidth cost",
        (bl10 as f64 / bl8 as f64 - 1.0) * 100.0
    );
    let a1_rows = par_sweep(vec!["lbm", "omnetpp"], move |name| {
        let bench = Benchmark::by_name(name).expect("known benchmark");
        let row = norms(
            &bench,
            &params,
            &[
                (SecurityConfig::secddr_ctr(), EngineOptions::default()),
                (
                    SecurityConfig::secddr_ctr(),
                    EngineOptions {
                        force_bl8: true,
                        ..Default::default()
                    },
                ),
            ],
        );
        (*name, row[0], row[1])
    });
    for (name, bl10, bl8) in a1_rows {
        println!(
            "  {name:<10} SecDDR+CTR BL10: {bl10:.3}   BL8 (no eWCRC): {bl8:.3}   \
             eWCRC cost: {:.1}%",
            (bl8 / bl10 - 1.0) * 100.0
        );
    }
    println!(
        "  (single-core traces rarely saturate the bus, so the workload-level cost\n\
         \x20  is below the paper's 4-core rate setup; the saturated-stream row shows\n\
         \x20  the mechanism's full 25% burst-occupancy cost)"
    );

    println!("\n=== Ablation A2: metadata cache size sensitivity ===\n");
    let bench = Benchmark::by_name("omnetpp").expect("known benchmark");
    println!(
        "  {:<10} {:>22} {:>14}",
        "md cache", "Integrity Tree 64ary", "SecDDR+CTR"
    );
    let a2_rows = par_sweep(vec![32u64, 128, 512, 2048], move |&kb| {
        let opt = EngineOptions {
            metadata_cache_bytes: kb << 10,
            ..Default::default()
        };
        let row = norms(
            &bench,
            &params,
            &[
                (SecurityConfig::tree_64ary(), opt),
                (SecurityConfig::secddr_ctr(), opt),
            ],
        );
        (kb, row[0], row[1])
    });
    for (kb, tree, secddr) in a2_rows {
        println!(
            "  {:<10} {:>22.3} {:>14.3}",
            format!("{kb} KB"),
            tree,
            secddr
        );
    }
    println!("  (the tree depends on the cache much more strongly than SecDDR)");

    println!("\n=== Ablation A3: parallel vs serial tree-level fetch ===\n");
    let a3_rows = par_sweep(vec!["omnetpp", "pr"], move |name| {
        let bench = Benchmark::by_name(name).expect("known benchmark");
        let row = norms(
            &bench,
            &params,
            &[
                (SecurityConfig::tree_64ary(), EngineOptions::default()),
                (
                    SecurityConfig::tree_64ary(),
                    EngineOptions {
                        serial_tree_fetch: true,
                        ..Default::default()
                    },
                ),
            ],
        );
        (*name, row[0], row[1])
    });
    for (name, parallel, serial) in a3_rows {
        println!(
            "  {name:<10} parallel: {parallel:.3}   serial: {serial:.3}   \
             parallelism gain: +{:.1}%",
            (parallel / serial - 1.0) * 100.0
        );
    }

    println!("\n=== Ablation A5: eWCRC burst cost on DDR4 vs DDR5 ===\n");
    // Paper (Section IV-B): "for DDR5 memories the impact of increasing
    // the write burst length is smaller — from 16 to 18". Measured as the
    // saturated write-stream bandwidth cost on each generation.
    let d4 = saturated_write_drain(DramConfig::ddr4_3200());
    let d4e = saturated_write_drain(DramConfig::ddr4_3200_ewcrc());
    let d5 = saturated_write_drain(DramConfig::ddr5_4800());
    let d5e = saturated_write_drain(DramConfig::ddr5_4800_ewcrc());
    println!(
        "  DDR4-3200: BL8 {d4} -> BL10 {d4e} cycles   ({:+.1}% bandwidth cost)",
        (d4e as f64 / d4 as f64 - 1.0) * 100.0
    );
    println!(
        "  DDR5-4800: BL16 {d5} -> BL18 {d5e} cycles  ({:+.1}% bandwidth cost)",
        (d5e as f64 / d5 as f64 - 1.0) * 100.0
    );
    println!("  [paper: the DDR5 extension is proportionally half as costly]");

    println!("\n=== Ablation A4: FR-FCFS vs FCFS scheduling ===\n");
    let a4_rows = par_sweep(vec!["bwaves", "omnetpp"], move |name| {
        let bench = Benchmark::by_name(name).expect("known benchmark");
        let row = norms(
            &bench,
            &params,
            &[
                (SecurityConfig::secddr_xts(), EngineOptions::default()),
                (
                    SecurityConfig::secddr_xts(),
                    EngineOptions {
                        fcfs: true,
                        ..Default::default()
                    },
                ),
            ],
        );
        (*name, row[0], row[1])
    });
    for (name, frfcfs, fcfs) in a4_rows {
        println!(
            "  {name:<10} FR-FCFS: {frfcfs:.3}   FCFS: {fcfs:.3}   \
             row-hit-first gain: +{:.1}%",
            (frfcfs / fcfs - 1.0) * 100.0
        );
    }
    println!("  (streaming bwaves benefits most from row-hit-first scheduling)");
}

/// Runs with the environment-configured budget.
pub fn run() {
    run_with_budget(crate::instr_budget(), crate::seed());
}
