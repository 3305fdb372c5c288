//! `cargo bench` target that regenerates every table and figure of the
//! paper at a reduced instruction budget (override with `SECDDR_INSTRS`).
//!
//! For publication-quality runs use the individual binaries with a larger
//! budget, e.g.:
//! `SECDDR_INSTRS=2000000 cargo run --release -p secddr-bench --bin fig6_performance`

fn main() {
    let budget = secddr_bench::env_u64("SECDDR_INSTRS", 120_000);
    let seed = secddr_bench::seed();

    secddr_bench::tab1_config::run();
    secddr_bench::tab2_power::run();
    secddr_bench::sec3_security::run();
    secddr_bench::fig6_performance::run_with_budget(budget, seed);
    secddr_bench::fig7_metadata_cache::run_with_budget(budget, seed);
    secddr_bench::fig8_arity::run_with_budget(budget, seed);
    secddr_bench::fig10_invisimem_xts::run_with_budget(budget, seed);
    secddr_bench::fig12_invisimem_ctr::run_with_budget(budget, seed);
}
