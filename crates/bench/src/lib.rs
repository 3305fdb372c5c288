//! Experiment harnesses that regenerate every table and figure of the
//! SecDDR paper (DSN 2023).
//!
//! Each `figN_*` / `tabN_*` module prints the same rows/series the paper
//! reports. Run them as binaries (`cargo run --release -p secddr-bench
//! --bin fig6_performance`) or all together via `cargo bench` (the
//! `figures` bench target runs every harness at a reduced instruction
//! budget).
//!
//! Knobs (environment variables):
//!
//! * `SECDDR_INSTRS` — instruction budget per benchmark (default
//!   300,000; the paper simulates 200M-instruction SimPoints — larger
//!   budgets sharpen the numbers at proportional runtime).
//! * `SECDDR_SEED` — trace generation seed (default 0xD5).
//! * `SECDDR_BENCH` — comma-separated benchmark filter (default: all 29).
//!   An unknown name or an empty selection panics with the valid names
//!   ([`selected_benchmarks`]).

#![forbid(unsafe_code)]

use workloads::Benchmark;

pub mod ablations;
pub mod bench_kernel;
pub mod fig10_invisimem_xts;
pub mod fig12_invisimem_ctr;
pub mod fig6_performance;
pub mod fig7_metadata_cache;
pub mod fig8_arity;
pub mod runner;
pub mod sec3_security;
pub mod tab1_config;
pub mod tab2_power;

/// Instruction budget from `SECDDR_INSTRS` (default 300k).
pub fn instr_budget() -> u64 {
    std::env::var("SECDDR_INSTRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300_000)
}

/// Seed from `SECDDR_SEED` (default 0xD5).
pub fn seed() -> u64 {
    std::env::var("SECDDR_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xD5)
}

/// The benchmarks `SECDDR_BENCH` selects, in Figure 6 order (all 29
/// when it is unset).
///
/// # Panics
///
/// Panics when the filter names a benchmark that does not exist or
/// selects none, listing the valid names.
pub fn selected_benchmarks() -> Vec<Benchmark> {
    let filter = std::env::var("SECDDR_BENCH").ok();
    parse_bench_filter(filter.as_deref()).unwrap_or_else(|e| panic!("SECDDR_BENCH: {e}"))
}

/// Resolves a comma-separated benchmark filter (`None` selects every
/// benchmark) into benchmarks in Figure 6 order.
///
/// # Errors
///
/// Names the unknown entries, or reports an empty selection, together
/// with the list of valid names.
fn parse_bench_filter(filter: Option<&str>) -> Result<Vec<Benchmark>, String> {
    let all = Benchmark::all();
    let Some(filter) = filter else {
        return Ok(all);
    };
    let names: Vec<&str> = filter
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .collect();
    let valid = || {
        all.iter()
            .map(Benchmark::name)
            .collect::<Vec<_>>()
            .join(",")
    };
    let unknown: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| all.iter().all(|b| b.name() != *n))
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "unknown benchmark(s) {}; valid names: {}",
            unknown.join(","),
            valid()
        ));
    }
    if names.is_empty() {
        return Err(format!("selects no benchmark; valid names: {}", valid()));
    }
    Ok(all
        .into_iter()
        .filter(|b| names.contains(&b.name()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(benches: &[Benchmark]) -> Vec<&'static str> {
        benches.iter().map(Benchmark::name).collect()
    }

    #[test]
    fn no_filter_selects_every_benchmark() {
        assert_eq!(
            names(&parse_bench_filter(None).unwrap()),
            names(&Benchmark::all())
        );
    }

    #[test]
    fn valid_filter_keeps_figure_order() {
        let benches = parse_bench_filter(Some(" povray, mcf ,mcf")).unwrap();
        assert_eq!(names(&benches), ["mcf", "povray"]);
    }

    #[test]
    fn unknown_names_are_reported_with_the_valid_list() {
        let err = parse_bench_filter(Some("mfc,povray")).unwrap_err();
        assert!(err.contains("unknown benchmark(s) mfc;"), "{err}");
        assert!(err.contains("valid names: "), "{err}");
        assert!(err.contains("mcf"), "{err}");
    }

    #[test]
    fn empty_filter_is_rejected() {
        for filter in ["", " , "] {
            let err = parse_bench_filter(Some(filter)).unwrap_err();
            assert!(err.starts_with("selects no benchmark"), "{err}");
        }
    }
}
