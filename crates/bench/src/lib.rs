//! Experiment harnesses that regenerate every table and figure of the
//! SecDDR paper (DSN 2023).
//!
//! Each `figN_*` / `tabN_*` module prints the same rows/series the paper
//! reports. Run them as binaries (`cargo run --release -p secddr-bench
//! --bin fig6_performance`); README.md's golden-ledger one-liner runs all
//! nine at a smoke budget.
//!
//! Knobs (environment variables):
//!
//! * `SECDDR_INSTRS` — instruction budget per benchmark (default
//!   300,000; the paper simulates 200M-instruction SimPoints — larger
//!   budgets sharpen the numbers at proportional runtime).
//! * `SECDDR_SEED` — trace generation seed (default 0xD5).
//!
//!   Both are read by [`env_u64`]: a value that is not a decimal `u64`
//!   (e.g. `5k`) panics with the variable name rather than running the
//!   default.
//! * `SECDDR_BENCH` — comma-separated benchmark filter (default: all 29).
//!   An unknown name or an empty selection panics with the valid names
//!   ([`selected_benchmarks`]).

#![forbid(unsafe_code)]

use workloads::Benchmark;

pub mod ablations;
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
///
/// # Panics
///
/// Panics when `SECDDR_INSTRS` is set but unparseable ([`env_u64`]).
pub fn instr_budget() -> u64 {
    env_u64("SECDDR_INSTRS", 300_000)
}

/// Seed from `SECDDR_SEED` (default 0xD5).
///
/// # Panics
///
/// Panics when `SECDDR_SEED` is set but unparseable ([`env_u64`]).
pub fn seed() -> u64 {
    env_u64("SECDDR_SEED", 0xD5)
}

/// The `u64` knob in environment variable `name`, or `default` when it
/// is unset.
///
/// # Panics
///
/// Panics with the variable's name and value when it is set but is not
/// a decimal `u64` (e.g. `5k`), instead of silently running the default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_env_u64(name, value.as_deref(), default).unwrap_or_else(|e| panic!("{e}"))
}

/// Parses an optional knob value (`None` = unset) into a `u64`.
///
/// # Errors
///
/// Names the variable and its value when the value is not a `u64`.
fn parse_env_u64(name: &str, value: Option<&str>, default: u64) -> Result<u64, String> {
    value.map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{name}={v:?} is not an unsigned integer"))
    })
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
    fn unset_knob_takes_the_default() {
        assert_eq!(parse_env_u64("SECDDR_INSTRS", None, 300_000), Ok(300_000));
    }

    #[test]
    fn valid_knob_overrides_the_default() {
        assert_eq!(
            parse_env_u64("SECDDR_INSTRS", Some("5000"), 300_000),
            Ok(5_000)
        );
        assert_eq!(parse_env_u64("SECDDR_SEED", Some("0"), 0xD5), Ok(0));
    }

    #[test]
    fn unparseable_knob_names_the_variable_and_value() {
        for value in ["5k", "", "-1", "0x10"] {
            let err = parse_env_u64("SECDDR_INSTRS", Some(value), 300_000).unwrap_err();
            assert_eq!(
                err,
                format!("SECDDR_INSTRS={value:?} is not an unsigned integer")
            );
        }
    }

    #[test]
    fn empty_filter_is_rejected() {
        for filter in ["", " , "] {
            let err = parse_bench_filter(Some(filter)).unwrap_err();
            assert!(err.starts_with("selects no benchmark"), "{err}");
        }
    }
}
