//! Property-based tests on the workload generators: budgets, determinism,
//! and address-range discipline across the whole benchmark suite.

use proptest::prelude::*;

use secddr::cpu::TraceOp;
use secddr::workloads::{Benchmark, CsrGraph, Suite};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every benchmark honours its instruction budget (within the final
    /// compute-record coalescing slack).
    #[test]
    fn budgets_are_respected(idx in 0usize..29, budget in 5_000u64..40_000, seed in any::<u64>()) {
        let bench = Benchmark::all()[idx];
        let trace = bench.generate(budget, seed);
        let instrs: u64 = trace.iter().map(|o| o.instructions()).sum();
        prop_assert!(instrs <= budget + 70_000, "{}: {instrs} vs {budget}", bench.name());
        prop_assert!(instrs + 70_000 >= budget, "{}: {instrs} vs {budget}", bench.name());
    }

    /// Traces are deterministic in (budget, seed).
    #[test]
    fn traces_are_deterministic(idx in 0usize..29, seed in any::<u64>()) {
        let bench = Benchmark::all()[idx];
        prop_assert_eq!(bench.generate(8_000, seed), bench.generate(8_000, seed));
    }

    /// Addresses stay below the protected span the engine expects
    /// (metadata regions start at 10 GiB).
    #[test]
    fn addresses_stay_in_data_span(idx in 0usize..29, seed in any::<u64>()) {
        let bench = Benchmark::all()[idx];
        for op in bench.generate(8_000, seed) {
            if let Some(a) = op.address() {
                prop_assert!(
                    a < secddr::core::metadata::DATA_SPAN,
                    "{} address {a:#x}",
                    bench.name()
                );
            }
        }
    }

    /// Every trace contains a sensible mix: some memory operations, some
    /// compute, no empty traces.
    #[test]
    fn traces_are_nontrivial(idx in 0usize..29) {
        let bench = Benchmark::all()[idx];
        let trace = bench.generate(30_000, 1);
        let mem = trace.iter().filter(|o| o.address().is_some()).count();
        let compute: u64 = trace
            .iter()
            .filter_map(|o| match o {
                TraceOp::Compute(n) => Some(u64::from(*n)),
                _ => None,
            })
            .sum();
        prop_assert!(mem > 100, "{}: {mem} memory ops", bench.name());
        prop_assert!(compute > 100, "{}: {compute} compute instrs", bench.name());
    }
}

/// Suite-level sanity outside proptest: the GAPBS kernels genuinely differ
/// from each other (no copy-paste traces).
#[test]
fn gapbs_kernels_have_distinct_traces() {
    let kernels: Vec<Benchmark> = Benchmark::all()
        .into_iter()
        .filter(|b| b.suite() == Suite::Gapbs)
        .collect();
    let traces: Vec<Vec<TraceOp>> = kernels.iter().map(|k| k.generate(10_000, 3)).collect();
    for i in 0..traces.len() {
        for j in i + 1..traces.len() {
            assert_ne!(
                traces[i],
                traces[j],
                "{} and {} produced identical traces",
                kernels[i].name(),
                kernels[j].name()
            );
        }
    }
}

/// FNV-1a over 32-bit words.
fn fnv1a_words(words: impl IntoIterator<Item = u32>, mut hash: u64) -> u64 {
    for w in words {
        hash ^= u64::from(w);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The production GAPBS input graph (the one every GAPBS trace walks) is
/// pinned by a digest of its CSR arrays, so a change to how it is built
/// cannot silently move any GAPBS result. Taken through the memo, so this
/// reuses the graph the other tests build.
#[test]
fn production_graph_is_bit_identical() {
    let g = CsrGraph::shared(1 << 21, 8, 0xBEEF);
    let hash = fnv1a_words(g.offsets.iter().copied(), 0xcbf2_9ce4_8422_2325);
    let hash = fnv1a_words(g.neighbors.iter().copied(), hash);
    assert_eq!(g.edges(), 8 << 21);
    assert_eq!(hash, 0xe0b3_2b63_cab8_2863, "graph digest {hash:#018x}");
}
