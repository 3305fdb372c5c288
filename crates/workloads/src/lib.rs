//! Workloads for the SecDDR reproduction: the 29 benchmarks of the paper's
//! Figure 6 (23 SPEC CPU2017 profiles + 6 GAPBS kernels).
//!
//! GAPBS kernels are real graph algorithms executed on synthetic graphs
//! with their address streams captured ([`gapbs`]); SPEC benchmarks are
//! synthetic generators calibrated to each benchmark's miss rate, access
//! pattern, and write intensity ([`spec`]). Both produce
//! [`cpu_model::TraceOp`] streams consumed by the full-system simulator in
//! `secddr-core`.
//!
//! # Example
//!
//! ```
//! use workloads::Benchmark;
//!
//! let all = Benchmark::all();
//! assert_eq!(all.len(), 29);
//! let mcf = Benchmark::by_name("mcf").unwrap();
//! let trace = mcf.generate(10_000, 42);
//! let instrs: u64 = trace.iter().map(|o| o.instructions()).sum();
//! assert!(instrs >= 9_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod gapbs;
pub mod graph;
mod memo;
pub mod sink;
pub mod spec;

pub use cache::{trace_cache_stats, TraceCacheStats};
pub use gapbs::Kernel;
pub use graph::{CsrGraph, GraphLayout};
pub use sink::TraceSink;
pub use spec::{Pattern, SpecProfile};

use std::sync::{Arc, Mutex, OnceLock};

use cpu_model::TraceOp;

use memo::Mru;

/// Which suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2017 (rate).
    Spec,
    /// GAP Benchmark Suite.
    Gapbs,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Spec(SpecProfile),
    Gapbs(Kernel),
}

/// One benchmark of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    kind: Kind,
}

/// GAPBS graph scale used for trace generation: 2^21 vertices, average
/// degree 8. The per-vertex property arrays alone are 16 MB — 4x the LLC —
/// so the kernels' scattered property reads genuinely miss, as on the
/// paper's full-size GAPBS inputs.
const GRAPH_VERTICES: u32 = 1 << 21;
const GRAPH_DEGREE: u32 = 8;

/// Seed of the shared GAPBS input graph.
const GRAPH_SEED: u64 = 0xBEEF;

fn shared_graph() -> std::sync::Arc<CsrGraph> {
    // Memoized per (vertices, degree, seed) in `graph`: sweeps that fan
    // out across benchmarks and configurations reuse one generation.
    CsrGraph::shared(GRAPH_VERTICES, GRAPH_DEGREE, GRAPH_SEED)
}

/// Key of one memoized trace: `(benchmark, instruction budget, seed)`.
type TraceKey = (&'static str, u64, u64);

/// How many traces the process-wide memo of
/// [`Benchmark::generate_shared`] keeps. Older traces fall back to the
/// disk tier (or are regenerated), so a long-running service that sees
/// a fresh seed per job holds a bounded amount of trace memory.
pub const TRACE_MEMO_CAPACITY: usize = 16;

fn trace_memo() -> &'static Mutex<Mru<TraceKey, Arc<Vec<TraceOp>>>> {
    static MEMO: OnceLock<Mutex<Mru<TraceKey, Arc<Vec<TraceOp>>>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(Mru::new(TRACE_MEMO_CAPACITY)))
}

impl Benchmark {
    /// All 29 benchmarks in Figure 6 order.
    pub fn all() -> Vec<Benchmark> {
        let mut v: Vec<Benchmark> = spec::spec_profiles()
            .into_iter()
            .map(|p| Benchmark {
                kind: Kind::Spec(p),
            })
            .collect();
        for k in [
            Kernel::Bfs,
            Kernel::Pr,
            Kernel::Tc,
            Kernel::Cc,
            Kernel::Bc,
            Kernel::Sssp,
        ] {
            v.push(Benchmark {
                kind: Kind::Gapbs(k),
            });
        }
        v
    }

    /// Looks a benchmark up by its paper label.
    pub fn by_name(name: &str) -> Option<Benchmark> {
        Self::all().into_iter().find(|b| b.name() == name)
    }

    /// The paper's label for this benchmark.
    pub fn name(&self) -> &'static str {
        match &self.kind {
            Kind::Spec(p) => p.name,
            Kind::Gapbs(k) => k.name(),
        }
    }

    /// Which suite it belongs to.
    pub fn suite(&self) -> Suite {
        match self.kind {
            Kind::Spec(_) => Suite::Spec,
            Kind::Gapbs(_) => Suite::Gapbs,
        }
    }

    /// Generates an instruction trace of roughly `instruction_budget`
    /// instructions. The same `(budget, seed)` always yields the same
    /// trace, so all security configurations are compared on identical
    /// input.
    pub fn generate(&self, instruction_budget: u64, seed: u64) -> Vec<TraceOp> {
        match &self.kind {
            Kind::Spec(p) => p.generate(instruction_budget, seed),
            Kind::Gapbs(k) => gapbs::trace(
                *k,
                &shared_graph(),
                GraphLayout::default(),
                instruction_budget,
                seed,
            ),
        }
    }

    /// As [`Self::generate`], memoized per `(benchmark, budget, seed)`
    /// through three tiers: a process-wide memo of the
    /// [`TRACE_MEMO_CAPACITY`] most recently used traces (the
    /// [`CsrGraph::shared`] idiom, one level up, but bounded), then the
    /// on-disk [`cache`] under `target/trace-cache/`, then the trace
    /// kernels. Disk round-trips are lossless and generation is
    /// deterministic, so all tiers hand out identical traces; freshly
    /// generated traces are persisted best-effort so the *next process*
    /// (or the next request after an eviction) skips the kernels too.
    ///
    /// Rate-mode multi-core runs and repeated sweeps hand each consumer
    /// an `Arc` of one trace instead of regenerating or deep-cloning it
    /// per core, as long as the key is among the most recent ones.
    /// [`trace_cache_stats`] reports the per-tier hit counters (the
    /// experiment service's cache-stats endpoint).
    pub fn generate_shared(&self, instruction_budget: u64, seed: u64) -> Arc<Vec<TraceOp>> {
        let key = (self.name(), instruction_budget, seed);
        if let Some(t) = trace_memo().lock().expect("trace memo poisoned").get(&key) {
            cache::count_memory_hit();
            return t;
        }
        // Load or generate outside the lock: trace generation can be
        // expensive (graph kernels), and a parallel sweep's first
        // touches should not serialize on it. A racing duplicate is
        // dropped in favor of whichever entry landed first.
        let loaded = match cache::load(self.name(), instruction_budget, seed) {
            Some(trace) => {
                cache::count_disk_hit();
                Arc::new(trace)
            }
            None => {
                cache::count_generated();
                let mut generated = self.generate(instruction_budget, seed);
                // The generators grow their vectors by doubling; the
                // memo keeps only what the trace uses.
                generated.shrink_to_fit();
                cache::store(self.name(), instruction_budget, seed, &generated);
                Arc::new(generated)
            }
        };
        trace_memo()
            .lock()
            .expect("trace memo poisoned")
            .insert(key, loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_29_benchmarks_in_paper_order() {
        let all = Benchmark::all();
        assert_eq!(all.len(), 29);
        assert_eq!(all[0].name(), "perlbench");
        assert_eq!(all[22].name(), "roms");
        assert_eq!(all[23].name(), "bfs");
        assert_eq!(all[28].name(), "sssp");
    }

    #[test]
    fn names_are_unique() {
        let all = Benchmark::all();
        let set: std::collections::HashSet<&str> = all.iter().map(|b| b.name()).collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn by_name_finds_everything() {
        for b in Benchmark::all() {
            assert!(Benchmark::by_name(b.name()).is_some(), "{}", b.name());
        }
        assert!(Benchmark::by_name("nonexistent").is_none());
    }

    #[test]
    fn suites_partition() {
        let all = Benchmark::all();
        assert_eq!(all.iter().filter(|b| b.suite() == Suite::Spec).count(), 23);
        assert_eq!(all.iter().filter(|b| b.suite() == Suite::Gapbs).count(), 6);
    }

    #[test]
    fn shared_traces_memoize_per_key() {
        // The only test in this crate that touches the process-wide
        // memo, so no other test can evict its entries between steps.
        let mcf = Benchmark::by_name("mcf").unwrap();
        let a = mcf.generate_shared(5_000, 42);
        let b = mcf.generate_shared(5_000, 42);
        assert!(Arc::ptr_eq(&a, &b), "same parameters share one trace");
        let c = mcf.generate_shared(5_000, 43);
        assert!(!Arc::ptr_eq(&a, &c), "different seed is a different entry");
        assert_eq!(*a, mcf.generate(5_000, 42), "memoized == generated");
        let gcc = Benchmark::by_name("gcc").unwrap();
        assert!(!Arc::ptr_eq(&a, &gcc.generate_shared(5_000, 42)));

        // Capacity fresh keys push (mcf, 5_000, 42) out of the memo; it
        // comes back from the disk tier or the kernels, unchanged.
        for seed in 0..TRACE_MEMO_CAPACITY as u64 {
            mcf.generate_shared(500, 0x5EED_0000 + seed);
            let held = trace_memo().lock().unwrap().len();
            assert!(held <= TRACE_MEMO_CAPACITY, "{held} traces held");
        }
        let again = mcf.generate_shared(5_000, 42);
        assert!(!Arc::ptr_eq(&a, &again), "the evicted entry was rebuilt");
        assert_eq!(*again, *a, "an evicted trace comes back identical");
    }

    #[test]
    fn gapbs_traces_generate() {
        let b = Benchmark::by_name("pr").unwrap();
        let t = b.generate(30_000, 1);
        let instrs: u64 = t.iter().map(|o| o.instructions()).sum();
        assert!(instrs >= 25_000);
    }
}
