//! Steady-state allocation regression test: once a system has run once
//! (caches sized, queues and recycled buffers grown to their peak), a
//! second run over the same shape must make almost no heap calls. The
//! DRAM scheduler, the security engine and the cores all sit on the
//! per-command and per-miss paths, so one allocation per command would
//! show up here as a rate near one per decision cycle.
//!
//! A counting `#[global_allocator]` wraps `System` and counts `alloc`,
//! `alloc_zeroed` and `realloc` calls only while this thread's counting
//! flag is set, so the test harness's other threads never perturb the
//! count. Each case asserts at most one allocation per hundred decision
//! cycles executed by the counted run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use secddr::core::engine::SecurityEngine;
use secddr::core::metadata::DATA_SPAN;
use secddr::cpu::{CpuConfig, CpuSystem};
use secddr::workloads::Benchmark;
use secddr::{CoreTrace, Interleave, MultiCoreSystem, SecurityConfig, ShardedEngine};

struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to `System`; the wrapper only
// bumps a counter, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Heap calls made by `f` on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Allowed heap calls per executed DRAM decision cycle.
const MAX_ALLOCATIONS_PER_DECISION: f64 = 0.01;

fn assert_allocation_free(case: &str, allocations: u64, decision_cycles: u64) {
    assert!(
        decision_cycles > 0,
        "{case}: the counted run made no decisions"
    );
    let rate = allocations as f64 / decision_cycles as f64;
    println!(
        "{case}: {allocations} allocations over {decision_cycles} decision cycles ({rate:.5})"
    );
    assert!(
        rate <= MAX_ALLOCATIONS_PER_DECISION,
        "{case}: {allocations} allocations over {decision_cycles} decision cycles \
         ({rate:.4} per decision > {MAX_ALLOCATIONS_PER_DECISION})"
    );
}

/// 16 mcf rate-mode cores over four xor-interleaved SecDDR+CTR channels.
#[test]
fn rate_mode_second_run_is_allocation_free() {
    const CORES: usize = 16;
    let trace = Benchmark::by_name("mcf")
        .expect("mcf is a Figure 6 benchmark")
        .generate_shared(10_000, 1);
    let cfg = CpuConfig::default();
    let engine = ShardedEngine::new(
        SecurityConfig::secddr_ctr(),
        cfg.clock_mhz,
        Interleave::xor(4),
    );
    let mut sys = MultiCoreSystem::new(CORES, cfg, engine);
    sys.run(CoreTrace::rate(&trace, DATA_SPAN, CORES));

    let before = sys.backend_mut().dram_telemetry().decision_cycles;
    let streams = CoreTrace::rate(&trace, DATA_SPAN, CORES);
    let allocations = allocations_during(|| {
        sys.run(streams);
    });
    let decisions = sys.backend_mut().dram_telemetry().decision_cycles - before;
    assert_allocation_free("rate16 mcf", allocations, decisions);
}

/// One core over a bare 64-ary counter-tree engine: tree walks, metadata
/// cache evictions and writebacks on every miss. omnetpp's random
/// accesses keep missing the warm LLC when the counted run replays the
/// benchmark at another seed.
#[test]
fn single_core_tree_second_run_is_allocation_free() {
    let bench = Benchmark::by_name("omnetpp").expect("omnetpp is a Figure 6 benchmark");
    let (warm, counted) = (bench.generate(50_000, 1), bench.generate(50_000, 2));
    let cfg = CpuConfig::default();
    let engine = SecurityEngine::new(SecurityConfig::tree_64ary(), cfg.clock_mhz);
    let mut sys = CpuSystem::new(cfg, engine);
    sys.run(warm.into_iter());

    let before = sys.backend().dram_telemetry().decision_cycles;
    let allocations = allocations_during(|| {
        sys.run(counted.iter().copied());
    });
    let decisions = sys.backend().dram_telemetry().decision_cycles - before;
    assert_allocation_free("tree_64ary omnetpp", allocations, decisions);
}
