//! Differential tests for the sharded multi-channel subsystem:
//!
//! * `ShardedEngine` with one shard must be **observationally identical**
//!   to a bare `SecurityEngine` — same per-access submit results, same
//!   completion stream tick by tick, same engine/DRAM statistics — both
//!   at the engine level over randomized traffic and end-to-end through
//!   `CpuSystem` (mirroring `tests/scheduler_differential.rs`);
//! * at 1, 2, 4 and 8 shards, a real benchmark run through `CpuSystem`
//!   is identical under both advance policies;
//! * across shard counts, data traffic is conserved: every access lands
//!   on exactly one shard, so per-shard data reads/writes sum to the
//!   unsharded counts for the same input;
//! * the sharded batched ingestion path matches per-call submission;
//! * one windowed advance delivers the same completions, in the same
//!   cycle order, as advancing every cycle of the window.

use proptest::prelude::*;
use secddr::channels::{Interleave, ShardedEngine};
use secddr::core::config::SecurityConfig;
use secddr::core::engine::{EngineOptions, SecurityEngine};
use secddr::cpu::system::{AccessKind, BatchAccess, MemoryBackend};
use secddr::cpu::{CpuConfig, CpuSystem};
use secddr::dram::Advance;
use secddr::workloads::Benchmark;

const CPU_MHZ: u32 = 3200;

fn options(advance: Advance) -> EngineOptions {
    EngineOptions {
        advance,
        ..EngineOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine-level identity: a single-shard `ShardedEngine` answers
    /// every submit with the same result (and token value), delivers the
    /// same completions at the same ticks, and accumulates the same
    /// statistics as the bare engine it wraps.
    #[test]
    fn single_shard_matches_bare_engine(
        accesses in proptest::collection::vec(
            (any::<bool>(), 0u64..(1u64 << 32), any::<bool>()),
            1..40,
        ),
        gap in 1u64..500,
        xor in any::<bool>(),
    ) {
        let il = if xor { Interleave::xor(1) } else { Interleave::modulo(1) };
        let mut bare = SecurityEngine::new(SecurityConfig::secddr_ctr(), CPU_MHZ);
        let mut sharded = ShardedEngine::new(SecurityConfig::secddr_ctr(), CPU_MHZ, il);
        let mut now = 100u64;
        for &(read, addr, pf) in &accesses {
            let kind = if read { AccessKind::Read } else { AccessKind::Write };
            let addr = addr & !63;
            prop_assert_eq!(
                sharded.submit(kind, addr, now, pf),
                bare.submit(kind, addr, now, pf),
                "submit diverged at cycle {}", now
            );
            now += gap;
            prop_assert_eq!(sharded.tick(now), bare.tick(now), "tick diverged at {}", now);
        }
        for _ in 0..300 {
            now += 60;
            prop_assert_eq!(sharded.tick(now), bare.tick(now), "drain diverged at {}", now);
        }
        prop_assert_eq!(sharded.stats(), bare.stats());
        prop_assert_eq!(sharded.dram_stats(), bare.dram_stats());
    }

    /// Sharded batched ingestion matches per-call submission for a
    /// non-power-of-two shard count (modulo interleave), including the
    /// merged-back result order and all statistics.
    #[test]
    fn sharded_batch_matches_per_call(
        accesses in proptest::collection::vec(
            (any::<bool>(), 0u64..(1u64 << 32), any::<bool>()),
            1..32,
        ),
        gap in 1u64..400,
    ) {
        let build = || ShardedEngine::new(
            SecurityConfig::secddr_ctr(), CPU_MHZ, Interleave::modulo(3),
        );
        let mut per_call = build();
        let mut batched = build();
        let mut now = 100u64;
        for chunk in accesses.chunks(7) {
            let batch: Vec<BatchAccess> = chunk
                .iter()
                .map(|&(read, addr, pf)| BatchAccess {
                    kind: if read { AccessKind::Read } else { AccessKind::Write },
                    addr: addr & !63,
                    is_prefetch: pf,
                })
                .collect();
            let per_call_results: Vec<_> = batch
                .iter()
                .map(|b| per_call.submit(b.kind, b.addr, now, b.is_prefetch))
                .collect();
            let mut batch_results = Vec::new();
            batched.submit_batch(&batch, now, &mut batch_results);
            prop_assert_eq!(&per_call_results, &batch_results);
            now += gap;
            prop_assert_eq!(per_call.tick(now), batched.tick(now));
        }
        for _ in 0..200 {
            now += 50;
            prop_assert_eq!(per_call.tick(now), batched.tick(now));
        }
        prop_assert_eq!(per_call.stats(), batched.stats());
        prop_assert_eq!(per_call.dram_stats(), batched.dram_stats());
    }

    /// A windowed `tick(now + w)` returns exactly the concatenation of
    /// `tick(c)` over every cycle `c` of the window: tokens in cycle
    /// order (shard-index order within a cycle), never grouped by shard.
    #[test]
    fn window_tick_matches_per_cycle_ticks(
        accesses in proptest::collection::vec(
            (any::<bool>(), 0u64..(1u64 << 32), any::<bool>()),
            1..32,
        ),
        window in 1u64..600,
    ) {
        let build = || ShardedEngine::new(
            SecurityConfig::secddr_ctr(), CPU_MHZ, Interleave::modulo(3),
        );
        let mut windowed = build();
        let mut stepped = build();
        let mut now = 100u64;
        let windows = accesses
            .chunks(5)
            .map(Some)
            .chain(std::iter::repeat_n(None, 8));
        for chunk in windows {
            for &(read, addr, pf) in chunk.unwrap_or_default() {
                let kind = if read { AccessKind::Read } else { AccessKind::Write };
                let addr = addr & !63;
                prop_assert_eq!(
                    windowed.submit(kind, addr, now, pf),
                    stepped.submit(kind, addr, now, pf),
                );
            }
            let end = now + window;
            let per_cycle: Vec<u64> = (now + 1..=end).flat_map(|c| stepped.tick(c)).collect();
            prop_assert_eq!(windowed.tick(end), per_cycle, "window ending at {}", end);
            now = end;
        }
        prop_assert_eq!(windowed.stats(), stepped.stats());
        prop_assert_eq!(windowed.dram_stats(), stepped.dram_stats());
    }
}

/// End-to-end identity: a full benchmark run through `CpuSystem` over
/// `ShardedEngine{N=1}` is bit-identical to the same run over a bare
/// `SecurityEngine` — `SimResult` (so every dispatch/retire decision and
/// the cycle count), `EngineStats`, and `DramStats` — under both advance
/// policies and both interleave hashes.
#[test]
fn single_shard_is_observationally_identical_end_to_end() {
    let bench = Benchmark::by_name("omnetpp").expect("omnetpp exists");
    let trace: Vec<_> = bench.generate(30_000, 0xD5);
    for advance in [Advance::ToNextEvent, Advance::PerCycle] {
        let cpu_cfg = CpuConfig {
            advance,
            ..CpuConfig::default()
        };
        let bare = {
            let engine = SecurityEngine::with_options(
                SecurityConfig::secddr_ctr(),
                cpu_cfg.clock_mhz,
                options(advance),
            );
            let mut sys = CpuSystem::new(cpu_cfg, engine);
            let sim = sys.run(trace.iter().copied());
            (sim, sys.backend().stats(), sys.backend().dram_stats())
        };
        for il in [Interleave::xor(1), Interleave::modulo(1)] {
            let engine = ShardedEngine::with_options(
                SecurityConfig::secddr_ctr(),
                cpu_cfg.clock_mhz,
                il,
                options(advance),
            );
            let mut sys = CpuSystem::new(cpu_cfg, engine);
            let sim = sys.run(trace.iter().copied());
            assert_eq!(sim, bare.0, "{advance:?}/{il:?}: SimResult diverged");
            assert_eq!(
                sys.backend_mut().stats(),
                bare.1,
                "{advance:?}/{il:?}: EngineStats diverged"
            );
            assert_eq!(
                sys.backend_mut().dram_stats(),
                bare.2,
                "{advance:?}/{il:?}: DramStats diverged"
            );
        }
    }
}

/// Shard scaling on a real trace: mcf through `CpuSystem` over
/// `ShardedEngine` with 1, 2, 4 and 8 xor-interleaved channels produces
/// the same `SimResult`, `EngineStats` and `DramStats` under both advance
/// policies. Per-shard traffic thins as N grows, so each channel's idle
/// windows widen and the shard-skipping advance is exercised hardest.
#[test]
fn shard_scaling_event_driven_matches_per_cycle_end_to_end() {
    let bench = Benchmark::by_name("mcf").expect("mcf exists");
    let trace = bench.generate(10_000, 0xD5);
    for n in [1usize, 2, 4, 8] {
        let run = |advance: Advance| {
            let cpu_cfg = CpuConfig {
                advance,
                ..CpuConfig::default()
            };
            let engine = ShardedEngine::with_options(
                SecurityConfig::secddr_ctr(),
                cpu_cfg.clock_mhz,
                Interleave::xor(n),
                options(advance),
            );
            let mut sys = CpuSystem::new(cpu_cfg, engine);
            let sim = sys.run(trace.iter().copied());
            (
                sim,
                sys.backend_mut().stats(),
                sys.backend_mut().dram_stats(),
            )
        };
        assert_eq!(
            run(Advance::ToNextEvent),
            run(Advance::PerCycle),
            "N={n}: event-driven sharded run diverged from per-cycle"
        );
    }
}

/// Sharding conserves data traffic: for any shard count, each access
/// lands on exactly one shard, so summed per-shard data reads and writes
/// equal the unsharded engine's counts for the same input stream, and
/// every accepted read completes.
#[test]
fn sharding_conserves_data_traffic() {
    // Paced so neither the single queue nor any shard queue ever fills:
    // every engine accepts the identical access stream, which is what
    // makes the cross-engine traffic counts comparable.
    let drive = |engine: &mut dyn MemoryBackend| -> (u64, u64) {
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut now = 100u64;
        for i in 0..300u64 {
            let addr = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) & !63;
            let kind = if i % 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            engine
                .submit(kind, addr, now, false)
                .expect("paced stream must never see Busy");
            if kind == AccessKind::Read {
                submitted += 1;
            }
            now += 200;
            completed += engine.tick(now).len() as u64;
        }
        for _ in 0..2_000 {
            now += 50;
            completed += engine.tick(now).len() as u64;
        }
        (submitted, completed)
    };

    let mut bare = SecurityEngine::new(SecurityConfig::secddr_ctr(), CPU_MHZ);
    let (bare_reads, bare_completed) = drive(&mut bare);
    assert_eq!(bare_reads, bare_completed, "bare engine must drain");

    for n in [2usize, 3, 4, 8] {
        let il = if n.is_power_of_two() {
            Interleave::xor(n)
        } else {
            Interleave::modulo(n)
        };
        let mut sharded = ShardedEngine::new(SecurityConfig::secddr_ctr(), CPU_MHZ, il);
        let (reads, completed) = drive(&mut sharded);
        assert_eq!(reads, completed, "N={n}: accepted reads must all complete");
        let stats = sharded.stats();
        assert_eq!(
            stats.data_reads,
            bare.stats().data_reads,
            "N={n}: data reads not conserved"
        );
        assert_eq!(
            stats.data_writes,
            bare.stats().data_writes,
            "N={n}: data writes not conserved"
        );
        let per_shard: u64 = (0..n).map(|s| sharded.shard(s).stats().data_reads).sum();
        assert_eq!(
            per_shard, stats.data_reads,
            "N={n}: merge() must sum shards"
        );
        assert!(
            (0..n).all(|s| sharded.shard(s).stats().data_reads > 0),
            "N={n}: the hash must spread traffic over every shard"
        );
    }
}
