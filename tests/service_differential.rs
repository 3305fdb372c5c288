//! Differential tests for the experiment service: a job submitted
//! through [`ExperimentService`] must produce **bit-identical**
//! `SimResult`s (and engine statistics) to calling the simulation
//! library directly — `run_trace_with_options` for the 1-core/1-channel
//! shape, `CpuSystem` over `ShardedEngine` for multi-channel, and
//! `MultiCoreSystem` rate mode for multi-core — plus a proptest pinning
//! the `JobSpec` JSON codec as lossless over randomized valid specs.

use proptest::prelude::*;
use secddr::core::config::SecurityConfig;
use secddr::core::engine::EngineOptions;
use secddr::core::metadata::DATA_SPAN;
use secddr::core::system::run_trace_with_options;
use secddr::cpu::{Advance, CpuSystem};
use secddr::service::{ExperimentService, JobSpec, Json, SuiteSel, Workload};
use secddr::workloads::Benchmark;
use secddr::{CoreTrace, MultiCoreSystem, ShardedEngine};

const INSTRS: u64 = 12_000;
const SEED: u64 = 0xD5;

fn spec(name: &str, cores: usize, channels: usize) -> JobSpec {
    let mut spec = JobSpec::bench(name);
    spec.cores = cores;
    spec.channels = channels;
    spec.instructions = INSTRS;
    spec.seed = SEED;
    spec
}

#[test]
fn single_core_single_channel_matches_direct_run() {
    let service = ExperimentService::with_threads(2);
    let outcome = service.submit(spec("mcf", 1, 1)).unwrap().wait();
    assert!(outcome.finished());
    let cell = &outcome.cells[0];

    let bench = Benchmark::by_name("mcf").unwrap();
    let trace = bench.generate(INSTRS, SEED);
    let direct = run_trace_with_options(
        &bench,
        &trace,
        &SecurityConfig::secddr_ctr(),
        EngineOptions::default(),
    );
    assert_eq!(cell.per_core, vec![direct.sim], "SimResult bit-identity");
    assert_eq!(cell.engine, direct.engine, "EngineStats bit-identity");
}

#[test]
fn multi_channel_matches_direct_sharded_run() {
    let service = ExperimentService::with_threads(2);
    let job = spec("omnetpp", 1, 4);
    let outcome = service.submit(job.clone()).unwrap().wait();
    assert!(outcome.finished());
    let cell = &outcome.cells[0];

    let bench = Benchmark::by_name("omnetpp").unwrap();
    let trace = bench.generate(INSTRS, SEED);
    let cpu_cfg = job.options.cpu_config();
    let engine = ShardedEngine::with_options(
        SecurityConfig::secddr_ctr(),
        cpu_cfg.clock_mhz,
        job.interleave(),
        job.options,
    );
    let mut sys = CpuSystem::new(cpu_cfg, engine);
    let sim = sys.run(trace.iter().copied());
    assert_eq!(cell.per_core, vec![sim], "SimResult bit-identity");
    assert_eq!(cell.engine, sys.backend_mut().stats(), "EngineStats");
}

#[test]
fn multi_core_rate_mode_matches_direct_multicore_run() {
    let service = ExperimentService::with_threads(2);
    let job = spec("mcf", 4, 4);
    let outcome = service.submit(job.clone()).unwrap().wait();
    assert!(outcome.finished());
    let cell = &outcome.cells[0];

    let bench = Benchmark::by_name("mcf").unwrap();
    let trace = bench.generate_shared(INSTRS, SEED);
    let cpu_cfg = job.options.cpu_config();
    let engine = ShardedEngine::with_options(
        SecurityConfig::secddr_ctr(),
        cpu_cfg.clock_mhz,
        job.interleave(),
        job.options,
    );
    let mut sys = MultiCoreSystem::new(4, cpu_cfg, engine);
    let direct = sys.run(CoreTrace::rate(&trace, DATA_SPAN, 4));
    assert_eq!(cell.per_core, direct.per_core, "per-core SimResults");
    assert_eq!(cell.engine, sys.backend_mut().stats(), "EngineStats");
    assert_eq!(cell.merged(), direct.merged(), "merged aggregate");
}

#[test]
fn per_cycle_jobs_match_event_driven_jobs() {
    // The advance policy rides the spec's options; both policies must
    // agree through the whole service path (the kernel contract, now
    // exercised one layer up).
    let service = ExperimentService::with_threads(2);
    let mut fast = spec("pr", 2, 2);
    fast.instructions = 6_000;
    let mut reference = fast.clone();
    reference.options = EngineOptions {
        advance: Advance::PerCycle,
        ..reference.options
    };
    let fast_outcome = service.submit(fast).unwrap().wait();
    let ref_outcome = service.submit(reference).unwrap().wait();
    assert_eq!(
        fast_outcome.cells[0].per_core, ref_outcome.cells[0].per_core,
        "event-driven service job diverged from per-cycle"
    );
    assert_eq!(fast_outcome.cells[0].engine, ref_outcome.cells[0].engine);
}

// ---- JobSpec JSON codec ------------------------------------------------

fn arb_config() -> impl Strategy<Value = SecurityConfig> {
    use secddr::core::config::{EncMode, Mechanism};
    (0u8..6, any::<bool>(), 0u32..3).prop_map(|(mech, flag, packing_sel)| {
        let ctr_packing = [8u32, 64, 128][packing_sel as usize];
        let (mechanism, enc) = match mech {
            0 => (Mechanism::Tdx, pick_enc(flag)),
            1 => (
                Mechanism::CounterTree {
                    arity: if flag { 64 } else { 128 },
                },
                EncMode::Ctr,
            ),
            2 => (
                Mechanism::HashTree {
                    arity: if flag { 8 } else { 64 },
                },
                pick_enc(flag),
            ),
            3 => (Mechanism::SecDdr, pick_enc(flag)),
            4 => (Mechanism::EncryptOnly, pick_enc(flag)),
            _ => (Mechanism::InvisiMem { realistic: flag }, pick_enc(!flag)),
        };
        SecurityConfig {
            mechanism,
            enc,
            ctr_packing,
        }
    })
}

fn pick_enc(xts: bool) -> secddr::core::config::EncMode {
    if xts {
        secddr::core::config::EncMode::Xts
    } else {
        secddr::core::config::EncMode::Ctr
    }
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        0usize..29,
        proptest::collection::vec(arb_config(), 1..4),
        (1usize..5, 1usize..9),
        (1u64..1_000_000, any::<u64>()),
        any::<u8>(),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(bench_at, configs, (cores, channels), (instructions, seed), priority, knobs)| {
                let all = Benchmark::all();
                let workload = if bench_at % 7 == 0 {
                    Workload::Suite(match bench_at % 3 {
                        0 => SuiteSel::Spec,
                        1 => SuiteSel::Gapbs,
                        _ => SuiteSel::All,
                    })
                } else {
                    Workload::Bench(all[bench_at].name().to_string())
                };
                JobSpec {
                    workload,
                    configs,
                    options: EngineOptions {
                        serial_tree_fetch: knobs.0,
                        force_bl8: knobs.1,
                        batched_ingestion: knobs.2,
                        advance: if knobs.0 {
                            Advance::PerCycle
                        } else {
                            Advance::ToNextEvent
                        },
                        ..EngineOptions::default()
                    },
                    cores,
                    channels,
                    instructions,
                    seed,
                    // Exercise both the off (0) and on states of the
                    // series codec without a dedicated strategy slot.
                    epoch_width: seed % 100_000,
                    // The shim has no signed Arbitrary; fold a u8 over
                    // the full i8 range instead.
                    #[allow(clippy::cast_possible_wrap)]
                    priority: priority as i8,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The JSON codec is lossless over randomized valid specs: parse ∘
    /// print ∘ encode == identity (u64 seeds included — the hand-rolled
    /// JSON keeps integers exact).
    #[test]
    fn jobspec_json_round_trips(spec in arb_spec()) {
        // Some generated mechanism × enc pairs are invalid by the
        // paper's compatibility argument; those must fail *validation*,
        // not corrupt the codec.
        let encoded = spec.to_json().to_string();
        let parsed = Json::parse(&encoded).expect("codec emits valid JSON");
        match JobSpec::from_json(&parsed) {
            Ok(back) => {
                prop_assert_eq!(&back, &spec);
                prop_assert!(spec.validate().is_ok());
            }
            Err(_) => prop_assert!(spec.validate().is_err(), "decode only rejects invalid specs"),
        }
    }

    /// The canonical content hash (the fleet's dedupe and memoization
    /// key) survives codec round-trips and ignores `priority` — the
    /// one field that affects scheduling but not results.
    #[test]
    fn content_hash_survives_round_trips_and_ignores_priority(spec in arb_spec()) {
        let hash = spec.content_hash();
        let encoded = spec.to_json().to_string();
        let parsed = Json::parse(&encoded).expect("codec emits valid JSON");
        if let Ok(back) = JobSpec::from_json(&parsed) {
            prop_assert_eq!(back.content_hash(), hash, "round-trip preserves the hash");
        }
        let mut bumped = spec.clone();
        bumped.priority = bumped.priority.wrapping_add(1);
        prop_assert_eq!(bumped.content_hash(), hash, "priority is excluded");
    }
}
