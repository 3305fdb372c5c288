//! The CPU side's backend seam ([`MemoryBackend`]), its results
//! ([`SimResult`]), and [`CpuSystem`]: one core + L1 + LLC + prefetcher
//! over a pluggable memory backend.
//!
//! [`CpuSystem`] owns no loop of its own. It is the one-core view of the
//! next-event scheduler ([`crate::sched::MultiCoreSystem`]), so a
//! single-core run and an N-core run execute the same code under either
//! [`sim_kernel::Advance`] policy. Skipped cycles still count toward
//! [`SimResult::cycles`], so event-driven results are bit-identical to
//! [`sim_kernel::Advance::PerCycle`].

use sim_kernel::EventQueue;

use crate::cache::CacheStats;
use crate::core::CpuConfig;
use crate::sched::{MultiCoreResult, MultiCoreSystem};
use crate::trace::TraceOp;

/// Direction of a backend access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Line fill (demand miss, RFO, metadata, or prefetch).
    Read,
    /// Line writeback.
    Write,
}

/// Error returned when the backend cannot accept a request this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy;

/// One access of a [`MemoryBackend::submit_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAccess {
    /// Read (line fill) or write (writeback).
    pub kind: AccessKind,
    /// Line-granularity address.
    pub addr: u64,
    /// Best-effort prefetch (backends may deprioritize or drop).
    pub is_prefetch: bool,
}

impl core::fmt::Display for Busy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "memory backend busy")
    }
}

impl std::error::Error for Busy {}

/// What sits below the LLC: DRAM plus whatever security machinery the
/// evaluated configuration adds (integrity tree walks, counter fetches,
/// E-MAC pads, InvisiMem channel MACs...).
///
/// Implementations assign tokens to accepted reads; [`Self::advance_to`]
/// — the one clock a backend implements — advances backend time to the
/// given CPU cycle and reports which read tokens completed, stamped with
/// the cycle each became visible (writes complete silently).
///
/// Tokens are allocated as a dense ascending sequence starting at zero —
/// one per accepted submission, reads and writes alike. Front-ends rely
/// on this to key per-token side tables by plain index, in a
/// [`sim_kernel::TokenWindow`] (e.g. the multi-core scheduler's
/// token → `(core, line)` completion routing), instead of hashing.
pub trait MemoryBackend {
    /// Submits a line-granularity access at CPU cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`Busy`] when queues are full; the caller retries later.
    fn submit(
        &mut self,
        kind: AccessKind,
        addr: u64,
        now: u64,
        is_prefetch: bool,
    ) -> Result<u64, Busy>;

    /// Submits a batch of same-cycle accesses, appending one result per
    /// access (in order) to `results`.
    ///
    /// Observationally identical to calling [`Self::submit`] once per
    /// access at the same `now` — implementations may only amortize
    /// shared per-call work (advancing internal clocks, translation
    /// setup, backpressure rechecks), never reorder or coalesce. A
    /// rejected access must leave backend state unchanged.
    fn submit_batch(
        &mut self,
        batch: &[BatchAccess],
        now: u64,
        results: &mut Vec<Result<u64, Busy>>,
    ) {
        for b in batch {
            results.push(self.submit(b.kind, b.addr, now, b.is_prefetch));
        }
    }

    /// Advances to CPU cycle `target` in one call, appending every read
    /// completion that became visible in the advanced window to
    /// `completions` as `(visible_cycle, token)` pairs: ascending cycle,
    /// same-cycle completions in the backend's own order. Advancing
    /// through a window in one call or one cycle at a time delivers the
    /// same sequence.
    ///
    /// This is the block-advance seam for next-event schedulers: the
    /// backend is touched once per *observable* event rather than once
    /// per simulated cycle. The call is sound at any `target`; the stamps
    /// tell the caller which cycle each completion belongs to. A caller
    /// that never advances past [`Self::next_completion_event`] without
    /// harvesting will only ever see stamps equal to its current cycle.
    fn advance_to(&mut self, target: u64, completions: &mut Vec<(u64, u64)>);

    /// Advances to CPU cycle `now` and returns the completed read tokens
    /// without their stamps: [`Self::advance_to`]`(now)` in a `Vec`.
    fn tick(&mut self, now: u64) -> Vec<u64> {
        let mut stamps = Vec::new();
        self.advance_to(now, &mut stamps);
        stamps.into_iter().map(|(_, token)| token).collect()
    }

    /// Lower bound on the next CPU cycle at which this backend's
    /// observable state can change: a read completing, or queue space
    /// freeing up after a [`Busy`] rejection.
    ///
    /// `None` means "no internal events pending" (nothing will ever
    /// complete without a new submission), which lets the event-driven
    /// run loop skip freely. The default is the always-safe "wake me
    /// every cycle", so custom backends keep per-cycle semantics unless
    /// they opt in.
    fn next_event(&self, now: u64) -> Option<u64> {
        Some(now + 1)
    }

    /// Lower bound on the next CPU cycle at which [`Self::advance_to`]
    /// could deliver a completed read token.
    ///
    /// Callers that are only waiting on completions (no writeback or
    /// submission blocked on [`Busy`]) may sleep to this bound instead of
    /// [`Self::next_event`]; it can be much larger because queue-space
    /// changes do not have to be observed. Defaults to `next_event`.
    fn next_completion_event(&self, now: u64) -> Option<u64> {
        self.next_event(now)
    }

    /// Lower bound on the next CPU cycle at which either a read could
    /// complete or read-queue capacity for a retry of the access at
    /// `addr` could free up.
    ///
    /// Used when a load is stalled on [`Busy`]: read capacity frees when
    /// a read leaves the backend's queues, which can be bounded far more
    /// loosely than "any observable change". Multi-channel backends use
    /// `addr` (the stalled access's line address) to bound the wait by
    /// the *owning* shard's queue instead of the earliest capacity event
    /// of any shard. Defaults to `next_event`.
    fn next_read_capacity_event(&self, now: u64, addr: u64) -> Option<u64> {
        let _ = addr;
        self.next_event(now)
    }
}

/// A constant-latency backend for tests and upper-bound experiments.
#[derive(Debug)]
pub struct FixedLatencyBackend {
    latency: u64,
    next_token: u64,
    in_flight: EventQueue<u64>, // token, scheduled at its finish cycle
}

impl FixedLatencyBackend {
    /// Backend whose every read completes after `latency` CPU cycles.
    pub fn new(latency: u64) -> Self {
        Self {
            latency,
            next_token: 0,
            in_flight: EventQueue::new(),
        }
    }
}

impl MemoryBackend for FixedLatencyBackend {
    fn submit(
        &mut self,
        kind: AccessKind,
        _addr: u64,
        now: u64,
        _is_prefetch: bool,
    ) -> Result<u64, Busy> {
        let token = self.next_token;
        self.next_token += 1;
        if kind == AccessKind::Read {
            self.in_flight.push(now + self.latency, token);
        }
        Ok(token)
    }

    fn advance_to(&mut self, target: u64, completions: &mut Vec<(u64, u64)>) {
        // `in_flight` is keyed at finish cycles, so the pop order *is*
        // the per-cycle delivery order, stamps included.
        while let Some((at, token)) = self.in_flight.pop_due(target) {
            completions.push((at, token));
        }
    }

    fn next_event(&self, _now: u64) -> Option<u64> {
        self.in_flight.peek_time()
    }
}

/// Result of one simulation run. The default is all zeros, the identity
/// of [`SimResult::merge`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimResult {
    /// Instructions retired.
    pub instructions: u64,
    /// CPU cycles elapsed.
    pub cycles: u64,
    /// L1D statistics.
    pub l1: CacheStats,
    /// LLC statistics (demand accesses only).
    pub llc: CacheStats,
    /// Prefetches issued.
    pub prefetches: u64,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLC demand misses per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc.misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Accumulates another core's result into `self`: instruction and
    /// prefetch counters sum, cache statistics merge, and `cycles` takes
    /// the maximum (the cores ran concurrently, so the aggregate run is
    /// as long as its slowest core). The merged [`Self::ipc`] is
    /// therefore total instructions over the shared wall-cycle span.
    pub fn merge(&mut self, other: &Self) {
        // Exhaustive destructuring: a new field must pick a merge rule.
        let Self {
            instructions,
            cycles,
            l1,
            llc,
            prefetches,
        } = other;
        self.instructions += instructions;
        self.cycles = self.cycles.max(*cycles);
        self.l1.merge(l1);
        self.llc.merge(llc);
        self.prefetches += prefetches;
    }
}

/// The simulated CPU: ROB-limited OOO core, L1D, shared LLC, stream
/// prefetcher, and a [`MemoryBackend`] below — a one-core
/// [`MultiCoreSystem`].
#[derive(Debug)]
pub struct CpuSystem<B>(MultiCoreSystem<B>);

impl<B: MemoryBackend> CpuSystem<B> {
    /// Builds a system with Table I cache geometry.
    pub fn new(cfg: CpuConfig, backend: B) -> Self {
        Self(MultiCoreSystem::new(1, cfg, backend))
    }

    /// Read access to the backend (for engine statistics).
    pub fn backend(&self) -> &B {
        self.0.backend()
    }

    /// Mutable access to the backend.
    pub fn backend_mut(&mut self) -> &mut B {
        self.0.backend_mut()
    }

    /// Runs the trace to completion (drains the ROB and all outstanding
    /// misses) and returns the aggregate result.
    ///
    /// Calling `run` again continues cumulatively: the clock keeps
    /// advancing, caches stay warm, and counters accumulate across runs.
    pub fn run<T: Iterator<Item = TraceOp>>(&mut self, trace: T) -> SimResult {
        let MultiCoreResult { mut per_core } = self.0.run(vec![trace]);
        per_core.swap_remove(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_trace(n: u64) -> impl Iterator<Item = TraceOp> {
        (0..n).map(|_| TraceOp::Compute(60))
    }

    #[test]
    fn pure_compute_reaches_full_width_ipc() {
        let mut sys = CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(100));
        let r = sys.run(compute_trace(1000));
        assert_eq!(r.instructions, 60_000);
        assert!(r.ipc() > 5.5, "ipc {}", r.ipc());
    }

    #[test]
    fn memory_latency_reduces_ipc() {
        // Pointer-chase-like loads to distinct lines, little compute.
        let make_trace = || {
            (0..2_000u64)
                .flat_map(|i| [TraceOp::Load(i * 64 * 131), TraceOp::Compute(2)].into_iter())
        };
        let fast =
            CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(20)).run(make_trace());
        let slow =
            CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(400)).run(make_trace());
        assert_eq!(fast.instructions, slow.instructions);
        assert!(
            fast.ipc() > slow.ipc() * 2.0,
            "fast {} vs slow {}",
            fast.ipc(),
            slow.ipc()
        );
    }

    #[test]
    fn repeated_loads_hit_l1() {
        let trace = (0..1_000u64).map(|_| TraceOp::Load(0x4000));
        let mut sys = CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(300));
        let r = sys.run(trace);
        assert_eq!(r.l1.misses, 1);
        assert_eq!(r.llc.misses, 1);
        assert!(r.ipc() > 1.0);
    }

    #[test]
    fn mlp_overlaps_independent_misses() {
        // Many independent misses should overlap in the 224-entry window:
        // runtime must be far less than sum of latencies.
        let n = 500u64;
        let trace = (0..n).map(|i| TraceOp::Load(i * 64 * 977));
        let lat = 300u64;
        let mut sys = CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(lat));
        let r = sys.run(trace);
        assert!(
            r.cycles < n * lat / 4,
            "expected MLP overlap: {} cycles for {} misses of {}",
            r.cycles,
            n,
            lat
        );
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let trace = (0..500u64).map(|i| TraceOp::Store(i * 64 * 977));
        let mut sys = CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(400));
        let r = sys.run(trace);
        // 500 store instructions; posted stores retire at full width.
        assert!(r.ipc() > 1.0, "ipc {}", r.ipc());
    }

    #[test]
    fn streaming_trains_prefetcher() {
        let trace = (0..4_000u64).map(|i| TraceOp::Load(i * 64));
        let mut sys = CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(200));
        let r = sys.run(trace);
        assert!(r.prefetches > 100, "prefetches {}", r.prefetches);
    }

    #[test]
    fn llc_mpki_reflects_locality() {
        let stream = (0..20_000u64)
            .map(|i| TraceOp::Load((i % 64) * 64))
            .collect::<Vec<_>>();
        let random = (0..20_000u64)
            .map(|i| TraceOp::Load((i.wrapping_mul(0x9E3779B97F4A7C15) >> 20) & !63))
            .collect::<Vec<_>>();
        let r_stream = CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(100))
            .run(stream.into_iter());
        let r_random = CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(100))
            .run(random.into_iter());
        assert!(
            r_stream.llc_mpki() < 5.0,
            "cold misses only: {}",
            r_stream.llc_mpki()
        );
        assert!(r_random.llc_mpki() > 100.0);
    }

    #[test]
    fn result_instruction_count_matches_trace() {
        let trace = vec![
            TraceOp::Compute(100),
            TraceOp::Load(0),
            TraceOp::Store(64),
            TraceOp::Compute(3),
        ];
        let mut sys = CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(50));
        let r = sys.run(trace.into_iter());
        assert_eq!(r.instructions, 105);
    }

    #[test]
    fn dependent_loads_serialize() {
        // Pointer chase: each DependentLoad waits for the previous one, so
        // total time approaches n * latency, unlike independent loads.
        let n = 200u64;
        let lat = 300u64;
        let chase: Vec<TraceOp> = (0..n)
            .map(|i| TraceOp::DependentLoad(i * 64 * 977))
            .collect();
        let indep: Vec<TraceOp> = (0..n).map(|i| TraceOp::Load(i * 64 * 977)).collect();
        let r_chase = CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(lat))
            .run(chase.into_iter());
        let r_indep = CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(lat))
            .run(indep.into_iter());
        assert!(
            r_chase.cycles > n * lat * 9 / 10,
            "chase must serialize: {} cycles",
            r_chase.cycles
        );
        assert!(r_chase.cycles > r_indep.cycles * 4);
    }

    #[test]
    fn duplicate_misses_merge() {
        // Two loads to the same (cold) line: one backend read.
        #[derive(Debug, Default)]
        struct CountingBackend {
            reads: u64,
            inner: Vec<(u64, u64)>,
            next: u64,
        }
        impl MemoryBackend for CountingBackend {
            fn submit(
                &mut self,
                kind: AccessKind,
                _addr: u64,
                now: u64,
                _p: bool,
            ) -> Result<u64, Busy> {
                let t = self.next;
                self.next += 1;
                if kind == AccessKind::Read {
                    self.reads += 1;
                    self.inner.push((now + 100, t));
                }
                Ok(t)
            }
            fn advance_to(&mut self, target: u64, completions: &mut Vec<(u64, u64)>) {
                let (done, rest): (Vec<_>, Vec<_>) =
                    self.inner.iter().partition(|(f, _)| *f <= target);
                self.inner = rest;
                completions.extend(done);
            }
        }
        let trace = vec![TraceOp::Load(0x1234000), TraceOp::Load(0x1234008)];
        let mut sys = CpuSystem::new(CpuConfig::default(), CountingBackend::default());
        let r = sys.run(trace.into_iter());
        assert_eq!(sys.backend().reads, 1);
        assert_eq!(r.instructions, 2);
    }

    #[test]
    fn second_run_continues_cumulatively() {
        // Re-running on a drained system simulates the new trace with a
        // continuing clock, warm caches, and accumulating counters.
        let mut sys = CpuSystem::new(CpuConfig::default(), FixedLatencyBackend::new(120));
        let r1 = sys.run((0..100u64).map(|i| TraceOp::Load(i * 64 * 131)));
        let r2 = sys.run((0..50u64).map(|_| TraceOp::Compute(60)));
        assert_eq!(r1.instructions, 100);
        assert_eq!(r2.instructions, 100 + 3_000, "counters accumulate");
        assert!(r2.cycles > r1.cycles, "clock keeps advancing");
        // The first run's lines are still cached: repeating it is hits.
        let r3 = sys.run((0..100u64).map(|i| TraceOp::Load(i * 64 * 131)));
        assert_eq!(r3.llc.misses, r2.llc.misses, "warm LLC: no new misses");
    }

    #[test]
    fn merge_sums_counters_and_maxes_cycles() {
        let a = SimResult {
            instructions: 100,
            cycles: 50,
            l1: CacheStats {
                hits: 10,
                misses: 2,
                writebacks: 1,
            },
            llc: CacheStats {
                hits: 4,
                misses: 3,
                writebacks: 2,
            },
            prefetches: 5,
        };
        let b = SimResult {
            instructions: 200,
            cycles: 40,
            l1: CacheStats {
                hits: 1,
                misses: 1,
                writebacks: 0,
            },
            llc: CacheStats {
                hits: 2,
                misses: 2,
                writebacks: 2,
            },
            prefetches: 7,
        };
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.instructions, 300);
        assert_eq!(merged.cycles, 50, "concurrent cores: max, not sum");
        assert_eq!(merged.l1.hits, 11);
        assert_eq!(merged.llc.misses, 5);
        assert_eq!(merged.prefetches, 12);
        assert!((merged.ipc() - 300.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_commutative_on_counters() {
        let a = SimResult {
            instructions: 7,
            cycles: 9,
            l1: CacheStats::default(),
            llc: CacheStats::default(),
            prefetches: 1,
        };
        let b = SimResult {
            instructions: 11,
            cycles: 13,
            l1: CacheStats::default(),
            llc: CacheStats::default(),
            prefetches: 2,
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }
}
