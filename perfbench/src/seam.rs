//! The backend seam probe: a [`MemoryBackend`] wrapper that counts every
//! call into the memory side and times a sampled subset of them.
//!
//! Timing every call costs more than the calls themselves on the
//! single-core path (two clock reads around a ~100 ns `tick`), so only
//! every `SAMPLE_EVERY`-th call of each kind is timed and the kind's
//! seconds are extrapolated from the timed calls' mean. Counts are
//! exact. The cost of the clock reads themselves, calibrated once per
//! process, is subtracted from every timed call. The wrapper only forwards, so simulated results are identical
//! to the bare backend's; the digest check confirms it on every traced
//! run.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

use cpu_model::system::{AccessKind, BatchAccess, Busy, MemoryBackend};
use cpu_model::{CpuConfig, CpuSystem, SimResult, TraceOp};
use dram_sim::{ControllerTelemetry, DramStats};
use secddr_core::engine::{EngineOptions, EngineStats, SecurityEngine};
use secddr_core::SecurityConfig;

/// One call in this many (per call kind) is timed.
const SAMPLE_EVERY: u64 = 16;

/// Median nanoseconds of an empty timed span (two clock reads).
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut spans: Vec<u64> = (0..1001)
            .map(|_| {
                let start = Instant::now();
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
            })
            .collect();
        spans.sort_unstable();
        spans[spans.len() / 2]
    })
}

/// Calls and sampled time of one call kind.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct KindStats {
    /// Calls made (exact).
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Nanoseconds spent in the timed calls.
    pub timed_ns: u64,
}

impl KindStats {
    /// Estimated seconds over all calls: the timed calls' mean times the
    /// call count.
    pub fn seconds(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns as f64 * 1e-9 * self.calls as f64 / self.timed as f64
        }
    }

    fn merge(&mut self, other: &Self) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }
}

/// Everything the probe recorded at one seam.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SeamStats {
    /// `submit` and `submit_batch` calls.
    pub submit: KindStats,
    /// `tick` calls.
    pub tick: KindStats,
    /// `advance_to` calls.
    pub advance: KindStats,
    /// `next_event`, `next_completion_event` and
    /// `next_read_capacity_event` calls.
    pub bound: KindStats,
    /// Accesses offered through either submit call.
    pub accesses: u64,
    /// Accesses rejected with [`Busy`].
    pub busy: u64,
}

impl SeamStats {
    /// Estimated seconds spent below the seam.
    pub fn seconds(&self) -> f64 {
        self.kinds().iter().map(|(_, k)| k.seconds()).sum()
    }

    /// The four call kinds with their metric names.
    pub fn kinds(&self) -> [(&'static str, KindStats); 4] {
        [
            ("submit", self.submit),
            ("tick", self.tick),
            ("advance", self.advance),
            ("bound", self.bound),
        ]
    }

    /// Exact counts only (the part that must repeat run to run).
    pub fn counts(&self) -> [u64; 6] {
        [
            self.submit.calls,
            self.tick.calls,
            self.advance.calls,
            self.bound.calls,
            self.accesses,
            self.busy,
        ]
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        self.submit.merge(&other.submit);
        self.tick.merge(&other.tick);
        self.advance.merge(&other.advance);
        self.bound.merge(&other.bound);
        self.accesses += other.accesses;
        self.busy += other.busy;
    }
}

/// Interior-mutable form of [`KindStats`]: the bound queries take
/// `&self`.
#[derive(Debug, Default)]
struct KindCell {
    calls: Cell<u64>,
    timed: Cell<u64>,
    timed_ns: Cell<u64>,
}

impl KindCell {
    fn record<R>(&self, call: impl FnOnce() -> R) -> R {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return call();
        }
        let overhead = clock_overhead_ns();
        let start = Instant::now();
        let out = call();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let ns = ns.saturating_sub(overhead);
        self.timed.set(self.timed.get() + 1);
        self.timed_ns.set(self.timed_ns.get() + ns);
        out
    }

    fn get(&self) -> KindStats {
        KindStats {
            calls: self.calls.get(),
            timed: self.timed.get(),
            timed_ns: self.timed_ns.get(),
        }
    }
}

/// A backend wrapped by the probe.
#[derive(Debug)]
pub struct Seam<B> {
    inner: B,
    submit: KindCell,
    tick: KindCell,
    advance: KindCell,
    bound: KindCell,
    accesses: u64,
    busy: u64,
}

impl<B> Seam<B> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            submit: KindCell::default(),
            tick: KindCell::default(),
            advance: KindCell::default(),
            bound: KindCell::default(),
            accesses: 0,
            busy: 0,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend, mutably (statistics getters of the sharded
    /// engine take `&mut self`).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// What the probe recorded so far.
    pub fn stats(&self) -> SeamStats {
        SeamStats {
            submit: self.submit.get(),
            tick: self.tick.get(),
            advance: self.advance.get(),
            bound: self.bound.get(),
            accesses: self.accesses,
            busy: self.busy,
        }
    }
}

impl<B: MemoryBackend> MemoryBackend for Seam<B> {
    fn submit(
        &mut self,
        kind: AccessKind,
        addr: u64,
        now: u64,
        is_prefetch: bool,
    ) -> Result<u64, Busy> {
        let out = self
            .submit
            .record(|| self.inner.submit(kind, addr, now, is_prefetch));
        self.accesses += 1;
        self.busy += u64::from(out.is_err());
        out
    }

    fn submit_batch(
        &mut self,
        batch: &[BatchAccess],
        now: u64,
        results: &mut Vec<Result<u64, Busy>>,
    ) {
        let start = results.len();
        self.submit
            .record(|| self.inner.submit_batch(batch, now, results));
        self.accesses += batch.len() as u64;
        self.busy += results[start..].iter().filter(|r| r.is_err()).count() as u64;
    }

    fn tick(&mut self, now: u64) -> Vec<u64> {
        self.tick.record(|| self.inner.tick(now))
    }

    fn advance_to(&mut self, target: u64, completions: &mut Vec<(u64, u64)>) {
        self.advance
            .record(|| self.inner.advance_to(target, completions));
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.bound.record(|| self.inner.next_event(now))
    }

    fn next_completion_event(&self, now: u64) -> Option<u64> {
        self.bound.record(|| self.inner.next_completion_event(now))
    }

    fn next_read_capacity_event(&self, now: u64, addr: u64) -> Option<u64> {
        self.bound
            .record(|| self.inner.next_read_capacity_event(now, addr))
    }
}

/// Outputs of one single-core cell run through the probe.
#[derive(Debug)]
pub struct ProbedCell {
    /// Core-side results.
    pub sim: SimResult,
    /// Security-engine traffic.
    pub engine: EngineStats,
    /// DRAM channel statistics.
    pub dram: DramStats,
    /// What the probe recorded.
    pub seam: SeamStats,
    /// DRAM decision counts.
    pub telemetry: ControllerTelemetry,
}

/// `run_trace_with_options` at default options with the probe between
/// the core and the security engine.
pub fn probed_cell(trace: &[TraceOp], config: &SecurityConfig) -> ProbedCell {
    let options = EngineOptions::default();
    let cpu_cfg = CpuConfig {
        advance: options.advance,
        batch_submit: options.batched_ingestion,
        ..CpuConfig::default()
    };
    let engine = SecurityEngine::with_options(*config, cpu_cfg.clock_mhz, options);
    let mut system = CpuSystem::new(cpu_cfg, Seam::new(engine));
    let sim = system.run(trace.iter().copied());
    let seam = system.backend();
    let engine = seam.inner();
    ProbedCell {
        sim,
        engine: engine.stats(),
        dram: engine.dram_stats(),
        seam: seam.stats(),
        telemetry: engine.dram_telemetry(),
    }
}
