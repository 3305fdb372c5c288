//! The next-event core scheduler: N OOO cores sharing one LLC and one
//! memory backend. It is the workspace's only core run loop —
//! [`crate::CpuSystem`] is its one-core view.
//!
//! [`MultiCoreSystem`] owns N [`CoreEngine`]s (each a private ROB, L1D
//! and stream prefetcher), one shared LLC, and one [`MemoryBackend`].
//! Completed read tokens are routed back to their owning cores as line
//! addresses, so the backend is oblivious to the core count; a
//! multi-channel backend (`ShardedEngine`) presents the same seam, which
//! is what makes cores × channels compose
//! (`MultiCoreSystem<ShardedEngine>` works unchanged).
//!
//! # Scheduling
//!
//! Under [`sim_kernel::Advance::ToNextEvent`] the run loop is organized
//! around three structures instead of a per-cycle scan:
//!
//! * an **awake-list** — a sorted dense list of awake, unfinished core
//!   indices, maintained incrementally on sleep/wake/finish. Only listed
//!   cores step; a sleeping or finished core costs literally zero per
//!   cycle (no scan slot, no `routed` clear);
//! * a **block-advanced backend** — the backend is touched only when its
//!   memoized [`MemoryBackend::next_completion_event`] bound comes due,
//!   and then advanced in one [`MemoryBackend::advance_to`] call whose
//!   cycle-stamped completions are routed through a
//!   [`sim_kernel::TokenWindow`] of `(core, line)` (tokens ascend by the
//!   backend contract, so routing is one indexed load, no hashing);
//! * a **merged event heap** — sleeping cores register wake-up bounds in
//!   a [`sim_kernel::EventQueue`] with lazy staleness filtering
//!   ([`sim_kernel::EventQueue::peek`] inspects without the old
//!   pop-then-push round trip). Whenever the awake-list is empty the
//!   clock jumps straight to the earlier of the heap head and the
//!   backend bound — idle windows cost one peek even when only *some*
//!   cores ever sleep.
//!
//! Sleeps come in two kinds, classified by [`CoreEngine::sleep_plan`].
//! *Exact* sleeps (no backend-capacity involvement) wait only on the
//! core's own routed completions and its in-order retire cycle — they
//! never fire spuriously and stay valid across other cores' activity.
//! *Capacity* sleeps (a refused writeback or a Busy-stalled op) sleep
//! to [`CoreEngine::wake_bound`], a bound on shared queue-space events,
//! from their first idle step. After any cycle with an accepted
//! submission the scheduler re-derives just the capacity sleepers'
//! bounds (keeping the earlier) plus the backend bound — the mutated
//! backend can owe them an earlier wake-up. During all-asleep windows
//! nothing submits, so every registered bound stays valid and the
//! global jump is sound. Results are bit-identical to
//! [`sim_kernel::Advance::PerCycle`], where every core steps every cycle
//! against a backend advanced one cycle at a time.
//!
//! The backend side of each jump is block-advanced too: the DDR4
//! controllers ride their exact *decision bound*
//! (`DramSystem::skip_to_next_decision` plus `tick`), executing only the
//! cycles where a command can issue (completions that land inside a
//! skipped span are popped at their own finish cycles), and a
//! `ShardedEngine` steps only the shards with a completion due.
//! Saturated phases — where both
//! policies used to converge on one controller tick per busy DRAM
//! cycle — therefore no longer floor the wall-clock; perfbench's
//! `dram.decision_cycles` / `dram.busy_cycles` counts (gated in
//! `BENCH_counts.json`) measure exactly this gap.

use secddr_telemetry::{CounterSeries, SeriesSnapshot, TelemetrySnapshot};
use sim_kernel::{EventQueue, SimClock, TokenWindow};

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::core::CpuConfig;
use crate::exec::{CoreEngine, SleepPlan};
use crate::system::{AccessKind, BatchAccess, Busy, MemoryBackend, SimResult};
use crate::trace::TraceOp;

mod wake;

pub use wake::WakeReasons;

/// The scheduler's aggregate counters under the `multicore.*` names:
/// the wake-reason buckets and the total core steps.
fn scheduler_counters(wake: &WakeReasons, core_steps: &[u64]) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::default();
    wake.render_into(&mut snap);
    snap.add_counter("multicore.core.steps", core_steps.iter().sum());
    snap
}

/// The scheduler's series rows: [`scheduler_counters`] plus each core's
/// `multicore.coreNN.steps` and `multicore.coreNN.retired` heatmap rows.
fn series_counters(
    wake: &WakeReasons,
    core_steps: &[u64],
    cores: &[CoreEngine],
) -> TelemetrySnapshot {
    let mut snap = scheduler_counters(wake, core_steps);
    for (i, (steps, core)) in core_steps.iter().zip(cores).enumerate() {
        snap.add_counter(&format!("multicore.core{i:02}.steps"), *steps);
        snap.add_counter(
            &format!("multicore.core{i:02}.retired"),
            core.instructions(),
        );
    }
    snap
}

/// Forwards one core's backend traffic to the shared backend, recording
/// the owning core and line of each accepted read token so completions can
/// be routed back. Cores never advance the shared backend — the scheduler
/// does.
struct RoutedBackend<'a, B> {
    inner: &'a mut B,
    reads: &'a mut TokenWindow<(usize, u64)>,
    core: usize,
}

impl<B: MemoryBackend> MemoryBackend for RoutedBackend<'_, B> {
    fn submit(
        &mut self,
        kind: AccessKind,
        addr: u64,
        now: u64,
        is_prefetch: bool,
    ) -> Result<u64, Busy> {
        let token = self.inner.submit(kind, addr, now, is_prefetch)?;
        if kind == AccessKind::Read {
            self.reads.insert(token, (self.core, addr));
        }
        Ok(token)
    }

    fn submit_batch(
        &mut self,
        batch: &[BatchAccess],
        now: u64,
        results: &mut Vec<Result<u64, Busy>>,
    ) {
        let start = results.len();
        self.inner.submit_batch(batch, now, results);
        for (access, result) in batch.iter().zip(&results[start..]) {
            if access.kind == AccessKind::Read {
                if let Ok(token) = result {
                    self.reads.insert(*token, (self.core, access.addr));
                }
            }
        }
    }

    fn advance_to(&mut self, _target: u64, _completions: &mut Vec<(u64, u64)>) {
        unreachable!("cores never advance the shared backend; the scheduler does")
    }
}

/// Per-core and aggregate results of one [`MultiCoreSystem::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiCoreResult {
    /// One [`SimResult`] per core, in core-index order. A core's
    /// `cycles` is the cycle it drained (finished its trace, ROB, and
    /// outstanding misses).
    pub per_core: Vec<SimResult>,
}

impl MultiCoreResult {
    /// All cores folded into one [`SimResult`] via [`SimResult::merge`]:
    /// counters sum, cache statistics merge, `cycles` is the slowest
    /// core's finish cycle.
    ///
    /// # Panics
    ///
    /// Panics when there are no cores (a [`MultiCoreSystem`] always has
    /// at least one).
    #[must_use]
    pub fn merged(&self) -> SimResult {
        let (first, rest) = self.per_core.split_first().expect("at least one core ran");
        let mut merged = first.clone();
        for r in rest {
            merged.merge(r);
        }
        merged
    }

    /// Aggregate IPC: the sum of per-core IPCs (the rate-mode throughput
    /// metric — N cores each at the single-core IPC score N× the
    /// aggregate).
    #[must_use]
    pub fn aggregate_ipc(&self) -> f64 {
        self.per_core.iter().map(SimResult::ipc).sum()
    }

    /// Weighted speedup against per-core stand-alone baselines:
    /// `Σ_i IPC_i^shared / IPC_i^alone`. Equals the core count when
    /// sharing costs nothing; lower values quantify LLC and memory
    /// contention.
    ///
    /// # Panics
    ///
    /// Panics when `alone_ipc` does not have one (positive) entry per
    /// core.
    #[must_use]
    pub fn weighted_speedup(&self, alone_ipc: &[f64]) -> f64 {
        assert_eq!(
            alone_ipc.len(),
            self.per_core.len(),
            "one stand-alone IPC per core"
        );
        self.per_core
            .iter()
            .zip(alone_ipc)
            .map(|(r, &alone)| {
                assert!(alone > 0.0, "stand-alone IPC must be positive");
                r.ipc() / alone
            })
            .sum()
    }
}

/// N OOO cores over one shared LLC and one shared [`MemoryBackend`],
/// interleaved by next-event time.
#[derive(Debug)]
pub struct MultiCoreSystem<B> {
    cfg: CpuConfig,
    backend: B,
    llc: Cache,
    cores: Vec<CoreEngine>,
    clock: SimClock,
    /// Read token → `(owning core, line)` for completion routing.
    reads: TokenWindow<(usize, u64)>,
    /// Times each core was actually stepped (the event-driven scheduler's
    /// efficiency measure: spurious wake-ups step a core to no effect, so
    /// fewer steps at identical results is the win).
    core_steps: Vec<u64>,
    /// Wake-reason attribution for the event-driven scheduler (all zero
    /// under the per-cycle reference, which never sleeps a core).
    wake: WakeReasons,
    /// Opt-in sim-time windowed series of [`series_counters`]. Both run
    /// loops roll it right after `clock.tick()`, before any wake is
    /// attributed or any core steps, so every increment lands in the
    /// epoch of its own cycle; `None` costs one branch per cycle.
    series: Option<CounterSeries>,
}

impl<B: MemoryBackend> MultiCoreSystem<B> {
    /// Builds `cores` identical cores (Table I parameters from `cfg`)
    /// over one Table I shared LLC and `backend`.
    ///
    /// # Panics
    ///
    /// Panics when `cores` is zero.
    pub fn new(cores: usize, cfg: CpuConfig, backend: B) -> Self {
        assert!(cores >= 1, "at least one core is required");
        Self {
            backend,
            llc: Cache::new(CacheConfig::llc()),
            cores: (0..cores).map(|_| CoreEngine::new(cfg)).collect(),
            clock: SimClock::new(),
            reads: TokenWindow::default(),
            core_steps: vec![0; cores],
            wake: WakeReasons::default(),
            series: None,
            cfg,
        }
    }

    /// Enables sim-time windowed series recording at `epoch_width` CPU
    /// cycles per epoch, re-based on the current cumulative counters.
    /// Purely additive: results stay bit-identical (pinned by
    /// `tests/series_differential.rs`). Note this covers the scheduler
    /// layer only — enable the backend's own series separately and
    /// [`secddr_telemetry::SeriesSnapshot::merge`] the two.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_width` is zero.
    pub fn enable_series(&mut self, epoch_width: u64) {
        self.series = Some(CounterSeries::new(
            epoch_width,
            self.clock.now(),
            series_counters(&self.wake, &self.core_steps, &self.cores),
        ));
    }

    /// The recorded series with the open partial epoch folded in, or
    /// `None` when [`Self::enable_series`] was never called.
    #[must_use]
    pub fn series_snapshot(&self) -> Option<SeriesSnapshot> {
        let series = self.series.as_ref()?;
        Some(series.snapshot(&series_counters(&self.wake, &self.core_steps, &self.cores)))
    }

    /// How many cycles each core was actually stepped. Under the
    /// event-driven policy a sleeping core skips its due-nothing cycles,
    /// so this counts real work plus any spurious wake-ups — the
    /// quantity the next-event scheduler minimizes.
    #[must_use]
    pub fn core_step_counts(&self) -> &[u64] {
        &self.core_steps
    }

    /// Wake-reason attribution accumulated by the event-driven scheduler
    /// (every wake lands in exactly one bucket; all zero under
    /// [`sim_kernel::Advance::PerCycle`], which never sleeps a core).
    #[must_use]
    pub fn wake_reasons(&self) -> WakeReasons {
        self.wake
    }

    /// Renders this system's scheduler diagnostics — wake-reason buckets
    /// plus the per-core step totals — into one mergeable
    /// [`TelemetrySnapshot`] under the `multicore.*` names.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        scheduler_counters(&self.wake, &self.core_steps)
    }

    /// Number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Read access to the shared backend (for engine statistics).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the shared backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The shared LLC's own statistics (the per-core shares in
    /// [`MultiCoreResult::per_core`] sum to exactly these totals).
    #[must_use]
    pub fn llc_stats(&self) -> &CacheStats {
        self.llc.stats()
    }

    /// Runs one trace per core to completion (all cores drained) and
    /// returns per-core plus aggregate results.
    ///
    /// Calling `run` again continues cumulatively: the clock keeps
    /// advancing, the shared LLC and per-core caches stay warm, and
    /// counters accumulate across runs.
    ///
    /// # Panics
    ///
    /// Panics when `traces` does not hold exactly one trace per core.
    pub fn run<T: Iterator<Item = TraceOp>>(&mut self, mut traces: Vec<T>) -> MultiCoreResult {
        let n = self.cores.len();
        assert_eq!(traces.len(), n, "exactly one trace per core");
        for core in &mut self.cores {
            core.begin_trace();
        }
        if self.cfg.advance.is_event_driven() {
            self.run_event_driven(&mut traces);
        } else {
            self.run_per_cycle(&mut traces);
        }
        MultiCoreResult {
            per_core: self.cores.iter().map(CoreEngine::result).collect(),
        }
    }

    /// The per-cycle reference: every cycle the backend advances by one
    /// cycle and every unfinished core steps, in core-index order. This
    /// is the semantics the event-driven scheduler must reproduce bit for
    /// bit.
    fn run_per_cycle<T: Iterator<Item = TraceOp>>(&mut self, traces: &mut [T]) {
        let n = self.cores.len();
        let Self {
            backend,
            llc,
            cores,
            clock,
            reads,
            core_steps,
            wake,
            series,
            ..
        } = self;
        let mut routed: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut stamps: Vec<(u64, u64)> = Vec::new();
        loop {
            let now = clock.tick();
            if let Some(series) = series.as_mut() {
                series.roll(now, || series_counters(wake, core_steps, cores));
            }
            for v in &mut routed {
                v.clear();
            }
            stamps.clear();
            backend.advance_to(now, &mut stamps);
            for &(_, token) in &stamps {
                if let Some((core, line)) = reads.take(token) {
                    routed[core].push(line);
                }
            }
            let mut all_finished = true;
            for i in 0..n {
                if cores[i].finished() {
                    continue;
                }
                core_steps[i] += 1;
                let mut port = RoutedBackend {
                    inner: &mut *backend,
                    reads: &mut *reads,
                    core: i,
                };
                let outcome = cores[i].step(now, llc, &mut port, &mut traces[i], &routed[i]);
                if !outcome.finished {
                    all_finished = false;
                }
            }
            if all_finished {
                break;
            }
        }
    }

    /// The next-event scheduler (see the module docs for the invariant
    /// arguments): awake-list iteration, block-advanced backend, global
    /// jumps keyed off the merged event heap.
    fn run_event_driven<T: Iterator<Item = TraceOp>>(&mut self, traces: &mut [T]) {
        let n = self.cores.len();
        let Self {
            backend,
            llc,
            cores,
            clock,
            reads,
            core_steps,
            wake,
            series,
            ..
        } = self;

        // Awake, unfinished cores in ascending index order (cores share
        // the LLC and backend, so step order is part of the semantics).
        let mut awake_list: Vec<usize> = (0..n).collect();
        let mut awake = vec![true; n];
        // Registered wake-up per sleeping core (`u64::MAX` = none: only a
        // routed completion wakes it); heap entries not matching are
        // stale and filtered lazily.
        let mut bounds = vec![u64::MAX; n];
        let mut heap: EventQueue<usize> = EventQueue::new();
        // Sleepers whose bound came from shared backend capacity — the
        // only ones refreshed after a submission cycle.
        let mut capacity_sleeper = vec![false; n];
        let mut capacity_sleepers: Vec<usize> = Vec::new();
        // Provenance of each registered bound: `true` when the current
        // bound was installed by the post-submission re-derive rather
        // than the core's own sleep plan (wake-reason attribution only).
        let mut rederived = vec![false; n];
        let mut routed: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut routed_cores: Vec<usize> = Vec::new();
        let mut stamps: Vec<(u64, u64)> = Vec::new();
        let mut finished = 0usize;
        // Memoized lower bound on the backend's next visible completion:
        // the only cycles the backend is touched at all. Refreshed after
        // every harvest and every cycle with an accepted submission (the
        // two ways backend state changes).
        let mut backend_bound = backend
            .next_completion_event(clock.now())
            .unwrap_or(u64::MAX);

        loop {
            if awake_list.is_empty() {
                // Nothing can step or submit until a registered core
                // wake-up or a backend completion: jump to the earliest.
                let wake = earliest_wake(&mut heap, &bounds)
                    .unwrap_or(u64::MAX)
                    .min(backend_bound);
                assert_ne!(
                    wake,
                    u64::MAX,
                    "scheduler deadlock: every core asleep with no pending event"
                );
                if wake > clock.now() + 1 {
                    clock.skip_to(wake - 1);
                }
            }
            let now = clock.tick();
            if let Some(series) = series.as_mut() {
                series.roll(now, || series_counters(wake, core_steps, cores));
            }

            // Clear last cycle's delivery buffers (touched cores only).
            for &i in &routed_cores {
                routed[i].clear();
            }
            routed_cores.clear();

            // Harvest the backend only when its bound is due; completions
            // force-wake their owners (their state changes, so any
            // registered bound is moot).
            if backend_bound <= now {
                stamps.clear();
                backend.advance_to(now, &mut stamps);
                backend_bound = backend.next_completion_event(now).unwrap_or(u64::MAX);
                for &(at, token) in &stamps {
                    debug_assert_eq!(at, now, "completion matured inside a skipped window");
                    let Some((core, line)) = reads.take(token) else {
                        continue;
                    };
                    if cores[core].finished() {
                        continue;
                    }
                    if routed[core].is_empty() {
                        routed_cores.push(core);
                    }
                    routed[core].push(line);
                    if !awake[core] {
                        wake.completion += 1;
                        awake[core] = true;
                        insert_sorted(&mut awake_list, core);
                        bounds[core] = u64::MAX;
                        if capacity_sleeper[core] {
                            capacity_sleeper[core] = false;
                            remove_unordered(&mut capacity_sleepers, core);
                        }
                    }
                }
            }

            // Wake sleeping cores whose registered bound is due.
            while let Some((at, i)) = heap.pop_due(now) {
                if bounds[i] != at {
                    continue; // stale entry superseded by an earlier bound
                }
                bounds[i] = u64::MAX;
                debug_assert!(!awake[i] && !cores[i].finished());
                if rederived[i] {
                    wake.submit_rederive += 1;
                } else if capacity_sleeper[i] {
                    wake.spurious += 1;
                } else {
                    wake.timer += 1;
                }
                awake[i] = true;
                insert_sorted(&mut awake_list, i);
                if capacity_sleeper[i] {
                    capacity_sleeper[i] = false;
                    remove_unordered(&mut capacity_sleepers, i);
                }
            }

            // Step the awake cores, in index order, compacting the list
            // in place as cores finish or go to sleep.
            let mut any_submitted = false;
            let mut idx = 0;
            while idx < awake_list.len() {
                let i = awake_list[idx];
                core_steps[i] += 1;
                let outcome = {
                    let mut port = RoutedBackend {
                        inner: &mut *backend,
                        reads: &mut *reads,
                        core: i,
                    };
                    cores[i].step(now, llc, &mut port, &mut traces[i], &routed[i])
                };
                any_submitted |= outcome.submitted;
                if outcome.finished {
                    awake[i] = false;
                    awake_list.remove(idx);
                    finished += 1;
                    continue;
                }
                match cores[i].sleep_plan(now, &*backend) {
                    SleepPlan::Run => idx += 1,
                    SleepPlan::Sleep { wake_at, capacity } => {
                        awake[i] = false;
                        awake_list.remove(idx);
                        bounds[i] = wake_at.unwrap_or(u64::MAX);
                        rederived[i] = false;
                        if let Some(at) = wake_at {
                            heap.push(at, i);
                        }
                        if capacity {
                            capacity_sleeper[i] = true;
                            capacity_sleepers.push(i);
                        }
                    }
                }
            }
            if finished == n {
                break;
            }

            // An accepted submission mutated the backend: completions may
            // now land earlier and shared queue-space bounds may have
            // moved, so re-derive the backend bound and just the capacity
            // sleepers' bounds (exact sleepers are unaffected by other
            // cores' traffic), keeping the earlier of old and new.
            if any_submitted {
                backend_bound = backend.next_completion_event(now).unwrap_or(u64::MAX);
                for &i in &capacity_sleepers {
                    let refreshed = cores[i].wake_bound(now, &*backend).unwrap_or(now + 1);
                    if refreshed < bounds[i] {
                        bounds[i] = refreshed;
                        rederived[i] = true;
                        heap.push(refreshed, i);
                    }
                }
            }
        }

        // Leave the backend synced to the finish cycle so statistics
        // reflect the whole run — the per-cycle reference ticks it every
        // cycle through the last. Any stragglers (in-flight prefetches)
        // are dropped, as the reference drops them for finished cores.
        stamps.clear();
        backend.advance_to(clock.now(), &mut stamps);
    }
}

/// Inserts `i` into the sorted awake-list (N ≤ a few dozen, so a binary
/// search plus shift beats any fancier structure).
fn insert_sorted(list: &mut Vec<usize>, i: usize) {
    match list.binary_search(&i) {
        Ok(_) => debug_assert!(false, "core {i} woken twice"),
        Err(pos) => list.insert(pos, i),
    }
}

/// Removes `i` from an unordered membership list.
fn remove_unordered(list: &mut Vec<usize>, i: usize) {
    let pos = list.iter().position(|&x| x == i).expect("member present");
    list.swap_remove(pos);
}

/// The earliest registered wake-up among sleeping cores, popping stale
/// heap entries (superseded by an earlier refresh, or their core woke
/// since) on the way. The head entry is only inspected, never cycled
/// through a pop-and-repush.
fn earliest_wake(heap: &mut EventQueue<usize>, bounds: &[u64]) -> Option<u64> {
    loop {
        let (at, i) = {
            let (at, &i) = heap.peek()?;
            (at, i)
        };
        if bounds[i] == at {
            return Some(at);
        }
        heap.pop_due(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FixedLatencyBackend;
    use crate::CpuSystem;
    use sim_kernel::Advance;

    fn mixed_trace(seed: u64, len: u64) -> Vec<TraceOp> {
        (0..len)
            .map(|i| {
                let x = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
                match x % 5 {
                    0 => TraceOp::Compute((x % 40) as u32 + 1),
                    1 => TraceOp::Load((x << 3) & 0xFFF_FFC0),
                    2 => TraceOp::DependentLoad((x << 4) & 0xFFF_FFC0),
                    3 => TraceOp::Store((x << 3) & 0xFFF_FFC0),
                    _ => TraceOp::Load((x % 2048) * 64),
                }
            })
            .collect()
    }

    fn cfg(advance: Advance) -> CpuConfig {
        CpuConfig {
            advance,
            ..CpuConfig::default()
        }
    }

    /// A fixed-latency backend that refuses accesses with [`Busy`] while
    /// `cap` accesses (reads and writes) are in flight, so cores take
    /// capacity sleeps. Its `next_event` is the earliest finish: the
    /// cycle a slot frees. Whether a submit is accepted depends only on
    /// `now`, not on how recently the backend was advanced.
    struct CappedBackend {
        latency: u64,
        cap: usize,
        next_token: u64,
        /// `(finish, token, is_read)`, ascending by finish (the latency
        /// is fixed and submissions arrive in cycle order).
        in_flight: std::collections::VecDeque<(u64, u64, bool)>,
    }

    impl CappedBackend {
        fn new(latency: u64, cap: usize) -> Self {
            Self {
                latency,
                cap,
                next_token: 0,
                in_flight: std::collections::VecDeque::new(),
            }
        }
    }

    impl MemoryBackend for CappedBackend {
        fn submit(
            &mut self,
            kind: AccessKind,
            _addr: u64,
            now: u64,
            _is_prefetch: bool,
        ) -> Result<u64, Busy> {
            let busy = self.in_flight.iter().filter(|&&(at, ..)| at > now).count();
            if busy >= self.cap {
                return Err(Busy);
            }
            let token = self.next_token;
            self.next_token += 1;
            let is_read = kind == AccessKind::Read;
            self.in_flight
                .push_back((now + self.latency, token, is_read));
            Ok(token)
        }

        fn advance_to(&mut self, target: u64, completions: &mut Vec<(u64, u64)>) {
            while let Some(&(at, token, is_read)) = self.in_flight.front() {
                if at > target {
                    break;
                }
                self.in_flight.pop_front();
                if is_read {
                    completions.push((at, token));
                }
            }
        }

        fn next_event(&self, _now: u64) -> Option<u64> {
            self.in_flight.front().map(|&(at, ..)| at)
        }
    }

    #[test]
    fn single_core_event_driven_matches_per_cycle() {
        let trace = mixed_trace(0xA5, 3_000);
        let run = |advance| {
            let mut sys = MultiCoreSystem::new(1, cfg(advance), FixedLatencyBackend::new(180));
            sys.run(vec![trace.iter().copied()])
        };
        let fast = run(Advance::ToNextEvent);
        assert_eq!(fast.per_core.len(), 1);
        assert_eq!(fast.merged(), fast.per_core[0]);
        assert_eq!(fast, run(Advance::PerCycle));
    }

    #[test]
    fn event_driven_matches_per_cycle() {
        let traces: Vec<Vec<TraceOp>> = (0..3).map(|c| mixed_trace(c * 7 + 1, 2_000)).collect();
        let run = |advance| {
            let mut sys = MultiCoreSystem::new(3, cfg(advance), FixedLatencyBackend::new(250));
            sys.run(traces.iter().map(|t| t.iter().copied()).collect())
        };
        assert_eq!(run(Advance::ToNextEvent), run(Advance::PerCycle));
    }

    #[test]
    fn busy_backpressure_event_driven_matches_per_cycle() {
        for cores in [1, 3] {
            let traces: Vec<Vec<TraceOp>> =
                (0..cores).map(|c| mixed_trace(c * 7 + 3, 2_000)).collect();
            let run = |advance| {
                let mut sys =
                    MultiCoreSystem::new(cores as usize, cfg(advance), CappedBackend::new(200, 6));
                let result = sys.run(traces.iter().map(|t| t.iter().copied()).collect());
                (result, sys.wake_reasons())
            };
            let (fast, wake) = run(Advance::ToNextEvent);
            let (reference, _) = run(Advance::PerCycle);
            assert_eq!(
                fast, reference,
                "{cores} cores: capacity sleeps must not change results"
            );
            assert!(
                wake.spurious + wake.submit_rederive > 0,
                "{cores} cores: some core slept on backend capacity: {wake:?}"
            );
        }
    }

    #[test]
    fn per_core_llc_shares_sum_to_shared_totals() {
        let traces: Vec<Vec<TraceOp>> = (0..4).map(|c| mixed_trace(c * 5 + 11, 3_000)).collect();
        let mut sys =
            MultiCoreSystem::new(4, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(150));
        let result = sys.run(traces.iter().map(|t| t.iter().copied()).collect());
        let merged = result.merged();
        assert_eq!(&merged.llc, sys.llc_stats());
        assert!(merged.llc.misses > 0);
    }

    #[test]
    fn compute_only_cores_do_not_interfere() {
        // No memory traffic: each core's run is as long as it would be
        // alone, and the scheduler still terminates via the global jump.
        let trace: Vec<TraceOp> = (0..200).map(|_| TraceOp::Compute(60)).collect();
        let alone = CpuSystem::new(cfg(Advance::ToNextEvent), FixedLatencyBackend::new(100))
            .run(trace.iter().copied());
        let mut sys =
            MultiCoreSystem::new(4, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(100));
        let result = sys.run((0..4).map(|_| trace.iter().copied()).collect());
        for r in &result.per_core {
            assert_eq!(r.cycles, alone.cycles);
            assert_eq!(r.instructions, alone.instructions);
        }
    }

    #[test]
    fn metric_accessors() {
        let result = MultiCoreResult {
            per_core: vec![
                SimResult {
                    instructions: 100,
                    cycles: 100,
                    l1: CacheStats::default(),
                    llc: CacheStats::default(),
                    prefetches: 0,
                },
                SimResult {
                    instructions: 300,
                    cycles: 100,
                    l1: CacheStats::default(),
                    llc: CacheStats::default(),
                    prefetches: 0,
                },
            ],
        };
        assert!((result.aggregate_ipc() - 4.0).abs() < 1e-12);
        // Cores alone ran at IPC 2 and 4: weighted speedup 0.5 + 0.75.
        assert!((result.weighted_speedup(&[2.0, 4.0]) - 1.25).abs() < 1e-12);
        assert!((result.merged().ipc() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn second_run_continues_cumulatively() {
        let traces = [mixed_trace(9, 800), mixed_trace(10, 800)];
        let run = |sys: &mut MultiCoreSystem<FixedLatencyBackend>| {
            sys.run(traces.iter().map(|t| t.iter().copied()).collect())
        };
        let mut sys =
            MultiCoreSystem::new(2, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(150));
        let r1 = run(&mut sys);
        let r2 = run(&mut sys);
        for ((a, b), trace) in r1.per_core.iter().zip(&r2.per_core).zip(&traces) {
            let per_copy: u64 = trace.iter().map(TraceOp::instructions).sum();
            assert_eq!(a.instructions, per_copy);
            assert_eq!(b.instructions, 2 * per_copy, "counters accumulate");
            assert!(b.cycles > a.cycles, "clock keeps advancing");
        }
    }

    #[test]
    fn sleeping_core_ignores_other_cores_completions() {
        // Core 0 streams memory misses (completions land nearly every
        // cycle once its pipeline fills); core 1 walks a serialized
        // pointer chase, sleeping ~latency cycles per link. Its waits
        // are exact (routed completions plus retire), so core 0's
        // completion stream never punctures them — its steps stay
        // proportional to its own chain, not to core 0's traffic.
        let heavy: Vec<TraceOp> = (0..2_000).map(|i| TraceOp::Load(i * 64 * 7)).collect();
        let chase: Vec<TraceOp> = (0..30)
            .map(|i| TraceOp::DependentLoad(0x900_0000 + i * 64 * 129))
            .collect();
        let run = |advance| {
            let mut sys = MultiCoreSystem::new(2, cfg(advance), FixedLatencyBackend::new(300));
            let result = sys.run(vec![heavy.iter().copied(), chase.iter().copied()]);
            (result, sys.core_step_counts().to_vec())
        };
        let (fast, fast_steps) = run(Advance::ToNextEvent);
        let (reference, ref_steps) = run(Advance::PerCycle);
        assert_eq!(fast, reference, "exact sleeps must not change results");
        assert!(
            fast_steps[1] * 10 < ref_steps[1],
            "chasing core barely steps under exact waits: {fast_steps:?} vs {ref_steps:?}"
        );
    }

    #[test]
    fn finished_cores_leave_the_awake_list() {
        // A short trace finishes early; the awake-list must stop
        // stepping that core while the long trace keeps running.
        let long = mixed_trace(5, 3_000);
        let short: Vec<TraceOp> = vec![TraceOp::Compute(10)];
        let mut sys =
            MultiCoreSystem::new(2, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(200));
        let result = sys.run(vec![long.iter().copied(), short.iter().copied()]);
        let steps = sys.core_step_counts();
        assert_eq!(result.per_core[1].instructions, 10);
        assert!(
            steps[1] * 50 < steps[0],
            "finished core must cost nothing: {steps:?}"
        );
    }

    #[test]
    fn wake_reasons_partition_event_driven_wakes() {
        let traces: Vec<Vec<TraceOp>> = (0..3).map(|c| mixed_trace(c * 11 + 2, 2_000)).collect();
        let run = |advance| {
            let mut sys = MultiCoreSystem::new(3, cfg(advance), FixedLatencyBackend::new(250));
            let result = sys.run(traces.iter().map(|t| t.iter().copied()).collect());
            (result, sys.wake_reasons(), sys.telemetry_snapshot())
        };
        let (fast, fast_wake, fast_snap) = run(Advance::ToNextEvent);
        let (reference, ref_wake, _) = run(Advance::PerCycle);
        assert_eq!(fast, reference, "attribution must not perturb results");
        assert_eq!(ref_wake, WakeReasons::default(), "per-cycle never sleeps");
        assert!(fast_wake.total() > 0, "memory-bound cores sleep and wake");
        assert!(fast_wake.completion > 0, "completions force-wake owners");
        assert_eq!(
            fast_snap.counter_prefix_sum("multicore.wake."),
            fast_snap.counter("multicore.wakes_total"),
            "buckets partition the wakes"
        );
        assert!(fast_snap.counter("multicore.core.steps") > 0);
    }

    #[test]
    fn series_reconciles_and_does_not_perturb() {
        let traces: Vec<Vec<TraceOp>> = (0..3).map(|c| mixed_trace(c * 13 + 5, 2_000)).collect();
        for advance in [Advance::ToNextEvent, Advance::PerCycle] {
            let run = |record: bool| {
                let mut sys = MultiCoreSystem::new(3, cfg(advance), FixedLatencyBackend::new(250));
                if record {
                    sys.enable_series(512);
                }
                let result = sys.run(traces.iter().map(|t| t.iter().copied()).collect());
                (result, sys.series_snapshot(), sys.telemetry_snapshot())
            };
            let (plain, no_series, _) = run(false);
            let (recorded, series, snap) = run(true);
            assert!(no_series.is_none(), "series is strictly opt-in");
            assert_eq!(plain, recorded, "{advance:?}: recording must not perturb");
            let series = series.expect("recording was enabled");
            assert!(
                series.reconciles_with(&snap),
                "{advance:?}: epoch sums must equal the aggregate snapshot"
            );
            // Per-core retired rows (no aggregate counterpart) must sum
            // to the merged instruction count.
            let retired: u64 = (0..3)
                .map(|i| series.row_total(&format!("multicore.core{i:02}.retired")))
                .sum();
            assert_eq!(retired, recorded.merged().instructions);
            if advance.is_event_driven() {
                assert!(series.row_total("multicore.wakes_total") > 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exactly one trace per core")]
    fn trace_count_must_match_core_count() {
        let mut sys =
            MultiCoreSystem::new(2, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(10));
        let _ = sys.run(vec![std::iter::empty::<TraceOp>()]);
    }

    #[test]
    fn token_table_spans_the_reads_in_flight_not_the_run() {
        for advance in [Advance::PerCycle, Advance::ToNextEvent] {
            let mut sys = MultiCoreSystem::new(2, cfg(advance), FixedLatencyBackend::new(300));
            // Measured between cumulative runs, when every read is
            // delivered: a table sized by the largest token never shrinks.
            let mut largest = 0;
            for round in 0..4 {
                let traces: Vec<Vec<TraceOp>> =
                    (0..2).map(|c| mixed_trace(round * 2 + c, 40_000)).collect();
                sys.run(traces.iter().map(|t| t.iter().copied()).collect());
                largest = largest.max(sys.reads.span());
            }
            // The next token a backend hands out is the count issued so far.
            let issued = sys
                .backend_mut()
                .submit(AccessKind::Write, 0, u64::MAX / 2, false)
                .expect("the fixed-latency backend never refuses");
            assert!(issued > 40_000, "{advance:?}: a long run ({issued} tokens)");
            assert!(
                largest < 256,
                "{advance:?}: the table holds {largest} slots after {issued} tokens"
            );
        }
    }
}
