//! The reusable per-core step state machine.
//!
//! [`CoreEngine`] is one ROB-limited OOO core with its private L1D and
//! stream prefetcher, advanced one cycle at a time against a *borrowed*
//! shared LLC and a *borrowed* [`MemoryBackend`]. Everything that is
//! per-core run state (trace exhaustion, the stalled op, the idle-skip
//! heuristics) lives inside the engine, so its caller — the scheduler in
//! [`crate::sched`], the workspace's one core run loop — owns only the
//! clock, the LLC, and the backend, and interleaves N engines by
//! next-event time ([`crate::system::CpuSystem`] is the `N = 1` case).
//!
//! The event-driven contract: [`CoreEngine::wake_bound`] is a lower
//! bound on the next cycle at which this core's per-cycle step could do
//! any work, and [`CoreEngine::sleep_plan`] — the only idle-skip policy —
//! turns it into a sleep the scheduler may honour (skipping the core, or
//! the whole simulation, up to that cycle) while staying bit-identical
//! to lock-step semantics.

use std::collections::VecDeque;

use sim_kernel::FxHashMap;

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::core::{CpuConfig, Rob};
use crate::prefetcher::StreamPrefetcher;
use crate::system::{AccessKind, BatchAccess, Busy, MemoryBackend, SimResult};
use crate::trace::TraceOp;

/// A computed wake-up must skip at least this many cycles to count as
/// paying for its own bound computation (drives the backoff heuristic).
const MIN_SKIP_YIELD: u64 = 16;

/// Number of consecutive idle cycles before a capacity-bound sleep starts
/// probing skip bounds: short bubbles are cheaper to simulate than to
/// analyze.
const MIN_IDLE_STREAK: u32 = 16;

#[derive(Debug)]
struct Outstanding {
    waiters: Vec<u64>, // ROB sequence numbers
    fill_write: bool,  // install dirty (RFO)
    prefetch: bool,
}

/// What one [`CoreEngine::step`] did, for the scheduler above it.
///
/// (Whether the step *progressed* stays internal: it only feeds the
/// core's own idle-streak gating, which [`CoreEngine::sleep_plan`]
/// already encapsulates for the scheduler.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The step submitted at least one *accepted* access to the backend.
    /// The scheduler must refresh other sleeping cores' wake bounds
    /// after such a cycle: their bounds were computed against the
    /// pre-submission backend state.
    pub submitted: bool,
    /// The core drained everything: trace exhausted, ROB empty, no
    /// outstanding misses, no pending writebacks. It needs no further
    /// steps.
    pub finished: bool,
}

/// How the next-event scheduler should treat a core after a step, from
/// [`CoreEngine::sleep_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepPlan {
    /// The next per-cycle step might do work: keep stepping.
    Run,
    /// Nothing this core's per-cycle step does before `wake_at` can have
    /// any effect, except that one of its own routed completions
    /// arriving earlier must wake it immediately.
    Sleep {
        /// Self-scheduled wake-up cycle. `None` means the core has no
        /// self-scheduled event at all — only a routed completion can
        /// make its step do work (e.g. a pointer chase whose ROB head is
        /// the waiting load).
        wake_at: Option<u64>,
        /// The bound is derived from shared backend *capacity* state
        /// (blocked writebacks or a Busy-stalled op). Capacity is shared
        /// between cores, so after any other core's accepted submission
        /// the scheduler must re-derive this bound (keeping the
        /// earlier); non-capacity sleeps are exact and never need
        /// refreshing.
        capacity: bool,
    },
}

/// One ROB-limited OOO core with private L1D and stream prefetcher,
/// steppable against a borrowed shared LLC and memory backend.
#[derive(Debug)]
pub struct CoreEngine {
    cfg: CpuConfig,
    l1: Cache,
    prefetcher: StreamPrefetcher,
    rob: Rob,
    instructions: u64,
    /// line address -> outstanding miss state
    outstanding: FxHashMap<u64, Outstanding>,
    /// backend token -> line address
    token_line: FxHashMap<u64, u64>,
    /// Writebacks the backend refused; retried each cycle.
    pending_writebacks: VecDeque<u64>,
    /// A dispatch-blocked memory op waiting for backend space.
    stalled_op: Option<TraceOp>,
    /// Line of the most recent dependent load still in flight (serializes
    /// pointer-chase chains).
    chase_outstanding: Option<u64>,
    /// Exponential backoff for skip attempts in event-dense phases where
    /// the bounds keep yielding tiny skips (heuristic only — never
    /// affects simulated results, just when bounds are computed).
    skip_backoff: u32,
    /// Remaining idle cycles to run per-cycle before probing again.
    skip_cooldown: u32,
    /// Consecutive do-nothing cycles so far (gates bound probing).
    idle_streak: u32,
    /// The trace iterator ran dry.
    trace_done: bool,
    /// Cycle at which the finish condition first held.
    finished_at: Option<u64>,
    /// This core's share of the (possibly shared) LLC statistics,
    /// accumulated as per-step deltas — per-core shares always sum to the
    /// LLC's own totals because every LLC access happens inside a step.
    llc_stats: CacheStats,
    /// Whether the current step accepted a backend submission.
    step_submitted: bool,
    /// Scratch buffers for [`MemoryBackend::submit_batch`] calls (reused
    /// to keep the batched paths allocation-free).
    batch_buf: Vec<BatchAccess>,
    batch_results: Vec<Result<u64, Busy>>,
}

impl CoreEngine {
    /// Builds a core with Table I core parameters and L1D geometry.
    #[must_use]
    pub fn new(cfg: CpuConfig) -> Self {
        Self {
            l1: Cache::new(CacheConfig::l1d()),
            prefetcher: StreamPrefetcher::new(cfg.line_bytes),
            rob: Rob::new(cfg.rob_entries),
            instructions: 0,
            outstanding: FxHashMap::default(),
            token_line: FxHashMap::default(),
            pending_writebacks: VecDeque::new(),
            stalled_op: None,
            chase_outstanding: None,
            skip_backoff: 0,
            skip_cooldown: 0,
            idle_streak: 0,
            trace_done: false,
            finished_at: None,
            llc_stats: CacheStats::default(),
            step_submitted: false,
            batch_buf: Vec::new(),
            batch_results: Vec::new(),
            cfg,
        }
    }

    /// The configuration the core was built with.
    #[must_use]
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// True once the core has drained everything (same condition
    /// [`StepOutcome::finished`] reported).
    #[must_use]
    pub fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Re-arms the core for another trace: clears trace exhaustion, the
    /// recorded finish cycle, and the idle streak — the per-run state. A
    /// subsequent run then continues *cumulatively* (warm caches,
    /// continuing clock, accumulating statistics); without this re-arm a
    /// drained core treats any further trace as already finished.
    pub fn begin_trace(&mut self) {
        self.trace_done = false;
        self.finished_at = None;
        self.idle_streak = 0;
    }

    /// The core's results so far. `cycles` is the cycle the finish
    /// condition first held, or zero while the core is still running.
    #[must_use]
    pub fn result(&self) -> SimResult {
        SimResult {
            instructions: self.instructions,
            cycles: self.finished_at.unwrap_or(0),
            l1: *self.l1.stats(),
            llc: self.llc_stats,
            prefetches: self.prefetcher.issued(),
        }
    }

    /// Runs one cycle of the per-cycle reference semantics at `now`:
    /// handle the routed `completions`, retry refused writebacks, retire,
    /// dispatch, and re-evaluate the finish condition.
    ///
    /// `completions` must be exactly the backend read tokens belonging to
    /// this core that completed at `now` (the caller ticks the shared
    /// backend once per cycle and routes tokens to their owning cores).
    pub fn step<B: MemoryBackend, T: Iterator<Item = TraceOp>>(
        &mut self,
        now: u64,
        llc: &mut Cache,
        backend: &mut B,
        trace: &mut T,
        completions: &[u64],
    ) -> StepOutcome {
        let llc_before = *llc.stats();
        self.step_submitted = false;
        let mut progressed = false;

        // 1. Memory completions.
        for &token in completions {
            self.handle_completion(token, llc, backend, now);
            progressed = true;
        }

        // 2. Retry refused writebacks — as one batch (the backend's
        // per-call backpressure bookkeeping amortizes, and a rejected
        // write leaves backend state unchanged, so attempting the
        // whole set is identical to stopping at the first Busy).
        if !self.pending_writebacks.is_empty() {
            if self.cfg.batch_submit {
                self.batch_buf.clear();
                self.batch_buf
                    .extend(self.pending_writebacks.iter().map(|&addr| BatchAccess {
                        kind: AccessKind::Write,
                        addr,
                        is_prefetch: false,
                    }));
                self.batch_results.clear();
                backend.submit_batch(&self.batch_buf, now, &mut self.batch_results);
                let mut kept = 0;
                for (i, result) in self.batch_results.iter().enumerate() {
                    if result.is_ok() {
                        progressed = true;
                        self.step_submitted = true;
                    } else {
                        let addr = self.pending_writebacks[i];
                        self.pending_writebacks[kept] = addr;
                        kept += 1;
                    }
                }
                self.pending_writebacks.truncate(kept);
            } else {
                while let Some(&wb) = self.pending_writebacks.front() {
                    if backend.submit(AccessKind::Write, wb, now, false).is_ok() {
                        self.pending_writebacks.pop_front();
                        progressed = true;
                        self.step_submitted = true;
                    } else {
                        break;
                    }
                }
            }
        }

        // 3. Retire.
        let retired = self.rob.retire(self.cfg.retire_width, now);
        self.instructions += retired;
        progressed |= retired > 0;

        // 4. Dispatch.
        let mut budget = self.cfg.dispatch_width;
        while budget > 0 {
            let op = match self.stalled_op.take() {
                Some(op) => op,
                None => {
                    if self.trace_done {
                        break;
                    }
                    match trace.next() {
                        Some(op) => op,
                        None => {
                            self.trace_done = true;
                            break;
                        }
                    }
                }
            };
            match self.dispatch(op, &mut budget, llc, backend, now) {
                Ok(()) => {}
                Err(op) => {
                    self.stalled_op = Some(op);
                    break;
                }
            }
        }

        progressed |= budget < self.cfg.dispatch_width;
        self.idle_streak = if progressed { 0 } else { self.idle_streak + 1 };

        // 5. Termination.
        let finished = self.trace_done
            && self.stalled_op.is_none()
            && self.rob.is_empty()
            && self.outstanding.is_empty()
            && self.pending_writebacks.is_empty();
        if finished && self.finished_at.is_none() {
            self.finished_at = Some(now);
        }

        // Attribute this step's shared-LLC activity to this core. Misses
        // forgotten by a Busy-retry path were counted earlier in the same
        // step, so each per-step delta is non-negative.
        let llc_after = *llc.stats();
        self.llc_stats.merge(&CacheStats {
            hits: llc_after.hits - llc_before.hits,
            misses: llc_after.misses - llc_before.misses,
            writebacks: llc_after.writebacks - llc_before.writebacks,
        });

        StepOutcome {
            submitted: self.step_submitted,
            finished,
        }
    }

    /// Lower bound on the next cycle at which the per-cycle step could do
    /// any work, or `None` when it must run the very next cycle.
    ///
    /// Skipping is sound only when nothing can happen in between:
    ///
    /// * *dispatch* makes progress every cycle unless the ROB is full,
    ///   the trace is exhausted, or the front op is stalled — and every
    ///   stall reason resolves via a retirement or a backend event;
    /// * *retirement* is in order, so it cannot happen before the ROB
    ///   head's ready cycle;
    /// * *completions* and *writeback retries* (backend queue space only
    ///   frees when the backend makes progress) cannot happen before
    ///   [`MemoryBackend::next_event`].
    ///
    /// The bound is computed against the backend's *current* state; a
    /// later accepted submission (by this core or, under a shared
    /// backend, any other core) invalidates it, so the scheduler must
    /// re-derive sleeping cores' bounds after any cycle that submitted
    /// (see [`StepOutcome::submitted`]).
    #[must_use]
    pub fn wake_bound<B: MemoryBackend>(&self, now: u64, backend: &B) -> Option<u64> {
        if !self.dispatch_idle() {
            return None;
        }
        let mut bound = u64::MAX;
        if let Some(t) = self.rob.next_retire_at() {
            // Cheap early-out for one-cycle retire bubbles: the head
            // retires next cycle, so no skip is possible and the backend
            // bound (the expensive part) is not worth computing.
            if t <= now + 1 {
                return None;
            }
            bound = bound.min(t);
        }
        // Backend queue-space changes are only observable through a
        // blocked writeback or a Busy-stalled op; a pure completion wait
        // can use the (often much larger) completion bound, and a load
        // stalled on read capacity the read-issue bound.
        let busy_stalled = self.busy_stalled();
        let backend_bound = if !self.pending_writebacks.is_empty()
            || matches!(busy_stalled, Some(TraceOp::Store(_)))
        {
            // Write-queue capacity must be watched at full granularity.
            backend.next_event(now)
        } else if let Some(TraceOp::Load(addr) | TraceOp::DependentLoad(addr)) = busy_stalled {
            let line = addr & !(self.cfg.line_bytes - 1);
            backend.next_read_capacity_event(now, line)
        } else {
            backend.next_completion_event(now)
        };
        if let Some(t) = backend_bound {
            bound = bound.min(t);
        }
        if bound == u64::MAX {
            // Nothing scheduled at all: the core is about to finish.
            return None;
        }
        Some(bound.max(now + 1))
    }

    /// True when the dispatch stage cannot make progress this cycle —
    /// the precondition for any sleep.
    fn dispatch_idle(&self) -> bool {
        match &self.stalled_op {
            // A compute remainder only stalls on ROB space (a plain
            // budget cut dispatches again next cycle with fresh width).
            Some(TraceOp::Compute(_)) => self.rob.space() == 0,
            // A blocked pointer chase resumes on its completion event.
            Some(TraceOp::DependentLoad(_)) if self.chase_outstanding.is_some() => true,
            // Other memory ops stalled on ROB space (retire event) or a
            // busy backend (backend queues only drain on backend events).
            Some(_) => true,
            // A fresh op could dispatch unless the ROB is full (it would
            // merely become the stalled op, which is equivalent).
            None => self.trace_done || self.rob.space() == 0,
        }
    }

    /// The stalled op if it is waiting on backend *capacity* (Busy
    /// rejection) rather than ROB space or its own chase completion.
    fn busy_stalled(&self) -> Option<TraceOp> {
        match &self.stalled_op {
            Some(TraceOp::Compute(_)) | None => None,
            Some(TraceOp::DependentLoad(_)) if self.chase_outstanding.is_some() => None,
            Some(op) if self.rob.space() > 0 => Some(*op), // Busy, not ROB-stalled
            Some(_) => None,
        }
    }

    /// Classifies this core's wait for the next-event scheduler, right
    /// after a step at `now`.
    ///
    /// The key split is *exact* versus *capacity-bounded* waits. A core
    /// that is not blocked on backend capacity (no refused writebacks, no
    /// Busy-stalled op) can only be woken by in-order retirement — whose
    /// exact cycle [`crate::core::CpuConfig::rob_entries`]-bounded
    /// `next_retire_at` gives — or by one of its *own* read completions,
    /// which the scheduler already delivers as exact routed events. Such
    /// a sleep needs no backend probe at all, never fires spuriously, and
    /// stays valid across other cores' submissions. Capacity waits are
    /// only *bounded* by the shared backend's queue-space events, so they
    /// carry `capacity: true` (refresh-on-submit) and are gated by an
    /// idle-streak threshold plus exponential backoff in event-dense
    /// phases — the probe folds DRAM state and must pay for itself
    /// (wall-clock only, never simulated results).
    pub fn sleep_plan<B: MemoryBackend>(&mut self, now: u64, backend: &B) -> SleepPlan {
        if !self.cfg.advance.is_event_driven() || !self.dispatch_idle() {
            return SleepPlan::Run;
        }
        let retire = self.rob.next_retire_at();
        if let Some(t) = retire {
            if t <= now + 1 {
                return SleepPlan::Run;
            }
        }
        if self.pending_writebacks.is_empty() && self.busy_stalled().is_none() {
            // Exact wait: own completions (routed) plus in-order retire.
            return SleepPlan::Sleep {
                wake_at: retire,
                capacity: false,
            };
        }
        if self.idle_streak < MIN_IDLE_STREAK {
            return SleepPlan::Run;
        }
        if self.skip_cooldown > 0 {
            self.skip_cooldown -= 1;
            return SleepPlan::Run;
        }
        let Some(wake) = self.wake_bound(now, backend) else {
            return SleepPlan::Run;
        };
        let skip_yield = wake.saturating_sub(now + 1);
        if skip_yield >= MIN_SKIP_YIELD {
            self.skip_backoff = 0;
        } else {
            self.skip_backoff = (self.skip_backoff * 2 + 1).min(256);
            self.skip_cooldown = self.skip_backoff;
        }
        if wake > now + 1 {
            SleepPlan::Sleep {
                wake_at: Some(wake),
                capacity: true,
            }
        } else {
            SleepPlan::Run
        }
    }

    /// Attempts to dispatch one trace op; returns it back on stall.
    fn dispatch<B: MemoryBackend>(
        &mut self,
        op: TraceOp,
        budget: &mut u32,
        llc: &mut Cache,
        backend: &mut B,
        now: u64,
    ) -> Result<(), TraceOp> {
        match op {
            TraceOp::Compute(n) => {
                let space = self.rob.space().min(*budget as usize) as u32;
                if space == 0 {
                    return Err(op);
                }
                let take = n.min(space);
                self.rob.push_compute(take, now);
                *budget -= take;
                if take < n {
                    return Err(TraceOp::Compute(n - take));
                }
                Ok(())
            }
            TraceOp::Load(addr) | TraceOp::DependentLoad(addr) => {
                let dependent = matches!(op, TraceOp::DependentLoad(_));
                if dependent && self.chase_outstanding.is_some() {
                    // The previous pointer in the chain has not returned:
                    // the address of this load is not known yet.
                    return Err(op);
                }
                if self.rob.space() == 0 {
                    return Err(op);
                }
                let line = addr & !(self.cfg.line_bytes - 1);
                if let Some(pending) = self.outstanding.get_mut(&line) {
                    // MSHR merge into the in-flight miss (not a new miss).
                    let seq = self.rob.push_load(None);
                    pending.waiters.push(seq);
                    pending.prefetch = false;
                    if dependent {
                        self.chase_outstanding = Some(line);
                    }
                } else if self.l1.access(line, false) {
                    self.rob.push_load(Some(now + self.cfg.l1_latency));
                } else if llc.access(line, false) {
                    self.rob.push_load(Some(now + self.cfg.llc_latency));
                    self.fill_l1(line, false, llc, backend, now);
                } else {
                    // LLC demand miss: go to memory.
                    match backend.submit(AccessKind::Read, line, now, false) {
                        Ok(token) => {
                            self.step_submitted = true;
                            let seq = self.rob.push_load(None);
                            self.outstanding.insert(
                                line,
                                Outstanding {
                                    waiters: vec![seq],
                                    fill_write: false,
                                    prefetch: false,
                                },
                            );
                            self.token_line.insert(token, line);
                            if dependent {
                                self.chase_outstanding = Some(line);
                            }
                            self.train_prefetcher(line, llc, backend, now);
                        }
                        Err(Busy) => {
                            // The retry will re-access both caches; do not
                            // double-count this miss.
                            self.l1.forget_demand_miss();
                            llc.forget_demand_miss();
                            return Err(op);
                        }
                    }
                }
                *budget -= 1;
                Ok(())
            }
            TraceOp::Store(addr) => {
                if self.rob.space() == 0 {
                    return Err(op);
                }
                let line = addr & !(self.cfg.line_bytes - 1);
                if let Some(pending) = self.outstanding.get_mut(&line) {
                    pending.fill_write = true;
                    pending.prefetch = false;
                } else if self.l1.access(line, true) {
                    // write hit
                } else if llc.access(line, true) {
                    self.fill_l1(line, true, llc, backend, now);
                } else {
                    // RFO: fetch the line for ownership; the store itself is
                    // posted and does not block retirement.
                    match backend.submit(AccessKind::Read, line, now, false) {
                        Ok(token) => {
                            self.step_submitted = true;
                            self.outstanding.insert(
                                line,
                                Outstanding {
                                    waiters: Vec::new(),
                                    fill_write: true,
                                    prefetch: false,
                                },
                            );
                            self.token_line.insert(token, line);
                            self.train_prefetcher(line, llc, backend, now);
                        }
                        Err(Busy) => {
                            self.l1.forget_demand_miss();
                            llc.forget_demand_miss();
                            return Err(op);
                        }
                    }
                }
                self.rob.push_store(now);
                *budget -= 1;
                Ok(())
            }
        }
    }

    fn train_prefetcher<B: MemoryBackend>(
        &mut self,
        line: u64,
        llc: &mut Cache,
        backend: &mut B,
        now: u64,
    ) {
        let candidates = self.prefetcher.on_demand_miss(line);
        if candidates.is_empty() {
            return;
        }
        if self.cfg.batch_submit {
            // Batched miss-issue: filter first, then hand the backend one
            // batch. Volley targets are usually distinct lines, but a
            // descending stream clamped at address zero can repeat one —
            // the per-call path filters the repeat against `outstanding`
            // (updated by the first submit), so the batch filter must
            // dedupe within the volley to stay observationally identical.
            self.batch_buf.clear();
            for pf_addr in candidates {
                let pf_line = pf_addr & !(self.cfg.line_bytes - 1);
                if llc.probe(pf_line)
                    || self.outstanding.contains_key(&pf_line)
                    || self.batch_buf.iter().any(|b| b.addr == pf_line)
                {
                    continue;
                }
                self.batch_buf.push(BatchAccess {
                    kind: AccessKind::Read,
                    addr: pf_line,
                    is_prefetch: true,
                });
            }
            if self.batch_buf.is_empty() {
                return;
            }
            self.batch_results.clear();
            backend.submit_batch(&self.batch_buf, now, &mut self.batch_results);
            // Prefetches are best-effort; rejected ones are dropped.
            for (access, result) in self.batch_buf.iter().zip(&self.batch_results) {
                if let Ok(token) = result {
                    self.step_submitted = true;
                    self.outstanding.insert(
                        access.addr,
                        Outstanding {
                            waiters: Vec::new(),
                            fill_write: false,
                            prefetch: true,
                        },
                    );
                    self.token_line.insert(*token, access.addr);
                }
            }
        } else {
            for pf_addr in candidates {
                let pf_line = pf_addr & !(self.cfg.line_bytes - 1);
                if llc.probe(pf_line) || self.outstanding.contains_key(&pf_line) {
                    continue;
                }
                // Prefetches are best-effort; drop when the backend is busy.
                if let Ok(token) = backend.submit(AccessKind::Read, pf_line, now, true) {
                    self.step_submitted = true;
                    self.outstanding.insert(
                        pf_line,
                        Outstanding {
                            waiters: Vec::new(),
                            fill_write: false,
                            prefetch: true,
                        },
                    );
                    self.token_line.insert(token, pf_line);
                }
            }
        }
    }

    fn handle_completion<B: MemoryBackend>(
        &mut self,
        token: u64,
        llc: &mut Cache,
        backend: &mut B,
        now: u64,
    ) {
        let Some(line) = self.token_line.remove(&token) else {
            return; // writes and unknown tokens are silent
        };
        let Some(out) = self.outstanding.remove(&line) else {
            return;
        };
        if self.chase_outstanding == Some(line) {
            self.chase_outstanding = None;
        }
        // Fill LLC (dirty writeback downstream on eviction).
        if let Some(victim) = llc.fill(line, out.fill_write) {
            self.writeback(victim, backend, now);
        }
        if !out.prefetch {
            self.fill_l1(line, out.fill_write, llc, backend, now);
        }
        let wake_at = now + self.cfg.fill_latency;
        for seq in out.waiters {
            self.rob.mark_ready(seq, wake_at);
        }
    }

    /// Installs a line in L1, spilling its dirty victim into the LLC.
    fn fill_l1<B: MemoryBackend>(
        &mut self,
        line: u64,
        dirty: bool,
        llc: &mut Cache,
        backend: &mut B,
        now: u64,
    ) {
        if let Some(victim) = self.l1.fill(line, dirty) {
            // Dirty L1 victim: update the LLC copy (usually present).
            if !llc.access(victim, true) {
                if let Some(llc_victim) = llc.fill(victim, true) {
                    self.writeback(llc_victim, backend, now);
                }
            }
        }
    }

    fn writeback<B: MemoryBackend>(&mut self, addr: u64, backend: &mut B, now: u64) {
        match backend.submit(AccessKind::Write, addr, now, false) {
            Ok(_) => self.step_submitted = true,
            Err(Busy) => self.pending_writebacks.push_back(addr),
        }
    }
}
