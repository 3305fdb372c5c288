//! N interleaved security-engine + DDR-channel shards behind one
//! [`MemoryBackend`].
//!
//! [`ShardedEngine`] owns N independent [`SecurityEngine`]s (each with its
//! own metadata cache and DDR4 channel) and an [`Interleave`] that splits
//! the physical line space across them. The CPU front-end sees a single
//! backend: tokens and completions are translated at this layer, so
//! `CpuSystem` is oblivious to the shard count.
//!
//! The top-level advance is event-driven: [`MemoryBackend::advance_to`]
//! walks the shards in index order and steps **only the shards whose
//! [`MemoryBackend::next_completion_event`] bound is at or before the
//! target**. A shard whose bound is past the window provably delivers
//! nothing in it, so its channel clock is left lagging and caught up
//! wholesale on its next interaction: its own `submit` (which advances
//! the channel to `now` before stamping), a later due step, or
//! [`ShardedEngine::sync`]. The deferred catch-up is cycle-identical to
//! advancing every cycle, so the per-shard idle windows that grow with N
//! are skipped at the top level instead of being re-proven per shard per
//! cycle. Under [`Advance::PerCycle`] every shard advances on every call
//! instead: that branch is the reference the due-shard rule is checked
//! against. The statistics accessors sync first, so merged stats are
//! bit-comparable with an always-advanced engine.
//!
//! A lagging shard's wholesale catch-up is itself block-advanced: the
//! engine's `advance` rides the controller's *decision bound*
//! (`DramSystem::skip_to_next_decision` plus `tick`), so a busy stretch
//! executes only the cycles where a command can issue — not one
//! controller tick per covered busy cycle. Completions that land inside a
//! skipped span are popped at their own finish cycles.

use cpu_model::system::{AccessKind, Busy, MemoryBackend};
use dram_sim::{ControllerTelemetry, DramStats};
use secddr_core::config::SecurityConfig;
use secddr_core::engine::{EngineOptions, EngineStats, SecurityEngine};
use secddr_telemetry::{SeriesSnapshot, TraceSink};
use sim_kernel::{Advance, TokenWindow};

use crate::interleave::Interleave;

/// N interleaved [`SecurityEngine`] channel shards behind one
/// [`MemoryBackend`].
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<SecurityEngine>,
    interleave: Interleave,
    advance: Advance,
    /// Global token source (one per accepted submit, like the bare
    /// engine, so `ShardedEngine` with one shard hands out the same
    /// token values a bare [`SecurityEngine`] would).
    next_token: u64,
    /// Per shard: local read token → global token (writes complete
    /// silently and are never mapped).
    local_to_global: Vec<TokenWindow<u64>>,
    /// Latest CPU cycle observed on any trait call — the catch-up target
    /// for lagging shards in [`Self::sync`].
    last_now: u64,
    /// Times each shard was actually stepped (diagnostic for the
    /// "only due shards advance" property and the scaling benchmarks).
    shard_ticks: Vec<u64>,
    /// Reusable `(cycle, local token)` buffer for per-shard block
    /// advances.
    stamp_scratch: Vec<(u64, u64)>,
    /// Opt-in span recorder: each shard step is recorded as a span on the
    /// shard's track covering the window it advanced through. `None`
    /// (the default) keeps the hot path free of any tracing work.
    trace: Option<TraceSink>,
    /// Per shard: the cycle its track has been traced up to (span starts
    /// for the next step). Only maintained while tracing is enabled.
    trace_mark: Vec<u64>,
}

impl ShardedEngine {
    /// Builds `interleave.shard_count()` identical shards for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    #[must_use]
    pub fn new(cfg: SecurityConfig, cpu_mhz: u32, interleave: Interleave) -> Self {
        Self::with_options(cfg, cpu_mhz, interleave, EngineOptions::default())
    }

    /// As [`Self::new`] with explicit engine options (shared by every
    /// shard).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    #[must_use]
    pub fn with_options(
        cfg: SecurityConfig,
        cpu_mhz: u32,
        interleave: Interleave,
        options: EngineOptions,
    ) -> Self {
        let n = interleave.shard_count();
        Self {
            shards: (0..n)
                .map(|_| SecurityEngine::with_options(cfg, cpu_mhz, options))
                .collect(),
            interleave,
            advance: options.advance,
            next_token: 0,
            local_to_global: vec![TokenWindow::default(); n],
            last_now: 0,
            shard_ticks: vec![0; n],
            stamp_scratch: Vec::new(),
            trace: None,
            trace_mark: vec![0; n],
        }
    }

    /// Number of channel shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The interleave policy splitting the line space.
    #[must_use]
    pub fn interleave(&self) -> Interleave {
        self.interleave
    }

    /// Read access to one shard's engine (sync first for up-to-date
    /// channel statistics).
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    #[must_use]
    pub fn shard(&self, shard: usize) -> &SecurityEngine {
        &self.shards[shard]
    }

    /// How many times each shard was actually stepped by
    /// [`MemoryBackend::advance_to`] — idle shards stay at zero because
    /// their completion bound is never due.
    #[must_use]
    pub fn shard_tick_counts(&self) -> &[u64] {
        &self.shard_ticks
    }

    /// Catches every lagging shard's channel clock up to the latest CPU
    /// cycle observed on this backend.
    ///
    /// Completions harvested during the catch-up stay scheduled inside
    /// the shard and surface on the next [`MemoryBackend::advance_to`]
    /// exactly as they would have without the lag (the skipped cycles
    /// were provably observation-free), so syncing is safe at any point.
    pub fn sync(&mut self) {
        let now = self.last_now;
        for shard in &mut self.shards {
            shard.sync_to(now);
        }
    }

    /// Merged engine statistics over all shards (syncs first).
    pub fn stats(&mut self) -> EngineStats {
        self.sync();
        let mut merged = EngineStats::default();
        for shard in &self.shards {
            merged.merge(&shard.stats());
        }
        merged
    }

    /// Merged DRAM channel statistics over all shards (syncs first).
    /// Counters and occupancy/latency histograms sum; the rate helpers
    /// on the merged value are therefore aggregates over all channels.
    pub fn dram_stats(&mut self) -> DramStats {
        self.sync();
        let mut merged = DramStats::default();
        for shard in &self.shards {
            merged.merge(&shard.dram_stats());
        }
        merged
    }

    /// Merged controller telemetry over all shards (syncs first):
    /// decision/busy cycle counts and decision-cause attribution summed
    /// across every channel.
    pub fn dram_telemetry(&mut self) -> ControllerTelemetry {
        self.sync();
        let mut merged = ControllerTelemetry::default();
        for shard in &self.shards {
            merged.merge(&shard.dram_telemetry());
        }
        merged
    }

    /// Turns on sim-time windowed series recording on every shard's
    /// channel at `epoch_width` CPU cycles per epoch (see
    /// [`SecurityEngine::enable_series`]). Opt-in and non-perturbing
    /// like tracing. Syncs first, so a mid-run enable starts every
    /// channel's series at the front-end's current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_width` is zero.
    pub fn enable_series(&mut self, epoch_width: u64) {
        self.sync();
        for shard in &mut self.shards {
            shard.enable_series(epoch_width);
        }
    }

    /// Merged per-epoch series over all shards (syncs first). Policy
    /// rows (`dram.decision.*`, `dram.decisions_total`,
    /// `dram.busy_cycles`) sum across channels so they still reconcile
    /// with the merged [`Self::dram_telemetry`]; per-bank and occupancy
    /// rows are scoped per channel (`dram.ch01.bank03.issues`,
    /// `dram.ch01.read_q_integral`), and each channel gains a summed
    /// `dram.chNN.issues` heatmap row for imbalance analysis. `None`
    /// unless [`Self::enable_series`] was called.
    pub fn series_snapshot(&mut self) -> Option<SeriesSnapshot> {
        self.sync();
        let mut merged: Option<SeriesSnapshot> = None;
        for (s, shard) in self.shards.iter().enumerate() {
            let scoped = scope_channel(&shard.series_snapshot()?, s);
            match &mut merged {
                Some(m) => m.merge(&scoped),
                None => merged = Some(scoped),
            }
        }
        merged
    }

    /// Turns on per-shard advance-span tracing into a bounded ring of
    /// `capacity` spans (oldest evicted first). Tracing never changes
    /// simulated behaviour — it only observes the windows each shard is
    /// stepped through.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceSink::new(capacity));
    }

    /// Takes the recorded trace (if tracing was enabled), disabling
    /// further recording.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take()
    }

    /// Records shard `s` having advanced its window up to `end` on its
    /// trace track (no-op unless [`Self::enable_trace`] was called).
    fn trace_step(&mut self, s: usize, end: u64) {
        if let Some(sink) = &mut self.trace {
            let start = self.trace_mark[s].min(end);
            #[allow(clippy::cast_possible_truncation)]
            sink.record(s as u32, "advance", start, end);
            self.trace_mark[s] = end;
        }
    }

    /// Block-advances shard `s` to `target`, translating its stamped
    /// completions to global tokens.
    fn advance_shard_to(&mut self, s: usize, target: u64, out: &mut Vec<(u64, u64)>) {
        self.shard_ticks[s] += 1;
        self.trace_step(s, target);
        let mut scratch = std::mem::take(&mut self.stamp_scratch);
        scratch.clear();
        self.shards[s].advance_to(target, &mut scratch);
        for &(at, local) in &scratch {
            let global = self.local_to_global[s]
                .take(local)
                .expect("completed read was registered at submit");
            out.push((at, global));
        }
        self.stamp_scratch = scratch;
    }

    /// Folds `f(shard, now)` over all shards into one lower bound with
    /// the backend-trait `max(now + 1)` convention.
    fn fold_shards(
        &self,
        now: u64,
        f: impl Fn(&SecurityEngine, u64) -> Option<u64>,
    ) -> Option<u64> {
        let mut bound = u64::MAX;
        for shard in &self.shards {
            if let Some(t) = f(shard, now) {
                bound = bound.min(t);
            }
        }
        (bound != u64::MAX).then(|| bound.max(now + 1))
    }
}

/// Scopes one shard's series rows to its channel: heatmap rows gain a
/// `chNN` segment, policy rows stay shared (they sum on merge), and a
/// per-channel `dram.chNN.issues` row (the shard's bank rows summed) is
/// added for cross-channel imbalance analysis.
fn scope_channel(snap: &SeriesSnapshot, shard: usize) -> SeriesSnapshot {
    let mut scoped = snap.map_names(|name| {
        if let Some(rest) = name.strip_prefix("dram.bank") {
            format!("dram.ch{shard:02}.bank{rest}")
        } else if name == "dram.read_q_integral" || name == "dram.write_q_integral" {
            format!("dram.ch{shard:02}.{}", &name["dram.".len()..])
        } else {
            name.to_string()
        }
    });
    let mut issues: Vec<u64> = Vec::new();
    for (name, row) in &snap.rows {
        if name.starts_with("dram.bank") {
            if issues.len() < row.len() {
                issues.resize(row.len(), 0);
            }
            for (total, v) in issues.iter_mut().zip(row) {
                *total += v;
            }
        }
    }
    for (e, v) in issues.iter().enumerate() {
        scoped.add(&format!("dram.ch{shard:02}.issues"), e as u64, *v);
    }
    scoped
}

impl MemoryBackend for ShardedEngine {
    fn submit(
        &mut self,
        kind: AccessKind,
        addr: u64,
        now: u64,
        is_prefetch: bool,
    ) -> Result<u64, Busy> {
        self.last_now = self.last_now.max(now);
        let (s, local) = self.interleave.to_local(addr);
        // The shard's own submit catches its channel clock up to `now`
        // before stamping, so a lagging shard re-synchronizes here.
        let local_token = self.shards[s].submit(kind, local, now, is_prefetch)?;
        // Every accepted access takes the next global token; only reads
        // (the only kind that completes) are mapped back.
        let global = self.next_token;
        self.next_token += 1;
        if kind == AccessKind::Read {
            self.local_to_global[s].insert(local_token, global);
        }
        Ok(global)
    }

    fn advance_to(&mut self, target: u64, completions: &mut Vec<(u64, u64)>) {
        self.last_now = self.last_now.max(target);
        let start = completions.len();
        let event_driven = self.advance.is_event_driven();
        for s in 0..self.shards.len() {
            // Event-driven: step only the shards with a completion due by
            // `target` (asked at `target - 1`, whose `now + 1` floor is
            // `target` itself); the rest provably surface nothing in the
            // window and keep lagging. Per-cycle reference: every shard
            // steps every call.
            if !event_driven
                || self.shards[s]
                    .next_completion_event(target.saturating_sub(1))
                    .is_some_and(|at| at <= target)
            {
                self.advance_shard_to(s, target, completions);
            }
        }
        // Shards were advanced in ascending index order; the stable sort
        // re-merges their streams by cycle while keeping shard-index
        // order within a cycle — exactly what advancing all shards one
        // cycle at a time would have produced.
        completions[start..].sort_by_key(|&(at, _)| at);
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.fold_shards(now, |sh, n| sh.next_event(n))
    }

    fn next_completion_event(&self, now: u64) -> Option<u64> {
        self.fold_shards(now, |sh, n| sh.next_completion_event(n))
    }

    fn next_read_capacity_event(&self, now: u64, addr: u64) -> Option<u64> {
        // Capacity for the stalled access frees only on its owning shard
        // (an unrelated shard's empty queue cannot unblock the retry),
        // so bound the wait by that shard's capacity event — but keep
        // every shard's completions observable: a read returning
        // anywhere wakes ROB waiters regardless of the stall.
        let (s, local) = self.interleave.to_local(addr);
        let mut bound = self.shards[s]
            .next_read_capacity_event(now, local)
            .unwrap_or(u64::MAX);
        for (i, shard) in self.shards.iter().enumerate() {
            if i != s {
                if let Some(t) = shard.next_completion_event(now) {
                    bound = bound.min(t);
                }
            }
        }
        (bound != u64::MAX).then(|| bound.max(now + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::LINE_BYTES;
    use cpu_model::system::BatchAccess;
    use cpu_model::{CpuConfig, MultiCoreSystem, TraceOp};

    const CPU_MHZ: u32 = 3200;

    fn engine(n: usize) -> ShardedEngine {
        ShardedEngine::new(SecurityConfig::secddr_ctr(), CPU_MHZ, Interleave::xor(n))
    }

    fn drive_to_completion(e: &mut ShardedEngine, token: u64, start: u64) -> u64 {
        for now in start..start + 100_000 {
            if e.tick(now).contains(&token) {
                return now;
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn read_completes_through_any_shard() {
        let mut e = engine(4);
        for i in 0..4u64 {
            let addr = i * LINE_BYTES; // lines 0..4 hit 4 distinct shards
            let t = e.submit(AccessKind::Read, addr, 100 + i, false).unwrap();
            drive_to_completion(&mut e, t, 101 + i);
        }
        assert_eq!(e.stats().data_reads, 4);
        let reads: Vec<u64> = (0..4).map(|s| e.shard(s).stats().data_reads).collect();
        assert_eq!(reads, vec![1, 1, 1, 1], "one line per shard");
    }

    #[test]
    fn idle_shards_never_tick() {
        let mut e = engine(4);
        // Lines local to shard 0 only (xor(4): line 0 maps to shard 0).
        let addr = e.interleave().to_physical(0, 0x40_0000);
        assert_eq!(e.interleave().shard_of(addr), 0);
        let t = e.submit(AccessKind::Read, addr, 100, false).unwrap();
        drive_to_completion(&mut e, t, 101);
        let ticks = e.shard_tick_counts();
        assert!(ticks[0] > 0, "active shard must step");
        assert_eq!(&ticks[1..], &[0, 0, 0], "idle shards never come due");
    }

    #[test]
    fn batch_results_answer_batch_order() {
        // Same access stream through submit_batch and per-call submit on
        // two identically built engines: identical results and stats.
        let batch: Vec<BatchAccess> = (0..12u64)
            .map(|i| BatchAccess {
                kind: if i % 5 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                addr: i.wrapping_mul(0x9E37_79B9) & !(LINE_BYTES - 1),
                is_prefetch: false,
            })
            .collect();
        let mut batched = engine(4);
        let mut per_call = engine(4);
        let mut batch_results = Vec::new();
        batched.submit_batch(&batch, 100, &mut batch_results);
        let per_call_results: Vec<_> = batch
            .iter()
            .map(|b| per_call.submit(b.kind, b.addr, 100, b.is_prefetch))
            .collect();
        assert_eq!(batch_results, per_call_results);
        let mut now = 100;
        for _ in 0..500 {
            now += 40;
            assert_eq!(batched.tick(now), per_call.tick(now));
        }
        assert_eq!(batched.stats(), per_call.stats());
        assert_eq!(batched.dram_stats(), per_call.dram_stats());
    }

    #[test]
    fn tracing_is_non_perturbing_and_telemetry_reconciles() {
        // Identical streams through a traced and an untraced engine must
        // produce bit-identical completions and stats; the merged
        // telemetry's cause buckets must partition its decision cycles.
        let mut traced = engine(4);
        let mut plain = engine(4);
        traced.enable_trace(64);
        let mut now = 100u64;
        for i in 0..30u64 {
            let a = traced.submit(AccessKind::Read, i * LINE_BYTES * 3, now, false);
            let b = plain.submit(AccessKind::Read, i * LINE_BYTES * 3, now, false);
            assert_eq!(a, b);
            now += 60;
            assert_eq!(traced.tick(now), plain.tick(now));
        }
        for _ in 0..300 {
            now += 50;
            assert_eq!(traced.tick(now), plain.tick(now));
        }
        assert_eq!(traced.stats(), plain.stats());
        assert_eq!(traced.dram_stats(), plain.dram_stats());
        let t = traced.dram_telemetry();
        assert_eq!(t, plain.dram_telemetry());
        assert_eq!(t.causes.total(), t.decision_cycles);
        assert!(traced.dram_stats().reads > 0, "reads completed");
        let sink = traced.take_trace().expect("tracing was enabled");
        assert!(!sink.is_empty(), "stepped shards recorded spans");
        assert!(
            sink.spans().all(|sp| sp.start <= sp.end),
            "spans are well-formed windows"
        );
    }

    #[test]
    fn merged_stats_sum_over_shards() {
        let mut e = engine(2);
        let mut now = 100u64;
        for i in 0..40u64 {
            let _ = e.submit(AccessKind::Read, i * LINE_BYTES * 7, now, false);
            now += 100;
            e.tick(now);
        }
        for _ in 0..200 {
            now += 50;
            e.tick(now);
        }
        let merged = e.stats();
        let by_hand = e.shard(0).stats().data_reads + e.shard(1).stats().data_reads;
        assert_eq!(merged.data_reads, by_hand);
        let dram = e.dram_stats();
        assert_eq!(
            dram.reads,
            e.shard(0).dram_stats().reads + e.shard(1).dram_stats().reads
        );
    }

    #[test]
    fn token_windows_span_the_reads_in_flight_not_the_run() {
        let mut sys = MultiCoreSystem::new(2, CpuConfig::default(), engine(4));
        // Measured between cumulative runs, when every read is delivered:
        // a table sized by the largest token would only ever grow.
        let mut largest = 0;
        for round in 0..4u64 {
            let traces: Vec<Vec<TraceOp>> = (0..2u64)
                .map(|c| {
                    (0..6_000u64)
                        .map(|i| {
                            let x =
                                (i ^ ((round * 2 + c) << 20)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            let line = (x >> 24) & !(LINE_BYTES - 1);
                            match x % 4 {
                                0 => TraceOp::Compute(8),
                                1 => TraceOp::Store(line),
                                _ => TraceOp::Load(line),
                            }
                        })
                        .collect()
                })
                .collect();
            sys.run(traces.iter().map(|t| t.iter().copied()).collect());
            let sharded = sys.backend();
            for window in &sharded.local_to_global {
                largest = largest.max(window.span());
            }
        }
        let issued = sys.backend().next_token;
        assert!(issued > 20_000, "a long run ({issued} tokens)");
        assert!(
            largest < 256,
            "a shard window holds {largest} slots after {issued} tokens"
        );
    }
}
