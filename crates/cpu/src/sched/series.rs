//! Sim-time windowed series recording for the multi-core scheduler:
//! wake-reason attribution, per-core step counts, and per-core retired
//! instructions, bucketed into fixed CPU-cycle epochs.
//!
//! Same zero-perturbation discipline as [`WakeReasons`] itself:
//! the recorder is opt-in (`Option` on the system), keeps plain
//! non-atomic `u64`s, and lives entirely outside
//! [`MultiCoreResult`](crate::MultiCoreResult) — enabling it provably
//! cannot bend the simulation (pinned by `tests/series_differential.rs`).
//!
//! Both run loops roll the recorder immediately after `clock.tick()` —
//! before any wake is attributed or any core steps at the new cycle — so
//! every increment lands in the epoch containing its own timestamp, and
//! all-asleep jumps leave the skipped interior epochs zero.

use secddr_telemetry::{EpochRoller, SeriesSnapshot};

use super::WakeReasons;
use crate::exec::CoreEngine;

/// Scheduler-layer series recorder (see module docs). Owned by
/// [`MultiCoreSystem`](crate::MultiCoreSystem) behind an `Option`.
#[derive(Debug, Clone)]
pub(crate) struct MulticoreSeries {
    roller: EpochRoller,
    /// Cumulative wake attribution at the last epoch close.
    base_wake: WakeReasons,
    /// Cumulative per-core step counts at the last epoch close.
    base_steps: Vec<u64>,
    /// Cumulative per-core retired instructions at the last epoch close.
    base_retired: Vec<u64>,
    snap: SeriesSnapshot,
}

impl MulticoreSeries {
    /// A recorder with `width` CPU cycles per epoch, re-based on the
    /// system's *current* cumulative counters so a mid-life enable (or
    /// an enable between two cumulative `run`s) starts its first epoch
    /// at zero.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub(crate) fn new(width: u64, wake: &WakeReasons, steps: &[u64], cores: &[CoreEngine]) -> Self {
        Self {
            roller: EpochRoller::new(width),
            base_wake: *wake,
            base_steps: steps.to_vec(),
            base_retired: cores.iter().map(CoreEngine::instructions).collect(),
            snap: SeriesSnapshot::new(width),
        }
    }

    /// Closes the open epoch if `now` crossed a window boundary,
    /// crediting everything accumulated since the last close. Call
    /// right after the clock advances, before recording anything at
    /// `now`.
    pub(crate) fn roll(
        &mut self,
        now: u64,
        wake: &WakeReasons,
        steps: &[u64],
        cores: &[CoreEngine],
    ) {
        if let Some(epoch) = self.roller.close_epoch(now) {
            self.flush(epoch, wake, steps, cores);
        }
    }

    /// Credits the cumulative-vs-base deltas to `epoch` and re-bases.
    fn flush(&mut self, epoch: u64, wake: &WakeReasons, steps: &[u64], cores: &[CoreEngine]) {
        let snap = &mut self.snap;
        snap.add(
            "multicore.wakes_total",
            epoch,
            wake.total() - self.base_wake.total(),
        );
        // Exhaustive destructuring: a new wake bucket must pick its row
        // name here (and join the reconciliation) to compile.
        let WakeReasons {
            completion,
            timer,
            spurious,
            submit_rederive,
        } = *wake;
        let b = self.base_wake;
        snap.add(
            "multicore.wake.completion",
            epoch,
            completion - b.completion,
        );
        snap.add("multicore.wake.timer", epoch, timer - b.timer);
        snap.add("multicore.wake.spurious", epoch, spurious - b.spurious);
        snap.add(
            "multicore.wake.submit_rederive",
            epoch,
            submit_rederive - b.submit_rederive,
        );
        let mut step_delta = 0;
        for (i, (cur, base)) in steps.iter().zip(self.base_steps.iter_mut()).enumerate() {
            if *cur > *base {
                snap.add(&format!("multicore.core{i:02}.steps"), epoch, cur - *base);
                step_delta += cur - *base;
            }
            *base = *cur;
        }
        snap.add("multicore.core.steps", epoch, step_delta);
        for (i, (core, base)) in cores.iter().zip(self.base_retired.iter_mut()).enumerate() {
            let cur = core.instructions();
            if cur > *base {
                snap.add(&format!("multicore.core{i:02}.retired"), epoch, cur - *base);
            }
            *base = cur;
        }
        self.base_wake = *wake;
    }

    /// The series so far, with the open partial epoch folded in.
    /// Non-destructive: recording continues.
    pub(crate) fn snapshot(
        &self,
        wake: &WakeReasons,
        steps: &[u64],
        cores: &[CoreEngine],
    ) -> SeriesSnapshot {
        let mut copy = self.clone();
        let open = copy.roller.open_epoch();
        copy.flush(open, wake, steps, cores);
        copy.snap
    }
}
