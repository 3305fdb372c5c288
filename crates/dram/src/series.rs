//! Sim-time windowed series recording for one DDR4 channel: the
//! controller's [`ControllerTelemetry`] attribution, per-bank scheduler
//! command counts, and queue-occupancy integrals, bucketed into fixed
//! mem-cycle epochs by a [`CounterSeries`].
//!
//! Same zero-perturbation discipline as the aggregate telemetry: the
//! recorder is opt-in (`Option` on the controller), keeps plain
//! non-atomic `u64`s, and lives entirely outside
//! [`DramStats`](crate::DramStats) — enabling it provably cannot bend
//! the simulation (pinned by `tests/series_differential.rs`).
//!
//! The controller rolls the recorder *before* recording at a new `now` —
//! including before crediting an event-driven skip span — so every
//! increment (and every wholesale skipped span) lands in the epoch
//! containing its own timestamp.
//!
//! [`CounterSeries`]: secddr_telemetry::CounterSeries

use secddr_telemetry::TelemetrySnapshot;

use crate::telemetry::ControllerTelemetry;

/// The counters only the channel series keeps (see module docs). Owned
/// by [`DramSystem`](crate::DramSystem) behind an `Option`, next to the
/// recorder that epochs its [`Self::counters`] render.
#[derive(Debug, Clone)]
pub(crate) struct DramSeries {
    /// Cumulative scheduler commands (column, PRE, ACT) per flat bank.
    /// One increments per issuing tick, so their sum tracks
    /// `issue_hit + issue_miss` exactly (refresh-path commands are the
    /// `refresh` cause and are deliberately excluded).
    pub(crate) bank_issues: Vec<u64>,
    /// Cumulative occupancy integrals (queue length x cycles), credited
    /// alongside the occupancy histograms at length-change events.
    pub(crate) read_q_integral: u64,
    pub(crate) write_q_integral: u64,
}

impl DramSeries {
    /// Zeroed counters over `banks` banks.
    pub(crate) fn new(banks: usize) -> Self {
        Self {
            bank_issues: vec![0; banks],
            read_q_integral: 0,
            write_q_integral: 0,
        }
    }

    /// The channel's series rows: `telemetry` under its aggregate names,
    /// then `dram.bankNN.issues` and the two occupancy integrals, each
    /// integral plus its still-uncredited tail.
    pub(crate) fn counters(
        &self,
        telemetry: &ControllerTelemetry,
        read_tail: u64,
        write_tail: u64,
    ) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new();
        telemetry.render_into(&mut snap);
        for (bank, &issues) in self.bank_issues.iter().enumerate() {
            snap.add_counter(&format!("dram.bank{bank:02}.issues"), issues);
        }
        snap.add_counter("dram.read_q_integral", self.read_q_integral + read_tail);
        snap.add_counter("dram.write_q_integral", self.write_q_integral + write_tail);
        snap
    }
}
