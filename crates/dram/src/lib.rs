//! Cycle-level DDR4 main-memory timing simulator.
//!
//! This crate is the reproduction's substitute for Ramulator [Kim et al.,
//! CAL'16], which the SecDDR paper uses as its memory model. It simulates a
//! DDR4 channel at command granularity: banks move through
//! activate/read/write/precharge state machines under the full JEDEC-style
//! timing constraint set (tRCD, tRP, tRAS, tCCD_S/L, tWTR_S/L, tRRD_S/L,
//! tFAW, tRTP, tWR, tRFC/tREFI), an FR-FCFS controller arbitrates 64-entry
//! read/write queues with watermark-based write draining, and the shared
//! data bus is modelled with burst occupancy and turnaround bubbles.
//!
//! Two knobs exist specifically for the paper's experiments:
//!
//! * **Write burst extension** — SecDDR's encrypted eWCRC needs burst
//!   length 10 instead of 8 on DDR4 writes
//!   ([`DramConfig::write_burst_cycles`] 4 → 5).
//! * **Frequency derating** — the "realistic" InvisiMem configuration runs
//!   the channel at 1200 MHz instead of 1600 MHz because of its centralized
//!   buffer ([`DramConfig::freq_mhz`]).
//!
//! # Example
//!
//! ```
//! use dram_sim::{DramConfig, DramSystem, MemRequest, ReqKind};
//!
//! let mut dram = DramSystem::new(DramConfig::ddr4_3200());
//! dram.enqueue(MemRequest::new(1, ReqKind::Read, 0x4000, 0)).unwrap();
//! let mut done = Vec::new();
//! for _ in 0..200 {
//!     dram.tick_into(&mut done);
//! }
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].id, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod bank;
mod config;
pub mod controller;
mod request;
mod series;
mod stats;
mod telemetry;

pub use address::{AddressMapping, DecodedAddr};
pub use config::DramConfig;
pub use controller::{DramSystem, EnqueueError, SchedAction, SchedulerMode};
pub use request::{Completion, MemRequest, ReqKind};
pub use sim_kernel::Advance;
pub use stats::{DramStats, OCCUPANCY_BUCKETS};
pub use telemetry::{ControllerTelemetry, DecisionCauses};
