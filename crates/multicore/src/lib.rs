//! Multi-core rate mode: N cores running copies of one trace over the
//! next-event scheduler.
//!
//! The paper evaluates SecDDR in 4-core rate mode; this crate supplies
//! the traces for it. The scheduler itself lives in `cpu_model`
//! ([`cpu_model::sched`]), where the single-core `CpuSystem` is its
//! one-core view; its names are re-exported here so existing import
//! paths keep resolving:
//!
//! * [`MultiCoreSystem`] — N cores over one shared LLC and one shared
//!   [`cpu_model::MemoryBackend`], interleaved by next-event time and
//!   bit-identical to per-cycle lock-step.
//! * [`MultiCoreResult`] — per-core [`cpu_model::SimResult`]s plus the
//!   merged aggregate and the rate-mode metrics (aggregate IPC, weighted
//!   speedup).
//! * [`WakeReasons`] — the scheduler's wake-reason attribution.
//!
//! This crate's own part is [`CoreTrace`] / [`AddressSpace`]: rate-mode
//! trace sharing, where N cores iterate one reference-counted trace, each
//! relocated into its own window of the backend's data span so copies
//! cannot alias in the shared LLC or the engine metadata.
//!
//! Cores × channels compose through the one backend seam:
//! `MultiCoreSystem<ShardedEngine>` works unchanged.
//!
//! # Example
//!
//! ```
//! use cpu_model::{CpuConfig, FixedLatencyBackend, TraceOp};
//! use secddr_multicore::{CoreTrace, MultiCoreSystem};
//! use std::sync::Arc;
//!
//! let trace = Arc::new(vec![
//!     TraceOp::Compute(12),
//!     TraceOp::Load(0x1000),
//!     TraceOp::Store(0x2000),
//! ]);
//! let mut sys = MultiCoreSystem::new(4, CpuConfig::default(), FixedLatencyBackend::new(200));
//! let result = sys.run(CoreTrace::rate(&trace, 1 << 32, 4));
//! assert_eq!(result.merged().instructions, 4 * 14);
//! assert!(result.aggregate_ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod trace;

pub use cpu_model::{MultiCoreResult, MultiCoreSystem, WakeReasons};
pub use trace::{AddressSpace, CoreTrace};
