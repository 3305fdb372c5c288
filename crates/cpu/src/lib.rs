//! Trace-driven out-of-order cores, cache hierarchy, and the next-event
//! core scheduler.
//!
//! This crate is the reproduction's substitute for the Scarab + Pin
//! front-end the SecDDR paper simulates with. The performance effects the
//! paper measures come from three places that this model captures:
//!
//! 1. **Memory-level parallelism limits** — a 224-entry ROB, 6-wide
//!    dispatch/retire core ([`CpuConfig`], [`CoreEngine`]) that stalls
//!    when outstanding long-latency loads fill the window.
//! 2. **Cache hierarchy behaviour** — private 32 KB L1D and a shared 4 MB
//!    16-way LLC with a stream prefetcher ([`cache`], [`prefetcher`]).
//! 3. **Extra memory traffic and latency injected by the security engine**
//!    — abstracted behind the [`MemoryBackend`] trait, which the
//!    `secddr-core` crate implements for each evaluated configuration
//!    (integrity tree, SecDDR, encrypt-only, InvisiMem).
//!
//! There is one core run loop: [`MultiCoreSystem`] ([`sched`]) steps N
//! [`CoreEngine`]s over one shared LLC and one backend by next-event time,
//! with a per-cycle reference behind [`Advance::PerCycle`].
//! [`CpuSystem`] is its one-core view.
//!
//! # Example
//!
//! ```
//! use cpu_model::{CpuConfig, CpuSystem, FixedLatencyBackend, MultiCoreSystem, TraceOp};
//!
//! let trace = vec![
//!     TraceOp::Compute(10),
//!     TraceOp::Load(0x1000),
//!     TraceOp::Store(0x2000),
//!     TraceOp::Compute(10),
//! ];
//! let backend = FixedLatencyBackend::new(200);
//! let mut sys = CpuSystem::new(CpuConfig::default(), backend);
//! let result = sys.run(trace.iter().copied());
//! assert_eq!(result.instructions, 22);
//! assert!(result.ipc() > 0.0);
//!
//! // The same run through the scheduler directly, with one core.
//! let mut sched = MultiCoreSystem::new(1, CpuConfig::default(), FixedLatencyBackend::new(200));
//! assert_eq!(sched.run(vec![trace.into_iter()]).per_core[0], result);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod core;
pub mod exec;
pub mod prefetcher;
pub mod sched;
pub mod system;
pub mod trace;

pub use crate::core::CpuConfig;
pub use cache::{Cache, CacheConfig, CacheStats};
pub use exec::{CoreEngine, StepOutcome};
pub use prefetcher::StreamPrefetcher;
pub use sched::{MultiCoreResult, MultiCoreSystem, WakeReasons};
pub use sim_kernel::Advance;
pub use system::{AccessKind, CpuSystem, FixedLatencyBackend, MemoryBackend, SimResult};
pub use trace::TraceOp;
