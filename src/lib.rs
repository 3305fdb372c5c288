//! SecDDR reproduction — facade crate.
//!
//! This crate re-exports the whole workspace so examples, integration
//! tests, and downstream users can depend on a single crate:
//!
//! * [`core`] — security engines, full-system simulator,
//!   security analysis (the paper's contribution).
//! * [`functional`] — byte-accurate protocol model: E-MAC channel, eWCRC,
//!   attacker interposers, attestation.
//! * [`crypto`] — AES-128/CTR/XTS, CMAC, SHA-256, CRC-16, DH, power model.
//! * [`dram`] — cycle-level DDR4 channel simulator.
//! * [`cpu`] — trace-driven OOO core + cache hierarchy.
//! * [`channels`] — sharded multi-channel memory subsystem: N
//!   interleaved SecDDR channels behind one `MemoryBackend`.
//! * [`multicore`] — multi-core front-end: N OOO cores sharing the LLC
//!   and memory engine behind one next-event scheduler (the paper's
//!   4-core rate mode).
//! * [`service`] — the resident experiment service: a long-running job
//!   server (`secddr-serve`) that queues [`JobSpec`]s on a persistent
//!   worker pool and streams per-cell results, in-process or over
//!   line-delimited-JSON TCP.
//! * [`fleet`] — the fleet layer over the service: durable write-ahead
//!   job log, multi-worker dispatcher (`secddr-dispatch`) with
//!   least-loaded placement and requeue-on-worker-death, and
//!   whole-result memoization keyed by canonical spec hash.
//! * [`telemetry`] — cross-layer observability: the metrics registry,
//!   deterministic mergeable snapshots, and the span ring buffer +
//!   `chrome://tracing` timeline exporter.
//! * [`workloads`] — the 29 benchmarks of the paper's evaluation.
//! * [`kernel`] — the event-driven simulation kernel all timing layers
//!   ride ([`SimClock`](sim_kernel::SimClock), event queue, and the
//!   [`Advance`] idle-skip policy with per-cycle-identical results).
//!
//! # Example
//!
//! ```
//! use secddr::functional::{EncryptionMode, SecureChannel};
//!
//! let mut ch = SecureChannel::new_attested(EncryptionMode::Xts, 1);
//! ch.write(0x40, &[7u8; 64]);
//! assert_eq!(ch.read(0x40).unwrap(), [7u8; 64]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cpu_model as cpu;
pub use dimm_model as functional;
pub use dram_sim as dram;
pub use secddr_channels as channels;
pub use secddr_core as core;
pub use secddr_crypto as crypto;
pub use secddr_fleet as fleet;
pub use secddr_multicore as multicore;
pub use secddr_service as service;
pub use secddr_telemetry as telemetry;
pub use sim_kernel as kernel;
pub use workloads;

pub use secddr_channels::{ChannelStats, Interleave, ShardedEngine};
pub use secddr_core::config::SecurityConfig;
pub use secddr_core::system::{run_benchmark, RunParams};
pub use secddr_fleet::{Dispatcher, DispatcherConfig, FleetServer, JobLog, ResultStore};
pub use secddr_multicore::{AddressSpace, CoreTrace, MultiCoreResult, MultiCoreSystem};
pub use secddr_service::{
    ExperimentServer, ExperimentService, JobEvent, JobHandle, JobSpec, ServiceClient,
};
pub use secddr_telemetry::{Registry, SeriesSnapshot, TelemetrySnapshot, TraceSink};
pub use sim_kernel::Advance;
