//! Cross-layer telemetry for the SecDDR reproduction.
//!
//! Three pieces, used together by every layer of the stack:
//!
//! * a [`Registry`] of process-cheap [`Counter`]/[`Gauge`]/[`Histogram`]
//!   handles registered under hierarchical dotted names
//!   (`dram.decision.issue_hit`, `multicore.wake.completion`,
//!   `service.job.queue_wait_us`) — handles are lock-free on the record
//!   path (relaxed atomics), the registry lock is touched only at
//!   registration and snapshot time;
//! * a deterministic, mergeable [`TelemetrySnapshot`] — the common
//!   rendering target for both registry metrics and the plain per-instance
//!   counter structs the hot simulation layers keep (those stay plain
//!   `u64`s owned by the simulator so instrumentation is provably
//!   non-perturbing and per-run isolated; see `dram_sim`'s
//!   `ControllerTelemetry` and `cpu_model`'s `WakeReasons`);
//! * an opt-in [`TraceSink`] ring buffer of timestamped [`Span`]s plus
//!   the [`chrome_trace`] exporter that renders a captured buffer as a
//!   `chrome://tracing`-loadable timeline (one track per
//!   core/shard/worker);
//! * a sim-time windowed [`SeriesSnapshot`] (fixed-width epochs closed
//!   on clock advance via [`EpochRoller`], no wall-clock anywhere) whose
//!   per-epoch row sums reconcile exactly to the aggregate snapshot,
//!   with a CSV exporter, `"ph":"C"` counter events in the
//!   [`chrome_trace`] document, and the [`report`] module's
//!   bottleneck-attribution analysis on top.
//!
//! # Naming scheme
//!
//! `layer.subject.detail`, all lowercase, `_` within a segment:
//! `dram.decision.issue_hit`, `multicore.wake.timer`,
//! `multicore.core.steps`, `workloads.trace_cache.memory_hits`,
//! `service.job.submitted`, `service.cell.run_us`. Merging snapshots
//! sums counters and histogram buckets and takes the max of gauges, so
//! `TelemetrySnapshot::merge` is associative and commutative (pinned by
//! `tests/telemetry_properties.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome_trace;
mod registry;
pub mod report;
mod series;
mod sink;
mod snapshot;

pub use registry::{Counter, Gauge, Histogram, Registry};
pub use series::{EpochRoller, SeriesSnapshot};
pub use sink::{Span, TraceSink};
pub use snapshot::{HistogramSnapshot, TelemetrySnapshot, HISTOGRAM_BUCKETS};
