//! Fleet layer for the experiment service: durability, dispatch, and
//! whole-result memoization.
//!
//! One `secddr-serve` process saturates one host and forgets its queue
//! on crash. This crate scales the service out and makes it durable,
//! exploiting the property the rest of the repository pins relentlessly
//! — bit-identical determinism. Identical `(spec, seed)` submissions
//! are *proven* to produce identical results, so finished cells can be
//! memoized and served in O(1), a crashed worker's cells can be re-run
//! anywhere, and a replayed log can never produce a different answer
//! than the run it replaces. Three composable layers:
//!
//! * [`joblog`] — [`JobLog`]: write-ahead log of accepted specs with a
//!   cell to run and their terminal outcomes; on restart the incomplete
//!   set (deduped by [`JobSpec::content_hash`], priority excluded) is
//!   replayed.
//! * [`store`] — [`ResultStore`]: versioned on-disk memoization of
//!   finished cell payloads keyed by the canonical hash of the cell
//!   spec (seed included); checked before dispatch, populated on
//!   completion, observable via `fleet.result_cache.*` telemetry.
//! * [`dispatch`] — [`Dispatcher`]: fans cells out to N `secddr-serve`
//!   workers, least-loaded placement with per-worker outstanding caps,
//!   ping health checks, and requeue-on-worker-death.
//! * [`server`] — [`FleetServer`]: the dispatcher behind the same
//!   line-protocol front end `secddr-serve` uses, so
//!   [`ServiceClient`](secddr_service::ServiceClient) drives a fleet
//!   unchanged; `secddr-dispatch` is the binary, `secddr-fleetctl`
//!   inspects logs/stores and pings endpoints.
//!
//! Workers are expected to share one trace cache dir (point them all
//! at the same `SECDDR_TRACE_CACHE`) so a cell re-run after a worker
//! death starts from a warm trace no matter where it lands.
//!
//! [`JobSpec::content_hash`]: secddr_service::JobSpec::content_hash

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatch;
pub mod joblog;
pub mod server;
pub mod store;

pub use dispatch::{Dispatcher, DispatcherConfig, FleetJobHandle, WorkerStatus};
pub use joblog::{JobLog, LogRecord, Terminal};
pub use server::FleetServer;
pub use store::ResultStore;
