//! Resident experiment service: a long-running job server that queues,
//! runs, and streams SecDDR simulation results.
//!
//! The batch story (PR 1–4) runs one sweep per process; this crate is
//! the front door the ROADMAP's million-user north star needs — a
//! *resident* process that accepts typed jobs, schedules them on a
//! persistent worker pool, streams incremental results, and reuses warm
//! state (memoized graphs and traces) across requests:
//!
//! * [`pool`] — [`WorkerPool`]: persistent workers, priority queue,
//!   cooperative [`CancelToken`]s, `SECDDR_THREADS` sizing; the scoped
//!   `par_sweep` harness is now [`par_sweep`] on the shared global
//!   instance of this pool, so the 10 bench binaries and the service
//!   share one thread policy (each service keeps its own pool
//!   instance, sized by the same rules).
//! * [`spec`] — [`JobSpec`]: benchmark/suite × `SecurityConfig`s ×
//!   `EngineOptions` × cores × channels × budget × seed × priority,
//!   with a lossless JSON codec.
//! * [`service`] — [`ExperimentService::submit`] returns a
//!   [`JobHandle`] streaming [`JobEvent`]s (queued → started → one per
//!   benchmark×config cell → finished/cancelled).
//! * [`net`] — [`ExperimentServer`]/[`ServiceClient`]: the same API
//!   over TCP as line-delimited JSON (`std::net`, no external deps),
//!   multiplexing any number of jobs per connection; `secddr-serve` is
//!   the binary. The server is [`LineServer`] over the
//!   [`LineHandler`] trait, so the fleet dispatcher reuses it whole.
//! * [`json`] — the minimal hand-rolled JSON the wire rides on.
//! * [`cli`] — the strict `--flag value` command line `secddr-serve` and
//!   `secddr-dispatch` share.
//!
//! # Example
//!
//! ```
//! use secddr_service::{ExperimentService, JobEvent, JobSpec};
//!
//! let service = ExperimentService::with_threads(2);
//! let mut spec = JobSpec::bench("povray");
//! spec.instructions = 2_000;
//! let handle = service.submit(spec).unwrap();
//! let outcome = handle.wait();
//! assert!(outcome.finished());
//! assert!(outcome.cells[0].merged().instructions >= 2_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod json;
pub mod net;
pub mod pool;
pub mod service;
pub mod spec;

pub use json::Json;
pub use net::{
    ExperimentServer, LineHandler, LineServer, ServiceClient, ShutdownHandle, WireCacheStats,
    WireEvent,
};
pub use pool::{resolve_threads, CancelToken, PoolGauges, WorkerPool, DEFAULT_THREAD_CAP};
pub use service::{
    CellResult, ExperimentService, JobEvent, JobHandle, JobId, JobOutcome, JobSummary, ServiceStats,
};
pub use spec::{JobSpec, SpecError, SuiteSel, Workload};

/// Maps `f` over `items` on the process-wide [`WorkerPool`], preserving
/// input order.
///
/// This is the one parallel harness in the repository — every figure
/// and table binary fans out through it — now riding the same
/// [`WorkerPool`] machinery the experiment service schedules jobs on
/// (each `ExperimentService` constructs its own instance so tests can
/// size and drain it independently; `par_sweep` uses the process-wide
/// [`WorkerPool::global`]), so the thread-count policy
/// (`SECDDR_THREADS`, capped at [`DEFAULT_THREAD_CAP`]) lives in
/// exactly one place. The calling thread participates in the work, so
/// the call completes even when the pool is saturated with other jobs.
pub fn par_sweep<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    WorkerPool::global().map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_sweep_preserves_order_on_the_global_pool() {
        let out = par_sweep((0u32..50).collect(), |&x| x * 3);
        assert_eq!(out, (0u32..50).map(|x| x * 3).collect::<Vec<_>>());
    }
}
