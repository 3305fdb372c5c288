//! The resident experiment service: submit [`JobSpec`]s, stream
//! [`JobEvent`]s, cancel cooperatively.
//!
//! One submitted spec becomes one pool job that runs its benchmark ×
//! configuration cells in order, emitting an event as each cell
//! completes. Every machine shape runs one path: [`MultiCoreSystem`]
//! rate mode over a [`ShardedEngine`], which at one core and one channel
//! is bit-identical to `run_trace_with_options`, so service results
//! match direct library calls (pinned by
//! `tests/service_differential.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cpu_model::SimResult;
use secddr_channels::ShardedEngine;
use secddr_core::engine::EngineStats;
use secddr_core::metadata::DATA_SPAN;
use secddr_multicore::{CoreTrace, MultiCoreSystem};
use secddr_telemetry::{Registry, SeriesSnapshot, TelemetrySnapshot};
use workloads::{Benchmark, TraceCacheStats};

use crate::pool::{default_threads, CancelToken, PoolGauges, WorkerPool, DEFAULT_THREAD_CAP};
use crate::spec::{JobSpec, SpecError};

/// Identifier of one submitted job, unique per service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Result of one benchmark × configuration cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Benchmark label.
    pub benchmark: String,
    /// Configuration label.
    pub config: String,
    /// One [`SimResult`] per core (length 1 below rate mode).
    pub per_core: Vec<SimResult>,
    /// Security-engine traffic statistics (merged over channels).
    pub engine: EngineStats,
}

impl CellResult {
    /// All cores folded into one [`SimResult`] (counters sum, cycles is
    /// the slowest core).
    ///
    /// # Panics
    ///
    /// Panics if the cell has no cores (cells always have at least one).
    #[must_use]
    pub fn merged(&self) -> SimResult {
        let (first, rest) = self.per_core.split_first().expect("at least one core");
        let mut merged = first.clone();
        for r in rest {
            merged.merge(r);
        }
        merged
    }

    /// Sum of per-core IPCs (the rate-mode throughput metric; plain IPC
    /// for one core).
    #[must_use]
    pub fn aggregate_ipc(&self) -> f64 {
        self.per_core.iter().map(SimResult::ipc).sum()
    }
}

/// Merged view of a finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Number of cells the job ran.
    pub cells: usize,
    /// Every cell's cores folded into one [`SimResult`].
    pub merged: SimResult,
}

/// One progress event in a job's stream. Streams are strictly ordered:
/// `Queued`, `Started`, `Cell` with ascending `index`, then exactly one
/// terminal event (`Finished` or `Cancelled`).
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The spec was accepted and enqueued.
    Queued {
        /// The job.
        job: JobId,
        /// Cells the job will run.
        cells: usize,
    },
    /// A worker picked the job up.
    Started {
        /// The job.
        job: JobId,
    },
    /// One benchmark × configuration cell completed.
    Cell {
        /// The job.
        job: JobId,
        /// Cell index, ascending from 0.
        index: usize,
        /// Total cell count.
        total: usize,
        /// The cell's results.
        result: CellResult,
    },
    /// Live service-metric frame, one per completed cell: the
    /// process-wide registry counters that moved since this job's
    /// previous frame (the windowed delta of
    /// [`ExperimentService::telemetry_snapshot`]). The registry is
    /// shared, so concurrent jobs' activity can bleed into each other's
    /// frames — the frames are a live dashboard feed, not an exact
    /// attribution.
    Metrics {
        /// The job.
        job: JobId,
        /// Counters that increased since the previous frame, with their
        /// deltas.
        counters: std::collections::BTreeMap<String, u64>,
    },
    /// Terminal: all cells completed.
    Finished {
        /// The job.
        job: JobId,
        /// Merged results.
        summary: JobSummary,
    },
    /// Terminal: cancellation was observed before all cells ran.
    Cancelled {
        /// The job.
        job: JobId,
        /// Cells that completed before the cancellation took effect.
        completed: usize,
    },
    /// Terminal: the job's worker panicked mid-run. The pool worker
    /// survives (panics are contained per job) and the stream still
    /// ends with a terminal event instead of going silent.
    Failed {
        /// The job.
        job: JobId,
        /// The panic message, best-effort.
        error: String,
    },
}

impl JobEvent {
    /// The job this event belongs to.
    #[must_use]
    pub fn job(&self) -> JobId {
        match self {
            JobEvent::Queued { job, .. }
            | JobEvent::Started { job }
            | JobEvent::Cell { job, .. }
            | JobEvent::Metrics { job, .. }
            | JobEvent::Finished { job, .. }
            | JobEvent::Cancelled { job, .. }
            | JobEvent::Failed { job, .. } => *job,
        }
    }

    /// True for the stream-ending events.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobEvent::Finished { .. } | JobEvent::Cancelled { .. } | JobEvent::Failed { .. }
        )
    }
}

/// Collected outcome of one job (the convenience form of draining the
/// event stream).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Every completed cell, in order.
    pub cells: Vec<CellResult>,
    /// The merged summary — `None` when the job was cancelled.
    pub summary: Option<JobSummary>,
}

impl JobOutcome {
    /// True when the job ran to completion.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.summary.is_some()
    }
}

/// Caller's handle to one submitted job: a blocking event stream plus
/// cooperative cancellation.
#[derive(Debug)]
pub struct JobHandle {
    id: JobId,
    events: Receiver<JobEvent>,
    cancel: CancelToken,
}

impl JobHandle {
    /// The job's identifier.
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Requests cooperative cancellation: the job stops at its next
    /// cell boundary and emits [`JobEvent::Cancelled`].
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks for the next event; `None` once the stream ended (the
    /// terminal event was already delivered).
    pub fn next_event(&self) -> Option<JobEvent> {
        self.events.recv().ok()
    }

    /// A blocking iterator over the remaining events, ending after the
    /// terminal event.
    pub fn events(&self) -> impl Iterator<Item = JobEvent> + '_ {
        let mut done = false;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let event = self.next_event()?;
            done = event.is_terminal();
            Some(event)
        })
    }

    /// Drains the stream and returns the collected outcome.
    #[must_use]
    pub fn wait(self) -> JobOutcome {
        let mut outcome = JobOutcome {
            cells: Vec::new(),
            summary: None,
        };
        for event in self.events() {
            match event {
                JobEvent::Cell { result, .. } => outcome.cells.push(result),
                JobEvent::Finished { summary, .. } => outcome.summary = Some(summary),
                _ => {}
            }
        }
        outcome
    }
}

/// Point-in-time view of the service's caches and queue counters (the
/// TCP `cache_stats` endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Process-wide trace-cache counters (memory tier, disk tier,
    /// kernel generations) — see [`workloads::trace_cache_stats`].
    pub traces: TraceCacheStats,
    /// Jobs submitted to this service instance.
    pub jobs_submitted: u64,
    /// Jobs that reached a terminal event.
    pub jobs_completed: u64,
}

/// The resident experiment service (see the module docs).
///
/// Dropping the service drains in-flight jobs (cancelled ones wind down
/// at their next cell boundary) and joins the worker pool.
#[derive(Debug)]
pub struct ExperimentService {
    pool: WorkerPool,
    next_id: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_completed: Arc<AtomicU64>,
    /// Live jobs' cancel tokens, for cancellation by id (the TCP path).
    active: Arc<Mutex<std::collections::HashMap<u64, CancelToken>>>,
    /// Per-job merged sim-time series (jobs whose spec set a nonzero
    /// `epoch_width`), inserted before the terminal event so a caller
    /// that saw `Finished` can fetch it (the TCP `series` endpoint).
    series: Arc<Mutex<std::collections::HashMap<u64, SeriesSnapshot>>>,
}

impl Default for ExperimentService {
    fn default() -> Self {
        Self::new()
    }
}

impl ExperimentService {
    /// A service on a pool sized by the default policy
    /// (`SECDDR_THREADS` override, else host parallelism capped at
    /// [`DEFAULT_THREAD_CAP`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_threads(default_threads(DEFAULT_THREAD_CAP))
    }

    /// A service on a pool of exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics when `threads` is zero.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        // The pool publishes its levels into the process-wide registry
        // (last-constructed service wins on the shared names — services
        // are one-per-process outside tests) so the `metrics` endpoint
        // serves live queue depth and in-flight count.
        let gauges = PoolGauges {
            queue_depth: Registry::global().gauge("service.pool.queue_depth"),
            inflight: Registry::global().gauge("service.pool.inflight"),
        };
        Self {
            pool: WorkerPool::with_gauges(threads, gauges),
            next_id: AtomicU64::new(1),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: Arc::new(AtomicU64::new(0)),
            active: Arc::new(Mutex::new(std::collections::HashMap::new())),
            series: Arc::new(Mutex::new(std::collections::HashMap::new())),
        }
    }

    /// Worker threads in the service's pool.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Validates and enqueues `spec`; the returned handle streams the
    /// job's events.
    ///
    /// # Errors
    ///
    /// Rejects invalid specs without consuming a job id.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SpecError> {
        spec.validate()?;
        let benchmarks = spec.resolve_benchmarks()?;
        let total = benchmarks.len() * spec.configs.len();
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        Registry::global().counter("service.job.submitted").inc();
        let queued_at = Instant::now();

        let (tx, rx) = std::sync::mpsc::channel();
        let cancel = CancelToken::new();
        self.active
            .lock()
            .expect("active-jobs lock")
            .insert(id.0, cancel.clone());
        let _ = tx.send(JobEvent::Queued {
            job: id,
            cells: total,
        });

        let active = Arc::clone(&self.active);
        let series_store = Arc::clone(&self.series);
        let completed_counter = Arc::clone(&self.jobs_completed);
        let priority = spec.priority;
        self.pool.submit(priority, cancel.clone(), move |token| {
            Registry::global()
                .histogram("service.job.queue_wait_us")
                .record(elapsed_us(queued_at));
            // A panicking cell must still produce a terminal event —
            // otherwise the handle (and any TCP client streaming it)
            // would wait forever on a stream that went silent.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_job(id, &spec, &benchmarks, total, &tx, token, &series_store)
            }));
            // Bookkeeping strictly before the terminal event: a caller
            // that has seen the terminal event observes the job as done
            // (no longer cancellable, counted as completed).
            completed_counter.fetch_add(1, Ordering::Relaxed);
            Registry::global().counter("service.job.completed").inc();
            active.lock().expect("active-jobs lock").remove(&id.0);
            let terminal = match outcome {
                Ok(terminal) => terminal,
                Err(payload) => Some(JobEvent::Failed {
                    job: id,
                    error: panic_message(payload.as_ref()),
                }),
            };
            if let Some(terminal) = terminal {
                let _ = tx.send(terminal);
            }
        });
        Ok(JobHandle {
            id,
            events: rx,
            cancel,
        })
    }

    /// Cancels a job by id (the TCP path — in-process callers use
    /// [`JobHandle::cancel`]). Returns false when the job is unknown or
    /// already terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        match self.active.lock().expect("active-jobs lock").get(&id.0) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Blocks until every queued and running job reached its terminal
    /// event — the server's shutdown drain, independent of how many
    /// handles or connection threads still reference the service.
    pub fn drain(&self) {
        self.pool.wait_idle();
    }

    /// Current cache and queue counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            traces: workloads::trace_cache_stats(),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
        }
    }

    /// The merged sim-time series a job recorded (specs with a nonzero
    /// `epoch_width`, any machine shape), available once the job is
    /// terminal. `None` for unknown jobs, jobs still running, and jobs
    /// that recorded nothing.
    #[must_use]
    pub fn job_series(&self, id: JobId) -> Option<SeriesSnapshot> {
        self.series
            .lock()
            .expect("series-store lock")
            .get(&id.0)
            .cloned()
    }

    /// A deterministic snapshot of the process-wide telemetry registry:
    /// `service.job.*` / `service.cell.*` counters and timing
    /// histograms plus the `workloads.trace_cache.*` counters (the TCP
    /// `metrics` endpoint reports exactly this).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        Registry::global().snapshot()
    }
}

/// Microseconds elapsed since `start`, saturating into `u64`.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Best-effort human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// Runs one job's cells in order on the calling worker thread and
/// returns the terminal event (the caller sends it after bookkeeping),
/// or `None` when the handle disappeared mid-run.
fn run_job(
    id: JobId,
    spec: &JobSpec,
    benchmarks: &[Benchmark],
    total: usize,
    tx: &Sender<JobEvent>,
    cancel: &CancelToken,
    series_store: &Mutex<std::collections::HashMap<u64, SeriesSnapshot>>,
) -> Option<JobEvent> {
    let _ = tx.send(JobEvent::Started { job: id });
    let mut merged: Option<SimResult> = None;
    let mut job_series: Option<SeriesSnapshot> = None;
    let mut completed = 0usize;
    // Baseline for the live metric frames: each cell streams the
    // registry counters that moved while it ran.
    let mut metrics_base = Registry::global().snapshot();
    'cells: for bench in benchmarks {
        for config in &spec.configs {
            if cancel.is_cancelled() {
                break 'cells;
            }
            let run_started = Instant::now();
            let (result, cell_series) = run_cell(bench, config, spec);
            Registry::global()
                .histogram("service.cell.run_us")
                .record(elapsed_us(run_started));
            if let Some(cell_series) = cell_series {
                match &mut job_series {
                    Some(s) => s.merge(&cell_series),
                    None => job_series = Some(cell_series),
                }
            }
            let cell_merged = result.merged();
            match &mut merged {
                Some(m) => m.merge(&cell_merged),
                None => merged = Some(cell_merged),
            }
            let stream_started = Instant::now();
            let delivered = tx.send(JobEvent::Cell {
                job: id,
                index: completed,
                total,
                result,
            });
            Registry::global()
                .histogram("service.cell.stream_us")
                .record(elapsed_us(stream_started));
            Registry::global().counter("service.cell.completed").inc();
            completed += 1;
            if delivered.is_err() {
                // The handle is gone — nobody can observe further cells
                // or a terminal event; abandon the orphaned job.
                return None;
            }
            let now_snap = Registry::global().snapshot();
            let frame = now_snap.delta_since(&metrics_base);
            metrics_base = now_snap;
            if tx
                .send(JobEvent::Metrics {
                    job: id,
                    counters: frame.counters,
                })
                .is_err()
            {
                return None;
            }
        }
    }
    // Publish whatever was recorded strictly before the terminal event,
    // so a caller that saw it can immediately fetch the series.
    if let Some(series) = job_series {
        series_store
            .lock()
            .expect("series-store lock")
            .insert(id.0, series);
    }
    if completed < total {
        return Some(JobEvent::Cancelled { job: id, completed });
    }
    Some(JobEvent::Finished {
        job: id,
        summary: JobSummary {
            cells: completed,
            merged: merged.expect("a job has at least one cell"),
        },
    })
}

/// Runs one benchmark × configuration cell with the spec's machine
/// shape: `spec.cores` rate-mode copies of the trace over a
/// `spec.channels`-way [`ShardedEngine`]. Traces come from
/// [`Benchmark::generate_shared`], so a repeated spec hits the warm
/// in-process cache while its trace is among the
/// [`workloads::TRACE_MEMO_CAPACITY`] most recently used ones (older
/// traces and restarts hit the disk tier).
///
/// When the spec set a nonzero `epoch_width` the cell also returns its
/// sim-time series (scheduler and channel layers merged), whatever the
/// shape.
fn run_cell(
    bench: &Benchmark,
    config: &secddr_core::config::SecurityConfig,
    spec: &JobSpec,
) -> (CellResult, Option<SeriesSnapshot>) {
    let trace = bench.generate_shared(spec.instructions, spec.seed);
    let cpu_cfg = spec.cpu_config();
    let mut engine =
        ShardedEngine::with_options(*config, cpu_cfg.clock_mhz, spec.interleave(), spec.options);
    if spec.epoch_width > 0 {
        engine.enable_series(spec.epoch_width);
    }
    let mut sys = MultiCoreSystem::new(spec.cores, cpu_cfg, engine);
    if spec.epoch_width > 0 {
        sys.enable_series(spec.epoch_width);
    }
    let run = sys.run(CoreTrace::rate(&trace, DATA_SPAN, spec.cores));
    let mut series = sys.backend_mut().series_snapshot();
    if let (Some(series), Some(scheduler)) = (&mut series, sys.series_snapshot()) {
        series.merge(&scheduler);
    }
    let result = CellResult {
        benchmark: bench.name().to_string(),
        config: config.label(),
        per_core: run.per_core,
        engine: sys.backend_mut().stats(),
    };
    (result, series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SuiteSel, Workload};

    fn tiny_spec(name: &str) -> JobSpec {
        let mut spec = JobSpec::bench(name);
        spec.instructions = 3_000;
        spec
    }

    #[test]
    fn job_streams_ordered_events_to_completion() {
        let service = ExperimentService::with_threads(2);
        let handle = service.submit(tiny_spec("povray")).unwrap();
        let events: Vec<JobEvent> = handle.events().collect();
        assert!(matches!(events[0], JobEvent::Queued { cells: 1, .. }));
        assert!(matches!(events[1], JobEvent::Started { .. }));
        assert!(matches!(
            events[2],
            JobEvent::Cell {
                index: 0,
                total: 1,
                ..
            }
        ));
        let JobEvent::Metrics { counters, .. } = &events[3] else {
            panic!("every cell streams a live metrics frame: {events:?}");
        };
        assert!(
            counters.get("service.cell.completed").copied() >= Some(1),
            "the frame carries the deltas of the cell that just ran: {counters:?}"
        );
        let JobEvent::Finished { summary, .. } = &events[4] else {
            panic!("terminal event must be Finished: {events:?}");
        };
        assert_eq!(summary.cells, 1);
        assert!(summary.merged.instructions > 0);
        let stats = service.stats();
        assert_eq!(stats.jobs_submitted, 1);
    }

    #[test]
    fn multi_cell_jobs_index_cells_in_order() {
        let mut spec = tiny_spec("mcf");
        spec.configs = vec![
            secddr_core::config::SecurityConfig::secddr_ctr(),
            secddr_core::config::SecurityConfig::tdx_baseline(),
        ];
        let service = ExperimentService::with_threads(2);
        let outcome = service.submit(spec).unwrap().wait();
        assert!(outcome.finished());
        assert_eq!(outcome.cells.len(), 2);
        assert_eq!(outcome.cells[0].config, "SecDDR+CTR");
        assert_eq!(outcome.cells[1].config, "TDX baseline");
    }

    #[test]
    fn cancellation_stops_remaining_cells() {
        let service = ExperimentService::with_threads(1);
        // Occupy the single worker so cancel lands before the job runs.
        let mut blocker = tiny_spec("povray");
        blocker.instructions = 30_000;
        let blocker = service.submit(blocker).unwrap();
        let mut spec = tiny_spec("mcf");
        spec.workload = Workload::Suite(SuiteSel::Gapbs);
        let handle = service.submit(spec).unwrap();
        handle.cancel();
        let outcome_blocked = blocker.wait();
        assert!(outcome_blocked.finished());
        let events: Vec<JobEvent> = handle.events().collect();
        let terminal = events.last().unwrap();
        assert!(
            matches!(terminal, JobEvent::Cancelled { completed: 0, .. }),
            "{events:?}"
        );
    }

    #[test]
    fn cancel_by_id_reaches_live_jobs_only() {
        let service = ExperimentService::with_threads(1);
        let handle = service.submit(tiny_spec("povray")).unwrap();
        let id = handle.id();
        let _ = handle.wait();
        // The job already reached its terminal event; its token is gone.
        assert!(!service.cancel(id), "terminal jobs cannot be cancelled");
        assert!(!service.cancel(JobId(999)), "unknown id");
    }

    #[test]
    fn finished_jobs_show_up_in_the_telemetry_snapshot() {
        let service = ExperimentService::with_threads(1);
        let outcome = service.submit(tiny_spec("povray")).unwrap().wait();
        assert!(outcome.finished());
        // The registry is process-wide (other tests run jobs too), so
        // assert floors rather than exact values.
        let snap = service.telemetry_snapshot();
        assert!(snap.counter("service.job.submitted") >= 1);
        assert!(snap.counter("service.job.completed") >= 1);
        assert!(snap.counter("service.cell.completed") >= 1);
        let waits = &snap.histograms["service.job.queue_wait_us"];
        assert!(waits.count >= 1, "queue wait recorded per job");
        let runs = &snap.histograms["service.cell.run_us"];
        assert!(runs.count >= 1 && runs.sum > 0, "cell run time recorded");
    }

    #[test]
    fn series_specs_store_a_fetchable_job_series() {
        let service = ExperimentService::with_threads(1);
        // Every shape records, the 1-core/1-channel one included.
        for (cores, channels) in [(2, 2), (1, 1)] {
            let mut spec = tiny_spec("mcf");
            spec.cores = cores;
            spec.channels = channels;
            spec.epoch_width = 2_048;
            let handle = service.submit(spec).unwrap();
            let id = handle.id();
            assert!(handle.wait().finished());
            let series = service.job_series(id).expect("recorded series stored");
            assert_eq!(series.epoch_width, 2_048);
            assert!(
                series.row_total("dram.decisions_total") > 0,
                "{cores}x{channels}"
            );
            assert!(
                series.row_total("multicore.core.steps") > 0,
                "{cores}x{channels}"
            );
        }
        // Jobs without an epoch width store nothing.
        let plain = service.submit(tiny_spec("mcf")).unwrap();
        let plain_id = plain.id();
        assert!(plain.wait().finished());
        assert!(service.job_series(plain_id).is_none());
    }

    #[test]
    fn invalid_specs_are_rejected_at_submit() {
        let service = ExperimentService::with_threads(1);
        assert!(service.submit(tiny_spec("nope")).is_err());
        let stats = service.stats();
        assert_eq!(stats.jobs_submitted, 0, "rejected specs consume nothing");
    }
}
