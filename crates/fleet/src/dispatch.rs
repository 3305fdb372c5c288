//! Multi-worker dispatcher: fans jobs out to N `secddr-serve` worker
//! processes, cell by cell, with durable logging and whole-result
//! memoization.
//!
//! The dispatcher decomposes each accepted [`JobSpec`] into its
//! benchmark×config cells ([`JobSpec::cell_specs`]), logs the spec to
//! the write-ahead [`JobLog`] *before* dispatching anything, then
//! places cells on the least-loaded alive worker (per-worker
//! outstanding-cell accounting, capped by
//! [`DispatcherConfig::max_outstanding`]). Finished cell payloads are
//! stored in the [`ResultStore`] keyed by the cell spec's canonical
//! content hash, so identical resubmissions — and identical cells
//! inside *different* sweeps — are served without touching a worker.
//!
//! Requeue-on-death is sound because the simulator is deterministic: a
//! cell re-run on another worker is proven to produce the bit-identical
//! payload, so a worker crash mid-cell costs latency, never
//! correctness. Worker death is detected three ways — reader EOF,
//! write failure on dispatch, and periodic ping health checks — and
//! every in-flight cell of a dead worker goes back to the front of the
//! pending queue.
//!
//! All state lives on a single scheduler thread fed by an mpsc channel
//! (per-worker reader threads, a health-tick thread, and API calls all
//! send `Msg`s), so there are no locks around job state and event
//! ordering per job is trivially the service's ordering: queued →
//! started → cell (in index order) → finished/cancelled/failed.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use secddr_service::{JobSpec, Json};
use secddr_telemetry::{Counter, Gauge, Registry};

use crate::joblog::{JobLog, Terminal};
use crate::store::ResultStore;

/// Configuration for [`Dispatcher::start`].
#[derive(Debug, Clone)]
pub struct DispatcherConfig {
    /// Worker addresses (`host:port` of running `secddr-serve`s).
    pub workers: Vec<String>,
    /// Write-ahead log directory; `None` disables durability.
    pub log_dir: Option<PathBuf>,
    /// Result-store directory; `None` keeps memoization memory-only.
    pub store_dir: Option<PathBuf>,
    /// Max cells in flight per worker (least-loaded placement cap).
    pub max_outstanding: usize,
    /// Interval between ping health checks.
    pub health_interval: Duration,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        Self {
            workers: Vec::new(),
            log_dir: None,
            store_dir: None,
            max_outstanding: 4,
            health_interval: Duration::from_secs(2),
        }
    }
}

/// One worker's externally-visible state, as [`Dispatcher::workers`]
/// reports it.
#[derive(Debug, Clone)]
pub struct WorkerStatus {
    /// The address the dispatcher connected (or failed to connect) to.
    pub addr: String,
    /// Whether the link is currently up.
    pub alive: bool,
    /// Cells currently in flight on this worker.
    pub outstanding: usize,
}

/// A submitted job's handle: its id, cell count, and event stream.
///
/// Events are the same line-protocol objects a `secddr-serve` client
/// sees (`queued`, `started`, `cell`, `finished`/`cancelled`/`failed`),
/// with this dispatcher's job id. The channel closes after the
/// terminal event.
#[derive(Debug)]
pub struct FleetJobHandle {
    /// Dispatcher-assigned job id.
    pub id: u64,
    /// Number of benchmark×config cells in the job.
    pub cells: usize,
    events: mpsc::Receiver<Json>,
}

impl FleetJobHandle {
    /// Blocks for the next event; `None` once the stream has closed
    /// (i.e. after the terminal event has been delivered).
    #[must_use]
    pub fn next_event(&self) -> Option<Json> {
        self.events.recv().ok()
    }

    /// Collects every remaining event through the terminal one.
    #[must_use]
    pub fn wait(self) -> Vec<Json> {
        self.events.iter().collect()
    }
}

enum Msg {
    Submit {
        spec: JobSpec,
        events: Option<mpsc::Sender<Json>>,
        from_log: bool,
        reply: Option<mpsc::Sender<Result<(u64, usize), String>>>,
    },
    Cancel {
        job: u64,
        reply: mpsc::Sender<bool>,
    },
    FromWorker {
        worker: usize,
        line: String,
    },
    WorkerGone {
        worker: usize,
    },
    HealthTick,
    Drain {
        reply: mpsc::Sender<()>,
    },
    Status {
        reply: mpsc::Sender<Vec<WorkerStatus>>,
    },
    TrackedJobs {
        reply: mpsc::Sender<usize>,
    },
    Sever {
        worker: usize,
    },
    Stop,
}

enum CellState {
    Pending,
    Inflight(usize),
    Done(Json),
}

struct Cell {
    spec: JobSpec,
    key: u64,
    state: CellState,
}

struct Job {
    hash: u64,
    total: usize,
    cells: Vec<Cell>,
    events: Option<mpsc::Sender<Json>>,
    /// Cells emitted so far — events go out strictly in index order.
    next_emit: usize,
}

struct Worker {
    addr: String,
    writer: Option<Arc<Mutex<TcpStream>>>,
    outstanding: usize,
    /// Cells submitted but not yet acked. The worker handles requests
    /// sequentially per connection, so acks arrive in submission order
    /// and FIFO matching is exact.
    awaiting_ack: VecDeque<(u64, usize)>,
    /// Worker-side job id → (dispatcher job, cell index).
    wjobs: HashMap<u64, (u64, usize)>,
}

struct Metrics {
    jobs_submitted: Counter,
    jobs_replayed: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    jobs_cancelled: Counter,
    cells_dispatched: Counter,
    cells_requeued: Counter,
    worker_deaths: Counter,
    workers_alive: Gauge,
}

impl Metrics {
    fn new() -> Self {
        let r = Registry::global();
        Self {
            jobs_submitted: r.counter("fleet.jobs.submitted"),
            jobs_replayed: r.counter("fleet.jobs.replayed"),
            jobs_completed: r.counter("fleet.jobs.completed"),
            jobs_failed: r.counter("fleet.jobs.failed"),
            jobs_cancelled: r.counter("fleet.jobs.cancelled"),
            cells_dispatched: r.counter("fleet.cells.dispatched"),
            cells_requeued: r.counter("fleet.cells.requeued"),
            worker_deaths: r.counter("fleet.worker.deaths"),
            workers_alive: r.gauge("fleet.workers.alive"),
        }
    }
}

struct Core {
    log: Option<JobLog>,
    store: ResultStore,
    workers: Vec<Worker>,
    /// Jobs accepted but not yet terminal: each terminal path removes
    /// its job, and every later lookup treats a missing id as stale.
    jobs: HashMap<u64, Job>,
    next_job: u64,
    /// Cells waiting for a worker slot, FIFO (requeues go to the
    /// front so interrupted work finishes first).
    pending: VecDeque<(u64, usize)>,
    drain_waiters: Vec<mpsc::Sender<()>>,
    max_outstanding: usize,
    metrics: Metrics,
}

impl Core {
    fn alive_count(&self) -> u64 {
        self.workers.iter().filter(|w| w.writer.is_some()).count() as u64
    }

    fn write_to_worker(&self, idx: usize, json: &Json) -> std::io::Result<()> {
        let Some(writer) = &self.workers[idx].writer else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "worker link is down",
            ));
        };
        let writer = Arc::clone(writer);
        let mut line = json.to_string();
        line.push('\n');
        let mut stream = writer
            .lock()
            .map_err(|_| std::io::Error::other("worker writer poisoned"))?;
        (*stream).write_all(line.as_bytes())
    }

    fn emit(&mut self, job_id: u64, event: Json) {
        if let Some(job) = self.jobs.get_mut(&job_id) {
            if let Some(events) = &job.events {
                if events.send(event).is_err() {
                    job.events = None; // listener went away; keep running
                }
            }
        }
    }

    /// Emits a job's terminal `event`, retires the job (dropping it
    /// closes the event stream and frees its cells), and logs `outcome`.
    fn terminate(&mut self, job_id: u64, event: Json, outcome: Terminal) {
        self.emit(job_id, event);
        let Some(hash) = self.jobs.remove(&job_id).map(|job| job.hash) else {
            return;
        };
        if let Some(log) = &mut self.log {
            // A failed terminal write costs a redundant (deterministic,
            // store-served) replay on restart — not worth failing the
            // job over.
            let _ = log.append_terminal(hash, outcome);
        }
    }

    fn job_done(&mut self) {
        if self.jobs.is_empty() {
            for waiter in self.drain_waiters.drain(..) {
                let _ = waiter.send(());
            }
        }
    }

    fn submit(
        &mut self,
        spec: JobSpec,
        events: Option<mpsc::Sender<Json>>,
        from_log: bool,
        reply: Option<mpsc::Sender<Result<(u64, usize), String>>>,
    ) {
        let cell_list = match spec.cell_specs() {
            Ok(cells) => cells,
            Err(e) => {
                if let Some(reply) = reply {
                    let _ = reply.send(Err(e.to_string()));
                }
                return;
            }
        };
        let hash = spec.content_hash();
        if from_log {
            self.metrics.jobs_replayed.inc();
        } else {
            if let Some(log) = &mut self.log {
                if let Err(e) = log.append_submitted(hash, &spec) {
                    if let Some(reply) = reply {
                        let _ = reply.send(Err(format!("job log write failed: {e}")));
                    }
                    return;
                }
            }
            self.metrics.jobs_submitted.inc();
        }
        let id = self.next_job;
        self.next_job += 1;
        let total = cell_list.len();
        if let Some(reply) = reply {
            let _ = reply.send(Ok((id, total)));
        }

        let mut cells = Vec::with_capacity(total);
        let mut pending_cells = Vec::new();
        for (index, cell_spec) in cell_list.into_iter().enumerate() {
            let key = cell_spec.content_hash();
            let state = match self.store.lookup(key).and_then(|p| Json::parse(&p).ok()) {
                Some(payload) => CellState::Done(payload),
                None => {
                    pending_cells.push(index);
                    CellState::Pending
                }
            };
            cells.push(Cell {
                spec: cell_spec,
                key,
                state,
            });
        }
        self.jobs.insert(
            id,
            Job {
                hash,
                total,
                cells,
                events,
                next_emit: 0,
            },
        );
        self.emit(
            id,
            Json::Obj(vec![
                ("type".into(), Json::str("queued")),
                ("job".into(), Json::u64(id)),
                ("cells".into(), Json::u64(total as u64)),
            ]),
        );
        self.emit(
            id,
            Json::Obj(vec![
                ("type".into(), Json::str("started")),
                ("job".into(), Json::u64(id)),
            ]),
        );
        for index in pending_cells {
            self.pending.push_back((id, index));
        }
        self.try_emit(id); // fully-cached jobs finish synchronously
        self.pump();
    }

    /// Places pending cells on the least-loaded alive workers until
    /// either the queue or the capacity runs out.
    fn pump(&mut self) {
        loop {
            if self.pending.is_empty() {
                return;
            }
            let Some(widx) = self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.writer.is_some() && w.outstanding < self.max_outstanding)
                .min_by_key(|(_, w)| w.outstanding)
                .map(|(i, _)| i)
            else {
                return;
            };
            let Some((job_id, cell_idx)) = self.pending.pop_front() else {
                return;
            };
            let Some(spec_json) = self.jobs.get(&job_id).and_then(|job| {
                matches!(job.cells[cell_idx].state, CellState::Pending)
                    .then(|| job.cells[cell_idx].spec.to_json())
            }) else {
                continue; // stale entry (job terminal or cell no longer pending)
            };
            let line = Json::Obj(vec![
                ("cmd".into(), Json::str("submit")),
                ("spec".into(), spec_json),
            ]);
            if self.write_to_worker(widx, &line).is_ok() {
                if let Some(job) = self.jobs.get_mut(&job_id) {
                    job.cells[cell_idx].state = CellState::Inflight(widx);
                }
                let worker = &mut self.workers[widx];
                worker.outstanding += 1;
                worker.awaiting_ack.push_back((job_id, cell_idx));
                self.metrics.cells_dispatched.inc();
            } else {
                self.pending.push_front((job_id, cell_idx));
                self.worker_gone(widx);
            }
        }
    }

    /// Emits completed cells in index order; when all cells are out,
    /// folds the merged summary and finishes the job.
    fn try_emit(&mut self, job_id: u64) {
        loop {
            let Some(job) = self.jobs.get_mut(&job_id) else {
                return;
            };
            if job.next_emit < job.total {
                let index = job.next_emit;
                let CellState::Done(payload) = &job.cells[index].state else {
                    return; // next cell not done yet — stay ordered
                };
                let Json::Obj(body) = payload.clone() else {
                    return;
                };
                let mut members = vec![
                    ("type".into(), Json::str("cell")),
                    ("job".into(), Json::u64(job_id)),
                    ("index".into(), Json::u64(index as u64)),
                    ("total".into(), Json::u64(job.total as u64)),
                ];
                members.extend(body);
                job.next_emit += 1;
                self.emit(job_id, Json::Obj(members));
                continue;
            }
            // All cells emitted: fold the job-level summary exactly the
            // way SimResult::merge does (instructions sum, cycles max,
            // llc misses sum, ipc recomputed) so the finished event is
            // bit-identical to a single-service run.
            let mut instructions = 0u64;
            let mut cycles = 0u64;
            let mut llc_misses = 0u64;
            for cell in &job.cells {
                let CellState::Done(payload) = &cell.state else {
                    return;
                };
                let merged = payload.get("merged");
                let field = |name: &str| {
                    merged
                        .and_then(|m| m.get(name))
                        .and_then(Json::as_u64)
                        .unwrap_or(0)
                };
                instructions += field("instructions");
                cycles = cycles.max(field("cycles"));
                llc_misses += field("llc_misses");
            }
            let ipc = if cycles == 0 {
                0.0
            } else {
                instructions as f64 / cycles as f64
            };
            let total = job.total;
            self.terminate(
                job_id,
                Json::Obj(vec![
                    ("type".into(), Json::str("finished")),
                    ("job".into(), Json::u64(job_id)),
                    ("cells".into(), Json::u64(total as u64)),
                    (
                        "merged".into(),
                        Json::Obj(vec![
                            ("instructions".into(), Json::u64(instructions)),
                            ("cycles".into(), Json::u64(cycles)),
                            ("ipc".into(), Json::f64(ipc)),
                            ("llc_misses".into(), Json::u64(llc_misses)),
                        ]),
                    ),
                ]),
                Terminal::Finished,
            );
            self.metrics.jobs_completed.inc();
            self.job_done();
            return;
        }
    }

    fn fail_job(&mut self, job_id: u64, error: &str) {
        if !self.jobs.contains_key(&job_id) {
            return;
        }
        self.terminate(
            job_id,
            Json::Obj(vec![
                ("type".into(), Json::str("failed")),
                ("job".into(), Json::u64(job_id)),
                ("error".into(), Json::str(error.to_string())),
            ]),
            Terminal::Failed,
        );
        self.metrics.jobs_failed.inc();
        self.cancel_inflight(job_id);
        self.job_done();
    }

    fn cancel(&mut self, job_id: u64) -> bool {
        let Some(completed) = self.jobs.get(&job_id).map(|job| job.next_emit) else {
            return false;
        };
        self.terminate(
            job_id,
            Json::Obj(vec![
                ("type".into(), Json::str("cancelled")),
                ("job".into(), Json::u64(job_id)),
                ("completed".into(), Json::u64(completed as u64)),
            ]),
            Terminal::Cancelled,
        );
        self.metrics.jobs_cancelled.inc();
        self.cancel_inflight(job_id);
        self.job_done();
        true
    }

    /// Best-effort worker-side cancellation of a terminal job's
    /// in-flight cells. The wjob mappings stay until the workers send
    /// their own terminals (which release the outstanding slots).
    fn cancel_inflight(&mut self, job_id: u64) {
        for widx in 0..self.workers.len() {
            let wjobs: Vec<u64> = self.workers[widx]
                .wjobs
                .iter()
                .filter(|(_, &(job, _))| job == job_id)
                .map(|(&wjob, _)| wjob)
                .collect();
            for wjob in wjobs {
                let line = Json::Obj(vec![
                    ("cmd".into(), Json::str("cancel")),
                    ("job".into(), Json::u64(wjob)),
                ]);
                let _ = self.write_to_worker(widx, &line);
            }
        }
    }

    fn on_worker_line(&mut self, idx: usize, line: &str) {
        let Ok(json) = Json::parse(line.trim()) else {
            return;
        };
        match json.get("type").and_then(Json::as_str).unwrap_or("") {
            "submitted" => {
                let Some(wjob) = json.get("job").and_then(Json::as_u64) else {
                    return;
                };
                if let Some(assignment) = self.workers[idx].awaiting_ack.pop_front() {
                    self.workers[idx].wjobs.insert(wjob, assignment);
                }
            }
            "error" => {
                // A submit was rejected before getting a job id; acks
                // are FIFO, so the front of the queue is the casualty.
                if let Some((job_id, _)) = self.workers[idx].awaiting_ack.pop_front() {
                    self.workers[idx].outstanding = self.workers[idx].outstanding.saturating_sub(1);
                    let message = json
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("worker rejected cell")
                        .to_string();
                    self.fail_job(job_id, &message);
                    self.pump();
                }
            }
            "cell" => {
                let Some(wjob) = json.get("job").and_then(Json::as_u64) else {
                    return;
                };
                let Some(&(job_id, cell_idx)) = self.workers[idx].wjobs.get(&wjob) else {
                    return;
                };
                // The stored payload is the cell body minus the
                // envelope (type/job/index/total), so it re-emits
                // bit-identically under any job id and cell index.
                let Json::Obj(members) = json else {
                    return;
                };
                let payload = Json::Obj(
                    members
                        .into_iter()
                        .filter(|(key, _)| {
                            !matches!(key.as_str(), "type" | "job" | "index" | "total")
                        })
                        .collect(),
                );
                let key = match self.jobs.get(&job_id) {
                    Some(job) if matches!(job.cells[cell_idx].state, CellState::Inflight(_)) => {
                        job.cells[cell_idx].key
                    }
                    _ => return,
                };
                self.store.insert(key, &payload.to_string());
                if let Some(job) = self.jobs.get_mut(&job_id) {
                    job.cells[cell_idx].state = CellState::Done(payload);
                }
                self.try_emit(job_id);
            }
            terminal @ ("finished" | "cancelled" | "failed") => {
                let Some(wjob) = json.get("job").and_then(Json::as_u64) else {
                    return;
                };
                let Some((job_id, cell_idx)) = self.workers[idx].wjobs.remove(&wjob) else {
                    return;
                };
                self.workers[idx].outstanding = self.workers[idx].outstanding.saturating_sub(1);
                match terminal {
                    "failed" => {
                        let message = json
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("worker cell failed")
                            .to_string();
                        self.fail_job(job_id, &message);
                    }
                    "cancelled" => {
                        // The worker dropped a cell we still need
                        // (e.g. its own shutdown path) — requeue it.
                        if let Some(job) = self.jobs.get_mut(&job_id) {
                            if matches!(job.cells[cell_idx].state, CellState::Inflight(_)) {
                                job.cells[cell_idx].state = CellState::Pending;
                                self.pending.push_front((job_id, cell_idx));
                                self.metrics.cells_requeued.inc();
                            }
                        }
                    }
                    _ => {} // finished: the cell payload already landed
                }
                self.pump();
            }
            _ => {} // pong / queued / started / metrics_frame
        }
    }

    /// Tears down a worker link and requeues its in-flight cells.
    /// Callers follow up with [`Core::pump`].
    fn worker_gone(&mut self, idx: usize) {
        let worker = &mut self.workers[idx];
        if worker.writer.is_none() && worker.awaiting_ack.is_empty() && worker.wjobs.is_empty() {
            return; // already torn down (EOF after write failure, etc.)
        }
        if let Some(writer) = worker.writer.take() {
            if let Ok(stream) = writer.lock() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        let mut lost: Vec<(u64, usize)> = worker.awaiting_ack.drain(..).collect();
        lost.extend(worker.wjobs.drain().map(|(_, assignment)| assignment));
        worker.outstanding = 0;
        self.metrics.worker_deaths.inc();
        self.metrics.workers_alive.set(self.alive_count());
        let mut requeued = 0u64;
        for (job_id, cell_idx) in lost {
            if let Some(job) = self.jobs.get_mut(&job_id) {
                if matches!(job.cells[cell_idx].state, CellState::Inflight(w) if w == idx) {
                    job.cells[cell_idx].state = CellState::Pending;
                    self.pending.push_front((job_id, cell_idx));
                    requeued += 1;
                }
            }
        }
        self.metrics.cells_requeued.add(requeued);
    }

    fn health_tick(&mut self) {
        let ping = Json::Obj(vec![("cmd".into(), Json::str("ping"))]);
        for idx in 0..self.workers.len() {
            if self.workers[idx].writer.is_some() && self.write_to_worker(idx, &ping).is_err() {
                self.worker_gone(idx);
            }
        }
        self.pump();
    }

    fn drain(&mut self, reply: mpsc::Sender<()>) {
        if self.jobs.is_empty() {
            let _ = reply.send(());
        } else {
            self.drain_waiters.push(reply);
        }
    }

    fn status(&self) -> Vec<WorkerStatus> {
        self.workers
            .iter()
            .map(|w| WorkerStatus {
                addr: w.addr.clone(),
                alive: w.writer.is_some(),
                outstanding: w.outstanding,
            })
            .collect()
    }
}

fn scheduler_loop(mut core: Core, rx: mpsc::Receiver<Msg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Stop => break,
            Msg::Submit {
                spec,
                events,
                from_log,
                reply,
            } => core.submit(spec, events, from_log, reply),
            Msg::Cancel { job, reply } => {
                let cancelled = core.cancel(job);
                let _ = reply.send(cancelled);
            }
            Msg::FromWorker { worker, line } => core.on_worker_line(worker, &line),
            Msg::WorkerGone { worker } | Msg::Sever { worker } => {
                core.worker_gone(worker);
                core.pump();
            }
            Msg::HealthTick => core.health_tick(),
            Msg::Drain { reply } => core.drain(reply),
            Msg::Status { reply } => {
                let _ = reply.send(core.status());
            }
            Msg::TrackedJobs { reply } => {
                let _ = reply.send(core.jobs.len());
            }
        }
    }
}

fn reader_loop(idx: usize, stream: TcpStream, tx: mpsc::Sender<Msg>) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                let _ = tx.send(Msg::WorkerGone { worker: idx });
                return;
            }
            Ok(_) => {
                if line.trim().is_empty() {
                    continue;
                }
                if tx
                    .send(Msg::FromWorker {
                        worker: idx,
                        line: line.clone(),
                    })
                    .is_err()
                {
                    return;
                }
            }
        }
    }
}

/// The dispatcher: owns the scheduler thread, the worker links, the
/// job log, and the result store. Dropping it stops the scheduler and
/// closes every worker link (without shutting the workers down).
#[derive(Debug)]
pub struct Dispatcher {
    tx: mpsc::Sender<Msg>,
    scheduler: Option<JoinHandle<()>>,
    readers: Vec<JoinHandle<()>>,
    sockets: Vec<TcpStream>,
    replayed: usize,
}

impl Dispatcher {
    /// Starts the dispatcher: opens the log and store, connects the
    /// workers, and replays any incomplete jobs from the log
    /// (deduped by content hash, original submission order).
    ///
    /// Unreachable workers are recorded as dead, not errors — they
    /// count toward `fleet.worker.deaths` and the dispatcher runs
    /// with whatever is left.
    ///
    /// # Errors
    ///
    /// Propagates log/store open failures.
    pub fn start(config: DispatcherConfig) -> std::io::Result<Self> {
        let log = match &config.log_dir {
            Some(dir) => Some(JobLog::open(dir)?),
            None => None,
        };
        let store = ResultStore::open(config.store_dir.clone())?;
        let replay: Vec<JobSpec> = log
            .as_ref()
            .map(|l| l.incomplete().iter().map(|(_, s)| s.clone()).collect())
            .unwrap_or_default();

        let (tx, rx) = mpsc::channel();
        let metrics = Metrics::new();
        let mut workers = Vec::with_capacity(config.workers.len());
        let mut readers = Vec::new();
        let mut sockets = Vec::new();
        for (idx, addr) in config.workers.iter().enumerate() {
            // `TCP_NODELAY` as at the server end: each submit is one
            // small line that must not wait for a delayed ACK.
            let link = TcpStream::connect(addr).and_then(|stream| {
                stream.set_nodelay(true)?;
                Ok((stream.try_clone()?, stream.try_clone()?, stream))
            });
            match link {
                Ok((reader_stream, shutdown_clone, stream)) => {
                    let tx = tx.clone();
                    readers.push(std::thread::spawn(move || {
                        reader_loop(idx, reader_stream, tx);
                    }));
                    sockets.push(shutdown_clone);
                    workers.push(Worker {
                        addr: addr.clone(),
                        writer: Some(Arc::new(Mutex::new(stream))),
                        outstanding: 0,
                        awaiting_ack: VecDeque::new(),
                        wjobs: HashMap::new(),
                    });
                }
                Err(_) => {
                    metrics.worker_deaths.inc();
                    workers.push(Worker {
                        addr: addr.clone(),
                        writer: None,
                        outstanding: 0,
                        awaiting_ack: VecDeque::new(),
                        wjobs: HashMap::new(),
                    });
                }
            }
        }
        metrics
            .workers_alive
            .set(workers.iter().filter(|w| w.writer.is_some()).count() as u64);

        let core = Core {
            log,
            store,
            workers,
            jobs: HashMap::new(),
            next_job: 1,
            pending: VecDeque::new(),
            drain_waiters: Vec::new(),
            max_outstanding: config.max_outstanding.max(1),
            metrics,
        };
        let scheduler = std::thread::spawn(move || scheduler_loop(core, rx));

        let health_tx = tx.clone();
        let interval = config.health_interval;
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if health_tx.send(Msg::HealthTick).is_err() {
                return; // scheduler is gone; so are we
            }
        });

        let replayed = replay.len();
        for spec in replay {
            let _ = tx.send(Msg::Submit {
                spec,
                events: None,
                from_log: true,
                reply: None,
            });
        }
        Ok(Self {
            tx,
            scheduler: Some(scheduler),
            readers,
            sockets,
            replayed,
        })
    }

    /// Jobs replayed from the log at startup.
    #[must_use]
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Submits a spec; returns a handle streaming its events.
    ///
    /// # Errors
    ///
    /// Invalid specs (unknown benchmark/suite, no configs) and job-log
    /// write failures are returned as messages; either way nothing was
    /// dispatched.
    pub fn submit(&self, spec: &JobSpec) -> Result<FleetJobHandle, String> {
        let (events_tx, events_rx) = mpsc::channel();
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(Msg::Submit {
                spec: spec.clone(),
                events: Some(events_tx),
                from_log: false,
                reply: Some(reply_tx),
            })
            .map_err(|_| "dispatcher stopped".to_string())?;
        let (id, cells) = reply_rx
            .recv()
            .map_err(|_| "dispatcher stopped".to_string())??;
        Ok(FleetJobHandle {
            id,
            cells,
            events: events_rx,
        })
    }

    /// Cancels a job; `true` if it was active.
    pub fn cancel(&self, job: u64) -> bool {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self
            .tx
            .send(Msg::Cancel {
                job,
                reply: reply_tx,
            })
            .is_err()
        {
            return false;
        }
        reply_rx.recv().unwrap_or(false)
    }

    /// Blocks until no job is active. Note: with zero alive workers
    /// and uncached pending cells this waits until a worker returns.
    pub fn drain(&self) {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Msg::Drain { reply: reply_tx }).is_ok() {
            let _ = reply_rx.recv();
        }
    }

    /// Current per-worker status, in configuration order.
    #[must_use]
    pub fn workers(&self) -> Vec<WorkerStatus> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Msg::Status { reply: reply_tx }).is_err() {
            return Vec::new();
        }
        reply_rx.recv().unwrap_or_default()
    }

    /// Jobs the dispatcher still holds: accepted and not yet terminal.
    /// A job is dropped, cells and all, once its terminal event is out.
    #[must_use]
    pub fn tracked_jobs(&self) -> usize {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Msg::TrackedJobs { reply: reply_tx }).is_err() {
            return 0;
        }
        reply_rx.recv().unwrap_or(0)
    }

    /// Forcibly tears down a worker link as if it had died (test and
    /// operations hook; the worker process itself is untouched).
    pub fn sever_worker(&self, worker: usize) {
        let _ = self.tx.send(Msg::Sever { worker });
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Stop);
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        for socket in self.sockets.drain(..) {
            let _ = socket.shutdown(std::net::Shutdown::Both);
        }
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store;

    fn event_type(event: &Json) -> String {
        event
            .get("type")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    }

    #[test]
    fn zero_worker_cancel_reports_zero_completed_cells() {
        let dispatcher = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let mut spec = JobSpec::bench("mcf");
        spec.instructions = 1_000;
        let handle = dispatcher.submit(&spec).unwrap();
        let id = handle.id;
        assert!(dispatcher.cancel(id));
        let events = handle.wait();
        let types: Vec<String> = events.iter().map(event_type).collect();
        assert_eq!(types, vec!["queued", "started", "cancelled"]);
        assert_eq!(
            events[2].get("completed").and_then(Json::as_u64),
            Some(0),
            "no cell ran"
        );
        assert!(!dispatcher.cancel(id), "already terminal");
        assert_eq!(dispatcher.tracked_jobs(), 0, "cancelled job retired");
    }

    #[test]
    fn invalid_spec_is_rejected_without_dispatch() {
        let dispatcher = Dispatcher::start(DispatcherConfig::default()).unwrap();
        let spec = JobSpec::bench("no-such-benchmark");
        assert!(dispatcher.submit(&spec).is_err());
    }

    #[test]
    fn fully_cached_job_finishes_with_zero_workers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "secddr-dispatch-cached-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let mut spec = JobSpec::bench("mcf");
        spec.instructions = 1_000;
        let key = spec.cell_specs().unwrap()[0].content_hash();
        let payload = Json::Obj(vec![
            ("benchmark".into(), Json::str("mcf")),
            ("config".into(), Json::str("baseline")),
            ("aggregate_ipc".into(), Json::f64(1.25)),
            ("per_core".into(), Json::Arr(vec![])),
            (
                "merged".into(),
                Json::Obj(vec![
                    ("instructions".into(), Json::u64(1_000)),
                    ("cycles".into(), Json::u64(800)),
                    ("ipc".into(), Json::f64(1.25)),
                    ("llc_misses".into(), Json::u64(42)),
                ]),
            ),
        ])
        .to_string();
        {
            let mut store = store::ResultStore::open(Some(dir.clone())).unwrap();
            store.insert(key, &payload);
        }
        let dispatcher = Dispatcher::start(DispatcherConfig {
            store_dir: Some(dir.clone()),
            ..DispatcherConfig::default()
        })
        .unwrap();
        let handle = dispatcher.submit(&spec).unwrap();
        assert_eq!(handle.cells, 1);
        let events = handle.wait();
        let types: Vec<String> = events.iter().map(event_type).collect();
        assert_eq!(types, vec!["queued", "started", "cell", "finished"]);
        let merged = events[3].get("merged").unwrap();
        assert_eq!(
            merged.get("instructions").and_then(Json::as_u64),
            Some(1_000)
        );
        assert_eq!(merged.get("cycles").and_then(Json::as_u64), Some(800));
        assert_eq!(merged.get("llc_misses").and_then(Json::as_u64), Some(42));
        dispatcher.drain(); // returns immediately: nothing active
        assert_eq!(dispatcher.tracked_jobs(), 0, "finished job retired");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreachable_worker_is_reported_dead() {
        let dispatcher = Dispatcher::start(DispatcherConfig {
            // Port 1 is never listening on loopback in the test env.
            workers: vec!["127.0.0.1:1".into()],
            ..DispatcherConfig::default()
        })
        .unwrap();
        let status = dispatcher.workers();
        assert_eq!(status.len(), 1);
        assert!(!status[0].alive);
        assert_eq!(status[0].outstanding, 0);
    }
}
