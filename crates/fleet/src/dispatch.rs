//! Multi-worker dispatcher: fans jobs out to N `secddr-serve` worker
//! processes, cell by cell, with durable logging and whole-result
//! memoization.
//!
//! The dispatcher decomposes each accepted [`JobSpec`] into its
//! benchmark×config cells ([`JobSpec::cell_specs`]) and looks each one
//! up in the [`ResultStore`], where finished cell payloads are kept
//! under the cell spec's canonical content hash, so identical
//! resubmissions — and identical cells inside *different* sweeps — are
//! served without touching a worker. A job with a cell left to run has
//! its spec logged to the write-ahead [`JobLog`] *before* anything is
//! dispatched; its cells then go to the least-loaded alive worker
//! (per-worker outstanding-cell accounting, capped by
//! [`DispatcherConfig::max_outstanding`]). A job the store serves whole
//! finishes inside its submit and writes no log record: it leaves
//! nothing a restart would need to replay. A logged job's terminal
//! record is written before its terminal event, so a client that has
//! seen the job end never causes a replay. `fleet.log.appends` counts
//! the records: 0 for a store-served job, 2 for any other that ends.
//!
//! The submitter's reply comes after the store-served cells are
//! emitted, so the events a job has at submit time — all of them, for a
//! store-served job — are queued on its handle before the reply
//! ([`FleetJobHandle::take_ready`] collects them).
//!
//! Requeue-on-death is sound because the simulator is deterministic: a
//! cell re-run on another worker is proven to produce the bit-identical
//! payload, so a worker crash mid-cell costs latency, never
//! correctness. Worker death is detected by reader EOF, by a worker line
//! longer than [`MAX_REQUEST_LINE`](secddr_service::net::MAX_REQUEST_LINE),
//! and by a failed write, whether of a dispatched cell or of the
//! periodic ping. Pongs are not read, so the ping only catches a link
//! whose write fails, not a worker that is connected but stuck. Every in-flight cell of a dead
//! worker goes back to the front of the pending queue.
//!
//! Job events are written and read by the service's codec
//! ([`secddr_service::net`]), and the `finished` summary is the
//! service's `SimResult::merge` fold over [`cell_merged`]. A worker
//! terminal line missing any member `secddr-serve` writes is ignored,
//! like any unknown line.
//!
//! All state lives on a single scheduler thread fed by an mpsc channel
//! (per-worker reader threads, a health-tick thread, and API calls all
//! send `Msg`s), so there are no locks around job state and event
//! ordering per job is trivially the service's ordering: queued →
//! started → cell (in index order) → finished/cancelled/failed.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use secddr_service::net::{cell_body, cell_event, cell_merged, event_to_json, read_capped_line};
use secddr_service::{JobEvent, JobId, JobSpec, JobSummary, Json, WireEvent};
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
/// Events are the line-protocol objects a `secddr-serve` client sees
/// (`queued`, `started`, `cell`, `finished`/`cancelled`/`failed`),
/// built by the service's own codec with this dispatcher's job id. The
/// channel closes after the terminal event.
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

    /// The events already delivered, without blocking, and the handle
    /// back for the rest of the stream — or `None` once the stream has
    /// closed, with the terminal event the last of them.
    #[must_use]
    pub fn take_ready(self) -> (Vec<Json>, Option<Self>) {
        let mut ready = Vec::new();
        loop {
            match self.events.try_recv() {
                Ok(event) => ready.push(event),
                Err(mpsc::TryRecvError::Empty) => return (ready, Some(self)),
                Err(mpsc::TryRecvError::Disconnected) => return (ready, None),
            }
        }
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
    /// The job log holds this job's `submitted` record, so its end must
    /// be logged too.
    logged: bool,
    total: usize,
    cells: Vec<Cell>,
    events: Option<mpsc::Sender<Json>>,
    /// Cells emitted so far — events go out strictly in index order.
    next_emit: usize,
}

impl Job {
    fn emit(&mut self, event: Json) {
        if let Some(events) = &self.events {
            if events.send(event).is_err() {
                self.events = None; // listener went away; keep running
            }
        }
    }
}

struct Worker {
    addr: String,
    writer: Option<Arc<Mutex<TcpStream>>>,
    /// Cells submitted but not yet acked. The worker handles requests
    /// sequentially per connection, so acks arrive in submission order
    /// and FIFO matching is exact.
    awaiting_ack: VecDeque<(u64, usize)>,
    /// Worker-side job id → (dispatcher job, cell index).
    wjobs: HashMap<u64, (u64, usize)>,
}

impl Worker {
    /// Cells placed on this worker that have not ended: submitted and
    /// awaiting their ack, plus acked and running.
    fn outstanding(&self) -> usize {
        self.awaiting_ack.len() + self.wjobs.len()
    }
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
    log_appends: Counter,
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
            log_appends: r.counter("fleet.log.appends"),
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

    /// Logs a logged job's end, then emits its terminal `event` and
    /// retires the job (dropping it closes the stream). The event decides
    /// the job-log outcome, the `fleet.jobs.*` counter, and whether
    /// in-flight cells are cancelled.
    fn terminate(&mut self, event: JobEvent) {
        let job_id = event.job().0;
        let Some(mut job) = self.jobs.remove(&job_id) else {
            return;
        };
        let (outcome, counter) = match &event {
            JobEvent::Finished { .. } => (Terminal::Finished, &self.metrics.jobs_completed),
            JobEvent::Cancelled { .. } => (Terminal::Cancelled, &self.metrics.jobs_cancelled),
            _ => (Terminal::Failed, &self.metrics.jobs_failed),
        };
        if let (true, Some(log)) = (job.logged, &mut self.log) {
            // Before the event, so a client that saw the job end never
            // causes a replay. A failed terminal write costs a redundant
            // (deterministic, store-served) replay on restart — not
            // worth failing the job over.
            if log.append_terminal(job.hash, outcome).is_ok() {
                self.metrics.log_appends.inc();
            }
        }
        job.emit(event_to_json(&event));
        counter.inc();
        if outcome != Terminal::Finished {
            self.cancel_inflight(job_id);
        }
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
        let total = cell_list.len();
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
        let hash = spec.content_hash();
        // A job the store serves whole ends inside this call and leaves
        // nothing to replay, so it is not logged; a replay already is.
        let logged = from_log || !pending_cells.is_empty();
        if from_log {
            self.metrics.jobs_replayed.inc();
        } else {
            if let (true, Some(log)) = (logged, &mut self.log) {
                if let Err(e) = log.append_submitted(hash, &spec) {
                    if let Some(reply) = reply {
                        let _ = reply.send(Err(format!("job log write failed: {e}")));
                    }
                    return;
                }
                self.metrics.log_appends.inc();
            }
            self.metrics.jobs_submitted.inc();
        }
        let id = self.next_job;
        self.next_job += 1;
        let mut job = Job {
            hash,
            logged,
            total,
            cells,
            events,
            next_emit: 0,
        };
        job.emit(event_to_json(&JobEvent::Queued {
            job: JobId(id),
            cells: total,
        }));
        job.emit(event_to_json(&JobEvent::Started { job: JobId(id) }));
        self.jobs.insert(id, job);
        for index in pending_cells {
            self.pending.push_back((id, index));
        }
        // A fully stored job finishes here, so the reply finds every
        // event it will ever have already queued on its handle.
        self.try_emit(id);
        if let Some(reply) = reply {
            let _ = reply.send(Ok((id, total)));
        }
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
                .filter(|(_, w)| w.writer.is_some() && w.outstanding() < self.max_outstanding)
                .min_by_key(|(_, w)| w.outstanding())
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
                self.workers[widx]
                    .awaiting_ack
                    .push_back((job_id, cell_idx));
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
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        while let Some(CellState::Done(body)) = job.cells.get(job.next_emit).map(|c| &c.state) {
            let event = cell_event(job_id, job.next_emit, job.total, body.clone());
            job.next_emit += 1;
            job.emit(event);
        }
        if job.next_emit < job.total {
            return; // next cell not done yet — stay ordered
        }
        // The same fold as the service's: every cell's merged result,
        // first cell first, through SimResult::merge.
        let merged = job
            .cells
            .iter()
            .filter_map(|cell| match &cell.state {
                CellState::Done(body) => Some(cell_merged(body)),
                _ => None,
            })
            .reduce(|mut sum, cell| {
                sum.merge(&cell);
                sum
            })
            .unwrap_or_default();
        let summary = JobSummary {
            cells: job.total,
            merged,
        };
        self.terminate(JobEvent::Finished {
            job: JobId(job_id),
            summary,
        });
    }

    fn fail_job(&mut self, job_id: u64, error: String) {
        self.terminate(JobEvent::Failed {
            job: JobId(job_id),
            error,
        });
    }

    fn cancel(&mut self, job_id: u64) -> bool {
        let Some(completed) = self.jobs.get(&job_id).map(|job| job.next_emit) else {
            return false;
        };
        self.terminate(JobEvent::Cancelled {
            job: JobId(job_id),
            completed,
        });
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
        match json.get("type").and_then(Json::as_str) {
            Some("submitted") => {
                let Some(wjob) = json.get("job").and_then(Json::as_u64) else {
                    return;
                };
                if let Some(assignment) = self.workers[idx].awaiting_ack.pop_front() {
                    self.workers[idx].wjobs.insert(wjob, assignment);
                }
            }
            Some("error") => {
                // A submit was rejected before getting a job id; acks
                // are FIFO, so the front of the queue is the casualty.
                if let Some((job_id, _)) = self.workers[idx].awaiting_ack.pop_front() {
                    let message = json
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("worker rejected cell")
                        .to_string();
                    self.fail_job(job_id, message);
                    self.pump();
                }
            }
            Some("cell") => {
                if let Some((wjob, body)) = cell_body(json) {
                    self.on_worker_cell(idx, wjob, body);
                }
            }
            _ => match WireEvent::from_json(&json) {
                Some(event) if event.is_terminal() => self.on_worker_terminal(idx, event),
                _ => {} // pong / queued / started / metrics_frame
            },
        }
    }

    /// Stores a worker's cell result (the `cell` event minus its
    /// envelope) and emits whatever it unblocks.
    fn on_worker_cell(&mut self, idx: usize, wjob: u64, body: Json) {
        let Some(&(job_id, cell_idx)) = self.workers[idx].wjobs.get(&wjob) else {
            return;
        };
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        let cell = &mut job.cells[cell_idx];
        if !matches!(cell.state, CellState::Inflight(_)) {
            return;
        }
        self.store.insert(cell.key, &body.to_string());
        cell.state = CellState::Done(body);
        self.try_emit(job_id);
    }

    /// Releases the worker slot of a worker-side job that ended. A
    /// failed cell fails its job; a cancelled one (e.g. the worker's
    /// own shutdown) is requeued; a finished one already delivered its
    /// cell.
    fn on_worker_terminal(&mut self, idx: usize, event: WireEvent) {
        let Some((job_id, cell_idx)) = self.workers[idx].wjobs.remove(&event.job()) else {
            return;
        };
        match event {
            WireEvent::Failed { error, .. } => self.fail_job(job_id, error),
            WireEvent::Cancelled { .. } => {
                if let Some(job) = self.jobs.get_mut(&job_id) {
                    if matches!(job.cells[cell_idx].state, CellState::Inflight(_)) {
                        job.cells[cell_idx].state = CellState::Pending;
                        self.pending.push_front((job_id, cell_idx));
                        self.metrics.cells_requeued.inc();
                    }
                }
            }
            _ => {}
        }
        self.pump();
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
                outstanding: w.outstanding(),
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

/// Forwards each line a worker writes to the scheduler. End of stream,
/// a read error, bytes that are not UTF-8, or a line longer than
/// [`MAX_REQUEST_LINE`](secddr_service::net::MAX_REQUEST_LINE) all count
/// as the worker's death, so a worker that streams without newlines
/// cannot grow the dispatcher's memory: its cells requeue and the link is
/// torn down.
fn reader_loop(idx: usize, stream: TcpStream, tx: mpsc::Sender<Msg>) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        let text = match read_capped_line(&mut reader, &mut line) {
            Ok(true) => std::str::from_utf8(&line).ok(),
            Ok(false) | Err(_) => None,
        };
        let Some(text) = text else {
            let _ = tx.send(Msg::WorkerGone { worker: idx });
            return;
        };
        if text.trim().is_empty() {
            continue;
        }
        let msg = Msg::FromWorker {
            worker: idx,
            line: text.to_owned(),
        };
        if tx.send(msg).is_err() {
            return;
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
                        awaiting_ack: VecDeque::new(),
                        wjobs: HashMap::new(),
                    });
                }
                Err(_) => {
                    metrics.worker_deaths.inc();
                    workers.push(Worker {
                        addr: addr.clone(),
                        writer: None,
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

    /// Submits a spec; returns a handle streaming its events. The
    /// events the job had when it was accepted are already on the handle
    /// ([`FleetJobHandle::take_ready`]): every one of them, through the
    /// terminal event, when the result store served all its cells.
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
