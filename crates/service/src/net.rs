//! Line-delimited-JSON TCP front end: [`LineServer`] serves any
//! [`LineHandler`] backend to concurrent clients, and [`ServiceClient`]
//! is the matching blocking client. [`ExperimentServer`] is the server
//! over one [`ExperimentService`] (`secddr-serve`); the fleet crate
//! puts its dispatcher behind the same server (`secddr-dispatch`).
//!
//! # Protocol
//!
//! One JSON object per `\n`-terminated line, both directions.
//! Requests (the last two go to [`LineHandler::command`]; the service
//! answers them):
//!
//! ```text
//! {"cmd":"submit","spec":{…}}      → {"type":"submitted","job":N,"cells":M}
//! {"cmd":"cancel","job":N}         → {"type":"cancel_ack","job":N,"cancelled":bool}
//! {"cmd":"metrics"}                → {"type":"metrics","counters":{…},…}
//! {"cmd":"ping"}                   → {"type":"pong"}
//! {"cmd":"shutdown"}               → {"type":"shutting_down"} (server then exits)
//! {"cmd":"cache_stats"}            → {"type":"cache_stats",…}
//! {"cmd":"series","job":N}         → {"type":"series","job":N,"available":bool,…}
//! ```
//!
//! After a successful submit the job's events stream to the same
//! connection as `{"type":"queued"|"started"|"cell"|"metrics_frame"|
//! "finished"|"cancelled"|"failed","job":N,…}` lines (the service sends
//! one live `metrics_frame` per completed cell). The `submitted` ack is
//! written before any event line of its job. Events of one job are
//! written by one forwarder thread in stream order, so **per-job** event
//! order is preserved; events of different jobs (and command responses)
//! interleave arbitrarily between them — every line carries its job id.
//! Malformed input produces `{"type":"error","message":…}` and keeps
//! the connection open. A request line longer than [`MAX_REQUEST_LINE`]
//! bytes gets an error and the connection is closed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use cpu_model::SimResult;
use secddr_telemetry::Registry;

use crate::json::Json;
use crate::service::{ExperimentService, JobEvent, JobHandle, JobId, ServiceStats};
use crate::spec::JobSpec;

/// Serializes one job event to its wire object.
#[must_use]
pub fn event_to_json(event: &JobEvent) -> Json {
    fn sim_to_json(sim: &SimResult) -> Json {
        Json::Obj(vec![
            ("instructions".into(), Json::u64(sim.instructions)),
            ("cycles".into(), Json::u64(sim.cycles)),
            ("ipc".into(), Json::f64(sim.ipc())),
            ("llc_misses".into(), Json::u64(sim.llc.misses)),
        ])
    }
    match event {
        JobEvent::Queued { job, cells } => Json::Obj(vec![
            ("type".into(), Json::str("queued")),
            ("job".into(), Json::u64(job.0)),
            ("cells".into(), Json::u64(*cells as u64)),
        ]),
        JobEvent::Started { job } => Json::Obj(vec![
            ("type".into(), Json::str("started")),
            ("job".into(), Json::u64(job.0)),
        ]),
        JobEvent::Cell {
            job,
            index,
            total,
            result,
        } => {
            let merged = result.merged();
            Json::Obj(vec![
                ("type".into(), Json::str("cell")),
                ("job".into(), Json::u64(job.0)),
                ("index".into(), Json::u64(*index as u64)),
                ("total".into(), Json::u64(*total as u64)),
                ("benchmark".into(), Json::str(result.benchmark.clone())),
                ("config".into(), Json::str(result.config.clone())),
                ("aggregate_ipc".into(), Json::f64(result.aggregate_ipc())),
                (
                    "per_core".into(),
                    Json::Arr(result.per_core.iter().map(sim_to_json).collect()),
                ),
                ("merged".into(), sim_to_json(&merged)),
                (
                    "engine_data_reads".into(),
                    Json::u64(result.engine.data_reads),
                ),
                (
                    "engine_data_writes".into(),
                    Json::u64(result.engine.data_writes),
                ),
            ])
        }
        JobEvent::Metrics { job, counters } => Json::Obj(vec![
            // Distinct from the "metrics" command response: frames carry
            // a job id and only the counters that moved.
            ("type".into(), Json::str("metrics_frame")),
            ("job".into(), Json::u64(job.0)),
            (
                "counters".into(),
                Json::Obj(
                    counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::u64(*v)))
                        .collect(),
                ),
            ),
        ]),
        JobEvent::Finished { job, summary } => Json::Obj(vec![
            ("type".into(), Json::str("finished")),
            ("job".into(), Json::u64(job.0)),
            ("cells".into(), Json::u64(summary.cells as u64)),
            ("merged".into(), sim_to_json(&summary.merged)),
        ]),
        JobEvent::Cancelled { job, completed } => Json::Obj(vec![
            ("type".into(), Json::str("cancelled")),
            ("job".into(), Json::u64(job.0)),
            ("completed".into(), Json::u64(*completed as u64)),
        ]),
        JobEvent::Failed { job, error } => Json::Obj(vec![
            ("type".into(), Json::str("failed")),
            ("job".into(), Json::u64(job.0)),
            ("error".into(), Json::str(error.clone())),
        ]),
    }
}

fn stats_to_json(stats: &ServiceStats) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::str("cache_stats")),
        (
            "trace_memory_hits".into(),
            Json::u64(stats.traces.memory_hits),
        ),
        ("trace_disk_hits".into(), Json::u64(stats.traces.disk_hits)),
        ("trace_generated".into(), Json::u64(stats.traces.generated)),
        ("jobs_submitted".into(), Json::u64(stats.jobs_submitted)),
        ("jobs_completed".into(), Json::u64(stats.jobs_completed)),
    ])
}

/// Serializes a telemetry snapshot to the `metrics` response object:
/// counters and gauges as name→value maps, histograms as
/// name→`{count,sum,mean,p50,p95,p99}` (percentiles carry the
/// histogram's documented bucket-upper-bound semantics; the full bucket
/// vectors stay in-process — the wire view is for dashboards and CI
/// assertions).
fn metrics_to_json(snap: &secddr_telemetry::TelemetrySnapshot) -> Json {
    let map = |entries: &std::collections::BTreeMap<String, u64>| {
        Json::Obj(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), Json::u64(*v)))
                .collect(),
        )
    };
    Json::Obj(vec![
        ("type".into(), Json::str("metrics")),
        ("counters".into(), map(&snap.counters)),
        ("gauges".into(), map(&snap.gauges)),
        (
            "histograms".into(),
            Json::Obj(
                snap.histograms
                    .iter()
                    .map(|(k, h)| {
                        (
                            k.clone(),
                            Json::Obj(vec![
                                ("count".into(), Json::u64(h.count)),
                                ("sum".into(), Json::u64(h.sum)),
                                ("mean".into(), Json::f64(h.mean())),
                                ("p50".into(), Json::u64(h.percentile(50.0))),
                                ("p95".into(), Json::u64(h.percentile(95.0))),
                                ("p99".into(), Json::u64(h.percentile(99.0))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Serializes the `series` response: the job's stored sim-time series
/// as name→epoch-vector rows, or `available: false` when the job is
/// unknown, still running, or recorded nothing.
fn series_to_json(job: u64, series: Option<&secddr_telemetry::SeriesSnapshot>) -> Json {
    let mut members = vec![
        ("type".into(), Json::str("series")),
        ("job".into(), Json::u64(job)),
        ("available".into(), Json::Bool(series.is_some())),
    ];
    if let Some(series) = series {
        members.push(("epoch_width".into(), Json::u64(series.epoch_width)));
        members.push((
            "rows".into(),
            Json::Obj(
                series
                    .rows
                    .iter()
                    .map(|(name, row)| {
                        (
                            name.clone(),
                            Json::Arr(row.iter().map(|&v| Json::u64(v)).collect()),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    Json::Obj(members)
}

/// The `{"type":"error","message":…}` reply.
#[must_use]
pub fn error_json(message: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::str("error")),
        ("message".into(), Json::Str(message.into())),
    ])
}

/// The request's `job` id, or else the `error` reply saying that `cmd`
/// needs one.
pub fn job_arg(request: &Json, cmd: &str) -> Result<u64, Json> {
    request
        .get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| error_json(format!("{cmd} needs a \"job\" id")))
}

/// Writes one JSON line under the connection's write lock.
fn write_line(writer: &Mutex<TcpStream>, json: &Json) -> std::io::Result<()> {
    let mut stream = writer.lock().expect("writer lock");
    let mut line = json.to_string();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// The longest request line a server reads, in bytes without the
/// newline. A longer line gets an `error` reply and the connection is
/// closed, so no client can grow the server's memory without limit.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// One job's wire events in stream order, ending with its terminal
/// event. Dropping it before the end means the client went away.
pub type EventStream = Box<dyn Iterator<Item = Json> + Send>;

/// A job-running backend behind a [`LineServer`]. The server owns the
/// socket, the line framing and the shared commands; the handler owns
/// the jobs.
pub trait LineHandler: Send + Sync + 'static {
    /// Accepts a job and returns its id, its cell count and its events,
    /// or else the rejection message the client gets as an `error` line.
    fn submit(&self, spec: JobSpec) -> Result<(u64, usize, EventStream), String>;

    /// Cancels a job; `true` if it was live.
    fn cancel(&self, job: u64) -> bool;

    /// Blocks until every accepted job reached its terminal event.
    fn drain(&self);

    /// Answers a command the server does not handle itself; `None`
    /// makes it an unknown command.
    fn command(&self, cmd: &str, request: &Json) -> Option<Json>;
}

/// [`ExperimentService`] events on the wire. Dropping the stream cancels
/// the job (a no-op once it is terminal), so the pool stops running
/// cells for a client that went away.
struct ServiceEvents(JobHandle);

impl Iterator for ServiceEvents {
    type Item = Json;

    fn next(&mut self) -> Option<Json> {
        self.0.next_event().map(|event| event_to_json(&event))
    }
}

impl Drop for ServiceEvents {
    fn drop(&mut self) {
        self.0.cancel();
    }
}

impl LineHandler for ExperimentService {
    fn submit(&self, spec: JobSpec) -> Result<(u64, usize, EventStream), String> {
        let cells = spec.cell_count().unwrap_or(0);
        let handle = ExperimentService::submit(self, spec).map_err(|e| e.to_string())?;
        Ok((handle.id().0, cells, Box::new(ServiceEvents(handle))))
    }

    fn cancel(&self, job: u64) -> bool {
        ExperimentService::cancel(self, JobId(job))
    }

    fn drain(&self) {
        ExperimentService::drain(self);
    }

    fn command(&self, cmd: &str, request: &Json) -> Option<Json> {
        match cmd {
            "cache_stats" => Some(stats_to_json(&self.stats())),
            "series" => Some(match job_arg(request, "series") {
                Ok(job) => series_to_json(job, self.job_series(JobId(job)).as_ref()),
                Err(reply) => reply,
            }),
            _ => None,
        }
    }
}

/// The TCP front end over one [`LineHandler`].
pub struct LineServer<H> {
    handler: Arc<H>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

/// The TCP front end over one [`ExperimentService`] (`secddr-serve`).
pub type ExperimentServer = LineServer<ExperimentService>;

impl<H: LineHandler> LineServer<H> {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) over
    /// `handler`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs, handler: H) -> std::io::Result<Self> {
        Ok(Self {
            handler: Arc::new(handler),
            listener: TcpListener::bind(addr)?,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// A shared handle to the backend, for operations hooks while
    /// [`Self::serve`] owns `self`.
    #[must_use]
    pub fn handler(&self) -> Arc<H> {
        Arc::clone(&self.handler)
    }

    /// The bound address (read the ephemeral port from here).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`Self::serve`] return (the `shutdown`
    /// command uses the same mechanism).
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.local_addr().ok(),
        }
    }

    /// Accepts and serves connections until a shutdown is requested,
    /// drains in-flight jobs, and returns.
    ///
    /// The drain is explicit ([`LineHandler::drain`]) because connection
    /// threads hold their own handler references. Every accepted job
    /// reaches its terminal event before this returns; forwarders may
    /// still be writing it to slow clients, so a client that needs it
    /// should read it before requesting shutdown.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures (per-connection I/O errors only
    /// terminate that connection).
    pub fn serve(self) -> std::io::Result<()> {
        for incoming in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = incoming else {
                continue;
            };
            // Every reply and event is one small line: with Nagle on,
            // each write after the first waits for the peer's delayed
            // ACK (~40 ms on Linux) before it leaves.
            let _ = stream.set_nodelay(true);
            let handler = Arc::clone(&self.handler);
            let shutdown = self.shutdown_handle();
            std::thread::spawn(move || handle_connection(stream, &*handler, &shutdown));
        }
        self.handler.drain();
        Ok(())
    }
}

/// Makes a running [`LineServer::serve`] loop return.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    shutdown: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
}

impl ShutdownHandle {
    /// Requests shutdown and nudges the accept loop awake.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(addr) = self.addr {
            // The accept loop only observes the flag on a connection;
            // poke it with one.
            let _ = TcpStream::connect(addr);
        }
    }
}

fn handle_connection<H: LineHandler>(stream: TcpStream, handler: &H, shutdown: &ShutdownHandle) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return, // disconnected
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            let _ = write_line(&writer, &error_json(message));
            // FIN right behind the error line: the client reads the
            // reply and then end-of-stream, even though the rest of its
            // line is never read.
            let _ = writer
                .lock()
                .expect("writer lock")
                .shutdown(Shutdown::Write);
            return;
        }
        let Ok(text) = std::str::from_utf8(&line).map(str::trim) else {
            return; // not a text protocol client
        };
        if text.is_empty() {
            continue;
        }
        let request = match Json::parse(text) {
            Ok(v) => v,
            Err(e) => {
                let _ = write_line(&writer, &error_json(format!("bad json: {e}")));
                continue;
            }
        };
        let reply = match request.get("cmd").and_then(Json::as_str) {
            Some("submit") => {
                if submit(handler, &request, &writer).is_err() {
                    return;
                }
                continue;
            }
            Some("cancel") => match job_arg(&request, "cancel") {
                Ok(job) => Json::Obj(vec![
                    ("type".into(), Json::str("cancel_ack")),
                    ("job".into(), Json::u64(job)),
                    ("cancelled".into(), Json::Bool(handler.cancel(job))),
                ]),
                Err(reply) => reply,
            },
            Some("metrics") => metrics_to_json(&Registry::global().snapshot()),
            Some("ping") => Json::Obj(vec![("type".into(), Json::str("pong"))]),
            Some("shutdown") => {
                let bye = Json::Obj(vec![("type".into(), Json::str("shutting_down"))]);
                let _ = write_line(&writer, &bye);
                shutdown.shutdown();
                return;
            }
            other => other
                .and_then(|cmd| handler.command(cmd, &request))
                .unwrap_or_else(|| error_json(format!("unknown cmd {other:?}"))),
        };
        if write_line(&writer, &reply).is_err() {
            return;
        }
    }
}

/// Runs a `submit` request: the ack (or the error) goes out first, then
/// one forwarder thread streams the job's events.
fn submit<H: LineHandler>(
    handler: &H,
    request: &Json,
    writer: &Arc<Mutex<TcpStream>>,
) -> std::io::Result<()> {
    let submitted = request
        .get("spec")
        .ok_or_else(|| "submit needs a \"spec\" member".to_string())
        .and_then(|spec| JobSpec::from_json(spec).map_err(|e| e.to_string()))
        .and_then(|spec| handler.submit(spec));
    let (job, cells, events) = match submitted {
        Ok(submitted) => submitted,
        Err(message) => return write_line(writer, &error_json(message)),
    };
    let ack = Json::Obj(vec![
        ("type".into(), Json::str("submitted")),
        ("job".into(), Json::u64(job)),
        ("cells".into(), Json::u64(cells as u64)),
    ]);
    // The ack is on the wire before the forwarder exists, so no event of
    // the job can overtake it: the dispatcher drops a worker's events
    // for jobs it has no ack for.
    write_line(writer, &ack)?;
    let writer = Arc::clone(writer);
    // One forwarder per job keeps per-job event order on the wire; the
    // shared writer lock serializes whole lines.
    std::thread::spawn(move || {
        for event in events {
            if write_line(&writer, &event).is_err() {
                return; // dropping `events` tells the handler the client left
            }
        }
    });
    Ok(())
}

/// A parsed server→client line.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// `{"type":"queued",…}`
    Queued {
        /// Job id.
        job: u64,
        /// Cell count.
        cells: u64,
    },
    /// `{"type":"started",…}`
    Started {
        /// Job id.
        job: u64,
    },
    /// `{"type":"cell",…}`
    Cell {
        /// Job id.
        job: u64,
        /// Cell index.
        index: u64,
        /// Cell count.
        total: u64,
        /// Benchmark label.
        benchmark: String,
        /// Configuration label.
        config: String,
        /// Merged instructions.
        instructions: u64,
        /// Merged (slowest-core) cycles.
        cycles: u64,
        /// Sum of per-core IPCs.
        aggregate_ipc: f64,
    },
    /// `{"type":"metrics_frame",…}` — the live per-cell service-metric
    /// delta.
    Metrics {
        /// Job id.
        job: u64,
        /// Counters that increased since the job's previous frame.
        counters: std::collections::BTreeMap<String, u64>,
    },
    /// `{"type":"finished",…}`
    Finished {
        /// Job id.
        job: u64,
        /// Cells run.
        cells: u64,
        /// Merged instructions.
        instructions: u64,
        /// Merged cycles.
        cycles: u64,
    },
    /// `{"type":"cancelled",…}`
    Cancelled {
        /// Job id.
        job: u64,
        /// Cells completed before cancellation.
        completed: u64,
    },
    /// `{"type":"failed",…}`
    Failed {
        /// Job id.
        job: u64,
        /// Server-side failure message.
        error: String,
    },
}

impl WireEvent {
    /// Parses an event line; `None` for non-event lines (acks, errors).
    #[must_use]
    pub fn from_json(json: &Json) -> Option<WireEvent> {
        let job = json.get("job")?.as_u64()?;
        match json.get("type")?.as_str()? {
            "queued" => Some(WireEvent::Queued {
                job,
                cells: json.get("cells")?.as_u64()?,
            }),
            "started" => Some(WireEvent::Started { job }),
            "cell" => {
                let merged = json.get("merged")?;
                Some(WireEvent::Cell {
                    job,
                    index: json.get("index")?.as_u64()?,
                    total: json.get("total")?.as_u64()?,
                    benchmark: json.get("benchmark")?.as_str()?.to_string(),
                    config: json.get("config")?.as_str()?.to_string(),
                    instructions: merged.get("instructions")?.as_u64()?,
                    cycles: merged.get("cycles")?.as_u64()?,
                    aggregate_ipc: json.get("aggregate_ipc")?.as_f64()?,
                })
            }
            "metrics_frame" => {
                let Json::Obj(entries) = json.get("counters")? else {
                    return None;
                };
                Some(WireEvent::Metrics {
                    job,
                    counters: entries
                        .iter()
                        .filter_map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
                        .collect(),
                })
            }
            "finished" => {
                let merged = json.get("merged")?;
                Some(WireEvent::Finished {
                    job,
                    cells: json.get("cells")?.as_u64()?,
                    instructions: merged.get("instructions")?.as_u64()?,
                    cycles: merged.get("cycles")?.as_u64()?,
                })
            }
            "cancelled" => Some(WireEvent::Cancelled {
                job,
                completed: json.get("completed")?.as_u64()?,
            }),
            "failed" => Some(WireEvent::Failed {
                job,
                error: json.get("error")?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }

    /// The job this event belongs to.
    #[must_use]
    pub fn job(&self) -> u64 {
        match self {
            WireEvent::Queued { job, .. }
            | WireEvent::Started { job }
            | WireEvent::Cell { job, .. }
            | WireEvent::Metrics { job, .. }
            | WireEvent::Finished { job, .. }
            | WireEvent::Cancelled { job, .. }
            | WireEvent::Failed { job, .. } => *job,
        }
    }

    /// True for the stream-ending events.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            WireEvent::Finished { .. } | WireEvent::Cancelled { .. } | WireEvent::Failed { .. }
        )
    }
}

/// Wire view of the server's cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCacheStats {
    /// Trace requests answered from the in-process memo.
    pub trace_memory_hits: u64,
    /// Trace requests answered from the disk tier.
    pub trace_disk_hits: u64,
    /// Trace requests that ran the kernels.
    pub trace_generated: u64,
    /// Jobs submitted to the server's service.
    pub jobs_submitted: u64,
    /// Jobs that reached a terminal event.
    pub jobs_completed: u64,
}

/// Blocking client for the line-delimited-JSON protocol. Responses and
/// job events share the connection; the client queues events internally
/// while waiting for command responses, so commands can be issued while
/// jobs stream.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    pending_events: std::collections::VecDeque<WireEvent>,
}

impl ServiceClient {
    /// Connects to a running [`LineServer`].
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        // Requests are small lines; see `LineServer::serve`.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            reader,
            writer,
            pending_events: std::collections::VecDeque::new(),
        })
    }

    fn send(&mut self, json: &Json) -> std::io::Result<()> {
        let mut line = json.to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    fn read_json(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            return Json::parse(line.trim())
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e));
        }
    }

    /// Reads lines until one satisfies `want`, queueing event lines for
    /// [`Self::next_event`]; error lines become `Err`.
    fn read_until(&mut self, want: impl Fn(&Json) -> bool) -> std::io::Result<Json> {
        loop {
            let json = self.read_json()?;
            if want(&json) {
                return Ok(json);
            }
            if json.get("type").and_then(Json::as_str) == Some("error") {
                let message = json
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown server error");
                return Err(std::io::Error::other(message.to_string()));
            }
            if let Some(event) = WireEvent::from_json(&json) {
                self.pending_events.push_back(event);
            }
        }
    }

    /// Submits a spec; returns the assigned job id.
    ///
    /// # Errors
    ///
    /// Server-side rejections surface as `Err` with the server's
    /// message.
    pub fn submit(&mut self, spec: &JobSpec) -> std::io::Result<u64> {
        self.send(&Json::Obj(vec![
            ("cmd".into(), Json::str("submit")),
            ("spec".into(), spec.to_json()),
        ]))?;
        let ack = self.read_until(|j| j.get("type").and_then(Json::as_str) == Some("submitted"))?;
        ack.get("job").and_then(Json::as_u64).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "submitted ack without job id",
            )
        })
    }

    /// Blocks for the next job event (any job on this connection).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn next_event(&mut self) -> std::io::Result<WireEvent> {
        if let Some(event) = self.pending_events.pop_front() {
            return Ok(event);
        }
        loop {
            let json = self.read_json()?;
            if let Some(event) = WireEvent::from_json(&json) {
                return Ok(event);
            }
        }
    }

    /// Streams events until `job`'s terminal event, returning its full
    /// stream in order. Other jobs' interleaved events stay queued.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn stream_job(&mut self, job: u64) -> std::io::Result<Vec<WireEvent>> {
        let mut events = Vec::new();
        let mut stash = Vec::new();
        loop {
            let event = self.next_event()?;
            if event.job() == job {
                let terminal = event.is_terminal();
                events.push(event);
                if terminal {
                    self.pending_events.extend(stash);
                    return Ok(events);
                }
            } else {
                stash.push(event);
            }
        }
    }

    /// Requests cancellation of `job`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn cancel(&mut self, job: u64) -> std::io::Result<bool> {
        self.send(&Json::Obj(vec![
            ("cmd".into(), Json::str("cancel")),
            ("job".into(), Json::u64(job)),
        ]))?;
        let ack = self.read_until(|j| {
            j.get("type").and_then(Json::as_str) == Some("cancel_ack")
                && j.get("job").and_then(Json::as_u64) == Some(job)
        })?;
        Ok(ack
            .get("cancelled")
            .and_then(Json::as_bool)
            .unwrap_or(false))
    }

    /// Fetches the server's cache counters.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn cache_stats(&mut self) -> std::io::Result<WireCacheStats> {
        self.send(&Json::Obj(vec![("cmd".into(), Json::str("cache_stats"))]))?;
        let stats =
            self.read_until(|j| j.get("type").and_then(Json::as_str) == Some("cache_stats"))?;
        let field = |key: &str| {
            stats.get(key).and_then(Json::as_u64).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("cache_stats missing {key}"),
                )
            })
        };
        Ok(WireCacheStats {
            trace_memory_hits: field("trace_memory_hits")?,
            trace_disk_hits: field("trace_disk_hits")?,
            trace_generated: field("trace_generated")?,
            jobs_submitted: field("jobs_submitted")?,
            jobs_completed: field("jobs_completed")?,
        })
    }

    /// Fetches the server's telemetry counters (the `metrics` endpoint)
    /// as a name→value map in lexicographic order.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn metrics(&mut self) -> std::io::Result<std::collections::BTreeMap<String, u64>> {
        self.metrics_map("counters")
    }

    /// One name→value member (`counters` or `gauges`) of a fresh
    /// `metrics` response.
    fn metrics_map(
        &mut self,
        member: &str,
    ) -> std::io::Result<std::collections::BTreeMap<String, u64>> {
        self.send(&Json::Obj(vec![("cmd".into(), Json::str("metrics"))]))?;
        let response =
            self.read_until(|j| j.get("type").and_then(Json::as_str) == Some("metrics"))?;
        let Some(Json::Obj(entries)) = response.get(member) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("metrics response without {member}"),
            ));
        };
        Ok(entries
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
            .collect())
    }

    /// Round-trips a `ping` — a cheap health check. An `Ok` return
    /// means the server end of this connection is alive and answering.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (a dead or wedged server surfaces
    /// as an I/O error rather than a `false`).
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.send(&Json::Obj(vec![("cmd".into(), Json::str("ping"))]))?;
        self.read_until(|j| j.get("type").and_then(Json::as_str) == Some("pong"))?;
        Ok(())
    }

    /// Fetches the server's telemetry gauges (the `metrics` endpoint)
    /// as a name→value map in lexicographic order — the dispatcher and
    /// dashboards read `service.pool.queue_depth` /
    /// `service.pool.inflight` from here.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn gauges(&mut self) -> std::io::Result<std::collections::BTreeMap<String, u64>> {
        self.metrics_map("gauges")
    }

    /// Fetches a job's stored sim-time series (specs with a nonzero
    /// `epoch_width`), reconstructed as a
    /// [`secddr_telemetry::SeriesSnapshot`]. `None` when the server has
    /// no series for the job (unknown, still running, or the spec's
    /// shape recorded nothing).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn series(
        &mut self,
        job: u64,
    ) -> std::io::Result<Option<secddr_telemetry::SeriesSnapshot>> {
        self.send(&Json::Obj(vec![
            ("cmd".into(), Json::str("series")),
            ("job".into(), Json::u64(job)),
        ]))?;
        let response = self.read_until(|j| {
            j.get("type").and_then(Json::as_str) == Some("series")
                && j.get("job").and_then(Json::as_u64) == Some(job)
        })?;
        if response.get("available").and_then(Json::as_bool) != Some(true) {
            return Ok(None);
        }
        let invalid = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("series response {what}"),
            )
        };
        let width = response
            .get("epoch_width")
            .and_then(Json::as_u64)
            .filter(|&w| w > 0)
            .ok_or_else(|| invalid("without a positive epoch_width"))?;
        let Some(Json::Obj(rows)) = response.get("rows") else {
            return Err(invalid("without rows"));
        };
        let mut snap = secddr_telemetry::SeriesSnapshot::new(width);
        for (name, row) in rows {
            let values = row.as_array().ok_or_else(|| invalid("row not an array"))?;
            for (epoch, value) in values.iter().enumerate() {
                let value = value
                    .as_u64()
                    .ok_or_else(|| invalid("value not a non-negative integer"))?;
                snap.add(name, epoch as u64, value);
            }
        }
        Ok(Some(snap))
    }

    /// Asks the server to shut down cleanly.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn shutdown_server(&mut self) -> std::io::Result<()> {
        self.send(&Json::Obj(vec![("cmd".into(), Json::str("shutdown"))]))?;
        self.read_until(|j| j.get("type").and_then(Json::as_str) == Some("shutting_down"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU64;

    /// A backend whose jobs are over before `submit` returns: each
    /// job's whole event stream is ready the moment it is accepted.
    struct InstantJobs {
        next: AtomicU64,
    }

    impl LineHandler for InstantJobs {
        fn submit(&self, _spec: JobSpec) -> Result<(u64, usize, EventStream), String> {
            let job = self.next.fetch_add(1, Ordering::Relaxed);
            let event = |kind: &str| {
                Json::Obj(vec![
                    ("type".into(), Json::str(kind)),
                    ("job".into(), Json::u64(job)),
                ])
            };
            let events = vec![event("queued"), event("started"), event("finished")];
            Ok((job, 1, Box::new(events.into_iter())))
        }

        fn cancel(&self, _job: u64) -> bool {
            false
        }

        fn drain(&self) {}

        fn command(&self, _cmd: &str, _request: &Json) -> Option<Json> {
            None
        }
    }

    #[test]
    fn submit_ack_precedes_every_event_of_its_job() {
        const JOBS: usize = 200;
        let server = LineServer::bind(
            "127.0.0.1:0",
            InstantJobs {
                next: AtomicU64::new(1),
            },
        )
        .expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let shutdown = server.shutdown_handle();
        let serve = std::thread::spawn(move || server.serve());

        let mut stream = TcpStream::connect(addr).expect("connect");
        let submit = Json::Obj(vec![
            ("cmd".into(), Json::str("submit")),
            ("spec".into(), JobSpec::bench("mcf").to_json()),
        ]);
        stream
            .write_all(format!("{submit}\n").repeat(JOBS).as_bytes())
            .expect("send submits");
        let mut reader = BufReader::new(stream);
        let mut first_line_of = HashMap::new();
        let mut finished = 0;
        while finished < JOBS {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0, "early EOF");
            let json = Json::parse(line.trim()).expect("server sends JSON");
            let kind = json.get("type").and_then(Json::as_str).expect("typed line");
            let job = json.get("job").and_then(Json::as_u64).expect("job id");
            first_line_of.entry(job).or_insert_with(|| kind.to_string());
            finished += usize::from(kind == "finished");
        }
        assert_eq!(first_line_of.len(), JOBS);
        for (job, kind) in &first_line_of {
            assert_eq!(kind, "submitted", "job {job}: an event overtook the ack");
        }
        shutdown.shutdown();
        serve.join().expect("serve thread").expect("clean exit");
    }
}
