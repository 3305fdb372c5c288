//! Fleet dispatcher integration: the dispatcher's event stream is
//! bit-identical to the single-service path (at one core, and at two
//! cores over two channels), identical resubmissions
//! are served entirely from the result store (zero cells executed),
//! back-to-back jobs with millisecond cells all finish and leave the
//! dispatcher's job table empty, a store-served job answers over the
//! wire ack first with the first run's stream and writes no job-log
//! record while a partly stored one still logs its two, killing one
//! of N workers requeues its work and completes the job with correct
//! results, a worker that answers with an endless unterminated line is
//! treated as dead instead of growing the dispatcher's memory, and small
//! jobs finish well under the ~40 ms a delayed ACK
//! would add to every line-protocol exchange.

use secddr::core::config::SecurityConfig;
use secddr::fleet::{Dispatcher, DispatcherConfig, FleetServer};
use secddr::service::net::event_to_json;
use secddr::service::{
    ExperimentServer, ExperimentService, JobSpec, Json, ServiceClient, ShutdownHandle, WireEvent,
};
use secddr::Registry;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serializes the tests in this binary: the fleet counters the
/// assertions read are process-wide, so a concurrently running sibling
/// test would perturb the deltas.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An in-process `secddr-serve` worker on an ephemeral loopback port,
/// shut down cleanly on drop.
struct WorkerGuard {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    serve: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl WorkerGuard {
    fn start(threads: usize) -> Self {
        let server =
            ExperimentServer::bind("127.0.0.1:0", ExperimentService::with_threads(threads))
                .expect("bind worker");
        let addr = server.local_addr().expect("bound address");
        let shutdown = server.shutdown_handle();
        let serve = std::thread::spawn(move || server.serve());
        Self {
            addr,
            shutdown,
            serve: Some(serve),
        }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.shutdown.shutdown();
        if let Some(serve) = self.serve.take() {
            let _ = serve.join();
        }
    }
}

/// Drops the `job` member so streams from different front-ends (which
/// assign different ids) compare bit-identically.
fn strip_job(json: Json) -> Json {
    match json {
        Json::Obj(members) => Json::Obj(members.into_iter().filter(|(k, _)| k != "job").collect()),
        other => other,
    }
}

/// The uninterrupted single-service event stream for `spec`, as wire
/// lines minus the job id and the live metrics frames (which the
/// dispatcher, by design, does not forward).
fn reference_lines(spec: &JobSpec) -> Vec<String> {
    let service = ExperimentService::with_threads(2);
    let handle = service.submit(spec.clone()).expect("reference submit");
    handle
        .events()
        .map(|event| event_to_json(&event))
        .filter(|json| json.get("type").and_then(Json::as_str) != Some("metrics_frame"))
        .map(|json| strip_job(json).to_string())
        .collect()
}

fn fleet_lines(events: Vec<Json>) -> Vec<String> {
    events
        .into_iter()
        .map(|json| strip_job(json).to_string())
        .collect()
}

fn counter_delta(
    after: &std::collections::BTreeMap<String, u64>,
    before: &std::collections::BTreeMap<String, u64>,
    name: &str,
) -> u64 {
    after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
}

fn two_config_spec() -> JobSpec {
    let mut spec = JobSpec::bench("mcf");
    spec.instructions = 5_000;
    spec.configs = vec![SecurityConfig::secddr_ctr(), SecurityConfig::tdx_baseline()];
    spec
}

#[test]
fn dispatcher_stream_is_bit_identical_to_single_service() {
    let _guard = serialize();
    let worker = WorkerGuard::start(2);
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker.addr.to_string()],
        ..DispatcherConfig::default()
    })
    .expect("start dispatcher");
    // The 2-core, 2-channel shape sends a `per_core` array longer than
    // one through the envelope strip, the store and the summary fold.
    let mut wide = two_config_spec();
    wide.cores = 2;
    wide.channels = 2;
    for spec in [two_config_spec(), wide] {
        let expected = reference_lines(&spec);
        let handle = dispatcher.submit(&spec).expect("submit");
        assert_eq!(handle.cells, 2);
        let got = fleet_lines(handle.wait());
        assert_eq!(
            got, expected,
            "dispatched stream == single-service stream at {} cores",
            spec.cores
        );
    }
}

#[test]
fn identical_resubmission_executes_zero_cells_with_identical_results() {
    let _guard = serialize();
    let worker = WorkerGuard::start(2);
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker.addr.to_string()],
        ..DispatcherConfig::default()
    })
    .expect("start dispatcher");
    let spec = two_config_spec();
    let first = fleet_lines(dispatcher.submit(&spec).expect("first submit").wait());

    let before = Registry::global().snapshot().counters;
    let second = fleet_lines(dispatcher.submit(&spec).expect("second submit").wait());
    let after = Registry::global().snapshot().counters;

    assert_eq!(second, first, "memoized stream is bit-identical");
    assert_eq!(
        counter_delta(&after, &before, "fleet.cells.dispatched"),
        0,
        "zero cells reached a worker"
    );
    assert_eq!(
        counter_delta(&after, &before, "fleet.result_cache.hits"),
        2,
        "both cells served from the result store"
    );
    // Priority is scheduling-only: a different priority still hits.
    let mut reprioritized = spec.clone();
    reprioritized.priority = 7;
    let third = fleet_lines(
        dispatcher
            .submit(&reprioritized)
            .expect("third submit")
            .wait(),
    );
    assert_eq!(third, first);
}

/// Sends one `submit` over a raw connection and returns every line the
/// server writes for it, ack included, through the job's terminal event.
fn raw_submit(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    spec: &JobSpec,
) -> Vec<Json> {
    let submit = Json::Obj(vec![
        ("cmd".into(), Json::str("submit")),
        ("spec".into(), spec.to_json()),
    ]);
    stream
        .write_all(format!("{submit}\n").as_bytes())
        .expect("send submit");
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0, "early EOF");
        let json = Json::parse(line.trim()).expect("server sends JSON");
        let kind = json.get("type").and_then(Json::as_str).unwrap_or("");
        let done = matches!(kind, "finished" | "cancelled" | "failed" | "error");
        lines.push(json);
        if done {
            return lines;
        }
    }
}

#[test]
fn store_served_resubmission_streams_ack_first_and_writes_no_log_record() {
    let _guard = serialize();
    let worker = WorkerGuard::start(2);
    let log_dir =
        std::env::temp_dir().join(format!("secddr-fleet-dispatch-log-{}", std::process::id()));
    std::fs::remove_dir_all(&log_dir).ok(); // no replay of an earlier run's jobs
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker.addr.to_string()],
        log_dir: Some(log_dir.clone()),
        ..DispatcherConfig::default()
    })
    .expect("start dispatcher");
    let fleet = FleetServer::bind("127.0.0.1:0", dispatcher).expect("bind dispatcher");
    let fleet_addr = fleet.local_addr().expect("bound address");
    let fleet_serve = std::thread::spawn(move || fleet.serve());
    let mut stream = TcpStream::connect(fleet_addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    // Counters come through the `metrics` command on a second connection.
    let mut metrics = ServiceClient::connect(fleet_addr).expect("connect metrics");
    // Submits `spec` and returns its stripped lines with the job-log
    // appends and dispatched cells it cost.
    let mut run = |spec: &JobSpec| {
        let before = metrics.metrics().expect("metrics");
        let lines = raw_submit(&mut stream, &mut reader, spec);
        let after = metrics.metrics().expect("metrics");
        let kinds: Vec<&str> = lines
            .iter()
            .map(|json| json.get("type").and_then(Json::as_str).unwrap_or(""))
            .collect();
        assert_eq!(
            kinds.first(),
            Some(&"submitted"),
            "the ack leads: {kinds:?}"
        );
        assert_eq!(kinds.last(), Some(&"finished"), "{kinds:?}");
        let stripped: Vec<String> = lines
            .into_iter()
            .map(|json| strip_job(json).to_string())
            .collect();
        let delta = |name| counter_delta(&after, &before, name);
        (
            stripped,
            delta("fleet.log.appends"),
            delta("fleet.cells.dispatched"),
        )
    };

    let spec = two_config_spec();
    let (first, appends, dispatched) = run(&spec);
    assert_eq!(
        (appends, dispatched),
        (2, 2),
        "a miss logs its spec and its end"
    );
    let (second, appends, dispatched) = run(&spec);
    assert_eq!(second, first, "the store-served stream is the first run's");
    assert_eq!(
        (appends, dispatched),
        (0, 0),
        "a store-served job touches no log or worker"
    );
    // One cell stored (secddr_ctr), one new: still a logged job.
    let mut mixed = spec.clone();
    mixed.configs = vec![
        SecurityConfig::secddr_ctr(),
        SecurityConfig::encrypt_only_ctr(),
    ];
    let (_, appends, dispatched) = run(&mixed);
    assert_eq!(
        (appends, dispatched),
        (2, 1),
        "a partly stored job still logs"
    );

    drop(metrics);
    let mut client = ServiceClient::connect(fleet_addr).expect("connect");
    client.shutdown_server().expect("dispatcher shutdown");
    fleet_serve
        .join()
        .expect("dispatcher thread")
        .expect("clean dispatcher exit");
    std::fs::remove_dir_all(&log_dir).ok();
}

#[test]
fn back_to_back_one_millisecond_cells_all_finish() {
    const JOBS: u64 = 100;
    let _guard = serialize();
    let worker = WorkerGuard::start(2);
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker.addr.to_string()],
        ..DispatcherConfig::default()
    })
    .expect("start dispatcher");
    // A 1,000-instruction cell finishes in about a millisecond, fast
    // enough to race its worker's submit ack. A lost job would block
    // forever, so the jobs run on their own thread under a deadline.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let jobs = std::thread::spawn(move || {
        for seed in 0..JOBS {
            let mut spec = two_config_spec();
            spec.instructions = 1_000;
            spec.seed = seed; // a fresh seed misses the result store
            let events = dispatcher.submit(&spec).expect("submit").wait();
            let last = events.last().and_then(|e| e.get("type")?.as_str());
            assert_eq!(last, Some("finished"), "job {seed}: {events:?}");
            done_tx.send(()).expect("test thread listening");
        }
    });
    for seed in 0..JOBS {
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("job {seed} did not finish: {e}"));
    }
    jobs.join().expect("job thread");
}

#[test]
fn finished_jobs_are_retired_from_the_job_table() {
    const JOBS: u64 = 50;
    let _guard = serialize();
    let worker = WorkerGuard::start(1);
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker.addr.to_string()],
        ..DispatcherConfig::default()
    })
    .expect("start dispatcher");
    let mut first = None;
    for seed in 0..JOBS {
        let mut spec = JobSpec::bench("mcf");
        spec.instructions = 1_000;
        spec.seed = seed; // a fresh seed misses the result store
        let handle = dispatcher.submit(&spec).expect("submit");
        first.get_or_insert(handle.id);
        let events = handle.wait();
        let last = events.last().and_then(|e| e.get("type")?.as_str());
        assert_eq!(last, Some("finished"), "job {seed}: {events:?}");
    }
    assert_eq!(dispatcher.tracked_jobs(), 0, "every finished job retired");
    let first = first.expect("at least one job ran");
    assert!(
        !dispatcher.cancel(first),
        "a finished job cannot be cancelled"
    );
}

#[test]
fn killing_one_of_two_workers_requeues_and_completes_identically() {
    let _guard = serialize();
    let worker_a = WorkerGuard::start(1);
    let worker_b = WorkerGuard::start(1);
    let mut spec = JobSpec::bench("omnetpp");
    spec.instructions = 5_000;
    spec.configs = vec![
        SecurityConfig::secddr_ctr(),
        SecurityConfig::secddr_xts(),
        SecurityConfig::tdx_baseline(),
        SecurityConfig::encrypt_only_ctr(),
    ];
    let expected = reference_lines(&spec);

    let before = Registry::global().snapshot().counters;
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker_a.addr.to_string(), worker_b.addr.to_string()],
        max_outstanding: 1, // force both workers into play
        ..DispatcherConfig::default()
    })
    .expect("start dispatcher");
    let handle = dispatcher.submit(&spec).expect("submit");
    // Cells are now in flight on both workers; tear one link down.
    dispatcher.sever_worker(0);
    let got = fleet_lines(handle.wait());
    let after = Registry::global().snapshot().counters;

    assert_eq!(
        got, expected,
        "job completes bit-identically despite the death"
    );
    let status = dispatcher.workers();
    assert!(!status[0].alive, "severed worker is reported dead");
    assert!(status[1].alive, "surviving worker is still up");
    assert!(
        counter_delta(&after, &before, "fleet.worker.deaths") >= 1,
        "the death was counted"
    );
    assert!(
        counter_delta(&after, &before, "fleet.cells.requeued") >= 1,
        "the dead worker's cell went back to the queue"
    );
}

/// A fake worker that answers its first `submit` with 2 MiB and no
/// newline, then holds the link open until the dispatcher closes it.
/// Its thread returns whether a submit arrived.
fn spawn_flooding_worker() -> (SocketAddr, std::thread::JoinHandle<bool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
    let addr = listener.local_addr().expect("bound address");
    let flood = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("dispatcher connects");
        stream
            .set_write_timeout(Some(Duration::from_secs(30)))
            .expect("write timeout");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut got_submit = false;
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            if !got_submit && line.contains("\"submit\"") {
                got_submit = true;
                // The dispatcher tears the link down part-way through,
                // so the write may fail; either way, keep reading to EOF.
                let _ = writer.write_all(&vec![b'x'; 2 << 20]);
            }
        }
        got_submit
    });
    (addr, flood)
}

#[test]
fn over_long_worker_line_counts_as_death_and_requeues() {
    let _guard = serialize();
    let (fake_addr, flood) = spawn_flooding_worker();
    let worker = WorkerGuard::start(1);
    let spec = two_config_spec();
    let expected = reference_lines(&spec);

    let before = Registry::global().snapshot().counters;
    let dispatcher = Dispatcher::start(DispatcherConfig {
        // The fake worker is first, so it receives the first cell.
        workers: vec![fake_addr.to_string(), worker.addr.to_string()],
        max_outstanding: 1,
        ..DispatcherConfig::default()
    })
    .expect("start dispatcher");
    let handle = dispatcher.submit(&spec).expect("submit");
    // Wait on a side thread so a dispatcher that never notices the
    // flood fails the test instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(handle.wait());
    });
    let events = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("job finishes on the real worker");
    waiter.join().expect("waiter thread");
    let after = Registry::global().snapshot().counters;

    assert!(
        flood.join().expect("fake worker thread"),
        "fake worker got a cell"
    );
    assert_eq!(
        fleet_lines(events),
        expected,
        "requeued job is bit-identical"
    );
    let status = dispatcher.workers();
    assert!(!status[0].alive, "flooding worker is reported dead");
    assert!(status[1].alive, "real worker is still up");
    assert!(
        counter_delta(&after, &before, "fleet.cells.requeued") >= 1,
        "the flooding worker's cell went back to the queue"
    );
}

/// Submits `spec` `runs` times back to back over `client` and returns
/// the median submit→`finished` time in milliseconds.
fn median_job_ms(client: &mut ServiceClient, spec: &JobSpec, runs: usize) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let job = client.submit(spec).expect("submit");
            let events = client.stream_job(job).expect("stream");
            assert!(
                matches!(events.last(), Some(WireEvent::Finished { .. })),
                "{events:?}"
            );
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[runs / 2]
}

/// A bound well under the ~40 ms Linux delayed ACK that Nagle's
/// algorithm would make every small line wait for.
const LATENCY_BOUND_MS: f64 = 20.0;

#[test]
fn store_hits_through_the_fleet_server_beat_the_delayed_ack_floor() {
    let _guard = serialize();
    let worker = WorkerGuard::start(1);
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker.addr.to_string()],
        ..DispatcherConfig::default()
    })
    .expect("start dispatcher");
    let fleet = FleetServer::bind("127.0.0.1:0", dispatcher).expect("bind dispatcher");
    let fleet_addr = fleet.local_addr().expect("bound address");
    let fleet_serve = std::thread::spawn(move || fleet.serve());
    let mut client = ServiceClient::connect(fleet_addr).expect("connect");

    let mut spec = JobSpec::bench("mcf");
    spec.instructions = 1_000;
    spec.seed = 0x1A7E_0001;
    // The first run fills the result store; the timed resubmissions run
    // no cell at all, so they measure the wire and the dispatcher.
    median_job_ms(&mut client, &spec, 1);
    let median = median_job_ms(&mut client, &spec, 20);
    assert!(
        median < LATENCY_BOUND_MS,
        "store-hit median {median:.2} ms ≥ {LATENCY_BOUND_MS} ms"
    );
    client.shutdown_server().expect("dispatcher shutdown");
    fleet_serve
        .join()
        .expect("dispatcher thread")
        .expect("clean dispatcher exit");
}

#[test]
fn one_cell_jobs_direct_to_a_worker_beat_the_delayed_ack_floor() {
    let _guard = serialize();
    let worker = WorkerGuard::start(1);
    let mut client = ServiceClient::connect(worker.addr).expect("connect");
    let mut spec = JobSpec::bench("mcf");
    spec.instructions = 1_000;
    spec.seed = 0x1A7E_0002;
    // Warm the trace memo so the timed jobs run only the cell.
    median_job_ms(&mut client, &spec, 1);
    let median = median_job_ms(&mut client, &spec, 20);
    assert!(
        median < LATENCY_BOUND_MS,
        "one-cell job median {median:.2} ms ≥ {LATENCY_BOUND_MS} ms"
    );
}
