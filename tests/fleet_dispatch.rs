//! Fleet dispatcher integration: the dispatcher's event stream is
//! bit-identical to the single-service path, identical resubmissions
//! are served entirely from the result store (zero cells executed),
//! back-to-back jobs with millisecond cells all finish, killing one
//! of N workers requeues its work and completes the job with correct
//! results, and small jobs finish well under the ~40 ms a delayed ACK
//! would add to every line-protocol exchange.

use secddr::core::config::SecurityConfig;
use secddr::fleet::{Dispatcher, DispatcherConfig, FleetServer};
use secddr::service::net::event_to_json;
use secddr::service::{
    ExperimentServer, ExperimentService, JobSpec, Json, ServiceClient, ShutdownHandle, WireEvent,
};
use secddr::Registry;
use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard, OnceLock};
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
    let spec = two_config_spec();
    let expected = reference_lines(&spec);
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker.addr.to_string()],
        ..DispatcherConfig::default()
    })
    .expect("start dispatcher");
    let handle = dispatcher.submit(&spec).expect("submit");
    assert_eq!(handle.cells, 2);
    let got = fleet_lines(handle.wait());
    assert_eq!(got, expected, "dispatched stream == single-service stream");
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
