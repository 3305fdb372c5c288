//! Crash-recovery coverage: jobs written through the write-ahead log
//! survive a dispatcher death mid-queue, replay to completion with
//! results bit-identical to an uninterrupted run, duplicate
//! `(spec, seed)` submissions execute zero new cells, and a job whose
//! `finished` a client has read is already terminal in the log.

use secddr::core::config::SecurityConfig;
use secddr::fleet::joblog::{read_log, LogRecord};
use secddr::fleet::{Dispatcher, DispatcherConfig};
use secddr::service::net::event_to_json;
use secddr::service::{ExperimentServer, ExperimentService, JobSpec, Json, ShutdownHandle};
use secddr::Registry;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes the tests in this binary — the fleet counters the
/// assertions read are process-wide.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("secddr-recovery-{tag}-{}-{n}", std::process::id()))
}

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

fn strip_job(json: Json) -> Json {
    match json {
        Json::Obj(members) => Json::Obj(members.into_iter().filter(|(k, _)| k != "job").collect()),
        other => other,
    }
}

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

fn counter(name: &str) -> u64 {
    Registry::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn restart_replays_incomplete_jobs_bit_identically_and_dedupes() {
    let _guard = serialize();
    let log_dir = temp_dir("log");
    let store_dir = temp_dir("store");
    let mut spec = JobSpec::bench("mcf");
    spec.instructions = 5_000;
    spec.configs = vec![SecurityConfig::secddr_ctr(), SecurityConfig::tdx_baseline()];
    let expected = reference_lines(&spec);

    // Phase 1: a dispatcher with zero workers accepts (and logs) the
    // job twice — once with a different priority, which must dedupe —
    // then dies mid-queue with nothing executed.
    {
        let dispatcher = Dispatcher::start(DispatcherConfig {
            log_dir: Some(log_dir.clone()),
            store_dir: Some(store_dir.clone()),
            ..DispatcherConfig::default()
        })
        .expect("start phase-1 dispatcher");
        let first = dispatcher.submit(&spec).expect("submit");
        let mut duplicate = spec.clone();
        duplicate.priority = 3;
        let second = dispatcher.submit(&duplicate).expect("duplicate submit");
        assert_eq!(first.cells, 2);
        assert_eq!(second.cells, 2);
        // The dispatcher drops here: queued jobs are lost from memory
        // but durable in the log.
    }

    // Phase 2: restart against the same dirs, now with a live worker.
    // The incomplete set replays — deduped by content hash — and runs
    // to completion.
    let worker = WorkerGuard::start(2);
    let dispatched_before_replay = counter("fleet.cells.dispatched");
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker.addr.to_string()],
        log_dir: Some(log_dir.clone()),
        store_dir: Some(store_dir.clone()),
        ..DispatcherConfig::default()
    })
    .expect("start phase-2 dispatcher");
    assert_eq!(
        dispatcher.replayed(),
        1,
        "duplicate (spec, seed) submissions dedupe to one replay"
    );
    dispatcher.drain();
    assert_eq!(
        counter("fleet.cells.dispatched") - dispatched_before_replay,
        2,
        "the replayed job executed exactly its own cells"
    );

    // Phase 3: an identical resubmission is served entirely from the
    // result store the replay filled — zero new cells, and the stream
    // is bit-identical to the uninterrupted single-service run (which
    // also proves the replayed results themselves were bit-identical).
    let dispatched_before = counter("fleet.cells.dispatched");
    let hits_before = counter("fleet.result_cache.hits");
    let handle = dispatcher.submit(&spec).expect("resubmit");
    let got: Vec<String> = handle
        .wait()
        .into_iter()
        .map(|json| strip_job(json).to_string())
        .collect();
    assert_eq!(got, expected, "replayed+memoized results are bit-identical");
    assert_eq!(
        counter("fleet.cells.dispatched") - dispatched_before,
        0,
        "duplicate executed zero new cells"
    );
    assert_eq!(
        counter("fleet.result_cache.hits") - hits_before,
        2,
        "both cells came from the result store"
    );

    // Phase 4: a further restart finds a fully-terminal log — nothing
    // replays.
    drop(dispatcher);
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker.addr.to_string()],
        log_dir: Some(log_dir.clone()),
        store_dir: Some(store_dir.clone()),
        ..DispatcherConfig::default()
    })
    .expect("start phase-4 dispatcher");
    assert_eq!(dispatcher.replayed(), 0, "terminal jobs do not replay");
    drop(dispatcher);

    std::fs::remove_dir_all(&log_dir).ok();
    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn log_survives_results_served_across_dispatcher_generations() {
    let _guard = serialize();
    let log_dir = temp_dir("genlog");
    let store_dir = temp_dir("genstore");
    let mut spec = JobSpec::bench("povray");
    spec.instructions = 4_000;

    let worker = WorkerGuard::start(2);
    let first = {
        let dispatcher = Dispatcher::start(DispatcherConfig {
            workers: vec![worker.addr.to_string()],
            log_dir: Some(log_dir.clone()),
            store_dir: Some(store_dir.clone()),
            ..DispatcherConfig::default()
        })
        .expect("start generation 1");
        let events = dispatcher.submit(&spec).expect("submit").wait();
        events
            .into_iter()
            .map(|json| strip_job(json).to_string())
            .collect::<Vec<_>>()
    };

    // A brand-new dispatcher generation serves the same spec from the
    // on-disk store without dispatching anything.
    let dispatched_before = counter("fleet.cells.dispatched");
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker.addr.to_string()],
        log_dir: Some(log_dir.clone()),
        store_dir: Some(store_dir.clone()),
        ..DispatcherConfig::default()
    })
    .expect("start generation 2");
    assert_eq!(dispatcher.replayed(), 0);
    let second: Vec<String> = dispatcher
        .submit(&spec)
        .expect("resubmit")
        .wait()
        .into_iter()
        .map(|json| strip_job(json).to_string())
        .collect();
    assert_eq!(second, first, "disk store serves across generations");
    assert_eq!(counter("fleet.cells.dispatched") - dispatched_before, 0);
    drop(dispatcher);

    std::fs::remove_dir_all(&log_dir).ok();
    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn a_finished_job_seen_by_its_client_never_replays() {
    let _guard = serialize();
    let log_dir = temp_dir("seenlog");
    let worker = WorkerGuard::start(2);
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![worker.addr.to_string()],
        log_dir: Some(log_dir.clone()),
        ..DispatcherConfig::default()
    })
    .expect("start dispatcher");
    let mut spec = JobSpec::bench("mcf");
    spec.instructions = 2_000;
    spec.seed = 0x5EE1; // a fresh seed misses the result store
    let handle = dispatcher.submit(&spec).expect("submit");
    loop {
        let event = handle.next_event().expect("the job ends with finished");
        if event.get("type").and_then(Json::as_str) == Some("finished") {
            break;
        }
    }
    // The terminal record precedes the terminal event, so it is in the
    // file the moment the client has seen `finished`.
    let records = read_log(&log_dir).expect("read log");
    assert!(
        matches!(records.last(), Some(LogRecord::Terminal { hash, .. }) if *hash == spec.content_hash()),
        "{records:?}"
    );
    // Dropped without a drain, as a crash right after `finished` would.
    drop(handle);
    drop(dispatcher);
    let dispatcher = Dispatcher::start(DispatcherConfig {
        log_dir: Some(log_dir.clone()),
        ..DispatcherConfig::default()
    })
    .expect("reopen dispatcher");
    assert_eq!(
        dispatcher.replayed(),
        0,
        "a job the client saw finish does not replay"
    );
    drop(dispatcher);
    std::fs::remove_dir_all(&log_dir).ok();
}
