//! TCP front-end tests: ≥4 simultaneous clients over a loopback
//! [`ExperimentServer`], per-job event-stream ordering, cancellation
//! that actually stops work, the cache-stats endpoint, malformed and
//! oversize requests (answered alike by the fleet's `FleetServer`), and
//! clean shutdown.

use secddr::core::config::SecurityConfig;
use secddr::fleet::{Dispatcher, DispatcherConfig, FleetServer};
use secddr::service::net::MAX_REQUEST_LINE;
use secddr::service::{
    ExperimentServer, ExperimentService, JobSpec, Json, ServiceClient, SuiteSel, WireEvent,
    Workload,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serializes the tests in this binary: the trace-cache counters the
/// cache-stats assertions read are *process-wide*, so a concurrently
/// running sibling test would perturb the deltas.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Binds an ephemeral-port server and returns its address plus the
/// serve-loop join handle (joined after a client sends `shutdown`).
fn start_server(threads: usize) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = ExperimentServer::bind("127.0.0.1:0", ExperimentService::with_threads(threads))
        .expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn tiny_spec(name: &str, instructions: u64) -> JobSpec {
    let mut spec = JobSpec::bench(name);
    spec.instructions = instructions;
    spec
}

/// Asserts one job's full stream is well-ordered: queued → started →
/// cells with ascending indices, each followed by one live metrics
/// frame → finished; returns the cell count.
fn assert_ordered_stream(events: &[WireEvent], job: u64) -> u64 {
    assert!(
        matches!(events.first(), Some(WireEvent::Queued { job: j, .. }) if *j == job),
        "stream starts with queued: {events:?}"
    );
    assert!(
        matches!(events.get(1), Some(WireEvent::Started { job: j }) if *j == job),
        "queued then started: {events:?}"
    );
    let mut expected_index = 0u64;
    let mut frames = 0u64;
    for event in &events[2..events.len() - 1] {
        match event {
            WireEvent::Cell { index, total, .. } => {
                assert_eq!(*index, expected_index, "ascending cell indices");
                assert_eq!(*total, (events.len() as u64 - 3) / 2, "cell total");
                expected_index += 1;
            }
            WireEvent::Metrics { job: j, .. } => {
                assert_eq!(*j, job, "frames carry their job id");
                frames += 1;
                assert_eq!(frames, expected_index, "one frame right after each cell");
            }
            other => panic!("unexpected event between started and terminal: {other:?}"),
        }
    }
    let Some(WireEvent::Finished { cells, .. }) = events.last() else {
        panic!("terminal must be finished: {events:?}");
    };
    assert_eq!(*cells, expected_index);
    assert_eq!(frames, expected_index, "every cell streamed a live frame");
    expected_index
}

#[test]
fn four_concurrent_clients_stream_ordered_results() {
    let _guard = serialize();
    let (addr, server) = start_server(3);
    let benchmarks = ["mcf", "omnetpp", "povray", "pr"];
    let mut clients: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for (i, name) in benchmarks.into_iter().enumerate() {
        clients.push(std::thread::spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("connect");
            // Distinct shapes per client: exercise single- and
            // multi-core, single- and multi-channel, multi-config.
            let mut spec = tiny_spec(name, 5_000);
            match i {
                0 => {
                    spec.configs =
                        vec![SecurityConfig::secddr_ctr(), SecurityConfig::tdx_baseline()];
                }
                1 => spec.channels = 2,
                2 => {
                    spec.cores = 2;
                    spec.channels = 2;
                }
                _ => {}
            }
            let expected_cells = (spec.cell_count().unwrap()) as u64;
            let job = client.submit(&spec).expect("submit");
            let events = client.stream_job(job).expect("stream");
            let cells = assert_ordered_stream(&events, job);
            assert_eq!(cells, expected_cells);
        }));
    }
    for client in clients {
        client.join().expect("client thread");
    }
    let mut closer = ServiceClient::connect(addr).expect("connect for shutdown");
    let stats = closer.cache_stats().expect("cache stats");
    assert_eq!(stats.jobs_submitted, 4);
    assert_eq!(stats.jobs_completed, 4);
    closer.shutdown_server().expect("shutdown");
    server
        .join()
        .expect("serve thread")
        .expect("clean serve exit");
}

#[test]
fn one_connection_multiplexes_two_jobs() {
    let _guard = serialize();
    let (addr, server) = start_server(2);
    let mut client = ServiceClient::connect(addr).expect("connect");
    let job_a = client.submit(&tiny_spec("mcf", 5_000)).expect("submit a");
    let job_b = client
        .submit(&tiny_spec("povray", 5_000))
        .expect("submit b");
    assert_ne!(job_a, job_b);
    // Streaming job A first leaves job B's interleaved events queued;
    // both streams must come out whole and ordered.
    let events_a = client.stream_job(job_a).expect("stream a");
    let events_b = client.stream_job(job_b).expect("stream b");
    assert_ordered_stream(&events_a, job_a);
    assert_ordered_stream(&events_b, job_b);
    client.shutdown_server().expect("shutdown");
    server.join().expect("serve thread").expect("clean exit");
}

#[test]
fn cancellation_over_tcp_stops_work() {
    let _guard = serialize();
    // One worker thread: a long blocker occupies it while the victim
    // job is still queued, so the cancel provably lands before any of
    // the victim's cells run.
    let (addr, server) = start_server(1);
    let mut client = ServiceClient::connect(addr).expect("connect");
    let blocker = client
        .submit(&tiny_spec("povray", 20_000))
        .expect("blocker");
    let mut victim_spec = tiny_spec("mcf", 20_000);
    victim_spec.workload = Workload::Suite(SuiteSel::Gapbs); // 6 cells
    let victim = client.submit(&victim_spec).expect("victim");
    assert!(client.cancel(victim).expect("cancel"), "victim was live");
    let victim_events = client.stream_job(victim).expect("victim stream");
    let Some(WireEvent::Cancelled { completed, .. }) = victim_events.last() else {
        panic!("victim must end cancelled: {victim_events:?}");
    };
    assert_eq!(*completed, 0, "no victim cell ran after the cancel");
    assert!(
        !victim_events
            .iter()
            .any(|e| matches!(e, WireEvent::Cell { .. })),
        "cancellation stopped all work: {victim_events:?}"
    );
    let blocker_events = client.stream_job(blocker).expect("blocker stream");
    assert_ordered_stream(&blocker_events, blocker);
    // Cancelling a finished job is a no-op the server reports honestly.
    assert!(!client.cancel(victim).expect("re-cancel"));
    client.shutdown_server().expect("shutdown");
    server.join().expect("serve thread").expect("clean exit");
}

#[test]
fn warm_trace_cache_is_visible_through_cache_stats() {
    let _guard = serialize();
    let (addr, server) = start_server(2);
    let mut client = ServiceClient::connect(addr).expect("connect");
    // Unique (budget, seed) so parallel test binaries cannot have
    // warmed this key in *this* process; the disk tier may still hit
    // from an earlier run, which is exactly what it is for.
    let mut spec = tiny_spec("gcc", 7_321);
    spec.seed = 0xC0FF_EE42;
    let cold = client.submit(&spec).expect("cold submit");
    client.stream_job(cold).expect("cold stream");
    let after_cold = client.cache_stats().expect("stats after cold");

    let warm = client.submit(&spec).expect("warm submit");
    client.stream_job(warm).expect("warm stream");
    let after_warm = client.cache_stats().expect("stats after warm");
    assert_eq!(
        after_warm.trace_generated + after_warm.trace_disk_hits,
        after_cold.trace_generated + after_cold.trace_disk_hits,
        "the second identical-spec job regenerated nothing and read no disk"
    );
    assert!(
        after_warm.trace_memory_hits > after_cold.trace_memory_hits,
        "the second identical-spec job hit the warm in-process cache"
    );
    client.shutdown_server().expect("shutdown");
    server.join().expect("serve thread").expect("clean exit");
}

fn read_reply(reader: &mut impl BufRead) -> Json {
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("reply") > 0, "early EOF");
    Json::parse(line.trim()).expect("server sends JSON")
}

fn reply_type(reply: &Json) -> &str {
    reply.get("type").and_then(Json::as_str).unwrap_or("")
}

/// Sends each malformed request on one raw connection, asserts each
/// gets an `error` reply and that a final `ping` is still answered, and
/// returns the error replies in order.
fn malformed_replies(addr: SocketAddr) -> Vec<Json> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let cases = [
        ("not json", "bad json"),
        (
            r#"{"cmd":"frobnicate"}"#,
            "unknown cmd Some(\"frobnicate\")",
        ),
        (r#"{"no_cmd":true}"#, "unknown cmd None"),
        (r#"{"cmd":"cancel"}"#, "cancel needs a \"job\" id"),
        (r#"{"cmd":"series"}"#, "series needs a \"job\" id"),
        (r#"{"cmd":"submit"}"#, "submit needs a \"spec\" member"),
    ];
    let replies = cases
        .iter()
        .map(|(request, expected)| {
            writeln!(writer, "{request}").expect("send");
            let reply = read_reply(&mut reader);
            assert_eq!(reply_type(&reply), "error", "{request} -> {reply}");
            let message = reply.get("message").and_then(Json::as_str).unwrap_or("");
            assert!(message.contains(expected), "{request} -> {reply}");
            reply
        })
        .collect();
    writeln!(writer, r#"{{"cmd":"ping"}}"#).expect("send ping");
    assert_eq!(reply_type(&read_reply(&mut reader)), "pong", "still open");
    replies
}

#[test]
fn malformed_requests_keep_the_connection_alive() {
    let _guard = serialize();
    let (addr, server) = start_server(1);
    // Both servers share one front end, so a dispatcher with this
    // server as its worker answers malformed requests identically.
    let worker_replies = malformed_replies(addr);
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: vec![addr.to_string()],
        ..DispatcherConfig::default()
    })
    .expect("start dispatcher");
    let fleet = FleetServer::bind("127.0.0.1:0", dispatcher).expect("bind dispatcher");
    let fleet_addr = fleet.local_addr().expect("bound address");
    let fleet_serve = std::thread::spawn(move || fleet.serve());
    assert_eq!(malformed_replies(fleet_addr), worker_replies);
    ServiceClient::connect(fleet_addr)
        .expect("connect to the dispatcher")
        .shutdown_server()
        .expect("dispatcher shutdown");
    fleet_serve
        .join()
        .expect("dispatcher thread")
        .expect("clean dispatcher exit");

    let mut client = ServiceClient::connect(addr).expect("connect");
    // An unknown benchmark is rejected server-side with an error line…
    let bad = tiny_spec("mcf", 1_000);
    let mut bad = bad;
    bad.workload = Workload::Bench("not-a-benchmark".into());
    let err = client
        .submit(&bad)
        .expect_err("server rejects unknown bench");
    assert!(err.to_string().contains("unknown benchmark"), "{err}");
    // …and the connection still serves the next request.
    let job = client
        .submit(&tiny_spec("povray", 2_000))
        .expect("good submit");
    let events = client.stream_job(job).expect("stream");
    assert_ordered_stream(&events, job);
    client.shutdown_server().expect("shutdown");
    server.join().expect("serve thread").expect("clean exit");
}

#[test]
fn oversize_request_line_is_refused_and_the_server_lives_on() {
    let _guard = serialize();
    let (addr, server) = start_server(1);
    let stream = TcpStream::connect(addr).expect("connect");
    // A server that buffers the whole line never answers: time out
    // instead of hanging.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut flood = stream.try_clone().expect("clone stream");
    // The server stops reading at the cap, so the tail of the line may
    // meet a closed socket; only the reply matters.
    let writer = std::thread::spawn(move || {
        let _ = flood.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut reader = BufReader::new(stream);
    let reply = read_reply(&mut reader);
    assert_eq!(reply_type(&reply), "error", "{reply}");
    assert_eq!(
        reply.get("message").and_then(Json::as_str),
        Some(format!("request line exceeds {MAX_REQUEST_LINE} bytes").as_str())
    );
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("clean end of stream"),
        0,
        "the server closed the connection"
    );
    writer.join().expect("writer thread");

    let mut client = ServiceClient::connect(addr).expect("second connection");
    client.ping().expect("the server still answers");
    client.shutdown_server().expect("shutdown");
    server.join().expect("serve thread").expect("clean exit");
}
