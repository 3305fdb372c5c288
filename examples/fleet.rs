//! The fleet end to end: a dispatcher over two workers survives a
//! worker death mid-sweep, and an identical resubmission is served
//! entirely from the whole-result store without executing a cell.
//!
//! Two modes:
//!
//! * `SECDDR_DISPATCH_ADDR=host:port` — connect to an already-running
//!   `secddr-dispatch` (what CI does: it launches 2 `secddr-serve`
//!   workers and the dispatcher on loopback, passes one worker's PID in
//!   `SECDDR_KILL_PID` for this example to SIGKILL mid-run and the
//!   other's address in `SECDDR_WORKER1_ADDR` for a clean shutdown at
//!   the end, then gates on both clean-exit lines);
//! * unset — spin up two in-process workers and a dispatcher on
//!   ephemeral ports, simulating the mid-run crash by severing one
//!   worker link, so `cargo run --release --example fleet` works
//!   stand-alone.
//!
//! Run with: `cargo run --release --example fleet`
//! (`SECDDR_INSTRS` overrides the instruction budget.)

use secddr::core::config::SecurityConfig;
use secddr::fleet::{Dispatcher, DispatcherConfig, FleetServer};
use secddr::service::{ExperimentServer, ExperimentService, JobSpec, ServiceClient, WireEvent};
use std::sync::Arc;

/// How the example crashes the second worker mid-run.
enum Killer {
    /// SIGKILL a real worker process (CI mode).
    Pid(String),
    /// Sever the dispatcher→worker link (stand-alone mode).
    Sever(Arc<Dispatcher>, usize),
}

impl Killer {
    fn kill(&self) {
        match self {
            Killer::Pid(pid) => {
                println!("  killing worker 2 (pid {pid}) mid-run");
                let _ = std::process::Command::new("kill")
                    .args(["-9", pid])
                    .status();
            }
            Killer::Sever(dispatcher, idx) => {
                println!(
                    "  severing worker {} link mid-run (simulated crash)",
                    idx + 1
                );
                dispatcher.sever_worker(*idx);
            }
        }
    }
}

fn stream_sweep(client: &mut ServiceClient, job: u64, kill: Option<&Killer>) -> u64 {
    let mut killed = kill.is_none();
    let mut cells = 0u64;
    loop {
        let event = client.next_event().expect("event stream");
        match &event {
            WireEvent::Queued { job: j, cells } if *j == job => {
                println!("  job {job}: queued ({cells} cells)");
            }
            WireEvent::Started { job: j } if *j == job => println!("  job {job}: started"),
            WireEvent::Cell {
                job: j,
                index,
                total,
                benchmark,
                config,
                aggregate_ipc,
                ..
            } if *j == job => {
                cells += 1;
                println!(
                    "  job {job}: cell {}/{total} {benchmark} x {config}: IPC {aggregate_ipc:.3}",
                    index + 1
                );
                if !killed {
                    killed = true;
                    if let Some(killer) = kill {
                        killer.kill();
                    }
                }
            }
            WireEvent::Finished {
                job: j,
                cells: total,
                instructions,
                cycles,
            } if *j == job => {
                println!(
                    "  job {job}: finished ({total} cells, {instructions} instrs, {cycles} cycles)"
                );
                assert_eq!(cells, *total, "every cell was streamed before finished");
                return cells;
            }
            WireEvent::Cancelled { job: j, .. } | WireEvent::Failed { job: j, .. } if *j == job => {
                panic!("sweep did not finish: {event:?}");
            }
            _ => {}
        }
    }
}

fn fleet_counter(client: &mut ServiceClient, name: &str) -> u64 {
    client
        .metrics()
        .expect("metrics command")
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn main() {
    let instructions = std::env::var("SECDDR_INSTRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8_000);

    // ---- Reach a dispatcher: external (CI) or in-process. ----
    let external = std::env::var("SECDDR_DISPATCH_ADDR").ok();
    let mut local_workers: Vec<(String, std::thread::JoinHandle<std::io::Result<()>>)> = Vec::new();
    let (addr, killer, worker1_addr, local_server) = match &external {
        Some(addr) => {
            println!("connecting to external secddr-dispatch at {addr}");
            let pid = std::env::var("SECDDR_KILL_PID").expect("SECDDR_KILL_PID with external");
            let worker1 =
                std::env::var("SECDDR_WORKER1_ADDR").expect("SECDDR_WORKER1_ADDR with external");
            (addr.clone(), Killer::Pid(pid), worker1, None)
        }
        None => {
            for i in 0..2 {
                let server =
                    ExperimentServer::bind("127.0.0.1:0", ExperimentService::with_threads(1))
                        .expect("bind a worker");
                let waddr = server.local_addr().expect("bound address").to_string();
                println!("started in-process worker {} on {waddr}", i + 1);
                local_workers.push((waddr, std::thread::spawn(move || server.serve())));
            }
            let server = FleetServer::bind(
                "127.0.0.1:0",
                Dispatcher::start(DispatcherConfig {
                    workers: local_workers.iter().map(|(a, _)| a.clone()).collect(),
                    ..DispatcherConfig::default()
                })
                .expect("start dispatcher"),
            )
            .expect("bind dispatcher");
            let addr = server.local_addr().expect("bound address").to_string();
            let dispatcher = server.handler();
            println!("started in-process dispatcher on {addr}");
            (
                addr,
                Killer::Sever(dispatcher, 1),
                local_workers[0].0.clone(),
                Some(std::thread::spawn(move || server.serve())),
            )
        }
    };
    let mut client = ServiceClient::connect(&addr).expect("connect to the dispatcher");
    client.ping().expect("dispatcher answers ping");

    // ---- The sweep: one benchmark across six security configs. ----
    let mut sweep = JobSpec::bench("mcf");
    sweep.instructions = instructions;
    sweep.configs = vec![
        SecurityConfig::tdx_baseline(),
        SecurityConfig::secddr_ctr(),
        SecurityConfig::secddr_xts(),
        SecurityConfig::tree_64ary(),
        SecurityConfig::encrypt_only_ctr(),
        SecurityConfig::invisimem_realistic(secddr::core::config::EncMode::Ctr),
    ];

    // ---- Round 1: run it, crashing worker 2 after the first cell. ----
    let job = client.submit(&sweep).expect("submit sweep");
    println!("\nround 1: sweep as job {job}, with a mid-run worker crash:\n");
    let cells = stream_sweep(&mut client, job, Some(&killer));

    // The dispatcher noticed the death and requeued the dead worker's
    // cells (the job finished, so the requeue demonstrably worked).
    let mut deaths = 0;
    for _ in 0..100 {
        deaths = fleet_counter(&mut client, "fleet.worker.deaths");
        if deaths > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    assert!(deaths >= 1, "the worker death was detected and counted");
    let requeued = fleet_counter(&mut client, "fleet.cells.requeued");
    println!(
        "\nworker death survived: {deaths} death(s) detected, {requeued} cell(s) requeued, \
         all {cells} cells delivered"
    );

    // ---- Round 2: the identical sweep is pure result-store traffic. ----
    let hits_before = fleet_counter(&mut client, "fleet.result_cache.hits");
    let dispatched_before = fleet_counter(&mut client, "fleet.cells.dispatched");
    let warm_job = client.submit(&sweep).expect("resubmit identical sweep");
    println!("\nround 2: identical sweep as job {warm_job}, served from the result store:\n");
    let warm_cells = stream_sweep(&mut client, warm_job, None);
    assert_eq!(warm_cells, cells);
    let hits = fleet_counter(&mut client, "fleet.result_cache.hits") - hits_before;
    let dispatched = fleet_counter(&mut client, "fleet.cells.dispatched") - dispatched_before;
    assert!(hits > 0, "fleet.result_cache.hits must move");
    assert_eq!(hits, cells, "every cell came from the result store");
    assert_eq!(dispatched, 0, "zero cells executed on any worker");
    println!(
        "\nmemoization proof: {hits} result-store hits, {dispatched} cells dispatched \
         to workers"
    );

    // ---- Satellite check: the surviving worker exposes its pool
    // gauges through the metrics endpoint. ----
    let mut worker_client =
        ServiceClient::connect(&worker1_addr).expect("connect to surviving worker");
    let gauges = worker_client.gauges().expect("worker gauges");
    assert!(
        gauges.contains_key("service.pool.queue_depth")
            && gauges.contains_key("service.pool.inflight"),
        "pool gauges are published: {gauges:?}"
    );
    println!(
        "worker pool gauges: queue_depth={} inflight={}",
        gauges["service.pool.queue_depth"], gauges["service.pool.inflight"]
    );

    // ---- Clean shutdowns (the CI gate waits on both exits). ----
    client.shutdown_server().expect("dispatcher shutdown");
    if let Some(server) = local_server {
        server
            .join()
            .expect("dispatcher thread")
            .expect("clean dispatcher exit");
    }
    println!("\ndispatcher shut down cleanly");
    worker_client.shutdown_server().expect("worker 1 shutdown");
    if let Some((_, serve)) = local_workers.into_iter().next() {
        serve
            .join()
            .expect("worker 1 thread")
            .expect("clean worker exit");
    }
    println!("worker 1 shut down cleanly");
}
