//! `fleet_jobs`: a closed loop of one client connection to an
//! in-process `FleetServer`/`Dispatcher` fronting one in-process
//! `ExperimentServer` worker (pool of 2 threads) on loopback.
//!
//! Jobs are small (mcf x {SecDDR+CTR, 64-ary tree} at 20,000
//! instructions) and alternate a fresh seed, which misses the result
//! store so the worker runs the cells, with an identical resubmission,
//! which the store answers. An operation is one job, timed from submit
//! to its `finished` event. Every streamed cell is compared with the
//! same cell run in-process.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dram_sim::ControllerTelemetry;
use secddr_core::engine::EngineOptions;
use secddr_core::system::run_trace_with_options;
use secddr_core::{EngineStats, SecurityConfig};
use secddr_fleet::{Dispatcher, DispatcherConfig, FleetServer};
use secddr_service::{ExperimentServer, ExperimentService, JobSpec, ServiceClient, WireEvent};
use workloads::Benchmark;

use crate::seam::{probed_cell, SeamStats};
use crate::{dram_counts, median, mix, tail, Args, Report};

const NAME: &str = "fleet_jobs";
const BENCH: &str = "mcf";
/// Per-cell budget. At 1,000 instructions a cell (about 1 ms) can
/// finish before the worker writes its submit ack; the dispatcher then
/// drops the cell's events and the job never finishes. A cell of this
/// size (about 15 ms) outlasts any plausible delay of the ack while the
/// dispatcher's fixed latency still dominates the job.
const INSTRUCTIONS: u64 = 20_000;
/// A job that has not finished after this long is taken as lost.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;

fn configs() -> [SecurityConfig; 2] {
    [SecurityConfig::secddr_ctr(), SecurityConfig::tree_64ary()]
}

/// The job at `seed` with its first `cells` configurations.
fn spec(seed: u64, cells: usize) -> JobSpec {
    let mut spec = JobSpec::bench(BENCH);
    spec.configs = configs()[..cells].to_vec();
    spec.instructions = INSTRUCTIONS;
    spec.seed = seed;
    spec
}

/// `(instructions, cycles)` per cell, in cell order.
type Cells = Vec<(u64, u64)>;

/// The worker, the dispatcher in front of it, and one client.
struct Fleet {
    client: ServiceClient,
    worker_addr: SocketAddr,
    worker: JoinHandle<std::io::Result<()>>,
    front: JoinHandle<std::io::Result<()>>,
}

impl Fleet {
    fn start(dir: &Path) -> std::io::Result<Self> {
        let server = ExperimentServer::bind("127.0.0.1:0", ExperimentService::with_threads(2))?;
        let worker_addr = server.local_addr()?;
        let worker = std::thread::spawn(move || server.serve());
        let dispatcher = Dispatcher::start(DispatcherConfig {
            workers: vec![worker_addr.to_string()],
            log_dir: Some(dir.join("log")),
            store_dir: Some(dir.join("store")),
            ..DispatcherConfig::default()
        })?;
        let front = FleetServer::bind("127.0.0.1:0", dispatcher)?;
        let addr = front.local_addr()?;
        let front = std::thread::spawn(move || front.serve());
        let mut client = ServiceClient::connect(addr)?;
        client.ping()?;
        Ok(Self {
            client,
            worker_addr,
            worker,
            front,
        })
    }

    /// Shuts the dispatcher, then the worker, down and joins both.
    fn stop(mut self) -> std::io::Result<()> {
        self.client.shutdown_server()?;
        self.front.join().expect("dispatcher thread panicked")?;
        ServiceClient::connect(self.worker_addr)?.shutdown_server()?;
        self.worker.join().expect("worker thread panicked")
    }
}

/// Submit-to-finished timing of one job over the wire.
struct WireJob {
    total_s: f64,
    ack_s: f64,
    first_cell_s: f64,
    cells: Cells,
}

fn wire_job(client: &mut ServiceClient, spec: &JobSpec) -> Result<WireJob, String> {
    let start = Instant::now();
    let job = client.submit(spec).map_err(|e| e.to_string())?;
    let ack_s = start.elapsed().as_secs_f64();
    let mut first_cell_s = None;
    let mut cells = BTreeMap::new();
    loop {
        match client.next_event().map_err(|e| e.to_string())? {
            WireEvent::Cell {
                job: j,
                index,
                instructions,
                cycles,
                ..
            } if j == job => {
                first_cell_s.get_or_insert(start.elapsed().as_secs_f64());
                cells.insert(index, (instructions, cycles));
            }
            WireEvent::Finished { job: j, .. } if j == job => break,
            WireEvent::Cancelled { job: j, .. } | WireEvent::Failed { job: j, .. } if j == job => {
                return Err(format!("job {job} did not finish"));
            }
            _ => {}
        }
    }
    Ok(WireJob {
        total_s: start.elapsed().as_secs_f64(),
        ack_s,
        first_cell_s: first_cell_s.unwrap_or(0.0),
        cells: cells.into_values().collect(),
    })
}

/// The job's cells run in-process through the library's cell path
/// (with the seam probe when `probed`), and the seconds it took.
struct Reference {
    cells: Cells,
    secs: f64,
    probe: Option<Probe>,
}

/// What the probe saw over one job's cells.
#[derive(Default, Clone)]
struct Probe {
    seam: SeamStats,
    telemetry: ControllerTelemetry,
    engine: EngineStats,
    /// Seconds spent in the probed cells.
    cell_s: f64,
}

impl Probe {
    fn counts(&self) -> Vec<u64> {
        let mut v = self.seam.counts().to_vec();
        v.extend(dram_counts(&self.telemetry));
        v
    }
}

fn reference(seed: u64, probed: bool, cells_wanted: usize) -> Reference {
    let start = Instant::now();
    let bench = Benchmark::by_name(BENCH).expect("mcf is a Figure 6 benchmark");
    let trace = bench.generate(INSTRUCTIONS, seed);
    let mut cells = Vec::new();
    let mut probe = Probe::default();
    for config in &configs()[..cells_wanted] {
        let cell_start = Instant::now();
        if probed {
            let p = probed_cell(&trace, config);
            cells.push((p.sim.instructions, p.sim.cycles));
            probe.seam.merge(&p.seam);
            probe.telemetry.merge(&p.telemetry);
            probe.engine.merge(&p.engine);
        } else {
            let r = run_trace_with_options(&bench, &trace, config, EngineOptions::default());
            cells.push((r.sim.instructions, r.sim.cycles));
        }
        probe.cell_s += cell_start.elapsed().as_secs_f64();
    }
    Reference {
        cells,
        secs: start.elapsed().as_secs_f64(),
        probe: probed.then_some(probe),
    }
}

/// Counts one job and checks its cells against the in-process run.
fn checked(report: &mut Report, outcome: Result<Cells, String>, want: &Cells) -> bool {
    report.attempted += 1;
    JOBS_DONE.fetch_add(1, Ordering::Relaxed);
    let ok = match outcome {
        Ok(cells) if &cells == want => true,
        Ok(cells) => {
            println!("{NAME}: streamed cells {cells:?} differ from in-process {want:?}");
            false
        }
        Err(e) => {
            println!("{NAME}: {e}");
            false
        }
    };
    report.failed += u64::from(!ok);
    ok
}

/// Starts and stops the fleet `SETUP_REPS - 1` times and starts it once
/// more for the measurement; returns it with the median start-up time.
fn setup(dir: &Path) -> std::io::Result<(Fleet, f64)> {
    let mut secs = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let fleet = Fleet::start(&dir.join(format!("fleet-{rep}")))?;
        secs.push(start.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((fleet, median(&secs)));
        }
        fleet.stop()?;
    }
    unreachable!("the last repetition returns")
}

/// The dispatcher's counters that the traced run reports.
fn fleet_counters(client: &mut ServiceClient) -> std::io::Result<[u64; 3]> {
    let m = client.metrics()?;
    let get = |k: &str| m.get(k).copied().unwrap_or(0);
    Ok([
        get("fleet.result_cache.hits"),
        get("fleet.result_cache.misses"),
        get("fleet.cells.dispatched"),
    ])
}

/// Jobs completed so far, watched by [`watchdog`].
static JOBS_DONE: AtomicU64 = AtomicU64::new(0);

/// Ends the process with an error when no job completes for
/// [`JOB_TIMEOUT`]: a lost job would otherwise block the client forever.
/// The thread is left detached; it ends with the process.
fn watchdog() {
    std::thread::spawn(|| {
        let mut last = u64::MAX;
        loop {
            std::thread::sleep(JOB_TIMEOUT);
            let now = JOBS_DONE.load(Ordering::Relaxed);
            if now == last {
                eprintln!("{NAME}: no job finished for {JOB_TIMEOUT:?}; a job was lost");
                std::process::exit(3);
            }
            last = now;
        }
    });
}

pub fn run(args: &Args, report: &mut Report) {
    watchdog();
    let (mut fleet, setup_s) = match setup(&args.scratch) {
        Ok(ready) => ready,
        Err(e) => {
            report.check(false, format!("fleet set-up failed: {e}"));
            return;
        }
    };
    let result = if args.trace {
        traced(args, report, &mut fleet)
    } else {
        untraced(args, report, &mut fleet, setup_s);
        Ok(())
    };
    if let Err(e) = result {
        report.check(false, format!("fleet I/O failed: {e}"));
    }
    if let Err(e) = fleet.stop() {
        report.check(false, format!("fleet shutdown failed: {e}"));
    }
}

/// Miss then hit through the dispatcher; returns both latencies when
/// both jobs finished with the expected cells.
fn round(
    report: &mut Report,
    client: &mut ServiceClient,
    spec: &JobSpec,
    want: &Cells,
) -> (Option<WireJob>, Option<WireJob>) {
    let mut one = |report: &mut Report| {
        let job = wire_job(client, spec);
        let cells = job.as_ref().map(|j| j.cells.clone()).map_err(Clone::clone);
        if checked(report, cells, want) {
            job.ok()
        } else {
            None
        }
    };
    let miss = one(report);
    let hit = one(report);
    (miss, hit)
}

fn untraced(args: &Args, report: &mut Report, fleet: &mut Fleet, setup_s: f64) {
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    let mut instructions = 0u64;
    let clock = Instant::now();
    let mut i = 0u64;
    while miss.is_empty() || clock.elapsed().as_secs_f64() < args.seconds {
        let seed = mix(args.seed, i);
        i += 1;
        let want = reference(seed, false, 2).cells;
        let (m, h) = round(report, &mut fleet.client, &spec(seed, 2), &want);
        if let Some(m) = m {
            instructions += m.cells.iter().map(|c| c.0).sum::<u64>();
            miss.push(m.total_s);
        }
        hit.extend(h.map(|h| h.total_s));
        if report.failed > 3 {
            break;
        }
    }
    let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let (miss_ms, hit_ms) = (ms(&miss), ms(&hit));
    println!(
        "{NAME}: {} miss jobs and {} store-hit jobs",
        miss.len(),
        hit.len()
    );
    report.set("setup_s", setup_s);
    report.set(
        "sim_minstr_per_s",
        instructions as f64 / miss.iter().sum::<f64>() / 1e6,
    );
    report.set("job_p50_ms", median(&miss_ms));
    let (p90, p) = tail(&miss_ms);
    println!(
        "{NAME}: job_p90_ms is the p{:.1} of {} samples",
        p * 100.0,
        miss_ms.len()
    );
    report.set("job_p90_ms", p90);
    report.set("store_hit_p50_ms", median(&hit_ms));
}

/// The ways a traced job can travel.
#[derive(Clone, Copy, PartialEq)]
enum Route {
    /// Client → dispatcher → worker.
    Dispatcher,
    /// Client → worker.
    Direct,
    /// `ExperimentService::submit().wait()` in this process.
    InProcess,
}

/// Latencies of the fresh jobs of one traced phase, and its spans.
#[derive(Default)]
struct Phase {
    total: Vec<f64>,
    ack: Vec<f64>,
    first_cell: Vec<f64>,
    /// Wall-clock of the phase.
    wall: f64,
    /// Seconds inside job and reference spans.
    spans: f64,
}

fn route_job(
    route: Route,
    fleet: &mut Fleet,
    direct: &mut ServiceClient,
    inproc: &ExperimentService,
    spec: &JobSpec,
) -> Result<WireJob, String> {
    match route {
        Route::Dispatcher => wire_job(&mut fleet.client, spec),
        Route::Direct => wire_job(direct, spec),
        Route::InProcess => {
            let start = Instant::now();
            let outcome = inproc
                .submit(spec.clone())
                .map_err(|e| e.to_string())?
                .wait();
            if !outcome.finished() {
                return Err("in-process job did not finish".into());
            }
            Ok(WireJob {
                total_s: start.elapsed().as_secs_f64(),
                ack_s: 0.0,
                first_cell_s: 0.0,
                cells: outcome
                    .cells
                    .iter()
                    .map(|c| {
                        let m = c.merged();
                        (m.instructions, m.cycles)
                    })
                    .collect(),
            })
        }
    }
}

fn traced(args: &Args, report: &mut Report, fleet: &mut Fleet) -> std::io::Result<()> {
    let inproc = ExperimentService::with_threads(2);
    let mut direct = ServiceClient::connect(fleet.worker_addr)?;
    let before = fleet_counters(&mut fleet.client)?;

    // Four phases of equal length run the untraced loop's rhythm (an
    // in-process reference, then the job twice back to back) on one
    // path each: the dispatcher untraced, then traced, then direct to
    // the worker, then in-process. Interleaving the paths would change
    // the gaps between jobs on each connection, and the dispatcher's
    // fixed latency depends on them. The jobs are the loop's first
    // cell alone: the dispatcher fans a job's cells out in parallel
    // while the service runs them in order, and one cell keeps the
    // three paths doing the same work.
    let phases = [
        (Route::Dispatcher, false),
        (Route::Dispatcher, true),
        (Route::Direct, true),
        (Route::InProcess, true),
    ];
    let mut results: Vec<Phase> = Vec::new();
    let mut probe = Probe::default();
    let mut first: Option<Probe> = None;
    let mut probed_jobs = 0.0;
    let mut i = 0u64;
    for (route, tracing) in phases {
        let mut phase = Phase::default();
        let clock = Instant::now();
        while phase.total.len() < 2 || clock.elapsed().as_secs_f64() < args.seconds / 4.0 {
            let seed = mix(args.seed, i);
            i += 1;
            let want = reference(seed, tracing, 1);
            phase.spans += want.secs;
            if let Some(p) = &want.probe {
                probe.seam.merge(&p.seam);
                probe.telemetry.merge(&p.telemetry);
                probe.engine.merge(&p.engine);
                probe.cell_s += p.cell_s;
                probed_jobs += 1.0;
                if first.is_none() {
                    let again = reference(seed, true, 1);
                    report.check(
                        again.probe.expect("probed reference").counts() == p.counts(),
                        "exact counts (dram.*, core.*.calls) differ between repetitions",
                    );
                    first = Some(p.clone());
                }
            }
            let spec = spec(seed, 1);
            for repeat in [false, true] {
                let job = route_job(route, fleet, &mut direct, &inproc, &spec);
                let cells = job.as_ref().map(|j| j.cells.clone()).map_err(Clone::clone);
                if !checked(report, cells, &want.cells) {
                    continue;
                }
                let job = job.expect("checked");
                phase.spans += job.total_s;
                if !repeat {
                    phase.total.push(job.total_s);
                    phase.ack.push(job.ack_s);
                    phase.first_cell.push(job.first_cell_s);
                }
            }
            if report.failed > 3 {
                break;
            }
        }
        phase.wall = clock.elapsed().as_secs_f64();
        results.push(phase);
    }
    let after = fleet_counters(&mut fleet.client)?;
    drop(direct);

    let p50 = |k: usize| median(&results[k].total);
    let (plain, dispatcher, direct_p50, inproc_p50) = (p50(0), p50(1), p50(2), p50(3));
    report.set("service.inproc.share", inproc_p50 / dispatcher);
    report.set("service.net.share", (direct_p50 - inproc_p50) / dispatcher);
    report.set(
        "fleet.overhead.share",
        (dispatcher - direct_p50) / dispatcher,
    );
    let ack = median(&results[2].ack);
    let first_cell = median(&results[2].first_cell);
    report.set("service.net.submit_ack.share", ack / direct_p50);
    report.set("service.net.first_cell.share", first_cell / direct_p50);
    let (hits, misses) = (after[0] - before[0], after[1] - before[1]);
    report.set(
        "fleet.store.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("fleet.cells.dispatched", (after[2] - before[2]) as f64);

    // Counts are one job's (the first probed reference); shares are over
    // every probed job.
    let first = first.unwrap_or_default();
    let cell_s = probe.cell_s;
    let seam_s = probe.seam.seconds();
    report.seam("core", &first.seam, &probe.seam, cell_s);
    report.dram(&first.telemetry, seam_s / probed_jobs);
    report.set("cpu.self.share", (cell_s - seam_s) / cell_s);
    report.set("core.cell_share.secddr_ctr", 1.0);
    report.set(
        "core.metadata_misses",
        first.engine.metadata_misses() as f64,
    );
    report.set("core.leaf_fetches", first.engine.leaf_fetches as f64);
    report.set("trace_overhead_frac", dispatcher / plain - 1.0);
    let traced = &results[1..];
    let wall: f64 = traced.iter().map(|p| p.wall).sum();
    let spans: f64 = traced.iter().map(|p| p.spans).sum();
    let reconcile = (wall - spans).abs() / wall;
    report.set("trace.reconcile_error", reconcile);
    println!(
        "{NAME}: p50 one-cell job latency in-process {:.3} ms, direct to the worker {:.3} ms \
         (ack {:.3} ms, first cell {:.3} ms), through the dispatcher {:.3} ms \
         ({:.3} ms untraced); store hits {hits} of {} lookups; \
         self times reconcile with the traced wall-clock within 10%: {}",
        inproc_p50 * 1e3,
        direct_p50 * 1e3,
        ack * 1e3,
        first_cell * 1e3,
        dispatcher * 1e3,
        plain * 1e3,
        hits + misses,
        if reconcile <= 0.1 { "yes" } else { "NO" },
    );
    Ok(())
}
