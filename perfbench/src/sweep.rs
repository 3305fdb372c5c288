//! `fig6_sweep`: the paper's Figure 6 matrix, 29 benchmarks x (TDX
//! baseline + 5 configurations) = 174 single-core cells, fanned out per
//! benchmark through `par_sweep` on the process-wide `WorkerPool`.
//!
//! The cells are exactly those `runner::sweep_with_options` runs (one
//! trace per benchmark shared by its six cells, each cell through
//! `run_trace_with_options` with default engine options); traces are
//! generated up front, as set-up, so the timed sweep measures the cells
//! alone. An operation is one cell.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use cpu_model::{SimResult, TraceOp};
use dram_sim::ControllerTelemetry;
use secddr_core::engine::EngineOptions;
use secddr_core::system::{gmean, run_trace_with_options};
use secddr_core::{EngineStats, SecurityConfig};
use secddr_service::{par_sweep, WorkerPool};
use workloads::{gapbs, Benchmark, CsrGraph, GraphLayout, Kernel};

use crate::digest::{Checker, Digest};
use crate::seam::{probed_cell, SeamStats};
use crate::{abba, dram_counts, median, tail, Args, Report};

const NAME: &str = "fig6_sweep";
/// Instructions per cell: the budget `bench_kernel`'s Figure 6 smoke
/// sweep uses.
const INSTRUCTIONS: u64 = 40_000;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The GAPBS input graph `workloads` builds for every GAPBS trace
/// (2^21 vertices, average degree 8, fixed seed). Built here so that
/// its cost is timed as set-up on every repetition instead of being
/// memoized after the first.
const GRAPH: (u32, u32, u64) = (1 << 21, 8, 0xBEEF);

/// Metric name of each configuration's share of cell time, in the
/// order of [`configs`].
const CONFIG_SHARES: [&str; 6] = [
    "core.cell_share.tdx",
    "core.cell_share.tree_64ary",
    "core.cell_share.secddr_ctr",
    "core.cell_share.encrypt_only_ctr",
    "core.cell_share.secddr_xts",
    "core.cell_share.encrypt_only_xts",
];

/// The normalization baseline, then Figure 6's five configurations.
fn configs() -> [SecurityConfig; 6] {
    [
        SecurityConfig::tdx_baseline(),
        SecurityConfig::tree_64ary(),
        SecurityConfig::secddr_ctr(),
        SecurityConfig::encrypt_only_ctr(),
        SecurityConfig::secddr_xts(),
        SecurityConfig::encrypt_only_xts(),
    ]
}

type Row = (Benchmark, Arc<Vec<TraceOp>>);

/// One cell's outputs and probes.
struct CellOut {
    digest: u64,
    sim: SimResult,
    engine: EngineStats,
    /// Seconds since the sweep started.
    start: f64,
    end: f64,
    thread: ThreadId,
    seam: Option<SeamStats>,
    telemetry: Option<ControllerTelemetry>,
}

impl CellOut {
    fn secs(&self) -> f64 {
        self.end - self.start
    }
}

fn cell(row: &Row, config: &SecurityConfig, traced: bool, sweep_start: Instant) -> CellOut {
    let (bench, trace) = row;
    let start = sweep_start.elapsed().as_secs_f64();
    let (sim, engine, dram, seam, telemetry) = if traced {
        let p = probed_cell(trace, config);
        (p.sim, p.engine, p.dram, Some(p.seam), Some(p.telemetry))
    } else {
        let r = run_trace_with_options(bench, trace, config, EngineOptions::default());
        (r.sim, r.engine, r.dram, None, None)
    };
    let end = sweep_start.elapsed().as_secs_f64();
    let mut digest = Digest::default();
    digest.sim(&sim).engine(&engine).dram(&dram);
    CellOut {
        digest: digest.value(),
        sim,
        engine,
        start,
        end,
        thread: std::thread::current().id(),
        seam,
        telemetry,
    }
}

/// One whole sweep: cells in benchmark-major, configuration-minor order,
/// the sweep's wall-clock, and the wall-clock of the whole operation.
struct Sweep {
    cells: Vec<CellOut>,
    wall_s: f64,
    op_s: f64,
}

fn sweep(rows: &[Row], traced: bool) -> Sweep {
    let op = Instant::now();
    let items = rows.to_vec();
    let start = Instant::now();
    let out = par_sweep(items, move |row| {
        configs()
            .iter()
            .map(|c| cell(row, c, traced, start))
            .collect::<Vec<_>>()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cells = out.into_iter().flatten().collect();
    Sweep {
        cells,
        wall_s,
        op_s: op.elapsed().as_secs_f64(),
    }
}

fn kernel_of(bench: &Benchmark) -> Option<Kernel> {
    [
        Kernel::Bfs,
        Kernel::Pr,
        Kernel::Tc,
        Kernel::Cc,
        Kernel::Bc,
        Kernel::Sssp,
    ]
    .into_iter()
    .find(|k| k.name() == bench.name())
}

/// Graph build plus every benchmark's trace, repeated; returns the rows
/// and the median set-up, generation and graph-build seconds.
fn setup(seed: u64) -> (Vec<Row>, f64, f64, f64) {
    let (mut total, mut generate, mut graph_build) = (Vec::new(), Vec::new(), Vec::new());
    let mut rows = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let graph = CsrGraph::synthetic(GRAPH.0, GRAPH.1, GRAPH.2);
        let built = start.elapsed().as_secs_f64();
        rows = Benchmark::all()
            .into_iter()
            .map(|bench| {
                let trace = match kernel_of(&bench) {
                    Some(k) => gapbs::trace(k, &graph, GraphLayout::default(), INSTRUCTIONS, seed),
                    None => bench.generate(INSTRUCTIONS, seed),
                };
                (bench, Arc::new(trace))
            })
            .collect();
        let done = start.elapsed().as_secs_f64();
        total.push(done);
        graph_build.push(built);
        generate.push(done - built);
    }
    (
        rows,
        median(&total),
        median(&generate),
        median(&graph_build),
    )
}

/// Checks one sweep's outputs; returns how many cells failed.
fn check(sweep: &Sweep, checker: &mut Checker, reference: &mut Option<Vec<u64>>) -> u64 {
    let digests: Vec<u64> = sweep.cells.iter().map(|c| c.digest).collect();
    let mut all = Digest::default();
    for d in &digests {
        all.word(*d);
    }
    if checker.accept(all.value()) {
        reference.get_or_insert(digests);
        return 0;
    }
    println!("{NAME}: sweep digest {:#018x} does not match", all.value());
    match reference {
        Some(want) => (want.iter().zip(&digests).filter(|(a, b)| a != b).count() as u64).max(1),
        None => digests.len() as u64,
    }
}

fn attempt(
    rows: &[Row],
    traced: bool,
    checker: &mut Checker,
    reference: &mut Option<Vec<u64>>,
    report: &mut Report,
) -> Option<Sweep> {
    let cells = (rows.len() * configs().len()) as u64;
    report.attempted += cells;
    match catch_unwind(AssertUnwindSafe(|| sweep(rows, traced))) {
        Ok(s) => {
            let failed = check(&s, checker, reference);
            report.failed += failed;
            (failed == 0).then_some(s)
        }
        Err(_) => {
            report.failed += cells;
            None
        }
    }
}

/// The paper's headline comparisons from one sweep (informational: the
/// model is otherwise unvalidated).
fn print_fidelity(sweep: &Sweep) {
    let n = configs().len();
    let gm = |c: usize| {
        let normalized: Vec<f64> = sweep
            .cells
            .chunks(n)
            .map(|row| row[c].sim.ipc() / row[0].sim.ipc())
            .collect();
        gmean(&normalized)
    };
    let pct = |a: f64, b: f64| (a / b - 1.0) * 100.0;
    let (tree, sctr, ectr, sxts, exts) = (gm(1), gm(2), gm(3), gm(4), gm(5));
    println!("{NAME}: fidelity context (simulated gmean, paper value in brackets; informational):");
    println!(
        "  SecDDR+CTR vs 64-ary tree:       {:+.1}%  [+9.6%]",
        pct(sctr, tree)
    );
    println!(
        "  SecDDR+XTS vs 64-ary tree:       {:+.1}%  [+18.8%]",
        pct(sxts, tree)
    );
    println!(
        "  SecDDR+CTR vs encrypt-only CTR:  {:+.1}%  [within 3%]",
        pct(sctr, ectr)
    );
    println!(
        "  SecDDR+XTS vs encrypt-only XTS:  {:+.1}%  [within 1%]",
        pct(sxts, exts)
    );
}

pub fn run(args: &Args, report: &mut Report) {
    let (rows, setup_s, generate_s, graph_s) = setup(args.seed);
    let mut checker = Checker::new(NAME, args.seed);
    let mut reference = None;
    let clock = Instant::now();
    if !args.trace {
        let mut sweeps = Vec::new();
        while sweeps.is_empty() || clock.elapsed().as_secs_f64() < args.seconds {
            match attempt(&rows, false, &mut checker, &mut reference, report) {
                Some(s) => sweeps.push(s),
                None if report.failed > 3 * 174 => break,
                None => {}
            }
        }
        println!("{}", checker.describe(NAME, args.seed));
        let Some(first) = sweeps.first() else {
            return;
        };
        print_fidelity(first);
        let rates: Vec<f64> = sweeps
            .iter()
            .map(|s| {
                s.cells.iter().map(|c| c.sim.instructions).sum::<u64>() as f64 / s.wall_s / 1e6
            })
            .collect();
        let cell_ms = |from: usize| -> Vec<f64> {
            sweeps[from..]
                .iter()
                .flat_map(|s| s.cells.iter().map(|c| c.secs() * 1e3))
                .collect()
        };
        let all = cell_ms(0);
        println!(
            "{NAME}: {} sweeps, {} cells on {} pool threads + the caller",
            sweeps.len(),
            all.len(),
            WorkerPool::global().threads()
        );
        report.set("setup_s", setup_s);
        report.set("sim_minstr_per_s", median(&rates));
        report.set("job_p50_ms", median(&all));
        let (p90, p) = tail(&all);
        println!(
            "{NAME}: job_p90_ms is the p{:.1} of {} samples",
            p * 100.0,
            all.len()
        );
        report.set("job_p90_ms", p90);
        let repeats = cell_ms(usize::from(sweeps.len() > 1));
        report.set("store_hit_p50_ms", median(&repeats));
        return;
    }

    // Traced run: untraced and traced sweeps alternate (ABBA).
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut pair = 0usize;
    while traced.len() < 2 || clock.elapsed().as_secs_f64() < args.seconds {
        for probe in abba(pair) {
            match (
                attempt(&rows, probe, &mut checker, &mut reference, report),
                probe,
            ) {
                (Some(s), true) => traced.push(s),
                (Some(s), false) => plain.push(s),
                (None, _) => {}
            }
        }
        pair += 1;
        if report.failed > 3 * 174 {
            break;
        }
    }
    println!("{}", checker.describe(NAME, args.seed));
    let Some(first) = traced.first() else {
        report.check(false, "no traced sweep succeeded");
        return;
    };
    let counts = |s: &Sweep| -> Vec<u64> {
        s.cells
            .iter()
            .flat_map(|c| {
                let mut v = c.seam.expect("traced cell").counts().to_vec();
                v.extend(dram_counts(&c.telemetry.expect("traced cell")));
                v
            })
            .collect()
    };
    for s in &traced[1..] {
        report.check(
            counts(s) == counts(first),
            "exact counts (dram.*, core.*.calls) differ between repetitions",
        );
    }

    let mut per_rep = SeamStats::default();
    let mut telemetry = ControllerTelemetry::default();
    let mut engine = EngineStats::default();
    for c in &first.cells {
        per_rep.merge(&c.seam.expect("traced cell"));
        telemetry.merge(&c.telemetry.expect("traced cell"));
        engine.merge(&c.engine);
    }
    let mut total = SeamStats::default();
    let mut config_s = [0.0f64; 6];
    let (mut cell_s, mut wall_s, mut op_s, mut tail_s) = (0.0, 0.0, 0.0, 0.0);
    for s in &traced {
        for (i, c) in s.cells.iter().enumerate() {
            total.merge(&c.seam.expect("traced cell"));
            config_s[i % configs().len()] += c.secs();
            cell_s += c.secs();
        }
        wall_s += s.wall_s;
        op_s += s.op_s;
        // The tail: from the first worker going idle for good to the
        // end of the sweep.
        let mut last_end = std::collections::HashMap::new();
        for c in &s.cells {
            let e = last_end.entry(c.thread).or_insert(0.0f64);
            *e = e.max(c.end);
        }
        let first_idle = last_end.values().copied().fold(f64::INFINITY, f64::min);
        tail_s += s.wall_s - first_idle;
    }
    let seam_s = total.seconds();
    let drainers = (WorkerPool::global().threads() + 1) as f64;
    report.seam("core", &per_rep, &total, cell_s);
    report.dram(&telemetry, seam_s / traced.len() as f64);
    report.set("cpu.self.share", (cell_s - seam_s) / cell_s);
    for (name, secs) in CONFIG_SHARES.into_iter().zip(config_s) {
        report.set(name, secs / cell_s);
    }
    report.set("core.metadata_misses", engine.metadata_misses() as f64);
    report.set("core.leaf_fetches", engine.leaf_fetches as f64);
    report.set("workloads.generate.share", generate_s / setup_s);
    report.set("workloads.graph_build.share", graph_s / setup_s);
    let busy = cell_s / (drainers * wall_s);
    report.set("service.pool.busy_frac", busy);
    report.set("service.pool.tail.share", tail_s / wall_s);
    let walls = |v: &[Sweep]| median(&v.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    report.set("trace_overhead_frac", walls(&traced) / walls(&plain) - 1.0);
    // Spans: drainer time = cells (cpu self + backend seam) + pool idle;
    // the rest of each operation is outside every span.
    let reconcile = (op_s - wall_s).abs() / op_s;
    report.set("trace.reconcile_error", reconcile);
    println!(
        "{NAME}: {} traced + {} untraced sweeps; per sweep {} tick, {} advance, {} submit calls; \
         backend seam {:.1}% of cell time; pool busy {:.2} of {} drainers; \
         self times reconcile with the traced wall-clock within 10%: {}",
        traced.len(),
        plain.len(),
        per_rep.tick.calls,
        per_rep.advance.calls,
        per_rep.submit.calls,
        100.0 * seam_s / cell_s,
        busy,
        drainers,
        if reconcile <= 0.1 { "yes" } else { "NO" },
    );
}
