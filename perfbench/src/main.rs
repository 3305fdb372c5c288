//! Repository benchmark for the SecDDR simulator (see `README.md` in
//! this directory for the workloads, the metrics and what each layer
//! metric should move).
//!
//! ```text
//! perfbench --workload <rate16_mcf|fig6_sweep|fleet_jobs> --seed <n>
//!           --seconds <s> --trace <0|1> --scratch <dir>
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--scratch` is an empty directory the run may write to (trace
//! cache, job log, result store); `run.py` creates and removes it.

mod digest;
mod fleet;
mod rate;
mod seam;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;

use dram_sim::ControllerTelemetry;

use crate::seam::SeamStats;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("store_hit_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload does not exercise reads 0; time splits are shares of their
/// parent span so that no time reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("channels.submit.calls", "count"),
    ("channels.submit.share", "frac"),
    ("channels.submit.busy_ratio", "ratio"),
    ("channels.tick.calls", "count"),
    ("channels.tick.share", "frac"),
    ("channels.advance.calls", "count"),
    ("channels.advance.share", "frac"),
    ("channels.bound.calls", "count"),
    ("channels.bound.share", "frac"),
    ("channels.shard_ticks", "count"),
    ("core.submit.calls", "count"),
    ("core.submit.share", "frac"),
    ("core.submit.busy_ratio", "ratio"),
    ("core.tick.calls", "count"),
    ("core.tick.share", "frac"),
    ("core.advance.calls", "count"),
    ("core.advance.share", "frac"),
    ("core.bound.calls", "count"),
    ("core.bound.share", "frac"),
    ("core.cell_share.tdx", "frac"),
    ("core.cell_share.tree_64ary", "frac"),
    ("core.cell_share.secddr_ctr", "frac"),
    ("core.cell_share.encrypt_only_ctr", "frac"),
    ("core.cell_share.secddr_xts", "frac"),
    ("core.cell_share.encrypt_only_xts", "frac"),
    ("core.metadata_misses", "count"),
    ("core.leaf_fetches", "count"),
    ("multicore.self.share", "frac"),
    ("multicore.core_steps", "count"),
    ("multicore.wakes.spurious_ratio", "ratio"),
    ("cpu.self.share", "frac"),
    ("dram.decision_cycles", "count"),
    ("dram.busy_cycles", "count"),
    ("dram.decision_fraction", "ratio"),
    ("dram.decisions.issue_hit", "count"),
    ("dram.decisions.issue_miss", "count"),
    ("dram.decisions.completion", "count"),
    ("dram.decisions.refresh", "count"),
    ("dram.decisions.drain_flip", "count"),
    ("dram.decisions.aging", "count"),
    ("dram.decisions.noop", "count"),
    ("dram.useful_decision_ratio", "ratio"),
    ("dram.ns_per_decision", "ns"),
    ("workloads.generate.share", "frac"),
    ("workloads.graph_build.share", "frac"),
    ("service.pool.busy_frac", "frac"),
    ("service.pool.tail.share", "frac"),
    ("service.inproc.share", "frac"),
    ("service.net.share", "frac"),
    ("service.net.submit_ack.share", "frac"),
    ("service.net.first_cell.share", "frac"),
    ("fleet.overhead.share", "frac"),
    ("fleet.store.hit_ratio", "ratio"),
    ("fleet.cells.dispatched", "count"),
    ("trace_overhead_frac", "frac"),
    ("trace.reconcile_error", "frac"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory the run may write to.
    pub scratch: PathBuf,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (rate runs, cells, jobs).
    pub attempted: u64,
    /// Operations that panicked, failed, or produced unexpected output.
    pub failed: u64,
    /// Checks beyond per-operation outputs that failed (exact counts).
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// Records metric `name`, which must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(declared, _)| *declared == name),
            "undeclared metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    /// Records a failed check (marks the run incorrect).
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            println!("CHECK FAILED: {what}");
            self.check_failures.push(what);
        }
    }

    /// Records the backend-seam split of one layer: the exact call
    /// counts of one repetition (`per_rep`), each call kind's share of
    /// `parent_s` host seconds over all traced repetitions (`total`),
    /// and the fraction of offered accesses rejected as busy.
    pub fn seam(&mut self, layer: &str, per_rep: &SeamStats, total: &SeamStats, parent_s: f64) {
        for ((kind, rep), (_, all)) in per_rep.kinds().into_iter().zip(total.kinds()) {
            self.set(&format!("{layer}.{kind}.calls"), rep.calls as f64);
            self.set(&format!("{layer}.{kind}.share"), all.seconds() / parent_s);
        }
        self.set(
            &format!("{layer}.submit.busy_ratio"),
            per_rep.busy as f64 / per_rep.accesses.max(1) as f64,
        );
    }

    /// Records the DRAM decision counts and the host cost per executed
    /// decision cycle (`seam_s` backend seconds over them).
    pub fn dram(&mut self, t: &ControllerTelemetry, seam_s: f64) {
        let c = t.causes;
        self.set("dram.decision_cycles", t.decision_cycles as f64);
        self.set("dram.busy_cycles", t.busy_cycles as f64);
        self.set(
            "dram.decision_fraction",
            t.decision_cycles as f64 / t.busy_cycles.max(1) as f64,
        );
        self.set("dram.decisions.issue_hit", c.issue_hit as f64);
        self.set("dram.decisions.issue_miss", c.issue_miss as f64);
        self.set("dram.decisions.completion", c.completion as f64);
        self.set("dram.decisions.refresh", c.refresh as f64);
        self.set("dram.decisions.drain_flip", c.drain_flip as f64);
        self.set("dram.decisions.aging", c.aging as f64);
        self.set("dram.decisions.noop", c.noop as f64);
        let total = c.total().max(1) as f64;
        self.set("dram.useful_decision_ratio", 1.0 - c.noop as f64 / total);
        self.set(
            "dram.ns_per_decision",
            seam_s * 1e9 / t.decision_cycles.max(1) as f64,
        );
    }
}

/// The deterministic DRAM counts of a controller-telemetry block (the
/// exact-count check compares these across repetitions).
pub fn dram_counts(t: &ControllerTelemetry) -> [u64; 9] {
    let c = t.causes;
    [
        t.decision_cycles,
        t.busy_cycles,
        c.issue_hit,
        c.issue_miss,
        c.completion,
        c.refresh,
        c.drain_flip,
        c.aging,
        c.noop,
    ]
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `p` in `[0, 1]` (0 for no values).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The tail latency reported as `job_p90_ms`: the p90, or with fewer
/// than 100 samples the highest percentile that still has ten samples
/// beyond it (never below the median). Returns the value and the
/// percentile used.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = (1.0 - 10.0 / values.len().max(1) as f64).clamp(0.5, 0.9);
    (percentile(values, p), p)
}

/// Which runs of pair `pair` are traced, in order: ABBA, so that drift
/// in host speed cancels between untraced and traced runs.
pub fn abba(pair: usize) -> [bool; 2] {
    if pair.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Splitmix64: derives independent per-operation seeds from the run seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED69));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        scratch: scratch.ok_or("missing --scratch")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A used directory would turn trace generation into disk hits and
    // store misses into hits.
    let fresh = std::fs::read_dir(&args.scratch).is_ok_and(|mut d| d.next().is_none());
    if !fresh {
        eprintln!("perfbench: --scratch must name an existing empty directory");
        std::process::exit(2);
    }
    let mut report = Report::default();
    if args.trace {
        // Layers a workload does not exercise read 0.
        for (name, _) in PER_LAYER {
            report.values.insert(name.to_string(), 0.0);
        }
    }
    match args.workload.as_str() {
        "rate16_mcf" => rate::run(&args, &mut report),
        "fig6_sweep" => sweep::run(&args, &mut report),
        "fleet_jobs" => fleet::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => report.set("peak_rss_mb", mb),
            None => report.check(false, "peak RSS unavailable (/proc/self/status)"),
        }
    }

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = report.values.get(*name).copied();
        let finite = value.is_some_and(f64::is_finite);
        report.check(finite, format!("metric {name} missing or not finite"));
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            value.filter(|v| v.is_finite()).unwrap_or(0.0)
        ));
        if let Some(v) = value {
            println!("  {name} = {v} {unit}");
        }
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{}: {} operations attempted, {} failed (failed_frac {failed_frac})",
        args.workload, report.attempted, report.failed
    );
    let correct = report.check_failures.is_empty() && report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}
