//! [`JobSpec`]: the typed description of one experiment job, with its
//! line-delimited-JSON codec (the TCP front-end's submit payload).

use cpu_model::Advance;
use secddr_channels::Interleave;
use secddr_core::config::{EncMode, Mechanism, SecurityConfig};
use secddr_core::engine::EngineOptions;
use workloads::{Benchmark, Suite};

use crate::json::Json;

/// Which benchmarks a job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// One benchmark by its paper label (`"mcf"`, `"pr"`, …).
    Bench(String),
    /// A whole suite, in Figure 6 order.
    Suite(SuiteSel),
}

/// Suite selector for [`Workload::Suite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteSel {
    /// The 23 SPEC CPU2017 profiles.
    Spec,
    /// The 6 GAPBS kernels.
    Gapbs,
    /// All 29 benchmarks.
    All,
}

/// Everything needed to run one experiment job: workload × security
/// configurations × machine shape × budget.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Benchmark or suite to run.
    pub workload: Workload,
    /// Security configurations; each benchmark runs under each (the
    /// job's cells are the benchmark × configuration product).
    pub configs: Vec<SecurityConfig>,
    /// Engine ablation knobs and the clock-advance policy.
    pub options: EngineOptions,
    /// Core count: rate-mode copies of the trace over one shared LLC
    /// and backend (1 = a single core, bit-identical to `CpuSystem`).
    pub cores: usize,
    /// Memory channel count: the ways of the `ShardedEngine` the cores
    /// share (1 = bit-identical to the bare engine).
    pub channels: usize,
    /// Instruction budget per benchmark (per core in rate mode).
    pub instructions: u64,
    /// Trace generation seed.
    pub seed: u64,
    /// Scheduling priority (higher runs first; FIFO within one).
    pub priority: i8,
    /// Sim-time series epoch width in CPU cycles; 0 disables series
    /// recording (the default — recording stores per-job series the
    /// `series` endpoint serves). Every machine shape records.
    pub epoch_width: u64,
}

/// Upper bound on cores and channels (a spec is a remote input; the
/// simulator's memory footprint scales with both).
const MAX_WIDTH: usize = 64;

/// Upper bound on the per-benchmark instruction budget. A generated
/// trace costs ~13–26 bytes per instruction, so one trace stays under
/// ~260 MB, and the trace memo holds a bounded number of them.
const MAX_INSTRUCTIONS: u64 = 10_000_000;

/// Upper bound on a job's benchmark × configuration cells: the whole
/// suite under 35 configurations (the Figure 6 matrix is 174 cells).
const MAX_CELLS: usize = 1_024;

impl JobSpec {
    /// A single-core, single-channel SecDDR+CTR run of one benchmark at
    /// a 40k-instruction budget — the smallest useful job; adjust fields
    /// from here.
    #[must_use]
    pub fn bench(name: &str) -> Self {
        Self {
            workload: Workload::Bench(name.to_string()),
            configs: vec![SecurityConfig::secddr_ctr()],
            options: EngineOptions::default(),
            cores: 1,
            channels: 1,
            instructions: 40_000,
            seed: 0xD5,
            priority: 0,
            epoch_width: 0,
        }
    }

    /// Validates shape and configuration compatibility.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), SpecError> {
        if let Workload::Bench(name) = &self.workload {
            if Benchmark::by_name(name).is_none() {
                return Err(SpecError::UnknownBenchmark(name.clone()));
            }
        }
        if self.configs.is_empty() {
            return Err(SpecError::Invalid("at least one config is required".into()));
        }
        for config in &self.configs {
            config.validate().map_err(SpecError::Invalid)?;
        }
        if self.cores == 0 || self.cores > MAX_WIDTH {
            return Err(SpecError::Invalid(format!(
                "cores must be in 1..={MAX_WIDTH}"
            )));
        }
        if self.channels == 0 || self.channels > MAX_WIDTH {
            return Err(SpecError::Invalid(format!(
                "channels must be in 1..={MAX_WIDTH}"
            )));
        }
        if self.instructions == 0 || self.instructions > MAX_INSTRUCTIONS {
            return Err(SpecError::Invalid(format!(
                "instruction budget must be in 1..={MAX_INSTRUCTIONS}"
            )));
        }
        if self.cell_count()? > MAX_CELLS {
            return Err(SpecError::Invalid(format!(
                "a job runs at most {MAX_CELLS} benchmark × config cells"
            )));
        }
        Ok(())
    }

    /// The benchmarks this spec runs, in Figure 6 order.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownBenchmark`] for an unresolvable name.
    pub fn resolve_benchmarks(&self) -> Result<Vec<Benchmark>, SpecError> {
        match &self.workload {
            Workload::Bench(name) => Benchmark::by_name(name)
                .map(|b| vec![b])
                .ok_or_else(|| SpecError::UnknownBenchmark(name.clone())),
            Workload::Suite(sel) => Ok(Benchmark::all()
                .into_iter()
                .filter(|b| match sel {
                    SuiteSel::Spec => b.suite() == Suite::Spec,
                    SuiteSel::Gapbs => b.suite() == Suite::Gapbs,
                    SuiteSel::All => true,
                })
                .collect()),
        }
    }

    /// Number of benchmark × configuration cells this job runs.
    ///
    /// # Errors
    ///
    /// Propagates benchmark resolution failures.
    pub fn cell_count(&self) -> Result<usize, SpecError> {
        Ok(self.resolve_benchmarks()?.len() * self.configs.len())
    }

    /// The address interleave for this spec's channel count: XOR-folded
    /// for powers of two, modulo otherwise.
    #[must_use]
    pub fn interleave(&self) -> Interleave {
        if self.channels.is_power_of_two() {
            Interleave::xor(self.channels)
        } else {
            Interleave::modulo(self.channels)
        }
    }

    /// Canonical 64-bit content hash of this spec, stable across
    /// processes and restarts: FNV-1a over the [`Self::to_json`]
    /// encoding (whose member order is fixed by construction) with the
    /// `priority` member removed — priority affects *when* a job runs,
    /// never *what* it computes, so two specs that differ only in
    /// priority are the same work and must dedupe to the same key.
    ///
    /// This is the fleet layer's identity: the job log dedupes replayed
    /// jobs by it and the result store keys memoized cells by it (the
    /// seed is part of the encoding, so `(spec, seed)` is covered).
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut json = self.to_json();
        if let Json::Obj(members) = &mut json {
            members.retain(|(key, _)| key != "priority");
        }
        fnv1a_64(json.to_string().as_bytes())
    }

    /// Decomposes this job into its benchmark × configuration cells, in
    /// cell order: each returned spec is a stand-alone single-benchmark,
    /// single-config job that runs *exactly* the same simulation as the
    /// corresponding cell of this job (the service's `run_cell` depends
    /// only on the benchmark, the config, and the shared shape fields,
    /// all of which are copied verbatim). The fleet dispatcher ships
    /// cells to workers as these specs and memoizes results under their
    /// [`Self::content_hash`].
    ///
    /// # Errors
    ///
    /// Propagates benchmark resolution failures.
    pub fn cell_specs(&self) -> Result<Vec<JobSpec>, SpecError> {
        let benchmarks = self.resolve_benchmarks()?;
        let mut cells = Vec::with_capacity(benchmarks.len() * self.configs.len());
        for bench in &benchmarks {
            for config in &self.configs {
                cells.push(JobSpec {
                    workload: Workload::Bench(bench.name().to_string()),
                    configs: vec![*config],
                    ..self.clone()
                });
            }
        }
        Ok(cells)
    }

    /// Encodes the spec as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let workload = match &self.workload {
            Workload::Bench(name) => Json::Obj(vec![("bench".into(), Json::str(name.clone()))]),
            Workload::Suite(sel) => Json::Obj(vec![(
                "suite".into(),
                Json::str(match sel {
                    SuiteSel::Spec => "spec",
                    SuiteSel::Gapbs => "gapbs",
                    SuiteSel::All => "all",
                }),
            )]),
        };
        Json::Obj(vec![
            ("workload".into(), workload),
            (
                "configs".into(),
                Json::Arr(self.configs.iter().map(config_to_json).collect()),
            ),
            ("options".into(), options_to_json(&self.options)),
            ("cores".into(), Json::u64(self.cores as u64)),
            ("channels".into(), Json::u64(self.channels as u64)),
            ("instructions".into(), Json::u64(self.instructions)),
            ("seed".into(), Json::u64(self.seed)),
            (
                "priority".into(),
                Json::Num(crate::json::Number::I(i64::from(self.priority))),
            ),
            ("epoch_width".into(), Json::u64(self.epoch_width)),
        ])
    }

    /// Decodes a spec from the [`Self::to_json`] encoding and validates
    /// it.
    ///
    /// # Errors
    ///
    /// [`SpecError::Malformed`] on shape problems, plus everything
    /// [`Self::validate`] rejects.
    pub fn from_json(json: &Json) -> Result<Self, SpecError> {
        let workload_json = require(json, "workload")?;
        let workload = if let Some(name) = workload_json.get("bench").and_then(Json::as_str) {
            Workload::Bench(name.to_string())
        } else if let Some(suite) = workload_json.get("suite").and_then(Json::as_str) {
            Workload::Suite(match suite {
                "spec" => SuiteSel::Spec,
                "gapbs" => SuiteSel::Gapbs,
                "all" => SuiteSel::All,
                other => return Err(SpecError::Malformed(format!("unknown suite \"{other}\""))),
            })
        } else {
            return Err(SpecError::Malformed(
                "workload needs a \"bench\" or \"suite\" member".into(),
            ));
        };
        let configs = require(json, "configs")?
            .as_array()
            .ok_or_else(|| SpecError::Malformed("configs must be an array".into()))?
            .iter()
            .map(config_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let options = options_from_json(require(json, "options")?)?;
        let spec = JobSpec {
            workload,
            configs,
            options,
            cores: usize_field(json, "cores")?,
            channels: usize_field(json, "channels")?,
            instructions: u64_field(json, "instructions")?,
            seed: u64_field(json, "seed")?,
            priority: i8_field(json, "priority")?,
            // Lenient: absent (pre-series clients) means disabled.
            epoch_width: json.get("epoch_width").and_then(Json::as_u64).unwrap_or(0),
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Everything that can be wrong with a submitted spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// No benchmark with the given paper label.
    UnknownBenchmark(String),
    /// A structurally valid spec with invalid contents (incompatible
    /// security configuration, zero cores, …).
    Invalid(String),
    /// The JSON encoding did not match the schema.
    Malformed(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownBenchmark(name) => write!(f, "unknown benchmark \"{name}\""),
            SpecError::Invalid(why) => write!(f, "invalid spec: {why}"),
            SpecError::Malformed(why) => write!(f, "malformed spec: {why}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// 64-bit FNV-1a. Embedded rather than pulled from crates.io (offline
/// build environment); not cryptographic — the fleet layer's keys hash
/// *trusted* canonical encodings, collision resistance against an
/// adversary is not a requirement.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

fn require<'a>(json: &'a Json, key: &str) -> Result<&'a Json, SpecError> {
    json.get(key)
        .ok_or_else(|| SpecError::Malformed(format!("missing \"{key}\"")))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, SpecError> {
    require(json, key)?
        .as_u64()
        .ok_or_else(|| SpecError::Malformed(format!("\"{key}\" must be a non-negative integer")))
}

fn usize_field(json: &Json, key: &str) -> Result<usize, SpecError> {
    usize::try_from(u64_field(json, key)?)
        .map_err(|_| SpecError::Malformed(format!("\"{key}\" out of range")))
}

fn i8_field(json: &Json, key: &str) -> Result<i8, SpecError> {
    let v = require(json, key)?
        .as_f64()
        .ok_or_else(|| SpecError::Malformed(format!("\"{key}\" must be a number")))?;
    #[allow(clippy::cast_possible_truncation)]
    if v.fract() == 0.0 && (f64::from(i8::MIN)..=f64::from(i8::MAX)).contains(&v) {
        Ok(v as i8)
    } else {
        Err(SpecError::Malformed(format!(
            "\"{key}\" must be an integer in {}..={}",
            i8::MIN,
            i8::MAX
        )))
    }
}

fn bool_field(json: &Json, key: &str) -> Result<bool, SpecError> {
    require(json, key)?
        .as_bool()
        .ok_or_else(|| SpecError::Malformed(format!("\"{key}\" must be a boolean")))
}

/// Encodes a [`SecurityConfig`] structurally (mechanism + parameters),
/// so every expressible configuration — not just the paper's named
/// presets — round-trips.
fn config_to_json(config: &SecurityConfig) -> Json {
    let mut members = Vec::new();
    let mechanism = match config.mechanism {
        Mechanism::Tdx => "tdx",
        Mechanism::CounterTree { arity } => {
            members.push(("arity".into(), Json::u64(u64::from(arity))));
            "counter_tree"
        }
        Mechanism::HashTree { arity } => {
            members.push(("arity".into(), Json::u64(u64::from(arity))));
            "hash_tree"
        }
        Mechanism::SecDdr => "secddr",
        Mechanism::EncryptOnly => "encrypt_only",
        Mechanism::InvisiMem { realistic } => {
            members.push(("realistic".into(), Json::Bool(realistic)));
            "invisimem"
        }
    };
    members.insert(0, ("mechanism".into(), Json::str(mechanism)));
    members.push((
        "enc".into(),
        Json::str(match config.enc {
            EncMode::Ctr => "ctr",
            EncMode::Xts => "xts",
        }),
    ));
    members.push(("packing".into(), Json::u64(u64::from(config.ctr_packing))));
    Json::Obj(members)
}

fn config_from_json(json: &Json) -> Result<SecurityConfig, SpecError> {
    let arity = || -> Result<u32, SpecError> {
        u32::try_from(u64_field(json, "arity")?)
            .map_err(|_| SpecError::Malformed("\"arity\" out of range".into()))
    };
    let mechanism = match require(json, "mechanism")?.as_str() {
        Some("tdx") => Mechanism::Tdx,
        Some("counter_tree") => Mechanism::CounterTree { arity: arity()? },
        Some("hash_tree") => Mechanism::HashTree { arity: arity()? },
        Some("secddr") => Mechanism::SecDdr,
        Some("encrypt_only") => Mechanism::EncryptOnly,
        Some("invisimem") => Mechanism::InvisiMem {
            realistic: bool_field(json, "realistic")?,
        },
        other => return Err(SpecError::Malformed(format!("unknown mechanism {other:?}"))),
    };
    let enc = match require(json, "enc")?.as_str() {
        Some("ctr") => EncMode::Ctr,
        Some("xts") => EncMode::Xts,
        other => return Err(SpecError::Malformed(format!("unknown enc {other:?}"))),
    };
    let ctr_packing = u32::try_from(u64_field(json, "packing")?)
        .map_err(|_| SpecError::Malformed("\"packing\" out of range".into()))?;
    Ok(SecurityConfig {
        mechanism,
        enc,
        ctr_packing,
    })
}

fn options_to_json(options: &EngineOptions) -> Json {
    // Exhaustive destructuring: adding an `EngineOptions` field refuses
    // to compile until the codec carries it.
    let EngineOptions {
        metadata_cache_bytes,
        serial_tree_fetch,
        force_bl8,
        fcfs,
        advance,
        batched_ingestion,
    } = *options;
    Json::Obj(vec![
        (
            "metadata_cache_bytes".into(),
            Json::u64(metadata_cache_bytes),
        ),
        ("serial_tree_fetch".into(), Json::Bool(serial_tree_fetch)),
        ("force_bl8".into(), Json::Bool(force_bl8)),
        ("fcfs".into(), Json::Bool(fcfs)),
        (
            "advance".into(),
            Json::str(match advance {
                Advance::PerCycle => "per_cycle",
                Advance::ToNextEvent => "event_driven",
            }),
        ),
        ("batched_ingestion".into(), Json::Bool(batched_ingestion)),
    ])
}

fn options_from_json(json: &Json) -> Result<EngineOptions, SpecError> {
    let advance = match require(json, "advance")?.as_str() {
        Some("per_cycle") => Advance::PerCycle,
        Some("event_driven") => Advance::ToNextEvent,
        other => return Err(SpecError::Malformed(format!("unknown advance {other:?}"))),
    };
    Ok(EngineOptions {
        metadata_cache_bytes: u64_field(json, "metadata_cache_bytes")?,
        serial_tree_fetch: bool_field(json, "serial_tree_fetch")?,
        force_bl8: bool_field(json, "force_bl8")?,
        fcfs: bool_field(json, "fcfs")?,
        advance,
        batched_ingestion: bool_field(json, "batched_ingestion")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bench_spec_validates_and_round_trips() {
        let spec = JobSpec::bench("mcf");
        spec.validate().unwrap();
        let text = spec.to_json().to_string();
        let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(spec.cell_count().unwrap(), 1);
    }

    #[test]
    fn epoch_width_round_trips_and_defaults_off() {
        assert_eq!(JobSpec::bench("mcf").epoch_width, 0, "series is opt-in");
        let mut spec = JobSpec::bench("mcf");
        spec.epoch_width = 4_096;
        let text = spec.to_json().to_string();
        let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        // Pre-series payloads (no "epoch_width" member) still parse,
        // with recording off.
        let stripped = text.replace(",\"epoch_width\":4096", "");
        assert_ne!(stripped, text, "member must have been present");
        let old = JobSpec::from_json(&Json::parse(&stripped).unwrap()).unwrap();
        assert_eq!(old.epoch_width, 0);
    }

    #[test]
    fn suite_specs_resolve_paper_counts() {
        for (sel, count) in [
            (SuiteSel::Spec, 23),
            (SuiteSel::Gapbs, 6),
            (SuiteSel::All, 29),
        ] {
            let mut spec = JobSpec::bench("mcf");
            spec.workload = Workload::Suite(sel);
            assert_eq!(spec.resolve_benchmarks().unwrap().len(), count);
        }
    }

    #[test]
    fn every_paper_config_round_trips() {
        for config in [
            SecurityConfig::tdx_baseline(),
            SecurityConfig::tree_64ary(),
            SecurityConfig::tree_128ary(),
            SecurityConfig::tree_8ary_hash(),
            SecurityConfig::secddr_ctr(),
            SecurityConfig::secddr_xts(),
            SecurityConfig::encrypt_only_ctr(),
            SecurityConfig::encrypt_only_xts(),
            SecurityConfig::invisimem_unrealistic(EncMode::Ctr),
            SecurityConfig::invisimem_realistic(EncMode::Xts),
        ] {
            let encoded = config_to_json(&config).to_string();
            let back = config_from_json(&Json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(back, config, "{}", config.label());
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(matches!(
            JobSpec::bench("nonexistent").validate(),
            Err(SpecError::UnknownBenchmark(_))
        ));
        let mut no_configs = JobSpec::bench("mcf");
        no_configs.configs.clear();
        assert!(no_configs.validate().is_err());
        let mut zero_cores = JobSpec::bench("mcf");
        zero_cores.cores = 0;
        assert!(zero_cores.validate().is_err());
        let mut wide = JobSpec::bench("mcf");
        wide.channels = MAX_WIDTH + 1;
        assert!(wide.validate().is_err());
        let mut incompatible = JobSpec::bench("mcf");
        incompatible.configs = vec![SecurityConfig {
            mechanism: Mechanism::CounterTree { arity: 64 },
            enc: EncMode::Xts,
            ctr_packing: 64,
        }];
        assert!(matches!(
            incompatible.validate(),
            Err(SpecError::Invalid(_))
        ));
    }

    #[test]
    fn instruction_budget_cap_is_inclusive() {
        let mut spec = JobSpec::bench("mcf");
        spec.instructions = MAX_INSTRUCTIONS;
        spec.validate().unwrap();
        spec.instructions = MAX_INSTRUCTIONS + 1;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.instructions = u64::MAX;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn cell_count_cap_is_inclusive() {
        let mut spec = JobSpec::bench("mcf");
        spec.configs = vec![SecurityConfig::secddr_ctr(); MAX_CELLS];
        spec.validate().unwrap();
        spec.configs.push(SecurityConfig::tdx_baseline());
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // The cap counts cells, not configs: the whole suite multiplies.
        let mut suite = JobSpec::bench("mcf");
        suite.workload = Workload::Suite(SuiteSel::All);
        suite.configs = vec![SecurityConfig::secddr_ctr(); MAX_CELLS / 29];
        suite.validate().unwrap();
        suite.configs.push(SecurityConfig::secddr_ctr());
        assert!(matches!(suite.validate(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn malformed_json_is_rejected_with_context() {
        let good = JobSpec::bench("mcf").to_json().to_string();
        let mangled = good.replace("\"cores\"", "\"cpus\"");
        let err = JobSpec::from_json(&Json::parse(&mangled).unwrap()).unwrap_err();
        assert!(matches!(err, SpecError::Malformed(_)), "{err}");
    }

    #[test]
    fn content_hash_is_spec_equality_modulo_priority() {
        // Hash equality ⇔ spec equality modulo `priority`: same spec at
        // any priority hashes identically…
        let base = JobSpec::bench("mcf");
        for priority in [i8::MIN, -1, 0, 1, i8::MAX] {
            let mut spec = base.clone();
            spec.priority = priority;
            assert_eq!(spec.content_hash(), base.content_hash());
        }
        // …and perturbing any *content* field moves the hash.
        type Perturbation = Box<dyn Fn(&mut JobSpec)>;
        let perturb: Vec<(&str, Perturbation)> = vec![
            (
                "workload",
                Box::new(|s| s.workload = Workload::Bench("omnetpp".into())),
            ),
            (
                "suite",
                Box::new(|s| s.workload = Workload::Suite(SuiteSel::Gapbs)),
            ),
            (
                "configs",
                Box::new(|s| s.configs = vec![SecurityConfig::tdx_baseline()]),
            ),
            (
                "configs-extended",
                Box::new(|s| s.configs.push(SecurityConfig::tree_64ary())),
            ),
            ("options", Box::new(|s| s.options.serial_tree_fetch = true)),
            ("cores", Box::new(|s| s.cores = 2)),
            ("channels", Box::new(|s| s.channels = 2)),
            ("instructions", Box::new(|s| s.instructions += 1)),
            ("seed", Box::new(|s| s.seed ^= 1)),
            ("epoch_width", Box::new(|s| s.epoch_width = 4_096)),
        ];
        for (what, f) in perturb {
            let mut spec = base.clone();
            f(&mut spec);
            assert_ne!(
                spec.content_hash(),
                base.content_hash(),
                "{what} must be part of the content hash"
            );
        }
    }

    #[test]
    fn content_hash_is_stable_across_codec_round_trips() {
        let mut spec = JobSpec::bench("mcf");
        spec.configs = vec![SecurityConfig::secddr_ctr(), SecurityConfig::tdx_baseline()];
        spec.priority = 7;
        let text = spec.to_json().to_string();
        let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.content_hash(), spec.content_hash());
    }

    #[test]
    fn cell_specs_decompose_in_cell_order() {
        let mut spec = JobSpec::bench("mcf");
        spec.workload = Workload::Suite(SuiteSel::Gapbs);
        spec.configs = vec![SecurityConfig::secddr_ctr(), SecurityConfig::tdx_baseline()];
        spec.priority = 3;
        spec.seed = 99;
        let cells = spec.cell_specs().unwrap();
        assert_eq!(cells.len(), spec.cell_count().unwrap());
        // Benchmark-major, config-minor — exactly the order run_job
        // iterates cells in.
        let benchmarks = spec.resolve_benchmarks().unwrap();
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(
                cell.workload,
                Workload::Bench(benchmarks[i / 2].name().to_string())
            );
            assert_eq!(cell.configs, vec![spec.configs[i % 2]]);
            assert_eq!(cell.cell_count().unwrap(), 1);
            assert_eq!((cell.seed, cell.priority), (99, 3));
            cell.validate().unwrap();
        }
        // Distinct cells get distinct content hashes (the result-store
        // keys cannot collide within one job).
        let mut keys: Vec<u64> = cells.iter().map(JobSpec::content_hash).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
    }

    #[test]
    fn single_cell_jobs_decompose_to_themselves_modulo_nothing() {
        let spec = JobSpec::bench("mcf");
        let cells = spec.cell_specs().unwrap();
        assert_eq!(cells, vec![spec.clone()]);
        assert_eq!(cells[0].content_hash(), spec.content_hash());
    }

    #[test]
    fn interleave_matches_channel_count() {
        let mut spec = JobSpec::bench("mcf");
        spec.channels = 4;
        assert_eq!(spec.interleave().shard_count(), 4);
        spec.channels = 3;
        assert_eq!(spec.interleave().shard_count(), 3);
    }
}
