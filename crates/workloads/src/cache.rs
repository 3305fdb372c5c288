//! On-disk trace cache: serialized [`TraceOp`] streams keyed by
//! `(benchmark, instruction budget, seed)`.
//!
//! [`Benchmark::generate_shared`](crate::Benchmark::generate_shared)
//! consults three tiers: the bounded in-process memo, then this disk cache,
//! then the trace kernels themselves. A repeated *process* (a restarted
//! experiment service, a re-run bench binary) therefore skips trace
//! generation entirely — the remaining step of the ROADMAP's
//! capture/replay item.
//!
//! # Format
//!
//! A version-stamped little-endian binary file, written atomically
//! (temp file + rename) so concurrent writers can race benignly:
//!
//! ```text
//! magic  b"SDTR"            4 bytes
//! version u32               bumped on any layout change
//! budget  u64  seed u64     the key, re-verified on load
//! count   u64               number of ops
//! ops     count × (tag u8, value u64)
//! ```
//!
//! Any mismatch (magic, version, key, truncation, trailing bytes,
//! unknown tag) makes the load fall through to generation — a stale or
//! corrupt file is never trusted.
//!
//! The directory defaults to `target/trace-cache/` under the workspace
//! root; `SECDDR_TRACE_CACHE` overrides it (a path, or `off`/`0` to
//! disable the disk tier).

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use cpu_model::TraceOp;
use secddr_telemetry::{Counter, Registry};

const MAGIC: &[u8; 4] = b"SDTR";
const VERSION: u32 = 1;

const TAG_COMPUTE: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_DEPENDENT_LOAD: u8 = 2;
const TAG_STORE: u8 = 3;

/// Cumulative process-wide trace-cache counters (the experiment
/// service's cache-stats endpoint reports these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// `generate_shared` calls answered by the in-process memo.
    pub memory_hits: u64,
    /// Calls answered by a deserialized disk file.
    pub disk_hits: u64,
    /// Calls that fell through to the trace kernels.
    pub generated: u64,
}

// The counters live in the process-wide telemetry registry (under the
// `workloads.trace_cache.*` names) so the service's metrics endpoint
// and `trace_cache_stats` read the same numbers. Each handle is cached
// in a `OnceLock` so the hot path is one relaxed atomic add — the
// registry's name lookup happens once per process.
static MEMORY_HITS: OnceLock<Counter> = OnceLock::new();
static DISK_HITS: OnceLock<Counter> = OnceLock::new();
static GENERATED: OnceLock<Counter> = OnceLock::new();

fn handle(slot: &'static OnceLock<Counter>, name: &'static str) -> &'static Counter {
    slot.get_or_init(|| Registry::global().counter(name))
}

fn memory_hits() -> &'static Counter {
    handle(&MEMORY_HITS, "workloads.trace_cache.memory_hits")
}

fn disk_hits() -> &'static Counter {
    handle(&DISK_HITS, "workloads.trace_cache.disk_hits")
}

fn generated() -> &'static Counter {
    handle(&GENERATED, "workloads.trace_cache.generated")
}

pub(crate) fn count_memory_hit() {
    memory_hits().inc();
}

pub(crate) fn count_disk_hit() {
    disk_hits().inc();
}

pub(crate) fn count_generated() {
    generated().inc();
}

/// A snapshot of the process-wide trace-cache counters (the same values
/// the global telemetry registry reports under
/// `workloads.trace_cache.*`).
#[must_use]
pub fn trace_cache_stats() -> TraceCacheStats {
    TraceCacheStats {
        memory_hits: memory_hits().get(),
        disk_hits: disk_hits().get(),
        generated: generated().get(),
    }
}

/// The disk-cache directory, or `None` when the disk tier is disabled
/// via `SECDDR_TRACE_CACHE=off` (or `0`).
///
/// The default lives under the *workspace* `target/` directory (derived
/// from this crate's manifest location) so test binaries — whose working
/// directory is their own crate root — share one cache with the
/// binaries and never scatter `target/` directories around the tree.
#[must_use]
pub fn cache_dir() -> Option<PathBuf> {
    match std::env::var("SECDDR_TRACE_CACHE") {
        Ok(v) if v == "off" || v == "0" => None,
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => {
            let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
            let workspace = manifest.parent()?.parent()?;
            Some(workspace.join("target").join("trace-cache"))
        }
    }
}

fn file_name(name: &str, budget: u64, seed: u64) -> String {
    // Benchmark names are short ASCII identifiers; sanitize defensively
    // so a hostile name cannot escape the cache directory.
    let safe: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{safe}-{budget}-{seed}.trace")
}

/// Serializes `trace` into the on-disk format.
#[must_use]
pub fn encode(budget: u64, seed: u64, trace: &[TraceOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 + 8 + 8 + 8 + trace.len() * 9);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&budget.to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for op in trace {
        let (tag, value) = match op {
            TraceOp::Compute(n) => (TAG_COMPUTE, u64::from(*n)),
            TraceOp::Load(a) => (TAG_LOAD, *a),
            TraceOp::DependentLoad(a) => (TAG_DEPENDENT_LOAD, *a),
            TraceOp::Store(a) => (TAG_STORE, *a),
        };
        out.push(tag);
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

/// Decodes a cache file body, verifying the header against the expected
/// key. Returns `None` on any mismatch or corruption.
#[must_use]
pub fn decode(budget: u64, seed: u64, bytes: &[u8]) -> Option<Vec<TraceOp>> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        let slice = bytes.get(*at..*at + n)?;
        *at += n;
        Some(slice)
    };
    if take(&mut at, 4)? != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?);
    if version != VERSION {
        return None;
    }
    let file_budget = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?);
    let file_seed = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?);
    if (file_budget, file_seed) != (budget, seed) {
        return None;
    }
    let count = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?);
    let count = usize::try_from(count).ok()?;
    // Reject absurd counts before allocating (a truncation-proof bound:
    // each op costs 9 bytes; checked so a crafted header can neither
    // wrap the size check nor drive a huge allocation).
    if count.checked_mul(9) != Some(bytes.len() - at) {
        return None;
    }
    let mut trace = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = take(&mut at, 1)?[0];
        let value = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?);
        trace.push(match tag {
            TAG_COMPUTE => TraceOp::Compute(u32::try_from(value).ok()?),
            TAG_LOAD => TraceOp::Load(value),
            TAG_DEPENDENT_LOAD => TraceOp::DependentLoad(value),
            TAG_STORE => TraceOp::Store(value),
            _ => return None,
        });
    }
    Some(trace)
}

/// Loads a cached trace for the key, if the disk tier is enabled and a
/// valid file exists.
pub(crate) fn load(name: &str, budget: u64, seed: u64) -> Option<Vec<TraceOp>> {
    let path = cache_dir()?.join(file_name(name, budget, seed));
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .ok()?
        .read_to_end(&mut bytes)
        .ok()?;
    decode(budget, seed, &bytes)
}

/// Persists a generated trace, best-effort: a full cache disk or racing
/// writer never fails the simulation. The write is atomic (unique temp
/// file + rename) so readers only ever see complete files.
pub(crate) fn store(name: &str, budget: u64, seed: u64, trace: &[TraceOp]) {
    let Some(dir) = cache_dir() else {
        return;
    };
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let final_path = dir.join(file_name(name, budget, seed));
    let tmp_path = dir.join(format!(
        "{}.tmp.{}",
        file_name(name, budget, seed),
        std::process::id()
    ));
    let bytes = encode(budget, seed, trace);
    let written = std::fs::File::create(&tmp_path)
        .and_then(|mut f| f.write_all(&bytes))
        .is_ok();
    if written {
        let _ = std::fs::rename(&tmp_path, &final_path);
    } else {
        let _ = std::fs::remove_file(&tmp_path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceOp> {
        vec![
            TraceOp::Compute(17),
            TraceOp::Load(0x00DE_ADBE_EFC0),
            TraceOp::DependentLoad(!63),
            TraceOp::Store(0),
            TraceOp::Compute(u32::MAX),
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        let trace = sample();
        let bytes = encode(40_000, 0xD5, &trace);
        assert_eq!(decode(40_000, 0xD5, &bytes), Some(trace));
    }

    #[test]
    fn decode_rejects_wrong_key_version_and_corruption() {
        let trace = sample();
        let bytes = encode(40_000, 0xD5, &trace);
        assert_eq!(decode(40_000, 0xD6, &bytes), None, "wrong seed");
        assert_eq!(decode(40_001, 0xD5, &bytes), None, "wrong budget");
        let mut wrong_version = bytes.clone();
        wrong_version[4] ^= 1;
        assert_eq!(decode(40_000, 0xD5, &wrong_version), None, "version");
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode(40_000, 0xD5, &bad_magic), None, "magic");
        assert_eq!(
            decode(40_000, 0xD5, &bytes[..bytes.len() - 1]),
            None,
            "truncated"
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode(40_000, 0xD5, &trailing), None, "trailing bytes");
        let mut bad_tag = bytes;
        let tag_at = 4 + 4 + 8 + 8 + 8;
        bad_tag[tag_at] = 9;
        assert_eq!(decode(40_000, 0xD5, &bad_tag), None, "unknown tag");
    }

    #[test]
    fn decode_rejects_wrapping_count_header() {
        // A crafted header whose `count × 9` wraps to exactly the
        // trailing byte count must be rejected, not trusted into a
        // huge allocation (9 is odd, hence invertible mod 2^64).
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(9u64.wrapping_mul(inv)));
        }
        assert_eq!(inv.wrapping_mul(9), 1);
        let evil_count = inv.wrapping_mul(7);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&evil_count.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 7]);
        assert_eq!(decode(1, 2, &bytes), None);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode(1, 2, &[]);
        assert_eq!(decode(1, 2, &bytes), Some(Vec::new()));
    }

    #[test]
    fn store_then_load_round_trips_via_disk() {
        // Uses the real cache directory (under the workspace target/);
        // the key is private to this test so parallel suites cannot
        // collide. Skipped silently when the disk tier is disabled.
        if cache_dir().is_none() {
            return;
        }
        let trace = sample();
        store("disk_roundtrip_test", 123_456, 777, &trace);
        assert_eq!(load("disk_roundtrip_test", 123_456, 777), Some(trace));
        assert_eq!(load("disk_roundtrip_test", 123_456, 778), None, "other key");
    }

    #[test]
    fn counters_live_in_the_global_registry() {
        let before = trace_cache_stats();
        count_memory_hit();
        count_disk_hit();
        count_generated();
        let after = trace_cache_stats();
        assert_eq!(after.memory_hits, before.memory_hits + 1);
        assert_eq!(after.disk_hits, before.disk_hits + 1);
        assert_eq!(after.generated, before.generated + 1);
        let snap = Registry::global().snapshot();
        assert_eq!(
            snap.counter("workloads.trace_cache.memory_hits"),
            after.memory_hits,
            "stats and the registry read the same counter"
        );
        assert!(snap.counter_prefix_sum("workloads.trace_cache.") >= 3);
    }

    #[test]
    fn file_names_are_sanitized() {
        assert_eq!(file_name("mcf", 10, 2), "mcf-10-2.trace");
        assert_eq!(file_name("../evil", 1, 1), "___evil-1-1.trace");
    }
}
