//! Output digests: an FNV-1a hash over the named fields of the simulated
//! statistics, and the digests recorded for the benchmark's default
//! seed.
//!
//! Fields are hashed by name rather than through `Debug`, so adding a
//! statistic to a struct does not change the digest; changing a value
//! does. A change that alters simulated results on purpose re-records
//! [`EXPECTED`] from the `digest` lines the benchmark prints.

use cpu_model::{CacheStats, SimResult};
use dram_sim::DramStats;
use secddr_core::EngineStats;

/// Recorded digests by `(workload, seed)`: one per rate run, and one
/// over the whole sweep's cells in order. Seed 1 is the benchmark's
/// default seed; the others widen coverage to the seeds a repeated
/// measurement is likely to use.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("fig6_sweep", 1, 0x7578dd9044e7dbc2),
    ("fig6_sweep", 2, 0x496c6104fc025936),
    ("fig6_sweep", 3, 0xeb98eb3c7494f9c0),
    ("fig6_sweep", 4, 0xde4782a7a019e40f),
    ("fig6_sweep", 5, 0x3deb26af0087afad),
    ("fig6_sweep", 6, 0x4f5fb33f8b818a83),
    ("fig6_sweep", 7, 0xfccc2b7800a4e3cd),
    ("fig6_sweep", 8, 0x55f34484e41d719c),
    ("fig6_sweep", 9, 0x9fb562492d24cb48),
    ("fig6_sweep", 10, 0x65cb66ea861d77de),
    ("rate16_mcf", 1, 0x85d37b055235cb79),
    ("rate16_mcf", 2, 0xb40e07db809527ac),
    ("rate16_mcf", 3, 0x417cb67ea19625a1),
    ("rate16_mcf", 4, 0xbb28429bbcde756d),
    ("rate16_mcf", 5, 0xc3503654d9c6e3ef),
    ("rate16_mcf", 6, 0xb366c4d7efb478b5),
    ("rate16_mcf", 7, 0xb32f2845133c651b),
    ("rate16_mcf", 8, 0x9ee66302ec10d5c0),
    ("rate16_mcf", 9, 0xc73f6c47c7bddd1a),
    ("rate16_mcf", 10, 0x3504f6cf4d6329e0),
];

/// Compares each repetition's digest with the recorded one, or, for a
/// seed without a record, with the first repetition's.
#[derive(Debug)]
pub struct Checker {
    want: Option<u64>,
    recorded: bool,
}

impl Checker {
    /// A checker for `workload` at `seed`.
    pub fn new(workload: &str, seed: u64) -> Self {
        let want = EXPECTED
            .iter()
            .find(|(w, s, _)| *w == workload && *s == seed)
            .map(|(_, _, d)| *d);
        Self {
            want,
            recorded: want.is_some(),
        }
    }

    /// Whether `digest` matches (the first digest of an unrecorded seed
    /// becomes the reference).
    pub fn accept(&mut self, digest: u64) -> bool {
        *self.want.get_or_insert(digest) == digest
    }

    /// The reference line printed once per run.
    pub fn describe(&self, workload: &str, seed: u64) -> String {
        let source = if self.recorded {
            "recorded"
        } else {
            "unrecorded seed: repetitions must agree"
        };
        match self.want {
            Some(d) => format!("digest {workload} seed {seed}: {d:#018x} ({source})"),
            None => format!("digest {workload} seed {seed}: none ({source})"),
        }
    }
}

/// An FNV-1a accumulator over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Mixes in one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    fn cache(&mut self, c: &CacheStats) -> &mut Self {
        self.word(c.hits).word(c.misses).word(c.writebacks)
    }

    /// Mixes in a core's results.
    pub fn sim(&mut self, s: &SimResult) -> &mut Self {
        self.word(s.instructions).word(s.cycles);
        self.cache(&s.l1).cache(&s.llc).word(s.prefetches)
    }

    /// Mixes in security-engine traffic.
    pub fn engine(&mut self, e: &EngineStats) -> &mut Self {
        self.word(e.data_reads)
            .word(e.data_writes)
            .word(e.leaf_fetches)
            .word(e.tree_fetches)
            .word(e.metadata_writebacks)
            .cache(&e.metadata_cache)
    }

    /// Mixes in DRAM channel statistics.
    pub fn dram(&mut self, d: &DramStats) -> &mut Self {
        for w in [
            d.reads,
            d.writes,
            d.forwarded_reads,
            d.row_hits,
            d.activates,
            d.precharges,
            d.refreshes,
            d.data_bus_busy_cycles,
            d.cycles,
            d.read_latency_sum,
            d.read_queue_delay_sum,
        ] {
            self.word(w);
        }
        for w in d.read_q_occupancy.iter().chain(&d.write_q_occupancy) {
            self.word(*w);
        }
        self
    }
}
