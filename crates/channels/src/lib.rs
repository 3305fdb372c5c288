//! Sharded multi-channel memory subsystem: N interleaved SecDDR channels
//! behind one [`cpu_model::system::MemoryBackend`].
//!
//! The paper evaluates a single DDR4 channel behind the security engine;
//! production-scale serving wants N channels with address interleaving.
//! This crate adds that layer without the CPU front-end noticing:
//!
//! * [`Interleave`] — a pluggable, round-trippable line-granularity
//!   hash (modulo or XOR-folded) mapping every physical line to exactly
//!   one `(shard, dense local address)` pair;
//! * [`ShardedEngine`] — N independent
//!   [`secddr_core::engine::SecurityEngine`] + DDR-channel shards whose
//!   top-level advance is event-driven: it steps only the shards with a
//!   completion due by the target, so the per-shard idle windows that
//!   *grow* with N are skipped at the top level;
//! * [`ChannelStats`] — per-channel DRAM statistics
//!   ([`dram_sim::DramStats`]) whose `merge` aggregates counters and
//!   occupancy/latency histograms across shards.
//!
//! A `ShardedEngine` with one shard is observationally identical to a
//! bare `SecurityEngine` (pinned end-to-end by
//! `tests/sharded_differential.rs`), so the whole experiment surface can
//! switch between 1 and N channels freely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interleave;
mod sharded;

pub use interleave::{Interleave, InterleavePolicy, LINE_BYTES};
pub use sharded::ShardedEngine;

/// Per-channel DRAM statistics; [`ChannelStats::merge`] aggregates
/// across shards.
pub use dram_sim::DramStats as ChannelStats;
