//! The security engine: everything that sits between the LLC and the DDR4
//! channel for a given configuration.
//!
//! [`SecurityEngine`] implements [`cpu_model::MemoryBackend`]. For each
//! LLC-miss read it issues the data fetch plus whatever metadata traffic
//! the configuration requires (encryption-counter lines, MAC lines,
//! integrity-tree nodes missing from the 128 KB metadata cache), and adds
//! the configuration's cryptographic latency once all parts return. For
//! writebacks it issues the data write and dirties/fetches the counter
//! line; dirty metadata evictions become extra DRAM writes and propagate
//! dirtiness to parent tree nodes.

use std::collections::VecDeque;
use std::rc::Rc;

use cpu_model::cache::{Cache, CacheConfig, CacheStats};
use cpu_model::system::{AccessKind, Busy, MemoryBackend};
use dram_sim::{DramSystem, MemRequest, ReqKind};
use sim_kernel::{Advance, EventQueue};

use crate::config::{EncMode, Mechanism, SecurityConfig, CRYPTO_LATENCY};
use crate::metadata::{MetadataLayout, DATA_SPAN};

/// Traffic and cache statistics accumulated by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Demand data reads issued to DRAM.
    pub data_reads: u64,
    /// Data writebacks issued to DRAM.
    pub data_writes: u64,
    /// Encryption-counter / MAC leaf lines fetched from DRAM.
    pub leaf_fetches: u64,
    /// Integrity-tree nodes fetched from DRAM.
    pub tree_fetches: u64,
    /// Dirty metadata lines written back to DRAM.
    pub metadata_writebacks: u64,
    /// Metadata-cache demand accesses (for Figure 7's miss rate).
    pub metadata_cache: CacheStats,
}

impl EngineStats {
    /// Metadata-cache misses (Figure 7's numerator).
    pub fn metadata_misses(&self) -> u64 {
        self.metadata_cache.misses
    }

    /// Accumulates `other` into `self` — every traffic counter and the
    /// metadata-cache statistics sum, so per-shard engine statistics
    /// aggregate into one view of a multi-channel backend.
    pub fn merge(&mut self, other: &Self) {
        // Exhaustive destructuring: a new field must pick a merge rule.
        let Self {
            data_reads,
            data_writes,
            leaf_fetches,
            tree_fetches,
            metadata_writebacks,
            metadata_cache,
        } = other;
        self.data_reads += data_reads;
        self.data_writes += data_writes;
        self.leaf_fetches += leaf_fetches;
        self.tree_fetches += tree_fetches;
        self.metadata_writebacks += metadata_writebacks;
        self.metadata_cache.merge(metadata_cache);
    }
}

#[derive(Debug)]
struct Transaction {
    remaining: u32,
    latest_arrival_cpu: u64,
    extra_latency: u64,
}

/// Part-slot sentinel: enqueued traffic no transaction waits on
/// (data/metadata writes, untracked parent fetches). Completes like any
/// request but routes nowhere.
const UNTRACKED_PART: u64 = u64::MAX - 1;
/// Part-slot sentinel: already completed, or never enqueued (allocation
/// raced a full queue) — the window's front can slide past it.
const DEAD_PART: u64 = u64::MAX;
/// `Transaction::remaining` placeholder for a read token between its
/// allocation and its part count being known; nonzero so the window's
/// front cannot slide past a transaction still being assembled.
const TXN_ASSEMBLING: u32 = u32::MAX;

/// Tuning knobs for ablation studies (DESIGN.md §5). [`Default`] matches
/// the paper's setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Metadata cache capacity in bytes (Table I: 128 KB).
    pub metadata_cache_bytes: u64,
    /// Fetch missing tree levels serially (one after the other) instead of
    /// in parallel. The paper's baseline "allow\[s\] parallel tree-level
    /// verification"; serial fetch quantifies what that buys.
    pub serial_tree_fetch: bool,
    /// Force BL8 writes even for SecDDR (isolates the eWCRC burst cost).
    pub force_bl8: bool,
    /// Schedule first-come-first-served instead of FR-FCFS (no row-hit
    /// prioritization).
    pub fcfs: bool,
    /// Clock advance policy for the engine's DRAM channel: event-driven
    /// idle-skip (default) or the per-cycle reference semantics.
    pub advance: Advance,
    /// Route the CPU system's multi-access events through
    /// [`cpu_model::system::MemoryBackend::submit_batch`] (default) or
    /// one `submit` call per access. Observationally identical; pinned by
    /// the batch-equivalence tests.
    pub batched_ingestion: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            metadata_cache_bytes: 128 << 10,
            serial_tree_fetch: false,
            force_bl8: false,
            fcfs: false,
            advance: Advance::ToNextEvent,
            batched_ingestion: true,
        }
    }
}

/// A [`MemoryBackend`] injecting one security configuration's metadata
/// traffic and crypto latency over a [`DramSystem`].
#[derive(Debug)]
pub struct SecurityEngine {
    cfg: SecurityConfig,
    dram: DramSystem,
    /// Shared so the hot paths can detach a handle from `&mut self`
    /// without cloning the level table.
    layout: Option<Rc<MetadataLayout>>,
    md_cache: Cache,
    cpu_mhz: u64,
    mem_mhz: u64,
    next_token: u64,
    next_part: u64,
    /// Owning token per part id, as a dense sliding window over the part
    /// sequence: slot `p - part_base` holds the token of part `p`
    /// ([`UNTRACKED_PART`] for traffic no transaction waits on,
    /// [`DEAD_PART`] once completed or never enqueued). Parts complete
    /// within the channel's bounded in-flight window, so the deque stays
    /// small and routing a completion is one array store instead of a
    /// hash-map remove on the busiest shared path in the simulator.
    part_token: VecDeque<u64>,
    /// Part id of `part_token`'s front slot.
    part_base: u64,
    /// In-flight read transactions, as the same dense sliding window
    /// over the token sequence (`remaining == 0` marks a dead slot:
    /// a posted write's token or a completed read).
    transactions: VecDeque<Transaction>,
    /// Token id of `transactions`' front slot.
    txn_base: u64,
    /// Live (incomplete read) entries in `transactions`.
    live_txns: usize,
    /// Lower bound on `extra_latency` across in-flight transactions
    /// (tightened on insert, reset when none remain). Lets
    /// [`MemoryBackend::next_completion_event`] push the CPU's wake-up
    /// past the crypto latency instead of the next raw DRAM activity.
    min_extra_in_flight: u64,
    /// Completed reads, scheduled at the CPU cycle they become visible.
    ready: EventQueue<u64>,
    pending_md_writes: VecDeque<u64>,
    stats: EngineStats,
    options: EngineOptions,
    /// CPU-cycle epoch width the channel series was enabled at (`None`
    /// when series recording is off). The channel records in its own
    /// mem-cycle domain; snapshots are relabeled back to this width so
    /// engine- and core-domain series merge at aligned epochs.
    series_width_cpu: Option<u64>,
}

/// Random virtual→physical 4 KB page mapping (Table I: "virtual page size
/// 4KB with random policy for virtual page to physical frame mapping").
/// A fixed splitmix64 hash keeps the mapping deterministic across
/// configurations while spreading pages — and therefore counter lines and
/// tree nodes — uniformly over the protected span, exactly the effect the
/// paper notes limits counter-packing locality.
#[inline]
fn translate(vaddr: u64) -> u64 {
    const PAGE_SHIFT: u64 = 12;
    let vpage = vaddr >> PAGE_SHIFT;
    let mut z = vpage.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let frames = DATA_SPAN >> PAGE_SHIFT;
    let pframe = z % frames;
    (pframe << PAGE_SHIFT) | (vaddr & ((1 << PAGE_SHIFT) - 1))
}

impl SecurityEngine {
    /// Builds the engine for `cfg`, with the CPU clock (MHz) used to
    /// convert between core and memory cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: SecurityConfig, cpu_mhz: u32) -> Self {
        Self::with_options(cfg, cpu_mhz, EngineOptions::default())
    }

    /// As [`Self::new`] with explicit ablation knobs.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails or the metadata cache geometry is
    /// invalid.
    pub fn with_options(cfg: SecurityConfig, cpu_mhz: u32, options: EngineOptions) -> Self {
        cfg.validate().expect("invalid security configuration");
        let mut dram_cfg = cfg.dram_config();
        if options.force_bl8 {
            dram_cfg.write_burst_cycles = 4;
            dram_cfg.write_extra_cycles = 0;
        }
        dram_cfg.fcfs = options.fcfs;
        let mem_mhz = u64::from(dram_cfg.freq_mhz);
        let layout = match cfg.mechanism {
            Mechanism::HashTree { arity } => Some(MetadataLayout::hash_tree(u64::from(arity))),
            Mechanism::CounterTree { arity } => Some(MetadataLayout::counter_tree(
                u64::from(cfg.ctr_packing),
                u64::from(arity),
            )),
            _ if cfg.uses_counters() => {
                Some(MetadataLayout::counter_tree(u64::from(cfg.ctr_packing), 0))
            }
            _ => None,
        }
        .map(Rc::new);
        Self {
            cfg,
            dram: DramSystem::new(dram_cfg),
            layout,
            md_cache: Cache::new(CacheConfig {
                size_bytes: options.metadata_cache_bytes,
                ..CacheConfig::metadata()
            }),
            cpu_mhz: u64::from(cpu_mhz),
            mem_mhz,
            next_token: 0,
            next_part: 0,
            part_token: VecDeque::new(),
            part_base: 0,
            transactions: VecDeque::new(),
            txn_base: 0,
            live_txns: 0,
            min_extra_in_flight: u64::MAX,
            ready: EventQueue::new(),
            pending_md_writes: VecDeque::new(),
            stats: EngineStats::default(),
            options,
            series_width_cpu: None,
        }
    }

    /// The configuration under evaluation.
    pub fn config(&self) -> &SecurityConfig {
        &self.cfg
    }

    /// Engine statistics (metadata traffic, cache behaviour).
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.metadata_cache = *self.md_cache.stats();
        s
    }

    /// The underlying DRAM channel statistics.
    pub fn dram_stats(&self) -> dram_sim::DramStats {
        self.dram.stats()
    }

    /// The channel controller's telemetry (advance-policy counters and
    /// decision-cause attribution; not part of bit-identity).
    pub fn dram_telemetry(&self) -> dram_sim::ControllerTelemetry {
        self.dram.telemetry()
    }

    /// Turns on sim-time windowed series recording on the underlying
    /// channel at `epoch_width` **CPU cycles** per epoch. The channel
    /// records in its own mem-cycle domain (the width is converted
    /// through the clock ratio) and [`Self::series_snapshot`] relabels
    /// the result back, so engine series merge with core-domain series
    /// at aligned real-time epochs. Zero-perturbation: see
    /// [`DramSystem::enable_series`](dram_sim::DramSystem::enable_series).
    ///
    /// # Panics
    ///
    /// Panics if `epoch_width` is zero.
    pub fn enable_series(&mut self, epoch_width: u64) {
        assert!(epoch_width > 0, "epoch width must be nonzero");
        self.series_width_cpu = Some(epoch_width);
        self.dram
            .enable_series(self.mem_cycle_for(epoch_width).max(1));
    }

    /// The channel's recorded series (`None` unless
    /// [`Self::enable_series`] was called), relabeled to the CPU-cycle
    /// epoch width. Sync the engine first for an up-to-date view.
    pub fn series_snapshot(&self) -> Option<secddr_telemetry::SeriesSnapshot> {
        let width = self.series_width_cpu?;
        let mut snap = self.dram.series_snapshot()?;
        snap.epoch_width = width;
        Some(snap)
    }

    /// Advances the engine's channel to CPU cycle `now` without
    /// harvesting completed tokens — they stay scheduled in the ready
    /// queue for the next [`MemoryBackend::tick`].
    ///
    /// A multi-channel front-end that skipped this engine's ticks while
    /// its [`MemoryBackend::next_event`] bound was in the future (so the
    /// skipped ticks were provably observation-free) uses this to catch
    /// a lagging shard up before reading its statistics; the deferred
    /// catch-up is cycle-identical to having ticked every step.
    pub fn sync_to(&mut self, now: u64) {
        let mem_due = self.mem_cycle_for(now);
        self.advance(mem_due);
    }

    #[inline]
    fn mem_cycle_for(&self, cpu_cycle: u64) -> u64 {
        cpu_cycle * self.mem_mhz / self.cpu_mhz
    }

    #[inline]
    fn cpu_cycle_for(&self, mem_cycle: u64) -> u64 {
        (mem_cycle * self.cpu_mhz).div_ceil(self.mem_mhz)
    }

    /// The crypto latency added once a read's last part has arrived.
    fn read_extra_latency(&self, leaf_missed: bool) -> u64 {
        match self.cfg.mechanism {
            // TDX / trees / SecDDR verify a MAC (and decrypt in parallel).
            Mechanism::Tdx
            | Mechanism::CounterTree { .. }
            | Mechanism::HashTree { .. }
            | Mechanism::SecDdr => CRYPTO_LATENCY,
            Mechanism::EncryptOnly => match self.cfg.enc {
                EncMode::Xts => CRYPTO_LATENCY,
                // Counter hit: the OTP was precomputed during the data
                // fetch; decryption is a XOR.
                EncMode::Ctr => {
                    if leaf_missed {
                        CRYPTO_LATENCY
                    } else {
                        0
                    }
                }
            },
            // Memory-side MAC generation plus processor-side verification:
            // 2x MAC latency on the critical path (Section VI-D).
            Mechanism::InvisiMem { .. } => 2 * CRYPTO_LATENCY,
        }
    }

    /// Allocates the next part id, recording `slot` (an owning token or a
    /// sentinel) in the routing window.
    fn alloc_part(&mut self, slot: u64) -> u64 {
        let part = self.next_part;
        self.next_part += 1;
        self.part_token.push_back(slot);
        part
    }

    /// Allocates the next token id; a read passes `assembling` (its part
    /// count is filled in once the metadata walk is done), a posted write
    /// burns the id with a dead slot.
    fn alloc_token(&mut self, assembling: bool) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.transactions.push_back(Transaction {
            remaining: if assembling { TXN_ASSEMBLING } else { 0 },
            latest_arrival_cpu: 0,
            extra_latency: 0,
        });
        if !assembling {
            // A burned write id may leave dead slots at the front; slide
            // now so a write-heavy phase cannot grow the window.
            while matches!(self.transactions.front(), Some(t) if t.remaining == 0) {
                self.transactions.pop_front();
                self.txn_base += 1;
            }
        }
        token
    }

    /// Accesses the metadata cache for `line`; on a miss, fetches it from
    /// DRAM as part of transaction `token` (or untracked when `token` is
    /// `None`) and installs it. Returns `true` when it missed.
    fn metadata_access(
        &mut self,
        line: u64,
        is_write: bool,
        token: Option<u64>,
        now_mem: u64,
        parts: &mut u32,
        is_tree_node: bool,
    ) -> bool {
        if self.md_cache.access(line, is_write) {
            return false;
        }
        // Fetch from DRAM.
        let part = self.next_part;
        let slot = match self
            .dram
            .enqueue(MemRequest::new(part, ReqKind::Read, line, now_mem))
        {
            Ok(()) => {
                if is_tree_node {
                    self.stats.tree_fetches += 1;
                } else {
                    self.stats.leaf_fetches += 1;
                }
                match token {
                    Some(t) => {
                        *parts += 1;
                        t
                    }
                    None => UNTRACKED_PART,
                }
            }
            Err(_) => {
                debug_assert!(
                    token.is_none(),
                    "tracked metadata fetches are capacity pre-checked"
                );
                // Untracked fetch under saturation: elide the DRAM access
                // (models MSHR merging with the concurrent demand traffic).
                DEAD_PART
            }
        };
        let allocated = self.alloc_part(slot);
        debug_assert_eq!(allocated, part);
        if let Some(victim) = self.md_cache.fill(line, is_write) {
            self.queue_md_writeback(victim, now_mem);
        }
        true
    }

    fn queue_md_writeback(&mut self, victim: u64, now_mem: u64) {
        self.stats.metadata_writebacks += 1;
        // Propagate dirtiness to the parent tree node (lazy tree update).
        if let Some(parent) = self.layout.as_deref().and_then(|l| l.parent_of(victim)) {
            {
                if !self.md_cache.access(parent, true) {
                    // Parent not cached: fetch it (untracked) and install
                    // dirty, spilling recursively via this same hook.
                    let part = self.next_part;
                    let slot = if self
                        .dram
                        .enqueue(MemRequest::new(part, ReqKind::Read, parent, now_mem))
                        .is_ok()
                    {
                        self.stats.tree_fetches += 1;
                        UNTRACKED_PART
                    } else {
                        DEAD_PART
                    };
                    let allocated = self.alloc_part(slot);
                    debug_assert_eq!(allocated, part);
                    if let Some(v2) = self.md_cache.fill(parent, true) {
                        self.stats.metadata_writebacks += 1;
                        self.pending_md_writes.push_back(v2);
                    }
                }
            }
        }
        let part = self.next_part;
        let slot = if self
            .dram
            .enqueue(MemRequest::new(part, ReqKind::Write, victim, now_mem))
            .is_ok()
        {
            UNTRACKED_PART
        } else {
            self.pending_md_writes.push_back(victim);
            DEAD_PART
        };
        let allocated = self.alloc_part(slot);
        debug_assert_eq!(allocated, part);
    }

    /// Worst-case read-queue slots one read transaction may need
    /// (including untracked parent fetches spilled by evictions).
    fn max_read_parts(&self) -> usize {
        2 * (1 + self.layout.as_ref().map_or(0, |l| 2 + l.tree_levels()))
    }

    /// Lower bound (CPU cycles) on the next visible read-token time:
    /// already-computed ready times, plus in-flight transactions whose
    /// parts finish no earlier than the earliest pending data beat or —
    /// for parts still queued — the channel's next decision cycle (a
    /// READ issues only on one) plus CAS latency and burst, with the
    /// transaction's crypto latency on top.
    fn completion_bound(&self) -> u64 {
        let mut bound = u64::MAX;
        if let Some(t) = self.ready.peek_time() {
            bound = bound.min(t);
        }
        if self.live_txns > 0 {
            let mut part_finish = self.dram.next_read_finish_cycle();
            if let Some(t) = self.dram.next_pending_completion() {
                part_finish = part_finish.min(t);
            }
            // Defensive floor: a part must finish strictly in the future.
            part_finish = part_finish.max(self.dram.cycle() + 1);
            let extra = if self.min_extra_in_flight == u64::MAX {
                0
            } else {
                self.min_extra_in_flight
            };
            bound = bound.min(self.cpu_cycle_for(part_finish).saturating_add(extra));
        }
        bound
    }

    /// Advances the DRAM channel to `mem_due`, harvesting completions into
    /// the ready queue.
    ///
    /// With the event-driven policy the channel jumps straight to its next
    /// *decision* cycle — the controller's lower bound on when any command
    /// can issue, completion pop, drain flip, or refresh act (idle or
    /// busy). Metadata
    /// -writeback retries interleave at exactly the same cycles as the
    /// per-cycle reference: while a writeback is spilled *and* the write
    /// queue has room we fall back to per-cycle stepping (the rare case —
    /// a spill implies the queue was just full), and when the queue is
    /// full the retry provably fails until a column command issues, which
    /// is itself a decision cycle the skip never jumps over.
    fn advance(&mut self, mem_due: u64) {
        let event_driven = self.options.advance.is_event_driven();
        while self.dram.cycle() < mem_due {
            if event_driven
                && (self.pending_md_writes.is_empty()
                    || self.dram.write_queue_len() >= self.dram.config().write_queue)
            {
                self.dram.skip_to_next_decision(mem_due);
                if self.dram.cycle() >= mem_due {
                    break;
                }
            }
            for completion in self.dram.tick() {
                let off = (completion.id - self.part_base) as usize;
                let slot = std::mem::replace(&mut self.part_token[off], DEAD_PART);
                // Slide the window's front over everything already done.
                while self.part_token.front() == Some(&DEAD_PART) {
                    self.part_token.pop_front();
                    self.part_base += 1;
                }
                if slot >= UNTRACKED_PART {
                    debug_assert_ne!(slot, DEAD_PART, "part completed twice");
                    continue; // untracked metadata traffic
                }
                let token = slot;
                let arrival = self.cpu_cycle_for(completion.finish_cycle);
                let txn = &mut self.transactions[(token - self.txn_base) as usize];
                txn.remaining -= 1;
                txn.latest_arrival_cpu = txn.latest_arrival_cpu.max(arrival);
                if txn.remaining == 0 {
                    let visible_at = txn.latest_arrival_cpu + txn.extra_latency;
                    while matches!(self.transactions.front(), Some(t) if t.remaining == 0) {
                        self.transactions.pop_front();
                        self.txn_base += 1;
                    }
                    self.live_txns -= 1;
                    if self.live_txns == 0 {
                        self.min_extra_in_flight = u64::MAX;
                    }
                    self.ready.push(visible_at, token);
                }
            }
            // Retry spilled metadata writebacks.
            while let Some(&wb) = self.pending_md_writes.front() {
                let part = self.next_part;
                let mem_now = self.dram.cycle();
                if self
                    .dram
                    .enqueue(MemRequest::new(part, ReqKind::Write, wb, mem_now))
                    .is_ok()
                {
                    let allocated = self.alloc_part(UNTRACKED_PART);
                    debug_assert_eq!(allocated, part);
                    self.pending_md_writes.pop_front();
                } else {
                    break;
                }
            }
        }
    }
}

impl SecurityEngine {
    /// The post-advance body of [`MemoryBackend::submit`]: translation,
    /// backpressure check, and metadata/crypto accounting, with the
    /// channel clock already at `now_mem`. Shared by the per-call and
    /// batched ingestion paths (which differ only in how often they pay
    /// [`Self::advance`]).
    fn submit_at(&mut self, kind: AccessKind, addr: u64, now_mem: u64) -> Result<u64, Busy> {
        let addr = translate(addr % DATA_SPAN);
        match kind {
            AccessKind::Read => {
                if self.dram.read_queue_len() + self.max_read_parts()
                    > self.dram.config().read_queue
                {
                    return Err(Busy);
                }
                let token = self.alloc_token(true);
                let mut parts = 0u32;

                // Data fetch.
                let part = self.alloc_part(token);
                parts += 1;
                self.dram
                    .enqueue(MemRequest::new(part, ReqKind::Read, addr, now_mem))
                    .expect("capacity pre-checked");
                self.stats.data_reads += 1;

                // Metadata fetches.
                let mut leaf_missed = false;
                let mut tree_misses = 0u64;
                if let Some(layout) = self.layout.clone() {
                    let leaf = layout.leaf_line_of(addr);
                    leaf_missed =
                        self.metadata_access(leaf, false, Some(token), now_mem, &mut parts, false);
                    // Tree walk: climb until a cached (trusted) ancestor.
                    for node in layout.tree_path_iter(leaf) {
                        let missed = self.metadata_access(
                            node,
                            false,
                            Some(token),
                            now_mem,
                            &mut parts,
                            true,
                        );
                        if !missed {
                            break;
                        }
                        tree_misses += 1;
                    }
                }

                let mut extra = self.read_extra_latency(leaf_missed);
                if self.options.serial_tree_fetch && tree_misses > 1 {
                    // Without parallel tree-level verification, each level
                    // beyond the first adds a dependent round trip; model
                    // it as one uncontended access per extra level.
                    let cfg = self.dram.config();
                    let per_fetch =
                        self.cpu_cycle_for(cfg.t_rcd + cfg.t_cl + cfg.read_burst_cycles);
                    extra += (tree_misses - 1) * per_fetch;
                }
                self.min_extra_in_flight = self.min_extra_in_flight.min(extra);
                self.transactions[(token - self.txn_base) as usize] = Transaction {
                    remaining: parts,
                    latest_arrival_cpu: 0,
                    extra_latency: extra,
                };
                self.live_txns += 1;
                Ok(token)
            }
            AccessKind::Write => {
                if self.dram.write_queue_len() >= self.dram.config().write_queue {
                    return Err(Busy);
                }
                let part = self.alloc_part(UNTRACKED_PART);
                self.dram
                    .enqueue(MemRequest::new(part, ReqKind::Write, addr, now_mem))
                    .expect("capacity checked");
                self.stats.data_writes += 1;

                // Counter-mode: the write re-encrypts under an incremented
                // counter — the counter line must be present and becomes
                // dirty. (Tree paths are updated lazily on eviction.)
                if self.cfg.uses_counters() {
                    if let Some(leaf) = self.layout.as_deref().map(|l| l.leaf_line_of(addr)) {
                        let mut parts = 0u32;
                        let _ = self.metadata_access(leaf, true, None, now_mem, &mut parts, false);
                    }
                }
                // Writes are posted; token unused by the caller.
                Ok(self.alloc_token(false))
            }
        }
    }
}

impl MemoryBackend for SecurityEngine {
    fn submit(
        &mut self,
        kind: AccessKind,
        addr: u64,
        now: u64,
        _is_prefetch: bool,
    ) -> Result<u64, Busy> {
        // Bring the channel clock up to CPU time before stamping, so
        // enqueue timestamps are never ahead of the controller's clock.
        let now_mem = self.mem_cycle_for(now);
        self.advance(now_mem);
        self.submit_at(kind, addr, now_mem)
    }

    fn submit_batch(
        &mut self,
        batch: &[cpu_model::system::BatchAccess],
        now: u64,
        results: &mut Vec<Result<u64, Busy>>,
    ) {
        // One clock catch-up for the whole batch: after the first advance
        // the per-call path's repeated advances are no-ops at the same
        // `now`, so sharing it is observationally identical to N submits
        // while the translation and backpressure paths run back-to-back
        // on a hot controller.
        let now_mem = self.mem_cycle_for(now);
        self.advance(now_mem);
        for access in batch {
            results.push(self.submit_at(access.kind, access.addr, now_mem));
        }
    }

    fn tick(&mut self, now: u64) -> Vec<u64> {
        let mem_due = self.mem_cycle_for(now);
        self.advance(mem_due);
        let mut done = Vec::new();
        while let Some((_, token)) = self.ready.pop_due(now) {
            done.push(token);
        }
        done
    }

    fn advance_to(&mut self, target: u64, completions: &mut Vec<(u64, u64)>) {
        // One channel catch-up for the whole window (the [`Self::sync_to`]
        // idiom), then drain the ready queue with its visibility stamps —
        // `ready` pops in (cycle, insertion) order, which is exactly the
        // order a per-cycle tick loop would have delivered.
        let mem_due = self.mem_cycle_for(target);
        self.advance(mem_due);
        while let Some((at, token)) = self.ready.pop_due(target) {
            completions.push((at, token));
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        let mut bound = self.completion_bound();
        // Any queued or in-flight DRAM work can free queue space
        // (unblocking Busy submits and writeback retries); bound it by
        // the channel's next possible activity. Pure refresh upkeep on an
        // idle channel is invisible to the CPU and is caught up on the
        // next tick, so it adds no bound here.
        if !self.dram.is_idle() {
            // Decision cycles are the only cycles where a command issues
            // or a completion pops — i.e. the only cycles queue space can
            // free or data can return — so the decision bound is a valid
            // (and much tighter than `now + 1`) wake-up for a busy
            // channel. The one exception mirrors `advance`: a spilled
            // metadata writeback with queue room must retry next cycle.
            let mem_next = if self.pending_md_writes.is_empty()
                || self.dram.write_queue_len() >= self.dram.config().write_queue
            {
                self.dram.next_decision_cycle()
            } else {
                self.dram.cycle() + 1
            };
            bound = bound.min(self.cpu_cycle_for(mem_next));
        }
        if bound == u64::MAX {
            None
        } else {
            Some(bound.max(now + 1))
        }
    }

    fn next_completion_event(&self, now: u64) -> Option<u64> {
        let bound = self.completion_bound();
        if bound == u64::MAX {
            None
        } else {
            Some(bound.max(now + 1))
        }
    }

    fn next_read_capacity_event(&self, now: u64, _addr: u64) -> Option<u64> {
        // Read-queue capacity frees exactly when a READ column command
        // issues, which happens only on a decision cycle, so the
        // channel's decision bound is the wake-up; completions stay
        // observable through the same bound. A single channel serves
        // every address, so `_addr` is unused.
        let mut bound = self.completion_bound();
        if self.dram.read_queue_len() > 0 {
            bound = bound.min(self.cpu_cycle_for(self.dram.next_read_issue_cycle()));
        } else {
            // Capacity is already available; retry immediately.
            bound = bound.min(now + 1);
        }
        if bound == u64::MAX {
            None
        } else {
            Some(bound.max(now + 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CPU_MHZ: u32 = 3200;

    fn drive_to_completion(engine: &mut SecurityEngine, token: u64, start: u64) -> u64 {
        for now in start..start + 100_000 {
            if engine.tick(now).contains(&token) {
                return now;
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn tdx_read_completes_with_crypto_latency() {
        let mut e = SecurityEngine::new(SecurityConfig::tdx_baseline(), CPU_MHZ);
        let t = e.submit(AccessKind::Read, 0x4000, 100, false).unwrap();
        let done = drive_to_completion(&mut e, t, 101);
        // ~ (1 + tRCD + tCL + burst) * 2 cpu-per-mem + 40 crypto.
        let dram_cycles = 1 + 22 + 22 + 4;
        assert!(done >= 100 + dram_cycles * 2 + 40, "done {done}");
        assert!(done < 100 + dram_cycles * 2 + 40 + 30, "done {done}");
        assert_eq!(e.stats().data_reads, 1);
        assert_eq!(e.stats().leaf_fetches, 0, "TDX has no metadata traffic");
    }

    #[test]
    fn encrypt_only_ctr_fetches_counter_once() {
        let mut e = SecurityEngine::new(SecurityConfig::encrypt_only_ctr(), CPU_MHZ);
        let t = e.submit(AccessKind::Read, 0x4000, 100, false).unwrap();
        drive_to_completion(&mut e, t, 101);
        assert_eq!(e.stats().leaf_fetches, 1);
        // Second read under the same counter line: cached.
        let t2 = e.submit(AccessKind::Read, 0x4040, 5_000, false).unwrap();
        drive_to_completion(&mut e, t2, 5_001);
        assert_eq!(e.stats().leaf_fetches, 1);
        assert_eq!(e.stats().metadata_cache.hits, 1);
    }

    #[test]
    fn counter_hit_read_is_faster_than_xts_read() {
        // Warm the counter, then compare one read's latency against the
        // encrypt-only XTS engine (which always pays the AES latency).
        let mut ctr = SecurityEngine::new(SecurityConfig::encrypt_only_ctr(), CPU_MHZ);
        let w = ctr.submit(AccessKind::Read, 0x4000, 100, false).unwrap();
        drive_to_completion(&mut ctr, w, 101);
        let t = ctr.submit(AccessKind::Read, 0x4040, 10_000, false).unwrap();
        let ctr_done = drive_to_completion(&mut ctr, t, 10_001) - 10_000;

        let mut xts = SecurityEngine::new(SecurityConfig::encrypt_only_xts(), CPU_MHZ);
        let w = xts.submit(AccessKind::Read, 0x4000, 100, false).unwrap();
        drive_to_completion(&mut xts, w, 101);
        let t = xts.submit(AccessKind::Read, 0x4040, 10_000, false).unwrap();
        let xts_done = drive_to_completion(&mut xts, t, 10_001) - 10_000;

        assert!(
            ctr_done + CRYPTO_LATENCY <= xts_done + 10,
            "ctr hit {ctr_done} vs xts {xts_done}"
        );
    }

    #[test]
    fn tree_cold_read_walks_all_levels() {
        let mut e = SecurityEngine::new(SecurityConfig::tree_64ary(), CPU_MHZ);
        let t = e.submit(AccessKind::Read, 0x4000, 100, false).unwrap();
        drive_to_completion(&mut e, t, 101);
        let s = e.stats();
        assert_eq!(s.leaf_fetches, 1, "counter line");
        assert_eq!(s.tree_fetches, 3, "all three off-chip levels cold");
    }

    #[test]
    fn tree_walk_stops_at_cached_ancestor() {
        let mut e = SecurityEngine::new(SecurityConfig::tree_64ary(), CPU_MHZ);
        let t = e.submit(AccessKind::Read, 0x4000, 100, false).unwrap();
        drive_to_completion(&mut e, t, 101);
        // A line in the same 4 KB page: same counter line, whole path
        // cached — no new metadata fetches at all.
        let t2 = e.submit(AccessKind::Read, 0x4080, 10_000, false).unwrap();
        drive_to_completion(&mut e, t2, 10_001);
        let s = e.stats();
        assert_eq!(s.leaf_fetches, 1, "counter line cached");
        assert_eq!(s.tree_fetches, 3, "no further tree fetches");
    }

    #[test]
    fn tree_read_is_slower_than_secddr_read_when_cold() {
        let lat = |cfg: SecurityConfig| -> u64 {
            let mut e = SecurityEngine::new(cfg, CPU_MHZ);
            let t = e.submit(AccessKind::Read, 0x123_4000, 100, false).unwrap();
            drive_to_completion(&mut e, t, 101) - 100
        };
        let tree = lat(SecurityConfig::tree_64ary());
        let secddr = lat(SecurityConfig::secddr_ctr());
        assert!(tree > secddr, "tree {tree} vs secddr {secddr}");
    }

    #[test]
    fn invisimem_adds_double_mac_latency() {
        let lat = |cfg: SecurityConfig| -> u64 {
            let mut e = SecurityEngine::new(cfg, CPU_MHZ);
            let t = e.submit(AccessKind::Read, 0x4000, 100, false).unwrap();
            drive_to_completion(&mut e, t, 101) - 100
        };
        let tdx = lat(SecurityConfig::tdx_baseline());
        let inv = lat(SecurityConfig::invisimem_unrealistic(EncMode::Xts));
        assert_eq!(inv, tdx + CRYPTO_LATENCY, "one extra MAC on the path");
        let real = lat(SecurityConfig::invisimem_realistic(EncMode::Xts));
        assert!(real > inv, "derated channel is slower: {real} vs {inv}");
    }

    #[test]
    fn writes_dirty_counter_lines_and_cause_writebacks() {
        let mut e = SecurityEngine::new(SecurityConfig::secddr_ctr(), CPU_MHZ);
        // Touch many distinct counter lines with writes: 128KB cache / 64B
        // = 2048 lines; go well past that.
        let mut now = 100u64;
        for i in 0..6_000u64 {
            // Stride of one counter line (64 data lines).
            let addr = i * 64 * 64;
            loop {
                match e.submit(AccessKind::Write, addr, now, false) {
                    Ok(_) => break,
                    Err(Busy) => {
                        now += 50;
                        e.tick(now);
                    }
                }
            }
            now += 20;
            e.tick(now);
        }
        for _ in 0..10_000 {
            now += 10;
            e.tick(now);
        }
        let s = e.stats();
        // 6000 distinct counter lines against a 2048-line metadata cache:
        // nearly every write misses (some fetches are elided under queue
        // saturation, so compare cache misses, and require substantial
        // real fetch + writeback traffic).
        assert!(
            s.metadata_cache.misses > 4_000,
            "write misses: {:?}",
            s.metadata_cache
        );
        assert!(
            s.leaf_fetches > 500,
            "fetch-on-write-miss: {}",
            s.leaf_fetches
        );
        assert!(
            s.metadata_writebacks > 1_000,
            "dirty evictions: {}",
            s.metadata_writebacks
        );
    }

    #[test]
    fn read_queue_backpressure_reports_busy() {
        let mut e = SecurityEngine::new(SecurityConfig::tdx_baseline(), CPU_MHZ);
        let mut busy_seen = false;
        for i in 0..200u64 {
            match e.submit(AccessKind::Read, i * 0x40000, 10, false) {
                Ok(_) => {}
                Err(Busy) => {
                    busy_seen = true;
                    break;
                }
            }
        }
        assert!(busy_seen, "queue must eventually fill without ticking");
    }

    #[test]
    fn force_bl8_restores_stock_write_bursts() {
        let e = SecurityEngine::with_options(
            SecurityConfig::secddr_xts(),
            CPU_MHZ,
            EngineOptions {
                force_bl8: true,
                ..Default::default()
            },
        );
        assert_eq!(e.dram.config().write_burst_cycles, 4);
        assert_eq!(e.dram.config().write_extra_cycles, 0);
        let stock = SecurityEngine::new(SecurityConfig::secddr_xts(), CPU_MHZ);
        assert_eq!(stock.dram.config().write_burst_cycles, 5);
    }

    #[test]
    fn metadata_cache_size_option_is_applied() {
        let e = SecurityEngine::with_options(
            SecurityConfig::tree_64ary(),
            CPU_MHZ,
            EngineOptions {
                metadata_cache_bytes: 32 << 10,
                ..Default::default()
            },
        );
        assert_eq!(e.md_cache.config().size_bytes, 32 << 10);
    }

    #[test]
    fn serial_tree_fetch_slows_cold_reads() {
        let lat = |serial: bool| -> u64 {
            let mut e = SecurityEngine::with_options(
                SecurityConfig::tree_64ary(),
                CPU_MHZ,
                EngineOptions {
                    serial_tree_fetch: serial,
                    ..Default::default()
                },
            );
            let t = e.submit(AccessKind::Read, 0x55_5000, 100, false).unwrap();
            drive_to_completion(&mut e, t, 101) - 100
        };
        let parallel = lat(false);
        let serial = lat(true);
        assert!(
            serial > parallel + 80,
            "cold walk has >=2 missing levels: serial {serial} vs parallel {parallel}"
        );
    }

    #[test]
    fn eight_ary_hash_tree_generates_most_traffic() {
        let traffic = |cfg: SecurityConfig| -> u64 {
            let mut e = SecurityEngine::new(cfg, CPU_MHZ);
            let mut now = 100u64;
            for i in 0..200u64 {
                let addr = (i * 0x100_0000) % DATA_SPAN;
                loop {
                    match e.submit(AccessKind::Read, addr, now, false) {
                        Ok(_) => break,
                        Err(Busy) => {
                            now += 50;
                            e.tick(now);
                        }
                    }
                }
                now += 100;
                e.tick(now);
            }
            for _ in 0..1000 {
                now += 100;
                e.tick(now);
            }
            let s = e.stats();
            s.leaf_fetches + s.tree_fetches
        };
        let t8 = traffic(SecurityConfig::tree_8ary_hash());
        let t64 = traffic(SecurityConfig::tree_64ary());
        let secddr = traffic(SecurityConfig::secddr_xts());
        assert!(t8 > t64, "8-ary {t8} vs 64-ary {t64}");
        assert_eq!(secddr, 0, "SecDDR+XTS has no metadata traffic");
    }
}
