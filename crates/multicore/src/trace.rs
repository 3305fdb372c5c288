//! Shared rate-mode traces and the per-core address disambiguator.
//!
//! The paper evaluates SecDDR in 4-core *rate* mode: every core runs the
//! same benchmark on its own copy of the data. Reproducing that must not
//! cost N trace generations (or N deep clones): [`CoreTrace`] iterates a
//! reference-counted trace shared by all cores and rewrites addresses on
//! the fly through an [`AddressSpace`], which folds each core's accesses
//! into a disjoint window of the backend's data span.

use std::sync::Arc;

use cpu_model::TraceOp;

/// Line size the address windows are aligned to.
const LINE_BYTES: u64 = 64;

/// Per-core address disambiguator: splits a backend data span of
/// `span` bytes into one line-aligned window per core and relocates each
/// core's accesses into its own window (`addr % window + core * window`).
///
/// Folding by `window` preserves a trace's internal structure as long as
/// its regions stay pairwise distinct modulo the window — true for every
/// bundled workload down to 2.5 GiB windows (the SecDDR 10 GiB data span
/// split four ways). The windows are what make rate mode honest: N
/// copies of one trace would otherwise alias in the shared LLC and the
/// engine's metadata, constructively interfering in a way N real
/// processes never could.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    window: u64,
}

impl AddressSpace {
    /// One window per core over a data span of `span` bytes.
    ///
    /// # Panics
    ///
    /// Panics when `cores` is zero or the per-core window rounds below
    /// one cache line.
    #[must_use]
    pub fn windows(span: u64, cores: usize) -> Self {
        assert!(cores >= 1, "at least one core is required");
        let window = (span / cores as u64) & !(LINE_BYTES - 1);
        assert!(
            window >= LINE_BYTES,
            "span {span:#x} too small for {cores} per-core windows"
        );
        Self { window }
    }

    /// The identity disambiguator: every core sees trace addresses
    /// unchanged (cores deliberately share data).
    #[must_use]
    pub fn identity() -> Self {
        Self { window: 0 }
    }

    /// Bytes of address space each core owns (zero for
    /// [`Self::identity`]).
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Relocates `addr` into `core`'s window.
    #[must_use]
    pub fn remap(&self, core: usize, addr: u64) -> u64 {
        if self.window == 0 {
            return addr;
        }
        addr % self.window + core as u64 * self.window
    }

    fn remap_op(&self, core: usize, op: TraceOp) -> TraceOp {
        match op {
            TraceOp::Compute(n) => TraceOp::Compute(n),
            TraceOp::Load(a) => TraceOp::Load(self.remap(core, a)),
            TraceOp::DependentLoad(a) => TraceOp::DependentLoad(self.remap(core, a)),
            TraceOp::Store(a) => TraceOp::Store(self.remap(core, a)),
        }
    }
}

/// One core's view of a shared trace: an iterator over an
/// `Arc<Vec<TraceOp>>` that applies the core's [`AddressSpace`] window
/// to every memory operand. Cloning the iterator (or building N of them
/// with [`CoreTrace::rate`]) shares the underlying trace allocation.
#[derive(Debug, Clone)]
pub struct CoreTrace {
    trace: Arc<Vec<TraceOp>>,
    pos: usize,
    core: usize,
    space: AddressSpace,
}

impl CoreTrace {
    /// `core`'s iterator over `trace` under `space`.
    #[must_use]
    pub fn new(trace: Arc<Vec<TraceOp>>, core: usize, space: AddressSpace) -> Self {
        Self {
            trace,
            pos: 0,
            core,
            space,
        }
    }

    /// Rate mode: `cores` iterators over one shared trace, each
    /// relocated into its own window of `span` bytes. The trace is
    /// shared by reference count — N-core sweeps never regenerate or
    /// deep-clone it.
    #[must_use]
    pub fn rate(trace: &Arc<Vec<TraceOp>>, span: u64, cores: usize) -> Vec<Self> {
        let space = AddressSpace::windows(span, cores);
        (0..cores)
            .map(|core| Self::new(Arc::clone(trace), core, space))
            .collect()
    }

    /// Heterogeneous mix: one (shared) trace per core, each still
    /// relocated into its own window so distinct benchmarks cannot
    /// accidentally alias in the shared LLC or the engine metadata.
    #[must_use]
    pub fn mix(traces: Vec<Arc<Vec<TraceOp>>>, span: u64) -> Vec<Self> {
        let space = AddressSpace::windows(span, traces.len());
        traces
            .into_iter()
            .enumerate()
            .map(|(core, trace)| Self::new(trace, core, space))
            .collect()
    }
}

impl Iterator for CoreTrace {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        let op = *self.trace.get(self.pos)?;
        self.pos += 1;
        Some(self.space.remap_op(self.core, op))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.len() - self.pos;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_model::{Advance, CpuConfig, FixedLatencyBackend, MultiCoreSystem};

    #[test]
    fn windows_are_disjoint_and_line_aligned() {
        let space = AddressSpace::windows(10 << 30, 4);
        assert_eq!(space.window() % LINE_BYTES, 0);
        for core in 0..4usize {
            let lo = space.remap(core, 0);
            let hi = space.remap(core, space.window() - 1);
            assert_eq!(lo, core as u64 * space.window());
            assert_eq!(hi, lo + space.window() - 1);
        }
        // Same trace address lands in different windows per core.
        let a = 0x2_0000_0040;
        let per_core: Vec<u64> = (0..4).map(|c| space.remap(c, a)).collect();
        for (i, x) in per_core.iter().enumerate() {
            for y in &per_core[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn remap_preserves_line_offsets() {
        let space = AddressSpace::windows(1 << 32, 4);
        for addr in [0u64, 17, 0x1000_0063, 0xDEAD_BEEF] {
            assert_eq!(space.remap(2, addr) % LINE_BYTES, addr % LINE_BYTES);
        }
    }

    #[test]
    fn identity_space_is_a_no_op() {
        let space = AddressSpace::identity();
        assert_eq!(space.remap(3, 0xABC0), 0xABC0);
    }

    #[test]
    fn one_window_covering_the_trace_is_identity() {
        // Every bundled trace address is below the span, so a single
        // rate-mode core sees the raw trace.
        let space = AddressSpace::windows(1 << 40, 1);
        assert_eq!(space.remap(0, 0x2_8000_0000 - 64), 0x2_8000_0000 - 64);
    }

    #[test]
    fn rate_shares_one_allocation() {
        let trace = Arc::new(vec![TraceOp::Load(0x40), TraceOp::Compute(3)]);
        let cores = CoreTrace::rate(&trace, 1 << 32, 4);
        assert_eq!(cores.len(), 4);
        for c in &cores {
            assert!(Arc::ptr_eq(&c.trace, &trace), "no deep clone");
        }
    }

    #[test]
    fn iterator_remaps_memory_ops_only() {
        let trace = Arc::new(vec![
            TraceOp::Compute(7),
            TraceOp::Load(0x40),
            TraceOp::DependentLoad(0x80),
            TraceOp::Store(0xC0),
        ]);
        let space = AddressSpace::windows(1 << 20, 2);
        let ops: Vec<TraceOp> = CoreTrace::new(Arc::clone(&trace), 1, space).collect();
        let w = space.window();
        assert_eq!(
            ops,
            vec![
                TraceOp::Compute(7),
                TraceOp::Load(0x40 + w),
                TraceOp::DependentLoad(0x80 + w),
                TraceOp::Store(0xC0 + w),
            ]
        );
    }

    fn mixed_trace(seed: u64, len: u64) -> Vec<TraceOp> {
        (0..len)
            .map(|i| {
                let x = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
                match x % 5 {
                    0 => TraceOp::Compute((x % 40) as u32 + 1),
                    1 => TraceOp::Load((x << 3) & 0xFFF_FFC0),
                    2 => TraceOp::DependentLoad((x << 4) & 0xFFF_FFC0),
                    3 => TraceOp::Store((x << 3) & 0xFFF_FFC0),
                    _ => TraceOp::Load((x % 2048) * 64),
                }
            })
            .collect()
    }

    fn cfg(advance: Advance) -> CpuConfig {
        CpuConfig {
            advance,
            ..CpuConfig::default()
        }
    }

    #[test]
    fn rate_mode_retires_every_copy() {
        let trace = Arc::new(mixed_trace(3, 2_000));
        let per_copy: u64 = trace.iter().map(TraceOp::instructions).sum();
        let mut sys =
            MultiCoreSystem::new(4, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(200));
        let result = sys.run(CoreTrace::rate(&trace, 1 << 32, 4));
        assert_eq!(result.per_core.len(), 4);
        for r in &result.per_core {
            assert_eq!(r.instructions, per_copy);
        }
        assert_eq!(result.merged().instructions, 4 * per_copy);
        assert_eq!(
            result.merged().cycles,
            result.per_core.iter().map(|r| r.cycles).max().unwrap()
        );
    }

    #[test]
    fn heterogeneous_mix_produces_per_core_results() {
        let a = Arc::new(mixed_trace(1, 1_500));
        let b = Arc::new((0..500).map(|_| TraceOp::Compute(50)).collect::<Vec<_>>());
        let mut sys =
            MultiCoreSystem::new(2, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(220));
        let result = sys.run(CoreTrace::mix(
            vec![Arc::clone(&a), Arc::clone(&b)],
            1 << 32,
        ));
        let ia: u64 = a.iter().map(TraceOp::instructions).sum();
        let ib: u64 = b.iter().map(TraceOp::instructions).sum();
        assert_eq!(result.per_core[0].instructions, ia);
        assert_eq!(result.per_core[1].instructions, ib);
        assert!(result.per_core[1].ipc() > result.per_core[0].ipc());
    }

    #[test]
    fn identity_address_space_shares_lines_across_cores() {
        // Core 0 fetches a line; core 1 touches the same trace address
        // much later (after a long compute ramp). With the identity
        // disambiguator core 1 hits the line core 0 installed in the
        // shared LLC; with per-core windows the addresses are disjoint
        // and both cores miss.
        let early = Arc::new(vec![TraceOp::Load(0x40_0000)]);
        let late = Arc::new(vec![TraceOp::Compute(6_000), TraceOp::Load(0x40_0000)]);
        let misses_with = |space: AddressSpace| {
            let mut sys =
                MultiCoreSystem::new(2, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(100));
            let traces = vec![
                CoreTrace::new(Arc::clone(&early), 0, space),
                CoreTrace::new(Arc::clone(&late), 1, space),
            ];
            sys.run(traces).merged().llc.misses
        };
        assert_eq!(misses_with(AddressSpace::identity()), 1);
        assert_eq!(misses_with(AddressSpace::windows(1 << 32, 2)), 2);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = AddressSpace::windows(1 << 30, 0);
    }
}
