//! Synthetic graphs in CSR form for the GAPBS kernels.
//!
//! The GAP Benchmark Suite runs on Kronecker/uniform synthetic graphs; we
//! generate a power-law-ish graph with a deterministic RNG so traces are
//! reproducible. The CSR arrays are also given *memory layout* base
//! addresses, because the kernels emit the address stream of their real
//! data-structure accesses.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A directed graph in compressed-sparse-row form.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// Per-vertex offsets into `neighbors` (len = vertices + 1).
    pub offsets: Vec<u32>,
    /// Flattened adjacency lists.
    pub neighbors: Vec<u32>,
}

/// `(vertices, avg_degree, seed)` — the full generation-parameter key of
/// a memoized graph.
type GraphKey = (u32, u32, u64);

/// Process-wide memo of generated graphs keyed by their full generation
/// parameters. Sweeps re-request the same graph for every benchmark ×
/// configuration × advance-policy pass; regeneration (~0.25 s at the
/// default 2^21-vertex scale on a 2-vCPU Xeon host, release build) is
/// pure repeated work, while the CSR arrays themselves are immutable and
/// safely shared.
fn graph_cache() -> &'static Mutex<HashMap<GraphKey, Arc<CsrGraph>>> {
    static CACHE: OnceLock<Mutex<HashMap<GraphKey, Arc<CsrGraph>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Base virtual addresses of the graph data structures in the simulated
/// address space (distinct regions so streams do not alias).
#[derive(Debug, Clone, Copy)]
pub struct GraphLayout {
    /// Base of the offsets array (4 B elements).
    pub offsets_base: u64,
    /// Base of the neighbors array (4 B elements).
    pub neighbors_base: u64,
    /// Base of the first per-vertex property array (8 B elements).
    pub prop_a_base: u64,
    /// Base of the second per-vertex property array (8 B elements).
    pub prop_b_base: u64,
    /// Base of the worklist/frontier region (4 B elements).
    pub frontier_base: u64,
}

impl Default for GraphLayout {
    fn default() -> Self {
        Self {
            offsets_base: 0x1000_0000,
            neighbors_base: 0x4000_0000,
            prop_a_base: 0x8000_0000,
            prop_b_base: 0xA000_0000,
            frontier_base: 0xC000_0000,
        }
    }
}

impl CsrGraph {
    /// As [`Self::synthetic`], memoized per `(vertices, avg_degree,
    /// seed)`: the first request generates and caches the graph, every
    /// later request for the same parameters shares it. Use this from
    /// sweeps so repeated trace generation stops rebuilding identical
    /// graphs.
    pub fn shared(vertices: u32, avg_degree: u32, seed: u64) -> Arc<CsrGraph> {
        let key: GraphKey = (vertices, avg_degree, seed);
        if let Some(g) = graph_cache().lock().expect("graph cache").get(&key) {
            return Arc::clone(g);
        }
        // Generate outside the lock: graph construction is expensive and
        // other keys' lookups should not serialize behind it. A racing
        // generation of the same key is deterministic, so whichever insert
        // lands first wins and the duplicate is dropped.
        let generated = Arc::new(Self::synthetic(vertices, avg_degree, seed));
        let mut cache = graph_cache().lock().expect("graph cache");
        Arc::clone(cache.entry(key).or_insert(generated))
    }

    /// Generates a graph with `vertices` vertices and average degree
    /// `avg_degree`, with a skewed (power-law-ish) degree distribution.
    ///
    /// One seeded stream of skewed vertex draws defines the graph: the first
    /// `vertices × avg_degree` draws are edge sources (each adds one to
    /// its vertex's degree), and the next as many are the destinations in
    /// order, so `neighbors[i]` before sorting is destination draw `i`.
    /// The degrees only place the list boundaries. That is why the build
    /// can overlap the two passes: a helper thread replays the source
    /// draws uncounted and collects the destinations, while the caller
    /// counts the degrees into `offsets`. Each list is then sorted, and a
    /// sorted list is the same whichever thread sorted it, so the graph
    /// does not depend on how the work split between the two threads.
    pub fn synthetic(vertices: u32, avg_degree: u32, seed: u64) -> Self {
        assert!(vertices >= 2, "graph needs at least two vertices");
        let total_edges = u32::try_from(u64::from(vertices) * u64::from(avg_degree))
            .expect("edge count fits the u32 offsets");
        // Skewed degree assignment: 30% of the draws go to the first
        // sqrt-sized hub set, the rest uniformly.
        let hubs = (f64::from(vertices).sqrt() as u32).max(1);
        let rng = SmallRng::seed_from_u64(seed);
        let mut offsets = vec![0u32; vertices as usize + 1];
        let mut neighbors = std::thread::scope(|s| {
            let mut destination_rng = rng.clone();
            let destinations = s.spawn(move || {
                for _ in 0..total_edges {
                    skewed_draw(&mut destination_rng, hubs, vertices);
                }
                (0..total_edges)
                    .map(|_| skewed_draw(&mut destination_rng, hubs, vertices))
                    .collect::<Vec<u32>>()
            });
            // Draw a batch, then count it: the counts scatter over the
            // whole of `offsets` (8 MB at the default scale), and a run of
            // independent increments lets their cache misses overlap
            // instead of queueing behind the draws.
            let mut source_rng = rng;
            const BATCH: u32 = 64;
            let mut batch = [0u32; BATCH as usize];
            for start in (0..total_edges).step_by(BATCH as usize) {
                let batch = &mut batch[..(total_edges - start).min(BATCH) as usize];
                for u in batch.iter_mut() {
                    *u = skewed_draw(&mut source_rng, hubs, vertices);
                }
                for &u in batch.iter() {
                    offsets[u as usize + 1] += 1;
                }
            }
            for u in 1..offsets.len() {
                offsets[u] += offsets[u - 1];
            }
            destinations.join().expect("destination draws")
        });
        // Sort each adjacency list (GAPBS graphs are sorted; also needed
        // for triangle counting's merge intersections).
        sort_lists(&offsets, &mut neighbors);
        Self { offsets, neighbors }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    pub fn edges(&self) -> u64 {
        self.neighbors.len() as u64
    }

    /// The adjacency list of `u`.
    pub fn neighbors_of(&self, u: u32) -> &[u32] {
        let s = self.offsets[u as usize] as usize;
        let e = self.offsets[u as usize + 1] as usize;
        &self.neighbors[s..e]
    }
}

/// One skewed vertex draw: with probability 0.3 one of the first `hubs`
/// vertices, else any of `vertices`, each uniformly.
fn skewed_draw(rng: &mut SmallRng, hubs: u32, vertices: u32) -> u32 {
    let span = if rng.gen_bool(0.3) { hubs } else { vertices };
    rng.gen_range(0..span)
}

/// Edges per sort block. Blocks are cut at list boundaries, so a block
/// holds whole lists: at least this many edges, or one longer list, or
/// the remainder.
const SORT_BLOCK_EDGES: u32 = 1 << 16;

/// Sorts every adjacency list of `neighbors` (delimited by `offsets`) on
/// two threads. The hubs' long lists sit at the front and cost the most
/// per edge, so both threads take blocks from one shared queue instead of
/// splitting the edges in halves.
fn sort_lists(offsets: &[u32], neighbors: &mut [u32]) {
    // Every entry is a vertex id, below the vertex count.
    let vertices = offsets.len() as u32 - 1;
    let key_bits = u32::BITS - (vertices - 1).leading_zeros();
    let blocks = Mutex::new(SortBlocks {
        bounds: offsets,
        rest: neighbors,
    });
    let work = || {
        let mut scratch = Vec::new();
        loop {
            // A statement of its own, so the lock is released before the
            // sort (a `while let` would hold the guard through the body).
            let next = blocks.lock().expect("sort blocks").next();
            let Some((bounds, lists)) = next else {
                break;
            };
            let base = bounds[0];
            for w in bounds.windows(2) {
                let list = &mut lists[(w[0] - base) as usize..(w[1] - base) as usize];
                if list.len() >= RADIX_MIN_LEN {
                    radix_sort(list, key_bits, &mut scratch);
                } else {
                    list.sort_unstable();
                }
            }
        }
    };
    std::thread::scope(|s| {
        s.spawn(work);
        work();
    });
}

/// Lists at least this long are radix sorted; at the default scale that
/// is only the hubs' lists, which hold ~30% of the edges.
const RADIX_MIN_LEN: usize = 512;

/// Bits per radix digit: 2^21-vertex ids sort in two passes.
const DIGIT_BITS: u32 = 11;

/// LSD radix sort of `list`, whose entries are all below `1 << key_bits`.
/// `scratch` is a reusable buffer of the list's length.
fn radix_sort(list: &mut [u32], key_bits: u32, scratch: &mut Vec<u32>) {
    const DIGITS: usize = 1 << DIGIT_BITS;
    let mask = DIGITS as u32 - 1;
    let passes = key_bits.div_ceil(DIGIT_BITS) as usize;
    let mut starts = [[0u32; DIGITS]; u32::BITS.div_ceil(DIGIT_BITS) as usize];
    for &v in list.iter() {
        for (p, counts) in starts[..passes].iter_mut().enumerate() {
            counts[((v >> (p as u32 * DIGIT_BITS)) & mask) as usize] += 1;
        }
    }
    scratch.clear();
    scratch.resize(list.len(), 0);
    let (mut src, mut dst) = (list, scratch.as_mut_slice());
    for (p, starts) in starts[..passes].iter_mut().enumerate() {
        let mut sum = 0;
        for s in starts.iter_mut() {
            (*s, sum) = (sum, sum + *s);
        }
        for &v in src.iter() {
            let digit = ((v >> (p as u32 * DIGIT_BITS)) & mask) as usize;
            dst[starts[digit] as usize] = v;
            starts[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    // After an odd number of passes the sorted run is in the scratch.
    if passes % 2 == 1 {
        dst.copy_from_slice(src);
    }
}

/// The sort queue: yields `(bounds, lists)` blocks front to back, where
/// `bounds` are the block's list boundaries (global offsets, first to
/// last) and `lists` is that stretch of `neighbors`.
struct SortBlocks<'a> {
    /// List boundaries from the next block's start to the end.
    bounds: &'a [u32],
    /// The not-yet-handed-out tail of `neighbors`.
    rest: &'a mut [u32],
}

impl<'a> Iterator for SortBlocks<'a> {
    type Item = (&'a [u32], &'a mut [u32]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.bounds.len() < 2 {
            return None;
        }
        let start = self.bounds[0];
        // The first boundary a full block past the start, else the end.
        let cut = self
            .bounds
            .partition_point(|&b| b - start < SORT_BLOCK_EDGES)
            .min(self.bounds.len() - 1);
        let bounds = &self.bounds[..=cut];
        self.bounds = &self.bounds[cut..];
        let (lists, rest) =
            std::mem::take(&mut self.rest).split_at_mut((bounds[cut] - start) as usize);
        self.rest = rest;
        Some((bounds, lists))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The single-threaded two-pass build `synthetic` must reproduce bit
    /// for bit: count every source draw's degree, then draw each vertex's
    /// destinations in vertex order, then sort each list.
    fn reference(vertices: u32, avg_degree: u32, seed: u64) -> CsrGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let total_edges = u64::from(vertices) * u64::from(avg_degree);
        let mut degrees = vec![0u32; vertices as usize];
        let hubs = (f64::from(vertices).sqrt() as u32).max(1);
        for _ in 0..total_edges {
            let u = if rng.gen_bool(0.3) {
                rng.gen_range(0..hubs)
            } else {
                rng.gen_range(0..vertices)
            };
            degrees[u as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(vertices as usize + 1);
        offsets.push(0u32);
        for d in &degrees {
            let last = *offsets.last().expect("nonempty");
            offsets.push(last + d);
        }
        let mut neighbors = Vec::with_capacity(total_edges as usize);
        for u in 0..vertices {
            for _ in 0..degrees[u as usize] {
                let v = if rng.gen_bool(0.3) {
                    rng.gen_range(0..hubs)
                } else {
                    rng.gen_range(0..vertices)
                };
                neighbors.push(v);
            }
        }
        for u in 0..vertices as usize {
            let (s, e) = (offsets[u] as usize, offsets[u + 1] as usize);
            neighbors[s..e].sort_unstable();
        }
        CsrGraph { offsets, neighbors }
    }

    fn assert_matches_reference(vertices: u32, avg_degree: u32, seed: u64) {
        let want = reference(vertices, avg_degree, seed);
        let got = CsrGraph::synthetic(vertices, avg_degree, seed);
        assert_eq!(
            got.offsets, want.offsets,
            "offsets ({vertices}, {avg_degree}, {seed})"
        );
        assert_eq!(
            got.neighbors, want.neighbors,
            "neighbors ({vertices}, {avg_degree}, {seed})"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_the_serial_reference(
            vertices in 2u32..4096,
            avg_degree in 0u32..24,
            seed in any::<u64>(),
        ) {
            assert_matches_reference(vertices, avg_degree, seed);
        }
    }

    #[test]
    fn radix_sort_sorts_any_key_width() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut scratch = Vec::new();
        // One pass (odd, copied back), two passes, and three for full
        // 32-bit keys.
        for key_bits in [1, 11, 21, 32] {
            let top = 1u64 << key_bits;
            let mut list: Vec<u32> = (0..3000).map(|_| rng.gen_range(0..top) as u32).collect();
            let mut want = list.clone();
            want.sort_unstable();
            radix_sort(&mut list, key_bits, &mut scratch);
            assert_eq!(list, want, "{key_bits}-bit keys");
        }
    }

    #[test]
    fn matches_the_serial_reference_at_the_edges() {
        // One hub (`hubs == 1`) at two and three vertices.
        assert_matches_reference(2, 5, 1);
        assert_matches_reference(3, 7, 2);
        // No edges at all: every list is empty.
        assert_matches_reference(100, 0, 3);
        // Vertex 0 holds ~65% of the edges, one list longer than a block.
        let g = CsrGraph::synthetic(2, 70_000, 4);
        assert!(g.neighbors_of(0).len() > SORT_BLOCK_EDGES as usize);
        assert_matches_reference(2, 70_000, 4);
    }

    #[test]
    fn generates_requested_size() {
        let g = CsrGraph::synthetic(1000, 8, 42);
        assert_eq!(g.vertices(), 1000);
        assert_eq!(g.edges(), 8000);
        assert_eq!(*g.offsets.last().unwrap() as u64, g.edges());
    }

    #[test]
    fn neighbors_in_range_and_sorted() {
        let g = CsrGraph::synthetic(500, 10, 7);
        for u in 0..g.vertices() {
            let adj = g.neighbors_of(u);
            assert!(adj.windows(2).all(|w| w[0] <= w[1]), "sorted");
            assert!(adj.iter().all(|&v| v < g.vertices()));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = CsrGraph::synthetic(200, 4, 9);
        let b = CsrGraph::synthetic(200, 4, 9);
        assert_eq!(a.neighbors, b.neighbors);
        let c = CsrGraph::synthetic(200, 4, 10);
        assert_ne!(a.neighbors, c.neighbors);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = CsrGraph::synthetic(10_000, 16, 1);
        let max_deg = (0..g.vertices())
            .map(|u| g.neighbors_of(u).len())
            .max()
            .unwrap();
        assert!(max_deg > 16 * 5, "hubs should be much hotter than average");
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;

    #[test]
    fn shared_memoizes_per_parameters() {
        let a = CsrGraph::shared(300, 4, 11);
        let b = CsrGraph::shared(300, 4, 11);
        assert!(Arc::ptr_eq(&a, &b), "same parameters share one graph");
        let c = CsrGraph::shared(300, 4, 12);
        assert!(!Arc::ptr_eq(&a, &c), "different seed is a different entry");
        let d = CsrGraph::shared(301, 4, 11);
        assert!(!Arc::ptr_eq(&a, &d), "different size is a different entry");
        assert_eq!(a.neighbors, CsrGraph::synthetic(300, 4, 11).neighbors);
    }

    #[test]
    fn shared_is_thread_safe() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| CsrGraph::shared(500, 6, 77)))
            .collect();
        let graphs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for g in &graphs[1..] {
            assert!(Arc::ptr_eq(&graphs[0], g));
        }
    }
}
