//! LRU inclusion oracle for `cpu_model::Cache`.
//!
//! `Cache` is true LRU, so at a fixed set count a cache with more ways
//! holds a superset of the lines a smaller one holds, and never misses
//! more on the same demand stream (the stack property of Mattson,
//! Gecsei, Slutz & Traiger, IBM Systems Journal 1970). The reference
//! below shares no code with `Cache`: it keeps one recency stack per set
//! and records each access's stack distance, which yields the miss total
//! of every way count in one pass. The properties drive `Cache` the way
//! the cores do on a demand stream (access, fill on every miss, no
//! prefetch fills) at 1–16 ways, over random and looping line streams,
//! at the metadata cache's and the LLC's set counts and at two tiny ones.

use proptest::prelude::*;
use secddr::cpu::{Cache, CacheConfig};

const LINE_BYTES: u64 = 64;
const MAX_WAYS: usize = 16;

/// Set counts under test: one set, a tiny cache, the Table I metadata
/// cache (128 KB / 64 B / 8 ways) and the Table I LLC (4 MB / 64 B / 16
/// ways).
const SET_COUNTS: [u64; 4] = [1, 4, 256, 4096];

/// The four sets a stream touches, for a set count: the first, second
/// and last set, and one from the middle.
fn hot_sets(sets: u64) -> [u64; 4] {
    [0, 1 % sets, sets / 2, sets - 1]
}

/// Naive stack-distance reference: `misses[w]` is the miss total of a
/// `w`-way LRU cache with `sets` sets on `lines`, for every `w` in
/// `1..=MAX_WAYS` (index 0 is unused).
fn reference_misses(sets: u64, lines: &[u64]) -> [u64; MAX_WAYS + 1] {
    let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
    let mut misses = [0u64; MAX_WAYS + 1];
    for &line in lines {
        let stack = &mut stacks[(line % sets) as usize];
        // Depth from the most recent end; a first touch is infinitely deep.
        let distance = match stack.iter().rev().position(|&l| l == line) {
            Some(depth) => {
                stack.remove(stack.len() - 1 - depth);
                depth
            }
            None => usize::MAX,
        };
        stack.push(line);
        for (ways, total) in misses.iter_mut().enumerate().skip(1) {
            if distance >= ways {
                *total += 1;
            }
        }
    }
    misses
}

/// Demand misses of a `ways`-way `Cache` with `sets` sets on `lines`:
/// access each line and fill it on a miss.
fn cache_misses(sets: u64, ways: u32, lines: &[u64], writes: &[bool]) -> u64 {
    let mut cache = Cache::new(CacheConfig {
        size_bytes: sets * u64::from(ways) * LINE_BYTES,
        line_bytes: LINE_BYTES as u32,
        ways,
    });
    for (&line, &is_write) in lines.iter().zip(writes.iter().cycle()) {
        let addr = line * LINE_BYTES;
        if !cache.access(addr, is_write) {
            cache.fill(addr, is_write);
        }
    }
    cache.stats().misses
}

/// Checks `Cache` against the reference at every way count, and the
/// inclusion property itself on `Cache`'s own totals.
fn assert_matches_reference(sets: u64, lines: &[u64], writes: &[bool]) {
    let want = reference_misses(sets, lines);
    let mut previous = u64::MAX;
    for (ways, &expected) in want.iter().enumerate().skip(1) {
        let got = cache_misses(sets, ways as u32, lines, writes);
        assert_eq!(
            got, expected,
            "{sets} sets, {ways} ways: Cache misses differ from the stack-distance reference"
        );
        assert!(
            got <= previous,
            "{sets} sets: {ways} ways miss {got} times, {} ways {previous}",
            ways - 1
        );
        previous = got;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random lines over four sets with up to 24 tags each, so every way
    /// count from direct-mapped to 16-way sees both hits and conflicts.
    #[test]
    fn random_streams_match_the_stack_distance_reference(
        sets in 0usize..SET_COUNTS.len(),
        tags in 1u64..=24,
        picks in collection::vec((0usize..4, 0u64..1024), 1..1500),
        writes in collection::vec(any::<bool>(), 1..64),
    ) {
        let sets = SET_COUNTS[sets];
        let hot = hot_sets(sets);
        let lines: Vec<u64> = picks
            .iter()
            .map(|&(set, tag)| (tag % tags) * sets + hot[set])
            .collect();
        assert_matches_reference(sets, &lines, &writes);
    }

    /// A loop over a working set of lines, repeated: LRU hits every
    /// access after the first pass when a set's share of the loop fits
    /// its ways, and misses every access when it does not.
    #[test]
    fn looping_streams_match_the_stack_distance_reference(
        sets in 0usize..SET_COUNTS.len(),
        spread in 1usize..=4,
        working_set in 1u64..=40,
        passes in 1usize..=12,
        writes in collection::vec(any::<bool>(), 1..64),
    ) {
        let sets = SET_COUNTS[sets];
        let hot = hot_sets(sets);
        let one_pass: Vec<u64> = (0..working_set)
            .map(|i| (i / spread as u64) * sets + hot[i as usize % spread])
            .collect();
        let lines: Vec<u64> = one_pass.iter().copied().cycle().take(one_pass.len() * passes).collect();
        assert_matches_reference(sets, &lines, &writes);
    }
}

/// The reference itself on a hand-checked stream: one set, lines
/// A B C A B D A. Stack distances: ∞ ∞ ∞ 2 2 ∞ 2.
#[test]
fn reference_counts_a_hand_checked_stream() {
    let misses = reference_misses(1, &[0, 1, 2, 0, 1, 3, 0]);
    assert_eq!(misses[1], 7, "direct-mapped misses everything");
    assert_eq!(misses[2], 7, "distance 2 misses at 2 ways");
    assert_eq!(misses[3], 4, "distance 2 hits at 3 ways");
    assert_eq!(misses[16], 4, "only the four first touches miss");
}
