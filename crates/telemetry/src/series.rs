//! Sim-time windowed series: per-epoch vectors of the same counters the
//! aggregate [`TelemetrySnapshot`] reports, so attribution becomes
//! *time-resolved* — when aging sets in, which channel runs hot, whether
//! queue pressure is a phase or a steady state.
//!
//! An **epoch** is a fixed window of simulation cycles
//! (`[e * width, (e + 1) * width)` for epoch index `e`). Layers keep
//! plain cumulative `u64`s and render them into a [`TelemetrySnapshot`];
//! a [`CounterSeries`] closes epochs lazily on clock advance, crediting
//! each counter's change since the last close to the epoch that was open
//! while it accumulated. Spans skipped wholesale across a window boundary
//! (event-driven `advance_to` jumps) are credited to the window they
//! *land* in — deterministic, no wall-clock anywhere.
//!
//! Rows use the aggregate counter names where one exists
//! (`dram.decision.issue_hit`, `multicore.wake.timer`, …), which is what
//! makes [`SeriesSnapshot::reconciles_with`] exact: summing a named row
//! over every epoch must reproduce the aggregate counter bit-for-bit.
//! Heatmap rows extend the scheme with a position segment:
//! `dram.bank07.issues`, `dram.ch02.bank07.issues`,
//! `multicore.core03.retired`.

use std::collections::BTreeMap;

use crate::snapshot::TelemetrySnapshot;

/// A mergeable per-epoch series: dense `Vec<u64>` rows under dotted
/// names, all sharing one epoch width (in simulation cycles of the
/// recording layer's clock domain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Simulation cycles per epoch. Epoch `e` covers
    /// `[e * epoch_width, (e + 1) * epoch_width)`.
    pub epoch_width: u64,
    /// Dotted row name → per-epoch values. Rows are zero-extended on
    /// write, so lengths may differ until [`Self::epochs`]-aware
    /// consumers pad; a missing tail reads as zero.
    pub rows: BTreeMap<String, Vec<u64>>,
}

impl SeriesSnapshot {
    /// An empty series with the given epoch width.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_width` is zero (epochs would never close).
    #[must_use]
    pub fn new(epoch_width: u64) -> Self {
        assert!(epoch_width > 0, "epoch width must be nonzero");
        Self {
            epoch_width,
            rows: BTreeMap::new(),
        }
    }

    /// Number of epochs covered: the longest row's length.
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.rows.values().map(Vec::len).max().unwrap_or(0)
    }

    /// True when no row holds any value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Adds `value` into `row[epoch]`, zero-extending the row.
    pub fn add(&mut self, name: &str, epoch: u64, value: u64) {
        if value == 0 {
            return;
        }
        let row = self.rows.entry(name.to_string()).or_default();
        let idx = usize::try_from(epoch).expect("epoch index fits usize");
        if row.len() <= idx {
            row.resize(idx + 1, 0);
        }
        row[idx] += value;
    }

    /// The value at `row[epoch]` (zero when the row or tail is absent).
    #[must_use]
    pub fn value(&self, name: &str, epoch: usize) -> u64 {
        self.rows
            .get(name)
            .and_then(|r| r.get(epoch))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of one row over every epoch (zero when absent).
    #[must_use]
    pub fn row_total(&self, name: &str) -> u64 {
        self.rows.get(name).map_or(0, |r| r.iter().sum())
    }

    /// Accumulates `other` into `self`: rows sum elementwise
    /// (zero-extended), new rows are inserted. Associative and
    /// commutative, so shard/core/layer series fold in any order.
    ///
    /// # Panics
    ///
    /// Panics when the epoch widths differ — epochs from different
    /// widths do not line up and summing them would be meaningless.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.epoch_width, other.epoch_width,
            "cannot merge series with different epoch widths"
        );
        for (name, row) in &other.rows {
            let mine = self.rows.entry(name.clone()).or_default();
            if mine.len() < row.len() {
                mine.resize(row.len(), 0);
            }
            for (m, v) in mine.iter_mut().zip(row.iter()) {
                *m += v;
            }
        }
    }

    /// Exact reconciliation against the aggregate snapshot: every series
    /// row whose name is also an aggregate counter must sum over its
    /// epochs to that counter's value, and at least one row must match a
    /// counter (so an empty intersection cannot pass vacuously).
    #[must_use]
    pub fn reconciles_with(&self, aggregate: &TelemetrySnapshot) -> bool {
        let mut matched = false;
        for (name, row) in &self.rows {
            let total = aggregate.counter(name);
            if total == 0 && !aggregate.has_counter(name) {
                continue; // heatmap row with no aggregate counterpart
            }
            matched = true;
            if row.iter().sum::<u64>() != total {
                return false;
            }
        }
        matched
    }

    /// Renames rows through `f`, merging rows that map to the same name.
    /// Used by the channel layer to scope per-shard heatmap rows
    /// (`dram.bank03.issues` → `dram.ch01.bank03.issues`) while leaving
    /// policy rows shared so they sum across shards on merge.
    #[must_use]
    pub fn map_names(&self, mut f: impl FnMut(&str) -> String) -> Self {
        let mut out = Self::new(self.epoch_width);
        for (name, row) in &self.rows {
            let renamed = f(name);
            let dst = out.rows.entry(renamed).or_default();
            if dst.len() < row.len() {
                dst.resize(row.len(), 0);
            }
            for (d, v) in dst.iter_mut().zip(row.iter()) {
                *d += v;
            }
        }
        out
    }

    /// Renders the series as CSV in wide form: a header
    /// `name,e0,e1,…` then one line per row, every row padded to the
    /// full epoch count. Deterministic (rows in name order).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let epochs = self.epochs();
        let mut out = String::from("name");
        for e in 0..epochs {
            out.push_str(&format!(",e{e}"));
        }
        out.push('\n');
        for (name, row) in &self.rows {
            out.push_str(name);
            for e in 0..epochs {
                out.push_str(&format!(",{}", row.get(e).copied().unwrap_or(0)));
            }
            out.push('\n');
        }
        out
    }
}

/// The one per-epoch recorder every layer uses: it keeps the layer's
/// counter render from the last epoch close and, when the clock leaves
/// the open epoch, credits the difference to that epoch. A layer keeps
/// only its own cumulative counters and one render of them (the same
/// names its aggregate snapshot carries), so row names live in one place
/// and the per-epoch sums reconcile with the aggregate by construction.
///
/// Contract: call [`Self::roll`] *before* recording anything at a new
/// `now`, so every increment lands in the epoch containing its own
/// timestamp. A jump across several windows credits the pre-jump
/// accumulation to the epoch that was open and leaves the skipped
/// interior windows zero — the span being skipped is then recorded
/// after the roll, crediting it to the window it lands in.
#[derive(Debug, Clone)]
pub struct CounterSeries {
    /// The epoch currently accumulating.
    open: u64,
    /// The layer's counters at the last epoch close (or at enable).
    base: TelemetrySnapshot,
    snap: SeriesSnapshot,
}

impl CounterSeries {
    /// A recorder with `width` cycles per epoch, enabled at cycle `now`
    /// with the layer's `current` counters as the base: its first epoch
    /// is the one holding `now`, and nothing counted before the enable
    /// is credited.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn new(width: u64, now: u64, current: TelemetrySnapshot) -> Self {
        Self {
            snap: SeriesSnapshot::new(width),
            open: now / width,
            base: current,
        }
    }

    /// Closes the open epoch if `now` has left it, crediting the change
    /// of the layer's counters since the last close. `render` is called
    /// only then, so a roll inside the open epoch costs one division.
    pub fn roll(&mut self, now: u64, render: impl FnOnce() -> TelemetrySnapshot) {
        let epoch = now / self.snap.epoch_width;
        if epoch == self.open {
            return;
        }
        let current = render();
        credit(&mut self.snap, self.open, &current, &self.base);
        self.base = current;
        self.open = epoch;
    }

    /// The series so far, with the open partial epoch credited from the
    /// layer's `current` counters. Non-destructive: recording continues.
    #[must_use]
    pub fn snapshot(&self, current: &TelemetrySnapshot) -> SeriesSnapshot {
        let mut snap = self.snap.clone();
        credit(&mut snap, self.open, current, &self.base);
        snap
    }
}

/// Adds every counter's change from `base` to `current` into `epoch`.
fn credit(
    snap: &mut SeriesSnapshot,
    epoch: u64,
    current: &TelemetrySnapshot,
    base: &TelemetrySnapshot,
) {
    for (name, value) in current.delta_since(base).counters {
        snap.add(&name, epoch, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_zero_extends_and_sums() {
        let mut s = SeriesSnapshot::new(100);
        s.add("a.b", 3, 7);
        s.add("a.b", 1, 2);
        s.add("a.b", 3, 1);
        assert_eq!(s.rows["a.b"], vec![0, 2, 0, 8]);
        assert_eq!(s.epochs(), 4);
        assert_eq!(s.row_total("a.b"), 10);
        assert_eq!(s.value("a.b", 0), 0);
        assert_eq!(s.value("missing", 9), 0);
    }

    #[test]
    fn merge_is_elementwise_and_commutative() {
        let mut a = SeriesSnapshot::new(10);
        a.add("x", 0, 1);
        a.add("x", 2, 3);
        let mut b = SeriesSnapshot::new(10);
        b.add("x", 1, 5);
        b.add("y", 0, 2);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.rows["x"], vec![1, 5, 3]);
        assert_eq!(ab.rows["y"], vec![2]);
    }

    #[test]
    #[should_panic(expected = "different epoch widths")]
    fn merge_rejects_mismatched_widths() {
        let mut a = SeriesSnapshot::new(10);
        a.merge(&SeriesSnapshot::new(20));
    }

    #[test]
    fn reconciliation_is_exact_and_never_vacuous() {
        let mut agg = TelemetrySnapshot::new();
        agg.add_counter("dram.decision.noop", 5);
        let mut s = SeriesSnapshot::new(10);
        s.add("dram.decision.noop", 0, 2);
        s.add("dram.decision.noop", 4, 3);
        s.add("dram.bank00.issues", 1, 9); // no aggregate counterpart
        assert!(s.reconciles_with(&agg));
        s.add("dram.decision.noop", 5, 1);
        assert!(!s.reconciles_with(&agg), "sum now exceeds the aggregate");
        let empty = SeriesSnapshot::new(10);
        assert!(
            !empty.reconciles_with(&agg),
            "no matching row must not pass vacuously"
        );
    }

    #[test]
    fn map_names_merges_collisions() {
        let mut s = SeriesSnapshot::new(10);
        s.add("a.one", 0, 1);
        s.add("a.two", 0, 2);
        let folded = s.map_names(|_| "a".to_string());
        assert_eq!(folded.rows["a"], vec![3]);
    }

    #[test]
    fn csv_is_padded_and_deterministic() {
        let mut s = SeriesSnapshot::new(10);
        s.add("b", 2, 4);
        s.add("a", 0, 1);
        assert_eq!(s.to_csv(), "name,e0,e1,e2\na,1,0,0\nb,0,0,4\n");
    }

    fn counters(pairs: &[(&str, u64)]) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new();
        for &(name, value) in pairs {
            snap.add_counter(name, value);
        }
        snap
    }

    #[test]
    fn counter_series_closes_once_per_boundary_and_skips_jumps() {
        let mut s = CounterSeries::new(100, 0, counters(&[("c", 0)]));
        s.roll(99, || unreachable!("no boundary crossed"));
        s.roll(100, || counters(&[("c", 3)]));
        s.roll(150, || unreachable!("still inside epoch 1"));
        // A jump across several windows closes only the open epoch; the
        // interior windows were provably empty and stay zero.
        s.roll(750, || counters(&[("c", 5)]));
        let snap = s.snapshot(&counters(&[("c", 9)]));
        assert_eq!(snap.rows["c"], vec![3, 2, 0, 0, 0, 0, 0, 4]);
    }

    #[test]
    fn counter_series_starts_at_the_enable_epoch_and_base() {
        let s = CounterSeries::new(100, 450, counters(&[("c", 40), ("d", 7)]));
        let snap = s.snapshot(&counters(&[("c", 42), ("d", 7)]));
        assert_eq!(snap.rows["c"], vec![0, 0, 0, 0, 2]);
        assert!(
            !snap.rows.contains_key("d"),
            "an unchanged counter adds no row"
        );
    }
}
