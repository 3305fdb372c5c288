//! Reorder buffer and core configuration (Table I core parameters).

use std::collections::VecDeque;

use sim_kernel::Advance;

/// Core configuration. Defaults follow Table I of the paper: 6-wide
/// fetch/retire, 224-entry ROB, 3.2 GHz, L1 32 KB, LLC 4 MB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions dispatched per cycle.
    pub dispatch_width: u32,
    /// Instructions retired per cycle.
    pub retire_width: u32,
    /// ROB capacity in instructions.
    pub rob_entries: usize,
    /// L1D hit latency (cycles).
    pub l1_latency: u64,
    /// LLC hit latency (cycles).
    pub llc_latency: u64,
    /// Fill latency applied when a memory completion wakes a load.
    pub fill_latency: u64,
    /// Cache line size (bytes).
    pub line_bytes: u64,
    /// Core clock in MHz (used to derive the DRAM clock ratio).
    pub clock_mhz: u32,
    /// Clock advance policy: event-driven idle-skip (default) or the
    /// per-cycle reference semantics.
    pub advance: Advance,
    /// Issue multi-access events (prefetch volleys, writeback retries)
    /// through [`crate::system::MemoryBackend::submit_batch`] instead of
    /// one call per access. Observationally identical either way; a
    /// backend may amortize per-call bookkeeping over the batch (the
    /// built-in engines take the trait's per-access default).
    pub batch_submit: bool,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            dispatch_width: 6,
            retire_width: 6,
            rob_entries: 224,
            l1_latency: 4,
            llc_latency: 30,
            fill_latency: 4,
            line_bytes: 64,
            clock_mhz: 3200,
            advance: Advance::ToNextEvent,
            batch_submit: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryKind {
    Compute,
    Load,
    Store,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    kind: EntryKind,
    /// Instructions represented (always 1 for loads/stores).
    count: u32,
    /// Cycle at which this entry becomes retirable; `None` = waiting on a
    /// memory completion.
    ready_at: Option<u64>,
    seq: u64,
}

/// A reorder buffer tracked at instruction granularity.
///
/// Compute runs are collapsed into single entries carrying an instruction
/// count; loads block retirement until their data returns; stores are
/// posted and retire immediately.
#[derive(Debug)]
pub(crate) struct Rob {
    entries: VecDeque<Entry>,
    capacity: usize,
    occupancy: usize,
    next_seq: u64,
}

impl Rob {
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            capacity,
            occupancy: 0,
            next_seq: 0,
        }
    }

    pub fn space(&self) -> usize {
        self.capacity - self.occupancy
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[cfg(test)]
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Pushes `n` compute instructions (must fit).
    pub fn push_compute(&mut self, n: u32, now: u64) {
        debug_assert!(n as usize <= self.space());
        self.occupancy += n as usize;
        let seq = self.next_seq;
        self.next_seq += 1;
        // Merge with a trailing ready compute entry to keep the deque small.
        if let Some(back) = self.entries.back_mut() {
            if back.kind == EntryKind::Compute && back.ready_at.is_some_and(|r| r <= now) {
                back.count += n;
                return;
            }
        }
        self.entries.push_back(Entry {
            kind: EntryKind::Compute,
            count: n,
            ready_at: Some(now),
            seq,
        });
    }

    /// Pushes a load. `ready_at = None` means the load waits on memory; use
    /// [`Self::mark_ready`] with the returned sequence number.
    pub fn push_load(&mut self, ready_at: Option<u64>) -> u64 {
        debug_assert!(self.space() >= 1);
        self.occupancy += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(Entry {
            kind: EntryKind::Load,
            count: 1,
            ready_at,
            seq,
        });
        seq
    }

    /// Pushes a posted store (retires as soon as it reaches the head).
    pub fn push_store(&mut self, now: u64) {
        debug_assert!(self.space() >= 1);
        self.occupancy += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(Entry {
            kind: EntryKind::Store,
            count: 1,
            ready_at: Some(now),
            seq,
        });
    }

    /// Wakes the load with sequence number `seq` so it retires at `at`.
    pub fn mark_ready(&mut self, seq: u64, at: u64) {
        for e in self.entries.iter_mut() {
            if e.seq == seq {
                debug_assert!(e.ready_at.is_none(), "load woken twice");
                e.ready_at = Some(at);
                return;
            }
        }
        debug_assert!(false, "mark_ready on unknown seq {seq}");
    }

    /// The cycle at which the head entry becomes retirable; `None` when
    /// the ROB is empty or the head is waiting on a memory completion.
    ///
    /// Retirement is in order, so nothing can retire before this cycle —
    /// the bound the event-driven run loop skips to.
    pub fn next_retire_at(&self) -> Option<u64> {
        self.entries.front().and_then(|e| e.ready_at)
    }

    /// Retires up to `width` instructions at cycle `now`; returns the
    /// number retired.
    pub fn retire(&mut self, width: u32, now: u64) -> u64 {
        let mut budget = width;
        let mut retired = 0u64;
        while budget > 0 {
            let Some(head) = self.entries.front_mut() else {
                break;
            };
            match head.ready_at {
                Some(r) if r <= now => {}
                _ => break,
            }
            let take = head.count.min(budget);
            head.count -= take;
            budget -= take;
            retired += u64::from(take);
            self.occupancy -= take as usize;
            if head.count == 0 {
                self.entries.pop_front();
            }
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_retires_at_width() {
        let mut rob = Rob::new(224);
        rob.push_compute(20, 0);
        assert_eq!(rob.retire(6, 1), 6);
        assert_eq!(rob.retire(6, 2), 6);
        assert_eq!(rob.retire(6, 3), 6);
        assert_eq!(rob.retire(6, 4), 2);
        assert!(rob.is_empty());
    }

    #[test]
    fn pending_load_blocks_retirement() {
        let mut rob = Rob::new(224);
        let seq = rob.push_load(None);
        rob.push_compute(10, 0);
        assert_eq!(rob.retire(6, 5), 0, "head load not ready");
        rob.mark_ready(seq, 8);
        assert_eq!(rob.retire(6, 7), 0, "not ready until cycle 8");
        assert_eq!(rob.retire(6, 8), 6, "load + 5 compute");
        assert_eq!(rob.occupancy(), 5);
    }

    #[test]
    fn store_retires_immediately() {
        let mut rob = Rob::new(224);
        rob.push_store(0);
        assert_eq!(rob.retire(6, 1), 1);
    }

    #[test]
    fn l1_hit_load_ready_after_latency() {
        let mut rob = Rob::new(224);
        rob.push_load(Some(4));
        assert_eq!(rob.retire(6, 3), 0);
        assert_eq!(rob.retire(6, 4), 1);
    }

    #[test]
    fn occupancy_and_space_track_instructions() {
        let mut rob = Rob::new(10);
        rob.push_compute(8, 0);
        rob.push_load(None);
        assert_eq!(rob.space(), 1);
        assert_eq!(rob.occupancy(), 9);
    }

    #[test]
    fn compute_merging_keeps_order_with_loads() {
        let mut rob = Rob::new(224);
        rob.push_compute(3, 0);
        let seq = rob.push_load(None);
        rob.push_compute(3, 0);
        // Only the first 3 compute retire; the load gates the rest.
        assert_eq!(rob.retire(6, 1), 3);
        rob.mark_ready(seq, 2);
        assert_eq!(rob.retire(6, 2), 4);
    }
}
