//! Event-driven simulation kernel shared by every timing layer of the
//! SecDDR reproduction.
//!
//! The seed simulator advanced the CPU system, the security engine, and
//! the DRAM controller one cycle at a time even when every queue was
//! idle. This crate provides the four pieces the layers now share:
//!
//! * [`SimClock`] — a monotonically advancing cycle counter with explicit
//!   single-step ([`SimClock::tick`]) and fast-forward
//!   ([`SimClock::skip_to`]) transitions;
//! * [`EventQueue`] — a binary-heap timestamped event queue with stable
//!   FIFO ordering for same-cycle events, used for in-flight memory
//!   completions at every layer;
//! * [`TokenWindow`] — values keyed by ascending request tokens, held as
//!   a dense sliding window: every layer's per-request id table on the
//!   read path (engine transactions, shard token maps, completion
//!   routing);
//! * [`Advance`] — the advance policy. [`Advance::ToNextEvent`] lets a
//!   layer jump its clock over provably idle stretches;
//!   [`Advance::PerCycle`] is the reference lock-step semantics the
//!   equivalence tests compare against.
//!
//! The contract every fast-path must uphold: a skipped cycle is one where
//! the per-cycle reference would have done *nothing* — so statistics,
//! command schedules, and completion times are bit-identical between the
//! two policies. Each layer derives its own "next possible event" lower
//! bound (DRAM timing thresholds, ROB head readiness, backend completion
//! times) and the kernel supplies the mechanics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast multiply-xor hasher (FxHash-style) for the simulators' hot
/// integer-keyed maps (line addresses: a core's outstanding misses, a
/// channel's queued write lines).
///
/// Not DoS-resistant — simulation state is never attacker-controlled, and
/// the default SipHash costs real wall-clock on per-event bookkeeping.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// How a simulation layer advances its clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Advance {
    /// Lock-step reference semantics: every cycle is simulated.
    PerCycle,
    /// Event-driven fast path: idle stretches (cycles where the per-cycle
    /// reference provably does nothing) are skipped in one jump.
    #[default]
    ToNextEvent,
}

impl Advance {
    /// True when the event-driven fast path is enabled.
    #[inline]
    #[must_use]
    pub fn is_event_driven(self) -> bool {
        matches!(self, Advance::ToNextEvent)
    }
}

/// A simulation clock counting cycles from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now: u64,
}

impl SimClock {
    /// A clock at cycle zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current cycle.
    #[inline]
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances one cycle and returns the new time.
    #[inline]
    pub fn tick(&mut self) -> u64 {
        self.now += 1;
        self.now
    }

    /// Fast-forwards to `cycle` and returns how many cycles were skipped.
    ///
    /// The caller asserts that nothing observable happens in the skipped
    /// range `(now, cycle]`; this is the [`Advance::ToNextEvent`] jump.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is in the past.
    #[inline]
    pub fn skip_to(&mut self, cycle: u64) -> u64 {
        assert!(cycle >= self.now, "SimClock cannot move backwards");
        let skipped = cycle - self.now;
        self.now = cycle;
        skipped
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled<T> {
    at: u64,
    seq: u64,
    payload: T,
}

impl<T: Eq> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<T: Eq> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A timestamped event queue over a binary heap.
///
/// Events pop in `(time, insertion order)` order, so same-cycle events
/// keep FIFO semantics — the property the per-cycle reference loops
/// provided implicitly by scanning vectors in insertion order.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<T: Eq> {
    heap: BinaryHeap<Reverse<Scheduled<T>>>,
    next_seq: u64,
}

impl<T: Eq> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, payload }));
    }

    /// The cycle of the earliest scheduled event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// The earliest scheduled `(time, payload)` without removing it.
    ///
    /// Schedulers with lazy staleness filtering use this to inspect the
    /// head entry and pop it only when it turns out to be stale — the
    /// pop-then-push round trip (two sift operations plus a burned
    /// sequence number per inspection) disappears.
    #[must_use]
    pub fn peek(&self) -> Option<(u64, &T)> {
        self.heap.peek().map(|Reverse(s)| (s.at, &s.payload))
    }

    /// As [`Self::peek`], but only when the head entry fires at or
    /// before `now`.
    #[must_use]
    pub fn peek_due(&self, now: u64) -> Option<(u64, &T)> {
        self.peek().filter(|&(at, _)| at <= now)
    }

    /// Pops the earliest event if it fires at or before `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, T)> {
        if self.peek_time()? <= now {
            self.heap.pop().map(|Reverse(s)| (s.at, s.payload))
        } else {
            None
        }
    }

    /// Iterates over all scheduled `(time, payload)` entries in
    /// unspecified order.
    ///
    /// Lets a layer derive *filtered* bounds (e.g. "earliest completion
    /// among tokens owned by one core") without popping; use
    /// [`Self::peek_time`] for the unfiltered minimum.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.heap.iter().map(|Reverse(s)| (s.at, &s.payload))
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Values keyed by an ascending token sequence, held as a dense sliding
/// window over the tokens.
///
/// Memory backends hand out request tokens in ascending order, and
/// requests retire roughly in order, so a per-request table needs no
/// hashing: slot `t - base` holds token `t`'s value. Tokens that never
/// get a value (a posted write's) are vacant slots. Both ends of the
/// window pop their vacant slots as soon as they are exposed, so the
/// window spans the oldest to the newest live token, not the run.
#[derive(Debug, Clone)]
pub struct TokenWindow<T> {
    /// Token of `slots`' front.
    base: u64,
    /// `None` is a vacant slot: a token never inserted, or already taken.
    slots: VecDeque<Option<T>>,
}

impl<T> Default for TokenWindow<T> {
    fn default() -> Self {
        Self {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<T> TokenWindow<T> {
    /// Stores `value` under `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is older than the oldest live token (tokens
    /// ascend) or already holds a value.
    pub fn insert(&mut self, token: u64, value: T) {
        if self.slots.is_empty() {
            self.base = token;
        }
        let idx = self
            .index(token)
            .expect("tokens ascend: a new token is never older than the window");
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let slot = &mut self.slots[idx];
        assert!(slot.is_none(), "token {token} inserted twice");
        *slot = Some(value);
    }

    /// The value stored under `token`, if any.
    pub fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let idx = self.index(token)?;
        self.slots.get_mut(idx)?.as_mut()
    }

    /// Removes and returns the value stored under `token`, if any.
    pub fn take(&mut self, token: u64) -> Option<T> {
        let idx = self.index(token)?;
        let value = self.slots.get_mut(idx)?.take()?;
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        while matches!(self.slots.back(), Some(None)) {
            self.slots.pop_back();
        }
        Some(value)
    }

    /// True when no token holds a value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slots the window spans: newest live token − oldest live token + 1
    /// (zero when empty).
    #[must_use]
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    fn index(&self, token: u64) -> Option<usize> {
        usize::try_from(token.checked_sub(self.base)?).ok()
    }
}

/// Folds a candidate next-event time into a running lower bound, keeping
/// only candidates strictly after `now`.
///
/// Helper for the per-layer "earliest possible activity" computations: a
/// threshold at or before `now` is already satisfied and cannot be what
/// the layer is waiting on.
#[inline]
pub fn fold_next_event(now: u64, bound: &mut u64, candidate: u64) {
    if candidate > now && candidate < *bound {
        *bound = candidate;
    }
}

/// Folds a candidate threshold into a running lower bound, clamping
/// candidates at or before `now` to `now + 1`.
///
/// Helper for *decision* bounds, where an already-satisfied threshold
/// means the decision could fire on the very next tick (it may merely be
/// deprioritized right now, e.g. a precharge losing the command slot to a
/// column burst) — unlike [`fold_next_event`], which drops past-due
/// candidates because a *quiescent* layer is by definition not waiting on
/// them.
#[inline]
pub fn fold_ready_event(now: u64, bound: &mut u64, candidate: u64) {
    let candidate = candidate.max(now + 1);
    if candidate < *bound {
        *bound = candidate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ticks_and_skips() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.skip_to(10), 9);
        assert_eq!(c.now(), 10);
        assert_eq!(c.skip_to(10), 0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_rejects_rewind() {
        let mut c = SimClock::new();
        c.skip_to(5);
        c.skip_to(4);
    }

    #[test]
    fn queue_pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(5, "b");
        q.push(3, "a");
        q.push(5, "c");
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop_due(2), None);
        assert_eq!(q.pop_due(5), Some((3, "a")));
        assert_eq!(q.pop_due(5), Some((5, "b")), "FIFO among same-cycle events");
        assert_eq!(q.pop_due(5), Some((5, "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_is_non_destructive_and_fifo_consistent() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        q.push(7, "late");
        q.push(4, "early");
        assert_eq!(q.peek(), Some((4, &"early")));
        assert_eq!(q.peek(), Some((4, &"early")), "peek must not pop");
        assert_eq!(q.peek_due(3), None);
        assert_eq!(q.peek_due(4), Some((4, &"early")));
        assert_eq!(q.pop_due(10), Some((4, "early")));
        assert_eq!(q.peek(), Some((7, &"late")));
    }

    #[test]
    fn queue_len_tracks_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, 10u64);
        q.push(1, 11u64);
        assert_eq!(q.len(), 2);
        let _ = q.pop_due(1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn fold_next_event_keeps_earliest_future_candidate() {
        let mut bound = u64::MAX;
        fold_next_event(10, &mut bound, 9); // past: ignored
        fold_next_event(10, &mut bound, 10); // present: ignored
        fold_next_event(10, &mut bound, 40);
        fold_next_event(10, &mut bound, 25);
        assert_eq!(bound, 25);
    }

    #[test]
    fn fold_ready_event_clamps_past_due_to_next_cycle() {
        let mut bound = u64::MAX;
        fold_ready_event(10, &mut bound, 40);
        assert_eq!(bound, 40);
        fold_ready_event(10, &mut bound, 9); // past-due: ready next cycle
        assert_eq!(bound, 11);
        fold_ready_event(10, &mut bound, 10); // present: same clamp
        assert_eq!(bound, 11);
        let mut tight = 11u64;
        fold_ready_event(10, &mut tight, 25); // cannot improve on now+1
        assert_eq!(tight, 11);
    }

    #[test]
    fn advance_default_is_event_driven() {
        assert!(Advance::default().is_event_driven());
        assert!(!Advance::PerCycle.is_event_driven());
    }

    #[test]
    fn token_window_slides_past_taken_and_vacant_tokens() {
        let mut w = TokenWindow::default();
        w.insert(3, 'a');
        w.insert(4, 'b');
        w.insert(7, 'c'); // 5 and 6 stay vacant
        assert_eq!(w.span(), 5);
        assert_eq!(w.get_mut(5), None);
        assert_eq!(w.take(4), Some('b'));
        assert_eq!(w.span(), 5, "the front is still live");
        assert_eq!(w.take(3), Some('a'));
        assert_eq!(w.span(), 1, "the front slid over the vacant gap");
        assert_eq!(w.take(3), None, "taken once");
        *w.get_mut(7).unwrap() = 'd';
        assert_eq!(w.take(7), Some('d'));
        assert!(w.is_empty());
        w.insert(20, 'e');
        assert_eq!(w.span(), 1, "an empty window restarts at the next token");
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn token_window_rejects_a_second_insert() {
        let mut w = TokenWindow::default();
        w.insert(1, 0u8);
        w.insert(1, 0u8);
    }

    mod token_window_model {
        use super::super::TokenWindow;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Ascending inserts with gaps and takes in random order agree
            /// with a `BTreeMap`, and the window never spans more than the
            /// live tokens.
            #[test]
            fn matches_a_btreemap(ops in collection::vec((0u8..3, 0u64..4, any::<u64>()), 1..300)) {
                let mut window = TokenWindow::default();
                let mut model: BTreeMap<u64, u64> = BTreeMap::new();
                let mut next = 0u64;
                for (op, gap, pick) in ops {
                    if op == 0 {
                        let token = next + gap;
                        next = token + 1;
                        window.insert(token, pick);
                        model.insert(token, pick);
                    } else {
                        // Mostly a live token, sometimes any token so far
                        // (vacant, taken, or never issued).
                        let token = if model.is_empty() || pick % 4 == 0 {
                            pick % (next + 2)
                        } else {
                            *model.keys().nth((pick % model.len() as u64) as usize).unwrap()
                        };
                        prop_assert_eq!(window.get_mut(token).copied(), model.get(&token).copied());
                        if op == 1 {
                            prop_assert_eq!(window.take(token), model.remove(&token));
                        }
                    }
                    let live = match (model.keys().next(), model.keys().next_back()) {
                        (Some(&oldest), Some(&newest)) => (newest - oldest + 1) as usize,
                        _ => 0,
                    };
                    prop_assert!(window.span() <= live, "span {} > live {}", window.span(), live);
                    prop_assert_eq!(window.is_empty(), model.is_empty());
                }
            }
        }
    }
}
