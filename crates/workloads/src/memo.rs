//! The bounded in-process tier of
//! [`Benchmark::generate_shared`](crate::Benchmark::generate_shared): a
//! most-recently-used list that keeps at most a fixed number of entries.
//!
//! A linear scan over a handful of entries is cheaper than hashing, and
//! the bound keeps a long-running service's trace memory flat however
//! many distinct `(benchmark, budget, seed)` keys its jobs name.

use std::collections::VecDeque;

/// At most `capacity` entries, most recently used first. A hit moves its
/// entry to the front; an insert past the capacity evicts the least
/// recently used entry.
#[derive(Debug)]
pub(crate) struct Mru<K, V> {
    capacity: usize,
    entries: VecDeque<(K, V)>,
}

impl<K: PartialEq, V: Clone> Mru<K, V> {
    /// An empty list that holds at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// The value under `key`, which becomes the most recently used.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let at = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(at)?;
        let value = entry.1.clone();
        self.entries.push_front(entry);
        Some(value)
    }

    /// Inserts `value` under `key` as the most recently used entry and
    /// returns it. If `key` is already present the existing value wins
    /// (a racing duplicate is dropped) and is returned instead.
    pub(crate) fn insert(&mut self, key: K, value: V) -> V {
        if let Some(existing) = self.get(&key) {
            return existing;
        }
        self.entries.push_front((key, value.clone()));
        self.entries.truncate(self.capacity);
        value
    }

    /// Number of entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_plus_one_keys_evict_the_least_recently_used() {
        let mut memo = Mru::new(3);
        for k in 0..4 {
            memo.insert(k, k * 10);
        }
        assert_eq!(memo.get(&0), None, "the oldest entry was evicted");
        for k in 1..4 {
            assert_eq!(memo.get(&k), Some(k * 10));
        }
    }

    #[test]
    fn a_hit_refreshes_recency() {
        let mut memo = Mru::new(3);
        for k in 0..3 {
            memo.insert(k, k);
        }
        assert_eq!(memo.get(&0), Some(0), "0 is now the most recent");
        memo.insert(3, 3);
        assert_eq!(memo.get(&1), None, "1 was the least recently used");
        assert_eq!(memo.get(&0), Some(0), "the refreshed entry survived");
    }

    #[test]
    fn an_insert_of_a_present_key_keeps_the_first_value() {
        let mut memo = Mru::new(2);
        assert_eq!(memo.insert("a", 1), 1);
        assert_eq!(memo.insert("a", 2), 1, "the racing duplicate is dropped");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn never_holds_more_than_the_capacity() {
        let mut memo = Mru::new(4);
        for k in 0..100u32 {
            memo.insert(k, k);
            if k % 3 == 0 {
                memo.get(&(k / 2));
            }
            assert!(memo.len() <= 4, "{} entries after key {k}", memo.len());
        }
        assert_eq!(memo.len(), 4);
    }
}
