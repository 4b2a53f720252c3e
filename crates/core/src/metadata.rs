//! Migration metadata: `isLent` bitmaps and `dataBorrowed` LRU tables
//! (Section VI-B, Figure 7).

use ndpb_dram::BlockAddr;

use crate::fasthash::{FastMap, FastSet};

/// A bounded LRU map modelling a set-associative `dataBorrowed` table.
/// (We model full LRU; hardware associativity only changes conflict
/// behaviour at the margins and the paper sweeps total *size*.)
///
/// # Example
///
/// ```
/// use ndpb_core::metadata::LruTable;
/// let mut t: LruTable<u64, char> = LruTable::new(2);
/// t.insert(1, 'a');
/// t.insert(2, 'b');
/// t.get(&1);                       // refresh 1
/// let evicted = t.insert(3, 'c');  // evicts 2, the LRU entry
/// assert_eq!(evicted, Some((2, 'b')));
/// ```
#[derive(Debug, Clone)]
pub struct LruTable<K, V> {
    map: FastMap<K, (V, u64)>,
    capacity: usize,
    tick: u64,
}

impl<K: std::hash::Hash + Eq + Copy, V> LruTable<K, V> {
    /// Creates a table holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU table needs capacity");
        LruTable {
            map: FastMap::default(),
            capacity,
            tick: 0,
        }
    }

    /// Inserts (or refreshes) `key → value`. If the table was full and
    /// `key` was absent, evicts and returns the least-recently-used
    /// entry.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        let existed = self.map.insert(key, (value, self.tick)).is_some();
        if existed || self.map.len() <= self.capacity {
            return None;
        }
        let lru_key = *self
            .map
            .iter()
            .filter(|(k, _)| **k != key)
            .min_by_key(|(_, (_, t))| *t)
            .map(|(k, _)| k)
            .expect("table over capacity has other entries");
        self.map.remove(&lru_key).map(|(v, _)| (lru_key, v))
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, t)| {
            *t = tick;
            &*v
        })
    }

    /// Looks up without touching recency (metadata inspection).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Removes `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(v, _)| v)
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (v, _))| (k, v))
    }
}

/// Per-unit lent-block tracking: the `isLent` bitmap (one bit per
/// `G_xfer` block of the home bank, 2 kB SRAM in Table I).
#[derive(Debug, Clone, Default)]
pub struct LentBitmap {
    lent: FastSet<BlockAddr>,
}

impl LentBitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a home block as lent out. Returns `false` if it already
    /// was (a protocol error the caller should treat as a bug).
    pub fn set(&mut self, block: BlockAddr) -> bool {
        self.lent.insert(block)
    }

    /// Clears the lent mark when the block returns home.
    pub fn clear(&mut self, block: BlockAddr) -> bool {
        self.lent.remove(&block)
    }

    /// Whether the block is currently lent out.
    pub fn is_lent(&self, block: BlockAddr) -> bool {
        self.lent.contains(&block)
    }

    /// Number of lent blocks.
    pub fn count(&self) -> usize {
        self.lent.len()
    }

    /// Iterates over the lent blocks in unspecified order (auditing).
    pub fn iter(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.lent.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_insert_get_remove() {
        let mut t = LruTable::new(4);
        assert!(t.insert(1u64, "one").is_none());
        assert_eq!(t.get(&1), Some(&"one"));
        assert_eq!(t.remove(&1), Some("one"));
        assert!(t.is_empty());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = LruTable::new(3);
        t.insert(1u64, 1);
        t.insert(2, 2);
        t.insert(3, 3);
        t.get(&1); // 2 becomes LRU
        let e = t.insert(4, 4).unwrap();
        assert_eq!(e.0, 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn lru_refresh_on_reinsert() {
        let mut t = LruTable::new(2);
        t.insert(1u64, 'a');
        t.insert(2, 'b');
        assert!(t.insert(1, 'A').is_none()); // refresh, no eviction
        let e = t.insert(3, 'c').unwrap();
        assert_eq!(e.0, 2);
        assert_eq!(t.peek(&1), Some(&'A'));
    }

    #[test]
    fn peek_does_not_refresh() {
        let mut t = LruTable::new(2);
        t.insert(1u64, 'a');
        t.insert(2, 'b');
        t.peek(&1);
        let e = t.insert(3, 'c').unwrap();
        assert_eq!(e.0, 1, "peek must not refresh recency");
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        LruTable::<u64, ()>::new(0);
    }

    #[test]
    fn lent_bitmap_round_trip() {
        let mut b = LentBitmap::new();
        assert!(!b.is_lent(BlockAddr(5)));
        assert!(b.set(BlockAddr(5)));
        assert!(!b.set(BlockAddr(5)), "double-lend flagged");
        assert!(b.is_lent(BlockAddr(5)));
        assert_eq!(b.count(), 1);
        assert!(b.clear(BlockAddr(5)));
        assert!(!b.clear(BlockAddr(5)));
        assert!(!b.is_lent(BlockAddr(5)));
    }
}
