//! The HeavyGuardian-style hot-block sketch.

use ndpb_sim::SimRng;

/// Exponential decay base: a full bucket's minimum entry decays with
/// probability `DECAY_BASE^-workload` (HeavyGuardian's proven-optimal
/// 1.08, Table I).
pub const DECAY_BASE: f64 = 1.08;

/// Sketch geometry (Table I defaults: 16 buckets × 16 entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchConfig {
    /// Number of buckets (indexed by block address).
    pub buckets: usize,
    /// Entries per bucket.
    pub entries_per_bucket: usize,
}

impl SketchConfig {
    /// The paper's Table I configuration.
    pub fn paper() -> Self {
        SketchConfig {
            buckets: 16,
            entries_per_bucket: 16,
        }
    }

    /// A variant with different geometry (Figure 16c/d sweeps).
    pub fn with_geometry(buckets: usize, entries_per_bucket: usize) -> Self {
        SketchConfig {
            buckets,
            entries_per_bucket,
        }
    }
}

impl Default for SketchConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u64,
    workload: u64,
}

/// Tracks the hottest data blocks of one NDP unit by accumulated task
/// workload.
///
/// Keys are opaque `u64`s (block addresses). The structure is
/// deterministic given the RNG passed to [`HotSketch::record`].
///
/// # Example
///
/// ```
/// use ndpb_sketch::{HotSketch, SketchConfig};
/// use ndpb_sim::SimRng;
///
/// let mut s = HotSketch::new(SketchConfig::paper());
/// let mut rng = SimRng::new(1);
/// for _ in 0..100 { s.record(42, 10, &mut rng); }
/// s.record(7, 1, &mut rng);
/// assert_eq!(s.hottest(), Some((42, 1000)));
/// ```
#[derive(Debug, Clone)]
pub struct HotSketch {
    config: SketchConfig,
    buckets: Vec<Vec<Entry>>,
    /// Memo of `DECAY_BASE.powf(-wl)` for small `wl` (the common case:
    /// workloads repeat constantly). `powf` is a libm call on the
    /// per-enqueue path; caching the exact value it returned keeps the
    /// decay probabilities bit-identical while skipping the recompute.
    decay_memo: Vec<f64>,
}

impl HotSketch {
    /// Creates an empty sketch.
    ///
    /// # Panics
    ///
    /// Panics if the configured geometry is zero-sized.
    pub fn new(config: SketchConfig) -> Self {
        assert!(
            config.buckets > 0 && config.entries_per_bucket > 0,
            "sketch must have positive geometry"
        );
        // Buckets start with no capacity: a `System` builds one sketch
        // per unit even for designs that never touch it, so all heap
        // growth is deferred to first use.
        let buckets = vec![Vec::new(); config.buckets];
        HotSketch {
            config,
            buckets,
            decay_memo: Vec::new(),
        }
    }

    /// `DECAY_BASE^(-wl)`, memoized for small `wl`. Values are computed
    /// by the same `powf` call either way, so the memo is invisible to
    /// the decay outcome.
    fn decay_probability(&mut self, wl: u64) -> f64 {
        if wl >= 1024 {
            return DECAY_BASE.powf(-(wl as f64));
        }
        if self.decay_memo.is_empty() {
            self.decay_memo.resize(1024, f64::NAN);
        }
        let slot = &mut self.decay_memo[wl as usize];
        if slot.is_nan() {
            *slot = DECAY_BASE.powf(-(wl as f64));
        }
        *slot
    }

    fn bucket_of(&self, key: u64) -> usize {
        // Multiplicative hash; the paper indexes by data address. Runs
        // on every task enqueue, so the reduction to a bucket index is
        // a mask instead of a hardware divide for power-of-two bucket
        // counts (the Table I default of 16 included) — bit-identical
        // to the modulo it replaces.
        let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        let n = self.config.buckets;
        if n.is_power_of_two() {
            h & (n - 1)
        } else {
            h % n
        }
    }

    /// Records a task of `workload` on block `key` (called on every task
    /// enqueue). On a full-bucket miss, applies HeavyGuardian decay to
    /// the bucket's minimum entry using `rng`.
    pub fn record(&mut self, key: u64, workload: u64, rng: &mut SimRng) {
        let per = self.config.entries_per_bucket;
        let b = self.bucket_of(key);
        let bucket = &mut self.buckets[b];

        if let Some(e) = bucket.iter_mut().find(|e| e.key == key) {
            e.workload = e.workload.saturating_add(workload);
            return;
        }
        if bucket.len() < per {
            bucket.push(Entry { key, workload });
            return;
        }
        // Miss on a full bucket: probabilistically decay the minimum.
        let (min_idx, min_wl) = bucket
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.workload)
            .map(|(i, e)| (i, e.workload))
            .expect("bucket is non-empty");
        let p = self.decay_probability(min_wl);
        if rng.chance(p) {
            let bucket = &mut self.buckets[b];
            if min_wl <= workload {
                bucket[min_idx] = Entry { key, workload };
            } else {
                bucket[min_idx].workload = min_wl - workload;
            }
        }
    }

    /// The hottest tracked `(key, workload)`, if any.
    pub fn hottest(&self) -> Option<(u64, u64)> {
        self.buckets
            .iter()
            .flatten()
            .max_by_key(|e| e.workload)
            .map(|e| (e.key, e.workload))
    }

    /// Removes and returns the hottest entry (step ② of the load
    /// balancing workflow extracts hot blocks one at a time).
    pub fn pop_hottest(&mut self) -> Option<(u64, u64)> {
        let (b, i) = self
            .buckets
            .iter()
            .enumerate()
            .flat_map(|(b, v)| v.iter().enumerate().map(move |(i, e)| (b, i, e.workload)))
            .max_by_key(|&(_, _, w)| w)
            .map(|(b, i, _)| (b, i))?;
        let e = self.buckets[b].swap_remove(i);
        Some((e.key, e.workload))
    }

    /// Removes a specific key (e.g. when its block migrates away).
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let b = self.bucket_of(key);
        let bucket = &mut self.buckets[b];
        let i = bucket.iter().position(|e| e.key == key)?;
        Some(bucket.swap_remove(i).workload)
    }

    /// The tracked workload of `key`, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        let b = self.bucket_of(key);
        self.buckets[b]
            .iter()
            .find(|e| e.key == key)
            .map(|e| e.workload)
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// SRAM bytes this sketch occupies (58-bit addresses + 1-byte
    /// counters per entry, per the paper ⇒ 8 B rounded entries).
    pub fn sram_bytes(&self) -> usize {
        self.config.buckets * self.config.entries_per_bucket * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xBEEF)
    }

    #[test]
    fn accumulates_on_hit() {
        let mut s = HotSketch::new(SketchConfig::paper());
        let mut r = rng();
        s.record(5, 10, &mut r);
        s.record(5, 7, &mut r);
        assert_eq!(s.get(5), Some(17));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn hottest_finds_max() {
        let mut s = HotSketch::new(SketchConfig::paper());
        let mut r = rng();
        for k in 0..50u64 {
            s.record(k, k + 1, &mut r);
        }
        let (k, w) = s.hottest().unwrap();
        assert_eq!((k, w), (49, 50));
    }

    #[test]
    fn pop_hottest_removes() {
        let mut s = HotSketch::new(SketchConfig::paper());
        let mut r = rng();
        s.record(1, 100, &mut r);
        s.record(2, 5, &mut r);
        assert_eq!(s.pop_hottest(), Some((1, 100)));
        assert_eq!(s.pop_hottest(), Some((2, 5)));
        assert_eq!(s.pop_hottest(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn heavy_hitter_survives_noise() {
        // One hot key with large workload vs. a stream of cold keys that
        // all collide into the same 1×4 sketch.
        let cfg = SketchConfig::with_geometry(1, 4);
        let mut s = HotSketch::new(cfg);
        let mut r = rng();
        for _ in 0..200 {
            s.record(999, 50, &mut r);
        }
        for k in 0..2000u64 {
            s.record(k, 1, &mut r);
        }
        assert_eq!(s.hottest().map(|(k, _)| k), Some(999));
    }

    #[test]
    fn decay_eventually_replaces_cold_entries() {
        let cfg = SketchConfig::with_geometry(1, 1);
        let mut s = HotSketch::new(cfg);
        let mut r = rng();
        s.record(1, 1, &mut r); // cold occupant
        for _ in 0..100 {
            s.record(2, 10, &mut r); // persistent challenger
        }
        // With w=1 occupant and p = 1.08^-1 ≈ 0.93, replacement is near
        // certain within 100 tries.
        assert_eq!(s.hottest().map(|(k, _)| k), Some(2));
    }

    #[test]
    fn remove_specific_key() {
        let mut s = HotSketch::new(SketchConfig::paper());
        let mut r = rng();
        s.record(10, 3, &mut r);
        assert_eq!(s.remove(10), Some(3));
        assert_eq!(s.remove(10), None);
    }

    #[test]
    fn paper_sram_budget_is_2kb() {
        let s = HotSketch::new(SketchConfig::paper());
        assert_eq!(s.sram_bytes(), 2048);
    }

    #[test]
    #[should_panic(expected = "positive geometry")]
    fn zero_geometry_panics() {
        HotSketch::new(SketchConfig::with_geometry(0, 4));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = HotSketch::new(SketchConfig::with_geometry(2, 2));
            let mut r = SimRng::new(7);
            for i in 0..1000u64 {
                s.record(i % 37, (i % 5) + 1, &mut r);
            }
            let mut entries = Vec::new();
            let mut sc = s.clone();
            while let Some(e) = sc.pop_hottest() {
                entries.push(e);
            }
            entries
        };
        assert_eq!(run(), run());
    }
}
