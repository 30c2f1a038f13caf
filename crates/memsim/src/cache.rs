//! Generic set-associative LRU cache.
//!
//! One implementation serves every lookup structure in the simulator:
//! data caches (tag = physical line number, `u32`), TLBs (tag = virtual
//! page number, `u64`) and page-walk caches (tag = VA prefix, `u64`).
//!
//! The state is compact and set-major, and each set is kept in recency
//! order: way 0 holds the most recently used tag and the last way the
//! least recently used one. A way stores `tag + 1`, and 0 marks an empty
//! way, so the array is allocated zeroed and the empty ways of a set that
//! is not yet full sit at its end.

use std::fmt;

/// Geometry of a set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total entries (must be `sets * ways`).
    pub entries: u32,
    /// Associativity. `ways == entries` makes the cache fully associative.
    pub ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry, validating divisibility.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `ways` is zero, or `entries` is not a
    /// multiple of `ways`. The number of sets need not be a power of two;
    /// indexing is modulo (Intel L3 slices are likewise not power-of-two
    /// sized).
    pub fn new(entries: u32, ways: u32) -> Self {
        assert!(entries > 0, "zero entries");
        assert!(ways > 0, "zero ways");
        assert!(
            entries.is_multiple_of(ways),
            "entries {entries} not a multiple of ways {ways}"
        );
        CacheGeometry { entries, ways }
    }

    /// Fully associative geometry with `entries` entries.
    pub fn full(entries: u32) -> Self {
        CacheGeometry::new(entries, entries)
    }

    /// Number of sets.
    pub const fn sets(&self) -> u32 {
        self.entries / self.ways
    }
}

/// A tag width [`SetAssocCache`] can store: `u64` for the translation
/// structures (STLB tags carry page-size bits at bit 60) and `u32` for
/// the data-cache hierarchy (physical line numbers, see
/// [`crate::MemoryHierarchy`]). The top value of each width is not a
/// storable tag.
pub trait CacheTag: Copy + Eq + Default + fmt::Debug + Into<u64> {
    /// The way value that stores `self`: `self + 1`, keeping 0 for an
    /// empty way.
    ///
    /// # Panics
    ///
    /// Panics if `self` is the top value of its width.
    fn stored(self) -> Self;
}

impl CacheTag for u64 {
    #[inline]
    fn stored(self) -> Self {
        self.checked_add(1)
            .expect("u64::MAX is not a storable cache tag")
    }
}

impl CacheTag for u32 {
    #[inline]
    fn stored(self) -> Self {
        self.checked_add(1)
            .expect("u32::MAX is not a storable cache tag")
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Stores only tags; payloads are reconstructed by callers (the simulator
/// never needs cached *data*, only hit/miss behaviour).
///
/// # Example
///
/// ```
/// use memsim::{CacheGeometry, SetAssocCache};
///
/// let mut cache = SetAssocCache::<u64>::new(CacheGeometry::new(4, 2));
/// assert!(!cache.access(7)); // cold miss (inserted)
/// assert!(cache.access(7));  // hit
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache<T: CacheTag> {
    geometry: CacheGeometry,
    /// `sets × ways` ways, set-major: set `s` owns
    /// `lines[s * ways..(s + 1) * ways]`, most recently used first. Each
    /// way holds [`CacheTag::stored`] of its tag, or 0 while empty.
    lines: Vec<T>,
    hits: u64,
    misses: u64,
    /// Number of sets, precomputed (the division `entries / ways` must
    /// stay out of the per-access path).
    sets: u64,
    /// `sets - 1` when the set count is a power of two (every TLB, L1d
    /// and L2 in the paper, but not the L3s), letting set selection use a
    /// mask instead of a u64 modulo. `tag & mask` and `tag % sets` pick
    /// the same set, so behaviour is bit-identical.
    pow2_mask: Option<u64>,
    /// Associativity, precomputed as usize for indexing.
    ways: usize,
}

impl<T: CacheTag> SetAssocCache<T> {
    /// Creates an empty cache.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = u64::from(geometry.sets());
        SetAssocCache {
            geometry,
            lines: vec![T::default(); geometry.entries as usize],
            hits: 0,
            misses: 0,
            sets,
            pow2_mask: sets.is_power_of_two().then(|| sets - 1),
            ways: geometry.ways as usize,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Looks up `tag`; on miss, inserts it (evicting the set's LRU way).
    /// Returns whether the lookup hit.
    #[inline]
    pub fn access(&mut self, tag: T) -> bool {
        let hit = self.touch(tag);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Looks up `tag` without inserting on miss. Does not update stats.
    #[inline]
    pub fn probe(&self, tag: T) -> bool {
        let start = self.set_start(tag);
        self.lines[start..start + self.ways].contains(&tag.stored())
    }

    /// Inserts `tag` unconditionally (used for fills from outer levels).
    #[inline]
    pub fn insert(&mut self, tag: T) {
        self.touch(tag);
    }

    /// Invalidates every entry but keeps statistics.
    pub fn flush(&mut self) {
        self.lines.fill(T::default());
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.lines
            .iter()
            .filter(|&&way| way != T::default())
            .count()
    }

    /// Index of the first way of `tag`'s set.
    #[inline]
    fn set_start(&self, tag: T) -> usize {
        let set = match self.pow2_mask {
            Some(mask) => tag.into() & mask,
            None => tag.into() % self.sets,
        };
        set as usize * self.ways
    }

    /// Core lookup: moves `tag` to the front of its set. A hit at way `i`
    /// shifts ways `0..i` back by one; a miss shifts the whole set back,
    /// dropping its last way, which is the LRU tag or an empty way.
    /// Returns hit status.
    ///
    /// The scan stops at the first match. In recency order hits cluster
    /// at the front and misses always run to the end, so the exit
    /// branch predicts well.
    #[inline]
    fn touch(&mut self, tag: T) -> bool {
        let stored = tag.stored();
        let start = self.set_start(tag);
        let set = &mut self.lines[start..start + self.ways];
        let mut carry = stored;
        for way in set.iter_mut() {
            let held = std::mem::replace(way, carry);
            if held == stored {
                return true;
            }
            carry = held;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validation() {
        let g = CacheGeometry::new(64, 4);
        assert_eq!(g.sets(), 16);
        let f = CacheGeometry::full(5);
        assert_eq!(f.sets(), 1);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn geometry_rejects_bad_ways() {
        CacheGeometry::new(64, 5);
    }

    #[test]
    #[should_panic(expected = "zero entries")]
    fn geometry_rejects_zero_entries() {
        // Zero sets would make the first lookup divide by zero.
        CacheGeometry::new(0, 4);
    }

    #[test]
    fn geometry_allows_non_pow2_sets() {
        let g = CacheGeometry::new(12, 2);
        assert_eq!(g.sets(), 6);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = SetAssocCache::<u64>::new(CacheGeometry::new(8, 2));
        assert!(!c.access(100));
        assert!(c.access(100));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn tag_zero_is_not_resident_in_a_fresh_cache() {
        // Fresh ways hold 0, which stores no tag: tag 0 is stored as 1.
        let mut c = SetAssocCache::<u32>::new(CacheGeometry::new(8, 2));
        assert!(!c.probe(0));
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Fully associative, 2 entries.
        let mut c = SetAssocCache::<u64>::new(CacheGeometry::full(2));
        c.access(1);
        c.access(2);
        c.access(1); // 2 is now LRU
        c.access(3); // evicts 2
        assert!(c.probe(1));
        assert!(!c.probe(2));
        assert!(c.probe(3));
    }

    #[test]
    fn sets_isolate_conflicts() {
        // 2 sets x 1 way: even and odd tags do not evict each other.
        let mut c = SetAssocCache::<u64>::new(CacheGeometry::new(2, 1));
        c.access(2);
        c.access(3);
        assert!(c.probe(2));
        assert!(c.probe(3));
        c.access(4); // same set as 2
        assert!(!c.probe(2));
        assert!(c.probe(3));
    }

    #[test]
    fn probe_does_not_insert() {
        let c = SetAssocCache::<u64>::new(CacheGeometry::new(4, 4));
        assert!(!c.probe(9));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn flush_clears_entries_keeps_stats() {
        let mut c = SetAssocCache::<u64>::new(CacheGeometry::new(4, 4));
        c.access(1);
        c.access(1);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.hits(), 1);
        assert!(!c.probe(1));
    }

    #[test]
    fn pow2_and_modulo_indexing_agree() {
        // 8 sets is a power of two: the masked path must land tags in the
        // same sets the modulo path would.
        let mut c = SetAssocCache::<u64>::new(CacheGeometry::new(8, 1));
        for tag in 0..8u64 {
            c.access(tag);
        }
        for tag in 0..8u64 {
            assert!(c.probe(tag), "tag {tag} displaced under mask indexing");
        }
        c.access(8); // 8 % 8 == 0: must evict tag 0 only
        assert!(!c.probe(0));
        for tag in 1..8u64 {
            assert!(c.probe(tag));
        }
    }

    #[test]
    fn sets_keep_recency_order() {
        // One 3-way set filled as 1, 2, 3 and re-touched as 1: LRU order
        // is 2, 3, 1, so two more tags evict 2 then 3.
        let mut c = SetAssocCache::<u64>::new(CacheGeometry::full(3));
        for tag in [1, 2, 3, 1] {
            c.access(tag);
        }
        c.access(4);
        assert!(!c.probe(2));
        c.access(5);
        assert!(!c.probe(3));
        assert!(c.probe(1) && c.probe(4) && c.probe(5));
    }

    #[test]
    #[should_panic(expected = "not a storable cache tag")]
    fn the_top_tag_is_refused() {
        SetAssocCache::<u32>::new(CacheGeometry::full(2)).access(u32::MAX);
    }

    #[test]
    fn working_set_within_capacity_always_hits_once_warm() {
        let mut c = SetAssocCache::<u64>::new(CacheGeometry::new(64, 4));
        for round in 0..3 {
            for tag in 0..64u64 {
                let hit = c.access(tag);
                if round > 0 {
                    assert!(hit, "warm round {round} tag {tag} missed");
                }
            }
        }
    }
}
