//! Generic set-associative LRU cache.
//!
//! One implementation serves every lookup structure in the simulator:
//! data caches (tag = physical line number, `u32`), TLBs (tag = virtual
//! page number, `u64`) and page-walk caches (tag = VA prefix, `u64`).
//!
//! The state is compact and set-major. Each way is a `(tag, stamp)`
//! pair and a set's ways are contiguous, so a lookup touches only its own
//! set's bytes. The array is allocated zeroed: LRU stamp 0 means
//! "invalid" and every valid stamp is at least 1. Stamps are 32-bit; when
//! the clock would overflow, each set's stamps are renumbered `1..=k` in
//! their existing order. Stamps only order the ways within one set, so no
//! replacement decision changes.

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
/// [`crate::MemoryHierarchy`]).
pub trait CacheTag: Copy + Eq + Default + fmt::Debug + Into<u64> {}

impl CacheTag for u64 {}

impl CacheTag for u32 {}

/// One way of a set: its tag and LRU stamp (higher = more recent). Stamp
/// 0 marks an invalid way, whose tag means nothing. A tuple rather than a
/// struct so that `vec![(0, 0); n]` takes the zeroed-allocation path.
type Way<T> = (T, u32);

/// Whether `way` holds `tag`; an invalid way holds nothing.
#[inline]
fn holds<T: CacheTag>((t, stamp): Way<T>, tag: T) -> bool {
    t == tag && stamp != 0
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
    /// `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Way<T>>,
    /// The last stamp handed out.
    clock: u32,
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
        Self::with_clock(geometry, 0)
    }

    /// Creates an empty cache whose LRU clock starts at `clock`. No
    /// replacement decision depends on the starting value; a start just
    /// below `u32::MAX` drives the cache across the clock's overflow
    /// without four billion accesses. A test hook, not a tuning option.
    #[doc(hidden)]
    pub fn with_clock(geometry: CacheGeometry, clock: u32) -> Self {
        let sets = u64::from(geometry.sets());
        SetAssocCache {
            geometry,
            lines: vec![(T::default(), 0); geometry.entries as usize],
            clock,
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
        self.access_locating(tag).0
    }

    /// Like [`SetAssocCache::access`], but also returns the global slot
    /// index (`set * ways + way`) where `tag` resides after the call —
    /// its hit position, or the way it was just inserted into. The slot
    /// stays valid until another tag evicts it, which callers detect by
    /// re-checking with [`SetAssocCache::hit_at`].
    #[inline]
    pub fn access_locating(&mut self, tag: T) -> (bool, u32) {
        let (hit, slot) = self.touch(tag);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        (hit, slot)
    }

    /// O(1) re-lookup through a slot previously returned by
    /// [`SetAssocCache::access_locating`]. If `slot` still holds `tag`,
    /// this performs exactly the state transition of a hitting
    /// [`SetAssocCache::access`] (clock advance, LRU re-stamp, hit
    /// count) and returns `true`. Otherwise the cache is untouched and
    /// the caller must fall back to the full lookup.
    #[inline]
    pub fn hit_at(&mut self, slot: u32, tag: T) -> bool {
        let slot = slot as usize;
        let resident = self.lines.get(slot).is_some_and(|&way| holds(way, tag));
        if resident {
            let stamp = self.tick();
            self.lines[slot].1 = stamp;
            self.hits += 1;
        }
        resident
    }

    /// Looks up `tag` without inserting on miss. Does not update stats.
    #[inline]
    pub fn probe(&self, tag: T) -> bool {
        let start = self.set_start(tag);
        self.lines[start..start + self.ways]
            .iter()
            .any(|&way| holds(way, tag))
    }

    /// Inserts `tag` unconditionally (used for fills from outer levels).
    #[inline]
    pub fn insert(&mut self, tag: T) {
        self.touch(tag);
    }

    /// Invalidates every entry but keeps statistics.
    pub fn flush(&mut self) {
        self.lines.fill((T::default(), 0));
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
        self.lines.iter().filter(|&&(_, stamp)| stamp != 0).count()
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

    /// Advances the clock and returns the new stamp.
    #[inline]
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            self.rebase();
        }
        self.clock += 1;
        self.clock
    }

    /// Renumbers each set's valid stamps `1..=k` in their existing order
    /// and restarts the clock above every renumbered stamp.
    #[cold]
    fn rebase(&mut self) {
        let mut order: Vec<usize> = Vec::with_capacity(self.ways);
        for set in self.lines.chunks_exact_mut(self.ways) {
            order.clear();
            order.extend((0..set.len()).filter(|&way| set[way].1 != 0));
            order.sort_unstable_by_key(|&way| set[way].1);
            for (stamp, &way) in (1..).zip(&order) {
                set[way].1 = stamp;
            }
        }
        self.clock = self.geometry.ways;
    }

    /// Core lookup: on a miss inserts `tag` over the set's victim, the
    /// first way with the minimum stamp. Invalid ways have stamp 0 and
    /// valid ones at least 1, so that is the first invalid way if there
    /// is one, else the LRU way. Returns hit status and the global slot
    /// now holding `tag`.
    ///
    /// One pass over the set, with no early exit, finds both the hit way
    /// and the victim: the loop body is branch-free, where stopping at a
    /// data-dependent way mispredicts on most lookups. A valid tag lives
    /// in at most one way, so the hit way is unique, and the strict `<`
    /// keeps the first way with the minimum stamp as the victim.
    #[inline]
    fn touch(&mut self, tag: T) -> (bool, u32) {
        let stamp = self.tick();
        let start = self.set_start(tag);
        let set = &mut self.lines[start..start + self.ways];
        let mut found = usize::MAX;
        let (mut victim, mut min) = (0, u32::MAX);
        for (i, &way) in set.iter().enumerate() {
            if holds(way, tag) {
                found = i;
            }
            if way.1 < min {
                (victim, min) = (i, way.1);
            }
        }
        let hit = found != usize::MAX;
        let way = if hit { found } else { victim };
        set[way] = (tag, stamp);
        (hit, (start + way) as u32)
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
        // Fresh ways hold tag 0 with stamp 0: the stamp, not the tag,
        // decides validity.
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
    fn hit_at_is_equivalent_to_a_hitting_access() {
        // Drive two identical caches through the same sequence, one via
        // plain access, one via the slot fast path, and require the full
        // observable state (probe results, stats, later evictions) to
        // match exactly.
        let geometry = CacheGeometry::new(8, 2);
        let mut plain = SetAssocCache::<u64>::new(geometry);
        let mut fast = SetAssocCache::<u64>::new(geometry);
        let tags = [3u64, 7, 3, 11, 3, 15, 19, 3, 7, 23, 3];
        let mut last_slot: Option<(u64, u32)> = None;
        for &tag in &tags {
            let want = plain.access(tag);
            let got = match last_slot {
                Some((memo_tag, slot)) if memo_tag == tag && fast.hit_at(slot, tag) => {
                    // The fast path only fires on a re-hit; remember the
                    // slot unchanged.
                    true
                }
                _ => {
                    let (hit, slot) = fast.access_locating(tag);
                    last_slot = Some((tag, slot));
                    hit
                }
            };
            assert_eq!(got, want, "divergence at tag {tag}");
        }
        assert_eq!(plain.hits(), fast.hits());
        assert_eq!(plain.misses(), fast.misses());
        for tag in [3u64, 7, 11, 15, 19, 23] {
            assert_eq!(plain.probe(tag), fast.probe(tag), "residency of {tag}");
        }
    }

    #[test]
    fn hit_at_rejects_stale_slot() {
        let mut c = SetAssocCache::<u64>::new(CacheGeometry::full(2));
        let (_, slot) = c.access_locating(1);
        c.access(2);
        c.access(3); // evicts 1 (the LRU)
        assert!(!c.probe(1));
        let hits_before = c.hits();
        assert!(!c.hit_at(slot, 1), "stale slot must not fake a hit");
        assert_eq!(c.hits(), hits_before, "stale hit_at must not touch stats");
    }

    #[test]
    fn hit_at_rejects_a_flushed_slot() {
        let mut c = SetAssocCache::<u32>::new(CacheGeometry::full(2));
        let (_, slot) = c.access_locating(0);
        c.flush();
        assert!(!c.hit_at(slot, 0), "an invalid way must not hit tag 0");
        assert_eq!(c.hits(), 0);
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
    fn rebase_keeps_each_sets_lru_order() {
        // One 3-way set filled as 1, 2, 3 and re-touched as 1: LRU order
        // is 2, 3, 1. Cross the clock overflow, then insert two tags; they
        // must evict 2 then 3.
        let mut c = SetAssocCache::<u64>::with_clock(CacheGeometry::full(3), u32::MAX - 4);
        for tag in [1, 2, 3, 1] {
            c.access(tag);
        }
        c.access(4); // the tick that rebases
        assert!(!c.probe(2));
        c.access(5);
        assert!(!c.probe(3));
        assert!(c.probe(1) && c.probe(4) && c.probe(5));
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
