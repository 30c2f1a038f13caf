//! The physically indexed L1d/L2/L3/DRAM hierarchy.

use vmcore::PhysAddr;

use crate::platform::line_count;
use crate::{CacheGeometry, CacheLatencies, Platform, SetAssocCache};

/// Where a memory reference was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1d,
    /// Served by the unified L2.
    L2,
    /// Served by the shared L3.
    L3,
    /// Served by main memory.
    Dram,
}

/// Per-level reference counts for one requester class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadCounts {
    /// References that reached the L1d (i.e. all of them).
    pub l1d: u64,
    /// References that missed L1d and reached L2.
    pub l2: u64,
    /// References that missed L2 and reached L3.
    pub l3: u64,
    /// References that missed L3 and reached DRAM.
    pub dram: u64,
}

/// A three-level cache hierarchy with a flat DRAM behind it. Each level
/// fills on its own miss: a reference looks up L1d, then L2, then L3,
/// and stops at the first hit, so every level it missed now holds the
/// line and the levels past the hit are not touched. No eviction
/// invalidates the other levels, so the hierarchy is not inclusive: an
/// inner level can keep a line the L3 has evicted.
///
/// Program data and page-walker references flow through the *same* caches,
/// so walker traffic evicts program lines — the pollution effect the paper
/// measures in Table 7. Counts are kept separately per requester.
///
/// Line tags are `u32`: [`PageTable`](crate::PageTable) places every
/// physical address below 128 GiB, so a line number needs 31 bits.
/// [`MemoryHierarchy::access`] checks the conversion.
///
/// # Example
///
/// ```
/// use memsim::{MemoryHierarchy, HitLevel, Platform};
/// use vmcore::PhysAddr;
///
/// let mut mem = MemoryHierarchy::new(&Platform::SANDY_BRIDGE);
/// let (level, lat) = mem.access(PhysAddr::new(0x1000), false);
/// assert_eq!(level, HitLevel::Dram); // cold
/// let (level, warm_lat) = mem.access(PhysAddr::new(0x1000), false);
/// assert_eq!(level, HitLevel::L1d);
/// assert!(warm_lat < lat);
/// ```
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    l1d: SetAssocCache<u32>,
    l2: SetAssocCache<u32>,
    l3: SetAssocCache<u32>,
    lat: CacheLatencies,
    program: LoadCounts,
    walker: LoadCounts,
}

impl MemoryHierarchy {
    /// Builds the hierarchy for a platform (64-byte lines throughout).
    ///
    /// # Panics
    ///
    /// Panics if a cache size is not a whole number of lines or has more
    /// lines than a `u32` counts; [`Platform::validate`] rejects both.
    pub fn new(platform: &Platform) -> Self {
        let cache = |name: &str, bytes: u64, ways: u32| {
            let lines = line_count(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            SetAssocCache::new(CacheGeometry::new(lines, ways))
        };
        MemoryHierarchy {
            l1d: cache("l1d", platform.l1d_bytes, platform.l1d_ways),
            l2: cache("l2", platform.l2_bytes, platform.l2_ways),
            l3: cache("l3", platform.l3_bytes, platform.l3_ways),
            lat: platform.lat,
            program: LoadCounts::default(),
            walker: LoadCounts::default(),
        }
    }

    /// Performs one reference to `addr`, filling every level it missed
    /// on the way (an L2 hit leaves the L3 untouched). `is_walker`
    /// selects the counter class.
    ///
    /// Returns the satisfying level and its load-to-use latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies at or above 256 GiB, where a line number
    /// no longer fits the 32-bit tags.
    #[inline]
    pub fn access(&mut self, addr: PhysAddr, is_walker: bool) -> (HitLevel, u32) {
        let line = u32::try_from(addr.cache_line())
            .expect("physical address beyond the 32-bit line tags (PageTable stays below 128 GiB)");
        let counts = if is_walker {
            &mut self.walker
        } else {
            &mut self.program
        };
        counts.l1d += 1;
        if self.l1d.access(line) {
            return (HitLevel::L1d, self.lat.l1d);
        }
        counts.l2 += 1;
        if self.l2.access(line) {
            return (HitLevel::L2, self.lat.l2);
        }
        counts.l3 += 1;
        if self.l3.access(line) {
            return (HitLevel::L3, self.lat.l3);
        }
        counts.dram += 1;
        (HitLevel::Dram, self.lat.dram)
    }

    /// The latency of a hit at `level`.
    pub fn latency_of(&self, level: HitLevel) -> u32 {
        match level {
            HitLevel::L1d => self.lat.l1d,
            HitLevel::L2 => self.lat.l2,
            HitLevel::L3 => self.lat.l3,
            HitLevel::Dram => self.lat.dram,
        }
    }

    /// Program-issued load counts.
    pub fn program_loads(&self) -> LoadCounts {
        self.program
    }

    /// Walker-issued load counts.
    pub fn walker_loads(&self) -> LoadCounts {
        self.walker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_platform() -> Platform {
        // A shrunken hierarchy so eviction tests are cheap.
        Platform {
            l1d_bytes: 1 << 10, // 16 lines
            l2_bytes: 4 << 10,  // 64 lines
            l3_bytes: 16 << 10, // 256 lines
            l1d_ways: 2,
            l2_ways: 4,
            l3_ways: 4,
            ..Platform::SANDY_BRIDGE
        }
    }

    #[test]
    fn fill_path_promotes_to_all_levels() {
        let mut mem = MemoryHierarchy::new(&small_platform());
        let a = PhysAddr::new(0x10_000);
        assert_eq!(mem.access(a, false).0, HitLevel::Dram);
        assert_eq!(mem.access(a, false).0, HitLevel::L1d);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut mem = MemoryHierarchy::new(&small_platform());
        let a = PhysAddr::new(0);
        mem.access(a, false);
        // Stream enough conflicting lines through L1 to evict `a` from L1
        // but not from L2 (same L1 set: stride = l1_sets * 64 = 8 * 64).
        for i in 1..=2u64 {
            mem.access(PhysAddr::new(i * 8 * 64), false);
        }
        let (level, _) = mem.access(a, false);
        assert_eq!(level, HitLevel::L2);
    }

    #[test]
    fn walker_and_program_counted_separately() {
        let mut mem = MemoryHierarchy::new(&small_platform());
        mem.access(PhysAddr::new(0x100), false);
        mem.access(PhysAddr::new(0x2000), true);
        mem.access(PhysAddr::new(0x2000), true);
        assert_eq!(mem.program_loads().l1d, 1);
        assert_eq!(mem.program_loads().dram, 1);
        assert_eq!(mem.walker_loads().l1d, 2);
        assert_eq!(mem.walker_loads().dram, 1);
    }

    #[test]
    fn walker_traffic_evicts_program_lines() {
        // The pollution effect: after the walker streams through a set,
        // the program line that used to hit in L1 no longer does.
        let mut mem = MemoryHierarchy::new(&small_platform());
        let a = PhysAddr::new(0);
        mem.access(a, false);
        assert_eq!(mem.access(a, false).0, HitLevel::L1d);
        for i in 1..=4u64 {
            mem.access(PhysAddr::new(i * 8 * 64), true);
        }
        assert!(mem.access(a, false).0 > HitLevel::L1d);
    }

    #[test]
    fn latencies_are_monotone() {
        let mem = MemoryHierarchy::new(&Platform::BROADWELL);
        assert!(mem.latency_of(HitLevel::L1d) < mem.latency_of(HitLevel::L2));
        assert!(mem.latency_of(HitLevel::L2) < mem.latency_of(HitLevel::L3));
        assert!(mem.latency_of(HitLevel::L3) < mem.latency_of(HitLevel::Dram));
    }

    #[test]
    #[should_panic(expected = "l2: 262176 bytes is not a whole number")]
    fn constructor_rejects_a_size_that_is_not_whole_lines() {
        MemoryHierarchy::new(&Platform {
            l2_bytes: (256 << 10) + 32,
            ..Platform::SANDY_BRIDGE
        });
    }

    #[test]
    #[should_panic(expected = "l3: 4294967296 lines do not fit in a u32")]
    fn constructor_rejects_a_line_count_beyond_u32() {
        MemoryHierarchy::new(&Platform {
            l3_bytes: 64 << 32,
            l3_ways: 16,
            ..Platform::SANDY_BRIDGE
        });
    }

    #[test]
    fn top_of_the_simulated_physical_space_is_cacheable() {
        let mut mem = MemoryHierarchy::new(&small_platform());
        let top = PhysAddr::new((128 << 30) - 64);
        assert_eq!(mem.access(top, false).0, HitLevel::Dram);
        assert_eq!(mem.access(top, false).0, HitLevel::L1d);
    }

    #[test]
    #[should_panic(expected = "beyond the 32-bit line tags")]
    fn addresses_past_the_line_tag_range_are_refused() {
        MemoryHierarchy::new(&small_platform()).access(PhysAddr::new(256 << 30), false);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut mem = MemoryHierarchy::new(&small_platform());
        mem.access(PhysAddr::new(0x40), false);
        assert_eq!(mem.access(PhysAddr::new(0x7f), false).0, HitLevel::L1d);
        assert_eq!(mem.access(PhysAddr::new(0x80), false).0, HitLevel::Dram);
    }
}
