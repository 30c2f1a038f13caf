//! L1 (split per page size) and L2 (unified) translation lookaside buffers.

use vmcore::{PageSize, VirtAddr};

use crate::{CacheGeometry, Platform, SetAssocCache, StlbGeometry};

/// A single TLB array indexed by virtual page number.
///
/// # Example
///
/// ```
/// use memsim::{Tlb};
/// use vmcore::{PageSize, VirtAddr};
///
/// let mut tlb = Tlb::new(64, 4, PageSize::Base4K);
/// let va = VirtAddr::new(0x5000);
/// assert!(!tlb.access(va));
/// assert!(tlb.access(va));
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    cache: SetAssocCache<u64>,
    size: PageSize,
}

impl Tlb {
    /// Creates a TLB with `entries`/`ways` for translations of `size`.
    pub fn new(entries: u32, ways: u32, size: PageSize) -> Self {
        Tlb {
            cache: SetAssocCache::new(CacheGeometry::new(entries, ways)),
            size,
        }
    }

    /// The page size this TLB translates.
    pub fn page_size(&self) -> PageSize {
        self.size
    }

    /// Looks up `va`; inserts the translation on miss. Returns hit status.
    #[inline]
    pub fn access(&mut self, va: VirtAddr) -> bool {
        self.cache.access(va.page_number(self.size))
    }

    /// Looks up without filling.
    pub fn probe(&self, va: VirtAddr) -> bool {
        self.cache.probe(va.page_number(self.size))
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.cache.misses()
    }
}

/// The unified second-level TLB with its generation-specific page-size
/// policy (see [`StlbGeometry`]).
///
/// 4KB and (on Haswell+) 2MB translations share the main array — sharing
/// is modelled by tagging entries with the page size so that different
/// sizes occupy (and evict from) the same physical entries, as in the
/// "shared" rows of paper Table 4. 1GB translations use the dedicated
/// array when present.
#[derive(Clone, Debug)]
pub struct Stlb {
    geometry: StlbGeometry,
    main: SetAssocCache<u64>,
    huge1g: Option<SetAssocCache<u64>>,
    hits: u64,
    misses: u64,
    uncovered: u64,
}

impl Stlb {
    /// Creates the STLB for a platform.
    pub fn new(platform: &Platform) -> Self {
        let g = platform.stlb;
        let main = SetAssocCache::new(CacheGeometry::new(g.entries, g.ways));
        let huge1g =
            (g.entries_1g > 0).then(|| SetAssocCache::new(CacheGeometry::full(g.entries_1g)));
        Stlb {
            geometry: g,
            main,
            huge1g,
            hits: 0,
            misses: 0,
            uncovered: 0,
        }
    }

    /// The configured geometry.
    pub fn geometry(&self) -> StlbGeometry {
        self.geometry
    }

    /// Looks up the translation of `va` (page size `size`), filling on
    /// miss. Returns hit status. A lookup for a page size the STLB cannot
    /// hold always misses (and does not fill).
    pub fn access(&mut self, va: VirtAddr, size: PageSize) -> bool {
        if !self.geometry.covers(size) {
            self.uncovered += 1;
            self.misses += 1;
            return false;
        }
        let hit = match (size, &mut self.huge1g) {
            (PageSize::Huge1G, Some(array)) => array.access(va.page_number(size)),
            _ => self.main.access(Self::shared_tag(va, size)),
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Lifetime hits (the `H` building block).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime misses (the `M` building block).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Misses caused purely by the page size not being held in the STLB.
    pub fn uncovered_misses(&self) -> u64 {
        self.uncovered
    }

    /// Checks (without filling or counting) whether the translation is
    /// already cached — used by the prefetcher to avoid duplicate walks.
    pub fn probe_covered(&self, va: VirtAddr, size: PageSize) -> bool {
        if !self.geometry.covers(size) {
            return false;
        }
        match (size, &self.huge1g) {
            (PageSize::Huge1G, Some(array)) => array.probe(va.page_number(size)),
            _ => self.main.probe(Self::shared_tag(va, size)),
        }
    }

    /// Installs a translation without counting a hit or a miss (the
    /// prefetcher's fill path). Sizes the STLB cannot hold are ignored.
    pub fn install(&mut self, va: VirtAddr, size: PageSize) {
        if !self.geometry.covers(size) {
            return;
        }
        match (size, &mut self.huge1g) {
            (PageSize::Huge1G, Some(array)) => array.insert(va.page_number(size)),
            _ => self.main.insert(Self::shared_tag(va, size)),
        }
    }

    /// Tags shared-array entries so 4KB and 2MB translations coexist
    /// without aliasing: the size is folded into the tag's high bits while
    /// the set index still derives from the page number.
    fn shared_tag(va: VirtAddr, size: PageSize) -> u64 {
        let vpn = va.page_number(size);
        let size_bits: u64 = match size {
            PageSize::Base4K => 0,
            PageSize::Huge2M => 1,
            PageSize::Huge1G => 2,
        };
        (vpn & 0x00ff_ffff_ffff_ffff) | (size_bits << 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_tlb_capacity_behaviour() {
        // 4-entry fully-assoc TLB: a 4-page working set always hits warm,
        // a 5-page LRU-cycled set always misses.
        let mut tlb = Tlb::new(4, 4, PageSize::Base4K);
        let pages: Vec<VirtAddr> = (0..4).map(|i| VirtAddr::new(i * 4096)).collect();
        for p in &pages {
            tlb.access(*p);
        }
        for p in &pages {
            assert!(tlb.access(*p));
        }
        let mut tlb = Tlb::new(4, 4, PageSize::Base4K);
        for round in 0..3 {
            for i in 0..5u64 {
                let hit = tlb.access(VirtAddr::new(i * 4096));
                if round > 0 {
                    assert!(!hit, "LRU cycling over capacity must thrash");
                }
            }
        }
    }

    #[test]
    fn tlb_distinguishes_page_granularity() {
        let mut tlb = Tlb::new(16, 4, PageSize::Huge2M);
        tlb.access(VirtAddr::new(0));
        // Same 2MB page, different 4KB page: still a hit.
        assert!(tlb.access(VirtAddr::new(0x1f_f000)));
        // Next 2MB page: miss.
        assert!(!tlb.access(VirtAddr::new(0x20_0000)));
    }

    #[test]
    fn snb_stlb_rejects_2m() {
        let mut stlb = Stlb::new(&Platform::SANDY_BRIDGE);
        let va = VirtAddr::new(0x20_0000);
        assert!(!stlb.access(va, PageSize::Huge2M));
        assert!(!stlb.access(va, PageSize::Huge2M), "2MB never fills on SNB");
        assert_eq!(stlb.uncovered_misses(), 2);
        // 4KB translations do fill.
        assert!(!stlb.access(va, PageSize::Base4K));
        assert!(stlb.access(va, PageSize::Base4K));
    }

    #[test]
    fn haswell_stlb_shares_4k_and_2m() {
        let mut stlb = Stlb::new(&Platform::HASWELL);
        let va = VirtAddr::new(0x40_0000);
        assert!(!stlb.access(va, PageSize::Huge2M));
        assert!(stlb.access(va, PageSize::Huge2M));
        // A 4KB translation of the same address is a distinct entry.
        assert!(!stlb.access(va, PageSize::Base4K));
        assert!(stlb.access(va, PageSize::Base4K));
        // And did not evict the 2MB entry.
        assert!(stlb.access(va, PageSize::Huge2M));
    }

    #[test]
    fn broadwell_has_dedicated_1g_array() {
        let mut stlb = Stlb::new(&Platform::BROADWELL);
        let va = VirtAddr::new(3 << 30);
        assert!(!stlb.access(va, PageSize::Huge1G));
        assert!(stlb.access(va, PageSize::Huge1G));
        // Haswell cannot hold 1GB entries at L2.
        let mut hsw = Stlb::new(&Platform::HASWELL);
        assert!(!hsw.access(va, PageSize::Huge1G));
        assert!(!hsw.access(va, PageSize::Huge1G));
    }

    #[test]
    fn install_and_probe_do_not_touch_counters() {
        let mut stlb = Stlb::new(&Platform::HASWELL);
        let va = VirtAddr::new(0x123_4000);
        assert!(!stlb.probe_covered(va, PageSize::Base4K));
        stlb.install(va, PageSize::Base4K);
        assert!(stlb.probe_covered(va, PageSize::Base4K));
        assert_eq!(stlb.hits() + stlb.misses(), 0, "silent fill");
        // A demand access now hits.
        assert!(stlb.access(va, PageSize::Base4K));
        // Uncovered sizes are ignored gracefully.
        let mut snb = Stlb::new(&Platform::SANDY_BRIDGE);
        snb.install(va, PageSize::Huge2M);
        assert!(!snb.probe_covered(va, PageSize::Huge2M));
    }

    #[test]
    fn stlb_hit_miss_counters() {
        let mut stlb = Stlb::new(&Platform::HASWELL);
        let va = VirtAddr::new(0x1000);
        stlb.access(va, PageSize::Base4K);
        stlb.access(va, PageSize::Base4K);
        assert_eq!(stlb.misses(), 1);
        assert_eq!(stlb.hits(), 1);
    }
}
