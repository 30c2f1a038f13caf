//! The assembled virtual-memory subsystem: TLBs + walk caches + page table
//! + walker + memory hierarchy.

use vmcore::{PageSize, VirtAddr};

use crate::{HitLevel, MemoryHierarchy, NestedWalker, PageTable, Platform, Stlb, Tlb, WalkCaches};

/// How one translation was resolved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Translation {
    /// Hit in the (free) first-level TLB.
    L1Hit,
    /// Missed L1, hit the second-level TLB: costs the STLB latency and
    /// counts one `H` event.
    StlbHit {
        /// The STLB lookup latency in cycles (7 on all paper machines).
        latency: u32,
    },
    /// Missed both TLB levels: the hardware walker ran. Counts one `M`
    /// event and [`WalkInfo::cycles`] walk cycles.
    Walk {
        /// Details of the page walk.
        info: WalkInfo,
    },
}

/// The cost breakdown of one hardware page walk.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WalkInfo {
    /// Total serialized walk latency in cycles (the four page-table
    /// references are dependent, so their latencies add — paper §II-B).
    pub cycles: u32,
    /// Page-table references issued (after walk-cache skips), 1..=4.
    pub refs: u32,
    /// References of this walk served by each hierarchy level.
    pub refs_l1d: u32,
    /// References served by L2.
    pub refs_l2: u32,
    /// References served by L3.
    pub refs_l3: u32,
    /// References served by DRAM.
    pub refs_dram: u32,
}

/// Result of a combined translate-and-load operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccessOutcome {
    /// How the address was translated.
    pub translation: Translation,
    /// Which level served the program's data reference.
    pub data_level: HitLevel,
    /// Load-to-use latency of the data reference.
    pub data_latency: u32,
}

/// The full partial simulator for one core of one platform.
///
/// This is the component a paper author would call "the partial simulator":
/// it reproduces only the virtual-memory subsystem (plus the memory
/// hierarchy needed to price page walks) and reports per-event costs. It
/// deliberately knows nothing about instruction timing; see the `machine`
/// crate for the execution engine.
#[derive(Clone, Debug)]
pub struct MemorySubsystem {
    stlb_latency: u32,
    l1_4k: Tlb,
    l1_2m: Tlb,
    l1_1g: Tlb,
    stlb: Stlb,
    pwc: WalkCaches,
    page_table: PageTable,
    memory: MemoryHierarchy,
    /// When set, the machine runs virtualized: TLB misses take 2D walks
    /// and data addresses compose guest and host translation.
    nested: Option<NestedWalker>,
    /// Next-page TLB prefetcher (hypothetical design; see
    /// [`Platform::tlb_prefetch`]).
    prefetch: bool,
    /// Prefetches issued (for design-study diagnostics).
    prefetches: u64,
}

/// The page-table placement salt of [`MemorySubsystem::new`] and of a
/// default-configured engine.
pub const DEFAULT_SALT: u64 = 0x6d6f_7361_6963;

impl MemorySubsystem {
    /// Builds the subsystem for `platform` with [`DEFAULT_SALT`].
    pub fn new(platform: &Platform) -> Self {
        Self::with_salt(platform, DEFAULT_SALT)
    }

    /// Builds the subsystem with an explicit page-table placement salt
    /// (different salts model different physical-memory layouts).
    pub fn with_salt(platform: &Platform, salt: u64) -> Self {
        MemorySubsystem {
            stlb_latency: platform.stlb_latency,
            l1_4k: Tlb::new(
                platform.l1_tlb_4k.entries,
                platform.l1_tlb_4k.ways,
                PageSize::Base4K,
            ),
            l1_2m: Tlb::new(
                platform.l1_tlb_2m.entries,
                platform.l1_tlb_2m.ways,
                PageSize::Huge2M,
            ),
            l1_1g: Tlb::new(
                platform.l1_tlb_1g.entries,
                platform.l1_tlb_1g.ways,
                PageSize::Huge1G,
            ),
            stlb: Stlb::new(platform),
            pwc: WalkCaches::new(platform.pwc),
            page_table: PageTable::new(salt),
            memory: MemoryHierarchy::new(platform),
            nested: None,
            prefetch: platform.tlb_prefetch,
            prefetches: 0,
        }
    }

    /// Builds a **virtualized** subsystem: translations that miss both
    /// TLBs take two-dimensional (guest x host) walks, with the guest's
    /// memory backed by `host_backing` pages on the host side. `salt`
    /// places both page tables, as [`Self::with_salt`] places the native
    /// one.
    pub fn virtualized(platform: &Platform, host_backing: PageSize, salt: u64) -> Self {
        let mut vm = Self::with_salt(platform, salt);
        vm.nested = Some(NestedWalker::new(platform, host_backing, salt));
        vm
    }

    /// Whether this subsystem models virtualized execution.
    pub fn is_virtualized(&self) -> bool {
        self.nested.is_some()
    }

    /// Translates `va` (mapped with `size` pages), exercising the TLBs and
    /// — on a full miss — the walk caches, page table and memory
    /// hierarchy. Walker references pollute the data caches.
    #[inline]
    pub fn translate(&mut self, va: VirtAddr, size: PageSize) -> Translation {
        let l1 = match size {
            PageSize::Base4K => &mut self.l1_4k,
            PageSize::Huge2M => &mut self.l1_2m,
            PageSize::Huge1G => &mut self.l1_1g,
        };
        if l1.access(va) {
            return Translation::L1Hit;
        }
        // An L1 miss: the hypothetical next-page prefetcher walks the
        // *next* page's translation in the background and installs it in
        // the STLB. The prefetch walk touches the same walk caches and
        // memory hierarchy (its cost is bandwidth/pollution, not latency
        // — it is off the demand critical path).
        if self.prefetch && self.nested.is_none() {
            let next = VirtAddr::new(va.align_down(size).raw().wrapping_add(size.bytes()));
            if !self.stlb.probe_covered(next, size) {
                let refs = self.pwc.lookup_and_fill(next, size);
                let path = self.page_table.walk_path(next, size);
                let skip = path.len() - refs as usize;
                for addr in &path[skip..] {
                    self.memory.access(*addr, true);
                }
                self.stlb.install(next, size);
                self.prefetches += 1;
            }
        }
        if self.stlb.access(va, size) {
            return Translation::StlbHit {
                latency: self.stlb_latency,
            };
        }
        // Full miss: walk. Under virtualization the nested walker takes
        // over (it keeps its own guest-side MMU caches).
        if let Some(nested) = &mut self.nested {
            let nw = nested.walk(va, size, &mut self.memory);
            let info = WalkInfo {
                cycles: nw.cycles,
                refs: nw.total_refs(),
                // Level attribution is folded into the aggregate for 2D
                // walks; Table 7 experiments run native.
                ..WalkInfo::default()
            };
            return Translation::Walk { info };
        }
        // The walk caches decide how many references the
        // walker issues; each reference goes through the hierarchy and the
        // latencies add up (dependent loads).
        let refs_needed = self.pwc.lookup_and_fill(va, size);
        let path = self.page_table.walk_path(va, size);
        let skip = path.len() - refs_needed as usize;
        let mut info = WalkInfo {
            refs: refs_needed,
            ..WalkInfo::default()
        };
        for addr in &path[skip..] {
            let (level, lat) = self.memory.access(*addr, true);
            info.cycles += lat;
            match level {
                HitLevel::L1d => info.refs_l1d += 1,
                HitLevel::L2 => info.refs_l2 += 1,
                HitLevel::L3 => info.refs_l3 += 1,
                HitLevel::Dram => info.refs_dram += 1,
            }
        }
        Translation::Walk { info }
    }

    /// Performs the program's data reference for `va` (already
    /// translated), returning the serving level and latency.
    #[inline]
    pub fn data_access(&mut self, va: VirtAddr, size: PageSize) -> (HitLevel, u32) {
        let pa = match &self.nested {
            Some(nested) => nested.compose_translate(va, size),
            None => self.page_table.translate(va, size),
        };
        self.memory.access(pa, false)
    }

    /// Translate-then-load convenience wrapper.
    pub fn access(&mut self, va: VirtAddr, size: PageSize) -> AccessOutcome {
        let translation = self.translate(va, size);
        let (data_level, data_latency) = self.data_access(va, size);
        AccessOutcome {
            translation,
            data_level,
            data_latency,
        }
    }

    /// The memory hierarchy (for counter readout).
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.memory
    }

    /// The second-level TLB (for counter readout).
    pub fn stlb(&self) -> &Stlb {
        &self.stlb
    }

    /// The page table (for address-placement queries).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Prefetch walks issued so far (zero unless the platform enables
    /// the hypothetical TLB prefetcher).
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_warm_sequence() {
        let mut vm = MemorySubsystem::new(&Platform::HASWELL);
        let va = VirtAddr::new(0x1000_0000);
        let cold = vm.translate(va, PageSize::Base4K);
        assert!(matches!(cold, Translation::Walk { .. }));
        let warm = vm.translate(va, PageSize::Base4K);
        assert!(matches!(warm, Translation::L1Hit));
    }

    #[test]
    fn l1_eviction_leads_to_stlb_hit() {
        let mut vm = MemorySubsystem::new(&Platform::HASWELL);
        // Touch 65 pages: first page is evicted from the 64-entry L1 but
        // still in the 1024-entry STLB.
        // Use a stride that cycles all L1 sets uniformly.
        for i in 0..65u64 {
            vm.translate(VirtAddr::new(i * 4096), PageSize::Base4K);
        }
        // Touch more pages mapping to page 0's L1 set to guarantee eviction.
        for i in 1..=4u64 {
            vm.translate(VirtAddr::new(i * 16 * 4096), PageSize::Base4K);
        }
        let out = vm.translate(VirtAddr::new(0), PageSize::Base4K);
        assert!(
            matches!(out, Translation::StlbHit { latency: 7 }),
            "expected STLB hit, got {out:?}"
        );
    }

    #[test]
    fn walk_latency_bounded_by_dram_refs() {
        let mut vm = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
        match vm.translate(VirtAddr::new(0x7f00_0000_0000), PageSize::Base4K) {
            Translation::Walk { info } => {
                assert_eq!(info.refs, 4, "cold walk references all levels");
                assert!(info.cycles >= 4 * 4, "at least L1 latency each");
                assert!(info.cycles <= 4 * 220, "at most DRAM latency each");
                assert_eq!(
                    info.refs_l1d + info.refs_l2 + info.refs_l3 + info.refs_dram,
                    info.refs
                );
            }
            other => panic!("expected walk, got {other:?}"),
        }
    }

    #[test]
    fn warm_pwc_makes_neighbour_walks_cheap() {
        let mut vm = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
        vm.translate(VirtAddr::new(0x10_0000_0000), PageSize::Base4K);
        // Far enough to miss TLBs? No — consecutive page, misses L1? It
        // was never inserted. Use a page 100 pages away in the same 2MB
        // region, guaranteed TLB-cold but PDE-cached.
        match vm.translate(VirtAddr::new(0x10_0006_4000), PageSize::Base4K) {
            Translation::Walk { info } => assert_eq!(info.refs, 1, "PDE cache skips 3 refs"),
            other => panic!("expected walk, got {other:?}"),
        }
    }

    #[test]
    fn hugepages_walk_fewer_levels() {
        let mut vm = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
        match vm.translate(VirtAddr::new(0x40_0000_0000), PageSize::Huge1G) {
            Translation::Walk { info } => assert!(info.refs <= 2),
            other => panic!("expected walk, got {other:?}"),
        }
    }

    #[test]
    fn snb_2m_l1_miss_walks_without_stlb() {
        // SandyBridge's STLB holds only 4KB entries: a 2MB translation that
        // falls out of the 32-entry L1 must walk (never an H event).
        let mut vm = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
        for i in 0..64u64 {
            vm.translate(VirtAddr::new(i << 21), PageSize::Huge2M);
        }
        let out = vm.translate(VirtAddr::new(0), PageSize::Huge2M);
        assert!(matches!(out, Translation::Walk { .. }));
        assert_eq!(vm.stlb().hits(), 0);
    }

    #[test]
    fn data_access_and_pollution_counters() {
        let mut vm = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
        let va = VirtAddr::new(0x2000_0000);
        let out = vm.access(va, PageSize::Base4K);
        assert_eq!(out.data_level, HitLevel::Dram, "cold data access");
        assert!(
            vm.memory().walker_loads().l1d >= 1,
            "walk touched the hierarchy"
        );
        let warm = vm.access(va, PageSize::Base4K);
        assert_eq!(warm.data_level, HitLevel::L1d);
        assert!(matches!(warm.translation, Translation::L1Hit));
    }

    #[test]
    fn prefetcher_turns_sequential_misses_into_stlb_hits() {
        let platform = Platform {
            tlb_prefetch: true,
            ..Platform::SANDY_BRIDGE
        };
        let mut vm = MemorySubsystem::new(&platform);
        // Sequential page stream: after the first miss, every next page
        // was prefetched — L1 misses become STLB hits, not walks.
        let mut walks = 0;
        let mut hits = 0;
        for i in 0..64u64 {
            match vm.translate(VirtAddr::new(0x4000_0000 + i * 4096), PageSize::Base4K) {
                Translation::Walk { .. } => walks += 1,
                Translation::StlbHit { .. } => hits += 1,
                Translation::L1Hit => {}
            }
        }
        assert!(vm.prefetches() > 0);
        assert!(
            hits > 50,
            "sequential stream should ride the prefetcher: {hits} hits"
        );
        assert!(walks <= 2, "only the stream head walks: {walks}");
        // The baseline without prefetching walks every page.
        let mut base = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
        let mut base_walks = 0;
        for i in 0..64u64 {
            if let Translation::Walk { .. } =
                base.translate(VirtAddr::new(0x4000_0000 + i * 4096), PageSize::Base4K)
            {
                base_walks += 1;
            }
        }
        assert!(base_walks > 60);
    }

    #[test]
    fn virtualized_walks_cost_more() {
        let mut native = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
        let mut virt =
            MemorySubsystem::virtualized(&Platform::SANDY_BRIDGE, PageSize::Base4K, DEFAULT_SALT);
        assert!(virt.is_virtualized() && !native.is_virtualized());
        let va = VirtAddr::new(0x5000_0000);
        let n = match native.translate(va, PageSize::Base4K) {
            Translation::Walk { info } => info,
            other => panic!("expected walk, got {other:?}"),
        };
        let v = match virt.translate(va, PageSize::Base4K) {
            Translation::Walk { info } => info,
            other => panic!("expected walk, got {other:?}"),
        };
        assert!(
            v.refs > n.refs && v.cycles > n.cycles,
            "2D walk must cost more: {v:?} vs {n:?}"
        );
    }

    #[test]
    fn l1_thrash_never_hits() {
        // SandyBridge's 4KB L1 TLB is 64 entries / 4 ways = 16 sets.
        // Five pages in the same set LRU-thrash: once warm, no lookup may
        // ever be an L1 hit, and the data references between them must
        // not change that.
        let mut vm = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
        for round in 0..4 {
            for i in 0..5u64 {
                let va = VirtAddr::new(i * 16 * 4096);
                let out = vm.translate(va, PageSize::Base4K);
                if round > 0 {
                    assert!(
                        !matches!(out, Translation::L1Hit),
                        "round {round} page {i}: a thrashed page hit the L1 TLB"
                    );
                }
                vm.data_access(va, PageSize::Base4K);
            }
        }
    }

    #[test]
    fn data_access_matches_page_table() {
        // The data reference must go to PageTable::translate's address
        // for every page size, including unaligned offsets.
        let mut vm = MemorySubsystem::new(&Platform::BROADWELL);
        for size in PageSize::ALL {
            let va = VirtAddr::new((7 << 30) + 12345);
            let direct = vm.page_table().translate(va, size);
            vm.translate(va, size);
            let (_, cold_lat) = vm.data_access(va, size);
            let (warm_level, _) = vm.data_access(va, size);
            assert_eq!(warm_level, HitLevel::L1d, "{size}: data PA diverged");
            assert!(cold_lat >= 1);
            // And the page table's translation stays pure.
            assert_eq!(vm.page_table().translate(va, size), direct);
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = MemorySubsystem::new(&Platform::BROADWELL);
        let mut b = MemorySubsystem::new(&Platform::BROADWELL);
        for i in 0..1000u64 {
            let va = VirtAddr::new((i * 7919) << 12);
            assert_eq!(
                a.access(va, PageSize::Base4K),
                b.access(va, PageSize::Base4K)
            );
        }
    }
}
