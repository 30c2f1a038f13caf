//! Property tests for the memory-subsystem simulator.

use std::collections::BTreeMap;

use memsim::{
    CacheGeometry, CacheTag, MemorySubsystem, Platform, PwcGeometry, SetAssocCache, Translation,
    WalkCaches,
};
use proptest::prelude::*;
use vmcore::{PageSize, VirtAddr};

/// A reference (obviously correct) model of a set-associative LRU cache.
struct RefCacheModel {
    sets: u64,
    ways: usize,
    /// Per set: its resident tags, most recently used last.
    state: BTreeMap<u64, Vec<u64>>,
}

impl RefCacheModel {
    fn new(geometry: CacheGeometry) -> Self {
        RefCacheModel {
            sets: u64::from(geometry.sets()),
            ways: geometry.ways as usize,
            state: BTreeMap::new(),
        }
    }

    /// Accesses `tag` and returns whether it hit. A miss in a full set
    /// evicts its least recently used tag.
    fn access(&mut self, tag: u64) -> bool {
        let lru = self.state.entry(tag % self.sets).or_default();
        let hit = match lru.iter().position(|&t| t == tag) {
            Some(i) => {
                lru.remove(i);
                true
            }
            None => {
                if lru.len() == self.ways {
                    lru.remove(0);
                }
                false
            }
        };
        lru.push(tag);
        hit
    }

    fn resident(&self, tag: u64) -> bool {
        self.state
            .get(&(tag % self.sets))
            .is_some_and(|lru| lru.contains(&tag))
    }

    fn occupancy(&self) -> usize {
        self.state.values().map(Vec::len).sum()
    }
}

/// Replays `tags` through `real` and the reference model, requiring the
/// same hit or miss on every access, and the same hit count, residency
/// and occupancy afterwards.
fn replay_matches_reference<T>(mut real: SetAssocCache<T>, tags: &[u64]) -> Result<(), String>
where
    T: CacheTag + TryFrom<u64>,
{
    let narrow = |tag: u64| T::try_from(tag).map_err(|_| format!("tag {tag} does not fit"));
    let mut reference = RefCacheModel::new(real.geometry());
    let mut hits = 0;
    for (i, &tag) in tags.iter().enumerate() {
        let want = reference.access(tag);
        prop_assert_eq!(
            real.access(narrow(tag)?),
            want,
            "divergence at access {} (tag {})",
            i,
            tag
        );
        hits += u64::from(want);
    }
    prop_assert_eq!(real.hits(), hits);
    prop_assert_eq!(real.occupancy(), reference.occupancy());
    for &tag in tags {
        prop_assert_eq!(
            real.probe(narrow(tag)?),
            reference.resident(tag),
            "residency of {}",
            tag
        );
    }
    Ok(())
}

/// The page-walk caches as they were before each missing lookup filled
/// its own cache: after the walk, every level that missed was looked up
/// again and re-filled. Kept to show that dropping the second pass
/// changes no reference count and no hit.
struct FillAfterMissWalkCaches {
    pml4e: Option<SetAssocCache<u64>>,
    pdpte: Option<SetAssocCache<u64>>,
    pde: Option<SetAssocCache<u64>>,
}

impl FillAfterMissWalkCaches {
    fn new(geometry: PwcGeometry) -> Self {
        let cache =
            |entries: u32| (entries > 0).then(|| SetAssocCache::new(CacheGeometry::full(entries)));
        FillAfterMissWalkCaches {
            pml4e: cache(geometry.pml4e),
            pdpte: cache(geometry.pdpte),
            pde: cache(geometry.pde),
        }
    }

    fn lookup_and_fill(&mut self, va: VirtAddr, size: PageSize) -> u32 {
        fn access(cache: &mut Option<SetAssocCache<u64>>, tag: u64) -> bool {
            cache.as_mut().is_some_and(|c| c.access(tag))
        }
        fn fill(cache: &mut Option<SetAssocCache<u64>>, tag: u64) {
            if let Some(c) = cache {
                c.insert(tag);
            }
        }
        let (l4, l3, l2) = (va.raw() >> 39, va.raw() >> 30, va.raw() >> 21);
        let skipped = match size {
            PageSize::Base4K => {
                if access(&mut self.pde, l2) {
                    3
                } else if access(&mut self.pdpte, l3) {
                    fill(&mut self.pde, l2);
                    2
                } else if access(&mut self.pml4e, l4) {
                    fill(&mut self.pdpte, l3);
                    fill(&mut self.pde, l2);
                    1
                } else {
                    fill(&mut self.pml4e, l4);
                    fill(&mut self.pdpte, l3);
                    fill(&mut self.pde, l2);
                    0
                }
            }
            PageSize::Huge2M => {
                if access(&mut self.pdpte, l3) {
                    2
                } else if access(&mut self.pml4e, l4) {
                    fill(&mut self.pdpte, l3);
                    1
                } else {
                    fill(&mut self.pml4e, l4);
                    fill(&mut self.pdpte, l3);
                    0
                }
            }
            PageSize::Huge1G => {
                if access(&mut self.pml4e, l4) {
                    1
                } else {
                    fill(&mut self.pml4e, l4);
                    0
                }
            }
        };
        size.walk_levels() - skipped
    }

    fn hits(&self) -> (u64, u64, u64) {
        let h = |c: &Option<SetAssocCache<u64>>| c.as_ref().map_or(0, SetAssocCache::hits);
        (h(&self.pml4e), h(&self.pdpte), h(&self.pde))
    }
}

/// Walk-cache geometries: the paper machines', a tiny one that thrashes,
/// one with the middle level disabled and one with every level disabled.
fn pwc_geometries() -> impl Strategy<Value = PwcGeometry> {
    let pwc = |pml4e, pdpte, pde| PwcGeometry { pml4e, pdpte, pde };
    prop_oneof![
        Just(Platform::SANDY_BRIDGE.pwc),
        Just(pwc(1, 1, 2)),
        Just(pwc(4, 0, 32)),
        Just(pwc(0, 0, 0)),
    ]
}

/// Walks of any page size over few enough PML4, PDPT and PD entries that
/// every walk-cache level both hits and misses.
fn walk_stream() -> impl Strategy<Value = Vec<(VirtAddr, PageSize)>> {
    let walk = (0u64..3, 0u64..6, 0u64..12, 0u64..1 << 21, 0usize..3).prop_map(
        |(l4, l3, l2, offset, size_sel)| {
            let raw = (l4 << 39) | (l3 << 30) | (l2 << 21) | offset;
            (VirtAddr::new(raw), PageSize::ALL[size_sel])
        },
    );
    prop::collection::vec(walk, 1..400)
}

/// The shape of every TLB, walk cache and data cache on `platform`.
fn platform_geometries(platform: &Platform) -> Vec<CacheGeometry> {
    let lines = |bytes: u64, ways| CacheGeometry::new((bytes / 64) as u32, ways);
    let mut shapes = vec![
        CacheGeometry::new(platform.l1_tlb_4k.entries, platform.l1_tlb_4k.ways),
        CacheGeometry::new(platform.l1_tlb_2m.entries, platform.l1_tlb_2m.ways),
        CacheGeometry::new(platform.l1_tlb_1g.entries, platform.l1_tlb_1g.ways),
        CacheGeometry::new(platform.stlb.entries, platform.stlb.ways),
        lines(platform.l1d_bytes, platform.l1d_ways),
        lines(platform.l2_bytes, platform.l2_ways),
        lines(platform.l3_bytes, platform.l3_ways),
    ];
    let PwcGeometry { pml4e, pdpte, pde } = platform.pwc;
    let full = [platform.stlb.entries_1g, pml4e, pdpte, pde];
    shapes.extend(full.into_iter().filter(|&n| n > 0).map(CacheGeometry::full));
    shapes
}

/// Geometries from direct-mapped to fully associative: 1..=12 sets (most
/// not powers of two) of narrow or of the simulator's wide 8-, 16- and
/// 20-way sets, single sets of up to 64 ways, and every real shape of the
/// simulated platforms, such as the SandyBridge L3 (12 288 sets of 20
/// ways) and the 32-way PDE cache.
fn geometries() -> impl Strategy<Value = CacheGeometry> {
    let ways = prop_oneof![1u32..=5, Just(8), Just(16), Just(20)];
    let real: Vec<CacheGeometry> = Platform::ALL_EXTENDED
        .iter()
        .flat_map(|p| platform_geometries(p))
        .collect();
    prop_oneof![
        (1u32..=12, ways).prop_map(|(sets, ways)| CacheGeometry::new(sets * ways, ways)),
        (1u32..=64).prop_map(CacheGeometry::full),
        (0..real.len()).prop_map(move |i| real[i]),
    ]
}

/// A geometry and `len` tags, so that both hits and evictions occur.
/// Either the tags revisit a working set about twice the cache's capacity,
/// or they revisit about twice the ways of each of three sets, which
/// makes large caches evict too. The tags sit near 0 (where the zeroed
/// empty ways hold 0) or at an arbitrary 32-bit base.
fn geometry_and_tags(
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = (CacheGeometry, Vec<u64>)> {
    let base = prop_oneof![Just(0u64), 0u64..u64::from(u32::MAX) - (1 << 21)];
    let raw = prop::collection::vec(0u64..1 << 20, len);
    (geometries(), base, any::<bool>(), raw).prop_map(|(geometry, base, few_sets, raw)| {
        let (sets, ways) = (u64::from(geometry.sets()), u64::from(geometry.ways));
        let tag = |r: u64| {
            if few_sets {
                let span = 2 * ways + 2;
                base + r % 3 + sets * (r / 3 % span)
            } else {
                base + r % (2 * u64::from(geometry.entries) + 8)
            }
        };
        (geometry, raw.into_iter().map(tag).collect())
    })
}

proptest! {
    /// The production cache agrees with the reference LRU model on every
    /// access of arbitrary tag sequences, across geometries and both tag
    /// widths: the same hit or miss each time, and the same resident tags
    /// and occupancy afterwards.
    #[test]
    fn cache_matches_reference_lru(input in geometry_and_tags(1..400)) {
        let (geometry, tags) = input;
        replay_matches_reference(SetAssocCache::<u64>::new(geometry), &tags)?;
        replay_matches_reference(SetAssocCache::<u32>::new(geometry), &tags)?;
    }

    /// Filling each walk cache on its missing lookup issues the same
    /// references and scores the same hits as re-filling every missed
    /// level after the walk.
    #[test]
    fn walk_caches_match_fill_after_miss(geometry in pwc_geometries(), walks in walk_stream()) {
        let mut real = WalkCaches::new(geometry);
        let mut reference = FillAfterMissWalkCaches::new(geometry);
        for (i, &(va, size)) in walks.iter().enumerate() {
            prop_assert_eq!(
                real.lookup_and_fill(va, size),
                reference.lookup_and_fill(va, size),
                "references differ at walk {} ({:?} {:?})", i, va, size
            );
        }
        prop_assert_eq!(real.hits(), reference.hits());
    }

    /// Translation outcomes are deterministic and warm correctly: after
    /// translating an address, an immediate re-translation is an L1 hit.
    #[test]
    fn translate_then_hit(
        addrs in prop::collection::vec(0u64..(1 << 30), 1..100),
        size_sel in 0usize..3,
    ) {
        let size = PageSize::ALL[size_sel];
        let mut vm = MemorySubsystem::new(&Platform::HASWELL);
        for &raw in &addrs {
            let va = VirtAddr::new(raw);
            vm.translate(va, size);
            let again = vm.translate(va, size);
            prop_assert!(
                matches!(again, Translation::L1Hit),
                "address {raw:#x} not warm after touch"
            );
        }
    }

    /// Walk reference counts are always within [1, levels(size)] and the
    /// walk latency is consistent with them.
    #[test]
    fn walk_refs_bounded(
        addrs in prop::collection::vec(0u64..(1u64 << 40), 1..200),
        size_sel in 0usize..3,
    ) {
        let size = PageSize::ALL[size_sel];
        let platform = &Platform::SANDY_BRIDGE;
        let mut vm = MemorySubsystem::new(platform);
        for &raw in &addrs {
            let va = VirtAddr::new(raw);
            if let Translation::Walk { info } = vm.translate(va, size) {
                prop_assert!(info.refs >= 1 && info.refs <= size.walk_levels());
                let served = info.refs_l1d + info.refs_l2 + info.refs_l3 + info.refs_dram;
                prop_assert_eq!(served, info.refs);
                let min = info.refs * platform.lat.l1d;
                let max = info.refs * platform.lat.dram;
                prop_assert!(info.cycles >= min && info.cycles <= max);
            }
        }
    }

    /// The page table is a function: the same VA always maps to the same
    /// physical address, and distinct pages never share a frame start.
    #[test]
    fn page_table_is_functional(pages in prop::collection::vec(0u64..(1 << 20), 2..64)) {
        let vm = MemorySubsystem::new(&Platform::BROADWELL);
        let pt = vm.page_table();
        for &p in &pages {
            let va = VirtAddr::new(p << 12);
            let a = pt.translate(va, PageSize::Base4K);
            let b = pt.translate(va, PageSize::Base4K);
            prop_assert_eq!(a, b);
            // In-page offsets preserved.
            let c = pt.translate(VirtAddr::new((p << 12) | 0x123), PageSize::Base4K);
            prop_assert_eq!(c.raw() - a.raw(), 0x123);
        }
    }

    /// Two subsystems fed the same access sequence stay in lockstep
    /// (full determinism, including cache contents).
    #[test]
    fn subsystem_determinism(
        ops in prop::collection::vec((0u64..(1 << 32), 0usize..3), 1..150),
    ) {
        let mut a = MemorySubsystem::new(&Platform::BROADWELL);
        let mut b = MemorySubsystem::new(&Platform::BROADWELL);
        for &(raw, size_sel) in &ops {
            let va = VirtAddr::new(raw);
            let size = PageSize::ALL[size_sel];
            prop_assert_eq!(a.access(va, size), b.access(va, size));
        }
    }
}
