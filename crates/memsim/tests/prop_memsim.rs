//! Property tests for the memory-subsystem simulator.

use std::collections::HashMap;

use memsim::{CacheGeometry, CacheTag, MemorySubsystem, Platform, SetAssocCache, Translation};
use proptest::prelude::*;
use vmcore::{PageSize, VirtAddr};

/// A reference (obviously correct) model of a set-associative LRU cache.
struct RefCacheModel {
    sets: u64,
    ways: usize,
    /// Per set: tags in LRU order (most recent last).
    state: HashMap<u64, Vec<u64>>,
}

impl RefCacheModel {
    fn new(geometry: CacheGeometry) -> Self {
        RefCacheModel {
            sets: geometry.sets() as u64,
            ways: geometry.ways as usize,
            state: HashMap::new(),
        }
    }

    fn access(&mut self, tag: u64) -> bool {
        let set = self.state.entry(tag % self.sets).or_default();
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set.remove(pos);
            set.push(tag);
            true
        } else {
            if set.len() == self.ways {
                set.remove(0);
            }
            set.push(tag);
            false
        }
    }
}

/// Replays `tags` through `real` and the reference model, requiring the
/// same hit or miss on every access.
fn replay_matches_reference<T>(mut real: SetAssocCache<T>, tags: &[u64]) -> Result<(), String>
where
    T: CacheTag + TryFrom<u64>,
{
    let mut reference = RefCacheModel::new(real.geometry());
    for (i, &tag) in tags.iter().enumerate() {
        let Ok(narrow) = T::try_from(tag) else {
            return Err(format!("tag {tag} does not fit"));
        };
        let a = real.access(narrow);
        let b = reference.access(tag);
        prop_assert_eq!(a, b, "divergence at access {} (tag {})", i, tag);
    }
    Ok(())
}

/// Geometries from direct-mapped to fully associative: 1..=12 sets (most
/// not powers of two) of narrow or of the simulator's wide 8-, 16- and
/// 20-way sets, and single sets of up to 64 ways, as in the fully
/// associative TLBs and walk caches.
fn geometries() -> impl Strategy<Value = CacheGeometry> {
    let ways = prop_oneof![1u32..=5, Just(8), Just(16), Just(20)];
    prop_oneof![
        (1u32..=12, ways).prop_map(|(sets, ways)| CacheGeometry::new(sets * ways, ways)),
        (1u32..=64).prop_map(CacheGeometry::full),
    ]
}

/// A geometry and `len` tags that revisit a working set about twice its
/// capacity, so both hits and evictions occur. The tags sit near 0 (where
/// the zeroed invalid ways hold tag 0) or at an arbitrary 32-bit base.
fn geometry_and_tags(
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = (CacheGeometry, Vec<u64>)> {
    let base = prop_oneof![Just(0u64), 0u64..u64::from(u32::MAX) - 1024];
    let raw = prop::collection::vec(0u64..1 << 20, len);
    (geometries(), base, raw).prop_map(|(geometry, base, raw)| {
        let span = 2 * u64::from(geometry.entries) + 8;
        (geometry, raw.into_iter().map(|r| base + r % span).collect())
    })
}

proptest! {
    /// The production cache agrees with the reference LRU model on every
    /// access of arbitrary tag sequences, across geometries and both tag
    /// widths.
    #[test]
    fn cache_matches_reference_lru(input in geometry_and_tags(1..400)) {
        let (geometry, tags) = input;
        replay_matches_reference(SetAssocCache::<u64>::new(geometry), &tags)?;
        replay_matches_reference(SetAssocCache::<u32>::new(geometry), &tags)?;
    }

    /// Replay through the 32-bit stamp clock's overflow still matches the
    /// reference model: the rebase keeps every set's LRU order.
    #[test]
    fn cache_matches_reference_lru_across_the_clock_wrap(
        input in geometry_and_tags(300..500),
        before_wrap in 0u32..300,
    ) {
        let (geometry, tags) = input;
        let start = u32::MAX - before_wrap;
        replay_matches_reference(SetAssocCache::<u64>::with_clock(geometry, start), &tags)?;
        replay_matches_reference(SetAssocCache::<u32>::with_clock(geometry, start), &tags)?;
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
                matches!(again.translation, Translation::L1Hit),
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
            if let Translation::Walk { info } = vm.translate(va, size).translation {
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
