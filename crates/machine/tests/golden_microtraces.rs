//! Golden tests: tiny hand-built traces on a hand-built platform, with
//! counter values verified against pencil-and-paper expectations.

use machine::{Engine, Platform};
use memsim::{PwcGeometry, StlbGeometry, TlbGeometry};
use vmcore::{PageSize, PmuCounters, VirtAddr};
use workloads::Access;

/// A deliberately tiny machine: 1-entry L1 TLBs, 2-entry STLB, so that
/// hit/miss sequences can be computed by hand.
fn tiny_platform() -> Platform {
    Platform {
        name: "Tiny",
        l1_tlb_4k: TlbGeometry {
            entries: 1,
            ways: 1,
        },
        l1_tlb_2m: TlbGeometry {
            entries: 1,
            ways: 1,
        },
        l1_tlb_1g: TlbGeometry {
            entries: 1,
            ways: 1,
        },
        stlb: StlbGeometry {
            entries: 2,
            ways: 2,
            holds_2m: true,
            entries_1g: 0,
        },
        pwc: PwcGeometry {
            pml4e: 4,
            pdpte: 4,
            pde: 32,
        },
        ..Platform::SANDY_BRIDGE
    }
}

fn read(page: u64) -> Access {
    Access::read(VirtAddr::new(0x4000_0000 + page * 4096), 2)
}

#[test]
fn empty_trace_is_all_zeros() {
    let c = Engine::new(&tiny_platform()).run(std::iter::empty(), |_| PageSize::Base4K);
    assert_eq!(c.runtime_cycles, 0);
    assert_eq!(c.instructions, 0);
    assert_eq!(c.stlb_hits + c.stlb_misses + c.walk_cycles, 0);
    assert_eq!(c.program_l1d_loads, 0);
}

#[test]
fn alternating_pages_hand_computed_h_and_m() {
    // Trace: A B A B A B with a 1-entry L1 and a 2-entry STLB.
    //   A: L1 miss, STLB miss -> walk (M)
    //   B: L1 miss (evicts A from L1), STLB miss -> walk (M)
    //   A: L1 miss, STLB hit (H)    B: L1 miss, STLB hit (H)
    //   A: H                        B: H
    let trace: Vec<Access> = (0..6).map(|i| read(i % 2)).collect();
    let c = Engine::new(&tiny_platform()).run(trace, |_| PageSize::Base4K);
    assert_eq!(c.stlb_misses, 2, "two cold walks");
    assert_eq!(c.stlb_hits, 4, "every revisit is an STLB hit");
    assert_eq!(c.program_l1d_loads, 6);
    assert_eq!(c.instructions, 6 * 3, "1 memory + 2 gap instructions each");
}

#[test]
fn single_page_only_misses_once() {
    let trace: Vec<Access> = (0..10).map(|_| read(0)).collect();
    let c = Engine::new(&tiny_platform()).run(trace, |_| PageSize::Base4K);
    assert_eq!(c.stlb_misses, 1);
    assert_eq!(c.stlb_hits, 0, "L1 holds the single page after the walk");
}

#[test]
fn three_pages_thrash_the_two_entry_stlb() {
    // Cycling A B C through a 2-entry LRU STLB: after the cold walks,
    // every access evicted its entry two steps ago -> all walks, no hits.
    let trace: Vec<Access> = (0..9).map(|i| read(i % 3)).collect();
    let c = Engine::new(&tiny_platform()).run(trace, |_| PageSize::Base4K);
    assert_eq!(c.stlb_hits, 0, "LRU cycling over capacity never hits");
    assert_eq!(c.stlb_misses, 9);
}

#[test]
fn adjacent_page_walk_uses_pde_cache() {
    // Page 0 walks cold (4 refs); page 1 shares its PT node, so the PDE
    // cache shortens the walk to the single leaf reference.
    let mut engine = Engine::new(&tiny_platform());
    let resolver = |_va| PageSize::Base4K;
    engine.step(&read(0), &resolver);
    let after_first = engine.counters();
    assert_eq!(
        after_first.walker_l1d_loads, 4,
        "cold walk references 4 levels"
    );
    engine.step(&read(1), &resolver);
    let after_second = engine.counters();
    assert_eq!(
        after_second.walker_l1d_loads - after_first.walker_l1d_loads,
        1,
        "warm PDE cache leaves only the leaf reference"
    );
}

#[test]
fn runtime_is_at_least_issue_plus_exposed_walks() {
    let platform = tiny_platform();
    let trace: Vec<Access> = (0..100).map(|i| read(i % 3)).collect();
    let c = Engine::new(&platform).run(trace, |_| PageSize::Base4K);
    let issue_floor = (300.0 / platform.issue_width) as u64;
    assert!(c.runtime_cycles >= issue_floor);
    // And bounded above by fully exposed everything.
    let ceiling = issue_floor + c.walk_cycles + 100 * u64::from(platform.lat.dram);
    assert!(
        c.runtime_cycles <= ceiling,
        "{} > {ceiling}",
        c.runtime_cycles
    );
}

#[test]
fn hugepage_resolver_collapses_all_pages_into_one() {
    // All 4KB pages of the trace live in one 2MB page: after one cold
    // walk everything L1-hits even on the tiny machine.
    let trace: Vec<Access> = (0..12).map(|i| read(i % 4)).collect();
    let c = Engine::new(&tiny_platform()).run(trace, |_| PageSize::Huge2M);
    assert_eq!(c.stlb_misses, 1);
    assert_eq!(c.stlb_hits, 0);
}

#[test]
fn every_extended_platform_runs_end_to_end() {
    // Instantiating the engine exercises every cache geometry; the
    // Skylake L3 bug this guards against was caught by Platform::validate.
    for platform in Platform::ALL_EXTENDED {
        let trace: Vec<Access> = (0..200).map(|i| read(i % 50)).collect();
        let c = Engine::new(platform).run(trace, |_| PageSize::Base4K);
        assert!(c.runtime_cycles > 0, "{}", platform.name);
        assert_eq!(c.program_l1d_loads, 200, "{}", platform.name);
    }
}

#[test]
fn write_accesses_count_like_reads_in_translation() {
    let mut writes: Vec<Access> = Vec::new();
    for i in 0..6 {
        writes.push(Access::write(
            VirtAddr::new(0x4000_0000 + (i % 2) * 4096),
            2,
        ));
    }
    let c = Engine::new(&tiny_platform()).run(writes, |_| PageSize::Base4K);
    assert_eq!(c.stlb_misses, 2);
    assert_eq!(c.stlb_hits, 4);
}

#[test]
fn walk_storm_after_a_long_walk_free_stretch() {
    // One walk maps a 2MB page; 160,000 accesses then sweep its lines
    // (L1 TLB hits, every load an L1d and L2 miss) without a walk. That
    // is long enough for the walk-density EMA to fall below 2^-1022
    // (after ~140k) and, unflushed, to stick at a subnormal value (after
    // ~146k). A storm over 4KB pages then walks on every access and
    // carries the density past the 35% MLP onset. Every counter is
    // pinned, so the decayed state and the storm after it are both fixed.
    const HUGE_BASE: u64 = 0x4000_0000;
    const STORM_BASE: u64 = 0x8000_0000;
    let resolver = |va: VirtAddr| {
        if va.raw() < STORM_BASE {
            PageSize::Huge2M
        } else {
            PageSize::Base4K
        }
    };
    let stretch =
        (0..160_000u64).map(|i| Access::read(VirtAddr::new(HUGE_BASE + (i * 4160) % (2 << 20)), 2));
    let storm = (0..3_000u64).map(|i| {
        let va = VirtAddr::new(STORM_BASE + (i * 7919 % 4096) * 4096);
        if i % 5 == 0 {
            Access::read_dep(va, 2)
        } else {
            Access::read(va, 2)
        }
    });
    let c = Engine::new(&tiny_platform()).run(stretch.chain(storm), resolver);
    assert_eq!(
        c,
        PmuCounters {
            runtime_cycles: 3_290_617,
            stlb_hits: 0,
            stlb_misses: 3_001,
            walk_cycles: 97_090,
            instructions: 489_000,
            program_l1d_loads: 163_000,
            program_l2_loads: 163_000,
            program_l3_loads: 163_000,
            walker_l1d_loads: 3_012,
            walker_l2_loads: 435,
            walker_l3_loads: 393,
        }
    );
}
