//! Golden PMU-counter snapshots: the counter-invisibility gate for the
//! simulation fast path.
//!
//! The memsim translation memo and the flattened cache indexing are
//! allowed to change *wall-clock* behaviour only. These snapshots pin
//! one (workload, platform, layout) triple per speed preset to the exact
//! counter values the pre-optimization simulator produced; any
//! divergence — one extra TLB hit, one reordered LRU stamp — fails the
//! suite. Update these numbers only for a deliberate, documented model
//! change, never for an "optimization".

use harness::{measure_layout, Grid, MachineVariant, MeasureContext, Speed};
use machine::{EngineConfig, Platform};
use memsim::PwcGeometry;
use vmcore::{MemoryLayout, PageSize, PmuCounters, Region};

/// Measures the pinned triple: gups/8GB on SandyBridge with the first
/// half of the pool backed by 2MB pages (both halves are 2MB-aligned for
/// every preset, so the layout is exactly reproducible).
fn measure(speed: Speed) -> (PmuCounters, f64) {
    measure_with_config(speed, EngineConfig::default())
}

/// Same pinned triple, but with an explicit engine configuration so
/// machine variants (e.g. nested paging) can be pinned too.
fn measure_with_config(speed: Speed, config: EngineConfig) -> (PmuCounters, f64) {
    measure_on(speed, Platform::SANDY_BRIDGE.clone(), config, half_2m)
}

/// The pinned layout: the first half of the pool backed by 2MB pages.
fn half_2m(pool: Region) -> MemoryLayout {
    let half = Region::new(pool.start(), pool.len() / 2);
    MemoryLayout::builder(pool)
        .window(half, PageSize::Huge2M)
        .expect("2M-aligned half-pool window")
        .build()
        .expect("valid layout")
}

/// Measures gups/8GB on any platform, configuration and layout of its
/// pool.
fn measure_on(
    speed: Speed,
    platform: Platform,
    config: EngineConfig,
    layout: impl FnOnce(Region) -> MemoryLayout,
) -> (PmuCounters, f64) {
    let ctx = MeasureContext::new(speed, "gups/8GB").expect("known workload");
    let layout = layout(ctx.pool());
    let variant = MachineVariant {
        name: "golden-variant".to_string(),
        platform,
        config,
    };
    let record = measure_layout(&ctx, &variant, &layout);
    (record.counters, record.cv_r)
}

/// Asserts a single-rep FAST measurement against its golden counters.
fn assert_fast_golden((counters, cv_r): (PmuCounters, f64), golden: PmuCounters, what: &str) {
    assert_eq!(counters, golden, "{what} counters drifted from golden");
    assert_eq!(
        cv_r.to_bits(),
        0.0f64.to_bits(),
        "single-rep FAST run must have exactly zero runtime variance"
    );
}

#[test]
fn fast_preset_counters_are_byte_identical_to_golden() {
    let (counters, cv_r) = measure(Speed::FAST);
    let golden = PmuCounters {
        runtime_cycles: 2_409_763,
        stlb_hits: 530,
        stlb_misses: 19_507,
        walk_cycles: 859_054,
        instructions: 280_163,
        program_l1d_loads: 80_000,
        program_l2_loads: 39_993,
        program_l3_loads: 39_949,
        walker_l1d_loads: 19_541,
        walker_l2_loads: 18_113,
        walker_l3_loads: 10_055,
    };
    assert_eq!(counters, golden, "FAST counters drifted from golden");
    assert_eq!(
        cv_r.to_bits(),
        0.0f64.to_bits(),
        "single-rep FAST run must have exactly zero runtime variance"
    );
}

#[test]
fn fast_preset_nested_paging_counters_are_byte_identical_to_golden() {
    // Virtualized variant (guest backed by 4KB host pages): pins the 2D
    // walk path and the composed guest-host data addresses that
    // virtualization takes through the memory subsystem, bit-for-bit.
    let (counters, cv_r) = measure_with_config(
        Speed::FAST,
        EngineConfig {
            virtualized: Some(PageSize::Base4K),
            ..EngineConfig::default()
        },
    );
    let golden = PmuCounters {
        runtime_cycles: 6_802_063,
        stlb_hits: 530,
        stlb_misses: 19_507,
        walk_cycles: 5_422_012,
        instructions: 280_163,
        program_l1d_loads: 80_000,
        program_l2_loads: 39_996,
        program_l3_loads: 39_970,
        walker_l1d_loads: 118_388,
        walker_l2_loads: 61_540,
        walker_l3_loads: 48_435,
    };
    assert_eq!(
        counters, golden,
        "nested-paging counters drifted from golden"
    );
    assert_eq!(
        cv_r.to_bits(),
        0.0f64.to_bits(),
        "single-rep FAST run must have exactly zero runtime variance"
    );
}

#[test]
fn fast_preset_broadwell_all_1g_counters_are_byte_identical_to_golden() {
    // Every page is 1GB: pins Broadwell's dedicated 1GB STLB array and
    // the PML4E-only walk-cache path of 1GB walks.
    let measured = measure_on(
        Speed::FAST,
        Platform::BROADWELL,
        EngineConfig::default(),
        |pool| MemoryLayout::uniform(pool, PageSize::Huge1G),
    );
    let golden = PmuCounters {
        runtime_cycles: 1_132_911,
        stlb_hits: 0,
        stlb_misses: 1,
        walk_cycles: 380,
        instructions: 280_163,
        program_l1d_loads: 80_000,
        program_l2_loads: 39_990,
        program_l3_loads: 39_933,
        walker_l1d_loads: 2,
        walker_l2_loads: 2,
        walker_l3_loads: 2,
    };
    assert_fast_golden(measured, golden, "Broadwell all-1GB");
}

#[test]
fn fast_preset_tlb_prefetch_counters_are_byte_identical_to_golden() {
    // The next-page prefetcher walks the walk caches for a second page
    // on every STLB miss.
    let platform = Platform {
        tlb_prefetch: true,
        ..Platform::SANDY_BRIDGE
    };
    let measured = measure_on(Speed::FAST, platform, EngineConfig::default(), half_2m);
    let golden = PmuCounters {
        runtime_cycles: 2_037_370,
        stlb_hits: 556,
        stlb_misses: 19_481,
        walk_cycles: 169_112,
        instructions: 280_163,
        program_l1d_loads: 80_000,
        program_l2_loads: 39_993,
        program_l3_loads: 39_949,
        walker_l1d_loads: 39_013,
        walker_l2_loads: 20_522,
        walker_l3_loads: 10_490,
    };
    assert_fast_golden(measured, golden, "TLB-prefetch");
}

#[test]
fn fast_preset_no_walk_caches_counters_are_byte_identical_to_golden() {
    // Every walk cache disabled: each walk issues all its references.
    let platform = Platform {
        pwc: PwcGeometry {
            pml4e: 0,
            pdpte: 0,
            pde: 0,
        },
        ..Platform::SANDY_BRIDGE
    };
    let measured = measure_on(Speed::FAST, platform, EngineConfig::default(), half_2m);
    let golden = PmuCounters {
        runtime_cycles: 2_512_485,
        stlb_hits: 530,
        stlb_misses: 19_507,
        walk_cycles: 1_093_002,
        instructions: 280_163,
        program_l1d_loads: 80_000,
        program_l2_loads: 39_993,
        program_l3_loads: 39_949,
        walker_l1d_loads: 77_996,
        walker_l2_loads: 18_129,
        walker_l3_loads: 10_055,
    };
    assert_fast_golden(measured, golden, "no-walk-cache");
}

#[test]
fn full_preset_counters_are_byte_identical_to_golden() {
    let (counters, cv_r) = measure(Speed::FULL);
    let golden = PmuCounters {
        runtime_cycles: 13_260_755,
        stlb_hits: 636,
        stlb_misses: 174_297,
        walk_cycles: 5_473_395,
        instructions: 1_400_399,
        program_l1d_loads: 400_000,
        program_l2_loads: 199_990,
        program_l3_loads: 199_927,
        walker_l1d_loads: 248_573,
        walker_l2_loads: 97_746,
        walker_l3_loads: 84_612,
    };
    assert_eq!(counters, golden, "FULL counters drifted from golden");
    // Three repetitions with distinct salts: even the cross-rep variance
    // is pinned to the bit.
    assert_eq!(
        cv_r.to_bits(),
        2.767_564_893_552_441e-5f64.to_bits(),
        "FULL cross-repetition variance drifted from golden"
    );
}

/// The pinned triple measured through the sampled path: periodic
/// windows at the default `1000:10000` sampling plus cold-split
/// extrapolation. Sampled measurement is part of the persistence
/// surface (sampled entries are cached), so its values are pinned
/// bit-for-bit exactly like full ones.
fn measure_sampled(speed: Speed) -> (PmuCounters, f64) {
    let ctx = MeasureContext::new(speed, "gups/8GB").expect("known workload");
    let layout = half_2m(ctx.pool());
    let variant = MachineVariant {
        name: "golden-variant".to_string(),
        platform: Platform::SANDY_BRIDGE.clone(),
        config: EngineConfig::default(),
    };
    let record = harness::measure_layout_sampled(&ctx, &variant, &layout, 1_000, 10_000);
    (record.counters, record.cv_r)
}

#[test]
fn fast_preset_sampled_counters_are_byte_identical_to_golden() {
    let (counters, cv_r) = measure_sampled(Speed::FAST);
    let golden = PmuCounters {
        runtime_cycles: 3_789_378,
        stlb_hits: 606,
        stlb_misses: 18_976,
        walk_cycles: 2_287_784,
        instructions: 279_256,
        program_l1d_loads: 80_000,
        program_l2_loads: 39_999,
        program_l3_loads: 39_920,
        walker_l1d_loads: 19_010,
        walker_l2_loads: 17_716,
        walker_l3_loads: 10_834,
    };
    assert_eq!(
        counters, golden,
        "FAST sampled counters drifted from golden"
    );
    assert_eq!(
        cv_r.to_bits(),
        0.0f64.to_bits(),
        "single-rep FAST sampled run must have exactly zero runtime variance"
    );
}

#[test]
fn full_preset_sampled_counters_are_byte_identical_to_golden() {
    let (counters, cv_r) = measure_sampled(Speed::FULL);
    let golden = PmuCounters {
        runtime_cycles: 19_827_530,
        stlb_hits: 602,
        stlb_misses: 174_690,
        walk_cycles: 12_025_415,
        instructions: 1_401_273,
        program_l1d_loads: 400_000,
        program_l2_loads: 199_961,
        program_l3_loads: 199_897,
        walker_l1d_loads: 249_764,
        walker_l2_loads: 98_973,
        walker_l3_loads: 85_819,
    };
    assert_eq!(
        counters, golden,
        "FULL sampled counters drifted from golden"
    );
    // Extrapolated runtimes still vary across the three salted reps;
    // even that variance is pinned to the bit.
    assert_eq!(
        cv_r.to_bits(),
        1.421_256_202_865_41e-4f64.to_bits(),
        "FULL sampled cross-repetition variance drifted from golden"
    );
}

#[test]
fn battery_is_bit_identical_across_job_counts() {
    // The parallel battery must be counter-invisible: jobs=1 (the serial
    // baseline) and jobs=8 measure every layout with the same engines,
    // salt schedules, and reduction order, so the records — down to the
    // cv bit pattern — and the rendered cache TSV agree byte-for-byte.
    // Two repetitions make the cv nonzero, so this also proves the rep
    // loop's early-stop logic is unaffected by which worker runs it.
    let speed = Speed {
        name: "tiny2",
        footprint_div: 2048,
        min_footprint: 48 << 20,
        accesses: 8_000,
        max_reps: 2,
    };
    let serial = Grid::in_memory(speed).with_jobs(1);
    let parallel = Grid::in_memory(speed).with_jobs(8);
    assert_eq!(serial.jobs(), 1);
    assert_eq!(parallel.jobs(), 8);

    let a = serial.entry("gups/8GB", &Platform::SANDY_BRIDGE);
    let b = parallel.entry("gups/8GB", &Platform::SANDY_BRIDGE);

    assert_eq!(a.records.len(), b.records.len());
    for (i, (ra, rb)) in a.records.iter().zip(b.records.iter()).enumerate() {
        assert_eq!(
            ra.counters, rb.counters,
            "record {i} counters differ between jobs=1 and jobs=8"
        );
        assert_eq!(
            ra.cv_r.to_bits(),
            rb.cv_r.to_bits(),
            "record {i} cv bits differ between jobs=1 and jobs=8"
        );
        assert_eq!(ra.description, rb.description);
        assert_eq!(ra.kind, rb.kind);
    }
    assert!(
        a.records.iter().any(|r| r.cv_r > 0.0),
        "two reps must produce nonzero cv somewhere, or the cv pin is vacuous"
    );
    // The strongest form of the claim: the exact bytes the disk cache
    // would receive are identical, so a cache written by a parallel
    // build is indistinguishable from a serial one.
    assert_eq!(
        a.to_tsv(),
        b.to_tsv(),
        "grid TSV bytes differ between jobs=1 and jobs=8"
    );
}
