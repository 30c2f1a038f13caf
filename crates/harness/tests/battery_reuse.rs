//! A battery simulates each distinct layout once and copies its record
//! into the slots that repeat it. These tests rebuild the battery's
//! layout list from public parts, then check that every record equals a
//! direct single-layout measurement of its layout and that the grid ran
//! exactly one simulation per distinct layout (plus the sampled gate's
//! full-trace anchors).

use harness::{
    measure_layout, measure_layout_sampled, BatteryMode, Grid, MachineVariant, MeasureContext,
    SampledConfig, Speed,
};
use layouts::standard_battery;
use machine::{profile_tlb_misses, Platform};
use vmcore::{MemoryLayout, PageSize};
use workloads::{TraceParams, WorkloadSpec};

/// A 2MB pool admits only all-4KB, all-2MB and all-1GB layouts, so
/// nearly every battery slot repeats one of three layouts.
const TINY_SAMPLED: Speed = Speed {
    name: "reuse-sampled",
    footprint_div: 1 << 30,
    min_footprint: 2 << 20,
    accesses: 20_000,
    max_reps: 1,
};

const TINY_FULL: Speed = Speed {
    name: "reuse-full",
    footprint_div: 1024,
    min_footprint: 48 << 20,
    accesses: 12_000,
    max_reps: 1,
};

/// The gate's anchors: all-4KB, all-2MB and all-1GB.
const ANCHORS: u64 = 3;

/// The battery's layout list, planned the way the grid plans it: a
/// TLB-miss profile of the full trace seeds the standard battery, and
/// the all-1GB hold-out goes last.
fn planned_battery(speed: Speed, workload: &str, platform: &Platform) -> Vec<MemoryLayout> {
    let spec = WorkloadSpec::by_name(workload).expect("known workload");
    let pool = MeasureContext::new(speed, workload)
        .expect("known workload")
        .pool();
    let seed = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    let params = TraceParams::new(pool, speed.trace_len(spec.access_factor), seed);
    let profile = profile_tlb_misses(platform, spec.trace(&params), pool, 2 << 20);
    let mut layouts: Vec<MemoryLayout> = standard_battery(pool, |x| profile.hot_region(x))
        .into_iter()
        .map(|p| p.layout)
        .collect();
    layouts.push(MemoryLayout::uniform(pool, PageSize::Huge1G));
    layouts
}

fn distinct_count(layouts: &[MemoryLayout]) -> u64 {
    let mut distinct: Vec<&MemoryLayout> = Vec::new();
    for layout in layouts {
        if !distinct.contains(&layout) {
            distinct.push(layout);
        }
    }
    distinct.len() as u64
}

#[test]
fn full_battery_simulates_each_distinct_layout_once() {
    let (workload, platform) = ("gapbs/bfs-road", &Platform::HASWELL);
    let grid = Grid::in_memory(TINY_FULL);
    let entry = grid.entry(workload, platform);
    let layouts = planned_battery(TINY_FULL, workload, platform);
    assert_eq!(layouts.len(), entry.records.len());
    let distinct = distinct_count(&layouts);
    assert!(
        distinct < layouts.len() as u64,
        "the road graph's battery must repeat layouts for this test to bite"
    );
    assert_eq!(grid.batteries_computed(), 1);
    assert_eq!(grid.layouts_simulated(), distinct);

    let ctx = MeasureContext::new(TINY_FULL, workload).expect("known workload");
    let variant = MachineVariant::real(platform);
    for (layout, record) in layouts.iter().zip(&entry.records) {
        assert_eq!(
            measure_layout(&ctx, &variant, layout),
            *record,
            "{}",
            record.description
        );
    }

    // Copying records into repeated slots is independent of the worker
    // count, down to the bytes the disk cache would receive.
    for jobs in [1, 8] {
        let other = Grid::in_memory(TINY_FULL).with_jobs(jobs);
        assert_eq!(
            other.entry(workload, platform).to_tsv(),
            entry.to_tsv(),
            "jobs={jobs}"
        );
    }
}

#[test]
fn sampled_battery_simulates_anchors_plus_each_distinct_layout_once() {
    let cfg = SampledConfig {
        window: 1_000,
        period: 2_000,
        // Structural test: a loose bound guarantees acceptance at tiny
        // scale, where the transient dominates honest bounds.
        bound: 10.0,
    };
    let (workload, platform) = ("gups/8GB", &Platform::SANDY_BRIDGE);
    let grid = Grid::in_memory(TINY_SAMPLED).with_sampled(cfg);
    let entry = grid.entry(workload, platform);
    assert_eq!(entry.mode, cfg.mode());
    let layouts = planned_battery(TINY_SAMPLED, workload, platform);
    assert_eq!(layouts.len(), entry.records.len());
    let distinct = distinct_count(&layouts);
    assert_eq!(distinct, 3, "a 2MB pool has three layouts");
    assert_eq!(grid.layouts_simulated(), ANCHORS + distinct);

    let ctx = MeasureContext::new(TINY_SAMPLED, workload).expect("known workload");
    let variant = MachineVariant::real(platform);
    for (layout, record) in layouts.iter().zip(&entry.records) {
        assert_eq!(
            measure_layout_sampled(&ctx, &variant, layout, cfg.window, cfg.period),
            *record,
            "{}",
            record.description
        );
    }
}

#[test]
fn rejected_gate_reuses_the_anchor_records_in_its_fallback() {
    // The sampled_gate suite's adversarial head-only window: the gate
    // rejects, and the fallback re-simulates in full only the distinct
    // layouts the three full anchors did not already cover.
    let speed = Speed {
        name: "reuse-adversarial",
        footprint_div: 2048,
        min_footprint: 48 << 20,
        accesses: 12_000,
        max_reps: 1,
    };
    let cfg = SampledConfig {
        window: 1_000,
        period: 1_000_000,
        bound: 0.05,
    };
    let (workload, platform) = ("spec06/mcf", &Platform::SANDY_BRIDGE);
    let grid = Grid::in_memory(speed).with_sampled(cfg);
    let entry = grid.entry(workload, platform);
    assert_eq!(entry.mode, BatteryMode::Full);
    assert_eq!(grid.sampled_rejections(), 1);

    let distinct = distinct_count(&planned_battery(speed, workload, platform));
    // Anchors in full, every distinct layout sampled, then the rest in
    // full: two simulations per distinct layout.
    assert_eq!(grid.layouts_simulated(), 2 * distinct);

    let full_grid = Grid::in_memory(speed);
    assert_eq!(
        entry.records,
        full_grid.entry(workload, platform).records,
        "the fallback must be byte-identical to a full battery"
    );
    assert_eq!(full_grid.layouts_simulated(), distinct);
}
