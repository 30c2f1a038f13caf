//! A battery simulates each distinct replay once — layouts that give
//! every access of the trace the same page size share one simulation —
//! and every slot keeps its own layout's description and kind. These
//! tests rebuild the battery's layout list and trace from public parts,
//! count the distinct per-access page-size sequences straight from
//! `Mosalloc::page_size_at`, then check that the grid ran exactly that
//! many simulations (plus the sampled gate's full-trace anchors) and
//! that every record equals a direct single-layout measurement of its
//! own layout.

use harness::{
    measure_layout, measure_layout_sampled, BatteryMode, Grid, MachineVariant, MeasureContext,
    SampledConfig, Speed,
};
use layouts::standard_battery;
use machine::{profile_tlb_misses, Platform};
use mosalloc::{Mosalloc, MosallocConfig, PoolSpec};
use vmcore::{MemoryLayout, PageSize, Region};
use workloads::{Access, TraceParams, WorkloadSpec};

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

/// One pair's battery, planned the way the grid plans it: a TLB-miss
/// profile of the full trace seeds the standard battery, and the
/// all-1GB hold-out goes last.
struct Planned {
    pool: Region,
    trace: Vec<Access>,
    layouts: Vec<MemoryLayout>,
}

fn planned_battery(speed: Speed, workload: &str, platform: &Platform) -> Planned {
    let spec = WorkloadSpec::by_name(workload).expect("known workload");
    let pool = MeasureContext::new(speed, workload)
        .expect("known workload")
        .pool();
    let seed = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    let params = TraceParams::new(pool, speed.trace_len(spec.access_factor), seed);
    let trace: Vec<Access> = spec.trace(&params).collect();
    let profile = profile_tlb_misses(platform, trace.iter().copied(), pool, 2 << 20);
    let mut layouts: Vec<MemoryLayout> = standard_battery(pool, |x| profile.hot_region(x))
        .into_iter()
        .map(|p| p.layout)
        .collect();
    layouts.push(MemoryLayout::uniform(pool, PageSize::Huge1G));
    Planned {
        pool,
        trace,
        layouts,
    }
}

impl Planned {
    /// The number of distinct per-access page-size sequences the
    /// battery's layouts feed the engine: the simulations it needs.
    /// Every access is looked up, with no chunk shortcut.
    fn distinct_replays(&self) -> u64 {
        let mut replays: Vec<Vec<PageSize>> = Vec::new();
        for layout in &self.layouts {
            // The heap pool the grid replays `layout` against.
            let mut brk = PoolSpec::plain(self.pool.len());
            for w in layout.windows() {
                let start = w
                    .region
                    .start()
                    .raw()
                    .saturating_sub(self.pool.start().raw());
                brk = brk.with_window(start, w.region.end() - self.pool.start(), w.size);
            }
            let mosalloc = Mosalloc::new(MosallocConfig {
                brk,
                anon: PoolSpec::plain(64 << 20),
                file: PoolSpec::plain(64 << 20),
            })
            .expect("battery layouts are valid pool specs");
            let replay: Vec<PageSize> = self
                .trace
                .iter()
                .map(|a| mosalloc.page_size_at(a.addr))
                .collect();
            if !replays.contains(&replay) {
                replays.push(replay);
            }
        }
        replays.len() as u64
    }

    fn distinct_layouts(&self) -> u64 {
        let mut distinct: Vec<&MemoryLayout> = Vec::new();
        for layout in &self.layouts {
            if !distinct.contains(&layout) {
                distinct.push(layout);
            }
        }
        distinct.len() as u64
    }

    fn distinct_descriptions(&self) -> u64 {
        let mut distinct: Vec<String> = Vec::new();
        for layout in &self.layouts {
            let description = layout.describe();
            if !distinct.contains(&description) {
                distinct.push(description);
            }
        }
        distinct.len() as u64
    }
}

/// Checks a full battery record for record against single-layout
/// measurements, and its cache bytes against serial and wide grids.
fn assert_full_battery_is_exact(speed: Speed, workload: &str, platform: &'static Platform) {
    let planned = planned_battery(speed, workload, platform);
    let grid = Grid::in_memory(speed);
    let entry = grid.entry(workload, platform);
    assert_eq!(planned.layouts.len(), entry.records.len());
    assert_eq!(grid.batteries_computed(), 1);
    assert_eq!(grid.layouts_simulated(), planned.distinct_replays());

    let ctx = MeasureContext::new(speed, workload).expect("known workload");
    let variant = MachineVariant::real(platform);
    for (layout, record) in planned.layouts.iter().zip(&entry.records) {
        assert_eq!(
            measure_layout(&ctx, &variant, layout),
            *record,
            "{}",
            record.description
        );
    }

    // Sharing records across slots is independent of the worker count,
    // down to the bytes the disk cache would receive.
    for jobs in [1, 8] {
        let other = Grid::in_memory(speed).with_jobs(jobs);
        assert_eq!(
            other.entry(workload, platform).to_tsv(),
            entry.to_tsv(),
            "jobs={jobs}"
        );
    }
}

#[test]
fn full_battery_simulates_each_distinct_layout_once() {
    let (workload, platform) = ("gapbs/bfs-road", &Platform::HASWELL);
    let planned = planned_battery(TINY_FULL, workload, platform);
    assert!(
        planned.distinct_replays() < planned.distinct_layouts()
            && planned.distinct_layouts() < planned.layouts.len() as u64,
        "the road graph's battery must repeat layouts and replays for this test to bite"
    );
    assert_full_battery_is_exact(TINY_FULL, workload, platform);
}

#[test]
fn sparse_battery_shares_replays_across_descriptions() {
    // graph500's trace leaves most 2MB chunks of its pool untouched, so
    // layouts that differ only there replay alike: one simulation, but
    // each slot keeps its own description and kind.
    let (workload, platform) = ("graph500/2GB", &Platform::SANDY_BRIDGE);
    let planned = planned_battery(TINY_FULL, workload, platform);
    assert!(
        planned.distinct_replays() < planned.distinct_descriptions(),
        "layouts with different descriptions must share a replay for this test to bite"
    );
    assert_full_battery_is_exact(TINY_FULL, workload, platform);
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
    let planned = planned_battery(TINY_SAMPLED, workload, platform);
    assert_eq!(planned.layouts.len(), entry.records.len());
    let replays = planned.distinct_replays();
    assert_eq!(replays, 3, "a 2MB pool has three replays");
    assert_eq!(grid.layouts_simulated(), ANCHORS + replays);

    let ctx = MeasureContext::new(TINY_SAMPLED, workload).expect("known workload");
    let variant = MachineVariant::real(platform);
    for (layout, record) in planned.layouts.iter().zip(&entry.records) {
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
    // rejects, and the fallback re-simulates in full only the replays
    // the three full anchors did not already cover.
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

    let replays = planned_battery(speed, workload, platform).distinct_replays();
    // Anchors in full, every replay sampled, then the rest in full: two
    // simulations per distinct replay.
    assert_eq!(grid.layouts_simulated(), 2 * replays);

    let full_grid = Grid::in_memory(speed);
    assert_eq!(
        entry.records,
        full_grid.entry(workload, platform).records,
        "the fallback must be byte-identical to a full battery"
    );
    assert_eq!(full_grid.layouts_simulated(), replays);
}
