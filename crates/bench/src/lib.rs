//! Shared setup for the benchmark harness.
//!
//! Every `benches/*.rs` target regenerates one table or figure of the
//! paper: it prints the full result during setup (the reproduction), then
//! times a representative kernel with Criterion so `cargo bench` also
//! reports meaningful performance numbers.
//!
//! The measurement grid is disk-cached under `target/mosaic-cache`, so
//! only the first bench invocation pays for simulation; set
//! `MOSAIC_FAST=1` for a quick low-fidelity pass.

use harness::{Grid, Speed};
use machine::{profile_tlb_misses, Engine, Platform};
use mosmodel::dataset::{Dataset, LayoutKind, Sample};
use vmcore::{MemoryLayout, PageSize, Region, VirtAddr};
use workloads::{TraceParams, WorkloadSpec};

/// Builds the benchmark grid with the standard disk cache.
pub fn bench_grid() -> Grid {
    Grid::new(Speed::from_env())
}

/// Criterion configured for heavyweight end-to-end kernels.
pub fn criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .configure_from_args()
}

/// Measures a custom-size layout battery for one (workload, platform)
/// pair, bypassing the grid cache — used by the ablation benches that
/// vary the battery itself.
///
/// Returns the fitting dataset (no all-1GB sample).
pub fn measure_battery(
    platform: &'static Platform,
    workload: &str,
    steps: usize,
    accesses: u64,
) -> Dataset {
    let spec = WorkloadSpec::by_name(workload).expect("known workload");
    let speed = Speed::from_env();
    let footprint = speed.footprint(spec.nominal_footprint);
    let arena = Region::new(VirtAddr::new(mosalloc::HEAP_POOL_BASE), footprint);
    let params = TraceParams::new(arena, accesses, 0xab1a);
    let profile = profile_tlb_misses(platform, spec.trace(&params), arena, 2 << 20);
    let battery = layouts::battery_with_steps(arena, |x| profile.hot_region(x), steps);
    battery
        .into_iter()
        .map(|planned| {
            let layout = planned.layout;
            let counters =
                Engine::new(platform).run(spec.trace(&params), |va| layout.page_size_at(va));
            let kind = classify(&layout);
            Sample::from_counters(&counters, kind)
        })
        .collect()
}

fn classify(layout: &MemoryLayout) -> LayoutKind {
    if layout.windows().is_empty() {
        LayoutKind::All4K
    } else if layout.bytes_backed_by(PageSize::Base4K) == 0 {
        LayoutKind::All2M
    } else {
        LayoutKind::Mixed
    }
}
