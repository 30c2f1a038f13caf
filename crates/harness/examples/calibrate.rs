//! Calibration probe: per-workload anchor statistics on each platform.
//!
//! Prints, for every workload: runtime and walk-cycle anchors, the
//! TLB-sensitivity, walk-cycle share of runtime, and average walk
//! latency — the quantities used to sanity-check the engine against the
//! paper's reported behaviour.
//!
//! ```text
//! MOSAIC_FAST=1 cargo run --release -p harness --example calibrate [workload-filter]
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "prints how long each battery took to build; no counter depends on it"
)]

use harness::{Grid, Speed};
use machine::Platform;
use mosmodel::LayoutKind;

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let platforms: Vec<&'static Platform> = match std::env::var("MOSAIC_PLATFORM") {
        Ok(name) => vec![Platform::by_name(&name).expect("unknown platform")],
        Err(_) => Platform::ALL.to_vec(),
    };
    let grid = Grid::new(Speed::from_env());
    println!(
        "{:<22} {:<12} {:>8} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8} {:>7}",
        "workload",
        "platform",
        "R4K[e6]",
        "R2M[e6]",
        "sens%",
        "C/R4K%",
        "C/R2M%",
        "missrate",
        "avgwalk",
        "H/M4K"
    );
    for spec in workloads::registry() {
        if !spec.name.contains(&filter) {
            continue;
        }
        for platform in &platforms {
            let start = std::time::Instant::now();
            let entry = grid.entry(spec.name, platform);
            let elapsed = start.elapsed();
            let r4k = entry.record(LayoutKind::All4K).unwrap().counters;
            let r2m = entry.record(LayoutKind::All2M).unwrap().counters;
            let r1g = entry.record(LayoutKind::All1G).unwrap().counters;
            let sens =
                (r4k.runtime_cycles as f64 - r1g.runtime_cycles as f64) / r4k.runtime_cycles as f64;
            let miss_rate = r4k.stlb_misses as f64 / (r4k.instructions as f64 / 6.0);
            println!(
                "{:<22} {:<12} {:>8.2} {:>8.2} {:>6.1}% {:>6.1}% {:>6.1}% {:>8.3} {:>8.1} {:>7.2}  ({:.1}s)",
                spec.name,
                platform.name,
                r4k.runtime_cycles as f64 / 1e6,
                r2m.runtime_cycles as f64 / 1e6,
                100.0 * sens,
                100.0 * r4k.walk_cycles as f64 / r4k.runtime_cycles as f64,
                100.0 * r2m.walk_cycles as f64 / r2m.runtime_cycles as f64,
                miss_rate,
                r4k.avg_walk_latency(),
                r4k.stlb_hits as f64 / r4k.stlb_misses.max(1) as f64,
                elapsed.as_secs_f64(),
            );
        }
    }
}
