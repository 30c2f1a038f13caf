//! The standalone **partial simulator** of paper Figure 1.
//!
//! The paper's methodology feeds a runtime model with the output of a
//! partial simulator — a simulator of *only* the virtual-memory subsystem
//! that reports `(H, M, C)` but, crucially, **not** the runtime. The
//! paper itself ignores partial simulators ("we exclusively focus on the
//! complementary runtime models"); this module provides one anyway so
//! the complete Figure-1 workflow can be exercised end to end: partially
//! simulate a *hypothetical* processor, feed the counters to a model
//! trained on the *real* (simulated-real) processor, and compare the
//! predicted runtime with a full simulation of the hypothetical design
//! (see `harness::methodology`).
//!
//! It drives the same `memsim` structures as the full engine — including
//! the data-cache traffic, which page-walk latencies depend on — but
//! performs no cycle accounting at all, which is exactly what makes
//! partial simulation cheap on real traces.

use memsim::{MemorySubsystem, Platform, Translation};
use vmcore::{PageSize, VirtAddr};
use workloads::Access;

/// The `(H, M, C)` readout of a partial simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartialSimOutput {
    /// Translations that missed the L1 TLB but hit the L2 TLB.
    pub stlb_hits: u64,
    /// Translations that missed both TLB levels.
    pub stlb_misses: u64,
    /// Total page-walk cycles.
    pub walk_cycles: u64,
}

impl PartialSimOutput {
    /// Converts the output into a model-input sample with an *unknown*
    /// runtime (set to zero — partial simulations cannot observe it).
    pub fn sample(&self) -> mosmodel_sample::Sample {
        mosmodel_sample::Sample {
            r: 0.0,
            h: self.stlb_hits as f64,
            m: self.stlb_misses as f64,
            c: self.walk_cycles as f64,
            kind: mosmodel_sample::LayoutKind::Mixed,
        }
    }
}

/// Internal alias so this crate does not depend on `mosmodel` broadly.
mod mosmodel_sample {
    pub use mosmodel::dataset::{LayoutKind, Sample};
}

/// Partially simulates a trace on `platform` under the page-size
/// assignment `page_size_at`, reporting only virtual-memory metrics.
///
/// # Example
///
/// ```
/// use machine::{partial_sim, Platform};
/// use vmcore::{PageSize, Region, VirtAddr};
/// use workloads::{TraceParams, WorkloadSpec};
///
/// let spec = WorkloadSpec::by_name("gups/8GB").unwrap();
/// let arena = Region::new(VirtAddr::new(0x1000_0000_0000), 64 << 20);
/// let trace = spec.trace(&TraceParams::new(arena, 20_000, 7));
/// let out = partial_sim(&Platform::HASWELL, trace, |_| PageSize::Base4K);
/// assert!(out.stlb_misses > 0);
/// assert!(out.walk_cycles > out.stlb_misses, "walks cost multiple cycles");
/// ```
pub fn partial_sim<T, F>(platform: &Platform, trace: T, page_size_at: F) -> PartialSimOutput
where
    T: IntoIterator<Item = Access>,
    F: Fn(VirtAddr) -> PageSize,
{
    let mut vm = MemorySubsystem::new(platform);
    let mut out = PartialSimOutput::default();
    for access in trace {
        let size = page_size_at(access.addr);
        match vm.translate(access.addr, size) {
            Translation::L1Hit => {}
            Translation::StlbHit { .. } => out.stlb_hits += 1,
            Translation::Walk { info } => {
                out.stlb_misses += 1;
                out.walk_cycles += u64::from(info.cycles);
            }
        }
        // Data references keep the cache state realistic: page-walk
        // latencies depend on what the program itself keeps resident.
        vm.data_access(access.addr, size);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use vmcore::Region;
    use workloads::{TraceParams, WorkloadSpec};

    fn trace(accesses: u64) -> impl Iterator<Item = Access> {
        let spec = WorkloadSpec::by_name("xsbench/4GB").unwrap();
        let arena = Region::new(VirtAddr::new(0x1000_0000_0000), 128 << 20);
        spec.trace(&TraceParams::new(arena, accesses, 9))
    }

    #[test]
    fn partial_sim_matches_full_engine_counters() {
        // The partial simulator and the full engine must agree exactly on
        // (H, M, C): they drive identical structures; only the timing
        // model differs.
        let partial = partial_sim(&Platform::SANDY_BRIDGE, trace(30_000), |_| PageSize::Base4K);
        let full = Engine::new(&Platform::SANDY_BRIDGE).run(trace(30_000), |_| PageSize::Base4K);
        assert_eq!(partial.stlb_hits, full.stlb_hits);
        assert_eq!(partial.stlb_misses, full.stlb_misses);
        assert_eq!(partial.walk_cycles, full.walk_cycles);
    }

    #[test]
    fn different_designs_produce_different_counters() {
        let snb = partial_sim(&Platform::SANDY_BRIDGE, trace(30_000), |_| PageSize::Base4K);
        let bdw = partial_sim(&Platform::BROADWELL, trace(30_000), |_| PageSize::Base4K);
        assert!(
            bdw.stlb_misses < snb.stlb_misses,
            "a 3x larger STLB must miss less: {} vs {}",
            bdw.stlb_misses,
            snb.stlb_misses
        );
    }

    #[test]
    fn sample_conversion_carries_counters() {
        let out = PartialSimOutput {
            stlb_hits: 1,
            stlb_misses: 2,
            walk_cycles: 30,
        };
        let s = out.sample();
        assert_eq!((s.h, s.m, s.c), (1.0, 2.0, 30.0));
        assert_eq!(s.r, 0.0, "partial simulations cannot observe runtime");
    }
}
