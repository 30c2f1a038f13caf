//! PEBS-like TLB-miss profiling.
//!
//! The paper's Sliding Window heuristic needs to know *where* a workload's
//! TLB misses fall in its address space (§VI-B step 1: "collect the
//! workload's TLB miss trace with PEBS"). [`profile_tlb_misses`] plays the
//! role of PEBS: it runs the trace through [`MemorySubsystem::translate`]
//! with no timing model and histograms second-level misses over
//! fixed-size chunks of the arena. That is not a TLB-only pass: every
//! STLB miss also runs the walk caches, the page table and the walker's
//! references through the data caches, exactly as in a replay.

use memsim::{MemorySubsystem, Platform, Translation};
use vmcore::{PageSize, Region};
use workloads::Access;

/// Histogram of L2-TLB misses over an arena.
#[derive(Clone, Debug, PartialEq)]
pub struct MissProfile {
    arena: Region,
    chunk: u64,
    counts: Vec<u64>,
}

impl MissProfile {
    /// The profiled arena.
    pub fn arena(&self) -> Region {
        self.arena
    }

    /// Chunk granularity in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk
    }

    /// Miss count per chunk, lowest address first.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total misses recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Finds the smallest contiguous chunk range accounting for at least
    /// `fraction` (0..=1) of all misses — the paper's "hot region".
    ///
    /// Scans all windows with a two-pointer sweep, preferring the
    /// shortest; returns the region in virtual addresses. Returns the full
    /// arena when there are no misses.
    pub fn hot_region(&self, fraction: f64) -> Region {
        let total = self.total();
        if total == 0 || self.counts.is_empty() {
            return self.arena;
        }
        let need = (fraction.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut best: Option<(usize, usize)> = None; // [lo, hi)
        let mut lo = 0usize;
        let mut sum = 0u64;
        for hi in 0..self.counts.len() {
            sum += self.counts[hi];
            while sum >= need {
                let len = hi + 1 - lo;
                if best.is_none_or(|(blo, bhi)| len < bhi - blo) {
                    best = Some((lo, hi + 1));
                }
                sum -= self.counts[lo];
                lo += 1;
            }
        }
        match best {
            Some((blo, bhi)) => {
                let start = self.arena.start() + blo as u64 * self.chunk;
                let end_off = (bhi as u64 * self.chunk).min(self.arena.len());
                Region::new(start, end_off - blo as u64 * self.chunk)
            }
            None => self.arena,
        }
    }
}

/// Profiles the L2-TLB misses a trace incurs with an all-4KB layout,
/// bucketing by `chunk_bytes` chunks of `arena`.
///
/// Each access is one [`MemorySubsystem::translate`]: the TLBs, and on an
/// STLB miss the walk caches, page table and data caches the walk
/// touches. Only the program's own data references and the engine's
/// timing model are skipped.
///
/// Accesses outside the arena are counted against their nearest end chunk.
///
/// # Panics
///
/// Panics if `chunk_bytes == 0` or the arena is empty.
pub fn profile_tlb_misses<T>(
    platform: &Platform,
    trace: T,
    arena: Region,
    chunk_bytes: u64,
) -> MissProfile
where
    T: IntoIterator<Item = Access>,
{
    assert!(chunk_bytes > 0, "zero chunk size");
    assert!(!arena.is_empty(), "empty arena");
    let chunks = arena.len().div_ceil(chunk_bytes) as usize;
    let mut counts = vec![0u64; chunks];
    let mut vm = MemorySubsystem::new(platform);
    for access in trace {
        if let Translation::Walk { .. } = vm.translate(access.addr, PageSize::Base4K) {
            let off = access.addr.raw().saturating_sub(arena.start().raw());
            let idx = ((off / chunk_bytes) as usize).min(chunks - 1);
            counts[idx] += 1;
        }
    }
    MissProfile {
        arena,
        chunk: chunk_bytes,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcore::{VirtAddr, MIB};
    use workloads::{TraceParams, WorkloadSpec};

    fn arena() -> Region {
        Region::new(VirtAddr::new(0x2000_0000_0000), 128 * MIB)
    }

    fn profile(workload: &str) -> MissProfile {
        let spec = WorkloadSpec::by_name(workload).unwrap();
        let trace = spec.trace(&TraceParams::new(arena(), 60_000, 5));
        profile_tlb_misses(&Platform::SANDY_BRIDGE, trace, arena(), 2 * MIB)
    }

    #[test]
    fn gups_misses_spread_uniformly() {
        let p = profile("gups/8GB");
        assert!(p.total() > 10_000);
        // The hot region for 50% of uniform misses is ~half the arena.
        let hot = p.hot_region(0.5);
        let frac = hot.len() as f64 / p.arena().len() as f64;
        assert!(frac > 0.3 && frac < 0.7, "uniform hot fraction {frac:.2}");
    }

    #[test]
    fn graph500_misses_concentrate_at_heap_top() {
        let p = profile("graph500/2GB");
        let hot = p.hot_region(0.6);
        // Hot region should be a small slice near the arena top (the
        // paper's 80MB-at-the-top observation).
        assert!(
            hot.len() * 3 < p.arena().len(),
            "hot region {} of {} bytes",
            hot.len(),
            p.arena().len()
        );
        assert!(
            hot.end() > p.arena().start() + p.arena().len() * 3 / 4,
            "hot at the top"
        );
    }

    #[test]
    fn hot_region_fraction_monotone() {
        let p = profile("graph500/2GB");
        let h40 = p.hot_region(0.4);
        let h80 = p.hot_region(0.8);
        assert!(h40.len() <= h80.len());
    }

    #[test]
    fn empty_profile_returns_arena() {
        let p = MissProfile {
            arena: arena(),
            chunk: 2 * MIB,
            counts: vec![0; 64],
        };
        assert_eq!(p.hot_region(0.8), arena());
    }

    #[test]
    fn chunk_accounting_sums_to_total() {
        let p = profile("xsbench/4GB");
        assert_eq!(p.total(), p.counts().iter().sum::<u64>());
        assert_eq!(p.counts().len(), 64);
    }
}
