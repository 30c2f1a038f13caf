//! Simulated performance-monitoring-unit readouts.

use std::fmt;
use std::ops::{Add, AddAssign};

/// One run's worth of simulated hardware performance counters.
///
/// The four headline counters follow the paper's Table 2:
///
/// * `R` — [`runtime_cycles`](Self::runtime_cycles): unhalted execution cycles,
/// * `H` — [`stlb_hits`](Self::stlb_hits): translations that missed the L1
///   TLB but hit the L2 TLB,
/// * `M` — [`stlb_misses`](Self::stlb_misses): translations that missed both
///   TLB levels (and therefore walked the page table),
/// * `C` — [`walk_cycles`](Self::walk_cycles): cycles spent walking the page
///   table. On parts with two hardware walkers this counter sums both
///   walkers' active cycles and may exceed `R` (paper §VI-D).
///
/// The cache-load counters reproduce the paper's Table 7 split between
/// references issued by the *program* and by the *page walker*.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PmuCounters {
    /// `R`: unhalted runtime cycles.
    pub runtime_cycles: u64,
    /// `H`: L1-TLB misses that hit in the L2 TLB.
    pub stlb_hits: u64,
    /// `M`: misses in both TLB levels.
    pub stlb_misses: u64,
    /// `C`: aggregate page-walk cycles (double-counted across walkers).
    pub walk_cycles: u64,
    /// Retired instructions (used for sanity checks and IPC reporting).
    pub instructions: u64,
    /// Program-issued loads that reached the L1d cache.
    pub program_l1d_loads: u64,
    /// Program-issued loads that reached the L2 cache.
    pub program_l2_loads: u64,
    /// Program-issued loads that reached the L3 cache.
    pub program_l3_loads: u64,
    /// Walker-issued page-table references that reached the L1d cache.
    pub walker_l1d_loads: u64,
    /// Walker-issued page-table references that reached the L2 cache.
    pub walker_l2_loads: u64,
    /// Walker-issued page-table references that reached the L3 cache.
    pub walker_l3_loads: u64,
}

impl PmuCounters {
    /// Returns the `(R, H, M, C)` tuple as floating-point values, the form
    /// consumed by the runtime models.
    pub fn rhmc(&self) -> (f64, f64, f64, f64) {
        (
            self.runtime_cycles as f64,
            self.stlb_hits as f64,
            self.stlb_misses as f64,
            self.walk_cycles as f64,
        )
    }

    /// Instructions per cycle; `0.0` when no cycles elapsed.
    pub fn ipc(&self) -> f64 {
        if self.runtime_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.runtime_cycles as f64
        }
    }

    /// Average page-walk latency in cycles, `0.0` when no misses occurred.
    pub fn avg_walk_latency(&self) -> f64 {
        if self.stlb_misses == 0 {
            0.0
        } else {
            self.walk_cycles as f64 / self.stlb_misses as f64
        }
    }

    /// Total L3 loads (program + walker), the quantity the paper's Table 7
    /// uses to demonstrate cache pollution by the page walker.
    pub fn total_l3_loads(&self) -> u64 {
        self.program_l3_loads + self.walker_l3_loads
    }
}

impl Add for PmuCounters {
    type Output = PmuCounters;

    fn add(self, rhs: PmuCounters) -> PmuCounters {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for PmuCounters {
    fn add_assign(&mut self, rhs: PmuCounters) {
        self.runtime_cycles += rhs.runtime_cycles;
        self.stlb_hits += rhs.stlb_hits;
        self.stlb_misses += rhs.stlb_misses;
        self.walk_cycles += rhs.walk_cycles;
        self.instructions += rhs.instructions;
        self.program_l1d_loads += rhs.program_l1d_loads;
        self.program_l2_loads += rhs.program_l2_loads;
        self.program_l3_loads += rhs.program_l3_loads;
        self.walker_l1d_loads += rhs.walker_l1d_loads;
        self.walker_l2_loads += rhs.walker_l2_loads;
        self.walker_l3_loads += rhs.walker_l3_loads;
    }
}

impl fmt::Display for PmuCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "R={} H={} M={} C={} (ipc={:.2})",
            self.runtime_cycles,
            self.stlb_hits,
            self.stlb_misses,
            self.walk_cycles,
            self.ipc()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PmuCounters {
        PmuCounters {
            runtime_cycles: 1000,
            stlb_hits: 40,
            stlb_misses: 10,
            walk_cycles: 300,
            instructions: 2000,
            program_l1d_loads: 500,
            program_l2_loads: 100,
            program_l3_loads: 20,
            walker_l1d_loads: 30,
            walker_l2_loads: 15,
            walker_l3_loads: 5,
        }
    }

    #[test]
    fn rhmc_tuple_matches_fields() {
        let c = sample();
        assert_eq!(c.rhmc(), (1000.0, 40.0, 10.0, 300.0));
    }

    #[test]
    fn derived_quantities() {
        let c = sample();
        assert!((c.ipc() - 2.0).abs() < 1e-12);
        assert!((c.avg_walk_latency() - 30.0).abs() < 1e-12);
        assert_eq!(c.total_l3_loads(), 25);
    }

    #[test]
    fn zero_division_guards() {
        let c = PmuCounters::default();
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.avg_walk_latency(), 0.0);
    }

    #[test]
    fn addition_is_fieldwise() {
        let c = sample() + sample();
        assert_eq!(c.runtime_cycles, 2000);
        assert_eq!(c.walker_l3_loads, 10);
        let mut d = sample();
        d += sample();
        assert_eq!(c, d);
    }

    #[test]
    fn display_mentions_all_headline_counters() {
        let s = sample().to_string();
        for needle in ["R=1000", "H=40", "M=10", "C=300"] {
            assert!(s.contains(needle), "{s} missing {needle}");
        }
    }
}
