//! XSBench-like Monte Carlo neutron-transport kernel.
//!
//! The real XSBench performs, per "macroscopic cross-section lookup", one
//! binary search over a huge unionized energy grid followed by a burst of
//! reads into per-nuclide cross-section tables. The trace reproduces that
//! structure: a few dependent, shrinking-stride probes (the binary search)
//! and then a cluster of reads at related offsets across the nuclide
//! tables.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmcore::Region;

use crate::sampler::jitter_gap;
use crate::{Access, TraceParams};

/// Number of simulated nuclide tables sharing the arena.
const NUCLIDES: u64 = 64;
/// Reads into nuclide tables per lookup.
const BURST: u32 = 8;
/// Binary-search probes per lookup.
const SEARCH_PROBES: u32 = 6;

/// Streaming XSBench trace.
#[derive(Debug)]
pub struct XsBenchTrace {
    rng: StdRng,
    grid: Region,
    tables: Region,
    remaining: u64,
    /// Phase machine: 0..SEARCH_PROBES = binary search, then BURST reads.
    phase: u32,
    /// Current binary-search bounds (indexes into the grid).
    lo: u64,
    hi: u64,
    /// Energy index found by the search; selects table offsets.
    energy: u64,
}

impl XsBenchTrace {
    /// Creates the trace. The first third of the arena is the unionized
    /// energy grid; the rest holds the nuclide tables.
    pub fn new(params: &TraceParams) -> Self {
        let arena = params.arena;
        let grid_len = arena.len() / 3;
        let grid = Region::new(arena.start(), grid_len);
        let tables = Region::new(arena.start() + grid_len, arena.len() - grid_len);
        let grid_entries = (grid.len() / 16).max(2);
        XsBenchTrace {
            rng: StdRng::seed_from_u64(params.seed ^ 0x7873_6265),
            grid,
            tables,
            remaining: params.accesses,
            phase: 0,
            lo: 0,
            hi: grid_entries,
            energy: 0,
        }
    }

    fn grid_entries(&self) -> u64 {
        (self.grid.len() / 16).max(2)
    }

    fn begin_lookup(&mut self) {
        self.phase = 0;
        self.lo = 0;
        self.hi = self.grid_entries();
        self.energy = self.rng.gen_range(0..self.grid_entries());
    }
}

impl Iterator for XsBenchTrace {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;

        if self.phase < SEARCH_PROBES && self.hi > self.lo + 1 {
            // Binary-search probe: dependent load at the midpoint.
            let mid = (self.lo + self.hi) / 2;
            if self.energy < mid {
                self.hi = mid;
            } else {
                self.lo = mid;
            }
            self.phase += 1;
            let addr = self.grid.start() + mid * 16;
            return Some(Access::read_dep(addr, jitter_gap(&mut self.rng, 6)));
        }

        // Burst phase: reads into nuclide tables at energy-correlated
        // offsets (each nuclide table is a slice of the tables region).
        let burst_pos = self.phase.saturating_sub(SEARCH_PROBES);
        if burst_pos + 1 >= BURST {
            let access = self.table_access();
            self.begin_lookup();
            return Some(access);
        }
        self.phase += 1;
        Some(self.table_access())
    }
}

impl XsBenchTrace {
    fn table_access(&mut self) -> Access {
        let nuclide = self.rng.gen_range(0..NUCLIDES);
        let table_len = self.tables.len() / NUCLIDES;
        let entries = (table_len / 24).max(1);
        // The row is correlated with the found energy: neighbouring
        // lookups touch neighbouring rows, giving mild spatial locality.
        let frac = self.energy as f64 / self.grid_entries() as f64;
        let base_row = (frac * entries as f64) as u64;
        let row = (base_row + self.rng.gen_range(0..4)).min(entries - 1);
        let addr = self.tables.start() + nuclide * table_len + row * 24;
        Access::read(addr, jitter_gap(&mut self.rng, 12))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcore::{VirtAddr, MIB};

    fn params() -> TraceParams {
        TraceParams::new(
            Region::new(VirtAddr::new(0x2_0000_0000), 96 * MIB),
            20_000,
            5,
        )
    }

    #[test]
    fn in_arena_and_counted() {
        let p = params();
        let v: Vec<_> = XsBenchTrace::new(&p).collect();
        assert_eq!(v.len(), 20_000);
        assert!(v.iter().all(|a| p.arena.contains(a.addr)));
    }

    #[test]
    fn touches_both_grid_and_tables() {
        let p = params();
        let third = p.arena.len() / 3;
        let split = p.arena.start() + third;
        let (mut grid, mut tables) = (0u64, 0u64);
        for a in XsBenchTrace::new(&p) {
            if a.addr < split {
                grid += 1;
            } else {
                tables += 1;
            }
        }
        assert!(grid > 1000, "grid probes {grid}");
        assert!(tables > 1000, "table reads {tables}");
    }

    #[test]
    fn spreads_over_many_pages() {
        let p = params();
        let pages: std::collections::BTreeSet<u64> =
            XsBenchTrace::new(&p).map(|a| a.addr.raw() >> 12).collect();
        assert!(pages.len() > 1500, "{} pages", pages.len());
    }

    #[test]
    fn deterministic() {
        let p = params();
        let a: Vec<_> = XsBenchTrace::new(&p).take(500).collect();
        let b: Vec<_> = XsBenchTrace::new(&p).take(500).collect();
        assert_eq!(a, b);
    }
}
