//! The cycle-accounting execution engine.

use memsim::{MemorySubsystem, Microarch, Platform, Translation, DEFAULT_SALT};
use vmcore::{PageSize, PmuCounters, VirtAddr};
use workloads::Access;

/// Fraction of a dependent load's extra latency that stalls retirement.
const DEP_EXPOSED: f64 = 0.85;
/// EMA decay for the walk-density estimate (≈ last few hundred accesses).
const MISS_EMA_DECAY: f64 = 0.995;
/// Walk densities below this are stored as exactly 0. Left alone, a long
/// walk-free stretch decays the EMA into subnormal floats (it sticks at
/// 4.9e-322), and every later multiply takes a slow microcode assist. The
/// flush moves no counter: the density is only read through
/// [`MLP_ONSET`], far above it, and any value under 2^-62 vanishes when
/// the next walk adds `1 - MISS_EMA_DECAY` (see the tests).
const WALK_DENSITY_FLOOR: f64 = 1e-20;
/// A dependent chase's walk overlaps less with surrounding work: the ROB
/// drains behind the chain. Scales the platform's walk-hide cap.
const DEP_WALK_HIDE: f64 = 0.6;
/// How strongly frequent page walks degrade memory-level parallelism:
/// a walk serializes its dependent load, collapsing the miss overlap the
/// core otherwise sustains. At 100% walk density the effective MLP drops
/// by this fraction.
const MLP_DEGRADE: f64 = 0.75;
/// Walk densities below this leave the miss queues unaffected: sporadic
/// walks slot into existing bubbles. The onset threshold is what makes
/// R(C) convex for walk-saturated workloads while keeping the
/// near-zero-overhead region linear (and extrapolable).
const MLP_ONSET: f64 = 0.35;
/// How many cycles of overlap "headroom" one cycle of independent work
/// contributes: out-of-order cores extract more slack than raw issue
/// cycles because loads, stores and ALU work interleave.
const HEADROOM_SUPPLY: f64 = 2.5;

/// Tunables of the timing model that are not platform-specific.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Page-table placement salt (varies physical layout between runs).
    pub salt: u64,
    /// When set, the machine runs virtualized with the guest backed by
    /// this host page size: TLB misses take two-dimensional walks
    /// (paper's Gandhi/Pham context).
    pub virtualized: Option<PageSize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            salt: DEFAULT_SALT,
            virtualized: None,
        }
    }
}

/// The trace-driven execution engine for one platform.
///
/// # Example
///
/// ```
/// use machine::{Engine, Platform};
/// use vmcore::{PageSize, Region, VirtAddr};
/// use workloads::{TraceParams, WorkloadSpec};
///
/// let spec = WorkloadSpec::by_name("gups/8GB").unwrap();
/// let arena = Region::new(VirtAddr::new(0x1000_0000_0000), 64 << 20);
/// let trace = spec.trace(&TraceParams::new(arena, 50_000, 7));
/// let mut engine = Engine::new(&Platform::SANDY_BRIDGE);
/// let counters = engine.run(trace, |_va| PageSize::Base4K);
/// assert!(counters.stlb_misses > 0, "gups with 4KB pages must walk");
/// assert!(counters.runtime_cycles > counters.instructions / 4);
/// ```
#[derive(Debug)]
pub struct Engine {
    platform: Platform,
    config: EngineConfig,
    vm: MemorySubsystem,
    /// Wall-clock (retirement-point) cycle counter.
    now: f64,
    /// Cycle at which each hardware walker becomes free.
    walker_free_at: Vec<f64>,
    /// Independent-work cycles banked since the last exposed stall,
    /// bounded by the reorder-buffer depth.
    headroom: f64,
    headroom_cap: f64,
    // Counter accumulators.
    /// Exponential moving average of "this access walked" — the walk
    /// density that throttles memory-level parallelism.
    walk_density: f64,
    instructions: u64,
    stlb_hits: u64,
    stlb_misses: u64,
    walk_cycles: u64,
}

impl Engine {
    /// Creates an engine with default configuration.
    pub fn new(platform: &Platform) -> Self {
        Self::with_config(platform, EngineConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(platform: &Platform, config: EngineConfig) -> Self {
        let rob_entries: f64 = match platform.arch {
            Microarch::SandyBridge => 168.0,
            Microarch::IvyBridge => 168.0,
            Microarch::Haswell => 192.0,
            Microarch::Broadwell => 224.0,
            Microarch::Skylake => 224.0,
        };
        Engine {
            platform: platform.clone(),
            config,
            vm: match config.virtualized {
                Some(host_backing) => {
                    MemorySubsystem::virtualized(platform, host_backing, config.salt)
                }
                None => MemorySubsystem::with_salt(platform, config.salt),
            },
            now: 0.0,
            walker_free_at: vec![0.0; platform.walkers as usize],
            headroom: 0.0,
            headroom_cap: rob_entries / platform.issue_width,
            walk_density: 0.0,
            instructions: 0,
            stlb_hits: 0,
            stlb_misses: 0,
            walk_cycles: 0,
        }
    }

    /// The platform this engine models.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The engine configuration in effect.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Executes a trace to completion under the page-size assignment
    /// `page_size_at` (usually a Mosalloc layout), returning the PMU
    /// readout.
    ///
    /// An engine is single-use per measurement: `run` consumes the warmth
    /// of its TLBs and caches; construct a fresh engine per run for
    /// independent measurements.
    pub fn run<T, F>(&mut self, trace: T, page_size_at: F) -> PmuCounters
    where
        T: IntoIterator<Item = Access>,
        F: Fn(VirtAddr) -> PageSize,
    {
        for access in trace {
            self.step(&access, &page_size_at);
        }
        self.counters()
    }

    /// Processes a single access (exposed for fine-grained tests).
    pub fn step<F>(&mut self, access: &Access, page_size_at: &F)
    where
        F: Fn(VirtAddr) -> PageSize,
    {
        let issue_width = self.platform.issue_width;
        let stlb_exposed_frac = self.platform.stlb_exposed_frac;
        let l1d_lat = f64::from(self.platform.lat.l1d);
        let data_mlp = self.platform.data_mlp;

        // Base cost: this memory instruction plus its preceding
        // non-memory instructions, issued at the sustained width.
        let insts = 1 + u64::from(access.inst_gap);
        self.instructions += insts;
        let base = insts as f64 / issue_width;
        self.now += base;
        self.headroom = (self.headroom + base * HEADROOM_SUPPLY).min(self.headroom_cap);

        // One fused trip through the simulator: translation plus the data
        // reference. The engine-local timing math below needs only the
        // outcome fields (the EMA and stall accounting between the two
        // halves never touched `vm`, so fusing them is
        // counter-invisible).
        let size = page_size_at(access.addr);
        let outcome = self.vm.access(access.addr, size);

        // Address translation.
        let mut walked = false;
        match outcome.translation {
            Translation::L1Hit => {}
            Translation::StlbHit { latency } => {
                self.stlb_hits += 1;
                // A second-level TLB hit sits on the address-generation
                // path: a dependent chase eats all 7 cycles, independent
                // streams overlap most of them.
                if access.dep {
                    self.now += f64::from(latency);
                } else {
                    self.now += f64::from(latency) * stlb_exposed_frac;
                }
            }
            Translation::Walk { info } => {
                self.stlb_misses += 1;
                self.walk_cycles += u64::from(info.cycles);
                self.account_walk(f64::from(info.cycles), access.dep);
                walked = true;
            }
        }
        let density = MISS_EMA_DECAY * self.walk_density
            + (1.0 - MISS_EMA_DECAY) * f64::from(u8::from(walked));
        self.walk_density = if density < WALK_DENSITY_FLOOR {
            0.0
        } else {
            density
        };

        // The data reference itself. L1 hits are pipelined (free beyond
        // the base cost). Independent loads expose their extra latency
        // divided by the core's memory-level parallelism; serially
        // dependent loads (pointer chases) expose almost all of it — the
        // next instruction cannot issue without the value.
        let extra = f64::from(outcome.data_latency) - l1d_lat;
        if extra > 0.0 {
            if access.dep {
                self.now += extra * DEP_EXPOSED;
            } else {
                // Frequent walks serialize their dependent loads and eat
                // miss-queue slots, shrinking the overlap available to
                // everything else once density passes the onset.
                let over = (self.walk_density - MLP_ONSET).max(0.0) / (1.0 - MLP_ONSET);
                let eff_mlp = (data_mlp * (1.0 - MLP_DEGRADE * over)).max(1.0);
                self.now += extra / eff_mlp;
            }
        }
    }

    /// Queueing + overlap model for one page walk of `walk` cycles.
    ///
    /// `dep` marks walks triggered by a pointer chase: their address is
    /// produced by the previous load, so the walker cannot start ahead of
    /// the retirement point and the chain limits overlap.
    fn account_walk(&mut self, walk: f64, dep: bool) {
        // The walk starts as early as a free walker and the lookahead
        // window allow.
        let (slot, earliest) = self
            .walker_free_at
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one walker");
        let lookahead = if dep {
            0.0
        } else {
            self.platform.walk_lookahead
        };
        let start = (self.now - lookahead).max(earliest);
        let end = start + walk;
        self.walker_free_at[slot] = end;

        // Only the part of the walk that completes after the retirement
        // point can stall retirement. Banked independent work hides up to
        // `walk_hide_cap` of that, and hiding degrades smoothly as the
        // bank drains: a core drowning in misses has nothing to overlap
        // them with (the convexity of paper Figures 3 and 10).
        let completion = (end - self.now).max(0.0);
        let fullness = (self.headroom / self.headroom_cap).clamp(0.0, 1.0);
        let cap = self.platform.walk_hide_cap * if dep { DEP_WALK_HIDE } else { 1.0 };
        let hide = (cap * completion * fullness).min(self.headroom);
        self.now += completion - hide;
        self.headroom -= hide;
    }

    /// The current simulated cycle count (the retirement-point clock,
    /// rounded the same way as `PmuCounters::runtime_cycles`). This is the
    /// tick source for sim-domain observability spans: it is a pure function
    /// of the trace and platform, so identical runs read identical values.
    pub fn cycles(&self) -> u64 {
        self.now.round() as u64
    }

    /// Reads out the accumulated counters.
    pub fn counters(&self) -> PmuCounters {
        let program = self.vm.memory().program_loads();
        let walker = self.vm.memory().walker_loads();
        PmuCounters {
            runtime_cycles: self.now.round() as u64,
            stlb_hits: self.stlb_hits,
            stlb_misses: self.stlb_misses,
            walk_cycles: self.walk_cycles,
            instructions: self.instructions,
            program_l1d_loads: program.l1d,
            program_l2_loads: program.l2,
            program_l3_loads: program.l3,
            walker_l1d_loads: walker.l1d,
            walker_l2_loads: walker.l2,
            walker_l3_loads: walker.l3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcore::{Region, GIB, MIB};
    use workloads::{TraceParams, WorkloadSpec};

    fn arena(len: u64) -> Region {
        Region::new(VirtAddr::new(0x1000_0000_0000), len)
    }

    fn run(
        platform: &Platform,
        workload: &str,
        footprint: u64,
        accesses: u64,
        size: PageSize,
    ) -> PmuCounters {
        let spec = WorkloadSpec::by_name(workload).unwrap();
        let a = arena(footprint);
        let trace = spec.trace(&TraceParams::new(a, accesses, 7));
        Engine::new(platform).run(trace, |_| size)
    }

    /// `now`, `headroom`, `walk_density` and every `walker_free_at` slot
    /// must each be 0 or a normal float: subnormal operands make x86 take
    /// a microcode assist on every multiply that reads them.
    fn assert_no_subnormal_state(engine: &Engine, context: &str) {
        let scalars = [
            ("now", engine.now),
            ("headroom", engine.headroom),
            ("walk_density", engine.walk_density),
        ];
        let walkers = engine.walker_free_at.iter().map(|&t| ("walker_free_at", t));
        for (field, value) in scalars.into_iter().chain(walkers) {
            assert!(
                value == 0.0 || value.is_normal(),
                "{field} = {value:e} ({context})"
            );
        }
    }

    #[test]
    fn long_replays_keep_every_float_normal_or_zero() {
        // 160k accesses outlast the ~146k walk-free accesses after which
        // an unflushed walk density sticks at a subnormal value. Under 2MB
        // the 64MB arena fits every platform's 2MB L1 TLB and under 1GB
        // it is one page, so those replays are almost walk-free; under
        // 4KB they walk constantly.
        let spec = WorkloadSpec::by_name("gups/8GB").unwrap();
        for platform in Platform::ALL_EXTENDED {
            for size in [PageSize::Base4K, PageSize::Huge2M, PageSize::Huge1G] {
                let mut engine = Engine::new(platform);
                let trace = spec.trace(&TraceParams::new(arena(64 * MIB), 160_000, 7));
                for (i, access) in trace.enumerate() {
                    engine.step(&access, &|_| size);
                    assert_no_subnormal_state(
                        &engine,
                        &format!("{} {size:?}, access {i}", platform.name),
                    );
                }
            }
        }
    }

    #[test]
    fn the_next_walk_absorbs_any_density_below_the_floor() {
        // A walk sets the density to `DECAY * wd + (1 - DECAY)`. For any
        // wd < 2^-62 the product is under half an ulp of (1 - DECAY), so
        // the sum rounds to (1 - DECAY) exactly: flushing such a wd to 0
        // cannot change the density after the next walk. Rounding is
        // monotone, so checking the largest flushed value covers them all.
        let walk = 1.0 - MISS_EMA_DECAY;
        for wd in [WALK_DENSITY_FLOOR, 2f64.powi(-62)] {
            let after_walk = MISS_EMA_DECAY * wd + (1.0 - MISS_EMA_DECAY) * 1.0;
            assert_eq!(after_walk.to_bits(), walk.to_bits(), "wd = {wd:e}");
        }
        // Decaying a value at the floor stays normal, so no multiply on
        // the way down to the flush reads or writes a subnormal.
        assert!((MISS_EMA_DECAY * WALK_DENSITY_FLOOR).is_normal());
        // The density is read only as `wd - MLP_ONSET`, clamped at 0.
        const { assert!(WALK_DENSITY_FLOOR < MLP_ONSET) };

        // The same in the engine: a stuck subnormal density and a
        // flushed one leave bit-equal state after a walking access.
        let access = Access::read(VirtAddr::new(0x1000_0000_0000), 2);
        let mut stuck = Engine::new(&Platform::SANDY_BRIDGE);
        stuck.walk_density = 4.9e-322;
        let mut flushed = Engine::new(&Platform::SANDY_BRIDGE);
        flushed.step(&access, &|_| PageSize::Base4K);
        stuck.step(&access, &|_| PageSize::Base4K);
        assert_eq!(stuck.counters().stlb_misses, 1, "the access must walk");
        assert_eq!(stuck.walk_density.to_bits(), flushed.walk_density.to_bits());
        assert_eq!(stuck.walk_density.to_bits(), walk.to_bits());
        assert_eq!(stuck.counters(), flushed.counters());
    }

    #[test]
    fn gups_4k_walks_constantly() {
        let c = run(
            &Platform::SANDY_BRIDGE,
            "gups/8GB",
            256 * MIB,
            60_000,
            PageSize::Base4K,
        );
        // Uniform random over 64K pages with 512+64 TLB entries: nearly
        // every read access misses (writes re-hit their read's entry).
        assert!(
            c.stlb_misses as f64 > 0.35 * 60_000.0,
            "misses {} of 60k accesses",
            c.stlb_misses
        );
        assert!(c.walk_cycles > 0);
        assert!(c.avg_walk_latency() >= 4.0);
    }

    #[test]
    fn hugepages_slash_runtime_for_gups() {
        let base = run(
            &Platform::SANDY_BRIDGE,
            "gups/8GB",
            256 * MIB,
            60_000,
            PageSize::Base4K,
        );
        let huge = run(
            &Platform::SANDY_BRIDGE,
            "gups/8GB",
            256 * MIB,
            60_000,
            PageSize::Huge1G,
        );
        assert!(
            huge.stlb_misses * 50 < base.stlb_misses,
            "1GB pages kill the misses"
        );
        assert!(
            (huge.runtime_cycles as f64) < 0.95 * base.runtime_cycles as f64,
            "TLB-sensitive: {} vs {}",
            huge.runtime_cycles,
            base.runtime_cycles
        );
    }

    #[test]
    fn runtime_monotone_in_page_size_for_tlb_bound_load() {
        let r4k = run(
            &Platform::HASWELL,
            "gups/8GB",
            512 * MIB,
            60_000,
            PageSize::Base4K,
        );
        let r2m = run(
            &Platform::HASWELL,
            "gups/8GB",
            512 * MIB,
            60_000,
            PageSize::Huge2M,
        );
        let r1g = run(
            &Platform::HASWELL,
            "gups/8GB",
            512 * MIB,
            60_000,
            PageSize::Huge1G,
        );
        assert!(r2m.runtime_cycles < r4k.runtime_cycles);
        assert!(r1g.runtime_cycles <= r2m.runtime_cycles);
        assert!(r2m.walk_cycles < r4k.walk_cycles);
    }

    #[test]
    fn broadwell_gups_walk_cycles_can_exceed_runtime() {
        // The two-walker double counting of paper §VI-D: for gups the C
        // counter outruns R on Broadwell.
        let c = run(
            &Platform::BROADWELL,
            "gups/16GB",
            GIB,
            120_000,
            PageSize::Base4K,
        );
        assert!(
            c.walk_cycles as f64 > 0.85 * c.runtime_cycles as f64,
            "C={} should approach/exceed R={}",
            c.walk_cycles,
            c.runtime_cycles
        );
        // Same workload on the single-walker SandyBridge: C stays below R.
        let snb = run(
            &Platform::SANDY_BRIDGE,
            "gups/16GB",
            GIB,
            120_000,
            PageSize::Base4K,
        );
        assert!(snb.walk_cycles < snb.runtime_cycles);
    }

    #[test]
    fn walker_loads_pollute_and_are_counted() {
        let c = run(
            &Platform::SANDY_BRIDGE,
            "spec06/mcf",
            128 * MIB,
            80_000,
            PageSize::Base4K,
        );
        assert!(c.walker_l1d_loads > 0);
        let huge = run(
            &Platform::SANDY_BRIDGE,
            "spec06/mcf",
            128 * MIB,
            80_000,
            PageSize::Huge1G,
        );
        assert!(huge.walker_l1d_loads < c.walker_l1d_loads / 10);
        // Table 7 effect: more total L3 traffic under 4KB than hugepages.
        assert!(c.total_l3_loads() >= huge.total_l3_loads());
    }

    #[test]
    fn different_designs_produce_different_counters() {
        let snb = run(
            &Platform::SANDY_BRIDGE,
            "xsbench/4GB",
            128 * MIB,
            30_000,
            PageSize::Base4K,
        );
        let bdw = run(
            &Platform::BROADWELL,
            "xsbench/4GB",
            128 * MIB,
            30_000,
            PageSize::Base4K,
        );
        assert!(
            bdw.stlb_misses < snb.stlb_misses,
            "a 3x larger STLB must miss less: {} vs {}",
            bdw.stlb_misses,
            snb.stlb_misses
        );
    }

    #[test]
    fn instructions_independent_of_layout() {
        let a = run(
            &Platform::HASWELL,
            "xsbench/4GB",
            256 * MIB,
            40_000,
            PageSize::Base4K,
        );
        let b = run(
            &Platform::HASWELL,
            "xsbench/4GB",
            256 * MIB,
            40_000,
            PageSize::Huge2M,
        );
        assert_eq!(
            a.instructions, b.instructions,
            "layout must not change the program"
        );
    }

    #[test]
    fn virtualized_placement_follows_the_salt() {
        // The harness varies the salt per repetition; a virtualized
        // machine that ignored it would replay one placement forever.
        let spec = WorkloadSpec::by_name("gups/8GB").unwrap();
        let params = TraceParams::new(arena(256 * MIB), 40_000, 7);
        let run = |salt: u64| {
            let config = EngineConfig {
                salt,
                virtualized: Some(PageSize::Base4K),
            };
            Engine::with_config(&Platform::SANDY_BRIDGE, config)
                .run(spec.trace(&params), |_| PageSize::Base4K)
        };
        let base = run(DEFAULT_SALT);
        assert_eq!(base, run(DEFAULT_SALT), "same salt, same counters");
        assert_ne!(base, run(DEFAULT_SALT ^ (1 << 56)), "salt ignored");
    }

    #[test]
    fn deterministic_runs() {
        let a = run(
            &Platform::BROADWELL,
            "graph500/2GB",
            128 * MIB,
            30_000,
            PageSize::Base4K,
        );
        let b = run(
            &Platform::BROADWELL,
            "graph500/2GB",
            128 * MIB,
            30_000,
            PageSize::Base4K,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_layout_lands_between_uniform_extremes() {
        let spec = WorkloadSpec::by_name("gups/8GB").unwrap();
        let a = arena(256 * MIB);
        let mk_trace = || spec.trace(&TraceParams::new(a, 60_000, 7));
        let r4k = Engine::new(&Platform::SANDY_BRIDGE).run(mk_trace(), |_| PageSize::Base4K);
        let r2m = Engine::new(&Platform::SANDY_BRIDGE).run(mk_trace(), |_| PageSize::Huge2M);
        let mid = a.start() + a.len() / 2;
        let rmix = Engine::new(&Platform::SANDY_BRIDGE).run(mk_trace(), |va| {
            if va < mid {
                PageSize::Huge2M
            } else {
                PageSize::Base4K
            }
        });
        let lo = r2m.runtime_cycles.min(r4k.runtime_cycles);
        let hi = r2m.runtime_cycles.max(r4k.runtime_cycles);
        assert!(
            rmix.runtime_cycles >= lo && rmix.runtime_cycles <= hi,
            "mix {} outside [{lo}, {hi}]",
            rmix.runtime_cycles
        );
        assert!(rmix.walk_cycles < r4k.walk_cycles);
        assert!(rmix.walk_cycles > r2m.walk_cycles);
    }

    #[test]
    fn headroom_makes_sparse_misses_cheaper_per_walk_cycle() {
        // Marginal runtime per walk cycle should be smaller when misses are
        // sparse (2MB layout, few misses) than when dense (4KB): this is
        // the convexity the paper observed. Compare slope between
        // (C_2M→C_mix) and (C_mix→C_4K) segments for gups.
        let spec = WorkloadSpec::by_name("gups/16GB").unwrap();
        let a = arena(512 * MIB);
        let mk = || spec.trace(&TraceParams::new(a, 80_000, 3));
        let p = &Platform::SANDY_BRIDGE;
        let r2m = Engine::new(p).run(mk(), |_| PageSize::Huge2M);
        let cut = a.start() + a.len() / 2;
        let rmix = Engine::new(p).run(mk(), |va| {
            if va < cut {
                PageSize::Huge2M
            } else {
                PageSize::Base4K
            }
        });
        let r4k = Engine::new(p).run(mk(), |_| PageSize::Base4K);
        let slope_lo = (rmix.runtime_cycles as f64 - r2m.runtime_cycles as f64)
            / (rmix.walk_cycles as f64 - r2m.walk_cycles as f64);
        let slope_hi = (r4k.runtime_cycles as f64 - rmix.runtime_cycles as f64)
            / (r4k.walk_cycles as f64 - rmix.walk_cycles as f64);
        assert!(
            slope_lo < slope_hi,
            "convexity: low-density slope {slope_lo:.3} should be below high-density {slope_hi:.3}"
        );
    }
}
