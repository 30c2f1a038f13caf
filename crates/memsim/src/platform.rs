//! Platform descriptions mirroring the paper's Tables 3–4.
//!
//! Three Intel server platforms are modelled: SandyBridge (Xeon E5-2420),
//! Haswell (Xeon E7-4830 v3) and Broadwell (Xeon E7-8890 v4). Their TLB
//! organisations follow Table 4 of the paper; cache capacities follow
//! Table 3; core parameters (issue width, out-of-order depth, memory-level
//! parallelism) are calibrated so the execution engine exhibits the
//! latency-hiding behaviour the paper measured.

use vmcore::PageSize;

/// Intel microarchitecture generations modelled (paper Table 4).
///
/// The paper *measures* on SandyBridge, Haswell and Broadwell; IvyBridge
/// and Skylake appear in its Table 4 TLB survey and are modelled here as
/// extended platforms for what-if studies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Microarch {
    /// 2011 Sandy Bridge.
    SandyBridge,
    /// 2012 Ivy Bridge (TLBs identical to Sandy Bridge).
    IvyBridge,
    /// 2013 Haswell.
    Haswell,
    /// 2014 Broadwell.
    Broadwell,
    /// 2015 Skylake (larger shared STLB, two walkers).
    Skylake,
}

impl std::fmt::Display for Microarch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Microarch::SandyBridge => "SandyBridge",
            Microarch::IvyBridge => "IvyBridge",
            Microarch::Haswell => "Haswell",
            Microarch::Broadwell => "Broadwell",
            Microarch::Skylake => "Skylake",
        };
        f.write_str(s)
    }
}

/// Geometry of one L1 TLB (entries and associativity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbGeometry {
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
}

/// Geometry and page-size policy of the unified L2 TLB ("STLB").
///
/// Encodes the generational differences of paper Table 4:
/// * SandyBridge's 512-entry STLB holds only 4KB translations;
/// * Haswell's 1024 entries are shared between 4KB and 2MB;
/// * Broadwell's 1536 entries are shared, plus 16 dedicated 1GB entries.
///
/// Page sizes the STLB cannot hold go straight from an L1 miss to a page
/// walk (counting as an `M` event, never an `H`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StlbGeometry {
    /// Entries in the main array.
    pub entries: u32,
    /// Associativity of the main array.
    pub ways: u32,
    /// Whether 2MB translations share the main array.
    pub holds_2m: bool,
    /// Dedicated 1GB entries (0 when 1GB translations are not L2-cached).
    pub entries_1g: u32,
}

impl StlbGeometry {
    /// Whether the STLB can hold translations of `size` at all.
    pub fn covers(&self, size: PageSize) -> bool {
        match size {
            PageSize::Base4K => true,
            PageSize::Huge2M => self.holds_2m,
            PageSize::Huge1G => self.entries_1g > 0,
        }
    }
}

/// Entry counts of the three page-walk caches.
///
/// Sizes follow the MMU-cache literature the paper cites (Barr et al.,
/// Bhattacharjee): a small PML4E cache, a small PDPTE cache and a larger
/// PDE cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PwcGeometry {
    /// PML4E (L4) cache entries.
    pub pml4e: u32,
    /// PDPTE (L3) cache entries.
    pub pdpte: u32,
    /// PDE (L2) cache entries.
    pub pde: u32,
}

/// Load-to-use latencies of the memory hierarchy, in core cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLatencies {
    /// L1d hit latency.
    pub l1d: u32,
    /// L2 hit latency.
    pub l2: u32,
    /// L3 hit latency.
    pub l3: u32,
    /// DRAM access latency.
    pub dram: u32,
}

/// A complete platform model: one paper machine.
#[derive(Clone, Debug, PartialEq)]
pub struct Platform {
    /// Short name used in reports ("SandyBridge", ...).
    pub name: &'static str,
    /// Microarchitecture generation.
    pub arch: Microarch,
    /// L1 D-TLB for 4KB translations.
    pub l1_tlb_4k: TlbGeometry,
    /// L1 D-TLB for 2MB translations.
    pub l1_tlb_2m: TlbGeometry,
    /// L1 D-TLB for 1GB translations.
    pub l1_tlb_1g: TlbGeometry,
    /// Unified second-level TLB.
    pub stlb: StlbGeometry,
    /// L2 TLB hit latency (Intel documents 7 cycles; paper §III, Pham model).
    pub stlb_latency: u32,
    /// Page-walk caches.
    pub pwc: PwcGeometry,
    /// L1d capacity in bytes (32KB on all three machines).
    pub l1d_bytes: u64,
    /// L1d associativity.
    pub l1d_ways: u32,
    /// L2 capacity in bytes (256KB on all three machines).
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// L3 capacity in bytes (Table 3: 15MB / 30MB / 60MB).
    pub l3_bytes: u64,
    /// L3 associativity.
    pub l3_ways: u32,
    /// Hierarchy latencies.
    pub lat: CacheLatencies,
    /// Number of hardware page walkers (Table 4: 1, 1, 2).
    pub walkers: u32,
    /// Sustained issue width in instructions per cycle, used by the
    /// execution engine for the base (stall-free) runtime.
    pub issue_width: f64,
    /// Maximum fraction of a page walk's latency the out-of-order core can
    /// overlap with independent work when walks are sparse.
    pub walk_hide_cap: f64,
    /// Fraction of an L2-TLB hit's 7-cycle latency exposed on
    /// *independent* accesses. Near zero: a second-level TLB lookup
    /// pipelines under the data misses already in flight. Dependent
    /// chases pay the full latency instead (engine policy).
    pub stlb_exposed_frac: f64,
    /// Memory-level parallelism for program data misses: the average number
    /// of outstanding data misses the core sustains, which divides exposed
    /// data-miss latency.
    pub data_mlp: f64,
    /// How many cycles ahead of the retirement point the out-of-order
    /// window lets the walker start a page walk (grows with ROB depth
    /// across generations).
    pub walk_lookahead: f64,
    /// Hypothetical design knob: a next-page TLB prefetcher (paper
    /// references \[17\]/\[53\] explore such designs). On every demand walk
    /// the translation of the next virtual page is walked in the
    /// background and installed in the STLB. `false` on every real
    /// generation; flip it to *explore the design* with the Figure-1
    /// methodology (`examples/design_exploration.rs`).
    pub tlb_prefetch: bool,
}

impl Platform {
    /// The paper's 1.9GHz Xeon E5-2420 (SandyBridge): 512-entry 4KB-only
    /// STLB, one walker, 15MB L3.
    pub const SANDY_BRIDGE: Platform = Platform {
        name: "SandyBridge",
        arch: Microarch::SandyBridge,
        l1_tlb_4k: TlbGeometry {
            entries: 64,
            ways: 4,
        },
        l1_tlb_2m: TlbGeometry {
            entries: 32,
            ways: 4,
        },
        l1_tlb_1g: TlbGeometry {
            entries: 4,
            ways: 4,
        },
        stlb: StlbGeometry {
            entries: 512,
            ways: 4,
            holds_2m: false,
            entries_1g: 0,
        },
        stlb_latency: 7,
        pwc: PwcGeometry {
            pml4e: 4,
            pdpte: 4,
            pde: 32,
        },
        l1d_bytes: 32 << 10,
        l1d_ways: 8,
        l2_bytes: 256 << 10,
        l2_ways: 8,
        l3_bytes: 15 << 20,
        l3_ways: 20,
        lat: CacheLatencies {
            l1d: 4,
            l2: 12,
            l3: 38,
            dram: 220,
        },
        walkers: 1,
        issue_width: 3.0,
        walk_hide_cap: 0.78,
        stlb_exposed_frac: 0.05,
        data_mlp: 4.5,
        walk_lookahead: 20.0,
        tlb_prefetch: false,
    };

    /// The paper's 2.1GHz Xeon E7-4830 v3 (Haswell): 1024 shared STLB
    /// entries (4KB+2MB), one walker, 30MB L3.
    pub const HASWELL: Platform = Platform {
        name: "Haswell",
        arch: Microarch::Haswell,
        l1_tlb_4k: TlbGeometry {
            entries: 64,
            ways: 4,
        },
        l1_tlb_2m: TlbGeometry {
            entries: 32,
            ways: 4,
        },
        l1_tlb_1g: TlbGeometry {
            entries: 4,
            ways: 4,
        },
        stlb: StlbGeometry {
            entries: 1024,
            ways: 8,
            holds_2m: true,
            entries_1g: 0,
        },
        stlb_latency: 7,
        pwc: PwcGeometry {
            pml4e: 4,
            pdpte: 4,
            pde: 32,
        },
        l1d_bytes: 32 << 10,
        l1d_ways: 8,
        l2_bytes: 256 << 10,
        l2_ways: 8,
        l3_bytes: 30 << 20,
        l3_ways: 20,
        lat: CacheLatencies {
            l1d: 4,
            l2: 12,
            l3: 42,
            dram: 205,
        },
        walkers: 1,
        issue_width: 3.4,
        walk_hide_cap: 0.82,
        stlb_exposed_frac: 0.04,
        data_mlp: 5.5,
        walk_lookahead: 28.0,
        tlb_prefetch: false,
    };

    /// The paper's 2.2GHz Xeon E7-8890 v4 (Broadwell): 1536 shared STLB
    /// entries plus 16 × 1GB entries, **two** walkers, 60MB L3.
    pub const BROADWELL: Platform = Platform {
        name: "Broadwell",
        arch: Microarch::Broadwell,
        l1_tlb_4k: TlbGeometry {
            entries: 64,
            ways: 4,
        },
        l1_tlb_2m: TlbGeometry {
            entries: 32,
            ways: 4,
        },
        l1_tlb_1g: TlbGeometry {
            entries: 4,
            ways: 4,
        },
        stlb: StlbGeometry {
            entries: 1536,
            ways: 6,
            holds_2m: true,
            entries_1g: 16,
        },
        stlb_latency: 7,
        pwc: PwcGeometry {
            pml4e: 4,
            pdpte: 4,
            pde: 32,
        },
        l1d_bytes: 32 << 10,
        l1d_ways: 8,
        l2_bytes: 256 << 10,
        l2_ways: 8,
        l3_bytes: 60 << 20,
        l3_ways: 20,
        lat: CacheLatencies {
            l1d: 4,
            l2: 12,
            l3: 48,
            dram: 190,
        },
        walkers: 2,
        issue_width: 3.6,
        walk_hide_cap: 0.85,
        stlb_exposed_frac: 0.03,
        data_mlp: 7.0,
        walk_lookahead: 40.0,
        tlb_prefetch: false,
    };

    /// A 2012 Ivy Bridge part: per paper Table 4 its TLB organisation is
    /// identical to Sandy Bridge's; the core is a mild refresh. Extended
    /// platform (the paper surveys it but does not measure on it).
    pub const IVY_BRIDGE: Platform = Platform {
        name: "IvyBridge",
        arch: Microarch::IvyBridge,
        lat: CacheLatencies {
            l1d: 4,
            l2: 12,
            l3: 36,
            dram: 215,
        },
        issue_width: 3.1,
        walk_hide_cap: 0.79,
        data_mlp: 4.7,
        walk_lookahead: 22.0,
        ..Platform::SANDY_BRIDGE_BASE
    };

    /// A 2015 Skylake server part: 1536 shared STLB entries + 16 × 1GB,
    /// two walkers (paper Table 4). Extended platform.
    pub const SKYLAKE: Platform = Platform {
        name: "Skylake",
        arch: Microarch::Skylake,
        stlb: StlbGeometry {
            entries: 1536,
            ways: 12,
            holds_2m: true,
            entries_1g: 16,
        },
        l3_bytes: 32 << 20,
        l3_ways: 16,
        lat: CacheLatencies {
            l1d: 4,
            l2: 12,
            l3: 44,
            dram: 180,
        },
        walkers: 2,
        issue_width: 3.8,
        walk_hide_cap: 0.86,
        stlb_exposed_frac: 0.03,
        data_mlp: 7.5,
        walk_lookahead: 44.0,
        ..Platform::SANDY_BRIDGE_BASE
    };

    /// Alias used by the spread constructors above.
    const SANDY_BRIDGE_BASE: Platform = Platform::SANDY_BRIDGE;

    /// The three platforms the paper measures on, oldest first.
    pub const ALL: [&'static Platform; 3] = [
        &Platform::SANDY_BRIDGE,
        &Platform::HASWELL,
        &Platform::BROADWELL,
    ];

    /// All five modelled generations of paper Table 4, oldest first.
    pub const ALL_EXTENDED: [&'static Platform; 5] = [
        &Platform::SANDY_BRIDGE,
        &Platform::IVY_BRIDGE,
        &Platform::HASWELL,
        &Platform::BROADWELL,
        &Platform::SKYLAKE,
    ];

    /// Looks a platform up by (case-insensitive) name, including the
    /// extended generations.
    pub fn by_name(name: &str) -> Option<&'static Platform> {
        Platform::ALL_EXTENDED
            .iter()
            .copied()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// Validates a (possibly hand-built) platform's structural
    /// parameters, returning a description of the first problem found.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a geometry is inconsistent
    /// (zero ways, entries not divisible by ways, a cache size that is
    /// not a whole number of 64-byte lines or has more lines than a `u32`
    /// counts, non-positive engine parameters, or inverted latencies).
    pub fn validate(&self) -> Result<(), String> {
        let tlb = |name: &str, g: TlbGeometry| -> Result<(), String> {
            if g.ways == 0 || g.entries == 0 {
                return Err(format!("{name}: zero entries or ways"));
            }
            if !g.entries.is_multiple_of(g.ways) {
                return Err(format!(
                    "{name}: {} entries not divisible by {} ways",
                    g.entries, g.ways
                ));
            }
            Ok(())
        };
        tlb("l1_tlb_4k", self.l1_tlb_4k)?;
        tlb("l1_tlb_2m", self.l1_tlb_2m)?;
        tlb("l1_tlb_1g", self.l1_tlb_1g)?;
        if self.stlb.entries == 0 {
            return Err("stlb.entries: the STLB needs at least one entry".into());
        }
        if self.stlb.ways == 0 || !self.stlb.entries.is_multiple_of(self.stlb.ways) {
            return Err("stlb: entries not divisible by ways".into());
        }
        for (name, bytes, ways) in [
            ("l1d", self.l1d_bytes, self.l1d_ways),
            ("l2", self.l2_bytes, self.l2_ways),
            ("l3", self.l3_bytes, self.l3_ways),
        ] {
            let lines = line_count(bytes).map_err(|e| format!("{name}: {e}"))?;
            if ways == 0 || lines == 0 || !lines.is_multiple_of(ways) {
                return Err(format!(
                    "{name}: {lines} lines not divisible by {ways} ways"
                ));
            }
        }
        if !(self.lat.l1d < self.lat.l2 && self.lat.l2 < self.lat.l3 && self.lat.l3 < self.lat.dram)
        {
            return Err("latencies must strictly increase l1d < l2 < l3 < dram".into());
        }
        if self.walkers == 0 {
            return Err("at least one page walker is required".into());
        }
        if self.issue_width <= 0.0
            || !(0.0..1.0).contains(&self.walk_hide_cap)
            || !(0.0..=1.0).contains(&self.stlb_exposed_frac)
            || self.data_mlp < 1.0
            || self.walk_lookahead < 0.0
        {
            return Err("engine parameters out of range".into());
        }
        Ok(())
    }

    /// The L1 TLB geometry for a page size.
    pub fn l1_tlb(&self, size: PageSize) -> TlbGeometry {
        match size {
            PageSize::Base4K => self.l1_tlb_4k,
            PageSize::Huge2M => self.l1_tlb_2m,
            PageSize::Huge1G => self.l1_tlb_1g,
        }
    }
}

/// Number of 64-byte lines in a data cache of `bytes`.
///
/// # Errors
///
/// Returns a message when `bytes` is not a whole number of lines, or
/// when the line count does not fit the `u32` of a [`CacheGeometry`].
///
/// [`CacheGeometry`]: crate::CacheGeometry
pub(crate) fn line_count(bytes: u64) -> Result<u32, String> {
    if !bytes.is_multiple_of(64) {
        return Err(format!(
            "{bytes} bytes is not a whole number of 64-byte lines"
        ));
    }
    u32::try_from(bytes / 64).map_err(|_| format!("{} lines do not fit in a u32", bytes / 64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn table4_tlb_growth_across_generations() {
        assert_eq!(Platform::SANDY_BRIDGE.stlb.entries, 512);
        assert_eq!(Platform::HASWELL.stlb.entries, 1024);
        assert_eq!(Platform::BROADWELL.stlb.entries, 1536);
        assert!(!Platform::SANDY_BRIDGE.stlb.holds_2m);
        assert!(Platform::HASWELL.stlb.holds_2m);
        assert_eq!(Platform::BROADWELL.stlb.entries_1g, 16);
        assert_eq!(Platform::SANDY_BRIDGE.walkers, 1);
        assert_eq!(Platform::BROADWELL.walkers, 2);
    }

    #[test]
    fn table3_l3_growth() {
        assert_eq!(Platform::SANDY_BRIDGE.l3_bytes, 15 << 20);
        assert_eq!(Platform::HASWELL.l3_bytes, 30 << 20);
        assert_eq!(Platform::BROADWELL.l3_bytes, 60 << 20);
    }

    #[test]
    fn stlb_coverage_policy() {
        assert!(Platform::SANDY_BRIDGE.stlb.covers(PageSize::Base4K));
        assert!(!Platform::SANDY_BRIDGE.stlb.covers(PageSize::Huge2M));
        assert!(!Platform::SANDY_BRIDGE.stlb.covers(PageSize::Huge1G));
        assert!(Platform::HASWELL.stlb.covers(PageSize::Huge2M));
        assert!(!Platform::HASWELL.stlb.covers(PageSize::Huge1G));
        assert!(Platform::BROADWELL.stlb.covers(PageSize::Huge1G));
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Platform::by_name("broadwell").unwrap().name, "Broadwell");
        assert_eq!(Platform::by_name("skylake").unwrap().name, "Skylake");
        assert!(Platform::by_name("alderlake").is_none());
    }

    #[test]
    fn extended_generations_match_table4() {
        let ivb = &Platform::IVY_BRIDGE;
        assert_eq!(ivb.stlb.entries, 512, "IvyBridge TLBs equal SandyBridge's");
        assert!(!ivb.stlb.holds_2m);
        assert_eq!(ivb.walkers, 1);
        let skl = &Platform::SKYLAKE;
        assert_eq!(skl.stlb.entries, 1536);
        assert_eq!(skl.stlb.entries_1g, 16);
        assert_eq!(skl.walkers, 2);
        assert!(skl.stlb.holds_2m);
    }

    #[test]
    fn extended_list_is_ordered_and_unique() {
        let names: Vec<&str> = Platform::ALL_EXTENDED.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "SandyBridge",
                "IvyBridge",
                "Haswell",
                "Broadwell",
                "Skylake"
            ]
        );
    }

    #[test]
    fn all_modelled_platforms_validate() {
        for p in Platform::ALL_EXTENDED {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn validate_catches_bad_geometries() {
        let bad_tlb = Platform {
            l1_tlb_4k: TlbGeometry {
                entries: 5,
                ways: 2,
            },
            ..Platform::SANDY_BRIDGE
        };
        assert!(bad_tlb.validate().is_err());
        let bad_lat = Platform {
            lat: CacheLatencies {
                l1d: 10,
                l2: 5,
                l3: 40,
                dram: 200,
            },
            ..Platform::SANDY_BRIDGE
        };
        assert!(bad_lat.validate().is_err());
        let no_walker = Platform {
            walkers: 0,
            ..Platform::SANDY_BRIDGE
        };
        assert!(no_walker.validate().is_err());
        let bad_mlp = Platform {
            data_mlp: 0.5,
            ..Platform::SANDY_BRIDGE
        };
        assert!(bad_mlp.validate().is_err());
        let bad_stlb = Platform {
            stlb: StlbGeometry {
                entries: 7,
                ways: 2,
                holds_2m: true,
                entries_1g: 0,
            },
            ..Platform::SANDY_BRIDGE
        };
        assert!(bad_stlb.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_zero_entry_stlb() {
        // `0 % ways == 0`, so divisibility alone let this through, and the
        // first STLB lookup then divided by zero sets.
        let empty = Platform {
            stlb: StlbGeometry {
                entries: 0,
                ..Platform::HASWELL.stlb
            },
            ..Platform::HASWELL
        };
        let err = empty.validate().unwrap_err();
        assert!(err.starts_with("stlb.entries:"), "{err}");
    }

    #[test]
    fn validate_rejects_a_cache_size_that_is_not_whole_lines() {
        // Flooring would make this 245760 lines, a multiple of 20 ways.
        let ragged = Platform {
            l3_bytes: (15 << 20) + 32,
            ..Platform::SANDY_BRIDGE
        };
        let err = ragged.validate().unwrap_err();
        assert!(
            err.starts_with("l3:") && err.contains("whole number"),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_a_line_count_beyond_u32() {
        // 2^32 lines split evenly into 16 ways, yet `as u32` makes them 0.
        let huge = Platform {
            l3_bytes: 64 << 32,
            l3_ways: 16,
            ..Platform::SANDY_BRIDGE
        };
        let err = huge.validate().unwrap_err();
        assert!(err.starts_with("l3:") && err.contains("u32"), "{err}");
    }

    #[test]
    fn l1_tlb_selector() {
        let p = &Platform::SANDY_BRIDGE;
        assert_eq!(p.l1_tlb(PageSize::Base4K).entries, 64);
        assert_eq!(p.l1_tlb(PageSize::Huge2M).entries, 32);
        assert_eq!(p.l1_tlb(PageSize::Huge1G).entries, 4);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn all_platforms_have_sane_engine_params() {
        for p in Platform::ALL {
            assert!(p.issue_width > 1.0);
            assert!(p.walk_hide_cap > 0.0 && p.walk_hide_cap < 1.0);
            assert!(p.data_mlp >= 1.0);
            assert!(p.lat.l1d < p.lat.l2 && p.lat.l2 < p.lat.l3 && p.lat.l3 < p.lat.dram);
        }
    }
}
