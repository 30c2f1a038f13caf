//! The memory-access trace abstraction.

use vmcore::{Region, VirtAddr};

/// One memory reference of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Referenced virtual address.
    pub addr: VirtAddr,
    /// Whether the reference writes (affects nothing in the current
    /// timing model but is part of the trace format).
    pub write: bool,
    /// Non-memory instructions retired between the previous memory access
    /// and this one. The execution engine converts these into base cycles
    /// and into latency-hiding headroom.
    pub inst_gap: u32,
    /// Whether this access is *serially dependent* on the previous one
    /// (a pointer chase). Dependent loads cannot overlap with their
    /// neighbours, so the engine exposes their full miss latency instead
    /// of dividing it by the core's memory-level parallelism.
    pub dep: bool,
}

impl Access {
    /// A read access.
    pub fn read(addr: VirtAddr, inst_gap: u32) -> Self {
        Access {
            addr,
            write: false,
            inst_gap,
            dep: false,
        }
    }

    /// A write access.
    pub fn write(addr: VirtAddr, inst_gap: u32) -> Self {
        Access {
            addr,
            write: true,
            inst_gap,
            dep: false,
        }
    }

    /// A serially dependent read (pointer chase).
    pub fn read_dep(addr: VirtAddr, inst_gap: u32) -> Self {
        Access {
            addr,
            write: false,
            inst_gap,
            dep: true,
        }
    }
}

/// Parameters for generating a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceParams {
    /// The workload's arena (its heap allocation); every generated address
    /// falls inside it.
    pub arena: Region,
    /// Number of memory accesses to generate.
    pub accesses: u64,
    /// RNG seed; identical parameters yield identical traces.
    pub seed: u64,
}

impl TraceParams {
    /// Convenience constructor.
    pub fn new(arena: Region, accesses: u64, seed: u64) -> Self {
        TraceParams {
            arena,
            accesses,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction() {
        let a = Access::read(VirtAddr::new(8), 3);
        assert!(!a.write);
        assert_eq!(a.inst_gap, 3);
        let w = Access::write(VirtAddr::new(8), 0);
        assert!(w.write);
        assert!(!w.dep);
        assert!(Access::read_dep(VirtAddr::new(8), 0).dep);
    }
}
