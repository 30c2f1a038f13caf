//! SPEC-CPU-like single-threaded workloads: `mcf`, `omnetpp`,
//! `xalancbmk`.
//!
//! * **mcf** (network simplex): long dependent pointer chases over a large
//!   arc array, punctuated by sequential pricing sweeps. Runtime responds
//!   non-linearly to walk cycles (paper Figure 3).
//! * **omnetpp** (discrete event simulation): a hot future-event-set heap
//!   plus random message-object traffic over a modest footprint. Runtime
//!   is almost perfectly linear in walk cycles (paper Figure 8).
//! * **xalancbmk** (XSLT processing): tree traversals with strong temporal
//!   reuse over a mid-size DOM; its caches are warm, so page walks evict
//!   useful lines and the poly1 slope exceeds 1 (paper Figure 9, Table 7).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmcore::Region;

use crate::sampler::{jitter_gap, PowerLaw};
use crate::{Access, TraceParams};

fn chase_next(idx: u64, n: u64, salt: u64) -> u64 {
    // A fixed functional graph: deterministic "pointer" stored at each arc.
    let mut x = idx ^ salt;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) % n
}

/// Streaming `mcf` trace.
#[derive(Debug)]
pub struct McfTrace {
    rng: StdRng,
    arena: Region,
    remaining: u64,
    /// Current arc index of the pointer chase.
    idx: u64,
    /// Steps left in the current chase before a pricing sweep.
    chase_left: u32,
    /// Words left in the current sequential sweep.
    sweep_left: u32,
    sweep_cursor: u64,
    /// Network simplex works a *block* of arcs at a time: chases jump
    /// within this window and the window relocates occasionally. The
    /// window spans far more 4KB pages than the TLB holds but few 2MB
    /// pages, matching mcf's measured locality.
    window_base: u64,
    window_steps: u32,
}

/// Arc record size in bytes (real mcf arcs are ~72B; rounded to a cache
/// line so a record is one line).
const ARC_BYTES: u64 = 64;

impl McfTrace {
    /// Creates the trace.
    pub fn new(params: &TraceParams) -> Self {
        McfTrace {
            rng: StdRng::seed_from_u64(params.seed ^ 0x6d_6366),
            arena: params.arena,
            remaining: params.accesses,
            idx: 1,
            chase_left: 40,
            sweep_left: 0,
            sweep_cursor: 0,
            window_base: 0,
            window_steps: 0,
        }
    }

    fn arcs(&self) -> u64 {
        (self.arena.len() / ARC_BYTES).max(2)
    }

    /// The active arc block: an eighth of the arc array.
    fn window_arcs(&self) -> u64 {
        (self.arcs() / 8).max(2)
    }
}

impl Iterator for McfTrace {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.sweep_left > 0 {
            // Pricing sweep: sequential scan with cheap gaps.
            self.sweep_left -= 1;
            let addr = self.arena.start() + (self.sweep_cursor % self.arcs()) * ARC_BYTES;
            self.sweep_cursor += 1;
            return Some(Access::read(addr, jitter_gap(&mut self.rng, 2)));
        }
        if self.chase_left == 0 {
            self.chase_left = self.rng.gen_range(24..64);
            self.sweep_left = self.rng.gen_range(8..24);
        }
        self.chase_left -= 1;
        if self.window_steps == 0 {
            self.window_steps = 4000;
            let blocks = self.arcs() / self.window_arcs();
            self.window_base = self.rng.gen_range(0..blocks.max(1)) * self.window_arcs();
        }
        self.window_steps -= 1;
        // Most pivots stay in the active block; some chase into the wider
        // network (real mcf follows tree edges that span blocks).
        self.idx = if self.rng.gen_bool(0.8) {
            let local = chase_next(self.idx, self.window_arcs(), 0x6d_6366);
            (self.window_base + local).min(self.arcs() - 1)
        } else {
            chase_next(self.idx, self.arcs(), 0x6d_6311)
        };
        let addr = self.arena.start() + self.idx * ARC_BYTES;
        Some(Access::read_dep(addr, jitter_gap(&mut self.rng, 2)))
    }
}

/// Streaming `omnetpp` trace.
#[derive(Debug)]
pub struct OmnetppTrace {
    rng: StdRng,
    /// Hot future-event-set heap (small region at the arena base).
    fes: Region,
    /// Message pool (the rest of the arena).
    pool: Region,
    law: PowerLaw,
    remaining: u64,
    phase: u32,
    /// Current message object; several fields are read in sequence.
    msg: u64,
    msg_field: u32,
}

/// Message object size (a few cache lines, like real cMessage objects).
const MSG_BYTES: u64 = 256;

impl OmnetppTrace {
    /// Creates the trace.
    pub fn new(params: &TraceParams) -> Self {
        let arena = params.arena;
        let fes_len = (arena.len() / 64).clamp(4096, 4 << 20);
        let fes = Region::new(arena.start(), fes_len);
        let pool = Region::from_bounds(fes.end(), arena.end());
        let slots = (fes.len() / 8).max(2);
        OmnetppTrace {
            rng: StdRng::seed_from_u64(params.seed ^ 0x6f6d_6e65),
            fes,
            pool,
            law: PowerLaw::new(slots, 4.0),
            remaining: params.accesses,
            phase: 0,
            msg: 0,
            msg_field: 0,
        }
    }
}

impl Iterator for OmnetppTrace {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.phase = (self.phase + 1) % 8;
        if self.phase < 3 {
            // Heap sift: biased toward the FES head (hot, cache-resident).
            let slot = self.law.sample(&mut self.rng);
            let addr = self.fes.start() + slot * 8;
            return Some(Access::write(addr, jitter_gap(&mut self.rng, 10)));
        }
        // Message handling: pick a message uniformly, then touch a few of
        // its fields (spatial locality within the object).
        if self.msg_field == 0 {
            let msgs = (self.pool.len() / MSG_BYTES).max(1);
            self.msg = self.rng.gen_range(0..msgs);
            self.msg_field = 3;
        }
        self.msg_field -= 1;
        let addr = self.pool.start() + self.msg * MSG_BYTES + u64::from(self.msg_field) * 48;
        Some(Access::read(addr, jitter_gap(&mut self.rng, 14)))
    }
}

/// Streaming `xalancbmk` trace.
#[derive(Debug)]
pub struct XalancbmkTrace {
    rng: StdRng,
    arena: Region,
    remaining: u64,
    /// Current DOM node of the traversal.
    node: u64,
    /// Depth left in the current template-match descent.
    depth: u32,
    /// Hot fraction: templates revisit a subset of nodes constantly.
    hot_nodes: u64,
}

/// DOM node size.
const NODE_BYTES: u64 = 128;

impl XalancbmkTrace {
    /// Creates the trace.
    pub fn new(params: &TraceParams) -> Self {
        let nodes = (params.arena.len() / NODE_BYTES).max(2);
        XalancbmkTrace {
            rng: StdRng::seed_from_u64(params.seed ^ 0x7861_6c61),
            arena: params.arena,
            remaining: params.accesses,
            node: 1,
            depth: 0,
            hot_nodes: (nodes / 64).max(2),
        }
    }

    fn nodes(&self) -> u64 {
        (self.arena.len() / NODE_BYTES).max(2)
    }
}

impl Iterator for XalancbmkTrace {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.depth == 0 {
            // New template match: most restarts begin at one of a few
            // hundred anchor nodes (the stylesheet templates), so the same
            // descent paths repeat and stay cache-warm; the rest roam the
            // whole DOM.
            self.depth = self.rng.gen_range(6..20);
            self.node = if self.rng.gen_bool(0.8) {
                let anchors = 512.min(self.hot_nodes);
                let a = PowerLaw::new(anchors, 2.0).sample(&mut self.rng);
                a * (self.hot_nodes / anchors).max(1)
            } else {
                self.rng.gen_range(0..self.nodes())
            };
        }
        self.depth -= 1;
        // Child pointer chase: the child offset is a *deterministic*
        // function of the parent (the DOM's shape is fixed), so repeated
        // template matches retrace the same nodes.
        let step = 1 + chase_next(self.node, 31, 0x7861);
        self.node = (self.node + step) % self.nodes();
        let addr = self.arena.start() + self.node * NODE_BYTES;
        Some(Access::read_dep(addr, jitter_gap(&mut self.rng, 8)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcore::{VirtAddr, MIB};

    fn params(len: u64) -> TraceParams {
        TraceParams::new(Region::new(VirtAddr::new(0x5_0000_0000), len), 30_000, 2)
    }

    #[test]
    fn mcf_in_arena_with_dependent_chases() {
        let p = params(128 * MIB);
        let v: Vec<_> = McfTrace::new(&p).collect();
        assert_eq!(v.len(), 30_000);
        assert!(v.iter().all(|a| p.arena.contains(a.addr)));
        // Chases jump far: median jump distance is large.
        let mut jumps: Vec<u64> = v
            .windows(2)
            .map(|w| w[1].addr.raw().abs_diff(w[0].addr.raw()))
            .collect();
        jumps.sort_unstable();
        assert!(
            jumps[jumps.len() / 2] > 4096,
            "median jump {}",
            jumps[jumps.len() / 2]
        );
    }

    #[test]
    fn mcf_has_sequential_sweeps() {
        let p = params(128 * MIB);
        let v: Vec<_> = McfTrace::new(&p).collect();
        let seq = v
            .windows(2)
            .filter(|w| w[1].addr.raw().wrapping_sub(w[0].addr.raw()) == ARC_BYTES)
            .count();
        assert!(seq > 1000, "sequential steps {seq}");
    }

    #[test]
    fn omnetpp_concentrates_on_fes() {
        let p = params(128 * MIB);
        let fes_end = p.arena.start() + (p.arena.len() / 64).clamp(4096, 4 << 20);
        let v: Vec<_> = OmnetppTrace::new(&p).collect();
        let fes = v.iter().filter(|a| a.addr < fes_end).count();
        assert!(fes > v.len() / 4, "FES accesses {fes}/{}", v.len());
        assert!(v.iter().all(|a| p.arena.contains(a.addr)));
    }

    #[test]
    fn omnetpp_message_fields_are_local() {
        let p = params(128 * MIB);
        let v: Vec<_> = OmnetppTrace::new(&p).collect();
        // Consecutive pool reads within one message stay within 256B.
        let local = v
            .windows(2)
            .filter(|w| !w[0].write && !w[1].write)
            .filter(|w| w[0].addr.raw().abs_diff(w[1].addr.raw()) < MSG_BYTES)
            .count();
        assert!(local > 3000, "local field reads {local}");
    }

    #[test]
    fn xalancbmk_has_strong_reuse() {
        let p = params(64 * MIB);
        let v: Vec<_> = XalancbmkTrace::new(&p).collect();
        let distinct: std::collections::BTreeSet<u64> =
            v.iter().map(|a| a.addr.raw() / NODE_BYTES).collect();
        // Far fewer distinct nodes than accesses: temporal reuse.
        assert!(
            distinct.len() * 2 < v.len(),
            "{} distinct nodes",
            distinct.len()
        );
        assert!(v.iter().all(|a| p.arena.contains(a.addr)));
    }

    #[test]
    fn all_deterministic() {
        let p = params(32 * MIB);
        assert_eq!(
            McfTrace::new(&p).take(100).collect::<Vec<_>>(),
            McfTrace::new(&p).take(100).collect::<Vec<_>>()
        );
        assert_eq!(
            OmnetppTrace::new(&p).take(100).collect::<Vec<_>>(),
            OmnetppTrace::new(&p).take(100).collect::<Vec<_>>()
        );
        assert_eq!(
            XalancbmkTrace::new(&p).take(100).collect::<Vec<_>>(),
            XalancbmkTrace::new(&p).take(100).collect::<Vec<_>>()
        );
    }
}
