//! GUPS (Giga-Updates Per Second): uniform random read-modify-write over a
//! huge table — the most TLB-hostile pattern in the suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmcore::VirtAddr;

use crate::sampler::jitter_gap;
use crate::{Access, TraceParams};

/// Streaming GUPS trace: every access touches a uniformly random 8-byte
/// word of the table. With 4KB pages every access is its own page with
/// overwhelming probability, saturating the TLB miss rate.
#[derive(Debug)]
pub struct GupsTrace {
    rng: StdRng,
    base: VirtAddr,
    words: u64,
    remaining: u64,
    /// GUPS does almost nothing between updates.
    inst_gap: u32,
    pending_write: Option<VirtAddr>,
}

impl GupsTrace {
    /// Creates the trace.
    pub fn new(params: &TraceParams) -> Self {
        GupsTrace {
            rng: StdRng::seed_from_u64(params.seed ^ 0x6775_7073),
            base: params.arena.start(),
            words: (params.arena.len() / 8).max(1),
            remaining: params.accesses,
            inst_gap: 4,
            pending_write: None,
        }
    }
}

impl Iterator for GupsTrace {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Read-modify-write: the write to the same word follows its read.
        if let Some(addr) = self.pending_write.take() {
            return Some(Access::write(addr, 1));
        }
        let idx = self.rng.gen_range(0..self.words);
        let addr = self.base + idx * 8;
        self.pending_write = Some(addr);
        Some(Access::read(addr, jitter_gap(&mut self.rng, self.inst_gap)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcore::{Region, MIB};

    fn params() -> TraceParams {
        TraceParams::new(
            Region::new(VirtAddr::new(0x1_0000_0000), 64 * MIB),
            10_000,
            9,
        )
    }

    #[test]
    fn stays_in_arena_and_counts() {
        let p = params();
        let v: Vec<_> = GupsTrace::new(&p).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().all(|a| p.arena.contains(a.addr)));
    }

    #[test]
    fn rmw_pairs_read_then_write_same_word() {
        let p = params();
        let v: Vec<_> = GupsTrace::new(&p).collect();
        for pair in v.chunks(2) {
            assert!(!pair[0].write);
            if pair.len() == 2 {
                assert!(pair[1].write);
                assert_eq!(pair[0].addr, pair[1].addr);
            }
        }
    }

    #[test]
    fn page_working_set_is_huge() {
        // Uniform randomness: 10k accesses over 64MB should touch
        // thousands of distinct 4KB pages.
        let p = params();
        let pages: std::collections::BTreeSet<u64> =
            GupsTrace::new(&p).map(|a| a.addr.raw() >> 12).collect();
        assert!(pages.len() > 3000, "only {} distinct pages", pages.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let p = params();
        let a: Vec<_> = GupsTrace::new(&p).collect();
        let b: Vec<_> = GupsTrace::new(&p).collect();
        assert_eq!(a, b);
        let mut p2 = p;
        p2.seed = 10;
        let c: Vec<_> = GupsTrace::new(&p2).collect();
        assert_ne!(a, c);
    }
}
