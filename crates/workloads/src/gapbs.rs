//! GAPBS-like graph kernels (PageRank, BFS, SSSP, BC) on three input
//! graphs with very different locality: `twitter` (power-law hubs),
//! `road` (planar, near-neighbour), `web` (community structure).
//!
//! The locality differences are what make, e.g., `bfs-road` lose its TLB
//! sensitivity on Broadwell (paper §VI-D) while the twitter kernels stay
//! TLB-bound everywhere.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmcore::{Region, VirtAddr};

use crate::sampler::{jitter_gap, PowerLaw};
use crate::{Access, TraceParams};

/// The GAPBS kernels reproduced here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// PageRank: dense sequential destination sweeps + random source reads.
    Pr,
    /// Breadth-first search: frontier scans + random visited updates.
    Bfs,
    /// Single-source shortest paths: hot priority-queue + random relaxations.
    Sssp,
    /// Betweenness centrality: BFS plus a random back-propagation phase.
    Bc,
}

/// The input graphs of paper Table 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// Twitter follower graph: extreme power-law degree distribution.
    Twitter,
    /// USA road network: planar, neighbours are index-local.
    Road,
    /// Web crawl: community-structured, moderate skew.
    Web,
}

impl GraphKind {
    /// Short name used in workload identifiers.
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Twitter => "twitter",
            GraphKind::Road => "road",
            GraphKind::Web => "web",
        }
    }
}

/// Streaming GAPBS kernel trace.
#[derive(Debug)]
pub struct GapbsTrace {
    rng: StdRng,
    kernel: Kernel,
    graph: GraphKind,
    /// Vertex-property array (ranks / distances / visited flags).
    props: Region,
    /// CSR edge array, scanned sequentially.
    edges: Region,
    /// Small hot region (priority queue / frontier head) for SSSP/BC.
    queue: Region,
    law: PowerLaw,
    remaining: u64,
    cursor: u64,
    phase: u32,
    /// Road graphs walk locally: current locus in the property array.
    locus: u64,
}

impl GapbsTrace {
    /// Creates the trace.
    pub fn new(kernel: Kernel, graph: GraphKind, params: &TraceParams) -> Self {
        let arena = params.arena;
        // Layout: [queue 1/32][edges 5/8][props rest]; hot props at top.
        let queue_len = (arena.len() / 32).max(4096);
        let edges_len = arena.len() * 5 / 8;
        let queue = Region::new(arena.start(), queue_len);
        let edges = Region::new(queue.end(), edges_len);
        let props = Region::from_bounds(edges.end(), arena.end());
        let vertices = (props.len() / 8).max(2);
        let theta = match graph {
            GraphKind::Twitter => 3.5,
            GraphKind::Road => 1.0, // unused; road walks locally
            GraphKind::Web => 2.2,
        };
        GapbsTrace {
            rng: StdRng::seed_from_u64(params.seed ^ 0x67_6170_6273),
            kernel,
            graph,
            props,
            edges,
            queue,
            law: PowerLaw::new(vertices, theta),
            remaining: params.accesses,
            cursor: 0,
            phase: 0,
            locus: vertices / 2,
        }
    }

    fn vertex_addr(&mut self) -> VirtAddr {
        let vertices = self.law.n();
        let idx = match self.graph {
            GraphKind::Road => {
                // Planar graph: neighbours are within a few thousand
                // indices; the locus drifts slowly.
                let delta = self.rng.gen_range(-2048i64..=2048);
                self.locus = self.locus.saturating_add_signed(delta).min(vertices - 1);
                self.locus
            }
            GraphKind::Twitter => {
                // Hubs at the top of the array (hot region at heap top).
                let idx = self.law.sample(&mut self.rng);
                vertices - 1 - idx
            }
            GraphKind::Web => {
                // Community structure: pick a community head by power law,
                // then a member near it.
                let head = self.law.sample(&mut self.rng);
                let member = head + self.rng.gen_range(0..512);
                vertices - 1 - member.min(vertices - 1)
            }
        };
        self.props.start() + idx * 8
    }

    fn edge_scan_addr(&mut self) -> VirtAddr {
        let words = self.edges.len() / 8;
        let addr = self.edges.start() + (self.cursor % words) * 8;
        self.cursor += 1;
        addr
    }

    fn queue_addr(&mut self) -> VirtAddr {
        // Binary-heap style: strongly biased toward the queue head.
        let slots = self.queue.len() / 8;
        let hot = PowerLaw::new(slots, 4.0).sample(&mut self.rng);
        self.queue.start() + hot * 8
    }
}

impl Iterator for GapbsTrace {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.phase = (self.phase + 1) % 12;
        let p = self.phase;
        let access = match self.kernel {
            Kernel::Pr => {
                // 4 edge scans : 7 random source reads : 1 sequential dst write.
                if p < 4 {
                    Access::read(self.edge_scan_addr(), jitter_gap(&mut self.rng, 3))
                } else if p < 11 {
                    let a = self.vertex_addr();
                    Access::read(a, jitter_gap(&mut self.rng, 5))
                } else {
                    let words = self.props.len() / 8;
                    let a = self.props.start() + (self.cursor % words) * 8;
                    Access::write(a, jitter_gap(&mut self.rng, 4))
                }
            }
            Kernel::Bfs => {
                // 6 frontier/edge scans : 6 random visited checks.
                if p < 6 {
                    Access::read(self.edge_scan_addr(), jitter_gap(&mut self.rng, 3))
                } else {
                    let a = self.vertex_addr();
                    Access::write(a, jitter_gap(&mut self.rng, 6))
                }
            }
            Kernel::Sssp => {
                // 4 queue ops : 3 edge scans : 5 random relaxations.
                if p < 4 {
                    let mut a = Access::write(self.queue_addr(), jitter_gap(&mut self.rng, 8));
                    a.dep = true;
                    a
                } else if p < 7 {
                    Access::read(self.edge_scan_addr(), jitter_gap(&mut self.rng, 4))
                } else {
                    let a = self.vertex_addr();
                    Access::write(a, jitter_gap(&mut self.rng, 7))
                }
            }
            Kernel::Bc => {
                // BFS-like forward phase + random dependency accumulation.
                if p < 4 {
                    Access::read(self.edge_scan_addr(), jitter_gap(&mut self.rng, 3))
                } else if p < 9 {
                    let a = self.vertex_addr();
                    Access::read(a, jitter_gap(&mut self.rng, 5))
                } else {
                    let a = self.vertex_addr();
                    Access::write(a, jitter_gap(&mut self.rng, 9))
                }
            }
        };
        Some(access)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcore::MIB;

    fn params() -> TraceParams {
        TraceParams::new(
            Region::new(VirtAddr::new(0x4_0000_0000), 192 * MIB),
            40_000,
            11,
        )
    }

    #[test]
    fn all_kernels_stay_in_arena() {
        let p = params();
        for kernel in [Kernel::Pr, Kernel::Bfs, Kernel::Sssp, Kernel::Bc] {
            for graph in [GraphKind::Twitter, GraphKind::Road, GraphKind::Web] {
                let v: Vec<_> = GapbsTrace::new(kernel, graph, &p).collect();
                assert_eq!(v.len(), 40_000);
                assert!(
                    v.iter().all(|a| p.arena.contains(a.addr)),
                    "{kernel:?}/{graph:?} escaped arena"
                );
            }
        }
    }

    #[test]
    fn road_graph_has_far_better_locality_than_twitter() {
        let p = params();
        let distinct_pages = |graph| {
            GapbsTrace::new(Kernel::Bfs, graph, &p)
                .map(|a| a.addr.raw() >> 12)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        let road = distinct_pages(GraphKind::Road);
        let twitter = distinct_pages(GraphKind::Twitter);
        assert!(
            road * 2 < twitter,
            "road should touch far fewer pages: road={road} twitter={twitter}"
        );
    }

    #[test]
    fn twitter_hot_region_at_top() {
        let p = params();
        let props_start = p.arena.start() + (p.arena.len() / 32).max(4096) + p.arena.len() * 5 / 8;
        let hot_cut = p.arena.start() + (p.arena.len() - p.arena.len() / 16);
        let vertex_accesses: Vec<_> = GapbsTrace::new(Kernel::Pr, GraphKind::Twitter, &p)
            .filter(|a| a.addr >= props_start)
            .collect();
        let hot = vertex_accesses.iter().filter(|a| a.addr >= hot_cut).count();
        assert!(
            hot * 2 > vertex_accesses.len(),
            "hubs should dominate: {hot}/{}",
            vertex_accesses.len()
        );
    }

    #[test]
    fn sssp_touches_queue_region() {
        let p = params();
        let queue_end = p.arena.start() + (p.arena.len() / 32).max(4096);
        let in_queue = GapbsTrace::new(Kernel::Sssp, GraphKind::Twitter, &p)
            .filter(|a| a.addr < queue_end)
            .count();
        assert!(in_queue > 8_000, "queue ops: {in_queue}");
    }

    #[test]
    fn graph_names() {
        assert_eq!(GraphKind::Twitter.name(), "twitter");
        assert_eq!(GraphKind::Road.name(), "road");
        assert_eq!(GraphKind::Web.name(), "web");
    }
}
