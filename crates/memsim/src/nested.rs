//! Two-dimensional (nested) page walks for virtualized execution.
//!
//! Several of the surveyed models were built for virtualized systems
//! (Gandhi et al., "reducing dimensionality of nested page walks"; Pham
//! et al., "large pages ... in virtualized environments"). Under nested
//! paging every *guest* page-table reference is itself a guest-physical
//! address that must be translated through the *host* page table, so a
//! 4KB/4KB guest/host walk costs up to `4 x 5 + 4 = 24` memory
//! references instead of 4 — the blow-up that motivated that line of
//! work. This module implements the 2D walk so virtualization-flavoured
//! experiments can run on the same substrate (see
//! `mosaic figure ablation-nested-paging`).
//!
//! A "nested TLB" (modelled with the same [`WalkCaches`] structure the
//! MMU caches use) short-circuits repeated host translations of hot
//! guest-PT nodes, as on real hardware.

use vmcore::{PageSize, PhysAddr, VirtAddr};

use crate::{MemoryHierarchy, PageTable, Platform, PwcGeometry, WalkCaches, DEFAULT_SALT};

/// XORed into the placement salt for the guest table. With
/// [`DEFAULT_SALT`] it yields `0x67_7565_7374` ("guest").
const GUEST_TAG: u64 = 0x67_7565_7374 ^ DEFAULT_SALT;
/// XORed into the placement salt for the host table. With
/// [`DEFAULT_SALT`] it yields `0x686f_7374` ("host").
const HOST_TAG: u64 = 0x686f_7374 ^ DEFAULT_SALT;

/// Per-walk breakdown of a nested (2D) page walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NestedWalkInfo {
    /// Total serialized walk latency in cycles.
    pub cycles: u32,
    /// Guest page-table references issued.
    pub guest_refs: u32,
    /// Host page-table references issued (for translating guest PT nodes
    /// and the final guest-physical address).
    pub host_refs: u32,
}

impl NestedWalkInfo {
    /// All memory references of the walk.
    pub fn total_refs(&self) -> u32 {
        self.guest_refs + self.host_refs
    }
}

/// The two page tables plus the structures accelerating the host
/// dimension.
#[derive(Clone, Debug)]
pub struct NestedWalker {
    guest: PageTable,
    host: PageTable,
    /// Guest-dimension MMU caches (as in native execution).
    guest_pwc: WalkCaches,
    /// Host-dimension caches: the "nested TLB" short-circuiting host
    /// walks of guest-PT node addresses.
    host_pwc: WalkCaches,
    /// Host page size backing guest-physical memory (hypervisors
    /// typically back guests with 2MB pages; 4KB is the worst case).
    host_backing: PageSize,
}

impl NestedWalker {
    /// Creates the 2D walker for `platform`, backing the guest's memory
    /// with `host_backing` pages on the host side. `salt` places both
    /// tables, so repetitions with different salts see different
    /// physical layouts in both dimensions.
    pub fn new(platform: &Platform, host_backing: PageSize, salt: u64) -> Self {
        NestedWalker {
            guest: PageTable::new(salt ^ GUEST_TAG),
            host: PageTable::new(salt ^ HOST_TAG),
            guest_pwc: WalkCaches::new(platform.pwc),
            // The nested TLB is small on real parts; reuse the PWC sizes.
            host_pwc: WalkCaches::new(PwcGeometry {
                pml4e: 4,
                pdpte: 4,
                pde: 32,
            }),
            host_backing,
        }
    }

    /// Composes guest and host translation: the host-physical address of
    /// guest-virtual `va` (what the data caches are indexed by under
    /// virtualization).
    pub fn compose_translate(&self, va: VirtAddr, guest_size: PageSize) -> PhysAddr {
        let gpa = self.guest.translate(va, guest_size);
        self.host
            .translate(VirtAddr::new(gpa.raw()), self.host_backing)
    }

    /// Performs one full 2D walk for guest virtual address `va` mapped
    /// with `guest_size` pages, charging every reference to `memory`
    /// (walker class).
    ///
    /// For each guest level, the guest-PT node's address is first
    /// translated through the host dimension (nTLB then host PT refs),
    /// then the guest entry itself is read; finally the resulting
    /// guest-physical address is translated through the host once more.
    pub fn walk(
        &mut self,
        va: VirtAddr,
        guest_size: PageSize,
        memory: &mut MemoryHierarchy,
    ) -> NestedWalkInfo {
        let mut info = NestedWalkInfo::default();
        let guest_path = self.guest_path_after_pwc(va, guest_size);
        for gpa in &guest_path {
            // Host dimension: translate the guest-PT node's address.
            self.host_dimension(*gpa, memory, &mut info);
            // The guest entry itself.
            let (_, lat) = memory.access(*gpa, true);
            info.cycles += lat;
            info.guest_refs += 1;
        }
        // The final guest-physical data address also needs the host
        // dimension before the TLB can cache the full gVA→hPA mapping.
        let final_gpa = self.guest.translate(va, guest_size);
        self.host_dimension(final_gpa, memory, &mut info);
        info
    }

    /// Guest references that remain after the guest-side MMU caches.
    fn guest_path_after_pwc(&mut self, va: VirtAddr, size: PageSize) -> Vec<PhysAddr> {
        let refs = self.guest_pwc.lookup_and_fill(va, size) as usize;
        let path = self.guest.walk_path(va, size);
        path[path.len() - refs..].to_vec()
    }

    /// One host-dimension translation of a guest-physical address.
    fn host_dimension(
        &mut self,
        gpa: PhysAddr,
        memory: &mut MemoryHierarchy,
        info: &mut NestedWalkInfo,
    ) {
        // The nested TLB caches host translations by guest-physical
        // prefix, exactly like MMU caches do by virtual prefix.
        let as_va = VirtAddr::new(gpa.raw());
        let refs = self.host_pwc.lookup_and_fill(as_va, self.host_backing) as usize;
        let path = self.host.walk_path(as_va, self.host_backing);
        for hpa in &path[path.len() - refs..] {
            let (_, lat) = memory.access(*hpa, true);
            info.cycles += lat;
            info.host_refs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (NestedWalker, MemoryHierarchy) {
        (
            NestedWalker::new(&Platform::SANDY_BRIDGE, PageSize::Base4K, DEFAULT_SALT),
            MemoryHierarchy::new(&Platform::SANDY_BRIDGE),
        )
    }

    #[test]
    fn cold_nested_walk_references_both_dimensions() {
        let (mut walker, mut memory) = setup();
        let info = walker.walk(VirtAddr::new(0x1234_5000), PageSize::Base4K, &mut memory);
        assert_eq!(info.guest_refs, 4, "cold guest dimension walks all levels");
        // Host dimension: 5 translations (4 guest nodes + final gPA), up
        // to 4 refs each; with a cold nTLB, substantially more than the
        // guest dimension alone.
        assert!(
            info.host_refs > info.guest_refs,
            "host refs {}",
            info.host_refs
        );
        assert!(info.total_refs() <= 24, "bounded by the 2D worst case");
        assert!(info.cycles > 0);
    }

    #[test]
    fn nested_tlb_cuts_host_dimension_when_warm() {
        let (mut walker, mut memory) = setup();
        let a = walker.walk(VirtAddr::new(0x4000_0000), PageSize::Base4K, &mut memory);
        // A neighbouring page shares all guest-PT nodes and their host
        // translations: the warm walk must be far cheaper.
        let b = walker.walk(VirtAddr::new(0x4000_1000), PageSize::Base4K, &mut memory);
        assert!(
            b.total_refs() < a.total_refs() / 2,
            "warm {} vs cold {}",
            b.total_refs(),
            a.total_refs()
        );
    }

    #[test]
    fn host_hugepages_shrink_the_host_dimension() {
        let (mut walker_4k, mut mem_4k) = setup();
        let mut walker_2m =
            NestedWalker::new(&Platform::SANDY_BRIDGE, PageSize::Huge2M, DEFAULT_SALT);
        let mut mem_2m = MemoryHierarchy::new(&Platform::SANDY_BRIDGE);
        let cold_4k = walker_4k.walk(VirtAddr::new(0x9000_0000), PageSize::Base4K, &mut mem_4k);
        let cold_2m = walker_2m.walk(VirtAddr::new(0x9000_0000), PageSize::Base4K, &mut mem_2m);
        assert!(
            cold_2m.host_refs < cold_4k.host_refs,
            "2MB host backing: {} vs {}",
            cold_2m.host_refs,
            cold_4k.host_refs
        );
    }

    #[test]
    fn guest_hugepages_shrink_the_guest_dimension() {
        let (mut walker, mut memory) = setup();
        let info = walker.walk(VirtAddr::new(0x8000_0000), PageSize::Huge2M, &mut memory);
        assert_eq!(info.guest_refs, 3, "2MB guest walk has 3 levels");
    }

    #[test]
    fn walks_are_deterministic() {
        let (mut w1, mut m1) = setup();
        let (mut w2, mut m2) = setup();
        for i in 0..50u64 {
            let va = VirtAddr::new((i * 7919) << 12);
            assert_eq!(
                w1.walk(va, PageSize::Base4K, &mut m1),
                w2.walk(va, PageSize::Base4K, &mut m2)
            );
        }
    }
}
