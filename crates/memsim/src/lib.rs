//! Partial simulator of the x86-64 virtual-memory subsystem.
//!
//! This crate is the *substrate* standing in for the paper's real Intel
//! machines. It models, with per-structure fidelity to Tables 3–4 of the
//! paper:
//!
//! * split per-page-size **L1 TLBs** (64 × 4KB, 32 × 2MB, 4 × 1GB entries),
//! * the unified **L2 TLB** ("STLB") whose capacity and page-size sharing
//!   policy changed across SandyBridge → Haswell → Broadwell,
//! * the three **page-walk caches** (PML4E / PDPTE / PDE),
//! * a 4-level **radix page table** whose entries live at deterministic
//!   physical addresses (so walker references contend with program data in
//!   the caches — the pollution effect of paper Table 7),
//! * a physically indexed **L1d/L2/L3/DRAM hierarchy** with LRU sets,
//! * one or two hardware **page walkers** (two on Broadwell, whose walk
//!   cycle counter then double-counts concurrent walks — paper §VI-D).
//!
//! The crate knows nothing about time-multiplexing or out-of-order
//! execution; it answers "what does this one translation / data reference
//! cost, and which structures did it touch". The `machine` crate composes
//! these answers into runtimes.
//!
//! # Example
//!
//! ```
//! use memsim::{MemorySubsystem, Platform, Translation};
//! use vmcore::{PageSize, VirtAddr};
//!
//! let mut vm = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
//! let va = VirtAddr::new(0x1000_2000);
//! // Cold access: misses both TLB levels and walks the page table.
//! let first = vm.translate(va, PageSize::Base4K);
//! assert!(matches!(first, Translation::Walk { .. }));
//! // Warm access: L1 TLB hit.
//! let second = vm.translate(va, PageSize::Base4K);
//! assert!(matches!(second, Translation::L1Hit));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hash;
mod hierarchy;
mod nested;
mod pagetable;
mod platform;
mod pwc;
mod subsystem;
mod tlb;

pub use cache::{CacheGeometry, CacheTag, SetAssocCache};
pub use hash::splitmix64;
pub use hierarchy::{HitLevel, LoadCounts, MemoryHierarchy};
pub use nested::{NestedWalkInfo, NestedWalker};
pub use pagetable::{Level, PageTable, WalkPath};
pub use platform::{CacheLatencies, Microarch, Platform, PwcGeometry, StlbGeometry, TlbGeometry};
pub use pwc::{PwcLevel, WalkCaches};
pub use subsystem::{AccessOutcome, MemorySubsystem, Translation, WalkInfo};
pub use tlb::{Stlb, Tlb};
