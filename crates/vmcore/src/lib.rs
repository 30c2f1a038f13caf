//! Shared domain types for the Mosaic virtual-memory study.
//!
//! This crate defines the vocabulary used throughout the workspace:
//!
//! * [`VirtAddr`] / [`PhysAddr`] — strongly typed addresses,
//! * [`PageSize`] — the three x86-64 translation sizes (4KB / 2MB / 1GB),
//! * [`Region`] — half-open virtual address ranges,
//! * [`MemoryLayout`] — a "mosaic": which parts of a pool are backed by
//!   which page size (the central input of the Mosalloc allocator),
//! * [`PmuCounters`] — the performance-monitoring-unit readout `(R, H, M, C)`
//!   plus cache load counters that the paper's runtime models consume,
//! * [`parallel`] — the deterministic, item-ordered fan-out that the grid
//!   battery and K-fold cross-validation share.
//!
//! # Example
//!
//! ```
//! use vmcore::{MemoryLayout, PageSize, Region, VirtAddr};
//!
//! # fn main() -> Result<(), vmcore::LayoutError> {
//! // Back the first 4MB of a 1GB pool with 2MB pages, rest with 4KB pages.
//! let pool = Region::new(VirtAddr::new(0), 1 << 30);
//! let layout = MemoryLayout::builder(pool)
//!     .window(Region::new(VirtAddr::new(0), 4 << 20), PageSize::Huge2M)?
//!     .build()?;
//! assert_eq!(layout.page_size_at(VirtAddr::new(0x1000)), PageSize::Huge2M);
//! assert_eq!(layout.page_size_at(VirtAddr::new(5 << 20)), PageSize::Base4K);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod counters;
mod error;
mod layout;
pub mod parallel;
mod region;

pub use addr::{PageSize, PhysAddr, VirtAddr};
pub use counters::PmuCounters;
pub use error::LayoutError;
pub use layout::{LayoutWindow, MemoryLayout, MemoryLayoutBuilder};
pub use region::Region;

/// Number of bytes in one kibibyte.
pub const KIB: u64 = 1 << 10;
/// Number of bytes in one mebibyte.
pub const MIB: u64 = 1 << 20;
/// Number of bytes in one gibibyte.
pub const GIB: u64 = 1 << 30;
