//! Memory layouts: the "mosaic" of page sizes backing a pool.
//!
//! A [`MemoryLayout`] assigns a page size to every byte of a pool region.
//! Hugepage-backed sub-ranges are expressed as [`LayoutWindow`]s; anything
//! not covered by a window is backed by 4KB pages, mirroring how Mosalloc's
//! users describe pool layouts through environment variables.

use crate::{LayoutError, PageSize, Region, VirtAddr};

/// A contiguous range of a pool backed by a single (huge)page size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LayoutWindow {
    /// Pool-relative region the window covers. Must be aligned to `size`.
    pub region: Region,
    /// The page size backing the window.
    pub size: PageSize,
}

/// A complete page-size assignment for a pool.
///
/// Invariants (enforced at construction):
///
/// * every window lies inside the pool,
/// * windows are aligned to their page size,
/// * windows are pairwise disjoint.
///
/// Windows are kept sorted by start address so [`MemoryLayout::page_size_at`]
/// is a binary search.
///
/// # Example
///
/// ```
/// use vmcore::{MemoryLayout, PageSize, Region, VirtAddr, GIB, MIB};
///
/// # fn main() -> Result<(), vmcore::LayoutError> {
/// let pool = Region::new(VirtAddr::new(0), 2 * GIB);
/// let layout = MemoryLayout::builder(pool)
///     .window(Region::new(VirtAddr::new(0), GIB), PageSize::Huge1G)?
///     .window(Region::new(VirtAddr::new(GIB), 512 * MIB), PageSize::Huge2M)?
///     .build()?;
/// assert_eq!(layout.bytes_backed_by(PageSize::Huge1G), GIB);
/// assert_eq!(layout.bytes_backed_by(PageSize::Base4K), 512 * MIB);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoryLayout {
    pool: Region,
    windows: Vec<LayoutWindow>,
}

impl MemoryLayout {
    /// Starts building a layout over `pool`.
    pub fn builder(pool: Region) -> MemoryLayoutBuilder {
        MemoryLayoutBuilder {
            pool,
            windows: Vec::new(),
        }
    }

    /// The all-4KB layout for `pool` (no hugepage windows).
    pub fn all_4k(pool: Region) -> Self {
        MemoryLayout {
            pool,
            windows: Vec::new(),
        }
    }

    /// A layout backing the whole pool with a single page size.
    ///
    /// The pool bounds are aligned outward to `size` first, so callers may
    /// pass unaligned pools; the simulated backing simply rounds out, the
    /// way a hugetlbfs reservation would.
    pub fn uniform(pool: Region, size: PageSize) -> Self {
        if size == PageSize::Base4K {
            return MemoryLayout::all_4k(pool);
        }
        let window = pool.align_outward(size);
        MemoryLayout {
            pool,
            windows: vec![LayoutWindow {
                region: window,
                size,
            }],
        }
    }

    /// The pool region this layout covers.
    pub fn pool(&self) -> Region {
        self.pool
    }

    /// The hugepage windows, sorted by start address.
    pub fn windows(&self) -> &[LayoutWindow] {
        &self.windows
    }

    /// The page size backing `addr`.
    ///
    /// Addresses outside the pool are reported as 4KB-backed: the rest of
    /// the address space (code, stacks, file mappings) uses base pages,
    /// exactly as in the paper's file-backed pool.
    pub fn page_size_at(&self, addr: VirtAddr) -> PageSize {
        let idx = self.windows.partition_point(|w| w.region.end() <= addr);
        match self.windows.get(idx) {
            Some(w) if w.region.contains(addr) => w.size,
            _ => PageSize::Base4K,
        }
    }

    /// Total bytes of the pool backed by `size` pages.
    ///
    /// Windows may extend past the pool after outward alignment; only the
    /// intersection with the pool is counted.
    pub fn bytes_backed_by(&self, size: PageSize) -> u64 {
        let huge: u64 = self
            .windows
            .iter()
            .filter(|w| w.size == size)
            .filter_map(|w| w.region.intersection(&self.pool))
            .map(|r| r.len())
            .sum();
        if size == PageSize::Base4K {
            let covered: u64 = self
                .windows
                .iter()
                .filter_map(|w| w.region.intersection(&self.pool))
                .map(|r| r.len())
                .sum();
            self.pool.len() - covered
        } else {
            huge
        }
    }

    /// A short description like `"2MB:[0x0,0x400000) (else 4KB)"` used in
    /// reports.
    pub fn describe(&self) -> String {
        if self.windows.is_empty() {
            return "all-4KB".to_string();
        }
        let parts: Vec<String> = self
            .windows
            .iter()
            .map(|w| format!("{}:{}", w.size, w.region))
            .collect();
        format!("{} (else 4KB)", parts.join(" "))
    }
}

/// Incrementally builds a [`MemoryLayout`], validating each window.
#[derive(Clone, Debug)]
pub struct MemoryLayoutBuilder {
    pool: Region,
    windows: Vec<LayoutWindow>,
}

impl MemoryLayoutBuilder {
    /// Adds a hugepage window.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Misaligned`] if the window bounds are not
    /// aligned to `size`, or [`LayoutError::WindowOutsidePool`] if the
    /// window is not contained in the (outward-aligned) pool.
    pub fn window(mut self, region: Region, size: PageSize) -> Result<Self, LayoutError> {
        if !region.is_aligned(size) {
            return Err(LayoutError::Misaligned {
                window: region,
                required: size,
            });
        }
        let roomy_pool = self.pool.align_outward(size);
        if !roomy_pool.contains_region(&region) {
            return Err(LayoutError::WindowOutsidePool {
                window: region,
                pool: self.pool,
            });
        }
        self.windows.push(LayoutWindow { region, size });
        Ok(self)
    }

    /// Finishes the layout.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::OverlappingWindows`] if any two windows
    /// overlap.
    pub fn build(mut self) -> Result<MemoryLayout, LayoutError> {
        self.windows.sort_by_key(|w| w.region.start());
        for pair in self.windows.windows(2) {
            if pair[0].region.overlaps(&pair[1].region) {
                return Err(LayoutError::OverlappingWindows(
                    pair[0].region,
                    pair[1].region,
                ));
            }
        }
        self.windows.retain(|w| !w.region.is_empty());
        Ok(MemoryLayout {
            pool: self.pool,
            windows: self.windows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GIB, MIB};

    fn pool() -> Region {
        Region::new(VirtAddr::new(0), 2 * GIB)
    }

    #[test]
    fn all_4k_has_no_windows() {
        let l = MemoryLayout::all_4k(pool());
        assert_eq!(l.page_size_at(VirtAddr::new(123)), PageSize::Base4K);
        assert_eq!(l.bytes_backed_by(PageSize::Base4K), 2 * GIB);
        assert_eq!(l.bytes_backed_by(PageSize::Huge2M), 0);
        assert_eq!(l.describe(), "all-4KB");
    }

    #[test]
    fn uniform_2m_covers_everything() {
        let l = MemoryLayout::uniform(pool(), PageSize::Huge2M);
        assert_eq!(l.page_size_at(VirtAddr::new(0)), PageSize::Huge2M);
        assert_eq!(l.page_size_at(VirtAddr::new(2 * GIB - 1)), PageSize::Huge2M);
        assert_eq!(l.bytes_backed_by(PageSize::Huge2M), 2 * GIB);
        assert_eq!(l.bytes_backed_by(PageSize::Base4K), 0);
    }

    #[test]
    fn uniform_on_unaligned_pool_rounds_out() {
        let unaligned = Region::new(VirtAddr::new(4096), 3 * MIB);
        let l = MemoryLayout::uniform(unaligned, PageSize::Huge2M);
        // Every address of the pool is huge-backed even though the pool is
        // not 2MB-aligned.
        assert_eq!(l.page_size_at(VirtAddr::new(4096)), PageSize::Huge2M);
        assert_eq!(l.page_size_at(unaligned.end() + 0), PageSize::Huge2M);
        assert_eq!(l.bytes_backed_by(PageSize::Huge2M), 3 * MIB);
    }

    #[test]
    fn mixed_layout_lookup() {
        let l = MemoryLayout::builder(pool())
            .window(Region::new(VirtAddr::new(0), GIB), PageSize::Huge1G)
            .unwrap()
            .window(Region::new(VirtAddr::new(GIB), 512 * MIB), PageSize::Huge2M)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(l.page_size_at(VirtAddr::new(0)), PageSize::Huge1G);
        assert_eq!(l.page_size_at(VirtAddr::new(GIB - 1)), PageSize::Huge1G);
        assert_eq!(l.page_size_at(VirtAddr::new(GIB)), PageSize::Huge2M);
        assert_eq!(
            l.page_size_at(VirtAddr::new(GIB + 512 * MIB)),
            PageSize::Base4K
        );
        assert_eq!(
            l.page_size_at(VirtAddr::new(3 * GIB)),
            PageSize::Base4K,
            "outside pool"
        );
    }

    #[test]
    fn misaligned_window_rejected() {
        let err = MemoryLayout::builder(pool())
            .window(Region::new(VirtAddr::new(4096), 2 * MIB), PageSize::Huge2M)
            .unwrap_err();
        assert!(matches!(err, LayoutError::Misaligned { .. }));
    }

    #[test]
    fn window_outside_pool_rejected() {
        let err = MemoryLayout::builder(pool())
            .window(
                Region::new(VirtAddr::new(4 * GIB), 2 * MIB),
                PageSize::Huge2M,
            )
            .unwrap_err();
        assert!(matches!(err, LayoutError::WindowOutsidePool { .. }));
    }

    #[test]
    fn overlapping_windows_rejected() {
        let err = MemoryLayout::builder(pool())
            .window(Region::new(VirtAddr::new(0), 4 * MIB), PageSize::Huge2M)
            .unwrap()
            .window(
                Region::new(VirtAddr::new(2 * MIB), 4 * MIB),
                PageSize::Huge2M,
            )
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(err, LayoutError::OverlappingWindows(..)));
    }

    #[test]
    fn byte_accounting_partitions_pool() {
        let l = MemoryLayout::builder(pool())
            .window(
                Region::new(VirtAddr::new(6 * MIB), 10 * MIB),
                PageSize::Huge2M,
            )
            .unwrap()
            .build()
            .unwrap();
        let total: u64 = PageSize::ALL.iter().map(|&s| l.bytes_backed_by(s)).sum();
        assert_eq!(total, pool().len());
    }
}
