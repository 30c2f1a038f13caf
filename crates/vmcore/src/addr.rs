//! Strongly typed virtual/physical addresses and x86-64 page sizes.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A virtual address in a simulated 48-bit address space.
///
/// The newtype prevents accidentally mixing virtual and physical addresses
/// (or plain byte counts) in translation code.
///
/// # Example
///
/// ```
/// use vmcore::{PageSize, VirtAddr};
///
/// let va = VirtAddr::new(0x2010);
/// assert_eq!(va.align_down(PageSize::Base4K), VirtAddr::new(0x2000));
/// assert_eq!(va.offset_in(PageSize::Base4K), 0x10);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address from a raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw 64-bit value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rounds the address down to the nearest boundary of `size`.
    #[inline]
    pub const fn align_down(self, size: PageSize) -> Self {
        VirtAddr(self.0 & !(size.bytes() - 1))
    }

    /// Rounds the address up to the nearest boundary of `size`.
    ///
    /// # Panics
    ///
    /// Panics on overflow of the 64-bit address space, which cannot happen
    /// for the 48-bit canonical addresses used throughout this workspace.
    pub const fn align_up(self, size: PageSize) -> Self {
        let mask = size.bytes() - 1;
        VirtAddr((self.0 + mask) & !mask)
    }

    /// Returns whether the address is aligned to `size`.
    pub const fn is_aligned(self, size: PageSize) -> bool {
        self.0 & (size.bytes() - 1) == 0
    }

    /// Returns the byte offset of the address within its `size` page.
    #[inline]
    pub const fn offset_in(self, size: PageSize) -> u64 {
        self.0 & (size.bytes() - 1)
    }

    /// Returns the virtual page number for a given page size
    /// (the address shifted right by the page-size shift).
    #[inline]
    pub const fn page_number(self, size: PageSize) -> u64 {
        self.0 >> size.shift()
    }

    /// Saturating addition of a byte count.
    pub const fn saturating_add(self, bytes: u64) -> Self {
        VirtAddr(self.0.saturating_add(bytes))
    }

    /// Checked addition of a byte count.
    pub fn checked_add(self, bytes: u64) -> Option<Self> {
        self.0.checked_add(bytes).map(VirtAddr)
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;

    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 + rhs)
    }
}

impl AddAssign<u64> for VirtAddr {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<VirtAddr> for VirtAddr {
    type Output = u64;

    fn sub(self, rhs: VirtAddr) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr(raw)
    }
}

/// A physical address (frame address) in the simulated machine.
///
/// Produced by the simulated page table; consumed by the cache hierarchy,
/// whose indexing is physical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// Returns the raw 64-bit value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache-line address (64-byte lines).
    #[inline]
    pub const fn cache_line(self) -> u64 {
        self.0 >> 6
    }
}

impl Add<u64> for PhysAddr {
    type Output = PhysAddr;

    fn add(self, rhs: u64) -> PhysAddr {
        PhysAddr(self.0 + rhs)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// The three page sizes supported by x86-64 translation hardware.
///
/// A 4KB translation walks all four page-table levels; a 2MB translation
/// terminates at the page directory (3 references) and a 1GB translation at
/// the page-directory-pointer table (2 references).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PageSize {
    /// Standard 4KB page.
    #[default]
    Base4K,
    /// 2MB hugepage (PDE mapping).
    Huge2M,
    /// 1GB hugepage (PDPTE mapping).
    Huge1G,
}

impl PageSize {
    /// All page sizes, smallest first.
    pub const ALL: [PageSize; 3] = [PageSize::Base4K, PageSize::Huge2M, PageSize::Huge1G];

    /// The page size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Base4K => 4 << 10,
            PageSize::Huge2M => 2 << 20,
            PageSize::Huge1G => 1 << 30,
        }
    }

    /// The log2 of the page size.
    #[inline]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Base4K => 12,
            PageSize::Huge2M => 21,
            PageSize::Huge1G => 30,
        }
    }

    /// Number of page-table levels referenced when walking a miss of this
    /// size: 4 for 4KB, 3 for 2MB, 2 for 1GB.
    pub const fn walk_levels(self) -> u32 {
        match self {
            PageSize::Base4K => 4,
            PageSize::Huge2M => 3,
            PageSize::Huge1G => 2,
        }
    }

    /// Short human-readable name ("4KB", "2MB", "1GB").
    pub const fn name(self) -> &'static str {
        match self {
            PageSize::Base4K => "4KB",
            PageSize::Huge2M => "2MB",
            PageSize::Huge1G => "1GB",
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PageSize {
    type Err = crate::LayoutError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "4KB" | "4K" | "BASE" => Ok(PageSize::Base4K),
            "2MB" | "2M" => Ok(PageSize::Huge2M),
            "1GB" | "1G" => Ok(PageSize::Huge1G),
            _ => Err(crate::LayoutError::BadPageSize(s.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_bytes_and_shift_agree() {
        for size in PageSize::ALL {
            assert_eq!(size.bytes(), 1 << size.shift());
        }
    }

    #[test]
    fn walk_levels_match_x86_radix() {
        assert_eq!(PageSize::Base4K.walk_levels(), 4);
        assert_eq!(PageSize::Huge2M.walk_levels(), 3);
        assert_eq!(PageSize::Huge1G.walk_levels(), 2);
    }

    #[test]
    fn align_down_up_roundtrip() {
        let va = VirtAddr::new(0x20_1234);
        assert_eq!(va.align_down(PageSize::Huge2M), VirtAddr::new(0x20_0000));
        assert_eq!(va.align_up(PageSize::Huge2M), VirtAddr::new(0x40_0000));
        assert!(va.align_down(PageSize::Huge2M).is_aligned(PageSize::Huge2M));
        let aligned = VirtAddr::new(0x40_0000);
        assert_eq!(aligned.align_up(PageSize::Huge2M), aligned);
    }

    #[test]
    fn page_number_strips_offset() {
        let va = VirtAddr::new(3 * PageSize::Base4K.bytes() + 17);
        assert_eq!(va.page_number(PageSize::Base4K), 3);
        assert_eq!(va.offset_in(PageSize::Base4K), 17);
    }

    #[test]
    fn parse_page_size_accepts_common_spellings() {
        assert_eq!("4kb".parse::<PageSize>().unwrap(), PageSize::Base4K);
        assert_eq!("2M".parse::<PageSize>().unwrap(), PageSize::Huge2M);
        assert_eq!("1GB".parse::<PageSize>().unwrap(), PageSize::Huge1G);
        assert!("3MB".parse::<PageSize>().is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(VirtAddr::new(0x1000).to_string(), "0x1000");
        assert_eq!(PageSize::Huge2M.to_string(), "2MB");
    }

    #[test]
    fn virt_addr_arithmetic() {
        let a = VirtAddr::new(0x1000);
        assert_eq!(a + 0x10, VirtAddr::new(0x1010));
        assert_eq!(VirtAddr::new(0x2000) - a, 0x1000);
        let mut b = a;
        b += 0x1000;
        assert_eq!(b, VirtAddr::new(0x2000));
        assert_eq!(VirtAddr::new(u64::MAX).saturating_add(10).raw(), u64::MAX);
        assert!(VirtAddr::new(u64::MAX).checked_add(1).is_none());
    }

    #[test]
    fn phys_addr_cache_line() {
        assert_eq!(PhysAddr::new(0).cache_line(), 0);
        assert_eq!(PhysAddr::new(63).cache_line(), 0);
        assert_eq!(PhysAddr::new(64).cache_line(), 1);
    }
}
