//! Pool configuration: the environment-variable layout specification.
//!
//! Real Mosalloc is configured through environment variables read at
//! `LD_PRELOAD` time (paper §V). This module defines the textual format and
//! its parser; the same strings drive both the simulated allocator and the
//! `mosalloc-preload` shared object.
//!
//! # Format
//!
//! A full configuration names up to three pools separated by `;`:
//!
//! ```text
//! brk:size=512M,2MB=0M..64M,1GB=1G..2G;anon:size=256M;file:size=64M
//! ```
//!
//! Each pool spec is a comma-separated list whose first item is
//! `size=<bytes>`; the remaining items are hugepage windows
//! `<pagesize>=<start>..<end>` with pool-relative bounds. Byte values accept
//! `K`/`M`/`G` suffixes (optionally with `B`, case-insensitive) or plain
//! decimal/hex (`0x...`) byte counts.
//!
//! The canonical environment variable names are
//! [`ENV_CONFIG`] for the whole configuration, or [`ENV_BRK_POOL`] /
//! [`ENV_ANON_POOL`] / [`ENV_FILE_POOL`] for per-pool specs.

use std::fmt;
use std::str::FromStr;

use vmcore::{LayoutError, MemoryLayout, PageSize, Region, VirtAddr};

/// Environment variable holding a complete [`MosallocConfig`] spec.
pub const ENV_CONFIG: &str = "MOSALLOC_CONFIG";
/// Environment variable holding the heap (brk) pool spec.
pub const ENV_BRK_POOL: &str = "MOSALLOC_BRK_POOL";
/// Environment variable holding the anonymous-mapping pool spec.
pub const ENV_ANON_POOL: &str = "MOSALLOC_ANON_POOL";
/// Environment variable holding the file-mapping pool spec.
pub const ENV_FILE_POOL: &str = "MOSALLOC_FILE_POOL";

/// A hugepage window inside a pool, with pool-relative bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window start offset within the pool.
    pub start: u64,
    /// Window end offset (exclusive) within the pool.
    pub end: u64,
    /// Page size backing the window.
    pub size: PageSize,
}

/// Specification of one pool: capacity plus hugepage windows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolSpec {
    /// Pool capacity in bytes.
    pub size: u64,
    /// Hugepage windows (pool-relative).
    pub windows: Vec<WindowSpec>,
}

impl PoolSpec {
    /// A pool of `size` bytes backed entirely by 4KB pages.
    pub fn plain(size: u64) -> Self {
        PoolSpec {
            size,
            windows: Vec::new(),
        }
    }

    /// A pool of `size` bytes backed entirely by `page` pages.
    pub fn uniform(size: u64, page: PageSize) -> Self {
        if page == PageSize::Base4K {
            return PoolSpec::plain(size);
        }
        PoolSpec {
            size,
            windows: vec![WindowSpec {
                start: 0,
                end: size,
                size: page,
            }],
        }
    }

    /// Adds a window; builder style.
    pub fn with_window(mut self, start: u64, end: u64, size: PageSize) -> Self {
        self.windows.push(WindowSpec { start, end, size });
        self
    }

    /// Materializes the spec as a [`MemoryLayout`] rooted at `base`.
    ///
    /// Window bounds are aligned *outward* to their page size first —
    /// requesting `2MB=0..3M` backs `[0, 4M)` with 2MB pages, the way a
    /// hugetlbfs mapping would round a partial page.
    ///
    /// # Errors
    ///
    /// Propagates [`LayoutError`] when windows fall outside the pool or
    /// overlap after alignment.
    pub fn to_layout(&self, base: VirtAddr) -> Result<MemoryLayout, LayoutError> {
        let pool = Region::new(base, self.size);
        let mut builder = MemoryLayout::builder(pool);
        for w in &self.windows {
            let raw = Region::from_bounds(base + w.start, base + w.end);
            let aligned = raw.align_outward(w.size);
            builder = builder.window(aligned, w.size)?;
        }
        builder.build()
    }
}

impl fmt::Display for PoolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "size={}", format_bytes(self.size))?;
        for w in &self.windows {
            write!(
                f,
                ",{}={}..{}",
                w.size,
                format_bytes(w.start),
                format_bytes(w.end)
            )?;
        }
        Ok(())
    }
}

impl FromStr for PoolSpec {
    type Err = LayoutError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut items = s.split(',').map(str::trim).filter(|p| !p.is_empty());
        let first = items
            .next()
            .ok_or_else(|| LayoutError::BadSpec(s.to_string()))?;
        let size = first
            .strip_prefix("size=")
            .ok_or_else(|| LayoutError::BadSpec(format!("pool spec must start with size=: {s}")))
            .and_then(parse_bytes)?;
        let mut windows = Vec::new();
        for item in items {
            let (page, range) = item
                .split_once('=')
                .ok_or_else(|| LayoutError::BadSpec(format!("bad window {item:?}")))?;
            let page: PageSize = page.trim().parse()?;
            if page == PageSize::Base4K {
                return Err(LayoutError::BadSpec(format!(
                    "windows must use hugepages; 4KB is the default backing: {item:?}"
                )));
            }
            let (lo, hi) = range
                .split_once("..")
                .ok_or_else(|| LayoutError::BadSpec(format!("bad window range {range:?}")))?;
            let start = parse_bytes(lo.trim())?;
            let end = parse_bytes(hi.trim())?;
            if end <= start {
                return Err(LayoutError::BadSpec(format!("empty window {item:?}")));
            }
            windows.push(WindowSpec {
                start,
                end,
                size: page,
            });
        }
        Ok(PoolSpec { size, windows })
    }
}

/// Complete Mosalloc configuration: the three pools.
///
/// # Example
///
/// ```
/// use mosalloc::MosallocConfig;
///
/// let cfg: MosallocConfig = "brk:size=1G,2MB=0..512M;anon:size=256M".parse()?;
/// assert_eq!(cfg.brk.size, 1 << 30);
/// // Round-trips through Display.
/// let again: MosallocConfig = cfg.to_string().parse()?;
/// assert_eq!(cfg, again);
/// # Ok::<(), vmcore::LayoutError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MosallocConfig {
    /// Heap (brk) pool spec.
    pub brk: PoolSpec,
    /// Anonymous-mapping pool spec.
    pub anon: PoolSpec,
    /// File-mapping pool spec (always 4KB-backed; windows rejected).
    pub file: PoolSpec,
}

impl MosallocConfig {
    /// Default pool sizes used when a pool is omitted from the spec.
    pub const DEFAULT_POOL_SIZE: u64 = 1 << 30;

    /// A configuration with all pools 4KB-backed at default sizes.
    pub fn plain() -> Self {
        MosallocConfig {
            brk: PoolSpec::plain(Self::DEFAULT_POOL_SIZE),
            anon: PoolSpec::plain(Self::DEFAULT_POOL_SIZE),
            file: PoolSpec::plain(Self::DEFAULT_POOL_SIZE),
        }
    }

    /// Builds the configuration from the process environment
    /// ([`ENV_CONFIG`] first, then per-pool variables overriding).
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] when any present variable fails to parse.
    pub fn from_env() -> Result<Self, LayoutError> {
        let mut cfg = match std::env::var(ENV_CONFIG) {
            Ok(s) => s.parse()?,
            Err(_) => MosallocConfig::plain(),
        };
        if let Ok(s) = std::env::var(ENV_BRK_POOL) {
            cfg.brk = s.parse()?;
        }
        if let Ok(s) = std::env::var(ENV_ANON_POOL) {
            cfg.anon = s.parse()?;
        }
        if let Ok(s) = std::env::var(ENV_FILE_POOL) {
            cfg.file = s.parse()?;
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks cross-pool invariants (file pool must be 4KB-only).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::BadSpec`] if the file pool requests hugepage
    /// windows.
    pub fn validate(&self) -> Result<(), LayoutError> {
        if !self.file.windows.is_empty() {
            return Err(LayoutError::BadSpec(
                "file pool is served from the page cache and supports only 4KB pages".into(),
            ));
        }
        Ok(())
    }
}

impl fmt::Display for MosallocConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "brk:{};anon:{};file:{}", self.brk, self.anon, self.file)
    }
}

impl FromStr for MosallocConfig {
    type Err = LayoutError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut cfg = MosallocConfig::plain();
        for part in s.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (pool, spec) = part
                .split_once(':')
                .ok_or_else(|| LayoutError::BadSpec(format!("missing pool name in {part:?}")))?;
            let spec: PoolSpec = spec.parse()?;
            match pool.trim() {
                "brk" | "heap" => cfg.brk = spec,
                "anon" | "mmap" => cfg.anon = spec,
                "file" => cfg.file = spec,
                other => {
                    return Err(LayoutError::BadSpec(format!("unknown pool {other:?}")));
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Parses a byte count with optional `K`/`M`/`G` (or `KB`/`MB`/`GB`) suffix
/// or `0x` hex prefix.
fn parse_bytes(s: &str) -> Result<u64, LayoutError> {
    let s = s.trim();
    let err = || LayoutError::BadSpec(format!("bad byte count {s:?}"));
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16).map_err(|_| err());
    }
    let upper = s.to_ascii_uppercase();
    let (digits, mult) =
        if let Some(d) = upper.strip_suffix("KB").or_else(|| upper.strip_suffix('K')) {
            (d.to_string(), 1u64 << 10)
        } else if let Some(d) = upper.strip_suffix("MB").or_else(|| upper.strip_suffix('M')) {
            (d.to_string(), 1 << 20)
        } else if let Some(d) = upper.strip_suffix("GB").or_else(|| upper.strip_suffix('G')) {
            (d.to_string(), 1 << 30)
        } else {
            (upper, 1)
        };
    let value: u64 = digits.trim().parse().map_err(|_| err())?;
    value.checked_mul(mult).ok_or_else(err)
}

/// Formats a byte count with the largest exact binary suffix.
fn format_bytes(v: u64) -> String {
    const G: u64 = 1 << 30;
    const M: u64 = 1 << 20;
    const K: u64 = 1 << 10;
    if v >= G && v.is_multiple_of(G) {
        format!("{}G", v / G)
    } else if v >= M && v.is_multiple_of(M) {
        format!("{}M", v / M)
    } else if v >= K && v.is_multiple_of(K) {
        format!("{}K", v / K)
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcore::{GIB, MIB};

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(parse_bytes("123").unwrap(), 123);
        assert_eq!(parse_bytes("4K").unwrap(), 4096);
        assert_eq!(parse_bytes("4kb").unwrap(), 4096);
        assert_eq!(parse_bytes("2M").unwrap(), 2 * MIB);
        assert_eq!(parse_bytes("1G").unwrap(), GIB);
        assert_eq!(parse_bytes("0x1000").unwrap(), 0x1000);
        assert!(parse_bytes("12Q").is_err());
        assert!(parse_bytes("").is_err());
    }

    #[test]
    fn format_bytes_exact_suffixes() {
        assert_eq!(format_bytes(123), "123");
        assert_eq!(format_bytes(4096), "4K");
        assert_eq!(format_bytes(2 * MIB), "2M");
        assert_eq!(format_bytes(3 * GIB), "3G");
        assert_eq!(format_bytes(GIB + 1), (GIB + 1).to_string());
    }

    #[test]
    fn pool_spec_parse_and_display_roundtrip() {
        let spec: PoolSpec = "size=1G,2MB=0..64M,1GB=1G..2G".parse().unwrap();
        assert_eq!(spec.size, GIB);
        assert_eq!(spec.windows.len(), 2);
        assert_eq!(spec.windows[0].size, PageSize::Huge2M);
        assert_eq!(spec.windows[1].start, GIB);
        let roundtrip: PoolSpec = spec.to_string().parse().unwrap();
        assert_eq!(spec, roundtrip);
    }

    #[test]
    fn pool_spec_rejects_malformed() {
        assert!("".parse::<PoolSpec>().is_err());
        assert!("2MB=0..4M".parse::<PoolSpec>().is_err(), "missing size=");
        assert!(
            "size=1G,4KB=0..4M".parse::<PoolSpec>().is_err(),
            "4KB window"
        );
        assert!(
            "size=1G,2MB=4M..4M".parse::<PoolSpec>().is_err(),
            "empty window"
        );
        assert!(
            "size=1G,2MB=8M..4M".parse::<PoolSpec>().is_err(),
            "inverted window"
        );
        assert!("size=1G,2MB".parse::<PoolSpec>().is_err(), "no range");
    }

    #[test]
    fn config_roundtrip_and_defaults() {
        let cfg: MosallocConfig = "brk:size=1G,2MB=0..512M;anon:size=256M".parse().unwrap();
        assert_eq!(cfg.brk.size, GIB);
        assert_eq!(cfg.anon.size, 256 * MIB);
        assert_eq!(cfg.file.size, MosallocConfig::DEFAULT_POOL_SIZE);
        let again: MosallocConfig = cfg.to_string().parse().unwrap();
        assert_eq!(cfg, again);
    }

    #[test]
    fn config_rejects_file_hugepages_and_unknown_pools() {
        assert!("file:size=1G,2MB=0..4M".parse::<MosallocConfig>().is_err());
        assert!("stack:size=1G".parse::<MosallocConfig>().is_err());
        assert!(
            "size=1G".parse::<MosallocConfig>().is_err(),
            "missing pool name"
        );
    }

    #[test]
    fn to_layout_aligns_windows_outward() {
        let spec: PoolSpec = "size=64M,2MB=0..3M".parse().unwrap();
        let layout = spec.to_layout(VirtAddr::new(0)).unwrap();
        // 3M window rounds out to 4M of 2MB pages.
        assert_eq!(layout.bytes_backed_by(PageSize::Huge2M), 4 * MIB);
        assert_eq!(
            layout.page_size_at(VirtAddr::new(3 * MIB + 1)),
            PageSize::Huge2M
        );
        assert_eq!(
            layout.page_size_at(VirtAddr::new(4 * MIB)),
            PageSize::Base4K
        );
    }

    #[test]
    fn to_layout_detects_overlap_after_alignment() {
        // Two windows that only collide once rounded outward.
        let spec: PoolSpec = "size=64M,2MB=0..3M,2MB=3M..6M".parse().unwrap();
        assert!(spec.to_layout(VirtAddr::new(0)).is_err());
    }

    #[test]
    fn uniform_and_plain_constructors() {
        let plain = PoolSpec::plain(GIB);
        assert!(plain.windows.is_empty());
        let huge = PoolSpec::uniform(GIB, PageSize::Huge1G);
        assert_eq!(huge.windows.len(), 1);
        assert_eq!(huge.windows[0].end, GIB);
        let base = PoolSpec::uniform(GIB, PageSize::Base4K);
        assert!(base.windows.is_empty());
    }

    #[test]
    fn from_env_parses_and_overrides() {
        // Serialize access to the process environment within this test.
        std::env::set_var(ENV_CONFIG, "brk:size=128M");
        std::env::set_var(ENV_ANON_POOL, "size=64M,2MB=0..2M");
        let cfg = MosallocConfig::from_env().unwrap();
        assert_eq!(cfg.brk.size, 128 * MIB);
        assert_eq!(cfg.anon.size, 64 * MIB);
        assert_eq!(cfg.anon.windows.len(), 1);
        std::env::remove_var(ENV_CONFIG);
        std::env::remove_var(ENV_ANON_POOL);
    }
}
