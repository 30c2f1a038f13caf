//! Allocation statistics, used to validate the paper's <1% extra memory
//! consumption claim for the top-only release policy.

use std::fmt;

/// Counters describing an allocator's activity so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of `brk`/`sbrk` calls served.
    pub brk_calls: u64,
    /// Number of anonymous `mmap` calls served.
    pub anon_mmap_calls: u64,
    /// Number of file-backed `mmap` calls served.
    pub file_mmap_calls: u64,
    /// Number of `munmap` calls served.
    pub munmap_calls: u64,
    /// Total bytes requested by the program.
    pub bytes_requested: u64,
    /// Total bytes actually reserved (after rounding).
    pub bytes_reserved: u64,
    /// Peak simultaneous live bytes across all pools.
    pub peak_live_bytes: u64,
}

impl AllocStats {
    /// Overhead of reservation rounding plus fragmentation, as a fraction
    /// of the bytes requested. The paper measures this below 1% for its
    /// workloads.
    pub fn overhead_ratio(&self) -> f64 {
        if self.bytes_requested == 0 {
            0.0
        } else {
            (self.bytes_reserved as f64 - self.bytes_requested as f64) / self.bytes_requested as f64
        }
    }

    /// Records a served request.
    pub(crate) fn record(&mut self, requested: u64, reserved: u64) {
        self.bytes_requested += requested;
        self.bytes_reserved += reserved;
    }

    /// Updates the live-byte peak.
    pub(crate) fn observe_live(&mut self, live: u64) {
        self.peak_live_bytes = self.peak_live_bytes.max(live);
    }
}

impl fmt::Display for AllocStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "brk={} anon={} file={} munmap={} requested={}B reserved={}B peak={}B ({:.2}% overhead)",
            self.brk_calls,
            self.anon_mmap_calls,
            self.file_mmap_calls,
            self.munmap_calls,
            self.bytes_requested,
            self.bytes_reserved,
            self.peak_live_bytes,
            100.0 * self.overhead_ratio(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_ratio_handles_zero() {
        assert_eq!(AllocStats::default().overhead_ratio(), 0.0);
    }

    #[test]
    fn overhead_ratio_counts_rounding() {
        let mut s = AllocStats::default();
        s.record(100, 4096);
        assert!((s.overhead_ratio() - 39.96).abs() < 0.01);
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut s = AllocStats::default();
        s.observe_live(10);
        s.observe_live(5);
        s.observe_live(20);
        s.observe_live(1);
        assert_eq!(s.peak_live_bytes, 20);
    }

    #[test]
    fn display_is_complete() {
        let s = AllocStats {
            brk_calls: 1,
            ..Default::default()
        };
        assert!(s.to_string().contains("brk=1"));
    }
}
