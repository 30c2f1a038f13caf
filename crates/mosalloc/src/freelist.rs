//! First-fit allocation over a fixed-capacity pool.
//!
//! The paper (§V) serves anonymous-pool allocations with the *first fit*
//! algorithm and releases backing memory only from the *top* of the pool.
//! [`FirstFit`] implements exactly that split:
//!
//! * `alloc` scans the holes left by earlier frees in address order and
//!   takes the first one large enough, falling back to bumping the
//!   high-water mark (`top`);
//! * `free` coalesces the range into the hole list and, when a hole reaches
//!   the top, retracts the top — mirroring how Mosalloc only returns memory
//!   to the OS from the top of the pool.

use std::collections::BTreeMap;

/// Hole-selection policy for pool allocation.
///
/// The paper serves its anonymous pool first-fit, citing better runtime
/// complexity and utilization than best/worst fit (§V), and leaves
/// "better, more efficient memory management algorithms" as future work
/// — all three classical policies are implemented here so the claim can
/// be measured (see the `ablation_fit_policy` bench).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FitPolicy {
    /// Lowest-addressed hole that fits (the paper's choice).
    #[default]
    FirstFit,
    /// Smallest hole that fits (minimizes leftover fragments).
    BestFit,
    /// Largest hole (keeps leftovers usable).
    WorstFit,
}

/// A free-list allocator over the offset range `[0, capacity)`,
/// first-fit by default (see [`FitPolicy`] for the alternatives).
///
/// Offsets are pool-relative; the owning pool adds its base address.
///
/// # Example
///
/// ```
/// use mosalloc::FirstFit;
///
/// let mut ff = FirstFit::new(1024);
/// let a = ff.alloc(100, 1).unwrap();
/// let b = ff.alloc(200, 1).unwrap();
/// ff.free(a, 100).unwrap();
/// // First-fit reuses the hole left by `a`.
/// assert_eq!(ff.alloc(50, 1).unwrap(), a);
/// # let _ = b;
/// ```
#[derive(Clone, Debug)]
pub struct FirstFit {
    policy: FitPolicy,
    capacity: u64,
    /// High-water mark: no byte at or above `top` has ever been handed out
    /// (or all such bytes have been retracted).
    top: u64,
    /// Holes below `top`, keyed by start offset. Invariants: disjoint,
    /// non-adjacent (always coalesced), all below `top`.
    holes: BTreeMap<u64, u64>,
    /// Live allocations, keyed by start offset, for free validation.
    live: BTreeMap<u64, u64>,
}

impl FirstFit {
    /// Creates an empty first-fit allocator managing `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self::with_policy(capacity, FitPolicy::FirstFit)
    }

    /// Creates an allocator with an explicit hole-selection policy.
    pub fn with_policy(capacity: u64, policy: FitPolicy) -> Self {
        FirstFit {
            policy,
            capacity,
            top: 0,
            holes: BTreeMap::new(),
            live: BTreeMap::new(),
        }
    }

    /// The active hole-selection policy.
    pub fn policy(&self) -> FitPolicy {
        self.policy
    }

    /// Total managed bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current high-water mark.
    pub fn high_water(&self) -> u64 {
        self.top
    }

    /// Bytes currently handed out.
    pub fn live_bytes(&self) -> u64 {
        self.live.values().sum()
    }

    /// Bytes lost to holes below the high-water mark (internal
    /// fragmentation of the top-release policy).
    pub fn hole_bytes(&self) -> u64 {
        self.holes.values().sum()
    }

    /// Allocates `len` bytes aligned to `align` (a power of two), returning
    /// the start offset.
    ///
    /// Scans existing holes and picks one according to the configured
    /// [`FitPolicy`]; if no hole fits, extends the high-water mark.
    ///
    /// Returns `None` if the pool cannot satisfy the request.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `align` is not a power of two; the pool
    /// façade validates requests before calling.
    pub fn alloc(&mut self, len: u64, align: u64) -> Option<u64> {
        assert!(len > 0, "zero-length allocation");
        assert!(align.is_power_of_two(), "alignment must be a power of two");

        // Select a hole according to the policy.
        let mut found: Option<(u64, u64, u64)> = None; // (hole_start, hole_len, alloc_start)
        for (&start, &hlen) in &self.holes {
            let alloc_start = align_up(start, align);
            let pad = alloc_start - start;
            if hlen < pad + len {
                continue;
            }
            let candidate = (start, hlen, alloc_start);
            match self.policy {
                FitPolicy::FirstFit => {
                    found = Some(candidate);
                    break;
                }
                FitPolicy::BestFit => {
                    if found.is_none_or(|(_, best, _)| hlen < best) {
                        found = Some(candidate);
                    }
                }
                FitPolicy::WorstFit => {
                    if found.is_none_or(|(_, worst, _)| hlen > worst) {
                        found = Some(candidate);
                    }
                }
            }
        }
        if let Some((start, hlen, alloc_start)) = found {
            self.holes.remove(&start);
            let pad = alloc_start - start;
            if pad > 0 {
                self.holes.insert(start, pad);
            }
            let tail = hlen - pad - len;
            if tail > 0 {
                self.holes.insert(alloc_start + len, tail);
            }
            self.live.insert(alloc_start, len);
            return Some(alloc_start);
        }

        // Bump the top.
        let alloc_start = align_up(self.top, align);
        let end = alloc_start.checked_add(len)?;
        if end > self.capacity {
            return None;
        }
        if alloc_start > self.top {
            // Alignment gap becomes a hole (reusable by smaller requests).
            self.insert_hole(self.top, alloc_start - self.top);
        }
        self.top = end;
        self.live.insert(alloc_start, len);
        Some(alloc_start)
    }

    /// Frees the allocation starting at `start` with length `len`.
    ///
    /// The exact `(start, len)` pair of a previous [`alloc`](Self::alloc)
    /// must be passed (POSIX `munmap` of sub-ranges is not modelled; the
    /// paper's pools release whole blocks).
    ///
    /// Returns `Err(())` when the range is not a live allocation.
    #[allow(clippy::result_unit_err)]
    pub fn free(&mut self, start: u64, len: u64) -> Result<(), ()> {
        match self.live.get(&start) {
            Some(&l) if l == len => {}
            _ => return Err(()),
        }
        self.live.remove(&start);
        self.insert_hole(start, len);
        self.retract_top();
        Ok(())
    }

    /// Inserts a hole and coalesces with neighbours.
    fn insert_hole(&mut self, start: u64, len: u64) {
        let mut start = start;
        let mut len = len;
        // Coalesce with predecessor.
        if let Some((&ps, &pl)) = self.holes.range(..start).next_back() {
            if ps + pl == start {
                self.holes.remove(&ps);
                start = ps;
                len += pl;
            }
        }
        // Coalesce with successor.
        if let Some(&sl) = self.holes.get(&(start + len)) {
            self.holes.remove(&(start + len));
            len += sl;
        }
        self.holes.insert(start, len);
    }

    /// Retracts the high-water mark across any hole touching it.
    fn retract_top(&mut self) {
        while let Some((&hs, &hl)) = self.holes.iter().next_back() {
            if hs + hl == self.top {
                self.holes.remove(&hs);
                self.top = hs;
            } else {
                break;
            }
        }
    }

    /// Whether `offset` lies inside a live allocation.
    pub fn is_live(&self, offset: u64) -> bool {
        self.live
            .range(..=offset)
            .next_back()
            .is_some_and(|(&s, &l)| offset >= s && offset < s + l)
    }
}

fn align_up(value: u64, align: u64) -> u64 {
    (value + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_contiguous() {
        let mut ff = FirstFit::new(1000);
        assert_eq!(ff.alloc(100, 1), Some(0));
        assert_eq!(ff.alloc(100, 1), Some(100));
        assert_eq!(ff.high_water(), 200);
        assert_eq!(ff.live_bytes(), 200);
    }

    #[test]
    fn first_fit_prefers_lowest_hole() {
        let mut ff = FirstFit::new(1000);
        let a = ff.alloc(100, 1).unwrap();
        let _b = ff.alloc(100, 1).unwrap();
        let c = ff.alloc(100, 1).unwrap();
        let _d = ff.alloc(100, 1).unwrap();
        ff.free(a, 100).unwrap();
        ff.free(c, 100).unwrap();
        // Both holes fit; first-fit takes the lower one (a's).
        assert_eq!(ff.alloc(80, 1), Some(a));
        // Next allocation of 100 does not fit a's 20-byte remainder; takes c's.
        assert_eq!(ff.alloc(100, 1), Some(c));
    }

    #[test]
    fn top_release_retracts_high_water() {
        let mut ff = FirstFit::new(1000);
        let a = ff.alloc(100, 1).unwrap();
        let b = ff.alloc(100, 1).unwrap();
        assert_eq!(ff.high_water(), 200);
        // Freeing the middle does not retract the top...
        ff.free(a, 100).unwrap();
        assert_eq!(ff.high_water(), 200);
        assert_eq!(ff.hole_bytes(), 100);
        // ...freeing the top block coalesces through and retracts fully.
        ff.free(b, 100).unwrap();
        assert_eq!(ff.high_water(), 0);
        assert_eq!(ff.hole_bytes(), 0);
    }

    #[test]
    fn alignment_is_respected_and_gap_reusable() {
        let mut ff = FirstFit::new(4096);
        let a = ff.alloc(10, 1).unwrap();
        let b = ff.alloc(100, 256).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 256);
        assert_eq!(b % 256, 0);
        // The 246-byte alignment gap is a hole and reusable.
        assert_eq!(ff.alloc(200, 1), Some(10));
    }

    #[test]
    fn double_free_and_bad_free_rejected() {
        let mut ff = FirstFit::new(1000);
        let a = ff.alloc(100, 1).unwrap();
        assert!(ff.free(a, 100).is_ok());
        assert!(ff.free(a, 100).is_err(), "double free");
        let b = ff.alloc(100, 1).unwrap();
        assert!(ff.free(b, 50).is_err(), "partial free");
        assert!(ff.free(777, 1).is_err(), "never allocated");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut ff = FirstFit::new(100);
        assert!(ff.alloc(101, 1).is_none());
        assert_eq!(ff.alloc(100, 1), Some(0));
        assert!(ff.alloc(1, 1).is_none());
    }

    #[test]
    fn is_live_boundaries() {
        let mut ff = FirstFit::new(1000);
        let a = ff.alloc(100, 1).unwrap();
        assert!(ff.is_live(a));
        assert!(ff.is_live(a + 99));
        assert!(!ff.is_live(a + 100));
        ff.free(a, 100).unwrap();
        assert!(!ff.is_live(a));
    }

    #[test]
    fn holes_coalesce_both_directions() {
        let mut ff = FirstFit::new(1000);
        let a = ff.alloc(100, 1).unwrap();
        let b = ff.alloc(100, 1).unwrap();
        let c = ff.alloc(100, 1).unwrap();
        let _guard = ff.alloc(100, 1).unwrap();
        ff.free(a, 100).unwrap();
        ff.free(c, 100).unwrap();
        ff.free(b, 100).unwrap();
        // One coalesced hole of 300 bytes.
        assert_eq!(ff.holes.len(), 1);
        assert_eq!(ff.hole_bytes(), 300);
        // Fits a 300-byte request exactly.
        assert_eq!(ff.alloc(300, 1), Some(0));
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_len_panics() {
        FirstFit::new(10).alloc(0, 1);
    }

    /// Sets up holes of sizes 100 and 300 (at offsets 0 and 200).
    fn two_holes(policy: FitPolicy) -> FirstFit {
        let mut ff = FirstFit::with_policy(1000, policy);
        let a = ff.alloc(100, 1).unwrap(); // [0,100)
        let _b = ff.alloc(100, 1).unwrap(); // [100,200)
        let c = ff.alloc(300, 1).unwrap(); // [200,500)
        let _d = ff.alloc(100, 1).unwrap(); // [500,600)
        ff.free(a, 100).unwrap();
        ff.free(c, 300).unwrap();
        ff
    }

    #[test]
    fn best_fit_takes_the_tightest_hole() {
        let mut ff = two_holes(FitPolicy::BestFit);
        // 80 bytes fit both holes; best fit picks the 100-byte one.
        assert_eq!(ff.alloc(80, 1), Some(0));
        // Next 80 bytes only fit the 300-byte hole.
        assert_eq!(ff.alloc(250, 1), Some(200));
    }

    #[test]
    fn worst_fit_takes_the_largest_hole() {
        let mut ff = two_holes(FitPolicy::WorstFit);
        assert_eq!(
            ff.alloc(80, 1),
            Some(200),
            "worst fit picks the 300-byte hole"
        );
    }

    #[test]
    fn first_fit_takes_the_lowest_hole() {
        let mut ff = two_holes(FitPolicy::FirstFit);
        assert_eq!(ff.alloc(80, 1), Some(0));
        assert_eq!(ff.policy(), FitPolicy::FirstFit);
        assert_eq!(FirstFit::new(8).policy(), FitPolicy::FirstFit);
    }

    #[test]
    fn policies_agree_when_one_hole_fits() {
        for policy in [FitPolicy::FirstFit, FitPolicy::BestFit, FitPolicy::WorstFit] {
            let mut ff = two_holes(policy);
            assert_eq!(ff.alloc(250, 1), Some(200), "{policy:?}");
        }
    }
}
