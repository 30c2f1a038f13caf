//! Trace sampling (paper §II-C).
//!
//! Full simulations of real workloads are too slow, so studies sample the
//! instruction stream. The common practice the paper critiques is
//! **blind sampling**: "fast-forward a few billions of instructions of
//! the workload and then simulate another few billions" — which "might
//! be nonrepresentative, because it ignores the time varying behavior of
//! real workloads" (SimPoint measured 80% average error for it).
//!
//! This module implements blind sampling and a simple **multi-window**
//! variant (periodic windows across the whole trace, a cheap phase-aware
//! improvement), so the claim can be measured against our workloads —
//! see `mosaic figure ablation-sampling`.

use crate::Access;

/// Blind sampling: skip the first `skip` accesses, keep the next `take`.
///
/// # Example
///
/// ```
/// use workloads::{sampling, TraceParams, WorkloadSpec};
/// use vmcore::{Region, VirtAddr};
///
/// let spec = WorkloadSpec::by_name("gups/8GB").unwrap();
/// let arena = Region::new(VirtAddr::new(0), 64 << 20);
/// let full = spec.trace(&TraceParams::new(arena, 10_000, 1));
/// let sampled: Vec<_> = sampling::blind(full, 2_000, 1_000).collect();
/// assert_eq!(sampled.len(), 1_000);
/// ```
pub fn blind<T>(trace: T, skip: usize, take: usize) -> impl Iterator<Item = Access>
where
    T: IntoIterator<Item = Access>,
{
    trace.into_iter().skip(skip).take(take)
}

/// Periodic multi-window sampling: out of every `period` accesses, keep
/// the first `window`. Keeps the same sampled fraction as blind sampling
/// with `take = windows x window`, but spread across the whole
/// execution so phase changes are represented.
///
/// # Panics
///
/// Panics if `window == 0` or `window > period`.
pub fn windows<T>(trace: T, window: usize, period: usize) -> impl Iterator<Item = Access>
where
    T: IntoIterator<Item = Access>,
{
    assert!(window > 0, "empty window");
    assert!(window <= period, "window larger than its period");
    trace
        .into_iter()
        .enumerate()
        .filter(move |(i, _)| i % period < window)
        .map(|(_, a)| a)
}

/// Exactly how many accesses [`windows`] keeps out of a trace of length
/// `len`. The final partial period is **not** dropped: a trace whose
/// length is not a multiple of `period` still contributes
/// `min(len % period, window)` tail accesses, matching the
/// `i % period < window` filter above index for index. Extrapolation
/// scale factors must use this count — the naive
/// `(len / period) * window` silently forgets the tail term and skews
/// every scaled counter for off-by-one trace lengths.
///
/// # Panics
///
/// Panics if `window == 0` or `window > period` (same contract as
/// [`windows`]).
pub fn kept_count(len: u64, window: u64, period: u64) -> u64 {
    assert!(window > 0, "empty window");
    assert!(window <= period, "window larger than its period");
    let full_periods = len / period;
    let tail = (len % period).min(window);
    // Widened so `full_periods * window` cannot wrap even for
    // adversarial u64 inputs; the result is <= len, so the narrowing
    // back to u64 is exact.
    (u128::from(full_periods) * u128::from(window) + u128::from(tail)) as u64
}

/// Scales a sampled counter value up to full-trace scale by the exact
/// rational `total / kept`, computed entirely in integer arithmetic
/// (widen to u128, multiply, floor-divide). No f64 round-trip means no
/// drift: two runs that observe the same sampled counters extrapolate
/// to bit-identical full-scale counters.
///
/// # Panics
///
/// Panics if `kept == 0` or `kept > total`.
pub fn extrapolate(value: u64, kept: u64, total: u64) -> u64 {
    assert!(kept > 0, "cannot extrapolate from an empty sample");
    assert!(kept <= total, "sample larger than the full trace");
    // value * total fits in u128 (both are u64); the quotient is at
    // most value * (total / kept) <= u64::MAX only when the caller's
    // counters are sane, so saturate rather than wrap on the way back.
    let scaled = u128::from(value) * u128::from(total) / u128::from(kept);
    u64::try_from(scaled).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceParams, WorkloadSpec};
    use vmcore::{Region, VirtAddr};

    fn trace(n: u64) -> impl Iterator<Item = Access> {
        let spec = WorkloadSpec::by_name("spec06/mcf").unwrap();
        let arena = Region::new(VirtAddr::new(0x100_0000_0000), 64 << 20);
        spec.trace(&TraceParams::new(arena, n, 3))
    }

    #[test]
    fn blind_skips_and_takes() {
        let full: Vec<Access> = trace(1000).collect();
        let sampled: Vec<Access> = blind(trace(1000), 300, 200).collect();
        assert_eq!(sampled.len(), 200);
        assert_eq!(sampled[0], full[300]);
        assert_eq!(sampled[199], full[499]);
    }

    #[test]
    fn blind_truncates_at_trace_end() {
        let sampled: Vec<Access> = blind(trace(100), 90, 50).collect();
        assert_eq!(sampled.len(), 10);
    }

    #[test]
    fn windows_cover_all_phases() {
        let full: Vec<Access> = trace(1000).collect();
        let sampled: Vec<Access> = windows(trace(1000), 10, 100).collect();
        assert_eq!(sampled.len(), 100, "10%% of 1000");
        // First window matches the trace head; a later window matches the
        // corresponding region of the full trace.
        assert_eq!(&sampled[..10], &full[..10]);
        assert_eq!(&sampled[10..20], &full[100..110]);
    }

    #[test]
    fn same_fraction_different_coverage() {
        // Both keep 10% of the trace, but blind sees one region while
        // windows sees ten. The trace must span enough of mcf's block
        // relocations for the coverage gap to dominate sampling noise;
        // at 10k accesses the margin is within noise for some RNG
        // streams, at 40k it is robust across seeds.
        let blind_set: std::collections::BTreeSet<u64> = blind(trace(40_000), 0, 4_000)
            .map(|a| a.addr.raw())
            .collect();
        let window_set: std::collections::BTreeSet<u64> = windows(trace(40_000), 400, 4_000)
            .map(|a| a.addr.raw())
            .collect();
        // mcf relocates its working block over time: periodic windows see
        // more distinct addresses than one contiguous chunk.
        assert!(
            window_set.len() > blind_set.len(),
            "windows {} vs blind {}",
            window_set.len(),
            blind_set.len()
        );
    }

    #[test]
    #[should_panic(expected = "window larger")]
    fn oversized_window_rejected() {
        let _ = windows(trace(10), 20, 10).count();
    }

    /// A synthetic trace whose address *is* its index, so the kept-index
    /// set can be read straight off the sampled addresses.
    fn indexed(n: u64) -> Vec<Access> {
        (0..n).map(|i| Access::read(VirtAddr::new(i), 0)).collect()
    }

    fn kept_indices(len: u64, window: usize, period: usize) -> Vec<u64> {
        windows(indexed(len), window, period)
            .map(|a| a.addr.raw())
            .collect()
    }

    #[test]
    fn partial_tail_window_is_kept() {
        // window = 3, period = 5, around len = 2 periods = 10.
        //
        // len = 9 (k*period - 1): the second period is partial but its
        // window fits entirely, so nothing is lost.
        assert_eq!(kept_indices(9, 3, 5), vec![0, 1, 2, 5, 6, 7]);
        // len = 10 (exact multiple): two full windows.
        assert_eq!(kept_indices(10, 3, 5), vec![0, 1, 2, 5, 6, 7]);
        // len = 11 (k*period + 1): a third, partial window opens at
        // index 10 and contributes its single available access.
        assert_eq!(kept_indices(11, 3, 5), vec![0, 1, 2, 5, 6, 7, 10]);
        // Partial window *shorter than the full window*: len = 12 keeps
        // two of the third window's three slots.
        assert_eq!(kept_indices(12, 3, 5), vec![0, 1, 2, 5, 6, 7, 10, 11]);
    }

    #[test]
    fn kept_count_matches_windows_exactly() {
        for (window, period) in [(1u64, 1u64), (1, 7), (3, 5), (4, 4), (7, 10)] {
            for base in [0u64, 1, 2, 5] {
                let exact = base * period;
                let lens = [exact.checked_sub(1), Some(exact), Some(exact + 1)];
                for len in lens.into_iter().flatten() {
                    let counted = windows(indexed(len), window as usize, period as usize).count();
                    assert_eq!(
                        kept_count(len, window, period),
                        counted as u64,
                        "len={len} window={window} period={period}"
                    );
                }
            }
        }
    }

    #[test]
    fn extrapolate_is_exact_integer_scaling() {
        // 10% sample: scale by exactly 10, no f64 round-off.
        assert_eq!(extrapolate(123_456, 1_000, 10_000), 1_234_560);
        // Non-divisible ratio floors: 7 * 10 / 3 = 23.33.. -> 23.
        assert_eq!(extrapolate(7, 3, 10), 23);
        // Full sample is the identity.
        assert_eq!(extrapolate(42, 5, 5), 42);
        // Huge counters do not wrap: widen-then-divide stays exact.
        assert_eq!(extrapolate(u64::MAX / 2, 5_000, 10_000), u64::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn extrapolate_rejects_zero_kept() {
        let _ = extrapolate(1, 0, 10);
    }
}
