//! Deterministic mixing used to scatter pages and page-table nodes across
//! simulated physical memory without keeping any per-page state.

/// SplitMix64 finalizer: a high-quality, invertible 64-bit mixer.
///
/// Used to assign physical frames to virtual pages and physical locations
/// to page-table nodes. Being a pure function, frame assignment costs no
/// memory and is bit-reproducible across runs — a property the experiment
/// grid relies on.
///
/// # Example
///
/// ```
/// let a = memsim::splitmix64(1);
/// let b = memsim::splitmix64(2);
/// assert_ne!(a, b);
/// assert_eq!(a, memsim::splitmix64(1), "pure function");
/// ```
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(splitmix64(42), splitmix64(42));
    }

    #[test]
    fn spreads_low_bits() {
        // Consecutive inputs should land in different cache sets: check the
        // low 10 bits take many distinct values over 1024 consecutive inputs.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1024u64 {
            seen.insert(splitmix64(i) & 0x3ff);
        }
        assert!(
            seen.len() > 600,
            "only {} distinct low-bit patterns",
            seen.len()
        );
    }

    #[test]
    fn known_vector() {
        // Reference value from the SplitMix64 definition (seed 0 first output).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
