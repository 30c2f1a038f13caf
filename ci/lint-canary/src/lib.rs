//! Deliberately defective code: every function breaks exactly one lint.
//! It is never built by the workspace, only linted (see `Cargo.toml`).

// The panic family and the integer-safety pair, as the request-path
// crates and modules and the on-disk codecs deny them.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]

use std::collections::HashMap;
use std::time::Instant;

pub fn unwraps(v: Option<u8>) -> u8 {
    v.unwrap()
}

pub fn expects(v: Option<u8>) -> u8 {
    v.expect("present")
}

pub fn indexes(v: &[u8]) -> u8 {
    v[1]
}

pub fn panics() {
    panic!("planted");
}

pub fn unreachables() {
    unreachable!("planted");
}

pub fn todos() {
    todo!("planted");
}

pub fn unimplementeds() {
    unimplemented!("planted");
}

/// `arithmetic_side_effects`: a sum that wraps in release builds.
pub fn adds(a: u64, b: u64) -> u64 {
    a + b
}

/// `cast_possible_truncation`: a `u64` count narrowed with `as`.
pub fn truncates(n: u64) -> u32 {
    n as u32
}

/// `disallowed_types`: a randomly seeded hasher.
pub fn hashes() -> HashMap<u64, u64> {
    HashMap::default()
}

/// `disallowed_methods`: a wall-clock read.
pub fn clocks() -> Instant {
    Instant::now()
}
