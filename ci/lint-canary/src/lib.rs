//! Deliberately defective code: every function breaks exactly one lint.
//! It is never built by the workspace, only linted (see `Cargo.toml`).

// The panic family, as the request-path crates and modules deny it.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
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

/// `disallowed_types`: a randomly seeded hasher.
pub fn hashes() -> HashMap<u64, u64> {
    HashMap::default()
}

/// `disallowed_methods`: a wall-clock read.
pub fn clocks() -> Instant {
    Instant::now()
}
