//! **mosaic-audit** — workspace static analysis for the invariants a
//! type checker cannot see: bit-exact persistence, versioned formats,
//! lock discipline, arithmetic safety and wire conformance.
//!
//! The persisted model store only serves correct answers if every
//! `f64` survives its text round-trip. Nothing in the type system stops
//! a contributor from introducing a `{:.3}` float rendering into a
//! codec — such a change compiles, passes most tests, and surfaces
//! weeks later as mysterious prediction drift. This crate closes that
//! gap mechanically. Determinism and panic-freedom are not its job:
//! clippy enforces them (the ban table in `crates/clippy.toml` and the
//! `deny` attributes of the request-path crates and modules).
//!
//! Two shipped bug classes motivated semantic analysis: a lock guard
//! held across a model fit serialized every request on one mutex, and
//! an unchecked `total * q` overflowed u64 in the percentile rank.
//! Neither is visible to a flat token scan — both need to know where
//! blocks begin and end.
//!
//! # How it works
//!
//! A lightweight [lexer] tokenizes each source file (no rustc
//! dependency, no syn — std only, and it must never panic on arbitrary
//! input); each file is lexed **exactly once** per audit. A [block
//! parser](block) builds a brace/paren/bracket tree with `fn`/`impl`/
//! `mod` scope attribution over the same token stream — not a Rust
//! grammar, just enough structure for guard-liveness and scope
//! reasoning, and like the lexer it is total on arbitrary bytes. A
//! [rule set](rules) scoped by path runs over the production tokens
//! (test code is exempt), a [cross-file conformance pass](conformance)
//! proves every wire verb is fully shipped, and everything emits
//! rustc-style `file:line:col: error[rule]: message` diagnostics, with
//! JSON and SARIF 2.1.0 modes for machine consumption and a nonzero
//! exit for CI gating via `mosaic audit --deny` (which also enforces
//! the per-rule suppression budgets in
//! [`rules::SUPPRESSION_BUDGET`]).
//!
//! # Suppressions
//!
//! A finding can be silenced for its own line or the following line
//! with a justified inline comment:
//!
//! ```text
//! // audit:allow(arith-safety) callers bound total_count below 2^16, so the product fits u32
//! let rank = total_count * q / 100;
//! ```
//!
//! The justification string is mandatory — a bare `audit:allow(rule)`
//! is itself reported (rule id `suppression`), as is an unknown rule
//! name. Suppressions are part of the audit trail: `--json` output and
//! the text report both come from the same diagnostic stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod conformance;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

pub use diag::{render_json, render_sarif, Diagnostic};
pub use rules::{LOCK_ORDER, RULE_IDS, SUPPRESSION_BUDGET};
pub use workspace::{audit_file, audit_files, audit_workspace, AuditReport};
