//! **mosaicd** — the prediction-serving subsystem.
//!
//! The paper's workflow ends with a fitted model; this crate turns that
//! model into an online service. A [`registry::ModelRegistry`] fits the
//! nine runtime models per `(workload, platform)` pair over the grid's
//! battery, which the grid cache keeps across restarts; a
//! [`server::Server`] exposes them over a line-delimited TCP
//! protocol with an event-driven worker plane (a fixed pool of shards,
//! each multiplexing its connections through one `poll(2)` readiness
//! loop), bounded admission with explicit backpressure, and an embedded
//! metrics endpoint; a blocking [`client::Client`] speaks the protocol
//! for the CLI and tests.
//!
//! # Wire protocol
//!
//! Requests and responses are single `\n`-terminated lines over TCP;
//! a connection may carry any number of requests.
//!
//! | request | response |
//! |---|---|
//! | `predict <workload> <platform> <layout-spec> [model]` | `ok r=… h=… m=… c=… model=… pred=… max_err=… geo_err=…` |
//! | `warm <workload> <platform>` | `warm workload=… platform=… models=…` |
//! | `stats` | `stats requests=… … p50_us=… buckets=…` |
//! | `metrics` | Prometheus text exposition, multi-line, ends with `# EOF` |
//! | `trace [n]` | `traces count=… dropped=…` then one `trace …` line per trace |
//! | `recommend <workload> <platform> <budget> [threshold]` | `rec action=layout layout=… pred=…` or `rec action=measure layout=… gain=…` |
//! | `pairs` | `pairs count=…` then one `pair …` line per (workload, platform) |
//! | `batch <req>[; <req>]…` | `batch count=…` then one reply line per sub-request |
//! | anything else | `err <reason>` |
//!
//! `metrics`, `trace`, `pairs`, and `batch` are the only multi-line
//! responses; all are self-framing (the `# EOF` terminator and the
//! `count=` headers), so clients never guess where a response ends.
//! `batch` runs `;`-separated single-line-reply sub-requests (`predict`,
//! `warm`, `stats`, `recommend`) from one wire line, amortizing a round
//! trip across N requests; each sub-reply is byte-identical to what the
//! standalone request would have answered. Request handling is traced
//! end-to-end into fixed-capacity ring buffers ([`obs`]): wall-domain
//! spans (µs) for the request path, sim-domain spans (simulated cycles,
//! byte-identical across identical runs) for the partial simulation.
//!
//! `warm` pre-fits a pair's models without running a prediction, so a
//! deployment can pay the one-time fitting cost up front (`mosaic serve
//! --warm <workload>:<platform>`). Fitting is per-pair singleflight:
//! one cold fit never blocks predictions for other pairs, and repeat
//! predictions for the same `(workload, platform, layout, model)` are
//! answered bit-identically from a bounded deterministic cache.
//!
//! `recommend` turns the service into a decision engine: given a
//! hugepage budget in the [`recommend`] crate's grammar (`64x2m+1x1g`),
//! the server enumerates admissible candidate layouts with the paper's
//! exploration heuristics, scores each with the pair's fitted Mosmodel,
//! and returns the cheapest — unless the pair's K-fold CV error exceeds
//! the confidence threshold, in which case it returns the layout whose
//! measurement would be most informative (`action=measure`, active
//! learning). Recommendations are deterministic and served from their
//! own bounded FIFO cache keyed on the canonical budget.
//!
//! A connection arriving while the plane's backlog is at its bound is
//! answered `busy` and closed — explicit backpressure instead of
//! unbounded buffering. Admitted connections are nonblocking and
//! multiplexed, so an idle persistent connection costs a poll slot, not
//! a worker thread. Layout specs use the [`layouts::spec`] grammar (`4k`,
//! `2m`, `1g`, `2m:0..64M+1g:1G..2G`); floating-point fields are printed
//! with Rust's shortest-roundtrip formatting, so parsing them back
//! yields bit-identical values.
//!
//! # Example
//!
//! ```no_run
//! use harness::{Grid, Speed};
//! use service::client::Client;
//! use service::registry::ModelRegistry;
//! use service::server::{Server, ServerConfig};
//!
//! let registry = ModelRegistry::new(Grid::new(Speed::FAST), None);
//! let server = Server::start(ServerConfig::default(), registry).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let p = client.predict("gups/8GB", "sandybridge", "2m:0..64M", None).unwrap();
//! println!("predicted {} cycles (max model error {:.1}%)", p.predicted, 100.0 * p.max_err);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A panic in request handling kills a worker thread (see
// `server::handle_line_shielded`), so panicking shortcuts are banned in
// production code; tests may still assert with unwrap/expect/indexing.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation
    )
)]

pub mod cache;
pub mod client;
pub mod metrics;
pub mod prom;
pub mod protocol;
pub mod registry;
pub mod server;
mod trace;

use std::fmt;

/// Why a prediction request could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The workload name is not in the registry.
    UnknownWorkload(String),
    /// The platform name is not a known platform.
    UnknownPlatform(String),
    /// The layout spec did not parse or build.
    BadSpec(String),
    /// The hugepage budget did not parse or exceeds the pool.
    BadBudget(String),
    /// The requested model is not available for the pair (e.g. a
    /// degenerate anchor made its fit impossible).
    ModelUnavailable(String),
    /// The battery fit for the pair panicked; the fitting slot was
    /// released, so a later query retries from scratch.
    FitFailed(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownWorkload(w) => write!(f, "unknown workload {w:?}"),
            ServiceError::UnknownPlatform(p) => write!(f, "unknown platform {p:?}"),
            ServiceError::BadSpec(s) => write!(f, "{s}"),
            ServiceError::BadBudget(b) => write!(f, "{b}"),
            ServiceError::ModelUnavailable(m) => write!(f, "model {m:?} unavailable for this pair"),
            ServiceError::FitFailed(why) => write!(f, "model fitting failed: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {}
