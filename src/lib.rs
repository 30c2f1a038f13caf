//! Mosaic: a reproduction of *"Predicting Execution Times With Partial
//! Simulations in Virtual Memory Research: Why and How"* (MICRO 2020).
//!
//! This facade crate re-exports every subsystem of the workspace so that
//! examples and downstream users can depend on a single crate:
//!
//! * [`vmcore`] — addresses, page sizes, memory layouts, PMU counters.
//! * [`mosalloc`] — the Mosaic memory allocator (pools, first-fit, layouts).
//! * [`memsim`] — the virtual-memory subsystem simulator (TLBs, caches,
//!   page tables, walkers, platform configurations).
//! * [`workloads`] — synthetic benchmark trace generators.
//! * [`machine`] — the trace-driven execution engine standing in for real
//!   hardware, producing `(R, H, M, C)` counters.
//! * [`mosmodel`] — the paper's core contribution: runtime models (Basu,
//!   Pham, Gandhi, Alam, Yaniv, poly1/2/3 and Mosmodel) plus the regression
//!   and validation machinery.
//! * [`layouts`] — layout-exploration heuristics (growing / random /
//!   sliding window).
//! * [`harness`] — experiment orchestration and the table/figure renderers.
//!
//! # Quickstart
//!
//! ```no_run
//! use harness::experiment::Grid;
//! use harness::Speed;
//! use mosmodel::models::ModelKind;
//!
//! let grid = Grid::new(Speed::FAST);
//! let dataset = grid.dataset("spec06/mcf", &machine::Platform::SANDY_BRIDGE);
//! let fitted = ModelKind::Mosmodel.fit(&dataset).unwrap();
//! println!("max error: {:.2}%", 100.0 * mosmodel::metrics::max_err(&fitted, &dataset));
//! ```

pub use harness;
pub use layouts;
pub use machine;
pub use memsim;
pub use mosalloc;
pub use mosmodel;
pub use vmcore;
pub use workloads;
