//! The execution engine: the workspace's stand-in for real hardware.
//!
//! The paper measures runtimes `R` and virtual-memory counters `(H, M, C)`
//! on three physical Xeon machines. Here, [`Engine`] plays that role: it
//! drives a workload's memory-access trace through the `memsim`
//! virtual-memory simulator and accounts wall-clock cycles with a mechanistic
//! out-of-order timing model. Two hardware behaviours that the paper
//! *discovered* through Mosalloc emerge from the model rather than being
//! painted on:
//!
//! * **Latency hiding improves as misses thin out** (paper Figure 3/10):
//!   the reorder buffer accumulates independent-work "headroom" between
//!   misses, and a page walk can only be overlapped with headroom that
//!   exists; dense misses leave none, sparse misses leave plenty.
//! * **Walk-induced slowdown can exceed the walk cycles themselves**
//!   (paper Figure 9, Table 7): walker references flow through the same
//!   L1d/L2/L3 as program data and evict warm lines; the extra program
//!   misses cost runtime that no walk-cycle counter sees.
//!
//! On Broadwell, two hardware walkers serve misses concurrently while the
//! `C` counter sums both walkers' active cycles — so `C` can exceed `R`
//! for walk-saturated workloads (gups), reproducing the negative-β
//! pathology of the Basu model (paper §VI-D).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod profiler;

pub use engine::{Engine, EngineConfig};
pub use memsim::{Microarch, Platform};
pub use profiler::{profile_tlb_misses, MissProfile};
