//! Validated interval-sampled grid builds.
//!
//! Full batteries replay every layout over the whole trace; this module
//! holds the policy side of the sampled alternative: a
//! [`SampledConfig`] selecting periodic trace windows (via
//! `workloads::sampling::windows`), and the **cross-validation gate**
//! the paper's methodology demands before partial simulation may feed a
//! model. The gate simulates the anchor layouts (all-4KB, all-2MB,
//! all-1GB) both sampled and full, compares every PMU counter, and only
//! admits the sampled battery when the worst relative error stays
//! within [`SampledConfig::bound`] — otherwise the grid falls back to
//! full measurement and records the rejection. Unvalidated sampling
//! silently destroys counter fidelity (SimPoint measured 80% average
//! error for blind sampling); the gate is what makes the 10x cheaper
//! battery trustworthy.
//!
//! The measurement side (replaying windows, integer extrapolation to
//! full-trace scale) lives in [`crate::experiment`] next to the full
//! battery; everything here is pure arithmetic over already-measured
//! counters, so the gate itself is trivially deterministic and
//! panic-free — it runs inside cold `warm`/`recommend` requests.

// Panicking shortcuts would kill the mosaicd worker running the gate.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use vmcore::PmuCounters;

/// How a grid entry's records were measured. Persisted in the
/// `# mosaic-cache` v4 header so a sampled entry can never be mistaken
/// for a full one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatteryMode {
    /// Every layout replayed the full trace.
    Full,
    /// Layouts replayed periodic windows (`window` kept out of every
    /// `period` accesses) and counters were extrapolated to full scale.
    Sampled {
        /// Accesses kept at the start of each period.
        window: u64,
        /// Length of each period.
        period: u64,
    },
}

/// Interval-sampling configuration for a [`crate::Grid`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledConfig {
    /// Accesses kept at the start of each period.
    pub window: u64,
    /// Length of each period; `window / period` is the sampled fraction.
    pub period: u64,
    /// Gate bound: the largest tolerated sampled-vs-full relative error
    /// on any PMU counter of any anchor layout.
    pub bound: f64,
}

/// Default sampling: keep 1k of every 10k accesses (10%), gate at 5%
/// counter error — the paper's own cross-validation threshold (§VI-A
/// uses 5% for its runtime-variation bound too).
pub const DEFAULT_SAMPLED: SampledConfig = SampledConfig {
    window: 1_000,
    period: 10_000,
    bound: 0.05,
};

impl SampledConfig {
    /// Parses a `<window>:<period>:<bound>` spec (the `--sampled=` flag
    /// and `MOSAIC_SAMPLED` formats), e.g. `"1000:10000:0.05"`.
    pub fn parse(spec: &str) -> Result<SampledConfig, String> {
        let mut parts = spec.split(':');
        let (Some(w), Some(p), Some(b), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("expected <window>:<period>:<bound>, got {spec:?}"));
        };
        let window = w
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("window {w:?} is not an integer"))?;
        let period = p
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("period {p:?} is not an integer"))?;
        let bound = b
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("bound {b:?} is not a number"))?;
        SampledConfig {
            window,
            period,
            bound,
        }
        .validated()
    }

    /// Rejects configurations [`workloads::sampling::windows`] or the
    /// gate cannot honor.
    pub fn validated(self) -> Result<SampledConfig, String> {
        if self.window == 0 {
            return Err("window must be at least 1".to_string());
        }
        if self.window > self.period {
            return Err(format!(
                "window {} larger than its period {}",
                self.window, self.period
            ));
        }
        if !(self.bound.is_finite() && self.bound > 0.0) {
            return Err(format!("bound {} is not a positive number", self.bound));
        }
        Ok(self)
    }

    /// Reads `MOSAIC_SAMPLED`: unset, empty, `0`, or `false` mean off;
    /// `1` or `true` select [`DEFAULT_SAMPLED`]; anything else is parsed
    /// as a `<window>:<period>:<bound>` spec. An unparsable spec is
    /// reported and ignored — a typo must not silently degrade a full
    /// grid into a sampled one or vice versa.
    pub fn from_env() -> Option<SampledConfig> {
        let raw = std::env::var("MOSAIC_SAMPLED").ok()?;
        match raw.trim() {
            "" | "0" | "false" => None,
            "1" | "true" => Some(DEFAULT_SAMPLED),
            spec => match SampledConfig::parse(spec) {
                Ok(cfg) => Some(cfg),
                Err(e) => {
                    eprintln!("mosaic: ignoring MOSAIC_SAMPLED ({e})");
                    None
                }
            },
        }
    }

    /// The [`BatteryMode`] an accepted sampled battery is stamped with.
    pub fn mode(&self) -> BatteryMode {
        BatteryMode::Sampled {
            window: self.window,
            period: self.period,
        }
    }
}

/// The gate's verdict for one battery, persisted alongside the entry:
/// either the evidence that sampling was safe for this pair, or the
/// record of why it was refused.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateReport {
    /// Sampling window the gate evaluated.
    pub window: u64,
    /// Sampling period the gate evaluated.
    pub period: u64,
    /// The bound the error was compared against.
    pub bound: f64,
    /// Worst per-counter relative error across all anchors.
    pub max_rel_err: f64,
    /// Number of anchor layouts cross-validated.
    pub anchors: u64,
    /// `max_rel_err <= bound`: whether the sampled battery was admitted.
    pub accepted: bool,
}

/// Denominator floor for the relative-error metric, as a fraction of
/// the full run's cycle count: counters smaller than 5% of
/// `runtime_cycles` are compared against that floor instead of their
/// own magnitude.
///
/// Why a floor at all: extrapolation multiplies a sampled counter by
/// `total / kept`, so a counter that *saturates* instead of scaling —
/// the compulsory sTLB misses of an all-2MB layout, the cold cache-line
/// fills any layout pays exactly once — lands up to `scale - 1` away
/// from its full value in strict relative terms (400% at 5x) while
/// being utterly irrelevant to the (H, M, C) → R fit. What the fit
/// predicts is `runtime_cycles`, so that is the natural yardstick: a
/// counter sitting at 5% of R can move the fit by at most the gate
/// bound itself even if it were 100% wrong, and anything the gate
/// tolerates under the floor is bounded by `bound × 5%` of R —
/// an order below Mosmodel's own ~3% error. Counters at or above the
/// floor (the hits, misses and walk cycles that steer the model) are
/// still held to the strict relative bound. The standard abstol+reltol
/// comparison, with the absolute term tied to the run's natural scale.
const REL_ERR_FLOOR: f64 = 0.05;

/// Relative error of one counter against the noise floor:
/// `|sampled - full| / max(full, floor)`.
fn rel_err(full: u64, sampled: u64, floor: f64) -> f64 {
    let f = full as f64;
    let s = sampled as f64;
    let denom = f.max(floor);
    if denom == 0.0 {
        // Zero instructions and a zero baseline: only an exact match
        // is error-free; any nonzero reading is 100% off.
        if sampled == full {
            return 0.0;
        }
        return 1.0;
    }
    ((s - f) / denom).abs()
}

/// Worst floored relative error across every PMU counter of one
/// layout. All 11 counters are checked — a sampling scheme that nails
/// runtime but misrepresents walk cycles would still poison the
/// (H, M, C) → R fit.
pub fn counter_rel_err(full: &PmuCounters, sampled: &PmuCounters) -> f64 {
    let floor = REL_ERR_FLOOR * full.runtime_cycles as f64;
    let pairs = [
        (full.runtime_cycles, sampled.runtime_cycles),
        (full.stlb_hits, sampled.stlb_hits),
        (full.stlb_misses, sampled.stlb_misses),
        (full.walk_cycles, sampled.walk_cycles),
        (full.instructions, sampled.instructions),
        (full.program_l1d_loads, sampled.program_l1d_loads),
        (full.program_l2_loads, sampled.program_l2_loads),
        (full.program_l3_loads, sampled.program_l3_loads),
        (full.walker_l1d_loads, sampled.walker_l1d_loads),
        (full.walker_l2_loads, sampled.walker_l2_loads),
        (full.walker_l3_loads, sampled.walker_l3_loads),
    ];
    pairs
        .iter()
        .map(|&(f, s)| rel_err(f, s, floor))
        .fold(0.0, f64::max)
}

/// Evaluates the gate over `(full, sampled)` anchor counter pairs: the
/// sampled battery is admitted only if **every** anchor's **every**
/// counter is within `cfg.bound` relative error. An empty anchor set is
/// rejected — no evidence is not acceptance.
pub fn evaluate_gate(anchors: &[(PmuCounters, PmuCounters)], cfg: SampledConfig) -> GateReport {
    let max_rel_err = anchors
        .iter()
        .map(|(f, s)| counter_rel_err(f, s))
        .fold(0.0, f64::max);
    GateReport {
        window: cfg.window,
        period: cfg.period,
        bound: cfg.bound,
        max_rel_err,
        anchors: anchors.len() as u64,
        accepted: !anchors.is_empty() && max_rel_err <= cfg.bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(runtime: u64, misses: u64) -> PmuCounters {
        PmuCounters {
            runtime_cycles: runtime,
            stlb_misses: misses,
            ..PmuCounters::default()
        }
    }

    #[test]
    fn parse_round_trips_the_flag_format() {
        let cfg = SampledConfig::parse("1000:10000:0.05").unwrap();
        assert_eq!(cfg, DEFAULT_SAMPLED);
        assert_eq!(
            cfg.mode(),
            BatteryMode::Sampled {
                window: 1000,
                period: 10_000
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "1000",
            "1000:10000",
            "1000:10000:0.05:x",
            "0:10:0.05",
            "20:10:0.05",
            "10:20:0",
            "10:20:-0.5",
            "10:20:inf",
            "a:10:0.05",
        ] {
            assert!(SampledConfig::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn rel_err_handles_zero_baselines() {
        // No floor: plain relative error, zero-baseline convention.
        assert_eq!(rel_err(0, 0, 0.0), 0.0);
        assert_eq!(rel_err(0, 5, 0.0), 1.0);
        assert_eq!(rel_err(100, 95, 0.0), 0.05);
        assert_eq!(rel_err(100, 100, 0.0), 0.0);
        // The floor takes over only below it: a 4-miss baseline blown up
        // to 24 is 20/1000 against the floor, not 500%.
        assert_eq!(rel_err(4, 24, 1000.0), 0.02);
        // Above the floor the metric is unchanged.
        assert_eq!(rel_err(2000, 1900, 1000.0), 0.05);
    }

    #[test]
    fn floor_tracks_the_runtime() {
        // A saturating counter (compulsory misses that extrapolation
        // multiplied by 6) passes when it is negligible against the
        // run's cycle count, and fails when it is not.
        let full = counters(1_000_000, 400);
        let sampled = counters(1_000_000, 2_400);
        let err = counter_rel_err(&full, &sampled);
        assert!(err < 0.05, "2k-of-a-million-cycles misses are noise: {err}");

        let full = counters(100_000, 400);
        let sampled = counters(100_000, 2_400);
        let err = counter_rel_err(&full, &sampled);
        assert!(err > 0.05, "2k-of-100k-cycles misses are signal: {err}");
    }

    #[test]
    fn gate_accepts_within_bound_and_rejects_outside() {
        let cfg = SampledConfig {
            window: 10,
            period: 100,
            bound: 0.05,
        };
        let close = vec![
            (counters(1_000_000, 500), counters(1_010_000, 510)),
            (counters(2_000_000, 0), counters(1_960_000, 0)),
        ];
        let report = evaluate_gate(&close, cfg);
        assert!(report.accepted, "2% error within a 5% bound: {report:?}");
        assert_eq!(report.anchors, 2);
        assert!(report.max_rel_err <= 0.05);

        // One bad counter on one anchor is enough to refuse.
        let off = vec![
            (counters(1_000_000, 500), counters(1_010_000, 510)),
            (counters(1_000_000, 500), counters(1_000_000, 200_000)),
        ];
        let report = evaluate_gate(&off, cfg);
        assert!(
            !report.accepted,
            "a 20%-of-runtime miss error must reject: {report:?}"
        );
        assert!(report.max_rel_err > 0.05);
    }

    #[test]
    fn gate_rejects_an_empty_anchor_set() {
        let report = evaluate_gate(&[], DEFAULT_SAMPLED);
        assert!(!report.accepted, "no evidence is not acceptance");
        assert_eq!(report.anchors, 0);
    }

    #[test]
    fn counter_rel_err_checks_every_field() {
        let full = counters(1_000, 100);
        let mut sampled = full;
        sampled.walker_l3_loads = 50; // full has 0 here
        assert_eq!(counter_rel_err(&full, &sampled), 1.0);
    }
}
