//! The battery workloads: cold layout batteries built through
//! `harness::Grid`, the way `mosaic` builds them for a pair it has not
//! measured yet.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use harness::{BatteryMode, Grid, GridEntry, SampledConfig, Speed};
use machine::Platform;

use crate::spans::Tracer;
use crate::{fnv1a, Outcome, Params, Rng, Samples, WorkloadRun};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Timed rounds a run makes even when `--seconds` is shorter.
const MIN_ROUNDS: usize = 3;

/// The sampled workload's preset: a trace long enough for the
/// cold-split extrapolation to amortise the compulsory fills, so the
/// gate accepts at its 5% bound (the preset `mosaic bench` uses).
pub const SAMPLED_SPEED: Speed = Speed {
    name: "sampled-bench",
    footprint_div: 1 << 30,
    min_footprint: 2 << 20,
    accesses: 2_000_000,
    max_reps: 1,
};

/// Keep 1k of every 5k accesses (20%) under a 5% gate.
pub const SAMPLED_CFG: SampledConfig = SampledConfig {
    window: 1_000,
    period: 5_000,
    bound: 0.05,
};

/// One battery workload: which pairs a round builds, at which preset,
/// full or sampled.
pub struct BatterySpec {
    pub name: &'static str,
    pub speed: Speed,
    pub pairs: &'static [(&'static str, &'static Platform)],
    pub sampled: Option<SampledConfig>,
}

/// Translation-heavy pairs: replay dominates, trace generation is small.
pub const TLB: BatterySpec = BatterySpec {
    name: "battery-tlb",
    speed: Speed::FAST,
    pairs: &[
        ("gups/8GB", &Platform::SANDY_BRIDGE),
        ("xsbench/4GB", &Platform::SANDY_BRIDGE),
        ("spec06/mcf", &Platform::SANDY_BRIDGE),
    ],
    sampled: None,
};

/// Translation-light pairs on a different STLB shape: generation,
/// profiling and fan-out weigh more.
pub const LIGHT: BatterySpec = BatterySpec {
    name: "battery-light",
    speed: Speed::FAST,
    pairs: &[
        ("graph500/2GB", &Platform::HASWELL),
        ("gapbs/bfs-road", &Platform::HASWELL),
        ("spec17/xalancbmk_s", &Platform::HASWELL),
    ],
    sampled: None,
};

/// The interval-sampled path with its anchor gate.
pub const SAMPLED: BatterySpec = BatterySpec {
    name: "battery-sampled",
    speed: SAMPLED_SPEED,
    pairs: &[("gups/8GB", &Platform::SANDY_BRIDGE)],
    sampled: Some(SAMPLED_CFG),
};

pub const ALL: [&BatterySpec; 3] = [&TLB, &LIGHT, &SAMPLED];

/// Pinned FNV-1a digests of `GridEntry::to_tsv()`, one per
/// (workload, platform, preset, mode): a battery whose bytes move is a
/// different measurement, however fast it got.
const DIGESTS: &str = include_str!("../digests.tsv");

impl BatterySpec {
    /// A grid for one round: `cache` persists entries under
    /// `MOSAIC_CACHE_DIR` the way a first `mosaic` invocation does;
    /// otherwise the grid is in memory and every entry is cold.
    pub fn grid(&self, cache: bool, jobs: usize) -> Grid {
        let grid = if cache {
            Grid::new(self.speed)
        } else {
            Grid::in_memory(self.speed)
        };
        let grid = grid.with_jobs(jobs);
        match self.sampled {
            Some(cfg) => grid.with_sampled(cfg),
            None => grid,
        }
    }

    /// The digest-table mode column for this workload.
    pub fn mode_label(&self) -> String {
        match self.sampled {
            None => "full".to_string(),
            Some(cfg) => format!("sampled:{}:{}:{}", cfg.window, cfg.period, cfg.bound),
        }
    }
}

/// The pinned digest for a pair, if the table has one.
pub fn pinned_digest(workload: &str, platform: &str, preset: &str, mode: &str) -> Option<u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .find_map(|l| {
            let cols: Vec<&str> = l.split('\t').collect();
            (cols.len() == 5 && cols[..4] == [workload, platform, preset, mode])
                .then(|| u64::from_str_radix(cols[4], 16).ok())
                .flatten()
        })
}

/// Checks one built entry against its pin (and, when sampled, that the
/// gate accepted within its bound); returns the violation, if any.
pub fn check_entry(spec: &BatterySpec, entry: &GridEntry) -> Option<String> {
    let digest = fnv1a(entry.to_tsv().as_bytes());
    let mode = spec.mode_label();
    let pair = format!("{} on {}", entry.workload, entry.platform);
    match pinned_digest(&entry.workload, &entry.platform, spec.speed.name, &mode) {
        None => return Some(format!("{pair}: no pinned digest ({digest:016x})")),
        Some(pin) if pin != digest => {
            return Some(format!(
                "{pair}: battery digest {digest:016x} != pinned {pin:016x}"
            ))
        }
        Some(_) => {}
    }
    if let Some(cfg) = spec.sampled {
        let accepted = entry
            .gate
            .is_some_and(|g| g.accepted && g.max_rel_err <= cfg.bound);
        if !accepted || entry.mode != cfg.mode() {
            return Some(format!(
                "{pair}: sampled gate did not accept: {:?}",
                entry.gate
            ));
        }
    } else if entry.mode != BatteryMode::Full {
        return Some(format!("{pair}: full battery came back {:?}", entry.mode));
    }
    None
}

/// What one round took: its wall time and each pair's battery time.
pub struct Round {
    pub wall_s: f64,
    pub pair_ms: Vec<f64>,
}

/// Builds every pair of the workload once on `grid`, in an order the
/// seed picks, then checks every entry it built. A battery that panics
/// is counted failed and the round carries on with the next pair.
pub fn round(
    spec: &BatterySpec,
    grid: &Grid,
    rng: &mut Rng,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Round {
    let mut order: Vec<usize> = (0..spec.pairs.len()).collect();
    rng.shuffle(&mut order);
    let mut entries = Vec::with_capacity(order.len());
    let mut pair_ms = Vec::with_capacity(order.len());
    let started = Instant::now();
    for i in order {
        let (workload, platform) = spec.pairs[i];
        out.attempted += 1;
        let t = Instant::now();
        let built = tracer.span("round.grid_entry", 1, |_| {
            catch_unwind(AssertUnwindSafe(|| grid.entry(workload, platform)))
        });
        match built {
            Ok(entry) => {
                pair_ms.push(t.elapsed().as_secs_f64() * 1e3);
                entries.push(entry);
            }
            Err(_) => {
                out.failed += 1;
                out.violation(format!(
                    "battery for {workload} on {} panicked",
                    platform.name
                ));
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    for entry in &entries {
        if let Some(v) = check_entry(spec, entry) {
            out.failed += 1;
            out.violation(v);
        }
    }
    Round { wall_s, pair_ms }
}

/// Runs a battery workload: set-up, then untraced timed rounds for
/// `--seconds`, then (when tracing) one traced round.
pub fn run(
    spec: &BatterySpec,
    params: &Params,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> WorkloadRun {
    let mut rng = Rng::new(params.seed);
    let mut samples = Samples::default();
    let mut untraced = Tracer::new(false);

    // Set-up: the first cold battery of each pair, persisted to the
    // disk cache as a user's first invocation would. Each repetition
    // gets its own cache directory so every one of them is cold.
    let mut first_round_s = 0.0;
    for rep in 0..SETUP_REPS {
        std::env::set_var(
            "MOSAIC_CACHE_DIR",
            params.scratch.join(format!("setup-{rep}")),
        );
        let grid = spec.grid(true, params.jobs);
        let r = round(spec, &grid, &mut rng, &mut untraced, out);
        if rep == 0 {
            first_round_s = r.wall_s;
        }
        samples.push("setup_s", r.wall_s);
    }
    std::env::set_var("MOSAIC_CACHE_DIR", params.scratch.join("setup-0"));

    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < params.seconds {
        let grid = spec.grid(false, params.jobs);
        let r = round(spec, &grid, &mut rng, &mut untraced, out);
        samples.push("round_s", r.wall_s);
        for ms in &r.pair_ms {
            samples.push("cold_ms", *ms);
        }
        rounds += 1;
    }

    let traced_round_s = params.trace.then(|| {
        let grid = spec.grid(false, params.jobs);
        tracer
            .span("bench.round", spec.pairs.len() as u64, |t| {
                round(spec, &grid, &mut rng, t, out)
            })
            .wall_s
    });
    WorkloadRun {
        samples,
        first_round_s,
        traced_round_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pair_a_workload_names_has_a_pinned_digest() {
        for spec in ALL.into_iter().chain([&crate::serve::TARGET]) {
            for (workload, platform) in spec.pairs {
                assert!(
                    pinned_digest(workload, platform.name, spec.speed.name, &spec.mode_label())
                        .is_some(),
                    "{}: no digest for {workload} on {}",
                    spec.name,
                    platform.name
                );
            }
        }
    }
}
