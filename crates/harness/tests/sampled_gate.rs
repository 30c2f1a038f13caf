//! End-to-end tests for validated interval-sampled batteries: the
//! sampled-vs-full cross-validation gate accepts an honest
//! configuration, refuses an adversarial one (falling back to the full
//! battery and recording the rejection), and the sampled pipeline is
//! byte-deterministic across runs and job counts.

use harness::sampled::evaluate_gate;
use harness::{
    measure_layout, measure_layout_sampled, BatteryMode, Grid, GridEntry, MachineVariant,
    MeasureContext, SampledConfig, Speed,
};
use machine::Platform;
use vmcore::{MemoryLayout, PageSize, PmuCounters};

/// A preset long enough for the cold-split extrapolation to amortize
/// the pool's compulsory fills (the 2MB pool is 32k cache lines; the
/// warmup prefix covers them many times over).
const ACCEPT_SPEED: Speed = Speed {
    name: "sampled-accept",
    footprint_div: 1 << 30,
    min_footprint: 2 << 20,
    accesses: 1_000_000,
    max_reps: 1,
};

/// A short preset for structural tests where gate accuracy is not the
/// point (entry marking, caching, determinism).
const TINY_SPEED: Speed = Speed {
    name: "sampled-tiny",
    footprint_div: 1 << 30,
    min_footprint: 2 << 20,
    accesses: 20_000,
    max_reps: 1,
};

/// The adversarial preset: spec06/mcf at a scale where a head-only
/// window sees a trace phase wildly unrepresentative of the whole run.
const ADVERSARIAL_SPEED: Speed = Speed {
    name: "sampled-adversarial",
    footprint_div: 2048,
    min_footprint: 48 << 20,
    accesses: 12_000,
    max_reps: 1,
};

#[test]
fn gate_accepts_gups_within_the_default_bound() {
    // Honest periodic sampling (half the trace, 1k-access windows) on
    // uniform-random gups: every anchor's every counter must land
    // within the default 5% bound. The simulator is deterministic, so
    // this is a stable property of the configuration, not a flaky
    // threshold.
    let cfg = SampledConfig {
        window: 1_000,
        period: 2_000,
        bound: 0.05,
    };
    let variant = MachineVariant::real(&Platform::SANDY_BRIDGE);
    let ctx = MeasureContext::new(ACCEPT_SPEED, "gups/8GB").expect("known workload");
    let pool = ctx.pool();
    let anchors = [
        MemoryLayout::all_4k(pool),
        MemoryLayout::uniform(pool, PageSize::Huge2M),
        MemoryLayout::uniform(pool, PageSize::Huge1G),
    ];
    let pairs: Vec<(PmuCounters, PmuCounters)> = anchors
        .iter()
        .map(|layout| {
            let full = measure_layout(&ctx, &variant, layout);
            let sampled = measure_layout_sampled(&ctx, &variant, layout, cfg.window, cfg.period);
            (full.counters, sampled.counters)
        })
        .collect();
    let report = evaluate_gate(&pairs, cfg);
    assert_eq!(report.anchors, 3);
    assert!(
        report.accepted,
        "honest sampling must pass the 5% gate: max_rel_err = {}",
        report.max_rel_err
    );
    assert!(report.max_rel_err <= cfg.bound);
    // The gate is not vacuous at this scale: extrapolation is close but
    // not exact.
    assert!(report.max_rel_err > 0.0, "sampled-vs-full cannot be exact");
}

#[test]
fn accepted_sampled_entries_are_marked_and_round_trip() {
    let cfg = SampledConfig {
        window: 1_000,
        period: 2_000,
        // Structural test: a loose bound guarantees acceptance at tiny
        // scale, where the transient dominates honest bounds.
        bound: 10.0,
    };
    let grid = Grid::in_memory(TINY_SPEED).with_sampled(cfg);
    let entry = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
    assert_eq!(
        entry.mode,
        BatteryMode::Sampled {
            window: 1_000,
            period: 2_000
        },
        "an accepted battery must be stamped sampled"
    );
    let gate = entry
        .gate
        .expect("sampled grids always carry a gate verdict");
    assert!(gate.accepted);
    assert_eq!(gate.anchors, 3);
    assert_eq!(grid.sampled_rejections(), 0);

    // The v4 cache header records the mode and the gate evidence, and
    // the full entry — mode and gate included — survives a round trip
    // through the persistence format.
    let tsv = entry.to_tsv();
    assert!(
        tsv.starts_with(
            "# mosaic-cache v4\n# mode sampled 1000 2000\n# gate accepted 1000 2000 10 "
        ),
        "sampled header must be self-describing, got:\n{}",
        tsv.lines().take(3).collect::<Vec<_>>().join("\n")
    );
    let reparsed = GridEntry::from_tsv(&entry.workload, &entry.platform, &tsv)
        .expect("rendered sampled entry must re-parse");
    assert_eq!(reparsed.mode, entry.mode);
    assert_eq!(reparsed.gate, entry.gate);
    assert_eq!(reparsed.records, entry.records);
}

#[test]
fn adversarial_head_window_is_rejected_and_falls_back_to_full() {
    // A "sampling" configuration whose period exceeds the trace keeps
    // only the head: it sees mcf's pointer-chase warmup phase and
    // nothing else, so its extrapolated counters are far off the full
    // run. The gate must refuse it, the battery must fall back to full
    // measurement, and the grid must count the rejection.
    let cfg = SampledConfig {
        window: 1_000,
        period: 1_000_000,
        bound: 0.05,
    };
    let sampled_grid = Grid::in_memory(ADVERSARIAL_SPEED).with_sampled(cfg);
    let entry = sampled_grid.entry("spec06/mcf", &Platform::SANDY_BRIDGE);

    let gate = entry
        .gate
        .expect("sampled grids always carry a gate verdict");
    assert!(
        !gate.accepted,
        "a head-only window must fail cross-validation: max_rel_err = {}",
        gate.max_rel_err
    );
    assert!(gate.max_rel_err > cfg.bound);
    assert_eq!(
        entry.mode,
        BatteryMode::Full,
        "a rejected battery must be full, not sampled"
    );
    assert_eq!(sampled_grid.sampled_rejections(), 1);

    // The fallback is the real thing: record-for-record identical to a
    // grid that never attempted sampling.
    let full_grid = Grid::in_memory(ADVERSARIAL_SPEED);
    let full = full_grid.entry("spec06/mcf", &Platform::SANDY_BRIDGE);
    assert_eq!(entry.records, full.records);
    assert_eq!(full_grid.sampled_rejections(), 0);
}

#[test]
fn sampled_batteries_are_byte_identical_across_runs_and_job_counts() {
    let cfg = SampledConfig {
        window: 1_000,
        period: 2_000,
        bound: 10.0,
    };
    let serial = Grid::in_memory(TINY_SPEED).with_sampled(cfg).with_jobs(1);
    let parallel = Grid::in_memory(TINY_SPEED).with_sampled(cfg).with_jobs(8);
    let rerun = Grid::in_memory(TINY_SPEED).with_sampled(cfg).with_jobs(8);

    let a = serial.entry("gups/8GB", &Platform::SANDY_BRIDGE);
    let b = parallel.entry("gups/8GB", &Platform::SANDY_BRIDGE);
    let c = rerun.entry("gups/8GB", &Platform::SANDY_BRIDGE);

    assert_eq!(a.mode, b.mode);
    assert!(matches!(a.mode, BatteryMode::Sampled { .. }));
    // The strongest form: the exact bytes the disk cache would receive
    // — gate line, records, cv bit patterns — agree for jobs=1 vs
    // jobs=8 and across independent runs.
    assert_eq!(
        a.to_tsv(),
        b.to_tsv(),
        "sampled grid TSV differs between jobs=1 and jobs=8"
    );
    assert_eq!(
        b.to_tsv(),
        c.to_tsv(),
        "sampled grid TSV differs between identical runs"
    );
}
