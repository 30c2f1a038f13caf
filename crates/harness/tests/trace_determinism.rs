//! Sim-domain tracing invariants for `measure_layout_traced`.
//!
//! Sim-domain span timestamps are simulated cycles, which are a pure
//! function of (workload, platform, layout, speed) — so two identical runs
//! must render *byte-identical* traces, and turning the tracer on must not
//! perturb the measured counters by a single bit.

use harness::{measure_layout, measure_layout_traced, MachineVariant, MeasureContext, Speed};
use machine::Platform;
use obs::{render_trace, ClockDomain, SpanRecorder, Trace};
use vmcore::{MemoryLayout, PageSize, Region};

/// The same pinned triple as `golden_counters.rs`: gups/8GB on SandyBridge
/// with the first half of the pool backed by 2MB pages.
fn pinned_ctx_and_layout(speed: Speed) -> (MeasureContext, MemoryLayout) {
    let ctx = MeasureContext::new(speed, "gups/8GB").expect("known workload");
    let pool = ctx.pool();
    let half = Region::new(pool.start(), pool.len() / 2);
    let layout = MemoryLayout::builder(pool)
        .window(half, PageSize::Huge2M)
        .expect("2M-aligned half-pool window")
        .build()
        .expect("valid layout");
    (ctx, layout)
}

fn traced_run(speed: Speed, capacity: usize) -> (harness::RunRecord, SpanRecorder) {
    let (ctx, layout) = pinned_ctx_and_layout(speed);
    let variant = MachineVariant::real(&Platform::SANDY_BRIDGE);
    let mut rec = SpanRecorder::new(capacity);
    let record = measure_layout_traced(&ctx, &variant, &layout, Some(&mut rec));
    (record, rec)
}

fn render(rec: &SpanRecorder) -> String {
    render_trace(&Trace {
        seq: 0,
        label: "measure_layout".to_string(),
        domain: ClockDomain::Sim,
        dropped_spans: rec.dropped(),
        spans: rec.spans().to_vec(),
    })
}

#[test]
fn fast_traces_are_byte_identical_across_runs() {
    let (record_a, rec_a) = traced_run(Speed::FAST, 64);
    let (record_b, rec_b) = traced_run(Speed::FAST, 64);
    assert_eq!(rec_a.dropped(), 0, "64-span recorder must not drop");
    assert!(!rec_a.is_empty(), "tracer recorded no spans");
    let line_a = render(&rec_a);
    let line_b = render(&rec_b);
    assert_eq!(
        line_a, line_b,
        "identical FAST runs rendered different traces"
    );
    assert_eq!(
        record_a, record_b,
        "identical FAST runs measured differently"
    );

    // Every stage comes from the published sim-stage list, and timestamps
    // tie back to the deterministic counters: with FAST's single repetition
    // the replay span ends exactly at the measured runtime.
    for span in rec_a.spans() {
        assert!(
            harness::SIM_STAGES.contains(&span.stage.as_str()),
            "unexpected sim stage {:?}",
            span.stage
        );
    }
    let replay = rec_a
        .spans()
        .iter()
        .find(|s| s.stage == "replay")
        .expect("replay span present");
    assert_eq!(replay.start, 0);
    assert_eq!(replay.end, record_a.counters.runtime_cycles);
    let walk = rec_a
        .spans()
        .iter()
        .find(|s| s.stage == "page_walk")
        .expect("page_walk span present");
    assert_eq!(walk.ticks(), record_a.counters.walk_cycles);
}

#[test]
fn tracing_does_not_perturb_measurement() {
    let (ctx, layout) = pinned_ctx_and_layout(Speed::FAST);
    let variant = MachineVariant::real(&Platform::SANDY_BRIDGE);
    let untraced = measure_layout(&ctx, &variant, &layout);
    let (traced, _) = traced_run(Speed::FAST, 64);
    assert_eq!(
        untraced, traced,
        "enabling the tracer changed the measured record"
    );
}

#[test]
fn recorder_overflow_drops_instead_of_growing() {
    // FAST runs one repetition → three spans; a capacity-1 recorder must
    // keep exactly one and count the other two as dropped.
    let (_, rec) = traced_run(Speed::FAST, 1);
    assert_eq!(rec.len(), 1);
    assert_eq!(rec.dropped(), 2);
}

#[test]
fn span_count_is_per_repetition_not_per_access() {
    // Tracing costs one fixed set of span pushes per repetition, after
    // its replay: never one per access. Two presets with different trace
    // lengths and repetition counts (a `max_reps` of 1 or 2 always runs
    // exactly that many, since the CV check needs two runs) must record
    // the same `SIM_STAGES.len()` spans per repetition, none dropped.
    let short_twice = Speed {
        name: "short-twice",
        footprint_div: 1024,
        min_footprint: 48 << 20,
        accesses: 12_000,
        max_reps: 2,
    };
    for (speed, reps) in [(Speed::FAST, 1), (short_twice, 2)] {
        let (_, rec) = traced_run(speed, 64);
        assert_eq!(rec.dropped(), 0, "{}: spans dropped", speed.name);
        assert_eq!(
            rec.len(),
            harness::SIM_STAGES.len() * reps,
            "{}: span count must not depend on the trace length",
            speed.name
        );
    }
}
