//! Per-layer probes for a traced run. Each probe calls one layer's
//! public functions from outside, inside a span, on the workload's own
//! pairs and preset. The metrics come from those spans, from per-call
//! timings, and, for the server's stages, from its own `trace` verb.
//!
//! The battery decomposition rebuilds what `harness::MeasureContext`
//! keeps private (pool, trace length, FNV-1a seed of the workload name)
//! and replays the materialised trace through the engine. It asserts
//! that the replay reproduces every record of the harness's own battery
//! bit for bit, so the layer numbers describe the same work as the
//! end-to-end ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use harness::sampled::evaluate_gate;
use harness::{measure_layout, measure_layout_sampled, GridEntry, MachineVariant, MeasureContext};
use layouts::standard_battery;
use machine::{profile_tlb_misses, Engine, Platform};
use memsim::MemorySubsystem;
use mosalloc::{Mosalloc, MosallocConfig, PoolSpec};
use mosmodel::dataset::LayoutKind;
use mosmodel::ModelKind;
use recommend::{enumerate_candidates, parse_budget, DEFAULT_EXPLORE_STEPS};
use service::client::Client;
use service::registry::ModelRegistry;
use service::server::{self, Server, ServerConfig};
use vmcore::{MemoryLayout, PageSize, PmuCounters, Region, VirtAddr};
use workloads::{sampling, Access, TraceParams, WorkloadSpec};

use crate::battery::{BatterySpec, SAMPLED_CFG};
use crate::serve::{self, Conn, PAIR};
use crate::spans::Tracer;
use crate::{fnv1a, stats, Metric, Outcome, Params, Rng};

/// Every metric [`probe`] reports, in report order.
pub const METRICS: [&str; 31] = [
    "workloads.tracegen_ns_per_access",
    "workloads.windows_ns_per_kept",
    "workloads.regen_share",
    "machine.profile_ms",
    "machine.replay_ns_per_access",
    "memsim.translate_hit_ns",
    "memsim.walk_ns",
    "memsim.data_access_ns",
    "memsim.stlb_miss_per_access",
    "memsim.walk_cycles_per_access",
    "layouts.plan_ms",
    "harness.measure_ms_sum",
    "harness.cached_load_us",
    "harness.par_efficiency",
    "harness.gate_ms",
    "harness.sampled_speedup",
    "harness.anchor_err",
    "mosmodel.fit_ms",
    "mosmodel.lasso_fit_ms",
    "mosmodel.kfold_ms",
    "recommend.enumerate_ms",
    "recommend.candidates",
    "service.stage.fit_ms",
    "service.stage.simulate_ms",
    "service.stage.explore_ms",
    "service.stage.score_ms",
    "service.hit_us",
    "service.rtt_us",
    "service.hit_inproc_us",
    "service.pred_cache_hit_ratio",
    "service.hit_qps",
];

/// Iterations of each memsim kernel loop.
const KERNEL_ITERS: u64 = 200_000;
/// Loads of each pair from the disk cache the run's set-up wrote.
const CACHED_LOADS: usize = 20;
/// Misses the service probe sends; seeded apart from the run's seed so
/// every workload's probe asks the same questions.
const PROBE_MISSES: usize = 8;
const PROBE_SEED: u64 = 0x5e7e;
/// Round trips timed for the wire floor and the in-process hit.
const PROBE_CALLS: usize = 200;

/// Runs every probe and returns [`METRICS`] in order.
pub fn probe(
    target: &BatterySpec,
    params: &Params,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Metric> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let first = battery_layers(target, params, tracer, out, &mut m);
    memsim_kernels(tracer, &mut m);
    if let Some(entry) = first {
        model_layers(target, &entry, params, tracer, out, &mut m);
    }
    service_layers(params, tracer, out, &mut m);
    METRICS
        .iter()
        .map(|name| Metric::single(name, m.get(name).copied().unwrap_or(f64::NAN)))
        .collect()
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The heap pool `Mosalloc` builds for a layout, as the harness builds
/// it for each measurement.
fn mosalloc_for(pool: Region, layout: &MemoryLayout) -> Mosalloc {
    let mut brk = PoolSpec::plain(pool.len());
    for w in layout.windows() {
        let start = w.region.start().raw().saturating_sub(pool.start().raw());
        let end = w.region.end() - pool.start();
        brk = brk.with_window(start, end, w.size);
    }
    Mosalloc::new(MosallocConfig {
        brk,
        anon: PoolSpec::plain(64 << 20),
        file: PoolSpec::plain(64 << 20),
    })
    .expect("battery layouts are valid pool specs")
}

/// Replays the materialised trace for one layout. Sampled targets
/// replay the kept windows and extrapolate with the cold split: the
/// first half of the kept accesses is charged as is, the rest scaled to
/// the unreplayed remainder.
fn replay(
    target: &BatterySpec,
    platform: &Platform,
    trace: &[Access],
    mosalloc: &Mosalloc,
) -> PmuCounters {
    let page = |va: VirtAddr| mosalloc.page_size_at(va);
    let mut engine = Engine::new(platform);
    let Some(cfg) = target.sampled else {
        return engine.run(trace.iter().copied(), page);
    };
    let total = trace.len() as u64;
    let kept = sampling::kept_count(total, cfg.window, cfg.period);
    let warmup = kept / 2;
    let mut at_warmup = PmuCounters::default();
    let mut seen = 0;
    for access in sampling::windows(
        trace.iter().copied(),
        cfg.window as usize,
        cfg.period as usize,
    ) {
        engine.step(&access, &page);
        seen += 1;
        if seen == warmup {
            at_warmup = engine.counters();
        }
    }
    let end = engine.counters();
    let scale = |w: u64, e: u64| w + sampling::extrapolate(e - w, kept - warmup, total - warmup);
    PmuCounters {
        runtime_cycles: scale(at_warmup.runtime_cycles, end.runtime_cycles),
        stlb_hits: scale(at_warmup.stlb_hits, end.stlb_hits),
        stlb_misses: scale(at_warmup.stlb_misses, end.stlb_misses),
        walk_cycles: scale(at_warmup.walk_cycles, end.walk_cycles),
        instructions: scale(at_warmup.instructions, end.instructions),
        program_l1d_loads: scale(at_warmup.program_l1d_loads, end.program_l1d_loads),
        program_l2_loads: scale(at_warmup.program_l2_loads, end.program_l2_loads),
        program_l3_loads: scale(at_warmup.program_l3_loads, end.program_l3_loads),
        walker_l1d_loads: scale(at_warmup.walker_l1d_loads, end.walker_l1d_loads),
        walker_l2_loads: scale(at_warmup.walker_l2_loads, end.walker_l2_loads),
        walker_l3_loads: scale(at_warmup.walker_l3_loads, end.walker_l3_loads),
    }
}

/// What the per-pair battery probes add up across a target's pairs.
#[derive(Default)]
struct BatteryTotals {
    /// Trace-generation time × layouts: what regenerating the trace for
    /// every layout costs.
    regen_ns: f64,
    anchor_err: f64,
    accesses_4k: u64,
    misses_4k: u64,
    walk_cycles_4k: u64,
    first: Option<GridEntry>,
}

/// Decomposes one cold battery per pair into trace generation,
/// windowing, the profiling pass, layout planning, replay, the
/// harness's own per-layout measurement and the sampling gate. Returns
/// the first pair's entry for the model probes.
fn battery_layers(
    target: &BatterySpec,
    params: &Params,
    tracer: &mut Tracer,
    out: &mut Outcome,
    m: &mut BTreeMap<&'static str, f64>,
) -> Option<GridEntry> {
    let mut totals = BatteryTotals::default();
    for &(workload, platform) in target.pairs {
        tracer.span("bench.battery_probe", 1, |t| {
            probe_pair(target, workload, platform, params, t, out, &mut totals);
        });
    }

    let per = |name: &str| tracer.total_ns(name) as f64 / tracer.total_count(name).max(1) as f64;
    let measure_ns = tracer.total_ns("harness.measure") as f64;
    m.insert(
        "workloads.tracegen_ns_per_access",
        per("workloads.tracegen"),
    );
    m.insert("workloads.windows_ns_per_kept", per("workloads.windows"));
    m.insert("workloads.regen_share", totals.regen_ns / measure_ns);
    m.insert(
        "machine.profile_ms",
        ns_to_ms(tracer.total_ns("machine.profile")),
    );
    m.insert("machine.replay_ns_per_access", per("machine.replay"));
    let accesses = totals.accesses_4k as f64;
    m.insert(
        "memsim.stlb_miss_per_access",
        totals.misses_4k as f64 / accesses,
    );
    m.insert(
        "memsim.walk_cycles_per_access",
        totals.walk_cycles_4k as f64 / accesses,
    );
    m.insert("layouts.plan_ms", ns_to_ms(tracer.total_ns("layouts.plan")));
    m.insert("harness.measure_ms_sum", measure_ns / 1e6);
    m.insert("harness.cached_load_us", per("harness.cached_load") / 1e3);
    m.insert(
        "harness.par_efficiency",
        measure_ns / (params.jobs as f64 * tracer.total_ns("harness.grid_entry") as f64),
    );
    let full_ns = tracer.total_ns("harness.gate_full") as f64;
    let sampled_ns = tracer.total_ns("harness.gate_sampled") as f64;
    m.insert("harness.gate_ms", (full_ns + sampled_ns) / 1e6);
    m.insert("harness.sampled_speedup", full_ns / sampled_ns);
    m.insert("harness.anchor_err", totals.anchor_err);
    totals.first
}

fn probe_pair(
    target: &BatterySpec,
    workload: &str,
    platform: &'static Platform,
    params: &Params,
    tracer: &mut Tracer,
    out: &mut Outcome,
    totals: &mut BatteryTotals,
) {
    let spec = WorkloadSpec::by_name(workload).expect("registered workload");
    let ctx = MeasureContext::new(target.speed, workload).expect("registered workload");
    let pool = ctx.pool();
    let len = target.speed.trace_len(spec.access_factor);
    let tp = TraceParams::new(pool, len, fnv1a(workload.as_bytes()));
    let variant = MachineVariant::real(platform);

    let grid = target.grid(false, params.jobs);
    let entry = tracer.span("harness.grid_entry", 1, |_| grid.entry(workload, platform));

    let t = Instant::now();
    tracer.span("workloads.tracegen", len, |_| {
        black_box(spec.trace(&tp).fold(0u64, |h, a| h ^ a.addr.raw()))
    });
    let tracegen_ns = t.elapsed().as_nanos() as f64;
    let trace: Vec<Access> = spec.trace(&tp).collect();
    let (window, period) = (SAMPLED_CFG.window, SAMPLED_CFG.period);
    tracer.span(
        "workloads.windows",
        sampling::kept_count(len, window, period),
        |_| {
            let kept = sampling::windows(trace.iter().copied(), window as usize, period as usize);
            black_box(kept.fold(0u64, |h, a| h ^ a.addr.raw()))
        },
    );

    let profile = tracer.span("machine.profile", len, |_| {
        profile_tlb_misses(platform, trace.iter().copied(), pool, 2 << 20)
    });
    let planned: Vec<MemoryLayout> = tracer.span("layouts.plan", 1, |_| {
        let mut layouts: Vec<MemoryLayout> = standard_battery(pool, |x| profile.hot_region(x))
            .into_iter()
            .map(|p| p.layout)
            .collect();
        layouts.push(MemoryLayout::uniform(pool, PageSize::Huge1G));
        layouts
    });
    let same_plan = planned.len() == entry.records.len()
        && planned
            .iter()
            .zip(&entry.records)
            .all(|(l, r)| l.describe() == r.description);
    if !same_plan {
        out.violation(format!(
            "{workload}: the planned battery differs from the harness's"
        ));
        return;
    }

    let replayed = target
        .sampled
        .map_or(len, |cfg| sampling::kept_count(len, cfg.window, cfg.period));
    for (layout, record) in planned.iter().zip(&entry.records) {
        let mosalloc = mosalloc_for(pool, layout);
        let counters = tracer.span("machine.replay", replayed, |_| {
            replay(target, platform, &trace, &mosalloc)
        });
        if counters != record.counters {
            out.violation(format!(
                "{workload}: replaying {} gives {counters:?}, the battery recorded {:?}",
                record.description, record.counters
            ));
        }
    }
    for _ in 0..CACHED_LOADS {
        let cached = target.grid(true, params.jobs);
        let loaded = tracer.span("harness.cached_load", 1, |_| {
            cached.entry(workload, platform)
        });
        if cached.batteries_computed() != 0 || loaded != entry {
            out.violation(format!("{workload}: a cached load re-simulated or differs"));
        }
    }
    if let Some(r) = entry.record(LayoutKind::All4K) {
        totals.accesses_4k += len;
        totals.misses_4k += r.counters.stlb_misses;
        totals.walk_cycles_4k += r.counters.walk_cycles;
    }

    for (layout, record) in planned.iter().zip(&entry.records) {
        let measured = tracer.span("harness.measure", 1, |_| match target.sampled {
            Some(cfg) => measure_layout_sampled(&ctx, &variant, layout, cfg.window, cfg.period),
            None => measure_layout(&ctx, &variant, layout),
        });
        if measured != *record {
            out.violation(format!(
                "{workload}: measure_layout({}) differs from the battery record",
                record.description
            ));
        }
    }
    totals.regen_ns += tracegen_ns * planned.len() as f64;

    // The gate's anchors: the first all-4KB, first all-2MB and the
    // all-1GB layout. Full targets run the sampled workload's config.
    let cfg = target.sampled.unwrap_or(SAMPLED_CFG);
    let anchor_pairs: Vec<(PmuCounters, PmuCounters)> =
        [LayoutKind::All4K, LayoutKind::All2M, LayoutKind::All1G]
            .iter()
            .filter_map(|kind| entry.records.iter().position(|r| r.kind == *kind))
            .map(|i| {
                let layout = &planned[i];
                let full = tracer.span("harness.gate_full", 1, |_| {
                    measure_layout(&ctx, &variant, layout).counters
                });
                let sampled = tracer.span("harness.gate_sampled", 1, |_| {
                    measure_layout_sampled(&ctx, &variant, layout, cfg.window, cfg.period).counters
                });
                (full, sampled)
            })
            .collect();
    let gate = evaluate_gate(&anchor_pairs, cfg);
    totals.anchor_err = totals.anchor_err.max(gate.max_rel_err);
    if target.sampled.is_some() && Some(gate) != entry.gate {
        out.violation(format!(
            "{workload}: gate {gate:?} differs from the battery's {:?}",
            entry.gate
        ));
    }
    if totals.first.is_none() {
        totals.first = Some((*entry).clone());
    }
}

/// Times the `memsim` kernels `benches/components.rs` times, on fixed
/// inputs: a warm L1-TLB hit, a cold page walk, a random data access.
fn memsim_kernels(tracer: &mut Tracer, m: &mut BTreeMap<&'static str, f64>) {
    let mut vm = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
    let va = VirtAddr::new(0x1000_0000);
    vm.translate(va, PageSize::Base4K);
    tracer.span("memsim.translate_hit", KERNEL_ITERS, |_| {
        for _ in 0..KERNEL_ITERS {
            black_box(vm.translate(black_box(va), PageSize::Base4K));
        }
    });

    let mut vm = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
    tracer.span("memsim.walk", KERNEL_ITERS, |_| {
        // A 513-page stride defeats page-table node sharing: every
        // translation walks.
        for i in 0..KERNEL_ITERS {
            black_box(vm.translate(VirtAddr::new((i * 513) << 12), PageSize::Base4K));
        }
    });

    let mut vm = MemorySubsystem::new(&Platform::HASWELL);
    tracer.span("memsim.data_access", KERNEL_ITERS, |_| {
        let mut x = 1u64;
        for _ in 0..KERNEL_ITERS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            black_box(vm.data_access(VirtAddr::new(x % (512 << 20)), PageSize::Base4K));
        }
    });
    let per = |name: &str| tracer.total_ns(name) as f64 / tracer.total_count(name).max(1) as f64;
    m.insert("memsim.translate_hit_ns", per("memsim.translate_hit"));
    m.insert("memsim.walk_ns", per("memsim.walk"));
    m.insert("memsim.data_access_ns", per("memsim.data_access"));
}

/// Fits every model kind, runs the registry's K-fold CV and enumerates
/// recommendation candidates, all on the first pair of the target.
fn model_layers(
    target: &BatterySpec,
    entry: &GridEntry,
    params: &Params,
    tracer: &mut Tracer,
    out: &mut Outcome,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let (workload, platform) = target.pairs[0];
    let dataset = entry.dataset();
    let fitted = tracer.span("mosmodel.fit", ModelKind::ALL.len() as u64, |t| {
        ModelKind::ALL
            .into_iter()
            .filter(|kind| {
                if *kind == ModelKind::Mosmodel {
                    t.span("mosmodel.lasso_fit", 1, |_| kind.fit(&dataset).is_ok())
                } else {
                    kind.fit(&dataset).is_ok()
                }
            })
            .count()
    });
    if fitted == 0 {
        out.violation(format!("{workload}: no model kind fits the battery"));
    }

    // A fresh registry over the disk cache the run's set-up wrote: the
    // CV pays a cached load, never a battery.
    let registry = ModelRegistry::new(target.grid(true, params.jobs), None);
    let cv = tracer.span("mosmodel.kfold", 1, |_| {
        registry.cv_error(workload, platform)
    });
    if registry.grid().batteries_computed() != 0 || !cv.is_finite() {
        out.violation(format!("{workload}: K-fold CV gave {cv} or re-simulated"));
    }

    let pool = MeasureContext::new(target.speed, workload)
        .expect("registered workload")
        .pool();
    let pages = (pool.len() / (2 << 20)).clamp(1, 8);
    let candidates = match parse_budget(pool, &format!("{pages}x2m")) {
        Ok(budget) => tracer.span("recommend.enumerate", 1, |_| {
            enumerate_candidates(pool, &budget, DEFAULT_EXPLORE_STEPS).len()
        }),
        Err(e) => {
            out.violation(format!("{workload}: budget {pages}x2m: {e}"));
            0
        }
    };
    m.insert("mosmodel.fit_ms", ns_to_ms(tracer.total_ns("mosmodel.fit")));
    m.insert(
        "mosmodel.lasso_fit_ms",
        ns_to_ms(tracer.total_ns("mosmodel.lasso_fit")),
    );
    m.insert(
        "mosmodel.kfold_ms",
        ns_to_ms(tracer.total_ns("mosmodel.kfold")),
    );
    m.insert(
        "recommend.enumerate_ms",
        ns_to_ms(tracer.total_ns("recommend.enumerate")),
    );
    m.insert("recommend.candidates", candidates as f64);
}

/// The wall-domain traces of the last `n` requests, if they were `verb`
/// requests: span durations in ms by stage name. A predict leaves a
/// sim-domain trace too, hence the `2 * n`.
fn stage_ms(client: &mut Client, verb: &str, n: usize) -> Vec<BTreeMap<String, f64>> {
    let traces = client.trace(2 * n).map(|(t, _)| t).unwrap_or_default();
    traces
        .into_iter()
        .filter(|t| t.label == verb && t.domain == obs::ClockDomain::Wall)
        .map(|t| {
            t.spans
                .iter()
                .map(|s| (s.stage.clone(), s.ticks() as f64 / 1e3))
                .collect()
        })
        .collect()
}

/// Drives a fresh server for the serve pair through a cold predict,
/// misses, a cold recommend and hits, and reads the server's own stage
/// spans back through the `trace` verb.
fn service_layers(
    params: &Params,
    tracer: &mut Tracer,
    out: &mut Outcome,
    m: &mut BTreeMap<&'static str, f64>,
) {
    // The battery comes from the disk cache; build it there first if
    // this workload's set-up did not.
    serve::TARGET.grid(true, params.jobs).entry(PAIR.0, PAIR.1);
    let config = ServerConfig {
        workers: params.jobs,
        ..ServerConfig::default()
    };
    let registry = ModelRegistry::new(serve::TARGET.grid(true, params.jobs), None);
    let server = match Server::start(config, registry) {
        Ok(server) => server,
        Err(e) => {
            out.violation(format!("probe server start failed: {e}"));
            return;
        }
    };
    let (mut conn, mut client) =
        match (Conn::connect(server.addr()), Client::connect(server.addr())) {
            (Ok(conn), Ok(client)) => (conn, client),
            _ => {
                out.violation("probe cannot connect to its server".to_string());
                server.shutdown();
                return;
            }
        };

    tracer.span("service.predict_cold", 1, |_| {
        conn.ask(&serve::predict_line("4k"), "ok ", out)
    });
    let fit = stage_ms(&mut client, "predict", 1);
    let specs = serve::miss_specs(&mut Rng::new(PROBE_SEED), PROBE_MISSES);
    let mut replies = BTreeMap::new();
    tracer.span("service.predict_miss", PROBE_MISSES as u64, |_| {
        for spec in &specs {
            if let Some(r) = conn.ask(&serve::predict_line(spec), "ok ", out) {
                replies.insert(spec.clone(), r);
            }
        }
    });
    let misses = stage_ms(&mut client, "predict", PROBE_MISSES);
    tracer.span("service.recommend_cold", 1, |_| {
        conn.ask(&serve::recommend_line(), "rec ", out)
    });
    let rec = stage_ms(&mut client, "recommend", 1);

    tracer.span(
        "service.predict_hit_conns",
        serve::MULTI_HITS as u64,
        |_| {
            serve::concurrent_hits(server.addr(), params.jobs, &specs, &replies, out);
        },
    );
    let qps =
        serve::MULTI_HITS as f64 / (tracer.total_ns("service.predict_hit_conns") as f64 / 1e9);

    let hits = tracer.span("service.predict_hit", PROBE_CALLS as u64, |_| {
        timed_calls(|i| {
            let spec = &specs[i % specs.len()];
            if conn.ask(&serve::predict_line(spec), "ok ", out).as_ref() != replies.get(spec) {
                out.violation(format!("hit for {spec} differs from its miss"));
            }
        })
    });
    let rtt = tracer.span("service.pairs", PROBE_CALLS as u64, |_| {
        timed_calls(|_| {
            out.attempted += 1;
            if client.pairs().is_err() {
                out.failed += 1;
            }
        })
    });
    let inproc = tracer.span("service.predict_inproc", PROBE_CALLS as u64, |_| {
        timed_calls(|i| {
            let spec = &specs[i % specs.len()];
            if server::predict(server.registry(), PAIR.0, PAIR.1.name, spec, None).is_err() {
                out.violation(format!("in-process predict {spec} failed"));
            }
        })
    });
    let hit_ratio = client.stats().map_or(f64::NAN, |s| {
        s.cache.hits as f64 / (s.cache.hits + s.cache.misses).max(1) as f64
    });
    server.shutdown();

    let stage = |traces: &[BTreeMap<String, f64>], name: &str| {
        let xs: Vec<f64> = traces.iter().filter_map(|t| t.get(name).copied()).collect();
        if xs.is_empty() {
            f64::NAN
        } else {
            stats::median(&xs)
        }
    };
    m.insert("service.stage.fit_ms", stage(&fit, "fit"));
    m.insert("service.stage.simulate_ms", stage(&misses, "simulate"));
    m.insert("service.stage.explore_ms", stage(&rec, "explore"));
    m.insert("service.stage.score_ms", stage(&rec, "score"));
    m.insert("service.hit_us", stats::median(&hits));
    m.insert("service.rtt_us", stats::median(&rtt));
    m.insert("service.hit_inproc_us", stats::median(&inproc));
    m.insert("service.pred_cache_hit_ratio", hit_ratio);
    m.insert("service.hit_qps", qps);
}

/// Runs `call(i)` for `i` in `0..PROBE_CALLS` and returns each call's
/// wall time in µs.
fn timed_calls(mut call: impl FnMut(usize)) -> Vec<f64> {
    (0..PROBE_CALLS)
        .map(|i| {
            let t = Instant::now();
            call(i);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}
