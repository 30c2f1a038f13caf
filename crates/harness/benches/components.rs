//! Component microbenchmarks: the simulator and regression building
//! blocks, measured in isolation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use harness::ablations::churn;
use machine::{Engine, Platform};
use memsim::{CacheGeometry, CacheTag, MemorySubsystem, SetAssocCache, Translation};
use mosalloc::FitPolicy;
use mosmodel::dataset::{Dataset, LayoutKind, Sample};
use mosmodel::lasso::fit_lasso;
use mosmodel::models::ModelKind;
use mosmodel::ols::fit_ols;
use mosmodel::poly::PolyFeatures;
use vmcore::{PageSize, Region, VirtAddr};
use workloads::{TraceParams, WorkloadSpec};

fn synthetic_dataset() -> Dataset {
    (0..54)
        .map(|i| {
            let c = 3e7 * i as f64;
            let kind = match i {
                0 => LayoutKind::All2M,
                53 => LayoutKind::All4K,
                _ => LayoutKind::Mixed,
            };
            Sample {
                r: 5e9 + 0.6 * c + 3e-10 * c * c,
                h: 1e4 + (i % 5) as f64,
                m: c / 90.0,
                c,
                kind,
            }
        })
        .collect()
}

fn bench_subsystem(c: &mut Criterion) {
    let mut group = c.benchmark_group("memsim");
    group.bench_function("translate_warm_l1_hit", |b| {
        let mut vm = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
        let va = VirtAddr::new(0x1000_0000);
        vm.translate(va, PageSize::Base4K);
        b.iter(|| black_box(vm.translate(va, PageSize::Base4K)));
    });
    group.bench_function("translate_walk_storm", |b| {
        let mut vm = MemorySubsystem::new(&Platform::BROADWELL);
        let mut page = 0u64;
        b.iter(|| {
            page = page.wrapping_add(0x9E37_79B9);
            let va = VirtAddr::new((page % (1 << 28)) << 12);
            black_box(vm.translate(va, PageSize::Base4K))
        });
    });
    group.bench_function("data_access_random", |b| {
        let mut vm = MemorySubsystem::new(&Platform::HASWELL);
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let va = VirtAddr::new(x % (512 << 20));
            black_box(vm.data_access(va, PageSize::Base4K))
        });
    });
    group.finish();
}

/// Set lookups per `cache_touch` iteration.
const TOUCH_BATCH: u64 = 4096;

/// Times `SetAssocCache::access` over pseudo-random tags drawn from a
/// hit-heavy span (at most half the capacity) and a miss-heavy one (at
/// least sixteen times the capacity). Spans are powers of two so that
/// drawing a tag costs a mask, not a division. The stream never repeats,
/// so the miss-heavy one keeps missing however long it runs.
fn bench_touch<T: CacheTag + TryFrom<u64>>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    geometry: CacheGeometry,
) {
    let entries = u64::from(geometry.entries);
    let hit_span = (entries / 2 + 1).next_power_of_two() / 2;
    let miss_span = (entries * 16).next_power_of_two();
    for (stream, span) in [("hits", hit_span), ("misses", miss_span)] {
        let mut cache = SetAssocCache::<T>::new(geometry);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        group.bench_function(format!("{name}/{stream}"), |b| {
            b.iter(|| {
                (0..TOUCH_BATCH)
                    .filter(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let tag = T::try_from((x >> 33) & (span - 1)).ok().expect("tag fits");
                        cache.access(tag)
                    })
                    .count()
            })
        });
    }
}

fn bench_cache_touch(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_touch");
    group.throughput(criterion::Throughput::Elements(TOUCH_BATCH));
    let l3_lines = u32::try_from(Platform::SANDY_BRIDGE.l3_bytes / 64).expect("L3 lines fit u32");
    bench_touch::<u64>(&mut group, "tlb_64x4way", CacheGeometry::new(64, 4));
    bench_touch::<u32>(&mut group, "l1d_512x8way", CacheGeometry::new(512, 8));
    bench_touch::<u32>(&mut group, "l2_4096x8way", CacheGeometry::new(4096, 8));
    bench_touch::<u32>(
        &mut group,
        "l3_sandybridge_20way",
        CacheGeometry::new(l3_lines, Platform::SANDY_BRIDGE.l3_ways),
    );
    bench_touch::<u64>(&mut group, "pde_32way_full", CacheGeometry::full(32));
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.throughput(criterion::Throughput::Elements(20_000));
    for platform in Platform::ALL {
        group.bench_function(format!("run_20k_gups_accesses/{}", platform.name), |b| {
            let spec = WorkloadSpec::by_name("gups/8GB").unwrap();
            let arena = Region::new(VirtAddr::new(0x1000_0000_0000), 256 << 20);
            b.iter(|| {
                let trace = spec.trace(&TraceParams::new(arena, 20_000, 7));
                Engine::new(platform).run(trace, |_| PageSize::Base4K)
            });
        });
    }
    group.finish();
}

fn bench_regression(c: &mut Criterion) {
    let data = synthetic_dataset();
    let mut group = c.benchmark_group("regression");
    group.bench_function("ols_poly3", |b| {
        b.iter(|| fit_ols(PolyFeatures::in_c(3), &data).unwrap())
    });
    group.bench_function("lasso_mosmodel_54_samples", |b| {
        b.iter(|| fit_lasso(PolyFeatures::mosmodel(), &data, 5).unwrap())
    });
    group.bench_function("closed_form_yaniv", |b| {
        b.iter(|| ModelKind::Yaniv.fit(&data).unwrap())
    });
    group.bench_function("kfold_mosmodel", |b| {
        b.iter(|| mosmodel::cv::k_fold(ModelKind::Mosmodel, &data, 6).unwrap())
    });
    group.finish();
}

fn bench_tracegen(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracegen");
    group.throughput(criterion::Throughput::Elements(10_000));
    let arena = Region::new(VirtAddr::new(0x1000_0000_0000), 256 << 20);
    for name in ["gups/8GB", "spec06/mcf", "gapbs/pr-twitter", "xsbench/4GB"] {
        let spec = WorkloadSpec::by_name(name).unwrap();
        group.bench_function(format!("10k/{}", name.replace('/', "_")), |b| {
            b.iter(|| {
                spec.trace(&TraceParams::new(arena, 10_000, 3))
                    .map(|a| a.addr.raw())
                    .sum::<u64>()
            })
        });
    }
    group.finish();
}

fn bench_walk_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("walker");
    let mut vm = MemorySubsystem::new(&Platform::SANDY_BRIDGE);
    // Measure the cost of cold walks specifically.
    let mut page = 0u64;
    group.bench_function("cold_walk_refs", |b| {
        b.iter(|| {
            page += 513; // skip PT-node sharing
            let va = VirtAddr::new(page << 12);
            match vm.translate(va, PageSize::Base4K) {
                Translation::Walk { info } => black_box(info.cycles),
                _ => 0,
            }
        })
    });
    group.finish();
}

/// Times the `ablation-fit-policy` churn under each pool policy (paper
/// §V: first fit for its runtime complexity).
fn bench_fit_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit_policy_churn");
    for policy in [FitPolicy::FirstFit, FitPolicy::BestFit, FitPolicy::WorstFit] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &p| b.iter(|| churn(p, 7)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_subsystem,
    bench_cache_touch,
    bench_engine,
    bench_regression,
    bench_tracegen,
    bench_walk_path,
    bench_fit_policy
);
criterion_main!(benches);
