//! `mosaic` — command-line driver for the reproduction study.
//!
//! ```text
//! mosaic list                          # workloads and platforms
//! mosaic run <workload> <platform>     # fit all nine models on one pair
//! mosaic figure <id|all> [--csv]       # a paper figure, table or ablation (harness::RESULTS)
//! mosaic sensitivity <platform>        # TLB sensitivity of every workload
//! mosaic serve [addr] [--warm <workload>:<platform>]... [--cache-cap <n>] [--jobs <n>] [--sampled[=<w>:<p>:<b>]]  # start mosaicd
//! mosaic query <addr> <workload> <platform> <layout-spec> [model]
//! mosaic query <addr> stats            # fetch server metrics
//! mosaic query <addr> pairs            # list the server's fitted pairs
//! mosaic recommend <addr> <workload> <platform> <budget> [threshold]  # ask for a layout
//! mosaic batch <addr> <request>...     # several requests on one wire line
//! mosaic metrics <addr>                # Prometheus text exposition scrape
//! mosaic trace <addr> [n]              # dump the last n request traces
//! ```
//!
//! `MOSAIC_FAST=1` selects the low-fidelity preset everywhere;
//! `MOSAIC_JOBS=<n>` caps the grid battery's worker threads (an explicit
//! `--jobs` wins, the default is the machine's available parallelism);
//! `MOSAIC_SAMPLED=1` (or `=<window>:<period>:<bound>`) turns on
//! validated interval-sampled grid builds (an explicit `--sampled` wins).

use harness::report::{pct, TextTable};
use harness::{casestudy, figures, Grid, Speed};
use machine::Platform;
use mosmodel::metrics::{geo_mean_err, max_err};
use mosmodel::models::ModelKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(args.get(1), args.get(2)),
        Some("figure") => cmd_figure(args.get(1)),
        Some("sensitivity") => cmd_sensitivity(args.get(1)),
        Some("export") => cmd_export(args.get(1), args.get(2)),
        Some("describe") => cmd_describe(args.get(1), args.get(2), args.get(3)),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("recommend") => cmd_recommend(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("metrics") => cmd_metrics(args.get(1)),
        Some("trace") => cmd_trace(args.get(1), args.get(2)),
        _ => {
            eprintln!(
                "usage: mosaic <list | run <workload> <platform> | figure <id> [--csv] | sensitivity <platform> | export <workload> <platform> | describe <workload> <platform> [model] | serve [addr] [--warm <workload>:<platform>]... [--cache-cap <n>] [--jobs <n>] [--sampled[=<w>:<p>:<b>]] | query <addr> ... | recommend <addr> <workload> <platform> <budget> [threshold] | batch <addr> <request>... | metrics <addr> | trace <addr> [n]>"
            );
            2
        }
    };
    std::process::exit(code);
}

fn cmd_list() -> i32 {
    println!("workloads (paper Table 5):");
    for w in workloads::registry() {
        println!(
            "  {:<22} {:>6} MiB nominal",
            w.name,
            w.nominal_footprint >> 20
        );
    }
    println!("\nplatforms (paper Tables 3-4; * = measured in the paper):");
    for p in Platform::ALL_EXTENDED {
        let starred = Platform::ALL.contains(&p);
        println!(
            "  {}{:<12} STLB {:>4} entries{}, {} walker(s), L3 {} MiB",
            if starred { "*" } else { " " },
            p.name,
            p.stlb.entries,
            if p.stlb.holds_2m {
                " (shared 4K/2M)"
            } else {
                " (4K only)"
            },
            p.walkers,
            p.l3_bytes >> 20,
        );
    }
    0
}

fn cmd_run(workload: Option<&String>, platform: Option<&String>) -> i32 {
    let Some(workload) = workload else {
        eprintln!("usage: mosaic run <workload> <platform>");
        return 2;
    };
    let default_platform = "SandyBridge".to_string();
    let platform_name = platform.unwrap_or(&default_platform);
    let Some(platform) = Platform::by_name(platform_name) else {
        eprintln!("unknown platform {platform_name:?}; see `mosaic list`");
        return 2;
    };
    if workloads::WorkloadSpec::by_name(workload).is_none() {
        eprintln!("unknown workload {workload:?}; see `mosaic list`");
        return 2;
    }
    let grid = Grid::new(Speed::from_env());
    let entry = grid.entry(workload, platform);
    let ds = entry.dataset();
    println!(
        "{workload} on {}: {} layouts measured, TLB sensitivity {}",
        platform.name,
        entry.records.len(),
        entry
            .full_dataset()
            .tlb_sensitivity()
            .map_or("n/a".to_string(), pct)
    );
    let mut t = TextTable::new(vec!["model".into(), "max err".into(), "geomean err".into()]);
    for kind in ModelKind::ALL {
        match kind.fit(&ds) {
            Ok(m) => t.row(vec![
                kind.name().into(),
                pct(max_err(&m, &ds)),
                pct(geo_mean_err(&m, &ds)),
            ]),
            Err(e) => t.row(vec![kind.name().into(), e.to_string(), String::new()]),
        };
    }
    println!("\n{t}");
    match casestudy::one_gb(&grid, workload, platform) {
        Ok(v) => println!("\n{v}"),
        Err(e) => println!("\n1GB case study unavailable: {e}"),
    }
    0
}

fn cmd_figure(which: Option<&String>) -> i32 {
    let default = "fig2".to_string();
    let what = which.unwrap_or(&default).clone();
    let csv = std::env::args().any(|a| a == "--csv");
    let grid = Grid::new(Speed::from_env());

    // CSV export is supported for the series figures.
    if csv {
        let curve = match what.as_str() {
            "fig3" => Some(figures::fig3(&grid).expect("anchors")),
            "fig8" => Some(figures::fig8(&grid).expect("anchors")),
            "fig10" => Some(figures::fig10(&grid).expect("anchors")),
            _ => None,
        };
        if let Some(c) = curve {
            print!("{}", c.to_csv());
            return 0;
        }
        if what == "fig5" || what == "fig6" {
            let stat = if what == "fig5" {
                figures::ErrorStat::Max
            } else {
                figures::ErrorStat::GeoMean
            };
            for (p, names) in figures::sensitive_by_platform(&grid) {
                println!("# {}", p.name);
                print!("{}", figures::error_matrix(&grid, p, &names, stat).to_csv());
            }
            return 0;
        }
        eprintln!("--csv supports fig3, fig5, fig6, fig8, fig10");
        return 2;
    }

    let mut matched = false;
    for (id, render) in harness::RESULTS {
        if what == "all" || what == *id {
            matched = true;
            print!("{}", render(&grid));
        }
    }
    if !matched {
        let ids: Vec<&str> = harness::RESULTS.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown figure {what:?}; try {} or all", ids.join(", "));
        return 2;
    }
    0
}

/// Dumps one pair's full battery as CSV (layout description, kind, and
/// every counter) for external analysis.
fn cmd_export(workload: Option<&String>, platform: Option<&String>) -> i32 {
    let (Some(workload), Some(platform_name)) = (workload, platform) else {
        eprintln!("usage: mosaic export <workload> <platform>");
        return 2;
    };
    let Some(platform) = Platform::by_name(platform_name) else {
        eprintln!("unknown platform {platform_name:?}");
        return 2;
    };
    if workloads::WorkloadSpec::by_name(workload).is_none() {
        eprintln!("unknown workload {workload:?}");
        return 2;
    }
    let grid = Grid::new(Speed::from_env());
    let entry = grid.entry(workload, platform);
    println!("kind,R,H,M,C,instructions,program_l1d,program_l2,program_l3,walker_l1d,walker_l2,walker_l3,layout");
    for r in &entry.records {
        let c = &r.counters;
        println!(
            "{:?},{},{},{},{},{},{},{},{},{},{},{},\"{}\"",
            r.kind,
            c.runtime_cycles,
            c.stlb_hits,
            c.stlb_misses,
            c.walk_cycles,
            c.instructions,
            c.program_l1d_loads,
            c.program_l2_loads,
            c.program_l3_loads,
            c.walker_l1d_loads,
            c.walker_l2_loads,
            c.walker_l3_loads,
            r.description.replace('"', "'"),
        );
    }
    0
}

/// Prints the fitted formula of one (or every) model for a pair.
fn cmd_describe(
    workload: Option<&String>,
    platform: Option<&String>,
    model: Option<&String>,
) -> i32 {
    let (Some(workload), Some(platform_name)) = (workload, platform) else {
        eprintln!("usage: mosaic describe <workload> <platform> [model]");
        return 2;
    };
    let Some(platform) = Platform::by_name(platform_name) else {
        eprintln!("unknown platform {platform_name:?}");
        return 2;
    };
    let grid = Grid::new(Speed::from_env());
    let ds = grid.dataset(workload, platform);
    let kinds: Vec<ModelKind> = match model {
        Some(m) => match m.parse() {
            Ok(kind) => vec![kind],
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        },
        None => ModelKind::ALL.to_vec(),
    };
    println!("fitted models for {workload} on {}:", platform.name);
    for kind in kinds {
        match kind.fit(&ds) {
            Ok(fitted) => println!("  {fitted}"),
            Err(e) => println!("  {}: {e}", kind.name()),
        }
    }
    0
}

fn cmd_sensitivity(platform: Option<&String>) -> i32 {
    let default_platform = "Broadwell".to_string();
    let platform_name = platform.unwrap_or(&default_platform);
    let Some(platform) = Platform::by_name(platform_name) else {
        eprintln!("unknown platform {platform_name:?}");
        return 2;
    };
    let grid = Grid::new(Speed::from_env());
    let mut t = TextTable::new(vec![
        "workload".into(),
        "sensitivity".into(),
        "included".into(),
    ]);
    for w in workloads::registry() {
        let entry = grid.entry(w.name, platform);
        let sens = entry.full_dataset().tlb_sensitivity().unwrap_or(0.0);
        t.row(vec![
            w.name.into(),
            pct(sens),
            if entry.is_tlb_sensitive() {
                "yes".into()
            } else {
                "no (< 5%)".into()
            },
        ]);
    }
    println!(
        "TLB sensitivity on {} (paper §VI-A threshold: 5%):\n\n{t}",
        platform.name
    );
    0
}

fn cmd_serve(args: &[String]) -> i32 {
    let usage = "usage: mosaic serve [addr] [--warm <workload>:<platform>]... [--cache-cap <n>] [--jobs <n>] [--sampled[=<w>:<p>:<b>]]";
    let mut addr = "127.0.0.1:7070".to_string();
    let mut positional_seen = false;
    let mut warm_pairs: Vec<(String, String)> = Vec::new();
    let mut cache_cap = service::registry::DEFAULT_PREDICTION_CACHE;
    let mut jobs: Option<usize> = None;
    // An explicit flag wins over the environment, so a service wrapper
    // that exports MOSAIC_SAMPLED can still be overridden per-launch.
    let mut sampled = harness::SampledConfig::from_env();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sampled" => sampled = Some(harness::DEFAULT_SAMPLED),
            spec if spec.starts_with("--sampled=") => {
                let text = &spec["--sampled=".len()..];
                match harness::SampledConfig::parse(text) {
                    Ok(cfg) => sampled = Some(cfg),
                    Err(e) => {
                        eprintln!("{usage} (--sampled: {e})");
                        return 2;
                    }
                }
            }
            "--cache-cap" => {
                let Some(text) = it.next() else {
                    eprintln!("{usage} (--cache-cap needs a number)");
                    return 2;
                };
                match text.parse::<usize>() {
                    Ok(n) => cache_cap = n,
                    Err(_) => {
                        eprintln!("{usage} (--cache-cap wants a number, got {text:?})");
                        return 2;
                    }
                }
            }
            "--jobs" => {
                let Some(text) = it.next() else {
                    eprintln!("{usage} (--jobs needs a number)");
                    return 2;
                };
                match text.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = Some(n),
                    _ => {
                        eprintln!("{usage} (--jobs wants a positive number, got {text:?})");
                        return 2;
                    }
                }
            }
            "--warm" => {
                let Some(pair) = it.next() else {
                    eprintln!("{usage} (--warm needs <workload>:<platform>)");
                    return 2;
                };
                // Workload names may contain '/' but not ':', so the
                // rightmost ':' splits unambiguously.
                let Some((workload, platform_name)) = pair.rsplit_once(':') else {
                    eprintln!("--warm wants <workload>:<platform>, got {pair:?}");
                    return 2;
                };
                if workloads::WorkloadSpec::by_name(workload).is_none() {
                    eprintln!("unknown workload {workload:?}; see `mosaic list`");
                    return 2;
                }
                let Some(platform) = Platform::by_name(platform_name) else {
                    eprintln!("unknown platform {platform_name:?}; see `mosaic list`");
                    return 2;
                };
                warm_pairs.push((workload.to_string(), platform.name.to_string()));
            }
            other if other.starts_with('-') => {
                eprintln!("{usage} (unknown flag {other:?})");
                return 2;
            }
            other => {
                if positional_seen {
                    eprintln!("{usage} (unexpected argument {other:?})");
                    return 2;
                }
                positional_seen = true;
                addr = other.to_string();
            }
        }
    }
    let speed = Speed::from_env();
    let store_dir = service::registry::ModelRegistry::default_store_dir();
    // `--jobs` (or MOSAIC_JOBS, or available parallelism) sets the grid's
    // battery fan-out, so every cold fit — including the `--warm` pre-fits
    // below — measures its layouts on that many worker threads.
    let resolved_jobs = harness::resolve_jobs(jobs);
    let mut grid = Grid::new(speed).with_jobs(resolved_jobs);
    if let Some(cfg) = sampled {
        grid = grid.with_sampled(cfg);
    }
    let registry = service::registry::ModelRegistry::with_cache_capacity(
        grid,
        Some(store_dir.clone()),
        cache_cap,
    );
    let config = service::server::ServerConfig {
        addr: addr.clone(),
        ..Default::default()
    };
    let server = match service::server::Server::start(config, registry) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("mosaicd: cannot listen on {addr}: {e}");
            return 1;
        }
    };
    let battery = match sampled {
        Some(cfg) => format!(
            "sampled {}:{} batteries gated at {}",
            cfg.window, cfg.period, cfg.bound
        ),
        None => "full batteries".to_string(),
    };
    println!(
        "mosaicd listening on {} ({} preset, {} battery jobs, {battery}, model store {})",
        server.addr(),
        speed.name,
        resolved_jobs,
        store_dir.display(),
    );
    // Pre-fit the requested pairs in the background, one `warm` request
    // per pair on its own connection: the registry's singleflight
    // fitting lets distinct pairs proceed in parallel while the server
    // is already accepting requests (a predict racing a warm for the
    // same pair simply coalesces onto the in-flight fit).
    let warm_addr = server.addr();
    for (workload, platform_name) in warm_pairs {
        std::thread::spawn(move || {
            let outcome = service::client::Client::connect(warm_addr)
                .and_then(|mut client| client.warm(&workload, &platform_name));
            match outcome {
                Ok(models) => {
                    println!("mosaicd: warmed {workload}:{platform_name} ({models} models)");
                }
                Err(e) => eprintln!("mosaicd: warm {workload}:{platform_name} failed: {e}"),
            }
        });
    }
    // Serve until the process is killed; workers own all the state.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_query(args: &[String]) -> i32 {
    let usage = "usage: mosaic query <addr> <workload> <platform> <layout-spec> [model] | mosaic query <addr> <stats | pairs>";
    let Some(addr) = args.first() else {
        eprintln!("{usage}");
        return 2;
    };
    let mut client = match service::client::Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("mosaic query: cannot reach {addr}: {e}");
            return 1;
        }
    };
    match &args[1..] {
        [word] if word == "stats" => match client.stats() {
            Ok(snap) => {
                println!("{}", snap.render());
                0
            }
            Err(e) => {
                eprintln!("mosaic query: {e}");
                1
            }
        },
        [word] if word == "pairs" => match client.pairs() {
            Ok(pairs) => {
                println!("{} pair(s) in the registry:", pairs.len());
                for p in &pairs {
                    let cv = if p.cv_err.is_finite() {
                        pct(p.cv_err)
                    } else {
                        "n/a".to_string()
                    };
                    println!(
                        "  {}:{} {} ({} models, CV error {})",
                        p.workload,
                        p.platform,
                        if p.ready { "ready" } else { "fitting" },
                        p.models,
                        cv,
                    );
                }
                0
            }
            Err(e) => {
                eprintln!("mosaic query: {e}");
                1
            }
        },
        [workload, platform, spec, rest @ ..] if rest.len() <= 1 => {
            let model = match rest.first() {
                None => None,
                Some(name) => match service::protocol::model_by_name(name) {
                    Some(kind) => Some(kind),
                    None => {
                        eprintln!(
                            "unknown model {name:?}; one of: {}",
                            model_names().join(" ")
                        );
                        return 2;
                    }
                },
            };
            match client.predict(workload, platform, spec, model) {
                Ok(p) => {
                    println!(
                        "measured  R={} H={} M={} C={}",
                        p.runtime_cycles, p.stlb_hits, p.stlb_misses, p.walk_cycles
                    );
                    println!(
                        "predicted R̂={:.0} cycles ({}; battery max err {}, geo mean {})",
                        p.predicted,
                        p.model.name(),
                        pct(p.max_err),
                        pct(p.geo_mean_err),
                    );
                    0
                }
                Err(e) => {
                    eprintln!("mosaic query: {e}");
                    1
                }
            }
        }
        _ => {
            eprintln!("{usage}");
            2
        }
    }
}

/// Asks a running mosaicd for a layout recommendation under a hugepage
/// budget (`64x2m+1x1g` grammar). Prints either the recommended layout
/// spec (ready to feed back into `mosaic query`) or, when the pair's CV
/// error exceeds the confidence threshold, the most informative layout
/// to measure next.
fn cmd_recommend(args: &[String]) -> i32 {
    let usage = "usage: mosaic recommend <addr> <workload> <platform> <budget> [threshold]";
    let [addr, workload, platform, budget, rest @ ..] = args else {
        eprintln!("{usage}");
        return 2;
    };
    let threshold = match rest {
        [] => None,
        [text] => match text.parse::<f64>() {
            Ok(t) => Some(t),
            Err(_) => {
                eprintln!("{usage} (threshold must be a number, got {text:?})");
                return 2;
            }
        },
        _ => {
            eprintln!("{usage}");
            return 2;
        }
    };
    let mut client = match service::client::Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("mosaic recommend: cannot reach {addr}: {e}");
            return 1;
        }
    };
    match client.recommend(workload, platform, budget, threshold) {
        Ok(reply) => {
            match reply.action {
                service::protocol::RecommendAction::Layout => {
                    println!(
                        "recommend {} (predicted {:.0} cycles; CV error {} <= threshold {})",
                        reply.spec,
                        reply.value,
                        pct(reply.cv_err),
                        pct(reply.threshold),
                    );
                    println!(
                        "run it:   mosaic query {addr} {workload} {platform} {}",
                        reply.spec
                    );
                }
                service::protocol::RecommendAction::Measure => {
                    println!(
                        "models not confident for {workload}:{platform} (CV error {} > threshold {})",
                        pct(reply.cv_err),
                        pct(reply.threshold),
                    );
                    println!(
                        "measure next: {} (model committee disagreement {})",
                        reply.spec,
                        pct(reply.value),
                    );
                }
            }
            0
        }
        Err(e) => {
            eprintln!("mosaic recommend: {e}");
            1
        }
    }
}

/// Sends several sub-requests as one `batch` wire line — one network
/// round trip instead of N — and prints each reply line in order. Quote
/// each sub-request so the shell passes it as one argument:
/// `mosaic batch 127.0.0.1:7070 'predict gups/8GB sandybridge 4k' stats`.
fn cmd_batch(args: &[String]) -> i32 {
    let usage = "usage: mosaic batch <addr> <request>...";
    let [addr, requests @ ..] = args else {
        eprintln!("{usage}");
        return 2;
    };
    if requests.is_empty() {
        eprintln!("{usage} (batch needs at least one request)");
        return 2;
    }
    let mut client = match service::client::Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("mosaic batch: cannot reach {addr}: {e}");
            return 1;
        }
    };
    let subs: Vec<&str> = requests.iter().map(String::as_str).collect();
    match client.batch(&subs) {
        Ok(replies) => {
            let mut failed = false;
            for (request, reply) in subs.iter().zip(&replies) {
                failed |= reply.starts_with("err ");
                println!("{request} -> {reply}");
            }
            i32::from(failed)
        }
        Err(e) => {
            eprintln!("mosaic batch: {e}");
            1
        }
    }
}

/// Scrapes the server's Prometheus exposition and prints it verbatim,
/// so `mosaic metrics <addr> > scrape.prom` matches what an HTTP
/// exporter bridge would serve.
fn cmd_metrics(addr: Option<&String>) -> i32 {
    let Some(addr) = addr else {
        eprintln!("usage: mosaic metrics <addr>");
        return 2;
    };
    let mut client = match service::client::Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("mosaic metrics: cannot reach {addr}: {e}");
            return 1;
        }
    };
    match client.metrics_text() {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(e) => {
            eprintln!("mosaic metrics: {e}");
            1
        }
    }
}

/// Dumps the server's most recent request traces (wall-domain spans in
/// µs, sim-domain spans in simulated cycles).
fn cmd_trace(addr: Option<&String>, count: Option<&String>) -> i32 {
    let usage = "usage: mosaic trace <addr> [n]";
    let Some(addr) = addr else {
        eprintln!("{usage}");
        return 2;
    };
    let n = match count {
        None => service::protocol::DEFAULT_TRACE_COUNT,
        Some(text) => match text.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("{usage} (count must be a number, got {text:?})");
                return 2;
            }
        },
    };
    let mut client = match service::client::Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("mosaic trace: cannot reach {addr}: {e}");
            return 1;
        }
    };
    match client.trace(n) {
        Ok((traces, dropped)) => {
            println!(
                "{} trace(s), {} dropped by the ring buffer",
                traces.len(),
                dropped
            );
            for trace in &traces {
                println!("{}", obs::render_trace(trace));
            }
            0
        }
        Err(e) => {
            eprintln!("mosaic trace: {e}");
            1
        }
    }
}

fn model_names() -> Vec<&'static str> {
    ModelKind::ALL.into_iter().map(ModelKind::name).collect()
}
