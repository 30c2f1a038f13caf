//! `mosaic-bench`: the repeatable end-to-end and per-layer benchmark for
//! Mosaic. See README.md for the workloads, the metrics and how to run
//! and compare them.

mod battery;
mod compare;
mod json;
mod layers;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use spans::Tracer;

/// The benchmark's declaration: workloads, metrics, units, bounds.
/// Every metric a run prints must be declared here and vice versa.
pub const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// Where runs keep their scratch files and span dumps, relative to the
/// directory the benchmark runs from.
const OUTPUT_DIR: &str = "target/mosaic-bench";

/// The end-to-end metrics, each the median of its samples in a run.
const END_TO_END: [&str; 3] = ["setup_s", "round_s", "cold_ms"];

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["battery-tlb", "battery-light", "battery-sampled", "serve"];

/// Environment variables that would change what the library measures
/// behind the benchmark's back; a run clears them before it starts.
const HERMETIC_ENV: [&str; 2] = ["MOSAIC_SAMPLED", "MOSAIC_NO_DISK_CACHE"];

/// Settings of one workload run.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Battery workers, server workers and client connections.
    pub jobs: usize,
    /// This run's private scratch directory, removed at exit.
    pub scratch: PathBuf,
    /// The span dump a traced run writes.
    pub spans_path: PathBuf,
}

/// Counts and correctness verdicts a run accumulates.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Outcome {
    /// Records a correctness violation; the run will exit nonzero.
    pub fn violation(&mut self, what: String) {
        eprintln!("mosaic-bench: CHECK FAILED: {what}");
        self.violations.push(what);
    }
}

/// Timing samples by metric name.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// A reported metric: its value plus the samples behind it, if any.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric reported as the median of its samples.
    pub fn median(name: &str, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            value: if samples.is_empty() {
                f64::NAN
            } else {
                stats::median(samples)
            },
            samples: samples.to_vec(),
        }
    }

    /// A metric measured once.
    pub fn single(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            samples: Vec::new(),
        }
    }
}

/// SplitMix64: the seeded choices of a run (pair order, miss layouts,
/// request order). Trace contents never depend on it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6d6f_7361_6963_6265)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, the digest the battery pins use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The declared metrics of one kind (`end_to_end` or `per_layer`), as
/// `(name, unit)`.
pub fn declared(kind: &str) -> Vec<(String, String)> {
    let decl = json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
    decl.get(kind)
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `run_seconds` from the declaration: the default `--seconds`.
fn declared_seconds() -> f64 {
    json::parse(DECLARATION)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(10.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: mosaic-bench <workload|all> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--out <file.json>]\n       mosaic-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       mosaic-bench compare <base.json> <head.json>\nworkloads: battery-tlb battery-light battery-sampled serve";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: declared_seconds(),
        trace: false,
        out: None,
    };
    let mut i = 0;
    let value = |i: usize, flag: &str| -> Result<&String, String> {
        argv.get(i + 1).ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                args.workload = value(i, "--workload")?.clone();
                i += 1;
            }
            "--seed" => {
                args.seed = value(i, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                args.seconds = value(i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                i += 1;
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--out" => {
                args.out = Some(PathBuf::from(value(i, "--out")?));
                i += 1;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional if args.workload.is_empty() => args.workload = positional.to_string(),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
        i += 1;
    }
    if args.workload.is_empty() {
        return Err("no workload given".to_string());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, base, head] => compare::main(Path::new(base), Path::new(head)),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mosaic-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let (ok, line) = run_one(&args);
    if let Some(path) = &args.out {
        if let Err(e) = append_runs(
            path,
            vec![with_run_fields(line.clone(), &args.workload, &args)],
        ) {
            eprintln!("mosaic-bench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", line.render());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process; returns whether every check
/// passed and the run's one-line result.
fn run_one(args: &Args) -> (bool, Json) {
    for var in HERMETIC_ENV {
        std::env::remove_var(var);
    }
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let out_dir = Path::new(OUTPUT_DIR);
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        jobs,
        scratch: out_dir.join(format!("scratch-{}-{}", args.workload, std::process::id())),
        spans_path: out_dir.join(format!("{}-seed{}.spans.tsv", args.workload, args.seed)),
    };
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let metrics = match std::fs::create_dir_all(&params.scratch) {
        Ok(()) => run_workload(&args.workload, &params, &mut outcome),
        Err(e) => {
            outcome.violation(format!("cannot create {}: {e}", params.scratch.display()));
            Vec::new()
        }
    };
    let _ = std::fs::remove_dir_all(&params.scratch);
    check_declared(&metrics, params.trace, &mut outcome);
    // Peak RSS is informational only: with glibc's per-thread arenas it
    // lands on one of several plateaus depending on thread timing.
    eprintln!(
        "mosaic-bench: {} seed={} jobs={} wall={:.1}s peak_rss={:.1}MiB",
        args.workload,
        args.seed,
        jobs,
        started.elapsed().as_secs_f64(),
        peak_rss_mb().unwrap_or(f64::NAN)
    );
    print_metrics(&metrics);
    let ok = outcome.violations.is_empty() && outcome.failed == 0;
    (ok, result_line(&outcome, &metrics, ok))
}

/// What a workload run hands back: its end-to-end samples, the first
/// round's wall time, and the traced round's when tracing.
pub struct WorkloadRun {
    pub samples: Samples,
    pub first_round_s: f64,
    pub traced_round_s: Option<f64>,
}

/// Dispatches to the workload and assembles its metrics: the end-to-end
/// set untraced, the per-layer set traced.
fn run_workload(workload: &str, params: &Params, out: &mut Outcome) -> Vec<Metric> {
    let mut tracer = Tracer::new(params.trace);
    let (run, target) = match workload {
        "serve" => (serve::run(params, &mut tracer, out), &serve::TARGET),
        name => {
            let spec = battery::ALL
                .into_iter()
                .find(|s| s.name == name)
                .expect("workload names are validated");
            (battery::run(spec, params, &mut tracer, out), spec)
        }
    };
    if !params.trace {
        return END_TO_END
            .into_iter()
            .map(|name| Metric::median(name, run.samples.get(name)))
            .collect();
    }
    let round_s = stats::median(run.samples.get("round_s"));
    let mut metrics = layers::probe(target, params, &mut tracer, out);
    metrics.push(Metric::single(
        "harness.first_round_ratio",
        run.first_round_s / round_s,
    ));
    metrics.push(Metric::single(
        "bench.trace_overhead",
        run.traced_round_s.unwrap_or(f64::NAN) / round_s,
    ));
    if let Err(e) = tracer.write_tsv(&params.spans_path) {
        out.violation(format!("cannot write {}: {e}", params.spans_path.display()));
    }
    metrics
}

/// Fails the run unless it produced exactly the declared metric set,
/// every value a finite number.
fn check_declared(metrics: &[Metric], trace: bool, out: &mut Outcome) {
    let kind = if trace { "per_layer" } else { "end_to_end" };
    let want: Vec<String> = declared(kind).into_iter().map(|(n, _)| n).collect();
    for m in metrics {
        if !want.contains(&m.name) {
            out.violation(format!("metric {} is not declared in {kind}", m.name));
        } else if !m.value.is_finite() {
            out.violation(format!("metric {} has no value", m.name));
        }
    }
    for name in want {
        if !metrics.iter().any(|m| m.name == name) {
            out.violation(format!("declared {kind} metric {name} was not measured"));
        }
    }
}

fn unit_of(name: &str) -> String {
    ["end_to_end", "per_layer"]
        .into_iter()
        .flat_map(declared)
        .find(|(n, _)| n == name)
        .map_or_else(|| "?".to_string(), |(_, u)| u)
}

/// One `name value unit` line per metric, with the sample count,
/// quartiles and supported tail where there are samples.
fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let mut line = format!("{} {} {}", m.name, m.value, unit_of(&m.name));
        if !m.samples.is_empty() {
            let [q1, _, q3] = stats::quartiles(&m.samples);
            line.push_str(&format!("  n={} q1={q1:.6} q3={q3:.6}", m.samples.len()));
            if let Some((p, v)) = stats::tail(&m.samples) {
                line.push_str(&format!(" p{p}={v:.6}"));
            }
        }
        println!("{line}");
    }
}

/// The one-line result a run prints last: exactly `correct`,
/// `attempted`, `failed` and `metrics` (value and unit per metric).
fn result_line(out: &Outcome, metrics: &[Metric], ok: bool) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let fields = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(unit_of(&m.name))),
            ];
            (m.name.clone(), Json::Obj(fields))
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(ok)),
        // A run that could not start still reports one failed attempt.
        (
            "attempted".to_string(),
            Json::Num(out.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Num(out.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

/// The preset a workload runs at.
fn preset(workload: &str) -> &'static str {
    match workload {
        "serve" => serve::TARGET.speed.name,
        name => battery::ALL
            .into_iter()
            .find(|s| s.name == name)
            .map_or("?", |s| s.speed.name),
    }
}

/// Runs every workload, each in its own process (this executable
/// again), and collects their results.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("mosaic-bench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("mosaic-bench: cannot run {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        println!("== {workload}");
        for line in lines {
            println!("{line}");
        }
        ok &= output.status.success();
        match json::parse(last) {
            Ok(line) => results.push(with_run_fields(line, workload, args)),
            Err(e) => {
                eprintln!("mosaic-bench: {workload} printed no result ({e})");
                ok = false;
            }
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = append_runs(path, results) {
            eprintln!("mosaic-bench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Extends a child's one-line result with the run fields `--out` keeps.
fn with_run_fields(line: Json, workload: &str, args: &Args) -> Json {
    let Json::Obj(members) = line else {
        return line;
    };
    let mut fields = vec![
        ("workload".to_string(), Json::Str(workload.to_string())),
        (
            "preset".to_string(),
            Json::Str(preset(workload).to_string()),
        ),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
    ];
    fields.extend(members);
    Json::Obj(fields)
}

/// Appends runs to a result file (creating it with its header), so a
/// set of runs over several seeds accumulates in one file.
fn append_runs(path: &Path, new_runs: Vec<Json>) -> std::io::Result<()> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)
            .ok()
            .and_then(|d| d.get("runs").and_then(Json::as_array).map(<[Json]>::to_vec))
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "existing file is not a mosaic-bench result",
                )
            })?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    runs.extend(new_runs);
    // One run per line, so a result file diffs and greps line by line.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut text = format!(
        "{{\n  \"bench\": \"mosaic-bench\",\n  \"rev\": {},\n  \"nproc\": {nproc},\n  \"runs\": [\n",
        Json::Str(git_rev()).render()
    );
    for (i, run) in runs.iter().enumerate() {
        let sep = if i + 1 < runs.len() { "," } else { "" };
        text.push_str(&format!("    {}{sep}\n", run.render()));
    }
    text.push_str("  ]\n}\n");
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// The checked-out revision, `-dirty` when the tree has changes, or
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        }
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(kind: &str) -> Vec<String> {
        declared(kind).into_iter().map(|(n, _)| n).collect()
    }

    #[test]
    fn declared_names_and_units_are_well_formed() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let mut all: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        for kind in ["end_to_end", "per_layer"] {
            for (name, unit) in declared(kind) {
                assert!(name_ok(&name), "bad metric name {name:?}");
                assert!(
                    !unit.is_empty()
                        && unit.len() <= 16
                        && unit
                            .bytes()
                            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                    "bad unit {unit:?} for {name}"
                );
                all.push(name);
            }
        }
        for w in WORKLOADS {
            assert!(name_ok(w), "bad workload name {w:?}");
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
    }

    #[test]
    fn declaration_lists_exactly_the_workloads_the_bench_runs() {
        let decl = json::parse(DECLARATION).unwrap();
        let declared: Vec<&str> = decl
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(declared, WORKLOADS);
    }

    #[test]
    fn every_printed_metric_is_declared_and_vice_versa() {
        assert_eq!(names("end_to_end"), END_TO_END);

        let mut layer: Vec<String> = layers::METRICS.iter().map(|s| s.to_string()).collect();
        layer.push("harness.first_round_ratio".to_string());
        layer.push("bench.trace_overhead".to_string());
        layer.sort();
        let mut want = names("per_layer");
        want.sort();
        assert_eq!(want, layer);
    }

    #[test]
    fn the_result_line_has_exactly_four_keys() {
        let metrics = vec![Metric::median("round_s", &[1.0, 2.0, 3.0])];
        let line = result_line(&Outcome::default(), &metrics, true);
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.render(),
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"round_s": {"value": 2, "unit": "s"}}}"#
        );
    }

    #[test]
    fn args_accept_the_long_and_the_short_forms() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 7, 10.0, true)
        );
        let a = parse_args(&argv("battery-tlb --trace --seed 2")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("battery-tlb", 2, true)
        );
        assert!(parse_args(&argv("nope")).is_err());
        assert!(parse_args(&argv("all --seconds -1")).is_err());
    }

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
