//! The `serve` workload: mosaicd answering `predict` and `recommend`
//! for one pair whose battery is already in the disk cache, so the
//! request path (fit, K-fold CV, partial simulation, caches, the wire)
//! is measured without any battery work.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use harness::{MeasureContext, Speed};
use layouts::parse_spec;
use machine::Platform;
use service::protocol::{render_prediction, render_recommend};
use service::registry::ModelRegistry;
use service::server::{self, Server, ServerConfig};

use crate::battery::{check_entry, BatterySpec};
use crate::spans::Tracer;
use crate::{Outcome, Params, Rng, Samples, WorkloadRun};

/// The served pair.
pub const PAIR: (&str, &Platform) = ("gups/8GB", &Platform::SANDY_BRIDGE);

/// The served pair as a battery target, for set-up and the layer probes.
pub const TARGET: BatterySpec = BatterySpec {
    name: "serve",
    speed: Speed::FAST,
    pairs: &[PAIR],
    sampled: None,
};

const SETUP_REPS: usize = 3;
const MIN_ROUNDS: usize = 3;

/// The first request of a round; it pays the model fit.
const COLD_SPEC: &str = "4k";
/// Distinct-layout predicts per round: each one partial simulation.
const MISSES: usize = 24;
/// Misses per round re-checked against the in-process reference.
const CHECKED_MISSES: usize = 4;
/// Prediction-cache hits on one connection.
const SINGLE_HITS: usize = 500;
/// Recommendation-cache hits after the cold recommend.
const REC_HITS: usize = 100;
/// Prediction-cache hits spread over `jobs` closed-loop connections.
pub const MULTI_HITS: usize = 4000;
/// Hugepage budget of the recommend requests.
pub const BUDGET: &str = "8x2m";

/// One closed-loop connection speaking the line protocol: each request
/// goes out only after the previous reply came back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Sends one request line (with its newline) and returns the reply
    /// line without it.
    pub fn call(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches('\n'))
    }

    /// [`Conn::call`] that counts the attempt, and counts a transport
    /// error or a reply without `prefix` as failed.
    pub fn ask(&mut self, request: &str, prefix: &str, out: &mut Outcome) -> Option<String> {
        out.attempted += 1;
        match self.call(request) {
            Ok(reply) if reply.starts_with(prefix) => Some(reply.to_string()),
            Ok(reply) => {
                out.failed += 1;
                out.violation(format!("{} -> {reply}", request.trim_end()));
                None
            }
            Err(e) => {
                out.failed += 1;
                out.violation(format!("{} -> {e}", request.trim_end()));
                None
            }
        }
    }
}

pub fn predict_line(spec: &str) -> String {
    format!("predict {} {} {spec}\n", PAIR.0, PAIR.1.name)
}

pub fn recommend_line() -> String {
    format!("recommend {} {} {BUDGET}\n", PAIR.0, PAIR.1.name)
}

/// `n` distinct hugepage-window layout specs over the pair's pool, none
/// of them [`COLD_SPEC`], chosen by `rng`.
pub fn miss_specs(rng: &mut Rng, n: usize) -> Vec<String> {
    let pool = MeasureContext::new(TARGET.speed, PAIR.0)
        .expect("registered workload")
        .pool();
    let units = (pool.len() / (2 << 20)) as usize;
    let mut seen = BTreeMap::new();
    while seen.len() < n {
        let a = rng.below(units);
        let b = a + 1 + rng.below(units - a);
        let spec = format!("2m:{}M..{}M", a * 2, b * 2);
        if let Ok(layout) = parse_spec(pool, &spec) {
            seen.entry(layout.describe()).or_insert(spec);
        }
    }
    seen.into_values().collect()
}

/// A fresh server over a fresh registry with no model store; its grid
/// loads the pair's battery from the disk cache.
fn start_server(jobs: usize) -> io::Result<Server> {
    let config = ServerConfig {
        workers: jobs,
        ..ServerConfig::default()
    };
    Server::start(config, ModelRegistry::new(TARGET.grid(true, jobs), None))
}

/// Runs the serve workload: set-up, untraced rounds for `--seconds`,
/// then (when tracing) one traced round.
pub fn run(params: &Params, tracer: &mut Tracer, out: &mut Outcome) -> WorkloadRun {
    let mut rng = Rng::new(params.seed);
    let mut samples = Samples::default();

    // Set-up: the pair's battery into a fresh disk cache, the reference
    // registry the replies are checked against, and a server start.
    let mut reference = None;
    for rep in 0..SETUP_REPS {
        std::env::set_var(
            "MOSAIC_CACHE_DIR",
            params.scratch.join(format!("serve-{rep}")),
        );
        let t = Instant::now();
        out.attempted += 1;
        let entry = TARGET.grid(true, params.jobs).entry(PAIR.0, PAIR.1);
        let registry = ModelRegistry::new(TARGET.grid(true, params.jobs), None);
        let warmed = server::warm(&registry, PAIR.0, PAIR.1.name);
        let started = start_server(params.jobs);
        samples.push("setup_s", t.elapsed().as_secs_f64());
        if let Some(v) = check_entry(&TARGET, &entry) {
            out.failed += 1;
            out.violation(v);
        }
        match (warmed, started) {
            (Ok(_), Ok(server)) => server.shutdown(),
            (warmed, started) => {
                out.failed += 1;
                out.violation(format!(
                    "serve set-up failed: warm {:?}, start {:?}",
                    warmed.err(),
                    started.err().map(|e| e.to_string())
                ));
            }
        }
        reference = Some(registry);
    }
    let reference = reference.expect("at least one set-up repetition");

    let mut first_round_s = f64::NAN;
    let started = Instant::now();
    let mut rounds = 0;
    let mut untraced = Tracer::new(false);
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < params.seconds {
        let wall = round(
            &reference,
            params.jobs,
            &mut rng,
            &mut untraced,
            out,
            &mut samples,
        );
        if rounds == 0 {
            first_round_s = wall;
        }
        samples.push("round_s", wall);
        rounds += 1;
    }
    let traced_round_s = params.trace.then(|| {
        let mut scratch = Samples::default();
        tracer.span("bench.round", 1, |t| {
            round(&reference, params.jobs, &mut rng, t, out, &mut scratch)
        })
    });
    WorkloadRun {
        samples,
        first_round_s,
        traced_round_s,
    }
}

/// One serve round against a fresh server; returns the wall time of
/// its request mix. Replies are checked after the timed part.
fn round(
    reference: &ModelRegistry,
    jobs: usize,
    rng: &mut Rng,
    tracer: &mut Tracer,
    out: &mut Outcome,
    samples: &mut Samples,
) -> f64 {
    let server = match start_server(jobs) {
        Ok(server) => server,
        Err(e) => {
            out.failed += 1;
            out.violation(format!("server start failed: {e}"));
            return f64::NAN;
        }
    };
    let addr = server.addr();
    let specs = miss_specs(rng, MISSES);
    let mut hit_order: Vec<usize> = (0..SINGLE_HITS).map(|i| i % MISSES).collect();
    rng.shuffle(&mut hit_order);
    let mut replies: BTreeMap<String, String> = BTreeMap::new();
    let mut rec_reply = None;

    let started = Instant::now();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.violation(format!("connect refused: {e}"));
            server.shutdown();
            return f64::NAN;
        }
    };
    tracer.span("round.predict_cold", 1, |_| {
        if let Some(r) = conn.ask(&predict_line(COLD_SPEC), "ok ", out) {
            replies.insert(COLD_SPEC.to_string(), r);
        }
    });
    tracer.span("round.predict_miss", MISSES as u64, |_| {
        for spec in &specs {
            let t = Instant::now();
            if let Some(r) = conn.ask(&predict_line(spec), "ok ", out) {
                samples.push("cold_ms", t.elapsed().as_secs_f64() * 1e3);
                replies.insert(spec.clone(), r);
            }
        }
    });
    tracer.span("round.predict_hit", SINGLE_HITS as u64, |_| {
        for &i in &hit_order {
            if let Some(r) = conn.ask(&predict_line(&specs[i]), "ok ", out) {
                same_reply(&replies, &specs[i], &r, out);
            }
        }
    });
    tracer.span("round.recommend_cold", 1, |_| {
        rec_reply = conn.ask(&recommend_line(), "rec ", out);
    });
    tracer.span("round.recommend_hit", REC_HITS as u64, |_| {
        for _ in 0..REC_HITS {
            if let Some(r) = conn.ask(&recommend_line(), "rec ", out) {
                if Some(&r) != rec_reply.as_ref() {
                    out.violation(format!("recommend hit {r} differs from {rec_reply:?}"));
                }
            }
        }
    });
    tracer.span("round.predict_hit_conns", MULTI_HITS as u64, |_| {
        concurrent_hits(addr, jobs, &specs, &replies, out);
    });
    let wall = started.elapsed().as_secs_f64();

    // Checks, untimed: a few misses and the recommendation against the
    // in-process reference, and no battery work on the request path.
    for _ in 0..CHECKED_MISSES {
        let spec = &specs[rng.below(specs.len())];
        match server::predict(reference, PAIR.0, PAIR.1.name, spec, None) {
            Ok(p) => same_reply(&replies, spec, &render_prediction(&p), out),
            Err(e) => out.violation(format!("reference predict {spec}: {e}")),
        }
    }
    match server::recommend(reference, PAIR.0, PAIR.1.name, BUDGET, None) {
        Ok(r) if Some(render_recommend(&r)) == rec_reply => {}
        Ok(r) => out.violation(format!(
            "recommend {rec_reply:?} differs from reference {}",
            render_recommend(&r)
        )),
        Err(e) => out.violation(format!("reference recommend: {e}")),
    }
    if server.registry().grid().batteries_computed() != 0 {
        out.violation("the serve round simulated a battery".to_string());
    }
    server.shutdown();
    wall
}

/// Flags a reply that is not byte-equal to the first reply for `spec`.
fn same_reply(replies: &BTreeMap<String, String>, spec: &str, reply: &str, out: &mut Outcome) {
    if replies.get(spec).map(String::as_str) != Some(reply) {
        out.violation(format!(
            "reply for {spec} is {reply}, first reply was {:?}",
            replies.get(spec)
        ));
    }
}

/// [`MULTI_HITS`] cached predicts over `jobs` connections, each a closed
/// loop on its own thread; every reply must equal the miss reply.
pub fn concurrent_hits(
    addr: SocketAddr,
    jobs: usize,
    specs: &[String],
    replies: &BTreeMap<String, String>,
    out: &mut Outcome,
) {
    let per_conn = MULTI_HITS / jobs;
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|c| {
                scope.spawn(move || {
                    let mut local = Outcome::default();
                    let mut conn = match Conn::connect(addr) {
                        Ok(conn) => conn,
                        Err(e) => {
                            local.attempted += 1;
                            local.failed += 1;
                            local.violation(format!("connect refused: {e}"));
                            return local;
                        }
                    };
                    for i in 0..per_conn {
                        let spec = &specs[(i * jobs + c) % specs.len()];
                        if let Some(r) = conn.ask(&predict_line(spec), "ok ", &mut local) {
                            same_reply(replies, spec, &r, &mut local);
                        }
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load connection thread panicked"))
            .collect()
    });
    for local in outcomes {
        out.attempted += local.attempted;
        out.failed += local.failed;
        out.violations.extend(local.violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_specs_are_distinct_valid_and_seeded() {
        let a = miss_specs(&mut Rng::new(5), MISSES);
        assert_eq!(a.len(), MISSES);
        assert!(!a.iter().any(|s| s == COLD_SPEC));
        assert_eq!(a, miss_specs(&mut Rng::new(5), MISSES));
        assert_ne!(a, miss_specs(&mut Rng::new(6), MISSES));
    }
}
