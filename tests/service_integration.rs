//! mosaicd end-to-end: a real server on an ephemeral port, hammered by
//! concurrent clients, checked bit-for-bit against in-process
//! predictions, plus backpressure and persisted-store behaviour.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use harness::{Grid, MeasureContext, Speed};
use service::client::{Client, ClientError};
use service::metrics::ROWS;
use service::registry::ModelRegistry;
use service::server::{predict, Server, ServerConfig};

/// Low-fidelity preset so each battery fit takes seconds, not minutes.
const TINY: Speed = Speed {
    name: "tiny",
    footprint_div: 1024,
    min_footprint: 48 << 20,
    accesses: 12_000,
    max_reps: 1,
};

const WORKLOAD: &str = "gups/8GB";
const PLATFORM: &str = "sandybridge";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mosaicd-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_predictions_match_in_process_bit_for_bit() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 32; // 8 × 32 = 256 requests

    let registry = ModelRegistry::new(Grid::in_memory(TINY), None);
    let config = ServerConfig {
        workers: THREADS,
        queue_bound: 512,
        ..Default::default()
    };
    let server = Server::start(config, registry).unwrap();
    let addr = server.addr();

    // The ground truth: the same (workload, platform, spec) answered by
    // the in-process prediction path on the same registry. The layouts
    // stay inside the 48MB tiny pool.
    let specs = [
        "4k",
        "2m",
        "1g",
        "2m:0..8M",
        "2m:0..16M",
        "2m:8M..24M",
        "2m:16M..32M",
        "2m:0..32M",
    ];
    let expected: HashMap<&str, _> = specs
        .iter()
        .map(|&spec| {
            (
                spec,
                predict(server.registry(), WORKLOAD, PLATFORM, spec, None).unwrap(),
            )
        })
        .collect();

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..PER_THREAD {
                    let spec = specs[(thread * PER_THREAD + i) % specs.len()];
                    let got = client.predict(WORKLOAD, PLATFORM, spec, None).unwrap();
                    let want = &expected[spec];
                    assert_eq!(&got, want, "spec {spec} diverged over the wire");
                    assert_eq!(
                        got.predicted.to_bits(),
                        want.predicted.to_bits(),
                        "prediction for {spec} is not bit-identical"
                    );
                }
            });
        }
    });

    // The wire-level snapshot was taken before its own stats request was
    // recorded, so it sees exactly the 256 predictions.
    let mut client = Client::connect(addr).unwrap();
    let snap = client.stats().unwrap();
    assert_eq!(snap.requests, (THREADS * PER_THREAD) as u64);
    assert_eq!(snap.predicts, snap.requests);
    assert_eq!(snap.errors, 0);
    assert_eq!(snap.busy, 0);
    assert_eq!(snap.buckets.iter().sum::<u64>(), snap.requests);
    assert!(
        snap.buckets.iter().any(|&c| c > 0),
        "latency histogram is empty"
    );
    assert!(snap.percentile_us(50) > 0);

    // Error paths are answered (and counted) without killing the
    // connection.
    match client.predict("no-such-workload", PLATFORM, "2m", None) {
        Err(ClientError::Server(reason)) => assert!(reason.contains("unknown workload")),
        other => panic!("expected a server error, got {other:?}"),
    }
    match client.predict(WORKLOAD, "z80", "2m", None) {
        Err(ClientError::Server(reason)) => assert!(reason.contains("unknown platform")),
        other => panic!("expected a server error, got {other:?}"),
    }
    match client.predict(WORKLOAD, PLATFORM, "uniform?", None) {
        Err(ClientError::Server(reason)) => assert!(reason.contains("bad layout spec")),
        other => panic!("expected a server error, got {other:?}"),
    }
    assert_eq!(client.stats().unwrap().errors, 3);

    server.shutdown();
}

/// A pool of one worker, fed every kind of hostile input we can type:
/// malformed verbs, wrong arity, bad specs, raw binary, and (via the
/// `inject-panic` hook this server is configured with) a genuine
/// handler panic. If any of them killed the lone worker, every later
/// exchange would time out — so a passing run proves malformed requests
/// cannot drain the pool.
#[test]
fn hostile_requests_cannot_kill_the_worker_pool() {
    let config = ServerConfig {
        workers: 1,
        queue_bound: 16,
        inject_panic: true,
        ..Default::default()
    };
    let server = Server::start(config, ModelRegistry::new(Grid::in_memory(TINY), None)).unwrap();
    let addr = server.addr();

    // One connection per batch: the lone worker serves a persistent
    // connection until EOF, so each batch must be dropped before the
    // next is picked up.
    let exchange = |lines: &[&[u8]]| -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut replies = Vec::new();
        for &line in lines {
            writer.write_all(line).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut reply = String::new();
            if reader.read_line(&mut reply).is_ok() && !reply.is_empty() {
                replies.push(reply.trim_end().to_string());
            }
        }
        replies
    };

    let hostile: &[&[u8]] = &[
        b"predict",
        b"predict gups/8GB",
        b"frobnicate all the things",
        b"predict gups/8GB sandybridge not-a-spec",
        b"predict gups/8GB z80 2m",
        b"predict no-such-workload sandybridge 2m",
        b"predict gups/8GB sandybridge 2m bogus-model",
        b"stats now please",
        b"",
    ];
    let replies = exchange(hostile);
    assert_eq!(
        replies.len(),
        hostile.len(),
        "a hostile line went unanswered"
    );
    for (line, reply) in hostile.iter().zip(&replies) {
        assert!(
            reply.starts_with("err "),
            "hostile line {:?} got {reply:?}",
            String::from_utf8_lossy(line)
        );
    }

    // Raw binary garbage is not even valid UTF-8. The old plane closed
    // the whole persistent connection on the first such byte; now it is
    // answered like any other malformed request and the connection keeps
    // serving (the newline boundary already resyncs the stream).
    {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(&[0xff, 0xfe, 0x80, 0x00, b'\n']).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(
            reply.trim_end(),
            "err invalid utf-8",
            "binary garbage must be answered, not dropped"
        );
        writer.write_all(b"stats\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with("stats "),
            "connection did not survive binary garbage: {reply:?}"
        );
    }

    // A genuine panic inside request handling (configured fault
    // injection) is contained by the shield: the same connection gets an
    // `err internal` response and keeps working.
    let replies = exchange(&[b"inject-panic", b"stats"]);
    assert_eq!(replies.len(), 2, "worker died inside the panic shield");
    assert!(
        replies[0].starts_with("err internal"),
        "panic was not reported as a protocol error: {:?}",
        replies[0]
    );
    assert!(
        replies[1].starts_with("stats "),
        "worker unusable after panic"
    );

    // The one worker is still serving real predictions.
    let mut client = Client::connect(addr).unwrap();
    let p = client
        .predict(WORKLOAD, PLATFORM, "2m:0..8M", None)
        .unwrap();
    assert!(p.predicted.is_finite());
    let snap = client.stats().unwrap();
    // Every hostile line, the binary-garbage line, and the injected
    // panic each counted exactly one error.
    assert_eq!(
        snap.errors,
        hostile.len() as u64 + 2,
        "every hostile line counted"
    );
    server.shutdown();
}

/// A client that dribbles its request one byte at a time, slower than
/// the server's 100ms shutdown-poll read timeout, so the line straddles
/// several timeout windows. The server must accumulate the partial line
/// across those windows: discarding bytes already read before a timeout
/// truncates the request and mis-parses its tail as a garbage command.
#[test]
fn slow_writer_request_survives_read_timeout_windows() {
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::new(Grid::in_memory(TINY), None),
    )
    .unwrap();
    let addr = server.addr();

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    for &byte in b"stats\n" {
        writer.write_all(&[byte]).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.starts_with("stats "),
        "slow-written request was truncated: {reply:?}"
    );

    // The same connection keeps serving normally afterwards.
    writer.write_all(b"stats\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("stats "), "connection broken: {reply:?}");

    // No fragment of the dribbled line may have been parsed as its own
    // (garbage) request.
    let mut client = Client::connect(addr).unwrap();
    let snap = client.stats().unwrap();
    assert_eq!(
        snap.errors, 0,
        "a truncated fragment was parsed as a garbage request"
    );
    server.shutdown();
}

#[test]
fn second_server_reuses_persisted_model_store() {
    let dir = temp_dir("store");

    let first = Server::start(
        ServerConfig::default(),
        ModelRegistry::new(Grid::in_memory(TINY), Some(dir.clone())),
    )
    .unwrap();
    let mut client = Client::connect(first.addr()).unwrap();
    let fitted = client
        .predict(WORKLOAD, PLATFORM, "2m:0..16M", None)
        .unwrap();
    let counters = first.stats().registry;
    assert_eq!(
        (counters.misses, counters.disk_loads),
        (1, 0),
        "first start must fit"
    );
    first.shutdown();

    // A fresh server over the same store answers from disk: zero fitting
    // misses, and the prediction is bit-identical to the fitted one.
    let second = Server::start(
        ServerConfig::default(),
        ModelRegistry::new(Grid::in_memory(TINY), Some(dir.clone())),
    )
    .unwrap();
    let mut client = Client::connect(second.addr()).unwrap();
    let reloaded = client
        .predict(WORKLOAD, PLATFORM, "2m:0..16M", None)
        .unwrap();
    let counters = second.stats().registry;
    assert_eq!(
        (counters.misses, counters.disk_loads),
        (0, 1),
        "second start must load the persisted store instead of refitting"
    );
    assert_eq!(reloaded, fitted);
    assert_eq!(reloaded.predicted.to_bits(), fitted.predicted.to_bits());
    second.shutdown();

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The head-of-line-blocking regression test: while one pair's cold
/// model fit is in flight, requests for an already-warm pair (and
/// `stats`) must complete promptly. Under the old registry — which held
/// the global map lock across the whole fit — the warm predict below
/// blocked for the full fit duration, so the timing assertion hung this
/// test.
#[test]
fn cold_fit_does_not_block_warm_pairs() {
    const COLD_WORKLOAD: &str = "gups/16GB";

    let config = ServerConfig {
        workers: 2,
        ..Default::default()
    };
    let server = Server::start(config, ModelRegistry::new(Grid::in_memory(TINY), None)).unwrap();
    let addr = server.addr();

    // Warm pair A over the wire — the same verb `mosaic serve --warm`
    // issues — so its later predicts are pure measure+apply.
    let mut client = Client::connect(addr).unwrap();
    let models = client.warm(WORKLOAD, PLATFORM).unwrap();
    assert!(models >= 1, "warm must report the fitted models");

    // Kick off pair B's cold fit on its own connection/worker.
    let cold = std::thread::spawn(move || {
        let mut cold_client = Client::connect(addr).unwrap();
        cold_client
            .predict(COLD_WORKLOAD, PLATFORM, "2m:0..8M", None)
            .unwrap()
    });

    // Wait until the fit is actually in flight (the gauge rises before
    // the fit starts, so this cannot miss a fast fit's window entirely).
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.stats().unwrap().registry.fitting < 1 {
        assert!(
            Instant::now() < deadline,
            "cold fit never became visible in registry_fitting"
        );
        assert!(
            !cold.is_finished(),
            "cold fit finished before it was observed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // With the fit in flight, warm-pair traffic must not queue behind it.
    let started = Instant::now();
    let warm = client
        .predict(WORKLOAD, PLATFORM, "2m:0..8M", None)
        .unwrap();
    let snap = client.stats().unwrap();
    let elapsed = started.elapsed();
    assert!(warm.predicted.is_finite());
    assert!(
        elapsed < Duration::from_secs(5),
        "warm pair blocked behind the cold fit for {elapsed:?}"
    );
    assert!(
        snap.registry.fitting >= 1 || cold.is_finished(),
        "fitting gauge dropped while the fit was still running"
    );

    let cold_prediction = cold.join().expect("cold fit thread");
    assert!(cold_prediction.predicted.is_finite());
    let snap = client.stats().unwrap();
    assert_eq!(snap.registry.fitting, 0, "gauge must return to zero");
    assert_eq!(snap.registry.misses, 2, "exactly two fits: one per pair");
    server.shutdown();
}

/// Requests longer than the 64KiB cap are answered with an error and the
/// connection resynchronizes at the next newline instead of buffering
/// without bound (or mis-parsing the overflow's tail as new requests).
#[test]
fn oversized_request_line_is_rejected_and_resyncs() {
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::new(Grid::in_memory(TINY), None),
    )
    .unwrap();
    let addr = server.addr();

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // 100KiB with no newline: the server must refuse as soon as the cap
    // is crossed, without waiting for a line terminator.
    let giant = vec![b'a'; 100 * 1024];
    writer.write_all(&giant).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(
        reply.trim_end(),
        "err request too long (max 65536 bytes)",
        "oversized line not refused"
    );

    // Terminate the garbage; the very next line must parse normally and
    // the discarded tail must not surface as extra error responses.
    writer.write_all(b"\nstats\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.starts_with("stats "),
        "connection did not resync after overflow: {reply:?}"
    );

    // A second oversized line that *includes* its newline in one write
    // behaves the same: one error, then business as usual.
    let mut giant = vec![b'b'; (64 * 1024) + 1];
    giant.push(b'\n');
    writer.write_all(&giant).unwrap();
    writer.write_all(b"stats\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("err request too long"), "{reply:?}");
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("stats "), "{reply:?}");

    // Exactly two oversized-line errors were counted, nothing more —
    // in the dedicated `too_long` counter, and *not* in the latency
    // histogram (the old plane logged them as fake 0µs requests, which
    // dragged p50/p99 toward zero under a flood of garbage).
    let mut client = Client::connect(addr).unwrap();
    let snap = client.stats().unwrap();
    assert_eq!(snap.errors, 2, "overflow tails were parsed as requests");
    assert_eq!(snap.too_long, 2, "oversized lines must hit the counter");
    assert_eq!(
        snap.buckets.iter().sum::<u64>(),
        snap.requests - snap.too_long,
        "oversized lines must stay out of the latency histogram"
    );
    server.shutdown();
}

/// Cache hits must be indistinguishable from recomputation: the same
/// `(workload, platform, layout, model)` asked twice — including under a
/// different spec spelling of the same layout — renders byte-identical
/// responses, and the stats counters show the hit.
#[test]
fn cached_predictions_are_bit_identical_to_uncached() {
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::new(Grid::in_memory(TINY), None),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let first = client
        .predict(WORKLOAD, PLATFORM, "2m:0..16M", None)
        .unwrap();
    let second = client
        .predict(WORKLOAD, PLATFORM, "2m:0..16M", None)
        .unwrap();
    // The alias spells the same 16MiB window in 2MB pages ("2mb", K
    // suffix), so the canonical cache key coalesces it with the first.
    let aliased = client
        .predict(WORKLOAD, PLATFORM, "2mb:0..16384K", None)
        .unwrap();
    for (label, p) in [("repeat", &second), ("alias", &aliased)] {
        assert_eq!(p, &first, "{label} diverged from the uncached answer");
        assert_eq!(
            p.predicted.to_bits(),
            first.predicted.to_bits(),
            "{label} prediction is not bit-identical"
        );
        assert_eq!(
            service::protocol::render_prediction(p),
            service::protocol::render_prediction(&first),
            "{label} renders different bytes on the wire"
        );
    }

    let snap = client.stats().unwrap();
    assert_eq!(snap.cache.misses, 1, "only the first predict may simulate");
    assert_eq!(snap.cache.hits, 2, "repeat and alias must both hit");
    server.shutdown();
}

/// The tracing tentpole's service-level contract, both halves:
///
/// * **Deterministic**: two fresh servers given the same predict produce
///   byte-identical sim-domain traces — the spans are derived from
///   simulated cycle counts, so wall-clock jitter cannot reach them.
/// * **Bounded**: flooding a server whose trace ring holds 2 entries
///   never grows the ring; the overflow shows up in the drop counter
///   instead of in memory.
#[test]
fn traces_are_deterministic_and_bounded() {
    let sim_trace_lines = |tag: &str| -> Vec<String> {
        let server = Server::start(
            ServerConfig::default(),
            ModelRegistry::new(Grid::in_memory(TINY), None),
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client
            .predict(WORKLOAD, PLATFORM, "2m:0..16M", None)
            .unwrap();
        let (traces, dropped) = client.trace(16).unwrap();
        assert_eq!(dropped, 0, "{tag}: ring dropped traces under no load");
        let lines: Vec<String> = traces
            .iter()
            .filter(|t| t.domain == obs::ClockDomain::Sim)
            .map(obs::render_trace)
            .collect();
        assert!(!lines.is_empty(), "{tag}: predict left no sim-domain trace");
        server.shutdown();
        lines
    };

    let first = sim_trace_lines("first server");
    let second = sim_trace_lines("second server");
    assert_eq!(
        first, second,
        "identical FAST predicts must produce byte-identical sim-domain traces"
    );
    assert!(first[0].contains("domain=sim"), "{}", first[0]);
    assert!(
        first[0].contains("replay") && first[0].contains("page_walk"),
        "sim trace is missing the measure_layout stages: {}",
        first[0]
    );

    // Wall-domain traces exist for the same request but are *not*
    // required to be byte-identical — that's the whole point of the two
    // clock domains.
    let server = Server::start(
        ServerConfig {
            trace_capacity: 2,
            ..Default::default()
        },
        ModelRegistry::new(Grid::in_memory(TINY), None),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    const FLOOD: u64 = 8;
    for _ in 0..FLOOD {
        client.stats().unwrap();
    }
    let (traces, dropped) = client.trace(100).unwrap();
    assert!(
        traces.len() <= 2,
        "ring exceeded its capacity: {} traces",
        traces.len()
    );
    assert_eq!(
        dropped,
        FLOOD - 2,
        "every push beyond capacity must increment the drop counter"
    );
    server.shutdown();
}

/// The `metrics` verb end-to-end: the exposition covers every counter
/// the `stats` verb reports (plus the trace gauges and per-stage sums),
/// agrees with `stats` numerically, and the scraped text is a fixed
/// point of parse∘render.
#[test]
fn metrics_exposition_covers_stats_and_roundtrips() {
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::new(Grid::in_memory(TINY), None),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    client
        .predict(WORKLOAD, PLATFORM, "2m:0..8M", None)
        .unwrap();
    match client.predict("no-such-workload", PLATFORM, "2m", None) {
        Err(ClientError::Server(_)) => {}
        other => panic!("expected a server error, got {other:?}"),
    }

    // `stats` snapshots exclude the stats request itself (it is recorded
    // after its response is rendered), so the metrics report one request
    // later sees exactly one more.
    let snap = client.stats().unwrap();
    let report = client.metrics().unwrap();
    for row in ROWS {
        let later = u64::from(row.key == "requests");
        assert_eq!(
            (row.get)(&report.stats),
            (row.get)(&snap) + later,
            "{} disagrees between stats and metrics",
            row.key
        );
    }
    assert_eq!(
        report.stats.connections, 1,
        "exactly this client's connection is open"
    );
    assert_eq!(
        report.pred_cache_shard_lens.iter().sum::<u64>(),
        report.stats.pred_cache_len,
        "shard lengths must sum to the cache length"
    );
    assert!(report.traces_buffered > 0, "requests were traced");
    assert_eq!(report.trace_capacity, 256, "default ring capacity");

    // The predict's partial simulation landed in the sim-domain sums;
    // the request path landed in the wall-domain sums.
    assert!(
        report
            .sim_stages
            .iter()
            .any(|e| e.stage == "replay" && e.total_ticks > 0 && e.spans > 0),
        "no replay stage in {:?}",
        report.sim_stages
    );
    assert!(
        report
            .wall_stages
            .iter()
            .any(|e| e.stage == "parse" && e.spans > 0),
        "no parse stage in {:?}",
        report.wall_stages
    );

    // Raw scrape: self-framed, covers every stats counter by name, and
    // parse∘render reproduces it byte-for-byte.
    let text = client.metrics_text().unwrap();
    assert!(text.ends_with("# EOF\n"), "exposition is not self-framing");
    let parsed = service::prom::parse_metrics(&text).unwrap();
    for row in ROWS {
        let needle = format!("\n{} {}\n", row.name, (row.get)(&parsed.stats));
        assert!(text.contains(&needle), "exposition is missing {needle:?}");
    }
    for needle in [
        "mosaicd_prediction_cache_shard_len{shard=\"0\"}",
        "mosaicd_request_latency_us_bucket{le=\"50\"}",
        "mosaicd_request_latency_us_bucket{le=\"+Inf\"}",
        "mosaicd_request_latency_us_count ",
        "mosaicd_stage_ticks_total{domain=\"wall\",stage=\"read\"}",
        "mosaicd_stage_ticks_total{domain=\"sim\",stage=\"replay\"}",
        "mosaicd_stage_spans_total{domain=\"wall\",stage=\"render\"}",
        "mosaicd_traces_buffered ",
        "mosaicd_trace_capacity ",
        "mosaicd_traces_dropped_total ",
    ] {
        assert!(text.contains(needle), "exposition is missing {needle:?}");
    }
    assert_eq!(
        service::prom::render_metrics(&parsed),
        text,
        "scraped exposition is not a parse∘render fixed point"
    );
    server.shutdown();
}

/// The recommendation tentpole's determinism half: two independent
/// servers, fitted from scratch, answer the same `recommend` with
/// byte-identical wire lines. Candidate order is a pure function of
/// `(pool, budget, steps)`, scoring reuses the bit-exact simulate path,
/// and the K-fold CV error uses deterministic folds — so nothing about
/// the answer may depend on which process computed it.
#[test]
fn recommendations_are_byte_identical_across_independent_servers() {
    let wire_line = |tag: &str| -> String {
        let server = Server::start(
            ServerConfig::default(),
            ModelRegistry::new(Grid::in_memory(TINY), None),
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let reply = client.recommend(WORKLOAD, PLATFORM, "8x2m", None).unwrap();
        server.shutdown();
        // parse∘render is bit-exact, so re-rendering the parsed reply
        // reproduces the bytes the server put on the wire.
        let line = service::protocol::render_recommend(&reply);
        assert!(!line.is_empty(), "{tag}: empty recommend line");
        line
    };
    assert_eq!(
        wire_line("first server"),
        wire_line("second server"),
        "identical recommend requests must render byte-identical replies"
    );
}

/// The recommendation tentpole's grounding half plus both confidence
/// branches, the recommendation cache, and the `pairs` verb — all on
/// one server so the TINY battery is fitted once.
#[test]
fn recommendation_is_grounded_and_both_confidence_branches_fire() {
    const BUDGET: &str = "8x2m";

    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::new(Grid::in_memory(TINY), None),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Before any recommend, `pairs` reports the warmed pair as ready
    // with its CV error still unmeasured (NaN).
    client.warm(WORKLOAD, PLATFORM).unwrap();
    let pairs = client.pairs().unwrap();
    assert_eq!(pairs.len(), 1);
    assert_eq!(pairs[0].workload, WORKLOAD);
    assert!(pairs[0].ready, "warmed pair must be ready");
    assert!(pairs[0].models >= 1);
    assert!(
        pairs[0].cv_err.is_nan(),
        "CV error must be unmeasured before the first recommend, got {}",
        pairs[0].cv_err
    );

    // Confident branch: a huge threshold forces `action=layout` as long
    // as the CV error is finite, and the recommendation must be
    // *grounded* — its predicted runtime is the minimum over the whole
    // deterministic candidate set, bit-for-bit against the same predict
    // path a client could query directly.
    let confident = client
        .recommend(WORKLOAD, PLATFORM, BUDGET, Some(1e9))
        .unwrap();
    assert_eq!(
        confident.action,
        service::protocol::RecommendAction::Layout,
        "threshold 1e9 must take the confident branch"
    );
    assert!(confident.cv_err.is_finite());
    assert_eq!(confident.threshold.to_bits(), 1e9f64.to_bits());

    let pool = MeasureContext::new(TINY, WORKLOAD).unwrap().pool();
    let budget = recommend::parse_budget(pool, BUDGET).unwrap();
    let candidates =
        recommend::enumerate_candidates(pool, &budget, recommend::DEFAULT_EXPLORE_STEPS);
    assert!(!candidates.is_empty());
    let mut best = f64::INFINITY;
    for layout in &candidates {
        let spec = recommend::render_layout_spec(layout);
        let p = predict(server.registry(), WORKLOAD, PLATFORM, &spec, None).unwrap();
        assert!(
            confident.value <= p.predicted,
            "recommended layout ({}, {}) is beaten by candidate {spec} ({})",
            confident.spec,
            confident.value,
            p.predicted
        );
        best = best.min(p.predicted);
    }
    assert_eq!(
        confident.value.to_bits(),
        best.to_bits(),
        "recommended prediction must be the candidate minimum, bit-for-bit"
    );
    let replayed = predict(server.registry(), WORKLOAD, PLATFORM, &confident.spec, None).unwrap();
    assert_eq!(
        replayed.predicted.to_bits(),
        confident.value.to_bits(),
        "the recommended spec must re-predict to the reply's value"
    );

    // Active-learning branch: an unsatisfiable threshold means the
    // models may not be trusted, so the server returns the candidate
    // the committee disagrees about most instead of a layout to run.
    let measure = client
        .recommend(WORKLOAD, PLATFORM, BUDGET, Some(-1.0))
        .unwrap();
    assert_eq!(
        measure.action,
        service::protocol::RecommendAction::Measure,
        "threshold -1.0 must take the measure branch"
    );
    assert!(measure.value.is_finite() && measure.value >= 0.0);
    assert!(
        candidates
            .iter()
            .any(|l| recommend::render_layout_spec(l) == measure.spec),
        "measure target {} is not a candidate",
        measure.spec
    );

    // The recommendation cache: an exact repeat hits, and so does an
    // aliased spelling of the same inventory (the key carries the
    // canonical budget).
    let repeat = client
        .recommend(WORKLOAD, PLATFORM, BUDGET, Some(1e9))
        .unwrap();
    assert_eq!(repeat, confident, "cached reply diverged");
    let aliased = client
        .recommend(WORKLOAD, PLATFORM, "4x2m+4x2m", Some(1e9))
        .unwrap();
    assert_eq!(aliased, confident, "aliased budget must share the entry");

    let snap = client.stats().unwrap();
    assert_eq!(snap.recommends, 4, "every recommend request counted");
    assert_eq!(snap.rec_cache.misses, 2, "two distinct keys computed");
    assert_eq!(snap.rec_cache.hits, 2, "repeat and alias must both hit");
    assert!(
        snap.pred_cache_len > 0,
        "candidate scoring must warm the prediction cache"
    );

    // A malformed and a pool-exceeding budget are protocol errors, not
    // worker deaths.
    for bad in ["8z2m", "1000000x1g"] {
        match client.recommend(WORKLOAD, PLATFORM, bad, None) {
            Err(ClientError::Server(_)) => {}
            other => panic!("budget {bad:?}: expected a server error, got {other:?}"),
        }
    }

    // After recommending, the pair's memoized CV error is visible.
    let pairs = client.pairs().unwrap();
    assert_eq!(pairs.len(), 1);
    assert!(
        pairs[0].cv_err.is_finite(),
        "CV error must be memoized after a recommend"
    );
    assert_eq!(pairs[0].cv_err.to_bits(), confident.cv_err.to_bits());
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_busy_and_shutdown_drains() {
    const QUEUE_BOUND: usize = 2;

    // One worker, tiny queue: a single held connection occupies the
    // worker, so admissions beyond the bound must be turned away.
    let config = ServerConfig {
        workers: 1,
        queue_bound: QUEUE_BOUND,
        ..Default::default()
    };
    let server = Server::start(config, ModelRegistry::new(Grid::in_memory(TINY), None)).unwrap();
    let addr = server.addr();

    // A successful roundtrip proves the worker owns this connection.
    let mut holder = Client::connect(addr).unwrap();
    holder.stats().unwrap();

    // Fill the admission queue, then wait until the acceptor has
    // actually queued both connections.
    let queued: Vec<TcpStream> = (0..QUEUE_BOUND)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while holder.stats().unwrap().queue_depth < QUEUE_BOUND as u64 {
        assert!(
            Instant::now() < deadline,
            "acceptor never queued the connections"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Every connection beyond the bound is answered `busy` and closed.
    for i in 0..4 {
        let stream = TcpStream::connect(addr).unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert_eq!(
            line.trim_end(),
            "busy",
            "burst connection {i} was not rejected"
        );
    }
    let snap = holder.stats().unwrap();
    assert_eq!(snap.busy, 4);
    assert_eq!(snap.queue_depth, QUEUE_BOUND as u64);

    // Requests already pipelined on the queued connections are in
    // flight; graceful shutdown must answer them before exiting.
    for mut stream in &queued {
        stream.write_all(b"stats\n").unwrap();
        stream.flush().unwrap();
    }
    server.shutdown();

    for stream in queued {
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert!(
            line.starts_with("stats "),
            "queued request was dropped during shutdown: {line:?}"
        );
    }
}

/// A rejected client that trickles bytes after its `busy` must not hold
/// the acceptor: the drain is bounded by reads, so the next rejected
/// client is answered promptly. When the drain counted bytes instead, a
/// byte every 2 ms kept the acceptor reading for the whole 5 s.
#[test]
fn trickling_busy_client_does_not_stall_the_acceptor() {
    let config = ServerConfig {
        workers: 1,
        queue_bound: 1,
        ..Default::default()
    };
    let server = Server::start(config, ModelRegistry::new(Grid::in_memory(TINY), None)).unwrap();
    let addr = server.addr();

    // One held connection owns the worker, one more fills the queue.
    let mut holder = Client::connect(addr).unwrap();
    holder.stats().unwrap();
    let _queued = TcpStream::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while holder.stats().unwrap().queue_depth < 1 {
        assert!(
            Instant::now() < deadline,
            "acceptor never queued the connection"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The trickler reads its `busy`, then writes one byte every 2 ms for
    // 5 s, or until the server has closed the connection.
    let mut trickler = TcpStream::connect(addr).unwrap();
    let mut line = String::new();
    BufReader::new(trickler.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert_eq!(line.trim_end(), "busy");
    let trickle = std::thread::spawn(move || {
        let until = Instant::now() + Duration::from_secs(5);
        while Instant::now() < until && trickler.write_all(b"x").is_ok() {
            std::thread::sleep(Duration::from_millis(2));
        }
    });

    let next = TcpStream::connect(addr).unwrap();
    next.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut line = String::new();
    BufReader::new(next).read_line(&mut line).unwrap();
    let waited = started.elapsed();
    assert_eq!(line.trim_end(), "busy");
    assert!(
        waited < Duration::from_secs(2),
        "the trickling client held the acceptor for {waited:?}"
    );

    trickle.join().unwrap();
    server.shutdown();
}

/// The starvation regression test for the event-driven plane: open as
/// many idle persistent connections as there are workers, then prove a
/// fresh client is still served promptly. Under the old
/// thread-per-connection plane every worker was parked in a blocking
/// read on an idle connection, so the fresh predict below hung until an
/// idler disconnected — this test fails (times out) on that code.
#[test]
fn idle_persistent_connections_do_not_starve_fresh_clients() {
    const WORKERS: usize = 2;

    let config = ServerConfig {
        workers: WORKERS,
        queue_bound: 64,
        ..Default::default()
    };
    let server = Server::start(config, ModelRegistry::new(Grid::in_memory(TINY), None)).unwrap();
    let addr = server.addr();

    // Warm the pair through the first idler so the fresh predict below
    // is a pure cache hit, then leave every idler connected and silent.
    // Each idler proves it is admitted and serviced with one roundtrip.
    let mut idlers: Vec<Client> = (0..WORKERS)
        .map(|_| Client::connect(addr).unwrap())
        .collect();
    idlers[0]
        .predict(WORKLOAD, PLATFORM, "2m:0..8M", None)
        .unwrap();
    for idler in &mut idlers {
        idler.stats().unwrap();
    }

    // With every worker's attention nominally claimed by an idle
    // connection, a brand-new client must still complete a warm predict
    // before the read timeout.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"predict gups/8GB sandybridge 2m:0..8M\n")
        .unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.starts_with("ok "),
        "fresh client starved behind idle connections: {reply:?}"
    );

    // The idlers are still live afterwards — multiplexing, not eviction.
    for idler in &mut idlers {
        idler.stats().unwrap();
    }
    server.shutdown();
}

/// The `batch` verb must be framing-exact and byte-for-byte identical
/// to issuing its sub-requests one at a time: the header's count frames
/// exactly one reply line per sub-request, and each sub-reply equals the
/// bytes the standalone request would have put on the wire.
#[test]
fn batch_replies_match_sequential_requests_byte_for_byte() {
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::new(Grid::in_memory(TINY), None),
    )
    .unwrap();
    let addr = server.addr();

    let specs = ["2m:0..8M", "2m:0..16M", "4k"];

    // Ground truth: sequential predicts on their own connection. The
    // reply codec is a parse∘render fixed point, so re-rendering the
    // parsed prediction reproduces the wire line exactly.
    let mut sequential = Client::connect(addr).unwrap();
    let expected: Vec<String> = specs
        .iter()
        .map(|spec| {
            let p = sequential.predict(WORKLOAD, PLATFORM, spec, None).unwrap();
            service::protocol::render_prediction(&p)
        })
        .collect();

    // The same requests as one pipelined batch line on a second
    // connection.
    let mut client = Client::connect(addr).unwrap();
    let requests: Vec<String> = specs
        .iter()
        .map(|spec| format!("predict {WORKLOAD} {PLATFORM} {spec}"))
        .collect();
    let request_refs: Vec<&str> = requests.iter().map(String::as_str).collect();
    let replies = client.batch(&request_refs).unwrap();
    assert_eq!(replies.len(), specs.len(), "batch under- or over-framed");
    for ((spec, want), got) in specs.iter().zip(&expected).zip(&replies) {
        assert_eq!(
            got, want,
            "batch sub-reply for {spec} diverged from the sequential reply"
        );
    }

    // An erroneous sub-request is answered in place without aborting the
    // rest of the batch, and the framing stays exact.
    let replies = client
        .batch(&["stats", "predict no-such-workload sandybridge 2m", "stats"])
        .unwrap();
    assert_eq!(replies.len(), 3);
    assert!(replies[0].starts_with("stats "), "{:?}", replies[0]);
    assert!(replies[1].starts_with("err "), "{:?}", replies[1]);
    assert!(replies[2].starts_with("stats "), "{:?}", replies[2]);

    // The connection keeps serving single requests after a batch.
    client
        .predict(WORKLOAD, PLATFORM, "2m:0..8M", None)
        .unwrap();
    server.shutdown();
}
