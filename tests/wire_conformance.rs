//! Every wire verb is shipped whole: it parses, its `Client` method
//! round-trips against a live server, the `mosaic` CLI gets it answered,
//! and the README's wire transcript shows it.
//!
//! The test walks `service::protocol::VERBS`, the table `parse_request`
//! serves from, so a verb added there without a client method or a CLI
//! frontend fails here (the per-verb `match` arms below have no
//! fallback), and one dropped from the table is no longer served.

use std::process::Command;

use harness::{Grid, Speed};
use service::client::Client;
use service::protocol::{parse_request, VERBS};
use service::registry::ModelRegistry;
use service::server::{Server, ServerConfig};

/// Low-fidelity preset so the one battery fit takes seconds.
const TINY: Speed = Speed {
    name: "tiny",
    footprint_div: 1024,
    min_footprint: 48 << 20,
    accesses: 12_000,
    max_reps: 1,
};

const WORKLOAD: &str = "gups/8GB";
const PLATFORM: &str = "sandybridge";

/// A request line that opens with `verb`.
fn example(verb: &str) -> &'static str {
    match verb {
        "predict" => "predict gups/8GB sandybridge 2m:0..8M",
        "warm" => "warm gups/8GB sandybridge",
        "stats" => "stats",
        "metrics" => "metrics",
        "trace" => "trace 4",
        "recommend" => "recommend gups/8GB sandybridge 8x2m",
        "pairs" => "pairs",
        "batch" => "batch warm gups/8GB sandybridge; stats",
        other => panic!("verb {other:?} has no example request line"),
    }
}

/// Sends `verb` through its `Client` method and checks the parsed reply.
fn client_roundtrip(client: &mut Client, verb: &str) {
    match verb {
        "predict" => {
            let p = client.predict(WORKLOAD, PLATFORM, "2m:0..8M", None);
            assert!(p.unwrap().predicted.is_finite());
        }
        "warm" => assert!(client.warm(WORKLOAD, PLATFORM).unwrap() >= 1),
        "stats" => assert!(client.stats().unwrap().requests >= 1),
        "metrics" => {
            client.metrics().unwrap();
        }
        "trace" => assert!(!client.trace(4).unwrap().0.is_empty()),
        "recommend" => {
            client.recommend(WORKLOAD, PLATFORM, "8x2m", None).unwrap();
        }
        "pairs" => assert!(!client.pairs().unwrap().is_empty()),
        "batch" => assert_eq!(client.batch(&["stats", "stats"]).unwrap().len(), 2),
        other => panic!("verb {other:?} has no Client method"),
    }
}

/// The `mosaic` subcommand that sends `verb`, then its arguments after
/// the server address.
fn cli_args(verb: &str) -> Vec<&'static str> {
    match verb {
        "predict" => vec!["query", WORKLOAD, PLATFORM, "2m:0..8M"],
        // `mosaic serve --warm` sends `warm` too, but blocks serving.
        "warm" => vec!["batch", "warm gups/8GB sandybridge"],
        "stats" => vec!["query", "stats"],
        "metrics" => vec!["metrics"],
        "trace" => vec!["trace", "4"],
        "recommend" => vec!["recommend", WORKLOAD, PLATFORM, "8x2m"],
        "pairs" => vec!["query", "pairs"],
        "batch" => vec!["batch", "stats", "stats"],
        other => panic!("verb {other:?} has no CLI frontend"),
    }
}

#[test]
fn every_verb_parses_round_trips_and_is_documented() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::new(Grid::in_memory(TINY), None),
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(server.addr()).unwrap();

    for verb in VERBS {
        let line = example(verb);
        assert!(line.starts_with(verb), "{line:?} is not a {verb:?} request");
        if let Err(e) = parse_request(line) {
            panic!("{line:?}: {e}");
        }

        client_roundtrip(&mut client, verb);

        let args = cli_args(verb);
        let out = Command::new(env!("CARGO_BIN_EXE_mosaic"))
            .arg(args[0])
            .arg(&addr)
            .args(&args[1..])
            .output()
            .unwrap();
        assert!(
            out.status.success() && !out.stdout.is_empty(),
            "mosaic {args:?} did not get {verb:?} answered: {out:?}"
        );

        assert!(
            readme.lines().any(|l| l.starts_with(&format!("→ {verb}"))),
            "README's wire transcript has no `→ {verb}` request"
        );
    }
    server.shutdown();
}
