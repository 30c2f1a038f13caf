//! The line-delimited wire protocol shared by server and client.
//!
//! Keeping parsing and rendering in one module means the integration
//! tests exercise the *same* code path in both directions, and a
//! protocol change cannot silently desynchronize the two sides.
//!
//! Floating-point fields are rendered with Rust's `Display`, which emits
//! the shortest string that round-trips to the same bits; `str::parse`
//! on the other side therefore reproduces the server's value exactly.

use mosmodel::ModelKind;

use crate::registry::PairInfo;

/// A parsed request line.
// Not `Eq`: the recommend threshold is an `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `predict <workload> <platform> <layout-spec> [model]`
    Predict {
        /// Workload name, paper spelling (e.g. `gups/8GB`).
        workload: String,
        /// Platform name, case-insensitive (e.g. `sandybridge`).
        platform: String,
        /// Layout spec in the [`layouts::spec`] grammar.
        spec: String,
        /// Requested model; `None` means the default (`mosmodel`).
        model: Option<ModelKind>,
    },
    /// `warm <workload> <platform>` — pre-fit a pair's models without
    /// running a prediction (pays the one-time fitting cost up front).
    Warm {
        /// Workload name, paper spelling (e.g. `gups/8GB`).
        workload: String,
        /// Platform name, case-insensitive (e.g. `sandybridge`).
        platform: String,
    },
    /// `stats` — dump the metrics snapshot.
    Stats,
    /// `metrics` — Prometheus text exposition (multi-line response
    /// terminated by `# EOF`).
    Metrics,
    /// `trace [n]` — dump the last `n` request traces (default
    /// [`DEFAULT_TRACE_COUNT`]); the response is a `traces count=… …`
    /// header followed by that many `trace …` lines.
    Trace {
        /// How many traces to return (capped by the ring's contents).
        n: usize,
    },
    /// `recommend <workload> <platform> <budget> [threshold]` — pick
    /// the best admissible layout for a hugepage budget (the
    /// [`recommend`] crate's grammar, e.g. `64x2m+1x1g`), or — when the
    /// pair's CV error exceeds the confidence threshold — the most
    /// informative next layout to measure.
    Recommend {
        /// Workload name, paper spelling (e.g. `gups/8GB`).
        workload: String,
        /// Platform name, case-insensitive (e.g. `sandybridge`).
        platform: String,
        /// Budget token in the [`recommend::budget`] grammar.
        budget: String,
        /// Confidence threshold on the pair's K-fold CV error; `None`
        /// means [`recommend::DEFAULT_CV_THRESHOLD`].
        threshold: Option<f64>,
    },
    /// `pairs` — list fitted/fitting (workload, platform) pairs with
    /// their CV error, so operators can see what `recommend`/`warm`
    /// can serve; the response is a `pairs count=…` header followed by
    /// that many `pair …` lines.
    Pairs,
    /// `batch <req>[; <req>]…` — run several sub-requests from one
    /// line; the reply is a `batch count=…` header followed by exactly
    /// one reply line per sub-request, in order. Only single-line-reply
    /// verbs may appear inside a batch (no `metrics`, `trace`, `pairs`,
    /// or nested `batch`), so the framing is always `1 + count` lines.
    Batch(Vec<Request>),
}

/// How many traces `trace` returns when no count is given.
pub const DEFAULT_TRACE_COUNT: usize = 16;

/// Every request verb, the first word of a request line. A verb is
/// served only when it is listed here, and `tests/wire_conformance.rs`
/// walks this table: each verb must parse, round-trip through its
/// [`Client`](crate::client::Client) method against a live server, be
/// answered through the `mosaic` CLI, and appear in the README's wire
/// transcript.
pub const VERBS: [&str; 8] = [
    "predict",
    "warm",
    "stats",
    "metrics",
    "trace",
    "recommend",
    "pairs",
    "batch",
];

/// Looks a model kind up by its wire name (`pham`, `poly2`, `mosmodel`, ...).
pub fn model_by_name(name: &str) -> Option<ModelKind> {
    ModelKind::ALL.into_iter().find(|k| k.name() == name)
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable reason (sent back as `err <reason>`) for
/// unknown verbs, wrong arity, or an unrecognized model name.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_ascii_whitespace();
    let verb = words.next();
    if let Some(verb) = verb.filter(|v| !VERBS.contains(v)) {
        return Err(format!("unknown command {verb:?}"));
    }
    match verb {
        Some("predict") => {
            let workload = words.next().ok_or("predict needs <workload>")?.to_string();
            let platform = words.next().ok_or("predict needs <platform>")?.to_string();
            let spec = words
                .next()
                .ok_or("predict needs <layout-spec>")?
                .to_string();
            let model = match words.next() {
                None => None,
                Some(name) => {
                    Some(model_by_name(name).ok_or_else(|| format!("unknown model {name:?}"))?)
                }
            };
            if let Some(extra) = words.next() {
                return Err(format!("unexpected trailing argument {extra:?}"));
            }
            Ok(Request::Predict {
                workload,
                platform,
                spec,
                model,
            })
        }
        Some("warm") => {
            let workload = words.next().ok_or("warm needs <workload>")?.to_string();
            let platform = words.next().ok_or("warm needs <platform>")?.to_string();
            if let Some(extra) = words.next() {
                return Err(format!("unexpected trailing argument {extra:?}"));
            }
            Ok(Request::Warm { workload, platform })
        }
        Some("stats") => {
            if words.next().is_some() {
                return Err("stats takes no arguments".to_string());
            }
            Ok(Request::Stats)
        }
        Some("metrics") => {
            if words.next().is_some() {
                return Err("metrics takes no arguments".to_string());
            }
            Ok(Request::Metrics)
        }
        Some("trace") => {
            let n = match words.next() {
                None => DEFAULT_TRACE_COUNT,
                Some(text) => text
                    .parse::<usize>()
                    .map_err(|_| format!("trace count must be a number, got {text:?}"))?,
            };
            if let Some(extra) = words.next() {
                return Err(format!("unexpected trailing argument {extra:?}"));
            }
            Ok(Request::Trace { n })
        }
        Some("recommend") => {
            let workload = words
                .next()
                .ok_or("recommend needs <workload>")?
                .to_string();
            let platform = words
                .next()
                .ok_or("recommend needs <platform>")?
                .to_string();
            let budget = words.next().ok_or("recommend needs <budget>")?.to_string();
            let threshold = match words.next() {
                None => None,
                Some(text) => Some(
                    text.parse::<f64>()
                        .map_err(|_| format!("threshold must be a number, got {text:?}"))?,
                ),
            };
            if let Some(extra) = words.next() {
                return Err(format!("unexpected trailing argument {extra:?}"));
            }
            Ok(Request::Recommend {
                workload,
                platform,
                budget,
                threshold,
            })
        }
        Some("pairs") => {
            if words.next().is_some() {
                return Err("pairs takes no arguments".to_string());
            }
            Ok(Request::Pairs)
        }
        Some("batch") => {
            // Sub-requests are ';'-separated, so recover the raw tail
            // after the verb rather than consuming the word iterator.
            let tail = line.trim_start().strip_prefix("batch").unwrap_or_default();
            parse_batch(tail)
        }
        Some(verb) => Err(format!("unknown command {verb:?}")),
        None => Err("empty request".to_string()),
    }
}

/// Parses the tail of a `batch` line into its sub-requests.
///
/// Nested batches are rejected *before* recursing into
/// [`parse_request`], so a hostile `batch batch batch …` line cannot
/// drive parser recursion depth with its length.
fn parse_batch(tail: &str) -> Result<Request, String> {
    let mut subs = Vec::new();
    for part in tail.split(';') {
        let part = part.trim();
        if part.is_empty() {
            return Err("batch sub-requests must be non-empty".to_string());
        }
        if part.split_ascii_whitespace().next() == Some("batch") {
            return Err("batch cannot nest".to_string());
        }
        let sub = parse_request(part).map_err(|e| format!("in batch: {e}"))?;
        if matches!(
            sub,
            Request::Metrics | Request::Trace { .. } | Request::Pairs
        ) {
            return Err("batch only accepts single-line-reply verbs".to_string());
        }
        subs.push(sub);
    }
    if subs.is_empty() {
        return Err("batch needs at least one sub-request".to_string());
    }
    Ok(Request::Batch(subs))
}

/// Renders the `batch …` response header (no newline): how many reply
/// lines follow, one per sub-request.
pub fn render_batch_header(count: usize) -> String {
    format!("batch count={count}")
}

/// Parses a `batch …` response header; returns the reply-line count.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn parse_batch_header(line: &str) -> Result<usize, String> {
    let mut words = line.split_ascii_whitespace();
    if words.next() != Some("batch") {
        return Err(format!("expected batch response, got {line:?}"));
    }
    let count = field(&mut words, "count")?
        .parse::<usize>()
        .map_err(|e| format!("bad count: {e}"))?;
    if words.next().is_some() {
        return Err("unexpected trailing tokens on batch header".to_string());
    }
    Ok(count)
}

/// A successful prediction: measured counters, the chosen model's
/// predicted runtime, and the model's fit-time error bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// Measured runtime cycles (`R`).
    pub runtime_cycles: u64,
    /// Measured L2-TLB hits (`H`).
    pub stlb_hits: u64,
    /// Measured L2-TLB misses (`M`).
    pub stlb_misses: u64,
    /// Measured page-walk cycles (`C`).
    pub walk_cycles: u64,
    /// The model that produced the prediction.
    pub model: ModelKind,
    /// Predicted runtime cycles, `R̂(H, M, C)`.
    pub predicted: f64,
    /// The model's maximum relative error over its fitting battery.
    pub max_err: f64,
    /// The model's geometric-mean relative error over its battery.
    pub geo_mean_err: f64,
}

/// Renders a prediction as the `ok ...` response line (no newline).
pub fn render_prediction(p: &Prediction) -> String {
    format!(
        "ok r={} h={} m={} c={} model={} pred={} max_err={} geo_err={}",
        p.runtime_cycles,
        p.stlb_hits,
        p.stlb_misses,
        p.walk_cycles,
        p.model.name(),
        p.predicted,
        p.max_err,
        p.geo_mean_err,
    )
}

/// Renders the `warm ...` response line (no newline): the pair that was
/// warmed and how many models it now serves.
pub fn render_warm(workload: &str, platform: &str, models: usize) -> String {
    format!("warm workload={workload} platform={platform} models={models}")
}

/// Parses a `warm ...` response line; returns the model count.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn parse_warm(line: &str) -> Result<u64, String> {
    let mut words = line.split_ascii_whitespace();
    if words.next() != Some("warm") {
        return Err(format!("expected warm response, got {line:?}"));
    }
    field(&mut words, "workload")?;
    field(&mut words, "platform")?;
    let models = field(&mut words, "models")?;
    models
        .parse::<u64>()
        .map_err(|e| format!("bad models: {e}"))
}

/// What a recommendation tells the operator to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecommendAction {
    /// Confident: run the named layout.
    Layout,
    /// Not confident: measure the named layout next (active learning).
    Measure,
}

/// A complete `recommend` answer as carried on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct RecommendReply {
    /// Run it, or measure it first.
    pub action: RecommendAction,
    /// The layout, as a [`layouts::spec`] token ready to feed back into
    /// `predict` (or a mosalloc configuration).
    pub spec: String,
    /// For [`RecommendAction::Layout`]: the predicted runtime cycles.
    /// For [`RecommendAction::Measure`]: the models' relative
    /// disagreement on the candidate (the expected information gain).
    pub value: f64,
    /// The pair's K-fold CV error the decision was based on.
    pub cv_err: f64,
    /// The confidence threshold the request resolved to.
    pub threshold: f64,
}

/// Renders a recommendation as the `rec ...` response line (no
/// newline). The value field is named by the action (`pred=` vs
/// `gain=`), so a reader cannot mistake a measurement suggestion for a
/// confident prediction.
pub fn render_recommend(r: &RecommendReply) -> String {
    match r.action {
        RecommendAction::Layout => format!(
            "rec action=layout layout={} pred={} cv_err={} threshold={}",
            r.spec, r.value, r.cv_err, r.threshold,
        ),
        RecommendAction::Measure => format!(
            "rec action=measure layout={} gain={} cv_err={} threshold={}",
            r.spec, r.value, r.cv_err, r.threshold,
        ),
    }
}

/// Parses a `rec ...` response line. `parse_recommend` of
/// [`render_recommend`]'s output is the identity, bit-for-bit.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn parse_recommend(line: &str) -> Result<RecommendReply, String> {
    let mut words = line.split_ascii_whitespace();
    if words.next() != Some("rec") {
        return Err(format!("expected rec response, got {line:?}"));
    }
    let parse_f64 = |s: &str, key: &str| s.parse::<f64>().map_err(|e| format!("bad {key}: {e}"));
    let action = match field(&mut words, "action")? {
        "layout" => RecommendAction::Layout,
        "measure" => RecommendAction::Measure,
        other => return Err(format!("bad action {other:?}")),
    };
    let spec = field(&mut words, "layout")?.to_string();
    let value_key = match action {
        RecommendAction::Layout => "pred",
        RecommendAction::Measure => "gain",
    };
    let value = parse_f64(field(&mut words, value_key)?, value_key)?;
    let cv_err = parse_f64(field(&mut words, "cv_err")?, "cv_err")?;
    let threshold = parse_f64(field(&mut words, "threshold")?, "threshold")?;
    if words.next().is_some() {
        return Err("unexpected trailing tokens on rec response".to_string());
    }
    Ok(RecommendReply {
        action,
        spec,
        value,
        cv_err,
        threshold,
    })
}

/// Renders the `pairs …` response header (no newline): how many `pair`
/// lines follow.
pub fn render_pairs_header(count: usize) -> String {
    format!("pairs count={count}")
}

/// Parses a `pairs …` response header; returns the pair count.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn parse_pairs_header(line: &str) -> Result<usize, String> {
    let mut words = line.split_ascii_whitespace();
    if words.next() != Some("pairs") {
        return Err(format!("expected pairs response, got {line:?}"));
    }
    let count = field(&mut words, "count")?
        .parse::<usize>()
        .map_err(|e| format!("bad count: {e}"))?;
    if words.next().is_some() {
        return Err("unexpected trailing tokens on pairs header".to_string());
    }
    Ok(count)
}

/// Renders one registry pair as a `pair ...` line (no newline). A pair
/// whose CV error has not been computed yet renders `cv_err=NaN`.
pub fn render_pair(info: &PairInfo) -> String {
    format!(
        "pair workload={} platform={} state={} models={} cv_err={}",
        info.workload,
        info.platform,
        if info.ready { "ready" } else { "fitting" },
        info.models,
        info.cv_err,
    )
}

/// Parses a `pair ...` line back into a [`PairInfo`].
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn parse_pair(line: &str) -> Result<PairInfo, String> {
    let mut words = line.split_ascii_whitespace();
    if words.next() != Some("pair") {
        return Err(format!("expected pair line, got {line:?}"));
    }
    let workload = field(&mut words, "workload")?.to_string();
    let platform = field(&mut words, "platform")?.to_string();
    let ready = match field(&mut words, "state")? {
        "ready" => true,
        "fitting" => false,
        other => return Err(format!("bad state {other:?}")),
    };
    let models = field(&mut words, "models")?
        .parse::<usize>()
        .map_err(|e| format!("bad models: {e}"))?;
    let cv_err = field(&mut words, "cv_err")?
        .parse::<f64>()
        .map_err(|e| format!("bad cv_err: {e}"))?;
    if words.next().is_some() {
        return Err("unexpected trailing tokens on pair line".to_string());
    }
    Ok(PairInfo {
        workload,
        platform,
        ready,
        models,
        cv_err,
    })
}

/// Renders the `traces …` response header (no newline): how many trace
/// lines follow and the ring's lifetime drop count.
pub fn render_trace_header(count: usize, dropped: u64) -> String {
    format!("traces count={count} dropped={dropped}")
}

/// Parses a `traces …` response header; returns `(count, dropped)`.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn parse_trace_header(line: &str) -> Result<(usize, u64), String> {
    let mut words = line.split_ascii_whitespace();
    if words.next() != Some("traces") {
        return Err(format!("expected traces response, got {line:?}"));
    }
    let count = field(&mut words, "count")?
        .parse::<usize>()
        .map_err(|e| format!("bad count: {e}"))?;
    let dropped = field(&mut words, "dropped")?
        .parse::<u64>()
        .map_err(|e| format!("bad dropped: {e}"))?;
    if words.next().is_some() {
        return Err("unexpected trailing tokens on traces header".to_string());
    }
    Ok((count, dropped))
}

fn field<'a>(words: &mut impl Iterator<Item = &'a str>, key: &str) -> Result<&'a str, String> {
    let word = words.next().ok_or_else(|| format!("missing field {key}"))?;
    word.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=..., got {word:?}"))
}

/// Parses an `ok ...` response line back into a [`Prediction`].
///
/// # Errors
///
/// Returns a description of the first malformed field. `parse_prediction`
/// of [`render_prediction`]'s output is the identity, bit-for-bit.
pub fn parse_prediction(line: &str) -> Result<Prediction, String> {
    let mut words = line.split_ascii_whitespace();
    if words.next() != Some("ok") {
        return Err(format!("expected ok response, got {line:?}"));
    }
    let parse_u64 = |s: &str, key: &str| s.parse::<u64>().map_err(|e| format!("bad {key}: {e}"));
    let parse_f64 = |s: &str, key: &str| s.parse::<f64>().map_err(|e| format!("bad {key}: {e}"));
    let runtime_cycles = parse_u64(field(&mut words, "r")?, "r")?;
    let stlb_hits = parse_u64(field(&mut words, "h")?, "h")?;
    let stlb_misses = parse_u64(field(&mut words, "m")?, "m")?;
    let walk_cycles = parse_u64(field(&mut words, "c")?, "c")?;
    let model_name = field(&mut words, "model")?;
    let model = model_by_name(model_name).ok_or_else(|| format!("bad model {model_name:?}"))?;
    let predicted = parse_f64(field(&mut words, "pred")?, "pred")?;
    let max_err = parse_f64(field(&mut words, "max_err")?, "max_err")?;
    let geo_mean_err = parse_f64(field(&mut words, "geo_err")?, "geo_err")?;
    Ok(Prediction {
        runtime_cycles,
        stlb_hits,
        stlb_misses,
        walk_cycles,
        model,
        predicted,
        max_err,
        geo_mean_err,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse() {
        assert_eq!(
            parse_request("predict gups/8GB sandybridge 2m:0..64M"),
            Ok(Request::Predict {
                workload: "gups/8GB".into(),
                platform: "sandybridge".into(),
                spec: "2m:0..64M".into(),
                model: None,
            })
        );
        assert_eq!(
            parse_request("predict x y 4k poly2"),
            Ok(Request::Predict {
                workload: "x".into(),
                platform: "y".into(),
                spec: "4k".into(),
                model: Some(ModelKind::Poly2),
            })
        );
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert_eq!(
            parse_request("warm gups/8GB sandybridge"),
            Ok(Request::Warm {
                workload: "gups/8GB".into(),
                platform: "sandybridge".into(),
            })
        );
        assert_eq!(parse_request("metrics"), Ok(Request::Metrics));
        assert_eq!(
            parse_request("trace"),
            Ok(Request::Trace {
                n: DEFAULT_TRACE_COUNT
            })
        );
        assert_eq!(parse_request("trace 3"), Ok(Request::Trace { n: 3 }));
        assert_eq!(
            parse_request("recommend gups/8GB sandybridge 64x2m+1x1g"),
            Ok(Request::Recommend {
                workload: "gups/8GB".into(),
                platform: "sandybridge".into(),
                budget: "64x2m+1x1g".into(),
                threshold: None,
            })
        );
        assert_eq!(
            parse_request("recommend gups/8GB sandybridge 8x2m 0.25"),
            Ok(Request::Recommend {
                workload: "gups/8GB".into(),
                platform: "sandybridge".into(),
                budget: "8x2m".into(),
                threshold: Some(0.25),
            })
        );
        assert_eq!(parse_request("pairs"), Ok(Request::Pairs));
        assert_eq!(
            parse_request("batch stats; warm gups/8GB sandybridge ;predict x y 4k"),
            Ok(Request::Batch(vec![
                Request::Stats,
                Request::Warm {
                    workload: "gups/8GB".into(),
                    platform: "sandybridge".into(),
                },
                Request::Predict {
                    workload: "x".into(),
                    platform: "y".into(),
                    spec: "4k".into(),
                    model: None,
                },
            ]))
        );
        assert_eq!(
            parse_request("batch stats"),
            Ok(Request::Batch(vec![Request::Stats]))
        );
        for bad in [
            "",
            "predict",
            "predict a",
            "predict a b",
            "predict a b c nomodel",
            "predict a b c mosmodel extra",
            "warm",
            "warm a",
            "warm a b c",
            "stats now",
            "metrics now",
            "trace x",
            "trace -1",
            "trace 3 4",
            "recommend",
            "recommend a",
            "recommend a b",
            "recommend a b 8x2m nope",
            "recommend a b 8x2m 0.1 extra",
            "pairs now",
            "frobnicate",
            "batch",
            "batch ",
            "batch stats;",
            "batch ;stats",
            "batch stats; batch stats",
            "batch metrics",
            "batch trace 3",
            "batch pairs",
            "batch frobnicate",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn batch_header_roundtrips() {
        assert_eq!(render_batch_header(3), "batch count=3");
        assert_eq!(parse_batch_header("batch count=3"), Ok(3));
        for bad in ["", "batch", "batch count=x", "batch count=1 x", "ok r=1"] {
            assert!(
                parse_batch_header(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn trace_header_roundtrips() {
        let line = render_trace_header(5, 12);
        assert_eq!(line, "traces count=5 dropped=12");
        assert_eq!(parse_trace_header(&line), Ok((5, 12)));
        for bad in [
            "",
            "traces",
            "traces count=x dropped=0",
            "ok r=1",
            "traces count=1 dropped=2 x",
        ] {
            assert!(
                parse_trace_header(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn prediction_roundtrips_bit_for_bit() {
        let p = Prediction {
            runtime_cycles: 123_456_789,
            stlb_hits: 42,
            stlb_misses: 7,
            walk_cycles: 999,
            model: ModelKind::Mosmodel,
            predicted: 1.234_567_890_123_4e8,
            max_err: 0.071_234_567_89,
            geo_mean_err: f64::MIN_POSITIVE,
        };
        let parsed = parse_prediction(&render_prediction(&p)).unwrap();
        assert_eq!(parsed.predicted.to_bits(), p.predicted.to_bits());
        assert_eq!(parsed.geo_mean_err.to_bits(), p.geo_mean_err.to_bits());
        assert_eq!(parsed, p);
    }

    #[test]
    fn malformed_responses_error_cleanly() {
        for bad in [
            "",
            "err nope",
            "ok",
            "ok r=1",
            "ok r=x h=1 m=1 c=1 model=pham pred=1 max_err=1 geo_err=1",
            "ok r=1 h=1 m=1 c=1 model=zeus pred=1 max_err=1 geo_err=1",
        ] {
            assert!(parse_prediction(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn warm_roundtrips() {
        let line = render_warm("gups/8GB", "SandyBridge", 9);
        assert_eq!(line, "warm workload=gups/8GB platform=SandyBridge models=9");
        assert_eq!(parse_warm(&line), Ok(9));
        for bad in ["", "warm", "warm workload=w platform=p models=x", "ok r=1"] {
            assert!(parse_warm(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn recommend_roundtrips_bit_for_bit() {
        let layout = RecommendReply {
            action: RecommendAction::Layout,
            spec: "2m:0..67108864+1g:1073741824..2147483648".into(),
            value: 1.234_567_890_123_4e8,
            cv_err: 0.071_234_567_89,
            threshold: 0.1,
        };
        let line = render_recommend(&layout);
        assert!(line.starts_with("rec action=layout "));
        assert!(line.contains(" pred="));
        let parsed = parse_recommend(&line).unwrap();
        assert_eq!(parsed.value.to_bits(), layout.value.to_bits());
        assert_eq!(parsed, layout);

        let measure = RecommendReply {
            action: RecommendAction::Measure,
            spec: "4k".into(),
            value: 0.42,
            cv_err: f64::INFINITY,
            threshold: 0.1,
        };
        let line = render_recommend(&measure);
        assert!(line.contains(" gain="));
        assert_eq!(parse_recommend(&line), Ok(measure));

        for bad in [
            "",
            "rec",
            "rec action=panic layout=4k pred=1 cv_err=1 threshold=1",
            // The value key must match the action.
            "rec action=layout layout=4k gain=1 cv_err=1 threshold=1",
            "rec action=measure layout=4k pred=1 cv_err=1 threshold=1",
            "rec action=layout layout=4k pred=x cv_err=1 threshold=1",
            "rec action=layout layout=4k pred=1 cv_err=1 threshold=1 x",
            "ok r=1",
        ] {
            assert!(parse_recommend(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn pairs_lines_roundtrip_including_nan_cv() {
        assert_eq!(render_pairs_header(3), "pairs count=3");
        assert_eq!(parse_pairs_header("pairs count=3"), Ok(3));
        for bad in ["", "pairs", "pairs count=x", "pairs count=1 x", "ok r=1"] {
            assert!(
                parse_pairs_header(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }

        let ready = PairInfo {
            workload: "gups/8GB".into(),
            platform: "SandyBridge".into(),
            ready: true,
            models: 9,
            cv_err: 0.034_567_89,
        };
        let line = render_pair(&ready);
        assert_eq!(
            line,
            "pair workload=gups/8GB platform=SandyBridge state=ready models=9 cv_err=0.03456789"
        );
        assert_eq!(parse_pair(&line), Ok(ready));

        // A pair whose CV has not been computed yet carries NaN; NaN is
        // never `==` so compare fields (and bits) directly.
        let fresh = PairInfo {
            workload: "w".into(),
            platform: "p".into(),
            ready: false,
            models: 0,
            cv_err: f64::NAN,
        };
        let line = render_pair(&fresh);
        assert!(line.contains("state=fitting"));
        assert!(line.ends_with("cv_err=NaN"));
        let parsed = parse_pair(&line).unwrap();
        assert!(parsed.cv_err.is_nan());
        assert_eq!((parsed.workload, parsed.models), ("w".into(), 0));

        for bad in [
            "",
            "pair",
            "pair workload=w platform=p state=limbo models=1 cv_err=1",
            "pair workload=w platform=p state=ready models=x cv_err=1",
            "pair workload=w platform=p state=ready models=1 cv_err=1 x",
        ] {
            assert!(parse_pair(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn every_model_kind_has_a_wire_name() {
        for kind in ModelKind::ALL {
            assert_eq!(model_by_name(kind.name()), Some(kind));
        }
    }
}
