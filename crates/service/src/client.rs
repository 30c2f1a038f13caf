//! A blocking mosaicd client for the CLI and the integration tests.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use mosmodel::ModelKind;

use crate::metrics::StatsSnapshot;
use crate::prom::{parse_metrics, MetricsReport};
use crate::protocol::{
    parse_batch_header, parse_pair, parse_pairs_header, parse_prediction, parse_recommend,
    parse_trace_header, parse_warm, Prediction, RecommendReply,
};
use crate::registry::PairInfo;

/// Why a client call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or server hangup).
    Io(String),
    /// The server rejected the connection with `busy` (admission queue
    /// full) — back off and retry on a fresh connection.
    Busy,
    /// The server answered `err <reason>`.
    Server(String),
    /// The server's response did not parse — version skew or a
    /// non-mosaicd endpoint.
    Protocol(String),
    /// A request argument would corrupt the line-delimited framing
    /// (empty, or containing whitespace/control characters), so it was
    /// rejected client-side without touching the wire.
    InvalidArgument(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Busy => write!(f, "server busy (admission queue full)"),
            ClientError::Server(reason) => write!(f, "server error: {reason}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::InvalidArgument(e) => write!(f, "invalid argument: {e}"),
        }
    }
}

/// Rejects arguments that cannot survive the whitespace-delimited,
/// newline-framed wire protocol. An embedded `\n` would smuggle a
/// second request onto the wire and desynchronize request/response
/// pairing; an embedded space would silently shift every later
/// argument; an empty string would vanish entirely.
fn validate_arg(kind: &str, value: &str) -> Result<(), ClientError> {
    if value.is_empty() {
        return Err(ClientError::InvalidArgument(format!(
            "{kind} must not be empty"
        )));
    }
    if value.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return Err(ClientError::InvalidArgument(format!(
            "{kind} {value:?} contains whitespace or control characters"
        )));
    }
    Ok(())
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// One persistent connection to a mosaicd server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the TCP connect or socket setup fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads one response line.
    fn roundtrip(&mut self, request: &str) -> Result<String, ClientError> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io("server closed the connection".to_string()));
        }
        let line = line.trim_end().to_string();
        if line == "busy" {
            return Err(ClientError::Busy);
        }
        if let Some(reason) = line.strip_prefix("err ") {
            return Err(ClientError::Server(reason.to_string()));
        }
        Ok(line)
    }

    /// Requests a prediction for `(workload, platform, layout-spec)`,
    /// optionally pinning the model (default: `mosmodel`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] under backpressure, [`ClientError::Server`]
    /// for unknown names or bad specs, [`ClientError::Io`] /
    /// [`ClientError::Protocol`] for transport or framing problems.
    pub fn predict(
        &mut self,
        workload: &str,
        platform: &str,
        spec: &str,
        model: Option<ModelKind>,
    ) -> Result<Prediction, ClientError> {
        validate_arg("workload", workload)?;
        validate_arg("platform", platform)?;
        validate_arg("layout spec", spec)?;
        let mut request = format!("predict {workload} {platform} {spec}");
        if let Some(kind) = model {
            request.push(' ');
            request.push_str(kind.name());
        }
        let line = self.roundtrip(&request)?;
        parse_prediction(&line).map_err(ClientError::Protocol)
    }

    /// Pre-fits (or revives) a pair's models without running a
    /// prediction; returns how many models the server holds for the pair.
    /// Blocks until the fit completes — issue warms from their own
    /// connections to overlap several pairs.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Client::predict`].
    pub fn warm(&mut self, workload: &str, platform: &str) -> Result<u64, ClientError> {
        validate_arg("workload", workload)?;
        validate_arg("platform", platform)?;
        let line = self.roundtrip(&format!("warm {workload} {platform}"))?;
        parse_warm(&line).map_err(ClientError::Protocol)
    }

    /// Asks the server to recommend a layout for a hugepage budget
    /// (`64x2m+1x1g` grammar); `threshold` overrides the server's
    /// default confidence threshold on the pair's CV error. The reply is
    /// either a confident layout recommendation or — when the models
    /// cannot be trusted for the pair — the most informative layout to
    /// measure next.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Client::predict`], plus
    /// [`ClientError::Server`] for malformed or pool-exceeding budgets.
    pub fn recommend(
        &mut self,
        workload: &str,
        platform: &str,
        budget: &str,
        threshold: Option<f64>,
    ) -> Result<RecommendReply, ClientError> {
        validate_arg("workload", workload)?;
        validate_arg("platform", platform)?;
        validate_arg("budget", budget)?;
        let mut request = format!("recommend {workload} {platform} {budget}");
        if let Some(t) = threshold {
            if !t.is_finite() {
                return Err(ClientError::InvalidArgument(format!(
                    "threshold {t} is not finite"
                )));
            }
            request.push(' ');
            request.push_str(&t.to_string());
        }
        let line = self.roundtrip(&request)?;
        parse_recommend(&line).map_err(ClientError::Protocol)
    }

    /// Lists every `(workload, platform)` pair the server's registry
    /// knows — fitted or mid-fit — with model counts and memoized CV
    /// errors (`NaN` until the pair's first `recommend`).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Client::predict`].
    pub fn pairs(&mut self) -> Result<Vec<PairInfo>, ClientError> {
        let header = self.roundtrip("pairs")?;
        let count = parse_pairs_header(&header).map_err(ClientError::Protocol)?;
        let mut pairs = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let line = self.read_line()?;
            pairs.push(parse_pair(&line).map_err(ClientError::Protocol)?);
        }
        Ok(pairs)
    }

    /// Fetches the server's metrics snapshot.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Client::predict`].
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        let line = self.roundtrip("stats")?;
        StatsSnapshot::parse(&line).map_err(ClientError::Protocol)
    }

    /// Sends several sub-requests as one `batch` line and returns the
    /// raw reply line for each, in order. A sub-request that fails
    /// server-side comes back as its `err …` line rather than failing
    /// the whole call, so a partially successful batch is observable.
    ///
    /// Sub-requests must be single-line-reply verbs (`predict`, `warm`,
    /// `stats`, `recommend`); the server rejects `metrics`, `trace`,
    /// `pairs`, and nested `batch` lines.
    ///
    /// # Errors
    ///
    /// [`ClientError::InvalidArgument`] for an empty batch or a
    /// sub-request that would corrupt the framing (`;`, newline, or
    /// control characters); otherwise the same failure modes as
    /// [`Client::predict`].
    pub fn batch(&mut self, requests: &[&str]) -> Result<Vec<String>, ClientError> {
        if requests.is_empty() {
            return Err(ClientError::InvalidArgument(
                "batch needs at least one sub-request".to_string(),
            ));
        }
        for request in requests {
            if request.trim().is_empty() {
                return Err(ClientError::InvalidArgument(
                    "batch sub-request must not be empty".to_string(),
                ));
            }
            if request.chars().any(|c| c == ';' || c.is_control()) {
                return Err(ClientError::InvalidArgument(format!(
                    "batch sub-request {request:?} contains ';' or control characters"
                )));
            }
        }
        let header = self.roundtrip(&format!("batch {}", requests.join(";")))?;
        let count = parse_batch_header(&header).map_err(ClientError::Protocol)?;
        let mut replies = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            replies.push(self.read_line()?);
        }
        Ok(replies)
    }

    /// Reads one response line (without sending anything); used by the
    /// multi-line verbs after the first line has been read.
    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io("server closed the connection".to_string()));
        }
        Ok(line.trim_end().to_string())
    }

    /// Fetches the Prometheus exposition (the `metrics` verb) and parses
    /// it back into a [`MetricsReport`]. Use [`Client::metrics_text`]
    /// for the raw scrape body.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Client::predict`].
    pub fn metrics(&mut self) -> Result<MetricsReport, ClientError> {
        let text = self.metrics_text()?;
        parse_metrics(&text).map_err(ClientError::Protocol)
    }

    /// Fetches the raw Prometheus text exposition, exactly as a scraper
    /// would see it (terminated by `# EOF` and a newline).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Client::predict`].
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let first = self.roundtrip("metrics")?;
        let mut text = String::new();
        let mut line = first;
        loop {
            let done = line == "# EOF";
            text.push_str(&line);
            text.push('\n');
            if done {
                return Ok(text);
            }
            line = self.read_line()?;
        }
    }

    /// Fetches the last `n` request traces; returns the traces (oldest
    /// first) and the ring's lifetime drop counter.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Client::predict`].
    pub fn trace(&mut self, n: usize) -> Result<(Vec<obs::Trace>, u64), ClientError> {
        let header = self.roundtrip(&format!("trace {n}"))?;
        let (count, dropped) = parse_trace_header(&header).map_err(ClientError::Protocol)?;
        let mut traces = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let line = self.read_line()?;
            traces.push(obs::parse_trace(&line).map_err(ClientError::Protocol)?);
        }
        Ok((traces, dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_hostile_arguments_are_rejected_client_side() {
        for bad in ["", "a b", "a\tb", "a\nb", "a\rb", "spec\nstats"] {
            let err = validate_arg("workload", bad).unwrap_err();
            assert!(
                matches!(err, ClientError::InvalidArgument(_)),
                "{bad:?} should be InvalidArgument, got {err:?}"
            );
        }
        for good in ["gups/8GB", "sandybridge", "2m:0..64M+1g:1G..2G", "a_b"] {
            assert_eq!(validate_arg("workload", good), Ok(()), "{good:?}");
        }
    }

    #[test]
    fn predict_and_warm_validate_before_touching_the_wire() {
        // No server anywhere: if validation happens first, these fail
        // with InvalidArgument, never Io.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        for (w, p, s) in [
            ("", "sandybridge", "4k"),
            ("gups/8GB", "sandy bridge", "4k"),
            ("gups/8GB", "sandybridge", "4k\nstats"),
        ] {
            let err = client.predict(w, p, s, None).unwrap_err();
            assert!(matches!(err, ClientError::InvalidArgument(_)), "{err:?}");
        }
        let err = client.warm("gups/8GB", "sandy\nbridge").unwrap_err();
        assert!(matches!(err, ClientError::InvalidArgument(_)), "{err:?}");
        for bad in [
            &[] as &[&str],
            &[""],
            &["   "],
            &["stats;stats"],
            &["stats\nstats"],
        ] {
            let err = client.batch(bad).unwrap_err();
            assert!(matches!(err, ClientError::InvalidArgument(_)), "{err:?}");
        }
        for (w, p, b, t) in [
            ("gups/8GB", "sandybridge", "8x2m\nstats", None),
            ("gups/8GB", "sandybridge", "64x2m + 1x1g", None),
            ("gups/8GB", "sandybridge", "8x2m", Some(f64::NAN)),
            ("gups/8GB", "sandybridge", "8x2m", Some(f64::INFINITY)),
        ] {
            let err = client.recommend(w, p, b, t).unwrap_err();
            assert!(matches!(err, ClientError::InvalidArgument(_)), "{err:?}");
        }
    }
}
