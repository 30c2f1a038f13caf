//! The mosaicd TCP server: acceptor plus an event-driven, sharded
//! serving plane.
//!
//! One acceptor thread owns the listener and decides admission: when
//! the plane is at capacity the connection is answered `busy` and
//! closed immediately — explicit backpressure instead of unbounded
//! buffering or silent drops. Admitted connections are switched to
//! nonblocking mode and handed round-robin to a fixed pool of worker
//! shards. Each worker multiplexes *all* of its connections through one
//! `poll(2)` readiness loop: a connection consumes the worker only
//! while a complete request line is being handled, so idle persistent
//! connections are free and can no longer starve the pool (the
//! thread-per-connection plane parked a whole worker on every idle
//! client). A per-shard self-pipe doorbell sits in every poll set, so
//! the acceptor's deal interrupts a sleeping shard immediately — even
//! one whose poll set already holds idle connections.
//!
//! Replies are buffered per connection and flushed as the socket
//! accepts them; while a reply is in flight the connection is polled
//! for writability only, so a slow reader throttles itself instead of
//! the plane.
//!
//! Shutdown is graceful: the flag flips, the acceptor stops admitting,
//! and each worker makes a final drain pass — reading whatever its
//! connections already pipelined, answering the complete requests, and
//! flushing the replies — before exiting. Shutdown rings every
//! doorbell, so workers observe the flag immediately and an idle
//! persistent connection cannot hold shutdown hostage.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use libc::{poll_fds, pollfd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

use harness::{measure_layout_traced, MachineVariant, SIM_STAGES};
use layouts::parse_spec;
use machine::Platform;
use mosmodel::dataset::{LayoutKind, Sample};
use mosmodel::{ModelKind, RuntimeModel};
use obs::{render_trace, ClockDomain, SpanRecorder, StageSums, TraceRing};
use recommend::{
    enumerate_candidates, parse_budget, recommend_over, render_budget, render_layout_spec,
    Recommendation, Score, Scorer, DEFAULT_CV_THRESHOLD, DEFAULT_EXPLORE_STEPS,
};
use vmcore::MemoryLayout;

use crate::cache::prediction_key;
use crate::metrics::{Metrics, StatsSnapshot};
use crate::prom::{render_metrics, MetricsReport, StageEntry};
use crate::protocol::{
    parse_request, render_batch_header, render_pair, render_pairs_header, render_prediction,
    render_recommend, render_trace_header, render_warm, Prediction, RecommendAction,
    RecommendReply, Request,
};
use crate::registry::{ModelRegistry, RecommendKey, RegistryEntry};
use crate::trace::RequestTrace;
use crate::ServiceError;

/// Longest request line the server accepts, in bytes. A client
/// streaming bytes with no newline is answered `err request too long`
/// once and ignored until its next newline, instead of growing the
/// line buffer without bound.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Spans one request may record per clock domain before the recorder
/// starts counting drops. Sized for the deepest path (a cold predict:
/// read, parse, fit, cache lookup, simulation, render, plus three sim
/// spans per repetition) with headroom.
pub const TRACE_SPAN_CAPACITY: usize = 16;

/// Wall-domain stage names the request path records, in pipeline order.
/// `explore` (candidate enumeration) and `score` (per-candidate
/// prediction + decision) are recorded only by the `recommend` verb.
pub const WALL_STAGES: [&str; 8] = [
    "read",
    "parse",
    "fit",
    "cache_lookup",
    "explore",
    "score",
    "simulate",
    "render",
];

/// The readiness-loop timeout: the longest a worker sleeps in
/// `poll(2)` before re-checking the shutdown flag and its inbox, so
/// both are observed promptly even on a fully idle plane.
const POLL_WINDOW_MS: i32 = 100;

/// Most bytes the acceptor drains from a rejected (`busy`) connection
/// before closing it — enough pipelined requests for a clean FIN,
/// bounded so a hostile firehose cannot pin the acceptor. The drain is
/// bounded by reads of a fixed scratch buffer, not by bytes, so a
/// client trickling a byte at a time cannot pin it either.
const BUSY_DRAIN_CAP: usize = 4096;

/// How a [`Server`] listens and schedules work.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Backlog bound: connections past `workers` count toward the
    /// backlog gauge, and once it reaches this bound new connections
    /// are answered `busy`.
    pub queue_bound: usize,
    /// How many finished request traces the server retains for the
    /// `trace` verb; older traces are evicted (and counted as dropped)
    /// rather than growing memory.
    pub trace_capacity: usize,
    /// Fault injection for the panic-shield regression test: when set,
    /// the request line `inject-panic` panics inside the handler. Off
    /// by default, where the line is an unknown command.
    pub inject_panic: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_bound: 64,
            trace_capacity: 256,
            inject_panic: false,
        }
    }
}

/// One worker shard's handoff slot: the acceptor pushes freshly
/// admitted (already nonblocking) streams and rings the shard's
/// doorbell — a self-pipe whose read end sits in the worker's poll set,
/// so a deal interrupts the poll immediately instead of waiting out the
/// poll window. (An earlier design rang a condvar instead, but a shard
/// holding even one idle connection sleeps in `poll(2)`, not on the
/// condvar, so fresh connections stalled up to [`POLL_WINDOW_MS`]
/// before their first byte was seen.)
struct Inbox {
    fresh: Mutex<Vec<TcpStream>>,
    /// Read end of the doorbell pipe; polled by the worker.
    doorbell_rx: libc::c_int,
    /// Write end of the doorbell pipe; written by the acceptor on every
    /// deal and by shutdown.
    doorbell_tx: libc::c_int,
}

impl Drop for Inbox {
    fn drop(&mut self) {
        libc::close_fd(self.doorbell_rx);
        libc::close_fd(self.doorbell_tx);
    }
}

/// State shared between the acceptor, the workers, and the handle.
struct Shared {
    registry: ModelRegistry,
    metrics: Metrics,
    /// One inbox per worker shard; the acceptor deals round-robin.
    inboxes: Vec<Inbox>,
    shutdown: AtomicBool,
    queue_bound: usize,
    /// Worker-shard count, for the backlog gauge (`open - workers`).
    workers: usize,
    /// Currently admitted (open) connections across all shards.
    open_connections: AtomicU64,
    /// Wall-domain per-stage tick totals (µs), exposed by `metrics`.
    wall_stages: StageSums,
    /// Sim-domain per-stage tick totals (simulated cycles).
    sim_stages: StageSums,
    /// Ring of the most recent finished traces, served by `trace`.
    traces: TraceRing,
    /// [`ServerConfig::inject_panic`].
    inject_panic: bool,
}

impl Shared {
    /// The state for `config`'s worker shards, each with an empty inbox.
    ///
    /// # Errors
    ///
    /// Doorbell-pipe creation failure (fd exhaustion).
    fn new(config: &ServerConfig, registry: ModelRegistry) -> io::Result<Shared> {
        let worker_shards = config.workers.max(1);
        let inboxes = (0..worker_shards)
            .map(|_| {
                let (doorbell_rx, doorbell_tx) =
                    libc::doorbell_pair().map_err(io::Error::from_raw_os_error)?;
                Ok(Inbox {
                    fresh: Mutex::new(Vec::new()),
                    doorbell_rx,
                    doorbell_tx,
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Shared {
            registry,
            metrics: Metrics::new(),
            inboxes,
            shutdown: AtomicBool::new(false),
            queue_bound: config.queue_bound.max(1),
            workers: worker_shards,
            open_connections: AtomicU64::new(0),
            wall_stages: StageSums::new(&WALL_STAGES),
            sim_stages: StageSums::new(&SIM_STAGES),
            traces: TraceRing::new(config.trace_capacity),
            inject_panic: config.inject_panic,
        })
    }
}

/// A running mosaicd instance. Dropping the handle without calling
/// [`Server::shutdown`] detaches the threads (the process exit reaps
/// them); call `shutdown` for a graceful drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and worker pool, and returns the
    /// running server.
    ///
    /// # Errors
    ///
    /// Propagates the bind error (address in use, permission, ...) and
    /// doorbell-pipe creation failure (fd exhaustion).
    pub fn start(config: ServerConfig, registry: ModelRegistry) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(&config, registry)?);
        let worker_shards = shared.workers;

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mosaicd-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let workers = (0..worker_shards)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mosaicd-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time metrics snapshot (same data as the `stats`
    /// command).
    pub fn stats(&self) -> StatsSnapshot {
        snapshot_stats(&self.shared)
    }

    /// The registry backing the server.
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// The full observability report (same data as the `metrics` verb).
    pub fn metrics_report(&self) -> MetricsReport {
        metrics_report(&self.shared)
    }

    /// Gracefully shuts down: stop admitting, let every worker make its
    /// drain pass (pipelined requests already readable are answered and
    /// flushed), join all threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for inbox in &self.shared.inboxes {
            libc::doorbell_ring(inbox.doorbell_tx);
        }
        // accept() has no timeout; a loopback connection unblocks it so
        // the acceptor can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Locks a worker inbox, recovering from poisoning. The inbox holds
/// plain `TcpStream`s with no invariants a half-completed operation
/// could break, so a panic elsewhere must not take the shard down with
/// `PoisonError` panics.
fn lock_inbox(inbox: &Inbox) -> MutexGuard<'_, Vec<TcpStream>> {
    inbox.fresh.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the acceptor should do after `accept()` returns an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AcceptErrorAction {
    /// Shutdown was requested; stop accepting.
    Shutdown,
    /// Transient failure (e.g. EMFILE while connections drain): pause
    /// before retrying instead of hot-spinning on the error.
    Backoff(Duration),
}

/// Backoff policy for `accept()` errors. A persistent error like EMFILE
/// used to make the acceptor spin `Err => continue` at 100% CPU with no
/// shutdown check; instead, back off exponentially (1ms doubling to a
/// 100ms ceiling) and honor the shutdown flag first.
fn on_accept_error(shutdown_requested: bool, consecutive_errors: u32) -> AcceptErrorAction {
    if shutdown_requested {
        return AcceptErrorAction::Shutdown;
    }
    let millis = 1u64
        .checked_shl(consecutive_errors)
        .unwrap_or(u64::MAX)
        .min(100);
    AcceptErrorAction::Backoff(Duration::from_millis(millis))
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut consecutive_errors: u32 = 0;
    let mut next_shard: usize = 0;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => {
                consecutive_errors = 0;
                conn
            }
            Err(_) => {
                match on_accept_error(shared.shutdown.load(Ordering::SeqCst), consecutive_errors) {
                    AcceptErrorAction::Shutdown => return,
                    AcceptErrorAction::Backoff(pause) => {
                        consecutive_errors = consecutive_errors.saturating_add(1);
                        std::thread::sleep(pause);
                        continue;
                    }
                }
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Admission: `workers` connections ride free; everything past
        // them counts toward the backlog, and at the bound the plane
        // answers `busy` instead of admitting without limit.
        let open = shared.open_connections.load(Ordering::SeqCst);
        if open.saturating_sub(shared.workers as u64) >= shared.queue_bound as u64 {
            reject_busy(stream, shared);
            continue;
        }
        // The readiness loop owns this socket from here on, so it must
        // never block the shard; a stream that cannot go nonblocking is
        // dropped (the client sees a clean close and retries). Nagle is
        // disabled because pipelined clients (the `batch` verb, load
        // generators) make the plane emit several sub-MSS reply writes
        // back to back — with Nagle on, every write after the first
        // stalls behind the peer's delayed ACK (~40ms), collapsing
        // pipelined throughput by an order of magnitude.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let slot = next_shard.checked_rem(shared.inboxes.len()).unwrap_or(0);
        next_shard = next_shard.wrapping_add(1);
        if let Some(inbox) = shared.inboxes.get(slot) {
            let open = shared
                .open_connections
                .fetch_add(1, Ordering::SeqCst)
                .saturating_add(1);
            publish_connection_gauges(shared, open);
            lock_inbox(inbox).push(stream);
            libc::doorbell_ring(inbox.doorbell_tx);
        }
    }
}

/// Answers `busy` and closes. The bounded drain loop eats whatever the
/// client already pipelined so the close is a clean FIN; closing with
/// unread data can turn into an RST that discards the busy reply on
/// the way out. (The old plane read a single 256-byte window, which a
/// client pipelining more than that could still trip into an RST.)
fn reject_busy(mut stream: TcpStream, shared: &Shared) {
    shared.metrics.record_busy();
    let _ = stream.write_all(b"busy\n");
    let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
    let mut scratch = [0u8; 256];
    for _ in 0..BUSY_DRAIN_CAP / scratch.len() {
        if matches!(stream.read(&mut scratch), Ok(0) | Err(_)) {
            break;
        }
    }
}

/// Publishes both connection gauges from one open-connection count:
/// the raw count, and the backlog beyond the worker-shard budget
/// (which is what the `busy` admission decision keys on).
fn publish_connection_gauges(shared: &Shared, open: u64) {
    shared.metrics.set_connections(open);
    shared
        .metrics
        .set_queue_depth(open.saturating_sub(shared.workers as u64));
}

/// Drops `closed` connections out of the gauges after a shard reaps
/// them from its poll set.
fn forget_connections(shared: &Shared, closed: u64) {
    if closed == 0 {
        return;
    }
    let open = shared
        .open_connections
        .fetch_sub(closed, Ordering::SeqCst)
        .saturating_sub(closed);
    publish_connection_gauges(shared, open);
}

/// One multiplexed connection's state between readiness events.
struct Conn {
    stream: TcpStream,
    /// The partial request line accumulated so far (bounded by
    /// [`MAX_REQUEST_BYTES`] plus one read chunk).
    line: Vec<u8>,
    /// True while skipping the remainder of an over-long request; the
    /// connection resyncs at the next newline.
    discarding: bool,
    /// When the current request's first bytes arrived — the wall epoch
    /// of its trace, so the `read` span covers line accumulation.
    request_started: Option<Instant>,
    /// Reply bytes accepted by the handler but not yet by the socket.
    /// While non-empty the connection is polled for writability only,
    /// so a slow reader backpressures itself instead of the shard.
    pending: Vec<u8>,
    /// Set on EOF or a fatal I/O error; the shard reaps it after the
    /// service pass.
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            line: Vec::new(),
            discarding: false,
            request_started: None,
            pending: Vec::new(),
            closed: false,
        }
    }
}

/// One worker shard: a `poll(2)` readiness loop over every connection
/// the acceptor has dealt to it, plus the shard's doorbell as entry
/// zero. The doorbell makes every external event — a freshly dealt
/// connection, shutdown — interrupt the poll immediately; the
/// [`POLL_WINDOW_MS`] timeout remains only as a belt-and-braces
/// re-check of the shutdown flag.
fn worker_loop(shared: &Shared, shard: usize) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<pollfd> = Vec::new();
    loop {
        // poll(2) ignores negative fds, so the sentinel is safe in the
        // (unreachable) case the shard index misses the inbox table.
        let mut doorbell: libc::c_int = -1;
        if let Some(inbox) = shared.inboxes.get(shard) {
            doorbell = inbox.doorbell_rx;
            conns.extend(lock_inbox(inbox).drain(..).map(Conn::new));
        }
        // The inbox is collected first: a connection dealt but not yet
        // picked up still gets its pipelined requests answered.
        if shared.shutdown.load(Ordering::SeqCst) {
            drain_on_shutdown(&mut conns, shared);
            return;
        }
        fds.clear();
        fds.push(pollfd {
            fd: doorbell,
            events: POLLIN,
            revents: 0,
        });
        for conn in &conns {
            // Flow control: while a reply is queued, only writability
            // matters; the socket's receive buffer holds any pipelined
            // requests until the client drains its side.
            let events = if conn.pending.is_empty() {
                POLLIN
            } else {
                POLLOUT
            };
            fds.push(pollfd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        match poll_fds(&mut fds, POLL_WINDOW_MS) {
            Ok(0) | Err(_) => continue, // timeout or EINTR: re-check flags
            Ok(_) => {}
        }
        if fds.first().is_some_and(|bell| bell.revents & POLLIN != 0) {
            // Drain so the level-triggered doorbell goes quiet; the
            // loop top collects whatever the ring announced.
            libc::doorbell_drain(doorbell);
        }
        for (conn, pfd) in conns.iter_mut().zip(fds.iter().skip(1)) {
            let revents = pfd.revents;
            if revents == 0 {
                continue;
            }
            if revents & (POLLERR | POLLNVAL) != 0 {
                conn.closed = true;
                continue;
            }
            if revents & POLLOUT != 0 {
                flush_pending(conn);
            }
            // POLLHUP still allows reading buffered bytes; EOF (read 0)
            // is what actually closes the connection.
            if !conn.closed && conn.pending.is_empty() && revents & (POLLIN | POLLHUP) != 0 {
                service_readable(conn, shared);
            }
        }
        reap_closed(&mut conns, shared);
    }
}

/// Removes reaped connections from the shard and the gauges.
fn reap_closed(conns: &mut Vec<Conn>, shared: &Shared) {
    let before = conns.len();
    conns.retain(|c| !c.closed);
    forget_connections(shared, before.saturating_sub(conns.len()) as u64);
}

/// Writes as much queued reply as the socket accepts right now.
fn flush_pending(conn: &mut Conn) {
    while !conn.pending.is_empty() {
        match conn.stream.write(&conn.pending) {
            Ok(0) => {
                conn.closed = true;
                return;
            }
            Ok(n) => {
                conn.pending.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.closed = true;
                return;
            }
        }
    }
}

/// Reads everything currently available on a readable connection,
/// dispatching each complete request line as it forms. Stops early when
/// a reply backs up (flow control) so one connection cannot pin the
/// shard with an endless pipelined stream.
fn service_readable(conn: &mut Conn, shared: &Shared) {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.closed = true;
                return;
            }
            Ok(n) => {
                ingest_bytes(conn, chunk.get(..n).unwrap_or_default(), shared);
                if conn.closed {
                    return;
                }
                flush_pending(conn);
                if !conn.pending.is_empty() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.closed = true;
                return;
            }
        }
    }
}

/// Folds one read chunk into the connection's line state: accumulate
/// partial lines, enforce the [`MAX_REQUEST_BYTES`] bound (answer
/// `err request too long` once, then discard to the next newline), and
/// dispatch every complete request in the chunk.
#[expect(
    clippy::disallowed_methods,
    reason = "stamps a request's first byte for its wall-domain latency; never reaches a reply"
)]
fn ingest_bytes(conn: &mut Conn, mut bytes: &[u8], shared: &Shared) {
    while !bytes.is_empty() {
        if conn.request_started.is_none() && !conn.discarding {
            conn.request_started = Some(Instant::now());
        }
        match bytes.iter().position(|&b| b == b'\n') {
            None => {
                if !conn.discarding {
                    conn.line.extend_from_slice(bytes);
                    if conn.line.len() > MAX_REQUEST_BYTES {
                        reject_overlong(conn, shared);
                        conn.discarding = true;
                    }
                }
                return;
            }
            Some(nl) => {
                let (head, tail) = bytes.split_at(nl);
                bytes = tail.get(1..).unwrap_or_default();
                if conn.discarding {
                    // Newline reached: the over-long request's tail is
                    // gone and the connection is back at a boundary.
                    conn.discarding = false;
                    continue;
                }
                conn.line.extend_from_slice(head);
                if conn.line.len() > MAX_REQUEST_BYTES {
                    reject_overlong(conn, shared);
                } else {
                    dispatch_line(conn, shared);
                }
                conn.line.clear();
                conn.request_started = None;
            }
        }
    }
}

/// Answers an over-long request. These are counted in the dedicated
/// `too_long` counter (and as errors), *not* in the latency histogram:
/// the old plane recorded them as 0µs requests, which dragged p50/p99
/// toward zero under a flood of garbage.
fn reject_overlong(conn: &mut Conn, shared: &Shared) {
    shared.metrics.record_too_long();
    conn.line.clear();
    conn.request_started = None;
    conn.pending
        .extend_from_slice(b"err request too long (max 65536 bytes)\n");
}

/// Dispatches one complete request line: trace, handle, record, queue
/// the reply.
fn dispatch_line(conn: &mut Conn, shared: &Shared) {
    #[expect(
        clippy::disallowed_methods,
        reason = "handling latency is wall time by definition; it feeds metrics and traces, never a reply"
    )]
    let started = Instant::now();
    let epoch = conn.request_started.take().unwrap_or(started);
    let mut tracer = RequestTrace::new(TRACE_SPAN_CAPACITY, epoch);
    // The read span: from the request's first byte to the complete
    // line (handling latency, recorded below, starts here).
    let read_end = tracer.now_us();
    tracer.wall.record("read", 0, read_end);
    let (response, verb, was_predict, was_error) = match std::str::from_utf8(&conn.line) {
        Ok(text) => handle_line_shielded(text, shared, &mut tracer),
        // A raw non-UTF-8 byte used to close the whole persistent
        // connection; the newline boundary already resyncs the stream,
        // so answer like any other malformed request instead.
        Err(_) => ("err invalid utf-8".to_string(), "error", false, true),
    };
    let latency_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared
        .metrics
        .record_request(latency_us, was_predict, was_error);
    finish_trace(shared, verb, tracer);
    conn.pending.extend_from_slice(response.as_bytes());
    conn.pending.push(b'\n');
}

/// The shutdown drain pass: answer whatever each connection already
/// pipelined, then flush its replies with a bounded blocking window so
/// in-flight work is delivered, not dropped.
fn drain_on_shutdown(conns: &mut Vec<Conn>, shared: &Shared) {
    let mut chunk = [0u8; 4096];
    for conn in conns.iter_mut() {
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => ingest_bytes(conn, chunk.get(..n).unwrap_or_default(), shared),
            }
        }
        if !conn.pending.is_empty() {
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn
                .stream
                .set_write_timeout(Some(Duration::from_millis(500)));
            let _ = conn.stream.write_all(&conn.pending);
        }
    }
    forget_connections(shared, conns.len() as u64);
    conns.clear();
}

/// Folds a finished request's spans into the stage sums and pushes its
/// trace(s) into the ring: always a wall-domain trace, plus a sim-domain
/// trace when the partial simulation ran.
fn finish_trace(shared: &Shared, verb: &'static str, tracer: RequestTrace) {
    let ((wall_spans, wall_dropped), (sim_spans, sim_dropped)) = tracer.into_parts();
    shared.wall_stages.add_spans(&wall_spans);
    shared
        .traces
        .push(verb, ClockDomain::Wall, wall_spans, wall_dropped);
    if !sim_spans.is_empty() || sim_dropped > 0 {
        shared.sim_stages.add_spans(&sim_spans);
        shared
            .traces
            .push(verb, ClockDomain::Sim, sim_spans, sim_dropped);
    }
}

/// Takes the stats snapshot all three exposure paths (`stats`,
/// `metrics`, [`Server::stats`]) share.
fn snapshot_stats(shared: &Shared) -> StatsSnapshot {
    shared.metrics.snapshot(
        shared.registry.counters(),
        shared.registry.prediction_cache().counters(),
        shared.registry.recommend_cache().counters(),
        shared.registry.prediction_cache().len() as u64,
    )
}

/// Assembles the `metrics` report from the live server state.
fn metrics_report(shared: &Shared) -> MetricsReport {
    let stats = snapshot_stats(shared);
    let entries = |sums: &StageSums| -> Vec<StageEntry> {
        sums.snapshot()
            .into_iter()
            .map(|s| StageEntry {
                stage: s.stage.to_string(),
                total_ticks: s.total_ticks,
                spans: s.spans,
            })
            .collect()
    };
    MetricsReport {
        stats,
        pred_cache_shard_lens: shared
            .registry
            .prediction_cache()
            .shard_lens()
            .into_iter()
            .map(|len| len as u64)
            .collect(),
        wall_stages: entries(&shared.wall_stages),
        sim_stages: entries(&shared.sim_stages),
        traces_buffered: shared.traces.len() as u64,
        trace_capacity: shared.traces.capacity() as u64,
        traces_dropped: shared.traces.dropped(),
    }
}

/// Runs [`handle_line`] under a panic shield. The worker pool is a
/// fixed resource: a panic that escapes request handling permanently
/// removes a worker, and enough hostile requests would empty the pool
/// while the acceptor keeps admitting connections. Any panic becomes a
/// protocol-level `err internal ...` response and the worker lives on
/// (the per-shard inboxes tolerate this — see [`lock_inbox`]).
fn handle_line_shielded(
    line: &str,
    shared: &Shared,
    tracer: &mut RequestTrace,
) -> (String, &'static str, bool, bool) {
    catch_unwind(AssertUnwindSafe(|| {
        handle_line(line.trim_end(), shared, tracer)
    }))
    .unwrap_or_else(|_| {
        (
            "err internal: request handler panicked; request rejected".to_string(),
            "panic",
            false,
            true,
        )
    })
}

/// Handles one request line; returns `(response, verb, was_predict,
/// was_error)`. The verb labels the request's trace in the ring.
fn handle_line(
    line: &str,
    shared: &Shared,
    tracer: &mut RequestTrace,
) -> (String, &'static str, bool, bool) {
    // Fault-injection hook for the shield regression test: the only way
    // to prove a worker survives a handler panic is to panic in a
    // handler. Servers not configured for it treat the verb as an
    // unknown command.
    #[expect(
        clippy::panic,
        reason = "deliberate fault injection, off unless ServerConfig::inject_panic is set; the shield test depends on it"
    )]
    if shared.inject_panic && line == "inject-panic" {
        panic!("injected worker panic (requested by the shield regression test)");
    }
    let parse_start = tracer.now_us();
    let parsed = parse_request(line);
    tracer.record("parse", parse_start);
    match parsed {
        Ok(request) => handle_request(request, shared, tracer),
        Err(reason) => (format!("err {reason}"), "error", false, true),
    }
}

/// Handles one parsed request; returns `(response, verb, was_predict,
/// was_error)`. Factored out of [`handle_line`] so the `batch` verb can
/// run its sub-requests through the identical dispatch (nested batches
/// are rejected at parse time, so the recursion is one level deep).
fn handle_request(
    request: Request,
    shared: &Shared,
    tracer: &mut RequestTrace,
) -> (String, &'static str, bool, bool) {
    match request {
        Request::Stats => {
            let snap = snapshot_stats(shared);
            let render_start = tracer.now_us();
            let text = snap.render();
            tracer.record("render", render_start);
            (text, "stats", false, false)
        }
        Request::Predict {
            workload,
            platform,
            spec,
            model,
        } => match predict_traced(&shared.registry, &workload, &platform, &spec, model, tracer) {
            Ok(prediction) => {
                let render_start = tracer.now_us();
                let text = render_prediction(&prediction);
                tracer.record("render", render_start);
                (text, "predict", true, false)
            }
            Err(e) => (format!("err {e}"), "predict", true, true),
        },
        Request::Warm { workload, platform } => {
            match warm(&shared.registry, &workload, &platform) {
                Ok(models) => (
                    render_warm(&workload, &platform, models),
                    "warm",
                    false,
                    false,
                ),
                Err(e) => (format!("err {e}"), "warm", false, true),
            }
        }
        Request::Metrics => {
            let report = metrics_report(shared);
            let render_start = tracer.now_us();
            let text = render_metrics(&report);
            tracer.record("render", render_start);
            // render_metrics ends with "# EOF\n"; the connection loop
            // appends the final newline, so trim the trailing one here.
            (
                text.trim_end_matches('\n').to_string(),
                "metrics",
                false,
                false,
            )
        }
        Request::Trace { n } => {
            let traces = shared.traces.last(n);
            let render_start = tracer.now_us();
            let mut text = render_trace_header(traces.len(), shared.traces.dropped());
            for trace in &traces {
                text.push('\n');
                text.push_str(&render_trace(trace));
            }
            tracer.record("render", render_start);
            (text, "trace", false, false)
        }
        Request::Recommend {
            workload,
            platform,
            budget,
            threshold,
        } => {
            shared.metrics.record_recommend();
            match recommend_traced(
                &shared.registry,
                &workload,
                &platform,
                &budget,
                threshold,
                tracer,
            ) {
                Ok(reply) => {
                    let render_start = tracer.now_us();
                    let text = render_recommend(&reply);
                    tracer.record("render", render_start);
                    (text, "recommend", false, false)
                }
                Err(e) => (format!("err {e}"), "recommend", false, true),
            }
        }
        Request::Pairs => {
            let pairs = shared.registry.pairs();
            let render_start = tracer.now_us();
            let mut text = render_pairs_header(pairs.len());
            for info in &pairs {
                text.push('\n');
                text.push_str(&render_pair(info));
            }
            tracer.record("render", render_start);
            (text, "pairs", false, false)
        }
        Request::Batch(subs) => {
            // One framed reply: a `batch count=N` header, then exactly
            // one line per sub-request, each produced by the same
            // dispatch a standalone request would take (so a batch of
            // predicts is byte-identical to N sequential predicts).
            let mut text = render_batch_header(subs.len());
            let mut any_predict = false;
            let mut any_error = false;
            for sub in subs {
                let (reply, _verb, was_predict, was_error) = handle_request(sub, shared, tracer);
                any_predict |= was_predict;
                any_error |= was_error;
                text.push('\n');
                text.push_str(&reply);
            }
            (text, "batch", any_predict, any_error)
        }
    }
}

/// Pre-fits (or revives) a pair's models without running a prediction;
/// returns how many models the bundle holds. Shares the registry's
/// singleflight path, so concurrent warms and predicts for the same
/// pair coalesce onto one fit.
///
/// # Errors
///
/// Same failure modes as [`ModelRegistry::entry`].
pub fn warm(
    registry: &ModelRegistry,
    workload: &str,
    platform: &str,
) -> Result<usize, ServiceError> {
    let platform = Platform::by_name(platform)
        .ok_or_else(|| ServiceError::UnknownPlatform(platform.to_string()))?;
    let entry = registry.entry(workload, platform)?;
    Ok(entry.bundle.models.len())
}

/// The in-process prediction path: measure the layout with the grid's
/// methodology, then apply the fitted model. Public so the integration
/// tests can compare the server's answers bit-for-bit against a direct
/// call.
///
/// `predict` is a pure function of `(workload, platform, layout,
/// model)`, so results are memoized in the registry's bounded
/// [`PredictionCache`](crate::cache::PredictionCache): a hit skips the
/// partial simulation entirely and returns a `Prediction` that is
/// bit-identical to the uncached answer.
pub fn predict(
    registry: &ModelRegistry,
    workload: &str,
    platform: &str,
    spec: &str,
    model: Option<ModelKind>,
) -> Result<Prediction, ServiceError> {
    // The disabled tracer records nothing, so the traced and untraced
    // paths execute identical prediction logic (bit-identical results).
    predict_traced(
        registry,
        workload,
        platform,
        spec,
        model,
        &mut RequestTrace::disabled(),
    )
}

/// [`predict`] with stage tracing: wall-domain spans for the registry
/// fit, the cache lookup, and the partial simulation land in
/// `tracer.wall`; the simulation itself records sim-domain spans
/// (simulated cycles) into `tracer.sim` via `measure_layout_traced`.
pub(crate) fn predict_traced(
    registry: &ModelRegistry,
    workload: &str,
    platform: &str,
    spec: &str,
    model: Option<ModelKind>,
    tracer: &mut RequestTrace,
) -> Result<Prediction, ServiceError> {
    let platform = Platform::by_name(platform)
        .ok_or_else(|| ServiceError::UnknownPlatform(platform.to_string()))?;
    let fit_start = tracer.now_us();
    let entry = registry.entry(workload, platform)?;
    tracer.record("fit", fit_start);
    let layout =
        parse_spec(entry.ctx.pool(), spec).map_err(|e| ServiceError::BadSpec(e.to_string()))?;
    let kind = model.unwrap_or(ModelKind::Mosmodel);
    // Check model availability before the cache: a request for a model
    // the pair cannot serve must error whether or not the key is cached.
    entry
        .model(kind)
        .ok_or_else(|| ServiceError::ModelUnavailable(kind.name().to_string()))?;

    // The key uses the *canonical* layout (parsed + aligned), so spec
    // spellings naming the same windows share one cache entry.
    let lookup_start = tracer.now_us();
    let key = prediction_key(workload, platform.name, &layout, kind);
    let cached = registry.prediction_cache().get(&key);
    tracer.record("cache_lookup", lookup_start);
    if let Some(cached) = cached {
        return Ok(cached);
    }

    let sim_start = tracer.now_us();
    let prediction = simulate_prediction(&entry, platform, &layout, kind, Some(&mut tracer.sim))?;
    tracer.record("simulate", sim_start);
    registry.prediction_cache().insert(key, prediction.clone());
    Ok(prediction)
}

/// Runs the partial simulation for one layout and applies the fitted
/// model of `kind`. Shared by the `predict` path and the `recommend`
/// scorer, so both produce bit-identical [`Prediction`]s for the same
/// layout.
fn simulate_prediction(
    entry: &RegistryEntry,
    platform: &'static Platform,
    layout: &MemoryLayout,
    kind: ModelKind,
    sim: Option<&mut SpanRecorder>,
) -> Result<Prediction, ServiceError> {
    let persisted = entry
        .model(kind)
        .ok_or_else(|| ServiceError::ModelUnavailable(kind.name().to_string()))?;
    let record = measure_layout_traced(&entry.ctx, &MachineVariant::real(platform), layout, sim);
    let predicted = persisted.model.predict(&record.sample());
    Ok(Prediction {
        runtime_cycles: record.counters.runtime_cycles,
        stlb_hits: record.counters.stlb_hits,
        stlb_misses: record.counters.stlb_misses,
        walk_cycles: record.counters.walk_cycles,
        model: kind,
        predicted,
        max_err: persisted.max_err,
        geo_mean_err: persisted.geo_mean_err,
    })
}

/// Scores candidate layouts for `recommend` with the pair's fitted
/// models. The `predicted` component comes from the default model
/// through the same cached simulation path the `predict` verb uses, so
/// a recommendation's prediction is bit-comparable with a later
/// `predict` for the recommended layout (and candidate scoring warms
/// the prediction cache). The `disagreement` component is the relative
/// spread of *every* fitted model's prediction on the candidate's
/// measured sample — query-by-committee: the candidate the committee
/// disagrees about most is the most informative one to measure next.
struct RegistryScorer<'a> {
    registry: &'a ModelRegistry,
    workload: &'a str,
    platform: &'static Platform,
    entry: &'a RegistryEntry,
}

impl Scorer for RegistryScorer<'_> {
    fn score(&self, layout: &MemoryLayout) -> Option<Score> {
        let kind = ModelKind::Mosmodel;
        let key = prediction_key(self.workload, self.platform.name, layout, kind);
        let prediction = match self.registry.prediction_cache().get(&key) {
            Some(hit) => hit,
            None => {
                // Candidate simulations run untraced: their spans must
                // not pollute the recommend request's trace or the sim
                // stage sums (which meter the predict path).
                let p = simulate_prediction(self.entry, self.platform, layout, kind, None).ok()?;
                self.registry.prediction_cache().insert(key, p.clone());
                p
            }
        };
        // Rebuild the measured sample from the prediction's counters
        // (models only read H/M/C/R; the layout kind matters to fitting
        // alone) and poll the committee.
        let sample = Sample {
            r: prediction.runtime_cycles as f64,
            h: prediction.stlb_hits as f64,
            m: prediction.stlb_misses as f64,
            c: prediction.walk_cycles as f64,
            kind: LayoutKind::Mixed,
        };
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for model in &self.entry.bundle.models {
            let p = model.model.predict(&sample);
            if p.is_finite() {
                min = min.min(p);
                max = max.max(p);
            }
        }
        let disagreement = if max >= min && prediction.predicted != 0.0 {
            (max - min) / prediction.predicted.abs()
        } else {
            0.0
        };
        Some(Score {
            predicted: prediction.predicted,
            disagreement,
        })
    }
}

/// The in-process recommendation path: parse and canonicalize the
/// budget, enumerate the deterministic candidate set, score each
/// candidate with the pair's fitted models, and decide between the
/// confident answer (lowest predicted runtime) and the active-learning
/// fallback (most informative layout to measure). Public so the
/// integration tests can compare the server's answers against a direct
/// call.
pub fn recommend(
    registry: &ModelRegistry,
    workload: &str,
    platform: &str,
    budget: &str,
    threshold: Option<f64>,
) -> Result<RecommendReply, ServiceError> {
    recommend_traced(
        registry,
        workload,
        platform,
        budget,
        threshold,
        &mut RequestTrace::disabled(),
    )
}

/// [`recommend()`] with stage tracing: `fit` for the registry entry,
/// `cache_lookup` for the recommendation cache, `explore` for candidate
/// enumeration, `score` for the per-candidate predictions + decision.
pub(crate) fn recommend_traced(
    registry: &ModelRegistry,
    workload: &str,
    platform: &str,
    budget_text: &str,
    threshold: Option<f64>,
    tracer: &mut RequestTrace,
) -> Result<RecommendReply, ServiceError> {
    let platform = Platform::by_name(platform)
        .ok_or_else(|| ServiceError::UnknownPlatform(platform.to_string()))?;
    let threshold = threshold.unwrap_or(DEFAULT_CV_THRESHOLD);
    let fit_start = tracer.now_us();
    let entry = registry.entry(workload, platform)?;
    tracer.record("fit", fit_start);
    let pool = entry.ctx.pool();
    let budget =
        parse_budget(pool, budget_text).map_err(|e| ServiceError::BadBudget(e.to_string()))?;

    // The cache key carries the *canonical* budget, so spellings naming
    // the same inventory (`8x2m+8x2m`, `16x2m`) share one entry; the
    // threshold enters as raw bits to keep the key exact.
    let lookup_start = tracer.now_us();
    let key: RecommendKey = (
        workload.to_string(),
        platform.name.to_string(),
        render_budget(&budget),
        threshold.to_bits(),
    );
    let cached = registry.recommend_cache().get(&key);
    tracer.record("cache_lookup", lookup_start);
    if let Some(cached) = cached {
        return Ok(cached);
    }

    let explore_start = tracer.now_us();
    let candidates = enumerate_candidates(pool, &budget, DEFAULT_EXPLORE_STEPS);
    tracer.record("explore", explore_start);

    let score_start = tracer.now_us();
    let cv_err = registry.cv_error(workload, platform);
    let scorer = RegistryScorer {
        registry,
        workload,
        platform,
        entry: &entry,
    };
    let decision = recommend_over(&candidates, &scorer, cv_err, threshold)
        // Candidates exist for every budget (all-4KB at minimum), so an
        // empty scored set means the default model is unavailable.
        .map_err(|_| ServiceError::ModelUnavailable(ModelKind::Mosmodel.name().to_string()));
    tracer.record("score", score_start);

    let reply = match decision? {
        Recommendation::Layout { layout, predicted } => RecommendReply {
            action: RecommendAction::Layout,
            spec: render_layout_spec(&layout),
            value: predicted,
            cv_err,
            threshold,
        },
        Recommendation::Measure { layout, gain } => RecommendReply {
            action: RecommendAction::Measure,
            spec: render_layout_spec(&layout),
            value: gain,
            cv_err,
            threshold,
        },
    };
    registry.recommend_cache().insert(key, reply.clone());
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_error_backoff_honors_shutdown_first() {
        assert_eq!(on_accept_error(true, 0), AcceptErrorAction::Shutdown);
        assert_eq!(on_accept_error(true, 99), AcceptErrorAction::Shutdown);
    }

    #[test]
    fn accept_error_backoff_grows_and_caps() {
        let pause = |n| match on_accept_error(false, n) {
            AcceptErrorAction::Backoff(d) => d,
            AcceptErrorAction::Shutdown => panic!("no shutdown requested"),
        };
        // Starts small: one transient error must not stall accepts.
        assert_eq!(pause(0), Duration::from_millis(1));
        // Monotonically non-decreasing under consecutive errors...
        let mut last = Duration::ZERO;
        for n in 0..40 {
            let p = pause(n);
            assert!(p >= last, "backoff shrank at error {n}");
            assert!(p >= Duration::from_millis(1), "never a zero (hot) spin");
            last = p;
        }
        // ...and capped so recovery after EMFILE clears is prompt.
        assert_eq!(pause(12), Duration::from_millis(100));
        assert_eq!(pause(u32::MAX), Duration::from_millis(100));
    }

    #[test]
    fn shutdown_answers_a_connection_still_in_the_inbox() {
        // A connection dealt to a shard that sees the shutdown flag
        // before it ever polls: its pipelined request must be answered,
        // not dropped with the inbox. The client closes its write side,
        // and the server end stays blocking, so the drain reads the whole
        // request before EOF with no timing involved.
        let registry = ModelRegistry::new(harness::Grid::in_memory(harness::Speed::FAST), None);
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let shared = Shared::new(&config, registry).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (dealt, _) = listener.accept().unwrap();
        client.write_all(b"stats\n").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        shared.open_connections.fetch_add(1, Ordering::SeqCst);
        lock_inbox(&shared.inboxes[0]).push(dealt);
        shared.shutdown.store(true, Ordering::SeqCst);

        worker_loop(&shared, 0);
        assert_eq!(shared.open_connections.load(Ordering::SeqCst), 0);
        // Whatever the shard left in the inbox closes here, unanswered.
        drop(shared);

        let mut reply = String::new();
        let _ = client.read_to_string(&mut reply);
        assert!(
            reply.starts_with("stats "),
            "queued request was dropped: {reply:?}"
        );
    }
}
