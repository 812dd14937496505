//! The resident simplification server.
//!
//! One reactor thread drives a nonblocking listener and every
//! connection through epoll (see [`crate::reactor`]), so ten thousand
//! connections cost ten thousand slab slots, not ten thousand stacks.
//! Complete request lines go to a bounded queue that a worker pool
//! drains.
//!
//! ```text
//!             ┌─────────────┐  readable  ┌──────────────────────────┐
//!  clients ──▶│ reactor loop│───────────▶│ per-connection state     │
//!             └─────────────┘            │ machine (partial lines)  │
//!                                        └────────┬─────────────────┘
//!                                                 │ try_push (never blocks)
//!                                        ┌────────▼─────────┐
//!                                        │  BoundedQueue    │──full──▶ {"error":"overloaded"}
//!                                        └────────┬─────────┘
//!                                                 │ pop
//!                                        ┌────────▼─────────┐
//!                                        │   worker pool    │ shares one Arc<SigCache>
//!                                        └────────┬─────────┘
//!                                                 │ ConnHandle (direct write,
//!                                                 ▼  remainder to reactor)
//!                                      responses (any order, matched by id)
//! ```
//!
//! **Backpressure.** Complete lines are enqueued with
//! [`BoundedQueue::try_push`]; a full queue is answered immediately
//! with an `overloaded` error — the server sheds load instead of
//! queueing unboundedly, and stays live for later requests.
//!
//! **Deadlines.** A request carrying `deadline_ms` is checked against
//! its arrival time when a worker dequeues it and again after
//! simplification; either way past-deadline work is answered with a
//! `deadline` error, never silently dropped. Simplification itself is
//! not preempted (the simplifier has no cancellation points), so the
//! deadline bounds *useful* work, not worst-case occupancy.
//!
//! **Graceful shutdown.** A `{"control":"shutdown"}` request flips the
//! shutdown flag; the reactor stops accepting and reading, the queue
//! closes and workers drain the backlog, every in-flight response is
//! flushed, and only then is the shutdown acknowledged and the process
//! free to exit 0.
//!
//! **Platforms.** The event loop needs epoll. Elsewhere the `mio` shim's
//! constructors fail, and [`Server::run`] returns that `Unsupported`
//! error before it starts any thread.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mba_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use mba_sig::{CacheStats, SigCache};
use mba_solver::{Simplifier, SimplifyConfig};

use crate::protocol::{
    decode_line, render_error, render_ok, render_reply, ClientMessage, Control, ErrorCode,
    ProtocolError, Reply, Request, MAX_LINE_BYTES,
};
use crate::queue::{BoundedQueue, PushError};
use crate::reactor::{ConnHandle, Reactor};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (read it back via
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Bounded request-queue capacity — the backpressure threshold.
    pub queue_capacity: usize,
    /// Maximum accepted line length in bytes.
    pub max_line_bytes: usize,
    /// Test-only throttle: hold each job for this long before
    /// simplifying, to make queue-overflow behaviour deterministic in
    /// tests. Always `None` in production configurations.
    pub worker_delay: Option<Duration>,
    /// Whether the per-width simplifiers run the enumerative synthesis
    /// tier on residual expressions. On by default; `--no-synthesis`
    /// turns it off for latency-sensitive deployments.
    pub use_synthesis: bool,
    /// Signature-cache entry budget; `None` disables eviction. The
    /// default bounds resident cache memory so a long-lived server
    /// cannot grow without limit under an adversarial key stream.
    pub cache_budget: Option<usize>,
    /// Signature-cache snapshot path: loaded (if present) at bind for a
    /// warm start, written back when the server drains.
    pub cache_snapshot: Option<PathBuf>,
    /// Test-only cap on bytes per socket `write`, to deterministically
    /// exercise multi-write response flushes. Always `None` in
    /// production configurations.
    pub write_chunk_limit: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 256,
            max_line_bytes: MAX_LINE_BYTES,
            worker_delay: None,
            use_synthesis: true,
            cache_budget: Some(DEFAULT_CACHE_BUDGET),
            cache_snapshot: None,
            write_chunk_limit: None,
        }
    }
}

/// Default signature-cache entry budget. At roughly a hundred bytes per
/// cached table this bounds the cache near tens of MiB — far above any
/// working set the benchmarks reach, so eviction is a memory ceiling,
/// not a throughput tax.
pub const DEFAULT_CACHE_BUDGET: usize = 262_144;

/// Monotonic serving counters, pre-resolved `mba-obs` handles so the
/// hot path never touches the registry lock. The same counters are
/// visible under their dotted names in [`ServerState::metrics`]
/// snapshots (`serve.requests.served`, `serve.error.*`).
#[derive(Debug)]
pub struct Counters {
    /// Requests answered with a simplified expression.
    pub served: Arc<Counter>,
    /// Lines rejected at the protocol layer (`parse` / `invalid`).
    pub protocol_errors: Arc<Counter>,
    /// Requests shed by backpressure.
    pub overloaded: Arc<Counter>,
    /// Requests answered with a `deadline` error.
    pub deadline_expired: Arc<Counter>,
    /// Requests answered with an `internal` error because the worker
    /// handling them panicked. Nonzero means a bug, but never a hang.
    pub internal_errors: Arc<Counter>,
}

impl Counters {
    fn resolve(obs: &MetricsRegistry) -> Counters {
        Counters {
            served: obs.counter("serve.requests.served"),
            protocol_errors: obs.counter("serve.error.protocol"),
            overloaded: obs.counter("serve.error.overloaded"),
            deadline_expired: obs.counter("serve.error.deadline"),
            internal_errors: obs.counter("serve.error.internal"),
        }
    }
}

/// State shared by the reactor and the workers.
pub struct ServerState {
    sig_cache: Arc<SigCache>,
    /// One simplifier per requested width, all sharing `sig_cache`.
    /// Width changes the coefficient ring, so results are width-keyed;
    /// the signature layer underneath is width-generic and shared.
    simplifiers: RwLock<HashMap<u32, Arc<Simplifier>>>,
    /// Whether freshly built simplifiers enable the synthesis tier
    /// (frozen at bind time from [`ServerConfig::use_synthesis`]).
    use_synthesis: bool,
    shutting_down: AtomicBool,
    /// Process-wide metrics registry; per-width simplifiers record
    /// their stage spans here, so `stats` can break serving time down
    /// by pipeline stage.
    obs: Arc<MetricsRegistry>,
    /// Serving counters.
    pub counters: Counters,
    /// Time from `try_push` acceptance to worker dequeue.
    queue_wait: Arc<Histogram>,
    /// Time from worker dequeue to response written.
    queue_service: Arc<Histogram>,
    /// Instantaneous queue depth, sampled at enqueue/dequeue edges.
    queue_depth: Arc<Gauge>,
    /// Sinks owed a shutdown acknowledgement once draining finishes.
    ackers: Mutex<Vec<(Option<u64>, Arc<ConnHandle>)>>,
}

impl ServerState {
    fn new(config: &ServerConfig) -> ServerState {
        let obs = Arc::new(MetricsRegistry::new());
        let sig_cache = match config.cache_budget {
            Some(budget) => SigCache::with_budget(budget),
            None => SigCache::new(),
        };
        ServerState {
            sig_cache: Arc::new(sig_cache),
            simplifiers: RwLock::new(HashMap::new()),
            use_synthesis: config.use_synthesis,
            shutting_down: AtomicBool::new(false),
            counters: Counters::resolve(&obs),
            queue_wait: obs.histogram("serve.queue.wait.micros"),
            queue_service: obs.histogram("serve.queue.service.micros"),
            queue_depth: obs.gauge("serve.queue.depth"),
            obs,
            ackers: Mutex::new(Vec::new()),
        }
    }

    /// The shared signature cache (all widths, all connections).
    pub fn sig_cache(&self) -> &Arc<SigCache> {
        &self.sig_cache
    }

    /// The process-wide metrics registry (serving counters, queue
    /// histograms, and the simplifiers' per-stage spans).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// Cumulative signature-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.sig_cache.stats()
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag (idempotent). The serving loop observes
    /// it and begins draining.
    pub(crate) fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Sinks owed a shutdown acknowledgement once draining finishes.
    pub(crate) fn ackers(&self) -> &Mutex<Vec<(Option<u64>, Arc<ConnHandle>)>> {
        &self.ackers
    }

    fn simplifier_for(&self, width: u32) -> Arc<Simplifier> {
        if let Some(s) = self.simplifiers.read().unwrap().get(&width) {
            return Arc::clone(s);
        }
        let mut map = self.simplifiers.write().unwrap();
        Arc::clone(map.entry(width).or_insert_with(|| {
            Arc::new(Simplifier::with_metrics(
                SimplifyConfig {
                    width,
                    use_synthesis: self.use_synthesis,
                    ..SimplifyConfig::default()
                },
                Arc::clone(&self.sig_cache),
                Arc::clone(&self.obs),
            ))
        }))
    }
}

/// One unit of queued work.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) received: Instant,
    pub(crate) writer: Arc<ConnHandle>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    state: Arc<ServerState>,
    queue: Arc<BoundedQueue<Job>>,
}

impl Server {
    /// Binds the listener (port 0 picks a free port).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let state = Arc::new(ServerState::new(&config));
        // Warm-start: a readable snapshot primes the cache; a missing
        // or malformed one costs nothing but the cold misses.
        if let Some(path) = &config.cache_snapshot {
            match std::fs::read_to_string(path) {
                Ok(doc) => {
                    if let Err(e) = state.sig_cache.load_snapshot(&doc) {
                        eprintln!("mba-serve: ignoring snapshot {}: {e}", path.display());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    eprintln!("mba-serve: ignoring snapshot {}: {e}", path.display());
                }
            }
        }
        Ok(Server {
            listener,
            local_addr,
            state,
            config,
            queue,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared state (counters and caches), e.g. for tests.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serves until a `shutdown` control request, then drains and
    /// returns. Returning `Ok(())` means every accepted request was
    /// answered and flushed.
    ///
    /// # Errors
    ///
    /// Propagates listener-level I/O failures only; per-connection
    /// errors are contained. Without an epoll backend (any platform but
    /// Linux) this is the `Unsupported` error of the event loop's
    /// constructor, returned before any thread is started.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            config,
            state,
            queue,
            ..
        } = self;

        // The event loop is set up before the workers start, so a
        // platform without one leaves no worker blocked on the queue.
        let mut reactor = Reactor::new(listener, &config, Arc::clone(&state), Arc::clone(&queue))?;
        let workers: Vec<_> = (0..effective_workers(config.workers))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let state = Arc::clone(&state);
                let delay = config.worker_delay;
                std::thread::spawn(move || worker_loop(&queue, &state, delay))
            })
            .collect();
        let result = reactor.serve(workers);
        // Persist the cache across restarts; the next bind warm-starts
        // from it. Failures cost only the warm start.
        if let Some(path) = &config.cache_snapshot {
            if let Err(e) = std::fs::write(path, state.sig_cache.snapshot_json()) {
                eprintln!(
                    "mba-serve: could not write snapshot {}: {e}",
                    path.display()
                );
            }
        }
        result
    }
}

fn effective_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Decodes and dispatches one complete line. Returns `true` when the
/// line was a shutdown request (the shutdown flag is already set; the
/// caller stops reading the connection).
pub(crate) fn handle_line(
    raw: &[u8],
    state: &ServerState,
    queue: &BoundedQueue<Job>,
    writer: &Arc<ConnHandle>,
) -> bool {
    let Ok(line) = std::str::from_utf8(raw) else {
        state.counters.protocol_errors.inc();
        writer.send(&render_error(&ProtocolError::new(
            None,
            ErrorCode::Parse,
            "line is not valid UTF-8",
        )));
        return false;
    };
    if line.trim().is_empty() {
        // Blank keep-alive lines are tolerated silently.
        return false;
    }
    match decode_line(line) {
        Err(e) => {
            state.counters.protocol_errors.inc();
            writer.send(&render_error(&e));
            false
        }
        Ok(ClientMessage::Control(Control::Ping, id)) => {
            writer.send(&render_ok("ping", id, &[]));
            false
        }
        Ok(ClientMessage::Control(Control::Stats, id)) => {
            writer.send(&render_ok("stats", id, &stats_fields(state, queue)));
            false
        }
        Ok(ClientMessage::Control(Control::Shutdown, id)) => {
            state
                .ackers()
                .lock()
                .unwrap()
                .push((id, Arc::clone(writer)));
            state.begin_shutdown();
            true
        }
        Ok(ClientMessage::Simplify(request)) => {
            if state.is_shutting_down() {
                writer.send(&render_error(&ProtocolError::new(
                    Some(request.id),
                    ErrorCode::ShuttingDown,
                    "server is draining",
                )));
                return false;
            }
            let job = Job {
                request,
                received: Instant::now(),
                writer: Arc::clone(writer),
            };
            match queue.try_push(job) {
                // The post-push depth comes back from under the queue
                // lock; a separate `queue.len()` here would race with
                // concurrent pops and publish incoherent gauges.
                Ok(depth) => state.queue_depth.set(depth as i64),
                Err((why, job)) => {
                    let (code, detail) = match why {
                        PushError::Full => {
                            state.counters.overloaded.inc();
                            (
                                ErrorCode::Overloaded,
                                format!("queue full (capacity {})", queue.capacity()),
                            )
                        }
                        PushError::Closed => {
                            (ErrorCode::ShuttingDown, "server is draining".to_string())
                        }
                    };
                    job.writer.send(&render_error(&ProtocolError::new(
                        Some(job.request.id),
                        code,
                        detail,
                    )));
                }
            }
            false
        }
    }
}

fn stats_fields(state: &ServerState, queue: &BoundedQueue<Job>) -> Vec<(String, String)> {
    // Refresh the cache gauges so the snapshot below is current.
    state.sig_cache.publish_metrics(&state.obs);
    let cache = state.cache_stats();
    let c = &state.counters;
    let snapshot = state.obs.snapshot();
    let mut fields = vec![
        ("served".into(), c.served.get().to_string()),
        (
            "protocol_errors".into(),
            c.protocol_errors.get().to_string(),
        ),
        ("overloaded".into(), c.overloaded.get().to_string()),
        (
            "deadline_expired".into(),
            c.deadline_expired.get().to_string(),
        ),
        (
            "internal_errors".into(),
            c.internal_errors.get().to_string(),
        ),
        ("queue_depth".into(), queue.len().to_string()),
        ("queue_capacity".into(), queue.capacity().to_string()),
        ("cache_hits".into(), cache.hits.to_string()),
        ("cache_misses".into(), cache.misses.to_string()),
        ("cache_hit_rate".into(), format!("{:.6}", cache.hit_rate())),
        (
            "sig_cache_entries".into(),
            state.sig_cache.len().to_string(),
        ),
        (
            "sig_cache_budget".into(),
            state.sig_cache.budget().unwrap_or(0).to_string(),
        ),
        (
            "sig_evictions".into(),
            state.sig_cache.evictions().to_string(),
        ),
    ];
    for (field, metric) in [
        ("queue_wait", "serve.queue.wait.micros"),
        ("queue_service", "serve.queue.service.micros"),
    ] {
        let (total, count, p95) = snapshot
            .histogram(metric)
            .map_or((0, 0, 0), |h| (h.sum, h.count, h.approx_quantile(0.95)));
        fields.push((format!("{field}_micros_total"), total.to_string()));
        fields.push((format!("{field}_count"), count.to_string()));
        fields.push((format!("{field}_p95_micros"), p95.to_string()));
    }
    // Pipeline-stage breakdown across every width-keyed simplifier —
    // same stage set as `mba_bench::report::STAGES`.
    for stage in ["signature", "basis", "poly_reduce", "rewrite", "final_fold"] {
        let (sum, count) = snapshot
            .histogram(&format!("core.stage.{stage}.micros"))
            .map_or((0, 0), |h| (h.sum, h.count));
        fields.push((format!("stage_{stage}_micros"), sum.to_string()));
        fields.push((format!("stage_{stage}_calls"), count.to_string()));
    }
    // Candidate renders the rounds scored, declined unbuilt, and kept.
    for outcome in ["built", "declined", "won"] {
        let count = snapshot.counter(&format!("core.candidate.{outcome}"));
        fields.push((format!("candidates_{outcome}"), count.to_string()));
    }
    fields
}

/// The worker loop: drain the queue until it is closed and empty.
///
/// Each job runs under a catch-unwind guard, so a panic inside the
/// simplifier answers *that* request with an `internal` error and the
/// worker lives on — a panicking input can never strand its caller or
/// shrink the pool.
fn worker_loop(queue: &BoundedQueue<Job>, state: &ServerState, delay: Option<Duration>) {
    while let Some((job, depth)) = queue.pop() {
        state
            .queue_wait
            .record(job.received.elapsed().as_micros() as u64);
        // Post-pop depth observed under the queue lock (see try_push).
        state.queue_depth.set(depth as i64);
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        let service = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_job(&job, state);
        }));
        if outcome.is_err() {
            state.counters.internal_errors.inc();
            job.writer.send(&render_error(&ProtocolError::new(
                Some(job.request.id),
                ErrorCode::Internal,
                "worker panicked while serving this request",
            )));
        }
        state
            .queue_service
            .record(service.elapsed().as_micros() as u64);
    }
}

/// Answers one dequeued request: deadline check, parse, simplify,
/// deadline re-check, respond.
fn serve_job(job: &Job, state: &ServerState) {
    // `>=` so `deadline_ms: 0` means "already expired", matching the
    // protocol doc: the budget is the half-open interval [0, d).
    let deadline = job.request.deadline_ms.map(Duration::from_millis);
    let expired = |elapsed: Duration| deadline.is_some_and(|d| elapsed >= d);

    if expired(job.received.elapsed()) {
        return reject_deadline(job, state);
    }
    let expr: mba_expr::Expr = match job.request.expr.parse() {
        Ok(e) => e,
        Err(e) => {
            state.counters.protocol_errors.inc();
            job.writer.send(&render_error(&ProtocolError::new(
                Some(job.request.id),
                ErrorCode::Invalid,
                format!("expr does not parse: {e}"),
            )));
            return;
        }
    };
    let simplifier = state.simplifier_for(job.request.width);
    let result = simplifier.simplify_detailed(&expr);
    let elapsed = job.received.elapsed();
    if expired(elapsed) {
        return reject_deadline(job, state);
    }
    state.counters.served.inc();
    job.writer.send(&render_reply(&Reply {
        id: job.request.id,
        simplified: result.output.to_string(),
        node_count_in: expr.node_count() as u64,
        node_count_out: result.output.node_count() as u64,
        micros: elapsed.as_micros() as u64,
        cache_hit_rate: state.cache_stats().hit_rate(),
    }));
}

fn reject_deadline(job: &Job, state: &ServerState) {
    state.counters.deadline_expired.inc();
    job.writer.send(&render_error(&ProtocolError::new(
        Some(job.request.id),
        ErrorCode::Deadline,
        format!(
            "deadline of {}ms exceeded after {}us",
            job.request.deadline_ms.unwrap_or(0),
            job.received.elapsed().as_micros()
        ),
    )));
}

/// The background server thread's join handle; joining yields the
/// result of [`Server::run`].
pub type ServerHandle = std::thread::JoinHandle<std::io::Result<()>>;

/// Binds on `addr`, runs in a background thread, and returns the
/// resolved address plus the join handle — the standard harness for
/// tests and for embedding the server in another process.
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn<A: ToSocketAddrs>(
    addr: A,
    mut config: ServerConfig,
) -> std::io::Result<(SocketAddr, ServerHandle)> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    config.addr = addr.to_string();
    let server = Server::bind(config)?;
    let local = server.local_addr();
    Ok((local, std::thread::spawn(move || server.run())))
}
