//! Load generator for `mba_serve`: replays a deterministic
//! generator-built corpus (the `mba-verify` case stream — mixed
//! linear / polynomial / non-polynomial obfuscations plus structural
//! random ASTs), then writes `BENCH_serve.json` with throughput,
//! p50/p95/p99 latency, error counts, and end-of-run cache statistics.
//!
//! ```text
//! mba_loadgen [--addr HOST:PORT] [--requests N] [--concurrency N]
//!             [--mode closed|open] [--rate RPS]
//!             [--seed N] [--width 1..=64] [--deadline-ms N]
//!             [--obfuscated-fraction F] [--no-shutdown]
//!             [--require-warming] [--allow-errors]
//! ```
//!
//! Two arrival models:
//!
//! * **closed** (default): `--concurrency` synchronous clients, each
//!   sending its next request the moment the previous response lands.
//!   Offered load adapts to server speed — good for latency floors,
//!   blind to queueing collapse.
//! * **open**: requests depart on a fixed schedule (`--rate` per
//!   second, round-robin across `--concurrency` pre-opened
//!   connections) regardless of completions, the arrival model real
//!   front-ends face. Latency is measured from the *scheduled* send
//!   time, so server-side queueing is charged to the server. The open
//!   mode drives all connections from one event loop (the same epoll
//!   shim the server's reactor uses), which is what makes 10k+
//!   connection runs possible from a single process.
//!
//! Exit status: 0 only when every request was answered without an
//! error response (unless `--allow-errors`) and, under
//! `--require-warming`, the shared cache's hit rate was strictly
//! higher over the second half of the run than the first.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mba_bench::report::{percentile, BenchReport};
use mba_serve::protocol::json_escape;
use mba_serve::{parse_json, Client};
use mba_verify::{generate_case, CaseConfig};
use mio::{Events, Interest, Poll, Token};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadMode {
    Closed,
    Open,
}

#[derive(Debug, Clone)]
struct LoadConfig {
    addr: String,
    requests: usize,
    concurrency: usize,
    mode: LoadMode,
    /// Open-loop arrival rate, requests per second.
    rate: f64,
    seed: u64,
    width: u32,
    deadline_ms: Option<u64>,
    obfuscated_fraction: f64,
    shutdown: bool,
    require_warming: bool,
    allow_errors: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7474".into(),
            requests: 2000,
            concurrency: 8,
            mode: LoadMode::Closed,
            rate: 500.0,
            seed: 42,
            width: 64,
            deadline_ms: None,
            obfuscated_fraction: 0.75,
            shutdown: true,
            require_warming: false,
            allow_errors: false,
        }
    }
}

fn usage() -> String {
    "usage: mba_loadgen [--addr HOST:PORT] [--requests N] [--concurrency N] \
     [--mode closed|open] [--rate RPS] [--seed N] [--width 1..=64] \
     [--deadline-ms N] [--obfuscated-fraction F] [--no-shutdown] \
     [--require-warming] [--allow-errors]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<LoadConfig, String> {
    let mut config = LoadConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut take = |name: &str| -> Result<&String, String> {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value\n{}", usage()))
        };
        match flag.as_str() {
            "--addr" => config.addr = take("--addr")?.clone(),
            "--requests" => config.requests = parse_num(take("--requests")?)?,
            "--concurrency" => {
                config.concurrency = parse_num(take("--concurrency")?)?;
                if config.concurrency == 0 {
                    return Err("--concurrency must be positive".into());
                }
            }
            "--mode" => {
                config.mode = match take("--mode")?.as_str() {
                    "closed" => LoadMode::Closed,
                    "open" => LoadMode::Open,
                    other => return Err(format!("unknown mode `{other}` (closed|open)")),
                };
            }
            "--rate" => {
                config.rate = parse_num(take("--rate")?)?;
                if !config.rate.is_finite() || config.rate <= 0.0 {
                    return Err("--rate must be a positive number".into());
                }
            }
            "--seed" => config.seed = parse_num(take("--seed")?)?,
            "--width" => {
                config.width = parse_num(take("--width")?)?;
                if !(1..=64).contains(&config.width) {
                    return Err("--width must be in 1..=64".into());
                }
            }
            "--deadline-ms" => config.deadline_ms = Some(parse_num(take("--deadline-ms")?)?),
            "--obfuscated-fraction" => {
                config.obfuscated_fraction = parse_num(take("--obfuscated-fraction")?)?;
                if !(0.0..=1.0).contains(&config.obfuscated_fraction) {
                    return Err("--obfuscated-fraction must be in 0..=1".into());
                }
            }
            "--no-shutdown" => config.shutdown = false,
            "--require-warming" => config.require_warming = true,
            "--allow-errors" => config.allow_errors = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if config.mode == LoadMode::Open && !mio::backend_available() {
        return Err("--mode open needs the epoll backend (Linux only)".into());
    }
    Ok(config)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("malformed numeric value `{s}`"))
}

/// One completed request, as observed by the client.
struct Sample {
    /// Completion instant, as an offset from run start (for the
    /// first-half / second-half cache-warming split).
    completed_at_micros: u64,
    /// Observed latency: round-trip time in closed mode; time from the
    /// *scheduled* departure in open mode.
    latency_micros: u64,
    /// The server-reported cumulative cache hit rate at completion.
    cache_hit_rate: f64,
    /// The error code, when the response was an error.
    error: Option<String>,
}

/// Renders one simplify request, byte-compatible with
/// [`Client::simplify`].
fn encode_request(id: u64, expr: &str, width: u32, deadline_ms: Option<u64>) -> String {
    let mut line = format!(
        "{{\"id\":{},\"expr\":\"{}\",\"width\":{}",
        id,
        json_escape(expr),
        width
    );
    if let Some(d) = deadline_ms {
        line.push_str(&format!(",\"deadline_ms\":{d}"));
    }
    line.push('}');
    line
}

/// Closed loop: `concurrency` synchronous clients racing down a shared
/// work list. Returns (samples, transport errors, measured wall time).
fn run_closed(config: &LoadConfig, exprs: &[String]) -> (Vec<Sample>, u64, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut transport_errors = 0u64;
    let mut samples: Vec<Sample> = Vec::with_capacity(config.requests);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.concurrency)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut failures = 0u64;
                    let mut client = match Client::connect(&config.addr) {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("connect to {} failed: {e}", config.addr);
                            return (local, 1);
                        }
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(expr) = exprs.get(i) else { break };
                        let sent = Instant::now();
                        match client.simplify(i as u64, expr, config.width, config.deadline_ms) {
                            Ok(response) => {
                                let latency = sent.elapsed();
                                let mismatched = response.id() != Some(i as u64);
                                local.push(Sample {
                                    completed_at_micros: start.elapsed().as_micros() as u64,
                                    latency_micros: latency.as_micros() as u64,
                                    cache_hit_rate: response
                                        .num_field("cache_hit_rate")
                                        .unwrap_or(0.0),
                                    error: response
                                        .error()
                                        .map(str::to_string)
                                        .or(mismatched.then(|| "id_mismatch".into())),
                                });
                            }
                            Err(e) => {
                                eprintln!("request {i} failed: {e}");
                                failures += 1;
                            }
                        }
                    }
                    (local, failures)
                })
            })
            .collect();
        for h in handles {
            let (local, failures) = h.join().expect("client thread panicked");
            samples.extend(local);
            transport_errors += failures;
        }
    });
    (samples, transport_errors, start.elapsed())
}

/// One open-loop connection's client-side state.
struct OpenConn {
    stream: TcpStream,
    /// Request bytes scheduled but not yet written.
    out: VecDeque<u8>,
    /// Partial response line.
    in_buf: Vec<u8>,
    /// Requests sent and not yet answered.
    outstanding: u64,
    /// Current registration includes WRITABLE.
    want_write: bool,
    dead: bool,
}

/// How long past the scheduled end of sending the open loop waits for
/// stragglers before declaring the missing responses lost.
const OPEN_LOOP_GRACE: Duration = Duration::from_secs(120);

/// Open loop: pre-connect `concurrency` sockets, then depart requests
/// on the `--rate` schedule round-robin across them, all driven from
/// one epoll event loop. Returns (samples, transport errors, measured
/// wall time) — the connect phase is excluded from the wall time.
fn run_open(config: &LoadConfig, exprs: &[String]) -> Result<(Vec<Sample>, u64, Duration), String> {
    let n = exprs.len();
    let mut poll = Poll::new().map_err(|e| format!("epoll setup failed: {e}"))?;
    let mut events = Events::with_capacity(1024);

    // Phase 1: establish every connection before the clock starts, so
    // measured latency is pure request service, not handshake queueing.
    // Accept backlog overflow shows up as refused/reset connects;
    // retry with a small backoff.
    let mut conns: Vec<OpenConn> = Vec::with_capacity(config.concurrency);
    for c in 0..config.concurrency {
        let mut attempt = 0;
        let stream = loop {
            match TcpStream::connect(&config.addr) {
                Ok(s) => break s,
                Err(e) => {
                    attempt += 1;
                    if attempt >= 200 {
                        return Err(format!("connection {c} failed after {attempt} tries: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking failed: {e}"))?;
        poll.registry()
            .register(&stream, Token(c), Interest::READABLE)
            .map_err(|e| format!("register failed: {e}"))?;
        conns.push(OpenConn {
            stream,
            out: VecDeque::new(),
            in_buf: Vec::new(),
            outstanding: 0,
            want_write: false,
            dead: false,
        });
        if (c + 1) % 2000 == 0 {
            eprintln!("  {} connections open ...", c + 1);
        }
    }
    eprintln!("all {} connections open", conns.len());

    // Phase 2: scheduled departures. Request `i` departs at
    // `start + i/rate` on connection `i % C`; its latency is charged
    // from that scheduled instant.
    let start = Instant::now();
    let due_micros = |i: usize| (i as f64 / config.rate * 1e6) as u64;
    let mut next_send = 0usize;
    let mut accounted = 0usize;
    let mut transport_errors = 0u64;
    let mut samples: Vec<Sample> = Vec::with_capacity(n);
    let deadline = start + Duration::from_secs_f64(n as f64 / config.rate) + OPEN_LOOP_GRACE;

    while accounted < n {
        let now = Instant::now();
        if now > deadline {
            let missing = n - accounted;
            eprintln!("open loop timed out with {missing} responses outstanding");
            transport_errors += missing as u64;
            break;
        }
        // Depart everything that is due.
        while next_send < n && now.duration_since(start).as_micros() as u64 >= due_micros(next_send)
        {
            let i = next_send;
            next_send += 1;
            let c = i % conns.len();
            let conn = &mut conns[c];
            if conn.dead {
                transport_errors += 1;
                accounted += 1;
                continue;
            }
            let line = encode_request(i as u64, &exprs[i], config.width, config.deadline_ms);
            conn.out.extend(line.as_bytes());
            conn.out.push_back(b'\n');
            conn.outstanding += 1;
            flush_open(conn);
            sync_interest(&poll, c, conn);
            if conn.dead {
                // The write failed: this request and everything else
                // outstanding on the connection is lost.
                let lost = conn.outstanding;
                conn.outstanding = 0;
                transport_errors += lost;
                accounted += lost as usize;
                let _ = poll.registry().deregister(&conn.stream);
            }
        }
        if accounted >= n {
            break;
        }
        // Sleep until the next departure (or a tick, for stragglers).
        let timeout = if next_send < n {
            let due = start + Duration::from_micros(due_micros(next_send));
            due.saturating_duration_since(Instant::now())
                .min(Duration::from_millis(100))
        } else {
            Duration::from_millis(100)
        };
        poll.poll(&mut events, Some(timeout))
            .map_err(|e| format!("poll failed: {e}"))?;
        for event in events.iter() {
            let Token(c) = event.token();
            let conn = &mut conns[c];
            if conn.dead {
                continue;
            }
            if event.is_writable() {
                flush_open(conn);
            }
            if event.is_readable() {
                read_open(conn, start, &due_micros, &mut samples, &mut accounted);
            }
            if conn.dead || (event.is_read_closed() && conn.outstanding > 0) {
                conn.dead = true;
                let lost = conn.outstanding;
                conn.outstanding = 0;
                transport_errors += lost;
                accounted += lost as usize;
                let _ = poll.registry().deregister(&conn.stream);
                continue;
            }
            sync_interest(&poll, c, conn);
        }
    }
    Ok((samples, transport_errors, start.elapsed()))
}

/// Writes as much of the connection's out-buffer as the socket takes.
fn flush_open(conn: &mut OpenConn) {
    while !conn.out.is_empty() {
        let (head, _) = conn.out.as_slices();
        match (&conn.stream).write(head) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(written) => {
                conn.out.drain(..written);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Reads available response bytes and records a sample per line.
fn read_open(
    conn: &mut OpenConn,
    start: Instant,
    due_micros: &dyn Fn(usize) -> u64,
    samples: &mut Vec<Sample>,
    accounted: &mut usize,
) {
    let mut scratch = [0u8; 4096];
    loop {
        match (&conn.stream).read(&mut scratch) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(got) => conn.in_buf.extend_from_slice(&scratch[..got]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    while let Some(pos) = conn.in_buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = conn.in_buf.drain(..=pos).collect();
        let completed_at = start.elapsed().as_micros() as u64;
        let parsed = std::str::from_utf8(&line[..line.len() - 1])
            .ok()
            .and_then(|s| parse_json(s).ok());
        let Some(json) = parsed else {
            // An unparseable response counts as an error sample so the
            // run cannot pass with garbage on the wire.
            samples.push(Sample {
                completed_at_micros: completed_at,
                latency_micros: 0,
                cache_hit_rate: 0.0,
                error: Some("unparseable".into()),
            });
            *accounted += 1;
            conn.outstanding = conn.outstanding.saturating_sub(1);
            continue;
        };
        let field = |name: &str| json.as_obj().and_then(|o| o.get(name).cloned());
        let id = field("id").and_then(|j| j.as_u64());
        let latency = id.map_or(0, |id| completed_at.saturating_sub(due_micros(id as usize)));
        samples.push(Sample {
            completed_at_micros: completed_at,
            latency_micros: latency,
            cache_hit_rate: field("cache_hit_rate")
                .and_then(|j| j.as_num())
                .unwrap_or(0.0),
            error: field("error")
                .and_then(|j| j.as_str().map(str::to_string))
                .or_else(|| id.is_none().then(|| "missing_id".into())),
        });
        *accounted += 1;
        conn.outstanding = conn.outstanding.saturating_sub(1);
    }
}

/// Reregisters the connection when its write interest changed.
fn sync_interest(poll: &Poll, token: usize, conn: &mut OpenConn) {
    if conn.dead {
        return;
    }
    let want_write = !conn.out.is_empty();
    if want_write == conn.want_write {
        return;
    }
    let interest = if want_write {
        Interest::READABLE | Interest::WRITABLE
    } else {
        Interest::READABLE
    };
    if poll
        .registry()
        .reregister(&conn.stream, Token(token), interest)
        .is_err()
    {
        conn.dead = true;
        return;
    }
    conn.want_write = want_write;
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    eprintln!(
        "generating {} cases (seed {}, obfuscated fraction {:.2}) ...",
        config.requests, config.seed, config.obfuscated_fraction
    );
    let case_config = CaseConfig {
        obfuscated_fraction: config.obfuscated_fraction,
        ..CaseConfig::default()
    };
    let exprs: Vec<String> = (0..config.requests as u64)
        .map(|i| generate_case(config.seed, i, &case_config).expr.to_string())
        .collect();

    let (samples, transport_errors, wall) = match config.mode {
        LoadMode::Closed => {
            eprintln!(
                "replaying against {} on {} closed-loop connections ...",
                config.addr, config.concurrency
            );
            run_closed(&config, &exprs)
        }
        LoadMode::Open => {
            eprintln!(
                "open loop against {}: {} connections, {:.0} req/s ...",
                config.addr, config.concurrency, config.rate
            );
            match run_open(&config, &exprs) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("open loop failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    // ---------------------------------------------------------------
    // Aggregate.
    // ---------------------------------------------------------------
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_micros as f64).collect();
    let p50 = percentile(&latencies, 50.0);
    let p95 = percentile(&latencies, 95.0);
    let p99 = percentile(&latencies, 99.0);
    let mean = mba_bench::report::mean(latencies.iter().copied());
    let error_responses = samples.iter().filter(|s| s.error.is_some()).count() as u64;
    let overload_responses = samples
        .iter()
        .filter(|s| s.error.as_deref() == Some("overloaded"))
        .count() as u64;
    let throughput = samples.len() as f64 / wall.as_secs_f64().max(1e-9);

    // Cache warming: cumulative hit rate as reported per response,
    // averaged over the first and second halves of the run (completion
    // order). A warm shared cache makes the second strictly higher.
    let mut by_completion: Vec<&Sample> = samples.iter().collect();
    by_completion.sort_by_key(|s| s.completed_at_micros);
    let mid = by_completion.len() / 2;
    let half_rate =
        |half: &[&Sample]| mba_bench::report::mean(half.iter().map(|s| s.cache_hit_rate));
    let (first_half, second_half) = by_completion.split_at(mid);
    let rate_first = half_rate(first_half);
    let rate_second = half_rate(second_half);
    let warmed = rate_second > rate_first;

    println!(
        "{} requests in {:.3}s  ({:.0} req/s, {} connections, {} loop)",
        samples.len(),
        wall.as_secs_f64(),
        throughput,
        config.concurrency,
        if config.mode == LoadMode::Open {
            "open"
        } else {
            "closed"
        },
    );
    println!("latency micros: p50={p50:.0} p95={p95:.0} p99={p99:.0} mean={mean:.0}");
    println!(
        "errors: {error_responses} (overloaded: {overload_responses}, transport: {transport_errors})"
    );
    println!(
        "cache hit rate: first half {rate_first:.4} -> second half {rate_second:.4} ({})",
        if warmed { "warming" } else { "NOT warming" }
    );

    // ---------------------------------------------------------------
    // End-of-run server stats + graceful shutdown.
    // ---------------------------------------------------------------
    let mut served = 0u64;
    let mut overloaded_server = 0u64;
    let mut deadline_expired = 0u64;
    let mut internal_errors = 0u64;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut cache_hit_rate_end = 0.0f64;
    let mut sig_cache_entries = 0u64;
    let mut sig_cache_budget = 0u64;
    let mut sig_evictions = 0u64;
    // Server-side stage breakdown and queue timings, copied verbatim
    // (they are already integers) from the stats response into the
    // report so `BENCH_serve.json` carries the per-stage story.
    let mut server_breakdown: Vec<(String, u64)> = Vec::new();
    let mut clean_shutdown = !config.shutdown;
    match Client::connect(&config.addr) {
        Err(e) => eprintln!("stats connection failed: {e}"),
        Ok(mut control) => {
            match control.stats() {
                Ok(stats) => {
                    served = stats.u64_field("served").unwrap_or(0);
                    overloaded_server = stats.u64_field("overloaded").unwrap_or(0);
                    deadline_expired = stats.u64_field("deadline_expired").unwrap_or(0);
                    internal_errors = stats.u64_field("internal_errors").unwrap_or(0);
                    cache_hits = stats.u64_field("cache_hits").unwrap_or(0);
                    cache_misses = stats.u64_field("cache_misses").unwrap_or(0);
                    cache_hit_rate_end = stats.num_field("cache_hit_rate").unwrap_or(0.0);
                    sig_cache_entries = stats.u64_field("sig_cache_entries").unwrap_or(0);
                    sig_cache_budget = stats.u64_field("sig_cache_budget").unwrap_or(0);
                    sig_evictions = stats.u64_field("sig_evictions").unwrap_or(0);
                    for stage in mba_bench::report::STAGES {
                        for suffix in ["micros", "calls"] {
                            let field = format!("stage_{stage}_{suffix}");
                            server_breakdown
                                .push((field.clone(), stats.u64_field(&field).unwrap_or(0)));
                        }
                    }
                    for field in [
                        "queue_wait_micros_total",
                        "queue_wait_count",
                        "queue_wait_p95_micros",
                        "queue_service_micros_total",
                        "queue_service_count",
                        "queue_service_p95_micros",
                    ] {
                        server_breakdown
                            .push((field.to_string(), stats.u64_field(field).unwrap_or(0)));
                    }
                    println!(
                        "server: served={served} overloaded={overloaded_server} \
                         deadline_expired={deadline_expired} internal_errors={internal_errors} \
                         cache={cache_hits}h/{cache_misses}m ({cache_hit_rate_end:.4}) \
                         sig_cache={sig_cache_entries}/{sig_cache_budget} evictions={sig_evictions}"
                    );
                }
                Err(e) => eprintln!("stats request failed: {e}"),
            }
            if config.shutdown {
                match control.shutdown() {
                    Ok(ack) if ack.str_field("ok") == Some("shutdown") => {
                        println!(
                            "graceful shutdown acknowledged (drained, {} served)",
                            ack.u64_field("served").unwrap_or(0)
                        );
                        clean_shutdown = true;
                    }
                    Ok(other) => eprintln!("unexpected shutdown reply: {}", other.raw),
                    Err(e) => eprintln!("shutdown failed: {e}"),
                }
            }
        }
    }

    let mut telemetry = BenchReport::new("serve");
    telemetry
        .push_int("requests", config.requests as u64)
        .push_int("completed", samples.len() as u64)
        .push_int("concurrency", config.concurrency as u64)
        .push_int("connections", config.concurrency as u64)
        .push_bool("open_loop", config.mode == LoadMode::Open)
        .push_float(
            "target_rate_rps",
            if config.mode == LoadMode::Open {
                config.rate
            } else {
                0.0
            },
        )
        .push_int("seed", config.seed)
        .push_int("width", u64::from(config.width))
        .push_float("wall_clock_s", wall.as_secs_f64())
        .push_float("throughput_rps", throughput)
        .push_float("latency_p50_micros", p50)
        .push_float("latency_p95_micros", p95)
        .push_float("latency_p99_micros", p99)
        .push_float("latency_mean_micros", mean)
        .push_int("error_responses", error_responses)
        .push_int("overload_responses", overload_responses)
        .push_int("transport_errors", transport_errors)
        .push_int("server_served", served)
        .push_int("server_overloaded", overloaded_server)
        .push_int("server_deadline_expired", deadline_expired)
        .push_int("server_internal_errors", internal_errors)
        .push_int("cache_hits", cache_hits)
        .push_int("cache_misses", cache_misses)
        .push_float("cache_hit_rate", cache_hit_rate_end)
        .push_float("cache_hit_rate_first_half", rate_first)
        .push_float("cache_hit_rate_second_half", rate_second)
        .push_int("sig_cache_entries", sig_cache_entries)
        .push_int("sig_cache_budget", sig_cache_budget)
        .push_int("sig_evictions", sig_evictions)
        .push_bool("cache_warming", warmed)
        .push_bool("clean_shutdown", clean_shutdown);
    for (field, value) in &server_breakdown {
        telemetry.push_int(field, *value);
    }
    match telemetry.write() {
        Ok(path) => eprintln!("telemetry written to {}", path.display()),
        Err(e) => eprintln!("telemetry write failed: {e}"),
    }

    let incomplete = samples.len() != config.requests;
    let errored = error_responses > 0 || transport_errors > 0 || incomplete;
    if errored && !config.allow_errors {
        eprintln!("FAIL: errors present (or run incomplete)");
        return ExitCode::FAILURE;
    }
    if config.require_warming && !warmed {
        eprintln!("FAIL: cache hit rate did not rise in the second half");
        return ExitCode::FAILURE;
    }
    if config.shutdown && !clean_shutdown {
        eprintln!("FAIL: graceful shutdown not acknowledged");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
