//! The serve workloads: the `mba_serve` binary with one worker, driven
//! over TCP from at most two client threads and two connections.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mba_obs::json::{json_escape, parse_json, Json};

use crate::check::right_answer;
use crate::host::{gated, Gate, HostSpeed};
use crate::inputs::{repeat_frac, Input};
use crate::library::STAGES;
use crate::measure::{end_to_end, judge, peak_rss_mb, us, Answers, ColdStarts, SOLVE_REPS};
use crate::stats::{per, percentile, segmented_percentile};
use crate::{Metrics, Outcome};

/// Open-loop arrival rate, requests per second: half the `serve-closed`
/// throughput measured when the benchmark was defined (800/s), rounded
/// to 50. Fixed, so that every commit is offered the same load.
/// Arrivals are a seeded Poisson process.
pub const OPEN_RATE_RPS: f64 = 400.0;
/// Distinct inputs the open loop draws from.
pub const OPEN_POOL: usize = 4096;
/// Distinct inputs generated per second of a closed-loop run: more than
/// it can serve, so every request is new.
pub const CLOSED_POOL_PER_S: usize = 1500;
/// How long a reply may keep the client waiting before it counts as
/// missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// An open-loop run whose sender fell behind schedule by more than this
/// at the 99th percentile measured the generator, not the server.
const MAX_LATE_P99_US: f64 = 5000.0;

/// A running `mba_serve` child process.
struct Server {
    child: Child,
    addr: SocketAddr,
    // Held open so the server can keep writing to its stdout.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts the server and waits for its `listening on` line.
    fn start(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let server = Server {
            child,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            _stdout: stdout,
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err(format!("server did not report its address: {line:?}")),
        }
    }

    /// Sends one control request on a fresh connection; returns the reply.
    fn control(&self, cmd: &str) -> Result<Json, String> {
        let mut conn = Conn::open(self.addr)?;
        conn.send(&format!("{{\"control\":\"{cmd}\"}}\n"))?;
        parse_json(&conn.recv()?.ok_or("no reply to a control request")?)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to drain and exit, and waits for it.
    fn stop(mut self) -> Result<(), String> {
        self.control("shutdown")?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return status
                    .success()
                    .then_some(())
                    .ok_or_else(|| format!("server exited with {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("server did not exit after shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Both fail harmlessly when the server has already exited.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection, reading newline-delimited replies.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// The next reply line; `None` at end of stream or after
    /// [`REPLY_TIMEOUT`].
    fn recv(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line)),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// One request as the client saw it.
#[derive(Default, Clone)]
struct Exchange {
    /// When it was due (open loop) or sent (closed loop).
    due: Option<Instant>,
    sent: Option<Instant>,
    received: Option<Instant>,
    /// When the reply came, in seconds of work since the start of the
    /// measured phase.
    done_s: Option<f64>,
    /// The simplified output, when the reply was a success.
    output: Option<String>,
    /// The server's own time for the request (`micros`).
    server_us: Option<f64>,
}

impl Exchange {
    /// Records reply `line` if it answers request `id`.
    fn answer(&mut self, id: usize, line: &str, at: Instant) {
        let Ok(json) = parse_json(line.trim()) else {
            return;
        };
        let Some(obj) = json.as_obj() else { return };
        if obj.get("id").and_then(Json::as_u64) != Some(id as u64) {
            return;
        }
        self.received = Some(at);
        self.output = obj
            .get("simplified")
            .and_then(Json::as_str)
            .map(str::to_owned);
        self.server_us = obj.get("micros").and_then(Json::as_num);
    }
}

/// Exchanges, each with the index of its request line.
type Indexed = Vec<(usize, Exchange)>;

fn request_line(id: usize, input: &Input) -> String {
    format!(
        "{{\"id\":{id},\"expr\":\"{}\",\"width\":64}}\n",
        json_escape(&input.text)
    )
}

/// One `setup_s` sample: the time from starting the server to the reply
/// to the last of the probe inputs, sent one after another on one
/// connection, at reference speed. Errors when a probe answer is wrong.
fn cold_start(bin: &Path, probe: &[Input]) -> Result<f64, String> {
    let mut host = HostSpeed::spot();
    let t0 = Instant::now();
    let server = Server::start(bin)?;
    let mut conn = Conn::open(server.addr)?;
    let mut outputs = Vec::with_capacity(probe.len());
    for (id, input) in probe.iter().enumerate() {
        conn.send(&request_line(id, input))?;
        let mut x = Exchange::default();
        if let Some(line) = conn.recv()? {
            x.answer(id, &line, Instant::now());
        }
        outputs.push(x.output);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    host.spot_again();
    let t = elapsed * host.scale(0.0, f64::INFINITY);
    drop(conn);
    server.stop()?;
    match probe
        .iter()
        .zip(&outputs)
        .find(|(input, out)| !right_answer(input, out.as_deref()))
    {
        Some((input, out)) => Err(format!(
            "wrong answer {} to probe input {}",
            out.as_deref().unwrap_or("<none>"),
            input.text
        )),
        None => Ok(t),
    }
}

/// The id a reply line answers.
fn reply_id(line: &str) -> Option<usize> {
    let json = parse_json(line.trim()).ok()?;
    Some(json.as_obj()?.get("id")?.as_u64()? as usize)
}

/// Open loop: one sender thread writes request `i` at `start +
/// due_s[i]` whatever the replies do; one receiver thread reads the
/// replies. Returns the exchanges and the most requests outstanding.
fn open_loop(
    addr: SocketAddr,
    lines: &[String],
    start: Instant,
    due_s: &[f64],
) -> Result<(Vec<Exchange>, usize), String> {
    let Conn {
        mut writer,
        mut reader,
    } = Conn::open(addr)?;
    let received = AtomicUsize::new(0);
    let mut exchanges = vec![Exchange::default(); lines.len()];
    let mut outstanding_max = 0;
    let replies = std::thread::scope(|scope| -> Result<Vec<(String, Instant)>, String> {
        let receiver = scope.spawn(|| {
            let mut got = Vec::with_capacity(lines.len());
            while got.len() < lines.len() {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        got.push((line, Instant::now()));
                        received.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            got
        });
        let mut sent = Ok(());
        for (i, (line, &offset)) in lines.iter().zip(due_s).enumerate() {
            let due = start + Duration::from_secs_f64(offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            exchanges[i].due = Some(due);
            if let Err(e) = writer.write_all(line.as_bytes()) {
                sent = Err(format!("send: {e}"));
                break;
            }
            exchanges[i].sent = Some(Instant::now());
            outstanding_max = outstanding_max.max(i + 1 - received.load(Ordering::Relaxed));
        }
        let got = receiver.join().expect("receiver thread panicked");
        sent.map(|()| got)
    })?;
    for (line, at) in replies {
        if let Some(id) = reply_id(&line).filter(|&id| id < lines.len()) {
            exchanges[id].answer(id, &line, at);
            exchanges[id].done_s = Some(at.saturating_duration_since(start).as_secs_f64());
        }
    }
    Ok((exchanges, outstanding_max))
}

/// Closed loop: two connections, each sending its next request only
/// after the previous reply, through `gate`, until `limit` seconds of
/// the gate's work time have passed or `lines` ran out. Returns each
/// exchange with the index of its line, in index order; an index a
/// client took but did not send when the time was up is missing. With
/// `rss_at = Some((pid, n))`, reads the peak memory of process `pid`
/// once `n` requests are done (or at the end).
fn closed_loop(
    addr: SocketAddr,
    lines: &[String],
    gate: &Gate,
    limit: Option<Duration>,
    rss_at: Option<(&str, usize)>,
) -> Result<(Indexed, Option<f64>), String> {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let rss_mb = Mutex::new(None);
    let stop_s = limit.map(|l| l.as_secs_f64());
    let client = || -> Result<Indexed, String> {
        let mut conn = Conn::open(addr)?;
        let mut mine = Vec::new();
        loop {
            let request = gate.request();
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= lines.len() || stop_s.is_some_and(|s| gate.now_s() >= s) {
                return Ok(mine);
            }
            let sent = Instant::now();
            conn.send(&lines[i])?;
            let mut x = Exchange {
                due: Some(sent),
                sent: Some(sent),
                ..Exchange::default()
            };
            let reply = conn.recv()?;
            if let Some(line) = &reply {
                x.answer(i, line, Instant::now());
                x.done_s = Some(gate.now_s());
            }
            drop(request);
            mine.push((i, x));
            let count = done.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some((pid, _)) = rss_at.filter(|&(_, n)| n == count) {
                *rss_mb.lock().expect("no client panics holding it") = Some(peak_rss_mb(pid));
            }
            if reply.is_none() {
                // No reply in time: this connection is out of step.
                return Ok(mine);
            }
        }
    };
    let results: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2).map(|_| scope.spawn(client)).collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut exchanges = Vec::new();
    for r in results {
        exchanges.extend(r?);
    }
    exchanges.sort_by_key(|&(i, _)| i);
    let rss_mb = rss_mb.into_inner().expect("clients finished");
    let rss_mb = rss_mb.or_else(|| rss_at.map(|(pid, _)| peak_rss_mb(pid)));
    Ok((exchanges, rss_mb))
}

fn stats_num(stats: &Json, field: &str) -> f64 {
    stats
        .as_obj()
        .and_then(|o| o.get(field))
        .and_then(Json::as_num)
        .unwrap_or(0.0)
}

/// Which serve workload to run.
#[derive(Clone, Copy)]
pub enum Loop<'a> {
    /// Request `i` sent `due_s[i]` seconds after the start, to a server
    /// that has already answered each input once.
    Open(&'a [f64]),
    /// Two requests in flight.
    Closed,
}

/// Runs a serve workload against the `mba_serve` binary at `bin`.
/// `picks` holds the pool index of each request in order. Untraced runs
/// also time cold starts on `probe`, each on a server of its own, while
/// the gate of a closed loop is shut: during the measured phase of
/// `serve-closed`, and during the warm-up of `serve-open`, whose open
/// loop cannot pause. Digests and the node ratio cover the first
/// `fixed_requests` requests; the closed loop reads the server's peak
/// memory after that many.
#[allow(clippy::too_many_arguments)]
pub fn run(
    bin: &Path,
    kind: Loop,
    pool: &[Input],
    picks: &[usize],
    probe: &[Input],
    seconds: f64,
    trace: bool,
    fixed_requests: usize,
) -> Result<Outcome, String> {
    let lines: Vec<String> = picks
        .iter()
        .enumerate()
        .map(|(id, &p)| request_line(id, &pool[p]))
        .collect();
    let mut cold = (!trace).then(|| ColdStarts::new(|| cold_start(bin, probe)));
    let server = Server::start(bin)?;
    let pid = server.pid();
    // Server counters before the measured phase; `Null` reads as zeros.
    let mut before = Json::Null;
    let mut warm = Vec::new();
    if let Loop::Open(_) = kind {
        // A resident server has seen its inputs before: the whole pool
        // is sent once, untimed, first.
        let warmup: Vec<String> = pool
            .iter()
            .enumerate()
            .map(|(id, input)| request_line(id, input))
            .collect();
        let gate = Gate::new();
        let progress = || gate.requests() as f64 / warmup.len() as f64;
        let between = || cold.iter_mut().for_each(|c| c.take_due(progress()));
        let work = || closed_loop(server.addr, &warmup, &gate, None, None);
        warm = gated(&gate, between, work).0?.0;
        before = server.control("stats")?;
    }
    // Only the closed loop's times are scaled to reference speed. The
    // open loop's latency is set by its arrival schedule and transport,
    // not by how fast the host runs, and its sender cannot pause for the
    // yardstick; its `host` has no samples, so it scales by 1.
    let (measured, host, yardstick_us) = match kind {
        Loop::Open(due_s) => {
            let start = Instant::now() + Duration::from_millis(20);
            let measured = open_loop(server.addr, &lines, start, due_s).map(|(x, outstanding)| {
                let x: Indexed = x.into_iter().enumerate().collect();
                (x, outstanding, peak_rss_mb(&pid))
            });
            (measured, HostSpeed::new(), HostSpeed::spot().median_us())
        }
        Loop::Closed => {
            let gate = Gate::new();
            let limit = Some(Duration::from_secs_f64(seconds));
            let rss_at = Some((pid.as_str(), fixed_requests));
            let between = || {
                cold.iter_mut()
                    .for_each(|c| c.take_due(gate.now_s() / seconds))
            };
            let work = || closed_loop(server.addr, &lines, &gate, limit, rss_at);
            let (measured, host) = gated(&gate, between, work);
            let measured = measured.map(|(x, rss)| (x, 2, rss.unwrap_or(f64::NAN)));
            let yardstick_us = host.median_us();
            (measured, host, yardstick_us)
        }
    };
    let (exchanges, outstanding_max, rss_mb) = measured?;
    let after = server.control("stats")?;
    server.stop()?;
    let setup = cold
        .map(ColdStarts::finish)
        .transpose()?
        .unwrap_or_default();
    let stat = |field: &str| stats_num(&after, field) - stats_num(&before, field);

    let gap = |a: Option<Instant>, b: Option<Instant>| Some(us(b?.checked_duration_since(a?)?));
    // Warm-up answers are checked (they are outputs too) but not timed.
    let mut answers = Answers {
        untimed: warm.len(),
        ..Answers::default()
    };
    let requests = warm
        .iter()
        .map(|(i, x)| (x, *i))
        .chain(exchanges.iter().map(|(i, x)| (x, picks[*i])));
    for (x, p) in requests {
        answers.inputs.push(&pool[p]);
        answers.outputs.push(x.output.clone());
        let latency = gap(x.due, x.received).filter(|_| x.output.is_some());
        answers.latency_us.push(latency.unwrap_or(f64::INFINITY));
        // A request without a reply ends when the one before it did.
        let done = x.done_s.or(answers.done_s.last().copied()).unwrap_or(0.0);
        answers.done_s.push(done);
    }
    let reps = if trace { 1 } else { SOLVE_REPS };
    let mut j = judge(&answers, reps, fixed_requests);
    let exchanges: Vec<&Exchange> = exchanges.iter().map(|(_, x)| x).collect();
    let late: Vec<f64> = exchanges
        .iter()
        .filter_map(|x| gap(x.due, x.sent))
        .collect();
    // Judged per segment like the latencies it would distort, so that a
    // stall of the whole host in one segment does not void the run.
    let late_p99 = segmented_percentile(&late, 0.99);
    let mut notes = vec![];
    if matches!(kind, Loop::Open(_)) && late_p99 > MAX_LATE_P99_US {
        notes.push(format!(
            "invalid run: the sender ran {late_p99:.0} us late at p99 (limit {MAX_LATE_P99_US} us)"
        ));
    }
    let metrics = if trace {
        let mut m = Metrics::new();
        let mut server_us: Vec<f64> = exchanges.iter().filter_map(|x| x.server_us).collect();
        let mut transport: Vec<f64> = exchanges
            .iter()
            .filter_map(|x| Some(gap(x.sent, x.received)? - x.server_us?))
            .collect();
        let served = stat("served") as usize;
        m.insert("serve.server_us.p50", percentile(&mut server_us, 0.5));
        m.insert("serve.server_us.p99", percentile(&mut server_us, 0.99));
        m.insert("serve.transport_us.p50", percentile(&mut transport, 0.5));
        m.insert("serve.transport_us.p99", percentile(&mut transport, 0.99));
        m.insert(
            "serve.queue_wait_us.mean",
            per(stat("queue_wait_micros_total"), served),
        );
        m.insert(
            "serve.service_us.mean",
            per(stat("queue_service_micros_total"), served),
        );
        // The server's `cache_*` counters are its SigCache's. It does not
        // export its lookup tables' counters, so `core.lookup_hit_frac`
        // reads 0 here.
        let (hits, misses) = (stat("cache_hits"), stat("cache_misses"));
        m.insert("sig.cache_hit_frac", per(hits, (hits + misses) as usize));
        m.insert("sig.evictions", stat("sig_evictions"));
        // The server reports five of the seven stages; the other two
        // read 0. Times are per request served.
        for (stage, us_name, calls_name) in STAGES {
            m.insert(us_name, per(stat(&format!("stage_{stage}_micros")), served));
            m.insert(calls_name, stat(&format!("stage_{stage}_calls")));
        }
        m.insert("loadgen.late_us.p99", late_p99);
        m.insert("loadgen.outstanding_max", outstanding_max as f64);
        m.insert("host.yardstick_us", yardstick_us);
        m.extend(std::mem::take(&mut j.solve.metrics));
        // The open loop's warm-up made every measured request a repeat.
        let repeats = match kind {
            Loop::Open(_) => 1.0,
            Loop::Closed => repeat_frac(answers.inputs.iter().map(|i| i.text.as_str())),
        };
        m.insert("workload.repeat_frac", repeats);
        m
    } else {
        end_to_end(&answers, &j, &setup, rss_mb, &host)
    };
    Ok(Outcome {
        attempted: answers.outputs.len(),
        failed: j.failed(),
        digest: answers.digest(fixed_requests),
        notes,
        yardstick_us,
        metrics,
    })
}
