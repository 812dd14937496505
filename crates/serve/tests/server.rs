//! End-to-end serving behaviour: correctness of results, shared-cache
//! warming, per-request deadlines, queue overload (backpressure), and
//! graceful drain-then-exit shutdown.

use std::time::Duration;

use mba_serve::{server, Client, ServerConfig};

fn harness(config: ServerConfig) -> (std::net::SocketAddr, server::ServerHandle) {
    server::spawn("127.0.0.1:0", config).expect("spawn server")
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client
}

#[test]
fn serves_the_papers_examples_end_to_end() {
    let (addr, handle) = harness(ServerConfig::default());
    let mut client = connect(addr);
    for (id, expr, want) in [
        (0, "2*(x|y) - (~x&y) - (x&~y)", "x+y"),
        (1, "(x&~y)*(~x&y) + (x&y)*(x|y)", "x*y"),
        (2, "x + y - 2*(x&y)", "x^y"),
        (3, "~(x - 1)", "-x"),
        (4, "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)", "x-y+z"),
    ] {
        let r = client.simplify(id, expr, 64, None).unwrap();
        assert!(r.is_ok(), "`{expr}` errored: {}", r.raw);
        assert_eq!(r.str_field("simplified"), Some(want), "`{expr}`");
        assert_eq!(r.id(), Some(id));
        assert!(r.u64_field("node_count_in").unwrap() >= r.u64_field("node_count_out").unwrap());
        assert!(r.field("micros").is_some());
        assert!(r.field("cache_hit_rate").is_some());
    }
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn stats_count_candidates_built_declined_and_won() {
    let (addr, handle) = harness(ServerConfig::default());
    let mut client = connect(addr);
    // A linear MBA whose ∧-basis render wins its round, and a pure
    // bitwise chain whose render mixes `+` with `&` and is declined.
    for (id, expr, want) in [
        (0, "2*(x|y) - (~x&y) - (x&~y)", "x+y"),
        (1, "a ^ b ^ c", "a^b^c"),
    ] {
        let r = client.simplify(id, expr, 64, None).unwrap();
        assert_eq!(r.str_field("simplified"), Some(want), "{}", r.raw);
    }
    let stats = client.stats().unwrap();
    let count = |field| {
        stats
            .u64_field(field)
            .unwrap_or_else(|| panic!("stats lack `{field}`: {}", stats.raw))
    };
    assert!(count("candidates_built") >= 1, "{}", stats.raw);
    assert!(count("candidates_declined") >= 1, "{}", stats.raw);
    assert!(count("candidates_won") >= 1, "{}", stats.raw);
    assert!(count("candidates_won") <= count("candidates_built"));
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn synthesis_tier_is_served_by_default_and_gated_by_config() {
    // A parity opaque zero ((x*(x+1)) & 1 ≡ 0) keeps the expression
    // outside the algebraic pipeline's reach; only the synthesis tier
    // recovers `x+y`. With `use_synthesis: false` the server must leave
    // the residual unreduced rather than guess.
    let residual = "x + y + ((x*(x+1)) & 1)";
    let (addr, handle) = harness(ServerConfig::default());
    let mut client = connect(addr);
    let r = client.simplify(0, residual, 64, None).unwrap();
    assert_eq!(r.str_field("simplified"), Some("x+y"), "{}", r.raw);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    let config = ServerConfig {
        use_synthesis: false,
        ..ServerConfig::default()
    };
    let (addr, handle) = harness(config);
    let mut client = connect(addr);
    let r = client.simplify(0, residual, 64, None).unwrap();
    assert!(r.is_ok(), "{}", r.raw);
    assert_ne!(r.str_field("simplified"), Some("x+y"), "{}", r.raw);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn width_is_honoured_per_request() {
    let (addr, handle) = harness(ServerConfig::default());
    let mut client = connect(addr);
    // 255 + 1 wraps to 0 at width 8 but not at width 64, so the
    // constant folds differently per ring.
    let r8 = client.simplify(0, "x + 255 + 1", 8, None).unwrap();
    assert_eq!(r8.str_field("simplified"), Some("x"), "{}", r8.raw);
    let r64 = client.simplify(1, "x + 255 + 1", 64, None).unwrap();
    assert_eq!(r64.str_field("simplified"), Some("x+256"), "{}", r64.raw);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn shared_cache_warms_across_connections() {
    let (addr, handle) = harness(ServerConfig::default());
    let first_rate = {
        let mut a = connect(addr);
        a.simplify(0, "x*y + 2*(x|y) - (~x&y) - (x&~y)", 64, None)
            .unwrap()
            .num_field("cache_hit_rate")
            .unwrap()
    };
    // A *different* connection reuses the same resident signature
    // cache. The expression is a commuted variant: syntactically new
    // (so the expression-level cache cannot short-circuit it) but its
    // subterm signatures were all computed by the first request, so the
    // cumulative signature-cache hit rate must rise. The `x*y` term
    // keeps the request on the truth-table route — without it the whole
    // input is linear and the corner-recovery fast path would skip the
    // cache entirely.
    let mut b = connect(addr);
    let second_rate = b
        .simplify(1, "y*x + 2*(y|x) - (y&~x) - (~y&x)", 64, None)
        .unwrap()
        .num_field("cache_hit_rate")
        .unwrap();
    assert!(
        second_rate > first_rate,
        "cache did not warm across connections: {first_rate} -> {second_rate}"
    );
    b.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn expired_deadline_is_answered_with_a_timeout_error() {
    // The worker holds every job for 30ms, so a 1ms deadline is always
    // expired by dequeue time — deterministically, not by racing.
    let config = ServerConfig {
        workers: 1,
        worker_delay: Some(Duration::from_millis(30)),
        ..ServerConfig::default()
    };
    let (addr, handle) = harness(config);
    let mut client = connect(addr);

    let r = client.simplify(0, "x + y", 64, Some(1)).unwrap();
    assert_eq!(r.error(), Some("deadline"), "got {}", r.raw);
    assert_eq!(r.id(), Some(0));
    assert!(r.str_field("detail").unwrap().contains("deadline"));

    // Without a deadline the same request succeeds despite the delay,
    // and the server survived the expiry.
    let ok = client.simplify(1, "x + y", 64, None).unwrap();
    assert!(ok.is_ok(), "{}", ok.raw);

    let stats = client.stats().unwrap();
    assert_eq!(stats.u64_field("deadline_expired"), Some(1));
    assert_eq!(stats.u64_field("served"), Some(1));

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn zero_deadline_always_expires() {
    // `deadline_ms: 0` grants the half-open budget [0, 0) — no time at
    // all. It must be answered with a `deadline` error no matter how
    // fast the worker dequeues it: the check is `elapsed >= deadline`,
    // and every elapsed time satisfies `elapsed >= 0`. Deterministic,
    // no delays needed.
    let (addr, handle) = harness(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = connect(addr);
    for id in 0..20 {
        let r = client.simplify(id, "x + y", 64, Some(0)).unwrap();
        assert_eq!(r.error(), Some("deadline"), "request {id} got {}", r.raw);
        assert_eq!(r.id(), Some(id));
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.u64_field("deadline_expired"), Some(20));
    assert_eq!(stats.u64_field("served"), Some(0));
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn overload_sheds_load_while_the_server_stays_live() {
    // Queue capacity 1 and a slow single worker: a pipelined burst must
    // overflow the queue, and every overflow must be answered with
    // `overloaded` — while queued work still completes and the server
    // keeps serving afterwards.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        worker_delay: Some(Duration::from_millis(25)),
        ..ServerConfig::default()
    };
    let (addr, handle) = harness(config);
    let mut client = connect(addr);

    const BURST: usize = 16;
    for id in 0..BURST as u64 {
        client
            .send_raw(&format!("{{\"id\":{id},\"expr\":\"x + y - (x&y)\"}}"))
            .unwrap();
    }
    let mut ok = 0usize;
    let mut overloaded = 0usize;
    let mut seen_ids = std::collections::BTreeSet::new();
    for _ in 0..BURST {
        let r = client.recv().unwrap();
        assert!(seen_ids.insert(r.id().unwrap()), "duplicate response");
        match r.error() {
            None => {
                assert_eq!(r.str_field("simplified"), Some("x|y"));
                ok += 1;
            }
            Some("overloaded") => {
                assert!(r.str_field("detail").unwrap().contains("capacity 1"));
                overloaded += 1;
            }
            Some(other) => panic!("unexpected error `{other}`: {}", r.raw),
        }
    }
    assert_eq!(ok + overloaded, BURST);
    assert!(ok >= 1, "no request got through");
    assert!(
        overloaded >= 1,
        "burst of {BURST} into a capacity-1 queue shed nothing"
    );

    // Backpressure, not failure: once the burst drains, the same
    // connection and a fresh one both get served.
    let again = client.simplify(900, "x ^ x", 64, None).unwrap();
    assert!(again.is_ok(), "{}", again.raw);
    let mut fresh = connect(addr);
    let fresh_ok = fresh.simplify(901, "x & x", 64, None).unwrap();
    assert!(fresh_ok.is_ok(), "{}", fresh_ok.raw);

    let stats = fresh.stats().unwrap();
    assert_eq!(stats.u64_field("overloaded"), Some(overloaded as u64));

    fresh.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn graceful_shutdown_drains_in_flight_work_before_acking() {
    // A slow worker guarantees requests are still queued when the
    // shutdown request lands right behind them on the same connection.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 64,
        worker_delay: Some(Duration::from_millis(20)),
        ..ServerConfig::default()
    };
    let (addr, handle) = harness(config);
    let mut client = connect(addr);

    const IN_FLIGHT: usize = 5;
    for id in 0..IN_FLIGHT as u64 {
        client
            .send_raw(&format!("{{\"id\":{id},\"expr\":\"x + y - 2*(x&y)\"}}"))
            .unwrap();
    }
    client
        .send_raw("{\"id\":99,\"control\":\"shutdown\"}")
        .unwrap();

    // Every queued request is answered...
    let mut answered = std::collections::BTreeSet::new();
    for _ in 0..IN_FLIGHT {
        let r = client.recv().unwrap();
        assert!(r.is_ok(), "in-flight request dropped: {}", r.raw);
        assert_eq!(r.str_field("simplified"), Some("x^y"));
        answered.insert(r.id().unwrap());
    }
    assert_eq!(answered.len(), IN_FLIGHT);

    // ...and only then does the acknowledgement arrive, echoing the id
    // and the drain count.
    let ack = client.recv().unwrap();
    assert_eq!(ack.str_field("ok"), Some("shutdown"), "{}", ack.raw);
    assert_eq!(ack.id(), Some(99));
    assert_eq!(ack.u64_field("served"), Some(IN_FLIGHT as u64));

    // run() returns cleanly and the listener is gone.
    handle.join().unwrap().unwrap();
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err(),
        "listener still accepting after shutdown"
    );
}

#[test]
fn requests_after_shutdown_are_refused_on_other_connections() {
    let config = ServerConfig {
        workers: 1,
        worker_delay: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    };
    let (addr, handle) = harness(config);
    let mut worker_conn = connect(addr);
    let mut shutdown_conn = connect(addr);

    // Put slow work in flight, then request shutdown from a second
    // connection while it is still running. The pause lets the server
    // enqueue id 1 before the shutdown flag flips — without it the two
    // connections' lines race and id 1 may be refused before it was
    // ever "in flight".
    worker_conn
        .send_raw("{\"id\":1,\"expr\":\"(x&~y)*(~x&y) + (x&y)*(x|y)\"}")
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    shutdown_conn
        .send_raw("{\"control\":\"shutdown\"}")
        .unwrap();

    // The first connection tries to sneak another request in during
    // the drain: either reading already stopped (EOF at drain end)
    // or it is refused with `shutting_down` — it must never be
    // silently queued and then dropped without an answer.
    std::thread::sleep(Duration::from_millis(10));
    worker_conn.send_raw("{\"id\":2,\"expr\":\"x\"}").unwrap();

    // The refusal is written inline by the reactor while the worker is
    // still computing id 1, so the two responses can arrive in either
    // order — match them by id.
    let mut got_first = false;
    let mut got_second = false;
    loop {
        match worker_conn.recv() {
            Ok(r) if r.id() == Some(1) => {
                assert_eq!(r.str_field("simplified"), Some("x*y"), "{}", r.raw);
                got_first = true;
            }
            Ok(r) if r.id() == Some(2) => {
                assert_eq!(r.error(), Some("shutting_down"), "{}", r.raw);
                got_second = true;
            }
            Ok(r) => panic!("unexpected response: {}", r.raw),
            Err(e) => {
                // Connection teardown is only acceptable once the
                // in-flight result has been delivered and only in place
                // of the refusal (the reader may already have stopped
                // when id 2 arrived). A reader that stopped *before*
                // consuming id 2 leaves those bytes unread, so the drop
                // surfaces as RST (reset) rather than FIN (EOF) —
                // either way id 2 was refused, not silently queued.
                assert!(
                    matches!(
                        e.kind(),
                        std::io::ErrorKind::UnexpectedEof
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::ConnectionAborted
                    ),
                    "unexpected transport error: {e}"
                );
                assert!(got_first, "in-flight request dropped");
                break;
            }
        }
        if got_first && got_second {
            break;
        }
    }

    let ack = shutdown_conn.recv().unwrap();
    assert_eq!(ack.str_field("ok"), Some("shutdown"));
    handle.join().unwrap().unwrap();
}

#[test]
fn shutdown_under_concurrent_load_answers_every_accepted_request_once() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    // Multi-threaded shutdown stress: several connections blasting
    // pipelined requests into a small queue while shutdown lands
    // mid-stream. The invariant under test — every accepted request is
    // answered exactly once — shows up client-side as "no duplicate
    // ids, every response well-formed, EOF only after shutdown began",
    // and server-side as `run()` returning `Ok(())` (which it only
    // does after the backlog is drained and flushed).
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 8,
        worker_delay: Some(Duration::from_millis(2)),
        ..ServerConfig::default()
    };
    let (addr, handle) = harness(config);

    const THREADS: u64 = 4;
    const WARMUP: u64 = 8;
    const BLAST: u64 = 40;
    let ready = Barrier::new(THREADS as usize + 1);
    let shutdown_sent = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let ready = &ready;
            let shutdown_sent = &shutdown_sent;
            scope.spawn(move || {
                let mut client = connect(addr);
                let mut seen = std::collections::BTreeSet::new();
                // Phase 1, before shutdown: every request must be
                // answered — served or shed, never dropped.
                for i in 0..WARMUP {
                    let id = t * 10_000 + i;
                    client
                        .send_raw(&format!("{{\"id\":{id},\"expr\":\"x + y - 2*(x&y)\"}}"))
                        .unwrap();
                }
                for _ in 0..WARMUP {
                    let r = client.recv().expect("pre-shutdown request dropped");
                    assert!(
                        seen.insert(r.id().unwrap()),
                        "duplicate response: {}",
                        r.raw
                    );
                    match r.error() {
                        None => assert_eq!(r.str_field("simplified"), Some("x^y")),
                        Some("overloaded") => {}
                        Some(other) => panic!("unexpected error `{other}`: {}", r.raw),
                    }
                }
                ready.wait();
                // Phase 2: blast while shutdown lands mid-stream. Late
                // sends may fail once the reader stops; reads end at
                // EOF. Whatever does come back must be well-formed and
                // arrive exactly once.
                for i in 0..BLAST {
                    let id = t * 10_000 + 1_000 + i;
                    if client
                        .send_raw(&format!("{{\"id\":{id},\"expr\":\"x + y - 2*(x&y)\"}}"))
                        .is_err()
                    {
                        break;
                    }
                }
                // Reads end at EOF/reset once the reader winds down —
                // legal only after shutdown was actually requested.
                while let Ok(r) = client.recv() {
                    let id = r.id().unwrap_or_else(|| panic!("no id: {}", r.raw));
                    assert!(seen.insert(id), "duplicate response: {}", r.raw);
                    match r.error() {
                        None => assert_eq!(r.str_field("simplified"), Some("x^y")),
                        Some("overloaded" | "shutting_down") => {}
                        Some(other) => panic!("unexpected error `{other}`: {}", r.raw),
                    }
                }
                assert!(
                    shutdown_sent.load(Ordering::SeqCst),
                    "connection ended before shutdown was requested"
                );
            });
        }
        ready.wait();
        std::thread::sleep(Duration::from_millis(5));
        let mut ctl = connect(addr);
        shutdown_sent.store(true, Ordering::SeqCst);
        let ack = ctl.shutdown().unwrap();
        assert_eq!(ack.str_field("ok"), Some("shutdown"), "{}", ack.raw);
    });

    handle.join().unwrap().unwrap();
}
