//! Wire-protocol robustness against a live server: malformed JSON,
//! unknown fields, oversized lines, and parse-error floods. The
//! invariant under test is always the same — one bad line gets one
//! error response, and neither the connection nor the worker pool dies.

use std::time::Duration;

use mba_serve::{server, Client, ServerConfig};

/// Spawns a server on a fresh loopback port and connects a client.
fn harness(config: ServerConfig) -> (Client, server::ServerHandle) {
    let (addr, handle) = server::spawn("127.0.0.1:0", config).expect("spawn server");
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    (client, handle)
}

fn shutdown(mut client: Client, handle: server::ServerHandle) {
    let ack = client.shutdown().expect("shutdown ack");
    assert_eq!(ack.str_field("ok"), Some("shutdown"));
    handle.join().unwrap().unwrap();
}

#[test]
fn table_driven_bad_lines_get_error_responses_and_connection_survives() {
    struct Case {
        name: &'static str,
        line: &'static str,
        expect_code: &'static str,
        /// Expected `id` echo in the error, when the line got that far.
        expect_id: Option<u64>,
    }
    let cases = [
        Case {
            name: "not json at all",
            line: "simplify x+y please",
            expect_code: "parse",
            expect_id: None,
        },
        Case {
            name: "truncated object",
            line: "{\"id\":1,\"expr\":\"x\"",
            expect_code: "parse",
            expect_id: None,
        },
        Case {
            name: "json but not an object",
            line: "[1,2,3]",
            expect_code: "invalid",
            expect_id: None,
        },
        Case {
            name: "missing expr",
            line: "{\"id\":7}",
            expect_code: "invalid",
            expect_id: Some(7),
        },
        Case {
            name: "missing id",
            line: "{\"expr\":\"x\"}",
            expect_code: "invalid",
            expect_id: None,
        },
        Case {
            name: "expr wrong type",
            line: "{\"id\":8,\"expr\":42}",
            expect_code: "invalid",
            expect_id: Some(8),
        },
        Case {
            name: "width out of range",
            line: "{\"id\":9,\"expr\":\"x\",\"width\":65}",
            expect_code: "invalid",
            expect_id: Some(9),
        },
        Case {
            name: "width zero",
            line: "{\"id\":10,\"expr\":\"x\",\"width\":0}",
            expect_code: "invalid",
            expect_id: Some(10),
        },
        Case {
            name: "negative id",
            line: "{\"id\":-4,\"expr\":\"x\"}",
            expect_code: "invalid",
            expect_id: None,
        },
        Case {
            name: "bad deadline type",
            line: "{\"id\":11,\"expr\":\"x\",\"deadline_ms\":\"soon\"}",
            expect_code: "invalid",
            expect_id: Some(11),
        },
        Case {
            name: "unknown control",
            line: "{\"control\":\"reboot\"}",
            expect_code: "invalid",
            expect_id: None,
        },
        Case {
            name: "expression that does not parse",
            line: "{\"id\":12,\"expr\":\"x +* y ((\"}",
            expect_code: "invalid",
            expect_id: Some(12),
        },
    ];

    let (mut client, handle) = harness(ServerConfig::default());
    for case in &cases {
        client.send_raw(case.line).unwrap();
        let response = client
            .recv()
            .unwrap_or_else(|e| panic!("[{}] no response: {e}", case.name));
        assert_eq!(
            response.error(),
            Some(case.expect_code),
            "[{}] wrong code in {}",
            case.name,
            response.raw
        );
        assert_eq!(
            response.id(),
            case.expect_id,
            "[{}] wrong id echo in {}",
            case.name,
            response.raw
        );
        // The connection survives: a well-formed request still works.
        let ok = client.simplify(1000, "x + y - (x&y)", 64, None).unwrap();
        assert_eq!(
            ok.str_field("simplified"),
            Some("x|y"),
            "[{}] connection did not survive",
            case.name
        );
    }
    shutdown(client, handle);
}

#[test]
fn unknown_fields_are_ignored() {
    let (mut client, handle) = harness(ServerConfig::default());
    client
        .send_raw(
            "{\"id\":3,\"expr\":\"2*(x|y) - (~x&y) - (x&~y)\",\"width\":64,\
             \"priority\":\"high\",\"tags\":[1,2],\"nested\":{\"a\":null}}",
        )
        .unwrap();
    let response = client.recv().unwrap();
    assert!(response.is_ok(), "unexpected error: {}", response.raw);
    assert_eq!(response.str_field("simplified"), Some("x+y"));
    assert_eq!(response.id(), Some(3));
    shutdown(client, handle);
}

#[test]
fn oversized_line_is_rejected_but_connection_survives() {
    let config = ServerConfig {
        max_line_bytes: 512,
        ..ServerConfig::default()
    };
    let (mut client, handle) = harness(config);

    // An oversized, newline-terminated garbage line: one `invalid`
    // response, then business as usual on the same connection.
    let huge = format!("{{\"id\":1,\"expr\":\"{}\"}}", "x+".repeat(4096));
    assert!(huge.len() > 512);
    client.send_raw(&huge).unwrap();
    let response = client.recv().unwrap();
    assert_eq!(response.error(), Some("invalid"), "got {}", response.raw);
    assert!(response.str_field("detail").unwrap().contains("512 bytes"));

    let ok = client.simplify(2, "x ^ x", 64, None).unwrap();
    assert_eq!(ok.str_field("simplified"), Some("0"), "connection died");

    // A second oversized line *without* a newline yet: the reader must
    // reject it mid-stream (no newline needed to detect the overflow)
    // and resynchronize at the next newline.
    use std::io::Write;
    let mut raw = std::net::TcpStream::connect(handle_addr(&mut client)).unwrap();
    raw.write_all(&vec![b'a'; 600]).unwrap();
    raw.flush().unwrap();
    let mut oversized_client = client_from(raw);
    let response = oversized_client.recv().unwrap();
    assert_eq!(response.error(), Some("invalid"));
    // Finish the garbage line, then speak properly.
    oversized_client.send_raw("garbage-tail").unwrap();
    let ok = oversized_client.simplify(4, "x & x", 64, None).unwrap();
    assert_eq!(ok.str_field("simplified"), Some("x"));

    shutdown(client, handle);
}

/// The server's address is not directly exposed by `Client`; tests that
/// need a second raw connection stash it via a stats round-trip.
fn handle_addr(client: &mut Client) -> std::net::SocketAddr {
    // `Client` keeps the peer address on its socket.
    client_peer(client)
}

fn client_peer(client: &mut Client) -> std::net::SocketAddr {
    // Ping first so a half-open socket fails loudly here, not later.
    client.ping().expect("ping");
    client.peer_addr().expect("peer addr")
}

fn client_from(stream: std::net::TcpStream) -> Client {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    Client::from_stream(stream).expect("client from stream")
}

#[test]
fn parse_error_flood_never_kills_the_worker_pool() {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let (mut client, handle) = harness(config);
    for i in 0..100 {
        client.send_raw("}}}{{{").unwrap();
        let e = client.recv().unwrap();
        assert_eq!(e.error(), Some("parse"), "iteration {i}");
    }
    // Workers still serve after the flood.
    let ok = client
        .simplify(7, "(x&~y)*(~x&y) + (x&y)*(x|y)", 64, None)
        .unwrap();
    assert_eq!(ok.str_field("simplified"), Some("x*y"));
    shutdown(client, handle);
}

#[test]
fn blank_lines_are_tolerated_silently() {
    let (mut client, handle) = harness(ServerConfig::default());
    client.send_raw("").unwrap();
    client.send_raw("   ").unwrap();
    let ok = client.simplify(1, "~(x - 1)", 64, None).unwrap();
    assert_eq!(ok.str_field("simplified"), Some("-x"));
    assert_eq!(ok.id(), Some(1));
    shutdown(client, handle);
}

#[test]
fn ping_and_stats_controls_answer_inline() {
    let (mut client, handle) = harness(ServerConfig::default());
    let pong = client.ping().unwrap();
    assert_eq!(pong.str_field("ok"), Some("ping"));

    // A polynomial request: linear inputs ride the corner-recovery fast
    // path and never miss (or hit) the signature cache.
    client.simplify(1, "x*y + 2*(x&y)", 64, None).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.str_field("ok"), Some("stats"));
    assert_eq!(stats.u64_field("served"), Some(1));
    assert_eq!(stats.u64_field("protocol_errors"), Some(0));
    assert!(stats.u64_field("cache_misses").unwrap() > 0);
    assert!(stats.u64_field("queue_capacity").unwrap() > 0);
    shutdown(client, handle);
}
