//! Reactor state-machine tests: partial reads, chunked writes,
//! mid-stream oversize enforcement, and a pinned transcript of a seeded
//! request stream.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mba_serve::{Client, Server, ServerConfig};
use mba_verify::{generate_case, CaseConfig};

fn spawn(config: ServerConfig) -> (std::net::SocketAddr, mba_serve::server::ServerHandle) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn reactor_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

fn shutdown(addr: std::net::SocketAddr) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    let ack = c.shutdown().expect("shutdown ack");
    assert_eq!(ack.str_field("ok"), Some("shutdown"));
}

/// A slow-loris client dripping one byte at a time must still be parsed
/// correctly — the reactor buffers partial lines per connection and a
/// slow sender never blocks anyone (the other connection's requests
/// keep being served while the drip is in progress).
#[test]
fn slow_loris_byte_at_a_time_is_buffered_not_blocking() {
    let (addr, handle) = spawn(reactor_config());
    let request = b"{\"id\":7,\"expr\":\"(x & y) + (x | y)\",\"width\":64}\n";
    let mut slow = TcpStream::connect(addr).expect("connect");
    let mut fast = Client::connect(addr).expect("connect fast");
    for (i, byte) in request.iter().enumerate() {
        slow.write_all(std::slice::from_ref(byte)).expect("drip");
        slow.flush().expect("flush");
        if i % 16 == 0 {
            // Interleave full requests from another connection: the
            // drip must not stall them.
            let reply = fast
                .simplify(i as u64, "x ^ x", 64, None)
                .expect("fast request");
            assert_eq!(reply.str_field("simplified"), Some("0"));
        }
    }
    let mut reader = BufReader::new(slow.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    assert!(
        line.contains("\"id\":7") && line.contains("\"simplified\":\"x+y\""),
        "unexpected reply: {line}"
    );
    shutdown(addr);
    handle.join().unwrap().unwrap();
}

/// Several requests written in arbitrary chunk sizes (split mid-JSON,
/// across token boundaries) all parse once their newlines arrive.
#[test]
fn requests_split_across_many_reads_reassemble() {
    let (addr, handle) = spawn(reactor_config());
    let mut stream = TcpStream::connect(addr).expect("connect");
    let payload = (0..10)
        .map(|i| format!("{{\"id\":{i},\"expr\":\"x + {i}*0\",\"width\":64}}\n"))
        .collect::<String>();
    // Chunk sizes coprime with the line length exercise every split.
    for chunk in payload.as_bytes().chunks(13) {
        stream.write_all(chunk).expect("chunk");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut reader = BufReader::new(stream);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..10 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        let json = mba_serve::parse_json(line.trim()).expect("reply parses");
        let obj = json.as_obj().expect("object");
        assert_eq!(
            obj.get("simplified").and_then(|j| j.as_str()),
            Some("x"),
            "bad reply: {line}"
        );
        seen.insert(obj.get("id").and_then(|j| j.as_u64()).expect("id"));
    }
    assert_eq!(seen.len(), 10, "every request answered exactly once");
    shutdown(addr);
    handle.join().unwrap().unwrap();
}

/// With the test-only write chunk limit the response cannot flush in
/// one `write`; the remainder goes through the reactor's pending
/// buffer and writable events, and the client still sees one intact
/// line.
#[test]
fn responses_spanning_multiple_writes_arrive_intact() {
    let (addr, handle) = spawn(ServerConfig {
        write_chunk_limit: Some(7),
        ..reactor_config()
    });
    let mut client = Client::connect(addr).expect("connect");
    for i in 0..20u64 {
        let reply = client
            .simplify(i, "2*(x|y) - (~x&y) - (x&~y)", 64, None)
            .expect("reply");
        assert_eq!(reply.id(), Some(i));
        assert_eq!(reply.str_field("simplified"), Some("x+y"), "run {i}");
    }
    shutdown(addr);
    handle.join().unwrap().unwrap();
}

/// A newline-less flood past the line cap is answered once mid-stream
/// (not after 64KiB of buffering) and the connection resyncs at the
/// next newline.
#[test]
fn oversized_newline_less_flood_is_rejected_mid_stream_and_resyncs() {
    let (addr, handle) = spawn(ServerConfig {
        max_line_bytes: 256,
        ..reactor_config()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&[b'x'; 4096]).expect("flood");
    stream.flush().expect("flush");
    // The rejection must arrive while the line is still unterminated.
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    assert!(
        line.contains("\"error\":\"invalid\"") && line.contains("exceeds 256 bytes"),
        "unexpected: {line}"
    );
    // More flood, then the resync newline, then a valid request.
    stream.write_all(&[b'x'; 1000]).expect("more flood");
    stream.write_all(b"\n").expect("resync");
    stream
        .write_all(b"{\"id\":9,\"expr\":\"x & x\",\"width\":64}\n")
        .expect("valid request");
    stream.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("reply");
    assert!(
        line.contains("\"id\":9") && line.contains("\"simplified\":\"x\""),
        "connection did not resync: {line}"
    );
    shutdown(addr);
    handle.join().unwrap().unwrap();
}

/// Blanks the values of timing-dependent fields so responses from two
/// runs can be compared byte-for-byte.
fn mask_timing(line: &str) -> String {
    let mut out = line.to_string();
    for key in ["\"micros\":", "\"cache_hit_rate\":"] {
        if let Some(start) = out.find(key) {
            let value_start = start + key.len();
            let value_end = out[value_start..]
                .find([',', '}'])
                .map_or(out.len(), |off| value_start + off);
            out.replace_range(value_start..value_end, "_");
        }
    }
    out
}

/// FNV-1a over the masked transcript of
/// `seeded_stream_transcript_matches_the_pinned_digest`, each line
/// followed by a newline. Recorded from the reactor at the commit where
/// the thread-per-connection mode it replaced produced the same
/// transcript byte for byte.
const PINNED_TRANSCRIPT_DIGEST: u64 = 0x6a68_b8e8_7edc_4136;

fn fnv1a(mut digest: u64, line: &str) -> u64 {
    for b in line.bytes().chain([b'\n']) {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

/// The responses to a seeded request stream, including protocol errors
/// and the shutdown ack, are pinned byte for byte (modulo the masked
/// timing fields).
#[test]
fn seeded_stream_transcript_matches_the_pinned_digest() {
    let case_config = CaseConfig::default();
    let (addr, handle) = spawn(reactor_config());
    let mut client = Client::connect(addr).expect("connect");
    let mut lines: Vec<String> = (0..30u64)
        .map(|i| {
            let expr = generate_case(7, i, &case_config).expr.to_string();
            let width = if i % 3 == 0 { 32 } else { 64 };
            let reply = client.simplify(i, &expr, width, None).expect("reply");
            mask_timing(&reply.raw)
        })
        .collect();
    client
        .send_raw("{\"id\":99,\"expr\":\"x +\",\"width\":64}")
        .expect("send");
    lines.push(mask_timing(&client.recv().expect("recv").raw));
    client.send_raw("not json").expect("send");
    lines.push(mask_timing(&client.recv().expect("recv").raw));
    let ack = client.shutdown().expect("ack");
    lines.push(mask_timing(&ack.raw));
    handle.join().unwrap().unwrap();

    let digest = lines
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |d, line| fnv1a(d, line));
    assert_eq!(
        digest,
        PINNED_TRANSCRIPT_DIGEST,
        "transcript changed (digest {digest:#018x}):\n{}",
        lines.join("\n")
    );
}

/// EOF with a final unterminated line still gets that line answered
/// before the connection is reaped.
#[test]
fn final_unterminated_line_is_served_after_eof() {
    let (addr, handle) = spawn(reactor_config());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"{\"id\":3,\"expr\":\"x | x\",\"width\":64}")
        .expect("request without newline");
    stream.flush().expect("flush");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    assert!(
        reply.contains("\"id\":3") && reply.contains("\"simplified\":\"x\""),
        "unexpected: {reply}"
    );
    shutdown(addr);
    handle.join().unwrap().unwrap();
}

/// Two requests written in one segment get two replies. The second
/// reply is written while the first may still be unacknowledged; with
/// Nagle's algorithm on the server socket it would wait for the
/// client's delayed ACK (about 40 ms on Linux). Accepted sockets set
/// `TCP_NODELAY` and each reply leaves in one `write`, so the pair
/// round-trips in well under that.
#[test]
fn pipelined_reply_pairs_are_not_held_for_delayed_acks() {
    let (addr, handle) = spawn(reactor_config());
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut pair_ms: Vec<f64> = (0..10u64)
        .map(|i| {
            let pair = format!(
                "{{\"id\":{},\"expr\":\"x ^ x\",\"width\":64}}\n\
                 {{\"id\":{},\"expr\":\"x | x\",\"width\":64}}\n",
                2 * i,
                2 * i + 1
            );
            let start = std::time::Instant::now();
            stream.write_all(pair.as_bytes()).expect("send pair");
            for _ in 0..2 {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read reply");
                assert!(line.contains("\"simplified\""), "{line}");
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    pair_ms.sort_by(f64::total_cmp);
    let median = pair_ms[pair_ms.len() / 2];
    assert!(
        median < 20.0,
        "median pipelined pair took {median:.1} ms ({pair_ms:?})"
    );
    shutdown(addr);
    handle.join().unwrap().unwrap();
}
