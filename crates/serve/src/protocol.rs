//! The wire protocol: newline-delimited JSON objects, one message per
//! line, in both directions.
//!
//! Requests:
//!
//! ```text
//! {"id": 7, "expr": "2*(x|y) - (~x&y) - (x&~y)", "width": 64, "deadline_ms": 250}
//! {"control": "stats"}
//! {"control": "ping"}
//! {"control": "shutdown"}
//! ```
//!
//! `width` (default 64) and `deadline_ms` (default: none) are optional;
//! unknown fields are **ignored** for forward compatibility. Control
//! requests accept `cmd` as an alias for `control` (`{"cmd":"stats"}`),
//! so stats pollers can use either spelling. Responses either succeed:
//!
//! ```text
//! {"id": 7, "simplified": "x+y", "node_count_in": 13, "node_count_out": 3,
//!  "micros": 412, "cache_hit_rate": 0.83}
//! ```
//!
//! or carry an `error` code (`parse`, `invalid`, `overloaded`,
//! `deadline`, `shutting_down`, `internal`) plus a human-readable
//! `detail`. An error answers the offending *line* only — the
//! connection and the worker pool always survive.
//!
//! The workspace has no JSON dependency (the build environment is
//! offline); the recursive-descent JSON value parser lives in
//! [`mba_obs::json`] (shared with the bench-report validators) and is
//! re-exported here for protocol consumers.

use std::fmt;

pub use mba_obs::json::{json_escape, parse_json, Json};

/// Upper bound on one protocol line, in bytes. A line longer than this
/// is answered with an `invalid` error and discarded up to the next
/// newline; the connection survives. Generous enough for any realistic
/// MBA expression (the paper's corpus averages ~120 characters).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

// ---------------------------------------------------------------------
// Typed request layer.
// ---------------------------------------------------------------------

/// A simplification request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The expression to simplify, in the `mba-expr` surface syntax.
    pub expr: String,
    /// Bit width of the target ring (1..=64).
    pub width: u32,
    /// Serving deadline: the time budget is the half-open interval
    /// `[0, deadline_ms)` from arrival, so a request whose age reaches
    /// the deadline when (or after) a worker handles it is answered
    /// with a `deadline` error — and `deadline_ms: 0` always expires.
    pub deadline_ms: Option<u64>,
}

/// A control request (no expression payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Liveness probe; answered immediately from the connection thread.
    Ping,
    /// Snapshot of serving counters and cache statistics.
    Stats,
    /// Graceful shutdown: stop accepting, drain in-flight work, flush
    /// responses, ack, exit 0.
    Shutdown,
}

/// One decoded client line.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// A simplification request.
    Simplify(Request),
    /// A control request, with the optional correlation id.
    Control(Control, Option<u64>),
}

/// Machine-readable error codes carried in the `error` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    Parse,
    /// The line was JSON but not a valid request (bad field types,
    /// missing `expr`, out-of-range `width`, oversized line, or an
    /// expression that does not parse).
    Invalid,
    /// The bounded request queue was full — explicit backpressure.
    Overloaded,
    /// The request's `deadline_ms` expired before a result was ready.
    Deadline,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The worker handling the request panicked. The request is
    /// answered (never silently dropped), the panic is counted, and the
    /// worker pool survives.
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Invalid => "invalid",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Deadline => "deadline",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A protocol-level rejection of one line.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// The request id, when the line got far enough to reveal one.
    pub id: Option<u64>,
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
}

impl ProtocolError {
    /// Convenience constructor.
    pub fn new(id: Option<u64>, code: ErrorCode, detail: impl Into<String>) -> ProtocolError {
        ProtocolError {
            id,
            code,
            detail: detail.into(),
        }
    }
}

/// Decodes one request line into a [`ClientMessage`].
///
/// Unknown fields are ignored; known fields with wrong types are
/// errors. Field semantics are documented on [`Request`].
///
/// # Errors
///
/// Returns a [`ProtocolError`] (`parse` or `invalid`) describing the
/// first problem found; the caller answers it and keeps the connection.
pub fn decode_line(line: &str) -> Result<ClientMessage, ProtocolError> {
    let json =
        parse_json(line.trim()).map_err(|e| ProtocolError::new(None, ErrorCode::Parse, e))?;
    let obj = json.as_obj().ok_or_else(|| {
        ProtocolError::new(None, ErrorCode::Invalid, "request must be a JSON object")
    })?;
    // Surface the id in errors whenever it is present and well-formed.
    let id = obj.get("id").and_then(Json::as_u64);
    if let Some(v) = obj.get("id") {
        if v.as_u64().is_none() {
            return Err(ProtocolError::new(
                None,
                ErrorCode::Invalid,
                "`id` must be a non-negative integer",
            ));
        }
    }

    // `cmd` is an accepted alias for `control` (`{"cmd":"stats"}`);
    // when both are present they must agree on being strings, and
    // `control` wins.
    if let Some(control) = obj.get("control").or_else(|| obj.get("cmd")) {
        let name = control.as_str().ok_or_else(|| {
            ProtocolError::new(id, ErrorCode::Invalid, "`control` must be a string")
        })?;
        let control = match name {
            "ping" => Control::Ping,
            "stats" => Control::Stats,
            "shutdown" => Control::Shutdown,
            other => {
                return Err(ProtocolError::new(
                    id,
                    ErrorCode::Invalid,
                    format!("unknown control `{other}`"),
                ))
            }
        };
        return Ok(ClientMessage::Control(control, id));
    }

    let id =
        id.ok_or_else(|| ProtocolError::new(None, ErrorCode::Invalid, "missing `id` field"))?;
    let expr = obj
        .get("expr")
        .ok_or_else(|| ProtocolError::new(Some(id), ErrorCode::Invalid, "missing `expr` field"))?
        .as_str()
        .ok_or_else(|| ProtocolError::new(Some(id), ErrorCode::Invalid, "`expr` must be a string"))?
        .to_string();
    let width = match obj.get("width") {
        None => 64,
        Some(v) => {
            let w = v.as_u64().unwrap_or(0);
            if !(1..=64).contains(&w) {
                return Err(ProtocolError::new(
                    Some(id),
                    ErrorCode::Invalid,
                    "`width` must be an integer in 1..=64",
                ));
            }
            w as u32
        }
    };
    let deadline_ms = match obj.get("deadline_ms") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            ProtocolError::new(
                Some(id),
                ErrorCode::Invalid,
                "`deadline_ms` must be a non-negative integer",
            )
        })?),
    };
    Ok(ClientMessage::Simplify(Request {
        id,
        expr,
        width,
        deadline_ms,
    }))
}

// ---------------------------------------------------------------------
// Response rendering. One line each, no trailing newline — the writer
// appends it, so a response can never smuggle a line break.
// ---------------------------------------------------------------------

/// A successful simplification, ready to render.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Echo of the request id.
    pub id: u64,
    /// The simplified expression, printed canonically.
    pub simplified: String,
    /// AST node count of the input.
    pub node_count_in: u64,
    /// AST node count of the output.
    pub node_count_out: u64,
    /// End-to-end service time in microseconds (queue wait included —
    /// this is the latency the client experienced, minus network).
    pub micros: u64,
    /// The shared signature cache's cumulative hit rate at completion.
    pub cache_hit_rate: f64,
}

/// One protocol line and its terminating newline in one buffer, so a
/// message leaves in a single `write`. Two small writes per message
/// would let the second wait behind the first for the peer's delayed
/// ACK (DESIGN.md §16).
pub(crate) fn with_newline(line: &str) -> Vec<u8> {
    let mut data = Vec::with_capacity(line.len() + 1);
    data.extend_from_slice(line.as_bytes());
    data.push(b'\n');
    data
}

/// Renders a success line.
pub fn render_reply(r: &Reply) -> String {
    format!(
        "{{\"id\":{},\"simplified\":\"{}\",\"node_count_in\":{},\"node_count_out\":{},\"micros\":{},\"cache_hit_rate\":{:.6}}}",
        r.id,
        json_escape(&r.simplified),
        r.node_count_in,
        r.node_count_out,
        r.micros,
        r.cache_hit_rate,
    )
}

/// Renders an error line.
pub fn render_error(e: &ProtocolError) -> String {
    match e.id {
        Some(id) => format!(
            "{{\"id\":{},\"error\":\"{}\",\"detail\":\"{}\"}}",
            id,
            e.code,
            json_escape(&e.detail)
        ),
        None => format!(
            "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
            e.code,
            json_escape(&e.detail)
        ),
    }
}

/// Renders a control acknowledgement (`{"ok":"ping"}` etc.), with the
/// request's id echoed when it sent one and extra pre-rendered fields
/// appended verbatim.
pub fn render_ok(kind: &str, id: Option<u64>, extra_fields: &[(String, String)]) -> String {
    let mut out = String::from("{");
    if let Some(id) = id {
        out.push_str(&format!("\"id\":{id},"));
    }
    out.push_str(&format!("\"ok\":\"{}\"", json_escape(kind)));
    for (k, v) in extra_fields {
        out.push_str(&format!(",\"{}\":{}", json_escape(k), v));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_full_request() {
        let m =
            decode_line(r#"{"id": 3, "expr": "x + y", "width": 16, "deadline_ms": 100}"#).unwrap();
        assert_eq!(
            m,
            ClientMessage::Simplify(Request {
                id: 3,
                expr: "x + y".into(),
                width: 16,
                deadline_ms: Some(100),
            })
        );
    }

    #[test]
    fn decode_applies_defaults_and_ignores_unknown_fields() {
        let m = decode_line(r#"{"id":0,"expr":"x","future_knob":[1,2],"tag":"abc"}"#).unwrap();
        let ClientMessage::Simplify(r) = m else {
            panic!("expected simplify")
        };
        assert_eq!(r.width, 64);
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn decode_controls() {
        assert_eq!(
            decode_line(r#"{"control":"shutdown"}"#).unwrap(),
            ClientMessage::Control(Control::Shutdown, None)
        );
        assert_eq!(
            decode_line(r#"{"id":9,"control":"stats"}"#).unwrap(),
            ClientMessage::Control(Control::Stats, Some(9))
        );
        assert_eq!(
            decode_line(r#"{"control":"ping"}"#).unwrap(),
            ClientMessage::Control(Control::Ping, None)
        );
    }

    #[test]
    fn cmd_is_an_alias_for_control() {
        assert_eq!(
            decode_line(r#"{"cmd":"stats"}"#).unwrap(),
            ClientMessage::Control(Control::Stats, None)
        );
        assert_eq!(
            decode_line(r#"{"id":4,"cmd":"ping"}"#).unwrap(),
            ClientMessage::Control(Control::Ping, Some(4))
        );
        // `control` wins when both are given.
        assert_eq!(
            decode_line(r#"{"cmd":"ping","control":"stats"}"#).unwrap(),
            ClientMessage::Control(Control::Stats, None)
        );
        let e = decode_line(r#"{"cmd":"reboot"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::Invalid);
        let e = decode_line(r#"{"cmd":7}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::Invalid);
    }

    #[test]
    fn decode_errors_carry_codes_and_ids() {
        let e = decode_line("not json").unwrap_err();
        assert_eq!(e.code, ErrorCode::Parse);
        let e = decode_line(r#"{"expr":"x"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::Invalid);
        assert_eq!(e.id, None);
        let e = decode_line(r#"{"id":5}"#).unwrap_err();
        assert_eq!((e.id, e.code), (Some(5), ErrorCode::Invalid));
        let e = decode_line(r#"{"id":5,"expr":"x","width":65}"#).unwrap_err();
        assert_eq!((e.id, e.code), (Some(5), ErrorCode::Invalid));
        let e = decode_line(r#"{"id":5,"expr":"x","width":0}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::Invalid);
        let e = decode_line(r#"{"id":-1,"expr":"x"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::Invalid);
        let e = decode_line(r#"{"id":5,"expr":7}"#).unwrap_err();
        assert_eq!((e.id, e.code), (Some(5), ErrorCode::Invalid));
        let e = decode_line(r#"{"control":"reboot"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::Invalid);
    }

    #[test]
    fn responses_round_trip_through_the_parser() {
        let line = render_reply(&Reply {
            id: 12,
            simplified: "x+y".into(),
            node_count_in: 13,
            node_count_out: 3,
            micros: 412,
            cache_hit_rate: 0.5,
        });
        let obj = parse_json(&line).unwrap();
        let obj = obj.as_obj().unwrap();
        assert_eq!(obj["id"].as_u64(), Some(12));
        assert_eq!(obj["simplified"].as_str(), Some("x+y"));
        assert_eq!(obj["micros"].as_u64(), Some(412));

        let line = render_error(&ProtocolError::new(
            Some(3),
            ErrorCode::Overloaded,
            "queue full (capacity 256)",
        ));
        let parsed = parse_json(&line).unwrap();
        let obj = parsed.as_obj().unwrap();
        assert_eq!(obj["error"].as_str(), Some("overloaded"));
        assert_eq!(obj["id"].as_u64(), Some(3));

        let line = render_ok("stats", None, &[("served".into(), "7".into())]);
        let parsed = parse_json(&line).unwrap();
        assert_eq!(parsed.as_obj().unwrap()["served"].as_u64(), Some(7));
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let hostile = "a\"b\\c\nd\te\r\u{1}";
        let line = render_error(&ProtocolError::new(None, ErrorCode::Parse, hostile));
        let parsed = parse_json(&line).unwrap();
        assert_eq!(parsed.as_obj().unwrap()["detail"].as_str(), Some(hostile));
    }
}
