//! A small blocking client for the serve protocol — used by the load
//! generator, the integration tests, and anything that wants to embed a
//! protocol speaker without hand-writing JSON.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{json_escape, parse_json, with_newline, Json};

/// One parsed response line.
#[derive(Debug, Clone)]
pub struct Response {
    /// The raw line, without the newline.
    pub raw: String,
    /// The parsed object.
    pub json: Json,
}

impl Response {
    /// The echoed request id, when present.
    pub fn id(&self) -> Option<u64> {
        self.field("id").and_then(Json::as_u64)
    }

    /// The error code, when this is an error response.
    pub fn error(&self) -> Option<&str> {
        self.field("error").and_then(Json::as_str)
    }

    /// Whether this is a success (no `error` field).
    pub fn is_ok(&self) -> bool {
        self.error().is_none()
    }

    /// A raw field by name.
    pub fn field(&self, name: &str) -> Option<&Json> {
        self.json.as_obj().and_then(|o| o.get(name))
    }

    /// A string field by name.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        self.field(name).and_then(Json::as_str)
    }

    /// An integer field by name.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        self.field(name).and_then(Json::as_u64)
    }

    /// A float field by name.
    pub fn num_field(&self, name: &str) -> Option<f64> {
        self.field(name).and_then(Json::as_num)
    }
}

/// A blocking protocol client over one TCP connection.
///
/// Methods pair one request with one response, which is the protocol's
/// per-connection discipline under synchronous use; [`Client::send_raw`]
/// and [`Client::recv`] expose the pipelined form (many requests in
/// flight, responses matched by `id`).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Wraps an already-connected stream.
    ///
    /// # Errors
    ///
    /// Propagates the stream-clone failure.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// The server's address.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn peer_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.writer.peer_addr()
    }

    /// Sets a read timeout for [`Client::recv`] (mostly for tests that
    /// must not hang on a silent server).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one already-rendered line (the newline is appended).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(&with_newline(line))?;
        self.writer.flush()
    }

    /// Reads and parses one response line.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server closed the connection,
    /// `InvalidData` when the line is not valid JSON.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let raw = line.trim_end_matches(['\n', '\r']).to_string();
        let json = parse_json(&raw).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable response `{raw}`: {e}"),
            )
        })?;
        Ok(Response { raw, json })
    }

    /// Sends a simplification request and waits for its response.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; protocol-level errors come back
    /// as a normal [`Response`] with an `error` field.
    pub fn simplify(
        &mut self,
        id: u64,
        expr: &str,
        width: u32,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<Response> {
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
        self.send_raw(&line)?;
        self.recv()
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn ping(&mut self) -> std::io::Result<Response> {
        self.send_raw("{\"control\":\"ping\"}")?;
        self.recv()
    }

    /// Requests a counters/cache/stage-breakdown snapshot. Sent via
    /// the `cmd` spelling to keep the wire alias exercised end-to-end.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn stats(&mut self) -> std::io::Result<Response> {
        self.send_raw("{\"cmd\":\"stats\"}")?;
        self.recv()
    }

    /// Requests graceful shutdown and waits for the drain
    /// acknowledgement (which only arrives after every in-flight
    /// request has been answered).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.send_raw("{\"control\":\"shutdown\"}")?;
        self.recv()
    }
}
