//! `mba-serve`: a production-style, long-running MBA simplification
//! service.
//!
//! The paper positions MBA-Solver as a *preprocessing pass in front of
//! SMT solvers* — a component that sits in a pipeline and absorbs a
//! sustained stream of simplification queries. The one-shot CLIs
//! rebuild their caches per invocation and throw them away; this crate
//! is the resident form: one process, one shared
//! [`SigCache`](mba_sig::SigCache), a bounded request queue with
//! explicit backpressure, per-request deadlines, and graceful
//! drain-then-exit shutdown.
//!
//! * [`protocol`] — the newline-delimited JSON wire format (requests,
//!   responses, error codes) plus the offline-friendly JSON
//!   parser/renderer it rides on;
//! * [`queue`] — the bounded MPMC queue whose `try_push` failure *is*
//!   the `overloaded` response;
//! * [`server`] — configuration, request dispatch, and the worker
//!   pool;
//! * [`reactor`] — the epoll event loop that drives every connection;
//! * [`client`] — a blocking protocol client.
//!
//! Binaries: `mba_serve` (the server) and `mba_loadgen` (replays a
//! generator-built corpus at configurable concurrency and writes
//! `BENCH_serve.json` with throughput, p50/p95/p99 latency, error
//! counts, and end-of-run cache statistics).
//!
//! ```
//! use mba_serve::{server, ServerConfig};
//!
//! let (addr, handle) = server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = mba_serve::Client::connect(addr).unwrap();
//! let reply = client
//!     .simplify(1, "2*(x|y) - (~x&y) - (x&~y)", 64, None)
//!     .unwrap();
//! assert_eq!(reply.str_field("simplified"), Some("x+y"));
//! client.shutdown().unwrap();
//! handle.join().unwrap().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod queue;
pub mod reactor;
pub mod server;

pub use client::{Client, Response};
pub use protocol::{
    decode_line, parse_json, ClientMessage, Control, ErrorCode, Json, ProtocolError, Reply,
    Request, MAX_LINE_BYTES,
};
pub use queue::{BoundedQueue, PushError};
pub use server::{Server, ServerConfig, ServerState, DEFAULT_CACHE_BUDGET};
