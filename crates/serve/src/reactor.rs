//! The server's event loop: one reactor thread drives a nonblocking
//! listener and every connection's read/write state machine through
//! epoll (the `mio` shim), and hands complete request lines to the
//! worker pool through the bounded queue — the backpressure boundary.
//!
//! # Connection state machine
//!
//! Every connection lives in a slab slot and cycles through:
//!
//! ```text
//!            ┌────────── readable ──────────┐
//!            ▼                              │
//!   [reading] --newline--> handle_line --> try_push / control reply
//!       │ cap exceeded                        │ response bytes
//!       ▼                                     ▼
//!   [discarding]  (answered once,      direct write; leftover
//!    until next newline)               bytes → pending buffer
//!                                             │
//!                                             ▼
//!                               [write interest registered]
//!                               flushed on writable events,
//!                               interest dropped when empty
//! ```
//!
//! * **Partial lines** accumulate in a per-connection buffer across
//!   reads; the 64KiB cap is enforced mid-stream — a newline-less flood
//!   is answered once and discarded up to the next newline.
//! * **Write interest is registered only while bytes are pending.**
//!   Responses are written directly (from the worker thread or the
//!   reactor); only the unwritten remainder lands in the connection's
//!   pending buffer, and only then does the connection subscribe to
//!   writable events. This is what makes level-triggered epoll safe:
//!   an idle socket is never registered for the always-ready writable
//!   state.
//! * **Workers never block on slow clients**: a response that does not
//!   flush in one write is handed to the reactor via the pending
//!   buffer, a dirty-connection list, and a waker.
//!
//! # Shutdown
//!
//! A shutdown request closes the queue and stops reads; a joiner thread
//! joins the workers (they drain the accepted backlog) and wakes the
//! reactor, which answers any leftover jobs with `shutting_down`,
//! flushes every pending buffer (switching the sockets back to blocking
//! writes with a timeout), and only then acknowledges the shutdown
//! callers.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use mio::{Events, Interest, Poll, Token, Waker};

use crate::protocol::{render_error, render_ok, with_newline, ErrorCode, ProtocolError};
use crate::queue::BoundedQueue;
use crate::server::{handle_line, Job, ServerConfig, ServerState};

/// Token of the listening socket.
const LISTENER: Token = Token(0);
/// Token of the cross-thread waker.
const WAKER: Token = Token(1);
/// First connection token; slab slot `i` maps to token `i + CONN_BASE`.
const CONN_BASE: usize = 2;

/// Events drained per poll; level triggering re-delivers the rest.
const EVENTS_PER_POLL: usize = 1024;
/// Upper bound on bytes read from one connection per readable event, so
/// one fast sender cannot starve ten thousand others.
const READ_BURST_BYTES: usize = 64 * 1024;
/// Poll timeout: bounds shutdown latency and paces the parked-connection
/// sweep; never load-bearing for liveness (the waker is).
const POLL_TIMEOUT: Duration = Duration::from_millis(100);
/// Per-socket timeout for the final blocking flush during shutdown.
const FINAL_FLUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// Recovers a mutex guard from a poisoning panic; every protected value
/// here (byte buffers, token lists) is valid at every await-free point.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State the worker threads share with the reactor thread.
pub(crate) struct ReactorShared {
    waker: Waker,
    /// Connections whose pending buffers gained bytes since the reactor
    /// last looked; carrying the `Arc` (not the token) makes stale
    /// entries for recycled slots harmless.
    dirty: Mutex<Vec<Arc<ConnHandle>>>,
    /// Test-only cap on bytes per `write` call, to deterministically
    /// exercise the multi-write response path.
    write_chunk_limit: Option<usize>,
}

/// The outgoing-bytes side of one connection, shared between the
/// reactor (flushing) and the workers (responding).
pub(crate) struct ConnHandle {
    stream: TcpStream,
    /// This connection's slab slot.
    slot: usize,
    pending: Mutex<Pending>,
    shared: Arc<ReactorShared>,
}

struct Pending {
    /// Bytes accepted but not yet written, in order.
    buf: VecDeque<u8>,
    /// A hard write error was seen; all further output is dropped (the
    /// client is gone).
    dead: bool,
}

impl ConnHandle {
    /// Queues one response line (appending the newline), writing as
    /// much as the socket takes right now. Called from worker threads
    /// and from the reactor itself; the pending mutex makes the bytes
    /// of concurrent responses atomic on the wire. Errors mean the
    /// client is gone; the server does not care.
    pub(crate) fn send(self: &Arc<Self>, line: &str) {
        let mut pending = lock(&self.pending);
        if pending.dead {
            return;
        }
        if !pending.buf.is_empty() {
            pending.buf.extend(line.as_bytes());
            pending.buf.push_back(b'\n');
        } else {
            let data = with_newline(line);
            match write_some(&self.stream, &data, self.shared.write_chunk_limit) {
                Ok(n) if n < data.len() => pending.buf.extend(&data[n..]),
                Ok(_) => {}
                Err(()) => {
                    pending.dead = true;
                    return;
                }
            }
        }
        let has_pending = !pending.buf.is_empty();
        drop(pending);
        if has_pending {
            lock(&self.shared.dirty).push(Arc::clone(self));
            let _ = self.shared.waker.wake();
        }
    }

    /// Final blocking write used during shutdown, after the socket has
    /// been switched back to blocking mode and the pending buffer
    /// drained. Bypasses the event loop (it has exited) and the
    /// test-only chunking.
    fn send_final(&self, line: &str) {
        let pending = lock(&self.pending);
        if pending.dead {
            return;
        }
        let _ = (&self.stream)
            .write_all(&with_newline(line))
            .and_then(|()| (&self.stream).flush());
    }
}

/// Writes from `data` until done, `WouldBlock`, or the test-only chunk
/// limit; returns bytes written, or `Err` on a hard I/O error.
fn write_some(
    mut stream: &TcpStream,
    data: &[u8],
    chunk_limit: Option<usize>,
) -> Result<usize, ()> {
    let mut written = 0;
    while written < data.len() {
        let end = match chunk_limit {
            Some(limit) => (written + limit).min(data.len()),
            None => data.len(),
        };
        match stream.write(&data[written..end]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                written += n;
                if chunk_limit.is_some() {
                    // One chunk per call: the remainder goes through
                    // the reactor so tests observe multi-write flushes.
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(written)
}

/// Per-connection reactor-side state (reads and interest tracking; the
/// write half lives in the shared [`ConnHandle`]).
struct Conn {
    handle: Arc<ConnHandle>,
    /// Partial-line accumulator.
    read_buf: Vec<u8>,
    /// Where the newline scan resumes (bytes before this were scanned).
    scan_from: usize,
    /// An oversized line was answered; input is dropped to the next
    /// newline.
    discarding: bool,
    /// EOF or peer close observed; the connection is kept only until
    /// its pending bytes flush and its in-flight jobs finish.
    read_closed: bool,
    /// What the fd is currently registered for (`None` = deregistered).
    registered: Option<Interest>,
}

/// The reactor: owns the slab, the poll, and the serving loop.
pub(crate) struct Reactor {
    poll: Poll,
    listener: TcpListener,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots that are read-closed and may be reclaimable.
    parked: Vec<usize>,
    shared: Arc<ReactorShared>,
    state: Arc<ServerState>,
    queue: Arc<BoundedQueue<Job>>,
    max_line_bytes: usize,
    /// Set once the shutdown transition ran (listener closed, queue
    /// closed, joiner spawned).
    draining: bool,
    workers_done: Arc<AtomicBool>,
}

impl Reactor {
    /// Registers the listener with a new event loop. The caller then
    /// starts the workers and hands them to [`Reactor::serve`].
    ///
    /// # Errors
    ///
    /// Propagates reactor-infrastructure failures (epoll/eventfd
    /// creation, `Unsupported` without an epoll backend).
    pub(crate) fn new(
        listener: TcpListener,
        config: &ServerConfig,
        state: Arc<ServerState>,
        queue: Arc<BoundedQueue<Job>>,
    ) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let poll = Poll::new()?;
        poll.registry()
            .register(&listener, LISTENER, Interest::READABLE)?;
        let waker = Waker::new(poll.registry(), WAKER)?;
        let shared = Arc::new(ReactorShared {
            waker,
            dirty: Mutex::new(Vec::new()),
            write_chunk_limit: config.write_chunk_limit,
        });
        Ok(Reactor {
            poll,
            listener,
            slab: Vec::new(),
            free: Vec::new(),
            parked: Vec::new(),
            shared,
            state,
            queue,
            max_line_bytes: config.max_line_bytes,
            draining: false,
            workers_done: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Runs the serving loop to completion: serves until shutdown, then
    /// drains `workers` and acknowledges.
    ///
    /// # Errors
    ///
    /// Propagates poll failures; per-connection errors are contained.
    pub(crate) fn serve(
        &mut self,
        workers: Vec<std::thread::JoinHandle<()>>,
    ) -> std::io::Result<()> {
        let mut workers = Some(workers);
        let mut events = Events::with_capacity(EVENTS_PER_POLL);
        loop {
            self.poll.poll(&mut events, Some(POLL_TIMEOUT))?;
            for event in events.iter() {
                match event.token() {
                    WAKER => self.shared.waker.drain(),
                    LISTENER => self.accept_burst(),
                    Token(t) => self.on_conn_event(
                        t - CONN_BASE,
                        event.is_readable(),
                        event.is_writable(),
                        event.is_read_closed(),
                    ),
                }
            }
            self.apply_dirty();
            self.sweep_parked();
            if !self.draining && self.state.is_shutting_down() {
                self.begin_drain(workers.take().expect("drain begins once"));
            }
            if self.draining && self.workers_done.load(Ordering::SeqCst) {
                self.finish_drain();
                return Ok(());
            }
        }
    }

    /// Accepts until the listener would block. Failures other than
    /// `WouldBlock` (fd exhaustion, aborted handshakes) drop that
    /// attempt; the next readable event retries.
    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.state.is_shutting_down() {
                        continue; // dropped: the acceptor is closing
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // See DESIGN.md §16. Only latency depends on it, so
                    // a socket that refuses the flag is still served.
                    let _ = stream.set_nodelay(true);
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.slab.push(None);
                        self.slab.len() - 1
                    });
                    let handle = Arc::new(ConnHandle {
                        stream,
                        slot,
                        pending: Mutex::new(Pending {
                            buf: VecDeque::new(),
                            dead: false,
                        }),
                        shared: Arc::clone(&self.shared),
                    });
                    let mut conn = Conn {
                        handle,
                        read_buf: Vec::new(),
                        scan_from: 0,
                        discarding: false,
                        read_closed: false,
                        registered: None,
                    };
                    if self
                        .set_interest(&mut conn, Some(Interest::READABLE))
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    self.slab[slot] = Some(conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// (Re/de)registers a connection to match `desired`, tracking the
    /// current registration so redundant syscalls are skipped.
    fn set_interest(&self, conn: &mut Conn, desired: Option<Interest>) -> std::io::Result<()> {
        if conn.registered == desired {
            return Ok(());
        }
        let registry = self.poll.registry();
        let stream = &conn.handle.stream;
        match (conn.registered, desired) {
            (None, Some(i)) => registry.register(stream, Token(conn.handle.slot + CONN_BASE), i)?,
            (Some(_), Some(i)) => {
                registry.reregister(stream, Token(conn.handle.slot + CONN_BASE), i)?;
            }
            (Some(_), None) => registry.deregister(stream)?,
            (None, None) => {}
        }
        conn.registered = desired;
        Ok(())
    }

    /// The interest a connection should hold given its state.
    fn desired_interest(&self, conn: &Conn) -> Option<Interest> {
        let want_read = !conn.read_closed && !self.draining;
        let want_write = !lock(&conn.handle.pending).buf.is_empty();
        match (want_read, want_write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        }
    }

    fn on_conn_event(&mut self, slot: usize, readable: bool, writable: bool, read_closed: bool) {
        let Some(conn) = self.slab.get(slot).map(Option::as_ref) else {
            return; // stale event for a reclaimed slot
        };
        if conn.is_none() {
            return;
        }
        if writable {
            self.flush_slot(slot);
        }
        if readable && !self.draining {
            self.read_slot(slot);
        } else if read_closed {
            if let Some(conn) = &mut self.slab[slot] {
                if !conn.read_closed {
                    conn.read_closed = true;
                    self.park(slot);
                }
            }
        }
        self.refresh_interest(slot);
    }

    /// Flushes the pending buffer as far as the socket (and the
    /// test-only chunk limit) allows.
    fn flush_slot(&mut self, slot: usize) {
        let Some(conn) = &self.slab[slot] else { return };
        let handle = Arc::clone(&conn.handle);
        let mut pending = lock(&handle.pending);
        if pending.dead {
            pending.buf.clear();
            return;
        }
        while !pending.buf.is_empty() {
            let (head, _) = pending.buf.as_slices();
            let take = self
                .shared
                .write_chunk_limit
                .map_or(head.len(), |l| l.min(head.len()));
            match (&handle.stream).write(&head[..take]) {
                Ok(0) => {
                    pending.dead = true;
                    pending.buf.clear();
                    return;
                }
                Ok(n) => {
                    pending.buf.drain(..n);
                    if self.shared.write_chunk_limit.is_some() {
                        // One chunk per writable event, so a long
                        // response observably spans several flushes.
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    pending.dead = true;
                    pending.buf.clear();
                    return;
                }
            }
        }
    }

    /// Reads one bounded burst and processes every completed line.
    fn read_slot(&mut self, slot: usize) {
        let Some(conn) = &mut self.slab[slot] else {
            return;
        };
        let handle = Arc::clone(&conn.handle);
        let mut scratch = [0u8; 4096];
        let mut total = 0;
        let mut saw_eof = false;
        loop {
            match (&handle.stream).read(&mut scratch) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    let Some(conn) = &mut self.slab[slot] else {
                        return;
                    };
                    conn.read_buf.extend_from_slice(&scratch[..n]);
                    total += n;
                    if total >= READ_BURST_BYTES {
                        break; // level triggering re-delivers the rest
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    saw_eof = true;
                    break;
                }
            }
        }
        let shutdown = self.process_lines(slot);
        if saw_eof || shutdown {
            if let Some(conn) = &mut self.slab[slot] {
                if saw_eof && !conn.read_buf.is_empty() && !conn.discarding && !shutdown {
                    // Final unterminated line: still a request.
                    let raw = std::mem::take(&mut conn.read_buf);
                    handle_line(&raw, &self.state, &self.queue, &conn.handle);
                }
            }
            if let Some(conn) = &mut self.slab[slot] {
                // A shutdown requester stops being read but stays
                // registered for writes: its ack is still owed.
                conn.read_closed = true;
                conn.read_buf.clear();
                conn.scan_from = 0;
                self.park(slot);
            }
        }
    }

    /// Scans the accumulated buffer for complete lines and dispatches
    /// them. Returns `true` when a shutdown request was handled (the
    /// rest of the buffer is discarded).
    fn process_lines(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = &mut self.slab[slot] else {
                return false;
            };
            match conn.read_buf[conn.scan_from..]
                .iter()
                .position(|&b| b == b'\n')
            {
                Some(offset) => {
                    let line_end = conn.scan_from + offset;
                    let line: Vec<u8> = conn.read_buf[..line_end].to_vec();
                    conn.read_buf.drain(..=line_end);
                    conn.scan_from = 0;
                    if conn.discarding {
                        conn.discarding = false;
                        continue;
                    }
                    if line.len() > self.max_line_bytes {
                        let handle = Arc::clone(&conn.handle);
                        self.reject_oversized(&handle);
                        continue;
                    }
                    if handle_line(&line, &self.state, &self.queue, &conn.handle) {
                        return true;
                    }
                }
                None => {
                    conn.scan_from = conn.read_buf.len();
                    if !conn.discarding && conn.read_buf.len() > self.max_line_bytes {
                        // Mid-stream cap: answer once, drop until the
                        // next newline resyncs the stream.
                        let handle = Arc::clone(&conn.handle);
                        self.reject_oversized(&handle);
                        let Some(conn) = &mut self.slab[slot] else {
                            return false;
                        };
                        conn.discarding = true;
                        conn.read_buf.clear();
                        conn.scan_from = 0;
                    }
                    return false;
                }
            }
        }
    }

    fn reject_oversized(&self, handle: &Arc<ConnHandle>) {
        self.state.counters.protocol_errors.inc();
        handle.send(&render_error(&ProtocolError::new(
            None,
            ErrorCode::Invalid,
            format!("line exceeds {} bytes", self.max_line_bytes),
        )));
    }

    /// Registers newly-dirty connections (worker responses that did not
    /// flush in one write) for writable events.
    fn apply_dirty(&mut self) {
        let dirty = std::mem::take(&mut *lock(&self.shared.dirty));
        for handle in dirty {
            let slot = handle.slot;
            let live = matches!(
                self.slab.get(slot),
                Some(Some(conn)) if Arc::ptr_eq(&conn.handle, &handle)
            );
            if live {
                self.refresh_interest(slot);
            }
        }
    }

    fn refresh_interest(&mut self, slot: usize) {
        let Some(Some(conn)) = self.slab.get(slot) else {
            return;
        };
        let desired = self.desired_interest(conn);
        let mut conn = self.slab[slot].take().expect("checked above");
        if self.set_interest(&mut conn, desired).is_err() {
            // Registration failures orphan the fd; drop the connection.
            lock(&conn.handle.pending).dead = true;
        }
        self.slab[slot] = Some(conn);
    }

    fn park(&mut self, slot: usize) {
        if !self.parked.contains(&slot) {
            self.parked.push(slot);
        }
    }

    /// Reclaims read-closed connections whose output is fully flushed
    /// and whose handle nobody (worker job, acker) still holds.
    fn sweep_parked(&mut self) {
        let mut still_parked = Vec::new();
        for slot in std::mem::take(&mut self.parked) {
            let Some(Some(conn)) = self.slab.get(slot) else {
                continue;
            };
            let flushed = {
                let p = lock(&conn.handle.pending);
                p.dead || p.buf.is_empty()
            };
            if flushed && Arc::strong_count(&conn.handle) == 1 {
                let mut conn = self.slab[slot].take().expect("checked above");
                let _ = self.set_interest(&mut conn, None);
                self.free.push(slot);
            } else {
                still_parked.push(slot);
            }
        }
        self.parked = still_parked;
    }

    /// The shutdown transition: stop accepting and reading, close the
    /// queue, and hand the worker pool to a joiner thread that wakes
    /// the reactor when the backlog is drained.
    fn begin_drain(&mut self, workers: Vec<std::thread::JoinHandle<()>>) {
        self.draining = true;
        let _ = self.poll.registry().deregister(&self.listener);
        // Stop read interest everywhere; pending writes stay registered.
        for slot in 0..self.slab.len() {
            self.refresh_interest(slot);
        }
        self.queue.close();
        let done = Arc::clone(&self.workers_done);
        let state = Arc::clone(&self.state);
        let waker_shared = Arc::clone(&self.shared);
        std::thread::spawn(move || {
            for w in workers {
                if w.join().is_err() {
                    state.counters.internal_errors.inc();
                }
            }
            done.store(true, Ordering::SeqCst);
            let _ = waker_shared.waker.wake();
        });
    }

    /// Workers are done: answer anything left in the queue, flush every
    /// pending buffer with blocking writes, and acknowledge shutdown.
    fn finish_drain(&mut self) {
        while let Some((job, _)) = self.queue.pop() {
            job.writer.send(&render_error(&ProtocolError::new(
                Some(job.request.id),
                ErrorCode::ShuttingDown,
                "server is draining",
            )));
        }
        // Final flush: switch the sockets back to blocking (with a
        // timeout so one dead client cannot wedge shutdown) and drain
        // the buffers synchronously.
        for conn in self.slab.iter().flatten() {
            let handle = &conn.handle;
            let mut pending = lock(&handle.pending);
            if pending.dead || pending.buf.is_empty() {
                continue;
            }
            if handle.stream.set_nonblocking(false).is_err()
                || handle
                    .stream
                    .set_write_timeout(Some(FINAL_FLUSH_TIMEOUT))
                    .is_err()
            {
                continue;
            }
            let bytes: Vec<u8> = pending.buf.iter().copied().collect();
            let _ = (&handle.stream)
                .write_all(&bytes)
                .and_then(|()| (&handle.stream).flush());
            pending.buf.clear();
        }
        for conn in self.slab.iter().flatten() {
            // Remaining sockets switch to blocking so the acks below
            // (and nothing else) write synchronously.
            let _ = conn.handle.stream.set_nonblocking(false);
            let _ = conn
                .handle
                .stream
                .set_write_timeout(Some(FINAL_FLUSH_TIMEOUT));
        }
        let ackers = std::mem::take(&mut *lock(self.state.ackers()));
        let drained = self.state.counters.served.get();
        for (id, handle) in ackers {
            handle.send_final(&render_ok(
                "shutdown",
                id,
                &[("served".into(), drained.to_string())],
            ));
        }
    }
}
