//! Offline API-compatible subset of [`mio`](https://docs.rs/mio): a
//! readiness-based event loop built directly on raw `epoll(7)` and
//! `eventfd(2)` syscalls.
//!
//! The build environment has no crates.io access, so — like the other
//! `shims/` crates — this reimplements exactly the slice of the real
//! API the workspace uses: [`Poll`], [`Registry`], [`Events`],
//! [`Event`], [`Token`], [`Interest`], and [`Waker`]. The serving
//! layer's reactor (`mba-serve`) and the open-loop load generator both
//! drive tens of thousands of nonblocking sockets through this one
//! event loop, so the shim is deliberately boring: level-triggered
//! registrations (the callers only register write interest while bytes
//! are actually pending, so level triggering cannot busy-loop),
//! an edge-triggered eventfd for cross-thread wakeups, and nothing
//! else.
//!
//! Divergences from real `mio`, all chosen to keep the shim small:
//!
//! * Registration takes `&impl AsRawFd` instead of a `&mut` /
//!   `event::Source` pair — std's `TcpListener`/`TcpStream` already
//!   implement `AsRawFd`, and this shim never needs to hook
//!   deregistration state into the source.
//! * Events are level-triggered (real mio is edge-triggered). Callers
//!   that drain readiness to `WouldBlock` — as all of ours do — behave
//!   identically under both disciplines.
//! * Only Linux is supported; on other platforms every constructor
//!   returns `Unsupported`, so the workspace still compiles there and
//!   the server reports the error instead of serving.
//!
//! All `unsafe` in the workspace's event-driven serving path lives in
//! this file; `mba-serve` itself keeps `#![forbid(unsafe_code)]`.

/// Associates a registered file descriptor with the events it produces.
///
/// Mirrors `mio::Token`: an opaque `usize` the caller picks (slab
/// indices, sentinel values for the listener/waker, …) and gets back
/// verbatim from [`Event::token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Readiness interest, combinable with `|`: [`Interest::READABLE`],
/// [`Interest::WRITABLE`], or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Readable readiness (plus peer-hangup, which Linux folds in).
    pub const READABLE: Interest = Interest(0b01);
    /// Writable readiness.
    pub const WRITABLE: Interest = Interest(0b10);

    /// Whether this interest includes readable readiness.
    pub fn is_readable(self) -> bool {
        self.0 & 0b01 != 0
    }

    /// Whether this interest includes writable readiness.
    pub fn is_writable(self) -> bool {
        self.0 & 0b10 != 0
    }

    /// The union of two interests (mirrors `mio::Interest::add`).
    #[must_use]
    #[allow(clippy::should_implement_trait)] // mio's real method name
    pub fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, other: Interest) -> Interest {
        self.add(other)
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! The raw syscall surface. x86_64's `epoll_event` is packed; every
    //! other Linux architecture uses natural `repr(C)` alignment.

    use std::io;
    use std::os::raw::{c_int, c_uint, c_void};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    /// The kernel's `struct epoll_event`.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create() -> io::Result<c_int> {
        // SAFETY: plain fd-returning syscall with no pointer arguments.
        cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
    }

    pub fn ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` is a valid, live epoll_event for the call's
        // duration; the kernel copies it before returning. DEL ignores
        // the pointer but a valid one is passed anyway (pre-2.6.9
        // kernels required it; it is never wrong).
        cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    pub fn wait(
        epfd: c_int,
        events: &mut Vec<EpollEvent>,
        capacity: usize,
        timeout_ms: c_int,
    ) -> io::Result<usize> {
        events.clear();
        events.reserve(capacity);
        // SAFETY: the spare capacity holds at least `capacity` events;
        // the kernel writes `n <= capacity` entries which `set_len`
        // then exposes as initialized (EpollEvent is plain-old-data).
        let n = loop {
            let ret =
                unsafe { epoll_wait(epfd, events.as_mut_ptr(), capacity as c_int, timeout_ms) };
            match cvt(ret) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        unsafe { events.set_len(n) };
        Ok(n)
    }

    pub fn eventfd_new() -> io::Result<c_int> {
        // SAFETY: plain fd-returning syscall with no pointer arguments.
        cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
    }

    pub fn eventfd_write(fd: c_int) -> io::Result<()> {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from a live stack u64, as the
        // eventfd contract requires.
        let n = unsafe { write(fd, std::ptr::addr_of!(one).cast(), 8) };
        if n < 0 {
            let e = io::Error::last_os_error();
            // A full counter (u64::MAX-1 pending wakes) still means
            // "the poller will wake"; treat it as success.
            if e.kind() == io::ErrorKind::WouldBlock {
                return Ok(());
            }
            return Err(e);
        }
        Ok(())
    }

    pub fn eventfd_drain(fd: c_int) {
        let mut buf: u64 = 0;
        // SAFETY: reads exactly 8 bytes into a live stack u64; the fd is
        // nonblocking so this never parks.
        let _ = unsafe { read(fd, std::ptr::addr_of_mut!(buf).cast(), 8) };
    }

    pub fn close_fd(fd: c_int) {
        // SAFETY: fds closed here are owned by the shim's types and
        // closed exactly once, in drop.
        let _ = unsafe { close(fd) };
    }
}

#[cfg(target_os = "linux")]
pub use linux_impl::{Events, Poll, Registry, Waker};

#[cfg(target_os = "linux")]
mod linux_impl {
    use super::sys;
    use super::{Interest, Token};
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    /// One readiness notification.
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        token: Token,
        events: u32,
    }

    impl Event {
        /// The token the fd was registered with.
        pub fn token(&self) -> Token {
            self.token
        }

        /// Readable readiness (includes hangup/error, which a read will
        /// surface as EOF or an I/O error — matching mio's behaviour).
        pub fn is_readable(&self) -> bool {
            self.events & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0
        }

        /// Writable readiness (includes hangup/error so a pending write
        /// gets a chance to observe the failure).
        pub fn is_writable(&self) -> bool {
            self.events & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0
        }

        /// Whether the peer closed its read half (or the connection is
        /// fully gone).
        pub fn is_read_closed(&self) -> bool {
            self.events & (sys::EPOLLRDHUP | sys::EPOLLHUP) != 0
        }

        /// Hard error readiness.
        pub fn is_error(&self) -> bool {
            self.events & sys::EPOLLERR != 0
        }
    }

    /// A buffer of events filled by [`Poll::poll`].
    pub struct Events {
        inner: Vec<sys::EpollEvent>,
        capacity: usize,
    }

    impl Events {
        /// A buffer receiving at most `capacity` events per poll.
        pub fn with_capacity(capacity: usize) -> Events {
            Events {
                inner: Vec::with_capacity(capacity.max(1)),
                capacity: capacity.max(1),
            }
        }

        /// Iterates the events of the last poll.
        pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
            self.inner.iter().map(|e| Event {
                token: Token(e.data as usize),
                events: e.events,
            })
        }

        /// Whether the last poll returned no events.
        pub fn is_empty(&self) -> bool {
            self.inner.is_empty()
        }
    }

    /// Handle for (de)registering fds; obtained from [`Poll::registry`].
    #[derive(Debug)]
    pub struct Registry {
        epfd: c_int,
    }

    fn epoll_mask(interests: Interest) -> u32 {
        let mut mask = sys::EPOLLRDHUP;
        if interests.is_readable() {
            mask |= sys::EPOLLIN;
        }
        if interests.is_writable() {
            mask |= sys::EPOLLOUT;
        }
        mask
    }

    impl Registry {
        /// Registers `source` for level-triggered readiness under
        /// `token`.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failures (e.g. registering the same
        /// fd twice).
        pub fn register(
            &self,
            source: &impl AsRawFd,
            token: Token,
            interests: Interest,
        ) -> io::Result<()> {
            sys::ctl(
                self.epfd,
                sys::EPOLL_CTL_ADD,
                source.as_raw_fd(),
                epoll_mask(interests),
                token.0 as u64,
            )
        }

        /// Replaces an existing registration's token and interests.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failures (e.g. the fd is not
        /// registered).
        pub fn reregister(
            &self,
            source: &impl AsRawFd,
            token: Token,
            interests: Interest,
        ) -> io::Result<()> {
            sys::ctl(
                self.epfd,
                sys::EPOLL_CTL_MOD,
                source.as_raw_fd(),
                epoll_mask(interests),
                token.0 as u64,
            )
        }

        /// Removes a registration.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failures (e.g. the fd is not
        /// registered).
        pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
            sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, source.as_raw_fd(), 0, 0)
        }
    }

    /// The event loop's core: an epoll instance.
    #[derive(Debug)]
    pub struct Poll {
        registry: Registry,
    }

    impl Poll {
        /// Creates a fresh epoll instance.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_create1` failures (fd exhaustion).
        pub fn new() -> io::Result<Poll> {
            Ok(Poll {
                registry: Registry {
                    epfd: sys::epoll_create()?,
                },
            })
        }

        /// The registration handle.
        pub fn registry(&self) -> &Registry {
            &self.registry
        }

        /// Blocks until at least one registered fd is ready, the
        /// timeout elapses (`None` = forever), or a wakeup arrives.
        /// Waker tokens are delivered like any other event; the waker's
        /// eventfd is drained internally, so a new [`Waker::wake`] after
        /// this poll produces a new event.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_wait` failures. `EINTR` is retried
        /// internally.
        pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
            let timeout_ms: c_int = match timeout {
                None => -1,
                // Round up so a 100µs timeout does not spin at 0ms.
                Some(d) => {
                    d.as_millis().min(i32::MAX as u128) as c_int
                        + c_int::from(d.subsec_nanos() % 1_000_000 != 0)
                }
            };
            sys::wait(
                self.registry.epfd,
                &mut events.inner,
                events.capacity,
                timeout_ms,
            )?;
            Ok(())
        }
    }

    impl Drop for Poll {
        fn drop(&mut self) {
            sys::close_fd(self.registry.epfd);
        }
    }

    /// Cross-thread wakeup for a [`Poll`] parked in [`Poll::poll`]:
    /// an eventfd registered edge-triggered under the given token.
    /// `Send + Sync`; clone the `Arc` it usually lives in.
    #[derive(Debug)]
    pub struct Waker {
        efd: c_int,
    }

    impl Waker {
        /// Creates and registers the waker.
        ///
        /// # Errors
        ///
        /// Propagates eventfd/epoll failures.
        pub fn new(registry: &Registry, token: Token) -> io::Result<Waker> {
            let efd = sys::eventfd_new()?;
            // Edge-triggered: each `wake()` bumps the counter, which is
            // a new edge, so every wake yields at least one event even
            // if the counter is never drained to zero.
            if let Err(e) = sys::ctl(
                registry.epfd,
                sys::EPOLL_CTL_ADD,
                efd,
                sys::EPOLLIN | sys::EPOLLET,
                token.0 as u64,
            ) {
                sys::close_fd(efd);
                return Err(e);
            }
            Ok(Waker { efd })
        }

        /// Wakes the associated [`Poll`]. Callable from any thread;
        /// coalesces with other un-consumed wakes.
        ///
        /// # Errors
        ///
        /// Propagates the eventfd write failure (practically
        /// impossible).
        pub fn wake(&self) -> io::Result<()> {
            sys::eventfd_write(self.efd)
        }

        /// Drains the pending wake count. [`Poll::poll`] does not drain
        /// automatically (it cannot know which tokens are wakers), so
        /// the event loop calls this when it sees the waker's token;
        /// with an edge-triggered registration a missed drain only
        /// costs a spurious event, never a missed wake.
        pub fn drain(&self) {
            sys::eventfd_drain(self.efd);
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            sys::close_fd(self.efd);
        }
    }

    // SAFETY: the waker is a single fd written with an 8-byte atomic
    // eventfd write; concurrent wakes are the intended use.
    unsafe impl Send for Waker {}
    unsafe impl Sync for Waker {}
}

#[cfg(not(target_os = "linux"))]
pub use fallback_impl::{Events, Poll, Registry, Waker};

#[cfg(not(target_os = "linux"))]
mod fallback_impl {
    //! Non-Linux stub: constructors fail with `Unsupported`, so callers
    //! (the serve reactor, the open-loop load generator) report the
    //! missing backend at runtime.

    use super::{Interest, Token};
    use std::io;
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the mio shim's epoll backend is Linux-only",
        ))
    }

    /// One readiness notification (never produced on this platform).
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        token: Token,
    }

    impl Event {
        /// The token the fd was registered with.
        pub fn token(&self) -> Token {
            self.token
        }
        /// Always false on this platform.
        pub fn is_readable(&self) -> bool {
            false
        }
        /// Always false on this platform.
        pub fn is_writable(&self) -> bool {
            false
        }
        /// Always false on this platform.
        pub fn is_read_closed(&self) -> bool {
            false
        }
        /// Always false on this platform.
        pub fn is_error(&self) -> bool {
            false
        }
    }

    /// Event buffer stub.
    pub struct Events;

    impl Events {
        /// Creates the (empty) buffer.
        pub fn with_capacity(_capacity: usize) -> Events {
            Events
        }
        /// Always empty.
        pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
            std::iter::empty()
        }
        /// Always true.
        pub fn is_empty(&self) -> bool {
            true
        }
    }

    /// Registry stub; all methods fail.
    #[derive(Debug)]
    pub struct Registry;

    impl Registry {
        /// Always fails with `Unsupported`.
        pub fn register(
            &self,
            _source: &impl std::any::Any,
            _token: Token,
            _interests: Interest,
        ) -> io::Result<()> {
            unsupported()
        }
        /// Always fails with `Unsupported`.
        pub fn reregister(
            &self,
            _source: &impl std::any::Any,
            _token: Token,
            _interests: Interest,
        ) -> io::Result<()> {
            unsupported()
        }
        /// Always fails with `Unsupported`.
        pub fn deregister(&self, _source: &impl std::any::Any) -> io::Result<()> {
            unsupported()
        }
    }

    /// Poll stub; `new()` fails.
    #[derive(Debug)]
    pub struct Poll {
        registry: Registry,
    }

    impl Poll {
        /// Always fails with `Unsupported`.
        pub fn new() -> io::Result<Poll> {
            unsupported()
        }
        /// The registration handle.
        pub fn registry(&self) -> &Registry {
            &self.registry
        }
        /// Always fails with `Unsupported`.
        pub fn poll(&mut self, _events: &mut Events, _timeout: Option<Duration>) -> io::Result<()> {
            unsupported()
        }
    }

    /// Waker stub; `new()` fails.
    #[derive(Debug)]
    pub struct Waker;

    impl Waker {
        /// Always fails with `Unsupported`.
        pub fn new(_registry: &Registry, _token: Token) -> io::Result<Waker> {
            unsupported()
        }
        /// Always fails with `Unsupported`.
        pub fn wake(&self) -> io::Result<()> {
            unsupported()
        }
        /// No-op.
        pub fn drain(&self) {}
    }
}

/// Whether this platform has a working event-loop backend.
pub fn backend_available() -> bool {
    cfg!(target_os = "linux")
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const LISTENER: Token = Token(0);
    const WAKER: Token = Token(1);
    const CONN: Token = Token(2);

    #[test]
    fn interest_combines() {
        let both = Interest::READABLE | Interest::WRITABLE;
        assert!(both.is_readable() && both.is_writable());
        assert!(!Interest::READABLE.is_writable());
        assert!(!Interest::WRITABLE.is_readable());
    }

    #[test]
    fn accept_read_write_readiness_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();

        let mut poll = Poll::new().unwrap();
        poll.registry()
            .register(&listener, LISTENER, Interest::READABLE)
            .unwrap();
        let mut events = Events::with_capacity(16);

        // No client yet: a short poll returns empty.
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        let mut client = TcpStream::connect(addr).unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == LISTENER && e.is_readable()));

        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poll.registry()
            .register(&server_side, CONN, Interest::READABLE)
            .unwrap();

        client.write_all(b"ping").unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == CONN && e.is_readable()));
        let mut buf = [0u8; 8];
        let n = (&server_side).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // Write interest on an idle socket fires immediately
        // (level-triggered).
        poll.registry()
            .reregister(&server_side, CONN, Interest::WRITABLE)
            .unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == CONN && e.is_writable()));

        // Peer close surfaces as read-closed readiness.
        poll.registry()
            .reregister(&server_side, CONN, Interest::READABLE)
            .unwrap();
        drop(client);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events
            .iter()
            .find(|e| e.token() == CONN)
            .expect("close event");
        assert!(ev.is_readable() && ev.is_read_closed());

        poll.registry().deregister(&server_side).unwrap();
    }

    #[test]
    fn waker_wakes_from_another_thread_and_coalesces() {
        let mut poll = Poll::new().unwrap();
        let waker = Arc::new(Waker::new(poll.registry(), WAKER).unwrap());
        let mut events = Events::with_capacity(4);

        let w = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            // Multiple wakes before the poll returns coalesce into at
            // least one event.
            w.wake().unwrap();
            w.wake().unwrap();
        });
        let start = Instant::now();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(4), "poll never woke");
        assert!(events.iter().any(|e| e.token() == WAKER && e.is_readable()));
        waker.drain();
        handle.join().unwrap();

        // A fresh wake after draining produces a fresh event.
        waker.wake().unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == WAKER));
        waker.drain();

        // And with nothing pending, the poll times out empty.
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn timeout_rounds_up_not_down() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(4);
        let start = Instant::now();
        // 1.5ms must not truncate to 1ms-and-spin nor to 0.
        poll.poll(&mut events, Some(Duration::from_micros(1500)))
            .unwrap();
        assert!(start.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn event_capacity_bounds_one_poll() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poll = Poll::new().unwrap();
        let mut streams = Vec::new();
        for i in 0..8 {
            let c = TcpStream::connect(addr).unwrap();
            // Accept and register the server side, then make it
            // readable by writing from the client.
            loop {
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(true).unwrap();
                        poll.registry()
                            .register(&s, Token(100 + i), Interest::READABLE)
                            .unwrap();
                        streams.push((s, c));
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("accept: {e}"),
                }
            }
        }
        for (_, c) in &mut streams {
            c.write_all(b"x").unwrap();
        }
        // Capacity 4 yields at most 4 events per poll; level triggering
        // re-delivers the rest on the next poll.
        let mut events = Events::with_capacity(4);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4 {
            poll.poll(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            let n = events.iter().count();
            assert!(n <= 4);
            for e in events.iter() {
                seen.insert(e.token());
            }
            if seen.len() == 8 {
                break;
            }
        }
        assert_eq!(seen.len(), 8, "level-triggered redelivery incomplete");
    }
}
