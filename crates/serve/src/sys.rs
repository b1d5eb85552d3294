//! Readiness multiplexing for the reactor front-end.
//!
//! The workspace builds fully offline with no external dependencies, so
//! there is no `libc` crate to lean on. This module declares the few C
//! symbols it needs itself (`epoll_*`, `poll` and, on Linux,
//! `getrlimit`/`setrlimit`): `std` already links the platform's C library
//! on every unix target, so the declarations resolve without a new crate.
//!
//! Two readiness backends are exposed behind one [`Poller`] type:
//!
//! * **epoll** (Linux): one `epoll_create1` instance per event loop,
//!   level-triggered interest updated with `epoll_ctl`, waits through
//!   `epoll_wait`. O(ready) per tick — the C10k path.
//! * **poll(2)** (every unix, or chosen by `IngressOptions::backend`): the
//!   interest list is replayed through `poll` each tick. O(n) per tick,
//!   but semantically identical — the reactor proper cannot tell the
//!   backends apart, which is what the backend-parity tests pin.
//!
//! The loop waker is a nonblocking `UnixStream` pair (`std`-only, works
//! with both backends): completion callbacks write one byte, the loop
//! drains on readiness.

use std::io;
use std::os::unix::net::UnixStream;
#[cfg(not(target_os = "linux"))]
use std::os::unix::prelude::AsRawFd;
use std::os::unix::prelude::RawFd;
#[cfg(target_os = "linux")]
use std::os::unix::prelude::{AsRawFd, FromRawFd, OwnedFd};

/// Interest bit: readable.
pub const EV_READ: u8 = 0b01;
/// Interest bit: writable.
pub const EV_WRITE: u8 = 0b10;

/// One readiness event, backend-neutral.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or peer-hangup: a read will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error condition on the fd (`EPOLLERR`/`POLLERR`/`POLLNVAL`).
    pub error: bool,
}

// ---------------------------------------------------------------------------
// Shared kernel ABI types.

/// `struct epoll_event`. The kernel packs it on x86-64 only.
#[cfg(target_os = "linux")]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// `EPOLL*` readiness bits.
    pub events: u32,
    /// Caller token, returned verbatim.
    pub data: u64,
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[cfg(target_os = "linux")]
mod epoll_consts {
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    /// `O_CLOEXEC`, which SPARC numbers differently.
    pub const EPOLL_CLOEXEC: i32 = if cfg!(any(target_arch = "sparc", target_arch = "sparc64")) {
        0x40_0000
    } else {
        0o2000000
    };
}
#[cfg(target_os = "linux")]
use epoll_consts::*;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// Fold a C return value into `io::Result`: negative means `errno` is set.
fn cvt(r: i32) -> io::Result<usize> {
    if r < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(r as usize)
    }
}

// ---------------------------------------------------------------------------
// The C symbols, wrapped.

#[cfg(target_os = "linux")]
mod sysimpl {
    use super::{cvt, EpollEvent, PollFd};
    use std::io;
    use std::os::raw::{c_int, c_ulong};

    /// `rlim_t`: `unsigned long`, but 64 bits in musl.
    #[cfg(not(target_env = "musl"))]
    type RlimT = c_ulong;
    #[cfg(target_env = "musl")]
    type RlimT = u64;

    /// `struct rlimit`.
    #[repr(C)]
    struct Rlimit {
        cur: RlimT,
        max: RlimT,
    }

    /// `RLIMIT_NOFILE`: 7, except on MIPS (5) and SPARC (6).
    const RLIMIT_NOFILE: c_int = if cfg!(any(target_arch = "mips", target_arch = "mips64")) {
        5
    } else if cfg!(any(target_arch = "sparc", target_arch = "sparc64")) {
        6
    } else {
        7
    };

    mod c {
        use super::{EpollEvent, PollFd, Rlimit};
        use std::os::raw::{c_int, c_ulong};

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
            pub fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
            pub fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
        }
    }

    pub fn epoll_create1(flags: i32) -> io::Result<i32> {
        // SAFETY: no pointers; flags is a plain bitmask.
        cvt(unsafe { c::epoll_create1(flags) }).map(|fd| fd as i32)
    }

    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, ev: Option<&mut EpollEvent>) -> io::Result<()> {
        let ptr = ev.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `ptr` is null (DEL) or a live, exclusive EpollEvent.
        cvt(unsafe { c::epoll_ctl(epfd, op, fd, ptr) }).map(drop)
    }

    pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        // SAFETY: `events` is a live exclusive slice; the kernel writes at
        // most `max` entries.
        cvt(unsafe { c::epoll_wait(epfd, events.as_mut_ptr(), max, timeout_ms) })
    }

    pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is a live exclusive slice of kernel-ABI pollfds.
        cvt(unsafe { c::poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) })
    }

    pub fn raise_nofile_limit() -> Option<u64> {
        let mut lim = Rlimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a live exclusive out-pointer.
        cvt(unsafe { c::getrlimit(RLIMIT_NOFILE, &mut lim) }).ok()?;
        if lim.cur < lim.max {
            let raised = Rlimit {
                cur: lim.max,
                max: lim.max,
            };
            // SAFETY: `raised` is a live in-pointer for the call's duration.
            if cvt(unsafe { c::setrlimit(RLIMIT_NOFILE, &raised) }).is_ok() {
                lim.cur = lim.max;
            }
        }
        // `rlim_t` is 32 bits on 32-bit glibc targets.
        let soft: RlimT = lim.cur;
        Some(soft as u64)
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sysimpl {
    //! Non-Linux unix: no epoll; the reactor's poll backend is the only
    //! one available here.
    use super::{cvt, PollFd};
    use std::io;
    use std::os::raw::c_uint;

    mod c {
        use super::PollFd;
        use std::os::raw::{c_int, c_uint};

        extern "C" {
            pub fn poll(fds: *mut PollFd, nfds: c_uint, timeout: c_int) -> c_int;
        }
    }

    pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is a live exclusive slice of kernel-ABI pollfds.
        cvt(unsafe { c::poll(fds.as_mut_ptr(), fds.len() as c_uint, timeout_ms) })
    }

    pub fn raise_nofile_limit() -> Option<u64> {
        None
    }
}

/// Raise the process's soft `RLIMIT_NOFILE` to the hard limit (Linux; a
/// no-op `None` elsewhere). Returns the resulting soft limit so callers
/// can size their connection counts honestly instead of crashing on
/// `EMFILE` mid-benchmark.
pub fn raise_nofile_limit() -> Option<u64> {
    sysimpl::raise_nofile_limit()
}

/// Whether the epoll backend exists on this target.
pub fn epoll_supported() -> bool {
    cfg!(target_os = "linux")
}

// ---------------------------------------------------------------------------
// The epoll poller.

/// The epoll backend's state: one epoll instance plus its event buffer.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    ep: OwnedFd,
    buf: Vec<EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    fn new() -> io::Result<Self> {
        let fd = sysimpl::epoll_create1(EPOLL_CLOEXEC)?;
        // SAFETY: epoll_create1 returned a fresh fd we now own.
        let ep = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Self {
            ep,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn mask(interest: u8) -> u32 {
        let mut m = 0;
        if interest & EV_READ != 0 {
            // RDHUP rides with read interest only: a half-closed peer must
            // not wake a connection whose reads are deliberately parked.
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if interest & EV_WRITE != 0 {
            m |= EPOLLOUT;
        }
        m
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u8) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: Self::mask(interest),
            data: token,
        };
        sysimpl::epoll_ctl(self.ep.as_raw_fd(), op, fd, Some(&mut ev))
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        let n = match sysimpl::epoll_wait(self.ep.as_raw_fd(), &mut self.buf, timeout_ms) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &self.buf[..n] {
            let bits = ev.events;
            out.push(Event {
                token: { ev.data },
                readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & EPOLLERR != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The poll(2) poller: interest list replayed each tick.

/// The `poll(2)` backend's state: the authoritative interest list replayed
/// into a `pollfd` array each tick.
pub struct PollPoller {
    /// (fd, token, interest) — authoritative interest list.
    entries: Vec<(RawFd, u64, u8)>,
    fds: Vec<PollFd>,
}

impl PollPoller {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
            fds: Vec::new(),
        }
    }

    fn find(&self, fd: RawFd) -> Option<usize> {
        self.entries.iter().position(|&(f, _, _)| f == fd)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        self.fds.clear();
        for &(fd, _, interest) in &self.entries {
            let mut events = 0i16;
            if interest & EV_READ != 0 {
                events |= POLLIN;
            }
            if interest & EV_WRITE != 0 {
                events |= POLLOUT;
            }
            self.fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
        }
        let n = match sysimpl::poll(&mut self.fds, timeout_ms) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Ok(());
        }
        for (i, pfd) in self.fds.iter().enumerate() {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            out.push(Event {
                token: self.entries[i].1,
                readable: r & (POLLIN | POLLHUP) != 0,
                writable: r & POLLOUT != 0,
                error: r & (POLLERR | POLLNVAL) != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The backend-neutral poller.

/// Which readiness backend a [`Poller`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Linux epoll — O(ready) per tick.
    Epoll,
    /// Portable `poll(2)` — O(registered) per tick.
    Poll,
}

/// One event loop's readiness multiplexer.
pub enum Poller {
    /// Linux epoll instance.
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    /// `poll(2)` interest-list replay.
    Poll(PollPoller),
}

impl Poller {
    /// Open a poller on `backend`.
    ///
    /// # Errors
    /// `epoll_create1` failure, or requesting epoll on a non-Linux target.
    pub fn new(backend: Backend) -> io::Result<Self> {
        match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => Ok(Poller::Epoll(EpollPoller::new()?)),
            #[cfg(not(target_os = "linux"))]
            Backend::Epoll => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll backend requires Linux; set IngressOptions::backend to poll",
            )),
            Backend::Poll => Ok(Poller::Poll(PollPoller::new())),
        }
    }

    /// Which backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => Backend::Epoll,
            Poller::Poll(_) => Backend::Poll,
        }
    }

    /// Register `fd` with `interest`; readiness events carry `token`.
    ///
    /// # Errors
    /// The underlying `epoll_ctl` failure (the poll backend cannot fail).
    pub fn add(&mut self, fd: RawFd, token: u64, interest: u8) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(EPOLL_CTL_ADD, fd, token, interest),
            Poller::Poll(p) => {
                debug_assert!(p.find(fd).is_none(), "fd registered twice");
                p.entries.push((fd, token, interest));
                Ok(())
            }
        }
    }

    /// Replace `fd`'s interest set.
    ///
    /// # Errors
    /// The underlying `epoll_ctl` failure or an unregistered fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: u8) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(EPOLL_CTL_MOD, fd, token, interest),
            Poller::Poll(p) => {
                let i = p
                    .find(fd)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
                p.entries[i] = (fd, token, interest);
                Ok(())
            }
        }
    }

    /// Remove `fd` from the interest set. Must be called *before* the fd is
    /// closed (the poll backend matches by fd number).
    ///
    /// # Errors
    /// The underlying `epoll_ctl` failure.
    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => sysimpl::epoll_ctl(p.ep.as_raw_fd(), EPOLL_CTL_DEL, fd, None),
            Poller::Poll(p) => {
                if let Some(i) = p.find(fd) {
                    p.entries.swap_remove(i);
                }
                Ok(())
            }
        }
    }

    /// Block up to `timeout_ms` (-1 = forever) and append readiness events
    /// to `out`. A signal interruption returns cleanly with no events.
    ///
    /// # Errors
    /// Backend wait failure other than `EINTR`.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(out, timeout_ms),
            Poller::Poll(p) => p.wait(out, timeout_ms),
        }
    }
}

// ---------------------------------------------------------------------------
// The loop waker.

/// Wakes an event loop parked in [`Poller::wait`] from another thread:
/// a nonblocking `UnixStream` pair, write side shared by completion
/// callbacks and the accept path, read side registered in the loop.
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// Create a waker pair.
    ///
    /// # Errors
    /// `socketpair` failure.
    pub fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self { tx, rx })
    }

    /// The fd to register for `EV_READ` in the loop's poller.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Wake the loop. Saturating: once the pipe is full the loop is
    /// certainly waking anyway, so `WouldBlock` is success.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1]);
    }

    /// Drain pending wake bytes after a readiness event.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn backends() -> Vec<Backend> {
        if epoll_supported() {
            vec![Backend::Epoll, Backend::Poll]
        } else {
            vec![Backend::Poll]
        }
    }

    #[test]
    fn both_backends_report_readable_data() {
        for backend in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();

            let mut poller = Poller::new(backend).unwrap();
            assert_eq!(poller.backend(), backend);
            poller.add(server.as_raw_fd(), 7, EV_READ).unwrap();

            // Nothing pending yet: a zero-timeout wait returns no events.
            let mut events = Vec::new();
            poller.wait(&mut events, 0).unwrap();
            assert!(events.is_empty(), "{backend:?}: spurious readiness");

            client.write_all(b"ping").unwrap();
            let mut events = Vec::new();
            // Generous timeout; loopback delivery is immediate in practice.
            poller.wait(&mut events, 2_000).unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable && !events[0].writable);

            let mut buf = [0u8; 8];
            let n = (&server).read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"ping");
            poller.remove(server.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn interest_modification_gates_writability() {
        for backend in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();

            let mut poller = Poller::new(backend).unwrap();
            poller.add(server.as_raw_fd(), 3, EV_READ).unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, 0).unwrap();
            assert!(
                events.iter().all(|e| !e.writable),
                "{backend:?}: writable without EV_WRITE interest"
            );

            // An idle socket with write interest is immediately writable.
            poller
                .modify(server.as_raw_fd(), 3, EV_READ | EV_WRITE)
                .unwrap();
            events.clear();
            poller.wait(&mut events, 2_000).unwrap();
            assert!(
                events.iter().any(|e| e.token == 3 && e.writable),
                "{backend:?}: write readiness missing"
            );
            poller.remove(server.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn waker_crosses_threads_and_drains() {
        for backend in backends() {
            let waker = std::sync::Arc::new(Waker::new().unwrap());
            let mut poller = Poller::new(backend).unwrap();
            poller.add(waker.fd(), u64::MAX, EV_READ).unwrap();

            let w2 = std::sync::Arc::clone(&waker);
            let t = std::thread::spawn(move || {
                for _ in 0..100 {
                    w2.wake();
                }
            });
            let mut events = Vec::new();
            poller.wait(&mut events, 2_000).unwrap();
            assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));
            t.join().unwrap();
            waker.drain();
            // Drained: no residual readiness.
            events.clear();
            poller.wait(&mut events, 0).unwrap();
            assert!(
                events.is_empty(),
                "{backend:?}: waker still readable after drain"
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn nofile_limit_raise_reports_a_usable_bound() {
        let soft = raise_nofile_limit().expect("linux must report a limit");
        assert!(soft >= 256, "soft fd limit {soft} suspiciously small");
    }

    #[test]
    fn peer_hangup_reads_as_readable() {
        for backend in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            let mut poller = Poller::new(backend).unwrap();
            poller.add(server.as_raw_fd(), 9, EV_READ).unwrap();
            drop(client);
            let mut events = Vec::new();
            poller.wait(&mut events, 2_000).unwrap();
            // HUP must surface as readability so the reactor observes EOF.
            assert!(
                events.iter().any(|e| e.token == 9 && e.readable),
                "{backend:?}: hangup invisible"
            );
            poller.remove(server.as_raw_fd()).unwrap();
        }
    }
}
