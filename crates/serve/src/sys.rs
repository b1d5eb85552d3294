//! Readiness-multiplexing syscall shims for the reactor front-end.
//!
//! The workspace builds fully offline with zero external dependencies, so
//! there is no `libc` crate to lean on. On Linux x86-64/aarch64 the epoll
//! and ppoll entry points are invoked as *raw syscalls* through inline
//! assembly — the same shim discipline as `sync-shim`/`proptest-shim`: a
//! thin, auditable stand-in for the dependency the container cannot fetch.
//! On other targets the shims fall back to the C symbols `std` already
//! links (every unix program carries them), keeping the reactor portable
//! without pulling in a crate.
//!
//! Two readiness backends are exposed behind one [`Poller`] type:
//!
//! * **epoll** (Linux): one `epoll_create1` instance per event loop,
//!   level-triggered interest updated with `epoll_ctl`, waits through
//!   `epoll_pwait`. O(ready) per tick — the C10k path.
//! * **poll(2)** (portable fallback, or chosen by `IngressOptions::backend`): the
//!   interest list is replayed through `ppoll`/`poll` each tick. O(n) per
//!   tick, but semantically identical — the reactor proper cannot tell the
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
// Raw syscalls (Linux x86-64 / aarch64): libc-free via inline assembly.

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod raw {
    #[cfg(target_arch = "x86_64")]
    pub mod nr {
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_CREATE1: usize = 291;
        pub const PPOLL: usize = 271;
        pub const PRLIMIT64: usize = 302;
    }

    #[cfg(target_arch = "aarch64")]
    pub mod nr {
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const EPOLL_CREATE1: usize = 20;
        pub const PPOLL: usize = 73;
        pub const PRLIMIT64: usize = 261;
    }

    /// Six-argument raw syscall. Returns the kernel's raw result: negative
    /// values in `[-4095, -1]` are `-errno`.
    ///
    /// # Safety
    /// The caller must uphold the invoked syscall's contract (valid
    /// pointers, correct lengths).
    #[cfg(target_arch = "x86_64")]
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// Six-argument raw syscall (aarch64 `svc 0` convention).
    ///
    /// # Safety
    /// The caller must uphold the invoked syscall's contract.
    #[cfg(target_arch = "aarch64")]
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            in("x8") n,
            options(nostack),
        );
        ret
    }

    /// Fold a raw kernel return into `io::Result`.
    pub fn check(ret: isize) -> std::io::Result<isize> {
        if (-4095..0).contains(&ret) {
            Err(std::io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }
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
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
}
#[cfg(target_os = "linux")]
use epoll_consts::*;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

// ---------------------------------------------------------------------------
// Linux syscall wrappers: raw on x86-64/aarch64, C symbols elsewhere.

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sysimpl {
    use super::raw::{check, nr, syscall6};
    use super::EpollEvent;
    use std::io;

    pub fn epoll_create1(flags: i32) -> io::Result<i32> {
        // SAFETY: no pointers; flags is a plain bitmask.
        let r = check(unsafe { syscall6(nr::EPOLL_CREATE1, flags as usize, 0, 0, 0, 0, 0) })?;
        Ok(r as i32)
    }

    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, ev: Option<&mut EpollEvent>) -> io::Result<()> {
        let ptr = ev.map_or(core::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `ptr` is null (DEL) or a live, exclusive EpollEvent.
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as usize,
                op as usize,
                fd as usize,
                ptr as usize,
                0,
                0,
            )
        })?;
        Ok(())
    }

    pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // epoll_pwait with a null sigmask == epoll_wait; aarch64 only has
        // the pwait flavour.
        // SAFETY: `events` is a live exclusive slice; the kernel writes at
        // most `events.len()` entries.
        let r = check(unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0,
                8,
            )
        })?;
        Ok(r as usize)
    }

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    pub fn poll(fds: &mut [super::PollFd], timeout_ms: i32) -> io::Result<usize> {
        // The kernel writes the remaining time back through `tmo_p`, so the
        // timespec must be passed as a mutable pointer — glibc's ppoll hides
        // that with a local copy; this raw shim owns the local itself.
        let mut ts = Timespec {
            sec: i64::from(timeout_ms) / 1000,
            nsec: (i64::from(timeout_ms) % 1000) * 1_000_000,
        };
        let ts_ptr = if timeout_ms < 0 {
            core::ptr::null_mut()
        } else {
            &mut ts as *mut Timespec
        };
        // SAFETY: `fds` is a live exclusive slice of kernel-ABI pollfds;
        // the timespec (when non-null) is a live exclusive out-pointer that
        // outlives the call.
        let r = check(unsafe {
            syscall6(
                nr::PPOLL,
                fds.as_mut_ptr() as usize,
                fds.len(),
                ts_ptr as usize,
                0,
                8,
                0,
            )
        })?;
        Ok(r as usize)
    }

    #[repr(C)]
    struct Rlimit64 {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: usize = 7;

    /// Raise the soft open-file limit to the hard limit; returns the
    /// resulting soft limit, or `None` when the kernel refused.
    pub fn raise_nofile_limit() -> Option<u64> {
        let mut old = Rlimit64 { cur: 0, max: 0 };
        // SAFETY: pid 0 = self; `old` is a live exclusive out-pointer.
        check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                0,
                &mut old as *mut Rlimit64 as usize,
                0,
                0,
            )
        })
        .ok()?;
        if old.cur >= old.max {
            return Some(old.cur);
        }
        let new = Rlimit64 {
            cur: old.max,
            max: old.max,
        };
        // SAFETY: `new` is a live const in-pointer for the call's duration.
        match check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                &new as *const Rlimit64 as usize,
                0,
                0,
                0,
            )
        }) {
            Ok(_) => Some(new.cur),
            Err(_) => Some(old.cur),
        }
    }
}

#[cfg(all(
    target_os = "linux",
    not(any(target_arch = "x86_64", target_arch = "aarch64"))
))]
mod sysimpl {
    //! Linux, but no inline-asm shim for this architecture: call the C
    //! symbols `std` already links.
    use super::EpollEvent;
    use std::io;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn poll(fds: *mut super::PollFd, nfds: u64, timeout: i32) -> i32;
    }

    pub fn epoll_create1_shim(flags: i32) -> io::Result<i32> {
        // SAFETY: plain flags argument.
        let r = unsafe { epoll_create1(flags) };
        if r < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(r)
        }
    }
    pub use epoll_create1_shim as epoll_create1;

    pub fn epoll_ctl_shim(
        epfd: i32,
        op: i32,
        fd: i32,
        ev: Option<&mut EpollEvent>,
    ) -> io::Result<()> {
        let ptr = ev.map_or(core::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `ptr` is null (DEL) or a live, exclusive EpollEvent.
        if unsafe { epoll_ctl(epfd, op, fd, ptr) } < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }
    pub use epoll_ctl_shim as epoll_ctl;

    pub fn epoll_wait_shim(
        epfd: i32,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        // SAFETY: `events` is a live exclusive slice.
        let r = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if r < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(r as usize)
        }
    }
    pub use epoll_wait_shim as epoll_wait;

    pub fn poll_shim(fds: &mut [super::PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is a live exclusive slice of kernel-ABI pollfds.
        let r = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if r < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(r as usize)
        }
    }
    pub use poll_shim as poll;

    pub fn raise_nofile_limit() -> Option<u64> {
        None
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sysimpl {
    //! Non-Linux unix: no epoll; `poll(2)` through the C symbol `std`
    //! links. The reactor's poll backend is the only one available here.
    use std::io;

    extern "C" {
        fn poll(fds: *mut super::PollFd, nfds: u32, timeout: i32) -> i32;
    }

    pub fn poll_shim(fds: &mut [super::PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is a live exclusive slice of kernel-ABI pollfds.
        let r = unsafe { poll(fds.as_mut_ptr(), fds.len() as u32, timeout_ms) };
        if r < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(r as usize)
        }
    }
    pub use poll_shim as poll;

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
    /// Linux epoll via raw syscalls — O(ready) per tick.
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
