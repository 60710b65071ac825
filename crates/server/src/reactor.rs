//! Readiness primitives for the shard threads: thin `extern "C"` bindings
//! to `poll(2)` and `epoll(7)` plus a pipe-based cross-thread waker.
//!
//! The build environment is offline — no mio, no tokio — but `std`
//! already links libc on every tier-1 unix target, so declaring the
//! syscalls the reactors need (`poll`, `epoll_create1`/`epoll_ctl`/
//! `epoll_wait`, `pipe`, `fcntl`) costs nothing and keeps the server
//! dependency-free. Everything else (nonblocking socket reads/writes)
//! goes through `std::net` with `set_nonblocking(true)`.
//!
//! Two readiness APIs coexist on purpose:
//!
//! * [`poll`] rebuilds its whole interest set per call — O(n) per
//!   wakeup, but allocation-free and portable. The acceptor thread
//!   still uses it: its set is two fds (listener + waker).
//! * [`Epoll`] keeps registrations *in the kernel* — `add` once per
//!   connection, `modify` to change or re-arm it, and each `wait`
//!   returns just the ready fds. The shard threads share one instance
//!   per shard and register connections [`EPOLLONESHOT`], so a ready
//!   connection is handed to exactly one thread, and per-wakeup work
//!   scales with readiness, not with the total connection count.

use std::io;
use std::os::unix::io::RawFd;

/// Readable readiness (data, EOF, or a pending accept).
pub const POLLIN: i16 = 0x001;
/// Writable readiness (the socket send buffer has room).
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// Invalid fd (revents only).
pub const POLLNVAL: i16 = 0x020;

/// One entry of a `poll(2)` set — layout-compatible with `struct pollfd`
/// on Linux (and every other unix libc).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Returned events, filled in by the kernel.
    pub revents: i16,
}

impl PollFd {
    /// A watch for `events` on `fd`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// `true` if the kernel reported any of `mask` (or an error/hangup,
    /// which the caller must discover via the subsequent read/write).
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & (mask | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// Readable readiness for [`Epoll`] registrations.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness for [`Epoll`] registrations.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Peer hung up (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Disarm a registration once it reports an event, until the next
/// [`Epoll::modify`] re-arms it: with several threads waiting on one
/// instance, each readiness goes to exactly one of them.
pub const EPOLLONESHOT: u32 = 1 << 30;

/// One `struct epoll_event` — layout-compatible with the kernel's
/// definition, which is packed on x86-64 (and only there).
///
/// Fields stay private behind by-value accessors: taking a reference
/// into a packed struct is undefined behavior, copying a field out is
/// not.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// An empty slot for a [`Epoll::wait`] output buffer.
    pub fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }

    /// The readiness bits the kernel reported (`EPOLLIN` / `EPOLLOUT` /
    /// `EPOLLERR` / `EPOLLHUP`).
    pub fn events(&self) -> u32 {
        self.events
    }

    /// The caller's token for the registered fd.
    pub fn token(&self) -> u64 {
        self.data
    }
}

mod sys {
    use super::{EpollEvent, PollFd};
    use std::os::raw::{c_int, c_ulong, c_void};

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const F_SETFD: c_int = 2;
    pub const FD_CLOEXEC: c_int = 1;
    pub const O_NONBLOCK: c_int = 0o4000;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
}

/// A level-triggered `epoll` instance with persistent registrations.
///
/// Unlike [`poll`], the interest set lives in the kernel: register a fd
/// once ([`Epoll::add`]), adjust or re-arm it ([`Epoll::modify`]), and
/// every [`Epoll::wait`] returns only the fds that are ready. Closing a registered fd removes
/// it implicitly; [`Epoll::delete`] exists for explicit deregistration
/// while the fd stays open.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates the instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        let ptr = if op == sys::EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut event as *mut EpollEvent
        };
        if unsafe { sys::epoll_ctl(self.fd, op, fd, ptr) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` for `events`, tagged with `token` (reported back
    /// by [`Epoll::wait`]).
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes an existing registration's interest set.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes a registration (optional before `close(fd)`, which does
    /// it implicitly).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered fd is ready or `timeout_ms`
    /// elapses (`-1` = wait forever, `0` = poll and return). Fills
    /// `events` from the front and returns how many entries are valid;
    /// `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe {
                sys::epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as i32,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.fd);
        }
    }
}

// The epoll fd is a plain int; ctl/wait are single syscalls, and the
// kernel serializes them.
unsafe impl Send for Epoll {}
unsafe impl Sync for Epoll {}

/// Blocks until at least one fd in `fds` is ready or `timeout_ms`
/// elapses (`-1` = wait forever, `0` = poll and return). Returns the
/// number of ready entries; `EINTR` is retried internally.
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        // EINTR: retry with the same timeout — the loop's own deadline
        // arithmetic absorbs the (rare, bounded) extra wait.
    }
}

/// Wakes a thread blocked in [`poll`] or [`Epoll::wait`] from another
/// thread.
///
/// The classic self-pipe trick: the waiting thread polls the read end
/// for `POLLIN`; any thread calls [`Waker::wake`] to write one byte.
/// Both ends are nonblocking, so a full pipe (many pending wakes)
/// degrades to a no-op — the waiter is already guaranteed to wake.
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// Creates the pipe pair (both ends nonblocking + close-on-exec).
    pub fn new() -> io::Result<Waker> {
        let mut fds = [0i32; 2];
        if unsafe { sys::pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            unsafe {
                let flags = sys::fcntl(fd, sys::F_GETFL, 0);
                sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK);
                sys::fcntl(fd, sys::F_SETFD, sys::FD_CLOEXEC);
            }
        }
        Ok(Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The fd the waiting thread registers for readability.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Signals the poller. Callable from any thread; never blocks.
    pub fn wake(&self) {
        let byte = 1u8;
        // EAGAIN (pipe full) means wakes are already pending: fine.
        unsafe { sys::write(self.write_fd, (&byte as *const u8).cast(), 1) };
    }

    /// Drains all pending wake bytes (the loop calls this once per
    /// wakeup so the pipe never reports stale readiness).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { sys::read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                break; // EAGAIN (empty) or error: nothing more to drain
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

// Raw fds are plain ints; wake/drain are single-syscall and safe to
// call concurrently.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn poll_times_out_with_nothing_ready() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.read_fd(), POLLIN)];
        let start = Instant::now();
        let n = poll(&mut fds, 50).unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn waker_wakes_poll_from_another_thread() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let w = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w.wake();
        });
        let mut fds = [PollFd::new(waker.read_fd(), POLLIN)];
        let n = poll(&mut fds, 5_000).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN));
        waker.drain();
        // Drained: an immediate re-poll reports nothing.
        fds[0].revents = 0;
        assert_eq!(poll(&mut fds, 0).unwrap(), 0);
        handle.join().unwrap();
    }

    #[test]
    fn repeated_wakes_coalesce_without_blocking() {
        let waker = Waker::new().unwrap();
        for _ in 0..100_000 {
            waker.wake(); // fills the pipe; must never block or panic
        }
        let mut fds = [PollFd::new(waker.read_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, 0).unwrap(), 1);
        waker.drain();
        fds[0].revents = 0;
        assert_eq!(poll(&mut fds, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_registrations_persist_across_waits() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::zeroed(); 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "no accept yet");
        let mut client = TcpStream::connect(addr).unwrap();
        assert_eq!(epoll.wait(&mut events, 5_000).unwrap(), 1);
        assert_eq!(events[0].token(), 7);
        assert!(events[0].events() & EPOLLIN != 0);
        // Level-triggered: the pending accept re-reports without any
        // re-registration.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 1);
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        epoll.add(server_side.as_raw_fd(), EPOLLIN, 42).unwrap();
        client.write_all(b"hi").unwrap();
        // Both the listener (drained) and the conn report correctly.
        let n = epoll.wait(&mut events, 5_000).unwrap();
        assert_eq!(n, 1, "only the conn is ready now");
        assert_eq!(events[0].token(), 42);
    }

    #[test]
    fn epoll_modify_and_delete_change_the_kernel_interest_set() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let epoll = Epoll::new().unwrap();
        // An idle socket with an empty send buffer: writable, no data.
        epoll.add(server_side.as_raw_fd(), EPOLLOUT, 1).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(epoll.wait(&mut events, 1_000).unwrap(), 1);
        assert!(events[0].events() & EPOLLOUT != 0);
        // Drop write interest: nothing is ready anymore.
        epoll.modify(server_side.as_raw_fd(), EPOLLIN, 1).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        // Deregister entirely, then make the fd readable: still nothing.
        epoll.delete(server_side.as_raw_fd()).unwrap();
        (&client).write_all(b"x").unwrap();
        assert_eq!(epoll.wait(&mut events, 50).unwrap(), 0);
    }

    #[test]
    fn waker_wakes_epoll_from_another_thread() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let epoll = Epoll::new().unwrap();
        epoll.add(waker.read_fd(), EPOLLIN, u64::MAX).unwrap();
        let w = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w.wake();
        });
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(epoll.wait(&mut events, 5_000).unwrap(), 1);
        assert_eq!(events[0].token(), u64::MAX);
        waker.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "drained");
        handle.join().unwrap();
    }

    #[test]
    fn socket_readiness_via_poll() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, 0).unwrap(), 0, "no pending accept yet");
        let mut client = TcpStream::connect(addr).unwrap();
        assert_eq!(poll(&mut fds, 5_000).unwrap(), 1, "accept pending");
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let mut conn_fds = [PollFd::new(server_side.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut conn_fds, 0).unwrap(), 0, "no data yet");
        client.write_all(b"hi").unwrap();
        assert_eq!(poll(&mut conn_fds, 5_000).unwrap(), 1, "data readable");
    }
}
