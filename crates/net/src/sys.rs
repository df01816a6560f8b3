//! Raw Linux syscall shim for the reactor.
//!
//! The workspace builds with zero external crates, so there is no `libc`
//! to lean on. Every Rust binary on Linux already links the platform C
//! library, which exports the variadic `syscall(2)` entry point — this
//! module declares that one symbol and issues the handful of calls the
//! reactor needs (`epoll_create1`, `epoll_ctl`, `epoll_pwait`,
//! `eventfd2`, `setsockopt`, and `read`/`write` for the eventfd) by
//! number, with per-architecture tables for x86_64 and aarch64. File
//! descriptors ride in and out as [`std::os::fd`] types so ownership and
//! close-on-drop stay in std's hands.

use std::ffi::{c_int, c_long};
use std::io;
use std::os::fd::{BorrowedFd, FromRawFd, OwnedFd, RawFd};

extern "C" {
    /// The C library's indirect system call entry point.
    fn syscall(num: c_long, ...) -> c_long;
}

/// Per-architecture syscall numbers (see `asm/unistd.h`).
#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: super::c_long = 0;
    pub const WRITE: super::c_long = 1;
    pub const EPOLL_CTL: super::c_long = 233;
    pub const EPOLL_PWAIT: super::c_long = 281;
    pub const EVENTFD2: super::c_long = 290;
    pub const EPOLL_CREATE1: super::c_long = 291;
    pub const SETSOCKOPT: super::c_long = 54;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const READ: super::c_long = 63;
    pub const WRITE: super::c_long = 64;
    pub const EPOLL_CTL: super::c_long = 21;
    pub const EPOLL_PWAIT: super::c_long = 22;
    pub const EVENTFD2: super::c_long = 19;
    pub const EPOLL_CREATE1: super::c_long = 20;
    pub const SETSOCKOPT: super::c_long = 208;
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("pmemflow-net: no syscall table for this architecture (add one in sys.rs)");

/// `EPOLL_CLOEXEC`.
const EPOLL_CLOEXEC: c_int = 0o2000000;
/// `EFD_CLOEXEC | EFD_NONBLOCK`.
const EFD_CLOEXEC_NONBLOCK: c_int = 0o2000000 | 0o4000;

/// `epoll_ctl` operations.
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;

/// Readiness flag bits (`EPOLL*` from `sys/epoll.h`).
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;
pub const EPOLLET: u32 = 1 << 31;

/// The kernel's `struct epoll_event`. On x86_64 the kernel ABI packs the
/// 12-byte struct (no padding between `events` and `data`); other
/// architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN | ...`).
    pub events: u32,
    /// Caller-chosen cookie, returned verbatim with each event.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event (for `epoll_wait` output slots).
    pub fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

fn cvt(ret: c_long) -> io::Result<c_long> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// `epoll_create1(EPOLL_CLOEXEC)` — a fresh epoll instance.
pub fn epoll_create() -> io::Result<OwnedFd> {
    let fd = cvt(unsafe { syscall(nr::EPOLL_CREATE1, EPOLL_CLOEXEC as c_long) })?;
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

/// `epoll_ctl` with an interest set (`ADD`/`MOD`); `data` is the token.
pub fn epoll_ctl(
    epfd: BorrowedFd<'_>,
    op: c_int,
    fd: RawFd,
    events: u32,
    data: u64,
) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    cvt(unsafe {
        syscall(
            nr::EPOLL_CTL,
            epfd.as_raw_fd_long(),
            op as c_long,
            fd as c_long,
            &mut ev as *mut EpollEvent,
        )
    })?;
    Ok(())
}

/// `epoll_ctl(EPOLL_CTL_DEL)` — stop watching `fd`.
pub fn epoll_del(epfd: BorrowedFd<'_>, fd: RawFd) -> io::Result<()> {
    // The event pointer is ignored for DEL on any kernel >= 2.6.9, but a
    // valid one keeps ancient-kernel strace output honest.
    let mut ev = EpollEvent::zeroed();
    cvt(unsafe {
        syscall(
            nr::EPOLL_CTL,
            epfd.as_raw_fd_long(),
            EPOLL_CTL_DEL as c_long,
            fd as c_long,
            &mut ev as *mut EpollEvent,
        )
    })?;
    Ok(())
}

/// `epoll_pwait` into `events`, with `timeout_ms < 0` meaning block
/// forever. Returns the number of ready events; `EINTR` is retried here
/// so callers never see it.
pub fn epoll_wait(
    epfd: BorrowedFd<'_>,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    loop {
        let ret = unsafe {
            syscall(
                nr::EPOLL_PWAIT,
                epfd.as_raw_fd_long(),
                events.as_mut_ptr(),
                events.len() as c_long,
                timeout_ms as c_long,
                std::ptr::null::<u8>(), // no signal mask change
                8usize as c_long,       // sizeof(sigset_t) the kernel expects
            )
        };
        match cvt(ret) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// `eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)` — the reactor's wakeup fd.
pub fn eventfd() -> io::Result<OwnedFd> {
    let fd = cvt(unsafe { syscall(nr::EVENTFD2, 0 as c_long, EFD_CLOEXEC_NONBLOCK as c_long) })?;
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

/// Add one to an eventfd's counter (wakes a poller). A `WouldBlock`
/// (counter saturated — the poller is already hopelessly awake) is
/// success for our purposes.
pub fn eventfd_write(fd: BorrowedFd<'_>) -> io::Result<()> {
    let one: u64 = 1;
    let ret = unsafe {
        syscall(
            nr::WRITE,
            fd.as_raw_fd_long(),
            &one as *const u64,
            8usize as c_long,
        )
    };
    match cvt(ret) {
        Ok(_) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
        Err(e) => Err(e),
    }
}

/// Drain an eventfd's counter (clears readiness until the next write).
pub fn eventfd_drain(fd: BorrowedFd<'_>) {
    let mut buf = 0u64;
    let _ = unsafe {
        syscall(
            nr::READ,
            fd.as_raw_fd_long(),
            &mut buf as *mut u64,
            8usize as c_long,
        )
    };
}

/// `SOL_SOCKET` / `SO_LINGER` (Linux generic socket option layer).
const SOL_SOCKET: c_int = 1;
const SO_LINGER: c_int = 13;

/// The kernel's `struct linger`.
#[repr(C)]
struct Linger {
    l_onoff: c_int,
    l_linger: c_int,
}

/// Arm `SO_LINGER {on, 0s}` on a connected socket: the next `close(2)`
/// discards unsent data and fires an RST at the peer instead of the
/// orderly FIN handshake. This is how the chaos proxy manufactures a
/// *real* `ECONNRESET` on the daemon's side of the wire — an abortive
/// close is kernel behavior no userspace mock can fake.
pub fn set_linger_zero(fd: RawFd) -> io::Result<()> {
    let lg = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    cvt(unsafe {
        syscall(
            nr::SETSOCKOPT,
            fd as c_long,
            SOL_SOCKET as c_long,
            SO_LINGER as c_long,
            &lg as *const Linger,
            std::mem::size_of::<Linger>() as c_long,
        )
    })?;
    Ok(())
}

/// Tiny helper so call sites stay terse: a `BorrowedFd` as the `c_long`
/// the variadic syscall ABI expects.
trait AsRawFdLong {
    fn as_raw_fd_long(&self) -> c_long;
}

impl AsRawFdLong for BorrowedFd<'_> {
    fn as_raw_fd_long(&self) -> c_long {
        use std::os::fd::AsRawFd;
        self.as_raw_fd() as c_long
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsFd;

    #[test]
    fn epoll_instance_creates_and_waits_empty() {
        let ep = epoll_create().expect("epoll_create1");
        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing registered: an immediate timeout returns zero events.
        let n = epoll_wait(ep.as_fd(), &mut events, 0).expect("epoll_wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn eventfd_roundtrip_wakes_epoll() {
        let ep = epoll_create().unwrap();
        let efd = eventfd().unwrap();
        use std::os::fd::AsRawFd;
        epoll_ctl(ep.as_fd(), EPOLL_CTL_ADD, efd.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(epoll_wait(ep.as_fd(), &mut events, 0).unwrap(), 0);
        eventfd_write(efd.as_fd()).unwrap();
        let n = epoll_wait(ep.as_fd(), &mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (data, bits) = (events[0].data, events[0].events);
        assert_eq!(data, 7);
        assert_ne!(bits & EPOLLIN, 0);
        // Drained, the readiness clears.
        eventfd_drain(efd.as_fd());
        assert_eq!(epoll_wait(ep.as_fd(), &mut events, 0).unwrap(), 0);
    }
}
