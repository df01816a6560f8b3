//! The epoll readiness reactor: register interest, poll for events,
//! wake from other threads.
//!
//! One [`Reactor`] owns one epoll instance plus an eventfd used as a
//! cross-thread wakeup. The owning thread sits in [`Reactor::poll`];
//! any other thread holding a [`Waker`] can make that poll return
//! immediately (completion queues, shutdown flags). Registration takes a
//! caller-chosen [`Token`] that comes back verbatim with each event —
//! the reactor knows nothing about connections, only file descriptors
//! and cookies.

use crate::sys;
use std::io;
use std::os::fd::{AsFd, AsRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// Caller-chosen cookie identifying a registered fd. The reactor
/// reserves `Token(u64::MAX)` for its internal eventfd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

impl Token {
    /// Reserved for the reactor's own wakeup eventfd; never delivered.
    pub(crate) const WAKER: Token = Token(u64::MAX);
}

/// What to watch for on a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
    /// Edge-triggered (`EPOLLET`): one wakeup per readiness *change*;
    /// the handler must drain until `WouldBlock`.
    pub edge: bool,
    /// `EPOLLEXCLUSIVE`: at most one of several epoll instances watching
    /// this fd wakes per event (accept herd suppression). Only valid at
    /// registration time; level-triggered only.
    pub exclusive: bool,
}

impl Interest {
    /// Edge-triggered readable.
    #[cfg(test)]
    pub(crate) const fn edge_read() -> Interest {
        Interest {
            readable: true,
            writable: false,
            edge: true,
            exclusive: false,
        }
    }

    /// Edge-triggered readable + writable.
    pub const fn edge_read_write() -> Interest {
        Interest {
            readable: true,
            writable: true,
            edge: true,
            exclusive: false,
        }
    }

    fn bits(self) -> u32 {
        // EPOLLEXCLUSIVE registrations accept only IN/OUT/ET/WAKEUP —
        // the kernel rejects EPOLLRDHUP alongside it with EINVAL, which
        // would silently leave the fd unwatched. Exclusive mode is for
        // listeners anyway, where half-close detection is meaningless.
        let mut bits = if self.exclusive { 0 } else { sys::EPOLLRDHUP };
        if self.readable {
            bits |= sys::EPOLLIN;
        }
        if self.writable {
            bits |= sys::EPOLLOUT;
        }
        if self.edge {
            bits |= sys::EPOLLET;
        }
        if self.exclusive {
            bits |= sys::EPOLLEXCLUSIVE;
        }
        bits
    }
}

/// One readiness event out of [`Reactor::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token given at registration.
    pub token: Token,
    /// Readable (includes peer half-close: data may still be buffered).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup (`EPOLLERR | EPOLLHUP | EPOLLRDHUP`): the
    /// connection is over or nearly over; read to EOF then close.
    pub closed: bool,
}

/// A cross-thread handle that makes the reactor's current (or next)
/// [`Reactor::poll`] return immediately. Cheap to clone, safe to ring
/// after the reactor is gone (the write just fails quietly — the eventfd
/// is kept alive by the Arc).
#[derive(Clone)]
pub struct Waker {
    efd: Arc<OwnedFd>,
}

impl Waker {
    /// Wake the reactor.
    pub fn wake(&self) {
        let _ = sys::eventfd_write(self.efd.as_fd());
    }
}

/// An epoll instance plus its wakeup eventfd.
pub struct Reactor {
    epfd: OwnedFd,
    efd: Arc<OwnedFd>,
    /// Total poll returns (the epoll-wakeup counter feedstock).
    wakeups: u64,
}

impl Reactor {
    /// A fresh reactor with its eventfd already registered.
    pub fn new() -> io::Result<Reactor> {
        let epfd = sys::epoll_create()?;
        let efd = Arc::new(sys::eventfd()?);
        sys::epoll_ctl(
            epfd.as_fd(),
            sys::EPOLL_CTL_ADD,
            efd.as_raw_fd(),
            sys::EPOLLIN,
            Token::WAKER.0,
        )?;
        Ok(Reactor {
            epfd,
            efd,
            wakeups: 0,
        })
    }

    /// A handle other threads use to interrupt [`Reactor::poll`].
    pub fn waker(&self) -> Waker {
        Waker {
            efd: self.efd.clone(),
        }
    }

    /// Start watching `fd` under `token`.
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_ctl(
            self.epfd.as_fd(),
            sys::EPOLL_CTL_ADD,
            fd,
            interest.bits(),
            token.0,
        )
    }

    /// Stop watching `fd`. (Closing the fd deregisters implicitly — this
    /// is for fds that stay open, like a paused listener.)
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        sys::epoll_del(self.epfd.as_fd(), fd)
    }

    /// Wait for readiness, at most `timeout` (`None` = forever). Ready
    /// events are appended to `out` (cleared first). Returns the number
    /// of *external* events delivered; wakeups via [`Waker`] drain the
    /// eventfd and simply return (possibly with zero events).
    pub fn poll(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 0.2ms deadline does not busy-spin at 0ms.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
        };
        let mut events = [sys::EpollEvent::zeroed(); 256];
        let n = sys::epoll_wait(self.epfd.as_fd(), &mut events, timeout_ms)?;
        self.wakeups += 1;
        for ev in &events[..n] {
            // Copy out of the (possibly packed) kernel struct first.
            let (data, bits) = (ev.data, ev.events);
            if data == Token::WAKER.0 {
                sys::eventfd_drain(self.efd.as_fd());
                continue;
            }
            out.push(Event {
                token: Token(data),
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(out.len())
    }

    /// How many times [`Reactor::poll`] has returned (timer ticks,
    /// wakeups, and real I/O alike).
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn sees_tcp_readability_with_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut reactor = Reactor::new().unwrap();
        reactor
            .register(server.as_raw_fd(), Token(42), Interest::edge_read())
            .unwrap();

        let mut events = Vec::new();
        // Nothing to read yet.
        assert_eq!(
            reactor
                .poll(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
        client.write_all(b"ping").unwrap();
        let n = reactor
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(42));
        assert!(events[0].readable);
    }

    #[test]
    fn waker_interrupts_a_blocking_poll() {
        let mut reactor = Reactor::new().unwrap();
        let waker = reactor.waker();
        let ringer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let t0 = Instant::now();
        // Blocking poll: only the waker can end it (5s is the failure
        // backstop, not the expectation).
        let n = reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 0, "waker wakeups deliver no external events");
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "woke by waker, not timeout"
        );
        ringer.join().unwrap();
        // The eventfd was drained: the next poll does not spin.
        assert_eq!(
            reactor
                .poll(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn hangup_reports_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut reactor = Reactor::new().unwrap();
        reactor
            .register(server.as_raw_fd(), Token(1), Interest::edge_read())
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        reactor
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(!events.is_empty());
        assert!(events[0].closed);
    }
}
