//! Byte plumbing for nonblocking sockets: drain-reads, partial-write
//! buffers, and the jittered accept backoff.

use crate::rng::Sm64;
use std::io::{self, Read, Write};

/// Outcome of one [`drain_read`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Bytes appended to the buffer.
    pub bytes: usize,
    /// The peer closed its write side (read returned 0).
    pub eof: bool,
}

/// Read from a nonblocking stream into `buf` until `WouldBlock`, EOF, or
/// `limit` additional bytes — whichever comes first. Edge-triggered
/// callers rely on the `WouldBlock` exit to re-arm correctly; the limit
/// exists so one greedy connection cannot starve the dispatch loop, and
/// hitting it means "call me again before polling". The limit is exact:
/// the final read is clamped to the remaining budget, so a caller
/// batching N connections at `limit` bytes each gets real fairness, not
/// limit-plus-one-chunk.
pub fn drain_read(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    limit: usize,
) -> io::Result<ReadOutcome> {
    let mut total = 0;
    let mut chunk = [0u8; 16 * 1024];
    while total < limit {
        let want = chunk.len().min(limit - total);
        match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                return Ok(ReadOutcome {
                    bytes: total,
                    eof: true,
                })
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                total += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome {
        bytes: total,
        eof: false,
    })
}

/// An outgoing byte queue that survives partial writes.
#[derive(Default)]
pub struct WriteBuf {
    data: Vec<u8>,
    /// Bytes of `data` already written to the socket.
    pos: usize,
}

impl WriteBuf {
    /// An empty buffer.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Queue bytes for writing.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the dead prefix dominates.
        if self.pos > 0 && self.pos >= self.data.len() / 2 {
            self.data.drain(..self.pos);
            self.pos = 0;
        }
        self.data.extend_from_slice(bytes);
    }

    /// Unwritten bytes still queued.
    pub fn pending(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Write as much as the socket will take. Returns `true` when the
    /// buffer drained completely, `false` when the socket filled
    /// (`WouldBlock`) — the caller should arm writable interest.
    pub fn flush(&mut self, stream: &mut impl Write) -> io::Result<bool> {
        while self.pos < self.data.len() {
            match stream.write(&self.data[self.pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.data.clear();
        self.pos = 0;
        Ok(true)
    }
}

/// Jittered exponential backoff for accept-loop fd exhaustion
/// (`EMFILE`/`ENFILE`): the acceptor pauses instead of spinning on an
/// error that retrying cannot fix, and jitter decorrelates a fleet of
/// daemons hitting the wall together.
pub struct AcceptBackoff {
    /// Consecutive exhaustion events (resets on a successful accept).
    strikes: u32,
    rng: Sm64,
}

impl AcceptBackoff {
    /// Base delay for the first strike.
    const BASE_MS: u64 = 25;
    /// Ceiling on the exponential part.
    const MAX_MS: u64 = 2_000;

    /// A fresh backoff with a jitter seed.
    pub fn new(seed: u64) -> AcceptBackoff {
        AcceptBackoff {
            strikes: 0,
            rng: Sm64(seed | 1),
        }
    }

    /// Record one exhaustion event; returns how long to pause accepting:
    /// `min(BASE << strikes, MAX)` plus up to 50% jitter.
    pub fn strike(&mut self) -> std::time::Duration {
        let exp = Self::BASE_MS
            .saturating_shl(self.strikes.min(16))
            .min(Self::MAX_MS);
        self.strikes = self.strikes.saturating_add(1);
        let jitter = self.rng.next_u64() % (exp / 2 + 1);
        std::time::Duration::from_millis(exp + jitter)
    }

    /// A successful accept clears the strike count.
    pub fn reset(&mut self) {
        self.strikes = 0;
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

/// Is this I/O error the process or system file-descriptor table being
/// full (`EMFILE` / `ENFILE`)?
pub fn is_fd_exhaustion(e: &io::Error) -> bool {
    matches!(
        e.raw_os_error(),
        Some(23) /* ENFILE */ | Some(24) /* EMFILE */
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts `cap` bytes then reports `WouldBlock`.
    struct Throttled {
        cap: usize,
        got: Vec<u8>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.got.len() >= self.cap {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.cap - self.got.len()).min(3);
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_survives_partial_writes() {
        let mut wb = WriteBuf::new();
        wb.push(b"hello ");
        wb.push(b"world");
        let mut sink = Throttled {
            cap: 7,
            got: Vec::new(),
        };
        assert!(!wb.flush(&mut sink).unwrap(), "socket filled at 7 bytes");
        assert_eq!(wb.pending(), 4);
        sink.cap = 100;
        assert!(wb.flush(&mut sink).unwrap());
        assert_eq!(sink.got, b"hello world");
        assert!(wb.is_empty());
        // Reuse after drain keeps bytes in order.
        wb.push(b"!");
        assert!(wb.flush(&mut sink).unwrap());
        assert_eq!(sink.got, b"hello world!");
    }

    #[test]
    fn drain_read_stops_at_wouldblock_and_reports_eof() {
        struct Two {
            polls: usize,
        }
        impl Read for Two {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.polls += 1;
                match self.polls {
                    1 => {
                        buf[..2].copy_from_slice(b"ab");
                        Ok(2)
                    }
                    2 => Err(io::ErrorKind::WouldBlock.into()),
                    _ => Ok(0),
                }
            }
        }
        let mut buf = Vec::new();
        let mut src = Two { polls: 0 };
        let out = drain_read(&mut src, &mut buf, 1 << 20).unwrap();
        assert_eq!((out.bytes, out.eof), (2, false));
        assert_eq!(buf, b"ab");
        let out = drain_read(&mut src, &mut buf, 1 << 20).unwrap();
        assert!(out.eof);
    }

    /// Regression (firehose fairness): the `limit` budget is
    /// exact. The old code requested a full 16 KiB chunk regardless of
    /// remaining budget, so one greedy connection overshot its fairness
    /// slice by up to a chunk — under a fragmenting peer that margin is
    /// where starvation hides.
    #[test]
    fn drain_read_budget_is_exact() {
        struct Firehose;
        impl Read for Firehose {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                for b in buf.iter_mut() {
                    *b = b'x';
                }
                Ok(buf.len())
            }
        }
        let mut buf = Vec::new();
        // A budget that is not a multiple of the internal chunk size.
        let limit = 40_000;
        let out = drain_read(&mut Firehose, &mut buf, limit).unwrap();
        assert_eq!(out.bytes, limit, "must stop exactly at the budget");
        assert_eq!(buf.len(), limit);
        assert!(!out.eof);
    }

    /// A signal-happy peer: every other call fails with `EINTR`, and the
    /// calls in between move one byte. Reads serve `input`, then block.
    struct Interrupting {
        input: Vec<u8>,
        pos: usize,
        got: Vec<u8>,
        interrupt: bool,
    }

    impl Interrupting {
        fn interrupted(&mut self) -> bool {
            self.interrupt = !self.interrupt;
            !self.interrupt
        }
    }

    impl Read for Interrupting {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupted() {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let Some(&b) = self.input.get(self.pos) else {
                return Err(io::ErrorKind::WouldBlock.into());
            };
            buf[0] = b;
            self.pos += 1;
            Ok(1)
        }
    }

    impl Write for Interrupting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.interrupted() {
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.got.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn eintr_is_retried_by_reads_and_writes() {
        let mut peer = Interrupting {
            input: b"GET / HTTP/1.1\r\n\r\n".to_vec(),
            pos: 0,
            got: Vec::new(),
            interrupt: false,
        };
        let mut buf = Vec::new();
        let out = drain_read(&mut peer, &mut buf, 1 << 20).expect("EINTR is not an error");
        assert_eq!((out.bytes, out.eof), (peer.input.len(), false));
        assert_eq!(buf, peer.input);
        let mut wb = WriteBuf::new();
        wb.push(b"HTTP/1.1 200 OK\r\n\r\n");
        assert!(wb.flush(&mut peer).expect("EINTR is not an error"));
        assert_eq!(peer.got, b"HTTP/1.1 200 OK\r\n\r\n");
    }

    #[test]
    fn backoff_grows_is_jittered_and_bounded() {
        let mut b = AcceptBackoff::new(0xFEED);
        let first = b.strike();
        assert!(first >= std::time::Duration::from_millis(AcceptBackoff::BASE_MS));
        // Exponential growth with a hard ceiling: base * 2^k <= MAX, and
        // jitter adds at most 50%.
        let mut last = first;
        for _ in 0..12 {
            last = b.strike();
            assert!(
                last <= std::time::Duration::from_millis(AcceptBackoff::MAX_MS * 3 / 2),
                "{last:?} above jittered ceiling"
            );
        }
        assert!(last >= std::time::Duration::from_millis(AcceptBackoff::MAX_MS));
        // Distinct seeds give distinct jitter somewhere in the sequence.
        let (mut x, mut y) = (AcceptBackoff::new(1), AcceptBackoff::new(2));
        assert!((0..8).any(|_| x.strike() != y.strike()));
        b.reset();
        assert!(b.strike() < std::time::Duration::from_millis(AcceptBackoff::BASE_MS * 2));
    }

    #[test]
    fn fd_exhaustion_is_recognized() {
        assert!(is_fd_exhaustion(&io::Error::from_raw_os_error(24)));
        assert!(is_fd_exhaustion(&io::Error::from_raw_os_error(23)));
        assert!(!is_fd_exhaustion(&io::Error::from_raw_os_error(11)));
    }
}
