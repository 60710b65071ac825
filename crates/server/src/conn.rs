//! The per-connection state machine of the reactor: nonblocking byte
//! I/O on one side, framed JSON lines on the other.
//!
//! A [`Conn`] owns the socket and four pieces of state a shard thread
//! drives, all on that one thread for the whole of a turn:
//!
//! ```text
//!   socket ──read──▶ read_buf ──lines──▶ pending ──answer, in order──┐
//!   socket ◀─write── write_buf ◀────────────frames───────────────────┘
//! ```
//!
//! * `read_buf` accumulates raw bytes until a `\n` completes a frame;
//!   a partial line survives any number of reads, and growth past the
//!   configured cap is a protocol error (`LineOverflow`), not an
//!   allocation.
//! * `pending` holds parsed-off request lines in arrival order. The
//!   thread that read them answers them in that order, a bounded number
//!   per turn, so one connection's pipeline never monopolizes a thread
//!   and its responses stay in request order.
//! * `session` is the connection's engine session. The connection sits
//!   behind its own lock, and its epoll registration is one-shot, so
//!   only the thread serving it touches the session. The session keeps
//!   only its own traffic counters; the server folds them into its
//!   shard's registry and zeroes them after every request.
//! * `write_buf` holds encoded response frames; the thread flushes it
//!   as the socket accepts bytes and uses its occupancy for `EPOLLOUT`
//!   interest and read backpressure.
//!
//! The struct is generic over the stream so the framing rules are unit
//! tested against an in-memory transcript; the server instantiates it
//! with a nonblocking `TcpStream`.

use rd_engine::Session;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::time::Instant;

/// Stop reading a connection whose parsed-but-undispatched pipeline is
/// this deep; the kernel socket buffer takes the backpressure.
pub const PENDING_HIGH_WATER: usize = 1024;

/// Stop reading a connection whose unflushed response bytes exceed
/// this; reading resumes once the client drains its side.
pub const WRITE_HIGH_WATER: usize = 8 * 1024 * 1024;

/// What a read pass observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The connection is still open (data may or may not have arrived).
    Open,
    /// The peer closed its write side (EOF); drain and close.
    Eof,
    /// A hard I/O error; drop the connection immediately.
    Dead,
}

/// A request line exceeded the configured byte cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineOverflow {
    /// How many bytes had accumulated when the cap tripped.
    pub at: usize,
}

/// One client connection in the reactor.
pub struct Conn<S> {
    /// The reactor's key for this connection.
    pub token: u64,
    stream: S,
    read_buf: Vec<u8>,
    /// Bytes before this offset were already framed into lines; the
    /// prefix is reclaimed once per extraction pass, not per line.
    consumed: usize,
    scan_from: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Complete request lines awaiting an answer, in arrival order.
    pub pending: VecDeque<String>,
    /// The session this connection's requests run against (caches
    /// shared via the server's `EngineShared`).
    pub session: Session,
    /// No more requests will be read (EOF, fatal error, or shutdown).
    pub read_closed: bool,
    /// Close as soon as the write buffer drains, discarding pending
    /// work (unrecoverable framing error).
    pub fatal: bool,
    /// Last moment bytes moved in either direction (idle eviction).
    pub last_activity: Instant,
    /// Deregistered and dropped from the shard's table: a thread that
    /// took an event for it just before must leave it alone.
    pub closed: bool,
}

impl<S: Read + Write> Conn<S> {
    /// Wraps an (already nonblocking) stream.
    pub fn new(token: u64, stream: S, session: Session) -> Conn<S> {
        Conn {
            token,
            stream,
            read_buf: Vec::new(),
            consumed: 0,
            scan_from: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            session,
            read_closed: false,
            fatal: false,
            last_activity: Instant::now(),
            closed: false,
        }
    }

    /// The underlying stream (the server registers its fd with epoll).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// `true` while the connection should be armed for `EPOLLIN`:
    /// still reading, and neither the pipeline nor the write backlog is
    /// past its high-water mark.
    pub fn wants_read(&self) -> bool {
        !self.read_closed
            && self.pending.len() < PENDING_HIGH_WATER
            && self.write_buf.len() - self.write_pos < WRITE_HIGH_WATER
    }

    /// `true` while unflushed response bytes remain (`POLLOUT`).
    pub fn has_backlog(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// `true` when no request is anywhere in this connection's pipeline
    /// (nothing parsed, unanswered, or waiting to flush).
    pub fn is_quiet(&self) -> bool {
        self.pending.is_empty() && !self.has_backlog()
    }

    /// Reads everything currently available (bounded per pass; leftovers
    /// re-report once the connection is re-armed). EOF and errors are
    /// returned, not stored — except that EOF also sets `read_closed`.
    pub fn fill(&mut self) -> ReadOutcome {
        let mut chunk = [0u8; 16 * 1024];
        // Bounded so one firehose connection cannot hog its thread.
        for _ in 0..16 {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return ReadOutcome::Eof;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Dead,
            }
        }
        ReadOutcome::Open
    }

    /// Pops the next complete line out of the read buffer, or reports
    /// that the buffer (or the line itself) outgrew `max_line_bytes` —
    /// after which the connection cannot resync and must close.
    ///
    /// Extracted lines advance a cursor instead of shifting the buffer,
    /// so a burst of k pipelined lines costs one compaction, not k.
    pub fn next_line(&mut self, max_line_bytes: usize) -> Result<Option<String>, LineOverflow> {
        match self.read_buf[self.scan_from..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(off) => {
                let end = self.scan_from + off;
                if end - self.consumed > max_line_bytes {
                    return Err(LineOverflow {
                        at: end - self.consumed,
                    });
                }
                let line = String::from_utf8_lossy(&self.read_buf[self.consumed..end]).into_owned();
                self.consumed = end + 1;
                self.scan_from = self.consumed;
                Ok(Some(line))
            }
            None => {
                // No complete line left: reclaim the consumed prefix
                // (once per pass) and remember the scanned tail so a
                // long partial line is not re-scanned on every read.
                if self.consumed > 0 {
                    self.read_buf.drain(..self.consumed);
                    self.consumed = 0;
                }
                self.scan_from = self.read_buf.len();
                if self.read_buf.len() > max_line_bytes {
                    Err(LineOverflow {
                        at: self.read_buf.len(),
                    })
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Takes whatever unframed bytes remain as one final line — the
    /// newline-less last request of a client that half-closed its write
    /// side. Call only after EOF; returns `None` when nothing remains.
    pub fn take_final_line(&mut self) -> Option<String> {
        if self.consumed >= self.read_buf.len() {
            return None;
        }
        let line = String::from_utf8_lossy(&self.read_buf[self.consumed..]).into_owned();
        self.read_buf.clear();
        self.consumed = 0;
        self.scan_from = 0;
        Some(line)
    }

    /// Appends encoded response bytes to the write backlog.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.write_buf.extend_from_slice(bytes);
    }

    /// Writes as much backlog as the socket accepts right now.
    /// `WouldBlock` leaves the remainder for the next `EPOLLOUT`; hard
    /// errors bubble up so the server drops the connection.
    pub fn flush(&mut self) -> std::io::Result<()> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > 64 * 1024 {
            // Reclaim the flushed prefix of a large backlog.
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_engine::demo_database;
    use std::io;

    /// An in-memory stream: each `read` yields the next scripted chunk
    /// (then `WouldBlock`), writes collect into `out`. An empty scripted
    /// chunk stands for one `WouldBlock` — it ends a `fill` pass, so a
    /// test can interleave extraction between fills.
    #[derive(Default)]
    struct Script {
        incoming: VecDeque<Vec<u8>>,
        eof_after: bool,
        out: Vec<u8>,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.incoming.pop_front() {
                Some(chunk) if chunk.is_empty() => Err(ErrorKind::WouldBlock.into()),
                Some(chunk) => {
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                None if self.eof_after => Ok(0),
                None => Err(ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn conn(script: Script) -> Conn<Script> {
        Conn::new(0, script, Session::new(demo_database()))
    }

    #[test]
    fn partial_line_survives_across_reads() {
        let mut c = conn(Script {
            incoming: VecDeque::from([b"{\"op\":\"pi".to_vec(), b"ng\"}\nrest".to_vec()]),
            ..Script::default()
        });
        assert_eq!(c.fill(), ReadOutcome::Open);
        assert_eq!(
            c.next_line(1024).unwrap().as_deref(),
            Some("{\"op\":\"ping\"}")
        );
        assert_eq!(c.next_line(1024).unwrap(), None, "'rest' is incomplete");
    }

    #[test]
    fn many_pipelined_lines_arrive_in_one_read() {
        let mut c = conn(Script {
            incoming: VecDeque::from([b"a\nb\n\nc\n".to_vec()]),
            ..Script::default()
        });
        c.fill();
        let mut lines = Vec::new();
        while let Some(line) = c.next_line(1024).unwrap() {
            lines.push(line);
        }
        // The empty line is surfaced too; the server skips it after
        // trimming, exactly like the blocking loop did.
        assert_eq!(lines, ["a", "b", "", "c"]);
    }

    #[test]
    fn oversized_partial_line_is_rejected_not_buffered() {
        let mut c = conn(Script {
            incoming: VecDeque::from([vec![b'x'; 300]]),
            ..Script::default()
        });
        c.fill();
        let err = c.next_line(256).unwrap_err();
        assert!(err.at > 256);
    }

    #[test]
    fn oversized_complete_line_is_rejected() {
        let mut line = vec![b'y'; 300];
        line.push(b'\n');
        let mut c = conn(Script {
            incoming: VecDeque::from([line]),
            ..Script::default()
        });
        c.fill();
        assert!(c.next_line(256).is_err());
    }

    #[test]
    fn eof_closes_reading_after_draining_buffered_lines() {
        let mut c = conn(Script {
            incoming: VecDeque::from([b"last\n".to_vec()]),
            eof_after: true,
            ..Script::default()
        });
        // One pass drains the last chunk and observes the EOF behind it.
        assert_eq!(c.fill(), ReadOutcome::Eof);
        assert!(c.read_closed);
        // Bytes read before the EOF are still served.
        assert_eq!(c.next_line(1024).unwrap().as_deref(), Some("last"));
    }

    #[test]
    fn newlineless_final_line_is_taken_at_eof() {
        let mut c = conn(Script {
            incoming: VecDeque::from([b"{\"op\":\"ping\"}".to_vec()]),
            eof_after: true,
            ..Script::default()
        });
        assert_eq!(c.fill(), ReadOutcome::Eof);
        assert_eq!(c.next_line(1024).unwrap(), None, "no newline arrived");
        assert_eq!(c.take_final_line().as_deref(), Some("{\"op\":\"ping\"}"));
        assert_eq!(c.take_final_line(), None, "taken exactly once");
    }

    #[test]
    fn cursor_framing_survives_interleaved_extraction_and_reads() {
        // Lines extracted before and after a compaction pass must not
        // lose or duplicate bytes. The empty chunk is a WouldBlock
        // sentinel separating the two fill passes.
        let mut c = conn(Script {
            incoming: VecDeque::from([b"one\ntwo\nthr".to_vec(), Vec::new(), b"ee\nfour".to_vec()]),
            eof_after: true,
            ..Script::default()
        });
        c.fill();
        assert_eq!(c.next_line(64).unwrap().as_deref(), Some("one"));
        assert_eq!(c.next_line(64).unwrap().as_deref(), Some("two"));
        assert_eq!(c.next_line(64).unwrap(), None, "'thr' is partial");
        c.fill();
        assert_eq!(c.next_line(64).unwrap().as_deref(), Some("three"));
        assert_eq!(c.next_line(64).unwrap(), None);
        assert_eq!(c.take_final_line().as_deref(), Some("four"));
    }

    #[test]
    fn flush_drains_queued_frames_and_tracks_backlog() {
        let mut c = conn(Script::default());
        assert!(c.is_quiet());
        c.queue(b"{\"ok\":true}\n");
        assert!(c.has_backlog());
        assert!(!c.is_quiet());
        c.flush().unwrap();
        assert!(!c.has_backlog());
        assert_eq!(c.stream().out, b"{\"ok\":true}\n");
    }

    #[test]
    fn backpressure_pauses_reading_at_the_high_water_marks() {
        let mut c = conn(Script::default());
        assert!(c.wants_read());
        for _ in 0..PENDING_HIGH_WATER {
            c.pending.push_back("{\"op\":\"ping\"}".into());
        }
        assert!(!c.wants_read(), "deep pipeline pauses reads");
        c.pending.clear();
        c.read_closed = true;
        assert!(!c.wants_read(), "closed side never reads");
    }
}
