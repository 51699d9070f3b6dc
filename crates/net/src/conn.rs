//! Per-connection state: nonblocking reads into a frame buffer, parsed
//! requests queued for admission, responses staged for nonblocking
//! writes.
//!
//! A connection is plain data — no lifetimes, no futures. The server
//! pairs each `Conn` with at most one in-flight admission future; the
//! connection itself only moves bytes and frames:
//!
//! ```text
//! socket --read--> rbuf --split_frame/decode--> requests (VecDeque)
//! responses --encode--> wbuf --write--> socket
//! ```
//!
//! Backpressure is structural: reads stop while [`Conn::parsed_backlog`]
//! or the write buffer is over budget, so a client that pipelines
//! faster than its requests are admitted holds bytes in *its* socket,
//! not in server memory. [`Conn::interest`] tells the server's
//! readiness wait the same thing: a back-pressured or closing
//! connection is not waited on for input.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;

use crate::proto::{self, ProtoError, Request, Response};
use crate::readiness::PollFd;

/// Stop reading a connection once this many parsed requests await
/// admission (the client is pipelining past its turn).
const MAX_PARSED_BACKLOG: usize = 64;

/// Stop reading while more than this many response bytes are unflushed.
const MAX_WRITE_BACKLOG: usize = 256 * 1024;

/// Per-read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Why a connection ended (diagnostics; the server counts these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hangup {
    /// Peer closed or reset the socket.
    Eof,
    /// Socket error.
    Io(String),
    /// The byte stream violated the protocol; a typed error reply was
    /// staged before closing.
    Proto(ProtoError),
}

/// One client connection's IO state.
pub struct Conn {
    stream: TcpStream,
    /// Inbound bytes: `rpos..filled` is received and unparsed
    /// (compacted when the consumed prefix dominates), `filled..` is
    /// initialised room the next read lands in — kept across calls, so
    /// a read costs no zero-fill.
    rbuf: Vec<u8>,
    rpos: usize,
    filled: usize,
    /// Staged outbound bytes (`wpos..` is unsent).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Parsed requests awaiting admission, in arrival order.
    requests: VecDeque<Request>,
    /// Set once the stream is beyond recovery: flush what is staged,
    /// then drop the connection.
    closing: Option<Hangup>,
}

impl Conn {
    /// Adopt an accepted stream (switches it to nonblocking mode).
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        // Frames are small; Nagle would add 40ms stalls to every
        // request/response turn on loopback.
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            filled: 0,
            wbuf: Vec::new(),
            wpos: 0,
            requests: VecDeque::new(),
            closing: None,
        })
    }

    /// Parsed requests awaiting admission.
    pub fn parsed_backlog(&self) -> usize {
        self.requests.len()
    }

    /// Next request to admit, front of the arrival order.
    pub fn pop_request(&mut self) -> Option<Request> {
        self.requests.pop_front()
    }

    /// Stage a response for writing.
    pub fn push_response(&mut self, resp: &Response) {
        proto::encode_response(resp, &mut self.wbuf);
    }

    /// Stage a typed error reply and mark the stream for close-after-
    /// flush (protocol errors desynchronize framing; see `proto` docs).
    pub fn fail(&mut self, err: ProtoError) {
        let code = match err {
            ProtoError::Oversize { .. } | ProtoError::TooManyOps { .. } => {
                proto::ErrorCode::Oversize
            }
            ProtoError::BadVersion { .. } => proto::ErrorCode::BadVersion,
            ProtoError::BadKind { .. } => proto::ErrorCode::BadOpcode,
            _ => proto::ErrorCode::Malformed,
        };
        self.push_response(&Response::Error {
            code,
            retry_after_ms: 0,
            message: err.to_string(),
        });
        self.closing = Some(Hangup::Proto(err));
    }

    /// Has this connection ended? (After a final flush attempt.)
    pub fn hangup(&self) -> Option<&Hangup> {
        self.closing.as_ref()
    }

    /// Nothing staged, nothing parsed, nothing mid-frame?
    pub fn is_idle(&self) -> bool {
        self.requests.is_empty() && self.flushed() && self.filled == self.rpos
    }

    /// Should the socket be read? Not once the stream is closing, and
    /// not while admission or writes lag (backpressure).
    fn wants_read(&self) -> bool {
        self.closing.is_none()
            && self.requests.len() < MAX_PARSED_BACKLOG
            && self.wbuf.len() - self.wpos < MAX_WRITE_BACKLOG
    }

    /// What the server's readiness wait should watch this socket for:
    /// input while [`Conn::fill`] would read it, room to write while
    /// output is unflushed. `None`: only an admission can move this
    /// connection.
    pub fn interest(&self) -> Option<PollFd> {
        let (read, write) = (self.wants_read(), !self.flushed());
        (read || write).then(|| PollFd::new(&self.stream, read, write))
    }

    /// Pull whatever the socket has (until `WouldBlock`), split and
    /// decode complete frames into the request queue. Returns whether
    /// any byte or frame moved (the idle reaper's activity signal).
    pub fn fill(&mut self) -> bool {
        if self.closing.is_some() {
            return false;
        }
        let mut progress = false;
        while self.wants_read() {
            // Grows only when a partial frame has eaten into the room.
            if self.rbuf.len() < self.filled + READ_CHUNK {
                self.rbuf.resize(self.filled + READ_CHUNK, 0);
            }
            let room = &mut self.rbuf[self.filled..self.filled + READ_CHUNK];
            match self.stream.read(room) {
                Ok(0) => {
                    self.closing = Some(Hangup::Eof);
                    break;
                }
                Ok(n) => {
                    self.filled += n;
                    progress = true;
                    if n < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.closing = Some(Hangup::Io(e.to_string()));
                    break;
                }
            }
        }
        // Split and decode every complete frame.
        while self.closing.is_none() {
            match proto::split_frame(&self.rbuf[self.rpos..self.filled]) {
                Ok(Some((payload, consumed))) => {
                    match proto::decode_request(payload) {
                        Ok(req) => self.requests.push_back(req),
                        Err(e) => {
                            self.fail(e);
                            break;
                        }
                    }
                    self.rpos += consumed;
                    progress = true;
                }
                Ok(None) => break,
                Err(e) => {
                    self.fail(e);
                    break;
                }
            }
        }
        // Compact once the dead prefix dominates the received bytes.
        if self.rpos > 0 && self.rpos * 2 >= self.filled {
            self.rbuf.copy_within(self.rpos..self.filled, 0);
            self.filled -= self.rpos;
            self.rpos = 0;
        }
        progress
    }

    /// Push staged response bytes to the socket (until `WouldBlock` or
    /// empty). Returns whether any byte moved.
    pub fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.closing = Some(Hangup::Eof);
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    if self.closing.is_none() {
                        self.closing = Some(Hangup::Io(e.to_string()));
                    }
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() && self.wpos > 0 {
            self.wbuf.clear();
            self.wpos = 0;
        }
        progress
    }

    /// Are all staged response bytes on the wire?
    pub fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn")
            .field("parsed_backlog", &self.parsed_backlog())
            .field("unflushed", &(self.wbuf.len() - self.wpos))
            .field("closing", &self.closing)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// A connected (client, server-side `Conn`) pair over loopback.
    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nodelay(true).unwrap();
        let (served, _) = listener.accept().unwrap();
        (client, Conn::new(served).unwrap())
    }

    /// The read window is reused: frames cut at every offset by the
    /// transport come out whole and in order, a read that finds nothing
    /// costs nothing, and the buffer does not grow however long the
    /// stream runs.
    #[test]
    fn fill_reuses_its_window_across_partial_frames() {
        const FRAMES: u64 = 2000;
        let (mut client, mut conn) = pair();
        assert!(!conn.fill(), "nothing sent: no progress");
        assert_eq!(conn.rbuf.len(), READ_CHUNK, "one window, allocated once");
        assert!(conn.is_idle());

        let mut wire = Vec::new();
        for k in 0..FRAMES {
            proto::encode_request(&Request::Put { key: k, value: k }, &mut wire);
        }
        let frame = wire.len() / FRAMES as usize;
        let (mut sent, mut seen, mut step) = (0usize, 0u64, 1usize);
        let deadline = Instant::now() + Duration::from_secs(30);
        while sent < wire.len() {
            // 1..=61 bytes at a time: the cuts walk through the frame.
            let n = step.min(wire.len() - sent);
            client.write_all(&wire[sent..sent + n]).unwrap();
            sent += n;
            step = step % 61 + 1;
            // Every whole frame sent so far arrives (loopback: soon).
            while seen < (sent / frame) as u64 {
                assert!(Instant::now() < deadline, "bytes never arrived");
                conn.fill();
                while let Some(req) = conn.pop_request() {
                    let want = Request::Put {
                        key: seen,
                        value: seen,
                    };
                    assert_eq!(req, want, "frame {seen} mangled or out of order");
                    seen += 1;
                }
            }
            assert!(conn.rbuf.len() < 2 * READ_CHUNK, "the window grew");
        }
        assert_eq!(seen, FRAMES);
        assert!(conn.is_idle() && conn.hangup().is_none());

        // The peer hangs up: `fill` reports it, once.
        drop(client);
        while conn.hangup().is_none() {
            assert!(Instant::now() < deadline, "EOF never arrived");
            conn.fill();
        }
        assert_eq!(conn.hangup(), Some(&Hangup::Eof));
        assert!(
            conn.interest().is_none(),
            "a closed, flushed conn waits on nothing"
        );
    }
}
