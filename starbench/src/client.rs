//! A line-protocol client for `dwc serve` that timestamps what it reads.
//!
//! The socket has `TCP_NODELAY` set and every request leaves in a single
//! `write`, so the client adds no Nagle delay of its own. Each reply line
//! carries two timestamps: when its first byte arrived and when its
//! newline arrived. The gap between them is the reply tail — the time a
//! reply's last segment waited on the server side.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long any single read may block before the run is declared hung.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One complete reply line.
#[derive(Clone, Debug)]
pub struct Line {
    /// The line without its newline.
    pub text: String,
    /// When the read that delivered the line's first byte returned.
    pub first: Instant,
    /// When the read that delivered the newline returned.
    pub end: Instant,
}

/// A connection with a timestamping line reader.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    partial: Vec<u8>,
    partial_first: Option<Instant>,
    ready: VecDeque<Line>,
}

/// A parsed `query` reply.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// When the request was written.
    pub sent: Instant,
    /// When the first reply byte arrived.
    pub first: Instant,
    /// When the reply's final newline arrived.
    pub end: Instant,
    /// The reply's size in bytes, newlines included.
    pub bytes: u64,
    /// The result rows as printed (`(v1, v2, ...)`), or `None` when the
    /// server answered `err` or the reply was malformed.
    pub rows: Option<Vec<String>>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and the hang timeout set.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            partial: Vec::new(),
            partial_first: None,
            ready: VecDeque::new(),
        })
    }

    /// Writes `line` plus its newline in one `write_all` and returns the
    /// instant just before the write.
    pub fn send(&mut self, line: &str) -> io::Result<Instant> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let at = Instant::now();
        self.stream.write_all(&bytes)?;
        Ok(at)
    }

    /// One `read` from the socket, splitting what arrived into lines.
    fn fill(&mut self) -> io::Result<()> {
        let n = self.stream.read(&mut self.buf)?;
        let at = Instant::now();
        if n == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        for &b in &self.buf[..n] {
            if self.partial_first.is_none() {
                self.partial_first = Some(at);
            }
            if b == b'\n' {
                let text = String::from_utf8_lossy(&self.partial).into_owned();
                let first = self.partial_first.take().unwrap_or(at);
                self.ready.push_back(Line {
                    text,
                    first,
                    end: at,
                });
                self.partial.clear();
            } else {
                self.partial.push(b);
            }
        }
        Ok(())
    }

    /// The next reply line, blocking up to [`READ_TIMEOUT`].
    pub fn next_line(&mut self) -> io::Result<Line> {
        loop {
            if let Some(line) = self.ready.pop_front() {
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// A reply line if one is complete, reading only what has already
    /// arrived. Socket read timeouts fire on the kernel's tick, up to
    /// 10 ms late here, so an open-loop sender polls with this and sleeps
    /// instead.
    pub fn poll_line(&mut self) -> io::Result<Option<Line>> {
        if let Some(line) = self.ready.pop_front() {
            return Ok(Some(line));
        }
        self.stream.set_nonblocking(true)?;
        let got = self.fill();
        self.stream.set_nonblocking(false)?;
        match got {
            Ok(()) => Ok(self.ready.pop_front()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Completed lines already read but not yet taken.
    pub fn buffered(&self) -> usize {
        self.ready.len()
    }

    /// `hello <source>` → `(epoch, next_seq)` from the session grant.
    pub fn hello(&mut self, source: &str) -> io::Result<(u64, u64)> {
        self.send(&format!("hello {source}"))?;
        let line = self.next_line()?;
        let f: Vec<&str> = line.text.split_whitespace().collect();
        match f.as_slice() {
            ["session", _id, epoch, seq] => match (epoch.parse(), seq.parse()) {
                (Ok(e), Ok(s)) => Ok((e, s)),
                _ => Err(bad_reply(&line.text)),
            },
            _ => Err(bad_reply(&line.text)),
        }
    }

    /// Sends `query <expr>` and reads the whole reply.
    pub fn query(&mut self, expr: &str) -> io::Result<QueryReply> {
        let sent = self.send(&format!("query {expr}"))?;
        let head = self.next_line()?;
        let mut bytes = head.text.len() as u64 + 1;
        let count = match head.text.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["result", _epoch, n, "tuple(s)"] => n.parse::<usize>().ok(),
            _ => None,
        };
        let Some(count) = count else {
            return Ok(QueryReply {
                sent,
                first: head.first,
                end: head.end,
                bytes,
                rows: None,
            });
        };
        let mut rows = Vec::with_capacity(count);
        let mut end = head.end;
        for _ in 0..count {
            let line = self.next_line()?;
            bytes += line.text.len() as u64 + 1;
            end = line.end;
            rows.push(
                line.text
                    .strip_prefix("  ")
                    .unwrap_or(&line.text)
                    .to_owned(),
            );
        }
        Ok(QueryReply {
            sent,
            first: head.first,
            end,
            bytes,
            rows: Some(rows),
        })
    }

    /// Sends `stats` and returns the reply's `key=value` fields.
    pub fn stats(&mut self) -> io::Result<Vec<(String, String)>> {
        self.send("stats")?;
        let line = self.next_line()?;
        if !line.text.starts_with("stats ") {
            return Err(bad_reply(&line.text));
        }
        Ok(line
            .text
            .split_whitespace()
            .skip(1)
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect())
    }
}

fn bad_reply(text: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, format!("unexpected reply `{text}`"))
}
