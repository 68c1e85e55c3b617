//! A keep-alive HTTP/1.1 client and the load generator.
//!
//! The generator is this one process with [`THREADS`] threads, one
//! keep-alive connection each. A connection reconnects when the server
//! closes it at its keep-alive cap; connections are never opened in
//! bursts, so the listen backlog stays out of the numbers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::stats::{due, lag_grows, OpenSample};

/// Generator threads, and so connections (the host has 2 cores).
pub const THREADS: usize = 2;
/// Requests the server answers on one connection before closing it.
pub const KEEPALIVE_CAP: u64 = hamlet_serve::http::MAX_KEEPALIVE_REQUESTS as u64;

/// A `POST` request with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A `GET` request.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// One response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// One keep-alive connection that reconnects after the server closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
            connects: 0,
        }
    }

    /// Sends one request and reads its response. After an I/O error the
    /// connection is dropped and the next call reconnects.
    pub fn call(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        let out = self.exchange(request);
        if out.is_err() {
            self.stream = None;
        }
        out
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        let stream = match &mut self.stream {
            Some(s) => s,
            None => {
                let s = TcpStream::connect(self.addr)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(Duration::from_secs(10)))?;
                self.connects += 1;
                self.buf.clear();
                self.stream.insert(s)
            }
        };
        stream.write_all(request)?;
        let invalid =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let head_len = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            fill(stream, &mut self.buf)?;
        };
        let head =
            std::str::from_utf8(&self.buf[..head_len]).map_err(|_| invalid("non-UTF-8 head"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let (mut len, mut close) = (0usize, false);
        for line in head.lines() {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid("bad content-length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        while self.buf.len() < head_len + len {
            fill(stream, &mut self.buf)?;
        }
        let body = self.buf[head_len..head_len + len].to_vec();
        self.buf.drain(..head_len + len);
        if close {
            self.stream = None;
        }
        Ok(Reply { status, body })
    }
}

fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

/// The `labels` array of a predict response body.
pub fn labels_of(body: &[u8]) -> Option<Vec<bool>> {
    let key = b"\"labels\":[";
    let start = find(body, key)? + key.len();
    let end = start + body[start..].iter().position(|&b| b == b']')?;
    let inner = std::str::from_utf8(&body[start..end]).ok()?;
    if inner.trim().is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(|t| match t.trim() {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        })
        .collect()
}

/// Checks one predict reply against the oracle's labels.
pub fn check(reply: std::io::Result<Reply>, expected: &[bool]) -> Result<(), String> {
    let reply = reply.map_err(|e| format!("I/O error: {e}"))?;
    if reply.status != 200 {
        return Err(format!(
            "status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    match labels_of(&reply.body) {
        Some(labels) if labels == expected => Ok(()),
        _ => Err(format!(
            "wrong labels: {} (expected {expected:?})",
            String::from_utf8_lossy(&reply.body)
        )),
    }
}

/// The traffic a phase sends: request bytes and the labels each must get.
#[derive(Clone, Copy)]
pub struct Traffic<'a> {
    pub requests: &'a [Vec<u8>],
    pub expected: &'a [Vec<bool>],
}

/// What one load phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Open loop only: every request's accounting, per thread in send order.
    pub open: Vec<OpenSample>,
    /// Open loop only: some thread's lag grew over the phase.
    pub lag_grows: bool,
    /// Connections the phase used, connections it opened, and how many
    /// openings the keep-alive cap explains.
    pub conns: u64,
    pub connects: u64,
    pub expected_connects: u64,
    pub elapsed: Duration,
    /// With tracing: (sent, replied) per request.
    pub spans: Vec<(Instant, Instant)>,
}

impl Phase {
    /// Adds another phase's counts and samples to this one.
    pub fn absorb(&mut self, t: Phase) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        if self.first_error.is_none() {
            self.first_error = t.first_error;
        }
        self.lag_grows |= t.lag_grows;
        self.open.extend(t.open);
        self.conns += t.conns;
        self.connects += t.connects;
        self.expected_connects += t.expected_connects;
        self.elapsed += t.elapsed;
        self.spans.extend(t.spans);
    }

    /// Counts one checked output.
    pub fn note(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    /// Completions per second over the phase's (summed) elapsed time.
    pub fn throughput(&self) -> f64 {
        self.attempted as f64 / self.elapsed.as_secs_f64()
    }
}

/// Lets `sleep` wake within microseconds of its deadline instead of the
/// default 50 µs timer slack, which would otherwise show up as lag.
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;
    crate::host::prctl(PR_SET_TIMERSLACK, 1);
}

/// Runs `per_thread` on [`THREADS`] threads from one shared start and
/// merges what they measured.
fn run_threads(
    addr: SocketAddr,
    per_thread: impl Fn(usize, &mut Conn, Instant) -> Phase + Sync,
) -> Phase {
    let start = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let per_thread = &per_thread;
                scope.spawn(move || {
                    tight_timer_slack();
                    let mut conn = Conn::new(addr);
                    let mut phase = per_thread(t, &mut conn, start);
                    phase.conns = 1;
                    phase.connects = conn.connects;
                    phase.expected_connects = phase.attempted.div_ceil(KEEPALIVE_CAP);
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut out = Phase {
        elapsed: start.elapsed(),
        ..Phase::default()
    };
    for p in parts {
        out.absorb(p);
    }
    out
}

/// Closed loop: each thread sends its next request only after the reply
/// to the previous one, for `length`.
pub fn closed_loop(addr: SocketAddr, traffic: Traffic, length: Duration, traced: bool) -> Phase {
    run_threads(addr, |t, conn, start| {
        let mut phase = Phase::default();
        let n = traffic.requests.len();
        let mut i = t;
        while start.elapsed() < length {
            let sent = Instant::now();
            let reply = conn.call(&traffic.requests[i % n]);
            if traced {
                phase.spans.push((sent, Instant::now()));
            }
            phase.note(check(reply, &traffic.expected[i % n]));
            i += THREADS;
        }
        phase
    })
}

/// Open loop: requests go out on a fixed schedule of `rate` per second in
/// total, each thread sending every `THREADS / rate` seconds with the
/// threads staggered. A request is timed from when it was due.
pub fn open_loop(
    addr: SocketAddr,
    traffic: Traffic,
    rate: f64,
    length: Duration,
    traced: bool,
) -> Phase {
    let period = Duration::from_secs_f64(THREADS as f64 / rate);
    run_threads(addr, |t, conn, start| {
        let mut phase = Phase::default();
        let offset = period.mul_f64(t as f64 / THREADS as f64);
        let n = traffic.requests.len();
        for k in 0u64.. {
            let due_at = due(offset, period, k);
            if due_at >= length {
                break;
            }
            let now = start.elapsed();
            if now < due_at {
                std::thread::sleep(due_at - now);
            }
            let sent = Instant::now();
            let i = (t + k as usize * THREADS) % n;
            let reply = conn.call(&traffic.requests[i]);
            let done = Instant::now();
            if traced {
                phase.spans.push((sent, done));
            }
            phase
                .open
                .push(OpenSample::new(due_at, sent - start, done - start));
            phase.note(check(reply, &traffic.expected[i]));
        }
        let lags: Vec<f64> = phase.open.iter().map(|s| s.lag_ms).collect();
        phase.lag_grows = lag_grows(&lags);
        phase
    })
}
