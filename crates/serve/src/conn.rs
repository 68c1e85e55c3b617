//! Per-connection HTTP/1.1 state machine over a non-blocking socket.
//!
//! Each accepted connection is a [`Conn`] owned by the reactor thread. It
//! moves through an explicit state cycle —
//!
//! ```text
//! Idle ──bytes──▶ ReadingHead ──headers──▶ ReadingBody ──body──▶ Dispatched
//!   ▲                                                                │
//!   └────────────── Writing ◀──────────── response from executor ◀──┘
//! ```
//!
//! — entirely driven by epoll readiness: the reactor calls
//! [`Conn::on_readable`] / [`Conn::on_writable`] when the socket is ready,
//! [`Conn::next_job`] to pull a parsed request for the executor pool, and
//! [`Conn::complete`] when the executor hands the response back. Parsing is
//! incremental (a request line trickled one byte at a time just leaves the
//! connection in `ReadingHead` with the bytes buffered), pipelined requests
//! that arrive back-to-back in one packet are parsed into a bounded queue
//! and answered strictly in order, and responses accumulate as a queue of
//! header/body segments flushed with **vectored writes**: one `writev`
//! carries many responses' iovecs in a single syscall, with partial-write
//! resumption picking up mid-segment wherever the kernel stopped.
//!
//! HTTP/1.1 connections are **keep-alive by default**: only an explicit
//! `Connection: close`, an HTTP/1.0 request without `Connection:
//! keep-alive`, a parse error, or the per-connection request cap closes the
//! connection. An idle keep-alive connection costs a file descriptor and a
//! couple of buffers — never a thread.
//!
//! Timeouts are deliberately state-dependent: `Idle` connections get the
//! (long) keep-alive idle deadline; a request must arrive *completely*
//! within the (short) request deadline measured from its first byte — the
//! deadline is not extended by trickling bytes, which is what defeats
//! slow-loris clients; `Dispatched` connections have no deadline (the
//! handler may legitimately run for minutes, e.g. `/v1/train`); `Writing`
//! deadlines extend on write progress, so a slow-but-live reader survives
//! while a dead peer is reaped.

use std::collections::VecDeque;
use std::io::Read;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::Instant;

use crate::http::{Request, Response, ServerOptions};
use crate::reactor::IoVec;

/// Cap on the request line and each header line (matches the pre-reactor
/// server: a client streaming bytes with no newline must not grow server
/// memory unboundedly).
pub(crate) const MAX_LINE_BYTES: usize = 16 * 1024;

/// Cap on the number of headers per request.
pub(crate) const MAX_HEADERS: usize = 100;

/// Parsed-but-not-yet-dispatched pipelined requests are bounded; beyond
/// this the connection simply stops reading until responses drain.
const PENDING_CAP: usize = 32;

/// While a request is dispatched, buffered pipelined bytes are capped; the
/// reactor drops read interest until the executor catches up.
const PIPELINE_BUF_CAP: usize = 64 * 1024;

/// Largest head (request line + headers) the parser will buffer. Per-line
/// and header-count caps trip first for any single abusive line; this is
/// the backstop for many maximal legal lines.
const HEAD_BUF_CAP: usize = 2 * 1024 * 1024;

/// Responses accumulate in the write queue while earlier pipelined
/// requests are still executing; once the queue crosses this threshold it
/// is flushed even mid-pipeline.
const WRITE_BATCH_BYTES: usize = 64 * 1024;

/// Most segments one `writev` carries (well under the kernel's `IOV_MAX`
/// of 1024); a pipeline deeper than 32 responses simply takes another
/// syscall.
const MAX_IOVECS: usize = 64;

/// After a parse error the connection drains (and discards) up to this many
/// bytes of pending input before closing, so the kernel does not RST the
/// connection before the client has read the error response.
const DRAIN_CAP: usize = 1024 * 1024;

/// The explicit lifecycle phase of a connection (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Keep-alive connection parked between requests. Costs no thread.
    Idle,
    /// A request's first bytes have arrived; request line + headers are
    /// being accumulated.
    ReadingHead,
    /// Headers parsed; waiting for `Content-Length` body bytes.
    ReadingBody,
    /// A request is executing on the executor pool; the reactor is only
    /// watching for disconnects and buffering (bounded) pipelined bytes.
    Dispatched,
    /// Response bytes are queued and being flushed as the socket allows.
    Writing,
}

/// What the reactor should do with the connection after an I/O step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Keep the connection registered.
    Open,
    /// Deregister and drop the connection.
    Close,
}

/// Parse-layer errors; each maps to one terminal HTTP response.
#[derive(Debug)]
enum ParseError {
    TooLarge(&'static str),
    Malformed(&'static str),
}

impl ParseError {
    fn response(&self) -> Response {
        match self {
            ParseError::TooLarge(what) => {
                Response::json(413, format!("{{\"error\":\"{what}\"}}").into_bytes())
            }
            ParseError::Malformed(what) => {
                Response::json(400, format!("{{\"error\":\"{what}\"}}").into_bytes())
            }
        }
    }
}

/// A fully parsed request head awaiting its body.
#[derive(Debug)]
struct BodyNeed {
    method: String,
    path: String,
    query: String,
    keep_alive: bool,
    /// Total body bytes required in `read_buf` before the request is
    /// complete.
    total: usize,
}

/// One connection's full reactor-side state.
pub(crate) struct Conn {
    stream: TcpStream,
    pub(crate) state: ConnState,
    opts: Arc<ServerOptions>,

    // ---- read side ----
    read_buf: Vec<u8>,
    /// Offset of the first byte `parse_step` has not yet examined.
    scan: usize,
    /// Offset where the current head line starts.
    line_start: usize,
    /// Head lines seen so far for the in-progress request.
    n_head_lines: usize,
    /// Set once the head is parsed and body bytes are still owed.
    body: Option<BodyNeed>,
    /// Peer sent FIN: no more request bytes will arrive.
    read_closed: bool,
    /// Backpressure: stop reading until the pipeline drains.
    read_paused: bool,
    /// Post-error mode: discard (bounded) input so the error response can
    /// be delivered before the close.
    discarding: bool,
    discarded: usize,

    // ---- dispatch side ----
    /// Parsed pipelined requests not yet handed to an executor.
    pending: VecDeque<Request>,
    /// `Some(keep_alive_decision)` while a request is executing.
    inflight: Option<bool>,
    /// Requests served on this connection (keep-alive cap).
    served: usize,

    // ---- write side ----
    /// Queued response segments (header bytes and body bytes alternate;
    /// empty bodies queue no segment). Kept as discrete segments so a flush
    /// can hand the kernel one `writev` of iovecs instead of memcpy-ing
    /// everything into a flat buffer first.
    out: VecDeque<Vec<u8>>,
    /// Bytes of the *front* segment already written (partial-write resume
    /// point).
    out_pos: usize,
    /// Total unwritten bytes across all queued segments.
    out_len: usize,
    close_after_flush: bool,
    /// A parse-error response that must be written *after* every response
    /// already owed for earlier pipelined requests.
    error_resp: Option<Response>,

    // ---- deadlines ----
    /// Absolute deadline for the current state; `None` while `Dispatched`.
    pub(crate) deadline: Option<Instant>,
    /// The deadline currently filed in the reactor's timer wheel (lazy
    /// bookkeeping; see `reactor::TimerWheel`).
    pub(crate) filed: Option<Instant>,
    /// epoll interest mask currently registered for this connection
    /// (`EPOLLONESHOT` excluded — every registration carries it).
    pub(crate) registered: u32,
    /// Whether the one-shot registration is still armed: the kernel
    /// disarms on event delivery, so the reactor clears this when an event
    /// fires and re-arms (EPOLL_CTL_MOD) after processing it.
    pub(crate) armed: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, now: Instant, opts: Arc<ServerOptions>) -> Conn {
        let deadline = Some(now + opts.idle_timeout);
        Conn {
            stream,
            state: ConnState::Idle,
            opts,
            read_buf: Vec::new(),
            scan: 0,
            line_start: 0,
            n_head_lines: 0,
            body: None,
            read_closed: false,
            read_paused: false,
            discarding: false,
            discarded: 0,
            pending: VecDeque::new(),
            inflight: None,
            served: 0,
            out: VecDeque::new(),
            out_pos: 0,
            out_len: 0,
            close_after_flush: false,
            error_resp: None,
            deadline,
            filed: None,
            registered: 0,
            armed: false,
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Largest `read_buf` this state may grow to before reads pause.
    fn read_cap(&self) -> usize {
        if let Some(need) = &self.body {
            // The whole body plus slack for pipelined bytes behind it.
            need.total + PIPELINE_BUF_CAP
        } else if self.inflight.is_some() || self.pending.len() >= PENDING_CAP {
            PIPELINE_BUF_CAP
        } else {
            HEAD_BUF_CAP
        }
    }

    /// Socket is readable: pull bytes, advance the parser, queue work.
    pub(crate) fn on_readable(&mut self, now: Instant) -> Verdict {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            if self.discarding {
                // Error path: read and discard so the peer can finish its
                // send and actually receive the error response.
                match self.stream.read(&mut tmp) {
                    Ok(0) => {
                        self.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        self.discarded += n;
                        if self.discarded >= DRAIN_CAP {
                            self.read_paused = true;
                            break;
                        }
                        continue;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Verdict::Close,
                }
            }
            if self.read_buf.len() >= self.read_cap() {
                self.read_paused = true;
                break;
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => self.read_buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
        self.advance(now)
    }

    /// Run the incremental parser over buffered bytes and recompute state.
    /// Called after reads, and after a response is written (pipelined bytes
    /// may already hold the next request).
    pub(crate) fn advance(&mut self, now: Instant) -> Verdict {
        while self.error_resp.is_none() && !self.discarding && self.pending.len() < PENDING_CAP {
            match self.parse_step() {
                Ok(Some(req)) => self.pending.push_back(req),
                Ok(None) => break,
                Err(e) => {
                    self.error_resp = Some(e.response());
                    self.discarding = true;
                    // Anything already buffered is part of the broken
                    // stream; count it against the drain cap and drop it.
                    self.discarded += self.read_buf.len();
                    self.read_buf.clear();
                    self.reset_parse_cursor();
                    break;
                }
            }
        }
        if self.read_closed
            && self.error_resp.is_none()
            && !self.discarding
            && self.inflight.is_none()
            && self.pending.is_empty()
        {
            if self.read_buf.is_empty() && self.body.is_none() && !self.has_unwritten() {
                // Clean close at a request boundary: the normal end of a
                // keep-alive conversation.
                return Verdict::Close;
            }
            if !self.read_buf.is_empty() || self.body.is_some() {
                // FIN mid-request: truncation.
                self.error_resp = Some(ParseError::Malformed("truncated request").response());
                self.discarding = true;
                self.read_buf.clear();
                self.reset_parse_cursor();
            }
        }
        self.flush_error_if_due();
        // A read paused at a buffer cap resumes once parsing consumed the
        // buffered bytes or revealed a larger cap. Without this, a legal
        // 2–16 MiB body wedges: the head-stage cap pauses reads mid-ingest,
        // the parsed Content-Length then raises `read_cap`, but nothing
        // would ever read again. (The post-error drain pause is permanent
        // by design — hence `!discarding`.)
        if self.read_paused
            && !self.discarding
            && self.pending.len() < PENDING_CAP
            && self.read_buf.len() < self.read_cap()
        {
            self.read_paused = false;
        }
        self.recompute(now);
        Verdict::Open
    }

    fn reset_parse_cursor(&mut self) {
        self.scan = 0;
        self.line_start = 0;
        self.n_head_lines = 0;
        self.body = None;
    }

    /// Try to carve one complete request off the front of `read_buf`.
    /// `Ok(None)` means more bytes are needed.
    fn parse_step(&mut self) -> Result<Option<Request>, ParseError> {
        if let Some(need) = &self.body {
            if self.read_buf.len() < need.total {
                return Ok(None);
            }
            let need = self.body.take().expect("checked above");
            let body: Vec<u8> = self.read_buf.drain(..need.total).collect();
            self.reset_parse_cursor();
            return Ok(Some(Request {
                method: need.method,
                path: need.path,
                query: need.query,
                body,
                keep_alive: need.keep_alive,
            }));
        }
        // Walk lines until the head-terminating empty line.
        loop {
            let Some(rel) = self.read_buf[self.scan..].iter().position(|&b| b == b'\n') else {
                // No newline yet: enforce the per-line cap on the partial
                // line so an endless stream without newlines errors early.
                if self.read_buf.len() - self.line_start > MAX_LINE_BYTES {
                    return Err(ParseError::TooLarge("request/header line exceeds 16 KiB"));
                }
                return Ok(None);
            };
            let nl = self.scan + rel;
            let mut line_end = nl;
            if line_end > self.line_start && self.read_buf[line_end - 1] == b'\r' {
                line_end -= 1;
            }
            if line_end - self.line_start > MAX_LINE_BYTES {
                return Err(ParseError::TooLarge("request/header line exceeds 16 KiB"));
            }
            let is_empty = line_end == self.line_start;
            self.scan = nl + 1;
            if is_empty {
                // Head complete: [0, line_start) holds request line +
                // headers, the terminator ends at `scan`.
                let head_end = self.line_start;
                let consumed = self.scan;
                let head = self.parse_head(head_end)?;
                self.read_buf.drain(..consumed);
                self.reset_parse_cursor();
                if head.total > 0 {
                    self.body = Some(head);
                    // Tail-recurse once: the body may already be buffered.
                    return self.parse_step();
                }
                return Ok(Some(Request {
                    method: head.method,
                    path: head.path,
                    query: head.query,
                    body: Vec::new(),
                    keep_alive: head.keep_alive,
                }));
            }
            self.line_start = self.scan;
            self.n_head_lines += 1;
            if self.n_head_lines > MAX_HEADERS + 1 {
                return Err(ParseError::TooLarge("more than 100 headers"));
            }
        }
    }

    /// Parse the buffered head region `[0, head_end)` into a [`BodyNeed`].
    fn parse_head(&self, head_end: usize) -> Result<BodyNeed, ParseError> {
        let mut lines = self.read_buf[..head_end]
            .split(|&b| b == b'\n')
            .map(|l| l.strip_suffix(b"\r").unwrap_or(l));
        let request_line = lines.next().unwrap_or(b"");
        let request_line = std::str::from_utf8(request_line)
            .map_err(|_| ParseError::Malformed("non-UTF-8 request"))?;
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or(ParseError::Malformed("missing method"))?
            .to_ascii_uppercase();
        let target = parts.next().ok_or(ParseError::Malformed("missing path"))?;
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        if !path.starts_with('/') {
            return Err(ParseError::Malformed("path must be absolute"));
        }
        // HTTP/1.1 defaults to keep-alive; HTTP/1.0 (or no version at all)
        // to close. An explicit Connection header always wins.
        let http11 = parts
            .next()
            .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.1"));

        let mut content_length: u64 = 0;
        let mut connection: Option<bool> = None;
        for header in lines {
            let Ok(text) = std::str::from_utf8(header) else {
                continue; // tolerate non-UTF-8 headers we don't care about
            };
            if let Some((name, value)) = text.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| ParseError::Malformed("bad content-length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    let value = value.trim();
                    if value.eq_ignore_ascii_case("close") {
                        connection = Some(false);
                    } else if value.eq_ignore_ascii_case("keep-alive") {
                        connection = Some(true);
                    }
                }
            }
        }
        if content_length > crate::http::MAX_BODY_BYTES {
            return Err(ParseError::TooLarge("body exceeds 16 MiB"));
        }
        Ok(BodyNeed {
            method,
            path,
            query,
            keep_alive: connection.unwrap_or(http11),
            total: content_length as usize,
        })
    }

    /// Hand the next parsed request to the reactor for dispatch (at most
    /// one in flight per connection, preserving HTTP/1.1 response order).
    pub(crate) fn next_job(&mut self, _now: Instant) -> Option<Request> {
        if self.inflight.is_some() || self.close_after_flush {
            return None;
        }
        let req = self.pending.pop_front()?;
        self.served += 1;
        let keep_alive = req.keep_alive && self.served < self.opts.max_keepalive_requests;
        self.inflight = Some(keep_alive);
        self.state = ConnState::Dispatched;
        self.deadline = None; // the handler may run for minutes (training)
        Some(req)
    }

    /// The executor finished the in-flight request: queue its response.
    pub(crate) fn complete(&mut self, response: &Response, now: Instant) {
        let keep_alive = self.inflight.take().unwrap_or(false);
        self.queue_response(response, keep_alive);
        if !keep_alive {
            self.close_after_flush = true;
            self.pending.clear();
        }
        self.flush_error_if_due();
        self.recompute(now);
    }

    /// Append one response to the segment queue: a head segment plus (for
    /// non-empty bodies) a body segment. Segments stay discrete so the
    /// flush path can hand them to `writev` without a coalescing memcpy.
    fn queue_response(&mut self, response: &Response, keep_alive: bool) {
        let head = response.head_bytes(keep_alive);
        self.out_len += head.len();
        self.out.push_back(head);
        if !response.body.is_empty() {
            self.out_len += response.body.len();
            self.out.push_back(response.body.clone());
        }
    }

    /// Append the deferred parse-error response once every response owed
    /// for earlier (well-formed) pipelined requests has been queued.
    fn flush_error_if_due(&mut self) {
        if self.inflight.is_none() && self.pending.is_empty() {
            if let Some(resp) = self.error_resp.take() {
                self.queue_response(&resp, false);
                self.close_after_flush = true;
            }
        }
    }

    pub(crate) fn has_unwritten(&self) -> bool {
        self.out_len > 0
    }

    /// Whether buffered response bytes should be flushed *now*. Mid-
    /// pipeline the flush is deferred (batching) until the queue crosses
    /// the batch threshold, the pipeline drains, or the connection is
    /// closing.
    pub(crate) fn wants_flush(&self) -> bool {
        self.has_unwritten()
            && (self.inflight.is_none()
                || self.close_after_flush
                || self.out_len >= WRITE_BATCH_BYTES)
    }

    /// Account `n` bytes written against the segment queue: pop segments
    /// that are now fully on the wire, leave `out_pos` mid-segment where
    /// the kernel stopped (partial-write resumption).
    fn consume_out(&mut self, mut n: usize) {
        self.out_len -= n;
        while n > 0 {
            let front_left = self.out.front().expect("bytes owed ⇒ segment").len() - self.out_pos;
            if n < front_left {
                self.out_pos += n;
                break;
            }
            n -= front_left;
            self.out.pop_front();
            self.out_pos = 0;
        }
    }

    /// One vectored write covering up to [`MAX_IOVECS`] queued segments
    /// (the front one offset by the partial-write resume point).
    fn writev_step(&mut self) -> std::io::Result<usize> {
        let mut iov = [IoVec {
            base: std::ptr::null(),
            len: 0,
        }; MAX_IOVECS];
        let mut n = 0;
        for seg in self.out.iter().take(MAX_IOVECS) {
            let skip = if n == 0 { self.out_pos } else { 0 };
            iov[n] = IoVec {
                base: seg[skip..].as_ptr(),
                len: seg.len() - skip,
            };
            n += 1;
        }
        // SAFETY: each iovec points into a segment owned by `self.out`,
        // alive and unmoved for the duration of the call.
        let rc = unsafe { crate::reactor::writev(self.stream.as_raw_fd(), iov.as_ptr(), n as i32) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(rc as usize)
    }

    /// Socket is writable (or a flush is being attempted opportunistically).
    pub(crate) fn on_writable(&mut self, now: Instant) -> Verdict {
        while self.wants_flush() {
            match self.writev_step() {
                Ok(0) => return Verdict::Close,
                Ok(n) => {
                    self.consume_out(n);
                    if self.state == ConnState::Writing {
                        // Progress extends the write deadline: reap dead
                        // peers, not slow-but-live ones.
                        self.deadline = Some(now + self.opts.request_timeout);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
        if !self.has_unwritten() {
            self.out.clear();
            self.out_pos = 0;
            if self.close_after_flush {
                return Verdict::Close;
            }
            // Pipeline backpressure lifts once responses are on the wire;
            // advance() un-pauses reads when the buffer allows.
            return self.advance(now);
        }
        self.recompute(now);
        Verdict::Open
    }

    /// All queued-but-unwritten response bytes, flattened (tests and
    /// diagnostics only — the hot path never materialises this).
    #[cfg(test)]
    fn queued_bytes(&self) -> Vec<u8> {
        let mut flat = Vec::with_capacity(self.out_len);
        for (i, seg) in self.out.iter().enumerate() {
            let skip = if i == 0 { self.out_pos } else { 0 };
            flat.extend_from_slice(&seg[skip..]);
        }
        flat
    }

    /// Recompute the state label and its deadline after any transition.
    fn recompute(&mut self, now: Instant) {
        let new_state = if self.inflight.is_some() {
            ConnState::Dispatched
        } else if self.has_unwritten() {
            ConnState::Writing
        } else if self.body.is_some() {
            ConnState::ReadingBody
        } else if !self.read_buf.is_empty() || self.discarding {
            ConnState::ReadingHead
        } else {
            ConnState::Idle
        };
        if new_state != self.state {
            self.deadline = match new_state {
                ConnState::Idle => Some(now + self.opts.idle_timeout),
                // The whole request must arrive within one request
                // deadline from its first byte; trickling bytes does NOT
                // extend it (slow-loris defence). ReadingBody inherits the
                // clock started at ReadingHead.
                ConnState::ReadingHead => Some(now + self.opts.request_timeout),
                ConnState::ReadingBody => self.deadline.or(Some(now + self.opts.request_timeout)),
                ConnState::Dispatched => None,
                ConnState::Writing => Some(now + self.opts.request_timeout),
            };
            self.state = new_state;
        }
    }

    /// epoll interest mask this connection currently needs.
    pub(crate) fn desired_events(&self) -> u32 {
        let mut events = 0;
        if !self.read_closed && !self.read_paused {
            events |= crate::reactor::EPOLLIN;
        }
        if self.wants_flush() {
            events |= crate::reactor::EPOLLOUT;
        }
        events
    }

    pub(crate) fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// A connected nonblocking socket pair via loopback.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    fn conn(server: TcpStream) -> Conn {
        let opts = Arc::new(ServerOptions {
            workers: 1,
            ..ServerOptions::default()
        });
        Conn::new(server, Instant::now(), opts)
    }

    fn drive(c: &mut Conn, client: &mut TcpStream, bytes: &[u8]) -> Verdict {
        use std::io::Write as _;
        client.write_all(bytes).unwrap();
        // Loopback delivery is immediate but give the kernel a beat.
        std::thread::sleep(Duration::from_millis(10));
        c.on_readable(Instant::now())
    }

    #[test]
    fn incremental_head_parse_survives_byte_trickle() {
        let (mut client, server) = pair();
        let mut c = conn(server);
        assert_eq!(c.state, ConnState::Idle);
        let raw = b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
        for &b in &raw[..raw.len() - 1] {
            assert_eq!(drive(&mut c, &mut client, &[b]), Verdict::Open);
            assert!(c.pending.is_empty(), "no request before the blank line");
            assert_eq!(c.state, ConnState::ReadingHead);
        }
        drive(&mut c, &mut client, &raw[raw.len() - 1..]);
        let req = c.next_job(Instant::now()).expect("request parsed");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/x");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(c.state, ConnState::Dispatched);
        assert_eq!(c.deadline, None, "no deadline while the handler runs");
    }

    #[test]
    fn request_deadline_is_not_extended_by_trickled_bytes() {
        let (mut client, server) = pair();
        let mut c = conn(server);
        drive(&mut c, &mut client, b"GET");
        let d0 = c.deadline.expect("request clock started");
        std::thread::sleep(Duration::from_millis(30));
        drive(&mut c, &mut client, b" /slow");
        assert_eq!(c.deadline, Some(d0), "trickling must not reset the clock");
    }

    #[test]
    fn body_split_across_reads_and_pipelined_followup() {
        let (mut client, server) = pair();
        let mut c = conn(server);
        drive(
            &mut c,
            &mut client,
            b"POST /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel",
        );
        assert_eq!(c.state, ConnState::ReadingBody);
        assert!(c.next_job(Instant::now()).is_none());
        // Rest of the body plus a complete pipelined request in one packet.
        drive(&mut c, &mut client, b"loGET /second HTTP/1.1\r\n\r\n");
        let req = c.next_job(Instant::now()).expect("first request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello".to_vec());
        // The pipelined request is already parsed and queued behind it.
        c.complete(&Response::text(200, "ok"), Instant::now());
        let req2 = c.next_job(Instant::now()).expect("pipelined request");
        assert_eq!(req2.path, "/second");
    }

    #[test]
    fn pipelined_requests_answer_in_order_with_batched_write() {
        let (mut client, server) = pair();
        let mut c = conn(server);
        drive(
            &mut c,
            &mut client,
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n",
        );
        let now = Instant::now();
        for path in ["/a", "/b", "/c"] {
            let req = c.next_job(now).expect(path);
            assert_eq!(req.path, path, "strict pipeline order");
            c.complete(&Response::text(200, path.trim_start_matches('/')), now);
        }
        // Three responses sit in ONE write buffer (batched), flushed as one.
        assert!(c.has_unwritten());
        assert!(c.wants_flush(), "pipeline drained: flush is due");
        assert_eq!(c.on_writable(now), Verdict::Open);
        assert!(!c.has_unwritten());
        assert_eq!(c.state, ConnState::Idle);

        let mut got = Vec::new();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut tmp = [0u8; 4096];
        while got.len() < 3 * 20 {
            match client.read(&mut tmp) {
                Ok(n) => got.extend_from_slice(&tmp[..n]),
                Err(_) => break,
            }
            if String::from_utf8_lossy(&got)
                .matches("HTTP/1.1 200")
                .count()
                == 3
            {
                break;
            }
        }
        let text = String::from_utf8_lossy(&got);
        let a = text.find("\r\n\r\na").expect("body a");
        let b = text.find("\r\n\r\nb").expect("body b");
        let cpos = text.find("\r\n\r\nc").expect("body c");
        assert!(a < b && b < cpos, "responses in request order: {text}");
    }

    #[test]
    fn connection_close_and_http10_defaults() {
        let (mut client, server) = pair();
        let mut c = conn(server);
        drive(
            &mut c,
            &mut client,
            b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let req = c.next_job(Instant::now()).unwrap();
        assert!(!req.keep_alive, "explicit close wins over 1.1 default");

        let (mut client2, server2) = pair();
        let mut c2 = conn(server2);
        drive(&mut c2, &mut client2, b"GET /y HTTP/1.0\r\n\r\n");
        assert!(!c2.next_job(Instant::now()).unwrap().keep_alive);

        let (mut client3, server3) = pair();
        let mut c3 = conn(server3);
        drive(
            &mut c3,
            &mut client3,
            b"GET /z HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        );
        assert!(c3.next_job(Instant::now()).unwrap().keep_alive);
    }

    #[test]
    fn oversized_line_and_body_are_parse_errors() {
        let (mut client, server) = pair();
        let mut c = conn(server);
        let long = vec![b'a'; MAX_LINE_BYTES + 10];
        drive(&mut c, &mut client, &long);
        assert!(
            c.error_resp.is_some() || c.has_unwritten(),
            "line cap trips"
        );
        assert!(c.discarding);

        let (mut client2, server2) = pair();
        let mut c2 = conn(server2);
        drive(
            &mut c2,
            &mut client2,
            format!(
                "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                crate::http::MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        assert!(c2.has_unwritten(), "413 queued");
        let buf = String::from_utf8_lossy(&c2.queued_bytes()).into_owned();
        assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");
    }

    #[test]
    fn clean_close_at_boundary_vs_truncation() {
        // FIN with an empty buffer at a request boundary: clean close.
        let (client, server) = pair();
        let mut c = conn(server);
        drop(client);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(c.on_readable(Instant::now()), Verdict::Close);

        // FIN mid-head: truncation → 400 queued, then close after flush.
        let (mut client2, server2) = pair();
        let mut c2 = conn(server2);
        drive(&mut c2, &mut client2, b"GET /half HTT");
        drop(client2);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(c2.on_readable(Instant::now()), Verdict::Open);
        let buf = String::from_utf8_lossy(&c2.queued_bytes()).into_owned();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        assert!(c2.close_after_flush);
    }

    #[test]
    fn keepalive_request_cap_forces_close() {
        let (mut client, server) = pair();
        let mut c = conn(server);
        let max = c.opts.max_keepalive_requests;
        let now = Instant::now();
        for i in 0..max {
            drive(&mut c, &mut client, b"GET /r HTTP/1.1\r\n\r\n");
            let req = c.next_job(now).unwrap();
            assert!(req.keep_alive, "client asked for keep-alive every time");
            let expect_ka = i + 1 < max;
            c.complete(&Response::text(200, "ok"), now);
            assert_eq!(
                c.close_after_flush, !expect_ka,
                "request {i}: close only at the cap"
            );
            if c.on_writable(now) == Verdict::Close {
                assert_eq!(i + 1, max, "closed exactly at the cap");
                return;
            }
        }
        panic!("connection never closed at the keep-alive cap");
    }
}
