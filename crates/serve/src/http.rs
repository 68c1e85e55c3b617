//! A deliberately small HTTP/1.1 server on `std::net` — event-driven since
//! the reactor refactor.
//!
//! No async runtime is available offline, and none is needed: a single
//! **reactor thread** (see [`crate::reactor`]) multiplexes every connection
//! over raw `epoll`, parsing requests incrementally through each
//! connection's explicit state machine (see [`crate::conn`]). Parsed
//! requests are handed to a fixed pool of **executor threads** over a
//! channel; executors run the router/handler and hand finished responses
//! back to the reactor, which writes them as the socket allows.
//!
//! Consequences of the split:
//!
//! - HTTP/1.1 connections are **keep-alive by default** (close on
//!   `Connection: close`, HTTP/1.0 without an explicit keep-alive, parse
//!   errors, or the per-connection request cap), and an *idle* keep-alive
//!   connection costs zero threads — `--workers` now sizes request
//!   execution, not connection concurrency.
//! - Pipelined requests are parsed as they arrive, executed strictly in
//!   order, and their responses batched into one write buffer.
//! - Handlers receive a [`Responder`] instead of returning a value, so a
//!   handler may **defer**: hand its responder to another thread (e.g. the
//!   predict coalescer merging many in-flight requests into one batch) and
//!   return immediately, freeing the executor for the next request. The
//!   response is delivered whenever `Responder::send` runs; a responder
//!   dropped without sending (handler bug or panic) delivers a 500, so no
//!   request is ever silently abandoned.
//! - Slow or dead peers are reaped by a coarse deadline wheel with
//!   state-dependent timeouts (idle vs. mid-request vs. mid-write);
//!   handlers themselves are never timed out (training runs for minutes).
//! - Malformed requests get a 400 and close the connection, oversized
//!   bodies a 413, connections over [`ServerOptions::max_conns`] a 503,
//!   and handler panics are confined to the request that caused them.

use std::collections::{HashMap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// Upper bound on request bodies (16 MiB) — predict batches are bounded by
/// the client; this guards the server's memory.
pub const MAX_BODY_BYTES: u64 = 16 * 1024 * 1024;

/// Default upper bound on requests served over one keep-alive connection
/// before the server closes it (see [`ServerOptions::max_keepalive_requests`]).
pub const MAX_KEEPALIVE_REQUESTS: usize = 100;

/// Default cap on simultaneously open connections.
pub const MAX_CONNS: usize = 1024;

/// Tuning knobs for [`Server::bind_with`]. `Default` matches the CLI
/// defaults.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Executor threads running request handlers. This no longer bounds
    /// connection concurrency — idle connections are parked in the
    /// reactor, not on a thread.
    pub workers: usize,
    /// Cap on simultaneously open connections; excess connections are
    /// answered with a 503 and closed.
    pub max_conns: usize,
    /// A request (head + body) must arrive completely within this long of
    /// its first byte, and a queued response must make write progress at
    /// this cadence — the slow-loris/dead-peer reaping deadline.
    pub request_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_timeout: Duration,
    /// Requests served over one keep-alive connection before close.
    pub max_keepalive_requests: usize,
    /// Which dispatched requests the queue-depth gauge counts (what
    /// [`Responder::queue_depth`] reports). The gauge exists for the
    /// predict coalescer's "are merge partners pending?" question, so the
    /// default counts only `POST /v1/predict` — counting every endpoint
    /// would let an unrelated parked job (a `/v1/train` runs for minutes)
    /// impersonate a merge partner for its whole duration.
    pub queue_gauge: fn(&Request) -> bool,
    /// Optional periodic application callback driven by the reactor's
    /// timer wheel (the auto-demoter rides this). Runs on reactor 0's
    /// thread, so it must be brief and non-blocking; cadence is quantized
    /// to the wheel's slot width (~half a second).
    pub on_tick: Option<AppTick>,
    /// Reactor (event-loop) threads sharing the accept load. With more
    /// than one, each reactor gets its own `SO_REUSEPORT` listening socket
    /// (falling back to an accept-and-deal topology where that bind
    /// fails), its own epoll instance, and its own timer wheel. Default:
    /// `min(4, cores/4).max(1)`, overridable with `HAMLET_REACTORS`.
    pub reactors: usize,
    /// Shared sink for per-reactor connection gauges and per-model fair
    /// queue depths; the server installs its reactors/dispatcher into it
    /// at bind, and telemetry exporters read it. `None` works fine — the
    /// server then keeps stats nobody exports.
    pub net_stats: Option<Arc<NetStats>>,
}

/// Default [`ServerOptions::reactors`]: scale with the machine but stay
/// modest (executors and inference shards want cores too), overridable
/// with the `HAMLET_REACTORS` environment variable (which is how CI runs
/// the whole existing suite multi-reactor).
fn default_reactors() -> usize {
    if let Ok(v) = std::env::var("HAMLET_REACTORS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    (cores / 4).clamp(1, 4)
}

/// A periodic callback the reactor fires from its timer wheel.
#[derive(Clone)]
pub struct AppTick {
    /// Requested period (effective cadence is at least one wheel slot).
    pub every: Duration,
    /// The callback itself.
    pub run: Arc<dyn Fn() + Send + Sync>,
}

impl std::fmt::Debug for AppTick {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppTick")
            .field("every", &self.every)
            .finish()
    }
}

/// Default [`ServerOptions::queue_gauge`]: coalescable predict requests.
fn gauge_predicts(request: &Request) -> bool {
    request.method == "POST" && request.path == "/v1/predict"
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            max_conns: MAX_CONNS,
            request_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            max_keepalive_requests: MAX_KEEPALIVE_REQUESTS,
            queue_gauge: gauge_predicts,
            on_tick: None,
            reactors: default_reactors(),
            net_stats: None,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Raw query string (the part after `?`), empty when absent. Routing
    /// ignores it; handlers opt into specific flags via [`Request::flag`].
    pub query: String,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to `true`, HTTP/1.0 to `false`, and an explicit
    /// `Connection: keep-alive` / `Connection: close` header always wins.
    pub keep_alive: bool,
}

impl Request {
    /// Whether the query string carries a truthy flag: `?name=1` or
    /// `?name=true` (in any `&`-separated position).
    pub fn flag(&self, name: &str) -> bool {
        self.query.split('&').any(|kv| {
            kv.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix('='))
                .is_some_and(|v| v == "1" || v == "true")
        })
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// JSON response with a status code.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// Plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialized status line + headers (the head segment of the
    /// connection's vectored write queue; the body rides as its own iovec
    /// without being copied into the head).
    pub(crate) fn head_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n\
             Connection: {connection}\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )
        .into_bytes()
    }
}

/// One response as read off the wire by [`read_response`].
#[derive(Debug, Clone)]
pub struct RawResponse {
    /// Parsed status code.
    pub status: u16,
    /// The raw status line + headers (terminator included).
    pub head: String,
    /// The `Content-Length`-framed body bytes.
    pub body: Vec<u8>,
}

impl RawResponse {
    /// Head + body as one string (lossy), for assertions and diagnostics.
    pub fn text(&self) -> String {
        format!("{}{}", self.head, String::from_utf8_lossy(&self.body))
    }
}

/// Reads exactly one HTTP response (status line + headers +
/// `Content-Length`-framed body) from `stream`, leaving any pipelined
/// bytes behind it unread — so a keep-alive socket can be reused for the
/// next request. A deliberately minimal *client-side* reader shared by the
/// `probe` CLI, the benches and the test suites; not a general HTTP client
/// (no chunked encoding, which this server never emits).
pub fn read_response(stream: &mut impl std::io::Read) -> std::io::Result<RawResponse> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte)?;
        head.push(byte[0]);
        if head.len() > 64 * 1024 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "unterminated response head",
            ));
        }
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(RawResponse { status, head, body })
}

/// The application's request handler. Receives the parsed request and a
/// one-shot [`Responder`]; it must (eventually) call `Responder::send`
/// exactly once — synchronously before returning, or later from another
/// thread after stashing the responder (deferred dispatch).
pub type Handler = Arc<dyn Fn(&Request, Responder) + Send + Sync>;

/// Where a finished [`Response`] goes.
enum ResponseSink {
    /// Back to the reactor: completion channel + waker, keyed by the
    /// owning connection's token.
    Reactor {
        token: u64,
        done: Sender<Completion>,
        waker: Arc<crate::reactor::Waker>,
    },
    /// Straight to a channel — the direct-call path used by tests and any
    /// in-process caller of a [`Handler`].
    Direct(Sender<Response>),
}

/// A one-shot reply handle for exactly one request.
///
/// `send` consumes the responder; dropping one without sending delivers a
/// 500 (this is what turns a handler panic mid-defer into an error
/// response instead of a hung connection). The responder also exposes the
/// server's **executor queue depth** — how many gauge-eligible requests
/// (by default `POST /v1/predict`, see [`ServerOptions::queue_gauge`]) are
/// currently queued for or running on the executor pool — which is what
/// lets the predict coalescer wait for merge partners only when some are
/// actually in flight.
pub struct Responder {
    sink: Option<ResponseSink>,
    depth: Arc<AtomicUsize>,
}

impl Responder {
    fn for_reactor(
        token: u64,
        done: Sender<Completion>,
        waker: Arc<crate::reactor::Waker>,
        depth: Arc<AtomicUsize>,
    ) -> Responder {
        Responder {
            sink: Some(ResponseSink::Reactor { token, done, waker }),
            depth,
        }
    }

    /// A responder delivering into a plain channel, for driving a
    /// [`Handler`] without a server. Reports a queue depth of 1 (only this
    /// request in flight).
    pub fn direct() -> (Responder, Receiver<Response>) {
        Responder::direct_with_depth(1)
    }

    /// [`Responder::direct`] with a fixed queue depth — lets tests steer
    /// depth-sensitive handlers (e.g. force the coalescer to hold a batch
    /// open as if other requests were pending).
    pub fn direct_with_depth(depth: usize) -> (Responder, Receiver<Response>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (
            Responder {
                sink: Some(ResponseSink::Direct(tx)),
                depth: Arc::new(AtomicUsize::new(depth)),
            },
            rx,
        )
    }

    /// Gauge-eligible requests currently queued for or executing on the
    /// executor pool, including the one this responder answers (so ≥ 1
    /// while its handler runs).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed).max(1)
    }

    /// Delivers the response. Infallible from the caller's view: if the
    /// server is shutting down (reactor gone) the response has nowhere to
    /// go and is dropped.
    pub fn send(mut self, response: Response) {
        self.deliver(response);
    }

    fn deliver(&mut self, response: Response) {
        let Some(sink) = self.sink.take() else {
            return;
        };
        match sink {
            ResponseSink::Reactor { token, done, waker } => {
                // A failed send means the reactor is gone (shutdown
                // mid-flight): the response has nowhere to go.
                if done.send(Completion { token, response }).is_ok() {
                    waker.wake();
                }
            }
            ResponseSink::Direct(tx) => {
                let _ = tx.send(response);
            }
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if self.sink.is_some() {
            // The handler (or whoever it deferred to) died without
            // answering — typically a panic mid-request. The peer gets a
            // 500 instead of a connection wedged in `Dispatched` forever.
            self.deliver(Response::json(
                500,
                "{\"error\":\"internal error: request dropped without a response\"}",
            ));
        }
    }
}

impl std::fmt::Debug for Responder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Responder")
            .field("pending", &self.sink.is_some())
            .finish()
    }
}

/// A parsed request travelling from a reactor to an executor.
pub(crate) struct Job {
    /// Index of the reactor that owns the connection — routes the
    /// completion back to the right completion channel + waker.
    pub reactor: usize,
    /// The owning connection's token on that reactor.
    pub token: u64,
    pub request: Request,
    /// Whether this job was counted into the queue-depth gauge (see
    /// [`ServerOptions::queue_gauge`]); the executor decrements iff set.
    pub counted: bool,
}

/// A finished response travelling from an executor back to the reactor.
pub(crate) struct Completion {
    pub token: u64,
    pub response: Response,
}

/// The fair-queue key for a request: the path, refined to
/// `/v1/predict:<model>` for predict requests so one hot model queues
/// separately from the rest.
pub(crate) fn fair_key(request: &Request) -> String {
    if request.method == "POST" && request.path == "/v1/predict" {
        if let Some(model) = scan_model(&request.body) {
            return format!("{}:{model}", request.path);
        }
    }
    request.path.clone()
}

/// Cheap scan for `"model": "<name>"` in a JSON body — no full parse on
/// the reactor thread. Bails (→ path-keyed) on anything exotic: escapes
/// in the name, missing quotes, non-UTF-8.
fn scan_model(body: &[u8]) -> Option<String> {
    const NEEDLE: &[u8] = b"\"model\"";
    let at = body.windows(NEEDLE.len()).position(|w| w == NEEDLE)?;
    let mut i = at + NEEDLE.len();
    while body.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    if body.get(i) != Some(&b':') {
        return None;
    }
    i += 1;
    while body.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    if body.get(i) != Some(&b'"') {
        return None;
    }
    let rest = &body[i + 1..];
    let end = rest.iter().position(|&b| b == b'"' || b == b'\\')?;
    if rest[end] == b'\\' {
        return None;
    }
    std::str::from_utf8(&rest[..end]).ok().map(str::to_string)
}

/// Per-model fair queues GC'd down to this many retained depth gauges;
/// past the cap, drained models stop being exported rather than growing
/// the map unboundedly under path-cardinality abuse.
const FAIR_KEY_GAUGE_CAP: usize = 512;

/// Deficit-round-robin (quantum = 1 job) fair dispatch queue between the
/// reactors and the executor pool.
///
/// Jobs are queued per [`fair_key`] (≈ per model); executors pop one job
/// from the front key then rotate it to the back, so a model flooding
/// thousands of requests still only gets one executor slot per round and
/// cannot starve a cheap model queued behind it. Replaces the former
/// global FIFO channel.
///
/// Lifecycle: each reactor holds a [`DispatchGuard`]; when the last one
/// drops (shutdown), [`Dispatcher::pop`] drains what's queued and then
/// returns `None`, which is the executors' exit signal.
pub(crate) struct Dispatcher {
    inner: Mutex<DispatchInner>,
    ready: Condvar,
}

struct DispatchInner {
    /// Non-empty per-key FIFO queues.
    queues: HashMap<String, VecDeque<Job>>,
    /// Round-robin order over the keys of `queues`.
    ring: VecDeque<String>,
    /// Total queued jobs across all keys.
    len: usize,
    /// Live reactors (producers); 0 = closed.
    open_reactors: usize,
    /// Exported queue depths. Keys are *retained* at depth 0 (so a model
    /// that was ever queued keeps its gauge) up to [`FAIR_KEY_GAUGE_CAP`].
    depths: HashMap<String, usize>,
}

impl Dispatcher {
    pub(crate) fn new(reactors: usize) -> Dispatcher {
        Dispatcher {
            inner: Mutex::new(DispatchInner {
                queues: HashMap::new(),
                ring: VecDeque::new(),
                len: 0,
                open_reactors: reactors,
                depths: HashMap::new(),
            }),
            ready: Condvar::new(),
        }
    }

    /// Queue one job under its fair key and wake an executor.
    pub(crate) fn push(&self, key: String, job: Job) {
        let mut guard = self.inner.lock().expect("dispatcher poisoned");
        let inner = &mut *guard;
        *inner.depths.entry(key.clone()).or_insert(0) += 1;
        let queue = inner.queues.entry(key.clone()).or_default();
        if queue.is_empty() {
            inner.ring.push_back(key);
        }
        queue.push_back(job);
        inner.len += 1;
        drop(guard);
        self.ready.notify_one();
    }

    /// Block for the next job, round-robin across keys. `None` = every
    /// reactor exited and the queues are drained: executor exit signal.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut guard = self.inner.lock().expect("dispatcher poisoned");
        loop {
            if guard.len > 0 {
                let inner = &mut *guard;
                let key = inner.ring.pop_front().expect("len > 0 ⇒ ring non-empty");
                let queue = inner.queues.get_mut(&key).expect("ring key has a queue");
                let job = queue.pop_front().expect("ring key queue non-empty");
                inner.len -= 1;
                if let Some(depth) = inner.depths.get_mut(&key) {
                    *depth = depth.saturating_sub(1);
                }
                if queue.is_empty() {
                    inner.queues.remove(&key);
                    if inner.depths.len() > FAIR_KEY_GAUGE_CAP {
                        inner.depths.remove(&key);
                    }
                } else {
                    inner.ring.push_back(key);
                }
                return Some(job);
            }
            if guard.open_reactors == 0 {
                return None;
            }
            guard = self.ready.wait(guard).expect("dispatcher poisoned");
        }
    }

    /// Register one live reactor-producer; its drop is the close signal.
    pub(crate) fn reactor_guard(self: &Arc<Self>) -> DispatchGuard {
        DispatchGuard(Arc::clone(self))
    }

    /// Current per-key queue depths, sorted by key (telemetry export).
    pub(crate) fn depth_snapshot(&self) -> Vec<(String, usize)> {
        let inner = self.inner.lock().expect("dispatcher poisoned");
        let mut out: Vec<(String, usize)> =
            inner.depths.iter().map(|(k, &d)| (k.clone(), d)).collect();
        out.sort();
        out
    }
}

/// Counts a reactor as a live producer; dropping the last one closes the
/// dispatcher (created with the count pre-set by [`Dispatcher::new`], so
/// the guard only ever decrements).
pub(crate) struct DispatchGuard(Arc<Dispatcher>);

impl Drop for DispatchGuard {
    fn drop(&mut self) {
        let mut inner = self.0.inner.lock().expect("dispatcher poisoned");
        inner.open_reactors = inner.open_reactors.saturating_sub(1);
        let closed = inner.open_reactors == 0;
        drop(inner);
        if closed {
            self.0.ready.notify_all();
        }
    }
}

/// Per-reactor gauges, updated by the owning reactor thread and read by
/// telemetry exporters.
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Currently open connections on this reactor.
    pub connections: AtomicUsize,
    /// Connections this reactor has adopted since start.
    pub accepted_total: AtomicU64,
}

/// One reactor's gauges at a point in time.
#[derive(Debug, Clone)]
pub struct ReactorSnapshot {
    pub index: usize,
    pub connections: usize,
    pub accepted_total: u64,
}

/// Shared network-plane observability: per-reactor connection gauges and
/// the fair dispatcher's per-model queue depths. Created by the
/// application (so `/metrics` can read it), installed by the server at
/// bind.
pub struct NetStats {
    reactors: RwLock<Vec<Arc<ReactorStats>>>,
    dispatcher: RwLock<Option<Arc<Dispatcher>>>,
}

impl Default for NetStats {
    fn default() -> Self {
        NetStats {
            reactors: RwLock::new(Vec::new()),
            dispatcher: RwLock::new(None),
        }
    }
}

impl NetStats {
    pub fn new() -> NetStats {
        NetStats::default()
    }

    pub(crate) fn install(&self, reactors: Vec<Arc<ReactorStats>>, dispatcher: Arc<Dispatcher>) {
        *self.reactors.write().expect("net stats poisoned") = reactors;
        *self.dispatcher.write().expect("net stats poisoned") = Some(dispatcher);
    }

    /// Per-reactor gauges (empty until a server installs itself).
    pub fn reactor_snapshots(&self) -> Vec<ReactorSnapshot> {
        self.reactors
            .read()
            .expect("net stats poisoned")
            .iter()
            .enumerate()
            .map(|(index, s)| ReactorSnapshot {
                index,
                connections: s.connections.load(Ordering::Relaxed),
                accepted_total: s.accepted_total.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Fair-queue depth per model key, sorted (empty until installed).
    pub fn queue_depths(&self) -> Vec<(String, usize)> {
        match &*self.dispatcher.read().expect("net stats poisoned") {
            Some(d) => d.depth_snapshot(),
            None => Vec::new(),
        }
    }
}

impl std::fmt::Debug for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetStats")
            .field("reactors", &self.reactor_snapshots().len())
            .finish()
    }
}

/// A handle that can stop a running [`Server`] from another thread (the
/// `Server` itself is typically parked in [`Server::block_until_shutdown`]).
#[derive(Clone)]
pub struct StopHandle {
    shutdown: Arc<AtomicBool>,
    stopped: Arc<(Mutex<bool>, Condvar)>,
    wakers: Vec<Arc<crate::reactor::Waker>>,
}

impl StopHandle {
    /// Signals shutdown: every reactor exits its next loop iteration and
    /// any thread parked in [`Server::block_until_shutdown`] wakes
    /// immediately.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        let (lock, cond) = &*self.stopped;
        let mut stopped = lock.lock().expect("lifecycle poisoned");
        *stopped = true;
        cond.notify_all();
    }
}

/// An executor's route back to one reactor: completion channel + waker.
struct ReactorHandle {
    done: Sender<Completion>,
    waker: Arc<crate::reactor::Waker>,
}

/// A running server: N reactor threads + a fixed executor pool.
pub struct Server {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    stopped: Arc<(Mutex<bool>, Condvar)>,
    wakers: Vec<Arc<crate::reactor::Waker>>,
    reactors: Vec<std::thread::JoinHandle<()>>,
    executors: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) with `n_workers`
    /// executor threads and default I/O options.
    pub fn bind(addr: &str, n_workers: usize, handler: Handler) -> std::io::Result<Server> {
        Server::bind_with(
            addr,
            handler,
            ServerOptions {
                workers: n_workers,
                ..ServerOptions::default()
            },
        )
    }

    /// Binds `addr` and starts the reactor fleet + executor pool with
    /// explicit [`ServerOptions`].
    pub fn bind_with(addr: &str, handler: Handler, opts: ServerOptions) -> std::io::Result<Server> {
        use crate::reactor::{AcceptRole, ReactorConfig, Waker};
        let n = opts.reactors.max(1);
        let opts = Arc::new(opts);
        let shutdown = Arc::new(AtomicBool::new(false));
        let stopped = Arc::new((Mutex::new(false), Condvar::new()));
        let wakers: Vec<Arc<Waker>> = (0..n)
            .map(|_| Waker::new().map(Arc::new))
            .collect::<std::io::Result<_>>()?;

        // Listening topology: single listener when single-reactor; one
        // SO_REUSEPORT shard per reactor otherwise, falling back to
        // accept-and-deal (reactor 0 owns the listener) if that bind fails.
        let mut roles: Vec<AcceptRole> = Vec::with_capacity(n);
        let local;
        if n == 1 {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            local = listener.local_addr()?;
            roles.push(AcceptRole::Shard(listener));
        } else {
            match crate::reactor::reuseport_listeners(addr, n) {
                Ok(listeners) => {
                    local = listeners[0].local_addr()?;
                    roles.extend(listeners.into_iter().map(AcceptRole::Shard));
                }
                Err(_) => {
                    let listener = TcpListener::bind(addr)?;
                    listener.set_nonblocking(true)?;
                    local = listener.local_addr()?;
                    let mut siblings = Vec::with_capacity(n - 1);
                    let mut members = Vec::with_capacity(n - 1);
                    for waker in wakers.iter().skip(1) {
                        let (tx, rx) = std::sync::mpsc::channel();
                        siblings.push((tx, Arc::clone(waker)));
                        members.push(AcceptRole::Member(rx));
                    }
                    roles.push(AcceptRole::Owner { listener, siblings });
                    roles.extend(members);
                }
            }
        }

        let dispatcher = Arc::new(Dispatcher::new(n));
        let stats: Vec<Arc<ReactorStats>> =
            (0..n).map(|_| Arc::new(ReactorStats::default())).collect();
        let total_conns = Arc::new(AtomicUsize::new(0));
        if let Some(net) = &opts.net_stats {
            net.install(stats.clone(), Arc::clone(&dispatcher));
        }
        // Requests queued for / running on the pool: reactors increment
        // per dispatched job, executors decrement when the handler returns.
        let queue_depth = Arc::new(AtomicUsize::new(0));

        let mut handles = Vec::with_capacity(n);
        let mut completion_rxs = Vec::with_capacity(n);
        for waker in &wakers {
            let (done_tx, done_rx): (Sender<Completion>, Receiver<Completion>) =
                std::sync::mpsc::channel();
            handles.push(ReactorHandle {
                done: done_tx,
                waker: Arc::clone(waker),
            });
            completion_rxs.push(done_rx);
        }
        let handles = Arc::new(handles);

        let executors = (0..opts.workers.max(1))
            .map(|i| {
                let dispatcher = Arc::clone(&dispatcher);
                let handles = Arc::clone(&handles);
                let handler = Arc::clone(&handler);
                let queue_depth = Arc::clone(&queue_depth);
                std::thread::Builder::new()
                    .name(format!("hamlet-serve-exec-{i}"))
                    .spawn(move || executor_loop(&dispatcher, &handles, &handler, &queue_depth))
                    .expect("spawning executor thread")
            })
            .collect();

        let reactors = roles
            .into_iter()
            .zip(completion_rxs)
            .enumerate()
            .map(|(index, (role, completions))| {
                let cfg = ReactorConfig {
                    index,
                    role,
                    dispatcher: Arc::clone(&dispatcher),
                    completions,
                    waker: Arc::clone(&wakers[index]),
                    shutdown: Arc::clone(&shutdown),
                    opts: Arc::clone(&opts),
                    queue_depth: Arc::clone(&queue_depth),
                    stats: Arc::clone(&stats[index]),
                    total_conns: Arc::clone(&total_conns),
                };
                std::thread::Builder::new()
                    .name(format!("hamlet-serve-reactor-{index}"))
                    .spawn(move || crate::reactor::run(cfg))
                    .expect("spawning reactor thread")
            })
            .collect();

        Ok(Server {
            addr: local,
            shutdown,
            stopped,
            wakers,
            reactors,
            executors,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// A clonable handle that can stop this server from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            shutdown: Arc::clone(&self.shutdown),
            stopped: Arc::clone(&self.stopped),
            wakers: self.wakers.clone(),
        }
    }

    /// Signals shutdown and joins every reactor and executor.
    pub fn shutdown(mut self) {
        self.stop_handle().stop();
        for r in self.reactors.drain(..) {
            let _ = r.join();
        }
        // The last reactor's dispatch guard closed the dispatcher;
        // executors drain the queues and exit.
        for w in self.executors.drain(..) {
            let _ = w.join();
        }
    }

    /// Parks the calling thread until [`StopHandle::stop`] (or
    /// [`Server::shutdown`] from another thread via a handle) is called.
    /// Zero CPU while parked — this replaced a 3600 s sleep/poll loop, so
    /// stopping is now prompt instead of "within the hour".
    pub fn block_until_shutdown(&self) {
        let (lock, cond) = &*self.stopped;
        let mut stopped = lock.lock().expect("lifecycle poisoned");
        while !*stopped {
            stopped = cond.wait(stopped).expect("lifecycle poisoned");
        }
    }
}

/// One executor thread: pull fair-queued requests, run the handler
/// (panics confined to the request — an unwound handler's [`Responder`]
/// delivers a 500 from its destructor), route the completion back to the
/// owning reactor, track the shared queue depth.
fn executor_loop(
    dispatcher: &Dispatcher,
    handles: &[ReactorHandle],
    handler: &Handler,
    queue_depth: &Arc<AtomicUsize>,
) {
    while let Some(Job {
        reactor,
        token,
        request,
        counted,
    }) = dispatcher.pop()
    {
        let home = &handles[reactor];
        let responder = Responder::for_reactor(
            token,
            home.done.clone(),
            Arc::clone(&home.waker),
            Arc::clone(queue_depth),
        );
        // The responder moves into the handler; on a panic it is dropped
        // during unwinding and answers 500, on a deferral it outlives this
        // call and answers from wherever the work finishes.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler(&request, responder)
        }));
        if counted {
            queue_depth.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn echo_server() -> Server {
        Server::bind(
            "127.0.0.1:0",
            2,
            Arc::new(|req: &Request, responder: Responder| {
                responder.send(Response::text(
                    200,
                    format!("{} {} {}", req.method, req.path, req.body.len()),
                ))
            }),
        )
        .unwrap()
    }

    /// One request on a fresh connection; `Connection: close` so the
    /// response can be read to EOF.
    fn roundtrip(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn parses_and_responds_over_real_sockets() {
        let server = echo_server();
        let addr = server.addr();
        let resp = roundtrip(
            addr,
            "POST /v1/echo?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\
             Connection: close\r\n\r\nhello",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("POST /v1/echo 5"), "{resp}");
        // Parallel requests across the executor pool.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    roundtrip(
                        addr,
                        "GET /ping HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
                    )
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap().contains("GET /ping 0"));
        }
        server.shutdown();
    }

    #[test]
    fn http11_is_keep_alive_by_default() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        // No Connection header at all: HTTP/1.1 stays open.
        for i in 0..5 {
            s.write_all(format!("GET /req{i} HTTP/1.1\r\nHost: h\r\n\r\n").as_bytes())
                .unwrap();
            let resp = read_one_response(&mut s);
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains("Connection: keep-alive"), "{resp}");
            assert!(resp.contains(&format!("GET /req{i} 0")), "{resp}");
        }
        // An explicit close is honoured and the socket drains to EOF.
        s.write_all(b"GET /last HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
            .unwrap();
        let resp = read_one_response(&mut s);
        assert!(resp.contains("Connection: close"), "{resp}");
        let mut rest = String::new();
        s.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "server closed after Connection: close");
        server.shutdown();
    }

    #[test]
    fn http10_closes_by_default_but_honours_keep_alive() {
        let server = echo_server();
        // Bare HTTP/1.0: one response then EOF.
        let resp = roundtrip(server.addr(), "GET /old HTTP/1.0\r\nHost: h\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("Connection: close"), "{resp}");
        // HTTP/1.0 + explicit keep-alive stays open.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        for _ in 0..2 {
            s.write_all(b"GET /ka HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap();
            let resp = read_one_response(&mut s);
            assert!(resp.contains("Connection: keep-alive"), "{resp}");
        }
        server.shutdown();
    }

    /// One full response as text, leaving the keep-alive socket reusable.
    fn read_one_response(s: &mut TcpStream) -> String {
        read_response(s).expect("one response").text()
    }

    #[test]
    fn malformed_requests_get_400() {
        let server = echo_server();
        let resp = roundtrip(server.addr(), "NONSENSE\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        let resp = roundtrip(
            server.addr(),
            "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn oversized_bodies_get_413() {
        let server = echo_server();
        let resp = roundtrip(
            server.addr(),
            &format!(
                "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            ),
        );
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn unbounded_header_lines_are_rejected_not_buffered() {
        let server = echo_server();
        // A header line past the 16 KiB cap must get 413, not grow memory.
        let huge = format!(
            "GET /x HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
            "a".repeat(2 * crate::conn::MAX_LINE_BYTES)
        );
        let resp = roundtrip(server.addr(), &huge);
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        // Too many headers are likewise bounded.
        let mut many = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..200 {
            many.push_str(&format!("X-H{i}: v\r\n"));
        }
        many.push_str("\r\n");
        let resp = roundtrip(server.addr(), &many);
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn handler_panics_become_500() {
        let server = Server::bind(
            "127.0.0.1:0",
            1,
            Arc::new(|req: &Request, responder: Responder| {
                if req.path == "/boom" {
                    panic!("handler exploded");
                }
                responder.send(Response::text(200, "ok"))
            }),
        )
        .unwrap();
        let resp = roundtrip(
            server.addr(),
            "GET /boom HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 500"), "{resp}");
        // The executor survives the panic.
        let resp = roundtrip(
            server.addr(),
            "GET /fine HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn deferred_responses_free_the_executor_and_still_arrive() {
        // One executor; /defer parks its responder on a side thread for
        // 150 ms. A /fast request issued meanwhile must complete *before*
        // the deferred one answers — proving deferral releases the worker.
        let server = Server::bind(
            "127.0.0.1:0",
            1,
            Arc::new(|req: &Request, responder: Responder| {
                if req.path == "/defer" {
                    std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(150));
                        responder.send(Response::text(200, "late"));
                    });
                } else {
                    responder.send(Response::text(200, "fast"));
                }
            }),
        )
        .unwrap();
        let addr = server.addr();
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /defer HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(30)); // let /defer dispatch
        let start = std::time::Instant::now();
        let fast = roundtrip(addr, "GET /fast HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(fast.contains("fast"), "{fast}");
        assert!(
            start.elapsed() < Duration::from_millis(120),
            "the lone executor was blocked by a deferred request"
        );
        let mut out = String::new();
        slow.read_to_string(&mut out).unwrap();
        assert!(out.contains("late"), "{out}");
        server.shutdown();
    }

    #[test]
    fn dropped_responder_answers_500() {
        // A handler that "forgets" to respond: the responder's destructor
        // must deliver a 500 rather than wedge the connection.
        let server = Server::bind(
            "127.0.0.1:0",
            1,
            Arc::new(|_req: &Request, responder: Responder| drop(responder)),
        )
        .unwrap();
        let resp = roundtrip(
            server.addr(),
            "GET /lost HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 500"), "{resp}");
        assert!(resp.contains("without a response"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn direct_responders_collect_and_report_depth() {
        let (responder, rx) = Responder::direct();
        assert_eq!(responder.queue_depth(), 1);
        responder.send(Response::text(200, "hi"));
        assert_eq!(rx.recv().unwrap().status, 200);
        let (responder, rx) = Responder::direct_with_depth(5);
        assert_eq!(responder.queue_depth(), 5);
        drop(responder);
        assert_eq!(rx.recv().unwrap().status, 500, "drop = 500");
    }

    #[test]
    fn stop_handle_wakes_block_until_shutdown_promptly() {
        let server = echo_server();
        let handle = server.stop_handle();
        let start = std::time::Instant::now();
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            handle.stop();
        });
        server.block_until_shutdown();
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_secs(5),
            "parked thread woke in {waited:?}, not promptly"
        );
        stopper.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn max_conns_overflow_gets_503() {
        let server = Server::bind_with(
            "127.0.0.1:0",
            Arc::new(|_req: &Request, responder: Responder| {
                responder.send(Response::text(200, "ok"))
            }),
            ServerOptions {
                workers: 1,
                max_conns: 2,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        // Two idle connections occupy the table...
        let _a = TcpStream::connect(addr).unwrap();
        let _b = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(200)); // let the reactor accept them
                                                        // ...so the third is told 503 and closed.
        let mut c = TcpStream::connect(addr).unwrap();
        let mut out = String::new();
        c.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 503"), "{out}");
        // Dropping one frees a slot for a real request.
        drop(_a);
        std::thread::sleep(Duration::from_millis(200));
        let resp = roundtrip(addr, "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        server.shutdown();
    }
}
