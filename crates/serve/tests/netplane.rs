//! Multi-reactor network-plane tests: deficit-round-robin fairness in
//! front of the executor pool, EPOLLONESHOT re-arming under fragmented
//! adversarial I/O across sharded reactors, per-reactor stats plumbing,
//! and writev on/off byte parity. Real TCP sockets throughout; handlers
//! are synthetic (the network plane is the subject under test).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hamlet_serve::http::{NetStats, Request, Responder, Response, Server, ServerOptions};

/// Reads exactly one HTTP response off a keep-alive socket.
fn read_one_response(s: &mut TcpStream) -> String {
    hamlet_serve::http::read_response(s)
        .expect("one response")
        .text()
}

/// Handler with a deliberately slow path (`/slow`, ~25 ms) next to an
/// instant one (`/fast`) — the cheap-model-behind-expensive-model shape
/// the fair dispatcher exists for.
fn slow_fast_handler() -> hamlet_serve::http::Handler {
    Arc::new(|req: &Request, responder: Responder| {
        if req.path == "/slow" {
            std::thread::sleep(Duration::from_millis(25));
        }
        responder.send(Response::text(200, format!("{} ok", req.path)))
    })
}

#[test]
fn fair_dispatch_bounds_cheap_path_latency_behind_deep_slow_queue() {
    // ONE executor: every queued request contends for the same thread, so
    // ordering policy is the only thing between /fast and a ~600 ms wait.
    let server = Server::bind_with(
        "127.0.0.1:0",
        slow_fast_handler(),
        ServerOptions {
            workers: 1,
            reactors: 1,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Pile up a deep /slow queue: 24 connections, one in-flight POST each.
    let mut pile = Vec::new();
    for _ in 0..24 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(b"POST /slow HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        pile.push(s);
    }
    // Let the reactor parse and enqueue them behind the busy executor.
    std::thread::sleep(Duration::from_millis(100));

    // A fresh connection asks for the cheap path. FIFO would serve it
    // after the whole /slow backlog (~24 × 25 ms = 600 ms); per-key
    // round-robin serves it after at most a couple of slow jobs.
    let start = Instant::now();
    let mut fast = TcpStream::connect(addr).unwrap();
    fast.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    fast.write_all(b"GET /fast HTTP/1.1\r\nHost: h\r\n\r\n")
        .unwrap();
    let resp = read_one_response(&mut fast);
    let elapsed = start.elapsed();
    assert!(resp.contains("/fast ok"), "{resp}");
    assert!(
        elapsed < Duration::from_millis(300),
        "fair dispatch should bound /fast behind a deep /slow queue, took {elapsed:?}"
    );

    // The slow pile still completes — fairness, not starvation.
    for (i, s) in pile.iter_mut().enumerate() {
        let resp = read_one_response(s);
        assert!(resp.contains("/slow ok"), "slow conn {i}: {resp}");
    }
    server.shutdown();
}

/// Handler returning a response body far bigger than one socket buffer's
/// worth, so the reactor must take the partial-write / EPOLLOUT re-arm
/// path repeatedly.
fn big_body_handler() -> hamlet_serve::http::Handler {
    Arc::new(|req: &Request, responder: Responder| {
        let tag = format!("{}:{};", req.path, req.body.len());
        let mut body = Vec::with_capacity(256 * 1024);
        while body.len() < 256 * 1024 {
            body.extend_from_slice(tag.as_bytes());
        }
        responder.send(Response::text(200, body))
    })
}

#[test]
fn oneshot_rearm_survives_fragmented_pipelined_io_across_two_reactors() {
    let server = Server::bind_with(
        "127.0.0.1:0",
        big_body_handler(),
        ServerOptions {
            workers: 2,
            reactors: 2,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Four adversarial clients in parallel (spread across both reactors):
    // each writes TWO pipelined POSTs in 7-byte fragments with pauses —
    // every fragment is a separate EPOLLIN delivery the oneshot protocol
    // must re-arm for — then expects two full 256 KiB responses, in order,
    // whose bodies the server could only emit via many partial writes.
    std::thread::scope(|scope| {
        for c in 0..4 {
            scope.spawn(move || {
                let body = format!("client-{c}-payload");
                let one = format!(
                    "POST /frag{c} HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                let burst = format!("{one}{one}");
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                for chunk in burst.as_bytes().chunks(7) {
                    s.write_all(chunk).unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                }
                let tag = format!("/frag{c}:{};", body.len());
                for r in 0..2 {
                    let resp = hamlet_serve::http::read_response(&mut s).expect("response");
                    assert_eq!(resp.status, 200, "client {c} resp {r}");
                    assert!(resp.body.len() >= 256 * 1024, "client {c} resp {r}");
                    assert!(
                        resp.body
                            .chunks(tag.len())
                            .all(|w| tag.as_bytes().starts_with(w) || w == tag.as_bytes()),
                        "client {c} resp {r}: corrupted body"
                    );
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn per_reactor_stats_cover_every_accepted_connection() {
    let net = Arc::new(NetStats::new());
    let server = Server::bind_with(
        "127.0.0.1:0",
        slow_fast_handler(),
        ServerOptions {
            workers: 2,
            reactors: 4,
            net_stats: Some(Arc::clone(&net)),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let mut conns = Vec::new();
    for _ in 0..8 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(b"GET /fast HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();
        let resp = read_one_response(&mut s);
        assert!(resp.contains("/fast ok"), "{resp}");
        conns.push(s);
    }

    // Each connection was adopted by exactly one reactor before its
    // response could have been produced.
    let snaps = net.reactor_snapshots();
    assert_eq!(snaps.len(), 4, "one stats row per reactor");
    let accepted: u64 = snaps.iter().map(|s| s.accepted_total).sum();
    assert_eq!(accepted, 8, "{snaps:?}");
    let open: usize = snaps.iter().map(|s| s.connections).sum();
    assert_eq!(open, 8, "{snaps:?}");
    for (i, s) in snaps.iter().enumerate() {
        assert_eq!(s.index, i);
    }
    server.shutdown();
}

/// One request against a server, reading the raw response bytes to EOF.
fn raw_close_response(addr: std::net::SocketAddr) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(
        b"POST /parity HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
    )
    .unwrap();
    let mut bytes = Vec::new();
    s.read_to_end(&mut bytes).unwrap();
    bytes
}

#[test]
fn large_close_response_is_written_byte_for_byte() {
    // The >256 KiB body is more than a socket send buffer takes at once,
    // so the writev queue resumes from partial writes, mid-segment.
    let server = Server::bind_with(
        "127.0.0.1:0",
        big_body_handler(),
        ServerOptions {
            workers: 1,
            reactors: 1,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let got = raw_close_response(server.addr());
    server.shutdown();
    let mut body = Vec::new();
    while body.len() < 256 * 1024 {
        body.extend_from_slice(b"/parity:5;");
    }
    let mut want = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    want.extend_from_slice(&body);
    assert_eq!(got.len(), want.len());
    assert!(
        got == want,
        "response bytes differ from the expected head + body"
    );
}
