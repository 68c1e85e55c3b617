//! Adversarial I/O against the event-driven server: the traffic shapes the
//! reactor refactor exists for. Pipelined bursts in one packet, slow-loris
//! tricklers, peers that vanish mid-response, and more idle keep-alive
//! connections than executor threads — each exercised over real TCP
//! sockets against a plain echo handler (no models; the HTTP layer is the
//! subject under test).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hamlet_serve::http::{Request, Responder, Response, Server, ServerOptions};

fn echo_handler() -> hamlet_serve::http::Handler {
    Arc::new(|req: &Request, responder: Responder| {
        responder.send(Response::text(
            200,
            format!("{} {} {}", req.method, req.path, req.body.len()),
        ))
    })
}

/// Reads exactly one HTTP response off a keep-alive socket.
fn read_one_response(s: &mut TcpStream) -> String {
    hamlet_serve::http::read_response(s)
        .expect("one response")
        .text()
}

#[test]
fn pipelined_burst_in_one_packet_answers_in_order() {
    let server = Server::bind("127.0.0.1:0", 2, echo_handler()).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    // Eight back-to-back requests in a single write — one TCP packet's
    // worth of pipelining, including a POST with a body in the middle.
    let mut burst = String::new();
    for i in 0..8 {
        if i == 4 {
            burst.push_str("POST /mid HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz");
        } else {
            burst.push_str(&format!("GET /p{i} HTTP/1.1\r\nHost: h\r\n\r\n"));
        }
    }
    s.write_all(burst.as_bytes()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for i in 0..8 {
        let resp = read_one_response(&mut s);
        assert!(resp.starts_with("HTTP/1.1 200"), "response {i}: {resp}");
        if i == 4 {
            assert!(resp.contains("POST /mid 3"), "response {i}: {resp}");
        } else {
            assert!(
                resp.contains(&format!("GET /p{i} 0")),
                "response {i}: {resp}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn slow_loris_trickler_is_reaped_and_does_not_block_others() {
    // ONE executor and a tight request deadline: under the old
    // thread-per-connection design the trickler would pin the only worker
    // and starve everyone; under the reactor it costs a buffer.
    let server = Server::bind_with(
        "127.0.0.1:0",
        echo_handler(),
        ServerOptions {
            workers: 1,
            request_timeout: Duration::from_millis(900),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // The trickler: request line fed one byte at a time, forever (well,
    // longer than the request deadline).
    let loris = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        let line = b"GET /never-finishes HTTP/1.1\r\n";
        let mut disconnected_at = None;
        let start = Instant::now();
        'outer: for _round in 0..100 {
            for &b in line.iter() {
                if s.write_all(&[b]).is_err() {
                    disconnected_at = Some(start.elapsed());
                    break 'outer;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        // Writes can keep succeeding into the kernel buffer briefly after
        // the server closes; a read observing EOF/RST is the ground truth.
        if disconnected_at.is_none() {
            let mut buf = [0u8; 64];
            let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
            match s.read(&mut buf) {
                Ok(0) | Err(_) => disconnected_at = Some(start.elapsed()),
                Ok(_) => {}
            }
        }
        disconnected_at
    });

    // Meanwhile full requests sail through on the single executor.
    std::thread::sleep(Duration::from_millis(100)); // let the trickle start
    for i in 0..3 {
        let start = Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(
            format!("GET /fast{i} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
        let mut out = String::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.read_to_string(&mut out).unwrap();
        assert!(out.contains(&format!("GET /fast{i} 0")), "{out}");
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "fast request {i} took {:?} behind a slow-loris",
            start.elapsed()
        );
    }

    // And the trickler is eventually reaped by the deadline wheel.
    let disconnected = loris.join().unwrap();
    assert!(
        disconnected.is_some(),
        "slow-loris connection was never closed by the server"
    );
    server.shutdown();
}

#[test]
fn peer_disconnect_mid_request_and_mid_response_is_harmless() {
    let server = Server::bind(
        "127.0.0.1:0",
        1,
        Arc::new(|req: &Request, responder: Responder| {
            if req.path == "/slow" {
                // Give the client time to vanish while dispatched.
                std::thread::sleep(Duration::from_millis(300));
            }
            // A response big enough to overflow socket buffers if the
            // peer never reads.
            responder.send(Response::text(200, vec![b'x'; 256 * 1024]))
        }),
    )
    .unwrap();
    let addr = server.addr();

    // Vanish while the handler is still running (mid-dispatch).
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /slow HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();
        drop(s); // full close before the response exists
    }
    // Vanish mid-request (half a head, then gone).
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /half HTT").unwrap();
        drop(s);
    }
    // The server keeps answering afterwards — no crashed reactor, no
    // wedged executor.
    std::thread::sleep(Duration::from_millis(500));
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /alive HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    server.shutdown();
}

#[test]
fn idle_keepalive_connections_exceed_workers_without_blocking() {
    // 2 executors, 32 keep-alive connections parked idle after one request
    // each. Under thread-per-connection the 3rd connection would wait for
    // a worker; under the reactor all 32 park for free and a fresh client
    // is served immediately.
    let server = Server::bind_with(
        "127.0.0.1:0",
        echo_handler(),
        ServerOptions {
            workers: 2,
            idle_timeout: Duration::from_secs(120),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let mut parked = Vec::new();
    for i in 0..32 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(format!("GET /park{i} HTTP/1.1\r\nHost: h\r\n\r\n").as_bytes())
            .unwrap();
        let resp = read_one_response(&mut s);
        assert!(resp.contains("Connection: keep-alive"), "{resp}");
        parked.push(s); // stays open, stays idle
    }

    // A fresh client is served promptly despite 32 open connections on 2
    // executors.
    let start = Instant::now();
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /fresh HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.read_to_string(&mut out).unwrap();
    assert!(out.contains("GET /fresh 0"), "{out}");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "fresh request took {:?} behind 32 idle connections",
        start.elapsed()
    );

    // The parked connections are all still live and answer a second
    // request each — idleness cost them nothing.
    for (i, s) in parked.iter_mut().enumerate() {
        s.write_all(format!("GET /again{i} HTTP/1.1\r\nHost: h\r\n\r\n").as_bytes())
            .unwrap();
        let resp = read_one_response(s);
        assert!(resp.contains(&format!("GET /again{i} 0")), "{resp}");
    }
    server.shutdown();
}

#[test]
fn idle_keepalive_connection_is_reaped_after_idle_timeout() {
    let server = Server::bind_with(
        "127.0.0.1:0",
        echo_handler(),
        ServerOptions {
            workers: 1,
            idle_timeout: Duration::from_millis(800),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let resp = read_one_response(&mut s);
    assert!(resp.contains("Connection: keep-alive"), "{resp}");
    // Sit idle past the deadline: the server closes the connection.
    let mut buf = [0u8; 32];
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let start = Instant::now();
    match s.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected reap, got {n} unexpected bytes"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "idle connection outlived its deadline by too much: {:?}",
        start.elapsed()
    );
    server.shutdown();
}

#[test]
fn multi_megabyte_body_between_caps_is_served() {
    // A 3 MiB body: larger than the 2 MiB head-stage buffer cap, smaller
    // than the 16 MiB body limit. Regression test for a read-pause wedge:
    // the head-stage cap pauses reads mid-ingest, and parsing the
    // Content-Length must lift the pause once it reveals the larger body
    // cap — otherwise the connection starves until the deadline reaper
    // kills it and the client sees a reset instead of a response.
    let server = Server::bind("127.0.0.1:0", 1, echo_handler()).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let body = vec![b'z'; 3 * 1024 * 1024];
    s.write_all(
        format!(
            "POST /big HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    s.write_all(&body).unwrap();
    let mut out = String::new();
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    assert!(out.contains(&format!("POST /big {}", body.len())), "{out}");
    server.shutdown();
}

#[test]
fn request_spanning_many_tiny_writes_still_parses() {
    // Not hostile, just unfortunate framing: a legitimate client whose
    // request is fragmented into many small writes (tiny MTU, Nagle off).
    let server = Server::bind("127.0.0.1:0", 1, echo_handler()).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let raw = b"POST /frag HTTP/1.1\r\nHost: h\r\nContent-Length: 12\r\n\
        Connection: close\r\n\r\nhello worlds";
    for chunk in raw.chunks(7) {
        s.write_all(chunk).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut out = String::new();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.read_to_string(&mut out).unwrap();
    assert!(out.contains("POST /frag 12"), "{out}");
    server.shutdown();
}

/// The `TcpExt ListenOverflows` counter from `/proc/net/netstat`, where
/// that file is readable.
fn listen_overflows() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/netstat").ok()?;
    let mut lines = text.lines();
    while let (Some(names), Some(values)) = (lines.next(), lines.next()) {
        if !names.starts_with("TcpExt:") {
            continue;
        }
        let i = names
            .split_whitespace()
            .position(|n| n == "ListenOverflows")?;
        return values.split_whitespace().nth(i)?.parse().ok();
    }
    None
}

#[test]
fn connect_burst_on_one_reactor_never_overflows_the_backlog() {
    // 256 connects land at once on a single reactor: the listen backlog
    // must hold them all while the reactor drains its accept queue, or the
    // kernel drops handshakes and clients stall on SYN retransmits.
    let server = Server::bind_with(
        "127.0.0.1:0",
        echo_handler(),
        ServerOptions {
            workers: 2,
            reactors: 1,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let before = listen_overflows();
    for round in 0..3 {
        let start = std::sync::Barrier::new(16);
        std::thread::scope(|scope| {
            for t in 0..16 {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let mut streams: Vec<TcpStream> = (0..16)
                        .map(|i| {
                            let mut s = TcpStream::connect(addr).unwrap();
                            s.write_all(
                                format!(
                                    "GET /r{round}/t{t}/c{i} HTTP/1.1\r\nHost: h\r\n\
                                     Connection: close\r\n\r\n"
                                )
                                .as_bytes(),
                            )
                            .unwrap();
                            s
                        })
                        .collect();
                    for s in &mut streams {
                        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                        let mut out = String::new();
                        s.read_to_string(&mut out).unwrap();
                        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
                    }
                });
            }
        });
    }
    if let (Some(before), Some(after)) = (before, listen_overflows()) {
        assert_eq!(after - before, 0, "listen queue overflowed");
    }
    server.shutdown();
}

#[test]
fn every_reactor_count_binds_ipv6() {
    if std::net::TcpListener::bind("[::1]:0").is_err() {
        eprintln!("skipping: [::1] cannot bind here");
        return;
    }
    for reactors in [1, 2] {
        let server = Server::bind_with(
            "[::1]:0",
            echo_handler(),
            ServerOptions {
                workers: 1,
                reactors,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        assert!(server.addr().is_ipv6(), "{}", server.addr());
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET /v6 HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.read_to_string(&mut out).unwrap();
        assert!(out.contains("GET /v6 0"), "{reactors} reactor(s): {out}");
        server.shutdown();
    }
}

#[test]
fn one_reactor_server_cannot_bind_a_taken_port() {
    let one = |addr: &str| {
        Server::bind_with(
            addr,
            echo_handler(),
            ServerOptions {
                workers: 1,
                reactors: 1,
                ..ServerOptions::default()
            },
        )
    };
    let first = one("127.0.0.1:0").unwrap();
    let err = one(&first.addr().to_string())
        .err()
        .expect("a second server on a held port must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    first.shutdown();
}
