//! Network-plane benchmarks: reactor sharding.
//!
//! Measures one saturation round of small keep-alive requests (the
//! many-small-requests serving shape) against servers configured with
//! 1 / 2 / 4 reactors. The handler is synthetic — no models — so the
//! numbers isolate accept sharding, epoll dispatch and the `writev` path
//! rather than inference cost.
//!
//! Medians land in `BENCH_serve.json` (see the vendored criterion shim),
//! so the trajectory is tracked across commits.
//!
//! Run with `cargo bench -p hamlet-bench --bench serve_netplane`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use hamlet_serve::http::{Request, Responder, Response, Server, ServerOptions};

/// Client threads per round.
const CLIENTS: usize = 8;
/// Pipelined requests per client connection per round.
const PER_CLIENT: usize = 32;

/// Echo-ish handler with a ~1 KiB body: header + body ride as two
/// segments of one `writev`, small enough that syscall count (not byte
/// throughput) dominates.
fn handler() -> hamlet_serve::http::Handler {
    Arc::new(|req: &Request, responder: Responder| {
        let tag = format!("{}:{};", req.path, req.body.len());
        let mut body = Vec::with_capacity(1024);
        while body.len() < 1024 {
            body.extend_from_slice(tag.as_bytes());
        }
        responder.send(Response::text(200, body))
    })
}

/// One saturation round: every client opens a fresh keep-alive socket,
/// writes its whole pipeline in one burst, then reads every response.
/// Fresh connections each round keep the accept path (the sharded part)
/// in the measured loop.
fn round(addr: std::net::SocketAddr) {
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.set_nodelay(true).unwrap();
                let mut burst = String::new();
                for n in 0..PER_CLIENT {
                    burst.push_str(&format!(
                        "POST /c{c} HTTP/1.1\r\nHost: b\r\nContent-Length: 4\r\n\r\nn={n:02}"
                    ));
                }
                s.write_all(burst.as_bytes()).expect("send");
                for _ in 0..PER_CLIENT {
                    let resp = hamlet_serve::http::read_response(&mut s).expect("response");
                    assert_eq!(resp.status, 200);
                }
            });
        }
    });
}

fn netplane(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_netplane");
    group.sample_size(10);
    let total = CLIENTS * PER_CLIENT;
    for reactors in [1usize, 2, 4] {
        let server = Server::bind_with(
            "127.0.0.1:0",
            handler(),
            ServerOptions {
                workers: 2,
                reactors,
                max_conns: 2048,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        group.bench_function(format!("reactors{reactors}_{total}req"), |b| {
            b.iter(|| round(addr))
        });
        server.shutdown();
    }
    group.finish();
}

criterion_group!(benches, netplane);
criterion_main!(benches);
