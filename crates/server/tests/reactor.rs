//! Reactor-specific end-to-end tests: connection multiplexing beyond
//! the thread count, pipelining, chunked streaming, graceful shutdown,
//! idle eviction, line caps, and wire-format stability.

use rd_engine::{demo_database, Language};
use rd_server::{
    run_bench, BenchConfig, Client, Request, RequestId, Response, Server, ServerConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn start_server(
    config: ServerConfig,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, demo_database()).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn stop(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("clean shutdown handshake");
    handle
        .join()
        .expect("server thread must not panic")
        .expect("serve() must return Ok");
}

/// A raw line-oriented socket, for tests that must control the exact
/// bytes on the wire.
struct Raw {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Raw {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
        self.stream.flush().expect("flush");
    }

    /// Reads one response line (without the newline).
    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read line");
        assert!(n > 0, "unexpected EOF");
        line.trim_end_matches('\n').to_string()
    }

    /// `true` once the server has closed the connection.
    fn at_eof(&mut self) -> bool {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read at eof") == 0
    }
}

// ---------------------------------------------------------------------
// The headline property: connections are no longer capped by workers.
// ---------------------------------------------------------------------

/// 64 clients connect *simultaneously* (a barrier guarantees overlap)
/// against a 4-worker server, and every one of them completes queries.
/// With one pinned thread per connection, only 4 could even finish the
/// handshake; the other 60 would starve in the accept backlog.
#[test]
fn sixty_four_concurrent_clients_on_four_workers() {
    const CLIENTS: usize = 64;
    let (addr, handle) = start_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = barrier.clone();
            std::thread::spawn(move || -> u64 {
                let mut client = Client::connect(addr).expect("connect");
                client.ping().expect("ping while 63 peers hold connections");
                // Only proceed once all 64 connections are open at once.
                barrier.wait();
                let queries = [
                    (Some(Language::Ra), "pi[color](Boat)"),
                    (
                        Some(Language::Datalog),
                        "Q(n) :- Sailor(s, n), Reserves(s, b).",
                    ),
                    (None, "pi[sname](Sailor)"),
                ];
                let mut rows = 0;
                for k in 0..queries.len() {
                    // Stagger per client so the shared caches see
                    // interleaved traffic.
                    let (lang, text) = queries[(i + k) % queries.len()];
                    match client.query(lang, text).expect("query") {
                        Response::Query(q) => rows += q.rows.len() as u64,
                        other => panic!("client {i}: unexpected {other:?}"),
                    }
                }
                rows
            })
        })
        .collect();
    for t in threads {
        assert!(t.join().expect("client thread") > 0);
    }
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.connections, CLIENTS as u64 + 1);
    assert_eq!(stats.sessions.queries, (CLIENTS * 3) as u64);
    stop(addr, handle);
}

// ---------------------------------------------------------------------
// Pipelining
// ---------------------------------------------------------------------

#[test]
fn pipelined_requests_in_one_write_are_answered_in_order_with_ids() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut raw = Raw::connect(addr);
    // Three tagged requests land in a single TCP segment.
    raw.send(
        b"{\"op\":\"ping\",\"id\":1}\n\
          {\"op\":\"query\",\"text\":\"pi[color](Boat)\",\"id\":\"two\"}\n\
          {\"op\":\"ping\",\"id\":3}\n",
    );
    let first = raw.recv_line();
    assert_eq!(first, r#"{"ok":true,"kind":"pong","id":1}"#);
    let second = raw.recv_line();
    assert!(second.contains(r#""kind":"query""#), "{second}");
    assert!(second.ends_with(r#","id":"two"}"#), "{second}");
    let third = raw.recv_line();
    assert_eq!(third, r#"{"ok":true,"kind":"pong","id":3}"#);
    stop(addr, handle);
}

#[test]
fn client_pipeline_api_tracks_many_in_flight_requests() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    const DEPTH: usize = 32;
    for i in 0..DEPTH {
        let id = RequestId::Int(i as i64);
        client
            .send(
                &Request::Query {
                    language: Some(Language::Ra),
                    text: "pi[color](Boat)".into(),
                    translations: false,
                    diagram: rd_engine::DiagramFormat::None,
                },
                Some(&id),
            )
            .unwrap();
    }
    let mut seen = [false; DEPTH];
    for _ in 0..DEPTH {
        let (id, resp) = client.recv().unwrap();
        let Some(RequestId::Int(i)) = id else {
            panic!("response lost its id: {id:?}")
        };
        assert!(!seen[i as usize], "duplicate response for id {i}");
        seen[i as usize] = true;
        assert!(matches!(resp, Response::Query(_)), "{resp:?}");
    }
    assert!(seen.iter().all(|&s| s));
    stop(addr, handle);
}

#[test]
fn malformed_ids_get_an_error_and_the_connection_survives() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut raw = Raw::connect(addr);
    for bad in [
        "{\"op\":\"ping\",\"id\":{\"x\":1}}\n".as_bytes(),
        "{\"op\":\"ping\",\"id\":[1,2]}\n".as_bytes(),
        "{\"op\":\"ping\",\"id\":true}\n".as_bytes(),
    ] {
        raw.send(bad);
        let line = raw.recv_line();
        assert!(line.contains("\"ok\":false"), "{line}");
        assert!(line.contains("'id'"), "{line}");
    }
    // A good id on an unknown op still echoes the id in the error.
    raw.send(b"{\"op\":\"nope\",\"id\":9}\n");
    let line = raw.recv_line();
    assert!(line.contains("\"ok\":false"), "{line}");
    assert!(line.ends_with(",\"id\":9}"), "{line}");
    // The connection is still usable after all of that.
    raw.send(b"{\"op\":\"ping\"}\n");
    assert_eq!(raw.recv_line(), r#"{"ok":true,"kind":"pong"}"#);
    stop(addr, handle);
}

// ---------------------------------------------------------------------
// Framing edge cases
// ---------------------------------------------------------------------

#[test]
fn partial_lines_split_across_writes_are_reassembled() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut raw = Raw::connect(addr);
    raw.send(b"{\"op\":\"pi");
    std::thread::sleep(Duration::from_millis(50));
    raw.send(b"ng\"}\n{\"op\":\"pi");
    assert_eq!(raw.recv_line(), r#"{"ok":true,"kind":"pong"}"#);
    std::thread::sleep(Duration::from_millis(50));
    raw.send(b"ng\",\"id\":5}\n");
    assert_eq!(raw.recv_line(), r#"{"ok":true,"kind":"pong","id":5}"#);
    stop(addr, handle);
}

/// `printf '{"op":"ping"}' | nc` style clients: the last request has no
/// trailing newline — EOF is its delimiter, as under the blocking
/// server.
#[test]
fn newlineless_final_request_is_answered_at_eof() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"{\"op\":\"ping\",\"id\":1}\n{\"op\":\"ping\"}")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), r#"{"ok":true,"kind":"pong","id":1}"#);
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        line.trim_end(),
        r#"{"ok":true,"kind":"pong"}"#,
        "the newline-less final request must still be served"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then EOF");
    stop(addr, handle);
}

#[test]
fn oversized_lines_are_rejected_with_an_error_then_closed() {
    let (addr, handle) = start_server(ServerConfig {
        max_line_bytes: 1024,
        ..ServerConfig::default()
    });
    let mut raw = Raw::connect(addr);
    // 4 KiB of garbage with no newline: the cap trips mid-line.
    raw.send(&vec![b'x'; 4096]);
    let line = raw.recv_line();
    assert!(line.contains("\"ok\":false"), "{line}");
    assert!(line.contains("exceeds 1024 bytes"), "{line}");
    assert!(raw.at_eof(), "connection must close after an oversize line");
    // The server itself is unaffected.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    stop(addr, handle);
}

// ---------------------------------------------------------------------
// Chunked streaming
// ---------------------------------------------------------------------

fn numbers_fixture(n: usize) -> String {
    let mut fx = String::from("Num(v):\n");
    for i in 0..n {
        fx.push_str(&format!(" ({i})\n"));
    }
    fx
}

#[test]
fn large_results_stream_as_chunk_frames_on_the_wire() {
    let (addr, handle) = start_server(ServerConfig {
        stream_threshold: 3,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.load_fixture(&numbers_fixture(10)).unwrap();
    let mut raw = Raw::connect(addr);
    raw.send(b"{\"op\":\"query\",\"text\":\"pi[v](Num)\",\"id\":\"s\"}\n");
    let mut chunks = 0u64;
    let mut rows = 0;
    loop {
        let line = raw.recv_line();
        let (id, frame) = rd_server::protocol::decode_frame(&line).expect("valid frame");
        assert_eq!(id, Some(RequestId::Str("s".into())));
        match frame {
            Response::RowsChunk(chunk) => {
                assert_eq!(chunk.seq, chunks, "contiguous chunk sequence");
                if chunks == 0 {
                    let head = chunk.head.expect("first chunk carries the header");
                    assert_eq!(head.attrs, vec!["v".to_string()]);
                } else {
                    assert!(chunk.head.is_none(), "header only on the first chunk");
                }
                assert!(chunk.rows.len() <= 3, "chunks bounded by the threshold");
                chunks += 1;
                rows += chunk.rows.len();
            }
            Response::RowsEnd(end) => {
                assert_eq!(end.seq, chunks);
                assert_eq!(end.row_count, 10);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(chunks, 4, "10 rows in chunks of 3 = 4 chunks");
    assert_eq!(rows, 10);
    // A small result on the same server stays a plain query response.
    let small = raw_query_line(&mut raw, "sigma[v=1](Num)");
    assert!(small.contains("\"kind\":\"query\""), "{small}");
    stop(addr, handle);
}

fn raw_query_line(raw: &mut Raw, text: &str) -> String {
    raw.send(format!("{{\"op\":\"query\",\"text\":\"{text}\"}}\n").as_bytes());
    raw.recv_line()
}

#[test]
fn client_reassembles_streamed_results_transparently() {
    let (addr, handle) = start_server(ServerConfig {
        stream_threshold: 4,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.load_fixture(&numbers_fixture(25)).unwrap();
    match client.query(None, "pi[v](Num)").unwrap() {
        Response::Query(q) => {
            assert_eq!(q.rows.len(), 25);
            assert_eq!(q.attrs, vec!["v".to_string()]);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Streamed and lock-step traffic share the stats channel.
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions.rows_streamed, 25);
    assert!(stats.sessions.rows_returned >= 25);
    stop(addr, handle);
}

#[test]
fn pipelined_streams_reassemble_alongside_small_responses() {
    let (addr, handle) = start_server(ServerConfig {
        stream_threshold: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.load_fixture(&numbers_fixture(9)).unwrap();
    // Two streamed queries and a ping, all in flight at once.
    for (i, text) in ["pi[v](Num)", "sigma[v=1](Num)", "pi[v](Num)"]
        .iter()
        .enumerate()
    {
        client
            .send(
                &Request::Query {
                    language: Some(Language::Ra),
                    text: text.to_string(),
                    translations: false,
                    diagram: rd_engine::DiagramFormat::None,
                },
                Some(&RequestId::Int(i as i64)),
            )
            .unwrap();
    }
    client
        .send(&Request::Ping, Some(&RequestId::Int(99)))
        .unwrap();
    let mut rows_by_id = std::collections::HashMap::new();
    let mut pongs = 0;
    for _ in 0..4 {
        let (id, resp) = client.recv().unwrap();
        match resp {
            Response::Query(q) => {
                rows_by_id.insert(id, q.rows.len());
            }
            Response::Pong => {
                assert_eq!(id, Some(RequestId::Int(99)));
                pongs += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(pongs, 1);
    assert_eq!(rows_by_id[&Some(RequestId::Int(0))], 9);
    assert_eq!(rows_by_id[&Some(RequestId::Int(1))], 1);
    assert_eq!(rows_by_id[&Some(RequestId::Int(2))], 9);
    stop(addr, handle);
}

// ---------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------

#[test]
fn shutdown_drains_requests_already_in_the_pipeline() {
    let (addr, handle) = start_server(ServerConfig::default());
    let idle = Raw::connect(addr); // a bystander connection
    let mut raw = Raw::connect(addr);
    // The query is in flight (parsed and queued) when shutdown lands:
    // both arrive in one write, so the server reads them together.
    raw.send(b"{\"op\":\"query\",\"text\":\"pi[color](Boat)\",\"id\":1}\n{\"op\":\"shutdown\",\"id\":2}\n");
    let first = raw.recv_line();
    assert!(
        first.contains("\"kind\":\"query\"") && first.ends_with(",\"id\":1}"),
        "in-flight query must complete before shutdown: {first}"
    );
    let second = raw.recv_line();
    assert!(
        second.contains("\"kind\":\"bye\"") && second.ends_with(",\"id\":2}"),
        "{second}"
    );
    assert!(raw.at_eof(), "drained connection closes");
    // The idle bystander is closed too (nothing of its was in flight).
    let mut idle = idle;
    assert!(idle.at_eof(), "idle connections close at shutdown");
    // And the accept loop is gone: the server thread exits cleanly.
    handle
        .join()
        .expect("server thread must not panic")
        .expect("serve() must return Ok");
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A connect may still succeed against the dead listener's
            // backlog on some kernels; writing must then fail.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            s.write_all(b"{\"op\":\"ping\"}\n").ok();
            let mut buf = [0u8; 1];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        },
        "no new connections after shutdown"
    );
}

#[test]
fn shutdown_force_closes_stragglers_at_the_drain_deadline() {
    let (addr, handle) = start_server(ServerConfig {
        drain_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    // A client that never reads its responses and never closes: without
    // the deadline, serve() would wait on it forever.
    let straggler = TcpStream::connect(addr).unwrap();
    let mut shutter = Client::connect(addr).unwrap();
    shutter.shutdown().unwrap();
    handle
        .join()
        .expect("server thread must not panic")
        .expect("serve() must return Ok despite the straggler");
    drop(straggler);
}

// ---------------------------------------------------------------------
// Idle eviction
// ---------------------------------------------------------------------

#[test]
fn idle_connections_are_evicted_and_counted() {
    let (addr, handle) = start_server(ServerConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    let mut idler = Raw::connect(addr);
    idler.send(b"{\"op\":\"ping\"}\n");
    idler.recv_line();
    // Go quiet past the timeout; the server closes the connection.
    assert!(idler.at_eof(), "idle connection must be evicted");
    // A fresh, active connection sees the eviction in stats and is not
    // itself evicted while it keeps talking.
    let mut client = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        if stats.evicted >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "eviction never surfaced in stats: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    stop(addr, handle);
}

// ---------------------------------------------------------------------
// Wire-format stability for plain clients
// ---------------------------------------------------------------------

/// Clients that send no `"id"` and stay under the stream threshold get
/// the exact PR-2/PR-3 bytes. The expected lines are captured verbatim
/// from the pre-reactor server.
#[test]
fn plain_clients_get_byte_identical_responses() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut raw = Raw::connect(addr);
    let exchanges: [(&[u8], &str); 9] = [
        (b"{\"op\":\"ping\"}\n", r#"{"ok":true,"kind":"pong"}"#),
        (
            b"{\"op\":\"query\",\"text\":\"pi[color](Boat)\"}\n",
            r#"{"ok":true,"kind":"query","language":"ra","canonical":"pi[color](Boat)","attrs":["color"],"rows":[["green"],["red"]],"row_count":2,"cache_hit":false,"eval_cache_hit":false,"notes":[]}"#,
        ),
        (
            b"{\"op\":\"query\",\"lang\":\"sql\",\"text\":\"SELECT DISTINCT Sailor.sname FROM Sailor, Reserves WHERE Sailor.sid = Reserves.sid\"}\n",
            "{\"ok\":true,\"kind\":\"query\",\"language\":\"sql\",\"canonical\":\"SELECT DISTINCT Sailor.sname\\nFROM Sailor, Reserves\\nWHERE Sailor.sid = Reserves.sid\",\"attrs\":[\"sname\"],\"rows\":[[\"Dustin\"],[\"Lubber\"]],\"row_count\":2,\"cache_hit\":false,\"eval_cache_hit\":false,\"notes\":[]}",
        ),
        // All four languages flow through one executor since the
        // unified-plan refactor; these TRC and Datalog lines were
        // captured verbatim from the per-language evaluators.
        (
            b"{\"op\":\"query\",\"lang\":\"trc\",\"text\":\"{ q(sname) | exists s in Sailor [ q.sname = s.sname ] }\"}\n",
            r#"{"ok":true,"kind":"query","language":"trc","canonical":"{ q(sname) | exists s in Sailor [q.sname = s.sname] }","attrs":["sname"],"rows":[["Dustin"],["Lubber"]],"row_count":2,"cache_hit":false,"eval_cache_hit":false,"notes":[]}"#,
        ),
        (
            b"{\"op\":\"query\",\"lang\":\"trc\",\"text\":\"exists b in Boat [ b.color = 'red' ]\"}\n",
            r#"{"ok":true,"kind":"query","language":"trc","canonical":"exists b in Boat [b.color = 'red']","attrs":[],"rows":[[]],"row_count":1,"cache_hit":false,"eval_cache_hit":false,"notes":[]}"#,
        ),
        (
            b"{\"op\":\"query\",\"lang\":\"datalog\",\"text\":\"Q(c) :- Boat(b, c).\"}\n",
            r#"{"ok":true,"kind":"query","language":"datalog","canonical":"Q(c) :- Boat(b, c).","attrs":["x1"],"rows":[["green"],["red"]],"row_count":2,"cache_hit":false,"eval_cache_hit":false,"notes":[]}"#,
        ),
        (
            b"{\"op\":\"query\",\"lang\":\"datalog\",\"text\":\"Q(n) :- Sailor(s, n), Reserves(s, b), not Boat(b, 'red').\"}\n",
            r#"{"ok":true,"kind":"query","language":"datalog","canonical":"Q(n) :- Sailor(s, n), Reserves(s, b), not Boat(b, 'red').","attrs":["x1"],"rows":[["Dustin"]],"row_count":1,"cache_hit":false,"eval_cache_hit":false,"notes":[]}"#,
        ),
        (
            b"{\"op\":\"query\",\"text\":\"pi[x](NoSuchTable)\"}\n",
            r#"{"ok":false,"error":"expected attribute, found KwX"}"#,
        ),
        (
            b"not json\n",
            r#"{"ok":false,"error":"malformed message: unexpected 'n' at byte 0"}"#,
        ),
    ];
    for (request, expected) in exchanges {
        raw.send(request);
        assert_eq!(raw.recv_line(), expected);
    }
    stop(addr, handle);
}

// ---------------------------------------------------------------------
// Bench driver modes
// ---------------------------------------------------------------------

#[test]
fn bench_pipeline_and_idle_flood_complete_against_a_narrow_pool() {
    let (addr, handle) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut cfg = BenchConfig::new(addr.to_string());
    cfg.threads = 4;
    cfg.requests = 25;
    cfg.pipeline = 8;
    cfg.idle_conns = 16;
    let report = run_bench(&cfg).expect("pipelined bench with idle flood");
    assert_eq!(report.completed, 100);
    assert_eq!(report.errors, 0);
    assert_eq!(report.latencies.len(), 100);
    stop(addr, handle);
}

// ---------------------------------------------------------------------
// Cache hits, misses and pings on one connection
// ---------------------------------------------------------------------

/// Pipelined hits, a miss, and a ping in one write: the thread that
/// reads them answers them in order, and every reply comes back in
/// request order with its id.
#[test]
fn pipelined_hits_misses_and_pings_keep_request_order() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut raw = Raw::connect(addr);
    let warm = raw_query_line(&mut raw, "pi[color](Boat)");
    assert!(warm.contains("\"eval_cache_hit\":false"), "{warm}");
    raw.send(
        b"{\"op\":\"query\",\"text\":\"pi[color](Boat)\",\"id\":1}\n\
          {\"op\":\"query\",\"text\":\"pi[sname](Sailor)\",\"id\":2}\n\
          {\"op\":\"query\",\"text\":\"pi[color](Boat)\",\"id\":3}\n\
          {\"op\":\"ping\",\"id\":4}\n\
          {\"op\":\"query\",\"text\":\"pi[color](Boat)\",\"id\":5}\n",
    );
    let replies: Vec<String> = (0..5).map(|_| raw.recv_line()).collect();
    for (i, reply) in replies.iter().enumerate() {
        assert!(
            reply.ends_with(&format!(",\"id\":{}}}", i + 1)),
            "reply {i} out of order: {reply}"
        );
    }
    assert!(
        replies[0].contains("\"eval_cache_hit\":true"),
        "{}",
        replies[0]
    );
    assert!(replies[1].contains("\"cache_hit\":false"), "{}", replies[1]);
    assert!(replies[1].contains("[\"Dustin\"]"), "{}", replies[1]);
    assert_eq!(replies[3], r#"{"ok":true,"kind":"pong","id":4}"#);
    for i in [2, 4] {
        assert!(
            replies[i].contains("\"eval_cache_hit\":true"),
            "{}",
            replies[i]
        );
    }
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let inline: u64 = stats.shards.iter().map(|s| s.inline).sum();
    assert!(inline >= 1, "the leading hit is answered inline: {stats:?}");
    stop(addr, handle);
}

/// A hit that arrives while the same connection's cold query is still
/// evaluating waits for it: one thread owns a connection at a time and
/// answers its lines in order, so the hit cannot overtake the reply
/// before it.
#[test]
fn a_hit_behind_a_cold_query_in_the_pool_is_answered_after_it() {
    let (addr, handle) = start_server(ServerConfig {
        stream_threshold: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.load_fixture(&numbers_fixture(1000)).unwrap();
    let mut raw = Raw::connect(addr);
    let warm = raw_query_line(&mut raw, "sigma[v=1](Num)");
    assert!(warm.contains("\"rows\":[[1]]"), "{warm}");
    // An unindexable comparison over a self cross product: a million
    // pairs, far slower than the pause before the hit is sent.
    raw.send(b"{\"op\":\"query\",\"lang\":\"datalog\",\"text\":\"Q(x) :- Num(x), Num(y), x < y.\",\"id\":\"cold\"}\n");
    std::thread::sleep(Duration::from_millis(5));
    raw.send(b"{\"op\":\"query\",\"text\":\"sigma[v=1](Num)\",\"id\":\"hit\"}\n");
    let cold = raw.recv_line();
    assert!(cold.ends_with(",\"id\":\"cold\"}"), "{cold}");
    assert!(
        cold.contains("\"row_count\":999"),
        "{}",
        &cold[cold.len() - 80..]
    );
    let hit = raw.recv_line();
    assert!(hit.ends_with(",\"id\":\"hit\"}"), "{hit}");
    assert!(hit.contains("\"eval_cache_hit\":true"), "{hit}");
    // It waited in the connection's queue and was answered from the
    // caches once the cold reply was out.
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards.iter().map(|s| s.inline).sum::<u64>(), 1);
    stop(addr, handle);
}

/// A slow query ties up only the thread running it: with one shard of
/// two threads, a second connection's ping and cache hit are answered
/// while the first connection's million-pair query is still evaluating.
#[test]
fn a_slow_query_does_not_stall_its_shard() {
    let (addr, handle) = start_server(ServerConfig {
        shards: 1,
        workers: 2,
        stream_threshold: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.load_fixture(&numbers_fixture(1000)).unwrap();
    let mut b = Raw::connect(addr);
    let warm = raw_query_line(&mut b, "sigma[v=1](Num)");
    assert!(warm.contains("\"eval_cache_hit\":false"), "{warm}");
    let mut a = Raw::connect(addr);
    // Read A's reply on its own thread, so its arrival is timed even
    // while this thread waits on B.
    a.send(
        b"{\"op\":\"query\",\"lang\":\"datalog\",\"text\":\"Q(x) :- Num(x), Num(y), x < y.\"}\n",
    );
    let slow = std::thread::spawn(move || {
        let reply = a.recv_line();
        (reply, std::time::Instant::now())
    });
    std::thread::sleep(Duration::from_millis(5));
    b.send(b"{\"op\":\"ping\"}\n{\"op\":\"query\",\"text\":\"sigma[v=1](Num)\"}\n");
    assert_eq!(b.recv_line(), r#"{"ok":true,"kind":"pong"}"#);
    let hit = b.recv_line();
    let b_done = std::time::Instant::now();
    assert!(hit.contains("\"eval_cache_hit\":true"), "{hit}");
    let (reply, a_done) = slow.join().unwrap();
    assert!(
        reply.contains("\"row_count\":999"),
        "{}",
        &reply[reply.len() - 80..]
    );
    assert!(
        b_done < a_done,
        "B's replies waited {:?} for A's query",
        b_done - a_done
    );
    stop(addr, handle);
}

/// A cached result too big for one frame still streams, exactly as on
/// its first run.
#[test]
fn cached_results_over_the_stream_threshold_still_stream() {
    let (addr, handle) = start_server(ServerConfig {
        stream_threshold: 3,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.load_fixture(&numbers_fixture(10)).unwrap();
    let mut raw = Raw::connect(addr);
    for run in 0..2 {
        raw.send(b"{\"op\":\"query\",\"text\":\"pi[v](Num)\"}\n");
        let mut frames = Vec::new();
        loop {
            let line = raw.recv_line();
            let end = line.contains("\"kind\":\"rows-end\"");
            frames.push(line);
            if end {
                break;
            }
        }
        assert_eq!(frames.len(), 5, "run {run}: 4 chunks + end: {frames:?}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions.rows_streamed, 20);
    assert_eq!(stats.sessions.eval_hits, 1, "the second run hit the cache");
    stop(addr, handle);
}
