//! Sharded-reactor end-to-end tests: the same contracts the single-loop
//! reactor guarantees — pipelining order, chunked streaming, graceful
//! drain, idle eviction, byte-identical plain-client responses — hold
//! with connections spread across four epoll shards, plus the
//! per-shard stats/metrics breakdown.

use rd_engine::demo_database;
use rd_server::{Client, RequestId, Response, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Every server in this file runs four shards; workers stay at four so
/// each shard's compute slice is exactly one thread — the narrowest
/// (and most deadlock-prone) slicing.
fn sharded(config: ServerConfig) -> ServerConfig {
    ServerConfig {
        shards: 4,
        workers: 4,
        ..config
    }
}

fn start_server(
    config: ServerConfig,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, demo_database()).expect("bind ephemeral port");
    assert_eq!(server.shard_count(), 4, "tests here pin --shards 4");
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
// Graceful drain across shards
// ---------------------------------------------------------------------

/// Shutdown arrives on ONE shard (whichever owns the shutter's
/// connection) but must close connections owned by every shard: the
/// broadcast wakes all four loops and each drains its own table.
#[test]
fn shutdown_drains_connections_on_every_shard() {
    let (addr, handle) = start_server(sharded(ServerConfig::default()));
    // Nine pinged bystanders: least-loaded routing spreads them across
    // all four shards (at most ⌈9/4⌉ per shard), so every shard owns at
    // least one connection that only the broadcast can close.
    let mut bystanders: Vec<Raw> = (0..9)
        .map(|_| {
            let mut raw = Raw::connect(addr);
            raw.send(b"{\"op\":\"ping\"}\n");
            raw.recv_line();
            raw
        })
        .collect();
    let mut shutter = Client::connect(addr).expect("connect shutter");
    shutter.shutdown().expect("bye handshake");
    for (i, raw) in bystanders.iter_mut().enumerate() {
        assert!(raw.at_eof(), "bystander {i} must close at shutdown");
    }
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

/// A straggler that never reads still cannot hold the sharded server
/// past the global drain deadline.
#[test]
fn drain_deadline_applies_globally_across_shards() {
    let (addr, handle) = start_server(sharded(ServerConfig {
        drain_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    }));
    // Stragglers on several shards: connected (and counted) but never
    // reading, never closing.
    let stragglers: Vec<TcpStream> = (0..5).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let started = std::time::Instant::now();
    let mut shutter = Client::connect(addr).unwrap();
    shutter.shutdown().unwrap();
    handle
        .join()
        .expect("server thread must not panic")
        .expect("serve() must return Ok despite stragglers");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain must end at the deadline, not hang: {:?}",
        started.elapsed()
    );
    drop(stragglers);
}

// ---------------------------------------------------------------------
// Idle eviction on non-accepting shards
// ---------------------------------------------------------------------

/// Idle connections are evicted by each shard's own timer wakeup — not
/// by accept traffic. With six idlers spread over four shards and no
/// further connections routed anywhere, a shard that never sees another
/// accept still fires its idle-scan deadline.
#[test]
fn idle_eviction_fires_on_shards_that_stopped_accepting() {
    let (addr, handle) = start_server(sharded(ServerConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    }));
    let mut idlers: Vec<Raw> = (0..6)
        .map(|_| {
            let mut raw = Raw::connect(addr);
            raw.send(b"{\"op\":\"ping\"}\n");
            raw.recv_line();
            raw
        })
        .collect();
    // Every idler goes quiet past the timeout and is closed by whichever
    // shard owns it.
    for (i, idler) in idlers.iter_mut().enumerate() {
        assert!(idler.at_eof(), "idler {i} must be evicted");
    }
    // An active connection sees all six evictions in the aggregated
    // stats and is not itself evicted while it keeps talking.
    let mut client = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        if stats.evicted >= 6 {
            let from_shards: u64 = stats.shards.iter().map(|s| s.evicted).sum();
            assert_eq!(
                from_shards, stats.evicted,
                "per-shard evictions must sum to the total: {stats:?}"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "evictions never surfaced in stats: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    stop(addr, handle);
}

// ---------------------------------------------------------------------
// Pipelining and chunked streaming under sharding
// ---------------------------------------------------------------------

fn numbers_fixture(n: usize) -> String {
    let mut fx = String::from("Num(v):\n");
    for i in 0..n {
        fx.push_str(&format!(" ({i})\n"));
    }
    fx
}

#[test]
fn pipelined_ids_and_chunked_streams_work_on_four_shards() {
    let (addr, handle) = start_server(sharded(ServerConfig {
        stream_threshold: 3,
        ..ServerConfig::default()
    }));
    let mut client = Client::connect(addr).unwrap();
    client.load_fixture(&numbers_fixture(10)).unwrap();

    // Pipelining: three tagged requests in a single TCP segment answer
    // in order with their ids.
    let mut raw = Raw::connect(addr);
    raw.send(
        b"{\"op\":\"ping\",\"id\":1}\n\
          {\"op\":\"query\",\"text\":\"pi[v](Num)\",\"id\":\"two\"}\n\
          {\"op\":\"ping\",\"id\":3}\n",
    );
    assert_eq!(raw.recv_line(), r#"{"ok":true,"kind":"pong","id":1}"#);
    // The middle response opens a chunked stream (10 rows > threshold
    // 3): its frames must stay contiguous, all tagged with its id, and
    // the trailing pong must not overtake them.
    let mut chunks = 0u64;
    let mut rows = 0;
    loop {
        let line = raw.recv_line();
        let (id, frame) = rd_server::protocol::decode_frame(&line).expect("valid frame");
        assert_eq!(id, Some(RequestId::Str("two".into())));
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
    assert_eq!(raw.recv_line(), r#"{"ok":true,"kind":"pong","id":3}"#);

    // The Client-side reassembler sees the same stream transparently,
    // over its own (differently-sharded) connection.
    match client.query(None, "pi[v](Num)").unwrap() {
        Response::Query(q) => assert_eq!(q.rows.len(), 10),
        other => panic!("unexpected {other:?}"),
    }
    stop(addr, handle);
}

// ---------------------------------------------------------------------
// Wire-format stability for plain clients
// ---------------------------------------------------------------------

/// The golden PR-2/PR-3 byte contract survives sharding: clients that
/// send no `"id"` and stay under the stream threshold get the exact
/// same lines regardless of which shard owns them. The expected lines
/// are captured verbatim from the pre-reactor server.
#[test]
fn plain_clients_get_byte_identical_responses_under_sharding() {
    let (addr, handle) = start_server(sharded(ServerConfig::default()));
    // Bystanders on other shards, so the golden connection runs while
    // several loops hold traffic (the caches start cold exactly once,
    // so the golden exchanges themselves run on one connection).
    let mut bystanders: Vec<Raw> = (0..6)
        .map(|_| {
            let mut raw = Raw::connect(addr);
            raw.send(b"{\"op\":\"ping\"}\n");
            raw.recv_line();
            raw
        })
        .collect();
    {
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
    }
    bystanders.iter_mut().for_each(|raw| {
        raw.send(b"{\"op\":\"ping\"}\n");
        raw.recv_line();
    });
    stop(addr, handle);
}

// ---------------------------------------------------------------------
// Per-shard observability
// ---------------------------------------------------------------------

#[test]
fn stats_and_metrics_expose_the_per_shard_breakdown() {
    let (addr, handle) = start_server(sharded(ServerConfig::default()));
    // A dozen live connections: least-loaded routing must put them on
    // more than one shard.
    let mut held: Vec<Raw> = (0..12)
        .map(|_| {
            let mut raw = Raw::connect(addr);
            raw.send(b"{\"op\":\"ping\"}\n");
            raw.recv_line();
            raw
        })
        .collect();
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.workers, 4, "workers reports the configured total");
    assert_eq!(stats.shards.len(), 4, "one breakdown entry per shard");
    let conn_sum: u64 = stats.shards.iter().map(|s| s.connections).sum();
    let active_sum: u64 = stats.shards.iter().map(|s| s.active).sum();
    assert_eq!(conn_sum, stats.connections, "totals are the shard sums");
    assert_eq!(active_sum, stats.active_connections, "{stats:?}");
    assert_eq!(stats.connections, 13, "12 held + the stats client");
    let populated = stats.shards.iter().filter(|s| s.connections > 0).count();
    assert!(
        populated >= 2,
        "13 connections must spread past one shard: {stats:?}"
    );
    for (i, sh) in stats.shards.iter().enumerate() {
        assert_eq!(sh.shard, i as u64, "breakdown is ordered by shard id");
    }
    // The metrics exposition carries one labeled series per shard for
    // the reactor families.
    let text = client.metrics().unwrap();
    for family in ["rd_reactor_loop_micros", "rd_conn_queue_depth"] {
        assert!(
            text.contains(&format!("# TYPE {family} histogram")),
            "missing TYPE line for {family}"
        );
        for shard in 0..4 {
            assert!(
                text.contains(&format!("{family}_count{{shard=\"{shard}\"}}")),
                "missing {family} series for shard {shard}"
            );
        }
    }
    held.iter_mut().for_each(|raw| {
        raw.send(b"{\"op\":\"ping\"}\n");
        raw.recv_line();
    });
    stop(addr, handle);
}
