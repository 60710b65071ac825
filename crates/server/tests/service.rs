//! End-to-end service tests: real sockets, concurrent clients, shared
//! caches, reloads, and shutdown.

use rd_core::Value;
use rd_engine::{demo_database, Language};
use rd_server::{run_bench, BenchConfig, Client, Response, Server, ServerConfig};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// Starts a server over the demo database on an ephemeral port; returns
/// its address and the serving thread (joined by `stop`).
fn start_server(
    config: ServerConfig,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, demo_database()).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

/// Sends `shutdown` and asserts the serve loop exits cleanly.
fn stop(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("clean shutdown handshake");
    handle
        .join()
        .expect("server thread must not panic")
        .expect("serve() must return Ok");
}

/// The same conjunctive query — "names of sailors who reserved some
/// boat" — in all four languages (mirrors the PR-1 engine tests).
fn conjunctive_in_all_languages() -> [(Language, &'static str); 4] {
    [
        (
            Language::Sql,
            "SELECT DISTINCT Sailor.sname FROM Sailor, Reserves \
             WHERE Sailor.sid = Reserves.sid",
        ),
        (
            Language::Trc,
            "{ q(sname) | exists s in Sailor [ q.sname = s.sname and \
               exists r in Reserves [ r.sid = s.sid ] ] }",
        ),
        (
            Language::Ra,
            "pi[sname](Sailor join[sid=rsid] rho[sid->rsid, bid->rbid](Reserves))",
        ),
        (Language::Datalog, "Q(n) :- Sailor(s, n), Reserves(s, b)."),
    ]
}

fn tuple_set(resp: &Response) -> BTreeSet<Vec<Value>> {
    match resp {
        Response::Query(q) => q.rows.iter().cloned().collect(),
        other => panic!("expected a query response, got {other:?}"),
    }
}

#[test]
fn eight_concurrent_clients_agree_across_languages() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 5;
    let (addr, handle) = start_server(ServerConfig {
        workers: CLIENTS,
        ..ServerConfig::default()
    });
    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || -> BTreeSet<Vec<Value>> {
                let mut client = Client::connect(addr).expect("connect");
                let mut sets = BTreeSet::new();
                for round in 0..ROUNDS {
                    // Stagger language order per thread and round so the
                    // shared caches see interleaved traffic.
                    let queries = conjunctive_in_all_languages();
                    for k in 0..queries.len() {
                        let (lang, text) = &queries[(i + round + k) % queries.len()];
                        let resp = client.query(Some(*lang), text).expect("query");
                        sets.insert(tuple_set(&resp).into_iter().flatten().collect::<Vec<_>>());
                    }
                }
                sets
            })
        })
        .collect();
    let mut all_sets = BTreeSet::new();
    for t in threads {
        all_sets.extend(t.join().expect("client thread"));
    }
    // Every language on every connection produced the same tuple set.
    assert_eq!(
        all_sets.len(),
        1,
        "languages or connections disagreed: {all_sets:?}"
    );

    // The aggregated stats saw every query from every worker session.
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions.queries, (CLIENTS * ROUNDS * 4) as u64);
    assert_eq!(stats.connections, CLIENTS as u64 + 1);
    assert!(
        stats.sessions.cache_hits > 0,
        "shared parse cache saw no cross-connection hits: {stats:?}"
    );
    assert!(
        stats.sessions.eval_hits > 0,
        "shared result cache saw no cross-connection hits: {stats:?}"
    );
    assert_eq!(
        stats.sessions.cache_hits + stats.sessions.cache_misses,
        stats.sessions.queries,
        "every query is exactly one parse-cache lookup"
    );
    assert_eq!(stats.workers, CLIENTS as u64);
    assert_eq!(stats.generation, 0);
    stop(addr, handle);
}

#[test]
fn result_cache_is_shared_across_connections() {
    let (addr, handle) = start_server(ServerConfig::default());
    let query = "SELECT DISTINCT Boat.color FROM Boat";
    let mut alice = Client::connect(addr).unwrap();
    let first = alice.query(Some(Language::Sql), query).unwrap();
    match &first {
        Response::Query(q) => {
            assert!(!q.cache_hit);
            assert!(!q.eval_cache_hit);
            assert_eq!(q.rows.len(), 2);
        }
        other => panic!("unexpected {other:?}"),
    }
    // A brand-new connection: both shared caches hit.
    let mut bob = Client::connect(addr).unwrap();
    let second = bob.query(Some(Language::Sql), query).unwrap();
    match &second {
        Response::Query(q) => {
            assert!(q.cache_hit, "parse artifact must be shared");
            assert!(q.eval_cache_hit, "result must be shared");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(tuple_set(&first), tuple_set(&second));
    stop(addr, handle);
}

#[test]
fn load_bumps_generation_and_invalidates_results() {
    let (addr, handle) = start_server(ServerConfig::default());
    let query = "pi[color](Boat)";
    let mut client = Client::connect(addr).unwrap();
    let before = client.query(None, query).unwrap();
    assert_eq!(tuple_set(&before).len(), 2);
    // Warm the result cache, then swap the database underneath it.
    let warmed = client.query(None, query).unwrap();
    assert!(matches!(&warmed, Response::Query(q) if q.eval_cache_hit));
    let loaded = client
        .load_fixture("Boat(bid, color):\n (1, 'red')\n (2, 'blue')\n (3, 'teal')\n")
        .unwrap();
    match &loaded {
        Response::Load(l) => {
            assert_eq!(l.generation, 1);
            assert_eq!(l.tables, 1);
            assert_eq!(l.tuples, 3);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Another connection must see the new data, not the cached result.
    let mut other = Client::connect(addr).unwrap();
    let after = other.query(None, query).unwrap();
    match &after {
        Response::Query(q) => {
            assert!(!q.eval_cache_hit, "stale result served after reload");
            assert_eq!(q.rows.len(), 3);
        }
        other => panic!("unexpected {other:?}"),
    }
    stop(addr, handle);
}

#[test]
fn csv_load_merges_a_table_into_the_database() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let loaded = client
        .load_csv("Person", "name,age\nAlice,30\n\"O'Brien\",41\n")
        .unwrap();
    match &loaded {
        Response::Load(l) => {
            assert_eq!(l.tables, 4, "demo's 3 tables + Person");
            assert_eq!(l.generation, 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    let resp = client.query(None, "pi[name](Person)").unwrap();
    let rows = tuple_set(&resp);
    assert_eq!(rows.len(), 2);
    assert!(rows.contains(&vec![Value::str("O'Brien")]));
    // The demo tables are still there.
    let boats = client.query(None, "pi[color](Boat)").unwrap();
    assert_eq!(tuple_set(&boats).len(), 2);
    stop(addr, handle);
}

#[test]
fn disabled_result_cache_still_agrees_but_never_hits() {
    let (addr, handle) = start_server(ServerConfig {
        eval_cache: false,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let query = "SELECT DISTINCT Boat.color FROM Boat";
    let first = client.query(Some(Language::Sql), query).unwrap();
    let second = client.query(Some(Language::Sql), query).unwrap();
    match &second {
        Response::Query(q) => {
            assert!(q.cache_hit, "parse cache unaffected");
            assert!(!q.eval_cache_hit);
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(tuple_set(&first), tuple_set(&second));
    let stats = client.stats().unwrap();
    assert!(!stats.eval_cache_enabled);
    assert_eq!(stats.sessions.eval_hits, 0);
    stop(addr, handle);
}

#[test]
fn malformed_and_failing_requests_leave_the_connection_usable() {
    let (addr, handle) = start_server(ServerConfig::default());
    // Raw socket: garbage line, then a valid one on the same connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"this is not json\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":false"), "{line}");
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\""), "{line}");
    // A query error (unknown table) is an error *response*, not a drop.
    let mut client = Client::connect(addr).unwrap();
    let resp = client.query(None, "pi[x](NoSuchTable)").unwrap();
    assert!(matches!(resp, Response::Error(_)), "{resp:?}");
    client.ping().expect("connection survives a query error");
    let stats = client.stats().unwrap();
    assert!(stats.errors >= 2);
    stop(addr, handle);
}

#[test]
fn deeply_nested_line_is_an_error_not_a_crash() {
    let (addr, handle) = start_server(ServerConfig::default());
    // 20 000 nested arrays, parsed on a shard thread: past the parser's
    // nesting cap the line is an error, not a stack overflow that aborts
    // the process.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut line = vec![b'['; 20_000];
    line.push(b'\n');
    stream.write_all(&line).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.starts_with(r#"{"ok":false,"error":"malformed message:"#),
        "{reply}"
    );
    // The server is still accepting: a fresh connection gets its pong.
    let mut client = Client::connect(addr).unwrap();
    client.ping().expect("server survives a deeply nested line");
    stop(addr, handle);
}

#[test]
fn bench_driver_reports_cache_assisted_throughput() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut cfg = BenchConfig::new(addr.to_string());
    cfg.threads = 4;
    cfg.requests = 25;
    let report = run_bench(&cfg).expect("bench run");
    assert_eq!(report.completed, 100);
    assert_eq!(report.errors, 0);
    assert_eq!(report.latencies.len(), 100);
    assert!(
        report.eval_cache_hits > 0,
        "repeated mix must hit the shared result cache"
    );
    assert!(report.percentile(0.5) <= report.percentile(0.99));
    assert!(report.throughput() > 0.0);
    stop(addr, handle);
}

#[test]
fn explain_and_translate_ops_over_the_wire() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let trc = "{ q(sname) | exists s in Sailor [ q.sname = s.sname and \
               exists r in Reserves [ r.sid = s.sid ] ] }";
    // Explain: the chosen plan arrives as a tree naming scan strategy.
    let resp = client.explain(Some(Language::Trc), trc).unwrap();
    let plan = match &resp {
        Response::Explain(e) => {
            assert_eq!(e.language, Language::Trc);
            assert!(e.canonical.contains("q(sname)"), "{}", e.canonical);
            &e.plan
        }
        other => panic!("expected explain, got {other:?}"),
    };
    fn any(
        node: &rd_core::exec::ExplainNode,
        f: &impl Fn(&rd_core::exec::ExplainNode) -> bool,
    ) -> bool {
        f(node) || node.children.iter().any(|c| any(c, f))
    }
    assert!(any(plan, &|n| n.kind == "scan"), "{plan:?}");
    assert!(any(plan, &|n| n.detail.contains("hash probe")), "{plan:?}");
    // Translate: the Theorem 6 maps, served over the protocol.
    for (to, needle) in [
        (Language::Sql, "SELECT DISTINCT"),
        (Language::Datalog, ":-"),
        (Language::Ra, "pi["),
        (Language::Trc, "q(sname)"),
    ] {
        let resp = client.translate(Some(Language::Trc), trc, to).unwrap();
        match &resp {
            Response::Translate(t) => {
                assert_eq!(t.to, to);
                assert!(t.text.contains(needle), "{to:?}: {}", t.text);
            }
            other => panic!("expected translate, got {other:?}"),
        }
    }
    // A translated form evaluates to the same rows as the original.
    let sql = match client
        .translate(Some(Language::Trc), trc, Language::Sql)
        .unwrap()
    {
        Response::Translate(t) => t.text,
        other => panic!("{other:?}"),
    };
    let a = client.query(Some(Language::Trc), trc).unwrap();
    let b = client.query(Some(Language::Sql), &sql).unwrap();
    assert_eq!(tuple_set(&a), tuple_set(&b));
    // Errors come back as error frames, connection stays usable.
    let resp = client.explain(None, "pi[x](NoSuchTable)").unwrap();
    assert!(matches!(resp, Response::Error(_)), "{resp:?}");
    client.ping().expect("connection survives an explain error");
    stop(addr, handle);
}

#[test]
fn plan_counters_aggregate_across_workers_in_stats() {
    // Result cache off so plan hits are observable; every connection
    // gets its own session, so the stats op must merge them all.
    let (addr, handle) = start_server(ServerConfig {
        eval_cache: false,
        ..ServerConfig::default()
    });
    let query = "pi[color](Boat)";
    let mut alice = Client::connect(addr).unwrap();
    alice.query(None, query).unwrap();
    let mut bob = Client::connect(addr).unwrap();
    bob.query(None, query).unwrap();
    bob.query(None, query).unwrap();
    let stats = bob.stats().unwrap();
    assert!(stats.plan_cache_enabled);
    assert!(!stats.eval_cache_enabled);
    // One compile (alice), two cached executions (alice's plan reused).
    assert_eq!(stats.sessions.plan_misses, 1, "{:?}", stats.sessions);
    assert_eq!(stats.sessions.plan_hits, 2, "{:?}", stats.sessions);
    assert_eq!(stats.plan_cache.misses, 1);
    assert_eq!(stats.plan_cache.hits, 2);
    assert_eq!(stats.plan_cache.entries, 1);
    // Eval counters kept their existing shape (cache off: all zero).
    assert_eq!(stats.sessions.eval_hits, 0);
    stop(addr, handle);
}

/// A scratch data directory for durability tests (no tempfile dep).
fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rd-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn mutations_survive_a_server_restart() {
    let dir = tmpdir("restart");
    let durable = || ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle) = start_server(durable());
    let mut client = Client::connect(addr).unwrap();
    // Mutate through every durable path: plain inserts, a delete, a
    // checkpoint mid-stream, and more inserts that live only in the WAL
    // tail at shutdown time.
    let ins = client
        .insert(
            "Reserves",
            vec![
                vec![Value::int(7), Value::int(101)],
                vec![Value::int(7), Value::int(102)],
            ],
        )
        .unwrap();
    match &ins {
        Response::Mutation(m) => {
            assert!(m.insert);
            assert_eq!(m.applied, 2);
            assert_eq!(m.generation, 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    let del = client.delete("Boat", vec![vec![Value::int(102), Value::str("green")]]);
    match &del.unwrap() {
        Response::Mutation(m) => {
            assert!(!m.insert);
            assert_eq!(m.applied, 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    let cp = client.checkpoint().unwrap();
    let fingerprint = match &cp {
        Response::Checkpoint(c) => {
            assert!(c.seq > 0, "durable server must write a real snapshot");
            c.fingerprint.clone()
        }
        other => panic!("unexpected {other:?}"),
    };
    client
        .insert("Sailor", vec![vec![Value::int(3), Value::str("Horatio")]])
        .unwrap();
    let queries = ["pi[sname](Sailor)", "pi[color](Boat)", "pi[bid](Reserves)"];
    let before: Vec<_> = queries
        .iter()
        .map(|q| tuple_set(&client.query(None, q).unwrap()))
        .collect();
    stop(addr, handle);

    // Restart over the same directory: the seed database passed to bind
    // must be ignored in favour of snapshot + WAL-tail recovery.
    let (addr, handle) = start_server(durable());
    let mut client = Client::connect(addr).unwrap();
    let after: Vec<_> = queries
        .iter()
        .map(|q| tuple_set(&client.query(None, q).unwrap()))
        .collect();
    assert_eq!(before, after, "recovered state differs from acked state");
    // The WAL-tail insert (after the checkpoint) made it back too.
    assert!(after[0].contains(&vec![Value::str("Horatio")]));
    match &client.checkpoint().unwrap() {
        Response::Checkpoint(c) => assert_ne!(
            c.fingerprint, fingerprint,
            "post-restart fingerprint must reflect the WAL-tail insert"
        ),
        other => panic!("unexpected {other:?}"),
    }
    stop(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delta_mutations_spare_unrelated_cached_results_over_the_wire() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let boats = "pi[color](Boat)";
    let sailors = "pi[sname](Sailor)";
    // Warm both results, then mutate only Sailor.
    client.query(None, boats).unwrap();
    client.query(None, sailors).unwrap();
    client
        .insert("Sailor", vec![vec![Value::int(9), Value::str("Zissou")]])
        .unwrap();
    // Boat survives the delta; Sailor re-evaluates and sees the new row.
    match &client.query(None, boats).unwrap() {
        Response::Query(q) => assert!(q.eval_cache_hit, "unrelated delta evicted Boat"),
        other => panic!("unexpected {other:?}"),
    }
    match &client.query(None, sailors).unwrap() {
        Response::Query(q) => {
            assert!(!q.eval_cache_hit, "stale Sailor rows served after insert");
            assert_eq!(q.rows.len(), 3);
        }
        other => panic!("unexpected {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert!(stats.sessions.delta_survivals >= 1, "{:?}", stats.sessions);
    assert!(
        stats.sessions.delta_invalidations >= 1,
        "{:?}",
        stats.sessions
    );
    // Without --data-dir the checkpoint op degrades to a probe.
    match &client.checkpoint().unwrap() {
        Response::Checkpoint(c) => assert_eq!(c.seq, 0),
        other => panic!("unexpected {other:?}"),
    }
    stop(addr, handle);
}

#[test]
fn disabled_plan_cache_over_the_wire_recompiles_but_agrees() {
    let (addr, handle) = start_server(ServerConfig {
        eval_cache: false,
        plan_cache: false,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let a = client.query(None, "pi[color](Boat)").unwrap();
    let b = client.query(None, "pi[color](Boat)").unwrap();
    assert_eq!(tuple_set(&a), tuple_set(&b));
    let stats = client.stats().unwrap();
    assert!(!stats.plan_cache_enabled);
    assert_eq!(stats.sessions.plan_hits + stats.sessions.plan_misses, 0);
    stop(addr, handle);
}
