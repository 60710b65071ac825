//! Wire-level observability tests: `explain analyze` row counts, the
//! `metrics` exposition text, `stats` reset windows, and exactly-once
//! recording on every path — all through a real socket against the demo
//! database.

use rd_engine::shared::text_key;
use rd_engine::{
    demo_database, DiagramFormat, EngineShared, Language, QueryRequest, Session, SessionStats,
};
use rd_server::{Client, Request, Response, Server, ServerConfig, StatsResult};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

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

/// "Names of sailors who reserved some boat" — a join, in all four
/// languages. Over the demo fixture both sailors qualify (2 rows).
fn join_in_all_languages() -> [(Language, &'static str); 4] {
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

/// "Names of sailors who did NOT reserve boat 102" — a negation, in all
/// four languages. Only Lubber (sid 2) qualifies (1 row).
fn negation_in_all_languages() -> [(Language, &'static str); 4] {
    [
        (
            Language::Sql,
            "SELECT DISTINCT Sailor.sname FROM Sailor WHERE NOT EXISTS \
             (SELECT * FROM Reserves WHERE Reserves.sid = Sailor.sid \
              AND Reserves.bid = 102)",
        ),
        (
            Language::Trc,
            "{ q(sname) | exists s in Sailor [ q.sname = s.sname and \
               not (exists r in Reserves [ r.sid = s.sid and r.bid = 102 ]) ] }",
        ),
        (
            Language::Ra,
            "pi[sname](Sailor antijoin sigma[bid=102](Reserves))",
        ),
        (
            Language::Datalog,
            "Q(n) :- Sailor(s, n), not Reserves(s, 102).",
        ),
    ]
}

/// Walks an explain tree collecting every node.
fn flatten(node: &rd_core::exec::ExplainNode, out: &mut Vec<rd_core::exec::ExplainNode>) {
    out.push(node.clone());
    for child in &node.children {
        flatten(child, out);
    }
}

#[test]
fn explain_analyze_matches_query_results_in_all_languages() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    for (queries, expected_rows) in [
        (join_in_all_languages(), 2usize),
        (negation_in_all_languages(), 1usize),
    ] {
        for (lang, text) in queries {
            let rows = match client.query(Some(lang), text).expect("query") {
                Response::Query(q) => q.rows.len(),
                other => panic!("expected query response, got {other:?}"),
            };
            assert_eq!(rows, expected_rows, "{lang:?}: {text}");

            let analyzed = match client.explain_analyze(Some(lang), text).expect("analyze") {
                Response::Explain(e) => e,
                other => panic!("expected explain response, got {other:?}"),
            };
            assert_eq!(
                analyzed.plan.actual_rows,
                Some(rows as u64),
                "{lang:?}: root actual rows must equal the relation size"
            );
            let mut nodes = Vec::new();
            flatten(&analyzed.plan, &mut nodes);
            assert!(
                nodes.iter().any(|n| n.est_rows.is_some()),
                "{lang:?}: some node must carry a planner estimate"
            );
        }
    }

    // Plain explain over the same wire carries the cost-based planner's
    // compile-time estimate but never execution annotations.
    let (lang, text) = join_in_all_languages()[0];
    let plain = match client.explain(Some(lang), text).expect("explain") {
        Response::Explain(e) => e,
        other => panic!("expected explain response, got {other:?}"),
    };
    let mut nodes = Vec::new();
    flatten(&plain.plan, &mut nodes);
    assert!(
        nodes
            .iter()
            .all(|n| n.actual_rows.is_none() && n.q_error.is_none()),
        "plain explain must not carry execution annotations"
    );
    assert!(
        plain.plan.est_rows.is_some(),
        "cost-based plans record their root estimate at compile time"
    );
    stop(addr, handle);
}

/// Sums the values of every `<family>_count{...}` sample in the
/// exposition text.
fn count_samples(text: &str, family: &str) -> u64 {
    let prefix_braced = format!("{family}_count{{");
    let prefix_bare = format!("{family}_count ");
    text.lines()
        .filter(|l| l.starts_with(&prefix_braced) || l.starts_with(&prefix_bare))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("unparseable sample: {l}"))
        })
        .sum()
}

#[test]
fn metrics_text_reconciles_with_stats_totals() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let queries = join_in_all_languages();
    for (lang, text) in &queries {
        client.query(Some(*lang), text).expect("query");
    }

    let stats = client.stats().expect("stats");
    let text = client.metrics().expect("metrics");

    // One sample per query, spread across the per-language histograms.
    assert_eq!(
        count_samples(&text, "rd_query_latency_micros"),
        stats.sessions.queries,
        "query-latency histogram must see every query:\n{text}"
    );
    assert_eq!(stats.sessions.queries, queries.len() as u64);

    // The stage registry saw real work, and every per-stage `+Inf`
    // bucket agrees with its `_count` line (cumulative rendering).
    // `render` is in this list on purpose: it silently recorded nothing
    // for a whole release because result materialization was unbilled.
    for stage in ["execute", "render", "serialize"] {
        let label = format!("stage=\"{stage}\"");
        let count: u64 = text
            .lines()
            .filter(|l| l.starts_with("rd_stage_latency_micros_count{") && l.contains(&label))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        let inf: u64 = text
            .lines()
            .filter(|l| {
                l.starts_with("rd_stage_latency_micros_bucket{")
                    && l.contains(&label)
                    && l.contains("le=\"+Inf\"")
            })
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert!(count > 0, "stage {stage} recorded nothing:\n{text}");
        assert_eq!(inf, count, "stage {stage}: +Inf bucket vs _count");
    }

    // Counter families are present and consistent with stats.
    let requests_line = text
        .lines()
        .find(|l| l.starts_with("rd_requests_total "))
        .expect("requests counter rendered");
    let requests: u64 = requests_line.rsplit(' ').next().unwrap().parse().unwrap();
    // The stats request itself was counted before the metrics scrape.
    assert!(requests >= stats.requests, "{requests_line} vs {stats:?}");

    // Reactor internals render as histograms.
    for family in ["rd_reactor_loop_micros", "rd_conn_queue_depth"] {
        assert!(
            text.contains(&format!("# TYPE {family} histogram")),
            "missing {family}:\n{text}"
        );
    }
    stop(addr, handle);
}

#[test]
fn stats_reset_returns_window_and_zeroes_counters() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let queries = join_in_all_languages();
    for (lang, text) in &queries {
        client.query(Some(*lang), text).expect("query");
    }

    // First reset: the window since boot is the cumulative view.
    let first = client.stats_reset().expect("stats reset");
    assert_eq!(first.sessions.queries, queries.len() as u64);

    // Two cold queries, then a second reset: only the new window.
    for (lang, text) in negation_in_all_languages().iter().take(2) {
        client.query(Some(*lang), text).expect("query");
    }
    let second = client.stats_reset().expect("stats reset");
    assert_eq!(
        second.sessions.queries, 2,
        "reset window must cover only traffic since the last reset"
    );
    // Everything windowed covers exactly those requests: the two
    // queries plus this reset itself; `serialize` also counts the first
    // reset's reply, which was encoded after its own snapshot.
    assert_eq!((second.requests, second.errors), (3, 0));
    let stage = |name: &str| {
        second
            .stages
            .iter()
            .find(|s| s.stage == name)
            .map_or(0, |s| s.count)
    };
    for (name, count) in [
        ("parse", 2),
        ("plan", 2),
        ("execute", 2),
        ("render", 2),
        ("serialize", 3),
    ] {
        assert_eq!(stage(name), count, "stage {name}: {second:?}");
    }
    assert_eq!(second.planner.q_count, 2, "both queries executed");
    let lookups = |c: &rd_engine::CacheStats| c.hits + c.misses;
    assert_eq!(lookups(&second.parse_cache), 2);
    assert_eq!(lookups(&second.eval_cache), 2);
    assert_eq!(second.connections, 0, "no connection opened in the window");
    // Gauges are never windowed.
    assert_eq!(second.tables, 3);
    assert!(second.workers > 0);
    assert_eq!(second.active_connections, 1);

    // Plain stats still reports cumulative-since-boot counters.
    let plain = client.stats().expect("stats");
    assert_eq!(plain.sessions.queries, queries.len() as u64 + 2);
    assert_eq!(plain.requests, queries.len() as u64 + 5);
    assert_eq!(plain.connections, 1);

    // An empty window reports zero without disturbing the totals.
    let empty = client.stats_reset().expect("stats reset");
    assert_eq!(empty.sessions.queries, 0);
    let plain = client.stats().expect("stats");
    assert_eq!(plain.sessions.queries, queries.len() as u64 + 2);
    stop(addr, handle);
}

#[test]
fn stage_latencies_expose_percentiles_via_stats() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    for (lang, text) in &join_in_all_languages() {
        client.query(Some(*lang), text).expect("query");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.stages.len(), 5, "one entry per pipeline stage");
    let names: Vec<&str> = stats.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(names, ["parse", "plan", "execute", "render", "serialize"]);
    let execute = stats.stages.iter().find(|s| s.stage == "execute").unwrap();
    assert!(execute.count > 0, "execute stage must have samples");
    assert!(
        execute.p50 <= execute.p95 && execute.p95 <= execute.p99,
        "percentiles must be monotone: {execute:?}"
    );
    // Every pipeline stage did work for these queries, so every stage
    // histogram must have recorded samples. Regression guard: `render`
    // used to show `count: 0` while parse/execute/serialize all billed
    // per request, because shaping the result relation into wire frames
    // happened outside any timed span.
    for stage in &stats.stages {
        assert!(
            stage.count > 0,
            "stage {:?} recorded no samples despite queries doing work: {stats:?}",
            stage.stage
        );
    }
    stop(addr, handle);
}

/// A text that parses to the same canonical form as `text` but has a
/// parse-cache key of its own. The key ignores whitespace layout, so the
/// twin recases keywords (SQL) or adds or drops a token gap.
fn parse_miss_twin(language: Language, text: &str) -> String {
    let twin = match language {
        Language::Sql => text.replacen("SELECT DISTINCT", "select distinct", 1),
        Language::Trc => text.replacen("[ ", "[", 1),
        Language::Ra => text.replacen("](", "] (", 1),
        Language::Datalog => text.replacen(", ", ",", 1),
    };
    assert_ne!(text_key(&twin), text_key(text), "{twin}");
    twin
}

/// Repeated queries are answered from the caches, the rest evaluate.
/// Either way each query is counted exactly once: a
/// warm-then-repeat sequence over the wire leaves the same session
/// counters, cache statistics, and query-latency sample count as the
/// same sequence through one in-process `Session`.
#[test]
fn inline_answers_count_exactly_like_in_process_runs() {
    let mut sequence: Vec<(Language, String)> = Vec::new();
    for round in 0..3 {
        for (lang, text) in join_in_all_languages()
            .iter()
            .chain(&negation_in_all_languages())
        {
            sequence.push((*lang, text.to_string()));
            if round == 1 {
                // A twin: a parse miss that hits the eval cache.
                sequence.push((*lang, parse_miss_twin(*lang, text)));
            }
        }
    }

    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    for (lang, text) in &sequence {
        let resp = client.query(Some(*lang), text).expect("query");
        assert!(matches!(resp, Response::Query(_)), "{resp:?}");
    }
    let wire = client.stats().expect("stats");
    let text = client.metrics().expect("metrics");
    stop(addr, handle);

    let shared = Arc::new(EngineShared::new(demo_database()));
    let mut session = Session::attach(shared.clone());
    let mut twins = 0;
    for (lang, text) in &sequence {
        let resp = session
            .run(&QueryRequest::new(*lang, text.as_str()))
            .unwrap();
        twins += usize::from(!resp.cache_hit && resp.eval_cache_hit);
    }
    assert_eq!(twins, 8, "each twin is a parse miss and an eval hit");
    let local = session.stats();

    let inline: u64 = wire.shards.iter().map(|s| s.inline).sum();
    assert!(
        inline > 0,
        "repeats must be answered on the shard: {wire:?}"
    );
    let counted = |s: &SessionStats| {
        (
            s.queries,
            s.cache_hits,
            s.cache_misses,
            s.eval_hits,
            s.eval_misses,
        )
    };
    assert_eq!(counted(&wire.sessions), counted(local));
    assert_eq!(wire.sessions.queries, sequence.len() as u64);
    let parse = shared.parse_cache_stats();
    let eval = shared.eval_cache_stats();
    assert_eq!(
        (wire.parse_cache.hits, wire.parse_cache.misses),
        (parse.hits, parse.misses)
    );
    assert_eq!(
        (wire.eval_cache.hits, wire.eval_cache.misses),
        (eval.hits, eval.misses)
    );
    // Every query ran successfully, so each left one latency sample.
    assert_eq!(
        count_samples(&text, "rd_query_latency_micros"),
        sequence.len() as u64
    );
    let inline_samples: u64 = text
        .lines()
        .filter(|l| l.starts_with("rd_requests_inline_total{shard="))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(inline_samples, inline, "metrics and stats agree:\n{text}");
}

/// Every span stage a session reports must land in the server's
/// registry — a span that never records is invisible to
/// `stats`/`metrics`, which is exactly how the `render` stage shipped
/// with `count: 0` for a whole release.
#[test]
fn every_reported_span_stage_lands_in_the_registry() {
    let text = "SELECT DISTINCT Boat.color FROM Boat";
    // Translations force the session's render stage to do real work.
    let resp = Session::new(demo_database())
        .run(&QueryRequest::new(Language::Sql, text).with_translations())
        .unwrap();
    let reported: Vec<&str> = resp.spans.iter().map(|s| s.stage).collect();
    assert!(
        reported.contains(&"render"),
        "translations request must pass through render: {reported:?}"
    );

    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request(&Request::Query {
            language: Some(Language::Sql),
            text: text.into(),
            translations: true,
            diagram: DiagramFormat::None,
        })
        .expect("query");
    assert!(matches!(resp, Response::Query(_)), "{resp:?}");
    let stats = client.stats().expect("stats");
    for stage in &reported {
        let recorded = stats
            .stages
            .iter()
            .find(|s| s.stage == *stage)
            .unwrap_or_else(|| panic!("span stage {stage:?} missing from the registry"));
        assert!(
            recorded.count > 0,
            "stage {stage:?} reported a span but recorded nothing"
        );
    }
    stop(addr, handle);
}

/// Writes `lines` in one pipelined write and reads one reply line per
/// request (no reply here streams).
fn exchange(stream: &mut TcpStream, lines: &[&str]) -> Vec<String> {
    let mut bytes = Vec::new();
    for line in lines {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    stream.write_all(&bytes).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    lines
        .iter()
        .map(|_| {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply
        })
        .collect()
}

/// Every request is recorded exactly once, whatever answers it: cache
/// hits on either shard, parse misses that hit the result cache, a
/// query with translations and a diagram (whose session
/// render span and frame shaping are one `render` sample), control ops,
/// undecodable lines, and a pipelined batch. The totals are exact
/// functions of the sequence sent.
#[test]
fn every_request_is_recorded_exactly_once_on_any_path() {
    let (addr, handle) = start_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let boats = r#"{"op":"query","lang":"ra","text":"pi[color](Boat)"}"#;
    let boats_twin = r#"{"op":"query","lang":"ra","text":"pi[ color ](Boat)"}"#;
    let sailors =
        r#"{"op":"query","lang":"sql","text":"SELECT DISTINCT Sailor.sname FROM Sailor"}"#;
    let negation =
        r#"{"op":"query","lang":"datalog","text":"Q(n) :- Sailor(s, n), not Reserves(s, 102)."}"#;
    let rendered = r#"{"op":"query","lang":"sql","text":"SELECT DISTINCT Boat.color FROM Boat","translations":true,"diagram":"svg"}"#;
    let explain = r#"{"op":"explain","lang":"ra","text":"pi[color](Boat)"}"#;
    let translate = r#"{"op":"translate","lang":"ra","text":"pi[color](Boat)","to":"sql"}"#;
    let ping = r#"{"op":"ping"}"#;
    let garbage = "this is not json";
    let unknown_op = r#"{"op":"frobnicate"}"#;

    // Two connections; least-loaded routing puts one on each shard.
    let mut one = TcpStream::connect(addr).unwrap();
    let mut two = TcpStream::connect(addr).unwrap();
    let mut sent: Vec<&str> = Vec::new();
    let mut send = |stream: &mut TcpStream, lines: &[&'static str]| {
        sent.extend_from_slice(lines);
        exchange(stream, lines)
    };
    // Cold, then a cache hit on each shard.
    send(&mut one, &[boats]);
    send(&mut one, &[boats]);
    send(&mut two, &[boats]);
    // A parse miss (that hits the eval cache).
    send(&mut two, &[boats_twin]);
    // Translations and a diagram make the session render too.
    let replies = send(&mut one, &[rendered]);
    assert!(replies[0].contains(r#""diagram":"<svg"#), "{replies:?}");
    // Control ops: ping, explain and translate.
    send(&mut one, &[ping]);
    send(&mut two, &[explain]);
    send(&mut one, &[translate]);
    // Undecodable lines are answered with errors.
    let replies = send(&mut two, &[garbage]);
    assert!(replies[0].starts_with(r#"{"ok":false"#), "{replies:?}");
    send(&mut one, &[unknown_op]);
    // One pipelined batch mixing all of it.
    let replies = send(
        &mut one,
        &[sailors, sailors, ping, garbage, boats, negation, explain],
    );
    assert_eq!(replies.len(), 7);
    let stats_line = send(&mut two, &[r#"{"op":"stats"}"#]).remove(0);
    let errors = sent
        .iter()
        .filter(|l| **l == garbage || **l == unknown_op)
        .count() as u64;
    let queries = sent
        .iter()
        .filter(|l| l.contains(r#""op":"query""#))
        .count() as u64;
    let stats = match rd_server::protocol::decode_frame(stats_line.trim())
        .unwrap()
        .1
    {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    let requests = sent.len() as u64;
    assert_eq!(stats.requests, requests, "the scrape counts itself");
    assert_eq!(stats.errors, errors);
    assert_eq!(stats.sessions.queries, queries);
    assert_eq!(stats.connections, 2);
    assert!(
        stats
            .shards
            .iter()
            .all(|s| s.connections == 1 && s.inline > 0),
        "one connection per shard, each with inline answers: {stats:?}"
    );
    let stage = |stats: &StatsResult, name: &str| {
        stats.stages.iter().find(|s| s.stage == name).unwrap().count
    };
    // The scrape's own reply is serialized after its snapshot.
    assert_eq!(stage(&stats, "serialize"), requests - 1);
    // Every query renders its reply once, translations or not.
    assert_eq!(stage(&stats, "render"), queries);

    let mut client = Client::connect(addr).expect("connect");
    let text = client.metrics().expect("metrics");
    assert_eq!(
        count_samples(&text, "rd_query_latency_micros"),
        queries,
        "one language sample per query:\n{text}"
    );
    let requests_total = text
        .lines()
        .find_map(|l| l.strip_prefix("rd_requests_total "))
        .unwrap();
    assert_eq!(requests_total, (requests + 1).to_string());
    let serialize_total: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix(r#"rd_stage_latency_micros_count{stage="serialize"} "#))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(
        serialize_total, requests,
        "every earlier reply serialized once"
    );
    drop((one, two));
    stop(addr, handle);
}

/// A repeated query with translations and a diagram is answered from
/// the caches and the views memoized on its parse entry, with the frame
/// it was answered with the first time — cache flags aside.
#[test]
fn repeated_view_requests_are_answered_inline_with_the_pool_frame() {
    let (addr, handle) = start_server(ServerConfig::default());
    let rendered = r#"{"op":"query","lang":"sql","text":"SELECT DISTINCT Boat.color FROM Boat","translations":true,"diagram":"svg"}"#;
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut client = Client::connect(addr).expect("connect");
    let mut inline = || -> u64 {
        let stats = client.stats().expect("stats");
        stats.shards.iter().map(|s| s.inline).sum()
    };
    let first = exchange(&mut stream, &[rendered]).remove(0);
    let before = inline();
    let second = exchange(&mut stream, &[rendered]).remove(0);
    assert_eq!(inline(), before + 1, "the repeat is answered inline");
    let (cold, warm) = (
        r#""cache_hit":false,"eval_cache_hit":false"#,
        r#""cache_hit":true,"eval_cache_hit":true"#,
    );
    assert!(first.contains(cold), "{first}");
    assert!(first.contains(r#""diagram":"<svg"#), "{first}");
    assert_eq!(second, first.replace(cold, warm));
    drop(stream);
    stop(addr, handle);
}

/// The `metrics` exposition shape — the ordered `# TYPE` families and
/// each series' label set (bucket lines aside, whose `le` bounds follow
/// the data) — for a 2-shard server with a data directory. Pinned from
/// the exposition before the per-shard registry rewrite.
#[test]
fn metrics_exposition_shape_is_pinned() {
    let dir = std::env::temp_dir().join(format!("rd-server-shape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = start_server(ServerConfig {
        shards: 2,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    client
        .query(Some(Language::Ra), "pi[color](Boat)")
        .expect("query");
    let text = client.metrics().expect("metrics");
    let shape: Vec<&str> = text
        .lines()
        .filter(|l| !l.contains("_bucket"))
        .map(|l| match l.strip_prefix("# ") {
            Some(_) => l,
            None => l.rsplit_once(' ').unwrap().0,
        })
        .collect();
    let expected = [
        r#"# TYPE rd_requests_total counter"#,
        r#"rd_requests_total"#,
        r#"# TYPE rd_errors_total counter"#,
        r#"rd_errors_total"#,
        r#"# TYPE rd_requests_inline_total counter"#,
        r#"rd_requests_inline_total{shard="0"}"#,
        r#"rd_requests_inline_total{shard="1"}"#,
        r#"# TYPE rd_connections_active gauge"#,
        r#"rd_connections_active"#,
        r#"# TYPE rd_stage_latency_micros histogram"#,
        r#"rd_stage_latency_micros_sum{stage="parse"}"#,
        r#"rd_stage_latency_micros_count{stage="parse"}"#,
        r#"rd_stage_latency_micros_sum{stage="plan"}"#,
        r#"rd_stage_latency_micros_count{stage="plan"}"#,
        r#"rd_stage_latency_micros_sum{stage="execute"}"#,
        r#"rd_stage_latency_micros_count{stage="execute"}"#,
        r#"rd_stage_latency_micros_sum{stage="render"}"#,
        r#"rd_stage_latency_micros_count{stage="render"}"#,
        r#"rd_stage_latency_micros_sum{stage="serialize"}"#,
        r#"rd_stage_latency_micros_count{stage="serialize"}"#,
        r#"# TYPE rd_query_latency_micros histogram"#,
        r#"rd_query_latency_micros_sum{lang="datalog"}"#,
        r#"rd_query_latency_micros_count{lang="datalog"}"#,
        r#"rd_query_latency_micros_sum{lang="ra"}"#,
        r#"rd_query_latency_micros_count{lang="ra"}"#,
        r#"rd_query_latency_micros_sum{lang="trc"}"#,
        r#"rd_query_latency_micros_count{lang="trc"}"#,
        r#"rd_query_latency_micros_sum{lang="sql"}"#,
        r#"rd_query_latency_micros_count{lang="sql"}"#,
        r#"# TYPE rd_planner_q_error_centi histogram"#,
        r#"rd_planner_q_error_centi_sum"#,
        r#"rd_planner_q_error_centi_count"#,
        r#"# TYPE rd_reactor_loop_micros histogram"#,
        r#"rd_reactor_loop_micros_sum{shard="0"}"#,
        r#"rd_reactor_loop_micros_count{shard="0"}"#,
        r#"rd_reactor_loop_micros_sum{shard="1"}"#,
        r#"rd_reactor_loop_micros_count{shard="1"}"#,
        r#"# TYPE rd_conn_queue_depth histogram"#,
        r#"rd_conn_queue_depth_sum{shard="0"}"#,
        r#"rd_conn_queue_depth_count{shard="0"}"#,
        r#"rd_conn_queue_depth_sum{shard="1"}"#,
        r#"rd_conn_queue_depth_count{shard="1"}"#,
        r#"# TYPE rd_wal_append_micros histogram"#,
        r#"rd_wal_append_micros_sum"#,
        r#"rd_wal_append_micros_count"#,
        r#"# TYPE rd_wal_fsync_micros histogram"#,
        r#"rd_wal_fsync_micros_sum"#,
        r#"rd_wal_fsync_micros_count"#,
    ];
    assert_eq!(shape, expected, "exposition:\n{text}");
    stop(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
