//! Wire-level observability tests: `explain analyze` row counts, the
//! `metrics` exposition text, and `stats` reset windows — all through a
//! real socket against the demo database.

use rd_engine::{demo_database, EngineShared, Language, QueryRequest, Session, SessionStats};
use rd_server::{Client, Response, Server, ServerConfig};
use std::net::SocketAddr;
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
    for family in [
        "rd_reactor_loop_micros",
        "rd_conn_queue_depth",
        "rd_pool_wait_micros",
    ] {
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

    // Two more queries, then a second reset: only the new window.
    for (lang, text) in queries.iter().take(2) {
        client.query(Some(*lang), text).expect("query");
    }
    let second = client.stats_reset().expect("stats reset");
    assert_eq!(
        second.sessions.queries, 2,
        "reset window must cover only traffic since the last reset"
    );
    // Gauges are never windowed.
    assert_eq!(second.tables, 3);
    assert!(second.workers > 0);
    assert_eq!(second.active_connections, 1);

    // Plain stats still reports cumulative-since-boot counters.
    let plain = client.stats().expect("stats");
    assert_eq!(plain.sessions.queries, queries.len() as u64 + 2);

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

/// The shard loop answers repeated queries from the caches; the pool
/// runs the rest. Either way each query is counted exactly once: a
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
                // A whitespace twin: a parse miss that hits the eval cache.
                sequence.push((*lang, format!("{text} ")));
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
    for (lang, text) in &sequence {
        session
            .run(&QueryRequest::new(*lang, text.as_str()))
            .unwrap();
    }
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
    assert_eq!(
        count_samples(&text, "rd_query_latency_micros"),
        shared.metrics().requests()
    );
    let inline_samples: u64 = text
        .lines()
        .filter(|l| l.starts_with("rd_requests_inline_total{shard="))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(inline_samples, inline, "metrics and stats agree:\n{text}");
}
