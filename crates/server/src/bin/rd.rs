//! `rd` — the command-line front end of the workspace.
//!
//! One-shot:
//!
//! ```text
//! rd --demo "SELECT DISTINCT Sailor.sname FROM Sailor"
//! rd --db instance.rdb --lang trc --translate "{ q(A) | exists r in R [ q.A = r.A ] }"
//! rd --db people.csv "pi[name](people)"
//! ```
//!
//! Interactive:
//!
//! ```text
//! rd --demo --repl
//! ```
//!
//! Service mode (see `crates/server`):
//!
//! ```text
//! rd serve --demo --addr 127.0.0.1:7878 --workers 8
//! rd bench-client --addr 127.0.0.1:7878 --threads 8 --requests 500
//! ```

use rd_engine::{
    demo_database, parse_csv, parse_fixture, render_fixture, DiagramFormat, Language, QueryRequest,
    Session,
};
use rd_server::{run_bench, BenchConfig, Client, Server, ServerConfig};
use std::io::{BufRead, Write};
use std::process::ExitCode;

const USAGE: &str = "\
rd — query sessions over the four relational languages of
     'The Reasonable Effectiveness of Relational Diagrams' (SIGMOD 2024)

USAGE:
    rd [OPTIONS] [QUERY]
    rd [OPTIONS] --repl
    rd serve [OPTIONS]
    rd bench-client --addr <ADDR> [OPTIONS]

OPTIONS:
    --db <FILE>       Load a database fixture (`Name(attr, ...):` header
                      lines followed by `(v1, v2)` rows), or a .csv file
                      (header row = attributes, table named after the file)
    --demo            Use the built-in sailors demo database
    --lang <LANG>     Query language: sql | trc | ra | datalog | auto
                      (default: auto — detected from the query text)
    --translate       Also print the cross-language translations
                      (TRC hub, Theorem 6)
    --diagram <FMT>   Also print the Relational Diagram: dot | svg | none
    --stats           Print session statistics before exiting
    --repl            Interactive mode (`:help` lists commands)
    -h, --help        Print this help
    -V, --version     Print version

SERVE OPTIONS (rd serve):
    --addr <ADDR>     Bind address (default 127.0.0.1:7878; use :0 for an
                      ephemeral port)
    --workers <N>     Request-serving threads = concurrent query
                      evaluations (default 8), divided across shards.
                      Each thread answers every request it reads, on
                      itself. Connections are multiplexed over them and
                      are not bounded by this.
    --shards <N>      Shards, each with its own epoll instance, connection
                      table, and slice of the --workers threads (default:
                      one per available core; 1 puts every thread on one
                      epoll instance)
    --parse-cache <N> Shared parse-cache capacity in entries (default 256)
    --eval-cache <N>  Shared result-cache capacity in entries (default 256)
    --no-eval-cache   Disable the result cache (every query re-evaluates)
    --plan-cache <N>  Shared compiled-plan-cache capacity in entries
                      (default 256)
    --no-plan-cache   Disable the plan cache (every evaluation re-compiles
                      its query plan)
    --eval-cache-max-bytes <N>
                      Size-aware admission: skip caching results larger
                      than N bytes (default 1048576; 0 caches everything)
    --stream-threshold <N>
                      Stream results with more than N rows as rows-chunk/
                      rows-end frames of N rows (default 1024; 0 disables)
    --max-line-bytes <N>
                      Reject request lines larger than N bytes with an
                      error and close the connection (default 16777216)
    --idle-timeout <SECS>
                      Evict connections with no traffic for SECS seconds
                      (default: never; surfaced as 'evicted' in stats)
    --drain-timeout <SECS>
                      How long shutdown waits for in-flight connections
                      to drain before force-closing (default 5)
    --data-dir <DIR>  Durable storage: recover the database from DIR on
                      boot (newest snapshot + WAL tail) and log every
                      mutation — fsynced — before acknowledging it.
                      --db/--demo only seed a fresh (empty) DIR.
    --slow-query-log <MICROS>
                      Log queries taking at least MICROS µs to stderr
                      with their per-stage breakdown, cache disposition,
                      and canonical text (default: off)
    --port-file <F>   Write the bound address to F once listening (for
                      scripts wrapping ephemeral ports)

BENCH OPTIONS (rd bench-client):
    --addr <ADDR>     Server to drive (required)
    --threads <N>     Client threads, one connection each (default 4)
    --requests <N>    Requests per thread (default 100)
    --pipeline <N>    Keep N requests in flight per connection using
                      pipeline ids (default 1 = lock-step round trips)
    --idle-conns <N>  Open N extra idle connections before the run and
                      hold them open throughout (flood mode: proves idle
                      clients don't consume workers). Connects are ramped
                      in chunks so tens of thousands of sockets open
                      without an accept storm; the report adds
                      connect-latency percentiles.
    --query <Q>       Add a query to the mix (repeatable; default: a
                      four-language demo mix)
    --sweep <LIST>    Sweep thread counts, e.g. --sweep 1,2,4,8 (one run
                      per width; --threads is ignored)
    --mutate-pct <N>  Replace N% of requests (0-100) with insert
                      mutations into the demo Reserves table; the report
                      adds mutation throughput alongside the latency
                      percentiles
    --csv             Emit one CSV row per run (throughput + latency
                      percentiles) instead of the human-readable report
    --json <FILE>     Write a machine-readable report to FILE: client
                      throughput, latency and connect-latency
                      percentiles, plus the server's per-stage
                      p50/p95/p99 breakdown and per-shard connection
                      distribution (comparable baselines come from
                      svcbench/, see BENCHMARK.json)
    --stats           Print the server's aggregated stats after the run
    --shutdown        Send {\"op\":\"shutdown\"} after the run

With no --db and no --demo, the demo database is used.
The wire protocol is JSON lines; see the README's server section.
";

struct Config {
    db: Option<String>,
    demo: bool,
    lang: Option<Language>,
    translate: bool,
    diagram: DiagramFormat,
    stats: bool,
    repl: bool,
    query: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Option<Config>, String> {
    let mut cfg = Config {
        db: None,
        demo: false,
        lang: None,
        translate: false,
        diagram: DiagramFormat::None,
        stats: false,
        repl: false,
        query: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            "-V" | "--version" => {
                println!("rd {}", env!("CARGO_PKG_VERSION"));
                return Ok(None);
            }
            "--db" => cfg.db = Some(it.next().ok_or("--db requires a file path")?.clone()),
            "--demo" => cfg.demo = true,
            "--lang" => {
                let value = it.next().ok_or("--lang requires a value")?;
                cfg.lang = match value.as_str() {
                    "auto" => None,
                    other => Some(other.parse::<Language>()?),
                };
            }
            "--translate" => cfg.translate = true,
            "--diagram" => {
                cfg.diagram = it.next().ok_or("--diagram requires a value")?.parse()?;
            }
            "--stats" => cfg.stats = true,
            "--repl" => cfg.repl = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}' (see --help)"));
            }
            query => {
                if cfg.query.is_some() {
                    return Err("more than one query given; quote the query text".into());
                }
                cfg.query = Some(query.to_string());
            }
        }
    }
    Ok(Some(cfg))
}

/// Loads a database from a path: the fixture format, or — for `.csv`
/// files — a single table named after the file stem.
fn load_database_path(path: &str) -> Result<rd_core::Database, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    if path.to_ascii_lowercase().ends_with(".csv") {
        let table = csv_table_name(path);
        let rel = parse_csv(&table, &text).map_err(|e| e.to_string())?;
        let mut db = rd_core::Database::new();
        db.add_relation(rel);
        Ok(db)
    } else {
        parse_fixture(&text).map_err(|e| format!("cannot parse fixture '{path}': {e}"))
    }
}

/// Derives a table name from a CSV path: the file stem with
/// non-identifier characters replaced by `_`.
fn csv_table_name(path: &str) -> String {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("csv");
    let mut name: String = stem
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if !name.chars().next().is_some_and(|c| c.is_alphabetic()) {
        name.insert(0, 'T');
    }
    name
}

fn load_database(cfg: &Config) -> Result<rd_core::Database, String> {
    match &cfg.db {
        Some(path) => load_database_path(path),
        None => Ok(demo_database()),
    }
}

fn print_response(resp: &rd_engine::QueryResponse) {
    println!("-- language: {} (canonical form below)", resp.language);
    println!("   {}", resp.canonical.trim_end().replace('\n', "\n   "));
    println!("{}", rd_core::pretty::render_relation(&resp.relation));
    if let Some(t) = &resp.translations {
        println!("-- translations (TRC hub):");
        println!("   trc:      {}", t.trc);
        if let Some(sql) = &t.sql {
            println!(
                "   sql:      {}",
                sql.trim_end().replace('\n', "\n             ")
            );
        }
        if let Some(dl) = &t.datalog {
            println!(
                "   datalog:  {}",
                dl.trim_end().replace('\n', "\n             ")
            );
        }
        if let Some(ra) = &t.ra {
            println!("   ra:       {ra}");
        }
        for note in &t.notes {
            println!("   note:     {note}");
        }
    }
    if let Some(d) = &resp.diagram {
        println!("-- diagram:\n{d}");
    }
    for note in &resp.notes {
        println!("-- note: {note}");
    }
}

fn print_stats(session: &Session) {
    let s = session.stats();
    println!(
        "-- stats: {} queries, {} batches; parse cache {} hits / {} misses / {} evictions ({:.0}% hit rate); eval cache {} hits / {} misses; {} rows returned",
        s.queries,
        s.batches,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.hit_rate() * 100.0,
        s.eval_hits,
        s.eval_misses,
        s.rows_returned
    );
}

const REPL_HELP: &str = "\
Enter a query to run it (end a line with '\\' to continue on the next).
Commands:
    :help                 this help
    :tables               list the database's tables
    :lang <l>             fix the language (sql|trc|ra|datalog) or 'auto'
    :translate on|off     toggle cross-language translations
    :diagram dot|svg|off  toggle diagram output
    :stats                session statistics
    :load <file>          replace the database (fixture, or single-table .csv)
    :load csv <file>      bulk-import one CSV table into the database
    :save <file>          write the database as a fixture file
    :insert <table> (v1, v2) ...   insert rows (a delta: caches over other
                          tables survive; duplicates apply 0)
    :delete <table> (v1, v2) ...   delete rows (absent rows are no-ops)
    :checkpoint <dir>     write a durable snapshot of the database into a
                          data directory (the `rd serve --data-dir` layout)
    :quit                 exit
";

fn repl(session: &mut Session, cfg: &Config) -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut lang = cfg.lang;
    let mut translate = cfg.translate;
    let mut diagram = cfg.diagram;
    let mut buffer = String::new();
    eprintln!(
        "rd repl — {} tables, language: {}. :help for commands.",
        session.database().len(),
        lang.map_or("auto".to_string(), |l| l.to_string()),
    );
    prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        // Continuation: a trailing backslash joins lines.
        if let Some(stripped) = line.strip_suffix('\\') {
            buffer.push_str(stripped);
            buffer.push(' ');
            prompt(&buffer);
            continue;
        }
        buffer.push_str(&line);
        let input = std::mem::take(&mut buffer);
        let input = input.trim();
        if input.is_empty() {
            prompt(&buffer);
            continue;
        }
        if let Some(cmd) = input.strip_prefix(':') {
            let mut parts = cmd.split_whitespace();
            match (parts.next().unwrap_or(""), parts.next()) {
                ("help", _) => print!("{REPL_HELP}"),
                ("tables", _) => {
                    let db = session.database();
                    for schema in session.catalog().iter() {
                        println!(
                            "{}({}) — {} tuples",
                            schema.name(),
                            schema.attrs().join(", "),
                            db.relation(schema.name()).map_or(0, |r| r.len())
                        );
                    }
                }
                ("lang", Some("auto")) => lang = None,
                ("lang", Some(l)) => match l.parse::<Language>() {
                    Ok(l) => lang = Some(l),
                    Err(e) => eprintln!("error: {e}"),
                },
                ("lang", None) => eprintln!(
                    "language: {}",
                    lang.map_or("auto".to_string(), |l| l.to_string())
                ),
                ("translate", Some("on")) => translate = true,
                ("translate", Some("off")) => translate = false,
                ("diagram", Some(name)) => {
                    // `off` is the REPL's alias for `none`.
                    let name = if name == "off" { "none" } else { name };
                    match name.parse() {
                        Ok(format) => diagram = format,
                        Err(e) => eprintln!("error: {e}"),
                    }
                }
                ("stats", _) => print_stats(session),
                ("load", Some("csv")) => match parts.next() {
                    Some(path) => match std::fs::read_to_string(path)
                        .map_err(|e| e.to_string())
                        .and_then(|t| {
                            parse_csv(&csv_table_name(path), &t).map_err(|e| e.to_string())
                        }) {
                        Ok(rel) => {
                            eprintln!(
                                "imported {}({}) — {} tuples",
                                rel.name(),
                                rel.schema().attrs().join(", "),
                                rel.len()
                            );
                            let mut db = (*session.database()).clone();
                            db.add_relation(rel);
                            session.set_database(db);
                        }
                        Err(e) => eprintln!("error: {e}"),
                    },
                    None => eprintln!("usage: :load csv <file>"),
                },
                ("load", Some(path)) => match load_database_path(path) {
                    Ok(db) => {
                        eprintln!("loaded {} tables from '{path}'", db.len());
                        session.set_database(db);
                    }
                    Err(e) => eprintln!("error: {e}"),
                },
                ("load", None) => eprintln!("usage: :load <file> | :load csv <file>"),
                ("save", Some(path)) => {
                    let text = render_fixture(&session.database());
                    match std::fs::write(path, &text) {
                        Ok(()) => eprintln!(
                            "saved {} tables ({} bytes) to '{path}'",
                            session.database().len(),
                            text.len()
                        ),
                        Err(e) => eprintln!("error: cannot write '{path}': {e}"),
                    }
                }
                ("save", None) => eprintln!("usage: :save <file>"),
                (op @ ("insert" | "delete"), Some(table)) => {
                    let rows_text: String = parts.collect::<Vec<_>>().join(" ");
                    match repl_mutate(session, op == "insert", table, &rows_text) {
                        Ok(outcome) => eprintln!(
                            "{} {} row(s) in {table} — generation {}",
                            if op == "insert" {
                                "inserted"
                            } else {
                                "deleted"
                            },
                            outcome.applied,
                            outcome.generation,
                        ),
                        Err(e) => eprintln!("error: {e}"),
                    }
                }
                ("insert" | "delete", None) => {
                    eprintln!(
                        "usage: :insert <table> (v1, v2) ...  /  :delete <table> (v1, v2) ..."
                    )
                }
                ("checkpoint", Some(dir)) => match repl_checkpoint(session, dir) {
                    Ok(seq) => eprintln!("checkpoint {seq} written to '{dir}'"),
                    Err(e) => eprintln!("error: {e}"),
                },
                ("checkpoint", None) => eprintln!("usage: :checkpoint <dir>"),
                ("quit" | "q" | "exit", _) => break,
                (other, _) => eprintln!("unknown command ':{other}' (try :help)"),
            }
            prompt(&buffer);
            continue;
        }
        let req = QueryRequest {
            translations: translate,
            diagram,
            ..QueryRequest::named_or_auto(lang, input)
        };
        match session.run(&req) {
            Ok(resp) => print_response(&resp),
            Err(e) => eprintln!("error: {e}"),
        }
        prompt(&buffer);
    }
    Ok(())
}

/// Applies one REPL insert/delete: the row text is parsed by wrapping
/// it in a one-table fixture under the table's real schema, so values
/// use the familiar `(1, 'red')` row syntax.
fn repl_mutate(
    session: &Session,
    insert: bool,
    table: &str,
    rows_text: &str,
) -> Result<rd_engine::MutationOutcome, String> {
    let catalog = session.catalog();
    let schema = catalog
        .table(table)
        .ok_or_else(|| format!("unknown table '{table}'"))?;
    if rows_text.trim().is_empty() {
        return Err("no rows given — expected (v1, v2) ...".into());
    }
    let fixture = format!(
        "{}({}):\n {}\n",
        table,
        schema.attrs().join(", "),
        rows_text
    );
    let db = parse_fixture(&fixture).map_err(|e| format!("cannot parse rows: {e}"))?;
    let rel = db.require(table).map_err(|e| e.to_string())?;
    // Resolve interned symbols back to strings before crossing into the
    // session's database (its symbol table is a different one).
    let rows: Vec<rd_core::Tuple> = db.resolve_relation(rel).iter().cloned().collect();
    let result = if insert {
        session.shared().insert_rows(table, &rows)
    } else {
        session.shared().delete_rows(table, &rows)
    };
    result.map_err(|e| e.to_string())
}

/// Writes a durable snapshot of the session's database into `dir`
/// (creating or reusing an `rd serve --data-dir` layout).
fn repl_checkpoint(session: &Session, dir: &str) -> Result<u64, String> {
    let (_, mut store) = rd_store::Store::open(dir).map_err(|e| e.to_string())?;
    store
        .checkpoint(&session.database())
        .map_err(|e| e.to_string())
}

fn prompt(buffer: &str) {
    if buffer.is_empty() {
        eprint!("rd> ");
    } else {
        eprint!("  > ");
    }
    let _ = std::io::stderr().flush();
}

// ---------------------------------------------------------------------
// rd serve
// ---------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut server_cfg = ServerConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServerConfig::default()
    };
    let mut db_path: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => server_cfg.addr = it.next().ok_or("--addr requires a value")?.clone(),
            "--db" => db_path = Some(it.next().ok_or("--db requires a file path")?.clone()),
            "--demo" => db_path = None,
            "--workers" => {
                server_cfg.workers = parse_count(it.next(), "--workers")?;
            }
            "--shards" => {
                server_cfg.shards = parse_count(it.next(), "--shards")?;
            }
            "--parse-cache" => {
                server_cfg.parse_cache_capacity = parse_count(it.next(), "--parse-cache")?;
            }
            "--eval-cache" => {
                server_cfg.eval_cache_capacity = parse_count(it.next(), "--eval-cache")?;
            }
            "--no-eval-cache" => server_cfg.eval_cache = false,
            "--plan-cache" => {
                server_cfg.plan_cache_capacity = parse_count(it.next(), "--plan-cache")?;
            }
            "--no-plan-cache" => server_cfg.plan_cache = false,
            "--eval-cache-max-bytes" => {
                server_cfg.eval_cache_max_entry_bytes =
                    parse_count(it.next(), "--eval-cache-max-bytes")?;
            }
            "--stream-threshold" => {
                server_cfg.stream_threshold = parse_count(it.next(), "--stream-threshold")?;
            }
            "--max-line-bytes" => {
                server_cfg.max_line_bytes = parse_count(it.next(), "--max-line-bytes")?;
            }
            "--idle-timeout" => {
                let secs = parse_count(it.next(), "--idle-timeout")?;
                server_cfg.idle_timeout = if secs == 0 {
                    None
                } else {
                    Some(std::time::Duration::from_secs(secs as u64))
                };
            }
            "--drain-timeout" => {
                let secs = parse_count(it.next(), "--drain-timeout")?;
                server_cfg.drain_timeout = std::time::Duration::from_secs(secs as u64);
            }
            "--data-dir" => {
                let dir = it.next().ok_or("--data-dir requires a directory")?;
                server_cfg.data_dir = Some(std::path::PathBuf::from(dir));
            }
            "--slow-query-log" => {
                server_cfg.slow_query_log =
                    Some(parse_count(it.next(), "--slow-query-log")? as u64);
            }
            "--port-file" => {
                port_file = Some(it.next().ok_or("--port-file requires a path")?.clone());
            }
            other => return Err(format!("unknown serve option '{other}' (see --help)")),
        }
    }
    let db = match &db_path {
        Some(path) => load_database_path(path)?,
        None => demo_database(),
    };
    let server = Server::bind(server_cfg.clone(), db)
        .map_err(|e| format!("cannot bind '{}': {e}", server_cfg.addr))?;
    let addr = server.local_addr();
    if let Some(path) = &port_file {
        std::fs::write(path, addr.to_string())
            .map_err(|e| format!("cannot write port file '{path}': {e}"))?;
    }
    eprintln!(
        "rd-server listening on {addr} — {} epoll shard{}, {} workers, eval cache {}{}",
        server.shard_count(),
        if server.shard_count() == 1 { "" } else { "s" },
        server_cfg.workers,
        if server_cfg.eval_cache { "on" } else { "off" },
        server_cfg
            .data_dir
            .as_ref()
            .map_or(String::new(), |d| format!(", durable at {}", d.display())),
    );
    eprintln!("protocol: JSON lines; try  echo '{{\"op\":\"ping\"}}' | nc {addr}");
    server.serve().map_err(|e| format!("server error: {e}"))?;
    eprintln!("rd-server: shutdown complete");
    Ok(())
}

fn parse_count(arg: Option<&String>, flag: &str) -> Result<usize, String> {
    arg.ok_or_else(|| format!("{flag} requires a value"))?
        .parse::<usize>()
        .map_err(|_| format!("{flag} requires an integer"))
}

// ---------------------------------------------------------------------
// rd bench-client
// ---------------------------------------------------------------------

fn cmd_bench_client(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut threads = 4usize;
    let mut requests = 100usize;
    let mut pipeline = 1usize;
    let mut idle_conns = 0usize;
    let mut queries: Vec<(Option<Language>, String)> = Vec::new();
    let mut show_stats = false;
    let mut shutdown = false;
    let mut sweep: Option<Vec<usize>> = None;
    let mut csv = false;
    let mut json_path: Option<String> = None;
    let mut mutate_pct = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr requires a value")?.clone()),
            "--threads" => threads = parse_count(it.next(), "--threads")?,
            "--requests" => requests = parse_count(it.next(), "--requests")?,
            "--pipeline" => pipeline = parse_count(it.next(), "--pipeline")?.max(1),
            "--idle-conns" => idle_conns = parse_count(it.next(), "--idle-conns")?,
            "--query" => {
                let q = it.next().ok_or("--query requires query text")?.clone();
                queries.push((None, q));
            }
            "--sweep" => {
                let list = it.next().ok_or("--sweep requires a list, e.g. 1,2,4,8")?;
                let widths = list
                    .split(',')
                    .map(|w| w.trim().parse::<usize>().map_err(|_| w))
                    .collect::<Result<Vec<usize>, _>>()
                    .map_err(|w| format!("--sweep: '{w}' is not a thread count"))?;
                if widths.is_empty() || widths.contains(&0) {
                    return Err("--sweep requires positive thread counts".into());
                }
                sweep = Some(widths);
            }
            "--csv" => csv = true,
            "--json" => {
                json_path = Some(it.next().ok_or("--json requires a file path")?.clone());
            }
            "--mutate-pct" => {
                mutate_pct = parse_count(it.next(), "--mutate-pct")?;
                if mutate_pct > 100 {
                    return Err("--mutate-pct takes a percentage (0-100)".into());
                }
            }
            "--stats" => show_stats = true,
            "--shutdown" => shutdown = true,
            other => {
                return Err(format!(
                    "unknown bench-client option '{other}' (see --help)"
                ))
            }
        }
    }
    let addr = addr.ok_or("bench-client requires --addr <host:port>")?;
    let widths = sweep.unwrap_or_else(|| vec![threads]);
    if csv {
        println!(
            "threads,requests_per_thread,ok,errors,elapsed_s,throughput_rps,\
             p50_us,p95_us,p99_us,max_us,parse_hits,eval_hits,mutations,mutations_per_s"
        );
    }
    let mut total_errors = 0u64;
    let mut json_report: Option<rd_server::BenchReport> = None;
    for &width in &widths {
        let mut cfg = BenchConfig::new(addr.clone());
        cfg.threads = width;
        cfg.requests = requests;
        cfg.pipeline = pipeline;
        cfg.idle_conns = idle_conns;
        cfg.mutate_pct = mutate_pct;
        if !queries.is_empty() {
            cfg.mix = queries.clone();
        }
        eprintln!(
            "rd bench-client — {} threads x {} requests against {addr}\
             {}{}{}",
            cfg.threads,
            cfg.requests,
            if cfg.pipeline > 1 {
                format!(", pipeline depth {}", cfg.pipeline)
            } else {
                String::new()
            },
            if cfg.idle_conns > 0 {
                format!(", {} idle connections", cfg.idle_conns)
            } else {
                String::new()
            },
            if cfg.mutate_pct > 0 {
                format!(", {}% mutations", cfg.mutate_pct)
            } else {
                String::new()
            },
        );
        let report = run_bench(&cfg).map_err(|e| format!("bench failed: {e}"))?;
        total_errors += report.errors;
        if csv {
            let us = |p: f64| report.percentile(p).map_or(0, |d| d.as_micros());
            println!(
                "{width},{requests},{},{},{:.3},{:.1},{},{},{},{},{},{},{},{:.1}",
                report.completed,
                report.errors,
                report.elapsed.as_secs_f64(),
                report.throughput(),
                us(0.50),
                us(0.95),
                us(0.99),
                us(1.0),
                report.cache_hits,
                report.eval_cache_hits,
                report.mutations,
                report.mutation_throughput(),
            );
        } else {
            println!("{}", report.render());
        }
        // A sweep's file keeps the last (widest) run.
        json_report = Some(report);
    }
    if let Some(path) = &json_path {
        let report = json_report.as_ref().ok_or("no bench run to report")?;
        // The per-stage breakdown and per-shard distribution come from
        // the server's stats; a server without them (older build) still
        // yields a client-side-only file.
        let (stages, shards) = Client::connect(&addr)
            .and_then(|mut c| c.stats())
            .map(|s| (s.stages, s.shards))
            .unwrap_or_default();
        let mut text = report.render_json(&stages, &shards);
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write '{path}': {e}"))?;
        eprintln!("wrote {path}");
    }
    if show_stats || shutdown {
        let mut client =
            Client::connect(&addr).map_err(|e| format!("cannot reconnect to {addr}: {e}"))?;
        if show_stats {
            let s = client.stats().map_err(|e| format!("stats failed: {e}"))?;
            println!(
                "server:   {} connections ({} active, {} evicted), {} requests, {} errors, {} workers",
                s.connections, s.active_connections, s.evicted, s.requests, s.errors, s.workers
            );
            if !s.shards.is_empty() {
                let spread: Vec<String> = s
                    .shards
                    .iter()
                    .map(|sh| {
                        format!(
                            "s{}: {} ({} active, {} evicted)",
                            sh.shard, sh.connections, sh.active, sh.evicted
                        )
                    })
                    .collect();
                println!("shards:   {}", spread.join(", "));
            }
            println!(
                "sessions: {} queries; parse {} hits / {} misses; eval {} hits / {} misses (cache {})",
                s.sessions.queries,
                s.sessions.cache_hits,
                s.sessions.cache_misses,
                s.sessions.eval_hits,
                s.sessions.eval_misses,
                if s.eval_cache_enabled { "on" } else { "off" },
            );
            println!(
                "db:       {} tables, {} tuples, generation {}, fingerprint {}",
                s.tables, s.tuples, s.generation, s.fingerprint
            );
        }
        if shutdown {
            client
                .shutdown()
                .map_err(|e| format!("shutdown failed: {e}"))?;
            eprintln!("sent shutdown");
        }
    }
    if total_errors > 0 {
        return Err(format!("{total_errors} requests returned errors"));
    }
    Ok(())
}

// ---------------------------------------------------------------------

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands first: `rd serve ...` / `rd bench-client ...`.
    match args.first().map(String::as_str) {
        Some("serve") => {
            return match cmd_serve(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("bench-client") => {
            return match cmd_bench_client(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {}
    }
    let cfg = match parse_args(&args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg.query.is_none() && !cfg.repl {
        eprintln!("error: no query given and --repl not set (see --help)");
        return ExitCode::from(2);
    }
    let db = match load_database(&cfg) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg.db.is_none() && !cfg.demo {
        eprintln!("(no --db given; using the built-in sailors demo database)");
    }
    let mut session = Session::new(db);
    if let Some(query) = &cfg.query {
        let req = QueryRequest {
            translations: cfg.translate,
            diagram: cfg.diagram,
            ..QueryRequest::named_or_auto(cfg.lang, query.as_str())
        };
        match session.run(&req) {
            Ok(resp) => print_response(&resp),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if cfg.repl {
        if let Err(e) = repl(&mut session, &cfg) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if cfg.stats {
        print_stats(&session);
    }
    ExitCode::SUCCESS
}
