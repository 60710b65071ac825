//! A blocking client for the JSON-lines protocol — one-shot or
//! pipelined — plus the multi-thread load driver behind `rd
//! bench-client`.

use crate::protocol::{
    self, LoadSource, Reassembler, Request, RequestId, Response, ShardBreakdown, StageLatency,
    StatsResult,
};
use rd_core::Value;
use rd_engine::{DiagramFormat, Language};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One connection to an `rd serve` instance.
///
/// [`Client::request`] is the classic lock-step call. For pipelining,
/// interleave [`Client::send`] (tagging each request with an id) with
/// [`Client::recv`]; streamed results are reassembled transparently in
/// both modes.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reassembler: Reassembler,
}

fn proto_err(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

impl Client {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            reassembler: Reassembler::new(),
        })
    }

    /// Sends one request without waiting for its response; `id` (echoed
    /// by the server) lets the caller match responses when several
    /// requests are in flight.
    pub fn send(&mut self, request: &Request, id: Option<&RequestId>) -> std::io::Result<()> {
        let mut line = protocol::encode_frame(request, id);
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Sends several tagged requests in a single write — one TCP
    /// segment's worth of pipeline refill instead of one syscall per
    /// request.
    pub fn send_batch(&mut self, batch: &[(Request, Option<RequestId>)]) -> std::io::Result<()> {
        let mut bytes = String::new();
        for (request, id) in batch {
            bytes.push_str(&protocol::encode_frame(request, id.as_ref()));
            bytes.push('\n');
        }
        self.writer.write_all(bytes.as_bytes())
    }

    /// `true` when at least one complete frame line is already buffered,
    /// so the next [`Client::recv`] will not block on the socket for it
    /// (it may still block if that frame *opens* a chunked stream whose
    /// remainder is in flight).
    pub fn response_buffered(&self) -> bool {
        self.reader.buffer().contains(&b'\n')
    }

    /// Receives the next complete response (reading and reassembling
    /// `rows-chunk` streams as needed) together with its echoed id.
    pub fn recv(&mut self) -> std::io::Result<(Option<RequestId>, Response)> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let (id, frame) = protocol::decode_frame(line.trim()).map_err(proto_err)?;
            if let Some(complete) = self.reassembler.accept(id, frame).map_err(proto_err)? {
                return Ok(complete);
            }
        }
    }

    /// Sends one request and reads the one response (lock-step).
    pub fn request(&mut self, request: &Request) -> std::io::Result<Response> {
        self.send(request, None)?;
        Ok(self.recv()?.1)
    }

    /// Runs one query (language auto-detected when `None`).
    pub fn query(&mut self, language: Option<Language>, text: &str) -> std::io::Result<Response> {
        self.request(&Request::Query {
            language,
            text: text.to_string(),
            translations: false,
            diagram: DiagramFormat::None,
        })
    }

    /// Fetches one query's compiled plan as an explain tree (language
    /// auto-detected when `None`).
    pub fn explain(&mut self, language: Option<Language>, text: &str) -> std::io::Result<Response> {
        self.request(&Request::Explain {
            language,
            text: text.to_string(),
            analyze: false,
        })
    }

    /// Executes one query and fetches its plan annotated with estimated
    /// vs actual per-operator row counts (language auto-detected when
    /// `None`).
    pub fn explain_analyze(
        &mut self,
        language: Option<Language>,
        text: &str,
    ) -> std::io::Result<Response> {
        self.request(&Request::Explain {
            language,
            text: text.to_string(),
            analyze: true,
        })
    }

    /// Translates one query into `to` through the TRC hub (source
    /// language auto-detected when `None`).
    pub fn translate(
        &mut self,
        language: Option<Language>,
        text: &str,
        to: Language,
    ) -> std::io::Result<Response> {
        self.request(&Request::Translate {
            language,
            text: text.to_string(),
            to,
        })
    }

    /// Replaces the server's database with a fixture.
    pub fn load_fixture(&mut self, fixture: &str) -> std::io::Result<Response> {
        self.request(&Request::Load(LoadSource::Fixture(fixture.to_string())))
    }

    /// Bulk-imports one CSV table into the server's database.
    pub fn load_csv(&mut self, table: &str, csv: &str) -> std::io::Result<Response> {
        self.request(&Request::Load(LoadSource::Csv {
            table: table.to_string(),
            text: csv.to_string(),
        }))
    }

    /// Inserts a batch of tuples into one table (durable before the
    /// reply when the server runs with `--data-dir`).
    pub fn insert(&mut self, table: &str, rows: Vec<Vec<Value>>) -> std::io::Result<Response> {
        self.request(&Request::Insert {
            table: table.to_string(),
            rows,
        })
    }

    /// Deletes a batch of tuples from one table (absent rows are
    /// no-ops; same durability contract as [`Client::insert`]).
    pub fn delete(&mut self, table: &str, rows: Vec<Vec<Value>>) -> std::io::Result<Response> {
        self.request(&Request::Delete {
            table: table.to_string(),
            rows,
        })
    }

    /// Forces a point-in-time snapshot and a fresh WAL segment.
    pub fn checkpoint(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Checkpoint)
    }

    /// Fetches aggregated statistics.
    pub fn stats(&mut self) -> std::io::Result<StatsResult> {
        self.stats_request(false)
    }

    /// Fetches the counter growth since the previous reset (or boot)
    /// and zeroes that interval window on the server.
    pub fn stats_reset(&mut self) -> std::io::Result<StatsResult> {
        self.stats_request(true)
    }

    fn stats_request(&mut self, reset: bool) -> std::io::Result<StatsResult> {
        match self.request(&Request::Stats { reset })? {
            Response::Stats(stats) => Ok(stats),
            Response::Error(e) => Err(proto_err(e)),
            other => Err(proto_err(format!("expected stats reply, got {other:?}"))),
        }
    }

    /// Fetches the latency-histogram registry as Prometheus-style text.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m.text),
            Response::Error(e) => Err(proto_err(e)),
            other => Err(proto_err(format!("expected metrics reply, got {other:?}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> std::io::Result<()> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(proto_err(format!("expected pong, got {other:?}"))),
        }
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(proto_err(format!("expected bye, got {other:?}"))),
        }
    }
}

/// Tuning for [`run_bench`].
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Server address.
    pub addr: String,
    /// Client threads (each with its own connection).
    pub threads: usize,
    /// Requests per thread.
    pub requests: usize,
    /// Requests kept in flight per connection. `1` is the classic
    /// request/response lock-step; larger values pipeline (requests are
    /// tagged with ids and matched to responses as they arrive).
    pub pipeline: usize,
    /// Extra connections opened before the run and held open — idle —
    /// until it finishes. Against a reactor these cost one epoll entry
    /// each; against one pinned thread per connection they would starve
    /// the bench threads.
    pub idle_conns: usize,
    /// The query mix, fired round-robin. `None` language auto-detects.
    pub mix: Vec<(Option<Language>, String)>,
    /// Percentage of requests (0–100) replaced by insert mutations into
    /// the demo `Reserves` table, spread deterministically through the
    /// run. Exercises the delta-aware invalidation path under load.
    pub mutate_pct: usize,
}

impl BenchConfig {
    /// A benchmark against `addr` with the default four-language demo
    /// query mix.
    pub fn new(addr: impl Into<String>) -> Self {
        BenchConfig {
            addr: addr.into(),
            threads: 4,
            requests: 100,
            pipeline: 1,
            idle_conns: 0,
            mix: default_mix(),
            mutate_pct: 0,
        }
    }
}

/// The default load mix: the same conjunctive pattern in all four
/// languages plus a projection, over the demo sailors schema.
pub fn default_mix() -> Vec<(Option<Language>, String)> {
    vec![
        (
            Some(Language::Sql),
            "SELECT DISTINCT Sailor.sname FROM Sailor, Reserves \
             WHERE Sailor.sid = Reserves.sid"
                .into(),
        ),
        (
            Some(Language::Trc),
            "{ q(sname) | exists s in Sailor [ q.sname = s.sname and \
               exists r in Reserves [ r.sid = s.sid ] ] }"
                .into(),
        ),
        (Some(Language::Ra), "pi[color](Boat)".into()),
        (
            Some(Language::Datalog),
            "Q(n) :- Sailor(s, n), Reserves(s, b).".into(),
        ),
    ]
}

/// What one [`run_bench`] run measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that returned an error response.
    pub errors: u64,
    /// Mutations among the completed requests (`mutate_pct` > 0).
    pub mutations: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Parse-cache hits observed in responses.
    pub cache_hits: u64,
    /// Eval-cache hits observed in responses.
    pub eval_cache_hits: u64,
    /// Per-request latencies, sorted ascending.
    pub latencies: Vec<Duration>,
    /// Per-socket connect latencies for the idle flood (one entry per
    /// `idle_conns` socket), sorted ascending. Empty without a flood.
    pub connect_latencies: Vec<Duration>,
}

impl BenchReport {
    /// Requests per second over the whole run.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.completed + self.errors) as f64 / secs
        }
    }

    /// The `p`-th latency percentile (0.0..=1.0), if any requests ran.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        if self.latencies.is_empty() {
            return None;
        }
        let rank = ((self.latencies.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        Some(self.latencies[rank])
    }

    /// The `p`-th connect-latency percentile (0.0..=1.0), if an idle
    /// flood ran.
    pub fn connect_percentile(&self, p: f64) -> Option<Duration> {
        if self.connect_latencies.is_empty() {
            return None;
        }
        let rank = ((self.connect_latencies.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        Some(self.connect_latencies[rank])
    }

    /// Mutations per second over the whole run (0 with no mutations).
    pub fn mutation_throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.mutations as f64 / secs
        }
    }

    /// A one-screen human-readable rendering.
    pub fn render(&self) -> String {
        let pct = |p: f64| {
            self.percentile(p)
                .map_or("-".to_string(), |d| format!("{:.2?}", d))
        };
        let mut out = format!(
            "requests: {} ok, {} errors in {:.2?} ({:.0} req/s)\n\
             latency:  p50 {} / p95 {} / p99 {} / max {}\n\
             caches:   {} parse hits, {} eval hits",
            self.completed,
            self.errors,
            self.elapsed,
            self.throughput(),
            pct(0.50),
            pct(0.95),
            pct(0.99),
            pct(1.0),
            self.cache_hits,
            self.eval_cache_hits,
        );
        if self.mutations > 0 {
            out.push_str(&format!(
                "\nmutations: {} applied ({:.0} mut/s) interleaved with queries",
                self.mutations,
                self.mutation_throughput(),
            ));
        }
        if !self.connect_latencies.is_empty() {
            let cpct = |p: f64| {
                self.connect_percentile(p)
                    .map_or("-".to_string(), |d| format!("{:.2?}", d))
            };
            out.push_str(&format!(
                "\nconnect:  {} sockets, p50 {} / p95 {} / p99 {} / max {}",
                self.connect_latencies.len(),
                cpct(0.50),
                cpct(0.95),
                cpct(0.99),
                cpct(1.0),
            ));
        }
        out
    }

    /// A machine-readable rendering for `rd bench-client --json`:
    /// client-side throughput, latency and connect-latency percentiles,
    /// plus the server's per-stage breakdown and per-shard connection
    /// distribution when its stats were fetched. Successive runs' files
    /// diff cleanly (stable key order, one object).
    pub fn render_json(&self, stages: &[StageLatency], shards: &[ShardBreakdown]) -> String {
        use serde::{json::Value as Json, Serialize};
        let micros = |p: f64| {
            self.percentile(p)
                .map_or(0, |d| d.as_micros().min(u64::MAX as u128)) as i64
        };
        let cmicros = |p: f64| {
            self.connect_percentile(p)
                .map_or(0, |d| d.as_micros().min(u64::MAX as u128)) as i64
        };
        let pairs = vec![
            ("completed".to_string(), Json::Int(self.completed as i64)),
            ("errors".to_string(), Json::Int(self.errors as i64)),
            ("mutations".to_string(), Json::Int(self.mutations as i64)),
            (
                "elapsed_micros".to_string(),
                Json::Int(self.elapsed.as_micros().min(i64::MAX as u128) as i64),
            ),
            ("throughput_rps".to_string(), Json::Float(self.throughput())),
            (
                "latency_micros".to_string(),
                Json::Object(vec![
                    ("p50".into(), Json::Int(micros(0.50))),
                    ("p95".into(), Json::Int(micros(0.95))),
                    ("p99".into(), Json::Int(micros(0.99))),
                    ("max".into(), Json::Int(micros(1.0))),
                ]),
            ),
            ("cache_hits".to_string(), Json::Int(self.cache_hits as i64)),
            (
                "eval_cache_hits".to_string(),
                Json::Int(self.eval_cache_hits as i64),
            ),
            (
                "connect_latency_micros".to_string(),
                Json::Object(vec![
                    (
                        "count".into(),
                        Json::Int(self.connect_latencies.len() as i64),
                    ),
                    ("p50".into(), Json::Int(cmicros(0.50))),
                    ("p95".into(), Json::Int(cmicros(0.95))),
                    ("p99".into(), Json::Int(cmicros(0.99))),
                    ("max".into(), Json::Int(cmicros(1.0))),
                ]),
            ),
            ("stages".to_string(), stages.to_json()),
            ("shards".to_string(), shards.to_json()),
        ];
        Json::Object(pairs).to_pretty()
    }
}

#[derive(Default)]
struct ThreadReport {
    completed: u64,
    errors: u64,
    mutations: u64,
    cache_hits: u64,
    eval_cache_hits: u64,
    latencies: Vec<Duration>,
}

impl ThreadReport {
    fn record(&mut self, response: &Response, latency: Duration) {
        self.latencies.push(latency);
        match response {
            Response::Query(q) => {
                self.completed += 1;
                self.cache_hits += q.cache_hit as u64;
                self.eval_cache_hits += q.eval_cache_hit as u64;
            }
            Response::Mutation(_) => {
                self.completed += 1;
                self.mutations += 1;
            }
            _ => self.errors += 1,
        }
    }
}

/// The `i`-th request of bench thread `thread`: an insert of a fresh
/// `Reserves` row when the deterministic spread picks a mutation slot,
/// the next mix query otherwise. Sids are unique per (thread, i) so
/// every insert actually applies.
fn bench_request(
    thread: usize,
    i: usize,
    mix: &[(Option<Language>, String)],
    mutate_pct: usize,
) -> Request {
    if mutate_pct > 0 && (i * 37 + thread * 11) % 100 < mutate_pct {
        Request::Insert {
            table: "Reserves".into(),
            rows: vec![vec![
                Value::Int(((thread as i64) << 32) | i as i64),
                Value::Int(101),
            ]],
        }
    } else {
        let (language, text) = &mix[(thread + i) % mix.len()];
        Request::Query {
            language: *language,
            text: text.clone(),
            translations: false,
            diagram: DiagramFormat::None,
        }
    }
}

/// One bench connection firing `requests` queries (and mutations, with
/// `mutate_pct` > 0) lock-step.
fn drive_lockstep(
    client: &mut Client,
    thread: usize,
    requests: usize,
    mix: &[(Option<Language>, String)],
    mutate_pct: usize,
) -> std::io::Result<ThreadReport> {
    let mut report = ThreadReport::default();
    for i in 0..requests {
        // Offset by thread id so threads collide on the same queries at
        // different times.
        let request = bench_request(thread, i, mix, mutate_pct);
        let sent = Instant::now();
        let response = client.request(&request)?;
        report.record(&response, sent.elapsed());
    }
    Ok(report)
}

/// One bench connection keeping up to `depth` tagged requests in
/// flight: fill the window, then — each round — drain every response
/// the server already delivered and refill the window with one batched
/// write. Per-request latency is still send→response, matched by id.
fn drive_pipelined(
    client: &mut Client,
    thread: usize,
    requests: usize,
    depth: usize,
    mix: &[(Option<Language>, String)],
    mutate_pct: usize,
) -> std::io::Result<ThreadReport> {
    let mut report = ThreadReport::default();
    let mut sent_at: HashMap<i64, Instant> = HashMap::new();
    let mut next = 0usize;
    let build = |next: &mut usize, sent_at: &mut HashMap<i64, Instant>| {
        let id = RequestId::Int(*next as i64);
        sent_at.insert(*next as i64, Instant::now());
        let request = bench_request(thread, *next, mix, mutate_pct);
        *next += 1;
        (request, Some(id))
    };
    let window: Vec<_> = (0..requests.min(depth))
        .map(|_| build(&mut next, &mut sent_at))
        .collect();
    client.send_batch(&window)?;
    let mut received = 0usize;
    while received < requests {
        // One blocking receive, then drain whatever else already landed.
        let mut drained = 0usize;
        loop {
            let (id, response) = client.recv()?;
            received += 1;
            drained += 1;
            let latency = match id {
                Some(RequestId::Int(i)) => sent_at
                    .remove(&i)
                    .map(|at| at.elapsed())
                    .ok_or_else(|| proto_err(format!("response for unknown id {i}")))?,
                other => return Err(proto_err(format!("missing or foreign id: {other:?}"))),
            };
            report.record(&response, latency);
            if received >= requests || !client.response_buffered() {
                break;
            }
        }
        // Refill the window in one write.
        let refill: Vec<_> = (0..drained.min(requests - next))
            .map(|_| build(&mut next, &mut sent_at))
            .collect();
        if !refill.is_empty() {
            client.send_batch(&refill)?;
        }
    }
    Ok(report)
}

/// Drives load at a server: `threads` connections in parallel, each
/// firing `requests` queries from the mix (lock-step, or pipelined
/// `pipeline` deep), optionally alongside `idle_conns` idle
/// connections, measuring per-request latency.
pub fn run_bench(config: &BenchConfig) -> std::io::Result<BenchReport> {
    // The idle flood connects up front in ramped chunks — one ping
    // round-trip per chunk paces the SYN stream against the acceptor's
    // drain rate, so tens of thousands of sockets connect without an
    // accept storm (or a listen-backlog overflow). Per-socket connect
    // latency is measured on the raw `connect`, and every chunk proves
    // liveness end-to-end through one of its members.
    const RAMP_CHUNK: usize = 512;
    let mut idle = Vec::with_capacity(config.idle_conns);
    let mut connect_latencies = Vec::with_capacity(config.idle_conns);
    while idle.len() < config.idle_conns {
        let chunk = RAMP_CHUNK.min(config.idle_conns - idle.len());
        for _ in 0..chunk {
            let connect_start = Instant::now();
            let client = Client::connect(&config.addr)?;
            connect_latencies.push(connect_start.elapsed());
            idle.push(client);
        }
        if let Some(probe) = idle.last_mut() {
            probe.ping()?;
        }
    }
    let start = Instant::now();
    let threads: Vec<_> = (0..config.threads.max(1))
        .map(|t| {
            let addr = config.addr.clone();
            let mix = config.mix.clone();
            let requests = config.requests;
            let depth = config.pipeline.max(1);
            let mutate_pct = config.mutate_pct.min(100);
            std::thread::Builder::new()
                .name(format!("rd-bench-{t}"))
                .spawn(move || -> std::io::Result<ThreadReport> {
                    let mut client = Client::connect(&addr)?;
                    if depth > 1 {
                        drive_pipelined(&mut client, t, requests, depth, &mix, mutate_pct)
                    } else {
                        drive_lockstep(&mut client, t, requests, &mix, mutate_pct)
                    }
                })
                .expect("spawn bench thread")
        })
        .collect();
    let mut completed = 0;
    let mut errors = 0;
    let mut mutations = 0;
    let mut cache_hits = 0;
    let mut eval_cache_hits = 0;
    let mut latencies = Vec::new();
    for handle in threads {
        let report = handle
            .join()
            .map_err(|_| std::io::Error::other("bench thread panicked"))??;
        completed += report.completed;
        errors += report.errors;
        mutations += report.mutations;
        cache_hits += report.cache_hits;
        eval_cache_hits += report.eval_cache_hits;
        latencies.extend(report.latencies);
    }
    let elapsed = start.elapsed();
    // The idle flood must have survived the whole run.
    for client in idle.iter_mut() {
        client.ping()?;
    }
    drop(idle);
    latencies.sort_unstable();
    connect_latencies.sort_unstable();
    Ok(BenchReport {
        completed,
        errors,
        mutations,
        elapsed,
        cache_hits,
        eval_cache_hits,
        latencies,
        connect_latencies,
    })
}
