//! Tracing from outside the program: in-memory spans, and the in-process
//! replay that times each layer's public entry points in the order
//! `Session::run` calls them.

use crate::stats::quantile;
use crate::wire::request_id;
use crate::workload::{translation_pairs, Inputs, Op};
use rd_core::exec::{self, ExecOptions, ExplainNode};
use rd_core::{Catalog, PlanHints, PlannerOpts, Tuple};
use rd_engine::{
    Artifact, DiagramFormat, EngineShared, Language, QueryRequest, QueryResponse, Session,
    SessionStats, SharedConfig,
};
use rd_server::{protocol, QueryResult, Request, Response};
use rd_store::{Store, WalRecord};
use rd_trc::TrcUnion;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer or step name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// The request this span belongs to ([`request_id`]).
    pub request: u64,
}

/// An in-memory span recorder; written out once, when the run ends.
pub struct Spans {
    epoch: Instant,
    /// Recorded spans, parents before children.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `idx`.
    pub fn end(&mut self, idx: u32) {
        let now = self.now();
        self.spans[idx as usize].end = now;
    }

    /// Runs `f` inside a span named `name`.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.begin(name, parent, request);
        let out = f();
        self.end(idx);
        out
    }

    /// Appends another recorder's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Writes every span as a TSV line: name, start, end, parent, request.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}:{}",
                s.name,
                s.start,
                s.end,
                parent,
                s.request >> 32,
                s.request & 0xffff_ffff
            )?;
        }
        out.flush()
    }
}

/// The layers the per-layer metrics name, each fed by the spans of the
/// same name (`reactor.residual` is derived, see [`residuals`]).
pub const LAYERS: [&str; 12] = [
    "protocol.encode",
    "protocol.decode",
    "reactor.residual",
    "session.run",
    "artifact.prepare",
    "plan.compile",
    "exec.execute",
    "database.resolve",
    "translate",
    "diagram",
    "database.mutate",
    "store.log",
];

/// Count, median, p99 and total of one layer's calls.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    /// Calls timed.
    pub calls: u64,
    /// Median call, µs.
    pub p50_us: f64,
    /// 99th-percentile call, µs.
    pub p99_us: f64,
    /// Summed self time, ms.
    pub self_ms: f64,
}

impl LayerStats {
    /// Summarizes per-call durations and the summed self time
    /// (nanoseconds; signed, because a residual is a difference).
    pub fn of(mut durations: Vec<i64>, self_ns: i64) -> LayerStats {
        durations.sort_unstable();
        LayerStats {
            calls: durations.len() as u64,
            p50_us: quantile(&durations, 0.50) as f64 / 1e3,
            p99_us: quantile(&durations, 0.99) as f64 / 1e3,
            self_ms: self_ns as f64 / 1e6,
        }
    }
}

/// Per-layer statistics from the replay's spans.
pub fn layer_stats(spans: &Spans) -> HashMap<&'static str, LayerStats> {
    let selfs = spans.self_times();
    let mut durations: HashMap<&'static str, (Vec<i64>, i64)> = HashMap::new();
    for (s, self_ns) in spans.spans.iter().zip(selfs) {
        let entry = durations.entry(s.name).or_default();
        entry.0.push((s.end - s.start) as i64);
        entry.1 += self_ns as i64;
    }
    durations
        .into_iter()
        .map(|(name, (d, self_ns))| (name, LayerStats::of(d, self_ns)))
        .collect()
}

/// Per-request wire time not spent in-process: the client round trip
/// (`request` spans of the traced wire run) minus the replay's
/// in-process time for the same request (its `request` span: both
/// encodes and decodes, `Session::run`, and the reply's shaping). What
/// remains is syscalls, epoll wake-ups, the pool hand-off and loopback.
/// Signed: where in-process work dominates, the two independent timings
/// of one request differ by more than the residual itself.
pub fn residuals(wire: &Spans, replay: &Spans) -> Vec<i64> {
    let in_process: HashMap<u64, u64> = replay
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.request, s.end - s.start))
        .collect();
    wire.spans
        .iter()
        .filter(|s| s.name == "request")
        .filter_map(|s| {
            let inside = in_process.get(&s.request)?;
            Some((s.end - s.start) as i64 - *inside as i64)
        })
        .collect()
}

/// Counters the replay gathers besides spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Σ `actual_rows` over every node of every analyzed execution.
    pub rows_examined: u64,
    /// Σ root rows of the same executions.
    pub rows_out: u64,
    /// Root q-error of each execution with a planner estimate.
    pub q_errors: Vec<f64>,
    /// Writes replayed.
    pub writes: u64,
    /// Fsyncs the scratch store issued.
    pub fsyncs: u64,
    /// Bytes the scratch store's WAL grew by.
    pub wal_bytes: u64,
}

/// Replays requests in-process against a fresh engine configured like
/// the server's, timing each layer. `traced[c]` holds the half-open
/// ranges of stream positions connection `c` sent while traced; the
/// replay first runs the `warm` positions before the first range untimed
/// (to rebuild the caches), then the first
/// [`crate::workload::Workload::replay_ops`] traced positions of each
/// connection, interleaving the connections.
pub fn replay(
    inputs: &Inputs,
    traced: &[Vec<(usize, usize)>],
    warm: usize,
    scratch: &Path,
    spans: &mut Spans,
) -> Result<ReplayCounts, String> {
    let engine = Arc::new(EngineShared::with_config(
        inputs.db.clone(),
        SharedConfig::default(),
    ));
    let mut sessions: Vec<Session> = traced
        .iter()
        .map(|_| Session::attach(engine.clone()))
        .collect();
    let _ = std::fs::remove_dir_all(scratch);
    let (_, mut store) = Store::open(scratch).map_err(|e| format!("scratch store: {e}"))?;
    let mut r = Replayer {
        inputs,
        engine: &engine,
        sessions: &mut sessions,
        store: &mut store,
        counts: ReplayCounts::default(),
        mirror: false,
    };
    let mut untimed = Spans::new(Instant::now());
    for (c, ranges) in traced.iter().enumerate() {
        let start = ranges.first().map_or(0, |r| r.0);
        for pos in start.saturating_sub(warm)..start {
            r.request(c, pos, &mut untimed)?;
            untimed.spans.clear();
        }
    }
    r.counts = ReplayCounts::default();
    r.mirror = true;
    let fsyncs_before = r.store.wal_fsync_histogram().count();
    let wal_before = crate::wire::dir_bytes(scratch);
    let positions: Vec<Vec<usize>> = traced
        .iter()
        .map(|ranges| {
            ranges
                .iter()
                .flat_map(|&(a, b)| a..b)
                .take(inputs.workload.replay_ops())
                .collect()
        })
        .collect();
    for i in 0..inputs.workload.replay_ops() {
        for (c, mine) in positions.iter().enumerate() {
            if let Some(&pos) = mine.get(i) {
                r.request(c, pos, spans)?;
            }
        }
    }
    let mut counts = r.counts;
    counts.fsyncs = store.wal_fsync_histogram().count() - fsyncs_before;
    counts.wal_bytes = crate::wire::dir_bytes(scratch).saturating_sub(wal_before);
    Ok(counts)
}

struct Replayer<'a> {
    inputs: &'a Inputs,
    engine: &'a Arc<EngineShared>,
    /// One session per connection, attached to `engine`.
    sessions: &'a mut [Session],
    store: &'a mut Store,
    counts: ReplayCounts,
    /// Re-run the steps `Session::run` took, one timed call per layer.
    mirror: bool,
}

impl Replayer<'_> {
    /// Replays stream position `pos` of connection `c` as the server
    /// would serve it, under a `request` span.
    fn request(&mut self, c: usize, pos: usize, sp: &mut Spans) -> Result<(), String> {
        let stream = &self.inputs.streams[c];
        let op = stream[pos % stream.len()];
        let id = request_id(c, pos);
        let write;
        let request = match op {
            Op::Query(i) => &self.inputs.queries[i as usize],
            _ => {
                write = self.inputs.write_request(c, op);
                &write
            }
        };
        let root = sp.begin("request", NO_PARENT, id);
        let line = sp.time("protocol.encode", root, id, || {
            protocol::encode_frame(request, None)
        });
        let (_, decoded) = sp
            .time("protocol.decode", root, id, || {
                protocol::decode_request_line(&line)
            })
            .map_err(|(_, e)| e)?;
        let (reply, run) = match decoded {
            Request::Query {
                language,
                text,
                translations,
                diagram,
            } => {
                let language = language.unwrap_or_else(|| Language::detect(&text));
                let mut req = QueryRequest::new(language, text);
                if translations {
                    req = req.with_translations();
                }
                req = req.with_diagram(diagram);
                let session = &mut self.sessions[c];
                let before = session.stats().clone();
                let resp = sp
                    .time("session.run", root, id, || session.run(&req))
                    .map_err(|e| format!("replay: {e}"))?;
                let delta = session.stats().since(&before);
                let reply = sp.time("server.render", root, id, || query_result(&resp));
                (reply, Some((req, resp, delta)))
            }
            Request::Insert { table, rows } | Request::Delete { table, rows } => {
                let insert = matches!(op, Op::Insert(_));
                let tuples: Vec<Tuple> = rows.into_iter().map(Tuple).collect();
                let outcome = sp
                    .time("database.mutate", root, id, || {
                        if insert {
                            self.engine.insert_rows(&table, &tuples)
                        } else {
                            self.engine.delete_rows(&table, &tuples)
                        }
                    })
                    .map_err(|e| format!("replay: {e}"))?;
                let record = if insert {
                    WalRecord::Insert {
                        table: table.clone(),
                        rows: tuples,
                    }
                } else {
                    WalRecord::Delete {
                        table: table.clone(),
                        rows: tuples,
                    }
                };
                sp.time("store.log", root, id, || self.store.log(&record))
                    .map_err(|e| format!("replay store: {e}"))?;
                self.counts.writes += 1;
                let reply = Response::Mutation(rd_server::protocol::MutationResult {
                    insert,
                    table,
                    applied: outcome.applied,
                    generation: outcome.generation,
                    fingerprint: format!("{:016x}", outcome.fingerprint),
                });
                (reply, None)
            }
            other => return Err(format!("replay cannot serve {other:?}")),
        };
        let out = sp.time("protocol.encode", root, id, || {
            protocol::encode_frame(&reply, None)
        });
        sp.time("protocol.decode", root, id, || protocol::decode_frame(&out))?;
        sp.end(root);
        if let (true, Some((req, resp, delta))) = (self.mirror, run) {
            self.mirror(c, &req, &resp, &delta, id, sp)?;
        }
        Ok(())
    }

    /// Re-runs, one timed call per layer, the steps the real
    /// `Session::run` just took (its stats delta says which caches
    /// missed). These calls are pure: they leave the caches untouched.
    fn mirror(
        &mut self,
        c: usize,
        req: &QueryRequest,
        resp: &QueryResponse,
        delta: &SessionStats,
        id: u64,
        sp: &mut Spans,
    ) -> Result<(), String> {
        let root = sp.begin("mirror", NO_PARENT, id);
        let epoch = self.engine.epoch();
        let err = |e: rd_core::CoreError| format!("mirror: {e}");
        if delta.cache_misses > 0 {
            sp.time("artifact.prepare", root, id, || {
                Artifact::prepare(req.language, &req.text, &epoch.catalog)
            })
            .map_err(err)?;
        }
        if delta.eval_misses > 0 {
            let artifact = &resp.artifact;
            let compile =
                || artifact.compile_with(&epoch.db, &PlannerOpts::default(), &PlanHints::default());
            let plan = if delta.plan_misses > 0 {
                sp.time("plan.compile", root, id, compile)
            } else {
                compile()
            }
            .map_err(err)?;
            let (raw, feedback) = sp
                .time("exec.execute", root, id, || {
                    exec::execute_feedback(&plan, &epoch.db, ExecOptions::default())
                })
                .map_err(err)?;
            sp.time("database.resolve", root, id, || {
                epoch.db.resolve_relation(&raw)
            });
            let (_, node) = exec::explain_analyze(&plan, &epoch.db).map_err(err)?;
            self.counts.rows_examined += examined(&node);
            self.counts.rows_out += node.actual_rows.unwrap_or(0);
            if let Some(est) = exec::plan_est(&plan) {
                self.counts
                    .q_errors
                    .push(exec::q_error(est, feedback.out_rows));
            }
        }
        // Both artifacts view the query through the canonical TRC hub,
        // which `Session::run` computes once; it is billed to the first
        // layer that needs it.
        let catalog = &epoch.catalog;
        let render = |hub: &TrcUnion| {
            rd_diagram::from_trc_union(hub, catalog).and_then(|d| {
                d.validate()?;
                Ok(match req.diagram {
                    DiagramFormat::Dot => rd_diagram::to_dot(&d),
                    _ => rd_diagram::to_svg(&d),
                })
            })
        };
        let session = &self.sessions[c];
        let hub = if req.translations {
            sp.time("translate", root, id, || {
                let hub = session.to_hub_trc(&resp.artifact)?;
                translate(&hub, catalog);
                Ok::<_, rd_core::CoreError>(hub)
            })
            .ok()
        } else {
            None
        };
        if req.diagram != DiagramFormat::None {
            sp.time("diagram", root, id, || match &hub {
                Some(hub) => render(hub),
                None => session.to_hub_trc(&resp.artifact).and_then(|h| render(&h)),
            })
            .ok();
        }
        sp.end(root);
        Ok(())
    }
}

/// The `Session::translations` chain: the hub printed as TRC, carried
/// into SQL, and (single-branch queries) into Datalog and on into RA.
fn translate(hub: &TrcUnion, catalog: &Catalog) -> Vec<String> {
    let mut out = vec![rd_trc::printer::union_to_ascii(hub)];
    if let Ok(sql) = rd_sql::trc_union_to_sql(hub) {
        out.push(rd_sql::printer::format_sql_union(&sql));
    }
    if let [query] = hub.branches.as_slice() {
        if let Ok(program) = rd_translate::trc_to_datalog(query, catalog) {
            if let Ok(ra) = rd_translate::datalog_to_ra(&program, catalog) {
                out.push(rd_ra::printer::to_ascii(&ra));
            }
            out.push(program.to_string());
        }
    }
    out
}

/// Σ `actual_rows` over an analyzed plan tree.
fn examined(node: &ExplainNode) -> u64 {
    node.actual_rows.unwrap_or(0) + node.children.iter().map(examined).sum::<u64>()
}

/// The reply frame the server builds from a session response (single
/// frame; results in this benchmark stay below the streaming threshold).
fn query_result(resp: &QueryResponse) -> Response {
    let mut notes = resp.notes.clone();
    if let Some(t) = &resp.translations {
        notes.extend(t.notes.iter().cloned());
    }
    Response::Query(QueryResult {
        language: resp.language,
        canonical: resp.canonical.clone(),
        attrs: resp.relation.schema().attrs().to_vec(),
        rows: resp
            .relation
            .iter()
            .map(|t| t.iter().cloned().collect())
            .collect(),
        cache_hit: resp.cache_hit,
        eval_cache_hit: resp.eval_cache_hit,
        translations: resp.translations.as_ref().map(translation_pairs),
        diagram: resp.diagram.clone(),
        notes,
    })
}
