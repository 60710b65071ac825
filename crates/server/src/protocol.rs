//! The wire protocol: JSON lines over TCP, with pipelining and chunked
//! result streaming.
//!
//! Every message is one JSON object on one line. Requests carry an
//! `"op"` discriminator; responses carry `"ok"` (and `"kind"` on
//! success). The full surface:
//!
//! ```text
//! → {"op":"query","text":"pi[color](Boat)"}                  # lang auto-detected
//! → {"op":"query","lang":"sql","text":"SELECT ...",
//!    "translations":true,"diagram":"dot"}
//! ← {"ok":true,"kind":"query","language":"sql","canonical":"...",
//!    "attrs":["color"],"rows":[["red"],["green"]],"row_count":2,
//!    "cache_hit":false,"eval_cache_hit":false,"notes":[]}
//!
//! → {"op":"load","fixture":"R(a):\n (1)\n"}                  # replace database
//! → {"op":"load","csv":"a,b\n1,x\n","table":"R"}             # bulk-import one table
//! ← {"ok":true,"kind":"load","tables":1,"tuples":1,
//!    "generation":1,"fingerprint":"4f9a..."}
//!
//! → {"op":"insert","table":"Boat","rows":[[103,"blue"]]}     # batched tuples
//! ← {"ok":true,"kind":"mutation","op":"insert","table":"Boat",
//!    "applied":1,"generation":2,"fingerprint":"91c0..."}
//! → {"op":"delete","table":"Boat","rows":[[103,"blue"]]}     # absent rows are no-ops
//! ← {"ok":true,"kind":"mutation","op":"delete","table":"Boat",
//!    "applied":1,"generation":3,"fingerprint":"4f9a..."}
//! → {"op":"checkpoint"}                  # snapshot now, start a fresh WAL segment
//! ← {"ok":true,"kind":"checkpoint","seq":2,"generation":3,
//!    "fingerprint":"4f9a..."}
//!
//! Mutations are durable before they are acknowledged: a server running
//! with `--data-dir` appends each insert/delete to the write-ahead log
//! (and fsyncs) before the `"kind":"mutation"` frame is sent, so an
//! acked mutation survives a crash. `applied` counts the rows that
//! actually changed the table (inserting a duplicate or deleting an
//! absent row applies 0). Without `--data-dir` the ops still work —
//! they mutate the in-memory epoch — there is just nothing to recover.
//! `checkpoint` forces a point-in-time snapshot and answers with the
//! new snapshot's sequence number (without a data dir it degrades to a
//! generation/fingerprint probe with `"seq":0`).
//!
//! → {"op":"explain","lang":"trc","text":"{ q(A) | ... }"}    # compiled plan, no eval
//! ← {"ok":true,"kind":"explain","language":"trc","canonical":"...",
//!    "plan":{"kind":"query","detail":"q(A)","children":[...]},
//!    "cache_hit":false}
//!
//! → {"op":"translate","to":"sql","text":"{ q(A) | ... }"}    # Theorem 6 over the wire
//! ← {"ok":true,"kind":"translate","to":"sql","text":"SELECT DISTINCT ..."}
//!
//! → {"op":"stats"}                                           # aggregated counters
//! → {"op":"ping"}          ← {"ok":true,"kind":"pong"}
//! → {"op":"shutdown"}      ← {"ok":true,"kind":"bye"}        # drains, then stops
//!
//! ← {"ok":false,"error":"unknown table 'Boats'"}             # any failure
//! ```
//!
//! **Pipelining.** A request may carry an `"id"` (string or integer);
//! every frame answering it echoes that id verbatim. Clients may keep
//! any number of requests in flight on one connection; the server
//! answers each request's frames in a contiguous run, but runs for
//! different requests may interleave with other traffic, so a
//! pipelining client must match responses by id, not by position:
//!
//! ```text
//! → {"op":"ping","id":1}
//! → {"op":"query","text":"pi[color](Boat)","id":"q-2"}
//! ← {"ok":true,"kind":"pong","id":1}
//! ← {"ok":true,"kind":"query",...,"id":"q-2"}
//! ```
//!
//! **Streaming.** A query result larger than the server's
//! `--stream-threshold` (in rows) is not sent as one `"kind":"query"`
//! line; it arrives as a sequence of `"kind":"rows-chunk"` frames
//! closed by one `"kind":"rows-end"` frame. The first chunk (`"seq":0`)
//! carries the result header (`language` / `canonical` / `attrs`); the
//! end frame carries everything else (`row_count`, cache flags,
//! translations, diagram, notes). [`Reassembler`] folds the frames back
//! into an ordinary query response:
//!
//! ```text
//! ← {"ok":true,"kind":"rows-chunk","seq":0,"language":"ra",
//!    "canonical":"pi[x](R)","attrs":["x"],"rows":[[1],[2]]}
//! ← {"ok":true,"kind":"rows-chunk","seq":1,"rows":[[3],[4]]}
//! ← {"ok":true,"kind":"rows-end","seq":2,"row_count":4,
//!    "cache_hit":false,"eval_cache_hit":false,"notes":[]}
//! ```
//!
//! Clients that send neither an `"id"` nor queries above the stream
//! threshold see exactly the PR-2/PR-3 wire format, byte for byte.
//!
//! **Codec.** [`Request`] and [`Response`] each have one hand-written
//! envelope: a request writes its `op` tag and then its fields; a
//! response writes `ok` plus `kind` and then splices in its payload's
//! members, so the tags never take the derive's externally-tagged enum
//! shape. Payloads built from this crate's and
//! `rd-core`'s types derive their codecs (`#[serde(default)]` marks the
//! fields older frames lack, `skip_serializing_if` the ones written only
//! when present); struct fields are declared in wire order. Payloads that
//! hold `rd-engine` types (`Language`, `DiagramFormat`, `SessionStats`,
//! `CacheStats`) and the mutation frame (whose `insert` flag travels as
//! `"op"`) are hand-written, reading fields through the same
//! `serde::json::{required, defaulted}` helpers the derive generates
//! calls to. Decode errors name the offending field.
//!
//! **Malformed input.** A line that is not valid JSON, nests arrays and
//! objects deeper than [`serde::json::MAX_DEPTH`] (128), or does not
//! decode gets a `{"ok":false,"error":"malformed message: ..."}` frame;
//! the connection stays usable.

use rd_core::exec::ExplainNode;
use rd_core::Value;
use rd_engine::{CacheStats, DiagramFormat, Language, SessionStats};
use serde::json::{defaulted, required, Value as Json};
use serde::{Deserialize, Serialize};

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one query.
    Query {
        /// Query language; `None` auto-detects from the text.
        language: Option<Language>,
        /// Query source text.
        text: String,
        /// Also produce the cross-language translations.
        translations: bool,
        /// Also render the Relational Diagram.
        diagram: DiagramFormat,
    },
    /// Compile (or fetch from the plan cache) one query's executable
    /// plan and return it as an explain tree — no evaluation.
    Explain {
        /// Query language; `None` auto-detects from the text.
        language: Option<Language>,
        /// Query source text.
        text: String,
        /// `true` actually executes the plan (bypassing the eval cache)
        /// and annotates every node with estimated vs actual row counts.
        analyze: bool,
    },
    /// Translate one query into another language through the TRC hub
    /// (Theorem 6).
    Translate {
        /// Source language; `None` auto-detects from the text.
        language: Option<Language>,
        /// Query source text.
        text: String,
        /// Target language.
        to: Language,
    },
    /// Replace or extend the database (bumps the epoch generation and
    /// invalidates the shared caches).
    Load(LoadSource),
    /// Insert a batch of tuples into one table (a delta: caches over
    /// other relations survive; the WAL records it before the ack).
    Insert {
        /// Target table.
        table: String,
        /// Tuples to add (wire form: arrays of int/string cells).
        rows: Vec<Vec<Value>>,
    },
    /// Delete a batch of tuples from one table (same delta/durability
    /// contract as `Insert`; absent rows are no-ops).
    Delete {
        /// Target table.
        table: String,
        /// Tuples to remove.
        rows: Vec<Vec<Value>>,
    },
    /// Force a point-in-time snapshot and start a fresh WAL segment.
    Checkpoint,
    /// Fetch aggregated server/session/cache statistics.
    Stats {
        /// `true` additionally zeroes the interval window: the response
        /// reports counters since the last reset, then starts a fresh
        /// window. Cumulative gauges (active connections, cache entries,
        /// generation, …) are unaffected.
        reset: bool,
    },
    /// Fetch the latency-histogram registry rendered as Prometheus-style
    /// exposition text.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Stop the server (drains in-flight connections).
    Shutdown,
}

/// What a `load` request carries.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSource {
    /// A complete database in the fixture format — replaces the current
    /// database.
    Fixture(String),
    /// One table as CSV (header = attribute names) — merged into the
    /// current database, replacing a same-named table.
    Csv {
        /// Table name for the imported relation.
        table: String,
        /// CSV text.
        text: String,
    },
}

/// A client-chosen request id for pipelining: echoed verbatim in every
/// frame answering that request. Strings and integers are accepted;
/// anything else is rejected as malformed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestId {
    /// A numeric id, e.g. `"id":17`.
    Int(i64),
    /// A string id, e.g. `"id":"q-17"`.
    Str(String),
}

impl RequestId {
    fn to_json(&self) -> Json {
        match self {
            RequestId::Int(i) => Json::Int(*i),
            RequestId::Str(s) => Json::String(s.clone()),
        }
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestId::Int(i) => write!(f, "{i}"),
            RequestId::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Extracts the optional `"id"` field of a frame. Absent/null is `None`;
/// any non-string, non-integer id is an error.
fn request_id_from(v: &Json) -> Result<Option<RequestId>, String> {
    match v.get("id") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Int(i)) => Ok(Some(RequestId::Int(*i))),
        Some(Json::String(s)) => Ok(Some(RequestId::Str(s.clone()))),
        Some(other) => Err(format!(
            "field 'id' must be a string or integer, found {other}"
        )),
    }
}

/// A server→client message.
///
/// Variants are sized by their payloads (`Stats` grew two cache-counter
/// blocks with the plan cache); responses are built once, encoded, and
/// dropped, so boxing the large variant would buy nothing on this path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A successful query.
    Query(QueryResult),
    /// A successful explain.
    Explain(ExplainResult),
    /// A successful translation.
    Translate(TranslateResult),
    /// One chunk of a streamed query result (see [`Reassembler`]).
    RowsChunk(RowsChunk),
    /// The closing frame of a streamed query result.
    RowsEnd(RowsEnd),
    /// A successful load.
    Load(LoadResult),
    /// A successful insert or delete.
    Mutation(MutationResult),
    /// A successful checkpoint.
    Checkpoint(CheckpointResult),
    /// A statistics snapshot.
    Stats(StatsResult),
    /// The latency-histogram registry as Prometheus-style text.
    Metrics(MetricsResult),
    /// Reply to `ping`.
    Pong,
    /// Reply to `shutdown`.
    Bye,
    /// Any failure (the connection stays usable).
    Error(String),
}

/// The result header carried by the first (`seq == 0`) chunk of a
/// streamed query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkHead {
    /// The language the query was parsed as.
    pub language: Language,
    /// The canonical rendering in the source language.
    pub canonical: String,
    /// Output attribute names.
    pub attrs: Vec<String>,
}

/// One `"kind":"rows-chunk"` frame of a streamed query result.
#[derive(Debug, Clone, PartialEq)]
pub struct RowsChunk {
    /// Position in the stream (0-based, contiguous).
    pub seq: u64,
    /// The result header; present exactly on `seq == 0`.
    pub head: Option<ChunkHead>,
    /// This chunk's tuples.
    pub rows: Vec<Vec<Value>>,
}

/// The `"kind":"rows-end"` frame closing a streamed query result.
#[derive(Debug, Clone, PartialEq)]
pub struct RowsEnd {
    /// Position in the stream (one past the last chunk's `seq`).
    pub seq: u64,
    /// Total rows across all chunks (a checksum for the client).
    pub row_count: u64,
    /// `true` if the artifact came from the shared parse cache.
    pub cache_hit: bool,
    /// `true` if the result came from the shared eval cache.
    pub eval_cache_hit: bool,
    /// Cross-language translations, if requested.
    pub translations: Option<Vec<(String, String)>>,
    /// The rendered diagram, if requested.
    pub diagram: Option<String>,
    /// Why a requested optional artifact is missing.
    pub notes: Vec<String>,
}

/// The payload of a successful query response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The language the query was parsed as.
    pub language: Language,
    /// The canonical rendering in the source language.
    pub canonical: String,
    /// Output attribute names.
    pub attrs: Vec<String>,
    /// Result tuples (deterministic order).
    pub rows: Vec<Vec<Value>>,
    /// `true` if the artifact came from the shared parse cache.
    pub cache_hit: bool,
    /// `true` if the result came from the shared eval cache.
    pub eval_cache_hit: bool,
    /// Cross-language translations, if requested: `(language, text)`
    /// pairs plus explanatory notes.
    pub translations: Option<Vec<(String, String)>>,
    /// The rendered diagram, if requested.
    pub diagram: Option<String>,
    /// Why a requested optional artifact is missing.
    pub notes: Vec<String>,
}

/// The payload of a successful explain response.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainResult {
    /// The language the query was parsed as.
    pub language: Language,
    /// The canonical rendering in the source language.
    pub canonical: String,
    /// The explain tree: scan order, join strategy, bound keys.
    pub plan: ExplainNode,
    /// `true` if the artifact came from the shared parse cache.
    pub cache_hit: bool,
}

/// The payload of a successful translate response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslateResult {
    /// The target language.
    pub to: Language,
    /// The query rendered in the target language.
    pub text: String,
}

/// The payload of a successful load response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadResult {
    /// Tables now in the database.
    pub tables: usize,
    /// Total tuples now in the database.
    pub tuples: usize,
    /// The new epoch generation.
    pub generation: u64,
    /// The new database's content fingerprint (hex).
    pub fingerprint: String,
}

/// The payload of a successful insert/delete response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationResult {
    /// `true` for an insert, `false` for a delete.
    pub insert: bool,
    /// The table that was mutated.
    pub table: String,
    /// Rows that actually changed the table (duplicates on insert and
    /// absent rows on delete apply 0).
    pub applied: u64,
    /// The epoch generation after the mutation.
    pub generation: u64,
    /// The database's content fingerprint after the mutation (hex).
    pub fingerprint: String,
}

/// The payload of a successful checkpoint response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointResult {
    /// The new snapshot's sequence number (0 when the server runs
    /// without a data dir — nothing was written).
    pub seq: u64,
    /// The epoch generation the snapshot captured.
    pub generation: u64,
    /// The snapshotted database's content fingerprint (hex).
    pub fingerprint: String,
}

/// The payload of a statistics response: server counters, session
/// counters aggregated across all workers, and both shared caches.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsResult {
    /// Connections accepted since startup.
    pub connections: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Requests handled (all ops).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Connections closed by idle-timeout eviction.
    pub evicted: u64,
    /// Request-serving threads (`--workers`).
    pub workers: u64,
    /// Session counters summed across every worker session (live and
    /// closed).
    pub sessions: SessionStats,
    /// Shared parse-cache counters.
    pub parse_cache: CacheStats,
    /// Shared eval-cache counters.
    pub eval_cache: CacheStats,
    /// `false` if the server runs with the result cache disabled.
    pub eval_cache_enabled: bool,
    /// Shared compiled-plan-cache counters.
    pub plan_cache: CacheStats,
    /// `false` if the server runs with the plan cache disabled.
    pub plan_cache_enabled: bool,
    /// Current epoch generation.
    pub generation: u64,
    /// Current database fingerprint (hex).
    pub fingerprint: String,
    /// Tables in the current database.
    pub tables: u64,
    /// Total tuples in the current database.
    pub tuples: u64,
    /// Per-stage latency summaries (appended in PR 7; absent in older
    /// frames — decodes to empty).
    pub stages: Vec<StageLatency>,
    /// Per-shard connection breakdown (appended in PR 9; absent in
    /// older frames — decodes to empty). Counters here are cumulative
    /// since boot even in `reset` frames: the breakdown identifies
    /// shards, it is not a windowed rate.
    pub shards: Vec<ShardBreakdown>,
    /// Cost-based-planner summary (appended in PR 10; absent in older
    /// frames — decodes to all-zero).
    pub planner: PlannerStats,
}

/// One pipeline stage's latency summary inside a stats frame.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageLatency {
    /// Stage name (`parse`, `plan`, `execute`, `render`, `serialize`).
    pub stage: String,
    /// Requests that passed through this stage.
    pub count: u64,
    /// Median latency in microseconds.
    pub p50: u64,
    /// 95th-percentile latency in microseconds.
    pub p95: u64,
    /// 99th-percentile latency in microseconds.
    pub p99: u64,
}

/// The cost-based planner's summary inside a stats frame: its
/// estimation-error distribution. Quantiles are centi-q (q-error × 100,
/// so `100` is a perfect estimate) — integers survive the wire's
/// counter-shaped fields without float rounding drama. Frames from
/// servers that re-planned on execution feedback also carry `replans`
/// and `feedback_hits` here (and `planner_replans`/
/// `planner_feedback_hits` among the session counters); readers ignore
/// them.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlannerStats {
    /// Executions that recorded a root-estimate q-error.
    #[serde(default)]
    pub q_count: u64,
    /// Median q-error, centi (100 = perfect).
    #[serde(default)]
    pub q_p50: u64,
    /// 95th-percentile q-error, centi.
    #[serde(default)]
    pub q_p95: u64,
    /// 99th-percentile q-error, centi.
    #[serde(default)]
    pub q_p99: u64,
}

/// One shard's connection counters inside a stats frame.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShardBreakdown {
    /// Shard index (`0..shards`).
    pub shard: u64,
    /// Connections routed to this shard since boot.
    pub connections: u64,
    /// Connections currently open on this shard.
    pub active: u64,
    /// Connections this shard closed by idle-timeout eviction.
    pub evicted: u64,
    /// Requests this shard answered without parsing or evaluating:
    /// pings, and queries that hit both the parse and the result cache
    /// (appended; absent in older frames — decodes to 0).
    #[serde(default)]
    pub inline: u64,
}

/// The payload of a metrics response.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsResult {
    /// Prometheus-style exposition text (`# TYPE` comments, `_bucket`
    /// cumulative counters with `le` labels, `_sum`, `_count`).
    pub text: String,
}

// ---------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(v: impl Into<String>) -> Json {
    Json::String(v.into())
}

fn u(v: u64) -> Json {
    Json::Int(v as i64)
}

/// A response frame: `head` (`ok` plus `kind`), then the members of the
/// encoded payload object.
fn envelope(head: [(&str, Json); 2], payload: Json) -> Json {
    let members = match payload {
        Json::Object(members) => members,
        _ => Vec::new(),
    };
    let mut pairs = Vec::with_capacity(head.len() + members.len());
    pairs.extend(head.map(|(k, v)| (k.to_string(), v)));
    pairs.extend(members);
    Json::Object(pairs)
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Str(t) => Json::String(t.clone()),
        // Rows are resolved (Sym → Str) at the session edge before they
        // reach the protocol; a stray symbol would be a server bug, but
        // the wire must never panic.
        Value::Sym(id) => Json::String(format!("sym#{id}")),
    }
}

fn rows_to_json(rows: &[Vec<Value>]) -> Json {
    Json::Array(
        rows.iter()
            .map(|row| Json::Array(row.iter().map(value_to_json).collect()))
            .collect(),
    )
}

fn value_from_json(v: &Json) -> Result<Value, String> {
    match v {
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::String(t) => Ok(Value::Str(t.clone())),
        other => Err(format!("expected int or string cell, found {other}")),
    }
}

fn parse_rows(v: &Json) -> Result<Vec<Vec<Value>>, String> {
    v.get("rows")
        .and_then(Json::as_array)
        .ok_or("missing or non-array field 'rows'")?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or_else(|| "non-array row".to_string())?
                .iter()
                .map(value_from_json)
                .collect::<Result<Vec<_>, _>>()
        })
        .collect()
}

fn diagram_name(d: DiagramFormat) -> &'static str {
    match d {
        DiagramFormat::None => "none",
        DiagramFormat::Dot => "dot",
        DiagramFormat::Svg => "svg",
    }
}

fn diagram_from_name(name: &str) -> Result<DiagramFormat, String> {
    match name {
        "none" => Ok(DiagramFormat::None),
        "dot" => Ok(DiagramFormat::Dot),
        "svg" => Ok(DiagramFormat::Svg),
        other => Err(format!("unknown diagram format '{other}'")),
    }
}

fn language(v: &Json, key: &str) -> Result<Language, String> {
    required::<String>(v, key)?.parse()
}

/// Parses the optional `"lang"` field (`"auto"`, absent, and null all
/// mean detect-from-text).
fn opt_language(v: &Json) -> Result<Option<Language>, String> {
    match required::<Option<String>>(v, "lang")?.as_deref() {
        None | Some("auto") => Ok(None),
        Some(name) => name.parse().map(Some),
    }
}

fn push_language(pairs: &mut Vec<(&str, Json)>, language: &Option<Language>) {
    if let Some(lang) = language {
        pairs.push(("lang", s(lang.name())));
    }
}

fn session_stats_to_json(st: &SessionStats) -> Json {
    obj(vec![
        ("queries", u(st.queries)),
        ("batches", u(st.batches)),
        ("cache_hits", u(st.cache_hits)),
        ("cache_misses", u(st.cache_misses)),
        ("cache_evictions", u(st.cache_evictions)),
        ("eval_hits", u(st.eval_hits)),
        ("eval_misses", u(st.eval_misses)),
        ("eval_evictions", u(st.eval_evictions)),
        ("eval_skipped", u(st.eval_skipped)),
        ("rows_returned", u(st.rows_returned)),
        // Appended after the PR-2 fields so the object's byte prefix is
        // stable for older readers.
        ("rows_streamed", u(st.rows_streamed)),
        ("plan_hits", u(st.plan_hits)),
        ("plan_misses", u(st.plan_misses)),
        ("plan_evictions", u(st.plan_evictions)),
        ("delta_invalidations", u(st.delta_invalidations)),
        ("delta_survivals", u(st.delta_survivals)),
    ])
}

/// Counters added after the first protocol version decode as 0 when
/// absent.
fn session_stats_from_json(v: &Json) -> Result<SessionStats, String> {
    Ok(SessionStats {
        queries: required(v, "queries")?,
        batches: required(v, "batches")?,
        cache_hits: required(v, "cache_hits")?,
        cache_misses: required(v, "cache_misses")?,
        cache_evictions: required(v, "cache_evictions")?,
        eval_hits: required(v, "eval_hits")?,
        eval_misses: required(v, "eval_misses")?,
        eval_evictions: required(v, "eval_evictions")?,
        eval_skipped: defaulted(v, "eval_skipped")?,
        plan_hits: defaulted(v, "plan_hits")?,
        plan_misses: defaulted(v, "plan_misses")?,
        plan_evictions: defaulted(v, "plan_evictions")?,
        delta_invalidations: defaulted(v, "delta_invalidations")?,
        delta_survivals: defaulted(v, "delta_survivals")?,
        rows_returned: required(v, "rows_returned")?,
        rows_streamed: defaulted(v, "rows_streamed")?,
    })
}

fn cache_stats_to_json(st: &CacheStats) -> Json {
    obj(vec![
        ("hits", u(st.hits)),
        ("misses", u(st.misses)),
        ("evictions", u(st.evictions)),
        ("entries", u(st.entries as u64)),
        ("capacity", u(st.capacity as u64)),
        ("cached_bytes", u(st.bytes)),
    ])
}

fn cache_stats_from_json(v: &Json) -> Result<CacheStats, String> {
    Ok(CacheStats {
        hits: required(v, "hits")?,
        misses: required(v, "misses")?,
        evictions: required(v, "evictions")?,
        entries: required(v, "entries")?,
        capacity: required(v, "capacity")?,
        bytes: defaulted(v, "cached_bytes")?,
    })
}

/// The shared tail of query-shaped frames: optional translations and
/// diagram, then the (always-present) notes array.
fn push_optional_meta(
    pairs: &mut Vec<(&str, Json)>,
    translations: &Option<Vec<(String, String)>>,
    diagram: &Option<String>,
    notes: &[String],
) {
    if let Some(t) = translations {
        pairs.push((
            "translations",
            Json::Object(t.iter().map(|(k, v)| (k.clone(), s(v))).collect()),
        ));
    }
    if let Some(d) = diagram {
        pairs.push(("diagram", s(d)));
    }
    pairs.push(("notes", notes.to_json()));
}

fn parse_translations(v: &Json) -> Result<Option<Vec<(String, String)>>, String> {
    match v.get("translations") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Object(pairs)) => Ok(Some(
            pairs
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|t| (k.clone(), t.to_string()))
                        .ok_or_else(|| format!("non-string translation '{k}'"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Some(other) => Err(format!("'translations' must be an object, found {other}")),
    }
}

impl Serialize for Request {
    fn to_json(&self) -> Json {
        let mut pairs = vec![("op", s(self.op()))];
        match self {
            Request::Query {
                language,
                text,
                translations,
                diagram,
            } => {
                push_language(&mut pairs, language);
                pairs.push(("text", s(text)));
                if *translations {
                    pairs.push(("translations", Json::Bool(true)));
                }
                if *diagram != DiagramFormat::None {
                    pairs.push(("diagram", s(diagram_name(*diagram))));
                }
            }
            Request::Explain {
                language,
                text,
                analyze,
            } => {
                push_language(&mut pairs, language);
                pairs.push(("text", s(text)));
                if *analyze {
                    pairs.push(("analyze", Json::Bool(true)));
                }
            }
            Request::Translate { language, text, to } => {
                pairs.push(("to", s(to.name())));
                push_language(&mut pairs, language);
                pairs.push(("text", s(text)));
            }
            Request::Load(LoadSource::Fixture(text)) => pairs.push(("fixture", s(text))),
            Request::Load(LoadSource::Csv { table, text }) => {
                pairs.extend([("csv", s(text)), ("table", s(table))])
            }
            Request::Insert { table, rows } | Request::Delete { table, rows } => {
                pairs.extend([("table", s(table)), ("rows", rows_to_json(rows))])
            }
            Request::Stats { reset: true } => pairs.push(("reset", Json::Bool(true))),
            Request::Checkpoint
            | Request::Stats { reset: false }
            | Request::Metrics
            | Request::Ping
            | Request::Shutdown => {}
        }
        obj(pairs)
    }
}

impl Request {
    /// The wire `op` tag.
    fn op(&self) -> &'static str {
        match self {
            Request::Query { .. } => "query",
            Request::Explain { .. } => "explain",
            Request::Translate { .. } => "translate",
            Request::Load(_) => "load",
            Request::Insert { .. } => "insert",
            Request::Delete { .. } => "delete",
            Request::Checkpoint => "checkpoint",
            Request::Stats { .. } => "stats",
            Request::Metrics => "metrics",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }
}

impl Deserialize for Request {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(match required::<String>(v, "op")?.as_str() {
            "query" => Request::Query {
                language: opt_language(v)?,
                text: required(v, "text")?,
                translations: defaulted(v, "translations")?,
                diagram: match required::<Option<String>>(v, "diagram")? {
                    Some(name) => diagram_from_name(&name)?,
                    None => DiagramFormat::None,
                },
            },
            "explain" => Request::Explain {
                language: opt_language(v)?,
                text: required(v, "text")?,
                analyze: defaulted(v, "analyze")?,
            },
            "translate" => Request::Translate {
                language: opt_language(v)?,
                text: required(v, "text")?,
                to: language(v, "to")?,
            },
            "load" if v.get("fixture").is_some() => {
                Request::Load(LoadSource::Fixture(required(v, "fixture")?))
            }
            "load" if v.get("csv").is_some() => Request::Load(LoadSource::Csv {
                table: required(v, "table")?,
                text: required(v, "csv")?,
            }),
            "load" => return Err("load requires a 'fixture' or 'csv' field".into()),
            "insert" => Request::Insert {
                table: required(v, "table")?,
                rows: parse_rows(v)?,
            },
            "delete" => Request::Delete {
                table: required(v, "table")?,
                rows: parse_rows(v)?,
            },
            "checkpoint" => Request::Checkpoint,
            "stats" => Request::Stats {
                reset: defaulted(v, "reset")?,
            },
            "metrics" => Request::Metrics,
            "ping" => Request::Ping,
            "shutdown" => Request::Shutdown,
            other => {
                return Err(format!(
                    "unknown op '{other}' (expected query, explain, translate, load, insert, \
                     delete, checkpoint, stats, metrics, ping, or shutdown)"
                ))
            }
        })
    }
}

impl Serialize for QueryResult {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("language", s(self.language.name())),
            ("canonical", s(&self.canonical)),
            ("attrs", self.attrs.to_json()),
            ("rows", rows_to_json(&self.rows)),
            ("row_count", u(self.rows.len() as u64)),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("eval_cache_hit", Json::Bool(self.eval_cache_hit)),
        ];
        push_optional_meta(&mut pairs, &self.translations, &self.diagram, &self.notes);
        obj(pairs)
    }
}

impl Deserialize for QueryResult {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(QueryResult {
            language: language(v, "language")?,
            canonical: required(v, "canonical")?,
            attrs: required(v, "attrs")?,
            rows: parse_rows(v)?,
            cache_hit: defaulted(v, "cache_hit")?,
            eval_cache_hit: defaulted(v, "eval_cache_hit")?,
            translations: parse_translations(v)?,
            diagram: required(v, "diagram")?,
            notes: defaulted(v, "notes")?,
        })
    }
}

impl Serialize for ExplainResult {
    fn to_json(&self) -> Json {
        obj(vec![
            ("language", s(self.language.name())),
            ("canonical", s(&self.canonical)),
            ("plan", self.plan.to_json()),
            ("cache_hit", Json::Bool(self.cache_hit)),
        ])
    }
}

impl Deserialize for ExplainResult {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(ExplainResult {
            language: language(v, "language")?,
            canonical: required(v, "canonical")?,
            plan: required(v, "plan")?,
            cache_hit: defaulted(v, "cache_hit")?,
        })
    }
}

impl Serialize for TranslateResult {
    fn to_json(&self) -> Json {
        obj(vec![("to", s(self.to.name())), ("text", s(&self.text))])
    }
}

impl Deserialize for TranslateResult {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(TranslateResult {
            to: language(v, "to")?,
            text: required(v, "text")?,
        })
    }
}

impl Serialize for RowsChunk {
    fn to_json(&self) -> Json {
        let mut pairs = vec![("seq", u(self.seq))];
        if let Some(head) = &self.head {
            pairs.push(("language", s(head.language.name())));
            pairs.push(("canonical", s(&head.canonical)));
            pairs.push(("attrs", head.attrs.to_json()));
        }
        pairs.push(("rows", rows_to_json(&self.rows)));
        obj(pairs)
    }
}

impl Deserialize for RowsChunk {
    fn from_json(v: &Json) -> Result<Self, String> {
        // The header fields travel exactly on the first chunk.
        let head = match v.get("language") {
            Some(_) => Some(ChunkHead {
                language: language(v, "language")?,
                canonical: required(v, "canonical")?,
                attrs: required(v, "attrs")?,
            }),
            None => None,
        };
        Ok(RowsChunk {
            seq: required(v, "seq")?,
            head,
            rows: parse_rows(v)?,
        })
    }
}

impl Serialize for RowsEnd {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq", u(self.seq)),
            ("row_count", u(self.row_count)),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("eval_cache_hit", Json::Bool(self.eval_cache_hit)),
        ];
        push_optional_meta(&mut pairs, &self.translations, &self.diagram, &self.notes);
        obj(pairs)
    }
}

impl Deserialize for RowsEnd {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(RowsEnd {
            seq: required(v, "seq")?,
            row_count: required(v, "row_count")?,
            cache_hit: defaulted(v, "cache_hit")?,
            eval_cache_hit: defaulted(v, "eval_cache_hit")?,
            translations: parse_translations(v)?,
            diagram: required(v, "diagram")?,
            notes: defaulted(v, "notes")?,
        })
    }
}

/// Hand-written for its one quirk: `insert` travels as `"op"`.
impl Serialize for MutationResult {
    fn to_json(&self) -> Json {
        obj(vec![
            ("op", s(if self.insert { "insert" } else { "delete" })),
            ("table", s(&self.table)),
            ("applied", u(self.applied)),
            ("generation", u(self.generation)),
            ("fingerprint", s(&self.fingerprint)),
        ])
    }
}

impl Deserialize for MutationResult {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(MutationResult {
            insert: match required::<String>(v, "op")?.as_str() {
                "insert" => true,
                "delete" => false,
                other => return Err(format!("unknown mutation op '{other}'")),
            },
            table: required(v, "table")?,
            applied: required(v, "applied")?,
            generation: required(v, "generation")?,
            fingerprint: required(v, "fingerprint")?,
        })
    }
}

impl Serialize for StatsResult {
    fn to_json(&self) -> Json {
        obj(vec![
            ("connections", u(self.connections)),
            ("active_connections", u(self.active_connections)),
            ("requests", u(self.requests)),
            ("errors", u(self.errors)),
            ("workers", u(self.workers)),
            ("sessions", session_stats_to_json(&self.sessions)),
            ("parse_cache", cache_stats_to_json(&self.parse_cache)),
            ("eval_cache", cache_stats_to_json(&self.eval_cache)),
            ("eval_cache_enabled", Json::Bool(self.eval_cache_enabled)),
            ("generation", u(self.generation)),
            ("fingerprint", s(&self.fingerprint)),
            ("tables", u(self.tables)),
            ("tuples", u(self.tuples)),
            // Everything from here on was appended, in this order, so
            // the object's byte prefix is stable for older readers.
            ("evicted", u(self.evicted)),
            ("plan_cache", cache_stats_to_json(&self.plan_cache)),
            ("plan_cache_enabled", Json::Bool(self.plan_cache_enabled)),
            ("stages", self.stages.to_json()),
            ("shards", self.shards.to_json()),
            ("planner", self.planner.to_json()),
        ])
    }
}

/// The appended members decode to empty or zero when absent.
impl Deserialize for StatsResult {
    fn from_json(v: &Json) -> Result<Self, String> {
        let member = |key: &str| v.get(key).ok_or_else(|| format!("missing field '{key}'"));
        Ok(StatsResult {
            connections: required(v, "connections")?,
            active_connections: required(v, "active_connections")?,
            requests: required(v, "requests")?,
            errors: required(v, "errors")?,
            evicted: defaulted(v, "evicted")?,
            workers: required(v, "workers")?,
            sessions: session_stats_from_json(member("sessions")?)?,
            parse_cache: cache_stats_from_json(member("parse_cache")?)?,
            eval_cache: cache_stats_from_json(member("eval_cache")?)?,
            eval_cache_enabled: defaulted(v, "eval_cache_enabled")?,
            plan_cache: match v.get("plan_cache") {
                None | Some(Json::Null) => CacheStats::default(),
                Some(o) => cache_stats_from_json(o)?,
            },
            plan_cache_enabled: defaulted(v, "plan_cache_enabled")?,
            generation: required(v, "generation")?,
            fingerprint: required(v, "fingerprint")?,
            tables: required(v, "tables")?,
            tuples: required(v, "tuples")?,
            stages: defaulted(v, "stages")?,
            shards: defaulted(v, "shards")?,
            planner: defaulted(v, "planner")?,
        })
    }
}

impl Serialize for Response {
    fn to_json(&self) -> Json {
        let (kind, payload) = match self {
            Response::Query(q) => ("query", q.to_json()),
            Response::Explain(e) => ("explain", e.to_json()),
            Response::Translate(t) => ("translate", t.to_json()),
            Response::RowsChunk(c) => ("rows-chunk", c.to_json()),
            Response::RowsEnd(e) => ("rows-end", e.to_json()),
            Response::Load(l) => ("load", l.to_json()),
            Response::Mutation(m) => ("mutation", m.to_json()),
            Response::Checkpoint(c) => ("checkpoint", c.to_json()),
            Response::Stats(st) => ("stats", st.to_json()),
            Response::Metrics(m) => ("metrics", m.to_json()),
            Response::Pong => ("pong", Json::Null),
            Response::Bye => ("bye", Json::Null),
            Response::Error(message) => {
                return obj(vec![("ok", Json::Bool(false)), ("error", s(message))])
            }
        };
        envelope([("ok", Json::Bool(true)), ("kind", s(kind))], payload)
    }
}

impl Deserialize for Response {
    fn from_json(v: &Json) -> Result<Self, String> {
        if !required::<bool>(v, "ok")? {
            return Ok(Response::Error(required(v, "error")?));
        }
        // Payloads read their members from the frame itself.
        Ok(match required::<String>(v, "kind")?.as_str() {
            "query" => Response::Query(Deserialize::from_json(v)?),
            "explain" => Response::Explain(Deserialize::from_json(v)?),
            "translate" => Response::Translate(Deserialize::from_json(v)?),
            "rows-chunk" => Response::RowsChunk(Deserialize::from_json(v)?),
            "rows-end" => Response::RowsEnd(Deserialize::from_json(v)?),
            "load" => Response::Load(Deserialize::from_json(v)?),
            "mutation" => Response::Mutation(Deserialize::from_json(v)?),
            "checkpoint" => Response::Checkpoint(Deserialize::from_json(v)?),
            "stats" => Response::Stats(Deserialize::from_json(v)?),
            "metrics" => Response::Metrics(Deserialize::from_json(v)?),
            "pong" => Response::Pong,
            "bye" => Response::Bye,
            other => return Err(format!("unknown response kind '{other}'")),
        })
    }
}

/// Encodes a message as its one-line wire form (no trailing newline).
pub fn encode<T: serde::Serialize>(msg: &T) -> String {
    serde_json::to_string(msg).expect("protocol messages always serialize")
}

/// Decodes one wire line into a message.
pub fn decode<T: serde::Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line).map_err(|e| format!("malformed message: {e}"))
}

/// Encodes one frame: the message's wire form with the request id (if
/// any) appended as a trailing `"id"` member. With no id the output is
/// byte-identical to [`encode`].
pub fn encode_frame<T: serde::Serialize>(msg: &T, id: Option<&RequestId>) -> String {
    let mut json = msg.to_json();
    if let (Some(id), Json::Object(pairs)) = (id, &mut json) {
        pairs.push(("id".to_string(), id.to_json()));
    }
    json.to_compact()
}

/// Decodes one response frame into its id (if any) and the message.
pub fn decode_frame(line: &str) -> Result<(Option<RequestId>, Response), String> {
    let v = serde::json::parse(line).map_err(|e| format!("malformed message: {e}"))?;
    let id = request_id_from(&v)?;
    let resp = <Response as serde::Deserialize>::from_json(&v)
        .map_err(|e| format!("malformed message: {e}"))?;
    Ok((id, resp))
}

/// Decodes one request line into its id (if any) and the request. On
/// failure the error carries the id when it could still be extracted,
/// so the server can echo it in the error frame; the error strings for
/// id-less requests match PR 2's [`decode`] byte for byte.
#[allow(clippy::type_complexity)]
pub fn decode_request_line(
    line: &str,
) -> Result<(Option<RequestId>, Request), (Option<RequestId>, String)> {
    let v = serde::json::parse(line).map_err(|e| (None, format!("malformed message: {e}")))?;
    let id = request_id_from(&v).map_err(|e| (None, e))?;
    match <Request as serde::Deserialize>::from_json(&v) {
        Ok(req) => Ok((id, req)),
        Err(e) => Err((id, format!("malformed message: {e}"))),
    }
}

// ---------------------------------------------------------------------
// Chunked result streaming
// ---------------------------------------------------------------------

/// Builds the streamed-frame sequence for a query result: `meta`
/// supplies everything except the rows (its own `rows` field is
/// ignored), `chunks` supplies the tuples in wire order. Returns the
/// `rows-chunk` frames (the first carrying the header) followed by the
/// closing `rows-end` frame.
pub fn stream_frames(
    meta: &QueryResult,
    chunks: impl Iterator<Item = Vec<Vec<Value>>>,
) -> Vec<Response> {
    let mut frames = Vec::new();
    let mut row_count = 0u64;
    for rows in chunks {
        row_count += rows.len() as u64;
        let head = if frames.is_empty() {
            Some(ChunkHead {
                language: meta.language,
                canonical: meta.canonical.clone(),
                attrs: meta.attrs.clone(),
            })
        } else {
            None
        };
        frames.push(Response::RowsChunk(RowsChunk {
            seq: frames.len() as u64,
            head,
            rows,
        }));
    }
    if frames.is_empty() {
        // Degenerate: an empty result still needs its header frame.
        frames.push(Response::RowsChunk(RowsChunk {
            seq: 0,
            head: Some(ChunkHead {
                language: meta.language,
                canonical: meta.canonical.clone(),
                attrs: meta.attrs.clone(),
            }),
            rows: Vec::new(),
        }));
    }
    frames.push(Response::RowsEnd(RowsEnd {
        seq: frames.len() as u64,
        row_count,
        cache_hit: meta.cache_hit,
        eval_cache_hit: meta.eval_cache_hit,
        translations: meta.translations.clone(),
        diagram: meta.diagram.clone(),
        notes: meta.notes.clone(),
    }));
    frames
}

/// Splits a complete query result into its streamed-frame form with at
/// most `chunk_rows` tuples per chunk (the inverse of [`Reassembler`]).
pub fn split_query(q: &QueryResult, chunk_rows: usize) -> Vec<Response> {
    let chunk_rows = chunk_rows.max(1);
    stream_frames(q, q.rows.chunks(chunk_rows).map(<[Vec<Value>]>::to_vec))
}

/// Folds streamed `rows-chunk` / `rows-end` frames back into complete
/// [`Response::Query`] messages, tracking any number of interleaved
/// streams keyed by request id.
///
/// Feed every received frame through [`Reassembler::accept`]: non-chunk
/// frames pass straight through, chunk frames accumulate and return
/// `None` until their `rows-end` arrives.
#[derive(Default)]
pub struct Reassembler {
    partials: Vec<(Option<RequestId>, Partial)>,
}

struct Partial {
    head: ChunkHead,
    rows: Vec<Vec<Value>>,
    next_seq: u64,
}

impl Reassembler {
    /// A reassembler with no streams in progress.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Number of streams currently being assembled.
    pub fn in_progress(&self) -> usize {
        self.partials.len()
    }

    fn position(&self, id: &Option<RequestId>) -> Option<usize> {
        self.partials.iter().position(|(k, _)| k == id)
    }

    /// Accepts one frame. Returns `Ok(None)` while a stream is mid-
    /// flight, `Ok(Some(..))` for complete responses (pass-through or
    /// finished stream), and `Err` on protocol violations (out-of-order
    /// or duplicate chunks, row-count mismatch, a headerless stream).
    #[allow(clippy::type_complexity)]
    pub fn accept(
        &mut self,
        id: Option<RequestId>,
        response: Response,
    ) -> Result<Option<(Option<RequestId>, Response)>, String> {
        match response {
            Response::RowsChunk(chunk) => {
                match (self.position(&id), chunk.seq, chunk.head) {
                    (None, 0, Some(head)) => self.partials.push((
                        id,
                        Partial {
                            head,
                            rows: chunk.rows,
                            next_seq: 1,
                        },
                    )),
                    (None, seq, _) => {
                        return Err(format!(
                            "rows-chunk seq {seq} for a stream that never started"
                        ))
                    }
                    (Some(_), 0, _) => {
                        return Err("duplicate rows-chunk seq 0 for an open stream".into())
                    }
                    (Some(at), seq, _) => {
                        let partial = &mut self.partials[at].1;
                        if seq != partial.next_seq {
                            return Err(format!(
                                "out-of-order rows-chunk: expected seq {}, got {seq}",
                                partial.next_seq
                            ));
                        }
                        partial.next_seq += 1;
                        partial.rows.extend(chunk.rows);
                    }
                }
                Ok(None)
            }
            Response::RowsEnd(end) => {
                let at = self
                    .position(&id)
                    .ok_or("rows-end for a stream that never started")?;
                let (id, partial) = self.partials.swap_remove(at);
                if end.seq != partial.next_seq {
                    return Err(format!(
                        "out-of-order rows-end: expected seq {}, got {}",
                        partial.next_seq, end.seq
                    ));
                }
                if end.row_count != partial.rows.len() as u64 {
                    return Err(format!(
                        "rows-end claims {} rows but {} arrived",
                        end.row_count,
                        partial.rows.len()
                    ));
                }
                Ok(Some((
                    id,
                    Response::Query(QueryResult {
                        language: partial.head.language,
                        canonical: partial.head.canonical,
                        attrs: partial.head.attrs,
                        rows: partial.rows,
                        cache_hit: end.cache_hit,
                        eval_cache_hit: end.eval_cache_hit,
                        translations: end.translations,
                        diagram: end.diagram,
                        notes: end.notes,
                    }),
                )))
            }
            other => Ok(Some((id, other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let line = encode(&req);
        assert!(!line.contains('\n'), "wire form must be one line: {line}");
        let back: Request = decode(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Query {
            language: Some(Language::Sql),
            text: "SELECT DISTINCT Boat.color FROM Boat".into(),
            translations: true,
            diagram: DiagramFormat::Dot,
        });
        roundtrip_request(Request::Query {
            language: None,
            text: "pi[color](Boat)".into(),
            translations: false,
            diagram: DiagramFormat::None,
        });
        roundtrip_request(Request::Explain {
            language: Some(Language::Trc),
            text: "{ q(A) | exists r in R [ q.A = r.A ] }".into(),
            analyze: false,
        });
        roundtrip_request(Request::Explain {
            language: None,
            text: "pi[color](Boat)".into(),
            analyze: true,
        });
        roundtrip_request(Request::Translate {
            language: Some(Language::Trc),
            text: "{ q(A) | exists r in R [ q.A = r.A ] }".into(),
            to: Language::Sql,
        });
        roundtrip_request(Request::Load(LoadSource::Fixture("R(a):\n (1)\n".into())));
        roundtrip_request(Request::Load(LoadSource::Csv {
            table: "R".into(),
            text: "a,b\n1,x\n".into(),
        }));
        roundtrip_request(Request::Insert {
            table: "Boat".into(),
            rows: vec![
                vec![Value::int(103), Value::str("blue")],
                vec![Value::int(104), Value::str("red")],
            ],
        });
        roundtrip_request(Request::Delete {
            table: "Boat".into(),
            rows: vec![vec![Value::int(103), Value::str("blue")]],
        });
        roundtrip_request(Request::Checkpoint);
        roundtrip_request(Request::Stats { reset: false });
        roundtrip_request(Request::Stats { reset: true });
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn explain_analyze_flag_is_omitted_when_false() {
        let plain = encode(&Request::Explain {
            language: None,
            text: "pi[x](R)".into(),
            analyze: false,
        });
        assert!(!plain.contains("analyze"), "{plain}");
        // A PR-2 client frame (no analyze field) decodes to analyze=false.
        let req: Request = decode(r#"{"op":"explain","text":"pi[x](R)"}"#).unwrap();
        assert_eq!(
            req,
            Request::Explain {
                language: None,
                text: "pi[x](R)".into(),
                analyze: false,
            }
        );
    }

    #[test]
    fn stats_reset_flag_is_omitted_when_false() {
        assert_eq!(
            encode(&Request::Stats { reset: false }),
            r#"{"op":"stats"}"#
        );
        let req: Request = decode(r#"{"op":"stats","reset":true}"#).unwrap();
        assert_eq!(req, Request::Stats { reset: true });
    }

    #[test]
    fn metrics_roundtrip() {
        roundtrip_request(Request::Metrics);
        let resp = Response::Metrics(MetricsResult {
            text: "# TYPE rd_stage_latency_micros histogram\n\
                   rd_stage_latency_micros_bucket{stage=\"parse\",le=\"4\"} 1\n"
                .into(),
        });
        let line = encode(&resp);
        assert!(line.contains(r#""kind":"metrics""#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn mutation_and_checkpoint_responses_roundtrip() {
        for insert in [true, false] {
            let resp = Response::Mutation(MutationResult {
                insert,
                table: "Boat".into(),
                applied: 2,
                generation: 7,
                fingerprint: "ab12".into(),
            });
            let line = encode(&resp);
            let expected_op = if insert { "insert" } else { "delete" };
            assert!(line.contains(&format!(r#""op":"{expected_op}""#)), "{line}");
            let back: Response = decode(&line).unwrap();
            assert_eq!(back, resp);
        }
        let cp = Response::Checkpoint(CheckpointResult {
            seq: 3,
            generation: 7,
            fingerprint: "ab12".into(),
        });
        let back: Response = decode(&encode(&cp)).unwrap();
        assert_eq!(back, cp);
        // Malformed mutation requests are rejected with the field name.
        assert!(decode::<Request>(r#"{"op":"insert","table":"R"}"#).is_err());
        assert!(decode::<Request>(r#"{"op":"insert","rows":[[1]]}"#).is_err());
        assert!(decode::<Request>(r#"{"op":"delete","table":"R","rows":[[{}]]}"#).is_err());
    }

    #[test]
    fn stats_with_delta_counters_roundtrip() {
        let stats = Response::Stats(StatsResult {
            sessions: SessionStats {
                delta_invalidations: 3,
                delta_survivals: 9,
                ..SessionStats::default()
            },
            fingerprint: "abc".into(),
            ..StatsResult::default()
        });
        let line = encode(&stats);
        assert!(line.contains(r#""delta_survivals":9"#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, stats);
        // Pre-durability frames (no delta fields) still parse to zeros.
        let legacy = line.replace(r#","delta_invalidations":3,"delta_survivals":9"#, "");
        match decode::<Response>(&legacy).unwrap() {
            Response::Stats(st) => {
                assert_eq!(st.sessions.delta_invalidations, 0);
                assert_eq!(st.sessions.delta_survivals, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_with_planner_summary_roundtrip() {
        let stats = Response::Stats(StatsResult {
            sessions: SessionStats {
                delta_survivals: 3,
                ..SessionStats::default()
            },
            planner: PlannerStats {
                q_count: 40,
                q_p50: 110,
                q_p95: 480,
                q_p99: 5000,
            },
            fingerprint: "abc".into(),
            ..StatsResult::default()
        });
        let line = encode(&stats);
        assert!(!line.contains("replans"), "{line}");
        assert!(line.contains(r#""q_p95":480"#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, stats);
        // Frames from servers with the feedback loop carry its counters
        // in both places; they decode to the same stats.
        let block = r#""planner":{"q_count":40"#;
        let with_loop = line
            .replace(
                r#""delta_survivals":3"#,
                r#""delta_survivals":3,"planner_replans":2,"planner_feedback_hits":5"#,
            )
            .replace(
                block,
                r#""planner":{"replans":2,"feedback_hits":5,"q_count":40"#,
            );
        assert!(with_loop.contains("planner_replans") && with_loop.contains(r#"{"replans""#));
        assert_eq!(decode::<Response>(&with_loop).unwrap(), stats);
        // Pre-planner frames carry no summary block: it decodes to zeros.
        let legacy = line.replace(
            r#","planner":{"q_count":40,"q_p50":110,"q_p95":480,"q_p99":5000}"#,
            "",
        );
        assert_ne!(legacy, line, "replacement must hit");
        match decode::<Response>(&legacy).unwrap() {
            Response::Stats(st) => assert_eq!(st.planner, PlannerStats::default()),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resp = Response::Query(QueryResult {
            language: Language::Ra,
            canonical: "pi[color](Boat)".into(),
            attrs: vec!["color".into()],
            rows: vec![vec![Value::str("red")], vec![Value::int(7)]],
            cache_hit: true,
            eval_cache_hit: false,
            translations: Some(vec![("trc".into(), "{ q(color) | ... }".into())]),
            diagram: Some("digraph {}".into()),
            notes: vec!["note".into()],
        });
        let back: Response = decode(&encode(&resp)).unwrap();
        assert_eq!(back, resp);

        let stats = Response::Stats(StatsResult {
            connections: 3,
            requests: 10,
            sessions: SessionStats {
                queries: 10,
                eval_hits: 4,
                ..SessionStats::default()
            },
            parse_cache: CacheStats {
                hits: 6,
                misses: 4,
                evictions: 0,
                entries: 4,
                capacity: 256,
                bytes: 0,
            },
            fingerprint: "abc123".into(),
            ..StatsResult::default()
        });
        let back: Response = decode(&encode(&stats)).unwrap();
        assert_eq!(back, stats);

        for r in [
            Response::Pong,
            Response::Bye,
            Response::Error("boom".into()),
            Response::Load(LoadResult {
                tables: 2,
                tuples: 5,
                generation: 1,
                fingerprint: "ff".into(),
            }),
        ] {
            let back: Response = decode(&encode(&r)).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn explain_and_translate_responses_roundtrip() {
        let explain = Response::Explain(ExplainResult {
            language: Language::Trc,
            canonical: "{ q(A) | ... }".into(),
            plan: ExplainNode {
                kind: "query".into(),
                detail: "q(A)".into(),
                children: vec![ExplainNode {
                    kind: "scan".into(),
                    detail: "R hash probe on c0 = t1.c0".into(),
                    children: Vec::new(),
                    est_rows: None,
                    actual_rows: None,
                    q_error: None,
                    build: None,
                }],
                est_rows: None,
                actual_rows: None,
                q_error: None,
                build: None,
            },
            cache_hit: true,
        });
        let line = encode(&explain);
        assert!(line.contains(r#""kind":"explain""#), "{line}");
        assert!(line.contains("hash probe"), "{line}");
        // Plain explain stays byte-compatible: no row-count fields.
        assert!(!line.contains("est_rows"), "{line}");
        assert!(!line.contains("actual_rows"), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, explain);

        let translate = Response::Translate(TranslateResult {
            to: Language::Sql,
            text: "SELECT DISTINCT R.A\nFROM R".into(),
        });
        let back: Response = decode(&encode(&translate)).unwrap();
        assert_eq!(back, translate);
    }

    #[test]
    fn analyzed_explain_responses_roundtrip() {
        let analyzed = Response::Explain(ExplainResult {
            language: Language::Ra,
            canonical: "pi[A](R join S)".into(),
            plan: ExplainNode {
                kind: "project".into(),
                detail: "A".into(),
                children: vec![ExplainNode {
                    kind: "join".into(),
                    detail: "natural on B".into(),
                    children: Vec::new(),
                    est_rows: Some(2),
                    actual_rows: Some(3),
                    q_error: Some(1.5),
                    build: Some("hash".into()),
                }],
                est_rows: Some(2),
                actual_rows: Some(2),
                q_error: Some(1.0),
                build: None,
            },
            cache_hit: false,
        });
        let line = encode(&analyzed);
        assert!(line.contains(r#""est_rows":2"#), "{line}");
        assert!(line.contains(r#""actual_rows":3"#), "{line}");
        assert!(line.contains(r#""q_error":1.5"#), "{line}");
        assert!(line.contains(r#""build":"hash""#), "{line}");
        assert!(!line.contains(r#""mode""#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, analyzed);
    }

    /// Frames from servers that still ran two executors carry an explain
    /// `mode` per node and `batched_execs`/`tuple_fallbacks` in the stats
    /// sessions object; newer readers ignore all three.
    #[test]
    fn legacy_executor_mode_fields_are_ignored() {
        let explain = r#"{"ok":true,"kind":"explain","language":"ra","canonical":"pi[A](R)","plan":{"kind":"ops","detail":"q(A)","children":[{"kind":"scan","detail":"R full scan","children":[],"mode":"tuple"}],"est_rows":4,"actual_rows":2,"q_error":1.5,"mode":"batched","build":"hash"},"cache_hit":false}"#;
        match decode::<Response>(explain).unwrap() {
            Response::Explain(e) => {
                assert_eq!(e.plan.kind, "ops");
                assert_eq!(e.plan.actual_rows, Some(2));
                assert_eq!(e.plan.build.as_deref(), Some("hash"));
                assert_eq!(e.plan.children[0].detail, "R full scan");
            }
            other => panic!("expected explain, got {other:?}"),
        }
        let stats = Response::Stats(StatsResult {
            sessions: SessionStats {
                queries: 7,
                delta_survivals: 2,
                ..SessionStats::default()
            },
            fingerprint: "abc".into(),
            ..StatsResult::default()
        });
        let line = encode(&stats);
        let anchor = r#""delta_survivals":2"#;
        assert!(line.contains(anchor), "{line}");
        let legacy = line.replace(
            anchor,
            r#""delta_survivals":2,"batched_execs":5,"tuple_fallbacks":2"#,
        );
        assert_eq!(decode::<Response>(&legacy).unwrap(), stats);
    }

    #[test]
    fn legacy_explain_frames_still_parse() {
        // A pre-analyze server frame: no est_rows/actual_rows anywhere.
        let legacy = r#"{"ok":true,"kind":"explain","language":"trc","canonical":"{ q(A) | ... }","plan":{"kind":"query","detail":"q(A)","children":[{"kind":"scan","detail":"R full scan","children":[]}]},"cache_hit":false}"#;
        match decode::<Response>(legacy).unwrap() {
            Response::Explain(e) => {
                assert_eq!(e.plan.est_rows, None);
                assert_eq!(e.plan.actual_rows, None);
                assert_eq!(e.plan.children[0].actual_rows, None);
            }
            other => panic!("expected explain, got {other:?}"),
        }
    }

    #[test]
    fn stats_with_stage_latencies_roundtrip() {
        let stats = Response::Stats(StatsResult {
            requests: 12,
            stages: vec![
                StageLatency {
                    stage: "parse".into(),
                    count: 12,
                    p50: 40,
                    p95: 90,
                    p99: 120,
                },
                StageLatency {
                    stage: "execute".into(),
                    count: 12,
                    p50: 200,
                    p95: 900,
                    p99: 1600,
                },
            ],
            fingerprint: "abc".into(),
            ..StatsResult::default()
        });
        let line = encode(&stats);
        assert!(line.contains(r#""stages":["#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, stats);
        // Pre-observability frames (no stages array) decode to empty.
        let legacy = line.replace(
            r#","stages":[{"stage":"parse","count":12,"p50":40,"p95":90,"p99":120},{"stage":"execute","count":12,"p50":200,"p95":900,"p99":1600}]"#,
            "",
        );
        assert_ne!(legacy, line, "replacement must hit");
        match decode::<Response>(&legacy).unwrap() {
            Response::Stats(st) => assert!(st.stages.is_empty()),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_with_shard_breakdown_roundtrip() {
        let stats = Response::Stats(StatsResult {
            connections: 9,
            active_connections: 3,
            evicted: 1,
            shards: vec![
                ShardBreakdown {
                    shard: 0,
                    connections: 5,
                    active: 2,
                    evicted: 0,
                    inline: 12,
                },
                ShardBreakdown {
                    shard: 1,
                    connections: 4,
                    active: 1,
                    evicted: 1,
                    inline: 0,
                },
            ],
            fingerprint: "abc".into(),
            ..StatsResult::default()
        });
        let line = encode(&stats);
        assert!(line.contains(r#""shards":["#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, stats);
        // Frames from before the inline counter decode it as 0.
        let pre_inline = line
            .replace(r#","inline":12"#, "")
            .replace(r#","inline":0"#, "");
        assert_ne!(pre_inline, line, "replacement must hit");
        match decode::<Response>(&pre_inline).unwrap() {
            Response::Stats(st) => {
                assert_eq!(st.shards.len(), 2);
                assert!(st.shards.iter().all(|s| s.inline == 0), "{:?}", st.shards);
                assert_eq!(st.shards[1].evicted, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // Pre-sharding frames (no shards array) decode to empty.
        let legacy = line.replace(
            r#","shards":[{"shard":0,"connections":5,"active":2,"evicted":0,"inline":12},{"shard":1,"connections":4,"active":1,"evicted":1,"inline":0}]"#,
            "",
        );
        assert_ne!(legacy, line, "replacement must hit");
        match decode::<Response>(&legacy).unwrap() {
            Response::Stats(st) => {
                assert!(st.shards.is_empty());
                assert_eq!(st.connections, 9, "totals survive without the breakdown");
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_with_plan_cache_counters_roundtrip() {
        let stats = Response::Stats(StatsResult {
            sessions: SessionStats {
                plan_hits: 7,
                plan_misses: 2,
                plan_evictions: 1,
                ..SessionStats::default()
            },
            plan_cache: CacheStats {
                hits: 7,
                misses: 2,
                evictions: 1,
                entries: 2,
                capacity: 256,
                bytes: 0,
            },
            plan_cache_enabled: true,
            fingerprint: "abc".into(),
            ..StatsResult::default()
        });
        let line = encode(&stats);
        assert!(line.contains(r#""plan_cache""#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, stats);
        // Pre-plan-cache frames (no plan fields) still parse, with
        // defaulted counters — forward compatibility both ways.
        let legacy = line
            .replace(",\"plan_hits\":7,\"plan_misses\":2,\"plan_evictions\":1", "")
            .replace(r#","plan_cache":{"hits":7,"misses":2,"evictions":1,"entries":2,"capacity":256,"cached_bytes":0},"plan_cache_enabled":true"#, "");
        let back: Response = decode(&legacy).unwrap();
        match back {
            Response::Stats(st) => {
                assert_eq!(st.sessions.plan_hits, 0);
                assert_eq!(st.plan_cache, CacheStats::default());
                assert!(!st.plan_cache_enabled);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn lang_auto_and_malformed_inputs() {
        let req: Request = decode(r#"{"op":"query","lang":"auto","text":"Boat"}"#).unwrap();
        assert!(matches!(req, Request::Query { language: None, .. }));
        assert!(decode::<Request>(r#"{"op":"nope"}"#).is_err());
        assert!(decode::<Request>(r#"{"op":"query"}"#).is_err());
        assert!(decode::<Request>(r#"{"op":"load"}"#).is_err());
        assert!(decode::<Request>("not json").is_err());
        assert!(
            decode::<Response>(r#"{"kind":"pong"}"#).is_err(),
            "missing ok"
        );
    }

    #[test]
    fn request_ids_are_extracted_and_echoed() {
        let (id, req) = decode_request_line(r#"{"op":"ping","id":7}"#).unwrap();
        assert_eq!(id, Some(RequestId::Int(7)));
        assert_eq!(req, Request::Ping);
        let (id, _) = decode_request_line(r#"{"op":"ping","id":"q-7"}"#).unwrap();
        assert_eq!(id, Some(RequestId::Str("q-7".into())));
        let (id, _) = decode_request_line(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(id, None);
        // Echo: the id lands as a trailing member; without one the
        // frame is byte-identical to the plain encoding.
        let pong = Response::Pong;
        assert_eq!(
            encode_frame(&pong, Some(&RequestId::Int(7))),
            r#"{"ok":true,"kind":"pong","id":7}"#
        );
        assert_eq!(encode_frame(&pong, None), encode(&pong));
        let (id, resp) = decode_frame(r#"{"ok":true,"kind":"pong","id":"x"}"#).unwrap();
        assert_eq!(id, Some(RequestId::Str("x".into())));
        assert_eq!(resp, Response::Pong);
    }

    #[test]
    fn malformed_ids_are_rejected() {
        for line in [
            r#"{"op":"ping","id":{"a":1}}"#,
            r#"{"op":"ping","id":[1]}"#,
            r#"{"op":"ping","id":1.5}"#,
            r#"{"op":"ping","id":true}"#,
        ] {
            let (id, err) = decode_request_line(line).unwrap_err();
            assert_eq!(id, None, "a malformed id cannot be echoed");
            assert!(err.contains("'id'"), "{err}");
        }
        // A good id on a bad request is still echoed in the error.
        let (id, err) = decode_request_line(r#"{"op":"nope","id":3}"#).unwrap_err();
        assert_eq!(id, Some(RequestId::Int(3)));
        assert!(err.starts_with("malformed message:"), "{err}");
    }

    fn big_result(rows: usize) -> QueryResult {
        QueryResult {
            language: Language::Ra,
            canonical: "pi[x](R)".into(),
            attrs: vec!["x".into()],
            rows: (0..rows).map(|i| vec![Value::int(i as i64)]).collect(),
            cache_hit: false,
            eval_cache_hit: true,
            translations: None,
            diagram: None,
            notes: vec!["n".into()],
        }
    }

    #[test]
    fn split_and_reassemble_roundtrip() {
        let q = big_result(10);
        for chunk_rows in [1, 3, 10, 100] {
            let frames = split_query(&q, chunk_rows);
            assert!(
                matches!(frames.last(), Some(Response::RowsEnd(_))),
                "stream ends with rows-end"
            );
            let mut reasm = Reassembler::new();
            let mut complete = None;
            for frame in frames {
                // Through the wire: every frame must survive encoding.
                let line = encode_frame(&frame, Some(&RequestId::Int(1)));
                let (id, frame) = decode_frame(&line).unwrap();
                assert_eq!(id, Some(RequestId::Int(1)));
                if let Some(done) = reasm.accept(id, frame).unwrap() {
                    assert!(complete.is_none(), "exactly one completion");
                    complete = Some(done);
                }
            }
            let (id, resp) = complete.expect("stream completed");
            assert_eq!(id, Some(RequestId::Int(1)));
            assert_eq!(resp, Response::Query(q.clone()));
            assert_eq!(reasm.in_progress(), 0);
        }
    }

    #[test]
    fn interleaved_streams_reassemble_independently() {
        let a = big_result(5);
        let mut b = big_result(4);
        b.canonical = "pi[y](S)".into();
        let a_frames = split_query(&a, 2);
        let b_frames = split_query(&b, 2);
        let a_id = Some(RequestId::Str("a".into()));
        let b_id = Some(RequestId::Int(2));
        // Interleave the two streams frame by frame, with an unrelated
        // pong passing through the middle.
        let mut reasm = Reassembler::new();
        let mut done = Vec::new();
        let mut feed = |reasm: &mut Reassembler, id: &Option<RequestId>, f: &Response| {
            if let Some(c) = reasm.accept(id.clone(), f.clone()).unwrap() {
                done.push(c);
            }
        };
        for i in 0..a_frames.len().max(b_frames.len()) {
            if let Some(f) = a_frames.get(i) {
                feed(&mut reasm, &a_id, f);
            }
            if i == 1 {
                feed(&mut reasm, &None, &Response::Pong);
            }
            if let Some(f) = b_frames.get(i) {
                feed(&mut reasm, &b_id, f);
            }
        }
        assert_eq!(done.len(), 3);
        assert_eq!(done[0], (None, Response::Pong), "pass-through mid-stream");
        assert!(done.contains(&(a_id, Response::Query(a))));
        assert!(done.contains(&(b_id, Response::Query(b))));
    }

    #[test]
    fn reassembler_rejects_protocol_violations() {
        let q = big_result(6);
        let frames = split_query(&q, 2);
        // Chunk for a stream that never started.
        let mut reasm = Reassembler::new();
        assert!(reasm.accept(None, frames[1].clone()).is_err());
        // Out-of-order chunk (seq skips).
        let mut reasm = Reassembler::new();
        reasm.accept(None, frames[0].clone()).unwrap();
        assert!(reasm.accept(None, frames[2].clone()).is_err());
        // rows-end with a wrong row count.
        let mut reasm = Reassembler::new();
        reasm.accept(None, frames[0].clone()).unwrap();
        reasm.accept(None, frames[1].clone()).unwrap();
        reasm.accept(None, frames[2].clone()).unwrap();
        if let Response::RowsEnd(mut end) = frames[3].clone() {
            end.row_count += 1;
            assert!(reasm.accept(None, Response::RowsEnd(end)).is_err());
        } else {
            panic!("expected rows-end");
        }
        // rows-end without any chunks.
        let mut reasm = Reassembler::new();
        assert!(reasm.accept(None, frames[3].clone()).is_err());
    }

    #[test]
    fn empty_streamed_result_still_has_a_header_frame() {
        let q = QueryResult {
            rows: Vec::new(),
            ..big_result(0)
        };
        let frames = split_query(&q, 4);
        assert_eq!(frames.len(), 2, "one header chunk + rows-end");
        let mut reasm = Reassembler::new();
        assert!(reasm.accept(None, frames[0].clone()).unwrap().is_none());
        let (_, resp) = reasm.accept(None, frames[1].clone()).unwrap().unwrap();
        assert_eq!(resp, Response::Query(q));
    }

    #[test]
    fn chunk_frames_roundtrip_standalone() {
        let chunk = Response::RowsChunk(RowsChunk {
            seq: 0,
            head: Some(ChunkHead {
                language: Language::Sql,
                canonical: "SELECT ...".into(),
                attrs: vec!["a".into(), "b".into()],
            }),
            rows: vec![vec![Value::int(1), Value::str("x")]],
        });
        let back: Response = decode(&encode(&chunk)).unwrap();
        assert_eq!(back, chunk);
        let tail = Response::RowsChunk(RowsChunk {
            seq: 3,
            head: None,
            rows: vec![],
        });
        let back: Response = decode(&encode(&tail)).unwrap();
        assert_eq!(back, tail);
        let end = Response::RowsEnd(RowsEnd {
            seq: 4,
            row_count: 9,
            cache_hit: true,
            eval_cache_hit: false,
            translations: Some(vec![("trc".into(), "{...}".into())]),
            diagram: Some("digraph {}".into()),
            notes: vec![],
        });
        let back: Response = decode(&encode(&end)).unwrap();
        assert_eq!(back, end);
    }
    /// One fully populated message per request variant.
    fn golden_requests() -> Vec<Request> {
        vec![
            Request::Query {
                language: Some(Language::Sql),
                text: "SELECT DISTINCT Boat.color\nFROM Boat".into(),
                translations: true,
                diagram: DiagramFormat::Svg,
            },
            Request::Explain {
                language: Some(Language::Datalog),
                text: "Q(c) :- Boat(b, c).".into(),
                analyze: true,
            },
            Request::Translate {
                language: Some(Language::Trc),
                text: "{ q(A) | exists r in R [ q.A = r.A ] }".into(),
                to: Language::Ra,
            },
            Request::Load(LoadSource::Fixture("R(a, b):\n  (1, 'x')\n".into())),
            Request::Load(LoadSource::Csv {
                table: "R".into(),
                text: "a,b\n1,\"x, y\"\n".into(),
            }),
            Request::Insert {
                table: "Boat".into(),
                rows: vec![
                    vec![Value::int(103), Value::str("blue")],
                    vec![Value::int(-4), Value::str("say \"hi\"\t")],
                ],
            },
            Request::Delete {
                table: "Boat".into(),
                rows: vec![vec![Value::int(103), Value::str("blue")]],
            },
            Request::Checkpoint,
            Request::Stats { reset: true },
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ]
    }

    /// One fully populated message per response variant (both mutation
    /// ops, and both streamed-chunk shapes).
    fn golden_responses() -> Vec<Response> {
        let leaf = ExplainNode {
            kind: "scan".into(),
            detail: "Boat hash probe on c0 = t1.c0".into(),
            est_rows: Some(4),
            actual_rows: Some(3),
            q_error: Some(1.25),
            build: Some("dense-key".into()),
            children: Vec::new(),
        };
        let cache = |hits: u64| CacheStats {
            hits,
            misses: 2,
            evictions: 1,
            entries: 5,
            capacity: 256,
            bytes: 4096,
        };
        vec![
            Response::Query(QueryResult {
                language: Language::Trc,
                canonical: "{ q(color) | exists b in Boat [q.color = b.color] }".into(),
                attrs: vec!["color".into()],
                rows: vec![vec![Value::str("red")], vec![Value::int(-7)]],
                cache_hit: true,
                eval_cache_hit: true,
                translations: Some(vec![
                    ("sql".into(), "SELECT DISTINCT Boat.color\nFROM Boat".into()),
                    ("ra".into(), "pi[color](Boat)".into()),
                ]),
                diagram: Some("<svg>\"q\"</svg>".into()),
                notes: vec!["datalog: n/a".into()],
            }),
            Response::Explain(ExplainResult {
                language: Language::Ra,
                canonical: "pi[color](Boat)".into(),
                plan: ExplainNode {
                    kind: "query".into(),
                    detail: "q(color)".into(),
                    est_rows: Some(4),
                    actual_rows: Some(2),
                    q_error: Some(2.0),
                    build: None,
                    children: vec![
                        leaf.clone(),
                        ExplainNode {
                            kind: "not".into(),
                            detail: String::new(),
                            est_rows: None,
                            actual_rows: None,
                            q_error: None,
                            build: None,
                            children: vec![leaf],
                        },
                    ],
                },
                cache_hit: true,
            }),
            Response::Translate(TranslateResult {
                to: Language::Datalog,
                text: "Q(c) :- Boat(b, c).".into(),
            }),
            Response::RowsChunk(RowsChunk {
                seq: 0,
                head: Some(ChunkHead {
                    language: Language::Sql,
                    canonical: "SELECT DISTINCT R.a, R.b\nFROM R".into(),
                    attrs: vec!["a".into(), "b".into()],
                }),
                rows: vec![vec![Value::int(1), Value::str("x")]],
            }),
            Response::RowsChunk(RowsChunk {
                seq: 1,
                head: None,
                rows: vec![vec![Value::int(2), Value::str("y")]],
            }),
            Response::RowsEnd(RowsEnd {
                seq: 2,
                row_count: 2,
                cache_hit: true,
                eval_cache_hit: true,
                translations: Some(vec![("trc".into(), "{ q(a, b) | ... }".into())]),
                diagram: Some("digraph { R }".into()),
                notes: vec!["streamed".into()],
            }),
            Response::Load(LoadResult {
                tables: 3,
                tuples: 14,
                generation: 2,
                fingerprint: "4f9a00c1".into(),
            }),
            Response::Mutation(MutationResult {
                insert: true,
                table: "Boat".into(),
                applied: 2,
                generation: 3,
                fingerprint: "91c0".into(),
            }),
            Response::Mutation(MutationResult {
                insert: false,
                table: "Boat".into(),
                applied: 0,
                generation: 4,
                fingerprint: "91c1".into(),
            }),
            Response::Checkpoint(CheckpointResult {
                seq: 5,
                generation: 4,
                fingerprint: "91c1".into(),
            }),
            Response::Stats(StatsResult {
                connections: 9,
                active_connections: 3,
                requests: 120,
                errors: 2,
                evicted: 1,
                workers: 4,
                sessions: SessionStats {
                    queries: 100,
                    batches: 1,
                    cache_hits: 60,
                    cache_misses: 40,
                    cache_evictions: 3,
                    eval_hits: 50,
                    eval_misses: 50,
                    eval_evictions: 4,
                    eval_skipped: 5,
                    plan_hits: 30,
                    plan_misses: 10,
                    plan_evictions: 6,
                    delta_invalidations: 7,
                    delta_survivals: 8,
                    rows_returned: 900,
                    rows_streamed: 400,
                },
                parse_cache: cache(60),
                eval_cache: cache(50),
                eval_cache_enabled: true,
                plan_cache: cache(30),
                plan_cache_enabled: true,
                generation: 4,
                fingerprint: "91c1".into(),
                tables: 3,
                tuples: 15,
                stages: vec![StageLatency {
                    stage: "parse".into(),
                    count: 40,
                    p50: 12,
                    p95: 30,
                    p99: 55,
                }],
                shards: vec![ShardBreakdown {
                    shard: 1,
                    connections: 5,
                    active: 2,
                    evicted: 1,
                    inline: 33,
                }],
                planner: PlannerStats {
                    q_count: 40,
                    q_p50: 110,
                    q_p95: 480,
                    q_p99: 5000,
                },
            }),
            Response::Metrics(MetricsResult {
                text: "# TYPE rd_requests_total counter\nrd_requests_total 120\n".into(),
            }),
            Response::Pong,
            Response::Bye,
            Response::Error("unknown table 'Boats'".into()),
        ]
    }

    /// The pinned wire bytes of every request and response kind (the
    /// messages are `golden_requests` and `golden_responses`).
    const GOLDEN_REQUESTS: [&str; 12] = [
        r#"{"op":"query","lang":"sql","text":"SELECT DISTINCT Boat.color\nFROM Boat","translations":true,"diagram":"svg"}"#,
        r#"{"op":"explain","lang":"datalog","text":"Q(c) :- Boat(b, c).","analyze":true}"#,
        r#"{"op":"translate","to":"ra","lang":"trc","text":"{ q(A) | exists r in R [ q.A = r.A ] }"}"#,
        r#"{"op":"load","fixture":"R(a, b):\n  (1, 'x')\n"}"#,
        r#"{"op":"load","csv":"a,b\n1,\"x, y\"\n","table":"R"}"#,
        r#"{"op":"insert","table":"Boat","rows":[[103,"blue"],[-4,"say \"hi\"\t"]]}"#,
        r#"{"op":"delete","table":"Boat","rows":[[103,"blue"]]}"#,
        r#"{"op":"checkpoint"}"#,
        r#"{"op":"stats","reset":true}"#,
        r#"{"op":"metrics"}"#,
        r#"{"op":"ping"}"#,
        r#"{"op":"shutdown"}"#,
    ];

    const GOLDEN_RESPONSES: [&str; 15] = [
        r#"{"ok":true,"kind":"query","language":"trc","canonical":"{ q(color) | exists b in Boat [q.color = b.color] }","attrs":["color"],"rows":[["red"],[-7]],"row_count":2,"cache_hit":true,"eval_cache_hit":true,"translations":{"sql":"SELECT DISTINCT Boat.color\nFROM Boat","ra":"pi[color](Boat)"},"diagram":"<svg>\"q\"</svg>","notes":["datalog: n/a"]}"#,
        r#"{"ok":true,"kind":"explain","language":"ra","canonical":"pi[color](Boat)","plan":{"kind":"query","detail":"q(color)","children":[{"kind":"scan","detail":"Boat hash probe on c0 = t1.c0","children":[],"est_rows":4,"actual_rows":3,"q_error":1.25,"build":"dense-key"},{"kind":"not","detail":"","children":[{"kind":"scan","detail":"Boat hash probe on c0 = t1.c0","children":[],"est_rows":4,"actual_rows":3,"q_error":1.25,"build":"dense-key"}]}],"est_rows":4,"actual_rows":2,"q_error":2.0},"cache_hit":true}"#,
        r#"{"ok":true,"kind":"translate","to":"datalog","text":"Q(c) :- Boat(b, c)."}"#,
        r#"{"ok":true,"kind":"rows-chunk","seq":0,"language":"sql","canonical":"SELECT DISTINCT R.a, R.b\nFROM R","attrs":["a","b"],"rows":[[1,"x"]]}"#,
        r#"{"ok":true,"kind":"rows-chunk","seq":1,"rows":[[2,"y"]]}"#,
        r#"{"ok":true,"kind":"rows-end","seq":2,"row_count":2,"cache_hit":true,"eval_cache_hit":true,"translations":{"trc":"{ q(a, b) | ... }"},"diagram":"digraph { R }","notes":["streamed"]}"#,
        r#"{"ok":true,"kind":"load","tables":3,"tuples":14,"generation":2,"fingerprint":"4f9a00c1"}"#,
        r#"{"ok":true,"kind":"mutation","op":"insert","table":"Boat","applied":2,"generation":3,"fingerprint":"91c0"}"#,
        r#"{"ok":true,"kind":"mutation","op":"delete","table":"Boat","applied":0,"generation":4,"fingerprint":"91c1"}"#,
        r#"{"ok":true,"kind":"checkpoint","seq":5,"generation":4,"fingerprint":"91c1"}"#,
        r#"{"ok":true,"kind":"stats","connections":9,"active_connections":3,"requests":120,"errors":2,"workers":4,"sessions":{"queries":100,"batches":1,"cache_hits":60,"cache_misses":40,"cache_evictions":3,"eval_hits":50,"eval_misses":50,"eval_evictions":4,"eval_skipped":5,"rows_returned":900,"rows_streamed":400,"plan_hits":30,"plan_misses":10,"plan_evictions":6,"delta_invalidations":7,"delta_survivals":8},"parse_cache":{"hits":60,"misses":2,"evictions":1,"entries":5,"capacity":256,"cached_bytes":4096},"eval_cache":{"hits":50,"misses":2,"evictions":1,"entries":5,"capacity":256,"cached_bytes":4096},"eval_cache_enabled":true,"generation":4,"fingerprint":"91c1","tables":3,"tuples":15,"evicted":1,"plan_cache":{"hits":30,"misses":2,"evictions":1,"entries":5,"capacity":256,"cached_bytes":4096},"plan_cache_enabled":true,"stages":[{"stage":"parse","count":40,"p50":12,"p95":30,"p99":55}],"shards":[{"shard":1,"connections":5,"active":2,"evicted":1,"inline":33}],"planner":{"q_count":40,"q_p50":110,"q_p95":480,"q_p99":5000}}"#,
        r##"{"ok":true,"kind":"metrics","text":"# TYPE rd_requests_total counter\nrd_requests_total 120\n"}"##,
        r#"{"ok":true,"kind":"pong"}"#,
        r#"{"ok":true,"kind":"bye"}"#,
        r#"{"ok":false,"error":"unknown table 'Boats'"}"#,
    ];

    #[test]
    fn golden_bytes_for_every_frame_kind() {
        let requests = golden_requests();
        assert_eq!(requests.len(), GOLDEN_REQUESTS.len());
        for (req, want) in requests.iter().zip(GOLDEN_REQUESTS) {
            assert_eq!(encode(req), want);
            assert_eq!(&decode::<Request>(want).unwrap(), req, "{want}");
        }
        let responses = golden_responses();
        assert_eq!(responses.len(), GOLDEN_RESPONSES.len());
        for (resp, want) in responses.iter().zip(GOLDEN_RESPONSES) {
            assert_eq!(encode(resp), want);
            assert_eq!(&decode::<Response>(want).unwrap(), resp, "{want}");
        }
        // A trailing id on a payload frame.
        let id = RequestId::Str("q-2".into());
        let want = r#"{"ok":true,"kind":"rows-chunk","seq":1,"rows":[[2,"y"]],"id":"q-2"}"#;
        assert_eq!(encode_frame(&responses[4], Some(&id)), want);
        assert_eq!(
            decode_frame(want).unwrap(),
            (Some(id), responses[4].clone())
        );
    }

    /// Hands one wire line to every decoder; decoded response frames go
    /// on to the reassembler. Each call must return, never panic.
    fn feed(line: &str, reasm: &mut Reassembler) {
        let _ = decode_request_line(line);
        if let Ok((id, resp)) = decode_frame(line) {
            let _ = reasm.accept(id, resp);
        }
    }

    /// A seeded xorshift64 stream (the fuzz inputs are reproducible).
    fn rng(mut state: u64) -> impl FnMut() -> usize {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        }
    }

    #[test]
    fn wire_fuzz_never_panics() {
        const JSONISH: &[u8] = b"{}[]\":,0123456789-+.eE \\/utfnlrsq_\x00\xff";
        let golden: Vec<&str> = GOLDEN_REQUESTS
            .iter()
            .chain(&GOLDEN_RESPONSES)
            .copied()
            .collect();
        let mut next = rng(0x9e37_79b9_7f4a_7c15);
        let mut reasm = Reassembler::new();
        for frame in &golden {
            // Every truncation.
            for end in 0..=frame.len() {
                feed(&frame[..end], &mut reasm);
            }
            // Every position, overwritten by a random byte.
            for pos in 0..frame.len() {
                let mut bytes = frame.as_bytes().to_vec();
                bytes[pos] = JSONISH[next() % JSONISH.len()];
                feed(&String::from_utf8_lossy(&bytes), &mut reasm);
            }
        }
        // Random byte strings, half over JSON's own alphabet so that some
        // get past the parser.
        for i in 0..20_000 {
            let bytes: Vec<u8> = (0..next() % 48)
                .map(|_| match i % 2 {
                    0 => JSONISH[next() % JSONISH.len()],
                    _ => next() as u8,
                })
                .collect();
            feed(&String::from_utf8_lossy(&bytes), &mut reasm);
        }
        // Streamed frames in random orders, with ids shared across streams.
        let frames = split_query(&big_result(7), 2);
        for _ in 0..2_000 {
            let mut reasm = Reassembler::new();
            for _ in 0..frames.len() + 2 {
                let frame = &frames[next() % frames.len()];
                let id = (!next().is_multiple_of(3)).then(|| RequestId::Int((next() % 2) as i64));
                feed(&encode_frame(frame, id.as_ref()), &mut reasm);
            }
        }
    }
}
