//! The query session: the workspace's single front door.

use crate::request::{DiagramFormat, ExplainResponse, QueryRequest, QueryResponse, Translations};
use crate::shared::{
    hash_text, parse_key, scans_current, stamp_scans, DbEpoch, EngineShared, EvalEntry, ParseEntry,
    ParseKey, PlanEntry, SharedConfig, Views,
};
use crate::{Artifact, Language};
use rd_core::exec::{self, Plan};
use rd_core::trace::Span;
use rd_core::{Catalog, CoreError, CoreResult, Database, Relation};
use rd_trc::TrcUnion;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Microseconds elapsed since `start` (monotonic clock).
fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

/// An execution's root q-error: the planner's estimate for the whole
/// result against the rows it produced (`None` for plans with no
/// estimate, e.g. sentences).
fn root_q_error(plan: &Plan, feedback: &exec::ExecFeedback) -> Option<f64> {
    exec::plan_est(plan).map(|est| exec::q_error(est, feedback.out_rows))
}

/// Default parse-cache capacity (re-exported for compatibility; see
/// [`crate::shared::DEFAULT_PARSE_CACHE_CAPACITY`]).
pub const DEFAULT_CACHE_CAPACITY: usize = crate::shared::DEFAULT_PARSE_CACHE_CAPACITY;

/// Counters describing a session's traffic, exposed by
/// [`Session::stats`].
///
/// These count *this session's* lookups — hits and misses the session
/// observed against the (possibly shared) caches, and evictions its own
/// inserts caused. A service aggregates them across workers with
/// [`SessionStats::accumulate`]; cache-wide occupancy lives in
/// [`crate::shared::CacheStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries run (including each element of a batch).
    pub queries: u64,
    /// `run_batch` invocations.
    pub batches: u64,
    /// Parse-cache hits (plus within-batch response reuses).
    pub cache_hits: u64,
    /// Parse-cache misses (each paid a full parse + canonicalization).
    pub cache_misses: u64,
    /// Parse-cache entries this session's inserts evicted.
    pub cache_evictions: u64,
    /// Eval-cache hits (the evaluation itself was skipped).
    pub eval_hits: u64,
    /// Eval-cache misses (the query was evaluated; 0 with the eval cache
    /// disabled).
    pub eval_misses: u64,
    /// Eval-cache entries this session's inserts evicted.
    pub eval_evictions: u64,
    /// Results *not* cached because they exceeded the size-aware
    /// admission threshold
    /// ([`SharedConfig::eval_cache_max_entry_bytes`]).
    pub eval_skipped: u64,
    /// Plan-cache hits (the compile/lowering step was skipped).
    pub plan_hits: u64,
    /// Plan-cache misses (the artifact was lowered onto the plan IR; 0
    /// with the plan cache disabled).
    pub plan_misses: u64,
    /// Plan-cache entries this session's inserts evicted.
    pub plan_evictions: u64,
    /// Cache entries (eval or plan) found stale at lookup because a
    /// delta mutation had touched a relation in their scan set.
    pub delta_invalidations: u64,
    /// Cache hits (eval or plan) served *despite* an intervening delta
    /// mutation — the entry's scan set was disjoint from everything
    /// mutated since it was computed.
    pub delta_survivals: u64,
    /// Total result tuples returned.
    pub rows_returned: u64,
    /// Tuples delivered through chunked streaming (a subset of
    /// `rows_returned`; counted by [`Session::record_streamed`] at the
    /// service edge).
    pub rows_streamed: u64,
}

impl SessionStats {
    /// Fraction of parse lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Adds `other`'s counters into `self` (service-side aggregation
    /// across workers).
    pub fn accumulate(&mut self, other: &SessionStats) {
        self.queries += other.queries;
        self.batches += other.batches;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.eval_hits += other.eval_hits;
        self.eval_misses += other.eval_misses;
        self.eval_evictions += other.eval_evictions;
        self.eval_skipped += other.eval_skipped;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.plan_evictions += other.plan_evictions;
        self.delta_invalidations += other.delta_invalidations;
        self.delta_survivals += other.delta_survivals;
        self.rows_returned += other.rows_returned;
        self.rows_streamed += other.rows_streamed;
    }

    /// The counter-wise difference `self - earlier` (for merging periodic
    /// snapshots of a live session into an aggregate exactly once).
    pub fn since(&self, earlier: &SessionStats) -> SessionStats {
        SessionStats {
            queries: self.queries - earlier.queries,
            batches: self.batches - earlier.batches,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            eval_hits: self.eval_hits - earlier.eval_hits,
            eval_misses: self.eval_misses - earlier.eval_misses,
            eval_evictions: self.eval_evictions - earlier.eval_evictions,
            eval_skipped: self.eval_skipped - earlier.eval_skipped,
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
            plan_evictions: self.plan_evictions - earlier.plan_evictions,
            delta_invalidations: self.delta_invalidations - earlier.delta_invalidations,
            delta_survivals: self.delta_survivals - earlier.delta_survivals,
            rows_returned: self.rows_returned - earlier.rows_returned,
            rows_streamed: self.rows_streamed - earlier.rows_streamed,
        }
    }
}

/// A query session: parse → check → translate → eval → diagram, fronted
/// by a parse/canonicalization cache and an eval/result cache.
///
/// A session owns its traffic counters but *borrows* everything heavy —
/// the database epoch and both caches — from an [`EngineShared`]:
///
/// * [`Session::new`] wraps a private `EngineShared` (single-threaded
///   use: CLI, tests, embedding). Caches are strict single-shard LRUs.
/// * [`Session::attach`] joins an existing shared instance — this is how
///   a server gives every connection its own session while all of them
///   share one sharded parse cache, one generation-stamped result cache,
///   and one database snapshot.
///
/// ```
/// use rd_engine::{demo_database, Language, QueryRequest, Session};
///
/// let mut session = Session::new(demo_database());
/// let resp = session
///     .run(&QueryRequest::new(Language::Sql,
///         "SELECT DISTINCT Boat.color FROM Boat"))
///     .unwrap();
/// assert_eq!(resp.relation.len(), 2);
/// ```
pub struct Session {
    shared: Arc<EngineShared>,
    stats: SessionStats,
}

impl Session {
    /// A session over `db` with default cache tuning (private caches).
    pub fn new(db: Database) -> Self {
        Session::with_cache_capacity(db, DEFAULT_CACHE_CAPACITY)
    }

    /// A session over `db` with an explicit cache capacity (applied to
    /// both the parse and eval caches; private, single-shard — evictions
    /// follow strict LRU order).
    pub fn with_cache_capacity(db: Database, capacity: usize) -> Self {
        Session::attach(Arc::new(EngineShared::with_config(
            db,
            SharedConfig {
                parse_cache_capacity: capacity,
                eval_cache_capacity: capacity,
                plan_cache_capacity: capacity,
                shards: 1,
                ..SharedConfig::default()
            },
        )))
    }

    /// A session borrowing `shared` state — per-connection sessions of a
    /// concurrent service all attach to one [`EngineShared`].
    pub fn attach(shared: Arc<EngineShared>) -> Self {
        Session {
            shared,
            stats: SessionStats::default(),
        }
    }

    /// The shared engine state this session runs against.
    pub fn shared(&self) -> &Arc<EngineShared> {
        &self.shared
    }

    /// The session's current database (snapshot of the current epoch).
    pub fn database(&self) -> Arc<Database> {
        self.shared.epoch().db.clone()
    }

    /// The catalog implied by the session's current database.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.shared.epoch().catalog.clone()
    }

    /// Traffic counters since construction (or the last
    /// [`reset_stats`](Session::reset_stats)).
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Zeroes the traffic counters.
    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
    }

    /// Records that `rows` result tuples left this session through
    /// chunked streaming rather than a single response — called by the
    /// service edge when it splits a large [`QueryResponse`] into
    /// [`row_chunks`](QueryResponse::row_chunks).
    pub fn record_streamed(&mut self, rows: u64) {
        self.stats.rows_streamed += rows;
    }

    /// Replaces the database: installs a new epoch (bumped generation)
    /// and clears both caches — parsing and checking are
    /// catalog-dependent, and results are instance-dependent. Sessions
    /// attached to the same shared state all observe the swap.
    pub fn set_database(&mut self, db: Database) {
        self.shared.replace_database(db);
    }

    /// Runs one request: prepare (parse cache), evaluate (eval cache),
    /// and produce the requested optional artifacts. With metrics
    /// enabled, the response carries per-stage spans and the total time;
    /// the session itself records no latency anywhere.
    pub fn run(&mut self, req: &QueryRequest) -> CoreResult<QueryResponse> {
        // One epoch snapshot per request: a concurrent reload must not
        // switch databases between prepare and eval.
        let epoch = self.shared.epoch();
        // `start` doubles as the tracing switch: `None` skips every
        // clock read on the path below.
        let start = self.shared.metrics_enabled().then(Instant::now);
        let mut spans: Vec<Span> = Vec::new();
        let parse_key = parse_key(&epoch, req.language, &req.text);
        let parse_entry = self.shared.parse_cache.peek(&parse_key);
        let parse_found = parse_entry.is_some();
        let parse_hit = parse_entry.filter(|e| e.matches(&req.text));
        // Counted before parsing, so a failed parse still counts.
        self.count_query(parse_found, parse_hit.is_some());
        let (entry, cache_hit) = match parse_hit {
            Some(entry) => (entry, true),
            None => (self.prepare_uncached(&epoch, parse_key, &req.text)?, false),
        };
        let ParseEntry {
            artifact, views, ..
        } = entry;
        // Render the canonical text exactly once per request: it keys
        // the eval and plan caches and rides back in the response.
        let canonical = artifact.canonical_text();
        let parse_micros = start.map(micros_since);
        let eval_start = start.map(|_| Instant::now());
        let eval_entry = if self.shared.eval_cache_enabled() {
            let key = (epoch.base, artifact.language(), hash_text(&canonical));
            self.shared.eval_cache.peek(&key)
        } else {
            None
        };
        if let Some(micros) = parse_micros {
            spans.push(Span::new("parse", micros));
        }
        let (relation, eval_cache_hit, q_error) = self.evaluate(
            &epoch,
            &artifact,
            &canonical,
            eval_entry,
            &mut spans,
            start.is_some(),
        )?;
        if let Some(t) = eval_start {
            // The plan span (if any) is nested inside this interval;
            // `execute` is the remainder: eval-cache probe, execution,
            // and result resolution.
            let plan_micros = spans
                .iter()
                .find(|s| s.stage == "plan")
                .map_or(0, |s| s.micros);
            spans.push(Span::new(
                "execute",
                micros_since(t).saturating_sub(plan_micros),
            ));
        }
        self.stats.rows_returned += relation.len() as u64;
        let render_start = start.map(|_| Instant::now());
        let mut notes = Vec::new();
        let (translations, diagram) = views.render(req, &artifact, &epoch.catalog, &mut notes);
        if let Some(t) = render_start {
            // Only bill a render stage when optional artifacts were
            // actually requested; the no-op path records nothing.
            if req.wants_views() {
                spans.push(Span::new("render", micros_since(t)));
            }
        }
        Ok(QueryResponse {
            language: artifact.language(),
            canonical,
            artifact,
            relation,
            cache_hit,
            eval_cache_hit,
            translations,
            diagram,
            notes,
            spans,
            micros: start.map_or(0, micros_since),
            q_error,
        })
    }

    /// Runs a batch of requests, amortizing work across repeats: an exact
    /// repeat within the batch reuses the earlier response wholesale
    /// (parse *and* evaluation), on top of the cross-batch caches.
    pub fn run_batch(&mut self, reqs: &[QueryRequest]) -> Vec<CoreResult<QueryResponse>> {
        self.stats.batches += 1;
        let mut memo: HashMap<&QueryRequest, QueryResponse> = HashMap::new();
        let mut out = Vec::with_capacity(reqs.len());
        for req in reqs {
            if let Some(prior) = memo.get(req) {
                self.stats.queries += 1;
                self.stats.cache_hits += 1;
                self.stats.rows_returned += prior.relation.len() as u64;
                let mut resp = prior.clone();
                resp.cache_hit = true;
                out.push(Ok(resp));
                continue;
            }
            let result = self.run(req);
            if let Ok(resp) = &result {
                memo.insert(req, resp.clone());
            }
            out.push(result);
        }
        out
    }

    /// Parses + canonicalizes through the shared parse cache. Returns the
    /// shared artifact and whether it was a cache hit. Failed parses are
    /// not cached (error traffic shouldn't evict good entries).
    fn prepare(
        &mut self,
        epoch: &DbEpoch,
        language: Language,
        text: &str,
    ) -> CoreResult<(Arc<Artifact>, bool)> {
        // Keyed by the epoch's *base* generation: delta mutations never
        // shrink the catalog (inserts/deletes preserve schemas, table
        // creation only adds), so a parsed artifact stays valid across
        // them; only a full replacement moves `base` and re-keys.
        let key = parse_key(epoch, language, text);
        if let Some(entry) = self.shared.parse_cache.get(&key) {
            if entry.matches(text) {
                self.stats.cache_hits += 1;
                return Ok((entry.artifact, true));
            }
        }
        self.stats.cache_misses += 1;
        Ok((self.prepare_uncached(epoch, key, text)?.artifact, false))
    }

    /// The parse-cache miss path: parses + canonicalizes `text` — as
    /// written, so errors point into it — and caches the artifact under
    /// `key` with no view rendered yet.
    fn prepare_uncached(
        &mut self,
        epoch: &DbEpoch,
        key: ParseKey,
        text: &str,
    ) -> CoreResult<ParseEntry> {
        let artifact = Arc::new(Artifact::prepare(key.1, text, &epoch.catalog)?);
        let entry = ParseEntry::new(text, artifact);
        if self
            .shared
            .parse_cache
            .insert(key, entry.clone())
            .1
            .is_some()
        {
            self.stats.cache_evictions += 1;
        }
        Ok(entry)
    }

    /// Counts one query and its parse-cache lookup: `found` is what the
    /// cache saw (an entry under the key), `hit` whether its text
    /// matched (a mismatch is a hash collision, a session-level miss).
    fn count_query(&mut self, found: bool, hit: bool) {
        self.stats.queries += 1;
        self.shared.parse_cache.record(found);
        if hit {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
        }
    }

    /// Evaluates through the shared eval/result cache, keyed by the
    /// canonical artifact text and the epoch's *base* generation, with
    /// each entry's recorded scan set validated against the epoch's
    /// per-relation generations (delta-aware invalidation). `cached` is
    /// the caller's uncounted probe of that key; the lookup is counted
    /// here. Returns the (shared) relation, whether evaluation was
    /// skipped, and the executed plan's root q-error (`None` when
    /// nothing executed or the plan carries no estimate).
    ///
    /// Evaluation runs over the interned representation; the result is
    /// resolved back to strings *here* — the session is the edge — so
    /// responses, the wire protocol, and the cache all carry the plain
    /// `Int`/`Str` view in the stable pre-interning order.
    fn evaluate(
        &mut self,
        epoch: &DbEpoch,
        artifact: &Artifact,
        canonical: &str,
        cached: Option<EvalEntry>,
        spans: &mut Vec<Span>,
        trace: bool,
    ) -> CoreResult<(Arc<Relation>, bool, Option<f64>)> {
        if !self.shared.eval_cache_enabled() {
            let plan = self.timed_plan(epoch, artifact, canonical, spans, trace)?;
            let (raw, feedback) = exec::execute_feedback(&plan, &epoch.db, exec::ExecOptions)?;
            let q = root_q_error(&plan, &feedback);
            return Ok((Arc::new(epoch.db.resolve_relation(&raw)), false, q));
        }
        self.shared.eval_cache.record(cached.is_some());
        if let Some(entry) = cached.filter(|e| *e.canonical == *canonical) {
            if scans_current(&entry.scans, epoch) {
                self.stats.eval_hits += 1;
                if entry.born < epoch.generation {
                    self.stats.delta_survivals += 1;
                }
                return Ok((entry.relation, true, None));
            }
            // A delta mutation touched a relation this result reads:
            // the entry is stale. Fall through to re-evaluate; the
            // insert below overwrites it under the same key.
            self.stats.delta_invalidations += 1;
        }
        self.stats.eval_misses += 1;
        let key = (epoch.base, artifact.language(), hash_text(canonical));
        // Result-cache miss: the plan cache can still skip the compile.
        let plan = self.timed_plan(epoch, artifact, canonical, spans, trace)?;
        let (raw, feedback) = exec::execute_feedback(&plan, &epoch.db, exec::ExecOptions)?;
        let q = root_q_error(&plan, &feedback);
        let relation = Arc::new(epoch.db.resolve_relation(&raw));
        let bytes = relation.approx_bytes();
        if !self.shared.eval_cache_admits(bytes) {
            // Too big to cache: hand it back, count the skip.
            self.stats.eval_skipped += 1;
            return Ok((relation, false, q));
        }
        let entry = EvalEntry {
            canonical: canonical.into(),
            relation: relation.clone(),
            bytes,
            scans: stamp_scans(&plan, epoch),
            born: epoch.generation,
        };
        if self.shared.eval_cache_insert(key, entry) {
            self.stats.eval_evictions += 1;
        }
        Ok((relation, false, q))
    }

    /// Fetches (or compiles and caches) the artifact's executable plan
    /// through the shared plan cache, keyed — like the result cache —
    /// by the canonical artifact text and the epoch's *base* generation,
    /// with the same scan-set validation: plans bake in interned
    /// constants and size-driven scan orders, so an entry must not
    /// outlive the contents of any relation it reads. Failed compiles
    /// are not cached (error traffic must not evict good plans).
    ///
    /// Callers pass the already-rendered canonical text (the eval-cache
    /// key and the response use the same string), so each request
    /// renders it exactly once.
    /// [`plan`](Session::plan), recording a `plan` span when tracing.
    fn timed_plan(
        &mut self,
        epoch: &DbEpoch,
        artifact: &Artifact,
        canonical: &str,
        spans: &mut Vec<Span>,
        trace: bool,
    ) -> CoreResult<Arc<Plan>> {
        if !trace {
            return self.plan(epoch, artifact, canonical);
        }
        let t = Instant::now();
        let plan = self.plan(epoch, artifact, canonical)?;
        spans.push(Span::new("plan", micros_since(t)));
        Ok(plan)
    }

    fn plan(
        &mut self,
        epoch: &DbEpoch,
        artifact: &Artifact,
        canonical: &str,
    ) -> CoreResult<Arc<Plan>> {
        let key = (epoch.base, artifact.language(), hash_text(canonical));
        if !self.shared.plan_cache_enabled() {
            return Ok(Arc::new(artifact.compile(&epoch.db)?));
        }
        if let Some(entry) = self.shared.plan_cache.get(&key) {
            if *entry.canonical == *canonical {
                if scans_current(&entry.scans, epoch) {
                    self.stats.plan_hits += 1;
                    if entry.born < epoch.generation {
                        self.stats.delta_survivals += 1;
                    }
                    return Ok(entry.plan);
                }
                // Plans bake in interned constants and size-driven scan
                // orders; a mutation to a scanned relation may have
                // changed either, so recompile.
                self.stats.delta_invalidations += 1;
            }
        }
        self.stats.plan_misses += 1;
        let plan = Arc::new(artifact.compile(&epoch.db)?);
        let entry = PlanEntry {
            canonical: canonical.into(),
            plan: plan.clone(),
            scans: stamp_scans(&plan, epoch),
            born: epoch.generation,
        };
        if self.shared.plan_cache.insert(key, entry).1.is_some() {
            self.stats.plan_evictions += 1;
        }
        Ok(plan)
    }

    /// Compiles (or fetches from the plan cache) the query's executable
    /// plan and renders it as an explain tree — scan order, join
    /// strategy, bound keys — without evaluating anything.
    pub fn explain(&mut self, language: Language, text: &str) -> CoreResult<ExplainResponse> {
        let epoch = self.shared.epoch();
        let (artifact, cache_hit) = self.prepare(&epoch, language, text)?;
        let canonical = artifact.canonical_text();
        let plan = self.plan(&epoch, &artifact, &canonical)?;
        Ok(ExplainResponse {
            language: artifact.language(),
            canonical,
            plan: exec::explain(&plan),
            cache_hit,
        })
    }

    /// Like [`explain`](Session::explain), but *executes* the plan with
    /// per-operator row counting and annotates every node with the
    /// planner's cardinality estimate and the rows it actually produced
    /// (`EXPLAIN ANALYZE`). The result relation itself is discarded —
    /// its cardinality rides on the root node's `actual_rows` — and the
    /// eval/result cache is deliberately bypassed so the counts always
    /// describe a real execution.
    pub fn explain_analyze(
        &mut self,
        language: Language,
        text: &str,
    ) -> CoreResult<ExplainResponse> {
        let epoch = self.shared.epoch();
        let (artifact, cache_hit) = self.prepare(&epoch, language, text)?;
        let canonical = artifact.canonical_text();
        let plan = self.plan(&epoch, &artifact, &canonical)?;
        let (_, node) = exec::explain_analyze(&plan, &epoch.db)?;
        Ok(ExplainResponse {
            language: artifact.language(),
            canonical,
            plan: node,
            cache_hit,
        })
    }

    /// Translates a query into `target` through the TRC hub (Theorem
    /// 6): parses `text` as `language` (through the parse cache), then
    /// maps the canonical hub form into the requested language's text.
    /// Directions outside the covered fragment (e.g. multi-branch
    /// unions into Datalog\*/RA\*) error with the reason.
    pub fn translate(
        &mut self,
        language: Language,
        text: &str,
        target: Language,
    ) -> CoreResult<String> {
        let epoch = self.shared.epoch();
        let (artifact, _) = self.prepare(&epoch, language, text)?;
        let hub = artifact.hub(&epoch.catalog)?;
        match target {
            Language::Trc => Ok(rd_trc::printer::union_to_ascii(&hub)),
            Language::Sql => Ok(rd_sql::printer::format_sql_union(
                &rd_sql::trc_union_to_sql(&hub)?,
            )),
            Language::Datalog | Language::Ra => {
                let [query] = hub.branches.as_slice() else {
                    return Err(CoreError::Invalid(format!(
                        "query is a {}-branch union; the Datalog*/RA* translations \
                         (Theorem 6) are defined per branch",
                        hub.branches.len()
                    )));
                };
                let program = rd_translate::trc_to_datalog(query, &epoch.catalog)?;
                if target == Language::Datalog {
                    Ok(program.to_string())
                } else {
                    Ok(rd_ra::printer::to_ascii(&rd_translate::datalog_to_ra(
                        &program,
                        &epoch.catalog,
                    )?))
                }
            }
        }
    }

    /// Carries the artifact into canonical TRC — the hub of the Theorem 6
    /// translation diagram ([`Artifact::hub`]) — against the current
    /// catalog.
    pub fn to_hub_trc(&self, artifact: &Artifact) -> CoreResult<TrcUnion> {
        artifact.hub(&self.shared.epoch().catalog)
    }
}

impl Views {
    /// `true` if a view `req` asks for is not memoized yet.
    fn missing(&self, req: &QueryRequest) -> bool {
        (req.translations && self.translations.get().is_none())
            || self
                .diagram(req.diagram)
                .is_some_and(|cell| cell.get().is_none())
    }

    /// The views `req` asks for, from the memo; a missing one is
    /// rendered from the TRC hub — built at most once per request, and
    /// only if a requested view is missing — and memoized. A query that
    /// evaluated has a hub form, but a view that fails must still not
    /// discard the successful evaluation: it degrades to a note, pushed
    /// onto `notes` in the order the views are rendered.
    fn render(
        &self,
        req: &QueryRequest,
        artifact: &Artifact,
        catalog: &Catalog,
        notes: &mut Vec<String>,
    ) -> (Option<Translations>, Option<String>) {
        if !req.wants_views() {
            return (None, None);
        }
        if let Some(note) = self.hub_failure.get() {
            notes.push(note.to_string());
            return (None, None);
        }
        let hub = if self.missing(req) {
            match artifact.hub(catalog) {
                Ok(hub) => Some(hub),
                Err(e) => {
                    let note = format!("TRC-hub translation unavailable: {e}");
                    notes.push(note.clone());
                    let _ = self.hub_failure.set(note.into());
                    return (None, None);
                }
            }
        } else {
            None
        };
        // Cells are only ever filled, so one that was full at the
        // `missing` check above still is: `hub` is built whenever a fill
        // below can run.
        let hub = || hub.as_ref().expect("built for a missing view");
        let translations = req.translations.then(|| {
            self.translations
                .get_or_init(|| exact_size(translations(hub(), catalog)))
                .clone()
        });
        let diagram = self.diagram(req.diagram).and_then(|cell| {
            let rendered = cell.get_or_init(|| {
                render_diagram(hub(), catalog, req.diagram)
                    .map(String::into_boxed_str)
                    // Same degrade-to-note contract: e.g. disjunctive
                    // queries evaluate fine but have no Relational
                    // Diagram* form.
                    .map_err(|e| format!("diagram rendering unavailable: {e}").into())
            });
            match rendered {
                Ok(svg_or_dot) => Some(svg_or_dot.to_string()),
                Err(note) => {
                    notes.push(note.to_string());
                    None
                }
            }
        });
        (translations, diagram)
    }
}

/// `t` with every string at its exact length: a memoized view lives as
/// long as its parse entry, so the spare capacity its printers grew
/// would be held for as long.
fn exact_size(mut t: Translations) -> Translations {
    t.trc.shrink_to_fit();
    for text in [&mut t.sql, &mut t.datalog, &mut t.ra]
        .into_iter()
        .flatten()
    {
        text.shrink_to_fit();
    }
    t.notes.iter_mut().for_each(String::shrink_to_fit);
    t.notes.shrink_to_fit();
    t
}

/// Builds the cross-language views of a hub-TRC form.
fn translations(hub: &TrcUnion, catalog: &Catalog) -> Translations {
    let mut t = Translations {
        trc: rd_trc::printer::union_to_ascii(hub),
        ..Translations::default()
    };
    match rd_sql::trc_union_to_sql(hub) {
        Ok(sql) => t.sql = Some(rd_sql::printer::format_sql_union(&sql)),
        Err(e) => t.notes.push(format!("SQL translation unavailable: {e}")),
    }
    if let [query] = hub.branches.as_slice() {
        match rd_translate::trc_to_datalog(query, catalog) {
            Ok(program) => {
                match rd_translate::datalog_to_ra(&program, catalog) {
                    Ok(ra) => t.ra = Some(rd_ra::printer::to_ascii(&ra)),
                    Err(e) => t.notes.push(format!("RA translation unavailable: {e}")),
                }
                t.datalog = Some(program.to_string());
            }
            Err(e) => t
                .notes
                .push(format!("Datalog translation unavailable: {e}")),
        }
    } else {
        t.notes.push(format!(
            "query is a {}-branch union; the Datalog*/RA* translations \
             (Theorem 6) are defined per branch",
            hub.branches.len()
        ));
    }
    t
}

/// Renders the Relational Diagram of a hub-TRC form as `format`, which
/// names a diagram (only those have a [`Views::diagram`] cell).
fn render_diagram(hub: &TrcUnion, catalog: &Catalog, format: DiagramFormat) -> CoreResult<String> {
    let diagram = rd_diagram::from_trc_union(hub, catalog)?;
    diagram.validate()?;
    Ok(match format {
        DiagramFormat::Dot => rd_diagram::to_dot(&diagram),
        DiagramFormat::Svg | DiagramFormat::None => rd_diagram::to_svg(&diagram),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::{Tuple, Value};

    /// The views memoized on `req`'s parse entry.
    fn memo(session: &Session, req: &QueryRequest) -> Arc<Views> {
        let key = parse_key(&session.shared.epoch(), req.language, &req.text);
        session.shared.parse_cache.peek(&key).unwrap().views
    }

    #[test]
    fn views_outlive_delta_mutations_and_need_no_eval_cache() {
        for eval_cache in [true, false] {
            let shared = Arc::new(EngineShared::with_config(
                crate::demo_database(),
                SharedConfig {
                    eval_cache,
                    ..SharedConfig::default()
                },
            ));
            let mut session = Session::attach(shared.clone());
            let req = QueryRequest::new(Language::Ra, "pi[color](Boat)")
                .with_translations()
                .with_diagram(DiagramFormat::Svg);
            let first = session.run(&req).unwrap();
            let views = memo(&session, &req);
            assert!(views.translations.get().is_some() && views.svg.get().is_some());
            assert!(views.dot.get().is_none() && views.hub_failure.get().is_none());
            shared
                .insert_rows(
                    "Boat",
                    &[Tuple(vec![Value::Int(104), Value::Str("blue".into())])],
                )
                .unwrap();
            let after = session.run(&req).unwrap();
            assert!(Arc::ptr_eq(&memo(&session, &req), &views), "same entry");
            assert_eq!(after.relation.len(), first.relation.len() + 1);
            assert_eq!(
                (&after.translations, &after.diagram),
                (&first.translations, &first.diagram)
            );
        }
    }

    #[test]
    fn memoized_strings_are_exact_size() {
        let mut session = Session::new(crate::demo_database());
        let req = QueryRequest::new(
            Language::Trc,
            "{ q(color) | exists b in Boat [ q.color = b.color ] }",
        )
        .with_translations()
        .with_diagram(DiagramFormat::Svg);
        session.run(&req).unwrap();
        let views = memo(&session, &req);
        let t = views.translations.get().unwrap();
        for text in [
            Some(&t.trc),
            t.sql.as_ref(),
            t.datalog.as_ref(),
            t.ra.as_ref(),
        ]
        .into_iter()
        .flatten()
        .chain(&t.notes)
        {
            assert_eq!(text.capacity(), text.len(), "{text}");
        }
        assert_eq!(t.notes.capacity(), t.notes.len());
    }
}
