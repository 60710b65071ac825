//! Shareable engine state: the database epoch and the sharded caches.
//!
//! PR 1's [`Session`](crate::Session) owned its database and a private
//! parse cache — fine for one thread, useless for a fleet of server
//! workers. This module extracts everything worth sharing into
//! [`EngineShared`], one instance of which can sit behind an `Arc` and
//! serve any number of concurrent sessions:
//!
//! * a [`DbEpoch`] — the current immutable database snapshot plus a
//!   monotonically increasing **generation** counter and a content
//!   [`fingerprint`](rd_core::Database::fingerprint). Queries snapshot the
//!   epoch once and run against it; a concurrent reload simply installs a
//!   new epoch without disturbing in-flight work.
//! * a **sharded parse cache**: `(language, hash(normalized text))` →
//!   prepared [`Artifact`] plus the views memoized on it. The key ignores
//!   whitespace layout outside literals ([`text_key`]), so an edited
//!   query that only moved its line breaks is a hit; the views — hub
//!   failure, translations, SVG and DOT diagrams — are rendered once per
//!   entry, on first request. Lock-striped so concurrent sessions rarely
//!   contend.
//! * a **sharded eval/result cache**: `(generation, language,
//!   hash(canonical text))` → evaluated [`Relation`]. Keyed by the
//!   *canonical* form, so `SELECT DISTINCT Boat.color FROM Boat` and a
//!   differently-whitespaced twin share one entry; stamped with the
//!   generation, so entries from before a reload can never be served
//!   after it.
//!
//! Single-user sessions embed a 1-shard `EngineShared` and behave exactly
//! as before (strict LRU, deterministic evictions); the server shares one
//! multi-shard instance across all its workers.
//!
//! Nothing here records latency. A session times its own stages and
//! returns the spans on its [`QueryResponse`](crate::QueryResponse); a
//! service records them wherever it keeps its registry (the `rd-server`
//! keeps one per event-loop shard). The only counters shared state keeps
//! are the caches' own hit/miss/eviction atomics ([`CacheStats`]).

use crate::cache::LruCache;
use crate::{Artifact, DiagramFormat, Language, Translations};
use rd_core::{Catalog, CoreResult, Database, Relation, TableSchema, Tuple};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Default parse-cache capacity (entries, not bytes — artifacts are small
/// ASTs).
pub const DEFAULT_PARSE_CACHE_CAPACITY: usize = 256;

/// Default eval-cache capacity (entries; values are materialized result
/// relations, typically small under set semantics).
pub const DEFAULT_EVAL_CACHE_CAPACITY: usize = 256;

/// Default plan-cache capacity (entries; values are compiled
/// [`rd_core::exec::Plan`]s — small owned trees of scans and column
/// indices).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Default per-entry admission threshold of the eval cache, in
/// (approximate) result bytes. Results above the threshold are returned
/// but not cached: one huge relation must not evict hundreds of small
/// hot entries. `0` disables the check.
pub const DEFAULT_EVAL_CACHE_MAX_ENTRY_BYTES: usize = 1 << 20;

/// Shard count used by shared (multi-session) caches. Power of two so the
/// shard index is a mask of the key hash.
const SHARED_SHARDS: usize = 16;

/// The pipeline stages a request is timed in, in execution order.
/// `parse` covers parse + check + canonicalization (one atomic step in
/// [`Artifact::prepare`]), `plan` the plan-cache probe + lowering,
/// `execute` the eval-cache probe + execution + resolution, `render`
/// the optional translations/diagram artifacts, and `serialize` the
/// service-edge response encoding. Sessions return spans for the first
/// four; a service times `render` and `serialize` at its edge too.
pub const STAGE_NAMES: [&str; 5] = ["parse", "plan", "execute", "render", "serialize"];

/// Aggregate counters of one sharded cache, summed over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
    /// Entries currently cached (across all shards).
    pub entries: usize,
    /// Total configured capacity (across all shards).
    pub capacity: usize,
    /// Approximate bytes held by cached values (only tracked for the
    /// eval/result cache; 0 for caches that don't weigh entries).
    pub bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A lock-striped LRU cache: N independent shards, each a
/// [`LruCache`] behind its own mutex, with cache-wide atomic counters.
///
/// Keys are routed to shards by hash, so concurrent sessions touching
/// different queries take different locks. With `shards == 1` this
/// degenerates to a strict global LRU (used by private sessions, where
/// deterministic eviction order matters for tests and REPL behavior).
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache of `capacity` total entries split over `shards` stripes
    /// (shards rounded up to a power of two; each shard gets at least one
    /// entry of capacity).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            mask: shards - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<LruCache<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Looks up `key`, cloning the value out so the shard lock is held
    /// only for the lookup (values are cheap clones — `Arc`s in practice).
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self.peek(key);
        self.record(found.is_some());
        found
    }

    /// [`get`](ShardedCache::get) without counting: a probe that may
    /// still walk away must leave the hit/miss counters untouched, and
    /// [`record`](ShardedCache::record)s the lookup only once it commits.
    pub fn peek(&self, key: &K) -> Option<V> {
        self.shard(key)
            .lock()
            .expect("cache shard")
            .get(key)
            .cloned()
    }

    /// Counts one lookup as a hit or a miss.
    pub fn record(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts an entry; returns the value displaced by a same-key
    /// replacement and the evicted `(key, value)` if the shard was full
    /// (callers use both to release weight accounting — only the latter
    /// counts as an eviction).
    pub fn insert(&self, key: K, value: V) -> (Option<V>, Option<(K, V)>) {
        let (replaced, evicted) = self
            .shard(&key)
            .lock()
            .expect("cache shard")
            .insert_full(key, value);
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        (replaced, evicted)
    }

    /// Sums a per-entry weight over every cached value (gauge-style
    /// aggregation; takes each shard lock once).
    pub fn sum_values(&self, mut weight: impl FnMut(&V) -> u64) -> u64 {
        let mut total = 0u64;
        for shard in &self.shards {
            shard
                .lock()
                .expect("cache shard")
                .for_each_value(|v| total += weight(v));
        }
        total
    }

    /// Drops every entry in every shard (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard").clear();
        }
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").len())
            .sum()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard").capacity())
                .sum(),
            bytes: 0,
        }
    }
}

/// One immutable database snapshot: what a query runs against.
///
/// Sessions snapshot the epoch at the start of each request; replacing
/// the database installs a *new* epoch (bumped generation), so in-flight
/// queries keep a consistent view and stale eval-cache entries — keyed by
/// generation — become unreachable.
#[derive(Debug, Clone)]
pub struct DbEpoch {
    /// The database instance.
    pub db: Arc<Database>,
    /// The catalog implied by the database's schemas.
    pub catalog: Arc<Catalog>,
    /// Monotonic change counter (0 for the initial database): bumped by
    /// full replacements *and* by delta mutations.
    pub generation: u64,
    /// Generation of the last *full* replacement. Cache keys are
    /// stamped with this base: a reload moves the whole key space, while
    /// a delta mutation keeps it — entries stay addressable and are
    /// instead validated per lookup against [`DbEpoch::rel_gens`].
    pub base: u64,
    /// Per-relation generations: for each stored relation, the
    /// generation at which it last changed. Delta-aware cache entries
    /// record these for their scan set and are served only while every
    /// recorded generation still matches.
    pub rel_gens: Arc<BTreeMap<String, u64>>,
    /// Content fingerprint of `db` (diagnostic; see
    /// [`Database::fingerprint`]). Maintained *incrementally*: a delta
    /// epoch rehashes only the touched relations' digests
    /// (`rel_prints`) and recombines, so the value
    /// always equals what a fresh load of the same content would
    /// compute without paying O(database) per mutation.
    pub fingerprint: u64,
    /// Per-relation content digests backing the incremental
    /// [`fingerprint`](Self::fingerprint)
    /// (see [`Database::relation_fingerprint`]).
    rel_prints: Arc<BTreeMap<String, u64>>,
}

impl DbEpoch {
    /// Full-replacement epoch: every relation's generation resets to
    /// the new global generation.
    fn new(db: Database, generation: u64) -> Self {
        let catalog = Arc::new(db.catalog());
        let rel_prints: BTreeMap<String, u64> = db
            .iter()
            .map(|r| (r.name().to_string(), db.relation_fingerprint(r)))
            .collect();
        let fingerprint =
            rd_core::combine_fingerprints(rel_prints.len(), rel_prints.values().copied());
        let rel_gens = db
            .iter()
            .map(|r| (r.name().to_string(), generation))
            .collect();
        DbEpoch {
            db: Arc::new(db),
            catalog,
            generation,
            base: generation,
            rel_gens: Arc::new(rel_gens),
            fingerprint,
            rel_prints: Arc::new(rel_prints),
        }
    }

    /// Delta epoch: same base, bumped generation, and only the touched
    /// relations' generations (and content digests) moved forward.
    /// Insert/delete deltas never change the schema set, so the catalog
    /// is rebuilt only when the mutation added a table.
    fn delta(prev: &DbEpoch, db: Database, touched: &[&str]) -> Self {
        let generation = prev.generation + 1;
        let mut rel_gens = (*prev.rel_gens).clone();
        let mut rel_prints = (*prev.rel_prints).clone();
        for name in touched {
            rel_gens.insert((*name).to_string(), generation);
            if let Some(rel) = db.relation(name) {
                rel_prints.insert((*name).to_string(), db.relation_fingerprint(rel));
            } else {
                rel_prints.remove(*name);
            }
        }
        let fingerprint =
            rd_core::combine_fingerprints(rel_prints.len(), rel_prints.values().copied());
        let catalog = if db.len() == prev.catalog.len() {
            prev.catalog.clone()
        } else {
            Arc::new(db.catalog())
        };
        DbEpoch {
            db: Arc::new(db),
            catalog,
            generation,
            base: prev.base,
            rel_gens: Arc::new(rel_gens),
            fingerprint,
            rel_prints: Arc::new(rel_prints),
        }
    }

    /// The generation at which `rel` last changed (`None` for relations
    /// this epoch doesn't store).
    pub fn rel_gen(&self, rel: &str) -> Option<u64> {
        self.rel_gens.get(rel).copied()
    }
}

/// The `(relation, generation)` stamp a delta-aware cache entry carries:
/// the entry's plan scan set, with each relation's generation as of the
/// epoch the entry was computed against.
pub(crate) type ScanStamp = Arc<[(String, u64)]>;

/// Stamps a compiled plan's scan set against `epoch`. Relations the
/// epoch doesn't store (shadowed or since-dropped names) are pinned to
/// the current generation, so any later change still invalidates.
pub(crate) fn stamp_scans(plan: &rd_core::exec::Plan, epoch: &DbEpoch) -> ScanStamp {
    rd_core::exec::scan_set(plan)
        .into_iter()
        .map(|rel| {
            let gen = epoch.rel_gen(&rel).unwrap_or(epoch.generation);
            (rel, gen)
        })
        .collect()
}

/// `true` if every relation of an entry's recorded scan set is still at
/// the generation the entry saw — i.e., no mutation since the entry was
/// computed can have changed its result.
pub(crate) fn scans_current(scans: &[(String, u64)], epoch: &DbEpoch) -> bool {
    scans
        .iter()
        .all(|(rel, gen)| epoch.rel_gen(rel) == Some(*gen))
}

/// Parse-cache entry: the text it was parsed from (to rule out 64-bit
/// hash collisions, compared up to whitespace layout), the shared
/// prepared artifact, and the views memoized on it.
#[derive(Clone)]
pub(crate) struct ParseEntry {
    pub text: Arc<str>,
    pub artifact: Arc<Artifact>,
    pub views: Arc<Views>,
}

impl ParseEntry {
    /// A fresh entry for `artifact`, parsed from `text`, with no view
    /// rendered yet.
    pub fn new(text: &str, artifact: Arc<Artifact>) -> Self {
        ParseEntry {
            text: text.into(),
            artifact,
            views: Arc::default(),
        }
    }

    /// `true` if `text` is this entry's text up to whitespace layout
    /// (the collision guard of a [`parse_key`] hit; allocates nothing).
    pub fn matches(&self, text: &str) -> bool {
        *self.text == *text || normalized(&self.text).eq(normalized(text))
    }
}

/// The views of a parsed query that a request may ask for beside its
/// result, each rendered from the TRC hub at most once per parse-cache
/// entry and kept at exact size. They depend only on the artifact and
/// the catalog, both of which the entry's key pins (through the epoch
/// base), so unlike eval entries they outlive delta mutations. Failures
/// are memoized too, as the note a response carries instead.
#[derive(Default)]
pub(crate) struct Views {
    /// The note for a query whose hub cannot be built (set only on
    /// failure: a built hub fills the other cells instead).
    pub hub_failure: OnceLock<Box<str>>,
    /// The cross-language translations, their notes included.
    pub translations: OnceLock<Translations>,
    /// The SVG diagram, or the note saying why there is none.
    pub svg: OnceLock<Result<Box<str>, Box<str>>>,
    /// The DOT diagram, or the note saying why there is none.
    pub dot: OnceLock<Result<Box<str>, Box<str>>>,
}

impl Views {
    /// The cell holding `format`'s rendering (`None` for no diagram).
    pub fn diagram(&self, format: DiagramFormat) -> Option<&OnceLock<Result<Box<str>, Box<str>>>> {
        match format {
            DiagramFormat::None => None,
            DiagramFormat::Svg => Some(&self.svg),
            DiagramFormat::Dot => Some(&self.dot),
        }
    }
}

/// Eval-cache entry: the canonical text (collision guard), the shared
/// evaluated relation (resolved to the string edge representation), its
/// approximate weight in bytes, and the delta-validation stamp.
#[derive(Clone)]
pub(crate) struct EvalEntry {
    pub canonical: Arc<str>,
    pub relation: Arc<Relation>,
    pub bytes: usize,
    /// The plan's scan set with per-relation generations at compute
    /// time; a lookup serves the entry only while every one matches.
    pub scans: ScanStamp,
    /// Global generation at insert: a hit with a newer epoch survived
    /// at least one delta mutation.
    pub born: u64,
}

/// Parse-cache key: epoch *base* + language + hash of the query text
/// with its whitespace layout normalized ([`text_key`]). The base
/// matters even though parsing never reads the data:
/// artifacts are checked against the epoch's catalog, and a stamped key
/// makes an entry prepared by an in-flight request against an old epoch
/// unreachable after a reload (the clear in
/// [`EngineShared::replace_database`] cannot catch inserts that land
/// after the sweep). Delta mutations keep the base: they never shrink
/// the catalog (inserts and deletes preserve schemas; `create_table`
/// only adds), so existing artifacts stay checkable.
pub(crate) type ParseKey = (u64, Language, u64);

/// Eval-cache key: epoch *base* + language + hash of the *canonical*
/// query text. Within one base, entry validity across delta mutations
/// is decided per lookup by [`scans_current`].
pub(crate) type EvalKey = (u64, Language, u64);

/// Plan-cache entry: the canonical text (collision guard), the shared
/// compiled plan, and the delta-validation stamp. Plans bake in
/// interned constants and size-driven scan orders, so an entry is only
/// served while every relation it scans is unchanged (a mutation can
/// intern a constant the plan left as an unknown string, or shift the
/// size statistics the scan order was chosen by).
#[derive(Clone)]
pub(crate) struct PlanEntry {
    pub canonical: Arc<str>,
    pub plan: Arc<rd_core::exec::Plan>,
    /// See [`EvalEntry::scans`].
    pub scans: ScanStamp,
    /// See [`EvalEntry::born`].
    pub born: u64,
}

/// Plan-cache key: epoch *base* + language + hash of the *canonical*
/// query text (same shape as [`EvalKey`], so a result-cache miss after
/// a reload can never be served a stale plan either).
pub(crate) type PlanKey = (u64, Language, u64);

/// Summary of an applied delta mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Rows that actually changed (set semantics: duplicate inserts and
    /// absent deletes don't count; 0 for `create_table`).
    pub applied: u64,
    /// Generation of the installed delta epoch.
    pub generation: u64,
    /// Content fingerprint of the new epoch.
    pub fingerprint: u64,
}

impl MutationOutcome {
    fn new(applied: u64, epoch: &DbEpoch) -> Self {
        MutationOutcome {
            applied,
            generation: epoch.generation,
            fingerprint: epoch.fingerprint,
        }
    }
}

/// Tuning knobs for [`EngineShared`].
#[derive(Debug, Clone)]
pub struct SharedConfig {
    /// Total parse-cache capacity in entries.
    pub parse_cache_capacity: usize,
    /// Total eval-cache capacity in entries.
    pub eval_cache_capacity: usize,
    /// `false` disables the eval/result cache entirely (every query
    /// re-evaluates; parse caching is unaffected).
    pub eval_cache: bool,
    /// Size-aware admission: results whose approximate size exceeds this
    /// many bytes are returned but *not* cached (`0` = cache everything).
    pub eval_cache_max_entry_bytes: usize,
    /// Total plan-cache capacity in entries.
    pub plan_cache_capacity: usize,
    /// `false` disables the compiled-plan cache (every evaluation
    /// re-lowers its artifact; parse and result caching are unaffected).
    pub plan_cache: bool,
    /// `false` disables request tracing entirely: sessions skip the
    /// monotonic-clock reads and responses carry no spans, and a service
    /// built on this state records no latency histograms (the knob the
    /// tracing overhead micro-bench measures against). Counters are
    /// kept either way.
    pub metrics: bool,
    /// Lock stripes per cache (rounded up to a power of two).
    pub shards: usize,
}

impl Default for SharedConfig {
    fn default() -> Self {
        SharedConfig {
            parse_cache_capacity: DEFAULT_PARSE_CACHE_CAPACITY,
            eval_cache_capacity: DEFAULT_EVAL_CACHE_CAPACITY,
            eval_cache: true,
            eval_cache_max_entry_bytes: DEFAULT_EVAL_CACHE_MAX_ENTRY_BYTES,
            plan_cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            plan_cache: true,
            metrics: true,
            shards: SHARED_SHARDS,
        }
    }
}

/// The engine state shared by every session of a service: the current
/// [`DbEpoch`] plus the sharded parse and eval caches.
pub struct EngineShared {
    epoch: RwLock<Arc<DbEpoch>>,
    pub(crate) parse_cache: ShardedCache<ParseKey, ParseEntry>,
    pub(crate) eval_cache: ShardedCache<EvalKey, EvalEntry>,
    pub(crate) plan_cache: ShardedCache<PlanKey, PlanEntry>,
    eval_enabled: bool,
    eval_max_entry_bytes: usize,
    plan_enabled: bool,
    metrics_enabled: bool,
}

impl EngineShared {
    /// Shared state over `db` with default tuning.
    pub fn new(db: Database) -> Self {
        EngineShared::with_config(db, SharedConfig::default())
    }

    /// Shared state over `db` with explicit tuning.
    pub fn with_config(db: Database, cfg: SharedConfig) -> Self {
        EngineShared {
            epoch: RwLock::new(Arc::new(DbEpoch::new(db, 0))),
            parse_cache: ShardedCache::new(cfg.parse_cache_capacity, cfg.shards),
            eval_cache: ShardedCache::new(cfg.eval_cache_capacity, cfg.shards),
            plan_cache: ShardedCache::new(cfg.plan_cache_capacity, cfg.shards),
            eval_enabled: cfg.eval_cache,
            eval_max_entry_bytes: cfg.eval_cache_max_entry_bytes,
            plan_enabled: cfg.plan_cache,
            metrics_enabled: cfg.metrics,
        }
    }

    /// The current epoch (cheap: one `Arc` clone under a read lock).
    pub fn epoch(&self) -> Arc<DbEpoch> {
        self.epoch.read().expect("epoch lock").clone()
    }

    /// Installs `db` as a new epoch and returns it. Cache entries are
    /// generation-stamped, so anything cached against the old epoch —
    /// including entries inserted by in-flight requests *after* this
    /// call — becomes unreachable; the clears just release capacity.
    pub fn replace_database(&self, db: Database) -> Arc<DbEpoch> {
        self.update_database(|_| db)
    }

    /// Read-modify-write database update under the epoch write lock:
    /// builds the next database from the current one with no window for
    /// a concurrent update to slip between read and install. This is the
    /// primitive behind incremental loads (e.g. CSV table import) from
    /// concurrent server workers.
    pub fn update_database(&self, f: impl FnOnce(&Database) -> Database) -> Arc<DbEpoch> {
        let mut slot = self.epoch.write().expect("epoch lock");
        let next = Arc::new(DbEpoch::new(f(&slot.db), slot.generation + 1));
        *slot = next.clone();
        self.parse_cache.clear();
        self.eval_cache.clear();
        self.plan_cache.clear();
        next
    }

    /// Applies a *delta* mutation under the epoch write lock: builds the
    /// next database copy-on-write from the current one, installs a
    /// delta epoch (same base, bumped generation, `touched` relations'
    /// generations moved forward), and — unlike
    /// [`update_database`](EngineShared::update_database) — clears
    /// nothing. Entries whose scan sets avoid the touched relations
    /// stay servable; entries that read them fail their generation
    /// check on the next lookup. If `f` errors, no epoch is installed.
    pub fn apply_delta<T>(
        &self,
        touched: &[&str],
        f: impl FnOnce(&mut Database) -> CoreResult<T>,
    ) -> CoreResult<(T, Arc<DbEpoch>)> {
        let mut slot = self.epoch.write().expect("epoch lock");
        let mut db = (*slot.db).clone();
        let out = f(&mut db)?;
        let next = Arc::new(DbEpoch::delta(&slot, db, touched));
        *slot = next.clone();
        Ok((out, next))
    }

    /// Inserts `rows` (edge representation) into `table` as a delta
    /// mutation.
    pub fn insert_rows(&self, table: &str, rows: &[Tuple]) -> CoreResult<MutationOutcome> {
        let (applied, epoch) = self.apply_delta(&[table], |db| db.insert_rows(table, rows))?;
        Ok(MutationOutcome::new(applied as u64, &epoch))
    }

    /// Deletes `rows` from `table` as a delta mutation.
    pub fn delete_rows(&self, table: &str, rows: &[Tuple]) -> CoreResult<MutationOutcome> {
        let (applied, epoch) = self.apply_delta(&[table], |db| db.delete_rows(table, rows))?;
        Ok(MutationOutcome::new(applied as u64, &epoch))
    }

    /// Creates an empty table as a delta mutation (errors if the name
    /// is taken). Cached entries can't scan a table that didn't exist,
    /// so nothing needs invalidating — and the catalog only grows, so
    /// parse-cache artifacts stay valid too.
    pub fn create_table(&self, schema: TableSchema) -> CoreResult<MutationOutcome> {
        let name = schema.name().to_string();
        let (_, epoch) = self.apply_delta(&[&name], |db| db.create_table(schema))?;
        Ok(MutationOutcome::new(0, &epoch))
    }

    /// `true` if the eval/result cache is enabled.
    pub fn eval_cache_enabled(&self) -> bool {
        self.eval_enabled
    }

    /// `true` if a result of `bytes` approximate size passes the
    /// size-aware admission policy.
    pub fn eval_cache_admits(&self, bytes: usize) -> bool {
        self.eval_max_entry_bytes == 0 || bytes <= self.eval_max_entry_bytes
    }

    /// Inserts an admitted eval-cache entry. Returns `true` if the
    /// insert evicted an older entry (a same-key replacement — two
    /// sessions racing the same miss — is not an eviction).
    pub(crate) fn eval_cache_insert(&self, key: EvalKey, entry: EvalEntry) -> bool {
        self.eval_cache.insert(key, entry).1.is_some()
    }

    /// Approximate bytes currently held by the eval cache. Computed from
    /// the live entries (per-entry weights summed under the shard locks),
    /// so it cannot drift from the cache's actual contents — a counter
    /// adjusted on insert would race `replace_database`'s clear.
    pub fn eval_cached_bytes(&self) -> u64 {
        self.eval_cache.sum_values(|e| e.bytes as u64)
    }

    /// `true` if the compiled-plan cache is enabled.
    pub fn plan_cache_enabled(&self) -> bool {
        self.plan_enabled
    }

    /// `true` if request tracing (span timing, and a service's histogram
    /// recording) is enabled.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics_enabled
    }

    /// Aggregate parse-cache counters.
    pub fn parse_cache_stats(&self) -> CacheStats {
        self.parse_cache.stats()
    }

    /// Aggregate plan-cache counters.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Aggregate eval-cache counters, including the cached-bytes gauge.
    pub fn eval_cache_stats(&self) -> CacheStats {
        let mut stats = self.eval_cache.stats();
        stats.bytes = self.eval_cached_bytes();
        stats
    }
}

/// Hashes a query text for cache keys (collisions are guarded by storing
/// the full text in the entry).
pub(crate) fn hash_text(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// The parse-cache key of `text` in `language` against `epoch`: texts
/// that differ only in whitespace layout share it (see [`normalized`]).
/// The one key function of every parse-cache user.
pub(crate) fn parse_key(epoch: &DbEpoch, language: Language, text: &str) -> ParseKey {
    (epoch.base, language, text_key(text))
}

/// The text part of a parse-cache key: a hash of `text` with every run
/// of whitespace outside `'…'` literals collapsed to one space and both
/// ends trimmed (nothing is allocated). Texts that differ only in that
/// layout lex to the same tokens in every language, so they share a key
/// and a parse.
pub fn text_key(text: &str) -> u64 {
    // Whole blocks of the normalized stream go to the hasher, so the
    // calls it sees depend on that stream alone.
    let mut h = DefaultHasher::new();
    let mut block = [0u8; 64];
    let mut len = 0;
    for byte in normalized(text) {
        block[len] = byte;
        len += 1;
        if len == block.len() {
            h.write(&block);
            len = 0;
        }
    }
    h.write(&block[..len]);
    h.finish()
}

/// The bytes of `text` with every run of whitespace outside `'…'`
/// literals collapsed to one space and both ends trimmed.
///
/// Every front end's lexer skips whitespace between tokens and none has
/// comments, so two texts with one normalized form lex to the same
/// tokens. A quote toggles the literal state: TRC and SQL's `''` escape
/// toggles twice with nothing between, and an unterminated literal runs
/// to the end, verbatim.
pub(crate) fn normalized(text: &str) -> impl Iterator<Item = u8> + '_ {
    let bytes = text.as_bytes();
    let (mut i, mut in_quote, mut started) = (0, false, false);
    // The byte after a collapsed run, due once its space is out.
    let mut held = None;
    std::iter::from_fn(move || {
        if let Some(byte) = held.take() {
            return Some(byte);
        }
        let mut gap = false;
        while let Some(&byte) = bytes.get(i) {
            if !in_quote {
                // ASCII whitespace is one byte; other whitespace chars
                // start with a lead byte of 0xC0 or more.
                let width = match byte {
                    b' ' | b'\t'..=b'\r' => 1,
                    0xC0.. => text[i..]
                        .chars()
                        .next()
                        .filter(|c| c.is_whitespace())
                        .map_or(0, char::len_utf8),
                    _ => 0,
                };
                if width > 0 {
                    i += width;
                    gap = started;
                    continue;
                }
            }
            if byte == b'\'' {
                in_quote = !in_quote;
            }
            i += 1;
            started = true;
            if gap {
                held = Some(byte);
                return Some(b' ');
            }
            return Some(byte);
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_cache_get_insert_clear() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(64, 8);
        assert!(c.get(&1).is_none());
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&1).is_none(), "clear must drop entries");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert!(s.capacity >= 64);
    }

    #[test]
    fn peek_counts_nothing_until_recorded() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(8, 1);
        c.insert(1, 10);
        assert_eq!(c.peek(&1), Some(10));
        assert_eq!(c.peek(&2), None);
        assert_eq!((c.stats().hits, c.stats().misses), (0, 0));
        c.record(true);
        c.record(false);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
    }

    #[test]
    fn single_shard_preserves_strict_lru() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(2, 1);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10));
        assert!(c.insert(3, 30).1.is_some(), "third insert must evict");
        assert!(c.get(&2).is_none(), "2 was LRU");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn capacity_splits_across_shards() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(16, 4);
        for i in 0..1000 {
            c.insert(i, i);
        }
        assert!(c.len() <= 16, "len {} exceeds total capacity", c.len());
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new(128, 8));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        c.insert(i % 97, t * 1000 + i);
                        let _ = c.get(&(i % 53));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8 * 500);
        assert!(c.len() <= 128);
    }

    #[test]
    fn replace_database_bumps_generation_and_clears() {
        let shared = EngineShared::new(crate::demo_database());
        let e0 = shared.epoch();
        assert_eq!(e0.generation, 0);
        shared.parse_cache.insert(
            (0, Language::Ra, 1),
            ParseEntry::new(
                "Boat",
                Arc::new(Artifact::prepare(Language::Ra, "Boat", &e0.catalog).unwrap()),
            ),
        );
        let e1 = shared.replace_database(crate::demo_database());
        assert_eq!(e1.generation, 1);
        assert_eq!(e1.fingerprint, e0.fingerprint, "same content, same print");
        assert!(shared.parse_cache.is_empty());
        // The old epoch snapshot is still usable by in-flight queries.
        assert_eq!(e0.db.len(), 3);
    }
}
