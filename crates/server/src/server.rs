//! The TCP query service: a thread-per-core sharded reactor — one
//! acceptor thread routing sockets to N per-shard `epoll` event loops,
//! each owning its connections end-to-end with its own slice of the
//! compute pool.
//!
//! ```text
//!             ┌─ acceptor: poll(2) on {listener, waker} ─┐
//!   accept ──▶│  route least-loaded ──▶ shard inboxes    │
//!             └───────────┬──────────────────┬───────────┘
//!             ┌─ shard 0 ─▼────────┐ ┌─ shard 1 ─▼───────┐
//!             │ epoll loop + waker │ │ epoll loop + waker│  × N
//!             │ conn table (local) │ │ conn table (local)│
//!             │ cache hits inline  │ │ cache hits inline │
//!             │ pool slice (w/N)   │ │ pool slice (w/N)  │
//!             └────────────────────┘ └───────────────────┘
//!
//!   per connection:  read ─▶ frame ─▶ decode ─┬─ cheap: answer inline ──┬─▶ flush
//!                                             └─ rest: pool job ─ wake ─┘
//! ```
//!
//! A shard's loop never blocks on a socket and never evaluates a
//! query: it answers only *cheap* requests itself — pings, and queries
//! the parse and eval caches, with the translations and diagrams
//! memoized on parse entries, already answer whole
//! ([`Session::run_cached`]) — and hands everything else to its pool
//! slice, whose workers never touch a socket. Registrations are
//! persistent (`epoll_ctl` once per connection, `MOD` only when
//! interest changes) and per-wakeup work is event-driven — only the
//! connections actually touched this iteration are serviced, and the
//! idle-eviction scan runs only when its computed deadline fires — so
//! per-wakeup cost scales with readiness, not with the total
//! connection count. Everything per-connection (read/write buffers,
//! pending pipeline, epoll registration) is shard-local and needs no
//! locking; only the engine and the durable store are shared. Completed
//! responses are posted back to the owning shard through a
//! mutex-protected queue plus a self-pipe wake
//! ([`crate::reactor::Waker`]); shutdown broadcasts to the acceptor and
//! every shard, with one global drain deadline. `--shards 1` reproduces
//! the old single-loop topology.
//!
//! Each shard keeps its own [`Registry`] — request and connection
//! counters, the folded session counters, and every latency histogram —
//! behind that shard's own lock. Sessions record nothing: they return
//! their spans, total time and root q-error on the response, and the
//! server records those, plus its own `render` and `serialize` timings.
//! The shard loop records its inline answers straight into its shard's
//! registry; a pool batch records into a registry of its own and folds
//! it in once, at the end. Either way the session's counter growth is
//! folded in after the run or batch and the session's counters zeroed.
//! A `stats` or `metrics` scrape merges the shard registries with the
//! engine's cache counters into one snapshot and renders it; `stats
//! reset` renders the snapshot's growth since the previous reset.

use crate::conn::{Conn, ReadOutcome};
use crate::pool::ThreadPool;
use crate::protocol::{
    self, CheckpointResult, LoadResult, LoadSource, MetricsResult, MutationResult, PlannerStats,
    QueryResult, Request, RequestId, Response, ShardBreakdown, StageLatency, StatsResult,
};
use crate::reactor::{
    self, Epoll, EpollEvent, PollFd, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, POLLIN,
};
use rd_core::trace::Histogram;
use rd_core::{Database, Tuple, Value};
use rd_engine::{
    CacheStats, DiagramFormat, EngineShared, Language, QueryRequest, QueryResponse, Session,
    SessionStats, SharedConfig, STAGE_NAMES,
};
use rd_store::{Store, WalRecord};
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default row threshold above which query results stream as chunks.
pub const DEFAULT_STREAM_THRESHOLD: usize = 1024;

/// Default cap on one request line's size.
pub const DEFAULT_MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Default deadline for draining in-flight connections at shutdown.
pub const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// How the server is tuned. `Default` binds an ephemeral localhost port
/// with 8 workers and both caches on.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port; read the
    /// real one back with [`Server::local_addr`]).
    pub addr: String,
    /// Compute-pool threads: the number of requests evaluating at once.
    /// Connections are multiplexed by the event loops and are *not*
    /// bounded by this. The pool is sliced across shards (each shard
    /// gets at least one worker).
    pub workers: usize,
    /// Event-loop shards: each runs its own epoll loop, connection
    /// table, and compute-pool slice on a dedicated thread. `0` means
    /// one shard per available core; `1` reproduces the single-loop
    /// topology.
    pub shards: usize,
    /// Shared parse-cache capacity (entries).
    pub parse_cache_capacity: usize,
    /// Shared eval/result-cache capacity (entries).
    pub eval_cache_capacity: usize,
    /// `false` disables the result cache (every query re-evaluates).
    pub eval_cache: bool,
    /// Size-aware admission threshold for the result cache, in bytes per
    /// entry (`0` caches everything regardless of size).
    pub eval_cache_max_entry_bytes: usize,
    /// Shared compiled-plan-cache capacity (entries).
    pub plan_cache_capacity: usize,
    /// `false` disables the plan cache (every evaluation re-compiles).
    pub plan_cache: bool,
    /// Query results with more rows than this are streamed as
    /// `rows-chunk` frames of at most this many rows (`0` disables
    /// streaming entirely).
    pub stream_threshold: usize,
    /// Request lines larger than this are answered with an error and
    /// the connection is closed (it cannot resync mid-line).
    pub max_line_bytes: usize,
    /// Close connections with no traffic for this long (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// How long shutdown waits for in-flight connections to drain
    /// before force-closing them.
    pub drain_timeout: Duration,
    /// Durable-storage directory. When set, the server recovers its
    /// database from the newest snapshot plus the WAL tail on boot (the
    /// `db` passed to [`Server::bind`] only seeds a *fresh* directory),
    /// and every acknowledged mutation is logged — and fsynced — before
    /// its response frame is sent. `None` runs purely in memory.
    pub data_dir: Option<PathBuf>,
    /// Queries whose total latency meets this threshold (microseconds)
    /// are logged to stderr with their stage breakdown, cache
    /// disposition, and canonical text. `None` disables the log.
    pub slow_query_log: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            shards: 0,
            parse_cache_capacity: rd_engine::shared::DEFAULT_PARSE_CACHE_CAPACITY,
            eval_cache_capacity: rd_engine::shared::DEFAULT_EVAL_CACHE_CAPACITY,
            eval_cache: true,
            eval_cache_max_entry_bytes: rd_engine::shared::DEFAULT_EVAL_CACHE_MAX_ENTRY_BYTES,
            plan_cache_capacity: rd_engine::shared::DEFAULT_PLAN_CACHE_CAPACITY,
            plan_cache: true,
            stream_threshold: DEFAULT_STREAM_THRESHOLD,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            idle_timeout: None,
            drain_timeout: DEFAULT_DRAIN_TIMEOUT,
            data_dir: None,
            slow_query_log: None,
        }
    }
}

/// Server-level shared state: the engine, the durable store, and one
/// handle per shard.
struct ServerState {
    engine: Arc<EngineShared>,
    shutdown: AtomicBool,
    workers: u64,
    /// The write-ahead log + snapshot store (`--data-dir`). The mutex
    /// serializes durable mutations so WAL order equals apply order;
    /// `None` means the server runs purely in memory.
    store: Option<Mutex<Store>>,
    /// Slow-query threshold in microseconds (`None` = log nothing).
    slow_query_log: Option<u64>,
    /// One handle per event-loop shard: its waker, inbox, active gauge,
    /// and registry. Stats and metrics replies merge across these.
    shards: Vec<Arc<ShardHandle>>,
    /// Interrupts the acceptor's `poll` (shutdown broadcast).
    accept_waker: Waker,
    /// Set once by [`ServerState::begin_shutdown`]; every shard drains
    /// against this one global deadline.
    drain_deadline: Mutex<Option<Instant>>,
    drain_timeout: Duration,
    /// The merged snapshot the last `stats reset` reported; the next
    /// reset reports growth since here.
    last_reset: Mutex<Registry>,
}

/// Everything the server counts and times, as plain data. Each shard
/// owns one behind its own lock, written only by that shard's loop, its
/// pool slice, and the acceptor (once per routed socket); a scrape
/// merges them with [`accumulate`](Registry::accumulate) into one
/// snapshot, and `stats reset` reports [`since`](Registry::since) the
/// previous reset's snapshot. Histograms are recorded only with
/// [`SharedConfig::metrics`] on; counters always.
#[derive(Debug, Clone, Default, PartialEq)]
struct Registry {
    /// Requests handled (all ops).
    requests: u64,
    /// Requests answered with an error.
    errors: u64,
    /// Connections routed to the shard.
    connections: u64,
    /// Connections closed by idle eviction.
    evicted: u64,
    /// Requests the shard's loop answered itself, skipping the pool.
    inline: u64,
    /// Session counters, folded in after each inline run or pool batch.
    sessions: SessionStats,
    /// Per-stage latency (µs), parallel to [`STAGE_NAMES`].
    stages: [Histogram; STAGE_NAMES.len()],
    /// Whole-query latency (µs) per language, parallel to
    /// [`Language::ALL`].
    languages: [Histogram; Language::ALL.len()],
    /// The root q-error of each executed query, in centi-q (`q × 100`,
    /// so a perfect estimate records 100).
    planner_q: Histogram,
    /// Time one loop iteration spends processing (post-`epoll_wait` to
    /// re-wait), µs.
    loop_micros: Histogram,
    /// Pending request lines on a connection when a batch goes to the
    /// pool (inline answers never queue).
    queue_depth: Histogram,
    /// Time a batch waited between dispatch and a pool worker picking
    /// it up, µs.
    pool_wait: Histogram,
    /// The engine's cache counters: empty in a shard's registry, set
    /// once per scrape. [`since`](Registry::since) windows their
    /// counters and keeps their gauges (entries, capacity, bytes).
    parse_cache: CacheStats,
    eval_cache: CacheStats,
    plan_cache: CacheStats,
}

impl Registry {
    fn histograms(&self) -> impl Iterator<Item = &Histogram> {
        self.stages.iter().chain(&self.languages).chain([
            &self.planner_q,
            &self.loop_micros,
            &self.queue_depth,
            &self.pool_wait,
        ])
    }

    fn histograms_mut(&mut self) -> impl Iterator<Item = &mut Histogram> {
        self.stages.iter_mut().chain(&mut self.languages).chain([
            &mut self.planner_q,
            &mut self.loop_micros,
            &mut self.queue_depth,
            &mut self.pool_wait,
        ])
    }

    /// Folds `other`'s counters and histograms in (the cache counters
    /// are engine-wide, not per shard, and are left alone).
    fn accumulate(&mut self, other: &Registry) {
        self.requests += other.requests;
        self.errors += other.errors;
        self.connections += other.connections;
        self.evicted += other.evicted;
        self.inline += other.inline;
        self.sessions.accumulate(&other.sessions);
        for (mine, theirs) in self.histograms_mut().zip(other.histograms()) {
            mine.accumulate(theirs);
        }
    }

    /// The growth `self − base` of every counter and histogram; the
    /// cache gauges keep their current values.
    fn since(&self, base: &Registry) -> Registry {
        let window = |now: &CacheStats, base: &CacheStats| CacheStats {
            hits: now.hits - base.hits,
            misses: now.misses - base.misses,
            evictions: now.evictions - base.evictions,
            ..*now
        };
        let mut out = Registry {
            requests: self.requests - base.requests,
            errors: self.errors - base.errors,
            connections: self.connections - base.connections,
            evicted: self.evicted - base.evicted,
            inline: self.inline - base.inline,
            sessions: self.sessions.since(&base.sessions),
            parse_cache: window(&self.parse_cache, &base.parse_cache),
            eval_cache: window(&self.eval_cache, &base.eval_cache),
            plan_cache: window(&self.plan_cache, &base.plan_cache),
            ..Registry::default()
        };
        let deltas = self.histograms().zip(base.histograms());
        for (slot, (now, base)) in out.histograms_mut().zip(deltas) {
            *slot = now.since(base);
        }
        out
    }

    /// Records one stage span (unknown stage names are ignored: the
    /// registry's shape is fixed).
    fn record_span(&mut self, stage: &str, micros: u64) {
        if let Some(i) = STAGE_NAMES.iter().position(|s| *s == stage) {
            self.stages[i].record(micros);
        }
    }

    /// Records what a session returned for one query whose reply frames
    /// took `shaping` µs to build: its total time under its language,
    /// its stage spans, and its root q-error. The session's own `render`
    /// span (translations, diagram) and the frame shaping are one
    /// `render` sample, so every query records each stage at most once.
    fn record_query(&mut self, resp: &QueryResponse, shaping: u64) {
        let lang = Language::ALL
            .iter()
            .position(|l| *l == resp.language)
            .expect("every language is in ALL");
        self.languages[lang].record(resp.micros);
        let mut render = shaping;
        for span in &resp.spans {
            match span.stage {
                "render" => render += span.micros,
                stage => self.record_span(stage, span.micros),
            }
        }
        self.record_span("render", render);
        if let Some(q) = resp.q_error {
            self.planner_q.record((q * 100.0).round().max(100.0) as u64);
        }
    }
}

impl ServerState {
    /// Idempotent shutdown broadcast: arms the one global drain
    /// deadline, then wakes the acceptor and every shard so all loops
    /// observe the flag promptly.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            *self
                .drain_deadline
                .lock()
                .unwrap_or_else(|p| p.into_inner()) = Some(Instant::now() + self.drain_timeout);
            self.accept_waker.wake();
            for shard in &self.shards {
                shard.waker.wake();
            }
        }
    }

    fn drain_deadline(&self) -> Option<Instant> {
        *self
            .drain_deadline
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }
}

fn elapsed_micros(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// One finished pool job: encoded frames ready to write, routed back to
/// the connection by token.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    shutdown: bool,
}

/// The acceptor/worker side of one shard: everything another thread
/// may touch. The shard's own loop state (epoll instance, connection
/// table, pool slice) lives in [`ShardLoop`] and is never shared.
struct ShardHandle {
    id: usize,
    /// Interrupts the shard's `epoll_wait` (new sockets, completions,
    /// shutdown).
    waker: Waker,
    /// Sockets routed here by the acceptor, adopted on the next wakeup.
    inbox: Mutex<Vec<TcpStream>>,
    /// Finished pool jobs waiting for the loop to queue their frames.
    completions: Mutex<Vec<Completion>>,
    /// Currently-open connections (incremented at routing time, so a
    /// socket is never unaccounted while it sits in the inbox). The
    /// acceptor routes on it, so it stays an atomic.
    active: AtomicU64,
    /// Everything this shard counts and times.
    registry: Mutex<Registry>,
}

impl ShardHandle {
    fn new(id: usize) -> std::io::Result<ShardHandle> {
        Ok(ShardHandle {
            id,
            waker: Waker::new()?,
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            active: AtomicU64::new(0),
            registry: Mutex::new(Registry::default()),
        })
    }

    fn push_completion(&self, completion: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(completion);
        self.waker.wake();
    }

    fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().unwrap_or_else(|p| p.into_inner()))
    }

    fn push_stream(&self, stream: TcpStream) {
        self.inbox
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(stream);
        self.waker.wake();
    }

    fn take_inbox(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.inbox.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Locks this shard's registry, surviving a poisoned mutex: the
    /// shard's own loop takes it, where a panic would stop the loop.
    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Resolves the configured shard count: `0` means one shard per
/// available core.
fn resolve_shards(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// A bound (but not yet serving) query service.
///
/// ```no_run
/// use rd_server::{Server, ServerConfig};
///
/// let server = Server::bind(ServerConfig::default(), rd_engine::demo_database()).unwrap();
/// println!("listening on {}", server.local_addr());
/// server.serve().unwrap(); // blocks until a client sends {"op":"shutdown"}
/// ```
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    config: ServerConfig,
}

impl Server {
    /// Binds the listener and builds the shared engine state over `db`.
    ///
    /// With [`ServerConfig::data_dir`] set, the served database is
    /// *recovered* from that directory (newest snapshot + WAL tail,
    /// truncating a torn final record); `db` is used only to seed a
    /// fresh directory, where it is immediately checkpointed so the
    /// seed itself survives a crash.
    pub fn bind(config: ServerConfig, db: Database) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let (db, store) = match &config.data_dir {
            Some(dir) => {
                let (recovered, mut store) = Store::open(dir)?;
                let db = if store.is_fresh() && !db.is_empty() {
                    store.checkpoint(&db)?;
                    db
                } else {
                    recovered
                };
                (db, Some(Mutex::new(store)))
            }
            None => (db, None),
        };
        let engine = Arc::new(EngineShared::with_config(
            db,
            SharedConfig {
                parse_cache_capacity: config.parse_cache_capacity,
                eval_cache_capacity: config.eval_cache_capacity,
                eval_cache: config.eval_cache,
                eval_cache_max_entry_bytes: config.eval_cache_max_entry_bytes,
                plan_cache_capacity: config.plan_cache_capacity,
                plan_cache: config.plan_cache,
                ..SharedConfig::default()
            },
        ));
        let shards = (0..resolve_shards(config.shards))
            .map(|id| ShardHandle::new(id).map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        let state = Arc::new(ServerState {
            engine,
            shutdown: AtomicBool::new(false),
            workers: config.workers.max(1) as u64,
            store,
            slow_query_log: config.slow_query_log,
            shards,
            accept_waker: Waker::new()?,
            drain_deadline: Mutex::new(None),
            drain_timeout: config.drain_timeout,
            last_reset: Mutex::new(Registry::default()),
        });
        Ok(Server {
            listener,
            state,
            config,
        })
    }

    /// The address actually bound (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// The shared engine state (exposed for embedding and tests).
    pub fn engine(&self) -> Arc<EngineShared> {
        self.state.engine.clone()
    }

    /// The number of event-loop shards this server runs (resolved from
    /// [`ServerConfig::shards`]; `0` meant one per available core).
    pub fn shard_count(&self) -> usize {
        self.state.shards.len()
    }

    /// Serves until a client sends `{"op":"shutdown"}`. Blocking; run it
    /// on its own thread if the caller needs to keep working. The
    /// calling thread becomes the acceptor; one thread per shard runs
    /// an epoll event loop. Shutdown stops accepting, drains in-flight
    /// connections on every shard up to [`ServerConfig::drain_timeout`],
    /// then returns.
    pub fn serve(self) -> std::io::Result<()> {
        let Server {
            listener,
            state,
            config,
        } = self;
        listener.set_nonblocking(true)?;
        let nshards = state.shards.len();
        let workers = config.workers.max(1);
        let mut threads: Vec<std::thread::JoinHandle<std::io::Result<()>>> =
            Vec::with_capacity(nshards);
        for handle in &state.shards {
            // Slice the pool: workers/n each, the remainder spread over
            // the first shards, never below one thread.
            let width = (workers / nshards + usize::from(handle.id < workers % nshards)).max(1);
            let shard = match ShardLoop::new(state.clone(), config.clone(), handle.clone(), width) {
                Ok(shard) => shard,
                Err(e) => {
                    // Already-spawned shards must not outlive a failed
                    // boot: broadcast shutdown and collect them.
                    state.begin_shutdown();
                    for t in threads {
                        let _ = t.join();
                    }
                    return Err(e);
                }
            };
            let thread = std::thread::Builder::new()
                .name(format!("rd-shard-{}", handle.id))
                .spawn(move || shard.run())
                .expect("spawn shard loop thread");
            threads.push(thread);
        }
        let result = accept_loop(&listener, &state);
        drop(listener); // closes the fd: no new connections during drain
        if result.is_err() {
            // The acceptor died on a poll error; the shards still need
            // the shutdown broadcast to drain and exit.
            state.begin_shutdown();
        }
        let mut shard_result = Ok(());
        for thread in threads {
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => shard_result = Err(e),
                Err(_) => shard_result = Err(std::io::Error::other("shard loop panicked")),
            }
        }
        result.and(shard_result)
    }
}

/// The acceptor: a two-fd `poll` loop (shutdown waker + listener) that
/// routes each accepted socket to the least-loaded shard's inbox. This
/// is the only cross-shard decision on the connection path, and it
/// happens once per connection — never per request.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) -> std::io::Result<()> {
    let mut rotate = 0usize;
    loop {
        let mut pfds = [
            PollFd::new(state.accept_waker.read_fd(), POLLIN),
            PollFd::new(listener.as_raw_fd(), POLLIN),
        ];
        reactor::poll(&mut pfds, -1)?;
        state.accept_waker.drain();
        if state.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        if pfds[1].ready(POLLIN) {
            accept_all(listener, state, &mut rotate)?;
        }
    }
}

fn accept_all(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    rotate: &mut usize,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(true)?;
                stream.set_nodelay(true).ok();
                let shard = route(&state.shards, rotate);
                // Count at routing time so the socket is never
                // unaccounted while it sits in the inbox.
                shard.registry().connections += 1;
                shard.active.fetch_add(1, Ordering::Relaxed);
                shard.push_stream(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Least-loaded routing with a rotating tiebreak: under a uniform load
/// the rotation degrades to round-robin; under a skewed one (a few
/// pipelining clients among thousands of idle ones) new sockets avoid
/// the busy shards.
fn route<'a>(shards: &'a [Arc<ShardHandle>], rotate: &mut usize) -> &'a Arc<ShardHandle> {
    let start = *rotate % shards.len();
    *rotate = rotate.wrapping_add(1);
    let mut best = start;
    let mut best_load = shards[start].active.load(Ordering::Relaxed);
    for offset in 1..shards.len() {
        let i = (start + offset) % shards.len();
        let load = shards[i].active.load(Ordering::Relaxed);
        if load < best_load {
            best = i;
            best_load = load;
        }
    }
    &shards[best]
}

/// The epoll token reserved for the shard's own waker pipe.
const WAKER_TOKEN: u64 = u64::MAX;

/// One shard's event loop: an epoll instance with persistent
/// registrations, a private connection table, and a private slice of
/// the compute pool. Nothing here is shared — the acceptor and the pool
/// workers reach the shard only through its [`ShardHandle`].
struct ShardLoop {
    state: Arc<ServerState>,
    config: ServerConfig,
    handle: Arc<ShardHandle>,
    epoll: Epoll,
    pool: ThreadPool,
    conns: HashMap<u64, Conn<TcpStream>>,
    next_token: u64,
    /// Set on the iteration that first observes the shutdown flag; the
    /// one O(n) mark-read-closed pass runs exactly once, there.
    draining: bool,
    /// The earliest instant any currently-quiet connection could become
    /// evictable. The O(n) idle scan runs only when this fires, not on
    /// every wakeup.
    next_idle_scan: Option<Instant>,
}

impl ShardLoop {
    fn new(
        state: Arc<ServerState>,
        config: ServerConfig,
        handle: Arc<ShardHandle>,
        pool_width: usize,
    ) -> std::io::Result<ShardLoop> {
        let epoll = Epoll::new()?;
        epoll.add(handle.waker.read_fd(), EPOLLIN, WAKER_TOKEN)?;
        let pool = ThreadPool::new(pool_width, &format!("rd-worker-s{}", handle.id));
        Ok(ShardLoop {
            state,
            config,
            handle,
            epoll,
            pool,
            conns: HashMap::new(),
            next_token: 0,
            draining: false,
            next_idle_scan: None,
        })
    }

    fn run(mut self) -> std::io::Result<()> {
        let mut events = vec![EpollEvent::zeroed(); 1024];
        let mut touched: Vec<u64> = Vec::new();
        loop {
            let ready = self.epoll.wait(&mut events, self.wait_timeout())?;
            let iter_start = self.state.engine.metrics_enabled().then(Instant::now);
            touched.clear();

            // 1. Socket readiness: writes first (frees backpressure),
            //    then reads → framing. Only these connections — plus
            //    the ones completions and adoptions touch below — get
            //    serviced this iteration.
            for event in &events[..ready] {
                let token = event.token();
                if token == WAKER_TOKEN {
                    continue;
                }
                touched.push(token);
                let bits = event.events();
                if bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0 {
                    self.flush_conn(token);
                }
                if bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 {
                    self.read_conn(token);
                }
            }

            // 2. Worker completions (drain the pipe first so a wake
            //    arriving mid-drain re-reports on the next wait).
            self.handle.waker.drain();
            for completion in self.handle.take_completions() {
                if completion.shutdown {
                    self.state.begin_shutdown();
                }
                if let Some(conn) = self.conns.get_mut(&completion.token) {
                    conn.in_flight = conn.in_flight.saturating_sub(1);
                    conn.queue(&completion.bytes);
                    touched.push(completion.token);
                }
            }

            // 3. Adopt sockets the acceptor routed here.
            for stream in self.handle.take_inbox() {
                if let Some(token) = self.adopt(stream) {
                    touched.push(token);
                }
            }

            // 4. Shutdown broadcast: on the iteration that first
            //    observes the flag, mark every connection read-closed
            //    (finish what was already sent, read nothing new). This
            //    is the only full pass outside the idle scan, and it
            //    runs once.
            if !self.draining && self.state.shutdown.load(Ordering::SeqCst) {
                self.draining = true;
                for (token, conn) in self.conns.iter_mut() {
                    conn.read_closed = true;
                    touched.push(*token);
                }
            }

            // 5. Service each touched connection once: opportunistic
            //    flush, dispatch, close, and interest reconciliation.
            touched.sort_unstable();
            touched.dedup();
            for &token in &touched {
                self.service(token);
            }

            // 6. The idle-eviction scan, only when its deadline fired.
            self.maybe_evict_idle();

            // Time spent working this iteration (the wait's sleep
            // excluded): a growing tail here means this shard's loop is
            // the bottleneck, not its compute slice.
            if let Some(t) = iter_start {
                self.handle.registry().loop_micros.record(elapsed_micros(t));
            }

            if self.draining {
                if self.conns.is_empty() {
                    break;
                }
                if let Some(deadline) = self.state.drain_deadline() {
                    if Instant::now() >= deadline {
                        // Drain deadline passed: force-close stragglers.
                        for (_, conn) in self.conns.drain() {
                            self.handle.active.fetch_sub(1, Ordering::Relaxed);
                            drop(conn);
                        }
                        break;
                    }
                }
            }
        }
        // Workers may still be evaluating force-closed connections'
        // requests; join so their completions (posted to a queue nobody
        // reads anymore) can't race the process teardown.
        self.pool.join();
        Ok(())
    }

    /// How long `epoll_wait` may sleep: forever unless an idle-eviction
    /// or drain deadline needs a timed wakeup.
    fn wait_timeout(&self) -> i32 {
        let mut deadline = if self.draining {
            match self.state.drain_deadline() {
                Some(d) => Some(d),
                // Shutdown flag seen before the deadline store landed:
                // poll again shortly rather than sleeping forever.
                None => return 10,
            }
        } else {
            None
        };
        if let Some(scan_at) = self.next_idle_scan {
            deadline = Some(deadline.map_or(scan_at, |d| d.min(scan_at)));
        }
        match deadline {
            None => -1,
            Some(d) => {
                let ms = d.saturating_duration_since(Instant::now()).as_millis() + 1;
                ms.min(i32::MAX as u128) as i32
            }
        }
    }

    /// Registers one routed socket with this shard's epoll instance and
    /// connection table. Returns `None` (closing the socket) if the
    /// kernel refused the registration.
    fn adopt(&mut self, stream: TcpStream) -> Option<u64> {
        let token = self.next_token;
        self.next_token += 1;
        let session = Arc::new(Mutex::new(Session::attach(self.state.engine.clone())));
        let mut conn = Conn::new(token, stream, session);
        conn.interest = EPOLLIN;
        if self.draining {
            // Accepted before shutdown, adopted after: nothing was ever
            // read, so it closes as soon as it is serviced.
            conn.read_closed = true;
            conn.interest = 0;
        }
        match self
            .epoll
            .add(conn.stream().as_raw_fd(), conn.interest, token)
        {
            Ok(()) => {
                self.conns.insert(token, conn);
                Some(token)
            }
            Err(_) => {
                self.handle.active.fetch_sub(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.has_backlog() && conn.flush().is_err() {
            self.close(token);
        }
    }

    /// Reads available bytes, frames them into lines, and queues the
    /// requests. Oversized lines get an error frame and a fatal close.
    fn read_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.read_closed {
            // Draining (or already saw EOF): an EPOLLHUP must not grow
            // the pipeline with requests we promised not to read.
            return;
        }
        let outcome = conn.fill();
        if outcome == ReadOutcome::Dead {
            self.close(token);
            return;
        }
        loop {
            match conn.next_line(self.config.max_line_bytes) {
                Ok(Some(line)) => {
                    if !line.trim().is_empty() {
                        conn.pending.push_back(line);
                    }
                }
                Ok(None) => break,
                Err(_overflow) => {
                    let mut registry = self.handle.registry();
                    registry.requests += 1;
                    registry.errors += 1;
                    drop(registry);
                    conn.queue(&error_line(format!(
                        "request line exceeds {} bytes",
                        self.config.max_line_bytes
                    )));
                    // The stream cannot resync mid-line: stop reading,
                    // drop pending work, close once the error flushes.
                    conn.read_closed = true;
                    conn.fatal = true;
                    conn.pending.clear();
                    return;
                }
            }
        }
        // A half-closing client's last request may lack the trailing
        // newline; EOF is its delimiter (the blocking server honored
        // this too).
        if outcome == ReadOutcome::Eof {
            if let Some(line) = conn.take_final_line() {
                if !line.trim().is_empty() {
                    conn.pending.push_back(line);
                }
            }
        }
    }

    /// One post-I/O pass over a touched connection: opportunistic
    /// flush, dispatch, close-if-finished, epoll interest
    /// reconciliation, and idle-deadline bookkeeping.
    fn service(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.in_flight == 0 && !conn.fatal && !conn.pending.is_empty() {
            self.dispatch(token);
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Try to write without waiting for the next EPOLLOUT round;
        // most responses fit the socket buffer immediately. Flushing
        // after dispatch sends a completion and the inline answers that
        // followed it in one write, in this same iteration.
        if conn.has_backlog() && conn.flush().is_err() {
            self.close(token);
            return;
        }
        let finished = conn.read_closed && conn.is_quiet();
        let aborted = conn.fatal && !conn.has_backlog();
        if finished || aborted {
            self.close(token);
            return;
        }
        // Reconcile the kernel's interest set with what the connection
        // wants now; MOD only on change, so steady-state pipelining
        // does zero epoll_ctl calls.
        let mut want = 0u32;
        if conn.wants_read() && !conn.read_closed {
            want |= EPOLLIN;
        }
        if conn.has_backlog() {
            want |= EPOLLOUT;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.stream().as_raw_fd(), want, token)
                .is_ok()
        {
            // A failed MOD leaves the old registration; level-triggered
            // readiness keeps the connection serviced (worst case:
            // spurious wakeups), so no close is needed.
            conn.interest = want;
        }
        if let Some(idle) = self.config.idle_timeout {
            if conn.is_quiet() && !conn.read_closed {
                let evict_at = conn.last_activity + idle;
                self.next_idle_scan =
                    Some(self.next_idle_scan.map_or(evict_at, |d| d.min(evict_at)));
            }
        }
    }

    /// Answers one connection's queued requests. Lines are decoded once,
    /// here; the leading run of cheap requests is answered on this
    /// thread ([`answer_inline`]) and the rest of the batch goes to the
    /// pool as one job. One job per connection at a time keeps responses
    /// in request order and stops one deep pipeline from monopolizing
    /// the workers; while it is out, nothing else of this connection's
    /// is answered, not even a hit. A job takes the connection's whole
    /// queue (up to a fairness cap): this is where pipelining pays,
    /// amortizing the loop↔pool handoff and the write syscalls across
    /// every request the client kept in flight.
    fn dispatch(&mut self, token: u64) {
        /// Requests one job may carry (bounds worker occupancy per conn).
        const MAX_BATCH: usize = 64;
        let trace = self.state.engine.metrics_enabled();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while !conn.pending.is_empty() {
            let depth = conn.pending.len();
            let mut batch: VecDeque<Decoded> = conn
                .pending
                .drain(..depth.min(MAX_BATCH))
                .map(|line| protocol::decode_request_line(line.trim()))
                .collect();
            let bytes = answer_inline(
                &self.state,
                &self.handle,
                &conn.session,
                &mut batch,
                self.config.stream_threshold,
            );
            conn.queue(&bytes);
            if batch.is_empty() {
                continue;
            }
            // The job's own records, folded into the shard's registry
            // when the batch finishes.
            let mut rec = Registry::default();
            if trace {
                rec.queue_depth.record(depth as u64);
            }
            conn.in_flight = 1;
            let session = conn.session.clone();
            let state = self.state.clone();
            let handle = self.handle.clone();
            let stream_threshold = self.config.stream_threshold;
            let enqueued = trace.then(Instant::now);
            self.pool.execute(move || {
                if let Some(t) = enqueued {
                    rec.pool_wait.record(elapsed_micros(t));
                }
                // A panicking handler must still complete the batch:
                // the connection would otherwise wait forever with
                // `in_flight` stuck at 1. (Per-request panics are
                // already contained inside `run_batch`.)
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_batch(&state, &handle, &session, rec, batch, stream_threshold)
                }));
                let (bytes, shutdown) =
                    result.unwrap_or_else(|_| (error_line(PANIC_MESSAGE.into()), false));
                handle.push_completion(Completion {
                    token,
                    bytes,
                    shutdown,
                });
            });
            return;
        }
    }

    /// Runs the O(n) idle scan — but only when the precomputed deadline
    /// has actually fired. Evicts everything overdue and recomputes the
    /// next deadline from the survivors.
    fn maybe_evict_idle(&mut self) {
        let Some(idle) = self.config.idle_timeout else {
            return;
        };
        let Some(scan_at) = self.next_idle_scan else {
            return;
        };
        let now = Instant::now();
        if now < scan_at {
            return;
        }
        let mut evicting: Vec<u64> = Vec::new();
        let mut next: Option<Instant> = None;
        for (token, conn) in self.conns.iter() {
            if !conn.is_quiet() || conn.read_closed {
                continue;
            }
            let evict_at = conn.last_activity + idle;
            if now >= evict_at {
                evicting.push(*token);
            } else {
                next = Some(next.map_or(evict_at, |d| d.min(evict_at)));
            }
        }
        self.next_idle_scan = next;
        self.handle.registry().evicted += evicting.len() as u64;
        for token in evicting {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            // Deregister before the fd closes; a failure is harmless
            // (closing the fd removes the registration anyway).
            let _ = self.epoll.delete(conn.stream().as_raw_fd());
            self.handle.active.fetch_sub(1, Ordering::Relaxed);
            drop(conn);
        }
    }
}

/// Locks a connection session, surviving a poisoned mutex (a prior
/// panicking request must not wedge the connection).
fn lock_session(cell: &Mutex<Session>) -> MutexGuard<'_, Session> {
    cell.lock().unwrap_or_else(|p| p.into_inner())
}

/// One decoded request line: its id (if any) and the request, or the
/// decode error to answer with (see [`protocol::decode_request_line`]).
type Decoded = Result<(Option<RequestId>, Request), (Option<RequestId>, String)>;

/// Folds a pool batch's records, plus the session's counter growth,
/// into the shard's registry, and zeroes both: every request is
/// recorded once, whichever path answered it.
fn fold(shard: &ShardHandle, rec: &mut Registry, session: &mut Session) {
    rec.sessions.accumulate(session.stats());
    session.reset_stats();
    shard.registry().accumulate(&std::mem::take(rec));
}

/// Answers the leading run of *cheap* requests in `batch` on the
/// calling shard thread, popping each one answered: pings, and queries
/// that [`Session::run_cached`] answers in one frame from the parse and
/// eval caches and the views memoized on the parse entry. The first other
/// request stops the run, so the rest of the batch keeps its order for
/// the pool. Returns the encoded frames.
///
/// The loop records straight into its own shard's registry, holding the
/// lock for the run (session lock first, as everywhere): a run is a
/// handful of cache hits, and a batch-local registry would cost each
/// hit its histograms' allocations and a fold.
fn answer_inline(
    state: &ServerState,
    shard: &ShardHandle,
    session_cell: &Mutex<Session>,
    batch: &mut VecDeque<Decoded>,
    stream_threshold: usize,
) -> Vec<u8> {
    let max_rows = match stream_threshold {
        0 => usize::MAX,
        n => n,
    };
    let mut session = lock_session(session_cell);
    let mut registry = shard.registry();
    let rec = &mut *registry;
    let mut bytes = Vec::new();
    while let Some(Ok((id, request))) = batch.front() {
        // Contained like `run_batch`: a panic answers this request with
        // an error frame instead of killing the shard loop.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match request {
            Request::Ping => Some(vec![Response::Pong]),
            Request::Query {
                language,
                text,
                translations,
                diagram,
            } => {
                let req = query_request(*language, text.clone(), *translations, *diagram);
                let resp = session.run_cached(&req, max_rows)?;
                Some(query_frames(
                    state,
                    rec,
                    &mut session,
                    &resp,
                    stream_threshold,
                ))
            }
            _ => None,
        }));
        let reply = match result {
            Ok(None) => break,
            Ok(Some(frames)) => encode_reply(state, rec, id.as_ref(), &frames),
            Err(_) => answer_panic(state, rec),
        };
        rec.requests += 1;
        rec.inline += 1;
        bytes.extend(reply);
        batch.pop_front();
    }
    rec.sessions.accumulate(session.stats());
    session.reset_stats();
    bytes
}

/// The engine request of a wire query (language detected if unnamed).
fn query_request(
    language: Option<Language>,
    text: String,
    translations: bool,
    diagram: DiagramFormat,
) -> QueryRequest {
    let language = language.unwrap_or_else(|| Language::detect(&text));
    let mut req = QueryRequest::new(language, text).with_diagram(diagram);
    req.translations = translations;
    req
}

/// Runs one batch of decoded requests to completion on a pool worker.
/// The session lock is taken once and the registry fold happens once —
/// per-batch, not per-request — so a deep pipeline amortizes all of the
/// coordination, not just the socket syscalls. `rec` arrives holding
/// the dispatch's queue-depth and pool-wait records. Returns the
/// encoded frames and whether the server should begin shutdown.
fn run_batch(
    state: &ServerState,
    shard: &ShardHandle,
    session_cell: &Mutex<Session>,
    mut rec: Registry,
    batch: VecDeque<Decoded>,
    stream_threshold: usize,
) -> (Vec<u8>, bool) {
    let mut session = lock_session(session_cell);
    let mut bytes = Vec::new();
    let mut shutdown = false;
    for decoded in batch {
        // Contain per-request panics inside the batch: the remaining
        // requests still run and the lock (held outside the catch)
        // never poisons.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_line(
                state,
                shard,
                &mut session,
                &mut rec,
                decoded,
                stream_threshold,
            )
        }));
        match result {
            Ok((frame_bytes, sd)) => {
                bytes.extend_from_slice(&frame_bytes);
                shutdown |= sd;
            }
            Err(_) => bytes.extend_from_slice(&answer_panic(state, &mut rec)),
        }
    }
    fold(shard, &mut rec, &mut session);
    (bytes, shutdown)
}

/// One encoded, newline-terminated error frame (no request id — used
/// where the id is unknown or the failure is not tied to one request).
fn error_line(message: String) -> Vec<u8> {
    let mut bytes = protocol::encode(&Response::Error(message)).into_bytes();
    bytes.push(b'\n');
    bytes
}

/// The error a panicked request handler is answered with.
const PANIC_MESSAGE: &str = "internal error: request handler panicked";

/// Answers one request whose handler panicked: an id-less error frame,
/// counted like any other error.
fn answer_panic(state: &ServerState, rec: &mut Registry) -> Vec<u8> {
    encode_reply(state, rec, None, &[Response::Error(PANIC_MESSAGE.into())])
}

/// Runs one decoded request: evaluate, frame (single response or
/// chunked stream). Returns the encoded frames and whether the server
/// should begin shutdown.
fn run_line(
    state: &ServerState,
    shard: &ShardHandle,
    session: &mut Session,
    rec: &mut Registry,
    decoded: Decoded,
    stream_threshold: usize,
) -> (Vec<u8>, bool) {
    rec.requests += 1;
    let (id, frames, shutdown) = match decoded {
        Ok((
            id,
            Request::Query {
                language,
                text,
                translations,
                diagram,
            },
        )) => {
            let req = query_request(language, text, translations, diagram);
            // A stream threshold of 0 never streams (see `query_frames`).
            let frames = match session.run(&req) {
                Ok(resp) => query_frames(state, rec, session, &resp, stream_threshold),
                Err(e) => vec![Response::Error(e.to_string())],
            };
            (id, frames, false)
        }
        Ok((id, request)) => {
            let (response, shutdown) = handle_control(&request, session, state, shard, rec);
            (id, vec![response], shutdown)
        }
        Err((id, e)) => (id, vec![Response::Error(e)], false),
    };
    (encode_reply(state, rec, id.as_ref(), &frames), shutdown)
}

/// Encodes one request's reply frames, newline-terminated, echoing
/// `id` (timed as the `serialize` stage), and counts an error if any
/// frame is one.
fn encode_reply(
    state: &ServerState,
    rec: &mut Registry,
    id: Option<&RequestId>,
    frames: &[Response],
) -> Vec<u8> {
    if frames.iter().any(|f| matches!(f, Response::Error(_))) {
        rec.errors += 1;
    }
    let serialize_start = state.engine.metrics_enabled().then(Instant::now);
    let mut bytes = Vec::new();
    for frame in frames {
        bytes.extend_from_slice(protocol::encode_frame(frame, id).as_bytes());
        bytes.push(b'\n');
    }
    if let Some(t) = serialize_start {
        rec.record_span("serialize", elapsed_micros(t));
    }
    bytes
}

/// Dispatches one decoded non-query request. Returns the response and
/// whether the server should shut down afterwards.
fn handle_control(
    request: &Request,
    session: &mut Session,
    state: &ServerState,
    shard: &ShardHandle,
    rec: &mut Registry,
) -> (Response, bool) {
    match request {
        Request::Query { .. } => unreachable!("queries take the framing path"),
        Request::Explain {
            language,
            text,
            analyze,
        } => {
            let language = language.unwrap_or_else(|| Language::detect(text));
            let explained = if *analyze {
                session.explain_analyze(language, text)
            } else {
                session.explain(language, text)
            };
            let response = match explained {
                Ok(e) => Response::Explain(protocol::ExplainResult {
                    language: e.language,
                    canonical: e.canonical,
                    plan: e.plan,
                    cache_hit: e.cache_hit,
                }),
                Err(e) => Response::Error(e.to_string()),
            };
            (response, false)
        }
        Request::Translate { language, text, to } => {
            let language = language.unwrap_or_else(|| Language::detect(text));
            let response = match session.translate(language, text, *to) {
                Ok(rendered) => Response::Translate(protocol::TranslateResult {
                    to: *to,
                    text: rendered,
                }),
                Err(e) => Response::Error(e.to_string()),
            };
            (response, false)
        }
        Request::Load(source) => (run_load(state, session, source), false),
        Request::Insert { table, rows } => (run_mutation(state, table, rows, true), false),
        Request::Delete { table, rows } => (run_mutation(state, table, rows, false), false),
        Request::Checkpoint => (run_checkpoint(state), false),
        // Fold this batch in first, so a scrape counts every request
        // before it, this one included.
        Request::Stats { reset } => {
            fold(shard, rec, session);
            (Response::Stats(collect_stats(state, *reset)), false)
        }
        Request::Metrics => {
            fold(shard, rec, session);
            let text = render_metrics(state);
            (Response::Metrics(MetricsResult { text }), false)
        }
        Request::Ping => (Response::Pong, false),
        Request::Shutdown => (Response::Bye, true),
    }
}

/// Frames one evaluated query: writes the slow-query log line (if due),
/// records what the session returned, then builds one `Response::Query`
/// when the result fits, or `rows-chunk` frames + `rows-end` when the row
/// count exceeds the stream threshold.
fn query_frames(
    state: &ServerState,
    rec: &mut Registry,
    session: &mut Session,
    resp: &QueryResponse,
    stream_threshold: usize,
) -> Vec<Response> {
    if let Some(threshold) = state.slow_query_log {
        if resp.micros >= threshold {
            let breakdown: Vec<String> = resp
                .spans
                .iter()
                .map(|s| format!("{}={}µs", s.stage, s.micros))
                .collect();
            let cache = if resp.eval_cache_hit {
                "eval-hit"
            } else if resp.cache_hit {
                "parse-hit"
            } else {
                "cold"
            };
            eprintln!(
                "slow-query lang={} total={}µs stages=[{}] cache={} query={}",
                resp.language.name(),
                resp.micros,
                breakdown.join(" "),
                cache,
                resp.canonical.replace('\n', " "),
            );
        }
    }
    // Everything below is the server's share of the *render* stage:
    // shaping the evaluated relation into wire-ready result frames (row
    // materialization, translation pairs, stream chunking). Time it like
    // `serialize` in `encode_reply`, so every stage records per request.
    let render_start = state.engine.metrics_enabled().then(Instant::now);
    let translations = resp.translations.as_ref().map(|t| {
        let mut pairs = vec![("trc".to_string(), t.trc.clone())];
        if let Some(sql) = &t.sql {
            pairs.push(("sql".into(), sql.clone()));
        }
        if let Some(datalog) = &t.datalog {
            pairs.push(("datalog".into(), datalog.clone()));
        }
        if let Some(ra) = &t.ra {
            pairs.push(("ra".into(), ra.clone()));
        }
        pairs
    });
    let mut notes = resp.notes.clone();
    if let Some(t) = &resp.translations {
        notes.extend(t.notes.iter().cloned());
    }
    let mut result = QueryResult {
        language: resp.language,
        canonical: resp.canonical.clone(),
        attrs: resp.relation.schema().attrs().to_vec(),
        rows: Vec::new(),
        cache_hit: resp.cache_hit,
        eval_cache_hit: resp.eval_cache_hit,
        translations,
        diagram: resp.diagram.clone(),
        notes,
    };
    let frames = if stream_threshold > 0 && resp.relation.len() > stream_threshold {
        session.record_streamed(resp.relation.len() as u64);
        // Chunks are built straight off the shared relation — the full
        // result is never materialized a second time.
        protocol::stream_frames(
            &result,
            resp.row_chunks(stream_threshold)
                .map(|chunk| chunk.iter().map(|t| t.iter().cloned().collect()).collect()),
        )
    } else {
        result.rows = resp
            .relation
            .iter()
            .map(|t| t.iter().cloned().collect())
            .collect();
        vec![Response::Query(result)]
    };
    if let Some(t) = render_start {
        rec.record_query(resp, elapsed_micros(t));
    }
    frames
}

/// Locks the store (when one is configured), surviving poisoning. Held
/// across apply + log so WAL order always equals apply order.
fn lock_store(state: &ServerState) -> Option<MutexGuard<'_, Store>> {
    state
        .store
        .as_ref()
        .map(|m| m.lock().unwrap_or_else(|p| p.into_inner()))
}

/// Applies one insert/delete batch to the live epoch and — before the
/// response is released — appends it to the WAL. The store lock spans
/// both steps, so the log's record order matches the epochs' apply
/// order exactly; a failed apply logs nothing.
fn run_mutation(state: &ServerState, table: &str, rows: &[Vec<Value>], insert: bool) -> Response {
    let tuples: Vec<Tuple> = rows.iter().map(|r| Tuple(r.clone())).collect();
    let store = lock_store(state);
    let outcome = if insert {
        state.engine.insert_rows(table, &tuples)
    } else {
        state.engine.delete_rows(table, &tuples)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => return Response::Error(e.to_string()),
    };
    if let Some(mut store) = store {
        let record = if insert {
            WalRecord::Insert {
                table: table.to_string(),
                rows: tuples,
            }
        } else {
            WalRecord::Delete {
                table: table.to_string(),
                rows: tuples,
            }
        };
        if let Err(e) = store.log(&record) {
            // The epoch moved but the log didn't: refuse to ack, so the
            // client retries against a server that may have lost its
            // disk — never the other way around.
            return Response::Error(format!("mutation applied but not logged: {e}"));
        }
    }
    Response::Mutation(MutationResult {
        insert,
        table: table.to_string(),
        applied: outcome.applied,
        generation: outcome.generation,
        fingerprint: format!("{:016x}", outcome.fingerprint),
    })
}

/// Snapshots the current epoch and starts a fresh WAL segment. The
/// epoch is read *under* the store lock: any mutation logged before us
/// was applied before us, so the snapshot can never miss a logged
/// record that the retired WAL carried.
fn run_checkpoint(state: &ServerState) -> Response {
    let store = lock_store(state);
    let epoch = state.engine.epoch();
    let seq = match store {
        Some(mut store) => match store.checkpoint(&epoch.db) {
            Ok(seq) => seq,
            Err(e) => return Response::Error(format!("checkpoint failed: {e}")),
        },
        // No data dir: degrade to a generation/fingerprint probe.
        None => 0,
    };
    Response::Checkpoint(CheckpointResult {
        seq,
        generation: epoch.generation,
        fingerprint: format!("{:016x}", epoch.fingerprint),
    })
}

fn run_load(state: &ServerState, session: &mut Session, source: &LoadSource) -> Response {
    // The store lock spans the epoch change and the durability step,
    // like every mutation path.
    let store = lock_store(state);
    let epoch = match source {
        LoadSource::Fixture(text) => match rd_engine::parse_fixture(text) {
            Ok(db) => {
                let epoch = session.shared().replace_database(db);
                // A full replacement invalidates everything the old
                // WAL+snapshot chain described: checkpoint immediately.
                if let Some(mut store) = store {
                    if let Err(e) = store.checkpoint(&epoch.db) {
                        return Response::Error(format!("load applied but not persisted: {e}"));
                    }
                }
                epoch
            }
            Err(e) => return Response::Error(e.to_string()),
        },
        LoadSource::Csv { table, text } => match rd_engine::parse_csv(table, text) {
            // Bulk import merges into the current database, replacing a
            // same-named table — under the epoch write lock, so two
            // workers importing different tables at once both land.
            Ok(rel) => {
                let is_new = session.shared().epoch().db.relation(table).is_none();
                let schema = rel.schema().clone();
                let tuples: Vec<Tuple> = rel.iter().cloned().collect();
                let epoch = session.shared().update_database(|db| {
                    let mut db = db.clone();
                    db.add_relation(rel);
                    db
                });
                if let Some(mut store) = store {
                    // A brand-new table replays as schema + rows; a
                    // replaced table needs the full snapshot (the WAL
                    // has no "drop rows" form for what it overwrote).
                    let result = if is_new {
                        store
                            .log(&WalRecord::CreateTable { schema })
                            .and_then(|()| {
                                store.log(&WalRecord::Insert {
                                    table: table.clone(),
                                    rows: tuples,
                                })
                            })
                    } else {
                        store.checkpoint(&epoch.db).map(|_| ())
                    };
                    if let Err(e) = result {
                        return Response::Error(format!("load applied but not persisted: {e}"));
                    }
                }
                epoch
            }
            Err(e) => return Response::Error(e.to_string()),
        },
    };
    Response::Load(LoadResult {
        tables: epoch.db.len(),
        tuples: epoch.db.total_tuples(),
        generation: epoch.generation,
        fingerprint: format!("{:016x}", epoch.fingerprint),
    })
}

/// One scrape: every shard's registry, and their merge with the
/// engine's cache counters into one snapshot.
fn scrape(state: &ServerState) -> (Registry, Vec<Registry>) {
    let shards: Vec<Registry> = state.shards.iter().map(|s| s.registry().clone()).collect();
    let mut total = Registry {
        parse_cache: state.engine.parse_cache_stats(),
        eval_cache: state.engine.eval_cache_stats(),
        plan_cache: state.engine.plan_cache_stats(),
        ..Registry::default()
    };
    for shard in &shards {
        total.accumulate(shard);
    }
    (total, shards)
}

/// Builds a stats reply. Plain `stats` reports the cumulative snapshot;
/// `reset` reports the snapshot's growth since the
/// previous reset (or boot) and makes it the next window's floor.
/// Gauges (active connections, cache occupancy, generation, table and
/// tuple counts) and the per-shard breakdown, which identifies shards
/// rather than measuring a window, are never windowed.
fn collect_stats(state: &ServerState, reset: bool) -> StatsResult {
    // Held across the scrape, so concurrent resets take their snapshots
    // in the order they store them.
    let mut last_reset = reset.then(|| state.last_reset.lock().unwrap_or_else(|p| p.into_inner()));
    let (total, shards) = scrape(state);
    let shown = match &mut last_reset {
        Some(last) => {
            let window = total.since(last);
            **last = total;
            window
        }
        None => total,
    };
    let breakdown: Vec<ShardBreakdown> = state
        .shards
        .iter()
        .zip(&shards)
        .map(|(handle, r)| ShardBreakdown {
            shard: handle.id as u64,
            connections: r.connections,
            active: handle.active.load(Ordering::Relaxed),
            evicted: r.evicted,
            inline: r.inline,
        })
        .collect();
    let epoch = state.engine.epoch();
    let q = &shown.planner_q;
    StatsResult {
        connections: shown.connections,
        active_connections: breakdown.iter().map(|s| s.active).sum(),
        requests: shown.requests,
        errors: shown.errors,
        evicted: shown.evicted,
        workers: state.workers,
        sessions: shown.sessions.clone(),
        parse_cache: shown.parse_cache,
        eval_cache: shown.eval_cache,
        eval_cache_enabled: state.engine.eval_cache_enabled(),
        plan_cache: shown.plan_cache,
        plan_cache_enabled: state.engine.plan_cache_enabled(),
        generation: epoch.generation,
        fingerprint: format!("{:016x}", epoch.fingerprint),
        tables: epoch.db.len() as u64,
        tuples: epoch.db.total_tuples() as u64,
        stages: STAGE_NAMES
            .iter()
            .zip(&shown.stages)
            .map(|(name, h)| StageLatency {
                stage: name.to_string(),
                count: h.count(),
                p50: h.percentile(0.50),
                p95: h.percentile(0.95),
                p99: h.percentile(0.99),
            })
            .collect(),
        shards: breakdown,
        planner: PlannerStats {
            q_count: q.count(),
            q_p50: q.percentile(0.50),
            q_p95: q.percentile(0.95),
            q_p99: q.percentile(0.99),
        },
    }
}

/// Appends one Prometheus histogram series: cumulative `_bucket{le=…}`
/// counters (implicit `+Inf` last), `_sum`, and `_count`. `labels` is
/// the rendered label prefix, e.g. `stage="parse"` (empty for none).
fn render_histogram_series(out: &mut String, family: &str, labels: &str, h: &Histogram) {
    use std::fmt::Write;
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (le, count) in h.nonzero_buckets() {
        cumulative += count;
        let _ = writeln!(
            out,
            "{family}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
        );
    }
    let _ = writeln!(
        out,
        "{family}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        h.count()
    );
    if labels.is_empty() {
        let _ = writeln!(out, "{family}_sum {}", h.sum());
        let _ = writeln!(out, "{family}_count {}", h.count());
    } else {
        let _ = writeln!(out, "{family}_sum{{{labels}}} {}", h.sum());
        let _ = writeln!(out, "{family}_count{{{labels}}} {}", h.count());
    }
}

/// Renders one scrape — request counters, engine stages and languages,
/// the planner, per-shard reactor internals, and (with a data dir) the
/// WAL — as Prometheus-style exposition text.
fn render_metrics(state: &ServerState) -> String {
    use std::fmt::Write;
    let (total, shards) = scrape(state);
    let mut out = String::new();

    let _ = writeln!(out, "# TYPE rd_requests_total counter");
    let _ = writeln!(out, "rd_requests_total {}", total.requests);
    let _ = writeln!(out, "# TYPE rd_errors_total counter");
    let _ = writeln!(out, "rd_errors_total {}", total.errors);
    // Requests each shard's loop answered itself; everything else in
    // rd_requests_total went through that shard's pool slice.
    let _ = writeln!(out, "# TYPE rd_requests_inline_total counter");
    for (id, shard) in shards.iter().enumerate() {
        let _ = writeln!(
            out,
            "rd_requests_inline_total{{shard=\"{id}\"}} {}",
            shard.inline
        );
    }
    let _ = writeln!(out, "# TYPE rd_connections_active gauge");
    let active: u64 = state
        .shards
        .iter()
        .map(|s| s.active.load(Ordering::Relaxed))
        .sum();
    let _ = writeln!(out, "rd_connections_active {active}");

    let _ = writeln!(out, "# TYPE rd_stage_latency_micros histogram");
    for (name, h) in STAGE_NAMES.iter().zip(&total.stages) {
        let labels = format!("stage=\"{name}\"");
        render_histogram_series(&mut out, "rd_stage_latency_micros", &labels, h);
    }
    let _ = writeln!(out, "# TYPE rd_query_latency_micros histogram");
    for (language, h) in Language::ALL.iter().zip(&total.languages) {
        let labels = format!("lang=\"{}\"", language.name());
        render_histogram_series(&mut out, "rd_query_latency_micros", &labels, h);
    }
    // Estimation quality: q-error × 100 per executed query root, so
    // le="100" is the perfect-estimate bucket.
    let _ = writeln!(out, "# TYPE rd_planner_q_error_centi histogram");
    render_histogram_series(&mut out, "rd_planner_q_error_centi", "", &total.planner_q);

    // Reactor internals, one series per shard: a hot shard shows up as
    // its own loop-time tail instead of vanishing into a global merge.
    // Queue depth and pool wait describe pool dispatches only: inline
    // answers never queue for the pool.
    let mut per_shard = |family: &str, pick: fn(&Registry) -> &Histogram| {
        let _ = writeln!(out, "# TYPE {family} histogram");
        for (id, shard) in shards.iter().enumerate() {
            render_histogram_series(&mut out, family, &format!("shard=\"{id}\""), pick(shard));
        }
    };
    per_shard("rd_reactor_loop_micros", |r| &r.loop_micros);
    per_shard("rd_conn_queue_depth", |r| &r.queue_depth);
    per_shard("rd_pool_wait_micros", |r| &r.pool_wait);

    if let Some(store) = lock_store(state) {
        let _ = writeln!(out, "# TYPE rd_wal_append_micros histogram");
        render_histogram_series(
            &mut out,
            "rd_wal_append_micros",
            "",
            store.wal_append_histogram(),
        );
        let _ = writeln!(out, "# TYPE rd_wal_fsync_micros histogram");
        render_histogram_series(
            &mut out,
            "rd_wal_fsync_micros",
            "",
            store.wal_fsync_histogram(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    /// The session aggregate lives in each shard's registry, which the
    /// shard loop locks too, so a panic that poisoned it once must not
    /// turn every later fold into a panic that stops a shard loop.
    #[test]
    fn a_poisoned_session_aggregate_still_serves() {
        let server = Server::bind(ServerConfig::default(), rd_engine::demo_database()).unwrap();
        let addr = server.local_addr();
        let state = server.state.clone();
        for shard in &state.shards {
            let poisoner = shard.clone();
            let poisoned = std::thread::spawn(move || {
                let _guard = poisoner.registry.lock().unwrap();
                panic!("poison the shard registry");
            })
            .join();
            assert!(poisoned.is_err() && shard.registry.is_poisoned());
        }
        let serving = std::thread::spawn(move || server.serve());

        let mut client = Client::connect(addr).unwrap();
        for _ in 0..3 {
            let resp = client.query(Some(Language::Ra), "pi[color](Boat)").unwrap();
            assert!(matches!(resp, Response::Query(_)), "{resp:?}");
        }
        let stats = client.stats().unwrap();
        let inline: u64 = stats.shards.iter().map(|s| s.inline).sum();
        assert_eq!(inline, 2, "the repeats were answered on the shard thread");
        assert_eq!(stats.sessions.queries, 3);
        client.shutdown().unwrap();
        serving.join().unwrap().unwrap();
    }

    /// `since` is the exact inverse of `accumulate` over every counter
    /// and histogram, and windows the cache counters while keeping the
    /// cache gauges.
    #[test]
    fn registry_accumulate_since_roundtrip() {
        let resp = |language, micros, spans: &[(&'static str, u64)], q_error| {
            let mut session = Session::new(rd_engine::demo_database());
            let mut resp = session
                .run(&QueryRequest::new(Language::Ra, "pi[color](Boat)"))
                .unwrap();
            resp.language = language;
            resp.micros = micros;
            resp.spans = spans
                .iter()
                .map(|&(stage, us)| rd_core::trace::Span::new(stage, us))
                .collect();
            resp.q_error = q_error;
            resp
        };
        let mut a = Registry {
            requests: 3,
            errors: 1,
            inline: 2,
            ..Registry::default()
        };
        a.record_query(
            &resp(
                Language::Trc,
                120,
                &[("parse", 20), ("execute", 90), ("render", 4)],
                Some(1.5),
            ),
            2,
        );
        a.loop_micros.record(7);
        let mut b = Registry {
            requests: 1,
            connections: 2,
            evicted: 1,
            ..Registry::default()
        };
        b.sessions.queries = 1;
        b.record_query(&resp(Language::Sql, 45, &[("parse", 45)], None), 1);
        b.record_span("serialize", 3);
        b.pool_wait.record(11);
        let mut total = a.clone();
        total.accumulate(&b);
        assert_eq!(total.since(&a), b);
        assert_eq!(total.since(&b), a);
        assert_eq!(total.requests, 4);
        assert_eq!(total.stages[0].count(), 2, "two parse spans");
        // The session's render span and the frame shaping are one sample.
        let render = &total.stages[STAGE_NAMES.iter().position(|s| *s == "render").unwrap()];
        assert_eq!((render.count(), render.sum()), (2, 7));
        assert_eq!(total.languages.iter().map(Histogram::count).sum::<u64>(), 2);
        assert_eq!(total.planner_q.sum(), 150, "q-error is recorded in centi-q");
        // Unknown stage names are ignored, not panicked on.
        total.record_span("warp", 1);
        assert_eq!(total.histograms().map(Histogram::count).sum::<u64>(), 11);

        let cache = |hits, entries| CacheStats {
            hits,
            entries,
            ..CacheStats::default()
        };
        let earlier = Registry {
            parse_cache: cache(5, 9),
            ..Registry::default()
        };
        let now = Registry {
            parse_cache: cache(8, 4),
            ..Registry::default()
        };
        assert_eq!(now.since(&earlier).parse_cache, cache(3, 4));
    }
}
