//! The TCP query service: a sharded reactor of run-to-completion
//! threads — one acceptor thread routing sockets to N shards, each a
//! small set of symmetric threads sharing one `epoll` instance and
//! answering every request on the thread that read it.
//!
//! ```text
//!             ┌─ acceptor: poll(2) on {listener, waker} ─┐
//!   accept ──▶│  route least-loaded ──▶ register with    │
//!             │                         the shard's epoll│
//!             └───────────┬──────────────────┬───────────┘
//!             ┌─ shard 0 ─▼────────┐ ┌─ shard 1 ─▼───────┐
//!             │ one epoll instance │ │ one epoll instance│  × N
//!             │ conn table         │ │ conn table        │
//!             │ threads (w/N): two │ │ threads (w/N): two│
//!             │ wait, rest park    │ │ wait, rest park   │
//!             └────────────────────┘ └───────────────────┘
//!
//!   per ready connection, on one thread:
//!     read ─▶ frame ─▶ decode ─▶ answer each line in order ─▶ flush ─▶ re-arm
//! ```
//!
//! Connections are registered `EPOLLONESHOT`, so a readiness goes to
//! exactly one of the shard's threads, which owns the connection until
//! it re-arms it. That thread reads, decodes, answers every pending line
//! in order — cache hits, misses, mutations and control requests alike
//! — writes the replies itself, and re-arms. Nothing crosses a thread
//! boundary on the request path, and there is one path. At most two
//! idle threads wait on a shard's epoll instance; the others park until
//! both are busy. A long query ties up only the thread running it; the
//! shard's other threads keep serving its other connections. Thread
//! count bounds concurrent evaluations, not clients: an idle connection
//! costs one epoll registration, and per-wakeup work scales with
//! readiness, not with the connection count. The idle-eviction scan runs only when its
//! computed deadline fires. Only the engine, the durable store, and each
//! shard's connection table are shared. Shutdown broadcasts to the
//! acceptor and every shard, with one global drain deadline; `--shards
//! 1` puts every thread on one epoll instance.
//!
//! Each shard keeps its own `Registry` — request and connection
//! counters, the folded session counters, and every latency histogram —
//! behind that shard's own lock. Sessions record nothing: they return
//! their spans, total time and root q-error on the response, and the
//! thread that answered records those, plus its own `render` and
//! `serialize` timings, into its shard's registry, folding in and
//! zeroing the session's counter growth as it goes. A `stats` or
//! `metrics` scrape merges the shard registries with the engine's cache
//! counters into one snapshot and renders it; `stats reset` renders the
//! snapshot's growth since the previous reset.

use crate::conn::{Conn, ReadOutcome};
use crate::protocol::{
    self, CheckpointResult, LoadResult, LoadSource, MetricsResult, MutationResult, PlannerStats,
    QueryResult, Request, RequestId, Response, ShardBreakdown, StageLatency, StatsResult,
};
use crate::reactor::{
    self, Epoll, EpollEvent, PollFd, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLONESHOT, EPOLLOUT,
    POLLIN,
};
use rd_core::trace::Histogram;
use rd_core::{Database, Tuple, Value};
use rd_engine::{
    CacheStats, DiagramFormat, EngineShared, Language, QueryRequest, QueryResponse, Session,
    SessionStats, SharedConfig, STAGE_NAMES,
};
use rd_store::{Store, WalRecord};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
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
    /// Request-serving threads: the number of requests evaluating at
    /// once. Connections are multiplexed over them and are *not*
    /// bounded by this. The threads are divided among the shards (each
    /// shard gets at least one).
    pub workers: usize,
    /// Shards: each has its own epoll instance, connection table, and
    /// slice of the `workers` threads. `0` means one shard per available
    /// core; `1` puts every thread on one epoll instance.
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

/// Server-level shared state: the configuration, the engine, the
/// durable store, and the shards.
struct ServerState {
    config: ServerConfig,
    engine: Arc<EngineShared>,
    shutdown: AtomicBool,
    /// The write-ahead log + snapshot store (`--data-dir`). The mutex
    /// serializes durable mutations so WAL order equals apply order;
    /// `None` means the server runs purely in memory.
    store: Option<Mutex<Store>>,
    /// The shards. Stats and metrics replies merge across these.
    shards: Vec<Arc<Shard>>,
    /// Interrupts the acceptor's `poll` (shutdown broadcast).
    accept_waker: Waker,
    /// Set once by [`ServerState::begin_shutdown`]; every shard drains
    /// against this one global deadline.
    drain_deadline: Mutex<Option<Instant>>,
    /// The merged snapshot the last `stats reset` reported; the next
    /// reset reports growth since here.
    last_reset: Mutex<Registry>,
}

/// Everything the server counts and times, as plain data. Each shard
/// owns one behind its own lock, written by that shard's threads and by
/// the acceptor (once per routed socket); a scrape merges them with
/// [`accumulate`](Registry::accumulate) into one snapshot, and `stats
/// reset` reports [`since`](Registry::since) the previous reset's
/// snapshot. Histograms are recorded only with
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
    /// Requests answered without parsing or evaluating anything: pings,
    /// and queries that hit both the parse and the result cache.
    inline: u64,
    /// Session counters, folded in after each request.
    sessions: SessionStats,
    /// Per-stage latency (µs), parallel to [`STAGE_NAMES`].
    stages: [Histogram; STAGE_NAMES.len()],
    /// Whole-query latency (µs) per language, parallel to
    /// [`Language::ALL`].
    languages: [Histogram; Language::ALL.len()],
    /// The root q-error of each executed query, in centi-q (`q × 100`,
    /// so a perfect estimate records 100).
    planner_q: Histogram,
    /// Time a shard thread spends on one wakeup (its connection's whole
    /// turn: read, answer, write, re-arm), µs.
    loop_micros: Histogram,
    /// Pending request lines on a connection when a thread begins
    /// answering them.
    queue_depth: Histogram,
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
        ])
    }

    fn histograms_mut(&mut self) -> impl Iterator<Item = &mut Histogram> {
        self.stages.iter_mut().chain(&mut self.languages).chain([
            &mut self.planner_q,
            &mut self.loop_micros,
            &mut self.queue_depth,
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

    /// Records a reply's `serialize` span, if it was timed.
    fn record_serialize(&mut self, micros: Option<u64>) {
        if let Some(micros) = micros {
            self.record_span("serialize", micros);
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
    /// deadline, then wakes the acceptor and every shard so all threads
    /// observe the flag promptly.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            *lock(&self.drain_deadline) = Some(Instant::now() + self.config.drain_timeout);
            self.accept_waker.wake();
            for shard in &self.shards {
                shard.waker.wake();
                // Under the lock: a thread about to park sees the flag
                // or is already waiting for this.
                let _threads = lock(&shard.threads);
                shard.unpark.notify_all();
            }
        }
    }

    fn drain_deadline(&self) -> Option<Instant> {
        *lock(&self.drain_deadline)
    }
}

/// Locks `m`, surviving a poisoned mutex: request handlers run under
/// `catch_unwind`, and every other update under these locks leaves the
/// data valid at each step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn elapsed_micros(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Milliseconds until `deadline`, rounded up, as an `epoll_wait`
/// timeout.
fn millis_until(deadline: Instant) -> i32 {
    let ms = deadline
        .saturating_duration_since(Instant::now())
        .as_millis()
        + 1;
    ms.min(i32::MAX as u128) as i32
}

/// One connection as the shard's threads share it.
type ConnCell = Arc<Mutex<Conn<TcpStream>>>;

/// The epoll token reserved for the shard's own waker pipe.
const WAKER_TOKEN: u64 = u64::MAX;

/// Request lines one connection's turn answers before it yields its
/// thread (a deeper pipeline is re-armed and finished on later turns).
const MAX_BATCH: usize = 64;

/// How many of a shard's idle threads wait on its epoll instance; the
/// others park until every waiting thread is busy. Two: one takes the
/// next readiness, the other stands by, so a long turn never stalls the
/// shard and the steady state wakes no parked thread. Capping it keeps
/// a lock-step connection on one or two threads instead of wandering
/// over all of them (see [`one_malloc_arena`] for what that cost in
/// memory before every thread shared one arena).
const POLLERS: usize = 2;

/// Where a shard's threads are: `awake` ones wait on the epoll instance
/// or run a turn (`busy` of them are still answering), the rest are
/// parked on [`Shard::unpark`].
#[derive(Default)]
struct Threads {
    awake: usize,
    busy: usize,
    parked: usize,
    /// Unparks granted but not yet taken (guards spurious wakeups).
    unparks: usize,
}

/// One turn's place in the shard's `busy` count: from taking a
/// readiness until the replies are ready to write. It ends before the
/// write, since the write is what wakes a lock-step client, and a thread
/// that was preempted there must not look busy to the next turn.
struct Turn<'a> {
    shard: &'a Shard,
    open: bool,
}

impl Turn<'_> {
    fn end(&mut self) {
        if std::mem::take(&mut self.open) {
            lock(&self.shard.threads).busy -= 1;
        }
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.end();
    }
}

/// One shard: an epoll instance its threads wait on, the connection
/// table, and the shard's registry. The acceptor registers
/// new sockets here directly; the shard's threads do everything else.
struct Shard {
    id: usize,
    epoll: Epoll,
    /// Interrupts the threads' waits at shutdown. Registered one-shot
    /// and never drained: each thread that takes the wake passes it on
    /// by re-arming it, and the last one drains the shard.
    waker: Waker,
    /// Open connections by token. Nothing locks a connection while
    /// holding this lock (closing takes it under the connection's).
    conns: Mutex<HashMap<u64, ConnCell>>,
    next_token: AtomicU64,
    /// Currently-open connections (incremented at routing time). The
    /// acceptor routes on it, so it stays an atomic.
    active: AtomicU64,
    /// The shard's threads that have not yet left at shutdown.
    live: AtomicUsize,
    threads: Mutex<Threads>,
    /// Wakes a parked thread (one when a turn leaves no thread waiting
    /// on the epoll instance, all at shutdown).
    unpark: Condvar,
    /// The earliest instant some quiet connection could become
    /// evictable. The O(n) idle scan runs only when this fires, and
    /// only on one thread at a time (whoever holds this lock).
    next_idle_scan: Mutex<Option<Instant>>,
    /// Everything this shard counts and times.
    registry: Mutex<Registry>,
}

impl Shard {
    fn new(id: usize) -> std::io::Result<Shard> {
        let epoll = Epoll::new()?;
        let waker = Waker::new()?;
        epoll.add(waker.read_fd(), EPOLLIN | EPOLLONESHOT, WAKER_TOKEN)?;
        Ok(Shard {
            id,
            epoll,
            waker,
            conns: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
            active: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            threads: Mutex::new(Threads::default()),
            unpark: Condvar::new(),
            next_idle_scan: Mutex::new(None),
            registry: Mutex::new(Registry::default()),
        })
    }

    /// Locks this shard's registry, surviving a poisoned mutex.
    fn registry(&self) -> MutexGuard<'_, Registry> {
        lock(&self.registry)
    }

    /// Records into this shard's registry and folds in (then zeroes)
    /// the session's counter growth, so every request is recorded once,
    /// by the thread that answered it.
    fn record(&self, session: &mut Session, f: impl FnOnce(&mut Registry)) {
        let mut rec = self.registry();
        f(&mut rec);
        rec.sessions.accumulate(session.stats());
        drop(rec);
        session.reset_stats();
    }

    /// A snapshot of the open connections (the table lock is released
    /// before any connection is locked).
    fn conns(&self) -> Vec<(u64, ConnCell)> {
        lock(&self.conns)
            .iter()
            .map(|(token, cell)| (*token, cell.clone()))
            .collect()
    }

    /// Registers one routed socket (called on the acceptor thread).
    fn adopt(&self, state: &ServerState, stream: TcpStream) {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let fd = stream.as_raw_fd();
        let conn = Conn::new(token, stream, Session::attach(state.engine.clone()));
        // In the table before it is armed, so its first event finds it.
        lock(&self.conns).insert(token, Arc::new(Mutex::new(conn)));
        if self.epoll.add(fd, EPOLLIN | EPOLLONESHOT, token).is_err() {
            lock(&self.conns).remove(&token);
            self.active.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        if state.shutdown.load(Ordering::SeqCst) {
            // Accepted before shutdown, registered while the shard
            // drains: `EPOLLOUT` fires at once, so the draining thread
            // closes it instead of waiting for bytes that may never come.
            let _ = self
                .epoll
                .modify(fd, EPOLLIN | EPOLLOUT | EPOLLONESHOT, token);
        }
    }

    /// Deregisters and drops a connection the caller holds locked. Its
    /// socket closes once the last thread holding it lets go.
    fn close(&self, conn: &mut Conn<TcpStream>) {
        if conn.closed {
            return;
        }
        conn.closed = true;
        lock(&self.conns).remove(&conn.token);
        // Failure is harmless: closing the fd deregisters it anyway.
        let _ = self.epoll.delete(conn.stream().as_raw_fd());
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// How long a thread may wait: forever, unless an idle scan is due.
    fn wait_timeout(&self, state: &ServerState) -> i32 {
        self.next_scan(state).map_or(-1, millis_until)
    }

    /// When the idle scan is next due (`None`: no idle timeout, or no
    /// quiet connection to evict).
    fn next_scan(&self, state: &ServerState) -> Option<Instant> {
        state.config.idle_timeout?;
        *lock(&self.next_idle_scan)
    }

    /// One thread of the shard: take one ready connection at a time and
    /// run its turn to completion, until shutdown. The event buffer holds
    /// one entry, so a thread never sits on readiness another idle
    /// thread could be serving.
    fn run(&self, state: &ServerState) -> std::io::Result<()> {
        let mut events = [EpollEvent::zeroed()];
        lock(&self.threads).awake += 1;
        if !self.rest(state) {
            return self.leave(state);
        }
        loop {
            let ready = match self.epoll.wait(&mut events, self.wait_timeout(state)) {
                Ok(n) => n,
                Err(e) => {
                    self.live.fetch_sub(1, Ordering::SeqCst);
                    state.begin_shutdown();
                    return Err(e);
                }
            };
            let start = state.engine.metrics_enabled().then(Instant::now);
            if ready == 1 {
                let token = events[0].token();
                if token == WAKER_TOKEN {
                    // Shutdown. Pass the wake on (the pipe stays
                    // readable) to the next waiting thread, and leave.
                    let fd = self.waker.read_fd();
                    self.epoll.modify(fd, EPOLLIN | EPOLLONESHOT, WAKER_TOKEN)?;
                    return self.leave(state);
                }
                let mut turn = self.take();
                self.serve(state, token, events[0].events(), Some(&mut turn));
            }
            self.maybe_evict_idle(state);
            if let Some(t) = start {
                self.registry().loop_micros.record(elapsed_micros(t));
            }
            if ready == 1 && !self.rest(state) {
                return self.leave(state);
            }
        }
    }

    /// Starts a turn. If every awake thread is now answering, a parked
    /// one is woken to wait on the epoll instance in its place.
    fn take(&self) -> Turn<'_> {
        let mut threads = lock(&self.threads);
        threads.busy += 1;
        if threads.busy == threads.awake && threads.parked > 0 {
            threads.parked -= 1;
            threads.unparks += 1;
            threads.awake += 1;
            self.unpark.notify_one();
        }
        Turn {
            shard: self,
            open: true,
        }
    }

    /// Between turns: this thread goes back to the epoll instance unless
    /// more than [`POLLERS`] awake threads would be waiting there, in
    /// which case it parks until a turn needs it. A parked thread still
    /// wakes for the idle scan: the deadline it set in its last turn may
    /// be one no waiting thread has seen. Returns `false` when shutdown
    /// ended the park.
    fn rest(&self, state: &ServerState) -> bool {
        let mut threads = lock(&self.threads);
        if threads.awake - threads.busy <= POLLERS {
            return true;
        }
        threads.awake -= 1;
        threads.parked += 1;
        loop {
            if state.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            if threads.unparks > 0 {
                // Counted as awake by the thread that unparked it.
                threads.unparks -= 1;
                return true;
            }
            let Some(at) = self.next_scan(state) else {
                threads = self.unpark.wait(threads).unwrap_or_else(|p| p.into_inner());
                continue;
            };
            let wait = at.saturating_duration_since(Instant::now());
            let (guard, waited) = self
                .unpark
                .wait_timeout(threads, wait)
                .unwrap_or_else(|p| p.into_inner());
            threads = guard;
            if waited.timed_out() {
                drop(threads);
                self.maybe_evict_idle(state);
                threads = lock(&self.threads);
            }
        }
    }

    /// Leaves at shutdown; the shard's last thread drains it first. A
    /// thread leaves between turns, owning no connection.
    fn leave(&self, state: &ServerState) -> std::io::Result<()> {
        if self.live.fetch_sub(1, Ordering::SeqCst) > 1 {
            return Ok(());
        }
        self.drain(state)
    }

    /// The shard's last thread at shutdown: every other one has left, so
    /// no connection is mid-turn. Each connection finishes what it
    /// already read (it reads nothing new) and closes; stragglers are
    /// force-closed at the global drain deadline.
    fn drain(&self, state: &ServerState) -> std::io::Result<()> {
        for (token, _) in self.conns() {
            self.serve(state, token, 0, None);
        }
        let deadline = state
            .drain_deadline()
            .expect("the deadline is set before any shard is woken");
        let mut events = [EpollEvent::zeroed()];
        loop {
            if lock(&self.conns).is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                for (_, cell) in self.conns() {
                    self.close(&mut lock(&cell));
                }
                return Ok(());
            }
            let ready = self.epoll.wait(&mut events, millis_until(deadline))?;
            if ready == 1 && events[0].token() != WAKER_TOKEN {
                self.serve(state, events[0].token(), events[0].events(), None);
            }
        }
    }

    /// One connection's turn, on the thread that took its readiness:
    /// flush, read and frame, answer every pending line in order (up to
    /// [`MAX_BATCH`]), write the replies, then close or re-arm.
    fn serve(&self, state: &ServerState, token: u64, events: u32, turn: Option<&mut Turn>) {
        let Some(cell) = lock(&self.conns).get(&token).cloned() else {
            return;
        };
        let mut conn = lock(&cell);
        if conn.closed {
            return;
        }
        if events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0
            && conn.has_backlog()
            && conn.flush().is_err()
        {
            self.close(&mut conn);
            return;
        }
        if state.shutdown.load(Ordering::SeqCst) {
            // Finish what was already read; read nothing new.
            conn.read_closed = true;
        }
        if events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 && !self.read(state, &mut conn) {
            self.close(&mut conn);
            return;
        }
        if self.answer(state, &mut conn) {
            state.begin_shutdown();
            conn.read_closed = true;
        }
        if let Some(turn) = turn {
            turn.end();
        }
        // Most replies fit the socket buffer: write them now rather than
        // waiting for an `EPOLLOUT` round.
        if conn.has_backlog() && conn.flush().is_err() {
            self.close(&mut conn);
            return;
        }
        let finished = conn.read_closed && conn.is_quiet();
        let aborted = conn.fatal && !conn.has_backlog();
        if finished || aborted {
            self.close(&mut conn);
            return;
        }
        if let Some(idle) = state.config.idle_timeout {
            if conn.is_quiet() && !conn.read_closed {
                let evict_at = conn.last_activity + idle;
                let mut next = lock(&self.next_idle_scan);
                *next = Some(next.map_or(evict_at, |d| d.min(evict_at)));
            }
        }
        // Re-arm, last: from here another thread may take the
        // connection. `EPOLLOUT` fires at once on a writable socket, so a
        // connection with lines still pending comes back for another
        // turn behind whatever else is ready.
        let mut want = EPOLLONESHOT;
        if conn.wants_read() {
            want |= EPOLLIN;
        }
        if conn.has_backlog() || (!conn.fatal && !conn.pending.is_empty()) {
            want |= EPOLLOUT;
        }
        if self
            .epoll
            .modify(conn.stream().as_raw_fd(), want, token)
            .is_err()
        {
            // Disarmed for good: nothing would ever serve it again.
            self.close(&mut conn);
        }
    }

    /// Reads available bytes and frames them into pending lines. An
    /// oversized line gets an error frame and a fatal close. Returns
    /// `false` when the socket is dead.
    fn read(&self, state: &ServerState, conn: &mut Conn<TcpStream>) -> bool {
        if conn.read_closed {
            // Draining, or EOF already seen: an EPOLLHUP must not grow
            // the pipeline with requests we promised not to read.
            return true;
        }
        let outcome = conn.fill();
        if outcome == ReadOutcome::Dead {
            return false;
        }
        let max_line_bytes = state.config.max_line_bytes;
        loop {
            match conn.next_line(max_line_bytes) {
                Ok(Some(line)) => {
                    if !line.trim().is_empty() {
                        conn.pending.push_back(line);
                    }
                }
                Ok(None) => break,
                Err(_overflow) => {
                    let mut registry = self.registry();
                    registry.requests += 1;
                    registry.errors += 1;
                    drop(registry);
                    conn.queue(&error_line(format!(
                        "request line exceeds {max_line_bytes} bytes"
                    )));
                    // The stream cannot resync mid-line: stop reading,
                    // drop pending work, close once the error flushes.
                    conn.read_closed = true;
                    conn.fatal = true;
                    conn.pending.clear();
                    return true;
                }
            }
        }
        // A half-closing client's last request may lack the trailing
        // newline; EOF is its delimiter.
        if outcome == ReadOutcome::Eof {
            if let Some(line) = conn.take_final_line() {
                if !line.trim().is_empty() {
                    conn.pending.push_back(line);
                }
            }
        }
        true
    }

    /// Answers up to [`MAX_BATCH`] of the connection's pending lines in
    /// order, queueing each reply. Returns whether one of them asked the
    /// server to shut down.
    fn answer(&self, state: &ServerState, conn: &mut Conn<TcpStream>) -> bool {
        if conn.fatal || conn.pending.is_empty() {
            return false;
        }
        let depth = conn.pending.len();
        if state.engine.metrics_enabled() {
            self.registry().queue_depth.record(depth as u64);
        }
        let mut shutdown = false;
        for _ in 0..depth.min(MAX_BATCH) {
            let line = conn.pending.pop_front().expect("within the pending depth");
            let decoded = protocol::decode_request_line(line.trim());
            let (bytes, stop) = run_line(state, self, &mut conn.session, decoded);
            conn.queue(&bytes);
            shutdown |= stop;
        }
        shutdown
    }

    /// Runs the O(n) idle scan — but only when the precomputed deadline
    /// has fired, and on one thread at a time. Evicts every overdue
    /// quiet connection and recomputes the deadline from the survivors;
    /// a connection mid-turn is not idle and is skipped (its thread
    /// re-enters it when the turn ends).
    fn maybe_evict_idle(&self, state: &ServerState) {
        let Some(idle) = state.config.idle_timeout else {
            return;
        };
        let mut next_scan = match self.next_idle_scan.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        let now = Instant::now();
        if !next_scan.is_some_and(|at| now >= at) {
            return;
        }
        let mut next: Option<Instant> = None;
        let mut evicted = 0;
        for (_, cell) in self.conns() {
            let mut conn = match cell.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => continue,
            };
            if conn.closed || !conn.is_quiet() || conn.read_closed {
                continue;
            }
            let evict_at = conn.last_activity + idle;
            if now >= evict_at {
                self.close(&mut conn);
                evicted += 1;
            } else {
                next = Some(next.map_or(evict_at, |d| d.min(evict_at)));
            }
        }
        *next_scan = next;
        drop(next_scan);
        self.registry().evicted += evicted;
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
            .map(|id| Shard::new(id).map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        let state = Arc::new(ServerState {
            config,
            engine,
            shutdown: AtomicBool::new(false),
            store,
            shards,
            accept_waker: Waker::new()?,
            drain_deadline: Mutex::new(None),
            last_reset: Mutex::new(Registry::default()),
        });
        Ok(Server { listener, state })
    }

    /// The address actually bound (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// The shared engine state (exposed for embedding and tests).
    pub fn engine(&self) -> Arc<EngineShared> {
        self.state.engine.clone()
    }

    /// The number of shards this server runs (resolved from
    /// [`ServerConfig::shards`]; `0` meant one per available core).
    pub fn shard_count(&self) -> usize {
        self.state.shards.len()
    }

    /// Serves until a client sends `{"op":"shutdown"}`. Blocking; run it
    /// on its own thread if the caller needs to keep working. The
    /// calling thread becomes the acceptor; each shard runs its slice of
    /// [`ServerConfig::workers`] threads. Shutdown stops accepting,
    /// drains in-flight connections on every shard up to
    /// [`ServerConfig::drain_timeout`], then returns.
    pub fn serve(self) -> std::io::Result<()> {
        let Server { listener, state } = self;
        listener.set_nonblocking(true)?;
        one_malloc_arena();
        let nshards = state.shards.len();
        let workers = state.config.workers.max(1);
        let mut threads: Vec<std::thread::JoinHandle<std::io::Result<()>>> = Vec::new();
        for shard in &state.shards {
            // workers/n threads each, the remainder spread over the
            // first shards, never below one.
            let width = (workers / nshards + usize::from(shard.id < workers % nshards)).max(1);
            shard.live.store(width, Ordering::SeqCst);
            for i in 0..width {
                let (state, shard) = (state.clone(), shard.clone());
                let thread = std::thread::Builder::new()
                    .name(format!("rd-shard-{}-{i}", shard.id))
                    .spawn(move || shard.run(&state))
                    .expect("spawn shard thread");
                threads.push(thread);
            }
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
                Err(_) => shard_result = Err(std::io::Error::other("shard thread panicked")),
            }
        }
        result.and(shard_result)
    }
}

/// Makes every thread allocate from glibc's one main malloc arena
/// (`M_ARENA_MAX` = 1) instead of an arena per thread. A connection's
/// requests land on whichever of its shard's threads takes the
/// readiness, and each thread kept the results it cached in its own
/// arena, so peak RSS depended on how the scheduler interleaved the
/// threads: `cold_analytic` (one lock-step client, 2-vCPU VM) peaked at
/// 18.0–19.5 MB from run to run, and lower the more the host was
/// loaded. With one arena the heap follows the request sequence alone:
/// 14.6–14.7 MB under the same load. Small allocations still come from
/// each thread's own cache without taking the arena lock. Process-wide,
/// and it bounds only arenas created later, so it runs before the shard
/// threads start.
fn one_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(
                param: std::os::raw::c_int,
                value: std::os::raw::c_int,
            ) -> std::os::raw::c_int;
        }
        const M_ARENA_MAX: std::os::raw::c_int = -8;
        // Returns 0 only for an unknown parameter; nothing to do then.
        unsafe { mallopt(M_ARENA_MAX, 1) };
    }
}

/// The acceptor: a two-fd `poll` loop (shutdown waker + listener) that
/// routes each accepted socket to the least-loaded shard. This is the
/// only cross-shard decision on the connection path, and it happens
/// once per connection — never per request.
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
                shard.registry().connections += 1;
                shard.active.fetch_add(1, Ordering::Relaxed);
                shard.adopt(state, stream);
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
fn route<'a>(shards: &'a [Arc<Shard>], rotate: &mut usize) -> &'a Arc<Shard> {
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

/// One decoded request line: its id (if any) and the request, or the
/// decode error to answer with (see [`protocol::decode_request_line`]).
type Decoded = Result<(Option<RequestId>, Request), (Option<RequestId>, String)>;

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

/// One encoded, newline-terminated error frame (no request id — used
/// where the id is unknown or the failure is not tied to one request).
fn error_line(message: String) -> Vec<u8> {
    let mut bytes = protocol::encode(&Response::Error(message)).into_bytes();
    bytes.push(b'\n');
    bytes
}

/// The error a panicked request handler is answered with.
const PANIC_MESSAGE: &str = "internal error: request handler panicked";

/// Answers one decoded request — evaluate, frame (single response or
/// chunked stream), encode — and records it in the shard's registry.
/// A panicking handler is answered with an id-less error frame, so it
/// costs its thread nothing. Returns the encoded frames and whether the
/// server should begin shutdown.
fn run_line(
    state: &ServerState,
    shard: &Shard,
    session: &mut Session,
    decoded: Decoded,
) -> (Vec<u8>, bool) {
    let (id, request) = match decoded {
        Ok((id, request)) => (id, Ok(request)),
        Err((id, e)) => (id, Err(e)),
    };
    let control = matches!(&request, Ok(r) if !matches!(r, Request::Query { .. }));
    if control {
        // Counted, with the session's growth, before it runs: a `stats`
        // or `metrics` scrape counts itself and everything before it.
        shard.record(session, |rec| rec.requests += 1);
    }
    let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match request {
        Err(e) => (vec![Response::Error(e)], None, false),
        Ok(Request::Query {
            language,
            text,
            translations,
            diagram,
        }) => {
            let req = query_request(language, text, translations, diagram);
            match session.run(&req) {
                Ok(resp) => {
                    let (frames, shaping) = query_frames(state, session, &resp);
                    (frames, Some((resp, shaping)), false)
                }
                Err(e) => (vec![Response::Error(e.to_string())], None, false),
            }
        }
        Ok(request) => {
            let (response, shutdown) = handle_control(&request, session, state);
            (vec![response], None, shutdown)
        }
    }));
    let (id, frames, answered, shutdown) = match handled {
        Ok((frames, answered, shutdown)) => (id, frames, answered, shutdown),
        Err(_) => (
            None,
            vec![Response::Error(PANIC_MESSAGE.into())],
            None,
            false,
        ),
    };
    let (bytes, serialize) = encode_reply(state, id.as_ref(), &frames);
    shard.record(session, |rec| {
        rec.requests += u64::from(!control);
        if frames.iter().any(|f| matches!(f, Response::Error(_))) {
            rec.errors += 1;
        }
        if let Some((resp, shaping)) = &answered {
            rec.inline += u64::from(resp.cache_hit && resp.eval_cache_hit);
            if let Some(shaping) = shaping {
                rec.record_query(resp, *shaping);
            }
        }
        rec.inline += u64::from(matches!(frames[..], [Response::Pong]));
        rec.record_serialize(serialize);
    });
    (bytes, shutdown)
}

/// Encodes one request's reply frames, newline-terminated, echoing
/// `id`. Returns the bytes and, with metrics on, the µs it took (the
/// `serialize` stage).
fn encode_reply(
    state: &ServerState,
    id: Option<&RequestId>,
    frames: &[Response],
) -> (Vec<u8>, Option<u64>) {
    let serialize_start = state.engine.metrics_enabled().then(Instant::now);
    let mut bytes = Vec::new();
    for frame in frames {
        bytes.extend_from_slice(protocol::encode_frame(frame, id).as_bytes());
        bytes.push(b'\n');
    }
    (bytes, serialize_start.map(elapsed_micros))
}

/// Dispatches one decoded non-query request. Returns the response and
/// whether the server should shut down afterwards.
fn handle_control(
    request: &Request,
    session: &mut Session,
    state: &ServerState,
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
        Request::Stats { reset } => (Response::Stats(collect_stats(state, *reset)), false),
        Request::Metrics => {
            let text = render_metrics(state);
            (Response::Metrics(MetricsResult { text }), false)
        }
        Request::Ping => (Response::Pong, false),
        Request::Shutdown => (Response::Bye, true),
    }
}

/// Frames one evaluated query: writes the slow-query log line (if due),
/// then builds one `Response::Query` when the result fits, or
/// `rows-chunk` frames + `rows-end` when the row count exceeds the
/// stream threshold (`0` never streams). Returns the frames and, with
/// metrics on, the µs spent shaping them (the server's `render` share).
fn query_frames(
    state: &ServerState,
    session: &mut Session,
    resp: &QueryResponse,
) -> (Vec<Response>, Option<u64>) {
    if let Some(threshold) = state.config.slow_query_log {
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
    // materialization, translation pairs, stream chunking). Timed like
    // `serialize` in `encode_reply`, so every stage records per request.
    let render_start = state.engine.metrics_enabled().then(Instant::now);
    let stream_threshold = state.config.stream_threshold;
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
    (frames, render_start.map(elapsed_micros))
}

/// Locks the store (when one is configured), surviving poisoning. Held
/// across apply + log so WAL order always equals apply order.
fn lock_store(state: &ServerState) -> Option<MutexGuard<'_, Store>> {
    state.store.as_ref().map(lock)
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
    let mut last_reset = reset.then(|| lock(&state.last_reset));
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
        workers: state.config.workers.max(1) as u64,
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
    // Requests each shard answered without parsing or evaluating: pings
    // and queries that hit both the parse and the result cache.
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
    // its own per-wakeup time tail instead of vanishing into a global
    // merge. Queue depth is the pipeline a thread found on a connection
    // when it began answering it.
    let mut per_shard = |family: &str, pick: fn(&Registry) -> &Histogram| {
        let _ = writeln!(out, "# TYPE {family} histogram");
        for (id, shard) in shards.iter().enumerate() {
            render_histogram_series(&mut out, family, &format!("shard=\"{id}\""), pick(shard));
        }
    };
    per_shard("rd_reactor_loop_micros", |r| &r.loop_micros);
    per_shard("rd_conn_queue_depth", |r| &r.queue_depth);

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

    /// The session aggregate lives in each shard's registry, which every
    /// shard thread locks, so a panic that poisoned it once must not
    /// turn every later fold into a panic that stops a shard thread.
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
        assert_eq!(inline, 2, "the repeats were answered from the caches");
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
        b.queue_depth.record(11);
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
