//! # rd-engine — the unified query session
//!
//! The paper's central claim is that one pattern-preserving representation
//! can sit behind four relational languages (Theorem 6). The per-language
//! crates implement the languages; this crate is the workspace's **single
//! front door** that exercises the whole pipeline:
//!
//! ```text
//!            ┌────────────────────── Session ─────────────────────┐
//! request ──▶│ parse ─▶ check ─▶ canonicalize ─▶ eval ─▶ diagram  │──▶ response
//!            │    └──── LRU parse cache ────┘      └ translations │
//!            └────────────────────────────────────────────────────┘
//! ```
//!
//! A [`Session`] owns an [`rd_core::Database`] and serves
//! [`QueryRequest`]s in any of the four languages ([`Language`], with
//! [`Language::detect`] for sniffing the language from source text). The
//! response carries the canonicalized [`Artifact`], the evaluated
//! [`rd_core::Relation`], optional cross-language [`Translations`]
//! (TRC as the hub), and an optional Relational Diagram rendering.
//!
//! Repeated-query traffic is the expected production shape, so the
//! session fronts its parsers with a capacity-bounded LRU cache keyed by
//! `(language, hash(text))` — hits skip lexing, parsing, checking, and
//! canonicalization — and its evaluator with a result cache keyed by
//! `(generation, language, hash(canonical text))` — hits skip evaluation
//! entirely. [`SessionStats`] surfaces the per-session
//! hit/miss/eviction counters.
//!
//! Both caches, plus the database snapshot itself, live in an
//! [`EngineShared`] (module [`shared`]): a lock-striped, `Arc`-shareable
//! bundle. [`Session::new`] wraps a private instance; a concurrent
//! service (the `rd-server` worker pool) attaches many
//! per-connection sessions to one shared instance with
//! [`Session::attach`], so all workers share one sharded parse cache and
//! one generation-invalidated result cache. Replacing the database
//! installs a new [`DbEpoch`] with a bumped generation — in-flight
//! queries keep their consistent snapshot, and stale result-cache
//! entries can never be served again.
//!
//! ```
//! use rd_engine::{demo_database, QueryRequest, Session};
//!
//! let mut session = Session::new(demo_database());
//! // Language detection: `{...}` is TRC.
//! let req = QueryRequest::auto(
//!     "{ q(sname) | exists s in Sailor [ q.sname = s.sname ] }");
//! let first = session.run(&req).unwrap();
//! let second = session.run(&req).unwrap();
//! assert_eq!(first.relation, second.relation);
//! assert!(!first.cache_hit);
//! assert!(second.cache_hit);
//! assert!(session.stats().cache_hits > 0);
//! ```
//!
//! The `rd` binary in this crate drives the session from the command
//! line (one-shot and `--repl`).

pub mod artifact;
pub mod cache;
pub mod fixture;
pub mod language;
pub mod request;
pub mod session;
pub mod shared;

pub use artifact::Artifact;
pub use cache::LruCache;
pub use fixture::{demo_database, parse_csv, parse_fixture, render_fixture};
pub use language::Language;
pub use request::{DiagramFormat, ExplainResponse, QueryRequest, QueryResponse, Translations};
pub use session::{Session, SessionStats, DEFAULT_CACHE_CAPACITY};
pub use shared::{
    CacheStats, DbEpoch, EngineShared, MutationOutcome, ShardedCache, SharedConfig, STAGE_NAMES,
};
