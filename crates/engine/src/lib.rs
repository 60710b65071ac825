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
//! A [`Session`] runs against an [`rd_core::Database`] snapshot and serves
//! [`QueryRequest`]s in any of the four languages ([`Language`], with
//! [`Language::detect`] for sniffing the language from source text). The
//! response carries the canonicalized [`Artifact`], the evaluated
//! [`rd_core::Relation`], optional cross-language [`Translations`]
//! (TRC as the hub), and an optional Relational Diagram rendering.
//!
//! Repeated-query traffic is the expected production shape, so the
//! session runs every request through three capacity-bounded LRU caches:
//!
//! * the **parse cache**, keyed by the query text up to whitespace
//!   layout — hits skip lexing, parsing, checking, and canonicalization;
//! * the **result cache**, keyed by the *canonical* text — hits skip
//!   evaluation entirely;
//! * the **plan cache**, under the same key — a result-cache miss still
//!   skips compiling the plan.
//!
//! Every key carries the epoch's *base* (the generation of the last
//! full database replacement), and every plan or result entry records
//! the generations of the relations its plan scans, so a delta mutation
//! invalidates exactly the entries that read what it touched.
//! [`SessionStats`] surfaces the per-session hit/miss/eviction counters.
//!
//! The caches, plus the database snapshot itself, live in an
//! [`EngineShared`] (module [`shared`]): a lock-striped, `Arc`-shareable
//! bundle. [`Session::new`] wraps a private instance; a concurrent
//! service (the `rd-server` shard threads) attaches many per-connection
//! sessions to one shared instance with [`Session::attach`], so they all
//! share one set of caches. Replacing the database installs a new
//! [`DbEpoch`] with a bumped generation — in-flight queries keep their
//! consistent snapshot, and stale entries can never be served again.
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
//! The `rd` binary (crate `rd-server`) drives the session from the
//! command line (one-shot and `--repl`) and serves it over TCP.

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
pub use session::{Session, SessionStats};
pub use shared::{
    CacheStats, DbEpoch, EngineShared, MutationOutcome, ShardedCache, SharedConfig, STAGE_NAMES,
};
