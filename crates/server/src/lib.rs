//! # rd-server — a concurrent query service over the engine
//!
//! The paper's claim is that one pattern-preserving representation can
//! serve four query languages; `rd-engine` wired that into a synchronous
//! [`Session`](rd_engine::Session). This crate puts that session behind
//! a socket, served by a few threads per shard, so the engine can serve
//! concurrent traffic:
//!
//! ```text
//!                 ┌──────────────────── rd-server ───────────────────┐
//! client ── TCP ─▶│ acceptor ─▶ shard 0: epoll + its threads         │
//! client ── TCP ─▶│     │   └─▶ shard 1: epoll + its threads         │
//!    ...          │     └─────▶ ...       (one shard per core)       │
//! client ── TCP ─▶│                  │                               │
//! (tens of        │        ┌─ EngineShared (Arc) ────────────┐       │
//!  thousands)     │        │ DbEpoch (generation-stamped db) │       │
//!                 │        │ sharded parse cache             │       │
//!                 │        │ sharded eval/result cache       │       │
//!                 │        └─────────────────────────────────┘       │
//!                 └──────────────────────────────────────────────────┘
//! ```
//!
//! * **Protocol** ([`protocol`]): JSON lines over TCP — one request
//!   object per line in, one response object per line out. Query
//!   requests in any of the four languages (or auto-detected), plus
//!   `load` / `stats` / `ping` / `shutdown` control messages. Requests
//!   may carry an `"id"` for pipelining (many in flight per
//!   connection), and large results stream as `rows-chunk` /
//!   `rows-end` frames above a configurable row threshold.
//! * **Reactor** ([`reactor`], [`server`], [`conn`]): sharded
//!   run-to-completion threads — the build is offline, so no async
//!   runtime; `epoll` and `poll(2)` are reached through thin
//!   `extern "C"` bindings and everything else is nonblocking
//!   `std::net`. An acceptor thread routes each socket to the
//!   least-loaded shard. Each shard is one `epoll` instance and a slice
//!   of the `--workers` threads, all waiting on it; connections are
//!   registered one-shot, so a ready connection ([`conn::Conn`]) belongs
//!   to exactly one thread, which reads it, answers every pending
//!   request in order, writes the replies, and re-arms it. Idle
//!   connections cost one epoll registration, not a thread, so the
//!   thread count bounds concurrent *evaluations*, not clients, and a
//!   long query ties up only the thread running it. All sessions share
//!   one [`EngineShared`](rd_engine::EngineShared): repeated identical
//!   queries across *different* connections are served from the shared
//!   result cache without re-evaluating; reloading the database bumps
//!   the epoch generation, which atomically invalidates it.
//! * **Client** ([`client`]): a small blocking client — lock-step or
//!   pipelined ([`Client::send`](client::Client::send) /
//!   [`Client::recv`](client::Client::recv) with ids), reassembling
//!   streamed results transparently — used by the `rd bench-client`
//!   load driver, the integration tests, and anyone who wants to
//!   script the service. [`client::run_bench`] spawns N client threads
//!   firing a query mix (optionally pipelined, optionally alongside an
//!   idle-connection flood) and reports throughput and latency
//!   percentiles.
//!
//! The `rd` binary lives here too: `rd serve` starts the service, `rd
//! bench-client` drives load at it, and the PR-1 one-shot/REPL modes are
//! unchanged.

pub mod client;
pub mod conn;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use client::{run_bench, BenchConfig, BenchReport, Client};
pub use protocol::{
    LoadSource, MetricsResult, PlannerStats, QueryResult, Reassembler, Request, RequestId,
    Response, ShardBreakdown, StageLatency, StatsResult,
};
pub use server::{Server, ServerConfig};
