//! Compiled-plan-cache behavior: a result-cache miss still skips
//! compilation, generation invalidation on reload, cache-off agreement,
//! the explain/translate session surfaces, and the
//! `SessionStats::accumulate`/`since` parity contract for the new plan
//! counters.

use rd_engine::{
    demo_database, EngineShared, Language, QueryRequest, Session, SessionStats, SharedConfig,
};
use std::sync::Arc;

/// A session whose *result* cache is off but whose *plan* cache is on:
/// every run re-executes, so plan hits are observable in isolation.
fn plan_only_session() -> Session {
    Session::attach(Arc::new(EngineShared::with_config(
        demo_database(),
        SharedConfig {
            eval_cache: false,
            shards: 1,
            ..SharedConfig::default()
        },
    )))
}

#[test]
fn result_cache_miss_still_skips_compilation() {
    let mut session = plan_only_session();
    let req = QueryRequest::new(Language::Sql, "SELECT DISTINCT Boat.color FROM Boat");
    let first = session.run(&req).unwrap();
    assert!(!first.eval_cache_hit, "result cache is disabled");
    let second = session.run(&req).unwrap();
    assert!(!second.eval_cache_hit);
    assert_eq!(second.relation, first.relation);
    let stats = session.stats();
    assert_eq!(
        (stats.plan_misses, stats.plan_hits),
        (1, 1),
        "second run executed the cached plan without recompiling"
    );
}

#[test]
fn canonically_equal_texts_share_one_plan() {
    let mut session = plan_only_session();
    session
        .run(&QueryRequest::new(Language::Ra, "pi[color](Boat)"))
        .unwrap();
    session
        .run(&QueryRequest::new(Language::Ra, "pi[ color ]( Boat )"))
        .unwrap();
    let stats = session.stats();
    assert_eq!(stats.cache_misses, 2, "different raw texts");
    assert_eq!(
        (stats.plan_misses, stats.plan_hits),
        (1, 1),
        "the plan cache keys by canonical text"
    );
}

#[test]
fn plans_are_shared_across_attached_sessions() {
    let shared = Arc::new(EngineShared::with_config(
        demo_database(),
        SharedConfig {
            eval_cache: false,
            ..SharedConfig::default()
        },
    ));
    let mut alice = Session::attach(shared.clone());
    let mut bob = Session::attach(shared.clone());
    let req = QueryRequest::new(
        Language::Trc,
        "{ q(color) | exists b in Boat [ q.color = b.color ] }",
    );
    let first = alice.run(&req).unwrap();
    let second = bob.run(&req).unwrap();
    assert_eq!(second.relation, first.relation);
    assert_eq!(alice.stats().plan_misses, 1);
    assert_eq!(bob.stats().plan_hits, 1, "compiled once, shared");
    let cache = shared.plan_cache_stats();
    assert_eq!((cache.hits, cache.misses), (1, 1));
    assert_eq!(cache.entries, 1);
}

#[test]
fn reload_invalidates_cached_plans() {
    let mut session = plan_only_session();
    let req = QueryRequest::new(Language::Ra, "pi[color](Boat)");
    session.run(&req).unwrap();
    session.run(&req).unwrap();
    assert_eq!(session.stats().plan_hits, 1);
    // Plans bake in interned constants and scan orders; a new epoch
    // must recompile.
    session.set_database(demo_database());
    session.run(&req).unwrap();
    assert_eq!(session.stats().plan_misses, 2, "recompiled after reload");
    assert_eq!(session.stats().plan_hits, 1);
}

#[test]
fn disabled_plan_cache_recompiles_but_agrees() {
    let shared = Arc::new(EngineShared::with_config(
        demo_database(),
        SharedConfig {
            eval_cache: false,
            plan_cache: false,
            ..SharedConfig::default()
        },
    ));
    let mut session = Session::attach(shared);
    let req = QueryRequest::new(Language::Ra, "pi[color](Boat)");
    let first = session.run(&req).unwrap();
    let second = session.run(&req).unwrap();
    assert_eq!(second.relation, first.relation);
    let stats = session.stats();
    assert_eq!(
        (stats.plan_hits, stats.plan_misses),
        (0, 0),
        "disabled cache moves no plan counters"
    );
}

#[test]
fn explain_surfaces_the_compiled_plan() {
    let mut session = Session::new(demo_database());
    let explain = session
        .explain(
            Language::Trc,
            "{ q(sname) | exists s in Sailor [ q.sname = s.sname and \
               exists r in Reserves [ r.sid = s.sid ] ] }",
        )
        .unwrap();
    assert_eq!(explain.language, Language::Trc);
    assert_eq!(explain.plan.kind, "query");
    // The nested exists must be planned as a keyed probe on sid.
    fn any(
        node: &rd_core::exec::ExplainNode,
        f: &impl Fn(&rd_core::exec::ExplainNode) -> bool,
    ) -> bool {
        f(node) || node.children.iter().any(|c| any(c, f))
    }
    assert!(
        any(&explain.plan, &|n| n.detail.contains("hash probe")),
        "{:?}",
        explain.plan
    );
    assert!(
        any(&explain.plan, &|n| n.detail.contains("Sailor")),
        "{:?}",
        explain.plan
    );
    // Explaining again hits the plan cache (no recompile).
    session
        .explain(
            Language::Trc,
            "{ q(sname) | exists s in Sailor [ q.sname = s.sname and \
               exists r in Reserves [ r.sid = s.sid ] ] }",
        )
        .unwrap();
    assert_eq!(session.stats().plan_hits, 1);
    assert_eq!(session.stats().plan_misses, 1);
}

#[test]
fn explain_and_run_share_the_plan_cache() {
    let mut session = plan_only_session();
    let text = "pi[color](Boat)";
    session.explain(Language::Ra, text).unwrap();
    assert_eq!(session.stats().plan_misses, 1);
    // The subsequent evaluation reuses the explained plan.
    session.run(&QueryRequest::new(Language::Ra, text)).unwrap();
    assert_eq!(session.stats().plan_hits, 1);
}

#[test]
fn translate_maps_through_the_trc_hub() {
    let mut session = Session::new(demo_database());
    let trc = "{ q(color) | exists b in Boat [ q.color = b.color ] }";
    let sql = session
        .translate(Language::Trc, trc, Language::Sql)
        .unwrap();
    assert!(sql.contains("SELECT DISTINCT"), "{sql}");
    let datalog = session
        .translate(Language::Trc, trc, Language::Datalog)
        .unwrap();
    assert!(datalog.contains(":-"), "{datalog}");
    let ra = session.translate(Language::Trc, trc, Language::Ra).unwrap();
    assert!(ra.contains("pi["), "{ra}");
    // Round-trip through SQL: translating the translation back to TRC
    // must stay semantically equal (same evaluation result).
    let back = session
        .translate(Language::Sql, &sql, Language::Trc)
        .unwrap();
    let a = session.run(&QueryRequest::new(Language::Trc, trc)).unwrap();
    let b = session
        .run(&QueryRequest::new(Language::Trc, back))
        .unwrap();
    assert_eq!(a.relation.tuples(), b.relation.tuples());
}

#[test]
fn translate_rejects_directions_outside_the_fragment() {
    let mut session = Session::new(demo_database());
    // A 2-branch union has no single-query Datalog*/RA* translation.
    let union = "{ q(color) | exists b in Boat [ q.color = b.color ] } union \
                 { q(color) | exists b in Boat [ q.color = b.color ] }";
    let err = session
        .translate(Language::Trc, union, Language::Datalog)
        .unwrap_err();
    assert!(err.to_string().contains("union"), "{err}");
}

/// `accumulate` and `since` must stay exact inverses field-for-field —
/// the server merges per-session growth into its aggregate through
/// exactly this pair, so a field missing from either silently
/// undercounts the `stats` op (this is the regression guard for the new
/// plan counters).
#[test]
fn session_stats_accumulate_and_since_are_inverses() {
    // Every field distinct and nonzero, so a dropped field is caught.
    let earlier = SessionStats {
        queries: 1,
        batches: 2,
        cache_hits: 3,
        cache_misses: 4,
        cache_evictions: 5,
        eval_hits: 6,
        eval_misses: 7,
        eval_evictions: 8,
        eval_skipped: 9,
        plan_hits: 10,
        plan_misses: 11,
        plan_evictions: 12,
        delta_invalidations: 13,
        delta_survivals: 14,
        rows_returned: 15,
        rows_streamed: 16,
    };
    let growth = SessionStats {
        queries: 101,
        batches: 102,
        cache_hits: 103,
        cache_misses: 104,
        cache_evictions: 105,
        eval_hits: 106,
        eval_misses: 107,
        eval_evictions: 108,
        eval_skipped: 109,
        plan_hits: 110,
        plan_misses: 111,
        plan_evictions: 112,
        delta_invalidations: 113,
        delta_survivals: 114,
        rows_returned: 115,
        rows_streamed: 116,
    };
    let mut now = earlier.clone();
    now.accumulate(&growth);
    assert_eq!(now.since(&earlier), growth, "since(accumulate(x)) == x");
    let mut rebuilt = earlier.clone();
    rebuilt.accumulate(&now.since(&earlier));
    assert_eq!(rebuilt, now, "accumulate(since(x)) == x");
}

/// Plan counters observed by a live session reach the same totals the
/// eval counters do when merged via `since` deltas — the pattern a
/// caller that snapshots a live session's growth uses.
#[test]
fn plan_counters_merge_like_eval_counters() {
    let mut session = plan_only_session();
    let req = QueryRequest::new(Language::Ra, "pi[color](Boat)");
    let mut aggregate = SessionStats::default();
    let mut merged = SessionStats::default();
    for _ in 0..3 {
        session.run(&req).unwrap();
        // Periodic merge of the live session's growth (server-style).
        let now = session.stats().clone();
        aggregate.accumulate(&now.since(&merged));
        merged = now;
    }
    assert_eq!(aggregate.plan_misses, 1);
    assert_eq!(aggregate.plan_hits, 2);
    assert_eq!(aggregate, *session.stats(), "merge loses nothing");
}
