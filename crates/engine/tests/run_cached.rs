//! `Session::run_cached`: the cache-only entry point a service answers
//! hot requests with. A hit must be indistinguishable from `run` (same
//! response, spans, counters, and cache statistics); a miss must leave
//! no trace at all.

use rd_core::{Tuple, Value};
use rd_engine::{
    demo_database, CacheStats, DiagramFormat, EngineShared, Language, QueryRequest, Session,
    SessionStats, SharedConfig,
};
use std::sync::Arc;

/// Everything a request may count, snapshotted for before/after checks.
#[derive(Debug, PartialEq)]
struct Counters {
    session: SessionStats,
    parse: CacheStats,
    eval: CacheStats,
    plan: CacheStats,
}

fn counters(session: &Session) -> Counters {
    let shared = session.shared();
    Counters {
        session: session.stats().clone(),
        parse: shared.parse_cache_stats(),
        eval: shared.eval_cache_stats(),
        plan: shared.plan_cache_stats(),
    }
}

fn boats() -> QueryRequest {
    QueryRequest::new(Language::Ra, "pi[color](Boat)")
}

#[test]
fn a_cold_request_is_not_answered_and_counts_nothing() {
    let mut session = Session::new(demo_database());
    let before = counters(&session);
    assert!(session.run_cached(&boats(), usize::MAX).is_none());
    assert_eq!(counters(&session), before);
}

#[test]
fn a_parse_hit_with_an_eval_miss_counts_nothing() {
    // Disabling the eval cache leaves the parse cache warm but never
    // serves a result, so the probe gets past the parse cache and must
    // still walk away without a trace.
    let shared = EngineShared::with_config(
        demo_database(),
        SharedConfig {
            eval_cache: false,
            ..SharedConfig::default()
        },
    );
    let mut session = Session::attach(Arc::new(shared));
    session.run(&boats()).unwrap();
    let before = counters(&session);
    assert!(session.run_cached(&boats(), usize::MAX).is_none());
    assert_eq!(counters(&session), before);
}

#[test]
fn a_hit_is_answered_exactly_as_run_answers_it() {
    let mut via_run = Session::new(demo_database());
    let mut via_cached = Session::new(demo_database());
    via_run.run(&boats()).unwrap();
    via_cached.run(&boats()).unwrap();
    let expected = via_run.run(&boats()).unwrap();
    let got = via_cached
        .run_cached(&boats(), usize::MAX)
        .expect("warm request is answered from the caches");
    assert_eq!(got.relation, expected.relation);
    assert_eq!(got.canonical, expected.canonical);
    assert_eq!(got.language, expected.language);
    assert!(got.cache_hit && got.eval_cache_hit);
    assert_eq!(
        got.spans.iter().map(|s| s.stage).collect::<Vec<_>>(),
        expected.spans.iter().map(|s| s.stage).collect::<Vec<_>>()
    );
    assert_eq!(got.q_error, expected.q_error);
    assert_eq!(counters(&via_cached), counters(&via_run));
}

#[test]
fn probing_then_falling_back_to_run_counts_once() {
    // The service pattern: try the cache-only path, run on a miss. The
    // counters must match a session that only ever called `run`.
    let texts = [
        "pi[color](Boat)",
        "pi[ color ]( Boat )",
        "pi[color](Boat)",
        "pi[sname](Sailor)",
        "pi[ color ]( Boat )",
        "pi[sname](Sailor)",
    ];
    let mut plain = Session::new(demo_database());
    let mut probed = Session::new(demo_database());
    let mut answered_cached = 0;
    for text in texts {
        let req = QueryRequest::new(Language::Ra, text);
        let a = plain.run(&req).unwrap();
        let b = match probed.run_cached(&req, usize::MAX) {
            Some(resp) => {
                answered_cached += 1;
                resp
            }
            None => probed.run(&req).unwrap(),
        };
        assert_eq!(
            (a.cache_hit, a.eval_cache_hit),
            (b.cache_hit, b.eval_cache_hit)
        );
        assert_eq!(a.relation, b.relation);
    }
    assert_eq!(answered_cached, 3, "each repeated text is a full hit");
    assert_eq!(counters(&probed), counters(&plain));
}

#[test]
fn artifacts_big_results_and_stale_entries_are_left_to_run() {
    let shared = Arc::new(EngineShared::new(demo_database()));
    let mut session = Session::attach(shared.clone());
    let req = boats();
    session.run(&req).unwrap();
    let before = counters(&session);
    for not_cheap in [
        req.clone().with_translations(),
        req.clone().with_diagram(DiagramFormat::Svg),
    ] {
        assert!(session.run_cached(&not_cheap, usize::MAX).is_none());
    }
    assert!(
        session.run_cached(&req, 1).is_none(),
        "two rows exceed a one-row frame"
    );
    // A mutation to the scanned relation makes the entry stale.
    shared
        .insert_rows(
            "Boat",
            &[Tuple(vec![Value::Int(104), Value::Str("blue".into())])],
        )
        .unwrap();
    assert!(session.run_cached(&req, usize::MAX).is_none());
    assert_eq!(counters(&session), before);
    // `run` still re-evaluates it, and then it is cached again.
    let fresh = session.run(&req).unwrap();
    assert!(!fresh.eval_cache_hit);
    assert_eq!(
        session.run_cached(&req, usize::MAX).unwrap().relation,
        fresh.relation
    );
}
