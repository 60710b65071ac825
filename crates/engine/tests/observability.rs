//! The observability surface at the engine level: per-stage spans and
//! the root q-error on responses (the session returns them; a service
//! records them), the metrics on/off knob, and `explain_analyze` row
//! counts agreeing with evaluation across all four languages.

use rd_engine::{
    demo_database, parse_fixture, EngineShared, Language, QueryRequest, Session, SharedConfig,
    STAGE_NAMES,
};
use std::sync::Arc;

/// R(A,B) ⋈ S(B) fixture shared by the cross-language checks.
fn rs_session() -> Session {
    let db = parse_fixture(
        "R(A, B):\n  (1, 10)\n  (1, 20)\n  (2, 10)\n  (3, 30)\nS(B):\n  (10)\n  (20)\n",
    )
    .unwrap();
    Session::new(db)
}

/// A session returns its timings instead of recording them: spans of
/// the stages that ran, the total, and the root q-error of a real
/// execution. (The server's registry records these once per request;
/// see `tests/observability.rs` in `rd-server`.)
#[test]
fn run_records_spans_and_registry() {
    let mut session = Session::new(demo_database());
    let resp = session
        .run(&QueryRequest::new(
            Language::Sql,
            "SELECT DISTINCT Boat.color FROM Boat",
        ))
        .unwrap();
    // A cold run passes through parse, plan, and execute.
    let stages: Vec<&str> = resp.spans.iter().map(|s| s.stage).collect();
    assert!(stages.contains(&"parse"), "{stages:?}");
    assert!(stages.contains(&"plan"), "{stages:?}");
    assert!(stages.contains(&"execute"), "{stages:?}");
    assert!(stages.iter().all(|s| STAGE_NAMES.contains(s)));
    // `serialize` happens at the service edge, after the session.
    assert!(!stages.contains(&"serialize"), "{stages:?}");
    let span_sum: u64 = resp.spans.iter().map(|s| s.micros).sum();
    assert!(resp.micros >= span_sum, "stages nest inside the total");
    assert!(resp.q_error.is_some_and(|q| q >= 1.0), "{:?}", resp.q_error);

    // A warm repeat skips evaluation: no plan stage and nothing
    // executed, so no q-error either.
    let warm = session
        .run(&QueryRequest::new(
            Language::Sql,
            "SELECT DISTINCT Boat.color FROM Boat",
        ))
        .unwrap();
    assert!(warm.eval_cache_hit);
    assert!(!warm.spans.iter().any(|s| s.stage == "plan"));
    assert!(warm.spans.iter().any(|s| s.stage == "parse"));
    assert_eq!(warm.q_error, None);
}

#[test]
fn metrics_off_skips_tracing_entirely() {
    let mut session = Session::attach(Arc::new(EngineShared::with_config(
        demo_database(),
        SharedConfig {
            metrics: false,
            shards: 1,
            ..SharedConfig::default()
        },
    )));
    assert!(!session.shared().metrics_enabled());
    let resp = session
        .run(&QueryRequest::new(
            Language::Sql,
            "SELECT DISTINCT Boat.color FROM Boat",
        ))
        .unwrap();
    assert!(resp.spans.is_empty());
    assert_eq!(resp.micros, 0);
}

#[test]
fn explain_analyze_root_matches_evaluation_in_all_languages() {
    let mut session = rs_session();
    // The same join pattern in each of the four languages.
    let queries = [
        (
            Language::Trc,
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B ] }",
        ),
        (
            Language::Sql,
            "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.B",
        ),
        (Language::Datalog, "Q(x) :- R(x, y), S(y)."),
        (Language::Ra, "pi[A](R join S)"),
    ];
    for (language, text) in queries {
        let resp = session.run(&QueryRequest::new(language, text)).unwrap();
        let analyzed = session.explain_analyze(language, text).unwrap();
        assert_eq!(
            analyzed.plan.actual_rows,
            Some(resp.relation.len() as u64),
            "{language}: analyze root row count must match evaluation"
        );
        assert_eq!(resp.relation.len(), 2, "{language}");
        // At least one node carries an estimate, and some scan was
        // actually counted.
        fn any_node(
            n: &rd_core::exec::ExplainNode,
            f: &dyn Fn(&rd_core::exec::ExplainNode) -> bool,
        ) -> bool {
            f(n) || n.children.iter().any(|c| any_node(c, f))
        }
        assert!(
            any_node(&analyzed.plan, &|n| n.est_rows.is_some()),
            "{language}: no estimates anywhere"
        );
        assert!(
            any_node(&analyzed.plan, &|n| n.actual_rows.unwrap_or(0) > 0),
            "{language}: no actual counts anywhere"
        );
    }
}

/// Plain `explain` now carries the cost-based planner's estimate on the
/// query root (it's recorded at compile time, no execution needed) but
/// must NOT claim actual counts or q-errors — those exist only under
/// `explain analyze`.
#[test]
fn plain_explain_estimates_but_never_actuals() {
    let mut session = rs_session();
    let resp = session
        .explain(
            Language::Sql,
            "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.B",
        )
        .unwrap();
    fn no_actuals(n: &rd_core::exec::ExplainNode) -> bool {
        n.actual_rows.is_none() && n.q_error.is_none() && n.children.iter().all(no_actuals)
    }
    assert!(no_actuals(&resp.plan));
    assert!(
        resp.plan.est_rows.is_some(),
        "cost-based plans record their estimate at compile time"
    );
}

fn any_node(
    n: &rd_core::exec::ExplainNode,
    f: &dyn Fn(&rd_core::exec::ExplainNode) -> bool,
) -> bool {
    f(n) || n.children.iter().any(|c| any_node(c, f))
}

/// Static explain renders every language's plan shape without running
/// it: pipelines for TRC, and for SQL, RA and Datalog, which lower
/// through their TRC hub forms, and a formula tree for a Boolean
/// sentence.
#[test]
fn explain_renders_every_language_and_sentences() {
    let mut session = rs_session();
    let queries = [
        (
            Language::Trc,
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B ] }",
            "query",
        ),
        (
            Language::Sql,
            "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.B",
            "query",
        ),
        (Language::Datalog, "Q(x) :- R(x, y), S(y).", "query"),
        (Language::Ra, "pi[A](R join S)", "query"),
        (Language::Trc, "exists r in R [ r.A = 1 ]", "sentence"),
    ];
    for (language, text, root) in queries {
        let resp = session.explain(language, text).unwrap();
        assert_eq!(resp.plan.kind, root, "{language}: {resp:?}");
        assert!(
            !any_node(&resp.plan, &|n| n.actual_rows.is_some()),
            "{language}: static explain must not execute: {resp:?}"
        );
    }
}

/// `explain analyze` additionally reports which join-table build the
/// batched executor picked. The S(B) probe keys are small dense ints,
/// so this fixture must show a `dense-key` build somewhere.
#[test]
fn explain_analyze_reports_join_build_kind() {
    let mut session = rs_session();
    let analyzed = session
        .explain_analyze(
            Language::Sql,
            "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.B",
        )
        .unwrap();
    assert!(
        any_node(&analyzed.plan, &|n| n.build.as_deref() == Some("dense-key")),
        "dense int keys must build a dense-key table: {analyzed:?}"
    );
    assert!(
        any_node(&analyzed.plan, &|n| {
            n.build
                .as_deref()
                .is_none_or(|b| b == "dense-key" || b == "hash")
        }),
        "build kinds are only dense-key or hash: {analyzed:?}"
    );
}

/// A TRC sentence answers with the 0-ary relation: one empty tuple when
/// it holds, none when it does not.
#[test]
fn trc_sentences_answer_with_the_zero_ary_relation() {
    let mut session = rs_session();
    for (text, holds) in [
        ("exists r in R [ r.A = 1 ]", true),
        ("exists r in R [ r.A = 99 ]", false),
        (
            "not (exists r in R [ not (exists s in S [ s.B = r.B ]) ])",
            false,
        ),
    ] {
        let resp = session
            .run(&QueryRequest::new(Language::Trc, text))
            .unwrap();
        assert_eq!(resp.relation.schema().arity(), 0, "{text}");
        assert_eq!(resp.relation.len(), usize::from(holds), "{text}");
        if holds {
            assert!(resp.relation.iter().all(|t| t.arity() == 0), "{text}");
        }
    }
}
