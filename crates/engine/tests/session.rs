//! Engine integration tests: cross-language agreement through
//! `Session::run` and the behavior of the parse cache.

use rd_core::Value;
use rd_engine::{demo_database, parse_fixture, DiagramFormat, Language, QueryRequest, Session};

/// The same conjunctive query — "names of sailors who have reserved some
/// boat" (pattern P1 of the user study) — expressed in all four languages.
fn conjunctive_in_all_languages() -> [(Language, &'static str); 4] {
    [
        (
            Language::Sql,
            "SELECT DISTINCT Sailor.sname FROM Sailor, Reserves \
             WHERE Sailor.sid = Reserves.sid",
        ),
        (
            Language::Trc,
            "{ q(sname) | exists s in Sailor [ q.sname = s.sname and \
               exists r in Reserves [ r.sid = s.sid ] ] }",
        ),
        (
            Language::Ra,
            "pi[sname](Sailor join[sid=rsid] rho[sid->rsid, bid->rbid](Reserves))",
        ),
        (Language::Datalog, "Q(n) :- Sailor(s, n), Reserves(s, b)."),
    ]
}

#[test]
fn four_languages_agree_on_the_same_query() {
    let mut session = Session::new(demo_database());
    let mut results = Vec::new();
    for (language, text) in conjunctive_in_all_languages() {
        let resp = session
            .run(&QueryRequest::new(language, text))
            .unwrap_or_else(|e| panic!("{language} failed: {e}"));
        assert_eq!(resp.language, language);
        results.push((language, resp.relation));
    }
    // Set-semantics equality: same tuple sets (attribute names differ by
    // language convention, e.g. Datalog's positional x1).
    let (first_lang, first) = &results[0];
    for (language, relation) in &results[1..] {
        assert_eq!(
            relation.tuples(),
            first.tuples(),
            "{language} disagrees with {first_lang}"
        );
    }
    // Both sailors reserved boats in the demo instance.
    assert_eq!(first.len(), 2);
}

#[test]
fn language_detection_routes_each_syntax() {
    let mut session = Session::new(demo_database());
    for (language, text) in conjunctive_in_all_languages() {
        let resp = session.run(&QueryRequest::auto(text)).unwrap();
        assert_eq!(resp.language, language, "detect failed for {text}");
    }
}

#[test]
fn second_run_of_identical_request_is_a_cache_hit() {
    let mut session = Session::new(demo_database());
    let req = QueryRequest::new(Language::Sql, "SELECT DISTINCT Boat.color FROM Boat");
    let first = session.run(&req).unwrap();
    assert!(!first.cache_hit);
    assert_eq!(session.stats().cache_hits, 0);
    assert_eq!(session.stats().cache_misses, 1);

    let second = session.run(&req).unwrap();
    assert!(second.cache_hit);
    assert_eq!(session.stats().cache_hits, 1);
    assert_eq!(session.stats().cache_misses, 1);
    assert_eq!(second.relation, first.relation);
    assert!(session.stats().hit_rate() > 0.0);
}

#[test]
fn same_text_in_different_languages_does_not_collide() {
    // A bare table name is a valid RA expression; as Datalog or SQL it is
    // an error. The cache key includes the language.
    let mut session = Session::new(demo_database());
    let ra = session
        .run(&QueryRequest::new(Language::Ra, "Boat"))
        .unwrap();
    assert_eq!(ra.relation.len(), 2);
    assert!(session
        .run(&QueryRequest::new(Language::Sql, "Boat"))
        .is_err());
    // The RA entry is still served from cache afterwards.
    let again = session
        .run(&QueryRequest::new(Language::Ra, "Boat"))
        .unwrap();
    assert!(again.cache_hit);
}

#[test]
fn lru_capacity_bounds_the_cache_and_counts_evictions() {
    let mut session = Session::with_cache_capacity(demo_database(), 2);
    let queries = ["pi[color](Boat)", "pi[sname](Sailor)", "pi[bid](Reserves)"];
    for q in queries {
        session.run(&QueryRequest::new(Language::Ra, q)).unwrap();
    }
    // Third insert evicted the first entry.
    assert_eq!(session.stats().cache_evictions, 1);
    let resp = session
        .run(&QueryRequest::new(Language::Ra, "pi[color](Boat)"))
        .unwrap();
    assert!(!resp.cache_hit, "evicted entry must re-parse");
    // The most recent entry is still cached.
    let resp = session
        .run(&QueryRequest::new(Language::Ra, "pi[bid](Reserves)"))
        .unwrap();
    assert!(resp.cache_hit);
}

#[test]
fn set_database_clears_the_catalog_dependent_cache() {
    let mut session = Session::new(demo_database());
    let req = QueryRequest::new(Language::Ra, "pi[color](Boat)");
    session.run(&req).unwrap();
    // New database, same schema name with one more row.
    let db = parse_fixture("Boat(bid, color):\n (1, 'red')\n (2, 'blue')\n (3, 'teal')\n").unwrap();
    session.set_database(db);
    let resp = session.run(&req).unwrap();
    assert!(!resp.cache_hit, "cache must not survive a database swap");
    assert_eq!(resp.relation.len(), 3);
}

#[test]
fn translations_round_trip_through_the_hub() {
    let mut session = Session::new(demo_database());
    for (language, text) in conjunctive_in_all_languages() {
        let resp = session
            .run(&QueryRequest::new(language, text).with_translations())
            .unwrap();
        let t = resp.translations.expect("translations requested");
        assert!(!t.trc.is_empty());
        let sql = t.sql.unwrap_or_else(|| panic!("{language}: no SQL"));
        let datalog = t
            .datalog
            .unwrap_or_else(|| panic!("{language}: no Datalog"));
        // Each printed translation parses and evaluates to the same
        // result as the original (Theorem 6, through the engine).
        let sql_resp = session
            .run(&QueryRequest::new(Language::Sql, &sql))
            .unwrap();
        assert_eq!(sql_resp.relation.tuples(), resp.relation.tuples());
        let dl_resp = session
            .run(&QueryRequest::new(Language::Datalog, &datalog))
            .unwrap();
        assert_eq!(dl_resp.relation.tuples(), resp.relation.tuples());
    }
}

#[test]
fn diagram_rendering_works_from_any_language() {
    let mut session = Session::new(demo_database());
    for (language, text) in conjunctive_in_all_languages() {
        let resp = session
            .run(&QueryRequest::new(language, text).with_diagram(DiagramFormat::Dot))
            .unwrap();
        let dot = resp.diagram.expect("diagram requested");
        assert!(dot.contains("digraph"), "{language}: {dot}");
    }
    let resp = session
        .run(
            &QueryRequest::new(
                Language::Trc,
                "{ q(color) | exists b in Boat [ q.color = b.color ] }",
            )
            .with_diagram(DiagramFormat::Svg),
        )
        .unwrap();
    assert!(resp.diagram.unwrap().contains("<svg"));
}

#[test]
fn hub_failure_degrades_to_a_note_instead_of_failing_the_run() {
    // A constant head term runs through the hub as the defining equality
    // `q.x2 = 5`, which neither SQL\* nor a Relational Diagram\* can
    // express: requesting those extras must not discard the result.
    let mut session = Session::new(demo_database());
    let resp = session
        .run(
            &QueryRequest::new(Language::Datalog, "Q(c, 5) :- Boat(b, c).")
                .with_translations()
                .with_diagram(DiagramFormat::Dot),
        )
        .unwrap();
    assert_eq!(resp.relation.len(), 2, "evaluation result must survive");
    assert_eq!(resp.relation.schema().attrs(), ["x1", "x2"]);
    let t = resp.translations.expect("the hub form itself translates");
    assert!(t.trc.contains("q.x2 = 5"), "{}", t.trc);
    assert!(t.sql.is_none());
    assert!(
        t.notes
            .iter()
            .any(|n| n.contains("SQL translation unavailable")),
        "{:?}",
        t.notes
    );
    assert!(resp.diagram.is_none());
    assert!(
        resp.notes
            .iter()
            .any(|n| n.contains("diagram rendering unavailable")),
        "{:?}",
        resp.notes
    );
}

#[test]
fn multi_rule_datalog_translates_and_draws_through_the_hub() {
    // An IDB defined by two rules lifts to two top-level union branches
    // of the hub form, which runs, translates and draws like any union.
    let mut session = Session::new(demo_database());
    let resp = session
        .run(
            &QueryRequest::new(
                Language::Datalog,
                "Q(c) :- Boat(b, c).\nQ(c) :- Boat(b, c), Reserves(s, b).",
            )
            .with_translations()
            .with_diagram(DiagramFormat::Dot),
        )
        .unwrap();
    assert_eq!(resp.relation.len(), 2);
    assert_eq!(resp.relation.schema().attrs(), ["x1"]);
    let t = resp.translations.expect("translations requested");
    assert!(t.trc.contains(" union "), "{}", t.trc);
    assert!(t.sql.is_some(), "{:?}", t.notes);
    assert!(resp.diagram.is_some(), "{:?}", resp.notes);
}

#[test]
fn ra_union_translates_through_the_hub_and_draws_a_diagram() {
    // `∪` lifts to the top of the hub form as one TRC branch per side,
    // so an RA union has TRC and SQL translations and a union diagram;
    // Datalog*/RA* translations are per branch and say so.
    let mut session = Session::new(demo_database());
    let resp = session
        .run(
            &QueryRequest::new(
                Language::Ra,
                "pi[color](Boat) union pi[color](sigma[bid=101](Boat))",
            )
            .with_translations()
            .with_diagram(DiagramFormat::Dot),
        )
        .unwrap();
    assert_eq!(resp.relation.schema().attrs(), ["color"]);
    assert_eq!(resp.relation.len(), 2);
    let t = resp.translations.expect("translations requested");
    assert!(t.trc.contains("q(color)"), "{}", t.trc);
    assert!(t.trc.contains("bid = 101"), "{}", t.trc);
    assert!(t.sql.as_deref().unwrap_or("").contains("UNION"), "{t:?}");
    assert!(
        t.notes.iter().any(|n| n.contains("2-branch union")),
        "{t:?}"
    );
    assert!(resp.diagram.expect("diagram requested").contains("digraph"));
    assert!(resp.notes.is_empty(), "{:?}", resp.notes);
}

#[test]
fn diagram_failure_degrades_to_a_note_instead_of_failing_the_run() {
    // Disjunction evaluates fine but has no Relational Diagram* form.
    let mut session = Session::new(demo_database());
    let resp = session
        .run(
            &QueryRequest::auto(
                "{ q(sname) | exists s in Sailor [ q.sname = s.sname and \
                   (s.sid = 1 or s.sid = 2) ] }",
            )
            .with_diagram(DiagramFormat::Dot),
        )
        .unwrap();
    assert_eq!(resp.relation.len(), 2, "evaluation result must survive");
    assert!(resp.diagram.is_none());
    assert!(
        resp.notes
            .iter()
            .any(|n| n.contains("diagram rendering unavailable")),
        "{:?}",
        resp.notes
    );
}

#[test]
fn boolean_sentences_evaluate_to_zero_ary_relations() {
    let mut session = Session::new(demo_database());
    // True: sailor 1 exists.
    let t = session
        .run(&QueryRequest::auto("exists s in Sailor [ s.sid = 1 ]"))
        .unwrap();
    assert_eq!(t.language, Language::Trc);
    assert_eq!(t.relation.schema().arity(), 0);
    assert_eq!(t.relation.len(), 1, "true encodes as {{()}}");
    // False: negation of the same sentence.
    let f = session
        .run(&QueryRequest::auto(
            "not (exists s in Sailor [ s.sid = 1 ])",
        ))
        .unwrap();
    assert!(f.relation.is_empty(), "false encodes as {{}}");
    // The SQL Boolean form agrees.
    let sql = session
        .run(&QueryRequest::auto(
            "SELECT EXISTS (SELECT * FROM Sailor WHERE Sailor.sid = 1)",
        ))
        .unwrap();
    assert_eq!(sql.language, Language::Sql);
    assert_eq!(sql.relation.tuples(), t.relation.tuples());
}

#[test]
fn parenthesized_sql_union_is_detected_and_runs() {
    let mut session = Session::new(demo_database());
    let resp = session
        .run(&QueryRequest::auto(
            "(SELECT DISTINCT Sailor.sname FROM Sailor WHERE Sailor.sid = 1) UNION \
             (SELECT DISTINCT Sailor.sname FROM Sailor WHERE Sailor.sid = 2)",
        ))
        .unwrap();
    assert_eq!(resp.language, Language::Sql);
    assert_eq!(resp.relation.len(), 2);
}

#[test]
fn union_queries_evaluate_and_note_fragment_limits() {
    let mut session = Session::new(demo_database());
    let resp = session
        .run(
            &QueryRequest::new(
                Language::Trc,
                "{ q(color) | exists b in Boat [ q.color = b.color and b.bid = 101 ] } \
                 union \
                 { q(color) | exists b in Boat [ q.color = b.color and b.bid = 102 ] }",
            )
            .with_translations(),
        )
        .unwrap();
    assert_eq!(resp.relation.len(), 2);
    let t = resp.translations.unwrap();
    assert!(t.sql.is_some(), "SQL unions exist (footnote 7)");
    assert!(t.datalog.is_none(), "per-branch translation only");
    assert!(!t.notes.is_empty());
}

/// A wildcard inside a built-in has no value to compare. The query is
/// refused when it is checked, with the same error whether or not the
/// table it reads holds rows, and nothing is evaluated.
#[test]
fn wildcard_in_builtin_errors_before_execution() {
    let text = "Q(x) :- Sailor(x, y), _ < 3.";
    let empty = parse_fixture("Sailor(sid, sname):\nReserves(sid, bid):\n").unwrap();
    for db in [demo_database(), empty] {
        let mut session = Session::new(db);
        let err = session
            .run(&QueryRequest::new(Language::Datalog, text))
            .unwrap_err()
            .to_string();
        assert!(err.contains("wildcard in built-in"), "{err}");
        let stats = session.stats();
        assert_eq!((stats.eval_misses, stats.plan_misses), (0, 0), "{stats:?}");
    }
}

/// `T.A` spans all of `i64`, so its width overflows `i64` arithmetic.
const FULL_RANGE: &str = "T(A):\n  (-9223372036854775808)\n  (3)\n  (9223372036854775807)\n\
                          S(A):\n  (3)\n  (4)\n";

fn answer(text: &str) -> Vec<Vec<Value>> {
    let mut session = Session::new(parse_fixture(FULL_RANGE).unwrap());
    let resp = session
        .run(&QueryRequest::new(Language::Trc, text))
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    resp.relation
        .iter()
        .map(|t| t.iter().cloned().collect())
        .collect()
}

/// A range predicate over a column spanning all of `i64` must get a
/// finite selectivity, and the join orderer must place every scan
/// whatever its costs.
#[test]
fn range_predicate_over_a_full_range_int_column_runs() {
    assert_eq!(
        answer("{ q(A) | exists t in T, s in S [ q.A = t.A and t.A = s.A and t.A < 5 ] }"),
        [[Value::int(3)]]
    );
}

/// An equi-join on a column spanning all of `i64` must build a hash
/// join table: its key span, 2⁶⁴, is too wide for a dense one.
#[test]
fn equi_join_on_a_full_range_int_column_runs() {
    assert_eq!(
        answer("{ q(A) | exists s in S, t in T [ q.A = s.A and t.A = s.A ] }"),
        [[Value::int(3)]]
    );
}
