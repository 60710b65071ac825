//! Datalog through the TRC hub, checked against the Datalog reference
//! interpreter.
//!
//! Datalog runs by translating to its hub TRC form, which inlines every
//! IDB use, lifts the rules of a positively used IDB to top-level union
//! branches, turns the rules of a negated one into separate `¬∃`
//! conjuncts, and defines constant and repeated head terms by
//! equalities. Each case below exercises one of those rewrites. Every
//! case runs through `Session::run` over seeded mixed int/string
//! instances, and its rows and positional output attributes must equal
//! `rd_oracle::datalog`'s on the string-resolved copy.

use rd_core::{Catalog, DbGenerator, TableSchema, Value};
use rd_engine::{Language, QueryRequest, Session};
use std::time::{Duration, Instant};

const CASES: [&str; 24] = [
    // A query defined by several rules.
    "Q(x) :- T(x).\nQ(x) :- R(x, _).",
    "Q(x, y) :- R(x, y), y = 1.\nQ(x, y) :- S(y, x), not T(x).",
    // A multi-rule IDB, used positively and under `not`.
    "I(x) :- T(x).\nI(x) :- S(x, _).\nQ(x, y) :- I(x), R(x, y).",
    "I(x) :- T(x).\nI(x) :- S(_, x).\nQ(x, y) :- R(x, y), not I(x).",
    // Rules multiply across a multi-rule query and a multi-rule IDB.
    "I(x) :- T(x).\nI(x) :- S(x, _).\nQ(x) :- I(x), R(x, 1).\nQ(x) :- I(x), not R(x, _).",
    // A multi-rule IDB negated inside a negated IDB.
    "J(x) :- T(x).\nJ(x) :- S(_, x).\nI(x) :- R(x, _), not J(x).\nQ(x) :- T(x), not I(x).",
    // An IDB used twice, and used both positively and negated.
    "I(x) :- R(x, _), not T(x).\nQ(x, y) :- I(x), I(y), S(x, y).",
    "I(x) :- S(x, 1).\nQ(x) :- R(x, _), not I(x).\nQ(x) :- T(x), I(x).",
    // An IDB chain.
    "I1(x) :- R(x, _).\nI2(x) :- I1(x), not T(x).\nI3(x, y) :- I2(x), S(y, x).\nQ(y) :- I3(_, y).",
    // One unbound caller variable in two head positions of an IDB.
    "I(x, y) :- R(x, y).\nQ(y) :- I(y, y).",
    "I(x, y) :- S(x, y).\nQ(x) :- T(x), I(x, x).",
    // Repeated and constant head terms, in the query and in an IDB.
    "Q(x, x) :- R(x, y).",
    "Q(x, 5) :- R(x, y).",
    "Q(x, 'red') :- T(x).",
    "I(x, 5) :- R(x, _).\nQ(x, y) :- I(x, y).",
    "I(x, 'red') :- R(x, _).\nQ(x) :- T(x), not I(x, 'red').",
    "I(x, x) :- S(x, _).\nQ(y) :- I(y, z), T(z).",
    // IDBs named like stored tables shadow them.
    "T(x) :- R(x, 1).\nQ(x) :- T(x), not S(x, _).",
    "R(x) :- T(x).\nQ(x) :- R(x).",
    // 0-ary queries and IDBs, and a rule with no positive atom.
    "Q() :- R(x, y), S(y, _).",
    "I() :- S(_, 1).\nQ(x) :- T(x), not I().",
    "Q(5) :- not T(2).",
    // Wildcards under a negated IDB.
    "I(x, y) :- R(x, y).\nQ(x) :- T(x), not I(x, _).",
    "I(x, y) :- S(x, y).\nQ(y) :- R(_, y), not I(_, y).",
];

fn catalog() -> Catalog {
    Catalog::from_schemas([
        TableSchema::new("R", ["A", "B"]),
        TableSchema::new("S", ["B", "C"]),
        TableSchema::new("T", ["A"]),
    ])
    .unwrap()
}

fn domain() -> Vec<Value> {
    vec![
        Value::int(0),
        Value::int(1),
        Value::int(2),
        Value::str("apple"),
        Value::str("red"),
        Value::str("zebra"),
    ]
}

/// Runs `text` through a session over `db` and checks it against the
/// reference interpreter; returns whether the answer was non-empty.
fn agrees(session: &mut Session, raw: &rd_core::Database, text: &str, label: &str) -> bool {
    let p = rd_datalog::parse_program(text, &catalog()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let expected = rd_oracle::datalog::eval_program(&p, raw).unwrap();
    let resp = session
        .run(&QueryRequest::new(Language::Datalog, text))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        resp.relation.schema().attrs(),
        expected.schema().attrs(),
        "{label}"
    );
    assert_eq!(resp.relation.tuples(), expected.tuples(), "{label}");
    !expected.is_empty()
}

#[test]
fn datalog_rewrites_match_the_datalog_oracle_through_the_session() {
    let mut gen = DbGenerator::new(catalog(), domain(), 6, 0xDA7A);
    let mut nonempty = 0usize;
    for round in 0..8 {
        let db = gen.next_db();
        let raw = rd_oracle::uninterned(&db);
        let mut session = Session::new(db);
        for text in CASES {
            let label = format!("round {round}: {text}");
            nonempty += usize::from(agrees(&mut session, &raw, text, &label));
        }
    }
    // The instances must exercise the cases, not answer them all empty.
    assert!(nonempty > 4 * CASES.len(), "{nonempty} non-empty answers");
}

/// `base` (a rule for `I0(x)`) and `depth` levels of
/// `Ik(x) :- Ik-1(x), Ik-1(x).`: every IDB is used twice, so the query
/// reads the base's table 2^depth times.
fn dag(base: &str, depth: usize) -> String {
    let mut text = format!("{base}\n");
    for k in 1..=depth {
        text.push_str(&format!("I{k}(x) :- I{0}(x), I{0}(x).\n", k - 1));
    }
    text + &format!("Q(x) :- I{depth}(x).")
}

#[test]
fn a_dag_of_reused_idbs_answers_when_small_and_is_refused_when_deep() {
    // Each A value of R has two B values, so every inlined copy of
    // `R(x, _)` matches each x twice. The copies only check existence,
    // and their repeats must not multiply: 2^32 combinations per x at
    // depth 5, which the rule executor never enumerated either.
    let mut db = rd_core::Database::new();
    db.add_relation(
        rd_core::Relation::from_rows(
            TableSchema::new("R", ["A", "B"]),
            [[1i64, 10], [1, 20], [2, 10], [2, 30]],
        )
        .unwrap(),
    );
    db.add_relation(
        rd_core::Relation::from_rows(TableSchema::new("S", ["B", "C"]), [[10i64, 1]]).unwrap(),
    );
    db.add_relation(
        rd_core::Relation::from_rows(TableSchema::new("T", ["A"]), [[1i64], [3]]).unwrap(),
    );
    let raw = rd_oracle::uninterned(&db);
    let mut session = Session::new(db);
    for base in ["I0(x) :- T(x).", "I0(x) :- R(x, _)."] {
        let start = Instant::now();
        assert!(agrees(&mut session, &raw, &dag(base, 5), base));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{base}: took {:?}",
            start.elapsed()
        );
    }
    let start = Instant::now();
    let err = session
        .run(&QueryRequest::new(
            Language::Datalog,
            dag("I0(x) :- T(x).", 14),
        ))
        .unwrap_err();
    assert!(err.to_string().contains("nodes"), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "refusal took {:?}",
        start.elapsed()
    );
}
