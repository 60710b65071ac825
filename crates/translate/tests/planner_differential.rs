//! Differential check for the cost-based join orderer: plans compiled
//! against the interned database and against an uninterned copy of it
//! must both produce the rows the `rd-oracle` reference interpreters
//! compute, in all four languages (plus RA\*⊲) — the optimizer may only
//! change *how* a query runs, never *what* it returns. Also pins the DP
//! orderer's choice on a skewed three-relation fixture where the
//! syntactic scan order is catastrophically bad.

use rd_core::exec::{self, Plan};
use rd_core::{Catalog, Database, DbGenerator, Relation, TableSchema, Tuple};
use rd_translate::FourWay;
use rd_trc::ast::TrcUnion;
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

/// The reference rows for `four` over the uninterned copy `raw`: the
/// TRC oracle's answer, which the Datalog and RA oracles must reproduce
/// on their own translations.
fn oracle(four: &FourWay, raw: &Database) -> BTreeSet<Tuple> {
    let trc = rd_oracle::trc::eval_query(&four.trc, raw).expect("trc oracle");
    let expected = trc.tuples().clone();
    let datalog = rd_oracle::datalog::eval_program(&four.datalog, raw).expect("datalog oracle");
    assert_eq!(datalog.tuples(), &expected, "datalog oracle vs trc oracle");
    for ra in [&four.ra, &four.ra_antijoin] {
        let out = rd_oracle::ra::eval(ra, raw).expect("ra oracle");
        assert_eq!(out.tuples, expected, "ra oracle vs trc oracle on {ra}");
    }
    expected
}

/// Lowers every representation of `four`, executes on `db`, and
/// returns the symbol-resolved result sets, labeled.
fn eval_all(four: &FourWay, db: &Database) -> Vec<(&'static str, BTreeSet<Tuple>)> {
    let plans: Vec<(&'static str, Plan)> = vec![
        (
            "trc",
            rd_trc::eval::lower_union(&TrcUnion::single(four.trc.clone()), db)
                .expect("trc lowering"),
        ),
        (
            "datalog",
            rd_translate::lower_datalog(&four.datalog, db).expect("datalog lowering"),
        ),
        (
            "ra",
            rd_translate::lower_ra(&four.ra, db).expect("ra lowering"),
        ),
        (
            "ra-antijoin",
            rd_translate::lower_ra(&four.ra_antijoin, db).expect("ra-antijoin lowering"),
        ),
        (
            "sql",
            rd_sql::translate::lower_sql(&four.sql, db).expect("sql lowering"),
        ),
    ];
    plans
        .into_iter()
        .map(|(lang, plan)| {
            let rel = exec::execute(&plan, db).expect("execution");
            let tuples = rel.tuples().iter().map(|t| db.resolve_tuple(t)).collect();
            (lang, tuples)
        })
        .collect()
}

/// The property: over random TRC\* queries and random databases, every
/// (language × interning) combination returns the oracle's rows.
#[test]
fn dp_and_uninterned_agree_across_languages() {
    let mut qgen = QueryGenerator::new(catalog(), GenConfig::default(), 4242);
    for i in 0..15u64 {
        let q = qgen.next_query();
        let four = FourWay::from_trc(&q, &catalog())
            .unwrap_or_else(|e| panic!("query {i} ({q}) failed to translate: {e}"));
        let mut dbs = DbGenerator::with_int_domain(catalog(), 3, 4, 9000 + i);
        for round in 0..8 {
            let db = dbs.next_db();
            let raw = rd_oracle::uninterned(&db);
            let expected = &oracle(&four, &raw);
            for (variant, results) in [
                ("dp", &eval_all(&four, &db)),
                ("dp+uninterned", &eval_all(&four, &raw)),
            ] {
                for (lang, tuples) in results {
                    assert_eq!(
                        tuples, expected,
                        "query {i} ({q}), db round {round}, {variant}/{lang} \
                         disagrees with the oracle on\n{db}"
                    );
                }
            }
        }
    }
}

/// A skewed three-relation instance: R is large with a near-constant
/// join column B, S is tiny, T is small and highly selective against
/// R.A. The syntactic order (R first) enumerates all of R before any
/// filtering.
fn skewed_db() -> Database {
    let mut db = Database::new();
    db.add_relation(
        Relation::from_rows(
            TableSchema::new("R", ["A", "B"]),
            (0..10_000i64).map(|i| [i, i % 2]).collect::<Vec<_>>(),
        )
        .unwrap(),
    );
    db.add_relation(
        Relation::from_rows(
            TableSchema::new("S", ["B"]),
            (0..5i64).map(|i| [i]).collect::<Vec<_>>(),
        )
        .unwrap(),
    );
    db.add_relation(
        Relation::from_rows(
            TableSchema::new("T", ["A"]),
            (0..100i64).map(|i| [i * 3]).collect::<Vec<_>>(),
        )
        .unwrap(),
    );
    db
}

/// Scan order (relation names) of the single conjunctive block in a
/// lowered TRC query plan.
fn scan_order(plan: &Plan) -> Vec<String> {
    match plan {
        Plan::Union(branches) => {
            assert_eq!(branches.len(), 1, "fixture query has one branch");
            branches[0]
                .root
                .scans
                .iter()
                .map(|s| s.rel.clone())
                .collect()
        }
        other => panic!("expected a union plan, got {other:?}"),
    }
}

/// Pins the DP orderer's decision on the skewed fixture: the written
/// order leads with the 10k-row R, but T⋈R keeps only ~100 rows while
/// S⋈R keeps all 10k, so the cheapest left-deep order starts at T,
/// probes R keyed on A, then probes S keyed on B — not at tiny S, where
/// an estimator-blind, size-ordered seed would start.
#[test]
fn dp_picks_the_selective_order_on_the_skewed_fixture() {
    let db = skewed_db();
    let q = rd_trc::parser::parse_query(
        "{ q(A) | exists r in R, s in S, t in T [ \
           q.A = r.A and r.B = s.B and r.A = t.A ] }",
        &db.catalog(),
    )
    .unwrap();
    let union = TrcUnion::single(q);
    let dp = rd_trc::eval::lower_union(&union, &db).unwrap();
    assert_eq!(
        scan_order(&dp),
        ["T", "R", "S"],
        "DP must start from the selective T⋈R edge"
    );
    // The result matches the oracle: the true join has 100 rows (every
    // T.A hits R, every R.B hits S).
    let got = exec::execute(&dp, &db).unwrap();
    let expected = rd_oracle::trc::eval_union(&union, &rd_oracle::uninterned(&db)).unwrap();
    assert_eq!(got.tuples(), expected.tuples());
    assert_eq!(got.len(), 100);
}
