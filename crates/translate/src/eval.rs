//! RA and Datalog execution through the TRC hub.
//!
//! Both run the way SQL does: the query is translated into its canonical
//! hub TRC form ([`ra_to_trc`], [`datalog_to_trc`]) and that form is
//! lowered by the TRC lowering onto the shared plan IR, so they use the
//! same planner, cardinality estimates and executor as every other
//! language.

use crate::datalog_to_trc::datalog_to_trc;
use crate::ra_to_trc::ra_to_trc;
use rd_core::exec::{self, Plan};
use rd_core::{CoreResult, Database, Relation};
use rd_datalog::DlProgram;
use rd_ra::ast::RaExpr;

/// Lowers `expr` to a compiled [`Plan`] against `db`'s catalog,
/// statistics and symbol table. The output schema is `q(attrs…)`, with
/// the attributes the expression's schema infers.
pub fn lower_ra(expr: &RaExpr, db: &Database) -> CoreResult<Plan> {
    rd_trc::eval::lower_union(&ra_to_trc(expr, &db.catalog())?, db)
}

/// Evaluates `expr` over `db`. The catalog is taken from the database
/// itself, so every referenced table must exist in `db`.
pub fn eval_ra(expr: &RaExpr, db: &Database) -> CoreResult<Relation> {
    exec::execute(&lower_ra(expr, db)?, db)
}

/// Lowers the program's query predicate to a compiled [`Plan`] against
/// `db`. The output schema is `q(x1, …, xn)`, the positional attributes
/// of a Datalog result.
pub fn lower_datalog(p: &DlProgram, db: &Database) -> CoreResult<Plan> {
    rd_trc::eval::lower_union(&datalog_to_trc(p, &db.catalog())?, db)
}

/// Evaluates the program's query predicate over `db`.
pub fn eval_datalog(p: &DlProgram, db: &Database) -> CoreResult<Relation> {
    exec::execute(&lower_datalog(p, db)?, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::{CmpOp, TableSchema, Value};
    use rd_datalog::parse_program;
    use rd_ra::ast::{Condition, JoinCond, RaTerm};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("R", ["A", "B"]),
                [[1i64, 10], [1, 20], [2, 10], [3, 30]],
            )
            .unwrap(),
        );
        db.add_relation(
            Relation::from_rows(TableSchema::new("S", ["B"]), [[10i64], [20]]).unwrap(),
        );
        db
    }

    fn ints(r: &Relation) -> Vec<i64> {
        r.iter()
            .map(|t| match t.get(0) {
                Value::Int(i) => *i,
                _ => panic!("expected int"),
            })
            .collect()
    }

    #[test]
    fn division_via_basic_operators() {
        // π_A R − π_A((π_A R × S) − R): A values paired with ALL S.B values.
        let e = RaExpr::diff(
            RaExpr::project(["A"], RaExpr::table("R")),
            RaExpr::project(
                ["A"],
                RaExpr::diff(
                    RaExpr::product(
                        RaExpr::project(["A"], RaExpr::table("R")),
                        RaExpr::table("S"),
                    ),
                    RaExpr::table("R"),
                ),
            ),
        );
        let out = eval_ra(&e, &db()).unwrap();
        assert_eq!(ints(&out), vec![1]);
    }

    #[test]
    fn division_via_antijoins() {
        // π_A R ⊲ π_A((π_A R × S) ⊲ R)   (Example 17)
        let inner = RaExpr::project(
            ["A"],
            RaExpr::antijoin(
                JoinCond(vec![]),
                RaExpr::product(
                    RaExpr::project(["A"], RaExpr::table("R")),
                    RaExpr::table("S"),
                ),
                RaExpr::table("R"),
            ),
        );
        let e = RaExpr::antijoin(
            JoinCond(vec![]),
            RaExpr::project(["A"], RaExpr::table("R")),
            inner,
        );
        let out = eval_ra(&e, &db()).unwrap();
        assert_eq!(ints(&out), vec![1]);
    }

    #[test]
    fn simple_antijoin_matches_not_exists() {
        // R ⊲_{B=B} S = tuples of R whose B is not in S.
        let e = RaExpr::antijoin(
            JoinCond::eq("B", "B"),
            RaExpr::table("R"),
            RaExpr::table("S"),
        );
        let out = eval_ra(&e, &db()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.iter().next().unwrap(), &rd_core::Tuple::new([3i64, 30]));
    }

    #[test]
    fn select_with_disjunction() {
        let e = RaExpr::select(
            Condition::Or(vec![
                Condition::Cmp(RaTerm::attr("B"), CmpOp::Eq, RaTerm::value(30)),
                Condition::Cmp(RaTerm::attr("A"), CmpOp::Eq, RaTerm::value(2)),
            ]),
            RaExpr::table("R"),
        );
        let out = eval_ra(&e, &db()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn natural_join_and_theta_join_agree_on_equality() {
        let nj = RaExpr::natural_join(RaExpr::table("R"), RaExpr::table("S"));
        let tj = RaExpr::project(
            ["A", "B"],
            RaExpr::join(
                JoinCond::eq("B", "B2"),
                RaExpr::table("R"),
                RaExpr::rename([("B", "B2")], RaExpr::table("S")),
            ),
        );
        let a = eval_ra(&nj, &db()).unwrap();
        let b = eval_ra(&tj, &db()).unwrap();
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn union_dedups() {
        let e = RaExpr::union(
            RaExpr::project(["B"], RaExpr::table("R")),
            RaExpr::table("S"),
        );
        let out = eval_ra(&e, &db()).unwrap();
        assert_eq!(ints(&out), vec![10, 20, 30]);
    }

    #[test]
    fn projection_dedups_under_set_semantics() {
        let e = RaExpr::project(["B"], RaExpr::table("R"));
        let out = eval_ra(&e, &db()).unwrap();
        assert_eq!(out.len(), 3); // 10, 20, 30
    }

    #[test]
    fn theta_join_with_inequality() {
        // Pairs (A, B2) with R.B > S.B2.
        let e = RaExpr::join(
            JoinCond(vec![("B".into(), CmpOp::Gt, "B2".into())]),
            RaExpr::table("R"),
            RaExpr::rename([("B", "B2")], RaExpr::table("S")),
        );
        let out = eval_ra(&e, &db()).unwrap();
        // R.B values 10,10,20,30 vs S 10,20: pairs: 20>10, 30>10, 30>20.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn mixed_eq_and_inequality_join_uses_residual() {
        // B = B2 && A > B2 — the equality keys the probe, the inequality
        // filters its matches. Over our data: (B, B2) matches on 10, 10
        // and 20, 20; A > B2 never holds (A ∈ 1..3), so the join is empty.
        let e = RaExpr::join(
            JoinCond(vec![
                ("B".into(), CmpOp::Eq, "B2".into()),
                ("A".into(), CmpOp::Gt, "B2".into()),
            ]),
            RaExpr::table("R"),
            RaExpr::rename([("B", "B2")], RaExpr::table("S")),
        );
        let out = eval_ra(&e, &db()).unwrap();
        assert!(out.is_empty());
        // Flip the inequality: every equality match qualifies (A < B2).
        let e = RaExpr::join(
            JoinCond(vec![
                ("B".into(), CmpOp::Eq, "B2".into()),
                ("A".into(), CmpOp::Lt, "B2".into()),
            ]),
            RaExpr::table("R"),
            RaExpr::rename([("B", "B2")], RaExpr::table("S")),
        );
        let out = eval_ra(&e, &db()).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn string_selection_and_order_comparison() {
        let mut d = Database::new();
        d.add_relation(
            Relation::from_rows(
                TableSchema::new("Boat", ["bid", "color"]),
                [
                    vec![Value::int(1), Value::str("zebra")],
                    vec![Value::int(2), Value::str("apple")],
                    vec![Value::int(3), Value::str("red")],
                ],
            )
            .unwrap(),
        );
        let eq = RaExpr::select(
            Condition::Cmp(RaTerm::attr("color"), CmpOp::Eq, RaTerm::value("red")),
            RaExpr::table("Boat"),
        );
        assert_eq!(ints(&eval_ra(&eq, &d).unwrap()), vec![3]);
        // Lexicographic, not id, order: only 'apple' < 'red'.
        let lt = RaExpr::select(
            Condition::Cmp(RaTerm::attr("color"), CmpOp::Lt, RaTerm::value("red")),
            RaExpr::table("Boat"),
        );
        assert_eq!(ints(&eval_ra(&lt, &d).unwrap()), vec![2]);
    }

    #[test]
    fn eval_missing_table_errors() {
        let e = RaExpr::table("Nope");
        assert!(eval_ra(&e, &db()).is_err());
    }

    #[test]
    fn natural_join_swap_preserves_layout_and_rows() {
        let mut d = db();
        // BigS(B, E): 30 rows sharing attr B with R.
        d.add_relation(
            Relation::from_rows(
                TableSchema::new("BigS", ["B", "E"]),
                (0..30i64).map(|i| [10 * (i % 4), i]).collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        // The planner scans the smaller R first in both written orders,
        // so one of them runs swapped; each output keeps its written
        // layout (the left's attributes, then the right's new ones) and
        // holds the reference interpreter's rows.
        let raw = rd_oracle::uninterned(&d);
        for (e, layout) in [
            (
                RaExpr::natural_join(RaExpr::table("R"), RaExpr::table("BigS")),
                ["A", "B", "E"],
            ),
            (
                RaExpr::natural_join(RaExpr::table("BigS"), RaExpr::table("R")),
                ["B", "E", "A"],
            ),
        ] {
            let plan = lower_ra(&e, &d).unwrap();
            let Plan::Union(branches) = &plan else {
                panic!("a join lowers to a query branch: {plan:?}")
            };
            assert_eq!(branches[0].root.scans[0].rel, "R", "{e}");
            let got = exec::execute(&plan, &d).unwrap();
            let oracle = rd_oracle::ra::eval(&e, &raw).unwrap();
            assert_eq!(got.schema().attrs(), layout);
            assert_eq!(oracle.attrs, layout);
            assert_eq!(d.resolve_relation(&got).tuples(), &oracle.tuples, "{e}");
            assert!(!got.is_empty());
        }
    }

    #[test]
    fn tables_named_like_the_translation_predicates_still_run() {
        // The hub chain passes through Datalog, whose query predicate is
        // `Q` and whose difference IDBs are `I1`, `I2`, …: stored tables
        // with those names must not be shadowed by them.
        let mut d = Database::new();
        d.add_relation(Relation::from_rows(TableSchema::new("Q", ["A"]), [[1i64], [2]]).unwrap());
        d.add_relation(Relation::from_rows(TableSchema::new("I1", ["A"]), [[2i64]]).unwrap());
        let e = RaExpr::diff(
            RaExpr::table("Q"),
            RaExpr::project(["A"], RaExpr::table("I1")),
        );
        assert_eq!(ints(&eval_ra(&e, &d).unwrap()), vec![1]);
    }

    #[test]
    fn lowered_plan_executes_like_eval() {
        let d = db();
        let e = RaExpr::project(
            ["A"],
            RaExpr::natural_join(RaExpr::table("R"), RaExpr::table("S")),
        );
        let plan = lower_ra(&e, &d).unwrap();
        let rel = exec::execute(&plan, &d).unwrap();
        let direct = eval_ra(&e, &d).unwrap();
        assert_eq!(rel.tuples(), direct.tuples());
        assert_eq!(rel.schema().attrs(), ["A"]);
    }

    // Datalog, through its hub form.

    fn catalog() -> rd_core::Catalog {
        db().catalog()
    }

    #[test]
    fn single_rule_join() {
        let p = parse_program("Q(x) :- R(x, y), S(y).", &catalog()).unwrap();
        let out = eval_datalog(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1, 2]);
    }

    #[test]
    fn negation_not_in() {
        let p = parse_program("Q(x, y) :- R(x, y), not S(y).", &catalog()).unwrap();
        let out = eval_datalog(&p, &db()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.iter().next().unwrap(), &rd_core::Tuple::new([3i64, 30]));
    }

    #[test]
    fn division_two_rules() {
        let p = parse_program(
            "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
            &catalog(),
        )
        .unwrap();
        let out = eval_datalog(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1]);
    }

    #[test]
    fn builtins_filter() {
        let p = parse_program("Q(x) :- R(x, y), y > 15.", &catalog()).unwrap();
        let out = eval_datalog(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1, 3]);
    }

    #[test]
    fn constants_in_atoms() {
        let p = parse_program("Q(x) :- R(x, 10).", &catalog()).unwrap();
        let out = eval_datalog(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1, 2]);
    }

    #[test]
    fn union_via_multiple_rules() {
        // Values in R.A with B=10, union values with B=30.
        let p = parse_program("Q(x) :- R(x, 10).\nQ(x) :- R(x, 30).", &catalog()).unwrap();
        let out = eval_datalog(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1, 2, 3]);
    }

    #[test]
    fn repeated_variable_joins_within_atom() {
        let mut d = db();
        d.relation_mut("R")
            .unwrap()
            .insert_values([7i64, 7])
            .unwrap();
        let p = parse_program("Q(x) :- R(x, x).", &catalog()).unwrap();
        let out = eval_datalog(&p, &d).unwrap();
        assert_eq!(ints(&out), vec![7]);
    }

    #[test]
    fn empty_result_when_edb_empty() {
        let p = parse_program("Q(x) :- R(x, y), S(y).", &catalog()).unwrap();
        let empty = Database::empty_for(&catalog());
        let out = eval_datalog(&p, &empty).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn three_level_idb_chain() {
        let p = parse_program(
            "I1(x) :- R(x, _).\nI2(x) :- I1(x), not S(x).\nQ(x) :- I2(x).",
            &catalog(),
        )
        .unwrap();
        let out = eval_datalog(&p, &db()).unwrap();
        // A values 1,2,3; none of them appear in S (10, 20).
        assert_eq!(ints(&out), vec![1, 2, 3]);
    }

    #[test]
    fn atom_order_does_not_change_results() {
        // The planner reorders positive atoms; both phrasings agree.
        let a = parse_program("Q(x) :- R(x, y), S(y).", &catalog()).unwrap();
        let b = parse_program("Q(x) :- S(y), R(x, y).", &catalog()).unwrap();
        let ra = eval_datalog(&a, &db()).unwrap();
        let rb = eval_datalog(&b, &db()).unwrap();
        assert_eq!(ra.tuples(), rb.tuples());
    }

    #[test]
    fn string_constants_are_interned_and_match() {
        let mut d = Database::new();
        d.add_relation(
            Relation::from_rows(
                TableSchema::new("Boat", ["bid", "color"]),
                [
                    vec![Value::int(101), Value::str("red")],
                    vec![Value::int(102), Value::str("green")],
                ],
            )
            .unwrap(),
        );
        let p = parse_program("Q(b) :- Boat(b, 'red').", &d.catalog()).unwrap();
        let out = eval_datalog(&p, &d).unwrap();
        assert_eq!(ints(&out), vec![101]);
    }

    #[test]
    fn lowered_program_is_reusable() {
        let d = db();
        let p = parse_program(
            "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
            &catalog(),
        )
        .unwrap();
        let plan = lower_datalog(&p, &d).unwrap();
        let a = exec::execute(&plan, &d).unwrap();
        let b = exec::execute(&plan, &d).unwrap();
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!(ints(&a), vec![1]);
        // I is inlined under Q's negation: one query branch.
        assert!(matches!(&plan, Plan::Union(b) if b.len() == 1), "{plan:?}");
    }
}
