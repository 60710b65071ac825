//! Evaluation of RA expressions over a database (set semantics) — the RA
//! reference interpreter: every operator materializes a full tuple set,
//! every join is a nested loop.

use rd_core::{CmpOp, CoreError, CoreResult, Database, Tuple, Value};
use rd_ra::ast::{Condition, RaExpr, RaTerm};
use std::collections::BTreeSet;

/// An intermediate (or final) evaluation result: attribute names plus the
/// tuple set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaResult {
    /// Ordered attribute names of the result.
    pub attrs: Vec<String>,
    /// The tuples.
    pub tuples: BTreeSet<Tuple>,
}

impl RaResult {
    fn attr_index(&self, name: &str) -> CoreResult<usize> {
        self.attrs.iter().position(|a| a == name).ok_or_else(|| {
            CoreError::Invalid(format!("attribute '{name}' not in {:?}", self.attrs))
        })
    }
}

/// Evaluates `expr` over `db`. The catalog is taken from the database
/// itself, so every referenced table must exist in `db`.
pub fn eval(expr: &RaExpr, db: &Database) -> CoreResult<RaResult> {
    crate::require_uninterned(db)?;
    let catalog = db.catalog();
    // Validate schemas up front for clear error messages.
    expr.schema(&catalog)?;
    eval_inner(expr, db)
}

fn eval_inner(expr: &RaExpr, db: &Database) -> CoreResult<RaResult> {
    match expr {
        RaExpr::Table(t) => {
            let rel = db.require(t)?;
            Ok(RaResult {
                attrs: rel.schema().attrs().to_vec(),
                tuples: rel.tuples().clone(),
            })
        }
        RaExpr::Project(attrs, e) => {
            let inner = eval_inner(e, db)?;
            let idx: Vec<usize> = attrs
                .iter()
                .map(|a| inner.attr_index(a))
                .collect::<CoreResult<_>>()?;
            Ok(RaResult {
                attrs: attrs.clone(),
                tuples: inner.tuples.iter().map(|t| t.project(&idx)).collect(),
            })
        }
        RaExpr::Select(cond, e) => {
            let inner = eval_inner(e, db)?;
            let tuples = inner
                .tuples
                .iter()
                .filter(|t| eval_condition(cond, &inner.attrs, t))
                .cloned()
                .collect();
            Ok(RaResult {
                attrs: inner.attrs,
                tuples,
            })
        }
        RaExpr::Product(l, r) => {
            let lv = eval_inner(l, db)?;
            let rv = eval_inner(r, db)?;
            let mut attrs = lv.attrs.clone();
            attrs.extend(rv.attrs.clone());
            let mut tuples = BTreeSet::new();
            for lt in &lv.tuples {
                for rt in &rv.tuples {
                    tuples.insert(lt.concat(rt));
                }
            }
            Ok(RaResult { attrs, tuples })
        }
        RaExpr::Join(cond, l, r) => {
            let lv = eval_inner(l, db)?;
            let rv = eval_inner(r, db)?;
            let mut attrs = lv.attrs.clone();
            attrs.extend(rv.attrs.clone());
            let checks: Vec<(usize, CmpOp, usize)> = cond
                .0
                .iter()
                .map(|(la, op, ra)| Ok((lv.attr_index(la)?, *op, rv.attr_index(ra)?)))
                .collect::<CoreResult<_>>()?;
            let mut tuples = BTreeSet::new();
            for lt in &lv.tuples {
                for rt in &rv.tuples {
                    if checks
                        .iter()
                        .all(|(li, op, ri)| op.eval(lt.get(*li), rt.get(*ri)))
                    {
                        tuples.insert(lt.concat(rt));
                    }
                }
            }
            Ok(RaResult { attrs, tuples })
        }
        RaExpr::NaturalJoin(l, r) => {
            let lv = eval_inner(l, db)?;
            let rv = eval_inner(r, db)?;
            let shared: Vec<(usize, usize)> = rv
                .attrs
                .iter()
                .enumerate()
                .filter_map(|(ri, a)| lv.attrs.iter().position(|x| x == a).map(|li| (li, ri)))
                .collect();
            let keep_right: Vec<usize> = (0..rv.attrs.len())
                .filter(|ri| !shared.iter().any(|(_, r2)| r2 == ri))
                .collect();
            let mut attrs = lv.attrs.clone();
            attrs.extend(keep_right.iter().map(|&ri| rv.attrs[ri].clone()));
            let mut tuples = BTreeSet::new();
            for lt in &lv.tuples {
                for rt in &rv.tuples {
                    if shared.iter().all(|(li, ri)| lt.get(*li) == rt.get(*ri)) {
                        let mut row = lt.0.clone();
                        row.extend(keep_right.iter().map(|&ri| rt.get(ri).clone()));
                        tuples.insert(Tuple(row));
                    }
                }
            }
            Ok(RaResult { attrs, tuples })
        }
        RaExpr::Rename(renames, e) => {
            let mut inner = eval_inner(e, db)?;
            for (from, to) in renames {
                let idx = inner.attr_index(from)?;
                inner.attrs[idx] = to.clone();
            }
            Ok(inner)
        }
        RaExpr::Diff(l, r) => {
            let lv = eval_inner(l, db)?;
            let rv = eval_inner(r, db)?;
            let tuples = lv.tuples.difference(&rv.tuples).cloned().collect();
            Ok(RaResult {
                attrs: lv.attrs,
                tuples,
            })
        }
        RaExpr::Union(l, r) => {
            let lv = eval_inner(l, db)?;
            let rv = eval_inner(r, db)?;
            let tuples = lv.tuples.union(&rv.tuples).cloned().collect();
            Ok(RaResult {
                attrs: lv.attrs,
                tuples,
            })
        }
        RaExpr::Antijoin(cond, l, r) => {
            let lv = eval_inner(l, db)?;
            let rv = eval_inner(r, db)?;
            let checks: Vec<(usize, CmpOp, usize)> = if cond.0.is_empty() {
                // Natural antijoin: equality on all shared attribute names.
                rv.attrs
                    .iter()
                    .enumerate()
                    .filter_map(|(ri, a)| {
                        lv.attrs
                            .iter()
                            .position(|x| x == a)
                            .map(|li| (li, CmpOp::Eq, ri))
                    })
                    .collect()
            } else {
                cond.0
                    .iter()
                    .map(|(la, op, ra)| Ok((lv.attr_index(la)?, *op, rv.attr_index(ra)?)))
                    .collect::<CoreResult<_>>()?
            };
            let tuples = lv
                .tuples
                .iter()
                .filter(|lt| {
                    !rv.tuples.iter().any(|rt| {
                        checks
                            .iter()
                            .all(|(li, op, ri)| op.eval(lt.get(*li), rt.get(*ri)))
                    })
                })
                .cloned()
                .collect();
            Ok(RaResult {
                attrs: lv.attrs,
                tuples,
            })
        }
    }
}

fn resolve(term: &RaTerm, attrs: &[String], tuple: &Tuple) -> Value {
    match term {
        RaTerm::Const(v) => v.clone(),
        RaTerm::Attr(a) => {
            let idx = attrs
                .iter()
                .position(|x| x == a)
                .expect("validated by schema inference");
            tuple.get(idx).clone()
        }
    }
}

fn eval_condition(cond: &Condition, attrs: &[String], tuple: &Tuple) -> bool {
    match cond {
        Condition::Cmp(l, op, r) => {
            let lv = resolve(l, attrs, tuple);
            let rv = resolve(r, attrs, tuple);
            op.eval(&lv, &rv)
        }
        Condition::And(cs) => cs.iter().all(|c| eval_condition(c, attrs, tuple)),
        Condition::Or(cs) => cs.iter().any(|c| eval_condition(c, attrs, tuple)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::{Relation, TableSchema};
    use rd_ra::ast::JoinCond;

    fn db() -> Database {
        let mut db = Database::uninterned();
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

    fn ints(r: &RaResult) -> Vec<i64> {
        r.tuples
            .iter()
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
        let out = eval(&e, &db()).unwrap();
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
        let out = eval(&e, &db()).unwrap();
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
        let out = eval(&e, &db()).unwrap();
        assert_eq!(out.tuples.len(), 1);
        assert_eq!(out.tuples.iter().next().unwrap(), &Tuple::new([3i64, 30]));
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
        let out = eval(&e, &db()).unwrap();
        assert_eq!(out.tuples.len(), 2);
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
        let a = eval(&nj, &db()).unwrap();
        let b = eval(&tj, &db()).unwrap();
        assert_eq!(a.tuples, b.tuples);
        assert_eq!(a.tuples.len(), 3);
    }

    #[test]
    fn union_dedups() {
        let e = RaExpr::union(
            RaExpr::project(["B"], RaExpr::table("R")),
            RaExpr::table("S"),
        );
        let out = eval(&e, &db()).unwrap();
        assert_eq!(ints(&out), vec![10, 20, 30]);
    }

    #[test]
    fn projection_dedups_under_set_semantics() {
        let e = RaExpr::project(["B"], RaExpr::table("R"));
        let out = eval(&e, &db()).unwrap();
        assert_eq!(out.tuples.len(), 3); // 10, 20, 30
    }

    #[test]
    fn theta_join_with_inequality() {
        // Pairs (A, B2) with R.B > S.B2.
        let e = RaExpr::join(
            JoinCond(vec![("B".into(), CmpOp::Gt, "B2".into())]),
            RaExpr::table("R"),
            RaExpr::rename([("B", "B2")], RaExpr::table("S")),
        );
        let out = eval(&e, &db()).unwrap();
        // R.B values 10,10,20,30 vs S 10,20: pairs: 20>10, 30>10, 30>20.
        assert_eq!(out.tuples.len(), 3);
    }

    #[test]
    fn eval_missing_table_errors() {
        let e = RaExpr::table("Nope");
        assert!(eval(&e, &db()).is_err());
    }
}
