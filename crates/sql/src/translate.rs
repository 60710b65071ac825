//! The 1-to-1 translation between canonical SQL\* and TRC\* (Theorem 6,
//! part 5), in both directions, plus SQL evaluation via TRC.
//!
//! * `SELECT DISTINCT C…` ↔ the output head `{q(A…) | …}`;
//! * each `FROM R {, R}` ↔ existentially quantified tuple variables
//!   `∃r ∈ R[…]`;
//! * each `NOT EXISTS (SELECT * FROM … WHERE …)` ↔ `¬(∃… […])`;
//! * predicates map 1-to-1 (with `<>` ↔ `≠`).

use crate::ast::{
    Column, SelectCols, SelectQuery, SqlPredicate, SqlQuery, SqlTerm, SqlUnion, TableRef,
};
use crate::canon::canonicalize_sql;
use rd_core::{Catalog, CmpOp, CoreError, CoreResult, Database, Relation};
use rd_trc::ast::{Binding, Formula, OutputSpec, Predicate, Term, TrcQuery, TrcUnion};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// SQL* -> TRC*
// ---------------------------------------------------------------------

/// Scope frame: (visible SQL name, TRC variable).
type Frame = Vec<(String, String)>;

struct ToTrc {
    used_vars: BTreeSet<String>,
}

impl ToTrc {
    fn fresh_var(&mut self, base: &str) -> String {
        // TRC variables must be globally unique; SQL aliases are only
        // scope-unique.
        let lowered = base.to_string();
        if self.used_vars.insert(lowered.clone()) {
            return lowered;
        }
        let mut i = 2usize;
        loop {
            let candidate = format!("{lowered}_{i}");
            if self.used_vars.insert(candidate.clone()) {
                return candidate;
            }
            i += 1;
        }
    }

    fn resolve(&self, col: &Column, scopes: &[Frame]) -> CoreResult<Term> {
        let t = col.table.as_deref().ok_or_else(|| {
            CoreError::Invalid(format!(
                "internal: column '{col}' not qualified before translation"
            ))
        })?;
        for frame in scopes.iter().rev() {
            if let Some((_, var)) = frame.iter().find(|(name, _)| name == t) {
                return Ok(Term::attr(var.clone(), col.attr.clone()));
            }
        }
        Err(CoreError::Invalid(format!(
            "table alias '{t}' not visible for column '{col}'"
        )))
    }

    fn term(&self, t: &SqlTerm, scopes: &[Frame]) -> CoreResult<Term> {
        match t {
            SqlTerm::Col(c) => self.resolve(c, scopes),
            SqlTerm::Const(v) => Ok(Term::Const(v.clone())),
        }
    }

    /// Translates a canonical SELECT block into bindings + body formula.
    fn block(
        &mut self,
        s: &SelectQuery,
        scopes: &mut Vec<Frame>,
    ) -> CoreResult<(Vec<Binding>, Formula)> {
        let mut frame = Frame::new();
        let mut bindings = Vec::new();
        for tr in &s.from {
            let var = self.fresh_var(&tr.name().to_lowercase());
            frame.push((tr.name().to_string(), var.clone()));
            bindings.push(Binding::new(var, tr.table.clone()));
        }
        scopes.push(frame);
        let body = match &s.where_clause {
            Some(w) => self.pred(w, scopes)?,
            None => Formula::truth(),
        };
        scopes.pop();
        Ok((bindings, body))
    }

    fn pred(&mut self, p: &SqlPredicate, scopes: &mut Vec<Frame>) -> CoreResult<Formula> {
        match p {
            SqlPredicate::And(ps) => Ok(Formula::and(
                ps.iter()
                    .map(|s| self.pred(s, scopes))
                    .collect::<CoreResult<Vec<_>>>()?,
            )),
            SqlPredicate::Or(ps) => Ok(Formula::Or(
                ps.iter()
                    .map(|s| self.pred(s, scopes))
                    .collect::<CoreResult<Vec<_>>>()?,
            )),
            SqlPredicate::Not(inner) => Ok(Formula::not(self.pred(inner, scopes)?)),
            SqlPredicate::Cmp(l, op, r) => Ok(Formula::Pred(Predicate::new(
                self.term(l, scopes)?,
                *op,
                self.term(r, scopes)?,
            ))),
            SqlPredicate::Exists { negated, query } => {
                let inner = match query.as_ref() {
                    SqlQuery::Select(s) => s,
                    _ => {
                        return Err(CoreError::Invalid(
                            "EXISTS subquery must be a SELECT block".into(),
                        ))
                    }
                };
                let (bindings, body) = self.block(inner, scopes)?;
                let f = Formula::exists(bindings, body);
                Ok(if *negated { Formula::not(f) } else { f })
            }
            SqlPredicate::InSubquery { .. } | SqlPredicate::Quantified { .. } => {
                Err(CoreError::Invalid(
                    "internal: IN/ALL/ANY must be canonicalized before translation".into(),
                ))
            }
        }
    }
}

/// Translates a SQL\* union into a TRC\* union. The input is
/// canonicalized first, so any grammatical SQL\* query is accepted.
pub fn sql_to_trc(u: &SqlUnion, catalog: &Catalog) -> CoreResult<TrcUnion> {
    let canon = canonicalize_sql(u, catalog)?;
    let branches = canon
        .branches
        .iter()
        .map(|q| query_to_trc(q, catalog))
        .collect::<CoreResult<Vec<_>>>()?;
    let union = TrcUnion::new(branches)?;
    for b in &union.branches {
        b.check(catalog)?;
    }
    Ok(union)
}

fn query_to_trc(q: &SqlQuery, _catalog: &Catalog) -> CoreResult<TrcQuery> {
    let mut tr = ToTrc {
        used_vars: BTreeSet::new(),
    };
    tr.used_vars.insert("q".to_string()); // reserve the head name
    match q {
        SqlQuery::Select(s) => {
            let cols = match &s.columns {
                SelectCols::Cols(cols) => cols.clone(),
                SelectCols::Star => {
                    return Err(CoreError::Invalid(
                        "the main query must select explicit columns (not *)".into(),
                    ))
                }
            };
            let mut scopes = Vec::new();
            let (bindings, body) = tr.block(s, &mut scopes)?;
            // Build output head with unique attribute names.
            let mut attrs: Vec<String> = Vec::with_capacity(cols.len());
            for c in &cols {
                let mut name = c.attr.clone();
                let mut i = 2usize;
                while attrs.contains(&name) {
                    name = format!("{}_{i}", c.attr);
                    i += 1;
                }
                attrs.push(name);
            }
            // Defining predicates: q.attr = resolved column.
            scopes.push(
                s.from
                    .iter()
                    .zip(&bindings)
                    .map(|(t, b)| (t.name().to_string(), b.var.clone()))
                    .collect(),
            );
            let mut parts = Vec::with_capacity(cols.len() + 1);
            for (c, attr) in cols.iter().zip(&attrs) {
                let rhs = tr.resolve(c, &scopes)?;
                parts.push(Formula::Pred(Predicate::new(
                    Term::attr("q", attr.clone()),
                    CmpOp::Eq,
                    rhs,
                )));
            }
            scopes.pop();
            match body {
                Formula::And(fs) => parts.extend(fs),
                other => parts.push(other),
            }
            Ok(TrcQuery::query(
                OutputSpec::new("q", attrs),
                Formula::exists(bindings, Formula::and(parts)),
            ))
        }
        SqlQuery::SelectNot(p) => {
            let mut scopes = Vec::new();
            let inner = tr.pred(p, &mut scopes)?;
            Ok(TrcQuery::sentence(Formula::not(inner)))
        }
        SqlQuery::SelectExists { negated, query } => {
            let inner = match query.as_ref() {
                SqlQuery::Select(s) => s,
                _ => {
                    return Err(CoreError::Invalid(
                        "SELECT EXISTS requires a SELECT block".into(),
                    ))
                }
            };
            let mut scopes = Vec::new();
            let (bindings, body) = tr.block(inner, &mut scopes)?;
            let f = Formula::exists(bindings, body);
            Ok(TrcQuery::sentence(if *negated {
                Formula::not(f)
            } else {
                f
            }))
        }
    }
}

// ---------------------------------------------------------------------
// TRC* -> SQL*
// ---------------------------------------------------------------------

/// Translates a canonical TRC\* query into canonical SQL\*.
pub fn trc_to_sql(q: &TrcQuery) -> CoreResult<SqlQuery> {
    let canon = rd_trc::canon::canonicalize(q);
    match &canon.output {
        Some(head) => {
            let (bindings, parts) = split_root(&canon.formula);
            if bindings.is_empty() {
                return Err(CoreError::Invalid(
                    "a non-Boolean query needs at least one root table (safety)".into(),
                ));
            }
            // Pull out defining predicates for the SELECT list.
            let mut select_cols = Vec::new();
            let mut rest = Vec::new();
            let mut defined: BTreeSet<&str> = BTreeSet::new();
            for part in &parts {
                if let Formula::Pred(p) = part {
                    if let (Term::Attr(a), Term::Attr(rhs)) = (&p.left, &p.right) {
                        if p.op == CmpOp::Eq
                            && a.var == head.name
                            && !defined.contains(a.attr.as_str())
                        {
                            select_cols.push(Column::qualified(rhs.var.clone(), rhs.attr.clone()));
                            defined.insert(&a.attr);
                            continue;
                        }
                    }
                }
                rest.push(part.clone());
            }
            if defined.len() != head.attrs.len() {
                return Err(CoreError::Invalid(
                    "every output attribute needs a defining equality (safety)".into(),
                ));
            }
            let where_clause = formula_parts_to_pred(&rest)?;
            Ok(SqlQuery::Select(SelectQuery {
                distinct: true,
                columns: SelectCols::Cols(select_cols),
                from: bindings_to_from(&bindings),
                where_clause,
            }))
        }
        None => sentence_to_sql(&canon.formula),
    }
}

/// Translates a TRC\* union into a SQL\* union.
pub fn trc_union_to_sql(u: &TrcUnion) -> CoreResult<SqlUnion> {
    Ok(SqlUnion {
        branches: u
            .branches
            .iter()
            .map(trc_to_sql)
            .collect::<CoreResult<Vec<_>>>()?,
    })
}

fn split_root(f: &Formula) -> (Vec<Binding>, Vec<Formula>) {
    match f {
        Formula::Exists(b, body) => {
            let parts = match body.as_ref() {
                Formula::And(fs) => fs.clone(),
                other => vec![other.clone()],
            };
            (b.clone(), parts)
        }
        Formula::And(fs) => (Vec::new(), fs.clone()),
        other => (Vec::new(), vec![other.clone()]),
    }
}

fn bindings_to_from(bindings: &[Binding]) -> Vec<TableRef> {
    bindings
        .iter()
        .map(|b| {
            if b.var == b.table {
                TableRef::plain(b.table.clone())
            } else {
                TableRef::aliased(b.table.clone(), b.var.clone())
            }
        })
        .collect()
}

fn term_to_sql(t: &Term) -> SqlTerm {
    match t {
        Term::Attr(a) => SqlTerm::Col(Column::qualified(a.var.clone(), a.attr.clone())),
        Term::Const(v) => SqlTerm::Const(v.clone()),
    }
}

fn formula_parts_to_pred(parts: &[Formula]) -> CoreResult<Option<SqlPredicate>> {
    let mut preds = Vec::new();
    for p in parts {
        preds.push(formula_to_pred(p)?);
    }
    Ok(if preds.is_empty() {
        None
    } else {
        Some(SqlPredicate::and(preds))
    })
}

fn formula_to_pred(f: &Formula) -> CoreResult<SqlPredicate> {
    match f {
        Formula::Pred(p) => Ok(SqlPredicate::Cmp(
            term_to_sql(&p.left),
            p.op,
            term_to_sql(&p.right),
        )),
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Exists(bindings, body) => {
                let parts = match body.as_ref() {
                    Formula::And(fs) => fs.clone(),
                    other => vec![other.clone()],
                };
                Ok(SqlPredicate::Exists {
                    negated: true,
                    query: Box::new(SqlQuery::Select(SelectQuery {
                        distinct: false,
                        columns: SelectCols::Star,
                        from: bindings_to_from(bindings),
                        where_clause: formula_parts_to_pred(&parts)?,
                    })),
                })
            }
            other => Ok(SqlPredicate::Not(Box::new(formula_to_pred(other)?))),
        },
        Formula::Exists(bindings, body) => {
            let parts = match body.as_ref() {
                Formula::And(fs) => fs.clone(),
                other => vec![other.clone()],
            };
            Ok(SqlPredicate::Exists {
                negated: false,
                query: Box::new(SqlQuery::Select(SelectQuery {
                    distinct: false,
                    columns: SelectCols::Star,
                    from: bindings_to_from(bindings),
                    where_clause: formula_parts_to_pred(&parts)?,
                })),
            })
        }
        Formula::And(fs) => {
            let ps = fs
                .iter()
                .map(formula_to_pred)
                .collect::<CoreResult<Vec<_>>>()?;
            Ok(SqlPredicate::and(ps))
        }
        Formula::Or(fs) => {
            let ps = fs
                .iter()
                .map(formula_to_pred)
                .collect::<CoreResult<Vec<_>>>()?;
            Ok(SqlPredicate::Or(ps))
        }
    }
}

fn sentence_to_sql(f: &Formula) -> CoreResult<SqlQuery> {
    match f {
        Formula::Exists(bindings, body) => {
            let parts = match body.as_ref() {
                Formula::And(fs) => fs.clone(),
                other => vec![other.clone()],
            };
            Ok(SqlQuery::SelectExists {
                negated: false,
                query: Box::new(SqlQuery::Select(SelectQuery {
                    distinct: false,
                    columns: SelectCols::Star,
                    from: bindings_to_from(bindings),
                    where_clause: formula_parts_to_pred(&parts)?,
                })),
            })
        }
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Exists(bindings, body) => {
                let parts = match body.as_ref() {
                    Formula::And(fs) => fs.clone(),
                    other => vec![other.clone()],
                };
                Ok(SqlQuery::SelectExists {
                    negated: true,
                    query: Box::new(SqlQuery::Select(SelectQuery {
                        distinct: false,
                        columns: SelectCols::Star,
                        from: bindings_to_from(bindings),
                        where_clause: formula_parts_to_pred(&parts)?,
                    })),
                })
            }
            other => Ok(SqlQuery::SelectNot(Box::new(formula_to_pred(other)?))),
        },
        // A conjunction of negation blocks: use the grammar's nested NOT
        // form, SELECT NOT (NOT (P)).
        other => Ok(SqlQuery::SelectNot(Box::new(SqlPredicate::Not(Box::new(
            formula_to_pred(other)?,
        ))))),
    }
}

// ---------------------------------------------------------------------
// Evaluation via TRC
// ---------------------------------------------------------------------

/// Lowers a SQL\* union onto the shared plan IR by translating to TRC\*
/// (Theorem 6 part 5) and lowering the hub form — SQL\* inherits the
/// cost-based join orderer for free: a single Boolean branch becomes a
/// sentence plan, anything else a union of query branches.
pub fn lower_sql(u: &SqlUnion, db: &Database) -> CoreResult<rd_core::exec::Plan> {
    rd_trc::eval::lower_union(&sql_to_trc(u, &db.catalog())?, db)
}

/// Evaluates a SQL\* union over `db` by translating to TRC\*.
pub fn eval_sql(u: &SqlUnion, db: &Database) -> CoreResult<Relation> {
    let catalog = db.catalog();
    let trc = sql_to_trc(u, &catalog)?;
    rd_trc::eval::eval_union(&trc, db)
}

/// Evaluates a Boolean SQL\* query over `db`.
pub fn eval_sql_boolean(q: &SqlQuery, db: &Database) -> CoreResult<bool> {
    let catalog = db.catalog();
    let trc = sql_to_trc(&SqlUnion::single(q.clone()), &catalog)?;
    rd_trc::eval::eval_sentence(&trc.branches[0], db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sql_unchecked;
    use rd_core::{TableSchema, Value};

    fn catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
        ])
        .unwrap()
    }

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

    #[test]
    fn division_sql_to_trc_signature_preserved() {
        let u = parse_sql_unchecked(
            "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE NOT EXISTS \
             (SELECT * FROM R AS R2 WHERE R2.B = S.B AND R2.A = R.A))",
        )
        .unwrap();
        let trc = sql_to_trc(&u, &catalog()).unwrap();
        assert_eq!(trc.branches[0].signature(), vec!["R", "S", "R"]);
        assert!(rd_trc::check::is_nondisjunctive(&trc.branches[0]));
    }

    #[test]
    fn division_evaluates_correctly_via_trc() {
        let u = parse_sql_unchecked(
            "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE NOT EXISTS \
             (SELECT * FROM R AS R2 WHERE R2.B = S.B AND R2.A = R.A))",
        )
        .unwrap();
        let out = eval_sql(&u, &db()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.iter().next().unwrap().get(0), &Value::int(1));
    }

    #[test]
    fn fig15_syntactic_variants_same_semantics() {
        // Queries (g)-(j) of Fig. 15 are all equivalent.
        let variants = [
            "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE R.B = S.B)",
            "SELECT DISTINCT R.A FROM R WHERE R.B NOT IN (SELECT S.B FROM S)",
            "SELECT DISTINCT R.A FROM R WHERE R.B <> ALL (SELECT S.B FROM S)",
        ];
        let results: Vec<Relation> = variants
            .iter()
            .map(|v| eval_sql(&parse_sql_unchecked(v).unwrap(), &db()).unwrap())
            .collect();
        for r in &results[1..] {
            assert_eq!(r.tuples(), results[0].tuples());
        }
        assert_eq!(results[0].len(), 1); // only A=3
    }

    #[test]
    fn boolean_queries_evaluate() {
        // "Some R.B appears in S" — true.
        let q = parse_sql_unchecked("SELECT EXISTS (SELECT * FROM R, S WHERE R.B = S.B)").unwrap();
        assert!(eval_sql_boolean(&q.branches[0], &db()).unwrap());
        // "No R.B appears in S" — false.
        let q =
            parse_sql_unchecked("SELECT NOT EXISTS (SELECT * FROM R, S WHERE R.B = S.B)").unwrap();
        assert!(!eval_sql_boolean(&q.branches[0], &db()).unwrap());
    }

    #[test]
    fn trc_to_sql_roundtrip_preserves_semantics_and_signature() {
        let trc_text = "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ \
                        not (exists r2 in R [ r2.B = s.B and r2.A = r.A ]) ]) ] }";
        let q = rd_trc::parser::parse_query(trc_text, &catalog()).unwrap();
        let sql = trc_to_sql(&q).unwrap();
        let sql_u = SqlUnion::single(sql);
        assert_eq!(sql_u.signature(), q.signature());
        let back = sql_to_trc(&sql_u, &catalog()).unwrap();
        let a = rd_trc::eval::eval_query(&q, &db()).unwrap();
        let b = rd_trc::eval::eval_query(&back.branches[0], &db()).unwrap();
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn union_translates_and_unions() {
        let u =
            parse_sql_unchecked("(SELECT DISTINCT R.B FROM R) UNION (SELECT DISTINCT S.B FROM S)")
                .unwrap();
        let out = eval_sql(&u, &db()).unwrap();
        assert_eq!(out.len(), 3); // 10, 20, 30
    }

    #[test]
    fn or_translates_to_trc_or() {
        let u =
            parse_sql_unchecked("SELECT DISTINCT R.A FROM R WHERE R.B = 30 OR R.A = 2").unwrap();
        let trc = sql_to_trc(&u, &catalog()).unwrap();
        assert!(trc.branches[0].formula.contains_or());
        let out = eval_sql(&u, &db()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn sentence_roundtrips_to_sql() {
        let cat = catalog();
        let s = rd_trc::parser::parse_query(
            "not (exists r in R [ not (exists s in S [ s.B = r.B ]) ])",
            &cat,
        )
        .unwrap();
        let sql = trc_to_sql(&s).unwrap();
        assert!(sql.is_boolean());
        let back = sql_to_trc(&SqlUnion::single(sql), &cat).unwrap();
        let a = rd_trc::eval::eval_sentence(&s, &db()).unwrap();
        let b = rd_trc::eval::eval_sentence(&back.branches[0], &db()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn correlated_aliases_in_sibling_scopes_disambiguated() {
        // Two sibling subqueries both alias R AS R2 — legal SQL; TRC
        // variables must be freshened.
        let u = parse_sql_unchecked(
            "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM R AS R2 WHERE R2.A = R.A AND R2.B = 1) \
             AND NOT EXISTS (SELECT * FROM R AS R2 WHERE R2.A = R.A AND R2.B = 2)",
        )
        .unwrap();
        let trc = sql_to_trc(&u, &catalog()).unwrap();
        assert!(trc.branches[0].check(&catalog()).is_ok());
        assert_eq!(trc.branches[0].signature(), vec!["R", "R", "R"]);
    }
}
