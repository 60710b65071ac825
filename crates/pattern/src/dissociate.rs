//! Signatures (Def. 9) and dissociated queries (Def. 10) across the four
//! languages.

use rd_core::{Catalog, CoreError, CoreResult, Database, Relation, Tuple};
use rd_datalog::ast::DlProgram;
use rd_ra::ast::RaExpr;
use rd_sql::ast::SqlUnion;
use rd_trc::ast::TrcQuery;
use std::collections::BTreeSet;

/// A query expression in any of the four languages.
#[derive(Debug, Clone)]
pub enum AnyQuery {
    /// Tuple relational calculus.
    Trc(TrcQuery),
    /// Relational algebra.
    Ra(RaExpr),
    /// Non-recursive Datalog with negation.
    Datalog(DlProgram),
    /// SQL\* (single query or union).
    Sql(SqlUnion),
}

impl AnyQuery {
    /// The signature S of the expression (Def. 9).
    pub fn signature(&self) -> Vec<String> {
        match self {
            AnyQuery::Trc(q) => q.signature(),
            AnyQuery::Ra(e) => e.signature(),
            AnyQuery::Datalog(p) => p.signature(),
            AnyQuery::Sql(u) => u.signature(),
        }
    }

    /// Language name for display.
    pub fn language(&self) -> &'static str {
        match self {
            AnyQuery::Trc(_) => "TRC",
            AnyQuery::Ra(_) => "RA",
            AnyQuery::Datalog(_) => "Datalog",
            AnyQuery::Sql(_) => "SQL",
        }
    }

    /// Evaluates the query over `db`, returning the result tuple set.
    /// SQL evaluates via its TRC translation (Theorem 6 part 5).
    pub fn eval(&self, db: &Database) -> CoreResult<BTreeSet<Tuple>> {
        Ok(match self {
            AnyQuery::Trc(q) => {
                if q.is_sentence() {
                    let b = rd_trc::eval::eval_sentence(q, db)?;
                    bool_tuples(b)
                } else {
                    rd_trc::eval::eval_query(q, db)?.tuples().clone()
                }
            }
            AnyQuery::Ra(e) => rd_translate::eval_ra(e, db)?.tuples().clone(),
            AnyQuery::Datalog(p) => rd_translate::eval_datalog(p, db)?.tuples().clone(),
            AnyQuery::Sql(u) => {
                if u.branches.len() == 1 && u.branches[0].is_boolean() {
                    bool_tuples(rd_sql::translate::eval_sql_boolean(&u.branches[0], db)?)
                } else {
                    rd_sql::translate::eval_sql(u, db)?.tuples().clone()
                }
            }
        })
    }
}

fn bool_tuples(b: bool) -> BTreeSet<Tuple> {
    if b {
        [Tuple(Vec::new())].into_iter().collect()
    } else {
        BTreeSet::new()
    }
}

/// A dissociated query: the expression with every table reference renamed
/// to a fresh table of identical schema (Def. 10), plus the extended
/// catalog and the reference mapping.
#[derive(Debug, Clone)]
pub struct Dissociated {
    /// The rewritten query over fresh table names.
    pub query: AnyQuery,
    /// Catalog extended with the dissociated schemas.
    pub catalog: Catalog,
    /// `(original table, fresh table)` per signature position.
    pub mapping: Vec<(String, String)>,
}

impl Dissociated {
    /// The dissociated signature S′.
    pub fn signature(&self) -> Vec<String> {
        self.mapping.iter().map(|(_, f)| f.clone()).collect()
    }
}

/// Dissociates `q` (Def. 10): signature position `i` over table `T` is
/// renamed to the fresh table `T#i` with the same schema. The `prefix`
/// distinguishes the two queries being compared so their fresh names never
/// collide.
pub fn dissociate(q: &AnyQuery, catalog: &Catalog, prefix: &str) -> CoreResult<Dissociated> {
    let signature = q.signature();
    let mut extended = catalog.clone();
    let mut mapping = Vec::with_capacity(signature.len());
    for (i, table) in signature.iter().enumerate() {
        let schema = catalog.require(table)?;
        let fresh = format!("{table}__{prefix}{i}");
        extended.add(schema.renamed(fresh.clone()))?;
        mapping.push((table.clone(), fresh));
    }
    let query = rename_refs(q, &mapping)?;
    Ok(Dissociated {
        query,
        catalog: extended,
        mapping,
    })
}

/// Renames the i-th table reference to `mapping[i].1` for every position.
fn rename_refs(q: &AnyQuery, mapping: &[(String, String)]) -> CoreResult<AnyQuery> {
    match q {
        AnyQuery::Trc(t) => {
            let mut t = t.clone();
            // Visit bindings in order, renaming positionally.
            let mut i = 0usize;
            rename_trc(&mut t.formula, mapping, &mut i)?;
            Ok(AnyQuery::Trc(t))
        }
        AnyQuery::Ra(e) => {
            let mut e = e.clone();
            for (i, (_, fresh)) in mapping.iter().enumerate() {
                if !e.rename_table_ref(i, fresh) {
                    return Err(CoreError::Invalid(format!(
                        "RA expression has no table reference #{i}"
                    )));
                }
            }
            Ok(AnyQuery::Ra(e))
        }
        AnyQuery::Datalog(p) => {
            let mut p = p.clone();
            // Rename back-to-front so earlier renames don't shift indices
            // (fresh names are never EDB names already in the signature).
            for (i, (_, fresh)) in mapping.iter().enumerate() {
                // rename_table_ref counts EDB references; after renaming
                // position i the reference is still an EDB (fresh table),
                // so indices stay stable.
                if !p.rename_table_ref(i, fresh) {
                    return Err(CoreError::Invalid(format!(
                        "Datalog program has no table reference #{i}"
                    )));
                }
            }
            Ok(AnyQuery::Datalog(p))
        }
        AnyQuery::Sql(u) => {
            let mut u = u.clone();
            let mut i = 0usize;
            for branch in &mut u.branches {
                rename_sql(branch, mapping, &mut i)?;
            }
            Ok(AnyQuery::Sql(u))
        }
    }
}

fn rename_trc(
    f: &mut rd_trc::ast::Formula,
    mapping: &[(String, String)],
    i: &mut usize,
) -> CoreResult<()> {
    use rd_trc::ast::Formula;
    match f {
        Formula::And(fs) | Formula::Or(fs) => {
            for sub in fs {
                rename_trc(sub, mapping, i)?;
            }
            Ok(())
        }
        Formula::Not(sub) => rename_trc(sub, mapping, i),
        Formula::Exists(bindings, body) => {
            for b in bindings {
                let (orig, fresh) = mapping.get(*i).ok_or_else(|| {
                    CoreError::Invalid("signature/mapping length mismatch".into())
                })?;
                debug_assert_eq!(&b.table, orig);
                b.table = fresh.clone();
                *i += 1;
            }
            rename_trc(body, mapping, i)
        }
        Formula::Pred(_) => Ok(()),
    }
}

fn rename_sql(
    q: &mut rd_sql::ast::SqlQuery,
    mapping: &[(String, String)],
    i: &mut usize,
) -> CoreResult<()> {
    use rd_sql::ast::{SqlPredicate, SqlQuery};
    fn pred(p: &mut SqlPredicate, mapping: &[(String, String)], i: &mut usize) -> CoreResult<()> {
        match p {
            SqlPredicate::And(ps) | SqlPredicate::Or(ps) => {
                for s in ps {
                    pred(s, mapping, i)?;
                }
                Ok(())
            }
            SqlPredicate::Not(inner) => pred(inner, mapping, i),
            SqlPredicate::Cmp(..) => Ok(()),
            SqlPredicate::Exists { query, .. }
            | SqlPredicate::InSubquery { query, .. }
            | SqlPredicate::Quantified { query, .. } => rename_sql(query, mapping, i),
        }
    }
    match q {
        SqlQuery::Select(s) => {
            for tr in &mut s.from {
                let (orig, fresh) = mapping.get(*i).ok_or_else(|| {
                    CoreError::Invalid("signature/mapping length mismatch".into())
                })?;
                debug_assert_eq!(&tr.table, orig);
                // Keep the visible name stable: the old name becomes the
                // alias so column references remain valid.
                if tr.alias.is_none() {
                    tr.alias = Some(tr.table.clone());
                }
                tr.table = fresh.clone();
                *i += 1;
            }
            if let Some(w) = &mut s.where_clause {
                pred(w, mapping, i)?;
            }
            Ok(())
        }
        SqlQuery::SelectNot(p) => pred(p, mapping, i),
        SqlQuery::SelectExists { query, .. } => rename_sql(query, mapping, i),
    }
}

/// Installs dissociated relations into a database: for each mapping entry,
/// the fresh table gets the given relation content. Used by the
/// equivalence engine to evaluate dissociated queries.
pub fn install_relations(dissociated: &Dissociated, contents: &[Relation]) -> CoreResult<Database> {
    if contents.len() != dissociated.mapping.len() {
        return Err(CoreError::Invalid(
            "one relation instance required per dissociated reference".into(),
        ));
    }
    let mut db = Database::new();
    for ((_, fresh), rel) in dissociated.mapping.iter().zip(contents) {
        let schema = dissociated.catalog.require(fresh)?;
        db.add_relation(rel.renamed(schema.clone())?);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::TableSchema;

    fn catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
        ])
        .unwrap()
    }

    #[test]
    fn dissociates_trc_division() {
        let q = rd_trc::parser::parse_query(
            "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ \
             not (exists r2 in R [ r2.B = s.B and r2.A = r.A ]) ]) ] }",
            &catalog(),
        )
        .unwrap();
        let d = dissociate(&AnyQuery::Trc(q), &catalog(), "a").unwrap();
        assert_eq!(d.signature(), vec!["R__a0", "S__a1", "R__a2"]);
        assert_eq!(d.query.signature(), d.signature());
        // Dissociated schemas mirror the originals (Def. 10).
        assert_eq!(d.catalog.require("R__a2").unwrap().attrs(), ["A", "B"]);
    }

    #[test]
    fn dissociates_ra_and_datalog() {
        let e = rd_ra::parser::parse("pi[A](R) - pi[A]((pi[A](R) x S) - R)", &catalog()).unwrap();
        let d = dissociate(&AnyQuery::Ra(e), &catalog(), "b").unwrap();
        assert_eq!(d.signature().len(), 4);
        assert_eq!(d.query.signature(), d.signature());

        let p = rd_datalog::parser::parse_program(
            "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
            &catalog(),
        )
        .unwrap();
        let d = dissociate(&AnyQuery::Datalog(p), &catalog(), "c").unwrap();
        assert_eq!(d.signature().len(), 4);
        assert_eq!(d.query.signature(), d.signature());
    }

    #[test]
    fn dissociates_sql_preserving_column_references() {
        let u = rd_sql::parser::parse_sql_unchecked(
            "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE S.B = R.B)",
        )
        .unwrap();
        let d = dissociate(&AnyQuery::Sql(u), &catalog(), "d").unwrap();
        assert_eq!(d.signature(), vec!["R__d0", "S__d1"]);
        // The rewritten SQL must still translate (columns resolve through
        // the kept aliases).
        if let AnyQuery::Sql(u2) = &d.query {
            assert!(rd_sql::translate::sql_to_trc(u2, &d.catalog).is_ok());
        } else {
            panic!("language changed");
        }
    }

    #[test]
    fn install_relations_renames_content() {
        let q = rd_trc::parser::parse_query(
            "{ q(A) | exists r in R [ q.A = r.A and not (exists r2 in R [ r2.A = r.A and r2.B = 9 ]) ] }",
            &catalog(),
        )
        .unwrap();
        let d = dissociate(&AnyQuery::Trc(q), &catalog(), "e").unwrap();
        let r1 = Relation::from_rows(TableSchema::new("X", ["A", "B"]), [[1i64, 2]]).unwrap();
        let r2 = Relation::from_rows(TableSchema::new("Y", ["A", "B"]), [[1i64, 9]]).unwrap();
        let db = install_relations(&d, &[r1, r2]).unwrap();
        // Different content in the two R references: the dissociated query
        // sees reference 0 non-empty, reference 1 containing (1, 9).
        let out = d.query.eval(&db).unwrap();
        assert!(out.is_empty()); // (1,9) in the second ref blocks A=1
    }
}
