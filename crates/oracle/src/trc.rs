//! Nested-loop evaluation of TRC queries over [`rd_core::Database`] — the
//! TRC reference interpreter.
//!
//! Evaluation works on the canonical form (the evaluator canonicalizes
//! internally): the root is an existential block whose assignments are
//! enumerated by nested loops; output tuples are computed from the
//! defining equalities `q.A = term` and validated with the output head
//! bound (which uniformly handles multiple defining equalities as join
//! constraints).
//!
//! A block's body is the conjunction of its top-level conjuncts, and an
//! assignment is accepted iff every conjunct holds. Each conjunct is
//! checked once per assignment that reaches it: as soon as every
//! variable it reads is bound (a false one cuts the branch), or else on
//! the complete assignment — at the root, with the output head bound.

use rd_core::{CmpOp, CoreError, CoreResult, Database, Relation, TableSchema, Tuple, Value};
use rd_trc::ast::{Binding, Formula, Term, TrcQuery, TrcUnion};
use rd_trc::canonicalize;
use std::collections::HashMap;

/// A variable assignment during evaluation: variable → (schema, tuple).
type Env<'a> = HashMap<String, (&'a TableSchema, &'a Tuple)>;

/// Evaluates a non-Boolean query, returning its output relation.
pub fn eval_query(q: &TrcQuery, db: &Database) -> CoreResult<Relation> {
    crate::require_uninterned(db)?;
    let head = q.output.clone().ok_or_else(|| {
        CoreError::Invalid(
            "eval_query requires an output head; use eval_sentence for Boolean queries".into(),
        )
    })?;
    let canon = canonicalize(q);
    let out_schema = TableSchema::try_new(head.name.clone(), head.attrs.clone())?;
    let mut out = Relation::empty(out_schema.clone());

    // Split the canonical root into bindings and conjunct parts.
    let (bindings, parts) = match &canon.formula {
        Formula::Exists(b, body) => (b.clone(), conjuncts(body)),
        other => (Vec::new(), conjuncts(other)),
    };

    // Locate one defining equality per output attribute.
    let mut defs: Vec<Term> = Vec::with_capacity(head.attrs.len());
    for attr in &head.attrs {
        let term = parts
            .iter()
            .find_map(|f| match f {
                Formula::Pred(p) if p.op == CmpOp::Eq => {
                    let is_head = |t: &Term| {
                        matches!(t, Term::Attr(a) if a.var == head.name && &a.attr == attr)
                    };
                    if is_head(&p.left) && !is_head(&p.right) {
                        Some(p.right.clone())
                    } else if is_head(&p.right) && !is_head(&p.left) {
                        Some(p.left.clone())
                    } else {
                        None
                    }
                }
                _ => None,
            })
            .ok_or_else(|| {
                CoreError::Invalid(format!(
                    "output attribute {}.{attr} lacks a defining equality (unsafe query)",
                    head.name
                ))
            })?;
        defs.push(term);
    }

    // Enumerate root assignments.
    let mut env: Env = HashMap::new();
    let scope = Scope::new(&bindings, parts.iter().collect(), &env);
    enumerate(db, &scope, 0, &mut env, &mut |env| {
        // Compute the candidate output tuple.
        let mut row = Vec::with_capacity(defs.len());
        for term in &defs {
            row.push(resolve(term, env)?);
        }
        let tuple = Tuple(row);
        // Bind the output head and validate the conjuncts the loops did
        // not check (those reading the head among them).
        let mut env2 = env.clone();
        env2.insert(head.name.clone(), (&out_schema, &tuple));
        if scope.rest_holds(&env2, db)? {
            out.insert(tuple)?;
        }
        Ok(false)
    })?;
    Ok(out)
}

/// Evaluates a Boolean sentence.
pub fn eval_sentence(q: &TrcQuery, db: &Database) -> CoreResult<bool> {
    if q.output.is_some() {
        return Err(CoreError::Invalid(
            "eval_sentence requires a Boolean query; use eval_query".into(),
        ));
    }
    crate::require_uninterned(db)?;
    let canon = canonicalize(q);
    let env: Env = HashMap::new();
    eval_formula(&canon.formula, &env, db)
}

/// Evaluates a union of queries (§5): the set union of branch outputs.
pub fn eval_union(u: &TrcUnion, db: &Database) -> CoreResult<Relation> {
    let mut iter = u.branches.iter();
    let first = iter
        .next()
        .ok_or_else(|| CoreError::Invalid("empty union".into()))?;
    let mut result = eval_query(first, db)?;
    for branch in iter {
        let r = eval_query(branch, db)?;
        for t in r.iter() {
            result.insert(t.clone())?;
        }
    }
    Ok(result)
}

/// Flattens a formula into its top-level conjunct list.
fn conjuncts(f: &Formula) -> Vec<Formula> {
    match f {
        Formula::And(fs) => fs.clone(),
        other => vec![other.clone()],
    }
}

/// One existential block being enumerated: its bindings, the conjuncts
/// of its body, and where each conjunct is checked.
struct Scope<'s> {
    bindings: &'s [Binding],
    parts: Vec<&'s Formula>,
    /// Per binding `i`: the conjuncts whose variables are all bound once
    /// `bindings[..=i]` are (variables of enclosing scopes are already
    /// bound when the block is entered).
    checks: Vec<Vec<usize>>,
    /// The conjuncts no binding completes — they read only enclosing
    /// variables, or one bound nowhere yet (the output head) — checked
    /// on each complete assignment.
    rest: Vec<usize>,
}

impl<'s> Scope<'s> {
    fn new(bindings: &'s [Binding], parts: Vec<&'s Formula>, env: &Env) -> Scope<'s> {
        let mut checks = vec![Vec::new(); bindings.len()];
        let mut rest = Vec::new();
        for (c, f) in parts.iter().enumerate() {
            let mut deepest = None;
            let mut bound = true;
            for v in f.free_vars() {
                match bindings.iter().rposition(|b| b.var == v) {
                    Some(j) => deepest = deepest.max(Some(j)),
                    None => bound &= env.contains_key(&v),
                }
            }
            match (bound, deepest) {
                (true, Some(j)) => checks[j].push(c),
                _ => rest.push(c),
            }
        }
        Scope {
            bindings,
            parts,
            checks,
            rest,
        }
    }

    /// `true` if every conjunct in `idx` holds under `env`.
    fn hold(&self, idx: &[usize], env: &Env, db: &Database) -> CoreResult<bool> {
        for &c in idx {
            if !eval_formula(self.parts[c], env, db)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// `true` if the conjuncts left for the complete assignment hold.
    fn rest_holds(&self, env: &Env, db: &Database) -> CoreResult<bool> {
        self.hold(&self.rest, env, db)
    }
}

/// Enumerates the assignments of `scope.bindings[i..]` over `db`,
/// invoking `k` for each complete assignment until `k` returns `true`
/// (stop); a branch ends as soon as a conjunct checked at its depth is
/// false. Returns whether enumeration stopped.
fn enumerate<'a>(
    db: &'a Database,
    scope: &Scope<'_>,
    i: usize,
    env: &mut Env<'a>,
    k: &mut dyn FnMut(&Env<'a>) -> CoreResult<bool>,
) -> CoreResult<bool> {
    if i == scope.bindings.len() {
        return k(env);
    }
    let b = &scope.bindings[i];
    let rel = db.require(&b.table)?;
    let schema = rel.schema();
    let mut stopped = false;
    for t in rel.iter() {
        env.insert(b.var.clone(), (schema, t));
        if !scope.hold(&scope.checks[i], env, db)? {
            continue;
        }
        if enumerate(db, scope, i + 1, env, k)? {
            stopped = true;
            break;
        }
    }
    env.remove(&b.var);
    Ok(stopped)
}

/// Resolves a term under the environment.
fn resolve(term: &Term, env: &Env) -> CoreResult<Value> {
    match term {
        Term::Const(v) => Ok(v.clone()),
        Term::Attr(a) => {
            let (schema, tuple) = env
                .get(&a.var)
                .ok_or_else(|| CoreError::Invalid(format!("unbound variable '{}'", a.var)))?;
            let idx = schema
                .attr_index(&a.attr)
                .ok_or_else(|| CoreError::UnknownAttribute {
                    table: schema.name().to_string(),
                    attribute: a.attr.clone(),
                })?;
            Ok(tuple.get(idx).clone())
        }
    }
}

/// Evaluates a formula to a truth value under `env`.
fn eval_formula(f: &Formula, env: &Env, db: &Database) -> CoreResult<bool> {
    match f {
        Formula::And(fs) => {
            for sub in fs {
                if !eval_formula(sub, env, db)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(fs) => {
            for sub in fs {
                if eval_formula(sub, env, db)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Not(sub) => Ok(!eval_formula(sub, env, db)?),
        Formula::Exists(bindings, body) => {
            let mut env2 = env.clone();
            let parts = match body.as_ref() {
                Formula::And(fs) => fs.iter().collect(),
                other => vec![other],
            };
            let scope = Scope::new(bindings, parts, &env2);
            enumerate(db, &scope, 0, &mut env2, &mut |e| scope.rest_holds(e, db))
        }
        Formula::Pred(p) => {
            let l = resolve(&p.left, env)?;
            let r = resolve(&p.right, env)?;
            Ok(p.op.eval(&l, &r))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::{Catalog, TableSchema};
    use rd_trc::parser::{parse_query, parse_union};

    fn rs_db() -> (Catalog, Database) {
        let catalog = Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
        ])
        .unwrap();
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
        (catalog, db)
    }

    #[test]
    fn simple_join() {
        let (cat, db) = rs_db();
        let q = parse_query(
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B ] }",
            &cat,
        )
        .unwrap();
        let out = eval_query(&q, &db).unwrap();
        let vals: Vec<i64> = out
            .iter()
            .map(|t| match t.get(0) {
                Value::Int(i) => *i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(vals, vec![1, 2]);
    }

    #[test]
    fn negation_not_in() {
        let (cat, db) = rs_db();
        // Values of A whose B never appears in S.
        let q = parse_query(
            "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ s.B = r.B ]) ] }",
            &cat,
        )
        .unwrap();
        let out = eval_query(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.iter().next().unwrap().get(0), &Value::int(3));
    }

    #[test]
    fn relational_division() {
        let (cat, db) = rs_db();
        // A values of R co-occurring with ALL S.B values: A=1 (10 and 20).
        let q = parse_query(
            "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ \
             not (exists r2 in R [ r2.B = s.B and r2.A = r.A ]) ]) ] }",
            &cat,
        )
        .unwrap();
        let out = eval_query(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.iter().next().unwrap().get(0), &Value::int(1));
    }

    #[test]
    fn boolean_sentence() {
        let (cat, db) = rs_db();
        let t = parse_query("exists r in R [ r.A = 3 ]", &cat).unwrap();
        assert!(eval_sentence(&t, &db).unwrap());
        let f = parse_query("exists r in R [ r.A = 99 ]", &cat).unwrap();
        assert!(!eval_sentence(&f, &db).unwrap());
        // "every R.B appears in S" is false (30 is missing).
        let all = parse_query(
            "not (exists r in R [ not (exists s in S [ s.B = r.B ]) ])",
            &cat,
        )
        .unwrap();
        assert!(!eval_sentence(&all, &db).unwrap());
    }

    #[test]
    fn disjunction_and_selection() {
        let (cat, db) = rs_db();
        let q = parse_query(
            "{ q(A) | exists r in R [ q.A = r.A and (r.B = 30 or r.A = 2) ] }",
            &cat,
        )
        .unwrap();
        let out = eval_query(&q, &db).unwrap();
        let vals: Vec<&Value> = out.iter().map(|t| t.get(0)).collect();
        assert_eq!(vals, vec![&Value::int(2), &Value::int(3)]);
    }

    #[test]
    fn union_of_queries() {
        let cat =
            Catalog::from_schemas([TableSchema::new("R", ["A"]), TableSchema::new("S", ["A"])])
                .unwrap();
        let mut db = Database::uninterned();
        db.add_relation(Relation::from_rows(TableSchema::new("R", ["A"]), [[1i64], [2]]).unwrap());
        db.add_relation(Relation::from_rows(TableSchema::new("S", ["A"]), [[2i64], [3]]).unwrap());
        let u = parse_union(
            "{ q(A) | exists r in R [ q.A = r.A ] } union { q(A) | exists s in S [ q.A = s.A ] }",
            &cat,
        )
        .unwrap();
        let out = eval_union(&u, &db).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn inequality_theta_join() {
        let (cat, db) = rs_db();
        // A values with no strictly smaller value in S (Example 12 / Q3):
        // over our data every r.A (1,2,3) has S values 10,20 >= it... so
        // no smaller S value exists for none? S = {10, 20}: 10 < any A? No.
        let q = parse_query(
            "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ s.B < r.A ]) ] }",
            &cat,
        )
        .unwrap();
        let out = eval_query(&q, &db).unwrap();
        assert_eq!(out.len(), 3); // 1, 2, 3 all qualify (10, 20 not smaller)
    }

    #[test]
    fn multiple_defining_equalities_act_as_join() {
        let (cat, db) = rs_db();
        // q.A = r.A and q.A = r.B forces r.A = r.B; no such tuple exists.
        let q = parse_query("{ q(A) | exists r in R [ q.A = r.A and q.A = r.B ] }", &cat).unwrap();
        let out = eval_query(&q, &db).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn eval_on_empty_database_is_empty() {
        let (cat, _) = rs_db();
        let db = crate::uninterned(&Database::empty_for(&cat));
        let q = parse_query("{ q(A) | exists r in R [ q.A = r.A ] }", &cat).unwrap();
        assert!(eval_query(&q, &db).unwrap().is_empty());
    }

    #[test]
    fn sentence_vs_query_entrypoint_errors() {
        let (cat, db) = rs_db();
        let sentence = parse_query("exists r in R [ r.A = 1 ]", &cat).unwrap();
        assert!(eval_query(&sentence, &db).is_err());
        let query = parse_query("{ q(A) | exists r in R [ q.A = r.A ] }", &cat).unwrap();
        assert!(eval_sentence(&query, &db).is_err());
    }
}
