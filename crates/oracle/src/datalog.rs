//! Bottom-up evaluation of non-recursive Datalog¬ programs — the Datalog
//! reference interpreter.
//!
//! IDBs are computed in topological order. Each rule is evaluated by
//! extending a set of variable bindings across the positive atoms (in
//! source order), filtering by built-ins and negated atoms, and projecting
//! the head. Multiple rules for the same IDB union their results (this is
//! how Datalog expresses disjunction, §2.1).

use rd_core::{CoreError, CoreResult, Database, Relation, TableSchema, Tuple, Value};
use rd_datalog::ast::{Atom, DlProgram, DlTerm, Literal, Rule};
use rd_datalog::check::topo_order;
use std::collections::BTreeMap;

/// A variable binding during rule evaluation.
type Bindings = BTreeMap<String, Value>;

/// Evaluates the program's query predicate over `db`, returning a relation
/// whose attribute names are positional (`x1`, `x2`, …).
pub fn eval_program(p: &DlProgram, db: &Database) -> CoreResult<Relation> {
    crate::require_uninterned(db)?;
    let mut computed: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    for idb in topo_order(p) {
        let mut tuples: Vec<Tuple> = Vec::new();
        for rule in p.rules.iter().filter(|r| r.head.pred == idb) {
            let rows = eval_rule(rule, db, &computed)?;
            for row in rows {
                if !tuples.contains(&row) {
                    tuples.push(row);
                }
            }
        }
        computed.insert(idb, tuples);
    }
    let rows = computed
        .remove(&p.query)
        .ok_or_else(|| CoreError::Invalid(format!("query predicate '{}' not computed", p.query)))?;
    let arity = p
        .rules
        .iter()
        .find(|r| r.head.pred == p.query)
        .map(|r| r.head.terms.len())
        .unwrap_or(0);
    let schema = TableSchema::new(
        p.query.clone(),
        (1..=arity).map(|i| format!("x{i}")).collect::<Vec<_>>(),
    );
    let mut rel = Relation::empty(schema);
    for row in rows {
        rel.insert(row)?;
    }
    Ok(rel)
}

fn relation_tuples<'a>(
    pred: &str,
    db: &'a Database,
    computed: &'a BTreeMap<String, Vec<Tuple>>,
) -> CoreResult<Vec<&'a Tuple>> {
    if let Some(rows) = computed.get(pred) {
        return Ok(rows.iter().collect());
    }
    Ok(db.require(pred)?.iter().collect())
}

/// `true` if `tuple` matches `atom` under `b` *without* extending it
/// (used for negated atoms, whose variables are all bound by safety).
fn matches_bound(atom: &Atom, tuple: &Tuple, b: &Bindings) -> bool {
    atom.terms.iter().enumerate().all(|(i, t)| match t {
        DlTerm::Wildcard => true,
        DlTerm::Const(c) => tuple.get(i) == c,
        DlTerm::Var(v) => b.get(v).is_some_and(|bound| bound == tuple.get(i)),
    })
}

/// Extends `b` with the match of `tuple` against `atom`; `None` on clash.
fn extend(atom: &Atom, tuple: &Tuple, b: &Bindings) -> Option<Bindings> {
    let mut out = b.clone();
    for (i, t) in atom.terms.iter().enumerate() {
        match t {
            DlTerm::Wildcard => {}
            DlTerm::Const(c) => {
                if tuple.get(i) != c {
                    return None;
                }
            }
            DlTerm::Var(v) => match out.get(v) {
                Some(bound) => {
                    if bound != tuple.get(i) {
                        return None;
                    }
                }
                None => {
                    out.insert(v.clone(), tuple.get(i).clone());
                }
            },
        }
    }
    Some(out)
}

fn resolve(term: &DlTerm, b: &Bindings) -> CoreResult<Value> {
    match term {
        DlTerm::Const(c) => Ok(c.clone()),
        DlTerm::Var(v) => b
            .get(v)
            .cloned()
            .ok_or_else(|| CoreError::Invalid(format!("unbound variable '{v}'"))),
        DlTerm::Wildcard => Err(CoreError::Invalid(
            "wildcard cannot be resolved to a value".into(),
        )),
    }
}

fn eval_rule(
    rule: &Rule,
    db: &Database,
    computed: &BTreeMap<String, Vec<Tuple>>,
) -> CoreResult<Vec<Tuple>> {
    // Seed with the empty binding, extend through positive atoms first
    // (source order), then apply built-ins and negations (their variables
    // are guaranteed bound by safety).
    let mut bindings = vec![Bindings::new()];
    for lit in &rule.body {
        if let Literal::Pos(atom) = lit {
            let rel = relation_tuples(&atom.pred, db, computed)?;
            let mut next = Vec::new();
            for b in &bindings {
                for tuple in &rel {
                    if let Some(extended) = extend(atom, tuple, b) {
                        next.push(extended);
                    }
                }
            }
            bindings = next;
            if bindings.is_empty() {
                return Ok(Vec::new());
            }
        }
    }
    for lit in &rule.body {
        match lit {
            Literal::Pos(_) => {}
            Literal::Cmp(builtin) => {
                let mut next = Vec::new();
                for b in bindings {
                    let l = resolve(&builtin.left, &b)?;
                    let r = resolve(&builtin.right, &b)?;
                    if builtin.op.eval(&l, &r) {
                        next.push(b);
                    }
                }
                bindings = next;
            }
            Literal::Neg(atom) => {
                let rel = relation_tuples(&atom.pred, db, computed)?;
                let mut next = Vec::new();
                for b in bindings {
                    if !rel.iter().any(|t| matches_bound(atom, t, &b)) {
                        next.push(b);
                    }
                }
                bindings = next;
            }
        }
        if bindings.is_empty() {
            return Ok(Vec::new());
        }
    }
    let mut out = Vec::new();
    for b in bindings {
        let row: Vec<Value> = rule
            .head
            .terms
            .iter()
            .map(|t| resolve(t, &b))
            .collect::<CoreResult<_>>()?;
        out.push(Tuple(row));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::Catalog;
    use rd_datalog::parser::parse_program;

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

    fn catalog() -> Catalog {
        db().catalog()
    }

    fn ints(r: &Relation) -> Vec<i64> {
        r.iter()
            .map(|t| match t.get(0) {
                Value::Int(i) => *i,
                _ => panic!(),
            })
            .collect()
    }

    #[test]
    fn single_rule_join() {
        let p = parse_program("Q(x) :- R(x, y), S(y).", &catalog()).unwrap();
        let out = eval_program(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1, 2]);
    }

    #[test]
    fn negation_not_in() {
        let p = parse_program("Q(x, y) :- R(x, y), not S(y).", &catalog()).unwrap();
        let out = eval_program(&p, &db()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.iter().next().unwrap(), &Tuple::new([3i64, 30]));
    }

    #[test]
    fn division_two_rules() {
        let p = parse_program(
            "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
            &catalog(),
        )
        .unwrap();
        let out = eval_program(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1]);
    }

    #[test]
    fn builtins_filter() {
        let p = parse_program("Q(x) :- R(x, y), y > 15.", &catalog()).unwrap();
        let out = eval_program(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1, 3]);
    }

    #[test]
    fn constants_in_atoms() {
        let p = parse_program("Q(x) :- R(x, 10).", &catalog()).unwrap();
        let out = eval_program(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1, 2]);
    }

    #[test]
    fn union_via_multiple_rules() {
        // Values in R.A with B=10, union values with B=30.
        let p = parse_program("Q(x) :- R(x, 10).\nQ(x) :- R(x, 30).", &catalog()).unwrap();
        let out = eval_program(&p, &db()).unwrap();
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
        let out = eval_program(&p, &d).unwrap();
        assert_eq!(ints(&out), vec![7]);
    }

    #[test]
    fn empty_result_when_edb_empty() {
        let p = parse_program("Q(x) :- R(x, y), S(y).", &catalog()).unwrap();
        let empty = crate::uninterned(&Database::empty_for(&catalog()));
        let out = eval_program(&p, &empty).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn three_level_idb_chain() {
        let p = parse_program(
            "I1(x) :- R(x, _).\nI2(x) :- I1(x), not S(x).\nQ(x) :- I2(x).",
            &catalog(),
        )
        .unwrap();
        let out = eval_program(&p, &db()).unwrap();
        // A values 1,2,3; none of them appear in S (10, 20).
        assert_eq!(ints(&out), vec![1, 2, 3]);
    }
}
