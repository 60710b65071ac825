//! Datalog\* → TRC\* (Appendix C, proof part 3).
//!
//! Each rule translates into an existential block: positive EDB atoms
//! become quantified tuple variables with equality predicates wiring up
//! shared Datalog variables; negated EDB atoms become `¬(∃…)` blocks; IDB
//! atoms are *inlined* (legal because Datalog\* uses every IDB at most
//! once), which keeps the translation pattern-preserving — the TRC query
//! has exactly one table reference per EDB atom of the program.

use rd_core::{Catalog, CmpOp, CoreError, CoreResult};
use rd_datalog::ast::{Atom, DlProgram, DlTerm, Literal, Rule};
use rd_trc::ast::{Binding, Formula, OutputSpec, Predicate, Term, TrcQuery};
use std::collections::BTreeMap;

struct Ctx<'a> {
    program: &'a DlProgram,
    catalog: &'a Catalog,
    idbs: std::collections::BTreeSet<String>,
    fresh: usize,
}

impl<'a> Ctx<'a> {
    fn fresh_var(&mut self) -> String {
        self.fresh += 1;
        format!("t{}", self.fresh)
    }

    fn rule_for(&self, idb: &str) -> CoreResult<&'a Rule> {
        self.program
            .rules
            .iter()
            .find(|r| r.head.pred == idb)
            .ok_or_else(|| CoreError::Invalid(format!("IDB '{idb}' has no rule")))
    }

    /// Expands a rule body into (bindings, conjunct parts) under `env`
    /// (Datalog variable → TRC term). `env` is extended with
    /// representatives for variables first bound here.
    fn expand_body(
        &mut self,
        rule: &'a Rule,
        env: &mut BTreeMap<String, Term>,
    ) -> CoreResult<(Vec<Binding>, Vec<Formula>)> {
        let mut bindings = Vec::new();
        let mut parts = Vec::new();

        // Pass 1: positive EDB atoms bind tuple variables and establish
        // representatives.
        for lit in &rule.body {
            if let Literal::Pos(atom) = lit {
                if self.idbs.contains(&atom.pred) {
                    continue;
                }
                let schema = self.catalog.require(&atom.pred)?;
                let tv = self.fresh_var();
                bindings.push(Binding::new(tv.clone(), atom.pred.clone()));
                for (i, term) in atom.terms.iter().enumerate() {
                    let attr = schema.attrs()[i].clone();
                    let local = Term::attr(tv.clone(), attr);
                    match term {
                        DlTerm::Wildcard => {}
                        DlTerm::Const(c) => parts.push(Formula::Pred(Predicate::new(
                            local,
                            CmpOp::Eq,
                            Term::Const(c.clone()),
                        ))),
                        DlTerm::Var(v) => match env.get(v) {
                            Some(rep) => parts.push(Formula::Pred(Predicate::new(
                                local,
                                CmpOp::Eq,
                                rep.clone(),
                            ))),
                            None => {
                                env.insert(v.clone(), local);
                            }
                        },
                    }
                }
            }
        }

        // Pass 2: positive IDB atoms are inlined into this scope.
        for lit in &rule.body {
            if let Literal::Pos(atom) = lit {
                if !self.idbs.contains(&atom.pred) {
                    continue;
                }
                let inner_rule = self.rule_for(&atom.pred)?;
                let mut inner_env: BTreeMap<String, Term> = BTreeMap::new();
                // Seed bound arguments; remember positions of unbound ones.
                let mut exports: Vec<(usize, String)> = Vec::new();
                for (i, (callee, caller)) in
                    inner_rule.head.terms.iter().zip(&atom.terms).enumerate()
                {
                    let hv = match callee {
                        DlTerm::Var(v) => v.clone(),
                        other => {
                            return Err(CoreError::Invalid(format!(
                                "IDB head term {other} is not a variable"
                            )))
                        }
                    };
                    match caller {
                        DlTerm::Const(c) => {
                            inner_env.insert(hv, Term::Const(c.clone()));
                        }
                        DlTerm::Var(v) => match env.get(v) {
                            Some(rep) => {
                                // The callee head var may repeat; add an
                                // equality if already seeded.
                                if let Some(prev) = inner_env.get(&hv) {
                                    parts.push(Formula::Pred(Predicate::new(
                                        prev.clone(),
                                        CmpOp::Eq,
                                        rep.clone(),
                                    )));
                                } else {
                                    inner_env.insert(hv, rep.clone());
                                }
                            }
                            None => exports.push((i, v.clone())),
                        },
                        DlTerm::Wildcard => {}
                    }
                }
                let (inner_bindings, inner_parts) = self.expand_body(inner_rule, &mut inner_env)?;
                bindings.extend(inner_bindings);
                parts.extend(inner_parts);
                // Export representatives for caller variables first bound
                // by this IDB atom.
                for (i, caller_var) in exports {
                    let hv = inner_rule.head.terms[i]
                        .as_var()
                        .expect("checked above")
                        .to_string();
                    let rep = inner_env.get(&hv).cloned().ok_or_else(|| {
                        CoreError::Invalid(format!(
                            "head variable '{hv}' of IDB '{}' unbound after expansion",
                            atom.pred
                        ))
                    })?;
                    env.insert(caller_var, rep);
                }
            }
        }

        // Pass 3: built-ins and negated atoms (all variables now bound).
        for lit in &rule.body {
            match lit {
                Literal::Pos(_) => {}
                Literal::Cmp(b) => {
                    let term = |t: &DlTerm, env: &BTreeMap<String, Term>| -> CoreResult<Term> {
                        Ok(match t {
                            DlTerm::Var(v) => env.get(v).cloned().ok_or_else(|| {
                                CoreError::Invalid(format!("unbound variable '{v}'"))
                            })?,
                            DlTerm::Const(c) => Term::Const(c.clone()),
                            DlTerm::Wildcard => {
                                return Err(CoreError::Invalid("wildcard in built-in".into()))
                            }
                        })
                    };
                    parts.push(Formula::Pred(Predicate::new(
                        term(&b.left, env)?,
                        b.op,
                        term(&b.right, env)?,
                    )));
                }
                Literal::Neg(atom) => {
                    parts.push(self.negated_atom(atom, env)?);
                }
            }
        }
        Ok((bindings, parts))
    }

    fn negated_atom(&mut self, atom: &Atom, env: &BTreeMap<String, Term>) -> CoreResult<Formula> {
        if self.idbs.contains(&atom.pred) {
            // Inline the IDB rule under the negation.
            let inner_rule = self.rule_for(&atom.pred)?;
            let mut inner_env: BTreeMap<String, Term> = BTreeMap::new();
            let mut extra_eq: Vec<Formula> = Vec::new();
            for (callee, caller) in inner_rule.head.terms.iter().zip(&atom.terms) {
                let hv = match callee {
                    DlTerm::Var(v) => v.clone(),
                    other => {
                        return Err(CoreError::Invalid(format!(
                            "IDB head term {other} is not a variable"
                        )))
                    }
                };
                let arg = match caller {
                    DlTerm::Const(c) => Term::Const(c.clone()),
                    DlTerm::Var(v) => env
                        .get(v)
                        .cloned()
                        .ok_or_else(|| CoreError::Invalid(format!("unbound variable '{v}'")))?,
                    // Leave the head position unbound: the inner body's
                    // positive atoms bind it under the negated `exists`.
                    DlTerm::Wildcard => continue,
                };
                if let Some(prev) = inner_env.get(&hv) {
                    extra_eq.push(Formula::Pred(Predicate::new(prev.clone(), CmpOp::Eq, arg)));
                } else {
                    inner_env.insert(hv, arg);
                }
            }
            let (bindings, mut parts) = self.expand_body(inner_rule, &mut inner_env)?;
            parts.extend(extra_eq);
            let body = Formula::and(parts);
            Ok(Formula::not(if bindings.is_empty() {
                body
            } else {
                Formula::exists(bindings, body)
            }))
        } else {
            // Negated EDB atom: ¬(∃t ∈ R [t.Aᵢ = repᵢ ∧ …]).
            let schema = self.catalog.require(&atom.pred)?;
            let tv = self.fresh_var();
            let mut parts = Vec::new();
            for (i, term) in atom.terms.iter().enumerate() {
                let local = Term::attr(tv.clone(), schema.attrs()[i].clone());
                match term {
                    DlTerm::Wildcard => {}
                    DlTerm::Const(c) => parts.push(Formula::Pred(Predicate::new(
                        local,
                        CmpOp::Eq,
                        Term::Const(c.clone()),
                    ))),
                    DlTerm::Var(v) => {
                        let rep = env
                            .get(v)
                            .cloned()
                            .ok_or_else(|| CoreError::Invalid(format!("unbound variable '{v}'")))?;
                        parts.push(Formula::Pred(Predicate::new(local, CmpOp::Eq, rep)));
                    }
                }
            }
            Ok(Formula::not(Formula::exists(
                vec![Binding::new(tv, atom.pred.clone())],
                Formula::and(parts),
            )))
        }
    }
}

/// Translates a Datalog\* program into a pattern-isomorphic TRC\* query
/// whose output attributes are named after the query's head variables.
pub fn datalog_to_trc(p: &DlProgram, catalog: &Catalog) -> CoreResult<TrcQuery> {
    translate(p, catalog, None)
}

/// [`datalog_to_trc`] with the output attributes named `head` (one per
/// query head term) instead of after the head variables.
pub(crate) fn datalog_to_trc_named(
    p: &DlProgram,
    catalog: &Catalog,
    head: &[String],
) -> CoreResult<TrcQuery> {
    translate(p, catalog, Some(head))
}

fn translate(p: &DlProgram, catalog: &Catalog, head: Option<&[String]>) -> CoreResult<TrcQuery> {
    rd_datalog::check::check_program(p, catalog)?;
    if !rd_datalog::check::is_datalog_star(p) {
        return Err(CoreError::Invalid(
            "program is outside Datalog* (Definition 1)".into(),
        ));
    }
    let mut ctx = Ctx {
        program: p,
        catalog,
        idbs: p.idbs(),
        fresh: 0,
    };
    let query_rule = ctx.rule_for(&p.query)?;
    let mut env = BTreeMap::new();
    let (bindings, mut parts) = ctx.expand_body(query_rule, &mut env)?;
    // Output head: one attribute per head variable, named after it or by
    // `head`.
    let head_vars: Vec<String> = query_rule
        .head
        .terms
        .iter()
        .map(|t| match t {
            DlTerm::Var(v) => Ok(v.clone()),
            other => Err(CoreError::Invalid(format!(
                "query head term {other} is not a variable"
            ))),
        })
        .collect::<CoreResult<_>>()?;
    let names = head.map_or_else(|| head_vars.clone(), <[String]>::to_vec);
    debug_assert_eq!(
        names.len(),
        head_vars.len(),
        "one output name per head term"
    );
    let mut defining = Vec::with_capacity(head_vars.len());
    for (v, name) in head_vars.iter().zip(&names) {
        let rep = env
            .get(v)
            .cloned()
            .ok_or_else(|| CoreError::Invalid(format!("head variable '{v}' unbound")))?;
        defining.push(Formula::Pred(Predicate::new(
            Term::attr("q", name.clone()),
            CmpOp::Eq,
            rep,
        )));
    }
    defining.append(&mut parts);
    let q = TrcQuery::query(
        OutputSpec::new("q", names),
        Formula::exists(bindings, Formula::and(defining)),
    );
    q.check(catalog)?;
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::{Database, Relation, TableSchema};
    use rd_datalog::eval::eval_program;
    use rd_datalog::parser::parse_program;
    use rd_trc::check::is_nondisjunctive;
    use rd_trc::eval::eval_query;

    fn catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
            TableSchema::new("T", ["A"]),
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
        db.add_relation(Relation::from_rows(TableSchema::new("T", ["A"]), [[1i64], [9]]).unwrap());
        db
    }

    fn agree_and_preserve(program: &str) {
        let p = parse_program(program, &catalog()).unwrap();
        let q = datalog_to_trc(&p, &catalog()).unwrap();
        assert!(is_nondisjunctive(&q), "not TRC*: {q}");
        // Pattern isomorphism is defined up to permutation (Def. 12), so
        // compare signatures as multisets.
        let mut a = q.signature();
        let mut b = p.signature();
        a.sort();
        b.sort();
        assert_eq!(a, b, "signature not preserved for:\n{program}\ntrc: {q}");
        let dl_out = eval_program(&p, &db()).unwrap();
        let trc_out = eval_query(&q, &db()).unwrap();
        assert_eq!(
            trc_out.tuples(),
            dl_out.tuples(),
            "mismatch for:\n{program}\ntrc: {q}"
        );
    }

    #[test]
    fn conjunctive_rules() {
        agree_and_preserve("Q(x) :- R(x, y), S(y).");
        agree_and_preserve("Q(x, y) :- R(x, y), y > 15.");
        agree_and_preserve("Q(x) :- R(x, 10).");
        agree_and_preserve("Q(x) :- R(x, _), T(x).");
    }

    #[test]
    fn single_negation() {
        agree_and_preserve("Q(x, y) :- R(x, y), not S(y).");
    }

    #[test]
    fn division_with_idb_inlining() {
        agree_and_preserve("I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).");
    }

    #[test]
    fn positive_idb_inlines_into_same_scope() {
        agree_and_preserve("I(y) :- R(_, y), not S(y).\nQ(x, y) :- R(x, y), I(y).");
    }

    #[test]
    fn positive_idb_binding_a_fresh_variable() {
        // x is first bound inside the positive IDB atom.
        agree_and_preserve("I(x) :- T(x).\nQ(x) :- I(x).");
    }

    #[test]
    fn three_level_negation_chain() {
        agree_and_preserve(
            "I1(y) :- S(y), not R(1, y).\nI2(x, y) :- R(x, y), not I1(y).\nQ(x) :- T(x), I2(x, _).",
        );
    }

    #[test]
    fn wildcard_argument_to_a_negated_idb() {
        // T rows with no R row (any B) on their A, and R rows whose B is
        // not the B of any R row with A = 1 (the wildcard sits first).
        for program in [
            "I(x, y) :- R(x, y).\nQ(x) :- T(x), not I(x, _).",
            "I(x, y) :- R(x, y), x = 1.\nQ(x, y) :- R(x, y), not I(_, y).",
        ] {
            let p = parse_program(program, &catalog()).unwrap();
            let q = datalog_to_trc(&p, &catalog()).unwrap();
            assert_eq!(q.signature().len(), p.signature().len(), "{q}");
            let raw = rd_oracle::uninterned(&db());
            let expected = rd_oracle::datalog::eval_program(&p, &raw).unwrap();
            assert!(!expected.is_empty(), "{program}");
            assert_eq!(
                eval_query(&q, &db()).unwrap().tuples(),
                expected.tuples(),
                "{program}\ntrc: {q}"
            );
        }
    }

    #[test]
    fn repeated_variable_within_atom() {
        let mut d = db();
        d.relation_mut("R")
            .unwrap()
            .insert_values([7i64, 7])
            .unwrap();
        let p = parse_program("Q(x) :- R(x, x).", &catalog()).unwrap();
        let q = datalog_to_trc(&p, &catalog()).unwrap();
        let out = eval_query(&q, &d).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn rejects_disjunctive_programs() {
        let p =
            rd_datalog::parser::parse_program_unchecked("Q(x) :- T(x).\nQ(x) :- R(x, _).").unwrap();
        assert!(datalog_to_trc(&p, &catalog()).is_err());
    }
}
