//! RA\* → Datalog\* (Appendix C, proof part 1) plus the antijoin case of
//! Theorem 21 (part 1).
//!
//! SPJR (select/project/join/rename) sub-expressions compile into a single
//! rule body; each difference or antijoin introduces one fresh IDB for its
//! right operand, exactly mirroring the paper's case analysis. The
//! translation is pattern-preserving: every base-table leaf of the RA
//! expression becomes exactly one EDB atom. The one exception is an
//! antijoin whose condition is not all equalities, which lies outside
//! Theorem 21 and re-reads the left tables its condition compares.
//!
//! The two constructs outside RA\* compile the way Datalog expresses
//! disjunction, by repeating a head: `∪` becomes a fresh IDB with one rule
//! per operand, and each disjunction in a σ a fresh IDB with one rule per
//! disjunct. [`ra_to_datalog`] refuses them (its output stays Datalog\*);
//! the hub translation (`ra_to_trc`) takes the program whole.

use rd_core::{Catalog, CmpOp, CoreError, CoreResult};
use rd_datalog::ast::{Atom, BuiltIn, DlProgram, DlTerm, Literal, Rule};
use rd_datalog::check::is_datalog_star;
use rd_ra::ast::{Condition, JoinCond, RaExpr, RaTerm};
use std::collections::hash_map::{Entry, HashMap};

/// State threaded through the compilation.
struct Compiler<'a> {
    catalog: &'a Catalog,
    rules: Vec<Rule>,
    next_idb: usize,
    next_var: usize,
}

/// A compiled sub-expression: body literals plus the mapping from the
/// expression's schema attributes to Datalog variables.
struct Body {
    literals: Vec<Literal>,
    /// (attribute name, variable) in schema order.
    attr_vars: Vec<(String, String)>,
}

impl Body {
    fn var_of(&self, attr: &str) -> CoreResult<&str> {
        self.attr_vars
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| CoreError::Invalid(format!("attribute '{attr}' missing in body")))
    }
}

impl<'a> Compiler<'a> {
    fn fresh_var(&mut self) -> String {
        self.next_var += 1;
        format!("v{}", self.next_var)
    }

    /// A fresh IDB name; never a catalog table's, which it would shadow.
    fn fresh_idb(&mut self) -> String {
        self.next_idb += 1;
        self.catalog.fresh_name(&format!("I{}", self.next_idb))
    }

    /// Compiles `e` into a conjunctive body (emitting auxiliary rules for
    /// difference / antijoin right-hand sides, unions and disjunctions).
    fn compile(&mut self, e: &RaExpr) -> CoreResult<Body> {
        match e {
            RaExpr::Table(t) => {
                let schema = self.catalog.require(t)?;
                let attr_vars: Vec<(String, String)> = schema
                    .attrs()
                    .iter()
                    .map(|a| (a.clone(), self.fresh_var()))
                    .collect();
                let terms: Vec<DlTerm> = attr_vars
                    .iter()
                    .map(|(_, v)| DlTerm::var(v.clone()))
                    .collect();
                Ok(Body {
                    literals: vec![Literal::Pos(Atom::new(t.clone(), terms))],
                    attr_vars,
                })
            }
            RaExpr::Project(attrs, inner) => {
                let body = self.compile(inner)?;
                let attr_vars = attrs
                    .iter()
                    .map(|a| Ok((a.clone(), body.var_of(a)?.to_string())))
                    .collect::<CoreResult<_>>()?;
                Ok(Body {
                    literals: body.literals,
                    attr_vars,
                })
            }
            RaExpr::Select(cond, inner) => {
                let body = self.compile(inner)?;
                self.select(cond, body)
            }
            RaExpr::Rename(renames, inner) => {
                let mut body = self.compile(inner)?;
                for (from, to) in renames {
                    let slot = body
                        .attr_vars
                        .iter_mut()
                        .find(|(a, _)| a == from)
                        .ok_or_else(|| {
                            CoreError::Invalid(format!("rename source '{from}' missing"))
                        })?;
                    slot.0 = to.clone();
                }
                Ok(body)
            }
            RaExpr::Product(l, r) => {
                let lb = self.compile(l)?;
                let rb = self.compile(r)?;
                let mut literals = lb.literals;
                literals.extend(rb.literals);
                let mut attr_vars = lb.attr_vars;
                attr_vars.extend(rb.attr_vars);
                Ok(Body {
                    literals,
                    attr_vars,
                })
            }
            RaExpr::Join(cond, l, r) => {
                let lb = self.compile(l)?;
                let rb = self.compile(r)?;
                let mut builtins = Vec::new();
                for (la, op, ra) in &cond.0 {
                    builtins.push(BuiltIn::new(
                        DlTerm::var(lb.var_of(la)?),
                        *op,
                        DlTerm::var(rb.var_of(ra)?),
                    ));
                }
                let mut literals = lb.literals;
                literals.extend(rb.literals);
                literals.extend(builtins.into_iter().map(Literal::Cmp));
                let mut attr_vars = lb.attr_vars;
                attr_vars.extend(rb.attr_vars);
                Ok(Body {
                    literals,
                    attr_vars,
                })
            }
            RaExpr::NaturalJoin(l, r) => {
                let lb = self.compile(l)?;
                let rb = self.compile(r)?;
                // Unify shared attribute variables via equality built-ins.
                let mut literals = lb.literals;
                literals.extend(rb.literals.clone());
                let mut attr_vars = lb.attr_vars.clone();
                for (a, rv) in &rb.attr_vars {
                    match lb.attr_vars.iter().find(|(la, _)| la == a) {
                        Some((_, lv)) => literals.push(Literal::Cmp(BuiltIn::new(
                            DlTerm::var(lv.clone()),
                            CmpOp::Eq,
                            DlTerm::var(rv.clone()),
                        ))),
                        None => attr_vars.push((a.clone(), rv.clone())),
                    }
                }
                Ok(Body {
                    literals,
                    attr_vars,
                })
            }
            RaExpr::Diff(l, r) => {
                let lb = self.compile(l)?;
                // Right side becomes its own IDB (paper case 5) unless it
                // is a plain table, which is negated in place.
                let neg = self.negatable(r, &lb, None)?;
                let mut literals = lb.literals;
                literals.push(neg);
                Ok(Body {
                    literals,
                    attr_vars: lb.attr_vars,
                })
            }
            RaExpr::Antijoin(cond, l, r) if cond.0.iter().any(|(_, op, _)| *op != CmpOp::Eq) => {
                let lb = self.compile(l)?;
                let neg = self.theta_negatable(cond, r, &lb)?;
                let mut literals = lb.literals;
                literals.push(neg);
                Ok(Body {
                    literals,
                    attr_vars: lb.attr_vars,
                })
            }
            RaExpr::Antijoin(cond, l, r) => {
                let lb = self.compile(l)?;
                let pairs: Vec<(String, String)> = if cond.0.is_empty() {
                    // Natural antijoin: shared attribute names.
                    let rs = r.schema(self.catalog)?;
                    lb.attr_vars
                        .iter()
                        .filter(|(a, _)| rs.contains(a))
                        .map(|(a, _)| (a.clone(), a.clone()))
                        .collect()
                } else {
                    cond.0
                        .iter()
                        .map(|(la, _, ra)| (la.clone(), ra.clone()))
                        .collect()
                };
                let neg = self.negatable(r, &lb, Some(&pairs))?;
                let mut literals = lb.literals;
                literals.push(neg);
                Ok(Body {
                    literals,
                    attr_vars: lb.attr_vars,
                })
            }
            RaExpr::Union(l, r) => {
                let (lb, rb) = (self.compile(l)?, self.compile(r)?);
                // Identical schemas: the right rule's head lists its
                // variables in the left's attribute order.
                let right_head = lb
                    .attr_vars
                    .iter()
                    .map(|(a, _)| Ok(DlTerm::var(rb.var_of(a)?)))
                    .collect::<CoreResult<Vec<_>>>()?;
                let idb = self.fresh_idb();
                let head = Atom::new(
                    idb.clone(),
                    lb.attr_vars.iter().map(|(_, v)| DlTerm::var(v)),
                );
                self.rules.push(Rule::new(head.clone(), lb.literals));
                self.rules
                    .push(Rule::new(Atom::new(idb, right_head), rb.literals));
                Ok(Body {
                    literals: vec![Literal::Pos(head)],
                    attr_vars: lb.attr_vars,
                })
            }
        }
    }

    /// `body` filtered by `cond`: comparisons join it as built-ins, and
    /// each disjunction becomes a fresh IDB with one rule per disjunct,
    /// each rule a copy of the body filtered by its disjunct.
    fn select(&mut self, cond: &Condition, mut body: Body) -> CoreResult<Body> {
        match cond {
            Condition::Cmp(l, op, r) => {
                let b = BuiltIn::new(self.term(l, &body)?, *op, self.term(r, &body)?);
                body.literals.push(Literal::Cmp(b));
                Ok(body)
            }
            Condition::And(cs) => cs.iter().try_fold(body, |body, c| self.select(c, body)),
            Condition::Or(cs) => {
                let idb = self.fresh_idb();
                let head = Atom::new(idb, body.attr_vars.iter().map(|(_, v)| DlTerm::var(v)));
                for c in cs {
                    let copy = Body {
                        literals: body.literals.clone(),
                        attr_vars: body.attr_vars.clone(),
                    };
                    let rule = self.select(c, copy)?;
                    self.rules.push(Rule::new(head.clone(), rule.literals));
                }
                Ok(Body {
                    literals: vec![Literal::Pos(head)],
                    attr_vars: body.attr_vars,
                })
            }
        }
    }

    /// Builds the negated literal for a difference/antijoin right operand.
    /// `pairs` maps left attribute → right attribute for antijoins (`None`
    /// means full-schema equality, i.e. set difference).
    fn negatable(
        &mut self,
        r: &RaExpr,
        left: &Body,
        pairs: Option<&[(String, String)]>,
    ) -> CoreResult<Literal> {
        let rb = self.compile(r)?;
        let join_pairs: Vec<(String, String)> = match pairs {
            Some(ps) => ps.to_vec(),
            None => rb
                .attr_vars
                .iter()
                .map(|(a, _)| (a.clone(), a.clone()))
                .collect(),
        };
        // Fast path: the right side is a single positive EDB atom with no
        // extra conditions — negate it in place (paper's inline form, as
        // in eq. 16). The atom's joined positions take the left's
        // variables; remaining positions become wildcards.
        if rb.literals.len() == 1 {
            if let Literal::Pos(atom) = &rb.literals[0] {
                let mut terms = Vec::with_capacity(atom.terms.len());
                for (i, t) in atom.terms.iter().enumerate() {
                    let attr = &rb
                        .attr_vars
                        .iter()
                        .find(|(_, v)| matches!(t, DlTerm::Var(tv) if tv == v));
                    let joined = attr.as_ref().and_then(|(a, _)| {
                        join_pairs
                            .iter()
                            .find(|(_, ra)| ra == a)
                            .map(|(la, _)| la.clone())
                    });
                    match joined {
                        Some(la) => terms.push(DlTerm::var(left.var_of(&la)?)),
                        None => {
                            let _ = i;
                            terms.push(DlTerm::Wildcard);
                        }
                    }
                }
                return Ok(Literal::Neg(Atom::new(atom.pred.clone(), terms)));
            }
        }
        // General path: fresh IDB for the right side, negated with the
        // left's variables at the joined positions.
        let idb = self.fresh_idb();
        let head_terms: Vec<DlTerm> = join_pairs
            .iter()
            .map(|(_, ra)| Ok(DlTerm::var(rb.var_of(ra)?)))
            .collect::<CoreResult<_>>()?;
        self.rules
            .push(Rule::new(Atom::new(idb.clone(), head_terms), rb.literals));
        let call_terms: Vec<DlTerm> = join_pairs
            .iter()
            .map(|(la, _)| Ok(DlTerm::var(left.var_of(la)?)))
            .collect::<CoreResult<_>>()?;
        Ok(Literal::Neg(Atom::new(idb, call_terms)))
    }

    /// The negated literal for `L ⊲_θ R` when θ is not all equalities.
    /// Theorem 21's case 6 fills the negated atom with the left's
    /// variables at the equated positions; a `<` instead compares the
    /// right's variables with the left's, so the fresh IDB must bind the
    /// left's values itself. It re-reads, once each, the tables the
    /// compared left attributes come from (the positive atom in L's body
    /// that binds each one): `J(ā) :- T(…ā…), R, θ`. Those tables hold
    /// every value L can take, so `not J(ā)` keeps exactly the L rows
    /// with no θ-partner in R. This is `L − π_L(L ⋈_θ R)` with the second
    /// copy of L cut down to the tables θ reads, which keeps the
    /// translation linear in the size of the expression.
    fn theta_negatable(&mut self, cond: &JoinCond, r: &RaExpr, left: &Body) -> CoreResult<Literal> {
        let rb = self.compile(r)?;
        let mut reread: HashMap<usize, Vec<String>> = HashMap::new();
        let mut literals = Vec::new();
        let mut builtins = Vec::new();
        let (mut head, mut call) = (Vec::new(), Vec::new());
        for (la, op, ra) in &cond.0 {
            let v = left.var_of(la)?;
            let (leaf, atom, pos) = binding_atom(&left.literals, v)
                .ok_or_else(|| CoreError::Invalid(format!("attribute '{la}' has no table")))?;
            if let Entry::Vacant(slot) = reread.entry(leaf) {
                let vars: Vec<String> = atom.terms.iter().map(|_| self.fresh_var()).collect();
                literals.push(Literal::Pos(Atom::new(
                    atom.pred.clone(),
                    vars.iter().map(DlTerm::var),
                )));
                slot.insert(vars);
            }
            let u = &reread[&leaf][pos];
            if !call.contains(&v) {
                head.push(DlTerm::var(u));
                call.push(v);
            }
            builtins.push(BuiltIn::new(
                DlTerm::var(u),
                *op,
                DlTerm::var(rb.var_of(ra)?),
            ));
        }
        literals.extend(rb.literals);
        literals.extend(builtins.into_iter().map(Literal::Cmp));
        let idb = self.fresh_idb();
        self.rules
            .push(Rule::new(Atom::new(idb.clone(), head), literals));
        Ok(Literal::Neg(Atom::new(
            idb,
            call.into_iter().map(DlTerm::var),
        )))
    }

    fn term(&self, t: &RaTerm, body: &Body) -> CoreResult<DlTerm> {
        Ok(match t {
            RaTerm::Attr(a) => DlTerm::var(body.var_of(a)?),
            RaTerm::Const(v) => DlTerm::Const(v.clone()),
        })
    }
}

/// The positive atom in `literals` that binds `var`: its index, the atom
/// and the variable's position in it. Compiled bodies bind every
/// attribute variable in the table atom that introduced it.
fn binding_atom<'b>(literals: &'b [Literal], var: &str) -> Option<(usize, &'b Atom, usize)> {
    literals.iter().enumerate().find_map(|(i, lit)| match lit {
        Literal::Pos(atom) => atom
            .terms
            .iter()
            .position(|t| matches!(t, DlTerm::Var(tv) if tv == var))
            .map(|pos| (i, atom, pos)),
        _ => None,
    })
}

/// Translates an RA\* (or RA\*⊲) expression into a Datalog\* program with
/// query predicate `Q` (IDB names that would shadow a catalog table get a
/// numeric suffix). Unions and disjunctive selections, which lie outside
/// RA\* (Definition 2), are refused.
pub fn ra_to_datalog(e: &RaExpr, catalog: &Catalog) -> CoreResult<DlProgram> {
    let program = ra_to_program(e, catalog)?;
    if !is_datalog_star(&program) {
        return Err(CoreError::Invalid(
            "union and disjunctive selection are outside RA* (Definition 2); their Datalog \
             form repeats a rule head, which Datalog* does not allow"
                .into(),
        ));
    }
    Ok(program)
}

/// [`ra_to_datalog`] for any RA expression: unions and disjunctions
/// become IDBs defined by several rules.
pub(crate) fn ra_to_program(e: &RaExpr, catalog: &Catalog) -> CoreResult<DlProgram> {
    let mut c = Compiler {
        catalog,
        rules: Vec::new(),
        next_idb: 0,
        next_var: 0,
    };
    let body = c.compile(e)?;
    let head_terms: Vec<DlTerm> = body
        .attr_vars
        .iter()
        .map(|(_, v)| DlTerm::var(v.clone()))
        .collect();
    let mut rules = c.rules;
    rules.push(Rule::new(
        Atom::new(catalog.fresh_name("Q"), head_terms),
        body.literals,
    ));
    let program = DlProgram::new(rules);
    rd_datalog::check::check_program(&program, catalog)?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_datalog;
    use rd_core::{Database, Relation, TableSchema};
    use rd_ra::parser::parse as ra_parse;

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

    /// The RA reference interpreter's rows (an int-only fixture, so the
    /// uninterned copy's rows equal the engine's).
    fn ra_eval(e: &RaExpr, db: &Database) -> std::collections::BTreeSet<rd_core::Tuple> {
        rd_oracle::ra::eval(e, &rd_oracle::uninterned(db))
            .unwrap()
            .tuples
    }

    fn agree(ra_text: &str) {
        let e = ra_parse(ra_text, &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        assert!(is_datalog_star(&p), "not Datalog*:\n{p}");
        let ra_out = ra_eval(&e, &db());
        let dl_out = eval_datalog(&p, &db()).unwrap();
        assert_eq!(
            &ra_out,
            dl_out.tuples(),
            "mismatch for {ra_text}\nprogram:\n{p}"
        );
    }

    #[test]
    fn spj_expressions_agree() {
        agree("pi[A](R)");
        agree("sigma[B>15](R)");
        agree("pi[A](sigma[B=10](R))");
        agree("R join[B=B2] rho[B->B2](S)");
        agree("pi[A](R) x rho[B->C](S)");
        agree("R join S");
    }

    #[test]
    fn difference_against_table_inlines_negation() {
        let e = ra_parse("pi[B](R) - S", &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        // The S reference must appear as a single negated EDB atom.
        assert_eq!(p.signature(), vec!["R", "S"]);
        agree("pi[B](R) - S");
    }

    #[test]
    fn division_agrees_and_preserves_signature() {
        let text = "pi[A](R) - pi[A]((pi[A](R) x S) - R)";
        let e = ra_parse(text, &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        let (mut a, mut b) = (p.signature(), e.signature());
        a.sort();
        b.sort();
        assert_eq!(a, b);
        agree(text);
    }

    #[test]
    fn antijoin_translates_per_theorem21() {
        let text = "R antijoin[B=B] S";
        let e = ra_parse(text, &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        assert!(is_datalog_star(&p));
        assert_eq!(p.signature(), vec!["R", "S"]);
        let ra_out = ra_eval(&e, &db());
        let dl_out = eval_datalog(&p, &db()).unwrap();
        assert_eq!(&ra_out, dl_out.tuples());
    }

    #[test]
    fn non_equality_antijoin_keeps_its_comparison() {
        // R ⊲_{A<C} S keeps the R rows with no S row above their A: with
        // S = {3}, (1, 10) has a partner (1 < 3) and (5, 20) has none.
        let catalog = Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["C"]),
        ])
        .unwrap();
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(TableSchema::new("R", ["A", "B"]), [[1i64, 10], [5, 20]]).unwrap(),
        );
        db.add_relation(Relation::from_rows(TableSchema::new("S", ["C"]), [[3i64]]).unwrap());
        let e = ra_parse("R antijoin[A<C] S", &catalog).unwrap();
        let p = ra_to_datalog(&e, &catalog).unwrap();
        assert!(is_datalog_star(&p), "not Datalog*:\n{p}");
        let expected = [rd_core::Tuple::new([5i64, 20])];
        assert_eq!(ra_eval(&e, &db).into_iter().collect::<Vec<_>>(), expected);
        assert_eq!(
            eval_datalog(&p, &db)
                .unwrap()
                .tuples()
                .iter()
                .cloned()
                .collect::<Vec<_>>(),
            expected,
            "program:\n{p}"
        );
        // Mixed conditions take the same rewrite.
        let e = ra_parse("R antijoin[A<C and B=C] S", &catalog).unwrap();
        let p = ra_to_datalog(&e, &catalog).unwrap();
        assert_eq!(
            eval_datalog(&p, &db).unwrap().tuples(),
            &ra_eval(&e, &db),
            "program:\n{p}"
        );
    }

    #[test]
    fn nested_antijoin_division_example17() {
        let text = "pi[A](R) antijoin pi[A]((pi[A](R) x S) antijoin R)";
        let e = ra_parse(text, &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        let (mut a, mut b) = (p.signature(), e.signature());
        a.sort();
        b.sort();
        assert_eq!(a, b);
        agree(text);
    }

    #[test]
    fn union_rejected() {
        let e = ra_parse("pi[B](R) union S", &catalog()).unwrap();
        assert!(ra_to_datalog(&e, &catalog()).is_err());
    }

    #[test]
    fn disjunctive_selection_rejected() {
        let e = ra_parse("sigma[A=1 or B=2](R)", &catalog()).unwrap();
        assert!(ra_to_datalog(&e, &catalog()).is_err());
    }
}
