//! Datalog → the TRC hub (Appendix C, proof part 3, widened to every
//! non-recursive program).
//!
//! Each rule translates into an existential block: positive EDB atoms
//! become quantified tuple variables with equality predicates wiring up
//! shared Datalog variables; negated EDB atoms become `¬(∃…)` blocks; IDB
//! atoms are *inlined*. On Datalog\* (every IDB defined by one rule and
//! used at most once) this is pattern-preserving: the TRC query has
//! exactly one table reference per EDB atom of the program. Any other
//! program inlines copies instead:
//!
//! * an IDB used n times is inlined n times;
//! * a positive IDB atom defined by k rules splits the rule using it into
//!   k alternatives, and the query predicate's alternatives become the
//!   top-level union branches (§5);
//! * a negated one becomes k separate `¬∃` conjuncts, as
//!   `¬(A ∨ B) = ¬A ∧ ¬B`.
//!
//! Copies multiply, so a short program can unfold without bound; the
//! result is capped at `MAX_NODES` and refused above it. RA reaches the
//! hub through this module too (`ra_to_trc`), so this is the one place
//! that knows how disjunction reaches the top.

use rd_core::{Catalog, CmpOp, CoreError, CoreResult};
use rd_datalog::ast::{Atom, DlProgram, DlTerm, Literal, Rule};
use rd_trc::ast::{Binding, Formula, OutputSpec, Predicate, Term, TrcQuery, TrcUnion};
use std::collections::BTreeMap;

/// The most nodes (tuple variables and comparisons, summed over every
/// branch and negated block) a translation may unfold to. The later
/// stages — canonicalization, lowering, execution — are linear in this
/// count.
pub(crate) const MAX_NODES: usize = 1 << 14;

/// Datalog variable → the TRC term that represents it.
type Env = BTreeMap<String, Term>;

/// One conjunctive alternative of a rule body.
#[derive(Clone)]
struct Alt {
    env: Env,
    bindings: Vec<Binding>,
    parts: Vec<Formula>,
    nodes: usize,
}

impl Alt {
    fn new(env: Env) -> Alt {
        Alt {
            env,
            bindings: Vec::new(),
            parts: Vec::new(),
            nodes: 0,
        }
    }

    fn push(&mut self, left: Term, op: CmpOp, right: Term) {
        self.parts
            .push(Formula::Pred(Predicate::new(left, op, right)));
        self.nodes += 1;
    }

    /// Binds `v` to `rep`, or equates the two if `v` is bound already.
    fn bind(&mut self, v: &str, rep: Term) {
        match self.env.get(v) {
            Some(prev) => self.push(prev.clone(), CmpOp::Eq, rep),
            None => {
                self.env.insert(v.to_string(), rep);
            }
        }
    }

    /// The formula `∃ bindings [parts]`.
    fn formula(self) -> Formula {
        let body = Formula::and(self.parts);
        if self.bindings.is_empty() {
            body
        } else {
            Formula::exists(self.bindings, body)
        }
    }
}

/// Sums node counts, refusing a total above [`MAX_NODES`].
fn capped(total: usize, more: usize) -> CoreResult<usize> {
    let total = total.saturating_add(more);
    if total > MAX_NODES {
        return Err(CoreError::Invalid(format!(
            "query expands to more than {MAX_NODES} nodes once its IDBs are inlined and its \
             disjunctions are lifted to the top"
        )));
    }
    Ok(total)
}

struct Ctx<'a> {
    catalog: &'a Catalog,
    /// Each IDB's defining rules.
    rules: BTreeMap<&'a str, Vec<&'a Rule>>,
    fresh: usize,
}

impl<'a> Ctx<'a> {
    fn fresh_var(&mut self) -> String {
        self.fresh += 1;
        format!("t{}", self.fresh)
    }

    fn rules_for(&self, idb: &str) -> Vec<&'a Rule> {
        self.rules.get(idb).cloned().unwrap_or_default()
    }

    /// The starting alternative of `rule`, called as `call` from a scope
    /// whose environment is `env`: the callee's head variables bound to
    /// the call's arguments, plus the equalities the call imposes
    /// (constants and repeated variables in the callee's head). Also
    /// returns the positions of caller variables not yet bound, which
    /// the callee's body binds.
    fn seed(&self, rule: &Rule, call: &Atom, env: &Env) -> (Alt, Vec<(usize, String)>) {
        let mut inner = Alt::new(Env::new());
        let mut exports = Vec::new();
        for (i, (callee, caller)) in rule.head.terms.iter().zip(&call.terms).enumerate() {
            let arg = match caller {
                DlTerm::Wildcard => continue,
                DlTerm::Const(c) => Term::Const(c.clone()),
                DlTerm::Var(v) => match env.get(v) {
                    Some(rep) => rep.clone(),
                    None => {
                        exports.push((i, v.clone()));
                        continue;
                    }
                },
            };
            match callee {
                DlTerm::Var(hv) => inner.bind(hv, arg),
                DlTerm::Const(c) => inner.push(arg, CmpOp::Eq, Term::Const(c.clone())),
                DlTerm::Wildcard => {}
            }
        }
        (inner, exports)
    }

    /// The alternatives of `rule`'s body, each an extension of `alt`.
    fn expand_body(&mut self, rule: &'a Rule, mut alt: Alt) -> CoreResult<Vec<Alt>> {
        let (idb_atoms, edb_atoms): (Vec<&Atom>, Vec<&Atom>) = rule
            .positive()
            .partition(|a| self.rules.contains_key(a.pred.as_str()));
        // Pass 1: positive EDB atoms bind tuple variables and establish
        // representatives.
        for atom in edb_atoms {
            let schema = self.catalog.require(&atom.pred)?;
            let tv = self.fresh_var();
            alt.bindings
                .push(Binding::new(tv.clone(), atom.pred.clone()));
            alt.nodes += 1;
            for (term, attr) in atom.terms.iter().zip(schema.attrs()) {
                let local = Term::attr(tv.clone(), attr.clone());
                match term {
                    DlTerm::Wildcard => {}
                    DlTerm::Const(c) => alt.push(local, CmpOp::Eq, Term::Const(c.clone())),
                    DlTerm::Var(v) => alt.bind(v, local),
                }
            }
        }

        // Pass 2: positive IDB atoms are inlined into this scope, one
        // alternative per combination of their rules.
        let mut alts = vec![alt];
        for atom in idb_atoms {
            let mut next = Vec::new();
            let mut total = 0;
            for alt in alts {
                for inner_rule in self.rules_for(&atom.pred) {
                    let (seeded, exports) = self.seed(inner_rule, atom, &alt.env);
                    for inner in self.expand_body(inner_rule, seeded)? {
                        let mut out = alt.clone();
                        out.bindings.extend(inner.bindings);
                        out.parts.extend(inner.parts);
                        out.nodes += inner.nodes;
                        // Export representatives for caller variables
                        // first bound by this IDB atom.
                        for (i, v) in &exports {
                            let rep = match &inner_rule.head.terms[*i] {
                                DlTerm::Var(hv) => inner.env.get(hv).cloned().ok_or_else(|| {
                                    CoreError::Invalid(format!(
                                        "head variable '{hv}' of IDB '{}' unbound after expansion",
                                        atom.pred
                                    ))
                                })?,
                                DlTerm::Const(c) => Term::Const(c.clone()),
                                DlTerm::Wildcard => continue,
                            };
                            out.bind(v, rep);
                        }
                        total = capped(total, out.nodes)?;
                        next.push(out);
                    }
                }
            }
            alts = next;
        }

        // Pass 3: built-ins and negated atoms (all variables now bound).
        let mut total = 0;
        for alt in &mut alts {
            for lit in &rule.body {
                match lit {
                    Literal::Pos(_) => {}
                    Literal::Cmp(b) => {
                        let (l, r) = (term(&b.left, &alt.env)?, term(&b.right, &alt.env)?);
                        alt.push(l, b.op, r);
                    }
                    Literal::Neg(atom) => self.negated_atom(atom, alt)?,
                }
            }
            total = capped(total, alt.nodes)?;
        }
        Ok(alts)
    }

    /// Adds `not atom` to `alt`: one `¬∃` conjunct per alternative of
    /// the atom's unfolding.
    fn negated_atom(&mut self, atom: &Atom, alt: &mut Alt) -> CoreResult<()> {
        if !self.rules.contains_key(atom.pred.as_str()) {
            // Negated EDB atom: ¬(∃t ∈ R [t.Aᵢ = repᵢ ∧ …]).
            let schema = self.catalog.require(&atom.pred)?;
            let tv = self.fresh_var();
            let mut inner = Alt::new(Env::new());
            inner
                .bindings
                .push(Binding::new(tv.clone(), atom.pred.clone()));
            inner.nodes += 1;
            for (t, attr) in atom.terms.iter().zip(schema.attrs()) {
                if !matches!(t, DlTerm::Wildcard) {
                    inner.push(
                        Term::attr(tv.clone(), attr.clone()),
                        CmpOp::Eq,
                        term(t, &alt.env)?,
                    );
                }
            }
            alt.nodes = capped(alt.nodes, inner.nodes)?;
            alt.parts.push(Formula::not(inner.formula()));
            return Ok(());
        }
        // Negated IDB atom: inline each rule under its own negation. A
        // wildcard argument leaves its head position unbound, so the
        // inner body's positive atoms bind it under the `exists`.
        for inner_rule in self.rules_for(&atom.pred) {
            let (seeded, exports) = self.seed(inner_rule, atom, &alt.env);
            if let Some((_, v)) = exports.first() {
                return Err(CoreError::Invalid(format!("unbound variable '{v}'")));
            }
            let seed_parts = seeded.parts.len();
            for mut inner in self.expand_body(inner_rule, seeded)? {
                // The body's conjuncts first, then the call's equalities.
                inner.parts.rotate_left(seed_parts);
                alt.nodes = capped(alt.nodes, inner.nodes)?;
                alt.parts.push(Formula::not(inner.formula()));
            }
        }
        Ok(())
    }
}

/// The TRC term of a Datalog term in a built-in or negated atom.
fn term(t: &DlTerm, env: &Env) -> CoreResult<Term> {
    match t {
        DlTerm::Var(v) => env
            .get(v)
            .cloned()
            .ok_or_else(|| CoreError::Invalid(format!("unbound variable '{v}'"))),
        DlTerm::Const(c) => Ok(Term::Const(c.clone())),
        DlTerm::Wildcard => Err(CoreError::Invalid("wildcard in built-in".into())),
    }
}

/// Translates a non-recursive Datalog program into its canonical TRC hub
/// form: one union branch per alternative of the query predicate, with
/// the output head `q(x1, …, xn)` — the positional attributes a Datalog
/// result carries. A Datalog\* program translates to one
/// pattern-isomorphic TRC\* query.
pub fn datalog_to_trc(p: &DlProgram, catalog: &Catalog) -> CoreResult<TrcUnion> {
    let arity = p
        .rules
        .iter()
        .find(|r| r.head.pred == p.query)
        .map_or(0, |r| r.head.terms.len());
    let head: Vec<String> = (1..=arity).map(|i| format!("x{i}")).collect();
    datalog_to_trc_named(p, catalog, &head)
}

/// [`datalog_to_trc`] with the output attributes named `head` (one per
/// query head term). Every head term is defined by an equality on its
/// attribute, so constant and repeated head terms need no special form.
pub(crate) fn datalog_to_trc_named(
    p: &DlProgram,
    catalog: &Catalog,
    head: &[String],
) -> CoreResult<TrcUnion> {
    rd_datalog::check::check_program(p, catalog)?;
    let mut ctx = Ctx {
        catalog,
        rules: BTreeMap::new(),
        fresh: 0,
    };
    for rule in &p.rules {
        ctx.rules
            .entry(rule.head.pred.as_str())
            .or_default()
            .push(rule);
    }
    let mut branches = Vec::new();
    let mut total = 0;
    for rule in ctx.rules_for(&p.query) {
        debug_assert_eq!(head.len(), rule.head.terms.len(), "one name per head term");
        for alt in ctx.expand_body(rule, Alt::new(Env::new()))? {
            total = capped(total, alt.nodes + head.len())?;
            let mut defining = Vec::with_capacity(head.len() + alt.parts.len());
            for (t, name) in rule.head.terms.iter().zip(head) {
                defining.push(Formula::Pred(Predicate::new(
                    Term::attr("q", name.clone()),
                    CmpOp::Eq,
                    term(t, &alt.env)?,
                )));
            }
            defining.extend(alt.parts);
            let q = TrcQuery::query(
                OutputSpec::new("q", head.to_vec()),
                Formula::exists(alt.bindings, Formula::and(defining)),
            );
            q.check(catalog)?;
            branches.push(q);
        }
    }
    Ok(rd_trc::canon::canonicalize_union(&TrcUnion::new(branches)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_datalog;
    use rd_core::{Database, Relation, TableSchema};
    use rd_datalog::parser::parse_program;
    use rd_trc::check::is_nondisjunctive;
    use rd_trc::eval::{eval_query, eval_union};

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
        let u = datalog_to_trc(&p, &catalog()).unwrap();
        let [q] = u.branches.as_slice() else {
            panic!("a Datalog* program translates to one query: {program}")
        };
        assert!(is_nondisjunctive(q), "not TRC*: {q}");
        // Pattern isomorphism is defined up to permutation (Def. 12), so
        // compare signatures as multisets.
        let mut a = q.signature();
        let mut b = p.signature();
        a.sort();
        b.sort();
        assert_eq!(a, b, "signature not preserved for:\n{program}\ntrc: {q}");
        let dl_out = eval_datalog(&p, &db()).unwrap();
        let trc_out = eval_query(q, &db()).unwrap();
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
            let u = datalog_to_trc(&p, &catalog()).unwrap();
            assert_eq!(u.signature().len(), p.signature().len(), "{u:?}");
            let expected = oracle(&p, &db());
            assert!(!expected.is_empty(), "{program}");
            assert_eq!(
                eval_union(&u, &db()).unwrap().tuples(),
                expected.tuples(),
                "{program}\ntrc: {u:?}"
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
        let u = datalog_to_trc(&p, &catalog()).unwrap();
        let out = eval_union(&u, &d).unwrap();
        assert_eq!(out.len(), 1);
    }

    /// The Datalog reference interpreter's rows (an int-only fixture, so
    /// the uninterned copy's rows equal the engine's).
    fn oracle(p: &DlProgram, db: &Database) -> Relation {
        rd_oracle::datalog::eval_program(p, &rd_oracle::uninterned(db)).unwrap()
    }

    /// `program`'s hub form answers like the reference interpreter on
    /// `db`, in `branches` union branches.
    fn agrees_with_oracle(program: &str, db: &Database, branches: usize) {
        let p = parse_program(program, &catalog()).unwrap();
        let u = datalog_to_trc(&p, &catalog()).unwrap();
        assert_eq!(u.branches.len(), branches, "{program}\ntrc: {u:?}");
        assert_eq!(
            eval_union(&u, db).unwrap().tuples(),
            oracle(&p, db).tuples(),
            "{program}\ntrc: {u:?}"
        );
    }

    #[test]
    fn disjunctive_programs_become_union_branches() {
        // Two rules for the query, and a two-rule IDB used positively:
        // its rules multiply the branches of the rule using it.
        agrees_with_oracle("Q(x) :- T(x).\nQ(x) :- R(x, _).", &db(), 2);
        agrees_with_oracle(
            "I(x) :- T(x).\nI(x) :- R(x, 10).\nQ(x, y) :- I(x), R(x, y).",
            &db(),
            2,
        );
        // Under a negation the rules become separate `not exists`
        // conjuncts of one branch.
        agrees_with_oracle(
            "I(x) :- T(x).\nI(x) :- R(x, 20).\nQ(x, y) :- R(x, y), not I(x).",
            &db(),
            1,
        );
        // An IDB used twice is inlined twice.
        agrees_with_oracle("I(x) :- R(x, 10).\nQ(x) :- I(x), T(x), not I(x).", &db(), 1);
    }

    #[test]
    fn a_repeated_unbound_caller_variable_keeps_its_equality() {
        // y fills both head positions of I, so only R's (7, 7) row
        // qualifies.
        let mut d = db();
        d.relation_mut("R")
            .unwrap()
            .insert_values([7i64, 7])
            .unwrap();
        let program = "I(x, y) :- R(x, y).\nQ(y) :- I(y, y).";
        agrees_with_oracle(program, &d, 1);
        let p = parse_program(program, &catalog()).unwrap();
        let out = eval_union(&datalog_to_trc(&p, &catalog()).unwrap(), &d).unwrap();
        assert_eq!(
            out.iter().collect::<Vec<_>>(),
            [&rd_core::Tuple::new([7i64])]
        );
    }

    #[test]
    fn constant_and_repeated_head_terms_become_defining_equalities() {
        for program in [
            "Q(x, x) :- R(x, y).",
            "Q(x, 5) :- R(x, y).",
            "I(x, 5) :- R(x, _).\nQ(x, y) :- I(x, y).",
            "I(x, 5) :- R(x, _).\nQ(x) :- I(x, 5).",
            "I(x, 5) :- R(x, _).\nQ(x) :- I(x, 6).",
            "I(x, x) :- R(x, _).\nQ(x, y) :- I(x, y).",
            "I(x, 10) :- R(x, _).\nQ(x) :- R(x, y), not I(x, y).",
        ] {
            agrees_with_oracle(program, &db(), 1);
            let p = parse_program(program, &catalog()).unwrap();
            let head = datalog_to_trc(&p, &catalog()).unwrap().branches[0]
                .output
                .clone()
                .unwrap();
            let arity = p.rules.last().unwrap().head.terms.len();
            let positional: Vec<String> = (1..=arity).map(|i| format!("x{i}")).collect();
            assert_eq!(head.attrs, positional, "{program}");
        }
    }

    #[test]
    fn unfolding_is_capped_by_node_count() {
        // Each level uses the one below twice: 2^depth references to T.
        let chain = |depth: usize| {
            let mut text = String::from("I0(x) :- T(x).\n");
            for i in 1..=depth {
                text.push_str(&format!("I{i}(x) :- I{0}(x), I{0}(x).\n", i - 1));
            }
            text + &format!("Q(x) :- I{depth}(x).")
        };
        agrees_with_oracle(&chain(6), &db(), 1);
        let p = parse_program(&chain(14), &catalog()).unwrap();
        let err = datalog_to_trc(&p, &catalog()).unwrap_err();
        assert!(err.to_string().contains("nodes"), "{err}");
    }
}
