//! TRC evaluation as a *lowering* onto the shared plan IR
//! ([`rd_core::exec`]).
//!
//! Evaluation works on the canonical form (the lowering canonicalizes
//! internally) and proceeds in two phases:
//!
//! 1. **Lower.** The formula is compiled once per query into the
//!    workspace-wide IR: every tuple variable gets a *slot* (so the
//!    runtime environment is a flat slot vector, not a string-keyed
//!    map), attribute names are resolved to column indices, and string
//!    constants are interned against the database — execution never
//!    touches a heap string. Each existential block becomes an
//!    [`rd_core::exec::Block`]: its conjuncts are classified, its
//!    bindings are reduced to [`ScanCand`]s (row estimates from the
//!    scanned relations' cached statistics, equi-join classes) and
//!    ordered by the cost-based dynamic program
//!    ([`rd_core::plan::order_scans`]), whose prefix estimates are
//!    recorded on the scans; equality predicates against already-bound
//!    terms become **hash-join keys**, and every other conjunct
//!    (filters, negated/quantified subformulas) is attached to the
//!    earliest scan after which its variables are bound.
//! 2. **Execute.** The shared executor ([`rd_core::exec::execute`])
//!    runs the plan: keyed scans probe lazily-built hash indexes,
//!    unkeyed scans iterate. Output tuples are computed from the
//!    defining equalities `q.A = term`; conjuncts that mention the
//!    output head are deferred and validated with the head bound.
//!
//! The compiled [`Plan`](rd_core::exec::Plan) carries no borrows, so
//! the engine can cache it per database epoch and skip this whole
//! module on a plan-cache hit.

use crate::ast::{Binding, Formula, Predicate, Term, TrcQuery, TrcUnion};
use crate::canon::canonicalize;
use rd_core::exec::{self, Block, EnvShape, Plan, QueryPlan, Scan, SentencePlan};
use rd_core::plan::{self, ScanCand};
use rd_core::{CmpOp, CoreError, CoreResult, Database, Relation, TableSchema};
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

struct Compiler<'d> {
    db: &'d Database,
    /// Lexical scope: (variable, slot), innermost last.
    scope: Vec<(String, usize)>,
    /// Slot → schema of the table (or output head) it ranges over.
    slot_schemas: Vec<TableSchema>,
    /// Variables bound at the current compilation point (enumeration
    /// order, not lexical scope — the output head is in scope but only
    /// bound during deferred validation).
    bound: BTreeSet<String>,
    /// Number of hash-index cache slots handed out.
    n_indexes: usize,
}

impl<'d> Compiler<'d> {
    fn new(db: &'d Database) -> Self {
        Compiler {
            db,
            scope: Vec::new(),
            slot_schemas: Vec::new(),
            bound: BTreeSet::new(),
            n_indexes: 0,
        }
    }

    fn shape(&self) -> EnvShape {
        EnvShape {
            tuple_slots: self.slot_schemas.len(),
            indexes: self.n_indexes,
        }
    }

    fn push_schema_var(&mut self, var: &str, schema: TableSchema) -> usize {
        let slot = self.slot_schemas.len();
        self.slot_schemas.push(schema);
        self.scope.push((var.to_string(), slot));
        slot
    }

    fn push_binding(&mut self, b: &Binding) -> CoreResult<usize> {
        let schema = self.db.require(&b.table)?.schema().clone();
        Ok(self.push_schema_var(&b.var, schema))
    }

    fn lookup(&self, var: &str) -> Option<usize> {
        self.scope
            .iter()
            .rev()
            .find(|(v, _)| v == var)
            .map(|&(_, s)| s)
    }

    fn compile_term(&self, t: &Term) -> CoreResult<exec::Term> {
        match t {
            Term::Const(v) => Ok(exec::Term::Const(self.db.lookup_value(v))),
            Term::Attr(a) => {
                let slot = self
                    .lookup(&a.var)
                    .ok_or_else(|| CoreError::Invalid(format!("unbound variable '{}'", a.var)))?;
                let schema = &self.slot_schemas[slot];
                let col =
                    schema
                        .attr_index(&a.attr)
                        .ok_or_else(|| CoreError::UnknownAttribute {
                            table: schema.name().to_string(),
                            attribute: a.attr.clone(),
                        })?;
                Ok(exec::Term::Col { slot, col })
            }
        }
    }

    fn compile_pred(&self, p: &Predicate) -> CoreResult<exec::Formula> {
        Ok(exec::Formula::Pred(exec::Pred {
            left: self.compile_term(&p.left)?,
            op: p.op,
            right: self.compile_term(&p.right)?,
        }))
    }

    fn compile_formula(&mut self, f: &Formula) -> CoreResult<exec::Formula> {
        match f {
            Formula::And(fs) => Ok(exec::Formula::And(
                fs.iter()
                    .map(|s| self.compile_formula(s))
                    .collect::<CoreResult<_>>()?,
            )),
            Formula::Or(fs) => Ok(exec::Formula::Or(
                fs.iter()
                    .map(|s| self.compile_formula(s))
                    .collect::<CoreResult<_>>()?,
            )),
            Formula::Not(sub) => Ok(exec::Formula::Not(Box::new(self.compile_formula(sub)?))),
            Formula::Exists(bindings, body) => {
                Ok(exec::Formula::Exists(self.compile_exists(bindings, body)?))
            }
            Formula::Pred(p) => self.compile_pred(p),
        }
    }

    fn compile_exists(&mut self, bindings: &[Binding], body: &Formula) -> CoreResult<Block> {
        let scope_mark = self.scope.len();
        let bound_snapshot = self.bound.clone();
        let mut slots = Vec::with_capacity(bindings.len());
        for b in bindings {
            slots.push(self.push_binding(b)?);
        }
        let block = self.plan_block(bindings, &slots, &conjuncts(body));
        self.scope.truncate(scope_mark);
        self.bound = bound_snapshot;
        block
    }

    /// Plans one existential block whose binding slots are already in
    /// scope: cost-based scan ordering, key extraction, conjunct
    /// attachment.
    fn plan_block(
        &mut self,
        bindings: &[Binding],
        slots: &[usize],
        conjs: &[Formula],
    ) -> CoreResult<Block> {
        // Classify conjuncts. Predicates are join/selection candidates;
        // everything else (negation, nested quantifiers, disjunction)
        // waits until its free variables are bound.
        let mut preds: Vec<Option<(Predicate, BTreeSet<String>)>> = Vec::new();
        let mut subs: Vec<Option<(Formula, BTreeSet<String>)>> = Vec::new();
        for f in conjs {
            match f {
                Formula::Pred(p) => {
                    let vars: BTreeSet<String> = p.vars().cloned().collect();
                    preds.push(Some((p.clone(), vars)));
                }
                other => {
                    let free = other.free_vars();
                    subs.push(Some((other.clone(), free)));
                }
            }
        }
        let pre = self.attach_ready(&mut preds, &mut subs)?;
        // The dynamic program decides the whole block order up front.
        let order = plan::order_scans(&self.scan_cands(bindings, slots, &preds)?);
        let mut scans = Vec::with_capacity(order.len());
        for (bi, est) in order {
            let b = &bindings[bi];
            let schema = self.slot_schemas[slots[bi]].clone();
            // Extract the equality predicates usable as hash-join keys.
            let mut key_cols = Vec::new();
            let mut key_terms = Vec::new();
            for entry in preds.iter_mut() {
                let usable = entry
                    .as_ref()
                    .and_then(|(p, _)| self.key_side(p, &b.var).cloned());
                if let Some(scan_attr) = usable {
                    let (p, _) = entry.take().expect("checked above");
                    let col = schema.attr_index(&scan_attr.attr).ok_or_else(|| {
                        CoreError::UnknownAttribute {
                            table: schema.name().to_string(),
                            attribute: scan_attr.attr.clone(),
                        }
                    })?;
                    let other = if matches!(&p.left, Term::Attr(a) if a.var == b.var && a.attr == scan_attr.attr)
                    {
                        &p.right
                    } else {
                        &p.left
                    };
                    key_cols.push(col);
                    key_terms.push(self.compile_term(other)?);
                }
            }
            self.bound.insert(b.var.clone());
            let filters = self.attach_ready(&mut preds, &mut subs)?;
            let index_id = if key_cols.is_empty() {
                exec::FULL_SCAN
            } else {
                self.n_indexes += 1;
                self.n_indexes - 1
            };
            scans.push(Scan {
                rel: b.table.clone(),
                tuple_slot: slots[bi],
                key_cols,
                key_terms,
                index_id,
                filters,
                est_rows: Some(est.round().clamp(0.0, u64::MAX as f64) as u64),
            });
        }
        // Anything left references variables outside every scope level;
        // compiling it surfaces the proper "unbound variable" error.
        let mut leftovers = Vec::new();
        for entry in preds.iter_mut() {
            if let Some((p, _)) = entry.take() {
                leftovers.push(self.compile_pred(&p)?);
            }
        }
        for entry in subs.iter_mut() {
            if let Some((f, _)) = entry.take() {
                leftovers.push(self.compile_formula(&f)?);
            }
        }
        let mut block = Block { pre, scans };
        if !leftovers.is_empty() {
            match block.scans.last_mut() {
                Some(last) => last.filters.extend(leftovers),
                None => block.pre.extend(leftovers),
            }
        }
        Ok(block)
    }

    /// Reduces one block's bindings and pending predicates to the
    /// numeric [`ScanCand`]s the cost-based orderer consumes: local
    /// predicate selectivities shrink each candidate's row estimate,
    /// and equalities between two block variables are merged into
    /// cross-scan join classes (union-find, so `x.A = y.B ∧ y.B = z.C`
    /// forms one class).
    fn scan_cands(
        &self,
        bindings: &[Binding],
        slots: &[usize],
        preds: &[Option<(Predicate, BTreeSet<String>)>],
    ) -> CoreResult<Vec<ScanCand>> {
        // Innermost binding wins a name, matching `lookup` resolution.
        let mut var_of: HashMap<&str, usize> = HashMap::new();
        for (i, b) in bindings.iter().enumerate() {
            var_of.insert(b.var.as_str(), i);
        }
        let col_of = |bi: usize, attr: &str| self.slot_schemas[slots[bi]].attr_index(attr);
        // Only the scanned relations' statistics are read, each cached
        // on its relation.
        let mut rows = Vec::with_capacity(bindings.len());
        let mut stats = Vec::with_capacity(bindings.len());
        for b in bindings {
            let rel = self.db.require(&b.table)?;
            rows.push(rel.len() as f64);
            stats.push(rel.stats());
        }
        let distinct = |bi: usize, col: usize| (stats[bi].distinct(col) as f64).max(1.0);

        // Union-find over (binding, column) endpoints of local-local
        // equalities.
        let mut nodes: Vec<(usize, usize)> = Vec::new();
        let mut parent: Vec<usize> = Vec::new();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let node_id =
            |nodes: &mut Vec<(usize, usize)>, parent: &mut Vec<usize>, e: (usize, usize)| {
                match nodes.iter().position(|&n| n == e) {
                    Some(i) => i,
                    None => {
                        nodes.push(e);
                        parent.push(parent.len());
                        parent.len() - 1
                    }
                }
            };

        /// One side of a predicate, from the block's point of view.
        enum Side {
            /// An attribute of a block variable: `(binding, column)`.
            Local(usize, usize),
            /// Already bound when the block runs: a literal constant.
            Lit(rd_core::Value),
            /// Already bound: an outer variable's attribute (value
            /// unknown at compile time).
            Outer,
            /// References the head or a not-yet-scoped name — carries
            /// no selectivity information here.
            Opaque,
        }
        let classify = |t: &Term| -> Side {
            match t {
                Term::Const(v) => Side::Lit(v.clone()),
                Term::Attr(a) => match var_of.get(a.var.as_str()) {
                    Some(&bi) => match col_of(bi, &a.attr) {
                        Some(col) => Side::Local(bi, col),
                        None => Side::Opaque,
                    },
                    None if self.bound.contains(&a.var) => Side::Outer,
                    None => Side::Opaque,
                },
            }
        };

        for (p, _) in preds.iter().flatten() {
            match (classify(&p.left), classify(&p.right)) {
                (Side::Local(bi, c), Side::Lit(v)) => {
                    rows[bi] *= stats[bi].cmp_selectivity(c, p.op, &v);
                }
                (Side::Lit(v), Side::Local(bi, c)) => {
                    // `lit < x.A` constrains the column as `x.A > lit`.
                    rows[bi] *= stats[bi].cmp_selectivity(c, p.op.flipped(), &v);
                }
                (Side::Local(bi, c), Side::Outer) | (Side::Outer, Side::Local(bi, c)) => {
                    // Equality with an outer binding filters like a
                    // constant of unknown value; other comparisons get
                    // the default fraction.
                    rows[bi] *= match p.op {
                        CmpOp::Eq => 1.0 / distinct(bi, c),
                        CmpOp::Ne => 1.0,
                        _ => 1.0 / 3.0,
                    };
                }
                (Side::Local(bi, c1), Side::Local(bj, c2)) if bi == bj => {
                    if p.op == CmpOp::Eq && c1 != c2 {
                        // σ_{A=B}(R): |R| / max(V_A, V_B).
                        rows[bi] /= distinct(bi, c1).max(distinct(bi, c2));
                    } else if p.op != CmpOp::Eq && p.op != CmpOp::Ne {
                        rows[bi] *= 1.0 / 3.0;
                    }
                }
                (Side::Local(bi, c1), Side::Local(bj, c2)) if p.op == CmpOp::Eq => {
                    let a = node_id(&mut nodes, &mut parent, (bi, c1));
                    let b = node_id(&mut nodes, &mut parent, (bj, c2));
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    parent[ra] = rb;
                }
                _ => {}
            }
        }

        // Emit join columns for every class spanning more than one scan.
        let mut cands: Vec<ScanCand> = rows
            .iter()
            .map(|&r| ScanCand {
                rows: r,
                join_cols: Vec::new(),
            })
            .collect();
        let roots: Vec<usize> = (0..nodes.len()).map(|i| find(&mut parent, i)).collect();
        for (i, &(bi, col)) in nodes.iter().enumerate() {
            let root = roots[i];
            let spans_scans = roots
                .iter()
                .enumerate()
                .any(|(j, &rj)| rj == root && nodes[j].0 != bi);
            if spans_scans {
                cands[bi].join_cols.push((root, distinct(bi, col)));
            }
        }
        Ok(cands)
    }

    /// Drains and compiles every pending conjunct whose variables are all
    /// bound at the current point.
    #[allow(clippy::type_complexity)]
    fn attach_ready(
        &mut self,
        preds: &mut [Option<(Predicate, BTreeSet<String>)>],
        subs: &mut [Option<(Formula, BTreeSet<String>)>],
    ) -> CoreResult<Vec<exec::Formula>> {
        let mut out = Vec::new();
        for entry in preds.iter_mut() {
            if entry
                .as_ref()
                .is_some_and(|(_, vars)| vars.iter().all(|v| self.bound.contains(v)))
            {
                let (p, _) = entry.take().expect("checked above");
                out.push(self.compile_pred(&p)?);
            }
        }
        for entry in subs.iter_mut() {
            if entry
                .as_ref()
                .is_some_and(|(_, free)| free.iter().all(|v| self.bound.contains(v)))
            {
                let (f, _) = entry.take().expect("checked above");
                out.push(self.compile_formula(&f)?);
            }
        }
        Ok(out)
    }

    /// If `p` can key a hash probe into the scan of `var` — an equality
    /// with exactly one side an attribute of `var` and the other side
    /// already bound (constant or bound variable) — returns the `var`
    /// side's attribute reference.
    fn key_side<'p>(&self, p: &'p Predicate, var: &str) -> Option<&'p crate::ast::AttrRef> {
        if p.op != CmpOp::Eq {
            return None;
        }
        let bound_term = |t: &Term| match t {
            Term::Const(_) => true,
            Term::Attr(a) => a.var != var && self.bound.contains(&a.var),
        };
        match (&p.left, &p.right) {
            (Term::Attr(a), other) if a.var == var && bound_term(other) => Some(a),
            (other, Term::Attr(a)) if a.var == var && bound_term(other) => Some(a),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Public lowering entry points
// ---------------------------------------------------------------------

/// Lowers a non-Boolean query to a compiled plan branch.
pub fn lower_query(q: &TrcQuery, db: &Database) -> CoreResult<QueryPlan> {
    let head = q.output.clone().ok_or_else(|| {
        CoreError::Invalid(
            "eval_query requires an output head; use eval_sentence for Boolean queries".into(),
        )
    })?;
    let canon = canonicalize(q);
    let out_schema = TableSchema::try_new(head.name.clone(), head.attrs.clone())?;

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

    // Conjuncts mentioning the head cannot constrain the enumeration;
    // they are validated against each candidate tuple instead.
    let mut enumerated = Vec::new();
    let mut deferred_ast = Vec::new();
    for f in &parts {
        if f.free_vars().contains(&head.name) {
            deferred_ast.push(f.clone());
        } else {
            enumerated.push(f.clone());
        }
    }

    let mut c = Compiler::new(db);
    let head_slot = c.push_schema_var(&head.name, out_schema.clone());
    let mut slots_of = Vec::with_capacity(bindings.len());
    for b in &bindings {
        slots_of.push(c.push_binding(b)?);
    }
    let root = c.plan_block(&bindings, &slots_of, &enumerated)?;
    let cdefs: Vec<exec::Term> = defs
        .iter()
        .map(|t| c.compile_term(t))
        .collect::<CoreResult<_>>()?;
    c.bound.insert(head.name.clone());
    let deferred: Vec<exec::Formula> = deferred_ast
        .iter()
        .map(|f| c.compile_formula(f))
        .collect::<CoreResult<_>>()?;

    // The root block's rows are its last scan's prefix estimate; a block
    // without scans emits one unit row.
    let est_rows = root.scans.last().map_or(Some(1), |s| s.est_rows);
    Ok(QueryPlan {
        out: out_schema,
        head_slot,
        root,
        defs: cdefs,
        deferred,
        shape: c.shape(),
        est_rows,
    })
}

/// Lowers a Boolean sentence to a compiled plan.
pub fn lower_sentence(q: &TrcQuery, db: &Database) -> CoreResult<SentencePlan> {
    if q.output.is_some() {
        return Err(CoreError::Invalid(
            "eval_sentence requires a Boolean query; use eval_query".into(),
        ));
    }
    let canon = canonicalize(q);
    let mut c = Compiler::new(db);
    let formula = c.compile_formula(&canon.formula)?;
    Ok(SentencePlan {
        formula,
        shape: c.shape(),
    })
}

/// Lowers a union of queries to a complete [`Plan`] — the lowering
/// every language's hub form goes through: a single branch without an
/// output head becomes a Boolean sentence plan, anything else a union
/// of query branches.
pub fn lower_union(u: &TrcUnion, db: &Database) -> CoreResult<Plan> {
    match u.branches.as_slice() {
        [] => Err(CoreError::Invalid("empty union".into())),
        [sentence] if sentence.output.is_none() => {
            Ok(Plan::Sentence(lower_sentence(sentence, db)?))
        }
        branches => Ok(Plan::Union(
            branches
                .iter()
                .map(|q| lower_query(q, db))
                .collect::<CoreResult<_>>()?,
        )),
    }
}

// ---------------------------------------------------------------------
// Evaluation wrappers (lower + shared executor)
// ---------------------------------------------------------------------

/// Evaluates a non-Boolean query, returning its output relation.
pub fn eval_query(q: &TrcQuery, db: &Database) -> CoreResult<Relation> {
    exec::run_query(&lower_query(q, db)?, db)
}

/// Evaluates a Boolean sentence.
pub fn eval_sentence(q: &TrcQuery, db: &Database) -> CoreResult<bool> {
    exec::run_sentence(&lower_sentence(q, db)?, db)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_union};
    use rd_core::{Catalog, TableSchema, Value};

    fn rs_db() -> (Catalog, Database) {
        let catalog = Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
        ])
        .unwrap();
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
        let mut db = Database::new();
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
        let db = Database::empty_for(&cat);
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

    #[test]
    fn string_constants_and_order_comparisons() {
        let cat = Catalog::from_schemas([TableSchema::new("B", ["color"])]).unwrap();
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("B", ["color"]),
                // Insert out of lexicographic order so sym ids disagree
                // with string order.
                [["zebra"], ["apple"], ["red"]],
            )
            .unwrap(),
        );
        let eq = parse_query(
            "{ q(color) | exists b in B [ q.color = b.color and b.color = 'red' ] }",
            &cat,
        )
        .unwrap();
        let out = eval_query(&eq, &db).unwrap();
        assert_eq!(out.len(), 1);
        // Order comparisons resolve to *lexicographic* string order.
        let lt = parse_query(
            "{ q(color) | exists b in B [ q.color = b.color and b.color < 'red' ] }",
            &cat,
        )
        .unwrap();
        let out = db.resolve_relation(&eval_query(&lt, &db).unwrap());
        let colors: Vec<Value> = out.iter().map(|t| t.get(0).clone()).collect();
        assert_eq!(colors, vec![Value::str("apple")]);
    }

    #[test]
    fn join_order_does_not_change_results() {
        // Same query phrased with bindings in both orders; the planner
        // reorders internally, results must match.
        let (cat, db) = rs_db();
        let a = parse_query(
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B ] }",
            &cat,
        )
        .unwrap();
        let b = parse_query(
            "{ q(A) | exists s in S, r in R [ q.A = r.A and r.B = s.B ] }",
            &cat,
        )
        .unwrap();
        assert_eq!(
            eval_query(&a, &db).unwrap().tuples(),
            eval_query(&b, &db).unwrap().tuples()
        );
    }

    #[test]
    fn root_estimate_is_the_root_blocks_not_a_nested_ones() {
        let (cat, db) = rs_db();
        let lower = |text: &str| lower_query(&parse_query(text, &cat).unwrap(), &db).unwrap();
        let flat = lower("{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B ] }");
        // R ⋈ S on B: 4·2 / max(V(R.B), V(S.B)) = 8/3 ≈ 3.
        assert_eq!(flat.est_rows, Some(3));
        assert_eq!(flat.root.scans.last().unwrap().est_rows, Some(3));
        // The nested block is planned after the root and estimates ~0
        // rows per binding; the root keeps its own estimate.
        let nested = lower(
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B and \
               not (exists r2 in R [ r2.A = r.A and r2.B = 30 ]) ] }",
        );
        assert_eq!(nested.est_rows, Some(3));
    }

    #[test]
    fn a_block_without_scans_estimates_its_unit_row() {
        let (cat, db) = rs_db();
        let q = parse_query("{ q(A) | q.A = 1 }", &cat).unwrap();
        let plan = lower_query(&q, &db).unwrap();
        assert!(plan.root.scans.is_empty());
        assert_eq!(plan.est_rows, Some(1));
        assert_eq!(exec::run_query(&plan, &db).unwrap().len(), 1);
    }

    #[test]
    fn lowered_plan_is_reusable_and_explainable() {
        let (cat, db) = rs_db();
        let q = parse_query(
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B ] }",
            &cat,
        )
        .unwrap();
        let plan = lower_union(&crate::ast::TrcUnion::new(vec![q.clone()]).unwrap(), &db).unwrap();
        // Executing the same compiled plan twice agrees with direct eval.
        let a = exec::execute(&plan, &db).unwrap();
        let b = exec::execute(&plan, &db).unwrap();
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!(a.tuples(), eval_query(&q, &db).unwrap().tuples());
        // The explain tree names the probe strategy.
        let node = exec::explain(&plan);
        fn any_probe(n: &rd_core::exec::ExplainNode) -> bool {
            n.detail.contains("hash probe") || n.children.iter().any(any_probe)
        }
        assert!(any_probe(&node), "{node:?}");
    }
}
