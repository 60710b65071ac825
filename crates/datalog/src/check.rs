//! Safety, stratification and fragment checks for Datalog¬ programs.

use crate::ast::{DlProgram, DlTerm, Literal};
use rd_core::{Catalog, CoreError, CoreResult};
use std::collections::{BTreeMap, BTreeSet};

/// The longest chain of IDB dependencies (see [`idb_depth`]) a checked
/// program may have. Inlining a program into its TRC hub form, and every
/// pass after that, recurses once per link, so the cap keeps a program
/// this deep running through evaluation, translations and diagram
/// rendering on a 2 MiB thread stack; hand-written programs are a few
/// rules deep.
pub const MAX_IDB_DEPTH: usize = 128;

/// Full validation used by [`crate::parser::parse_program`]:
/// 1. arities consistent (EDBs against the catalog; IDBs across uses);
/// 2. rule safety ([`check_safety`]);
/// 3. non-recursive dependency graph, at most [`MAX_IDB_DEPTH`] deep;
/// 4. the query predicate is defined.
pub fn check_program(p: &DlProgram, catalog: &Catalog) -> CoreResult<()> {
    let idbs = p.idbs();
    let mut idb_arity: BTreeMap<String, usize> = BTreeMap::new();

    // Arity checks.
    let mut check_atom = |pred: &str, arity: usize| -> CoreResult<()> {
        if idbs.contains(pred) {
            match idb_arity.get(pred) {
                Some(&a) if a != arity => Err(CoreError::Invalid(format!(
                    "IDB '{pred}' used with arities {a} and {arity}"
                ))),
                Some(_) => Ok(()),
                None => {
                    idb_arity.insert(pred.to_string(), arity);
                    Ok(())
                }
            }
        } else {
            let schema = catalog.require(pred)?;
            if schema.arity() != arity {
                return Err(CoreError::ArityMismatch {
                    table: pred.to_string(),
                    expected: schema.arity(),
                    actual: arity,
                });
            }
            Ok(())
        }
    };
    for rule in &p.rules {
        check_atom(&rule.head.pred, rule.head.terms.len())?;
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                check_atom(&a.pred, a.terms.len())?;
            }
        }
    }

    check_safety(p)?;

    match idb_depth(p) {
        None => return Err(CoreError::Invalid("program is recursive".into())),
        Some(depth) if depth > MAX_IDB_DEPTH => {
            return Err(CoreError::Invalid(format!(
                "IDB dependency chain is {depth} deep; the limit is {MAX_IDB_DEPTH}"
            )))
        }
        Some(_) => {}
    }
    if !idbs.contains(&p.query) {
        return Err(CoreError::Invalid(format!(
            "query predicate '{}' is not defined by any rule",
            p.query
        )));
    }
    Ok(())
}

/// Rule safety, the one definition shared by [`check_program`],
/// [`is_safe`] and the lowering: every variable of the head, of negated
/// atoms, and of built-ins occurs in a positive relational subgoal
/// [Ceri et al. 89], and no wildcard stands where a value is needed (rule
/// heads, built-ins). Needs no catalog.
pub fn check_safety(p: &DlProgram) -> CoreResult<()> {
    for rule in &p.rules {
        let positive_vars: BTreeSet<&str> = rule.positive().flat_map(|a| a.vars()).collect();
        for v in rule.head.vars() {
            if !positive_vars.contains(v) {
                return Err(CoreError::Invalid(format!(
                    "unsafe rule: head variable '{v}' not bound by a positive subgoal in '{rule}'"
                )));
            }
        }
        if rule
            .head
            .terms
            .iter()
            .any(|t| matches!(t, DlTerm::Wildcard))
        {
            return Err(CoreError::Invalid(format!(
                "wildcard not allowed in rule head: '{rule}'"
            )));
        }
        for atom in rule.negative() {
            for v in atom.vars() {
                if !positive_vars.contains(v) {
                    return Err(CoreError::Invalid(format!(
                        "unsafe rule: variable '{v}' of negated atom not bound positively in '{rule}'"
                    )));
                }
            }
        }
        for b in rule.builtins() {
            if matches!(b.left, DlTerm::Wildcard) || matches!(b.right, DlTerm::Wildcard) {
                return Err(CoreError::Invalid(format!(
                    "wildcard in built-in: '{rule}'"
                )));
            }
            for v in b.vars() {
                if !positive_vars.contains(v) {
                    return Err(CoreError::Invalid(format!(
                        "unsafe rule: variable '{v}' of built-in not bound positively in '{rule}'"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// `true` if every rule satisfies [`check_safety`].
pub fn is_safe(p: &DlProgram) -> bool {
    check_safety(p).is_ok()
}

/// `true` if the IDB dependency graph is acyclic (no IDB reachable from
/// itself through rule bodies).
pub fn is_nonrecursive(p: &DlProgram) -> bool {
    idb_depth(p).is_some()
}

/// The longest chain of IDB dependencies, counted in IDBs (`Q :- I1`,
/// `I1 :- I0`, `I0 :- R` is 3 deep; 0 with no rules), or `None` if the
/// program is recursive. Computed by peeling off IDBs whose dependencies
/// are all done (Kahn's algorithm), so no chain length can overflow the
/// stack.
pub fn idb_depth(p: &DlProgram) -> Option<usize> {
    let idbs = p.idbs();
    // For each IDB: the heads whose bodies use it, and how many distinct
    // IDBs its own rules' bodies use that are not yet done.
    let mut users: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut waiting: BTreeMap<&str, usize> = idbs.iter().map(|i| (i.as_str(), 0)).collect();
    for rule in &p.rules {
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                if idbs.contains(&a.pred)
                    && users.entry(&a.pred).or_default().insert(&rule.head.pred)
                {
                    *waiting.get_mut(rule.head.pred.as_str())? += 1;
                }
            }
        }
    }
    let mut depth: BTreeMap<&str, usize> = BTreeMap::new();
    let mut ready: Vec<&str> = waiting
        .iter()
        .filter(|(_, &n)| n == 0)
        .map(|(&idb, _)| idb)
        .collect();
    let (mut done, mut deepest) = (0, 0);
    while let Some(idb) = ready.pop() {
        let d = depth.get(idb).copied().unwrap_or(0) + 1;
        done += 1;
        deepest = deepest.max(d);
        for &user in users.get(idb).into_iter().flatten() {
            let slot = depth.entry(user).or_default();
            *slot = (*slot).max(d);
            let n = waiting.get_mut(user)?;
            *n -= 1;
            if *n == 0 {
                ready.push(user);
            }
        }
    }
    // IDBs still waiting sit on (or behind) a cycle.
    (done == idbs.len()).then_some(deepest)
}

/// `true` if the program lies in Datalog\* (Definition 1): non-recursive,
/// every IDB appears in the head of **exactly one** rule, and every IDB is
/// used **at most once** across all rule bodies.
pub fn is_datalog_star(p: &DlProgram) -> bool {
    if !is_nonrecursive(p) || !is_safe(p) {
        return false;
    }
    // Exactly one defining rule per IDB.
    let mut head_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for rule in &p.rules {
        *head_counts.entry(&rule.head.pred).or_default() += 1;
    }
    if head_counts.values().any(|&c| c != 1) {
        return false;
    }
    // Each IDB used at most once across all bodies.
    let idbs = p.idbs();
    let mut body_uses: BTreeMap<&str, usize> = BTreeMap::new();
    for rule in &p.rules {
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                if idbs.contains(&a.pred) {
                    *body_uses.entry(&a.pred).or_default() += 1;
                }
            }
        }
    }
    body_uses.values().all(|&c| c <= 1)
}

/// Topological evaluation order of the IDB predicates (dependencies
/// first). Assumes [`is_nonrecursive`].
pub fn topo_order(p: &DlProgram) -> Vec<String> {
    let idbs = p.idbs();
    let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for rule in &p.rules {
        let entry = deps.entry(rule.head.pred.clone()).or_default();
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                if idbs.contains(&a.pred) && a.pred != rule.head.pred {
                    entry.insert(a.pred.clone());
                }
            }
        }
    }
    let mut order = Vec::new();
    let mut done: BTreeSet<String> = BTreeSet::new();
    fn visit(
        node: &str,
        deps: &BTreeMap<String, BTreeSet<String>>,
        done: &mut BTreeSet<String>,
        order: &mut Vec<String>,
    ) {
        if done.contains(node) {
            return;
        }
        done.insert(node.to_string());
        if let Some(ds) = deps.get(node) {
            for d in ds {
                visit(d, deps, done, order);
            }
        }
        order.push(node.to_string());
    }
    for idb in &idbs {
        visit(idb, &deps, &mut done, &mut order);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program_unchecked;
    use rd_core::TableSchema;

    fn catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
        ])
        .unwrap()
    }

    #[test]
    fn division_is_datalog_star() {
        let p = parse_program_unchecked(
            "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
        )
        .unwrap();
        assert!(check_program(&p, &catalog()).is_ok());
        assert!(is_datalog_star(&p));
        assert_eq!(topo_order(&p), vec!["I".to_string(), "Q".into()]);
    }

    #[test]
    fn disjunction_via_repeated_head_excluded() {
        // The query from eq. (3): Q defined by two rules.
        let p = parse_program_unchecked(
            "Q(x) :- R(x, y), S(x), T(_), y > 5.\nQ(x) :- R(x, y), S(_), T(x), y > 5.",
        )
        .unwrap();
        assert!(is_safe(&p));
        assert!(is_nonrecursive(&p));
        assert!(!is_datalog_star(&p));
    }

    #[test]
    fn idb_reuse_excluded() {
        let p = parse_program_unchecked("I(x) :- R(x, _).\nQ(x) :- I(x), not I(x).").unwrap();
        assert!(!is_datalog_star(&p));
    }

    #[test]
    fn recursion_rejected() {
        let p = parse_program_unchecked("Q(x) :- R(x, y), Q(y).").unwrap();
        assert!(!is_nonrecursive(&p));
        assert!(check_program(&p, &catalog()).is_err());
    }

    #[test]
    fn unsafe_rules_rejected() {
        // Head variable not positively bound.
        let p = parse_program_unchecked("Q(x, z) :- R(x, y).").unwrap();
        assert!(!is_safe(&p));
        // Negated variable not positively bound.
        let p = parse_program_unchecked("Q(x) :- R(x, _), not S(y).").unwrap();
        assert!(!is_safe(&p));
        // Built-in variable not positively bound.
        let p = parse_program_unchecked("Q(x) :- R(x, _), y > 5.").unwrap();
        assert!(!is_safe(&p));
        // A wildcard where a built-in needs a value, on either side.
        for text in ["Q(x) :- R(x, y), _ < 3.", "Q(x) :- R(x, y), y = _."] {
            let p = parse_program_unchecked(text).unwrap();
            assert!(!is_safe(&p), "{text}");
            let err = check_program(&p, &catalog()).unwrap_err().to_string();
            assert!(err.contains("wildcard in built-in"), "{text}: {err}");
        }
        // A wildcard head: `check_program` and `is_safe` agree.
        let p = parse_program_unchecked("Q(_) :- R(x, _).").unwrap();
        assert!(!is_safe(&p));
        assert!(check_program(&p, &catalog()).is_err());
    }

    #[test]
    fn arity_mismatch_detected() {
        let p = parse_program_unchecked("Q(x) :- R(x).").unwrap();
        assert!(check_program(&p, &catalog()).is_err());
        let p = parse_program_unchecked("I(x) :- R(x, _).\nQ(x) :- I(x, x).").unwrap();
        assert!(check_program(&p, &catalog()).is_err());
    }

    #[test]
    fn wildcard_in_head_rejected() {
        let p = parse_program_unchecked("Q(_) :- R(x, _).").unwrap();
        assert!(check_program(&p, &catalog()).is_err());
    }

    /// `Ik(x) :- Ik-1(x).` for k in 1..n, then `Q(x) :- In-1(x).`: an
    /// IDB chain `n + 1` deep.
    fn chain(n: usize) -> String {
        let mut text = String::from("I0(x) :- R(x, _).\n");
        for k in 1..n {
            text.push_str(&format!("I{k}(x) :- I{}(x).\n", k - 1));
        }
        text + &format!("Q(x) :- I{}(x).", n - 1)
    }

    #[test]
    fn idb_depth_counts_the_longest_chain_without_recursion() {
        let p = parse_program_unchecked(&chain(3)).unwrap();
        assert_eq!(idb_depth(&p), Some(4));
        let p = parse_program_unchecked(
            "I(x) :- R(x, _).\nJ(x) :- R(x, _), not I(x).\nQ(x) :- I(x), J(x).",
        )
        .unwrap();
        assert_eq!(idb_depth(&p), Some(3));
        let p = parse_program_unchecked("I(x) :- R(x, _), I(x).\nQ(x) :- I(x).").unwrap();
        assert_eq!(idb_depth(&p), None, "recursive");
        // The check itself runs in constant stack: a 100 000-rule chain
        // is measured, then refused, on a 2 MiB thread.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let at_cap = parse_program_unchecked(&chain(MAX_IDB_DEPTH - 1)).unwrap();
                assert!(check_program(&at_cap, &catalog()).is_ok());
                for n in [MAX_IDB_DEPTH, 3_000, 100_000] {
                    let p = parse_program_unchecked(&chain(n)).unwrap();
                    assert_eq!(idb_depth(&p), Some(n + 1));
                    let err = check_program(&p, &catalog()).unwrap_err().to_string();
                    assert!(err.contains("the limit is 128"), "{err}");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
