//! RA → the TRC hub (Theorem 6): the form every RA expression executes
//! in and the one its translations and diagram are drawn from.
//!
//! The chain is RA\* → Datalog\* ([`ra_to_datalog`](crate::ra_to_datalog))
//! → TRC\* (`datalog_to_trc`), both pattern-preserving. Two RA constructs
//! lie outside RA\* (Definition 2) and are first lifted to the top as
//! union branches (§5):
//!
//! * `∪`: π, σ, ρ, ×, ⋈ and the left operand of − and ⊲ distribute over
//!   it; on the right, `A − (B ∪ C) = (A − B) − C`, and ⊲ alike;
//! * a disjunctive σ: its condition is brought to disjunctive normal form
//!   and `σ_{c1 ∨ c2} E = σ_{c1} E ∪ σ_{c2} E`.
//!
//! Each branch then translates on its own, and the output head is named
//! after the RA schema (`q(sname)`), so results keep the attribute names
//! the expression infers.

use crate::datalog_to_trc::datalog_to_trc_named;
use crate::ra_to_datalog::ra_to_datalog;
use rd_core::{Catalog, CoreError, CoreResult};
use rd_ra::ast::{Condition, RaExpr};
use rd_trc::ast::TrcUnion;
use std::iter::repeat_n;

/// The most RA nodes (operators, leaves and comparisons, summed over all
/// branches) an expression may lift to. Lifting multiplies across joins
/// and conjunctions of disjunctions, and copies the right side of − and
/// ⊲ into every left branch, so a short text could otherwise expand
/// without bound; the later stages are linear in this count.
const MAX_NODES: usize = 1 << 14;

/// Translates an RA expression into canonical hub TRC: one branch per
/// union-free, disjunction-free RA\* expression it lifts to.
pub fn ra_to_trc(e: &RaExpr, catalog: &Catalog) -> CoreResult<TrcUnion> {
    let attrs = e.schema(catalog)?;
    let queries = lift(e)?
        .exprs
        .iter()
        .map(|branch| datalog_to_trc_named(&ra_to_datalog(branch, catalog)?, catalog, &attrs))
        .collect::<CoreResult<Vec<_>>>()?;
    Ok(rd_trc::canon::canonicalize_union(&TrcUnion::new(queries)?))
}

/// Union-free branches and their total node count.
struct Lifted<T> {
    exprs: Vec<T>,
    nodes: usize,
}

impl<T> Lifted<T> {
    fn one(expr: T, nodes: usize) -> Self {
        Lifted {
            exprs: vec![expr],
            nodes,
        }
    }

    fn len(&self) -> usize {
        self.exprs.len()
    }
}

/// The union-free RA\* branches whose union is `e`.
fn lift(e: &RaExpr) -> CoreResult<Lifted<RaExpr>> {
    match e {
        RaExpr::Table(_) => Ok(Lifted::one(e.clone(), 1)),
        RaExpr::Project(attrs, inner) => map(lift(inner)?, |b| RaExpr::Project(attrs.clone(), b)),
        RaExpr::Rename(renames, inner) => map(lift(inner)?, |b| RaExpr::Rename(renames.clone(), b)),
        RaExpr::Select(cond, inner) => cross(dnf(cond)?, lift(inner)?, 1, |c, b| {
            RaExpr::Select(c, b.into())
        }),
        RaExpr::Product(l, r) => cross(lift(l)?, lift(r)?, 1, |a, b| {
            RaExpr::Product(a.into(), b.into())
        }),
        RaExpr::Join(cond, l, r) => cross(lift(l)?, lift(r)?, 1 + cond.0.len(), |a, b| {
            RaExpr::Join(cond.clone(), a.into(), b.into())
        }),
        RaExpr::NaturalJoin(l, r) => cross(lift(l)?, lift(r)?, 1, |a, b| {
            RaExpr::NaturalJoin(a.into(), b.into())
        }),
        RaExpr::Union(l, r) => {
            let (mut l, r) = (lift(l)?, lift(r)?);
            l.exprs.extend(r.exprs);
            l.nodes = capped(l.nodes.saturating_add(r.nodes))?;
            Ok(l)
        }
        RaExpr::Diff(l, r) => subtract(lift(l)?, lift(r)?, 1, |a, b| {
            RaExpr::Diff(a.into(), b.into())
        }),
        RaExpr::Antijoin(cond, l, r) => subtract(lift(l)?, lift(r)?, 1 + cond.0.len(), |a, b| {
            RaExpr::Antijoin(cond.clone(), a.into(), b.into())
        }),
    }
}

/// A unary operator distributed over the branches of its operand.
fn map(inner: Lifted<RaExpr>, f: impl Fn(Box<RaExpr>) -> RaExpr) -> CoreResult<Lifted<RaExpr>> {
    Ok(Lifted {
        nodes: capped(inner.nodes.saturating_add(inner.len()))?,
        exprs: inner.exprs.into_iter().map(|b| f(Box::new(b))).collect(),
    })
}

/// Every `(a, b)` combination, joined by `f`, which adds `extra` nodes.
/// An operand is cloned only for its repeated uses, so a single pair
/// copies nothing.
fn cross<A: Clone, B: Clone, T>(
    left: Lifted<A>,
    right: Lifted<B>,
    extra: usize,
    f: impl Fn(A, B) -> T,
) -> CoreResult<Lifted<T>> {
    let pairs = left.len().saturating_mul(right.len());
    let nodes = capped(
        right
            .len()
            .saturating_mul(left.nodes)
            .saturating_add(left.len().saturating_mul(right.nodes))
            .saturating_add(pairs.saturating_mul(extra)),
    )?;
    let (n, m) = (left.len(), right.len());
    let exprs = left
        .exprs
        .into_iter()
        .flat_map(|a| repeat_n(a, m))
        .zip(repeat_n(right.exprs, n).flatten())
        .map(|(a, b)| f(a, b))
        .collect();
    Ok(Lifted { exprs, nodes })
}

/// `a − (b₁ ∪ … ∪ bₙ) = (…(a − b₁) − …) − bₙ` for every left branch `a`,
/// each step adding `extra` nodes; the antijoin distributes the same way.
fn subtract(
    left: Lifted<RaExpr>,
    right: Lifted<RaExpr>,
    extra: usize,
    f: impl Fn(RaExpr, RaExpr) -> RaExpr,
) -> CoreResult<Lifted<RaExpr>> {
    let chain = right
        .nodes
        .saturating_add(right.len().saturating_mul(extra));
    let nodes = capped(left.nodes.saturating_add(left.len().saturating_mul(chain)))?;
    let n = left.len();
    let exprs = left
        .exprs
        .into_iter()
        .zip(repeat_n(right.exprs, n))
        .map(|(a, chain)| chain.into_iter().fold(a, &f))
        .collect();
    Ok(Lifted { exprs, nodes })
}

/// A condition in disjunctive normal form: one conjunction per disjunct,
/// counting one node per comparison.
fn dnf(c: &Condition) -> CoreResult<Lifted<Condition>> {
    let conj = conjunctions(c)?;
    Ok(Lifted {
        nodes: conj.nodes,
        exprs: conj
            .exprs
            .into_iter()
            .map(|mut conj| match conj.len() {
                1 => conj.pop().expect("one conjunct"),
                _ => Condition::And(conj),
            })
            .collect(),
    })
}

/// The disjuncts of `c`, each as its list of comparisons.
fn conjunctions(c: &Condition) -> CoreResult<Lifted<Vec<Condition>>> {
    match c {
        Condition::Cmp(..) => Ok(Lifted::one(vec![c.clone()], 1)),
        Condition::Or(cs) => {
            let mut out = Lifted {
                exprs: Vec::new(),
                nodes: 0,
            };
            for sub in cs {
                let sub = conjunctions(sub)?;
                out.nodes = capped(out.nodes.saturating_add(sub.nodes))?;
                out.exprs.extend(sub.exprs);
            }
            Ok(out)
        }
        Condition::And(cs) => {
            let mut out = Lifted::one(Vec::new(), 0);
            for sub in cs {
                out = cross(out, conjunctions(sub)?, 0, |mut a, b| {
                    a.extend(b);
                    a
                })?;
            }
            Ok(out)
        }
    }
}

fn capped(nodes: usize) -> CoreResult<usize> {
    if nodes > MAX_NODES {
        return Err(CoreError::Invalid(format!(
            "RA expression expands to more than {MAX_NODES} nodes once its unions and \
             disjunctions are lifted to the top"
        )));
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::TableSchema;
    use rd_ra::parser::parse;

    fn catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["C"]),
            TableSchema::new("T", ["A"]),
        ])
        .unwrap()
    }

    fn hub(text: &str) -> TrcUnion {
        ra_to_trc(&parse(text, &catalog()).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn the_head_is_named_after_the_ra_schema() {
        let u = hub("pi[B](R)");
        let head = u.branches[0].output.as_ref().unwrap();
        assert_eq!(
            (head.name.as_str(), head.attrs.as_slice()),
            ("q", &["B".to_string()][..])
        );
    }

    #[test]
    fn unions_and_disjunctions_lift_to_branches() {
        assert_eq!(hub("pi[A](R) union T").branches.len(), 2);
        // Under a product the branches multiply; on the right of a
        // difference they chain instead.
        assert_eq!(
            hub("(T union pi[A](R)) x (S union rho[A->C](T))")
                .branches
                .len(),
            4
        );
        assert_eq!(hub("T - (pi[A](R) union T)").branches.len(), 1);
        assert_eq!(hub("T antijoin (pi[A](R) union T)").branches.len(), 1);
        // (A=1 ∨ A=2) ∧ (B=3 ∨ B=4) has four disjuncts in DNF.
        assert_eq!(
            hub("sigma[(A=1 or A=2) and (B=3 or B=4)](R)")
                .branches
                .len(),
            4
        );
        // Each branch is a plain TRC* query with one reference per leaf.
        let u = hub("T - (pi[A](R) union T)");
        assert_eq!(u.signature(), ["T", "R", "T"]);
        assert!(!u.branches[0].formula.contains_or());
    }

    #[test]
    fn a_non_equality_antijoin_keeps_its_comparison() {
        let text = rd_trc::printer::union_to_ascii(&hub("R antijoin[A<C] S"));
        assert!(text.contains('<'), "{text}");
    }

    /// `n` two-way disjunctions under one conjunction: 2^n disjuncts.
    fn disjunctions(n: usize) -> String {
        (0..n)
            .map(|i| format!("(A={i} or B={i})"))
            .collect::<Vec<_>>()
            .join(" and ")
    }

    #[test]
    fn expansion_is_capped_by_node_count() {
        // Ten disjunctions lift to 1024 branches of 12 nodes each.
        let ten = parse(&format!("sigma[{}](R)", disjunctions(10)), &catalog()).unwrap();
        let lifted = lift(&ten).map_err(|e| e.to_string()).unwrap();
        assert_eq!((lifted.len(), lifted.nodes), (1024, 1024 * 12));
        // An eleventh doubles them past the cap.
        let eleven = parse(&format!("sigma[{}](R)", disjunctions(11)), &catalog()).unwrap();
        let err = ra_to_trc(&eleven, &catalog()).unwrap_err();
        assert!(err.to_string().contains("nodes"), "{err}");
        // Few branches can still be too large: the right side of − is
        // copied into every left branch.
        let e = parse(
            &format!("sigma[{0}](R) - sigma[{0}](R)", disjunctions(6)),
            &catalog(),
        )
        .unwrap();
        let err = lift(&e).map(|l| l.nodes).unwrap_err();
        assert!(err.to_string().contains("nodes"), "{err}");
    }

    #[test]
    fn theta_antijoin_chains_translate_in_linear_size() {
        // Each θ-antijoin re-reads only the left table its condition
        // compares, so thirty of them reference T 31 times, not 2^30.
        let text = format!("T{}", " antijoin[A<C] S".repeat(30));
        let u = hub(&text);
        assert_eq!(u.branches.len(), 1);
        assert_eq!(u.signature().len(), 1 + 30 * 2);
        // Over a right side of 2^10 disjuncts, the chain is 1024 long and
        // still within the cap.
        let text = format!(
            "T antijoin[A<A2] rho[A->A2](sigma[{}](R))",
            disjunctions(10)
        );
        let u = hub(&text);
        assert_eq!((u.branches.len(), u.signature().len()), (1, 1 + 1024 * 2));
    }
}
