//! RA → the TRC hub (Theorem 6): the form every RA expression executes
//! in and the one its translations and diagram are drawn from.
//!
//! The chain is RA → Datalog ([`ra_to_datalog`](mod@crate::ra_to_datalog),
//! which compiles `∪` and each disjunction of a σ into a fresh IDB with
//! one rule per operand) → TRC (`datalog_to_trc`, which lifts those
//! rules to top-level union branches, or to separate `¬∃` conjuncts
//! under a negation, within its node cap). On RA\* both steps are
//! pattern-preserving. The output head is named after the RA schema
//! (`q(sname)`), so results keep the attribute names the expression
//! infers.

use crate::datalog_to_trc::datalog_to_trc_named;
use crate::ra_to_datalog::ra_to_program;
use rd_core::{Catalog, CoreResult};
use rd_ra::ast::RaExpr;
use rd_trc::ast::TrcUnion;

/// Translates an RA expression into canonical hub TRC: one branch per
/// alternative its unions and disjunctions unfold to.
pub fn ra_to_trc(e: &RaExpr, catalog: &Catalog) -> CoreResult<TrcUnion> {
    datalog_to_trc_named(&ra_to_program(e, catalog)?, catalog, &e.schema(catalog)?)
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
        // Ten disjunctions lift to 1024 branches of 13 nodes each (a
        // tuple variable, ten comparisons, two head equalities).
        let ten = hub(&format!("sigma[{}](R)", disjunctions(10)));
        assert_eq!(ten.branches.len(), 1024);
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
        let err = ra_to_trc(&e, &catalog()).unwrap_err();
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
