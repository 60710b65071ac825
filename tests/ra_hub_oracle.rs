//! RA through the TRC hub, checked against the RA reference interpreter.
//!
//! RA runs by translating to its hub TRC form, which lifts `∪` and
//! disjunctive selections to top-level union branches and rewrites
//! non-equality antijoins. Each case below exercises one of those
//! rewrites: `∪` at the top, under ⋈, × and the left side of −, and on
//! the right side of − and ⊲; `or` nested inside `and`; θ-⋈ and θ-⊲ with
//! `<`. Every case runs through `Session::run` over seeded mixed
//! int/string instances, and its rows and output attributes must equal
//! `rd_oracle::ra`'s on the string-resolved copy.

use rd_core::{Catalog, DbGenerator, TableSchema, Value};
use rd_engine::{Language, QueryRequest, Session};

const CASES: [&str; 16] = [
    // ∪ at the top, and under π/σ/ρ and the left side of −.
    "pi[A](R) union T",
    "pi[A](sigma[A>1](R union rho[C->A](pi[C, B](S)))) - T",
    // ∪ under θ-⋈, natural ⋈ and ×.
    "(R union rho[C->A](pi[C, B](S))) join[B=B2] rho[B->B2](S)",
    "(R union rho[C->A](pi[C, B](S))) join T",
    "(T union rho[C->A](pi[C](S))) x rho[A->A2](T union rho[C->A](pi[C](S)))",
    // ∪ on the right side of − and ⊲ (natural and θ).
    "pi[A](R) - (T union rho[C->A](pi[C](S)))",
    "R antijoin (T union rho[C->A](pi[C](S)))",
    "R antijoin[A<A2] (rho[A->A2](T) union rho[C->A2](pi[C](S)))",
    "pi[A](R) - pi[A](sigma[A=1 or B=2](R))",
    // `or` nested inside `and`, and `and` inside `or`.
    "sigma[(A=1 or A=2) and (B>1 or B='red')](R)",
    "sigma[A=0 or (B<'red' and A<>2)](R)",
    // θ-⋈ and θ-⊲ with `<`, alone and mixed with an equality.
    "R join[A<C] pi[C](S)",
    "R antijoin[A<C] S",
    "R antijoin[B=B and A<C] S",
    "pi[A](R) antijoin[A<A2] rho[A->A2](T)",
    "sigma[A<B](R) union rho[C->A](pi[C, B](S) join rho[A->C](T))",
];

fn catalog() -> Catalog {
    Catalog::from_schemas([
        TableSchema::new("R", ["A", "B"]),
        TableSchema::new("S", ["B", "C"]),
        TableSchema::new("T", ["A"]),
    ])
    .unwrap()
}

fn domain() -> Vec<Value> {
    vec![
        Value::int(0),
        Value::int(1),
        Value::int(2),
        Value::str("apple"),
        Value::str("red"),
        Value::str("zebra"),
    ]
}

#[test]
fn ra_rewrites_match_the_ra_oracle_through_the_session() {
    let cat = catalog();
    let mut gen = DbGenerator::new(cat.clone(), domain(), 6, 0x4A17);
    let mut nonempty = 0usize;
    for round in 0..8 {
        let db = gen.next_db();
        let raw = rd_oracle::uninterned(&db);
        let mut session = Session::new(db);
        for text in CASES {
            let label = format!("round {round}: {text}");
            let e = rd_ra::parse(text, &cat).unwrap_or_else(|e| panic!("{label}: {e}"));
            let expected = rd_oracle::ra::eval(&e, &raw).unwrap();
            let resp = session
                .run(&QueryRequest::new(Language::Ra, text))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(resp.relation.schema().attrs(), expected.attrs, "{label}");
            assert_eq!(resp.relation.tuples(), &expected.tuples, "{label}");
            nonempty += usize::from(!expected.tuples.is_empty());
        }
    }
    // The instances must exercise the cases, not answer them all empty.
    assert!(nonempty > 4 * CASES.len(), "{nonempty} non-empty answers");
}

/// `n` two-way disjunctions under one conjunction: 2^n disjuncts.
fn disjunctions(n: usize) -> String {
    (0..n)
        .map(|i| format!("(A={i} or B={i})"))
        .collect::<Vec<_>>()
        .join(" and ")
}

#[test]
fn large_expansions_answer_in_linear_size_or_are_refused() {
    let cat = catalog();
    let db = DbGenerator::new(cat.clone(), domain(), 6, 0x51DE).next_db();
    let raw = rd_oracle::uninterned(&db);
    let mut session = Session::new(db);
    // A 30-deep θ-antijoin chain and a θ-antijoin over 2^10 disjuncts
    // both translate linearly and answer as the interpreter does; a
    // 70-way join is one block wider than the planner's subset masks.
    for text in [
        format!("T{}", " antijoin[A<C] S".repeat(30)),
        format!("T{}", " join T".repeat(69)),
        format!(
            "T antijoin[A<A2] rho[A->A2](sigma[{}](R))",
            disjunctions(10)
        ),
    ] {
        let e = rd_ra::parse(&text, &cat).unwrap();
        let expected = rd_oracle::ra::eval(&e, &raw).unwrap();
        let resp = session
            .run(&QueryRequest::new(Language::Ra, &text))
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(resp.relation.tuples(), &expected.tuples, "{text}");
    }
    // Copying 2^10 disjuncts into each of 2^10 left branches is refused.
    let text = format!("sigma[{0}](R) - sigma[{0}](R)", disjunctions(10));
    let err = session
        .run(&QueryRequest::new(Language::Ra, &text))
        .unwrap_err();
    assert!(err.to_string().contains("nodes"), "{err}");
}
