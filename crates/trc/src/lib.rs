//! # rd-trc — safe Tuple Relational Calculus and the fragment TRC\*
//!
//! This crate implements the paper's central language (§2.3): safe TRC with
//! existential quantification, negation, conjunction — and, for the
//! relationally complete extension of §5, disjunction and union.
//!
//! It provides:
//!
//! * an [AST](ast) for queries `{q(A, …) | φ}`, Boolean sentences `φ`, and
//!   unions of queries;
//! * a [parser](mod@parser) and [printer](mod@printer) for an ASCII surface syntax
//!   that round-trips (the printer can also emit the paper's Unicode
//!   notation `∃r ∈ R[…]`);
//! * [well-formedness and safety checks](check), including the paper's
//!   *guardedness* (Definition 3) and the non-disjunctive fragment TRC\*
//!   (Definition 4);
//! * the [canonical form](canon) of §2.3 — existential quantifiers pulled
//!   up to the nearest enclosing negation, `¬(pred)` folded into the
//!   complemented comparison operator, conjunctions flattened;
//! * a nested-loop [evaluator](eval) over [`rd_core::Database`] instances;
//! * a seeded [random query generator](random) used for differential
//!   testing of the translations (Theorem 6).
//!
//! ## Surface syntax
//!
//! ```text
//! { q(sname) | exists s in Sailor [ q.sname = s.sname and
//!     not (exists b in Boat [ b.color = 'red' and
//!         not (exists r in Reserves [ r.bid = b.bid and r.sid = s.sid ]) ]) ] }
//! ```
//!
//! Boolean sentences omit the output head: `exists r in R [ r.A = 1 ]`.
//! Unions of queries are written `{...} union {...}`.
//!
//! ```
//! use rd_trc::parse_query;
//! use rd_core::{Catalog, TableSchema};
//!
//! let catalog = Catalog::from_schemas([
//!     TableSchema::new("R", ["A", "B"]),
//!     TableSchema::new("S", ["B"]),
//! ]).unwrap();
//! let q = parse_query("{ q(A) | exists r in R [ q.A = r.A and
//!                        not (exists s in S [ s.B = r.B ]) ] }", &catalog).unwrap();
//! assert!(q.check(&catalog).is_ok());
//! assert!(rd_trc::check::is_nondisjunctive(&q));
//! ```

pub mod ast;
pub mod canon;
pub mod check;
pub mod eval;
pub mod parser;
pub mod printer;
pub mod random;

pub use ast::{AttrRef, Binding, Formula, OutputSpec, Predicate, Term, TrcQuery, TrcUnion, Var};
pub use canon::canonicalize;
pub use eval::{eval_query, eval_sentence, eval_union, lower_query, lower_sentence, lower_union};
pub use parser::{parse_query, parse_union};
pub use printer::{to_ascii, to_unicode};
