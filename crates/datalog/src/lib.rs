//! # rd-datalog — non-recursive Datalog with negation and Datalog\*
//!
//! Implements the paper's first language (§2.1): Datalog¬ (non-recursive
//! Datalog with negation and built-in predicates) and its non-disjunctive
//! fragment **Datalog\*** (Definition 1): every IDB appears in the head of
//! exactly one rule and is used at most once in any body.
//!
//! Surface syntax follows the paper:
//!
//! ```text
//! I(x)  :- R(x, _), S(y), not R(x, y).
//! Q(x)  :- R(x, _), not I(x).
//! ```
//!
//! `_` is the anonymous single-use variable, `not` prefixes negated atoms,
//! and built-in predicates are comparisons between variables/constants
//! (`y > 5`). The last rule's head is the query predicate unless stated
//! otherwise.
//!
//! ```
//! use rd_datalog::parse_program;
//! use rd_core::{Catalog, TableSchema};
//!
//! let catalog = Catalog::from_schemas([
//!     TableSchema::new("R", ["A", "B"]),
//!     TableSchema::new("S", ["B"]),
//! ]).unwrap();
//! let p = parse_program("Q(x, y) :- R(x, y), not S(y).", &catalog).unwrap();
//! assert_eq!(p.signature(), vec!["R", "S"]);
//! assert!(rd_datalog::check::is_datalog_star(&p));
//! ```

pub mod ast;
pub mod check;
pub mod parser;

pub use ast::{Atom, BuiltIn, DlProgram, DlTerm, Rule};
pub use check::{check_safety, is_datalog_star, is_nonrecursive, is_safe};
pub use parser::{parse_program, parse_program_unchecked};
