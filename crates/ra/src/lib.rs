//! # rd-ra — Relational Algebra, the fragment RA\*, and the antijoin
//!
//! Implements the paper's algebraic language (§2.2): the basic operators
//! `× σ ⋈꜀ π − ρ`, plus `∪` (outside the fragment) and the antijoin `⊲`
//! of Appendix G.1 (Theorem 21). We use the **named perspective**: every
//! expression has an inferred schema (an ordered list of attribute names),
//! the product requires disjoint names (use `ρ`), and difference/union
//! require identical schemas.
//!
//! The crate holds the AST, parser, fragment checks and printer only. An
//! RA expression executes through its TRC hub form
//! (`rd_translate::eval_ra` / `rd_translate::lower_ra`), on the
//! same planner and executor as every other language.
//!
//! ```
//! use rd_ra::{parse, RaExpr};
//! use rd_core::{Catalog, TableSchema, Database, Relation};
//!
//! let catalog = Catalog::from_schemas([
//!     TableSchema::new("R", ["A", "B"]),
//!     TableSchema::new("S", ["B"]),
//! ]).unwrap();
//! // π_A R − π_A((π_A R × S) − R)   (relational division, eq. 15)
//! let e = parse("pi[A](R) - pi[A]((pi[A](R) x S) - R)", &catalog).unwrap();
//! assert_eq!(e.schema(&catalog).unwrap(), vec!["A"]);
//! assert_eq!(e.signature(), vec!["R", "R", "S", "R"]);
//! ```

pub mod ast;
pub mod check;
pub mod parser;
pub mod printer;

pub use ast::{Condition, JoinCond, RaExpr, RaTerm};
pub use check::{is_ra_star, is_ra_star_antijoin};
pub use parser::parse;
pub use printer::{to_ascii, to_unicode};
