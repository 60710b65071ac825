//! # rd-sql — SQL\* (the paper's Fig. 3 grammar) and its TRC\* bridge
//!
//! Implements the paper's fourth language (§2.4): SQL interpreted under
//! **set semantics** (explicit `DISTINCT`) and **binary logic** (no
//! `NULL`s), restricted to the EBNF grammar of Fig. 3, extended — for the
//! relationally complete language of §5 — with `OR` between predicates and
//! `UNION` between non-Boolean queries (footnote 7).
//!
//! Provided here:
//!
//! * a hand-written lexer + recursive-descent [parser](mod@parser) of exactly
//!   that grammar (an off-the-shelf SQL parser would accept far more than
//!   SQL\* and defeat the fragment analysis);
//! * a [printer](mod@printer) emitting the paper's formatted style;
//! * [canonicalization](canon) per Fig. 14: membership (`IN`) and
//!   quantified (`ALL`/`ANY`) subqueries become existential subqueries,
//!   and non-negated existential subqueries are unnested;
//! * the 1-to-1 [translation](translate) between canonical SQL\* and
//!   canonical TRC\* (Theorem 6, part 5) in both directions;
//! * [fragment checks](check): guardedness (every predicate references a
//!   table within the scope of the last `NOT`) and SQL\* membership.
//!
//! ```
//! use rd_core::{Catalog, TableSchema};
//! use rd_sql::{parse_sql, sql_to_trc};
//!
//! let catalog = Catalog::from_schemas([
//!     TableSchema::new("R", ["A", "B"]),
//!     TableSchema::new("S", ["B"]),
//! ]).unwrap();
//! let q = parse_sql(
//!     "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS \
//!      (SELECT * FROM S WHERE S.B = R.B)", &catalog).unwrap();
//! let trc = sql_to_trc(&q, &catalog).unwrap();
//! assert_eq!(trc.branches.len(), 1);
//! assert_eq!(trc.branches[0].signature(), vec!["R", "S"]);
//! ```

pub mod ast;
pub mod canon;
pub mod check;
pub mod parser;
pub mod printer;
pub mod translate;

pub use ast::{
    Column, SelectCols, SelectQuery, SqlPredicate, SqlQuery, SqlTerm, SqlUnion, TableRef,
};
pub use canon::canonicalize_sql;
pub use check::is_sql_star;
pub use parser::{parse_sql, parse_sql_unchecked};
pub use printer::format_sql;
pub use translate::{lower_sql, sql_to_trc, trc_to_sql, trc_union_to_sql};
