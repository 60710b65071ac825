//! The parsed, checked, canonicalized form of a query — the unit the
//! session's cache stores.

use crate::Language;
use rd_core::exec::{self, Plan};
use rd_core::{Catalog, CoreResult, Database, PlanHints, PlannerOpts, Relation};
use rd_datalog::DlProgram;
use rd_ra::RaExpr;
use rd_sql::SqlUnion;
use rd_trc::TrcUnion;

/// A query parsed in its source language and brought to canonical form.
///
/// TRC and SQL artifacts hold *unions* (the relationally complete §5
/// languages); a plain query is a one-branch union. Datalog expresses
/// disjunction natively through multiple rules, and RA through `∪`.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// A canonicalized TRC union.
    Trc(TrcUnion),
    /// A canonicalized SQL\* union.
    Sql(SqlUnion),
    /// A relational algebra expression.
    Ra(RaExpr),
    /// A non-recursive Datalog¬ program.
    Datalog(DlProgram),
}

impl Artifact {
    /// Parses and canonicalizes `text` as `language` against `catalog`.
    ///
    /// This is the expensive step the session cache amortizes: lexing,
    /// recursive-descent parsing, well-formedness + safety checks, and
    /// canonicalization.
    pub fn prepare(language: Language, text: &str, catalog: &Catalog) -> CoreResult<Artifact> {
        match language {
            Language::Trc => {
                let u = rd_trc::parse_union(text, catalog)?;
                Ok(Artifact::Trc(rd_trc::canon::canonicalize_union(&u)))
            }
            Language::Sql => {
                let u = rd_sql::parse_sql(text, catalog)?;
                Ok(Artifact::Sql(rd_sql::canonicalize_sql(&u, catalog)?))
            }
            Language::Ra => Ok(Artifact::Ra(rd_ra::parse(text, catalog)?)),
            Language::Datalog => Ok(Artifact::Datalog(rd_datalog::parse_program(text, catalog)?)),
        }
    }

    /// The artifact's language.
    pub fn language(&self) -> Language {
        match self {
            Artifact::Trc(_) => Language::Trc,
            Artifact::Sql(_) => Language::Sql,
            Artifact::Ra(_) => Language::Ra,
            Artifact::Datalog(_) => Language::Datalog,
        }
    }

    /// The canonical text rendering in the source language.
    pub fn canonical_text(&self) -> String {
        match self {
            Artifact::Trc(u) => rd_trc::printer::union_to_ascii(u),
            Artifact::Sql(u) => rd_sql::printer::format_sql_union(u),
            Artifact::Ra(e) => rd_ra::printer::to_ascii(e),
            Artifact::Datalog(p) => p.to_string(),
        }
    }

    /// The query's signature — the ordered list of table references
    /// (Def. 9), the backbone of its pattern.
    pub fn signature(&self) -> Vec<String> {
        match self {
            Artifact::Trc(u) => u.branches.iter().flat_map(|q| q.signature()).collect(),
            Artifact::Sql(u) => u.signature(),
            Artifact::Ra(e) => e.signature(),
            Artifact::Datalog(p) => p.signature(),
        }
    }

    /// The query's canonical TRC hub form — the hub of the Theorem 6
    /// translation diagram. Every language executes through it, and its
    /// translations and diagram are drawn from it. Its output head names
    /// the result's attributes: SQL's and RA's inferred names, Datalog's
    /// positional `x1, …, xn`.
    pub fn hub(&self, catalog: &Catalog) -> CoreResult<TrcUnion> {
        match self {
            Artifact::Trc(u) => Ok(u.clone()),
            Artifact::Sql(u) => Ok(rd_trc::canon::canonicalize_union(&rd_sql::sql_to_trc(
                u, catalog,
            )?)),
            Artifact::Ra(e) => rd_translate::ra_to_trc(e, catalog),
            Artifact::Datalog(p) => rd_translate::datalog_to_trc(p, catalog),
        }
    }

    /// Lowers the artifact's [`hub`](Artifact::hub) form onto the shared
    /// plan IR ([`rd_core::exec`]) against `db`'s catalog, statistics,
    /// and symbol table. The compiled [`Plan`] carries no borrows and
    /// stays valid for the lifetime of the database epoch, so the engine
    /// caches it and skips this step on repeat traffic.
    pub fn compile(&self, db: &Database) -> CoreResult<Plan> {
        rd_trc::eval::lower_union(&self.hub(&db.catalog())?, db)
    }

    /// [`compile`](Artifact::compile); [`PlannerOpts`] and [`PlanHints`]
    /// carry nothing.
    pub fn compile_with(
        &self,
        db: &Database,
        _opts: &PlannerOpts,
        _hints: &PlanHints,
    ) -> CoreResult<Plan> {
        self.compile(db)
    }

    /// Evaluates the artifact over `db`, normalizing the output to a
    /// [`Relation`]: one [`compile`](Artifact::compile) followed by one
    /// pass of the shared executor. Boolean sentences (TRC `φ` without
    /// an output head, SQL `SELECT [NOT] EXISTS ...`) evaluate to a
    /// 0-ary relation: one empty tuple for `true`, empty for `false`.
    pub fn eval(&self, db: &Database) -> CoreResult<Relation> {
        exec::execute(&self.compile(db)?, db)
    }
}
