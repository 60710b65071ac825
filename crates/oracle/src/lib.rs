//! # rd-oracle — reference evaluators for differential tests
//!
//! Three deliberately naive interpreters, one per language the engine
//! lowers directly: nested-loop TRC ([`trc`]), tuple-set RA ([`ra`]) and
//! bottom-up Datalog¬ ([`datalog`]). They walk the checked ASTs over
//! `HashMap`/`BTreeMap` environments and never touch the plan IR, the
//! cost-based planner, interning or the batched executor
//! (`rd_core::{exec, plan}`), so a bug in a lowering or in the executor
//! cannot hide by being shared with the reference it is compared with.
//!
//! The evaluators compare raw values (`Value::eval`), so they run over
//! string-resolved copies of a database ([`uninterned`]); handing them an
//! interning database is an error rather than a silent mismatch.
//!
//! This crate is a `[dev-dependencies]` entry only: nothing in the
//! shipped engine depends on it.

pub mod datalog;
pub mod ra;
pub mod trc;

use rd_core::{CoreError, CoreResult, Database};

/// The string-resolved reference copy of `db`: same content, interning
/// disabled, every stored value a raw `Int`/`Str`.
pub fn uninterned(db: &Database) -> Database {
    let mut raw = Database::uninterned();
    for rel in db.iter() {
        raw.add_relation(rel.resolved());
    }
    raw
}

/// Refuses interning databases: their stored `Sym` ids never equal the
/// `Str` constants of a parsed query under raw comparison.
fn require_uninterned(db: &Database) -> CoreResult<()> {
    if db.interning_enabled() {
        return Err(CoreError::Invalid(
            "the oracle evaluates raw values: pass an uninterned copy (rd_oracle::uninterned)"
                .into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::{Relation, TableSchema, Value};

    #[test]
    fn interning_databases_are_refused_and_copies_resolve() {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(TableSchema::new("T", ["x"]), [["red"], ["blue"]]).unwrap(),
        );
        assert!(require_uninterned(&db).is_err());
        let raw = uninterned(&db);
        assert!(require_uninterned(&raw).is_ok());
        assert!(raw
            .require("T")
            .unwrap()
            .contains(&rd_core::Tuple(vec![Value::str("red")])));
    }
}
