//! The textbook corpus as a fixed differential input: all 59
//! `rd_textbook::corpus()` queries, in every language the Theorem 6
//! translations carry them to, run through `Session::run` over one
//! seeded instance of the five textbook catalogs (integer and string
//! columns). Every answer must equal the `rd-oracle` reference
//! interpreters' on the string-resolved copy: the TRC oracle on the
//! query's hub form, and the RA and Datalog oracles on the RA and
//! Datalog texts themselves.

use rd_core::{Catalog, Database, Relation, Tuple, Value};
use rd_engine::{Language, QueryRequest, Session};
use rd_textbook::Book;
use rd_trc::TrcUnion;
use std::collections::BTreeSet;

/// String-valued attributes of the five textbook schemas; all others
/// hold integers.
const STRING_ATTRS: [&str; 21] = [
    "sname",
    "bname",
    "color",
    "bcity",
    "cname",
    "street",
    "ccity",
    "fname",
    "lname",
    "dname",
    "pname",
    "city",
    "pcity",
    "position",
    "fName",
    "cfName",
    "comment",
    "branchNo",
    "propertyNo",
    "staffNo",
    "clientNo",
];

/// The corpus's own string constants plus one that no query names.
const STRINGS: [&str; 16] = [
    "red",
    "blue",
    "London",
    "Bob",
    "Lubber",
    "Interlake",
    "Smith",
    "Research",
    "ProductX",
    "Perryridge",
    "PG4",
    "B003",
    "Harrison",
    "Glasgow",
    "Brooklyn",
    "Alpha",
];

/// Small integers that hit the corpus's constants and comparisons.
const INTS: [i64; 12] = [1, 2, 3, 5, 7, 8, 10, 101, 103, 500, 1_200, 30_000];

/// Every table of the five catalogs (their names are disjoint), 8–15
/// rows each, drawn from the pools above by a fixed xorshift stream.
fn textbook_db() -> Database {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let mut db = Database::new();
    for book in Book::ALL {
        for schema in book.catalog().iter() {
            let rows: Vec<Vec<Value>> = (0..8 + next(8))
                .map(|_| {
                    schema
                        .attrs()
                        .iter()
                        .map(|a| {
                            if STRING_ATTRS.contains(&a.as_str()) {
                                Value::str(STRINGS[next(STRINGS.len())])
                            } else {
                                Value::int(INTS[next(INTS.len())])
                            }
                        })
                        .collect()
                })
                .collect();
            db.add_relation(Relation::from_rows(schema.clone(), rows).unwrap());
        }
    }
    db
}

/// The TRC oracle's answer for a hub form: the union of its branches, or
/// the 0-ary encoding (`{()}` / `{}`) of a Boolean sentence.
fn trc_oracle(hub: &TrcUnion, raw: &Database) -> BTreeSet<Tuple> {
    match hub.branches.as_slice() {
        [sentence] if sentence.is_sentence() => {
            let holds = rd_oracle::trc::eval_sentence(sentence, raw).unwrap();
            holds.then(|| Tuple(Vec::new())).into_iter().collect()
        }
        _ => rd_oracle::trc::eval_union(hub, raw)
            .unwrap()
            .tuples()
            .clone(),
    }
}

/// The RA and Datalog oracles' answers on a query's own text.
fn own_oracle(
    language: Language,
    text: &str,
    catalog: &Catalog,
    raw: &Database,
) -> Option<BTreeSet<Tuple>> {
    match language {
        Language::Ra => {
            let e = rd_ra::parse(text, catalog).unwrap();
            Some(rd_oracle::ra::eval(&e, raw).unwrap().tuples)
        }
        Language::Datalog => {
            let p = rd_datalog::parse_program(text, catalog).unwrap();
            Some(
                rd_oracle::datalog::eval_program(&p, raw)
                    .unwrap()
                    .tuples()
                    .clone(),
            )
        }
        Language::Trc | Language::Sql => None,
    }
}

#[test]
fn corpus_answers_match_the_oracles_in_every_reachable_language() {
    let db = textbook_db();
    let raw = rd_oracle::uninterned(&db);
    let catalog = db.catalog();
    let mut session = Session::new(db);
    let mut runs = [0usize; 4];
    let mut nonempty = 0usize;
    let corpus = rd_textbook::corpus();
    assert_eq!(corpus.len(), 59);
    for entry in &corpus {
        for (slot, language) in [
            Language::Trc,
            Language::Sql,
            Language::Ra,
            Language::Datalog,
        ]
        .into_iter()
        .enumerate()
        {
            let text = match language {
                Language::Trc => entry.trc.to_string(),
                // Translations outside the Theorem 6 fragment (unions into
                // Datalog/RA) are refused; there is nothing to run.
                _ => match session.translate(Language::Trc, entry.trc, language) {
                    Ok(text) => text,
                    Err(_) => continue,
                },
            };
            let label = format!("{} in {language}:\n{text}", entry.id);
            let resp = session
                .run(&QueryRequest::new(language, &text))
                .unwrap_or_else(|e| panic!("{label}\nfails: {e}"));
            let got = resp.relation.tuples();
            let hub = session.to_hub_trc(&resp.artifact).unwrap();
            assert_eq!(
                got,
                &trc_oracle(&hub, &raw),
                "{label}\nvs TRC oracle on the hub"
            );
            if let Some(own) = own_oracle(language, &text, &catalog, &raw) {
                assert_eq!(got, &own, "{label}\nvs its own language's oracle");
            }
            runs[slot] += 1;
            nonempty += usize::from(!got.is_empty());
        }
    }
    // Every entry runs as written; the translations reach most of them.
    assert_eq!(runs[0], 59, "TRC runs: {runs:?}");
    assert!(
        runs[1..].iter().all(|&n| n > 40),
        "runs per language: {runs:?}"
    );
    // The instance must exercise the queries, not answer them all empty.
    assert!(
        nonempty > runs.iter().sum::<usize>() / 2,
        "{nonempty} of {runs:?}"
    );
}
