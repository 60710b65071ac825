//! The parse-cache key ignores whitespace layout: texts that differ only
//! in the whitespace runs between tokens share a key and prepare to
//! equal artifacts, while whitespace inside `'…'` literals — and
//! everything after an unterminated quote — stays significant.

use rd_core::{Catalog, Database, Relation, TableSchema, Value};
use rd_engine::shared::text_key;
use rd_engine::{Artifact, Language, QueryRequest, Session};
use rd_textbook::Book;

/// Whitespace a perturbed query may use between two tokens.
const GAPS: [&str; 7] = [" ", "  ", "\n", "\n  ", "\t", " \n    ", "\u{2003}"];

/// Variants checked per corpus text.
const VARIANTS: usize = 32;

/// A fixed xorshift stream: `next(n)` draws from `0..n`.
struct Rng(u64);

impl Rng {
    fn next(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// `text` with every whitespace run outside literals replaced by a
/// random gap, plus random leading and trailing whitespace.
fn perturb(text: &str, rng: &mut Rng) -> String {
    let mut out = String::from(["", " ", "\n\t"][rng.next(3)]);
    let mut in_quote = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\'' {
            in_quote = !in_quote;
        }
        if !in_quote && c.is_whitespace() {
            while chars.peek().is_some_and(|n| n.is_whitespace()) {
                chars.next();
            }
            out.push_str(GAPS[rng.next(GAPS.len())]);
        } else {
            out.push(c);
        }
    }
    out + ["", " ", "\n"][rng.next(3)]
}

/// The five textbook catalogs in one (their table names are disjoint).
fn textbook_catalog() -> Catalog {
    Catalog::from_schemas(
        Book::ALL
            .iter()
            .flat_map(|b| b.catalog().iter().cloned().collect::<Vec<_>>()),
    )
    .unwrap()
}

/// Every corpus query in every language its translation reaches.
fn corpus_texts(session: &mut Session) -> Vec<(String, Language, String)> {
    let mut texts = Vec::new();
    for entry in rd_textbook::corpus() {
        for language in Language::ALL {
            let text = match language {
                Language::Trc => entry.trc.to_string(),
                _ => match session.translate(Language::Trc, entry.trc, language) {
                    Ok(text) => text,
                    Err(_) => continue,
                },
            };
            texts.push((entry.id.to_string(), language, text));
        }
    }
    texts
}

#[test]
fn whitespace_variants_of_every_corpus_query_share_key_and_artifact() {
    let catalog = textbook_catalog();
    let mut session = Session::new(Database::empty_for(&catalog));
    let texts = corpus_texts(&mut session);
    assert!(texts.len() > 200, "{} texts", texts.len());
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for (id, language, text) in &texts {
        let artifact = Artifact::prepare(*language, text, &catalog)
            .unwrap_or_else(|e| panic!("{id} in {language}: {e}"));
        session.run(&QueryRequest::new(*language, text)).unwrap();
        for v in 0..VARIANTS {
            let variant = perturb(text, &mut rng);
            assert_eq!(
                text_key(&variant),
                text_key(text),
                "{id} in {language}: {variant:?}"
            );
            assert_eq!(
                Artifact::prepare(*language, &variant, &catalog).unwrap(),
                artifact,
                "{id} in {language}: {variant:?}"
            );
            if v == 0 {
                let resp = session.run(&QueryRequest::new(*language, variant)).unwrap();
                assert!(
                    resp.cache_hit,
                    "{id} in {language}: a variant is a parse hit"
                );
            }
        }
    }
}

#[test]
fn layout_outside_literals_is_all_the_key_ignores() {
    assert_eq!(
        text_key("  pi[a]( R )\n"),
        text_key("pi[a](\t\u{2003}R \n)")
    );
    // Whitespace is collapsed, never removed: a token boundary counts.
    assert_ne!(text_key("pi[a](R)"), text_key("pi[a]( R )"));
    assert_ne!(text_key("not exists"), text_key("notexists"));
}

/// R(a, b) whose `b` values differ only inside their literals.
fn spaced_session() -> Session {
    let schema = TableSchema::new("R", ["a", "b"]);
    let rows = [(1, "a  b"), (2, "a b"), (3, "it's  x"), (4, "it's x")]
        .map(|(a, b)| vec![Value::Int(a), Value::Str(b.into())]);
    let mut db = Database::new();
    db.add_relation(Relation::from_rows(schema, rows).unwrap());
    Session::new(db)
}

/// A query for the rows of R whose `b` is the literal `lit` (quoted).
fn where_b_is(language: Language, lit: &str) -> String {
    match language {
        Language::Trc => format!("{{ q(a) | exists r in R [ q.a = r.a and r.b = {lit} ] }}"),
        Language::Sql => format!("SELECT DISTINCT R.a FROM R WHERE R.b = {lit}"),
        Language::Ra => format!("pi[a](sigma[b = {lit}](R))"),
        Language::Datalog => format!("Q(x) :- R(x, {lit})."),
    }
}

#[test]
fn whitespace_inside_literals_keys_and_answers_apart() {
    let mut session = spaced_session();
    let mut pairs = vec![];
    for language in Language::ALL {
        pairs.push((language, "'a  b'", "'a b'", [1, 2]));
    }
    // TRC and SQL escape a quote by doubling it.
    for language in [Language::Trc, Language::Sql] {
        pairs.push((language, "'it''s  x'", "'it''s x'", [3, 4]));
    }
    for (language, wide, narrow, [a_wide, a_narrow]) in pairs {
        let (wide, narrow) = (where_b_is(language, wide), where_b_is(language, narrow));
        assert_ne!(text_key(&wide), text_key(&narrow), "{language}: {wide}");
        for (text, a) in [(&wide, a_wide), (&narrow, a_narrow)] {
            let resp = session.run(&QueryRequest::new(language, text)).unwrap();
            assert!(!resp.cache_hit, "{language}: {text}");
            let rows: Vec<_> = resp.relation.iter().map(|t| t.0.clone()).collect();
            assert_eq!(rows, [vec![Value::Int(a)]], "{language}: {text}");
        }
    }
}

#[test]
fn an_unterminated_quote_is_an_error_with_a_key_of_its_own() {
    let mut session = spaced_session();
    for language in Language::ALL {
        let open = |lit: &str| {
            let text = where_b_is(language, lit);
            text[..text.find(lit).unwrap() + lit.len()].to_string()
        };
        // Everything after the open quote is literal text, trailing
        // whitespace included.
        let texts = [open("'a  b"), open("'a b"), open("'a b  "), open("'a b\n")];
        for (i, text) in texts.iter().enumerate() {
            for other in &texts[i + 1..] {
                assert_ne!(text_key(text), text_key(other), "{language}: {text:?}");
            }
            for _ in 0..2 {
                let err = session.run(&QueryRequest::new(language, text.as_str()));
                assert!(err.is_err(), "{language}: {text:?}");
            }
        }
        // The terminated twin still answers.
        let closed = where_b_is(language, "'a b'");
        assert_eq!(
            session
                .run(&QueryRequest::new(language, closed))
                .unwrap()
                .relation
                .len(),
            1
        );
    }
}
