//! The views a parse entry memoizes — translations, their notes, and
//! each diagram format — are exactly what an uncached run renders:
//! every corpus query in every language, warm against a fresh session
//! with one-entry caches, and served from the memo on every repeat.

use rd_core::{Catalog, Database};
use rd_engine::{DiagramFormat, Language, QueryRequest, QueryResponse, Session};
use rd_textbook::Book;

fn textbook_db() -> Database {
    let catalog = Catalog::from_schemas(
        Book::ALL
            .iter()
            .flat_map(|b| b.catalog().iter().cloned().collect::<Vec<_>>()),
    )
    .unwrap();
    Database::empty_for(&catalog)
}

/// What a response carries beside its result.
fn views(resp: &QueryResponse) -> impl PartialEq + std::fmt::Debug + '_ {
    (&resp.translations, &resp.diagram, &resp.notes)
}

#[test]
fn memoized_views_match_a_fresh_session_for_every_corpus_query() {
    let db = textbook_db();
    let mut warm = Session::new(db.clone());
    let (mut runs, mut noted) = (0, 0);
    for entry in rd_textbook::corpus() {
        for language in Language::ALL {
            let text = match language {
                Language::Trc => entry.trc.to_string(),
                _ => match warm.translate(Language::Trc, entry.trc, language) {
                    Ok(text) => text,
                    Err(_) => continue,
                },
            };
            let label = format!("{} in {language}", entry.id);
            let base = QueryRequest::new(language, &text).with_translations();
            for format in [DiagramFormat::Svg, DiagramFormat::Dot] {
                let req = base.clone().with_diagram(format);
                let fresh = Session::with_cache_capacity(db.clone(), 1)
                    .run(&req)
                    .unwrap();
                // The first warm run of a format fills its cell (SVG:
                // the translations too); the second is served from them.
                warm.run(&req).unwrap();
                let memo = warm.run(&req).unwrap();
                assert!(memo.cache_hit, "{label}");
                assert_eq!(views(&memo), views(&fresh), "{label} ({format:?})");
                assert!(fresh.translations.is_some(), "{label}");
                noted += usize::from(
                    !fresh.notes.is_empty()
                        || !fresh.translations.as_ref().unwrap().notes.is_empty(),
                );
            }
            runs += 1;
        }
    }
    assert!(runs > 200, "{runs} runs");
    // Union queries carry their RA/Datalog translations as notes.
    assert!(noted > 0, "no run carried a note");
}

#[test]
fn a_view_is_rendered_on_the_first_request_that_asks_for_it() {
    let mut session = Session::new(rd_engine::demo_database());
    let text = "SELECT DISTINCT Boat.color FROM Boat";
    let plain = QueryRequest::new(Language::Sql, text);
    let svg = plain
        .clone()
        .with_translations()
        .with_diagram(DiagramFormat::Svg);
    let dot = plain.clone().with_diagram(DiagramFormat::Dot);
    // A request that asks for no view gets none.
    let bare = session.run(&plain).unwrap();
    assert!(bare.translations.is_none() && bare.diagram.is_none());
    // The first request for a view renders it on the warm parse entry;
    // a repeat is served the same bytes.
    let first_svg = session.run(&svg).unwrap();
    assert!(first_svg.cache_hit && first_svg.eval_cache_hit);
    assert!(first_svg.translations.is_some());
    assert!(first_svg.diagram.as_deref().unwrap().starts_with("<svg"));
    assert_eq!(views(&session.run(&svg).unwrap()), views(&first_svg));
    // Another format is its own view, rendered when first asked for.
    let first_dot = session.run(&dot).unwrap();
    assert!(first_dot.translations.is_none());
    assert!(first_dot.diagram.as_deref().unwrap().starts_with("digraph"));
    assert_ne!(first_dot.diagram, first_svg.diagram);
    // Views filled by different requests combine.
    let both = plain.with_translations().with_diagram(DiagramFormat::Dot);
    let combined = session.run(&both).unwrap();
    assert_eq!(combined.translations, first_svg.translations);
    assert_eq!(combined.diagram, first_dot.diagram);
}
