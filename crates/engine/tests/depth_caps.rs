//! Deep queries on a server compute worker's 2 MiB stack: past each
//! front end's depth cap a query is an error, and a query exactly at the
//! cap runs the whole pipeline — evaluation, translations, and an SVG
//! diagram — to completion.

use rd_engine::{demo_database, DiagramFormat, Language, QueryRequest, Session};

/// Runs `req` through a fresh demo session on a thread with the stack a
/// compute worker gets; returns the error text, if any.
fn run_on_small_stack(req: QueryRequest) -> Result<(), String> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let mut session = Session::new(demo_database());
            session
                .run(&req.with_translations().with_diagram(DiagramFormat::Svg))
                .map(|_| ())
                .map_err(|e| e.to_string())
        })
        .unwrap()
        .join()
        .expect("no stack overflow")
}

/// `n` nested `pi`s: an RA tree `n` levels deep.
fn ra_nested(n: usize) -> String {
    format!("{}Boat{}", "pi[color](".repeat(n - 1), ")".repeat(n - 1))
}

/// A left-deep chain of differences `n` levels deep, no parentheses
/// needed beyond the operands'.
fn ra_chain(n: usize) -> String {
    format!("pi[color](Boat){}", " - pi[color](Boat)".repeat(n - 2))
}

/// `n` nested `NOT (` groups.
fn sql_nested(n: usize) -> String {
    format!(
        "SELECT DISTINCT Boat.color FROM Boat WHERE {}Boat.bid = 101{}",
        "NOT (".repeat(n),
        ")".repeat(n)
    )
}

/// An `exists` around `n - 1` nested `not (` groups.
fn trc_nested(n: usize) -> String {
    format!(
        "{{ q(color) | exists b in Boat [ q.color = b.color and {}b.bid = 101{} ] }}",
        "not (".repeat(n - 1),
        ")".repeat(n - 1)
    )
}

/// A chain of `n` IDBs: `I0` over `Boat`, each next one over the last,
/// and `Q` on top.
fn datalog_chain(n: usize) -> String {
    let mut text = String::from("I0(c) :- Boat(b, c).\n");
    for k in 1..n - 1 {
        text.push_str(&format!("I{k}(c) :- I{}(c).\n", k - 1));
    }
    text + &format!("Q(c) :- I{}(c).", n - 2)
}

fn at_depth(n: usize) -> [(Language, String); 5] {
    [
        (Language::Ra, ra_nested(n)),
        (Language::Ra, ra_chain(n)),
        (Language::Sql, sql_nested(n)),
        (Language::Trc, trc_nested(n)),
        (Language::Datalog, datalog_chain(n)),
    ]
}

#[test]
fn queries_at_the_depth_cap_run_translations_and_diagrams_to_completion() {
    assert_eq!(rd_ra::parser::MAX_DEPTH, 128);
    assert_eq!(rd_sql::parser::MAX_DEPTH, 128);
    assert_eq!(rd_trc::parser::MAX_DEPTH, 128);
    assert_eq!(rd_datalog::check::MAX_IDB_DEPTH, 128);
    for (language, text) in at_depth(128) {
        let short: String = text.chars().take(60).collect();
        run_on_small_stack(QueryRequest::new(language, text))
            .unwrap_or_else(|e| panic!("{language} at the cap: {e}: {short}…"));
    }
    for (language, text) in at_depth(129) {
        let err = run_on_small_stack(QueryRequest::new(language, text)).unwrap_err();
        assert!(err.contains("128"), "{language} one past the cap: {err}");
    }
}

#[test]
fn deep_nesting_repros_are_errors_not_stack_overflows() {
    let repros = [
        (
            Language::Ra,
            format!("{}Boat{}", "(".repeat(2_000), ")".repeat(2_000)),
        ),
        (
            Language::Ra,
            format!("pi[color](Boat){}", " - pi[color](Boat)".repeat(3_000)),
        ),
        (
            Language::Ra,
            format!("Boat{}", " antijoin[bid=bid] Boat".repeat(3_000)),
        ),
        (Language::Sql, sql_nested(2_000)),
        (Language::Trc, trc_nested(2_000)),
        (Language::Datalog, datalog_chain(3_001)),
    ];
    for (language, text) in repros {
        let err = run_on_small_stack(QueryRequest::new(language, text)).unwrap_err();
        assert!(err.contains("128"), "{language}: {err}");
    }
}
