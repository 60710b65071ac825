//! E11 — Criterion micro-benchmarks for the engine itself: parsing,
//! canonicalization, translation, diagram round-trip, evaluation, and
//! pattern-isomorphism checking.
//!
//! Setting `RD_BENCH_SMOKE=1` runs only the evaluation, plan-cache,
//! and delta-mutation benches with a single sample — CI's cheap "the
//! benches still run" check.

use criterion::{criterion_group, criterion_main, Criterion};
use rd_core::{Catalog, DbGenerator, TableSchema, Value};
use std::hint::black_box;

/// `true` in CI smoke mode: evaluation benches only, one sample.
fn smoke() -> bool {
    std::env::var_os("RD_BENCH_SMOKE").is_some()
}

fn config() -> Criterion {
    Criterion::default().sample_size(if smoke() { 1 } else { 20 })
}

const DIVISION: &str = "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ \
                        not (exists r2 in R [ r2.B = s.B and r2.A = r.A ]) ]) ] }";

fn catalog() -> Catalog {
    Catalog::from_schemas([
        TableSchema::new("R", ["A", "B"]),
        TableSchema::new("S", ["B"]),
    ])
    .unwrap()
}

fn bench_parse(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let cat = catalog();
    c.bench_function("parse_trc_division", |b| {
        b.iter(|| rd_trc::parse_query(black_box(DIVISION), &cat).unwrap())
    });
    let sql = "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE NOT EXISTS \
               (SELECT * FROM R AS R2 WHERE R2.B = S.B AND R2.A = R.A))";
    c.bench_function("parse_sql_division", |b| {
        b.iter(|| rd_sql::parse_sql_unchecked(black_box(sql)).unwrap())
    });
}

fn bench_translate(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let cat = catalog();
    let q = rd_trc::parse_query(DIVISION, &cat).unwrap();
    c.bench_function("canonicalize_trc", |b| {
        b.iter(|| rd_trc::canonicalize(black_box(&q)))
    });
    c.bench_function("trc_to_datalog", |b| {
        b.iter(|| rd_translate::trc_to_datalog(black_box(&q), &cat).unwrap())
    });
    let p = rd_translate::trc_to_datalog(&q, &cat).unwrap();
    c.bench_function("datalog_to_ra", |b| {
        b.iter(|| rd_translate::datalog_to_ra(black_box(&p), &cat).unwrap())
    });
    c.bench_function("trc_to_sql", |b| {
        b.iter(|| rd_sql::trc_to_sql(black_box(&q)).unwrap())
    });
}

fn bench_diagram(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let cat = catalog();
    let q = rd_trc::parse_query(DIVISION, &cat).unwrap();
    c.bench_function("trc_to_diagram_and_back", |b| {
        b.iter(|| {
            let d = rd_diagram::from_trc(black_box(&q), &cat).unwrap();
            rd_diagram::to_trc(&d, &cat).unwrap()
        })
    });
    let d = rd_diagram::from_trc(&q, &cat).unwrap();
    c.bench_function("diagram_to_dot", |b| {
        b.iter(|| rd_diagram::to_dot(black_box(&d)))
    });
    c.bench_function("diagram_to_svg", |b| {
        b.iter(|| rd_diagram::to_svg(black_box(&d)))
    });
}

fn bench_eval(c: &mut Criterion) {
    let cat = catalog();
    let q = rd_trc::parse_query(DIVISION, &cat).unwrap();
    let mut gen = DbGenerator::with_int_domain(cat.clone(), 8, 30, 5);
    let db = gen.next_db();
    c.bench_function("eval_trc_division_30rows", |b| {
        b.iter(|| rd_trc::eval_query(black_box(&q), &db).unwrap())
    });
    let p = rd_translate::trc_to_datalog(&q, &cat).unwrap();
    c.bench_function("eval_datalog_division_30rows", |b| {
        b.iter(|| rd_translate::eval_datalog(black_box(&p), &db).unwrap())
    });
    let e = rd_translate::datalog_to_ra(&p, &cat).unwrap();
    c.bench_function("eval_ra_division_30rows", |b| {
        b.iter(|| rd_translate::eval_ra(black_box(&e), &db).unwrap())
    });
    // The join-heavy regime where planning + hash joins dominate: the
    // same division pattern over a 200-row instance.
    let mut gen = DbGenerator::with_int_domain(cat.clone(), 24, 200, 5);
    let big = gen.next_db();
    c.bench_function("eval_trc_division_200rows", |b| {
        b.iter(|| rd_trc::eval_query(black_box(&q), &big).unwrap())
    });
    c.bench_function("eval_datalog_division_200rows", |b| {
        b.iter(|| rd_translate::eval_datalog(black_box(&p), &big).unwrap())
    });
    // Execution alone: the same division, compiled once, so the number
    // excludes lowering and planning.
    let trc_u = rd_trc::TrcUnion::new(vec![q.clone()]).unwrap();
    let plan = rd_trc::lower_union(&trc_u, &big).unwrap();
    c.bench_function("exec_trc_division_200rows", |b| {
        b.iter(|| rd_core::exec::execute(black_box(&plan), &big).unwrap())
    });
}

/// A string-valued equi-join: what interning buys when the data is text
/// (equality is an id compare; pre-refactor this cloned and compared heap
/// strings per probe).
fn bench_eval_strings(c: &mut Criterion) {
    let cat = catalog();
    let domain: Vec<Value> = (0..24)
        .map(|i| Value::str(format!("name-{i:04}")))
        .collect();
    let mut gen = DbGenerator::new(cat.clone(), domain.clone(), 200, 9);
    let db = gen.next_db();
    let q = rd_trc::parse_query(
        "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B ] }",
        &cat,
    )
    .unwrap();
    c.bench_function("eval_trc_string_join_200rows", |b| {
        b.iter(|| rd_trc::eval_query(black_box(&q), &db).unwrap())
    });
    // Execution alone over a compiled join plan: interned symbol keys
    // take the dense-key join table. `DbGenerator` draws a *random*
    // tuple count per relation, so the instance is regenerated until R
    // really holds 400+ rows — the arm measures executor throughput, not
    // generator luck.
    let mut gen = DbGenerator::new(cat.clone(), domain, 800, 9);
    let big = loop {
        let db = gen.next_db();
        if db
            .iter()
            .any(|r| r.schema().name() == "R" && r.len() >= 400)
        {
            break db;
        }
    };
    let trc_u = rd_trc::TrcUnion::new(vec![q.clone()]).unwrap();
    let plan = rd_trc::lower_union(&trc_u, &big).unwrap();
    c.bench_function("exec_trc_string_join_400rows", |b| {
        b.iter(|| rd_core::exec::execute(black_box(&plan), &big).unwrap())
    });
}

/// Repeat execution of the division query through the engine session
/// with the compiled-plan cache on vs off (result cache disabled in
/// both, so every run executes — only the lower/compile step is
/// amortized). This is the CI `plan-cache` smoke case: the on/off pair
/// must both run; off-minus-on is the per-request compile cost the
/// cache removes from the hot serving path.
fn bench_plan_cache(c: &mut Criterion) {
    use rd_engine::{EngineShared, Language, QueryRequest, Session, SharedConfig};
    use std::sync::Arc;

    let cat = catalog();
    let mut gen = DbGenerator::with_int_domain(cat, 8, 30, 5);
    let db = gen.next_db();
    let req = QueryRequest::new(Language::Trc, DIVISION);
    let session_for = |plan_cache: bool| {
        Session::attach(Arc::new(EngineShared::with_config(
            db.clone(),
            SharedConfig {
                eval_cache: false,
                plan_cache,
                shards: 1,
                ..SharedConfig::default()
            },
        )))
    };
    let mut cached = session_for(true);
    cached.run(&req).unwrap(); // warm: compile once
    c.bench_function("session_division_plan_cache_on", |b| {
        b.iter(|| cached.run(black_box(&req)).unwrap())
    });
    let mut uncached = session_for(false);
    c.bench_function("session_division_plan_cache_off", |b| {
        b.iter(|| uncached.run(black_box(&req)).unwrap())
    });
}

/// Cost of the PR-7 tracing layer on the hot serving path: the same
/// cached-division repeat with per-stage span recording on (default)
/// vs off. Both sessions serve from the compiled-plan cache with the
/// result cache disabled, so every iteration executes and the only
/// delta is the clock reads + histogram records. The acceptance bar is
/// on-minus-off ≤ 5% of the off time.
fn bench_tracing_overhead(c: &mut Criterion) {
    use rd_engine::{EngineShared, Language, QueryRequest, Session, SharedConfig};
    use std::sync::Arc;

    let cat = catalog();
    let mut gen = DbGenerator::with_int_domain(cat, 8, 30, 5);
    let db = gen.next_db();
    let req = QueryRequest::new(Language::Trc, DIVISION);
    let session_for = |metrics: bool| {
        Session::attach(Arc::new(EngineShared::with_config(
            db.clone(),
            SharedConfig {
                eval_cache: false,
                shards: 1,
                metrics,
                ..SharedConfig::default()
            },
        )))
    };
    let mut traced = session_for(true);
    traced.run(&req).unwrap(); // warm: compile once
    c.bench_function("session_division_tracing_on", |b| {
        b.iter(|| traced.run(black_box(&req)).unwrap())
    });
    let mut untraced = session_for(false);
    untraced.run(&req).unwrap();
    c.bench_function("session_division_tracing_off", |b| {
        b.iter(|| untraced.run(black_box(&req)).unwrap())
    });
}

/// Delta-aware invalidation on the hot serving path: repeat a query
/// while mutations land on (a) no table, (b) an *unrelated* table, and
/// (c) the queried table. The delta-aware cache keeps (b) at
/// cached-result speed — a mutation bumps only the touched relation's
/// generation, so the Boat result survives Sailor inserts — while (c)
/// pays a genuine re-evaluation per request. Pre-PR-6, (b) and (c)
/// were identical: any write stranded every cached entry.
fn bench_delta_mutation_cache(c: &mut Criterion) {
    use rd_core::Tuple;
    use rd_engine::{parse_fixture, EngineShared, Language, QueryRequest, Session, SharedConfig};
    use std::sync::Arc;

    // The division query over a 200-row R, plus a small side table U the
    // query never reads — so a forced re-evaluation has a real cost and
    // an unrelated mutation a cheap one.
    let mut fixture = String::from("R(A, B):\n");
    for a in 0..20 {
        for b in 0..10 {
            if (a + b) % 7 != 0 {
                fixture.push_str(&format!("  ({a}, {b})\n"));
            }
        }
    }
    fixture.push_str("S(B):\n");
    for b in 0..10 {
        fixture.push_str(&format!("  ({b})\n"));
    }
    fixture.push_str("U(X):\n  (0)\n  (1)\n");
    let db = parse_fixture(&fixture).unwrap();
    let shared_session = || {
        Session::attach(Arc::new(EngineShared::with_config(
            db.clone(),
            SharedConfig {
                shards: 1,
                ..SharedConfig::default()
            },
        )))
    };
    let req = QueryRequest::new(Language::Trc, DIVISION);

    let mut hit = shared_session();
    hit.run(&req).unwrap();
    c.bench_function("delta_mutation_cache/repeat_query", |b| {
        b.iter(|| hit.run(black_box(&req)).unwrap())
    });

    // Each iteration inserts and deletes one fresh row — two deltas on a
    // constant-size database — then repeats the division query. With the
    // mutation on U the cached result survives both deltas and the query
    // stays at cached-result speed; on R it is invalidated twice and the
    // query genuinely re-evaluates.
    let mut bench_interleaved = |name: &str, table: &'static str, width: usize| {
        let mut session = shared_session();
        session.run(&req).unwrap();
        let mut next = 1_000_000i64;
        c.bench_function(name, |b| {
            b.iter(|| {
                next += 1;
                let rows = [Tuple(vec![Value::int(next); width])];
                session.shared().insert_rows(table, &rows).unwrap();
                session.shared().delete_rows(table, &rows).unwrap();
                session.run(black_box(&req)).unwrap()
            })
        });
    };
    bench_interleaved("delta_mutation_cache/after_unrelated_mutation", "U", 1);
    bench_interleaved("delta_mutation_cache/after_touching_mutation", "R", 2);

    // The mutation alone, with no query: one insert and one delete of a
    // fresh row in a 20 000-row relation. Each delta clones the touched
    // relation (the previous epoch still shares it) and fingerprints the
    // new epoch.
    let mut big = fixture.clone();
    big.push_str("Big(A, B):\n");
    for i in 0..20_000 {
        big.push_str(&format!("  ({i}, 'v{}')\n", i % 1000));
    }
    let shared = EngineShared::new(parse_fixture(&big).unwrap());
    let mut next = 1_000_000i64;
    c.bench_function("delta_mutation_cache/insert_delete_20k_rows", |b| {
        b.iter(|| {
            next += 1;
            let rows = [Tuple(vec![Value::int(next), Value::str("fresh")])];
            shared.insert_rows("Big", black_box(&rows)).unwrap();
            shared.delete_rows("Big", black_box(&rows)).unwrap()
        })
    });
}

/// The cost-based join orderer's headline case: a skewed three-way
/// join R(A,B) ⋈ S(A,Z) ⋈ T(B) at |R| = 10³..10⁵. R's A column is a
/// 50-value fan-out key that S duplicates tenfold, so R⋈S has 10·|R|
/// rows; T keeps only |R|/1000 of R's B values. An orderer blind to
/// intermediate cardinality would seed at tiny S and explode through
/// the fan-out; the DP's estimator starts from the selective T⋈R edge
/// and touches ~|R|/1000 rows past the index build. The plan is lowered
/// once outside the timing loop, so the bench reads as pure execution
/// cost of the chosen order.
fn bench_join_order(c: &mut Criterion) {
    use rd_core::exec::execute;
    use rd_core::{Database, Relation};

    let sizes: &[i64] = if smoke() {
        &[10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &n in sizes {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("R", ["A", "B"]),
                (0..n).map(|i| [i % 50, i]).collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("S", ["A", "Z"]),
                (0..500i64).map(|i| [i % 50, i]).collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("T", ["B"]),
                (0..5000i64).map(|i| [i * 1000]).collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        let q = rd_trc::parse_query(
            "{ q(B) | exists r in R, s in S, t in T [ \
               q.B = r.B and s.A = r.A and t.B = r.B ] }",
            &db.catalog(),
        )
        .unwrap();
        let union = rd_trc::TrcUnion::new(vec![q]).unwrap();
        let dp = rd_trc::eval::lower_union(&union, &db).unwrap();
        c.bench_function(&format!("join_order/skewed_3way_r{n}_dp"), |b| {
            b.iter(|| execute(black_box(&dp), &db).unwrap())
        });
    }
}

fn bench_patterns(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let cat = catalog();
    let q = rd_trc::parse_query(DIVISION, &cat).unwrap();
    let sql = rd_sql::ast::SqlUnion::single(rd_sql::trc_to_sql(&q).unwrap());
    c.bench_function("pattern_isomorphism_trc_vs_sql", |b| {
        b.iter(|| {
            rd_pattern::pattern_isomorphic(
                &rd_pattern::AnyQuery::Trc(q.clone()),
                &rd_pattern::AnyQuery::Sql(sql.clone()),
                &cat,
                &rd_pattern::EquivOptions {
                    random_rounds: 30,
                    ..Default::default()
                },
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parse, bench_translate, bench_diagram, bench_eval, bench_eval_strings,
        bench_plan_cache, bench_tracing_overhead, bench_delta_mutation_cache, bench_join_order,
        bench_patterns
}
criterion_main!(benches);
