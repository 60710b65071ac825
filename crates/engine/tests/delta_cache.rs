//! Delta-aware cache invalidation: a mutation to one relation must
//! evict exactly the cached entries whose scan set touches it — entries
//! over disjoint relations keep serving from cache — and a session with
//! caching enabled must agree answer-for-answer with an uncached one
//! under interleaved queries and mutations.

use rd_core::{Database, Relation, TableSchema, Tuple, Value};
use rd_engine::{
    demo_database, EngineShared, Language, QueryRequest, Session, SessionStats, SharedConfig,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn row(vals: &[Value]) -> Tuple {
    Tuple(vals.to_vec())
}

/// Sorted row texts — a stable, comparable rendering of a result.
fn rows_of(resp: &rd_engine::QueryResponse) -> Vec<String> {
    let mut rows: Vec<String> = resp.relation.iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows
}

/// After caching queries over Boat and Sailor, an insert into Sailor
/// must (a) leave the Boat entry serving from cache — counted as a
/// delta survival — and (b) force the Sailor query to re-evaluate —
/// counted as a delta invalidation — and reflect the new row.
#[test]
fn mutation_invalidates_touched_relations_and_spares_the_rest() {
    let shared = Arc::new(EngineShared::new(demo_database()));
    let mut session = Session::attach(shared.clone());
    let boat_q = QueryRequest::new(Language::Sql, "SELECT DISTINCT Boat.color FROM Boat");
    let sailor_q = QueryRequest::new(Language::Sql, "SELECT DISTINCT Sailor.sname FROM Sailor");

    // Prime both cache entries.
    assert_eq!(session.run(&boat_q).unwrap().relation.len(), 2);
    assert_eq!(session.run(&sailor_q).unwrap().relation.len(), 2);
    assert_eq!(session.stats().eval_misses, 2);

    // Mutate Sailor only.
    let outcome = shared
        .insert_rows("Sailor", &[row(&[Value::int(3), Value::str("Horatio")])])
        .unwrap();
    assert_eq!(outcome.applied, 1);

    // Boat's entry survives the delta: a cache hit, no re-evaluation.
    let boat_resp = session.run(&boat_q).unwrap();
    assert!(boat_resp.eval_cache_hit, "Boat does not read Sailor");
    let stats = session.stats().clone();
    assert_eq!(stats.delta_survivals, 1, "{stats:?}");
    assert_eq!(stats.eval_misses, 2, "{stats:?}");

    // Sailor's entry is stale: re-evaluated, and the new row shows up.
    let sailor_resp = session.run(&sailor_q).unwrap();
    assert!(!sailor_resp.eval_cache_hit);
    assert_eq!(sailor_resp.relation.len(), 3, "sees the inserted sailor");
    let stats = session.stats().clone();
    assert!(stats.delta_invalidations >= 1, "{stats:?}");
    assert_eq!(stats.eval_misses, 3, "{stats:?}");

    // The refreshed entry is good again: next lookup is a plain hit.
    assert!(session.run(&sailor_q).unwrap().eval_cache_hit);
}

/// A delete is just as much a delta as an insert: cached entries over
/// the touched relation must not serve the removed row.
#[test]
fn delete_invalidates_cached_results_over_the_touched_relation() {
    let shared = Arc::new(EngineShared::new(demo_database()));
    let mut session = Session::attach(shared.clone());
    let q = QueryRequest::new(Language::Sql, "SELECT DISTINCT Boat.color FROM Boat");
    assert_eq!(session.run(&q).unwrap().relation.len(), 2);

    let outcome = shared
        .delete_rows("Boat", &[row(&[Value::int(102), Value::str("green")])])
        .unwrap();
    assert_eq!(outcome.applied, 1);

    let resp = session.run(&q).unwrap();
    assert!(!resp.eval_cache_hit);
    assert_eq!(resp.relation.len(), 1, "green boat is gone");
}

/// Differential check: run the same interleaved query/mutation script
/// against a cached session and an uncached one; every answer must
/// agree. This is the end-to-end soundness guard for base-keyed cache
/// entries validated by scan-set generations.
#[test]
fn cached_and_uncached_sessions_agree_under_interleaved_mutations() {
    let cached = Arc::new(EngineShared::new(demo_database()));
    let uncached = Arc::new(EngineShared::with_config(
        demo_database(),
        SharedConfig {
            eval_cache_capacity: 0,
            plan_cache_capacity: 0,
            ..SharedConfig::default()
        },
    ));
    let mut cached_session = Session::attach(cached.clone());
    let mut uncached_session = Session::attach(uncached.clone());

    let queries = [
        "SELECT DISTINCT Boat.color FROM Boat",
        "SELECT DISTINCT Sailor.sname FROM Sailor, Reserves \
         WHERE Sailor.sid = Reserves.sid",
        "SELECT DISTINCT Reserves.bid FROM Reserves",
    ];
    // (table, row, is_insert) — interleaved between full query sweeps.
    let script: Vec<(&str, Tuple, bool)> = vec![
        ("Sailor", row(&[Value::int(3), Value::str("Horatio")]), true),
        ("Reserves", row(&[Value::int(3), Value::int(102)]), true),
        ("Boat", row(&[Value::int(103), Value::str("blue")]), true),
        ("Reserves", row(&[Value::int(1), Value::int(101)]), false),
        ("Sailor", row(&[Value::int(2), Value::str("Lubber")]), false),
    ];

    let sweep = |cached_session: &mut Session, uncached_session: &mut Session| {
        for q in &queries {
            let req = QueryRequest::new(Language::Sql, *q);
            let a = cached_session.run(&req).unwrap();
            let b = uncached_session.run(&req).unwrap();
            assert_eq!(rows_of(&a), rows_of(&b), "query {q:?} diverged");
        }
    };

    sweep(&mut cached_session, &mut uncached_session);
    for (table, tuple, is_insert) in script {
        for shared in [&cached, &uncached] {
            let rows = std::slice::from_ref(&tuple);
            if is_insert {
                shared.insert_rows(table, rows).unwrap();
            } else {
                shared.delete_rows(table, rows).unwrap();
            }
        }
        sweep(&mut cached_session, &mut uncached_session);
    }

    // The cached session actually exercised the delta paths.
    let stats: &SessionStats = cached_session.stats();
    assert!(stats.delta_invalidations > 0, "{stats:?}");
    assert!(stats.delta_survivals > 0, "{stats:?}");
    assert!(stats.eval_hits > 0, "{stats:?}");
}

/// A small seeded generator (splitmix64), so the fingerprint script is
/// reproducible without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Each table's schema and resolved rows: what the engine's epoch must
/// hold after every step of a mutation script.
type Model = BTreeMap<String, (TableSchema, BTreeSet<Tuple>)>;

/// The fingerprint of a fresh load of `model`. Tables are added in
/// reverse name order and the database interns each table's strings in
/// sorted order, so the symbol ids differ from those of an epoch that
/// grew by mutation: a digest that hashed ids instead of strings would
/// disagree.
fn fresh_fingerprint(model: &Model) -> u64 {
    let mut db = Database::new();
    for (schema, rows) in model.values().rev() {
        let rows = rows.iter().rev().map(|t| t.0.clone());
        db.add_relation(Relation::from_rows(schema.clone(), rows).unwrap());
    }
    EngineShared::new(db).epoch().fingerprint
}

/// A random row for `schema`: small ints, strings the demo database
/// already holds, and strings no table has interned yet.
fn random_row(rng: &mut Rng, schema: &TableSchema, fresh: &mut u32) -> Tuple {
    const KNOWN: [&str; 4] = ["Dustin", "Lubber", "red", "green"];
    Tuple(
        (0..schema.arity())
            .map(|_| match rng.below(3) {
                0 => Value::int(rng.below(4) as i64 + 100),
                1 => Value::str(KNOWN[rng.below(KNOWN.len())]),
                _ => {
                    *fresh += 1;
                    Value::str(format!("new-{fresh}"))
                }
            })
            .collect(),
    )
}

/// The epoch fingerprint follows every delta. A seeded script of 200
/// steps over the demo database mixes inserts (duplicates and strings
/// never interned included), deletes (absent rows included) and one
/// `create_table`; after each step the epoch must hold the model's rows
/// and fingerprint exactly as a fresh load of them does. An insert
/// undone by a delete must restore the earlier fingerprint, and
/// insert/delete deltas keep the previous epoch's catalog.
#[test]
fn incremental_fingerprint_matches_a_fresh_load() {
    let shared = EngineShared::new(demo_database());
    let mut model: Model = shared
        .epoch()
        .db
        .iter()
        .map(|r| {
            let rows = r.resolved().tuples().clone();
            (r.name().to_string(), (r.schema().clone(), rows))
        })
        .collect();
    let mut rng = Rng(0x5eed);
    let mut fresh = 0;
    // Steps that changed nothing: duplicate inserts, absent deletes.
    let (mut duplicates, mut absent) = (0, 0);
    for step in 0..200 {
        let before = shared.epoch();
        let outcome = if step == 100 {
            let schema = TableSchema::new("Extra", ["k", "v"]);
            model.insert("Extra".into(), (schema.clone(), BTreeSet::new()));
            shared.create_table(schema).unwrap()
        } else {
            let names: Vec<String> = model.keys().cloned().collect();
            let name = &names[rng.below(names.len())];
            let (schema, rows) = model.get_mut(name).unwrap();
            let existing = (!rows.is_empty() && rng.below(3) > 0)
                .then(|| rows.iter().nth(rng.below(rows.len())).unwrap().clone());
            let insert = rng.below(2) == 0;
            // Inserts re-add a present row a third of the time (a
            // duplicate); deletes mostly hit a present row, else an
            // absent one.
            let row = match existing {
                Some(row) if !insert || rng.below(2) == 0 => row,
                _ => random_row(&mut rng, schema, &mut fresh),
            };
            let batch = std::slice::from_ref(&row);
            let (outcome, changed) = if insert {
                (shared.insert_rows(name, batch).unwrap(), rows.insert(row))
            } else {
                (shared.delete_rows(name, batch).unwrap(), rows.remove(&row))
            };
            assert_eq!(outcome.applied, u64::from(changed), "step {step}");
            if !changed {
                *(if insert { &mut duplicates } else { &mut absent }) += 1;
            }
            outcome
        };
        let epoch = shared.epoch();
        assert_eq!(outcome.fingerprint, epoch.fingerprint, "step {step}");
        assert_eq!(epoch.generation, before.generation + 1);
        for (name, (_, rows)) in &model {
            let stored = epoch.db.relation(name).unwrap().resolved();
            assert_eq!(stored.tuples(), rows, "step {step}: {name}");
        }
        assert_eq!(
            epoch.fingerprint,
            fresh_fingerprint(&model),
            "step {step}: delta fingerprint drifted from a fresh load"
        );
        if step == 100 {
            assert_eq!(epoch.catalog.len(), 4);
        } else {
            assert!(Arc::ptr_eq(&before.catalog, &epoch.catalog), "step {step}");
        }

        // A row inserted and deleted again leaves the content, and so
        // the fingerprint, where it was.
        if step % 10 == 0 {
            let (name, (schema, _)) = model.iter().nth(rng.below(model.len())).unwrap();
            let mut row = random_row(&mut rng, schema, &mut fresh);
            row.0[0] = Value::str(format!("undo-{step}"));
            let batch = std::slice::from_ref(&row);
            let inserted = shared.insert_rows(name, batch).unwrap();
            assert_eq!(inserted.applied, 1);
            assert_ne!(inserted.fingerprint, epoch.fingerprint, "step {step}");
            let deleted = shared.delete_rows(name, batch).unwrap();
            assert_eq!(deleted.applied, 1);
            assert_eq!(deleted.fingerprint, epoch.fingerprint, "step {step}");
        }
    }
    assert!(
        duplicates > 0 && absent > 0 && fresh > 0,
        "{duplicates} {absent} {fresh}"
    );
}

/// Every counter a session and its three caches keep, after each step of
/// one script, in each of the four result/plan cache configurations.
/// Rendered as `s[…] p[…] e[…] l[…]`: the 16 [`SessionStats`] fields in
/// declaration order, then the parse, eval (result) and plan
/// `CacheStats` as `hits misses evictions entries bytes>0`.
fn counters(session: &Session) -> String {
    let s = session.stats();
    let cache = |c: rd_engine::CacheStats| {
        format!(
            "{} {} {} {} {}",
            c.hits,
            c.misses,
            c.evictions,
            c.entries,
            u8::from(c.bytes > 0)
        )
    };
    let shared = session.shared();
    format!(
        "s[{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}] p[{}] e[{}] l[{}]",
        s.queries,
        s.batches,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.eval_hits,
        s.eval_misses,
        s.eval_evictions,
        s.eval_skipped,
        s.plan_hits,
        s.plan_misses,
        s.plan_evictions,
        s.delta_invalidations,
        s.delta_survivals,
        s.rows_returned,
        s.rows_streamed,
        cache(shared.parse_cache_stats()),
        cache(shared.eval_cache_stats()),
        cache(shared.plan_cache_stats()),
    )
}

/// Pins the counting contract of the plan and result caches: a cache
/// that is off records and counts nothing; an absent key is a miss at
/// both levels; a key whose canonical text differs is a cache-level hit
/// but a session miss; a stale scan set counts a delta invalidation and
/// a miss; a fresh entry is a hit, plus a delta survival when a mutation
/// came since it was stored; an over-threshold result counts
/// `eval_skipped` and is not stored.
#[test]
fn counters_follow_one_contract_in_every_cache_configuration() {
    let text = "SELECT DISTINCT Sailor.sname FROM Sailor, Reserves WHERE Sailor.sid = Reserves.sid";
    // No space after the comma: a different parse key, the same
    // canonical text.
    let twin = "SELECT DISTINCT Sailor.sname FROM Sailor,Reserves WHERE Sailor.sid = Reserves.sid";
    let req = QueryRequest::new(Language::Sql, text);
    let config = |eval_cache, plan_cache, eval_cache_max_entry_bytes| SharedConfig {
        eval_cache,
        plan_cache,
        eval_cache_max_entry_bytes,
        shards: 1,
        ..SharedConfig::default()
    };
    // (eval_cache, plan_cache, expected counters after steps 1–8).
    let table: [(bool, bool, [&str; 8]); 4] = [
        (
            true,
            true,
            [
                "s[1 0 0 1 0 0 1 0 0 0 1 0 0 0 2 0] p[0 1 0 1 0] e[0 1 0 1 1] l[0 1 0 1 0]",
                "s[2 0 1 1 0 1 1 0 0 0 1 0 0 0 4 0] p[1 1 0 1 0] e[1 1 0 1 1] l[0 1 0 1 0]",
                "s[3 0 1 2 0 2 1 0 0 0 1 0 0 0 6 0] p[1 2 0 2 0] e[2 1 0 1 1] l[0 1 0 1 0]",
                "s[4 0 2 2 0 2 2 0 0 0 2 0 2 0 8 0] p[2 2 0 2 0] e[3 1 0 1 1] l[1 1 0 1 0]",
                "s[5 0 3 2 0 3 2 0 0 0 2 0 2 1 10 0] p[3 2 0 2 0] e[4 1 0 1 1] l[1 1 0 1 0]",
                "s[5 0 6 2 0 3 2 0 0 2 2 0 2 3 10 0] p[6 2 0 2 0] e[4 1 0 1 1] l[3 1 0 1 0]",
                "s[6 0 6 3 0 3 3 0 0 2 3 0 2 3 12 0] p[6 3 0 1 0] e[4 2 0 1 1] l[3 2 0 1 0]",
                "s[1 0 0 1 0 0 1 0 1 0 1 0 0 0 2 0] p[0 1 0 1 0] e[0 1 0 0 0] l[0 1 0 1 0]",
            ],
        ),
        (
            true,
            false,
            [
                "s[1 0 0 1 0 0 1 0 0 0 0 0 0 0 2 0] p[0 1 0 1 0] e[0 1 0 1 1] l[0 0 0 0 0]",
                "s[2 0 1 1 0 1 1 0 0 0 0 0 0 0 4 0] p[1 1 0 1 0] e[1 1 0 1 1] l[0 0 0 0 0]",
                "s[3 0 1 2 0 2 1 0 0 0 0 0 0 0 6 0] p[1 2 0 2 0] e[2 1 0 1 1] l[0 0 0 0 0]",
                "s[4 0 2 2 0 2 2 0 0 0 0 0 1 0 8 0] p[2 2 0 2 0] e[3 1 0 1 1] l[0 0 0 0 0]",
                "s[5 0 3 2 0 3 2 0 0 0 0 0 1 1 10 0] p[3 2 0 2 0] e[4 1 0 1 1] l[0 0 0 0 0]",
                "s[5 0 6 2 0 3 2 0 0 0 0 0 1 1 10 0] p[6 2 0 2 0] e[4 1 0 1 1] l[0 0 0 0 0]",
                "s[6 0 6 3 0 3 3 0 0 0 0 0 1 1 12 0] p[6 3 0 1 0] e[4 2 0 1 1] l[0 0 0 0 0]",
                "s[1 0 0 1 0 0 1 0 1 0 0 0 0 0 2 0] p[0 1 0 1 0] e[0 1 0 0 0] l[0 0 0 0 0]",
            ],
        ),
        (
            false,
            true,
            [
                "s[1 0 0 1 0 0 0 0 0 0 1 0 0 0 2 0] p[0 1 0 1 0] e[0 0 0 0 0] l[0 1 0 1 0]",
                "s[2 0 1 1 0 0 0 0 0 1 1 0 0 0 4 0] p[1 1 0 1 0] e[0 0 0 0 0] l[1 1 0 1 0]",
                "s[3 0 1 2 0 0 0 0 0 2 1 0 0 0 6 0] p[1 2 0 2 0] e[0 0 0 0 0] l[2 1 0 1 0]",
                "s[4 0 2 2 0 0 0 0 0 2 2 0 1 0 8 0] p[2 2 0 2 0] e[0 0 0 0 0] l[3 1 0 1 0]",
                "s[5 0 3 2 0 0 0 0 0 3 2 0 1 1 10 0] p[3 2 0 2 0] e[0 0 0 0 0] l[4 1 0 1 0]",
                "s[5 0 6 2 0 0 0 0 0 5 2 0 1 3 10 0] p[6 2 0 2 0] e[0 0 0 0 0] l[6 1 0 1 0]",
                "s[6 0 6 3 0 0 0 0 0 5 3 0 1 3 12 0] p[6 3 0 1 0] e[0 0 0 0 0] l[6 2 0 1 0]",
                "s[1 0 0 1 0 0 0 0 0 0 1 0 0 0 2 0] p[0 1 0 1 0] e[0 0 0 0 0] l[0 1 0 1 0]",
            ],
        ),
        (
            false,
            false,
            [
                "s[1 0 0 1 0 0 0 0 0 0 0 0 0 0 2 0] p[0 1 0 1 0] e[0 0 0 0 0] l[0 0 0 0 0]",
                "s[2 0 1 1 0 0 0 0 0 0 0 0 0 0 4 0] p[1 1 0 1 0] e[0 0 0 0 0] l[0 0 0 0 0]",
                "s[3 0 1 2 0 0 0 0 0 0 0 0 0 0 6 0] p[1 2 0 2 0] e[0 0 0 0 0] l[0 0 0 0 0]",
                "s[4 0 2 2 0 0 0 0 0 0 0 0 0 0 8 0] p[2 2 0 2 0] e[0 0 0 0 0] l[0 0 0 0 0]",
                "s[5 0 3 2 0 0 0 0 0 0 0 0 0 0 10 0] p[3 2 0 2 0] e[0 0 0 0 0] l[0 0 0 0 0]",
                "s[5 0 6 2 0 0 0 0 0 0 0 0 0 0 10 0] p[6 2 0 2 0] e[0 0 0 0 0] l[0 0 0 0 0]",
                "s[6 0 6 3 0 0 0 0 0 0 0 0 0 0 12 0] p[6 3 0 1 0] e[0 0 0 0 0] l[0 0 0 0 0]",
                "s[1 0 0 1 0 0 0 0 0 0 0 0 0 0 2 0] p[0 1 0 1 0] e[0 0 0 0 0] l[0 0 0 0 0]",
            ],
        ),
    ];
    for (eval_cache, plan_cache, expected) in table {
        let shared = Arc::new(EngineShared::with_config(
            demo_database(),
            config(
                eval_cache,
                plan_cache,
                SharedConfig::default().eval_cache_max_entry_bytes,
            ),
        ));
        let mut session = Session::attach(shared.clone());
        let mut seen = Vec::new();
        let mut step = |session: &mut Session| seen.push(counters(session));
        // 1. Cold run.
        session.run(&req).unwrap();
        step(&mut session);
        // 2. Repeat.
        session.run(&req).unwrap();
        step(&mut session);
        // 3. Whitespace twin: a parse miss, the same canonical text.
        session
            .run(&QueryRequest::new(Language::Sql, twin))
            .unwrap();
        step(&mut session);
        // 4. Insert into a relation the query reads, then re-run.
        shared
            .insert_rows("Reserves", &[row(&[Value::int(2), Value::int(102)])])
            .unwrap();
        session.run(&req).unwrap();
        step(&mut session);
        // 5. Insert into a relation it does not read, then re-run.
        shared
            .insert_rows("Boat", &[row(&[Value::int(103), Value::str("blue")])])
            .unwrap();
        session.run(&req).unwrap();
        step(&mut session);
        // 6. Explain, explain analyze and translate the same text.
        session.explain(Language::Sql, text).unwrap();
        session.explain_analyze(Language::Sql, text).unwrap();
        session
            .translate(Language::Sql, text, Language::Trc)
            .unwrap();
        step(&mut session);
        // 7. Replace the database, then re-run.
        shared.replace_database(demo_database());
        session.run(&req).unwrap();
        step(&mut session);
        // 8. One result over a tiny admission threshold.
        let mut tiny = Session::attach(Arc::new(EngineShared::with_config(
            demo_database(),
            config(eval_cache, plan_cache, 1),
        )));
        tiny.run(&req).unwrap();
        step(&mut tiny);
        let label = format!("eval_cache {eval_cache}, plan_cache {plan_cache}");
        for (i, (got, want)) in seen.iter().zip(expected).enumerate() {
            assert_eq!(got, want, "{label}, after step {}", i + 1);
        }
    }
}
