//! Seeded workload generation: the database the server is seeded with,
//! the pool of distinct requests, one request stream per connection, and
//! the expected answer to every query.
//!
//! Everything here is a pure function of the workload and the seed, so
//! the same seed always yields the same stream (see [`Inputs::stream_hash`]).

use crate::stats::{fnv, set_print, FNV_SEED};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rd_core::{Database, Relation, TableSchema, Value};
use rd_engine::{
    Artifact, DiagramFormat, EngineShared, Language, QueryRequest, Session, SharedConfig,
    Translations,
};
use rd_server::{protocol, Request, Response};
use rd_textbook::Book;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Client connections, one lock-step thread each. One: with two lock-step
/// clients on a 2-vCPU machine the load generator competes with the
/// server for CPU, and throughput swings by a third from second to second.
pub const CONNECTIONS: usize = 1;

/// Operations per connection stream; a run that outlasts it wraps around.
const STREAM_LEN: usize = 1 << 17;

// cold_analytic / durable_write database shape.
const SAILORS: i64 = 2_000;
const SAILOR_NAMES: i64 = 600;
const RATINGS: i64 = 10;
const BOATS: i64 = 500;
const FIRST_BID: i64 = 101;
const COLORS: i64 = 125;
const RESERVES: usize = 20_000;
/// Sids of rows the durable workload inserts start here: above every
/// seeded sailor, so no query result changes while the writes still
/// invalidate every cached result that scans `Reserves`.
const WRITE_SID_BASE: i64 = 1_000_000;

/// editor_feedback whitespace variants per corpus query and language.
const EDITOR_VARIANTS: usize = 32;

/// The four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The demo database and the default four-language mix: all cache hits.
    HotCached,
    /// Seeded sailors data; constants drawn from a domain far larger than the caches.
    ColdAnalytic,
    /// Paired single-row inserts/deletes beside reads, fsync per acked write.
    DurableWrite,
    /// The §6.1 corpus with translations and SVG diagrams, whitespace-perturbed.
    EditorFeedback,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HotCached,
        Workload::ColdAnalytic,
        Workload::DurableWrite,
        Workload::EditorFeedback,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotCached => "hot_cached",
            Workload::ColdAnalytic => "cold_analytic",
            Workload::DurableWrite => "durable_write",
            Workload::EditorFeedback => "editor_feedback",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations each connection sends during set-up, before timing:
    /// enough to fill the caches the workload can fill.
    pub fn warmup_ops(self) -> usize {
        match self {
            // Two connections together fill the 256-entry caches.
            Workload::ColdAnalytic => 128,
            _ => 64,
        }
    }

    /// Requests per connection the traced run replays in-process. Fixed
    /// per workload, so per-layer call counts repeat exactly for a seed.
    pub fn replay_ops(self) -> usize {
        match self {
            Workload::HotCached => 20_000,
            Workload::ColdAnalytic => 400,
            Workload::DurableWrite => 1_000,
            Workload::EditorFeedback => 2_000,
        }
    }

    /// `true` when the server runs with a data directory.
    pub fn durable(self) -> bool {
        self == Workload::DurableWrite
    }
}

/// One operation of a connection's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Query `i` of [`Inputs::queries`].
    Query(u32),
    /// Insert row `j` of this connection's [`Inputs::rows`].
    Insert(u32),
    /// Delete row `j` of this connection's [`Inputs::rows`].
    Delete(u32),
}

/// What a correct reply to one query carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Result cardinality.
    pub rows: u64,
    /// [`set_print`] of the result rows.
    pub print: u64,
    /// Translation pairs as the wire carries them (requested queries only).
    pub translations: Option<Vec<(String, String)>>,
    /// The rendered diagram (requested queries only).
    pub diagram: Option<String>,
}

/// How the expected answer of a pool query is computed.
#[derive(Debug, Clone, Copy)]
enum Answer {
    /// Evaluate base request `i` on a cache-less in-process session.
    Engine(u32),
    /// Compute directly from the generated tuples (no engine code).
    Sailors(SailorsQuery),
}

/// The parametrized query patterns over the sailors schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SailorsQuery {
    /// Names of sailors who reserved boat `bid` (join).
    Join { bid: i64 },
    /// Ids of sailors rated `rating` who never reserved boat `bid` (antijoin).
    Antijoin { rating: i64, bid: i64 },
    /// Names of sailors who reserved every boat of `color` (division).
    Division { color: i64 },
    /// Names of sailors who reserved a boat of `color` (skewed 3-way join).
    Join3 { color: i64 },
    /// Ids of boats of `color` (reads only `Boats`).
    BoatsOfColor { color: i64 },
}

/// Everything a run sends, generated from the seed.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The database the server is seeded with.
    pub db: Database,
    /// Distinct query requests; streams refer to them by index.
    pub queries: Vec<Request>,
    answers: Vec<Answer>,
    bases: Vec<Request>,
    sailors: Option<SailorsData>,
    /// One operation stream per connection.
    pub streams: Vec<Vec<Op>>,
    /// Per connection, the `Reserves` rows its writes insert and delete.
    pub rows: Vec<Vec<Vec<Value>>>,
}

impl Inputs {
    /// Generates the workload's inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000_0000_0000);
        match workload {
            Workload::HotCached => Ok(hot_cached(&mut rng)),
            Workload::ColdAnalytic => Ok(cold_analytic(&mut rng)),
            Workload::DurableWrite => Ok(durable_write(&mut rng)),
            Workload::EditorFeedback => editor_feedback(&mut rng),
        }
    }

    /// The request a write operation of connection `c` sends.
    pub fn write_request(&self, c: usize, op: Op) -> Request {
        match op {
            Op::Insert(j) => Request::Insert {
                table: "Reserves".into(),
                rows: vec![self.rows[c][j as usize].clone()],
            },
            Op::Delete(j) => Request::Delete {
                table: "Reserves".into(),
                rows: vec![self.rows[c][j as usize].clone()],
            },
            Op::Query(_) => unreachable!("queries come from the pool"),
        }
    }

    /// Row counts per relation of the seed database.
    pub fn sizes(&self) -> Vec<(String, usize)> {
        self.db
            .iter()
            .map(|r| (r.name().to_string(), r.len()))
            .collect()
    }

    /// A hash of everything the server will receive: every pool request
    /// as encoded on the wire, every stream operation, every write row.
    pub fn stream_hash(&self) -> u64 {
        let mut h = fnv(FNV_SEED, self.workload.name().as_bytes());
        for q in &self.queries {
            h = fnv(h, protocol::encode_frame(q, None).as_bytes());
        }
        for stream in &self.streams {
            for op in stream {
                let (tag, n) = match op {
                    Op::Query(i) => (b'q', *i),
                    Op::Insert(j) => (b'i', *j),
                    Op::Delete(j) => (b'd', *j),
                };
                h = fnv(h, &[tag]);
                h = fnv(h, &n.to_le_bytes());
            }
        }
        for rows in &self.rows {
            for row in rows {
                h = fnv(h, &crate::stats::row_print(row).to_le_bytes());
            }
        }
        h
    }

    /// The expected answer to every pool query. Engine-evaluated bases run
    /// on an in-process session with the result and plan caches off (and
    /// a one-entry parse cache); sailors patterns are computed straight
    /// from the generated tuples.
    pub fn expected(&self) -> Result<Vec<Expected>, String> {
        let shared = EngineShared::with_config(
            self.db.clone(),
            SharedConfig {
                parse_cache_capacity: 1,
                eval_cache_capacity: 1,
                eval_cache: false,
                plan_cache_capacity: 1,
                plan_cache: false,
                metrics: false,
                shards: 1,
                ..SharedConfig::default()
            },
        );
        let mut oracle = Session::attach(Arc::new(shared));
        let mut base_answers = Vec::with_capacity(self.bases.len());
        for base in &self.bases {
            let Request::Query {
                language,
                text,
                translations,
                diagram,
            } = base
            else {
                unreachable!("bases are queries")
            };
            let mut req = QueryRequest::new(language.expect("bases name a language"), text.clone());
            if *translations {
                req = req.with_translations();
            }
            req = req.with_diagram(*diagram);
            let resp = oracle
                .run(&req)
                .map_err(|e| format!("oracle cannot evaluate {text:?}: {e}"))?;
            base_answers.push(Expected {
                rows: resp.relation.len() as u64,
                print: set_print(resp.relation.iter().map(|t| &t.0)),
                translations: resp.translations.as_ref().map(translation_pairs),
                diagram: resp.diagram.clone(),
            });
        }
        let index = self.sailors.as_ref().map(SailorsIndex::new);
        let mut memo: HashMap<SailorsQuery, Expected> = HashMap::new();
        Ok(self
            .answers
            .iter()
            .map(|a| match a {
                Answer::Engine(i) => base_answers[*i as usize].clone(),
                Answer::Sailors(q) => memo
                    .entry(*q)
                    .or_insert_with(|| {
                        let rows = index.as_ref().expect("sailors data").answer(*q);
                        Expected {
                            rows: rows.len() as u64,
                            print: set_print(&rows),
                            translations: None,
                            diagram: None,
                        }
                    })
                    .clone(),
            })
            .collect())
    }

    /// Checks one reply against the expected answer.
    pub fn check(&self, expected: &[Expected], op: Op, reply: &Response) -> Result<(), String> {
        match (op, reply) {
            (Op::Query(i), Response::Query(q)) => {
                let want = &expected[i as usize];
                let print = set_print(&q.rows);
                if q.rows.len() as u64 != want.rows || print != want.print {
                    return Err(format!(
                        "query {i}: {} rows (print {print:016x}), expected {} ({:016x})",
                        q.rows.len(),
                        want.rows,
                        want.print
                    ));
                }
                if q.translations != want.translations || q.diagram != want.diagram {
                    return Err(format!("query {i}: translations or diagram differ"));
                }
                Ok(())
            }
            (Op::Insert(_), Response::Mutation(m)) if m.insert && m.applied == 1 => Ok(()),
            (Op::Delete(_), Response::Mutation(m)) if !m.insert && m.applied == 1 => Ok(()),
            (_, Response::Error(e)) => Err(format!("{op:?}: server error: {e}")),
            (_, other) => {
                let mut shown = format!("{other:?}");
                shown.truncate(200);
                Err(format!("{op:?}: unexpected reply {shown}"))
            }
        }
    }
}

/// The wire form of [`Translations`]: `(language, text)` pairs, hub first.
pub fn translation_pairs(t: &Translations) -> Vec<(String, String)> {
    let mut pairs = vec![("trc".to_string(), t.trc.clone())];
    for (name, text) in [("sql", &t.sql), ("datalog", &t.datalog), ("ra", &t.ra)] {
        if let Some(text) = text {
            pairs.push((name.to_string(), text.clone()));
        }
    }
    pairs
}

/// At least [`STREAM_LEN`] draws that visit every class of `round`
/// equally often: the round in a fresh seeded order, again and again.
/// Classes (a pattern in a language, an operation kind) differ in cost,
/// so a balanced stream does the same work per second under every seed.
fn balanced<T: Copy>(rng: &mut StdRng, round: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(STREAM_LEN + round.len());
    let mut order = round.to_vec();
    while out.len() < STREAM_LEN {
        order.shuffle(rng);
        out.extend_from_slice(&order);
    }
    out
}

fn query(language: Language, text: String) -> Request {
    Request::Query {
        language: Some(language),
        text,
        translations: false,
        diagram: DiagramFormat::None,
    }
}

const LANGUAGES: [Language; 4] = [
    Language::Trc,
    Language::Sql,
    Language::Ra,
    Language::Datalog,
];

fn hot_cached(rng: &mut StdRng) -> Inputs {
    let bases: Vec<Request> = rd_server::client::default_mix()
        .into_iter()
        .map(|(language, text)| query(language.expect("the mix names languages"), text))
        .collect();
    let n = bases.len() as u32;
    let mix: Vec<Op> = (0..n).map(Op::Query).collect();
    let streams = (0..CONNECTIONS).map(|_| balanced(rng, &mix)).collect();
    Inputs {
        workload: Workload::HotCached,
        db: rd_engine::demo_database(),
        queries: bases.clone(),
        answers: (0..n).map(Answer::Engine).collect(),
        bases,
        sailors: None,
        streams,
        rows: vec![Vec::new(); CONNECTIONS],
    }
}

/// Appends `q` in all four languages to the pool.
fn push_sailors(queries: &mut Vec<Request>, answers: &mut Vec<Answer>, q: SailorsQuery) {
    for language in LANGUAGES {
        queries.push(query(language, sailors_text(q, language)));
        answers.push(Answer::Sailors(q));
    }
}

fn cold_analytic(rng: &mut StdRng) -> Inputs {
    let data = SailorsData::generate(rng);
    let (mut queries, mut answers) = (Vec::new(), Vec::new());
    // Four patterns, each an equal share of the traffic; within a
    // pattern the constants are uniform over their whole domain.
    let mut groups = Vec::new();
    let mut group = |queries: &mut Vec<Request>, qs: Vec<SailorsQuery>| {
        let start = queries.len();
        for q in qs {
            push_sailors(queries, &mut answers, q);
        }
        groups.push(start..queries.len());
    };
    let bids = FIRST_BID..FIRST_BID + BOATS;
    group(
        &mut queries,
        bids.clone().map(|bid| SailorsQuery::Join { bid }).collect(),
    );
    group(
        &mut queries,
        (1..=RATINGS)
            .flat_map(|rating| {
                bids.clone()
                    .map(move |bid| SailorsQuery::Antijoin { rating, bid })
            })
            .collect(),
    );
    group(
        &mut queries,
        (0..COLORS)
            .map(|color| SailorsQuery::Division { color })
            .collect(),
    );
    group(
        &mut queries,
        (0..COLORS)
            .map(|color| SailorsQuery::Join3 { color })
            .collect(),
    );
    // Every (pattern, language) class equally often; the constants
    // uniform over their domain.
    let classes: Vec<(usize, usize)> = (0..groups.len())
        .flat_map(|g| (0..LANGUAGES.len()).map(move |l| (g, l)))
        .collect();
    let streams = (0..CONNECTIONS)
        .map(|_| {
            balanced(rng, &classes)
                .into_iter()
                .map(|(g, l)| {
                    let group = &groups[g];
                    let patterns = group.len() / LANGUAGES.len();
                    let at = group.start + LANGUAGES.len() * rng.random_range(0..patterns) + l;
                    Op::Query(at as u32)
                })
                .collect()
        })
        .collect();
    Inputs {
        workload: Workload::ColdAnalytic,
        db: data.database(),
        queries,
        answers,
        bases: Vec::new(),
        sailors: Some(data),
        streams,
        rows: vec![Vec::new(); CONNECTIONS],
    }
}

fn durable_write(rng: &mut StdRng) -> Inputs {
    let data = SailorsData::generate(rng);
    let (mut queries, mut answers) = (Vec::new(), Vec::new());
    for _ in 0..4 {
        let bid = FIRST_BID + rng.random_range(0..BOATS);
        push_sailors(&mut queries, &mut answers, SailorsQuery::Join { bid });
    }
    for _ in 0..2 {
        let color = rng.random_range(0..COLORS);
        push_sailors(&mut queries, &mut answers, SailorsQuery::Join3 { color });
    }
    let reads_reserves = queries.len();
    for _ in 0..4 {
        let color = rng.random_range(0..COLORS);
        push_sailors(
            &mut queries,
            &mut answers,
            SailorsQuery::BoatsOfColor { color },
        );
    }
    let total = queries.len();
    let mut streams = Vec::new();
    let mut rows = Vec::new();
    for c in 0..CONNECTIONS {
        let mut stream = Vec::with_capacity(STREAM_LEN + 1);
        let mut mine: Vec<Vec<Value>> = Vec::new();
        // 20% writes, alternating insert of a fresh row and delete of
        // that row, so the data size stays constant; 25% reads of
        // `Reserves` (invalidated by every write), 55% of `Boats` only.
        // The shares keep the query median clear of the boundary between
        // the re-evaluated and the cached reads.
        let round: Vec<u8> = [vec![0u8; 4], vec![1; 5], vec![2; 11]].concat();
        let mut pending: Option<u32> = None;
        for kind in balanced(rng, &round) {
            stream.push(if kind == 0 {
                match pending.take() {
                    Some(j) => Op::Delete(j),
                    None => {
                        let j = mine.len() as u32;
                        mine.push(vec![
                            Value::Int(WRITE_SID_BASE * (c as i64 + 1) + i64::from(j)),
                            Value::Int(FIRST_BID + rng.random_range(0..BOATS)),
                            Value::Int(rng.random_range(1..=365)),
                        ]);
                        pending = Some(j);
                        Op::Insert(j)
                    }
                }
            } else if kind == 1 {
                Op::Query(rng.random_range(0..reads_reserves) as u32)
            } else {
                Op::Query(rng.random_range(reads_reserves..total) as u32)
            });
        }
        // Close the last pair, so a wrapped stream re-inserts only
        // deleted rows.
        if let Some(j) = pending {
            stream.push(Op::Delete(j));
        }
        streams.push(stream);
        rows.push(mine);
    }
    Inputs {
        workload: Workload::DurableWrite,
        db: data.database(),
        queries,
        answers,
        bases: Vec::new(),
        sailors: Some(data),
        streams,
        rows,
    }
}

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

/// Value pools for the textbook instances: the corpus's own constants
/// plus a few others, small enough that joins and selections match.
const STRING_POOL: [&str; 18] = [
    "red",
    "blue",
    "green",
    "London",
    "Paris",
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
const INT_POOL: [i64; 20] = [
    1, 2, 3, 4, 5, 7, 8, 10, 101, 102, 103, 300, 400, 500, 600, 1_200, 25_000, 30_000, 1_000_000,
    2_000_000,
];

/// Whitespace a perturbed query may use between two tokens.
const GAPS: [&str; 6] = [" ", "  ", "\n", "\n  ", "\t", " \n    "];

/// Rewrites every whitespace run outside string literals with a random
/// gap, plus random leading and trailing whitespace: the text changes
/// (so the text-keyed parse cache misses) while the query does not.
fn perturb(text: &str, rng: &mut StdRng) -> String {
    let mut out = String::with_capacity(text.len() + 32);
    out.push_str(["", " ", "\n"][rng.random_range(0..3)]);
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
            out.push_str(GAPS[rng.random_range(0..GAPS.len())]);
        } else {
            out.push(c);
        }
    }
    out.push_str(["", " ", "\n"][rng.random_range(0..3)]);
    out
}

fn editor_feedback(rng: &mut StdRng) -> Result<Inputs, String> {
    // One database with all five textbook catalogs (names are disjoint).
    let mut db = Database::new();
    for book in Book::ALL {
        for schema in book.catalog().iter() {
            let n = 12 + rng.random_range(0..8);
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|_| {
                    schema
                        .attrs()
                        .iter()
                        .map(|a| {
                            if STRING_ATTRS.contains(&a.as_str()) {
                                Value::Str(
                                    STRING_POOL[rng.random_range(0..STRING_POOL.len())].into(),
                                )
                            } else {
                                Value::Int(INT_POOL[rng.random_range(0..INT_POOL.len())])
                            }
                        })
                        .collect()
                })
                .collect();
            let rel = Relation::from_rows(schema.clone(), rows)
                .map_err(|e| format!("textbook instance {}: {e}", schema.name()))?;
            db.add_relation(rel);
        }
    }
    // Every corpus query in every language its translation reaches.
    let catalog = db.catalog();
    let mut translator = Session::new(db.clone());
    let mut bases = Vec::new();
    for entry in rd_textbook::corpus() {
        for language in LANGUAGES {
            let text = match language {
                Language::Trc => entry.trc.to_string(),
                _ => match translator.translate(Language::Trc, entry.trc, language) {
                    Ok(text) => text,
                    Err(_) => continue, // outside the Theorem 6 fragment
                },
            };
            if Artifact::prepare(language, &text, &catalog).is_err() {
                continue;
            }
            bases.push(Request::Query {
                language: Some(language),
                text,
                translations: true,
                diagram: DiagramFormat::Svg,
            });
        }
    }
    // Variant `v` perturbs base `v % bases.len()`.
    let n = bases.len();
    let mut queries = Vec::with_capacity(n * EDITOR_VARIANTS);
    let mut answers = Vec::with_capacity(n * EDITOR_VARIANTS);
    for v in 0..n * EDITOR_VARIANTS {
        let b = v % n;
        let Request::Query {
            language,
            text,
            translations,
            diagram,
        } = &bases[b]
        else {
            unreachable!("bases are queries")
        };
        queries.push(Request::Query {
            language: *language,
            text: perturb(text, rng),
            translations: *translations,
            diagram: *diagram,
        });
        answers.push(Answer::Engine(b as u32));
    }
    let every: Vec<usize> = (0..n).collect();
    let streams = (0..CONNECTIONS)
        .map(|_| {
            balanced(rng, &every)
                .into_iter()
                .map(|b| Op::Query((b + n * rng.random_range(0..EDITOR_VARIANTS)) as u32))
                .collect()
        })
        .collect();
    Ok(Inputs {
        workload: Workload::EditorFeedback,
        db,
        queries,
        answers,
        bases,
        sailors: None,
        streams,
        rows: vec![Vec::new(); CONNECTIONS],
    })
}

/// The generated sailors instance, kept as plain tuples for the
/// reference answers.
struct SailorsData {
    /// `(sid, sname, rating, age)`.
    sailors: Vec<(i64, String, i64, i64)>,
    /// `(bid, bname, color)`; boat `i` has color `i % COLORS`, so every
    /// color has the same number of boats.
    boats: Vec<(i64, String, i64)>,
    /// `(sid, bid, day)`, distinct, with sids skewed towards low ids.
    reserves: Vec<(i64, i64, i64)>,
}

fn color_name(color: i64) -> String {
    format!("color{color:03}")
}

impl SailorsData {
    fn generate(rng: &mut StdRng) -> SailorsData {
        let sailors = (1..=SAILORS)
            .map(|sid| {
                (
                    sid,
                    format!("sailor{}", rng.random_range(0..SAILOR_NAMES)),
                    rng.random_range(1..=RATINGS),
                    rng.random_range(18..=70),
                )
            })
            .collect();
        let boats = (0..BOATS)
            .map(|i| {
                (
                    FIRST_BID + i,
                    format!("boat{}", rng.random_range(0..BOATS / 2)),
                    i % COLORS,
                )
            })
            .collect();
        let mut seen = HashSet::new();
        let mut reserves = Vec::with_capacity(RESERVES);
        while reserves.len() < RESERVES {
            // u³ puts ~20% of all reservations on the first 1% of sailors.
            let u: f64 = rng.random_range(0.0..1.0);
            let sid = 1 + (SAILORS as f64 * u * u * u) as i64;
            let bid = FIRST_BID + rng.random_range(0..BOATS);
            let day = rng.random_range(1..=365);
            if seen.insert((sid, bid, day)) {
                reserves.push((sid, bid, day));
            }
        }
        SailorsData {
            sailors,
            boats,
            reserves,
        }
    }

    fn database(&self) -> Database {
        let mut db = Database::new();
        let tables = [
            (
                TableSchema::new("Sailors", ["sid", "sname", "rating", "age"]),
                self.sailors
                    .iter()
                    .map(|(sid, name, rating, age)| {
                        vec![
                            Value::Int(*sid),
                            Value::Str(name.clone()),
                            Value::Int(*rating),
                            Value::Int(*age),
                        ]
                    })
                    .collect::<Vec<_>>(),
            ),
            (
                TableSchema::new("Boats", ["bid", "bname", "color"]),
                self.boats
                    .iter()
                    .map(|(bid, name, color)| {
                        vec![
                            Value::Int(*bid),
                            Value::Str(name.clone()),
                            Value::Str(color_name(*color)),
                        ]
                    })
                    .collect(),
            ),
            (
                TableSchema::new("Reserves", ["sid", "bid", "day"]),
                self.reserves
                    .iter()
                    .map(|(sid, bid, day)| {
                        vec![Value::Int(*sid), Value::Int(*bid), Value::Int(*day)]
                    })
                    .collect(),
            ),
        ];
        for (schema, rows) in tables {
            db.add_relation(
                Relation::from_rows(schema, rows).expect("generated rows fit their schema"),
            );
        }
        db
    }
}

/// The query text of one sailors pattern in one language.
fn sailors_text(q: SailorsQuery, language: Language) -> String {
    use Language::*;
    match (q, language) {
        (SailorsQuery::Join { bid }, Trc) => format!(
            "{{ q(sname) | exists s in Sailors, r in Reserves [ q.sname = s.sname and \
             s.sid = r.sid and r.bid = {bid} ] }}"
        ),
        (SailorsQuery::Join { bid }, Sql) => format!(
            "SELECT DISTINCT S.sname FROM Sailors S, Reserves R \
             WHERE S.sid = R.sid AND R.bid = {bid}"
        ),
        (SailorsQuery::Join { bid }, Ra) => {
            format!("pi[sname](Sailors join sigma[bid = {bid}](Reserves))")
        }
        (SailorsQuery::Join { bid }, Datalog) => {
            format!("Q(n) :- Sailors(s, n, _, _), Reserves(s, {bid}, _).")
        }
        (SailorsQuery::Antijoin { rating, bid }, Trc) => format!(
            "{{ q(sid) | exists s in Sailors [ q.sid = s.sid and s.rating = {rating} and \
             not (exists r in Reserves [ r.sid = s.sid and r.bid = {bid} ]) ] }}"
        ),
        (SailorsQuery::Antijoin { rating, bid }, Sql) => format!(
            "SELECT DISTINCT S.sid FROM Sailors S WHERE S.rating = {rating} AND NOT EXISTS \
             (SELECT * FROM Reserves R WHERE R.sid = S.sid AND R.bid = {bid})"
        ),
        (SailorsQuery::Antijoin { rating, bid }, Ra) => format!(
            "pi[sid](sigma[rating = {rating}](Sailors) antijoin sigma[bid = {bid}](Reserves))"
        ),
        (SailorsQuery::Antijoin { rating, bid }, Datalog) => {
            format!("R(s) :- Reserves(s, {bid}, _). Q(s) :- Sailors(s, _, {rating}, _), not R(s).")
        }
        (SailorsQuery::Division { color }, lang) => {
            let c = color_name(color);
            match lang {
                Trc => format!(
                    "{{ q(sname) | exists s in Sailors [ q.sname = s.sname and not (exists b in \
                     Boats [ b.color = '{c}' and not (exists r in Reserves [ r.sid = s.sid and \
                     r.bid = b.bid ]) ]) ] }}"
                ),
                Sql => format!(
                    "SELECT DISTINCT S.sname FROM Sailors S WHERE NOT EXISTS (SELECT * FROM \
                     Boats B WHERE B.color = '{c}' AND NOT EXISTS (SELECT * FROM Reserves R \
                     WHERE R.sid = S.sid AND R.bid = B.bid))"
                ),
                Ra => format!(
                    "pi[sname](Sailors join (pi[sid](Sailors) - pi[sid]((pi[sid](Sailors) x \
                     pi[bid](sigma[color = '{c}'](Boats))) - pi[sid, bid](Reserves))))"
                ),
                Datalog => format!(
                    "B(b) :- Boats(b, _, '{c}'). Res(s, b) :- Reserves(s, b, _). \
                     M(s) :- Sailors(s, _, _, _), B(b), not Res(s, b). \
                     Q(n) :- Sailors(s, n, _, _), not M(s)."
                ),
            }
        }
        (SailorsQuery::Join3 { color }, lang) => {
            let c = color_name(color);
            match lang {
                Trc => format!(
                    "{{ q(sname) | exists s in Sailors, r in Reserves, b in Boats [ q.sname = \
                     s.sname and s.sid = r.sid and r.bid = b.bid and b.color = '{c}' ] }}"
                ),
                Sql => format!(
                    "SELECT DISTINCT S.sname FROM Sailors S, Reserves R, Boats B WHERE \
                     S.sid = R.sid AND R.bid = B.bid AND B.color = '{c}'"
                ),
                Ra => {
                    format!("pi[sname](Sailors join (Reserves join sigma[color = '{c}'](Boats)))")
                }
                Datalog => {
                    format!("Q(n) :- Sailors(s, n, _, _), Reserves(s, b, _), Boats(b, _, '{c}').")
                }
            }
        }
        (SailorsQuery::BoatsOfColor { color }, lang) => {
            let c = color_name(color);
            match lang {
                Trc => format!(
                    "{{ q(bid) | exists b in Boats [ q.bid = b.bid and b.color = '{c}' ] }}"
                ),
                Sql => format!("SELECT DISTINCT B.bid FROM Boats B WHERE B.color = '{c}'"),
                Ra => format!("pi[bid](sigma[color = '{c}'](Boats))"),
                Datalog => format!("Q(b) :- Boats(b, _, '{c}')."),
            }
        }
    }
}

/// Lookup structures for the reference answers.
struct SailorsIndex<'a> {
    name: HashMap<i64, &'a str>,
    rating: HashMap<i64, i64>,
    reservers: HashMap<i64, HashSet<i64>>,
    reserved: HashMap<i64, HashSet<i64>>,
    boats_of_color: HashMap<i64, Vec<i64>>,
}

impl<'a> SailorsIndex<'a> {
    fn new(d: &'a SailorsData) -> SailorsIndex<'a> {
        let mut index = SailorsIndex {
            name: d
                .sailors
                .iter()
                .map(|(sid, n, _, _)| (*sid, n.as_str()))
                .collect(),
            rating: d.sailors.iter().map(|(sid, _, r, _)| (*sid, *r)).collect(),
            reservers: HashMap::new(),
            reserved: HashMap::new(),
            boats_of_color: HashMap::new(),
        };
        for (sid, bid, _) in &d.reserves {
            index.reservers.entry(*bid).or_default().insert(*sid);
            index.reserved.entry(*sid).or_default().insert(*bid);
        }
        for (bid, _, color) in &d.boats {
            index.boats_of_color.entry(*color).or_default().push(*bid);
        }
        index
    }

    /// The result rows of `q`, computed without any engine code.
    fn answer(&self, q: SailorsQuery) -> Vec<Vec<Value>> {
        let empty = HashSet::new();
        let names = |sids: &mut dyn Iterator<Item = i64>| -> Vec<Vec<Value>> {
            let set: HashSet<&str> = sids.filter_map(|s| self.name.get(&s).copied()).collect();
            set.into_iter()
                .map(|n| vec![Value::Str(n.to_string())])
                .collect()
        };
        match q {
            SailorsQuery::Join { bid } => {
                names(&mut self.reservers.get(&bid).unwrap_or(&empty).iter().copied())
            }
            SailorsQuery::Antijoin { rating, bid } => {
                let reservers = self.reservers.get(&bid).unwrap_or(&empty);
                self.rating
                    .iter()
                    .filter(|(sid, r)| **r == rating && !reservers.contains(sid))
                    .map(|(sid, _)| vec![Value::Int(*sid)])
                    .collect()
            }
            SailorsQuery::Division { color } => {
                let boats = self
                    .boats_of_color
                    .get(&color)
                    .map_or(&[][..], Vec::as_slice);
                names(&mut self.name.keys().copied().filter(|sid| {
                    let mine = self.reserved.get(sid).unwrap_or(&empty);
                    boats.iter().all(|b| mine.contains(b))
                }))
            }
            SailorsQuery::Join3 { color } => {
                let boats = self
                    .boats_of_color
                    .get(&color)
                    .map_or(&[][..], Vec::as_slice);
                names(
                    &mut boats
                        .iter()
                        .flat_map(|b| self.reservers.get(b).unwrap_or(&empty).iter().copied()),
                )
            }
            SailorsQuery::BoatsOfColor { color } => self
                .boats_of_color
                .get(&color)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|b| vec![Value::Int(*b)])
                .collect(),
        }
    }
}
