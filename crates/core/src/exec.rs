//! The unified logical/physical plan IR and its single executor.
//!
//! The paper's Theorem 6 shows TRC\*, RA\*, Datalog\*, and SQL\* express
//! the same query patterns; this module is that claim turned into
//! runtime architecture. Every language front-end *lowers* its checked
//! AST into one [`Plan`] — scans with interned bound-key probes,
//! selectivity-ordered hash joins, negation/quantifier attachment,
//! projection with set-semantics dedup, and union — and one executor
//! runs it: the chunked, columnar executor in `batch`, the only one.
//! The per-language `eval` modules shrink to lowerings; the engine
//! caches compiled [`Plan`]s (they are `Send + Sync` and carry no
//! borrows), so a hot serving path compiles a query shape once per
//! database epoch and executes it many times.
//!
//! The IR has one shape, the **pipeline** ([`Block`]): an ordered list
//! of [`Scan`] steps, each binding a tuple slot and probing a join table
//! when key columns are bound, with filters (predicates, negated
//! subplans, quantified blocks) attached to the earliest step after
//! which their inputs are bound. Only the TRC lowering emits it: TRC and
//! SQL queries lower to one pipeline per union branch, and RA and
//! Datalog do too, after they are translated into their TRC hub forms
//! (`rd_translate::{lower_ra, lower_datalog}`). The lowering records the
//! planner's row estimate on every scan and on each query root, so
//! [`explain`] and [`explain_analyze`] render those compile-time figures
//! and never estimate anything themselves.
//!
//! [`explain`] renders any plan as a tree of scan order, join strategy,
//! and bound keys — the diagnosability hook the service's `explain` op
//! serves.

pub use crate::batch::CHUNK_ROWS;
use crate::database::{Database, Relation, Tuple};
use crate::error::{CoreError, CoreResult};
use crate::schema::TableSchema;
use crate::value::Value;
use crate::CmpOp;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------
// IR: terms, formulas, scans, blocks
// ---------------------------------------------------------------------

/// A compiled term: where a value comes from at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// An interned constant.
    Const(Value),
    /// A column of a bound tuple slot.
    Col {
        /// The tuple slot.
        slot: usize,
        /// The column within the bound tuple.
        col: usize,
    },
}

/// A compiled comparison between two terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    /// Left operand.
    pub left: Term,
    /// Comparison operator (order comparisons resolve interned strings
    /// lexicographically).
    pub op: CmpOp,
    /// Right operand.
    pub right: Term,
}

/// A compiled formula: the filter language attached to scans.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// An existentially quantified block (nested pipeline; succeeds on
    /// the first satisfying assignment).
    Exists(Block),
    /// A comparison.
    Pred(Pred),
}

/// Index id marking a full (unkeyed) scan.
pub const FULL_SCAN: usize = usize::MAX;

/// One scheduled scan of a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Scan {
    /// Stored relation scanned.
    pub rel: String,
    /// Tuple slot bound to each scanned tuple.
    pub tuple_slot: usize,
    /// Columns constrained by equality to bound terms; empty for a full
    /// scan.
    pub key_cols: Vec<usize>,
    /// The bound terms the key columns must equal (parallel to
    /// `key_cols`).
    pub key_terms: Vec<Term>,
    /// Index-cache slot ([`FULL_SCAN`] for unkeyed scans).
    pub index_id: usize,
    /// Conjuncts whose inputs are all bound once this scan binds.
    pub filters: Vec<Formula>,
    /// The planner's estimate of the rows the block holds once this
    /// scan and its predicates have run (per binding of the enclosing
    /// scope for a nested block), recorded at compile time; `None` for
    /// hand-built plans.
    pub est_rows: Option<u64>,
}

impl Scan {
    /// `true` if this scan probes a hash index rather than iterating.
    pub fn is_keyed(&self) -> bool {
        !self.key_cols.is_empty()
    }
}

/// A planned pipeline: conjuncts evaluable before any scan, then the
/// ordered scans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Filters with no scan dependencies.
    pub pre: Vec<Formula>,
    /// The scans, in chosen execution order.
    pub scans: Vec<Scan>,
}

/// The runtime environment a plan needs: slot counts and join-table
/// slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnvShape {
    /// Tuple slots.
    pub tuple_slots: usize,
    /// Join-table slots handed out during lowering (one per keyed
    /// scan).
    pub indexes: usize,
}

// ---------------------------------------------------------------------
// IR: top-level plans
// ---------------------------------------------------------------------

/// A compiled non-Boolean query: enumerate the root block, project the
/// output head from its defining terms, validate deferred conjuncts
/// with the head bound, dedup into a set-semantics relation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Output schema.
    pub out: TableSchema,
    /// The tuple slot the output head occupies during deferred
    /// validation.
    pub head_slot: usize,
    /// The root pipeline.
    pub root: Block,
    /// One defining term per output attribute.
    pub defs: Vec<Term>,
    /// Conjuncts mentioning the head — validated per candidate tuple.
    pub deferred: Vec<Formula>,
    /// Environment requirements.
    pub shape: EnvShape,
    /// The planner's estimate of the root block's rows (a
    /// pre-projection upper bound on the output; 1 for a block without
    /// scans, which emits one unit row), recorded at compile time. The
    /// engine compares it with the actual row count to chart its
    /// estimation quality.
    pub est_rows: Option<u64>,
}

/// A compiled Boolean sentence.
#[derive(Debug, Clone, PartialEq)]
pub struct SentencePlan {
    /// The sentence body.
    pub formula: Formula,
    /// Environment requirements.
    pub shape: EnvShape,
}

/// A compiled, executable query plan — the unit the engine's plan cache
/// stores. Contains only owned data (strings, interned values, column
/// indices), so it is `Send + Sync` and valid for the lifetime of the
/// database epoch it was compiled against.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// A union of non-Boolean query branches (one branch for a plain
    /// query).
    Union(Vec<QueryPlan>),
    /// A Boolean sentence (evaluates to the 0-ary relation encoding).
    Sentence(SentencePlan),
}

fn _assert_plan_is_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Plan>();
}

// ---------------------------------------------------------------------
// Scan-set extraction
// ---------------------------------------------------------------------

/// The *scan set* of a compiled plan: every stored relation the executor
/// can read while running it. This is the dependency footprint that
/// delta-aware caches stamp onto their entries — a mutation to a
/// relation outside a plan's scan set provably cannot change its result.
///
/// All stored reads go through [`Scan::rel`].
pub fn scan_set(plan: &Plan) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    match plan {
        Plan::Union(branches) => {
            for q in branches {
                scans_in_block(&q.root, &mut set);
                for f in &q.deferred {
                    scans_in_formula(f, &mut set);
                }
            }
        }
        Plan::Sentence(s) => scans_in_formula(&s.formula, &mut set),
    }
    set
}

fn scans_in_block(block: &Block, set: &mut BTreeSet<String>) {
    for f in &block.pre {
        scans_in_formula(f, set);
    }
    for scan in &block.scans {
        set.insert(scan.rel.clone());
        for f in &scan.filters {
            scans_in_formula(f, set);
        }
    }
}

fn scans_in_formula(f: &Formula, set: &mut BTreeSet<String>) {
    match f {
        Formula::And(fs) | Formula::Or(fs) => {
            for sub in fs {
                scans_in_formula(sub, set);
            }
        }
        Formula::Not(sub) => scans_in_formula(sub, set),
        Formula::Exists(block) => scans_in_block(block, set),
        Formula::Pred(_) => {}
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Execution options for [`execute_feedback`]. There is one executor and
/// nothing to choose, so the type carries no settings; it stays so the
/// function keeps its signature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions;

/// What an analyzing execution observed at one plan node: the rows it
/// produced, how often a nested block was probed, and — for keyed
/// probes and join builds — which build strategy the executor actually
/// chose.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeTally {
    /// Rows the node produced.
    pub(crate) rows: u64,
    /// Times a nested `exists` block ran its scans: once per distinct
    /// binding of the enclosing scope that reached it.
    pub(crate) probes: u64,
    /// Join/probe build strategy (`"dense-key"` or `"hash"`).
    pub(crate) build: Option<&'static str>,
}

/// Per-node observations collected by an analyzing execution.
///
/// Keys are node *addresses* (`&Scan`, `&QueryPlan` cast to `usize`): every keyed node is alive
/// inside the same [`Plan`] for the whole execution *and* the subsequent
/// annotation pass, so addresses are unique — which lets the executor
/// count rows without adding id fields to the IR (and therefore without
/// touching any language lowering).
pub(crate) type TallyMap = HashMap<usize, NodeTally>;

/// Records `rows` for `node` if an analyze tally is active.
pub(crate) fn record<T>(tally: &mut Option<TallyMap>, node: &T, rows: usize) {
    if let Some(t) = tally.as_mut() {
        t.entry(node as *const T as usize).or_default().rows = rows as u64;
    }
}

/// Adds `rows` to `node`'s count if an analyze tally is active.
pub(crate) fn bump_n<T>(tally: &mut Option<TallyMap>, node: &T, rows: usize) {
    if let Some(t) = tally.as_mut() {
        t.entry(node as *const T as usize).or_default().rows += rows as u64;
    }
}

/// Adds `n` probes of nested `block` if an analyze tally is active.
pub(crate) fn bump_probes(tally: &mut Option<TallyMap>, block: &Block, n: usize) {
    if let Some(t) = tally.as_mut() {
        t.entry(block as *const Block as usize).or_default().probes += n as u64;
    }
}

/// Records the join/probe build strategy chosen for `node` if an
/// analyze tally is active.
pub(crate) fn record_build<T>(tally: &mut Option<TallyMap>, node: &T, kind: &'static str) {
    if let Some(t) = tally.as_mut() {
        t.entry(node as *const T as usize).or_default().build = Some(kind);
    }
}

/// Executes a compiled query branch, returning its output relation.
pub fn run_query(q: &QueryPlan, db: &Database) -> CoreResult<Relation> {
    crate::batch::run_query(q, db, &mut None)
}

/// Executes a compiled Boolean sentence.
pub fn run_sentence(s: &SentencePlan, db: &Database) -> CoreResult<bool> {
    crate::batch::run_sentence(s, db, &mut None)
}

/// The 0-ary encoding of a Boolean result: `{()}` for true, `{}` for
/// false (the classic degenerate-relation convention).
pub fn boolean_relation(value: bool) -> Relation {
    let mut rel = Relation::empty(TableSchema::new("q", Vec::<String>::new()));
    if value {
        rel.insert(Tuple(Vec::new()))
            .expect("0-ary tuple fits 0-ary schema");
    }
    rel
}

/// Executes any compiled plan over `db`, normalizing the output to a
/// [`Relation`] (Boolean sentences become the 0-ary encoding).
pub fn execute(plan: &Plan, db: &Database) -> CoreResult<Relation> {
    execute_inner(plan, db, &mut None)
}

/// What one execution observed: the actual row count the engine sets
/// against the plan's estimate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecFeedback {
    /// Rows in the final result.
    pub out_rows: u64,
}

/// The planner's recorded estimate for the plan's final output: the sum
/// over a union's branches, `None` for Boolean sentences.
pub fn plan_est(plan: &Plan) -> Option<u64> {
    match plan {
        Plan::Union(branches) => branches
            .iter()
            .map(|q| q.est_rows)
            .try_fold(0u64, |acc, e| e.map(|e| acc.saturating_add(e))),
        Plan::Sentence(_) => None,
    }
}

/// [`execute`], additionally reporting the actual row count. Costs
/// nothing beyond normal execution: the count reads the result
/// relation's length.
pub fn execute_feedback(
    plan: &Plan,
    db: &Database,
    _opts: ExecOptions,
) -> CoreResult<(Relation, ExecFeedback)> {
    let relation = execute_inner(plan, db, &mut None)?;
    let feedback = ExecFeedback {
        out_rows: relation.len() as u64,
    };
    Ok((relation, feedback))
}

fn execute_inner(plan: &Plan, db: &Database, tally: &mut Option<TallyMap>) -> CoreResult<Relation> {
    match plan {
        Plan::Union(branches) => {
            let mut iter = branches.iter();
            let first = iter
                .next()
                .ok_or_else(|| CoreError::Invalid("empty union".into()))?;
            let mut result = crate::batch::run_query(first, db, tally)?;
            for branch in iter {
                let r = crate::batch::run_query(branch, db, tally)?;
                for t in r.iter() {
                    result.insert(t.clone())?;
                }
            }
            Ok(result)
        }
        Plan::Sentence(s) => Ok(boolean_relation(crate::batch::run_sentence(s, db, tally)?)),
    }
}

/// Executes `plan` while counting per-operator actual rows, then renders
/// the explain tree annotated with planner estimates and the observed
/// counts — the engine of the `explain analyze` wire form. Returns the
/// result relation too, so callers can cross-check the root count.
pub fn explain_analyze(plan: &Plan, db: &Database) -> CoreResult<(Relation, ExplainNode)> {
    let mut tally = Some(TallyMap::new());
    let relation = execute_inner(plan, db, &mut tally)?;
    let tally = tally.unwrap_or_default();
    let mut node = explain_with(plan, Some(&tally));
    node.actual_rows = Some(relation.len() as u64);
    if let Some(est) = node.est_rows {
        node.q_error = Some(q_error(est, relation.len() as u64));
    }
    Ok((relation, node))
}

// ---------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------

/// One node of an explain tree: plan structure rendered for diagnosis
/// (scan order, join strategy, bound keys), optionally annotated with
/// row counts by `explain analyze`.
///
/// Fields are in wire order: the serialized node is the `plan` object of
/// an explain frame, and the optional annotations come last and are
/// omitted when absent, so plain-explain frames keep their bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainNode {
    /// Node kind (`scan`, `exists`, `join`, `union`, …).
    pub kind: String,
    /// Human-readable detail (table, key columns, strategy).
    #[serde(default)]
    pub detail: String,
    /// Child nodes in execution order.
    #[serde(default)]
    pub children: Vec<ExplainNode>,
    /// The planner's compile-time row estimate, as recorded on the plan:
    /// on a scan, the rows its block holds once that scan has run; on a
    /// query root, the root block's rows; on a union, the branch sum.
    /// Plain `explain` and `explain analyze` show the same figure;
    /// absent for nodes the planner does not estimate.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub est_rows: Option<u64>,
    /// Rows this node actually produced (present only under
    /// `explain analyze`). Inside a nested `exists` block, whose scans
    /// the planner estimates per binding of the enclosing scope, this is
    /// per probe too: the rows over every probe of the block divided by
    /// their number, rounded to nearest (a block never probed reads 0).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub actual_rows: Option<u64>,
    /// Estimation quality: `max(est/actual, actual/est)` with +1
    /// smoothing so empty results stay finite. `1.0` is a perfect
    /// estimate; present only when both row fields are.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub q_error: Option<f64>,
    /// Join-build strategy actually used (`"dense-key"` or `"hash"`),
    /// recorded during `explain analyze` on keyed scans. `None` outside analyze and in legacy frames.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub build: Option<String>,
}

impl ExplainNode {
    fn new(kind: &str, detail: impl Into<String>) -> ExplainNode {
        ExplainNode {
            kind: kind.to_string(),
            detail: detail.into(),
            est_rows: None,
            actual_rows: None,
            q_error: None,
            build: None,
            children: Vec::new(),
        }
    }

    fn with(mut self, children: Vec<ExplainNode>) -> ExplainNode {
        self.children = children;
        self
    }

    fn rows(mut self, est: Option<u64>, actual: Option<u64>) -> ExplainNode {
        self.est_rows = est;
        self.actual_rows = actual;
        self.q_error = match (est, actual) {
            (Some(e), Some(a)) => Some(q_error(e, a)),
            _ => None,
        };
        self
    }
}

/// The q-error of a cardinality estimate: `max(est/actual, actual/est)`
/// with +1 smoothing on both sides so zero rows stay finite. `1.0` means
/// a perfect estimate.
pub fn q_error(est: u64, actual: u64) -> f64 {
    let (e, a) = (est as f64 + 1.0, actual as f64 + 1.0);
    (e / a).max(a / e)
}

/// The tally of an analyzing execution, or `None` for plain `explain`
/// (every execution field stays `None`).
type Tally<'a> = Option<&'a TallyMap>;

/// The tally entry of `node`, if the execution reached it.
fn tallied<T>(tally: &TallyMap, node: &T) -> NodeTally {
    tally
        .get(&(node as *const T as usize))
        .copied()
        .unwrap_or_default()
}

/// The tallied actual row count for `node` — `Some(0)` for nodes the
/// execution never reached (short-circuits), `None` outside analyze.
/// `per` divides it by the probes of the nested block holding the
/// node (`None` at the root).
fn actual<T>(tally: Tally<'_>, node: &T, per: Option<&Block>) -> Option<u64> {
    tally.map(|t| {
        let rows = tallied(t, node).rows;
        match per.map(|b| tallied(t, b).probes) {
            None => rows,
            Some(0) => 0,
            Some(probes) => (rows + probes / 2) / probes,
        }
    })
}

fn fmt_term(t: &Term) -> String {
    match t {
        Term::Const(v) => v.to_string(),
        Term::Col { slot, col } => format!("t{slot}.c{col}"),
    }
}

fn explain_formula(f: &Formula, tally: Tally<'_>) -> ExplainNode {
    match f {
        Formula::And(fs) => {
            ExplainNode::new("and", "").with(fs.iter().map(|f| explain_formula(f, tally)).collect())
        }
        Formula::Or(fs) => {
            ExplainNode::new("or", "").with(fs.iter().map(|f| explain_formula(f, tally)).collect())
        }
        Formula::Not(sub) => ExplainNode::new("not", "").with(vec![explain_formula(sub, tally)]),
        Formula::Exists(block) => {
            ExplainNode::new("exists", "").with(explain_block(block, tally, Some(block)))
        }
        Formula::Pred(p) => ExplainNode::new(
            "filter",
            format!("{} {} {}", fmt_term(&p.left), p.op, fmt_term(&p.right)),
        ),
    }
}

fn explain_scan(scan: &Scan, tally: Tally<'_>, per: Option<&Block>) -> ExplainNode {
    let detail = if scan.is_keyed() {
        let keys: Vec<String> = scan
            .key_cols
            .iter()
            .zip(&scan.key_terms)
            .map(|(c, t)| format!("c{c} = {}", fmt_term(t)))
            .collect();
        format!("{} hash probe on {}", scan.rel, keys.join(" and "))
    } else {
        format!("{} full scan", scan.rel)
    };
    let mut node = ExplainNode::new("scan", detail)
        .with(
            scan.filters
                .iter()
                .map(|f| explain_formula(f, tally))
                .collect(),
        )
        .rows(scan.est_rows, actual(tally, scan, per));
    node.build = tally
        .and_then(|t| tallied(t, scan).build)
        .map(str::to_string);
    node
}

/// The nodes of `block`; `per` is the block itself when it is nested,
/// so its scans' actuals are per probe (see [`actual`]).
fn explain_block(block: &Block, tally: Tally<'_>, per: Option<&Block>) -> Vec<ExplainNode> {
    let mut nodes: Vec<ExplainNode> = block
        .pre
        .iter()
        .map(|f| explain_formula(f, tally))
        .collect();
    nodes.extend(block.scans.iter().map(|s| explain_scan(s, tally, per)));
    nodes
}

fn explain_query(q: &QueryPlan, tally: Tally<'_>) -> ExplainNode {
    let mut children = explain_block(&q.root, tally, None);
    if !q.deferred.is_empty() {
        children.push(
            ExplainNode::new("deferred", "validated with the output head bound").with(
                q.deferred
                    .iter()
                    .map(|f| explain_formula(f, tally))
                    .collect(),
            ),
        );
    }
    ExplainNode::new(
        "query",
        format!("{}({})", q.out.name(), q.out.attrs().join(", ")),
    )
    .with(children)
    .rows(q.est_rows, actual(tally, q, None))
}

/// Renders a compiled plan as an explain tree (no row counts — see
/// [`explain_analyze`]).
pub fn explain(plan: &Plan) -> ExplainNode {
    explain_with(plan, None)
}

fn explain_with(plan: &Plan, tally: Tally<'_>) -> ExplainNode {
    match plan {
        Plan::Union(branches) => {
            if let [q] = branches.as_slice() {
                explain_query(q, tally)
            } else {
                ExplainNode::new("union", format!("{} branches", branches.len()))
                    .with(branches.iter().map(|q| explain_query(q, tally)).collect())
                    .rows(plan_est(plan), None)
            }
        }
        Plan::Sentence(s) => {
            ExplainNode::new("sentence", "boolean").with(vec![explain_formula(&s.formula, tally)])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Relation;

    fn rs_db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("R", ["A", "B"]),
                [[1i64, 10], [1, 20], [2, 10], [3, 30]],
            )
            .unwrap(),
        );
        db.add_relation(
            Relation::from_rows(TableSchema::new("S", ["B"]), [[10i64], [20]]).unwrap(),
        );
        db
    }

    /// A hand-built pipeline: q(A) ← R(A, B), S(B) as a tuple-slot plan
    /// with a hash probe into S.
    fn join_plan() -> QueryPlan {
        QueryPlan {
            out: TableSchema::new("q", ["A"]),
            head_slot: 0,
            root: Block {
                pre: Vec::new(),
                scans: vec![
                    Scan {
                        rel: "R".into(),
                        tuple_slot: 1,
                        key_cols: Vec::new(),
                        key_terms: Vec::new(),
                        index_id: FULL_SCAN,
                        filters: Vec::new(),
                        est_rows: None,
                    },
                    Scan {
                        rel: "S".into(),
                        tuple_slot: 2,
                        key_cols: vec![0],
                        key_terms: vec![Term::Col { slot: 1, col: 1 }],
                        index_id: 0,
                        filters: Vec::new(),
                        est_rows: None,
                    },
                ],
            },
            defs: vec![Term::Col { slot: 1, col: 0 }],
            deferred: Vec::new(),
            shape: EnvShape {
                tuple_slots: 3,
                indexes: 1,
            },
            est_rows: None,
        }
    }

    #[test]
    fn pipeline_join_emits_matching_tuples() {
        let db = rs_db();
        let out = run_query(&join_plan(), &db).unwrap();
        let vals: Vec<&Value> = out.iter().map(|t| t.get(0)).collect();
        assert_eq!(vals, vec![&Value::int(1), &Value::int(2)]);
    }

    #[test]
    fn sentence_short_circuits() {
        let db = rs_db();
        let s = SentencePlan {
            formula: Formula::Exists(Block {
                pre: Vec::new(),
                scans: vec![Scan {
                    rel: "R".into(),
                    tuple_slot: 0,
                    key_cols: Vec::new(),
                    key_terms: Vec::new(),
                    index_id: FULL_SCAN,
                    filters: vec![Formula::Pred(Pred {
                        left: Term::Col { slot: 0, col: 0 },
                        op: CmpOp::Eq,
                        right: Term::Const(Value::int(3)),
                    })],
                    est_rows: None,
                }],
            }),
            shape: EnvShape {
                tuple_slots: 1,
                indexes: 0,
            },
        };
        assert!(run_sentence(&s, &db).unwrap());
        assert_eq!(
            execute(&Plan::Sentence(s), &db).unwrap().len(),
            1,
            "true sentence is the 0-ary singleton"
        );
    }

    #[test]
    fn empty_union_errors() {
        let db = rs_db();
        assert!(execute(&Plan::Union(Vec::new()), &db).is_err());
    }

    #[test]
    fn scan_set_walks_every_read_site() {
        // Pipeline branch: scans plus an Exists block inside a deferred
        // conjunct.
        let mut q = join_plan();
        q.deferred
            .push(Formula::Not(Box::new(Formula::Exists(Block {
                pre: Vec::new(),
                scans: vec![Scan {
                    rel: "D".into(),
                    tuple_slot: 3,
                    key_cols: Vec::new(),
                    key_terms: Vec::new(),
                    index_id: FULL_SCAN,
                    filters: Vec::new(),
                    est_rows: None,
                }],
            }))));
        let set = scan_set(&Plan::Union(vec![q]));
        let names: Vec<&str> = set.iter().map(String::as_str).collect();
        assert_eq!(names, ["D", "R", "S"]);
    }

    #[test]
    fn explain_names_scan_strategy() {
        let plan = Plan::Union(vec![join_plan()]);
        let node = explain(&plan);
        assert_eq!(node.kind, "query");
        let scans: Vec<&ExplainNode> = node.children.iter().filter(|n| n.kind == "scan").collect();
        assert_eq!(scans.len(), 2);
        assert!(scans[0].detail.contains("full scan"), "{}", scans[0].detail);
        assert!(
            scans[1].detail.contains("hash probe"),
            "{}",
            scans[1].detail
        );
    }

    #[test]
    fn plain_explain_has_no_row_counts() {
        let node = explain(&Plan::Union(vec![join_plan()]));
        fn assert_unannotated(n: &ExplainNode) {
            assert_eq!((n.est_rows, n.actual_rows), (None, None), "{}", n.kind);
            n.children.iter().for_each(assert_unannotated);
        }
        assert_unannotated(&node);
    }

    #[test]
    fn explain_analyze_counts_pipeline_rows() {
        let db = rs_db();
        let mut q = join_plan();
        q.root.scans[0].est_rows = Some(4);
        q.root.scans[1].est_rows = Some(2);
        q.est_rows = Some(2);
        let plan = Plan::Union(vec![q]);
        let (rel, node) = explain_analyze(&plan, &db).unwrap();
        // Root: actual rows == the returned relation's cardinality.
        assert_eq!(node.actual_rows, Some(rel.len() as u64));
        assert_eq!(rel.len(), 2);
        // R full scan emits all 4 tuples; the S probe matches B ∈
        // {10, 20, 10} of the four R rows, i.e. 3 rows survive. The
        // estimates are the ones recorded on the plan.
        let scans: Vec<&ExplainNode> = node.children.iter().filter(|n| n.kind == "scan").collect();
        assert_eq!(scans[0].rows_pair(), (Some(4), Some(4)));
        assert_eq!(scans[1].rows_pair(), (Some(2), Some(3)));
        assert_eq!(scans[1].q_error, Some(q_error(2, 3)));
        assert_eq!(node.rows_pair(), (Some(2), Some(2)));
        // Plain explain renders the same estimates, without actuals.
        let plain = explain(&plan);
        let plain_scans: Vec<Option<u64>> = plain.children.iter().map(|n| n.est_rows).collect();
        assert_eq!(plain_scans, [Some(4), Some(2)]);
        assert_eq!(plain.rows_pair(), (Some(2), None));
    }

    impl ExplainNode {
        fn rows_pair(&self) -> (Option<u64>, Option<u64>) {
            (self.est_rows, self.actual_rows)
        }
    }
}
