//! The shared planning layer: per-table statistics, a cardinality
//! estimator, Selinger-style dynamic programming over join orders, and
//! the scan-cost model the lowerings share.
//!
//! All four languages lower onto the shared pipeline IR through the TRC
//! lowering (SQL, RA and Datalog via their TRC hub forms), which routes
//! its join ordering through this module. Ordering is cost-based by default: [`DbStats`] snapshots
//! per-column distinct sketches and `Int` ranges
//! ([`crate::stats::TableStats`]), the estimator turns equality/range
//! predicates and equi-join classes into cardinalities, and
//! [`order_scans`] runs an exact left-deep dynamic program over the
//! scan set (falling back to an estimator-driven greedy above
//! [`PlannerOpts::dp_threshold`] scans). The legacy one-pass greedy
//! ([`scan_cost`]) survives as [`OrderStrategy::Greedy`] — the
//! differential baseline. Every scan with at least one bound equality
//! key probes a join table instead of scanning; negated and quantified
//! subformulas still evaluate only after their bindings are available.

use crate::database::Database;
use crate::stats::TableStats;
use crate::{CmpOp, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-table statistics of a database instance — the input to join
/// ordering. Holds exact sizes and per-column [`TableStats`] snapshots
/// (distinct sketches + `Int` ranges, materialized lazily by the
/// relations and cached per mutation epoch).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbStats {
    sizes: BTreeMap<String, usize>,
    tables: BTreeMap<String, Arc<TableStats>>,
    total: usize,
}

impl DbStats {
    /// Collects statistics for `db`. Column statistics materialize
    /// lazily inside each relation and are cached there, so repeated
    /// snapshots per epoch cost one `Arc` clone per table.
    pub fn of(db: &Database) -> DbStats {
        let mut sizes = BTreeMap::new();
        let mut tables = BTreeMap::new();
        let mut total = 0;
        for rel in db.iter() {
            sizes.insert(rel.name().to_string(), rel.len());
            tables.insert(rel.name().to_string(), rel.stats());
            total += rel.len();
        }
        DbStats {
            sizes,
            tables,
            total,
        }
    }

    /// Tuples in `table` (0 for unknown tables).
    pub fn size(&self, table: &str) -> usize {
        self.sizes.get(table).copied().unwrap_or(0)
    }

    /// Estimated distinct values in `table.col`, clamped to ≥ 1. For
    /// names without column statistics every row is assumed distinct —
    /// the optimistic default that keeps key probes attractive.
    pub fn distinct(&self, table: &str, col: usize) -> f64 {
        match self.tables.get(table) {
            Some(st) => (st.distinct(col) as f64).max(1.0),
            None => self.size(table).max(1) as f64,
        }
    }

    /// The observed `Int` range of `table.col`, if known.
    pub fn int_range(&self, table: &str, col: usize) -> Option<(i64, i64)> {
        self.tables.get(table).and_then(|st| st.int_range(col))
    }

    /// Selectivity of `col <op> literal` against this table's column
    /// statistics: equality keeps `1/V(col)`, inequality its
    /// complement, and ordered comparisons interpolate within the
    /// observed `Int` range (defaulting to 1/3 when no range is known —
    /// the classic System R guess).
    pub fn cmp_selectivity(&self, table: &str, col: usize, op: CmpOp, lit: &Value) -> f64 {
        let eq = 1.0 / self.distinct(table, col);
        match op {
            CmpOp::Eq => eq,
            CmpOp::Ne => (1.0 - eq).max(eq),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                match (self.int_range(table, col), lit) {
                    (Some((lo, hi)), Value::Int(b)) => {
                        let width = (hi - lo) as f64 + 1.0;
                        let below = ((b - lo) as f64).clamp(0.0, width);
                        let frac = match op {
                            CmpOp::Lt => below / width,
                            CmpOp::Le => (below + 1.0).min(width) / width,
                            CmpOp::Gt => (width - below - 1.0).max(0.0) / width,
                            _ => (width - below) / width,
                        };
                        frac.clamp(eq, 1.0)
                    }
                    _ => 1.0 / 3.0,
                }
            }
        }
    }

    /// Total tuples across all tables.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// Planner hints. There is nothing to hint: every plan orders its
/// scans from the stored relations' statistics. The type carries no
/// settings and stays only so `Artifact::compile_with` keeps its
/// signature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanHints;

/// How a lowering orders the scans of one conjunctive block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OrderStrategy {
    /// Cost-based: cardinality estimation over real statistics plus the
    /// [`order_scans`] dynamic program (greedy fallback above the
    /// threshold). The default.
    #[default]
    CostDp,
    /// The legacy one-pass greedy over [`scan_cost`] — kept as the
    /// differential-testing baseline and available as an escape hatch.
    Greedy,
}

/// Planner configuration threaded through the four lowerings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerOpts {
    /// Join-order strategy.
    pub strategy: OrderStrategy,
    /// Above this many scans in one block, [`order_scans`] switches
    /// from the exact `O(2ⁿ·n)` dynamic program to estimator-driven
    /// greedy. 12 scans ≈ 50k DP transitions — well under a
    /// microsecond-scale compile budget.
    pub dp_threshold: usize,
}

impl Default for PlannerOpts {
    fn default() -> Self {
        PlannerOpts {
            strategy: OrderStrategy::CostDp,
            dp_threshold: 12,
        }
    }
}

/// One candidate scan of a conjunctive block, reduced to the numbers
/// the join orderer needs. The lowering estimates `rows` by applying
/// local predicate selectivities to the base cardinality, and maps each
/// equi-join column onto a cross-scan equivalence *class* (two scans
/// sharing a class join on it; a class spanning no placed scan binds
/// nothing).
#[derive(Debug, Clone, Default)]
pub struct ScanCand {
    /// Estimated rows after local (single-scan) predicates.
    pub rows: f64,
    /// `(class, distinct)` per equi-join column: the join-class id this
    /// column belongs to and the estimated distinct values it holds.
    pub join_cols: Vec<(usize, f64)>,
}

/// Estimated cardinality of joining the candidate subset `mask`, under
/// preserved-value-sets: for each join class with `k ≥ 2` members in
/// the subset, divide the row product by the `k-1` largest per-member
/// distinct counts (the pairwise `|R ⋈ S| = |R|·|S| / max(V_R, V_S)`
/// rule, associatively extended). Order-independent by construction.
fn est_card(cands: &[ScanCand], mask: usize) -> f64 {
    let mut card = 1.0f64;
    let mut class_vs: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (i, cand) in cands.iter().enumerate() {
        if mask & (1 << i) == 0 {
            continue;
        }
        card *= cand.rows.max(0.0);
        let mut seen = Vec::new();
        for &(class, v) in &cand.join_cols {
            // A scan equating two own columns into one class constrains
            // itself once; count each class once per scan.
            if !seen.contains(&class) {
                seen.push(class);
                class_vs.entry(class).or_default().push(v.max(1.0));
            }
        }
    }
    for vs in class_vs.values_mut() {
        if vs.len() >= 2 {
            vs.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
            for v in &vs[..vs.len() - 1] {
                card /= v;
            }
        }
    }
    card
}

/// `true` if candidate `j` shares a join class with any candidate in
/// `mask` — i.e. placing it after them executes as a keyed hash probe
/// rather than a per-binding full scan.
fn keyed_against(cands: &[ScanCand], mask: usize, j: usize) -> bool {
    cands[j].join_cols.iter().any(|&(class, _)| {
        cands
            .iter()
            .enumerate()
            .any(|(i, c)| mask & (1 << i) != 0 && c.join_cols.iter().any(|&(cl, _)| cl == class))
    })
}

/// Cost of appending a scan of `rows` rows to a placed prefix, given
/// `out`, the estimate once it is placed: emitted frontier rows plus the
/// work to produce them — `|prefix|` hash probes (and an amortized index
/// build) when the scan is keyed against the prefix, or
/// `|prefix| · rows` examined pairs when it is not. `prefix` is the
/// prefix's estimate and whether the scan is keyed against it, `None`
/// for an empty prefix.
fn append_cost(out: f64, prefix: Option<(f64, bool)>, rows: f64) -> f64 {
    match prefix {
        None => out,
        // Index build is a once-per-execution linear pass — far cheaper
        // per row than emitting frontier tuples, hence the small factor.
        Some((prefix_card, true)) => out + prefix_card + rows * 0.1,
        Some((prefix_card, false)) => out + prefix_card * rows.max(1.0),
    }
}

/// Orders a block's scans by estimated cost: an exact left-deep
/// Selinger dynamic program minimizing the summed intermediate-frontier
/// cost (`C_out` plus probe/scan work) up to
/// [`PlannerOpts::dp_threshold`] scans, estimator-driven greedy above
/// it. Left-deep is the shape the pipeline executor runs — each scan
/// extends the current binding frontier — so the DP searches exactly
/// the executable space.
///
/// Returns the scan order (indices into `cands`) and the estimated
/// cardinality of the fully-joined block.
pub fn order_scans(cands: &[ScanCand], opts: &PlannerOpts) -> (Vec<usize>, f64) {
    let n = cands.len();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    // The dynamic program's subsets are bit masks, so it needs a bit
    // per scan.
    if n > opts.dp_threshold || n >= usize::BITS as usize {
        return order_scans_greedy(cands);
    }
    let full = (1usize << n) - 1;
    let total_est = est_card(cands, full);
    if n == 1 {
        return (vec![0], total_est);
    }

    // dp over subsets: best[mask] = cheapest cost of any left-deep
    // order placing exactly `mask`; last[mask] = the scan placed last
    // on that best order.
    let mut best = vec![f64::INFINITY; full + 1];
    let mut last = vec![usize::MAX; full + 1];
    let mut cards = vec![0.0f64; full + 1];
    for (mask, card) in cards.iter_mut().enumerate().skip(1) {
        *card = est_card(cands, mask);
    }
    for j in 0..n {
        best[1 << j] = cands[j].rows;
        last[1 << j] = j;
    }
    for mask in 1..=full {
        // Singletons were seeded above; fill composite masks.
        if mask.count_ones() < 2 {
            continue;
        }
        for j in 0..n {
            if mask & (1 << j) == 0 {
                continue;
            }
            let prev = mask & !(1 << j);
            let keyed = keyed_against(cands, prev, j);
            let cost =
                best[prev] + append_cost(cards[mask], Some((cards[prev], keyed)), cands[j].rows);
            if cost < best[mask] {
                best[mask] = cost;
                last[mask] = j;
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let j = last[mask];
        debug_assert!(j != usize::MAX, "dp table fully populated");
        order.push(j);
        mask &= !(1 << j);
    }
    order.reverse();
    (order, total_est)
}

/// Estimator-driven greedy fallback for wide blocks: repeatedly place
/// the scan with the cheapest [`append_cost`] against the current
/// prefix. Same cost model as the DP, linearized, with the prefix's
/// estimate kept incrementally so a block of `n` scans costs `O(n²)`
/// candidate evaluations of `O(join columns)` each. [`est_card`]'s
/// estimate is `Π rows · Π_class (min V / Π V)` over each class's
/// member distinct counts `V`, so placing a scan multiplies it by the
/// scan's rows and, for each class the prefix already holds with
/// smallest count `m`, by `min(m, v) / (m · v)`.
///
/// Returns the order and the estimate of the whole block.
fn order_scans_greedy(cands: &[ScanCand]) -> (Vec<usize>, f64) {
    let n = cands.len();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // The placed prefix's estimate, and each of its join classes'
    // smallest member distinct count.
    let mut card = 1.0f64;
    let mut class_min: BTreeMap<usize, f64> = BTreeMap::new();
    let extended = |card: f64, class_min: &BTreeMap<usize, f64>, cand: &ScanCand| {
        let mut out = card * cand.rows.max(0.0);
        let mut seen = Vec::new();
        for &(class, v) in &cand.join_cols {
            if seen.contains(&class) {
                continue;
            }
            seen.push(class);
            if let Some(&m) = class_min.get(&class) {
                let v = v.max(1.0);
                out *= m.min(v) / (m * v);
            }
        }
        out
    };
    for _ in 0..n {
        let mut best = None;
        for j in (0..n).filter(|&j| !placed[j]) {
            let cand = &cands[j];
            let out = extended(card, &class_min, cand);
            let prefix = (!order.is_empty()).then(|| {
                let keyed = cand
                    .join_cols
                    .iter()
                    .any(|(class, _)| class_min.contains_key(class));
                (card, keyed)
            });
            let cost = append_cost(out, prefix, cand.rows);
            // The first candidate is taken even at a NaN or infinite
            // cost, so every scan gets placed.
            if best.is_none_or(|(_, best_cost, _)| cost < best_cost) {
                best = Some((j, cost, out));
            }
        }
        let (j, _, out) = best.expect("an unplaced scan remains");
        order.push(j);
        placed[j] = true;
        card = out;
        for &(class, v) in &cands[j].join_cols {
            let v = v.max(1.0);
            class_min
                .entry(class)
                .and_modify(|m| *m = m.min(v))
                .or_insert(v);
        }
    }
    (order, card)
}

/// Estimated cost of scanning a relation of `size` tuples with
/// `bound_keys` equality columns already bound.
///
/// The model is deliberately simple — it only has to *rank* candidate
/// scans: an unkeyed scan costs its full size; each bound equality key
/// divides the expected match count by a nominal per-key selectivity of
/// 8 (hash probe + short bucket). `+1.0` keeps empty relations ordered
/// ahead of everything (scanning them short-circuits immediately).
pub fn scan_cost(size: usize, bound_keys: usize) -> f64 {
    let mut cost = size as f64 + 1.0;
    for _ in 0..bound_keys {
        cost = (cost / 8.0).max(1.0);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Relation;
    use crate::schema::TableSchema;

    #[test]
    fn stats_track_sizes() {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(TableSchema::new("R", ["A"]), [[1i64], [2], [3]]).unwrap(),
        );
        db.add_relation(Relation::from_rows(TableSchema::new("S", ["B"]), [[1i64]]).unwrap());
        let st = DbStats::of(&db);
        assert_eq!(st.size("R"), 3);
        assert_eq!(st.size("S"), 1);
        assert_eq!(st.size("Nope"), 0);
        assert_eq!(st.total(), 4);
    }

    #[test]
    fn cost_prefers_keys_then_size() {
        // A keyed scan of a big relation beats an unkeyed scan of it.
        assert!(scan_cost(1000, 1) < scan_cost(1000, 0));
        // More keys, cheaper.
        assert!(scan_cost(1000, 2) < scan_cost(1000, 1));
        // With equal keys, smaller relations win.
        assert!(scan_cost(10, 1) < scan_cost(1000, 1));
        // Cost never drops below 1 probe.
        assert!(scan_cost(2, 5) >= 1.0);
    }

    /// The skewed 3-way fixture: S(x) ⋈ R(x,y) ⋈ T(y) with |S|=50,
    /// |R|=10⁴, |T|=100. The legacy greedy ranks the unkeyed T scan
    /// (cost 101) below the keyed R probe (cost 10001/8) and
    /// cross-products S×T; the estimator sees the 5000-row frontier
    /// coming and routes S → R → T.
    fn skewed_cands() -> Vec<ScanCand> {
        vec![
            // S: 50 rows, col 0 in class 0 (x), all distinct.
            ScanCand {
                rows: 50.0,
                join_cols: vec![(0, 50.0)],
            },
            // R: 10⁴ rows, x × y grid of 100 × 100 distinct values.
            ScanCand {
                rows: 10_000.0,
                join_cols: vec![(0, 100.0), (1, 100.0)],
            },
            // T: 100 rows, col 0 in class 1 (y), all distinct.
            ScanCand {
                rows: 100.0,
                join_cols: vec![(1, 100.0)],
            },
        ]
    }

    #[test]
    fn est_card_is_order_independent_and_sane() {
        let cands = skewed_cands();
        // S ⋈ R on x: 50·10⁴ / max(50,100) = 5000.
        assert_eq!(est_card(&cands, 0b011).round(), 5000.0);
        // S × T: no shared class → cross product.
        assert_eq!(est_card(&cands, 0b101).round(), 5000.0);
        // Full join: 50·10⁴·100 / (100·100) = 5000.
        assert_eq!(est_card(&cands, 0b111).round(), 5000.0);
    }

    #[test]
    fn dp_picks_small_intermediate_order_on_skewed_fixture() {
        let (order, est) = order_scans(&skewed_cands(), &PlannerOpts::default());
        // S first (smallest), then R (keyed on x), then T (keyed on y)
        // — never the S×T cross product the legacy greedy builds.
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(est.round(), 5000.0);
    }

    #[test]
    fn greedy_fallback_agrees_on_skewed_fixture() {
        let opts = PlannerOpts {
            dp_threshold: 2, // force the fallback
            ..PlannerOpts::default()
        };
        let (order, est) = order_scans(&skewed_cands(), &opts);
        assert_eq!(order, vec![0, 1, 2]);
        // Its incremental estimate matches the order-independent one.
        assert_eq!(est.round(), est_card(&skewed_cands(), 0b111).round());
    }

    #[test]
    fn blocks_wider_than_a_mask_are_ordered() {
        // A chain of 100 scans, each keyed to the next on one class; the
        // largest rows come first so that no order is the identity.
        let cands: Vec<ScanCand> = (0..100)
            .map(|i| ScanCand {
                rows: (1000 - i) as f64,
                join_cols: vec![(i, 10.0), (i + 1, 10.0)],
            })
            .collect();
        let (mut order, est) = order_scans(&cands, &PlannerOpts::default());
        assert_eq!(order[0], 99, "smallest scan first");
        order.sort_unstable();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
        assert!(est.is_finite() && est > 0.0, "{est}");
        // A product too wide for a finite estimate still places every scan.
        let huge = vec![
            ScanCand {
                rows: 1e300,
                join_cols: Vec::new(),
            };
            70
        ];
        assert_eq!(order_scans(&huge, &PlannerOpts::default()).0.len(), 70);
    }

    #[test]
    fn dp_orders_empty_relations_first() {
        let cands = vec![
            ScanCand {
                rows: 1000.0,
                join_cols: vec![(0, 1000.0)],
            },
            ScanCand {
                rows: 0.0,
                join_cols: vec![(0, 1.0)],
            },
        ];
        let (order, est) = order_scans(&cands, &PlannerOpts::default());
        assert_eq!(order, vec![1, 0]);
        assert_eq!(est, 0.0);
    }

    #[test]
    fn cmp_selectivity_uses_ranges_and_distincts() {
        let mut db = Database::new();
        let rows: Vec<[i64; 1]> = (0..100).map(|i| [i]).collect();
        db.add_relation(Relation::from_rows(TableSchema::new("R", ["A"]), rows).unwrap());
        let st = DbStats::of(&db);
        let eq = st.cmp_selectivity("R", 0, CmpOp::Eq, &Value::int(5));
        assert!((eq - 0.01).abs() < 1e-9);
        let lt = st.cmp_selectivity("R", 0, CmpOp::Lt, &Value::int(25));
        assert!((lt - 0.25).abs() < 0.02, "lt sel {lt}");
        let ge = st.cmp_selectivity("R", 0, CmpOp::Ge, &Value::int(75));
        assert!((ge - 0.25).abs() < 0.02, "ge sel {ge}");
        // No range info → the 1/3 default.
        let s = st.cmp_selectivity("R", 0, CmpOp::Lt, &Value::Str("x".into()));
        assert!((s - 1.0 / 3.0).abs() < 1e-9);
    }
}
