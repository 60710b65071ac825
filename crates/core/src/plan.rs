//! The shared planning layer: the cardinality estimator and the
//! Selinger-style dynamic program that orders every block's scans.
//!
//! All four languages lower onto the shared pipeline IR through the TRC
//! lowering (SQL, RA and Datalog via their TRC hub forms), which reduces
//! each conjunctive block to [`ScanCand`]s — row estimates from the
//! scanned relations' own [`TableStats`](crate::stats::TableStats) and
//! cross-scan equi-join classes — and asks [`order_scans`] for an order.
//! That is the only join orderer and the only row model: an exact
//! left-deep dynamic program up to 12 scans, an estimator-driven greedy
//! over the same estimates above it, and each placed prefix's estimate
//! is recorded on its [`Scan`](crate::exec::Scan) for `explain`. Every
//! scan with at least one bound equality key probes a join table instead
//! of scanning; negated and quantified subformulas still evaluate only
//! after their bindings are available.

use std::collections::BTreeMap;

/// Planner hints. There is nothing to hint: every plan orders its
/// scans from the stored relations' statistics. The type carries no
/// settings and stays only so `Artifact::compile_with` keeps its
/// signature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanHints;

/// Planner options. There is one join orderer and nothing to
/// configure; the type carries no settings and stays only so
/// `Artifact::compile_with` keeps its signature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerOpts;

/// Above this many scans in one block, [`order_scans`] switches from the
/// exact `O(2ⁿ·n)` dynamic program to estimator-driven greedy. 12 scans
/// ≈ 50k DP transitions — well under a microsecond-scale compile budget.
const DP_MAX_SCANS: usize = 12;

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
/// cost (`C_out` plus probe/scan work) up to `DP_MAX_SCANS` scans,
/// estimator-driven greedy above it. Left-deep is the shape the pipeline
/// executor runs — each scan extends the current binding frontier — so
/// the DP searches exactly the executable space.
///
/// Returns the scan order (indices into `cands`), each paired with the
/// estimated rows of the prefix it completes; the last estimate is the
/// whole block's.
pub fn order_scans(cands: &[ScanCand]) -> Vec<(usize, f64)> {
    let n = cands.len();
    // The dynamic program's subsets are bit masks, so it needs a bit
    // per scan.
    if n > DP_MAX_SCANS || n >= usize::BITS as usize {
        return order_scans_greedy(cands);
    }
    let full = (1usize << n) - 1;

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
            // The first candidate is taken even at a NaN or infinite
            // cost, so every mask gets a last scan; a NaN is then
            // replaced by the next candidate.
            if last[mask] == usize::MAX || cost < best[mask] || best[mask].is_nan() {
                best[mask] = cost;
                last[mask] = j;
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let j = last[mask];
        order.push((j, cards[mask]));
        mask &= !(1 << j);
    }
    order.reverse();
    order
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
fn order_scans_greedy(cands: &[ScanCand]) -> Vec<(usize, f64)> {
    let n = cands.len();
    let mut order: Vec<(usize, f64)> = Vec::with_capacity(n);
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
        order.push((j, out));
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
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The skewed 3-way fixture: S(x) ⋈ R(x,y) ⋈ T(y) with |S|=50,
    /// |R|=10⁴, |T|=100. A size-only ranking takes the unkeyed T scan
    /// before the keyed R probe and cross-products S×T; the estimator
    /// sees the 5000-row frontier coming and routes S → R → T.
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

    fn indices(order: &[(usize, f64)]) -> Vec<usize> {
        order.iter().map(|&(j, _)| j).collect()
    }

    fn rounded(order: &[(usize, f64)]) -> Vec<f64> {
        order.iter().map(|&(_, est)| est.round()).collect()
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
        let order = order_scans(&skewed_cands());
        // S first (smallest), then R (keyed on x), then T (keyed on y)
        // — never the S×T cross product a size-only ranking builds.
        assert_eq!(indices(&order), vec![0, 1, 2]);
        // Each placed prefix carries its own estimate: S, S⋈R, S⋈R⋈T.
        assert_eq!(rounded(&order), vec![50.0, 5000.0, 5000.0]);
    }

    #[test]
    fn greedy_fallback_agrees_on_skewed_fixture() {
        let order = order_scans_greedy(&skewed_cands());
        assert_eq!(indices(&order), vec![0, 1, 2]);
        // Its incremental estimates match the order-independent ones.
        assert_eq!(rounded(&order), rounded(&order_scans(&skewed_cands())));
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
        let order = order_scans(&cands);
        let est = order.last().unwrap().1;
        let mut order = indices(&order);
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
        assert_eq!(order_scans(&huge).len(), 70);
    }

    #[test]
    fn nan_and_infinite_costs_still_yield_a_permutation() {
        for rows in [f64::NAN, f64::INFINITY] {
            for n in [2, 3, 5, 20] {
                let cands: Vec<ScanCand> = (0..n)
                    .map(|i| ScanCand {
                        rows: if i == 1 { rows } else { 10.0 },
                        join_cols: vec![(0, 2.0)],
                    })
                    .collect();
                let mut order = indices(&order_scans(&cands));
                order.sort_unstable();
                assert_eq!(order, (0..n).collect::<Vec<_>>(), "rows {rows}, n {n}");
            }
        }
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
        assert_eq!(order_scans(&cands), vec![(1, 0.0), (0, 0.0)]);
    }

    #[test]
    fn an_empty_block_has_no_order() {
        assert!(order_scans(&[]).is_empty());
    }
}
