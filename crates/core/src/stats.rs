//! Per-column statistics: KMV distinct-value sketches and `Int` min/max
//! ranges, maintained per stored relation.
//!
//! Each [`Relation`](crate::Relation) lazily materializes a
//! [`TableStats`] over its tuples on first request and then keeps it
//! current *incrementally*: inserting a fresh tuple observes its values
//! into the sketches; a delete (which a sketch cannot unobserve)
//! invalidates the cache so the next reader rebuilds. The TRC lowering
//! reads the cached [`TableStats`] of each relation a block scans —
//! never of the others — and turns them into the row estimates the
//! cost-based join orderer ([`crate::plan`]) consumes: sizes, distinct
//! counts, and [`TableStats::cmp_selectivity`] for comparisons with
//! literals.
//!
//! The distinct counter is a K-Minimum-Values sketch (Bar-Yossef et al.):
//! keep the `K` smallest 64-bit hashes ever observed; with `k` distinct
//! hashes seen and the `K`-th smallest at height `h`, the distinct count
//! is estimated as `(K-1) · 2⁶⁴ / h`. Below `K` distinct values the
//! sketch is exact (modulo hash collisions).

use crate::database::Tuple;
use crate::value::Value;
use crate::CmpOp;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Sketch size: the number of minimum hash values retained. 256 keeps
/// the relative error around `1/√(K-2)` ≈ 6% at a few KiB per column.
pub const KMV_K: usize = 256;

fn hash_value(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// A K-Minimum-Values distinct-count sketch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KmvSketch {
    /// The at-most-[`KMV_K`] smallest distinct hashes observed.
    mins: BTreeSet<u64>,
}

impl KmvSketch {
    /// Observes one value. Duplicates are absorbed by hash identity.
    pub fn observe(&mut self, v: &Value) {
        let h = hash_value(v);
        if self.mins.len() >= KMV_K {
            let max = *self.mins.iter().next_back().expect("non-empty at K");
            if h >= max {
                return;
            }
            if self.mins.insert(h) {
                self.mins.remove(&max);
            }
        } else {
            self.mins.insert(h);
        }
    }

    /// The estimated number of distinct values observed.
    pub fn distinct(&self) -> u64 {
        let k = self.mins.len();
        if k < KMV_K {
            k as u64
        } else {
            let kth = *self.mins.iter().next_back().expect("non-empty at K");
            (((KMV_K - 1) as f64) * (u64::MAX as f64) / (kth as f64).max(1.0)) as u64
        }
    }
}

/// Statistics for one column: a distinct sketch plus the observed
/// `Int` range (when the column holds integers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnStats {
    sketch: KmvSketch,
    min_int: Option<i64>,
    max_int: Option<i64>,
}

impl ColumnStats {
    /// Observes one value into the sketch and the `Int` range.
    pub fn observe(&mut self, v: &Value) {
        self.sketch.observe(v);
        if let Value::Int(i) = v {
            self.min_int = Some(self.min_int.map_or(*i, |m| m.min(*i)));
            self.max_int = Some(self.max_int.map_or(*i, |m| m.max(*i)));
        }
    }

    /// Estimated distinct values in this column.
    pub fn distinct(&self) -> u64 {
        self.sketch.distinct()
    }

    /// The observed `Int` min/max, if any integer was seen. The range
    /// only grows — deletes invalidate the whole table's stats instead.
    pub fn int_range(&self) -> Option<(i64, i64)> {
        match (self.min_int, self.max_int) {
            (Some(lo), Some(hi)) => Some((lo, hi)),
            _ => None,
        }
    }
}

/// Statistics for one relation: row count plus per-column
/// [`ColumnStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStats {
    rows: u64,
    cols: Vec<ColumnStats>,
}

impl TableStats {
    /// Empty statistics for a relation of the given arity.
    pub fn new(arity: usize) -> Self {
        TableStats {
            rows: 0,
            cols: (0..arity).map(|_| ColumnStats::default()).collect(),
        }
    }

    /// Builds statistics by scanning `tuples` once.
    pub fn of<'a>(arity: usize, tuples: impl IntoIterator<Item = &'a Tuple>) -> Self {
        let mut st = TableStats::new(arity);
        for t in tuples {
            st.observe(t);
        }
        st
    }

    /// Observes one (fresh — the caller dedups) tuple incrementally.
    pub fn observe(&mut self, t: &Tuple) {
        self.rows += 1;
        for (c, v) in t.iter().enumerate() {
            if let Some(col) = self.cols.get_mut(c) {
                col.observe(v);
            }
        }
    }

    /// Number of rows observed.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The column statistics (one entry per attribute).
    pub fn columns(&self) -> &[ColumnStats] {
        &self.cols
    }

    /// Estimated distinct values in column `col`, clamped to at least 1
    /// on non-empty relations and falling back to the row count for
    /// out-of-range columns.
    pub fn distinct(&self, col: usize) -> u64 {
        match self.cols.get(col) {
            Some(c) => c.distinct().max(u64::from(self.rows > 0)),
            None => self.rows,
        }
    }

    /// The observed `Int` range of column `col`, if known.
    pub fn int_range(&self, col: usize) -> Option<(i64, i64)> {
        self.cols.get(col).and_then(ColumnStats::int_range)
    }

    /// Selectivity of `col <op> lit`: equality keeps `1/V(col)`,
    /// inequality its complement, and ordered comparisons interpolate
    /// within the observed `Int` range (defaulting to 1/3 when no range
    /// is known — the classic System R guess). The range arithmetic is
    /// done in `i128`, so a column spanning all of `i64` stays finite.
    pub fn cmp_selectivity(&self, col: usize, op: CmpOp, lit: &Value) -> f64 {
        let eq = 1.0 / (self.distinct(col) as f64).max(1.0);
        match (op, self.int_range(col), lit) {
            (CmpOp::Eq, ..) => eq,
            (CmpOp::Ne, ..) => (1.0 - eq).max(eq),
            (_, Some((lo, hi)), Value::Int(b)) => {
                let width = (i128::from(hi) - i128::from(lo)) as f64 + 1.0;
                let below = ((i128::from(*b) - i128::from(lo)) as f64).clamp(0.0, width);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmv_exact_below_k() {
        let mut s = KmvSketch::default();
        for i in 0..100i64 {
            s.observe(&Value::Int(i));
            s.observe(&Value::Int(i)); // duplicates absorbed
        }
        assert_eq!(s.distinct(), 100);
    }

    #[test]
    fn kmv_estimates_above_k() {
        let mut s = KmvSketch::default();
        for i in 0..10_000i64 {
            s.observe(&Value::Int(i));
        }
        let est = s.distinct() as f64;
        assert!(
            (est - 10_000.0).abs() / 10_000.0 < 0.25,
            "estimate {est} too far from 10000"
        );
    }

    #[test]
    fn column_tracks_int_range() {
        let mut c = ColumnStats::default();
        c.observe(&Value::Int(5));
        c.observe(&Value::Int(-3));
        c.observe(&Value::Str("x".into()));
        assert_eq!(c.int_range(), Some((-3, 5)));
        let mut s = ColumnStats::default();
        s.observe(&Value::Str("y".into()));
        assert_eq!(s.int_range(), None);
    }

    #[test]
    fn incremental_matches_rebuild() {
        let rows: Vec<Tuple> = (0..500i64).map(|i| Tuple::new([i % 7, i])).collect();
        let scanned = TableStats::of(2, rows.iter());
        let mut inc = TableStats::new(2);
        for t in &rows {
            inc.observe(t);
        }
        assert_eq!(scanned, inc);
        assert_eq!(scanned.rows(), 500);
        assert_eq!(scanned.distinct(0), 7);
        assert_eq!(scanned.int_range(1), Some((0, 499)));
    }

    #[test]
    fn cmp_selectivity_uses_ranges_and_distincts() {
        let rows: Vec<Tuple> = (0..100i64).map(|i| Tuple::new([i])).collect();
        let st = TableStats::of(1, rows.iter());
        let eq = st.cmp_selectivity(0, CmpOp::Eq, &Value::int(5));
        assert!((eq - 0.01).abs() < 1e-9);
        let lt = st.cmp_selectivity(0, CmpOp::Lt, &Value::int(25));
        assert!((lt - 0.25).abs() < 0.02, "lt sel {lt}");
        let ge = st.cmp_selectivity(0, CmpOp::Ge, &Value::int(75));
        assert!((ge - 0.25).abs() < 0.02, "ge sel {ge}");
        // No range info → the 1/3 default.
        let s = st.cmp_selectivity(0, CmpOp::Lt, &Value::Str("x".into()));
        assert!((s - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn cmp_selectivity_is_finite_over_the_full_int_range() {
        let rows: Vec<Tuple> = [i64::MIN, 3, i64::MAX]
            .into_iter()
            .map(|i| Tuple::new([i]))
            .collect();
        let st = TableStats::of(1, rows.iter());
        assert_eq!(st.int_range(0), Some((i64::MIN, i64::MAX)));
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for lit in [i64::MIN, -1, 5, i64::MAX] {
                let s = st.cmp_selectivity(0, op, &Value::int(lit));
                assert!(s.is_finite() && s > 0.0 && s <= 1.0, "{op} {lit}: {s}");
            }
        }
    }
}
