//! Small numeric helpers: order-independent result fingerprints, a
//! stable byte hash, and quantiles over raw samples.

use rd_core::Value;

/// FNV-1a over `bytes`, continuing from `state` (start from [`FNV_SEED`]).
/// Stable across processes and builds, unlike the std hasher.
pub fn fnv(mut state: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        state ^= u64::from(*b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// The FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A well-mixed 64-bit hash of one result row (tagged, length-prefixed
/// encoding, so `[1, 'a']` and `['1a']` cannot collide structurally).
pub fn row_print<'a>(row: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut h = FNV_SEED;
    for v in row {
        match v {
            Value::Int(i) => {
                h = fnv(h, b"i");
                h = fnv(h, &i.to_le_bytes());
            }
            Value::Str(s) => {
                h = fnv(h, b"s");
                h = fnv(h, &(s.len() as u64).to_le_bytes());
                h = fnv(h, s.as_bytes());
            }
            // Results leave the engine resolved; a symbol id here is a
            // bug the fingerprint must not hide.
            Value::Sym(id) => {
                h = fnv(h, b"y");
                h = fnv(h, &id.to_le_bytes());
            }
        }
    }
    // SplitMix64 finalizer: spreads FNV's weak high bits before summing.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// An order-independent fingerprint of a set of rows: the wrapping sum
/// of the row hashes. Results are sets, so no sort is needed on the
/// client's hot path.
pub fn set_print<R, I>(rows: I) -> u64
where
    I: IntoIterator<Item = R>,
    R: AsRef<[Value]>,
{
    rows.into_iter()
        .fold(0u64, |acc, r| acc.wrapping_add(row_print(r.as_ref())))
}

/// The nearest-rank `p`-quantile (0 < p ≤ 1) of `sorted`, 0 when empty.
pub fn quantile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nanoseconds → microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The median of `values` (sorted in place), 0 when empty.
pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `num / den`, 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
