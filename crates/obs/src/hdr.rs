//! Two-level fixed-precision quantile histogram ("HDR-style"), the one
//! histogram behind [`crate::record`].
//!
//! One log2 bucket per power of two would put a p99 estimate off by
//! almost 2x — fine for orders of magnitude, useless for tail-latency
//! work. [`HdrHist`] subdivides every power-of-two range into [`SUBS`]
//! linear sub-buckets:
//!
//! * values `< 32` are exact (one bucket per value);
//! * a value with most-significant bit `b >= 5` lands in sub-bucket
//!   `(v >> (b - 5)) & 31`, a range of width `2^(b-5)`.
//!
//! A reported quantile is the *upper bound* of its bucket, so the
//! relative error is at most `1/32` (~3.1%) — "exact-ish" p50/p90/p99/
//! p999 across the full `u64` range in a fixed 1920-slot table (15 KiB).
//! Histograms merge by bucket-wise addition, which is how the sharded
//! collector combines per-thread tails without losing quantile fidelity
//! (unlike mergeable-only-approximately sketches).

/// Bits of linear subdivision per power-of-two range.
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power-of-two range (`2^SUB_BITS`).
pub const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: 32 exact low values + 59 subdivided ranges.
const BUCKETS: usize = SUBS * 60;

/// Worst-case relative error of a reported quantile (`1 / SUBS`).
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUBS as f64;

/// Fixed-precision quantile histogram over `u64` values.
///
/// ```
/// let mut h = obs::HdrHist::new();
/// for v in 1..=100_000u64 {
///     h.record(v);
/// }
/// let p99 = h.quantile(0.99);
/// assert!((p99 as f64 - 99_000.0).abs() / 99_000.0 < 0.04);
/// ```
#[derive(Clone)]
pub struct HdrHist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    counts: Vec<u64>,
}

impl Default for HdrHist {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for HdrHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HdrHist")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// Bucket index of `v` (monotonic in `v`).
fn index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let b = 63 - v.leading_zeros();
    let sub = ((v >> (b - SUB_BITS)) as usize) & (SUBS - 1);
    SUBS * (b - SUB_BITS + 1) as usize + sub
}

/// Largest value mapping to bucket `idx` (saturating at `u64::MAX`).
fn upper(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let b = (idx / SUBS) as u32 + SUB_BITS - 1;
    let sub = (idx % SUBS) as u64;
    let width = 1u64 << (b - SUB_BITS);
    ((1u64 << b) - 1).saturating_add((sub + 1) * width)
}

impl HdrHist {
    /// An empty histogram.
    pub fn new() -> HdrHist {
        HdrHist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            counts: vec![0; BUCKETS],
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.counts[index(v)] += 1;
    }

    /// Bucket-wise merge: `self` absorbs `other`. Quantiles of the merge
    /// equal quantiles of the concatenated streams (same fixed buckets).
    pub fn merge(&mut self, other: &HdrHist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding quantile `q` in `0..=1`,
    /// clamped to the observed `[min, max]` — relative error at most
    /// [`MAX_RELATIVE_ERROR`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= target {
                return upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (`quantile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_monotonic_and_upper_brackets() {
        let mut values: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << shift).saturating_add(off << shift.saturating_sub(3)));
            }
        }
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = index(v);
            assert!(idx >= last, "index not monotonic at v={v}");
            assert!(upper(idx) >= v, "upper({idx}) < v={v}");
            last = idx;
        }
        assert_eq!(index(0), 0);
        assert_eq!(upper(index(u64::MAX)), u64::MAX);
        for v in 0..64u64 {
            assert_eq!(upper(index(v)), v, "low values must be exact");
        }
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = HdrHist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(
                rel <= MAX_RELATIVE_ERROR + 1e-9,
                "q={q}: got {got}, want ~{expect} (rel {rel})"
            );
            assert!(got >= expect, "bucket upper bound never underestimates");
        }
        assert_eq!(h.quantile(1.0), 100_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100_000);
    }

    #[test]
    fn empty_and_single_value() {
        let h = HdrHist::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        let mut one = HdrHist::new();
        one.record(77);
        assert_eq!(one.p50(), 77);
        assert_eq!(one.p999(), 77);
        let mut zero = HdrHist::new();
        zero.record(0);
        assert_eq!(zero.quantile(1.0), 0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = HdrHist::new();
        let mut b = HdrHist::new();
        let mut whole = HdrHist::new();
        for v in 0..10_000u64 {
            let x = (v * 2_654_435_761) % 1_000_003;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn extreme_values_survive() {
        let mut h = HdrHist::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert!(h.p50() >= u64::MAX / 32 * 31);
    }
}
