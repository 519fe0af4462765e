//! The one histogram value type: log-linear buckets over `u64` samples.
//!
//! Every distribution in the workspace records into [`Histogram`]: the
//! turbo match loop's chain-walk and match lengths
//! ([`crate::TurboCounters`]), each snapshot of a metrics-registry
//! histogram, and the frame-latency table of `lzfpga stats`.
//!
//! The bucketing is HDR-style: values below [`SUBS`] get exact unit
//! buckets, and every octave above is split into [`SUBS`] linear
//! sub-buckets. A quantile is exact to within one sub-bucket (≈6.25%)
//! over the full `u64` range in [`BUCKETS`] slots, and values below 32 are
//! exact.
//!
//! Counts are dense and grow on demand up to the highest bucket recorded:
//! an empty histogram allocates nothing, and once the array reaches a
//! bucket, recording into it is O(1) with no allocation. `sum` and `max`
//! are exact; the count is derived from the buckets, so quantiles and the
//! mean stay consistent with it.

use crate::json::{obj, JsonValue};

/// Linear sub-buckets per octave.
pub const SUBS: usize = 16;

/// Total buckets: `SUBS` unit buckets for `0..SUBS`, then `SUBS`
/// sub-buckets for each of the 60 remaining octaves of `u64`.
pub const BUCKETS: usize = SUBS + 60 * SUBS;

/// Bucket index for a sample value.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= 4
        let octave = (msb - 3) as usize; // 1-based above the unit range
        octave * SUBS + ((v >> (msb - 4)) & (SUBS as u64 - 1)) as usize
    }
}

/// Smallest value landing in bucket `i` (the quantile estimate we report).
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    if i < SUBS {
        i as u64
    } else {
        let octave = i / SUBS;
        let sub = (i % SUBS) as u64;
        (SUBS as u64 + sub) << (octave - 1)
    }
}

/// Largest value landing in bucket `i` (inclusive; the Prometheus `le`
/// bound).
#[inline]
pub fn bucket_hi(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lo(i + 1) - 1
    }
}

/// A log-linear histogram of `u64` samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Samples per bucket; empty, or ending in a non-zero count.
    counts: Vec<u64>,
}

/// Drop trailing empty buckets, so equal distributions compare equal.
fn trim(counts: &mut Vec<u64>) {
    let len = counts.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
    counts.truncate(len);
}

impl Histogram {
    /// A histogram with `counts[i]` samples in bucket `i`.
    ///
    /// # Panics
    /// Panics if `counts` has more than [`BUCKETS`] entries.
    pub fn from_parts(sum: u64, max: u64, mut counts: Vec<u64>) -> Self {
        assert!(counts.len() <= BUCKETS, "{} buckets, at most {BUCKETS}", counts.len());
        trim(&mut counts);
        counts.shrink_to_fit();
        Histogram { sum, max, counts }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let i = bucket_index(v);
        if i >= self.counts.len() {
            self.grow(i);
        }
        self.counts[i] += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, i: usize) {
        self.counts.resize(i + 1, 0);
    }

    /// Record a microsecond duration: the fraction is dropped, and
    /// negative or NaN durations count as zero.
    #[inline]
    pub fn record_us(&mut self, us: f64) {
        self.record(us as u64);
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0, |a, &n| a.saturating_add(n))
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Occupied `(bucket index, count)` rows, ascending by index.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts.iter().enumerate().filter(|&(_, &n)| n > 0).map(|(i, &n)| (i, n))
    }

    /// Lower bound of the bucket holding the `q`-quantile sample
    /// (`0.0 <= q <= 1.0`); exact to within one bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, n) in self.buckets() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_lo(i);
            }
        }
        bucket_lo(self.counts.len().saturating_sub(1))
    }

    /// Merge another histogram into this one (bucket-wise add).
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(b);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Bucket-wise `self - earlier`, saturating at zero. `max` is carried
    /// from `self` (a high-water mark has no meaningful delta).
    pub fn delta(&self, earlier: &Histogram) -> Histogram {
        let mut counts = self.counts.clone();
        for (a, &b) in counts.iter_mut().zip(&earlier.counts) {
            *a = a.saturating_sub(b);
        }
        trim(&mut counts);
        Histogram { sum: self.sum.saturating_sub(earlier.sum), max: self.max, counts }
    }

    /// Registry JSON form: `{sum, max, buckets: [[index, count], ...]}`.
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("sum", self.sum.into()),
            ("max", self.max.into()),
            (
                "buckets",
                JsonValue::Array(
                    self.buckets()
                        .map(|(i, n)| JsonValue::Array(vec![i.into(), n.into()]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse the [`Histogram::to_json`] form. `None` for anything it would
    /// not write: a negative number, a bucket index of [`BUCKETS`] or more,
    /// or an index that repeats or runs backwards.
    pub fn from_json(v: &JsonValue) -> Option<Histogram> {
        let num = JsonValue::as_u64;
        let (sum, max) = (num(v.get("sum")?)?, num(v.get("max")?)?);
        let mut counts = Vec::new();
        for row in v.get("buckets")?.as_array()? {
            let [i, n] = row.as_array()? else { return None };
            let i = usize::try_from(num(i)?).ok().filter(|&i| i >= counts.len() && i < BUCKETS)?;
            counts.resize(i, 0);
            counts.push(num(n)?);
        }
        Some(Histogram::from_parts(sum, max, counts))
    }

    /// Report JSON form: `{count, sum, max, mean, buckets: [{lt, n}, ...]}`,
    /// one row per occupied bucket, `lt` its exclusive upper bound.
    pub fn report_json(&self) -> JsonValue {
        obj([
            ("count", self.count().into()),
            ("sum", self.sum.into()),
            ("max", self.max.into()),
            ("mean", self.mean().into()),
            (
                "buckets",
                JsonValue::Array(
                    self.buckets()
                        .map(|(i, n)| {
                            obj([("lt", bucket_hi(i).saturating_add(1).into()), ("n", n.into())])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn of(samples: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &v in samples {
            h.record(v);
        }
        h
    }

    /// Deterministic LCG sample set spanning many octaves (the shift keeps
    /// the magnitudes spread without overflowing the sum).
    fn lcg_samples(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 32) >> (x % 30)
            })
            .collect()
    }

    #[test]
    fn records_and_buckets() {
        let h = of(&[0, 1, 1, 2, 3, 7, 8, 1_000]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum, 1_022);
        assert_eq!(h.max, 1_000);
        assert!((h.mean() - 127.75).abs() < 1e-12);
        // Unit buckets below 16; 1000 lands in [992, 1023].
        let rows: Vec<_> = h.buckets().collect();
        assert_eq!(rows, vec![(0, 1), (1, 2), (2, 1), (3, 1), (7, 1), (8, 1), (111, 1)]);
        assert_eq!((bucket_lo(111), bucket_hi(111)), (992, 1_023));
        assert_eq!(rows.iter().map(|&(_, n)| n).sum::<u64>(), h.count());
    }

    #[test]
    fn bucket_boundaries_are_exact_powers() {
        // Each power of two starts a new bucket.
        assert_eq!(of(&[1, 2, 4, 8]).buckets().count(), 4);
        for k in 0..64 {
            assert_eq!(bucket_lo(bucket_index(1 << k)), 1 << k, "2^{k}");
        }
        // Exact below 32: every value has a bucket of its own.
        assert!((0..32).all(|v| bucket_lo(bucket_index(v)) == v && bucket_hi(bucket_index(v)) == v));
    }

    #[test]
    fn bucket_index_is_monotone_and_inverts() {
        let mut last = 0usize;
        for v in (0u64..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i >= last || v < 4096, "bucket index must be monotone");
            last = last.max(i);
            assert!(bucket_lo(i) <= v, "lo({i}) = {} > {v}", bucket_lo(i));
            assert!(v <= bucket_hi(i), "hi({i}) = {} < {v}", bucket_hi(i));
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = of(&[3]);
        let b = of(&[300, 0]);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum, 303);
        assert_eq!(a.max, 300);
        assert!((a.mean() - 101.0).abs() < 1e-12);
        // Componentwise: the same as recording every sample into one.
        assert_eq!(a, of(&[3, 300, 0]));
        let mut short = of(&[1]);
        short.merge(&of(&[5_000, 2]));
        assert_eq!(short, of(&[1, 5_000, 2]));
    }

    #[test]
    fn the_empty_histogram_reads_zero_and_allocates_nothing() {
        let h = Histogram::default();
        assert_eq!(h.counts.capacity(), 0);
        assert_eq!((h.count(), h.sum, h.max, h.quantile(0.5)), (0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.buckets().count(), 0);
        assert_eq!(h.to_json().render(), r#"{"sum":0,"max":0,"buckets":[]}"#);
        assert_eq!(Histogram::from_json(&h.to_json()), Some(h.clone()));
        let mut merged = h.clone();
        merged.merge(&Histogram::default());
        assert_eq!(merged.counts.capacity(), 0);
        // A delta back to nothing is the empty histogram.
        let one = of(&[700]);
        assert_eq!(one.delta(&one), Histogram { max: 700, ..Histogram::default() });
    }

    #[test]
    fn json_round_trips() {
        let h = of(&(0..100).collect::<Vec<u64>>());
        assert_eq!(Histogram::from_json(&parse(&h.to_json().render()).unwrap()), Some(h.clone()));

        let report = parse(&h.report_json().render()).unwrap();
        assert_eq!(report.get("count").unwrap().as_i64(), Some(100));
        assert_eq!(report.get("sum").unwrap().as_i64(), Some(4_950));
        let rows = report.get("buckets").unwrap().as_array().unwrap();
        let n: i64 = rows.iter().map(|b| b.get("n").unwrap().as_i64().unwrap()).sum();
        assert_eq!(n, 100);
        // Row bounds are the registry's: `lt` is one past a bucket's top.
        let lts: Vec<u64> =
            rows.iter().map(|b| b.get("lt").unwrap().as_i64().unwrap() as u64).collect();
        assert_eq!(&lts[..3], &[1, 2, 3], "exact rows below 32");
        assert!(lts.iter().all(|&lt| bucket_hi(bucket_index(lt - 1)) == lt - 1));
    }

    #[test]
    fn from_json_refuses_what_to_json_never_writes() {
        let bad = [
            format!(r#"{{"sum":1,"max":1,"buckets":[[{BUCKETS},1]]}}"#),
            r#"{"sum":1,"max":1,"buckets":[[-1,1]]}"#.to_string(),
            r#"{"sum":1,"max":1,"buckets":[[1,-5]]}"#.to_string(),
            r#"{"sum":-5,"max":1,"buckets":[[1,1]]}"#.to_string(),
            r#"{"sum":1,"max":-1,"buckets":[[1,1]]}"#.to_string(),
            r#"{"sum":2,"max":1,"buckets":[[1,1],[1,1]]}"#.to_string(),
            r#"{"sum":3,"max":2,"buckets":[[2,1],[1,1]]}"#.to_string(),
            r#"{"sum":1,"max":1,"buckets":[[1,1,1]]}"#.to_string(),
            r#"{"sum":1,"max":1,"buckets":[[1.5,1]]}"#.to_string(),
        ];
        for text in &bad {
            assert_eq!(Histogram::from_json(&parse(text).unwrap()), None, "{text}");
        }
        let top = format!(r#"{{"sum":1,"max":1,"buckets":[[0,1],[{},1]]}}"#, BUCKETS - 1);
        assert!(Histogram::from_json(&parse(&top).unwrap()).is_some(), "{top}");
    }

    #[test]
    fn quantiles_stay_within_one_bucket_of_exact_on_adversarial_distributions() {
        let distributions: Vec<Vec<u64>> = vec![
            vec![7; 1_000], // constant
            (0..1_000).map(|i| if i < 990 { 1 } else { u64::from(u32::MAX) }).collect(), // bimodal
            (0..640).map(|i| 1u64 << (i % 40)).collect(), // exact octave boundaries
            (1..=1_000u64).map(|i| i * i * i).collect(), // heavy cubic tail
            (0..1_000).map(|i| SUBS as u64 - 1 + i % 3).collect(), // unit/octave seam
            lcg_samples(9, 2_000), // broad pseudo-random spread
        ];
        for samples in distributions {
            let hs = of(&samples);
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                // Exact quantile under the same rank convention the
                // histogram uses: the ceil(q*n)-th smallest, rank >= 1.
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let est = hs.quantile(q);
                let (bi_est, bi_exact) = (bucket_index(est) as i64, bucket_index(exact) as i64);
                assert!(
                    (bi_est - bi_exact).abs() <= 1,
                    "q={q}: estimate {est} (bucket {bi_est}) vs exact {exact} \
                     (bucket {bi_exact}) over {} samples",
                    sorted.len()
                );
                assert!(est <= exact, "q={q}: the bucket lower bound never overstates");
            }
        }
    }
}
