//! The metrics registry: named counters and log2-bucketed histograms
//! with stable ordering and deterministic JSON export.
//!
//! Determinism discipline: `BTreeMap` keys give sorted iteration, every
//! exported value is an exact integer (no floats, no wall-clock
//! timestamps), so two identical runs serialize to byte-identical JSON.

use codec::Json;
use std::collections::BTreeMap;

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `k` (for
/// `k >= 1`) holds values whose bit length is `k`, i.e. the half-open
/// range `[2^(k-1), 2^k)`. `u64::MAX` has bit length 64, so 65 buckets
/// cover the whole domain.
pub const BUCKETS: usize = 65;

/// A log2-bucketed histogram over `u64` samples.
///
/// Exact `count`/`sum`/`min`/`max` ride along so coarse bucketing never
/// loses the headline statistics. `sum` saturates rather than wrapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index for a sample: 0 for the value 0, otherwise the bit
/// length of the value (1 for 1, 2 for 2..=3, ..., 64 for the top half
/// of the domain including `u64::MAX`).
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lo(b: usize) -> u64 {
    match b {
        0 => 0,
        1 => 1,
        b => 1u64 << (b - 1),
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed sample; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed sample; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Occupancy of one bucket.
    pub fn bucket(&self, b: usize) -> u64 {
        self.buckets[b]
    }

    /// Deterministic quantile estimate at `permille` (500 = p50,
    /// 990 = p99); `None` when empty.
    ///
    /// The estimate locates the sample of 0-indexed rank
    /// `(count-1)*permille/1000` in the bucket array, then interpolates
    /// linearly across the bucket's value range in pure integer
    /// arithmetic (`u128` intermediates, no floats), clamping to the
    /// exact observed `[min, max]`. Error is bounded by the bucket width
    /// — a factor of 2 — which is the precision the log2 sketch pays for
    /// its fixed size.
    pub fn quantile(&self, permille: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as u128 * permille.min(1000) as u128 / 1000) as u64;
        let mut seen = 0u64;
        for b in 0..BUCKETS {
            let n = self.buckets[b];
            if n == 0 {
                continue;
            }
            if rank < seen + n {
                let lo = bucket_lo(b);
                let hi = if b + 1 < BUCKETS {
                    bucket_lo(b + 1) - 1
                } else {
                    u64::MAX
                };
                let i = rank - seen;
                let est = lo as u128 + (hi - lo) as u128 * i as u128 / n as u128;
                return Some((est as u64).clamp(self.min, self.max));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// Deterministic JSON: non-empty buckets as `[index, count]` pairs in
    /// ascending index order, plus the exact aggregates.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| Json::Arr(vec![Json::UInt(b as u64), Json::UInt(n)]))
            .collect();
        Json::obj(vec![
            ("buckets", Json::Arr(buckets)),
            ("count", Json::UInt(self.count)),
            ("max", Json::UInt(if self.count > 0 { self.max } else { 0 })),
            ("min", Json::UInt(if self.count > 0 { self.min } else { 0 })),
            ("p50", Json::UInt(self.quantile(500).unwrap_or(0))),
            ("p95", Json::UInt(self.quantile(950).unwrap_or(0))),
            ("p99", Json::UInt(self.quantile(990).unwrap_or(0))),
            ("sum", Json::UInt(self.sum)),
        ])
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A registry of named counters and histograms. Names are `&'static str`
/// by convention (call sites name their metric once); `BTreeMap` keeps
/// export order stable regardless of registration order.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter (creating it at 0).
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increment a counter by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Observe a sample into a named histogram (creating it empty).
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().observe(v);
    }

    /// Deterministic JSON export: two sorted-key objects.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), Json::UInt(v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(&k, h)| (k.to_string(), h.to_json()))
                .collect(),
        );
        Json::obj(vec![("counters", counters), ("histograms", histograms)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_zero_one_max() {
        // The satellite-mandated edge cases: 0, 1, u64::MAX.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Interior edges: powers of two open a new bucket.
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1 << 63), 64);
        assert_eq!(bucket_of((1 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for b in 0..BUCKETS {
            let lo = bucket_lo(b);
            assert_eq!(bucket_of(lo), b, "lower bound of bucket {b}");
            if b + 1 < BUCKETS {
                let hi = bucket_lo(b + 1) - 1;
                assert_eq!(bucket_of(hi), b, "upper bound of bucket {b}");
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_observes_edge_values() {
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(64), 1);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        // Sum saturates instead of wrapping past u64::MAX.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn empty_histogram_has_no_min_max() {
        let h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let j = h.to_json();
        assert_eq!(j.field("count").unwrap().as_u64().unwrap(), 0);
        assert!(j.field("buckets").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn histogram_json_lists_only_occupied_buckets() {
        let mut h = Histogram::new();
        h.observe(5); // bucket 3
        h.observe(5);
        h.observe(1); // bucket 1
        let j = h.to_json();
        let buckets = j.field("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].as_arr().unwrap()[0].as_u64().unwrap(), 1);
        assert_eq!(buckets[1].as_arr().unwrap()[0].as_u64().unwrap(), 3);
        assert_eq!(buckets[1].as_arr().unwrap()[1].as_u64().unwrap(), 2);
    }

    #[test]
    fn quantiles_on_single_value_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.observe(7);
        }
        // All mass in one bucket, clamped to [min, max] = [7, 7].
        assert_eq!(h.quantile(500), Some(7));
        assert_eq!(h.quantile(950), Some(7));
        assert_eq!(h.quantile(990), Some(7));
        assert_eq!(h.quantile(0), Some(7));
        assert_eq!(h.quantile(1000), Some(7));
    }

    #[test]
    fn quantiles_pick_the_right_bucket() {
        let mut h = Histogram::new();
        // 90 small samples, 10 large: p50 lands in the small bucket,
        // p95/p99 in the large one.
        for _ in 0..90 {
            h.observe(3); // bucket 2: [2, 3]
        }
        for _ in 0..10 {
            h.observe(1000); // bucket 10: [512, 1023]
        }
        let p50 = h.quantile(500).unwrap();
        assert!((2..=3).contains(&p50), "p50 = {p50}");
        let p95 = h.quantile(950).unwrap();
        assert!((512..=1000).contains(&p95), "p95 = {p95}");
        let p99 = h.quantile(990).unwrap();
        assert!((512..=1000).contains(&p99), "p99 = {p99}");
        // Monotone in permille.
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn quantiles_clamp_to_observed_extremes() {
        let mut h = Histogram::new();
        h.observe(5); // bucket 3 spans [4, 7]; interpolation must not
        h.observe(6); // wander outside the observed [5, 6].
        for p in [0, 500, 950, 990, 1000] {
            let q = h.quantile(p).unwrap();
            assert!((5..=6).contains(&q), "q({p}) = {q}");
        }
        assert_eq!(Histogram::new().quantile(500), None);
    }

    #[test]
    fn quantiles_survive_top_bucket() {
        let mut h = Histogram::new();
        h.observe(u64::MAX); // bucket 64: interpolation must not overflow
        h.observe(u64::MAX - 1);
        let q = h.quantile(990).unwrap();
        assert!(q >= u64::MAX - 1);
    }

    #[test]
    fn histogram_json_includes_quantiles() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.observe(64);
        }
        let j = h.to_json();
        assert_eq!(j.field("p50").unwrap().as_u64().unwrap(), 64);
        assert_eq!(j.field("p95").unwrap().as_u64().unwrap(), 64);
        assert_eq!(j.field("p99").unwrap().as_u64().unwrap(), 64);
        // Empty histograms export 0 (consistent with min/max handling).
        let e = Histogram::new().to_json();
        assert_eq!(e.field("p50").unwrap().as_u64().unwrap(), 0);
    }

    #[test]
    fn registry_export_is_sorted_and_stable() {
        let mut r = Registry::new();
        r.incr("zeta");
        r.add("alpha", 3);
        r.add("alpha", 2);
        r.observe("latency", 9);
        r.observe("latency", 64);
        let j = r.to_json();
        let s = j.to_string();
        // "alpha" must precede "zeta" regardless of registration order.
        assert!(s.find("alpha").unwrap() < s.find("zeta").unwrap());
        // Counters accumulate; histograms collect every sample.
        let counters = j.field("counters").unwrap();
        assert_eq!(counters.field("alpha").unwrap().as_u64().unwrap(), 5);
        assert_eq!(counters.field("zeta").unwrap().as_u64().unwrap(), 1);
        let latency = j.field("histograms").unwrap().field("latency").unwrap();
        assert_eq!(latency.field("count").unwrap().as_u64().unwrap(), 2);
        // Two identical registries export byte-identical JSON.
        let mut r2 = Registry::new();
        r2.observe("latency", 9);
        r2.add("alpha", 5);
        r2.observe("latency", 64);
        r2.incr("zeta");
        assert_eq!(s, r2.to_json().to_string());
        assert!(codec::Json::parse(&s).is_ok());
    }
}
