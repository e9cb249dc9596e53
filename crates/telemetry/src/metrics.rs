//! Lock-free metric primitives: counters, float cells, and
//! fixed-bucket histograms.
//!
//! Every recording operation is a handful of relaxed atomic updates —
//! no locks, no allocation — so `pool_map` workers sharing one
//! [`crate::Telemetry`] through an `Arc` aggregate without contention
//! on the hot path, and the instrumented Newton warm path stays
//! allocation-free (pinned by the alloctrack test suite).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::fmt_f64;

/// A monotonically increasing (or max-tracking) `u64` metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `v` if `v` is larger (high-water marks
    /// such as sparse pattern / fill-in sizes).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomically updated `f64` stored as its bit pattern. Supports
/// accumulation and min/max tracking via compare-and-swap.
#[derive(Debug)]
pub struct FloatCell(AtomicU64);

impl FloatCell {
    pub fn new(v: f64) -> Self {
        Self(AtomicU64::new(v.to_bits()))
    }

    /// A cell that accumulates from zero.
    pub fn zero() -> Self {
        Self::new(0.0)
    }

    /// A cell tracking a running minimum (starts at `+inf`, so any
    /// finite update lowers it).
    pub fn min_tracker() -> Self {
        Self::new(f64::INFINITY)
    }

    /// A cell tracking a running maximum (starts at `-inf`).
    pub fn max_tracker() -> Self {
        Self::new(f64::NEG_INFINITY)
    }

    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// `self += delta`, atomically. NaN deltas are ignored so one bad
    /// sample cannot poison an accumulator.
    #[inline]
    pub fn add(&self, delta: f64) {
        if delta.is_nan() {
            return;
        }
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Lowers the cell to `v` if `v` is smaller. NaN is ignored.
    #[inline]
    pub fn update_min(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                if v < f64::from_bits(bits) {
                    Some(v.to_bits())
                } else {
                    None
                }
            });
    }

    /// Raises the cell to `v` if `v` is larger. NaN is ignored.
    #[inline]
    pub fn update_max(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                if v > f64::from_bits(bits) {
                    Some(v.to_bits())
                } else {
                    None
                }
            });
    }

    /// The cell's value as a JSON fragment; tracker cells that were
    /// never updated (still at `±inf`) serialize as `null`.
    pub fn to_json(&self) -> String {
        fmt_f64(self.get())
    }
}

/// A fixed-bucket histogram with atomic counts.
///
/// The bucket layout is decided once at construction (a sorted list of
/// upper edges, with one implicit overflow bucket), so recording is a
/// binary search plus a few relaxed atomic updates — lock- and
/// allocation-free, safe to share across `pool_map` workers.
#[derive(Debug)]
pub struct Histogram {
    /// Sorted, finite, deduplicated inclusive upper edges. Bucket `i`
    /// counts samples `v` with `edges[i-1] < v <= edges[i]`.
    edges: Vec<f64>,
    /// `edges.len() + 1` slots; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: FloatCell,
    min: FloatCell,
    max: FloatCell,
}

impl Histogram {
    /// Builds a histogram from explicit upper edges. Non-finite edges
    /// are dropped; the rest are sorted and deduplicated.
    pub fn with_edges(mut edges: Vec<f64>) -> Self {
        edges.retain(|e| e.is_finite());
        edges.sort_by(f64::total_cmp);
        edges.dedup_by(|a, b| a.to_bits() == b.to_bits());
        let buckets = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            edges,
            buckets,
            count: AtomicU64::new(0),
            sum: FloatCell::zero(),
            min: FloatCell::min_tracker(),
            max: FloatCell::max_tracker(),
        }
    }

    /// `n` equal-width buckets spanning `(lo, hi]`, plus overflow.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        let n = n.max(1);
        let edges = (1..=n)
            .map(|i| lo + (hi - lo) * (i as f64) / (n as f64))
            .collect();
        Self::with_edges(edges)
    }

    /// One bucket per decade: edges `10^lo_exp ..= 10^hi_exp`.
    pub fn log10_decades(lo_exp: i32, hi_exp: i32) -> Self {
        let (lo, hi) = if lo_exp <= hi_exp {
            (lo_exp, hi_exp)
        } else {
            (hi_exp, lo_exp)
        };
        let edges = (lo..=hi).map(|e| 10f64.powi(e)).collect();
        Self::with_edges(edges)
    }

    /// Records one sample. Non-finite samples are ignored (they carry
    /// no bucket and would poison `sum`).
    #[inline]
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let i = self.edges.partition_point(|e| *e < v);
        if let Some(b) = self.buckets.get(i) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
        self.min.update_min(v);
        self.max.update_max(v);
    }

    /// Convenience for integer-valued metrics (iteration counts, …).
    #[inline]
    pub fn record_usize(&self, v: usize) {
        self.record(v as f64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    /// Mean of recorded samples, or `None` before the first record.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            None
        } else {
            Some(self.sum() / n as f64)
        }
    }

    pub fn min(&self) -> Option<f64> {
        let v = self.min.get();
        v.is_finite().then_some(v)
    }

    pub fn max(&self) -> Option<f64> {
        let v = self.max.get();
        v.is_finite().then_some(v)
    }

    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// A snapshot of the bucket counts (`edges.len() + 1` entries; the
    /// last is the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Serializes the histogram as one JSON object:
    /// `{"count":…,"sum":…,"min":…,"max":…,"mean":…,"le":[…],"buckets":[…]}`.
    /// `buckets` has one more entry than `le` (the overflow bucket).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str(&format!("{{\"count\":{}", self.count()));
        s.push_str(&format!(",\"sum\":{}", fmt_f64(self.sum())));
        let opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), fmt_f64);
        s.push_str(&format!(",\"min\":{}", opt(self.min())));
        s.push_str(&format!(",\"max\":{}", opt(self.max())));
        s.push_str(&format!(",\"mean\":{}", opt(self.mean())));
        s.push_str(",\"le\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&fmt_f64(*e));
        }
        s.push_str("],\"buckets\":[");
        for (i, b) in self.bucket_counts().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&b.to_string());
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn counter_inc_add_max() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.record_max(3);
        assert_eq!(c.get(), 5);
        c.record_max(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn float_cell_accumulates_and_tracks_extrema() {
        let acc = FloatCell::zero();
        acc.add(1.5);
        acc.add(2.5);
        assert!((acc.get() - 4.0).abs() < 1e-15);
        acc.add(f64::NAN);
        assert!((acc.get() - 4.0).abs() < 1e-15);

        let lo = FloatCell::min_tracker();
        let hi = FloatCell::max_tracker();
        for v in [3.0, -1.0, 2.0, f64::NAN] {
            lo.update_min(v);
            hi.update_max(v);
        }
        assert!((lo.get() + 1.0).abs() < 1e-15);
        assert!((hi.get() - 3.0).abs() < 1e-15);
    }

    #[test]
    fn histogram_buckets_by_inclusive_upper_edge() {
        let h = Histogram::with_edges(vec![1.0, 2.0, 4.0]);
        // v <= 1 -> bucket 0; 1 < v <= 2 -> bucket 1; 2 < v <= 4 -> 2;
        // v > 4 -> overflow.
        for v in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert!((h.min().unwrap() - 0.5).abs() < 1e-15);
        assert!((h.max().unwrap() - 100.0).abs() < 1e-15);
    }

    #[test]
    fn histogram_ignores_non_finite_samples() {
        let h = Histogram::linear(0.0, 10.0, 5);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_none());
        assert!(h.min().is_none());
    }

    #[test]
    fn decade_histogram_covers_timestep_scales() {
        let h = Histogram::log10_decades(-15, -3);
        assert_eq!(h.edges().len(), 13);
        h.record(4e-12); // (1e-12, 1e-11] ? no: 1e-12 < 4e-12 <= 1e-11
        let counts = h.bucket_counts();
        let nonzero: Vec<usize> = counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(nonzero, vec![4]); // edges[3]=1e-12 < v <= edges[4]=1e-11
    }

    #[test]
    fn empty_histogram_is_well_formed_and_reports_nothing() {
        let h = Histogram::log10_decades(-12, -3);
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_none());
        assert!(h.min().is_none());
        assert!(h.max().is_none());
        assert!(h.bucket_counts().iter().all(|&c| c == 0));
        let j = h.to_json();
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"mean\":null"), "{j}");
    }

    #[test]
    fn single_sample_sets_every_summary_stat() {
        let h = Histogram::with_edges(vec![1.0, 10.0, 100.0]);
        h.record(7.0);
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 7.0).abs() < 1e-15);
        assert!((h.mean().unwrap() - 7.0).abs() < 1e-15);
        assert!((h.min().unwrap() - 7.0).abs() < 1e-15);
        assert!((h.max().unwrap() - 7.0).abs() < 1e-15);
        assert_eq!(h.bucket_counts(), vec![0, 1, 0, 0]);
    }

    #[test]
    fn overflow_bucket_saturates_without_losing_samples() {
        let h = Histogram::with_edges(vec![1.0, 2.0]);
        for _ in 0..1000 {
            h.record(1e12);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.bucket_counts(), vec![0, 0, 1000]);
        assert!((h.max().unwrap() - 1e12).abs() < 1e-3);
        // Degenerate layouts still bucket: everything in overflow.
        let empty_edges = Histogram::with_edges(vec![]);
        empty_edges.record(5.0);
        assert_eq!(empty_edges.bucket_counts(), vec![1]);
    }

    #[test]
    fn histogram_json_is_well_formed() {
        let h = Histogram::with_edges(vec![1.0, 10.0]);
        assert!(validate(&h.to_json()).is_ok(), "{}", h.to_json());
        h.record(0.5);
        h.record(50.0);
        let j = h.to_json();
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"count\":2"));
        assert!(j.contains("\"buckets\":[1,0,1]"));
    }

    #[test]
    fn shared_histogram_aggregates_across_threads() {
        let h = std::sync::Arc::new(Histogram::linear(0.0, 8.0, 8));
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..100 {
                        h.record((t * 2) as f64 + (i % 2) as f64);
                    }
                });
            }
        });
        assert_eq!(h.count(), 400);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 400);
    }
}
